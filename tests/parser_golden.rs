//! Golden tests for parser error messages.
//!
//! Each fixture in `tests/fixtures/` is a deliberately malformed SPICE
//! deck; the expected rendering of the resulting [`ParseNetlistError`] is
//! snapshot-asserted below, exactly, so any change to error wording, line
//! attribution or column attribution shows up as a diff in this file.

use pact_netlist::{parse, ParseNetlistError};

/// (fixture, expected `Display` rendering of the parse error)
const GOLDEN: &[(&str, &str, &str)] = &[
    (
        "bad_units.sp",
        include_str!("fixtures/bad_units.sp"),
        "line 2, col 11: invalid SPICE number `abc`",
    ),
    (
        "dangling_ends.sp",
        include_str!("fixtures/dangling_ends.sp"),
        "line 3: .ends without matching .subckt",
    ),
    (
        "duplicate_subckt.sp",
        include_str!("fixtures/duplicate_subckt.sp"),
        "line 5: duplicate .subckt definition `cell`",
    ),
    (
        "unterminated_subckt.sp",
        include_str!("fixtures/unterminated_subckt.sp"),
        "line 2: unterminated .subckt `cell`",
    ),
    (
        "bad_model.sp",
        include_str!("fixtures/bad_model.sp"),
        "line 2, col 11: unsupported model type `bjt`",
    ),
    (
        "missing_value.sp",
        include_str!("fixtures/missing_value.sp"),
        "line 2: expected `NAME node1 node2 value`",
    ),
    (
        "bad_ac.sp",
        include_str!("fixtures/bad_ac.sp"),
        "line 3, col 9: invalid point count",
    ),
    (
        "unsupported_element.sp",
        include_str!("fixtures/unsupported_element.sp"),
        "line 2: unsupported element type `q`",
    ),
    (
        "bad_pulse.sp",
        include_str!("fixtures/bad_pulse.sp"),
        "line 2, col 24: invalid SPICE number `zz`",
    ),
    // Extended element set: the new kinds carry the same line/column
    // attribution discipline as the original R/C/MOS cards.
    (
        "bad_inductor.sp",
        include_str!("fixtures/bad_inductor.sp"),
        "line 2, col 8: invalid SPICE number `abc`",
    ),
    (
        "bad_vcvs.sp",
        include_str!("fixtures/bad_vcvs.sp"),
        "line 2: expected `Ename p n cp cn value` (controlled source)",
    ),
    (
        "bad_cccs_ctrl.sp",
        include_str!("fixtures/bad_cccs_ctrl.sp"),
        "line 2, col 11: controlling element `R3` must be a voltage source (V…)",
    ),
    (
        "bad_diode_area.sp",
        include_str!("fixtures/bad_diode_area.sp"),
        "line 2, col 24: diode area must be positive and finite, got -1",
    ),
    (
        "duplicate_model.sp",
        include_str!("fixtures/duplicate_model.sp"),
        "line 3, col 8: duplicate .model definition `nch`",
    ),
    (
        "short_source.sp",
        include_str!("fixtures/short_source.sp"),
        "line 3: expected `Vname n+ n- [value | waveform]`",
    ),
    // The column is the token's own, not the first occurrence of its
    // text in the card (`b` first occurs inside `nb`, at column 8).
    (
        "value_in_node_name.sp",
        include_str!("fixtures/value_in_node_name.sp"),
        "line 2, col 10: invalid SPICE number `b`",
    ),
];

#[test]
fn malformed_decks_produce_exact_error_messages() {
    for (name, deck, expected) in GOLDEN {
        let e: ParseNetlistError = parse(deck)
            .map(|_| panic!("{name}: expected a parse error, deck was accepted"))
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            *expected,
            "{name}: error message drifted from golden snapshot"
        );
    }
}

#[test]
fn error_columns_point_at_the_offending_token() {
    // The column in each golden message must actually land on the token
    // it names within the fixture's source line, so the attribution is
    // usable by editors and humans counting characters.
    for (name, deck, expected) in GOLDEN {
        let e = parse(deck).unwrap_err();
        if e.col == 0 {
            continue;
        }
        let line = deck
            .lines()
            .nth(e.line - 1)
            .unwrap_or_else(|| panic!("{name}: error line {} out of range", e.line));
        // The message quotes the offending token between backticks; check
        // the source line holds exactly that token at the reported column,
        // not just its text inside a longer one.
        if let Some(tok) = expected.split('`').nth(1) {
            let (start, end) = (e.col - 1, e.col - 1 + tok.len());
            assert_eq!(
                &line[start..end],
                tok,
                "{name}: col {} does not point at `{tok}` in {line:?}",
                e.col
            );
            let separator = |c: Option<char>| {
                c.is_none_or(|c| c.is_whitespace() || matches!(c, '(' | ')' | '='))
            };
            assert!(
                separator(line[..start].chars().next_back())
                    && separator(line[end..].chars().next()),
                "{name}: col {} points inside a longer token in {line:?}",
                e.col
            );
        }
    }
}

#[test]
fn well_formed_decks_still_parse() {
    // Guard against the golden fixtures' failure modes leaking into the
    // happy path: a deck exercising the same constructs, well formed.
    let deck = "\
* all constructs, valid
.subckt cell a b
R1 a b 1k
.ends
X1 n1 n2 cell
.model nch nmos (vto=0.7)
R1 in out 250
C1 out 0 1.35p
V1 in 0 pulse(0 5 0 1n 1n 3n 10n)
.ac dec 10 10meg 10g
.end
";
    let nl = parse(deck).expect("valid deck must parse");
    assert_eq!(nl.subckts.len(), 1);
    assert_eq!(nl.elements.len(), 3);
}
