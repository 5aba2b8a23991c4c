//! Seeded mutation fuzz of the deck pipeline and of `rcfitd-v1` request
//! parsing: no deck text and no request line may panic.
//!
//! Three seed decks (the serve golden deck; a deck with a subcircuit,
//! MOS, L, D and a pulse source; an RC ladder) are mutated by deleting
//! and replacing bytes and by inserting SPICE tokens, then run through
//! `prepare_deck` → `reduce_prepared` → `render_reduced` under four
//! option sets. The serve request fixtures are mutated the same way,
//! with JSON tokens, and fed to `parse_request`. Errors are expected and
//! ignored; a panic fails the test and names the input that caused it.
//! Every input comes from a fixed [`XorShiftRng`] seed, so a failure
//! reproduces exactly. The `slow-tests` feature widens the sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pact::json::Value;
use pact::ReductionSession;
use pact_serve::protocol::DEFAULT_MAX_DECK_BYTES;
use pact_serve::{parse_request, prepare_deck, reduce_prepared, render_reduced, DeckOptions};
use pact_sparse::XorShiftRng;

#[cfg(feature = "slow-tests")]
const INPUTS: usize = 40_000;
#[cfg(not(feature = "slow-tests"))]
const INPUTS: usize = 1_000;

const MIXED_DECK: &str = "\
* subcircuit, MOS, L, D and a pulse source
.subckt seg a b
R1 a m 50
C1 m 0 0.2p
R2 m b 50
.ends
.model nch nmos (vto=0.7)
.model dmod d (is=1e-14)
Vin in 0 pulse(0 1 0 1n 1n 3n 10n)
X1 in n1 seg
X2 n1 n2 seg
L1 n2 n3 1n
D1 n3 0 dmod area=2
M1 out n3 0 0 nch w=2u l=0.1u
Rload out 0 1k
.tran 0.1n 20n
.end
";

/// JSON tokens inserted by the request mutator.
const JSON_TOKENS: &str = r#"{ } [ ] " : , \ \u \n \" é null true false 1e999 -0 1e-4 257 "deck" "path" "options" "op" "id" "stats" "shutdown" "threads" "hier" "block_size" "eigen" "sparsify" "collapse_chains" "chain_tol" "ports" "fmax""#;

/// SPICE tokens inserted by the deck mutator: a new card of every
/// element kind and dot command, and values, keywords, ground aliases,
/// comments and separators (`\r`, a non-breaking space) within a card.
/// Multi-byte ones (`µ`, the non-breaking space) make the tokenizer's
/// byte offsets land next to characters it must never slice inside.
fn spice_tokens() -> Vec<String> {
    let cards =
        "V1 I1 R9 C9 L9 D9 M9 X9 E9 F9 G9 H9 K9 .subckt .ends .model .tran .ac .dc .print .end + *";
    let words = "0 in out 1k 1p -1 1e999 nan pulse( pwl( dc ac area= w= l= nmos d seg ( ) = \
                 $ GND Vss! \r \u{a0} µ 1µ";
    let cards = cards.split(' ').map(|c| format!("\n{c} "));
    cards
        .chain(words.split(' ').map(|w| format!(" {w} ")))
        .collect()
}

/// Printable ASCII plus newline and tab.
const BYTES: &[u8] =
    b"\n\t !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

fn ladder_deck() -> String {
    let mut deck = String::from("* rc ladder\nVdrv in 0 1\nR0 in n1 25\n");
    for i in 1..12 {
        deck.push_str(&format!("C{i} n{i} 0 50f\nR{i} n{i} n{} 25\n", i + 1));
    }
    deck.push_str("C12 n12 0 50f\nIload n12 0 1m\n.end\n");
    deck
}

/// One to three deletions, byte replacements or token insertions.
fn mutate(seed: &str, tokens: &[String], rng: &mut XorShiftRng) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.gen_index(3) {
        let at = rng.gen_index(bytes.len() + 1);
        match rng.gen_index(3) {
            0 => {
                let end = (at + 1 + rng.gen_index(8)).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            1 if at < bytes.len() => bytes[at] = BYTES[rng.gen_index(BYTES.len())],
            _ => {
                let token = tokens[rng.gen_index(tokens.len())].bytes();
                bytes.splice(at..at, token);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The pipeline both front ends run; every failure is a typed error.
fn run_pipeline(text: &str, opts: &DeckOptions) {
    let ropts = opts.reduce_options().expect("fuzzed option sets are valid");
    let Ok(prep) = prepare_deck(text, opts) else {
        return;
    };
    let mut session = ReductionSession::new(ropts);
    let Ok(red) = reduce_prepared(&prep, &mut session, opts) else {
        return;
    };
    let mut tel = prep.telemetry.clone();
    render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel);
}

fn option_sets() -> [(&'static str, DeckOptions); 4] {
    let base = DeckOptions::default;
    [
        ("defaults", base()),
        (
            "extract",
            DeckOptions {
                extract: true,
                ..base()
            },
        ),
        (
            "hier",
            DeckOptions {
                hier: true,
                block_size: 4,
                ..base()
            },
        ),
        (
            "collapse_chains",
            DeckOptions {
                collapse_chains: true,
                ..base()
            },
        ),
    ]
}

fn serve_golden_deck() -> String {
    let line = include_str!("fixtures/serve/valid_deck.jsonl");
    let doc = Value::parse(line.trim()).unwrap();
    doc.get("deck").and_then(Value::as_str).unwrap().to_owned()
}

#[test]
fn mutated_decks_never_panic_the_pipeline() {
    let seeds = [serve_golden_deck(), MIXED_DECK.to_owned(), ladder_deck()];
    let options = option_sets();
    for seed in &seeds {
        for (name, opts) in &options {
            let prep = prepare_deck(seed, opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut session = ReductionSession::new(opts.reduce_options().unwrap());
            reduce_prepared(&prep, &mut session, opts)
                .unwrap_or_else(|e| panic!("seed deck under {name}: {e}\n{seed}"));
        }
    }
    let tokens = spice_tokens();
    let mut rng = XorShiftRng::seed_from_u64(0xf022);
    for k in 0..INPUTS {
        let deck = mutate(&seeds[k % seeds.len()], &tokens, &mut rng);
        for (name, opts) in &options {
            if catch_unwind(AssertUnwindSafe(|| run_pipeline(&deck, opts))).is_err() {
                panic!("deck #{k} panicked under the {name} options:\n{deck}");
            }
        }
    }
}

#[test]
fn mutated_requests_never_panic_the_protocol() {
    let seeds = [
        include_str!("fixtures/serve/valid_deck.jsonl"),
        include_str!("fixtures/serve/extract_collapse.jsonl"),
        include_str!("fixtures/serve/bad_chain_tol.jsonl"),
        include_str!("fixtures/serve/unknown_option.jsonl"),
    ];
    let tokens: Vec<String> = JSON_TOKENS.split(' ').map(str::to_owned).collect();
    let mut rng = XorShiftRng::seed_from_u64(0x1e57);
    for k in 0..INPUTS {
        let line = mutate(seeds[k % seeds.len()].trim(), &tokens, &mut rng);
        let parsed = catch_unwind(|| {
            if let Ok(req) = parse_request(&line, DEFAULT_MAX_DECK_BYTES) {
                let _ = req.options.reduce_options();
            }
        });
        assert!(parsed.is_ok(), "request #{k} panicked:\n{line}");
    }
}
