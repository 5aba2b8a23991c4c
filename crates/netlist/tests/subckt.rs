//! Hierarchical-deck tests: `.SUBCKT` parsing, flattening semantics
//! (port binding, internal-node renaming, nesting, ground pass-through)
//! and error reporting — followed by a reduction of a flattened deck to
//! prove the hierarchy integrates with the PACT flow.

use pact_netlist::{extract_rc, parse, ElementKind, FlattenError};

#[test]
fn parses_and_flattens_simple_subckt() {
    let deck = "\
* hier
.model nch nmos ()
.subckt invd in out vdd
MN out in 0 0 nch w=4u l=1u
MP out in vdd vdd nch w=8u l=1u
Rload out mid 100
Cload mid 0 10f
.ends
Vdd vdd 0 5
X1 a b vdd invd
X2 b c vdd invd
.end
";
    let nl = parse(deck).unwrap();
    assert_eq!(nl.subckts.len(), 1);
    assert_eq!(nl.instances.len(), 2);
    assert_eq!(nl.subckts["invd"].ports, vec!["in", "out", "vdd"]);
    assert_eq!(nl.elements.len(), 1); // just Vdd at top level

    let flat = nl.flatten().unwrap();
    assert!(flat.instances.is_empty());
    // 2 instances × 4 elements + Vdd.
    assert_eq!(flat.elements.len(), 9);
    // Port binding: X1's `out` is node `b`, which is X2's `in`.
    let x1_mn = flat
        .elements
        .iter()
        .find(|e| e.name == "MN.x1")
        .expect("flattened device name");
    match &x1_mn.kind {
        ElementKind::Mosfet(m) => {
            assert_eq!(m.d, "b");
            assert_eq!(m.g, "a");
            assert_eq!(m.s, "0"); // ground passes through
        }
        other => panic!("wrong kind {other:?}"),
    }
    // Internal node renamed per instance.
    let x2_c = flat
        .elements
        .iter()
        .find(|e| e.name == "Cload.x2")
        .expect("flattened cap");
    match &x2_c.kind {
        ElementKind::Capacitor { a, .. } => assert_eq!(a, "x2.mid"),
        other => panic!("wrong kind {other:?}"),
    }
}

#[test]
fn nested_subckts_flatten_recursively() {
    let deck = "\
* nested
.subckt leaf a b
R1 a m 50
R2 m b 50
.ends
.subckt pair x y
X1 x m leaf
X2 m y leaf
.ends
V1 p 0 1
Xtop p q pair
Rload q 0 1k
.end
";
    let nl = parse(deck).unwrap();
    let flat = nl.flatten().unwrap();
    // 2 leaves × 2 R + V1 + Rload = 6 elements.
    assert_eq!(flat.elements.len(), 6);
    // Nested internal node carries the full instance path.
    assert!(flat.elements.iter().any(|e| e
        .nodes()
        .into_iter()
        .any(|n| n == "xtop.x1.m" || n == "xtop.x2.m")));
    // Shared mid node between the two leaves belongs to `pair`'s scope.
    assert!(flat.elements.iter().any(|e| e.nodes().contains(&"xtop.m")));
}

#[test]
fn unknown_subckt_is_reported() {
    let nl = parse("* e\nX1 a b nosuch\n.end\n").unwrap();
    match nl.flatten() {
        Err(FlattenError::UnknownSubckt { subckt, .. }) => assert_eq!(subckt, "nosuch"),
        other => panic!("expected UnknownSubckt, got {other:?}"),
    }
}

#[test]
fn port_mismatch_is_reported() {
    let deck = "* e\n.subckt two a b\nR1 a b 1k\n.ends\nX1 x two\n.end\n";
    let nl = parse(deck).unwrap();
    assert!(matches!(
        nl.flatten(),
        Err(FlattenError::PortMismatch {
            expected: 2,
            got: 1,
            ..
        })
    ));
}

#[test]
fn recursive_subckt_hits_depth_limit() {
    let deck = "* cycle\n.subckt loop a\nX1 a loop\n.ends\nXtop n loop\n.end\n";
    let nl = parse(deck).unwrap();
    assert!(matches!(nl.flatten(), Err(FlattenError::TooDeep { .. })));
}

#[test]
fn unterminated_subckt_is_parse_error() {
    let e = parse("* u\n.subckt broken a\nR1 a 0 1k\n.end\n").unwrap_err();
    assert!(e.message.contains("unterminated"));
}

#[test]
fn flattened_hierarchy_reduces_like_flat_deck() {
    // An RC line packaged as a subcircuit: flatten then extract+reduce.
    let mut deck = String::from("* line in a box\n.subckt seg a b\nR1 a m 25\nC1 m 0 130f\nR2 m b 25\n.ends\nV1 n0 0 1\nM1 q n4 0 0 nch\n.model nch nmos()\n");
    for i in 0..4 {
        deck.push_str(&format!("Xs{i} n{i} n{} seg\n", i + 1));
    }
    deck.push_str(".end\n");
    let nl = parse(&deck).unwrap().flatten().unwrap();
    let ex = extract_rc(&nl, &[]).unwrap();
    assert_eq!(ex.network.num_ports, 2);
    assert_eq!(ex.network.num_internal(), 7); // 3 joints + 4 mids
    let red = pact::reduce_network(
        &ex.network,
        &pact::ReduceOptions::new(pact::CutoffSpec::new(5e9, 0.05).unwrap()),
    )
    .unwrap();
    assert!(red.model.is_passive(1e-8));
}
