//! Randomized property tests of the netlist layer: write→parse
//! round-trips, stamping invariants (symmetry, diagonal dominance) and
//! unstamp/restamp identity.
//!
//! Each property sweeps a deterministic set of [`XorShiftRng`] seeds, so
//! failures reproduce exactly. The default sweep is small enough for the
//! tier-1 suite; the `slow-tests` feature widens it.

use pact_netlist::{extract_rc, parse, unstamp, Branch, Element, ElementKind, Netlist, RcNetwork};
use pact_sparse::{DMat, TripletMat, XorShiftRng};

#[cfg(feature = "slow-tests")]
const CASES: u64 = 96;
#[cfg(not(feature = "slow-tests"))]
const CASES: u64 = 16;

fn seeds() -> impl Iterator<Item = u64> {
    (0..CASES).map(|k| 0xbead * 1000 + k)
}

/// Realistic positive SPICE magnitude, log-uniform over 1e-15..1e6.
fn value(rng: &mut XorShiftRng) -> f64 {
    10f64.powf(rng.gen_range_f64(-15.0, 6.0))
}

/// A random lowercase identifier matching `[a-z][a-z0-9]{0,6}`.
fn node_name(rng: &mut XorShiftRng) -> String {
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut s = String::new();
    s.push(HEAD[rng.gen_index(HEAD.len())] as char);
    for _ in 0..rng.gen_index(7) {
        s.push(TAIL[rng.gen_index(TAIL.len())] as char);
    }
    s
}

#[test]
fn write_parse_roundtrip_rc() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let names: Vec<String> = (0..2 + rng.gen_index(6))
            .map(|_| node_name(&mut rng))
            .collect();
        let values: Vec<f64> = (0..1 + rng.gen_index(11))
            .map(|_| value(&mut rng))
            .collect();
        // Build a deck of R/C elements over the node pool and one source.
        let mut nl = Netlist::new("roundtrip");
        nl.elements.push(Element {
            name: "V1".into(),
            kind: ElementKind::VSource {
                p: names[0].clone().into(),
                n: "0".into(),
                wave: Box::new(pact_netlist::Waveform::Dc(1.0)),
            },
        });
        for (k, v) in values.iter().enumerate() {
            let a = names[k % names.len()].clone();
            let b = names[(k + 1) % names.len()].clone();
            if a == b {
                continue;
            }
            if k % 2 == 0 {
                nl.elements
                    .push(Element::resistor(format!("R{k}"), a, b, *v));
            } else {
                nl.elements
                    .push(Element::capacitor(format!("C{k}"), a, b, *v));
            }
        }
        let text = nl.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(nl.elements.len(), back.elements.len(), "seed {seed}");
        for (x, y) in nl.elements.iter().zip(&back.elements) {
            match (&x.kind, &y.kind) {
                (ElementKind::Resistor { ohms: a, .. }, ElementKind::Resistor { ohms: b, .. }) => {
                    assert!((a - b).abs() <= 1e-5 * a.abs(), "seed {seed}");
                }
                (
                    ElementKind::Capacitor { farads: a, .. },
                    ElementKind::Capacitor { farads: b, .. },
                ) => {
                    assert!((a - b).abs() <= 1e-5 * a.abs(), "seed {seed}");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn stamping_is_symmetric_nonneg() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let resistors: Vec<Branch> = (0..1 + rng.gen_index(14))
            .map(|_| {
                let a = rng.gen_index(6);
                let b = rng.gen_index(6);
                Branch {
                    a: Some(a),
                    b: if a == b { None } else { Some(b) },
                    value: rng.gen_range_f64(1.0, 1e5),
                }
            })
            .collect();
        let capacitors: Vec<Branch> = (0..1 + rng.gen_index(7))
            .map(|_| Branch {
                a: Some(rng.gen_index(6)),
                b: None,
                value: rng.gen_range_f64(1e-15, 1e-9),
            })
            .collect();
        let net = RcNetwork {
            node_names: (0..6).map(|i| format!("n{i}")).collect(),
            num_ports: 2,
            resistors,
            capacitors,
        };
        let st = net.stamp();
        assert!(st.g.is_symmetric(0.0), "seed {seed}");
        assert!(st.c.is_symmetric(0.0), "seed {seed}");
        // Stamped physical networks are weakly diagonally dominant —
        // the paper's sufficient condition for non-negative definiteness.
        assert!(st.g.is_diag_dominant(1e-12), "seed {seed}");
        assert!(st.c.is_diag_dominant(1e-12), "seed {seed}");
    }
}

#[test]
fn unstamp_restamp_identity() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        // Build a symmetric diagonally-dominant G (scaled), zero C.
        let mut g = DMat::zeros(4, 4);
        for i in 0..4 {
            for j in i + 1..4 {
                let v = rng.gen_range_f64(-0.4, 0.4);
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        for i in 0..4 {
            g[(i, i)] = rng.gen_range_f64(0.5, 10.0) + 2.0; // ensure dominance
        }
        let c = DMat::zeros(4, 4);
        let names: Vec<String> = (0..4).map(|i| format!("n{i}")).collect();
        let els = unstamp(&g, &c, &names, "t");
        // Restamp.
        let idx = |s: &str| -> Option<usize> {
            if s == "0" {
                None
            } else {
                names.iter().position(|n| n == s)
            }
        };
        let mut gt = TripletMat::new(4, 4);
        for e in &els {
            if let ElementKind::Resistor { a, b, ohms } = &e.kind {
                gt.stamp_conductance(idx(a), idx(b), 1.0 / ohms);
            }
        }
        let gs = gt.to_csr();
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (gs.get(i, j) - g[(i, j)]).abs() <= 1e-10 * g.norm_max(),
                    "seed {seed}: mismatch at ({i}, {j})"
                );
            }
        }
    }
}

#[test]
fn port_rule_is_stable_under_element_order() {
    for seed in seeds() {
        // Shuffling element order must not change the port set.
        let deck = "\
* order
V1 a 0 1
R1 a b 100
R2 b c 100
C1 c 0 1p
M1 x c 0 0 nch
.model nch nmos()
.end
";
        let nl = parse(deck).unwrap();
        let ex1 = extract_rc(&nl, &[]).unwrap();
        let mut shuffled = nl.clone();
        // Deterministic pseudo-shuffle from the seed.
        let n = shuffled.elements.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            shuffled.elements.swap(i, j);
        }
        let ex2 = extract_rc(&shuffled, &[]).unwrap();
        assert_eq!(ex1.network.num_ports, ex2.network.num_ports, "seed {seed}");
        let mut p1 = ex1.network.node_names[..ex1.network.num_ports].to_vec();
        let mut p2 = ex2.network.node_names[..ex2.network.num_ports].to_vec();
        p1.sort();
        p2.sort();
        assert_eq!(p1, p2, "seed {seed}");
    }
}
