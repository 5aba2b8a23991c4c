//! Randomized tests of the paper's central invariants, over randomly
//! generated RC networks:
//!
//! 1. **Passivity** — congruence transforms preserve non-negative
//!    definiteness, so every reduction is passive (Section 3);
//! 2. **Exact moments** — DC admittance and its first derivative are
//!    matched exactly (eq. 7–9);
//! 3. **Real, stable poles** — all retained poles are real and negative
//!    (Section 2).
//!
//! Each property sweeps a deterministic set of [`XorShiftRng`] seeds, so
//! failures reproduce exactly. The default sweep is small enough for the
//! tier-1 suite; the `slow-tests` feature widens it.

use pact::{CutoffSpec, Partitions, ReduceOptions, YEvaluator};
use pact_netlist::{Branch, RcNetwork};
use pact_sparse::XorShiftRng;

#[cfg(feature = "slow-tests")]
const CASES: u64 = 48;
#[cfg(not(feature = "slow-tests"))]
const CASES: u64 = 8;

fn seeds() -> impl Iterator<Item = u64> {
    (0..CASES).map(|k| 0xac7 * 1000 + k)
}

/// A random connected RC network with `ports` ports and `internals`
/// internal nodes. A random spanning tree guarantees DC paths
/// (positive-definite `D`); extra random resistors and capacitors add
/// mesh structure.
fn rc_network(ports: usize, internals: usize, rng: &mut XorShiftRng) -> RcNetwork {
    let n = ports + internals;
    let mut node_names: Vec<String> = (0..ports).map(|i| format!("p{i}")).collect();
    node_names.extend((0..internals).map(|i| format!("i{i}")));
    let mut resistors = Vec::new();
    // Spanning tree over nodes 0..n with node 0 grounded.
    resistors.push(Branch {
        a: Some(0),
        b: None,
        value: rng.gen_range_f64(10.0, 10_000.0),
    });
    for k in 1..n {
        // parent = deterministic pseudo-random earlier node
        let parent = (k * 7 + 3) % k;
        resistors.push(Branch {
            a: Some(k),
            b: Some(parent),
            value: rng.gen_range_f64(10.0, 10_000.0),
        });
    }
    for _ in 0..rng.gen_index(2 * n) {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n);
        let r = rng.gen_range_f64(10.0, 100_000.0);
        if rng.gen_f64() < 0.5 {
            resistors.push(Branch {
                a: Some(a),
                b: None,
                value: r,
            });
        } else if a != b {
            resistors.push(Branch {
                a: Some(a),
                b: Some(b),
                value: r,
            });
        }
    }
    let capacitors = (0..1 + rng.gen_index(n))
        .map(|_| Branch {
            a: Some(rng.gen_index(n)),
            b: None,
            value: rng.gen_range_f64(1e-15, 5e-12),
        })
        .collect();
    RcNetwork {
        node_names,
        num_ports: ports,
        resistors,
        capacitors,
    }
}

#[test]
fn reductions_are_passive() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let net = rc_network(3, 12, &mut rng);
        let fmax = rng.gen_range_f64(1e8, 2e10);
        let opts = ReduceOptions::new(CutoffSpec::new(fmax, 0.05).unwrap());
        let red = pact::reduce_network(&net, &opts).unwrap();
        assert!(
            red.model.is_passive(1e-7),
            "seed {seed}: reduction not passive"
        );
    }
}

#[test]
fn poles_are_real_negative_and_below_cutoff() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let net = rc_network(2, 10, &mut rng);
        let spec = CutoffSpec::new(1e9, 0.05).unwrap();
        let red = pact::reduce_network(&net, &ReduceOptions::new(spec)).unwrap();
        for &lam in &red.model.lambdas {
            // λ > 0 ⇔ pole s = −1/λ real negative.
            assert!(lam > 0.0, "seed {seed}");
            // Retained ⇒ pole frequency below cutoff.
            let f_pole = 1.0 / (2.0 * std::f64::consts::PI * lam);
            assert!(
                f_pole <= spec.cutoff_frequency() * (1.0 + 1e-9),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn dc_moment_is_exact() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let net = rc_network(3, 10, &mut rng);
        let red = pact::reduce_network(
            &net,
            &ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap()),
        )
        .unwrap();
        let parts = Partitions::split(&net.stamp());
        let full = YEvaluator::new(&parts);
        let y0e = full.y_at(0.0).unwrap();
        let y0r = red.model.y_at(0.0);
        let scale = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| y0e[(i, j)].abs())
            .fold(1e-300, f64::max);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (y0e[(i, j)].re - y0r[(i, j)].re).abs() <= 1e-8 * scale,
                    "seed {seed}: DC moment mismatch at ({i}, {j})"
                );
            }
        }
    }
}

#[test]
fn unstamped_netlist_restamps_to_same_model() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let net = rc_network(2, 8, &mut rng);
        // to_netlist_elements → restamp → admittance identical.
        let red = pact::reduce_network(
            &net,
            &ReduceOptions::new(CutoffSpec::new(5e9, 0.05).unwrap()),
        )
        .unwrap();
        let els = red.model.to_netlist_elements("x", 0.0);
        let mut names = red.model.port_names.clone();
        for i in 0..red.model.num_poles() {
            names.push(format!("x_p{i}"));
        }
        let idx = |s: &str| names.iter().position(|n| n == s);
        let nn = names.len();
        let mut gt = pact_sparse::TripletMat::new(nn, nn);
        let mut ct = pact_sparse::TripletMat::new(nn, nn);
        for e in &els {
            match &e.kind {
                pact_netlist::ElementKind::Resistor { a, b, ohms } => {
                    gt.stamp_conductance(idx(a), idx(b), 1.0 / ohms);
                }
                pact_netlist::ElementKind::Capacitor { a, b, farads } => {
                    ct.stamp_conductance(idx(a), idx(b), *farads);
                }
                _ => panic!("seed {seed}: non-RC element emitted"),
            }
        }
        let st = pact_netlist::Stamped {
            g: gt.to_csr(),
            c: ct.to_csr(),
            num_ports: red.model.num_ports(),
        };
        let parts = Partitions::split(&st);
        let full = YEvaluator::new(&parts);
        for &f in &[1e8f64, 2e9] {
            let ya = full.y_at(f).unwrap();
            let yb = red.model.y_at(f);
            let scale = (0..2)
                .flat_map(|i| (0..2).map(move |j| (i, j)))
                .map(|(i, j)| yb[(i, j)].abs())
                .fold(1e-300, f64::max);
            for i in 0..2 {
                for j in 0..2 {
                    assert!(
                        (ya[(i, j)] - yb[(i, j)]).abs() <= 1e-6 * scale,
                        "seed {seed}: netlist mismatch at f={f} ({i}, {j})"
                    );
                }
            }
        }
    }
}

#[test]
fn more_tolerance_never_keeps_more_poles() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let net = rc_network(2, 14, &mut rng);
        let tight = pact::reduce_network(
            &net,
            &ReduceOptions::new(CutoffSpec::new(1e9, 0.01).unwrap()),
        )
        .unwrap();
        let loose = pact::reduce_network(
            &net,
            &ReduceOptions::new(CutoffSpec::new(1e9, 0.30).unwrap()),
        )
        .unwrap();
        assert!(
            loose.model.num_poles() <= tight.model.num_poles(),
            "seed {seed}"
        );
    }
}
