//! Degenerate inputs through every strategy, plus the poisoned-deck
//! (NaN) regression.
//!
//! A ports-only network (nothing to eliminate) and a single-internal
//! network (a 1×1 `D` block) must come back with identical `(A′, B′)`
//! moment blocks from flat Lanczos and from hier's leaf path — the
//! moments are fixed by the congruence transform before any
//! eigensolver runs. A deck whose conductance block carries
//! a NaN must fail with the typed non-finite-pivot error (never a
//! perturbed-pivot "rescue", never a panic), with node attribution.

use pact::{
    CutoffSpec, PactError, ReduceError, ReduceOptions, ReduceStrategy, Reduction, ReductionSession,
};
use pact_netlist::{Branch, RcNetwork};
use pact_sparse::{CsrMat, FactorError};

fn strategies() -> Vec<(&'static str, ReduceStrategy)> {
    vec![
        ("flat", ReduceStrategy::Flat),
        (
            "hier",
            ReduceStrategy::Hierarchical {
                max_block: 4,
                max_depth: 16,
            },
        ),
    ]
}

/// Three ports, no internal nodes: resistor triangle with capacitors to
/// ground. There is nothing to eliminate, so `A′ = A` and `B′ = B`.
fn ports_only_network() -> RcNetwork {
    RcNetwork {
        node_names: vec!["p0".into(), "p1".into(), "p2".into()],
        num_ports: 3,
        resistors: vec![
            Branch {
                a: Some(0),
                b: None,
                value: 50.0,
            },
            Branch {
                a: Some(0),
                b: Some(1),
                value: 100.0,
            },
            Branch {
                a: Some(1),
                b: Some(2),
                value: 200.0,
            },
            Branch {
                a: Some(2),
                b: Some(0),
                value: 300.0,
            },
        ],
        capacitors: vec![
            Branch {
                a: Some(0),
                b: None,
                value: 1e-12,
            },
            Branch {
                a: Some(1),
                b: None,
                value: 2e-12,
            },
            Branch {
                a: Some(2),
                b: None,
                value: 3e-12,
            },
        ],
    }
}

/// Two ports bridged by one internal node: the smallest network with a
/// non-trivial (1×1) conductance block to eliminate.
fn single_internal_network() -> RcNetwork {
    RcNetwork {
        node_names: vec!["p0".into(), "p1".into(), "mid".into()],
        num_ports: 2,
        resistors: vec![
            Branch {
                a: Some(0),
                b: None,
                value: 75.0,
            },
            Branch {
                a: Some(0),
                b: Some(2),
                value: 120.0,
            },
            Branch {
                a: Some(2),
                b: Some(1),
                value: 240.0,
            },
        ],
        capacitors: vec![
            Branch {
                a: Some(0),
                b: None,
                value: 1e-12,
            },
            Branch {
                a: Some(2),
                b: None,
                value: 4e-12,
            },
            Branch {
                a: Some(1),
                b: None,
                value: 2e-12,
            },
        ],
    }
}

fn reduce_with(net: &RcNetwork, strategy: ReduceStrategy) -> Reduction {
    let mut opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap());
    opts.strategy = strategy;
    opts.threads = Some(1);
    ReductionSession::new(opts).reduce_network(net).unwrap()
}

fn check_moments_invariant(net: &RcNetwork, label: &str) {
    let mut reference: Option<Reduction> = None;
    for (sname, strategy) in strategies() {
        let what = format!("{label}/{sname}");
        let red = reduce_with(net, strategy);
        assert_eq!(
            red.model.num_ports(),
            net.num_ports,
            "{what}: port count changed"
        );
        for &v in red.model.a1.as_slice() {
            assert!(v.is_finite(), "{what}: non-finite entry in A'");
        }
        match &reference {
            None => reference = Some(red),
            Some(base) => {
                assert_eq!(base.model.a1, red.model.a1, "{what}: A' moments differ");
                assert_eq!(base.model.b1, red.model.b1, "{what}: B' moments differ");
                assert_eq!(
                    base.model.lambdas.len(),
                    red.model.lambdas.len(),
                    "{what}: retained pole count differs"
                );
            }
        }
    }
}

#[test]
fn ports_only_network_has_invariant_moments() {
    let net = ports_only_network();
    check_moments_invariant(&net, "ports-only");
    // Nothing to eliminate ⇒ no poles, and the moments are the stamps.
    let red = reduce_with(&net, ReduceStrategy::Flat);
    assert_eq!(red.model.num_poles(), 0, "ports-only network grew poles");
    let stamped = net.stamp();
    let g = stamped.g.to_dense();
    let c = stamped.c.to_dense();
    assert_eq!(red.model.a1, g, "ports-only A' must equal the G stamp");
    assert_eq!(red.model.b1, c, "ports-only B' must equal the C stamp");
}

#[test]
fn single_internal_network_has_invariant_moments() {
    check_moments_invariant(&single_internal_network(), "single-internal");
}

/// Replaces the diagonal entry of global row `row` of `m` with NaN.
fn poison_diagonal(m: &CsrMat, row: usize) -> CsrMat {
    let mut data = m.data().to_vec();
    let lo = m.indptr()[row];
    let hi = m.indptr()[row + 1];
    let at = (lo..hi)
        .find(|&p| m.indices()[p] == row)
        .expect("row has a diagonal entry");
    data[at] = f64::NAN;
    CsrMat::from_raw(
        m.nrows(),
        m.ncols(),
        m.indptr().to_vec(),
        m.indices().to_vec(),
        data,
    )
}

#[test]
fn poisoned_conductance_block_is_a_typed_non_finite_error() {
    // A NaN on an internal diagonal of `G` must surface as
    // `FactorError::NonFinitePivot` whether or not pivot relief is
    // armed — relief exists for small *finite* pivots and must never
    // mask a poisoned value.
    let net = single_internal_network();
    let mut stamped = net.stamp();
    stamped.g = poison_diagonal(&stamped.g, net.num_ports); // internal row
    let ports: Vec<String> = net.node_names[..net.num_ports].to_vec();
    for relief in [None, Some(1e-12)] {
        let mut opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap());
        opts.pivot_relief = relief;
        let err = ReductionSession::new(opts)
            .reduce(&stamped, &ports)
            .unwrap_err();
        match &err {
            ReduceError::Factor(FactorError::NonFinitePivot { pivot, .. }) => {
                assert!(pivot.is_nan(), "reported pivot should be the NaN");
            }
            other => panic!("relief={relief:?}: expected NonFinitePivot, got {other:?}"),
        }
        // The CLI mapping attributes the failure to the owning node.
        let pe = PactError::from_reduce(err, &net);
        assert_eq!(pe.code(), "non_finite_internal_conductance");
        assert!(
            pe.to_string().contains("mid"),
            "error lacks node attribution: {pe}"
        );
    }
}
