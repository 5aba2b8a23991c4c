//! The parallel execution layer must be invisible in the results: a
//! reduction run with any `--threads` value produces bit-identical
//! matrices and poles. Every parallel stage (port fan-out, blocked
//! multi-RHS solves, Ritz rows, operator products, Lanczos sweeps)
//! partitions work deterministically and never reassociates floating
//! point across a thread boundary, so `assert_eq!` on `f64` is exact.

use pact::{CutoffSpec, EigenSelect, ReduceOptions, Reduction};
use pact_gen::{substrate_mesh, with_neighbour_coupling, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_netlist::{Branch, RcNetwork};
use pact_sparse::XorShiftRng;

fn mesh_fixture() -> RcNetwork {
    substrate_mesh(&MeshSpec {
        nx: 10,
        ny: 10,
        nz: 4,
        num_contacts: 16,
        ..MeshSpec::table2()
    })
}

/// The mesh with lateral surface coupling capacitors: port–internal
/// coupling (`R ≠ 0`), off-diagonal `E`, and capacitance-free nodes
/// below the surface, so `S` is a strict subset of the internals.
fn coupled_fixture() -> RcNetwork {
    with_neighbour_coupling(mesh_fixture(), 3e-15)
}

/// A multi-port RC ladder with random rungs: a different operator class
/// from the mesh (long, thin, strongly ordered poles).
fn ladder_fixture() -> RcNetwork {
    let ports = 4;
    let internals = 60;
    let n = ports + internals;
    let mut rng = XorShiftRng::seed_from_u64(0x1adde5);
    let mut resistors = Vec::new();
    // Chain through all nodes, grounded at the head.
    resistors.push(Branch {
        a: Some(0),
        b: None,
        value: rng.gen_range_f64(50.0, 200.0),
    });
    for k in 1..n {
        resistors.push(Branch {
            a: Some(k),
            b: Some(k - 1),
            value: rng.gen_range_f64(10.0, 500.0),
        });
    }
    // Random cross rungs.
    for _ in 0..n {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n);
        if a != b {
            resistors.push(Branch {
                a: Some(a),
                b: Some(b),
                value: rng.gen_range_f64(100.0, 10_000.0),
            });
        }
    }
    let capacitors = (0..n)
        .map(|k| Branch {
            a: Some(k),
            b: None,
            value: rng.gen_range_f64(1e-15, 2e-12),
        })
        .collect();
    let mut node_names: Vec<String> = (0..ports).map(|i| format!("p{i}")).collect();
    node_names.extend((0..internals).map(|i| format!("i{i}")));
    RcNetwork {
        node_names,
        num_ports: ports,
        resistors,
        capacitors,
    }
}

fn reduce_with_threads(net: &RcNetwork, eigen_backend: &EigenSelect, threads: usize) -> Reduction {
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(2e9, 0.05).unwrap(),
        eigen_backend: eigen_backend.clone(),
        ordering: pact_sparse::Ordering::NestedDissection,
        dense_threshold: 0,
        threads: Some(threads),
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        expansion_points: None,
        chol_kernel: pact::CholKernel::Auto,
    };
    pact::reduce_network(net, &opts).unwrap()
}

fn assert_bit_identical(base: &Reduction, other: &Reduction, what: &str) {
    assert_eq!(base.model.a1, other.model.a1, "{what}: A' differs");
    assert_eq!(base.model.b1, other.model.b1, "{what}: B' differs");
    assert_eq!(
        base.model.lambdas, other.model.lambdas,
        "{what}: poles differ"
    );
    assert_eq!(base.model.r2, other.model.r2, "{what}: R'' differs");
    // The deterministic telemetry subset (counters + warnings, no wall
    // times) must also be invariant: identical structured values and an
    // identical serialized JSON byte string.
    assert_eq!(
        base.telemetry.counters, other.telemetry.counters,
        "{what}: telemetry counters differ"
    );
    assert_eq!(
        base.telemetry.warnings, other.telemetry.warnings,
        "{what}: telemetry warnings differ"
    );
    assert_eq!(
        base.telemetry.counters_json_string(),
        other.telemetry.counters_json_string(),
        "{what}: serialized telemetry differs"
    );
}

fn check_fixture(net: &RcNetwork, label: &str) {
    for (ename, eigen) in [
        ("lanczos", EigenSelect::Lanczos(LanczosConfig::default())),
        ("dense", EigenSelect::LowRank),
    ] {
        let base = reduce_with_threads(net, &eigen, 1);
        assert!(
            !base.model.lambdas.is_empty(),
            "{label}/{ename}: fixture retains no poles — fixture too small to exercise the pipeline"
        );
        assert!(
            base.telemetry.counters.poles_retained > 0,
            "{label}/{ename}: telemetry counters not populated"
        );
        // The default kernel is supernodal: its counters must be
        // populated, and — because panel_flops is counted structurally
        // from the symbolic plan, never from runtime scheduling — they
        // must be bit-identical at every thread count (covered by the
        // counters equality in assert_bit_identical below).
        assert!(
            base.telemetry.counters.supernode_count > 0,
            "{label}/{ename}: supernodal kernel reported no supernodes"
        );
        assert!(
            base.telemetry.counters.max_panel_cols > 0,
            "{label}/{ename}: supernodal kernel reported zero-width panels"
        );
        assert!(
            base.telemetry.counters.panel_flops > 0,
            "{label}/{ename}: supernodal kernel reported no panel flops"
        );
        for threads in [2usize, 4, 8] {
            let par = reduce_with_threads(net, &eigen, threads);
            assert_bit_identical(&base, &par, &format!("{label}/{ename}/threads={threads}"));
        }
    }
}

#[test]
fn mesh_reduction_is_bit_identical_across_thread_counts() {
    check_fixture(&mesh_fixture(), "mesh");
}

#[test]
fn ladder_reduction_is_bit_identical_across_thread_counts() {
    check_fixture(&ladder_fixture(), "ladder");
}

#[test]
fn coupled_reduction_is_bit_identical_across_thread_counts() {
    check_fixture(&coupled_fixture(), "coupled");
}

// ---------------------------------------------------------------------
// Sweep determinism: the parallel AC frequency fan-out and the exact-
// admittance verification grid must also be bit-identical at every
// thread count — including their factor/refactor work counters, so the
// symbolic-reuse accounting itself is thread-invariant.
// ---------------------------------------------------------------------

#[test]
fn ac_sweep_is_bit_identical_across_thread_counts() {
    use pact_circuit::{log_frequencies, AcExcitation, AcOptions, Circuit};
    use pact_gen::{inverter_pair_deck, LineSpec};

    let ckt = Circuit::from_netlist(&inverter_pair_deck(&LineSpec {
        segments: 40,
        ..LineSpec::default()
    }))
    .unwrap();
    let freqs = log_frequencies(7, 1e6, 1e10);
    let exc = AcExcitation::VSource("Vin".into());
    let base = ckt
        .ac_sweep_with(
            &freqs,
            &exc,
            &AcOptions {
                threads: Some(1),
                reuse_symbolic: true,
            },
        )
        .unwrap();
    assert_eq!(base.stats.steps, freqs.len());
    assert!(
        base.stats.refactorizations >= freqs.len(),
        "symbolic reuse must serve the grid (got {} refactorizations)",
        base.stats.refactorizations
    );
    for threads in [2usize, 4, 8] {
        let par = ckt
            .ac_sweep_with(
                &freqs,
                &exc,
                &AcOptions {
                    threads: Some(threads),
                    reuse_symbolic: true,
                },
            )
            .unwrap();
        assert_eq!(
            base.voltages, par.voltages,
            "ac sweep voltages differ at threads={threads}"
        );
        assert_eq!(
            (base.stats.factorizations, base.stats.refactorizations),
            (par.stats.factorizations, par.stats.refactorizations),
            "ac sweep work counters differ at threads={threads}"
        );
    }
}

#[test]
fn admittance_grid_is_bit_identical_across_thread_counts() {
    use pact::{Partitions, YEvaluator};
    use pact_sparse::ParCtx;

    let net = mesh_fixture();
    let parts = Partitions::split(&net.stamp());
    let eval = YEvaluator::new(&parts);
    let freqs: Vec<f64> = (0..24)
        .map(|k| 1e7 * (1e10f64 / 1e7).powf(k as f64 / 23.0))
        .collect();
    let (base, counts) = eval.y_grid(&freqs, ParCtx::new(Some(1))).unwrap();
    assert_eq!(counts.factorizations, 1, "one symbolic serves the grid");
    assert_eq!(counts.refactorizations as usize, freqs.len());
    let m = parts.m;
    for threads in [2usize, 4, 8] {
        // Fresh evaluator per thread count: the symbolic analysis is
        // cached per evaluator, so reusing one would report 0
        // factorizations on later grids and hide counter drift.
        let eval = YEvaluator::new(&parts);
        let (par, pcounts) = eval.y_grid(&freqs, ParCtx::new(Some(threads))).unwrap();
        assert_eq!(
            (counts.factorizations, counts.refactorizations),
            (pcounts.factorizations, pcounts.refactorizations),
            "grid work counters differ at threads={threads}"
        );
        for (k, (yb, yp)) in base.iter().zip(&par).enumerate() {
            for i in 0..m {
                for j in 0..m {
                    assert_eq!(
                        yb[(i, j)],
                        yp[(i, j)],
                        "Y[{k}]({i},{j}) differs at threads={threads}"
                    );
                }
            }
        }
    }
}
