//! Session/backend refactor equivalence.
//!
//! The `ReductionSession` + `EigenBackend` rework must be invisible in
//! the numbers: every path (flat, hierarchical, matrix-free) produces
//! the same bits as the one-shot entry points, warm sessions reproduce
//! cold sessions exactly, thread count never changes a result, and the
//! dense / Lanczos / auto eigen backends agree on the retained poles to
//! tight relative tolerance on every generator family.

use pact::{
    CutoffSpec, EigenSelect, Partitions, ReduceOptions, ReduceStrategy, Reduction, ReductionSession,
};
use pact_gen::{
    inverter_pair_deck, power_grid_deck, substrate_mesh, LineSpec, MeshSpec, PowerGridSpec,
};
use pact_lanczos::LanczosConfig;
use pact_netlist::{extract_rc, RcNetwork};

/// Relative pole agreement required between eigen backends (matches the
/// CI backend-parity smoke).
const POLE_REL_TOL: f64 = 1e-8;

fn mesh_fixture() -> RcNetwork {
    substrate_mesh(&MeshSpec {
        nx: 10,
        ny: 10,
        nz: 4,
        num_contacts: 16,
        ..MeshSpec::table2()
    })
}

fn powergrid_fixture() -> RcNetwork {
    let deck = power_grid_deck(&PowerGridSpec {
        nx: 12,
        ny: 12,
        num_taps: 8,
        ..PowerGridSpec::default()
    });
    extract_rc(&deck.netlist, &[]).unwrap().network
}

fn line_fixture() -> RcNetwork {
    let deck = inverter_pair_deck(&LineSpec {
        segments: 100,
        ..LineSpec::default()
    });
    extract_rc(&deck, &[]).unwrap().network
}

/// The three generator families with the cutoff and hier block size
/// used throughout the suite.
fn families() -> Vec<(&'static str, RcNetwork, f64, usize)> {
    vec![
        ("mesh", mesh_fixture(), 2e9, 48),
        ("powergrid", powergrid_fixture(), 1e9, 24),
        ("line", line_fixture(), 5e9, 20),
    ]
}

fn options(fmax: f64, threads: usize, strategy: ReduceStrategy) -> ReduceOptions {
    let mut opts = ReduceOptions::new(CutoffSpec::new(fmax, 0.05).unwrap());
    opts.threads = Some(threads);
    opts.strategy = strategy;
    opts
}

fn assert_bits_equal(base: &Reduction, other: &Reduction, what: &str) {
    assert_eq!(base.model.a1, other.model.a1, "{what}: A' differs");
    assert_eq!(base.model.b1, other.model.b1, "{what}: B' differs");
    assert_eq!(
        base.model.lambdas, other.model.lambdas,
        "{what}: poles differ"
    );
    assert_eq!(base.model.r2, other.model.r2, "{what}: R'' differs");
    assert_eq!(
        base.model.port_names, other.model.port_names,
        "{what}: port names differ"
    );
}

#[test]
fn session_matches_one_shot_entry_points_bitwise() {
    for (label, net, fmax, max_block) in families() {
        for (sname, strategy) in [
            ("flat", ReduceStrategy::Flat),
            (
                "hier",
                ReduceStrategy::Hierarchical {
                    max_block,
                    max_depth: 16,
                },
            ),
        ] {
            let opts = options(fmax, 1, strategy);
            let free = pact::reduce_network(&net, &opts).unwrap();
            let mut session = ReductionSession::new(opts);
            let via_session = session.reduce_network(&net).unwrap();
            assert_bits_equal(&free, &via_session, &format!("{label}/{sname}"));
        }
    }
}

#[test]
fn session_reduction_is_bit_identical_across_thread_counts() {
    for (label, net, fmax, max_block) in families() {
        for (sname, strategy) in [
            ("flat", ReduceStrategy::Flat),
            (
                "hier",
                ReduceStrategy::Hierarchical {
                    max_block,
                    max_depth: 16,
                },
            ),
        ] {
            let base = ReductionSession::new(options(fmax, 1, strategy))
                .reduce_network(&net)
                .unwrap();
            for threads in [2usize, 4, 8] {
                let par = ReductionSession::new(options(fmax, threads, strategy))
                    .reduce_network(&net)
                    .unwrap();
                assert_bits_equal(&base, &par, &format!("{label}/{sname} threads={threads}"));
                assert_eq!(
                    base.telemetry.counters_json_string(),
                    par.telemetry.counters_json_string(),
                    "{label}/{sname} threads={threads}: telemetry differs"
                );
            }
        }
    }
}

#[test]
fn warm_session_reproduces_cold_session_bitwise() {
    for (label, net, fmax, max_block) in families() {
        for (sname, strategy) in [
            ("flat", ReduceStrategy::Flat),
            (
                "hier",
                ReduceStrategy::Hierarchical {
                    max_block,
                    max_depth: 16,
                },
            ),
        ] {
            let cold = ReductionSession::new(options(fmax, 1, strategy))
                .reduce_network(&net)
                .unwrap();
            let mut session = ReductionSession::new(options(fmax, 1, strategy));
            let first = session.reduce_network(&net).unwrap();
            let warm = session.reduce_network(&net).unwrap();
            assert_bits_equal(&cold, &first, &format!("{label}/{sname} first"));
            assert_bits_equal(&cold, &warm, &format!("{label}/{sname} warm"));
            // The warm pass replays cached symbolic analyses instead of
            // re-running the ordering.
            assert_eq!(
                warm.telemetry.counters.factorizations, 0,
                "{label}/{sname}: warm pass re-ran symbolic analysis"
            );
            assert!(
                warm.telemetry.counters.refactorizations >= 1,
                "{label}/{sname}: warm pass did not reuse the cache"
            );
        }
    }
}

#[test]
fn reduce_batch_reuses_analysis_and_stays_bitwise_stable() {
    // Eight same-topology decks with different capacitor values: one
    // symbolic analysis serves the whole batch, and every deck's result
    // matches a fresh single-deck session bitwise.
    let base_net = line_fixture();
    let mut decks = Vec::new();
    for k in 0..8 {
        let mut net = base_net.clone();
        let scale = 1.0 + 0.07 * k as f64;
        for c in &mut net.capacitors {
            c.value *= scale;
        }
        decks.push(net);
    }
    let opts = options(5e9, 1, ReduceStrategy::Flat);
    let mut session = ReductionSession::new(opts.clone());
    let batch = session.reduce_batch(&decks).unwrap();
    assert_eq!(batch.len(), decks.len());
    assert_eq!(
        session.cached_patterns(),
        1,
        "same-topology batch must share one symbolic analysis"
    );
    for (k, (net, red)) in decks.iter().zip(&batch).enumerate() {
        let fresh = ReductionSession::new(opts.clone())
            .reduce_network(net)
            .unwrap();
        assert_bits_equal(&fresh, red, &format!("deck {k}"));
    }
}

#[test]
fn matrix_free_session_matches_free_function_bitwise() {
    let net = line_fixture();
    let spec = CutoffSpec::new(5e9, 0.05).unwrap();
    let parts = Partitions::split(&net.stamp());
    let ports: Vec<String> = net.node_names[..net.num_ports].to_vec();
    let solver = pact::PcgSolver::new(&parts.d).unwrap();
    let free = pact::reduce_matrix_free(&parts, &ports, &spec, &solver).unwrap();
    let mut session = ReductionSession::new(ReduceOptions::new(spec));
    let first = session
        .reduce_matrix_free(&parts, &ports, &spec, &solver)
        .unwrap();
    // A second pass on the warm session reuses pooled scratch buffers;
    // the bits must not care.
    let warm = session
        .reduce_matrix_free(&parts, &ports, &spec, &solver)
        .unwrap();
    assert_bits_equal(&free, &first, "matrix-free first");
    assert_bits_equal(&free, &warm, "matrix-free warm");
    let choices = &first.telemetry.eigen_choices;
    assert_eq!(choices.len(), 1);
    assert_eq!(choices[0].backend, "pencil_lanczos");
}

#[test]
fn eigen_backends_agree_on_retained_poles() {
    for (label, net, fmax, _) in families() {
        let mut results = Vec::new();
        for (bname, backend) in [
            ("dense", EigenSelect::Dense),
            ("lanczos", EigenSelect::Lanczos(LanczosConfig::default())),
            ("lowrank", EigenSelect::LowRank),
            ("auto", EigenSelect::Auto),
        ] {
            let mut opts = options(fmax, 1, ReduceStrategy::Flat);
            opts.eigen_backend = backend;
            let red = ReductionSession::new(opts).reduce_network(&net).unwrap();
            results.push((bname, red));
        }
        let (ref_name, reference) = &results[0];
        for (bname, red) in &results[1..] {
            assert_eq!(
                reference.model.num_poles(),
                red.model.num_poles(),
                "{label}: {ref_name} and {bname} retain different pole counts"
            );
            for (a, b) in reference.model.lambdas.iter().zip(&red.model.lambdas) {
                assert!(
                    (a - b).abs() <= POLE_REL_TOL * a.abs().max(1e-300),
                    "{label}: pole {a:.12e} ({ref_name}) vs {b:.12e} ({bname}) \
                     disagrees beyond {POLE_REL_TOL:.1e}"
                );
            }
        }
    }
}

/// The mesh `lanczos_cliff` sweeps: 16×16×4, 24 contacts, the other
/// Table 4 values, scaled capacitors.
fn cliff_mesh(cap_scale: f64) -> RcNetwork {
    let mut net = substrate_mesh(&MeshSpec {
        nx: 16,
        ny: 16,
        nz: 4,
        num_contacts: 24,
        ..MeshSpec::table4()
    });
    for c in &mut net.capacitors {
        c.value *= cap_scale;
    }
    net
}

#[test]
fn lanczos_stops_at_the_cutoff_on_the_cliff_mesh() {
    // A ±1% capacitor rescale once sent this mesh's eigen phase to the
    // iteration cap (282–322 matvecs): ghost copies of converged poles
    // sat unconverged above the cutoff. With full reorthogonalization the
    // run stops once the cutoff is proven (52–53 matvecs, a block apply
    // counting as its width) and keeps the exact poles.
    for scale in [0.99, 1.0] {
        let net = cliff_mesh(scale);
        let run = |backend: EigenSelect| {
            let mut opts = ReduceOptions::new(CutoffSpec::new(500e6, 0.10).unwrap());
            opts.ordering = pact_sparse::Ordering::NestedDissection;
            opts.threads = Some(1);
            opts.eigen_backend = backend;
            ReductionSession::new(opts).reduce_network(&net).unwrap()
        };
        let lanczos = run(EigenSelect::Lanczos(LanczosConfig::default()));
        let matvecs = lanczos.telemetry.counters.lanczos_matvecs;
        assert!(
            matvecs <= 100,
            "scale {scale}: {matvecs} matvecs — the eigen phase ran past the cutoff"
        );
        // The exact reference is the low-rank backend: it solves the same
        // eigenproblem exactly, agrees with dense QL to POLE_REL_TOL
        // (eigen_backends_agree_on_retained_poles), and costs ~1 s here
        // where dense QL on this 1000-node block takes ~40 s unoptimized.
        let exact = run(EigenSelect::LowRank);
        assert_eq!(
            exact.model.num_poles(),
            lanczos.model.num_poles(),
            "scale {scale}: low-rank and lanczos retain different pole counts"
        );
        for (a, b) in exact.model.lambdas.iter().zip(&lanczos.model.lambdas) {
            assert!(
                (a - b).abs() <= POLE_REL_TOL * a.abs(),
                "scale {scale}: pole {a:.12e} (low-rank) vs {b:.12e} (lanczos)"
            );
        }
    }
}

#[test]
fn telemetry_records_backend_per_block() {
    // Flat: one choice. Hier: one per leaf plus the top pass.
    let net = mesh_fixture();
    let flat = ReductionSession::new(options(2e9, 1, ReduceStrategy::Flat))
        .reduce_network(&net)
        .unwrap();
    assert_eq!(flat.telemetry.eigen_choices.len(), 1);
    assert_eq!(flat.telemetry.eigen_choices[0].scope, "flat");

    let hier = ReductionSession::new(options(
        2e9,
        1,
        ReduceStrategy::Hierarchical {
            max_block: 48,
            max_depth: 16,
        },
    ))
    .reduce_network(&net)
    .unwrap();
    let blocks = hier.telemetry.counters.hier_blocks as usize;
    assert!(blocks >= 2, "fixture too small to partition");
    assert_eq!(
        hier.telemetry.eigen_choices.len(),
        blocks + 1,
        "expected one eigen choice per leaf plus the top pass"
    );
    assert!(hier
        .telemetry
        .eigen_choices
        .iter()
        .any(|c| c.scope == "top"));
    assert!(hier
        .telemetry
        .eigen_choices
        .iter()
        .all(|c| c.scope == "top" || c.scope.starts_with("leaf")));
}
