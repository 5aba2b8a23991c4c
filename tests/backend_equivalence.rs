//! Session equivalence and the pole oracles.
//!
//! The `ReductionSession` must be invisible in the numbers: every path
//! (flat, hierarchical) produces the same bits as the one-shot entry
//! points, warm sessions reproduce cold sessions exactly, and thread
//! count never changes a result. The block Lanczos poles of every
//! reduction agree with both exact oracles, dense QL and the low-rank
//! path, to tight relative tolerance on every generator family.

use pact::{
    low_rank_poles, CutoffSpec, Partitions, ReduceOptions, ReduceStrategy, Reduction,
    ReductionSession, Transform1,
};
use pact_gen::{
    inverter_pair_deck, power_grid_deck, substrate_mesh, LineSpec, MeshSpec, PowerGridSpec,
};
use pact_netlist::{extract_rc, RcNetwork};
use pact_sparse::{sym_eig, ParCtx};

/// Relative pole agreement required between Lanczos and the oracles.
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

/// The first transform of `net`, which both oracles start from.
fn transform(net: &RcNetwork) -> (Partitions, Transform1) {
    let parts = Partitions::split(&net.stamp());
    let t1 = Transform1::compute(&parts).unwrap();
    (parts, t1)
}

/// The poles above `λ_c` by dense QL of the explicitly formed `E'`.
fn dense_oracle(parts: &Partitions, t1: &Transform1, lambda_c: f64) -> Vec<f64> {
    let eig = sym_eig(&t1.e_prime_dense(parts)).unwrap();
    eig.values
        .iter()
        .rev()
        .copied()
        .take_while(|&l| l >= lambda_c)
        .collect()
}

/// The poles above `λ_c` by the low-rank path over the capacitance
/// split, or `None` where it does not apply (no fewer capacitance terms
/// than internal nodes).
fn low_rank_oracle(parts: &Partitions, t1: &Transform1, lambda_c: f64) -> Option<Vec<f64>> {
    low_rank_poles(t1, parts, lambda_c, &ParCtx::serial()).map(|sol| sol.unwrap().lambdas)
}

fn assert_poles_agree(exact: &[f64], lanczos: &[f64], what: &str) {
    assert_eq!(
        exact.len(),
        lanczos.len(),
        "{what}: the oracle and lanczos retain different pole counts"
    );
    for (a, b) in exact.iter().zip(lanczos) {
        assert!(
            (a - b).abs() <= POLE_REL_TOL * a.abs().max(1e-300),
            "{what}: pole {a:.12e} (oracle) vs {b:.12e} (lanczos) \
             disagrees beyond {POLE_REL_TOL:.1e}"
        );
    }
}

#[test]
fn lanczos_matches_the_dense_and_low_rank_oracles() {
    for (label, net, fmax, _) in families() {
        let opts = options(fmax, 1, ReduceStrategy::Flat);
        let lambda_c = opts.cutoff.lambda_c();
        let red = pact::reduce_network(&net, &opts).unwrap();
        let lanczos = &red.model.lambdas;
        let (parts, t1) = transform(&net);
        let dense = dense_oracle(&parts, &t1, lambda_c);
        assert_poles_agree(&dense, lanczos, &format!("{label}/dense"));
        // The mesh carries capacitors on its surface only; every internal
        // node of the power grid and of the line carries one, so the
        // low-rank path has nothing to gain there and declines.
        let low_rank = low_rank_oracle(&parts, &t1, lambda_c);
        assert_eq!(
            low_rank.is_some(),
            label == "mesh",
            "{label}: low-rank applicability"
        );
        if let Some(low_rank) = low_rank {
            assert_poles_agree(&low_rank, lanczos, &format!("{label}/lowrank"));
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
        let mut opts = ReduceOptions::new(CutoffSpec::new(500e6, 0.10).unwrap());
        opts.threads = Some(1);
        let lanczos = ReductionSession::new(opts.clone())
            .reduce_network(&net)
            .unwrap();
        let matvecs = lanczos.telemetry.counters.lanczos_matvecs;
        assert!(
            matvecs <= 100,
            "scale {scale}: {matvecs} matvecs — the eigen phase ran past the cutoff"
        );
        // The exact reference is the low-rank path: it solves the same
        // eigenproblem exactly, agrees with dense QL to POLE_REL_TOL
        // (lanczos_matches_the_dense_and_low_rank_oracles), and costs ~1 s here
        // where dense QL on this 1000-node block takes ~40 s unoptimized.
        let (parts, t1) = transform(&net);
        let exact = low_rank_oracle(&parts, &t1, opts.cutoff.lambda_c())
            .expect("the cliff mesh's capacitance is low-rank");
        assert_poles_agree(&exact, &lanczos.model.lambdas, &format!("scale {scale}"));
    }
}

#[test]
fn telemetry_records_backend_per_block() {
    // Flat: one choice. Hier: one per leaf plus the top pass. The mesh
    // and the 20×20 power grid (small enough that the deleted size
    // threshold sent it to dense QL) keep poles at 2 GHz, so the Elmore
    // bound misses the cutoff (its ratio is recorded) and Lanczos runs.
    let grid = power_grid_deck(&PowerGridSpec {
        nx: 20,
        ny: 20,
        num_taps: 4,
        ..PowerGridSpec::default()
    });
    let grid = extract_rc(&grid.netlist, &[]).unwrap().network;
    let net = mesh_fixture();
    for (label, net) in [("mesh", &net), ("powergrid", &grid)] {
        let flat = ReductionSession::new(options(2e9, 1, ReduceStrategy::Flat))
            .reduce_network(net)
            .unwrap();
        assert_eq!(flat.telemetry.eigen_choices.len(), 1, "{label}");
        assert_eq!(flat.telemetry.eigen_choices[0].scope, "flat", "{label}");
        assert_eq!(
            flat.telemetry.eigen_choices[0].backend, "lanczos",
            "{label}"
        );
        let ratio = flat.telemetry.eigen_choices[0].elmore_ratio;
        assert!(ratio.is_some_and(|r| r > 1.0), "{label}: {ratio:?}");
        assert_eq!(flat.telemetry.counters.eigen_certified, 0, "{label}");
    }

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
    assert!(hier
        .telemetry
        .eigen_choices
        .iter()
        .filter(|c| c.scope == "top")
        .all(|c| c.backend == "lanczos"));
}
