//! Scalar-vs-supernodal Cholesky kernel parity.
//!
//! The supernodal blocked kernel is a performance representation of the
//! same LDLᵀ factorization the scalar up-looking reference computes:
//! both share the postordered fill-reducing permutation, so retained
//! poles must agree to floating-point roundoff on every generator
//! family, every strategy, every eigen backend, every thread count, and
//! both fresh and through a warm session's numeric-only refactor.

use pact::{
    CholKernel, CutoffSpec, EigenSelect, ReduceOptions, ReduceStrategy, Reduction, ReductionSession,
};
use pact_gen::{
    inverter_pair_deck, power_grid_deck, substrate_mesh, LineSpec, MeshSpec, PowerGridSpec,
};
use pact_lanczos::LanczosConfig;
use pact_netlist::{extract_rc, RcNetwork};

/// Required agreement of retained poles between the kernels, relative
/// to the spectral scale (the largest retained pole magnitude). The two
/// kernels compute the same factorization up to summation order inside
/// the dense panels, i.e. `E' + E` with `‖E‖` roundoff-sized, and Weyl's
/// inequality bounds every eigenvalue shift by `‖E‖` — an absolute
/// bound, which is why tail poles are gated against the spectral scale
/// rather than their own (tiny) magnitude.
const POLE_REL_TOL: f64 = 1e-10;

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

fn families() -> Vec<(&'static str, RcNetwork, f64, usize)> {
    vec![
        ("mesh", mesh_fixture(), 2e9, 48),
        // The decap grid's poles sit far above rail bandwidth; 100 GHz
        // retains a few dozen so the parity check has something to bite.
        ("powergrid", powergrid_fixture(), 1e11, 24),
        ("line", line_fixture(), 5e9, 20),
    ]
}

fn options(fmax: f64, threads: usize, strategy: ReduceStrategy) -> ReduceOptions {
    let mut opts = ReduceOptions::new(CutoffSpec::new(fmax, 0.05).unwrap());
    opts.threads = Some(threads);
    opts.strategy = strategy;
    opts
}

fn strategies(max_block: usize) -> Vec<(&'static str, ReduceStrategy)> {
    vec![
        ("flat", ReduceStrategy::Flat),
        (
            "hier",
            ReduceStrategy::Hierarchical {
                max_block,
                max_depth: 16,
            },
        ),
    ]
}

fn assert_pole_parity(sup: &Reduction, sca: &Reduction, what: &str) {
    assert_eq!(
        sup.model.lambdas.len(),
        sca.model.lambdas.len(),
        "{what}: kernels retained different pole counts"
    );
    let scale = sup
        .model
        .lambdas
        .iter()
        .chain(&sca.model.lambdas)
        .fold(f64::MIN_POSITIVE, |m, l| m.max(l.abs()));
    for (k, (a, b)) in sup.model.lambdas.iter().zip(&sca.model.lambdas).enumerate() {
        let rel = (a - b).abs() / scale;
        assert!(
            rel <= POLE_REL_TOL,
            "{what}: pole {k} deviates by {rel:.3e} of the spectral scale ({a} vs {b})"
        );
    }
}

/// Fresh reductions: every family × strategy × eigen backend, scalar vs
/// supernodal, with the supernodal telemetry sanity-checked on the flat
/// path (hier aggregates counters across sub-blocks).
#[test]
fn kernels_agree_on_retained_poles_fresh() {
    for (label, net, fmax, max_block) in families() {
        for (sname, strategy) in strategies(max_block) {
            for (ename, eigen) in [
                ("lanczos", EigenSelect::Lanczos(LanczosConfig::default())),
                ("dense", EigenSelect::LowRank),
            ] {
                let mut opts = options(fmax, 1, strategy);
                opts.eigen_backend = eigen.clone();
                opts.chol_kernel = CholKernel::Supernodal;
                let sup = pact::reduce_network(&net, &opts).unwrap();
                opts.chol_kernel = CholKernel::Scalar;
                let sca = pact::reduce_network(&net, &opts).unwrap();
                let what = format!("{label}/{sname}/{ename}");
                assert!(
                    !sup.model.lambdas.is_empty(),
                    "{what}: fixture retains no poles"
                );
                assert!(
                    sup.telemetry.counters.supernode_count > 0,
                    "{what}: supernodal run reported no supernodes"
                );
                assert_eq!(
                    sca.telemetry.counters.supernode_count, 0,
                    "{what}: scalar run reported supernodes"
                );
                assert_pole_parity(&sup, &sca, &what);
            }
        }
    }
}

/// Warm sessions: the second reduction of the same deck goes through the
/// cached symbolic analysis and the numeric-only `refactor` path of each
/// kernel. Warm must be bit-identical to cold within a kernel, and the
/// cross-kernel pole parity must survive the warm path.
#[test]
fn kernels_agree_after_warm_session_refactor() {
    for (label, net, fmax, max_block) in families() {
        for (sname, strategy) in strategies(max_block) {
            let mut warm = Vec::new();
            for kernel in [CholKernel::Supernodal, CholKernel::Scalar] {
                let mut opts = options(fmax, 1, strategy);
                opts.chol_kernel = kernel;
                let mut session = ReductionSession::new(opts);
                let cold = session.reduce_network(&net).unwrap();
                let rewarm = session.reduce_network(&net).unwrap();
                let what = format!("{label}/{sname}/{kernel:?}");
                assert_eq!(
                    cold.model.lambdas, rewarm.model.lambdas,
                    "{what}: warm refactor changed the poles"
                );
                assert_eq!(
                    cold.model.a1, rewarm.model.a1,
                    "{what}: warm refactor changed A'"
                );
                warm.push(rewarm);
            }
            assert_pole_parity(&warm[0], &warm[1], &format!("{label}/{sname}/warm"));
        }
    }
}

/// Thread counts: parity holds at 1/2/4/8 threads, and each kernel is
/// itself bit-identical across thread counts (the blocked solves
/// partition lanes deterministically).
#[test]
fn kernels_agree_across_thread_counts() {
    for (label, net, fmax, max_block) in families() {
        for (sname, strategy) in strategies(max_block) {
            let mut base: Option<(Reduction, Reduction)> = None;
            for threads in [1usize, 2, 4, 8] {
                let mut opts = options(fmax, threads, strategy);
                opts.chol_kernel = CholKernel::Supernodal;
                let sup = pact::reduce_network(&net, &opts).unwrap();
                opts.chol_kernel = CholKernel::Scalar;
                let sca = pact::reduce_network(&net, &opts).unwrap();
                let what = format!("{label}/{sname}/threads={threads}");
                assert_pole_parity(&sup, &sca, &what);
                match &base {
                    None => base = Some((sup, sca)),
                    Some((bsup, bsca)) => {
                        assert_eq!(
                            bsup.model.lambdas, sup.model.lambdas,
                            "{what}: supernodal poles vary with thread count"
                        );
                        assert_eq!(
                            bsca.model.lambdas, sca.model.lambdas,
                            "{what}: scalar poles vary with thread count"
                        );
                        assert_eq!(
                            bsup.telemetry.counters, sup.telemetry.counters,
                            "{what}: supernodal counters vary with thread count"
                        );
                    }
                }
            }
        }
    }
}
