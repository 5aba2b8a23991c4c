//! Scalar-vs-supernodal Cholesky kernel parity at the Transform 1 layer.
//!
//! Every reduction factors `D` with the supernodal blocked kernel; the
//! scalar up-looking kernel stays in `pact-sparse` as the oracle it is
//! checked against. Both share the postordered fill-reducing
//! permutation, so the first congruence transform built on either
//! factor must give the same `A'`, `B'` and poles of `E'` above `λ_c` to
//! floating-point roundoff on every generator family. Within one
//! kernel the transform is bit-identical at every thread count and
//! after the numeric-only refactor a warm session replays.

use pact::{CutoffSpec, Partitions, Transform1};
use pact_gen::{
    inverter_pair_deck, power_grid_deck, substrate_mesh, LineSpec, MeshSpec, PowerGridSpec,
};
use pact_lanczos::eigs_above;
use pact_netlist::{extract_rc, RcNetwork};
use pact_sparse::{
    sym_eig, CholKernel, DMat, ParCtx, PivotPolicy, SparseCholesky, SymbolicCholesky,
};

/// Required agreement between the kernels, relative to the scale of
/// the compared quantity (the largest retained pole, or the largest
/// entry of `A'`/`B'`). The two kernels compute the same factorization
/// up to summation order inside the dense panels, i.e. `E' + E` with
/// `‖E‖` roundoff-sized, and Weyl's inequality bounds every eigenvalue
/// shift by `‖E‖` — an absolute bound, which is why tail poles are
/// gated against the spectral scale rather than their own (tiny)
/// magnitude.
const REL_TOL: f64 = 1e-10;

const KERNELS: [CholKernel; 2] = [CholKernel::Supernodal, CholKernel::Scalar];

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

/// (label, network, `λ_c`).
fn families() -> Vec<(&'static str, RcNetwork, f64)> {
    [
        ("mesh", mesh_fixture(), 2e9),
        // The decap grid's poles sit far above rail bandwidth; 100 GHz
        // retains a few dozen so the parity check has something to bite.
        ("powergrid", powergrid_fixture(), 1e11),
        ("line", line_fixture(), 5e9),
    ]
    .into_iter()
    .map(|(label, net, fmax)| (label, net, CutoffSpec::new(fmax, 0.05).unwrap().lambda_c()))
    .collect()
}

fn split(net: &RcNetwork) -> Partitions {
    Partitions::split(&net.stamp())
}

fn factor(parts: &Partitions, kernel: CholKernel) -> (SparseCholesky, SymbolicCholesky) {
    let (chol, _, sym) =
        SparseCholesky::factor_analyzed_with_kernel(&parts.d, PivotPolicy::Error, kernel).unwrap();
    (chol, sym)
}

/// Transform 1 on `chol` at `threads`, with the Lanczos poles of `E'`
/// above `λ_c` computed at the same thread count.
fn transform(
    parts: &Partitions,
    chol: SparseCholesky,
    threads: usize,
    lambda_c: f64,
) -> (Transform1, Vec<f64>) {
    let ctx = ParCtx::new(Some(threads));
    let t1 = Transform1::with_factor(parts, chol, &ctx);
    let (poles, _) = eigs_above(&t1.e_prime_operator_ctx(parts, ctx), lambda_c, &ctx).unwrap();
    (t1, poles.into_iter().map(|p| p.value).collect())
}

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: kernels disagree on the count");
    let scale = a
        .iter()
        .chain(b)
        .fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        let rel = (x - y).abs() / scale;
        assert!(
            rel <= REL_TOL,
            "{what}: entry {k} deviates by {rel:.3e} of the scale ({x} vs {y})"
        );
    }
}

fn assert_parity(sup: &(Transform1, Vec<f64>), sca: &(Transform1, Vec<f64>), what: &str) {
    let flat = |m: &DMat<f64>| m.as_slice().to_vec();
    assert_close(&flat(&sup.0.a1), &flat(&sca.0.a1), &format!("{what}: A'"));
    assert_close(&flat(&sup.0.b1), &flat(&sca.0.b1), &format!("{what}: B'"));
    assert_close(&sup.1, &sca.1, &format!("{what}: poles"));
}

fn assert_bitwise(a: &(Transform1, Vec<f64>), b: &(Transform1, Vec<f64>), what: &str) {
    assert_eq!(a.0.a1, b.0.a1, "{what}: A' differs");
    assert_eq!(a.0.b1, b.0.b1, "{what}: B' differs");
    assert_eq!(a.1, b.1, "{what}: poles differ");
}

/// Fresh factors: the kernels have the same fill, and the transform on
/// either gives the same moments and poles, whether the poles come
/// from Lanczos on the `E'` operator or from the dense `E'`.
#[test]
fn kernels_agree_on_retained_poles_fresh() {
    for (label, net, lambda_c) in families() {
        let parts = split(&net);
        let (sup_chol, _) = factor(&parts, CholKernel::Supernodal);
        let (sca_chol, _) = factor(&parts, CholKernel::Scalar);
        assert_eq!(sup_chol.l_nnz(), sca_chol.l_nnz(), "{label}: fill differs");
        assert!(sup_chol.supernode_count() > 0, "{label}: no supernodes");
        assert_eq!(sca_chol.supernode_count(), 0, "{label}: scalar supernodes");

        let sup = transform(&parts, sup_chol, 1, lambda_c);
        let sca = transform(&parts, sca_chol, 1, lambda_c);
        assert!(!sup.1.is_empty(), "{label}: fixture retains no poles");
        assert_parity(&sup, &sca, label);

        let dense = |t1: &Transform1| {
            let eig = sym_eig(&t1.e_prime_dense(&parts)).unwrap();
            let mut kept: Vec<f64> = eig.values.into_iter().filter(|&l| l > lambda_c).collect();
            kept.reverse();
            kept
        };
        let (sup_dense, sca_dense) = (dense(&sup.0), dense(&sca.0));
        assert_close(&sup_dense, &sca_dense, &format!("{label}: dense poles"));
        assert_close(&sup.1, &sup_dense, &format!("{label}: lanczos vs dense"));
    }
}

/// Warm path: a second deck with the same pattern and new values goes
/// through each kernel's numeric-only `refactor` of the first deck's
/// analysis, which must be bit-identical to a fresh factor of it, and
/// cross-kernel parity must survive the refactor.
#[test]
fn kernels_agree_after_warm_session_refactor() {
    for (label, mut net, lambda_c) in families() {
        let parts = split(&net);
        for r in &mut net.resistors {
            r.value *= 1.7;
        }
        let rescaled = split(&net);
        let mut warm = Vec::new();
        for kernel in KERNELS {
            let what = format!("{label}/{kernel:?}");
            let (_, sym) = factor(&parts, kernel);
            let (refactored, _) = sym.refactor(&rescaled.d, PivotPolicy::Error).unwrap();
            let (fresh, _) = factor(&rescaled, kernel);
            let warm_run = transform(&rescaled, refactored, 1, lambda_c);
            assert_bitwise(&warm_run, &transform(&rescaled, fresh, 1, lambda_c), &what);
            warm.push(warm_run);
        }
        assert_parity(&warm[0], &warm[1], &format!("{label}/warm"));
    }
}

/// Thread counts: within each kernel the transform and its poles are
/// bit-identical at 1/2/4/8 threads, and the kernels agree at each.
#[test]
fn kernels_agree_across_thread_counts() {
    for (label, net, lambda_c) in families() {
        let parts = split(&net);
        let chols = KERNELS.map(|kernel| factor(&parts, kernel).0);
        let serial: Vec<_> = chols
            .iter()
            .map(|chol| transform(&parts, chol.clone(), 1, lambda_c))
            .collect();
        for threads in [2usize, 4, 8] {
            let runs: Vec<_> = chols
                .iter()
                .map(|chol| transform(&parts, chol.clone(), threads, lambda_c))
                .collect();
            for ((kernel, run), base) in KERNELS.iter().zip(&runs).zip(&serial) {
                assert_bitwise(run, base, &format!("{label}/{kernel:?}/threads={threads}"));
            }
            assert_parity(&runs[0], &runs[1], &format!("{label}/threads={threads}"));
        }
    }
}
