//! # pact-lanczos
//!
//! Symmetric Lanczos eigensolver with **full reorthogonalization** — the
//! eigensolver behind the PACT paper's second congruence transform.
//!
//! PACT needs only the eigenvalues of the transformed internal
//! susceptance matrix `E'` that exceed the cutoff `λ_c` (poles below the
//! cutoff frequency) together with their eigenvectors. These are the
//! *largest* eigenvalues, exactly where Lanczos converges first, and `E'`
//! is only ever touched through matrix–vector products — here abstracted
//! as [`SymOp`] so the caller can apply `L⁻¹ E L⁻ᵀ x` via sparse
//! triangular solves without forming `E'`.
//!
//! Every new Lanczos vector is orthogonalized against the whole current
//! basis by two-pass classical Gram–Schmidt (CGS2). The paper uses
//! selective orthogonalization (LASO, Parlett & Scott 1979) instead,
//! which orthogonalizes only against converged Ritz vectors. On PACT's
//! meshes that let ghost copies of converged eigenvalues appear above
//! the cutoff and never converge, so the run could not prove its spectrum
//! resolved and ran to the iteration cap (the Table 4 mesh took 321
//! matvecs under LASO against 51 here, with the same poles). Full
//! reorthogonalization costs `O(k²·n)` projection work for `k` steps,
//! which stays far below the matvecs it saves because `k` stays small.
//!
//! ```
//! use pact_lanczos::{eigs_above, LanczosConfig, SymOp};
//! use pact_sparse::DMat;
//!
//! let a = DMat::from_diag(&[10.0, 5.0, 1.0, 0.1, 0.01]);
//! let pairs = eigs_above(&a, 0.5, &LanczosConfig::default())?;
//! let mut vals: Vec<f64> = pairs.iter().map(|p| p.value).collect();
//! vals.sort_by(|x, y| y.partial_cmp(x).unwrap());
//! assert_eq!(vals.len(), 3); // 10, 5, 1 exceed the 0.5 cutoff
//! # Ok::<(), pact_lanczos::LanczosError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pact_sparse::{axpy, dot, eig_tridiagonal, norm2, CsrMat, DMat, ParCtx, XorShiftRng};

/// A symmetric linear operator presented only through matrix–vector
/// products, so large operators (like PACT's `L⁻¹ E L⁻ᵀ`) never need to
/// be formed explicitly.
pub trait SymOp {
    /// Operator dimension `n` (square).
    fn dim(&self) -> usize;
    /// Computes `y = A x`. Implementations must be symmetric:
    /// `xᵀ(Ay) == yᵀ(Ax)`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl SymOp for CsrMat {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.nrows(), self.ncols());
        self.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

impl SymOp for DMat<f64> {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.nrows(), self.ncols());
        self.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(&self.matvec(x));
    }
}

/// Configuration for [`eigs_above`].
#[derive(Clone, Debug)]
pub struct LanczosConfig {
    /// Relative residual bound below which a Ritz pair counts as
    /// converged: `β_k |z_kj| ≤ conv_tol · ‖T‖`.
    pub conv_tol: f64,
    /// Hard cap on iterations per restart (defaults to the operator
    /// dimension).
    pub max_iters: Option<usize>,
    /// Maximum number of deflated restarts (captures repeated
    /// eigenvalues, which a single Krylov sequence cannot).
    pub max_restarts: usize,
    /// How often (in iterations) the tridiagonal eigenproblem is solved to
    /// test convergence.
    pub check_every: usize,
    /// RNG seed for the random start vector (deterministic by default).
    pub seed: u64,
    /// Worker threads for the reorthogonalization dot-product sweeps
    /// (`None` ⇒ run serially). Results are bit-identical for every
    /// thread count: the sweeps are classical Gram–Schmidt passes whose
    /// projections are all taken against the same vector, so each dot
    /// product is computed by exactly one worker with the serial
    /// instruction sequence and applied in basis order.
    pub threads: Option<usize>,
}

impl Default for LanczosConfig {
    fn default() -> Self {
        LanczosConfig {
            conv_tol: 1e-10,
            max_iters: None,
            max_restarts: 8,
            check_every: 5,
            seed: 0x9E37_79B9_7F4A_7C15,
            threads: None,
        }
    }
}

/// A converged Ritz pair: approximate eigenvalue, eigenvector and the
/// residual bound `β_k |z_kj|` that certified convergence.
#[derive(Clone, Debug)]
pub struct RitzPair {
    /// Approximate eigenvalue.
    pub value: f64,
    /// Approximate unit eigenvector.
    pub vector: Vec<f64>,
    /// Residual bound at convergence (`‖A u − λ u‖₂ ≤` this, in exact
    /// arithmetic).
    pub residual_bound: f64,
}

/// Counters describing the work a [`eigs_above`] call performed; these
/// feed the paper's Section-4 complexity comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LanczosStats {
    /// Total operator applications.
    pub matvecs: usize,
    /// Total Lanczos iterations across restarts.
    pub iterations: usize,
    /// Number of deflated restarts used.
    pub restarts: usize,
    /// Number of vector–vector orthogonalization operations performed.
    pub orthogonalizations: usize,
    /// Peak number of length-`n` vectors held (memory model).
    pub peak_vectors: usize,
}

/// Error from the Lanczos driver.
#[derive(Clone, Debug, PartialEq)]
pub enum LanczosError {
    /// The tridiagonal eigensolver failed (should not occur for symmetric
    /// input).
    Tridiagonal(pact_sparse::EigenError),
    /// The iteration hit `max_iters` before resolving the spectrum near
    /// the cutoff.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
    },
}

impl std::fmt::Display for LanczosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LanczosError::Tridiagonal(e) => write!(f, "tridiagonal eigensolver failed: {e}"),
            LanczosError::NotConverged { iterations } => {
                write!(
                    f,
                    "lanczos failed to converge after {iterations} iterations"
                )
            }
        }
    }
}

impl std::error::Error for LanczosError {}

impl From<pact_sparse::EigenError> for LanczosError {
    fn from(e: pact_sparse::EigenError) -> Self {
        LanczosError::Tridiagonal(e)
    }
}

/// Computes every eigenpair of `op` with eigenvalue **strictly greater**
/// than `lambda_min`, sorted descending by eigenvalue.
///
/// This is the exact query PACT issues: eigenvalues of `E'` above
/// `λ_c = 1/(2π f_c)` correspond to admittance poles *below* the cutoff
/// frequency and must be retained.
///
/// # Errors
///
/// [`LanczosError::NotConverged`] if the spectrum near the cutoff cannot
/// be resolved within the configured iteration budget.
pub fn eigs_above(
    op: &impl SymOp,
    lambda_min: f64,
    cfg: &LanczosConfig,
) -> Result<Vec<RitzPair>, LanczosError> {
    eigs_above_with_stats(op, lambda_min, cfg).map(|(pairs, _)| pairs)
}

/// Like [`eigs_above`] but also returns work counters.
///
/// # Errors
///
/// See [`eigs_above`].
pub fn eigs_above_with_stats(
    op: &impl SymOp,
    lambda_min: f64,
    cfg: &LanczosConfig,
) -> Result<(Vec<RitzPair>, LanczosStats), LanczosError> {
    let n = op.dim();
    let mut stats = LanczosStats::default();
    let mut converged: Vec<RitzPair> = Vec::new();
    if n == 0 {
        return Ok((converged, stats));
    }
    let mut rng = XorShiftRng::seed_from_u64(cfg.seed);
    let ctx = match cfg.threads {
        Some(t) => ParCtx::new(Some(t)),
        None => ParCtx::serial(),
    };

    // A single Krylov sequence sees only one copy of each eigenvalue, so a
    // run that "resolves" its spectrum is re-confirmed with a deflated
    // restart; only a restart that finds nothing new terminates the search
    // (this is how Lanczos recovers multiplicities).
    for restart in 0..cfg.max_restarts.max(1) {
        stats.restarts = restart;
        if converged.len() >= n {
            break;
        }
        let before = converged.len();
        let outcome = lanczos_run(
            op,
            lambda_min,
            cfg,
            &mut converged,
            &mut rng,
            &mut stats,
            &ctx,
        )?;
        let found_new = converged.len() > before;
        match outcome {
            RunOutcome::Stalled => break,
            RunOutcome::SpectrumResolved if !found_new => break,
            RunOutcome::SpectrumResolved | RunOutcome::NewPairsFound => continue,
        }
    }
    // Sort descending by eigenvalue.
    converged.sort_by(|a, b| b.value.partial_cmp(&a.value).unwrap());
    Ok((converged, stats))
}

enum RunOutcome {
    /// A converged Ritz value below the cutoff proves the tail is resolved.
    SpectrumResolved,
    /// New pairs found but cutoff boundary not yet proven (or β vanished
    /// with progress); restart explores the deflated complement.
    NewPairsFound,
    /// Nothing new converged above the cutoff.
    Stalled,
}

#[allow(clippy::too_many_arguments)]
fn lanczos_run(
    op: &impl SymOp,
    lambda_min: f64,
    cfg: &LanczosConfig,
    converged: &mut Vec<RitzPair>,
    rng: &mut XorShiftRng,
    stats: &mut LanczosStats,
    ctx: &ParCtx,
) -> Result<RunOutcome, LanczosError> {
    let n = op.dim();
    // Per-run cap: Ritz extraction costs O(k³), so unbounded runs on large
    // operators are quadratic-to-cubic in wasted work. Extreme eigenvalues
    // converge in ≪ n iterations; deflated restarts pick up the rest.
    let max_iters = cfg.max_iters.unwrap_or_else(|| n.min(300)).min(n).max(1);
    let deflate_base = converged.len();

    // Random unit start vector, deflated against already-converged Ritz
    // vectors so restarts explore the complementary subspace.
    let mut w: Vec<f64> = (0..n).map(|_| rng.gen_f64() - 0.5).collect();
    orthogonalize_against(&mut w, converged, stats, ctx);
    let nrm = norm2(&w);
    if nrm < 1e-300 {
        return Ok(RunOutcome::Stalled);
    }
    pact_sparse::scale(1.0 / nrm, &mut w);

    let mut basis: Vec<Vec<f64>> = vec![w];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut av = vec![0.0; n];
    let mut breakdown = false;
    let mut new_this_run = 0usize;
    // Ritz values already assembled and residual-tested this run
    // (accepted *or* rejected as linearly dependent). A converged Ritz
    // value is stable across later decompositions to within its residual
    // bound, so re-assembling it at every subsequent check would repeat
    // an O(k·n) sweep only to re-reach the same verdict — historically
    // the single most expensive part of the whole eigensolve. An
    // eigenvalue that genuinely reappears in the deflated complement
    // (a multiplicity) is still found, by the next restart: its Krylov
    // sequence is deflated against the accepted copy, which is exactly
    // how repeated eigenvalues are recovered in the first place.
    let mut tested: Vec<f64> = Vec::new();

    for j in 0..max_iters {
        op.apply(&basis[j], &mut av);
        stats.matvecs += 1;
        stats.iterations += 1;
        let alpha = dot(&basis[j], &av);
        alphas.push(alpha);
        // w̃_{j+1} = A w_j − α_j w_j − β_{j−1} w_{j−1}   (eq. 13)
        let mut wt = av.clone();
        axpy(-alpha, &basis[j], &mut wt);
        if j > 0 {
            axpy(-betas[j - 1], &basis[j - 1], &mut wt);
        }
        // Deflation: stay orthogonal to Ritz vectors from earlier restarts.
        if deflate_base > 0 {
            orthogonalize_against(&mut wt, &converged[..deflate_base], stats, ctx);
        }
        // Two-pass classical Gram–Schmidt against all basis vectors (CGS2
        // — orthogonality on par with the modified variant). Each pass
        // computes every projection against the same wt, which lets the
        // sweep fan out across threads, then subtracts in basis order.
        for _ in 0..2 {
            let projs = projections(ctx, basis.len(), |k| &basis[k], &wt);
            for (b, proj) in basis.iter().zip(projs) {
                axpy(-proj, b, &mut wt);
                stats.orthogonalizations += 1;
            }
        }
        let beta = norm2(&wt);
        let t_norm = t_norm_estimate(&alphas, &betas);
        if beta <= f64::EPSILON * t_norm.max(1.0) * 16.0 {
            breakdown = true;
            betas.push(0.0);
        } else {
            pact_sparse::scale(1.0 / beta, &mut wt);
            betas.push(beta);
        }

        let k = alphas.len();
        let at_end = breakdown || k == max_iters;
        if at_end || k.is_multiple_of(cfg.check_every) {
            // Ritz extraction from T_k (eq. 17/18).
            let (vals, z) = eig_tridiagonal(&alphas, &betas[..k - 1], true)?;
            let beta_k = betas[k - 1];
            let t_scale = t_norm.max(1e-300);
            // Accept every converged Ritz value above the cutoff that is
            // not already represented among the converged pairs.
            for (idx, &theta) in vals.iter().enumerate() {
                if theta <= lambda_min {
                    continue;
                }
                let bound = beta_k * z[(k - 1, idx)].abs();
                if bound > cfg.conv_tol * t_scale {
                    continue;
                }
                // Already assembled this run (to within residual-bound
                // drift)? The verdict would repeat; skip the O(k·n) sweep.
                let match_tol = 16.0 * cfg.conv_tol * t_scale;
                if tested.iter().any(|&t| (t - theta).abs() <= match_tol) {
                    continue;
                }
                // Is this Ritz value already represented among converged
                // pairs from this run? Match by assembling the vector and
                // checking its residual after deflation.
                let mut u = vec![0.0; n];
                for (row, b) in basis.iter().enumerate() {
                    axpy(z[(row, idx)], b, &mut u);
                }
                orthogonalize_against(&mut u, converged, stats, ctx);
                let un = norm2(&u);
                if un > 1e-6 {
                    pact_sparse::scale(1.0 / un, &mut u);
                    // Verify it is a genuine eigenvector before accepting
                    // it: the Ritz residual bound assumes exact arithmetic.
                    let mut au = vec![0.0; n];
                    op.apply(&u, &mut au);
                    stats.matvecs += 1;
                    let mut r = au;
                    axpy(-theta, &u, &mut r);
                    if norm2(&r) <= (cfg.conv_tol.sqrt() * t_scale).max(1e-8 * t_scale) {
                        converged.push(RitzPair {
                            value: theta,
                            vector: u,
                            residual_bound: bound,
                        });
                        new_this_run += 1;
                        tested.push(theta);
                    }
                    // A residual failure is left re-testable — it may
                    // become genuine once the sequence converges further.
                } else {
                    // Linearly dependent on already-accepted pairs: a
                    // duplicate this Krylov sequence cannot resolve.
                    tested.push(theta);
                }
            }
            // Boundary proof: some Ritz value at/below the cutoff has
            // (loosely) converged, or the subspace is exhausted.
            let boundary_proven = vals.iter().enumerate().any(|(idx, &theta)| {
                theta <= lambda_min
                    && beta_k * z[(k - 1, idx)].abs() <= cfg.conv_tol.sqrt() * t_scale
            });
            let all_above_converged = vals
                .iter()
                .enumerate()
                .filter(|&(_, &theta)| theta > lambda_min)
                .all(|(idx, _)| beta_k * z[(k - 1, idx)].abs() <= cfg.conv_tol * t_scale);
            stats.peak_vectors = stats.peak_vectors.max(basis.len() + converged.len());
            if all_above_converged && boundary_proven {
                return Ok(RunOutcome::SpectrumResolved);
            }
            if breakdown {
                return Ok(if new_this_run > 0 {
                    RunOutcome::NewPairsFound
                } else {
                    RunOutcome::Stalled
                });
            }
            if at_end {
                // Out of iterations: if this run made progress, let a
                // deflated restart continue the search; only a run with no
                // progress at all is a hard failure.
                if all_above_converged || new_this_run > 0 {
                    return Ok(RunOutcome::NewPairsFound);
                }
                return Err(LanczosError::NotConverged {
                    iterations: stats.iterations,
                });
            }
        }
        if breakdown {
            break;
        }
        basis.push(wt);
    }
    Ok(if new_this_run > 0 {
        RunOutcome::NewPairsFound
    } else {
        RunOutcome::Stalled
    })
}

/// Estimate of ‖T‖₁ from its entries (max row sum of the tridiagonal).
fn t_norm_estimate(alphas: &[f64], betas: &[f64]) -> f64 {
    let k = alphas.len();
    let mut m = 0.0f64;
    for i in 0..k {
        let mut row = alphas[i].abs();
        if i > 0 {
            row += betas[i - 1].abs();
        }
        if i < betas.len() {
            row += betas[i].abs();
        }
        m = m.max(row);
    }
    m
}

/// Work below which a projection sweep is not worth fanning out (the
/// gate only affects scheduling — each dot product's value is the same
/// either way, so determinism is unaffected).
const PAR_SWEEP_MIN_WORK: usize = 1 << 15;

/// Projections of `v` onto the `count` vectors `vec_at(0..count)`, in
/// order.
fn projections<'a>(
    ctx: &ParCtx,
    count: usize,
    vec_at: impl Fn(usize) -> &'a [f64] + Sync,
    v: &[f64],
) -> Vec<f64> {
    if ctx.threads() == 1 || count.saturating_mul(v.len()) < PAR_SWEEP_MIN_WORK {
        (0..count).map(|k| dot(vec_at(k), v)).collect()
    } else {
        ctx.map_items(count, || (), |_, k| dot(vec_at(k), v))
    }
}

/// Deflate `v` against converged Ritz vectors: one classical
/// Gram–Schmidt pass (the Ritz set is orthonormal, so a single CGS pass
/// matches the modified variant to rounding). The projection sweep runs
/// through `ctx`; subtractions are applied in pair order.
fn orthogonalize_against(
    v: &mut [f64],
    pairs: &[RitzPair],
    stats: &mut LanczosStats,
    ctx: &ParCtx,
) {
    if pairs.is_empty() {
        return;
    }
    let projs = projections(ctx, pairs.len(), |k| &pairs[k].vector, v);
    for (p, proj) in pairs.iter().zip(projs) {
        if proj != 0.0 {
            axpy(-proj, &p.vector, v);
            stats.orthogonalizations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_sparse::{sym_eig, TripletMat};

    fn diag_op(d: &[f64]) -> DMat<f64> {
        DMat::from_diag(d)
    }

    #[test]
    fn finds_top_of_diagonal_spectrum() {
        let d = [9.0, 7.0, 3.0, 1.0, 0.5, 0.1, 0.01];
        let pairs = eigs_above(&diag_op(&d), 2.0, &LanczosConfig::default()).unwrap();
        assert_eq!(pairs.len(), 3);
        assert!((pairs[0].value - 9.0).abs() < 1e-8);
        assert!((pairs[1].value - 7.0).abs() < 1e-8);
        assert!((pairs[2].value - 3.0).abs() < 1e-8);
    }

    #[test]
    fn eigenvectors_satisfy_residual() {
        let mut t = TripletMat::new(6, 6);
        for i in 0..5 {
            t.stamp_conductance(Some(i), Some(i + 1), 1.0);
        }
        for i in 0..6 {
            t.push(i, i, 0.3);
        }
        let a = t.to_csr();
        let pairs = eigs_above(&a, 0.5, &LanczosConfig::default()).unwrap();
        assert!(!pairs.is_empty());
        for p in &pairs {
            let mut au = vec![0.0; 6];
            a.apply(&p.vector, &mut au);
            let mut r = au;
            axpy(-p.value, &p.vector, &mut r);
            assert!(norm2(&r) < 1e-7, "residual {} too big", norm2(&r));
        }
    }

    #[test]
    fn matches_dense_oracle_on_random_symmetric() {
        let n = 30;
        let a = DMat::from_fn(n, n, |i, j| {
            let x = ((i * 31 + j * 17) % 13) as f64 / 13.0;
            let y = ((j * 31 + i * 17) % 13) as f64 / 13.0;
            0.5 * (x + y) + if i == j { 3.0 } else { 0.0 }
        });
        let oracle = sym_eig(&a).unwrap();
        let cutoff = oracle.values[n - 4] + 1e-9; // top 3 eigenvalues
        let pairs = eigs_above(&a, cutoff, &LanczosConfig::default()).unwrap();
        assert_eq!(pairs.len(), 3, "expected 3 eigenvalues above {cutoff}");
        for (p, expect) in pairs.iter().zip(oracle.values.iter().rev()) {
            assert!(
                (p.value - expect).abs() < 1e-6,
                "got {} expected {}",
                p.value,
                expect
            );
        }
    }

    #[test]
    fn repeated_eigenvalues_found_via_restarts() {
        // Eigenvalue 5 with multiplicity 3, plus a low-frequency tail.
        let d = [5.0, 5.0, 5.0, 0.1, 0.1, 0.05, 0.01, 0.02];
        let pairs = eigs_above(&diag_op(&d), 1.0, &LanczosConfig::default()).unwrap();
        assert_eq!(pairs.len(), 3, "multiplicity missed");
        for p in &pairs {
            assert!((p.value - 5.0).abs() < 1e-7);
        }
        for i in 0..3 {
            for j in 0..i {
                assert!(dot(&pairs[i].vector, &pairs[j].vector).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_result_when_cutoff_above_spectrum() {
        let d = [0.3, 0.2, 0.1];
        let pairs = eigs_above(&diag_op(&d), 1.0, &LanczosConfig::default()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn zero_operator() {
        let pairs = eigs_above(&diag_op(&[0.0; 5]), 0.5, &LanczosConfig::default()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn dimension_zero() {
        let pairs = eigs_above(&DMat::zeros(0, 0), 0.5, &LanczosConfig::default()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let d = [4.0, 3.0, 2.0, 1.0, 0.5, 0.25];
        let (pairs, stats) =
            eigs_above_with_stats(&diag_op(&d), 1.5, &LanczosConfig::default()).unwrap();
        assert_eq!(pairs.len(), 3);
        assert!(stats.matvecs > 0);
        assert!(stats.iterations >= pairs.len());
    }
}
