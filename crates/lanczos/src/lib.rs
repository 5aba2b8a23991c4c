//! # pact-lanczos
//!
//! Symmetric **block** Lanczos eigensolver with **full
//! reorthogonalization** — the eigensolver behind the PACT paper's
//! second congruence transform.
//!
//! PACT needs only the eigenvalues of the transformed internal
//! susceptance matrix `E'` that exceed the cutoff `λ_c` (poles below the
//! cutoff frequency) together with their eigenvectors. These are the
//! *largest* eigenvalues, exactly where Lanczos converges first, and `E'`
//! is only ever touched through operator applications — here abstracted
//! as [`SymOp`] so the caller can apply `L⁻¹ E L⁻ᵀ` via sparse
//! triangular solves without forming `E'`.
//!
//! The recurrence advances a block of [`BLOCK`] vectors per step, so the
//! operator is applied to a whole block at once ([`SymOp::apply_block`]);
//! PACT's `E'` reads its Cholesky factor once per block. Every new block
//! is orthogonalized against the whole current basis by two-pass
//! classical Gram–Schmidt (CGS2) as block projections. The paper uses
//! selective orthogonalization (LASO, Parlett & Scott 1979) instead,
//! which orthogonalizes only against converged Ritz vectors. On PACT's
//! meshes that let ghost copies of converged eigenvalues appear above
//! the cutoff and never converge, so the run could not prove its spectrum
//! resolved and ran to the iteration cap (the Table 4 mesh took 321
//! matvecs under LASO against 55 here, in 14 block applies, with the
//! same poles). Full reorthogonalization costs `O(k²·n)` projection work
//! for a basis of `k` vectors, which stays far below the operator
//! applications it saves because `k` stays small.
//!
//! ```
//! use pact_lanczos::{eigs_above, SymOp};
//! use pact_sparse::{DMat, ParCtx};
//!
//! let a = DMat::from_diag(&[10.0, 5.0, 1.0, 0.1, 0.01]);
//! let (pairs, _stats) = eigs_above(&a, 0.5, &ParCtx::serial())?;
//! let mut vals: Vec<f64> = pairs.iter().map(|p| p.value).collect();
//! vals.sort_by(|x, y| y.partial_cmp(x).unwrap());
//! assert_eq!(vals.len(), 3); // 10, 5, 1 exceed the 0.5 cutoff
//! # Ok::<(), pact_lanczos::LanczosError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pact_sparse::{dot, norm2, sym_eig, CsrMat, DMat, ParCtx, XorShiftRng};

/// Width of the block recurrence: every Lanczos step applies the
/// operator to this many vectors at once (an operator with at most
/// `2·BLOCK` dimensions left is instead taken whole, in one step).
/// PACT's operator applies a block through blocked triangular solves
/// that read the Cholesky factor once per block, so a vector in a block
/// of 4 costs about half of a lone one.
/// Measured on the Table 4 mesh, a width of 4 resolves its 11 poles and
/// proves the cutoff in 11 block steps; widths 3 to 6 take about as
/// long, 2 and 8 longer (8 needs only 8 steps, but of 8 vectors each,
/// over a larger basis).
///
/// The width is a constant, not a function of the port count `m`: the
/// basis grows by `BLOCK` vectors a step until the spectrum above the
/// cutoff is resolved, whatever `m` is. Block-Krylov Padé methods carry
/// an `m`-wide block, which is what makes their memory grow with `m`.
pub const BLOCK: usize = 4;

/// A symmetric linear operator presented only through matrix–vector
/// products, so large operators (like PACT's `L⁻¹ E L⁻ᵀ`) never need to
/// be formed explicitly.
pub trait SymOp {
    /// Operator dimension `n` (square).
    fn dim(&self) -> usize;
    /// Computes `y = A x`. Implementations must be symmetric:
    /// `xᵀ(Ay) == yᵀ(Ax)`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Computes `Y = A X` for the `k` columns of the column-major `n×k`
    /// panel `x` (`x[c * n + i]` is row `i` of column `c`), writing the
    /// column-major panel `y`. Column `c` of the result must equal
    /// [`SymOp::apply`] of column `c`; an implementation overrides this
    /// only to read its data once per block instead of once per column.
    fn apply_block(&self, x: &[f64], k: usize, y: &mut [f64]) {
        let n = self.dim();
        debug_assert_eq!(x.len(), n * k);
        debug_assert_eq!(y.len(), n * k);
        if n == 0 {
            return;
        }
        for (xc, yc) in x.chunks_exact(n).zip(y.chunks_exact_mut(n)) {
            self.apply(xc, yc);
        }
    }
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

/// Relative residual bound below which a Ritz pair counts as converged:
/// `‖B_k y_k‖ ≤ CONV_TOL · ‖T‖`, where `B_k` couples the last block to the
/// next and `y_k` is the Ritz vector's last block.
const CONV_TOL: f64 = 1e-10;

/// Cap on basis vectors per restart (the operator dimension when it is
/// smaller).
const MAX_VECS: usize = 300;

/// Deflated restarts at most (they capture eigenvalues of multiplicity
/// above [`BLOCK`], which one block Krylov sequence cannot).
const MAX_RESTARTS: usize = 8;

/// Seed of the random start block: every run is deterministic.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A converged Ritz pair: approximate eigenvalue, eigenvector and the
/// residual bound `‖B_k y_k‖` that certified convergence.
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
    /// Total operator applications, counted per vector (a block apply
    /// of `k` columns counts `k`).
    pub matvecs: usize,
    /// Total block applies: one per recurrence step, plus one per
    /// convergence test that verified candidate pairs.
    pub block_applies: usize,
    /// Total block Lanczos steps across restarts.
    pub iterations: usize,
    /// Number of deflated restarts used.
    pub restarts: usize,
    /// Number of vector–vector orthogonalization operations performed.
    pub orthogonalizations: usize,
    /// Peak number of length-`n` vectors held: the basis, the next
    /// block and the converged pairs (memory model).
    pub peak_vectors: usize,
}

/// Error from the Lanczos driver.
#[derive(Clone, Debug, PartialEq)]
pub enum LanczosError {
    /// The projected eigensolver failed (should not occur for symmetric
    /// input).
    Tridiagonal(pact_sparse::EigenError),
    /// The iteration hit its cap of basis vectors before resolving the
    /// spectrum near the cutoff.
    NotConverged {
        /// Block steps performed.
        iterations: usize,
    },
}

impl std::fmt::Display for LanczosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LanczosError::Tridiagonal(e) => write!(f, "projected eigensolver failed: {e}"),
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
/// frequency and must be retained. Also returns the work counters.
///
/// The reorthogonalization sweeps run on the threads of `ctx`. Results
/// are bit-identical for every thread count: each inner product is
/// computed whole by one worker, and each element of an update receives
/// its terms in basis order whichever worker owns its row.
///
/// # Errors
///
/// [`LanczosError::NotConverged`] if the spectrum near the cutoff cannot
/// be resolved within the iteration budget.
pub fn eigs_above(
    op: &impl SymOp,
    lambda_min: f64,
    ctx: &ParCtx,
) -> Result<(Vec<RitzPair>, LanczosStats), LanczosError> {
    let n = op.dim();
    let mut stats = LanczosStats::default();
    let mut converged: Vec<RitzPair> = Vec::new();
    if n == 0 {
        return Ok((converged, stats));
    }
    let mut rng = XorShiftRng::seed_from_u64(SEED);

    // A block Krylov sequence sees at most `BLOCK` copies of each
    // eigenvalue, so a run that resolves its spectrum with a full block
    // of copies of some eigenvalue (or with a converged pair that failed
    // its residual check) is re-confirmed with a deflated restart; only a
    // restart that finds nothing new terminates such a search (this is
    // how higher multiplicities are recovered).
    for restart in 0..MAX_RESTARTS {
        stats.restarts = restart;
        if converged.len() >= n {
            break;
        }
        let before = converged.len();
        let outcome = lanczos_run(op, lambda_min, &mut converged, &mut rng, &mut stats, ctx)?;
        let found_new = converged.len() > before;
        match outcome {
            RunOutcome::Stalled => break,
            RunOutcome::SpectrumResolved { confirm } if !(confirm && found_new) => break,
            RunOutcome::SpectrumResolved { .. } | RunOutcome::NewPairsFound => continue,
        }
    }
    // Sort descending by eigenvalue.
    converged.sort_by(|a, b| b.value.partial_cmp(&a.value).unwrap());
    Ok((converged, stats))
}

enum RunOutcome {
    /// A converged Ritz value below the cutoff proves the tail is resolved.
    /// `confirm` when the deflated complement may still hold a pair: some
    /// eigenvalue filled the block with copies, or a converged Ritz pair
    /// failed its explicit residual check.
    SpectrumResolved { confirm: bool },
    /// New pairs found but cutoff boundary not yet proven (or the Krylov
    /// space was exhausted with progress); restart explores the deflated
    /// complement.
    NewPairsFound,
    /// Nothing new converged above the cutoff.
    Stalled,
}

/// One block Lanczos sequence with full reorthogonalization. With `Q_j`
/// the `j`-th block of the orthonormal basis,
///
/// ```text
/// A Q_j = Q_{j−1} B_{j−1}ᵀ + Q_j A_j + Q_{j+1} B_j     (block eq. 13)
/// ```
///
/// where `A_j = Q_jᵀ A Q_j` and `Q_{j+1} B_j` is the QR factorization of
/// the remainder once it is orthogonalized against the whole basis. The
/// projected matrix `T` is block tridiagonal (banded) with diagonal
/// blocks `A_j` and subdiagonal blocks `B_j`; its eigenpairs `(θ, y)` are
/// the Ritz pairs, with residual `‖A Q y − θ Q y‖ = ‖B_k y_k‖` for the
/// last block `k` (block eq. 17/18). Ritz values are extracted after
/// every block step.
fn lanczos_run(
    op: &impl SymOp,
    lambda_min: f64,
    converged: &mut Vec<RitzPair>,
    rng: &mut XorShiftRng,
    stats: &mut LanczosStats,
    ctx: &ParCtx,
) -> Result<RunOutcome, LanczosError> {
    let n = op.dim();
    // Per-run cap: Ritz extraction costs O(k³), so unbounded runs on large
    // operators are quadratic-to-cubic in wasted work. Extreme eigenvalues
    // converge in ≪ n iterations; deflated restarts pick up the rest.
    let max_vecs = n.min(MAX_VECS);
    let deflate_base = converged.len();

    // Random orthonormal start block, deflated against already-converged
    // Ritz vectors so restarts explore the complementary subspace. An
    // operator with at most two blocks' worth of dimensions left is taken
    // whole: the recurrence would span it within two steps, each with a
    // projected eigenproblem of its own, where one step needs one.
    let room = n - deflate_base;
    let width = if room <= 2 * BLOCK { room } else { BLOCK };
    let mut basis: Vec<f64> = Vec::with_capacity(n * width);
    for _ in 0..width.min(max_vecs) {
        if !fresh_direction(&mut basis, n, rng, (converged, deflate_base), stats, ctx) {
            break;
        }
    }
    if basis.is_empty() {
        return Ok(RunOutcome::Stalled);
    }

    // Blocks of the basis as (first column, width), with the diagonal
    // blocks A_j and the subdiagonal blocks B_j of T, row-major.
    let mut blocks: Vec<(usize, usize)> = vec![(0, basis.len() / n)];
    let mut diag: Vec<Vec<f64>> = Vec::new();
    let mut sub: Vec<Vec<f64>> = Vec::new();
    let mut aw: Vec<f64> = Vec::new();
    let mut new_this_run = 0usize;
    // Ritz values this run accepted. A converged Ritz value is stable
    // across later steps to within its residual bound, so re-assembling
    // it at every later test would repeat an O(k·n) sweep and a matvec
    // only to re-reach the same verdict. A cluster is tested again only
    // when it holds more converged Ritz values than accepted ones — a
    // further copy of a multiple eigenvalue that this run's block could
    // see.
    let mut accepted: Vec<f64> = Vec::new();

    loop {
        let (k0, wj) = *blocks.last().expect("the start block");
        let kk = k0 + wj;
        aw.resize(n * wj, 0.0);
        op.apply_block(&basis[k0 * n..kk * n], wj, &mut aw);
        stats.matvecs += wj;
        stats.block_applies += 1;
        stats.iterations += 1;
        let qj = &basis[k0 * n..kk * n];
        let mut a = block_dots(ctx, qj, &aw, n);
        for i in 0..wj {
            for c in 0..i {
                let s = 0.5 * (a[i * wj + c] + a[c * wj + i]);
                a[i * wj + c] = s;
                a[c * wj + i] = s;
            }
        }
        // W = A Q_j − Q_j A_j − Q_{j−1} B_{j−1}ᵀ   (block eq. 13)
        subtract_combination(ctx, &mut aw, qj, &a, n);
        if let (Some(&(kp, wp)), Some(b)) = (blocks.iter().rev().nth(1), sub.last()) {
            // B_{j−1} is wj×wp; the coefficient of column i of Q_{j−1}
            // in column c of A Q_j is B_{j−1}[c, i].
            let coef: Vec<f64> = (0..wp * wj).map(|ic| b[(ic % wj) * wp + ic / wj]).collect();
            subtract_combination(ctx, &mut aw, &basis[kp * n..k0 * n], &coef, n);
        }
        diag.push(a);
        // Deflation: stay orthogonal to Ritz vectors from earlier restarts.
        if deflate_base > 0 {
            for c in aw.chunks_exact_mut(n) {
                orthogonalize_against(c, &converged[..deflate_base], stats, ctx);
            }
        }
        // Two-pass classical Gram–Schmidt against all basis vectors (CGS2
        // — orthogonality on par with the modified variant), as block
        // projections: every projection of a pass is taken against the
        // same block, then subtracted in basis order.
        for _ in 0..2 {
            let projs = block_dots(ctx, &basis[..kk * n], &aw, n);
            subtract_combination(ctx, &mut aw, &basis[..kk * n], &projs, n);
            stats.orthogonalizations += kk * wj;
        }

        let t = banded_t(&blocks, &diag, &sub);
        let row_sums: Vec<f64> = (0..kk)
            .map(|i| (0..kk).map(|j| t[(i, j)].abs()).sum())
            .collect();
        // Roundoff relative to the operator's own scale: PACT's `E'` is
        // in seconds (‖E'‖ ≈ 1e-11), so an absolute floor would drop
        // genuine directions near the bottom of its spectrum.
        let tol = f64::EPSILON * row_sums.iter().fold(0.0f64, |m, &v| m.max(v)) * 16.0;
        let cuts = (converged.as_slice(), deflate_base);
        let b = block_qr(&mut aw, wj, tol, &mut basis, rng, cuts, stats, ctx);
        let w_next = basis.len() / n - kk;
        // ‖T‖ estimate: max row sum, with B_j closing the last rows.
        let t_norm = (0..kk).fold(0.0f64, |m, i| {
            let tail = if i >= k0 {
                (0..w_next).map(|r| b[r * wj + i - k0].abs()).sum()
            } else {
                0.0
            };
            m.max(row_sums[i] + tail)
        });
        let breakdown = w_next == 0;
        let at_end = breakdown || kk + w_next > max_vecs;
        if breakdown && t_norm <= lambda_min {
            // The basis spans everything the converged pairs leave, so T
            // holds every remaining eigenvalue, and its max row sum bounds
            // them all: none exceeds the cutoff.
            stats.peak_vectors = stats.peak_vectors.max(kk + wj + converged.len());
            return Ok(RunOutcome::SpectrumResolved { confirm: false });
        }

        // Ritz extraction from T_k: every eigenpair, with its residual
        // bound ‖B_j y_j‖ over the last block's rows.
        let eig = sym_eig(&t)?;
        let (vals, z) = (&eig.values, &eig.vectors);
        let bound = |idx: usize| -> f64 {
            (0..w_next)
                .map(|r| {
                    let s: f64 = (0..wj).map(|c| b[r * wj + c] * z[(k0 + c, idx)]).sum();
                    s * s
                })
                .sum::<f64>()
                .sqrt()
        };
        let bounds: Vec<f64> = (0..kk).map(bound).collect();
        let t_scale = t_norm.max(1e-300);
        let match_tol = 16.0 * CONV_TOL * t_scale;
        // Converged Ritz values above the cutoff, descending.
        let conv: Vec<usize> = (0..kk)
            .rev()
            .filter(|&i| vals[i] > lambda_min && bounds[i] <= CONV_TOL * t_scale)
            .collect();
        let near = |theta: f64, v: f64| (theta - v).abs() <= match_tol;
        let seen =
            |i: usize, accepted: &[f64]| accepted.iter().filter(|&&v| near(vals[i], v)).count();
        let copies = |i: usize| conv.iter().filter(|&&j| near(vals[i], vals[j])).count();
        let candidates: Vec<usize> = conv
            .iter()
            .copied()
            .filter(|&i| seen(i, &accepted) < copies(i))
            .collect();
        if !candidates.is_empty() {
            new_this_run += verify_candidates(
                op,
                &basis[..kk * n],
                (z, vals, &bounds),
                &candidates,
                t_scale,
                converged,
                &mut accepted,
                stats,
                ctx,
            );
        }
        // Boundary proof: some Ritz value at/below the cutoff has
        // (loosely) converged, or the subspace is exhausted.
        let boundary_proven =
            (0..kk).any(|i| vals[i] <= lambda_min && bounds[i] <= CONV_TOL.sqrt() * t_scale);
        let all_above_converged = (0..kk)
            .filter(|&i| vals[i] > lambda_min)
            .all(|i| bounds[i] <= CONV_TOL * t_scale);
        // Basis, remainder, next block, the verification panels (Ritz
        // vectors, deflated copies, images) and the converged pairs.
        let held = kk + wj + w_next + 3 * candidates.len() + converged.len();
        stats.peak_vectors = stats.peak_vectors.max(held);
        if all_above_converged && boundary_proven {
            // A block sees at most its width in copies of an eigenvalue.
            let width = blocks[0].1;
            let confirm = conv
                .iter()
                .any(|&i| seen(i, &accepted) >= width || seen(i, &accepted) < copies(i));
            return Ok(RunOutcome::SpectrumResolved { confirm });
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
        blocks.push((kk, w_next));
        sub.push(b);
    }
}

/// The projected matrix `T` of the basis so far: diagonal blocks
/// `diag[j]`, and `sub[j]` below block `j` (mirrored above it).
fn banded_t(blocks: &[(usize, usize)], diag: &[Vec<f64>], sub: &[Vec<f64>]) -> DMat<f64> {
    let &(k0, w) = blocks.last().expect("a block");
    let mut t = DMat::zeros(k0 + w, k0 + w);
    for (j, &(c0, wj)) in blocks.iter().enumerate() {
        for i in 0..wj {
            for c in 0..wj {
                t[(c0 + i, c0 + c)] = diag[j][i * wj + c];
            }
        }
        if let (Some(b), Some(&(r0, wr))) = (sub.get(j), blocks.get(j + 1)) {
            for r in 0..wr {
                for c in 0..wj {
                    t[(r0 + r, c0 + c)] = b[r * wj + c];
                    t[(c0 + c, r0 + r)] = b[r * wj + c];
                }
            }
        }
    }
    t
}

/// Assembles the Ritz vectors of `candidates` (columns of `z`), deflates
/// each against the converged pairs and the candidates before it, and
/// checks every one that is not linearly dependent with one block apply
/// of the operator: the Ritz residual bound assumes exact arithmetic, so
/// a pair is accepted only when its explicit residual `‖A u − θ u‖`
/// passes too. Returns the number of pairs accepted.
#[allow(clippy::too_many_arguments)]
fn verify_candidates(
    op: &impl SymOp,
    basis: &[f64],
    (z, vals, bounds): (&DMat<f64>, &[f64], &[f64]),
    candidates: &[usize],
    t_scale: f64,
    converged: &mut Vec<RitzPair>,
    accepted: &mut Vec<f64>,
    stats: &mut LanczosStats,
    ctx: &ParCtx,
) -> usize {
    let n = op.dim();
    let kk = basis.len() / n;
    let nc = candidates.len();
    // Negated coefficients of the candidates in the basis, kk×nc
    // row-major: the Ritz vectors are 0 − Σ (−y_i) q_i.
    let mut coef = vec![0.0; kk * nc];
    for (c, &idx) in candidates.iter().enumerate() {
        for i in 0..kk {
            coef[i * nc + c] = -z[(i, idx)];
        }
    }
    let mut us = vec![0.0; n * nc];
    subtract_combination(ctx, &mut us, basis, &coef, n);
    let mut panel: Vec<f64> = Vec::with_capacity(n * nc);
    let mut kept: Vec<usize> = Vec::with_capacity(nc);
    for (c, u) in us.chunks_exact_mut(n).enumerate() {
        orthogonalize_against(u, converged, stats, ctx);
        for prev in panel.chunks_exact(n) {
            let p = dot(prev, u);
            u.iter_mut().zip(prev).for_each(|(x, y)| *x -= p * y);
            stats.orthogonalizations += 1;
        }
        let un = norm2(u);
        // Linearly dependent on already-accepted pairs: a duplicate this
        // Krylov sequence cannot resolve.
        if un > 1e-6 {
            panel.extend(u.iter().map(|x| x / un));
            kept.push(candidates[c]);
        }
    }
    if kept.is_empty() {
        return 0;
    }
    let mut images = vec![0.0; panel.len()];
    op.apply_block(&panel, kept.len(), &mut images);
    stats.matvecs += kept.len();
    stats.block_applies += 1;
    let accept_tol = (CONV_TOL.sqrt() * t_scale).max(1e-8 * t_scale);
    let mut found = 0;
    let pairs = panel.chunks_exact(n).zip(images.chunks_exact(n));
    for (&idx, (u, au)) in kept.iter().zip(pairs) {
        let theta = vals[idx];
        let r: f64 = au
            .iter()
            .zip(u)
            .map(|(a, x)| (a - theta * x) * (a - theta * x))
            .sum::<f64>()
            .sqrt();
        // A residual failure is left re-testable — it may become
        // genuine once the sequence converges further.
        if r <= accept_tol {
            converged.push(RitzPair {
                value: theta,
                vector: u.to_vec(),
                residual_bound: bounds[idx],
            });
            accepted.push(theta);
            found += 1;
        }
    }
    found
}

/// Orthonormalizes the `w` columns of the remainder block `aw` (already
/// orthogonal to the basis) by two-pass Gram–Schmidt, column by column,
/// appending them to `basis` as the next block: `aw = Q_{j+1} B_j`.
/// Returns `B_j`, row-major, one row per appended column.
///
/// A column whose remainder falls to `tol` adds no direction; it is
/// replaced by a fresh random direction ([`fresh_direction`]) with a zero
/// in `B_j`, which keeps the block width constant. Once the space has no
/// fresh direction left, such a column is dropped and the next block is
/// narrower (no columns: the basis spans an invariant subspace).
#[allow(clippy::too_many_arguments)]
fn block_qr(
    aw: &mut [f64],
    w: usize,
    tol: f64,
    basis: &mut Vec<f64>,
    rng: &mut XorShiftRng,
    (converged, deflated): (&[RitzPair], usize),
    stats: &mut LanczosStats,
    ctx: &ParCtx,
) -> Vec<f64> {
    let n = aw.len() / w;
    let start = basis.len();
    // Rows of B_j as full length-w rows; entry (r, c) is the coefficient
    // of column r of Q_{j+1} in column c of aw.
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(w);
    let mut exhausted = false;
    for (c, v) in aw.chunks_exact_mut(n).enumerate() {
        let mut coef = vec![0.0; rows.len()];
        for _ in 0..2 {
            for (p, qr) in coef.iter_mut().zip(basis[start..].chunks_exact(n)) {
                let d = dot(qr, v);
                *p += d;
                v.iter_mut().zip(qr).for_each(|(x, y)| *x -= d * y);
            }
        }
        for (row, p) in rows.iter_mut().zip(&coef) {
            row[c] = *p;
        }
        let nrm = norm2(v);
        let mut row = vec![0.0; w];
        if nrm > tol {
            row[c] = nrm;
            basis.extend(v.iter().map(|x| x / nrm));
        } else if exhausted || !fresh_direction(basis, n, rng, (converged, deflated), stats, ctx) {
            exhausted = true;
            continue;
        }
        rows.push(row);
    }
    rows.concat()
}

/// Appends to the column-major panel `basis` a random unit vector
/// orthogonal (two passes) to it and to the converged pairs. Returns
/// `false`, appending nothing, when the space is exhausted: the basis and
/// the `deflated` pairs of earlier runs (which the basis is orthogonal
/// to) already span all `n` dimensions, or nothing is left of the vector.
fn fresh_direction(
    basis: &mut Vec<f64>,
    n: usize,
    rng: &mut XorShiftRng,
    (converged, deflated): (&[RitzPair], usize),
    stats: &mut LanczosStats,
    ctx: &ParCtx,
) -> bool {
    if basis.len() / n + deflated >= n {
        return false;
    }
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_f64() - 0.5).collect();
    let nrm0 = norm2(&v);
    for _ in 0..2 {
        orthogonalize_against(&mut v, converged, stats, ctx);
        for q in basis.chunks_exact(n) {
            let d = dot(q, &v);
            v.iter_mut().zip(q).for_each(|(x, y)| *x -= d * y);
            stats.orthogonalizations += 1;
        }
    }
    let nrm = norm2(&v);
    if nrm <= 1e-8 * nrm0 || nrm < 1e-300 {
        return false;
    }
    basis.extend(v.iter().map(|x| x / nrm));
    true
}

/// Work below which a projection sweep is not worth fanning out (the
/// gate only affects scheduling — each value is the same either way, so
/// determinism is unaffected).
const PAR_SWEEP_MIN_WORK: usize = 1 << 15;

/// Rows per cache block of [`subtract_combination`]: a `ROWS`-row slab of every
/// updated column stays in L1 while the basis streams past it once.
const ROWS: usize = 256;

/// `out[i * k + c] = q_i · w_c` for the columns `q_i` of the column-major
/// panel `q` and the `k` columns `w_c` of `w` (`n` rows each).
/// Each product is summed as four stride-4 partials — rows `≡ t (mod 4)`
/// accumulate in partial `t` by fused multiply–adds in ascending order —
/// combined as `(p0 + p1) + (p2 + p3)`, and is computed whole by one
/// worker: the value does not depend on the thread count. Rows are swept
/// in `ROWS`-row slabs so the slab of `w` stays in L1 while the basis
/// streams past it once.
fn block_dots(ctx: &ParCtx, q: &[f64], w: &[f64], n: usize) -> Vec<f64> {
    let kq = q.len() / n;
    let k = w.len() / n;
    let dots = |cols: std::ops::Range<usize>| -> Vec<f64> {
        let mut part = vec![[0.0f64; 4]; cols.len() * k];
        for r0 in (0..n).step_by(ROWS) {
            let rows = r0..(r0 + ROWS).min(n);
            for (ii, i) in cols.clone().enumerate() {
                let qi = &q[i * n + rows.start..i * n + rows.end];
                // Up to BLOCK columns of w at a time.
                for c0 in (0..k).step_by(BLOCK) {
                    let c1 = (c0 + BLOCK).min(k);
                    let (wc, acc) = (&w[c0 * n..c1 * n], &mut part[ii * k + c0..ii * k + c1]);
                    match c1 - c0 {
                        1 => slab_dots::<1>(qi, wc, n, rows.start, acc),
                        2 => slab_dots::<2>(qi, wc, n, rows.start, acc),
                        3 => slab_dots::<3>(qi, wc, n, rows.start, acc),
                        _ => slab_dots::<BLOCK>(qi, wc, n, rows.start, acc),
                    }
                }
            }
        }
        part.iter().map(|p| (p[0] + p[1]) + (p[2] + p[3])).collect()
    };
    if ctx.threads() == 1 || kq.saturating_mul(n * k) < PAR_SWEEP_MIN_WORK {
        dots(0..kq)
    } else {
        ctx.map_ranges(kq, dots).concat()
    }
}

/// One slab of [`block_dots`] for one basis column `qi` (the slab's rows
/// from `r0`) against `K` columns of `w`: the `K` partial sets advance
/// together, so `4K` independent chains hide the multiply–add latency.
fn slab_dots<const K: usize>(qi: &[f64], w: &[f64], n: usize, r0: usize, acc: &mut [[f64; 4]]) {
    let len = qi.len();
    let ws: [&[f64]; K] = std::array::from_fn(|c| &w[c * n + r0..c * n + r0 + len]);
    let mut a: [[f64; 4]; K] = std::array::from_fn(|c| acc[c]);
    let body = len / 4 * 4;
    for r in (0..body).step_by(4) {
        let q4 = &qi[r..r + 4];
        for (ac, wc) in a.iter_mut().zip(&ws) {
            for t in 0..4 {
                ac[t] = q4[t].mul_add(wc[r + t], ac[t]);
            }
        }
    }
    for t in 0..len - body {
        for (ac, wc) in a.iter_mut().zip(&ws) {
            ac[t] = qi[body + t].mul_add(wc[body + t], ac[t]);
        }
    }
    acc.copy_from_slice(&a);
}

/// `w_c −= Σ_i coef[i * k + c] · q_i` for the `k` columns of the
/// column-major panel `w` and the columns `q_i` of `q` (`n` rows each).
/// Every element receives its terms as fused multiply–adds in ascending
/// `i`; workers split the rows, never a sum, so the result does not
/// depend on the thread count.
fn subtract_combination(ctx: &ParCtx, w: &mut [f64], q: &[f64], coef: &[f64], n: usize) {
    let kq = q.len() / n;
    let k = w.len() / n;
    debug_assert_eq!(coef.len(), kq * k);
    if ctx.threads() == 1 || kq.saturating_mul(n * k) < PAR_SWEEP_MIN_WORK {
        subtract_slab(w, n, 0..n, q, coef, n);
        return;
    }
    let w_ro: &[f64] = w;
    let parts = ctx.map_ranges(n, |rows| {
        let mut out: Vec<f64> = (0..k)
            .flat_map(|c| &w_ro[c * n + rows.start..c * n + rows.end])
            .copied()
            .collect();
        subtract_slab(&mut out, rows.len(), rows.clone(), q, coef, n);
        (rows, out)
    });
    for (rows, vals) in parts {
        for (c, v) in vals.chunks_exact(rows.len()).enumerate() {
            w[c * n + rows.start..c * n + rows.end].copy_from_slice(v);
        }
    }
}

/// The rows `rows` of [`subtract_combination`], held column-major in
/// `out` with leading dimension `ld`. Rows are swept in `ROWS`-row
/// slabs, four basis columns per pass, so a slab of `out` is loaded and
/// stored once per four terms.
fn subtract_slab(
    out: &mut [f64],
    ld: usize,
    rows: std::ops::Range<usize>,
    q: &[f64],
    coef: &[f64],
    n: usize,
) {
    let kq = q.len() / n;
    let k = out.len() / ld;
    let col = |i: usize, r: &std::ops::Range<usize>| &q[i * n + r.start..i * n + r.end];
    for r0 in (0..rows.len()).step_by(ROWS) {
        let sub = rows.start + r0..rows.start + (r0 + ROWS).min(rows.len());
        let len = sub.len();
        let mut i = 0;
        while i + 4 <= kq {
            let (q0, q1, q2, q3) = (
                col(i, &sub),
                col(i + 1, &sub),
                col(i + 2, &sub),
                col(i + 3, &sub),
            );
            for c in 0..k {
                let a = [0, 1, 2, 3].map(|d| -coef[(i + d) * k + c]);
                let o = &mut out[c * ld + r0..c * ld + r0 + len];
                for ((((x, y0), y1), y2), y3) in o.iter_mut().zip(q0).zip(q1).zip(q2).zip(q3) {
                    let t = a[0].mul_add(*y0, *x);
                    let t = a[1].mul_add(*y1, t);
                    let t = a[2].mul_add(*y2, t);
                    *x = a[3].mul_add(*y3, t);
                }
            }
            i += 4;
        }
        for i in i..kq {
            let qi = col(i, &sub);
            for c in 0..k {
                let a = -coef[i * k + c];
                for (x, y) in out[c * ld + r0..c * ld + r0 + len].iter_mut().zip(qi) {
                    *x = a.mul_add(*y, *x);
                }
            }
        }
    }
}

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
            pact_sparse::axpy(-proj, &p.vector, v);
            stats.orthogonalizations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_sparse::{axpy, sym_eig, TripletMat};

    fn diag_op(d: &[f64]) -> DMat<f64> {
        DMat::from_diag(d)
    }

    #[test]
    fn finds_top_of_diagonal_spectrum() {
        let d = [9.0, 7.0, 3.0, 1.0, 0.5, 0.1, 0.01];
        let (pairs, _) = eigs_above(&diag_op(&d), 2.0, &ParCtx::serial()).unwrap();
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
        let (pairs, _) = eigs_above(&a, 0.5, &ParCtx::serial()).unwrap();
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
        let (pairs, _) = eigs_above(&a, cutoff, &ParCtx::serial()).unwrap();
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
    fn repeated_eigenvalues_within_the_block_width_take_one_run() {
        // Eigenvalue 5 with multiplicity 3, plus a low-frequency tail.
        let d = [5.0, 5.0, 5.0, 0.1, 0.1, 0.05, 0.01, 0.02];
        let (pairs, stats) = eigs_above(&diag_op(&d), 1.0, &ParCtx::serial()).unwrap();
        assert_eq!(pairs.len(), 3, "multiplicity missed");
        assert_eq!(stats.restarts, 0, "three copies fit one block");
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
    fn a_scaled_operator_keeps_its_whole_spectrum() {
        // The inverse Laplacian of a 39-node line, the shape of an RC
        // line's `E'`: a clustered low end 650× below the top, all of it
        // above the cutoff. At the scale of a PACT `E'` (seconds) the
        // run must find the same spectrum as at unit scale.
        let n = 39;
        let line_inverse = |scale: f64| {
            DMat::from_fn(n, n, |i, j| {
                let (lo, hi) = (i.min(j) + 1, i.max(j) + 1);
                scale * (lo * (n + 1 - hi)) as f64 / (n + 1) as f64
            })
        };
        let exact = sym_eig(&line_inverse(1.0)).unwrap().values;
        for scale in [1.0, 2e-13] {
            let (pairs, _) =
                eigs_above(&line_inverse(scale), 1e-6 * scale, &ParCtx::serial()).unwrap();
            assert_eq!(pairs.len(), n, "scale {scale}");
            for (p, e) in pairs.iter().zip(exact.iter().rev()) {
                let got = p.value / scale;
                assert!((got - e).abs() <= 1e-9 * e, "scale {scale}: {got} vs {e}");
            }
        }
    }

    #[test]
    fn empty_result_when_cutoff_above_spectrum() {
        let d = [0.3, 0.2, 0.1];
        let (pairs, _) = eigs_above(&diag_op(&d), 1.0, &ParCtx::serial()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn zero_operator() {
        let (pairs, _) = eigs_above(&diag_op(&[0.0; 5]), 0.5, &ParCtx::serial()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn dimension_zero() {
        let (pairs, _) = eigs_above(&DMat::zeros(0, 0), 0.5, &ParCtx::serial()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let d = [4.0, 3.0, 2.0, 1.0, 0.5, 0.25];
        let (pairs, stats) = eigs_above(&diag_op(&d), 1.5, &ParCtx::serial()).unwrap();
        assert_eq!(pairs.len(), 3);
        assert!(stats.matvecs >= pairs.len());
        assert!(stats.block_applies >= stats.iterations && stats.iterations > 0);
    }

    #[test]
    fn multiplicity_above_the_block_width_is_found_by_restarts() {
        // Ten copies of 5 — more than a block run can see — over a tail
        // of distinct eigenvalues below the cutoff.
        let mut d = vec![5.0; 10];
        d.extend((0..30).map(|i| 0.9 * 0.8f64.powi(i)));
        let (pairs, stats) = eigs_above(&diag_op(&d), 1.0, &ParCtx::serial()).unwrap();
        assert_eq!(pairs.len(), 10, "multiplicity missed");
        assert!(stats.restarts > 0, "found without the deflated restart");
        for (i, p) in pairs.iter().enumerate() {
            assert!((p.value - 5.0).abs() < 1e-10, "copy {i}: {}", p.value);
            assert!((norm2(&p.vector) - 1.0).abs() < 1e-10, "copy {i} not unit");
            for q in &pairs[..i] {
                let overlap = dot(&p.vector, &q.vector).abs();
                assert!(overlap < 1e-10, "copies not orthonormal: {overlap:e}");
            }
        }
    }

    #[test]
    fn block_apply_defaults_to_column_applies() {
        let a = DMat::from_fn(7, 7, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let x: Vec<f64> = (0..21).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; 21];
        a.apply_block(&x, 3, &mut y);
        for c in 0..3 {
            let mut yc = vec![0.0; 7];
            a.apply(&x[c * 7..(c + 1) * 7], &mut yc);
            assert_eq!(&y[c * 7..(c + 1) * 7], &yc[..]);
        }
    }
}
