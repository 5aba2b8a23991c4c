//! The eigensolvers for the pole analysis of `E'`.
//!
//! Every flat reduction, and hier's top pass, finds the kept poles with
//! block Lanczos, as the paper's Section 3.2 does (ours fully
//! reorthogonalizes, see [`pact_lanczos`]). Dense QL on the explicitly
//! formed `E'` (`O(n³)`, exact) serves only hier leaves whose
//! capacitance is not a low-rank stamp. [`low_rank_poles`], the exact
//! rank-revealing path over the capacitance split, has no production
//! caller: tests use it as the cheap exact reference. Which solver
//! served each block is recorded in telemetry ([`crate::EigenChoice`]).
//! Each is bit-identical at every thread count.
//!
//! Before Lanczos runs, [`elmore_bound`] bounds the whole spectrum of
//! `E'` from one solve; a block whose bound sits below the cutoff keeps
//! no pole ([`certifies_pole_free`]) and skips Lanczos.

use pact_lanczos::{eigs_above, LanczosStats, SymOp};
use pact_sparse::{sym_eig, DMat, FactorDiagnostics, ParCtx, SparseCholesky};

use crate::partition::Partitions;
use crate::reduce::ReduceError;
use crate::transform::Transform1;

/// Eigenpairs of `E'` above the cutoff `λ_c`, in descending eigenvalue
/// order — the kept poles of the reduction.
#[derive(Clone, Debug, Default)]
pub struct EigenSolution {
    /// Retained eigenvalues, descending.
    pub lambdas: Vec<f64>,
    /// Matching eigenvectors of `E'` (unit 2-norm).
    pub vectors: Vec<Vec<f64>>,
    /// Work counters when the Lanczos backend ran.
    pub lanczos: Option<LanczosStats>,
}

/// One rank-1 term `w·u uᵀ` of the capacitance split: `u = e_i − e_j`
/// for a coupling entry, `u = e_i` (j = None) for residual node
/// capacitance to ground/ports.
pub(crate) struct CapTerm {
    pub(crate) i: usize,
    pub(crate) j: Option<usize>,
    pub(crate) w: f64,
}

/// Splits the internal capacitance block `E` into `Σ c_k u_k u_kᵀ` with
/// one term per coupling entry plus one per residual diagonal — the
/// factorization every capacitance stamp admits (a branch between two
/// internal nodes contributes `c(e_i−e_j)(e_i−e_j)ᵀ`, everything else is
/// diagonal). Returns `None` if `E` is not such a stamp (positive
/// off-diagonal or negative residual beyond rounding), which sends the
/// caller to the general dense path.
pub(crate) fn capacitance_split(e: &pact_sparse::CsrMat) -> Option<Vec<CapTerm>> {
    let n = e.nrows();
    let diag: Vec<f64> = (0..n).map(|i| e.get(i, i)).collect();
    let mut terms = Vec::new();
    let mut offsum = vec![0.0f64; n];
    for i in 0..n {
        for (j, v) in e.row_iter(i) {
            if j <= i {
                continue;
            }
            let tol = 1e-12 * (diag[i].abs() + diag[j].abs());
            if v > tol {
                return None; // not a capacitance stamp
            }
            if v < -tol {
                terms.push(CapTerm {
                    i,
                    j: Some(j),
                    w: -v,
                });
                offsum[i] -= v;
                offsum[j] -= v;
            }
        }
    }
    for i in 0..n {
        let s = diag[i] - offsum[i];
        let tol = 1e-12 * diag[i].abs();
        if s < -tol {
            return None;
        }
        if s > tol {
            terms.push(CapTerm { i, j: None, w: s });
        }
    }
    Some(terms)
}

/// Pole analysis exploiting the rank deficiency of `E` (the paper's §6
/// observation that RC extractions carry far fewer capacitors than
/// nodes): with `E = U Uᵀ` (one scaled column per capacitance term),
/// `E' = X Xᵀ` for `X = F⁻¹U`, whose nonzero spectrum equals that of the
/// tiny `c×c` Gram matrix `XᵀX`. Eigenpairs `(λ, z)` of the Gram lift to
/// eigenvectors `v = Xz/√λ` of `E'`. `None` when `E` is not a
/// capacitance stamp or the rank bound does not beat `n`.
///
/// No reduction calls it: it is the exact reference that tests hold
/// Lanczos to, far cheaper than dense QL on a large block with few
/// capacitors.
pub fn low_rank_poles(
    t1: &Transform1,
    parts: &Partitions,
    lambda_c: f64,
    ctx: &ParCtx,
) -> Option<Result<EigenSolution, ReduceError>> {
    let n = parts.n;
    if n == 0 {
        return Some(Ok(EigenSolution::default()));
    }
    let terms = capacitance_split(&parts.e)?;
    let c = terms.len();
    if c == 0 {
        return Some(Ok(EigenSolution::default()));
    }
    if c >= n {
        return None;
    }
    // X = F⁻¹ U, one forward solve per capacitance term; each column is
    // computed by exactly one worker, so the result is thread-invariant.
    // A column's support is the elimination-tree reach of its two nodes
    // — usually a small fraction of `n` — so columns are compressed to
    // (index, value) pairs. The nonzero pattern is itself deterministic
    // (exact zeros are reproduced bit-for-bit by the serial-per-column
    // solves), so the compressed form stays thread-invariant too.
    let x: Vec<(Vec<u32>, Vec<f64>)> = ctx.map_items(
        c,
        || (vec![0.0f64; n], vec![0.0f64; n]),
        |(rhs, col), k| {
            rhs.iter_mut().for_each(|v| *v = 0.0);
            let t = &terms[k];
            let w = t.w.sqrt();
            rhs[t.i] = w;
            if let Some(j) = t.j {
                rhs[j] = -w;
            }
            t1.chol.fsolve_into(rhs, col);
            let mut idx = Vec::new();
            let mut val = Vec::new();
            for (i, &v) in col.iter().enumerate() {
                if v != 0.0 {
                    idx.push(i as u32);
                    val.push(v);
                }
            }
            (idx, val)
        },
    );
    // Gram matrix XᵀX (c×c): row-partitioned sparse merge dots, each
    // with a fixed index-ascending summation order.
    let mut gram = DMat::zeros(c, c);
    let rows = ctx.map_items(
        c,
        || (),
        |_, a| {
            (a..c)
                .map(|b| sparse_dot(&x[a], &x[b]))
                .collect::<Vec<f64>>()
        },
    );
    for (a, row) in rows.iter().enumerate() {
        for (off, &v) in row.iter().enumerate() {
            gram[(a, a + off)] = v;
            gram[(a + off, a)] = v;
        }
    }
    let eig = match sym_eig(&gram) {
        Ok(e) => e,
        Err(e) => return Some(Err(e.into())),
    };
    let mut lambdas = Vec::new();
    let mut vectors = Vec::new();
    // Descending order to match the dense and Lanczos paths.
    for idx in (0..c).rev() {
        let lam = eig.values[idx];
        if lam < lambda_c {
            break;
        }
        let scale = 1.0 / lam.sqrt();
        let mut v = vec![0.0f64; n];
        for (k, (xi, xv)) in x.iter().enumerate() {
            let zk = eig.vectors[(k, idx)] * scale;
            if zk != 0.0 {
                for (&i, &xval) in xi.iter().zip(xv) {
                    v[i as usize] += zk * xval;
                }
            }
        }
        lambdas.push(lam);
        vectors.push(v);
    }
    Some(Ok(EigenSolution {
        lambdas,
        vectors,
        lanczos: None,
    }))
}

/// Dot product of two compressed sparse vectors (sorted indices),
/// accumulated in ascending index order.
pub(crate) fn sparse_dot(a: &(Vec<u32>, Vec<f64>), b: &(Vec<u32>, Vec<f64>)) -> f64 {
    let (ai, av) = a;
    let (bi, bv) = b;
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
    while i < ai.len() && j < bi.len() {
        match ai[i].cmp(&bi[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += av[i] * bv[j];
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Dense QL on the explicitly formed `E'` (EISPACK `tred2`/`tql2`):
/// `O(n³)`, exact and always applicable. Only hier leaves whose
/// capacitance is not a low-rank stamp run it.
pub(crate) fn dense_poles(
    t1: &Transform1,
    parts: &Partitions,
    lambda_c: f64,
    ctx: &ParCtx,
) -> Result<EigenSolution, ReduceError> {
    if parts.n == 0 {
        return Ok(EigenSolution::default());
    }
    let ep = t1.e_prime_dense_ctx(parts, ctx);
    let eig = sym_eig(&ep)?;
    let mut lambdas = Vec::new();
    let mut vectors = Vec::new();
    // Descending order to match the Lanczos path.
    for idx in (0..parts.n).rev() {
        let lam = eig.values[idx];
        if lam >= lambda_c {
            lambdas.push(lam);
            vectors.push((0..parts.n).map(|i| eig.vectors[(i, idx)]).collect());
        } else {
            break;
        }
    }
    Ok(EigenSolution {
        lambdas,
        vectors,
        lanczos: None,
    })
}

/// Relative margin by which the Elmore bound must clear the cutoff (see
/// [`certifies_pole_free`]).
const ELMORE_MARGIN: f64 = 1e-6;

/// The Elmore bound `τ̄ = maxᵢ (D⁻¹|E|𝟙)ᵢ ≥ λ_max(E')`, from one solve
/// against the factor of `D`; `None` when its premises fail.
///
/// `D` must be a Z-matrix (no positive off-diagonal entry). Elimination
/// on a Z-matrix keeps the factor's sign pattern through rounding
/// (positive diagonal, nonpositive off-diagonal), so the computed factor
/// `F` is a triangular M-matrix, `F⁻¹ ≥ 0` and `(FFᵀ)⁻¹ ≥ 0` entrywise.
/// Then `|D⁻¹E| ≤ D⁻¹|E|` (with `D = FFᵀ`, the matrix Lanczos sees), and
/// by Perron–Frobenius `λ_max(E') = ρ(D⁻¹E) ≤ ρ(D⁻¹|E|) ≤ ‖D⁻¹|E|‖∞`,
/// the largest row sum of a nonnegative matrix: `τ̄`. With grounded
/// capacitors only, `τ̄` is the largest Elmore delay with every port
/// grounded. A factor with perturbed pivots is of `D + ΔD`, not of the
/// network's `D`, and yields no bound.
pub fn elmore_bound(
    chol: &SparseCholesky,
    diag: &FactorDiagnostics,
    parts: &Partitions,
) -> Option<f64> {
    if !diag.perturbed.is_empty() {
        return None;
    }
    let n = parts.n;
    let mut rowsum = vec![0.0f64; n];
    for (i, s) in rowsum.iter_mut().enumerate() {
        if parts.d.row_iter(i).any(|(j, v)| j != i && v > 0.0) {
            return None;
        }
        *s = parts.e.row_iter(i).map(|(_, v)| v.abs()).sum();
    }
    let mut tau = 0.0f64;
    for y in chol.solve(&rowsum) {
        if !y.is_finite() {
            return None;
        }
        tau = tau.max(y);
    }
    Some(tau)
}

/// Whether the Elmore bound `tau` proves that an `n`-node block keeps no
/// pole at cutoff `lambda_c`: `τ̄` must clear `λ_c` by a relative margin
/// of `max(1e-6, n²ε)`. That covers the rounding of the solve, accurate
/// to `O(n²ε)` relative whatever the conditioning (triangular M-matrix
/// solves with a nonnegative right-hand side), and of the operator
/// Lanczos applies. Lanczos keeps only eigenvalues above `λ_c`, and no
/// Ritz value exceeds `λ_max(E')`, so it would return nothing.
pub fn certifies_pole_free(tau: f64, lambda_c: f64, n: usize) -> bool {
    let margin = ELMORE_MARGIN.max((n as f64).powi(2) * f64::EPSILON);
    tau * (1.0 + margin) < lambda_c
}

/// Block Lanczos with full reorthogonalization on the `E'` operator
/// ([`pact_lanczos`]), never forming `E'` densely: the pole analysis of
/// every flat reduction and of hier's top pass that the Elmore bound does
/// not certify. Runs on the reduction's resolved thread count.
///
/// # Errors
///
/// [`ReduceError::Lanczos`] when the spectrum near the cutoff does not
/// resolve.
pub fn lanczos_poles(
    t1: &Transform1,
    parts: &Partitions,
    lambda_c: f64,
    ctx: &ParCtx,
) -> Result<EigenSolution, ReduceError> {
    if parts.n == 0 {
        return Ok(EigenSolution::default());
    }
    let op = t1.e_prime_operator_ctx(parts, *ctx);
    debug_assert_eq!(op.dim(), parts.n);
    let (pairs, stats) = eigs_above(&op, lambda_c, ctx)?;
    let mut lambdas = Vec::with_capacity(pairs.len());
    let mut vectors = Vec::with_capacity(pairs.len());
    for p in pairs {
        lambdas.push(p.value);
        vectors.push(p.vector);
    }
    Ok(EigenSolution {
        lambdas,
        vectors,
        lanczos: Some(stats),
    })
}
