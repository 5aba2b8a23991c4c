//! The eigensolver backends for the pole analysis of `E'`.
//!
//! The paper's Section-3.2 pole analysis admits three implementations with
//! very different cost profiles: a dense QL decomposition (`O(n³)`, exact,
//! the oracle), Lanczos (the paper's choice for large `n`; ours fully
//! reorthogonalizes, see [`pact_lanczos`]), and a rank-revealing fast
//! path exploiting the §6 observation that extracted RC networks carry
//! far fewer capacitors than nodes. [`EigenSelect`] picks one per
//! reduction — adaptively by internal-block size and capacitance rank
//! under [`EigenSelect::Auto`] — and the choice made for every block is
//! recorded in telemetry ([`crate::EigenChoice`]). Every backend is
//! bit-identical at every thread count.

use pact_lanczos::{eigs_above_with_stats, LanczosConfig, LanczosStats, SymOp};
use pact_sparse::{sym_eig, DMat, ParCtx};

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

/// Eigen backend selection ([`crate::ReduceOptions::eigen_backend`],
/// `rcfit --eigen {auto,dense,lanczos,lowrank}`).
#[derive(Clone, Debug, Default)]
pub enum EigenSelect {
    /// Adaptive: for internal blocks of at most
    /// [`crate::ReduceOptions::dense_threshold`] nodes, try the low-rank
    /// fast path and fall back to dense QL when the capacitance rank does
    /// not beat the block size; above the threshold, Lanczos with the
    /// default configuration.
    #[default]
    Auto,
    /// Always form `E'` densely and fully decompose it (oracle; `O(n³)`).
    Dense,
    /// Always use the Lanczos solver with the given configuration.
    Lanczos(LanczosConfig),
    /// The rank-revealing fast path, falling back to dense QL when the
    /// capacitance rank does not beat `n`.
    LowRank,
}

/// Resolves the selection against the block at hand and runs the chosen
/// backend. Returns the solution together with the name of the backend
/// that actually produced it (after any fallback), for telemetry.
pub(crate) fn compute_poles(
    sel: &EigenSelect,
    dense_threshold: usize,
    t1: &Transform1,
    parts: &Partitions,
    lambda_c: f64,
    ctx: &ParCtx,
) -> Result<(EigenSolution, &'static str), ReduceError> {
    let lowrank_else_dense = || -> Result<(EigenSolution, &'static str), ReduceError> {
        match low_rank_poles(t1, parts, lambda_c, ctx) {
            Some(sol) => Ok((sol?, "lowrank")),
            None => Ok((dense_poles(t1, parts, lambda_c, ctx)?, "dense")),
        }
    };
    let lanczos = |cfg: &LanczosConfig| -> Result<(EigenSolution, &'static str), ReduceError> {
        Ok((lanczos_poles(t1, parts, lambda_c, cfg, ctx)?, "lanczos"))
    };
    match sel {
        EigenSelect::Dense => Ok((dense_poles(t1, parts, lambda_c, ctx)?, "dense")),
        EigenSelect::Lanczos(cfg) => lanczos(cfg),
        EigenSelect::LowRank => lowrank_else_dense(),
        EigenSelect::Auto if parts.n <= dense_threshold => lowrank_else_dense(),
        EigenSelect::Auto => lanczos(&LanczosConfig::default()),
    }
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
/// capacitance stamp or the rank bound does not beat `n` — callers fall
/// back to the dense `n×n` path.
fn low_rank_poles(
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
/// the `O(n³)` oracle, always applicable.
fn dense_poles(
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

/// Lanczos with full reorthogonalization on the `E'` operator
/// ([`pact_lanczos`]), never forming `E'` densely.
fn lanczos_poles(
    t1: &Transform1,
    parts: &Partitions,
    lambda_c: f64,
    cfg: &LanczosConfig,
    ctx: &ParCtx,
) -> Result<EigenSolution, ReduceError> {
    if parts.n == 0 {
        return Ok(EigenSolution::default());
    }
    let op = t1.e_prime_operator_ctx(parts, *ctx);
    debug_assert_eq!(op.dim(), parts.n);
    // An explicit thread choice in the Lanczos config wins; otherwise the
    // reduction's resolved thread count flows through.
    let cfg = if cfg.threads.is_none() {
        let mut c = cfg.clone();
        c.threads = Some(ctx.threads());
        c
    } else {
        cfg.clone()
    };
    let (pairs, stats) = eigs_above_with_stats(&op, lambda_c, &cfg)?;
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
