//! Sparse symmetric factorization: LDLᵀ with elimination tree, wrapped as
//! the Cholesky factor `L_chol = L·D^{1/2}` that PACT's first congruence
//! transform needs.
//!
//! Two numeric kernels share one symbolic analysis and one public type:
//!
//! - **Supernodal** (default): the analysis postorders the elimination
//!   tree, detects supernodes — chains of columns with (near-)identical
//!   below-diagonal sparsity — and the numeric pass assembles each one as
//!   a dense column panel with cache-blocked updates
//!   ([`crate::supernodal`]). Triangular solves stream over the panels.
//! - **Scalar**: Davis's up-looking LDL — a symbolic pass builds the
//!   elimination tree and column counts, then a numeric pass computes one
//!   row of `L` at a time with a sparse triangular solve over the row's
//!   elimination-tree reach. Retained as the test oracle the parity
//!   tests and kernel benches compare against, selected by
//!   [`CholKernel::Scalar`] in [`SparseCholesky::factor_analyzed_with_kernel`].
//!
//! Neither kernel requires dynamic fill-in reallocation, and both share
//! the pivot policies and typed pivot errors below.

use std::sync::Arc;

use crate::csr::CsrMat;
use crate::ordering::{etree_postorder, nested_dissection};
use crate::supernodal::{build_plan, refactor_numeric, SupernodalFactor, SupernodePlan};

/// Selects the numeric factorization kernel (and the matching factor
/// storage) used by [`SymbolicCholesky::analyze`] and everything layered
/// on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CholKernel {
    /// Blocked supernodal panels.
    #[default]
    Supernodal,
    /// Scalar up-looking reference kernel.
    Scalar,
}

/// Error from attempting to factor a matrix that is not symmetric positive
/// definite.
#[derive(Clone, Debug, PartialEq)]
pub enum FactorError {
    /// A pivot `d_k ≤ 0` appeared at the given elimination step; the matrix
    /// is not positive definite (for RC networks: an internal node without a
    /// DC path to any port, or non-physical element values).
    NotPositiveDefinite {
        /// Elimination step (in permuted order) where the pivot failed.
        step: usize,
        /// Row/column of the *original* (unpermuted) matrix whose pivot
        /// failed — for RC networks this identifies the offending internal
        /// node, enabling node attribution in error messages.
        index: usize,
        /// The offending pivot value.
        pivot: f64,
    },
    /// A non-finite pivot (NaN or ±∞) appeared during elimination. This is
    /// reported as its own variant — never silently floored by
    /// [`PivotPolicy::Perturb`] — because a NaN comparing `false` against
    /// any threshold would otherwise take an arbitrary branch.
    NonFinitePivot {
        /// Elimination step (in permuted order) where the pivot failed.
        step: usize,
        /// Row/column of the *original* (unpermuted) matrix.
        index: usize,
        /// The offending pivot value.
        pivot: f64,
    },
    /// The matrix handed to [`SymbolicCholesky::refactor`] has a different
    /// sparsity pattern than the one the symbolic analysis was built from.
    StructureMismatch,
    /// The matrix is not square.
    NotSquare,
}

impl FactorError {
    /// The original (unpermuted) row of the failing pivot, if any.
    pub fn failed_index(&self) -> Option<usize> {
        match self {
            FactorError::NotPositiveDefinite { index, .. }
            | FactorError::NonFinitePivot { index, .. } => Some(*index),
            FactorError::StructureMismatch | FactorError::NotSquare => None,
        }
    }
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { step, index, pivot } => write!(
                f,
                "matrix is not positive definite: pivot {pivot:e} at step {step} (matrix row {index})"
            ),
            FactorError::NonFinitePivot { step, index, pivot } => write!(
                f,
                "non-finite pivot {pivot} at step {step} (matrix row {index}); \
                 the input contains NaN or infinite values"
            ),
            FactorError::StructureMismatch => write!(
                f,
                "matrix sparsity pattern differs from the symbolic analysis"
            ),
            FactorError::NotSquare => write!(f, "matrix is not square"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Policy for quasi-singular pivots during factorization.
///
/// PACT's stability theorem assumes the internal conductance block `D` is
/// strictly positive definite, but real extracted netlists carry internal
/// nodes whose only DC path runs through enormous resistances: their
/// pivots are positive yet orders of magnitude below the working
/// precision of the rest of the factor. `PivotPolicy::Perturb` substitutes
/// a documented floor for such pivots instead of failing, recording every
/// substitution so callers can surface a warning. The perturbation is a
/// diagonal modification `D → D + ΔD` with `ΔD ⪰ 0` supported on the
/// degenerate nodes only, so the factored matrix stays symmetric positive
/// definite and the congruence-transform passivity guarantee is preserved
/// (the reduction is exact for the slightly-stiffened network).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PivotPolicy {
    /// Fail with [`FactorError::NotPositiveDefinite`] on any pivot `≤ 0`
    /// (the strict behavior of [`SparseCholesky::factor`]).
    Error,
    /// Replace any finite pivot below `rel_threshold · max_i |A_ii|`
    /// (including non-positive pivots) with that floor value and record
    /// it. Non-finite pivots are *not* repaired: they indicate poisoned
    /// input (NaN/∞ element values), not a quasi-singular but physical
    /// network, and fail with [`FactorError::NonFinitePivot`].
    /// `rel_threshold` must be positive and finite.
    Perturb {
        /// Relative pivot floor, e.g. `1e-12`.
        rel_threshold: f64,
    },
}

/// One pivot substitution performed under [`PivotPolicy::Perturb`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerturbedPivot {
    /// Row/column of the original (unpermuted) matrix.
    pub index: usize,
    /// The pivot value the elimination produced.
    pub original: f64,
    /// The floor value it was replaced with.
    pub replaced_with: f64,
}

/// Diagnostics from [`SparseCholesky::factor_diagnosed`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FactorDiagnostics {
    /// Every pivot substitution, in elimination order (deterministic for a
    /// given matrix, independent of thread count).
    pub perturbed: Vec<PerturbedPivot>,
}

/// A sparse Cholesky factorization `P A Pᵀ = L D Lᵀ` of a symmetric
/// positive-definite matrix, with `L` unit lower triangular and `D > 0`
/// diagonal.
///
/// The *Cholesky factor* used by PACT's first congruence transform is
/// `F = Pᵀ L D^{1/2}` which satisfies `F Fᵀ = A`; [`SparseCholesky::fsolve`]
/// and [`SparseCholesky::ftsolve`] apply `F⁻¹` and `F⁻ᵀ`.
///
/// ```
/// use pact_sparse::{TripletMat, SparseCholesky};
/// let mut t = TripletMat::new(2, 2);
/// t.push(0, 0, 4.0);
/// t.push(1, 1, 3.0);
/// t.push(0, 1, -1.0);
/// t.push(1, 0, -1.0);
/// let f = SparseCholesky::factor(&t.to_csr())?;
/// let x = f.solve(&[1.0, 2.0]);
/// // A x = b
/// assert!((4.0 * x[0] - x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), pact_sparse::FactorError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SparseCholesky {
    n: usize,
    /// Fill-reducing permutation: row `i` of `PAPᵀ` is row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Kernel-specific storage of unit-lower `L` (diagonal not stored).
    data: FactorData,
    /// Positive pivots `D`.
    d: Vec<f64>,
    /// `sqrt(D)` cached for the Cholesky-factor solves.
    sqrt_d: Vec<f64>,
    /// Elimination tree parents (`usize::MAX` for roots).
    parent: Vec<usize>,
}

/// Storage of the unit-lower factor, per numeric kernel.
#[derive(Clone, Debug)]
enum FactorData {
    /// CSC columns of `L` (scalar up-looking kernel).
    Scalar {
        /// Column pointers.
        lp: Vec<usize>,
        /// Row indices.
        li: Vec<usize>,
        /// Values.
        lx: Vec<f64>,
    },
    /// Dense column panels over a supernode partition.
    Super(SupernodalFactor),
}

impl Default for FactorData {
    fn default() -> Self {
        FactorData::Scalar {
            lp: Vec::new(),
            li: Vec::new(),
            lx: Vec::new(),
        }
    }
}

/// The reusable, value-free part of a sparse Cholesky factorization: the
/// fill-reducing permutation, the elimination tree, and the column counts
/// of `L` — everything that depends only on the sparsity *pattern* of `A`.
///
/// Computing the nested-dissection ordering and the elimination tree is
/// the dominant non-numeric cost of [`SparseCholesky::factor`]; when many
/// matrices share one pattern (parameter sweeps, same-topology decks, the
/// [`crate::LuCache`] analogue for SPD systems) a single analysis serves
/// them all. [`SymbolicCholesky::refactor`] replays exactly the numeric
/// elimination that a fresh [`SparseCholesky::factor_diagnosed`] would
/// run — same floating-point operations in the same order — so the
/// resulting factor is bit-identical to a cold factorization.
#[derive(Clone, Debug)]
pub struct SymbolicCholesky {
    n: usize,
    /// Fill-reducing permutation captured at analysis time.
    perm: Vec<usize>,
    /// Elimination tree parents over the permuted pattern.
    parent: Vec<usize>,
    /// Column pointers of unit-lower `L` (fill pattern is value-free).
    lp: Vec<usize>,
    /// Supernode partition when the analysis targets the supernodal
    /// kernel; `None` selects the scalar kernel at refactor time.
    plan: Option<Arc<SupernodePlan>>,
    /// Structure fingerprint of the unpermuted input pattern — the O(1)
    /// fast path of [`SymbolicCholesky::matches`].
    a_key: u64,
    /// Row pointers of the *unpermuted* input pattern, for
    /// [`SymbolicCholesky::matches_exact`].
    a_indptr: Vec<usize>,
    /// Column indices of the unpermuted input pattern.
    a_indices: Vec<usize>,
}

impl SymbolicCholesky {
    /// Runs the symbolic analysis (nested-dissection ordering + elimination
    /// tree + column counts + supernode detection) for a symmetric matrix
    /// pattern, targeting the default kernel ([`CholKernel::Supernodal`]).
    ///
    /// # Errors
    ///
    /// [`FactorError::NotSquare`] for rectangular input.
    pub fn analyze(a: &CsrMat) -> Result<Self, FactorError> {
        Self::analyze_with_kernel(a, CholKernel::Supernodal)
    }

    /// Runs the symbolic analysis targeting an explicit numeric kernel.
    ///
    /// For both kernels the nested-dissection permutation is composed with a
    /// postorder of the elimination tree. A postorder is a topological
    /// reorder of the tree, so fill-in and column counts are preserved
    /// exactly; it makes supernode chains contiguous (required by the
    /// panel layout) and gives both kernels the *same* permutation so
    /// their factors are directly comparable.
    ///
    /// # Errors
    ///
    /// [`FactorError::NotSquare`] for rectangular input.
    pub fn analyze_with_kernel(a: &CsrMat, kernel: CholKernel) -> Result<Self, FactorError> {
        if a.nrows() != a.ncols() {
            return Err(FactorError::NotSquare);
        }
        let perm = nested_dissection(a);
        // First pass for the elimination tree, then re-analyze under the
        // postorder-composed permutation.
        let pre = Self::analyze_perm_kernel(a, perm, CholKernel::Scalar)?;
        let post = etree_postorder(&pre.parent);
        let perm2: Vec<usize> = post.iter().map(|&k| pre.perm[k]).collect();
        Self::analyze_perm_kernel(a, perm2, kernel)
    }

    fn analyze_perm_kernel(
        a: &CsrMat,
        perm: Vec<usize>,
        kernel: CholKernel,
    ) -> Result<Self, FactorError> {
        if a.nrows() != a.ncols() {
            return Err(FactorError::NotSquare);
        }
        let n = a.nrows();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let ap = a.permute_sym(&perm);

        // Elimination tree + column counts over the permuted pattern.
        let mut parent = vec![usize::MAX; n];
        let mut lnz = vec![0usize; n];
        let mut flag = vec![usize::MAX; n];
        for k in 0..n {
            flag[k] = k;
            for (j, _) in ap.row_iter(k) {
                if j >= k {
                    continue;
                }
                let mut i = j;
                while flag[i] != k {
                    if parent[i] == usize::MAX {
                        parent[i] = k;
                    }
                    lnz[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut lp = vec![0usize; n + 1];
        for k in 0..n {
            lp[k + 1] = lp[k] + lnz[k];
        }

        let plan = match kernel {
            CholKernel::Scalar => None,
            CholKernel::Supernodal => Some(Arc::new(build_plan(&parent, &lnz, &ap))),
        };

        Ok(SymbolicCholesky {
            n,
            perm,
            parent,
            lp,
            plan,
            a_key: a.pattern_key(),
            a_indptr: a.indptr().to_vec(),
            a_indices: a.indices().to_vec(),
        })
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of off-diagonal entries the factor will hold.
    #[inline]
    pub fn l_nnz(&self) -> usize {
        self.lp[self.n]
    }

    /// The fill-reducing permutation captured at analysis time.
    #[inline]
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Elimination-tree parent array over the permuted pattern (roots
    /// hold `usize::MAX`).
    #[inline]
    pub fn etree(&self) -> &[usize] {
        &self.parent
    }

    /// Below-diagonal entry count of each factor column (permuted order).
    pub fn column_counts(&self) -> Vec<usize> {
        self.lp.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Number of supernode panels (0 when targeting the scalar kernel).
    pub fn supernode_count(&self) -> usize {
        self.plan.as_ref().map_or(0, |p| p.nsup())
    }

    /// Widest supernode panel in columns (0 for the scalar kernel).
    pub fn max_panel_cols(&self) -> usize {
        self.plan.as_ref().map_or(0, |p| p.max_width)
    }

    /// Column ranges `[lo, hi)` of the supernode partition, in permuted
    /// order (empty for the scalar kernel).
    pub fn supernode_col_ranges(&self) -> Vec<(usize, usize)> {
        match &self.plan {
            Some(p) => p.sn_ptr.windows(2).map(|w| (w[0], w[1])).collect(),
            None => Vec::new(),
        }
    }

    /// Modelled memory footprint of the analysis in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.perm.len() + self.parent.len() + self.lp.len()) * 8
            + (self.a_indptr.len() + self.a_indices.len()) * 8
            + self.plan.as_ref().map_or(0, |p| p.index_bytes())
    }

    /// Whether `a` has exactly the sparsity pattern this analysis was built
    /// from (values are free to differ).
    ///
    /// O(1): compares the stored 64-bit structure fingerprint (plus the
    /// dimensions), not the index arrays — this is the hot check on every
    /// warm session-cache hit. A false positive requires an FNV-1a
    /// collision between different patterns (~2⁻⁶⁴ per pair); callers that
    /// cannot tolerate that use [`SymbolicCholesky::matches_exact`].
    pub fn matches(&self, a: &CsrMat) -> bool {
        let hit = a.nrows() == self.n && a.ncols() == self.n && a.pattern_key() == self.a_key;
        debug_assert_eq!(
            hit,
            self.matches_exact(a),
            "structure fingerprint collision"
        );
        hit
    }

    /// Full index-array comparison behind [`SymbolicCholesky::matches`]:
    /// exact, O(nnz).
    pub fn matches_exact(&self, a: &CsrMat) -> bool {
        a.nrows() == self.n
            && a.ncols() == self.n
            && a.indptr() == self.a_indptr.as_slice()
            && a.indices() == self.a_indices.as_slice()
    }

    /// Numeric-only factorization of a matrix with the analyzed pattern.
    ///
    /// Bit-identical to a fresh [`SparseCholesky::factor_diagnosed`]: the
    /// replay executes the same elimination with the same permutation, so
    /// every intermediate and final value matches exactly.
    ///
    /// # Errors
    ///
    /// [`FactorError::StructureMismatch`] when `a`'s pattern differs from
    /// the analyzed one; otherwise the same pivot errors as
    /// [`SparseCholesky::factor_diagnosed`].
    pub fn refactor(
        &self,
        a: &CsrMat,
        policy: PivotPolicy,
    ) -> Result<(SparseCholesky, FactorDiagnostics), FactorError> {
        let mut out = SparseCholesky {
            n: 0,
            perm: Vec::new(),
            data: FactorData::default(),
            d: Vec::new(),
            sqrt_d: Vec::new(),
            parent: Vec::new(),
        };
        let diag = self.refactor_into(a, policy, &mut out)?;
        Ok((out, diag))
    }

    /// Allocation-reusing [`SymbolicCholesky::refactor`]: overwrites `out`
    /// in place, keeping its buffers when they are already large enough.
    ///
    /// # Errors
    ///
    /// Same as [`SymbolicCholesky::refactor`]. On error `out` is left in an
    /// unspecified but safe-to-reuse state.
    pub fn refactor_into(
        &self,
        a: &CsrMat,
        policy: PivotPolicy,
        out: &mut SparseCholesky,
    ) -> Result<FactorDiagnostics, FactorError> {
        if a.nrows() != a.ncols() {
            return Err(FactorError::NotSquare);
        }
        if !self.matches(a) {
            return Err(FactorError::StructureMismatch);
        }
        let n = self.n;
        let perm = &self.perm;
        let parent = &self.parent;
        let lp = &self.lp;
        let nnz_l = lp[n];
        let ap = a.permute_sym(perm);

        // The pivot floor for PivotPolicy::Perturb is anchored to the
        // largest original diagonal entry, so it is invariant under the
        // fill-reducing permutation and the thread count.
        let pivot_floor = match policy {
            PivotPolicy::Perturb { rel_threshold }
                if rel_threshold.is_finite() && rel_threshold > 0.0 =>
            {
                let mut max_diag = 0.0f64;
                for k in 0..n {
                    for (j, v) in ap.row_iter(k) {
                        if j == k {
                            max_diag = max_diag.max(v.abs());
                        }
                    }
                }
                Some(rel_threshold * max_diag.max(f64::MIN_POSITIVE))
            }
            _ => None,
        };

        out.n = n;
        out.perm.clone_from(perm);
        out.parent.clone_from(parent);
        out.d.clear();
        out.d.resize(n, 0.0);

        let mut diag = FactorDiagnostics::default();
        match &self.plan {
            Some(plan) => {
                // Supernodal numeric pass over the prebuilt panel plan,
                // reusing out's panel buffer when it has one.
                let mut fac = match std::mem::take(&mut out.data) {
                    FactorData::Super(mut f) => {
                        f.plan = Arc::clone(plan);
                        f
                    }
                    FactorData::Scalar { .. } => SupernodalFactor {
                        plan: Arc::clone(plan),
                        px: Vec::new(),
                        flops: 0,
                    },
                };
                let res = refactor_numeric(&ap, perm, pivot_floor, &mut out.d, &mut fac, &mut diag);
                out.data = FactorData::Super(fac);
                res?;
            }
            None => {
                let (mut lp_out, mut li, mut lx) = match std::mem::take(&mut out.data) {
                    FactorData::Scalar { lp, li, lx } => (lp, li, lx),
                    FactorData::Super(_) => (Vec::new(), Vec::new(), Vec::new()),
                };
                lp_out.clone_from(lp);
                li.clear();
                li.resize(nnz_l, 0);
                lx.clear();
                lx.resize(nnz_l, 0.0);
                let res = scalar_refactor_numeric(
                    &ap,
                    perm,
                    parent,
                    lp,
                    pivot_floor,
                    &mut li,
                    &mut lx,
                    &mut out.d,
                    &mut diag,
                );
                out.data = FactorData::Scalar { lp: lp_out, li, lx };
                res?;
            }
        }

        out.sqrt_d.clear();
        out.sqrt_d.extend(out.d.iter().map(|v| v.sqrt()));
        Ok(diag)
    }
}

/// Up-looking scalar numeric elimination (Davis's LDL), one row of `L` at
/// a time over the elimination-tree reach of the row.
#[allow(clippy::too_many_arguments)]
fn scalar_refactor_numeric(
    ap: &CsrMat,
    perm: &[usize],
    parent: &[usize],
    lp: &[usize],
    pivot_floor: Option<f64>,
    li: &mut [usize],
    lx: &mut [f64],
    d: &mut [f64],
    diag: &mut FactorDiagnostics,
) -> Result<(), FactorError> {
    let n = perm.len();
    let mut y = vec![0f64; n];
    let mut pattern = vec![0usize; n];
    let mut next = lp.to_vec(); // insertion point per column
    let mut flag = vec![usize::MAX; n];
    for k in 0..n {
        // Scatter row k of the (permuted) upper triangle into y and
        // compute the reach (pattern of row k of L) in topological order.
        let mut top = n;
        flag[k] = k;
        let mut dk = 0.0;
        for (j, v) in ap.row_iter(k) {
            if j > k {
                continue;
            }
            if j == k {
                dk = v;
                continue;
            }
            y[j] = v;
            let mut len = 0usize;
            let mut i = j;
            // Walk up the etree until hitting a flagged node.
            let mut stack_base = top;
            while flag[i] != k {
                pattern[len] = i;
                len += 1;
                flag[i] = k;
                i = parent[i];
            }
            // Push in reverse so that `pattern[top..n]` is topological.
            for s in (0..len).rev() {
                stack_base -= 1;
                pattern[stack_base] = pattern[s];
            }
            top = stack_base;
        }
        // Sparse triangular solve over the pattern.
        for &i in &pattern[top..n] {
            let yi = y[i];
            y[i] = 0.0;
            let lki = yi / d[i];
            // Apply column i of L to y (only entries below row i exist;
            // all stored rows are < k).
            for p in lp[i]..next[i] {
                y[li[p]] -= lx[p] * yi;
            }
            dk -= lki * yi;
            li[next[i]] = k;
            lx[next[i]] = lki;
            next[i] += 1;
        }
        if !dk.is_finite() {
            return Err(FactorError::NonFinitePivot {
                step: k,
                index: perm[k],
                pivot: dk,
            });
        }
        match pivot_floor {
            Some(floor) if dk < floor => {
                diag.perturbed.push(PerturbedPivot {
                    index: perm[k],
                    original: dk,
                    replaced_with: floor,
                });
                dk = floor;
            }
            Some(_) => {}
            None => {
                if dk <= 0.0 {
                    return Err(FactorError::NotPositiveDefinite {
                        step: k,
                        index: perm[k],
                        pivot: dk,
                    });
                }
            }
        }
        d[k] = dk;
    }
    Ok(())
}

impl SparseCholesky {
    /// Factors a symmetric positive-definite matrix under its
    /// nested-dissection ordering.
    ///
    /// Only the structure and values reachable through rows are used; the
    /// matrix is assumed numerically symmetric (stamped RC conductance
    /// matrices are symmetric by construction).
    ///
    /// # Errors
    ///
    /// [`FactorError::NotPositiveDefinite`] if a pivot `≤ 0` is found,
    /// [`FactorError::NotSquare`] for rectangular input.
    pub fn factor(a: &CsrMat) -> Result<Self, FactorError> {
        Self::factor_analyzed(a, PivotPolicy::Error).map(|(f, _, _)| f)
    }

    /// Factors under an explicit [`PivotPolicy`], returning the factor
    /// together with [`FactorDiagnostics`] describing any pivot
    /// substitutions. With [`PivotPolicy::Error`] this is exactly
    /// [`SparseCholesky::factor`] (and the diagnostics are empty).
    ///
    /// # Errors
    ///
    /// [`FactorError::NotPositiveDefinite`] under [`PivotPolicy::Error`]
    /// when a pivot `≤ 0` is found, [`FactorError::NotSquare`] for
    /// rectangular input. Under [`PivotPolicy::Perturb`] pivot failures
    /// are repaired rather than reported, so only [`FactorError::NotSquare`]
    /// remains (a non-finite or non-positive `rel_threshold` falls back to
    /// strict behavior).
    pub fn factor_diagnosed(
        a: &CsrMat,
        policy: PivotPolicy,
    ) -> Result<(Self, FactorDiagnostics), FactorError> {
        Self::factor_analyzed(a, policy).map(|(f, diag, _)| (f, diag))
    }

    /// Factors under an explicit [`PivotPolicy`] and also returns the
    /// reusable [`SymbolicCholesky`] analysis, so later matrices with the
    /// same sparsity pattern can skip the fill-reducing ordering and
    /// elimination-tree construction via [`SymbolicCholesky::refactor`]
    /// ("one symbolic, many numerics").
    ///
    /// # Errors
    ///
    /// Same as [`SparseCholesky::factor_diagnosed`].
    pub fn factor_analyzed(
        a: &CsrMat,
        policy: PivotPolicy,
    ) -> Result<(Self, FactorDiagnostics, SymbolicCholesky), FactorError> {
        Self::factor_analyzed_with_kernel(a, policy, CholKernel::Supernodal)
    }

    /// [`SparseCholesky::factor_analyzed`] with an explicit numeric
    /// kernel: the route to the scalar reference kernel that the parity
    /// tests and kernel benches compare the supernodal one against.
    ///
    /// # Errors
    ///
    /// Same as [`SparseCholesky::factor_analyzed`].
    pub fn factor_analyzed_with_kernel(
        a: &CsrMat,
        policy: PivotPolicy,
        kernel: CholKernel,
    ) -> Result<(Self, FactorDiagnostics, SymbolicCholesky), FactorError> {
        let sym = SymbolicCholesky::analyze_with_kernel(a, kernel)?;
        let (factor, diag) = sym.refactor(a, policy)?;
        Ok((factor, diag, sym))
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of *structural* off-diagonal entries of `L` (fill-in
    /// measure). For the supernodal representation this counts the
    /// entries the scalar kernel would store, not the panel padding, so
    /// the fill metric is kernel-invariant.
    #[inline]
    pub fn l_nnz(&self) -> usize {
        match &self.data {
            FactorData::Scalar { lx, .. } => lx.len(),
            FactorData::Super(f) => f.plan.struct_nnz,
        }
    }

    /// Modelled memory footprint of the factor in bytes (values + indices +
    /// pointers), used for the paper's memory tables. The supernodal
    /// representation needs no per-entry row index, so it is typically
    /// well below the scalar kernel's 16 bytes/entry despite panel
    /// padding.
    pub fn memory_bytes(&self) -> usize {
        match &self.data {
            FactorData::Scalar { lp, li, lx } => {
                lx.len() * 8 + li.len() * 8 + lp.len() * 8 + self.d.len() * 16
            }
            FactorData::Super(f) => f.memory_bytes() + self.d.len() * 16,
        }
    }

    /// Whether the factor is stored as supernodal panels.
    #[inline]
    pub fn is_supernodal(&self) -> bool {
        matches!(&self.data, FactorData::Super(_))
    }

    /// Number of supernode panels (0 for the scalar representation).
    pub fn supernode_count(&self) -> usize {
        match &self.data {
            FactorData::Scalar { .. } => 0,
            FactorData::Super(f) => f.plan.nsup(),
        }
    }

    /// Widest supernode panel in columns (0 for the scalar representation).
    pub fn max_panel_cols(&self) -> usize {
        match &self.data {
            FactorData::Scalar { .. } => 0,
            FactorData::Super(f) => f.plan.max_width,
        }
    }

    /// Structural flop count of the supernodal numeric factorization — a
    /// function of the pattern only, identical across refactors and
    /// thread counts (0 for the scalar representation).
    pub fn panel_flops(&self) -> u64 {
        match &self.data {
            FactorData::Scalar { .. } => 0,
            FactorData::Super(f) => f.flops,
        }
    }

    /// The stored factor values: off-diagonal CSC entries for the scalar
    /// kernel, concatenated dense panels for the supernodal one. Useful
    /// for bitwise comparisons between factors of the *same*
    /// representation (e.g. fresh vs. refactored).
    #[cfg(test)]
    pub(crate) fn factor_values(&self) -> &[f64] {
        match &self.data {
            FactorData::Scalar { lx, .. } => lx,
            FactorData::Super(f) => &f.px,
        }
    }

    /// The fill-reducing permutation used.
    #[inline]
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Elimination-tree parent array (roots hold `usize::MAX`).
    #[inline]
    pub fn etree(&self) -> &[usize] {
        &self.parent
    }

    /// The pivots `D` of the LDLᵀ factorization (all positive).
    #[inline]
    pub fn pivots(&self) -> &[f64] {
        &self.d
    }

    /// `log(det(A)) = Σ log d_k` — numerically safe determinant access.
    pub fn log_det(&self) -> f64 {
        self.d.iter().map(|v| v.ln()).sum()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        // Permute, L solve, D solve, Lᵀ solve, unpermute.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        self.lsolve_unit(&mut x);
        for (xi, di) in x.iter_mut().zip(&self.d) {
            *xi /= di;
        }
        self.ltsolve_unit(&mut x);
        let mut out = vec![0.0; self.n];
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = x[i];
        }
        out
    }

    /// Applies `F⁻¹` where `F = Pᵀ L D^{1/2}` is the Cholesky factor with
    /// `F Fᵀ = A`. This is the `L⁻¹·` operation of the paper's eq. (6)–(8)
    /// (our `F` plays the paper's `L`).
    pub fn fsolve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        self.lsolve_unit(&mut x);
        for (xi, sd) in x.iter_mut().zip(&self.sqrt_d) {
            *xi /= sd;
        }
        x
    }

    /// Applies `F⁻ᵀ` (see [`SparseCholesky::fsolve`]).
    pub fn ftsolve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let mut x = b.to_vec();
        for (xi, sd) in x.iter_mut().zip(&self.sqrt_d) {
            *xi /= sd;
        }
        self.ltsolve_unit(&mut x);
        let mut out = vec![0.0; self.n];
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = x[i];
        }
        out
    }

    /// Allocation-free [`SparseCholesky::solve`]: writes `A⁻¹ b` into
    /// `out`, using `work` (resized in place) as the only workspace.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `out.len() != n`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], work: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        assert_eq!(out.len(), self.n);
        work.clear();
        work.extend(self.perm.iter().map(|&p| b[p]));
        self.lsolve_unit(work);
        for (xi, di) in work.iter_mut().zip(&self.d) {
            *xi /= di;
        }
        self.ltsolve_unit(work);
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = work[i];
        }
    }

    /// Allocation-free [`SparseCholesky::fsolve`]: writes `F⁻¹ b` into
    /// `out` (permuted coordinates, like `fsolve`). Takes no
    /// caller-provided workspace — the forward solve runs in place on
    /// `out` (the supernodal kernel carries a small internal panel
    /// buffer).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `out.len() != n`.
    pub fn fsolve_into(&self, b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(out.len(), self.n);
        for (xi, &p) in out.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        self.lsolve_unit(out);
        for (xi, sd) in out.iter_mut().zip(&self.sqrt_d) {
            *xi /= sd;
        }
    }

    /// Allocation-free [`SparseCholesky::ftsolve`]: writes `F⁻ᵀ b` into
    /// `out`, using `work` (resized in place) as the only workspace.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `out.len() != n`.
    pub fn ftsolve_into(&self, b: &[f64], out: &mut [f64], work: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        assert_eq!(out.len(), self.n);
        work.clear();
        work.extend(b.iter().zip(&self.sqrt_d).map(|(bi, sd)| bi / sd));
        self.ltsolve_unit(work);
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = work[i];
        }
    }

    /// In-place forward solve with unit lower `L` (permuted coordinates).
    fn lsolve_unit(&self, x: &mut [f64]) {
        match &self.data {
            FactorData::Scalar { lp, li, lx } => {
                for j in 0..self.n {
                    let xj = x[j];
                    if xj == 0.0 {
                        continue;
                    }
                    for p in lp[j]..lp[j + 1] {
                        x[li[p]] -= lx[p] * xj;
                    }
                }
            }
            FactorData::Super(f) => f.lsolve_unit(x),
        }
    }

    /// In-place backward solve with unit `Lᵀ` (permuted coordinates).
    fn ltsolve_unit(&self, x: &mut [f64]) {
        match &self.data {
            FactorData::Scalar { lp, li, lx } => {
                for j in (0..self.n).rev() {
                    let mut acc = x[j];
                    for p in lp[j]..lp[j + 1] {
                        acc -= lx[p] * x[li[p]];
                    }
                    x[j] = acc;
                }
            }
            FactorData::Super(f) => f.ltsolve_unit(x),
        }
    }

    // ---- blocked multi-RHS solves ----
    //
    // The factor L is traversed once per group of up to `LANES` right-hand
    // sides held in a node-major scratch (`work[i * width + r]` = RHS `r`
    // at node `i`), so each loaded L entry is applied to all lanes. Within
    // a lane the floating-point sequence is the one the scalar solve uses
    // (the scalar path's skip of exactly-zero pivots aside, which can only
    // flip the sign of a zero), so blocked and scalar results agree.

    /// Blocked [`SparseCholesky::solve`] for `k` right-hand sides stored
    /// column-major in `b` (`b[c * n + i]` = RHS `c` at row `i`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n * k`.
    pub fn solve_block(&self, b: &[f64], k: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n * k];
        let mut work = Vec::new();
        self.solve_block_into(b, k, &mut out, &mut work);
        out
    }

    /// Allocation-free [`SparseCholesky::solve_block`]: writes into `out`
    /// (column-major, `n * k`), using `work` (resized in place) as the
    /// only workspace.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n * k` or `out.len() != n * k`.
    pub fn solve_block_into(&self, b: &[f64], k: usize, out: &mut [f64], work: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n * k);
        assert_eq!(out.len(), self.n * k);
        let n = self.n;
        let mut c0 = 0;
        while c0 < k {
            let width = (k - c0).min(LANES);
            work.clear();
            work.resize(n * width, 0.0);
            for i in 0..n {
                let src = self.perm[i];
                for r in 0..width {
                    work[i * width + r] = b[(c0 + r) * n + src];
                }
            }
            self.lsolve_lanes(work, width);
            for i in 0..n {
                let di = self.d[i];
                for r in 0..width {
                    work[i * width + r] /= di;
                }
            }
            self.ltsolve_lanes(work, width);
            for i in 0..n {
                let dst = self.perm[i];
                for r in 0..width {
                    out[(c0 + r) * n + dst] = work[i * width + r];
                }
            }
            c0 += width;
        }
    }

    /// Blocked [`SparseCholesky::fsolve`] for `k` right-hand sides stored
    /// column-major in `b`; output columns are in permuted coordinates,
    /// exactly like `fsolve`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n * k`.
    pub fn fsolve_block(&self, b: &[f64], k: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n * k];
        let mut work = Vec::new();
        self.fsolve_block_into(b, k, &mut out, &mut work);
        out
    }

    /// Allocation-free [`SparseCholesky::fsolve_block`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n * k` or `out.len() != n * k`.
    pub fn fsolve_block_into(&self, b: &[f64], k: usize, out: &mut [f64], work: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n * k);
        assert_eq!(out.len(), self.n * k);
        let n = self.n;
        let mut c0 = 0;
        while c0 < k {
            let width = (k - c0).min(LANES);
            work.clear();
            work.resize(n * width, 0.0);
            for i in 0..n {
                let src = self.perm[i];
                for r in 0..width {
                    work[i * width + r] = b[(c0 + r) * n + src];
                }
            }
            self.lsolve_lanes(work, width);
            for i in 0..n {
                let sd = self.sqrt_d[i];
                for r in 0..width {
                    out[(c0 + r) * n + i] = work[i * width + r] / sd;
                }
            }
            c0 += width;
        }
    }

    /// Blocked [`SparseCholesky::ftsolve`] for `k` right-hand sides stored
    /// column-major in `b` (permuted coordinates, like `ftsolve`'s input);
    /// output columns are unpermuted.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n * k`.
    pub fn ftsolve_block(&self, b: &[f64], k: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n * k];
        let mut work = Vec::new();
        self.ftsolve_block_into(b, k, &mut out, &mut work);
        out
    }

    /// Allocation-free [`SparseCholesky::ftsolve_block`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n * k` or `out.len() != n * k`.
    pub fn ftsolve_block_into(&self, b: &[f64], k: usize, out: &mut [f64], work: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n * k);
        assert_eq!(out.len(), self.n * k);
        let n = self.n;
        let mut c0 = 0;
        while c0 < k {
            let width = (k - c0).min(LANES);
            work.clear();
            work.resize(n * width, 0.0);
            for i in 0..n {
                let sd = self.sqrt_d[i];
                for r in 0..width {
                    work[i * width + r] = b[(c0 + r) * n + i] / sd;
                }
            }
            self.ltsolve_lanes(work, width);
            for i in 0..n {
                let dst = self.perm[i];
                for r in 0..width {
                    out[(c0 + r) * n + dst] = work[i * width + r];
                }
            }
            c0 += width;
        }
    }

    /// Forward solve with unit lower `L` over `width ≤ LANES` lanes held
    /// node-major in `w`.
    fn lsolve_lanes(&self, w: &mut [f64], width: usize) {
        debug_assert!(width <= LANES);
        match &self.data {
            FactorData::Scalar { lp, li, lx } => {
                for j in 0..self.n {
                    let mut xj = [0.0f64; LANES];
                    let base = j * width;
                    xj[..width].copy_from_slice(&w[base..base + width]);
                    for p in lp[j]..lp[j + 1] {
                        let l = lx[p];
                        let rbase = li[p] * width;
                        for r in 0..width {
                            w[rbase + r] -= l * xj[r];
                        }
                    }
                }
            }
            FactorData::Super(f) => f.lsolve_lanes(w, width),
        }
    }

    /// Backward solve with unit `Lᵀ` over `width ≤ LANES` lanes held
    /// node-major in `w`.
    fn ltsolve_lanes(&self, w: &mut [f64], width: usize) {
        debug_assert!(width <= LANES);
        match &self.data {
            FactorData::Scalar { lp, li, lx } => {
                for j in (0..self.n).rev() {
                    let base = j * width;
                    let mut acc = [0.0f64; LANES];
                    acc[..width].copy_from_slice(&w[base..base + width]);
                    for p in lp[j]..lp[j + 1] {
                        let l = lx[p];
                        let rbase = li[p] * width;
                        for r in 0..width {
                            acc[r] -= l * w[rbase + r];
                        }
                    }
                    w[base..base + width].copy_from_slice(&acc[..width]);
                }
            }
            FactorData::Super(f) => f.ltsolve_lanes(w, width),
        }
    }
}

/// Lane count of the blocked solves: right-hand sides are processed in
/// groups of up to this many so the factor is traversed once per group.
pub const LANES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMat;
    use crate::dense::norm_inf;

    /// Laplacian of a path graph plus a grounding term: SPD, tridiagonal.
    fn spd_path(n: usize) -> CsrMat {
        let mut t = TripletMat::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(Some(i), Some(i + 1), 1.0 + i as f64 * 0.1);
        }
        for i in 0..n {
            t.push(i, i, 0.5 + 0.01 * i as f64);
        }
        t.to_csr()
    }

    /// 2-D grid Laplacian with grounding, exercising fill-in.
    fn spd_grid(nx: usize, ny: usize) -> CsrMat {
        let n = nx * ny;
        let id = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMat::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    t.stamp_conductance(Some(id(x, y)), Some(id(x + 1, y)), 1.0);
                }
                if y + 1 < ny {
                    t.stamp_conductance(Some(id(x, y)), Some(id(x, y + 1)), 1.0);
                }
                t.push(id(x, y), id(x, y), 0.1);
            }
        }
        t.to_csr()
    }

    fn residual(a: &CsrMat, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        norm_inf(&ax.iter().zip(b).map(|(p, q)| p - q).collect::<Vec<_>>())
    }

    /// The identity and three seeded random relabelings `P` of `0..n`:
    /// the tests factor `P A Pᵀ` under each, so the nested-dissection
    /// ordering meets the same graph under several input numberings.
    fn relabelings(n: usize) -> Vec<Vec<usize>> {
        let mut rng = crate::XorShiftRng::seed_from_u64(0x5eed);
        let mut out = vec![(0..n).collect()];
        out.extend((0..3).map(|_| rng.permutation(n)));
        out
    }

    #[test]
    fn solves_path_under_relabelings() {
        let path = spd_path(25);
        let b: Vec<f64> = (0..25).map(|i| (i as f64).sin()).collect();
        for (r, p) in relabelings(25).iter().enumerate() {
            let a = path.permute_sym(p);
            let f = SparseCholesky::factor(&a).unwrap();
            let x = f.solve(&b);
            assert!(
                residual(&a, &x, &b) < 1e-10,
                "residual too large under relabeling {r}"
            );
        }
    }

    #[test]
    fn solves_grid() {
        let a = spd_grid(8, 7);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let f = SparseCholesky::factor(&a).unwrap();
        let x = f.solve(&b);
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn fsolve_ftsolve_compose_to_solve() {
        // F F^T = A  ⇒  A^{-1} b = F^{-T} (F^{-1} b)
        let a = spd_grid(5, 5);
        let b: Vec<f64> = (0..25).map(|i| (i % 3) as f64 - 1.0).collect();
        let f = SparseCholesky::factor(&a).unwrap();
        let via_parts = f.ftsolve(&f.fsolve(&b));
        let direct = f.solve(&b);
        for (u, v) in via_parts.iter().zip(&direct) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn factor_identity_reproduces_a() {
        // Verify F F^T = A by applying to basis vectors: A e_i should equal
        // F (F^T e_i). We check by solving instead: x = solve(a e_i) == e_i.
        let a = spd_path(10);
        let f = SparseCholesky::factor(&a).unwrap();
        for i in 0..10 {
            let mut e = vec![0.0; 10];
            e[i] = 1.0;
            let x = f.solve(&a.matvec(&e));
            for (k, &v) in x.iter().enumerate() {
                let expect = if k == i { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, -1.0);
        let err = SparseCholesky::factor(&t.to_csr()).unwrap_err();
        match err {
            FactorError::NotPositiveDefinite { pivot, .. } => assert!(pivot <= 0.0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_singular() {
        // A floating internal node: zero row/col after stamping only a
        // conductance loop — here simply a zero pivot.
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 2.0);
        // node 1 has no connection at all -> pivot 0
        let a = t.to_csr();
        let e = SparseCholesky::factor(&a).unwrap_err();
        // The failed index names the offending row of the *original*
        // (unpermuted) matrix so callers can attribute it to a node.
        assert_eq!(e.failed_index(), Some(1));
    }

    #[test]
    fn perturb_policy_recovers_singular_pivot() {
        let mut t = TripletMat::new(3, 3);
        t.push(0, 0, 4.0);
        t.push(2, 2, 1.0);
        // node 1 floats -> zero pivot under the strict policy.
        let a = t.to_csr();
        let (f, diag) = SparseCholesky::factor_diagnosed(
            &a,
            PivotPolicy::Perturb {
                rel_threshold: 1e-12,
            },
        )
        .unwrap();
        assert_eq!(diag.perturbed.len(), 1);
        let p = diag.perturbed[0];
        assert_eq!(p.index, 1);
        assert_eq!(p.original, 0.0);
        // Floor is anchored to the largest diagonal entry (4.0 here).
        assert!((p.replaced_with - 4e-12).abs() < 1e-24);
        // The factor solves the stiffened system: rows 0 and 2 are exact,
        // the floating row sees the floor pivot.
        let x = f.solve(&[8.0, 0.0, 3.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn perturb_policy_reports_original_indices_under_permutation() {
        // A permuting ordering must not garble the reported index: the
        // perturbed pivot names the row of the caller's matrix.
        let n = 8;
        let mut t = TripletMat::new(n, n);
        for i in 0..n - 1 {
            if i != 5 && i + 1 != 5 {
                t.stamp_conductance(Some(i), Some(i + 1), 1.0);
            }
        }
        for i in 0..n {
            if i != 5 {
                t.push(i, i, 0.5);
            }
        }
        // node 5 floats entirely; relabeled, it is row `inv[5]`.
        let line = t.to_csr();
        for (r, p) in relabelings(n).iter().enumerate() {
            let a = line.permute_sym(p);
            let floating = crate::invert_permutation(p)[5];
            let (_, diag) = SparseCholesky::factor_diagnosed(
                &a,
                PivotPolicy::Perturb {
                    rel_threshold: 1e-10,
                },
            )
            .unwrap();
            assert_eq!(diag.perturbed.len(), 1, "relabeling {r}");
            assert_eq!(diag.perturbed[0].index, floating, "relabeling {r}");
        }
    }

    #[test]
    fn perturb_policy_is_inert_on_well_conditioned_input() {
        let a = spd_grid(6, 5);
        let (f, diag) = SparseCholesky::factor_diagnosed(
            &a,
            PivotPolicy::Perturb {
                rel_threshold: 1e-12,
            },
        )
        .unwrap();
        assert!(diag.perturbed.is_empty());
        let strict = SparseCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64).cos()).collect();
        assert_eq!(f.solve(&b), strict.solve(&b));
    }

    /// Random SPD matrix: Laplacian from random edges plus a positive
    /// diagonal, the same construction the randomized sweeps use.
    fn spd_random(n: usize, rng: &mut crate::XorShiftRng) -> CsrMat {
        let mut t = TripletMat::new(n, n);
        for _ in 0..3 * n {
            let i = rng.gen_index(n);
            let j = rng.gen_index(n);
            if i != j {
                t.stamp_conductance(Some(i), Some(j), rng.gen_range_f64(0.01, 10.0));
            }
        }
        for i in 0..n {
            t.push(i, i, rng.gen_range_f64(0.1, 5.0));
        }
        t.to_csr()
    }

    #[test]
    fn solve_block_matches_column_solves_under_relabelings() {
        // The blocked kernel must agree with column-by-column scalar
        // solves on random SPD systems, under every relabeling and for
        // widths below, at, and above the lane count.
        let mut rng = crate::XorShiftRng::seed_from_u64(0xb10c);
        for r in 0..4 {
            for &k in &[1usize, 3, LANES, LANES + 5] {
                let n = 20 + rng.gen_index(15);
                let a = spd_random(n, &mut rng).permute_sym(&relabelings(n)[r]);
                let f = SparseCholesky::factor(&a).unwrap();
                let b: Vec<f64> = (0..n * k).map(|_| rng.gen_range_f64(-2.0, 2.0)).collect();
                let blocked = f.solve_block(&b, k);
                for c in 0..k {
                    let col = f.solve(&b[c * n..(c + 1) * n]);
                    for i in 0..n {
                        assert_eq!(
                            blocked[c * n + i],
                            col[i],
                            "solve_block mismatch relabeling {r} k={k} col={c} row={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fsolve_block_matches_column_solves_under_relabelings() {
        let mut rng = crate::XorShiftRng::seed_from_u64(0xf50e);
        for (r, p) in relabelings(25).iter().enumerate() {
            let n = 25;
            let k = LANES + 2;
            let a = spd_random(n, &mut rng).permute_sym(p);
            let f = SparseCholesky::factor(&a).unwrap();
            let b: Vec<f64> = (0..n * k).map(|_| rng.gen_range_f64(-2.0, 2.0)).collect();
            let blocked = f.fsolve_block(&b, k);
            for c in 0..k {
                let col = f.fsolve(&b[c * n..(c + 1) * n]);
                for i in 0..n {
                    assert_eq!(
                        blocked[c * n + i],
                        col[i],
                        "fsolve_block mismatch relabeling {r} col={c} row={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn ftsolve_block_matches_column_solves_under_relabelings() {
        let mut rng = crate::XorShiftRng::seed_from_u64(0xf751);
        for (r, p) in relabelings(25).iter().enumerate() {
            let n = 25;
            let k = LANES + 2;
            let a = spd_random(n, &mut rng).permute_sym(p);
            let f = SparseCholesky::factor(&a).unwrap();
            let b: Vec<f64> = (0..n * k).map(|_| rng.gen_range_f64(-2.0, 2.0)).collect();
            let blocked = f.ftsolve_block(&b, k);
            for c in 0..k {
                let col = f.ftsolve(&b[c * n..(c + 1) * n]);
                for i in 0..n {
                    assert_eq!(
                        blocked[c * n + i],
                        col[i],
                        "ftsolve_block mismatch relabeling {r} col={c} row={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_solves() {
        let mut rng = crate::XorShiftRng::seed_from_u64(0x1470);
        let n = 30;
        let a = spd_random(n, &mut rng);
        let f = SparseCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
        let mut out = vec![0.0; n];
        let mut work = Vec::new();

        f.solve_into(&b, &mut out, &mut work);
        assert_eq!(out, f.solve(&b));

        f.fsolve_into(&b, &mut out);
        assert_eq!(out, f.fsolve(&b));

        f.ftsolve_into(&b, &mut out, &mut work);
        assert_eq!(out, f.ftsolve(&b));
    }

    #[test]
    fn block_into_reuses_workspace_across_calls() {
        // Repeated calls with the same buffers must keep producing correct
        // results (the buffers are resized in place, never reallocated by
        // the caller).
        let mut rng = crate::XorShiftRng::seed_from_u64(0x9999);
        let n = 18;
        let a = spd_random(n, &mut rng);
        let f = SparseCholesky::factor(&a).unwrap();
        let mut out = vec![0.0; n * 4];
        let mut work = Vec::new();
        for _ in 0..3 {
            let b: Vec<f64> = (0..n * 4).map(|_| rng.gen_range_f64(-3.0, 3.0)).collect();
            f.solve_block_into(&b, 4, &mut out, &mut work);
            for c in 0..4 {
                let col = f.solve(&b[c * n..(c + 1) * n]);
                assert_eq!(&out[c * n..(c + 1) * n], &col[..]);
            }
        }
    }

    #[test]
    fn log_det_matches_dense() {
        let a = spd_path(6);
        let f = SparseCholesky::factor(&a).unwrap();
        // determinant via dense LU on the same matrix
        let dense = a.to_dense();
        let lu = crate::lu::DenseLu::factor(&dense).unwrap();
        assert!((f.log_det() - lu.det().abs().ln()).abs() < 1e-9);
    }

    #[test]
    fn relabeling_changes_fill_but_not_solution() {
        let a = spd_grid(10, 10);
        let b = vec![1.0; 100];
        let f1 = SparseCholesky::factor(&a).unwrap();
        let x1 = f1.solve(&b);
        for p in &relabelings(100)[1..] {
            // Solve P A Pᵀ (P x) = P b and map the answer back.
            let f2 = SparseCholesky::factor(&a.permute_sym(p)).unwrap();
            let pb: Vec<f64> = p.iter().map(|&i| b[i]).collect();
            let y = f2.solve(&pb);
            for (k, &i) in p.iter().enumerate() {
                assert!((x1[i] - y[k]).abs() < 1e-8);
            }
            // A scrambled numbering should not drastically worsen fill.
            assert!(f2.l_nnz() <= 2 * f1.l_nnz());
        }
    }

    /// Same-pattern matrix with different values (the session-cache case).
    fn scale_values(a: &CsrMat, s: f64) -> CsrMat {
        CsrMat::from_raw(
            a.nrows(),
            a.ncols(),
            a.indptr().to_vec(),
            a.indices().to_vec(),
            a.data().iter().map(|v| v * s).collect(),
        )
    }

    #[test]
    fn refactor_is_bitwise_identical_to_fresh() {
        let grid = spd_grid(9, 8);
        for p in relabelings(grid.nrows()) {
            let a = grid.permute_sym(&p);
            let b = scale_values(&a, 1.75);
            let (f0, diag0, sym) = SparseCholesky::factor_analyzed(&a, PivotPolicy::Error).unwrap();
            assert!(sym.matches(&a) && sym.matches(&b));
            assert_eq!(sym.n(), a.nrows());
            assert_eq!(sym.l_nnz(), f0.l_nnz());
            assert!(sym.memory_bytes() > 0);
            assert!(diag0.perturbed.is_empty());

            // Refactor on the *same* values reproduces the factor exactly.
            let (f1, _) = sym.refactor(&a, PivotPolicy::Error).unwrap();
            assert_eq!(f0.factor_values(), f1.factor_values());
            assert_eq!(f0.pivots(), f1.pivots());
            assert_eq!(f0.permutation(), f1.permutation());

            // Refactor on new values matches a fresh factorization
            // bit-for-bit, both allocating and in place.
            let (fresh, _) = SparseCholesky::factor_diagnosed(&b, PivotPolicy::Error).unwrap();
            let (f2, _) = sym.refactor(&b, PivotPolicy::Error).unwrap();
            assert_eq!(fresh.factor_values(), f2.factor_values());
            assert_eq!(fresh.pivots(), f2.pivots());
            let mut reused = f1;
            sym.refactor_into(&b, PivotPolicy::Error, &mut reused)
                .unwrap();
            assert_eq!(fresh.factor_values(), reused.factor_values());
            assert_eq!(fresh.pivots(), reused.pivots());
            assert_eq!(fresh.sqrt_d, reused.sqrt_d);
        }
    }

    #[test]
    fn refactor_rejects_different_structure() {
        let a = spd_grid(6, 6);
        let other = spd_path(36);
        let (_, _, sym) = SparseCholesky::factor_analyzed(&a, PivotPolicy::Error).unwrap();
        assert!(!sym.matches(&other));
        assert_eq!(
            sym.refactor(&other, PivotPolicy::Error).unwrap_err(),
            FactorError::StructureMismatch
        );
    }

    #[test]
    fn refactor_replays_perturbation_decisions() {
        // A quasi-singular diagonal entry must be perturbed identically on
        // the fresh and the replayed path.
        let mut t = TripletMat::new(3, 3);
        t.stamp_conductance(Some(0), Some(1), 1.0);
        t.push(0, 0, 1e-30);
        t.push(1, 1, 0.5);
        t.push(2, 2, 1e-30);
        let a = t.to_csr();
        let policy = PivotPolicy::Perturb {
            rel_threshold: 1e-12,
        };
        let (fresh, diag_fresh, sym) = SparseCholesky::factor_analyzed(&a, policy).unwrap();
        assert!(!diag_fresh.perturbed.is_empty());
        let (replay, diag_replay) = sym.refactor(&a, policy).unwrap();
        assert_eq!(diag_fresh, diag_replay);
        assert_eq!(fresh.d, replay.d);
    }

    #[test]
    fn nan_pivot_is_a_typed_error_not_a_silent_floor() {
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, f64::NAN);
        t.push(1, 1, 1.0);
        let a = t.to_csr();
        // Under the strict policy a NaN is reported as non-finite, not as
        // an ordinary indefinite pivot.
        let err = SparseCholesky::factor_diagnosed(&a, PivotPolicy::Error).unwrap_err();
        assert!(
            matches!(err, FactorError::NonFinitePivot { index: 0, .. }),
            "unexpected error: {err:?}"
        );
        // Pivot relief must refuse to "repair" a NaN: that is poisoned
        // input, not a quasi-singular but physical network.
        let err = SparseCholesky::factor_diagnosed(
            &a,
            PivotPolicy::Perturb {
                rel_threshold: 1e-12,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, FactorError::NonFinitePivot { .. }),
            "perturb policy floored a NaN: {err:?}"
        );
        assert_eq!(err.failed_index(), Some(0));
    }
}
