//! Supernodal (blocked) storage and kernels for the sparse LDLᵀ factor.
//!
//! A *supernode* is a maximal run of consecutive factor columns that form
//! a chain in the elimination tree (`parent[j-1] == j`) and share — up to
//! a bounded amount of relaxation padding — the same sparsity below the
//! diagonal. Along such a chain the pattern of each column nests into the
//! pattern of the last one, so the whole run can be stored as one dense
//! column-major *panel*:
//!
//! ```text
//!         w cols
//!       ┌───────┐
//!   w   │ I \ · │   unit-diagonal block (upper part unused)
//!       ├───────┤
//!   b   │  L21  │   below-rows: struct(L(:, last column))
//!       └───────┘
//! ```
//!
//! The panel keeps the factor values contiguous (no per-entry row index),
//! which converts both the numeric factorization and the triangular
//! solves from indexed scalar scatter into streaming dense loops — the
//! cache-blocking pass the PACT hot path needs. Detection is counts-only
//! (Liu's fundamental-supernode criterion plus CHOLMOD-style staged
//! relaxation); the padding slots introduced by relaxed merges hold exact
//! zeros and never change computed values beyond the sign of a zero.
//!
//! Everything here is crate-internal machinery orchestrated by
//! [`crate::cholesky`]; the public surface stays on `SparseCholesky` /
//! `SymbolicCholesky`.

use std::sync::Arc;

use crate::cholesky::{FactorDiagnostics, FactorError, PerturbedPivot, LANES};
use crate::csr::CsrMat;
use crate::dense::ldl_update_trapezoid;

/// Hard cap on supernode width: panels stay small enough that the active
/// diagonal block and a stripe of update rows fit in L1/L2 cache.
pub(crate) const MAX_PANEL_COLS: usize = 48;
/// Chains up to this many columns merge unconditionally (padding on such
/// narrow panels is negligible and the blocking win is not).
pub(crate) const RELAX_ALWAYS: usize = 4;
/// Up to this width a merge may pad at most 10% of the panel's value
/// slots with explicit zeros; beyond it (up to [`MAX_PANEL_COLS`]) the
/// budget tightens to 5%.
pub(crate) const RELAX_MID: usize = 16;

/// The value-free supernode partition of a factor pattern: column ranges,
/// below-diagonal row lists, and panel offsets. Built once per symbolic
/// analysis and shared (via `Arc`) by every numeric factor refreshed from
/// it.
#[derive(Clone, Debug)]
pub(crate) struct SupernodePlan {
    /// Matrix dimension.
    pub n: usize,
    /// Supernode `s` spans permuted columns `sn_ptr[s] .. sn_ptr[s+1]`
    /// (`nsup + 1` entries, partition of `0..n`).
    pub sn_ptr: Vec<usize>,
    /// Supernode owning each permuted column.
    pub col_to_sn: Vec<usize>,
    /// Below-diagonal rows of supernode `s`:
    /// `rows[rows_ptr[s] .. rows_ptr[s+1]]`, ascending permuted indices —
    /// exactly `struct(L(:, last column of s))`.
    pub rows_ptr: Vec<usize>,
    /// Concatenated below-row lists.
    pub rows: Vec<usize>,
    /// Offset of supernode `s`'s dense panel in the value array; panel `s`
    /// is `(w + b) × w` column-major with leading dimension `w + b`.
    pub panel_ptr: Vec<usize>,
    /// Structural below-diagonal entry count of `L` (what the scalar
    /// kernel would store) — the fill measure reported by `l_nnz`.
    pub struct_nnz: usize,
    /// Widest panel (columns).
    pub max_width: usize,
    /// Largest below-row count over supernodes (solve workspace sizing).
    pub max_below: usize,
}

impl SupernodePlan {
    /// Number of supernodes.
    #[inline]
    pub fn nsup(&self) -> usize {
        self.sn_ptr.len().saturating_sub(1)
    }

    /// Total stored panel values (structural entries + relaxation padding
    /// + the unused upper triangle of each diagonal block).
    #[inline]
    pub fn panel_values(&self) -> usize {
        *self.panel_ptr.last().unwrap_or(&0)
    }

    /// Modelled bytes of the plan's index arrays.
    pub fn index_bytes(&self) -> usize {
        (self.sn_ptr.len()
            + self.col_to_sn.len()
            + self.rows_ptr.len()
            + self.rows.len()
            + self.panel_ptr.len())
            * 8
    }
}

/// Detects the supernode partition from the elimination tree and column
/// counts, then collects each supernode's below-row list with one
/// flag-walk over the (permuted) input pattern — O(n + nnz(L)) total.
///
/// `parent`/`lnz` are the etree and below-diagonal column counts computed
/// by the symbolic analysis for `ap = P A Pᵀ`.
pub(crate) fn build_plan(parent: &[usize], lnz: &[usize], ap: &CsrMat) -> SupernodePlan {
    let n = parent.len();
    debug_assert_eq!(lnz.len(), n);
    debug_assert_eq!(ap.nrows(), n);

    // --- staged detection over column chains (counts only) ---
    let mut sn_ptr = Vec::with_capacity(n / 2 + 2);
    sn_ptr.push(0usize);
    let mut c0 = 0usize; // first column of the open supernode
    let mut sum_lnz = if n > 0 { lnz[0] } else { 0 };
    for j in 1..n {
        let w = j - c0 + 1;
        let merge = parent[j - 1] == j && w <= MAX_PANEL_COLS && {
            let sum = sum_lnz + lnz[j];
            // Value slots of the merged panel below each diagonal:
            // rows i+1..=j of the chain plus the last column's below-rows.
            let slots = w * (w - 1) / 2 + w * lnz[j];
            // Chain nesting guarantees slots ≥ sum; the difference is the
            // explicit-zero padding this merge would carry.
            debug_assert!(slots >= sum, "column nesting violated");
            let z = slots.saturating_sub(sum);
            w <= RELAX_ALWAYS || (10 * z <= slots && w <= RELAX_MID) || 20 * z <= slots
        };
        if merge {
            sum_lnz += lnz[j];
        } else {
            sn_ptr.push(j);
            c0 = j;
            sum_lnz = lnz[j];
        }
    }
    if n > 0 {
        sn_ptr.push(n);
    }
    let nsup = sn_ptr.len() - 1;

    let mut col_to_sn = vec![0usize; n];
    let mut max_width = 0usize;
    for s in 0..nsup {
        max_width = max_width.max(sn_ptr[s + 1] - sn_ptr[s]);
        for j in sn_ptr[s]..sn_ptr[s + 1] {
            col_to_sn[j] = s;
        }
    }

    // --- below-row lists: struct(L(:, last col of s)) per supernode ---
    let mut rows_ptr = vec![0usize; nsup + 1];
    let mut max_below = 0usize;
    for s in 0..nsup {
        let b = lnz[sn_ptr[s + 1] - 1];
        max_below = max_below.max(b);
        rows_ptr[s + 1] = rows_ptr[s] + b;
    }
    let mut rows = vec![0usize; rows_ptr[nsup]];
    let mut cursor = rows_ptr[..nsup].to_vec();
    let mut last_col = vec![false; n];
    for s in 0..nsup {
        last_col[sn_ptr[s + 1] - 1] = true;
    }
    // The same etree flag-walk the symbolic pass uses: row k visits
    // column i exactly when L(k, i) is structural, in ascending k — so
    // appending k at visits of last columns yields each supernode's
    // below-rows already sorted.
    let mut flag = vec![usize::MAX; n];
    for k in 0..n {
        flag[k] = k;
        for (j, _) in ap.row_iter(k) {
            if j >= k {
                continue;
            }
            let mut i = j;
            while flag[i] != k {
                flag[i] = k;
                if last_col[i] {
                    let s = col_to_sn[i];
                    rows[cursor[s]] = k;
                    cursor[s] += 1;
                }
                i = parent[i];
            }
        }
    }
    debug_assert_eq!(cursor, rows_ptr[1..].to_vec());

    let mut panel_ptr = vec![0usize; nsup + 1];
    for s in 0..nsup {
        let w = sn_ptr[s + 1] - sn_ptr[s];
        let b = rows_ptr[s + 1] - rows_ptr[s];
        panel_ptr[s + 1] = panel_ptr[s] + (w + b) * w;
    }

    SupernodePlan {
        n,
        sn_ptr,
        col_to_sn,
        rows_ptr,
        rows,
        panel_ptr,
        struct_nnz: lnz.iter().sum(),
        max_width,
        max_below,
    }
}

/// The numeric half of a supernodal factor: concatenated dense panels
/// over a shared [`SupernodePlan`]. Pivots `D` live outside (on
/// `SparseCholesky`) exactly as for the scalar kernel.
#[derive(Clone, Debug)]
pub(crate) struct SupernodalFactor {
    /// Shared structure.
    pub plan: Arc<SupernodePlan>,
    /// Panel values, column-major per supernode
    /// (`px[panel_ptr[s] + c·(w+b) + r]`).
    pub px: Vec<f64>,
    /// Structural flop count of the numeric factorization — a function of
    /// the pattern only, identical across refactors and thread counts.
    pub flops: u64,
}

impl SupernodalFactor {
    /// Modelled bytes of the stored factor (values + plan indices).
    pub fn memory_bytes(&self) -> usize {
        self.px.len() * 8 + self.plan.index_bytes()
    }

    /// In-place forward solve with the unit-lower panel factor
    /// (permuted coordinates). Mirrors the scalar kernel's contract,
    /// including the skip of exactly-zero inputs.
    pub fn lsolve_unit(&self, x: &mut [f64]) {
        let p = &*self.plan;
        let mut ub = vec![0.0f64; p.max_below];
        for s in 0..p.nsup() {
            let c0 = p.sn_ptr[s];
            let w = p.sn_ptr[s + 1] - c0;
            let rs = &p.rows[p.rows_ptr[s]..p.rows_ptr[s + 1]];
            let b = rs.len();
            let nrow = w + b;
            let panel = &self.px[p.panel_ptr[s]..p.panel_ptr[s + 1]];
            for jj in 0..w {
                let xj = x[c0 + jj];
                if xj == 0.0 {
                    continue;
                }
                let col = &panel[jj * nrow..jj * nrow + w];
                for r in jj + 1..w {
                    x[c0 + r] = (-col[r]).mul_add(xj, x[c0 + r]);
                }
            }
            if b == 0 {
                continue;
            }
            let acc = &mut ub[..b];
            acc.fill(0.0);
            for jj in 0..w {
                let xj = x[c0 + jj];
                if xj == 0.0 {
                    continue;
                }
                let col = &panel[jj * nrow + w..(jj + 1) * nrow];
                for r in 0..b {
                    acc[r] = col[r].mul_add(xj, acc[r]);
                }
            }
            for r in 0..b {
                x[rs[r]] -= acc[r];
            }
        }
    }

    /// In-place backward solve with the unit-upper transpose of the panel
    /// factor (permuted coordinates).
    ///
    /// The below-rows inner product uses the shared 4-partial summation
    /// scheme (see [`below_dot`]) so the per-element chain has enough
    /// instruction-level parallelism to stream the panel; the lane solves
    /// use the identical scheme, keeping lanes-vs-single bitwise equal.
    pub fn ltsolve_unit(&self, x: &mut [f64]) {
        let p = &*self.plan;
        let mut ub = vec![0.0f64; p.max_below];
        for s in (0..p.nsup()).rev() {
            let c0 = p.sn_ptr[s];
            let w = p.sn_ptr[s + 1] - c0;
            let rs = &p.rows[p.rows_ptr[s]..p.rows_ptr[s + 1]];
            let b = rs.len();
            let nrow = w + b;
            let panel = &self.px[p.panel_ptr[s]..p.panel_ptr[s + 1]];
            let xb = &mut ub[..b];
            for r in 0..b {
                xb[r] = x[rs[r]];
            }
            for jj in (0..w).rev() {
                let col = &panel[jj * nrow..(jj + 1) * nrow];
                let mut acc = x[c0 + jj];
                for r in jj + 1..w {
                    acc = (-col[r]).mul_add(x[c0 + r], acc);
                }
                acc -= below_dot(&col[w..], xb);
                x[c0 + jj] = acc;
            }
        }
    }

    /// Forward solve over `width ≤ LANES` lanes held node-major in `wv`
    /// (`wv[i * width + r]` = lane `r` at node `i`). Per lane the
    /// floating-point sequence matches [`SupernodalFactor::lsolve_unit`];
    /// the zero-skip fires lane-wise — a panel column is skipped when
    /// *every* lane is zero there (same measure-zero caveat as the
    /// single-RHS skip), which is what lets a sparse multi-RHS block
    /// (the port fan-out's contact columns) bypass panels outside its
    /// union reach.
    pub fn lsolve_lanes(&self, wv: &mut [f64], width: usize) {
        debug_assert!((1..=LANES).contains(&width));
        match width {
            1 => self.lsolve_lanes_w::<1>(wv),
            2 => self.lsolve_lanes_w::<2>(wv),
            3 => self.lsolve_lanes_w::<3>(wv),
            4 => self.lsolve_lanes_w::<4>(wv),
            5 => self.lsolve_lanes_w::<5>(wv),
            6 => self.lsolve_lanes_w::<6>(wv),
            7 => self.lsolve_lanes_w::<7>(wv),
            _ => self.lsolve_lanes_w::<LANES>(wv),
        }
    }

    fn lsolve_lanes_w<const W: usize>(&self, wv: &mut [f64]) {
        let p = &*self.plan;
        let mut ub = vec![0.0f64; p.max_below * W];
        let mut axj: Vec<f64> = Vec::with_capacity(p.max_width * W);
        let mut acols: Vec<usize> = Vec::with_capacity(p.max_width);
        for s in 0..p.nsup() {
            let c0 = p.sn_ptr[s];
            let w = p.sn_ptr[s + 1] - c0;
            let rs = &p.rows[p.rows_ptr[s]..p.rows_ptr[s + 1]];
            let b = rs.len();
            let nrow = w + b;
            let panel = &self.px[p.panel_ptr[s]..p.panel_ptr[s + 1]];
            // In-block unit-lower solve (sequential across columns).
            let blk = &mut wv[c0 * W..(c0 + w) * W];
            for jj in 0..w {
                let mut xj = [0.0f64; W];
                xj.copy_from_slice(&blk[jj * W..(jj + 1) * W]);
                if xj.iter().all(|v| *v == 0.0) {
                    continue;
                }
                let col = &panel[jj * nrow..jj * nrow + w];
                for (out, &l) in blk[(jj + 1) * W..w * W]
                    .chunks_exact_mut(W)
                    .zip(&col[jj + 1..])
                {
                    for r in 0..W {
                        out[r] = (-l).mul_add(xj[r], out[r]);
                    }
                }
            }
            if b == 0 {
                continue;
            }
            // Compact the columns still active after the in-block solve
            // (the skip fires only when every lane is zero — same
            // measure-zero caveat as the single-RHS skip).
            acols.clear();
            axj.clear();
            for (jj, xs) in blk.chunks_exact(W).enumerate() {
                if xs.iter().any(|v| *v != 0.0) {
                    acols.push(jj);
                    axj.extend_from_slice(xs);
                }
            }
            if acols.is_empty() {
                continue;
            }
            let acc = &mut ub[..b * W];
            acc.fill(0.0);
            // Active columns in groups of four: each accumulator row is
            // loaded and stored once per group instead of once per
            // column, which is what the update is throughput-bound on.
            // Per lane the contributions still land in increasing-column
            // order, so the sums associate exactly as in `lsolve_unit`.
            let mut g = 0;
            while g + 4 <= acols.len() {
                let (j0, j1, j2, j3) = (acols[g], acols[g + 1], acols[g + 2], acols[g + 3]);
                let cs0 = &panel[j0 * nrow + w..(j0 + 1) * nrow];
                let cs1 = &panel[j1 * nrow + w..(j1 + 1) * nrow];
                let cs2 = &panel[j2 * nrow + w..(j2 + 1) * nrow];
                let cs3 = &panel[j3 * nrow + w..(j3 + 1) * nrow];
                let xjs = &axj[g * W..(g + 4) * W];
                let (x0, x1) = (&xjs[..W], &xjs[W..2 * W]);
                let (x2, x3) = (&xjs[2 * W..3 * W], &xjs[3 * W..4 * W]);
                let rows = acc.chunks_exact_mut(W).zip(cs0).zip(cs1).zip(cs2).zip(cs3);
                for ((((a, &l0), &l1), &l2), &l3) in rows {
                    for r in 0..W {
                        let t = l0.mul_add(x0[r], a[r]);
                        let t = l1.mul_add(x1[r], t);
                        let t = l2.mul_add(x2[r], t);
                        a[r] = l3.mul_add(x3[r], t);
                    }
                }
                g += 4;
            }
            while g < acols.len() {
                let jj = acols[g];
                let col = &panel[jj * nrow + w..(jj + 1) * nrow];
                let xj = &axj[g * W..(g + 1) * W];
                for (a, &l) in acc.chunks_exact_mut(W).zip(col) {
                    for r in 0..W {
                        a[r] = l.mul_add(xj[r], a[r]);
                    }
                }
                g += 1;
            }
            for (a, &row) in acc.chunks_exact(W).zip(rs) {
                let out = &mut wv[row * W..row * W + W];
                for r in 0..W {
                    out[r] -= a[r];
                }
            }
        }
    }

    /// Backward solve over `width ≤ LANES` lanes (see
    /// [`SupernodalFactor::lsolve_lanes`]); per lane the summation
    /// scheme — including the 4-partial below-rows reduction — matches
    /// [`SupernodalFactor::ltsolve_unit`] exactly.
    pub fn ltsolve_lanes(&self, wv: &mut [f64], width: usize) {
        debug_assert!((1..=LANES).contains(&width));
        match width {
            1 => self.ltsolve_lanes_w::<1>(wv),
            2 => self.ltsolve_lanes_w::<2>(wv),
            3 => self.ltsolve_lanes_w::<3>(wv),
            4 => self.ltsolve_lanes_w::<4>(wv),
            5 => self.ltsolve_lanes_w::<5>(wv),
            6 => self.ltsolve_lanes_w::<6>(wv),
            7 => self.ltsolve_lanes_w::<7>(wv),
            _ => self.ltsolve_lanes_w::<LANES>(wv),
        }
    }

    fn ltsolve_lanes_w<const W: usize>(&self, wv: &mut [f64]) {
        let p = &*self.plan;
        let mut ub = vec![0.0f64; p.max_below * W];
        for s in (0..p.nsup()).rev() {
            let c0 = p.sn_ptr[s];
            let w = p.sn_ptr[s + 1] - c0;
            let rs = &p.rows[p.rows_ptr[s]..p.rows_ptr[s + 1]];
            let b = rs.len();
            let nrow = w + b;
            let panel = &self.px[p.panel_ptr[s]..p.panel_ptr[s + 1]];
            let xb = &mut ub[..b * W];
            for (x, &row) in xb.chunks_exact_mut(W).zip(rs) {
                x.copy_from_slice(&wv[row * W..row * W + W]);
            }
            for jj in (0..w).rev() {
                let col = &panel[jj * nrow..(jj + 1) * nrow];
                let base = (c0 + jj) * W;
                let mut acc = [0.0f64; W];
                acc.copy_from_slice(&wv[base..base + W]);
                for (xr, &l) in wv[(jj + 1 + c0) * W..(c0 + w) * W]
                    .chunks_exact(W)
                    .zip(&col[jj + 1..w])
                {
                    for r in 0..W {
                        acc[r] = (-l).mul_add(xr[r], acc[r]);
                    }
                }
                // 4-partial below-rows reduction, lane-wise the same
                // association as `below_dot`. Rows are walked in groups
                // of four so each partial is addressed with a constant
                // index and stays in registers across the sweep.
                let mut part = [[0.0f64; W]; 4];
                let mut c4 = col[w..].chunks_exact(4);
                let mut x4 = xb.chunks_exact(4 * W);
                for (c, x) in (&mut c4).zip(&mut x4) {
                    for k in 0..4 {
                        let l = c[k];
                        let xr = &x[k * W..(k + 1) * W];
                        let pk = &mut part[k];
                        for r in 0..W {
                            pk[r] = l.mul_add(xr[r], pk[r]);
                        }
                    }
                }
                let ctail = c4.remainder().iter().zip(x4.remainder().chunks_exact(W));
                for (k, (&l, xr)) in ctail.enumerate() {
                    let pk = &mut part[k];
                    for r in 0..W {
                        pk[r] = l.mul_add(xr[r], pk[r]);
                    }
                }
                let out = &mut wv[base..base + W];
                for r in 0..W {
                    out[r] = acc[r] - ((part[0][r] + part[1][r]) + (part[2][r] + part[3][r]));
                }
            }
        }
    }
}

/// Inner product of a panel's below-rows column with the gathered
/// below-rows solution, summed as four stride-4 partials combined as
/// `(p0 + p1) + (p2 + p3)`, each accumulated with a fused multiply-add.
/// A single running sum would serialize one FMA-latency chain per
/// element; four independent chains keep the backward solve streaming.
/// Both the single-RHS and lane solves use this exact association (and
/// the same fused rounding), so they stay bitwise interchangeable.
#[inline]
fn below_dot(col: &[f64], xb: &[f64]) -> f64 {
    debug_assert_eq!(col.len(), xb.len());
    let mut p = [0.0f64; 4];
    let mut c4 = col.chunks_exact(4);
    let mut x4 = xb.chunks_exact(4);
    for (c, x) in (&mut c4).zip(&mut x4) {
        p[0] = c[0].mul_add(x[0], p[0]);
        p[1] = c[1].mul_add(x[1], p[1]);
        p[2] = c[2].mul_add(x[2], p[2]);
        p[3] = c[3].mul_add(x[3], p[3]);
    }
    for (k, (c, x)) in c4.remainder().iter().zip(x4.remainder()).enumerate() {
        p[k] = c.mul_add(*x, p[k]);
    }
    (p[0] + p[1]) + (p[2] + p[3])
}

/// Left-looking supernodal numeric factorization of `ap = P A Pᵀ` over a
/// prebuilt plan. Writes pivots into `d` (length `n`) and panels into
/// `fac.px`; pivot policy semantics (NaN check first, then floor or
/// strict error, indices reported through `perm`) replicate the scalar
/// kernel exactly. Serial by design: the summation order is fixed, so
/// fresh-vs-refactor results are bit-identical at any thread count.
pub(crate) fn refactor_numeric(
    ap: &CsrMat,
    perm: &[usize],
    pivot_floor: Option<f64>,
    d: &mut [f64],
    fac: &mut SupernodalFactor,
    diag: &mut FactorDiagnostics,
) -> Result<(), FactorError> {
    let plan = fac.plan.clone();
    let p = &*plan;
    let n = p.n;
    debug_assert_eq!(d.len(), n);
    let nsup = p.nsup();
    fac.px.clear();
    fac.px.resize(p.panel_values(), 0.0);
    fac.flops = 0;
    let px = &mut fac.px;
    let mut flops = 0u64;

    // Per-supernode descendant lists: head/next form intrusive linked
    // lists of descendants whose next unapplied below-rows start in the
    // list owner's columns; dptr[d] is that position in d's row list.
    let mut head = vec![usize::MAX; nsup];
    let mut next = vec![usize::MAX; nsup];
    let mut dptr = vec![0usize; nsup];
    // Global row → local panel row of the supernode being assembled.
    let mut row_pos = vec![usize::MAX; n];
    // Trapezoidal update buffer (largest descendant contribution).
    let mut ubuf = vec![0.0f64; p.max_below * p.max_width];

    for s in 0..nsup {
        let c0 = p.sn_ptr[s];
        let c1 = p.sn_ptr[s + 1];
        let w = c1 - c0;
        let rs = &p.rows[p.rows_ptr[s]..p.rows_ptr[s + 1]];
        let b = rs.len();
        let nrow = w + b;
        // Panels of descendants live strictly left of panel s.
        let (done, rest) = px.split_at_mut(p.panel_ptr[s]);
        let panel = &mut rest[..nrow * w];

        for t in 0..w {
            row_pos[c0 + t] = t;
        }
        for (r, &gi) in rs.iter().enumerate() {
            row_pos[gi] = w + r;
        }

        // Scatter the lower triangle of A's columns c0..c1 (row_iter of a
        // numerically symmetric matrix yields column entries).
        for j in c0..c1 {
            let jb = (j - c0) * nrow;
            for (i, v) in ap.row_iter(j) {
                if i < j {
                    continue;
                }
                debug_assert!(row_pos[i] != usize::MAX, "A entry outside panel rows");
                panel[jb + row_pos[i]] = v;
            }
        }

        // Apply every descendant with pending rows in [c0, c1).
        let mut dn = head[s];
        while dn != usize::MAX {
            let dn_next = next[dn];
            let dc0 = p.sn_ptr[dn];
            let dw = p.sn_ptr[dn + 1] - dc0;
            let dr = &p.rows[p.rows_ptr[dn]..p.rows_ptr[dn + 1]];
            let db = dr.len();
            let dld = dw + db;
            let k1 = dptr[dn];
            let k2 = k1 + dr[k1..].partition_point(|&r| r < c1);
            let nc = k2 - k1;
            let m = db - k1;
            debug_assert!(nc >= 1 && nc <= m);
            let dpanel = &done[p.panel_ptr[dn]..p.panel_ptr[dn + 1]];
            ldl_update_trapezoid(
                dpanel,
                dld,
                dw + k1,
                m,
                nc,
                dw,
                &d[dc0..dc0 + dw],
                &mut ubuf,
            );
            flops += 2 * (dw as u64) * ((nc * m - nc * (nc - 1) / 2) as u64);
            for c in 0..nc {
                let jcol = dr[k1 + c] - c0;
                debug_assert!(jcol < w);
                let jb = jcol * nrow;
                let cb = c * m;
                for r in c..m {
                    let lr = row_pos[dr[k1 + r]];
                    debug_assert!(lr != usize::MAX);
                    panel[jb + lr] -= ubuf[cb + r];
                }
            }
            dptr[dn] = k2;
            if k2 < db {
                let sn = p.col_to_sn[dr[k2]];
                debug_assert!(sn > s);
                next[dn] = head[sn];
                head[sn] = dn;
            }
            dn = dn_next;
        }
        head[s] = usize::MAX;

        // Dense left-looking LDLᵀ inside the panel.
        for jj in 0..w {
            let (left, cur) = panel.split_at_mut(jj * nrow);
            let colj = &mut cur[..nrow];
            for tt in 0..jj {
                let tb = tt * nrow;
                let coef = left[tb + jj] * d[c0 + tt];
                if coef == 0.0 {
                    // Padded slots are exact zeros; skipping them can only
                    // change the sign of a produced zero.
                    continue;
                }
                let colt = &left[tb..tb + nrow];
                for r in jj..nrow {
                    colj[r] -= coef * colt[r];
                }
            }
            flops += (2 * jj * (nrow - jj) + (nrow - jj)) as u64;
            let mut dj = colj[jj];
            if !dj.is_finite() {
                return Err(FactorError::NonFinitePivot {
                    step: c0 + jj,
                    index: perm[c0 + jj],
                    pivot: dj,
                });
            }
            match pivot_floor {
                Some(floor) if dj < floor => {
                    diag.perturbed.push(PerturbedPivot {
                        index: perm[c0 + jj],
                        original: dj,
                        replaced_with: floor,
                    });
                    dj = floor;
                }
                Some(_) => {}
                None => {
                    if dj <= 0.0 {
                        return Err(FactorError::NotPositiveDefinite {
                            step: c0 + jj,
                            index: perm[c0 + jj],
                            pivot: dj,
                        });
                    }
                }
            }
            d[c0 + jj] = dj;
            for r in jj + 1..nrow {
                colj[r] /= dj;
            }
        }

        // Seed this supernode into the list of whichever supernode owns
        // its first below-row.
        if b > 0 {
            dptr[s] = 0;
            let sn = p.col_to_sn[rs[0]];
            debug_assert!(sn > s);
            next[s] = head[sn];
            head[sn] = s;
        }
    }
    fac.flops = flops;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::{PivotPolicy, SparseCholesky, SymbolicCholesky};
    use crate::coo::TripletMat;

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

    /// Supernode partition invariants on the analysis of real patterns:
    /// contiguous coverage, chain property, width cap, and the documented
    /// staged relaxation bound on explicit-zero padding.
    #[test]
    fn plan_partition_properties() {
        let mut rng = crate::XorShiftRng::seed_from_u64(0x5109);
        for trial in 0..6 {
            let a = if trial % 2 == 0 {
                spd_grid(8 + trial, 9)
            } else {
                spd_random(40 + 13 * trial, &mut rng)
            };
            let sym =
                SymbolicCholesky::analyze_with_kernel(&a, crate::cholesky::CholKernel::Supernodal)
                    .unwrap();
            let ranges = sym.supernode_col_ranges();
            assert!(!ranges.is_empty());
            let lnz = sym.column_counts();
            let parent = sym.etree();
            // Contiguous partition of all columns.
            let mut expect = 0usize;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, expect, "gap before supernode at {lo}");
                assert!(hi > lo);
                expect = hi;
            }
            assert_eq!(expect, a.nrows());
            for &(lo, hi) in &ranges {
                let w = hi - lo;
                assert!(w <= MAX_PANEL_COLS);
                // Every merged column extends an etree chain.
                for j in lo + 1..hi {
                    assert_eq!(parent[j - 1], j, "non-chain column {j} merged");
                }
                // Staged relaxation bound on padding.
                let last = hi - 1;
                let slots = w * (w - 1) / 2 + w * lnz[last];
                let sum: usize = (lo..hi).map(|j| lnz[j]).sum();
                assert!(slots >= sum, "nesting violated at supernode {lo}..{hi}");
                let z = slots - sum;
                assert!(
                    w <= RELAX_ALWAYS || (w <= RELAX_MID && 10 * z <= slots) || 20 * z <= slots,
                    "padding bound violated: w={w} z={z} slots={slots}"
                );
            }
        }
    }

    /// The panel representation must agree with the scalar kernel's
    /// factorization of the same matrix to fp-roundoff (solve-level
    /// comparison; summation orders differ between kernels).
    #[test]
    fn supernodal_factor_matches_scalar_solutions() {
        let mut rng = crate::XorShiftRng::seed_from_u64(0x51f2);
        for trial in 0..4 {
            let a = if trial % 2 == 0 {
                spd_grid(10, 7 + trial)
            } else {
                spd_random(60 + 11 * trial, &mut rng)
            };
            let n = a.nrows();
            let b: Vec<f64> = (0..n).map(|i| ((i * 3 + trial) as f64).sin()).collect();
            let fs = SparseCholesky::factor_analyzed_with_kernel(
                &a,
                PivotPolicy::Error,
                crate::cholesky::CholKernel::Scalar,
            )
            .unwrap()
            .0;
            let fp = SparseCholesky::factor_analyzed_with_kernel(
                &a,
                PivotPolicy::Error,
                crate::cholesky::CholKernel::Supernodal,
            )
            .unwrap()
            .0;
            assert!(fp.is_supernodal() && !fs.is_supernodal());
            assert_eq!(fs.l_nnz(), fp.l_nnz(), "structural fill must agree");
            assert!(fp.supernode_count() > 0);
            assert!(fp.panel_flops() > 0);
            let xs = fs.solve(&b);
            let xp = fp.solve(&b);
            for i in 0..n {
                assert!(
                    (xs[i] - xp[i]).abs() <= 1e-9 * xs[i].abs().max(1.0),
                    "trial {trial} row {i}: scalar {} vs supernodal {}",
                    xs[i],
                    xp[i]
                );
            }
            // Both kernels share the same (postordered) permutation, so
            // the pivots agree to roundoff as well.
            assert_eq!(fs.permutation(), fp.permutation());
            for (ps, pp) in fs.pivots().iter().zip(fp.pivots()) {
                assert!((ps - pp).abs() <= 1e-9 * ps.abs());
            }
        }
    }
}
