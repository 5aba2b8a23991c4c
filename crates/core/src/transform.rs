//! The first congruence transform (Section 3.1 of the paper) and the
//! matrix-free `E'` operator it induces.
//!
//! With the Cholesky factor `F Fᵀ = D` (our `F` plays the paper's `L`,
//! folding in the fill-reducing permutation) and `X = D⁻¹Q`:
//!
//! ```text
//! A' = A − QᵀX                          (exact 0th moment of Y at s=0)
//! B' = B − RᵀX − (RᵀX)ᵀ + X_Sᵀ E_SS X_S  (exact 1st moment)
//! E' = F⁻¹ E F⁻ᵀ                        (never formed; applied matrix-free)
//! ```
//!
//! `S` is the set of internal nodes carrying capacitance
//! ([`Partitions::capacitive_internals`]); `E` vanishes outside `S×S`.
//! Each port column costs one sparse solve against `D`, and of `X` only
//! the `|S|×m` panel `X_S` is kept. That panel replaces the paper's
//! second solve per port: since `D` is symmetric, `QᵀD⁻¹R = XᵀR` and
//! `QᵀD⁻¹(EX) = XᵀEX`, so neither `D⁻¹R` nor `D⁻¹EX` is ever solved.
//! The rows of `R'' = Uᵀ F⁻¹ P` (`P = R − EX`) needed by the second
//! transform likewise come from one backward sweep per Ritz vector plus
//! `X_S`.

use std::cell::RefCell;
use std::ops::Range;

use pact_lanczos::SymOp;
use pact_sparse::{
    split_ranges, CsrMat, DMat, FactorError, Ordering, ParCtx, SparseCholesky, LANES,
};

use crate::partition::Partitions;

/// Result of the first congruence transform: exact moment matrices, the
/// factorization needed to run pole analysis on `E'`, and the `X_S`
/// panel the residue rows are read from.
#[derive(Clone, Debug)]
pub struct Transform1 {
    /// `A' = A − QᵀX` — the DC port conductance (0th moment), `m×m`.
    pub a1: DMat<f64>,
    /// `B' = B − RᵀX − XᵀR + XᵀEX` — the 1st moment, `m×m`.
    pub b1: DMat<f64>,
    /// Cholesky factorization of `D`.
    pub chol: SparseCholesky,
    /// Number of ports.
    pub m: usize,
    /// Number of internal nodes.
    pub n: usize,
    /// `S`, ascending (see [`Partitions::capacitive_internals`]).
    s_rows: Vec<usize>,
    /// `X_S = (D⁻¹Q)[S, :]`, row-major `|S|×m`.
    xs: Vec<f64>,
}

impl Transform1 {
    /// Runs the transform on partitioned network matrices.
    ///
    /// # Errors
    ///
    /// [`FactorError`] when `D` is not positive definite — physically, an
    /// internal node with no DC path to any port.
    pub fn compute(p: &Partitions, ordering: Ordering) -> Result<Self, FactorError> {
        Self::compute_ctx(p, ordering, &ParCtx::serial())
    }

    /// Like [`Transform1::compute`], fanning the per-port column work out
    /// across the threads of `ctx`.
    ///
    /// Ports are grouped into blocks of up to [`LANES`] columns whose
    /// boundaries depend only on the port count; each block runs one
    /// blocked multi-RHS solve `x_j = D⁻¹ q_j` and produces its `Qᵀx_j`
    /// and `Rᵀx_j` columns and its slice of `X_S` independently. The
    /// `X_Sᵀ E_SS X_S` Gram then gives every entry one fixed summation
    /// order over `S`. Every value is computed with the same instruction
    /// sequence regardless of which worker runs it, so the result is
    /// bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// See [`Transform1::compute`].
    pub fn compute_ctx(
        p: &Partitions,
        ordering: Ordering,
        ctx: &ParCtx,
    ) -> Result<Self, FactorError> {
        let chol = SparseCholesky::factor(&p.d, ordering)?;
        Ok(Self::with_factor(p, chol, ctx))
    }

    /// Runs the moment computation of the transform against an already
    /// computed Cholesky factorization of `D`.
    ///
    /// This split lets callers choose the factorization path (strict vs
    /// pivot-perturbing, see [`pact_sparse::PivotPolicy`]) and time the
    /// factor and moment phases separately; given the factor, the moment
    /// work itself cannot fail.
    pub fn with_factor(p: &Partitions, chol: SparseCholesky, ctx: &ParCtx) -> Self {
        let m = p.m;
        let n = p.n;
        let s_rows = p.capacitive_internals();
        let ns = s_rows.len();
        let mut a1 = p.a.to_dense();
        let mut b1 = p.b.to_dense();
        let mut xs = vec![0.0f64; ns * m];
        // Column-at-a-time over ports: x_j = D⁻¹ q_j. Then
        //   A'(:,j) = A(:,j) − Qᵀ x_j
        //   B'      = B − RᵀX − (RᵀX)ᵀ + X_Sᵀ E_SS X_S
        // where column j of RᵀX is Rᵀ x_j and X_S gathers x_j on S.
        if m > 0 && n > 0 {
            let qt = p.q.transpose();
            let rt = p.r.transpose();
            let blocks = split_ranges(m, m.div_ceil(LANES));
            let contribs = ctx.map_items(blocks.len(), BlockScratch::default, |s, bi| {
                port_block(p, &chol, (&qt, &rt), &s_rows, blocks[bi].clone(), s)
            });
            let mut rtx = DMat::zeros(m, m);
            for (block, (qtx, rtxb, xsb)) in blocks.iter().zip(contribs) {
                for (r, j) in block.clone().enumerate() {
                    for i in 0..m {
                        a1[(i, j)] -= qtx[r * m + i];
                        rtx[(i, j)] = rtxb[r * m + i];
                    }
                    for (row, &v) in xs.chunks_exact_mut(m).zip(&xsb[r * ns..(r + 1) * ns]) {
                        row[j] = v;
                    }
                }
            }
            let es = p.e.submatrix(&s_rows, &s_rows);
            let g = gram_upper(&xs, &es, m, ctx);
            for j in 0..m {
                for i in 0..m {
                    let gij = g[i.min(j) * m + i.max(j)];
                    b1[(i, j)] += gij - rtx[(i, j)] - rtx[(j, i)];
                }
            }
        }
        // Congruence preserves exact symmetry; scrub rounding drift so the
        // reduced model is exactly symmetric.
        a1.symmetrize();
        b1.symmetrize();
        Transform1 {
            a1,
            b1,
            chol,
            m,
            n,
            s_rows,
            xs,
        }
    }

    /// Row `i` of `X = D⁻¹Q` (length `m`) when internal node `i` is in
    /// `S`, the only rows the transform keeps.
    pub(crate) fn x_row(&self, i: usize) -> Option<&[f64]> {
        let k = self.s_rows.binary_search(&i).ok()?;
        Some(&self.xs[k * self.m..(k + 1) * self.m])
    }

    /// Column `j` of `P = R − E·D⁻¹Q` (length `n`), from `rt = Rᵀ` and
    /// `X_S` alone — `E·X` vanishes outside `S`. Each entry sums its `E`
    /// row in storage order, as [`CsrMat::matvec_into`] does.
    pub(crate) fn p_column(&self, p: &Partitions, rt: &CsrMat, j: usize) -> Vec<f64> {
        let mut col = vec![0.0f64; self.n];
        for (i, v) in rt.row_iter(j) {
            col[i] = v;
        }
        for &i in &self.s_rows {
            let mut ex = 0.0;
            for (t, e) in p.e.row_iter(i) {
                ex += e * self.x_row(t).map_or(0.0, |x| x[j]);
            }
            col[i] -= ex;
        }
        col
    }

    /// Bytes held by the `X_S` panel (`|S|·m·8`).
    pub(crate) fn x_s_bytes(&self) -> usize {
        self.xs.len() * std::mem::size_of::<f64>()
    }

    /// The row block `R''` of the transformed connection susceptance for a
    /// set of Ritz vectors `U = [u_1 … u_k]` of `E'`:
    /// `R''[i, :] = u_iᵀ F⁻¹ P` with `P = R − E D⁻¹ Q`, computed from the
    /// sparse `R`, `E` and the kept panel `X_S` without forming `P`:
    ///
    /// ```text
    /// v_i = F⁻ᵀ u_i
    /// R''[i, :] = Rᵀ v_i − X_Sᵀ (E_SS v_i,S)
    /// ```
    pub fn r2_rows(&self, p: &Partitions, ritz_vectors: &[Vec<f64>]) -> DMat<f64> {
        self.r2_rows_ctx(p, ritz_vectors, &ParCtx::serial())
    }

    /// Like [`Transform1::r2_rows`], fanning blocks of up to [`LANES`]
    /// Ritz vectors (one blocked backward sweep each, bit-identical per
    /// lane to the single-vector sweep) out across the threads of `ctx`.
    /// Block boundaries depend only on the vector count and rows are
    /// written back in Ritz order — results are bit-identical for every
    /// thread count.
    pub fn r2_rows_ctx(
        &self,
        p: &Partitions,
        ritz_vectors: &[Vec<f64>],
        ctx: &ParCtx,
    ) -> DMat<f64> {
        let k = ritz_vectors.len();
        let m = self.m;
        let n = self.n;
        let mut r2 = DMat::zeros(k, m);
        if k == 0 || m == 0 {
            return r2;
        }
        let blocks = split_ranges(k, k.div_ceil(LANES));
        let rows = ctx.map_items(blocks.len(), R2Scratch::default, |s, bi| {
            let block = blocks[bi].clone();
            let w = block.len();
            s.u.clear();
            for u in &ritz_vectors[block] {
                s.u.extend_from_slice(u);
            }
            s.v.resize(n * w, 0.0);
            self.chol.ftsolve_block_into(&s.u, w, &mut s.v, &mut s.work);
            let mut out = vec![0.0f64; w * m];
            s.exs.resize(m, 0.0);
            for (v, row) in s.v.chunks_exact(n).zip(out.chunks_exact_mut(m)) {
                // X_Sᵀ (E v): (E v) vanishes outside S.
                s.exs.fill(0.0);
                for (&i, xi) in self.s_rows.iter().zip(self.xs.chunks_exact(m)) {
                    let ev: f64 = p.e.row_iter(i).map(|(j, e)| e * v[j]).sum();
                    for (o, x) in s.exs.iter_mut().zip(xi) {
                        *o = ev.mul_add(*x, *o);
                    }
                }
                p.r.matvec_t_into(v, row);
                for (o, x) in row.iter_mut().zip(&s.exs) {
                    *o -= x;
                }
            }
            out
        });
        for (block, vals) in blocks.iter().zip(rows) {
            for (i, row) in block.clone().zip(vals.chunks_exact(m)) {
                for (j, &val) in row.iter().enumerate() {
                    r2[(i, j)] = val;
                }
            }
        }
        r2
    }

    /// The matrix-free operator `E' = F⁻¹ E F⁻ᵀ` for the Lanczos solver.
    pub fn e_prime_operator<'a>(&'a self, p: &'a Partitions) -> EPrimeOp<'a> {
        self.e_prime_operator_ctx(p, ParCtx::serial())
    }

    /// Like [`Transform1::e_prime_operator`], with the inner `E v`
    /// product row-partitioned across the threads of `ctx`.
    pub fn e_prime_operator_ctx<'a>(&'a self, p: &'a Partitions, ctx: ParCtx) -> EPrimeOp<'a> {
        let n = self.n;
        EPrimeOp {
            chol: &self.chol,
            e: &p.e,
            scratch: RefCell::new(EPrimeScratch {
                v: vec![0.0; n],
                w: vec![0.0; n],
                work: Vec::new(),
            }),
            ctx,
        }
    }

    /// Materializes `E'` as a dense matrix — `O(n²)` memory, intended for
    /// small networks and as the dense-eigendecomposition path.
    pub fn e_prime_dense(&self, p: &Partitions) -> DMat<f64> {
        self.e_prime_dense_ctx(p, &ParCtx::serial())
    }

    /// Like [`Transform1::e_prime_dense`], with the columns partitioned
    /// across the threads of `ctx` (each column is one `E'` application,
    /// so values never depend on the partition).
    pub fn e_prime_dense_ctx(&self, p: &Partitions, ctx: &ParCtx) -> DMat<f64> {
        let n = self.n;
        let mut out = DMat::zeros(n, n);
        if n == 0 {
            return out;
        }
        ctx.for_each_chunk_mut(out.as_mut_slice(), n, |cols, chunk| {
            // The operator's scratch sits in a RefCell (not Sync), so
            // each worker builds its own serial instance.
            let op = self.e_prime_operator(p);
            let mut e = vec![0.0; n];
            for (k, j) in cols.enumerate() {
                e.iter_mut().for_each(|v| *v = 0.0);
                e[j] = 1.0;
                op.apply(&e, &mut chunk[k * n..(k + 1) * n]);
            }
        });
        // Symmetric by construction up to rounding.
        out.symmetrize();
        out
    }
}

/// Bytes of lane scratch one worker holds in the widest phase of a flat
/// reduction, on `n` internal nodes. The moment phase's [`BlockScratch`]
/// (right-hand sides, solutions, blocked-solve workspace), the
/// projection's [`R2Scratch`] and the [`EPrimeOp`] panels are each three
/// `n×LANES` panels, so one such set per worker covers them all.
pub(crate) fn lane_scratch_bytes(n: usize) -> usize {
    3 * LANES * n * std::mem::size_of::<f64>()
}

/// Per-worker scratch of the port-block fan-out in
/// [`Transform1::with_factor`]: right-hand-side/solution panels
/// (column-major `n×w`) and the blocked-solve workspace.
#[derive(Default)]
struct BlockScratch {
    rhs: Vec<f64>,
    x: Vec<f64>,
    work: Vec<f64>,
}

/// Solves one port block `x_j = D⁻¹ q_j` and returns, column-major per
/// port `j = ports.start + r`: `Qᵀx_j` (subtracted from `A'(:, j)`),
/// `Rᵀx_j` (column `j` of `RᵀX`), and `x_j` gathered on `S`. `qt`/`rt`
/// are `Qᵀ`/`Rᵀ`, so each product touches only the nonzeros of `Q`/`R`.
fn port_block(
    p: &Partitions,
    chol: &SparseCholesky,
    (qt, rt): (&CsrMat, &CsrMat),
    s_rows: &[usize],
    ports: Range<usize>,
    s: &mut BlockScratch,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = p.n;
    let m = p.m;
    let w = ports.len();
    for buf in [&mut s.rhs, &mut s.x] {
        buf.clear();
        buf.resize(n * w, 0.0);
    }

    // Row j of Qᵀ is column j of Q.
    for (r, j) in ports.enumerate() {
        for (i, v) in qt.row_iter(j) {
            s.rhs[r * n + i] = v;
        }
    }
    chol.solve_block_into(&s.rhs, w, &mut s.x, &mut s.work);

    // Row i of Mᵀ dotted with x, ascending in the row index of M — the
    // summation order of `M.matvec_t_into(x)`, so values are the same.
    let dot_t = |mt: &CsrMat, i: usize, x: &[f64]| {
        let mut acc = 0.0;
        for (t, v) in mt.row_iter(i) {
            acc += v * x[t];
        }
        acc
    };
    let mut qtx = vec![0.0; m * w];
    let mut rtx = vec![0.0; m * w];
    let mut xs = Vec::with_capacity(s_rows.len() * w);
    for (r, x) in s.x.chunks_exact(n).enumerate() {
        for i in 0..m {
            qtx[r * m + i] = dot_t(qt, i, x);
            rtx[r * m + i] = dot_t(rt, i, x);
        }
        xs.extend(s_rows.iter().map(|&i| x[i]));
    }
    (qtx, rtx, xs)
}

/// Output tile of the [`gram_panels`] kernel: `GI` rows by `GJ` columns.
const GI: usize = 4;
const GJ: usize = 8;
/// Rows of `S` per cache block of [`gram_panels`] (two `GKC×m` panels
/// stay in L2 while every tile sweeps them).
const GKC: usize = 128;

/// The upper triangle (`j ≥ i`) of `X_Sᵀ E_SS X_S`, row-major `m×m`
/// (entries below the diagonal stay zero), for the row-major
/// `|S|×m` panel `xs` and `es = E_SS`.
///
/// Every entry is one fused multiply-add chain over `S` in ascending
/// order, `G[i, j] = Σ_s X_S[s, i]·(E_SS X_S)[s, j]`; the `GI×GJ`
/// register tiles, the `GKC`-row cache blocks and the worker split only
/// decide *when* each link of a chain runs, never its order. The result
/// is therefore the same at every thread count.
fn gram_upper(xs: &[f64], es: &CsrMat, m: usize, ctx: &ParCtx) -> Vec<f64> {
    let mut g = vec![0.0f64; m * m];
    if es.nrows() == 0 {
        return g;
    }
    let mp = m.next_multiple_of(GJ);
    let panels = mp / GI;
    // Interleaved panel groups: row panels near the top of the triangle
    // carry more tiles, so striding balances the workers.
    let groups = ctx.threads().min(panels);
    let parts = ctx.map_items(
        groups,
        || (),
        |_, grp| {
            let mine: Vec<usize> = (grp..panels).step_by(groups).collect();
            let out = gram_panels(xs, es, m, &mine);
            (mine, out)
        },
    );
    for (mine, out) in parts {
        for (k, pnl) in mine.into_iter().enumerate() {
            for a in 0..GI {
                let i = pnl * GI + a;
                if i < m {
                    let src = &out[(k * GI + a) * mp..(k * GI + a) * mp + m];
                    g[i * m + i..(i + 1) * m].copy_from_slice(&src[i..]);
                }
            }
        }
    }
    g
}

/// The `GI`-row panels `panels` of [`gram_upper`]'s triangle, each
/// `GI×mp` row-major with `mp = m` rounded up to a multiple of `GJ`
/// (the padding columns of `X_S` and `E_SS X_S` are zero, so every tile
/// is whole). Sweeps `S` in `GKC`-row blocks, forming each block of
/// `E_SS X_S` on the fly.
fn gram_panels(xs: &[f64], es: &CsrMat, m: usize, panels: &[usize]) -> Vec<f64> {
    let ns = es.nrows();
    let mp = m.next_multiple_of(GJ);
    let mut out = vec![0.0f64; panels.len() * GI * mp];
    let mut xc = vec![0.0f64; GKC * mp];
    let mut yc = vec![0.0f64; GKC * mp];
    for c0 in (0..ns).step_by(GKC) {
        let rows = (ns - c0).min(GKC);
        for r in 0..rows {
            let s = c0 + r;
            xc[r * mp..r * mp + m].copy_from_slice(&xs[s * m..(s + 1) * m]);
            let y = &mut yc[r * mp..r * mp + m];
            y.fill(0.0);
            for (t, e) in es.row_iter(s) {
                for (o, x) in y.iter_mut().zip(&xs[t * m..(t + 1) * m]) {
                    *o = e.mul_add(*x, *o);
                }
            }
        }
        for (k, &pnl) in panels.iter().enumerate() {
            let i0 = pnl * GI;
            let gp = &mut out[k * GI * mp..(k + 1) * GI * mp];
            for j0 in (i0 / GJ * GJ..mp).step_by(GJ) {
                let mut acc = [[0.0f64; GJ]; GI];
                for (a, row) in acc.iter_mut().enumerate() {
                    row.copy_from_slice(&gp[a * mp + j0..a * mp + j0 + GJ]);
                }
                let rows_x = xc.chunks_exact(mp).take(rows);
                for (xr, yr) in rows_x.zip(yc.chunks_exact(mp)) {
                    let x = &xr[i0..i0 + GI];
                    let y = &yr[j0..j0 + GJ];
                    for (row, &xa) in acc.iter_mut().zip(x) {
                        for (o, &yb) in row.iter_mut().zip(y) {
                            *o = xa.mul_add(yb, *o);
                        }
                    }
                }
                for (a, row) in acc.iter().enumerate() {
                    gp[a * mp + j0..a * mp + j0 + GJ].copy_from_slice(row);
                }
            }
        }
    }
    out
}

/// Per-worker scratch of [`Transform1::r2_rows_ctx`]: the Ritz block
/// (column-major `n×w`), its backward-sweep image, the sweep workspace,
/// and the `X_Sᵀ(E v)` accumulator.
#[derive(Default)]
struct R2Scratch {
    u: Vec<f64>,
    v: Vec<f64>,
    work: Vec<f64>,
    exs: Vec<f64>,
}

/// Matrix-free symmetric operator `x ↦ F⁻¹ E (F⁻ᵀ x)`.
///
/// Carries its solve panels behind a `RefCell` (since [`SymOp::apply`]
/// takes `&self`), so repeated applications — the inner loop of the
/// Lanczos iteration — allocate nothing once the panels have grown to
/// [`LANES`] columns. The `RefCell` makes the operator `!Sync`; parallel
/// callers construct one instance per worker.
#[derive(Clone, Debug)]
pub struct EPrimeOp<'a> {
    chol: &'a SparseCholesky,
    e: &'a CsrMat,
    scratch: RefCell<EPrimeScratch>,
    ctx: ParCtx,
}

/// `v = F⁻ᵀ x` and `w = E v` panels (column-major, at least `n` long)
/// plus the triangular solves' workspace.
#[derive(Clone, Debug)]
struct EPrimeScratch {
    v: Vec<f64>,
    w: Vec<f64>,
    work: Vec<f64>,
}

impl SymOp for EPrimeOp<'_> {
    fn dim(&self) -> usize {
        self.e.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.e.nrows();
        let s = &mut *self.scratch.borrow_mut();
        // v = F⁻ᵀ x, then w = E v, then y = F⁻¹ w computed in place in y.
        self.chol.ftsolve_into(x, &mut s.v[..n], &mut s.work);
        self.e.matvec_into_ctx(&s.v[..n], &mut s.w[..n], &self.ctx);
        self.chol.fsolve_into(&s.w[..n], y);
    }
    /// Groups of up to [`LANES`] columns, each through one blocked
    /// backward sweep, `E` per column, and one blocked forward sweep, so
    /// the factor is read once per group. The lane solves are
    /// bit-identical per lane to the single-vector solves (up to the
    /// sign of a zero), so every column equals [`SymOp::apply`] of it.
    fn apply_block(&self, x: &[f64], k: usize, y: &mut [f64]) {
        let n = self.e.nrows();
        assert_eq!(x.len(), n * k);
        assert_eq!(y.len(), n * k);
        if n == 0 {
            return;
        }
        let s = &mut *self.scratch.borrow_mut();
        for (xg, yg) in x.chunks(n * LANES).zip(y.chunks_mut(n * LANES)) {
            let g = xg.len() / n;
            if s.v.len() < n * g {
                s.v.resize(n * g, 0.0);
                s.w.resize(n * g, 0.0);
            }
            let (v, w) = (&mut s.v[..n * g], &mut s.w[..n * g]);
            self.chol.ftsolve_block_into(xg, g, v, &mut s.work);
            for (vc, wc) in v.chunks_exact(n).zip(w.chunks_exact_mut(n)) {
                self.e.matvec_into_ctx(vc, wc, &self.ctx);
            }
            self.chol.fsolve_block_into(w, g, yg, &mut s.work);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::{extract_rc, parse, Stamped};
    use pact_sparse::sym_eig;

    fn ladder(nseg: usize) -> (Stamped, Partitions) {
        // nseg-segment RC line between two ports.
        let mut deck = String::from("* ladder\nV1 p0 0 1\nRld pN 0 1k\nIprobe pN 0 0\n");
        let rseg = 250.0 / nseg as f64;
        let cseg = 1.35e-12 / nseg as f64;
        for i in 0..nseg {
            let a = if i == 0 {
                "p0".to_owned()
            } else {
                format!("n{i}")
            };
            let b = if i == nseg - 1 {
                "pN".to_owned()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!("R{i} {a} {b} {rseg}\n"));
            deck.push_str(&format!("C{i} {b} 0 {cseg}\n"));
        }
        deck.push_str(".end\n");
        let nl = parse(&deck).unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let st = ex.network.stamp();
        let p = Partitions::split(&st);
        (st, p)
    }

    #[test]
    fn moments_match_direct_computation() {
        // A' must equal A − QᵀD⁻¹Q computed densely.
        let (_, p) = ladder(6);
        let t1 = Transform1::compute(&p, Ordering::Rcm).unwrap();
        let dd = p.d.to_dense();
        let dinv = pact_sparse::invert(&dd).unwrap();
        let qd = p.q.to_dense();
        let rd = p.r.to_dense();
        let x = dinv.matmul(&qd);
        let a1_direct = &p.a.to_dense() - &qd.transpose().matmul(&x);
        assert!((&t1.a1 - &a1_direct).norm_max() < 1e-12);
        // B' = B − RᵀX − XᵀR + XᵀEX
        let ed = p.e.to_dense();
        let b1_direct = {
            let rtx = rd.transpose().matmul(&x);
            let xtr = x.transpose().matmul(&rd);
            let xtex = x.transpose().matmul(&ed.matmul(&x));
            let mut b = p.b.to_dense();
            b = &(&b - &rtx) - &xtr;
            &b + &xtex
        };
        assert!(
            (&t1.b1 - &b1_direct).norm_max() < 1e-20,
            "B' mismatch {:e}",
            (&t1.b1 - &b1_direct).norm_max()
        );
    }

    #[test]
    fn e_prime_spectrum_matches_pencil() {
        // Eigenvalues of E' equal generalized eigenvalues of (E, D).
        let (_, p) = ladder(5);
        let t1 = Transform1::compute(&p, Ordering::MinDegree).unwrap();
        let ep = t1.e_prime_dense(&p);
        let eig = sym_eig(&ep).unwrap();
        // Direct: solve det(E - λD) = 0 via dense D^{-1}E spectrum
        // (similar matrix D^{-1/2} E D^{-1/2} shares eigenvalues with E').
        let dd = p.d.to_dense();
        let ed = p.e.to_dense();
        let dinv = pact_sparse::invert(&dd).unwrap();
        let m = dinv.matmul(&ed);
        // Eigenvalues of (non-symmetric) D⁻¹E match E' spectrum; compare
        // via traces of powers which are basis independent.
        let tr1: f64 = m.diag().iter().sum();
        let tr1_e: f64 = eig.values.iter().sum();
        assert!((tr1 - tr1_e).abs() < 1e-10 * tr1.abs().max(1e-30));
        let m2 = m.matmul(&m);
        let tr2: f64 = m2.diag().iter().sum();
        let tr2_e: f64 = eig.values.iter().map(|v| v * v).sum();
        assert!((tr2 - tr2_e).abs() < 1e-10 * tr2.abs().max(1e-30));
    }

    #[test]
    fn e_prime_operator_matches_dense() {
        let (_, p) = ladder(7);
        let t1 = Transform1::compute(&p, Ordering::Rcm).unwrap();
        let dense = t1.e_prime_dense(&p);
        let op = t1.e_prime_operator(&p);
        let n = p.n;
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        let yd = dense.matvec(&x);
        for (a, b) in y.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn e_prime_is_nonnegative_definite() {
        let (_, p) = ladder(8);
        let t1 = Transform1::compute(&p, Ordering::Rcm).unwrap();
        let ep = t1.e_prime_dense(&p);
        let eig = sym_eig(&ep).unwrap();
        for &v in &eig.values {
            assert!(v >= -1e-14, "negative eigenvalue {v}");
        }
    }

    #[test]
    fn r2_rows_match_direct() {
        let (_, p) = ladder(5);
        let t1 = Transform1::compute(&p, Ordering::Natural).unwrap();
        let ep = t1.e_prime_dense(&p);
        let eig = sym_eig(&ep).unwrap();
        let n = p.n;
        // Use the top 2 eigenvectors as "Ritz vectors".
        let vecs: Vec<Vec<f64>> = (n - 2..n)
            .map(|k| (0..n).map(|i| eig.vectors[(i, k)]).collect())
            .collect();
        let r2 = t1.r2_rows(&p, &vecs);
        // Direct: R'' = Uᵀ F⁻¹ P with P = R − E D⁻¹ Q (all dense).
        let dd = p.d.to_dense();
        let dinv = pact_sparse::invert(&dd).unwrap();
        let pmat = {
            let x = dinv.matmul(&p.q.to_dense());
            &p.r.to_dense() - &p.e.to_dense().matmul(&x)
        };
        for (i, u) in vecs.iter().enumerate() {
            // u^T F^{-1} P  = (F^{-T} u)^T P
            let v = t1.chol.ftsolve(u);
            let expect = pmat.matvec_t(&v);
            for j in 0..p.m {
                assert!(
                    (r2[(i, j)] - expect[j]).abs() < 1e-12 * expect[j].abs().max(1e-15),
                    "R'' mismatch at ({i},{j})"
                );
            }
        }
    }

    /// Three ports, eight internal nodes, with port–port (`p0–p2`),
    /// port–internal (`p0–i1`, `p2–i5`) and internal–internal
    /// (`i2–i3`, `i4–i6`) coupling capacitors, and one internal node
    /// (`i7`) with no capacitance. `with_caps = false` keeps only the
    /// resistors: `E`, `R` and `B` vanish and `S` is empty.
    fn coupled(with_caps: bool) -> Partitions {
        let (p0, p1, p2) = (0, 1, 2);
        let i = |k: usize| 3 + k;
        let br = |a: usize, b: Option<usize>, value: f64| pact_netlist::Branch {
            a: Some(a),
            b,
            value,
        };
        let resistors = vec![
            br(p0, Some(i(0)), 120.0),
            br(i(0), Some(i(1)), 250.0),
            br(i(1), Some(i(2)), 310.0),
            br(i(2), Some(i(3)), 180.0),
            br(i(3), Some(p1), 90.0),
            br(i(3), Some(i(4)), 420.0),
            br(i(4), Some(i(5)), 260.0),
            br(i(5), Some(i(6)), 150.0),
            br(i(6), Some(p2), 75.0),
            br(i(1), Some(i(5)), 900.0),
            br(i(2), Some(i(6)), 640.0),
            br(i(4), Some(i(7)), 330.0),
            br(i(7), Some(i(6)), 210.0),
            br(i(0), None, 5e3),
        ];
        let capacitors = if with_caps {
            vec![
                br(i(0), None, 1.0e-13),
                br(i(1), None, 2.0e-13),
                br(i(3), None, 1.5e-13),
                br(i(5), None, 0.8e-13),
                br(i(6), None, 0.5e-13),
                br(p1, None, 1.0e-13),
                br(p0, Some(i(1)), 0.3e-13),
                br(p2, Some(i(5)), 0.4e-13),
                br(i(2), Some(i(3)), 0.6e-13),
                br(i(4), Some(i(6)), 0.2e-13),
                br(p0, Some(p2), 0.1e-13),
            ]
        } else {
            Vec::new()
        };
        let mut node_names: Vec<String> = (0..3).map(|k| format!("p{k}")).collect();
        node_names.extend((0..8).map(|k| format!("i{k}")));
        let net = pact_netlist::RcNetwork {
            node_names,
            num_ports: 3,
            resistors,
            capacitors,
        };
        let p = Partitions::split(&net.stamp());
        assert_eq!(p.r.nnz() > 0, with_caps, "R ≠ 0 exactly with the caps");
        p
    }

    /// `max|got − want| ≤ 1e-12·max|want|` (exact equality when `want`
    /// is zero). Matrix-wide because some entries of the coupled fixture
    /// nearly cancel, which a per-entry relative bound cannot judge.
    fn assert_close(got: &DMat<f64>, want: &DMat<f64>, what: &str) {
        let diff = (got - want).norm_max();
        assert!(
            diff <= 1e-12 * want.norm_max(),
            "{what}: max diff {diff:e} against scale {:e}",
            want.norm_max()
        );
    }

    #[test]
    fn moments_match_direct_computation_with_coupling() {
        // The ladder has R = 0 and a diagonal E; the coupled network
        // exercises RᵀX, an off-diagonal E_SS and a node outside S, and
        // its capacitance-free twin an empty S.
        for (name, p) in [("coupled", coupled(true)), ("no caps", coupled(false))] {
            let t1 = Transform1::compute(&p, Ordering::Rcm).unwrap();
            let dinv = pact_sparse::invert(&p.d.to_dense()).unwrap();
            let (qd, rd, ed) = (p.q.to_dense(), p.r.to_dense(), p.e.to_dense());
            let x = dinv.matmul(&qd);
            let a1 = &p.a.to_dense() - &qd.transpose().matmul(&x);
            let rtx = rd.transpose().matmul(&x);
            let b1 = &(&(&p.b.to_dense() - &rtx) - &rtx.transpose())
                + &x.transpose().matmul(&ed.matmul(&x));
            assert_close(&t1.a1, &a1, &format!("{name}: A'"));
            assert_close(&t1.b1, &b1, &format!("{name}: B'"));
        }
    }

    #[test]
    fn r2_rows_match_direct_with_coupling() {
        // R'' = Uᵀ F⁻¹ P with P = R − E D⁻¹ Q (dense), for every
        // eigenvector of E' in descending order (with no capacitance,
        // E' = 0 and these are unit vectors).
        for (name, p) in [("coupled", coupled(true)), ("no caps", coupled(false))] {
            let t1 = Transform1::compute(&p, Ordering::Natural).unwrap();
            let n = p.n;
            let eig = sym_eig(&t1.e_prime_dense(&p)).unwrap();
            let vecs: Vec<Vec<f64>> = (0..n)
                .rev()
                .map(|k| (0..n).map(|i| eig.vectors[(i, k)]).collect())
                .collect();
            let r2 = t1.r2_rows(&p, &vecs);
            let dinv = pact_sparse::invert(&p.d.to_dense()).unwrap();
            let x = dinv.matmul(&p.q.to_dense());
            let pmat = &p.r.to_dense() - &p.e.to_dense().matmul(&x);
            // u^T F^{-1} P = (F^{-T} u)^T P
            let expect = DMat::from_fn(n, p.m, |i, j| pmat.matvec_t(&t1.chol.ftsolve(&vecs[i]))[j]);
            assert_close(&r2, &expect, &format!("{name}: R''"));
        }
    }

    /// A 7×7 resistor mesh whose first two nodes are ports, with a
    /// grounded capacitor on every third node: `n = 47`, a multiple of
    /// no block width above one.
    fn mesh() -> Partitions {
        let (nx, ny) = (7, 7);
        let br = |a: usize, b: Option<usize>, value: f64| pact_netlist::Branch {
            a: Some(a),
            b,
            value,
        };
        let mut resistors = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                let v = y * nx + x;
                if x + 1 < nx {
                    resistors.push(br(v, Some(v + 1), 100.0 + v as f64));
                }
                if y + 1 < ny {
                    resistors.push(br(v, Some(v + nx), 150.0 + 2.0 * v as f64));
                }
            }
        }
        let capacitors = (0..nx * ny)
            .step_by(3)
            .map(|v| br(v, None, 1e-13 * (1.0 + (v % 5) as f64)))
            .collect();
        let net = pact_netlist::RcNetwork {
            node_names: (0..nx * ny).map(|v| format!("v{v}")).collect(),
            num_ports: 2,
            resistors,
            capacitors,
        };
        Partitions::split(&net.stamp())
    }

    #[test]
    fn e_prime_block_apply_equals_apply_lane_by_lane() {
        let p = mesh();
        let n = p.n;
        assert_eq!(n, 47);
        let t1 = Transform1::compute(&p, Ordering::NestedDissection).unwrap();
        let op = t1.e_prime_operator(&p);
        // Widths past LANES take a second group.
        for k in 1..=LANES + 2 {
            let x: Vec<f64> = (0..n * k)
                .map(|i| ((i * 7919) % 23) as f64 - 11.0)
                .collect();
            let mut y = vec![0.0; n * k];
            op.apply_block(&x, k, &mut y);
            for c in 0..k {
                let mut yc = vec![0.0; n];
                op.apply(&x[c * n..(c + 1) * n], &mut yc);
                assert!(
                    y[c * n..(c + 1) * n] == yc[..],
                    "width {k}: lane {c} differs from apply"
                );
            }
        }
    }

    #[test]
    fn floating_internal_node_is_error() {
        // An internal node connected only through capacitors has no DC
        // path: D is singular.
        let nl = parse("* float\nV1 p 0 1\nR1 p a 100\nC1 a b 1p\nC2 b 0 1p\nM1 x p 0 0 n\n.model n nmos()\n.end\n").unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let st = ex.network.stamp();
        let p = Partitions::split(&st);
        assert!(Transform1::compute(&p, Ordering::Rcm).is_err());
    }
}
