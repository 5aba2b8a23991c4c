//! Compressed sparse row matrices.
//!
//! For the symmetric matrices of RC networks, CSR and CSC coincide, so one
//! format serves matrix–vector products, submatrix extraction (network
//! partitioning), permutation, and conversion into the factorization
//! routines.

use std::fmt;

use crate::dense::DMat;

/// Below this nonzero count a parallel `matvec` is not worth the spawn
/// overhead (scheduling only — per-row values are partition-independent).
const PAR_MATVEC_MIN_NNZ: usize = 1 << 14;

/// A compressed-sparse-row matrix of `f64`.
///
/// Invariants: `indptr.len() == nrows + 1`, column indices within each row
/// are strictly increasing, and no explicit zeros are stored by the
/// constructors in this crate.
///
/// ```
/// use pact_sparse::{TripletMat, CsrMat};
/// let mut t = TripletMat::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(1, 0, -1.0);
/// let m: CsrMat = t.to_csr();
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![2.0, -1.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMat {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
    /// Fingerprint of `(nrows, ncols, indptr, indices)`, computed once at
    /// construction so pattern-identity checks are O(1). Equal patterns
    /// always hash equal; a hash match is *almost certainly* a pattern
    /// match (64-bit FNV — collision odds are negligible, and the
    /// factorization caches verify exactly in debug builds).
    pattern_key: u64,
}

/// Word-at-a-time FNV-1a over the structural arrays of a CSR pattern.
///
/// The dimensions and array lengths are folded in first so patterns that
/// differ only in shape or concatenation boundaries cannot collide
/// trivially.
fn pattern_fingerprint(nrows: usize, ncols: usize, indptr: &[usize], indices: &[usize]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let eat = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    h = eat(h, nrows as u64);
    h = eat(h, ncols as u64);
    h = eat(h, indptr.len() as u64);
    h = eat(h, indices.len() as u64);
    for &w in indptr {
        h = eat(h, w as u64);
    }
    for &w in indices {
        h = eat(h, w as u64);
    }
    h
}

impl CsrMat {
    /// Internal constructor: every path that assembles raw CSR arrays goes
    /// through here so the pattern fingerprint is always populated.
    fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        let pattern_key = pattern_fingerprint(nrows, ncols, &indptr, &indices);
        CsrMat {
            nrows,
            ncols,
            indptr,
            indices,
            data,
            pattern_key,
        }
    }

    /// An `nrows × ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self::from_parts(nrows, ncols, vec![0; nrows + 1], Vec::new(), Vec::new())
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self::from_parts(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are structurally inconsistent (wrong lengths,
    /// non-monotone `indptr`, unsorted or out-of-range column indices).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length");
        assert_eq!(indices.len(), data.len(), "indices/data length");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr tail");
        for i in 0..nrows {
            assert!(indptr[i] <= indptr[i + 1], "indptr monotonicity");
            let row = &indices[indptr[i]..indptr[i + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "unsorted columns in row {i}");
            }
            if let Some(&last) = row.last() {
                assert!(last < ncols, "column index out of range in row {i}");
            }
        }
        Self::from_parts(nrows, ncols, indptr, indices, data)
    }

    /// Builds from parallel triplet arrays, summing duplicates and dropping
    /// entries that cancel to exactly zero.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[usize],
        cols: &[usize],
        vals: &[f64],
    ) -> Self {
        assert_eq!(rows.len(), cols.len());
        assert_eq!(rows.len(), vals.len());
        // Count entries per row, prefix-sum, scatter, then sort+dedup rows.
        let mut counts = vec![0usize; nrows];
        for &r in rows {
            counts[r] += 1;
        }
        let mut indptr = vec![0usize; nrows + 1];
        for i in 0..nrows {
            indptr[i + 1] = indptr[i] + counts[i];
        }
        let total = indptr[nrows];
        let mut icol = vec![0usize; total];
        let mut ival = vec![0f64; total];
        let mut next = indptr.clone();
        for k in 0..rows.len() {
            let p = next[rows[k]];
            icol[p] = cols[k];
            ival[p] = vals[k];
            next[rows[k]] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut out_indptr = vec![0usize; nrows + 1];
        let mut out_icol = Vec::with_capacity(total);
        let mut out_val = Vec::with_capacity(total);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for i in 0..nrows {
            scratch.clear();
            for p in indptr[i]..indptr[i + 1] {
                scratch.push((icol[p], ival[p]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < scratch.len() {
                let c = scratch[k].0;
                let mut v = 0.0;
                while k < scratch.len() && scratch[k].0 == c {
                    v += scratch[k].1;
                    k += 1;
                }
                if v != 0.0 {
                    out_icol.push(c);
                    out_val.push(v);
                }
            }
            out_indptr[i + 1] = out_icol.len();
        }
        Self::from_parts(nrows, ncols, out_indptr, out_icol, out_val)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column-index array.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Value array, parallel to [`CsrMat::indices`].
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// O(1) fingerprint of the sparsity pattern (shape + `indptr` +
    /// `indices`, values excluded), precomputed at construction.
    ///
    /// Two matrices with the same pattern always report the same key;
    /// matrices with different patterns collide with probability ~2⁻⁶⁴.
    /// Symbolic-factorization caches use this to verify cache hits in
    /// O(1) instead of re-walking the full index arrays.
    #[inline]
    pub fn pattern_key(&self) -> u64 {
        self.pattern_key
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.indptr[i]..self.indptr[i + 1];
        self.indices[r.clone()]
            .iter()
            .copied()
            .zip(self.data[r].iter().copied())
    }

    /// Value at `(i, j)`, 0 when not stored. O(log nnz(row)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let row = &self.indices[self.indptr[i]..self.indptr[i + 1]];
        match row.binary_search(&j) {
            Ok(p) => self.data[self.indptr[i] + p],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-provided buffer (hot path of the
    /// Lanczos iteration — avoids per-iteration allocation).
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.nrows, "output dimension mismatch");
        for i in 0..self.nrows {
            let mut acc = 0.0;
            for p in self.indptr[i]..self.indptr[i + 1] {
                acc += self.data[p] * x[self.indices[p]];
            }
            y[i] = acc;
        }
    }

    /// Transposed product `y = Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.ncols];
        for i in 0..self.nrows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for p in self.indptr[i]..self.indptr[i + 1] {
                y[self.indices[p]] += self.data[p] * xi;
            }
        }
        y
    }

    /// Transposed product into a caller-provided buffer.
    pub fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.ncols, "output dimension mismatch");
        y.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..self.nrows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for p in self.indptr[i]..self.indptr[i + 1] {
                y[self.indices[p]] += self.data[p] * xi;
            }
        }
    }

    /// Row-partitioned parallel [`CsrMat::matvec_into`].
    ///
    /// Each worker computes a contiguous range of output rows with the
    /// serial per-row loop, so the result is bit-identical to the serial
    /// product for every thread count (each `y[i]` never depends on the
    /// partition).
    pub fn matvec_into_ctx(&self, x: &[f64], y: &mut [f64], ctx: &crate::ParCtx) {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.nrows, "output dimension mismatch");
        if ctx.threads() == 1 || self.nnz() < PAR_MATVEC_MIN_NNZ {
            self.matvec_into(x, y);
            return;
        }
        ctx.for_each_chunk_mut(y, 1, |rows, chunk| {
            for (k, i) in rows.enumerate() {
                let mut acc = 0.0;
                for p in self.indptr[i]..self.indptr[i + 1] {
                    acc += self.data[p] * x[self.indices[p]];
                }
                chunk[k] = acc;
            }
        });
    }

    /// The transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMat {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.indices {
            counts[c] += 1;
        }
        let mut indptr = vec![0usize; self.ncols + 1];
        for j in 0..self.ncols {
            indptr[j + 1] = indptr[j] + counts[j];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![0f64; self.nnz()];
        let mut next = indptr.clone();
        for i in 0..self.nrows {
            for p in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[p];
                let q = next[j];
                indices[q] = i;
                data[q] = self.data[p];
                next[j] += 1;
            }
        }
        Self::from_parts(self.ncols, self.nrows, indptr, indices, data)
    }

    /// Extracts the submatrix selecting `rows` and `cols` (relabelled in the
    /// order given). Used to slice the `A/B/D/E/Q/R` partitions out of the
    /// stamped `G` and `C` matrices.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> CsrMat {
        let mut colmap = vec![usize::MAX; self.ncols];
        for (newj, &j) in cols.iter().enumerate() {
            colmap[j] = newj;
        }
        let mut indptr = vec![0usize; rows.len() + 1];
        let mut indices = Vec::new();
        let mut data = Vec::new();
        let mut rowbuf: Vec<(usize, f64)> = Vec::new();
        for (newi, &i) in rows.iter().enumerate() {
            rowbuf.clear();
            for p in self.indptr[i]..self.indptr[i + 1] {
                let nj = colmap[self.indices[p]];
                if nj != usize::MAX {
                    rowbuf.push((nj, self.data[p]));
                }
            }
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &rowbuf {
                indices.push(c);
                data.push(v);
            }
            indptr[newi + 1] = indices.len();
        }
        Self::from_parts(rows.len(), cols.len(), indptr, indices, data)
    }

    /// The blocks `[..m, ..m]`, `[m.., ..m]` and `[m.., m..]` of a square
    /// matrix, in one pass over its rows: the same matrices as
    /// [`CsrMat::submatrix`] with those contiguous index ranges.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `m` exceeds its dimension.
    pub fn split_leading(&self, m: usize) -> [CsrMat; 3] {
        let n = self.nrows;
        assert_eq!(n, self.ncols, "split_leading needs a square matrix");
        assert!(m <= n, "leading block larger than the matrix");
        // `(indptr, indices, data)` of the three blocks; the rows `..m`
        // past column `m` belong to none of them.
        let mut blocks: [(Vec<usize>, Vec<usize>, Vec<f64>); 3] = Default::default();
        for (indptr, _, _) in &mut blocks {
            indptr.push(0);
        }
        for i in 0..n {
            for (j, v) in self.row_iter(i) {
                let (k, col) = match (i < m, j < m) {
                    (true, true) => (0, j),
                    (true, false) => continue,
                    (false, true) => (1, j),
                    (false, false) => (2, j - m),
                };
                blocks[k].1.push(col);
                blocks[k].2.push(v);
            }
            let touched = if i < m {
                &mut blocks[..1]
            } else {
                &mut blocks[1..]
            };
            for (indptr, indices, _) in touched {
                indptr.push(indices.len());
            }
        }
        let [(ap, ai, ad), (qp, qi, qd), (dp, di, dd)] = blocks;
        [
            Self::from_parts(m, m, ap, ai, ad),
            Self::from_parts(n - m, m, qp, qi, qd),
            Self::from_parts(n - m, n - m, dp, di, dd),
        ]
    }

    /// Symmetric permutation `P A Pᵀ` where row/col `i` of the result is
    /// row/col `perm[i]` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `perm` is not a permutation of
    /// `0..n`.
    pub fn permute_sym(&self, perm: &[usize]) -> CsrMat {
        assert_eq!(self.nrows, self.ncols, "permute_sym needs a square matrix");
        assert_eq!(perm.len(), self.nrows);
        let rows: Vec<usize> = perm.to_vec();
        self.submatrix(&rows, &rows)
    }

    /// The main diagonal as a dense vector.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Converts to a dense matrix (small matrices only — used in tests and
    /// for reduced models).
    pub fn to_dense(&self) -> DMat<f64> {
        let mut m = DMat::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (j, v) in self.row_iter(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Sum of two matrices with the same shape.
    pub fn add(&self, rhs: &CsrMat) -> CsrMat {
        self.linear_comb(1.0, rhs, 1.0)
    }

    /// `alpha * self + beta * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn linear_comb(&self, alpha: f64, rhs: &CsrMat, beta: f64) -> CsrMat {
        assert_eq!((self.nrows, self.ncols), (rhs.nrows, rhs.ncols));
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(self.nnz() + rhs.nnz());
        let mut data = Vec::with_capacity(self.nnz() + rhs.nnz());
        for i in 0..self.nrows {
            let mut pa = self.indptr[i];
            let mut pb = rhs.indptr[i];
            let ea = self.indptr[i + 1];
            let eb = rhs.indptr[i + 1];
            while pa < ea || pb < eb {
                let ca = if pa < ea {
                    self.indices[pa]
                } else {
                    usize::MAX
                };
                let cb = if pb < eb { rhs.indices[pb] } else { usize::MAX };
                let (c, v) = if ca < cb {
                    let v = alpha * self.data[pa];
                    pa += 1;
                    (ca, v)
                } else if cb < ca {
                    let v = beta * rhs.data[pb];
                    pb += 1;
                    (cb, v)
                } else {
                    let v = alpha * self.data[pa] + beta * rhs.data[pb];
                    pa += 1;
                    pb += 1;
                    (ca, v)
                };
                if v != 0.0 {
                    indices.push(c);
                    data.push(v);
                }
            }
            indptr[i + 1] = indices.len();
        }
        Self::from_parts(self.nrows, self.ncols, indptr, indices, data)
    }

    /// Checks symmetry within tolerance `tol` (absolute, entrywise).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            // Patterns may legitimately differ by explicitly-stored zeros;
            // fall back to value comparison.
            for i in 0..self.nrows {
                for (j, v) in self.row_iter(i) {
                    if (v - self.get(j, i)).abs() > tol {
                        return false;
                    }
                }
                for (j, v) in t.row_iter(i) {
                    if (v - t.get(j, i)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.data
            .iter()
            .zip(&t.data)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// `true` when every row is weakly diagonally dominant:
    /// `a_ii ≥ Σ_{j≠i} |a_ij|` (the paper's sufficient condition for
    /// non-negative definiteness of stamped RC matrices).
    pub fn is_diag_dominant(&self, slack: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (j, v) in self.row_iter(i) {
                if j == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            if diag + slack < off {
                return false;
            }
        }
        true
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

impl fmt::Debug for CsrMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CsrMat {}x{} nnz={}", self.nrows, self.ncols, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMat;

    fn sample() -> CsrMat {
        // [ 4 -1  0]
        // [-1  4 -2]
        // [ 0 -2  5]
        let mut t = TripletMat::new(3, 3);
        t.stamp_conductance(Some(0), Some(1), 1.0);
        t.stamp_conductance(Some(1), Some(2), 2.0);
        t.push(0, 0, 3.0);
        t.push(1, 1, 1.0);
        t.push(2, 2, 3.0);
        t.to_csr()
    }

    #[test]
    fn matvec_correct() {
        let m = sample();
        let y = m.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![2.0, 1.0, 11.0]);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let m = sample();
        let x = [0.5, -1.0, 2.0];
        assert_eq!(m.matvec_t(&x), m.transpose().matvec(&x));
    }

    #[test]
    fn matvec_t_into_matches_matvec_t() {
        let m = sample();
        let x = [0.5, -1.0, 2.0];
        let mut y = vec![9.0; 3]; // stale contents must be overwritten
        m.matvec_t_into(&x, &mut y);
        assert_eq!(y, m.matvec_t(&x));
    }

    /// A large sparse band matrix plus some scattered entries, big enough
    /// to pass both parallel-path gates.
    fn large_banded(n: usize) -> CsrMat {
        let mut t = crate::TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + (i % 7) as f64);
            if i + 1 < n {
                t.push(i, i + 1, -1.0 + 0.001 * (i % 13) as f64);
                t.push(i + 1, i, -0.5);
            }
            t.push(i, (i * 37) % n, 0.25);
        }
        t.to_csr()
    }

    #[test]
    fn parallel_matvec_bit_identical_across_thread_counts() {
        let n = 5000;
        let m = large_banded(n);
        let x: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) * 0.3).collect();
        let serial = m.matvec(&x);
        for threads in [1usize, 2, 4, 8] {
            let ctx = crate::ParCtx::new(Some(threads));
            let mut y = vec![0.0; n];
            m.matvec_into_ctx(&x, &mut y, &ctx);
            assert_eq!(y, serial, "threads={threads}");
        }
    }

    #[test]
    fn transpose_of_symmetric_is_equal() {
        let m = sample();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m.transpose(), m);
    }

    #[test]
    fn submatrix_partitions() {
        let m = sample();
        let d = m.submatrix(&[1, 2], &[1, 2]);
        assert_eq!(d.get(0, 0), 4.0);
        assert_eq!(d.get(0, 1), -2.0);
        assert_eq!(d.get(1, 1), 5.0);
        let q = m.submatrix(&[1, 2], &[0]);
        assert_eq!(q.get(0, 0), -1.0);
        assert_eq!(q.get(1, 0), 0.0);
    }

    #[test]
    fn split_leading_equals_submatrices() {
        // Stamps with duplicates (parallel branches), a branch that
        // cancels to zero, and rows long enough for an unstable sort.
        let n = 30;
        let mut t = TripletMat::new(n, n);
        for k in 0..n * 6 {
            let (a, b) = (k % n, (k * 7 + 3) % n);
            let g = 1.0 + (k % 11) as f64 * 0.37;
            t.stamp_conductance(Some(a), (k % 5 != 0).then_some(b), g);
        }
        t.stamp_conductance(Some(1), Some(2), 2.5);
        t.stamp_conductance(Some(1), Some(2), -2.5);
        let whole = t.to_csr();
        for m in [0, 1, 4, n] {
            let (ports, internals): (Vec<usize>, Vec<usize>) = ((0..m).collect(), (m..n).collect());
            let want = [
                whole.submatrix(&ports, &ports),
                whole.submatrix(&internals, &ports),
                whole.submatrix(&internals, &internals),
            ];
            let got = whole.split_leading(m);
            assert_eq!(got, want, "m = {m}");
            for (got, want) in got.iter().zip(&want) {
                assert_eq!(got.pattern_key(), want.pattern_key());
            }
        }
    }

    #[test]
    fn permute_sym_preserves_values() {
        let m = sample();
        let p = [2usize, 0, 1];
        let mp = m.permute_sym(&p);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(mp.get(i, j), m.get(p[i], p[j]));
            }
        }
    }

    #[test]
    fn linear_comb_cancels() {
        let m = sample();
        let z = m.linear_comb(1.0, &m, -1.0);
        assert_eq!(z.nnz(), 0);
        let two = m.add(&m);
        assert_eq!(two.get(1, 1), 8.0);
    }

    #[test]
    fn diag_dominance_detected() {
        let m = sample();
        assert!(m.is_diag_dominant(0.0));
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, -3.0);
        t.push(1, 0, -3.0);
        t.push(1, 1, 1.0);
        assert!(!t.to_csr().is_diag_dominant(0.0));
    }

    #[test]
    fn from_raw_validates() {
        let m = CsrMat::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn from_raw_rejects_unsorted() {
        let _ = CsrMat::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    fn identity_matvec() {
        let idn = CsrMat::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(idn.matvec(&x), x.to_vec());
    }

    #[test]
    fn pattern_key_tracks_structure_not_values() {
        let m = sample();
        // Same pattern, different values: identical key.
        let scaled = CsrMat::from_raw(
            m.nrows(),
            m.ncols(),
            m.indptr().to_vec(),
            m.indices().to_vec(),
            m.data().iter().map(|v| v * 3.0).collect(),
        );
        assert_eq!(m.pattern_key(), scaled.pattern_key());
        // Different pattern: different key (no collision on this pair).
        let other = CsrMat::identity(3);
        assert_ne!(m.pattern_key(), other.pattern_key());
        // Derived matrices carry a freshly computed key.
        assert_eq!(m.transpose().pattern_key(), m.pattern_key()); // symmetric
        assert_ne!(m.submatrix(&[0, 1], &[0, 1]).pattern_key(), m.pattern_key());
        // Shape is part of the key even with no stored entries.
        assert_ne!(
            CsrMat::zeros(2, 3).pattern_key(),
            CsrMat::zeros(3, 2).pattern_key()
        );
    }
}
