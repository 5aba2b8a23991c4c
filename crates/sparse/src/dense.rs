//! Column-major dense matrices and vector helpers.
//!
//! Reduced-order models in PACT are small and dense (ports + retained
//! poles), so dense storage and O(n³) kernels are appropriate there; the
//! large original networks never touch these types except through
//! factorizations in [`crate::cholesky`].

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::complex::Scalar;

/// A dense, column-major matrix over any [`Scalar`] (used with `f64` and
/// [`crate::Complex64`]).
///
/// ```
/// use pact_sparse::DMat;
/// let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = a.matmul(&DMat::identity(2));
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq)]
pub struct DMat<S = f64> {
    nrows: usize,
    ncols: usize,
    /// Column-major storage: element `(i, j)` lives at `j * nrows + i`.
    data: Vec<S>,
}

impl<S: Scalar> DMat<S> {
    /// An `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DMat {
            nrows,
            ncols,
            data: vec![S::zero(); nrows * ncols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::one();
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[S]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut m = Self::zeros(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "row {i} has inconsistent length");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// A diagonal matrix with the given diagonal entries.
    pub fn from_diag(diag: &[S]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
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

    /// `true` when the matrix has zero extent in either dimension.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nrows == 0 || self.ncols == 0
    }

    /// Immutable view of the raw column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable view of the raw column-major storage (element `(i, j)` at
    /// `j * nrows + i`), for kernels that partition columns across
    /// workers.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// A borrowed column as a slice (columns are contiguous).
    #[inline]
    pub fn col(&self, j: usize) -> &[S] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// A mutable column slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Copies row `i` into a new vector.
    pub fn row(&self, i: usize) -> Vec<S> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(self.ncols, rhs.nrows, "matmul dimension mismatch");
        let mut out = Self::zeros(self.nrows, rhs.ncols);
        for j in 0..rhs.ncols {
            let rcol = rhs.col(j);
            let ocol = out.col_mut(j);
            for (k, &r) in rcol.iter().enumerate() {
                if r == S::zero() {
                    continue;
                }
                let acol = &self.data[k * self.nrows..(k + 1) * self.nrows];
                for i in 0..self.nrows {
                    let add = acol[i] * r;
                    ocol[i] += add;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        let mut y = vec![S::zero(); self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == S::zero() {
                continue;
            }
            for (i, &a) in self.col(j).iter().enumerate() {
                y[i] += a * xj;
            }
        }
        y
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    pub fn matvec_t(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.nrows, "matvec_t dimension mismatch");
        (0..self.ncols)
            .map(|j| {
                let mut acc = S::zero();
                for (i, &a) in self.col(j).iter().enumerate() {
                    acc += a * x[i];
                }
                acc
            })
            .collect()
    }

    /// In-place scaling by a scalar.
    pub fn scale_mut(&mut self, k: S) {
        for v in &mut self.data {
            *v = *v * k;
        }
    }

    /// Extracts the contiguous sub-matrix with the given half-open ranges.
    pub fn submatrix(&self, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Self {
        Self::from_fn(rows.len(), cols.len(), |i, j| {
            self[(rows.start + i, cols.start + j)]
        })
    }

    /// The main diagonal as a vector.
    pub fn diag(&self) -> Vec<S> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self[(i, i)])
            .collect()
    }
}

impl DMat<f64> {
    /// The congruence transform `Vᵀ · self · V`.
    ///
    /// This is the fundamental operation of PACT: it preserves symmetry and
    /// definiteness of `self` for any (even rectangular) `V`.
    pub fn congruence(&self, v: &DMat<f64>) -> DMat<f64> {
        v.transpose().matmul(&self.matmul(v))
    }

    /// Maximum absolute difference from the transpose; 0 for exactly
    /// symmetric matrices.
    pub fn asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for j in 0..self.ncols {
            for i in 0..j {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Forces exact symmetry by averaging with the transpose, cleaning up
    /// rounding drift after chains of congruence transforms.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.nrows, self.ncols);
        for j in 0..self.ncols {
            for i in 0..j {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }
}

impl<S: Scalar> Index<(usize, usize)> for DMat<S> {
    type Output = S;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for DMat<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

impl<S: Scalar> Add for &DMat<S> {
    type Output = DMat<S>;
    fn add(self, rhs: Self) -> DMat<S> {
        assert_eq!((self.nrows, self.ncols), (rhs.nrows, rhs.ncols));
        let mut out = self.clone();
        for (o, &r) in out.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        out
    }
}

impl<S: Scalar> Sub for &DMat<S> {
    type Output = DMat<S>;
    fn sub(self, rhs: Self) -> DMat<S> {
        assert_eq!((self.nrows, self.ncols), (rhs.nrows, rhs.ncols));
        let mut out = self.clone();
        for (o, &r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= r;
        }
        out
    }
}

impl<S: Scalar> Mul<S> for &DMat<S> {
    type Output = DMat<S>;
    fn mul(self, k: S) -> DMat<S> {
        let mut out = self.clone();
        out.scale_mut(k);
        out
    }
}

impl<S: Scalar> fmt::Debug for DMat<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(12) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(12) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

// ---------------------------------------------------------------------------
// Vector helpers (free functions over &[f64])
// ---------------------------------------------------------------------------

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a vector in place.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Maximum absolute entry of a slice (0 for empty input).
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Dense trapezoidal update kernel of the supernodal Cholesky:
/// `out = L₂ · D · L₁ᵀ` where both factors are row blocks of one
/// column-major panel.
///
/// `panel` holds a dense `ld × width` column-major block (`panel[t * ld + i]`
/// is row `i` of column `t`). With `L₁ = panel[row0 .. row0+nc, 0..width]`
/// and `L₂ = panel[row0 .. row0+m, 0..width]` (so `L₁` is the leading `nc`
/// rows of `L₂`, `nc ≤ m`), the kernel accumulates the lower trapezoid of
/// the `m × nc` product into `out` column-major:
///
/// `out[c * m + r] = Σ_t panel[t·ld + row0 + r] · dvals[t] · panel[t·ld + row0 + c]`
///
/// for `r ≥ c` only — entries above the diagonal of the update block are
/// never referenced by the caller's scatter and are left untouched after
/// the initial zero-fill of the `m · nc` prefix. All three inner loops run
/// over contiguous memory, which is the entire point: this one routine is
/// where the supernodal factorization spends its floating-point budget.
///
/// # Panics
///
/// Panics (via slice indexing) when `panel`, `dvals`, or `out` are too
/// short for the requested shape.
#[allow(clippy::too_many_arguments)]
pub fn ldl_update_trapezoid(
    panel: &[f64],
    ld: usize,
    row0: usize,
    m: usize,
    nc: usize,
    width: usize,
    dvals: &[f64],
    out: &mut [f64],
) {
    debug_assert!(row0 + m <= ld);
    debug_assert!(nc <= m);
    out[..m * nc].fill(0.0);
    for t in 0..width {
        let dt = dvals[t];
        let colt = &panel[t * ld + row0..t * ld + row0 + m];
        for c in 0..nc {
            let coef = dt * colt[c];
            if coef == 0.0 {
                // Padded (relaxed-supernode) slots hold exact zeros; the
                // skip changes at most the sign of a produced zero.
                continue;
            }
            let ob = c * m;
            for r in c..m {
                out[ob + r] += coef * colt[r];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = DMat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&DMat::identity(3)), a);
        assert_eq!(DMat::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = DMat::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_agrees_with_manual() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = DMat::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let x = vec![1.0, -2.0, 0.5];
        let y = a.matvec(&x);
        for (i, yi) in y.iter().enumerate() {
            let manual: f64 = (0..3).map(|j| a[(i, j)] * x[j]).sum();
            assert!((yi - manual).abs() < 1e-14);
        }
        let yt = a.matvec_t(&[1.0, 0.0, -1.0, 2.0]);
        assert_eq!(yt.len(), 3);
    }

    #[test]
    fn congruence_preserves_symmetry() {
        let w = DMat::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 0.5], &[0.0, 0.5, 1.0]]);
        let v = DMat::from_fn(3, 2, |i, j| ((i + j) as f64).sin());
        let x = w.congruence(&v);
        assert_eq!(x.nrows(), 2);
        assert!(x.asymmetry() < 1e-14);
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = DMat::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let s = a.submatrix(1..3, 2..4);
        assert_eq!(s[(0, 0)], 12.0);
        assert_eq!(s[(1, 1)], 23.0);
    }

    #[test]
    fn vector_helpers() {
        let a = [3.0, 4.0];
        assert_eq!(norm2(&a), 5.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, 4.5]);
        assert_eq!(norm_inf(&y), 4.5);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn symmetrize_cleans_drift() {
        let mut a = DMat::from_rows(&[&[1.0, 2.0 + 1e-13], &[2.0, 5.0]]);
        assert!(a.asymmetry() > 0.0);
        a.symmetrize();
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    fn ldl_update_trapezoid_matches_reference() {
        // A 6×3 panel; update block starts at row 2 with m=4 rows, the
        // first nc=2 of which are the target columns.
        let ld = 6;
        let width = 3;
        let (m, nc, row0) = (4usize, 2usize, 2usize);
        let panel: Vec<f64> = (0..ld * width)
            .map(|k| ((k * 7 + 3) % 11) as f64 - 5.0)
            .collect();
        let dvals = [2.0, -0.5, 3.0];
        let mut out = vec![f64::NAN; m * nc + 1];
        out[m * nc] = 42.0; // sentinel: untouched past the prefix
        ldl_update_trapezoid(&panel, ld, row0, m, nc, width, &dvals, &mut out);
        for c in 0..nc {
            for r in c..m {
                let want: f64 = (0..width)
                    .map(|t| panel[t * ld + row0 + r] * dvals[t] * panel[t * ld + row0 + c])
                    .sum();
                assert!(
                    (out[c * m + r] - want).abs() < 1e-12,
                    "mismatch at r={r} c={c}"
                );
            }
        }
        assert_eq!(out[m * nc], 42.0);
    }
}
