//! Frequency-parameterized sparse pencil `G + jωC`.
//!
//! Every AC-style sweep in the workspace evaluates the same matrix
//! pencil at many frequencies: the admittance evaluator factors
//! `(D + sE)` per point and the circuit simulator factors `(G + jωC)`
//! per point. The sparsity structure never changes across the sweep —
//! only the values — so [`CscPencil`] merges the conductance and
//! capacitance patterns into one fixed union structure once, and
//! [`CscPencil::eval_into`] refreshes the complex values in place. The
//! fixed structure is exactly what lets a single [`crate::SymbolicLu`]
//! analysis serve the whole sweep.

use crate::complex::Complex64;
use crate::splu::CscMat;

/// A sparse pencil `P(ω) = G + jωC` with a fixed union sparsity
/// structure, evaluable at any frequency without re-sorting or
/// re-merging triplets.
#[derive(Clone, Debug)]
pub struct CscPencil {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    /// Real parts: `G` values on the union pattern (zero where only `C`
    /// has an entry).
    g: Vec<f64>,
    /// Imaginary-slope parts: `C` values on the union pattern.
    c: Vec<f64>,
}

impl CscPencil {
    /// Builds the union structure of the `G` and `C` triplet lists for
    /// an `n × n` pencil. Duplicate entries are summed in input order,
    /// side by side, exactly like [`CscMat::from_triplets`].
    ///
    /// # Panics
    ///
    /// Panics if any triplet index is out of bounds.
    pub fn from_triplets(
        n: usize,
        gtrips: &[(usize, usize, f64)],
        ctrips: &[(usize, usize, f64)],
    ) -> Self {
        // Tag each triplet with which side it contributes to, then do
        // one column-major merge summing G and C independently.
        let mut tagged: Vec<(usize, usize, f64, bool)> =
            Vec::with_capacity(gtrips.len() + ctrips.len());
        for &(r, c, v) in gtrips {
            assert!(
                r < n && c < n,
                "G triplet ({r}, {c}) out of bounds for n = {n}"
            );
            tagged.push((c, r, v, false));
        }
        for &(r, c, v) in ctrips {
            assert!(
                r < n && c < n,
                "C triplet ({r}, {c}) out of bounds for n = {n}"
            );
            tagged.push((c, r, v, true));
        }
        tagged.sort_by_key(|&(col, row, _, _)| (col, row));
        let mut indptr = vec![0usize; n + 1];
        let mut indices = Vec::new();
        let mut g = Vec::new();
        let mut c = Vec::new();
        let mut it = tagged.into_iter().peekable();
        for col in 0..n {
            while let Some(&(tc, row, _, _)) = it.peek() {
                if tc != col {
                    break;
                }
                let mut gsum = 0.0;
                let mut csum = 0.0;
                while let Some(&(nc, nr, v, is_c)) = it.peek() {
                    if nc != col || nr != row {
                        break;
                    }
                    if is_c {
                        csum += v;
                    } else {
                        gsum += v;
                    }
                    it.next();
                }
                indices.push(row);
                g.push(gsum);
                c.push(csum);
            }
            indptr[col + 1] = indices.len();
        }
        CscPencil {
            n,
            indptr,
            indices,
            g,
            c,
        }
    }

    /// Pencil dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entries in the union pattern.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Evaluates `G + jωC` into a fresh matrix.
    pub fn eval(&self, omega: f64) -> CscMat<Complex64> {
        let data = self
            .g
            .iter()
            .zip(&self.c)
            .map(|(&g, &c)| Complex64::new(g, omega * c))
            .collect();
        CscMat::from_parts(
            self.n,
            self.n,
            self.indptr.clone(),
            self.indices.clone(),
            data,
        )
    }

    /// Refreshes the values of `out` — which must come from
    /// [`CscPencil::eval`] on this pencil — to frequency `omega`,
    /// without touching the structure.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s value count differs from this pencil's.
    pub fn eval_into(&self, omega: f64, out: &mut CscMat<Complex64>) {
        let vals = out.values_mut();
        assert_eq!(vals.len(), self.g.len(), "matrix is not from this pencil");
        for (k, v) in vals.iter_mut().enumerate() {
            *v = Complex64::new(self.g[k], omega * self.c[k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splu::SparseLu;

    #[test]
    fn union_structure_matches_triplet_build() {
        let gtrips = vec![
            (0, 0, 2.0),
            (1, 1, 3.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (0, 0, 1.0),
        ];
        let ctrips = vec![(1, 1, 1e-12), (2, 2, 4e-12)];
        // Note (2,2) only appears in C; G there is an explicit zero.
        let p = CscPencil::from_triplets(3, &gtrips, &ctrips);
        assert_eq!(p.n(), 3);
        let omega = 1.0e9;
        let m = p.eval(omega);
        // Reference: complex triplets merged the slow way.
        let mut trips: Vec<(usize, usize, Complex64)> = gtrips
            .iter()
            .map(|&(r, c, v)| (r, c, Complex64::from_real(v)))
            .collect();
        trips.extend(
            ctrips
                .iter()
                .map(|&(r, c, v)| (r, c, Complex64::new(0.0, omega * v))),
        );
        let reference = CscMat::from_triplets(3, 3, &trips);
        assert!(m.structure_eq(&reference));
        assert_eq!(m.values(), reference.values());
    }

    #[test]
    fn eval_into_refreshes_values_in_place() {
        let gtrips = vec![(0, 0, 1.0), (1, 1, 1.0), (0, 1, -0.5), (1, 0, -0.5)];
        let ctrips = vec![(0, 0, 1e-12), (1, 1, 2e-12)];
        let p = CscPencil::from_triplets(2, &gtrips, &ctrips);
        let mut m = p.eval(1.0);
        p.eval_into(2.0e8, &mut m);
        let fresh = p.eval(2.0e8);
        assert_eq!(m.values(), fresh.values());
        // And the refreshed matrix factors like the fresh one.
        let lu_a = SparseLu::factor(&m).unwrap();
        let lu_b = SparseLu::factor(&fresh).unwrap();
        assert_eq!(lu_a.l_values(), lu_b.l_values());
        assert_eq!(lu_a.u_values(), lu_b.u_values());
    }
}
