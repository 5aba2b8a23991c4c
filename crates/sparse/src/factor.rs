//! A unified lifecycle over the two sparse factorizations.
//!
//! PACT's reduction paths need the same four-step lifecycle from both the
//! SPD Cholesky factorization (congruence transforms, flat and hierarchical
//! reduction) and the threshold-pivoting LU (AC sweeps, transient solves):
//! *analyze* a sparsity pattern once, *factor* numerically, *refactor*
//! cheaply when only values changed, and *solve* single or blocked
//! right-hand sides. [`Factorization`] names that lifecycle so generic
//! harnesses (session caches, benches, equivalence tests) can be written
//! once and instantiated for either decomposition.
//!
//! The trait deliberately exposes the *default-configuration* entry points
//! only: ordering choices, pivot policies, and pivot thresholds stay on the
//! inherent APIs ([`SparseCholesky::factor_diagnosed`],
//! [`SparseLu::factor_analyzed_with_threshold`], …) where their types can
//! differ. Refactoring through the trait is bit-identical to fresh
//! factorization for both implementations, which is the property the
//! reduction session relies on.

use crate::cholesky::{FactorError, PivotPolicy, SparseCholesky, SymbolicCholesky};
use crate::complex::Scalar;
use crate::csr::CsrMat;
use crate::ordering::Ordering;
use crate::splu::{CscMat, RefactorError, SparseLu, SparseLuError, SymbolicLu};

/// Analyze → factor → refactor → solve, abstracted over the concrete
/// decomposition.
///
/// Implemented by [`SparseCholesky`] (SPD, `LDLᵀ`, CSR input) and
/// [`SparseLu`] (threshold partial pivoting, CSC input, real or complex).
pub trait Factorization: Sized {
    /// Element type of right-hand sides and solutions.
    type Scalar: Copy;
    /// Matrix type consumed by the factorization.
    type Matrix;
    /// Reusable value-free analysis of a sparsity pattern.
    type Symbolic: Clone;
    /// Failure of a fresh factorization.
    type FactorError: std::error::Error;
    /// Failure of a numeric-only refactorization.
    type RefactorError: std::error::Error;

    /// Factors `a` under the implementation's default configuration and
    /// returns the factor together with its reusable symbolic analysis.
    ///
    /// # Errors
    ///
    /// The implementation's factorization error (singular / not positive
    /// definite / not square input).
    fn factor_analyzed(a: &Self::Matrix) -> Result<(Self, Self::Symbolic), Self::FactorError>;

    /// Whether `a` has the sparsity pattern `sym` was analyzed from.
    fn symbolic_matches(sym: &Self::Symbolic, a: &Self::Matrix) -> bool;

    /// Numeric-only factorization of `a` through a previous analysis;
    /// bit-identical to the fresh factorization of the same values.
    ///
    /// # Errors
    ///
    /// The implementation's refactorization error (structure mismatch or
    /// pivot failure).
    fn refactor(sym: &Self::Symbolic, a: &Self::Matrix) -> Result<Self, Self::RefactorError>;

    /// Allocation-reusing [`Factorization::refactor`] into an existing
    /// factor.
    ///
    /// # Errors
    ///
    /// Same as [`Factorization::refactor`]; `out` is unspecified but
    /// safe to reuse on error.
    fn refactor_into(
        sym: &Self::Symbolic,
        a: &Self::Matrix,
        out: &mut Self,
    ) -> Result<(), Self::RefactorError>;

    /// Matrix dimension.
    fn dim(&self) -> usize;

    /// Stored nonzeros of the factor (fill measure).
    fn factor_nnz(&self) -> usize;

    /// Modelled memory footprint of the factor in bytes.
    fn memory_bytes(&self) -> usize;

    /// Solves `A x = b`.
    fn solve(&self, b: &[Self::Scalar]) -> Vec<Self::Scalar>;

    /// Solves `A X = B` for `k` right-hand sides stored column-major in
    /// `b` (`b[c * n + i]` = RHS `c` at row `i`). Per right-hand side the
    /// result is bitwise the scalar [`Factorization::solve`] answer.
    fn solve_block(&self, b: &[Self::Scalar], k: usize) -> Vec<Self::Scalar>;
}

impl Factorization for SparseCholesky {
    type Scalar = f64;
    type Matrix = CsrMat;
    type Symbolic = SymbolicCholesky;
    type FactorError = FactorError;
    type RefactorError = FactorError;

    fn factor_analyzed(a: &CsrMat) -> Result<(Self, SymbolicCholesky), FactorError> {
        let (factor, _diag, sym) =
            SparseCholesky::factor_analyzed(a, Ordering::default(), PivotPolicy::Error)?;
        Ok((factor, sym))
    }

    fn symbolic_matches(sym: &SymbolicCholesky, a: &CsrMat) -> bool {
        sym.matches(a)
    }

    fn refactor(sym: &SymbolicCholesky, a: &CsrMat) -> Result<Self, FactorError> {
        sym.refactor(a, PivotPolicy::Error).map(|(f, _)| f)
    }

    fn refactor_into(
        sym: &SymbolicCholesky,
        a: &CsrMat,
        out: &mut Self,
    ) -> Result<(), FactorError> {
        sym.refactor_into(a, PivotPolicy::Error, out).map(|_| ())
    }

    fn dim(&self) -> usize {
        self.n()
    }

    fn factor_nnz(&self) -> usize {
        self.l_nnz()
    }

    fn memory_bytes(&self) -> usize {
        SparseCholesky::memory_bytes(self)
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        SparseCholesky::solve(self, b)
    }

    fn solve_block(&self, b: &[f64], k: usize) -> Vec<f64> {
        SparseCholesky::solve_block(self, b, k)
    }
}

impl<S: Scalar> Factorization for SparseLu<S> {
    type Scalar = S;
    type Matrix = CscMat<S>;
    type Symbolic = SymbolicLu;
    type FactorError = SparseLuError;
    type RefactorError = RefactorError;

    fn factor_analyzed(a: &CscMat<S>) -> Result<(Self, SymbolicLu), SparseLuError> {
        SparseLu::factor_analyzed(a)
    }

    fn symbolic_matches(sym: &SymbolicLu, a: &CscMat<S>) -> bool {
        sym.matches(a)
    }

    fn refactor(sym: &SymbolicLu, a: &CscMat<S>) -> Result<Self, RefactorError> {
        sym.refactor(a)
    }

    fn refactor_into(sym: &SymbolicLu, a: &CscMat<S>, out: &mut Self) -> Result<(), RefactorError> {
        sym.refactor_into(a, out)
    }

    fn dim(&self) -> usize {
        self.n()
    }

    fn factor_nnz(&self) -> usize {
        SparseLu::factor_nnz(self)
    }

    fn memory_bytes(&self) -> usize {
        SparseLu::memory_bytes(self)
    }

    fn solve(&self, b: &[S]) -> Vec<S> {
        SparseLu::solve(self, b)
    }

    fn solve_block(&self, b: &[S], k: usize) -> Vec<S> {
        assert_eq!(b.len(), self.n() * k);
        let mut xs = b.to_vec();
        let mut scratch = Vec::new();
        self.solve_block_in_place(&mut xs, &mut scratch);
        xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMat;

    /// A small SPD pentadiagonal test matrix as symmetric triplets.
    fn spd_triplets(n: usize) -> Vec<(usize, usize, f64)> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0 + (i % 3) as f64));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
            if i + 2 < n {
                t.push((i, i + 2, -0.5));
                t.push((i + 2, i, -0.5));
            }
        }
        t
    }

    /// The generic lifecycle exercised once per implementation: factor,
    /// solve, refactor scaled values (same pattern), solve again, and
    /// check both the residuals and the refactor-vs-fresh bit identity.
    fn lifecycle<F>(a1: &F::Matrix, a2: &F::Matrix, b: &[F::Scalar], check: impl Fn(&F, &F))
    where
        F: Factorization,
        F::Scalar: std::fmt::Debug,
    {
        let (f1, sym) = F::factor_analyzed(a1).expect("factor");
        assert!(F::symbolic_matches(&sym, a1));
        assert!(F::symbolic_matches(&sym, a2));
        assert_eq!(f1.dim(), b.len());
        assert!(f1.factor_nnz() > 0);
        assert!(f1.memory_bytes() > 0);

        let refat = F::refactor(&sym, a2).expect("refactor");
        let (fresh, _) = F::factor_analyzed(a2).expect("fresh factor");
        check(&refat, &fresh);

        let mut reused = f1;
        F::refactor_into(&sym, a2, &mut reused).expect("refactor_into");
        check(&reused, &fresh);

        // Blocked solve must match k scalar solves bitwise.
        let n = b.len();
        let mut rhs = Vec::with_capacity(2 * n);
        rhs.extend_from_slice(b);
        rhs.extend_from_slice(b);
        let blocked = fresh.solve_block(&rhs, 2);
        let single = fresh.solve(b);
        for c in 0..2 {
            for i in 0..n {
                let got: F::Scalar = blocked[c * n + i];
                let want: F::Scalar = single[i];
                // Compare through the debug representation to stay
                // generic over real and complex scalars.
                assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
        }
    }

    #[test]
    fn cholesky_lifecycle_through_trait() {
        let n = 24;
        let mut t = TripletMat::new(n, n);
        for (i, j, v) in spd_triplets(n) {
            t.push(i, j, v);
        }
        let a1 = t.to_csr();
        let mut t2 = TripletMat::new(n, n);
        for (i, j, v) in spd_triplets(n) {
            t2.push(i, j, v * 1.5);
        }
        let a2 = t2.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
        lifecycle::<SparseCholesky>(&a1, &a2, &b, |x, y| {
            assert_eq!(x.pivots(), y.pivots());
            assert_eq!(x.permutation(), y.permutation());
        });
    }

    #[test]
    fn lu_lifecycle_through_trait() {
        let n = 24;
        let a1 = CscMat::from_triplets(n, n, &spd_triplets(n));
        let scaled: Vec<(usize, usize, f64)> = spd_triplets(n)
            .into_iter()
            .map(|(i, j, v)| (i, j, v * 1.5))
            .collect();
        let a2 = CscMat::from_triplets(n, n, &scaled);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos() + 2.0).collect();
        lifecycle::<SparseLu<f64>>(&a1, &a2, &b, |x, y| {
            assert_eq!(x.l_values(), y.l_values());
            assert_eq!(x.u_values(), y.u_values());
        });
    }
}
