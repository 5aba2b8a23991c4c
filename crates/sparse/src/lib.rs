//! # pact-sparse
//!
//! Sparse and dense linear-algebra kernels for the PACT RC-network
//! reduction workspace — everything the algorithm of Kerns & Yang
//! (*Stable and Efficient Reduction of Large, Multiport RC Networks by
//! Pole Analysis via Congruence Transformations*, DAC 1996) needs,
//! implemented from scratch:
//!
//! - [`TripletMat`] / [`CsrMat`]: sparse matrix construction ("stamping")
//!   and symmetric sparse operations (products, partition extraction,
//!   symmetric permutation);
//! - [`SparseCholesky`]: supernodal (blocked) LDLᵀ with elimination tree
//!   and fill-reducing [`Ordering`], exposing the Cholesky-factor solves
//!   `F⁻¹`/`F⁻ᵀ` used by the paper's first congruence transform (a
//!   scalar up-looking reference kernel stays behind [`CholKernel`]);
//! - [`sym_eig`] / [`eig_tridiagonal`]: dense symmetric eigensolver
//!   (Householder + implicit-shift QL), the oracle behind pole analysis
//!   and the extractor for Lanczos' tridiagonal `T`;
//! - [`DenseLu`] and [`SparseLu`]: LU with partial pivoting, generic over
//!   real/complex [`Scalar`]s, powering the circuit simulator's MNA solves
//!   (the sparse LU pre-orders columns with the fill-reducing [`amd`]);
//!   [`SymbolicLu`] / [`LuCache`] factor once symbolically and refactor
//!   numerically across sweeps, and [`CscPencil`] re-evaluates `G + jωC`
//!   in place so frequency sweeps never rebuild structure;
//! - [`Complex64`]: minimal complex arithmetic for AC analysis.
//!
//! ## Example
//!
//! ```
//! use pact_sparse::{TripletMat, SparseCholesky, Ordering};
//!
//! // Stamp a 3-resistor network's conductance matrix and solve.
//! let mut g = TripletMat::new(2, 2);
//! g.stamp_conductance(Some(0), Some(1), 1e-3); // 1 kΩ between nodes 0,1
//! g.stamp_conductance(Some(0), None, 1e-3);    // 1 kΩ node 0 to ground
//! g.stamp_conductance(Some(1), None, 1e-3);    // 1 kΩ node 1 to ground
//! let chol = SparseCholesky::factor(&g.to_csr(), Ordering::Rcm)?;
//! let v = chol.solve(&[1e-3, 0.0]); // inject 1 mA into node 0
//! assert!(v[0] > v[1]);
//! # Ok::<(), pact_sparse::FactorError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Indexed loops are the house style in these numerical kernels: the
// index couples multiple arrays (values/indices/solution) and iterator
// rewrites obscure the linear-algebra correspondence.
#![allow(clippy::needless_range_loop)]
// Complex division implements z/w = z·w⁻¹ (Smith's algorithm) — the `*`
// inside `Div` is the algorithm, not a typo.
#![allow(clippy::suspicious_arithmetic_impl)]

mod cholesky;
mod complex;
mod coo;
mod csr;
mod dense;
mod eigen;
mod factor;
mod lu;
mod ordering;
mod par;
mod pcg;
mod pencil;
mod rng;
mod splu;
mod supernodal;

pub use cholesky::{
    CholKernel, FactorDiagnostics, FactorError, PerturbedPivot, PivotPolicy, SparseCholesky,
    SymbolicCholesky, LANES,
};
pub use complex::{Complex64, Scalar};
pub use coo::TripletMat;
pub use csr::CsrMat;
pub use dense::{axpy, dot, ldl_update_trapezoid, norm2, norm_inf, scale, DMat, DMatF};
pub use eigen::{eig_tridiagonal, sym_eig, EigenError, SymEig};
pub use factor::Factorization;
pub use lu::{invert, DenseLu, SingularMatrixError};
pub use ordering::{
    amd, etree_postorder, invert_permutation, is_permutation, nested_dissection_partition, profile,
    NdPartition, Ordering,
};
pub use par::{split_ranges, ParCtx};
pub use pcg::{pcg, IncompleteCholesky, PcgResult};
pub use pencil::CscPencil;
pub use rng::XorShiftRng;
pub use splu::{
    CscMat, LuCache, RefactorError, SparseLu, SparseLuError, SymbolicLu, DEFAULT_PIVOT_THRESHOLD,
};
