//! # pact-baselines
//!
//! Comparator algorithms for the PACT reproduction:
//!
//! - [`admittance_moments`] + [`pade_fit`] — AWE-style explicit moment
//!   matching with a Hankel-solved Padé approximation, exposing the
//!   ill-conditioning and potential instability the paper criticizes;
//! - [`block_krylov_reduce`] — an MPVL-like block-Krylov congruence
//!   projection (refs. 6/7 of the paper): accurate and passive, but with `O(m·n)`
//!   basis storage and `O(m²·n)` orthogonalization cost that PACT's
//!   Section-4 analysis targets;
//! - [`pact_lanczos_memory`] and friends — the analytic memory/ops
//!   models behind the paper's complexity claims, used by the
//!   complexity bench to overlay modelled and measured curves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Indexed loops couple parallel arrays in the numerical kernels.
#![allow(clippy::needless_range_loop)]

mod krylov;
mod memory;
mod moments;

pub use krylov::{block_krylov_reduce, KrylovError, KrylovReduction};
pub use memory::{format_mb, mpvl_memory, pact_lanczos_memory, pade_block_memory};
pub use moments::{admittance_moments, pade_fit, MomentSeries, PadeError, PadeModel};
