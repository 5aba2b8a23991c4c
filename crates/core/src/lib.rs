//! # pact — Pole Analysis via Congruence Transformations
//!
//! A from-scratch reproduction of the RC-network reduction algorithm of
//! Kerns & Yang, *Stable and Efficient Reduction of Large, Multiport RC
//! Networks by Pole Analysis via Congruence Transformations* (DAC 1996).
//!
//! PACT reduces a large multiport RC network — `(G + sC)x = b` with `m`
//! ports and `n ≫ m` internal nodes — to a small **passive** equivalent
//! that matches the first two moments of the multiport admittance exactly
//! and preserves every admittance pole below a user-chosen cutoff
//! frequency. Because both steps are congruence transformations, the
//! reduced conductance/susceptance matrices inherit the non-negative
//! definiteness of the originals, which is necessary and sufficient for
//! passivity — reduced networks can never destabilize a simulation.
//!
//! The pipeline (Sections 2–3 of the paper):
//!
//! 1. [`Partitions::split`] — order ports first and slice `G`, `C` into
//!    the `A/B`, `Q/R`, `D/E` blocks (eq. 2);
//! 2. [`Transform1::compute`] — congruence by the Cholesky factor of `D`:
//!    `A' = A − QᵀX` and `B' = B − PᵀX − XᵀR` become the exact first two
//!    moments, `Q` vanishes, `D → I` (eq. 6–9);
//! 3. pole analysis — eigenpairs of `E' = L⁻¹EL⁻ᵀ` above
//!    `λ_c = 1/(2π f_c)` ([`CutoffSpec`]) are found by Lanczos
//!    (`pact_lanczos`) or densely, and everything else is dropped
//!    (eq. 10–12);
//! 4. [`ReducedModel`] — the `m + k` node reduced network, evaluable as
//!    `Y(jω)` ([`ReducedModel::y_at`]), checkable for passivity, and
//!    convertible back to a SPICE RC netlist
//!    ([`ReducedModel::to_netlist_elements`]).
//!
//! ## Quick start
//!
//! ```
//! use pact::{reduce_network, CutoffSpec, ReduceOptions};
//! use pact_netlist::{extract_rc, parse};
//!
//! // A 20-segment RC line driven by a source and loading a MOSFET gate.
//! let mut deck = String::from("* line\nV1 n0 0 1\nM1 x n20 0 0 nch\n.model nch nmos()\n");
//! for i in 0..20 {
//!     deck.push_str(&format!("R{i} n{i} n{} 12.5\n", i + 1));
//!     deck.push_str(&format!("C{i} n{} 0 67.5f\n", i + 1));
//! }
//! let ex = extract_rc(&parse(&deck)?, &[])?;
//! let opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05)?);
//! let red = reduce_network(&ex.network, &opts)?;
//! assert!(red.model.num_poles() < ex.network.num_internal());
//! assert!(red.model.is_passive(1e-9));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admittance;
mod backend;
mod cutoff;
mod error;
pub mod extract;
pub mod hier;
pub mod json;
pub mod lru;
mod matrix_free;
mod model;
pub mod multipoint;
mod partition;
mod reduce;
mod sanitize;
mod session;
mod telemetry;
mod transform;
mod verify;

pub use admittance::{transimpedance_of, FullAdmittance, PortImpedance, SweepCounts, YEvaluator};
pub use backend::{
    DenseQlBackend, EigenBackend, EigenSelect, EigenSolution, LanczosBackend, LowRankBackend,
};
pub use cutoff::{CutoffError, CutoffSpec};
pub use error::PactError;
pub use extract::{
    collapse_chains, reduce_embedded, ChainCollapse, ChainCollapseSpec, EmbeddedReduction,
    ExtractOptions,
};
pub use lru::LruCache;
pub use matrix_free::{reduce_matrix_free, DSolver, PcgSolver};
pub use model::ReducedModel;
pub use pact_sparse::CholKernel;
pub use partition::Partitions;
pub use reduce::{
    reduce, reduce_network, reduce_network_components, ComponentReduction, ReduceError,
    ReduceOptions, ReduceStrategy, Reduction, ReductionStats,
};
pub use sanitize::{sanitize_network, SanitizeReport};
pub use session::ReductionSession;
pub use telemetry::{Counters, EigenChoice, PhaseTiming, Telemetry, Warning};
pub use transform::{EPrimeOp, Transform1};
pub use verify::{verify_reduction, verify_reduction_with, ErrorSample, VerificationReport};

#[cfg(test)]
mod tests {
    use super::*;
    use pact_lanczos::LanczosConfig;
    use pact_netlist::{extract_rc, parse, RcNetwork};
    use pact_sparse::Ordering;

    /// Builds the paper's illustrative example: a distributed RC line of
    /// 250 Ω / 1.35 pF split into `nseg` segments, port at each end.
    fn rc_line(nseg: usize) -> RcNetwork {
        let mut deck = String::from("* line\nV1 p_in 0 1\nM1 x p_out 0 0 nch\n.model nch nmos()\n");
        let r = 250.0 / nseg as f64;
        let c = 1.35e-12 / nseg as f64;
        for i in 0..nseg {
            let a = if i == 0 {
                "p_in".to_owned()
            } else {
                format!("n{i}")
            };
            let b = if i == nseg - 1 {
                "p_out".to_owned()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!("R{i} {a} {b} {r}\n"));
            // Distributed line: half caps at segment ends.
            deck.push_str(&format!("C{i}a {a} 0 {}\n", c / 2.0));
            deck.push_str(&format!("C{i}b {b} 0 {}\n", c / 2.0));
        }
        deck.push_str(".end\n");
        extract_rc(&parse(&deck).unwrap(), &[]).unwrap().network
    }

    #[test]
    fn paper_example_one_pole_at_4_7_ghz() {
        // 100-segment line, 5 % tolerance, 5 GHz max frequency: the paper
        // reports a single retained pole at 4.7 GHz.
        let net = rc_line(100);
        assert_eq!(net.num_internal(), 99);
        let opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05).unwrap());
        let red = reduce_network(&net, &opts).unwrap();
        assert_eq!(
            red.model.num_poles(),
            1,
            "expected exactly one pole below {:.3} GHz",
            opts.cutoff.cutoff_frequency() / 1e9
        );
        let f_pole = red.model.pole_frequencies()[0];
        assert!(
            (f_pole - 4.7e9).abs() / 4.7e9 < 0.05,
            "pole at {:.3} GHz, paper says 4.7 GHz",
            f_pole / 1e9
        );
    }

    #[test]
    fn reduced_admittance_tracks_exact_below_fmax() {
        let net = rc_line(60);
        let stamped = net.stamp();
        let parts = Partitions::split(&stamped);
        let full = FullAdmittance::new(&parts);
        let spec = CutoffSpec::new(3e9, 0.05).unwrap();
        let red = reduce_network(&net, &ReduceOptions::new(spec)).unwrap();
        // Sample the magnitude of Y11 and Y12 up to f_max; relative error
        // must stay within ~tolerance.
        for k in 0..12 {
            let f = 10f64.powf(7.0 + (k as f64) * (9.477 - 7.0) / 11.0); // up to 3 GHz
            let ye = full.y_at(f).unwrap();
            let yr = red.model.y_at(f);
            for (i, j) in [(0, 0), (0, 1), (1, 1)] {
                let exact = ye[(i, j)].abs();
                let approx = yr[(i, j)].abs();
                assert!(
                    (approx - exact).abs() <= 0.06 * exact.max(1e-12),
                    "f={f:.3e} Y[{i}{j}] exact={exact:.4e} reduced={approx:.4e}"
                );
            }
        }
    }

    #[test]
    fn moments_are_matched_exactly() {
        // DC admittance (0th moment) of reduced == exact.
        let net = rc_line(40);
        let stamped = net.stamp();
        let parts = Partitions::split(&stamped);
        let full = FullAdmittance::new(&parts);
        let red = reduce_network(
            &net,
            &ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap()),
        )
        .unwrap();
        let y0e = full.y_at(0.0).unwrap();
        let y0r = red.model.y_at(0.0);
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (y0e[(i, j)].re - y0r[(i, j)].re).abs()
                        <= 1e-10 * y0e[(i, j)].re.abs().max(1e-12),
                    "DC moment mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn laso_and_dense_strategies_agree() {
        let net = rc_line(50);
        let spec = CutoffSpec::new(5e9, 0.05).unwrap();
        let mut opts = ReduceOptions::new(spec);
        opts.eigen_backend = EigenSelect::Dense;
        let dense = reduce_network(&net, &opts).unwrap();
        opts.eigen_backend = EigenSelect::Lanczos(LanczosConfig::default());
        let laso = reduce_network(&net, &opts).unwrap();
        assert_eq!(dense.model.num_poles(), laso.model.num_poles());
        for (a, b) in dense.model.lambdas.iter().zip(&laso.model.lambdas) {
            assert!((a - b).abs() < 1e-6 * a.abs());
        }
        // The admittances agree even though eigenvector signs may differ.
        let f = 2e9;
        let ya = dense.model.y_at(f);
        let yb = laso.model.y_at(f);
        for i in 0..2 {
            for j in 0..2 {
                assert!((ya[(i, j)] - yb[(i, j)]).abs() < 1e-8 * ya[(i, j)].abs().max(1e-12));
            }
        }
    }

    #[test]
    fn reduction_is_passive() {
        let net = rc_line(80);
        for tol in [0.01, 0.05, 0.2] {
            let red = reduce_network(
                &net,
                &ReduceOptions::new(CutoffSpec::new(4e9, tol).unwrap()),
            )
            .unwrap();
            assert!(red.model.is_passive(1e-8), "not passive at tol {tol}");
        }
    }

    #[test]
    fn higher_fmax_keeps_more_poles() {
        let net = rc_line(100);
        let count = |fmax: f64| {
            reduce_network(
                &net,
                &ReduceOptions::new(CutoffSpec::new(fmax, 0.05).unwrap()),
            )
            .unwrap()
            .model
            .num_poles()
        };
        let low = count(3e8);
        let mid = count(3e9);
        let high = count(3e10);
        assert!(low <= mid && mid <= high);
        assert!(high > low, "pole count should grow with fmax");
    }

    #[test]
    fn stats_populated_and_orderings_equivalent() {
        let net = rc_line(30);
        let spec = CutoffSpec::new(5e9, 0.05).unwrap();
        let mut opts = ReduceOptions::new(spec);
        opts.ordering = Ordering::Natural;
        let a = reduce_network(&net, &opts).unwrap();
        opts.ordering = Ordering::MinDegree;
        let b = reduce_network(&net, &opts).unwrap();
        assert_eq!(a.model.num_poles(), b.model.num_poles());
        assert!(a.stats.chol_nnz > 0);
        assert!(a.stats.modelled_memory_bytes > 0);
        assert!(a.stats.elapsed_seconds >= 0.0);
        assert_eq!(a.stats.num_internal, net.num_internal());
    }

    #[test]
    fn no_internal_nodes_degenerates_gracefully() {
        let nl = parse("* r\nV1 a 0 1\nV2 b 0 1\nR1 a b 100\nC1 a b 1p\n.end\n").unwrap();
        let net = extract_rc(&nl, &[]).unwrap().network;
        assert_eq!(net.num_internal(), 0);
        let red = reduce_network(
            &net,
            &ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap()),
        )
        .unwrap();
        assert_eq!(red.model.num_poles(), 0);
        let y = red.model.y_at(1e9);
        assert!((y[(0, 0)].re - 0.01).abs() < 1e-12);
    }

    #[test]
    fn component_reduction_matches_whole_network() {
        // Two independent ladders reduced per component must give the
        // same port admittances as reducing the union at once.
        let mut deck = String::from(
            "* two\nV1 x0 0 1\nM1 q xN 0 0 nch\nV2 y0 0 1\nM2 r yN 0 0 nch\n.model nch nmos()\n",
        );
        for (p, nseg, r, c) in [("x", 20usize, 200.0, 1.0e-12), ("y", 15, 120.0, 0.7e-12)] {
            for i in 0..nseg {
                let a = if i == 0 {
                    format!("{p}0")
                } else {
                    format!("{p}m{i}")
                };
                let b = if i == nseg - 1 {
                    format!("{p}N")
                } else {
                    format!("{p}m{}", i + 1)
                };
                deck.push_str(&format!("R{p}{i} {a} {b} {}\n", r / nseg as f64));
                deck.push_str(&format!("C{p}{i} {b} 0 {}\n", c / nseg as f64));
            }
        }
        let net = extract_rc(&parse(&deck).unwrap(), &[]).unwrap().network;
        let opts = ReduceOptions::new(CutoffSpec::new(3e9, 0.05).unwrap());
        let whole = reduce_network(&net, &opts).unwrap();
        let comps = reduce_network_components(&net, &opts).unwrap();
        assert_eq!(comps.reductions.len(), 2);
        assert_eq!(comps.floating_dropped, 0);
        assert_eq!(comps.num_poles(), whole.model.num_poles());
        assert!(comps.is_passive(1e-8));
        // Per-port admittance agreement at a few frequencies: the whole
        // model's Y is block diagonal over components.
        for f in [1e8, 1e9, 3e9] {
            let yw = whole.model.y_at(f);
            for r in &comps.reductions {
                let yc = r.model.y_at(f);
                for (i, ni) in r.model.port_names.iter().enumerate() {
                    let gi = whole.model.port_names.iter().position(|p| p == ni).unwrap();
                    for (j, nj) in r.model.port_names.iter().enumerate() {
                        let gj = whole.model.port_names.iter().position(|p| p == nj).unwrap();
                        assert!(
                            (yc[(i, j)] - yw[(gi, gj)]).abs()
                                <= 1e-9 * yw[(gi, gj)].abs().max(1e-12),
                            "component Y mismatch at f={f:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reduced_netlist_reproduces_admittance() {
        // Unstamp the reduced model, restamp the emitted elements, and
        // verify the resulting network has the same Y (SPICE-out
        // correctness).
        let net = rc_line(40);
        let spec = CutoffSpec::new(5e9, 0.05).unwrap();
        let red = reduce_network(&net, &ReduceOptions::new(spec)).unwrap();
        let els = red.model.to_netlist_elements("x", 0.0);
        let mut names = red.model.port_names.clone();
        for i in 0..red.model.num_poles() {
            names.push(format!("x_p{i}"));
        }
        let idx = |s: &str| names.iter().position(|n| n == s);
        let nn = names.len();
        let mut gt = pact_sparse::TripletMat::new(nn, nn);
        let mut ct = pact_sparse::TripletMat::new(nn, nn);
        for e in &els {
            match &e.kind {
                pact_netlist::ElementKind::Resistor { a, b, ohms } => {
                    gt.stamp_conductance(idx(a), idx(b), 1.0 / ohms);
                }
                pact_netlist::ElementKind::Capacitor { a, b, farads } => {
                    ct.stamp_conductance(idx(a), idx(b), *farads);
                }
                _ => unreachable!("unstamp only emits RC elements"),
            }
        }
        let st = pact_netlist::Stamped {
            g: gt.to_csr(),
            c: ct.to_csr(),
            num_ports: red.model.num_ports(),
        };
        let parts = Partitions::split(&st);
        let full = FullAdmittance::new(&parts);
        for &f in &[1e8, 1e9, 4e9] {
            let ya = full.y_at(f).unwrap();
            let yb = red.model.y_at(f);
            for i in 0..2 {
                for j in 0..2 {
                    assert!(
                        (ya[(i, j)] - yb[(i, j)]).abs() < 1e-6 * yb[(i, j)].abs().max(1e-12),
                        "netlist admittance mismatch at f={f:e} ({i},{j})"
                    );
                }
            }
        }
    }
}
