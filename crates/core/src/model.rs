//! The reduced-order model produced by PACT and its evaluations.
//!
//! After both congruence transforms and pole dropping, the network is
//! described by (eq. 10–12 of the paper):
//!
//! ```text
//! G'' = [ A'  0 ]        C'' = [ B'   R''ᵀ ]
//!       [ 0   I ]               [ R''  Λ    ]
//!
//! Y(s) = A' + sB' − Σᵢ s² rᵢᵀrᵢ / (1 + s λᵢ)
//! ```
//!
//! with one retained pole per row `rᵢ` of `R''` at `s = −1/λᵢ`.

use std::collections::HashSet;
use std::fmt::{self, Write};

use pact_netlist::{sparsify_preserving_passivity, unstamp, unstamp_each, Element, NoCase};
use pact_sparse::{sym_eig, Complex64, DMat, EigenError};

/// A passive reduced-order multiport RC model.
#[derive(Clone, Debug)]
pub struct ReducedModel {
    /// Exact DC port conductance `A'` (`m×m`).
    pub a1: DMat<f64>,
    /// Exact first-moment port susceptance `B'` (`m×m`).
    pub b1: DMat<f64>,
    /// Transformed connection rows `R''` (`k×m`), one per retained pole.
    pub r2: DMat<f64>,
    /// Retained eigenvalues `λᵢ` of `E'` (descending), each a pole at
    /// `−1/λᵢ` rad/s.
    pub lambdas: Vec<f64>,
    /// Port node names (length `m`), preserved for netlist output.
    pub port_names: Vec<String>,
}

impl ReducedModel {
    /// Number of ports `m`.
    pub fn num_ports(&self) -> usize {
        self.a1.nrows()
    }

    /// Number of retained poles = internal nodes of the reduced network.
    pub fn num_poles(&self) -> usize {
        self.lambdas.len()
    }

    /// Retained pole frequencies in Hz (ascending).
    pub fn pole_frequencies(&self) -> Vec<f64> {
        let mut f: Vec<f64> = self
            .lambdas
            .iter()
            .map(|l| 1.0 / (2.0 * std::f64::consts::PI * l))
            .collect();
        f.sort_by(|a, b| a.partial_cmp(b).unwrap());
        f
    }

    /// Evaluates the reduced multiport admittance `Y(jω)` at frequency
    /// `f` Hz (eq. 12).
    pub fn y_at(&self, f: f64) -> DMat<Complex64> {
        let m = self.num_ports();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        let s2 = s * s;
        let mut y = DMat::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                y[(i, j)] = Complex64::from_real(self.a1[(i, j)]) + s.scale(self.b1[(i, j)]);
            }
        }
        for (p, &lam) in self.lambdas.iter().enumerate() {
            let denom = Complex64::ONE + s.scale(lam);
            let coef = s2 / denom;
            for i in 0..m {
                let ri = self.r2[(p, i)];
                if ri == 0.0 {
                    continue;
                }
                for j in 0..m {
                    let rj = self.r2[(p, j)];
                    if rj != 0.0 {
                        y[(i, j)] -= coef.scale(ri * rj);
                    }
                }
            }
        }
        y
    }

    /// Assembles the reduced `(G'', C'')` matrices of dimension `m + k`
    /// (ports first, then one internal node per retained pole).
    pub fn to_matrices(&self) -> (DMat<f64>, DMat<f64>) {
        self.matrices_with_scale(false)
    }

    /// Like [`ReducedModel::to_matrices`], but each internal row is
    /// rescaled by the diagonal congruence `α_p = −Σ_j r''_pj / λ_p`, which
    /// zeroes the internal rows' capacitive ground terms. `Y(s)` is
    /// invariant; the emitted netlist needs one fewer element per pole and
    /// its values sit in a physical range (this is the normalization behind
    /// the paper's eq. 20, whose internal diagonal is 32 mS rather than
    /// 1 S).
    ///
    /// Poles whose residue row sum (nearly) cancels — every antisymmetric
    /// mode of a structurally symmetric network — are left in the raw
    /// `α = 1` basis: eq. 20's scaling degenerates there (`α → 0`), and
    /// while the rescaled stamp stays algebraically exact, its
    /// `α² ≈ 1e-33 S` internal diagonal drowns under any simulator's GMIN
    /// and rounding floor, silently corrupting that pole's contribution.
    pub fn to_matrices_normalized(&self) -> (DMat<f64>, DMat<f64>) {
        self.matrices_with_scale(true)
    }

    fn matrices_with_scale(&self, normalize: bool) -> (DMat<f64>, DMat<f64>) {
        // Smallest |α| eq. 20 is allowed to produce: keeps the internal
        // conductance α² at or above 100 µS, ~8 decades clear of SPICE
        // GMIN (1e-12 S) so the realized deck simulates to full accuracy.
        const ALPHA_MIN: f64 = 1e-2;
        let m = self.num_ports();
        let k = self.num_poles();
        let dim = m + k;
        let mut g = DMat::zeros(dim, dim);
        let mut c = DMat::zeros(dim, dim);
        for i in 0..m {
            for j in 0..m {
                g[(i, j)] = self.a1[(i, j)];
                c[(i, j)] = self.b1[(i, j)];
            }
        }
        for p in 0..k {
            let row_sum: f64 = (0..m).map(|j| self.r2[(p, j)]).sum();
            let alpha = if normalize && self.lambdas[p] > 0.0 {
                let a = -row_sum / self.lambdas[p];
                if a.abs() >= ALPHA_MIN {
                    a
                } else {
                    1.0
                }
            } else {
                1.0
            };
            g[(m + p, m + p)] = alpha * alpha;
            c[(m + p, m + p)] = alpha * alpha * self.lambdas[p];
            for j in 0..m {
                c[(m + p, j)] = alpha * self.r2[(p, j)];
                c[(j, m + p)] = alpha * self.r2[(p, j)];
            }
        }
        (g, c)
    }

    /// Verifies passivity: both reduced matrices must be non-negative
    /// definite (the paper's Section 3 invariant). Returns the smallest
    /// eigenvalue of each, which must be ≥ `−tol·‖M‖`.
    ///
    /// # Errors
    ///
    /// Propagates [`EigenError`] from the dense eigensolver.
    pub fn passivity_margins(&self) -> Result<(f64, f64), EigenError> {
        let (g, c) = self.to_matrices();
        let ge = sym_eig(&g)?;
        let ce = sym_eig(&c)?;
        Ok((
            ge.values.first().copied().unwrap_or(0.0),
            ce.values.first().copied().unwrap_or(0.0),
        ))
    }

    /// `true` when both matrices are non-negative definite within a
    /// relative tolerance.
    pub fn is_passive(&self, rel_tol: f64) -> bool {
        match self.passivity_margins() {
            Ok((gmin, cmin)) => {
                let (g, c) = self.to_matrices();
                gmin >= -rel_tol * g.norm_max().max(1e-300)
                    && cmin >= -rel_tol * c.norm_max().max(1e-300)
            }
            Err(_) => false,
        }
    }

    /// The `(G'', C'')` that are realized: normalized
    /// ([`ReducedModel::to_matrices_normalized`]), then sparsified with
    /// threshold `sparsify_tol` (0 disables).
    fn realized_matrices(&self, sparsify_tol: f64) -> (DMat<f64>, DMat<f64>) {
        let (mut g, mut c) = self.to_matrices_normalized();
        if sparsify_tol > 0.0 {
            sparsify_preserving_passivity(&mut g, sparsify_tol);
            sparsify_preserving_passivity(&mut c, sparsify_tol);
        }
        (g, c)
    }

    /// The name of row `i` of the realized matrices: port `i`'s name, or
    /// `<prefix>_p<k>` for the node of retained pole `k = i − m`.
    fn row_name<'a>(&'a self, prefix: &'a str, i: usize) -> RowName<'a> {
        match self.port_names.get(i) {
            Some(port) => RowName::Port(port),
            None => RowName::Pole(prefix, i - self.num_ports()),
        }
    }

    /// Writes the reduced model's SPICE RC cards into `out`, one line per
    /// element, and returns how many it wrote: the walk of
    /// [`pact_netlist::unstamp_each`] over the realized matrices, with no
    /// element built. The lines are exactly those of
    /// [`ReducedModel::to_netlist_elements`], printed in order.
    ///
    /// Allocates the two matrices, and reserves room in `out` for the
    /// lines once, estimated from a first pass that counts the elements.
    pub fn write_cards(&self, out: &mut String, prefix: &str, sparsify_tol: f64) -> usize {
        let (g, c) = self.realized_matrices(sparsify_tol);
        let mut count = 0;
        unstamp_each(&g, &c, |_| count += 1);
        // Name, two nodes, a value of `{:.6}` plus a suffix, three
        // spaces and a newline.
        let digits = |n: usize| n.max(1).ilog10() as usize + 1;
        let name = 3 + prefix.len() + 2 * digits(g.nrows());
        let pole = prefix.len() + 2 + digits(self.num_poles());
        let node = self
            .port_names
            .iter()
            .map(String::len)
            .fold(pole, usize::max);
        out.reserve(count * (name + 2 * node + 12 + 4));
        unstamp_each(&g, &c, |u| {
            u.write_card(out, prefix, |i| self.row_name(prefix, i))
                .expect("writing to a String cannot fail");
        });
        count
    }

    /// Converts the reduced model into SPICE RC elements (possibly with
    /// negative values — reduced models generally need them), applying the
    /// sparsification heuristic with threshold `sparsify_tol` (0 disables):
    /// the elements of [`ReducedModel::write_cards`], collected.
    ///
    /// Internal nodes are named `<prefix>_p<i>`.
    pub fn to_netlist_elements(&self, prefix: &str, sparsify_tol: f64) -> Vec<Element> {
        let (g, c) = self.realized_matrices(sparsify_tol);
        let names: Vec<String> = (0..g.nrows())
            .map(|i| self.row_name(prefix, i).to_string())
            .collect();
        unstamp(&g, &c, &names, prefix)
    }
}

/// A row of a reduced model's realized matrices, as its node is named.
enum RowName<'a> {
    Port(&'a str),
    Pole(&'a str, usize),
}

impl fmt::Display for RowName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowName::Port(name) => f.write_str(name),
            RowName::Pole(prefix, k) => write!(f, "{prefix}_p{k}"),
        }
    }
}

/// The prefix under which reduced models enter a deck without merging a
/// pole node into one of the deck's nets.
///
/// `models(p)` lists the models with the prefix each takes when the
/// deck's prefix is `p` (`p` itself, or `p` followed by a component
/// number); a model under prefix `q` adds the pole nodes that
/// [`ReducedModel::write_cards`] names `q_p0`, `q_p1`, …. This returns
/// `prefix` when no name in `taken` equals one of those pole nodes
/// (ignoring ASCII case, as SPICE simulators do), and otherwise `prefix`
/// with the fewest `x`s appended that avoids them all. Each taken name
/// blocks at most one count of `x`s, so the search ends.
pub fn pole_safe_prefix<'a, 'm>(
    prefix: &str,
    taken: impl IntoIterator<Item = &'a str>,
    models: impl Fn(&str) -> Vec<(String, &'m ReducedModel)>,
) -> String {
    // Every candidate starts with `prefix`, and so does each of its pole
    // nodes: no other name can clash.
    let names: HashSet<NoCase<'_>> = taken
        .into_iter()
        .filter(|name| {
            name.get(..prefix.len())
                .is_some_and(|head| head.eq_ignore_ascii_case(prefix))
        })
        .map(NoCase)
        .collect();
    let mut pole = String::new();
    let mut clashes = |q: &str, k: usize| {
        pole.clear();
        write!(pole, "{}", RowName::Pole(q, k)).expect("writing to a String cannot fail");
        names.contains(&NoCase(&pole))
    };
    let mut candidate = prefix.to_owned();
    while models(&candidate)
        .iter()
        .any(|(q, model)| (0..model.num_poles()).any(|k| clashes(q, k)))
    {
        candidate.push('x');
    }
    candidate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> ReducedModel {
        // 2 ports, 1 pole — shaped like the paper's eq. (20) example.
        ReducedModel {
            a1: DMat::from_rows(&[&[4e-3, -4e-3], &[-4e-3, 4e-3]]),
            b1: DMat::from_rows(&[&[443e-15, 225e-15], &[225e-15, 457e-15]]),
            r2: DMat::from_rows(&[&[-16.5e-9, -16.5e-9]]),
            lambdas: vec![1.0 / (2.0 * std::f64::consts::PI * 4.7e9)],
            port_names: vec!["1".into(), "2".into()],
        }
    }

    #[test]
    fn counts_and_pole_frequencies() {
        let m = toy_model();
        assert_eq!(m.num_ports(), 2);
        assert_eq!(m.num_poles(), 1);
        let f = m.pole_frequencies();
        assert!((f[0] - 4.7e9).abs() / 4.7e9 < 1e-12);
    }

    #[test]
    fn dc_admittance_is_a1() {
        let m = toy_model();
        let y0 = m.y_at(0.0);
        for i in 0..2 {
            for j in 0..2 {
                assert!((y0[(i, j)].re - m.a1[(i, j)]).abs() < 1e-18);
                assert_eq!(y0[(i, j)].im, 0.0);
            }
        }
    }

    #[test]
    fn low_frequency_slope_is_b1() {
        let m = toy_model();
        let f = 1e2; // far below the pole: Y ≈ A' + jωB' + O(ω³)
        let y = m.y_at(f);
        let w = 2.0 * std::f64::consts::PI * f;
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (y[(i, j)].im - w * m.b1[(i, j)]).abs() < 1e-4 * w * m.b1[(i, j)].abs(),
                    "imag mismatch at ({i},{j}): {} vs {}",
                    y[(i, j)].im,
                    w * m.b1[(i, j)]
                );
            }
        }
    }

    #[test]
    fn matrices_shape_and_symmetry() {
        let m = toy_model();
        let (g, c) = m.to_matrices();
        assert_eq!(g.nrows(), 3);
        assert_eq!(g.asymmetry(), 0.0);
        assert_eq!(c.asymmetry(), 0.0);
        assert_eq!(g[(2, 2)], 1.0);
        assert_eq!(c[(2, 2)], m.lambdas[0]);
        assert_eq!(c[(2, 0)], m.r2[(0, 0)]);
    }

    #[test]
    fn netlist_elements_restamp_to_matrices() {
        let m = toy_model();
        let els = m.to_netlist_elements("red", 0.0);
        assert!(!els.is_empty());
        // Every element references a known node.
        for e in &els {
            for n in e.nodes() {
                assert!(
                    n == "0" || n == "1" || n == "2" || n.starts_with("red_p"),
                    "unknown node {n}"
                );
            }
        }
    }

    #[test]
    fn written_cards_print_the_collected_elements() {
        let m = toy_model();
        for tol in [0.0, 1e-9, 0.3] {
            let mut text = String::new();
            let n = m.write_cards(&mut text, "red", tol);
            let els = m.to_netlist_elements("red", tol);
            assert_eq!(n, els.len());
            let collected: String = els.iter().map(|e| format!("{e}\n")).collect();
            assert_eq!(text, collected, "sparsify {tol}");
        }
    }

    /// A 2-port model with `k` poles.
    fn with_poles(k: usize) -> ReducedModel {
        ReducedModel {
            r2: DMat::zeros(k, 2),
            lambdas: vec![1e-10; k],
            ..toy_model()
        }
    }

    #[test]
    fn pole_prefix_avoids_only_real_clashes() {
        let two = with_poles(2);
        let lone = |p: &str| vec![(p.to_owned(), &two)];
        // No clash: the prefix stays.
        let taken = ["in", "rcfit_p2", "rcfit_p01"];
        assert_eq!(pole_safe_prefix("rcfit", taken, lone), "rcfit");
        // A deck net named like pole 1 moves every pole node.
        let taken = ["RCFIT_P1", "rcfitx_p0"];
        assert_eq!(pole_safe_prefix("rcfit", taken, lone), "rcfitxx");
        // Per-component prefixes: component 1 has no pole 3, and no
        // component is named by the bare prefix.
        let (one, three) = (with_poles(1), with_poles(3));
        let components = |p: &str| vec![(format!("{p}0"), &one), (format!("{p}1"), &three)];
        let taken = ["rcfit1_p3", "rcfit_p0"];
        assert_eq!(pole_safe_prefix("rcfit", taken, components), "rcfit");
        let taken = ["rcfit1_p2"];
        assert_eq!(pole_safe_prefix("rcfit", taken, components), "rcfitx");
        // A model without poles adds no pole node to clash with.
        let none = with_poles(0);
        let lone = |p: &str| vec![(p.to_owned(), &none)];
        assert_eq!(pole_safe_prefix("x", ["x_p0"], lone), "x");
    }

    #[test]
    fn normalized_matrices_zero_internal_ground_caps() {
        let m = toy_model();
        let (g, c) = m.to_matrices_normalized();
        // Internal row sum of C must be (numerically) zero.
        let row: f64 = (0..3).map(|j| c[(2, j)]).sum();
        assert!(row.abs() < 1e-18 * c.norm_max());
        // Same pole: λ = C/G on the internal diagonal is preserved.
        assert!((c[(2, 2)] / g[(2, 2)] - m.lambdas[0]).abs() < 1e-22);
        // And matches the paper's eq. 20 shape: off-diagonals of C equal
        // the negated half of the internal diagonal.
        assert!((c[(2, 0)] - c[(2, 1)]).abs() < 1e-25);
        assert!((c[(2, 2)] + 2.0 * c[(2, 0)]).abs() < 1e-18 * c.norm_max());
    }

    #[test]
    fn y_matrix_is_symmetric_at_all_frequencies() {
        let m = toy_model();
        for &f in &[1e6, 1e8, 1e9, 5e9, 2e10] {
            let y = m.y_at(f);
            for i in 0..2 {
                for j in 0..i {
                    assert!((y[(i, j)] - y[(j, i)]).abs() < 1e-18);
                }
            }
        }
    }
}
