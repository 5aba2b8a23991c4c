//! Unstamping: turning reduced admittance matrices back into a SPICE RC
//! netlist — the output half of RCFIT's flow.
//!
//! A symmetric conductance matrix maps to elements by the inverse of the
//! stamping rule: off-diagonal `g_ij ≠ 0` becomes a resistor of
//! `−1/g_ij` ohms between nodes `i` and `j` (negative values are legal in
//! SPICE and expected in reduced models — see eq. 20 of the paper, whose
//! `C` matrix has a *positive* off-diagonal), and each row's residual sum
//! `Σ_j g_ij` becomes an element to ground.

use std::fmt;

use pact_sparse::DMat;

use crate::ast::{Element, Node};
use crate::units::SpiceValue;

/// One element that the unstamping rule finds in a `G`/`C` pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Unstamped {
    /// `'R'` for a resistor (from `G`), `'C'` for a capacitor (from `C`).
    pub letter: char,
    /// Matrix row of the first terminal.
    pub i: usize,
    /// Matrix row of the second terminal, or `None` for ground.
    pub j: Option<usize>,
    /// Ohms for a resistor, farads for a capacitor.
    pub value: f64,
}

impl Unstamped {
    /// The element's name, `<letter><prefix>_<i>_<j>`, where the element
    /// to ground has `j = i`.
    pub fn name<'a>(&'a self, prefix: &'a str) -> impl fmt::Display + 'a {
        struct Name<'a>(&'a Unstamped, &'a str);
        impl fmt::Display for Name<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let Name(u, prefix) = self;
                write!(f, "{}{prefix}_{}_{}", u.letter, u.i, u.j.unwrap_or(u.i))
            }
        }
        Name(self, prefix)
    }

    /// Writes the element as one SPICE line, `<name> <node> <node> <value>`
    /// and a newline, exactly as its [`Element`] prints: `node(i)` names
    /// row `i`, and ground is `0`.
    ///
    /// # Errors
    ///
    /// Only those of `w`.
    pub fn write_card<W: fmt::Write, N: fmt::Display>(
        &self,
        w: &mut W,
        prefix: &str,
        node: impl Fn(usize) -> N,
    ) -> fmt::Result {
        write!(w, "{} {} ", self.name(prefix), node(self.i))?;
        match self.j {
            Some(j) => write!(w, "{}", node(j))?,
            None => w.write_str("0")?,
        }
        writeln!(w, " {}", SpiceValue(self.value))
    }
}

/// The unstamping rule, the one place it lives: calls `emit` for every
/// RC element that realizes the symmetric pair `(g, c)`, row by row.
///
/// Each row `i` gives, for every `j > i` in turn, a resistor of
/// `−1/g_ij` ohms when `g_ij ≠ 0` and then a capacitor of `−c_ij` farads
/// when `c_ij ≠ 0`; then a resistor of `1/Σ_j g_ij` ohms and a capacitor
/// of `Σ_j c_ij` farads to ground. Only exact zeros emit nothing among
/// the branches; a row sum counts as zero when it is within 1e-12 of
/// the row's largest entry.
///
/// # Panics
///
/// Panics if the matrices are not square and of one size.
pub fn unstamp_each(g: &DMat<f64>, c: &DMat<f64>, mut emit: impl FnMut(Unstamped)) {
    let n = g.nrows();
    assert_eq!(g.ncols(), n, "G size mismatch");
    assert_eq!(c.nrows(), n, "C size mismatch");
    assert_eq!(c.ncols(), n, "C size mismatch");
    for i in 0..n {
        let mut grow_sum = 0.0;
        let mut crow_sum = 0.0;
        let mut grow_max = 0.0f64;
        let mut crow_max = 0.0f64;
        for j in 0..n {
            grow_max = grow_max.max(g[(i, j)].abs());
            crow_max = crow_max.max(c[(i, j)].abs());
            if j == i {
                grow_sum += g[(i, i)];
                crow_sum += c[(i, i)];
                continue;
            }
            grow_sum += g[(i, j)];
            crow_sum += c[(i, j)];
            if j < i {
                continue; // emit each branch once (upper triangle)
            }
            let gij = g[(i, j)];
            if gij != 0.0 {
                emit(Unstamped {
                    letter: 'R',
                    i,
                    j: Some(j),
                    value: -1.0 / gij,
                });
            }
            let cij = c[(i, j)];
            if cij != 0.0 {
                emit(Unstamped {
                    letter: 'C',
                    i,
                    j: Some(j),
                    value: -cij,
                });
            }
        }
        // Residual row sum stamps to ground; sums below rounding noise
        // would otherwise emit astronomically large resistors. The noise
        // floor is the *row's* own largest entry, not the global norm:
        // reduced-model rows legitimately span many decades, and a global
        // threshold silently deletes the ground elements of the small ones.
        if grow_sum.abs() <= 1e-12 * grow_max {
            grow_sum = 0.0;
        }
        if crow_sum.abs() <= 1e-12 * crow_max {
            crow_sum = 0.0;
        }
        if grow_sum != 0.0 {
            emit(Unstamped {
                letter: 'R',
                i,
                j: None,
                value: 1.0 / grow_sum,
            });
        }
        if crow_sum != 0.0 {
            emit(Unstamped {
                letter: 'C',
                i,
                j: None,
                value: crow_sum,
            });
        }
    }
}

/// Unstamps a symmetric `G`/`C` matrix pair into RC elements: the
/// elements of [`unstamp_each`], collected.
///
/// `node_names[i]` names matrix row `i`; names are typically the original
/// port names followed by synthesized internal names, and each is shared
/// by the elements that touch it. `prefix` seeds generated element names
/// (`R<prefix>_i_j`).
///
/// # Panics
///
/// Panics if the matrices are not square and matching `node_names` in
/// size.
pub fn unstamp(g: &DMat<f64>, c: &DMat<f64>, node_names: &[String], prefix: &str) -> Vec<Element> {
    assert_eq!(g.nrows(), node_names.len(), "G size mismatch");
    let nodes: Vec<Node> = node_names.iter().map(Node::from).collect();
    let ground = Node::from("0");
    let mut out = Vec::new();
    unstamp_each(g, c, |u| {
        let name = u.name(prefix).to_string();
        let a = nodes[u.i].clone();
        let b = u.j.map_or_else(|| ground.clone(), |j| nodes[j].clone());
        out.push(if u.letter == 'R' {
            Element::resistor(name, a, b, u.value)
        } else {
            Element::capacitor(name, a, b, u.value)
        });
    });
    out
}

/// Sparsification heuristic (Section 5 of the paper): zeroes off-diagonal
/// entries with magnitude below `tol · max|entry|`, adding the dropped
/// magnitude onto both touching diagonals. This preserves weak diagonal
/// dominance — hence non-negative definiteness, hence passivity — while
/// shrinking the emitted element count.
///
/// Returns the number of off-diagonal entries dropped.
pub fn sparsify_preserving_passivity(m: &mut DMat<f64>, tol: f64) -> usize {
    let n = m.nrows();
    assert_eq!(n, m.ncols(), "sparsify needs a square matrix");
    if n == 0 || tol <= 0.0 {
        return 0;
    }
    let scale = m.norm_max();
    let threshold = tol * scale;
    let mut dropped = 0;
    for i in 0..n {
        for j in i + 1..n {
            let v = m[(i, j)];
            if v != 0.0 && v.abs() < threshold {
                m[(i, j)] = 0.0;
                m[(j, i)] = 0.0;
                // Compensate: moving ±v to the diagonal keeps each row's
                // dominance margin intact or better.
                m[(i, i)] += v.abs();
                m[(j, j)] += v.abs();
                dropped += 1;
            }
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ElementKind;
    use pact_sparse::TripletMat;

    /// Re-stamps unstamped elements manually (reduced models may contain
    /// negative R/C, which the strict extractor rejects by design) and
    /// compares with the source matrices.
    fn roundtrip_check(g: &DMat<f64>, c: &DMat<f64>, names: &[String]) {
        let elements = unstamp(g, c, names, "x");
        let n = names.len();
        let idx = |name: &str| -> Option<usize> {
            if name == "0" {
                None
            } else {
                Some(names.iter().position(|x| x == name).unwrap())
            }
        };
        let mut gt = TripletMat::new(n, n);
        let mut ct = TripletMat::new(n, n);
        for e in &elements {
            match &e.kind {
                ElementKind::Resistor { a, b, ohms } => {
                    gt.stamp_conductance(idx(a), idx(b), 1.0 / ohms);
                }
                ElementKind::Capacitor { a, b, farads } => {
                    ct.stamp_conductance(idx(a), idx(b), *farads);
                }
                _ => panic!("unstamp emitted a non-RC element"),
            }
        }
        let (gs, cs) = (gt.to_csr(), ct.to_csr());
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (gs.get(i, j) - g[(i, j)]).abs() <= 1e-12 * g.norm_max().max(1.0),
                    "G mismatch at ({i},{j})"
                );
                assert!(
                    (cs.get(i, j) - c[(i, j)]).abs() <= 1e-12 * c.norm_max().max(1.0),
                    "C mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn simple_roundtrip() {
        // The paper's eq. (20) G matrix (in siemens) — diagonal-dominant.
        let g = DMat::from_rows(&[&[4e-3, -4e-3, 0.0], &[-4e-3, 4e-3, 0.0], &[0.0, 0.0, 32e-3]]);
        let c = DMat::from_rows(&[
            &[443e-15, 225e-15, -547e-15],
            &[225e-15, 457e-15, -547e-15],
            &[-547e-15, -547e-15, 1094e-15],
        ]);
        let names: Vec<String> = vec!["p1".into(), "p2".into(), "i1".into()];
        let elements = unstamp(&g, &c, &names, "r");
        // The +225f off-diagonal must emit a negative capacitor.
        let neg_cap = elements
            .iter()
            .any(|e| matches!(e.kind, ElementKind::Capacitor { farads, .. } if farads < 0.0));
        assert!(neg_cap, "expected a negative capacitor for +C off-diagonal");
        roundtrip_check(&g, &c, &names);
    }

    #[test]
    fn written_cards_match_the_collected_elements() {
        let g = DMat::from_rows(&[&[3e-3, -1e-3], &[-1e-3, 1e-3]]);
        let c = DMat::from_rows(&[&[2e-12, 5e-13], &[5e-13, 1e-12]]);
        let names: Vec<String> = vec!["a".into(), "b".into()];
        let mut text = String::new();
        unstamp_each(&g, &c, |u| {
            u.write_card(&mut text, "t", |i| &names[i]).unwrap();
        });
        let collected: String = unstamp(&g, &c, &names, "t")
            .iter()
            .map(|e| format!("{e}\n"))
            .collect();
        assert_eq!(text, collected);
        assert!(text.starts_with("Rt_0_1 a b 1.000000k\n"), "{text}");
    }

    #[test]
    fn zero_rows_emit_nothing() {
        let z = DMat::zeros(2, 2);
        let names: Vec<String> = vec!["a".into(), "b".into()];
        assert!(unstamp(&z, &z, &names, "z").is_empty());
    }

    #[test]
    fn grounded_residual() {
        // G row sums nonzero → resistor to ground of 1/rowsum.
        let g = DMat::from_rows(&[&[3e-3, -1e-3], &[-1e-3, 1e-3]]);
        let c = DMat::zeros(2, 2);
        let names: Vec<String> = vec!["a".into(), "b".into()];
        let els = unstamp(&g, &c, &names, "t");
        // a: branch a-b of 1/1e-3 = 1k, ground res of 1/2e-3 = 500.
        let mut found_ground = false;
        for e in &els {
            if let ElementKind::Resistor { a, b, ohms } = &e.kind {
                if a == "a" && b == "0" {
                    assert!((ohms - 500.0).abs() < 1e-9);
                    found_ground = true;
                }
            }
        }
        assert!(found_ground);
    }

    #[test]
    fn sparsify_drops_and_compensates() {
        let mut m = DMat::from_rows(&[&[1.0, -1e-6, -0.5], &[-1e-6, 1.0, 0.0], &[-0.5, 0.0, 1.0]]);
        let dropped = sparsify_preserving_passivity(&mut m, 1e-3);
        assert_eq!(dropped, 1);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m[(1, 0)], 0.0);
        assert!((m[(0, 0)] - (1.0 + 1e-6)).abs() < 1e-15);
        // Still weakly diagonally dominant.
        for i in 0..3 {
            let off: f64 = (0..3).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            assert!(m[(i, i)] >= off);
        }
    }

    #[test]
    fn sparsify_noop_cases() {
        let mut m = DMat::identity(3);
        assert_eq!(sparsify_preserving_passivity(&mut m, 1e-3), 0);
        let mut empty = DMat::zeros(0, 0);
        assert_eq!(sparsify_preserving_passivity(&mut empty, 0.5), 0);
    }
}
