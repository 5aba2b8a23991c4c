//! Explicit moment computation and AWE-style Padé approximation.
//!
//! Asymptotic Waveform Evaluation expands the port admittance in moments
//! at `s = 0` and fits poles/residues through a Padé approximation
//! solved from a Hankel system. The paper's Section 1 critique — the
//! moment matrix becomes numerically ill-conditioned as the order grows,
//! so more moments do **not** mean a better fit, and stability is not
//! guaranteed — is directly observable with this implementation (see the
//! `hankel_conditioning_degrades` test and the ablation bench).

use pact::Partitions;
use pact_sparse::{Complex64, DMat, DenseLu, FactorError, SparseCholesky};

/// Moment sequence of one admittance entry `Y_ij(s) = Σ_k m_k s^k`.
#[derive(Clone, Debug)]
pub struct MomentSeries {
    /// Moments `m_0 … m_K`.
    pub moments: Vec<f64>,
}

/// Computes the first `count` moments of every port-pair admittance:
/// result `[k]` is the `m×m` matrix of `k`-th moments.
///
/// The expansion follows eq. (3): with `X_0 = D⁻¹(Q + sR)` expanded in
/// powers of `s`, each moment needs one sparse solve per port.
///
/// # Errors
///
/// [`FactorError`] when `D` is not positive definite.
pub fn admittance_moments(parts: &Partitions, count: usize) -> Result<Vec<DMat<f64>>, FactorError> {
    let m = parts.m;
    let n = parts.n;
    let chol = SparseCholesky::factor(&parts.d)?;
    let mut out: Vec<DMat<f64>> = Vec::with_capacity(count);
    // Moment 0: A − QᵀD⁻¹Q;  moment 1: B − QᵀD⁻¹R − RᵀD⁻¹Q + XᵀEX …
    // computed per port column via the recursion
    //   u_0 = D⁻¹ q_j,  u_1 = D⁻¹ (r_j − E u_0),  u_k = −D⁻¹ E u_{k−1}
    // giving (D + sE)⁻¹(q_j + s r_j) = Σ_k u_k s^k, so
    //   Y(s)(:,j) = A(:,j) + sB(:,j) − (Q + sR)ᵀ Σ_k u_k s^k.
    let qt = parts.q.transpose();
    let rt = parts.r.transpose();
    for _ in 0..count {
        out.push(DMat::zeros(m, m));
    }
    // Constant parts.
    for k in 0..count.min(2) {
        let src = if k == 0 { &parts.a } else { &parts.b };
        for i in 0..m {
            for (j, v) in src.row_iter(i) {
                out[k][(i, j)] += v;
            }
        }
    }
    if n == 0 {
        return Ok(out);
    }
    let col_of = |t: &pact_sparse::CsrMat, j: usize| {
        let mut v = vec![0.0; n];
        for (i, val) in t.row_iter(j) {
            v[i] = val;
        }
        v
    };
    for j in 0..m {
        let qj = col_of(&qt, j);
        let rj = col_of(&rt, j);
        let mut u_prev = chol.solve(&qj); // u_0
        for k in 0..count {
            // moment k gets −(Qᵀ u_k + Rᵀ u_{k−1})
            let qtu = parts.q.matvec_t(&u_prev);
            for i in 0..m {
                out[k][(i, j)] -= qtu[i];
            }
            if k + 1 < count {
                let rtu = parts.r.matvec_t(&u_prev);
                for i in 0..m {
                    out[k + 1][(i, j)] -= rtu[i];
                }
            }
            // u_{k+1} = D⁻¹ (δ_{k,0}·r_j − E u_k)
            if k + 1 < count {
                let mut rhs = parts.e.matvec(&u_prev);
                for v in rhs.iter_mut() {
                    *v = -*v;
                }
                if k == 0 {
                    for (x, r) in rhs.iter_mut().zip(&rj) {
                        *x += r;
                    }
                }
                u_prev = chol.solve(&rhs);
            }
        }
    }
    Ok(out)
}

/// A scalar pole/residue model fitted by AWE from `2q` moments:
/// `y(s) ≈ m0 + m1·s + s²·Σ r_i/(1 − s/p_i)`-style rational form.
///
/// Internally the classic AWE form is used: `h(s) = Σ k_i/(s − p_i)`
/// matched to the moment series of the *remainder* after the first two
/// (exactly-matched) moments.
#[derive(Clone, Debug)]
pub struct PadeModel {
    /// Matched zeroth/first moments (kept exact, like PACT).
    pub m0: f64,
    /// First moment.
    pub m1: f64,
    /// Pole locations (should be real negative for RC; AWE can produce
    /// positive or complex ones — that is its documented failure mode).
    pub poles: Vec<Complex64>,
    /// Residues paired with `poles`.
    pub residues: Vec<Complex64>,
    /// Estimated condition number of the Hankel system solved.
    pub hankel_condition: f64,
    /// Number of unstable (right-half-plane) poles that were produced.
    pub unstable_poles: usize,
}

/// Error from the Padé fit.
#[derive(Clone, Debug, PartialEq)]
pub enum PadeError {
    /// Not enough moments for the requested order (`need`, `got`).
    NotEnoughMoments {
        /// Required count.
        need: usize,
        /// Provided count.
        got: usize,
    },
    /// The Hankel system was numerically singular.
    SingularHankel,
}

impl std::fmt::Display for PadeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PadeError::NotEnoughMoments { need, got } => {
                write!(f, "padé needs {need} moments, got {got}")
            }
            PadeError::SingularHankel => write!(f, "singular Hankel system"),
        }
    }
}

impl std::error::Error for PadeError {}

/// Fits a `q`-pole AWE model to a scalar moment sequence
/// (`moments[k]` = `m_k`). Moments 0 and 1 are reproduced exactly; poles
/// are fitted to moments `2 … 2q+1`.
///
/// # Errors
///
/// [`PadeError`] if fewer than `2q + 2` moments are supplied or the
/// Hankel system cannot be solved.
pub fn pade_fit(moments: &[f64], q: usize) -> Result<PadeModel, PadeError> {
    let need = 2 * q + 2;
    if moments.len() < need {
        return Err(PadeError::NotEnoughMoments {
            need,
            got: moments.len(),
        });
    }
    // Remainder series: c_k = moments[k+2], k = 0 … 2q−1.
    let c: Vec<f64> = moments[2..2 + 2 * q].to_vec();
    // Solve the Hankel system  H a = −c_tail  for the denominator
    // coefficients of the Padé approximation.
    let mut h = DMat::zeros(q, q);
    for i in 0..q {
        for j in 0..q {
            h[(i, j)] = c[i + j];
        }
    }
    let rhs: Vec<f64> = (0..q).map(|i| -c[q + i]).collect();
    let cond = condition_estimate(&h);
    let lu = DenseLu::factor(&h).map_err(|_| PadeError::SingularHankel)?;
    let a = lu.solve(&rhs);
    // Characteristic polynomial: x^q + a_{q-1} x^{q-1} + … + a_0, whose
    // roots are 1/p_i. (AWE convention.)
    let mut poly = vec![1.0];
    for k in (0..q).rev() {
        poly.push(a[k]);
    }
    let roots = real_polynomial_roots(&poly);
    if roots.len() < q {
        return Err(PadeError::SingularHankel);
    }
    // Roots are x_i = 1/p_i; the remainder series is
    //   g(s) = Σ_k c_k s^k ≈ Σ_i a_i / (1 − s·x_i),  c_k = Σ_i a_i x_i^k.
    let poles: Vec<Complex64> = roots
        .iter()
        .map(|&x| {
            if x.abs() < 1e-300 {
                Complex64::from_real(-1e300)
            } else {
                Complex64::from_real(1.0 / x)
            }
        })
        .collect();
    // Residues a_i from the first q remainder moments (Vandermonde in x).
    let mut v = DMat::<Complex64>::zeros(q, q);
    for (col, &x) in roots.iter().enumerate() {
        let xi = Complex64::from_real(x);
        let mut acc = Complex64::ONE;
        for row in 0..q {
            v[(row, col)] = acc;
            acc *= xi;
        }
    }
    let rhs_c: Vec<Complex64> = (0..q).map(|k| Complex64::from_real(c[k])).collect();
    let residues = match DenseLu::factor(&v) {
        Ok(lu) => lu.solve(&rhs_c),
        Err(_) => return Err(PadeError::SingularHankel),
    };
    let unstable = poles.iter().filter(|p| p.re > 0.0).count();
    Ok(PadeModel {
        m0: moments[0],
        m1: moments[1],
        poles,
        residues,
        hankel_condition: cond,
        unstable_poles: unstable,
    })
}

impl PadeModel {
    /// Evaluates the fitted rational model at `s = j·2πf`.
    pub fn y_at(&self, f: f64) -> Complex64 {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        let mut y = Complex64::from_real(self.m0) + s.scale(self.m1);
        // Remainder s²·g(s) with g(s) = Σ a_i/(1 − s/p_i), matching the
        // moment series from s² upward.
        for (p, a) in self.poles.iter().zip(&self.residues) {
            y += s * s * *a / (Complex64::ONE - s / *p);
        }
        y
    }

    /// `true` when all poles are in the open left half-plane.
    pub fn is_stable(&self) -> bool {
        self.unstable_poles == 0
    }
}

/// Rough 1-norm condition estimate via explicit inverse (fine for the
/// small Hankel matrices AWE uses).
fn condition_estimate(h: &DMat<f64>) -> f64 {
    let norm1 = |m: &DMat<f64>| -> f64 {
        let mut worst = 0.0f64;
        for j in 0..m.ncols() {
            let s: f64 = (0..m.nrows()).map(|i| m[(i, j)].abs()).sum();
            worst = worst.max(s);
        }
        worst
    };
    match pact_sparse::invert(h) {
        Ok(inv) => norm1(h) * norm1(&inv),
        Err(_) => f64::INFINITY,
    }
}

/// All real roots of a real polynomial (highest degree first) via
/// eigenvalues of the companion matrix; complex pairs are returned as
/// their real parts paired (adequate for diagnostics — RC networks have
/// real poles, deviations signal Padé breakdown).
fn real_polynomial_roots(poly: &[f64]) -> Vec<f64> {
    let n = poly.len() - 1;
    if n == 0 {
        return Vec::new();
    }
    // Companion matrix (monic).
    let mut comp = DMat::zeros(n, n);
    for i in 1..n {
        comp[(i, i - 1)] = 1.0;
    }
    for i in 0..n {
        comp[(i, n - 1)] = -poly[n - i];
    }
    // The companion matrix is not symmetric; use the symmetrized QR-free
    // approach: roots of RC Padé denominators are real, so Newton from
    // deflation works. Use eigenvalues of comp via the unsymmetric power
    // method + deflation for robustness at small n.
    unsymmetric_real_eigs(&comp)
}

/// Real eigenvalues of a small unsymmetric matrix by shifted QR on the
/// symmetric part fallback: for our companion matrices (real-rooted in
/// the well-conditioned case), bisection on the characteristic
/// polynomial suffices.
fn unsymmetric_real_eigs(a: &DMat<f64>) -> Vec<f64> {
    let n = a.nrows();
    // Characteristic polynomial evaluation via det(A − xI) using LU.
    let charpoly = |x: f64| -> f64 {
        let mut m = a.clone();
        for i in 0..n {
            m[(i, i)] -= x;
        }
        match DenseLu::factor(&m) {
            Ok(lu) => lu.det(),
            Err(_) => 0.0,
        }
    };
    // Bracket roots on a log-spaced grid (poles λ are positive time
    // constants in AWE companion form; scan both signs).
    let mut roots = Vec::new();
    let mut grid: Vec<f64> = Vec::new();
    for k in -60..=60 {
        let mag = 10f64.powf(k as f64 / 4.0);
        grid.push(-mag);
        grid.push(mag);
    }
    grid.push(0.0);
    grid.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let mut prev_x = grid[0];
    let mut prev_f = charpoly(prev_x);
    for &x in &grid[1..] {
        let f = charpoly(x);
        if prev_f == 0.0 {
            roots.push(prev_x);
        } else if prev_f.signum() != f.signum() && f != 0.0 {
            // Bisection.
            let (mut lo, mut hi, mut flo) = (prev_x, x, prev_f);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                let fm = charpoly(mid);
                if fm == 0.0 {
                    lo = mid;
                    break;
                }
                if fm.signum() == flo.signum() {
                    lo = mid;
                    flo = fm;
                } else {
                    hi = mid;
                }
            }
            roots.push(0.5 * (lo + hi));
        }
        prev_x = x;
        prev_f = f;
    }
    roots.truncate(n);
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::{extract_rc, parse};

    fn ladder_parts(nseg: usize) -> Partitions {
        let mut deck = String::from("* l\nV1 p0 0 1\nI2 pN 0 0\n");
        for i in 0..nseg {
            let a = if i == 0 { "p0".into() } else { format!("n{i}") };
            let b = if i == nseg - 1 {
                "pN".into()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!("R{i} {a} {b} {}\n", 250.0 / nseg as f64));
            deck.push_str(&format!("C{i} {b} 0 {}\n", 1.35e-12 / nseg as f64));
        }
        deck.push_str(".end\n");
        let ex = extract_rc(&parse(&deck).unwrap(), &[]).unwrap();
        Partitions::split(&ex.network.stamp())
    }

    #[test]
    fn first_two_moments_match_pact() {
        let parts = ladder_parts(10);
        let mom = admittance_moments(&parts, 4).unwrap();
        let t1 = pact::Transform1::compute(&parts).unwrap();
        assert!((&mom[0] - &t1.a1).norm_max() < 1e-12 * t1.a1.norm_max());
        assert!((&mom[1] - &t1.b1).norm_max() < 1e-12 * t1.b1.norm_max().max(1e-20));
    }

    #[test]
    fn moments_match_finite_difference_of_exact_y() {
        // m1 ≈ dY/ds at 0 along the imaginary axis.
        let parts = ladder_parts(8);
        let mom = admittance_moments(&parts, 3).unwrap();
        let fa = pact::YEvaluator::new(&parts);
        let f = 1e3; // tiny
        let y = fa.y_at(f).unwrap();
        let w = 2.0 * std::f64::consts::PI * f;
        for i in 0..parts.m {
            for j in 0..parts.m {
                assert!(
                    (y[(i, j)].im / w - mom[1][(i, j)]).abs()
                        <= 1e-4 * mom[1][(i, j)].abs().max(1e-18),
                    "m1 mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn single_pole_pade_recovers_rc_pole() {
        // One port, one internal node: Y11 has a single pole at
        // s = −D/E = −(1/R)/C = −1e9 rad/s.
        let deck = "* rc\nV1 a 0 1\nR1 a b 1k\nC1 b 0 1p\n.end\n";
        let ex = extract_rc(&parse(deck).unwrap(), &[]).unwrap();
        assert_eq!(ex.network.num_internal(), 1);
        let parts = Partitions::split(&ex.network.stamp());
        let mom = admittance_moments(&parts, 4).unwrap();
        let series: Vec<f64> = mom.iter().map(|m| m[(0, 0)]).collect();
        let model = pade_fit(&series, 1).unwrap();
        assert!(model.is_stable());
        assert_eq!(model.poles.len(), 1);
        let p = model.poles[0];
        assert!(p.im.abs() < 1e-3 * p.re.abs());
        assert!(
            (p.re + 1e9).abs() < 1e3,
            "pole at {} rad/s, expected -1e9",
            p.re
        );
        // And the model tracks the exact admittance near the pole.
        let fa = pact::YEvaluator::new(&parts);
        for &f in &[1e7, 1.59e8, 1e9] {
            let exact = fa.y_at(f).unwrap()[(0, 0)];
            let approx = model.y_at(f);
            assert!((approx - exact).abs() / exact.abs() < 1e-6, "f={f:e}");
        }
    }

    #[test]
    fn pade_accuracy_at_low_frequency() {
        let parts = ladder_parts(20);
        let mom = admittance_moments(&parts, 8).unwrap();
        let series: Vec<f64> = mom.iter().map(|m| m[(0, 0)]).collect();
        let model = pade_fit(&series, 2).unwrap();
        let fa = pact::YEvaluator::new(&parts);
        for &f in &[1e7, 1e8, 5e8] {
            let exact = fa.y_at(f).unwrap()[(0, 0)];
            let approx = model.y_at(f);
            let rel = (approx - exact).abs() / exact.abs();
            assert!(rel < 0.05, "f={f:e}: rel err {rel}");
        }
    }

    #[test]
    fn hankel_conditioning_degrades() {
        // The paper's AWE critique: condition number of the moment
        // (Hankel) matrix explodes with order.
        let parts = ladder_parts(40);
        let mom = admittance_moments(&parts, 18).unwrap();
        let series: Vec<f64> = mom.iter().map(|m| m[(0, 0)]).collect();
        let low = pade_fit(&series, 2).unwrap();
        // Higher order: either the condition number explodes or the
        // Hankel system collapses outright — both are the documented AWE
        // failure mode.
        match pade_fit(&series, 8) {
            Ok(high) => assert!(
                high.hankel_condition > 1e3 * low.hankel_condition,
                "cond q=2: {:e}, q=8: {:e}",
                low.hankel_condition,
                high.hankel_condition
            ),
            Err(PadeError::SingularHankel) => {} // degenerate = ill-conditioned
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn not_enough_moments_is_error() {
        assert!(matches!(
            pade_fit(&[1.0, 2.0, 3.0], 2),
            Err(PadeError::NotEnoughMoments { .. })
        ));
    }
}
