//! Cutoff-frequency selection from a user error tolerance.
//!
//! Dropping a pole term `−s²rᵀr/(1+sλ)` leaves the first two moments of
//! `Y(s)` untouched; its relative magnitude error at frequency `f`, for a
//! pole at `f_p = 1/(2πλ)`, follows the first-order high-pass envelope
//! `ε(f) = 1 − 1/√(1 + (f/f_p)²)`. RCFIT therefore chooses the cutoff
//! `f_c` so that this envelope equals the user tolerance at the maximum
//! frequency of interest: `f_c = f_max / √((1−ε)⁻² − 1)`. The paper's
//! example — "a 5 % tolerance requires the cutoff frequency to be 3.04
//! times larger than the maximum frequency" — falls out exactly.

/// Error from an invalid cutoff specification.
#[derive(Clone, Debug, PartialEq)]
pub struct CutoffError {
    /// Description of the invalid parameter.
    pub message: String,
}

impl std::fmt::Display for CutoffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid cutoff specification: {}", self.message)
    }
}

impl std::error::Error for CutoffError {}

/// User-facing accuracy specification: maximum frequency of interest and
/// relative error tolerance, mapped to the pole-dropping cutoff.
///
/// ```
/// use pact::CutoffSpec;
/// let spec = CutoffSpec::new(5e9, 0.05)?; // 5 GHz, 5 %
/// assert!((spec.cutoff_frequency() / 5e9 - 3.04).abs() < 0.01);
/// # Ok::<(), pact::CutoffError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutoffSpec {
    f_max: f64,
    tolerance: f64,
}

impl CutoffSpec {
    /// Creates a specification from a maximum frequency (Hz) and a
    /// relative tolerance in `(0, 1)`.
    ///
    /// # Errors
    ///
    /// [`CutoffError`] for non-positive frequency or tolerance outside
    /// `(0, 1)`.
    pub fn new(f_max: f64, tolerance: f64) -> Result<Self, CutoffError> {
        if !f_max.is_finite() || f_max <= 0.0 {
            return Err(CutoffError {
                message: format!("maximum frequency must be positive, got {f_max}"),
            });
        }
        if !tolerance.is_finite() || tolerance <= 0.0 || tolerance >= 1.0 {
            return Err(CutoffError {
                message: format!("tolerance must be in (0, 1), got {tolerance}"),
            });
        }
        Ok(CutoffSpec { f_max, tolerance })
    }

    /// Builds a specification directly from a cutoff frequency, bypassing
    /// the tolerance mapping (the tolerance reported is the implied error
    /// at `f_max = f_c`).
    ///
    /// # Errors
    ///
    /// [`CutoffError`] for a non-positive cutoff.
    pub fn from_cutoff_frequency(f_c: f64) -> Result<Self, CutoffError> {
        if !f_c.is_finite() || f_c <= 0.0 {
            return Err(CutoffError {
                message: format!("cutoff frequency must be positive, got {f_c}"),
            });
        }
        // Represent as f_max = f_c with the implied tolerance at f_max.
        let tol = 1.0 - 1.0 / 2.0f64.sqrt();
        Ok(CutoffSpec {
            f_max: f_c,
            tolerance: tol,
        })
    }

    /// The maximum frequency of interest in Hz.
    #[inline]
    pub fn f_max(&self) -> f64 {
        self.f_max
    }

    /// The relative error tolerance.
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The ratio `f_c / f_max` implied by the tolerance
    /// (`≈ 3.04` at 5 %).
    pub fn cutoff_ratio(&self) -> f64 {
        let inv = 1.0 / (1.0 - self.tolerance);
        1.0 / (inv * inv - 1.0).sqrt()
    }

    /// The pole-dropping cutoff frequency `f_c` in Hz.
    pub fn cutoff_frequency(&self) -> f64 {
        self.f_max * self.cutoff_ratio()
    }

    /// The eigenvalue cutoff `λ_c = 1/(2π f_c)`: eigenvalues of `E'` at or
    /// above this are retained (their poles lie below `f_c`).
    pub fn lambda_c(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * self.cutoff_frequency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratio_at_five_percent() {
        let spec = CutoffSpec::new(1e9, 0.05).unwrap();
        assert!(
            (spec.cutoff_ratio() - 3.042).abs() < 0.01,
            "ratio = {}",
            spec.cutoff_ratio()
        );
    }

    /// The worst-case relative error one dropped pole contributes at
    /// frequency `f`, per the high-pass envelope model the cutoff is
    /// derived from.
    fn error_at(spec: &CutoffSpec, f: f64) -> f64 {
        let x = f / spec.cutoff_frequency();
        1.0 - 1.0 / (1.0 + x * x).sqrt()
    }

    #[test]
    fn error_at_fmax_equals_tolerance() {
        for &tol in &[0.01, 0.05, 0.1, 0.3] {
            let spec = CutoffSpec::new(2e9, tol).unwrap();
            assert!(
                (error_at(&spec, spec.f_max()) - tol).abs() < 1e-12,
                "tol {tol}"
            );
        }
    }

    #[test]
    fn lambda_c_inverse_relation() {
        let spec = CutoffSpec::new(1e9, 0.05).unwrap();
        let fc = spec.cutoff_frequency();
        assert!((spec.lambda_c() * 2.0 * std::f64::consts::PI * fc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_is_monotone_in_frequency() {
        let spec = CutoffSpec::new(1e9, 0.05).unwrap();
        let mut last = 0.0;
        for k in 1..50 {
            let e = error_at(&spec, k as f64 * 1e8);
            assert!(e >= last);
            last = e;
        }
    }

    #[test]
    fn tighter_tolerance_pushes_cutoff_up() {
        let loose = CutoffSpec::new(1e9, 0.10).unwrap();
        let tight = CutoffSpec::new(1e9, 0.01).unwrap();
        assert!(tight.cutoff_frequency() > loose.cutoff_frequency());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(CutoffSpec::new(-1.0, 0.05).is_err());
        assert!(CutoffSpec::new(0.0, 0.05).is_err());
        assert!(CutoffSpec::new(1e9, 0.0).is_err());
        assert!(CutoffSpec::new(1e9, 1.0).is_err());
        assert!(CutoffSpec::new(f64::NAN, 0.05).is_err());
        assert!(CutoffSpec::from_cutoff_frequency(0.0).is_err());
    }

    #[test]
    fn from_cutoff_frequency_roundtrip() {
        let spec = CutoffSpec::from_cutoff_frequency(3e9).unwrap();
        assert!((spec.cutoff_frequency() - 3e9).abs() / 3e9 < 1e-9);
    }
}
