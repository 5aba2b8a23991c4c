//! A minimal double-precision complex number, built from scratch so the
//! workspace stays within its approved dependency set.
//!
//! Only the operations needed by AC circuit analysis and admittance
//! evaluation are provided: field arithmetic, conjugation, magnitude and
//! polar construction.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// ```
/// use pact_sparse::Complex64;
/// let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
/// let y = Complex64::new(1e-3, 0.0) + s * Complex64::new(1e-12, 0.0);
/// assert!(y.abs() > 1e-3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const J: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// The magnitude (Euclidean norm), computed with `hypot` for robustness
    /// against overflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The multiplicative inverse `1/self`.
    ///
    /// Uses Smith's algorithm to avoid intermediate overflow/underflow.
    #[inline]
    pub fn recip(self) -> Self {
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Complex64::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Complex64::new(r / d, -1.0 / d)
        }
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Returns `true` when either part is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// The principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        if r == 0.0 {
            return Complex64::ZERO;
        }
        let re = ((r + self.re) * 0.5).max(0.0).sqrt();
        let im_mag = ((r - self.re) * 0.5).max(0.0).sqrt();
        Complex64::new(re, if self.im < 0.0 { -im_mag } else { im_mag })
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

/// Scalar abstraction letting the LU factorizations work over both `f64`
/// (DC/transient) and [`Complex64`] (AC analysis).
///
/// Implementors form a field with a magnitude function used for pivoting.
pub trait Scalar:
    Copy
    + PartialEq
    + fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Magnitude used for pivot selection.
    fn modulus(self) -> f64;
    /// Squared magnitude. Pivot admissibility compares squared
    /// magnitudes (the decision is identical to comparing magnitudes,
    /// while skipping a `hypot` per candidate in the factorization hot
    /// loop); values beyond `≈1e±154` saturate the squares and are
    /// treated as singular.
    fn modulus_sq(self) -> f64;
    /// Lift a real number into the scalar type.
    fn from_f64(x: f64) -> Self;
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn modulus_sq(self) -> f64 {
        self * self
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
}

impl Scalar for Complex64 {
    #[inline]
    fn zero() -> Self {
        Complex64::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex64::ONE
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn modulus_sq(self) -> f64 {
        self.norm_sqr()
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex64::from_real(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 3.0);
        let c = Complex64::new(4.0, 0.5);
        assert!(close(a + b, b + a));
        assert!(close(a * b, b * a));
        assert!(close(a * (b + c), a * b + a * c));
        assert!(close((a / b) * b, a));
    }

    #[test]
    fn recip_is_inverse() {
        let a = Complex64::new(3.0, -4.0);
        assert!(close(a * a.recip(), Complex64::ONE));
        // branch where |im| > |re|
        let b = Complex64::new(1.0, -40.0);
        assert!(close(b * b.recip(), Complex64::ONE));
    }

    #[test]
    fn abs_and_polar_roundtrip() {
        let a = Complex64::new(2.0 * 0.7f64.cos(), 2.0 * 0.7f64.sin());
        assert!((a.abs() - 2.0).abs() < 1e-12);
        assert!((a.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (0.0, 2.0), (-1.0, 0.0), (3.0, -4.0)] {
            let z = Complex64::new(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z), "sqrt({z}) = {r}");
        }
    }

    #[test]
    fn conj_mul_gives_norm_sqr() {
        let a = Complex64::new(2.0, -7.0);
        let p = a * Complex64::new(a.re, -a.im);
        assert!((p.re - a.norm_sqr()).abs() < 1e-12);
        assert!(p.im.abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn scalar_trait_for_both_types() {
        fn generic_sum<S: Scalar>(xs: &[S]) -> S {
            let mut acc = S::zero();
            for &x in xs {
                acc += x;
            }
            acc
        }
        assert_eq!(generic_sum(&[1.0, 2.0, 3.0]), 6.0);
        let z = generic_sum(&[Complex64::new(1.0, 1.0), Complex64::new(2.0, -1.0)]);
        assert!(close(z, Complex64::new(3.0, 0.0)));
    }
}
