//! SPICE engineering-notation number parsing.
//!
//! SPICE values accept scale suffixes (`1k`, `2.2u`, `0.5MEG`) followed by
//! arbitrary unit letters that are ignored (`10pF`, `50ohm`). Parsing is
//! case-insensitive, as in every SPICE dialect.

/// Error from parsing a SPICE number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseValueError {
    /// The offending token.
    pub token: String,
}

impl std::fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SPICE number `{}`", self.token)
    }
}

impl std::error::Error for ParseValueError {}

/// Parses a SPICE value token like `100`, `4.7k`, `1.35p`, `0.25MEG` or
/// `10pF`.
///
/// # Errors
///
/// Returns [`ParseValueError`] when the token has no leading numeric part.
///
/// ```
/// use pact_netlist::parse_value;
/// assert_eq!(parse_value("2.5k").unwrap(), 2500.0);
/// assert!((parse_value("1.35pF").unwrap() - 1.35e-12).abs() < 1e-24);
/// assert_eq!(parse_value("3MEG").unwrap(), 3e6);
/// ```
pub fn parse_value(token: &str) -> Result<f64, ParseValueError> {
    let t = token.trim();
    let err = || ParseValueError {
        token: token.to_owned(),
    };
    // Split the numeric prefix from the alphabetic suffix.
    let mut split = t.len();
    let bytes = t.as_bytes();
    let mut seen_digit = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let is_num = c.is_ascii_digit()
            || c == '.'
            || c == '+'
            || c == '-'
            || ((c == 'e' || c == 'E')
                && seen_digit
                && i + 1 < bytes.len()
                && (bytes[i + 1].is_ascii_digit() || bytes[i + 1] == b'+' || bytes[i + 1] == b'-'));
        if c.is_ascii_digit() {
            seen_digit = true;
        }
        if !is_num {
            split = i;
            break;
        }
        // Consume the exponent marker together with its sign.
        if (c == 'e' || c == 'E') && (bytes[i + 1] == b'+' || bytes[i + 1] == b'-') {
            i += 1;
        }
        i += 1;
    }
    if !seen_digit {
        return Err(err());
    }
    let (num, suffix) = t.split_at(split);
    let base: f64 = num.parse().map_err(|_| err())?;
    let s = suffix.as_bytes();
    let scale = if starts_with_ignore_case(s, b"meg") {
        1e6
    } else if starts_with_ignore_case(s, b"mil") {
        25.4e-6
    } else {
        match s.first().map(u8::to_ascii_lowercase) {
            Some(b'f') => 1e-15,
            Some(b'p') => 1e-12,
            Some(b'n') => 1e-9,
            Some(b'u') => 1e-6,
            Some(b'm') => 1e-3,
            Some(b'k') => 1e3,
            Some(b'g') => 1e9,
            Some(b't') => 1e12,
            _ => 1.0,
        }
    };
    Ok(base * scale)
}

/// `true` when `s` starts with `prefix`, ignoring ASCII case.
pub(crate) fn starts_with_ignore_case(s: &[u8], prefix: &[u8]) -> bool {
    s.len() >= prefix.len() && s[..prefix.len()].eq_ignore_ascii_case(prefix)
}

/// A value written in engineering notation with a SPICE suffix (`1.350000p`,
/// `-2.500000k`, `0`), with no allocation.
///
/// The mantissa gets six decimals after the SI prefix: 7–9 significant
/// digits, so a written value can be off by up to 5e-7 of itself and
/// does not round-trip in general (`1.23456789e-12` is written
/// `1.234568p`). That rounding alone moves the reduced Table 4 deck
/// 6.3e-8 from its in-memory model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpiceValue(pub f64);

impl std::fmt::Display for SpiceValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.0;
        if v == 0.0 {
            return f.write_str("0");
        }
        let a = v.abs();
        let (scale, suffix) = if a >= 1e12 {
            (1e12, "t")
        } else if a >= 1e9 {
            (1e9, "g")
        } else if a >= 1e6 {
            (1e6, "meg")
        } else if a >= 1e3 {
            (1e3, "k")
        } else if a >= 1.0 {
            (1.0, "")
        } else if a >= 1e-3 {
            (1e-3, "m")
        } else if a >= 1e-6 {
            (1e-6, "u")
        } else if a >= 1e-9 {
            (1e-9, "n")
        } else if a >= 1e-12 {
            (1e-12, "p")
        } else {
            (1e-15, "f")
        };
        let scaled = v / scale;
        write!(f, "{scaled:.6}{suffix}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_numbers() {
        assert_eq!(parse_value("42").unwrap(), 42.0);
        assert_eq!(parse_value("-3.5").unwrap(), -3.5);
        assert_eq!(parse_value("1e-12").unwrap(), 1e-12);
        assert_eq!(parse_value("2.5E3").unwrap(), 2500.0);
        assert_eq!(parse_value("1e+6").unwrap(), 1e6);
    }

    #[test]
    fn suffixes() {
        assert_eq!(parse_value("1f").unwrap(), 1e-15);
        assert_eq!(parse_value("1p").unwrap(), 1e-12);
        assert_eq!(parse_value("1n").unwrap(), 1e-9);
        assert_eq!(parse_value("1u").unwrap(), 1e-6);
        assert_eq!(parse_value("1m").unwrap(), 1e-3);
        assert_eq!(parse_value("1k").unwrap(), 1e3);
        assert_eq!(parse_value("1MEG").unwrap(), 1e6);
        assert_eq!(parse_value("1meg").unwrap(), 1e6);
        assert_eq!(parse_value("1g").unwrap(), 1e9);
        assert_eq!(parse_value("1t").unwrap(), 1e12);
    }

    #[test]
    fn unit_letters_ignored() {
        assert_eq!(parse_value("10pF").unwrap(), 1e-11);
        assert_eq!(parse_value("250ohm").unwrap(), 250.0);
        assert_eq!(parse_value("5kohm").unwrap(), 5000.0);
        assert!((parse_value("1.35pf").unwrap() - 1.35e-12).abs() < 1e-24);
    }

    #[test]
    fn m_vs_meg_distinction() {
        assert_eq!(parse_value("1m").unwrap(), 1e-3);
        assert_eq!(parse_value("1meg").unwrap(), 1e6);
        assert_eq!(parse_value("1mF").unwrap(), 1e-3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("abc").is_err());
        assert!(parse_value("").is_err());
        assert!(parse_value("k10").is_err());
    }

    #[test]
    fn format_keeps_six_decimals_after_the_prefix() {
        // Not a round trip: the seventh decimal is rounded away.
        assert_eq!(SpiceValue(1.23456789e-12).to_string(), "1.234568p");
        assert_eq!(SpiceValue(-2.5e3).to_string(), "-2.500000k");
        assert_eq!(SpiceValue(0.0).to_string(), "0");
    }

    #[test]
    fn format_roundtrip() {
        for &v in &[
            1.0, 250.0, 4.7e3, 1.35e-12, 2.2e-6, 3.3e6, -5e-9, 1e-15, 7e9,
        ] {
            let s = SpiceValue(v).to_string();
            let back = parse_value(&s).unwrap();
            assert!((back - v).abs() <= 1e-6 * v.abs(), "{v} -> {s} -> {back}");
        }
        assert_eq!(SpiceValue(0.0).to_string(), "0");
    }
}
