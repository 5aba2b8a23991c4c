//! Analytic memory/operation models for the Section-4 complexity
//! comparison between PACT and the Padé-based methods.
//!
//! These reproduce the paper's asymptotic claims in concrete byte/flop
//! form, so the complexity bench can plot both the *measured* counters
//! from the implementations and these *modelled* curves side by side
//! (e.g. Table 4's "the Padé-based methods require 469 × 19877 × 8 =
//! 71.1 MB for the Lanczos vectors alone; MPVL requires two of these
//! blocks").

/// Modelled working memory in bytes for PACT's pole analysis stage:
/// LASO keeps two Lanczos vectors plus the converged Ritz vectors.
pub fn pact_lanczos_memory(n: usize, retained_poles: usize) -> usize {
    (2 + retained_poles) * n * 8
}

/// Modelled working memory for the symmetric block-Lanczos Padé method
/// of the paper's reference 7: one block of `m + 1` Lanczos vectors.
pub fn pade_block_memory(m: usize, n: usize) -> usize {
    (m + 1) * n * 8
}

/// Modelled working memory for MPVL (the paper's reference 6): two dense blocks of
/// `m + 1` vectors (the nonsymmetric Lanczos needs left *and* right
/// blocks).
pub fn mpvl_memory(m: usize, n: usize) -> usize {
    2 * (m + 1) * n * 8
}

/// Pretty-prints a byte count the way the paper's tables do (MB with one
/// decimal).
pub fn format_mb(bytes: usize) -> String {
    format!("{:.1} MB", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_quote_reproduced() {
        // "469 × 19877 × 8 = 71.1 Mbytes for the Lanczos vectors alone"
        // (the paper quotes the single-block figure with m rounded to
        // the port count).
        let bytes = 469 * 19877 * 8;
        assert_eq!(format_mb(bytes), "74.6 MB");
        // The paper's 71.1 MB uses 1024²-based megabytes:
        assert!((bytes as f64 / (1024.0 * 1024.0) - 71.1).abs() < 0.2);
        // MPVL doubles it.
        assert!(mpvl_memory(468, 19877) > 2 * 71_000_000);
    }

    #[test]
    fn pact_memory_is_port_independent() {
        // LASO working memory does not grow with m.
        assert_eq!(
            pact_lanczos_memory(10_000, 5),
            pact_lanczos_memory(10_000, 5)
        );
        let small_m = pade_block_memory(10, 10_000);
        let big_m = pade_block_memory(500, 10_000);
        assert!(big_m > 40 * small_m);
    }
}
