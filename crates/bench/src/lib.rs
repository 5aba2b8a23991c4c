//! # pact-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`cargo run --release -p pact-bench --bin <name>`) plus
//! dependency-free timing benches for kernels, ablations and the
//! Section-4 complexity study, and the `par_scaling` thread-scaling
//! study. See DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for recorded paper-vs-measured results.
//!
//! This library hosts the shared report plumbing: wall-clock timing,
//! markdown table rendering, waveform CSV output and common reduction /
//! simulation drivers used by several binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Instant;

use pact::{CutoffSpec, EigenSelect, ReduceOptions, Reduction};
use pact_lanczos::LanczosConfig;
use pact_netlist::{extract_rc, splice_reduced, Netlist};
use pact_sparse::Ordering;

/// Times a closure, returning its output and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs `f` once to warm up, then `samples` timed iterations, returning
/// per-iteration wall-clock seconds. The dependency-free replacement for
/// the statistical bench harness: the benches report min/median over a
/// small fixed sample count.
pub fn sample_secs<T>(samples: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    let _ = f();
    (0..samples.max(1)).map(|_| timed(&mut f).1).collect()
}

/// Minimum and median of a non-empty sample set, in seconds.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn min_median(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing"));
    (s[0], s[s.len() / 2])
}

/// Formats bytes as MB with one decimal (the paper's table unit).
pub fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

/// Formats seconds with adaptive precision.
pub fn secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.2e}", s)
    } else if s < 1.0 {
        format!("{:.3}", s)
    } else {
        format!("{:.1}", s)
    }
}

/// Prints a markdown table.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        assert_eq!(row.len(), headers.len(), "table row width mismatch");
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Prints aligned CSV-style waveform columns (time + named series).
pub fn print_waveforms(title: &str, time: &[f64], series: &[(&str, &[f64])], stride: usize) {
    println!("\n### {title} (CSV)\n");
    print!("time");
    for (name, _) in series {
        print!(",{name}");
    }
    println!();
    for (k, &t) in time.iter().enumerate() {
        if k % stride != 0 && k + 1 != time.len() {
            continue;
        }
        print!("{t:.4e}");
        for (_, v) in series {
            print!(",{:.5}", v[k.min(v.len() - 1)]);
        }
        println!();
    }
    println!();
}

/// Extracts the RC network from a deck, reduces it with the given spec,
/// and splices the reduced elements back in. Returns the reduced deck,
/// the reduction record and the elapsed reduction seconds.
///
/// # Panics
///
/// Panics on extraction or reduction failure (experiment binaries treat
/// these as fatal).
pub fn reduce_deck(
    deck: &Netlist,
    f_max: f64,
    tolerance: f64,
    sparsify_tol: f64,
) -> (Netlist, Reduction, f64) {
    let ex = extract_rc(deck, &[]).expect("RC extraction failed");
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(f_max, tolerance).expect("bad cutoff"),
        eigen_backend: EigenSelect::Auto,
        ordering: Ordering::NestedDissection,
        dense_threshold: 400,
        threads: None,
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        expansion_points: None,
        chol_kernel: pact::CholKernel::Auto,
    };
    let (red, elapsed) =
        timed(|| pact::reduce_network(&ex.network, &opts).expect("reduction failed"));
    let elements = red.model.to_netlist_elements("red", sparsify_tol);
    let reduced_deck = splice_reduced(deck, elements);
    (reduced_deck, red, elapsed)
}

/// Like [`reduce_deck`] but with Lanczos forced (for large meshes where the
/// auto threshold would pick it anyway; explicit for reproducibility).
pub fn reduce_deck_laso(
    deck: &Netlist,
    f_max: f64,
    tolerance: f64,
    sparsify_tol: f64,
) -> (Netlist, Reduction, f64) {
    let ex = extract_rc(deck, &[]).expect("RC extraction failed");
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(f_max, tolerance).expect("bad cutoff"),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: Ordering::NestedDissection,
        dense_threshold: 400,
        threads: None,
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        expansion_points: None,
        chol_kernel: pact::CholKernel::Auto,
    };
    let (red, elapsed) =
        timed(|| pact::reduce_network(&ex.network, &opts).expect("reduction failed"));
    let elements = red.model.to_netlist_elements("red", sparsify_tol);
    let reduced_deck = splice_reduced(deck, elements);
    (reduced_deck, red, elapsed)
}

/// 50 %-crossing delay of a rising waveform after `t_from`, in seconds.
pub fn crossing_delay(
    times: &[f64],
    wave: &[f64],
    level: f64,
    t_from: f64,
    rising: bool,
) -> Option<f64> {
    for k in 1..times.len() {
        if times[k] < t_from {
            continue;
        }
        let (a, b) = (wave[k - 1], wave[k]);
        let crossed = if rising {
            a < level && b >= level
        } else {
            a > level && b <= level
        };
        if crossed {
            let frac = if (b - a).abs() > 0.0 {
                (level - a) / (b - a)
            } else {
                0.0
            };
            return Some(times[k - 1] + frac * (times[k] - times[k - 1]) - t_from);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_delay_finds_edge() {
        let t = [0.0, 1.0, 2.0, 3.0];
        let v = [0.0, 0.0, 1.0, 1.0];
        let d = crossing_delay(&t, &v, 0.5, 0.0, true).unwrap();
        assert!((d - 1.5).abs() < 1e-12);
        assert!(crossing_delay(&t, &v, 0.5, 0.0, false).is_none());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(25_800_000), "25.8");
        assert_eq!(secs(1792.6), "1792.6");
        assert_eq!(secs(0.5), "0.500");
    }

    #[test]
    fn reduce_deck_end_to_end() {
        let deck = pact_gen::inverter_pair_deck(&pact_gen::LineSpec {
            segments: 20,
            ..pact_gen::LineSpec::default()
        });
        let (reduced, red, _) = reduce_deck(&deck, 5e9, 0.05, 0.0);
        assert!(red.model.num_poles() < 19);
        // Reduced deck keeps the transistors.
        let mos = reduced.count(|e| matches!(e.kind, pact_netlist::ElementKind::Mosfet { .. }));
        assert_eq!(mos, 4);
    }
}
