//! Order statistics used by every report: medians, quartiles (the same
//! estimator as Python's `statistics.quantiles(values, n=4)`), nearest-rank
//! percentiles, and open-loop latency bookkeeping.

/// Percentiles a latency distribution may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// The median; `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, by which the spread of
/// repeated runs is judged.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    // Python's integer arithmetic, signed: `delta` goes negative (and the
    // quartiles extrapolate) for samples of two.
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is held against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// The nearest rank of percentile `p` in a sample of `n`: the smallest
/// rank with at least `p` % of the sample at or below it. The epsilon keeps
/// `99.9 % of 10000` at rank 9990 despite binary rounding.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (in percent) of a sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    v[rank(p, v.len()) - 1]
}

/// The highest ladder percentile with at least ten samples beyond it in a
/// sample of `n`; `None` when even the median lacks that support.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| n >= 10 + rank(p, n))
}

/// Open-loop latencies: request `i` was due at `due[i]`, left the
/// generator at `sent[i]` and was answered at `done[i]` (all on one
/// clock). Latency runs from the due time, so a stall that delays later
/// sends is charged to them. Also returns how late the generator ran at
/// worst.
pub fn open_loop(due: &[f64], sent: &[f64], done: &[f64]) -> (Vec<f64>, f64) {
    let late = due
        .iter()
        .zip(sent)
        .map(|(d, s)| s - d)
        .fold(0.0f64, f64::max);
    let lat = due.iter().zip(done).map(|(d, r)| r - d).collect();
    (lat, late)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 1.0), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Request 1 is due at 10 ms but the generator stalls until 50 ms:
        // its latency includes the 40 ms it waited to be sent, and the
        // stall also delays request 2.
        let due = [0.000, 0.010, 0.020];
        let sent = [0.000, 0.050, 0.051];
        let done = [0.004, 0.054, 0.055];
        let (lat, late) = open_loop(&due, &sent, &done);
        assert!((lat[0] - 0.004).abs() < 1e-12);
        assert!((lat[1] - 0.044).abs() < 1e-12);
        assert!((lat[2] - 0.035).abs() < 1e-12);
        assert!((late - 0.040).abs() < 1e-12);
    }
}
