//! `ledger compare A.json B.json`: the `BENCHMARK.json` bounds applied to
//! every end-to-end metric of every workload.
//!
//! Each side may list several result files, comma-separated (repeated
//! runs of one commit). A metric is `worse` or `better` when its median
//! moved by more than its bound, `same` otherwise, and `unresolved` when
//! either side's run-to-run spread (interquartile distance over median)
//! is wider than the bound, unless every run of B beats every run of A.

use std::path::Path;

use pact::json::Value;

use crate::stats::{median, spread};

/// A verdict on one workload × metric.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let noise = |x: &[f64]| if x.len() < 2 { 0.0 } else { spread(x) };
    let max = |x: &[f64]| x.iter().copied().fold(f64::MIN, f64::max);
    let min = |x: &[f64]| x.iter().copied().fold(f64::MAX, f64::min);
    let b_beats_every_a = if lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    if noise(a).max(noise(b)) > bound && !b_beats_every_a {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

fn runs(list: &str) -> Result<Vec<Value>, String> {
    let mut out = Vec::new();
    for path in list.split(',') {
        let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let doc = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let runs = doc
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or(format!("{path}: no runs"))?;
        out.extend(runs.iter().cloned());
    }
    Ok(out)
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Prints one row per workload × end-to-end metric; `Ok(false)` when any
/// metric got worse or B failed a correctness gate.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let spec = crate::bench_spec()?;
    let (a, b) = (runs(a)?, runs(b)?);
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(&b) {
        if !workloads.contains(&text(r, "workload")) {
            workloads.push(text(r, "workload"));
        }
    }
    println!(
        "{:<10} {:<15} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "sprdA", "sprdB"
    );
    let mut ok = true;
    for w in workloads {
        let of = |side: &[Value], m: &str| -> Vec<f64> {
            side.iter()
                .filter(|r| text(r, "workload") == w)
                .filter_map(|r| r.get("end_to_end")?.get(m)?.get("value")?.as_f64())
                .collect()
        };
        for m in spec
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let name = text(m, "name");
            let lower = text(m, "better") == "lower";
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (va, vb) = (of(&a, name), of(&b, name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<10} {name:<15} missing on one side");
                ok = false;
                continue;
            }
            let v = verdict(&va, &vb, lower, bound);
            ok &= v != "worse";
            let (ma, mb) = (median(&va), median(&vb));
            let sp = |x: &[f64]| {
                if x.len() < 2 {
                    "-".to_owned()
                } else {
                    format!("{:.1}%", 100.0 * spread(x))
                }
            };
            println!(
                "{w:<10} {name:<15} {ma:>13.6} {mb:>13.6} {:>+7.1}% {:>7} {:>7}  {v} (bound {:.0}%)",
                100.0 * (mb - ma) / ma,
                sp(&va),
                sp(&vb),
                100.0 * bound
            );
        }
        let failed: f64 = b
            .iter()
            .filter(|r| text(r, "workload") == w)
            .filter_map(|r| r.get("failed")?.as_f64())
            .sum();
        if failed > 0.0 {
            println!("{w:<10} B failed {failed} correctness check(s)");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_apply_the_bound_and_the_spread() {
        assert_eq!(verdict(&[1.0], &[1.05], true, 0.1), "same");
        assert_eq!(verdict(&[1.0], &[1.2], true, 0.1), "worse");
        assert_eq!(verdict(&[1.0], &[0.8], true, 0.1), "better");
        assert_eq!(verdict(&[100.0], &[80.0], false, 0.1), "worse");
        // Runs of A scatter by more than the bound: no call either way...
        assert_eq!(
            verdict(&[1.0, 1.5, 0.7, 1.2], &[1.3, 1.3], true, 0.1),
            "unresolved"
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            verdict(&[1.0, 1.5, 0.7, 1.2], &[0.5, 0.6], true, 0.1),
            "better"
        );
    }
}
