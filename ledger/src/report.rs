//! What one workload run measured, how it is rendered (result file, one
//! human line per metric, the one-line JSON result), and how the
//! program's own telemetry is read into per-layer metrics.

use std::collections::BTreeMap;

use pact::json::Value;

use crate::stats::median;
use crate::trace::LEAF_BUSY_PHASES;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and derived values).
    pub n: usize,
}

#[derive(Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Outputs checked.
    pub attempted: u64,
    /// One line per output that failed, errored, or was shed.
    pub failures: Vec<String>,
}

impl Report {
    /// Counts one checked output; `Err` is a failure.
    pub fn gate(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }

    /// Adds the median of `samples` as an end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value: median(samples),
            unit,
            n: samples.len(),
        });
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, n: usize) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        });
    }

    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.e2e.iter().chain(&self.layers).find(|m| m.name == name)
    }

    /// One `workload metric value unit n=samples` line per metric.
    pub fn lines(&self, workload: &str, layers: bool) -> String {
        let mut out = String::new();
        let metrics = self.e2e.iter().chain(self.layers.iter().filter(|_| layers));
        for m in metrics {
            out.push_str(&format!(
                "{workload} {} {} {} n={}\n",
                m.name,
                pretty(m.value),
                m.unit,
                m.n
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("{workload} FAILED {f}\n"));
        }
        out
    }

    /// The result-file form of this report.
    pub fn to_json(&self, head: Vec<(String, Value)>) -> Value {
        let metrics = |ms: &[Metric]| {
            Value::obj(
                ms.iter()
                    .map(|m| {
                        let v = Value::obj(vec![
                            ("value".into(), Value::num(m.value)),
                            ("unit".into(), Value::str(m.unit)),
                            ("n".into(), Value::num(m.n as f64)),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            )
        };
        let mut fields = head;
        fields.extend([
            ("correct".into(), Value::Bool(self.failures.is_empty())),
            ("attempted".into(), Value::num(self.attempted as f64)),
            ("failed".into(), Value::num(self.failures.len() as f64)),
            (
                "failures".into(),
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            ("end_to_end".into(), metrics(&self.e2e)),
            ("layers".into(), metrics(&self.layers)),
        ]);
        Value::obj(fields)
    }

    /// The one-line JSON result that ends a run: `wanted` names every metric to report
    /// with its declared unit. A workload that lacks a count or ratio
    /// reports 0 for it (no hierarchy blocks on a flat run); a missing
    /// time or a unit mismatch is a bug in the ledger.
    pub fn result_line(&self, wanted: &[(String, String)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in wanted {
            let value = match self.find(name) {
                Some(m) if m.unit == unit => m.value,
                Some(m) => return Err(format!("{name} is in {} but declared in {unit}", m.unit)),
                None if unit == "s" || unit == "ms" => {
                    return Err(format!("time metric {name} was not measured"))
                }
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("{name} is {value}"));
            }
            let m = Value::obj(vec![
                ("value".into(), Value::num(value)),
                ("unit".into(), Value::str(unit)),
            ]);
            metrics.push((name.clone(), m));
        }
        Ok(Value::obj(vec![
            ("correct".into(), Value::Bool(self.failures.is_empty())),
            ("attempted".into(), Value::num(self.attempted.max(1) as f64)),
            ("failed".into(), Value::num(self.failures.len() as f64)),
            ("metrics".into(), Value::obj(metrics)),
        ])
        .render())
    }
}

fn pretty(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{}", (v * 1e4).round() / 1e4)
    }
}

/// Per-unit samples of layer metrics, reported as medians.
#[derive(Default)]
pub struct Samples(BTreeMap<String, (&'static str, Vec<f64>)>);

impl Samples {
    pub fn add(&mut self, name: &str, unit: &'static str, v: f64) {
        self.0
            .entry(name.to_owned())
            .or_insert((unit, Vec::new()))
            .1
            .push(v);
    }

    pub fn into_report(self, rep: &mut Report) {
        for (name, (unit, v)) in self.0 {
            rep.layer(&name, unit, median(&v), v.len());
        }
    }
}

/// Telemetry phase → per-layer metric. Phases not listed (and counters
/// not listed below) stay in the trace but get no metric of their own.
const PHASE_METRICS: [(&str, &str); 15] = [
    ("parse", "netlist.parse_s"),
    ("flatten", "netlist.flatten_s"),
    ("extract", "netlist.extract_s"),
    ("emit", "netlist.emit_s"),
    ("sanitize", "core.sanitize_s"),
    ("collapse_chains", "core.collapse_s"),
    ("partition", "core.partition_s"),
    ("moments", "core.moments_s"),
    ("projection", "core.projection_s"),
    ("factor", "sparse.factor_s"),
    ("eigen", "lanczos.eigen_s"),
    ("partition_tree", "hier.partition_tree_s"),
    ("leaf_reuse", "hier.leaf_reuse_s"),
    ("leaf_reduce", "hier.leaf_reduce_s"),
    ("stitch", "hier.stitch_s"),
];

const COUNTER_METRICS: [(&str, &str); 15] = [
    ("chol_nnz", "sparse.chol_nnz"),
    ("panel_flops", "sparse.panel_flops"),
    ("supernode_count", "sparse.supernodes"),
    ("factorizations", "sparse.factorizations"),
    ("refactorizations", "sparse.refactorizations"),
    ("lanczos_matvecs", "lanczos.matvecs"),
    ("lanczos_iterations", "lanczos.iterations"),
    ("lanczos_restarts", "lanczos.restarts"),
    ("lanczos_reorthogonalizations", "lanczos.reorths"),
    ("poles_retained", "core.poles_retained"),
    ("poles_dropped", "core.poles_dropped"),
    ("hier_blocks", "hier.blocks"),
    ("hier_leaf_poles_retained", "hier.leaf_poles"),
    ("hier_leaf_trimmed_poles", "hier.leaf_trimmed"),
    ("hier_leaf_pattern_reuses", "hier.pattern_reuses"),
];

/// A reduction's telemetry, read from its `rcfit-telemetry-v1` JSON form
/// (the one `rcfit --log-json` writes and `rcfitd` responses embed), so
/// one reader serves one-shot calls and daemon replies alike.
#[derive(Clone, Debug, Default)]
pub struct Tel {
    pub phases: Vec<(String, f64)>,
    pub counters: Vec<(String, f64)>,
}

impl Tel {
    pub fn from_json(v: &Value) -> Tel {
        let phases = v
            .get("phases")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| {
                let name = p.get("name")?.as_str()?;
                Some((name.to_owned(), p.get("seconds")?.as_f64()?))
            })
            .collect();
        let counters = match v.get("counters") {
            Some(Value::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        };
        Tel { phases, counters }
    }

    pub fn of(t: &pact::Telemetry) -> Tel {
        Tel::from_json(&t.to_json())
    }

    pub fn phase(&self, name: &str) -> f64 {
        // A fold from +0: an empty `sum()` of floats is -0.
        self.phases
            .iter()
            .filter(|(n, _)| n == name)
            .fold(0.0, |acc, (_, s)| acc + s)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Adds one unit's per-layer metrics; `threads` is the reduction's
    /// thread count, for the hierarchical leaf efficiency.
    pub fn sample(&self, s: &mut Samples, threads: usize) {
        for (phase, metric) in PHASE_METRICS {
            s.add(metric, "s", self.phase(phase));
        }
        for (counter, metric) in COUNTER_METRICS {
            s.add(metric, "count", self.counter(counter));
        }
        let busy: f64 = LEAF_BUSY_PHASES.iter().map(|p| self.phase(p)).sum();
        let leaf_wall = self.phase("leaf_reduce");
        s.add("hier.leaf_busy_s", "s", busy);
        let eff = if leaf_wall > 0.0 {
            busy / (threads as f64 * leaf_wall)
        } else {
            0.0
        };
        s.add("hier.leaf_par_eff", "ratio", eff);
        let matvecs = self.counter("lanczos_matvecs");
        if matvecs > 0.0 {
            s.add(
                "lanczos.ms_per_matvec",
                "ms",
                1e3 * self.phase("eigen") / matvecs,
            );
        }
        let factor = self.phase("factor");
        if factor > 0.0 {
            // Computed from the structural flop count, not measured.
            s.add(
                "sparse.factor_gflops",
                "GFLOP/s",
                self.counter("panel_flops") / factor / 1e9,
            );
        }
    }
}

/// Largest over smallest of the eigen-phase times of the same deck under
/// different cap corners: the Lanczos cliff.
pub fn eigen_spread(eigen_s: &[f64]) -> f64 {
    let max = eigen_s.iter().copied().fold(f64::MIN, f64::max);
    let min = eigen_s.iter().copied().fold(f64::MAX, f64::min);
    if min > 0.0 {
        max / min
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_fills_absent_counts_and_rejects_absent_times() {
        let mut r = Report::default();
        r.e2e("deck_s", "s", &[3.0, 1.0, 2.0]);
        r.gate(Ok(()));
        let want = |n: &str, u: &str| vec![(n.to_owned(), u.to_owned())];
        let line = r.result_line(&want("deck_s", "s")).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"deck_s":{"value":2,"unit":"s"}}}"#
        );
        assert!(r
            .result_line(&want("hier.blocks", "count"))
            .unwrap()
            .contains(r#""value":0"#));
        assert!(r.result_line(&want("flow_s", "s")).is_err());
        assert!(r.result_line(&want("deck_s", "ms")).is_err());
    }

    #[test]
    fn telemetry_json_reads_into_layer_metrics() {
        let mut t = pact::Telemetry::new();
        t.record_phase("leaf_reduce", 1.0);
        t.record_phase("leaf_factor", 0.75);
        t.record_phase("leaf_schur", 0.75);
        t.record_phase("eigen", 0.5);
        t.counters.lanczos_matvecs = 100;
        let tel = Tel::of(&t);
        let mut s = Samples::default();
        tel.sample(&mut s, 2);
        let mut r = Report::default();
        s.into_report(&mut r);
        assert_eq!(r.find("hier.leaf_busy_s").unwrap().value, 1.5);
        assert_eq!(r.find("hier.leaf_par_eff").unwrap().value, 0.75);
        assert_eq!(r.find("lanczos.ms_per_matvec").unwrap().value, 5.0);
        assert_eq!(r.find("lanczos.matvecs").unwrap().value, 100.0);
        assert_eq!(r.find("sparse.factor_s").unwrap().value, 0.0);
    }
}
