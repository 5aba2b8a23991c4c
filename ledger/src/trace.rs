//! Bench-side spans.
//!
//! The ledger adds no timer inside the program: it opens a span around
//! each public call it makes (`serve.prepare_deck`, `netlist.parse`,
//! `circuit.transient`, ...) and hangs the phases of the `Telemetry` that
//! call returned underneath it, marked as coming from telemetry. Telemetry
//! carries durations only, so those child spans are laid end to end from
//! the parent's start. Spans stay in memory and are written out when the
//! run ends. With tracing off every call is a no-op and `SpanId` is `None`.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use pact::json::Value;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Root spans that stand for one unit of the workload's `flow_s`; per-unit
/// layer metrics are medians over these.
const FLOW_ROOTS: [&str; 2] = ["flow", "serve.request"];

/// Root spans of a load generator sleeping until a request is due: they
/// cover wall time but are not work.
pub const IDLE: &str = "idle";

/// Hierarchical leaf phases that are summed over leaves rather than timed
/// on the wall clock: they nest inside `leaf_reduce` and overlap when the
/// leaves run in parallel, so they are read as attributes, not spans.
pub const LEAF_BUSY_PHASES: [&str; 4] = [
    "leaf_partition",
    "leaf_factor",
    "leaf_moments",
    "leaf_schur",
];

/// One timed interval, in seconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Shared by every span of one deck or request.
    pub req: u64,
    /// Read from a `Telemetry` record rather than timed by the ledger.
    pub telemetry: bool,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_req: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_req: 0,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// `t` in seconds since the tracer started.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a span with known bounds; a span without a parent starts a
    /// new request.
    pub fn record(&mut self, name: &str, start: f64, end: f64, parent: SpanId) -> SpanId {
        self.push(name, start, end, parent, false)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: SpanId) -> SpanId {
        let now = self.at(Instant::now());
        self.record(name, now, now, parent)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.at(Instant::now());
        }
    }

    /// Hangs telemetry phases under `parent`, end to end from `from`.
    pub fn phases(&mut self, parent: SpanId, phases: &[(String, f64)], from: f64) {
        let mut t = from;
        for (name, secs) in phases {
            if !LEAF_BUSY_PHASES.contains(&name.as_str()) {
                self.push(name, t, t + secs, parent, true);
                t += secs;
            }
        }
    }

    fn push(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: SpanId,
        telemetry: bool,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let req = match parent {
            Some(p) => self.spans[p].req,
            None => {
                self.next_req += 1;
                self.next_req
            }
        };
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            req,
            telemetry,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name".into(), Value::str(&s.name)),
                    ("start".into(), Value::num(s.start)),
                    ("end".into(), Value::num(s.end)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::num(p as f64)),
                    ),
                    ("req".into(), Value::num(s.req as f64)),
                    (
                        "source".into(),
                        Value::str(if s.telemetry { "telemetry" } else { "bench" }),
                    ),
                ])
            })
            .collect();
        let doc = Value::obj(vec![
            ("schema".into(), Value::str("pact-ledger-trace-v1")),
            ("spans".into(), Value::Arr(spans)),
        ]);
        std::fs::write(path, doc.render())
    }
}

/// The layer a span's self time is charged to.
pub fn layer(name: &str) -> &'static str {
    match name {
        "parse" | "flatten" | "extract" | "emit" | "netlist.parse" => "netlist",
        "factor" => "sparse",
        "eigen" => "lanczos",
        "partition_tree" | "leaf_reuse" | "leaf_reduce" | "stitch" => "hier",
        "circuit.from_netlist" | "circuit.transient" => "circuit",
        // A request's own time is queueing: it is covered by neither the
        // dispatch nor the service it records.
        "serve.prepare_deck" | "serve.submit" | "serve.service" | "serve.request" => "serve",
        "flow" | "deck_1t" | "full" | "bench.gen_late" => "bench",
        IDLE => IDLE,
        // sanitize, collapse_chains, partition, moments, projection; the
        // self time of `serve.reduce_prepared` (unattributed) and of
        // `serve.render_reduced` (realization); and any phase this table
        // does not know yet.
        _ => "core",
    }
}

/// Each span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut kids: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, k)| (s.end - s.start) - covered(s.start, s.end, k))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// What a traced run adds to its report.
pub struct Summary {
    /// Self seconds per layer over the whole window.
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Share of the window's wall time that layer self times account for.
    pub coverage: f64,
    /// Per flow unit: medians of span durations and self times by name.
    pub duration: BTreeMap<String, f64>,
    pub self_time: BTreeMap<String, f64>,
    pub units: usize,
}

/// Summarizes the spans of a measurement window `window` seconds long.
///
/// Coverage is the share of root-span time charged to a layer other than
/// `bench`, times the share of the window that root spans (idle ones
/// included) cover; for a sequential workload that is layer self time over
/// wall time.
pub fn summarize(spans: &[Span], window: f64) -> Summary {
    let selfs = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for (s, x) in spans.iter().zip(&selfs) {
        *by_layer.entry(layer(&s.name)).or_insert(0.0) += x;
    }
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let root_total: f64 = roots
        .iter()
        .filter(|s| s.name != IDLE)
        .map(|s| s.end - s.start)
        .sum();
    let in_roots = covered(
        f64::MIN,
        f64::MAX,
        roots.iter().map(|s| (s.start, s.end)).collect(),
    );
    let bench = by_layer.get("bench").copied().unwrap_or(0.0);
    let coverage = if root_total > 0.0 {
        (root_total - bench) / root_total * in_roots / window
    } else {
        0.0
    };

    let flow_reqs: HashSet<u64> = roots
        .iter()
        .filter(|s| FLOW_ROOTS.contains(&s.name.as_str()))
        .map(|s| s.req)
        .collect();
    let mut dur: BTreeMap<(String, u64), f64> = BTreeMap::new();
    let mut own: BTreeMap<(String, u64), f64> = BTreeMap::new();
    for (s, x) in spans.iter().zip(&selfs) {
        if flow_reqs.contains(&s.req) {
            *dur.entry((s.name.clone(), s.req)).or_insert(0.0) += s.end - s.start;
            *own.entry((s.name.clone(), s.req)).or_insert(0.0) += x;
        }
    }
    Summary {
        by_layer,
        coverage,
        duration: medians(dur),
        self_time: medians(own),
        units: flow_reqs.len(),
    }
}

fn medians(per_req: BTreeMap<(String, u64), f64>) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((name, _), v) in per_req {
        by_name.entry(name).or_default().push(v);
    }
    by_name
        .into_iter()
        .map(|(k, v)| (k, crate::stats::median(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            req: 1,
            telemetry: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let spans = vec![
            span("flow", 0.0, 10.0, None),
            span("serve.reduce_prepared", 1.0, 6.0, Some(0)),
            span("factor", 1.0, 3.0, Some(1)),
            span("eigen", 2.5, 5.0, Some(1)), // overlaps factor by 0.5
            span("netlist.parse", 7.0, 8.0, Some(0)),
            span("emit", 7.5, 9.0, Some(4)), // spills past its parent
        ];
        let s = self_times(&spans);
        assert!((s[0] - 4.0).abs() < 1e-12, "10 - (5 + 1) = {}", s[0]);
        assert!(
            (s[1] - 1.0).abs() < 1e-12,
            "5 - union(1..3, 2.5..5) = {}",
            s[1]
        );
        assert!((s[2] - 2.0).abs() < 1e-12);
        assert!(
            (s[4] - 0.5).abs() < 1e-12,
            "child clipped to parent: {}",
            s[4]
        );

        let sum = summarize(&spans, 10.0);
        assert!((sum.by_layer["bench"] - 4.0).abs() < 1e-12);
        assert!((sum.by_layer["sparse"] - 2.0).abs() < 1e-12);
        assert!((sum.coverage - 0.6).abs() < 1e-12, "{}", sum.coverage);

        // Idle time fills the window without counting as work.
        let mut idle = spans.clone();
        idle.push(span(IDLE, 10.0, 20.0, None));
        let sum = summarize(&idle, 20.0);
        assert!((sum.coverage - 0.6).abs() < 1e-12, "{}", sum.coverage);
        assert!((summarize(&spans, 20.0).coverage - 0.3).abs() < 1e-12);
        assert_eq!(sum.units, 1);
        assert!((sum.self_time["serve.reduce_prepared"] - 1.0).abs() < 1e-12);
        assert!((sum.duration["serve.reduce_prepared"] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn telemetry_phases_lay_out_end_to_end_and_skip_leaf_sums() {
        let mut tr = Tracer::new(true);
        let root = tr.record("flow", 0.0, 1.0, None);
        let phases: Vec<(String, f64)> =
            [("leaf_reduce", 0.3), ("leaf_factor", 0.5), ("stitch", 0.2)]
                .iter()
                .map(|(n, s)| (n.to_string(), *s))
                .collect();
        tr.phases(root, &phases, 0.1);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["flow", "leaf_reduce", "stitch"]);
        assert!((tr.spans()[2].start - 0.4).abs() < 1e-12);
        assert!(tr.spans()[2].telemetry);
        assert_eq!(tr.spans()[2].req, tr.spans()[0].req);

        let mut off = Tracer::new(false);
        assert_eq!(off.begin("flow", None), None);
        off.phases(None, &phases, 0.0);
        assert!(off.spans().is_empty());
    }
}
