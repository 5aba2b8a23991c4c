//! `ledger`: the PACT benchmark.
//!
//! ```text
//! ledger run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! ledger compare A.json[,A2.json...] B.json[,B2.json...]
//! ledger reference
//! ```
//!
//! `run` measures one workload in this process, prints one
//! `workload metric value unit n=samples` line per metric, and ends with
//! a one-line JSON result (`correct`, `attempted`, `failed`, and the end-to-end metrics
//! untraced, per-layer metrics traced). `--workload all` runs every
//! workload in a child process of its own, so peak memory is per workload,
//! and writes `out/<git-rev>.json`. `reference` records the pole and
//! waveform references the correctness gates check against. See
//! README.md for the workloads and the metric dictionary.
//!
//! The ledger only calls the layers' public APIs — the `pact-serve` deck
//! pipeline and daemon, the netlist parser, the simulator — and uses the
//! `pact-gen` generators for set-up only. The programs under test see
//! nothing but generated deck text.

mod calls;
mod compare;
mod gate;
mod mesh;
mod mult;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use pact::json::Value;

use crate::report::Report;
use crate::trace::Tracer;

const WORKLOADS: [&str; 4] = ["mesh_flat", "mesh_hier", "serve_mix", "mult_sim"];

/// Whether to time another set-up: `setup_s` is the median of at least
/// five, spanning at least half a second, so that a short stall of the
/// host cannot move the median of a set-up that takes milliseconds.
pub fn more_set_ups(times: &[f64]) -> bool {
    times.len() < 5 || times.iter().sum::<f64>() < 0.5
}

/// Bench-side spans turned into per-layer metrics: span, metric, and
/// whether the metric is the span's self time (else its duration).
const SPAN_METRICS: [(&str, &str, bool); 6] = [
    ("serve.prepare_deck", "serve.dispatch_s", false),
    ("serve.reduce_prepared", "core.unattributed_s", true),
    ("serve.render_reduced", "core.realize_s", true),
    ("netlist.parse", "netlist.reparse_s", false),
    ("circuit.from_netlist", "circuit.compile_s", false),
    ("circuit.transient", "circuit.transient_s", false),
];

pub struct Cfg {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
}

impl Cfg {
    /// How long the measurement loop may run before it stops starting
    /// passes.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: every seeded choice the workloads make.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The directory holding this package: references, baselines, output.
pub fn ledger_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, next to the package: metric names, units and bounds.
pub fn bench_spec() -> Result<Value, String> {
    let path = ledger_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("unit")?.as_str()?.to_owned(),
            ))
        })
        .collect()
}

/// Adds what the spans of a traced run say: per-unit call times, self
/// time per layer, and the share of the window they account for.
pub fn traced_layers(rep: &mut Report, tr: &Tracer, (from, to): (f64, f64)) {
    if !tr.is_on() {
        return;
    }
    let sum = trace::summarize(tr.spans(), to - from);
    for (span, metric, own) in SPAN_METRICS {
        let per_unit = if own { &sum.self_time } else { &sum.duration };
        if let Some(&v) = per_unit.get(span) {
            rep.layer(metric, "s", v, sum.units);
        }
    }
    for (layer, s) in &sum.by_layer {
        rep.layer(&format!("trace.self_s.{layer}"), "s", *s, 1);
    }
    rep.layer("trace.coverage", "ratio", sum.coverage, sum.units);
}

/// VmHWM, the process's peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn environment() -> Value {
    let var = |k: &str| Value::str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Value::obj(vec![
        ("git_rev".into(), var("LEDGER_GIT_REV")),
        ("git_dirty".into(), var("LEDGER_GIT_DIRTY")),
        ("rustc".into(), var("LEDGER_RUSTC")),
        ("available_parallelism".into(), Value::num(cores as f64)),
        ("cpu_model".into(), Value::str(cpu)),
        ("unix_time".into(), Value::num(now as f64)),
    ])
}

struct RunArgs {
    workload: String,
    cfg: Cfg,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: "all".into(),
        cfg: Cfg {
            seed: 1,
            seconds: 20,
            smoke: false,
        },
        traced: false,
        out: None,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => r.workload = value()?,
            "--seed" => r.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => r.traced = value()? != "0",
            "--out" => r.out = Some(value()?.into()),
            "--smoke" => r.cfg.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // Smoke runs take the same paths on tiny inputs and short phases.
    r.cfg.seconds = seconds.unwrap_or(if r.cfg.smoke { 2 } else { 20 });
    if r.workload != "all" && !WORKLOADS.contains(&r.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {WORKLOADS:?} or all)",
            r.workload
        ));
    }
    Ok(r)
}

/// Runs one workload here and prints its lines and its JSON result.
fn run_one(a: &RunArgs) -> Result<(), String> {
    let spec = bench_spec()?;
    let mut tr = Tracer::new(a.traced);
    let mut rep = match a.workload.as_str() {
        "mesh_flat" => mesh::run(&a.cfg, &mut tr, false),
        "mesh_hier" => mesh::run(&a.cfg, &mut tr, true),
        "serve_mix" => serve::run(&a.cfg, &mut tr),
        _ => mult::run(&a.cfg, &mut tr),
    };
    rep.e2e("peak_rss_mb", "MB", &[peak_rss_mb()]);
    let out = ledger_dir().join("out");
    if a.traced {
        let dir = out.join("trace");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}.json", a.workload));
        tr.write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &a.out {
        let head = vec![
            ("workload".into(), Value::str(&a.workload)),
            ("seed".into(), Value::num(a.cfg.seed as f64)),
            ("seconds".into(), Value::num(a.cfg.seconds as f64)),
            ("traced".into(), Value::Bool(a.traced)),
            ("smoke".into(), Value::Bool(a.cfg.smoke)),
            ("env".into(), environment()),
        ];
        std::fs::write(path, rep.to_json(head).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", rep.lines(&a.workload, a.traced));
    let wanted = declared(&spec, if a.traced { "per_layer" } else { "end_to_end" });
    println!("{}", rep.result_line(&wanted)?);
    Ok(())
}

/// Runs every workload in a child process and writes the combined
/// results; `Ok(false)` when a child failed or a gate did.
fn run_all(a: &RunArgs) -> Result<bool, String> {
    let out = ledger_dir().join("out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let part = out.join(format!(".{w}.part.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w, "--seed", &a.cfg.seed.to_string()])
            .args(["--seconds", &a.cfg.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if a.cfg.smoke {
            cmd.arg("--smoke");
        }
        let child = cmd.output().map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        // Everything but the JSON result line, which is for one workload.
        let lines: Vec<&str> = stdout.lines().collect();
        for l in &lines[..lines.len().saturating_sub(1)] {
            println!("{l}");
        }
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let run = std::fs::read_to_string(&part)
            .ok()
            .and_then(|t| Value::parse(&t).ok());
        let _ = std::fs::remove_file(&part);
        match run {
            Some(run) if child.status.success() => {
                ok &= run.get("failed").and_then(Value::as_f64) == Some(0.0);
                runs.push(run);
            }
            _ => {
                println!("{w} FAILED: run exited with {}", child.status);
                ok = false;
            }
        }
    }
    let rev = std::env::var("LEDGER_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let tag = match (a.cfg.smoke, a.traced) {
        (false, false) => "",
        (false, true) => ".trace",
        (true, false) => ".smoke",
        (true, true) => ".smoke.trace",
    };
    let path = out.join(format!("{rev}{tag}.json"));
    let doc = Value::obj(vec![
        ("schema".into(), Value::str("pact-ledger-v1")),
        ("runs".into(), Value::Arr(runs)),
    ]);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn write_references() -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    gate::write(
        "mesh_flat",
        mesh::reference(false, false)?,
        mesh::reference(false, true)?,
    )
    .map_err(io)?;
    gate::write(
        "mesh_hier",
        mesh::reference(true, false)?,
        mesh::reference(true, true)?,
    )
    .map_err(io)?;
    gate::write("mult_sim", mult::reference(false)?, mult::reference(true)?).map_err(io)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| {
            if a.workload == "all" {
                run_all(&a)
            } else {
                run_one(&a).map(|()| true)
            }
        }),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("reference") => write_references().map(|()| true),
        _ => Err(
            "usage: ledger run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
                  [--smoke] [--out FILE] | ledger compare A.json B.json | ledger reference"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
