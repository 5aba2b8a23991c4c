//! AC-sweep scaling study: points × threads with a factor-vs-refactor
//! ablation. One symbolic LU analysis serves the whole `G + jωC` grid
//! (numeric-only refactorization per point, fanned across worker
//! threads); the ablation re-runs the full symbolic + numeric
//! factorization at every frequency. Measurements go to
//! `BENCH_sweep.json`.
//!
//! The sweep voltages are bit-identical across thread counts *and*
//! across the reuse ablation (a refactorization reproduces a fresh
//! factorization exactly — see `tests/refactor_equivalence.rs`); this
//! binary measures only the wall clock.
//!
//! ```text
//! cargo run --release -p pact-bench --bin ac_sweep_scaling [NX NY NZ CONTACTS POINTS]
//! cargo run --release -p pact-bench --bin ac_sweep_scaling -- --smoke
//! ```
//!
//! Defaults to an 8×8×54 substrate mesh with 24 contacts (3456 nodes)
//! swept over 60 log-spaced points — the "large mesh" acceptance
//! configuration. The tall-thin aspect keeps the natural-order LU
//! bandwidth small so the sweep finishes quickly even on one core;
//! the reduction factors the same node count either way. `--smoke` runs a small deterministic self-check
//! (AC sweep at 1 vs 4 threads, reuse ablation, linear-transient
//! factorization accounting) and prints a `PERF` line for CI to record.

use pact_bench::{print_table, secs, timed};
use pact_circuit::{AcExcitation, AcOptions, Circuit};
use pact_gen::{network_to_elements, rc_line_elements, substrate_mesh, LineSpec, MeshSpec};
use pact_netlist::{Element, ElementKind, Netlist, Waveform};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Sample {
    threads: usize,
    seconds: f64,
    factorizations: usize,
    refactorizations: usize,
}

/// A substrate mesh as a simulatable deck: the generated RC network
/// plus an AC drive source at the first contact.
fn mesh_circuit(nx: usize, ny: usize, nz: usize, contacts: usize) -> (Circuit, usize) {
    let net = substrate_mesh(&MeshSpec {
        nx,
        ny,
        nz,
        num_contacts: contacts,
        ..MeshSpec::table4()
    });
    let nodes = net.num_nodes();
    let mut nl = Netlist::new(format!("ac sweep mesh {nx}x{ny}x{nz}"));
    nl.elements = network_to_elements(&net, "m");
    nl.elements.push(Element {
        name: "Vac".to_owned(),
        kind: ElementKind::VSource {
            p: net.node_names[0].clone().into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(0.0)),
        },
    });
    (Circuit::from_netlist(&nl).expect("mesh circuit"), nodes)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let nums: Vec<usize> = argv
        .iter()
        .map(|a| {
            a.parse()
                .expect("args: NX NY NZ CONTACTS POINTS (positive integers) or --smoke")
        })
        .collect();
    let (nx, ny, nz, contacts, points) = match nums.as_slice() {
        [] => (8, 8, 54, 24, 60),
        [nx, ny, nz, m, p] => (*nx, *ny, *nz, *m, *p),
        _ => panic!("args: NX NY NZ CONTACTS POINTS (all five or none)"),
    };

    println!("# AC sweep scaling: {nx}x{ny}x{nz} mesh, {contacts} contacts, {points} points");
    println!(
        "host reports {} available core(s)",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let (ckt, nodes) = mesh_circuit(nx, ny, nz, contacts);
    println!("mesh: {nodes} nodes");
    let freqs = grid(points);
    let exc = AcExcitation::VSource("Vac".to_owned());

    // Thread scaling with symbolic reuse (the production path).
    let mut samples = Vec::new();
    for &t in &THREAD_COUNTS {
        let opt = AcOptions {
            threads: Some(t),
            reuse_symbolic: true,
        };
        // Warm-up at each thread count so allocator state is steady.
        let _ = ckt.ac_sweep_with(&freqs, &exc, &opt).expect("ac");
        let (ac, seconds) = timed(|| ckt.ac_sweep_with(&freqs, &exc, &opt).expect("ac"));
        println!(
            "threads={t}: {} s ({} factorizations, {} refactorizations)",
            secs(seconds),
            ac.stats.factorizations,
            ac.stats.refactorizations
        );
        samples.push(Sample {
            threads: t,
            seconds,
            factorizations: ac.stats.factorizations,
            refactorizations: ac.stats.refactorizations,
        });
    }

    // Ablation: full symbolic + numeric factorization at every point,
    // single-threaded — the pre-reuse baseline.
    let ablate_opt = AcOptions {
        threads: Some(1),
        reuse_symbolic: false,
    };
    let _ = ckt.ac_sweep_with(&freqs, &exc, &ablate_opt).expect("ac");
    let (ab, ablation_s) = timed(|| ckt.ac_sweep_with(&freqs, &exc, &ablate_opt).expect("ac"));
    println!(
        "ablation (reuse off, 1 thread): {} s ({} factorizations)",
        secs(ablation_s),
        ab.stats.factorizations
    );

    let base = samples[0].seconds;
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                format!("{}", s.threads),
                secs(s.seconds),
                format!("{:.2}", base / s.seconds),
                format!("{:.2}", ablation_s / s.seconds),
            ]
        })
        .collect();
    print_table(
        "AC sweep scaling (reuse on)",
        &["threads", "sweep (s)", "vs 1 thread", "vs no-reuse"],
        &rows,
    );
    println!(
        "symbolic reuse speedup at 1 thread: {:.2}x",
        ablation_s / base
    );

    let json = render_json(nx, ny, nz, nodes, points, &samples, ablation_s, &ab.stats);
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("wrote BENCH_sweep.json");
}

fn grid(points: usize) -> Vec<f64> {
    (0..points.max(2))
        .map(|k| 1e6 * (1e10f64 / 1e6).powf(k as f64 / (points.max(2) - 1) as f64))
        .collect()
}

/// Small self-check for CI: sweep determinism across thread counts and
/// the reuse ablation, plus the linear-transient "one symbolic, one
/// numeric per step size" accounting, with a `PERF` line recording the
/// factor-vs-refactor wall clock.
fn smoke() {
    let (ckt, nodes) = mesh_circuit(8, 8, 3, 6);
    let freqs = grid(16);
    let exc = AcExcitation::VSource("Vac".to_owned());
    println!("# smoke: {nodes}-node mesh, {} points", freqs.len());

    let opt1 = AcOptions {
        threads: Some(1),
        reuse_symbolic: true,
    };
    let _ = ckt.ac_sweep_with(&freqs, &exc, &opt1).expect("ac");
    let (base, reuse_s) = timed(|| ckt.ac_sweep_with(&freqs, &exc, &opt1).expect("ac"));
    let par = ckt
        .ac_sweep_with(
            &freqs,
            &exc,
            &AcOptions {
                threads: Some(4),
                reuse_symbolic: true,
            },
        )
        .expect("ac");
    assert_eq!(
        base.voltages, par.voltages,
        "AC sweep not bit-identical at 1 vs 4 threads"
    );
    assert_eq!(
        (base.stats.factorizations, base.stats.refactorizations),
        (par.stats.factorizations, par.stats.refactorizations),
        "AC sweep work counters differ at 1 vs 4 threads"
    );
    println!(
        "ac sweep determinism OK (1 vs 4 threads, {} points)",
        freqs.len()
    );

    let ablate_opt = AcOptions {
        threads: Some(1),
        reuse_symbolic: false,
    };
    let _ = ckt.ac_sweep_with(&freqs, &exc, &ablate_opt).expect("ac");
    let (ablate, fresh_s) = timed(|| ckt.ac_sweep_with(&freqs, &exc, &ablate_opt).expect("ac"));
    assert_eq!(
        base.voltages, ablate.voltages,
        "symbolic reuse changed the sweep result"
    );
    assert!(
        ablate.stats.factorizations > base.stats.factorizations,
        "ablation did not disable symbolic reuse"
    );
    println!("reuse-vs-fresh equivalence OK");

    // Linear transient: one symbolic analysis, at most one numeric
    // factorization per distinct (gmin, step-size) key, and repeat runs
    // are bit-identical.
    let mut nl = Netlist::new("smoke line".to_owned());
    nl.elements = rc_line_elements(
        &LineSpec {
            segments: 40,
            ..LineSpec::default()
        },
        "in",
        "out",
        "ln",
    );
    // Current-source drive keeps the MNA diagonally dominant, so the
    // pivot order captured at the first gmin stage serves the whole run
    // and the "exactly one symbolic analysis" invariant is exact.
    nl.elements.push(Element {
        name: "Iin".to_owned(),
        kind: ElementKind::ISource {
            p: "in".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Pulse {
                v1: 0.0,
                v2: 1e-3,
                td: 0.1e-9,
                tr: 0.1e-9,
                tf: 0.1e-9,
                pw: 1.0e-9,
                per: 4e-9,
            }),
        },
    });
    let line = Circuit::from_netlist(&nl).expect("line circuit");
    let tr1 = line.transient(2e-11, 4e-9).expect("tran");
    let tr2 = line.transient(2e-11, 4e-9).expect("tran");
    assert_eq!(tr1.waves, tr2.waves, "transient runs not bit-identical");
    assert_eq!(
        tr1.stats.factorizations, 1,
        "linear transient must perform exactly one symbolic analysis"
    );
    assert!(
        tr1.stats.refactorizations <= 12,
        "linear transient must cache numerics per step size (got {} refactorizations)",
        tr1.stats.refactorizations
    );
    println!(
        "transient accounting OK ({} steps, {} factorization, {} refactorizations)",
        tr1.stats.steps, tr1.stats.factorizations, tr1.stats.refactorizations
    );

    println!(
        "PERF fresh_factor_sweep_s={fresh_s:.6} refactor_sweep_s={reuse_s:.6} reuse_speedup={:.2}",
        fresh_s / reuse_s
    );
    println!("smoke OK");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    nx: usize,
    ny: usize,
    nz: usize,
    nodes: usize,
    points: usize,
    samples: &[Sample],
    ablation_s: f64,
    ablation_stats: &pact_circuit::SimStats,
) -> String {
    // Hand-rolled JSON (the workspace has no serializer dependency).
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"ac_sweep_scaling\",\n");
    out.push_str(&format!(
        "  \"mesh\": {{\"nx\": {nx}, \"ny\": {ny}, \"nz\": {nz}, \"nodes\": {nodes}}},\n"
    ));
    out.push_str(&format!("  \"points\": {points},\n"));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    out.push_str("  \"samples\": [\n");
    for (k, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"seconds\": {:.6}, \"factorizations\": {}, \"refactorizations\": {}}}{}\n",
            s.threads,
            s.seconds,
            s.factorizations,
            s.refactorizations,
            if k + 1 == samples.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"ablation\": {{\"threads\": 1, \"reuse_symbolic\": false, \"seconds\": {:.6}, \"factorizations\": {}, \"refactorizations\": {}}},\n",
        ablation_s, ablation_stats.factorizations, ablation_stats.refactorizations
    ));
    out.push_str(&format!(
        "  \"reuse_speedup_1_thread\": {:.4}\n",
        ablation_s / samples[0].seconds
    ));
    out.push_str("}\n");
    out
}
