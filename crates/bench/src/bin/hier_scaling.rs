//! Flat-vs-hierarchical A/B and hier thread-scaling study.
//!
//! Times `pact::reduce_network` (reduction work only — the deck is built
//! once per mesh, *outside* every timed region, unlike the retired
//! `ci/check.sh` perf section that timed the whole `rcfit` CLI pipeline
//! including parse and file I/O) on two substrate meshes:
//!
//! * `10k` — 32×32×10, 64 contacts (~10k internal nodes)
//! * `20k` — 40×40×13, 64 contacts (~20k internal nodes)
//!
//! Full mode reduces each mesh flat at 1 thread and hierarchically at
//! 1/2/4/8 threads, prints the phase breakdown of the 1-thread hier run,
//! and writes `BENCH_hier.json`. The hier models are bit-identical at
//! every thread count (see `hier_equivalence.rs`); only the wall clock
//! varies.
//!
//! `--smoke` is the CI check: a 1-thread A/B on both meshes (min of two
//! runs per side, damping 1-core host noise) that asserts flat and
//! hierarchical keep the same pole count on both meshes, prints `PERF`
//! lines and `hier smoke OK`, and skips the JSON so a scratch-dir run
//! never clobbers the committed full-size artifact. It does not gate on
//! wall clock: flat is faster than hier at 1 thread on both meshes.
//!
//! ```text
//! cargo run --release -p pact-bench --bin hier_scaling [--smoke]
//! ```

use pact::{CutoffSpec, EigenSelect, ReduceOptions, ReduceStrategy, Reduction};
use pact_bench::{print_table, secs, timed};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_netlist::RcNetwork;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct MeshCase {
    label: &'static str,
    nx: usize,
    ny: usize,
    nz: usize,
    contacts: usize,
}

const MESHES: [MeshCase; 2] = [
    MeshCase {
        label: "10k",
        nx: 32,
        ny: 32,
        nz: 10,
        contacts: 64,
    },
    MeshCase {
        label: "20k",
        nx: 40,
        ny: 40,
        nz: 13,
        contacts: 64,
    },
];

struct MeshResult {
    label: &'static str,
    nodes: usize,
    flat_s: f64,
    flat_poles: usize,
    /// `(threads, seconds)` for the hier sweep; smoke mode records only
    /// the 1-thread entry.
    hier_s: Vec<(usize, f64)>,
    hier_poles: usize,
    hier_blocks: u64,
}

fn opts(threads: usize, strategy: ReduceStrategy) -> ReduceOptions {
    ReduceOptions {
        cutoff: CutoffSpec::new(500e6, 0.10).expect("cutoff"),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: pact_sparse::Ordering::NestedDissection,
        dense_threshold: 400,
        threads: Some(threads),
        pivot_relief: None,
        strategy,
        expansion_points: None,
        chol_kernel: pact::CholKernel::Auto,
    }
}

fn hier_strategy() -> ReduceStrategy {
    // HIER_MAX_BLOCK is an experimentation override, not part of the
    // bench contract; the default matches the CLI/daemon default.
    let max_block = std::env::var("HIER_MAX_BLOCK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    ReduceStrategy::Hierarchical {
        max_block,
        max_depth: 16,
    }
}

fn run_mesh(case: &MeshCase, smoke: bool) -> MeshResult {
    // Deck construction stays outside every timed region.
    let net = substrate_mesh(&MeshSpec {
        nx: case.nx,
        ny: case.ny,
        nz: case.nz,
        num_contacts: case.contacts,
        ..MeshSpec::table4()
    });
    let nodes = net.num_nodes();
    println!(
        "## {} mesh: {}x{}x{}, {} contacts, {} nodes",
        case.label, case.nx, case.ny, case.nz, case.contacts, nodes
    );

    // Every configuration is timed twice and the minimum kept: on a
    // loaded host single runs swing by ±15%, and the min over repeats
    // estimates the noise floor both sides of the A/B the same way.
    let (flat, flat_s) = timed(|| reduce(&net, &opts(1, ReduceStrategy::Flat)));
    let (_, flat_s2) = timed(|| reduce(&net, &opts(1, ReduceStrategy::Flat)));
    let flat_s = flat_s.min(flat_s2);
    println!(
        "flat    threads=1: {} s ({} poles)",
        secs(flat_s),
        flat.model.num_poles()
    );
    let fb: Vec<String> = flat
        .telemetry
        .phases
        .iter()
        .map(|p| format!("{} {:.0}ms", p.name, p.seconds * 1e3))
        .collect();
    println!("  phases: {}", fb.join(", "));
    println!(
        "  lanczos_mv={} reorth={}",
        flat.telemetry.counters.lanczos_matvecs,
        flat.telemetry.counters.lanczos_reorthogonalizations
    );

    let threads: &[usize] = if smoke { &[1] } else { &THREAD_COUNTS };
    let mut hier_s = Vec::new();
    let mut hier_poles = 0;
    let mut hier_blocks = 0;
    for &t in threads {
        let (hier, s) = timed(|| reduce(&net, &opts(t, hier_strategy())));
        let (_, s2) = timed(|| reduce(&net, &opts(t, hier_strategy())));
        let s = s.min(s2);
        println!(
            "hier    threads={t}: {} s ({} poles, {} blocks)",
            secs(s),
            hier.model.num_poles(),
            hier.telemetry.counters.hier_blocks
        );
        if t == 1 {
            let breakdown: Vec<String> = hier
                .telemetry
                .phases
                .iter()
                .map(|p| format!("{} {:.0}ms", p.name, p.seconds * 1e3))
                .collect();
            println!("  phases: {}", breakdown.join(", "));
            let c = &hier.telemetry.counters;
            println!(
                "  separators={} max_sep={} max_block={} leaf_poles={} trimmed={} reuses={} lanczos_mv={} reorth={}",
                c.hier_separator_nodes,
                c.hier_max_separator_nodes,
                c.hier_max_block_nodes,
                c.hier_leaf_poles_retained,
                c.hier_leaf_trimmed_poles,
                c.hier_leaf_pattern_reuses,
                c.lanczos_matvecs,
                c.lanczos_reorthogonalizations
            );
        }
        hier_poles = hier.model.num_poles();
        hier_blocks = hier.telemetry.counters.hier_blocks;
        hier_s.push((t, s));
    }

    MeshResult {
        label: case.label,
        nodes,
        flat_s,
        flat_poles: flat.model.num_poles(),
        hier_s,
        hier_poles,
        hier_blocks,
    }
}

fn reduce(net: &RcNetwork, o: &ReduceOptions) -> Reduction {
    pact::reduce_network(net, o).expect("reduce")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("# Flat vs hierarchical reduction, fmax 500 MHz");
    println!(
        "host reports {} available core(s)",
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    let results: Vec<MeshResult> = MESHES.iter().map(|c| run_mesh(c, smoke)).collect();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let hier1 = r.hier_s[0].1;
            let hier_best = r.hier_s.iter().map(|&(_, s)| s).fold(f64::MAX, f64::min);
            vec![
                r.label.to_string(),
                format!("{}", r.nodes),
                secs(r.flat_s),
                secs(hier1),
                format!("{:.2}x", r.flat_s / hier1),
                secs(hier_best),
            ]
        })
        .collect();
    print_table(
        "Flat vs hier",
        &[
            "mesh",
            "nodes",
            "flat 1t (s)",
            "hier 1t (s)",
            "flat/hier",
            "hier best (s)",
        ],
        &rows,
    );
    for r in &results {
        for &(t, s) in &r.hier_s {
            println!(
                "PERF hier_scaling mesh={} threads={} hier_ms={:.1}",
                r.label,
                t,
                s * 1e3
            );
        }
        println!(
            "PERF hier_ab mesh={} flat_ms={:.1} hier_ms={:.1}",
            r.label,
            r.flat_s * 1e3,
            r.hier_s[0].1 * 1e3
        );
    }

    if smoke {
        for r in &results {
            assert_eq!(
                r.hier_poles, r.flat_poles,
                "hier and flat keep different pole counts on the {} mesh",
                r.label
            );
        }
        println!("hier smoke OK");
        return;
    }

    let json = render_json(&results);
    std::fs::write("BENCH_hier.json", &json).expect("write BENCH_hier.json");
    println!("wrote BENCH_hier.json");
}

/// Hand-rolled JSON (the workspace has no serializer dependency).
fn render_json(results: &[MeshResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"hier_scaling\",\n");
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    out.push_str("  \"meshes\": [\n");
    for (k, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"nodes\": {}, \"flat_seconds\": {:.6}, \"flat_poles\": {}, \"hier_poles\": {}, \"hier_blocks\": {},\n",
            r.label, r.nodes, r.flat_s, r.flat_poles, r.hier_poles, r.hier_blocks
        ));
        out.push_str("     \"hier\": [");
        for (j, &(t, s)) in r.hier_s.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"threads\": {t}, \"seconds\": {s:.6}}}",
                if j == 0 { "" } else { ", " }
            ));
        }
        out.push_str("]}");
        out.push_str(if k + 1 == results.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
