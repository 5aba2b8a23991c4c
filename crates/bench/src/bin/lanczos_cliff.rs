//! Gate on the Lanczos capacitor-scale cost cliff.
//!
//! Rescaling every capacitor in a deck by ±1% — a change with no
//! structural meaning, the kind a process-corner sweep applies — once
//! moved the flat eigen phase by up to ~16×. The cause was a ghost stall
//! under selective orthogonalization: once the true poles had converged,
//! ghost copies of them sat unconverged above the cutoff, so the exit
//! test never passed and the run spent the whole 300-step iteration cap.
//! Whether the ghosts appeared depended on where the Ritz values fell,
//! which the cap scale shifts. Full reorthogonalization keeps the basis
//! orthogonal, so no ghosts form and every scale stops at the cutoff.
//!
//! This bench reduces a 16×16×4 substrate mesh flat at cap scales
//! {0.99, 0.995, 1.0, 1.005, 1.01}. Matvec counts are deterministic, so
//! it exits non-zero when any scale needs more than [`MAX_MATVECS`]
//! (the stall needed 282–322). A block apply counts as its width in
//! matvecs. It also prints the max/min eigen-time ratio, which it does
//! not gate on: the phase takes a few milliseconds, well inside host
//! timing noise.
//!
//! ```text
//! cargo run --release -p pact-bench --bin lanczos_cliff
//! ```

use pact::{CutoffSpec, ReduceOptions};
use pact_bench::print_table;
use pact_gen::{substrate_mesh, MeshSpec};
use pact_netlist::RcNetwork;

/// Matvec budget per cap scale. The block recurrence needs 52–53 (in
/// 12 block applies of up to 4 vectors); the single-vector one
/// needed 43–47, and the stall under selective orthogonalization
/// 282–322.
const MAX_MATVECS: u64 = 100;

const SCALES: [f64; 5] = [0.99, 0.995, 1.0, 1.005, 1.01];

fn cap_scaled(base: &RcNetwork, scale: f64) -> RcNetwork {
    let mut net = base.clone();
    for c in &mut net.capacitors {
        c.value *= scale;
    }
    net
}

fn eigen_seconds(net: &RcNetwork) -> (f64, u64, usize) {
    let opts = ReduceOptions {
        threads: Some(1),
        ..ReduceOptions::new(CutoffSpec::new(500e6, 0.10).expect("cutoff"))
    };
    let red = pact::reduce_network(net, &opts).expect("reduce");
    let eigen = red
        .telemetry
        .phases
        .iter()
        .find(|p| p.name == "eigen")
        .map_or(0.0, |p| p.seconds);
    let applies = red.stats.lanczos.map_or(0, |ls| ls.block_applies);
    (eigen, red.telemetry.counters.lanczos_matvecs, applies)
}

fn main() {
    println!("# Lanczos eigen-phase sensitivity to capacitor scale");
    let base = substrate_mesh(&MeshSpec {
        nx: 16,
        ny: 16,
        nz: 4,
        num_contacts: 24,
        ..MeshSpec::table4()
    });
    println!(
        "mesh 16x16x4, 24 contacts, {} nodes; flat Lanczos, fmax 500 MHz",
        base.num_nodes()
    );

    let mut rows = Vec::new();
    let mut times = Vec::new();
    let mut worst_matvecs = 0;
    for &s in &SCALES {
        let net = cap_scaled(&base, s);
        // Min of two runs per scale: the phase under test is tens of
        // milliseconds, well inside 1-core scheduler noise.
        let (e1, mv, applies) = eigen_seconds(&net);
        let (e2, _, _) = eigen_seconds(&net);
        let eigen = e1.min(e2);
        times.push(eigen);
        worst_matvecs = worst_matvecs.max(mv);
        rows.push(vec![
            format!("{s:.3}"),
            format!("{:.1}", eigen * 1e3),
            format!("{mv}"),
            format!("{applies}"),
        ]);
        println!(
            "PERF lanczos_cliff scale={s:.3} eigen_ms={:.1} matvecs={mv} block_applies={applies}",
            eigen * 1e3
        );
    }
    print_table(
        "Eigen phase vs cap scale",
        &["cap scale", "eigen (ms)", "matvecs", "block applies"],
        &rows,
    );

    let min = times.iter().cloned().fold(f64::MAX, f64::min).max(1e-9);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let ratio = max / min;
    println!("PERF lanczos_cliff ratio={ratio:.2}");
    if worst_matvecs > MAX_MATVECS {
        eprintln!(
            "lanczos_cliff FAILED: a cap scale needed {worst_matvecs} matvecs \
             (budget {MAX_MATVECS}) — the eigen phase ran past the cutoff"
        );
        std::process::exit(1);
    }
    println!("lanczos_cliff OK (max {worst_matvecs} matvecs <= {MAX_MATVECS})");
}
