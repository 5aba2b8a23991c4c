//! Table 4: reduction of the very large 3-D substrate mesh
//! (469 ports, ≈20k internal nodes) at 500 MHz / 10 % tolerance, with
//! the paper's memory comparison against the Padé-based methods
//! ("469 × 19877 × 8 = 71.1 MB for the Lanczos vectors alone; MPVL
//! requires two of these blocks").

use pact::{CutoffSpec, ReduceOptions};
use pact_baselines::{format_mb, mpvl_memory, pade_block_memory};
use pact_bench::{mb, print_table, secs, timed};
use pact_gen::{substrate_mesh, MeshSpec};

fn main() {
    println!("# Table 4: large 3-D mesh (469 ports), 500 MHz, 10 % tolerance");
    let spec = MeshSpec::table4();
    let net = substrate_mesh(&spec);
    let (r0, c0) = net.element_counts();
    println!(
        "\noriginal: {} ports, {} internal nodes, {} R, {} C",
        net.num_ports,
        net.num_internal(),
        r0,
        c0
    );
    println!("paper:    469 ports, 19877 internal nodes, 65809 R, 3683 C");

    let opts = ReduceOptions::new(CutoffSpec::new(500e6, 0.10).expect("cutoff"));
    let (red, elapsed) = timed(|| pact::reduce_network(&net, &opts).expect("reduce"));
    let hier_opts = ReduceOptions {
        strategy: pact::ReduceStrategy::Hierarchical {
            max_block: 2000,
            max_depth: 16,
        },
        ..opts.clone()
    };
    let (hred, helapsed) = timed(|| pact::reduce_network(&net, &hier_opts).expect("reduce hier"));
    // Aggressive sparsification, as the paper's Table 4 output counts imply.
    let elements = red.model.to_netlist_elements("red", 1e-5);
    let (rr, rc) = elements
        .iter()
        .fold((0usize, 0usize), |(r, c), e| match e.kind {
            pact_netlist::ElementKind::Resistor { .. } => (r + 1, c),
            pact_netlist::ElementKind::Capacitor { .. } => (r, c + 1),
            _ => (r, c),
        });

    print_table(
        "Table 4 (paper: 10 poles, 1792.6 s, 25.8 MB of which 19.5 MB is the Cholesky factor)",
        &[
            "network", "ports", "internal", "R's", "C's", "time (s)", "mem (MB)",
        ],
        &[
            vec![
                "original".into(),
                format!("{}", net.num_ports),
                format!("{}", net.num_internal()),
                format!("{r0}"),
                format!("{c0}"),
                "-".into(),
                "-".into(),
            ],
            vec![
                "reduced, 500 MHz".into(),
                format!("{}", red.model.num_ports()),
                format!("{}", red.model.num_poles()),
                format!("{rr}"),
                format!("{rc}"),
                secs(elapsed),
                mb(red.stats.modelled_memory_bytes),
            ],
            vec![
                "hier, block 2000".into(),
                format!("{}", hred.model.num_ports()),
                format!("{}", hred.model.num_poles()),
                "-".into(),
                "-".into(),
                secs(helapsed),
                mb(hred.stats.modelled_memory_bytes),
            ],
        ],
    );
    let hc = &hred.telemetry.counters;
    println!(
        "hier: {} blocks (depth {}), {} separator nodes, {} leaf poles kept, \
         largest block {} nodes; flat/hier wall-time ratio {:.2}",
        hc.hier_blocks,
        hc.hier_tree_depth,
        hc.hier_separator_nodes,
        hc.hier_leaf_poles_retained,
        hc.hier_max_block_nodes,
        elapsed / helapsed.max(1e-12)
    );
    let c = &red.telemetry.counters;
    println!(
        "supernodal kernel: {} supernodes, widest panel {} cols, {:.3e} panel flops",
        c.supernode_count, c.max_panel_cols, c.panel_flops as f64
    );
    println!(
        "Cholesky factor: {} nnz = {} MB of the total (paper: 19.5 of 25.8 MB)",
        red.stats.chol_nnz,
        mb(red.stats.chol_memory_bytes)
    );
    if let Some(ls) = red.stats.lanczos {
        println!(
            "Lanczos: {} block applies ({} matvecs), {} iterations, {} restarts, \
             peak {} length-n vectors",
            ls.block_applies, ls.matvecs, ls.iterations, ls.restarts, ls.peak_vectors
        );
    }

    let m = net.num_ports;
    let n = net.num_internal();
    println!("\n## Memory comparison with the Padé-based methods (paper §6 closing)");
    println!(
        "symmetric block-Lanczos Padé ([7]) Lanczos block: {}",
        format_mb(pade_block_memory(m, n))
    );
    println!(
        "MPVL ([6]) needs two blocks:                      {}",
        format_mb(mpvl_memory(m, n))
    );
    println!(
        "PACT working set beyond the factor:               {}",
        format_mb(red.stats.modelled_memory_bytes - red.stats.chol_memory_bytes)
    );
}
