//! Quickstart: reduce a multiport RC network in a few lines.
//!
//! Builds a 50-segment RC interconnect line, reduces it with PACT at 5 %
//! tolerance up to 5 GHz, and compares the reduced admittance against the
//! exact one.
//!
//! Run with `cargo run --release --example quickstart`.

use pact::{CutoffSpec, Partitions, ReduceOptions, YEvaluator};
use pact_netlist::{extract_rc, parse};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A SPICE deck: an RC line driven by a source, loading a MOSFET
    //    gate. Any deck works — rcfit's extraction rules decide which
    //    nodes are ports.
    let mut deck =
        String::from("* quickstart line\nV1 n0 0 1\nM1 x n50 0 0 nch\n.model nch nmos()\n");
    for i in 0..50 {
        deck.push_str(&format!("R{i} n{i} n{} 5\n", i + 1));
        deck.push_str(&format!("C{i} n{} 0 27f\n", i + 1));
    }
    let netlist = parse(&deck)?;

    // 2. Extract the RC network; `n0` (source) and `n50` (gate) become
    //    ports, everything else is internal.
    let ex = extract_rc(&netlist, &[])?;
    println!(
        "network: {} ports + {} internal nodes",
        ex.network.num_ports,
        ex.network.num_internal()
    );

    // 3. Reduce: keep every admittance pole below the cutoff implied by
    //    "5 % error up to 5 GHz" (the cutoff lands at ~3x f_max).
    let opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05)?);
    let red = pact::reduce_network(&ex.network, &opts)?;
    println!(
        "reduced to {} internal node(s); poles at {:?} GHz",
        red.model.num_poles(),
        red.model
            .pole_frequencies()
            .iter()
            .map(|f| (f / 1e8).round() / 10.0)
            .collect::<Vec<_>>()
    );

    // 4. The reduction is passive by construction — verify anyway.
    assert!(red.model.is_passive(1e-8));
    println!("passivity: OK");

    // 5. Compare Y(jω) against the exact network.
    let parts = Partitions::split(&ex.network.stamp());
    let exact = YEvaluator::new(&parts);
    for f in [1e8, 1e9, 5e9] {
        let ye = exact.y_at(f)?[(0, 0)];
        let yr = red.model.y_at(f)[(0, 0)];
        println!(
            "f = {:>5.1} GHz: |Y11| exact {:.4e}  reduced {:.4e}  (err {:.2} %)",
            f / 1e9,
            ye.abs(),
            yr.abs(),
            (yr - ye).abs() / ye.abs() * 100.0
        );
    }

    // 6. Emit the reduced network as SPICE elements.
    let elements = red.model.to_netlist_elements("red", 1e-9);
    println!(
        "reduced SPICE netlist fragment ({} elements):",
        elements.len()
    );
    for e in &elements {
        println!("  {e}");
    }
    Ok(())
}
