//! Table 3 / prerequisite of Figure 6: transient simulation of the
//! one-bit full adder over the substrate mesh, original vs the
//! 1 GHz / 5 % PACT reduction. The paper reports a >300× simulation
//! speedup and two-orders-of-magnitude memory reduction.

use pact_bench::{mb, print_table, reduce_deck, secs, timed};
use pact_circuit::Circuit;
use pact_gen::{full_adder_deck, MeshSpec};
use pact_netlist::Element;

fn main() {
    println!("# Table 3: full-adder transient, original vs reduced substrate");
    let deck = full_adder_deck(&MeshSpec::table2());
    let nl = &deck.netlist;
    let rc_orig = nl.count(Element::is_rc);
    println!(
        "\noriginal: {} RC elements, monitor = {} (paper: 1540 nodes, 5256 RC)",
        rc_orig, deck.monitor_port
    );

    let red = reduce_deck(nl, 1e9, 0.05, 1e-9);
    let rc_red = red.deck.count(Element::is_rc);
    println!(
        "reduction: {} poles retained across {} ports in {} s",
        red.poles,
        red.ports,
        secs(red.seconds)
    );

    let tstep = 100e-12;
    let tstop = 16e-9;
    let mut rows = Vec::new();
    for (name, d, red_info) in [
        ("original", nl, None),
        (
            "reduced, 1 GHz",
            &red.deck,
            Some((red.seconds, red.modelled_memory_bytes)),
        ),
    ] {
        let ckt = Circuit::from_netlist(d).expect("compile");
        let (nodes, _, caps, mosfets) = ckt.device_counts();
        let (tr, sim_t) = timed(|| ckt.transient(tstep, tstop).expect("transient"));
        let (rt, rm) = red_info
            .map(|(t, m)| (secs(t), mb(m)))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        rows.push(vec![
            name.to_owned(),
            format!("{nodes}"),
            format!("{}", d.count(Element::is_rc)),
            format!("{mosfets} / {caps}"),
            rt,
            rm,
            secs(sim_t),
            mb(tr.stats.modelled_memory_bytes),
        ]);
    }
    let speedup: f64 = {
        let a: f64 = rows[0][6].parse().unwrap_or(1.0);
        let b: f64 = rows[1][6].parse().unwrap_or(1.0);
        a / b.max(1e-9)
    };
    print_table(
        "Table 3 (paper: 12511.6 s → 40.0 s, >300×; memory 44.9 → 0.4 MB)",
        &[
            "substrate network",
            "nodes",
            "RC elements",
            "MOSFETs / caps",
            "RCFIT time (s)",
            "RCFIT mem (MB)",
            "sim time (s)",
            "sim mem (MB)",
        ],
        &rows,
    );
    println!("simulation speedup from reduction: {speedup:.0}x");
    println!("original RC count {rc_orig} -> reduced {rc_red}");
}
