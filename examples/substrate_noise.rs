//! Substrate-noise macromodeling (the paper's Tables 2–3 / Figure 6
//! scenario): a one-bit full adder switches above a 3-D substrate mesh;
//! PACT compresses the ~1.5k-node mesh to a handful of nodes and the
//! substrate noise waveform at the monitor contact is preserved.
//!
//! Run with `cargo run --release --example substrate_noise`.

use pact::{CutoffSpec, ReduceOptions};
use pact_circuit::Circuit;
use pact_gen::{full_adder_deck, MeshSpec};
use pact_netlist::{extract_rc, splice_reduced};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A smaller mesh than the paper's keeps this example fast.
    let deck = full_adder_deck(&MeshSpec {
        nx: 10,
        ny: 10,
        nz: 4,
        num_contacts: 25,
        ..MeshSpec::table2()
    });
    let monitor = deck.monitor_port.clone();

    let ex = extract_rc(&deck.netlist, &[])?;
    println!(
        "substrate network: {} ports, {} internal nodes",
        ex.network.num_ports,
        ex.network.num_internal()
    );
    let opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05)?);
    let red = pact::reduce_network(&ex.network, &opts)?;
    println!("kept {} pole(s) below ~3 GHz", red.model.num_poles());
    let reduced = splice_reduced(&deck.netlist, red.model.to_netlist_elements("sub", 1e-9));

    for (name, nl) in [("original", &deck.netlist), ("reduced", &reduced)] {
        let ckt = Circuit::from_netlist(nl)?;
        let tr = ckt.transient(100e-12, 8e-9)?;
        let v = tr.voltage(&monitor).ok_or("missing monitor node")?;
        let dc = v[0];
        let peak = v.iter().map(|x| (x - dc).abs()).fold(0.0f64, f64::max);
        println!(
            "{name:>9}: substrate noise peak {:.2} mV around {:.1} mV bias, sim {:.2} s ({} unknowns)",
            peak * 1e3,
            dc * 1e3,
            tr.stats.elapsed_seconds,
            ckt.dim()
        );
    }
    Ok(())
}
