//! Figure 5: magnitude of the small-signal transimpedance between the
//! monitor port and an NMOS port of the substrate mesh, for the original
//! network and the three reductions of Table 2, over 10 MHz–10 GHz.
//! The paper's error bars assert ≤5 % error below each reduction's
//! maximum frequency.

use pact::{CutoffSpec, ReduceOptions};
use pact_bench::print_table;
use pact_circuit::{log_frequencies, AcExcitation, Circuit};
use pact_gen::{network_to_elements, substrate_mesh, MeshSpec};
use pact_netlist::Netlist;

fn main() {
    println!("# Figure 5: substrate transimpedance |Z(monitor, nmos)| vs frequency");
    let spec = MeshSpec::table2();
    let net = substrate_mesh(&spec);
    let freqs = log_frequencies(27, 1e7, 1e10);
    let monitor = "port24";
    let inject = "port3";

    let run_ac = |deck: &Netlist| -> Vec<f64> {
        let ckt = Circuit::from_netlist(deck).expect("compile");
        let ac = ckt
            .ac_sweep(&freqs, &AcExcitation::CurrentInto(inject.into()))
            .expect("ac");
        ac.voltage(monitor)
            .expect("monitor")
            .iter()
            .map(|z| z.abs())
            .collect()
    };

    let mut deck = Netlist::new("original mesh");
    deck.elements = network_to_elements(&net, "sub");
    let z_orig = run_ac(&deck);

    let mut curves: Vec<(String, Vec<f64>)> = vec![("original".into(), z_orig.clone())];
    let mut rows = Vec::new();
    for &fmax in &[3e9, 1e9, 300e6] {
        let opts = ReduceOptions::new(CutoffSpec::new(fmax, 0.05).expect("cutoff"));
        let red = pact::reduce_network(&net, &opts).expect("reduce");
        let mut rdeck = Netlist::new("reduced mesh");
        rdeck.elements = red.model.to_netlist_elements("red", 1e-9);
        let z = run_ac(&rdeck);
        let mut worst_below: f64 = 0.0;
        let mut worst_any: f64 = 0.0;
        for (k, &f) in freqs.iter().enumerate() {
            let rel = (z[k] - z_orig[k]).abs() / z_orig[k];
            worst_any = worst_any.max(rel);
            if f <= fmax {
                worst_below = worst_below.max(rel);
            }
        }
        rows.push(vec![
            format!("{:.1} GHz", fmax / 1e9),
            format!("{}", red.model.num_poles()),
            format!("{:.2} %", worst_below * 100.0),
            format!("{:.2} %", worst_any * 100.0),
        ]);
        curves.push((format!("reduced {:.1} GHz", fmax / 1e9), z));
    }
    print_table(
        "error vs original (paper's bars: ≤5 % below each fmax; above fmax the model may diverge)",
        &[
            "max freq",
            "poles",
            "worst err ≤ fmax",
            "worst err full band",
        ],
        &rows,
    );

    println!("### |Z| in ohms (CSV)\n");
    print!("freq_hz");
    for (name, _) in &curves {
        print!(",{name}");
    }
    println!();
    for (k, &f) in freqs.iter().enumerate() {
        print!("{f:.4e}");
        for (_, z) in &curves {
            print!(",{:.3}", z[k]);
        }
        println!();
    }
}
