//! Figure 6: substrate voltage fluctuations at the monitor port during
//! full-adder switching activity — original mesh vs the 1 GHz reduced
//! network. The reduced network must track the noise waveform.

use pact_bench::{print_table, print_waveforms, reduce_deck};
use pact_circuit::Circuit;
use pact_gen::{full_adder_deck, MeshSpec};

fn main() {
    println!("# Figure 6: substrate voltage fluctuations (monitor port)");
    let deck = full_adder_deck(&MeshSpec::table2());
    let red = reduce_deck(&deck.netlist, 1e9, 0.05, 1e-9);
    println!("\nreduction kept {} poles", red.poles);

    let tstep = 50e-12;
    let tstop = 12e-9;
    let monitor = deck.monitor_port.as_str();

    let mut curves = Vec::new();
    for (name, d) in [("original", &deck.netlist), ("reduced 1 GHz", &red.deck)] {
        let ckt = Circuit::from_netlist(d).expect("compile");
        let tr = ckt.transient(tstep, tstop).expect("transient");
        let v = tr.voltage(monitor).expect("monitor waveform");
        curves.push((name.to_owned(), tr.times, v));
    }

    // Compare: peak amplitude and max deviation.
    let (to, vo) = (&curves[0].1, &curves[0].2);
    let (tr_, vr) = (&curves[1].1, &curves[1].2);
    let peak_o = vo.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let peak_r = vr.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut worst: f64 = 0.0;
    for (k, &t) in to.iter().enumerate() {
        let mut vi = *vr.last().unwrap();
        for kk in 1..tr_.len() {
            if t <= tr_[kk] {
                let f = (t - tr_[kk - 1]) / (tr_[kk] - tr_[kk - 1]).max(1e-30);
                vi = vr[kk - 1] + f * (vr[kk] - vr[kk - 1]);
                break;
            }
        }
        worst = worst.max((vi - vo[k]).abs());
    }
    print_table(
        "noise summary (paper: 'the reduced network gives a very good approximation')",
        &["quantity", "original", "reduced", "abs diff"],
        &[vec![
            "peak |v(monitor)| (mV)".into(),
            format!("{:.2}", peak_o * 1e3),
            format!("{:.2}", peak_r * 1e3),
            format!("{:.2}", (peak_o - peak_r).abs() * 1e3),
        ]],
    );
    println!("max waveform deviation: {:.3} mV", worst * 1e3);

    let series: Vec<(&str, &[f64])> = curves
        .iter()
        .map(|(n, _, v)| (n.as_str(), v.as_slice()))
        .collect();
    print_waveforms("v(monitor) in volts", &curves[0].1, &series, 2);
}
