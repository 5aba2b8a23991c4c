//! Figure 4: critical-path output waveform of the multiplier-like
//! circuit — no parasitics vs full RC network vs PACT-reduced. The
//! parasitics visibly delay the critical path; the reduced network must
//! track the full one.

use pact_bench::{crossing_delay, print_table, print_waveforms, reduce_deck};
use pact_circuit::Circuit;
use pact_gen::{multiplier_like_deck, multiplier_like_deck_no_parasitics, MultiplierSpec};

fn main() {
    println!("# Figure 4: effect of RC parasitics on the critical path");
    let spec = MultiplierSpec::scaled_down();
    let (deck_none, _) = multiplier_like_deck_no_parasitics(&spec);
    let (deck_full, _) = multiplier_like_deck(&spec);
    let red = reduce_deck(&deck_full, 500e6, 0.05, 1e-9);

    let mut curves = Vec::new();
    let mut rows = Vec::new();
    for (name, deck) in [
        ("no parasitics", &deck_none),
        ("full parasitics", &deck_full),
        ("PACT reduced", &red.deck),
    ] {
        let ckt = Circuit::from_netlist(deck).expect("compile");
        let tr = ckt.transient(50e-12, 10e-9).expect("transient");
        let v = tr.voltage("out0").expect("v(out0)");
        let d = first_crossing_delay(&tr.times, &v, 2.5, 0.3e-9);
        rows.push(vec![
            name.to_owned(),
            d.map_or("-".into(), |x| format!("{:.0}", x * 1e12)),
        ]);
        curves.push((name.to_owned(), tr.times, v));
    }
    print_table(
        "critical-path 50 % delay (paper: parasitics significantly delay the path; reduced tracks full)",
        &["netlist", "delay (ps)"],
        &rows,
    );
    let series: Vec<(&str, &[f64])> = curves
        .iter()
        .map(|(n, _, v)| (n.as_str(), v.as_slice()))
        .collect();
    print_waveforms("v(out0)", &curves[1].1, &series, 4);
}

/// Delay of the first `level` crossing after `t_from`, whichever way it
/// goes. The edge direction cannot be read off the waveform's end
/// points: both sit at ±0.
fn first_crossing_delay(times: &[f64], v: &[f64], level: f64, t_from: f64) -> Option<f64> {
    [true, false]
        .into_iter()
        .filter_map(|rising| crossing_delay(times, v, level, t_from, rising))
        .min_by(f64::total_cmp)
}
