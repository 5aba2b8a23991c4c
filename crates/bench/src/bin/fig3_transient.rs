//! Figure 3: effect of transmission-line models on the output voltage of
//! the inverter pair — no line vs 2-segment lumped vs 100-segment line
//! vs the PACT-reduced network (which the paper shows fits the
//! 100-segment reference better than the 2-segment model with the same
//! single internal node).

use pact_bench::{crossing_delay, print_table, print_waveforms, reduce_deck, secs};
use pact_circuit::Circuit;
use pact_gen::{inverter_pair_deck, no_line_deck, LineSpec};

fn main() {
    println!("# Figure 3: transmission-line model comparison (transient)");
    let tstep = 10e-12;
    let tstop = 5e-9;

    let full_spec = LineSpec::default(); // 100 segments, 250 Ω, 1.35 pF
    let two_seg = LineSpec {
        segments: 2,
        ..full_spec
    };

    let deck_none = no_line_deck();
    let deck_two = inverter_pair_deck(&two_seg);
    let deck_full = inverter_pair_deck(&full_spec);
    let red = reduce_deck(&deck_full, 5e9, 0.05, 1e-9);
    println!(
        "\nPACT reduction: {} pole(s) retained in {} s — same internal node count as the 2-segment model",
        red.poles,
        secs(red.seconds)
    );

    let mut rows = Vec::new();
    let mut curves: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for (name, deck) in [
        ("no line", &deck_none),
        ("2-segment", &deck_two),
        ("100-segment", &deck_full),
        ("PACT reduced", &red.deck),
    ] {
        let ckt = Circuit::from_netlist(deck).expect("compile");
        let tr = ckt.transient(tstep, tstop).expect("transient");
        let v = tr.voltage("out").expect("v(out)");
        // The input pulse rises at 0.2 ns; the driver inverts, so the
        // receiver output rises. Measure the 2.5 V crossing delay.
        let delay = crossing_delay(&tr.times, &v, 2.5, 0.25e-9, true);
        rows.push(vec![
            name.to_owned(),
            format!("{}", ckt.dim()),
            delay.map_or("-".into(), |d| format!("{:.1}", d * 1e12)),
            secs(tr.stats.elapsed_seconds),
            format!("{}", tr.stats.steps),
        ]);
        curves.push((name.to_owned(), tr.times.clone(), v));
    }
    print_table(
        "Figure 3 summary",
        &[
            "model",
            "MNA unknowns",
            "50% delay (ps)",
            "sim time (s)",
            "steps",
        ],
        &rows,
    );

    // Accuracy of each compact model versus the 100-segment reference,
    // max |Δv(out)| over the window.
    let reference = &curves[2];
    let mut err_rows = Vec::new();
    for (name, times, v) in &curves {
        if name == "100-segment" {
            continue;
        }
        let mut worst: f64 = 0.0;
        for (k, &t) in reference.1.iter().enumerate() {
            // sample the candidate at the reference time points
            let vi = sample(times, v, t);
            worst = worst.max((vi - reference.2[k]).abs());
        }
        err_rows.push(vec![name.clone(), format!("{worst:.3}")]);
    }
    print_table(
        "max |v_out − v_out(100-seg)| over 0–5 ns (V) — the paper's claim: PACT < 2-segment",
        &["model", "max error (V)"],
        &err_rows,
    );

    let series: Vec<(&str, &[f64])> = curves
        .iter()
        .map(|(n, _, v)| (n.as_str(), v.as_slice()))
        .collect();
    print_waveforms("v(out)", &curves[2].1, &series, 8);
}

fn sample(times: &[f64], v: &[f64], t: f64) -> f64 {
    if t <= times[0] {
        return v[0];
    }
    for k in 1..times.len() {
        if t <= times[k] {
            let f = (t - times[k - 1]) / (times[k] - times[k - 1]).max(1e-30);
            return v[k - 1] + f * (v[k] - v[k - 1]);
        }
    }
    *v.last().unwrap()
}
