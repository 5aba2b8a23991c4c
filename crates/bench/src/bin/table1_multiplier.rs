//! Table 1 workload: the multiplier-like array at the paper's scale
//! ([`MultiplierSpec::paper`], the stand-in for the paper's extracted
//! 8-bit multiplier) simulated without parasitics, with the full RC
//! parasitics, and with the PACT-reduced parasitics (5 %, 500 MHz).
//! Reports the paper's Table 1 columns; the reduction is `rcfit
//! --threads 1`'s, one connected RC net at a time.

use pact_bench::{mb, print_table, reduce_deck, secs, timed};
use pact_circuit::Circuit;
use pact_gen::{multiplier_like_deck, multiplier_like_deck_no_parasitics, MultiplierSpec};
use pact_netlist::Element;

fn main() {
    println!("# Table 1: multiplier-like circuit with interconnect parasitics");
    println!("\n(the paper's scale: 48 chains x 76 stages; see DESIGN.md §3)");
    let spec = MultiplierSpec::paper();
    let (deck_none, stats_none) = multiplier_like_deck_no_parasitics(&spec);
    let (deck_full, stats_full) = multiplier_like_deck(&spec);
    let red = reduce_deck(&deck_full, 500e6, 0.05, 1e-9);

    let tstep = 50e-12;
    let tstop = 10e-9;
    let mut rows = Vec::new();
    // Per deck: its time points and the waveform at each observed node.
    let mut observe: Vec<(Vec<f64>, Vec<Vec<f64>>)> = Vec::new();
    for (name, deck, rc_count, red_info) in [
        ("no parasitics", &deck_none, stats_none.rc_elements, None),
        ("full RC network", &deck_full, stats_full.rc_elements, None),
        (
            "PACT reduced (5 %, 500 MHz)",
            &red.deck,
            red.deck.count(Element::is_rc),
            Some((red.seconds, red.modelled_memory_bytes)),
        ),
    ] {
        let ckt = Circuit::from_netlist(deck).expect("compile");
        let (nodes, _, _, mosfets) = ckt.device_counts();
        let (tr, sim_t) = timed(|| ckt.transient(tstep, tstop).expect("transient"));
        let (rcfit_t, rcfit_m) = red_info
            .map(|(t, m)| (secs(t), mb(m)))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        rows.push(vec![
            name.to_owned(),
            format!("{nodes}"),
            format!("{mosfets}"),
            format!("{rc_count}"),
            rcfit_t,
            rcfit_m,
            secs(sim_t),
            mb(tr.stats.modelled_memory_bytes),
        ]);
        let waves = OBSERVED
            .iter()
            .map(|node| tr.voltage(node).expect("observed node"))
            .collect();
        observe.push((tr.times.clone(), waves));
    }
    print_table(
        "Table 1 (paper: reduced network cuts sim time ~12 % because transistor cost dominates)",
        &[
            "netlist",
            "nodes",
            "MOSFETs",
            "RC elements",
            "RCFIT time (s)",
            "RCFIT mem (MB)",
            "sim time (s)",
            "sim mem (MB)",
        ],
        &rows,
    );
    println!("retained poles: {} across {} ports", red.poles, red.ports);
    println!("{}", red.certified);

    // Figure 4 check: the reduced deck tracks the full one on the
    // critical path's output and on an early wire end that switches
    // inside the window.
    let (times, full) = &observe[1];
    let (red_times, reduced) = &observe[2];
    for (k, node) in OBSERVED.iter().enumerate() {
        let mut worst: f64 = 0.0;
        for (&t, &v) in times.iter().zip(&full[k]) {
            worst = worst.max((interpolate(red_times, &reduced[k], t) - v).abs());
        }
        println!("max |v({node})_reduced − v({node})_full| = {worst:.3e} V over 0–10 ns");
    }
}

/// The nodes whose reduced and full waveforms are compared: the critical
/// path's output, which the 76-stage chain does not switch within the
/// window, and the end of chain 0's fourth wire, which switches early.
/// Both are ports of every deck.
const OBSERVED: [&str; 2] = ["out0", "w0_4_end"];

/// `wave` at time `t`, linear between samples (held past the last).
fn interpolate(times: &[f64], wave: &[f64], t: f64) -> f64 {
    for k in 1..times.len() {
        if t <= times[k] {
            let f = (t - times[k - 1]) / (times[k] - times[k - 1]).max(1e-30);
            return wave[k - 1] + f * (wave[k] - wave[k - 1]);
        }
    }
    *wave.last().unwrap()
}
