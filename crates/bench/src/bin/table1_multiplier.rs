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
    let mut observe: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
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
        let v = tr.voltage("out0").expect("critical path output");
        observe.push((name.to_owned(), tr.times.clone(), v));
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

    // Figure 4 check: reduced tracks full on the critical path.
    let reference = &observe[1];
    let mut worst: f64 = 0.0;
    let sampled = &observe[2];
    for (k, &t) in reference.1.iter().enumerate() {
        let mut vi = *sampled.2.last().unwrap();
        for kk in 1..sampled.1.len() {
            if t <= sampled.1[kk] {
                let f = (t - sampled.1[kk - 1]) / (sampled.1[kk] - sampled.1[kk - 1]).max(1e-30);
                vi = sampled.2[kk - 1] + f * (sampled.2[kk] - sampled.2[kk - 1]);
                break;
            }
        }
        worst = worst.max((vi - reference.2[k]).abs());
    }
    println!("max |v(out0)_reduced − v(out0)_full| = {worst:.3e} V over 0–10 ns");
}
