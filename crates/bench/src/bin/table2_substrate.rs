//! Table 2: reduction of the 25-port substrate mesh at three maximum
//! frequencies (3 GHz / 1 GHz / 300 MHz, 5 % tolerance), plus the
//! 81-point AC sweep cost on the original and each reduced netlist.

use pact::{CutoffSpec, ReduceOptions};
use pact_bench::{mb, print_table, secs, timed};
use pact_circuit::{log_frequencies, AcExcitation, Circuit};
use pact_gen::{network_to_elements, substrate_mesh, MeshSpec};
use pact_netlist::{Element, Netlist};

fn main() {
    println!("# Table 2: substrate mesh with 25 ports (AC sweep, 81 frequencies)");
    let spec = MeshSpec::table2();
    let net = substrate_mesh(&spec);
    let (r0, c0) = net.element_counts();
    println!(
        "\noriginal mesh: {} nodes ({} ports), {} R, {} C  (paper: 1525 nodes, 25 ports, 4970 R, 253 C)",
        net.num_nodes(),
        net.num_ports,
        r0,
        c0
    );

    // Original-network AC reference (the paper's 1841.5 s / 47.6 MB row).
    let freqs = log_frequencies(27, 1e7, 1e10); // 81 points over 3 decades
    let monitor = "port24";
    let inject = "port3"; // an NMOS contact
    let deck_of = |elements: Vec<Element>| -> Netlist {
        let mut nl = Netlist::new("mesh ac");
        nl.elements = elements;
        nl
    };
    let orig_deck = deck_of(network_to_elements(&net, "sub"));
    let orig_ckt = Circuit::from_netlist(&orig_deck).expect("compile original");
    let (orig_ac, orig_t) = timed(|| {
        orig_ckt
            .ac_sweep(&freqs, &AcExcitation::CurrentInto(inject.into()))
            .expect("original AC")
    });
    let orig_z = orig_ac.voltage(monitor).expect("monitor voltage");

    let mut rows = vec![vec![
        "original".to_owned(),
        format!("{}", net.num_nodes()),
        format!("{r0}"),
        format!("{c0}"),
        "-".into(),
        "-".into(),
        "-".into(),
        secs(orig_t),
        mb(orig_ac.stats.modelled_memory_bytes),
    ]];

    for &fmax in &[3e9, 1e9, 300e6] {
        let opts = ReduceOptions::new(CutoffSpec::new(fmax, 0.05).expect("cutoff"));
        let (red, t_red) = timed(|| pact::reduce_network(&net, &opts).expect("reduce"));
        let elements = red.model.to_netlist_elements("red", 1e-9);
        let (rr, rc) = count_rc(&elements);
        let red_deck = deck_of(elements);
        let red_ckt = Circuit::from_netlist(&red_deck).expect("compile reduced");
        let (red_ac, ac_t) = timed(|| {
            red_ckt
                .ac_sweep(&freqs, &AcExcitation::CurrentInto(inject.into()))
                .expect("reduced AC")
        });
        // Figure 5's error criterion: |Z| relative to the original
        // below fmax must stay within 5 %.
        let red_z = red_ac.voltage(monitor).expect("monitor voltage");
        let mut worst_below: f64 = 0.0;
        for (k, &f) in freqs.iter().enumerate() {
            if f > fmax {
                break;
            }
            let rel = (red_z[k].abs() - orig_z[k].abs()).abs() / orig_z[k].abs();
            worst_below = worst_below.max(rel);
        }
        rows.push(vec![
            format!("{} GHz", fmax / 1e9),
            format!("{}", red.model.num_ports() + red.model.num_poles()),
            format!("{rr}"),
            format!("{rc}"),
            format!("{}", red.model.num_poles()),
            secs(t_red),
            mb(red.stats.modelled_memory_bytes),
            secs(ac_t),
            mb(red_ac.stats.modelled_memory_bytes),
        ]);
        println!(
            "fmax = {:.1} GHz: {} poles, worst |Z| error below fmax = {:.2} % (spec 5 %)",
            fmax / 1e9,
            red.model.num_poles(),
            worst_below * 100.0
        );
    }
    print_table(
        "Table 2 (paper shape: poles 6/1/0 at 3/1/0.3 GHz; reduced AC orders faster than original)",
        &[
            "max freq",
            "total nodes",
            "R's",
            "C's",
            "poles",
            "RCFIT time (s)",
            "RCFIT mem (MB)",
            "AC time (s)",
            "AC mem (MB)",
        ],
        &rows,
    );
}

fn count_rc(els: &[Element]) -> (usize, usize) {
    let r = els
        .iter()
        .filter(|e| matches!(e.kind, pact_netlist::ElementKind::Resistor { .. }))
        .count();
    let c = els
        .iter()
        .filter(|e| matches!(e.kind, pact_netlist::ElementKind::Capacitor { .. }))
        .count();
    (r, c)
}
