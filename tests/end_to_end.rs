//! End-to-end integration: SPICE text in → PACT reduction → SPICE text
//! out → re-parse → simulate, comparing original and reduced circuits in
//! both transient and AC — the complete RCFIT pipeline of the paper's
//! Figure 1 exercised across every crate.

use pact::{CutoffSpec, ReduceOptions, ReductionSession};
use pact_circuit::{log_frequencies, AcExcitation, Circuit};
use pact_gen::{multiplier_like_deck, MultiplierSpec};
use pact_netlist::{extract_rc, parse, splice_reduced};
use pact_serve::{prepare_deck, reduce_prepared, render_reduced, DeckOptions};

/// A two-net interconnect deck with inverters, exercising parser,
/// extraction, reduction, splicing and simulation together.
fn interconnect_deck() -> String {
    let mut deck = String::from(
        "\
* two nets
.model nch nmos (vto=0.7 kp=110u lambda=0.04)
.model pch pmos (vto=-0.9 kp=40u lambda=0.05)
Vdd vdd 0 5
Vin in 0 pulse(0 5 0.5n 0.1n 0.1n 3n 8n)
MN0 neta in 0 0 nch w=20u l=1u
MP0 neta in vdd vdd pch w=40u l=1u
",
    );
    // net A: 30-segment line to a receiver.
    for i in 0..30 {
        let a = if i == 0 {
            "neta".to_owned()
        } else {
            format!("a{i}")
        };
        let b = if i == 29 {
            "enda".to_owned()
        } else {
            format!("a{}", i + 1)
        };
        deck.push_str(&format!("Ra{i} {a} {b} 8\nCa{i} {b} 0 40f\n"));
    }
    deck.push_str("MN1 netb enda 0 0 nch w=4u l=1u\nMP1 netb enda vdd vdd pch w=8u l=1u\n");
    // net B: 20-segment line to the output.
    for i in 0..20 {
        let a = if i == 0 {
            "netb".to_owned()
        } else {
            format!("b{i}")
        };
        let b = if i == 19 {
            "out".to_owned()
        } else {
            format!("b{}", i + 1)
        };
        deck.push_str(&format!("Rb{i} {a} {b} 10\nCb{i} {b} 0 30f\n"));
    }
    // A receiver at `out` makes it a port node, so it survives reduction
    // and stays observable.
    deck.push_str("MN2 y2 out 0 0 nch w=2u l=1u\nMP2 y2 out vdd vdd pch w=4u l=1u\n");
    deck.push_str("Cl out 0 15f\n.tran 20p 8n\n.end\n");
    deck
}

#[test]
fn spice_in_spice_out_transient_matches() {
    let original = parse(&interconnect_deck()).expect("parse");
    let ex = extract_rc(&original, &[]).expect("extract");
    assert!(ex.network.num_internal() >= 45);

    let opts = ReduceOptions::new(CutoffSpec::new(3e9, 0.05).expect("spec"));
    let red = pact::reduce_network(&ex.network, &opts).expect("reduce");
    assert!(red.model.num_poles() < ex.network.num_internal() / 4);
    assert!(red.model.is_passive(1e-8));

    // Round-trip through SPICE text.
    let reduced = splice_reduced(&original, red.model.to_netlist_elements("rf", 1e-9));
    let text = reduced.to_string();
    let reparsed = parse(&text).expect("reparse rcfit output");

    let run = |nl: &pact_netlist::Netlist| {
        let ckt = Circuit::from_netlist(nl).expect("compile");
        let tr = ckt.transient(20e-12, 8e-9).expect("tran");
        (tr.times.clone(), tr.voltage("out").expect("v(out)"))
    };
    let (t0, v0) = run(&original);
    let (t1, v1) = run(&reparsed);

    let mut worst: f64 = 0.0;
    for (k, &t) in t0.iter().enumerate() {
        let mut vi = *v1.last().unwrap();
        for kk in 1..t1.len() {
            if t <= t1[kk] {
                let f = (t - t1[kk - 1]) / (t1[kk] - t1[kk - 1]).max(1e-30);
                vi = v1[kk - 1] + f * (v1[kk] - v1[kk - 1]);
                break;
            }
        }
        worst = worst.max((vi - v0[k]).abs());
    }
    assert!(
        worst < 0.25,
        "reduced transient deviates by {worst} V on a 5 V swing"
    );
}

#[test]
fn reduced_ac_matches_below_fmax() {
    let original = parse(&interconnect_deck()).expect("parse");
    let ex = extract_rc(&original, &[]).expect("extract");
    let fmax = 2e9;
    let opts = ReduceOptions::new(CutoffSpec::new(fmax, 0.05).expect("spec"));
    let red = pact::reduce_network(&ex.network, &opts).expect("reduce");
    let reduced = splice_reduced(&original, red.model.to_netlist_elements("rf", 1e-9));

    // The observed transfer runs through two inverter gain stages, which
    // amplify the network's ≤5 % admittance error; check well below fmax
    // with a correspondingly relaxed bound.
    let freqs = log_frequencies(9, 1e7, fmax / 2.0);
    let run = |nl: &pact_netlist::Netlist| {
        let ckt = Circuit::from_netlist(nl).expect("compile");
        let ac = ckt
            .ac_sweep(&freqs, &AcExcitation::VSource("Vin".into()))
            .expect("ac");
        ac.voltage("out").expect("v(out)")
    };
    let z0 = run(&original);
    let z1 = run(&reduced);
    for (k, (a, b)) in z0.iter().zip(&z1).enumerate() {
        let scale = a.abs().max(1e-6);
        assert!(
            (*a - *b).abs() / scale < 0.15,
            "AC mismatch at {:.3e} Hz: {} vs {}",
            freqs[k],
            a.abs(),
            b.abs()
        );
    }
}

#[test]
fn rcfit_cli_flow_is_reproducible() {
    // Exercise determinism: two reductions of the same deck are identical.
    let original = parse(&interconnect_deck()).expect("parse");
    let ex = extract_rc(&original, &[]).expect("extract");
    let opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05).expect("spec"));
    let a = pact::reduce_network(&ex.network, &opts).expect("reduce a");
    let b = pact::reduce_network(&ex.network, &opts).expect("reduce b");
    assert_eq!(a.model.num_poles(), b.model.num_poles());
    for (x, y) in a.model.lambdas.iter().zip(&b.model.lambdas) {
        assert_eq!(x, y, "reduction must be deterministic");
    }
    let ta = splice_reduced(&original, a.model.to_netlist_elements("r", 1e-9)).to_string();
    let tb = splice_reduced(&original, b.model.to_netlist_elements("r", 1e-9)).to_string();
    assert_eq!(ta, tb);
}

/// `rcfit --verify` on a deck of two connected components (the two nets
/// of [`interconnect_deck`]) prints one verdict: the worst error over the
/// components, each verified against its own exact admittance.
#[test]
fn verify_prints_one_verdict_for_a_two_component_deck() {
    let deck = interconnect_deck();
    let dir = std::env::temp_dir().join(format!("rcfit-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let input = dir.join("two_nets.sp");
    std::fs::write(&input, &deck).expect("write deck");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_rcfit"))
        .arg(&input)
        .args(["--verify", "--fmax", "3g", "-o"])
        .arg(dir.join("reduced.sp"))
        .output()
        .expect("rcfit runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8(run.stderr).expect("utf-8");
    assert!(run.status.success(), "{stderr}");
    assert!(
        stderr.contains("rcfit: 2 connected component(s) reduced"),
        "{stderr}"
    );
    let verdicts: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("rcfit: verify: worst in-band error"))
        .collect();
    assert_eq!(verdicts.len(), 1, "{stderr}");

    let opts = DeckOptions {
        f_max: 3e9,
        ..DeckOptions::default()
    };
    let prep = prepare_deck(&deck, &opts).expect("prepare");
    let mut session = ReductionSession::new(opts.reduce_options().expect("options"));
    let red = reduce_prepared(&prep, &mut session, &opts).expect("reduce");
    let components = prep.network.components();
    assert_eq!((components.len(), red.reductions().len()), (2, 2));
    let spec = session.options().cutoff;
    let reports: Vec<_> = (0..components.len())
        .zip(red.reductions())
        .map(|(k, r)| {
            let net = components.network(&prep.network, k);
            let parts = pact::Partitions::split(&net.stamp());
            pact::verify_reduction(&parts, &r.model, &spec, 25).expect("verify")
        })
        .collect();
    let worst =
        |f: fn(&pact::VerificationReport) -> f64| reports.iter().map(f).fold(0.0, f64::max) * 100.0;
    let expected = format!(
        "rcfit: verify: worst in-band error {:.3} % (tolerance 5.0 %), overall {:.3} %: PASS",
        worst(|r| r.worst_in_band),
        worst(|r| r.worst_overall)
    );
    assert_eq!(verdicts[0], expected);
    assert!(
        stderr.contains("exact sweep used 2 factorization(s) + 50 refactorization(s)"),
        "{stderr}"
    );
}

/// One transient's simulated statistics, pinned by
/// `multiplier_transient_statistics_are_pinned`.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    steps: usize,
    newton_iterations: usize,
    factorizations: usize,
    refactorizations: usize,
    peak_lu_nnz: usize,
    /// Bits of Σ v(out0) over every time point.
    sum_out0_bits: u64,
}

fn pinned_transient(text: &str) -> Pinned {
    let ckt = Circuit::from_netlist(&parse(text).expect("parse")).expect("compile");
    let tr = ckt.transient(50e-12, 10e-9).expect("transient");
    let sum: f64 = tr.voltage("out0").expect("v(out0)").iter().sum();
    let st = tr.stats;
    Pinned {
        steps: st.steps,
        newton_iterations: st.newton_iterations,
        factorizations: st.factorizations,
        refactorizations: st.refactorizations,
        peak_lu_nnz: st.peak_factor_nnz,
        sum_out0_bits: sum.to_bits(),
    }
}

/// The 6×8 multiplier, full and reduced the way the benchmark's
/// `mult_sim` workload reduces it (extraction, 500 MHz, 5 %, one
/// thread), simulated 50 ps / 10 ns. Any change to the simulator's
/// assembly or factor-reuse policy must leave every count and every bit
/// of the observed waveform's sum where they are. The reduced deck's
/// three fresh factorizations are a start plus two pivot rejections, so
/// the refactor-fallback path is covered too.
#[test]
fn multiplier_transient_statistics_are_pinned() {
    let (deck, _) = multiplier_like_deck(&MultiplierSpec {
        chains: 6,
        stages: 8,
        ..MultiplierSpec::scaled_down()
    });
    let full = deck.to_string();
    let opts = DeckOptions {
        f_max: 500e6,
        tolerance: 0.05,
        threads: Some(1),
        extract: true,
        ..DeckOptions::default()
    };
    let prep = prepare_deck(&full, &opts).expect("prepare");
    let mut session = ReductionSession::new(opts.reduce_options().expect("options"));
    let red = reduce_prepared(&prep, &mut session, &opts).expect("reduce");
    let mut tel = pact::Telemetry::new();
    let (reduced, _) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel);

    let got = (pinned_transient(&reduced), pinned_transient(&full));
    let want = (
        Pinned {
            steps: 200,
            newton_iterations: 650,
            factorizations: 3,
            refactorizations: 647,
            peak_lu_nnz: 589,
            sum_out0_bits: 4645960426108770854,
        },
        Pinned {
            steps: 200,
            newton_iterations: 665,
            factorizations: 1,
            refactorizations: 664,
            peak_lu_nnz: 1973,
            sum_out0_bits: 4645959774856699889,
        },
    );
    assert_eq!(got, want, "(reduced, full)");
}
