//! Extraction / re-stitch equivalence: reducing the RC subnetworks
//! *embedded in* a mixed deck must not change what the simulator sees.
//!
//! For every host deck (inverter line, substrate mesh, power grid, and
//! the mixed R/C/L/diode/MOSFET/VCVS acceptance deck) and every
//! reduction strategy (flat, hierarchical), each deck goes through the
//! `rcfit` pipeline (`prepare_deck`, `reduce_prepared`, which reduces
//! every connected RC component on its own), and the
//! reduced-and-restitched deck's AC sweep and transient waveforms are
//! compared against the unreduced deck at every node the two decks
//! share, to ≤1e-6 of signal scale in-band.
//!
//! The reductions here run with the cutoff placed above every pole of
//! the extracted subnetworks, so the congruence retains the full basis
//! and the reduced realization is the original network in different
//! coordinates — any disagreement beyond roundoff is an extraction,
//! sanitize, or splice bug, not truncation error. (Truncation accuracy
//! has its own budget and is covered by `end_to_end.rs` and the
//! verify-stage tests.) The written deck rounds values to 7 digits, so
//! the comparison splices the same reductions into the deck in memory;
//! the written text must still parse.
//!
//! A host with no RC-only subnetwork is refused with the typed
//! `network` error.

use pact::{Counters, ReductionSession, Telemetry};
use pact_circuit::{log_frequencies, AcExcitation, Circuit};
use pact_gen::{
    add_default_models, chain_heavy_deck, inverter, inverter_pair_deck, multiplier_like_deck,
    network_to_elements, power_grid_deck, rich_mixed_deck, substrate_mesh, ChainDeckSpec, LineSpec,
    MeshSpec, MultiplierSpec, PowerGridSpec, RichDeckSpec,
};
use pact_netlist::{parse, splice_reduced, Element, ElementKind, Netlist, Waveform};
use pact_serve::{prepare_deck, reduce_prepared, render_reduced, DeckOptions, ReducedDeck};

/// In-band agreement required between unreduced and re-stitched decks,
/// relative to signal scale.
const TOL: f64 = 1e-6;

/// One host deck of the equivalence matrix.
struct Host {
    name: &'static str,
    /// The deck as the pipeline reads it: its text, parsed back.
    deck: Netlist,
    /// Cutoff placed above every pole of this host's RC content.
    fmax: f64,
    /// AC excitation source (unit test signal).
    ac_source: &'static str,
    /// AC comparison grid (in-band by construction).
    freqs: Vec<f64>,
    /// Fixed transient step and stop.
    tstep: f64,
    tstop: f64,
}

fn line_host() -> Host {
    Host {
        name: "line",
        deck: as_read(&inverter_pair_deck(&LineSpec {
            segments: 40,
            ..LineSpec::default()
        })),
        fmax: 1e13,
        ac_source: "Vin",
        freqs: log_frequencies(4, 1e7, 1e10),
        tstep: 20e-12,
        tstop: 4e-9,
    }
}

/// A substrate mesh anchored by a driver and a receiver inverter: the
/// mesh interior is one big RC island, the driven/sensed contacts are
/// its boundary ports.
fn mesh_host() -> Host {
    let spec = MeshSpec {
        nx: 5,
        ny: 5,
        nz: 2,
        num_contacts: 4,
        num_wells: 2,
        ..MeshSpec::table2()
    };
    let net = substrate_mesh(&spec);
    let mut nl = Netlist::new("mesh host");
    add_default_models(&mut nl);
    nl.elements = network_to_elements(&net, "m");
    nl.elements.push(Element {
        name: "Vdd".to_owned(),
        kind: ElementKind::VSource {
            p: "vdd".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(5.0)),
        },
    });
    nl.elements.push(Element {
        name: "Vin".to_owned(),
        kind: ElementKind::VSource {
            p: "in".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Pulse {
                v1: 0.0,
                v2: 5.0,
                td: 0.2e-9,
                tr: 0.1e-9,
                tf: 0.1e-9,
                pw: 2.4e-9,
                per: 5e-9,
            }),
        },
    });
    nl.elements.extend(inverter(
        "drv", "in", "port0", "vdd", "0", "vdd", 40e-6, 80e-6,
    ));
    nl.elements.extend(inverter(
        "rcv", "port1", "out", "vdd", "0", "vdd", 4e-6, 8e-6,
    ));
    nl.elements
        .push(Element::capacitor("Cload", "out", "0", 10e-15));
    Host {
        name: "mesh",
        deck: as_read(&nl),
        fmax: 1e15,
        ac_source: "Vin",
        freqs: log_frequencies(4, 1e7, 1e10),
        tstep: 20e-12,
        tstop: 4e-9,
    }
}

fn powergrid_host() -> Host {
    let deck = power_grid_deck(&PowerGridSpec {
        nx: 6,
        ny: 6,
        num_taps: 3,
        ..PowerGridSpec::default()
    });
    Host {
        name: "powergrid",
        deck: as_read(&deck.netlist),
        fmax: 1e15,
        ac_source: "Vpad0",
        freqs: log_frequencies(4, 1e6, 1e9),
        tstep: 25e-12,
        tstop: 5e-9,
    }
}

/// The acceptance deck: R, C, L, diode, MOSFET and VCVS all present,
/// with two tapered multi-segment RC islands buried in the middle.
fn rich_host() -> Host {
    Host {
        name: "rich",
        deck: as_read(&rich_mixed_deck(&RichDeckSpec::default())),
        fmax: 1e14,
        ac_source: "Vin",
        freqs: log_frequencies(4, 1e7, 1e10),
        tstep: 20e-12,
        tstop: 4e-9,
    }
}

/// The flat and hierarchical pipelines with the cutoff at `fmax`.
fn strategies(fmax: f64) -> Vec<(&'static str, DeckOptions)> {
    // With `fmax` above every pole the congruence retains the full
    // basis, so the reduction is exact up to roundoff.
    let flat = DeckOptions {
        f_max: fmax,
        tolerance: 1e-7,
        threads: Some(1),
        ..DeckOptions::default()
    };
    let hier = DeckOptions {
        hier: true,
        block_size: 24,
        max_depth: 4,
        ..flat.clone()
    };
    vec![("flat", flat), ("hier", hier)]
}

/// A deck through the pipeline: what `prepare_deck` saw, the reductions,
/// the deck text `rcfit` writes, and the same reductions spliced into
/// the deck in memory (unsparsified, unrounded).
struct Reduced {
    raw_internal: usize,
    /// The prepared deck's counters (chain collapse).
    counters: Counters,
    red: ReducedDeck,
    text: String,
    spliced: Netlist,
}

fn reduce(deck: &Netlist, opts: &DeckOptions) -> Reduced {
    let prep = prepare_deck(&deck.to_string(), opts).expect("deck prepares");
    let mut session = ReductionSession::new(opts.reduce_options().expect("valid options"));
    let red = reduce_prepared(&prep, &mut session, opts).expect("deck reduces");
    let (text, _) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut Telemetry::new());
    let elements = red
        .prefixed_models("rcfit")
        .into_iter()
        .flat_map(|(prefix, model)| model.to_netlist_elements(&prefix, 0.0))
        .collect();
    Reduced {
        raw_internal: prep.raw_internal,
        counters: prep.telemetry.counters,
        spliced: splice_reduced(&prep.shell, elements),
        red,
        text,
    }
}

/// `deck` as the pipeline reads it: its text, parsed back.
fn as_read(deck: &Netlist) -> Netlist {
    parse(&deck.to_string()).expect("deck text parses")
}

/// Node names present in both compiled circuits (ground excluded) —
/// the host nodes plus every island boundary port. Internal RC nodes
/// disappear on one side or the other and are not comparable.
fn shared_nodes(a: &Circuit, b: &Circuit) -> Vec<String> {
    a.node_names()
        .iter()
        .filter(|n| n.as_str() != "0" && b.node_index(n).is_some())
        .cloned()
        .collect()
}

/// Asserts AC and transient agreement of `reduced` vs `original` at
/// every shared node, to `TOL` of signal scale.
fn assert_equivalent(host: &Host, label: &str, reduced: &Netlist) {
    let c0 = Circuit::from_netlist(&host.deck).expect("compile original");
    let c1 = Circuit::from_netlist(reduced).expect("compile reduced");
    let shared = shared_nodes(&c0, &c1);
    assert!(
        shared.len() >= 3,
        "{}/{label}: only {} shared nodes",
        host.name,
        shared.len()
    );

    // AC: unit excitation, complex voltages compared per frequency.
    let exc = AcExcitation::VSource(host.ac_source.to_owned());
    let a0 = c0.ac_sweep(&host.freqs, &exc).expect("ac original");
    let a1 = c1.ac_sweep(&host.freqs, &exc).expect("ac reduced");
    for node in &shared {
        let v0 = a0.voltage(node).expect("ac node voltage");
        let v1 = a1.voltage(node).expect("ac node voltage (reduced)");
        for (k, (x0, x1)) in v0.iter().zip(&v1).enumerate() {
            let scale = x0.abs().max(1.0);
            let d = (*x0 - *x1).abs();
            assert!(
                d <= TOL * scale,
                "{}/{label}: AC v({node}) at {:.3e} Hz differs by {d:.3e} (|v|={:.3e})",
                host.name,
                host.freqs[k],
                x0.abs()
            );
        }
    }

    // Transient: identical fixed grids, waveforms compared pointwise.
    let t0 = c0.transient(host.tstep, host.tstop).expect("tran original");
    let t1 = c1.transient(host.tstep, host.tstop).expect("tran reduced");
    assert_eq!(
        t0.times, t1.times,
        "{}/{label}: time grids differ",
        host.name
    );
    for node in &shared {
        let v0 = t0.voltage(node).expect("tran node voltage");
        let v1 = t1.voltage(node).expect("tran node voltage (reduced)");
        let scale = v0.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (k, (x0, x1)) in v0.iter().zip(&v1).enumerate() {
            let d = (x0 - x1).abs();
            assert!(
                d <= TOL * scale,
                "{}/{label}: transient v({node}) at t={:.3e} differs by {d:.3e}",
                host.name,
                t0.times[k]
            );
        }
    }
}

#[test]
fn restitched_decks_match_unreduced_across_hosts_and_strategies() {
    for host in [line_host(), mesh_host(), powergrid_host(), rich_host()] {
        for (sname, opts) in strategies(host.fmax) {
            let out = reduce(&host.deck, &opts);
            let reduced = out.red.telemetry().counters.components_reduced;
            assert!(
                reduced == out.red.reductions().len() as u64 && reduced >= 1,
                "{}/{sname}: component counter mismatch",
                host.name
            );
            assert!(
                out.raw_internal > 0,
                "{}/{sname}: no internal nodes found",
                host.name
            );
            // The written deck must reparse (the CLI path); the tight
            // comparison runs on the in-memory deck — SPICE text
            // quantizes values at ~1e-7 relative (`SpiceValue`'s 6
            // fractional digits), which the looser `end_to_end.rs`
            // bounds absorb but this one must not.
            parse(&out.text).expect("re-stitched deck reparses");
            assert_equivalent(&host, sname, &out.spliced);
        }
    }
}

/// The paper's Table 1 payoff: the reduced deck must not cost the
/// simulator more than the original. On the Table 1 multiplier-like
/// array (8 chains × 12 stages), reduced with extraction at 500 MHz /
/// 5 %, the re-stitched deck's transient LU holds no more nonzeros than
/// the unreduced deck's. The sparse LU's fill-reducing pre-order keeps
/// each island's port couplings local; eliminating in deck order filled
/// this reduced LU to 37,854 nonzeros against the full deck's 6,621
/// (arrays of 80 or more inverters fill in; smaller ones happen to
/// escape, so this is the smallest standard size that guards the
/// property). The same deck reduced
/// exactly (cutoff above every pole) still matches the unreduced one to
/// the suite's tolerance, so the pre-ordered simulator sees the same
/// circuit on both sides.
#[test]
fn reduced_multiplier_needs_no_more_lu_fill_than_the_full_deck() {
    let (deck, _) = multiplier_like_deck(&MultiplierSpec::scaled_down());
    let host = Host {
        name: "multiplier",
        deck: as_read(&deck),
        fmax: 1e15,
        ac_source: "Vin0",
        freqs: log_frequencies(4, 1e7, 1e10),
        tstep: 20e-12,
        tstop: 4e-9,
    };
    let tran = |nl: &Netlist| {
        Circuit::from_netlist(nl)
            .expect("compile")
            .transient(host.tstep, host.tstop)
            .expect("transient")
    };
    let opts = DeckOptions {
        f_max: 500e6,
        threads: Some(1),
        ..DeckOptions::default()
    };
    let red = reduce(&host.deck, &opts);
    assert!(
        red.raw_internal > red.red.num_poles(),
        "nothing was reduced"
    );
    let (full, reduced) = (tran(&host.deck), tran(&red.spliced));
    assert!(
        reduced.stats.peak_factor_nnz <= full.stats.peak_factor_nnz,
        "reduced deck's LU fills more than the full deck's: {} > {}",
        reduced.stats.peak_factor_nnz,
        full.stats.peak_factor_nnz
    );

    let (_, flat) = &strategies(host.fmax)[0];
    assert_equivalent(&host, "flat", &reduce(&host.deck, flat).spliced);
}

/// The rich host extracts exactly its three buried islands (two tapered
/// lines plus the VCVS output load), and its boundary nodes survive in
/// the re-stitched deck.
#[test]
fn rich_deck_extraction_finds_the_buried_islands() {
    let host = rich_host();
    let (_, flat) = &strategies(host.fmax)[0];
    let red = reduce(&host.deck, flat);
    assert_eq!(red.red.telemetry().counters.components_reduced, 3);
    for port in ["a", "b", "c", "d", "sense"] {
        assert!(
            red.text.split_whitespace().any(|t| t == port),
            "boundary port {port} missing from re-stitched deck"
        );
    }
}

/// Chain collapse ahead of the reduction: with a collapse budget and a
/// reduction tolerance tighter than the equivalence tolerance, the
/// pre-pass eliminates nodes and the re-stitched deck still matches in
/// the band both are set for (1 MHz).
#[test]
fn collapsed_chains_still_match_in_band() {
    let deck = chain_heavy_deck(&ChainDeckSpec {
        chains: 2,
        segments: 50,
        r_total: 100.0,
        c_total: 0.1e-12,
        taps: 0,
    });
    let host = Host {
        name: "chains",
        deck: as_read(&deck),
        fmax: 1e6,
        ac_source: "Vin",
        freqs: log_frequencies(4, 1e4, 1e6),
        tstep: 50e-12,
        tstop: 5e-9,
    };
    let (_, flat) = &strategies(host.fmax)[0];
    let opts = DeckOptions {
        collapse_chains: true,
        chain_tol: 1e-7,
        ..flat.clone()
    };
    let red = reduce(&host.deck, &opts);
    assert_eq!(red.counters.chains_collapsed, 2);
    assert!(
        red.counters.nodes_eliminated >= 60,
        "re-segmentation barely helped: {}",
        red.counters.nodes_eliminated
    );
    // AC-only comparison: the collapse budget holds below its f_max
    // (1 MHz); the transient pulse has content far above it.
    let c0 = Circuit::from_netlist(&host.deck).expect("compile original");
    let c1 = Circuit::from_netlist(&red.spliced).expect("compile reduced");
    let exc = AcExcitation::VSource(host.ac_source.to_owned());
    let a0 = c0.ac_sweep(&host.freqs, &exc).expect("ac original");
    let a1 = c1.ac_sweep(&host.freqs, &exc).expect("ac reduced");
    for node in shared_nodes(&c0, &c1) {
        let v0 = a0.voltage(&node).unwrap();
        let v1 = a1.voltage(&node).unwrap();
        for (k, (x0, x1)) in v0.iter().zip(&v1).enumerate() {
            let d = (*x0 - *x1).abs();
            assert!(
                d <= TOL * x0.abs().max(1.0),
                "chains: AC v({node}) at {:.3e} Hz differs by {d:.3e}",
                host.freqs[k]
            );
        }
    }
}

/// Worst relative AC deviation between two decks at every node they
/// share, normalized per point by `max(|v|, 1)`.
fn worst_ac_deviation(a: &Netlist, b: &Netlist, source: &str, freqs: &[f64]) -> f64 {
    let ca = Circuit::from_netlist(a).expect("compile a");
    let cb = Circuit::from_netlist(b).expect("compile b");
    let ex = AcExcitation::VSource(source.to_owned());
    let ra = ca.ac_sweep(freqs, &ex).expect("ac a");
    let rb = cb.ac_sweep(freqs, &ex).expect("ac b");
    let mut worst = 0.0f64;
    for name in shared_nodes(&ca, &cb) {
        let va = ra.voltage(&name).expect("node a");
        let vb = rb.voltage(&name).expect("node b");
        for (x, y) in va.iter().zip(&vb) {
            worst = worst.max((*x - *y).abs() / x.abs().max(1.0));
        }
    }
    worst
}

/// The pipeline with truncation on: chain collapse and the reduction
/// both held to a 1e-4 budget at 1 GHz. On the 2000-segment inverter
/// line the collapse removes at least half of the internal nodes and the
/// re-stitched deck stays within 10× the budget in band; the mixed deck
/// splits into several components and stays within 1e-3.
#[test]
fn collapsed_and_truncated_decks_stay_within_their_budget() {
    let opts = DeckOptions {
        f_max: 1e9,
        tolerance: 1e-4,
        collapse_chains: true,
        chain_tol: 1e-4,
        threads: Some(1),
        ..DeckOptions::default()
    };
    let line = as_read(&inverter_pair_deck(&LineSpec {
        segments: 2000,
        ..LineSpec::default()
    }));
    let red = reduce(&line, &opts);
    let eliminated = red.counters.nodes_eliminated as usize;
    assert!(
        2 * eliminated >= red.raw_internal,
        "collapse eliminated {eliminated} of {} internal nodes (< 50%)",
        red.raw_internal
    );
    let dev = worst_ac_deviation(&line, &red.spliced, "Vin", &log_frequencies(16, 1e6, 1e9));
    assert!(dev <= 1e-3, "collapsed line deviates by {dev:.3e} in band");

    let rich = as_read(&rich_mixed_deck(&RichDeckSpec::default()));
    let red = reduce(&rich, &opts);
    assert!(red.red.reductions().len() >= 2, "several RC islands");
    let dev = worst_ac_deviation(&rich, &red.spliced, "Vin", &log_frequencies(8, 1e6, 1e9));
    assert!(dev <= 1e-3, "mixed deck deviates by {dev:.3e}");
}

/// A deck with no RC elements at all has nothing to reduce: the
/// pipeline refuses it with the typed `network` error rather than write
/// the deck back unchanged.
#[test]
fn deck_without_rc_subnetworks_is_a_typed_network_refusal() {
    let mut nl = Netlist::new("no parasitics");
    add_default_models(&mut nl);
    nl.elements.push(Element {
        name: "Vdd".to_owned(),
        kind: ElementKind::VSource {
            p: "vdd".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(5.0)),
        },
    });
    nl.elements.push(Element {
        name: "Vin".to_owned(),
        kind: ElementKind::VSource {
            p: "in".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(2.5)),
        },
    });
    nl.elements.extend(inverter(
        "drv", "in", "mid", "vdd", "0", "vdd", 20e-6, 40e-6,
    ));
    nl.elements
        .extend(inverter("rcv", "mid", "out", "vdd", "0", "vdd", 4e-6, 8e-6));

    let e = prepare_deck(&nl.to_string(), &DeckOptions::default()).unwrap_err();
    assert_eq!(e.code(), "network");
    assert_eq!(
        e.to_string(),
        "extraction error: RC network has no port nodes"
    );
}
