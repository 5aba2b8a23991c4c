//! Extraction / re-stitch equivalence: reducing the RC subnetworks
//! *embedded in* a mixed deck must not change what the simulator sees.
//!
//! For every host deck (inverter line, substrate mesh, power grid, and
//! the mixed R/C/L/diode/MOSFET/VCVS acceptance deck) and every
//! reduction strategy (flat, hierarchical, multipoint), the
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
//! verify-stage tests.)
//!
//! A degenerate host with no RC-only subnetwork must pass through
//! untouched: same bytes out, no reduction, zero extraction counters.

use pact::{
    reduce_embedded, ChainCollapseSpec, CutoffSpec, ExtractOptions, ReduceOptions, ReduceStrategy,
    ReductionSession,
};
use pact_circuit::{log_frequencies, AcExcitation, Circuit};
use pact_gen::{
    add_default_models, chain_heavy_deck, inverter, inverter_pair_deck, multiplier_like_deck,
    network_to_elements, power_grid_deck, rich_mixed_deck, substrate_mesh, ChainDeckSpec, LineSpec,
    MeshSpec, MultiplierSpec, PowerGridSpec, RichDeckSpec,
};
use pact_netlist::{Element, ElementKind, Netlist, Waveform};

/// In-band agreement required between unreduced and re-stitched decks,
/// relative to signal scale.
const TOL: f64 = 1e-6;

/// One host deck of the equivalence matrix.
struct Host {
    name: &'static str,
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
        deck: inverter_pair_deck(&LineSpec {
            segments: 40,
            ..LineSpec::default()
        }),
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
            p: "vdd".to_owned(),
            n: "0".to_owned(),
            wave: Waveform::Dc(5.0),
        },
    });
    nl.elements.push(Element {
        name: "Vin".to_owned(),
        kind: ElementKind::VSource {
            p: "in".to_owned(),
            n: "0".to_owned(),
            wave: Waveform::Pulse {
                v1: 0.0,
                v2: 5.0,
                td: 0.2e-9,
                tr: 0.1e-9,
                tf: 0.1e-9,
                pw: 2.4e-9,
                per: 5e-9,
            },
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
        deck: nl,
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
        deck: deck.netlist,
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
        deck: rich_mixed_deck(&RichDeckSpec::default()),
        fmax: 1e14,
        ac_source: "Vin",
        freqs: log_frequencies(4, 1e7, 1e10),
        tstep: 20e-12,
        tstop: 4e-9,
    }
}

fn strategies() -> Vec<(&'static str, ReduceStrategy)> {
    vec![
        ("flat", ReduceStrategy::Flat),
        (
            "hier",
            ReduceStrategy::Hierarchical {
                max_block: 24,
                max_depth: 4,
            },
        ),
        ("multipoint", ReduceStrategy::Multipoint { num_points: 2 }),
    ]
}

fn session_for(fmax: f64, strategy: ReduceStrategy) -> ReductionSession {
    // The cutoff tolerance doubles as multipoint's pole-trimming budget
    // (poles contributing less than a fraction of it in band are
    // dropped), so it must sit below the 1e-6 equivalence bound this
    // test asserts. Flat and hierarchical are exact here regardless:
    // with `fmax` above every pole the congruence retains the full
    // basis.
    let mut opts = ReduceOptions::new(CutoffSpec::new(fmax, 1e-7).expect("cutoff"));
    opts.threads = Some(1);
    opts.strategy = strategy;
    ReductionSession::new(opts)
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
        for (sname, strategy) in strategies() {
            let mut session = session_for(host.fmax, strategy);
            let red = reduce_embedded(&host.deck, &mut session, &ExtractOptions::default())
                .unwrap_or_else(|e| panic!("{}/{sname}: reduce_embedded: {e}", host.name));
            let reduction = red
                .reduction
                .as_ref()
                .unwrap_or_else(|| panic!("{}/{sname}: nothing reduced", host.name));
            assert!(
                reduction.reductions.len() as u64 == red.telemetry.counters.extract_subnets
                    && red.telemetry.counters.extract_subnets >= 1,
                "{}/{sname}: subnet counter mismatch",
                host.name
            );
            assert!(
                red.nodes_before > 0,
                "{}/{sname}: no internal nodes found",
                host.name
            );
            // The re-stitched deck must render and reparse (the CLI
            // path); the tight comparison runs on the in-memory deck —
            // SPICE text quantizes values at ~1e-7 relative
            // (`format_value`'s 6 fractional digits), which the looser
            // `end_to_end.rs` bounds absorb but this one must not.
            pact_netlist::parse(&red.deck.to_string()).expect("re-stitched deck reparses");
            assert_equivalent(&host, sname, &red.deck);
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
        deck,
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
    let mut opts = ReduceOptions::new(CutoffSpec::new(500e6, 0.05).expect("cutoff"));
    opts.threads = Some(1);
    let mut session = ReductionSession::new(opts);
    let red = reduce_embedded(&host.deck, &mut session, &ExtractOptions::default()).unwrap();
    assert!(red.nodes_before > red.nodes_after, "nothing was reduced");
    let (full, reduced) = (tran(&host.deck), tran(&red.deck));
    assert!(
        reduced.stats.peak_factor_nnz <= full.stats.peak_factor_nnz,
        "reduced deck's LU fills more than the full deck's: {} > {}",
        reduced.stats.peak_factor_nnz,
        full.stats.peak_factor_nnz
    );

    let mut session = session_for(host.fmax, ReduceStrategy::Flat);
    let exact = reduce_embedded(&host.deck, &mut session, &ExtractOptions::default()).unwrap();
    assert_equivalent(&host, "flat", &exact.deck);
}

/// The rich host extracts exactly its three buried islands (two tapered
/// lines plus the VCVS output load), and its boundary nodes survive in
/// the re-stitched deck.
#[test]
fn rich_deck_extraction_finds_the_buried_islands() {
    let host = rich_host();
    let mut session = session_for(host.fmax, ReduceStrategy::Flat);
    let red = reduce_embedded(&host.deck, &mut session, &ExtractOptions::default()).unwrap();
    assert_eq!(red.telemetry.counters.extract_subnets, 3);
    let text = red.deck.to_string();
    for port in ["a", "b", "c", "d", "sense"] {
        assert!(
            text.split_whitespace().any(|t| t == port),
            "boundary port {port} missing from re-stitched deck"
        );
    }
}

/// Chain collapse ahead of extraction: with a collapse budget tighter
/// than the equivalence tolerance, the pre-pass eliminates nodes and
/// the re-stitched deck still matches in-band (the collapse spec's band,
/// here well above the AC grid).
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
        deck,
        fmax: 1e14,
        ac_source: "Vin",
        freqs: log_frequencies(4, 1e4, 1e6),
        tstep: 50e-12,
        tstop: 5e-9,
    };
    let opts = ExtractOptions {
        collapse: Some(ChainCollapseSpec::new(1e6, 1e-7).expect("collapse spec")),
        ..ExtractOptions::default()
    };
    let mut session = session_for(host.fmax, ReduceStrategy::Flat);
    let red = reduce_embedded(&host.deck, &mut session, &opts).unwrap();
    assert_eq!(red.telemetry.counters.chains_collapsed, 2);
    assert!(
        red.telemetry.counters.nodes_eliminated >= 60,
        "re-segmentation barely helped: {}",
        red.telemetry.counters.nodes_eliminated
    );
    // AC-only comparison: the collapse budget holds below its f_max
    // (1 MHz); the transient pulse has content far above it.
    let c0 = Circuit::from_netlist(&host.deck).expect("compile original");
    let c1 = Circuit::from_netlist(&red.deck).expect("compile reduced");
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

/// A deck with no RC elements at all is the pass-through path: the
/// flattened input comes back unchanged, nothing is reduced, and the
/// extraction counters stay zero.
#[test]
fn deck_without_rc_subnetworks_passes_through_unchanged() {
    let mut nl = Netlist::new("no parasitics");
    add_default_models(&mut nl);
    nl.elements.push(Element {
        name: "Vdd".to_owned(),
        kind: ElementKind::VSource {
            p: "vdd".to_owned(),
            n: "0".to_owned(),
            wave: Waveform::Dc(5.0),
        },
    });
    nl.elements.push(Element {
        name: "Vin".to_owned(),
        kind: ElementKind::VSource {
            p: "in".to_owned(),
            n: "0".to_owned(),
            wave: Waveform::Dc(2.5),
        },
    });
    nl.elements.extend(inverter(
        "drv", "in", "mid", "vdd", "0", "vdd", 20e-6, 40e-6,
    ));
    nl.elements
        .extend(inverter("rcv", "mid", "out", "vdd", "0", "vdd", 4e-6, 8e-6));

    let mut session = session_for(1e12, ReduceStrategy::Flat);
    let red = reduce_embedded(&nl, &mut session, &ExtractOptions::default()).unwrap();
    assert!(red.reduction.is_none(), "nothing to reduce");
    assert_eq!(red.deck.to_string(), nl.to_string(), "pass-through bytes");
    assert_eq!(red.nodes_before, 0);
    assert_eq!(red.nodes_after, 0);
    assert_eq!(red.telemetry.counters.extract_subnets, 0);
    assert_eq!(red.telemetry.counters.chains_collapsed, 0);
    assert_eq!(red.telemetry.counters.nodes_eliminated, 0);
    // Zero-cost: no reduction phases ran — only the element scan.
    assert!(
        !red.telemetry.phases.iter().any(|p| p.name == "sanitize"),
        "pass-through ran the reduction pipeline"
    );
}
