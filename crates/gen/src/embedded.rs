//! Embedded-parasitics workloads: decks whose RC content is *buried*
//! between non-RC devices, the shape the automatic subnetwork
//! extraction pass (`pact::extract`) and the chain-collapse pre-pass
//! were built for.
//!
//! Two generators:
//!
//! - [`chain_heavy_deck`] — a cascade of inverter stages joined by long
//!   lumped RC chains, optionally with per-tap side loads that break
//!   each chain into several collapse targets;
//! - [`rich_mixed_deck`] — a deck exercising the full extended element
//!   set (R, C, L, diode, MOSFET, VCVS) with two embedded RC islands,
//!   the acceptance workload for "mixed deck runs end-to-end with
//!   extraction".
//!
//! Both are deterministic: the same spec always renders the same bytes.

use pact_netlist::{DiodeModel, Element, ElementKind, Netlist, Waveform};

use crate::line::{add_default_models, inverter, rc_line_elements, LineSpec, Taper};

/// A cascade of inverters joined by long RC chains.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChainDeckSpec {
    /// Number of RC chains (and hence `chains + 1` inverter stages).
    pub chains: usize,
    /// Lumped segments per chain.
    pub segments: usize,
    /// Total resistance per chain in ohms.
    pub r_total: f64,
    /// Total capacitance per chain in farads.
    pub c_total: f64,
    /// Evenly spaced tap nodes per chain. Each tap carries a small
    /// current-source side load, which makes it a port of its RC island
    /// and splits the chain into `taps + 1` collapse targets.
    pub taps: usize,
}

impl Default for ChainDeckSpec {
    fn default() -> Self {
        ChainDeckSpec {
            chains: 4,
            segments: 50,
            r_total: 100.0,
            c_total: 0.5e-12,
            taps: 0,
        }
    }
}

/// Builds a chain-heavy deck: `chains + 1` CMOS inverters in cascade,
/// each pair joined by a `segments`-segment uniform RC chain.
///
/// Every chain sits between two MOSFET anchors, so extraction finds one
/// RC island per chain; with `taps = 0` each island is a pure degree-2
/// chain, the best case for the collapse pre-pass.
pub fn chain_heavy_deck(spec: &ChainDeckSpec) -> Netlist {
    assert!(spec.chains >= 1, "need at least one chain");
    let mut nl = Netlist::new(format!(
        "{} chained inverters over {}-segment RC chains",
        spec.chains + 1,
        spec.segments
    ));
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
    let line = LineSpec {
        segments: spec.segments,
        r_total: spec.r_total,
        c_total: spec.c_total,
        taper: Taper::Uniform,
        taps: spec.taps,
    };
    let mut stage_in = "in".to_owned();
    for k in 0..spec.chains {
        let drive = format!("d{k}");
        let sense = format!("s{k}");
        nl.elements.extend(inverter(
            &format!("stg{k}"),
            &stage_in,
            &drive,
            "vdd",
            "0",
            "vdd",
            20e-6,
            40e-6,
        ));
        let prefix = format!("ch{k}_");
        nl.elements
            .extend(rc_line_elements(&line, &drive, &sense, &prefix));
        // Side loads at the taps anchor interior ports, splitting the
        // chain into taps+1 independent collapse targets.
        for j in 1..=spec.taps {
            nl.elements.push(Element {
                name: format!("Itap{k}_{j}"),
                kind: ElementKind::ISource {
                    p: format!("{prefix}_tap{j}").into(),
                    n: "0".into(),
                    wave: Box::new(Waveform::Dc(1e-6)),
                },
            });
        }
        stage_in = sense;
    }
    nl.elements.extend(inverter(
        "stgout", &stage_in, "out", "vdd", "0", "vdd", 4e-6, 8e-6,
    ));
    nl.elements
        .push(Element::capacitor("Cload", "out", "0", 20e-15));
    nl
}

/// Knobs for the mixed-element acceptance deck.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RichDeckSpec {
    /// Segments per embedded RC line.
    pub segments: usize,
    /// Per-segment taper of both lines (extracted wires are rarely
    /// uniform; the default skews R and C toward the far end).
    pub taper: Taper,
}

impl Default for RichDeckSpec {
    fn default() -> Self {
        RichDeckSpec {
            segments: 40,
            taper: Taper::Linear {
                r_ratio: 2.0,
                c_ratio: 1.5,
            },
        }
    }
}

/// Builds a deck touching the whole extended element set — resistors,
/// capacitors, an inductor, a diode clamp, MOSFET inverters and a VCVS
/// sense buffer — with two multi-segment RC islands buried between the
/// non-RC devices.
///
/// Extraction must find exactly two islands (`net1` between the driver
/// drain and the inductor, `net2` between the receiver drain and the
/// VCVS input); everything else stays in the host deck. The output
/// stage hangs a third, trivial RC island (`Rload`/`Cload`) off the
/// VCVS output.
pub fn rich_mixed_deck(spec: &RichDeckSpec) -> Netlist {
    let mut nl = Netlist::new(format!(
        "mixed R/C/L/diode/MOS deck, two {}-segment embedded RC islands",
        spec.segments
    ));
    add_default_models(&mut nl);
    let d = DiodeModel::default_diode("dclamp");
    nl.diode_models.insert(d.name.clone(), d);
    nl.elements.push(Element {
        name: "Vdd".to_owned(),
        kind: ElementKind::VSource {
            p: "vdd".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(3.3)),
        },
    });
    nl.elements.push(Element {
        name: "Vin".to_owned(),
        kind: ElementKind::VSource {
            p: "in".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Pulse {
                v1: 0.0,
                v2: 3.3,
                td: 0.2e-9,
                tr: 0.1e-9,
                tf: 0.1e-9,
                pw: 2.4e-9,
                per: 5e-9,
            }),
        },
    });
    let line = LineSpec {
        segments: spec.segments,
        r_total: 180.0,
        c_total: 0.9e-12,
        taper: spec.taper,
        taps: 0,
    };
    // Driver inverter → first embedded RC island.
    nl.elements
        .extend(inverter("drv", "in", "a", "vdd", "0", "vdd", 60e-6, 120e-6));
    nl.elements
        .extend(rc_line_elements(&line, "a", "b", "net1_"));
    // Series bond-wire inductor: a non-RC element, so both of its
    // terminals become island boundary ports.
    nl.elements.push(Element {
        name: "Lbond".to_owned(),
        kind: ElementKind::Inductor {
            a: "b".into(),
            b: "bl".into(),
            henries: 1e-9,
        },
    });
    // Undershoot clamp at the inductor's far end.
    nl.elements.push(Element {
        name: "Dclamp".to_owned(),
        kind: ElementKind::Diode {
            p: "0".into(),
            n: "bl".into(),
            model: "dclamp".into(),
            area: 1.0,
        },
    });
    // Receiver inverter → second embedded RC island.
    nl.elements
        .extend(inverter("rcv", "bl", "c", "vdd", "0", "vdd", 10e-6, 20e-6));
    nl.elements
        .extend(rc_line_elements(&line, "c", "d", "net2_"));
    // Ideal sense buffer: the VCVS makes `d` a boundary port and drives
    // a small RC load island on its output.
    nl.elements.push(Element {
        name: "Esense".to_owned(),
        kind: ElementKind::Vcvs {
            p: "sense".into(),
            n: "0".into(),
            control: Box::new(["d".into(), "0".into()]),
            gain: 2.0,
        },
    });
    nl.elements
        .push(Element::resistor("Rload", "sense", "outp", 100.0));
    nl.elements
        .push(Element::capacitor("Cload", "outp", "0", 10e-15));
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::extract_rc;

    #[test]
    fn chain_heavy_deck_is_deterministic_and_extracts() {
        let spec = ChainDeckSpec::default();
        let a = chain_heavy_deck(&spec).to_string();
        let b = chain_heavy_deck(&spec).to_string();
        assert_eq!(a, b, "same spec, same bytes");
        let nl = chain_heavy_deck(&spec);
        let ex = extract_rc(&nl, &[]).unwrap();
        // Each chain contributes segments-1 internal nodes; the stage
        // boundaries are MOSFET-anchored ports.
        assert_eq!(ex.network.num_internal(), spec.chains * (spec.segments - 1));
    }

    #[test]
    fn chain_taps_become_ports() {
        let spec = ChainDeckSpec {
            chains: 2,
            segments: 12,
            taps: 2,
            ..ChainDeckSpec::default()
        };
        let nl = chain_heavy_deck(&spec);
        let ex = extract_rc(&nl, &[]).unwrap();
        // The tap side loads promote each tap to a port.
        for k in 0..spec.chains {
            for j in 1..=spec.taps {
                let idx = ex.network.node_index(&format!("ch{k}__tap{j}")).unwrap();
                assert!(idx < ex.network.num_ports, "tap ch{k}__tap{j} is a port");
            }
        }
        assert_eq!(
            ex.network.num_internal(),
            spec.chains * (spec.segments - 1 - spec.taps)
        );
    }

    #[test]
    fn rich_mixed_deck_has_every_element_kind() {
        let nl = rich_mixed_deck(&RichDeckSpec::default());
        let has = |f: &dyn Fn(&ElementKind) -> bool| nl.elements.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, ElementKind::Resistor { .. })));
        assert!(has(&|k| matches!(k, ElementKind::Capacitor { .. })));
        assert!(has(&|k| matches!(k, ElementKind::Inductor { .. })));
        assert!(has(&|k| matches!(k, ElementKind::Diode { .. })));
        assert!(has(&|k| matches!(k, ElementKind::Mosfet { .. })));
        assert!(has(&|k| matches!(k, ElementKind::Vcvs { .. })));
        assert!(nl.diode_models.contains_key("dclamp"));
        // Round-trips through the parser.
        let text = nl.to_string();
        let back = pact_netlist::parse(&text).expect("rich deck reparses");
        assert_eq!(back.elements.len(), nl.elements.len());
    }

    #[test]
    fn rich_mixed_deck_islands_have_expected_boundaries() {
        let spec = RichDeckSpec::default();
        let nl = rich_mixed_deck(&spec);
        let ex = extract_rc(&nl, &[]).unwrap();
        // Both islands' endpoints are ports; their interiors are not.
        for p in ["a", "b", "c", "d", "sense"] {
            let idx = ex.network.node_index(p).unwrap();
            assert!(idx < ex.network.num_ports, "{p} must be a port");
        }
        // Two line interiors plus `outp` (interior of the Rload/Cload
        // island — it touches only RC elements).
        assert_eq!(ex.network.num_internal(), 2 * (spec.segments - 1) + 1);
    }
}
