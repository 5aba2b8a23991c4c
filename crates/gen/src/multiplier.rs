//! Multiplier-like workload: chains of CMOS inverters coupled through
//! tree-structured RC interconnect parasitics — the stand-in for the
//! paper's extracted 8-bit multiplier (Table 1 / Figure 4).
//!
//! The essential properties the substitution preserves: parasitics form
//! *tree-like* RC networks (so matrices factor with little fill-in, the
//! point of the paper's Table 1 vs Table 3 memory discussion), transistor
//! count dominates simulation cost, and a critical path of cascaded
//! stages accumulates interconnect delay.

use pact_netlist::{Element, ElementKind, Netlist, Waveform};

use crate::line::{add_default_models, inverter};

/// Parameters for [`multiplier_like_deck`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultiplierSpec {
    /// Number of parallel inverter chains (bit slices).
    pub chains: usize,
    /// Inverter stages per chain (critical-path depth).
    pub stages: usize,
    /// RC-tree branches hanging off each stage's output net (fanout
    /// stubs modelling gate loads elsewhere).
    pub stubs: usize,
    /// Segments in each inter-stage wire.
    pub wire_segments: usize,
    /// Per-wire total resistance (Ω).
    pub wire_r: f64,
    /// Per-wire total capacitance (F).
    pub wire_c: f64,
}

impl MultiplierSpec {
    /// A laptop-scale stand-in for the paper's 8-bit multiplier: a few
    /// hundred transistors with tree RC parasitics (the paper's original
    /// has 7264 transistors / 20263 RC elements — scaled down ~20×, as
    /// recorded in DESIGN.md).
    pub fn scaled_down() -> Self {
        MultiplierSpec {
            chains: 8,
            stages: 12,
            stubs: 2,
            wire_segments: 6,
            wire_r: 150.0,
            wire_c: 60e-15,
        }
    }

    /// The paper's multiplier at its own scale (Table 1: 7,264
    /// transistors, 20,263 RC elements): 48 chains of 76 stages with one
    /// stub and two wire segments per stage give 7,296 MOSFETs and
    /// 21,648 RC elements, whose RC network has 7,248 ports in 3,648
    /// separate nets.
    pub fn paper() -> Self {
        MultiplierSpec {
            chains: 48,
            stages: 76,
            stubs: 1,
            wire_segments: 2,
            ..MultiplierSpec::scaled_down()
        }
    }
}

/// Statistics of a generated multiplier-like deck.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MultiplierStats {
    /// MOSFET count.
    pub transistors: usize,
    /// RC element count (the parasitics PACT reduces).
    pub rc_elements: usize,
}

/// Builds the deck. Chain `c`'s input pad is `in{c}` (pulsed with a
/// per-chain phase), its final output is `out{c}` — `out0` is the
/// critical-path observation node for Figure 4.
pub fn multiplier_like_deck(spec: &MultiplierSpec) -> (Netlist, MultiplierStats) {
    let mut nl = Netlist::new(format!(
        "multiplier-like array: {} chains x {} stages",
        spec.chains, spec.stages
    ));
    add_default_models(&mut nl);
    nl.elements.push(Element {
        name: "Vdd".into(),
        kind: ElementKind::VSource {
            p: "vdd".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(5.0)),
        },
    });
    for c in 0..spec.chains {
        nl.elements.push(Element {
            name: format!("Vin{c}"),
            kind: ElementKind::VSource {
                p: format!("in{c}").into(),
                n: "0".into(),
                wave: Box::new(Waveform::Pulse {
                    v1: 0.0,
                    v2: 5.0,
                    td: 0.3e-9 + 0.1e-9 * c as f64,
                    tr: 0.1e-9,
                    tf: 0.1e-9,
                    pw: 4e-9,
                    per: 10e-9,
                }),
            },
        });
    }

    let rseg = spec.wire_r / spec.wire_segments as f64;
    let cseg = spec.wire_c / spec.wire_segments as f64;
    for c in 0..spec.chains {
        for s in 0..spec.stages {
            let gate_in = if s == 0 {
                format!("in{c}")
            } else {
                format!("w{c}_{s}_end")
            };
            let drive = if s + 1 == spec.stages {
                format!("out{c}")
            } else {
                format!("w{c}_{}_start", s + 1)
            };
            nl.elements.extend(inverter(
                &format!("{c}_{s}"),
                &gate_in,
                &drive,
                "vdd",
                "0",
                "vdd",
                4e-6,
                8e-6,
            ));
            // Inter-stage wire with stubs (skip after the last stage).
            if s + 1 < spec.stages {
                let start = drive.clone();
                let end = format!("w{c}_{}_end", s + 1);
                for k in 0..spec.wire_segments {
                    let a = if k == 0 {
                        start.clone()
                    } else {
                        format!("w{c}_{}_n{k}", s + 1)
                    };
                    let b = if k + 1 == spec.wire_segments {
                        end.clone()
                    } else {
                        format!("w{c}_{}_n{}", s + 1, k + 1)
                    };
                    nl.elements.push(Element::resistor(
                        format!("Rw{c}_{}_{k}", s + 1),
                        a.clone(),
                        b.clone(),
                        rseg,
                    ));
                    nl.elements.push(Element::capacitor(
                        format!("Cw{c}_{}_{k}", s + 1),
                        b.clone(),
                        "0",
                        cseg,
                    ));
                }
                // Fanout stubs: short RC branches off the wire midpoint.
                let mid = format!("w{c}_{}_n{}", s + 1, spec.wire_segments / 2);
                for t in 0..spec.stubs {
                    let leaf = format!("stub{c}_{}_{t}", s + 1);
                    nl.elements.push(Element::resistor(
                        format!("Rs{c}_{}_{t}", s + 1),
                        mid.clone(),
                        leaf.clone(),
                        rseg * 2.0,
                    ));
                    nl.elements.push(Element::capacitor(
                        format!("Cs{c}_{}_{t}", s + 1),
                        leaf,
                        "0",
                        cseg * 3.0,
                    ));
                }
            }
        }
        // Output load.
        nl.elements.push(Element::capacitor(
            format!("Cl{c}"),
            format!("out{c}"),
            "0",
            25e-15,
        ));
    }
    let stats = MultiplierStats {
        transistors: nl.count(|e| matches!(e.kind, ElementKind::Mosfet { .. })),
        rc_elements: nl.count(Element::is_rc),
    };
    (nl, stats)
}

/// The same circuit with all parasitic wires replaced by ideal shorts
/// (the "without parasitics" row of Table 1).
pub fn multiplier_like_deck_no_parasitics(spec: &MultiplierSpec) -> (Netlist, MultiplierStats) {
    let ideal = MultiplierSpec {
        wire_segments: 1,
        wire_r: 1e-3,
        wire_c: 0.0,
        stubs: 0,
        ..*spec
    };
    multiplier_like_deck(&ideal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::extract_rc;

    #[test]
    fn counts_scale_with_spec() {
        let (nl, stats) = multiplier_like_deck(&MultiplierSpec::scaled_down());
        assert_eq!(stats.transistors, 2 * 8 * 12);
        assert!(stats.rc_elements > 1000, "rc = {}", stats.rc_elements);
        assert_eq!(
            stats.transistors,
            nl.count(|e| matches!(e.kind, ElementKind::Mosfet { .. }))
        );
    }

    #[test]
    fn paper_spec_matches_the_papers_size() {
        let (nl, stats) = multiplier_like_deck(&MultiplierSpec::paper());
        assert_eq!((stats.transistors, stats.rc_elements), (7_296, 21_648));
        let net = extract_rc(&nl, &[]).unwrap().network;
        assert_eq!(net.num_ports, 7_248);
        assert_eq!(net.component_labels().1, 3_648);
    }

    #[test]
    fn network_is_tree_like_and_extractable() {
        let (nl, _) = multiplier_like_deck(&MultiplierSpec {
            chains: 2,
            stages: 3,
            stubs: 1,
            wire_segments: 4,
            wire_r: 100.0,
            wire_c: 50e-15,
        });
        let ex = extract_rc(&nl, &[]).unwrap();
        // Each of the 2 chains has 2 wires with ports at both ends.
        assert!(ex.network.num_ports >= 8);
        assert!(ex.network.num_internal() > 0);
    }

    #[test]
    fn no_parasitics_variant_has_trivial_rc() {
        let (_, with) = multiplier_like_deck(&MultiplierSpec::scaled_down());
        let (_, without) = multiplier_like_deck_no_parasitics(&MultiplierSpec::scaled_down());
        assert!(without.rc_elements < with.rc_elements / 3);
        assert_eq!(with.transistors, without.transistors);
    }
}
