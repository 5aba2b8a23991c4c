//! RC transmission-line and inverter-pair generators (the paper's
//! Figure 2 circuit and the Figure 3 comparison variants).

use pact_netlist::{Element, MosModel, MosfetCard, Netlist, Waveform};

/// Per-segment scaling law for a lumped RC line.
///
/// Real extracted wires are rarely uniform: width tapering and via
/// stacks skew resistance and capacitance toward one end. The taper
/// controls how the spec's *totals* are distributed over the segments;
/// totals always match the spec exactly, whatever the law.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Taper {
    /// Every segment carries `r_total/n` and `c_total/n`. This is the
    /// historical behavior and the default; decks generated with it are
    /// byte-identical to those from before the taper existed.
    Uniform,
    /// Per-segment values grow (or shrink) linearly along the line.
    /// The ratios are last-segment over first-segment; `1.0` means
    /// uniform. Must be positive and finite.
    Linear {
        /// Last-over-first segment resistance ratio.
        r_ratio: f64,
        /// Last-over-first segment capacitance ratio.
        c_ratio: f64,
    },
}

/// A distributed RC line discretized into lumped segments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LineSpec {
    /// Number of lumped segments (the paper uses 100, and 2 for the
    /// naive comparison).
    pub segments: usize,
    /// Total distributed resistance in ohms (paper: 250 Ω).
    pub r_total: f64,
    /// Total distributed capacitance in farads (paper: 1.35 pF).
    pub c_total: f64,
    /// How the totals are distributed over the segments.
    pub taper: Taper,
    /// Number of evenly spaced internal nodes renamed to
    /// `<prefix>_tap<j>` (`j` = 1-based) so callers can attach loads at
    /// known points along the line. `0` keeps the plain `<prefix><i>`
    /// names. Must be less than `segments` when nonzero.
    pub taps: usize,
}

impl Default for LineSpec {
    fn default() -> Self {
        LineSpec {
            segments: 100,
            r_total: 250.0,
            c_total: 1.35e-12,
            taper: Taper::Uniform,
            taps: 0,
        }
    }
}

/// Emits the elements of a lumped RC line between `input` and `output`,
/// naming internal nodes `<prefix>0`, `<prefix>1`, ….
///
/// Each segment is an L-section (series R, shunt C at the far end), with
/// an extra half-capacitor at the input for symmetry — total R and C
/// match the spec exactly, for any taper.
///
/// With `taps > 0`, the tap positions are `j * segments / (taps + 1)`
/// for `j = 1..=taps` (strictly interior, strictly increasing).
pub fn rc_line_elements(spec: &LineSpec, input: &str, output: &str, prefix: &str) -> Vec<Element> {
    assert!(spec.segments >= 1, "need at least one segment");
    let n = spec.segments;
    assert!(
        spec.taps == 0 || spec.taps < n,
        "taps must leave distinct internal positions (taps < segments)"
    );
    let mut names: Vec<String> = (0..=n)
        .map(|i| {
            if i == 0 {
                input.to_owned()
            } else if i == n {
                output.to_owned()
            } else {
                format!("{prefix}{i}")
            }
        })
        .collect();
    for j in 1..=spec.taps {
        names[j * n / (spec.taps + 1)] = format!("{prefix}_tap{j}");
    }
    let node = |i: usize| names[i].clone();
    let mut out = Vec::with_capacity(2 * n + 1);
    match spec.taper {
        // The uniform arithmetic is kept verbatim: re-deriving it from
        // the weighted path below can differ by an ulp and decks
        // generated with the default spec must stay byte-identical.
        Taper::Uniform => {
            let rseg = spec.r_total / n as f64;
            let cseg = spec.c_total / n as f64;
            // Half cap at the near end, half at the far end, full in
            // between: sums to c_total.
            out.push(Element::capacitor(
                format!("C{prefix}_in"),
                node(0),
                "0",
                cseg / 2.0,
            ));
            for i in 0..n {
                out.push(Element::resistor(
                    format!("R{prefix}{i}"),
                    node(i),
                    node(i + 1),
                    rseg,
                ));
                let c = if i == n - 1 { cseg / 2.0 } else { cseg };
                out.push(Element::capacitor(
                    format!("C{prefix}{i}"),
                    node(i + 1),
                    "0",
                    c,
                ));
            }
        }
        Taper::Linear { r_ratio, c_ratio } => {
            assert!(
                r_ratio.is_finite() && r_ratio > 0.0 && c_ratio.is_finite() && c_ratio > 0.0,
                "taper ratios must be positive and finite"
            );
            // Linear weights normalized so the totals match the spec.
            let weights = |ratio: f64, total: f64| -> Vec<f64> {
                let w: Vec<f64> = (0..n)
                    .map(|i| {
                        if n == 1 {
                            1.0
                        } else {
                            1.0 + (ratio - 1.0) * i as f64 / (n - 1) as f64
                        }
                    })
                    .collect();
                let sum: f64 = w.iter().sum();
                w.into_iter().map(|wi| total * wi / sum).collect()
            };
            let rsegs = weights(r_ratio, spec.r_total);
            let csegs = weights(c_ratio, spec.c_total);
            // Each node carries half of each adjacent segment's C, the
            // tapered generalization of the half-end convention above.
            out.push(Element::capacitor(
                format!("C{prefix}_in"),
                node(0),
                "0",
                csegs[0] / 2.0,
            ));
            for i in 0..n {
                out.push(Element::resistor(
                    format!("R{prefix}{i}"),
                    node(i),
                    node(i + 1),
                    rsegs[i],
                ));
                let c = if i == n - 1 {
                    csegs[i] / 2.0
                } else {
                    (csegs[i] + csegs[i + 1]) / 2.0
                };
                out.push(Element::capacitor(
                    format!("C{prefix}{i}"),
                    node(i + 1),
                    "0",
                    c,
                ));
            }
        }
    }
    out
}

/// Emits a CMOS inverter (2 MOSFETs). Body terminals are explicit so
/// substrate experiments can reroute them.
#[allow(clippy::too_many_arguments)]
pub fn inverter(
    name: &str,
    input: &str,
    output: &str,
    vdd: &str,
    nbody: &str,
    pbody: &str,
    wn: f64,
    wp: f64,
) -> Vec<Element> {
    vec![
        Element::mosfet(
            format!("MN{name}"),
            MosfetCard {
                d: output.into(),
                g: input.into(),
                s: "0".into(),
                b: nbody.into(),
                model: "nch".to_owned(),
                w: wn,
                l: 1e-6,
            },
        ),
        Element::mosfet(
            format!("MP{name}"),
            MosfetCard {
                d: output.into(),
                g: input.into(),
                s: vdd.into(),
                b: pbody.into(),
                model: "pch".to_owned(),
                w: wp,
                l: 1e-6,
            },
        ),
    ]
}

/// Adds the default NMOS/PMOS model cards used by all generated decks.
pub fn add_default_models(nl: &mut Netlist) {
    let n = MosModel::default_nmos("nch");
    let p = MosModel::default_pmos("pch");
    nl.models.insert(n.name.clone(), n);
    nl.models.insert(p.name.clone(), p);
}

/// Builds the paper's Figure 2 deck: a large CMOS inverter driving a
/// second inverter through the RC line, with a pulsed input.
///
/// Pass `LineSpec { segments: 0, .. }` is invalid; use `segments: 1` with
/// tiny values for the "no line" variant, or [`no_line_deck`].
pub fn inverter_pair_deck(line: &LineSpec) -> Netlist {
    let mut nl = Netlist::new(format!(
        "inverter pair over {}-segment RC line",
        line.segments
    ));
    add_default_models(&mut nl);
    nl.elements.push(Element {
        name: "Vdd".to_owned(),
        kind: pact_netlist::ElementKind::VSource {
            p: "vdd".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(5.0)),
        },
    });
    nl.elements.push(Element {
        name: "Vin".to_owned(),
        kind: pact_netlist::ElementKind::VSource {
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
    // Driver: large inverter (the paper's W/L = 100 for the first stage).
    nl.elements.extend(inverter(
        "drv", "in", "line_in", "vdd", "0", "vdd", 100e-6, 200e-6,
    ));
    nl.elements
        .extend(rc_line_elements(line, "line_in", "line_out", "ln"));
    // Receiver inverter.
    nl.elements.extend(inverter(
        "rcv", "line_out", "out", "vdd", "0", "vdd", 4e-6, 8e-6,
    ));
    // Small output load.
    nl.elements
        .push(Element::capacitor("Cload", "out", "0", 20e-15));
    nl
}

/// The same circuit with the line replaced by a direct wire (the "no
/// line" trace of Figure 3).
pub fn no_line_deck() -> Netlist {
    let mut nl = Netlist::new("inverter pair, no line");
    add_default_models(&mut nl);
    nl.elements.push(Element {
        name: "Vdd".to_owned(),
        kind: pact_netlist::ElementKind::VSource {
            p: "vdd".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(5.0)),
        },
    });
    nl.elements.push(Element {
        name: "Vin".to_owned(),
        kind: pact_netlist::ElementKind::VSource {
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
        "drv", "in", "mid", "vdd", "0", "vdd", 100e-6, 200e-6,
    ));
    // Tiny series resistor so `mid` keeps the same port classification.
    nl.elements
        .push(Element::resistor("Rwire", "mid", "mid2", 1e-3));
    nl.elements.extend(inverter(
        "rcv", "mid2", "out", "vdd", "0", "vdd", 4e-6, 8e-6,
    ));
    nl.elements
        .push(Element::capacitor("Cload", "out", "0", 20e-15));
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::{extract_rc, ElementKind};

    #[test]
    fn line_totals_match_spec() {
        let spec = LineSpec::default();
        let els = rc_line_elements(&spec, "a", "b", "x");
        let rsum: f64 = els
            .iter()
            .filter_map(|e| match &e.kind {
                ElementKind::Resistor { ohms, .. } => Some(*ohms),
                _ => None,
            })
            .sum();
        let csum: f64 = els
            .iter()
            .filter_map(|e| match &e.kind {
                ElementKind::Capacitor { farads, .. } => Some(*farads),
                _ => None,
            })
            .sum();
        assert!((rsum - 250.0).abs() < 1e-9);
        assert!((csum - 1.35e-12).abs() < 1e-24);
        // 100 R + 101 C elements.
        assert_eq!(els.len(), 201);
    }

    #[test]
    fn deck_extracts_with_two_ports() {
        let nl = inverter_pair_deck(&LineSpec::default());
        let ex = extract_rc(&nl, &[]).unwrap();
        // Ports: line_in (driver drain) and line_out (receiver gate);
        // `out` only touches Cload + receiver → also a port.
        assert!(ex.network.num_ports >= 2);
        assert!(ex.network.node_index("line_in").unwrap() < ex.network.num_ports);
        assert!(ex.network.node_index("line_out").unwrap() < ex.network.num_ports);
        assert_eq!(ex.network.num_internal(), 99);
    }

    #[test]
    fn single_segment_line() {
        let spec = LineSpec {
            segments: 1,
            r_total: 100.0,
            c_total: 1e-12,
            ..LineSpec::default()
        };
        let els = rc_line_elements(&spec, "a", "b", "x");
        assert_eq!(els.len(), 3); // Cin/2, R, Cout/2
    }

    /// The default (uniform, no taps) spec must keep producing the exact
    /// historical values — bench baselines and golden decks depend on
    /// the generated bytes.
    #[test]
    fn default_spec_values_are_bitwise_stable() {
        let els = rc_line_elements(&LineSpec::default(), "a", "b", "x");
        for e in &els {
            match &e.kind {
                ElementKind::Resistor { ohms, .. } => assert!(*ohms == 250.0 / 100.0),
                ElementKind::Capacitor { farads, .. } => {
                    let cseg = 1.35e-12 / 100.0;
                    assert!(*farads == cseg || *farads == cseg / 2.0);
                }
                other => panic!("unexpected element {other:?}"),
            }
        }
    }

    #[test]
    fn linear_taper_totals_match_and_values_ramp() {
        let spec = LineSpec {
            segments: 20,
            taper: Taper::Linear {
                r_ratio: 3.0,
                c_ratio: 0.5,
            },
            ..LineSpec::default()
        };
        let els = rc_line_elements(&spec, "a", "b", "x");
        assert_eq!(els.len(), 41);
        let (mut rsum, mut csum) = (0.0, 0.0);
        let mut rvals = Vec::new();
        for e in &els {
            match &e.kind {
                ElementKind::Resistor { ohms, .. } => {
                    rsum += ohms;
                    rvals.push(*ohms);
                }
                ElementKind::Capacitor { farads, .. } => csum += farads,
                other => panic!("unexpected element {other:?}"),
            }
        }
        assert!((rsum - spec.r_total).abs() < 1e-9 * spec.r_total);
        assert!((csum - spec.c_total).abs() < 1e-9 * spec.c_total);
        assert!(rvals.windows(2).all(|w| w[1] > w[0]), "R ramps up");
        let ratio = rvals[rvals.len() - 1] / rvals[0];
        assert!((ratio - 3.0).abs() < 1e-9, "end-over-start ratio: {ratio}");
    }

    /// A ratio of exactly 1.0 is the uniform line up to roundoff (not
    /// necessarily bitwise — that is what `Taper::Uniform` is for).
    #[test]
    fn unity_linear_taper_matches_uniform_to_roundoff() {
        let base = LineSpec {
            segments: 17,
            ..LineSpec::default()
        };
        let tapered = LineSpec {
            taper: Taper::Linear {
                r_ratio: 1.0,
                c_ratio: 1.0,
            },
            ..base
        };
        let u = rc_line_elements(&base, "a", "b", "x");
        let t = rc_line_elements(&tapered, "a", "b", "x");
        assert_eq!(u.len(), t.len());
        for (eu, et) in u.iter().zip(&t) {
            assert_eq!(eu.name, et.name);
            match (&eu.kind, &et.kind) {
                (ElementKind::Resistor { ohms: a, .. }, ElementKind::Resistor { ohms: b, .. }) => {
                    assert!((a - b).abs() <= 1e-12 * a.abs())
                }
                (
                    ElementKind::Capacitor { farads: a, .. },
                    ElementKind::Capacitor { farads: b, .. },
                ) => assert!((a - b).abs() <= 1e-12 * a.abs()),
                other => panic!("kind mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn taps_rename_evenly_spaced_internal_nodes() {
        let spec = LineSpec {
            segments: 10,
            taps: 3,
            ..LineSpec::default()
        };
        let els = rc_line_elements(&spec, "a", "b", "x");
        assert_eq!(els.len(), 21, "taps rename nodes, never add elements");
        let nodes: std::collections::BTreeSet<&str> = els.iter().flat_map(|e| e.nodes()).collect();
        // Positions j*10/4 = 2, 5, 7 are renamed; their plain names go.
        for tap in ["x_tap1", "x_tap2", "x_tap3"] {
            assert!(nodes.contains(tap), "{tap} missing from {nodes:?}");
        }
        for gone in ["x2", "x5", "x7"] {
            assert!(!nodes.contains(gone), "{gone} should have been renamed");
        }
        assert!(nodes.contains("x1") && nodes.contains("x9"));
    }

    #[test]
    fn models_present() {
        let nl = inverter_pair_deck(&LineSpec::default());
        assert!(nl.models.contains_key("nch"));
        assert!(nl.models.contains_key("pch"));
    }
}
