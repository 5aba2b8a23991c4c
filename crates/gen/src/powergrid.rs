//! Power-distribution-grid generator — the paper's *introduction*
//! motivates PACT with exactly this workload: "Supply line resistance and
//! capacitance, in combination with package inductance, can lead to large
//! variations of the supply voltage during digital switching".
//!
//! The model: a 2-D grid of rail resistances with decoupling capacitance
//! at grid nodes, supply pads (ports) at the corners/edges, and device
//! tap points (ports) where switching blocks draw current.

use pact_netlist::{Element, ElementKind, Netlist, Waveform};

/// Parameters for [`power_grid_deck`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerGridSpec {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Rail segment resistance (Ω).
    pub r_seg: f64,
    /// Decoupling capacitance per grid node (F).
    pub c_decap: f64,
    /// Number of switching-block tap points (current-source ports).
    pub num_taps: usize,
    /// Peak switching current per tap (A).
    pub i_peak: f64,
    /// Supply voltage (V).
    pub vdd: f64,
}

impl Default for PowerGridSpec {
    fn default() -> Self {
        PowerGridSpec {
            nx: 20,
            ny: 20,
            r_seg: 0.5,
            c_decap: 2e-12,
            num_taps: 12,
            i_peak: 5e-3,
            vdd: 3.3,
        }
    }
}

/// Statistics/handles of a generated power-grid deck.
#[derive(Clone, Debug)]
pub struct PowerGridDeck {
    /// The full deck: grid RC + pad sources + switching current sources.
    pub netlist: Netlist,
    /// Node names of the supply pads (grid corners).
    pub pads: Vec<String>,
    /// Node names of the switching-block taps.
    pub taps: Vec<String>,
    /// The tap expected to see the worst IR drop (farthest from pads).
    pub worst_tap: String,
}

/// Builds a power grid deck: `nx × ny` rail nodes, pads at the four
/// corners held at `vdd` through small pad resistances, and `num_taps`
/// switching blocks drawing phase-staggered pulse currents.
///
/// # Panics
///
/// Panics if the grid is smaller than 2×2 or has fewer nodes than taps.
pub fn power_grid_deck(spec: &PowerGridSpec) -> PowerGridDeck {
    assert!(spec.nx >= 2 && spec.ny >= 2, "grid too small");
    assert!(
        spec.num_taps <= spec.nx * spec.ny / 2,
        "too many taps for the grid"
    );
    let node = |x: usize, y: usize| format!("g{x}_{y}");
    let mut nl = Netlist::new(format!("power grid {}x{}", spec.nx, spec.ny));

    // Rails.
    for y in 0..spec.ny {
        for x in 0..spec.nx {
            if x + 1 < spec.nx {
                nl.elements.push(Element::resistor(
                    format!("Rx{x}_{y}"),
                    node(x, y),
                    node(x + 1, y),
                    spec.r_seg,
                ));
            }
            if y + 1 < spec.ny {
                nl.elements.push(Element::resistor(
                    format!("Ry{x}_{y}"),
                    node(x, y),
                    node(x, y + 1),
                    spec.r_seg,
                ));
            }
            if spec.c_decap > 0.0 {
                nl.elements.push(Element::capacitor(
                    format!("Cd{x}_{y}"),
                    node(x, y),
                    "0",
                    spec.c_decap,
                ));
            }
        }
    }

    // Supply pads at the four corners (voltage sources through a small
    // pad resistance — the sources make the pad nodes ports).
    let corners = [
        (0usize, 0usize),
        (spec.nx - 1, 0),
        (0, spec.ny - 1),
        (spec.nx - 1, spec.ny - 1),
    ];
    let mut pads = Vec::new();
    for (k, &(x, y)) in corners.iter().enumerate() {
        let pad = format!("pad{k}");
        nl.elements.push(Element {
            name: format!("Vpad{k}"),
            kind: ElementKind::VSource {
                p: pad.clone().into(),
                n: "0".into(),
                wave: Box::new(Waveform::Dc(spec.vdd)),
            },
        });
        nl.elements.push(Element::resistor(
            format!("Rpad{k}"),
            pad.clone(),
            node(x, y),
            0.05,
        ));
        pads.push(node(x, y));
    }

    // Switching taps spread on a diagonal lattice, phase-staggered pulse
    // current draws.
    let mut taps = Vec::new();
    let mut worst = (node(0, 0), 0usize);
    for k in 0..spec.num_taps {
        let x = (k * 7 + 3) % spec.nx;
        let y = (k * 5 + 2) % spec.ny;
        let n = node(x, y);
        // Distance to nearest corner = IR-drop severity proxy.
        let dist = corners
            .iter()
            .map(|&(cx, cy)| x.abs_diff(cx) + y.abs_diff(cy))
            .min()
            .unwrap_or(0);
        if dist > worst.1 {
            worst = (n.clone(), dist);
        }
        nl.elements.push(Element {
            name: format!("Isw{k}"),
            kind: ElementKind::ISource {
                p: n.clone().into(),
                n: "0".into(),
                wave: Box::new(Waveform::Pulse {
                    v1: 0.0,
                    v2: spec.i_peak,
                    td: 0.5e-9 + 0.2e-9 * k as f64,
                    tr: 0.1e-9,
                    tf: 0.1e-9,
                    pw: 1e-9,
                    per: 5e-9,
                }),
            },
        });
        taps.push(n);
    }

    PowerGridDeck {
        netlist: nl,
        pads,
        taps,
        worst_tap: worst.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::extract_rc;

    #[test]
    fn grid_counts() {
        let spec = PowerGridSpec::default();
        let deck = power_grid_deck(&spec);
        let r = deck
            .netlist
            .count(|e| matches!(e.kind, ElementKind::Resistor { .. }));
        // 2·nx·ny − nx − ny rail segments + 4 pad resistors.
        assert_eq!(r, 2 * 20 * 20 - 20 - 20 + 4);
        let c = deck
            .netlist
            .count(|e| matches!(e.kind, ElementKind::Capacitor { .. }));
        assert_eq!(c, 400);
        assert_eq!(deck.taps.len(), 12);
    }

    #[test]
    fn ports_are_pads_and_taps() {
        let deck = power_grid_deck(&PowerGridSpec::default());
        let ex = extract_rc(&deck.netlist, &[]).unwrap();
        // Taps (current sources) and pad-side nodes are ports; note that
        // a tap can coincide with a pad corner.
        for t in &deck.taps {
            assert!(
                ex.network.node_index(t).unwrap() < ex.network.num_ports,
                "tap {t} must be a port"
            );
        }
        assert!(ex.network.num_internal() > 300);
    }

    #[test]
    fn dc_ir_drop_is_zero_without_switching() {
        use pact_circuit::Circuit;
        let deck = power_grid_deck(&PowerGridSpec {
            nx: 6,
            ny: 6,
            num_taps: 3,
            ..PowerGridSpec::default()
        });
        let ckt = Circuit::from_netlist(&deck.netlist).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        // At t=0 no current flows: every grid node sits at vdd.
        for t in &deck.taps {
            let v = dc.voltage(t).unwrap();
            assert!((v - 3.3).abs() < 1e-6, "{t} = {v}");
        }
    }

    #[test]
    fn reduction_preserves_ir_drop_waveform() {
        use pact_circuit::Circuit;
        let deck = power_grid_deck(&PowerGridSpec {
            nx: 10,
            ny: 10,
            num_taps: 5,
            ..PowerGridSpec::default()
        });
        let ex = extract_rc(&deck.netlist, &[]).unwrap();
        let red = pact::reduce_network(
            &ex.network,
            &pact::ReduceOptions::new(pact::CutoffSpec::new(2e9, 0.05).unwrap()),
        )
        .unwrap();
        assert!(red.model.is_passive(1e-8));
        let reduced =
            pact_netlist::splice_reduced(&deck.netlist, red.model.to_netlist_elements("pg", 1e-9));
        let run = |nl: &pact_netlist::Netlist| {
            let ckt = Circuit::from_netlist(nl).unwrap();
            let tr = ckt.transient(50e-12, 4e-9).unwrap();
            let v = tr.voltage(&deck.worst_tap).unwrap();
            let vmin = v.iter().cloned().fold(f64::MAX, f64::min);
            (tr, vmin)
        };
        let (_, drop_full) = run(&deck.netlist);
        let (_, drop_red) = run(&reduced);
        // Switching must produce a visible IR drop...
        assert!(drop_full < 3.3 - 1e-3, "no IR drop seen: {drop_full}");
        // ...and the reduced grid must reproduce its depth.
        assert!(
            (drop_full - drop_red).abs() < 5e-3,
            "IR-drop mismatch: full {drop_full} vs reduced {drop_red}"
        );
    }
}
