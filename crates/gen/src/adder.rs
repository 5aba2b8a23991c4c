//! One-bit CMOS full adder over a substrate mesh — the workload of the
//! paper's Tables 2–3 and Figure 6.
//!
//! The adder is the classic 28-transistor static mirror adder (10T carry
//! stage, 14T sum stage, two output inverters), with its three inputs
//! driven by separate CMOS inverters, matching the paper's description
//! ("the total number of transistors in the circuit is 28 as the three
//! inputs to the adder are driven by separate CMOS inverters"; the
//! paper's adder core has 22 devices — ours is the 28T textbook
//! topology, a documented substitution).
//!
//! Every adder-core transistor's body terminal connects to its own
//! substrate mesh port; the drivers' bodies tie to the Vdd/Vss contact
//! ports. One extra port (`portM`) is left unconnected as the substrate
//! voltage monitor, exactly as in the paper.

use pact_netlist::{Element, ElementKind, MosfetCard, Netlist, RcNetwork, Waveform};

use crate::line::add_default_models;
use crate::mesh::{network_to_elements, substrate_mesh, MeshSpec};

/// Node naming and port bookkeeping for the adder + mesh deck.
#[derive(Clone, Debug)]
pub struct AdderDeck {
    /// The complete SPICE deck (adder + drivers + mesh + supplies).
    pub netlist: Netlist,
    /// The mesh port name used as the substrate voltage monitor.
    pub monitor_port: String,
    /// Mesh port names tied to NMOS bodies.
    pub nmos_ports: Vec<String>,
    /// The mesh port wired to the Vss substrate contact.
    pub vss_port: String,
    /// The mesh port wired to the Vdd well contact.
    pub vdd_port: String,
}

/// A four-terminal transistor shorthand used while assembling the adder.
fn mos(name: &str, d: &str, g: &str, s: &str, b: &str, nmos: bool, w: f64) -> Element {
    Element::mosfet(
        name,
        MosfetCard {
            d: d.into(),
            g: g.into(),
            s: s.into(),
            b: b.into(),
            model: if nmos { "nch" } else { "pch" }.to_owned(),
            w,
            l: 1e-6,
        },
    )
}

/// Builds the full-adder-over-substrate deck.
///
/// `mesh_spec.num_contacts` must be at least 25 (22 body ports + Vdd +
/// Vss + monitor); extra contacts remain unloaded ports.
///
/// # Panics
///
/// Panics if the mesh has fewer than 25 contacts.
pub fn full_adder_deck(mesh_spec: &MeshSpec) -> AdderDeck {
    assert!(
        mesh_spec.num_contacts >= 25,
        "adder needs at least 25 mesh contacts"
    );
    let mesh: RcNetwork = substrate_mesh(mesh_spec);
    let mut nl = Netlist::new("one-bit full adder over 3-D substrate mesh");
    add_default_models(&mut nl);

    // Supplies and inputs.
    let vdd = 5.0;
    nl.elements.push(Element {
        name: "Vdd".into(),
        kind: ElementKind::VSource {
            p: "vdd".into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(vdd)),
        },
    });
    for (i, (name, period)) in [("a", 4e-9), ("b", 8e-9), ("cin", 16e-9)]
        .iter()
        .enumerate()
    {
        nl.elements.push(Element {
            name: format!("Vin{i}"),
            kind: ElementKind::VSource {
                p: format!("{name}_in").into(),
                n: "0".into(),
                wave: Box::new(Waveform::Pulse {
                    v1: 0.0,
                    v2: vdd,
                    td: 0.5e-9,
                    tr: 0.15e-9,
                    tf: 0.15e-9,
                    pw: period / 2.0 - 0.15e-9,
                    per: *period,
                }),
            },
        });
    }

    // Port budget: 22 adder-core bodies, then vdd/vss contacts, then the
    // monitor, all distinct mesh ports.
    let mut port_iter = 0usize;
    let mut nmos_ports: Vec<String> = Vec::new();
    macro_rules! next_port {
        () => {{
            let p = format!("port{port_iter}");
            port_iter += 1;
            p
        }};
    }
    macro_rules! body_n {
        () => {{
            let p = next_port!();
            nmos_ports.push(p.clone());
            p
        }};
    }

    // --- carry stage: coutb = NOT(majority(a, b, cin)) — 10T mirror ---
    // PMOS pull-up.
    let mut els: Vec<Element> = Vec::new();
    let wp = 8e-6;
    let wn = 4e-6;
    // PMOS bodies share the well; the well itself contacts the mesh at
    // one port (vdd_port) — matching the paper's single Vdd well contact.
    let vdd_port = next_port!();
    els.push(mos("MPC1", "n1", "a", "vdd", &vdd_port, false, wp));
    els.push(mos("MPC2", "n1", "b", "vdd", &vdd_port, false, wp));
    els.push(mos("MPC3", "coutb", "cin", "n1", &vdd_port, false, wp));
    els.push(mos("MPC4", "n2", "a", "vdd", &vdd_port, false, wp));
    els.push(mos("MPC5", "coutb", "b", "n2", &vdd_port, false, wp));
    // NMOS pull-down (mirror) — each body to its own substrate port.
    let p1 = body_n!();
    els.push(mos("MNC1", "m1", "a", "0", &p1, true, wn));
    let p2 = body_n!();
    els.push(mos("MNC2", "coutb", "b", "m1", &p2, true, wn));
    let p3 = body_n!();
    els.push(mos("MNC3", "m2", "cin", "coutb", &p3, true, wn));
    let p4 = body_n!();
    els.push(mos("MNC4", "0", "a", "m2", &p4, true, wn));
    let p5 = body_n!();
    els.push(mos("MNC5", "0", "b", "m2", &p5, true, wn));

    // --- sum stage: sumb = NOT(a ⊕ b ⊕ cin) — 14T mirror ---
    els.push(mos("MPS1", "s1", "a", "vdd", &vdd_port, false, wp));
    els.push(mos("MPS2", "s1", "b", "vdd", &vdd_port, false, wp));
    els.push(mos("MPS3", "s1", "cin", "vdd", &vdd_port, false, wp));
    els.push(mos("MPS4", "sumb", "coutb", "s1", &vdd_port, false, wp));
    els.push(mos("MPS5", "s2", "a", "vdd", &vdd_port, false, wp));
    els.push(mos("MPS6", "s3", "b", "s2", &vdd_port, false, wp));
    els.push(mos("MPS7", "sumb", "cin", "s3", &vdd_port, false, wp));
    for (name, d, g, s) in [
        ("MNS1", "t1", "a", "0"),
        ("MNS2", "t1", "b", "0"),
        ("MNS3", "t1", "cin", "0"),
        ("MNS4", "sumb", "coutb", "t1"),
        ("MNS5", "t2", "a", "0"),
        ("MNS6", "t3", "b", "t2"),
        ("MNS7", "sumb", "cin", "t3"),
    ] {
        let p = body_n!();
        els.push(mos(name, d, g, s, &p, true, wn));
    }

    // --- output inverters (part of the 28T core) ---
    for (name, input, output) in [("cout", "coutb", "cout"), ("sum", "sumb", "sum")] {
        let pn = body_n!();
        els.push(mos(
            &format!("MNI{name}"),
            output,
            input,
            "0",
            &pn,
            true,
            wn,
        ));
        els.push(mos(
            &format!("MPI{name}"),
            output,
            input,
            "vdd",
            &vdd_port,
            false,
            wp,
        ));
    }

    // --- three input driver inverters (bodies tied to supply contacts,
    //     not the mesh, per the paper's 22-port budget) ---
    let vss_port = next_port!();
    for name in ["a", "b", "cin"] {
        els.push(mos(
            &format!("MND{name}"),
            name,
            &format!("{name}_in"),
            "0",
            &vss_port,
            true,
            wn * 2.0,
        ));
        els.push(mos(
            &format!("MPD{name}"),
            name,
            &format!("{name}_in"),
            "vdd",
            &vdd_port,
            false,
            wp * 2.0,
        ));
    }

    // Monitor port: a zero-value current probe makes it a port under the
    // extraction rule without disturbing the electrical network (the
    // paper includes this node explicitly "to monitor the substrate
    // voltage at a point near the adder").
    let monitor_port = next_port!();
    debug_assert!(port_iter <= mesh_spec.num_contacts);
    els.push(Element {
        name: "Imon".into(),
        kind: ElementKind::ISource {
            p: monitor_port.clone().into(),
            n: "0".into(),
            wave: Box::new(Waveform::Dc(0.0)),
        },
    });

    // Supply contacts: tie the vss port to ground and the vdd (well)
    // port to the supply through low-resistance contacts.
    els.push(Element::resistor("Rvssc", vss_port.clone(), "0", 1.0));
    els.push(Element::resistor("Rvddc", vdd_port.clone(), "vdd", 1.0));

    // Output loads.
    els.push(Element::capacitor("Clsum", "sum", "0", 15e-15));
    els.push(Element::capacitor("Clcout", "cout", "0", 15e-15));

    nl.elements.extend(els);
    nl.elements.extend(network_to_elements(&mesh, "sub"));

    AdderDeck {
        netlist: nl,
        monitor_port,
        nmos_ports,
        vss_port,
        vdd_port,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mesh() -> MeshSpec {
        MeshSpec {
            nx: 8,
            ny: 8,
            nz: 3,
            num_contacts: 25,
            ..MeshSpec::table2()
        }
    }

    #[test]
    fn deck_has_28t_core_plus_drivers() {
        let deck = full_adder_deck(&small_mesh());
        let mosfets = deck
            .netlist
            .count(|e| matches!(e.kind, ElementKind::Mosfet { .. }));
        assert_eq!(mosfets, 34); // 28 core + 6 driver transistors
        assert_eq!(deck.nmos_ports.len(), 14); // 12 core NMOS + 2 inverter NMOS
    }

    #[test]
    fn all_body_ports_are_mesh_ports() {
        let deck = full_adder_deck(&small_mesh());
        for p in deck
            .nmos_ports
            .iter()
            .chain([&deck.vdd_port, &deck.vss_port, &deck.monitor_port])
        {
            assert!(p.starts_with("port"), "{p} is not a mesh port");
        }
        // Monitor must be distinct from the others.
        assert!(!deck.nmos_ports.contains(&deck.monitor_port));
    }

    #[test]
    fn adder_logic_is_correct_at_dc() {
        // Check cout/sum levels for all 8 input combinations via DC.
        use pact_circuit::Circuit;
        let deck = full_adder_deck(&small_mesh());
        for combo in 0..8u8 {
            let mut nl = deck.netlist.clone();
            // Replace input pulse sources with DC levels. Inputs pass
            // through inverting drivers, so drive the complement.
            let levels = [(combo & 1) != 0, (combo & 2) != 0, (combo & 4) != 0];
            let mut k = 0;
            for e in nl.elements.iter_mut() {
                if let ElementKind::VSource { wave, .. } = &mut e.kind {
                    if e.name.starts_with("Vin") {
                        // driver inverts: to get logic L at adder input,
                        // drive the pad high.
                        **wave = Waveform::Dc(if levels[k] { 0.0 } else { 5.0 });
                        k += 1;
                    }
                }
            }
            let ckt = Circuit::from_netlist(&nl).unwrap();
            let dc = ckt.dc_operating_point().unwrap();
            let (a, b, c) = (levels[0], levels[1], levels[2]);
            let want_sum = a ^ b ^ c;
            let want_cout = (a & b) | (c & (a | b));
            let vsum = dc.voltage("sum").unwrap();
            let vcout = dc.voltage("cout").unwrap();
            assert_eq!(
                vsum > 2.5,
                want_sum,
                "sum wrong for combo {combo:03b}: v={vsum}"
            );
            assert_eq!(
                vcout > 2.5,
                want_cout,
                "cout wrong for combo {combo:03b}: v={vcout}"
            );
        }
    }

    #[test]
    fn total_node_and_element_counts_scale_with_mesh() {
        let deck = full_adder_deck(&MeshSpec {
            nx: 10,
            ny: 10,
            nz: 4,
            num_contacts: 25,
            ..MeshSpec::table2()
        });
        let rc = deck.netlist.count(pact_netlist::Element::is_rc);
        assert!(rc > 900, "mesh RC elements missing, got {rc}");
    }
}
