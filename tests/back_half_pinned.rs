//! Pins the back half of the pipeline byte for byte.
//!
//! For each case below, the FNV-1a fingerprint of the deck text that
//! `render_reduced` writes must equal the recorded value, together with
//! its length and element count. The cases cover decks of one and of
//! several connected components, the ignored `extract`, `hier`, `sparsify` at
//! 0, at the default, at 1e-3 and at 0.1, a chain collapse, and a shell with
//! `.model` cards, non-RC cards of every kind, analyses and
//! subckt-flattened node names. Any change to an element's name, nodes,
//! value text or order shows up as a mismatch; the failure message
//! prints the full table of current values.

use pact::ReductionSession;
use pact_gen::{
    chain_heavy_deck, inverter_pair_deck, multiplier_like_deck, network_to_elements,
    power_grid_deck, rich_mixed_deck, substrate_mesh, ChainDeckSpec, LineSpec, MeshSpec,
    MultiplierSpec, PowerGridSpec, RichDeckSpec,
};
use pact_netlist::Netlist;
use pact_serve::{prepare_deck, reduce_prepared, render_reduced, DeckOptions};

/// A shell with every kind of card the writer knows: MOSFET and diode
/// models, sources with waveforms, E/G/F/H sources, an inductor, a
/// diode with an area, analyses and `.print`, and RC parasitics inside
/// a subcircuit instantiated twice, so flattened node names reach the
/// reduced deck as ports.
const SHELL: &str = "\
* back half shell deck
.model nch nmos (vto=0.7 kp=110u lambda=0.04)
.model pch pmos (vto=-0.9 kp=40u)
.model dclamp d (is=2e-15 n=1.1 cj0=10f)
.subckt wire a b
R1 a m1 120
C1 m1 0 0.4p
R2 m1 m2 120
C2 m2 0 0.4p
R3 m2 b 120
Cb b 0 0.2p
Mtap t m1 0 0 nch w=2u l=1u
.ends
Vdd vdd 0 3.3
Vin in 0 PULSE(0 3.3 0 0.1n 0.1n 2n 5n)
Vpwl pw 0 pwl(0 0 1n 1 2n 0.5)
Vsin sn 0 sin(0 0.1 100meg)
Rdrv in x 50
M1 d x 0 0 nch w=4u l=1u
M2 d x vdd vdd pch w=8u l=1u
Xw1 d e wire
Xw2 e f wire
L1 f g 2n
D1 g 0 dclamp area=2
E1 s 0 f 0 2
G1 vdd t2 e 0 1m
Vsense g h 0
F1 h 0 Vsense 0.5
H1 k 0 Vsense 100
Rk k 0 1k
Rh h 0 1k
Rt t2 0 1k
Iload f 0 1m
.tran 10p 5n
.ac dec 10 1meg 1g
.print tran v(f) v(e)
.end
";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders `deck` the way one `rcfit` call does.
fn render(deck: &str, opts: &DeckOptions) -> (String, usize) {
    let prep = prepare_deck(deck, opts).expect("pinned decks prepare");
    let mut session = ReductionSession::new(opts.reduce_options().expect("valid options"));
    let red = reduce_prepared(&prep, &mut session, opts).expect("pinned decks reduce");
    let mut tel = pact::Telemetry::new();
    render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel)
}

fn mesh_text(spec: &MeshSpec) -> String {
    Netlist {
        title: "mesh".to_owned(),
        elements: network_to_elements(&substrate_mesh(spec), "m"),
        ..Netlist::default()
    }
    .to_string()
}

/// `(name, deck text, options)` for every pinned case.
fn cases() -> Vec<(&'static str, String, DeckOptions)> {
    let base = DeckOptions {
        threads: Some(1),
        ..DeckOptions::default()
    };
    let ports = |n: usize| (0..n).map(|k| format!("port{k}")).collect::<Vec<_>>();
    let mesh16 = mesh_text(&MeshSpec {
        nx: 16,
        ny: 16,
        nz: 4,
        num_contacts: 16,
        ..MeshSpec::table4()
    });
    let serve_mesh = mesh_text(&MeshSpec {
        nx: 6,
        ny: 6,
        nz: 2,
        num_contacts: 4,
        num_wells: 2,
        ..MeshSpec::table2()
    });
    let (mult, _) = multiplier_like_deck(&MultiplierSpec {
        chains: 4,
        stages: 6,
        ..MultiplierSpec::scaled_down()
    });
    let chain = chain_heavy_deck(&ChainDeckSpec {
        chains: 2,
        segments: 300,
        r_total: 250.0,
        c_total: 1.35e-12,
        taps: 1,
    });
    let grid = power_grid_deck(&PowerGridSpec {
        nx: 8,
        ny: 8,
        num_taps: 3,
        ..PowerGridSpec::default()
    });
    let line = inverter_pair_deck(&LineSpec {
        segments: 60,
        ..LineSpec::default()
    });
    let rich = rich_mixed_deck(&RichDeckSpec::default());
    // Two poles survive at 20 GHz, so pole nodes reach the shell.
    let shell = DeckOptions {
        f_max: 20e9,
        tolerance: 0.01,
        ..base.clone()
    };
    vec![
        ("shell_whole", SHELL.to_owned(), shell.clone()),
        (
            "shell_sparsify_1e-1",
            SHELL.to_owned(),
            DeckOptions {
                sparsify: 0.1,
                ..shell.clone()
            },
        ),
        (
            "shell_extract",
            SHELL.to_owned(),
            DeckOptions {
                extract: true,
                ..shell
            },
        ),
        (
            "mesh16_flat",
            mesh16.clone(),
            DeckOptions {
                f_max: 2e9,
                extra_ports: ports(16),
                ..base.clone()
            },
        ),
        (
            "mesh16_hier",
            mesh16.clone(),
            DeckOptions {
                f_max: 2e9,
                extra_ports: ports(16),
                hier: true,
                block_size: 128,
                ..base.clone()
            },
        ),
        (
            "mesh16_sparsify_0",
            mesh16.clone(),
            DeckOptions {
                f_max: 2e9,
                extra_ports: ports(16),
                sparsify: 0.0,
                ..base.clone()
            },
        ),
        (
            "mesh16_sparsify_1e-3",
            mesh16,
            DeckOptions {
                f_max: 2e9,
                extra_ports: ports(16),
                sparsify: 1e-3,
                ..base.clone()
            },
        ),
        (
            "serve_mesh_sparsify_0",
            serve_mesh,
            DeckOptions {
                extra_ports: ports(4),
                sparsify: 0.0,
                ..base.clone()
            },
        ),
        (
            "multiplier_extract",
            mult.to_string(),
            DeckOptions {
                f_max: 500e6,
                extract: true,
                ..base.clone()
            },
        ),
        (
            "chain_collapse",
            chain.to_string(),
            DeckOptions {
                extract: true,
                collapse_chains: true,
                chain_tol: 1e-4,
                ..base.clone()
            },
        ),
        ("power_grid", grid.netlist.to_string(), base.clone()),
        (
            "line_sparsify_1e-3",
            line.to_string(),
            DeckOptions {
                sparsify: 1e-3,
                ..base.clone()
            },
        ),
        (
            "rich_extract",
            rich.to_string(),
            DeckOptions {
                extract: true,
                ..base
            },
        ),
    ]
}

/// Recorded on the element-by-element realizer that built a
/// `Vec<Element>`, spliced it into a copy of the shell and formatted the
/// copy: `(fingerprint, bytes, elements)`. `shell_*` (two subcircuit
/// wires) and `line_sparsify_1e-3` (the line and the receiver's load)
/// have several connected components, so they were re-recorded when
/// every deck came to be reduced per component: the same element bodies
/// under `rcfit<k>_` names, in component order.
const PINNED: &[(&str, (u64, usize, usize))] = &[
    ("shell_whole", (0xd3d4403f1ed2d43b, 1756, 24)),
    ("shell_sparsify_1e-1", (0x35c6bc177d52be98, 1679, 22)),
    ("shell_extract", (0xd3d4403f1ed2d43b, 1756, 24)),
    ("mesh16_flat", (0x7ee80fedb9426a59, 18844, 511)),
    ("mesh16_hier", (0x09da59080f95cf90, 18844, 511)),
    ("mesh16_sparsify_0", (0x7ee80fedb9426a59, 18844, 511)),
    ("mesh16_sparsify_1e-3", (0x5c28ac5558601bfa, 2807, 81)),
    ("serve_mesh_sparsify_0", (0xc02f831ce6d44ae6, 1056, 30)),
    ("multiplier_extract", (0xa523989a96e1266c, 6747, 84)),
    ("chain_collapse", (0x6da8e1490e11bfd1, 1253, 15)),
    ("power_grid", (0x06aa5793d08827d5, 1942, 49)),
    ("line_sparsify_1e-3", (0xea3955ed9926b7fe, 765, 5)),
    ("rich_extract", (0xc8f03a69de5c6e7b, 955, 9)),
];

#[test]
fn back_half_output_is_pinned_byte_for_byte() {
    let actual: Vec<(&str, (u64, usize, usize))> = cases()
        .into_iter()
        .map(|(name, deck, opts)| {
            let (text, elements) = render(&deck, &opts);
            (name, (fnv1a(&text), text.len(), elements))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, (h, len, n))| format!("    (\"{name}\", (0x{h:016x}, {len}, {n})),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        PINNED,
        "back-half output drifted; current values:\n{table}"
    );
}
