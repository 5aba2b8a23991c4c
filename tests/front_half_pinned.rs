//! Pins the front half of the pipeline bit for bit.
//!
//! For each deck below, the FNV-1a fingerprint of the `Debug` output of
//! every front-half stage must equal the recorded value: `parse`,
//! `flatten`, `duplicate_element_names`, `extract_rc`, and the node order
//! of `Circuit::from_netlist`. The decks cover the tokenizer's general
//! path (mixed case, ground aliases, `+` continuations, `$` comments,
//! glued `PULSE(`/`w=10u`/`area = 2`, tab, CRLF and non-breaking-space
//! separators, non-ASCII names), a nested `.subckt`, element names that
//! differ only in case, and small decks of every benchmark family. Any
//! change to node order, element order, values or texts shows up as a
//! mismatch; the failure message prints the full table of current values.

use pact_circuit::Circuit;
use pact_gen::{
    chain_heavy_deck, inverter_pair_deck, multiplier_like_deck, network_to_elements,
    power_grid_deck, substrate_mesh, ChainDeckSpec, LineSpec, MeshSpec, MultiplierSpec,
    PowerGridSpec,
};
use pact_netlist::{extract_rc, parse, Netlist};

const MIXED_CASE: &str = "\
* Mixed Case Grounds
Vdd VDD GND 5
R1 VDD Mid 1k
R2 Mid mid 2K
C1 mid Gnd! 1P
C2 Mid VSS! 2p
C3 mid vss! 1F
R3 MID 0 10Meg
Rx mid gnd 1MEG
M1 Out Mid gnd GND NCH W=2U L=1u
Cload Out 0 5FF
.MODEL NCH NMOS (VTO=0.7 KP=110U)
.TRAN 10P 5N
.END
";

const CONTINUED: &str = "\
* continuations and comments
V1 in 0 PULSE(0 5
+ 0 1n 1n
+ 3n 10n)  $ the drive
R1 in n1 100 $ first segment
+ $ only a comment
C1 n1 0
+ 1p
* a full-line comment
R2 n1 n2 100$glued comment
C2 n2 0 2p
   + 3p
I1 n2 0 dc 1m
.tran 10p 5n $ timing
.end
";

const GLUED: &str = "\
* glued punctuation
.model nch nmos(vto=0.7 kp=110u lambda=0.04)
.model dm d(is=1e-14 n=1.1 cjo=2f)
Vs a 0 PULSE(0 1 0 1n 1n 5n 20n)
Vp b 0 pwl(0 0 1n 1 2n 0.5)
Vw w 0 sin(0 1 1meg)
Ra a m 50
Rb m b 50
Cm m 0 0.2p
M1 d m 0 0 nch w=10u l=1u
M2 d b 0 0 nch W = 4u L= 2u
D1 m 0 dm area = 2
D2 b 0 dm area=3
Rw w d 1k
.print tran v(a) V(m) i(Vs)
.ac dec 10 1meg 1g
.end
";

const SEPARATORS: &str = "* separators\r\n\
V1\tin\t0\t1\r\n\
R1\tin\tmid\t1k\r\n\
C1\u{a0}mid\u{a0}0\u{a0}1p\r\n\
R2 mid\u{2003}nœud 2k\r\n\
C2 nœud 0\t\t1p\r\n\
R3 nœud out\u{a0}\u{a0}500\r\n\
Iload out 0 1µ\r\n\
.end\r\n";

const NESTED: &str = "\
* nested subcircuits
.subckt inner a b
R1 a m 10
C1 m 0 1p
R2 m b 10
.ends
.subckt OUTER x y
Xi1 x mid inner
Xi2 mid y INNER
Cmid mid 0 2p
Vsense mid sense 0
F1 y 0 Vsense 2
.ends
.model nch nmos()
V1 in 0 1
X1 in out outer
Xb out far Outer
M1 o far 0 0 nch
Rload o 0 1k
.end
";

const CASE_TWINS: &str = "\
* names that differ only in case
V1 in 0 1
R1 in a 10
r1 a b 10
RA b c 10
ra c d 10
Ra d out 10
C1 a 0 1p
c1 b 0 1p
c1 c 0 1p
Cx out 0 1p
CX out 0 2p
Iout out 0 1m
.end
";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprints of `parse`, `flatten`, `duplicate_element_names`,
/// `extract_rc` and `Circuit::from_netlist`'s node order on `deck`.
fn fingerprints(deck: &str, ports: &[&str]) -> [u64; 5] {
    let parsed = parse(deck);
    let parse_fp = fnv1a(&format!("{parsed:?}"));
    let nl = parsed.expect("pinned decks parse");
    let flat = nl.clone().flatten().expect("pinned decks flatten");
    let nodes = match Circuit::from_netlist(&nl) {
        Ok(ckt) => format!("{:?}", ckt.node_names()),
        Err(e) => format!("{e:?}"),
    };
    [
        parse_fp,
        fnv1a(&format!("{flat:?}")),
        fnv1a(&format!("{:?}", flat.duplicate_element_names())),
        fnv1a(&format!("{:?}", extract_rc(&flat, ports))),
        fnv1a(&nodes),
    ]
}

fn mesh_text(spec: &MeshSpec) -> String {
    Netlist {
        title: "mesh".to_owned(),
        elements: network_to_elements(&substrate_mesh(spec), "m"),
        ..Netlist::default()
    }
    .to_string()
}

/// `(name, deck text, forced ports)` for every pinned deck.
fn decks() -> Vec<(&'static str, String, Vec<String>)> {
    let serve_mesh = MeshSpec {
        nx: 6,
        ny: 6,
        nz: 2,
        num_contacts: 4,
        num_wells: 2,
        ..MeshSpec::table2()
    };
    let table4_mesh = MeshSpec {
        nx: 10,
        ny: 10,
        nz: 3,
        num_contacts: 9,
        ..MeshSpec::table4()
    };
    let ports = |n: usize| (0..n).map(|k| format!("port{k}")).collect::<Vec<_>>();
    let grid = power_grid_deck(&PowerGridSpec {
        nx: 6,
        ny: 6,
        num_taps: 2,
        ..PowerGridSpec::default()
    });
    let line = inverter_pair_deck(&LineSpec {
        segments: 20,
        ..LineSpec::default()
    });
    let chain = chain_heavy_deck(&ChainDeckSpec {
        chains: 1,
        segments: 100,
        r_total: 250.0,
        c_total: 1.35e-12,
        taps: 0,
    });
    let (mult, _) = multiplier_like_deck(&MultiplierSpec {
        chains: 4,
        stages: 6,
        ..MultiplierSpec::scaled_down()
    });
    let text = |s: &str| s.to_owned();
    vec![
        ("mixed_case", text(MIXED_CASE), vec![]),
        ("continued", text(CONTINUED), vec!["n2".to_owned()]),
        ("glued", text(GLUED), vec![]),
        ("separators", text(SEPARATORS), vec!["MID".to_owned()]),
        ("nested", text(NESTED), vec![]),
        ("case_twins", text(CASE_TWINS), vec![]),
        ("serve_mesh", mesh_text(&serve_mesh), ports(4)),
        ("table4_mesh", mesh_text(&table4_mesh), ports(9)),
        ("power_grid", grid.netlist.to_string(), vec![]),
        ("line", line.to_string(), vec![]),
        ("chain", chain.to_string(), vec![]),
        ("multiplier", mult.to_string(), vec![]),
    ]
}

/// Recorded at the commit before the allocation-free tokenizer and node
/// table: `[parse, flatten, duplicates, extract_rc, circuit nodes]`.
const PINNED: &[(&str, [u64; 5])] = &[
    (
        "mixed_case",
        [
            0xd4a22a8e6a454060,
            0x7892ae87a78b2c69,
            0x09612b07b5ecb5a5,
            0x3fb55488ef6d1425,
            0xfc52ba688c87433d,
        ],
    ),
    (
        "continued",
        [
            0x0815f7f4ecb8382b,
            0xad42d28b27653660,
            0x09612b07b5ecb5a5,
            0x5b6ddab3925da0aa,
            0xb70b896d58a6b827,
        ],
    ),
    (
        "glued",
        [
            0x86af46e80de2d343,
            0xaa613a71b713e9f8,
            0x09612b07b5ecb5a5,
            0xedf5a2082b0ad1dd,
            0x64f1bc3ab767b1bc,
        ],
    ),
    (
        "separators",
        [
            0xd5bd7e41c9610eca,
            0x53874c90f8127a87,
            0x09612b07b5ecb5a5,
            0x7d9bdb13418dd9a8,
            0xab2d127a2176b097,
        ],
    ),
    (
        "nested",
        [
            0x1f58f6c82e4abf23,
            0x870364387b9ed2c8,
            0x09612b07b5ecb5a5,
            0x5093f9d4c33b236c,
            0x7fc2b8a47a70025e,
        ],
    ),
    (
        "case_twins",
        [
            0xbaf300d85004dd18,
            0x4f82807724dc03c1,
            0x348f59302263d596,
            0xa3cb0acd1d8eda41,
            0x1cc59bf7ac5a00a0,
        ],
    ),
    (
        "serve_mesh",
        [
            0x93050042a38070d2,
            0xcff2144c06dc896f,
            0x09612b07b5ecb5a5,
            0x69ef5227809c6f25,
            0xac9896d4f3a0bc20,
        ],
    ),
    (
        "table4_mesh",
        [
            0x8d0f73cb0a94eb77,
            0x7e418487efdb7b24,
            0x09612b07b5ecb5a5,
            0xa5fc3eb8f4ee4151,
            0xf014a8c46c5d2ac5,
        ],
    ),
    (
        "power_grid",
        [
            0xe2299636567fe569,
            0x9333fc04caa81f7a,
            0x09612b07b5ecb5a5,
            0xdf352d1fc10089be,
            0x8c96f0f2292d4f5d,
        ],
    ),
    (
        "line",
        [
            0x52d65cd3e818a4a4,
            0x981a46262b3d6345,
            0x09612b07b5ecb5a5,
            0x305065dc49619a0d,
            0xfafc297ebfa65517,
        ],
    ),
    (
        "chain",
        [
            0x9464d9bfdcd282bb,
            0x9a98fdbbdd5a43d0,
            0x09612b07b5ecb5a5,
            0xce6d065add7ed7e3,
            0xfd10f8489db67ccf,
        ],
    ),
    (
        "multiplier",
        [
            0x86acc97abd25839b,
            0x82d489ce6294a530,
            0x09612b07b5ecb5a5,
            0x8d7eebd29a8e058f,
            0xd9a45a0d8c7068f7,
        ],
    ),
];

#[test]
fn front_half_output_is_pinned_bit_for_bit() {
    let mut actual = Vec::new();
    for (name, deck, ports) in decks() {
        let ports: Vec<&str> = ports.iter().map(String::as_str).collect();
        actual.push((name, fingerprints(&deck, &ports)));
    }
    let table: String = actual
        .iter()
        .map(|(name, fp)| {
            let hex: Vec<String> = fp.iter().map(|h| format!("0x{h:016x}")).collect();
            format!("    (\"{name}\", [{}]),\n", hex.join(", "))
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        PINNED,
        "front-half output drifted; current fingerprints:\n{table}"
    );
}
