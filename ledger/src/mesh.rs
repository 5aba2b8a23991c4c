//! `mesh_flat` and `mesh_hier`: a substrate-mesh deck with its contacts
//! forced to ports, reduced per cap corner the way one `rcfit` call does
//! it, then parsed and compiled by the simulator.
//!
//! `mesh_flat` is the paper's Table 4 case and the plain single-thread
//! baseline: flat Lanczos at 1 thread, where moments, eigen, factor and
//! the 2.6 MB → 7.5 MB parse/emit all carry weight. `mesh_hier` is the
//! 20k-node mesh on which the hierarchical strategy beats flat: its
//! partition tree, leaf fan-out and stitch run at 2 threads, with a
//! 1-thread pass for `deck_s`.

use std::time::Instant;

use pact::json::Value;
use pact_gen::{network_to_elements, substrate_mesh, MeshSpec};
use pact_netlist::{Netlist, RcNetwork};
use pact_serve::DeckOptions;

use crate::calls::{load, reduce_deck};
use crate::gate::{corner_key, Reference};
use crate::report::{eigen_spread, Report, Samples};
use crate::trace::Tracer;
use crate::{more_set_ups, secs, Cfg, Rng};

/// Cap-scale corners: every pass reduces each once, in seeded order, so
/// every run covers the same inputs and only their order varies.
const FLAT_CORNERS: [f64; 5] = [0.99, 0.995, 1.0, 1.005, 1.01];
const HIER_CORNERS: [f64; 3] = [0.99, 1.0, 1.01];

struct Case {
    spec: MeshSpec,
    corners: &'static [f64],
    hier: bool,
    block_size: usize,
}

fn case(hier: bool, smoke: bool) -> Case {
    let table4 = MeshSpec::table4();
    let (spec, block_size) = match (hier, smoke) {
        (false, false) => (table4, 0),
        (false, true) => (
            MeshSpec {
                nx: 16,
                ny: 16,
                nz: 4,
                num_contacts: 36,
                ..table4
            },
            0,
        ),
        (true, false) => (
            MeshSpec {
                nx: 40,
                ny: 40,
                nz: 13,
                num_contacts: 64,
                ..table4
            },
            2000,
        ),
        (true, true) => (
            MeshSpec {
                nx: 16,
                ny: 16,
                nz: 6,
                num_contacts: 16,
                ..table4
            },
            256,
        ),
    };
    Case {
        spec,
        corners: if hier { &HIER_CORNERS } else { &FLAT_CORNERS },
        hier,
        block_size,
    }
}

fn options(case: &Case, ports: &[String], threads: usize) -> DeckOptions {
    let mut o = DeckOptions {
        f_max: 500e6,
        tolerance: 0.10,
        threads: Some(threads),
        hier: case.hier,
        extra_ports: ports.to_vec(),
        ..DeckOptions::default()
    };
    if case.hier {
        o.block_size = case.block_size;
    }
    o
}

/// The generated inputs: one deck text per corner and the port names.
struct Inputs {
    decks: Vec<String>,
    ports: Vec<String>,
}

fn inputs(case: &Case) -> Inputs {
    let net = substrate_mesh(&case.spec);
    let ports = net.node_names[..net.num_ports].to_vec();
    let decks = case.corners.iter().map(|&s| corner_deck(&net, s)).collect();
    Inputs { decks, ports }
}

fn corner_deck(net: &RcNetwork, scale: f64) -> String {
    let mut net = net.clone();
    for c in &mut net.capacitors {
        c.value *= scale;
    }
    Netlist {
        title: format!("* substrate mesh, capacitors x{scale}"),
        elements: network_to_elements(&net, "m"),
        ..Netlist::default()
    }
    .to_string()
}

pub fn run(cfg: &Cfg, tr: &mut Tracer, hier: bool) -> Report {
    let name = if hier { "mesh_hier" } else { "mesh_flat" };
    let case = case(hier, cfg.smoke);
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut input = None;
    while more_set_ups(&setup_s) {
        let t = Instant::now();
        input = Some(inputs(&case));
        setup_s.push(secs(t));
    }
    let Inputs { decks, ports } = input.expect("set-up ran");
    let reference = Reference::load(name, cfg.smoke);
    let flow_threads = if hier { 2 } else { 1 };
    let flow_opts = options(&case, &ports, flow_threads);
    let deck_opts = options(&case, &ports, 1);
    let mut order: Vec<usize> = (0..case.corners.len()).collect();
    Rng::new(cfg.seed).shuffle(&mut order);

    // One untimed warm-up flow on the nominal corner.
    let nominal = case
        .corners
        .iter()
        .position(|&c| c == 1.0)
        .expect("nominal corner");
    let t = Instant::now();
    let warm = reduce_deck(&mut Tracer::new(false), None, &decks[nominal], &flow_opts);
    rep.gate(warm.map(drop));
    rep.layer("bench.warmup_s", "s", secs(t), 1);

    let (mut deck_s, mut flow_s, mut elements, mut eigen) = (vec![], vec![], vec![], vec![]);
    let mut samples = Samples::default();
    let window = tr.at(Instant::now());
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for &k in &order {
            let corner = case.corners[k];
            if hier {
                let root = tr.begin("deck_1t", None);
                let t = Instant::now();
                let red = reduce_deck(tr, root, &decks[k], &deck_opts);
                deck_s.push(secs(t));
                tr.end(root);
                rep.gate(red.and_then(|r| reference.poles(corner, &r.lambdas)));
            }
            let root = tr.begin("flow", None);
            let t = Instant::now();
            let red = reduce_deck(tr, root, &decks[k], &flow_opts);
            let reduced_at = secs(t);
            let loaded = red
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| load(tr, root, &r.deck));
            let flow = secs(t);
            tr.end(root);
            let red = match (red, loaded) {
                (Ok(red), Ok(_)) => red,
                (Err(e), _) | (_, Err(e)) => {
                    rep.gate(Err(format!("corner {}: {e}", corner_key(corner))));
                    continue;
                }
            };
            rep.gate(reference.poles(corner, &red.lambdas));
            if !hier {
                deck_s.push(reduced_at);
            }
            flow_s.push(flow);
            elements.push(red.elements as f64);
            eigen.push(red.tel.phase("eigen"));
            red.tel.sample(&mut samples, flow_threads);
            if let Some(mb) = red.modelled_mb {
                samples.add("core.modelled_mem_mb", "MB", mb);
            }
        }
        if start.elapsed() + pass.elapsed() > cfg.budget() {
            break;
        }
    }
    let window = (window, tr.at(Instant::now()));

    rep.e2e("setup_s", "s", &setup_s);
    rep.e2e("deck_s", "s", &deck_s);
    rep.e2e("flow_s", "s", &flow_s);
    // Every pass covers the same corners, so the mean is the same set of
    // decks on every run.
    let mean = elements.iter().sum::<f64>() / elements.len().max(1) as f64;
    rep.e2e("model_elements", "count", &[mean]);
    samples.into_report(&mut rep);
    rep.layer(
        "lanczos.eigen_spread",
        "ratio",
        eigen_spread(&eigen),
        eigen.len(),
    );
    crate::traced_layers(&mut rep, tr, window);
    rep
}

/// Reference poles per corner, at the thread count of the flow.
pub fn reference(hier: bool, smoke: bool) -> Result<Value, String> {
    let case = case(hier, smoke);
    let Inputs { decks, ports } = inputs(&case);
    let opts = options(&case, &ports, if hier { 2 } else { 1 });
    let mut fields = Vec::new();
    for (deck, &corner) in decks.iter().zip(case.corners) {
        let red = reduce_deck(&mut Tracer::new(false), None, deck, &opts)?;
        let poles = red.lambdas.into_iter().map(Value::num).collect();
        fields.push((corner_key(corner), Value::Arr(poles)));
    }
    Ok(Value::obj(fields))
}
