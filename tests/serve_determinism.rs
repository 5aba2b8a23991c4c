//! Concurrency soak: the daemon is a scheduling layer, never a numerics
//! layer.
//!
//! Several client threads hammer one daemon with a mix of mesh,
//! power-grid, inverter-line, hierarchically-reduced mesh and
//! extracted/chain-collapsed embedded-parasitics decks.
//! Every response must be *bit-identical* to a one-shot run of the
//! shared pipeline (what
//! `rcfit` would print), regardless of worker count, queue interleaving
//! or warm-session state; and the per-request telemetry counters must be
//! independent of worker assignment except for the two warmth counters
//! (`factorizations`/`refactorizations`), which are exactly the ones
//! warm reuse is allowed to move.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use pact::json::Value;
use pact::ReductionSession;
use pact_gen::{
    inverter_pair_deck, network_to_elements, power_grid_deck, substrate_mesh, LineSpec, MeshSpec,
    PowerGridSpec,
};
use pact_netlist::Netlist;
use pact_serve::{
    prepare_deck, reduce_prepared, render_reduced, Daemon, DeckOptions, ReplySink, ServeConfig,
};

/// One deck family of the mixed workload.
struct Family {
    name: &'static str,
    deck: String,
    /// Extra ports forced via the request's `ports` option.
    ports: Vec<String>,
    /// `Some(max_block)` routes the request through the hierarchical
    /// strategy (the daemon's `"hier"`/`"block_size"` options).
    hier_block: Option<usize>,
    /// Send the daemon's `"extract"` option (accepted and ignored:
    /// every deck is reduced per connected component).
    extract: bool,
    /// `Some(tol)` runs the chain-collapse pre-pass (the daemon's
    /// `"collapse_chains"`/`"chain_tol"` options).
    chain_tol: Option<f64>,
    /// Expected reduced deck bytes (one-shot shared pipeline).
    expected_deck: String,
    /// Expected telemetry counters with the warmth counters removed.
    expected_counters: Vec<(String, Value)>,
}

fn small_mesh_deck() -> (String, Vec<String>) {
    let spec = MeshSpec {
        nx: 8,
        ny: 8,
        nz: 3,
        num_contacts: 6,
        num_wells: 3,
        ..MeshSpec::table2()
    };
    let net = substrate_mesh(&spec);
    let deck = Netlist {
        title: "* soak substrate mesh".to_owned(),
        elements: network_to_elements(&net, "m"),
        ..Netlist::default()
    };
    // A pure-RC deck has no port-forcing devices; expose a few contacts
    // through the request's `ports` option.
    let ports = (0..spec.num_contacts).map(|k| format!("port{k}")).collect();
    (deck.to_string(), ports)
}

fn small_grid_deck() -> (String, Vec<String>) {
    let spec = PowerGridSpec {
        nx: 8,
        ny: 8,
        num_taps: 4,
        ..PowerGridSpec::default()
    };
    (power_grid_deck(&spec).netlist.to_string(), Vec::new())
}

/// A mesh reduced hierarchically: exercises the two-level Schur leaf
/// fan-out and the per-worker session pool's leaf-pattern reuse. Uses
/// its own topology so the one-cold-analysis-per-family accounting
/// below stays exact.
fn hier_mesh_deck() -> (String, Vec<String>) {
    let spec = MeshSpec {
        nx: 10,
        ny: 10,
        nz: 4,
        num_contacts: 8,
        ..MeshSpec::table2()
    };
    let net = substrate_mesh(&spec);
    let deck = Netlist {
        title: "* soak hier substrate mesh".to_owned(),
        elements: network_to_elements(&net, "h"),
        ..Netlist::default()
    };
    let ports = (0..spec.num_contacts).map(|k| format!("port{k}")).collect();
    (deck.to_string(), ports)
}

fn line_deck() -> (String, Vec<String>) {
    let spec = LineSpec {
        segments: 40,
        ..LineSpec::default()
    };
    (inverter_pair_deck(&spec).to_string(), Vec::new())
}

/// Two embedded RC islands — a 60-segment chain and a tiny T — between
/// non-RC anchors: exercises the per-component split plus the chain-collapse
/// pre-pass (small per-segment τ so the default 1 GHz band re-segments
/// at the 1e-3 budget). Its own topology, like every family.
fn chain_deck() -> (String, Vec<String>) {
    let mut s = String::from("* soak chain deck\nVdrv in 0 1\n");
    let mut prev = "in".to_owned();
    for i in 0..60 {
        let next = if i == 59 {
            "out".to_owned()
        } else {
            format!("n{}", i + 1)
        };
        s.push_str(&format!("R{i} {prev} {next} 1\nC{i} {next} 0 2.5f\n"));
        prev = next;
    }
    s.push_str("Iload out 0 1m\nV2 p 0 1\nRa p q 50\nCa q 0 2f\nRb q r 50\nIload2 r 0 1m\n.end\n");
    (s, Vec::new())
}

/// Telemetry counters as key/value pairs, minus the two counters warm
/// reuse legitimately moves.
fn counters_without_warmth(tel: &Value) -> Vec<(String, Value)> {
    match tel.get("counters") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .filter(|(k, _)| k != "factorizations" && k != "refactorizations")
            .cloned()
            .collect(),
        other => panic!("telemetry has no counters object: {other:?}"),
    }
}

/// The one-shot reference: the shared pipeline with a fresh session,
/// exactly what `rcfit` runs for this deck.
fn one_shot(
    deck: &str,
    ports: &[String],
    hier_block: Option<usize>,
    extract: bool,
    chain_tol: Option<f64>,
) -> (String, Vec<(String, Value)>) {
    let opts = DeckOptions {
        threads: Some(1), // the daemon's per-request default
        extra_ports: ports.to_vec(),
        hier: hier_block.is_some(),
        block_size: hier_block.unwrap_or(DeckOptions::default().block_size),
        extract,
        collapse_chains: chain_tol.is_some(),
        chain_tol: chain_tol.unwrap_or(DeckOptions::default().chain_tol),
        ..DeckOptions::default()
    };
    let prep = prepare_deck(deck, &opts).expect("deck prepares");
    let mut session = ReductionSession::new(opts.reduce_options().unwrap());
    let red = reduce_prepared(&prep, &mut session, &opts).expect("deck reduces");
    let mut tel = prep.telemetry.clone();
    tel.absorb(&red.telemetry());
    let (text, _) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel);
    (text, counters_without_warmth(&tel.to_json()))
}

fn families() -> Vec<Family> {
    [
        ("mesh", small_mesh_deck(), None, false, None),
        ("grid", small_grid_deck(), None, false, None),
        ("line", line_deck(), None, false, None),
        ("hier", hier_mesh_deck(), Some(48), false, None),
        ("xtchain", chain_deck(), None, true, Some(1e-3)),
    ]
    .into_iter()
    .map(|(name, (deck, ports), hier_block, extract, chain_tol)| {
        let (expected_deck, expected_counters) =
            one_shot(&deck, &ports, hier_block, extract, chain_tol);
        Family {
            name,
            deck,
            ports,
            hier_block,
            extract,
            chain_tol,
            expected_deck,
            expected_counters,
        }
    })
    .collect()
}

fn request_line(id: &str, fam: &Family) -> String {
    let mut options = vec![("threads".to_owned(), Value::num(1.0))];
    if let Some(block) = fam.hier_block {
        options.push(("hier".to_owned(), Value::Bool(true)));
        options.push(("block_size".to_owned(), Value::num(block as f64)));
    }
    if fam.extract {
        options.push(("extract".to_owned(), Value::Bool(true)));
    }
    if let Some(tol) = fam.chain_tol {
        options.push(("collapse_chains".to_owned(), Value::Bool(true)));
        options.push(("chain_tol".to_owned(), Value::num(tol)));
    }
    if !fam.ports.is_empty() {
        options.push((
            "ports".to_owned(),
            Value::Arr(fam.ports.iter().map(Value::str).collect()),
        ));
    }
    Value::obj(vec![
        ("id".to_owned(), Value::str(id)),
        ("deck".to_owned(), Value::str(&fam.deck)),
        ("options".to_owned(), Value::obj(options)),
    ])
    .render()
}

/// Runs the mixed workload through a daemon with `workers` shards and
/// returns every response document keyed by request id.
fn run_soak(
    families: &[Family],
    workers: usize,
    clients: usize,
    per_client: usize,
) -> (BTreeMap<String, Value>, Arc<pact_serve::ServeCounters>) {
    let daemon = Daemon::new(ServeConfig {
        workers,
        queue_cap: 256,
        sessions_per_worker: 4,
        patterns_per_session: 16,
        max_deck_bytes: 16 << 20,
    });
    let responses: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for c in 0..clients {
            let daemon = &daemon;
            let responses = Arc::clone(&responses);
            scope.spawn(move || {
                let sink_lines = Arc::clone(&responses);
                let sink: ReplySink =
                    Arc::new(move |l: &str| sink_lines.lock().unwrap().push(l.to_owned()));
                for r in 0..per_client {
                    let fam = &families[(c + r) % families.len()];
                    let id = format!("c{c}-r{r}-{}", fam.name);
                    daemon.submit(&request_line(&id, fam), &sink);
                }
            });
        }
    });
    let counters = daemon.shutdown();
    let docs = responses
        .lock()
        .unwrap()
        .iter()
        .map(|l| {
            let doc = Value::parse(l).expect("response parses");
            let id = doc.get("id").unwrap().as_str().unwrap().to_owned();
            (id, doc)
        })
        .collect();
    (docs, counters)
}

#[test]
fn concurrent_mixed_decks_are_bit_identical_to_one_shot() {
    let families = families();
    let (clients, per_client) = (3, 10);
    let total = clients * per_client;

    // The embedded-parasitics family must exercise its options for real:
    // both islands extracted, both chains collapsed.
    let xt = families.iter().find(|f| f.name == "xtchain").unwrap();
    let xt_count = |key: &str| {
        xt.expected_counters
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap()
    };
    assert_eq!(xt_count("components_reduced"), 2.0);
    assert_eq!(xt_count("chains_collapsed"), 2.0);
    assert!(
        xt_count("nodes_eliminated") >= 50.0,
        "the 60-seg chain re-segments"
    );

    for workers in [1, 3] {
        let (docs, counters) = run_soak(&families, workers, clients, per_client);
        assert_eq!(docs.len(), total, "every request answered exactly once");
        for (id, doc) in &docs {
            let fam = families
                .iter()
                .find(|f| id.ends_with(f.name))
                .expect("id names its family");
            assert_eq!(
                doc.get("ok"),
                Some(&Value::Bool(true)),
                "{id} failed: {doc:?}"
            );
            // The numerics contract: byte-identical to one-shot rcfit.
            assert_eq!(
                doc.get("deck").unwrap().as_str().unwrap(),
                fam.expected_deck,
                "{id} (workers={workers}) drifted from the one-shot reduction"
            );
            // The telemetry contract: counters equal up to warmth.
            assert_eq!(
                counters_without_warmth(doc.get("telemetry").unwrap()),
                fam.expected_counters,
                "{id} (workers={workers}) counters depend on worker assignment"
            );
        }
        // Warmth accounting: same-topology decks share a shard, so each
        // family pays exactly one cold symbolic analysis per daemon.
        let hits = counters
            .session_hits
            .load(std::sync::atomic::Ordering::Relaxed);
        let misses = counters
            .session_misses
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(hits + misses, total as u64);
        assert_eq!(
            misses,
            families.len() as u64,
            "one miss per topology family (workers={workers})"
        );
        assert_eq!(
            counters.ok.load(std::sync::atomic::Ordering::Relaxed),
            total as u64
        );
        assert_eq!(counters.shed.load(std::sync::atomic::Ordering::Relaxed), 0);
    }
}
