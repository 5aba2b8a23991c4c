//! Counts the heap allocations of the deck text's two ends: writing a
//! reduced deck and parsing one.
//!
//! The render walk writes each reduced model straight from its realized
//! matrices into the output text, so its allocations do not grow with
//! the model's size: two matrices and the room for the text, per model.
//! The parser interns node names, so an N-card R/C deck costs one
//! allocation per card (its name) plus one per distinct node, plus the
//! logarithmic growth of its vectors and tables. A counting global
//! allocator, counting per thread, checks both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pact::{ReducedModel, ReductionSession};
use pact_gen::{network_to_elements, substrate_mesh, MeshSpec};
use pact_netlist::{parse, Element, Netlist};
use pact_serve::{prepare_deck, reduce_prepared, render_reduced, DeckOptions};
use pact_sparse::DMat;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations (and
/// reallocations) it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A dense `m`-port model with `k` poles, every entry nonzero.
fn model(m: usize, k: usize) -> ReducedModel {
    let mut a1 = DMat::zeros(m, m);
    let mut b1 = DMat::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            let near = 1.0 / (1.0 + i.abs_diff(j) as f64);
            a1[(i, j)] = if i == j { 1e-2 } else { -1e-5 * near };
            b1[(i, j)] = if i == j { 1e-12 } else { -1e-15 * near };
        }
    }
    let mut r2 = DMat::zeros(k, m);
    for p in 0..k {
        for j in 0..m {
            r2[(p, j)] = -1e-9 * (1.0 + ((p * 7 + j * 3) % 11) as f64);
        }
    }
    ReducedModel {
        a1,
        b1,
        r2,
        lambdas: (0..k).map(|p| 1e-10 / (1.0 + p as f64)).collect(),
        port_names: (0..m).map(|j| format!("port{j}")).collect(),
    }
}

#[test]
fn an_element_is_at_most_88_bytes() {
    assert!(
        std::mem::size_of::<Element>() <= 88,
        "Element is {} bytes",
        std::mem::size_of::<Element>()
    );
}

#[test]
fn writing_a_model_allocates_the_same_at_every_size() {
    let mut counts = Vec::new();
    for m in [100, 200] {
        let model = model(m, 5);
        let mut text = String::new();
        let (elements, n) = allocations(|| model.write_cards(&mut text, "rcfit", 0.0));
        assert!(elements >= m * m, "{elements} elements from {m} ports");
        counts.push(n);
    }
    // Two matrices and the room for the text, whatever the port count.
    assert!(counts.iter().all(|&n| n <= 4), "allocations {counts:?}");
    assert_eq!(counts[0], counts[1], "allocations grow with the model");
}

#[test]
fn rendering_a_100_port_deck_allocates_o1_per_model() {
    let spec = MeshSpec {
        nx: 14,
        ny: 14,
        nz: 3,
        num_contacts: 100,
        ..MeshSpec::table2()
    };
    let net = substrate_mesh(&spec);
    let ports = net.node_names[..net.num_ports].to_vec();
    let deck = Netlist {
        title: "mesh".to_owned(),
        elements: network_to_elements(&net, "m"),
        ..Netlist::default()
    }
    .to_string();
    let opts = DeckOptions {
        threads: Some(1),
        extra_ports: ports,
        ..DeckOptions::default()
    };
    let prep = prepare_deck(&deck, &opts).unwrap();
    assert_eq!(prep.network.num_ports, 100);
    let mut session = ReductionSession::new(opts.reduce_options().unwrap());
    let red = reduce_prepared(&prep, &mut session, &opts).unwrap();
    let mut tel = pact::Telemetry::new();
    let ((text, elements), n) =
        allocations(|| render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel));
    assert!(elements >= 5000, "{elements} elements");
    assert!(text.len() > 100_000);
    // One model: its two matrices and its text, plus the walk's few
    // fixed buffers (the prefixed model list, built twice; the prefix
    // and a pole-name buffer of the clash check; the telemetry phase).
    assert!(n <= 14, "{n} allocations for {elements} elements");
}

#[test]
fn parsing_an_rc_deck_allocates_once_per_card_and_node() {
    let spec = MeshSpec {
        nx: 24,
        ny: 24,
        nz: 4,
        num_contacts: 16,
        ..MeshSpec::table2()
    };
    let net = substrate_mesh(&spec);
    let deck = Netlist {
        title: "mesh".to_owned(),
        elements: network_to_elements(&net, "m"),
        ..Netlist::default()
    }
    .to_string();
    let (nl, n) = allocations(|| parse(&deck).unwrap());
    let cards = nl.elements.len();
    // Every node plus ground, each allocated once.
    let nodes = nl.node_names().len() + 1;
    assert!(cards > 5000);
    // The rest is the title and the doubling of the element vector and
    // the node table: logarithmic, far under 64.
    assert!(
        n <= cards + nodes + 64,
        "{n} allocations for {cards} cards over {nodes} nodes"
    );
}
