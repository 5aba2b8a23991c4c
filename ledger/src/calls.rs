//! The public calls the ledger times, each wrapped in a bench-side span:
//! the `pact-serve` deck pipeline, the netlist parser, and the simulator.

use pact::ReductionSession;
use pact_circuit::{Circuit, TranResult};
use pact_netlist::parse;
use pact_serve::{prepare_deck, reduce_prepared, render_reduced, DeckOptions, ReducedDeck};

use crate::report::Tel;
use crate::trace::{SpanId, Tracer};

/// Transient analysis of the simulated decks: 50 ps steps to 10 ns.
pub const TSTEP: f64 = 50e-12;
pub const TSTOP: f64 = 10e-9;

/// One deck taken from text to reduced text.
pub struct Reduced {
    pub deck: String,
    /// Realized R and C elements.
    pub elements: usize,
    /// Retained poles of every reduced model, in model order.
    pub lambdas: Vec<f64>,
    pub tel: Tel,
    /// The reducer's modelled peak memory, for whole-network reductions.
    pub modelled_mb: Option<f64>,
}

/// Hangs a call's telemetry phases under its (closed) span.
fn attach(tr: &mut Tracer, span: SpanId, tel: &pact::Telemetry) {
    if let Some(i) = span {
        let from = tr.spans()[i].start;
        tr.phases(span, &Tel::of(tel).phases, from);
    }
}

/// What one `rcfit` call does: `prepare_deck`, `reduce_prepared` in a
/// fresh session, `render_reduced`.
pub fn reduce_deck(
    tr: &mut Tracer,
    parent: SpanId,
    text: &str,
    opts: &DeckOptions,
) -> Result<Reduced, String> {
    let ropts = opts.reduce_options().map_err(|e| e.to_string())?;

    let span = tr.begin("serve.prepare_deck", parent);
    let prep = prepare_deck(text, opts);
    tr.end(span);
    let prep = prep.map_err(|e| format!("prepare_deck: {e}"))?;
    attach(tr, span, &prep.telemetry);

    let span = tr.begin("serve.reduce_prepared", parent);
    let mut session = ReductionSession::new(ropts);
    let red = reduce_prepared(&prep, &mut session, opts);
    tr.end(span);
    let red = red.map_err(|e| format!("reduce_prepared: {e}"))?;
    let rtel = red.telemetry();
    attach(tr, span, &rtel);

    let span = tr.begin("serve.render_reduced", parent);
    let mut etel = pact::Telemetry::new();
    let (deck, elements) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut etel);
    tr.end(span);
    attach(tr, span, &etel);

    let mut tel = prep.telemetry;
    tel.absorb(&rtel);
    tel.absorb(&etel);
    let (lambdas, modelled_mb) = match &red {
        ReducedDeck::Whole(r) => (
            r.model.lambdas.clone(),
            Some(r.stats.modelled_memory_bytes as f64 / 1e6),
        ),
        ReducedDeck::Components { reduction, .. } => (
            reduction
                .reductions
                .iter()
                .flat_map(|r| r.model.lambdas.iter().copied())
                .collect(),
            None,
        ),
    };
    Ok(Reduced {
        deck,
        elements,
        lambdas,
        tel: Tel::of(&tel),
        modelled_mb,
    })
}

/// Parses deck text and compiles it for simulation.
pub fn load(tr: &mut Tracer, parent: SpanId, text: &str) -> Result<Circuit, String> {
    let span = tr.begin("netlist.parse", parent);
    let nl = parse(text);
    tr.end(span);
    let nl = nl.map_err(|e| format!("parse: {e}"))?;
    let span = tr.begin("circuit.from_netlist", parent);
    let ckt = Circuit::from_netlist(&nl);
    tr.end(span);
    ckt.map_err(|e| format!("compile: {e}"))
}

pub fn simulate(tr: &mut Tracer, parent: SpanId, ckt: &Circuit) -> Result<TranResult, String> {
    let span = tr.begin("circuit.transient", parent);
    let out = ckt
        .transient(TSTEP, TSTOP)
        .map_err(|e| format!("transient: {e}"));
    tr.end(span);
    out
}
