//! `mult_sim`: the paper's payoff (Tables 1 and 3) — a multiplier-like
//! deck of inverter chains with tree RC parasitics, reduced with subnet
//! extraction at 500 MHz / 5 %, then simulated. Each rep simulates the
//! unreduced deck and runs the user's flow on the reduced one (reduce,
//! re-parse, compile, transient), and compares `v(out0)` between them.
//!
//! The array is 11 chains × 13 stages: there the reduced deck's simulator
//! LU fills in to 8× the unreduced deck's and it simulates ~35× slower,
//! against the paper's claim, while at the 8×12 Table 1 size it is still
//! faster. Larger arrays show the same at over 10 s per transient. The
//! reduction itself is milliseconds, so the `circuit` layer dominates.

use std::time::Instant;

use pact::json::Value;
use pact_circuit::{Circuit, TranResult};
use pact_gen::{multiplier_like_deck, MultiplierSpec};
use pact_netlist::ElementKind;
use pact_serve::DeckOptions;

use crate::calls::{load, reduce_deck, simulate};
use crate::gate::{corner_key, Reference};
use crate::report::{eigen_spread, Report, Samples};
use crate::trace::{SpanId, Tracer};
use crate::{more_set_ups, secs, Cfg, Rng};

const CORNERS: [f64; 3] = [0.99, 1.0, 1.01];
const OBSERVE: &str = "out0";
/// The recorded ceiling is this multiple of the worst error measured when
/// the reference was taken.
const CEILING_MARGIN: f64 = 1.25;

fn decks(smoke: bool) -> Vec<String> {
    let (chains, stages) = if smoke { (4, 6) } else { (11, 13) };
    let (base, _) = multiplier_like_deck(&MultiplierSpec {
        chains,
        stages,
        ..MultiplierSpec::scaled_down()
    });
    CORNERS
        .iter()
        .map(|&scale| {
            let mut deck = base.clone();
            for e in &mut deck.elements {
                if let ElementKind::Capacitor { farads, .. } = &mut e.kind {
                    *farads *= scale;
                }
            }
            deck.to_string()
        })
        .collect()
}

fn options() -> DeckOptions {
    DeckOptions {
        f_max: 500e6,
        tolerance: 0.05,
        threads: Some(1),
        extract: true,
        ..DeckOptions::default()
    }
}

/// A simulated deck and the seconds its transient took.
struct Sim {
    ckt: Circuit,
    tran: TranResult,
    seconds: f64,
}

fn sim(tr: &mut Tracer, root: SpanId, text: &str) -> Result<Sim, String> {
    let ckt = load(tr, root, text)?;
    let t = Instant::now();
    let tran = simulate(tr, root, &ckt)?;
    Ok(Sim {
        seconds: secs(t),
        ckt,
        tran,
    })
}

/// Worst `|v_b − v_a|` over `a`'s time points, `b` interpolated linearly.
fn max_deviation(ta: &[f64], va: &[f64], tb: &[f64], vb: &[f64]) -> f64 {
    let at = |x: f64| {
        let i = tb.partition_point(|&t| t < x);
        if i == 0 || i == tb.len() {
            return vb[i.min(tb.len() - 1)];
        }
        let f = (x - tb[i - 1]) / (tb[i] - tb[i - 1]);
        vb[i - 1] + f * (vb[i] - vb[i - 1])
    };
    ta.iter()
        .zip(va)
        .map(|(&t, &v)| (at(t) - v).abs())
        .fold(0.0, f64::max)
}

fn wave_err_mv(full: &Sim, red: &Sim) -> Result<f64, String> {
    let probe = |s: &Sim| s.tran.voltage(OBSERVE).ok_or(format!("no node {OBSERVE}"));
    let (vf, vr) = (probe(full)?, probe(red)?);
    Ok(1e3 * max_deviation(&full.tran.times, &vf, &red.tran.times, &vr))
}

fn sample_sim(s: &mut Samples, deck: &str, sim: &Sim) {
    let st = &sim.tran.stats;
    let lu = (st.factorizations + st.refactorizations).max(1) as f64;
    let mut add = |name: &str, unit, v: f64| s.add(&format!("circuit.{name}.{deck}"), unit, v);
    add("sim_s", "s", sim.seconds);
    add("ms_per_refactor", "ms", 1e3 * sim.seconds / lu);
    add("steps", "count", st.steps as f64);
    add("newton_iters", "count", st.newton_iterations as f64);
    add("factorizations", "count", st.factorizations as f64);
    add("refactorizations", "count", st.refactorizations as f64);
    add("peak_lu_nnz", "count", st.peak_factor_nnz as f64);
    add("nodes", "count", sim.ckt.device_counts().0 as f64);
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut input = Vec::new();
    while more_set_ups(&setup_s) {
        let t = Instant::now();
        input = decks(cfg.smoke);
        setup_s.push(secs(t));
    }
    let ceiling = Reference::load("mult_sim", cfg.smoke)
        .get("wave_err_ceiling_mv")
        .and_then(Value::as_f64);
    let opts = options();
    let mut order: Vec<usize> = (0..CORNERS.len()).collect();
    Rng::new(cfg.seed).shuffle(&mut order);

    let (mut deck_s, mut flow_s, mut elements, mut eigen) = (vec![], vec![], vec![], vec![]);
    let (mut ratio, mut worst) = (Vec::new(), 0.0f64);
    let mut samples = Samples::default();
    let window = tr.at(Instant::now());
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for &k in &order {
            let corner = corner_key(CORNERS[k]);
            let root = tr.begin("full", None);
            let full = sim(tr, root, &input[k]);
            tr.end(root);

            let root = tr.begin("flow", None);
            let t = Instant::now();
            let red = reduce_deck(tr, root, &input[k], &opts);
            let reduced_at = secs(t);
            let red_sim = red
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| sim(tr, root, &r.deck));
            let flow = secs(t);
            tr.end(root);

            let (full, red, red_sim) = match (full, red, red_sim) {
                (Ok(f), Ok(r), Ok(s)) => (f, r, s),
                (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                    rep.gate(Err(format!("corner {corner}: {e}")));
                    continue;
                }
            };
            let err = wave_err_mv(&full, &red_sim);
            if let Ok(e) = err {
                worst = worst.max(e);
            }
            rep.gate(match (err, ceiling) {
                (Ok(e), Some(c)) if e <= c => Ok(()),
                (Ok(e), Some(c)) => Err(format!(
                    "corner {corner}: v({OBSERVE}) off by {e:.3} mV (ceiling {c:.3})"
                )),
                (Ok(_), None) => Err("no recorded wave-error ceiling".to_owned()),
                (Err(e), _) => Err(format!("corner {corner}: {e}")),
            });
            deck_s.push(reduced_at);
            flow_s.push(flow);
            elements.push(red.elements as f64);
            eigen.push(red.tel.phase("eigen"));
            ratio.push(red_sim.seconds / full.seconds);
            red.tel.sample(&mut samples, 1);
            sample_sim(&mut samples, "full", &full);
            sample_sim(&mut samples, "reduced", &red_sim);
        }
        if start.elapsed() + pass.elapsed() > cfg.budget() {
            break;
        }
    }
    let window = (window, tr.at(Instant::now()));

    rep.e2e("setup_s", "s", &setup_s);
    rep.e2e("deck_s", "s", &deck_s);
    rep.e2e("flow_s", "s", &flow_s);
    let mean = elements.iter().sum::<f64>() / elements.len().max(1) as f64;
    rep.e2e("model_elements", "count", &[mean]);
    samples.into_report(&mut rep);
    rep.layer(
        "circuit.sim_ratio",
        "ratio",
        crate::stats::median(&ratio),
        ratio.len(),
    );
    rep.layer("circuit.wave_err_mv", "mV", worst, ratio.len());
    rep.layer(
        "lanczos.eigen_spread",
        "ratio",
        eigen_spread(&eigen),
        eigen.len(),
    );
    crate::traced_layers(&mut rep, tr, window);
    rep
}

/// The wave-error ceiling: a margin over the worst corner measured now.
pub fn reference(smoke: bool) -> Result<Value, String> {
    let mut tr = Tracer::new(false);
    let mut worst = 0.0f64;
    for deck in decks(smoke) {
        let full = sim(&mut tr, None, &deck)?;
        let red = reduce_deck(&mut tr, None, &deck, &options())?;
        worst = worst.max(wave_err_mv(&full, &sim(&mut tr, None, &red.deck)?)?);
    }
    Ok(Value::obj(vec![(
        "wave_err_ceiling_mv".into(),
        Value::num(CEILING_MARGIN * worst),
    )]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_interpolates_between_samples() {
        let (ta, va) = ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]);
        // b is a on a coarser grid, shifted up by 0.5 at t = 2.
        let (tb, vb) = ([0.0, 2.0], [0.0, 2.5]);
        assert!((max_deviation(&ta, &va, &tb, &vb) - 0.5).abs() < 1e-12);
        assert!((max_deviation(&ta, &va, &ta, &va)).abs() < 1e-12);
    }
}
