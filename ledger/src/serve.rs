//! `serve_mix`: an in-process `rcfitd` daemon (2 workers) fed by one
//! generator thread.
//!
//! Four warm deck families with 9 cap corners each — the `serve_load`
//! substrate mesh, the 20×20 power grid, the 800-segment inverter line,
//! and a 2000-segment chain deck sent with chain collapse — plus a cold
//! mesh with a fresh contact placement on every 10th request. Many small
//! decks make the dispatcher's inline parse and prepare and the warm
//! session cache matter; the cold decks add symbolic-analysis misses and
//! head-of-line blocking on their shard. After a warm-up, three phases
//! run: a back-to-back burst (capacity), then open loops at 50 and 100
//! requests per second, timed from each request's due time.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pact::json::Value;
use pact_gen::{
    chain_heavy_deck, inverter_pair_deck, network_to_elements, power_grid_deck, substrate_mesh,
    ChainDeckSpec, LineSpec, MeshSpec, PowerGridSpec,
};
use pact_netlist::{ElementKind, Netlist};
use pact_serve::{Daemon, DeckOptions, ReplySink, ServeConfig};

use crate::calls::reduce_deck;
use crate::report::{eigen_spread, Report, Samples, Tel};
use crate::stats::{median, open_loop, percentile, supported_percentile};
use crate::trace::{Tracer, IDLE};
use crate::{more_set_ups, secs, Cfg, Rng};

const WORKERS: usize = 2;
const CORNERS: usize = 9;
const COLD_EVERY: usize = 10;
/// Contact-placement seed of the first cold mesh; the k-th uses this + k.
const COLD_SEEDS: u64 = 1000;
/// Cold replies checked against a one-shot reduction of the same deck.
const COLD_SAMPLE: usize = 20;
/// One-shot passes over the warm decks, timed for `deck_s`.
const REF_BATCHES: usize = 3;
const RATES: [f64; 2] = [50.0, 100.0];
/// Telemetry phases the dispatcher runs inline; the rest is service time
/// on a worker.
const PREPARE_PHASES: [&str; 5] = ["parse", "flatten", "extract", "sanitize", "collapse_chains"];
/// A reply that takes longer than this is lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

struct Family {
    base: Netlist,
    /// What the daemon resolves the request's `options` to.
    opts: DeckOptions,
    options: Value,
}

fn mesh_spec(smoke: bool, seed: u64) -> MeshSpec {
    let (n, nz, contacts) = if smoke { (6, 2, 4) } else { (14, 4, 6) };
    MeshSpec {
        nx: n,
        ny: n,
        nz,
        num_contacts: contacts,
        num_wells: contacts / 2,
        seed,
        ..MeshSpec::table2()
    }
}

fn mesh_deck(spec: &MeshSpec) -> Netlist {
    Netlist {
        title: "* serve_mix substrate mesh".to_owned(),
        elements: network_to_elements(&substrate_mesh(spec), "m"),
        ..Netlist::default()
    }
}

fn families(smoke: bool) -> Vec<Family> {
    let (grid, taps, segments, chain) = if smoke {
        (6, 2, 20, 100)
    } else {
        (20, 4, 800, 2000)
    };
    let mesh = mesh_spec(smoke, MeshSpec::table2().seed);
    let ports: Vec<String> = (0..mesh.num_contacts).map(|k| format!("port{k}")).collect();
    let daemon_default = DeckOptions {
        threads: Some(1),
        ..DeckOptions::default()
    };
    let plain = |base: Netlist| Family {
        base,
        opts: daemon_default.clone(),
        options: Value::obj(vec![]),
    };
    vec![
        Family {
            base: mesh_deck(&mesh),
            opts: DeckOptions {
                extra_ports: ports.clone(),
                ..daemon_default.clone()
            },
            options: Value::obj(vec![(
                "ports".into(),
                Value::Arr(ports.iter().map(Value::str).collect()),
            )]),
        },
        plain(
            power_grid_deck(&PowerGridSpec {
                nx: grid,
                ny: grid,
                num_taps: taps,
                ..PowerGridSpec::default()
            })
            .netlist,
        ),
        plain(inverter_pair_deck(&LineSpec {
            segments,
            ..LineSpec::default()
        })),
        Family {
            base: chain_heavy_deck(&ChainDeckSpec {
                chains: 1,
                segments: chain,
                r_total: 250.0,
                c_total: 1.35e-12,
                taps: 0,
            }),
            opts: DeckOptions {
                extract: true,
                collapse_chains: true,
                chain_tol: 1e-4,
                ..daemon_default.clone()
            },
            options: Value::obj(vec![
                ("extract".into(), Value::Bool(true)),
                ("collapse_chains".into(), Value::Bool(true)),
                ("chain_tol".into(), Value::num(1e-4)),
            ]),
        },
    ]
}

/// Corner `k` of a family: same topology, capacitors scaled.
fn corner(base: &Netlist, k: usize) -> String {
    let scale = 1.0 + 0.03 * k as f64;
    let mut deck = base.clone();
    for e in &mut deck.elements {
        if let ElementKind::Capacitor { farads, .. } = &mut e.kind {
            *farads *= scale;
        }
    }
    deck.to_string()
}

/// A request line minus its opening `{"id":N,`.
fn tail(deck: &str, options: &Value) -> String {
    let body = Value::obj(vec![
        ("deck".into(), Value::str(deck)),
        ("options".into(), options.clone()),
    ])
    .render();
    body[1..].to_owned()
}

#[derive(Clone, Copy)]
enum Src {
    Warm(usize),
    /// Index into the cold decks.
    Cold(usize),
}

struct Inputs {
    fams: Vec<Family>,
    /// Deck text per warm deck, `family * CORNERS + corner`.
    warm: Vec<String>,
    warm_tails: Vec<String>,
    /// Request line tails of the cold decks, the k-th from contact seed
    /// `COLD_SEEDS + k`.
    cold_tails: Vec<String>,
    /// Requests of the burst, the 50/s and the 100/s phases.
    phases: [Vec<Src>; 3],
}

fn inputs(cfg: &Cfg) -> Inputs {
    let fams = families(cfg.smoke);
    let mut warm = Vec::new();
    let mut warm_tails = Vec::new();
    for f in &fams {
        for k in 0..CORNERS {
            let deck = corner(&f.base, k);
            warm_tails.push(tail(&deck, &f.options));
            warm.push(deck);
        }
    }
    let seconds = cfg.seconds as f64;
    let open = 0.35 * seconds;
    let sizes = [
        (25.0 * seconds) as usize,
        (RATES[0] * open) as usize,
        (RATES[1] * open) as usize,
    ];
    let mut rng = Rng::new(cfg.seed);
    let mut cold_tails = Vec::new();
    // Warm requests deal the warm decks out in shuffled rounds, so every
    // phase sends each about equally often and only the order is seeded.
    // The cold decks are the same on every run: about one in fifty contact
    // placements stalls Lanczos for ~25x the median, and a seeded draw would
    // make the number of stalls, and with it the backlog, vary by seed.
    let mut round: Vec<usize> = Vec::new();
    let mut i = 0;
    let phases = sizes.map(|n| {
        (0..n)
            .map(|_| {
                i += 1;
                if i % COLD_EVERY == 0 {
                    let seed = COLD_SEEDS + cold_tails.len() as u64;
                    cold_tails.push(tail(
                        &mesh_deck(&mesh_spec(cfg.smoke, seed)).to_string(),
                        &fams[0].options,
                    ));
                    return Src::Cold(cold_tails.len() - 1);
                }
                if round.is_empty() {
                    round = (0..warm.len()).collect();
                    rng.shuffle(&mut round);
                }
                Src::Warm(round.pop().expect("refilled"))
            })
            .collect()
    });
    Inputs {
        fams,
        warm,
        warm_tails,
        cold_tails,
        phases,
    }
}

/// The daemon plus the channel its replies arrive on, stamped on arrival.
struct Server {
    daemon: Daemon,
    sink: ReplySink,
    replies: Receiver<(Instant, String)>,
}

impl Server {
    /// Spawns the daemon and warms it with one request per warm deck.
    fn start(inputs: &Inputs, rep: &mut Report) -> Server {
        let daemon = Daemon::new(ServeConfig {
            workers: WORKERS,
            queue_cap: 4096,
            max_deck_bytes: 16 << 20,
            ..ServeConfig::default()
        });
        let (tx, replies) = channel();
        let tx = Mutex::new(tx);
        let sink: ReplySink = Arc::new(move |line: &str| {
            let sent = tx
                .lock()
                .expect("reply channel lock")
                .send((Instant::now(), line.to_owned()));
            // The receiver only goes away once the run is over.
            drop(sent);
        });
        for (w, body) in inputs.warm_tails.iter().enumerate() {
            daemon.submit(&format!("{{\"id\":{w},{body}"), &sink);
        }
        for _ in &inputs.warm_tails {
            let reply = replies.recv_timeout(REPLY_TIMEOUT);
            rep.gate(match reply {
                Ok((_, line)) => Reply::parse(&line).map(drop),
                Err(_) => Err("a warm-up reply never arrived".to_owned()),
            });
        }
        Server {
            daemon,
            sink,
            replies,
        }
    }
}

/// The parts of an `ok` reply the ledger reads.
struct Reply {
    id: usize,
    deck: String,
    session_hit: bool,
    queue_depth: f64,
    tel: Tel,
}

impl Reply {
    fn parse(line: &str) -> Result<Reply, String> {
        let v = Value::parse(line).map_err(|e| format!("unparsable reply: {e}"))?;
        let id = v.get("id").and_then(Value::as_f64).unwrap_or(-1.0);
        if v.get("ok") != Some(&Value::Bool(true)) {
            let err = v.get("error").map(Value::render).unwrap_or_default();
            return Err(format!("request {id} failed: {err}"));
        }
        Ok(Reply {
            id: id as usize,
            deck: v
                .get("deck")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned(),
            session_hit: v.get("session_hit") == Some(&Value::Bool(true)),
            queue_depth: v.get("queue_depth").and_then(Value::as_f64).unwrap_or(0.0),
            tel: v.get("telemetry").map(Tel::from_json).unwrap_or_default(),
        })
    }
}

/// One request as the generator saw it.
struct Req {
    src: Src,
    /// When its line was ready and the generator began to wait for `due`.
    ready: Instant,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    reply: Option<Answer>,
}

/// What is kept of a reply once it has been checked.
struct Answer {
    at: Instant,
    /// Worker time: the reply telemetry's phases outside the dispatcher.
    service: f64,
    /// Its telemetry phases in `Client::phase_log` (traced runs only).
    phases: Range<usize>,
}

/// The generator's side of the conversation. Replies are read and checked
/// as they arrive, while the generator waits for its next due time, so
/// they never pile up in memory.
struct Client<'a> {
    refs: &'a [Option<String>],
    /// Cold decks whose reply is checked against a one-shot reduction
    /// after the phases, and those replies' decks.
    sampled: Vec<bool>,
    held: Vec<Option<String>>,
    /// Telemetry phases of every reply as (name index, seconds), kept for
    /// traced runs in one log: a few owned strings per reply, kept alive,
    /// measurably slowed the dispatcher sharing this thread.
    keep_phases: bool,
    phase_names: Vec<String>,
    phase_log: Vec<(usize, f64)>,
    reqs: Vec<Req>,
    answered: usize,
    hits: usize,
    depth_max: f64,
    samples: Samples,
}

impl Client<'_> {
    fn read(&mut self, rep: &mut Report, at: Instant, line: &str) {
        self.answered += 1;
        let reply = match Reply::parse(line) {
            Ok(r) if r.id < self.reqs.len() => r,
            Ok(r) => return rep.gate(Err(format!("reply to unknown request {}", r.id))),
            Err(e) => return rep.gate(Err(e)),
        };
        let req = &mut self.reqs[reply.id];
        match req.src {
            Src::Warm(w) => rep.gate(same(self.refs[w].as_deref(), &reply.deck, || {
                format!("reply {}", reply.id)
            })),
            Src::Cold(c) if self.sampled[c] => self.held[c] = Some(reply.deck),
            Src::Cold(_) => rep.gate(Ok(())),
        }
        self.hits += usize::from(reply.session_hit);
        self.depth_max = self.depth_max.max(reply.queue_depth);
        reply.tel.sample(&mut self.samples, 1);
        let service = reply
            .tel
            .phases
            .iter()
            .filter(|(n, _)| !PREPARE_PHASES.contains(&n.as_str()))
            .fold(0.0, |a, (_, s)| a + s);
        let first = self.phase_log.len();
        for (name, secs) in reply.tel.phases.iter().filter(|_| self.keep_phases) {
            let k = match self.phase_names.iter().position(|n| n == name) {
                Some(k) => k,
                None => {
                    self.phase_names.push(name.clone());
                    self.phase_names.len() - 1
                }
            };
            self.phase_log.push((k, *secs));
        }
        req.reply = Some(Answer {
            at,
            service,
            phases: first..self.phase_log.len(),
        });
    }

    /// Sends `srcs`, back to back (`rate` = `None`) or on an open-loop
    /// schedule, and waits for every reply; returns the phase's wall time
    /// from its start to its last reply.
    fn phase(
        &mut self,
        rep: &mut Report,
        server: &Server,
        inputs: &Inputs,
        srcs: &[Src],
        rate: Option<f64>,
    ) -> f64 {
        let t0 = Instant::now();
        let start = t0 + Duration::from_millis(5);
        let first = self.reqs.len();
        let mut line = String::new();
        for (j, &src) in srcs.iter().enumerate() {
            let body = match src {
                Src::Warm(w) => &inputs.warm_tails[w],
                Src::Cold(c) => &inputs.cold_tails[c],
            };
            line.clear();
            line.push_str(&format!("{{\"id\":{},", first + j));
            line.push_str(body);
            let ready = Instant::now();
            let due = rate.map(|r| start + Duration::from_secs_f64(j as f64 / r));
            while let Some(wait) = due.and_then(|d| d.checked_duration_since(Instant::now())) {
                match server.replies.recv_timeout(wait) {
                    Ok((at, reply)) => self.read(rep, at, &reply),
                    Err(_) => break,
                }
            }
            let sent = Instant::now();
            server.daemon.submit(&line, &server.sink);
            // A burst request is due, and ready, when it is sent.
            self.reqs.push(Req {
                src,
                ready: due.map_or(sent, |_| ready),
                due: due.map_or(sent, |d| d.min(sent)),
                sent,
                submitted: Instant::now(),
                reply: None,
            });
        }
        while self.answered < self.reqs.len() {
            match server.replies.recv_timeout(REPLY_TIMEOUT) {
                Ok((at, reply)) => self.read(rep, at, &reply),
                Err(_) => {
                    let lost = self.reqs.len() - self.answered;
                    rep.gate(Err(format!("{lost} replies never arrived")));
                    self.answered = self.reqs.len();
                }
            }
        }
        let last = self.reqs[first..]
            .iter()
            .filter_map(|r| r.reply.as_ref().map(|a| a.at))
            .max();
        last.unwrap_or(t0)
            .saturating_duration_since(t0)
            .as_secs_f64()
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut ready: Option<(Inputs, Server)> = None;
    while more_set_ups(&setup_s) {
        if let Some((_, old)) = ready.take() {
            old.daemon.shutdown();
        }
        let t = Instant::now();
        let inputs = inputs(cfg);
        let server = Server::start(&inputs, &mut rep);
        setup_s.push(secs(t));
        ready = Some((inputs, server));
    }
    let (inputs, server) = ready.expect("set-up ran");

    // One-shot references: what a script calling `rcfit` per deck pays,
    // and the bytes every daemon reply must reproduce.
    let mut deck_s = Vec::new();
    let mut refs: Vec<Option<String>> = vec![None; inputs.warm.len()];
    let mut elements = Vec::new();
    let mut eigen: Vec<Vec<f64>> = vec![Vec::new(); inputs.fams.len()];
    for batch in 0..REF_BATCHES {
        let t = Instant::now();
        let outs: Vec<_> = inputs
            .warm
            .iter()
            .enumerate()
            .map(|(w, deck)| {
                reduce_deck(
                    &mut Tracer::new(false),
                    None,
                    deck,
                    &inputs.fams[w / CORNERS].opts,
                )
            })
            .collect();
        deck_s.push(secs(t) / outs.len() as f64);
        for (w, out) in outs.into_iter().enumerate() {
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    rep.gate(Err(format!("warm deck {w}: {e}")));
                    continue;
                }
            };
            if batch == 0 {
                elements.push(out.elements as f64);
                eigen[w / CORNERS].push(out.tel.phase("eigen"));
                refs[w] = Some(out.deck);
            } else {
                rep.gate(same(refs[w].as_deref(), &out.deck, || {
                    format!("one-shot of warm deck {w}")
                }));
            }
        }
    }

    let cold = inputs.cold_tails.len();
    let mut order: Vec<usize> = (0..cold).collect();
    Rng::new(cfg.seed ^ 0xc01d).shuffle(&mut order);
    let mut sampled = vec![false; cold];
    for &c in order.iter().take(COLD_SAMPLE) {
        sampled[c] = true;
    }
    let mut client = Client {
        refs: &refs,
        sampled,
        held: vec![None; cold],
        keep_phases: tr.is_on(),
        phase_names: Vec::new(),
        phase_log: Vec::new(),
        reqs: Vec::new(),
        answered: 0,
        hits: 0,
        depth_max: 0.0,
        samples: Samples::default(),
    };
    let window = tr.at(Instant::now());
    let mut bounds = vec![0];
    let mut walls = Vec::new();
    for (p, rate) in [None, Some(RATES[0]), Some(RATES[1])]
        .into_iter()
        .enumerate()
    {
        walls.push(client.phase(&mut rep, &server, &inputs, &inputs.phases[p], rate));
        bounds.push(client.reqs.len());
    }
    let window = (window, tr.at(Instant::now()));
    let counters = server.daemon.shutdown();

    // Everything below reads what the phases recorded; no clock runs.
    for c in (0..cold).filter(|&c| client.sampled[c]) {
        let deck = mesh_deck(&mesh_spec(cfg.smoke, COLD_SEEDS + c as u64)).to_string();
        let reference = reduce_deck(&mut Tracer::new(false), None, &deck, &inputs.fams[0].opts);
        rep.gate(reference.and_then(|r| {
            same(
                Some(&r.deck),
                client.held[c].as_deref().unwrap_or_default(),
                || format!("cold deck {c}"),
            )
        }));
    }

    rep.e2e("setup_s", "s", &setup_s);
    rep.e2e("deck_s", "s", &deck_s);
    let answered = |p: usize| -> Vec<(&Req, &Answer)> {
        client.reqs[bounds[p]..bounds[p + 1]]
            .iter()
            .filter_map(|r| r.reply.as_ref().map(|a| (r, a)))
            .collect()
    };
    let burst = answered(0);
    rep.layer(
        "serve.capacity_rps",
        "1/s",
        burst.len() as f64 / walls[0],
        burst.len(),
    );
    let mut flow = Vec::new();
    for (p, rate) in RATES.iter().enumerate().map(|(i, r)| (i + 1, r)) {
        let done = answered(p);
        let r = format!("r{rate}");
        let t0 = client.reqs[bounds[p]].due;
        let f = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
        let due: Vec<f64> = done.iter().map(|(q, _)| f(q.due)).collect();
        let went: Vec<f64> = done.iter().map(|(q, _)| f(q.sent)).collect();
        let back: Vec<f64> = done.iter().map(|(_, a)| f(a.at)).collect();
        let (lat, late) = open_loop(&due, &went, &back);
        let lat_ms: Vec<f64> = lat.iter().map(|x| 1e3 * x).collect();
        let n = lat_ms.len();
        rep.layer(&format!("serve.lat_p50_ms.{r}"), "ms", median(&lat_ms), n);
        rep.layer(
            &format!("serve.lat_p90_ms.{r}"),
            "ms",
            percentile(&lat_ms, 90.0),
            n,
        );
        if let Some(top) = supported_percentile(n).filter(|&top| top > 90.0) {
            rep.layer(
                &format!("serve.lat_p{top}_ms.{r}"),
                "ms",
                percentile(&lat_ms, top),
                n,
            );
        }
        rep.layer(&format!("serve.gen_late_ms.{r}"), "ms", 1e3 * late, n);
        if p == RATES.len() {
            let queue_ms: Vec<f64> = done
                .iter()
                .map(|(q, a)| {
                    let total = a.at.saturating_duration_since(q.due).as_secs_f64();
                    let before = q.submitted.saturating_duration_since(q.due).as_secs_f64();
                    1e3 * (total - before - a.service).max(0.0)
                })
                .collect();
            rep.layer("serve.queue_ms.p50", "ms", median(&queue_ms), n);
            rep.layer("serve.queue_ms.p90", "ms", percentile(&queue_ms, 90.0), n);
            let busy: f64 = done.iter().map(|(_, a)| a.service).sum();
            rep.layer(
                "serve.worker_util",
                "ratio",
                busy / (WORKERS as f64 * walls[p]),
                n,
            );
            flow = lat;
        }
    }
    rep.e2e("flow_s", "s", &flow);
    let mean = elements.iter().sum::<f64>() / elements.len().max(1) as f64;
    rep.e2e("model_elements", "count", &[mean]);

    let all: Vec<(&Req, &Answer)> = (0..walls.len()).flat_map(answered).collect();
    let n = all.len();
    let dispatch: Vec<f64> = all
        .iter()
        .map(|(q, _)| q.submitted.duration_since(q.sent).as_secs_f64())
        .collect();
    let service: Vec<f64> = all.iter().map(|(_, a)| a.service).collect();
    let cold_service: Vec<f64> = all
        .iter()
        .filter(|(q, _)| matches!(q.src, Src::Cold(_)))
        .map(|(_, a)| a.service)
        .collect();
    rep.layer("serve.dispatch_s", "s", median(&dispatch), n);
    rep.layer(
        "serve.dispatch_ms.p90",
        "ms",
        1e3 * percentile(&dispatch, 90.0),
        n,
    );
    rep.layer("serve.service_ms.p50", "ms", 1e3 * median(&service), n);
    rep.layer(
        "serve.service_ms.p90",
        "ms",
        1e3 * percentile(&service, 90.0),
        n,
    );
    rep.layer(
        "serve.cold_service_ms.p50",
        "ms",
        1e3 * median(&cold_service),
        cold_service.len(),
    );
    rep.layer("serve.queue_depth_max", "count", client.depth_max, n);
    rep.layer(
        "serve.hit_rate",
        "ratio",
        client.hits as f64 / n.max(1) as f64,
        n,
    );
    let load =
        |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;
    rep.layer("serve.shed", "count", load(&counters.shed), 1);
    rep.layer("serve.errors", "count", load(&counters.errors), 1);
    let spread = eigen.iter().map(|e| eigen_spread(e)).fold(0.0, f64::max);
    rep.layer("lanczos.eigen_spread", "ratio", spread, inputs.warm.len());

    if tr.is_on() {
        for (q, a) in &all {
            let (due, went, back) = (tr.at(q.due), tr.at(q.sent), tr.at(a.at));
            if went > tr.at(q.ready) {
                tr.record(IDLE, tr.at(q.ready), went, None);
            }
            let root = tr.record("serve.request", due, back, None);
            if went > due {
                tr.record("bench.gen_late", due, went, root);
            }
            let (prep, work): (Vec<_>, Vec<_>) = client.phase_log[a.phases.clone()]
                .iter()
                .map(|&(k, secs)| (client.phase_names[k].clone(), secs))
                .partition(|(n, _)| PREPARE_PHASES.contains(&n.as_str()));
            let submit = tr.record("serve.submit", went, tr.at(q.submitted), root);
            tr.phases(submit, &prep, went);
            // The worker's phases end where its reply arrives.
            let service = tr.record("serve.service", back - a.service, back, root);
            tr.phases(service, &work, back - a.service);
        }
    }
    client.samples.into_report(&mut rep);
    crate::traced_layers(&mut rep, tr, window);
    rep
}

fn same(reference: Option<&str>, got: &str, what: impl FnOnce() -> String) -> Result<(), String> {
    match reference {
        Some(r) if r == got => Ok(()),
        Some(_) => Err(format!("{} differs from the one-shot reduction", what())),
        None => Err(format!("{} has no one-shot reference", what())),
    }
}
