//! The daemon core: topology-sharded dispatch, per-worker warm session
//! pools, bounded queues with typed shedding, and serve counters.
//!
//! ```text
//!            submit(line)                    worker k
//!   client ──────────────▶ dispatcher ──┬──▶ [bounded queue] ──▶ warm
//!                          parse/prepare│        try_send        sessions
//!                          shard = key%W└──▶ overloaded when full  (LRU)
//! ```
//!
//! The dispatcher runs the deterministic front half of the pipeline
//! (request JSON → parse → flatten → extract → sanitize) inline, because
//! the shard key is the FNV-1a fingerprint of the sanitized topology — it
//! cannot be known before sanitization. The back half (ordering,
//! factorization, eigen analysis, render) runs on the shard's worker,
//! which is where warmth lives: same-topology decks always land on the
//! same worker and hit its cached symbolic analysis.
//!
//! The front half is not free, and it is serial. Measured in process on
//! the `serve_mix` benchmark decks (1 thread, 2-CPU Xeon; each figure is
//! the median of three alternating runs, each run the median of 59
//! requests over 9 corners), dispatch against warm service time:
//!
//! | family | dispatch before → after | service |
//! |---|---|---|
//! | 14×14×4 substrate mesh | 6.7 → 2.7 ms | 4.4 ms |
//! | 20×20 power grid | 3.4 → 1.2 ms | 1.4 ms |
//! | 800-segment line | 4.3 → 1.7 ms | 1.2 ms |
//! | 2,000-segment chain, collapsed | 12.9 → 4.6 ms | 0.6 ms |
//!
//! "Before" copied every token and keyed nodes by owned `String`s;
//! "after" borrows both from the request text. The chain still
//! dispatches slower than it serves: its collapse pre-pass leaves the
//! worker almost nothing to do.
//!
//! Workers never share sessions, so [`pact::ReductionSession`] needs
//! `Send` but not `Sync` — each worker owns its scratch exclusively
//! (pinned by the compile-time assertions in `pact::session`).

use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use pact::json::Value;
use pact::{LruCache, ReduceOptions, ReductionSession};

use crate::pipeline::{prepare_deck, reduce_prepared, render_reduced, DeckOptions, PreparedDeck};
use crate::protocol::{
    self, error_response, parse_request, reduce_response, shutdown_response, stats_response,
    DeckSource, Op, ProtocolError,
};

/// Daemon sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads (shards).
    pub workers: usize,
    /// Bounded queue slots per worker; a full queue sheds.
    pub queue_cap: usize,
    /// Warm [`ReductionSession`]s kept per worker (LRU beyond this).
    pub sessions_per_worker: usize,
    /// Symbolic-analysis patterns cached inside each session.
    pub patterns_per_session: usize,
    /// Cap on a request's deck text (bytes), inline or read from a
    /// `path`; a larger deck is answered `deck_too_large`.
    pub max_deck_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        ServeConfig {
            workers,
            queue_cap: 64,
            sessions_per_worker: 8,
            patterns_per_session: 64,
            max_deck_bytes: protocol::DEFAULT_MAX_DECK_BYTES,
        }
    }
}

/// Monotonic serve counters, shared across dispatcher and workers.
///
/// All loads/stores are `Relaxed`: these are statistics, not
/// synchronization — cross-thread ordering is established by the
/// channels, and the final read happens after worker joins.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Request lines accepted by the dispatcher.
    pub requests: AtomicU64,
    /// Successful reduce responses.
    pub ok: AtomicU64,
    /// Typed error responses (protocol or reduction failures).
    pub errors: AtomicU64,
    /// Requests shed with `overloaded` because a shard's queue was full.
    pub shed: AtomicU64,
    /// Reductions that fully reused a warm symbolic analysis.
    pub session_hits: AtomicU64,
    /// Reductions that had to run at least one fresh symbolic analysis.
    pub session_misses: AtomicU64,
    /// Warm sessions evicted from a worker's LRU pool.
    pub sessions_evicted: AtomicU64,
    /// Worker panics caught (the worker survives; its pool is reset).
    pub worker_panics: AtomicU64,
    /// Client connections that died with responses still in flight.
    pub disconnects: AtomicU64,
    /// Highest queue depth observed on any single worker.
    pub peak_queue_depth: AtomicU64,
}

impl ServeCounters {
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, AtomicOrdering::Relaxed);
    }

    fn bump_peak(&self, depth: u64) {
        self.peak_queue_depth
            .fetch_max(depth, AtomicOrdering::Relaxed);
    }

    /// A deterministic JSON object of the current counter values.
    pub fn to_json(&self) -> Value {
        let g = |c: &AtomicU64| Value::num(c.load(AtomicOrdering::Relaxed) as f64);
        Value::obj(vec![
            ("requests".to_owned(), g(&self.requests)),
            ("ok".to_owned(), g(&self.ok)),
            ("errors".to_owned(), g(&self.errors)),
            ("shed".to_owned(), g(&self.shed)),
            ("session_hits".to_owned(), g(&self.session_hits)),
            ("session_misses".to_owned(), g(&self.session_misses)),
            ("sessions_evicted".to_owned(), g(&self.sessions_evicted)),
            ("worker_panics".to_owned(), g(&self.worker_panics)),
            ("disconnects".to_owned(), g(&self.disconnects)),
            ("peak_queue_depth".to_owned(), g(&self.peak_queue_depth)),
        ])
    }
}

/// Where a response line goes: stdout, a socket, or a test collector.
/// Called exactly once per request, from the dispatcher (rejects, stats,
/// sheds) or from a worker (reduce results).
pub type ReplySink = Arc<dyn Fn(&str) + Send + Sync>;

/// One unit of work handed to a shard.
struct Job {
    id: Value,
    opts: DeckOptions,
    ropts: ReduceOptions,
    prep: PreparedDeck,
    /// Jobs already queued ahead of this one at enqueue time.
    queue_depth: u64,
    reply: ReplySink,
}

/// What [`Daemon::submit`] tells the transport loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submission {
    /// Keep reading requests.
    Handled,
    /// A shutdown was acknowledged: stop reading, drain, exit.
    Shutdown,
}

struct WorkerHandle {
    tx: SyncSender<Job>,
    depth: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

/// The sharded reduction daemon. Transport-agnostic: feed it request
/// lines via [`Daemon::submit`] from any front end ([`crate::io`] wires
/// stdin and Unix sockets).
pub struct Daemon {
    cfg: ServeConfig,
    counters: Arc<ServeCounters>,
    workers: Vec<WorkerHandle>,
}

// Clients submit from many transport threads at once; the dispatcher
// must be shareable by reference. Workers own their sessions privately,
// so only the handle side needs `Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Daemon>();
    assert_send_sync::<ServeCounters>();
};

impl Daemon {
    /// Spawns the worker pool.
    pub fn new(cfg: ServeConfig) -> Daemon {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap.max(1),
            sessions_per_worker: cfg.sessions_per_worker.max(1),
            patterns_per_session: cfg.patterns_per_session.max(1),
            ..cfg
        };
        let counters = Arc::new(ServeCounters::default());
        let workers = (0..cfg.workers)
            .map(|w| {
                let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(cfg.queue_cap);
                let depth = Arc::new(AtomicU64::new(0));
                let worker_depth = Arc::clone(&depth);
                let worker_counters = Arc::clone(&counters);
                let handle = std::thread::Builder::new()
                    .name(format!("rcfitd-worker-{w}"))
                    .spawn(move || worker_loop(w, rx, worker_depth, worker_counters, cfg))
                    .expect("spawn rcfitd worker");
                WorkerHandle { tx, depth, handle }
            })
            .collect();
        Daemon {
            cfg,
            counters,
            workers,
        }
    }

    /// Number of shards.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared counters.
    pub fn counters(&self) -> &Arc<ServeCounters> {
        &self.counters
    }

    /// Current per-worker queue depths.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.workers
            .iter()
            .map(|w| w.depth.load(AtomicOrdering::Relaxed))
            .collect()
    }

    /// Handles one request line: parses, validates, and either answers
    /// directly (errors, stats, shutdown) or prepares the deck and
    /// enqueues it on its topology shard. Exactly one response line is
    /// sent through `reply` per non-empty line (possibly later, from a
    /// worker).
    pub fn submit(&self, line: &str, reply: &ReplySink) -> Submission {
        if line.trim().is_empty() {
            return Submission::Handled;
        }
        ServeCounters::bump(&self.counters.requests);
        let req = match parse_request(line, self.cfg.max_deck_bytes) {
            Ok(req) => req,
            Err(ProtocolError { id, code, message }) => {
                ServeCounters::bump(&self.counters.errors);
                reply(&error_response(&id, code, &message));
                return Submission::Handled;
            }
        };
        match req.op {
            Op::Stats => {
                let depths: Vec<Value> = self
                    .queue_depths()
                    .into_iter()
                    .map(|d| Value::num(d as f64))
                    .collect();
                let stats = Value::obj(vec![
                    ("workers".to_owned(), Value::num(self.num_workers() as f64)),
                    ("queue_depths".to_owned(), Value::Arr(depths)),
                    ("counters".to_owned(), self.counters.to_json()),
                ]);
                reply(&stats_response(&req.id, stats));
                Submission::Handled
            }
            Op::Shutdown => {
                reply(&shutdown_response(&req.id));
                Submission::Shutdown
            }
            Op::Reduce => {
                self.submit_reduce(req, reply);
                Submission::Handled
            }
        }
    }

    fn submit_reduce(&self, req: crate::protocol::Request, reply: &ReplySink) {
        let id = req.id;
        let fail = |code: &str, message: &str| {
            ServeCounters::bump(&self.counters.errors);
            reply(&error_response(&id, code, message));
        };
        let max = self.cfg.max_deck_bytes;
        let text = match req.source.expect("reduce requests carry a source") {
            DeckSource::Inline(text) => text,
            DeckSource::Path(path) => match read_capped(&path, max) {
                Ok(Some(text)) => text,
                Ok(None) => {
                    let message =
                        format!("deck file {path} is over {max} bytes, this daemon's cap");
                    return fail("deck_too_large", &message);
                }
                Err(e) => return fail("io", &format!("{path}: {e}")),
            },
        };
        let ropts = match req.options.reduce_options() {
            Ok(o) => o,
            Err(e) => return fail(e.code(), &e.to_string()),
        };
        // The front half runs inline: the shard key is the fingerprint
        // of the *sanitized* topology, so routing needs it. A panic here
        // would end the dispatcher, and with it every later request, so
        // it costs this request an `internal` reply instead.
        let prep = match catch_unwind(AssertUnwindSafe(|| prepare_deck(&text, &req.options))) {
            Ok(Ok(p)) => p,
            Ok(Err(e)) => return fail(e.code(), &e.to_string()),
            Err(_) => return fail("internal", "deck preparation panicked"),
        };
        let shard = (prep.topology_key() % self.workers.len() as u64) as usize;
        let worker = &self.workers[shard];
        // Count the slot *before* try_send: the worker decrements after
        // dequeue, so incrementing afterwards could race below zero.
        let depth = worker.depth.fetch_add(1, AtomicOrdering::Relaxed) + 1;
        self.counters.bump_peak(depth);
        let job = Job {
            id: id.clone(),
            opts: req.options,
            ropts,
            prep,
            queue_depth: depth - 1,
            reply: Arc::clone(reply),
        };
        match worker.tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                worker.depth.fetch_sub(1, AtomicOrdering::Relaxed);
                ServeCounters::bump(&self.counters.shed);
                reply(&error_response(
                    &id,
                    "overloaded",
                    &format!(
                        "worker {shard} queue is full ({} queued); retry later",
                        self.cfg.queue_cap
                    ),
                ));
            }
            Err(TrySendError::Disconnected(_)) => {
                worker.depth.fetch_sub(1, AtomicOrdering::Relaxed);
                fail("internal", &format!("worker {shard} is gone"));
            }
        }
    }

    /// Drains every queue (jobs already accepted still get responses)
    /// and joins the workers. Returns the final counters.
    pub fn shutdown(self) -> Arc<ServeCounters> {
        let Daemon {
            counters, workers, ..
        } = self;
        for w in workers {
            drop(w.tx); // close the queue: the worker drains, then exits
            let _ = w.handle.join();
        }
        counters
    }
}

/// Reads the file at `path` if it holds at most `max` bytes (`None` if
/// it holds more), reading no more than `max + 1` bytes either way.
fn read_capped(path: &str, max: usize) -> std::io::Result<Option<String>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?
        .take((max as u64).saturating_add(1))
        .read_to_end(&mut bytes)?;
    if bytes.len() > max {
        return Ok(None);
    }
    String::from_utf8(bytes).map(Some).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

fn worker_loop(
    worker_id: usize,
    rx: Receiver<Job>,
    depth: Arc<AtomicU64>,
    counters: Arc<ServeCounters>,
    cfg: ServeConfig,
) {
    let mut sessions: LruCache<String, ReductionSession> = LruCache::new(cfg.sessions_per_worker);
    while let Ok(job) = rx.recv() {
        depth.fetch_sub(1, AtomicOrdering::Relaxed);
        let Job {
            id,
            opts,
            ropts,
            prep,
            queue_depth,
            reply,
        } = job;
        let line = match catch_unwind(AssertUnwindSafe(|| {
            run_job(
                worker_id,
                &mut sessions,
                &cfg,
                &counters,
                &id,
                &opts,
                ropts,
                prep,
                queue_depth,
            )
        })) {
            Ok(line) => line,
            Err(_) => {
                // A panic may have left a session mid-mutation; reset the
                // pool so later requests never see poisoned warm state.
                ServeCounters::bump(&counters.worker_panics);
                ServeCounters::bump(&counters.errors);
                sessions = LruCache::new(cfg.sessions_per_worker);
                error_response(
                    &id,
                    "internal",
                    "worker panicked during reduction; its warm sessions were reset",
                )
            }
        };
        reply(&line);
    }
}

/// Runs one reduce job on its shard's warm session and renders the
/// response line.
#[allow(clippy::too_many_arguments)]
fn run_job(
    worker_id: usize,
    sessions: &mut LruCache<String, ReductionSession>,
    cfg: &ServeConfig,
    counters: &ServeCounters,
    id: &Value,
    opts: &DeckOptions,
    ropts: ReduceOptions,
    prep: PreparedDeck,
    queue_depth: u64,
) -> String {
    let key = opts.session_key();
    let fresh = sessions.peek(&key).is_none();
    if fresh {
        let fresh = ReductionSession::with_capacity(ropts, cfg.patterns_per_session);
        if sessions.insert(key.clone(), fresh).is_some() {
            ServeCounters::bump(&counters.sessions_evicted);
        }
    }
    let session = sessions
        .get_mut(&key)
        .expect("session was just ensured present");
    match reduce_prepared(&prep, session, opts) {
        Err(e) => {
            ServeCounters::bump(&counters.errors);
            error_response(id, e.code(), &e.to_string())
        }
        Ok(red) => {
            let rtel = red.telemetry();
            // Fully warm means an existing session and no fresh
            // symbolic analysis anywhere in the request (components
            // without internal nodes factor nothing).
            let hit = !fresh && rtel.counters.factorizations == 0;
            ServeCounters::bump(if hit {
                &counters.session_hits
            } else {
                &counters.session_misses
            });
            let mut tel = prep.telemetry.clone();
            tel.absorb(&rtel);
            let (deck_text, _elements) =
                render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel);
            ServeCounters::bump(&counters.ok);
            reduce_response(id, worker_id, hit, queue_depth, &deck_text, tel.to_json())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A sink that collects response lines for assertions.
    fn collector() -> (ReplySink, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: ReplySink = Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_owned());
        });
        (sink, lines)
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 4,
            sessions_per_worker: 2,
            patterns_per_session: 8,
            max_deck_bytes: 1 << 20,
        }
    }

    const DECK: &str = "* ladder\\nR1 in n1 1k\\nR2 n1 out 1k\\nC1 n1 0 1p\\nC2 out 0 1p\\nV1 in 0 1\\nRL out 0 10k\\n.end\\n";

    fn reduce_line(id: u32) -> String {
        format!(r#"{{"id":{id},"deck":"{DECK}"}}"#)
    }

    #[test]
    fn reduce_then_stats_then_shutdown() {
        let daemon = Daemon::new(test_config());
        let (sink, lines) = collector();
        assert_eq!(daemon.submit(&reduce_line(1), &sink), Submission::Handled);
        assert_eq!(daemon.submit(&reduce_line(2), &sink), Submission::Handled);
        assert_eq!(
            daemon.submit(r#"{"id":"bye","op":"shutdown"}"#, &sink),
            Submission::Shutdown
        );
        let counters = daemon.shutdown();
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 3, "every request got exactly one response");
        // Worker responses may land after the shutdown ack; find by id.
        let r1 = lines
            .iter()
            .map(|l| Value::parse(l).unwrap())
            .find(|d| d.get("id") == Some(&Value::num(1.0)))
            .expect("response for id 1");
        assert_eq!(r1.get("ok"), Some(&Value::Bool(true)));
        assert!(r1.get("deck").unwrap().as_str().unwrap().contains("V1"));
        assert_eq!(counters.ok.load(AtomicOrdering::Relaxed), 2);
        assert_eq!(counters.requests.load(AtomicOrdering::Relaxed), 3);
        // Same deck twice: the second reduction reuses the warm analysis.
        assert_eq!(counters.session_hits.load(AtomicOrdering::Relaxed), 1);
        assert_eq!(counters.session_misses.load(AtomicOrdering::Relaxed), 1);
    }

    #[test]
    fn protocol_errors_are_answered_inline() {
        let daemon = Daemon::new(test_config());
        let (sink, lines) = collector();
        daemon.submit("{not json", &sink);
        daemon.submit(r#"{"id":9,"options":{"bogus":1},"deck":"x"}"#, &sink);
        let lines_now = lines.lock().unwrap().clone();
        assert_eq!(lines_now.len(), 2, "rejects answered without a worker");
        let codes: Vec<String> = lines_now
            .iter()
            .map(|l| {
                Value::parse(l)
                    .unwrap()
                    .get("error")
                    .unwrap()
                    .get("code")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(codes, vec!["bad_request", "unknown_option"]);
        let counters = daemon.shutdown();
        assert_eq!(counters.errors.load(AtomicOrdering::Relaxed), 2);
    }

    #[test]
    fn empty_lines_are_skipped_without_response() {
        let daemon = Daemon::new(test_config());
        let (sink, lines) = collector();
        assert_eq!(daemon.submit("   ", &sink), Submission::Handled);
        assert!(lines.lock().unwrap().is_empty());
        let counters = daemon.shutdown();
        assert_eq!(counters.requests.load(AtomicOrdering::Relaxed), 0);
    }
}
