//! Reduction as a service: the `rcfitd` daemon and the deck pipeline it
//! shares with the one-shot `rcfit` CLI.
//!
//! The daemon is a *scheduling* layer, never a numerics layer. Every
//! request runs through exactly the same
//! parse → flatten → extract → sanitize → reduce → splice pipeline as
//! `rcfit` ([`pipeline`]), inside a warm [`pact::ReductionSession`], so a
//! deck reduced over the wire is bit-identical to the same deck reduced
//! by the CLI. What the daemon adds is placement and flow control:
//!
//! - **Sharding.** Requests are routed to a fixed pool of worker threads
//!   by the FNV-1a topology fingerprint of the sanitized network
//!   (`RcNetwork::topology_key`), so same-topology decks land on the same
//!   worker and reuse its warm symbolic-analysis cache instead of
//!   re-running fill-reducing ordering per deck.
//! - **Warm session pools.** Each worker owns a bounded LRU
//!   ([`pact::LruCache`]) of [`pact::ReductionSession`]s keyed by the
//!   canonical reduction-option string, with the cap-bounded symbolic
//!   cache inside each session.
//! - **Backpressure.** Per-worker queues are bounded; when a shard's
//!   queue is full the daemon answers a typed `overloaded` error
//!   immediately instead of buffering without bound, and drains cleanly
//!   on shutdown.
//!
//! The wire protocol (`rcfitd-v1`, [`protocol`]) is JSON Lines over
//! stdin/stdout or a Unix domain socket: one request object per line in,
//! one response object per line out, with per-request telemetry
//! (`rcfit-telemetry-v1`) embedded in successful responses.

pub mod io;
pub mod pipeline;
pub mod protocol;
pub mod server;

pub use io::{serve_lines, serve_stdin, serve_unix};
pub use pipeline::{
    option_for_flag, prepare_deck, reduce_prepared, render_reduced, resolve_options, DeckOptions,
    Given, OptionError, OptionRow, PreparedDeck, ReducedDeck, DEFAULT_BLOCK_SIZE,
    DEFAULT_CHAIN_TOL, DEFAULT_MAX_DEPTH, MAX_THREADS, OPTIONS, PIVOT_RELIEF,
};
pub use protocol::{parse_request, DeckSource, Op, ProtocolError, Request, SCHEMA};
pub use server::{Daemon, ReplySink, ServeConfig, ServeCounters, Submission};
