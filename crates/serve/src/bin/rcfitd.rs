//! `rcfitd` — the sharded reduction-as-a-service daemon.
//!
//! ```text
//! rcfitd [--workers N] [--queue-cap N] [--session-cap N] [--pattern-cap N]
//!        [--max-deck-bytes N] [--socket PATH] [--stats]
//! ```
//!
//! Speaks the `rcfitd-v1` JSON Lines protocol over stdin/stdout, or over
//! a Unix domain socket with `--socket`. Every response deck is
//! bit-identical to what `rcfit` prints for the same deck and options —
//! the daemon only adds warm-session scheduling. See DESIGN.md §14.

use std::process::ExitCode;

use pact_serve::{serve_stdin, serve_unix, Daemon, ServeConfig, MAX_THREADS};

/// Largest `--queue-cap`: a worker's bounded queue allocates all its
/// slots up front, so the cap bounds that memory. 4096 is the deepest
/// queue any caller in this repository configures (the ledger's
/// `serve_mix`).
const MAX_QUEUE_CAP: usize = 4096;

fn usage() -> &'static str {
    "usage: rcfitd [--workers N] [--queue-cap N] [--session-cap N] [--pattern-cap N] \
     [--max-deck-bytes N] [--socket PATH] [--stats]\n\
     Speaks rcfitd-v1 JSON Lines on stdin/stdout (one request per line, one\n\
     response per line), or on a Unix socket with --socket PATH.\n\
     --workers      worker shards (default: min(cores, 8); at most 256)\n\
     --queue-cap    queued requests per worker before shedding (default 64;\n\
     \x20              at most 4096)\n\
     --session-cap  warm sessions kept per worker (default 8)\n\
     --pattern-cap  symbolic analyses cached per session (default 64)\n\
     --max-deck-bytes  deck size cap (default 8 MiB)\n\
     --stats        print final serve counters to stderr on exit"
}

struct DaemonArgs {
    cfg: ServeConfig,
    socket: Option<String>,
    stats: bool,
}

fn parse_args(argv: &[String]) -> Result<DaemonArgs, String> {
    let mut cfg = ServeConfig::default();
    let mut socket = None;
    let mut stats = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let positive = |flag: &str, s: String| -> Result<usize, String> {
            match s.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{flag} needs a positive integer")),
            }
        };
        // A worker is a thread and a preallocated queue: refuse sizes
        // the daemon could not honour before any worker starts.
        let at_most = |flag: &str, n: usize, max: usize| -> Result<usize, String> {
            if n > max {
                Err(format!("{flag} is at most {max}, got {n}\n{}", usage()))
            } else {
                Ok(n)
            }
        };
        match a.as_str() {
            "--workers" => cfg.workers = at_most(a, positive(a, next(a)?)?, MAX_THREADS)?,
            "--queue-cap" => cfg.queue_cap = at_most(a, positive(a, next(a)?)?, MAX_QUEUE_CAP)?,
            "--session-cap" => cfg.sessions_per_worker = positive(a, next(a)?)?,
            "--pattern-cap" => cfg.patterns_per_session = positive(a, next(a)?)?,
            "--max-deck-bytes" => cfg.max_deck_bytes = positive(a, next(a)?)?,
            "--socket" => socket = Some(next(a)?),
            "--stats" => stats = true,
            "-h" | "--help" => return Err(usage().to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(DaemonArgs { cfg, socket, stats })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let daemon = Daemon::new(args.cfg);
    let served = match &args.socket {
        Some(path) => {
            eprintln!(
                "rcfitd: serving on {path} ({} workers)",
                daemon.num_workers()
            );
            serve_unix(&daemon, std::path::Path::new(path))
        }
        None => {
            eprintln!(
                "rcfitd: serving on stdin ({} workers)",
                daemon.num_workers()
            );
            serve_stdin(&daemon)
        }
    };
    let counters = daemon.shutdown();
    if args.stats {
        eprintln!("rcfitd: stats {}", counters.to_json().render());
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rcfitd: transport error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_parse_and_validate() {
        let a = parse_args(&argv(&[
            "--workers",
            "3",
            "--queue-cap",
            "5",
            "--session-cap",
            "2",
            "--socket",
            "/tmp/s.sock",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(a.cfg.workers, 3);
        assert_eq!(a.cfg.queue_cap, 5);
        assert_eq!(a.cfg.sessions_per_worker, 2);
        assert_eq!(a.socket.as_deref(), Some("/tmp/s.sock"));
        assert!(a.stats);
        assert!(parse_args(&argv(&["--workers", "0"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
        assert!(parse_args(&argv(&["--workers"])).is_err());
    }

    #[test]
    fn sizes_past_the_bounds_are_usage_errors() {
        // The bounds themselves parse; one past each is the usage error.
        // Only the parser runs here: no daemon is started.
        let a = parse_args(&argv(&["--workers", "256", "--queue-cap", "4096"])).unwrap();
        assert_eq!(
            (a.cfg.workers, a.cfg.queue_cap),
            (MAX_THREADS, MAX_QUEUE_CAP)
        );
        for args in [["--workers", "257"], ["--queue-cap", "4097"]] {
            let msg = parse_args(&argv(&args)).err().expect("refused");
            assert!(msg.contains("is at most"), "{msg}");
            assert!(msg.contains(usage()), "{args:?} must print the usage");
        }
    }
}
