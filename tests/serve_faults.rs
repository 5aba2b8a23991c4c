//! Fault injection: the daemon answers typed errors and stays alive.
//!
//! Five failure classes from the serving checklist: a client that
//! disconnects mid-stream with a response still in flight, a poisoned
//! deck whose element value overflows to infinity, requests that trip
//! ordinary [`pact::PactError`]s (parse errors, bad paths, invalid
//! cutoffs), a `path` deck larger than the daemon's deck cap, and ports
//! that name no node of the deck. In
//! every case the daemon must answer a typed error (or swallow the
//! undeliverable response and count the disconnect), keep serving, and
//! keep its warm sessions warm.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pact::json::Value;
use pact_serve::{serve_unix, Daemon, ReplySink, ServeConfig};

const GOOD_DECK: &str = "* good\\nVdrv in 0 1\\nR1 in a 1k\\nR2 a out 1k\\nC1 a 0 1p\\nC2 out 0 2p\\nIload out 0 1m\\n.end\\n";

fn test_daemon() -> Daemon {
    Daemon::new(ServeConfig {
        workers: 2,
        queue_cap: 16,
        sessions_per_worker: 4,
        patterns_per_session: 8,
        max_deck_bytes: 1 << 20,
    })
}

fn collector() -> (ReplySink, Arc<Mutex<Vec<String>>>) {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink_lines = Arc::clone(&lines);
    let sink: ReplySink = Arc::new(move |l: &str| sink_lines.lock().unwrap().push(l.to_owned()));
    (sink, lines)
}

fn error_code(doc: &Value) -> String {
    assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .expect("error responses carry a code")
        .to_owned()
}

#[test]
fn typed_errors_keep_the_daemon_alive_and_sessions_warm() {
    let daemon = test_daemon();
    let (sink, lines) = collector();
    let good = format!(r#"{{"id":"warm-1","deck":"{GOOD_DECK}"}}"#);
    daemon.submit(&good, &sink);

    // A deck whose resistor value overflows f64 to infinity.
    let poisoned = r#"{"id":"poison","deck":"* bad\nV1 a 0 1\nR1 a 0 1e999\n.end\n"}"#;
    daemon.submit(poisoned, &sink);
    // A deck that does not parse at all.
    let unparsable = r#"{"id":"noparse","deck":"* bad\nQ1 a b c model\n.end\n"}"#;
    daemon.submit(unparsable, &sink);
    // A source card cut short, which used to panic the dispatcher.
    let short_source = r#"{"id":"short","deck":"* bad\nV1 a\n.end\n"}"#;
    daemon.submit(short_source, &sink);
    // A server-side path that does not exist.
    let bad_path = r#"{"id":"nofile","path":"/nonexistent/deck.sp"}"#;
    daemon.submit(bad_path, &sink);
    // Options that cannot form a valid cutoff.
    let bad_cutoff = format!(r#"{{"id":"nocut","deck":"{GOOD_DECK}","options":{{"fmax":-1.0}}}}"#);
    daemon.submit(&bad_cutoff, &sink);

    // Same deck again: the worker that survived all of the above must
    // still hold the warm session from "warm-1".
    let again = format!(r#"{{"id":"warm-2","deck":"{GOOD_DECK}"}}"#);
    daemon.submit(&again, &sink);

    let counters = daemon.shutdown();
    let docs: std::collections::BTreeMap<String, Value> = lines
        .lock()
        .unwrap()
        .iter()
        .map(|l| {
            let d = Value::parse(l).unwrap();
            (d.get("id").unwrap().as_str().unwrap().to_owned(), d)
        })
        .collect();
    assert_eq!(docs.len(), 7, "every request answered exactly once");

    assert_eq!(error_code(&docs["poison"]), "network");
    assert_eq!(error_code(&docs["noparse"]), "parse");
    assert_eq!(error_code(&docs["short"]), "parse");
    assert_eq!(error_code(&docs["nofile"]), "io");
    assert_eq!(error_code(&docs["nocut"]), "cutoff");

    assert_eq!(docs["warm-1"].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(docs["warm-1"].get("session_hit"), Some(&Value::Bool(false)));
    assert_eq!(docs["warm-2"].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(
        docs["warm-2"].get("session_hit"),
        Some(&Value::Bool(true)),
        "faults in between must not cool the warm session"
    );

    assert_eq!(counters.ok.load(AtomicOrdering::Relaxed), 2);
    assert_eq!(counters.errors.load(AtomicOrdering::Relaxed), 5);
    assert_eq!(counters.worker_panics.load(AtomicOrdering::Relaxed), 0);
}

#[test]
fn path_deck_over_the_cap_is_typed_and_sessions_stay_warm() {
    // A cap between the small deck and the large one, on one worker so
    // both small decks meet the same session.
    let daemon = Daemon::new(ServeConfig {
        workers: 1,
        max_deck_bytes: 1024,
        ..ServeConfig::default()
    });
    let (sink, lines) = collector();
    let dir = std::env::temp_dir().join(format!("rcfitd-path-cap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let small = dir.join("small.sp");
    std::fs::write(&small, GOOD_DECK.replace("\\n", "\n")).unwrap();
    // The same ladder with enough comment lines to pass the cap.
    let big = dir.join("big.sp");
    let padding = "* padding\n".repeat(200);
    std::fs::write(&big, format!("{padding}{}", GOOD_DECK.replace("\\n", "\n"))).unwrap();
    assert!(std::fs::metadata(&big).unwrap().len() > 1024);

    let path_request = |id: &str, path: &std::path::Path| {
        let path = Value::str(path.to_str().unwrap()).render();
        format!(r#"{{"id":"{id}","path":{path}}}"#)
    };
    daemon.submit(&path_request("warm-1", &small), &sink);
    daemon.submit(&path_request("big", &big), &sink);
    daemon.submit(&path_request("warm-2", &small), &sink);
    let counters = daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let docs: std::collections::BTreeMap<String, Value> = lines
        .lock()
        .unwrap()
        .iter()
        .map(|l| {
            let d = Value::parse(l).unwrap();
            (d.get("id").unwrap().as_str().unwrap().to_owned(), d)
        })
        .collect();
    assert_eq!(docs.len(), 3, "every request answered exactly once");
    assert_eq!(error_code(&docs["big"]), "deck_too_large");
    assert_eq!(docs["warm-1"].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(
        docs["warm-2"].get("session_hit"),
        Some(&Value::Bool(true)),
        "the refused deck must not cool the warm session"
    );
    assert_eq!(counters.ok.load(AtomicOrdering::Relaxed), 2);
    assert_eq!(counters.errors.load(AtomicOrdering::Relaxed), 1);
}

#[test]
fn unknown_port_is_typed_and_sessions_stay_warm() {
    let daemon = Daemon::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let (sink, lines) = collector();
    let with_ports = |id: &str, ports: &str| {
        format!(r#"{{"id":"{id}","deck":"{GOOD_DECK}","options":{{"ports":{ports}}}}}"#)
    };
    daemon.submit(&with_ports("warm-1", r#"["a"]"#), &sink);
    // A misspelled port, and the flag `rcfit --port --stats` would take
    // as one: both name no node of the deck.
    daemon.submit(&with_ports("typo", r#"["a","zzz"]"#), &sink);
    daemon.submit(&with_ports("flag", r#"["--stats"]"#), &sink);
    // Ports match without regard to case.
    daemon.submit(&with_ports("warm-2", r#"["A"]"#), &sink);
    let counters = daemon.shutdown();

    let docs: std::collections::BTreeMap<String, Value> = lines
        .lock()
        .unwrap()
        .iter()
        .map(|l| {
            let d = Value::parse(l).unwrap();
            (d.get("id").unwrap().as_str().unwrap().to_owned(), d)
        })
        .collect();
    assert_eq!(docs.len(), 4, "every request answered exactly once");
    for id in ["typo", "flag"] {
        assert_eq!(error_code(&docs[id]), "unknown_port", "{id}");
    }
    let message = docs["typo"]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str);
    assert_eq!(
        message,
        Some("requested port `zzz` names no node of the deck")
    );
    assert_eq!(docs["warm-1"].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(docs["warm-2"].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(docs["warm-2"].get("deck"), docs["warm-1"].get("deck"));
    assert_eq!(
        docs["warm-2"].get("session_hit"),
        Some(&Value::Bool(true)),
        "the refused ports must not cool the warm session"
    );
    assert_eq!(counters.ok.load(AtomicOrdering::Relaxed), 2);
    assert_eq!(counters.errors.load(AtomicOrdering::Relaxed), 2);
}

/// Polls `pred` until it holds or `timeout` elapses.
fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    pred()
}

#[test]
fn mid_stream_disconnect_is_counted_and_survived() {
    let dir = std::env::temp_dir().join(format!("rcfitd-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("rcfitd.sock");
    let daemon = test_daemon();

    std::thread::scope(|scope| {
        let daemon_ref = &daemon;
        let sock_path = sock.clone();
        scope.spawn(move || serve_unix(daemon_ref, &sock_path).expect("socket serves"));
        assert!(
            wait_until(Duration::from_secs(5), || sock.exists()),
            "daemon bound its socket"
        );

        // Client 1 sends a reduce request and hangs up immediately; the
        // worker's response write must fail and be counted, nothing more.
        {
            let mut c = UnixStream::connect(&sock).unwrap();
            writeln!(c, r#"{{"id":"gone","deck":"{GOOD_DECK}"}}"#).unwrap();
            c.flush().unwrap();
            c.shutdown(std::net::Shutdown::Both).unwrap();
        }
        assert!(
            wait_until(Duration::from_secs(10), || {
                daemon.counters().disconnects.load(AtomicOrdering::Relaxed) >= 1
            }),
            "the dead client's failed response write is counted"
        );

        // Client 2 gets a full round trip on the same topology — and the
        // session warmed for the dead client serves it.
        let mut c2 = UnixStream::connect(&sock).unwrap();
        writeln!(c2, r#"{{"id":"alive","deck":"{GOOD_DECK}"}}"#).unwrap();
        c2.flush().unwrap();
        let mut reader = BufReader::new(c2.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let doc = Value::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("id").unwrap().as_str(), Some("alive"));
        assert_eq!(
            doc.get("session_hit"),
            Some(&Value::Bool(true)),
            "the disconnect must not cool the warm session"
        );

        writeln!(c2, r#"{{"id":"bye","op":"shutdown"}}"#).unwrap();
        c2.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let ack = Value::parse(&line).unwrap();
        assert_eq!(ack.get("shutdown"), Some(&Value::Bool(true)));
    });

    let counters = daemon.shutdown();
    assert_eq!(counters.ok.load(AtomicOrdering::Relaxed), 2);
    assert_eq!(counters.disconnects.load(AtomicOrdering::Relaxed), 1);
    assert!(!sock.exists(), "socket file cleaned up on exit");
    let _ = std::fs::remove_dir_all(&dir);
}
