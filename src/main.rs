//! RCFIT — a SPICE-in, SPICE-out RC network reduction tool built on PACT
//! (the prototype CAD tool of Section 5 of Kerns & Yang, DAC 1996).
//!
//! ```text
//! rcfit INPUT.sp [INPUT2.sp ...] [-o OUTPUT.sp] [--fmax HZ] [--tol FRACTION]
//!       [--sparsify TOL] [--port NODE]... [--threads N]
//!       [--stats] [--components]
//!       [--verify] [--trace] [--log-json PATH] [--strict-pivots]
//!       [--hier] [--block-size N] [--max-depth N]
//!       [--extract] [--collapse-chains] [--chain-tol TOL]
//! ```
//!
//! Several decks may be given at once; they are reduced through one
//! [`pact::ReductionSession`], so same-topology decks reuse the cached
//! symbolic Cholesky analysis instead of re-running fill-reducing
//! ordering and elimination-tree construction per deck.
//!
//! The flow mirrors the paper's Figure 1: parse → extract RC elements and
//! classify ports → sanitize (prune floating internal nodes, drop
//! zero-valued caps) → stamp `G`,`C` → Cholesky congruence → pole
//! analysis via Lanczos → drop poles above the cutoff → sparsify → unstamp
//! → splice the reduced network back into the deck and write it out.
//!
//! Every failure surfaces as a typed [`PactError`] with node/element
//! attribution — the reduction path never panics on malformed input.
//! `--trace` prints per-phase wall times, counters, and warnings;
//! `--log-json` writes the same telemetry as machine-readable JSON
//! (schema `rcfit-telemetry-v1`, documented in DESIGN.md).

use std::process::ExitCode;

use pact::{PactError, ReductionSession};
use pact_netlist::parse_value;
use pact_serve::{
    prepare_deck, reduce_prepared, render_reduced, DeckOptions, ReducedDeck, DEFAULT_BLOCK_SIZE,
    DEFAULT_CHAIN_TOL, DEFAULT_MAX_DEPTH,
};

#[derive(Debug)]
struct Args {
    inputs: Vec<String>,
    output: Option<String>,
    f_max: f64,
    tolerance: f64,
    sparsify: f64,
    extra_ports: Vec<String>,
    threads: Option<usize>,
    stats: bool,
    components: bool,
    verify: bool,
    trace: bool,
    log_json: Option<String>,
    strict_pivots: bool,
    hier: bool,
    block_size: usize,
    max_depth: usize,
    extract: bool,
    collapse_chains: bool,
    chain_tol: Option<f64>,
}

fn usage() -> &'static str {
    "usage: rcfit INPUT.sp [INPUT2.sp ...] [-o OUTPUT.sp] [--fmax HZ] [--tol FRAC] \
     [--sparsify TOL] [--port NODE]... [--threads N] \
     [--stats] [--components] \
     [--verify] [--trace] [--log-json PATH] [--strict-pivots] \
     [--hier] [--block-size N] [--max-depth N] \
     [--extract] [--collapse-chains] [--chain-tol TOL]\n\
     defaults: --fmax 1g --tol 0.05 --sparsify 1e-9 --threads <all cores>\n\
     HZ accepts SPICE suffixes (500meg, 3g, ...); the reduced model is\n\
     bit-identical for every --threads value.\n\
     --sparsify drops couplings below that fraction of the largest entry\n\
     (finite, in [0, 1); 0 keeps every element).\n\
     Several decks reduce through one session so same-topology decks reuse\n\
     the symbolic analysis (-o/--log-json then need a single deck).\n\
     --trace prints per-phase timings/counters; --log-json writes them as JSON;\n\
     --strict-pivots fails on quasi-singular pivots instead of perturbing them;\n\
     --hier reduces via nested-dissection blocks of at most --block-size nodes\n\
     (default 2000) with --max-depth recursion levels (default 16);\n\
     --extract reduces each maximal ported RC subnetwork independently (the\n\
     embedded-parasitics flow for mixed decks); --collapse-chains runs the\n\
     degree-2 series-chain collapse pre-pass before reduction, re-segmenting\n\
     long RC chains within --chain-tol relative in-band error (default 1e-6)"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        inputs: Vec::new(),
        output: None,
        f_max: 1e9,
        tolerance: 0.05,
        sparsify: 1e-9,
        extra_ports: Vec::new(),
        threads: None,
        stats: false,
        components: false,
        verify: false,
        trace: false,
        log_json: None,
        strict_pivots: false,
        hier: false,
        block_size: DEFAULT_BLOCK_SIZE,
        max_depth: DEFAULT_MAX_DEPTH,
        extract: false,
        collapse_chains: false,
        chain_tol: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "-o" | "--output" => args.output = Some(next(a)?),
            "--fmax" => {
                args.f_max = parse_value(&next(a)?).map_err(|e| e.to_string())?;
            }
            "--tol" => {
                args.tolerance = next(a)?
                    .parse()
                    .map_err(|_| "--tol needs a number".to_owned())?;
            }
            "--sparsify" => {
                args.sparsify = next(a)?
                    .parse()
                    .map_err(|_| "--sparsify needs a number".to_owned())?;
            }
            "--port" => args.extra_ports.push(next(a)?),
            "--threads" => {
                let n: usize = next(a)?
                    .parse()
                    .map_err(|_| "--threads needs a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--threads needs a positive integer".to_owned());
                }
                args.threads = Some(n);
            }
            "--stats" => args.stats = true,
            "--components" => args.components = true,
            "--verify" => args.verify = true,
            "--trace" => args.trace = true,
            "--log-json" => args.log_json = Some(next(a)?),
            "--strict-pivots" => args.strict_pivots = true,
            "--hier" => args.hier = true,
            "--block-size" => {
                let n: usize = next(a)?
                    .parse()
                    .map_err(|_| "--block-size needs a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--block-size needs a positive integer".to_owned());
                }
                args.block_size = n;
            }
            "--max-depth" => {
                let n: usize = next(a)?
                    .parse()
                    .map_err(|_| "--max-depth needs a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--max-depth needs a positive integer".to_owned());
                }
                args.max_depth = n;
            }
            "--extract" => args.extract = true,
            "--collapse-chains" => args.collapse_chains = true,
            "--chain-tol" => {
                let tol = next(a)?
                    .parse()
                    .map_err(|_| "--chain-tol needs a number".to_owned())?;
                args.chain_tol = Some(tol);
            }
            "-h" | "--help" => return Err(usage().to_owned()),
            other if !other.starts_with('-') => {
                args.inputs.push(other.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if args.inputs.is_empty() {
        return Err(usage().to_owned());
    }
    if args.chain_tol.is_some() && !args.collapse_chains {
        return Err("--chain-tol requires --collapse-chains".to_owned());
    }
    if args.inputs.len() > 1 {
        if args.output.is_some() {
            return Err("-o/--output needs a single input deck".to_owned());
        }
        if args.log_json.is_some() {
            return Err("--log-json needs a single input deck".to_owned());
        }
    }
    Ok(args)
}

/// The CLI flags as shared-pipeline options. Resolution of defaults
/// (pivot relief, ordering) and the range checks live
/// in [`DeckOptions`], shared verbatim with the `rcfitd` daemon so both
/// front ends produce bit-identical output.
fn deck_options(args: &Args) -> DeckOptions {
    DeckOptions {
        f_max: args.f_max,
        tolerance: args.tolerance,
        sparsify: args.sparsify,
        extra_ports: args.extra_ports.clone(),
        threads: args.threads,
        components: args.components,
        strict_pivots: args.strict_pivots,
        hier: args.hier,
        block_size: args.block_size,
        max_depth: args.max_depth,
        extract: args.extract,
        collapse_chains: args.collapse_chains,
        chain_tol: args.chain_tol.unwrap_or(DEFAULT_CHAIN_TOL),
    }
}

fn run(args: &Args) -> Result<(), PactError> {
    let mut session = ReductionSession::new(deck_options(args).reduce_options()?);
    let batch = args.inputs.len() > 1;
    for (i, input) in args.inputs.iter().enumerate() {
        if batch {
            eprintln!(
                "rcfit: reducing {input} (deck {} of {})",
                i + 1,
                args.inputs.len()
            );
        }
        run_deck(args, input, &mut session)?;
    }
    if batch {
        eprintln!(
            "rcfit: batch done: {} deck(s), {} cached symbolic analysis pattern(s)",
            args.inputs.len(),
            session.cached_patterns()
        );
    }
    Ok(())
}

fn run_deck(args: &Args, input: &str, session: &mut ReductionSession) -> Result<(), PactError> {
    let text = std::fs::read_to_string(input).map_err(|e| PactError::io(input, &e))?;
    // The front half (parse → flatten → extract → sanitize) and the
    // reduce/render back half are the shared pact-serve pipeline — the
    // CLI only adds progress reporting around it.
    let opts = deck_options(args);
    let prep = prepare_deck(&text, &opts)?;
    eprintln!(
        "rcfit: extracted RC network: {} ports, {} internal nodes, {} R, {} C",
        prep.raw_ports, prep.raw_internal, prep.raw_resistors, prep.raw_capacitors
    );
    for w in &prep.sanitize_warnings {
        eprintln!("rcfit: warning: {w}");
    }
    if args.collapse_chains {
        eprintln!(
            "rcfit: chain collapse: {} chain(s) collapsed, {} internal node(s) eliminated",
            prep.telemetry.counters.chains_collapsed, prep.telemetry.counters.nodes_eliminated
        );
    }

    let red = reduce_prepared(&prep, session, &opts)?;
    let mut tel = prep.telemetry.clone();
    tel.absorb(&red.telemetry());
    match &red {
        ReducedDeck::Components {
            reduction: c,
            extract_subnets,
        } => {
            if args.extract {
                eprintln!(
                    "rcfit: {} embedded RC subnetwork(s) reduced, {} floating island(s) dropped, {} pole(s) kept",
                    extract_subnets,
                    c.floating_dropped,
                    c.num_poles()
                );
            } else {
                eprintln!(
                    "rcfit: {} component(s) reduced, {} floating island(s) dropped, {} pole(s) kept",
                    c.reductions.len(),
                    c.floating_dropped,
                    c.num_poles()
                );
            }
        }
        ReducedDeck::Whole(r) => {
            let cutoff = session.options().cutoff;
            eprintln!(
                "rcfit: kept {} pole(s) below the {:.3e} Hz cutoff ({} internal nodes eliminated)",
                r.model.num_poles(),
                cutoff.cutoff_frequency(),
                prep.network.num_internal() - r.model.num_poles()
            );
            if args.stats {
                let s = &r.stats;
                eprintln!(
                    "rcfit: reduction {:.3} s; Cholesky |L| = {} nnz ({:.1} MB); modelled peak {:.1} MB",
                    s.elapsed_seconds,
                    s.chol_nnz,
                    s.chol_memory_bytes as f64 / 1e6,
                    s.modelled_memory_bytes as f64 / 1e6
                );
                if let Some(ls) = s.lanczos {
                    eprintln!(
                        "rcfit: Lanczos: {} matvecs, {} iterations, {} restarts",
                        ls.matvecs, ls.iterations, ls.restarts
                    );
                }
                match r.model.passivity_margins() {
                    Ok((g, c)) => {
                        eprintln!("rcfit: passivity margins: λmin(G'')={g:.3e}, λmin(C'')={c:.3e}");
                    }
                    Err(e) => eprintln!("rcfit: passivity check failed: {e}"),
                }
            }
            if args.verify {
                let parts = pact::Partitions::split(&prep.network.stamp());
                let ctx = pact_sparse::ParCtx::new(args.threads);
                let report = tel.time("verify_sweep", || {
                    pact::verify_reduction_with(&parts, &r.model, &cutoff, 25, ctx)
                });
                match report {
                    Ok(report) => {
                        tel.counters.factorizations += report.sweep_counts.factorizations;
                        tel.counters.refactorizations += report.sweep_counts.refactorizations;
                        eprintln!(
                            "rcfit: verify: worst in-band error {:.3} % (tolerance {:.1} %), overall {:.3} %: {}",
                            report.worst_in_band * 100.0,
                            report.tolerance * 100.0,
                            report.worst_overall * 100.0,
                            if report.passes() { "PASS" } else { "FAIL" }
                        );
                        eprintln!(
                            "rcfit: verify: exact sweep used {} factorization(s) + {} refactorization(s)",
                            report.sweep_counts.factorizations, report.sweep_counts.refactorizations
                        );
                    }
                    Err(e) => eprintln!("rcfit: verify failed to run: {e}"),
                }
            }
        }
    }

    let (rendered, element_count) = render_reduced(&prep, &red, "rcfit", args.sparsify, &mut tel);
    eprintln!("rcfit: reduced network realized with {element_count} elements");
    tel.time("write", || match &args.output {
        Some(path) => std::fs::write(path, &rendered).map_err(|e| PactError::io(path, &e)),
        None => {
            print!("{rendered}");
            Ok(())
        }
    })?;

    if args.trace {
        eprint!("{}", tel.render_trace());
    }
    if let Some(path) = &args.log_json {
        let mut doc = tel.to_json().render();
        doc.push('\n');
        std::fs::write(path, doc).map_err(|e| PactError::io(path, &e))?;
    }
    Ok(())
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
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rcfit: error [{}]: {e}", e.code());
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
    fn parses_full_flag_set() {
        let a = parse_args(&argv(&[
            "in.sp",
            "-o",
            "out.sp",
            "--fmax",
            "3g",
            "--tol",
            "0.1",
            "--sparsify",
            "1e-6",
            "--port",
            "nodeA",
            "--port",
            "nodeB",
            "--stats",
            "--components",
            "--verify",
            "--trace",
            "--log-json",
            "t.json",
            "--strict-pivots",
        ]))
        .unwrap();
        assert_eq!(a.inputs, vec!["in.sp"]);
        assert_eq!(a.output.as_deref(), Some("out.sp"));
        assert_eq!(a.f_max, 3e9);
        assert_eq!(a.tolerance, 0.1);
        assert_eq!(a.sparsify, 1e-6);
        assert_eq!(a.extra_ports, vec!["nodeA", "nodeB"]);
        assert!(a.stats && a.components && a.verify);
        assert!(a.trace && a.strict_pivots);
        assert_eq!(a.log_json.as_deref(), Some("t.json"));
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse_args(&argv(&["deck.sp"])).unwrap();
        assert_eq!(a.f_max, 1e9);
        assert_eq!(a.tolerance, 0.05);
        assert!(a.output.is_none());
        assert!(!a.trace && !a.strict_pivots);
        assert!(a.log_json.is_none());
    }

    #[test]
    fn missing_input_is_usage_error() {
        assert!(parse_args(&argv(&["--stats"])).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn unknown_flag_is_error() {
        let e = parse_args(&argv(&["deck.sp", "--frobnicate"])).unwrap_err();
        assert!(e.contains("unknown argument"));
    }

    #[test]
    fn flag_missing_value_is_error() {
        assert!(parse_args(&argv(&["deck.sp", "--fmax"])).is_err());
        assert!(parse_args(&argv(&["deck.sp", "--tol", "abc"])).is_err());
        assert!(parse_args(&argv(&["deck.sp", "--log-json"])).is_err());
    }

    #[test]
    fn spice_units_accepted_for_fmax() {
        let a = parse_args(&argv(&["x.sp", "--fmax", "500meg"])).unwrap();
        assert_eq!(a.f_max, 5e8);
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        let a = parse_args(&argv(&["x.sp", "--threads", "4"])).unwrap();
        assert_eq!(a.threads, Some(4));
        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert_eq!(d.threads, None);
        assert!(parse_args(&argv(&["x.sp", "--threads", "0"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--threads", "many"])).is_err());
    }

    #[test]
    fn hier_flags_parse_and_validate() {
        let a = parse_args(&argv(&[
            "x.sp",
            "--hier",
            "--block-size",
            "500",
            "--max-depth",
            "8",
        ]))
        .unwrap();
        assert!(a.hier);
        assert_eq!(a.block_size, 500);
        assert_eq!(a.max_depth, 8);
        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert!(!d.hier);
        assert_eq!(d.block_size, DEFAULT_BLOCK_SIZE);
        assert_eq!(d.max_depth, DEFAULT_MAX_DEPTH);
        assert!(parse_args(&argv(&["x.sp", "--block-size", "0"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--block-size", "lots"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--max-depth", "0"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--max-depth"])).is_err());
    }

    #[test]
    fn extract_and_collapse_flags_parse_and_validate() {
        let a = parse_args(&argv(&[
            "x.sp",
            "--extract",
            "--collapse-chains",
            "--chain-tol",
            "1e-4",
        ]))
        .unwrap();
        assert!(a.extract && a.collapse_chains);
        assert_eq!(a.chain_tol, Some(1e-4));
        let o = deck_options(&a);
        assert!(o.extract && o.collapse_chains);
        assert_eq!(o.chain_tol, 1e-4);

        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert!(!d.extract && !d.collapse_chains);
        assert_eq!(deck_options(&d).chain_tol, DEFAULT_CHAIN_TOL);

        let e = parse_args(&argv(&["x.sp", "--chain-tol", "1e-4"])).unwrap_err();
        assert!(e.contains("--collapse-chains"));
        // The range is `reduce_options()`'s to check, as for the daemon.
        for tol in ["0", "-1"] {
            let a = parse_args(&argv(&["x.sp", "--collapse-chains", "--chain-tol", tol])).unwrap();
            let e = deck_options(&a).reduce_options().unwrap_err();
            assert_eq!(e.code(), "chain_tol", "--chain-tol {tol}");
        }
        assert!(parse_args(&argv(&["x.sp", "--collapse-chains", "--chain-tol", "much"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--chain-tol"])).is_err());
    }

    #[test]
    fn multiple_decks_parse_but_reject_single_output_flags() {
        let a = parse_args(&argv(&["a.sp", "b.sp", "c.sp"])).unwrap();
        assert_eq!(a.inputs, vec!["a.sp", "b.sp", "c.sp"]);
        let e = parse_args(&argv(&["a.sp", "b.sp", "-o", "out.sp"])).unwrap_err();
        assert!(e.contains("single input deck"));
        let e = parse_args(&argv(&["a.sp", "b.sp", "--log-json", "t.json"])).unwrap_err();
        assert!(e.contains("single input deck"));
    }

    /// One option setting: the daemon key, its JSON value, and the value
    /// the CLI flag takes (`None` for a bare switch).
    type Setting = (&'static str, &'static str, Option<&'static str>);

    /// One row per `DeckOptions` field, each a non-default setting.
    const SAME_OPTIONS: [&[Setting]; 13] = [
        &[("fmax", r#""3g""#, Some("3g"))],
        &[("tol", "0.1", Some("0.1"))],
        &[("sparsify", "1e-6", Some("1e-6"))],
        &[("ports", r#"["n1"]"#, Some("n1"))],
        &[("threads", "256", Some("256"))],
        &[("components", "true", None)],
        &[("strict_pivots", "true", None)],
        &[("hier", "true", None)],
        &[("block_size", "100", Some("100"))],
        &[("max_depth", "4", Some("4"))],
        &[("extract", "true", None)],
        &[("collapse_chains", "true", None)],
        &[
            ("collapse_chains", "true", None),
            ("chain_tol", "1e-4", Some("1e-4")),
        ],
    ];

    /// Settings both front ends must refuse, in their parser or in
    /// `reduce_options()`, including every removed option.
    const REJECTED: [&[Setting]; 13] = [
        &[("threads", "0", Some("0"))],
        &[("threads", "257", Some("257"))],
        &[("chain_tol", "1e-4", Some("1e-4"))],
        &[
            ("collapse_chains", "true", None),
            ("chain_tol", "0", Some("0")),
        ],
        &[
            ("collapse_chains", "true", None),
            ("chain_tol", "-1", Some("-1")),
        ],
        &[("block_size", "0", Some("0"))],
        &[("max_depth", "0", Some("0"))],
        &[("sparsify", "1e999", Some("inf"))],
        &[("strategy", r#""flat""#, Some("flat"))],
        &[("points", "[1e9]", Some("1g"))],
        &[("chol_kernel", r#""scalar""#, Some("scalar"))],
        &[("dense", "true", None)],
        &[("eigen", r#""lowrank""#, Some("lowrank"))],
    ];

    /// The CLI flag for a daemon option key: `--` and the key with `-`
    /// for `_`, except the repeatable `--port` for the `ports` list.
    fn flag(key: &str) -> String {
        match key {
            "ports" => "--port".to_owned(),
            k => format!("--{}", k.replace('_', "-")),
        }
    }

    /// The options each front end resolves from the same settings: the
    /// daemon's from one request, the CLI's from its flags.
    fn both_front_ends(
        settings: &[Setting],
    ) -> (Result<DeckOptions, String>, Result<DeckOptions, String>) {
        let entries: Vec<String> = settings
            .iter()
            .map(|(key, json, _)| format!(r#""{key}":{json}"#))
            .collect();
        let line = format!(r#"{{"deck":"x","options":{{{}}}}}"#, entries.join(","));
        let daemon = pact_serve::parse_request(&line, pact_serve::protocol::DEFAULT_MAX_DECK_BYTES)
            .map(|r| r.options)
            .map_err(|e| e.message);
        let mut cli_argv = vec!["x.sp".to_owned()];
        for (key, _, value) in settings {
            cli_argv.push(flag(key));
            cli_argv.extend(value.map(str::to_owned));
        }
        let cli = parse_args(&cli_argv).map(|a| deck_options(&a));
        (daemon, cli)
    }

    #[test]
    fn front_ends_accept_the_same_options_and_reject_the_same_values() {
        // Naming every field makes a new `DeckOptions` field fail to
        // compile here until SAME_OPTIONS gets a row for it. The CLI's
        // output and report flags (-o, --stats, --verify, --trace,
        // --log-json) are not options of the reduction.
        let DeckOptions {
            f_max: _,
            tolerance: _,
            sparsify: _,
            extra_ports: _,
            threads: _,
            components: _,
            strict_pivots: _,
            hier: _,
            block_size: _,
            max_depth: _,
            extract: _,
            collapse_chains: _,
            chain_tol: _,
        } = DeckOptions::default();

        let (baseline, _) = both_front_ends(&[]);
        let baseline = baseline.unwrap();
        for settings in SAME_OPTIONS {
            let (daemon, cli) = both_front_ends(settings);
            let daemon = daemon.unwrap_or_else(|e| panic!("daemon rejects {settings:?}: {e}"));
            let mut cli = cli.unwrap_or_else(|e| panic!("rcfit rejects {settings:?}: {e}"));
            // The daemon's one-thread default is scheduling, not numerics.
            cli.threads = cli.threads.or(baseline.threads);
            assert_eq!(daemon, cli, "{settings:?}");
            assert_ne!(daemon, baseline, "{settings:?} changes no option");
            assert!(daemon.reduce_options().is_ok(), "{settings:?}");
        }

        // `None` when the parser refuses, else the code `reduce_options()`
        // fails with: both front ends must refuse at the same stage, with
        // the same typed code.
        let outcome = |o: Result<DeckOptions, String>| {
            o.ok().map(|o| o.reduce_options().err().map(|e| e.code()))
        };
        for settings in REJECTED {
            let (daemon, cli) = both_front_ends(settings);
            let (daemon, cli) = (outcome(daemon), outcome(cli));
            assert_ne!(daemon, Some(None), "daemon accepts {settings:?}");
            assert_ne!(cli, Some(None), "rcfit accepts {settings:?}");
            assert_eq!(daemon, cli, "{settings:?} fails differently");
        }
    }

    #[test]
    fn sparsify_outside_the_unit_interval_fails_alike_in_both_front_ends() {
        use std::sync::{Arc, Mutex};

        // `run` checks the options before it reads any deck, so the
        // missing input is never reached.
        let cli_code = |value: &str| {
            let args = parse_args(&argv(&["/nonexistent/deck.sp", "--sparsify", value])).unwrap();
            run(&args).unwrap_err().code()
        };
        let daemon = pact_serve::Daemon::new(pact_serve::ServeConfig {
            workers: 1,
            ..pact_serve::ServeConfig::default()
        });
        let replies = Arc::new(Mutex::new(Vec::new()));
        let sink_replies = Arc::clone(&replies);
        let sink: pact_serve::ReplySink =
            Arc::new(move |l: &str| sink_replies.lock().unwrap().push(l.to_owned()));
        let daemon_code = |value: &str| {
            let line = format!(r#"{{"deck":"* d\n.end\n","options":{{"sparsify":{value}}}}}"#);
            daemon.submit(&line, &sink);
            let reply = replies.lock().unwrap().pop().expect("answered inline");
            let doc = pact::json::Value::parse(&reply).unwrap();
            assert_eq!(
                doc.get("ok"),
                Some(&pact::json::Value::Bool(false)),
                "{reply}"
            );
            let code = doc.get("error").and_then(|e| e.get("code"));
            code.and_then(|c| c.as_str()).unwrap().to_owned()
        };
        // JSON has no NaN, and `1e999` parses to infinity.
        for (cli, json) in [
            ("inf", Some("1e999")),
            ("nan", None),
            ("-1", Some("-1")),
            ("1", Some("1")),
        ] {
            assert_eq!(cli_code(cli), "sparsify", "--sparsify {cli}");
            if let Some(json) = json {
                assert_eq!(daemon_code(json), "sparsify", "\"sparsify\":{json}");
            }
        }
        daemon.shutdown();
    }

    #[test]
    fn run_reports_typed_error_for_missing_input() {
        let args = parse_args(&argv(&["/nonexistent/deck.sp"])).unwrap();
        match run(&args) {
            Err(e) => assert_eq!(e.code(), "io"),
            Ok(()) => panic!("expected an I/O error"),
        }
    }
}
