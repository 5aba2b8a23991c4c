//! RCFIT — a SPICE-in, SPICE-out RC network reduction tool built on PACT
//! (the prototype CAD tool of Section 5 of Kerns & Yang, DAC 1996).
//!
//! ```text
//! rcfit INPUT.sp [INPUT2.sp ...] [-o OUTPUT.sp] [--fmax HZ] [--tol FRACTION]
//!       [--sparsify TOL] [--port NODE]... [--threads N] [--strict-pivots]
//!       [--hier] [--block-size N] [--max-depth N]
//!       [--extract] [--collapse-chains] [--chain-tol TOL]
//!       [--stats] [--verify] [--trace] [--log-json PATH]
//! ```
//!
//! The reduction options are the rows of [`pact_serve::OPTIONS`], the
//! same table `rcfitd` reads its `options` keys through: each flag is
//! `--` and its key with `-` for `_` (`ports` is the repeatable
//! `--port`). A refused setting prints `rcfit: error [<code>]:
//! <message>` with the code and message `rcfitd` would answer.
//!
//! Several decks may be given at once; they are reduced through one
//! [`pact::ReductionSession`], so same-topology decks reuse the cached
//! symbolic Cholesky analysis instead of re-running fill-reducing
//! ordering and elimination-tree construction per deck.
//!
//! The flow mirrors the paper's Figure 1: parse → extract RC elements and
//! classify ports → sanitize (prune floating internal nodes, drop
//! zero-valued caps) → split into connected components → per component:
//! stamp `G`,`C` → Cholesky congruence → pole analysis via Lanczos → drop
//! poles above the cutoff → sparsify → unstamp → splice the reduced
//! networks back into the deck and write it out. A deck whose RC network
//! is one connected component is reduced in place and its elements are
//! named `rcfit_…`; otherwise component `k` is named `rcfit<k>_…` and
//! components without a port are dropped. `--extract` is accepted and
//! does nothing: it once selected the per-component split, which is now
//! the only path. `--stats` and `--verify` report over every reduction:
//! one verdict, the worst over the components.
//!
//! Every failure surfaces as a typed [`PactError`] with node/element
//! attribution — the reduction path never panics on malformed input.
//! `--trace` prints per-phase wall times, counters, and warnings;
//! `--log-json` writes the same telemetry as machine-readable JSON
//! (schema `rcfit-telemetry-v1`, documented in DESIGN.md).

use std::process::ExitCode;

use pact::{CutoffSpec, PactError, ReductionSession, VerificationReport};
use pact_serve::{
    option_for_flag, prepare_deck, reduce_prepared, render_reduced, resolve_options, DeckOptions,
    Given, OptionError, PreparedDeck, ReducedDeck,
};

#[derive(Debug)]
struct Args {
    inputs: Vec<String>,
    output: Option<String>,
    stats: bool,
    verify: bool,
    trace: bool,
    log_json: Option<String>,
    options: DeckOptions,
}

fn usage() -> &'static str {
    "usage: rcfit INPUT.sp [INPUT2.sp ...] [-o OUTPUT.sp] [--fmax HZ] [--tol FRAC] \
     [--sparsify TOL] [--port NODE]... [--threads N] [--strict-pivots] \
     [--hier] [--block-size N] [--max-depth N] \
     [--extract] [--collapse-chains] [--chain-tol TOL] \
     [--stats] [--verify] [--trace] [--log-json PATH]\n\
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
     every deck is reduced one connected RC component at a time, and\n\
     components without a port are dropped; --extract is accepted and does\n\
     nothing (it once selected that split); --collapse-chains runs the\n\
     degree-2 series-chain collapse pre-pass before reduction, re-segmenting\n\
     long RC chains within --chain-tol relative in-band error (default 1e-6)"
}

/// Why the command line does not start a run.
#[derive(Debug)]
enum ArgError {
    /// `--help`, or no input deck: print the usage text.
    Usage,
    /// A refused setting.
    Bad(OptionError),
}

impl From<OptionError> for ArgError {
    fn from(e: OptionError) -> ArgError {
        ArgError::Bad(e)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, ArgError> {
    let mut inputs = Vec::new();
    let mut output = None;
    let (mut stats, mut verify, mut trace) = (false, false, false);
    let mut log_json = None;
    let mut settings = Vec::new();
    let mut it = argv.iter().map(String::as_str);
    while let Some(a) = it.next() {
        let mut path = |flag: &str| {
            it.next()
                .map(str::to_owned)
                .ok_or_else(|| OptionError::bad_request(format!("{flag} needs a value")))
        };
        match a {
            "-o" | "--output" => output = Some(path(a)?),
            "--stats" => stats = true,
            "--verify" => verify = true,
            "--trace" => trace = true,
            "--log-json" => log_json = Some(path(a)?),
            "-h" | "--help" => return Err(ArgError::Usage),
            input if !input.starts_with('-') => inputs.push(input.to_owned()),
            flag => {
                // An unknown flag is named by the key it would map to,
                // as `rcfitd` names an unknown key.
                let row = option_for_flag(flag).ok_or_else(|| {
                    OptionError::unknown(&flag.trim_start_matches('-').replace('-', "_"))
                })?;
                let value = if row.takes_value() {
                    it.next().map_or(Given::Bare, Given::Text)
                } else {
                    Given::Bare
                };
                settings.push((row.key, value));
            }
        }
    }
    if inputs.is_empty() {
        return Err(ArgError::Usage);
    }
    let options = resolve_options(DeckOptions::default(), settings)?;
    if inputs.len() > 1 {
        if output.is_some() {
            return Err(OptionError::bad_request("-o/--output needs a single input deck").into());
        }
        if log_json.is_some() {
            return Err(OptionError::bad_request("--log-json needs a single input deck").into());
        }
    }
    Ok(Args {
        inputs,
        output,
        stats,
        verify,
        trace,
        log_json,
        options,
    })
}

fn run(args: &Args) -> Result<(), PactError> {
    let mut session = ReductionSession::new(args.options.reduce_options()?);
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
    let opts = &args.options;
    let prep = prepare_deck(&text, opts)?;
    eprintln!(
        "rcfit: extracted RC network: {} ports, {} internal nodes, {} R, {} C",
        prep.raw_ports, prep.raw_internal, prep.raw_resistors, prep.raw_capacitors
    );
    for w in &prep.sanitize_warnings {
        eprintln!("rcfit: warning: {w}");
    }
    if opts.collapse_chains {
        eprintln!(
            "rcfit: chain collapse: {} chain(s) collapsed, {} internal node(s) eliminated",
            prep.telemetry.counters.chains_collapsed, prep.telemetry.counters.nodes_eliminated
        );
    }

    let red = reduce_prepared(&prep, session, opts)?;
    let mut tel = prep.telemetry.clone();
    tel.absorb(&red.telemetry());
    let cutoff = session.options().cutoff;
    eprintln!(
        "rcfit: kept {} pole(s) below the {:.3e} Hz cutoff ({} internal nodes eliminated)",
        red.num_poles(),
        cutoff.cutoff_frequency(),
        prep.network.num_internal() - red.num_poles()
    );
    if let ReducedDeck::Components { reduction: c } = &red {
        eprintln!(
            "rcfit: {} connected component(s) reduced, {} floating island(s) dropped",
            c.reductions.len(),
            c.floating_dropped
        );
    }
    if args.stats {
        print_stats(&red);
    }
    if args.verify {
        let ctx = pact_sparse::ParCtx::new(opts.threads);
        match tel.time("verify_sweep", || verify(&prep, &red, &cutoff, ctx)) {
            Ok(Some(report)) => {
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
            Ok(None) => eprintln!("rcfit: verify: no reduction to verify"),
            Err(e) => eprintln!("rcfit: verify failed to run: {e}"),
        }
    }

    let (rendered, element_count) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel);
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

/// `--stats`: one report over every reduction of the deck. Work and
/// factor sizes add up; the modelled peak is the largest reduction's
/// (components reduce one after another), and the passivity margins are
/// the smallest.
fn print_stats(red: &ReducedDeck) {
    let reductions = red.reductions();
    let sum = |f: fn(&pact::ReductionStats) -> usize| -> usize {
        reductions.iter().map(|r| f(&r.stats)).sum()
    };
    eprintln!(
        "rcfit: reduction {:.3} s; Cholesky |L| = {} nnz ({:.1} MB); modelled peak {:.1} MB",
        reductions
            .iter()
            .map(|r| r.stats.elapsed_seconds)
            .sum::<f64>(),
        sum(|s| s.chol_nnz),
        sum(|s| s.chol_memory_bytes) as f64 / 1e6,
        red.modelled_memory_bytes() as f64 / 1e6
    );
    eprintln!("rcfit: {}", red.certified_summary());
    let lanczos: Vec<_> = reductions.iter().filter_map(|r| r.stats.lanczos).collect();
    if !lanczos.is_empty() {
        eprintln!(
            "rcfit: Lanczos: {} matvecs, {} iterations, {} restarts",
            lanczos.iter().map(|l| l.matvecs).sum::<usize>(),
            lanczos.iter().map(|l| l.iterations).sum::<usize>(),
            lanczos.iter().map(|l| l.restarts).sum::<usize>()
        );
    }
    let margins: Result<Vec<(f64, f64)>, _> = reductions
        .iter()
        .map(|r| r.model.passivity_margins())
        .collect();
    match margins {
        Ok(m) if !m.is_empty() => {
            let g = m.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let c = m.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            eprintln!("rcfit: passivity margins: λmin(G'')={g:.3e}, λmin(C'')={c:.3e}");
        }
        Ok(_) => {}
        Err(e) => eprintln!("rcfit: passivity check failed: {e}"),
    }
}

/// `--verify`: each reduction against the exact admittance of the
/// network it was made from (the whole network, or its connected
/// component), over one shared 25-point grid, folded into one report:
/// the worst error at each frequency, the smallest passivity margins and
/// the summed sweep effort. `None` when the deck has no reduction.
fn verify(
    prep: &PreparedDeck,
    red: &ReducedDeck,
    cutoff: &CutoffSpec,
    ctx: pact_sparse::ParCtx,
) -> Result<Option<VerificationReport>, String> {
    let net = &prep.network;
    let comps = net.components();
    // One network per reduction, in the order `reduce_network_components`
    // reduces them: the components with ports (a `Whole` deck is one,
    // whose stamp is the network's own).
    let stamped = (0..comps.len())
        .filter(|&k| comps.num_ports(k) > 0)
        .map(|k| comps.stamp(net, k));
    let mut worst: Option<VerificationReport> = None;
    for (stamped, r) in stamped.zip(red.reductions()) {
        let parts = pact::Partitions::split(&stamped);
        let report = pact::verify_reduction_with(&parts, &r.model, cutoff, 25, ctx)?;
        worst = Some(match worst {
            None => report,
            Some(mut w) => {
                for (a, b) in w.samples.iter_mut().zip(&report.samples) {
                    a.worst_relative_error = a.worst_relative_error.max(b.worst_relative_error);
                }
                w.worst_in_band = w.worst_in_band.max(report.worst_in_band);
                w.worst_overall = w.worst_overall.max(report.worst_overall);
                w.passivity_margins.0 = w.passivity_margins.0.min(report.passivity_margins.0);
                w.passivity_margins.1 = w.passivity_margins.1.min(report.passivity_margins.1);
                w.sweep_counts.absorb(report.sweep_counts);
                w
            }
        });
    }
    Ok(worst)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(ArgError::Usage) => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
        Err(ArgError::Bad(e)) => {
            eprintln!("rcfit: error [{}]: {}", e.code, e.message);
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
    use pact_serve::OPTIONS;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The refused setting's code and message.
    fn refused(e: ArgError) -> OptionError {
        match e {
            ArgError::Bad(e) => e,
            ArgError::Usage => panic!("usage instead of a typed error"),
        }
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
            "--verify",
            "--trace",
            "--log-json",
            "t.json",
            "--strict-pivots",
        ]))
        .unwrap();
        assert_eq!(a.inputs, vec!["in.sp"]);
        assert_eq!(a.output.as_deref(), Some("out.sp"));
        assert_eq!(a.options.f_max, 3e9);
        assert_eq!(a.options.tolerance, 0.1);
        assert_eq!(a.options.sparsify, 1e-6);
        assert_eq!(a.options.extra_ports, vec!["nodeA", "nodeB"]);
        assert!(a.stats && a.verify);
        assert!(a.trace && a.options.strict_pivots);
        assert_eq!(a.log_json.as_deref(), Some("t.json"));
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse_args(&argv(&["deck.sp"])).unwrap();
        assert_eq!(a.options, DeckOptions::default());
        assert_eq!(a.options.f_max, 1e9);
        assert_eq!(a.options.tolerance, 0.05);
        assert!(a.output.is_none());
        assert!(!a.trace && !a.options.strict_pivots);
        assert!(a.log_json.is_none());
    }

    #[test]
    fn missing_input_is_usage_error() {
        assert!(matches!(
            parse_args(&argv(&["--stats"])),
            Err(ArgError::Usage)
        ));
        assert!(matches!(parse_args(&[]), Err(ArgError::Usage)));
        assert!(matches!(
            parse_args(&argv(&["x.sp", "--help"])),
            Err(ArgError::Usage)
        ));
    }

    #[test]
    fn unknown_flag_is_error() {
        let e = refused(parse_args(&argv(&["deck.sp", "--frobnicate"])).unwrap_err());
        assert_eq!(e.code, "unknown_option");
        assert_eq!(e.message, "unknown option `frobnicate`");
        // The CLI spells keys with `-`; the daemon's `_` spelling is no flag.
        let e = refused(parse_args(&argv(&["deck.sp", "--block_size", "9"])).unwrap_err());
        assert_eq!(e.code, "unknown_option");
    }

    #[test]
    fn flag_missing_value_is_error() {
        for (args, message) in [
            (&["deck.sp", "--fmax"][..], "`fmax` needs a value"),
            (&["deck.sp", "--tol", "abc"], "`tol` needs a number"),
            (&["deck.sp", "--log-json"], "--log-json needs a value"),
            (&["deck.sp", "-o"], "-o needs a value"),
        ] {
            let e = refused(parse_args(&argv(args)).unwrap_err());
            assert_eq!((e.code, e.message.as_str()), ("bad_request", message));
        }
    }

    #[test]
    fn spice_units_accepted_for_fmax() {
        let a = parse_args(&argv(&["x.sp", "--fmax", "500meg"])).unwrap();
        assert_eq!(a.options.f_max, 5e8);
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        let a = parse_args(&argv(&["x.sp", "--threads", "4"])).unwrap();
        assert_eq!(a.options.threads, Some(4));
        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert_eq!(d.options.threads, None);
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
        assert!(a.options.hier);
        assert_eq!(a.options.block_size, 500);
        assert_eq!(a.options.max_depth, 8);
        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert!(!d.options.hier);
        assert_eq!(d.options.block_size, pact_serve::DEFAULT_BLOCK_SIZE);
        assert_eq!(d.options.max_depth, pact_serve::DEFAULT_MAX_DEPTH);
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
        assert!(a.options.extract && a.options.collapse_chains);
        assert_eq!(a.options.chain_tol, 1e-4);

        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert!(!d.options.extract && !d.options.collapse_chains);
        assert_eq!(d.options.chain_tol, pact_serve::DEFAULT_CHAIN_TOL);

        let e = refused(parse_args(&argv(&["x.sp", "--chain-tol", "1e-4"])).unwrap_err());
        assert!(e.message.contains("collapse_chains"), "{}", e.message);
        // The range is `reduce_options()`'s to check, as for the daemon.
        for tol in ["0", "-1"] {
            let a = parse_args(&argv(&["x.sp", "--collapse-chains", "--chain-tol", tol])).unwrap();
            let e = a.options.reduce_options().unwrap_err();
            assert_eq!(e.code(), "chain_tol", "--chain-tol {tol}");
        }
        assert!(parse_args(&argv(&["x.sp", "--collapse-chains", "--chain-tol", "much"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--chain-tol"])).is_err());
    }

    #[test]
    fn multiple_decks_parse_but_reject_single_output_flags() {
        let a = parse_args(&argv(&["a.sp", "b.sp", "c.sp"])).unwrap();
        assert_eq!(a.inputs, vec!["a.sp", "b.sp", "c.sp"]);
        let e = refused(parse_args(&argv(&["a.sp", "b.sp", "-o", "out.sp"])).unwrap_err());
        assert!(e.message.contains("single input deck"));
        let e = refused(parse_args(&argv(&["a.sp", "b.sp", "--log-json", "t.json"])).unwrap_err());
        assert!(e.message.contains("single input deck"));
    }

    #[test]
    fn help_names_every_option() {
        let words: Vec<&str> = usage()
            .split(|c: char| c.is_whitespace() || "[]".contains(c))
            .collect();
        for row in OPTIONS {
            assert!(
                words.contains(&row.flag().as_str()),
                "usage lacks {}",
                row.flag()
            );
        }
    }

    /// One option setting: the daemon key, its JSON value, and the value
    /// the CLI flag takes (`None` for a bare switch).
    type Setting = (&'static str, &'static str, Option<&'static str>);

    /// A non-default setting of each row of `OPTIONS`, found by its
    /// last key.
    const SAME_OPTIONS: [&[Setting]; 12] = [
        &[("fmax", r#""3g""#, Some("3g"))],
        &[("tol", "0.1", Some("0.1"))],
        &[("sparsify", "1e-6", Some("1e-6"))],
        &[("ports", r#"["n1"]"#, Some("n1"))],
        &[("threads", "256", Some("256"))],
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

    /// Settings both front ends must refuse, in `resolve_options`, in
    /// `reduce_options()` or on [`DECK`], including every removed option.
    const REJECTED: [&[Setting]; 20] = [
        &[("tol", r#""abc""#, Some("abc"))],
        &[("fmax", r#""fast""#, Some("fast"))],
        &[("threads", "0", Some("0"))],
        &[("threads", "1.5", Some("1.5"))],
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
        &[("components", "true", None)],
        &[("strategy", r#""flat""#, Some("flat"))],
        &[("points", "[1e9]", Some("1g"))],
        &[("chol_kernel", r#""scalar""#, Some("scalar"))],
        &[("dense", "true", None)],
        &[("eigen", r#""lowrank""#, Some("lowrank"))],
        &[("ordering", r#""rcm""#, Some("rcm"))],
        // A port that names no node of the deck, and the flag that
        // `--port` takes as its value when it comes next.
        &[("ports", r#"["zzz"]"#, Some("zzz"))],
        &[("ports", r#"["--stats"]"#, Some("--stats"))],
    ];

    /// The deck that settings which pass `reduce_options()` are prepared
    /// on: nodes `in`, `n1` and `out`.
    const DECK: &str = "* ladder\nV1 in 0 1\nR1 in n1 1k\nC1 n1 0 1p\nR2 n1 out 1k\n.end\n";

    /// The flag for a key that no row declares: the same spelling rule.
    fn flag(key: &str) -> String {
        OPTIONS
            .iter()
            .find(|row| row.key == key)
            .map_or_else(|| format!("--{}", key.replace('_', "-")), |row| row.flag())
    }

    /// A front end's resolved options, or the code and message it refuses with.
    type Outcome = Result<DeckOptions, (&'static str, String)>;

    /// What each front end makes of the same settings: the daemon of one
    /// request, the CLI of its flags.
    fn both_front_ends(settings: &[Setting]) -> (Outcome, Outcome) {
        let entries: Vec<String> = settings
            .iter()
            .map(|(key, json, _)| format!(r#""{key}":{json}"#))
            .collect();
        let line = format!(r#"{{"deck":"x","options":{{{}}}}}"#, entries.join(","));
        let daemon = pact_serve::parse_request(&line, pact_serve::protocol::DEFAULT_MAX_DECK_BYTES)
            .map(|r| r.options)
            .map_err(|e| (e.code, e.message));
        let mut cli_argv = vec!["x.sp".to_owned()];
        for (key, _, value) in settings {
            cli_argv.push(flag(key));
            cli_argv.extend(value.map(str::to_owned));
        }
        let cli = parse_args(&cli_argv).map(|a| a.options).map_err(|e| {
            let e = refused(e);
            (e.code, e.message)
        });
        (daemon, cli)
    }

    #[test]
    fn front_ends_accept_the_same_options_and_reject_the_same_values() {
        // Naming every field makes a new `DeckOptions` field fail to
        // compile here until `OPTIONS` gets a row and SAME_OPTIONS an
        // entry for it. The CLI's output and report flags (-o, --stats,
        // --verify, --trace, --log-json) are not options of the
        // reduction.
        let DeckOptions {
            f_max: _,
            tolerance: _,
            sparsify: _,
            extra_ports: _,
            threads: _,
            strict_pivots: _,
            hier: _,
            block_size: _,
            max_depth: _,
            extract: _,
            collapse_chains: _,
            chain_tol: _,
        } = DeckOptions::default();
        assert_eq!(SAME_OPTIONS.len(), OPTIONS.len());

        let (baseline, _) = both_front_ends(&[]);
        let baseline = baseline.unwrap();
        for row in OPTIONS {
            let settings = SAME_OPTIONS
                .iter()
                .find(|s| s.last().map(|(key, _, _)| *key) == Some(row.key))
                .unwrap_or_else(|| panic!("no SAME_OPTIONS entry sets `{}`", row.key));
            let (daemon, cli) = both_front_ends(settings);
            let daemon = daemon.unwrap_or_else(|e| panic!("daemon rejects {settings:?}: {e:?}"));
            let mut cli = cli.unwrap_or_else(|e| panic!("rcfit rejects {settings:?}: {e:?}"));
            // The daemon's one-thread default is scheduling, not numerics.
            cli.threads = cli.threads.or(baseline.threads);
            assert_eq!(daemon, cli, "{settings:?}");
            assert_ne!(daemon, baseline, "{settings:?} changes no option");
            assert!(daemon.reduce_options().is_ok(), "{settings:?}");
        }

        // Refused by the parser, by `reduce_options()` or when the deck
        // is prepared: both front ends must refuse with the same code and
        // the same message.
        let refusal = |o: Outcome| match o {
            Ok(o) => o
                .reduce_options()
                .and_then(|_| prepare_deck(DECK, &o))
                .map(drop)
                .map_err(|e| (e.code(), e.to_string())),
            Err(e) => Err(e),
        };
        for settings in REJECTED {
            let (daemon, cli) = both_front_ends(settings);
            let daemon = refusal(daemon).expect_err("daemon accepts a REJECTED setting");
            let cli = refusal(cli).expect_err("rcfit accepts a REJECTED setting");
            assert_eq!(daemon, cli, "{settings:?} fails differently");
        }
        let (daemon, cli) = both_front_ends(&[("ports", r#"["--stats"]"#, Some("--stats"))]);
        assert_eq!(
            refusal(cli).unwrap_err(),
            (
                "unknown_port",
                "requested port `--stats` names no node of the deck".to_owned()
            )
        );
        assert_eq!(refusal(daemon).unwrap_err().0, "unknown_port");
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
