//! The shared deck pipeline: one code path from SPICE text to reduced
//! SPICE text, used by both the one-shot `rcfit` CLI and the `rcfitd`
//! daemon workers.
//!
//! Bit-identity between the daemon and the CLI is a protocol guarantee
//! (`rcfitd-v1` responses must match what `rcfit` would print for the
//! same deck and options), and the cheapest way to guarantee it is by
//! construction: both front ends call [`prepare_deck`],
//! [`reduce_prepared`] and [`render_reduced`] in that order, and neither
//! owns any numeric decision of its own. Option resolution lives here
//! for the same reason: [`OPTIONS`] declares every reduction option once
//! (its `rcfitd` key, how its value is written, the [`DeckOptions`]
//! field it sets), [`resolve_options`] is the one parser of settings, and
//! [`DeckOptions::reduce_options`] holds the range checks and the
//! pivot-relief default.

use pact::json::Value;
use pact::{
    collapse_chains, pole_safe_prefix, sanitize_network, ChainCollapseSpec, ComponentReduction,
    CutoffSpec, PactError, ReduceOptions, ReduceStrategy, ReducedModel, Reduction,
    ReductionSession, Telemetry, Warning,
};
use pact_netlist::{extract_rc, parse, parse_value, write_spliced, Netlist, RcNetwork};

/// Default relative pivot-relief floor for quasi-singular `D` diagonals;
/// see `ReduceOptions::pivot_relief`.
pub const PIVOT_RELIEF: f64 = 1e-12;

/// Default `--block-size`: target internal nodes per hierarchical leaf.
pub const DEFAULT_BLOCK_SIZE: usize = 2000;

/// Default `--max-depth`: dissection recursion budget.
pub const DEFAULT_MAX_DEPTH: usize = 16;

/// Largest `--threads` / `"threads"` either front end accepts.
pub const MAX_THREADS: usize = 256;

/// Default `--chain-tol`: relative in-band admittance error budget for
/// the series-chain collapse pre-pass.
pub const DEFAULT_CHAIN_TOL: f64 = 1e-6;

/// Everything a deck reduction depends on beyond the deck text itself:
/// the resolved form of the `rcfit` CLI flags and of the `rcfitd`
/// request `options` object.
#[derive(Clone, Debug, PartialEq)]
pub struct DeckOptions {
    /// Maximum frequency of interest (Hz).
    pub f_max: f64,
    /// Relative error tolerance at `f_max`.
    pub tolerance: f64,
    /// Element-dropping tolerance for the realized reduced network: a
    /// fraction in `[0, 1)` of each reduced matrix's largest entry
    /// (0 disables sparsification).
    pub sparsify: f64,
    /// Node names forced to be ports beyond the paper's port rule.
    pub extra_ports: Vec<String>,
    /// Worker threads inside one reduction (`None` = all cores).
    pub threads: Option<usize>,
    /// Fail on quasi-singular pivots instead of perturbing them.
    pub strict_pivots: bool,
    /// Reduce via nested-dissection blocks.
    pub hier: bool,
    /// `--block-size`: max internal nodes per hierarchical leaf.
    pub block_size: usize,
    /// `--max-depth`: dissection recursion budget.
    pub max_depth: usize,
    /// Accepted and ignored (`--extract` / `"extract"`): every deck is
    /// reduced per connected component (see [`reduce_prepared`]), which
    /// is what this switch once selected.
    pub extract: bool,
    /// Run the degree-2 series-chain collapse pre-pass on the sanitized
    /// network before reduction (`--collapse-chains` /
    /// `"collapse_chains"`).
    pub collapse_chains: bool,
    /// Relative in-band error budget for the chain-collapse re-segmenting
    /// rule (`--chain-tol` / `"chain_tol"`); only meaningful with
    /// `collapse_chains`.
    pub chain_tol: f64,
}

impl Default for DeckOptions {
    fn default() -> DeckOptions {
        DeckOptions {
            f_max: 1e9,
            tolerance: 0.05,
            sparsify: 1e-9,
            extra_ports: Vec::new(),
            threads: None,
            strict_pivots: false,
            hier: false,
            block_size: DEFAULT_BLOCK_SIZE,
            max_depth: DEFAULT_MAX_DEPTH,
            extract: false,
            collapse_chains: false,
            chain_tol: DEFAULT_CHAIN_TOL,
        }
    }
}

impl DeckOptions {
    /// The fully resolved reduction options. Both front ends call this
    /// before any deck work, so range checks that must agree between
    /// them live here.
    ///
    /// # Errors
    ///
    /// Fails (code `cutoff`) when `f_max`/`tolerance` do not define a
    /// valid cutoff, (code `sparsify`) when `sparsify` is not a finite
    /// number in `[0, 1)`, (code `threads`) when `threads` is outside
    /// `1..=`[`MAX_THREADS`], and (code `chain_tol`) when
    /// `collapse_chains` is set and `chain_tol` is not positive and
    /// finite.
    pub fn reduce_options(&self) -> Result<ReduceOptions, PactError> {
        let cutoff = CutoffSpec::new(self.f_max, self.tolerance)?;
        if !(0.0..1.0).contains(&self.sparsify) {
            return Err(PactError::Sparsify {
                value: self.sparsify,
            });
        }
        if let Some(value) = self.threads {
            if !(1..=MAX_THREADS).contains(&value) {
                return Err(PactError::Threads {
                    value,
                    max: MAX_THREADS,
                });
            }
        }
        self.collapse_spec()?;
        Ok(ReduceOptions {
            threads: self.threads,
            pivot_relief: if self.strict_pivots {
                None
            } else {
                Some(PIVOT_RELIEF)
            },
            strategy: self.reduce_strategy(),
            ..ReduceOptions::new(cutoff)
        })
    }

    /// Resolves the execution strategy: hierarchical when `hier` is set,
    /// flat otherwise.
    pub fn reduce_strategy(&self) -> ReduceStrategy {
        if self.hier {
            ReduceStrategy::Hierarchical {
                max_block: self.block_size,
                max_depth: self.max_depth,
            }
        } else {
            ReduceStrategy::Flat
        }
    }

    /// The chain-collapse spec resolved from `f_max` and `chain_tol`, or
    /// `None` when the pre-pass is off.
    ///
    /// # Errors
    ///
    /// Fails (code `chain_tol`) when `chain_tol` is not positive and
    /// finite.
    pub fn collapse_spec(&self) -> Result<Option<ChainCollapseSpec>, PactError> {
        if self.collapse_chains {
            ChainCollapseSpec::new(self.f_max, self.chain_tol).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A canonical string of every field [`DeckOptions::reduce_options`]
    /// depends on — the daemon's warm-session pool key. Render-only
    /// fields (`sparsify`) and deck-shaping fields (`extra_ports`,
    /// `collapse_chains`, `chain_tol`, which change the *network*, hence
    /// the topology shard, not the session) are deliberately excluded,
    /// as is the ignored `extract`.
    pub fn session_key(&self) -> String {
        let strategy = match self.reduce_strategy() {
            ReduceStrategy::Flat => "flat".to_owned(),
            ReduceStrategy::Hierarchical {
                max_block,
                max_depth,
            } => format!("hier:{max_block}:{max_depth}"),
        };
        format!(
            "fmax={};tol={};threads={:?};strict={};strategy={strategy}",
            self.f_max, self.tolerance, self.threads, self.strict_pivots
        )
    }
}

/// How an option's value is written, holding the setter of the
/// [`DeckOptions`] field it sets.
#[derive(Clone, Copy, Debug)]
enum Field {
    /// A bare flag, or a JSON boolean.
    Switch(fn(&mut DeckOptions, bool)),
    /// A number.
    Number(fn(&mut DeckOptions, f64)),
    /// A frequency: a number, or a string with a SPICE suffix (`500meg`).
    Frequency(fn(&mut DeckOptions, f64)),
    /// A positive integer.
    Count(fn(&mut DeckOptions, usize)),
    /// Node names: one per repeated flag, or a JSON array of strings.
    Names(fn(&mut DeckOptions, Vec<String>)),
}

/// One reduction option.
#[derive(Clone, Copy, Debug)]
pub struct OptionRow {
    /// The key in an `rcfitd` request's `options` object.
    pub key: &'static str,
    /// How the value is written, and the field it sets.
    field: Field,
}

/// Every reduction option, once. `rcfit`'s flags and `rcfitd`'s
/// `options` keys are both read through this table by
/// [`resolve_options`].
pub const OPTIONS: [OptionRow; 12] = [
    OptionRow {
        key: "fmax",
        field: Field::Frequency(|o, v| o.f_max = v),
    },
    OptionRow {
        key: "tol",
        field: Field::Number(|o, v| o.tolerance = v),
    },
    OptionRow {
        key: "sparsify",
        field: Field::Number(|o, v| o.sparsify = v),
    },
    OptionRow {
        key: "ports",
        field: Field::Names(|o, v| o.extra_ports.extend(v)),
    },
    OptionRow {
        key: "threads",
        field: Field::Count(|o, v| o.threads = Some(v)),
    },
    OptionRow {
        key: "strict_pivots",
        field: Field::Switch(|o, v| o.strict_pivots = v),
    },
    OptionRow {
        key: "hier",
        field: Field::Switch(|o, v| o.hier = v),
    },
    OptionRow {
        key: "block_size",
        field: Field::Count(|o, v| o.block_size = v),
    },
    OptionRow {
        key: "max_depth",
        field: Field::Count(|o, v| o.max_depth = v),
    },
    OptionRow {
        key: "extract",
        field: Field::Switch(|o, v| o.extract = v),
    },
    OptionRow {
        key: "collapse_chains",
        field: Field::Switch(|o, v| o.collapse_chains = v),
    },
    OptionRow {
        key: "chain_tol",
        field: Field::Number(|o, v| o.chain_tol = v),
    },
];

/// An option value as a front end received it.
#[derive(Clone, Copy, Debug)]
pub enum Given<'a> {
    /// An `rcfit` flag with no value: a switch, or a flag that ends the
    /// command line.
    Bare,
    /// An `rcfit` flag's value.
    Text(&'a str),
    /// An `rcfitd` request's value.
    Json(&'a Value),
}

impl Given<'_> {
    fn number(self) -> Option<f64> {
        match self {
            Given::Bare => None,
            Given::Text(s) => s.parse().ok(),
            Given::Json(v) => v.as_f64(),
        }
    }
}

/// A setting that [`resolve_options`] refuses. `rcfitd` answers with
/// this code and message; `rcfit` prints `rcfit: error [<code>]:
/// <message>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptionError {
    /// `unknown_option` or `bad_request`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl OptionError {
    /// A malformed or conflicting setting.
    pub fn bad_request(message: impl Into<String>) -> OptionError {
        OptionError {
            code: "bad_request",
            message: message.into(),
        }
    }

    /// A key that no row of [`OPTIONS`] declares.
    pub fn unknown(key: &str) -> OptionError {
        OptionError {
            code: "unknown_option",
            message: format!("unknown option `{key}`"),
        }
    }
}

impl OptionRow {
    /// The `rcfit` flag: `--` and the key with `-` for `_`, except the
    /// repeatable `--port` for `ports`.
    pub fn flag(&self) -> String {
        match self.key {
            "ports" => "--port".to_owned(),
            key => format!("--{}", key.replace('_', "-")),
        }
    }

    /// Whether the flag takes a value: all but switches do.
    pub fn takes_value(&self) -> bool {
        !matches!(self.field, Field::Switch(_))
    }

    fn apply(&self, opts: &mut DeckOptions, value: Given) -> Result<(), OptionError> {
        let key = self.key;
        let needs = |what: &str| OptionError::bad_request(format!("`{key}` needs {what}"));
        if self.takes_value() && matches!(value, Given::Bare) {
            return Err(needs("a value"));
        }
        match self.field {
            Field::Switch(set) => match value {
                Given::Bare => set(opts, true),
                Given::Json(Value::Bool(b)) => set(opts, *b),
                _ => return Err(needs("a boolean")),
            },
            Field::Number(set) => set(opts, value.number().ok_or_else(|| needs("a number"))?),
            Field::Frequency(set) => {
                let spice = |s: &str| {
                    parse_value(s).map_err(|e| OptionError::bad_request(format!("`{key}`: {e}")))
                };
                let f = match value {
                    Given::Json(Value::Num(f)) => *f,
                    Given::Json(Value::Str(s)) => spice(s)?,
                    Given::Text(s) => spice(s)?,
                    _ => return Err(needs("a number or a SPICE-suffixed string")),
                };
                set(opts, f);
            }
            Field::Count(set) => {
                let n = value
                    .number()
                    .filter(|f| f.fract() == 0.0 && (1.0..=f64::from(u32::MAX)).contains(f))
                    .ok_or_else(|| needs("a positive integer"))?;
                set(opts, n as usize);
            }
            Field::Names(set) => {
                let names = match value {
                    Given::Text(s) => Some(vec![s.to_owned()]),
                    Given::Json(v) => v.as_arr().and_then(|names| {
                        names
                            .iter()
                            .map(|n| n.as_str().map(str::to_owned))
                            .collect()
                    }),
                    Given::Bare => None,
                };
                set(opts, names.ok_or_else(|| needs("an array of strings"))?);
            }
        }
        Ok(())
    }
}

/// The row whose `rcfit` flag is `flag`.
pub fn option_for_flag(flag: &str) -> Option<&'static OptionRow> {
    OPTIONS.iter().find(|row| row.flag() == flag)
}

/// Applies option settings, in the order given, on top of `base`: the
/// one parser of reduction options for both front ends.
///
/// # Errors
///
/// `unknown_option` for a key that no row of [`OPTIONS`] declares, and
/// `bad_request` for a value of the wrong form or for `chain_tol`
/// without `collapse_chains`. Ranges are [`DeckOptions::reduce_options`]'s
/// to check.
pub fn resolve_options<'a>(
    base: DeckOptions,
    settings: impl IntoIterator<Item = (&'a str, Given<'a>)>,
) -> Result<DeckOptions, OptionError> {
    let mut opts = base;
    let mut chain_tol_given = false;
    for (key, value) in settings {
        let row = OPTIONS
            .iter()
            .find(|row| row.key == key)
            .ok_or_else(|| OptionError::unknown(key))?;
        row.apply(&mut opts, value)?;
        chain_tol_given |= key == "chain_tol";
    }
    // A tolerance without the pass it tunes would silently do nothing.
    if chain_tol_given && !opts.collapse_chains {
        return Err(OptionError::bad_request(
            "`chain_tol` requires `\"collapse_chains\":true`",
        ));
    }
    Ok(opts)
}

/// A deck carried through the front half of the pipeline: parsed,
/// flattened, extracted and sanitized, ready to be reduced.
#[derive(Clone, Debug)]
pub struct PreparedDeck {
    /// The flattened deck without its RC cards: title, models, analyses
    /// and the non-RC elements ([`pact_netlist::Extraction::rest`]).
    /// [`render_reduced`] writes the reduced elements into its text.
    pub shell: Netlist,
    /// The sanitized RC network.
    pub network: RcNetwork,
    /// Ports in the raw extraction, before sanitization.
    pub raw_ports: usize,
    /// Internal nodes in the raw extraction.
    pub raw_internal: usize,
    /// Resistors in the raw extraction.
    pub raw_resistors: usize,
    /// Capacitors in the raw extraction.
    pub raw_capacitors: usize,
    /// Sanitizer warnings (already folded into `telemetry`; kept
    /// separately so the CLI can echo them to stderr).
    pub sanitize_warnings: Vec<Warning>,
    /// Telemetry for the phases run so far (parse/flatten/extract/
    /// sanitize) plus their warnings and counters.
    pub telemetry: Telemetry,
}

impl PreparedDeck {
    /// The FNV-1a topology fingerprint of the *sanitized* network — the
    /// daemon's shard key. Computed after sanitization so value-dependent
    /// pruning (dropped zero caps, floating internals) is reflected.
    pub fn topology_key(&self) -> u64 {
        self.network.topology_key()
    }
}

/// Runs the front half of the pipeline on deck text:
/// parse → flatten → extract → sanitize → optional chain collapse.
///
/// The chain-collapse pre-pass (when `opts.collapse_chains` is set)
/// rewrites the sanitized network *before* the topology fingerprint is
/// taken, so the daemon shards on the network that actually reduces and
/// the `chains_collapsed`/`nodes_eliminated` counters land in the
/// prepared telemetry.
///
/// # Errors
///
/// Any [`PactError`] with the usual typed codes (`parse`, `flatten`,
/// `network`, ...).
pub fn prepare_deck(text: &str, opts: &DeckOptions) -> Result<PreparedDeck, PactError> {
    let mut tel = Telemetry::new();
    let deck = tel.time("parse", || parse(text))?;
    // The duplicate-name scan walks the flat deck, so it counts as
    // flattening.
    let (deck, duplicates) = tel.time("flatten", || {
        deck.flatten().map(|deck| {
            let duplicates = deck.duplicate_element_names();
            (deck, duplicates)
        })
    })?;
    for (name, count) in duplicates {
        tel.counters.duplicate_element_names += 1;
        tel.warn(Warning::DuplicateElementName { name, count });
    }
    let port_refs: Vec<&str> = opts.extra_ports.iter().map(String::as_str).collect();
    let ex = tel.time("extract", || extract_rc(&deck, &port_refs))?;
    // Keep only the shell: the RC cards live on in `network`.
    let shell = Netlist {
        elements: ex.rest,
        ..deck
    };
    let raw_ports = ex.network.num_ports;
    let raw_internal = ex.network.num_internal();
    let raw_resistors = ex.network.resistors.len();
    let raw_capacitors = ex.network.capacitors.len();
    let sanitized = tel.time("sanitize", || sanitize_network(&ex.network))?;
    sanitized.record(&mut tel);
    let network = match opts.collapse_spec()? {
        Some(spec) => {
            let cc = tel.time("collapse_chains", || {
                collapse_chains(&sanitized.network, &spec)
            });
            tel.counters.chains_collapsed += cc.chains_collapsed;
            tel.counters.nodes_eliminated += cc.nodes_eliminated;
            cc.network
        }
        None => sanitized.network,
    };
    Ok(PreparedDeck {
        shell,
        network,
        raw_ports,
        raw_internal,
        raw_resistors,
        raw_capacitors,
        sanitize_warnings: sanitized.warnings,
        telemetry: tel,
    })
}

/// The back half's result: the reductions of a deck's connected
/// components ([`reduce_prepared`]).
#[derive(Clone, Debug)]
pub enum ReducedDeck {
    /// The one reduction of a network that is a single connected
    /// component with ports, reduced in place; its elements are named
    /// with the deck's prefix (boxed: a `Reduction` is large relative
    /// to the per-component variant).
    Whole(Box<Reduction>),
    /// Every other network: one reduction per component with ports,
    /// component `k` named `<prefix><k>`; port-less islands are dropped
    /// and counted.
    Components {
        /// The per-component reductions.
        reduction: ComponentReduction,
    },
}

impl ReducedDeck {
    /// The reductions in output order: one per component with ports.
    pub fn reductions(&self) -> &[Reduction] {
        match self {
            ReducedDeck::Whole(r) => std::slice::from_ref(r.as_ref()),
            ReducedDeck::Components { reduction } => &reduction.reductions,
        }
    }

    /// The reductions' telemetry, aggregated as
    /// [`ComponentReduction::telemetry`] does: every deck counts its
    /// reductions in `components_reduced` and its port-less islands in
    /// `floating_islands_dropped`.
    pub fn telemetry(&self) -> Telemetry {
        match self {
            ReducedDeck::Whole(r) => {
                let mut tel = r.telemetry.clone();
                tel.counters.components_reduced = 1;
                tel
            }
            ReducedDeck::Components { reduction } => reduction.telemetry(),
        }
    }

    /// `certified pole-free: N of M components (K with internal nodes)`:
    /// how many of the `M` reductions the Elmore bound proved pole-free
    /// without running Lanczos, out of the `K` with a pole analysis to run.
    pub fn certified_summary(&self) -> String {
        let reductions = self.reductions();
        let certified: u64 = reductions
            .iter()
            .map(|r| r.telemetry.counters.eigen_certified)
            .sum();
        let analysed = reductions
            .iter()
            .filter(|r| r.stats.num_internal > 0)
            .count();
        format!(
            "certified pole-free: {certified} of {} components ({analysed} with internal nodes)",
            reductions.len()
        )
    }

    /// Poles retained by the reduced models.
    pub fn num_poles(&self) -> usize {
        self.reductions().iter().map(|r| r.model.num_poles()).sum()
    }

    /// The modelled peak bytes of the reduction: components reduce one
    /// after another, so the largest one's.
    pub fn modelled_memory_bytes(&self) -> usize {
        self.reductions()
            .iter()
            .map(|r| r.stats.modelled_memory_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The reduced models in output order, each with the prefix it is
    /// realized under when the deck's prefix is `prefix`: the prefix
    /// itself for a whole-network model, else
    /// [`ComponentReduction::prefixed_models`].
    pub fn prefixed_models(&self, prefix: &str) -> Vec<(String, &ReducedModel)> {
        match self {
            ReducedDeck::Whole(r) => vec![(prefix.to_owned(), &r.model)],
            ReducedDeck::Components { reduction } => reduction.prefixed_models(prefix),
        }
    }
}

/// Reduces a prepared deck inside `session`, one connected component at
/// a time: couplings between components are exactly zero, so each
/// component's reduction is independent, and no eigenproblem or dense
/// port block spans more than one component.
///
/// A network that is one connected component with ports is reduced in
/// place ([`ReducedDeck::Whole`]); every other network is split
/// ([`ReducedDeck::Components`]), and components without a port, which
/// no port can observe, are dropped. `opts.extract` is ignored.
///
/// # Errors
///
/// Reduction failures, remapped to node/element attribution on the
/// prepared network.
pub fn reduce_prepared(
    prep: &PreparedDeck,
    session: &mut ReductionSession,
    _opts: &DeckOptions,
) -> Result<ReducedDeck, PactError> {
    let net = &prep.network;
    let reduced = if net.num_ports > 0 && net.component_labels().1 == 1 {
        session
            .reduce_network(net)
            .map(|r| ReducedDeck::Whole(Box::new(r)))
    } else {
        session
            .reduce_network_components(net)
            .map(|reduction| ReducedDeck::Components { reduction })
    };
    reduced.map_err(|e| PactError::from_reduce(e, net))
}

/// Writes the reduced deck: the prepared deck's shell with the reduced
/// models' RC cards where its RC cards were. Returns the deck text and
/// the number of realized elements; the whole walk is the `emit` phase
/// on `tel`.
///
/// One pass writes everything into one `String`: the shell's head, then
/// each model's cards straight from its realized `(G'', C'')`
/// ([`ReducedModel::write_cards`]: one element per line, no element
/// built), then the analyses. The text is what splicing each model's
/// `to_netlist_elements(<prefix>, sparsify)` into the shell with
/// [`pact_netlist::splice_reduced`] and printing it would give. The
/// prefix is `prefix` unless a node of the shell or of the network
/// already has a pole node's name ([`pact::pole_safe_prefix`]).
pub fn render_reduced(
    prep: &PreparedDeck,
    reduced: &ReducedDeck,
    prefix: &str,
    sparsify: f64,
    tel: &mut Telemetry,
) -> (String, usize) {
    tel.time("emit", || {
        let taken = prep
            .network
            .node_names
            .iter()
            .map(String::as_str)
            .chain(prep.shell.elements.iter().flat_map(|e| e.nodes()));
        let base = pole_safe_prefix(prefix, taken, |p| reduced.prefixed_models(p));
        let mut text = String::new();
        let mut count = 0;
        write_spliced(&prep.shell, &mut text, |out| {
            for (p, model) in reduced.prefixed_models(&base) {
                count += model.write_cards(out, &p, sparsify);
            }
        });
        (text, count)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "* ladder\n\
        R1 in n1 1k\n\
        R2 n1 out 1k\n\
        C1 n1 0 1p\n\
        C2 out 0 1p\n\
        V1 in 0 1\n\
        RL out 0 10k\n\
        .end\n";

    #[test]
    fn pipeline_round_trips_a_deck() {
        let opts = DeckOptions::default();
        let prep = prepare_deck(DECK, &opts).unwrap();
        assert_eq!(
            prep.network.num_ports, 1,
            "only `in` touches a non-RC device"
        );
        assert_eq!(prep.raw_resistors, 3);
        assert_eq!(prep.raw_capacitors, 2);
        let mut session = ReductionSession::new(opts.reduce_options().unwrap());
        let red = reduce_prepared(&prep, &mut session, &opts).unwrap();
        let mut tel = prep.telemetry.clone();
        let (text, n) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel);
        assert!(n > 0);
        assert!(text.contains("V1"), "non-RC elements survive the splice");
        assert!(tel.phases.iter().any(|p| p.name == "emit"));
    }

    #[test]
    fn prepared_decks_same_topology_share_a_shard_key() {
        let opts = DeckOptions::default();
        let prep = prepare_deck(DECK, &opts).unwrap();
        let scaled = DECK.replace("1k", "2k").replace("1p", "3p");
        let prep2 = prepare_deck(&scaled, &opts).unwrap();
        assert_eq!(prep.topology_key(), prep2.topology_key());
        let rewired = DECK.replace("C2 out 0 1p", "C2 n1 out 1p");
        let prep3 = prepare_deck(&rewired, &opts).unwrap();
        assert_ne!(prep.topology_key(), prep3.topology_key());
    }

    /// A driven RC line long enough for the chain-collapse pre-pass to
    /// re-segment at a loose tolerance.
    fn line_deck(segments: usize) -> String {
        let mut s = String::from("* line\nVdrv in 0 1\n");
        let mut prev = "in".to_owned();
        for i in 0..segments {
            let next = if i + 1 == segments {
                "out".to_owned()
            } else {
                format!("n{}", i + 1)
            };
            s.push_str(&format!("R{i} {prev} {next} 10\n"));
            s.push_str(&format!("C{i} {next} 0 1p\n"));
            prev = next;
        }
        s.push_str("RL out 0 1k\n.end\n");
        s
    }

    #[test]
    fn collapse_chains_option_shrinks_the_prepared_network() {
        let deck = line_deck(120);
        let plain = DeckOptions::default();
        // 120 segments of 10 Ω / 1 pF: τ = 1.44e-7 s, so at 1 MHz
        // ωτ ≈ 0.9 and the 1e-3 budget re-segments onto ~23 nodes.
        let collapsing = DeckOptions {
            collapse_chains: true,
            chain_tol: 1e-3,
            f_max: 1e6,
            ..DeckOptions::default()
        };
        let before = prepare_deck(&deck, &plain).unwrap();
        let after = prepare_deck(&deck, &collapsing).unwrap();
        assert!(
            after.network.num_internal() < before.network.num_internal(),
            "collapse removed internal nodes: {} -> {}",
            before.network.num_internal(),
            after.network.num_internal()
        );
        assert!(after.telemetry.counters.chains_collapsed >= 1);
        assert!(after.telemetry.counters.nodes_eliminated > 0);
        assert_ne!(
            before.topology_key(),
            after.topology_key(),
            "the shard key follows the collapsed topology"
        );
        assert_eq!(before.telemetry.counters.chains_collapsed, 0);
    }

    #[test]
    fn bad_chain_tol_is_a_typed_error() {
        let opts = DeckOptions {
            collapse_chains: true,
            chain_tol: 0.0,
            ..DeckOptions::default()
        };
        let e = prepare_deck(DECK, &opts).unwrap_err();
        assert_eq!(e.code(), "chain_tol");
        // Both front ends resolve options first, so they refuse it there.
        assert_eq!(opts.reduce_options().unwrap_err().code(), "chain_tol");
        // With the pre-pass off the same tolerance is never inspected.
        let off = DeckOptions {
            chain_tol: 0.0,
            ..DeckOptions::default()
        };
        assert!(prepare_deck(DECK, &off).is_ok());
        assert!(off.reduce_options().is_ok());
    }

    /// Reduces `deck` the way one `rcfit` call does.
    fn reduce(deck: &str, opts: &DeckOptions) -> (PreparedDeck, ReducedDeck) {
        let prep = prepare_deck(deck, opts).unwrap();
        let mut session = ReductionSession::new(opts.reduce_options().unwrap());
        let red = reduce_prepared(&prep, &mut session, opts).unwrap();
        (prep, red)
    }

    /// An RC ladder named `<p>…`, driven at `<p>0` and loading a gate at
    /// `<p>N`: one connected component with two ports.
    fn ladder(p: &str, nseg: usize, r: f64, c: f64) -> String {
        let mut s = format!("V{p} {p}0 0 1\nM{p} q{p} {p}N 0 0 nch\n");
        for i in 0..nseg {
            let a = if i == 0 {
                format!("{p}0")
            } else {
                format!("{p}m{i}")
            };
            let b = if i + 1 == nseg {
                format!("{p}N")
            } else {
                format!("{p}m{}", i + 1)
            };
            s.push_str(&format!("R{p}{i} {a} {b} {}\n", r / nseg as f64));
            s.push_str(&format!("C{p}{i} {b} 0 {}\n", c / nseg as f64));
        }
        s
    }

    fn deck_of(ladders: &[String]) -> String {
        format!("* ladders\n{}.model nch nmos()\n.end\n", ladders.concat())
    }

    #[test]
    fn every_deck_is_reduced_per_connected_component() {
        // One component: reduced in place, named with the deck's prefix.
        let opts = DeckOptions::default();
        let (_, red) = reduce(&deck_of(&[ladder("x", 6, 100.0, 1e-12)]), &opts);
        assert!(matches!(red, ReducedDeck::Whole(_)));
        let c = red.telemetry().counters;
        assert_eq!((c.components_reduced, c.floating_islands_dropped), (1, 0));
        // Two RC islands separated by a voltage source: one reduction
        // each, whatever `extract` says.
        let deck = "* two islands\n\
            R1 a m1 1k\nC1 m1 0 1p\nR2 m1 b 1k\n\
            V1 b c 1\n\
            R3 c m2 2k\nC2 m2 0 2p\nR4 m2 d 2k\n\
            Vd a 0 1\nRL d 0 1k\n.end\n";
        for extract in [false, true] {
            let opts = DeckOptions {
                extract,
                ..DeckOptions::default()
            };
            let (_, red) = reduce(deck, &opts);
            match &red {
                ReducedDeck::Components { reduction } => {
                    assert_eq!(reduction.reductions.len(), 2, "two RC islands");
                }
                ReducedDeck::Whole(_) => panic!("two components must split"),
            }
            assert_eq!(red.telemetry().counters.components_reduced, 2);
        }
    }

    #[test]
    fn two_component_admittance_is_the_block_diagonal_of_its_components() {
        let deck = deck_of(&[
            ladder("x", 20, 200.0, 1.0e-12),
            ladder("y", 15, 120.0, 0.7e-12),
        ]);
        let opts = DeckOptions {
            f_max: 3e9,
            ..DeckOptions::default()
        };
        let (prep, red) = reduce(&deck, &opts);
        let ReducedDeck::Components { reduction } = &red else {
            panic!("two components must split");
        };
        assert_eq!(reduction.reductions.len(), 2);
        assert_eq!(reduction.floating_dropped, 0);
        assert!(red.reductions().iter().all(|r| r.model.is_passive(1e-8)));
        // The whole network reduced as one block: its `Y` must be the
        // block diagonal of the components' `Y`s.
        let mut session = ReductionSession::new(opts.reduce_options().unwrap());
        let whole = session.reduce_network(&prep.network).unwrap();
        assert_eq!(red.num_poles(), whole.model.num_poles());
        let ports = &whole.model.port_names;
        let block = |name: &String| {
            red.reductions()
                .iter()
                .enumerate()
                .find_map(|(k, r)| Some((k, r.model.port_names.iter().position(|p| p == name)?)))
                .unwrap()
        };
        for f in [1e8, 1e9, 3e9] {
            let yw = whole.model.y_at(f);
            let ys: Vec<_> = red.reductions().iter().map(|r| r.model.y_at(f)).collect();
            let scale = (0..ports.len())
                .map(|i| yw[(i, i)].abs())
                .fold(0.0, f64::max);
            for (gi, ni) in ports.iter().enumerate() {
                for (gj, nj) in ports.iter().enumerate() {
                    let ((ki, i), (kj, j)) = (block(ni), block(nj));
                    let w = yw[(gi, gj)];
                    if ki == kj {
                        let d = (ys[ki][(i, j)] - w).abs();
                        assert!(
                            d <= 1e-9 * w.abs().max(1e-12),
                            "Y[{ni},{nj}] at {f:e}: {d:e}"
                        );
                    } else {
                        assert!(w.abs() <= 1e-12 * scale, "Y[{ni},{nj}] couples components");
                    }
                }
            }
        }
    }

    #[test]
    fn modelled_memory_follows_the_largest_component() {
        // One long two-port ladder, and 4 or 40 short ones beside it. Each component reduces on its own,
        // so the deck's modelled peak is the long ladder's however many
        // short ones (and ports) there are; one whole-network block grows
        // with the total port count.
        let opts = DeckOptions {
            f_max: 3e9,
            threads: Some(1),
            ..DeckOptions::default()
        };
        let big = ladder("big", 400, 500.0, 2e-12);
        let with = |n: usize| {
            let mut ladders = vec![big.clone()];
            ladders.extend((0..n).map(|k| ladder(&format!("s{k}x"), 4, 50.0, 0.1e-12)));
            deck_of(&ladders)
        };
        let (_, alone) = reduce(&deck_of(std::slice::from_ref(&big)), &opts);
        let mut peaks = Vec::new();
        for n in [4, 40] {
            let (prep, red) = reduce(&with(n), &opts);
            assert_eq!(red.reductions().len(), n + 1);
            assert_eq!(red.modelled_memory_bytes(), alone.modelled_memory_bytes());
            let mut session = ReductionSession::new(opts.reduce_options().unwrap());
            let whole = session.reduce_network(&prep.network).unwrap();
            peaks.push(whole.stats.modelled_memory_bytes);
        }
        assert!(
            peaks[1] > peaks[0] && peaks[0] > alone.modelled_memory_bytes(),
            "a whole-network block grows with the port count: {peaks:?}"
        );
    }

    #[test]
    fn a_grounded_island_no_port_sees_is_dropped() {
        // `x`–`y` reaches ground through R10 but touches no port: its two
        // poles would be written on pole nodes nothing observes.
        let deck = "V1 in 0 1\nR1 in n1 100\nC1 n1 0 1p\nR2 n1 out 100\nRL out 0 1k\n\
                    R9 x y 100\nR10 y 0 50\nC9 y 0 1p\nC10 x 0 2p\n";
        let opts = DeckOptions {
            f_max: 100e9,
            tolerance: 0.01,
            ..DeckOptions::default()
        };
        let (prep, red) = reduce(deck, &opts);
        let c = red.telemetry().counters;
        assert_eq!((c.components_reduced, c.floating_islands_dropped), (1, 1));
        assert_eq!(red.num_poles(), 1);
        let (text, n) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut Telemetry::new());
        assert_eq!(n, 3);
        assert_eq!(
            text,
            "*  (RC network reduced by PACT)\n\
             V1 in 0 dc 1.000000\n\
             Crcfit0_0_1 in rcfit0_p0 840.277778f\n\
             Rrcfit0_0_0 in 0 1.200000k\n\
             Rrcfit0_1_1 rcfit0_p0 0 109.090909\n\
             .end\n"
        );
    }

    #[test]
    fn decks_without_ports_are_refused_with_a_typed_error() {
        let opts = DeckOptions::default();
        // No RC element at all, and an RC island no device touches.
        for deck in [
            "* d\nV1 a 0 1\nM1 b a 0 0 n\n.model n nmos()\n.end\n",
            "* f\nR1 a b 100\nC1 b 0 1p\n.end\n",
        ] {
            let e = prepare_deck(deck, &opts).unwrap_err();
            assert_eq!(e.code(), "network", "{deck}");
            assert_eq!(
                e.to_string(),
                "extraction error: RC network has no port nodes"
            );
        }
        // A requested port that names no node is refused first.
        let zzz = DeckOptions {
            extra_ports: vec!["zzz".to_owned()],
            ..DeckOptions::default()
        };
        let e = prepare_deck("* f\nR1 a b 100\nC1 b 0 1p\n.end\n", &zzz).unwrap_err();
        assert_eq!(e.code(), "unknown_port");
    }

    #[test]
    fn a_mixed_deck_keeps_its_devices_and_gains_one_node_per_pole() {
        let deck = deck_of(&[ladder("p", 60, 300.0, 1.2e-12)]);
        let opts = DeckOptions {
            f_max: 3e9,
            ..DeckOptions::default()
        };
        let (prep, red) = reduce(&deck, &opts);
        assert_eq!(prep.raw_internal, 59);
        assert!(red.num_poles() < 59);
        let (text, _) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut Telemetry::new());
        let out = parse(&text).unwrap();
        assert!(out.elements.iter().any(|e| e.name == "Vp"));
        assert!(out.elements.iter().any(|e| e.name == "Mp"));
        assert!(out.elements.iter().all(|e| e.name != "Rp0"));
        assert_eq!(out.models.len(), 1);
        let deck_nodes = parse(&deck).unwrap().node_names();
        let fresh = out
            .node_names()
            .into_iter()
            .filter(|n| !deck_nodes.contains(n))
            .count();
        assert_eq!(fresh, red.num_poles());
    }

    #[test]
    fn session_key_tracks_numeric_options_only() {
        let a = DeckOptions::default();
        let b = DeckOptions {
            sparsify: 1e-3,
            extra_ports: vec!["n1".to_owned()],
            ..DeckOptions::default()
        };
        assert_eq!(
            a.session_key(),
            b.session_key(),
            "render-only fields excluded"
        );
        let c = DeckOptions {
            f_max: 2e9,
            ..DeckOptions::default()
        };
        assert_ne!(a.session_key(), c.session_key());
        let d = DeckOptions {
            hier: true,
            ..DeckOptions::default()
        };
        assert_ne!(a.session_key(), d.session_key());
        let e = DeckOptions {
            extract: true,
            collapse_chains: true,
            chain_tol: 1e-3,
            ..DeckOptions::default()
        };
        assert_eq!(
            a.session_key(),
            e.session_key(),
            "deck-shaping and execution-split fields excluded"
        );
    }

    #[test]
    fn pole_nodes_never_merge_into_a_deck_net() {
        // `rcfit_p0` and `rcfit1_p1` are names a whole and a split deck
        // would give pole nodes; here they are nets of the deck, driven by
        // sources. Alone the ladder is one component; with a second ladder
        // the deck splits.
        let ladder = "V1 in 0 1\nR1 in n1 100\nC1 n1 0 1p\n\
                      R2 n1 n2 100\nC2 n2 0 1p\nR3 n2 out 100\nC3 out 0 1p\n\
                      M1 d1 out 0 0 nch\n";
        let clash = "M2 d2 rcfit_p0 0 0 nch\nV2 rcfit_p0 0 0.5\n\
                     M3 d3 rcfit1_p1 0 0 nch\nV3 rcfit1_p1 0 0.2\n";
        let second = "V4 a 0 1\nR4 a m1 100\nC4 m1 0 1p\nR5 m1 b 100\nC5 b 0 1p\n\
                      M4 d4 b 0 0 nch\n";
        for (deck, prefixes) in [
            (
                format!("* one\n{ladder}{clash}.model nch nmos()\n.end\n"),
                &["rcfitx_p"][..],
            ),
            (
                format!("* two\n{ladder}{second}{clash}.model nch nmos()\n.end\n"),
                &["rcfitx0_p", "rcfitx1_p"],
            ),
        ] {
            let deck_nodes = parse(&deck).unwrap().node_names();
            let opts = DeckOptions {
                f_max: 100e9,
                tolerance: 0.01,
                ..DeckOptions::default()
            };
            let (prep, red) = reduce(&deck, &opts);
            assert!(red.num_poles() >= 2, "the clash needs pole nodes");
            let (text, _) =
                render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut Telemetry::new());
            let out = parse(&text).unwrap();
            let fresh: Vec<String> = out
                .node_names()
                .into_iter()
                .filter(|n| !deck_nodes.contains(n))
                .collect();
            assert_eq!(fresh.len(), red.num_poles(), "{deck}: {fresh:?}");
            for prefix in prefixes {
                assert!(fresh.iter().any(|n| n.starts_with(prefix)), "{fresh:?}");
            }
            assert!(
                fresh
                    .iter()
                    .all(|n| prefixes.iter().any(|p| n.starts_with(p))),
                "{fresh:?}"
            );
        }
    }

    #[test]
    fn accepted_sparsify_thresholds_keep_the_port_to_port_coupling() {
        // A threshold of 1 turns this ladder's in–out coupling into two
        // resistors to ground, which loses the DC transfer.
        let deck = "* ladder\nR1 in n1 100\nR2 n1 n2 100\nR3 n2 out 100\n\
                    C1 n1 0 1p\nC2 n2 0 2p\nC3 out 0 1p\n.end\n";
        let opts = DeckOptions {
            extra_ports: vec!["in".to_owned(), "out".to_owned()],
            ..DeckOptions::default()
        };
        let prep = prepare_deck(deck, &opts).unwrap();
        let mut session = ReductionSession::new(opts.reduce_options().unwrap());
        let red = reduce_prepared(&prep, &mut session, &opts).unwrap();
        for sparsify in [0.0, opts.sparsify] {
            let (text, _) = render_reduced(&prep, &red, "x", sparsify, &mut Telemetry::new());
            let couples = text.lines().any(|l| {
                let t: Vec<&str> = l.split_whitespace().collect();
                t[0].starts_with('R')
                    && t.len() == 4
                    && t[1..3].contains(&"in")
                    && t[1..3].contains(&"out")
            });
            assert!(couples, "sparsify {sparsify} dropped the in-out resistor");
        }
    }
}
