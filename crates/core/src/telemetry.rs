//! Structured telemetry for the reduction pipeline.
//!
//! Every phase of the PACT flow (parse → extract → sanitize → partition
//! → factor → moments → eigen → projection → emit) records wall time and
//! integer counters into a [`Telemetry`] value that travels with the
//! result instead of being printed ad hoc. `rcfit --trace` renders it as
//! a human-readable table; `--log-json` writes the machine form
//! (schema `rcfit-telemetry-v1`, documented in DESIGN.md).
//!
//! Determinism contract: every field of [`Counters`] and every
//! [`Warning`] is a pure function of the input network and options —
//! never of thread count or timing. `counters_json_string` serializes
//! exactly that deterministic subset, and `par_determinism` asserts it
//! is bit-identical across 1/2/4/8 threads. Wall times are the only
//! non-deterministic content and live solely in `phases`.

use crate::json::Value;

/// Wall time spent in one named pipeline phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (e.g. `"factor"`, `"eigen"`).
    pub name: &'static str,
    /// Wall-clock seconds, summed over repeated entries of the same phase
    /// (per-component reduction runs each phase once per component).
    pub seconds: f64,
}

/// Deterministic integer counters describing what the pipeline did.
///
/// All fields are totals; [`Counters::add`] makes them compose across
/// per-component reductions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Ports in the (sanitized) network handed to the reducer.
    pub num_ports: u64,
    /// Internal nodes in the (sanitized) network handed to the reducer.
    pub num_internal: u64,
    /// Poles retained below the cutoff.
    pub poles_retained: u64,
    /// Poles examined and dropped (above the cutoff).
    pub poles_dropped: u64,
    /// Largest square-matrix dimension factored or decomposed.
    pub peak_matrix_dim: u64,
    /// Nonzeros in the Cholesky factor `L` of `D`.
    pub chol_nnz: u64,
    /// Supernode panels in the Cholesky factor of `D` (0 when the scalar
    /// kernel is selected).
    pub supernode_count: u64,
    /// Widest supernode panel in columns (peak; takes max).
    pub max_panel_cols: u64,
    /// Structural flops of the supernodal numeric factorization — a
    /// function of the sparsity pattern only, so thread-count invariant.
    pub panel_flops: u64,
    /// Pivots replaced by the relief floor (see `PivotPolicy::Perturb`).
    pub perturbed_pivots: u64,
    /// Internal nodes pruned for lacking a resistive path to any port.
    pub pruned_internal_nodes: u64,
    /// Ports with no element connection at all.
    pub disconnected_ports: u64,
    /// Distinct element names that appeared more than once.
    pub duplicate_element_names: u64,
    /// Zero-valued capacitors dropped during sanitization.
    pub zero_value_elements: u64,
    /// Connected components with ports reduced (one reduction each).
    pub components_reduced: u64,
    /// Connected components without ports, dropped unreduced.
    pub floating_islands_dropped: u64,
    /// Pole analyses the Elmore bound proved pole-free, so Lanczos did
    /// not run (`EigenChoice::backend` `"elmore_bound"`).
    pub eigen_certified: u64,
    /// Lanczos iterations across all restarts.
    pub lanczos_iterations: u64,
    /// Operator applications inside Lanczos.
    pub lanczos_matvecs: u64,
    /// Lanczos restarts.
    pub lanczos_restarts: u64,
    /// Vector projections subtracted by Lanczos reorthogonalization and
    /// deflation.
    pub lanczos_reorthogonalizations: u64,
    /// Leaf blocks reduced by the hierarchical strategy.
    pub hier_blocks: u64,
    /// Total separator (interface) nodes across the dissection tree.
    pub hier_separator_nodes: u64,
    /// Internal nodes in the largest leaf block (peak; takes max).
    pub hier_max_block_nodes: u64,
    /// Nodes in the largest single separator (peak; takes max).
    pub hier_max_separator_nodes: u64,
    /// Poles retained across all leaf reductions (before the top pass).
    pub hier_leaf_poles_retained: u64,
    /// Guard-band leaf poles dropped by the per-leaf residue budget (the
    /// two-level leaf path's replacement for blanket cutoff widening).
    pub hier_leaf_trimmed_poles: u64,
    /// Leaf factorizations that reused a symbolic analysis deduplicated
    /// across the leaf fan-out (same-pattern leaves analyze once).
    pub hier_leaf_pattern_reuses: u64,
    /// Leaf blocks with no port/separator boundary, dropped as
    /// unobservable.
    pub hier_portless_blocks_dropped: u64,
    /// Depth of the nested-dissection tree (peak; takes max).
    pub hier_tree_depth: u64,
    /// Degree-2 RC chains collapsed by the series-chain pre-pass
    /// (`pact::extract::collapse_chains`).
    pub chains_collapsed: u64,
    /// Internal nodes eliminated by the chain-collapse pre-pass (chain
    /// interior nodes removed minus re-segmentation nodes added).
    pub nodes_eliminated: u64,
    /// Fresh full sparse-LU factorizations (symbolic + numeric) across
    /// sweep phases (e.g. the `--verify` exact-admittance grid).
    pub factorizations: u64,
    /// Numeric-only refactorizations that reused a cached symbolic
    /// analysis instead of paying a full factorization.
    pub refactorizations: u64,
}

impl Counters {
    /// Field-wise accumulation, except `peak_matrix_dim` which takes the
    /// max (it is a peak, not a total).
    pub fn add(&mut self, other: &Counters) {
        self.num_ports += other.num_ports;
        self.num_internal += other.num_internal;
        self.poles_retained += other.poles_retained;
        self.poles_dropped += other.poles_dropped;
        self.peak_matrix_dim = self.peak_matrix_dim.max(other.peak_matrix_dim);
        self.chol_nnz += other.chol_nnz;
        self.supernode_count += other.supernode_count;
        self.max_panel_cols = self.max_panel_cols.max(other.max_panel_cols);
        self.panel_flops += other.panel_flops;
        self.perturbed_pivots += other.perturbed_pivots;
        self.pruned_internal_nodes += other.pruned_internal_nodes;
        self.disconnected_ports += other.disconnected_ports;
        self.duplicate_element_names += other.duplicate_element_names;
        self.zero_value_elements += other.zero_value_elements;
        self.components_reduced += other.components_reduced;
        self.floating_islands_dropped += other.floating_islands_dropped;
        self.eigen_certified += other.eigen_certified;
        self.lanczos_iterations += other.lanczos_iterations;
        self.lanczos_matvecs += other.lanczos_matvecs;
        self.lanczos_restarts += other.lanczos_restarts;
        self.lanczos_reorthogonalizations += other.lanczos_reorthogonalizations;
        self.hier_blocks += other.hier_blocks;
        self.hier_separator_nodes += other.hier_separator_nodes;
        self.hier_max_block_nodes = self.hier_max_block_nodes.max(other.hier_max_block_nodes);
        self.hier_max_separator_nodes = self
            .hier_max_separator_nodes
            .max(other.hier_max_separator_nodes);
        self.hier_leaf_poles_retained += other.hier_leaf_poles_retained;
        self.hier_leaf_trimmed_poles += other.hier_leaf_trimmed_poles;
        self.hier_leaf_pattern_reuses += other.hier_leaf_pattern_reuses;
        self.hier_portless_blocks_dropped += other.hier_portless_blocks_dropped;
        self.hier_tree_depth = self.hier_tree_depth.max(other.hier_tree_depth);
        self.chains_collapsed += other.chains_collapsed;
        self.nodes_eliminated += other.nodes_eliminated;
        self.factorizations += other.factorizations;
        self.refactorizations += other.refactorizations;
    }

    /// (name, value) pairs in a fixed order — the single source of truth
    /// for both JSON serialization and the `--trace` table.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("num_ports", self.num_ports),
            ("num_internal", self.num_internal),
            ("poles_retained", self.poles_retained),
            ("poles_dropped", self.poles_dropped),
            ("peak_matrix_dim", self.peak_matrix_dim),
            ("chol_nnz", self.chol_nnz),
            ("supernode_count", self.supernode_count),
            ("max_panel_cols", self.max_panel_cols),
            ("panel_flops", self.panel_flops),
            ("perturbed_pivots", self.perturbed_pivots),
            ("pruned_internal_nodes", self.pruned_internal_nodes),
            ("disconnected_ports", self.disconnected_ports),
            ("duplicate_element_names", self.duplicate_element_names),
            ("zero_value_elements", self.zero_value_elements),
            ("components_reduced", self.components_reduced),
            ("floating_islands_dropped", self.floating_islands_dropped),
            ("eigen_certified", self.eigen_certified),
            ("lanczos_iterations", self.lanczos_iterations),
            ("lanczos_matvecs", self.lanczos_matvecs),
            ("lanczos_restarts", self.lanczos_restarts),
            (
                "lanczos_reorthogonalizations",
                self.lanczos_reorthogonalizations,
            ),
            ("hier_blocks", self.hier_blocks),
            ("hier_separator_nodes", self.hier_separator_nodes),
            ("hier_max_block_nodes", self.hier_max_block_nodes),
            ("hier_max_separator_nodes", self.hier_max_separator_nodes),
            ("hier_leaf_poles_retained", self.hier_leaf_poles_retained),
            ("hier_leaf_trimmed_poles", self.hier_leaf_trimmed_poles),
            ("hier_leaf_pattern_reuses", self.hier_leaf_pattern_reuses),
            (
                "hier_portless_blocks_dropped",
                self.hier_portless_blocks_dropped,
            ),
            ("hier_tree_depth", self.hier_tree_depth),
            ("chains_collapsed", self.chains_collapsed),
            ("nodes_eliminated", self.nodes_eliminated),
            ("factorizations", self.factorizations),
            ("refactorizations", self.refactorizations),
        ]
    }

    fn to_json(self) -> Value {
        Value::Obj(
            self.fields()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), Value::num(v as f64)))
                .collect(),
        )
    }
}

/// A recoverable anomaly the pipeline worked around instead of failing.
///
/// Warnings carry node/element attribution so the user can fix the
/// extracted netlist; they are part of the deterministic telemetry
/// subset.
#[derive(Clone, Debug, PartialEq)]
pub enum Warning {
    /// A quasi-singular diagonal pivot of `D` was raised to the relief
    /// floor (D ← D + ΔD with ΔD ⪰ 0 diagonal, which preserves
    /// passivity; see DESIGN.md).
    PerturbedPivot {
        /// Node name owning the pivot.
        node: String,
        /// The offending pivot value.
        pivot: f64,
        /// The floor it was replaced with.
        replaced_with: f64,
    },
    /// An internal node with no resistive path to any port or to ground
    /// was removed before Transform 1 (it would make `D` singular).
    PrunedFloatingInternal {
        /// Node name.
        node: String,
    },
    /// A port with no element connection at all; it contributes an empty
    /// row/column and is reported rather than silently carried.
    DisconnectedPort {
        /// Port node name.
        node: String,
    },
    /// The same element name appeared on multiple cards.
    DuplicateElementName {
        /// The (lower-cased) element name.
        name: String,
        /// How many cards used it.
        count: usize,
    },
    /// A zero-valued capacitor was dropped during sanitization.
    ZeroValueElement {
        /// Element name, when known, else the node pair.
        name: String,
    },
}

impl Warning {
    /// Stable machine-readable discriminant for JSON output and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Warning::PerturbedPivot { .. } => "perturbed_pivot",
            Warning::PrunedFloatingInternal { .. } => "pruned_floating_internal",
            Warning::DisconnectedPort { .. } => "disconnected_port",
            Warning::DuplicateElementName { .. } => "duplicate_element_name",
            Warning::ZeroValueElement { .. } => "zero_value_element",
        }
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![("kind".to_owned(), Value::str(self.kind()))];
        match self {
            Warning::PerturbedPivot {
                node,
                pivot,
                replaced_with,
            } => {
                fields.push(("node".to_owned(), Value::str(node.clone())));
                fields.push(("pivot".to_owned(), Value::num(*pivot)));
                fields.push(("replaced_with".to_owned(), Value::num(*replaced_with)));
            }
            Warning::PrunedFloatingInternal { node } | Warning::DisconnectedPort { node } => {
                fields.push(("node".to_owned(), Value::str(node.clone())));
            }
            Warning::DuplicateElementName { name, count } => {
                fields.push(("name".to_owned(), Value::str(name.clone())));
                fields.push(("count".to_owned(), Value::num(*count as f64)));
            }
            Warning::ZeroValueElement { name } => {
                fields.push(("name".to_owned(), Value::str(name.clone())));
            }
        }
        Value::Obj(fields)
    }
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Warning::PerturbedPivot {
                node,
                pivot,
                replaced_with,
            } => write!(
                f,
                "quasi-singular pivot {pivot:.3e} at node `{node}` raised to {replaced_with:.3e}"
            ),
            Warning::PrunedFloatingInternal { node } => {
                write!(
                    f,
                    "internal node `{node}` has no resistive path to a port; pruned"
                )
            }
            Warning::DisconnectedPort { node } => {
                write!(f, "port `{node}` is not connected to any element")
            }
            Warning::DuplicateElementName { name, count } => {
                write!(f, "element name `{name}` used by {count} cards")
            }
            Warning::ZeroValueElement { name } => {
                write!(f, "zero-valued capacitor `{name}` dropped")
            }
        }
    }
}

/// Which eigen backend served one pole-analysis block, and at what size.
///
/// One record per eigendecomposition the run performed: the flat path
/// emits one, the hierarchical path one per leaf plus one for the top
/// (separator) pass, and per-component reduction one per component.
/// Part of the deterministic telemetry subset — the backend is fixed by
/// the path and the block's values, never by the thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct EigenChoice {
    /// Which block this record describes (`"flat"`, `"leaf3"`, `"top"`,
    /// `"component2"`).
    pub scope: String,
    /// Backend that ran. For flat reductions and hier's top pass:
    /// `"elmore_bound"` when the Elmore bound proved the block pole-free
    /// (`pact::elmore_bound`), else `"lanczos"`, and `"none"` for a block
    /// without internal nodes. For a hier leaf: `"schur"` (the two-level
    /// path: Gram eigenanalysis on the factored Schur complement, residues
    /// read off the moment panel) or `"dense"` (QL, when its capacitance
    /// is not a low-rank stamp).
    pub backend: &'static str,
    /// Dimension of the internal block the backend decomposed.
    pub dim: u64,
    /// Poles the backend retained below the cutoff.
    pub poles: u64,
    /// The Elmore bound over the cutoff, `τ̄/λ_c`, when it was computed:
    /// below 1 on `"elmore_bound"` blocks, and on `"lanczos"` blocks it
    /// says how far the bound missed.
    pub elmore_ratio: Option<f64>,
}

impl EigenChoice {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("scope".to_owned(), Value::str(self.scope.clone())),
            ("backend".to_owned(), Value::str(self.backend)),
            ("dim".to_owned(), Value::num(self.dim as f64)),
            ("poles".to_owned(), Value::num(self.poles as f64)),
        ];
        if let Some(r) = self.elmore_ratio {
            fields.push(("elmore_ratio".to_owned(), Value::num(r)));
        }
        Value::obj(fields)
    }
}

/// The telemetry record for one pipeline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    /// Per-phase wall times in first-appearance order.
    pub phases: Vec<PhaseTiming>,
    /// Deterministic counters.
    pub counters: Counters,
    /// Deterministic warnings, in pipeline order.
    pub warnings: Vec<Warning>,
    /// Eigen backend chosen for each pole-analysis block, in pipeline
    /// order.
    pub eigen_choices: Vec<EigenChoice>,
}

impl Telemetry {
    /// Creates an empty record.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Adds `seconds` to the phase named `name`, creating it on first
    /// use. Repeated phases sum so per-component runs aggregate.
    pub fn record_phase(&mut self, name: &'static str, seconds: f64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => p.seconds += seconds,
            None => self.phases.push(PhaseTiming { name, seconds }),
        }
    }

    /// Runs `f`, recording its wall time under `name`, and returns its
    /// result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record_phase(name, start.elapsed().as_secs_f64());
        out
    }

    /// Records a warning.
    pub fn warn(&mut self, warning: Warning) {
        self.warnings.push(warning);
    }

    /// Records which eigen backend served one pole-analysis block, with
    /// the Elmore bound's `τ̄/λ_c` when it was computed.
    pub fn record_eigen_choice(
        &mut self,
        scope: impl Into<String>,
        backend: &'static str,
        dim: usize,
        poles: usize,
        elmore_ratio: Option<f64>,
    ) {
        self.eigen_choices.push(EigenChoice {
            scope: scope.into(),
            backend,
            dim: dim as u64,
            poles: poles as u64,
            elmore_ratio,
        });
    }

    /// Merges another record into this one: phase times sum by name,
    /// counters accumulate, warnings and eigen choices append.
    pub fn absorb(&mut self, other: &Telemetry) {
        for p in &other.phases {
            self.record_phase(p.name, p.seconds);
        }
        self.counters.add(&other.counters);
        self.warnings.extend(other.warnings.iter().cloned());
        self.eigen_choices
            .extend(other.eigen_choices.iter().cloned());
    }

    /// The full machine-readable document (schema `rcfit-telemetry-v1`).
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("schema".to_owned(), Value::str("rcfit-telemetry-v1")),
            (
                "phases".to_owned(),
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Value::obj(vec![
                                ("name".to_owned(), Value::str(p.name)),
                                ("seconds".to_owned(), Value::num(p.seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("counters".to_owned(), self.counters.to_json()),
            (
                "warnings".to_owned(),
                Value::Arr(self.warnings.iter().map(Warning::to_json).collect()),
            ),
            (
                "eigen_choices".to_owned(),
                Value::Arr(
                    self.eigen_choices
                        .iter()
                        .map(EigenChoice::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes only the deterministic subset (counters + warnings +
    /// eigen choices, no timings). Bit-identical across thread counts by
    /// the crate's determinism contract; `par_determinism` asserts
    /// exactly this string.
    pub fn counters_json_string(&self) -> String {
        Value::obj(vec![
            ("counters".to_owned(), self.counters.to_json()),
            (
                "warnings".to_owned(),
                Value::Arr(self.warnings.iter().map(Warning::to_json).collect()),
            ),
            (
                "eigen_choices".to_owned(),
                Value::Arr(
                    self.eigen_choices
                        .iter()
                        .map(EigenChoice::to_json)
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Renders the human-readable `--trace` table.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        out.push_str("phase            seconds\n");
        let mut total = 0.0;
        for p in &self.phases {
            out.push_str(&format!("  {:<14} {:>10.6}\n", p.name, p.seconds));
            total += p.seconds;
        }
        out.push_str(&format!("  {:<14} {:>10.6}\n", "total", total));
        out.push_str("counters\n");
        for (name, v) in self.counters.fields() {
            if v != 0 {
                out.push_str(&format!("  {name:<28} {v}\n"));
            }
        }
        if !self.eigen_choices.is_empty() {
            out.push_str("eigen backends\n");
            for c in &self.eigen_choices {
                out.push_str(&format!(
                    "  {:<14} {:<12} dim={} poles={}",
                    c.scope, c.backend, c.dim, c.poles
                ));
                if let Some(r) = c.elmore_ratio {
                    out.push_str(&format!(" tau/lambda_c={r:.3}"));
                }
                out.push('\n');
            }
        }
        if !self.warnings.is_empty() {
            out.push_str("warnings\n");
            for w in &self.warnings {
                out.push_str(&format!("  [{}] {w}\n", w.kind()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_sum_by_name_in_first_appearance_order() {
        let mut t = Telemetry::new();
        t.record_phase("factor", 0.5);
        t.record_phase("eigen", 1.0);
        t.record_phase("factor", 0.25);
        assert_eq!(t.phases.len(), 2);
        assert_eq!(t.phases[0].name, "factor");
        assert_eq!(t.phases[0].seconds, 0.75);
        assert_eq!(t.phases[1].name, "eigen");
    }

    #[test]
    fn absorb_merges_phases_counters_warnings() {
        let mut a = Telemetry::new();
        a.record_phase("factor", 1.0);
        a.counters.poles_retained = 3;
        a.counters.peak_matrix_dim = 10;
        let mut b = Telemetry::new();
        b.record_phase("factor", 2.0);
        b.record_phase("eigen", 4.0);
        b.counters.poles_retained = 2;
        b.counters.peak_matrix_dim = 50;
        b.warn(Warning::DisconnectedPort { node: "p3".into() });
        a.absorb(&b);
        assert_eq!(a.phases[0].seconds, 3.0);
        assert_eq!(a.phases[1].name, "eigen");
        assert_eq!(a.counters.poles_retained, 5);
        assert_eq!(a.counters.peak_matrix_dim, 50, "peaks take max, not sum");
        assert_eq!(a.warnings.len(), 1);
    }

    #[test]
    fn json_document_roundtrips_and_carries_schema() {
        let mut t = Telemetry::new();
        t.record_phase("parse", 0.001);
        t.counters.num_ports = 4;
        t.warn(Warning::PerturbedPivot {
            node: "n17".into(),
            pivot: 1e-30,
            replaced_with: 1e-12,
        });
        let doc = t.to_json();
        let text = doc.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("schema").unwrap().as_str().unwrap(),
            "rcfit-telemetry-v1"
        );
        let counters = back.get("counters").unwrap();
        assert_eq!(counters.get("num_ports").unwrap().as_f64().unwrap(), 4.0);
        let warnings = back.get("warnings").unwrap().as_arr().unwrap();
        assert_eq!(
            warnings[0].get("kind").unwrap().as_str().unwrap(),
            "perturbed_pivot"
        );
        assert_eq!(warnings[0].get("node").unwrap().as_str().unwrap(), "n17");
    }

    #[test]
    fn counters_json_excludes_timings() {
        let mut t = Telemetry::new();
        t.record_phase("factor", 123.0);
        t.counters.chol_nnz = 99;
        let s = t.counters_json_string();
        assert!(!s.contains("seconds"), "timings must not leak: {s}");
        assert!(s.contains("\"chol_nnz\":99"));
    }

    #[test]
    fn eigen_choices_serialize_and_absorb() {
        let mut a = Telemetry::new();
        a.record_eigen_choice("flat", "lanczos", 12, 3, Some(2.5));
        let mut b = Telemetry::new();
        b.record_eigen_choice("leaf0", "schur", 900, 17, None);
        a.absorb(&b);
        assert_eq!(a.eigen_choices.len(), 2);
        assert_eq!(a.eigen_choices[1].scope, "leaf0");
        let s = a.counters_json_string();
        assert!(s.contains("\"backend\":\"schur\""), "{s}");
        assert!(s.contains("\"scope\":\"leaf0\""), "{s}");
        assert!(s.contains("\"elmore_ratio\":2.5"), "{s}");
        assert_eq!(
            s.matches("elmore_ratio").count(),
            1,
            "absent ratios stay out: {s}"
        );
        let doc = a.to_json();
        let back = Value::parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
        let trace = a.render_trace();
        assert!(trace.contains("eigen backends"), "{trace}");
        assert!(trace.contains("lanczos"), "{trace}");
        assert!(trace.contains("tau/lambda_c=2.500"), "{trace}");
    }

    #[test]
    fn trace_render_lists_phases_and_nonzero_counters() {
        let mut t = Telemetry::new();
        t.record_phase("eigen", 0.5);
        t.counters.poles_retained = 7;
        t.warn(Warning::ZeroValueElement { name: "c4".into() });
        let s = t.render_trace();
        assert!(s.contains("eigen"));
        assert!(s.contains("poles_retained"));
        assert!(!s.contains("chol_nnz"), "zero counters are elided");
        assert!(s.contains("zero_value_element"));
    }
}
