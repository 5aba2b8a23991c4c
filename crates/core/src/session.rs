//! A reusable reduction session: cached symbolic analyses shared across
//! reductions.
//!
//! Reducing many decks of the same extraction flow repeats the same
//! sparsity patterns over and over — the expensive symbolic Cholesky
//! analysis (ordering + elimination tree + fill pattern) of each pattern
//! only needs to happen once. [`ReductionSession`] owns a
//! pattern-keyed cache of [`SymbolicCholesky`] analyses; every reduction
//! path (flat and hierarchical per-leaf) runs through it. A one-shot
//! [`crate::reduce`] call is just a throwaway session.
//!
//! Determinism contract: a cache hit replays the cached permutation and
//! fill pattern through [`SymbolicCholesky::refactor`], which is
//! bit-identical to a fresh factorization of the same values (the
//! nested-dissection ordering is a function of the pattern alone — see
//! `pact_sparse`). Warm and
//! cold sessions therefore produce bit-identical reduced models; only
//! the `factorizations`/`refactorizations` telemetry counters differ.

use std::sync::Arc;
use std::time::Instant;

use pact_lanczos::LanczosStats;
use pact_netlist::{RcNetwork, Stamped};
use pact_sparse::{
    CsrMat, DMat, FactorDiagnostics, FactorError, ParCtx, PivotPolicy, SparseCholesky,
    SymbolicCholesky,
};

use crate::backend::{self, EigenSolution};
use crate::lru::LruCache;
use crate::model::ReducedModel;
use crate::partition::Partitions;
use crate::reduce::{
    remap_factor_index, ComponentReduction, ReduceError, ReduceOptions, ReduceStrategy, Reduction,
    ReductionStats,
};
use crate::telemetry::{Telemetry, Warning};
use crate::transform::{lane_scratch_bytes, Transform1};

/// Cached symbolic analyses the session keeps at most (default).
const CACHE_CAP: usize = 64;

/// One cached analysis, keyed by its pattern fingerprint, as handed
/// between sessions (hier leaf workers report what they learned as a
/// list of these).
pub(crate) type CacheEntry = (u64, Arc<SymbolicCholesky>);

/// A pattern-keyed, bounded-LRU store of symbolic Cholesky analyses,
/// built on the shared [`LruCache`] machinery.
///
/// Lookup compares the stored 64-bit pattern fingerprint — O(1) per
/// candidate, the point of the fingerprint — and then verifies the
/// exact pattern ([`SymbolicCholesky::matches`]) before trusting the
/// hit, so an FNV-1a collision between different patterns (~2⁻⁶⁴ per
/// pair) falls through to a fresh analysis whose insert *replaces* the
/// colliding entry (newest wins) instead of poisoning the cache.
#[derive(Clone)]
pub(crate) struct SymbolicCache {
    lru: LruCache<u64, Arc<SymbolicCholesky>>,
}

impl Default for SymbolicCache {
    fn default() -> SymbolicCache {
        SymbolicCache::with_capacity(CACHE_CAP)
    }
}

impl SymbolicCache {
    pub(crate) fn with_capacity(cap: usize) -> SymbolicCache {
        SymbolicCache {
            lru: LruCache::new(cap),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lru.len()
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.lru.evictions()
    }

    pub(crate) fn lookup(&mut self, key: u64, a: &CsrMat) -> Option<Arc<SymbolicCholesky>> {
        self.lru.get_if(&key, |sym| sym.matches(a)).map(Arc::clone)
    }

    pub(crate) fn insert(&mut self, key: u64, sym: Arc<SymbolicCholesky>) {
        self.lru.insert(key, sym);
    }

    /// Merges entries learned elsewhere (same-key entries replace).
    pub(crate) fn extend(&mut self, entries: Vec<CacheEntry>) {
        for (key, sym) in entries {
            self.lru.insert(key, sym);
        }
    }

    /// Factors `d`, replaying a cached symbolic analysis of its pattern
    /// when there is one (bit-identical to a fresh factor) and caching a
    /// fresh one otherwise. The flag says whether the cache served it.
    /// The key is the fingerprint `d` computed at construction, so a
    /// lookup is O(1) rather than a rehash of the index arrays.
    pub(crate) fn factor(
        &mut self,
        d: &CsrMat,
        policy: PivotPolicy,
    ) -> Result<(SparseCholesky, FactorDiagnostics, bool), FactorError> {
        let key = d.pattern_key();
        if let Some(sym) = self.lookup(key, d) {
            let (chol, diag) = sym.refactor(d, policy)?;
            return Ok((chol, diag, true));
        }
        let (chol, diag, sym) = SparseCholesky::factor_analyzed(d, policy)?;
        self.insert(key, Arc::new(sym));
        Ok((chol, diag, false))
    }
}

/// A reusable reduction context: options plus the symbolic-analysis
/// cache shared by every reduction it runs.
///
/// ```
/// use pact::{CutoffSpec, ReduceOptions, ReductionSession};
/// use pact_netlist::{extract_rc, parse};
///
/// let deck = "* rc\nV1 a 0 1\nM1 x b 0 0 n\n.model n nmos()\n\
///             R1 a m 50\nR2 m b 50\nC1 m 0 1p\n.end\n";
/// let net = extract_rc(&parse(deck)?, &[])?.network;
/// let opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05)?);
/// let mut session = ReductionSession::new(opts);
/// // Same-topology decks after the first reuse the symbolic analysis.
/// let reductions = session.reduce_batch(&[net.clone(), net])?;
/// assert_eq!(reductions.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ReductionSession {
    opts: ReduceOptions,
    cache: SymbolicCache,
}

// A session is owned by one serving worker at a time and moves between
// threads (the `rcfitd` daemon keeps a pool of warm sessions per worker);
// the symbolic analyses it caches are shared read-only across sessions.
// Everything inside is plain owned storage (`Vec`s behind `Arc`s), so
// these hold structurally — the assertions pin the contract so a future
// field with interior mutability fails to compile here, not in the
// daemon.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<ReductionSession>();
    assert_send_sync::<SymbolicCache>();
    assert_send_sync::<SymbolicCholesky>();
};

impl ReductionSession {
    /// Creates a session with an empty cache.
    pub fn new(opts: ReduceOptions) -> ReductionSession {
        ReductionSession {
            opts,
            cache: SymbolicCache::default(),
        }
    }

    /// Creates a session whose symbolic cache holds at most `cap`
    /// patterns (least-recently-used eviction). Long-running servers pin
    /// this to bound per-worker memory; the default is 64.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(opts: ReduceOptions, cap: usize) -> ReductionSession {
        ReductionSession {
            opts,
            cache: SymbolicCache::with_capacity(cap),
        }
    }

    /// The options every reduction in this session runs under.
    pub fn options(&self) -> &ReduceOptions {
        &self.opts
    }

    /// Number of symbolic analyses currently cached.
    pub fn cached_patterns(&self) -> usize {
        self.cache.len()
    }

    /// Symbolic analyses evicted from the cache by capacity pressure
    /// since the session was created. A re-reduction of an evicted
    /// pattern pays the full analysis again (counted in the
    /// `factorizations` telemetry counter, not `refactorizations`).
    pub fn pattern_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// A snapshot of the cache (cheap: shared `Arc`s).
    pub(crate) fn cache_snapshot(&self) -> SymbolicCache {
        self.cache.clone()
    }

    /// Merges cache entries learned by child sessions.
    pub(crate) fn cache_extend(&mut self, entries: Vec<CacheEntry>) {
        self.cache.extend(entries);
    }

    /// Reduces stamped network matrices (see [`crate::reduce`]).
    ///
    /// # Errors
    ///
    /// See [`ReduceError`].
    pub fn reduce(
        &mut self,
        stamped: &Stamped,
        port_names: &[String],
    ) -> Result<Reduction, ReduceError> {
        self.reduce_stamped_scoped(stamped, port_names, &|i| format!("internal#{i}"), "flat")
    }

    /// Reduces a network with the strategy selected in the session's
    /// options (see [`crate::reduce_network`]).
    ///
    /// # Errors
    ///
    /// See [`ReduceError`].
    pub fn reduce_network(&mut self, network: &RcNetwork) -> Result<Reduction, ReduceError> {
        match self.opts.strategy {
            ReduceStrategy::Flat => self.reduce_network_flat(network, "flat"),
            ReduceStrategy::Hierarchical {
                max_block,
                max_depth,
            } => crate::hier::reduce_network_hier(self, network, max_block, max_depth),
        }
    }

    /// Reduces a batch of decks, amortizing symbolic analysis across
    /// same-topology networks: after the first deck of a given sparsity
    /// pattern, the rest pay only the numeric refactorization.
    ///
    /// # Errors
    ///
    /// See [`ReduceError`]; the first failing deck aborts the batch.
    pub fn reduce_batch(&mut self, networks: &[RcNetwork]) -> Result<Vec<Reduction>, ReduceError> {
        networks
            .iter()
            .map(|net| self.reduce_network(net))
            .collect()
    }

    /// Reduces each connected component with ports independently, and
    /// counts the components without ports, which no port can observe,
    /// as dropped.
    ///
    /// Real layouts contain many electrically independent nets (the
    /// paper's multiplier parasitics are thousands of separate RC trees);
    /// reducing them one at a time keeps every eigenproblem and dense
    /// port block as small as its component. A flat reduction stamps each
    /// component straight from `network` ([`pact_netlist::Components`]);
    /// only its port names are copied.
    ///
    /// # Errors
    ///
    /// See [`ReduceError`]; the first failing component aborts.
    pub fn reduce_network_components(
        &mut self,
        network: &RcNetwork,
    ) -> Result<ComponentReduction, ReduceError> {
        let comps = network.components();
        let ctx = ParCtx::new(self.opts.threads);
        let mut reductions: Vec<Reduction> = Vec::new();
        let mut floating = 0usize;
        for k in 0..comps.len() {
            let m = comps.num_ports(k);
            if m == 0 {
                floating += 1;
                continue;
            }
            let nodes = comps.nodes(k);
            let index = reductions.len();
            let red = match self.opts.strategy {
                ReduceStrategy::Flat => {
                    let start = Instant::now();
                    let parts = Partitions::split(&comps.stamp(network, k));
                    let names = &network.node_names;
                    self.reduce_parts(
                        FlatRun {
                            start,
                            port_names: nodes[..m].iter().map(|&v| names[v].clone()).collect(),
                            internal_name: &|i| names[nodes[m + i]].clone(),
                            scope: format!("component{index}:flat"),
                            ctx: &ctx,
                        },
                        parts,
                    )
                }
                ReduceStrategy::Hierarchical { .. } => self
                    .reduce_network(&comps.network(network, k))
                    .map(|mut red| {
                        for c in &mut red.telemetry.eigen_choices {
                            c.scope = format!("component{index}:{}", c.scope);
                        }
                        red
                    }),
            };
            let parent_internal = |i: usize| nodes.get(m + i).map_or(i, |&v| v - network.num_ports);
            reductions.push(red.map_err(|e| remap_factor_index(e, parent_internal))?);
        }
        Ok(ComponentReduction {
            reductions,
            floating_dropped: floating,
        })
    }

    /// The flat reduction of one network, with warnings attributed to
    /// real node names and eigen choices recorded under `scope`.
    pub(crate) fn reduce_network_flat(
        &mut self,
        network: &RcNetwork,
        scope: &str,
    ) -> Result<Reduction, ReduceError> {
        let start = Instant::now();
        let parts = Partitions::split(&network.stamp());
        let names = &network.node_names;
        let m = network.num_ports;
        self.reduce_parts(
            FlatRun {
                start,
                port_names: names[..m].to_vec(),
                internal_name: &|i| names[m + i].clone(),
                scope: scope.to_owned(),
                ctx: &ParCtx::new(self.opts.threads),
            },
            parts,
        )
    }

    /// The flat reduction of stamped matrices, with warnings attributed
    /// through `internal_name` and eigen choices recorded under `scope`.
    pub(crate) fn reduce_stamped_scoped(
        &mut self,
        stamped: &Stamped,
        port_names: &[String],
        internal_name: &dyn Fn(usize) -> String,
        scope: &str,
    ) -> Result<Reduction, ReduceError> {
        let start = Instant::now();
        let parts = Partitions::split(stamped);
        self.reduce_parts(
            FlatRun {
                start,
                port_names: port_names.to_vec(),
                internal_name,
                scope: scope.to_owned(),
                ctx: &ParCtx::new(self.opts.threads),
            },
            parts,
        )
    }

    /// The flat reduction body shared by every entry point: (cached)
    /// factor → moments → pole analysis → projection. The pole analysis
    /// is the Elmore certificate ([`backend::elmore_bound`]) and, when it
    /// does not prove the block pole-free, block Lanczos. A block without
    /// internal nodes is its own model: `A' = A`, `B' = B`.
    fn reduce_parts(
        &mut self,
        run: FlatRun<'_>,
        parts: Partitions,
    ) -> Result<Reduction, ReduceError> {
        let FlatRun {
            start,
            port_names,
            internal_name,
            scope,
            ctx,
        } = run;
        let mut tel = Telemetry::new();
        tel.record_phase("partition", start.elapsed().as_secs_f64());
        if parts.n == 0 {
            let (mut a1, mut b1) = (parts.a.to_dense(), parts.b.to_dense());
            a1.symmetrize();
            b1.symmetrize();
            let m = parts.m;
            let model = ReducedModel {
                a1,
                b1,
                r2: DMat::zeros(0, m),
                lambdas: Vec::new(),
                port_names,
            };
            tel.record_eigen_choice(scope, "none", 0, 0, None);
            return Ok(finish_reduction(
                tel,
                start,
                model,
                0,
                0,
                0,
                2 * m * m * 8,
                None,
            ));
        }

        let policy = match self.opts.pivot_relief {
            Some(rel_threshold) => PivotPolicy::Perturb { rel_threshold },
            None => PivotPolicy::Error,
        };
        let factor_start = Instant::now();
        let factored = self.cache.factor(&parts.d, policy);
        tel.record_phase("factor", factor_start.elapsed().as_secs_f64());
        let (chol, diag, cache_hit) = factored?;
        for p in &diag.perturbed {
            tel.warn(Warning::PerturbedPivot {
                node: internal_name(p.index),
                pivot: p.original,
                replaced_with: p.replaced_with,
            });
        }
        tel.counters.perturbed_pivots = diag.perturbed.len() as u64;
        if cache_hit {
            tel.counters.refactorizations = 1;
        } else {
            tel.counters.factorizations = 1;
        }
        tel.counters.supernode_count = chol.supernode_count() as u64;
        tel.counters.max_panel_cols = chol.max_panel_cols() as u64;
        tel.counters.panel_flops = chol.panel_flops();

        let t1 = tel.time("moments", || Transform1::with_factor(&parts, chol, ctx));
        let lambda_c = self.opts.cutoff.lambda_c();

        let eigen_start = Instant::now();
        let tau = backend::elmore_bound(&t1.chol, &diag, &parts);
        let certified = tau.is_some_and(|t| backend::certifies_pole_free(t, lambda_c, parts.n));
        let poles = if certified {
            Ok(EigenSolution::default())
        } else {
            backend::lanczos_poles(&t1, &parts, lambda_c, ctx)
        };
        tel.record_phase("eigen", eigen_start.elapsed().as_secs_f64());
        let sol = poles?;
        let backend = if certified { "elmore_bound" } else { "lanczos" };
        let ratio = tau.map(|t| t / lambda_c);
        tel.record_eigen_choice(scope, backend, parts.n, sol.lambdas.len(), ratio);
        tel.counters.eigen_certified = u64::from(certified);

        let r2 = tel.time("projection", || t1.r2_rows_ctx(&parts, &sol.vectors, ctx));
        let eigen_vectors = eigen_peak_vectors(&sol);
        let (m, n) = (parts.m, parts.n);
        let k = sol.lambdas.len();
        let chol_memory = t1.chol.memory_bytes();
        let chol_nnz = t1.chol.l_nnz();
        let modelled = chol_memory
            + 2 * m * m * 8              // A', B'
            + t1.x_s_bytes()             // X_S panel
            + eigen_vectors * n * 8      // Lanczos basis and buffers / Ritz vectors
            + k * m * 8                  // R''
            + ctx.threads() * lane_scratch_bytes(n); // lane panels per worker
        let Transform1 { a1, b1, .. } = t1;
        let model = ReducedModel {
            a1,
            b1,
            r2,
            lambdas: sol.lambdas,
            port_names,
        };
        Ok(finish_reduction(
            tel,
            start,
            model,
            n,
            chol_nnz,
            chol_memory,
            modelled,
            sol.lanczos,
        ))
    }
}

/// What a flat reduction carries besides its partitions: its start time
/// (its partition phase ran from there), the names it reports under, and
/// the resolved worker pool.
struct FlatRun<'a> {
    start: Instant,
    port_names: Vec<String>,
    internal_name: &'a dyn Fn(usize) -> String,
    scope: String,
    ctx: &'a ParCtx,
}

/// Length-`n` vectors the pole analysis held at its peak: the whole
/// Lanczos basis when Lanczos ran (`LanczosStats::peak_vectors`, which
/// covers the returned Ritz vectors), else just the returned vectors.
pub(crate) fn eigen_peak_vectors(sol: &backend::EigenSolution) -> usize {
    sol.lanczos
        .as_ref()
        .map_or(0, |ls| ls.peak_vectors)
        .max(sol.vectors.len())
}

/// Packages a finished reduction: statistics plus the shared counter
/// block (sizes, pole counts, Lanczos work) every path reports the same
/// way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_reduction(
    mut tel: Telemetry,
    start: Instant,
    model: ReducedModel,
    num_internal: usize,
    chol_nnz: usize,
    chol_memory_bytes: usize,
    modelled_memory_bytes: usize,
    lanczos: Option<LanczosStats>,
) -> Reduction {
    let m = model.port_names.len();
    let k = model.lambdas.len();
    let stats = ReductionStats {
        num_ports: m,
        num_internal,
        poles_retained: k,
        elapsed_seconds: start.elapsed().as_secs_f64(),
        chol_nnz,
        chol_memory_bytes,
        modelled_memory_bytes,
        lanczos,
    };

    let c = &mut tel.counters;
    c.num_ports = m as u64;
    c.num_internal = num_internal as u64;
    c.poles_retained = k as u64;
    c.poles_dropped = num_internal.saturating_sub(k) as u64;
    c.peak_matrix_dim = (m + num_internal) as u64;
    c.chol_nnz = chol_nnz as u64;
    if let Some(ls) = &stats.lanczos {
        c.lanczos_iterations = ls.iterations as u64;
        c.lanczos_matvecs = ls.matvecs as u64;
        c.lanczos_restarts = ls.restarts as u64;
        c.lanczos_reorthogonalizations = ls.orthogonalizations as u64;
    }

    Reduction {
        model,
        stats,
        telemetry: tel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffSpec;
    use pact_netlist::{extract_rc, parse};

    fn ladder(nseg: usize, r_total: f64, c_total: f64) -> RcNetwork {
        let mut deck = String::from("* l\nV1 p0 0 1\nM1 q pN 0 0 n\n.model n nmos()\n");
        for i in 0..nseg {
            let a = if i == 0 { "p0".into() } else { format!("n{i}") };
            let b = if i == nseg - 1 {
                "pN".into()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!(
                "R{i} {a} {b} {}\nC{i} {b} 0 {}\n",
                r_total / nseg as f64,
                c_total / nseg as f64
            ));
        }
        extract_rc(&parse(&deck).unwrap(), &[]).unwrap().network
    }

    #[test]
    fn warm_session_is_bit_identical_and_counts_refactorizations() {
        let net_a = ladder(40, 250.0, 1.35e-12);
        let net_b = ladder(40, 180.0, 0.9e-12); // same topology, new values
        let opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05).unwrap());

        let mut session = ReductionSession::new(opts.clone());
        let first = session.reduce_network(&net_a).unwrap();
        assert_eq!(session.cached_patterns(), 1);
        assert_eq!(first.telemetry.counters.factorizations, 1);
        assert_eq!(first.telemetry.counters.refactorizations, 0);

        let warm = session.reduce_network(&net_b).unwrap();
        assert_eq!(warm.telemetry.counters.factorizations, 0);
        assert_eq!(warm.telemetry.counters.refactorizations, 1);

        // Cold reduction of the same deck must be bit-identical.
        let cold = ReductionSession::new(opts).reduce_network(&net_b).unwrap();
        assert_eq!(warm.model.lambdas, cold.model.lambdas);
        assert_eq!(warm.model.a1.as_slice(), cold.model.a1.as_slice());
        assert_eq!(warm.model.b1.as_slice(), cold.model.b1.as_slice());
        assert_eq!(warm.model.r2.as_slice(), cold.model.r2.as_slice());
    }

    #[test]
    fn modelled_memory_covers_the_lane_panels_of_every_worker() {
        // Each worker of the moment fan-out holds right-hand sides,
        // solutions and the blocked-solve workspace, n×LANES each.
        let net = ladder(40, 250.0, 1.35e-12);
        let n = net.num_internal();
        let mut opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05).unwrap());
        let mut modelled = Vec::new();
        for threads in [1, 2] {
            opts.threads = Some(threads);
            let red = ReductionSession::new(opts.clone())
                .reduce_network(&net)
                .unwrap();
            let lanes = threads * 3 * pact_sparse::LANES * n * 8;
            assert!(
                red.stats.modelled_memory_bytes >= red.stats.chol_memory_bytes + lanes,
                "{threads} worker(s): {} modelled bytes miss the {lanes} of lane panels",
                red.stats.modelled_memory_bytes
            );
            modelled.push(red.stats.modelled_memory_bytes);
        }
        assert_eq!(modelled[1] - modelled[0], 3 * pact_sparse::LANES * n * 8);
    }

    #[test]
    fn batch_reuses_one_symbolic_analysis_per_topology() {
        let decks: Vec<RcNetwork> = (0..5)
            .map(|i| ladder(30, 200.0 + 10.0 * i as f64, 1e-12))
            .collect();
        let opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05).unwrap());
        let mut session = ReductionSession::new(opts.clone());
        let reds = session.reduce_batch(&decks).unwrap();
        assert_eq!(reds.len(), 5);
        assert_eq!(session.cached_patterns(), 1);
        for (k, (deck, warm)) in decks.iter().zip(&reds).enumerate() {
            let cold = ReductionSession::new(opts.clone())
                .reduce_network(deck)
                .unwrap();
            assert_eq!(warm.model.a1, cold.model.a1, "deck {k}: A' differs");
            assert_eq!(warm.model.b1, cold.model.b1, "deck {k}: B' differs");
            assert_eq!(
                warm.model.lambdas, cold.model.lambdas,
                "deck {k}: poles differ"
            );
            assert_eq!(warm.model.r2, cold.model.r2, "deck {k}: R'' differs");
        }
        let fresh: u64 = reds
            .iter()
            .map(|r| r.telemetry.counters.factorizations)
            .sum();
        let reused: u64 = reds
            .iter()
            .map(|r| r.telemetry.counters.refactorizations)
            .sum();
        assert_eq!(fresh, 1);
        assert_eq!(reused, 4);
    }

    #[test]
    fn eigen_choice_is_recorded_per_block() {
        let net = ladder(30, 250.0, 1.35e-12);
        let opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05).unwrap());
        let red = ReductionSession::new(opts).reduce_network(&net).unwrap();
        assert_eq!(red.telemetry.eigen_choices.len(), 1);
        let c = &red.telemetry.eigen_choices[0];
        assert_eq!(c.scope, "flat");
        assert_eq!(c.dim, net.num_internal() as u64);
        assert_eq!(c.poles, red.model.num_poles() as u64);
    }

    #[test]
    fn symbolic_cache_evicts_least_recently_used_under_cap_pressure() {
        let opts = ReduceOptions::new(CutoffSpec::new(5e9, 0.05).unwrap());
        let mut s = ReductionSession::with_capacity(opts, 2);
        let net_a = ladder(20, 200.0, 1.0e-12);
        let net_b = ladder(25, 200.0, 1.0e-12);
        let net_c = ladder(30, 200.0, 1.0e-12);

        s.reduce_network(&net_a).unwrap(); // cache: [A]
        s.reduce_network(&net_b).unwrap(); // cache: [A, B]
        assert_eq!(s.cached_patterns(), 2);

        // Touch A so B — not first-inserted A — is least recently used.
        let warm_a = s.reduce_network(&net_a).unwrap();
        assert_eq!(warm_a.telemetry.counters.refactorizations, 1);

        s.reduce_network(&net_c).unwrap(); // evicts B: cache [A, C]
        assert_eq!(s.cached_patterns(), 2);
        assert_eq!(s.pattern_evictions(), 1);

        // A survived the eviction (LRU, not FIFO): still a warm hit.
        let warm_a2 = s.reduce_network(&net_a).unwrap();
        assert_eq!(warm_a2.telemetry.counters.factorizations, 0);
        assert_eq!(warm_a2.telemetry.counters.refactorizations, 1);

        // B was evicted: re-reduction pays the full symbolic analysis
        // again and is counted in `factorizations`.
        let re_b = s.reduce_network(&net_b).unwrap();
        assert_eq!(re_b.telemetry.counters.factorizations, 1);
        assert_eq!(re_b.telemetry.counters.refactorizations, 0);
        assert_eq!(s.pattern_evictions(), 2, "inserting B evicted C");
    }

    #[test]
    fn fingerprint_collision_falls_through_exact_match_and_replaces() {
        let net_a = ladder(10, 100.0, 1e-12);
        let net_b = ladder(16, 100.0, 1e-12);
        let da = Partitions::split(&net_a.stamp()).d;
        let db = Partitions::split(&net_b.stamp()).d;
        let factor = |d: &CsrMat| {
            let (_, _, sym) = SparseCholesky::factor_analyzed(d, PivotPolicy::Error).unwrap();
            Arc::new(sym)
        };

        // Forge an FNV-1a collision: store A's analysis under B's
        // fingerprint. The exact `matches` verification must reject it.
        let mut cache = SymbolicCache::with_capacity(4);
        cache.insert(db.pattern_key(), factor(&da));
        assert!(
            cache.lookup(db.pattern_key(), &db).is_none(),
            "a colliding fingerprint must fall through the exact pattern check"
        );

        // The fresh analysis of B then *replaces* the colliding entry
        // (newest wins) instead of being shadowed by it forever.
        cache.insert(db.pattern_key(), factor(&db));
        assert_eq!(cache.len(), 1, "collision resolves by replacement");
        assert!(cache.lookup(db.pattern_key(), &db).is_some());
    }
}
