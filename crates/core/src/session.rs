//! A reusable reduction session: cached symbolic analyses plus scratch
//! arenas shared across reductions.
//!
//! Reducing many decks of the same extraction flow repeats the same
//! sparsity patterns over and over — the expensive symbolic Cholesky
//! analysis (ordering + elimination tree + fill pattern) of each pattern
//! only needs to happen once. [`ReductionSession`] owns a
//! pattern-keyed cache of [`SymbolicCholesky`] analyses and a pool of
//! scratch buffers; every reduction path (flat, hierarchical per-leaf,
//! matrix-free) runs through it. A one-shot [`crate::reduce`] call is
//! just a throwaway session.
//!
//! Determinism contract: a cache hit replays the cached permutation and
//! fill pattern through [`SymbolicCholesky::refactor`], which is
//! bit-identical to a fresh factorization of the same values (orderings
//! are functions of the pattern alone — see `pact_sparse`). Warm and
//! cold sessions therefore produce bit-identical reduced models; only
//! the `factorizations`/`refactorizations` telemetry counters differ.

use std::sync::Arc;
use std::time::Instant;

use pact_lanczos::LanczosStats;
use pact_netlist::{RcNetwork, Stamped};
use pact_sparse::{
    CholKernel, CscMat, CsrMat, FactorDiagnostics, FactorError, Ordering, ParCtx, PivotPolicy,
    SparseCholesky, SymbolicCholesky, SymbolicLu,
};

use crate::backend;
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

/// Cache key: pattern fingerprint plus the ordering and kernel the
/// analysis was computed under.
pub(crate) type SymKey = (u64, Ordering, CholKernel);

/// One cached analysis as handed between sessions (hier leaf workers
/// report what they learned as a list of these).
pub(crate) type CacheEntry = (SymKey, Arc<SymbolicCholesky>);

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
    lru: LruCache<SymKey, Arc<SymbolicCholesky>>,
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

    pub(crate) fn lookup(
        &mut self,
        key: u64,
        ordering: Ordering,
        kernel: CholKernel,
        a: &CsrMat,
    ) -> Option<Arc<SymbolicCholesky>> {
        self.lru
            .get_if(&(key, ordering, kernel), |sym| sym.matches(a))
            .map(Arc::clone)
    }

    pub(crate) fn insert(
        &mut self,
        key: u64,
        ordering: Ordering,
        kernel: CholKernel,
        sym: Arc<SymbolicCholesky>,
    ) {
        self.lru.insert((key, ordering, kernel), sym);
    }

    /// Merges entries learned elsewhere (same-key entries replace).
    pub(crate) fn extend(&mut self, entries: Vec<CacheEntry>) {
        for (key, sym) in entries {
            self.lru.insert(key, sym);
        }
    }
}

/// The cache key for `a`'s sparsity pattern: the fingerprint the matrix
/// computed at construction time (values excluded by construction), so
/// keying a lookup is O(1) rather than a rehash of the index arrays.
fn pattern_key(a: &CsrMat) -> u64 {
    a.pattern_key()
}

/// A bounded pool of `f64` scratch buffers reused across reductions.
#[derive(Default)]
pub(crate) struct ScratchPool {
    bufs: Vec<Vec<f64>>,
}

impl ScratchPool {
    /// A zeroed buffer of length `len`, recycled when possible.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f64> {
        match self.bufs.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool.
    pub(crate) fn put(&mut self, v: Vec<f64>) {
        if self.bufs.len() < 32 {
            self.bufs.push(v);
        }
    }
}

/// A reusable reduction context: options plus the symbolic-analysis
/// cache and scratch arenas shared by every reduction it runs.
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
    /// Symbolic LU analyses of shifted-pencil union patterns, keyed by
    /// [`pact_sparse::CscPencil::pattern_key`] and verified exactly via
    /// [`SymbolicLu::matches`] before a hit is trusted — the multipoint
    /// strategy's analogue of the Cholesky cache above. One analysis
    /// serves every expansion point of a pencil (real at s = 0, complex
    /// on the imaginary axis) and every warm deck of the same topology.
    lu_cache: LruCache<u64, Arc<SymbolicLu>>,
    pub(crate) scratch: ScratchPool,
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
    assert_send_sync::<SymbolicLu>();
};

impl ReductionSession {
    /// Creates a session with an empty cache.
    pub fn new(opts: ReduceOptions) -> ReductionSession {
        ReductionSession {
            opts,
            cache: SymbolicCache::default(),
            lu_cache: LruCache::new(CACHE_CAP),
            scratch: ScratchPool::default(),
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
            lu_cache: LruCache::new(cap),
            scratch: ScratchPool::default(),
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
            ReduceStrategy::Multipoint { num_points } => {
                crate::multipoint::reduce_network_multipoint(self, network, num_points)
            }
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

    /// Reduces each connected component independently (see
    /// [`crate::reduce_network_components`]).
    ///
    /// # Errors
    ///
    /// See [`ReduceError`]; the first failing component aborts.
    pub fn reduce_network_components(
        &mut self,
        network: &RcNetwork,
    ) -> Result<ComponentReduction, ReduceError> {
        let mut reductions: Vec<Reduction> = Vec::new();
        let mut floating = 0usize;
        for comp in network.connected_components() {
            if comp.num_ports == 0 {
                floating += 1;
                continue;
            }
            let mut red = self
                .reduce_network(&comp)
                .map_err(|e| remap_factor_index(e, &comp, network))?;
            let k = reductions.len();
            for c in &mut red.telemetry.eigen_choices {
                c.scope = format!("component{k}:{}", c.scope);
            }
            reductions.push(red);
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
        let stamped = network.stamp();
        let ports: Vec<String> = network.node_names[..network.num_ports].to_vec();
        self.reduce_stamped_scoped(
            &stamped,
            &ports,
            &|i| {
                network
                    .node_names
                    .get(network.num_ports + i)
                    .cloned()
                    .unwrap_or_else(|| format!("internal#{i}"))
            },
            scope,
        )
    }

    /// The flat reduction body shared by every entry point: partition →
    /// (cached) factor → moments → pole analysis via the selected eigen
    /// backend → projection.
    pub(crate) fn reduce_stamped_scoped(
        &mut self,
        stamped: &Stamped,
        port_names: &[String],
        internal_name: &dyn Fn(usize) -> String,
        scope: &str,
    ) -> Result<Reduction, ReduceError> {
        let start = Instant::now();
        let mut tel = Telemetry::new();
        let ctx = ParCtx::new(self.opts.threads);
        let parts = tel.time("partition", || Partitions::split(stamped));

        let policy = match self.opts.pivot_relief {
            Some(rel_threshold) => PivotPolicy::Perturb { rel_threshold },
            None => PivotPolicy::Error,
        };
        let factor_start = Instant::now();
        let factored = self.factor_internal(&parts.d, policy);
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

        let t1 = tel.time("moments", || Transform1::with_factor(&parts, chol, &ctx));
        let lambda_c = self.opts.cutoff.lambda_c();

        let eigen_start = Instant::now();
        let poles = backend::compute_poles(
            &self.opts.eigen_backend,
            self.opts.dense_threshold,
            &t1,
            &parts,
            lambda_c,
            &ctx,
        );
        tel.record_phase("eigen", eigen_start.elapsed().as_secs_f64());
        let (sol, backend_name) = poles?;
        tel.record_eigen_choice(scope, backend_name, parts.n, sol.lambdas.len());

        let r2 = tel.time("projection", || t1.r2_rows_ctx(&parts, &sol.vectors, &ctx));
        let eigen_vectors = eigen_peak_vectors(&sol);
        let model = ReducedModel {
            a1: t1.a1.clone(),
            b1: t1.b1.clone(),
            r2,
            lambdas: sol.lambdas,
            port_names: port_names.to_vec(),
        };

        let m = parts.m;
        let k = model.lambdas.len();
        let chol_memory = t1.chol.memory_bytes();
        let modelled = chol_memory
            + 2 * m * m * 8              // A', B'
            + t1.x_s_bytes()             // X_S panel
            + eigen_vectors * parts.n * 8 // Lanczos basis and buffers / Ritz vectors
            + k * m * 8                  // R''
            + ctx.threads() * lane_scratch_bytes(parts.n); // lane panels per worker
        Ok(finish_reduction(
            tel,
            start,
            model,
            parts.n,
            t1.chol.l_nnz(),
            chol_memory,
            modelled,
            sol.lanczos,
        ))
    }

    /// Number of shifted-pencil symbolic LU analyses currently cached
    /// (the multipoint strategy's analogue of [`Self::cached_patterns`]).
    pub fn cached_lu_patterns(&self) -> usize {
        self.lu_cache.len()
    }

    /// Looks up a cached symbolic LU analysis for the union pattern of a
    /// shifted pencil, verifying the exact pattern against `a0` (the
    /// pencil evaluated on its union structure) before trusting the
    /// fingerprint hit — same collision discipline as the Cholesky cache.
    pub(crate) fn lu_lookup(&mut self, key: u64, a0: &CscMat<f64>) -> Option<Arc<SymbolicLu>> {
        self.lu_cache
            .get_if(&key, |sym| sym.matches(a0))
            .map(Arc::clone)
    }

    /// Caches a symbolic LU analysis under a pencil's pattern key
    /// (same-key entries replace: newest wins).
    pub(crate) fn lu_insert(&mut self, key: u64, sym: Arc<SymbolicLu>) {
        self.lu_cache.insert(key, sym);
    }

    /// Factors `D`, reusing a cached symbolic analysis when the sparsity
    /// pattern has been seen before (bit-identical to a fresh factor).
    pub(crate) fn factor_internal(
        &mut self,
        d: &CsrMat,
        policy: PivotPolicy,
    ) -> Result<(SparseCholesky, FactorDiagnostics, bool), FactorError> {
        let kernel = self.opts.chol_kernel.resolved();
        let key = pattern_key(d);
        if let Some(sym) = self.cache.lookup(key, self.opts.ordering, kernel, d) {
            let (chol, diag) = sym.refactor(d, policy)?;
            return Ok((chol, diag, true));
        }
        let (chol, diag, sym) =
            SparseCholesky::factor_analyzed_with_kernel(d, self.opts.ordering, policy, kernel)?;
        self.cache
            .insert(key, self.opts.ordering, kernel, Arc::new(sym));
        Ok((chol, diag, false))
    }
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
        let mut session = ReductionSession::new(opts);
        let reds = session.reduce_batch(&decks).unwrap();
        assert_eq!(reds.len(), 5);
        assert_eq!(session.cached_patterns(), 1);
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
        let ordering = Ordering::NestedDissection;
        let kernel = CholKernel::Auto.resolved();
        let factor = |d: &CsrMat| {
            let (_, _, sym) = SparseCholesky::factor_analyzed_with_kernel(
                d,
                ordering,
                PivotPolicy::Error,
                kernel,
            )
            .unwrap();
            Arc::new(sym)
        };

        // Forge an FNV-1a collision: store A's analysis under B's
        // fingerprint. The exact `matches` verification must reject it.
        let mut cache = SymbolicCache::with_capacity(4);
        cache.insert(db.pattern_key(), ordering, kernel, factor(&da));
        assert!(
            cache
                .lookup(db.pattern_key(), ordering, kernel, &db)
                .is_none(),
            "a colliding fingerprint must fall through the exact pattern check"
        );

        // The fresh analysis of B then *replaces* the colliding entry
        // (newest wins) instead of being shadowed by it forever.
        cache.insert(db.pattern_key(), ordering, kernel, factor(&db));
        assert_eq!(cache.len(), 1, "collision resolves by replacement");
        assert!(cache
            .lookup(db.pattern_key(), ordering, kernel, &db)
            .is_some());
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let mut pool = ScratchPool::default();
        let mut v = pool.take(8);
        v[3] = 7.0;
        pool.put(v);
        let w = pool.take(4);
        assert_eq!(w, vec![0.0; 4], "recycled buffers are zeroed");
    }
}
