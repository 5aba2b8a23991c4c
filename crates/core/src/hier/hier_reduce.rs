//! The hierarchical reduction driver: partition → leaf reductions →
//! stitch → top-level flat pass.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use pact_netlist::RcNetwork;
use pact_sparse::{FactorError, ParCtx, SymbolicCholesky};

use crate::cutoff::CutoffSpec;
use crate::hier::leaf::{prepare_leaf, reduce_prepared_leaf, PreparedLeaf};
use crate::hier::partition_tree::PartitionTree;
use crate::hier::stitch::stitch;
use crate::reduce::{ReduceError, ReduceStrategy, Reduction, ReductionStats};
use crate::session::{CacheEntry, ReductionSession};
use crate::telemetry::{Telemetry, Warning};

/// Cutoff widening of the *fallback* leaf path (leaves whose
/// capacitance block is not a low-rank stamp, where the two-level
/// residue-budget trim of the `hier::leaf` module does not apply): such
/// leaves keep every pole below `LEAF_CUTOFF_GUARD × f_c`, so the only
/// poles they truncate are a factor `LEAF_CUTOFF_GUARD` above the band
/// of interest. By the high-pass error envelope (see
/// [`crate::CutoffSpec`]) their in-band contribution is
/// `≈ ½ (f / (guard · f_c))²` relative — below `1e-6` of the flat
/// reduction for the default guard. Two-level leaves instead trim
/// against an explicit per-leaf error budget, which retains far fewer
/// sub-cutoff poles for the same accuracy.
pub const LEAF_CUTOFF_GUARD: f64 = 1024.0;

/// Renames a warning's node/element attribution to carry the leaf block
/// id, so degenerate sub-blocks are directly identifiable in telemetry.
fn tag_warning(w: &Warning, block: usize) -> Warning {
    let tag = |s: &str| format!("{s}@block{block}");
    match w {
        Warning::PerturbedPivot {
            node,
            pivot,
            replaced_with,
        } => Warning::PerturbedPivot {
            node: tag(node),
            pivot: *pivot,
            replaced_with: *replaced_with,
        },
        Warning::PrunedFloatingInternal { node } => {
            Warning::PrunedFloatingInternal { node: tag(node) }
        }
        Warning::DisconnectedPort { node } => Warning::DisconnectedPort { node: tag(node) },
        Warning::DuplicateElementName { name, count } => Warning::DuplicateElementName {
            name: tag(name),
            count: *count,
        },
        Warning::ZeroValueElement { name } => Warning::ZeroValueElement { name: tag(name) },
    }
}

/// Leaf pipeline phases renamed so top-pass phases (which keep the flat
/// names) stay distinguishable in the telemetry tables.
fn leaf_phase_name(name: &'static str) -> &'static str {
    match name {
        "partition" => "leaf_partition",
        "factor" => "leaf_factor",
        "moments" => "leaf_moments",
        "schur" => "leaf_schur",
        "eigen" => "leaf_eigen",
        "projection" => "leaf_projection",
        _ => "leaf_other",
    }
}

/// Hierarchical divide-and-conquer reduction (see [`crate::hier`]).
///
/// Falls back to the flat pipeline when the partition produces at most
/// one block (tiny networks, or `max_block ≥ n`).
pub(crate) fn reduce_network_hier(
    session: &mut ReductionSession,
    network: &RcNetwork,
    max_block: usize,
    max_depth: usize,
) -> Result<Reduction, ReduceError> {
    let start = Instant::now();
    let opts = session.options().clone();
    let m = network.num_ports;
    let n_int = network.num_internal();
    let mut tel = Telemetry::new();

    let tree = tel.time("partition_tree", || {
        PartitionTree::build(network, max_block, max_depth)
    });

    if tree.leaves.len() <= 1 {
        // Nothing to divide: run flat, but keep the hier bookkeeping so
        // telemetry still says what happened.
        let mut red = session.reduce_network_flat(network, "flat")?;
        tel.absorb(&red.telemetry);
        let c = &mut tel.counters;
        c.hier_blocks = tree.leaves.len().max(1) as u64;
        c.hier_tree_depth = tree.depth as u64;
        c.hier_max_block_nodes = n_int as u64;
        red.telemetry = tel;
        return Ok(red);
    }

    // Fallback-path leaves keep poles up to a guarded cutoff so
    // truncation error stays negligible relative to the user tolerance;
    // an overflow of the guard multiplication (absurdly high f_c) falls
    // back to the user cutoff, which only keeps fewer leaf poles.
    let leaf_cutoff =
        CutoffSpec::from_cutoff_frequency(LEAF_CUTOFF_GUARD * opts.cutoff.cutoff_frequency())
            .unwrap_or(opts.cutoff);
    let mut leaf_opts = opts.clone();
    leaf_opts.cutoff = leaf_cutoff;
    leaf_opts.threads = Some(1); // one worker per leaf; fan-out is outside
    leaf_opts.strategy = ReduceStrategy::Flat;

    let ctx = ParCtx::new(opts.threads);

    // --- `leaf_reuse` pre-pass -------------------------------------
    // Prepare every leaf (sanitize → stamp → partition) in parallel,
    // then deduplicate the symbolic Cholesky work: each distinct
    // D-pattern not already in the session cache is analyzed exactly
    // once (in parallel, in first-occurrence order), and the results
    // are seeded both into the parent session and into the snapshot the
    // numeric fan-out reads. Same-pattern leaves — the common case for
    // regular meshes — share one analysis instead of re-deriving it per
    // leaf; every lookup below is then a hit, independent of worker
    // assignment, which keeps counters and models thread-invariant.
    let reuse_start = Instant::now();
    let prepared: Vec<PreparedLeaf> = ctx
        .map_items(
            tree.leaves.len(),
            || (),
            |_, k| prepare_leaf(&tree.leaves[k]),
        )
        .into_iter()
        .collect::<Result<_, ReduceError>>()?;
    let mut probe = session.cache_snapshot();
    let mut seen = BTreeSet::new();
    let mut unique: Vec<usize> = Vec::new();
    for (k, prep) in prepared.iter().enumerate() {
        if !seen.insert(prep.pattern_key) {
            continue;
        }
        if probe.lookup(prep.pattern_key, &prep.parts.d).is_none() {
            unique.push(k);
        }
    }
    let analyzed = ctx.map_items(
        unique.len(),
        || (),
        |_, i| SymbolicCholesky::analyze(&prepared[unique[i]].parts.d),
    );
    let mut new_entries: Vec<CacheEntry> = Vec::with_capacity(unique.len());
    for (&k, sym) in unique.iter().zip(analyzed) {
        new_entries.push((prepared[k].pattern_key, Arc::new(sym?)));
    }
    let mut leaf_cache = session.cache_snapshot();
    leaf_cache.extend(new_entries.clone());
    session.cache_extend(new_entries);
    tel.record_phase("leaf_reuse", reuse_start.elapsed().as_secs_f64());
    // Counter attribution: one fresh symbolic analysis per unique new
    // pattern; every leaf factorization itself replays a cached
    // analysis. `factorizations`/`refactorizations` are the two
    // counters warm session state legitimately moves (a warm cache
    // turns analyses into replays) — the contract `serve_determinism`
    // strips and asserts. `hier_leaf_pattern_reuses` instead counts
    // within-run pattern dedup (leaves sharing another leaf's
    // D-pattern), a function of the tree alone: identical across
    // thread counts *and* across warm-vs-cold sessions.
    tel.counters.factorizations += unique.len() as u64;
    tel.counters.refactorizations += (tree.leaves.len() - unique.len()) as u64;
    tel.counters.hier_leaf_pattern_reuses = (tree.leaves.len() - seen.len()) as u64;

    // --- numeric fan-out -------------------------------------------
    // Fan the leaves across workers; results come back in leaf order so
    // the merge below is bit-identical for every thread count. Each
    // worker clones the seeded snapshot (cheap: shared `Arc`s).
    let leaf_start = Instant::now();
    let outcomes: Vec<Result<Reduction, ReduceError>> = ctx.map_items(
        tree.leaves.len(),
        || leaf_cache.clone(),
        |cache, k| {
            reduce_prepared_leaf(
                &prepared[k],
                &tree.leaves[k],
                network,
                &leaf_opts,
                &opts.cutoff,
                cache,
            )
        },
    );
    tel.record_phase("leaf_reduce", leaf_start.elapsed().as_secs_f64());

    let mut models = Vec::with_capacity(tree.leaves.len());
    let mut leaf_poles = 0u64;
    let mut chol_nnz = 0usize;
    let mut chol_memory = 0usize;
    let mut modelled_memory = 0usize;
    for ((leaf, prep), outcome) in tree.leaves.iter().zip(&prepared).zip(outcomes) {
        let o = outcome?; // first failing leaf (in tree order) aborts
        for w in &prep.warnings {
            match w {
                Warning::PrunedFloatingInternal { .. } => tel.counters.pruned_internal_nodes += 1,
                Warning::DisconnectedPort { .. } => tel.counters.disconnected_ports += 1,
                Warning::ZeroValueElement { .. } => tel.counters.zero_value_elements += 1,
                _ => {}
            }
            tel.warn(tag_warning(w, leaf.id));
        }
        let ltel = &o.telemetry;
        for p in &ltel.phases {
            tel.record_phase(leaf_phase_name(p.name), p.seconds);
        }
        for w in &ltel.warnings {
            tel.warn(tag_warning(w, leaf.id));
        }
        for ec in &ltel.eigen_choices {
            let mut ec = ec.clone();
            ec.scope = format!("leaf{}", leaf.id);
            tel.eigen_choices.push(ec);
        }
        // Size/pole counters describing the leaf sub-problems are
        // reported through the hier_* fields; the flat-shaped fields
        // must describe the original network, so zero them before
        // accumulating the rest (work counters, peaks).
        let mut lc = ltel.counters;
        leaf_poles += lc.poles_retained;
        lc.num_ports = 0;
        lc.num_internal = 0;
        lc.poles_retained = 0;
        lc.poles_dropped = 0;
        tel.counters.add(&lc);
        chol_nnz += o.stats.chol_nnz;
        chol_memory += o.stats.chol_memory_bytes;
        modelled_memory = modelled_memory.max(o.stats.modelled_memory_bytes);
        models.push(o.model);
    }

    let stitched = tel.time("stitch", || stitch(network, &tree, &models));
    let port_names: Vec<String> = network.node_names[..m].to_vec();
    let internal_names = stitched.internal_names;
    let nsep = tree.separators.len();
    let top = session
        .reduce_stamped_scoped(
            &stitched.stamped,
            &port_names,
            &|i| {
                internal_names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("internal#{i}"))
            },
            "top",
        )
        .map_err(|e| match e {
            // A singular pivot on a separator row maps back to an original
            // internal node; pole-node rows (identity diagonal) cannot fail.
            ReduceError::Factor(FactorError::NotPositiveDefinite { step, index, pivot })
                if index < nsep =>
            {
                ReduceError::Factor(FactorError::NotPositiveDefinite {
                    step,
                    index: tree.separators[index] - m,
                    pivot,
                })
            }
            ReduceError::Factor(FactorError::NonFinitePivot { step, index, pivot })
                if index < nsep =>
            {
                ReduceError::Factor(FactorError::NonFinitePivot {
                    step,
                    index: tree.separators[index] - m,
                    pivot,
                })
            }
            other => other,
        })?;

    for p in &top.telemetry.phases {
        tel.record_phase(p.name, p.seconds);
    }
    for w in &top.telemetry.warnings {
        tel.warn(w.clone());
    }
    tel.eigen_choices
        .extend(top.telemetry.eigen_choices.iter().cloned());
    let mut tc = top.telemetry.counters;
    tc.num_ports = 0;
    tc.num_internal = 0;
    tc.poles_retained = 0;
    tc.poles_dropped = 0;
    tel.counters.add(&tc);

    let poles = top.model.num_poles();
    let c = &mut tel.counters;
    c.num_ports = m as u64;
    c.num_internal = n_int as u64;
    c.poles_retained = poles as u64;
    c.poles_dropped = (n_int as u64).saturating_sub(poles as u64);
    c.hier_blocks = tree.leaves.len() as u64;
    c.hier_separator_nodes = tree.separators.len() as u64;
    c.hier_max_block_nodes = tree.max_block_nodes as u64;
    c.hier_max_separator_nodes = tree.max_separator_nodes as u64;
    c.hier_leaf_poles_retained = leaf_poles;
    c.hier_portless_blocks_dropped = tree.portless_dropped as u64;
    c.hier_tree_depth = tree.depth as u64;

    let stats = ReductionStats {
        num_ports: m,
        num_internal: n_int,
        poles_retained: poles,
        elapsed_seconds: start.elapsed().as_secs_f64(),
        chol_nnz: chol_nnz + top.stats.chol_nnz,
        chol_memory_bytes: chol_memory + top.stats.chol_memory_bytes,
        modelled_memory_bytes: modelled_memory.max(top.stats.modelled_memory_bytes),
        lanczos: top.stats.lanczos,
    };

    Ok(Reduction {
        model: top.model,
        stats,
        telemetry: tel,
    })
}
