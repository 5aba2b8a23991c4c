//! TurboMOR-style two-level leaf reduction.
//!
//! The original hierarchical path ran the *full* flat PACT pipeline per
//! leaf — including a per-pole projection (`r2_rows`, then three sparse
//! solves per retained pole) that dominated leaf cost under the widened
//! [`crate::hier::LEAF_CUTOFF_GUARD`] cutoff. This module replaces it
//! with a two-level split in the spirit of TurboMOR's block elimination:
//! leaf internals are eliminated through the cached Cholesky factor
//! (the Schur complement onto the boundary is exactly the `A'`/`B'`
//! moment computation), and the pole content is read off a *small*
//! `c×c` Gram eigenproblem plus the moments' `X_S` panel — no per-pole
//! solves.
//!
//! ## Residues from the moment panel
//!
//! With the capacitance split `E = Ũ Ũᵀ` (`c = rank bound ≪ n` for
//! extracted RC leaves) and `X̃ = F⁻¹Ũ`, the nonzero spectrum of
//! `E' = F⁻¹EF⁻ᵀ = X̃X̃ᵀ` is that of the Gram matrix `K = X̃ᵀX̃ = ŨᵀD⁻¹Ũ`.
//! For a Gram eigenpair `(λ_p, z_p)` the lifted eigenvector is
//! `u_p = X̃z_p/√λ_p`, so the residue row of the second congruence
//! transform collapses to
//!
//! ```text
//! R''[p, :] = u_pᵀ F⁻¹ P = (1/√λ_p) z_pᵀ Ũᵀ D⁻¹ P
//! ```
//!
//! and, with `X = D⁻¹Q` and `P = R − EX = R − ŨŨᵀX`,
//!
//! ```text
//! Ũᵀ D⁻¹ P = X̃ᵀ(F⁻¹R) − (ŨᵀD⁻¹Ũ)(ŨᵀX) = X̃ᵀ(F⁻¹R) − K·(ŨᵀX)
//! ```
//!
//! `ŨᵀX` gathers at most two rows of the `X_S` panel the moment
//! computation keeps ([`Transform1::with_factor`]) per term, and
//! `F⁻¹R` is one forward sweep for each port with port–internal
//! capacitance (none when `R = 0`), so the whole residue block costs
//! `O(c·m + c²·m)` dense flops plus those sweeps — no solve against `D`
//! beyond the one per port, and no leaf projection phase.
//!
//! ## Budgeted guard-band trimming
//!
//! Dropping a *set* `Δ` of pole terms changes the leaf admittance by
//! `ΔY(jω) = Σ_{p∈Δ} ω² r_p r_pᵀ / (1 + jωλ_p)`, so with
//! `M = Σ_{p∈Δ} r_p r_pᵀ` every quadratic form obeys
//! `|xᵀ ΔY x| ≤ ω² xᵀMx ≤ ω² ‖M‖₂` (each term is PSD rank-1 scaled by
//! `1/(1+jωλ)`, `|1 + jωλ| ≥ 1` for `λ > 0`), while `A'`/`B'` — the
//! first two moments — are unaffected. Poles below the user cutoff
//! `λ_c` are therefore dropped greedily, ascending in their individual
//! bound `e_p = ω_max²‖r_p‖²`, while a cheap upper bound on
//! `ω_max²‖M‖₂` (trace first, then the Gershgorin row sum of the
//! maintained `M`) stays within [`TRIM_BUDGET_REL`]`·‖A'‖_max` —
//! instead of blanket-retaining everything down to
//! `λ_c /` [`crate::hier::LEAF_CUTOFF_GUARD`]. The distinction between
//! trace and spectral norm matters: distinct Gram modes couple to the
//! boundary in nearly orthogonal directions, so the collective
//! perturbation is close to the *largest* individual `e_p`, not their
//! sum, and the row-sum bound tracks that within a small factor.
//! Keeping a subset of pole rows is a principal-submatrix congruence of
//! the realized `(G'', C'')`, so passivity survives exactly as before.

use std::time::Instant;

use pact_netlist::RcNetwork;
use pact_sparse::{sym_eig, CsrMat, DMat, ParCtx, PivotPolicy};

use crate::backend::{self, capacitance_split, sparse_dot, CapTerm};
use crate::cutoff::CutoffSpec;
use crate::hier::partition_tree::LeafBlock;
use crate::model::ReducedModel;
use crate::partition::Partitions;
use crate::reduce::{by_name, remap_factor_index, ReduceError, ReduceOptions, Reduction};
use crate::sanitize::sanitize_network;
use crate::session::{finish_reduction, SymbolicCache};
use crate::telemetry::{Telemetry, Warning};
use crate::transform::{lane_scratch_bytes, Transform1};

/// Guard-band trim budget, relative to the leaf's `‖A'‖_max` (its DC
/// port-conductance scale): the worst-case in-band admittance
/// perturbation `ω_max²‖Σ_dropped r_p r_pᵀ‖₂` of the dropped sub-cutoff
/// poles — bounded via its Gershgorin row sum, see [`schur_leaf_poles`]
/// — stays below this fraction of the leaf's own conductance norm.
///
/// The bound is worst-case in three stacked ways (it evaluates at
/// `ω_max`, takes `|1 + jωλ_p| ≥ 1`, and maximizes over port
/// directions), while both the hier top pass and the flat reference
/// drop the *same* sub-cutoff spectral content at the user cutoff, so
/// the parity-visible residual is the second-order interaction between
/// leaf trimming and top truncation: empirically nanovolts-level, and
/// validated at `1e-6` by `hier_equivalence.rs` across the mesh /
/// power-grid / line suite.
pub(crate) const TRIM_BUDGET_REL: f64 = 1e-5;

/// A leaf after the parallel preparation pre-pass: sanitized, stamped
/// and partitioned, with its `D`-pattern fingerprint for the symbolic
/// dedup step.
pub(crate) struct PreparedLeaf {
    /// The sanitized leaf network (names feed warning attribution).
    pub network: RcNetwork,
    /// Sanitize warnings, tagged with the block id at merge time.
    pub warnings: Vec<Warning>,
    /// Partitioned leaf matrices (boundary-as-ports first).
    pub parts: Partitions,
    /// `parts.d.pattern_key()`, the symbolic-cache fingerprint.
    pub pattern_key: u64,
    /// Wall seconds of the stamp+partition work (merged into the
    /// `leaf_partition` phase).
    pub partition_seconds: f64,
}

/// Sanitizes, stamps and partitions one leaf block (the parallel
/// pre-pass of the fan-out; no numeric factorization happens here).
pub(crate) fn prepare_leaf(leaf: &LeafBlock) -> Result<PreparedLeaf, ReduceError> {
    let report = sanitize_network(&leaf.network)?;
    let start = Instant::now();
    let stamped = report.network.stamp();
    let parts = Partitions::split(&stamped);
    let pattern_key = parts.d.pattern_key();
    Ok(PreparedLeaf {
        warnings: report.warnings,
        network: report.network,
        parts,
        pattern_key,
        partition_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Reduces one prepared leaf: cached factor → moments → two-level
/// Gram/Schur pole analysis with budgeted trimming, falling back to
/// guarded dense QL when `E` is not a low-rank capacitance stamp.
///
/// Runs serially — the leaf fan-out above is the parallel axis — and
/// reports telemetry with flat phase names; the merge step renames them
/// to their `leaf_*` forms.
pub(crate) fn reduce_prepared_leaf(
    prep: &PreparedLeaf,
    leaf: &LeafBlock,
    parent: &RcNetwork,
    leaf_opts: &ReduceOptions,
    user_cutoff: &CutoffSpec,
    cache: &mut SymbolicCache,
) -> Result<Reduction, ReduceError> {
    let start = Instant::now();
    let mut tel = Telemetry::new();
    tel.record_phase("partition", prep.partition_seconds);
    let ctx = ParCtx::serial();
    let parts = &prep.parts;
    let internal_name = |i: usize| {
        prep.network
            .node_names
            .get(prep.network.num_ports + i)
            .cloned()
            .unwrap_or_else(|| format!("internal#{i}"))
    };

    let policy = match leaf_opts.pivot_relief {
        Some(rel_threshold) => PivotPolicy::Perturb { rel_threshold },
        None => PivotPolicy::Error,
    };
    // The `leaf_reuse` pre-pass put every leaf pattern in the cache, so
    // this is a refactorization in all but pathological cases (capacity
    // eviction on a tree with more unique patterns than cache slots).
    let factor_start = Instant::now();
    let factored = cache.factor(&parts.d, policy);
    tel.record_phase("factor", factor_start.elapsed().as_secs_f64());
    let (chol, diag, _) = factored.map_err(|e| {
        let e = remap_factor_index(ReduceError::from(e), by_name(&prep.network, &leaf.network));
        remap_factor_index(e, by_name(&leaf.network, parent))
    })?;
    for p in &diag.perturbed {
        tel.warn(Warning::PerturbedPivot {
            node: internal_name(p.index),
            pivot: p.original,
            replaced_with: p.replaced_with,
        });
    }
    tel.counters.perturbed_pivots = diag.perturbed.len() as u64;
    tel.counters.supernode_count = chol.supernode_count() as u64;
    tel.counters.max_panel_cols = chol.max_panel_cols() as u64;
    tel.counters.panel_flops = chol.panel_flops();

    let moments_start = Instant::now();
    let t1 = Transform1::with_factor(parts, chol, &ctx);
    tel.record_phase("moments", moments_start.elapsed().as_secs_f64());

    let split = capacitance_split(&parts.e);
    let two_level = matches!(&split, Some(terms) if terms.len() < parts.n || parts.n == 0);

    let port_names: Vec<String> = prep.network.node_names[..prep.network.num_ports].to_vec();
    let (model, poles_dim_hint);
    if two_level {
        let terms = split.as_deref().unwrap_or(&[]);
        let schur_start = Instant::now();
        let schur = schur_leaf_poles(&t1, &parts.r, terms, user_cutoff, t1.a1.norm_max());
        tel.record_phase("schur", schur_start.elapsed().as_secs_f64());
        let schur = schur?;
        tel.counters.hier_leaf_trimmed_poles = schur.trimmed as u64;
        tel.record_eigen_choice("leaf", "schur", parts.n, schur.lambdas.len(), None);
        poles_dim_hint = terms.len();
        model = ReducedModel {
            a1: t1.a1.clone(),
            b1: t1.b1.clone(),
            r2: schur.r2,
            lambdas: schur.lambdas,
            port_names,
        };
    } else {
        // General fallback (coupled / full-rank capacitance): dense QL
        // under the guarded cutoff, per-pole projection. The guard keeps
        // a large fraction of the spectrum, where Lanczos degenerates
        // into full-spectrum iteration; blocks are bounded by
        // `max_block`, so the dense solve stays affordable. The low-rank
        // path cannot apply here: this branch runs exactly when the
        // capacitance split fails or has at least `n` terms.
        let lambda_guard = leaf_opts.cutoff.lambda_c();
        let eigen_start = Instant::now();
        let poles = backend::dense_poles(&t1, parts, lambda_guard, &ctx);
        tel.record_phase("eigen", eigen_start.elapsed().as_secs_f64());
        let sol = poles?;
        tel.record_eigen_choice("leaf", "dense", parts.n, sol.lambdas.len(), None);
        let r2 = tel.time("projection", || t1.r2_rows_ctx(parts, &sol.vectors, &ctx));
        poles_dim_hint = parts.n;
        model = ReducedModel {
            a1: t1.a1.clone(),
            b1: t1.b1.clone(),
            r2,
            lambdas: sol.lambdas,
            port_names,
        };
    }

    let m = parts.m;
    let k = model.lambdas.len();
    let chol_memory = t1.chol.memory_bytes();
    let modelled = chol_memory
        + 2 * m * m * 8                 // A', B'
        + poles_dim_hint * parts.n * 8  // X̃ columns / Ritz vectors
        + t1.x_s_bytes()                // X_S panel
        + k * m * 8                     // R''
        + ctx.threads() * lane_scratch_bytes(parts.n); // lane panels per worker
    Ok(finish_reduction(
        tel,
        start,
        model,
        parts.n,
        t1.chol.l_nnz(),
        chol_memory,
        modelled,
        None,
    ))
}

/// The two-level pole analysis: kept poles (descending), their residue
/// rows, and how many guard-band candidates the budget trimmed.
struct SchurPoles {
    lambdas: Vec<f64>,
    r2: DMat<f64>,
    trimmed: usize,
}

/// One sub-cutoff candidate: Gram eigen index, eigenvalue, residue row,
/// and its worst-case in-band admittance contribution `ω_max²‖r‖²`.
struct GuardCand {
    idx: usize,
    lam: f64,
    row: Vec<f64>,
    err: f64,
}

/// `rs[i] = Σ_j |mm[i][j]|`, the exact Gershgorin row sums of `mm`.
fn exact_rowsums(mm: &[f64], m: usize, rs: &mut [f64]) {
    for (i, r) in rs.iter_mut().enumerate() {
        *r = mm[i * m..(i + 1) * m].iter().map(|v| v.abs()).sum();
    }
}

/// `mm += row rowᵀ` on a row-major `m×m` buffer.
fn accumulate_rank1(mm: &mut [f64], row: &[f64], m: usize) {
    for i in 0..m {
        let ri = row[i];
        if ri != 0.0 {
            for (o, &rj) in mm[i * m..(i + 1) * m].iter_mut().zip(row) {
                *o += ri * rj;
            }
        }
    }
}

/// Gram eigenanalysis of `K = X̃ᵀX̃` plus residues from
/// `X̃ᵀ(F⁻¹R) − K·(ŨᵀX)` and budgeted trimming (see the module docs for
/// the algebra and the error bound).
fn schur_leaf_poles(
    t1: &Transform1,
    r: &CsrMat,
    terms: &[CapTerm],
    user_cutoff: &CutoffSpec,
    a1_norm: f64,
) -> Result<SchurPoles, ReduceError> {
    let n = t1.n;
    let m = t1.m;
    let c = terms.len();
    if c == 0 || n == 0 {
        return Ok(SchurPoles {
            lambdas: Vec::new(),
            r2: DMat::zeros(0, m),
            trimmed: 0,
        });
    }
    // X̃ = F⁻¹Ũ in blocked multi-RHS batches (bit-identical to the
    // scalar solve per the kernel's lane contract), each column
    // compressed to (index, value) pairs — a column's support is the
    // elimination-tree reach of its (at most two) nodes, usually a
    // small fraction of n. Batching bounds the dense scratch at
    // `2·n·XBATCH` while still amortizing each loaded factor entry
    // across [`pact_sparse::LANES`] right-hand sides.
    const XBATCH: usize = 64;
    let batch = c.min(XBATCH);
    let mut rhs = vec![0.0f64; n * batch];
    let mut cols = vec![0.0f64; n * batch];
    let mut work = Vec::new();
    let mut x: Vec<(Vec<u32>, Vec<f64>)> = Vec::with_capacity(c);
    let mut k0 = 0;
    while k0 < c {
        let kb = (c - k0).min(XBATCH);
        rhs[..n * kb].iter_mut().for_each(|v| *v = 0.0);
        for (k, t) in terms[k0..k0 + kb].iter().enumerate() {
            let w = t.w.sqrt();
            rhs[k * n + t.i] = w;
            if let Some(j) = t.j {
                rhs[k * n + j] = -w;
            }
        }
        t1.chol
            .fsolve_block_into(&rhs[..n * kb], kb, &mut cols[..n * kb], &mut work);
        for col in cols[..n * kb].chunks_exact(n) {
            let mut idx = Vec::new();
            let mut val = Vec::new();
            for (i, &v) in col.iter().enumerate() {
                if v != 0.0 {
                    idx.push(i as u32);
                    val.push(v);
                }
            }
            x.push((idx, val));
        }
        k0 += kb;
    }
    // Gram matrix K = X̃ᵀX̃ (c×c), index-ascending merge dots.
    let mut gram = DMat::zeros(c, c);
    for a in 0..c {
        for b in a..c {
            let v = sparse_dot(&x[a], &x[b]);
            gram[(a, b)] = v;
            gram[(b, a)] = v;
        }
    }
    let eig = sym_eig(&gram)?;

    // ŨᵀX (c×m, row-major): at most two X_S rows per term. Every term
    // node carries capacitance, so it is in S.
    let mut utx = vec![0.0f64; c * m];
    for (k, t) in terms.iter().enumerate() {
        let w = t.w.sqrt();
        let out = &mut utx[k * m..(k + 1) * m];
        let xi = t1.x_row(t.i).expect("capacitance term node lies in S");
        for (o, v) in out.iter_mut().zip(xi) {
            *o = w * v;
        }
        if let Some(j) = t.j {
            let xj = t1.x_row(j).expect("capacitance term node lies in S");
            for (o, v) in out.iter_mut().zip(xj) {
                *o -= w * v;
            }
        }
    }
    // W = ŨᵀD⁻¹P = X̃ᵀ(F⁻¹R) − K·(ŨᵀX) (c×m, row-major). F⁻¹r_j runs in
    // the same blocked batches as X̃, for the ports whose R column is
    // nonzero; each entry of X̃ᵀ(F⁻¹r_j) is an index-ascending dot.
    let mut wmat = vec![0.0f64; c * m];
    let rt = r.transpose();
    let coupled: Vec<usize> = (0..m)
        .filter(|&j| rt.row_iter(j).next().is_some())
        .collect();
    for ports in coupled.chunks(batch) {
        let kb = ports.len();
        rhs[..n * kb].iter_mut().for_each(|v| *v = 0.0);
        for (k, &j) in ports.iter().enumerate() {
            for (i, v) in rt.row_iter(j) {
                rhs[k * n + i] = v;
            }
        }
        t1.chol
            .fsolve_block_into(&rhs[..n * kb], kb, &mut cols[..n * kb], &mut work);
        for (&j, fr) in ports.iter().zip(cols.chunks_exact(n)) {
            for (k, (idx, val)) in x.iter().enumerate() {
                wmat[k * m + j] = idx.iter().zip(val).map(|(&i, v)| v * fr[i as usize]).sum();
            }
        }
    }
    // K is symmetric, so row k of K is its column k.
    for (k, out) in wmat.chunks_exact_mut(m).enumerate() {
        for (row, &kl) in utx.chunks_exact(m).zip(gram.col(k)) {
            if kl != 0.0 {
                for (o, v) in out.iter_mut().zip(row) {
                    *o -= kl * v;
                }
            }
        }
    }

    // Candidate sweep, descending eigenvalue order. λ ≥ λ_c is always
    // kept (those are the poles flat keeps too); 0 < λ < λ_c enters the
    // budgeted guard band; λ ≤ 0 is a Gram null direction — it lifts to
    // the zero vector (‖Xz‖² = λ), carries no pole, and drops free.
    let lambda_c = user_cutoff.lambda_c();
    let omega_max = 2.0 * std::f64::consts::PI * user_cutoff.f_max();
    let omega2 = omega_max * omega_max;
    let residue_row = |idx: usize, lam: f64| -> Vec<f64> {
        let scale = 1.0 / lam.sqrt();
        let mut row = vec![0.0f64; m];
        for k in 0..c {
            let zk = eig.vectors[(k, idx)] * scale;
            if zk != 0.0 {
                for (o, v) in row.iter_mut().zip(&wmat[k * m..(k + 1) * m]) {
                    *o += zk * v;
                }
            }
        }
        row
    };
    let mut kept: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut guard: Vec<GuardCand> = Vec::new();
    for idx in (0..c).rev() {
        let lam = eig.values[idx];
        if lam <= 0.0 {
            break; // ascending storage: everything below is ≤ 0 too
        }
        if lam >= lambda_c {
            kept.push((lam, residue_row(idx, lam)));
        } else {
            let row = residue_row(idx, lam);
            let err = omega2 * row.iter().map(|v| v * v).sum::<f64>();
            guard.push(GuardCand { idx, lam, row, err });
        }
    }

    // Greedy trim, smallest worst-case contribution first. The dropped
    // set `Δ` perturbs the leaf admittance by
    // `ΔY(jω) = Σ_{p∈Δ} ω² r_p r_pᵀ / (1 + jωλ_p)`, and since every
    // term is a PSD rank-1 times a unit-modulus-or-less factor,
    // `|xᵀ ΔY x| ≤ ω² xᵀ M x ≤ ω² ‖M‖₂` with `M = Σ_{p∈Δ} r_p r_pᵀ`.
    // The trim admits candidates in ascending `e_p` order while a cheap
    // *upper* bound on `ω_max²‖M‖₂` stays within the budget:
    // first the trace bound `Σ e_p` (no `M` needed), then — because the
    // residue directions of distinct Gram modes are nearly orthogonal,
    // making the trace pessimistic by orders of magnitude — the
    // Gershgorin row-sum bound `‖M‖₂ ≤ ‖M‖_∞` on the incrementally
    // maintained `M`. Ordering by (err, idx) is deterministic;
    // survivors rejoin in descending-λ (= descending Gram index) order
    // behind the always-kept set.
    let budget = TRIM_BUDGET_REL * a1_norm;
    let mut order: Vec<usize> = (0..guard.len()).collect();
    order.sort_by(|&a, &b| {
        guard[a]
            .err
            .total_cmp(&guard[b].err)
            .then(guard[a].idx.cmp(&guard[b].idx))
    });
    let mut dropped = vec![false; guard.len()];
    let mut spent = 0.0f64;
    let mut trimmed = 0usize;
    let mut mm: Vec<f64> = Vec::new(); // M, built lazily on trace-bound exhaustion
    let mut rs: Vec<f64> = Vec::new(); // running row-sum upper estimates of M
    for (k, &gi) in order.iter().enumerate() {
        let g = &guard[gi];
        if mm.is_empty() && spent + g.err <= budget {
            spent += g.err;
            dropped[gi] = true;
            trimmed += 1;
            continue;
        }
        // Trace bound exhausted: switch to the Gershgorin bound on the
        // actual dropped-set matrix (backfilling M with the rows the
        // trace phase admitted).
        if mm.is_empty() {
            mm = vec![0.0f64; m * m];
            for &gj in &order[..k] {
                if dropped[gj] {
                    accumulate_rank1(&mut mm, &guard[gj].row, m);
                }
            }
            rs.resize(m, 0.0);
            exact_rowsums(&mm, m, &mut rs);
        }
        // `rs` holds per-row upper estimates of `M`'s Gershgorin row
        // sums, advanced in O(m) per candidate via the triangle
        // inequality (`|mm_ij + r_i r_j| ≤ |mm_ij| + |r_i||r_j|`). The
        // estimate only ever over-states the true row sum, so a passing
        // estimate is a passing exact check; when it fails, one exact
        // O(m²) recompute from `mm` tightens it before the real
        // verdict — decisions are identical to recomputing exactly for
        // every candidate, without the quadratic per-candidate scan.
        accumulate_rank1(&mut mm, &g.row, m);
        let l1: f64 = g.row.iter().map(|v| v.abs()).sum();
        for (r, &ri) in rs.iter_mut().zip(&g.row) {
            *r += ri.abs() * l1;
        }
        let mut worst = rs.iter().fold(0.0f64, |a, &b| a.max(b));
        if omega2 * worst > budget {
            exact_rowsums(&mm, m, &mut rs);
            worst = rs.iter().fold(0.0f64, |a, &b| a.max(b));
        }
        if omega2 * worst <= budget {
            dropped[gi] = true;
            trimmed += 1;
        } else {
            // Candidates only grow from here; the set is final.
            break;
        }
    }
    for (gi, g) in guard.into_iter().enumerate() {
        if !dropped[gi] {
            kept.push((g.lam, g.row));
        }
    }

    let mut lambdas = Vec::with_capacity(kept.len());
    let mut r2 = DMat::zeros(kept.len(), m);
    for (p, (lam, row)) in kept.into_iter().enumerate() {
        lambdas.push(lam);
        for (j, v) in row.into_iter().enumerate() {
            r2[(p, j)] = v;
        }
    }
    Ok(SchurPoles {
        lambdas,
        r2,
        trimmed,
    })
}
