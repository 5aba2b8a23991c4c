//! Fill-reducing orderings for sparse factorization.
//!
//! The paper factors the internal conductance matrix `D` of 3-D mesh
//! networks; ordering quality determines the dominant memory term
//! (19.5 of 25.8 MB in Table 4). Every [`crate::SparseCholesky`] orders
//! by nested dissection. [`amd`], an approximate-minimum-degree ordering
//! of `A + Aᵀ`, is the column pre-order every [`crate::SparseLu`]
//! applies before factoring, so circuit MNA matrices factor with
//! near-minimal fill whatever order the deck names its nodes in.

use std::collections::BTreeSet;

use crate::csr::CsrMat;

/// Nested dissection: recursively split the graph with a BFS level-set
/// separator, order the two halves first and the separator last. Small
/// subgraphs fall back to minimum degree. Asymptotically the best fill
/// for 2-D/3-D mesh graphs (`O(n log n)` vs a banded ordering's
/// `O(n^{5/3})` on a 3-D grid); substrate meshes are exactly its sweet
/// spot.
///
/// The result `perm` is used as `P A Pᵀ` with [`CsrMat::permute_sym`]:
/// row `i` of the permuted matrix is row `perm[i]` of the original.
pub(crate) fn nested_dissection(a: &CsrMat) -> Vec<usize> {
    let n = a.nrows();
    let mut order = Vec::with_capacity(n);
    let all: Vec<usize> = (0..n).collect();
    dissect(a, &all, &mut order, &mut NdScratch::new(n));
    debug_assert_eq!(order.len(), n);
    order
}

/// Threshold below which subgraphs are ordered by local minimum degree.
const ND_LEAF: usize = 64;

/// Subgraphs above this size that expose no separator (quasi-dense
/// blobs — e.g. the union of leaf-boundary cliques a hierarchical
/// stitch produces) are ordered by local RCM instead of the quadratic
/// local minimum degree, which spends seconds re-cliquing a dense
/// elimination front for no fill benefit.
const ND_BLOB_RCM: usize = 512;

/// `NdScratch::mark` of a node outside the current subgraph.
const OUTSIDE: usize = usize::MAX;
/// `NdScratch::mark` of a subgraph node a BFS has not reached yet.
const UNSEEN: usize = usize::MAX - 1;

/// Node-indexed workspace shared by the nested-dissection helpers, sized
/// to the whole graph once. Between helper calls every `mark` entry is
/// [`OUTSIDE`]; a helper marks the nodes of its subgraph, uses the marks
/// as membership, BFS depth, visit state or side, and resets exactly
/// those nodes before it returns, so one scratch serves the whole
/// recursion at `O(|nodes|)` per call.
struct NdScratch {
    mark: Vec<usize>,
    /// Subset degree of a node (`local_rcm`); only read where written.
    degree: Vec<usize>,
}

impl NdScratch {
    fn new(n: usize) -> Self {
        NdScratch {
            mark: vec![OUTSIDE; n],
            degree: vec![0; n],
        }
    }

    fn set(&mut self, nodes: &[usize], value: usize) {
        for &v in nodes {
            self.mark[v] = value;
        }
    }
}

fn dissect(a: &CsrMat, nodes: &[usize], order: &mut Vec<usize>, s: &mut NdScratch) {
    if nodes.len() <= ND_LEAF {
        order.extend(local_min_degree(a, nodes, s));
        return;
    }
    let Some((part_a, sep, part_b)) = level_set_bisect(a, nodes, s) else {
        // No meaningful separator (graph is a clique-ish blob or a
        // short path): fall back to a local ordering — minimum degree
        // while it is cheap, RCM once the blob is big enough that
        // min-degree's dense elimination front turns quadratic.
        if nodes.len() > ND_BLOB_RCM {
            order.extend(local_rcm(a, nodes, s));
        } else {
            order.extend(local_min_degree(a, nodes, s));
        }
        return;
    };
    dissect(a, &part_a, order, s);
    dissect(a, &part_b, order, s);
    order.extend(sep);
}

/// BFS level sets of the subgraph of `a` induced by `nodes`, from a
/// pseudo-peripheral seed. Levels only connect consecutively, so any
/// single level is a vertex separator of the reached component;
/// `unreached` holds the other components (touched by no edge at all).
struct LevelSets {
    /// `levels[l]` = vertices at BFS depth `l`, in visit order.
    levels: Vec<Vec<usize>>,
    /// Vertices outside the seed's component, in `nodes` order.
    unreached: Vec<usize>,
}

fn bfs_level_sets(a: &CsrMat, nodes: &[usize], s: &mut NdScratch) -> LevelSets {
    s.set(nodes, UNSEEN);
    // Pseudo-peripheral seed: the first vertex of the deepest level of a
    // BFS from `nodes[0]` — one pass, good enough on meshes.
    let probe = bfs_levels(a, nodes[0], &mut s.mark);
    let start = probe.last().expect("the seed's level")[0];
    for &v in probe.iter().flatten() {
        s.mark[v] = UNSEEN;
    }
    let levels = bfs_levels(a, start, &mut s.mark);
    let unreached: Vec<usize> = nodes
        .iter()
        .copied()
        .filter(|&v| s.mark[v] == UNSEEN)
        .collect();
    s.set(nodes, OUTSIDE);
    LevelSets { levels, unreached }
}

/// Breadth-first levels from `start` over the vertices marked
/// [`UNSEEN`], each level in visit order (the FIFO order of a queue-based
/// BFS); every reached vertex's mark becomes its depth.
fn bfs_levels(a: &CsrMat, start: usize, mark: &mut [usize]) -> Vec<Vec<usize>> {
    mark[start] = 0;
    let mut levels = vec![vec![start]];
    loop {
        let depth = levels.len();
        let mut next = Vec::new();
        for &u in levels.last().expect("nonempty") {
            for (w, _) in a.row_iter(u) {
                if mark[w] == UNSEEN {
                    mark[w] = depth;
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            return levels;
        }
        levels.push(next);
    }
}

/// Splits level sets at `sep_level`: levels below form `part_a`, the
/// chosen level is the separator, levels above plus the unreached
/// components form `part_b`.
fn split_at_level(ls: &LevelSets, sep_level: usize) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut part_a: Vec<usize> = Vec::new();
    let mut part_b: Vec<usize> = Vec::new();
    let mut sep: Vec<usize> = Vec::new();
    for (li, lv) in ls.levels.iter().enumerate() {
        match li.cmp(&sep_level) {
            std::cmp::Ordering::Less => part_a.extend(lv),
            std::cmp::Ordering::Equal => sep.extend(lv),
            std::cmp::Ordering::Greater => part_b.extend(lv),
        }
    }
    part_b.extend(&ls.unreached);
    (part_a, sep, part_b)
}

/// Shared preamble of the bisection variants: degenerate-size and
/// too-few-levels handling. `Err(Some(split))` is an early answer (the
/// disconnected reached-vs-unreached split), `Err(None)` means no
/// useful separator exists, `Ok(ls)` hands the level sets on.
type Bisection = (Vec<usize>, Vec<usize>, Vec<usize>);

fn bisect_levels(
    a: &CsrMat,
    nodes: &[usize],
    s: &mut NdScratch,
) -> Result<LevelSets, Option<Bisection>> {
    if nodes.len() < 3 {
        return Err(None);
    }
    let ls = bfs_level_sets(a, nodes, s);
    if ls.levels.len() < 3 {
        if ls.unreached.is_empty() {
            return Err(None);
        }
        // The reached component is too small to bisect, but the
        // subgraph is disconnected: split reached from unreached with
        // an empty separator (no edge joins them).
        let reached: Vec<usize> = ls.levels.iter().flatten().copied().collect();
        return Err(Some((reached, Vec::new(), ls.unreached)));
    }
    Ok(ls)
}

/// BFS level-set vertex bisection of the subgraph of `a` induced by
/// `nodes`: breadth-first levels from a pseudo-peripheral seed, the
/// median level as separator. Returns `(part_a, separator, part_b)`
/// where no edge of `a` joins `part_a` to `part_b` (BFS levels only
/// connect consecutively; disconnected remainders land in `part_b`,
/// which they touch by no edge at all). Returns `None` when the
/// subgraph has fewer than three levels or a side would be empty —
/// i.e. there is no useful separator.
fn level_set_bisect(a: &CsrMat, nodes: &[usize], s: &mut NdScratch) -> Option<Bisection> {
    let ls = match bisect_levels(a, nodes, s) {
        Ok(ls) => ls,
        Err(early) => return early,
    };
    let (part_a, sep, part_b) = split_at_level(&ls, median_mass_level(&ls));
    if part_a.is_empty() || part_b.is_empty() {
        return None;
    }
    Some((part_a, sep, part_b))
}

/// The level at which cumulative reached mass first crosses one half,
/// clamped to keep both sides nonempty.
fn median_mass_level(ls: &LevelSets) -> usize {
    let total: usize = ls.levels.iter().map(Vec::len).sum();
    let mut acc = 0usize;
    let mut sep_level = ls.levels.len() / 2;
    for (li, lv) in ls.levels.iter().enumerate() {
        acc += lv.len();
        if acc * 2 >= total {
            sep_level = li.clamp(1, ls.levels.len() - 2);
            break;
        }
    }
    sep_level
}

/// Level-set bisection tuned for the hierarchical partitioner
/// ([`nested_dissection_partition`]): every separator vertex becomes an
/// interface port whose boundary block the downstream reduction pays
/// for *densely*, so separator thickness — not just balance — is the
/// cost driver. Two refinements over [`level_set_bisect`]:
///
/// 1. the separator is the *thinnest* BFS level whose cut keeps at
///    least a quarter of the reached mass on each side (the ordering
///    pass keeps the plain median-mass cut, where balance matters more
///    than thickness), tie-broken toward the median then the lower
///    level;
/// 2. separator vertices touching only one side are shaved back into
///    that side — BFS levels on non-tensor meshes routinely carry such
///    one-sided fat.
///
/// Shaving preserves the separator invariant (no edge joins `part_a`
/// to `part_b`): a vertex moved into `part_a` had no `part_b` neighbor
/// when it moved, a vertex moved into `part_b` had no neighbor in the
/// *already-grown* `part_a`, and two shaved vertices that were
/// neighbors can only both move toward the same side (the `part_b`
/// check runs against post-shave `part_a`, so it sees the other mover).
/// Same return contract as [`level_set_bisect`].
fn level_set_bisect_thin(a: &CsrMat, nodes: &[usize], s: &mut NdScratch) -> Option<Bisection> {
    let ls = match bisect_levels(a, nodes, s) {
        Ok(ls) => ls,
        Err(early) => return early,
    };
    let total: usize = ls.levels.iter().map(Vec::len).sum();
    let median = median_mass_level(&ls);
    // Thinnest level keeping ≥ 25% of reached mass strictly below and
    // strictly above the cut, clamped to interior levels.
    let mut best = median;
    let mut best_size = usize::MAX;
    let mut below = 0usize;
    for (li, lv) in ls.levels.iter().enumerate() {
        let above = total - below - lv.len();
        if li >= 1 && li + 1 < ls.levels.len() && 4 * below >= total && 4 * above >= total {
            // Ascending scan: equal size and distance keeps the lower
            // level automatically.
            let better = lv.len() < best_size
                || (lv.len() == best_size && li.abs_diff(median) < best.abs_diff(median));
            if better {
                best = li;
                best_size = lv.len();
            }
        }
        below += lv.len();
    }
    let (mut part_a, sep, mut part_b) = split_at_level(&ls, best);
    if part_a.is_empty() || part_b.is_empty() {
        return None;
    }

    // Two-phase shave. Sides are marked on the original vertex ids so
    // neighbor probes are O(1); vertices outside `nodes` stay OUTSIDE.
    const SIDE_A: usize = 0;
    const SIDE_SEP: usize = 1;
    const SIDE_B: usize = 2;
    s.set(&part_a, SIDE_A);
    s.set(&sep, SIDE_SEP);
    s.set(&part_b, SIDE_B);
    let side = &mut s.mark;
    // Phase 1: separator vertices with no part_b neighbor fold into
    // part_a (their edges all stay on the a-side of the cut).
    for &v in &sep {
        if a.row_iter(v).all(|(w, _)| side[w] != SIDE_B) {
            side[v] = SIDE_A;
            part_a.push(v);
        }
    }
    // Phase 2: remaining separator vertices with no neighbor in the
    // *grown* part_a fold into part_b.
    let mut thin_sep = Vec::with_capacity(sep.len());
    for &v in &sep {
        if side[v] != SIDE_SEP {
            continue;
        }
        if a.row_iter(v).all(|(w, _)| side[w] != SIDE_A) {
            side[v] = SIDE_B;
            part_b.push(v);
        } else {
            thin_sep.push(v);
        }
    }
    s.set(nodes, OUTSIDE);
    Some((part_a, thin_sep, part_b))
}

/// A vertex partition produced by recursive nested dissection
/// ([`nested_dissection_partition`]): disjoint leaf blocks plus the
/// vertex separators removed at each dissection step.
///
/// Invariants (asserted by the partitioner's tests):
///
/// - every graph vertex appears in exactly one leaf or one separator;
/// - no edge of the graph joins two distinct leaves — every inter-leaf
///   path passes through a separator vertex. This is what lets a
///   divide-and-conquer reduction treat leaves independently once the
///   separator vertices are promoted to interface ports.
#[derive(Clone, Debug, Default)]
pub struct NdPartition {
    /// Disjoint leaf blocks, in deterministic dissection order.
    pub leaves: Vec<Vec<usize>>,
    /// One separator per dissection step, outermost first.
    pub separators: Vec<Vec<usize>>,
    /// Depth of the deepest dissection (0 when the graph was small
    /// enough to stay a single leaf).
    pub depth: usize,
}

impl NdPartition {
    /// Total vertices across all separators.
    pub fn separator_nodes(&self) -> usize {
        self.separators.iter().map(Vec::len).sum()
    }

    /// Size of the largest leaf block (0 when there are none).
    pub fn max_leaf(&self) -> usize {
        self.leaves.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Size of the largest separator (0 when there are none).
    pub fn max_separator(&self) -> usize {
        self.separators.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Partitions the adjacency graph of the symmetric pattern `a` by
/// recursive BFS vertex separators until every leaf block has at most
/// `max_block` vertices or `max_depth` dissection levels have been
/// spent. Deterministic: depends only on the matrix pattern and the
/// two budgets.
///
/// Subgraphs that expose no useful separator (cliques, short paths)
/// stay whole as leaves even above `max_block`, so callers must treat
/// `max_block` as a target, not a guarantee.
///
/// # Panics
///
/// Panics if `a` is not square or `max_block` is zero.
pub fn nested_dissection_partition(a: &CsrMat, max_block: usize, max_depth: usize) -> NdPartition {
    assert_eq!(a.nrows(), a.ncols(), "partitioning needs a square matrix");
    assert!(max_block > 0, "max_block must be positive");
    let mut part = NdPartition::default();
    if a.nrows() == 0 {
        return part;
    }
    let all: Vec<usize> = (0..a.nrows()).collect();
    let budget = (max_block, max_depth);
    partition_rec(a, all, budget, 0, &mut part, &mut NdScratch::new(a.nrows()));
    part
}

fn partition_rec(
    a: &CsrMat,
    nodes: Vec<usize>,
    (max_block, max_depth): (usize, usize),
    depth: usize,
    out: &mut NdPartition,
    s: &mut NdScratch,
) {
    out.depth = out.depth.max(depth);
    if nodes.len() <= max_block || depth >= max_depth {
        if !nodes.is_empty() {
            out.leaves.push(nodes);
        }
        return;
    }
    match level_set_bisect_thin(a, &nodes, s) {
        Some((part_a, sep, part_b)) => {
            out.separators.push(sep);
            let budget = (max_block, max_depth);
            partition_rec(a, part_a, budget, depth + 1, out, s);
            partition_rec(a, part_b, budget, depth + 1, out, s);
        }
        None => out.leaves.push(nodes),
    }
}

/// Reverse Cuthill–McKee restricted to a node subset: the dissection
/// fallback for large blobs where [`local_min_degree`] would go
/// quadratic. One BFS per component from a minimum-subset-degree seed,
/// neighbors visited in ascending subset-degree order, result reversed
/// — `O(nnz log nnz)` regardless of how dense the blob is.
fn local_rcm(a: &CsrMat, nodes: &[usize], s: &mut NdScratch) -> Vec<usize> {
    // Subset membership / visit marker on original ids.
    const MEMBER: usize = 0;
    const VISITED: usize = 1;
    s.set(nodes, MEMBER);
    let (state, degree) = (&mut s.mark, &mut s.degree);
    for &v in nodes {
        degree[v] = a
            .row_iter(v)
            .filter(|&(w, _)| w != v && state[w] != OUTSIDE)
            .count();
    }
    let mut order = Vec::with_capacity(nodes.len());
    let mut queue = std::collections::VecDeque::new();
    let mut neighbors: Vec<usize> = Vec::new();
    let mut seeds: Vec<usize> = nodes.to_vec();
    seeds.sort_unstable_by_key(|&v| (degree[v], v));
    for &seed in &seeds {
        if state[seed] == VISITED {
            continue;
        }
        state[seed] = VISITED;
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            neighbors.clear();
            neighbors.extend(
                a.row_iter(u)
                    .map(|(w, _)| w)
                    .filter(|&w| state[w] == MEMBER),
            );
            neighbors.sort_unstable_by_key(|&w| (degree[w], w));
            for &w in &neighbors {
                if state[w] == MEMBER {
                    state[w] = VISITED;
                    queue.push_back(w);
                }
            }
        }
    }
    s.set(nodes, OUTSIDE);
    order.reverse();
    order
}

/// Minimum-degree ordering restricted to a node subset (used as the
/// nested-dissection leaf ordering): repeatedly eliminate the remaining
/// vertex of fewest adjacency entries, the lowest node id among equals,
/// and clique its remaining neighbors.
///
/// The subset is relabelled `0..k` in ascending node id and each
/// adjacency set is a `k`-bit row, so ascending local index is ascending
/// node id and every tie-break is the one an ordered-set implementation
/// makes. Like that implementation, an entry is only dropped from a
/// neighbor's set when the pivot lists that neighbor itself, so on an
/// unsymmetric pattern a set may keep an eliminated vertex and count it.
fn local_min_degree(a: &CsrMat, nodes: &[usize], s: &mut NdScratch) -> Vec<usize> {
    let mut ids = nodes.to_vec();
    ids.sort_unstable();
    let k = ids.len();
    for (li, &v) in ids.iter().enumerate() {
        s.mark[v] = li;
    }
    let words = k.div_ceil(64);
    let bit = |i: usize| (i / 64, 1u64 << (i % 64));
    let mut adj = vec![0u64; k * words];
    for (li, &v) in ids.iter().enumerate() {
        let row = &mut adj[li * words..(li + 1) * words];
        for (w, _) in a.row_iter(v) {
            let lw = s.mark[w];
            if w != v && lw != OUTSIDE {
                let (q, b) = bit(lw);
                row[q] |= b;
            }
        }
    }
    s.set(nodes, OUTSIDE);
    let degree = |adj: &[u64], i: usize| -> u32 {
        adj[i * words..(i + 1) * words]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    };
    let mut remaining = vec![0u64; words];
    for i in 0..k {
        let (q, b) = bit(i);
        remaining[q] |= b;
    }
    let mut nbrs = vec![0u64; words];
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        // First minimum in ascending order.
        let mut v = usize::MAX;
        let mut best = u32::MAX;
        for i in set_bits(&remaining) {
            let d = degree(&adj, i);
            if d < best {
                (v, best) = (i, d);
            }
        }
        let (vq, vb) = bit(v);
        remaining[vq] &= !vb;
        out.push(ids[v]);
        // Each remaining neighbor u loses v and gains every other
        // remaining neighbor: adj[u] = (adj[u] \ {v}) ∪ (nbrs \ {u}).
        for ((n, r), x) in nbrs.iter_mut().zip(&remaining).zip(&adj[v * words..]) {
            *n = r & x;
        }
        for u in set_bits(&nbrs) {
            let (uq, ub) = bit(u);
            let row = &mut adj[u * words..(u + 1) * words];
            for (x, n) in row.iter_mut().zip(&nbrs) {
                *x |= n;
            }
            row[uq] &= !ub;
            row[vq] &= !vb;
        }
    }
    out
}

/// Indices of the set bits of a bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(q, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let t = w.trailing_zeros() as usize;
                w &= w - 1;
                q * 64 + t
            })
        })
    })
}

/// Returns the inverse permutation: `inv[perm[i]] == i`.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Validates that `perm` is a permutation of `0..n`.
#[cfg(test)]
fn is_permutation(perm: &[usize]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Approximate minimum degree (AMD) ordering of the symmetric pattern
/// `A + Aᵀ` of a square matrix given in compressed form (`indptr`,
/// `indices`: CSC or CSR — the union pattern is the same). Diagonal
/// entries are ignored; duplicates are allowed.
///
/// Returns `perm` with `perm[k]` = the `k`-th variable to eliminate, the
/// contract of [`CsrMat::permute_sym`]. This is the fill-reducing column
/// pre-order of the sparse LU.
///
/// The algorithm is Amestoy–Davis–Duff AMD on a quotient graph:
///
/// - eliminated variables become *elements* whose adjacency is stored
///   implicitly, and an element reached through the new pivot's element
///   list is absorbed into the new element, so the graph fits in the
///   input pattern plus an elbow room;
/// - degrees are the AMD *approximate external degrees* (an upper bound
///   built from the `|Le \ Lk|` set differences), updated only for the
///   variables adjacent to the pivot, with aggressive absorption of
///   elements whose remaining pattern is covered by the new one;
/// - indistinguishable variables are merged into supervariables (hash
///   buckets of their element/variable lists) and eliminated together,
///   and variables whose degree drops to zero are mass-eliminated;
/// - rows denser than `max(16, 10√n)` are set aside and ordered last;
/// - the result is a postorder of the assembly tree.
///
/// Time is near `O(nnz(L))`, memory `O(nnz(A) + n)`. Deterministic: the
/// pivot is the variable of lowest approximate degree, ties broken by
/// lowest index.
///
/// # Panics
///
/// Panics if `indptr.len() != n + 1` or an index is out of range.
pub fn amd(n: usize, indptr: &[usize], indices: &[usize]) -> Vec<usize> {
    assert_eq!(indptr.len(), n + 1, "indptr length");
    if n == 0 {
        return Vec::new();
    }
    let mut g = Amd::new(n, indptr, indices);
    while g.nel < n {
        g.eliminate_next();
    }
    g.postorder()
}

/// The symmetric, diagonal-free, deduplicated pattern of `A + Aᵀ` as
/// sorted adjacency lists.
fn symmetric_pattern(n: usize, indptr: &[usize], indices: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut count = vec![0usize; n];
    for j in 0..n {
        for &i in &indices[indptr[j]..indptr[j + 1]] {
            if i != j {
                count[i] += 1;
                count[j] += 1;
            }
        }
    }
    let mut ptr = vec![0usize; n + 1];
    for v in 0..n {
        ptr[v + 1] = ptr[v] + count[v];
    }
    let mut adj = vec![0usize; ptr[n]];
    let mut fill = ptr[..n].to_vec();
    for j in 0..n {
        for &i in &indices[indptr[j]..indptr[j + 1]] {
            if i != j {
                adj[fill[i]] = j;
                fill[i] += 1;
                adj[fill[j]] = i;
                fill[j] += 1;
            }
        }
    }
    // Sort and deduplicate each list, compacting in place.
    let mut out_ptr = vec![0usize; n + 1];
    let mut w = 0usize;
    for v in 0..n {
        adj[ptr[v]..ptr[v + 1]].sort_unstable();
        for k in ptr[v]..ptr[v + 1] {
            if w == out_ptr[v] || adj[w - 1] != adj[k] {
                adj[w] = adj[k];
                w += 1;
            }
        }
        out_ptr[v + 1] = w;
    }
    adj.truncate(w);
    (out_ptr, adj)
}

/// Marks a node as a child of `parent` in `Amd::cp`, or an entry as an
/// object head during garbage collection: `flip(flip(i)) == i` and
/// `flip(i) < -1` for every `i >= 0`.
fn flip(i: isize) -> isize {
    -i - 2
}

/// The AMD quotient graph. Objects `0..n` are variables or elements
/// (`elen < -1` marks an element); object `n` is the root that absorbs
/// dense rows. Lists live in `ci`: an object's list starts at `cp[i]`,
/// is `len[i]` long, and for a variable holds its `elen[i]` adjacent
/// elements first, then its adjacent variables. A dead object's `cp` is
/// `flip(parent)` in the assembly tree (`-1` for a root).
struct Amd {
    n: usize,
    cp: Vec<isize>,
    ci: Vec<isize>,
    /// Used prefix of `ci`.
    cnz: usize,
    len: Vec<isize>,
    /// Supervariable size (0 = absorbed; negated while in the pivot's
    /// element).
    nv: Vec<isize>,
    /// Number of elements in a variable's list; -1 dead variable, -2
    /// element.
    elen: Vec<isize>,
    /// Approximate external degree (variables) or `|Le|` (elements).
    degree: Vec<isize>,
    /// Set-difference workspace and liveness flag of elements (0 = dead);
    /// values below `mark` are stale.
    w: Vec<isize>,
    /// Hash bucket chains for supervariable detection.
    next: Vec<isize>,
    /// A variable's hash bucket.
    last: Vec<isize>,
    hhead: Vec<isize>,
    /// Live variables keyed by (approximate degree, index).
    queue: BTreeSet<(isize, usize)>,
    /// Eliminated variables so far, counting supervariable weights.
    nel: usize,
    mark: isize,
    lemax: isize,
}

impl Amd {
    fn new(n: usize, indptr: &[usize], indices: &[usize]) -> Self {
        let (ptr, adj) = symmetric_pattern(n, indptr, indices);
        let cnz = adj.len();
        let mut ci = vec![0isize; cnz + cnz / 5 + 2 * n];
        for (dst, &v) in ci.iter_mut().zip(&adj) {
            *dst = v as isize;
        }
        let ni = n as isize;
        let mut cp: Vec<isize> = ptr.iter().map(|&p| p as isize).collect();
        cp[n] = -1;
        let mut len: Vec<isize> = ptr.windows(2).map(|w| (w[1] - w[0]) as isize).collect();
        len.push(0);
        let mut g = Amd {
            n,
            cp,
            ci,
            cnz,
            len,
            nv: vec![1; n + 1],
            elen: vec![0; n + 1],
            degree: vec![0; n + 1],
            w: vec![1; n + 1],
            next: vec![-1; n + 1],
            last: vec![-1; n + 1],
            hhead: vec![-1; n + 1],
            queue: BTreeSet::new(),
            nel: 0,
            mark: 2,
            lemax: 0,
        };
        g.degree.copy_from_slice(&g.len);
        g.elen[n] = -2;
        g.w[n] = 0;
        let dense = ((10.0 * (n as f64).sqrt()) as isize).max(16).min(ni - 2);
        for i in 0..n {
            let d = g.degree[i];
            if d == 0 {
                // Isolated: an empty element, a root of the tree.
                g.elen[i] = -2;
                g.nel += 1;
                g.cp[i] = -1;
                g.w[i] = 0;
            } else if d > dense {
                // Dense: absorbed into the root object n, ordered last.
                g.nv[i] = 0;
                g.elen[i] = -1;
                g.nel += 1;
                g.cp[i] = flip(ni);
                g.nv[n] += 1;
            } else {
                g.queue.insert((d, i));
            }
        }
        g
    }

    /// Compacts the live lists to the front of `ci`.
    fn collect_garbage(&mut self) {
        let (cp, ci) = (&mut self.cp, &mut self.ci);
        // Tag each live object's first entry with its flipped id.
        for j in 0..self.n {
            let p = cp[j];
            if p >= 0 {
                cp[j] = ci[p as usize];
                ci[p as usize] = flip(j as isize);
            }
        }
        let (mut q, mut p) = (0usize, 0usize);
        while p < self.cnz {
            let j = flip(ci[p]);
            p += 1;
            if j >= 0 {
                let j = j as usize;
                ci[q] = cp[j];
                cp[j] = q as isize;
                q += 1;
                for _ in 1..self.len[j] {
                    ci[q] = ci[p];
                    q += 1;
                    p += 1;
                }
            }
        }
        self.cnz = q;
    }

    /// Eliminates the variable of minimum approximate degree and updates
    /// the quotient graph around it.
    fn eliminate_next(&mut self) {
        let n = self.n;
        let (mindeg, k) = self.queue.pop_first().expect("a live variable remains");
        let ku = k as isize;
        let elenk = self.elen[k];
        let mut nvk = self.nv[k];
        self.nel += nvk as usize;
        // The new element needs at most `mindeg` slots at the end of ci.
        if elenk > 0 && self.cnz + mindeg as usize >= self.ci.len() {
            self.collect_garbage();
            let need = self.cnz + mindeg as usize + 1;
            if need > self.ci.len() {
                self.ci.resize(need, 0);
            }
        }

        // ---- Construct the new element Lk = (Ak ∪ ⋃ Le) \ {k} ----
        let mut dk = 0isize;
        self.nv[k] = -nvk;
        let mut p = self.cp[k];
        let pk1 = if elenk == 0 { p } else { self.cnz as isize };
        let mut pk2 = pk1;
        for k1 in 1..=elenk + 1 {
            let (e, mut pj, ln) = if k1 > elenk {
                (ku, p, self.len[k] - elenk)
            } else {
                let e = self.ci[p as usize];
                p += 1;
                (e, self.cp[e as usize], self.len[e as usize])
            };
            for _ in 0..ln {
                let i = self.ci[pj as usize];
                pj += 1;
                let iu = i as usize;
                let nvi = self.nv[iu];
                if nvi <= 0 {
                    continue; // dead, or already in Lk
                }
                dk += nvi;
                self.nv[iu] = -nvi;
                self.ci[pk2 as usize] = i;
                pk2 += 1;
                self.queue.remove(&(self.degree[iu], iu));
            }
            if e != ku {
                // Element absorption: e ⊆ Lk.
                self.cp[e as usize] = flip(ku);
                self.w[e as usize] = 0;
            }
        }
        if elenk != 0 {
            self.cnz = pk2 as usize;
        }
        self.degree[k] = dk;
        self.cp[k] = pk1;
        self.len[k] = pk2 - pk1;
        self.elen[k] = -2;

        // ---- Set differences |Le \ Lk| for every element e ≠ k ----
        let mark = self.mark;
        for pk in pk1..pk2 {
            let i = self.ci[pk as usize] as usize;
            let eln = self.elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -self.nv[i];
            let wnvi = mark - nvi;
            for p in self.cp[i]..self.cp[i] + eln {
                let e = self.ci[p as usize] as usize;
                if self.w[e] >= mark {
                    self.w[e] -= nvi;
                } else if self.w[e] != 0 {
                    self.w[e] = self.degree[e] + wnvi;
                }
            }
        }

        // ---- Approximate degree update of each variable in Lk ----
        for pk in pk1..pk2 {
            let i = self.ci[pk as usize] as usize;
            let p1 = self.cp[i];
            let p2 = p1 + self.elen[i] - 1;
            let mut pn = p1;
            let mut h = 0usize;
            let mut d = 0isize;
            for p in p1..=p2 {
                let e = self.ci[p as usize];
                let eu = e as usize;
                if self.w[eu] != 0 {
                    let dext = self.w[eu] - mark;
                    if dext > 0 {
                        d += dext;
                        self.ci[pn as usize] = e;
                        pn += 1;
                        h = h.wrapping_add(eu);
                    } else {
                        // Aggressive absorption: Le \ Lk is empty.
                        self.cp[eu] = flip(ku);
                        self.w[eu] = 0;
                    }
                }
            }
            self.elen[i] = pn - p1 + 1; // + the new element k
            let p3 = pn;
            let p4 = p1 + self.len[i];
            for p in p2 + 1..p4 {
                let j = self.ci[p as usize];
                let nvj = self.nv[j as usize];
                if nvj <= 0 {
                    continue; // dead, or in Lk (covered by element k)
                }
                d += nvj;
                self.ci[pn as usize] = j;
                pn += 1;
                h = h.wrapping_add(j as usize);
            }
            if d == 0 {
                // Mass elimination: i is adjacent to nothing but k.
                self.cp[i] = flip(ku);
                let nvi = -self.nv[i];
                dk -= nvi;
                nvk += nvi;
                self.nel += nvi as usize;
                self.nv[i] = 0;
                self.elen[i] = -1;
            } else {
                self.degree[i] = self.degree[i].min(d);
                // Make k the first element of i's list.
                let (p1u, p3u, pnu) = (p1 as usize, p3 as usize, pn as usize);
                self.ci[pnu] = self.ci[p3u];
                self.ci[p3u] = self.ci[p1u];
                self.ci[p1u] = ku;
                self.len[i] = pn - p1 + 1;
                let h = (h % n) as isize;
                self.next[i] = self.hhead[h as usize];
                self.hhead[h as usize] = i as isize;
                self.last[i] = h;
            }
        }
        self.degree[k] = dk;
        self.lemax = self.lemax.max(dk);
        // Every workspace value set above is below mark + |Le| ≤ mark +
        // lemax, so moving the mark past it clears `w` in O(1). The mark
        // grows by at most 2n per pivot, far from overflowing an isize.
        self.mark = mark + self.lemax;

        // ---- Supervariable detection ----
        for pk in pk1..pk2 {
            let i0 = self.ci[pk as usize] as usize;
            if self.nv[i0] >= 0 {
                continue; // mass-eliminated
            }
            let h = self.last[i0] as usize;
            let mut i = self.hhead[h];
            self.hhead[h] = -1;
            while i != -1 && self.next[i as usize] != -1 {
                let iu = i as usize;
                let ln = self.len[iu];
                let eln = self.elen[iu];
                let mark = self.mark;
                // Entry 0 is k for every variable in Lk.
                for p in self.cp[iu] + 1..self.cp[iu] + ln {
                    self.w[self.ci[p as usize] as usize] = mark;
                }
                let mut jlast = iu;
                let mut j = self.next[iu];
                while j != -1 {
                    let ju = j as usize;
                    let same = self.len[ju] == ln
                        && self.elen[ju] == eln
                        && (self.cp[ju] + 1..self.cp[ju] + ln)
                            .all(|p| self.w[self.ci[p as usize] as usize] == mark);
                    if same {
                        // j is indistinguishable from i: absorb it.
                        self.cp[ju] = flip(i);
                        self.nv[iu] += self.nv[ju];
                        self.nv[ju] = 0;
                        self.elen[ju] = -1;
                        j = self.next[ju];
                        self.next[jlast] = j;
                    } else {
                        jlast = ju;
                        j = self.next[ju];
                    }
                }
                i = self.next[iu];
                self.mark += 1;
            }
        }

        // ---- Finalize Lk and requeue its variables ----
        let mut p = pk1;
        let remaining = (n - self.nel) as isize;
        for pk in pk1..pk2 {
            let i = self.ci[pk as usize];
            let iu = i as usize;
            let nvi = -self.nv[iu];
            if nvi <= 0 {
                continue; // absorbed
            }
            self.nv[iu] = nvi;
            let d = (self.degree[iu] + dk - nvi).min(remaining - nvi);
            self.degree[iu] = d;
            self.queue.insert((d, iu));
            self.ci[p as usize] = i;
            p += 1;
        }
        self.nv[k] = nvk;
        self.len[k] = p - pk1;
        if self.len[k] == 0 {
            self.cp[k] = -1;
            self.w[k] = 0;
        }
        if elenk != 0 {
            self.cnz = p as usize;
        }
    }

    /// Postorder of the assembly tree: each principal variable after the
    /// variables absorbed into it, dense rows last.
    fn postorder(mut self) -> Vec<usize> {
        let n = self.n;
        for i in 0..n {
            self.cp[i] = flip(self.cp[i]);
        }
        // Child lists, ascending: absorbed variables, then elements.
        let mut head = vec![-1isize; n + 1];
        let next = &mut self.next;
        for j in (0..=n).rev() {
            if self.nv[j] > 0 {
                continue;
            }
            let parent = self.cp[j] as usize;
            next[j] = head[parent];
            head[parent] = j as isize;
        }
        for e in (0..=n).rev() {
            if self.nv[e] <= 0 || self.cp[e] == -1 {
                continue;
            }
            let parent = self.cp[e] as usize;
            next[e] = head[parent];
            head[parent] = e as isize;
        }
        let mut post = Vec::with_capacity(n + 1);
        let mut stack = Vec::new();
        for root in 0..=n {
            if self.cp[root] != -1 {
                continue;
            }
            stack.push(root);
            while let Some(&top) = stack.last() {
                let child = head[top];
                if child == -1 {
                    stack.pop();
                    post.push(top);
                } else {
                    head[top] = next[child as usize];
                    stack.push(child as usize);
                }
            }
        }
        debug_assert_eq!(post.len(), n + 1);
        debug_assert_eq!(post.last(), Some(&n));
        post.truncate(n);
        post
    }
}

/// Postorder of an elimination tree given as a parent array (roots hold
/// `usize::MAX`).
///
/// Returns `post` such that `post[k]` is the node visited `k`-th in a
/// depth-first postorder traversal; children (and roots) are visited in
/// ascending node order, so the result is deterministic. Relabelling
/// columns by an etree postorder leaves the fill pattern, the column
/// counts, and the tree itself invariant (it is a topological reorder of
/// the elimination), while making every parent chain — and therefore every
/// supernode — occupy *contiguous* column indices. The supernodal
/// Cholesky composes this with the fill-reducing permutation.
pub fn etree_postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Child lists in ascending order: descending construction order makes
    // the intrusive list head the smallest child.
    let mut head = vec![usize::MAX; n];
    let mut next = vec![usize::MAX; n];
    for j in (0..n).rev() {
        let p = parent[j];
        if p != usize::MAX {
            debug_assert!(p > j, "etree parent must be larger than the child");
            next[j] = head[p];
            head[p] = j;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<usize> = Vec::new();
    for r in 0..n {
        if parent[r] != usize::MAX {
            continue;
        }
        stack.push(r);
        while let Some(&top) = stack.last() {
            let c = head[top];
            if c == usize::MAX {
                post.push(top);
                stack.pop();
            } else {
                head[top] = next[c]; // consume child c
                stack.push(c);
            }
        }
    }
    debug_assert_eq!(post.len(), n);
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMat;

    /// 1-D chain graph with a "bad" scrambled numbering.
    fn scrambled_chain(n: usize) -> CsrMat {
        let mut t = TripletMat::new(n, n);
        // chain in a scrambled labelling: node order is bit-reversed-ish
        let label: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
        for w in label.windows(2) {
            t.stamp_conductance(Some(w[0]), Some(w[1]), 1.0);
        }
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        t.to_csr()
    }

    /// [`amd`] of a square matrix's pattern.
    fn amd_of(a: &CsrMat) -> Vec<usize> {
        amd(a.nrows(), a.indptr(), a.indices())
    }

    type Order = fn(&CsrMat) -> Vec<usize>;

    /// The two orderings, by name: the Cholesky's and the LU's.
    const ORDERINGS: [(&str, Order); 2] =
        [("nested_dissection", nested_dissection), ("amd", amd_of)];

    #[test]
    fn permutations_are_valid() {
        let a = scrambled_chain(20);
        for (name, ord) in ORDERINGS {
            let p = ord(&a);
            assert!(is_permutation(&p), "{name} produced invalid permutation");
        }
    }

    /// 3-D grid Laplacian: the target workload of nested dissection.
    fn grid3d(nx: usize, ny: usize, nz: usize) -> CsrMat {
        let n = nx * ny * nz;
        let id = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut t = TripletMat::new(n, n);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if x + 1 < nx {
                        t.stamp_conductance(Some(id(x, y, z)), Some(id(x + 1, y, z)), 1.0);
                    }
                    if y + 1 < ny {
                        t.stamp_conductance(Some(id(x, y, z)), Some(id(x, y + 1, z)), 1.0);
                    }
                    if z + 1 < nz {
                        t.stamp_conductance(Some(id(x, y, z)), Some(id(x, y, z + 1)), 1.0);
                    }
                    t.push(id(x, y, z), id(x, y, z), 0.5);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn nested_dissection_fill_on_3d_grid_beats_natural_and_nears_amd() {
        // The natural order of a grid is banded (bandwidth nx·ny), the
        // envelope fill nested dissection exists to beat. On this small
        // grid AMD still wins by ~17 % (nd 15,983, amd 13,669, natural
        // 51,509 entries); ND must stay within 1.5× of it.
        let a = grid3d(10, 10, 6);
        let adj = adjacency(&a);
        let fill = |p: &[usize]| symbolic_fill(a.nrows(), &adj, p);
        let natural = fill(&(0..a.nrows()).collect::<Vec<_>>());
        let amd = fill(&amd_of(&a));
        let nd = fill(&nested_dissection(&a));
        assert!(
            nd < natural,
            "nested dissection should reduce fill on a 3-D grid: nd={nd} natural={natural}"
        );
        assert!(2 * nd < 3 * amd, "nd {nd} vs amd {amd}");
    }

    #[test]
    fn nested_dissection_is_valid_on_disconnected_graph() {
        let mut t = TripletMat::new(100, 100);
        for i in 0..49 {
            t.stamp_conductance(Some(i), Some(i + 1), 1.0);
        }
        for i in 50..99 {
            t.stamp_conductance(Some(i), Some(i + 1), 1.0);
        }
        for i in 0..100 {
            t.push(i, i, 1.0);
        }
        let a = t.to_csr();
        let p = nested_dissection(&a);
        assert!(is_permutation(&p));
    }

    #[test]
    fn min_degree_orders_chain_perfectly() {
        // On a chain min-degree eliminates endpoints first: no fill at all.
        let a = scrambled_chain(15);
        let p = amd_of(&a);
        assert!(is_permutation(&p));
        let no_fill = (a.nnz() + a.nrows()) / 2;
        assert_eq!(symbolic_fill(15, &adjacency(&a), &p), no_fill);
    }

    /// Pattern-only `L` size of `P A Pᵀ` by symbolic elimination: the
    /// test oracle for fill (counts the diagonal).
    fn symbolic_fill(n: usize, adj: &[Vec<usize>], perm: &[usize]) -> usize {
        let pos = invert_permutation(perm);
        let mut sets_by_pos = vec![BTreeSet::new(); n];
        for v in 0..n {
            sets_by_pos[pos[v]].extend(adj[v].iter().map(|&w| pos[w]));
        }
        let mut total = n;
        for k in 0..n {
            let later: Vec<usize> = sets_by_pos[k].iter().copied().filter(|&w| w > k).collect();
            total += later.len();
            for (i, &u) in later.iter().enumerate() {
                for &w in &later[i + 1..] {
                    sets_by_pos[u].insert(w);
                    sets_by_pos[w].insert(u);
                }
            }
        }
        total
    }

    fn adjacency(a: &CsrMat) -> Vec<Vec<usize>> {
        (0..a.nrows())
            .map(|i| a.row_iter(i).map(|(j, _)| j).collect())
            .collect()
    }

    #[test]
    fn amd_handles_degenerate_inputs() {
        assert!(amd(0, &[0], &[]).is_empty());
        assert_eq!(amd(1, &[0, 0], &[]), vec![0]);
        assert_eq!(amd(1, &[0, 1], &[0]), vec![0]);
        // Diagonal-only, duplicated and one-sided (unsymmetric) entries.
        let p = amd(4, &[0, 2, 3, 6, 7], &[0, 0, 3, 1, 1, 2, 3]);
        assert!(is_permutation(&p));
        let p = amd(3, &[0, 1, 1, 1], &[2]);
        assert!(is_permutation(&p));
    }

    #[test]
    fn amd_is_a_valid_deterministic_permutation_on_random_patterns() {
        let mut rng = crate::rng::XorShiftRng::seed_from_u64(0xa3d);
        for case in 0..300 {
            let n = 1 + rng.gen_index(120);
            let per_col = rng.gen_index(8);
            let mut indptr = vec![0usize];
            let mut indices = Vec::new();
            for _ in 0..n {
                for _ in 0..per_col {
                    indices.push(rng.gen_index(n));
                }
                // An occasional dense column exercises the dense-row path.
                if case % 7 == 0 && rng.gen_index(10) == 0 {
                    indices.extend(0..n);
                }
                indptr.push(indices.len());
            }
            let p = amd(n, &indptr, &indices);
            assert!(is_permutation(&p), "case {case}: not a permutation");
            assert_eq!(
                p,
                amd(n, &indptr, &indices),
                "case {case}: nondeterministic"
            );
        }
    }

    #[test]
    fn amd_fill_is_near_minimum_degree_quality() {
        // On 2-D and 3-D grids AMD must beat natural order by a wide
        // margin, and cost no more fill than nested dissection's ballpark.
        for a in [grid3d(20, 20, 1), grid3d(8, 8, 8)] {
            let n = a.nrows();
            let adj = adjacency(&a);
            let fill = |p: &[usize]| symbolic_fill(n, &adj, p);
            let amd_fill = fill(&amd_of(&a));
            let natural = fill(&(0..n).collect::<Vec<_>>());
            let nd = fill(&nested_dissection(&a));
            assert!(
                2 * amd_fill < natural,
                "amd {amd_fill} vs natural {natural}"
            );
            assert!(amd_fill < 2 * nd, "amd {amd_fill} vs nd {nd}");
        }
    }

    #[test]
    fn amd_orders_a_hub_last() {
        // Arrow pattern with the hub at index 0: eliminating the hub first
        // fills the whole matrix; AMD must leave it for last.
        let n = 300;
        let mut t = TripletMat::new(n, n);
        for i in 1..n {
            t.stamp_conductance(Some(0), Some(i), 1.0);
        }
        let a = t.to_csr();
        let p = amd_of(&a);
        assert_eq!(p[n - 1], 0, "hub must be eliminated last");
        assert_eq!(symbolic_fill(n, &adjacency(&a), &p), 2 * n - 1);
    }

    #[test]
    fn amd_merges_indistinguishable_variables_and_stays_valid() {
        // Disjoint cliques: every clique is one supervariable, eliminated
        // with zero fill (the pattern is already closed).
        let mut t = TripletMat::new(60, 60);
        for c in 0..6 {
            for i in 0..10 {
                for j in i + 1..10 {
                    t.stamp_conductance(Some(c * 10 + i), Some(c * 10 + j), 1.0);
                }
            }
        }
        let a = t.to_csr();
        let p = amd_of(&a);
        assert!(is_permutation(&p));
        assert_eq!(symbolic_fill(60, &adjacency(&a), &p), (a.nnz() + 60) / 2);
    }

    #[test]
    fn invert_roundtrip() {
        let p = vec![2usize, 0, 3, 1];
        let inv = invert_permutation(&p);
        for i in 0..4 {
            assert_eq!(inv[p[i]], i);
        }
    }

    #[test]
    fn empty_matrix_permutations_are_valid() {
        let a = TripletMat::new(0, 0).to_csr();
        for (name, ord) in ORDERINGS {
            let p = ord(&a);
            assert!(p.is_empty(), "{name} must return an empty permutation");
            assert!(is_permutation(&p), "{name} invalid on the empty matrix");
        }
    }

    #[test]
    fn single_node_permutations_are_valid() {
        let mut t = TripletMat::new(1, 1);
        t.push(0, 0, 2.0);
        let a = t.to_csr();
        for (name, ord) in ORDERINGS {
            let p = ord(&a);
            assert_eq!(p, vec![0], "{name} wrong on a single-node graph");
        }
        // A 1x1 matrix with no stored entries (isolated vertex) too.
        let empty_single = TripletMat::new(1, 1).to_csr();
        for (name, ord) in ORDERINGS {
            let p = ord(&empty_single);
            assert_eq!(p, vec![0], "{name} wrong on an isolated vertex");
        }
    }

    #[test]
    fn etree_postorder_is_a_valid_topological_order() {
        // A small forest:   4        6
        //                  / \       |
        //                 1   3      5
        //                 |   |
        //                 0   2      and an isolated root 7.
        let m = usize::MAX;
        let parent = [1usize, 4, 3, 4, m, 6, m, m];
        let post = etree_postorder(&parent);
        assert_eq!(post.len(), 8);
        // A permutation…
        let mut seen = [false; 8];
        for &p in &post {
            assert!(!seen[p]);
            seen[p] = true;
        }
        // …where every child appears before its parent.
        let pos = invert_permutation(&post);
        for (j, &p) in parent.iter().enumerate() {
            if p != m {
                assert!(pos[j] < pos[p], "child {j} after parent {p}");
            }
        }
        // Chains already in order stay the identity.
        assert_eq!(etree_postorder(&[1, 2, m]), vec![0, 1, 2]);
        assert_eq!(etree_postorder(&[]), Vec::<usize>::new());
    }

    #[test]
    fn invert_and_validate_degenerate_permutations() {
        // Empty: inverse of the empty permutation is empty and valid.
        assert_eq!(invert_permutation(&[]), Vec::<usize>::new());
        assert!(is_permutation(&[]));
        // Single node.
        assert_eq!(invert_permutation(&[0]), vec![0]);
        assert!(is_permutation(&[0]));
        // Out-of-range and duplicate entries are rejected.
        assert!(!is_permutation(&[1]));
        assert!(!is_permutation(&[0, 0]));
    }

    fn partition_invariants(a: &CsrMat, part: &NdPartition) {
        // Every vertex appears exactly once across leaves + separators.
        let mut seen = vec![false; a.nrows()];
        for group in part.leaves.iter().chain(&part.separators) {
            for &v in group {
                assert!(!seen[v], "vertex {v} assigned twice");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "vertex left unassigned");
        // No edge joins two distinct leaves.
        let mut leaf_of = vec![usize::MAX; a.nrows()];
        for (k, leaf) in part.leaves.iter().enumerate() {
            for &v in leaf {
                leaf_of[v] = k;
            }
        }
        for i in 0..a.nrows() {
            for (j, _) in a.row_iter(i) {
                if leaf_of[i] != usize::MAX && leaf_of[j] != usize::MAX {
                    assert_eq!(
                        leaf_of[i], leaf_of[j],
                        "edge ({i},{j}) crosses leaves — separator property violated"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_respects_block_budget_on_grid() {
        let a = grid3d(12, 12, 4);
        let part = nested_dissection_partition(&a, 100, 16);
        assert!(part.leaves.len() >= 4, "expected several leaves");
        assert!(part.max_leaf() <= 100, "leaf over budget");
        assert!(part.separator_nodes() > 0);
        assert!(part.depth > 0);
        partition_invariants(&a, &part);
    }

    #[test]
    fn partition_depth_budget_caps_recursion() {
        let a = grid3d(12, 12, 4);
        let part = nested_dissection_partition(&a, 1, 2);
        assert!(part.depth <= 2);
        assert!(part.separators.len() <= 3, "at most 2 levels of cuts");
        partition_invariants(&a, &part);
    }

    #[test]
    fn partition_handles_degenerate_graphs() {
        // Empty graph: no leaves, no separators.
        let empty = TripletMat::new(0, 0).to_csr();
        let p = nested_dissection_partition(&empty, 8, 8);
        assert!(p.leaves.is_empty() && p.separators.is_empty());
        assert_eq!(p.separator_nodes(), 0);
        assert_eq!(p.max_leaf(), 0);
        // Single node: one single-vertex leaf even with max_block=1.
        let mut t = TripletMat::new(1, 1);
        t.push(0, 0, 1.0);
        let single = t.to_csr();
        let p = nested_dissection_partition(&single, 1, 8);
        assert_eq!(p.leaves, vec![vec![0]]);
        assert!(p.separators.is_empty());
        partition_invariants(&single, &p);
        // Two-node graph under budget pressure: no 3-level BFS exists,
        // so the pair stays one leaf rather than looping forever.
        let mut t = TripletMat::new(2, 2);
        t.stamp_conductance(Some(0), Some(1), 1.0);
        let pair = t.to_csr();
        let p = nested_dissection_partition(&pair, 1, 8);
        assert_eq!(p.leaves.len(), 1);
        partition_invariants(&pair, &p);
    }

    #[test]
    fn partition_of_disconnected_graph_covers_all_components() {
        let mut t = TripletMat::new(60, 60);
        for i in 0..29 {
            t.stamp_conductance(Some(i), Some(i + 1), 1.0);
        }
        for i in 30..59 {
            t.stamp_conductance(Some(i), Some(i + 1), 1.0);
        }
        let a = t.to_csr();
        let part = nested_dissection_partition(&a, 10, 16);
        partition_invariants(&a, &part);
        assert!(part.max_leaf() <= 10);
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = usize>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in (w as u64).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The graphs the fingerprints are taken on, which between them reach
    /// every nested-dissection helper:
    /// - a 3-D grid that recurses down to ≤`ND_LEAF`-node leaves;
    /// - a clique larger than `ND_BLOB_RCM`: no level-set separator, so
    ///   it is ordered by `local_rcm`;
    /// - a disconnected graph whose first nodes are two pairs and an
    ///   isolated node (each split off reached-vs-unreached) ahead of two
    ///   grids (level sets with an unreached remainder).
    fn fingerprint_graphs() -> [(&'static str, CsrMat); 3] {
        let clique = {
            let n = 600;
            let mut t = TripletMat::new(n, n);
            for i in 0..n {
                for j in i + 1..n {
                    t.stamp_conductance(Some(i), Some(j), 1.0);
                }
            }
            t.to_csr()
        };
        let disconnected = {
            let (g1, g2) = (grid3d(12, 12, 8), grid3d(10, 10, 10));
            let (o1, o2) = (5, 5 + g1.nrows());
            let n = o2 + g2.nrows();
            let mut t = TripletMat::new(n, n);
            t.stamp_conductance(Some(0), Some(1), 1.0);
            t.stamp_conductance(Some(2), Some(3), 1.0);
            for (g, off) in [(&g1, o1), (&g2, o2)] {
                for i in 0..g.nrows() {
                    for (j, v) in g.row_iter(i) {
                        t.push(off + i, off + j, v);
                    }
                }
            }
            t.to_csr()
        };
        [
            ("grid", grid3d(16, 16, 10)),
            ("clique", clique),
            ("disconnected", disconnected),
        ]
    }

    #[test]
    fn nested_dissection_output_is_pinned_bit_for_bit() {
        // Fingerprints of the ordering and of the partition at the block
        // size and depth the hierarchical strategy uses by default (2000,
        // 16). Any change to a tie-break or a traversal order shows here.
        let want = [
            ("grid", 0xca76_a42e_1695_87a1, 0x7595_90b3_4925_eae7),
            ("clique", 0x5ffd_b943_9fd7_ec8d, 0x6a6c_06f8_927c_b97e),
            ("disconnected", 0x8348_6621_c650_f8e5, 0x6b5a_1480_0c16_d87c),
        ];
        let got = fingerprint_graphs().map(|(name, a)| {
            let perm = nested_dissection(&a);
            assert!(is_permutation(&perm), "{name}: not a permutation");
            let part = nested_dissection_partition(&a, 2000, 16);
            partition_invariants(&a, &part);
            let groups = part.leaves.iter().chain(&part.separators);
            let part_words = groups
                .flat_map(|g| std::iter::once(g.len()).chain(g.iter().copied()))
                .chain([part.leaves.len(), part.depth]);
            (name, fnv1a(perm), fnv1a(part_words))
        });
        assert_eq!(got, want, "(graph, ordering, partition) fingerprints");
    }

    #[test]
    fn handles_disconnected_graph() {
        let mut t = TripletMat::new(4, 4);
        t.stamp_conductance(Some(0), Some(1), 1.0);
        t.stamp_conductance(Some(2), Some(3), 1.0);
        for i in 0..4 {
            t.push(i, i, 1.0);
        }
        let a = t.to_csr();
        for (name, ord) in ORDERINGS {
            let p = ord(&a);
            assert!(is_permutation(&p), "{name}");
            assert_eq!(p.len(), 4, "{name}");
        }
    }
}
