//! BICLUSTER: mining maximal biclusters from the range multigraph
//! (paper §4.2, Figure 3).
//!
//! The miner performs a depth-first set-enumeration over sample columns.
//! The candidate `C = X × Y` starts as `(all genes) × ∅`; extending `Y` by a
//! new column `s_b` requires choosing, for **every** `s_a ∈ Y`, one range
//! edge `(s_a, s_b)` of the multigraph whose gene-set keeps
//! `|X ∩ ⋂ G(R)| ≥ mx`. That makes every recorded `Y` a clique of the range
//! multigraph constrained by the gene threshold — exactly the paper's
//! "constrained maximal clique" search.
//!
//! Per the pseudo-code, the `δ^x`/`δ^y`/`my` checks gate only the
//! *recording* of a candidate (lines 2–6), never its expansion; `mx` prunes
//! expansion because gene-sets shrink monotonically along a DFS path.

use crate::cluster::Bicluster;
use crate::fault::{fail_point_panic, isolate, RunCtrl};
use crate::params::Params;
use crate::range::RatioRange;
use crate::rangegraph::RangeGraph;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use tricluster_bitset::BitSet;
use tricluster_matrix::Matrix3;
use tricluster_obs::{names, timeline};

phase_stats! {
    /// Statistics of one per-slice bicluster search.
    ///
    /// All fields are input-determined (DFS order is fixed), so they are
    /// identical across runs and thread counts.
    pub struct BiclusterStats {
        /// DFS nodes (candidate sample sets) visited.
        nodes => names::BC_NODES,
        /// Candidate-visit budget consumed (0 when [`Params::max_candidates`]
        /// is unset).
        budget_spent => names::BC_BUDGET_SPENT,
        /// Gene-set combinations produced by edge-combination enumeration.
        gene_combos => names::BC_COMBOS,
        /// Edge combinations dropped because an identical gene-set was
        /// already enumerated at the same node.
        dedup_hits => names::BC_DEDUP_HITS,
        /// Candidates recorded into the (tentative) result set.
        recorded => names::BC_RECORDED,
        /// Candidates rejected by the `δ^x`/`δ^y` checks at record time.
        rejected_delta => names::BC_REJECTED_DELTA,
        /// Candidates rejected because an existing cluster subsumes them.
        rejected_subsumed => names::BC_REJECTED_SUBSUMED,
        /// Previously recorded clusters displaced by a larger candidate.
        replaced => names::BC_REPLACED,
        /// Branch-local survivors dropped at the cross-branch merge because
        /// a cluster from an earlier branch subsumes them (see
        /// [`mine_biclusters_ctrl`]).
        merge_subsumed => names::BC_MERGE_SUBSUMED,
    }

    /// Value distributions of one bicluster search, collected only on
    /// request (see [`mine_biclusters_ctrl`]).
    pub struct BiclusterHists {
        /// DFS depth (current sample-set size) at each expanded node.
        depth => names::H_BC_DEPTH,
        /// Remaining candidate sample count at each expanded node.
        candidate_set_size => names::H_BC_CANDIDATES,
        /// Children actually recursed into from each expanded node.
        fanout => names::H_BC_FANOUT,
    }
}

/// Mines all maximal biclusters of time slice `t` from its range multigraph.
///
/// Returned biclusters satisfy `|X| ≥ mx`, `|Y| ≥ my`, the `δ^x`/`δ^y`
/// range thresholds (when set), and are mutually non-contained.
pub fn mine_biclusters(m: &Matrix3, rg: &RangeGraph, params: &Params) -> Vec<Bicluster> {
    mine_biclusters_ctrl(m, rg, params, false, 1, &RunCtrl::unbounded()).0
}

/// Like [`mine_biclusters`], also returning whether the search was
/// truncated and its statistics, optionally with DFS shape histograms.
/// Single-threaded and unbounded apart from [`Params::max_candidates`].
///
/// Kept as its own entry because the served-job benchmark's per-layer
/// replay calls it with this signature.
pub fn mine_biclusters_profiled(
    m: &Matrix3,
    rg: &RangeGraph,
    params: &Params,
    collect_hists: bool,
) -> (Vec<Bicluster>, bool, BiclusterStats) {
    mine_biclusters_ctrl(m, rg, params, collect_hists, 1, &RunCtrl::unbounded())
}

/// Everything one top-level branch produced, keyed by its seed sample.
struct BranchOutput {
    branch: usize,
    results: MaximalStore,
    truncated: bool,
    /// Budget consumed inside the branch (for sequential budget threading).
    spent: u64,
    stats: BiclusterStats,
}

/// Mines the branch rooted at sample `order[branch]` into a local store.
#[allow(clippy::too_many_arguments)]
fn run_branch<'a>(
    m: &'a Matrix3,
    rg: &'a RangeGraph,
    params: &'a Params,
    collect_hists: bool,
    all_genes: &BitSet,
    branch: usize,
    budget: Option<u64>,
    ctrl: &'a RunCtrl,
) -> BranchOutput {
    fail_point_panic("core.bicluster.branch");
    let mut stats = BiclusterStats::default();
    if collect_hists {
        stats.hists = Some(Box::default());
    }
    let mut miner = BranchMiner {
        m,
        rg,
        params,
        t: rg.time,
        results: MaximalStore::new(),
        samples: vec![branch],
        budget,
        truncated: false,
        stats,
        scratch: DfsScratch::default(),
        ctrl,
    };
    // The seed's frontier: every later sample, with no edge lists yet.
    miner.scratch.frontiers.push(Frontier {
        samples: (branch + 1..m.n_samples()).collect(),
        bounds: vec![0],
        edges: Vec::new(),
    });
    miner.dfs(all_genes, 0);
    let spent = miner.stats.budget_spent;
    BranchOutput {
        branch,
        results: miner.results,
        truncated: miner.truncated,
        spent,
        stats: miner.stats,
    }
}

/// Mines the maximal biclusters of `rg`'s slice, distributing the
/// top-level sample-seed branches of the set-enumeration tree over up to
/// `workers` threads, under the run control of `ctrl`. This is the one
/// implementation every other entry calls. Returns the biclusters, whether
/// the search was truncated (the result is then sound but possibly
/// incomplete), and the search statistics; `collect_hists` adds DFS shape
/// histograms (depth, candidate-set size, fan-out) at a few bucket
/// increments per node, so callers gate it on
/// [`EventSink::wants_histograms`](tricluster_obs::EventSink::wants_histograms).
///
/// Every thread count — including 1 — runs the *same* algorithm: each branch
/// mines into a branch-local [`MaximalStore`], and the branch stores are
/// merged on the calling thread in ascending branch order with a final
/// cross-branch maximality pass. Parallelism therefore only changes
/// scheduling, never the traversal, so every statistic (and the result
/// vector, order included) is identical for all `workers` values.
///
/// Cross-branch maximality leans on a structural property: the branch seeded
/// at sample `i` only yields sample sets whose minimum is `i`, so a cluster
/// can only be subsumed by one from an *earlier* branch (`samples ⊆` forces
/// `min ≥`). Merge drops such clusters (counted as
/// [`BiclusterStats::merge_subsumed`]); displacement of an earlier branch's
/// cluster by a later branch is impossible.
///
/// When [`Params::max_candidates`] is set, the visit budget is global across
/// the whole DFS, so branches run sequentially and thread the remaining
/// budget in branch order — deterministic truncation, identical to the
/// pre-parallel implementation.
///
/// The deadline is polled at every DFS node, and — when `ctrl` collects
/// faults — a panic inside one top-level branch downgrades to a
/// [`WorkerFailure`](crate::WorkerFailure) costing only that branch's
/// clusters. The surviving branches still merge in ascending seed order, so
/// the output stays deterministic given the same set of survivors.
pub fn mine_biclusters_ctrl(
    m: &Matrix3,
    rg: &RangeGraph,
    params: &Params,
    collect_hists: bool,
    workers: usize,
    ctrl: &RunCtrl,
) -> (Vec<Bicluster>, bool, BiclusterStats) {
    let n_genes = m.n_genes();
    let n_samples = m.n_samples();
    let mut stats = BiclusterStats::default();
    if collect_hists {
        stats.hists = Some(Box::default());
    }
    let mut truncated = false;

    // Root node of the enumeration tree (empty sample set). Recording can
    // never fire here (`min_samples ≥ 1`), so only accounting happens.
    let mut budget = params.max_candidates;
    if let Some(b) = &mut budget {
        if *b == 0 {
            return (Vec::new(), true, stats);
        }
        *b -= 1;
        stats.budget_spent += 1;
    }
    stats.nodes += 1;
    if let Some(h) = stats.hists.as_deref_mut() {
        h.depth.record(0);
        h.candidate_set_size.record(n_samples as u64);
    }

    let all_genes = BitSet::full(n_genes);
    if let Some(p) = &ctrl.progress {
        p.add_branches_total(n_samples as u64);
    }
    let outputs: Vec<BranchOutput> = if budget.is_some() || workers <= 1 || n_samples <= 1 {
        let mut outs = Vec::with_capacity(n_samples);
        for branch in 0..n_samples {
            if ctrl.token.deadline_exceeded() {
                break;
            }
            let tl_branch = timeline::span(names::T_BC_BRANCH);
            let out = isolate(
                &ctrl.faults,
                "bicluster_branch",
                || format!("t={} branch={}", rg.time, branch),
                || {
                    run_branch(
                        m,
                        rg,
                        params,
                        collect_hists,
                        &all_genes,
                        branch,
                        budget,
                        ctrl,
                    )
                },
            );
            drop(tl_branch);
            if let Some(p) = &ctrl.progress {
                p.branch_done();
            }
            // A failed branch consumed an unknowable slice of the budget;
            // charge nothing so the surviving branches keep their shares.
            let Some(out) = out else { continue };
            if let Some(b) = &mut budget {
                *b -= out.spent;
            }
            if let Some(p) = &ctrl.progress {
                p.add_budget_spent(out.spent);
            }
            outs.push(out);
        }
        outs
    } else {
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<BranchOutput>> = (0..n_samples).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(n_samples))
                .map(|_| {
                    scope.spawn(|| {
                        let _tl = ctrl.timeline.as_ref().map(|t| t.attach("branch"));
                        let mut outs = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_samples {
                                break;
                            }
                            if ctrl.token.deadline_exceeded() {
                                break;
                            }
                            let tl_branch = timeline::span(names::T_BC_BRANCH);
                            let out = isolate(
                                &ctrl.faults,
                                "bicluster_branch",
                                || format!("t={} branch={}", rg.time, i),
                                || {
                                    run_branch(
                                        m,
                                        rg,
                                        params,
                                        collect_hists,
                                        &all_genes,
                                        i,
                                        None,
                                        ctrl,
                                    )
                                },
                            );
                            drop(tl_branch);
                            if let Some(p) = &ctrl.progress {
                                p.branch_done();
                            }
                            if let Some(out) = out {
                                outs.push(out);
                            }
                        }
                        outs
                    })
                })
                .collect();
            for h in handles {
                for out in h.join().expect("bicluster worker panicked") {
                    let b = out.branch;
                    slots[b] = Some(out);
                }
            }
        });
        // Skipped (post-deadline) and failed branches left their slot empty.
        slots.into_iter().flatten().collect()
    };

    // Root fan-out: one child per top-level sample, recursed unconditionally.
    if let Some(h) = stats.hists.as_deref_mut() {
        h.fanout.record(n_samples as u64);
    }

    // Deterministic merge: absorb branches in ascending seed order and fold
    // their survivors through a global maximality store.
    let mut store = MaximalStore::new();
    for out in outputs {
        truncated |= out.truncated;
        stats.absorb(&out.stats);
        for bc in out.results.into_vec() {
            match store.insert(bc) {
                InsertOutcome::Subsumed => stats.merge_subsumed += 1,
                InsertOutcome::Inserted { displaced } => {
                    debug_assert_eq!(displaced, 0, "later branches cannot subsume earlier ones");
                    stats.replaced += displaced as u64;
                }
            }
        }
    }
    (store.into_vec(), truncated, stats)
}

/// Reusable per-branch buffers for the DFS hot path.
#[derive(Default)]
struct DfsScratch<'a> {
    /// One [`Frontier`] per DFS depth: entry `d` belongs to the node with
    /// `d` samples currently on the path (entry 0 is the branch seed's list
    /// of later samples). A child only writes the entry below its parent's,
    /// so each parent's frontier stays intact while its children run.
    frontiers: Vec<Frontier<'a>>,
    /// One intersection accumulator per combination depth, written in-place
    /// by [`BitSet::intersect_into`] — no per-extension clones.
    levels: Vec<BitSet>,
    /// Gene-sets already produced at the current (node, extension) step.
    seen: HashSet<BitSet>,
}

/// The extension candidates still alive at one DFS node, with their
/// qualified edges.
///
/// For the node with samples `s_0 < … < s_{d-1}` and gene-set `X`, a live
/// candidate is a later sample `s_b` for which every `s_k` has at least one
/// edge `(s_k, s_b)` with `|X ∩ G(R)| ≥ mx`; its `d` lists hold exactly
/// those edges, in ascending `k` and in graph order within a list. Gene-sets
/// only shrink along a DFS path, so an edge that fails at a node fails at
/// every descendant: a child filters these lists instead of rescanning the
/// graph, and a candidate dead here stays dead below.
#[derive(Default)]
struct Frontier<'a> {
    /// Live candidate samples, ascending.
    samples: Vec<usize>,
    /// List boundaries into `edges`: with `d` lists per candidate, the list
    /// of candidate `c` for `s_k` is
    /// `edges[bounds[c·d + k] .. bounds[c·d + k + 1]]`.
    bounds: Vec<usize>,
    /// Every candidate's lists, concatenated.
    edges: Vec<&'a RatioRange>,
}

impl<'a> Frontier<'a> {
    /// The `lists + 1` boundaries of candidate `c`'s lists.
    fn lists_of(&self, c: usize, lists: usize) -> &[usize] {
        &self.bounds[c * lists..=(c + 1) * lists]
    }

    /// Appends the edges of `list` that pass `keep` as the next list of the
    /// candidate being built. Returns `false`, closing no list, when none
    /// passes.
    fn push_list(
        &mut self,
        list: impl Iterator<Item = &'a RatioRange>,
        keep: impl Fn(&RatioRange) -> bool,
    ) -> bool {
        let start = self.edges.len();
        self.edges.extend(list.filter(|r| keep(r)));
        if self.edges.len() == start {
            return false;
        }
        self.bounds.push(self.edges.len());
        true
    }
}

struct BranchMiner<'a> {
    m: &'a Matrix3,
    rg: &'a RangeGraph,
    params: &'a Params,
    t: usize,
    results: MaximalStore,
    /// Current candidate sample set (ascending; DFS extends in order).
    samples: Vec<usize>,
    /// Remaining candidate-visit budget, when limited.
    budget: Option<u64>,
    truncated: bool,
    stats: BiclusterStats,
    scratch: DfsScratch<'a>,
    /// Run control: only the deadline is polled here (per DFS node).
    ctrl: &'a RunCtrl,
}

impl<'a> BranchMiner<'a> {
    /// Visits the node for the current `samples` with gene-set `genes`. Its
    /// candidates are those of the parent's frontier from index `from` on
    /// (the samples after the one just added).
    fn dfs(&mut self, genes: &BitSet, from: usize) {
        if self.ctrl.token.deadline_exceeded() {
            self.truncated = true;
            return;
        }
        if let Some(b) = &mut self.budget {
            if *b == 0 {
                self.truncated = true;
                return;
            }
            *b -= 1;
            self.stats.budget_spent += 1;
        }
        self.stats.nodes += 1;
        let depth = self.samples.len();
        if let Some(h) = self.stats.hists.as_deref_mut() {
            // every later sample counts, live or not
            let newest = self.samples[depth - 1];
            h.depth.record(depth as u64);
            h.candidate_set_size
                .record((self.m.n_samples() - 1 - newest) as u64);
        }
        let mut children = 0u64;
        self.try_record(genes);
        self.qualify(genes, from);
        while self.scratch.levels.len() < depth {
            self.scratch.levels.push(BitSet::new(0));
        }
        for c in 0..self.scratch.frontiers[depth].samples.len() {
            // Enumerate edge combinations (one edge per existing sample),
            // intersecting gene-sets in-place with mx pruning; recurse per
            // distinct resulting gene-set.
            let scratch = &mut self.scratch;
            let frontier = &scratch.frontiers[depth];
            let sb = frontier.samples[c];
            scratch.seen.clear();
            let mut combos: Vec<BitSet> = Vec::new();
            intersect_combos(
                genes,
                &frontier.edges,
                frontier.lists_of(c, depth),
                &mut scratch.levels[..depth],
                self.params.min_genes,
                &mut scratch.seen,
                &mut combos,
                &mut self.stats.dedup_hits,
            );
            self.stats.gene_combos += combos.len() as u64;
            for new_genes in combos {
                children += 1;
                self.samples.push(sb);
                self.dfs(&new_genes, c + 1);
                self.samples.pop();
            }
        }
        if let Some(h) = self.stats.hists.as_deref_mut() {
            h.fanout.record(children);
        }
    }

    /// Fills this node's frontier (`frontiers[depth]`) from its parent's
    /// candidates `from..`: each inherited list is filtered against `genes`,
    /// and only the one new pair (newest sample, candidate) is scanned in
    /// full. A candidate is dropped at its first empty list.
    fn qualify(&mut self, genes: &BitSet, from: usize) {
        let depth = self.samples.len();
        let newest = self.samples[depth - 1];
        let mx = self.params.min_genes;
        // population hint for the sparse-path qualification test
        let genes_count = genes.count();
        let qualifies =
            |r: &RatioRange| genes.intersection_count_at_least_hinted(&r.genes, mx, genes_count);
        let frontiers = &mut self.scratch.frontiers;
        if frontiers.len() == depth {
            frontiers.push(Frontier::default());
        }
        let (above, below) = frontiers.split_at_mut(depth);
        let (parent, own) = (&above[depth - 1], &mut below[0]);
        own.samples.clear();
        own.edges.clear();
        own.bounds.clear();
        own.bounds.push(0);
        let rg = self.rg;
        for c in from..parent.samples.len() {
            let sb = parent.samples[c];
            let (edges_mark, bounds_mark) = (own.edges.len(), own.bounds.len());
            let live = parent
                .lists_of(c, depth - 1)
                .windows(2)
                .all(|w| own.push_list(parent.edges[w[0]..w[1]].iter().copied(), qualifies))
                && own.push_list(rg.ranges_between(newest, sb).iter(), qualifies);
            if live {
                own.samples.push(sb);
            } else {
                own.edges.truncate(edges_mark);
                own.bounds.truncate(bounds_mark);
            }
        }
    }

    fn try_record(&mut self, genes: &BitSet) {
        if self.samples.len() < self.params.min_samples {
            return;
        }
        if genes.count() < self.params.min_genes {
            return;
        }
        if !self.deltas_ok(genes) {
            self.stats.rejected_delta += 1;
            return;
        }
        let candidate = Bicluster::new(genes.clone(), self.samples.clone(), self.t);
        match self.results.insert(candidate) {
            InsertOutcome::Subsumed => self.stats.rejected_subsumed += 1,
            InsertOutcome::Inserted { displaced } => {
                self.stats.recorded += 1;
                self.stats.replaced += displaced as u64;
                if let Some(p) = &self.ctrl.progress {
                    p.candidate_recorded();
                }
            }
        }
    }

    /// `δ^x`: within each sample column, gene values range at most `δ^x`;
    /// `δ^y`: within each gene row, sample values range at most `δ^y`.
    fn deltas_ok(&self, genes: &BitSet) -> bool {
        let p = self.params;
        if let Some(dx) = p.delta_gene {
            for &s in &self.samples {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for g in genes.iter() {
                    let v = self.m.get(g, s, self.t);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo > dx {
                    return false;
                }
            }
        }
        if let Some(dy) = p.delta_sample {
            for g in genes.iter() {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &s in &self.samples {
                    let v = self.m.get(g, s, self.t);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo > dy {
                    return false;
                }
            }
        }
        true
    }
}

/// Depth-first enumeration of one-edge-per-sample combinations, accumulating
/// the gene-set intersection and pruning as soon as it drops below `mx`.
/// The lists to combine are `edges[bounds[k] .. bounds[k + 1]]`, one per
/// existing sample. `dedup_hits` counts combinations dropped because their
/// gene-set was already produced by an earlier edge choice at the same node.
///
/// The accumulator at each combination depth lives in `levels` (one slot per
/// remaining sample), written in place by [`BitSet::intersect_into`] — the
/// only allocations are the cloned gene-sets of *surviving* distinct combos.
#[allow(clippy::too_many_arguments)]
fn intersect_combos(
    acc: &BitSet,
    edges: &[&RatioRange],
    bounds: &[usize],
    levels: &mut [BitSet],
    mx: usize,
    seen: &mut HashSet<BitSet>,
    out: &mut Vec<BitSet>,
    dedup_hits: &mut u64,
) {
    match (bounds, levels.split_first_mut()) {
        ([start, end, ..], Some((level, rest_levels))) => {
            for r in &edges[*start..*end] {
                if level.intersect_into(acc, &r.genes) >= mx {
                    let rest = &bounds[1..];
                    intersect_combos(level, edges, rest, rest_levels, mx, seen, out, dedup_hits);
                }
            }
        }
        _ => {
            if seen.contains(acc) {
                *dedup_hits += 1;
            } else {
                let owned = acc.clone();
                seen.insert(owned.clone());
                out.push(owned);
            }
        }
    }
}

/// What [`insert_maximal_bicluster_counted`] did with a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The candidate was contained in an existing cluster and dropped.
    Subsumed,
    /// The candidate was inserted, displacing `displaced` existing clusters
    /// it subsumes.
    Inserted {
        /// Existing clusters removed because the candidate contains them.
        displaced: usize,
    },
}

/// Inserts `candidate` into `results` keeping only maximal biclusters:
/// skipped when contained in an existing cluster; existing clusters contained
/// in it are removed.
pub fn insert_maximal_bicluster(results: &mut Vec<Bicluster>, candidate: Bicluster) {
    insert_maximal_bicluster_counted(results, candidate);
}

/// Like [`insert_maximal_bicluster`], reporting what happened (used by the
/// observability layer to count maximality rejections and replacements).
///
/// This is the O(results) reference implementation; the miner's hot path
/// uses [`MaximalStore`], which indexes clusters by size signature.
pub fn insert_maximal_bicluster_counted(
    results: &mut Vec<Bicluster>,
    candidate: Bicluster,
) -> InsertOutcome {
    if results.iter().any(|c| candidate.is_subcluster_of(c)) {
        return InsertOutcome::Subsumed;
    }
    let before = results.len();
    results.retain(|c| !c.is_subcluster_of(&candidate));
    let displaced = before - results.len();
    results.push(candidate);
    InsertOutcome::Inserted { displaced }
}

/// A set of mutually non-contained biclusters with a size-bucketed signature
/// index.
///
/// Containment (`genes ⊆ ∧ samples ⊆`) implies `|genes| ≤ ∧ |samples| ≤`,
/// so clusters are bucketed by `(|genes|, |samples|)`: a candidate can only
/// be subsumed by buckets ≥ in both dimensions and can only displace buckets
/// ≤ in both. Instead of the reference implementation's O(results) scan per
/// insert, only those candidate buckets are probed — near-constant for the
/// size-diverse stores the miner produces.
///
/// Insertion order is preserved: [`MaximalStore::into_vec`] yields survivors
/// exactly as [`insert_maximal_bicluster_counted`] would have left them in a
/// plain vector (displaced entries removed in place, survivors in first-
/// insert order).
#[derive(Debug, Clone, Default)]
pub struct MaximalStore {
    /// Insert-ordered slots; displaced clusters become `None`.
    slots: Vec<Option<Bicluster>>,
    /// `(gene count, sample count)` -> indices of live slots with that size.
    buckets: std::collections::BTreeMap<(usize, usize), Vec<usize>>,
    len: usize,
}

impl MaximalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live clusters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the store holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `candidate` keeping only maximal clusters; same contract and
    /// outcome reporting as [`insert_maximal_bicluster_counted`].
    pub fn insert(&mut self, candidate: Bicluster) -> InsertOutcome {
        let key = (candidate.genes.count(), candidate.samples.len());
        // Subsumption: only clusters at least as large in both dimensions
        // can contain the candidate. (The equal-size bucket is probed here
        // first, so an exact duplicate reports Subsumed, like the reference.)
        for (&(_, sc), idxs) in self.buckets.range((key.0, 0)..) {
            if sc < key.1 {
                continue;
            }
            for &i in idxs {
                let c = self.slots[i].as_ref().expect("bucket points at live slot");
                if candidate.is_subcluster_of(c) {
                    return InsertOutcome::Subsumed;
                }
            }
        }
        // Displacement: only clusters at most as large in both dimensions
        // can be contained in the candidate.
        let mut doomed: Vec<(usize, (usize, usize))> = Vec::new();
        for (&(gc, sc), idxs) in self.buckets.range(..=(key.0, key.1)) {
            if sc > key.1 {
                continue;
            }
            for &i in idxs {
                let c = self.slots[i].as_ref().expect("bucket points at live slot");
                if c.is_subcluster_of(&candidate) {
                    doomed.push((i, (gc, sc)));
                }
            }
        }
        let displaced = doomed.len();
        for (i, bkey) in doomed {
            self.slots[i] = None;
            let bucket = self
                .buckets
                .get_mut(&bkey)
                .expect("doomed slot was bucketed");
            bucket.retain(|&x| x != i);
            if bucket.is_empty() {
                self.buckets.remove(&bkey);
            }
        }
        let idx = self.slots.len();
        self.slots.push(Some(candidate));
        self.buckets.entry(key).or_default().push(idx);
        self.len = self.len - displaced + 1;
        InsertOutcome::Inserted { displaced }
    }

    /// Consumes the store, yielding survivors in insertion order.
    pub fn into_vec(self) -> Vec<Bicluster> {
        self.slots.into_iter().flatten().collect()
    }
}

/// The per-node-rescan DFS this module shipped before frontiers were
/// inherited, kept verbatim as a differential oracle: every node rescans
/// `ranges_between(s_a, s_b)` for every existing sample `s_a` and every
/// later sample `s_b`. Sequential only; the frontier miner's worker counts
/// are pinned against it by the proptest in `tests`.
#[cfg(test)]
mod oracle {
    use super::*;

    /// [`mine_biclusters_ctrl`] at one worker, unbounded control, over the
    /// rescanning DFS.
    pub(super) fn mine(
        m: &Matrix3,
        rg: &RangeGraph,
        params: &Params,
        collect_hists: bool,
    ) -> (Vec<Bicluster>, bool, BiclusterStats) {
        let ctrl = RunCtrl::unbounded();
        let n_samples = m.n_samples();
        let mut stats = BiclusterStats::default();
        if collect_hists {
            stats.hists = Some(Box::default());
        }
        let mut truncated = false;
        let mut budget = params.max_candidates;
        if let Some(b) = &mut budget {
            if *b == 0 {
                return (Vec::new(), true, stats);
            }
            *b -= 1;
            stats.budget_spent += 1;
        }
        stats.nodes += 1;
        if let Some(h) = stats.hists.as_deref_mut() {
            h.depth.record(0);
            h.candidate_set_size.record(n_samples as u64);
        }
        let all_genes = BitSet::full(m.n_genes());
        let order: Vec<usize> = (0..n_samples).collect();
        let mut outputs = Vec::new();
        for branch in 0..n_samples {
            let mut branch_stats = BiclusterStats::default();
            if collect_hists {
                branch_stats.hists = Some(Box::default());
            }
            let mut miner = BranchMiner {
                m,
                rg,
                params,
                t: rg.time,
                results: MaximalStore::new(),
                samples: vec![order[branch]],
                budget,
                truncated: false,
                stats: branch_stats,
                scratch: DfsScratch::default(),
                ctrl: &ctrl,
            };
            miner.rescan_dfs(&all_genes, &order[branch + 1..], &mut Rescan::default());
            if let Some(b) = &mut budget {
                *b -= miner.stats.budget_spent;
            }
            outputs.push((miner.results, miner.truncated, miner.stats));
        }
        if let Some(h) = stats.hists.as_deref_mut() {
            h.fanout.record(n_samples as u64);
        }
        let mut store = MaximalStore::new();
        for (results, branch_truncated, branch_stats) in outputs {
            truncated |= branch_truncated;
            stats.absorb(&branch_stats);
            for bc in results.into_vec() {
                match store.insert(bc) {
                    InsertOutcome::Subsumed => stats.merge_subsumed += 1,
                    InsertOutcome::Inserted { displaced } => stats.replaced += displaced as u64,
                }
            }
        }
        (store.into_vec(), truncated, stats)
    }

    #[derive(Default)]
    struct Rescan<'a> {
        per_sample: Vec<Vec<&'a RatioRange>>,
        levels: Vec<BitSet>,
        seen: HashSet<BitSet>,
    }

    impl<'a> BranchMiner<'a> {
        fn rescan_dfs(&mut self, genes: &BitSet, pending: &[usize], scratch: &mut Rescan<'a>) {
            if let Some(b) = &mut self.budget {
                if *b == 0 {
                    self.truncated = true;
                    return;
                }
                *b -= 1;
                self.stats.budget_spent += 1;
            }
            self.stats.nodes += 1;
            if let Some(h) = self.stats.hists.as_deref_mut() {
                h.depth.record(self.samples.len() as u64);
                h.candidate_set_size.record(pending.len() as u64);
            }
            let mut children = 0u64;
            self.try_record(genes);
            let genes_count = genes.count();
            for (i, &sb) in pending.iter().enumerate() {
                let rest = &pending[i + 1..];
                let depth = self.samples.len();
                while scratch.per_sample.len() < depth {
                    scratch.per_sample.push(Vec::new());
                }
                while scratch.levels.len() < depth {
                    scratch.levels.push(BitSet::new(0));
                }
                let mut dead_end = false;
                for (k, &sa) in self.samples.iter().enumerate() {
                    let edges = &mut scratch.per_sample[k];
                    edges.clear();
                    for r in self.rg.ranges_between(sa, sb) {
                        if genes.intersection_count_at_least_hinted(
                            &r.genes,
                            self.params.min_genes,
                            genes_count,
                        ) {
                            edges.push(r);
                        }
                    }
                    if edges.is_empty() {
                        dead_end = true;
                        break;
                    }
                }
                if dead_end {
                    continue;
                }
                scratch.seen.clear();
                let mut combos: Vec<BitSet> = Vec::new();
                rescan_combos(
                    genes,
                    &scratch.per_sample[..depth],
                    &mut scratch.levels[..depth],
                    self.params.min_genes,
                    &mut scratch.seen,
                    &mut combos,
                    &mut self.stats.dedup_hits,
                );
                self.stats.gene_combos += combos.len() as u64;
                for new_genes in combos {
                    children += 1;
                    self.samples.push(sb);
                    self.rescan_dfs(&new_genes, rest, scratch);
                    self.samples.pop();
                }
            }
            if let Some(h) = self.stats.hists.as_deref_mut() {
                h.fanout.record(children);
            }
        }
    }

    fn rescan_combos(
        acc: &BitSet,
        per_sample: &[Vec<&RatioRange>],
        levels: &mut [BitSet],
        mx: usize,
        seen: &mut HashSet<BitSet>,
        out: &mut Vec<BitSet>,
        dedup_hits: &mut u64,
    ) {
        match per_sample.split_first() {
            None => {
                if seen.contains(acc) {
                    *dedup_hits += 1;
                } else {
                    let owned = acc.clone();
                    seen.insert(owned.clone());
                    out.push(owned);
                }
            }
            Some((edges, rest)) => {
                let (level, rest_levels) = levels.split_first_mut().expect("one level per sample");
                for r in edges {
                    if level.intersect_into(acc, &r.genes) >= mx {
                        rescan_combos(level, rest, rest_levels, mx, seen, out, dedup_hits);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rangegraph::build_range_graph;
    use crate::testdata::paper_table1;

    fn params(eps: f64, mx: usize, my: usize) -> Params {
        Params::builder()
            .epsilon(eps)
            .min_genes(mx)
            .min_samples(my)
            .min_times(2)
            .build()
            .unwrap()
    }

    fn mine(m: &Matrix3, t: usize, p: &Params) -> Vec<Bicluster> {
        let rg = build_range_graph(m, t, p);
        mine_biclusters(m, &rg, p)
    }

    fn sorted_view(bcs: &[Bicluster]) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut v: Vec<(Vec<usize>, Vec<usize>)> = bcs
            .iter()
            .map(|b| (b.genes.to_vec(), b.samples.clone()))
            .collect();
        v.sort();
        v
    }

    /// Paper §4.2 worked example: at t0 with mx=my=3, ε=0.01 the miner must
    /// find exactly C1, C2, C3.
    #[test]
    fn paper_example_t0_three_biclusters() {
        let m = paper_table1();
        let got = sorted_view(&mine(&m, 0, &params(0.01, 3, 3)));
        let want = vec![
            (vec![0, 2, 6, 9], vec![1, 4, 6]), // C2
            (vec![0, 7, 9], vec![1, 2, 4, 5]), // C3
            (vec![1, 4, 8], vec![0, 1, 4, 6]), // C1
        ];
        assert_eq!(got, want);
    }

    /// With my=2 the paper finds the extra cluster C4 = {g0,g2,g6,g7,g9} x
    /// {s1,s4}, which is not subsumed in 2D (its gene-set is strictly larger
    /// than C2's and C3's).
    #[test]
    fn paper_example_my2_reveals_c4() {
        let m = paper_table1();
        let got = sorted_view(&mine(&m, 0, &params(0.01, 3, 2)));
        assert!(
            got.contains(&(vec![0, 2, 6, 7, 9], vec![1, 4])),
            "C4 missing: {got:?}"
        );
        // C1..C3 still present
        assert!(got.contains(&(vec![1, 4, 8], vec![0, 1, 4, 6])));
        assert!(got.contains(&(vec![0, 2, 6, 9], vec![1, 4, 6])));
        assert!(got.contains(&(vec![0, 7, 9], vec![1, 2, 4, 5])));
    }

    /// Biclusters at t1 are the same index sets as t0 (the paper: "the
    /// clusters are identical").
    #[test]
    fn paper_example_t1_matches_t0() {
        let m = paper_table1();
        let p = params(0.01, 3, 3);
        assert_eq!(sorted_view(&mine(&m, 0, &p)), sorted_view(&mine(&m, 1, &p)));
    }

    /// δ^x bounds the value spread across genes within a fixed column
    /// (paper §2 condition 3a: cells sharing sample and time). C1's widest
    /// column is s0 with 9.0 − 3.0 = 6.0, C2's is 5.0 − 1.0 = 4.0, C3's is
    /// 8.0 − 1.0 = 7.0; δ^x = 6 keeps C1 and C2, kills C3.
    ///
    /// (The paper's Table-1 narrative claims δ^x = 0 kills only C1, which
    /// contradicts its own formal condition — C2's columns also span 4.0.
    /// We follow the formal definition; see DESIGN.md.)
    #[test]
    fn delta_x_prunes_wide_columns() {
        let m = paper_table1();
        let mk = |dx: f64| {
            Params::builder()
                .epsilon(0.01)
                .min_genes(3)
                .min_samples(3)
                .min_times(2)
                .delta_gene(dx)
                .build()
                .unwrap()
        };
        let got = sorted_view(&mine(&m, 0, &mk(6.0)));
        assert_eq!(
            got,
            vec![
                (vec![0, 2, 6, 9], vec![1, 4, 6]),
                (vec![1, 4, 8], vec![0, 1, 4, 6]),
            ]
        );
        // δ^x = 0 demands identical values per column: nothing survives.
        assert!(mine(&m, 0, &mk(0.0)).is_empty());
    }

    /// δ^y bounds the value range along each gene row: C1's g4 row spans
    /// 9.0 − 3.0 = 6.0, so δ^y = 1 kills C1 but keeps the constant-row
    /// clusters.
    #[test]
    fn delta_y_kills_wide_rows() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_genes(3)
            .min_samples(3)
            .min_times(2)
            .delta_sample(1.0)
            .build()
            .unwrap();
        let got = sorted_view(&mine(&m, 0, &p));
        assert!(!got.contains(&(vec![1, 4, 8], vec![0, 1, 4, 6])));
        assert!(got.contains(&(vec![0, 2, 6, 9], vec![1, 4, 6])));
    }

    #[test]
    fn results_are_mutually_maximal() {
        let m = paper_table1();
        let bcs = mine(&m, 0, &params(0.01, 3, 2));
        for (i, a) in bcs.iter().enumerate() {
            for (j, b) in bcs.iter().enumerate() {
                if i != j {
                    assert!(
                        !a.is_subcluster_of(b),
                        "cluster {i} ⊆ cluster {j}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_genes_above_all_clusters_yields_nothing() {
        let m = paper_table1();
        assert!(mine(&m, 0, &params(0.01, 6, 3)).is_empty());
    }

    #[test]
    fn min_samples_above_all_clusters_yields_nothing() {
        let m = paper_table1();
        assert!(mine(&m, 0, &params(0.01, 3, 5)).is_empty());
    }

    #[test]
    fn insert_maximal_drops_subsumed() {
        let mk = |genes: &[usize], samples: &[usize]| {
            Bicluster::new(
                BitSet::from_indices(10, genes.iter().copied()),
                samples.to_vec(),
                0,
            )
        };
        let mut v = Vec::new();
        insert_maximal_bicluster(&mut v, mk(&[1, 2], &[0, 1]));
        insert_maximal_bicluster(&mut v, mk(&[1, 2, 3], &[0, 1])); // subsumes
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].genes.to_vec(), vec![1, 2, 3]);
        insert_maximal_bicluster(&mut v, mk(&[1, 2], &[0])); // subsumed
        assert_eq!(v.len(), 1);
        insert_maximal_bicluster(&mut v, mk(&[4, 5], &[2, 3])); // unrelated
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn observed_stats_are_deterministic_and_consistent() {
        let m = paper_table1();
        let p = params(0.01, 3, 3);
        let rg = build_range_graph(&m, 0, &p);
        let (bcs, truncated, stats) = mine_biclusters_profiled(&m, &rg, &p, false);
        assert!(!truncated);
        assert_eq!(bcs.len(), 3);
        assert!(stats.nodes > 0);
        assert_eq!(stats.budget_spent, 0, "no budget configured");
        // recorded − replaced − merge-dropped = surviving clusters
        assert_eq!(
            stats.recorded - stats.replaced - stats.merge_subsumed,
            bcs.len() as u64
        );
        let (_, _, again) = mine_biclusters_profiled(&m, &rg, &p, false);
        assert_eq!(stats, again);
    }

    #[test]
    fn worker_counts_mine_identical_results() {
        let m = paper_table1();
        // my=2 exercises cross-branch subsumption (C4 lives in branch s1)
        for p in [params(0.01, 3, 3), params(0.01, 3, 2)] {
            let rg = build_range_graph(&m, 0, &p);
            let (bcs1, tr1, st1) =
                mine_biclusters_ctrl(&m, &rg, &p, true, 1, &RunCtrl::unbounded());
            for workers in [2usize, 4, 8] {
                let (bcs, tr, st) =
                    mine_biclusters_ctrl(&m, &rg, &p, true, workers, &RunCtrl::unbounded());
                assert_eq!(bcs, bcs1, "clusters differ at workers={workers}");
                assert_eq!(tr, tr1);
                assert_eq!(st, st1, "stats differ at workers={workers}");
            }
            // result-vector order itself is thread-invariant (not just the set)
            let (plain, _, st_plain) = mine_biclusters_profiled(&m, &rg, &p, false);
            assert_eq!(plain, bcs1);
            assert_eq!(
                st_plain.recorded - st_plain.replaced - st_plain.merge_subsumed,
                plain.len() as u64
            );
        }
    }

    #[test]
    fn maximal_store_matches_reference_implementation() {
        // Feed both stores the same pseudo-random candidate stream and check
        // outcome-by-outcome and final-sequence agreement.
        let mk = |genes: &[usize], samples: &[usize]| {
            Bicluster::new(
                BitSet::from_indices(12, genes.iter().copied()),
                samples.to_vec(),
                0,
            )
        };
        let mut state = 0x9e3779b97f4a7c15u64; // deterministic xorshift
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut reference: Vec<Bicluster> = Vec::new();
        let mut store = MaximalStore::new();
        for _ in 0..300 {
            let gbits = next();
            let sbits = next();
            let genes: Vec<usize> = (0..12).filter(|i| gbits >> i & 1 == 1).collect();
            let samples: Vec<usize> = (0..6).filter(|i| sbits >> i & 1 == 1).collect();
            if genes.is_empty() || samples.is_empty() {
                continue;
            }
            let cand = mk(&genes, &samples);
            let want = insert_maximal_bicluster_counted(&mut reference, cand.clone());
            let got = store.insert(cand);
            assert_eq!(got, want);
            assert_eq!(store.len(), reference.len());
        }
        assert_eq!(store.into_vec(), reference, "survivor order must match");
    }

    #[test]
    fn observed_budget_spent_tracks_truncation() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .max_candidates(5)
            .build()
            .unwrap();
        let rg = build_range_graph(&m, 0, &p);
        let (_, truncated, stats) = mine_biclusters_profiled(&m, &rg, &p, false);
        assert!(truncated);
        assert_eq!(stats.budget_spent, 5);
        assert_eq!(stats.nodes, 5);
    }

    #[test]
    fn profiled_hists_describe_the_dfs() {
        let m = paper_table1();
        let p = params(0.01, 3, 3);
        let rg = build_range_graph(&m, 0, &p);
        let (bcs, _, stats) = mine_biclusters_profiled(&m, &rg, &p, true);
        let h = stats.hists.as_ref().expect("collected");
        // one depth/candidate/fanout sample per DFS node
        assert_eq!(h.depth.count(), stats.nodes);
        assert_eq!(h.candidate_set_size.count(), stats.nodes);
        assert_eq!(h.fanout.count(), stats.nodes);
        // the root sees the full candidate set and depth 0
        assert_eq!(h.candidate_set_size.max(), m.n_samples() as u64);
        assert_eq!(h.depth.min(), 0);
        // fanout sums to nodes - 1 (every non-root node has one parent edge)
        assert_eq!(h.fanout.sum(), u128::from(stats.nodes - 1));
        // hist collection must not change the mined clusters or scalars
        let (plain_bcs, _, plain) = mine_biclusters_profiled(&m, &rg, &p, false);
        assert_eq!(bcs, plain_bcs);
        assert_eq!(plain.nodes, stats.nodes);
        assert!(plain.hists.is_none());
        // deterministic across repeated profiled runs
        let (_, _, again) = mine_biclusters_profiled(&m, &rg, &p, true);
        assert_eq!(stats, again);
    }

    #[test]
    fn insert_counted_reports_outcomes() {
        let mk = |genes: &[usize], samples: &[usize]| {
            Bicluster::new(
                BitSet::from_indices(10, genes.iter().copied()),
                samples.to_vec(),
                0,
            )
        };
        let mut v = Vec::new();
        assert_eq!(
            insert_maximal_bicluster_counted(&mut v, mk(&[1, 2], &[0, 1])),
            InsertOutcome::Inserted { displaced: 0 }
        );
        assert_eq!(
            insert_maximal_bicluster_counted(&mut v, mk(&[1, 2, 3], &[0, 1])),
            InsertOutcome::Inserted { displaced: 1 }
        );
        assert_eq!(
            insert_maximal_bicluster_counted(&mut v, mk(&[1, 2], &[0])),
            InsertOutcome::Subsumed
        );
    }

    // ------------------------------------- frontier vs rescan oracle --

    use proptest::prelude::*;

    /// A one-slice matrix of scaled prototype rows with a few noise cells:
    /// genes sharing a prototype share every sample ratio, so the range
    /// graph carries multi-gene edges and the DFS goes several levels deep.
    /// Up to 100 genes, so gene-sets span one or two blocks.
    fn prototype_matrix() -> impl Strategy<Value = Matrix3> {
        (3usize..100, 2usize..8, 1usize..4)
            .prop_flat_map(|(g, s, k)| {
                (
                    Just((g, s)),
                    proptest::collection::vec(1u32..5, k * s),
                    proptest::collection::vec((0usize..k, 1u32..4), g),
                    proptest::collection::vec((0usize..g, 0usize..s, 1u32..9), 0..g),
                )
            })
            .prop_map(|((g, s), protos, rows, noise)| {
                let mut m = Matrix3::zeros(g, s, 1);
                for (gene, &(proto, scale)) in rows.iter().enumerate() {
                    for sample in 0..s {
                        let v = protos[proto * s + sample] * scale;
                        m.set(gene, sample, 0, f64::from(v));
                    }
                }
                for (gene, sample, v) in noise {
                    m.set(gene, sample, 0, f64::from(v));
                }
                m
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Inherited frontiers change no output: clusters (order included),
        /// truncation and every statistic and histogram match the rescanning
        /// oracle at 1, 2 and 4 workers, with and without a truncating
        /// candidate budget.
        #[test]
        fn frontier_dfs_matches_rescan_oracle(
            m in prototype_matrix(),
            eps in 0.0f64..0.3,
            mx in 1usize..5,
            my in 2usize..4,
            budget in (1u64..60, proptest::bool::ANY),
        ) {
            let mut builder = Params::builder()
                .epsilon(eps)
                .min_genes(mx)
                .min_samples(my)
                .min_times(1);
            if budget.1 {
                builder = builder.max_candidates(budget.0);
            }
            let p = builder.build().map_err(|e| TestCaseError::fail(e.to_string()))?;
            let rg = build_range_graph(&m, 0, &p);
            let want = oracle::mine(&m, &rg, &p, true);
            for workers in [1usize, 2, 4] {
                let got = mine_biclusters_ctrl(&m, &rg, &p, true, workers, &RunCtrl::unbounded());
                prop_assert_eq!(&got, &want, "workers={}", workers);
            }
        }
    }

    /// A uniform matrix is one big bicluster covering everything.
    #[test]
    fn uniform_matrix_single_cluster() {
        let mut m = Matrix3::zeros(4, 3, 1);
        m.map_in_place(|_| 2.0);
        let p = Params::builder()
            .epsilon(0.0)
            .min_genes(2)
            .min_samples(2)
            .min_times(1)
            .build()
            .unwrap();
        let bcs = mine(&m, 0, &p);
        assert_eq!(bcs.len(), 1);
        assert_eq!(bcs[0].genes.count(), 4);
        assert_eq!(bcs[0].samples, vec![0, 1, 2]);
    }
}
