//! `bench kernel` — stage-level microbenchmark of the range-graph pair
//! kernel.
//!
//! The range-graph build's cost is almost entirely the per-column-pair
//! kernel: classify each gene's ratio into a sign group, sort the group,
//! walk ε-windows, and dedupe the emitted gene-sets. The end-to-end
//! `fig7` sweep only reports the phase total, so when the phase needs
//! optimizing there is nothing attributing time *within* a pair. This
//! module synthesizes single-slice workloads at several gene counts and
//! times the kernel's stages in isolation, over every sample-column pair:
//!
//! - `transpose` — [`SliceColumns::from_slice`], the once-per-slice
//!   columnar copy (normalized per matrix cell);
//! - `pair` — the full production [`compute_pair`] (classify + divide +
//!   find-ranges + dedupe), exactly the closure the build hands to its
//!   workers;
//! - `classify` — the ratio classify/divide loop alone (a verbatim mirror
//!   of the head of `compute_pair`);
//! - `ranges` — [`find_ranges_into`] alone on pre-classified sign groups
//!   (packed-key sort, window walk, chain split/patch, dedupe);
//! - `intersect` — the chunked bitset intersection kernels
//!   (`intersect_into` + the bounded `intersection_count_at_least` at
//!   `mx`) over the gene-sets the workload actually emits, as the
//!   bicluster DFS drives them. One row per kernel [`Build`] this CPU can
//!   run (`intersect/avx512bw`, `intersect/popcnt`, `intersect/portable`),
//!   and each point names the build dispatch picks for its gene universe.
//!
//! `pair − classify − ranges` is therefore the residual spent on group
//! bookkeeping, and `ranges` vs `pair` splits "sorting/windowing" from
//! "dividing/classifying" — the two candidate targets when the phase
//! regresses.
//!
//! Every stage reports **ns per gene unit** so points at different sizes
//! are comparable: a gene unit is one matrix cell for `transpose`, one
//! gene of one pair for the pair-shaped stages, and one universe gene of
//! one set pair for `intersect`. Timings are wall-clock on whatever core
//! the process lands on — treat cross-machine numbers as incomparable and
//! same-machine ratios as the signal.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tricluster_bitset::kernel::{builds, Build};
use tricluster_core::obs::json::Json;
use tricluster_core::range::{find_ranges_into, RangeScratch, RatioRange, SignGroup};
use tricluster_core::rangegraph::{compute_pair, PairScratch, SliceColumns};
use tricluster_core::Params;
use tricluster_synth::{generate, SynthSpec};

use crate::fig7_params;

/// One timed stage of a [`KernelPoint`].
#[derive(Debug, Clone)]
pub struct StageTime {
    /// Stage name (`transpose`, `pair`, `classify`, `ranges`, `intersect`).
    pub name: &'static str,
    /// The bitset kernel build the stage ran (`intersect` rows only).
    pub build: Option<&'static str>,
    /// Total wall-clock time across all sweeps.
    pub total_secs: f64,
    /// Number of timed sweeps over the whole workload.
    pub sweeps: u64,
    /// `total_secs / (sweeps × gene units per sweep)`, in nanoseconds.
    pub ns_per_gene: f64,
}

impl StageTime {
    fn new(name: &'static str, total_secs: f64, sweeps: u64, units_per_sweep: u64) -> Self {
        StageTime {
            name,
            build: None,
            total_secs,
            sweeps,
            ns_per_gene: total_secs * 1e9 / (sweeps as f64 * units_per_sweep as f64),
        }
    }

    /// The stage's row label: its name, then `/build` when it has one.
    pub fn label(&self) -> String {
        match self.build {
            Some(build) => format!("{}/{build}", self.name),
            None => self.name.to_string(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("stage", Json::Str(self.name.into()))
            .maybe_with("build", self.build.map(|b| Json::Str(b.into())))
            .with("total_secs", Json::F64(self.total_secs))
            .with("sweeps", Json::U64(self.sweeps))
            .with("ns_per_gene", Json::F64(self.ns_per_gene))
    }
}

/// One measured workload size.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// Gene count of the synthesized slice.
    pub n_genes: usize,
    /// Sample-column count of the synthesized slice.
    pub n_samples: usize,
    /// Column pairs per sweep (`n_samples choose 2`).
    pub pairs: usize,
    /// Ratio ranges the workload emits across all pairs (the `intersect`
    /// stage runs over these gene-sets).
    pub edges: usize,
    /// The bitset kernel build dispatch picks for this point's gene-sets
    /// on this CPU (`avx512bw`, `popcnt` or `portable`).
    pub bitset_kernel: &'static str,
    /// Per-stage timings.
    pub stages: Vec<StageTime>,
}

impl KernelPoint {
    /// Serializes the point for the `tricluster.kernel/v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("genes", Json::U64(self.n_genes as u64))
            .with("samples", Json::U64(self.n_samples as u64))
            .with("pairs", Json::U64(self.pairs as u64))
            .with("edges", Json::U64(self.edges as u64))
            .with("bitset_kernel", Json::Str(self.bitset_kernel.into()))
            .with(
                "stages",
                Json::Arr(self.stages.iter().map(StageTime::to_json).collect()),
            )
    }
}

/// The synthetic workload at `n_genes × n_samples`: one time slice with a
/// handful of disjoint embedded clusters, matching the fig7 sweep family's
/// noise and value ranges so kernel numbers track the sweep's regime.
pub fn kernel_spec(n_genes: usize, n_samples: usize) -> SynthSpec {
    let gene_block = (n_genes / 5).clamp(10, 80).min(n_genes);
    let sample_block = n_samples.min(5);
    SynthSpec {
        n_genes,
        n_samples,
        n_times: 1,
        n_clusters: (n_genes / (2 * gene_block)).max(1),
        overlap_fraction: 0.0,
        gene_range: (gene_block, gene_block),
        sample_range: (sample_block, sample_block),
        time_range: (1, 1),
        ..SynthSpec::default()
    }
}

/// Runs `sweep` repeatedly (after one untimed warm-up) until at least
/// `min_time` has elapsed; returns `(total_secs, sweeps)`.
fn run_timed(min_time: Duration, mut sweep: impl FnMut()) -> (f64, u64) {
    sweep();
    let mut sweeps = 0u64;
    let start = Instant::now();
    loop {
        sweep();
        sweeps += 1;
        let elapsed = start.elapsed();
        if elapsed >= min_time {
            return (elapsed.as_secs_f64(), sweeps);
        }
    }
}

const SIGNS: [(usize, SignGroup); 3] = [
    (0, SignGroup::Positive),
    (1, SignGroup::PosNeg),
    (2, SignGroup::NegPos),
];

/// The classify/divide head of `compute_pair`, kept in sync by the
/// `classify_mirror_matches_compute_pair` test: same sign-group routing,
/// same `(va / vb).abs()` division, same finite/positive filter.
fn classify_pair(cols: &SliceColumns, a: usize, b: usize, groups: &mut [Vec<(f64, usize)>; 3]) {
    for g in groups.iter_mut() {
        g.clear();
    }
    let (ca, cb) = (cols.col(a), cols.col(b));
    // Mirrors `compute_pair`'s head: branch-free division pass, then
    // sign-bit routing gated on the quotient alone.
    let mut quot = Vec::with_capacity(ca.len());
    quot.extend(ca.iter().zip(cb).map(|(&va, &vb)| (va / vb).abs()));
    for (gene, (&va, &vb)) in ca.iter().zip(cb).enumerate() {
        let ratio = quot[gene];
        if ratio.is_finite() && ratio > 0.0 {
            let sa = (va.to_bits() >> 63) as usize;
            let sb = (vb.to_bits() >> 63) as usize;
            let gi = (sa ^ sb) * (1 + sa);
            groups[gi].push((ratio, gene));
        }
    }
}

/// All `(a, b)` column pairs with `a < b`, in build order.
fn column_pairs(n_samples: usize) -> Vec<(usize, usize)> {
    (0..n_samples)
        .flat_map(|a| (a + 1..n_samples).map(move |b| (a, b)))
        .collect()
}

/// Measures every stage at one workload size. `min_time` is the timed
/// budget per stage (the sweep loop stops at the first boundary past it).
pub fn measure_point(spec: &SynthSpec, min_time: Duration) -> KernelPoint {
    let data = generate(spec);
    let m = &data.matrix;
    let (n_genes, n_samples) = (m.n_genes(), m.n_samples());
    let params: Params = fig7_params(spec);
    let slice = m.time_slice_raw(0);
    let cols = SliceColumns::from_slice(slice, n_genes, n_samples);
    let pairs = column_pairs(n_samples);
    let pair_units = (pairs.len() * n_genes) as u64;
    let mut stages = Vec::new();

    // transpose: the once-per-slice columnar copy.
    {
        let (secs, sweeps) = run_timed(min_time, || {
            black_box(SliceColumns::from_slice(slice, n_genes, n_samples));
        });
        stages.push(StageTime::new(
            "transpose",
            secs,
            sweeps,
            (n_genes * n_samples) as u64,
        ));
    }

    // pair: the full production kernel over every column pair.
    {
        let mut scratch = PairScratch::default();
        let mut out = Vec::new();
        let (secs, sweeps) = run_timed(min_time, || {
            for &(a, b) in &pairs {
                out.clear();
                black_box(compute_pair(&cols, a, b, &params, &mut scratch, &mut out));
            }
        });
        stages.push(StageTime::new("pair", secs, sweeps, pair_units));
    }

    // classify: the divide/route loop alone.
    {
        let mut groups: [Vec<(f64, usize)>; 3] = Default::default();
        let (secs, sweeps) = run_timed(min_time, || {
            for &(a, b) in &pairs {
                classify_pair(&cols, a, b, &mut groups);
                black_box(&groups);
            }
        });
        stages.push(StageTime::new("classify", secs, sweeps, pair_units));
    }

    // ranges: find_ranges_into alone, on pre-classified groups.
    {
        let pre: Vec<[Vec<(f64, usize)>; 3]> = pairs
            .iter()
            .map(|&(a, b)| {
                let mut groups: [Vec<(f64, usize)>; 3] = Default::default();
                classify_pair(&cols, a, b, &mut groups);
                groups
            })
            .collect();
        let mut scratch = RangeScratch::default();
        let mut out: Vec<RatioRange> = Vec::new();
        let (secs, sweeps) = run_timed(min_time, || {
            for groups in &pre {
                out.clear();
                for &(gi, sign) in &SIGNS {
                    if groups[gi].len() < params.min_genes {
                        continue;
                    }
                    find_ranges_into(
                        &groups[gi],
                        sign,
                        params.epsilon,
                        params.min_genes,
                        n_genes,
                        params.range_extension,
                        &mut scratch,
                        &mut out,
                    );
                }
                black_box(&out);
            }
        });
        stages.push(StageTime::new("ranges", secs, sweeps, pair_units));
    }

    // intersect: the chunked bitset kernels over the emitted gene-sets, in
    // every build this CPU runs.
    let mut all: Vec<RatioRange> = Vec::new();
    {
        let mut scratch = PairScratch::default();
        for &(a, b) in &pairs {
            compute_pair(&cols, a, b, &params, &mut scratch, &mut all);
        }
    }
    let edges = all.len();
    if edges >= 2 {
        let mut inter = vec![0u64; n_genes.div_ceil(64)];
        for build in builds() {
            let (secs, sweeps) = run_timed(min_time, || {
                let mut acc = 0usize;
                for w in all.windows(2) {
                    let (x, y) = (w[0].genes.as_blocks(), w[1].genes.as_blocks());
                    acc += build.intersect_into(&mut inter, x, y);
                    acc += usize::from(build.intersection_count_at_least(x, y, params.min_genes));
                }
                black_box(acc);
            });
            let units = ((edges - 1) * n_genes) as u64;
            let mut stage = StageTime::new("intersect", secs, sweeps, units);
            stage.build = Some(build.name());
            stages.push(stage);
        }
    }

    KernelPoint {
        n_genes,
        n_samples,
        pairs: pairs.len(),
        edges,
        bitset_kernel: Build::for_universe(n_genes).name(),
        stages,
    }
}

/// Assembles the `tricluster.kernel/v1` document from measured points.
pub fn kernel_doc(points: &[KernelPoint]) -> Json {
    Json::obj()
        .with("schema", Json::Str("tricluster.kernel/v1".into()))
        .with(
            "unit",
            Json::Str("ns_per_gene: nanoseconds per gene unit (see stage docs)".into()),
        )
        .with(
            "points",
            Json::Arr(points.iter().map(KernelPoint::to_json).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bench-local classify mirror must route and divide exactly like
    /// the production head of `compute_pair`: feeding its groups into
    /// `find_ranges_into` must reproduce `compute_pair`'s output bit for
    /// bit.
    #[test]
    fn classify_mirror_matches_compute_pair() {
        let spec = kernel_spec(120, 6);
        let data = generate(&spec);
        let m = &data.matrix;
        let params = fig7_params(&spec);
        let cols = SliceColumns::from_slice(m.time_slice_raw(0), m.n_genes(), m.n_samples());
        let mut pair_scratch = PairScratch::default();
        let mut range_scratch = RangeScratch::default();
        let mut groups: [Vec<(f64, usize)>; 3] = Default::default();
        for (a, b) in column_pairs(m.n_samples()) {
            let mut want = Vec::new();
            let ratios = compute_pair(&cols, a, b, &params, &mut pair_scratch, &mut want);
            classify_pair(&cols, a, b, &mut groups);
            assert_eq!(
                ratios,
                groups.iter().map(|g| g.len() as u64).sum::<u64>(),
                "pair ({a},{b}): classified ratio count"
            );
            let mut got = Vec::new();
            for &(gi, sign) in &SIGNS {
                if groups[gi].len() < params.min_genes {
                    continue;
                }
                find_ranges_into(
                    &groups[gi],
                    sign,
                    params.epsilon,
                    params.min_genes,
                    m.n_genes(),
                    params.range_extension,
                    &mut range_scratch,
                    &mut got,
                );
            }
            assert_eq!(want, got, "pair ({a},{b}): emitted ranges");
        }
    }

    #[test]
    fn measure_point_times_every_stage() {
        let spec = kernel_spec(80, 5);
        let point = measure_point(&spec, Duration::from_millis(1));
        assert_eq!(point.n_genes, 80);
        assert_eq!(point.pairs, 10);
        let names: Vec<_> = point.stages.iter().map(|s| s.name).collect();
        assert!(names.starts_with(&["transpose", "pair", "classify", "ranges"]));
        // One intersect row per build this CPU runs, widest first.
        let intersect: Vec<_> = point.stages[4..].iter().map(StageTime::label).collect();
        let want: Vec<_> = builds()
            .iter()
            .map(|b| format!("intersect/{}", b.name()))
            .collect();
        assert_eq!(intersect, want);
        // 80 genes are two blocks: below the wide build's floor.
        assert_eq!(point.bitset_kernel, Build::for_universe(80).name());
        assert_ne!(point.bitset_kernel, "avx512bw");
        for s in &point.stages {
            assert!(s.sweeps >= 1, "{}: at least one timed sweep", s.name);
            assert!(
                s.ns_per_gene.is_finite() && s.ns_per_gene > 0.0,
                "{}: sane ns/gene",
                s.name
            );
        }
        let doc = kernel_doc(&[point]);
        assert!(doc.render().contains("tricluster.kernel/v1"));
    }

    #[test]
    fn kernel_spec_is_valid_at_extremes() {
        for genes in [10, 100, 1600, 5000] {
            for samples in [2, 10] {
                // generate() panics on an invalid spec; building the
                // dataset is the assertion.
                let spec = kernel_spec(genes, samples);
                let data = generate(&spec);
                assert_eq!(data.matrix.n_genes(), genes);
                assert_eq!(data.matrix.n_times(), 1);
            }
        }
    }

    #[test]
    fn kernel_spec_params_build() {
        let spec = kernel_spec(400, 10);
        let p = fig7_params(&spec);
        assert!(p.epsilon > 0.0);
        assert!(p.min_genes >= 2);
    }
}
