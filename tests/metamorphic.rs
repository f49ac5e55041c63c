//! Metamorphic properties of the whole pipeline at a size the brute-force
//! cross-check cannot reach: a 600 × 12 × 4 synthetic matrix with overlapping
//! embedded clusters and noise.
//!
//! Gene labels carry no meaning to the miner, and every ratio it forms is
//! within one gene's row, so:
//! - permuting the genes permutes the mined gene-sets and changes nothing
//!   else;
//! - scaling one gene's whole profile by a positive constant leaves every
//!   ratio of that gene, and hence every cluster, unchanged.
//!
//! Permuting the time slices relabels the slices and changes nothing else
//! either. Each property is checked on the final triclusters and on every
//! slice's biclusters, compared as sets after mapping labels back.
//!
//! Permuting the *samples* is not an invariance of the miner: a range is
//! found on the ratio `s_a / s_b` of the lower-numbered sample over the
//! higher, and swapping the pair's order changes which windows are found
//! (reversing the 12 samples of this matrix changes the range counts per
//! slice from 751/694/731/688 to 750/692/728/687), so the per-slice
//! biclusters differ.

use tricluster::prelude::*;

type ClusterKey = (Vec<usize>, Vec<usize>, Vec<usize>);

fn dataset() -> (Matrix3, Params) {
    let spec = SynthSpec {
        n_genes: 600,
        n_samples: 12,
        n_times: 4,
        n_clusters: 4,
        gene_range: (60, 60),
        sample_range: (4, 4),
        time_range: (3, 3),
        overlap_fraction: 0.3,
        noise: 0.02,
        seed: 29,
        ..SynthSpec::default()
    };
    let params = Params::builder()
        .epsilon(spec.suggested_epsilon())
        .min_size(20, 3, 2)
        .build()
        .unwrap();
    (generate(&spec).matrix, params)
}

/// Every mined cluster (triclusters, then each slice's biclusters tagged
/// with their slice) with genes mapped through `gene_of` and slices through
/// `time_of`, sorted.
fn canonical(
    r: &MiningResult,
    gene_of: impl Fn(usize) -> usize,
    time_of: impl Fn(usize) -> usize,
) -> Vec<ClusterKey> {
    let genes = |g: &tricluster::bitset::BitSet| {
        let mut v: Vec<usize> = g.iter().map(&gene_of).collect();
        v.sort_unstable();
        v
    };
    let mut out: Vec<ClusterKey> = r
        .triclusters
        .iter()
        .map(|c| {
            let mut times: Vec<usize> = c.times.iter().map(|&t| time_of(t)).collect();
            times.sort_unstable();
            (genes(&c.genes), c.samples.clone(), times)
        })
        .collect();
    for (t, bcs) in r.per_time_biclusters.iter().enumerate() {
        // usize::MAX marks a bicluster, so it never collides with a tricluster
        let tag = vec![usize::MAX, time_of(t)];
        out.extend(
            bcs.iter()
                .map(|b| (genes(&b.genes), b.samples.clone(), tag.clone())),
        );
    }
    out.sort();
    out
}

fn mined(m: &Matrix3, p: &Params) -> MiningResult {
    let r = mine(m, p).unwrap();
    assert!(!r.truncated, "an unbounded run must be complete");
    r
}

#[test]
fn baseline_mines_the_embedded_clusters() {
    // Guards the other properties against holding vacuously.
    let (m, p) = dataset();
    let r = mined(&m, &p);
    assert!(
        r.triclusters.len() >= 4,
        "{} triclusters",
        r.triclusters.len()
    );
    assert!(r.per_time_biclusters.iter().all(|b| !b.is_empty()));
}

#[test]
fn gene_permutation_relabels_the_clusters() {
    let (m, p) = dataset();
    let n = m.n_genes();
    let want = canonical(&mined(&m, &p), |g| g, |t| t);
    // A fixed affine shuffle (7 is coprime to 600) and a reversal.
    let shuffles: [Vec<usize>; 2] = [
        (0..n).map(|g| (7 * g + 13) % n).collect(),
        (0..n).rev().collect(),
    ];
    for perm in shuffles {
        let mut moved = Matrix3::zeros(n, m.n_samples(), m.n_times());
        let mut back = vec![0; n];
        for (g, &to) in perm.iter().enumerate() {
            back[to] = g;
            for s in 0..m.n_samples() {
                for t in 0..m.n_times() {
                    moved.set(to, s, t, m.get(g, s, t));
                }
            }
        }
        let got = canonical(&mined(&moved, &p), |g| back[g], |t| t);
        assert_eq!(got, want, "permutation starting {:?}", &perm[..4]);
    }
}

#[test]
fn time_permutation_relabels_the_slices() {
    let (m, p) = dataset();
    let want = canonical(&mined(&m, &p), |g| g, |t| t);
    for perm in [[3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]] {
        let mut moved = Matrix3::zeros(m.n_genes(), m.n_samples(), m.n_times());
        let mut back = [0; 4];
        for (t, &to) in perm.iter().enumerate() {
            back[to] = t;
            for g in 0..m.n_genes() {
                for s in 0..m.n_samples() {
                    moved.set(g, s, to, m.get(g, s, t));
                }
            }
        }
        let got = canonical(&mined(&moved, &p), |g| g, |t| back[t]);
        assert_eq!(got, want, "time permutation {perm:?}");
    }
}

#[test]
fn scaling_one_gene_changes_nothing() {
    let (m, p) = dataset();
    let base = mined(&m, &p);
    let want = canonical(&base, |g| g, |t| t);
    // Genes inside clusters and outside them, with factors that are and
    // are not exact in binary floating point.
    let clustered: Vec<usize> = base.triclusters[0].genes.iter().take(2).collect();
    for (gene, factor) in [
        (clustered[0], 3.0),
        (clustered[1], 0.37),
        (599, 2.5),
        (0, 0.5),
    ] {
        let mut scaled = m.clone();
        for s in 0..m.n_samples() {
            for t in 0..m.n_times() {
                scaled.set(gene, s, t, factor * m.get(gene, s, t));
            }
        }
        let got = canonical(&mined(&scaled, &p), |g| g, |t| t);
        assert_eq!(got, want, "gene {gene} scaled by {factor}");
    }
}
