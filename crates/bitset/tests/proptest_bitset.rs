//! Property-based tests checking `BitSet` against a `BTreeSet<usize>` model.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tricluster_bitset::BitSet;

const UNIVERSE: usize = 257; // deliberately not a multiple of 64

fn model_pair() -> impl Strategy<Value = (BTreeSet<usize>, BTreeSet<usize>)> {
    let set = proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE);
    (set.clone(), set)
}

fn to_bitset(m: &BTreeSet<usize>) -> BitSet {
    BitSet::from_indices(UNIVERSE, m.iter().copied())
}

proptest! {
    #[test]
    fn roundtrip_via_iter(m in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        let s = to_bitset(&m);
        let back: BTreeSet<usize> = s.iter().collect();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn count_matches_model(m in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        let s = to_bitset(&m);
        prop_assert_eq!(s.count(), m.len());
        prop_assert_eq!(s.is_empty(), m.is_empty());
    }

    #[test]
    fn intersection_matches_model((a, b) in model_pair()) {
        let got: BTreeSet<usize> = to_bitset(&a).intersection(&to_bitset(&b)).iter().collect();
        let want: BTreeSet<usize> = a.intersection(&b).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn union_matches_model((a, b) in model_pair()) {
        let got: BTreeSet<usize> = to_bitset(&a).union(&to_bitset(&b)).iter().collect();
        let want: BTreeSet<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn difference_matches_model((a, b) in model_pair()) {
        let got: BTreeSet<usize> = to_bitset(&a).difference(&to_bitset(&b)).iter().collect();
        let want: BTreeSet<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn symmetric_difference_matches_model((a, b) in model_pair()) {
        let mut s = to_bitset(&a);
        s.symmetric_difference_with(&to_bitset(&b));
        let got: BTreeSet<usize> = s.iter().collect();
        let want: BTreeSet<usize> = a.symmetric_difference(&b).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn intersection_count_agrees((a, b) in model_pair()) {
        let sa = to_bitset(&a);
        let sb = to_bitset(&b);
        let n = a.intersection(&b).count();
        prop_assert_eq!(sa.intersection_count(&sb), n);
        // at_least is consistent at, below, and above the true count
        prop_assert!(sa.intersection_count_at_least(&sb, n));
        if n > 0 {
            prop_assert!(sa.intersection_count_at_least(&sb, n - 1));
        }
        prop_assert!(!sa.intersection_count_at_least(&sb, n + 1));
    }

    #[test]
    fn intersect_into_matches_model((a, b) in model_pair(), junk in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        // Scratch starts with arbitrary junk; intersect_into must fully
        // replace it and report the exact cardinality.
        let mut scratch = to_bitset(&junk);
        let n = scratch.intersect_into(&to_bitset(&a), &to_bitset(&b));
        let want: BTreeSet<usize> = a.intersection(&b).copied().collect();
        let got: BTreeSet<usize> = scratch.iter().collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(n, want.len());
        prop_assert_eq!(scratch.capacity(), UNIVERSE);
        prop_assert_eq!(scratch, to_bitset(&a).intersection(&to_bitset(&b)));
    }

    #[test]
    fn subset_matches_model((a, b) in model_pair()) {
        prop_assert_eq!(to_bitset(&a).is_subset(&to_bitset(&b)), a.is_subset(&b));
        prop_assert_eq!(to_bitset(&a).is_disjoint(&to_bitset(&b)), a.is_disjoint(&b));
    }

    #[test]
    fn min_max_match_model(m in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        let s = to_bitset(&m);
        prop_assert_eq!(s.min(), m.iter().next().copied());
        prop_assert_eq!(s.max(), m.iter().next_back().copied());
    }

    #[test]
    fn complement_is_involution(m in proptest::collection::btree_set(0..UNIVERSE, 0..UNIVERSE)) {
        let s = to_bitset(&m);
        let mut c = s.clone();
        c.complement_in_place();
        prop_assert_eq!(c.count(), UNIVERSE - s.count());
        prop_assert!(c.is_disjoint(&s));
        c.complement_in_place();
        prop_assert_eq!(c, s);
    }

    #[test]
    fn demorgan((a, b) in model_pair()) {
        // !(A ∪ B) == !A ∩ !B
        let sa = to_bitset(&a);
        let sb = to_bitset(&b);
        let mut lhs = sa.union(&sb);
        lhs.complement_in_place();
        let mut na = sa.clone();
        na.complement_in_place();
        let mut nb = sb.clone();
        nb.complement_in_place();
        prop_assert_eq!(lhs, na.intersection(&nb));
    }

    #[test]
    fn insert_remove_roundtrip(m in proptest::collection::btree_set(0..UNIVERSE, 1..UNIVERSE), idx in 0..UNIVERSE) {
        let mut s = to_bitset(&m);
        let present = m.contains(&idx);
        prop_assert_eq!(s.insert(idx), !present);
        prop_assert!(s.contains(idx));
        prop_assert!(s.remove(idx));
        prop_assert!(!s.contains(idx));
    }
}

// ------------------------------------------- dispatched vs portable kernels --

use tricluster_bitset::kernel::{self, portable, LANES};

/// Largest universe the kernel properties draw: 18 blocks, so every
/// remainder of the [`LANES`]-block unrolling occurs.
const MAX_UNIVERSE: usize = 1100;

/// A set over `0..nbits` that is sparse (at most one element per block,
/// the hinted test's membership path), moderate, or dense, with equal odds.
fn set_in(nbits: usize) -> impl Strategy<Value = BTreeSet<usize>> {
    (0usize..3).prop_flat_map(move |density| {
        let cap = match density {
            0 => nbits.div_ceil(64),
            1 => nbits / 8,
            _ => nbits,
        };
        proptest::collection::btree_set(0..nbits.max(1), 0..=cap.min(nbits))
    })
}

/// A universe of 0–1100 bits and two sets over it.
fn sized_pair() -> impl Strategy<Value = (usize, BTreeSet<usize>, BTreeSet<usize>)> {
    (0usize..=MAX_UNIVERSE).prop_flat_map(|n| (Just(n), set_in(n), set_in(n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dispatched_kernels_match_portable((n, a, b) in sized_pair(), junk in 0u64..u64::MAX) {
        let sa = BitSet::from_indices(n, a.iter().copied());
        let sb = BitSet::from_indices(n, b.iter().copied());
        let (xa, xb) = (sa.as_blocks(), sb.as_blocks());
        prop_assert_eq!(kernel::count(xa), portable::count(xa));
        prop_assert_eq!(kernel::count(xa), a.len());
        let both = a.intersection(&b).count();
        prop_assert_eq!(kernel::intersection_count(xa, xb), both);
        prop_assert_eq!(portable::intersection_count(xa, xb), both);
        // Both builds must fully overwrite a junk-filled destination.
        let mut fast = vec![junk; xa.len()];
        let mut slow = vec![!junk; xa.len()];
        prop_assert_eq!(kernel::intersect_into(&mut fast, xa, xb), both);
        prop_assert_eq!(portable::intersect_into(&mut slow, xa, xb), both);
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(&fast[..], sa.intersection(&sb).as_blocks());
        for t in 0..=both + 1 {
            let want = both >= t;
            prop_assert_eq!(kernel::intersection_count_at_least(xa, xb, t), want, "t={}", t);
            prop_assert_eq!(portable::intersection_count_at_least(xa, xb, t), want, "t={}", t);
        }
    }

    #[test]
    fn hinted_test_matches_portable_count((n, a, b) in sized_pair()) {
        let sa = BitSet::from_indices(n, a.iter().copied());
        let sb = BitSet::from_indices(n, b.iter().copied());
        let both = portable::intersection_count(sa.as_blocks(), sb.as_blocks());
        for t in 0..=both + 1 {
            prop_assert_eq!(
                sa.intersection_count_at_least_hinted(&sb, t, a.len()),
                both >= t,
                "n={} |a|={} t={}", n, a.len(), t
            );
        }
    }
}

/// Deterministic cover of both branches of the hinted test — the sparse
/// membership path (`|self| ≤ blocks`) and the dense block scan — at
/// universes around every block and [`LANES`] boundary.
#[test]
fn hinted_sparse_and_dense_branches_match_portable() {
    let universes = [
        0,
        1,
        63,
        64,
        65,
        64 * LANES - 1,
        64 * LANES,
        64 * LANES + 1,
        257,
        1023,
        1100,
    ];
    for n in universes {
        let blocks = n.div_ceil(64);
        let other = BitSet::from_indices(n, (0..n).filter(|i| i % 3 != 1));
        let sparse = BitSet::from_indices(n, (0..n).step_by(64).take(blocks));
        let dense = BitSet::from_indices(n, (0..n).filter(|i| i % 5 != 0));
        assert!(
            sparse.count() <= blocks,
            "n={n}: sparse set takes the membership path"
        );
        assert!(
            n < 64 || dense.count() > blocks,
            "n={n}: dense set takes the block scan"
        );
        for s in [&sparse, &dense] {
            let both = portable::intersection_count(s.as_blocks(), other.as_blocks());
            for t in 0..=both + 1 {
                assert_eq!(
                    s.intersection_count_at_least_hinted(&other, t, s.count()),
                    both >= t,
                    "n={n} |self|={} t={t}",
                    s.count()
                );
                assert_eq!(
                    kernel::intersection_count_at_least(s.as_blocks(), other.as_blocks(), t),
                    both >= t
                );
            }
        }
    }
}
