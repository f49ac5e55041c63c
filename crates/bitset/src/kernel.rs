//! The popcount kernels behind [`BitSet`](crate::BitSet)'s counting
//! operations, over raw `u64` block slices.
//!
//! Each kernel body is written once, `#[inline(always)]`, in [`portable`].
//! The entries at this module's root compile that same body a second time
//! inside a `#[target_feature(enable = "popcnt")]` function, and pick the
//! build per call from the CPU: on an x86-64 CPU with the POPCNT instruction
//! `count_ones` lowers to one instruction, where the baseline x86-64 target
//! emits a bit-twiddling sequence of about a dozen. The choice follows an
//! observed CPU property (`is_x86_feature_detected!`, cached by std after
//! the first call), never a setting, and both builds return identical
//! results. Other architectures run the portable build.
//!
//! Block-width contract for every kernel: operands are equally long and the
//! bits above the universe in the last block are zero (the `BitSet`
//! invariant), so popcounts are exact.

/// Block width of the unrolled kernels. Four independent `u64` lanes per
/// iteration give the autovectorizer a fixed-shape inner loop (two 128-bit
/// or one 256-bit op per AND) while keeping the early-exit checks of the
/// bounded kernel at chunk granularity.
pub const LANES: usize = 4;

/// The kernel bodies, compiled for the crate's target features only. Public
/// as the reference the dispatched entries are tested against.
pub mod portable {
    use super::LANES;

    /// Population count of `blocks`.
    #[inline(always)]
    pub fn count(blocks: &[u64]) -> usize {
        let mut acc = [0usize; LANES];
        let mut chunks = blocks.chunks_exact(LANES);
        for x in &mut chunks {
            for l in 0..LANES {
                acc[l] += x[l].count_ones() as usize;
            }
        }
        for x in chunks.remainder() {
            acc[0] += x.count_ones() as usize;
        }
        acc.iter().sum()
    }

    /// Writes `a & b` into `dst` block by block and returns its population
    /// count. All three slices must be equally long.
    #[inline(always)]
    pub fn intersect_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> usize {
        let mut acc = [0usize; LANES];
        let mut cd = dst.chunks_exact_mut(LANES);
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for ((d, x), y) in (&mut cd).zip(&mut ca).zip(&mut cb) {
            for l in 0..LANES {
                let v = x[l] & y[l];
                acc[l] += v.count_ones() as usize;
                d[l] = v;
            }
        }
        let tail = cd
            .into_remainder()
            .iter_mut()
            .zip(ca.remainder())
            .zip(cb.remainder());
        for ((d, x), y) in tail {
            let v = x & y;
            acc[0] += v.count_ones() as usize;
            *d = v;
        }
        acc.iter().sum()
    }

    /// `|a ∩ b|`.
    #[inline(always)]
    pub fn intersection_count(a: &[u64], b: &[u64]) -> usize {
        let mut acc = [0usize; LANES];
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (x, y) in (&mut ca).zip(&mut cb) {
            for l in 0..LANES {
                acc[l] += (x[l] & y[l]).count_ones() as usize;
            }
        }
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            acc[0] += (x & y).count_ones() as usize;
        }
        acc.iter().sum()
    }

    /// `|a ∩ b| >= threshold`, returning as soon as a [`LANES`]-block chunk
    /// (or a tail block) brings the running count to `threshold`.
    #[inline(always)]
    pub fn intersection_count_at_least(a: &[u64], b: &[u64], threshold: usize) -> bool {
        if threshold == 0 {
            return true;
        }
        let mut seen = 0usize;
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (x, y) in (&mut ca).zip(&mut cb) {
            let mut chunk = 0u32;
            for l in 0..LANES {
                chunk += (x[l] & y[l]).count_ones();
            }
            seen += chunk as usize;
            if seen >= threshold {
                return true;
            }
        }
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            seen += (x & y).count_ones() as usize;
            if seen >= threshold {
                return true;
            }
        }
        false
    }
}

/// Defines a dispatching entry for one [`portable`] kernel: the POPCNT
/// build when the CPU has the instruction, the portable build otherwise.
macro_rules! dispatched {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;) => {
        $(#[$doc])*
        #[inline]
        pub fn $name($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            {
                /// The portable kernel compiled with POPCNT enabled.
                ///
                /// # Safety
                ///
                /// The CPU must support POPCNT.
                #[target_feature(enable = "popcnt")]
                unsafe fn popcnt($($arg: $ty),*) -> $ret {
                    portable::$name($($arg),*)
                }
                if std::is_x86_feature_detected!("popcnt") {
                    // SAFETY: the one precondition of calling a
                    // `#[target_feature]` function is that the CPU supports
                    // the feature, which the detection above just observed.
                    // The body is the safe portable kernel.
                    return unsafe { popcnt($($arg),*) };
                }
            }
            portable::$name($($arg),*)
        }
    };
}

dispatched! {
    /// Population count of `blocks`; see [`portable::count`].
    fn count(blocks: &[u64]) -> usize;
}

dispatched! {
    /// Writes `a & b` into `dst` and counts it; see
    /// [`portable::intersect_into`].
    fn intersect_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> usize;
}

dispatched! {
    /// `|a ∩ b|`; see [`portable::intersection_count`].
    fn intersection_count(a: &[u64], b: &[u64]) -> usize;
}

dispatched! {
    /// `|a ∩ b| >= threshold` with early exit; see
    /// [`portable::intersection_count_at_least`].
    fn intersection_count_at_least(a: &[u64], b: &[u64], threshold: usize) -> bool;
}
