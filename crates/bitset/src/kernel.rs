//! The popcount kernels behind [`BitSet`](crate::BitSet)'s counting
//! operations, over raw `u64` block slices.
//!
//! Each kernel body is written once, `#[inline(always)]`, in [`portable`].
//! On x86-64 the same body is compiled three times, and each call picks a
//! [`Build`] from the CPU and the operand length:
//!
//! - **`avx512bw`** — inside `#[target_feature(enable = "avx512bw,popcnt")]`.
//!   The compiler vectorizes the bodies over 512-bit registers (a `vpshufb`
//!   nibble-table popcount and `vpsadbw` sums, eight blocks per step). Taken
//!   when the CPU has AVX-512BW and the operands span at least [`LANES`]
//!   blocks, one 512-bit vector. Shorter operands would run only the wide
//!   build's masked tail, which measured slower than POPCNT.
//! - **`popcnt`** — inside `#[target_feature(enable = "popcnt")]`, where
//!   `count_ones` lowers to one instruction instead of the baseline x86-64
//!   target's dozen of bit-twiddling. Taken for shorter operands, or when
//!   the CPU lacks AVX-512BW.
//! - **`portable`** — the crate's own target features: every other CPU and
//!   architecture.
//!
//! The choice follows observed CPU and input properties
//! (`is_x86_feature_detected!`, cached by std after the first call, and the
//! slice length), never a setting, and every build returns identical
//! results. [`builds`] lists the builds this CPU can run, so tests reach
//! each one and not only the one dispatch picks.
//!
//! Block-width contract for every kernel: operands are equally long and the
//! bits above the universe in the last block are zero (the `BitSet`
//! invariant), so popcounts are exact.

/// Blocks per chunk of the bounded kernel: one 512-bit vector of `u64`
/// blocks. It is the early-exit granularity of
/// [`portable::intersection_count_at_least`] (a reduction per chunk, so the
/// wide build reduces one full register at a time) and the shortest operand
/// the `avx512bw` build takes.
pub const LANES: usize = 8;

/// The kernel bodies, compiled for the crate's target features only. Public
/// as the reference the other builds are tested against.
///
/// The bodies are plain `zip` / `count_ones` / `sum` loops so that each
/// build's compiler vectorizes them at its own width; no body uses
/// intrinsics or raw pointers.
pub mod portable {
    use super::LANES;

    /// Population count of `blocks`.
    #[inline(always)]
    pub fn count(blocks: &[u64]) -> usize {
        blocks.iter().map(|x| x.count_ones() as usize).sum()
    }

    /// Writes `a & b` into `dst` block by block and returns its population
    /// count. All three slices must be equally long.
    #[inline(always)]
    pub fn intersect_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> usize {
        let mut n = 0usize;
        for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
            let v = x & y;
            n += v.count_ones() as usize;
            *d = v;
        }
        n
    }

    /// `|a ∩ b|`.
    #[inline(always)]
    pub fn intersection_count(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// `|a ∩ b| >= threshold`, returning as soon as a [`LANES`]-block chunk
    /// brings the running count to `threshold`.
    #[inline(always)]
    pub fn intersection_count_at_least(a: &[u64], b: &[u64], threshold: usize) -> bool {
        if threshold == 0 {
            return true;
        }
        let mut seen = 0usize;
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (x, y) in (&mut ca).zip(&mut cb) {
            seen += intersection_count(x, y);
            if seen >= threshold {
                return true;
            }
        }
        seen + intersection_count(ca.remainder(), cb.remainder()) >= threshold
    }
}

/// One compiled build of the kernels. A value names a build this CPU can
/// run: the only ways to obtain one are [`Build::select`],
/// [`Build::for_universe`] and [`builds`], which hand out an x86-64 build
/// only after run-time detection observed its features.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Build(Kind);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    #[cfg(target_arch = "x86_64")]
    Avx512bw,
    #[cfg(target_arch = "x86_64")]
    Popcnt,
    Portable,
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx512bw() -> bool {
    std::is_x86_feature_detected!("avx512bw") && std::is_x86_feature_detected!("popcnt")
}

impl Build {
    /// The build the kernels take for operands of `blocks` blocks on this
    /// CPU: `avx512bw` from [`LANES`] blocks up when the CPU has it, else
    /// `popcnt` when the CPU has it, else `portable`.
    #[inline]
    pub fn select(blocks: usize) -> Build {
        #[cfg(target_arch = "x86_64")]
        {
            if blocks >= LANES && has_avx512bw() {
                return Build(Kind::Avx512bw);
            }
            if std::is_x86_feature_detected!("popcnt") {
                return Build(Kind::Popcnt);
            }
        }
        let _ = blocks; // read only on x86-64
        Build(Kind::Portable)
    }

    /// The build the kernels take for sets over a universe of `nbits`
    /// indices ([`BitSet`](crate::BitSet)s of `nbits.div_ceil(64)` blocks).
    pub fn for_universe(nbits: usize) -> Build {
        Build::select(nbits.div_ceil(crate::BITS))
    }

    /// The build's name: `avx512bw`, `popcnt` or `portable`.
    pub fn name(self) -> &'static str {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512bw => "avx512bw",
            #[cfg(target_arch = "x86_64")]
            Kind::Popcnt => "popcnt",
            Kind::Portable => "portable",
        }
    }
}

/// Every build this CPU can run, widest first; `portable` is always last.
pub fn builds() -> Vec<Build> {
    let mut out = Vec::with_capacity(3);
    #[cfg(target_arch = "x86_64")]
    {
        if has_avx512bw() {
            out.push(Build(Kind::Avx512bw));
        }
        if std::is_x86_feature_detected!("popcnt") {
            out.push(Build(Kind::Popcnt));
        }
    }
    out.push(Build(Kind::Portable));
    out
}

/// Defines one [`portable`] kernel's entry at this module's root, which
/// dispatches on [`Build::select`] of the length of `$len`, and the
/// `Build` method that runs the kernel in a given build.
macro_rules! dispatched {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) -> $ret:ty; blocks = $len:ident;) => {
        $(#[$doc])*
        #[inline]
        pub fn $name($($arg: $ty),*) -> $ret {
            Build::select($len.len()).$name($($arg),*)
        }

        impl Build {
            #[doc = concat!("[`", stringify!($name), "`] in this build.")]
            #[inline]
            pub fn $name(self, $($arg: $ty),*) -> $ret {
                match self.0 {
                    #[cfg(target_arch = "x86_64")]
                    Kind::Avx512bw => {
                        /// The portable kernel compiled with AVX-512BW. A
                        /// call from outside a matching `#[target_feature]`
                        /// context is `unsafe`: the CPU must have the
                        /// features.
                        #[target_feature(enable = "avx512bw,popcnt")]
                        fn wide($($arg: $ty),*) -> $ret {
                            portable::$name($($arg),*)
                        }
                        // SAFETY: the one precondition of calling a
                        // `#[target_feature]` function is that the CPU
                        // supports the features. A `Build` of this kind is
                        // made only after `has_avx512bw` observed them, and
                        // the body is the safe portable kernel.
                        unsafe { wide($($arg),*) }
                    }
                    #[cfg(target_arch = "x86_64")]
                    Kind::Popcnt => {
                        /// The portable kernel compiled with POPCNT; as
                        /// above, the CPU must have the instruction.
                        #[target_feature(enable = "popcnt")]
                        fn popcnt($($arg: $ty),*) -> $ret {
                            portable::$name($($arg),*)
                        }
                        // SAFETY: as above; this kind is made only after
                        // `is_x86_feature_detected!("popcnt")` observed the
                        // instruction.
                        unsafe { popcnt($($arg),*) }
                    }
                    Kind::Portable => portable::$name($($arg),*),
                }
            }
        }
    };
}

dispatched! {
    /// Population count of `blocks`; see [`portable::count`].
    fn count(blocks: &[u64]) -> usize;
    blocks = blocks;
}

dispatched! {
    /// Writes `a & b` into `dst` and counts it; see
    /// [`portable::intersect_into`].
    fn intersect_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> usize;
    blocks = a;
}

dispatched! {
    /// `|a ∩ b|`; see [`portable::intersection_count`].
    fn intersection_count(a: &[u64], b: &[u64]) -> usize;
    blocks = a;
}

dispatched! {
    /// `|a ∩ b| >= threshold` with early exit; see
    /// [`portable::intersection_count_at_least`].
    fn intersection_count_at_least(a: &[u64], b: &[u64], threshold: usize) -> bool;
    blocks = a;
}
