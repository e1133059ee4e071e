//! In-tree deterministic pseudo-random number generation.
//!
//! The simulator is a measurement instrument: every run must be exactly
//! reproducible from its seed, offline, on any platform. This crate
//! replaces the external `rand` dependency with two small, published
//! algorithms:
//!
//! * **SplitMix64** (Steele, Lea & Flood) for seed expansion — one `u64`
//!   seed deterministically fills arbitrary state;
//! * **xoshiro256\*\*** (Blackman & Vigna) as the workhorse generator —
//!   fast, 256-bit state, passes BigCrush, with a published `jump()`
//!   polynomial that partitions the period into 2^128 non-overlapping
//!   subsequences for per-core forked streams.
//!
//! The API mirrors the subset of `rand` the workspace used:
//! [`Rng::gen_range`] over integer and float ranges, [`Rng::gen_bool`],
//! [`Rng::next_f64`], [`Rng::shuffle`], plus [`Rng::forked`] for
//! independent per-core streams.
//!
//! All outputs are pinned by known-answer tests against the reference C
//! implementations' published vectors (`tests/known_answers.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::ops::{Range, RangeInclusive};

/// SplitMix64: the recommended seeder for xoshiro-family generators.
///
/// A 64-bit state advanced by the golden-ratio constant and finalized by
/// a Stafford mix; every output is distinct over the full 2^64 period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    x: u64,
}

impl SplitMix64 {
    /// Creates a seeder from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { x: seed }
    }

    /// Produces the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The published xoshiro256** jump polynomial: advances the state by
/// 2^128 steps.
const JUMP: [u64; 4] = [
    0x180E_C6D3_3CFD_0ABA,
    0xD5A6_1266_F0C9_392C,
    0xA958_2618_E03F_C9AA,
    0x39AB_DC45_29B1_661C,
];

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from raw state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all-zero (the one fixed point of the
    /// transition function).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be nonzero");
        Rng { s }
    }

    /// Creates a generator from a single `u64` seed via SplitMix64
    /// expansion (the seeding procedure recommended by the xoshiro
    /// reference implementation).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // SplitMix64 outputs are a bijection of a counter, so the four
        // words can never be simultaneously zero.
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Creates the `stream`-th independent forked generator of `seed`:
    /// the base generator jumped `stream` times. Streams are guaranteed
    /// non-overlapping for at least 2^128 draws each.
    pub fn forked(seed: u64, stream: u64) -> Self {
        let mut r = Rng::seed_from_u64(seed);
        for _ in 0..stream {
            r.jump();
        }
        r
    }

    /// The raw state (for diagnostics and tests).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Produces the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits: the xoshiro** lowest bits are the
        // weakest, and 53 bits fill the f64 mantissa exactly.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)` (Lemire's unbiased multiply-shift
    /// rejection method).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn bounded_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            // Rejection threshold: 2^64 mod n.
            let t = n.wrapping_neg() % n;
            while lo < t {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value from `range` (half-open and inclusive integer
    /// ranges, half-open `f64` ranges).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<R: RangeSample>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.next_f64() < p
    }

    /// Uniform Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Advances the state by 2^128 steps (the published jump polynomial):
    /// partitions the period into non-overlapping subsequences.
    pub fn jump(&mut self) {
        let mut acc = [0u64; 4];
        for word in JUMP {
            for bit in 0..64 {
                if word & (1u64 << bit) != 0 {
                    acc[0] ^= self.s[0];
                    acc[1] ^= self.s[1];
                    acc[2] ^= self.s[2];
                    acc[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }
}

/// A range that [`Rng::gen_range`] can sample uniformly.
pub trait RangeSample {
    /// The sampled value type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl RangeSample for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl RangeSample for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl RangeSample for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        assert!(
            self.start.is_finite() && self.end.is_finite(),
            "non-finite range"
        );
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Guard the open upper bound against rounding.
        if v >= self.end {
            self.end.next_down()
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_is_in_range_and_covers() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.bounded_u64(7) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn gen_range_int_variants() {
        let mut r = Rng::seed_from_u64(10);
        for _ in 0..500 {
            let a = r.gen_range(5u64..17);
            assert!((5..17).contains(&a));
            let b = r.gen_range(0usize..=3);
            assert!(b <= 3);
            let c = r.gen_range(200u32..201);
            assert_eq!(c, 200);
        }
    }

    #[test]
    fn gen_range_f64_stays_in_bounds() {
        let mut r = Rng::seed_from_u64(11);
        for _ in 0..10_000 {
            let v = r.gen_range(f64::MIN_POSITIVE..1.0);
            assert!((f64::MIN_POSITIVE..1.0).contains(&v));
        }
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut r = Rng::seed_from_u64(12);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_rate() {
        let mut r = Rng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(14);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs, sorted,
            "shuffle left the identity (astronomically unlikely)"
        );
    }

    #[test]
    fn clone_replays_identically() {
        let mut a = Rng::seed_from_u64(15);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_state_rejected() {
        Rng::from_state([0; 4]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        Rng::seed_from_u64(1).gen_range(3u64..3);
    }
}
