//! Typed input strategies: generation plus in-domain shrinking.
//!
//! Shrinking is *by halving*: numeric values move toward the range's
//! lower bound in halved steps (so a minimal counterexample is found in
//! O(log span) probes), vectors first drop their front/back half, then
//! single elements, then shrink elements in place. Every candidate a
//! strategy proposes lies inside the strategy's own domain, so shrinking
//! can never manufacture an input the generator could not have produced.

use std::fmt::Debug;
use std::ops::Range;

use profess_rng::Rng;

/// A typed input generator with shrinking.
pub trait Strategy {
    /// The generated value type.
    type Value: Debug + Clone;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Proposes strictly "smaller" in-domain candidates for a failing
    /// value, most aggressive first. An empty vector ends shrinking.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value>;
}

macro_rules! int_strategy {
    ($name:ident, $ctor:ident, $t:ty) => {
        /// Uniform integers from a half-open range.
        #[derive(Debug, Clone)]
        pub struct $name {
            range: Range<$t>,
        }

        /// Uniform integers in `range` (half-open).
        pub fn $ctor(range: Range<$t>) -> $name {
            assert!(range.start < range.end, "empty range");
            $name { range }
        }

        impl Strategy for $name {
            type Value = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.range.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let lo = self.range.start;
                let v = *value;
                if v == lo {
                    return Vec::new();
                }
                // Jump to the bound, then halve the distance.
                let half = lo + (v - lo) / 2;
                let mut out = vec![lo];
                if half != lo && half != v {
                    out.push(half);
                }
                let prev = v - 1;
                if prev != lo && prev != half {
                    out.push(prev);
                }
                out
            }
        }
    };
}

int_strategy!(U8Range, u8_range, u8);
int_strategy!(U32Range, u32_range, u32);
int_strategy!(U64Range, u64_range, u64);
int_strategy!(UsizeRange, usize_range, usize);

/// Uniform `f64` from a half-open range.
#[derive(Debug, Clone)]
pub struct F64Range {
    range: Range<f64>,
}

/// Uniform `f64` values in `range` (half-open).
pub fn f64_range(range: Range<f64>) -> F64Range {
    assert!(range.start < range.end, "empty range");
    F64Range { range }
}

impl Strategy for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let lo = self.range.start;
        let v = *value;
        if v <= lo {
            return Vec::new();
        }
        let half = lo + (v - lo) / 2.0;
        let mut out = vec![lo];
        if half > lo && half < v {
            out.push(half);
        }
        out
    }
}

/// Uniform booleans.
#[derive(Debug, Clone)]
pub struct AnyBool;

/// Uniform booleans; shrinks `true` to `false`.
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Strategy for AnyBool {
    type Value = bool;

    fn generate(&self, rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Vectors of an element strategy with a length range.
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    elem: S,
    len: Range<usize>,
}

/// Vectors with lengths from `len` (half-open), elements from `elem`.
pub fn vec_of<S: Strategy>(elem: S, len: Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "empty length range");
    VecOf { elem, len }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min_len = self.len.start;
        let mut out = Vec::new();
        let n = value.len();
        // Halve the length (keep front / keep back), respecting min_len.
        if n > min_len {
            let target = (n / 2).max(min_len);
            if target < n {
                out.push(value[..target].to_vec());
                out.push(value[n - target..].to_vec());
            }
            // Drop one element (first / last).
            if n > min_len && n - 1 != target {
                out.push(value[1..].to_vec());
                out.push(value[..n - 1].to_vec());
            }
        }
        // Shrink individual elements (first shrink candidate each).
        for (i, v) in value.iter().enumerate() {
            if let Some(sv) = self.elem.shrink(v).into_iter().next() {
                let mut copy = value.clone();
                copy[i] = sv;
                out.push(copy);
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($name:ident, $ctor:ident, $($S:ident/$arg:ident/$idx:tt),+) => {
        /// A tuple of independent strategies.
        #[derive(Debug, Clone)]
        pub struct $name<$($S),+> {
            parts: ($($S,)+),
        }

        /// Combines strategies into a tuple strategy.
        pub fn $ctor<$($S: Strategy),+>($($arg: $S),+) -> $name<$($S),+> {
            $name { parts: ($($arg,)+) }
        }

        impl<$($S: Strategy),+> Strategy for $name<$($S),+> {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.parts.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.parts.$idx.shrink(&value.$idx) {
                        let mut copy = value.clone();
                        copy.$idx = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(Tuple2, tuple2, A / a / 0, B / b / 1);
tuple_strategy!(Tuple3, tuple3, A / a / 0, B / b / 1, C / c / 2);
tuple_strategy!(Tuple4, tuple4, A / a / 0, B / b / 1, C / c / 2, D / d / 3);
tuple_strategy!(
    Tuple5,
    tuple5,
    A / a / 0,
    B / b / 1,
    C / c / 2,
    D / d / 3,
    E / e / 4
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_generation_in_range_and_shrink_in_domain() {
        let s = u64_range(10..20);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((10..20).contains(&v));
            for c in s.shrink(&v) {
                assert!((10..20).contains(&c) && c < v);
            }
        }
        assert!(s.shrink(&10).is_empty());
    }

    #[test]
    fn f64_shrink_moves_toward_lower_bound() {
        let s = f64_range(0.5..2.0);
        let cands = s.shrink(&1.5);
        assert_eq!(cands[0], 0.5);
        assert!(cands[1] > 0.5 && cands[1] < 1.5);
        assert!(s.shrink(&0.5).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = vec_of(u8_range(0..10), 2..8);
        let v = vec![5u8, 5, 5, 5, 5, 5];
        for c in s.shrink(&v) {
            assert!(c.len() >= 2, "candidate below min length: {c:?}");
        }
        // All-minimal vector at min length: only element shrinks remain,
        // and there are none for all-zero elements.
        assert!(s.shrink(&vec![0, 0]).is_empty());
    }

    #[test]
    fn tuple_shrinks_one_coordinate_at_a_time() {
        let s = tuple2(u64_range(0..100), any_bool());
        let cands = s.shrink(&(40, true));
        assert!(cands.contains(&(0, true)));
        assert!(cands.contains(&(40, false)));
        assert!(s.shrink(&(0, false)).is_empty());
    }

    #[test]
    fn bool_strategy_produces_both() {
        let s = any_bool();
        let mut rng = Rng::seed_from_u64(3);
        let mut t = 0;
        for _ in 0..100 {
            if s.generate(&mut rng) {
                t += 1;
            }
        }
        assert!(t > 20 && t < 80);
    }
}
