//! Property-based tests (profess-check) of the core data structures and
//! invariants: address geometry bijectivity, swap-table permutation
//! consistency, STC behaviour, quantization, metrics, and the analytic
//! sampling model.
//!
//! Historical proptest failures recorded in
//! `tests/properties.proptest-regressions` are replayed as corpus seeds
//! before any novel case, and the one concrete counterexample that file
//! documents is also pinned as an explicit regression test below.

use profess::core::org::{qac, StEntry};
use profess::core::policies::rsm::analytic_sigma_fraction;
use profess::core::Stc;
use profess::metrics::{geomean, unfairness, weighted_speedup, BoxPlot};
use profess::types::geometry::{Geometry, OrigLineAddr};
use profess::types::ids::SlotIdx;
use profess::types::GroupId;
use profess_check::strategy::{f64_range, tuple2, u32_range, u64_range, u8_range, vec_of};
use profess_check::{check, check_with, prop_assert, prop_assert_eq, Config};

fn geom() -> Geometry {
    Geometry::new(2048, 64, 4096, 2, 8 << 20, 8, 128, 16, 8192, 8)
}

#[test]
fn geometry_decompose_compose_roundtrip() {
    check(
        "geometry_decompose_compose_roundtrip",
        u64_range(0..(9 * 4096 * 32)),
        |&line| {
            let g = geom();
            let (grp, slot, off) = g.decompose(OrigLineAddr(line));
            prop_assert!(grp.0 < g.num_groups());
            prop_assert!((slot.0 as u32) < g.slots_per_group());
            prop_assert!(off < 32);
            prop_assert_eq!(g.compose(grp, slot, off), OrigLineAddr(line));
            Ok(())
        },
    );
}

#[test]
fn geometry_page_blocks_share_region_and_slot() {
    check(
        "geometry_page_blocks_share_region_and_slot",
        u64_range(0..(9 * 4096 / 2)),
        |&page| {
            let g = geom();
            let b0 = g.page_first_block(page);
            let (g0, s0) = g.block_to_group_slot(b0);
            let (g1, s1) = g.block_to_group_slot(b0 + 1);
            prop_assert_eq!(s0, s1);
            prop_assert_eq!(g.region_of(g0), g.region_of(g1));
            Ok(())
        },
    );
}

#[test]
fn swap_table_stays_a_permutation() {
    check(
        "swap_table_stays_a_permutation",
        vec_of(tuple2(u8_range(0..9), u8_range(0..9)), 0..64),
        |swaps| {
            let mut e = StEntry::default();
            for &(a, b) in swaps {
                e.swap(SlotIdx(a), SlotIdx(b));
            }
            // actual() must remain a bijection slot -> slot.
            let mut seen = [false; SlotIdx::MAX];
            for o in SlotIdx::up_to(SlotIdx::MAX as u32) {
                let a = e.actual_of(o);
                prop_assert!(!seen[a.index()], "two blocks at one location");
                seen[a.index()] = true;
                prop_assert_eq!(e.resident_of(a), o);
            }
            Ok(())
        },
    );
}

#[test]
fn swap_is_involutive() {
    check(
        "swap_is_involutive",
        tuple2(u8_range(0..9), u8_range(0..9)),
        |&(a, b)| {
            let mut e = StEntry::default();
            e.swap(SlotIdx(a), SlotIdx(b));
            e.swap(SlotIdx(a), SlotIdx(b));
            prop_assert!(e.is_identity());
            Ok(())
        },
    );
}

#[test]
fn quantization_matches_table5() {
    check(
        "quantization_matches_table5",
        u32_range(1..1000),
        |&count| {
            let q = qac::quantize(count);
            let expected = if count < 8 {
                1
            } else if count < 32 {
                2
            } else {
                3
            };
            prop_assert_eq!(q, expected);
            Ok(())
        },
    );
}

#[test]
fn stc_never_exceeds_capacity() {
    check(
        "stc_never_exceeds_capacity",
        vec_of(u64_range(0..4096), 1..200),
        |groups| {
            let mut stc = Stc::new(32, 8);
            for &g in groups {
                let g = GroupId(g);
                if stc.lookup(g).is_none() {
                    stc.insert(g, [0; SlotIdx::MAX]);
                }
            }
            prop_assert!(stc.iter().count() <= 32);
            // No duplicates.
            let mut ids: Vec<u64> = stc.iter().map(|e| e.group.0).collect();
            let before = ids.len();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), before);
            Ok(())
        },
    );
}

#[test]
fn weighted_speedup_bounds() {
    check(
        "weighted_speedup_bounds",
        vec_of(f64_range(1.0..100.0), 1..8),
        |sdns| {
            // Slowdowns >= 1 bound the weighted speedup by the program count.
            let ws = weighted_speedup(sdns);
            prop_assert!(ws > 0.0);
            prop_assert!(ws <= sdns.len() as f64 + 1e-9);
            prop_assert!(unfairness(sdns) >= 1.0);
            Ok(())
        },
    );
}

#[test]
fn geomean_between_min_and_max() {
    check(
        "geomean_between_min_and_max",
        vec_of(f64_range(0.01..100.0), 1..16),
        |xs| {
            let g = geomean(xs);
            let lo = xs.iter().cloned().fold(f64::MAX, f64::min);
            let hi = xs.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
            Ok(())
        },
    );
}

fn boxplot_ordered(xs: &[f64]) -> Result<(), String> {
    let b = BoxPlot::from_values(xs);
    prop_assert!(b.whisker_lo <= b.q1 + 1e-12);
    prop_assert!(b.q1 <= b.median + 1e-12);
    prop_assert!(b.median <= b.q3 + 1e-12);
    prop_assert!(b.q3 <= b.whisker_hi + 1e-12);
    Ok(())
}

#[test]
fn boxplot_is_ordered() {
    // Replay the historical proptest failures first (seeds derived from
    // tests/properties.proptest-regressions), then novel cases.
    let corpus = profess_check::corpus_from_proptest_file("tests/properties.proptest-regressions");
    assert!(!corpus.is_empty(), "regression corpus went missing");
    check_with(
        &Config::default(),
        &corpus,
        "boxplot_is_ordered",
        vec_of(f64_range(0.01..10.0), 1..64),
        |xs| boxplot_ordered(xs),
    );
}

#[test]
fn boxplot_regression_quartile_interpolation() {
    // The concrete counterexample the proptest-regressions file records
    // ("shrinks to xs = [...]"): four values whose q3 interpolation once
    // crossed the upper whisker.
    let xs = vec![
        2.7939474013970287,
        2.6806491293773007,
        0.01,
        3.999743822040331,
    ];
    boxplot_ordered(&xs).expect("historical counterexample must pass");
}

#[test]
fn analytic_sigma_decreases_with_samples() {
    check(
        "analytic_sigma_decreases_with_samples",
        tuple2(u64_range(2..512), u64_range(1..20)),
        |&(n, m)| {
            // Doubling the number of accesses shrinks the relative sigma by
            // sqrt(2) under the multinomial model (eq. 4).
            let m1 = 1u64 << m;
            let s1 = analytic_sigma_fraction(n, m1);
            let s2 = analytic_sigma_fraction(n, m1 * 2);
            prop_assert!(s2 < s1);
            prop_assert!((s1 / s2 - std::f64::consts::SQRT_2).abs() < 1e-6);
            Ok(())
        },
    );
}
