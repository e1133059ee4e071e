//! Property tests of the adversarial workload-family generators
//! (DESIGN.md §13.3): the churn hot-set overlap bound, burst
//! modulation's address-stream transparency, and the exact tenant mix
//! of the weighted interleave. Historical failures replay from
//! `tests/families.proptest-regressions` before novel cases.

use profess_check::strategy::{tuple3, tuple4, u32_range, u64_range, u8_range};
use profess_check::{check_with, prop_assert, prop_assert_eq, Config};
use profess_cpu::OpSource;
use profess_trace::patterns::{
    seeded_rng, ChurnHotSet, Pattern, Streaming, WeightedInterleave, LINES_PER_BLOCK,
};
use profess_trace::{BurstParams, ProgramGen, ProgramParams};

fn cases64() -> Config {
    Config {
        cases: 64,
        ..Config::default()
    }
}

fn corpus() -> Vec<u64> {
    let corpus = profess_check::corpus_from_proptest_file("tests/families.proptest-regressions");
    assert!(!corpus.is_empty(), "regression corpus went missing");
    corpus
}

/// Consecutive churn hot sets share exactly `keep` blocks, stay unique,
/// and stay inside the footprint — the overlap bound the `hotchurn`
/// family's adversarial design rests on (a policy can never re-learn
/// more than `keep` blocks' worth of placement across a rotation).
#[test]
fn churn_overlap_is_exactly_keep() {
    check_with(
        &cases64(),
        &corpus(),
        "churn_overlap_is_exactly_keep",
        tuple4(
            u64_range(0..u64::MAX),
            u8_range(2..10),
            u8_range(0..10),
            u32_range(1..50),
        ),
        |&(seed, hot_blocks, keep_raw, churn_refs)| {
            let hot_blocks = usize::from(hot_blocks);
            let keep = usize::from(keep_raw) % hot_blocks;
            let blocks = 2 * hot_blocks as u64 + u64::from(churn_refs % 7);
            let lines = blocks * LINES_PER_BLOCK;
            let mut rng = seeded_rng(seed);
            let mut churn = ChurnHotSet::new(
                lines,
                hot_blocks,
                keep,
                0.85,
                u64::from(churn_refs),
                &mut rng,
            );
            // Observe every rotation individually: snapshot the hot set
            // after each reference and judge the overlap whenever it
            // changed (a fixed drive length can straddle two rotations
            // when `churn_refs` is small).
            let mut prev: Vec<u32> = churn.hot_set().to_vec();
            let mut rotations = 0u32;
            for _ in 0..4 * (u64::from(churn_refs) + 1) {
                let r = churn.next_ref(&mut rng);
                prop_assert!(r.line < lines, "line outside footprint");
                let cur = churn.hot_set();
                if cur != prev.as_slice() {
                    prop_assert_eq!(cur.len(), hot_blocks);
                    for (i, &b) in cur.iter().enumerate() {
                        prop_assert!(u64::from(b) < blocks, "block {b} outside footprint");
                        prop_assert!(!cur[..i].contains(&b), "duplicate hot block {b}");
                    }
                    let overlap = cur.iter().filter(|b| prev.contains(b)).count();
                    prop_assert!(
                        overlap == keep,
                        "hot sets {:?} -> {:?} share {} blocks, want {}",
                        prev,
                        cur,
                        overlap,
                        keep
                    );
                    rotations += 1;
                    prev = cur.to_vec();
                }
            }
            prop_assert!(rotations >= 2, "only {} rotation(s) observed", rotations);
            Ok(())
        },
    );
}

/// Burst modulation never touches the address stream: a bursty program
/// visits exactly the lines of its unmodulated twin, and the gaps
/// differ by exactly `off_gap`, only at on-phase boundaries.
#[test]
fn burst_modulation_is_address_transparent() {
    check_with(
        &cases64(),
        &corpus(),
        "burst_modulation_is_address_transparent",
        tuple4(
            u64_range(0..u64::MAX),
            u64_range(1..40),
            u32_range(1..100_000),
            u32_range(5..60),
        ),
        |&(seed, on_ops, off_gap, mpki)| {
            let params = ProgramParams {
                mpki: f64::from(mpki),
                lines: 4096,
                write_frac: 0.3,
                instructions: 40_000,
            };
            let burst = BurstParams { on_ops, off_gap };
            let mut plain = ProgramGen::new(params, Box::new(Streaming::new(4096)), seed);
            let mut bursty =
                ProgramGen::with_burst(params, Box::new(Streaming::new(4096)), seed, burst);
            let mut i = 0u64;
            loop {
                let (a, b) = (plain.next_op(), bursty.next_op());
                let (Some(a), Some(b)) = (a, b) else {
                    // The bursty twin spends its budget on idle gaps, so
                    // it may end first — never after.
                    prop_assert!(b.is_none(), "bursty twin outlived the plain one");
                    break;
                };
                prop_assert!(
                    a.line == b.line,
                    "address streams diverged at op {}: {} vs {}",
                    i,
                    a.line,
                    b.line
                );
                prop_assert_eq!(a.kind, b.kind);
                let boundary = i > 0 && i.is_multiple_of(on_ops);
                let want = if boundary {
                    a.gap.saturating_add(off_gap)
                } else {
                    a.gap
                };
                prop_assert!(
                    b.gap == want,
                    "gap {} at op {} (boundary: {}), want {}",
                    b.gap,
                    i,
                    boundary,
                    want
                );
                i += 1;
            }
            prop_assert!(i > 0, "no ops emitted");
            Ok(())
        },
    );
}

/// Smooth weighted round-robin serves each tenant *exactly* its weight
/// per full round — the mix is a deterministic invariant of the
/// `tenant01` family, not a statistical expectation.
#[test]
fn tenant_mix_is_exact() {
    const SLICE: u64 = 1 << 32;
    check_with(
        &cases64(),
        &corpus(),
        "tenant_mix_is_exact",
        tuple3(
            tuple3(u32_range(1..8), u32_range(1..8), u32_range(1..8)),
            u32_range(1..20),
            u64_range(0..u64::MAX),
        ),
        |&((w0, w1, w2), rounds, seed)| {
            let weights = [w0, w1, w2];
            let mut ix = WeightedInterleave::new(
                weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| {
                        let tenant: Box<dyn Pattern + Send> = Box::new(Streaming::new(256));
                        (tenant, w, i as u64 * SLICE)
                    })
                    .collect(),
            );
            let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
            let mut rng = seeded_rng(seed);
            let mut counts = [0u64; 3];
            for _ in 0..rounds * total as u32 {
                let r = ix.next_ref(&mut rng);
                let tenant = (r.line / SLICE) as usize;
                prop_assert!(tenant < 3, "line {} outside any tenant slice", r.line);
                prop_assert!(r.line % SLICE < 256, "line strayed off its slice");
                counts[tenant] += 1;
            }
            for (i, &w) in weights.iter().enumerate() {
                prop_assert!(
                    counts[i] == u64::from(rounds) * u64::from(w),
                    "tenant {} served {:?} over {} rounds of {:?}",
                    i,
                    counts,
                    rounds,
                    weights
                );
            }
            Ok(())
        },
    );
}
