//! Address-stream pattern generators.
//!
//! All patterns produce 64 B line indices within a footprint of `lines`
//! lines (the program's own address space, starting at 0). The system layer
//! maps these to physical frames through its page allocator.
//!
//! Block-level reuse skew is the property that separates the migration
//! policies: MDM's per-block cost-benefit analysis wins exactly when some
//! 2 KB blocks are worth promoting on first touch and others are not.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use profess_rng::Rng;

/// Lines per 2 KB swap block.
pub const LINES_PER_BLOCK: u64 = 32;

/// One generated reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref {
    /// 64 B line index within the program footprint.
    pub line: u64,
    /// Whether the reference depends on the previous load (pointer chase).
    pub dependent: bool,
}

/// An address-pattern generator.
pub trait Pattern {
    /// Produces the next reference.
    fn next_ref(&mut self, rng: &mut Rng) -> Ref;
}

/// `(x + 1) % n` for `x < n`, without a division.
#[inline]
fn wrap_inc(x: u64, n: u64) -> u64 {
    debug_assert!(x < n);
    if x + 1 == n {
        0
    } else {
        x + 1
    }
}

/// Sequential sweep over the footprint: every line once per sweep, so each
/// 2 KB block sees 32 consecutive accesses per sweep (bwaves-, lbm-like).
#[derive(Debug, Clone)]
pub struct Streaming {
    lines: u64,
    pos: u64,
}

impl Streaming {
    /// Creates a stream over `lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn new(lines: u64) -> Self {
        assert!(lines > 0, "empty footprint");
        Streaming { lines, pos: 0 }
    }
}

impl Pattern for Streaming {
    fn next_ref(&mut self, _rng: &mut Rng) -> Ref {
        let line = self.pos;
        self.pos = wrap_inc(line, self.lines);
        Ref {
            line,
            dependent: false,
        }
    }
}

/// Strided sweep: visits every `stride`-th line, cycling through phase
/// offsets so the whole footprint is covered (leslie3d-, zeusmp-like).
/// Spatial locality per block is lower than streaming (32/stride accesses
/// per block visit).
#[derive(Debug, Clone)]
pub struct Strided {
    lines: u64,
    stride: u64,
    pos: u64,
    phase: u64,
}

impl Strided {
    /// Creates a strided sweep with the given stride in lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `stride` is zero.
    pub fn new(lines: u64, stride: u64) -> Self {
        assert!(lines > 0 && stride > 0);
        Strided {
            lines,
            stride,
            pos: 0,
            phase: 0,
        }
    }
}

impl Pattern for Strided {
    fn next_ref(&mut self, _rng: &mut Rng) -> Ref {
        let line = (self.pos + self.phase) % self.lines;
        self.pos += self.stride;
        if self.pos >= self.lines {
            self.pos = 0;
            self.phase = (self.phase + 1) % self.stride;
        }
        Ref {
            line,
            dependent: false,
        }
    }
}

/// Uniform-random dependent references: pointer chasing over the footprint
/// (mcf-, omnetpp-like). Each reference depends on the previous one.
#[derive(Debug, Clone)]
pub struct PointerChase {
    lines: u64,
}

impl PointerChase {
    /// Creates a chase over `lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn new(lines: u64) -> Self {
        assert!(lines > 0);
        PointerChase { lines }
    }
}

impl Pattern for PointerChase {
    fn next_ref(&mut self, rng: &mut Rng) -> Ref {
        Ref {
            line: rng.gen_range(0..self.lines),
            dependent: true,
        }
    }
}

/// Zipf-skewed block popularity: a few hot 2 KB blocks absorb most
/// references; lines within a block are chosen uniformly. Hot blocks are
/// scattered over the footprint by a seeded permutation, and the
/// permutation is re-drawn every `phase_refs` references to model
/// working-set drift.
#[derive(Debug, Clone)]
pub struct Hotspot {
    blocks: u64,
    cdf: ZipfCdf,
    perm: Vec<u32>,
    phase_refs: u64,
    refs_in_phase: u64,
    dependent: bool,
}

impl Hotspot {
    /// Creates a Zipf(`exponent`) pattern over `lines` lines; `phase_refs`
    /// of 0 disables drift. `dependent` marks every reference as a
    /// pointer-chase step.
    ///
    /// # Panics
    ///
    /// Panics if the footprint holds no whole 2 KB block.
    pub fn new(lines: u64, exponent: f64, phase_refs: u64, dependent: bool, rng: &mut Rng) -> Self {
        let blocks = lines / LINES_PER_BLOCK;
        assert!(blocks > 0, "footprint smaller than one block");
        let mut h = Hotspot {
            blocks,
            cdf: shared_zipf_cdf(blocks, exponent),
            perm: Vec::new(),
            phase_refs,
            refs_in_phase: 0,
            dependent,
        };
        h.reshuffle(rng);
        h
    }

    fn reshuffle(&mut self, rng: &mut Rng) {
        let n = self.blocks as u32;
        let mut perm: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut perm);
        self.perm = perm;
        self.refs_in_phase = 0;
    }
}

/// The most normalized Zipf CDFs the process-wide table keeps. At the
/// scaled presets a CDF is at most ~70 KB (8.8k blocks) and its guide at
/// most half that, so the table holds at most a few MB; at paper scale
/// at most ~105 MB.
const ZIPF_TABLE_ENTRIES: usize = 32;

/// The normalized Zipf(`exponent`) CDF over `blocks` ranks: entry `i` is
/// the probability that a draw lands on rank `i` or below.
fn zipf_cdf(blocks: u64, exponent: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(blocks as usize);
    let mut acc = 0.0;
    for i in 0..blocks {
        acc += 1.0 / ((i + 1) as f64).powf(exponent);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

/// A normalized Zipf CDF and a guide table that inverts it in O(1)
/// expected time, in one shared allocation: the CDF's `len` values, then
/// the guide's `n` ranks, each exact as an `f64`.
///
/// `n` is the largest power of two at most half the CDF's length (1 for
/// a one-block CDF), so the guide holds at most half the CDF's bytes and
/// a draw scans only its bucket's CDF entries, 2 to 4 on average. Guide
/// entry `g` is the first rank whose CDF value is at least `g / n`. A
/// draw `u` in `[0, 1)` falls in bucket `floor(u * n)`, which is exact
/// because `n` is a power of two, so `u` is at least the bucket's lower
/// bound and the rank lies at or after the bucket's entry; a short
/// forward scan finds it.
#[derive(Debug, Clone)]
struct ZipfCdf {
    len: usize,
    table: Arc<[f64]>,
}

impl ZipfCdf {
    fn new(blocks: u64, exponent: f64) -> Self {
        let mut table = zipf_cdf(blocks, exponent);
        let len = table.len();
        let (n, last) = (1usize << len.ilog2().saturating_sub(1), len - 1);
        let mut rank = 0;
        for g in 0..n {
            let lower = g as f64 / n as f64;
            while rank < last && table[rank] < lower {
                rank += 1;
            }
            table.push(rank as f64);
        }
        ZipfCdf {
            len,
            table: table.into(),
        }
    }

    fn cdf(&self) -> &[f64] {
        &self.table[..self.len]
    }

    fn guide(&self) -> &[f64] {
        &self.table[self.len..]
    }

    /// The rank a uniform draw `u` in `[0, 1)` selects: the number of CDF
    /// entries below `u`, at most the last rank. This is the index a
    /// binary search of the CDF for `u` returns.
    fn rank(&self, u: f64) -> usize {
        let (cdf, guide) = (self.cdf(), self.guide());
        let bucket = ((u * guide.len() as f64) as usize).min(guide.len() - 1);
        let mut rank = guide[bucket] as usize;
        while rank < cdf.len() - 1 && cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

/// A bounded table of Zipf CDFs keyed by `(blocks, exponent bits)`,
/// holding at most [`ZIPF_TABLE_ENTRIES`] and evicting the oldest first.
///
/// A CDF is a pure function of its key (no RNG, the same arithmetic in
/// the same order), so a shared one is bit-equal to a fresh one and
/// sharing cannot change any generated stream.
#[derive(Debug)]
struct ZipfTable {
    entries: VecDeque<(ZipfKey, ZipfCdf)>,
}

/// `(blocks, exponent bits)`.
type ZipfKey = (u64, u64);

impl ZipfTable {
    const fn new() -> Self {
        ZipfTable {
            entries: VecDeque::new(),
        }
    }

    fn get_or_build(&mut self, blocks: u64, exponent: f64) -> ZipfCdf {
        let key = (blocks, exponent.to_bits());
        if let Some((_, cdf)) = self.entries.iter().find(|(k, _)| *k == key) {
            return cdf.clone();
        }
        let cdf = ZipfCdf::new(blocks, exponent);
        if self.entries.len() == ZIPF_TABLE_ENTRIES {
            self.entries.pop_front();
        }
        self.entries.push_back((key, cdf.clone()));
        cdf
    }
}

/// One table per process: generators of every cell, thread and program
/// restart share it.
static ZIPF_TABLE: Mutex<ZipfTable> = Mutex::new(ZipfTable::new());

/// The Zipf CDF for `(blocks, exponent)` from the process-wide table,
/// built on first use.
fn shared_zipf_cdf(blocks: u64, exponent: f64) -> ZipfCdf {
    // A panic while holding the lock cannot leave a torn entry: entries
    // are pushed whole, so a poisoned table is still valid.
    ZIPF_TABLE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_or_build(blocks, exponent)
}

impl Pattern for Hotspot {
    fn next_ref(&mut self, rng: &mut Rng) -> Ref {
        if self.phase_refs > 0 && self.refs_in_phase >= self.phase_refs {
            self.reshuffle(rng);
        }
        self.refs_in_phase += 1;
        let rank = self.cdf.rank(rng.next_f64());
        let block = u64::from(self.perm[rank]);
        let line = block * LINES_PER_BLOCK + rng.gen_range(0..LINES_PER_BLOCK);
        Ref {
            line,
            dependent: self.dependent,
        }
    }
}

/// Several concurrent sequential streams over the footprint, served
/// round-robin: models the multiple array walks of SPEC FP codes (bwaves,
/// lbm and GemsFDTD each traverse many arrays per iteration). Each 2 KB
/// block still receives its 32 sequential accesses per sweep, but the
/// interleaving across streams (and thus across banks and rows) breaks
/// row-buffer locality at the memory controller — the regime in which the
/// M1/M2 latency gap, and therefore migration, matters.
#[derive(Debug, Clone)]
pub struct MultiStream {
    lines: u64,
    cursors: Vec<u64>,
    next: usize,
}

impl MultiStream {
    /// Creates `streams` concurrent walks with seeded random offsets.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `streams` is zero.
    pub fn new(lines: u64, streams: usize, rng: &mut Rng) -> Self {
        assert!(lines > 0 && streams > 0);
        let cursors = (0..streams).map(|_| rng.gen_range(0..lines)).collect();
        MultiStream {
            lines,
            cursors,
            next: 0,
        }
    }
}

impl Pattern for MultiStream {
    fn next_ref(&mut self, _rng: &mut Rng) -> Ref {
        let i = self.next;
        self.next = if i + 1 == self.cursors.len() {
            0
        } else {
            i + 1
        };
        let line = self.cursors[i];
        self.cursors[i] = wrap_inc(line, self.lines);
        Ref {
            line,
            dependent: false,
        }
    }
}

/// Probabilistic mix of two patterns: with probability `p_second` the
/// reference comes from the second pattern (soplex-, milc-like mixes of
/// regular and irregular accesses).
pub struct Mix {
    first: Box<dyn Pattern + Send>,
    second: Box<dyn Pattern + Send>,
    p_second: f64,
}

impl std::fmt::Debug for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mix")
            .field("p_second", &self.p_second)
            .finish_non_exhaustive()
    }
}

impl Mix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics unless `p_second` is in [0, 1].
    pub fn new(
        first: Box<dyn Pattern + Send>,
        second: Box<dyn Pattern + Send>,
        p_second: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&p_second));
        Mix {
            first,
            second,
            p_second,
        }
    }
}

impl Pattern for Mix {
    fn next_ref(&mut self, rng: &mut Rng) -> Ref {
        if rng.next_f64() < self.p_second {
            self.second.next_ref(rng)
        } else {
            self.first.next_ref(rng)
        }
    }
}

/// Phase-changing pattern: cycles through a list of sub-patterns,
/// switching to the next one every `phase_refs` references. Models
/// programs whose access character changes between computation phases
/// (scan → irregular → hot loop), the regime in which a migration
/// policy's learned placement goes stale at every phase boundary.
pub struct Phased {
    parts: Vec<Box<dyn Pattern + Send>>,
    phase_refs: u64,
    refs_in_phase: u64,
    current: usize,
}

impl std::fmt::Debug for Phased {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phased")
            .field("parts", &self.parts.len())
            .field("phase_refs", &self.phase_refs)
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

impl Phased {
    /// Creates a phase cycle over `parts`, advancing every `phase_refs`
    /// references.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or `phase_refs` is zero.
    pub fn new(parts: Vec<Box<dyn Pattern + Send>>, phase_refs: u64) -> Self {
        assert!(!parts.is_empty(), "no phase patterns");
        assert!(phase_refs > 0, "phase length must be positive");
        Phased {
            parts,
            phase_refs,
            refs_in_phase: 0,
            current: 0,
        }
    }

    /// Index of the pattern the next reference will come from.
    pub fn current_phase(&self) -> usize {
        self.current
    }
}

impl Pattern for Phased {
    fn next_ref(&mut self, rng: &mut Rng) -> Ref {
        if self.refs_in_phase >= self.phase_refs {
            self.refs_in_phase = 0;
            self.current = (self.current + 1) % self.parts.len();
        }
        self.refs_in_phase += 1;
        self.parts[self.current].next_ref(rng)
    }
}

/// Multi-tenant interleave: each tenant owns a disjoint slice of the
/// footprint (its pattern's lines are shifted by `offset`) and receives
/// a fixed share of the references via smooth weighted round-robin.
/// Within every full round of `sum(weights)` references each tenant is
/// drawn exactly `weight` times — the schedule is deterministic, so
/// per-tenant request counts are an invariant, not an expectation.
pub struct WeightedInterleave {
    parts: Vec<(Box<dyn Pattern + Send>, u32, u64)>,
    credit: Vec<i64>,
}

impl std::fmt::Debug for WeightedInterleave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightedInterleave")
            .field("tenants", &self.parts.len())
            .field(
                "weights",
                &self.parts.iter().map(|&(_, w, _)| w).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl WeightedInterleave {
    /// Creates an interleave of `(pattern, weight, line offset)` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or any weight is zero.
    pub fn new(parts: Vec<(Box<dyn Pattern + Send>, u32, u64)>) -> Self {
        assert!(!parts.is_empty(), "no tenants");
        assert!(parts.iter().all(|&(_, w, _)| w > 0), "zero tenant weight");
        let credit = vec![0i64; parts.len()];
        WeightedInterleave { parts, credit }
    }

    /// Picks the next tenant (smooth weighted round-robin: add each
    /// weight, serve the largest credit, charge it one round).
    fn next_tenant(&mut self) -> usize {
        let total: i64 = self.parts.iter().map(|&(_, w, _)| i64::from(w)).sum();
        let mut best = 0usize;
        for (i, &(_, w, _)) in self.parts.iter().enumerate() {
            self.credit[i] += i64::from(w);
            if self.credit[i] > self.credit[best] {
                best = i;
            }
        }
        self.credit[best] -= total;
        best
    }
}

impl Pattern for WeightedInterleave {
    fn next_ref(&mut self, rng: &mut Rng) -> Ref {
        let i = self.next_tenant();
        let (pattern, _, offset) = &mut self.parts[i];
        let r = pattern.next_ref(rng);
        Ref {
            line: *offset + r.line,
            dependent: r.dependent,
        }
    }
}

/// Adversarial hot-set churn: a small set of 2 KB blocks absorbs
/// `p_hot` of the references, and every `churn_refs` references the set
/// rotates — `keep` blocks stay, the rest are replaced by fresh blocks
/// from a deterministic cursor walk over the footprint. Tuned so a
/// block looks promotion-worthy for exactly long enough to pass a
/// cost-benefit filter (MDM's probabilistic migration test), then goes
/// cold before the promotion can pay for itself: the policy keeps
/// buying swaps whose benefit never arrives.
pub struct ChurnHotSet {
    blocks: u64,
    hot: Vec<u32>,
    keep: usize,
    p_hot: f64,
    churn_refs: u64,
    refs_in_phase: u64,
    cursor: u64,
}

impl std::fmt::Debug for ChurnHotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnHotSet")
            .field("blocks", &self.blocks)
            .field("hot", &self.hot.len())
            .field("keep", &self.keep)
            .field("p_hot", &self.p_hot)
            .field("churn_refs", &self.churn_refs)
            .finish_non_exhaustive()
    }
}

impl ChurnHotSet {
    /// Creates a churn pattern over `lines` lines with `hot_blocks` hot
    /// blocks, of which `keep` survive each rotation (the overlap bound:
    /// consecutive hot sets share exactly `keep` blocks).
    ///
    /// # Panics
    ///
    /// Panics if the footprint holds fewer than `2 * hot_blocks` whole
    /// 2 KB blocks, if `keep >= hot_blocks`, if `hot_blocks` is zero, if
    /// `churn_refs` is zero, or if `p_hot` is outside [0, 1].
    pub fn new(
        lines: u64,
        hot_blocks: usize,
        keep: usize,
        p_hot: f64,
        churn_refs: u64,
        rng: &mut Rng,
    ) -> Self {
        let blocks = lines / LINES_PER_BLOCK;
        assert!(hot_blocks > 0, "empty hot set");
        assert!(
            blocks >= 2 * hot_blocks as u64,
            "footprint too small to churn the hot set"
        );
        assert!(keep < hot_blocks, "keep must leave room for fresh blocks");
        assert!((0.0..=1.0).contains(&p_hot), "p_hot outside [0, 1]");
        assert!(churn_refs > 0, "churn period must be positive");
        let start = rng.gen_range(0..blocks);
        let hot: Vec<u32> = (0..hot_blocks as u64)
            .map(|i| ((start + i) % blocks) as u32)
            .collect();
        let cursor = (start + hot_blocks as u64) % blocks;
        ChurnHotSet {
            blocks,
            hot,
            keep,
            p_hot,
            churn_refs,
            refs_in_phase: 0,
            cursor,
        }
    }

    /// The current hot set (block indices).
    pub fn hot_set(&self) -> &[u32] {
        &self.hot
    }

    /// Rotates the hot set: the first `keep` blocks survive, the rest
    /// are replaced by the next fresh blocks of the cursor walk (which
    /// skips blocks that are being kept).
    fn rotate(&mut self) {
        let kept: Vec<u32> = self.hot[..self.keep].to_vec();
        let mut fresh = Vec::with_capacity(self.hot.len() - self.keep);
        while fresh.len() < self.hot.len() - self.keep {
            let b = self.cursor as u32;
            self.cursor = (self.cursor + 1) % self.blocks;
            if !kept.contains(&b) && !fresh.contains(&b) {
                fresh.push(b);
            }
        }
        self.hot.truncate(self.keep);
        self.hot.extend(fresh);
        self.refs_in_phase = 0;
    }
}

impl Pattern for ChurnHotSet {
    fn next_ref(&mut self, rng: &mut Rng) -> Ref {
        if self.refs_in_phase >= self.churn_refs {
            self.rotate();
        }
        self.refs_in_phase += 1;
        let line = if rng.next_f64() < self.p_hot {
            let block = u64::from(self.hot[rng.gen_range(0..self.hot.len() as u64) as usize]);
            block * LINES_PER_BLOCK + rng.gen_range(0..LINES_PER_BLOCK)
        } else {
            rng.gen_range(0..self.blocks * LINES_PER_BLOCK)
        };
        Ref {
            line,
            dependent: false,
        }
    }
}

/// Convenience constructor for a seeded [`Rng`].
pub fn seeded_rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn streaming_covers_footprint_in_order() {
        let mut rng = seeded_rng(1);
        let mut s = Streaming::new(64);
        let lines: Vec<u64> = (0..64).map(|_| s.next_ref(&mut rng).line).collect();
        assert_eq!(lines, (0..64).collect::<Vec<_>>());
        // Wraps around.
        assert_eq!(s.next_ref(&mut rng).line, 0);
    }

    #[test]
    fn strided_covers_every_line_eventually() {
        let mut rng = seeded_rng(1);
        let mut s = Strided::new(128, 4);
        let mut seen = [false; 128];
        // One pass = lines/stride = 32 references, visiting every 4th line.
        for _ in 0..32 {
            seen[s.next_ref(&mut rng).line as usize] = true;
        }
        assert_eq!(seen.iter().filter(|&&b| b).count(), 32);
        // `stride` passes (phase offsets 0..stride) cover everything.
        for _ in 0..(32 * 3) {
            seen[s.next_ref(&mut rng).line as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn pointer_chase_is_dependent_and_in_range() {
        let mut rng = seeded_rng(2);
        let mut p = PointerChase::new(1000);
        for _ in 0..100 {
            let r = p.next_ref(&mut rng);
            assert!(r.dependent);
            assert!(r.line < 1000);
        }
    }

    #[test]
    fn hotspot_is_skewed() {
        let mut rng = seeded_rng(3);
        let mut h = Hotspot::new(32 * 256, 0.9, 0, false, &mut rng);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..20_000 {
            let r = h.next_ref(&mut rng);
            assert!(r.line < 32 * 256);
            *counts.entry(r.line / LINES_PER_BLOCK).or_default() += 1;
        }
        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = sorted.iter().take(10).sum();
        // Zipf(0.9) over 256 blocks: top-10 blocks take a large share.
        assert!(
            top10 as f64 > 0.2 * 20_000.0,
            "top-10 share too small: {top10}"
        );
    }

    /// Every Zipf exponent `SpecProgram::pattern` and the surface load
    /// generator pass to `Hotspot::new`.
    const PATTERN_EXPONENTS: [f64; 8] = [0.60, 0.70, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20];

    #[test]
    fn shared_zipf_cdfs_are_bit_equal_to_fresh_ones() {
        use crate::spec::SpecProgram;
        // A local table: 112 keys through the process-wide one would
        // evict the entries other tests in this binary are sharing.
        let mut table = ZipfTable::new();
        let programs = SpecProgram::ALL.iter().chain(&SpecProgram::SYNTHETIC);
        for p in programs {
            let blocks = p.footprint_lines(32) / LINES_PER_BLOCK;
            for &e in &PATTERN_EXPONENTS {
                let fresh = zipf_cdf(blocks, e);
                // Twice: the first call builds the entry, the second
                // reads it back.
                for _ in 0..2 {
                    let shared = table.get_or_build(blocks, e);
                    assert_eq!(shared.cdf().len(), fresh.len());
                    assert!(
                        shared
                            .cdf()
                            .iter()
                            .zip(&fresh)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{}: Zipf({e}) over {blocks} blocks differs",
                        p.name()
                    );
                }
            }
        }
    }

    /// The rank a binary search of the CDF finds for `u`: the inverse the
    /// guide table replaces.
    fn searched_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn guided_ranks_equal_binary_searched_ones() {
        use crate::spec::SpecProgram;
        let mut rng = seeded_rng(8);
        let below_one = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(below_one.to_bits() + 1, 1.0f64.to_bits());
        let programs = SpecProgram::ALL.iter().chain(&SpecProgram::SYNTHETIC);
        for p in programs {
            let blocks = p.footprint_lines(32) / LINES_PER_BLOCK;
            for &e in &PATTERN_EXPONENTS {
                let zipf = ZipfCdf::new(blocks, e);
                assert!(zipf.guide().len() <= (zipf.cdf().len() / 2).max(1));
                // Every CDF entry and its neighbours on each side, the
                // ends of [0, 1), and uniform draws.
                let entries = zipf.cdf().iter().flat_map(|c| {
                    let b = c.to_bits();
                    [f64::from_bits(b - 1), *c, f64::from_bits(b + 1)]
                });
                let draws: Vec<f64> = (0..1000).map(|_| rng.next_f64()).collect();
                let us = entries
                    .chain([0.0, below_one])
                    .chain(draws)
                    .filter(|u| (0.0..1.0).contains(u));
                for u in us {
                    assert_eq!(
                        zipf.rank(u),
                        searched_rank(zipf.cdf(), u),
                        "{}: Zipf({e}) over {blocks} blocks at u = {u:e}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn hotspots_share_one_cdf() {
        let mut rng = seeded_rng(6);
        let a = Hotspot::new(32 * 300, 1.05, 0, false, &mut rng);
        let b = Hotspot::new(32 * 300, 1.05, 0, true, &mut rng);
        let c = Hotspot::new(32 * 300, 1.10, 0, false, &mut rng);
        assert!(Arc::ptr_eq(&a.cdf.table, &b.cdf.table));
        assert!(!Arc::ptr_eq(&a.cdf.table, &c.cdf.table));
    }

    #[test]
    fn zipf_table_stays_within_its_bound() {
        let mut table = ZipfTable::new();
        let keys = 3 * ZIPF_TABLE_ENTRIES as u64;
        for blocks in 1..=keys {
            let cdf = table.get_or_build(blocks, 0.9);
            assert_eq!(cdf.cdf().len() as u64, blocks);
            assert!(table.entries.len() <= ZIPF_TABLE_ENTRIES);
        }
        assert_eq!(table.entries.len(), ZIPF_TABLE_ENTRIES);
        // The oldest keys went first: the newest `ZIPF_TABLE_ENTRIES`
        // remain, in insertion order.
        let kept: Vec<u64> = table.entries.iter().map(|((b, _), _)| *b).collect();
        let newest: Vec<u64> = (keys - ZIPF_TABLE_ENTRIES as u64 + 1..=keys).collect();
        assert_eq!(kept, newest);
        // A hit neither grows the table nor rebuilds the entry.
        let hit = table.get_or_build(keys, 0.9);
        assert_eq!(table.entries.len(), ZIPF_TABLE_ENTRIES);
        assert!(Arc::ptr_eq(
            &hit.table,
            &table.entries[ZIPF_TABLE_ENTRIES - 1].1.table
        ));
    }

    #[test]
    fn hotspot_phases_drift() {
        let mut rng = seeded_rng(4);
        let mut h = Hotspot::new(32 * 128, 1.0, 1000, false, &mut rng);
        let hot_block = |h: &mut Hotspot, rng: &mut Rng| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for _ in 0..900 {
                *counts
                    .entry(h.next_ref(rng).line / LINES_PER_BLOCK)
                    .or_default() += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(_, c)| c)
                .expect("counts")
                .0
        };
        let first = hot_block(&mut h, &mut rng);
        // Force several phase changes; the hottest block should move at
        // least once.
        let mut moved = false;
        for _ in 0..5 {
            for _ in 0..200 {
                h.next_ref(&mut rng);
            }
            if hot_block(&mut h, &mut rng) != first {
                moved = true;
            }
        }
        assert!(moved, "working set never drifted");
    }

    #[test]
    fn mix_draws_from_both() {
        let mut rng = seeded_rng(5);
        let mut m = Mix::new(
            Box::new(Streaming::new(32)),
            Box::new(PointerChase::new(1_000_000)),
            0.5,
        );
        let mut dependent = 0;
        let mut small = 0;
        for _ in 0..1000 {
            let r = m.next_ref(&mut rng);
            if r.dependent {
                dependent += 1;
            }
            if r.line < 32 {
                small += 1;
            }
        }
        assert!(dependent > 300 && dependent < 700);
        assert!(small >= 1000 - dependent);
    }

    #[test]
    #[should_panic(expected = "empty footprint")]
    fn streaming_rejects_empty() {
        Streaming::new(0);
    }

    #[test]
    fn phased_cycles_through_parts() {
        let mut rng = seeded_rng(6);
        // Two easily distinguishable phases: streaming over the first 32
        // lines vs. a constant-range chase over the top half.
        let mut p = Phased::new(
            vec![
                Box::new(Streaming::new(32)),
                Box::new(PointerChase::new(1 << 20)),
            ],
            100,
        );
        for i in 0..400 {
            let r = p.next_ref(&mut rng);
            let phase = (i / 100) % 2;
            assert_eq!(p.current_phase(), phase);
            if phase == 0 {
                assert!(r.line < 32, "streaming phase leaked line {}", r.line);
                assert!(!r.dependent);
            } else {
                assert!(r.dependent, "chase phase should be dependent");
            }
        }
    }

    #[test]
    fn weighted_interleave_counts_are_exact() {
        let mut rng = seeded_rng(7);
        // Tenants own disjoint offsets, so refs attribute exactly.
        let mut w = WeightedInterleave::new(vec![
            (Box::new(Streaming::new(100)), 3, 0),
            (Box::new(Streaming::new(100)), 2, 1000),
            (Box::new(Streaming::new(100)), 1, 2000),
        ]);
        let mut counts = [0u64; 3];
        for _ in 0..600 {
            let r = w.next_ref(&mut rng);
            counts[(r.line / 1000) as usize] += 1;
        }
        // 100 full rounds of weight-sum 6: exactly 3:2:1.
        assert_eq!(counts, [300, 200, 100]);
    }

    #[test]
    fn churn_rotates_with_exact_overlap() {
        let mut rng = seeded_rng(8);
        let mut c = ChurnHotSet::new(32 * 256, 8, 2, 0.9, 500, &mut rng);
        let before: Vec<u32> = c.hot_set().to_vec();
        for _ in 0..501 {
            c.next_ref(&mut rng);
        }
        let after: Vec<u32> = c.hot_set().to_vec();
        let overlap = after.iter().filter(|b| before.contains(b)).count();
        assert_eq!(overlap, 2, "exactly `keep` blocks survive a rotation");
        assert_eq!(after.len(), 8);
    }

    #[test]
    fn churn_references_favor_hot_set() {
        let mut rng = seeded_rng(9);
        // No rotation within the window (churn_refs > samples).
        let mut c = ChurnHotSet::new(32 * 512, 8, 2, 0.9, 1 << 30, &mut rng);
        let hot: Vec<u32> = c.hot_set().to_vec();
        let mut in_hot = 0;
        for _ in 0..5000 {
            let r = c.next_ref(&mut rng);
            assert!(r.line < 32 * 512);
            if hot.contains(&((r.line / LINES_PER_BLOCK) as u32)) {
                in_hot += 1;
            }
        }
        // p_hot = 0.9 plus the uniform tail's occasional hot hits.
        assert!(in_hot > 4300, "hot share too small: {in_hot}/5000");
    }
}
