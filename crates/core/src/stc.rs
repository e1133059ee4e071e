//! The Swap-group Table Cache (STC).
//!
//! An 8-way set-associative on-chip cache of ST entries (paper Figure 1 and
//! Figure 4). Each cached entry carries, per swap-group location, a 6-bit
//! saturating Access Counter (AC) and a copy of the location's QAC value at
//! insertion (`q_i`) — the state MDM needs for its statistics. The paper
//! stresses that this accurate state is kept *only* for STC-resident
//! entries, which is exactly what this structure does.

use profess_metrics::{State, StateCodec};
use profess_types::ids::SlotIdx;
use profess_types::GroupId;

/// Per-entry cached state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedEntry {
    /// The group this entry translates.
    pub group: GroupId,
    /// Saturating access counters, indexed by *original* slot (block
    /// identity — counters follow blocks across swaps within the group).
    pub ac: [u32; SlotIdx::MAX],
    /// QAC value of each block at the time this entry was inserted.
    pub q_i: [u8; SlotIdx::MAX],
    /// Set when the underlying ST entry changed (swap or QAC update) and
    /// must be written back to M1 on eviction.
    pub dirty: bool,
    stamp: u64,
}

/// An unoccupied way slot.
impl Default for CachedEntry {
    fn default() -> Self {
        CachedEntry::new(GroupId(EMPTY_KEY), [0; SlotIdx::MAX])
    }
}

impl CachedEntry {
    fn new(group: GroupId, q_i: [u8; SlotIdx::MAX]) -> Self {
        CachedEntry {
            group,
            ac: [0; SlotIdx::MAX],
            q_i,
            dirty: false,
            stamp: 0,
        }
    }

    /// Increments a block's access counter by `weight`, saturating at
    /// `ac_max`.
    pub fn bump(&mut self, orig: SlotIdx, weight: u32, ac_max: u32) {
        let c = &mut self.ac[orig.index()];
        *c = (*c + weight).min(ac_max);
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StcStats {
    /// Lookups.
    pub lookups: u64,
    /// Hits.
    pub hits: u64,
    /// Evictions of valid entries.
    pub evictions: u64,
    /// Evictions that required an ST writeback.
    pub dirty_evictions: u64,
}

impl StcStats {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// The STC for one channel.
///
/// Storage is struct-of-arrays: a flat `keys` vector (one `u64` per way
/// slot) is scanned on lookup, and the wide `CachedEntry` payloads live
/// in a parallel vector that is only touched on a hit. A 16-set × 8-way
/// cache has a 1 KiB key array, so the scan stays within a cache line
/// per set instead of striding over ~100-byte entries.
///
/// Each set occupies the fixed slice `[set * ways, (set + 1) * ways)` of
/// both vectors; the first `lens[set]` slots are live. An insert fills
/// the next free way, or, in a full set, the LRU victim's way: a live
/// entry never changes way, so a way slot stays a valid hint for as long
/// as its entry is cached.
#[derive(Debug)]
pub struct Stc {
    /// Group key of each way slot (`EMPTY_KEY` when unoccupied).
    keys: Vec<u64>,
    /// Entry payloads, parallel to `keys`.
    entries: Vec<CachedEntry>,
    /// Live entries per set (a prefix of the set's slice).
    lens: Vec<u32>,
    ways: usize,
    set_mask: u64,
    tick: u64,
    stats: StcStats,
}

/// Key marking an unoccupied way slot (no valid group id gets close).
const EMPTY_KEY: u64 = u64::MAX;

/// A way-slot hint that names no slot: [`Stc::peek_at`] searches the set.
pub const NO_SLOT: u32 = u32::MAX;

impl Stc {
    /// Creates an STC with `entries` total entries and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a positive power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways));
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two(),
            "STC set count must be a power of two"
        );
        Stc {
            keys: vec![EMPTY_KEY; entries],
            entries: (0..entries)
                .map(|_| CachedEntry::new(GroupId(EMPTY_KEY), [0; SlotIdx::MAX]))
                .collect(),
            lens: vec![0; sets],
            ways,
            set_mask: (sets - 1) as u64,
            tick: 0,
            stats: StcStats::default(),
        }
    }

    #[inline]
    fn set_of(&self, group: GroupId) -> usize {
        // Groups interleave across channels; use the channel-local bits.
        ((group.0 >> 1) & self.set_mask) as usize
    }

    /// Index of `group`'s slot within the full slot array, if cached.
    #[inline]
    fn slot_of(&self, group: GroupId) -> Option<usize> {
        let set = self.set_of(group);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        self.keys[base..base + len]
            .iter()
            .position(|&k| k == group.0)
            .map(|j| base + j)
    }

    /// Looks up a group's entry; counts a hit or miss.
    #[inline]
    pub fn lookup(&mut self, group: GroupId) -> Option<&mut CachedEntry> {
        let i = self.lookup_slot(group)?;
        Some(&mut self.entries[i as usize])
    }

    /// [`lookup`](Self::lookup), returning the way slot the group's entry
    /// occupies, a hint for [`peek_at`](Self::peek_at).
    #[inline]
    pub fn lookup_slot(&mut self, group: GroupId) -> Option<u32> {
        self.tick += 1;
        self.stats.lookups += 1;
        let i = self.slot_of(group)?;
        self.entries[i].stamp = self.tick;
        self.stats.hits += 1;
        Some(i as u32)
    }

    /// Accesses an entry without counting statistics (used by the swap and
    /// bookkeeping paths, which in hardware ride on the original lookup).
    #[inline]
    pub fn peek(&mut self, group: GroupId) -> Option<&mut CachedEntry> {
        self.slot_of(group).map(|i| &mut self.entries[i])
    }

    /// [`peek`](Self::peek) through `slot`, a way slot that an earlier
    /// [`lookup_slot`](Self::lookup_slot) or
    /// [`insert_slot`](Self::insert_slot) returned for `group` (or
    /// [`NO_SLOT`]). A group occupies at most one way, so a slot holding
    /// its key is its entry; only when the group has left the slot since,
    /// or the hint is out of range, is the set searched.
    #[inline]
    pub fn peek_at(&mut self, group: GroupId, slot: u32) -> Option<&mut CachedEntry> {
        let i = slot as usize;
        if self.keys.get(i) == Some(&group.0) {
            return Some(&mut self.entries[i]);
        }
        crate::work::count_stc_search();
        self.peek(group)
    }

    /// Inserts an entry for `group` with insertion-time QAC values,
    /// evicting the LRU entry of the set if needed. Returns the victim.
    ///
    /// # Panics
    ///
    /// Panics if the group is already cached.
    pub fn insert(&mut self, group: GroupId, q_i: [u8; SlotIdx::MAX]) -> Option<CachedEntry> {
        self.insert_slot(group, q_i).0
    }

    /// [`insert`](Self::insert), also returning the way slot the new
    /// entry fills, a hint for [`peek_at`](Self::peek_at).
    ///
    /// # Panics
    ///
    /// Panics if the group is already cached.
    pub fn insert_slot(
        &mut self,
        group: GroupId,
        q_i: [u8; SlotIdx::MAX],
    ) -> (Option<CachedEntry>, u32) {
        self.tick += 1;
        let set = self.set_of(group);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        assert!(
            !self.keys[base..base + len].contains(&group.0),
            "group {group} already cached"
        );
        let mut e = CachedEntry::new(group, q_i);
        e.stamp = self.tick;
        if len < self.ways {
            self.keys[base + len] = group.0;
            self.entries[base + len] = e;
            self.lens[set] += 1;
            return (None, (base + len) as u32);
        }
        // LRU: lowest stamp. Stamps are unique ticks, so the victim does
        // not depend on storage order; the new entry takes its way and
        // no other entry moves.
        let mut vi = base;
        for i in base + 1..base + len {
            if self.entries[i].stamp < self.entries[vi].stamp {
                vi = i;
            }
        }
        self.keys[vi] = group.0;
        let v = std::mem::replace(&mut self.entries[vi], e);
        self.stats.evictions += 1;
        if v.dirty {
            self.stats.dirty_evictions += 1;
        }
        (Some(v), vi as u32)
    }

    /// Iterates over all currently cached entries (set order, way order
    /// within each set).
    pub fn iter(&self) -> impl Iterator<Item = &CachedEntry> {
        self.lens.iter().enumerate().flat_map(move |(set, &len)| {
            let base = set * self.ways;
            self.entries[base..base + len as usize].iter()
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> &StcStats {
        &self.stats
    }
}

/// Every set's entries in way order (a restored entry keeps its way), the
/// LRU tick, and the statistics. Loading requires the same set count, and
/// no set may hold more entries than the cache has ways.
impl State for Stc {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let mut sets: Vec<Vec<CachedEntry>> = self
            .lens
            .iter()
            .enumerate()
            .map(|(set, &len)| {
                let base = set * self.ways;
                self.entries[base..base + len as usize].to_vec()
            })
            .collect();
        c.field("sets", sets.as_mut_slice())?;
        if c.is_load() {
            self.keys.fill(EMPTY_KEY);
            self.entries.fill(CachedEntry::default());
            for (set, entries) in sets.into_iter().enumerate() {
                if entries.len() > self.ways {
                    return Err(format!(
                        "sets: [{set}]: {} entries overflow {} ways",
                        entries.len(),
                        self.ways
                    ));
                }
                self.lens[set] = entries.len() as u32;
                let base = set * self.ways;
                for (slot, e) in entries.into_iter().enumerate() {
                    self.keys[base + slot] = e.group.0;
                    self.entries[base + slot] = e;
                }
            }
        }
        c.field("tick", &mut self.tick)?;
        c.field("stats", &mut self.stats)
    }
}

impl State for CachedEntry {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("group", &mut self.group)?;
        c.field("ac", &mut self.ac)?;
        c.field("q_i", &mut self.q_i)?;
        c.field("dirty", &mut self.dirty)?;
        c.field("stamp", &mut self.stamp)
    }
}

impl State for StcStats {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("lookups", &mut self.lookups)?;
        c.field("hits", &mut self.hits)?;
        c.field("evictions", &mut self.evictions)?;
        c.field("dirty_evictions", &mut self.dirty_evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_insert_hit() {
        let mut stc = Stc::new(16, 8);
        let g = GroupId(4);
        assert!(stc.lookup(g).is_none());
        stc.insert(g, [0; SlotIdx::MAX]);
        assert!(stc.lookup(g).is_some());
        assert_eq!(stc.stats().lookups, 2);
        assert_eq!(stc.stats().hits, 1);
        assert!((stc.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counters_bump_and_saturate() {
        let mut stc = Stc::new(8, 8);
        stc.insert(GroupId(0), [0; SlotIdx::MAX]);
        let e = stc.peek(GroupId(0)).expect("cached");
        e.bump(SlotIdx(2), 8, 63);
        e.bump(SlotIdx(2), 60, 63);
        assert_eq!(e.ac[2], 63);
        assert_eq!(e.ac[0], 0);
    }

    #[test]
    fn lru_eviction_returns_victim() {
        let mut stc = Stc::new(2, 2); // one set of two ways
        stc.insert(GroupId(0), [0; SlotIdx::MAX]);
        stc.insert(GroupId(2), [1; SlotIdx::MAX]);
        stc.lookup(GroupId(0)); // make 2 the LRU
        let v = stc.insert(GroupId(4), [0; SlotIdx::MAX]).expect("eviction");
        assert_eq!(v.group, GroupId(2));
        assert_eq!(v.q_i, [1; SlotIdx::MAX]);
        assert_eq!(stc.stats().evictions, 1);
        assert_eq!(stc.stats().dirty_evictions, 0);
    }

    #[test]
    fn dirty_eviction_counted() {
        let mut stc = Stc::new(2, 2);
        stc.insert(GroupId(0), [0; SlotIdx::MAX]);
        stc.peek(GroupId(0)).expect("cached").dirty = true;
        stc.insert(GroupId(2), [0; SlotIdx::MAX]);
        let v = stc.insert(GroupId(4), [0; SlotIdx::MAX]).expect("eviction");
        assert!(v.dirty);
        assert_eq!(v.group, GroupId(0));
        assert_eq!(stc.stats().dirty_evictions, 1);
    }

    #[test]
    fn consecutive_groups_map_to_same_set_pairwise() {
        // Groups 2g and 2g+1 (an OS page) share a set index stream the
        // same way regions pair them.
        let stc = Stc::new(64, 8);
        assert_eq!(stc.set_of(GroupId(6)), stc.set_of(GroupId(7)));
        assert_ne!(stc.set_of(GroupId(6)), stc.set_of(GroupId(8)));
    }

    #[test]
    fn snapshot_round_trip_preserves_lru_behaviour() {
        // Set index is (group >> 1) & mask: groups 0, 4, and 8 all land
        // in set 0 of a two-set cache.
        let mut stc = Stc::new(4, 2);
        stc.insert(GroupId(0), [0; SlotIdx::MAX]);
        stc.insert(GroupId(4), [1; SlotIdx::MAX]);
        stc.lookup(GroupId(0));
        stc.peek(GroupId(0)).expect("cached").dirty = true;
        stc.peek(GroupId(0))
            .expect("cached")
            .bump(SlotIdx(1), 5, 63);
        let j = StateCodec::save(&mut stc).expect("saves");
        let mut back = Stc::new(4, 2);
        StateCodec::load(&mut back, &j).expect("restores");
        assert_eq!(
            StateCodec::save(&mut back).expect("saves").to_string(),
            j.to_string()
        );
        // The restored cache evicts the same LRU victim as the original.
        let v1 = stc.insert(GroupId(8), [0; SlotIdx::MAX]).map(|v| v.group);
        let v2 = back.insert(GroupId(8), [0; SlotIdx::MAX]).map(|v| v.group);
        assert_eq!(v1, v2);
        assert_eq!(v1, Some(GroupId(4)));
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let mut small = Stc::new(4, 2);
        let other = StateCodec::save(&mut Stc::new(8, 2)).expect("saves");
        assert!(
            StateCodec::load(&mut small, &other).is_err(),
            "set count mismatch"
        );
        // A set holding more entries than the cache has ways: donor has
        // the same two sets but four ways, with three entries in set 0.
        let mut donor = Stc::new(8, 4);
        donor.insert(GroupId(0), [0; SlotIdx::MAX]);
        donor.insert(GroupId(4), [0; SlotIdx::MAX]);
        donor.insert(GroupId(8), [0; SlotIdx::MAX]);
        let donor = StateCodec::save(&mut donor).expect("saves");
        assert!(StateCodec::load(&mut small, &donor).is_err());
    }

    /// A live entry never changes way: the slot its insert returned still
    /// names it after an eviction in its set.
    #[test]
    fn an_entry_keeps_its_way_across_evictions_in_its_set() {
        let mut stc = Stc::new(2, 2); // one set of two ways
        stc.insert(GroupId(0), [0; SlotIdx::MAX]);
        let (_, slot) = stc.insert_slot(GroupId(2), [0; SlotIdx::MAX]);
        let (victim, _) = stc.insert_slot(GroupId(4), [0; SlotIdx::MAX]);
        assert_eq!(victim.map(|v| v.group), Some(GroupId(0)));
        assert_eq!(stc.keys[slot as usize], 2);
    }

    /// A hinted peek finds what `peek` finds, through hints that a
    /// lookup or insert returned, that went stale as groups were
    /// evicted, or that name no slot or one out of range.
    #[test]
    fn hinted_peek_matches_peek() {
        use profess_check::strategy::{tuple3, u32_range, u64_range, u8_range, vec_of};
        use profess_check::{check, prop_assert_eq};
        // Four sets of four ways over 24 groups: most inserts evict.
        const SLOTS: u32 = 16;
        check(
            "hinted_peek_matches_peek",
            vec_of(
                tuple3(u8_range(0..4), u64_range(0..24), u32_range(0..SLOTS + 4)),
                1..300,
            ),
            |ops| {
                let mut stc = Stc::new(SLOTS as usize, 4);
                let mut hints = [NO_SLOT; 24];
                for &(op, g, raw) in ops {
                    let group = GroupId(g);
                    match op {
                        0 => {
                            if let Some(slot) = stc.lookup_slot(group) {
                                hints[g as usize] = slot;
                            }
                        }
                        1 if stc.peek(group).is_none() => {
                            hints[g as usize] = stc.insert_slot(group, [0; SlotIdx::MAX]).1;
                        }
                        _ => {
                            let hint = match op {
                                3 if raw >= SLOTS + 2 => NO_SLOT,
                                3 => raw,
                                _ => hints[g as usize],
                            };
                            let at = stc.peek_at(group, hint).map(std::ptr::from_mut);
                            let searched = stc.peek(group).map(std::ptr::from_mut);
                            prop_assert_eq!(at, searched);
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut stc = Stc::new(8, 8);
        stc.insert(GroupId(1), [0; SlotIdx::MAX]);
        stc.insert(GroupId(1), [0; SlotIdx::MAX]);
    }
}
