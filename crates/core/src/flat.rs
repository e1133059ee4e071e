//! Flat (direct-indexed) replacements for the simulator's hot-path hash
//! maps.
//!
//! The run loop touches several maps on every served request: the
//! per-program page table (virtual page → frame), the in-flight token
//! metadata (token → origin), the pending-ST waiter lists (group →
//! queued requests), and the policies' per-group counter tables. All of
//! these key spaces are dense — virtual pages are bounded by the
//! synthetic programs' footprints, tokens are issued sequentially and
//! live only while a request is in flight, and groups/slots come from
//! the configured [`Geometry`](profess_types::geometry::Geometry) — so
//! every lookup can be plain vector indexing instead of tree or hash
//! traversal.
//!
//! [`TokenRing`] deliberately never reuses a token id: the run loop
//! breaks completion ties by `(done, id)`, so ids must stay monotonically
//! increasing for the flattened simulator to replay the hash-map
//! simulator byte for byte.
//!
//! [`EpochTable`], [`FlatCounters`] and [`SlabQueues`] replaced the
//! `BTreeMap`s that previously backed PoM's epoch counts, SiLC-FM's
//! aging counters and the system's pending-ST waiters. Their iteration
//! orders are ascending dense index, which equals the ascending key
//! order of the maps they replaced — snapshot payloads are byte-for-byte
//! identical across the change.

use std::collections::VecDeque;

use profess_metrics::{State, StateCodec};

/// Sentinel index for "no node / no entry" in the slab structures below.
const NONE32: u32 = u32::MAX;

/// Hard cap on dense indices accepted from untrusted (snapshot) input.
/// Real geometries stay far below this; the cap only bounds allocation
/// on hostile payloads.
const MAX_DENSE_INDEX: u64 = 1 << 32;

/// Frame value that marks an unmapped page.
const UNMAPPED: u64 = u64::MAX;

/// A direct-indexed page table: virtual page number → physical frame.
///
/// Backed by a vector indexed by the virtual page number, growing on
/// demand; `u64::MAX` is reserved as the "unmapped" sentinel (physical
/// frames are far below it — they index real simulated memory).
#[derive(Debug, Clone, Default)]
pub struct FlatPageTable {
    frames: Vec<u64>,
    mapped: usize,
}

impl FlatPageTable {
    /// An empty table.
    pub fn new() -> Self {
        FlatPageTable::default()
    }

    /// An empty table with room for `pages` mappings before regrowth.
    pub fn with_capacity(pages: usize) -> Self {
        FlatPageTable {
            frames: Vec::with_capacity(pages),
            mapped: 0,
        }
    }

    /// The frame mapped at `vpage`, if any.
    #[inline]
    pub fn get(&self, vpage: u64) -> Option<u64> {
        match self.frames.get(vpage as usize) {
            Some(&f) if f != UNMAPPED => Some(f),
            _ => None,
        }
    }

    /// Maps `vpage` to `frame`, returning the previous mapping.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is `u64::MAX` (reserved as the unmapped
    /// sentinel).
    pub fn insert(&mut self, vpage: u64, frame: u64) -> Option<u64> {
        assert_ne!(frame, UNMAPPED, "frame value reserved for unmapped pages");
        let i = vpage as usize;
        if i >= self.frames.len() {
            self.frames.resize(i + 1, UNMAPPED);
        }
        let old = std::mem::replace(&mut self.frames[i], frame);
        if old == UNMAPPED {
            self.mapped += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Unmaps `vpage`, returning the frame it was mapped to.
    pub fn remove(&mut self, vpage: u64) -> Option<u64> {
        match self.frames.get_mut(vpage as usize) {
            Some(f) if *f != UNMAPPED => {
                self.mapped -= 1;
                Some(std::mem::replace(f, UNMAPPED))
            }
            _ => None,
        }
    }

    /// The mapped frames, in virtual page order.
    pub fn frames(&self) -> impl Iterator<Item = u64> + '_ {
        self.frames.iter().copied().filter(|&f| f != UNMAPPED)
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.mapped
    }

    /// Whether no page is mapped.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }
}

/// A map from monotonically issued token ids to values, backed by a ring
/// over the live id window.
///
/// [`TokenRing::insert`] assigns the next id; tokens are removed roughly
/// in issue order (requests complete within a bounded window), so the
/// live ids span a narrow window `[base, next)` and the ring stays small.
/// Ids are never reused (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TokenRing<T> {
    /// Value slots for ids `base..base + slots.len()`.
    slots: VecDeque<Option<T>>,
    /// Id of `slots[0]`.
    base: u64,
    /// Next id to issue.
    next: u64,
    live: usize,
}

impl<T> TokenRing<T> {
    /// An empty ring; the first token issued is 0.
    pub fn new() -> Self {
        TokenRing {
            slots: VecDeque::new(),
            base: 0,
            next: 0,
            live: 0,
        }
    }

    /// Stores `value` under a fresh token id and returns the id.
    #[inline]
    pub fn insert(&mut self, value: T) -> u64 {
        let id = self.next;
        self.next += 1;
        debug_assert_eq!(self.base + self.slots.len() as u64, id);
        self.slots.push_back(Some(value));
        self.live += 1;
        id
    }

    /// The value stored under `id`, if still present.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        let i = id.checked_sub(self.base)?;
        self.slots.get(i as usize)?.as_ref()
    }

    /// Removes and returns the value stored under `id`.
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = id.checked_sub(self.base)? as usize;
        let v = self.slots.get_mut(i)?.take();
        if v.is_some() {
            self.live -= 1;
            // Trim the dead prefix so the window tracks the oldest live
            // token instead of growing for the whole run.
            while let Some(None) = self.slots.front() {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        v
    }

    /// Number of live tokens.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no token is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The id the next [`TokenRing::insert`] will return.
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// The live values, in token order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter().flatten()
    }

    /// Current ring window width (live span, for tests/diagnostics).
    pub fn window(&self) -> usize {
        self.slots.len()
    }
}

/// An epoch-stamped dense counter table: `(major, minor)` key →
/// saturating-grown vector slot, with O(1) whole-table clearing.
///
/// Replaces a `BTreeMap<(u64, u8), u64>` keyed by (group, slot). The
/// dense index is `major * stride + minor`; iteration walks indices in
/// ascending order, which for `minor < stride` equals the lexicographic
/// `(major, minor)` order of the map it replaced. Clearing bumps the
/// epoch stamp instead of touching every slot, so per-epoch resets cost
/// O(1) regardless of how many counters were touched.
///
/// An entry is *present* when its stamp matches the current epoch —
/// independent of its value, so a present zero-count entry (expressible
/// in snapshots) round-trips exactly like it did through the `BTreeMap`.
#[derive(Debug, Clone)]
pub struct EpochTable {
    stride: u64,
    counts: Vec<u64>,
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochTable {
    /// An empty table whose dense index is `major * stride + minor`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(stride: u64) -> Self {
        assert!(stride > 0, "EpochTable stride must be positive");
        EpochTable {
            stride,
            counts: Vec::new(),
            stamps: Vec::new(),
            epoch: 1,
        }
    }

    /// The dense index of `(major, minor)`, or `None` when it exceeds the
    /// hostile-input allocation cap or `minor` breaks the index order.
    fn try_index(&self, major: u64, minor: u8) -> Option<u64> {
        if u64::from(minor) >= self.stride {
            return None;
        }
        let i = major
            .checked_mul(self.stride)?
            .checked_add(u64::from(minor))?;
        (i < MAX_DENSE_INDEX).then_some(i)
    }

    /// Grows the backing vectors to cover index `i` and returns it as a
    /// `usize`. Stale slots keep their old stamp; they read as absent.
    fn slot(&mut self, i: u64) -> usize {
        let i = i as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
            self.stamps.resize(i + 1, 0);
        }
        i
    }

    /// Adds `w` to the entry (inserting 0 first if absent this epoch) and
    /// returns `(old, new)`.
    ///
    /// # Panics
    ///
    /// Panics when the dense index overflows the hostile-input cap; keys
    /// on the simulation hot path come from the configured geometry and
    /// stay far below it.
    #[inline]
    pub fn bump(&mut self, major: u64, minor: u8, w: u64) -> (u64, u64) {
        #[expect(clippy::expect_used, reason = "hot-path keys are geometry-bounded")]
        let i = self
            .try_index(major, minor)
            .expect("EpochTable key out of range");
        let i = self.slot(i);
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.counts[i] = 0;
        }
        let old = self.counts[i];
        let new = old + w;
        self.counts[i] = new;
        (old, new)
    }

    /// Sets an entry to an absolute value, marking it present. Returns
    /// `false` (without writing) when the key is out of range — the
    /// snapshot-restore caller turns that into a typed error.
    #[must_use]
    pub fn set(&mut self, major: u64, minor: u8, value: u64) -> bool {
        let Some(i) = self.try_index(major, minor) else {
            return false;
        };
        let i = self.slot(i);
        self.stamps[i] = self.epoch;
        self.counts[i] = value;
        true
    }

    /// Drops every entry in O(1) by advancing the epoch stamp.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            // One full sweep every 2^32 - 1 epochs keeps stamps sound.
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Present entries as `(major, minor, count)` in ascending `(major,
    /// minor)` order — the iteration order of the `BTreeMap` this table
    /// replaced.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8, u64)> + '_ {
        self.stamps
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == self.epoch)
            .map(|(i, _)| {
                let i = i as u64;
                (
                    i / self.stride,
                    (i % self.stride) as u8,
                    self.counts[i as usize],
                )
            })
    }

    /// Number of present entries (O(touched slots); diagnostics only).
    pub fn len(&self) -> usize {
        self.stamps.iter().filter(|&&s| s == self.epoch).count()
    }

    /// Whether no entry is present (O(touched slots); diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A dense `u64 → u32` counter map with presence tracking.
///
/// Replaces a `BTreeMap<u64, u32>`. Slots store `count + 1` so zero
/// doubles as the absence sentinel — a *present zero* (SiLC-FM inserts
/// one on promotion) is representable, exactly as it was in the map.
/// Iteration walks ascending keys, matching `BTreeMap` order.
#[derive(Debug, Clone, Default)]
pub struct FlatCounters {
    vals: Vec<u64>,
    present: usize,
}

impl FlatCounters {
    /// An empty map.
    pub fn new() -> Self {
        FlatCounters::default()
    }

    /// The count stored under `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        match self.vals.get(key as usize) {
            Some(&v) if v > 0 => Some((v - 1) as u32),
            _ => None,
        }
    }

    fn slot_index(&mut self, key: u64) -> Option<usize> {
        if key >= MAX_DENSE_INDEX {
            return None;
        }
        let i = key as usize;
        if i >= self.vals.len() {
            self.vals.resize(i + 1, 0);
        }
        Some(i)
    }

    /// Adds `d` to the entry (inserting 0 first if absent) and returns
    /// the new count.
    ///
    /// # Panics
    ///
    /// Panics when `key` exceeds the hostile-input cap; hot-path keys
    /// are geometry-bounded group indices.
    #[inline]
    pub fn add(&mut self, key: u64, d: u32) -> u32 {
        #[expect(clippy::expect_used, reason = "hot-path keys are geometry-bounded")]
        let i = self.slot_index(key).expect("FlatCounters key out of range");
        let v = self.vals[i];
        let old = if v == 0 {
            self.present += 1;
            0
        } else {
            (v - 1) as u32
        };
        let new = old.wrapping_add(d);
        self.vals[i] = u64::from(new) + 1;
        new
    }

    /// Sets `key` to `count`, marking it present. Returns `false`
    /// (without writing) when the key is out of range.
    #[must_use]
    pub fn set(&mut self, key: u64, count: u32) -> bool {
        let Some(i) = self.slot_index(key) else {
            return false;
        };
        if self.vals[i] == 0 {
            self.present += 1;
        }
        self.vals[i] = u64::from(count) + 1;
        true
    }

    /// Applies `f` to every present count, removing entries for which it
    /// returns `false` — `BTreeMap::retain` over values.
    pub fn retain<F: FnMut(&mut u32) -> bool>(&mut self, mut f: F) {
        for v in &mut self.vals {
            if *v == 0 {
                continue;
            }
            let mut c = (*v - 1) as u32;
            if f(&mut c) {
                *v = u64::from(c) + 1;
            } else {
                *v = 0;
                self.present -= 1;
            }
        }
    }

    /// Present entries as `(key, count)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.vals
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(|(k, &v)| (k as u64, (v - 1) as u32))
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.present
    }

    /// Whether no entry is present.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }
}

/// A fixed set of FIFO queues backed by one arena slab of nodes with a
/// free list, replacing a `BTreeMap<key, Vec<T>>`.
///
/// Queue lookup is direct indexing; pushing reuses freed node slots
/// instead of allocating per request, so steady-state operation does not
/// touch the allocator at all. A node is recycled only after
/// [`SlabQueues::drain_into`] has moved its value out, so a reused slot
/// can never alias a live request.
#[derive(Debug, Clone)]
pub struct SlabQueues<T> {
    heads: Vec<u32>,
    tails: Vec<u32>,
    nodes: Vec<(Option<T>, u32)>,
    free: u32,
    non_empty: usize,
}

impl<T> SlabQueues<T> {
    /// Creates `queues` empty queues.
    pub fn new(queues: usize) -> Self {
        SlabQueues {
            heads: vec![NONE32; queues],
            tails: vec![NONE32; queues],
            nodes: Vec::new(),
            free: NONE32,
            non_empty: 0,
        }
    }

    /// Whether queue `q` holds at least one value.
    #[inline]
    pub fn has(&self, q: usize) -> bool {
        self.heads[q] != NONE32
    }

    /// Number of non-empty queues.
    pub fn non_empty(&self) -> usize {
        self.non_empty
    }

    fn alloc_node(&mut self, val: T) -> u32 {
        if self.free != NONE32 {
            let i = self.free;
            let node = &mut self.nodes[i as usize];
            self.free = node.1;
            *node = (Some(val), NONE32);
            i
        } else {
            let i = self.nodes.len() as u32;
            debug_assert!(i != NONE32, "slab exhausted the u32 index space");
            self.nodes.push((Some(val), NONE32));
            i
        }
    }

    /// Appends `val` to queue `q`.
    #[inline]
    pub fn push(&mut self, q: usize, val: T) {
        let n = self.alloc_node(val);
        if self.heads[q] == NONE32 {
            self.heads[q] = n;
            self.non_empty += 1;
        } else {
            self.nodes[self.tails[q] as usize].1 = n;
        }
        self.tails[q] = n;
    }

    /// Moves queue `q`'s values into `out` in FIFO order, recycling the
    /// nodes. The queue is empty afterwards.
    pub fn drain_into(&mut self, q: usize, out: &mut Vec<T>) {
        let mut n = self.heads[q];
        if n == NONE32 {
            return;
        }
        while n != NONE32 {
            let node = &mut self.nodes[n as usize];
            let next = node.1;
            #[expect(
                clippy::expect_used,
                reason = "queue links only reference occupied nodes"
            )]
            let item = node.0.take().expect("linked slab node is occupied");
            out.push(item);
            node.1 = self.free;
            self.free = n;
            n = next;
        }
        self.heads[q] = NONE32;
        self.tails[q] = NONE32;
        self.non_empty -= 1;
    }

    /// Replaces queue `q`'s contents (used by snapshot restore; an empty
    /// `items` leaves the queue absent, like removing a map entry).
    pub fn set_queue(&mut self, q: usize, items: impl IntoIterator<Item = T>) {
        let mut scratch = Vec::new();
        self.drain_into(q, &mut scratch);
        drop(scratch);
        for v in items {
            self.push(q, v);
        }
    }

    /// Indices of non-empty queues in ascending order (snapshot path;
    /// O(queues)).
    pub fn non_empty_queues(&self) -> impl Iterator<Item = usize> + '_ {
        self.heads
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h != NONE32)
            .map(|(q, _)| q)
    }

    /// The values of queue `q` in FIFO order, without draining.
    pub fn queue_iter(&self, q: usize) -> impl Iterator<Item = &T> + '_ {
        let mut n = self.heads[q];
        std::iter::from_fn(move || {
            if n == NONE32 {
                return None;
            }
            let node = &self.nodes[n as usize];
            n = node.1;
            node.0.as_ref()
        })
    }
}

/// The backing vector (`u64::MAX` = unmapped); the mapped count is
/// recomputed on load so a snapshot cannot desynchronize it.
impl State for FlatPageTable {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        self.frames.state(c)?;
        self.mapped = self.frames.iter().filter(|&&f| f != UNMAPPED).count();
        Ok(())
    }
}

/// The live window `(base, slots)`; `next` and the live count are
/// recomputed on load so a snapshot cannot desynchronize them.
impl<T: State + Default> State for TokenRing<T> {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("base", &mut self.base)?;
        c.field("slots", &mut self.slots)?;
        self.next = self
            .base
            .checked_add(self.slots.len() as u64)
            .ok_or_else(|| "base: token window overflows".to_string())?;
        self.live = self.slots.iter().filter(|s| s.is_some()).count();
        Ok(())
    }
}

/// Only the non-empty queues travel, as `[queue, [values…]]` pairs in
/// ascending queue order.
impl<T: State + Default + Clone> State for SlabQueues<T> {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let mut queues: Vec<(usize, Vec<T>)> = self
            .non_empty_queues()
            .map(|q| (q, self.queue_iter(q).cloned().collect()))
            .collect();
        queues.state(c)?;
        if c.is_load() {
            let n = self.heads.len();
            *self = SlabQueues::new(n);
            for (q, values) in queues {
                if q >= n {
                    return Err(format!("queue {q} out of range"));
                }
                self.set_queue(q, values);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_table_maps_and_unmaps() {
        let mut t = FlatPageTable::new();
        assert_eq!(t.get(3), None);
        assert_eq!(t.insert(3, 77), None);
        assert_eq!(t.get(3), Some(77));
        assert_eq!(t.insert(3, 78), Some(77));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(3), Some(78));
        assert_eq!(t.remove(3), None);
        assert!(t.is_empty());
    }

    #[test]
    fn page_table_sparse_indices_grow() {
        let mut t = FlatPageTable::with_capacity(4);
        t.insert(1000, 1);
        t.insert(0, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1000), Some(1));
        assert_eq!(t.get(500), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn page_table_rejects_sentinel_frame() {
        FlatPageTable::new().insert(0, u64::MAX);
    }

    #[test]
    fn token_ids_are_sequential_and_never_reused() {
        let mut r = TokenRing::new();
        let a = r.insert("a");
        let b = r.insert("b");
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.remove(a), Some("a"));
        // Freeing the oldest token must not recycle its id.
        assert_eq!(r.insert("c"), 2);
        assert_eq!(r.next_id(), 3);
    }

    #[test]
    fn ring_window_trims_after_oldest_completes() {
        let mut r = TokenRing::new();
        for i in 0..64u64 {
            assert_eq!(r.insert(i), i);
        }
        // Complete out of order: everything except the oldest...
        for i in 1..64 {
            assert_eq!(r.remove(i), Some(i));
        }
        assert_eq!(r.len(), 1);
        assert_eq!(r.window(), 64, "window pinned by the oldest live token");
        // ...then the oldest: the window collapses.
        assert_eq!(r.remove(0), Some(0));
        assert_eq!(r.window(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn get_and_double_remove() {
        let mut r = TokenRing::new();
        let t = r.insert(9u32);
        assert_eq!(r.get(t), Some(&9));
        assert_eq!(r.remove(t), Some(9));
        assert_eq!(r.get(t), None);
        assert_eq!(r.remove(t), None);
        assert_eq!(r.remove(1234), None);
    }

    #[test]
    fn epoch_table_bumps_and_iterates_in_key_order() {
        let mut t = EpochTable::new(17);
        assert_eq!(t.bump(5, 3, 2), (0, 2));
        assert_eq!(t.bump(5, 3, 1), (2, 3));
        assert_eq!(t.bump(1, 9, 7), (0, 7));
        assert_eq!(t.bump(5, 0, 1), (0, 1));
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries, vec![(1, 9, 7), (5, 0, 1), (5, 3, 3)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn epoch_table_clear_is_total_and_cheap() {
        let mut t = EpochTable::new(17);
        t.bump(0, 0, 1);
        t.bump(9, 16, 4);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        // A slot touched before the clear restarts from zero.
        assert_eq!(t.bump(9, 16, 2), (0, 2));
    }

    #[test]
    fn epoch_table_set_preserves_present_zero() {
        let mut t = EpochTable::new(17);
        assert!(t.set(3, 2, 0));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(3, 2, 0)]);
        // Out-of-range minor or a huge major are refused, not grown.
        assert!(!t.set(0, 17, 1));
        assert!(!t.set(u64::MAX / 2, 0, 1));
    }

    #[test]
    fn epoch_table_epoch_wrap_sweeps_stamps() {
        let mut t = EpochTable::new(1);
        t.bump(4, 0, 1);
        t.epoch = u32::MAX;
        // The pre-wrap stamp (1) must not read as present after the
        // post-wrap epoch returns to 1.
        t.clear();
        assert_eq!(t.epoch, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn flat_counters_match_map_semantics() {
        let mut c = FlatCounters::new();
        assert_eq!(c.get(7), None);
        assert_eq!(c.add(7, 1), 1);
        assert_eq!(c.add(7, 2), 3);
        assert_eq!(c.get(7), Some(3));
        // A present zero is distinct from absence.
        assert!(c.set(2, 0));
        assert_eq!(c.get(2), Some(0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(2, 0), (7, 3)]);
    }

    #[test]
    fn flat_counters_retain_halves_and_drops() {
        let mut c = FlatCounters::new();
        c.set(0, 60).then_some(()).unwrap();
        c.set(3, 1).then_some(()).unwrap();
        c.retain(|v| {
            *v /= 2;
            *v > 0
        });
        assert_eq!(c.get(0), Some(30));
        assert_eq!(c.get(3), None);
        assert_eq!(c.len(), 1);
        assert!(!c.set(MAX_DENSE_INDEX, 1), "hostile key refused");
    }

    #[test]
    fn slab_queues_fifo_and_non_empty_count() {
        let mut s: SlabQueues<u32> = SlabQueues::new(4);
        assert!(!s.has(1));
        s.push(1, 10);
        s.push(1, 11);
        s.push(3, 30);
        assert_eq!(s.non_empty(), 2);
        assert_eq!(s.non_empty_queues().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(s.queue_iter(1).copied().collect::<Vec<_>>(), vec![10, 11]);
        let mut out = Vec::new();
        s.drain_into(1, &mut out);
        assert_eq!(out, vec![10, 11]);
        assert!(!s.has(1));
        assert_eq!(s.non_empty(), 1);
    }

    #[test]
    fn slab_reuses_freed_nodes_without_aliasing_live_values() {
        let mut s: SlabQueues<u64> = SlabQueues::new(2);
        for i in 0..8 {
            s.push(0, i);
        }
        let grown = s.nodes.len();
        let mut out = Vec::new();
        s.drain_into(0, &mut out);
        // Refill through the free list: the arena must not grow, and the
        // still-live queue 1 value must be untouched by the reuse.
        s.push(1, 99);
        for i in 100..107 {
            s.push(0, i);
        }
        assert_eq!(s.nodes.len(), grown, "freed nodes are reused");
        assert_eq!(s.queue_iter(1).copied().collect::<Vec<_>>(), vec![99]);
        out.clear();
        s.drain_into(0, &mut out);
        assert_eq!(out, (100..107).collect::<Vec<_>>());
    }

    #[test]
    fn slab_set_queue_replaces_and_empty_means_absent() {
        let mut s: SlabQueues<u8> = SlabQueues::new(3);
        s.push(2, 1);
        s.set_queue(2, [7, 8]);
        assert_eq!(s.queue_iter(2).copied().collect::<Vec<_>>(), vec![7, 8]);
        s.set_queue(2, []);
        assert!(!s.has(2));
        assert_eq!(s.non_empty(), 0);
    }
}
