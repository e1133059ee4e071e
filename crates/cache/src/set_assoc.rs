//! A single set-associative, write-back cache with LRU replacement.

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted 64 B line index.
    pub line: u64,
    /// Whether the evicted line was dirty.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    dirty: bool,
    stamp: u64,
}

/// Hit/miss statistics of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1] (0 if never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache over 64 B line indices.
#[derive(Debug)]
pub struct Cache {
    sets: Vec<Vec<Entry>>,
    ways: usize,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache holding `lines` lines with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a multiple of `ways` or the set count is
    /// not a power of two.
    pub fn new(lines: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && lines.is_multiple_of(ways),
            "lines must divide into ways"
        );
        let num_sets = lines / ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            set_mask: (num_sets - 1) as u64,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Looks up `line`; on a hit, updates LRU (and the dirty bit for
    /// writes) and returns `true`.
    pub fn access(&mut self, line: u64, is_write: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.line == line) {
            e.stamp = tick;
            e.dirty |= is_write;
            self.stats.hits += 1;
            true
        } else {
            false
        }
    }

    /// Inserts `line` (after a miss), evicting the LRU entry of its set if
    /// full. Returns the victim, if any.
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<Victim> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        debug_assert!(
            !set.iter().any(|e| e.line == line),
            "fill of already-present line"
        );
        let victim = if set.len() == ways {
            let (i, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                // profess: allow(panic): guarded by `set.len() == ways`, ways >= 1
                .expect("non-empty set");
            let v = set.swap_remove(i);
            Some(Victim {
                line: v.line,
                dirty: v.dirty,
            })
        } else {
            None
        };
        set.push(Entry {
            line,
            dirty,
            stamp: tick,
        });
        victim
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(2, 2); // 1 set, 2 ways
        assert!(!c.access(10, false));
        c.fill(10, false);
        assert!(!c.access(20, false));
        c.fill(20, false);
        // Touch 10 so 20 is LRU.
        assert!(c.access(10, false));
        let v = c.fill(30, false).expect("eviction");
        assert_eq!(v.line, 20);
        assert!(c.access(10, false));
        assert!(c.access(30, false));
        assert!(!c.access(20, false));
    }

    #[test]
    fn dirty_bit_tracks_writes() {
        let mut c = Cache::new(2, 2);
        c.fill(1, false);
        assert!(c.access(1, true)); // make dirty
        c.fill(3, false);
        let v = c.fill(5, false).expect("eviction");
        // LRU is line 1 (3 was filled later).
        assert_eq!(v.line, 1);
        assert!(v.dirty);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = Cache::new(8, 2); // 4 sets
        c.fill(0, false); // set 0
        c.fill(1, false); // set 1
        assert!(c.access(0, false));
        assert!(c.access(1, false));
    }

    #[test]
    fn hit_rate() {
        let mut c = Cache::new(4, 4);
        c.fill(1, false);
        c.access(1, false);
        c.access(2, false);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        Cache::new(12, 4);
    }
}
