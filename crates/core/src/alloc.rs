//! OS page-frame allocation with per-region free lists (paper §3.1.1: the
//! OS keeps track of free M1 and M2 physical page frames per region and
//! allocates frames of the private regions to their respective programs
//! only).

use profess_metrics::{State, StateCodec};
use profess_rng::Rng;
use profess_types::geometry::Geometry;
use profess_types::ids::ProgramId;

use crate::regions::RegionMap;

/// Frame allocator over the original physical address space.
///
/// A *frame* is one 4 KB page = two 2 KB blocks in two consecutive swap
/// groups (same region by construction). Frames are handed out uniformly
/// at random over the regions a program may use, which models an
/// unfragmented OS allocator and keeps the per-region access distribution
/// as uniform as the program's access pattern allows (the premise of the
/// paper's §3.1.3 sampling analysis).
#[derive(Debug)]
pub struct FrameAllocator {
    free_by_region: Vec<Vec<u64>>,
    /// Fenwick tree over `free_by_region`'s lengths.
    free_count: FreeCounts,
    owner_by_block: Vec<Option<ProgramId>>,
    region_map: RegionMap,
    rng: Rng,
    allocated: u64,
    total_frames: u64,
}

/// The unshuffled free lists: every page frame in ascending order, in the
/// list of the region its first block belongs to.
///
/// Page `pf` starts at block `pf * blocks_per_page`, which lies in group
/// `block % groups` and region `(group / 2) % regions`
/// ([`Geometry::region_of`]), that is `(group % (2 * regions)) / 2`. Both
/// residues advance by `blocks_per_page` per page, so the walk keeps them
/// by subtraction instead of dividing three times per page.
fn region_free_lists(geom: &Geometry, num_regions: usize) -> Vec<Vec<u64>> {
    let total_pages = geom.total_pages();
    let per_region = total_pages.div_ceil(num_regions.max(1) as u64) as usize;
    let mut lists: Vec<Vec<u64>> = (0..num_regions)
        .map(|_| Vec::with_capacity(per_region))
        .collect();
    let groups = geom.num_groups();
    let round = 2 * u64::from(geom.num_regions);
    let step = geom.blocks_per_page();
    let (mut group, mut in_round) = (0u64, 0u64);
    for pf in 0..total_pages {
        lists[(in_round / 2) as usize].push(pf);
        group += step;
        in_round += step;
        while group >= groups {
            group -= groups;
            in_round = group;
        }
        while in_round >= round {
            in_round -= round;
        }
    }
    lists
}

/// A Fenwick tree (binary indexed tree) over the free-list lengths:
/// prefix sums and "which region holds the n-th free frame" in O(log R)
/// for R regions.
///
/// Invariant: `tree[i]` (1-based) is the number of free frames in regions
/// `i - lowbit(i) .. i`, where `lowbit(i)` is `i`'s lowest set bit.
#[derive(Debug)]
struct FreeCounts {
    tree: Vec<usize>,
}

impl FreeCounts {
    /// Builds the tree over `lists` in O(R).
    fn new(lists: &[Vec<u64>]) -> Self {
        let n = lists.len();
        let mut tree = vec![0; n + 1];
        for (r, list) in lists.iter().enumerate() {
            let i = r + 1;
            tree[i] += list.len();
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        FreeCounts { tree }
    }

    /// Free frames in regions `0..r`.
    fn prefix(&self, mut r: usize) -> usize {
        let mut sum = 0;
        while r > 0 {
            sum += self.tree[r];
            r &= r - 1;
        }
        sum
    }

    /// Free frames in all regions.
    fn total(&self) -> usize {
        self.prefix(self.tree.len() - 1)
    }

    /// Records that one frame left region `r`.
    fn take(&mut self, r: usize) {
        let mut i = r + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// The region holding free frame number `nth` (counting through the
    /// regions in order) and that frame's index in the region's list.
    /// `nth` must be below [`FreeCounts::total`].
    fn find(&self, mut nth: usize) -> (usize, usize) {
        let n = self.tree.len() - 1;
        let mut region = 0;
        // Descend from the largest power of two not above `n`: `region`
        // is always a boundary whose prefix sum does not exceed `nth`.
        let mut step = (n + 1).next_power_of_two() >> 1;
        while step > 0 {
            let next = region + step;
            if next <= n && self.tree[next] <= nth {
                region = next;
                nth -= self.tree[next];
            }
            step >>= 1;
        }
        (region, nth)
    }
}

impl FrameAllocator {
    /// Builds the allocator for the whole original address space.
    pub fn new(geom: &Geometry, region_map: RegionMap, seed: u64) -> Self {
        let mut free_by_region = region_free_lists(geom, region_map.num_regions() as usize);
        let mut rng = Rng::seed_from_u64(seed ^ 0x51AB_17EF);
        // Shuffle each free list so allocation order does not correlate
        // with address order (and thus with M1/M2 original placement).
        for list in &mut free_by_region {
            rng.shuffle(list);
        }
        FrameAllocator {
            free_count: FreeCounts::new(&free_by_region),
            free_by_region,
            owner_by_block: vec![None; geom.total_blocks() as usize],
            region_map,
            rng,
            allocated: 0,
            total_frames: geom.total_pages(),
        }
    }

    /// Allocates a frame for `program`, choosing uniformly among the free
    /// frames of its allowed regions. Returns the page-frame index.
    ///
    /// The allowed regions, in region order, are the program's own private
    /// region (if it has one) and then every shared region. A pick `n`
    /// takes the `n`-th free frame counting through them in that order.
    ///
    /// Returns `None` only when every allowed region is exhausted.
    pub fn allocate(&mut self, program: ProgramId, geom: &Geometry) -> Option<u64> {
        let shared = self.region_map.private_count() as usize;
        let own = usize::from(program.0);
        let own_free = if own < shared {
            self.free_by_region[own].len()
        } else {
            0
        };
        let before_shared = self.free_count.prefix(shared);
        let total = own_free + self.free_count.total() - before_shared;
        if total == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0..total);
        let (region, index) = if pick < own_free {
            (own, pick)
        } else {
            self.free_count.find(before_shared + pick - own_free)
        };
        // The lists are shuffled; swap-removing keeps removal O(1) and
        // uniform.
        let frame = self.free_by_region[region].swap_remove(index);
        self.free_count.take(region);
        let first_block = geom.page_first_block(frame);
        for b in 0..geom.blocks_per_page() {
            self.owner_by_block[(first_block + b) as usize] = Some(program);
        }
        self.allocated += 1;
        Some(frame)
    }

    /// The program owning an original block, if allocated.
    #[inline]
    pub fn owner_of_block(&self, block: u64) -> Option<ProgramId> {
        self.owner_by_block[block as usize]
    }

    /// Number of frames allocated so far.
    pub fn allocated_frames(&self) -> u64 {
        self.allocated
    }

    /// Total frames in the system.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// The region map in force.
    pub fn region_map(&self) -> &RegionMap {
        &self.region_map
    }
}

/// The free lists travel *verbatim* — their shuffle order is
/// load-bearing for the uniform swap-and-pop pick — alongside a sparse
/// list of block owners, the RNG stream and the allocation count.
/// Loading requires the same region count and geometry.
impl State for FrameAllocator {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("free_by_region", self.free_by_region.as_mut_slice())?;
        if c.is_load() {
            let total = self.total_frames;
            if let Some(f) = self.free_by_region.iter().flatten().find(|&&f| f >= total) {
                return Err(format!("free_by_region: frame {f} out of range"));
            }
            self.free_count = FreeCounts::new(&self.free_by_region);
        }
        // Only allocated blocks have an owner: `[block, program]` pairs.
        let mut owners: Vec<(usize, ProgramId)> = self
            .owner_by_block
            .iter()
            .enumerate()
            .filter_map(|(b, o)| Some((b, (*o)?)))
            .collect();
        c.field("owners", &mut owners)?;
        if c.is_load() {
            self.owner_by_block.fill(None);
            for (b, p) in owners {
                *self
                    .owner_by_block
                    .get_mut(b)
                    .ok_or_else(|| format!("owners: block {b} out of range"))? = Some(p);
            }
        }
        let mut rng = self.rng.state();
        c.field("rng", &mut rng)?;
        if rng == [0; 4] {
            return Err("rng: state is all-zero".to_string());
        }
        self.rng = Rng::from_state(rng);
        c.field("allocated", &mut self.allocated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_check::strategy::{tuple5, u64_range, vec_of};
    use profess_check::{check, prop_assert_eq};
    use profess_metrics::Json;
    use profess_types::config::SystemConfig;
    use profess_types::ids::{RegionId, SlotIdx};

    fn save(a: &mut FrameAllocator) -> Json {
        StateCodec::save(a).expect("an allocator always saves")
    }

    fn geom() -> Geometry {
        Geometry::new(2048, 64, 4096, 2, 8 << 20, 8, 128, 16, 8192, 8)
    }

    /// The free lists as first written: three divisions per page.
    fn division_free_lists(geom: &Geometry, num_regions: usize) -> Vec<Vec<u64>> {
        let mut lists = vec![Vec::new(); num_regions];
        for pf in 0..geom.total_pages() {
            let (group, _) = geom.block_to_group_slot(geom.page_first_block(pf));
            lists[geom.region_of(group).index()].push(pf);
        }
        lists
    }

    /// The allocator as first written: division-built free lists and a
    /// pick that walks every region twice. Its Fenwick tree is built but
    /// never consulted or updated.
    struct LinearAllocator(FrameAllocator);

    impl LinearAllocator {
        fn new(geom: &Geometry, region_map: RegionMap, seed: u64) -> Self {
            let mut free_by_region = division_free_lists(geom, region_map.num_regions() as usize);
            let mut rng = Rng::seed_from_u64(seed ^ 0x51AB_17EF);
            for list in &mut free_by_region {
                rng.shuffle(list);
            }
            LinearAllocator(FrameAllocator {
                free_count: FreeCounts::new(&free_by_region),
                free_by_region,
                owner_by_block: vec![None; geom.total_blocks() as usize],
                region_map,
                rng,
                allocated: 0,
                total_frames: geom.total_pages(),
            })
        }

        fn allocate(&mut self, program: ProgramId, geom: &Geometry) -> Option<u64> {
            let a = &mut self.0;
            let allowed = |r: usize| a.region_map.may_allocate(program, RegionId(r as u16));
            let total: usize = (0..a.free_by_region.len())
                .filter(|&r| allowed(r))
                .map(|r| a.free_by_region[r].len())
                .sum();
            if total == 0 {
                return None;
            }
            let mut pick = a.rng.gen_range(0..total);
            for r in 0..a.free_by_region.len() {
                if !a.region_map.may_allocate(program, RegionId(r as u16)) {
                    continue;
                }
                let list = &mut a.free_by_region[r];
                if pick < list.len() {
                    let last = list.len() - 1;
                    list.swap(pick, last);
                    let frame = list.pop().expect("non-empty list");
                    let first_block = geom.page_first_block(frame);
                    for b in 0..geom.blocks_per_page() {
                        a.owner_by_block[(first_block + b) as usize] = Some(program);
                    }
                    a.allocated += 1;
                    return Some(frame);
                }
                pick -= list.len();
            }
            unreachable!("pick within total free count");
        }
    }

    #[test]
    fn free_lists_match_the_per_page_division_lists() {
        let presets = [
            SystemConfig::scaled_quad(),
            SystemConfig::scaled_single(),
            SystemConfig::paper_quad(),
        ];
        for base in &presets {
            let ratios = [2, 4, 16].map(|r| base.with_capacity_ratio(r));
            for cfg in std::iter::once(base).chain(&ratios) {
                let g = &cfg.org;
                let n = g.num_regions as usize;
                assert_eq!(
                    region_free_lists(g, n),
                    division_free_lists(g, n),
                    "{} pages, {} regions, 1:{}",
                    g.total_pages(),
                    n,
                    g.m2_per_m1
                );
            }
        }
    }

    #[test]
    fn fenwick_find_agrees_with_a_linear_scan() {
        for n in [1usize, 2, 3, 5, 8, 13, 128] {
            let lists: Vec<Vec<u64>> = (0..n).map(|r| vec![0; (r * 7 + 3) % 5]).collect();
            let counts = FreeCounts::new(&lists);
            let mut nth = 0;
            for (r, list) in lists.iter().enumerate() {
                assert_eq!(counts.prefix(r), nth);
                for i in 0..list.len() {
                    assert_eq!(counts.find(nth), (r, i), "n={n} nth={nth}");
                    nth += 1;
                }
            }
            assert_eq!(counts.total(), nth);
        }
    }

    /// Under any program sequence, region layout and snapshot point, the
    /// Fenwick-indexed allocator hands out exactly the frames the linear
    /// walk does, through exhaustion, and snapshots to the same bytes.
    #[test]
    fn allocate_agrees_with_the_linear_walk() {
        check(
            "allocate_agrees_with_the_linear_walk",
            tuple5(
                u64_range(0..1 << 32),
                u64_range(0..3),
                u64_range(0..9),
                vec_of(u64_range(0..10), 1..24),
                u64_range(0..2600),
            ),
            |(seed, layout, private, programs, snap_at)| {
                let regions = [4u32, 16, 128][*layout as usize];
                // 1 MB of M1: 512 groups, 2304 frames.
                let g = Geometry::new(2048, 64, 4096, 2, 1 << 20, 8, regions, 16, 8192, 8);
                let map = || match (*private as u32).min(regions - 1) {
                    0 => RegionMap::all_shared(regions),
                    k => RegionMap::with_private_regions(regions, k),
                };
                let mut fast = FrameAllocator::new(&g, map(), *seed);
                let mut slow = LinearAllocator::new(&g, map(), *seed);
                prop_assert_eq!(save(&mut fast).to_string(), save(&mut slow.0).to_string());
                let mut misses = 0;
                let mut step = 0u64;
                while misses < programs.len() {
                    if step == *snap_at {
                        let j = save(&mut fast);
                        prop_assert_eq!(j.to_string(), save(&mut slow.0).to_string());
                        fast = FrameAllocator::new(&g, map(), seed + 1);
                        StateCodec::load(&mut fast, &j)?;
                        slow = LinearAllocator::new(&g, map(), seed + 2);
                        StateCodec::load(&mut slow.0, &j)?;
                    }
                    let p = ProgramId(programs[step as usize % programs.len()] as u8);
                    let frame = fast.allocate(p, &g);
                    let expected = slow.allocate(p, &g);
                    if frame != expected {
                        return Err(format!("step {step}: {frame:?} != {expected:?}"));
                    }
                    misses = if frame.is_some() { 0 } else { misses + 1 };
                    step += 1;
                }
                // Every program of the sequence is exhausted; the rest
                // may still hold their private regions.
                for p in 0..10u8 {
                    let frame = fast.allocate(ProgramId(p), &g);
                    prop_assert_eq!(frame, slow.allocate(ProgramId(p), &g));
                    if programs.contains(&u64::from(p)) {
                        prop_assert_eq!(frame, None);
                    }
                }
                prop_assert_eq!(save(&mut fast).to_string(), save(&mut slow.0).to_string());
                Ok(())
            },
        );
    }

    #[test]
    fn allocates_unique_frames_with_owners() {
        let g = geom();
        let mut a = FrameAllocator::new(&g, RegionMap::all_shared(128), 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let f = a.allocate(ProgramId(0), &g).expect("space available");
            assert!(seen.insert(f), "frame {f} allocated twice");
            let b0 = g.page_first_block(f);
            assert_eq!(a.owner_of_block(b0), Some(ProgramId(0)));
            assert_eq!(a.owner_of_block(b0 + 1), Some(ProgramId(0)));
        }
        assert_eq!(a.allocated_frames(), 1000);
    }

    #[test]
    fn private_regions_reserved_for_owner() {
        let g = geom();
        let map = RegionMap::with_private_regions(128, 4);
        let mut a = FrameAllocator::new(&g, map, 2);
        // Allocate everything program 1 may take.
        let mut frames = Vec::new();
        while let Some(f) = a.allocate(ProgramId(1), &g) {
            frames.push(f);
        }
        // Program 1 never received frames from regions 0, 2, 3.
        for &f in &frames {
            let (group, _) = g.block_to_group_slot(g.page_first_block(f));
            let r = g.region_of(group);
            assert!(
                r.0 == 1 || r.0 >= 4,
                "frame from foreign private region {r:?}"
            );
        }
        // Other programs' private regions remain fully free: program 0 can
        // still allocate its private region's worth.
        let mut zero_private = 0;
        while let Some(f) = a.allocate(ProgramId(0), &g) {
            let (group, _) = g.block_to_group_slot(g.page_first_block(f));
            assert_eq!(g.region_of(group).0, 0);
            zero_private += 1;
        }
        // Region 0: total frames / 128 regions.
        assert_eq!(zero_private, (g.total_pages() / 128) as usize);
    }

    #[test]
    fn frames_spread_over_m1_and_m2_originals() {
        let g = geom();
        let mut a = FrameAllocator::new(&g, RegionMap::all_shared(128), 3);
        let mut m1 = 0;
        let mut m2 = 0;
        for _ in 0..2000 {
            let f = a.allocate(ProgramId(0), &g).expect("space");
            let (_, slot) = g.block_to_group_slot(g.page_first_block(f));
            if slot == SlotIdx::M1 {
                m1 += 1;
            } else {
                m2 += 1;
            }
        }
        // ~1/9 of frames are M1-original.
        let frac = m1 as f64 / (m1 + m2) as f64;
        assert!(
            (frac - 1.0 / 9.0).abs() < 0.04,
            "M1-original fraction {frac}"
        );
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let g = geom();
        let mut a = FrameAllocator::new(&g, RegionMap::all_shared(128), 11);
        for _ in 0..100 {
            a.allocate(ProgramId(0), &g).expect("space");
        }
        let j = save(&mut a);
        let mut b = FrameAllocator::new(&g, RegionMap::all_shared(128), 999);
        StateCodec::load(&mut b, &j).expect("restores");
        assert_eq!(save(&mut b).to_string(), j.to_string());
        // Both allocators continue with the identical random sequence.
        for _ in 0..100 {
            let fa = a.allocate(ProgramId(1), &g);
            let fb = b.allocate(ProgramId(1), &g);
            assert_eq!(fa, fb);
        }
        assert_eq!(a.allocated_frames(), b.allocated_frames());
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let g = geom();
        let mut a = FrameAllocator::new(&g, RegionMap::all_shared(128), 1);
        // A snapshot with fewer regions than the allocator was built for.
        let mut truncated = save(&mut a);
        if let Json::Obj(pairs) = &mut truncated {
            for (k, v) in pairs.iter_mut() {
                if k == "free_by_region" {
                    if let Json::Arr(xs) = v {
                        xs.truncate(64);
                    }
                }
            }
        }
        assert!(
            StateCodec::load(&mut a, &truncated).is_err(),
            "region count"
        );
        let missing = save(&mut a)
            .to_string()
            .replace("\"allocated\":", "\"allocated_nope\":");
        let j = Json::parse(&missing).expect("valid JSON");
        assert!(StateCodec::load(&mut a, &j).is_err(), "missing field");
        // All-zero RNG state must be rejected, not panic.
        let state = save(&mut a);
        let zeroed = state.to_string();
        let rng_txt = state.get("rng").map(|r| r.to_string()).expect("rng field");
        let zeroed = zeroed.replace(&format!("\"rng\":{rng_txt}"), "\"rng\":[0,0,0,0]");
        let j = Json::parse(&zeroed).expect("valid JSON");
        assert!(StateCodec::load(&mut a, &j).is_err());
    }

    #[test]
    fn exhaustion_returns_none() {
        let g = geom();
        let mut a = FrameAllocator::new(&g, RegionMap::all_shared(128), 4);
        let mut n = 0u64;
        while a.allocate(ProgramId(0), &g).is_some() {
            n += 1;
        }
        assert_eq!(n, g.total_pages());
        assert!(a.allocate(ProgramId(1), &g).is_none());
    }
}
