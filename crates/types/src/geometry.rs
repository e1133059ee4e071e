//! Address geometry of the flat migrating organization (paper §2.3).
//!
//! All memory locations are organized into *swap groups* of nine fixed
//! physical locations: one in M1 (DRAM) and eight in M2 (NVM). The OS
//! allocates *original* physical addresses; migrations change the *actual*
//! location of a 2 KB block within its swap group, recorded by a 4-bit
//! translation per block in the Swap-group Table (ST).
//!
//! Layout choices made here (and relied upon by the rest of the workspace):
//!
//! * Original block index `ob` maps to swap group `ob % num_groups` and
//!   original slot `ob / num_groups`. Consecutive original blocks therefore
//!   fall into consecutive swap groups, so a 4 KB OS page (two 2 KB blocks)
//!   maps to two consecutive groups, as required by the paper's Figure 3.
//! * Region of a group is `(group / 2) % num_regions`: pairs of consecutive
//!   groups share a region and regions interleave across memory (Figure 3).
//! * Groups interleave across channels (`group % num_channels`); a group's
//!   M1 slot and all eight M2 slots live on the same channel, so a swap
//!   occupies exactly one channel (Figure 1).

use std::fmt;

use crate::ids::{ChannelId, GroupId, RegionId, SlotIdx};

/// Which memory module of a channel a physical location belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Module {
    /// The fast, small DRAM partition.
    #[default]
    M1,
    /// The slow, large NVM partition (8× denser in the paper's setup).
    M2,
}

/// A physical DRAM/NVM location at row granularity: enough to decide
/// row-buffer hits and bank conflicts in the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemLoc {
    /// Module within the channel.
    pub module: Module,
    /// Bank index within the module.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
}

/// A 64-byte line index in the *original* (OS-visible) physical address
/// space, covering M1 + M2 capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrigLineAddr(pub u64);

impl OrigLineAddr {
    /// Returns the raw line index.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Division by a divisor fixed at construction: a shift and a mask when
/// it is a power of two, plain `/` and `%` otherwise. Every result equals
/// the plain operator's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    // `Some(log2 d)` when `d` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    /// A divisor of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        Divisor {
            d,
            shift: d.is_power_of_two().then(|| d.trailing_zeros()),
        }
    }

    /// The divisor itself.
    #[inline]
    pub fn get(self) -> u64 {
        self.d
    }

    /// `x / d`.
    #[inline]
    pub fn quotient(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.d,
        }
    }

    /// `x % d`.
    #[inline]
    pub fn remainder(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.d - 1),
            None => x % self.d,
        }
    }

    /// `x.div_ceil(d)`.
    #[inline]
    pub fn div_ceil(self, x: u64) -> u64 {
        self.quotient(x) + u64::from(self.remainder(x) != 0)
    }
}

/// The fully resolved geometry of a configured hybrid memory.
///
/// Constructed via [`Geometry::new`]; all derived quantities, and every
/// divisor a per-request mapping uses, are precomputed there, so the
/// mapping functions divide by shifts in every preset. The public fields
/// describe the geometry; a changed geometry is built with
/// [`Geometry::new`], not by editing them.
#[derive(Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Swap-block size in bytes (2 KB in the paper).
    pub block_bytes: u64,
    /// Cache-line / memory-burst size in bytes (64 B).
    pub line_bytes: u64,
    /// OS page size in bytes (4 KB).
    pub page_bytes: u64,
    /// Number of memory channels.
    pub num_channels: u32,
    /// Total M1 capacity in bytes, across channels.
    pub m1_bytes: u64,
    /// M2:M1 capacity ratio (8 in the paper's main evaluation).
    pub m2_per_m1: u32,
    /// Number of RSM regions (128 in the paper).
    pub num_regions: u32,
    /// Banks per module (16 in Table 8).
    pub banks_per_module: u32,
    /// Row-buffer size in bytes (8 KB for both M1 and M2 in Table 8).
    pub row_bytes: u64,
    /// ST entry size in bytes (8 B in Table 8).
    pub st_entry_bytes: u64,
    // Derived quantities.
    num_groups: Divisor,
    groups_per_channel: u64,
    lines_per_block: Divisor,
    blocks_per_row: Divisor,
    m1_data_rows_per_bank: u64,
    // Derived divisors and counts, absent from the `Debug` text.
    lines_per_page: Divisor,
    blocks_per_page: u64,
    channels: Divisor,
    regions: Divisor,
    banks: Divisor,
    st_entries_per_row: Divisor,
}

/// Prints the public fields and the derived counts, never the
/// precomputed divisors: `Debug` of the whole `SystemConfig` is the
/// configuration fingerprint (snapshots, journal keys), which must not
/// depend on how the mappings divide.
impl fmt::Debug for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Geometry")
            .field("block_bytes", &self.block_bytes)
            .field("line_bytes", &self.line_bytes)
            .field("page_bytes", &self.page_bytes)
            .field("num_channels", &self.num_channels)
            .field("m1_bytes", &self.m1_bytes)
            .field("m2_per_m1", &self.m2_per_m1)
            .field("num_regions", &self.num_regions)
            .field("banks_per_module", &self.banks_per_module)
            .field("row_bytes", &self.row_bytes)
            .field("st_entry_bytes", &self.st_entry_bytes)
            .field("num_groups", &self.num_groups.get())
            .field("groups_per_channel", &self.groups_per_channel)
            .field("lines_per_block", &self.lines_per_block.get())
            .field("blocks_per_row", &self.blocks_per_row.get())
            .field("m1_data_rows_per_bank", &self.m1_data_rows_per_bank)
            .finish()
    }
}

impl Geometry {
    /// Builds a geometry; panics on inconsistent parameters.
    ///
    /// # Panics
    ///
    /// Panics if capacities are not divisible into whole rows, banks,
    /// blocks and channels, or if the group count is not a multiple of
    /// `2 * num_regions` (needed for the interleaved region division).
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per Table 8 geometry parameter"
    )]
    pub fn new(
        block_bytes: u64,
        line_bytes: u64,
        page_bytes: u64,
        num_channels: u32,
        m1_bytes: u64,
        m2_per_m1: u32,
        num_regions: u32,
        banks_per_module: u32,
        row_bytes: u64,
        st_entry_bytes: u64,
    ) -> Self {
        assert!(block_bytes.is_power_of_two() && line_bytes.is_power_of_two());
        assert_eq!(page_bytes % block_bytes, 0, "page must hold whole blocks");
        assert_eq!(row_bytes % block_bytes, 0, "row must hold whole blocks");
        let num_groups = m1_bytes / block_bytes;
        assert_eq!(num_groups * block_bytes, m1_bytes, "M1 not block-aligned");
        assert_eq!(
            num_groups % u64::from(num_channels),
            0,
            "groups must divide evenly across channels"
        );
        let groups_per_channel = num_groups / u64::from(num_channels);
        assert_eq!(
            num_groups % (2 * u64::from(num_regions)),
            0,
            "group count must be a multiple of 2 * num_regions"
        );
        let blocks_per_row = row_bytes / block_bytes;
        let m1_blocks_per_channel = groups_per_channel;
        assert_eq!(
            m1_blocks_per_channel % (blocks_per_row * u64::from(banks_per_module)),
            0,
            "M1 channel capacity must fill whole rows in every bank"
        );
        let m1_data_rows_per_bank =
            m1_blocks_per_channel / blocks_per_row / u64::from(banks_per_module);
        Geometry {
            block_bytes,
            line_bytes,
            page_bytes,
            num_channels,
            m1_bytes,
            m2_per_m1,
            num_regions,
            banks_per_module,
            row_bytes,
            st_entry_bytes,
            num_groups: Divisor::new(num_groups),
            groups_per_channel,
            lines_per_block: Divisor::new(block_bytes / line_bytes),
            blocks_per_row: Divisor::new(blocks_per_row),
            m1_data_rows_per_bank,
            lines_per_page: Divisor::new(page_bytes / line_bytes),
            blocks_per_page: page_bytes / block_bytes,
            channels: Divisor::new(u64::from(num_channels)),
            regions: Divisor::new(u64::from(num_regions)),
            banks: Divisor::new(u64::from(banks_per_module)),
            st_entries_per_row: Divisor::new(row_bytes / st_entry_bytes),
        }
    }

    /// Total number of swap groups (= number of M1 blocks).
    #[inline]
    pub fn num_groups(&self) -> u64 {
        self.num_groups.get()
    }

    /// Swap groups per channel.
    #[inline]
    pub fn groups_per_channel(&self) -> u64 {
        self.groups_per_channel
    }

    /// Total M2 capacity in bytes.
    #[inline]
    pub fn m2_bytes(&self) -> u64 {
        self.m1_bytes * u64::from(self.m2_per_m1)
    }

    /// Total OS-visible capacity in bytes (M1 + M2).
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.m1_bytes + self.m2_bytes()
    }

    /// Total number of 2 KB blocks in the original address space.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.num_groups() * u64::from(self.slots_per_group())
    }

    /// Slots per swap group (1 M1 slot + `m2_per_m1` M2 slots).
    #[inline]
    pub fn slots_per_group(&self) -> u32 {
        1 + self.m2_per_m1
    }

    /// 64-byte lines per swap block (32 for 2 KB blocks).
    #[inline]
    pub fn lines_per_block(&self) -> u64 {
        self.lines_per_block.get()
    }

    /// Total number of 4 KB pages in the original address space.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.total_bytes() / self.page_bytes
    }

    /// Blocks per OS page (2 for 4 KB pages and 2 KB blocks).
    #[inline]
    pub fn blocks_per_page(&self) -> u64 {
        self.blocks_per_page
    }

    /// Splits a line of a program's (virtual) address space into its
    /// 4 KB page and the 2 KB block within that page.
    #[inline]
    pub fn page_split(&self, line: u64) -> (u64, u64) {
        let page = self.lines_per_page.quotient(line);
        let line_in_page = self.lines_per_page.remainder(line);
        (page, self.lines_per_block.quotient(line_in_page))
    }

    /// Decomposes an original line address into (swap group, original slot,
    /// line offset within the block).
    #[inline]
    pub fn decompose(&self, line: OrigLineAddr) -> (GroupId, SlotIdx, u32) {
        let block = self.lines_per_block.quotient(line.0);
        let offset = self.lines_per_block.remainder(line.0) as u32;
        let (group, slot) = self.block_to_group_slot(block);
        debug_assert!(u32::from(slot.0) < self.slots_per_group());
        (group, slot, offset)
    }

    /// Composes an original line address from its parts (inverse of
    /// [`Geometry::decompose`]).
    #[inline]
    pub fn compose(&self, group: GroupId, slot: SlotIdx, line_in_block: u32) -> OrigLineAddr {
        let block = u64::from(slot.0) * self.num_groups() + group.0;
        OrigLineAddr(block * self.lines_per_block() + u64::from(line_in_block))
    }

    /// The original block index of the first block of a page.
    #[inline]
    pub fn page_first_block(&self, page: u64) -> u64 {
        page * self.blocks_per_page()
    }

    /// Swap group and original slot of an original block index.
    #[inline]
    pub fn block_to_group_slot(&self, block: u64) -> (GroupId, SlotIdx) {
        (
            GroupId(self.num_groups.remainder(block)),
            SlotIdx(self.num_groups.quotient(block) as u8),
        )
    }

    /// The RSM region of a swap group: pairs of consecutive groups share a
    /// region and regions interleave (paper Figure 3).
    #[inline]
    pub fn region_of(&self, group: GroupId) -> RegionId {
        RegionId(self.regions.remainder(group.0 >> 1) as u16)
    }

    /// The channel a swap group (and all nine of its locations) lives on.
    #[inline]
    pub fn channel_of(&self, group: GroupId) -> ChannelId {
        ChannelId(self.channels.remainder(group.0) as u8)
    }

    /// The group index local to its channel.
    #[inline]
    pub fn local_group(&self, group: GroupId) -> u64 {
        self.channels.quotient(group.0)
    }

    /// Physical location (module, bank, row) of a slot of a swap group,
    /// within the group's channel.
    ///
    /// M1 blocks fill M1 rows bank-interleaved; M2 blocks are laid out so
    /// that, for a fixed slot, consecutive groups are adjacent in M2 (good
    /// row locality for streaming over original addresses).
    pub fn slot_loc(&self, group: GroupId, slot: SlotIdx) -> MemLoc {
        let lg = self.local_group(group);
        let (module, block) = if slot.is_m1() {
            (Module::M1, lg)
        } else {
            let m2_block = (u64::from(slot.0) - 1) * self.groups_per_channel + lg;
            (Module::M2, m2_block)
        };
        let row_global = self.blocks_per_row.quotient(block);
        MemLoc {
            module,
            bank: self.banks.remainder(row_global) as u32,
            row: self.banks.quotient(row_global),
        }
    }

    /// Physical location of the ST entry of a swap group, in the reserved
    /// ST area of M1 (rows beyond the data rows; paper §2.2: translation
    /// entries are stored in M1 and their access consumes M1 bandwidth).
    pub fn st_entry_loc(&self, group: GroupId) -> MemLoc {
        let lg = self.local_group(group);
        let row_global = self.st_entries_per_row.quotient(lg);
        MemLoc {
            module: Module::M1,
            bank: self.banks.remainder(row_global) as u32,
            row: self.m1_data_rows_per_bank + self.banks.quotient(row_global),
        }
    }

    /// Size of the whole Swap-group Table in bytes.
    #[inline]
    pub fn st_total_bytes(&self) -> u64 {
        self.num_groups() * self.st_entry_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_check::strategy::{tuple2, u64_range, u8_range};
    use profess_check::{check, prop_assert_eq};

    fn small_geom() -> Geometry {
        // 8 MB M1, 2 channels, 1:8 -> 4096 groups.
        Geometry::new(2048, 64, 4096, 2, 8 << 20, 8, 128, 16, 8192, 8)
    }

    #[test]
    fn capacities() {
        let g = small_geom();
        assert_eq!(g.num_groups(), 4096);
        assert_eq!(g.groups_per_channel(), 2048);
        assert_eq!(g.m2_bytes(), 64 << 20);
        assert_eq!(g.total_bytes(), 72 << 20);
        assert_eq!(g.total_blocks(), 4096 * 9);
        assert_eq!(g.slots_per_group(), 9);
        assert_eq!(g.lines_per_block(), 32);
        assert_eq!(g.blocks_per_page(), 2);
        assert_eq!(g.st_total_bytes(), 4096 * 8);
    }

    #[test]
    fn decompose_compose_roundtrip() {
        let g = small_geom();
        for &line in &[0u64, 1, 31, 32, 4096 * 32 - 1, 4096 * 32, 9 * 4096 * 32 - 1] {
            let (grp, slot, off) = g.decompose(OrigLineAddr(line));
            assert_eq!(g.compose(grp, slot, off), OrigLineAddr(line));
        }
    }

    #[test]
    fn consecutive_blocks_in_consecutive_groups() {
        let g = small_geom();
        // Page = blocks 2p, 2p+1 -> consecutive groups, same region.
        let (g0, s0) = g.block_to_group_slot(100);
        let (g1, s1) = g.block_to_group_slot(101);
        assert_eq!(g1.0, g0.0 + 1);
        assert_eq!(s0, s1);
        assert_eq!(g.region_of(g0), g.region_of(g1));
    }

    #[test]
    fn region_interleaving_matches_figure3() {
        let g = small_geom();
        // S0,S1 -> R0; S2,S3 -> R1; ...; S256,S257 -> R0 again (128 regions).
        assert_eq!(g.region_of(GroupId(0)), RegionId(0));
        assert_eq!(g.region_of(GroupId(1)), RegionId(0));
        assert_eq!(g.region_of(GroupId(2)), RegionId(1));
        assert_eq!(g.region_of(GroupId(3)), RegionId(1));
        assert_eq!(g.region_of(GroupId(256)), RegionId(0));
        assert_eq!(g.region_of(GroupId(257)), RegionId(0));
        assert_eq!(g.region_of(GroupId(255)), RegionId(127));
    }

    #[test]
    fn groups_stay_on_one_channel() {
        let g = small_geom();
        let grp = GroupId(7);
        let ch = g.channel_of(grp);
        // All slots of a group map to the same channel by construction;
        // just verify the M1/M2 split and distinct banks-rows sanity.
        let m1 = g.slot_loc(grp, SlotIdx::M1);
        assert_eq!(m1.module, Module::M1);
        for s in SlotIdx::m2_slots() {
            assert_eq!(g.slot_loc(grp, s).module, Module::M2);
        }
        assert_eq!(ch, ChannelId((7 % 2) as u8));
    }

    #[test]
    fn m1_rows_fill_banks_evenly() {
        let g = small_geom();
        // 2048 M1 blocks/channel, 4 blocks/row -> 512 rows -> 32 rows/bank.
        let mut max_row = 0;
        for lg in 0..g.groups_per_channel() {
            let grp = GroupId(lg * 2); // channel 0
            let loc = g.slot_loc(grp, SlotIdx::M1);
            assert!(loc.bank < 16);
            max_row = max_row.max(loc.row);
        }
        assert_eq!(max_row, 31);
    }

    #[test]
    fn st_area_beyond_data_rows() {
        let g = small_geom();
        let st = g.st_entry_loc(GroupId(0));
        assert_eq!(st.module, Module::M1);
        assert!(st.row >= 32, "ST rows must not alias M1 data rows");
    }

    #[test]
    fn m2_streaming_layout_has_row_locality() {
        let g = small_geom();
        // Fixed slot, consecutive groups on the same channel -> same or
        // adjacent M2 rows.
        let a = g.slot_loc(GroupId(0), SlotIdx(1));
        let b = g.slot_loc(GroupId(2), SlotIdx(1));
        assert_eq!(a.module, Module::M2);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row); // 4 blocks per row
    }

    /// The mappings as plain `/` and `%` over the public fields, as they
    /// were written before the divisors were precomputed: the reference
    /// the division-free decode must equal.
    mod reference {
        use super::*;

        pub fn num_groups(g: &Geometry) -> u64 {
            g.m1_bytes / g.block_bytes
        }

        pub fn block_to_group_slot(g: &Geometry, block: u64) -> (GroupId, SlotIdx) {
            let n = num_groups(g);
            (GroupId(block % n), SlotIdx((block / n) as u8))
        }

        pub fn decompose(g: &Geometry, line: u64) -> (GroupId, SlotIdx, u32) {
            let lines_per_block = g.block_bytes / g.line_bytes;
            let block = line / lines_per_block;
            let (group, slot) = block_to_group_slot(g, block);
            (group, slot, (line % lines_per_block) as u32)
        }

        pub fn page_split(g: &Geometry, line: u64) -> (u64, u64) {
            let lines_per_page = g.page_bytes / g.line_bytes;
            let lines_per_block = g.block_bytes / g.line_bytes;
            (
                line / lines_per_page,
                (line % lines_per_page) / lines_per_block,
            )
        }

        pub fn region_of(g: &Geometry, group: GroupId) -> RegionId {
            RegionId(((group.0 / 2) % u64::from(g.num_regions)) as u16)
        }

        pub fn channel_of(g: &Geometry, group: GroupId) -> ChannelId {
            ChannelId((group.0 % u64::from(g.num_channels)) as u8)
        }

        pub fn local_group(g: &Geometry, group: GroupId) -> u64 {
            group.0 / u64::from(g.num_channels)
        }

        fn loc(g: &Geometry, module: Module, row_global: u64, first_row: u64) -> MemLoc {
            let banks = u64::from(g.banks_per_module);
            MemLoc {
                module,
                bank: (row_global % banks) as u32,
                row: first_row + row_global / banks,
            }
        }

        pub fn slot_loc(g: &Geometry, group: GroupId, slot: SlotIdx) -> MemLoc {
            let lg = local_group(g, group);
            let blocks_per_row = g.row_bytes / g.block_bytes;
            if slot.is_m1() {
                loc(g, Module::M1, lg / blocks_per_row, 0)
            } else {
                let groups_per_channel = num_groups(g) / u64::from(g.num_channels);
                let m2_block = (u64::from(slot.0) - 1) * groups_per_channel + lg;
                loc(g, Module::M2, m2_block / blocks_per_row, 0)
            }
        }

        pub fn st_entry_loc(g: &Geometry, group: GroupId) -> MemLoc {
            let lg = local_group(g, group);
            let blocks_per_row = g.row_bytes / g.block_bytes;
            let groups_per_channel = num_groups(g) / u64::from(g.num_channels);
            let data_rows = groups_per_channel / blocks_per_row / u64::from(g.banks_per_module);
            let entries_per_row = g.row_bytes / g.st_entry_bytes;
            loc(g, Module::M1, lg / entries_per_row, data_rows)
        }
    }

    /// Every preset, the capacity-ratio variants the §5.2 study builds,
    /// and a geometry whose channel and group counts are not powers of two
    /// (3 channels over 6 MB of M1), so plain division is covered too.
    fn decode_geometries() -> Vec<Geometry> {
        use crate::config::SystemConfig;
        let mut out = Vec::new();
        for cfg in [
            SystemConfig::paper_quad(),
            SystemConfig::paper_single(),
            SystemConfig::scaled_quad(),
            SystemConfig::scaled_single(),
        ] {
            for ratio in [2, 4, 16] {
                out.push(cfg.with_capacity_ratio(ratio).org);
            }
            out.push(cfg.org);
        }
        out.push(Geometry::new(
            2048,
            64,
            4096,
            3,
            6 << 20,
            8,
            128,
            16,
            8192,
            8,
        ));
        out
    }

    #[test]
    fn decode_geometries_cover_shifts_and_plain_division() {
        let gs = decode_geometries();
        let odd = gs.last().expect("the odd geometry");
        assert_eq!(odd.num_groups(), 3072);
        assert!(odd.channels.shift.is_none() && odd.num_groups.shift.is_none());
        for g in &gs[..gs.len() - 1] {
            for d in [
                g.num_groups,
                g.lines_per_block,
                g.blocks_per_row,
                g.lines_per_page,
                g.channels,
                g.regions,
                g.banks,
                g.st_entries_per_row,
            ] {
                assert!(d.shift.is_some(), "{g:?}: {d:?}");
            }
        }
    }

    #[test]
    fn divisor_matches_the_operators() {
        check(
            "divisor_matches_the_operators",
            tuple2(u64_range(1..1 << 20), u64_range(0..u64::MAX)),
            |&(d, x)| {
                for d in [d, 1 << (d % 64)] {
                    let div = Divisor::new(d);
                    prop_assert_eq!(div.get(), d);
                    prop_assert_eq!(div.quotient(x), x / d);
                    prop_assert_eq!(div.remainder(x), x % d);
                    prop_assert_eq!(div.div_ceil(x), x.div_ceil(d));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn fast_decode_matches_the_division_reference() {
        let gs = decode_geometries();
        check(
            "fast_decode_matches_the_division_reference",
            tuple2(u8_range(0..gs.len() as u8), u64_range(0..1 << 40)),
            |&(i, x)| {
                let g = &gs[usize::from(i)];
                // The page split and the block split take any value; a
                // line of the original address space decomposes.
                prop_assert_eq!(g.page_split(x), reference::page_split(g, x));
                prop_assert_eq!(
                    g.block_to_group_slot(x),
                    reference::block_to_group_slot(g, x)
                );
                let line = x % (g.total_blocks() * g.lines_per_block());
                prop_assert_eq!(
                    g.decompose(OrigLineAddr(line)),
                    reference::decompose(g, line)
                );
                let block = line / g.lines_per_block();
                let (group, slot) = g.block_to_group_slot(block);
                prop_assert_eq!(g.region_of(group), reference::region_of(g, group));
                prop_assert_eq!(g.channel_of(group), reference::channel_of(g, group));
                prop_assert_eq!(g.local_group(group), reference::local_group(g, group));
                prop_assert_eq!(g.slot_loc(group, slot), reference::slot_loc(g, group, slot));
                prop_assert_eq!(g.st_entry_loc(group), reference::st_entry_loc(g, group));
                Ok(())
            },
        );
    }

    #[test]
    fn debug_text_names_only_the_geometry() {
        let text = format!("{:?}", small_geom());
        assert_eq!(
            text,
            "Geometry { block_bytes: 2048, line_bytes: 64, page_bytes: 4096, \
             num_channels: 2, m1_bytes: 8388608, m2_per_m1: 8, num_regions: 128, \
             banks_per_module: 16, row_bytes: 8192, st_entry_bytes: 8, \
             num_groups: 4096, groups_per_channel: 2048, lines_per_block: 32, \
             blocks_per_row: 4, m1_data_rows_per_bank: 32 }"
        );
    }

    #[test]
    #[should_panic(expected = "groups must divide evenly")]
    fn rejects_unbalanced_channels() {
        Geometry::new(2048, 64, 4096, 3, 8 << 20, 8, 128, 16, 8192, 8);
    }
}
