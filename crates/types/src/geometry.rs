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

/// The fully resolved geometry of a configured hybrid memory.
///
/// Constructed via [`Geometry::new`]; all derived quantities are
/// precomputed so the per-request mapping functions are cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    num_groups: u64,
    groups_per_channel: u64,
    lines_per_block: u64,
    blocks_per_row: u64,
    m1_data_rows_per_bank: u64,
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
            num_groups,
            groups_per_channel,
            lines_per_block: block_bytes / line_bytes,
            blocks_per_row,
            m1_data_rows_per_bank,
        }
    }

    /// Total number of swap groups (= number of M1 blocks).
    #[inline]
    pub fn num_groups(&self) -> u64 {
        self.num_groups
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
        self.num_groups * u64::from(self.slots_per_group())
    }

    /// Slots per swap group (1 M1 slot + `m2_per_m1` M2 slots).
    #[inline]
    pub fn slots_per_group(&self) -> u32 {
        1 + self.m2_per_m1
    }

    /// 64-byte lines per swap block (32 for 2 KB blocks).
    #[inline]
    pub fn lines_per_block(&self) -> u64 {
        self.lines_per_block
    }

    /// Total number of 4 KB pages in the original address space.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.total_bytes() / self.page_bytes
    }

    /// Blocks per OS page (2 for 4 KB pages and 2 KB blocks).
    #[inline]
    pub fn blocks_per_page(&self) -> u64 {
        self.page_bytes / self.block_bytes
    }

    /// Decomposes an original line address into (swap group, original slot,
    /// line offset within the block).
    #[inline]
    pub fn decompose(&self, line: OrigLineAddr) -> (GroupId, SlotIdx, u32) {
        let block = line.0 / self.lines_per_block;
        let offset = (line.0 % self.lines_per_block) as u32;
        let group = block % self.num_groups;
        let slot = (block / self.num_groups) as u8;
        debug_assert!(u32::from(slot) < self.slots_per_group());
        (GroupId(group), SlotIdx(slot), offset)
    }

    /// Composes an original line address from its parts (inverse of
    /// [`Geometry::decompose`]).
    #[inline]
    pub fn compose(&self, group: GroupId, slot: SlotIdx, line_in_block: u32) -> OrigLineAddr {
        let block = u64::from(slot.0) * self.num_groups + group.0;
        OrigLineAddr(block * self.lines_per_block + u64::from(line_in_block))
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
            GroupId(block % self.num_groups),
            SlotIdx((block / self.num_groups) as u8),
        )
    }

    /// The RSM region of a swap group: pairs of consecutive groups share a
    /// region and regions interleave (paper Figure 3).
    #[inline]
    pub fn region_of(&self, group: GroupId) -> RegionId {
        RegionId(((group.0 / 2) % u64::from(self.num_regions)) as u16)
    }

    /// The channel a swap group (and all nine of its locations) lives on.
    #[inline]
    pub fn channel_of(&self, group: GroupId) -> ChannelId {
        ChannelId((group.0 % u64::from(self.num_channels)) as u8)
    }

    /// The group index local to its channel.
    #[inline]
    pub fn local_group(&self, group: GroupId) -> u64 {
        group.0 / u64::from(self.num_channels)
    }

    /// Physical location (module, bank, row) of a slot of a swap group,
    /// within the group's channel.
    ///
    /// M1 blocks fill M1 rows bank-interleaved; M2 blocks are laid out so
    /// that, for a fixed slot, consecutive groups are adjacent in M2 (good
    /// row locality for streaming over original addresses).
    pub fn slot_loc(&self, group: GroupId, slot: SlotIdx) -> MemLoc {
        let lg = self.local_group(group);
        if slot.is_m1() {
            let row_global = lg / self.blocks_per_row;
            MemLoc {
                module: Module::M1,
                bank: (row_global % u64::from(self.banks_per_module)) as u32,
                row: row_global / u64::from(self.banks_per_module),
            }
        } else {
            let m2_block = (u64::from(slot.0) - 1) * self.groups_per_channel + lg;
            let row_global = m2_block / self.blocks_per_row;
            MemLoc {
                module: Module::M2,
                bank: (row_global % u64::from(self.banks_per_module)) as u32,
                row: row_global / u64::from(self.banks_per_module),
            }
        }
    }

    /// Physical location of the ST entry of a swap group, in the reserved
    /// ST area of M1 (rows beyond the data rows; paper §2.2: translation
    /// entries are stored in M1 and their access consumes M1 bandwidth).
    pub fn st_entry_loc(&self, group: GroupId) -> MemLoc {
        let lg = self.local_group(group);
        let entries_per_row = self.row_bytes / self.st_entry_bytes;
        let row_global = lg / entries_per_row;
        MemLoc {
            module: Module::M1,
            bank: (row_global % u64::from(self.banks_per_module)) as u32,
            row: self.m1_data_rows_per_bank + row_global / u64::from(self.banks_per_module),
        }
    }

    /// Size of the whole Swap-group Table in bytes.
    #[inline]
    pub fn st_total_bytes(&self) -> u64 {
        self.num_groups * self.st_entry_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic(expected = "groups must divide evenly")]
    fn rejects_unbalanced_channels() {
        Geometry::new(2048, 64, 4096, 3, 8 << 20, 8, 128, 16, 8192, 8);
    }
}
