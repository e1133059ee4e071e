//! Newtype identifiers used across the simulator.
//!
//! Each identifier is a thin wrapper over an integer index. They exist to
//! prevent cross-domain mix-ups (e.g. passing a swap-group id where a region
//! id is expected), per the newtype guidance of the Rust API guidelines.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $inner:ty) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_newtype!(
    /// A program (workload slot). All threads of a multi-threaded program
    /// would share one `ProgramId`; this reproduction uses single-threaded
    /// programs as in the paper's evaluation.
    ProgramId,
    u8
);

id_newtype!(
    /// A memory channel. Each channel hosts one M1 (DRAM) module and one
    /// M2 (NVM) module, as in Intel Purley (paper §2.2).
    ChannelId,
    u8
);

id_newtype!(
    /// An RSM region (paper §3.1.1). Hybrid memory is divided into
    /// interleaved regions along the swap groups; one region per program is
    /// private and the rest are shared.
    RegionId,
    u16
);

id_newtype!(
    /// A swap group: nine fixed physical locations, one in M1 and eight in
    /// M2 (paper Figure 1). Identified by a global index across channels.
    GroupId,
    u64
);

/// A slot within a swap group.
///
/// Slot 0 is the M1 location; slots 1..=8 are the M2 locations. Used both
/// for *original* slots (block identity: where the OS-allocated address
/// would live without migration) and *actual* slots (where the data
/// currently resides after swaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotIdx(pub u8);

impl SlotIdx {
    /// Slots in a swap group at the paper's 1:8 capacity ratio
    /// (1 M1 + 8 M2).
    pub const COUNT: usize = 9;

    /// Maximum supported slots per group (capacity ratios up to 1:16;
    /// ST-entry state arrays are sized for this).
    pub const MAX: usize = 17;

    /// The M1 slot of every swap group.
    pub const M1: SlotIdx = SlotIdx(0);

    /// Returns the raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this slot is the (single) M1 location of the group.
    #[inline]
    pub fn is_m1(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this slot is one of the eight M2 locations.
    #[inline]
    pub fn is_m2(self) -> bool {
        self.0 != 0
    }

    /// Iterates over the slots of a swap group with `count` slots.
    pub fn up_to(count: u32) -> impl Iterator<Item = SlotIdx> {
        (0..count as u8).map(SlotIdx)
    }

    /// Iterates over all nine slots of a 1:8 swap group.
    pub fn all() -> impl Iterator<Item = SlotIdx> {
        (0..Self::COUNT as u8).map(SlotIdx)
    }

    /// Iterates over the eight M2 slots of a 1:8 swap group.
    pub fn m2_slots() -> impl Iterator<Item = SlotIdx> {
        (1..Self::COUNT as u8).map(SlotIdx)
    }
}

impl fmt::Display for SlotIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_m1() {
            write!(f, "M1")
        } else {
            write!(f, "M2[{}]", self.0 - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_classification() {
        assert!(SlotIdx::M1.is_m1());
        assert!(!SlotIdx::M1.is_m2());
        for s in SlotIdx::m2_slots() {
            assert!(s.is_m2());
            assert!(!s.is_m1());
        }
        assert_eq!(SlotIdx::all().count(), 9);
        assert_eq!(SlotIdx::m2_slots().count(), 8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SlotIdx(0).to_string(), "M1");
        assert_eq!(SlotIdx(3).to_string(), "M2[2]");
        assert_eq!(GroupId(17).to_string(), "GroupId(17)");
    }

    #[test]
    fn id_ordering_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(GroupId(1));
        set.insert(GroupId(2));
        set.insert(GroupId(1));
        assert_eq!(set.len(), 2);
        assert!(GroupId(1) < GroupId(2));
    }

    #[test]
    fn from_raw() {
        assert_eq!(ProgramId::from(2u8), ProgramId(2));
        assert_eq!(RegionId::from(100u16).index(), 100);
    }
}
