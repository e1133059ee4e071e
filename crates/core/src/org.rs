//! The Swap-group Table (ST): per-group address translations and
//! policy metadata.
//!
//! Every swap group has an 8 B ST entry holding, per the paper's Figure 4:
//! 4 address-translation bits per location (original slot → actual slot),
//! a 2-bit Quantized Access Counter (QAC) per location (MDM), the program
//! id of the block resident in M1 (ProFess), and — for the PoM baseline —
//! one competing counter. The backing store lives in M1 (its traffic is
//! modelled by the system layer); this structure is the architectural
//! state.

use profess_metrics::{State, StateCodec};
use profess_types::ids::{ProgramId, SlotIdx};
use profess_types::GroupId;

/// Quantized Access-Counter values (paper Table 5).
pub mod qac {
    /// Previously unseen block (default).
    pub const UNSEEN: u8 = 0;
    /// 1–7 accesses during the last STC residency.
    pub const LOW: u8 = 1;
    /// 8–31 accesses.
    pub const MID: u8 = 2;
    /// 32 or more accesses.
    pub const HIGH: u8 = 3;

    /// Quantizes a (non-zero) access count per Table 5.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero (a zero count never updates QAC).
    pub fn quantize(count: u32) -> u8 {
        assert!(count > 0, "QAC update requires a non-zero access count");
        match count {
            1..=7 => LOW,
            8..=31 => MID,
            _ => HIGH,
        }
    }

    /// Number of distinct QAC values (4: unseen + three classes).
    pub const NUM_Q: usize = 4;
    /// Number of valid eviction-time values (3: zero counts never update).
    pub const NUM_QE: usize = 3;
}

/// One swap group's ST entry.
///
/// State arrays are sized for [`SlotIdx::MAX`] so capacity ratios up to
/// 1:16 share one layout; slots beyond the configured ratio stay at their
/// identity mapping and are never referenced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StEntry {
    /// `actual[orig_slot]` = actual slot where the original block resides.
    actual: [SlotIdx; SlotIdx::MAX],
    /// QAC value per original slot (block identity).
    pub qac: [u8; SlotIdx::MAX],
    /// Program whose block currently occupies the M1 location (ProFess
    /// stores this in the entry; `None` until the M1-original block is
    /// allocated or a swap installs an owner).
    pub m1_owner: Option<ProgramId>,
    /// PoM's competing counter (one per entry, as in the paper's §3.2.1
    /// discussion of PoM ST entries).
    pub pom_ctr: i64,
    /// The M2 original slot currently competing for M1 under PoM.
    pub pom_slot: u8,
}

impl Default for StEntry {
    fn default() -> Self {
        StEntry {
            actual: std::array::from_fn(|i| SlotIdx(i as u8)),
            qac: [qac::UNSEEN; SlotIdx::MAX],
            m1_owner: None,
            pom_ctr: 0,
            pom_slot: 0,
        }
    }
}

impl StEntry {
    /// The actual slot where original block `orig` currently resides.
    #[inline]
    pub fn actual_of(&self, orig: SlotIdx) -> SlotIdx {
        self.actual[orig.index()]
    }

    /// The original slot of the block currently residing at `actual`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is corrupt (no original slot maps there).
    #[inline]
    #[expect(
        clippy::panic,
        reason = "ST entries are permutations: a missing slot means memory corruption"
    )]
    pub fn resident_of(&self, actual: SlotIdx) -> SlotIdx {
        for o in SlotIdx::up_to(SlotIdx::MAX as u32) {
            if self.actual[o.index()] == actual {
                return o;
            }
        }
        panic!("corrupt ST entry: no block resides at {actual}");
    }

    /// Exchanges the actual locations of two original blocks (a fast swap
    /// within the group).
    pub fn swap(&mut self, a: SlotIdx, b: SlotIdx) {
        self.actual.swap(a.index(), b.index());
    }

    /// `true` if every original block sits at its original location.
    pub fn is_identity(&self) -> bool {
        SlotIdx::up_to(SlotIdx::MAX as u32).all(|s| self.actual[s.index()] == s)
    }
}

/// The full Swap-group Table.
#[derive(Debug)]
pub struct SwapTable {
    entries: Vec<StEntry>,
}

impl SwapTable {
    /// Creates the table with identity mappings for `num_groups` groups.
    pub fn new(num_groups: u64) -> Self {
        SwapTable {
            entries: vec![StEntry::default(); num_groups as usize],
        }
    }

    /// Shared access to a group's entry.
    #[inline]
    pub fn entry(&self, group: GroupId) -> &StEntry {
        &self.entries[group.index()]
    }

    /// Mutable access to a group's entry.
    #[inline]
    pub fn entry_mut(&mut self, group: GroupId) -> &mut StEntry {
        &mut self.entries[group.index()]
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of groups whose M1 slot holds a non-original block (i.e. a
    /// promotion is in effect).
    pub fn promoted_groups(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.resident_of(SlotIdx::M1) != SlotIdx::M1)
            .count() as u64
    }
}

impl State for StEntry {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("actual", &mut self.actual)?;
        if c.is_load() {
            let mut seen = [false; SlotIdx::MAX];
            for s in self.actual {
                if std::mem::replace(&mut seen[s.index()], true) {
                    return Err("actual: slots are not a permutation".to_string());
                }
            }
        }
        c.field("qac", &mut self.qac)?;
        c.field("m1_owner", &mut self.m1_owner)?;
        c.field("pom_ctr", &mut self.pom_ctr)?;
        c.field("pom_slot", &mut self.pom_slot)
    }
}

/// An ST entry that differs from the identity default, with its group
/// index flattened into the entry's object as `"i"`.
#[derive(Default)]
struct Indexed {
    i: usize,
    entry: StEntry,
}

impl State for Indexed {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("i", &mut self.i)?;
        self.entry.state(c)
    }
}

/// The table length plus only the entries that differ from the identity
/// default: the table is overwhelmingly identity in any realistic run,
/// so the sparse form stays small. Loading requires the same length.
impl State for SwapTable {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let n = self.entries.len();
        let mut len = n;
        c.field("len", &mut len)?;
        if len != n {
            return Err(format!("len: snapshot has {len} groups, the table {n}"));
        }
        let default = StEntry::default();
        let mut sparse: Vec<Indexed> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| **e != default)
            .map(|(i, e)| Indexed {
                i,
                entry: e.clone(),
            })
            .collect();
        c.field("entries", &mut sparse)?;
        if c.is_load() {
            self.entries.fill(default);
            for Indexed { i, entry } in sparse {
                *self
                    .entries
                    .get_mut(i)
                    .ok_or_else(|| format!("entries: group {i} out of range"))? = entry;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_metrics::Json;

    #[test]
    fn quantize_matches_table5() {
        assert_eq!(qac::quantize(1), qac::LOW);
        assert_eq!(qac::quantize(7), qac::LOW);
        assert_eq!(qac::quantize(8), qac::MID);
        assert_eq!(qac::quantize(31), qac::MID);
        assert_eq!(qac::quantize(32), qac::HIGH);
        assert_eq!(qac::quantize(1000), qac::HIGH);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn quantize_rejects_zero() {
        qac::quantize(0);
    }

    #[test]
    fn identity_at_reset() {
        let st = SwapTable::new(4);
        for g in 0..4 {
            let e = st.entry(GroupId(g));
            assert!(e.is_identity());
            for s in SlotIdx::all() {
                assert_eq!(e.actual_of(s), s);
                assert_eq!(e.resident_of(s), s);
            }
        }
        assert_eq!(st.promoted_groups(), 0);
    }

    #[test]
    fn swap_updates_both_directions() {
        let mut st = SwapTable::new(2);
        let e = st.entry_mut(GroupId(0));
        // Promote original block 3 into M1.
        e.swap(SlotIdx(3), SlotIdx::M1);
        assert_eq!(e.actual_of(SlotIdx(3)), SlotIdx::M1);
        assert_eq!(e.actual_of(SlotIdx::M1), SlotIdx(3));
        assert_eq!(e.resident_of(SlotIdx::M1), SlotIdx(3));
        assert_eq!(e.resident_of(SlotIdx(3)), SlotIdx::M1);
        assert!(!e.is_identity());
        assert_eq!(st.promoted_groups(), 1);
        // Swap back restores identity.
        st.entry_mut(GroupId(0)).swap(SlotIdx(3), SlotIdx::M1);
        assert!(st.entry(GroupId(0)).is_identity());
    }

    #[test]
    fn snapshot_round_trips_sparse_entries() {
        let mut st = SwapTable::new(8);
        st.entry_mut(GroupId(3)).swap(SlotIdx(5), SlotIdx::M1);
        st.entry_mut(GroupId(3)).qac[5] = qac::HIGH;
        st.entry_mut(GroupId(3)).m1_owner = Some(ProgramId(2));
        st.entry_mut(GroupId(6)).pom_ctr = -4;
        st.entry_mut(GroupId(6)).pom_slot = 7;
        let j = StateCodec::save(&mut st).expect("saves");
        // Only the two touched groups are encoded.
        let encoded = j.get("entries").and_then(Json::as_arr).expect("entries");
        assert_eq!(encoded.len(), 2);
        let mut back = SwapTable::new(8);
        StateCodec::load(&mut back, &j).expect("restores");
        for g in 0..8 {
            assert_eq!(back.entry(GroupId(g)), st.entry(GroupId(g)));
        }
        // Byte stability through a text round trip.
        let reparsed = Json::parse(&j.to_string()).expect("valid");
        assert_eq!(reparsed.to_string(), j.to_string());
    }

    #[test]
    fn restore_rejects_bad_tables() {
        let mut st = SwapTable::new(4);
        let wrong_len = StateCodec::save(&mut SwapTable::new(5)).expect("saves");
        assert!(StateCodec::load(&mut st, &wrong_len).is_err());
        // Non-permutation actual array.
        let mut broken = SwapTable::new(4);
        broken.entry_mut(GroupId(1)).swap(SlotIdx(2), SlotIdx::M1);
        let j = StateCodec::save(&mut broken).expect("saves");
        let text = j
            .to_string()
            .replace("\"actual\":[2,1,0", "\"actual\":[2,1,1");
        let j2 = Json::parse(&text).expect("valid");
        assert!(StateCodec::load(&mut st, &j2).is_err());
    }

    #[test]
    fn chained_swaps_stay_consistent() {
        let mut e = StEntry::default();
        e.swap(SlotIdx(1), SlotIdx::M1); // 1 -> M1
        e.swap(SlotIdx(2), SlotIdx(1)); // 2 -> where 1 now is (M1)? No:
                                        // swap exchanges the *actual* locations of original blocks 2 and 1.
        assert_eq!(e.actual_of(SlotIdx(2)), SlotIdx::M1);
        assert_eq!(e.actual_of(SlotIdx(1)), SlotIdx(2));
        assert_eq!(e.actual_of(SlotIdx::M1), SlotIdx(1));
        // Every actual slot has exactly one resident.
        let mut seen = [false; SlotIdx::MAX];
        for o in SlotIdx::up_to(SlotIdx::MAX as u32) {
            let a = e.actual_of(o);
            assert!(!seen[a.index()]);
            seen[a.index()] = true;
        }
    }
}
