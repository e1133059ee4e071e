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

use profess_metrics::Json;
use profess_types::ids::{ProgramId, SlotIdx};
use profess_types::GroupId;

use crate::snapshot::{i64_from_json, i64_to_json, u64_from};

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
    pub fn resident_of(&self, actual: SlotIdx) -> SlotIdx {
        for o in SlotIdx::up_to(SlotIdx::MAX as u32) {
            if self.actual[o.index()] == actual {
                return o;
            }
        }
        // profess: allow(panic): ST entries are permutations — a missing slot means memory corruption
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

    /// Snapshot encoding of this entry (all fields, dense).
    fn snapshot_json(&self, index: u64) -> Json {
        Json::obj([
            ("i", Json::UInt(index)),
            (
                "actual",
                Json::Arr(
                    self.actual
                        .iter()
                        .map(|s| Json::UInt(u64::from(s.0)))
                        .collect(),
                ),
            ),
            (
                "qac",
                Json::Arr(self.qac.iter().map(|&q| Json::UInt(u64::from(q))).collect()),
            ),
            (
                "m1_owner",
                match self.m1_owner {
                    Some(p) => Json::UInt(u64::from(p.0)),
                    None => Json::Null,
                },
            ),
            ("pom_ctr", i64_to_json(self.pom_ctr)),
            ("pom_slot", Json::UInt(u64::from(self.pom_slot))),
        ])
    }

    /// Decodes a [`StEntry::snapshot_json`] object (minus the index).
    fn restore_json(j: &Json) -> Result<StEntry, String> {
        let actual_raw = j.field_arr("actual")?;
        let qac_raw = j.field_arr("qac")?;
        if actual_raw.len() != SlotIdx::MAX || qac_raw.len() != SlotIdx::MAX {
            return Err("ST entry arrays must have SlotIdx::MAX elements".to_string());
        }
        let mut e = StEntry::default();
        let mut seen = [false; SlotIdx::MAX];
        for (i, a) in actual_raw.iter().enumerate() {
            let v = u64_from(a, "actual slot")?;
            let v = usize::try_from(v).ok().filter(|&v| v < SlotIdx::MAX);
            let v = v.ok_or_else(|| "actual slot out of range".to_string())?;
            if seen[v] {
                return Err("ST entry actual slots are not a permutation".to_string());
            }
            seen[v] = true;
            e.actual[i] = SlotIdx(v as u8);
        }
        for (i, q) in qac_raw.iter().enumerate() {
            let v = u64_from(q, "qac value")?;
            e.qac[i] = u8::try_from(v).map_err(|_| "qac value out of range".to_string())?;
        }
        e.m1_owner = match j.get("m1_owner") {
            Some(Json::Null) => None,
            Some(Json::UInt(p)) => Some(ProgramId(
                u8::try_from(*p).map_err(|_| "m1_owner out of range".to_string())?,
            )),
            _ => return Err("missing or invalid \"m1_owner\"".to_string()),
        };
        e.pom_ctr = i64_from_json(
            j.get("pom_ctr")
                .ok_or_else(|| "missing \"pom_ctr\"".to_string())?,
            "pom_ctr",
        )?;
        let slot = j.field_u64("pom_slot")?;
        e.pom_slot = u8::try_from(slot).map_err(|_| "pom_slot out of range".to_string())?;
        Ok(e)
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

    /// Snapshot encoding: table length plus only the entries that differ
    /// from the identity default (the table is overwhelmingly identity in
    /// any realistic run, so the sparse form stays small).
    pub(crate) fn snapshot_json(&self) -> Json {
        let default = StEntry::default();
        let entries: Vec<Json> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| **e != default)
            .map(|(i, e)| e.snapshot_json(i as u64))
            .collect();
        Json::obj([
            ("len", Json::UInt(self.entries.len() as u64)),
            ("entries", Json::Arr(entries)),
        ])
    }

    /// Restores a [`SwapTable::snapshot_json`] encoding into this table
    /// (which must have been built for the same group count).
    pub(crate) fn restore_json(&mut self, j: &Json) -> Result<(), String> {
        let len = j.field_u64("len")?;
        if len != self.entries.len() as u64 {
            return Err(format!(
                "swap table length mismatch: snapshot has {len}, system has {}",
                self.entries.len()
            ));
        }
        let mut fresh = vec![StEntry::default(); self.entries.len()];
        for ej in j.field_arr("entries")? {
            let i = ej.field_u64("i")?;
            let i = usize::try_from(i)
                .ok()
                .filter(|&i| i < fresh.len())
                .ok_or_else(|| "swap table entry index out of range".to_string())?;
            fresh[i] = StEntry::restore_json(ej)?;
        }
        self.entries = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let j = st.snapshot_json();
        // Only the two touched groups are encoded.
        let encoded = j.get("entries").and_then(Json::as_arr).expect("entries");
        assert_eq!(encoded.len(), 2);
        let mut back = SwapTable::new(8);
        back.restore_json(&j).expect("restores");
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
        let wrong_len = SwapTable::new(5).snapshot_json();
        assert!(st.restore_json(&wrong_len).is_err());
        // Non-permutation actual array.
        let mut broken = SwapTable::new(4);
        broken.entry_mut(GroupId(1)).swap(SlotIdx(2), SlotIdx::M1);
        let j = broken.snapshot_json();
        let text = j
            .to_string()
            .replace("\"actual\":[2,1,0", "\"actual\":[2,1,1");
        let j2 = Json::parse(&text).expect("valid");
        assert!(st.restore_json(&j2).is_err());
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
