//! Per-bank state and command timing.

use profess_types::config::TechTiming;
use profess_types::Cycle;

use crate::request::AccessKind;

/// State of one DRAM/NVM bank for the open-page timing model.
#[derive(Debug, Clone, Copy)]
pub struct BankState {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Earliest cycle the next column command may issue.
    pub cas_ready: Cycle,
    /// Cycle of the last activate (for tRAS/tRC); `None` until the bank is
    /// first activated.
    pub last_act: Option<Cycle>,
    /// Earliest cycle a precharge may issue (write recovery).
    pub pre_ready: Cycle,
    /// Consecutive row-buffer hits served while older requests waited
    /// (for the FR-FCFS cap).
    pub hit_streak: u32,
    /// First-command cycle of any row miss on this bank, before the
    /// `max(now)` every plan applies: the precharge of an open row or the
    /// activate of a closed bank. Derived from the fields above and the
    /// bank's timing by [`BankState::derive_miss_first`]; never
    /// serialized.
    pub miss_first: Cycle,
}

impl Default for BankState {
    fn default() -> Self {
        BankState {
            open_row: None,
            cas_ready: Cycle::ZERO,
            last_act: None,
            pre_ready: Cycle::ZERO,
            hit_streak: 0,
            miss_first: Cycle::ZERO,
        }
    }
}

/// Timing outcome of scheduling one request on a bank.
#[derive(Debug, Clone, Copy)]
pub struct BankSchedule {
    /// Earliest cycle the column command can issue (before bus arbitration).
    pub cas_at: Cycle,
    /// Whether the access hits the open row.
    pub row_hit: bool,
    /// Whether the access requires a new activation.
    pub activates: bool,
}

impl BankState {
    /// Computes when this bank could issue the column command for an access
    /// to `row` if scheduling started at `now`, without mutating state.
    #[inline]
    pub fn plan(&self, t: &TechTiming, row: u64, now: Cycle) -> BankSchedule {
        match self.open_row {
            Some(open) if open == row => BankSchedule {
                cas_at: self.cas_ready.max(now),
                row_hit: true,
                activates: false,
            },
            Some(_) => {
                // Precharge at `miss_first` (tRAS and write recovery),
                // activate (tRC), then CAS after tRCD.
                let pre_at = self.miss_first.max(now);
                let last_act = self.last_act.unwrap_or(Cycle::ZERO);
                let act_at = (pre_at + t.t_rp).max(last_act + t.t_rc());
                BankSchedule {
                    cas_at: act_at + t.t_rcd,
                    row_hit: false,
                    activates: true,
                }
            }
            None => BankSchedule {
                // Activate at `miss_first` (tRC), then CAS after tRCD.
                cas_at: self.miss_first.max(now) + t.t_rcd,
                row_hit: false,
                activates: true,
            },
        }
    }

    /// Commits a planned access: the column command issues at `cas_at` and
    /// its data burst occupies `[data_start, data_end)`.
    pub fn commit(
        &mut self,
        t: &TechTiming,
        row: u64,
        plan: BankSchedule,
        kind: AccessKind,
        data_end: Cycle,
    ) {
        if plan.activates {
            // Reconstruct the activate instant implied by the plan.
            self.last_act = Some(plan.cas_at - Cycle(t.t_rcd));
            self.open_row = Some(row);
        }
        // The next column command may issue one burst (tCCD) after this
        // one's actual issue slot (data_end - CL), so that consecutive row
        // hits stream back-to-back on the data bus.
        self.cas_ready = data_end - Cycle(t.t_cl.min(data_end.raw()));
        self.pre_ready = match kind {
            AccessKind::Read => data_end,
            AccessKind::Write => data_end + t.t_wr,
        };
        self.derive_miss_first(t);
    }

    /// Applies a refresh at `at`: the open row closes and the bank is busy
    /// for `t.t_rfc` cycles.
    pub fn refresh(&mut self, t: &TechTiming, at: Cycle) {
        let start = self.cas_ready.max(self.pre_ready).max(at);
        self.open_row = None;
        self.cas_ready = start + t.t_rfc;
        self.pre_ready = self.cas_ready;
        self.hit_streak = 0;
        self.derive_miss_first(t);
    }

    /// Forces the bank busy until `until` with `row` left open (used by the
    /// swap engine, which transfers a whole 2 KB block through the row).
    pub fn occupy_until(&mut self, t: &TechTiming, row: u64, until: Cycle) {
        self.open_row = Some(row);
        self.cas_ready = until;
        self.pre_ready = until;
        self.last_act = Some(until.saturating_sub(Cycle(1)));
        self.hit_streak = 0;
        self.derive_miss_first(t);
    }

    /// Recomputes [`BankState::miss_first`] from the bank's state. Every
    /// mutation of `open_row`, `cas_ready`, `last_act` or `pre_ready` ends
    /// here.
    pub fn derive_miss_first(&mut self, t: &TechTiming) {
        self.miss_first = match self.open_row {
            // Precharge: tRAS after the activate, write recovery, and the
            // last column command.
            Some(_) => self
                .pre_ready
                .max(self.last_act.unwrap_or(Cycle::ZERO) + t.t_ras)
                .max(self.cas_ready),
            // Activate: tRC after the last one.
            None => self
                .cas_ready
                .max(self.last_act.map_or(Cycle::ZERO, |a| a + t.t_rc())),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_types::config::MemTimingConfig;

    fn m1() -> TechTiming {
        MemTimingConfig::paper().m1
    }

    #[test]
    fn closed_bank_activates_then_cas() {
        let b = BankState::default();
        let t = m1();
        let plan = b.plan(&t, 5, Cycle(100));
        assert!(!plan.row_hit);
        assert!(plan.activates);
        assert_eq!(plan.cas_at, Cycle(100 + t.t_rcd));
    }

    #[test]
    fn row_hit_issues_immediately() {
        let mut b = BankState::default();
        let t = m1();
        let plan = b.plan(&t, 5, Cycle(0));
        b.commit(&t, 5, plan, AccessKind::Read, Cycle(50));
        let hit = b.plan(&t, 5, Cycle(60));
        assert!(hit.row_hit);
        assert_eq!(hit.cas_at, Cycle(60));
    }

    #[test]
    fn row_conflict_pays_ras_rp_rcd() {
        let mut b = BankState::default();
        let t = m1();
        let plan = b.plan(&t, 5, Cycle(0));
        let act0 = plan.cas_at - Cycle(t.t_rcd);
        b.commit(&t, 5, plan, AccessKind::Read, Cycle(20));
        let conflict = b.plan(&t, 9, Cycle(21));
        assert!(!conflict.row_hit);
        // Precharge cannot issue before last_act + tRAS.
        let pre = (act0 + t.t_ras).max(Cycle(21)).max(Cycle(20));
        let _ = pre;
        assert_eq!(conflict.cas_at, pre + t.t_rp + t.t_rcd);
    }

    #[test]
    fn write_recovery_delays_precharge_only() {
        let mut b = BankState::default();
        let t = m1();
        let plan = b.plan(&t, 5, Cycle(0));
        b.commit(&t, 5, plan, AccessKind::Write, Cycle(30));
        // Same-row access (no precharge) can issue its CAS one burst after
        // the previous CAS slot (data_end - CL).
        assert_eq!(b.plan(&t, 5, Cycle(0)).cas_at, Cycle(30 - t.t_cl));
        // Different-row access must wait out tWR before precharging.
        let conflict = b.plan(&t, 6, Cycle(30));
        assert!(conflict.cas_at.raw() >= 30 + t.t_wr + t.t_rp + t.t_rcd);
    }

    #[test]
    fn refresh_closes_row_and_blocks() {
        let mut b = BankState::default();
        let t = m1();
        let plan = b.plan(&t, 5, Cycle(0));
        b.commit(&t, 5, plan, AccessKind::Read, Cycle(40));
        b.refresh(&t, Cycle(100));
        assert_eq!(b.open_row, None);
        assert_eq!(b.cas_ready, Cycle(100 + t.t_rfc));
    }

    #[test]
    fn occupy_until_blocks_bank() {
        let mut b = BankState::default();
        b.occupy_until(&m1(), 7, Cycle(500));
        assert_eq!(b.open_row, Some(7));
        assert_eq!(b.cas_ready, Cycle(500));
    }
}
