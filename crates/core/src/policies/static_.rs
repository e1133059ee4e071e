//! The no-migration reference policy: data stays at its original location.

use super::{AccessCtx, Decision, MigrationPolicy};

/// Never migrates. Useful as a floor reference and for validating that the
/// organization itself is sound (all traffic to M2-original blocks pays M2
/// latency).
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticPolicy;

impl StaticPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        StaticPolicy
    }
}

impl MigrationPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "Static"
    }

    fn on_access(&mut self, _ctx: &mut AccessCtx<'_>) -> Decision {
        Decision::Stay
    }

    /// Stateless: snapshottable, with nothing to save.
    fn state(&mut self, _c: &mut profess_metrics::StateCodec<'_>) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use profess_types::ids::{ProgramId, SlotIdx};

    #[test]
    fn never_promotes() {
        let mut p = StaticPolicy::new();
        let (entry, mut st) = testutil::entry_pair();
        for s in SlotIdx::m2_slots() {
            let d = testutil::access(&mut p, &entry, &mut st, s, ProgramId(0), false, None);
            assert_eq!(d, Decision::Stay);
        }
        assert_eq!(p.name(), "Static");
        assert_eq!(p.write_weight(), 1);
    }
}
