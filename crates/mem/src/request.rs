//! Physical memory requests and completion records.

use profess_types::geometry::MemLoc;
use profess_types::Cycle;

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessKind {
    /// A 64 B read burst.
    #[default]
    Read,
    /// A 64 B write burst.
    Write,
}

impl AccessKind {
    /// Returns `true` for reads.
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

/// A 64 B request addressed at physical (module, bank, row) granularity.
///
/// `id` is an opaque caller token carried through to the [`Served`] record;
/// the memory-controller layer above uses it to route completions back to
/// cores, ST-fetch machinery, etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhysRequest {
    /// Caller-assigned token, echoed in the completion record.
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Physical target location.
    pub loc: MemLoc,
}

/// Completion record for a served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Served {
    /// The caller token of the request.
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Physical location served.
    pub loc: MemLoc,
    /// Cycle the request entered the channel queue.
    pub enqueued: Cycle,
    /// Cycle the data transfer completed.
    pub done: Cycle,
    /// Whether the access hit in the row buffer.
    pub row_hit: bool,
}

impl Served {
    /// Queueing + service latency in channel cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        (self.done - self.enqueued).raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_types::geometry::Module;

    #[test]
    fn latency_is_done_minus_enqueued() {
        let s = Served {
            id: 9,
            kind: AccessKind::Read,
            loc: MemLoc {
                module: Module::M1,
                bank: 0,
                row: 0,
            },
            enqueued: Cycle(10),
            done: Cycle(45),
            row_hit: true,
        };
        assert_eq!(s.latency(), 35);
        assert!(s.kind.is_read());
        assert!(!AccessKind::Write.is_read());
    }
}
