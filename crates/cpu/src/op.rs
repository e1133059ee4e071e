//! Abstract memory operations consumed by the core model.

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemOpKind {
    /// A demand load; the core may stall on its result.
    #[default]
    Load,
    /// A store; retires into the write buffer.
    Store,
}

/// One memory operation in a program's instruction stream.
///
/// `gap` non-memory instructions execute (at core width) before this
/// operation. `line` is a 64 B line index in the program's own address
/// space; the system layer translates it to a physical location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemOp {
    /// Non-memory instructions preceding this op.
    pub gap: u32,
    /// Load or store.
    pub kind: MemOpKind,
    /// 64 B line index in the program's address space.
    pub line: u64,
    /// If `true`, this load consumes the previous load's data and cannot
    /// issue before it completes (pointer chasing).
    pub dependent: bool,
}

/// A source of memory operations (implemented by the synthetic program
/// models in `profess-trace`).
///
/// Returning `None` ends the program (instruction budget exhausted).
pub trait OpSource {
    /// Produces the next memory operation, or `None` at end of program.
    fn next_op(&mut self) -> Option<MemOp>;
}

impl<F> OpSource for F
where
    F: FnMut() -> Option<MemOp>,
{
    fn next_op(&mut self) -> Option<MemOp> {
        self()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_an_op_source() {
        let mut n = 0u64;
        let mut src = move || {
            n += 1;
            if n <= 2 {
                Some(MemOp {
                    gap: 3,
                    kind: MemOpKind::Load,
                    line: n,
                    dependent: false,
                })
            } else {
                None
            }
        };
        assert!(src.next_op().is_some());
        assert!(src.next_op().is_some());
        assert!(src.next_op().is_none());
    }
}
