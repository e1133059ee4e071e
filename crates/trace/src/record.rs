//! Trace recording and replay.
//!
//! The evaluation normally *generates* op streams on the fly; for
//! repeatable A/B studies (or to import externally produced traces) this
//! module captures a stream to a compact line-based file and replays it
//! as an [`OpSource`].
//!
//! File format (one op per line, `#`-comments allowed):
//!
//! ```text
//! # profess-trace v1
//! <gap> <L|S> <line> <0|1>
//! ```
//!
//! where `gap` is the non-memory instruction count, `L`/`S` load or
//! store, `line` the 64 B line index, and the final flag marks dependent
//! loads.

use std::io::{BufRead, Write};

use profess_cpu::{MemOp, MemOpKind, OpSource};

/// Magic header line of the trace format.
pub const HEADER: &str = "# profess-trace v1";

/// Serializable form of one memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions before this op.
    pub gap: u32,
    /// `true` for stores.
    pub store: bool,
    /// 64 B line index.
    pub line: u64,
    /// Dependent load (pointer chase).
    pub dependent: bool,
}

impl From<MemOp> for TraceOp {
    fn from(op: MemOp) -> Self {
        TraceOp {
            gap: op.gap,
            store: op.kind == MemOpKind::Store,
            line: op.line,
            dependent: op.dependent,
        }
    }
}

impl From<TraceOp> for MemOp {
    fn from(t: TraceOp) -> Self {
        MemOp {
            gap: t.gap,
            kind: if t.store {
                MemOpKind::Store
            } else {
                MemOpKind::Load
            },
            line: t.line,
            dependent: t.dependent,
        }
    }
}

/// Error raised by trace parsing.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and content).
    Parse(usize, String),
    /// Missing or wrong header.
    BadHeader,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse(n, l) => write!(f, "malformed trace line {n}: {l:?}"),
            TraceError::BadHeader => write!(f, "missing profess-trace header"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Drains `source` (up to `max_ops` operations) into `w` in the trace
/// format and flushes it. Returns the number of ops written.
///
/// # Errors
///
/// Propagates I/O errors from the writer, the final flush included.
pub fn record<W: Write>(
    source: &mut dyn OpSource,
    max_ops: u64,
    mut w: W,
) -> Result<u64, TraceError> {
    writeln!(w, "{HEADER}")?;
    let mut n = 0;
    while n < max_ops {
        let Some(op) = source.next_op() else { break };
        let t = TraceOp::from(op);
        writeln!(
            w,
            "{} {} {} {}",
            t.gap,
            if t.store { 'S' } else { 'L' },
            t.line,
            u8::from(t.dependent)
        )?;
        n += 1;
    }
    w.flush()?;
    Ok(n)
}

/// Parses a trace into memory. Use [`TraceReplay::new`] to turn it into an
/// op source.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failures, a bad header, or malformed
/// lines.
pub fn parse<R: BufRead>(r: R) -> Result<Vec<TraceOp>, TraceError> {
    let mut lines = r.lines();
    match lines.next() {
        Some(Ok(h)) if h.trim() == HEADER => {}
        Some(Ok(_)) | None => return Err(TraceError::BadHeader),
        Some(Err(e)) => return Err(e.into()),
    }
    let mut ops = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        let s = line.trim();
        if s.is_empty() || s.starts_with('#') {
            continue;
        }
        let mut parts = s.split_whitespace();
        let parse_err = || TraceError::Parse(i + 2, s.to_string());
        let gap: u32 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(parse_err)?;
        let store = match parts.next() {
            Some("L") => false,
            Some("S") => true,
            _ => return Err(parse_err()),
        };
        let line_idx: u64 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(parse_err)?;
        let dependent = match parts.next() {
            Some("0") => false,
            Some("1") => true,
            _ => return Err(parse_err()),
        };
        if parts.next().is_some() {
            return Err(parse_err());
        }
        ops.push(TraceOp {
            gap,
            store,
            line: line_idx,
            dependent,
        });
    }
    Ok(ops)
}

/// Replays a parsed trace as an [`OpSource`].
#[derive(Debug, Clone)]
pub struct TraceReplay {
    ops: std::sync::Arc<[TraceOp]>,
    pos: usize,
}

impl TraceReplay {
    /// Creates a replay over `ops` (shareable across program instances).
    pub fn new(ops: impl Into<std::sync::Arc<[TraceOp]>>) -> Self {
        TraceReplay {
            ops: ops.into(),
            pos: 0,
        }
    }

    /// Remaining operations.
    pub fn remaining(&self) -> usize {
        self.ops.len() - self.pos
    }
}

impl OpSource for TraceReplay {
    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.ops.get(self.pos).copied()?;
        self.pos += 1;
        Some(op.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecProgram;

    #[test]
    fn record_and_replay_roundtrip() {
        let mut gen = SpecProgram::Soplex.generator(64, 20_000, 9);
        let mut buf = Vec::new();
        let n = record(&mut gen, 500, &mut buf).expect("record");
        assert_eq!(n, 500);
        let ops = parse(buf.as_slice()).expect("parse");
        assert_eq!(ops.len(), 500);
        // Replaying yields the same ops the generator produced.
        let mut gen2 = SpecProgram::Soplex.generator(64, 20_000, 9);
        let mut replay = TraceReplay::new(ops);
        for _ in 0..500 {
            assert_eq!(replay.next_op(), gen2.next_op());
        }
        assert_eq!(replay.remaining(), 0);
        assert_eq!(replay.next_op(), None);
    }

    /// A sink whose every write fails.
    struct FailingSink;

    impl Write for FailingSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn record_reports_a_failed_final_flush() {
        // The buffer holds the whole trace, so the sink is first touched
        // by the final flush.
        let mut gen = SpecProgram::Soplex.generator(64, 20_000, 9);
        let w = std::io::BufWriter::with_capacity(1 << 16, FailingSink);
        match record(&mut gen, 10, w) {
            Err(TraceError::Io(e)) => assert_eq!(e.to_string(), "disk full"),
            other => panic!("expected an i/o error, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = format!("{HEADER}\n# comment\n\n3 L 42 0\n0 S 7 0\n");
        let ops = parse(text.as_bytes()).expect("parse");
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].line, 42);
        assert!(ops[1].store);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse("nonsense\n1 L 2 0\n".as_bytes()),
            Err(TraceError::BadHeader)
        ));
    }

    #[test]
    fn rejects_malformed_line_with_position() {
        let text = format!("{HEADER}\n1 L 2 0\nbogus line\n");
        match parse(text.as_bytes()) {
            Err(TraceError::Parse(3, l)) => assert_eq!(l, "bogus line"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_fields() {
        let text = format!("{HEADER}\n1 L 2 0 junk\n");
        assert!(matches!(
            parse(text.as_bytes()),
            Err(TraceError::Parse(2, _))
        ));
    }

    #[test]
    fn trace_op_conversions() {
        let op = MemOp {
            gap: 5,
            kind: MemOpKind::Store,
            line: 99,
            dependent: false,
        };
        let t = TraceOp::from(op);
        assert_eq!(MemOp::from(t), op);
    }
}
