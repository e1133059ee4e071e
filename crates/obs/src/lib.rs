//! Structured simulator observability: event tracing, counters, and
//! log2 histogram profiling — hermetic (no external crates), and free
//! when off.
//!
//! The simulator's headline numbers hinge on *why* individual
//! migrations happen, yet reports only expose end-of-run aggregates.
//! This crate adds the introspection layer:
//!
//! * [`TraceEvent`] — typed events for the swap lifecycle, MDM
//!   decisions, RSM epoch reports, and queue-occupancy samples,
//!   serialized one-per-line to a deterministic JSONL artifact;
//! * [`Log2Histogram`] — O(1) latency/occupancy histograms with
//!   p50/p95/p99 summaries, cheap enough for the hot path;
//! * [`Tracer`] / [`TraceSink`] — the off-by-default switch. The
//!   inert [`TraceSink::Off`] variant makes every emission site a
//!   single branch on a discriminant, and the closure-based
//!   [`Tracer::emit_with`] guarantees event *construction* is skipped
//!   too, so an instrumented simulator with tracing off reproduces the
//!   pinned report fingerprints byte-for-byte (see
//!   `tests/fingerprints.rs` at the workspace root).
//!
//! Tracing is enabled per run: explicitly via [`TraceConfig`], or by
//! default from the `PROFESS_TRACE` environment variable (the figure
//! binaries' `--trace` flag sets it). Buffering is bounded by an
//! [`EventRing`]; an overflowing trace reports its drop count rather
//! than growing without bound or silently passing for complete.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod hist;
pub mod ring;

pub use event::TraceEvent;
pub use hist::Log2Histogram;
pub use ring::EventRing;

use profess_metrics::emit::Json;

/// Environment variable enabling tracing (`1`/anything but `0`/empty).
pub const TRACE_ENV: &str = "PROFESS_TRACE";
/// Environment variable overriding the event-ring capacity.
pub const TRACE_BUF_ENV: &str = "PROFESS_TRACE_BUF";
/// Environment variable overriding the queue-sample period (served
/// requests between queue-occupancy samples).
pub const TRACE_SAMPLE_ENV: &str = "PROFESS_TRACE_SAMPLE";

/// Default event-ring capacity (events per run).
pub const DEFAULT_CAPACITY: usize = 1 << 16;
/// Default queue-sample period (served requests per sample).
pub const DEFAULT_SAMPLE_EVERY: u64 = 1024;

/// Per-run tracing configuration.
///
/// `SystemBuilder` defaults to [`TraceConfig::from_env`]; tests pass an
/// explicit config so they never mutate process-global environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; when false the tracer is the inert sink.
    pub enabled: bool,
    /// Event-ring capacity.
    pub capacity: usize,
    /// Served requests between queue-occupancy samples.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Tracing disabled (the zero-cost default).
    pub fn off() -> Self {
        TraceConfig {
            enabled: false,
            capacity: DEFAULT_CAPACITY,
            sample_every: DEFAULT_SAMPLE_EVERY,
        }
    }

    /// Tracing enabled with default capacity and sampling.
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::off()
        }
    }

    /// Reads `PROFESS_TRACE` / `PROFESS_TRACE_BUF` /
    /// `PROFESS_TRACE_SAMPLE`. Unset, empty, or `0` means off.
    pub fn from_env() -> Self {
        let enabled = std::env::var(TRACE_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        let capacity = std::env::var(TRACE_BUF_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_CAPACITY);
        let sample_every = std::env::var(TRACE_SAMPLE_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_SAMPLE_EVERY);
        TraceConfig {
            enabled,
            capacity,
            sample_every,
        }
    }
}

/// Where emitted events go.
///
/// The `Off` variant is the zero-cost contract: an emission site with
/// tracing off costs one enum-discriminant branch and constructs
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSink {
    /// Inert: events are neither constructed nor stored.
    Off,
    /// Buffer into a bounded ring, drained at end of run.
    Ring(EventRing<TraceEvent>),
}

/// The per-run event tracer owned by a simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct Tracer {
    sink: TraceSink,
}

impl Tracer {
    /// An inert tracer.
    pub fn off() -> Self {
        Tracer {
            sink: TraceSink::Off,
        }
    }

    /// A tracer honouring `cfg`.
    pub fn new(cfg: &TraceConfig) -> Self {
        Tracer {
            sink: if cfg.enabled {
                TraceSink::Ring(EventRing::new(cfg.capacity))
            } else {
                TraceSink::Off
            },
        }
    }

    /// True when events are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self.sink, TraceSink::Ring(_))
    }

    /// Emits the event built by `f` — `f` runs only when tracing is on,
    /// so hot paths pay nothing for argument marshalling when off.
    #[inline]
    pub fn emit_with<F: FnOnce() -> TraceEvent>(&mut self, f: F) {
        if let TraceSink::Ring(ring) = &mut self.sink {
            ring.push(f());
        }
    }

    /// Emits an already-built event (for cold paths).
    pub fn push(&mut self, event: TraceEvent) {
        if let TraceSink::Ring(ring) = &mut self.sink {
            ring.push(event);
        }
    }

    /// Drains the tracer into a [`TraceLog`]; `None` when off.
    pub fn into_log(self) -> Option<TraceLog> {
        match self.sink {
            TraceSink::Off => None,
            TraceSink::Ring(ring) => {
                let (events, dropped) = ring.into_parts();
                Some(TraceLog {
                    events,
                    dropped,
                    counters: Vec::new(),
                    hists: Vec::new(),
                })
            }
        }
    }
}

/// A drained trace: the buffered events plus end-of-run counters and
/// histogram summaries, ready to serialize as JSONL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Events in emission order (oldest first).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Named end-of-run counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Named histogram summaries (latency, occupancy).
    pub hists: Vec<(&'static str, Log2Histogram)>,
}

impl TraceLog {
    /// Appends a named counter to the summary.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.counters.push((name, value));
    }

    /// Appends a named histogram to the summary (empty ones are kept:
    /// an all-zero histogram is information too).
    pub fn hist(&mut self, name: &'static str, h: Log2Histogram) {
        self.hists.push((name, h));
    }

    /// How many buffered events have the given `type` discriminant.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// Serializes the log as JSONL: one line per event, then one
    /// `hist` line per histogram, then a final `counters` line (always
    /// present — it carries the drop count).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        for (name, h) in &self.hists {
            let mut obj = vec![
                ("type".to_string(), Json::Str("hist".to_string())),
                ("name".to_string(), Json::Str((*name).to_string())),
            ];
            if let Json::Obj(fields) = h.summary_json() {
                obj.extend(fields);
            }
            out.push_str(&Json::Obj(obj).to_string());
            out.push('\n');
        }
        let mut counters = vec![
            ("type".to_string(), Json::Str("counters".to_string())),
            ("events".to_string(), Json::UInt(self.events.len() as u64)),
            ("dropped".to_string(), Json::UInt(self.dropped)),
        ];
        for (name, v) in &self.counters {
            counters.push(((*name).to_string(), Json::UInt(*v)));
        }
        out.push_str(&Json::Obj(counters).to_string());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_builds_nothing() {
        let mut t = Tracer::off();
        assert!(!t.is_on());
        let mut built = false;
        t.emit_with(|| {
            built = true;
            TraceEvent::SwapComplete {
                at: 0,
                channel: 0,
                group: 0,
            }
        });
        assert!(!built, "emit_with must not run its closure when off");
        assert!(t.into_log().is_none());
    }

    #[test]
    fn on_tracer_buffers_in_order() {
        let mut t = Tracer::new(&TraceConfig::on());
        for at in 0..3 {
            t.emit_with(|| TraceEvent::SwapComplete {
                at,
                channel: 0,
                group: at,
            });
        }
        let log = t.into_log().expect("on tracer yields a log");
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.count_kind("swap_complete"), 3);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let mut t = Tracer::new(&TraceConfig::on());
        t.push(TraceEvent::SwapAbort {
            at: 1,
            group: 2,
            slot: 0,
            reason: "stale",
        });
        let mut log = t.into_log().unwrap();
        let mut h = Log2Histogram::new();
        h.record(5);
        log.hist("read_latency", h);
        log.counter("served", 42);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            Json::parse(line).expect("every JSONL line must parse");
        }
        assert!(lines[2].contains("\"served\":42"));
    }

    #[test]
    fn env_config_defaults_off() {
        // The test runner may not guarantee a clean env, but tier-1
        // never sets PROFESS_TRACE; guard the default contract.
        if std::env::var(TRACE_ENV).is_err() {
            assert!(!TraceConfig::from_env().enabled);
        }
        assert!(!TraceConfig::default().enabled);
        assert!(TraceConfig::on().enabled);
    }
}
