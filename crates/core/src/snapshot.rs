//! Versioned, fingerprinted snapshots of a running simulation.
//!
//! A [`SystemSnapshot`] captures the complete simulation state of a
//! running system at a clock boundary (the top of the main loop): the
//! clock, every RNG stream, the page tables and token ring, the channel
//! and core microarchitectural state, the ST/STC contents, and the
//! per-policy counters. Restoring a snapshot into a freshly built system
//! (same configuration, same programs) and running to completion yields a
//! report *byte-identical* to the uninterrupted run — this equivalence is
//! pinned by `tests/snapshot.rs` across every policy.
//!
//! The wire format is a single [`Json`] object:
//!
//! ```text
//! {"kind":"system_snapshot","version":1,"config_fp":<u64>,
//!  "fp":<u64>,"payload":{...}}
//! ```
//!
//! `fp` is the FNV-1a fingerprint of the canonical emission of
//! `{"version":…,"config_fp":…,"payload":…}` — any single corrupted byte
//! is rejected at parse time with a typed [`SimError`], never a panic.
//! `config_fp` fingerprints the builder configuration (system config,
//! policy, program names, cycle cap); a snapshot only restores into a
//! system with the identical fingerprint.
//!
//! Floating-point state travels as exact bit patterns (16 hex digits of
//! `f64::to_bits`), never as decimal text, so restore is bit-exact.
//!
//! Observability state (tracers, per-channel histograms, pending trace
//! buffers) is deliberately *excluded*: snapshot bytes are identical
//! whether or not a run is traced, mirroring the report's own contract.

use profess_metrics::{fnv64, Json};

use crate::errors::SimError;

/// Snapshot wire-format version. Bump on any payload schema change;
/// restore rejects other versions with [`SimError::SnapshotVersion`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// Top-level payload fields, in emission order.
///
/// This constant is the source of truth for the snapshot schema: the
/// `schema_sync` test in `tests/conventions.rs` checks that the
/// DESIGN.md schema table documents exactly these fields.
pub const PAYLOAD_FIELDS: &[&str] = &[
    "clock",
    "retired",
    "restarts",
    "first_done",
    "core_stats",
    "cores",
    "channels",
    "stcs",
    "st",
    "alloc",
    "page_tables",
    "meta",
    "pending_st",
    "ch_next",
    "core_next",
    "policy",
];

/// A serializable snapshot of a mid-run [`System`](crate::system) at a
/// clock boundary. Produced by preemptible runs
/// ([`SystemBuilder::snapshot_at`](crate::system::SystemBuilder::snapshot_at),
/// [`SystemBuilder::snapshot_on_cancel`](crate::system::SystemBuilder::snapshot_on_cancel));
/// consumed by [`SystemBuilder::restore`](crate::system::SystemBuilder::restore).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSnapshot {
    config_fp: u64,
    payload: Json,
}

impl SystemSnapshot {
    /// Wraps an assembled payload (crate-internal: only
    /// `System::snapshot` builds payloads).
    pub(crate) fn new(config_fp: u64, payload: Json) -> Self {
        SystemSnapshot { config_fp, payload }
    }

    /// Fingerprint of the builder configuration this snapshot came from.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// The state payload (read access, for validators and tests).
    pub fn payload(&self) -> &Json {
        &self.payload
    }

    /// Simulated cycle at which the snapshot was taken.
    pub fn clock(&self) -> u64 {
        self.payload
            .get("clock")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// The fingerprinted body: everything except `kind` and `fp`.
    fn body(&self) -> Json {
        Json::obj([
            ("version", Json::UInt(u64::from(SNAPSHOT_VERSION))),
            ("config_fp", Json::UInt(self.config_fp)),
            ("payload", self.payload.clone()),
        ])
    }

    /// Serializes to the versioned, fingerprinted wire object.
    pub fn to_json(&self) -> Json {
        let fp = fnv64(self.body().to_string().as_bytes());
        Json::obj([
            ("kind", Json::Str("system_snapshot".to_string())),
            ("version", Json::UInt(u64::from(SNAPSHOT_VERSION))),
            ("config_fp", Json::UInt(self.config_fp)),
            ("fp", Json::UInt(fp)),
            ("payload", self.payload.clone()),
        ])
    }

    /// Deserializes from a wire object, enforcing kind, version, and
    /// fingerprint. Every failure is a typed [`SimError`]; this function
    /// never panics on hostile input.
    pub fn from_json(j: &Json) -> Result<Self, SimError> {
        let corrupt = |detail: &str| SimError::SnapshotCorrupt {
            detail: detail.to_string(),
        };
        match j.get("kind").and_then(Json::as_str) {
            Some("system_snapshot") => {}
            _ => return Err(corrupt("missing or wrong \"kind\"")),
        }
        let version = j
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("missing \"version\""))?;
        if version != u64::from(SNAPSHOT_VERSION) {
            return Err(SimError::SnapshotVersion {
                found: version,
                expected: u64::from(SNAPSHOT_VERSION),
            });
        }
        let config_fp = j
            .get("config_fp")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("missing \"config_fp\""))?;
        let fp = j
            .get("fp")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("missing \"fp\""))?;
        let payload = j
            .get("payload")
            .ok_or_else(|| corrupt("missing \"payload\""))?;
        let snap = SystemSnapshot {
            config_fp,
            payload: payload.clone(),
        };
        let want = fnv64(snap.body().to_string().as_bytes());
        if fp != want {
            return Err(corrupt("fingerprint mismatch"));
        }
        Ok(snap)
    }

    /// Parses the textual emission of [`SystemSnapshot::to_json`].
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let j = Json::parse(text).map_err(|e| SimError::SnapshotCorrupt {
            detail: format!("not valid JSON: {e}"),
        })?;
        SystemSnapshot::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SystemSnapshot {
        SystemSnapshot::new(
            0xdead_beef_0123_4567,
            Json::obj([("clock", Json::UInt(4242)), ("retired", Json::UInt(17))]),
        )
    }

    #[test]
    fn round_trip_is_byte_stable() {
        let snap = sample();
        let text = snap.to_json().to_string();
        let back = SystemSnapshot::parse(&text).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.to_json().to_string(), text);
        assert_eq!(back.clock(), 4242);
        assert_eq!(back.config_fingerprint(), 0xdead_beef_0123_4567);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut j = sample().to_json();
        // Rewrite the version field.
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "version" {
                    *v = Json::UInt(99);
                }
            }
        }
        match SystemSnapshot::from_json(&j) {
            Err(SimError::SnapshotVersion {
                found: 99,
                expected,
            }) => {
                assert_eq!(expected, u64::from(SNAPSHOT_VERSION));
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn payload_tamper_is_rejected() {
        let text = sample().to_json().to_string();
        let tampered = text.replace("4242", "4243");
        assert_ne!(tampered, text, "tamper must change the text");
        match SystemSnapshot::parse(&tampered) {
            Err(SimError::SnapshotCorrupt { detail }) => {
                assert!(detail.contains("fingerprint"), "{detail}");
            }
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let j = Json::obj([("kind", Json::Str("trace_event".to_string()))]);
        assert!(matches!(
            SystemSnapshot::from_json(&j),
            Err(SimError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn garbage_text_is_rejected_not_panicking() {
        for t in ["", "{", "[1,2", "{\"kind\":\"system_snapshot\"}", "nul"] {
            assert!(SystemSnapshot::parse(t).is_err(), "{t:?}");
        }
    }

    #[test]
    fn payload_fields_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for f in PAYLOAD_FIELDS {
            assert!(seen.insert(*f), "duplicate payload field {f}");
        }
    }
}
