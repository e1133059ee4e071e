#!/usr/bin/env bash
# Tier-1 gate (see README.md): format, lint, docs, build, test, smokes —
# fully offline. The clippy step is the conventions gate (DESIGN.md §9):
# the clippy.toml bans, the panic lints at the library roots and the
# forbidden `unsafe`; `cargo test` checks the schema, hermeticity and
# documentation conventions (tests/conventions.rs).
#
# The workspace is hermetic by policy: no external crates, so every step
# must succeed with the registry unreachable. --offline makes a
# regression (someone adding a crates.io dependency) fail loudly here
# rather than at the first network-less build.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# The conventions gate: determinism (no unordered maps, wall clock or
# ambient input in simulator state), threads only from profess-par, no
# processes, no panics in library code, no `unsafe`, and no
# `#[expect]` that suppresses nothing.
echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc gate: a doc link to a deleted, renamed or private item fails
# here instead of rotting silently.
echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release --workspace --offline"
cargo build --release --workspace --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

# Scheduler properties at volume: tier-1 runs the lockstep property
# (a channel keeping its standing FR-FCFS-Cap refusals against one that
# re-derives them on every call) at 64 cases and the pick property at
# 2048. A capped hit that must yield is rare in random streams, so both
# run again here at 4096 (the variable only raises a property's count).
echo "==> scheduler properties at 4096 cases (release)"
PROFESS_CHECK_CASES=4096 cargo test --release -q --offline -p profess-mem -- \
    pick_matches_the_scanning_reference standing_refusal_matches_hint_free_reference

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

# Bench smoke: run one experiment end to end with a tiny op budget so
# the parallel sweep engine and the BENCH_<name>.json perf artifact path
# stay exercised. The artifact lands in a scratch dir, not results/.
echo "==> bench smoke (fig05, tiny budget)"
PROFESS_RESULTS_DIR="$smoke_dir" \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig05 200 > /dev/null
test -s "$smoke_dir/BENCH_fig05.json"

# Golden smoke: the benchmark's short_cells workload runs all 19 mixes
# under PoM and ProFess and holds every cell, plus the public sweep's
# rows, to examples/perf/golden.json; it exits 1 on any mismatch. So a
# scheduler or core change that is not exact fails here in seconds, not
# only in the benchmark pipeline.
echo "==> golden smoke (perf --workload short_cells)"
cargo run --release --offline -q --example perf -- --workload short_cells > /dev/null
# short_cells keeps queues shallow. surface_rw (read fractions 0.5–0.9,
# queue depth p99 63) holds a scheduler that is inexact only under load
# to the same goldens, in about 4 s.
echo "==> golden smoke at deep queues (perf --workload surface_rw)"
cargo run --release --offline -q --example perf -- --workload surface_rw > /dev/null
# churn_attack is the only workload that runs MemPod's poll path, where a
# swap marks a channel's cached next event stale outside the served path,
# so it holds the run loop's step-local sets to the goldens there.
echo "==> golden smoke on MemPod's poll path (perf --workload churn_attack)"
cargo run --release --offline -q --example perf -- --workload churn_attack > /dev/null
# fig16_sweep runs the paper's headline cells (w09/w16/w19, PoM and
# ProFess, 60k ops): long contended quad runs, where the core wake-ups
# and the channels' in-order completions carry the most traffic.
echo "==> golden smoke on the headline sweep (perf --workload fig16_sweep)"
cargo run --release --offline -q --example perf -- --workload fig16_sweep > /dev/null

# Traced smoke: the same figure with --trace must write a well-formed
# TRACE_fig05.jsonl containing every event kind the tracer promises.
# The budget must exceed the scaled RSM sampling period (m_samp = 8K):
# shorter runs never close a period, so no rsm_epoch would be emitted.
echo "==> traced bench smoke (fig05 --trace)"
PROFESS_RESULTS_DIR="$smoke_dir" \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig05 --trace 10000 > /dev/null
test -s "$smoke_dir/TRACE_fig05.jsonl"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    trace "$smoke_dir/TRACE_fig05.jsonl" \
    run swap_begin swap_complete mdm_decision rsm_epoch queue_sample hist counters

# Guided traced smoke: fig16 runs ProFess, whose decisions the run's
# RSM steers, so its trace must carry the same event kinds plus at
# least one decision under Table 7's Case 1 (`help_m2`).
echo "==> traced bench smoke (fig16 --trace, RSM-guided)"
PROFESS_RESULTS_DIR="$smoke_dir" \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig16 --trace 10000 > /dev/null
test -s "$smoke_dir/TRACE_fig16.jsonl"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    trace "$smoke_dir/TRACE_fig16.jsonl" \
    run swap_begin swap_complete mdm_decision rsm_epoch queue_sample hist counters
grep -q '"type":"mdm_decision".*"case":"help_m2"' "$smoke_dir/TRACE_fig16.jsonl"

# Resilience smoke: supervised sweep execution end to end (DESIGN.md
# §10) — an injected fault must surface as a per-cell outcome in the
# perf artifact, and a sweep killed mid-run must resume from its
# checkpoint journal instead of starting over.
echo "==> resilience smoke (fig10_12: injected fault, kill, resume)"
# (a) A terminal injected panic (poisoned past the retry budget) fails
# exactly its cell: the sweep exits exit::SWEEP_FAILURE (3) and the
# cells array records the exhausted outcome with its retry history.
rc=0
PROFESS_RESULTS_DIR="$smoke_dir" PROFESS_THREADS=2 PROFESS_RETRIES=1 \
    PROFESS_FAULT='panic@2*9' \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig10_12 400 w01 \
    > /dev/null 2>&1 || rc=$?
test "$rc" -eq 3
grep -q '"status":"exhausted"' "$smoke_dir/BENCH_fig10_12.json"
grep -q 'injected fault' "$smoke_dir/BENCH_fig10_12.json"
# (b) Kill-and-resume: an injected process exit (code 86) mid-sweep
# leaves a journal of the finished cells; the rerun restores them,
# executes only the remainder, and the journal validates strictly.
# Serial on the faulted pass so cells before the kill point complete.
ckpt="$smoke_dir/CHECKPOINT_fig10_12.jsonl"
rc=0
PROFESS_RESULTS_DIR="$smoke_dir" PROFESS_CHECKPOINT="$smoke_dir" \
    PROFESS_THREADS=1 PROFESS_FAULT='exit@6' \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig10_12 400 w01 w08 \
    > /dev/null 2>&1 || rc=$?
test "$rc" -eq 86
test -s "$ckpt"
PROFESS_RESULTS_DIR="$smoke_dir" PROFESS_CHECKPOINT="$smoke_dir" \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig10_12 400 w01 w08 \
    > "$smoke_dir/resume.out"
grep -q 'restored from journal' "$smoke_dir/resume.out"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- journal "$ckpt"
# (c) With no journal nothing is restored, though fig13_15's second pass
# reuses the cells its first pass ran.
env -u PROFESS_CHECKPOINT PROFESS_RESULTS_DIR="$smoke_dir" \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig13_15 400 \
    > "$smoke_dir/fig13_15.out"
if grep -q 'restored from journal' "$smoke_dir/fig13_15.out"; then
    echo "fig13_15 without a journal claims a journal restore" >&2
    exit 1
fi

# Snapshot smoke: mid-run preempt/restore end to end (DESIGN.md §11).
# A golden uninterrupted sweep pins the ROWS_<name>.json row artifact;
# then the same sweep with every cell's first attempt preempted at a
# clock (PROFESS_SNAPSHOT_AT) journals one snapshot per cell, and the
# supervisor's retry warm-starts each from its snapshot. The resumed
# sweep's rows must be byte-identical to the golden ones, the journal
# must strict-decode with one line per cell key and every journaled
# snapshot decoding, and the perf artifact must report zero dropped
# journal lines.
echo "==> snapshot smoke (fig10_12: preempt at a clock, warm-start, diff)"
snap_dir="$smoke_dir/snap"
mkdir -p "$snap_dir"
PROFESS_RESULTS_DIR="$snap_dir" PROFESS_THREADS=2 \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig10_12 400 w01 \
    > /dev/null
test -s "$snap_dir/ROWS_fig10_12.json"
mv "$snap_dir/ROWS_fig10_12.json" "$snap_dir/ROWS_golden.json"
PROFESS_RESULTS_DIR="$snap_dir" PROFESS_THREADS=2 PROFESS_RETRIES=1 \
    PROFESS_CHECKPOINT="$snap_dir" PROFESS_SNAPSHOT=1 PROFESS_SNAPSHOT_AT=1000 \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig10_12 400 w01 \
    > "$snap_dir/preempt.out" 2> /dev/null
grep -q 'preempted into snapshot' "$snap_dir/BENCH_fig10_12.json"
# Preemption is a returned value, never a panic. (`set -e` ignores a
# negated command, hence the explicit exit.)
! grep -q 'panicked: preempted' "$snap_dir/BENCH_fig10_12.json" || exit 1
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    journal --min-snapshots 1 "$snap_dir/CHECKPOINT_fig10_12.jsonl"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    diff "$snap_dir/ROWS_golden.json" "$snap_dir/ROWS_fig10_12.json"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    sweep "$snap_dir/BENCH_fig10_12.json"

# Surface smoke: the bandwidth–latency characterization end to end
# (DESIGN.md §13). A tiny 2x2 grid over two policies pins the golden
# SURFACE json; the validator checks schema, grid order and latency
# monotonicity; then a sweep killed mid-grid by an injected exit (code
# 86) resumes from its checkpoint journal and must reproduce the golden
# artifact byte-for-byte.
echo "==> surface smoke (2x2 grid: validate, kill, resume, diff)"
surf_dir="$smoke_dir/surface"
mkdir -p "$surf_dir"
PROFESS_RESULTS_DIR="$surf_dir" PROFESS_THREADS=2 \
    PROFESS_SURFACE_RATIOS=0.6,0.9 PROFESS_SURFACE_INTENSITIES=8,32 \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- surface 2000 pom profess \
    > /dev/null
test -s "$surf_dir/SURFACE_surface.json"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    surface "$surf_dir/SURFACE_surface.json"
# Committed-golden gate: this exact 2x2 config is pinned byte-for-byte
# by results/SURFACE_ci.json — any drift in the characterization
# numbers is a simulator behaviour change and must be a reviewed
# refresh of the committed artifact, never an accident.
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    diff results/SURFACE_ci.json "$surf_dir/SURFACE_surface.json"
mv "$surf_dir/SURFACE_surface.json" "$surf_dir/SURFACE_golden.json"
rc=0
PROFESS_RESULTS_DIR="$surf_dir" PROFESS_CHECKPOINT="$surf_dir" \
    PROFESS_THREADS=1 PROFESS_FAULT='exit@3' \
    PROFESS_SURFACE_RATIOS=0.6,0.9 PROFESS_SURFACE_INTENSITIES=8,32 \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- surface 2000 pom profess \
    > /dev/null 2>&1 || rc=$?
test "$rc" -eq 86
test -s "$surf_dir/CHECKPOINT_surface.jsonl"
PROFESS_RESULTS_DIR="$surf_dir" PROFESS_CHECKPOINT="$surf_dir" PROFESS_THREADS=2 \
    PROFESS_SURFACE_RATIOS=0.6,0.9 PROFESS_SURFACE_INTENSITIES=8,32 \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- surface 2000 pom profess \
    > "$surf_dir/resume.out"
grep -q 'restored from journal' "$surf_dir/resume.out"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    diff "$surf_dir/SURFACE_golden.json" "$surf_dir/SURFACE_surface.json"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    journal "$surf_dir/CHECKPOINT_surface.jsonl"

# Journal smoke: retry, kill and resume against committed goldens
# (DESIGN.md §10.3). A serial sweep whose first pending cell panics on
# its first attempt (retried) and which is killed by an injected exit
# (code 86) at pending cell 3 must leave a journal of the finished
# cells; a plain serial rerun restores them and runs the rest. Journal
# lines land in completion order, so only a serial run reproduces the
# committed journal byte-for-byte; the rows match at any thread count.
# `profess-validate journal` strict-decodes the journal and holds it to
# one line per cell key (no cell executed twice).
echo "==> journal smoke (fig10_12: serial retry, kill, resume, diff)"
journal_dir="$smoke_dir/journal"
mkdir -p "$journal_dir"
rc=0
PROFESS_RESULTS_DIR="$journal_dir" PROFESS_CHECKPOINT="$journal_dir" \
    PROFESS_THREADS=1 PROFESS_RETRIES=1 PROFESS_FAULT='panic@0,exit@3' \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig10_12 400 w01 \
    > /dev/null 2>&1 || rc=$?
test "$rc" -eq 86
PROFESS_RESULTS_DIR="$journal_dir" PROFESS_CHECKPOINT="$journal_dir" PROFESS_THREADS=1 \
    cargo run --release --offline -q -p profess-bench --bin profess-run -- fig10_12 400 w01 \
    > "$journal_dir/resume.out"
grep -q 'restored from journal' "$journal_dir/resume.out"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    journal "$journal_dir/CHECKPOINT_fig10_12.jsonl"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    diff results/CHECKPOINT_shard_ci.jsonl "$journal_dir/CHECKPOINT_fig10_12.jsonl"
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    diff results/ROWS_shard_ci.json "$journal_dir/ROWS_fig10_12.json"

# Bench trend gate (DESIGN.md §12), last because it times the host and
# every step before it is deterministic: first prove the comparator itself —
# the committed synthetic >15% regression fixture MUST fail (exit 1) and
# the within-threshold fixture must pass — then gate the fresh engine
# bench against the committed results/ baseline. PROFESS_BENCH_BASELINE
# overrides the baseline directory for intentional trajectory resets.
echo "==> bench trend gate (profess-validate trend: fixture self-check + engine bench)"
gate_fixtures="crates/bench/tests/fixtures/benchgate"
rc=0
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    trend --baseline "$gate_fixtures/baseline" \
    "$gate_fixtures/fresh-regressed/BENCH_gatecheck.json" > /dev/null 2>&1 || rc=$?
test "$rc" -eq 1  # a missed synthetic regression means the gate is dead
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    trend --baseline "$gate_fixtures/baseline" \
    "$gate_fixtures/fresh-ok/BENCH_gatecheck.json" > /dev/null
PROFESS_RESULTS_DIR="$smoke_dir" PROFESS_BENCH_SAMPLES=7 \
    cargo bench --offline -q -p profess-bench --bench engine -- end_to_end \
    > /dev/null
cargo run --release --offline -q -p profess-bench --bin profess-validate -- \
    trend "$smoke_dir/BENCH_engine.json"

echo "ci: all tier-1 checks passed"
