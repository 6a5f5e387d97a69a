#!/usr/bin/env bash
# CI entry point: build, test, lint, and smoke-run the engine benchmark.
# Everything here is deterministic; the bench smoke also regenerates
# BENCH_engine.json so regressions in the engine hot path show up as a
# speedup drop in the artifact.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release --workspace

echo "==> rustfmt (first-party crates; compat/ shims are vendored as-is)"
cargo fmt --check -p hiway -p hiway-obs -p hiway-sim -p hiway-hdfs -p hiway-yarn \
  -p hiway-format -p hiway-lang -p hiway-provdb -p hiway-core \
  -p hiway-workloads -p hiway-recipes -p hiway-bench

echo "==> tests"
cargo test -q --workspace

echo "==> clippy (first-party crates; compat/ shims are vendored as-is)"
cargo clippy --all-targets -p hiway -p hiway-obs -p hiway-sim -p hiway-hdfs -p hiway-yarn \
  -p hiway-format -p hiway-lang -p hiway-provdb -p hiway-core \
  -p hiway-workloads -p hiway-recipes -p hiway-bench -- -D warnings

echo "==> engine benchmark smoke"
./target/release/bench_engine --quick BENCH_engine.json
cat BENCH_engine.json

echo "==> observability overhead smoke"
./target/release/bench_obs --quick BENCH_obs.json
cat BENCH_obs.json

echo "==> provenance store benchmark smoke"
./target/release/bench_provdb --quick BENCH_provdb.json
cat BENCH_provdb.json

echo "==> trace determinism gate (every policy, same seed, twice, byte-identical)"
for sched in fcfs data-aware round-robin heft adaptive; do
  ./target/release/hiway-trace --scheduler "$sched" --out-dir "/tmp/hiway_trace1_$sched" > /dev/null
  ./target/release/hiway-trace --scheduler "$sched" --out-dir "/tmp/hiway_trace2_$sched" > /dev/null
  for f in trace.perfetto.json trace.events.jsonl trace.gantt.txt; do
    if ! cmp -s "/tmp/hiway_trace1_$sched/$f" "/tmp/hiway_trace2_$sched/$f"; then
      echo "FAIL: $f ($sched) differs between two identically-seeded runs" >&2
      exit 1
    fi
  done
done
echo "trace artifacts byte-identical across runs for all five policies"

echo "==> chaos determinism gate (same seed, twice, byte-identical)"
./target/release/chaos > /tmp/chaos_run1.txt
./target/release/chaos > /tmp/chaos_run2.txt
if ! cmp -s /tmp/chaos_run1.txt /tmp/chaos_run2.txt; then
  echo "FAIL: chaos experiment is not deterministic across runs" >&2
  diff /tmp/chaos_run1.txt /tmp/chaos_run2.txt >&2 || true
  exit 1
fi
if ! cmp -s /tmp/chaos_run1.txt results/chaos.txt; then
  echo "FAIL: chaos output drifted from results/chaos.txt" >&2
  diff results/chaos.txt /tmp/chaos_run1.txt >&2 || true
  exit 1
fi
echo "chaos deterministic, matches results/chaos.txt"

echo "==> multi-tenancy fairness gate (same seed, twice, byte-identical)"
./target/release/multiwf > /tmp/multiwf_run1.txt
./target/release/multiwf > /tmp/multiwf_run2.txt
if ! cmp -s /tmp/multiwf_run1.txt /tmp/multiwf_run2.txt; then
  echo "FAIL: multiwf experiment is not deterministic across runs" >&2
  diff /tmp/multiwf_run1.txt /tmp/multiwf_run2.txt >&2 || true
  exit 1
fi
if ! cmp -s /tmp/multiwf_run1.txt results/multiwf.txt; then
  echo "FAIL: multiwf output drifted from results/multiwf.txt" >&2
  diff results/multiwf.txt /tmp/multiwf_run1.txt >&2 || true
  exit 1
fi
echo "multiwf deterministic, matches results/multiwf.txt"

echo "==> crash-and-resume determinism gate (same seed, twice, byte-identical)"
./target/release/resume > /tmp/resume_run1.txt
./target/release/resume > /tmp/resume_run2.txt
if ! cmp -s /tmp/resume_run1.txt /tmp/resume_run2.txt; then
  echo "FAIL: resume experiment is not deterministic across runs" >&2
  diff /tmp/resume_run1.txt /tmp/resume_run2.txt >&2 || true
  exit 1
fi
if ! cmp -s /tmp/resume_run1.txt results/resume.txt; then
  echo "FAIL: resume output drifted from results/resume.txt" >&2
  diff results/resume.txt /tmp/resume_run1.txt >&2 || true
  exit 1
fi
echo "resume deterministic, matches results/resume.txt"

echo "CI OK"
