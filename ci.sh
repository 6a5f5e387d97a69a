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

echo "==> experiment gate (each bin twice, byte-identical, matching results/)"
# The paper's figures and tables plus the chaos, multi-tenancy and
# crash-and-resume experiments; fig4, table2 and fig6 (~20-30 s each)
# stay out of CI.
out=$(mktemp -d)
for bin in chaos multiwf resume fig8 fig9 table1 ablation; do
  ./target/release/"$bin" > "$out/$bin.1.txt"
  ./target/release/"$bin" > "$out/$bin.2.txt"
  if ! cmp -s "$out/$bin.1.txt" "$out/$bin.2.txt"; then
    echo "FAIL: $bin is not deterministic across runs" >&2
    diff "$out/$bin.1.txt" "$out/$bin.2.txt" >&2 || true
    exit 1
  fi
  if ! cmp -s "$out/$bin.1.txt" "results/$bin.txt"; then
    echo "FAIL: $bin output drifted from results/$bin.txt" >&2
    diff "results/$bin.txt" "$out/$bin.1.txt" >&2 || true
    exit 1
  fi
  echo "$bin deterministic, matches results/$bin.txt"
done
rm -rf "$out"

echo "CI OK"
