#!/usr/bin/env bash
# CI entry point: build, test, lint, smoke-run the perfbench host-cost
# benchmark and the provenance-store benchmark, then byte-gate the trace
# artifacts and every experiment's output. Everything gated here is
# deterministic; the provdb smoke also regenerates BENCH_provdb.json.
# Run outputs (traces, experiment text) land in ci-out/, which the
# workflow uploads as artifacts.
set -euo pipefail
cd "$(dirname "$0")"
out=ci-out
rm -rf "$out"
mkdir -p "$out"

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

echo "==> perfbench tests"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> perfbench smoke (fails on an errored run, a wrong task count, or a traced/untraced makespan mismatch)"
python3 perfbench/run.py --workload montage_heft_warmup --seconds 3

echo "==> provenance store benchmark smoke"
./target/release/bench_provdb --quick BENCH_provdb.json
cat BENCH_provdb.json

echo "==> trace determinism gate (every policy, fault-free and chaotic, twice, byte-identical)"
# The chaotic run (intensity 2, seed 8) has infrastructure failures and a
# speculative duplicate, so the attempt-teardown paths are byte-gated too.
for sched in fcfs data-aware round-robin heft adaptive; do
  for variant in fault-free chaotic; do
    extra=""
    if [ "$variant" = chaotic ]; then extra="--intensity 2 --seed 8"; fi
    for run in 1 2; do
      # shellcheck disable=SC2086 # $extra is a flag list
      ./target/release/hiway-trace --scheduler "$sched" $extra \
        --out-dir "$out/trace$run/$variant/$sched" > /dev/null
    done
    for f in trace.perfetto.json trace.events.jsonl trace.gantt.txt; do
      if ! cmp -s "$out/trace1/$variant/$sched/$f" "$out/trace2/$variant/$sched/$f"; then
        echo "FAIL: $f ($sched, $variant) differs between two identically-seeded runs" >&2
        exit 1
      fi
    done
  done
done
echo "trace artifacts byte-identical across runs for all five policies"

echo "==> experiment gate (each bin twice, byte-identical, matching results/)"
# The paper's figures and tables plus the chaos, multi-tenancy and
# crash-and-resume experiments.
for bin in chaos multiwf resume fig4 table2 fig6 fig8 fig9 table1 ablation; do
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

echo "CI OK"
