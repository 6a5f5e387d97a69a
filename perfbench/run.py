#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Hi-WAY reproduction.

Builds the `perfbench` package in this directory, then measures one
workload (or all three) by starting one `perfbench` process per pass, so
that peak memory and set-up time are never shared between passes or
warmed by an earlier workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

With `--trace 0` it repeats untraced passes for `--seconds` and reports
the end-to-end metrics as medians over passes; host cost is measured in
CPU seconds of the pass process. With `--trace 1` it
alternates traced and untraced passes and reports the per-layer metrics
(medians over traced passes) plus the tracing overhead. The last line of
standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
The exit code is 0 only if every workflow run completed with the expected
task count and every pass reproduced the same virtual makespan.

See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> tasks per workflow run (the correctness gate)
WORKLOADS = {
    "snv_cuneiform_fig4": 1296,
    "snv_static_128w": 2304,
    "montage_heft_warmup": 38,
}

# Set-up-only processes per measured run, on top of each pass's own set-up.
SETUP_SAMPLES = 20
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "cpu_s": "s",
    "makespan_s": "virtual_s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Printed with the end-to-end metrics but not part of the JSON result.
# `wall_s` swings with CPU time the hypervisor gives to other guests;
# `tasks_per_s` is a fixed task count over it; `failed_frac` reads 0 on a
# correct run (it is the result's failed/attempted).
DERIVED_UNITS = {"wall_s": "s", "tasks_per_s": "1/s", "failed_frac": "frac"}

LAYER_UNITS = {
    "lang.parse_s": "s",
    "lang.initial_tasks_s": "s",
    "lang.on_completed_calls": "count",
    "lang.on_completed_s": "s",
    "lang.on_completed_p50_us": "us",
    "lang.on_completed_tail_us": "us",
    "lang.on_completed_tail_pct": "pct",
    "lang.tasks_discovered": "count",
    "sim.steps": "count",
    "sim.events": "count",
    "sim.step_s": "s",
    "sim.step_mean_us": "us",
    "core.heartbeats": "count",
    "core.heartbeat_s": "s",
    "core.heartbeat_idle_frac": "frac",
    "core.plan_s": "s",
    "core.stage_out_s": "s",
    "core.dispatch_s.container_started": "s",
    "core.dispatch_s.stage_in": "s",
    "core.dispatch_s.exec": "s",
    "core.dispatch_s.other": "s",
    "core.task_wait_virtual_p50_s": "virtual_s",
    "core.task_failures": "count",
    "core.infra_failures": "count",
    "yarn.allocation_rounds": "count",
    "yarn.requests": "count",
    "yarn.containers_allocated": "count",
    "yarn.grants_per_round": "ratio",
    "hdfs.reads_planned": "count",
    "hdfs.bytes_read_remote": "bytes",
    "hdfs.local_read_frac": "frac",
    "hdfs.locality_cache_hit_frac": "frac",
    "provdb.docs": "count",
    "provdb.docs_per_run": "count",
    "obs.trace_overhead_frac": "frac",
    "obs.unattributed_frac": "frac",
    "failed_frac": "frac",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if proc.returncode != 0:
        log(f"perfbench: build failed with code {proc.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


class Budget:
    """Measuring time of one run: another lap starts only if a lap as long
    as the last one still ends within `seconds`."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds
        self.last = 0.0

    def lap(self, f):
        start = time.monotonic()
        result = f()
        self.last = time.monotonic() - start
        return result

    def room(self):
        return time.monotonic() + self.last <= self.end


class Bench:
    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.tasks_per_run = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.makespans = set()

    def child(self, *flags):
        """Runs one pass in its own process; returns its record or None."""
        cmd = [self.binary, "--workload", self.workload, *flags]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (OSError, subprocess.TimeoutExpired, IndexError, ValueError) as e:
            self.problems.append(f"pass {' '.join(flags)} crashed: {e}")
            return None
        if proc.returncode != 0:
            self.problems.append(f"pass exited with {proc.returncode}: {proc.stderr.strip()}")
            return None
        return rec

    def pass_(self, *flags):
        """Runs one measured pass and applies the correctness gate."""
        rec = self.child(*flags)
        if rec is None:
            self.attempted += 1
            self.failed += 1
            return None
        runs = int(rec["runs"])
        self.attempted += runs
        self.failed += int(rec["failed_runs"])
        self.problems.extend(rec["errors"])
        if rec["tasks"] != runs * self.tasks_per_run and rec["failed_runs"] == 0:
            self.failed += runs
            self.problems.append(
                f"completed {rec['tasks']:.0f} tasks, expected {runs * self.tasks_per_run}")
        self.makespans.add(rec["makespan_s"])
        return rec

    def setups(self, n):
        out = []
        for _ in range(n):
            rec = self.child("--setup-only")
            if rec is None or rec["failed_runs"]:
                self.problems.append("set-up failed")
                continue
            out.append(rec["setup_s"])
        return out

    def correct(self):
        if len(self.makespans) > 1:
            self.problems.append(f"virtual makespan differs between passes: {sorted(self.makespans)}")
        return self.failed == 0 and not self.problems

    def untraced(self, seconds):
        setups = self.setups(SETUP_SAMPLES)
        passes = []
        clock = Budget(seconds)
        while len(passes) < MIN_PASSES or clock.room():
            rec = clock.lap(self.pass_)
            if rec is None:
                break
            passes.append(rec)
        if not passes:
            return {}
        for key in ("cpu_s", "wall_s"):
            v = [p[key] for p in passes]
            log(f"perfbench: {self.workload}: {len(v)} passes, {key} min {min(v):.3f} "
                f"median {statistics.median(v):.3f} max {max(v):.3f}")
        wall = statistics.median(p["wall_s"] for p in passes)
        return {
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "wall_s": wall,
            "tasks_per_s": passes[0]["tasks"] / wall,
            "failed_frac": self.failed / max(self.attempted, 1),
            "makespan_s": passes[0]["makespan_s"],
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }

    def traced(self, seconds):
        traced, plain = [], []
        clock = Budget(seconds)
        while len(traced) < MIN_TRACED_PASSES or clock.room():
            t, p = clock.lap(lambda: (self.pass_("--trace"), self.pass_()))
            if t is None or p is None:
                break
            traced.append(t)
            plain.append(p)
        if not traced:
            return {}
        metrics = {
            name: statistics.median(t["layers"][name] for t in traced)
            for name in LAYER_UNITS
            if name in traced[0]["layers"]
        }
        traced_cpu = statistics.median(t["cpu_s"] for t in traced)
        plain_cpu = statistics.median(p["cpu_s"] for p in plain)
        metrics["obs.trace_overhead_frac"] = traced_cpu / plain_cpu - 1.0
        metrics["failed_frac"] = self.failed / max(self.attempted, 1)
        return metrics


def measure(binary, workload, seed, seconds, trace):
    bench = Bench(binary, workload, seed)
    if trace:
        values, units = bench.traced(seconds), LAYER_UNITS
    else:
        values, units = bench.untraced(seconds), E2E_UNITS
    correct = bench.correct()
    for p in bench.problems:
        log(f"perfbench: {workload}: {p}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    if len(metrics) != len(units):
        correct = False
    derived = {k: {"value": values[k], "unit": unit}
               for k, unit in DERIVED_UNITS.items() if k in values and k not in units}
    return correct, bench.attempted, bench.failed, metrics, derived


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the experiment's own seed: "
                         "72000, 12800, 7000)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics "
                         "(default: both, one after the other)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace is None else [args.trace]
    single = len(workloads) == 1 and len(modes) == 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        seed = None if args.seed is None else args.seed % 2**64
        for trace in modes:
            ok, att, fail, ms, derived = measure(binary, w, seed, args.seconds, trace)
            correct &= ok
            attempted += att
            failed += fail
            for name, m in {**ms, **derived}.items():
                print(f"{w:20} {name:34} {m['value']:>16.6g} {m['unit']}")
            for name, m in ms.items():
                metrics[name if single else f"{w}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
