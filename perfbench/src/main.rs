//! Runs one pass of one workload and prints its record as one JSON line.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--trace | --setup-only]
//! ```
//!
//! `run.py` in this directory starts one such process per pass, so that
//! peak memory and set-up time belong to a single pass of a single
//! workload, and aggregates the records.

use std::process::ExitCode;

use hiway_perfbench::json::Object;
use hiway_perfbench::traced::Kind;
use hiway_perfbench::{peak_rss_mb, run_pass, LayerStats, Mode, PassResult, Size, Workload};

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut mode = Mode::Plain;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = args.next().as_deref().and_then(Workload::from_name),
            "--seed" => seed = args.next().and_then(|s| s.parse::<u64>().ok()),
            "--trace" => mode = Mode::Traced,
            "--setup-only" => mode = Mode::SetupOnly,
            _ => return usage(&format!("unknown argument '{arg}'")),
        }
    }
    let Some(workload) = workload else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return usage(&format!("--workload must be one of {}", names.join(", ")));
    };
    let seed = seed.unwrap_or_else(|| workload.default_seed());
    let pass = run_pass(workload, Size::Full, seed, mode);
    println!("{}", record(workload, &pass));
    ExitCode::SUCCESS
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!("usage: perfbench --workload <name> [--seed <n>] [--trace | --setup-only]");
    ExitCode::from(2)
}

fn record(workload: Workload, pass: &PassResult) -> Object {
    let mut o = Object::default();
    o.str("workload", workload.name())
        .num("runs", pass.runs as f64)
        .num("failed_runs", pass.failed_runs as f64)
        .num("tasks", pass.tasks as f64)
        .num("setup_s", pass.setup_s)
        .num("wall_s", pass.wall_s)
        .num("cpu_s", pass.cpu_s)
        .num("makespan_s", pass.makespan_s)
        .num("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN))
        .strs("errors", &pass.errors);
    if let Some(layers) = &pass.layers {
        o.obj("layers", &layer_metrics(layers));
    }
    o
}

/// The per-layer metrics of one traced pass, named as in `BENCHMARK.json`.
fn layer_metrics(s: &LayerStats) -> Object {
    let mut o = Object::default();
    let completed = &s.lang.on_completed_s;
    let (tail_pct, tail_s) = tail(completed);
    o.num("lang.parse_s", s.parse_s)
        .num("lang.initial_tasks_s", s.lang.initial_tasks_s)
        .num("lang.on_completed_calls", completed.len() as f64)
        .num("lang.on_completed_s", completed.iter().sum())
        .num(
            "lang.on_completed_p50_us",
            percentile(completed, 50.0) * 1e6,
        )
        .num("lang.on_completed_tail_us", tail_s * 1e6)
        .num("lang.on_completed_tail_pct", tail_pct)
        .num("lang.tasks_discovered", s.lang.tasks_discovered as f64);

    o.num("sim.steps", s.steps as f64)
        .num("sim.events", s.events as f64)
        .num("sim.step_s", s.step_s)
        .num("sim.step_mean_us", ratio(s.step_s * 1e6, s.steps as f64));

    o.num("core.heartbeats", s.heartbeats as f64)
        .num("core.heartbeat_s", s.self_s(Kind::Heartbeat))
        .num(
            "core.heartbeat_idle_frac",
            ratio(s.idle_heartbeats as f64, s.heartbeats as f64),
        )
        .num("core.plan_s", s.plan_s)
        .num("core.stage_out_s", s.self_s(Kind::StageOut))
        .num(
            "core.dispatch_s.container_started",
            s.self_s(Kind::ContainerStarted),
        )
        .num("core.dispatch_s.stage_in", s.self_s(Kind::StageIn))
        .num("core.dispatch_s.exec", s.self_s(Kind::Exec))
        .num("core.dispatch_s.other", s.self_s(Kind::Other))
        .num(
            "core.task_wait_virtual_p50_s",
            percentile(&s.task_waits_virtual_s, 50.0),
        )
        .num("core.task_failures", s.task_failures as f64)
        .num("core.infra_failures", s.infra_failures as f64);

    let rounds = s.counter("rm.allocation_rounds") as f64;
    let allocated = s.counter("rm.containers_allocated") as f64;
    o.num("yarn.allocation_rounds", rounds)
        .num("yarn.requests", s.counter("rm.requests") as f64)
        .num("yarn.containers_allocated", allocated)
        .num("yarn.grants_per_round", ratio(allocated, rounds));

    let local = s.counter("hdfs.bytes_read_local") as f64;
    let remote = s.counter("hdfs.bytes_read_remote") as f64;
    let hits = s.counter("hdfs.locality_cache_hit") as f64;
    let misses = s.counter("hdfs.locality_cache_miss") as f64;
    o.num("hdfs.reads_planned", s.counter("hdfs.reads_planned") as f64)
        .num("hdfs.bytes_read_remote", remote)
        .num("hdfs.local_read_frac", ratio(local, local + remote))
        .num("hdfs.locality_cache_hit_frac", ratio(hits, hits + misses));

    o.num("provdb.docs", s.provdb_docs as f64).num(
        "provdb.docs_per_run",
        ratio(s.provdb_docs as f64, s.runs as f64),
    );

    o.num("obs.traced_wall_s", s.traced_wall_s).num(
        "obs.unattributed_frac",
        1.0 - ratio(s.attributed_s(), s.traced_wall_s),
    );
    o
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Linear-interpolated percentile of `values` (0 when empty).
fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest of a fixed ladder of percentiles that leaves at least ten
/// samples beyond it, with its value; the median when there are fewer
/// than twenty samples.
fn tail(values: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
    let n = values.len() as f64;
    let pct = LADDER
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, percentile(values, pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (0..1296).map(f64::from).collect();
        assert_eq!(tail(&values).0, 99.0);
        assert_eq!(tail(&values[..798]).0, 95.0);
        assert_eq!(tail(&values[..12]).0, 50.0);
        assert_eq!(percentile(&[1.0, 3.0], 50.0), 2.0);
    }
}
