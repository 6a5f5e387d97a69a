//! The traced pass: the simulation loop of
//! [`Runtime::run_to_completion`](hiway_core::driver::Runtime::run_to_completion)
//! re-driven from outside through the public `Engine::step` and
//! `Runtime::dispatch_public`, with a host-clock timer around every call
//! into a layer and a delegating [`WorkflowSource`] wrapper that times the
//! front-end. Counts come from the repository's own `hiway-obs` counters.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use hiway_core::cluster::Tag;
use hiway_lang::ir::{LangError, TaskId, TaskSpec, WorkflowSource};
use hiway_obs::Tracer;
use hiway_sim::Completion;

use crate::{Outcome, Prepared};

/// The `hiway-obs` counters read after every traced run.
pub const OBS_COUNTERS: [&str; 8] = [
    "rm.allocation_rounds",
    "rm.requests",
    "rm.containers_allocated",
    "hdfs.reads_planned",
    "hdfs.bytes_read_local",
    "hdfs.bytes_read_remote",
    "hdfs.locality_cache_hit",
    "hdfs.locality_cache_miss",
];

/// Front-end (`hiway-lang`) time, measured by [`TimedSource`].
#[derive(Debug, Default)]
pub struct LangStats {
    pub initial_tasks_s: f64,
    /// Host seconds of every `on_task_completed` call, in call order.
    pub on_completed_s: Vec<f64>,
    pub tasks_discovered: usize,
    /// Running total of both, so the loop reads it in O(1).
    pub total_s: f64,
}

/// Delegates every [`WorkflowSource`] method to the wrapped front-end,
/// timing the two that do evaluation work.
pub struct TimedSource {
    inner: Box<dyn WorkflowSource>,
    stats: Rc<RefCell<LangStats>>,
}

impl WorkflowSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn language(&self) -> &'static str {
        self.inner.language()
    }

    fn initial_tasks(&mut self) -> Result<Vec<TaskSpec>, LangError> {
        let t = Instant::now();
        let result = self.inner.initial_tasks();
        let secs = t.elapsed().as_secs_f64();
        let mut stats = self.stats.borrow_mut();
        stats.initial_tasks_s += secs;
        stats.total_s += secs;
        stats.tasks_discovered += result.as_ref().map_or(0, Vec::len);
        result
    }

    fn on_task_completed(&mut self, task: TaskId) -> Result<Vec<TaskSpec>, LangError> {
        let t = Instant::now();
        let result = self.inner.on_task_completed(task);
        let secs = t.elapsed().as_secs_f64();
        let mut stats = self.stats.borrow_mut();
        stats.on_completed_s.push(secs);
        stats.total_s += secs;
        stats.tasks_discovered += result.as_ref().map_or(0, Vec::len);
        result
    }

    fn is_static(&self) -> bool {
        self.inner.is_static()
    }

    fn required_inputs(&self) -> Vec<String> {
        self.inner.required_inputs()
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
}

/// Dispatch kinds, one per `cluster::Tag` variant the benchmark splits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Heartbeat,
    ContainerStarted,
    StageIn,
    Exec,
    StageOut,
    Other,
}

impl Kind {
    fn of(tag: &Tag) -> Kind {
        match tag {
            Tag::Heartbeat { .. } => Kind::Heartbeat,
            Tag::ContainerStarted { .. } => Kind::ContainerStarted,
            Tag::StageIn { .. } => Kind::StageIn,
            Tag::Exec { .. } => Kind::Exec,
            Tag::StageOut { .. } => Kind::StageOut,
            Tag::RetryTask { .. } | Tag::Stress | Tag::Replication => Kind::Other,
        }
    }
}

/// Per-layer attribution of one traced pass, accumulated over its runs.
#[derive(Debug, Default)]
pub struct LayerStats {
    pub runs: usize,
    /// Host seconds from submission to final report, summed over runs.
    pub traced_wall_s: f64,
    pub parse_s: f64,
    pub lang: LangStats,
    pub steps: u64,
    pub events: u64,
    pub step_s: f64,
    /// Host seconds per dispatch kind, excluding the front-end time spent
    /// inside the dispatches and excluding the AM-start dispatch.
    pub dispatch_self_s: BTreeMap<Kind, f64>,
    pub heartbeats: u64,
    /// The dispatch in which the AM starts, minus `initial_tasks`.
    pub plan_s: f64,
    /// Heartbeats (AM-start dispatch included) that allocated nothing.
    pub idle_heartbeats: u64,
    pub task_waits_virtual_s: Vec<f64>,
    pub task_failures: u64,
    pub infra_failures: u64,
    pub counters: BTreeMap<&'static str, u64>,
    pub provdb_docs: usize,
}

impl LayerStats {
    /// Host seconds of every timed call: engine steps plus dispatches
    /// (front-end and plan time included).
    pub fn attributed_s(&self) -> f64 {
        self.step_s + self.dispatch_self_s.values().sum::<f64>() + self.plan_s + self.lang.total_s
    }

    pub fn self_s(&self, kind: Kind) -> f64 {
        self.dispatch_self_s.get(&kind).copied().unwrap_or(0.0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Executes a prepared run through the outside loop, accumulating into
/// `stats`. Stops at the same virtual instant as `run_to_completion`:
/// after the step in which the workflow finished or failed.
pub fn execute(p: Prepared, stats: &mut LayerStats) -> Outcome {
    let mut runtime = p.runtime;
    let tracer = Tracer::enabled();
    runtime.set_tracer(&tracer);
    stats.parse_s += p.parse_s;
    let lang = Rc::new(RefCell::new(LangStats::default()));
    let source = TimedSource {
        inner: p.source,
        stats: Rc::clone(&lang),
    };
    let wf = runtime.submit(Box::new(source), p.config, p.db);

    let mut am_started = false;
    let mut am_seen = false;
    let drained = loop {
        let t = Instant::now();
        let events = runtime.cluster.engine.step();
        stats.step_s += t.elapsed().as_secs_f64();
        let Some(events) = events else { break true };
        stats.steps += 1;
        stats.events += events.len() as u64;
        for event in events {
            let tag = match event {
                Completion::Timer { tag, .. } | Completion::Activity { tag, .. } => tag,
            };
            let kind = Kind::of(&tag);
            let allocated_before = match kind {
                Kind::Heartbeat => tracer.counter_value("rm.containers_allocated"),
                _ => 0,
            };
            let lang_before = lang.borrow().total_s;
            let t = Instant::now();
            runtime.dispatch_public(tag);
            let secs = t.elapsed().as_secs_f64();
            let self_s = secs - (lang.borrow().total_s - lang_before);
            if kind == Kind::Heartbeat {
                stats.heartbeats += 1;
                if tracer.counter_value("rm.containers_allocated") == allocated_before {
                    stats.idle_heartbeats += 1;
                }
                // The AM starts when its task table first fills; `progress`
                // is cheap until then (the table is empty).
                if !am_started && runtime.progress(wf).1 > 0 {
                    am_started = true;
                    stats.plan_s += self_s;
                    continue;
                }
            }
            *stats.dispatch_self_s.entry(kind).or_default() += self_s;
        }
        // Cheap termination check: the AM container is held from AM start
        // until the workflow finishes or fails, so a cluster that held
        // containers and now holds none has seen the AM leave.
        if runtime.error_of(wf).is_some() {
            break false;
        }
        if runtime.cluster.rm.running_containers() > 0 {
            am_seen = true;
        } else if am_seen {
            break false;
        }
    };
    // A drained engine with the workflow still active is a stall; let the
    // driver's own loop record it (it steps nothing on a drained engine).
    let mut reports = if drained {
        runtime.run_to_completion()
    } else {
        runtime.reports()
    };
    let report = reports.swap_remove(wf);

    for name in OBS_COUNTERS {
        *stats.counters.entry(name).or_default() += tracer.counter_value(name);
    }
    let lang = std::mem::take(&mut *lang.borrow_mut());
    stats.lang.initial_tasks_s += lang.initial_tasks_s;
    stats.lang.on_completed_s.extend(lang.on_completed_s);
    stats.lang.tasks_discovered += lang.tasks_discovered;
    stats.lang.total_s += lang.total_s;
    stats
        .task_waits_virtual_s
        .extend(report.tasks.iter().map(|t| t.wait_secs()));
    stats.task_failures += u64::from(report.task_failures);
    stats.infra_failures += u64::from(report.infra_failures);
    Outcome {
        error: runtime.error_of(wf).map(str::to_string),
        end_secs: runtime.cluster.engine.now().as_secs(),
        report,
    }
}
