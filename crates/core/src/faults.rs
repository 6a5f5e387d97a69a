//! Deterministic fault injection for chaos experiments.
//!
//! A [`FaultPlan`] is a seeded, pre-computed schedule of infrastructure
//! faults — node crashes (with later recovery), container preemptions,
//! HDFS DataNode disk losses, and straggler slowdown windows — generated
//! *before* the run from a [`FaultConfig`]. The same seed always yields
//! the same plan, and a [`FaultInjector`] applies the plan against a
//! [`Runtime`] with deterministic victim selection, so an entire chaos
//! run is byte-reproducible. An empty plan (all rates zero) degenerates
//! to a plain [`Runtime::run_to_completion`] — the injector adds no
//! engine activities, timers, or rng draws of its own in that case.
//!
//! Transient *task* failures (simulated tool crashes) are not part of the
//! plan: they are the AM's own failure model, driven by
//! [`crate::config::HiwayConfig::task_failure_prob`]. [`FaultConfig`]
//! carries the matching probability so one knob describes a whole chaos
//! scenario; the experiment copies it into the AM config.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hiway_obs::{Tracer, TrackId};
use hiway_sim::{ActivityId, NodeId, SimTime};

use crate::driver::Runtime;
use crate::report::WorkflowReport;

/// Fault rates for a chaos run. All `*_per_hour` rates are Poisson
/// arrival rates: per eligible node for crashes, disk losses, and
/// straggler windows; cluster-wide for preemptions.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed for plan generation (victim nodes, arrival times).
    pub seed: u64,
    /// Faults are generated inside `[0, horizon_secs)` of virtual time.
    pub horizon_secs: f64,
    /// Full node crashes (NodeManager and DataNode die together).
    pub crash_rate_per_hour: f64,
    /// Seconds until a crashed node re-registers (empty disk).
    pub recovery_secs: f64,
    /// Container preemptions across the whole cluster.
    pub preempt_rate_per_hour: f64,
    /// DataNode-only disk losses: replicas on the node vanish and
    /// re-replication kicks in, but containers keep running.
    pub hdfs_loss_rate_per_hour: f64,
    /// Straggler windows: bursts of CPU contention on one node.
    pub straggler_rate_per_hour: f64,
    /// Competing CPU hogs started for the length of a straggler window.
    pub straggler_procs: u32,
    /// Length of one straggler window, seconds.
    pub straggler_secs: f64,
    /// Transient tool-crash probability to run the AMs with (applied by
    /// the experiment, not by the injector).
    pub task_failure_prob: f64,
}

impl FaultConfig {
    /// A quiet plan: no faults at all. `FaultPlan::generate` on this
    /// yields zero events, making the chaos harness bit-identical to a
    /// fault-free run.
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            horizon_secs: 4.0 * 3600.0,
            crash_rate_per_hour: 0.0,
            recovery_secs: 180.0,
            preempt_rate_per_hour: 0.0,
            hdfs_loss_rate_per_hour: 0.0,
            straggler_rate_per_hour: 0.0,
            straggler_procs: 4,
            straggler_secs: 120.0,
            task_failure_prob: 0.0,
        }
    }

    /// A scenario whose event rates all scale with one `intensity` knob
    /// (events/hour at intensity 1.0 chosen so that intensity ~0.1 is a
    /// rough cluster and ~1.0 is hostile).
    pub fn with_intensity(seed: u64, intensity: f64) -> FaultConfig {
        FaultConfig {
            crash_rate_per_hour: 2.0 * intensity,
            preempt_rate_per_hour: 30.0 * intensity,
            hdfs_loss_rate_per_hour: 2.0 * intensity,
            straggler_rate_per_hour: 4.0 * intensity,
            task_failure_prob: (0.05 * intensity).min(0.9),
            ..FaultConfig::none(seed)
        }
    }
}

/// One scheduled fault (or its paired recovery).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Kill the node's NodeManager and DataNode; containers die.
    CrashNode(NodeId),
    /// The crashed node re-registers with a blank disk.
    RecoverNode(NodeId),
    /// Kill one live worker container, chosen as `pick % live-count`
    /// over the id-sorted container list at the moment of injection.
    PreemptContainer { pick: u64 },
    /// The node's DataNode disk dies; the NodeManager keeps running.
    LoseDatanode(NodeId),
    /// The lost DataNode returns with a fresh (empty) disk.
    RestoreDatanode(NodeId),
    /// Start CPU contention on the node (a slow node, not a dead one).
    StragglerStart { node: NodeId, procs: u32 },
    /// End the node's straggler window.
    StragglerEnd(NodeId),
}

/// A fault with its virtual-time trigger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    pub at: f64,
    pub action: FaultAction,
}

/// The full, deterministic schedule of a chaos run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Events sorted by trigger time.
    pub events: Vec<FaultEvent>,
}

/// Exponential inter-arrival sample (Poisson process with `rate`/sec).
fn exp_gap(rng: &mut StdRng, rate_per_sec: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate_per_sec
}

impl FaultPlan {
    /// Builds the schedule for `eligible` nodes (pass the *worker* nodes
    /// only — dedicated master nodes must not crash, or the whole run
    /// dies with them). Per-node faults are drawn on independent
    /// per-node timelines whose windows never overlap, so a node is
    /// never crashed while already down or mid-straggle; each node's
    /// sub-stream is seeded from `(seed, node)` so one node's schedule
    /// does not depend on how many draws another consumed.
    pub fn generate(config: &FaultConfig, eligible: &[NodeId]) -> FaultPlan {
        let mut events: Vec<FaultEvent> = Vec::new();
        let per_node_rate = (config.crash_rate_per_hour
            + config.hdfs_loss_rate_per_hour
            + config.straggler_rate_per_hour)
            / 3600.0;
        if per_node_rate > 0.0 {
            for &node in eligible {
                let mut rng = StdRng::seed_from_u64(
                    config.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ (node.0 as u64).wrapping_mul(0xff51_afd7_ed55_8ccd),
                );
                let mut t = 0.0f64;
                loop {
                    t += exp_gap(&mut rng, per_node_rate);
                    if t >= config.horizon_secs {
                        break;
                    }
                    let draw: f64 = rng.gen::<f64>() * per_node_rate * 3600.0;
                    if draw < config.crash_rate_per_hour {
                        events.push(FaultEvent {
                            at: t,
                            action: FaultAction::CrashNode(node),
                        });
                        t += config.recovery_secs;
                        events.push(FaultEvent {
                            at: t,
                            action: FaultAction::RecoverNode(node),
                        });
                    } else if draw < config.crash_rate_per_hour + config.hdfs_loss_rate_per_hour {
                        events.push(FaultEvent {
                            at: t,
                            action: FaultAction::LoseDatanode(node),
                        });
                        t += config.recovery_secs;
                        events.push(FaultEvent {
                            at: t,
                            action: FaultAction::RestoreDatanode(node),
                        });
                    } else {
                        events.push(FaultEvent {
                            at: t,
                            action: FaultAction::StragglerStart {
                                node,
                                procs: config.straggler_procs,
                            },
                        });
                        t += config.straggler_secs;
                        events.push(FaultEvent {
                            at: t,
                            action: FaultAction::StragglerEnd(node),
                        });
                    }
                }
            }
        }
        if config.preempt_rate_per_hour > 0.0 {
            let mut rng =
                StdRng::seed_from_u64(config.seed.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ 0x7072);
            let rate = config.preempt_rate_per_hour / 3600.0;
            let mut t = 0.0f64;
            loop {
                t += exp_gap(&mut rng, rate);
                if t >= config.horizon_secs {
                    break;
                }
                let pick: u64 = rng.gen();
                events.push(FaultEvent {
                    at: t,
                    action: FaultAction::PreemptContainer { pick },
                });
            }
        }
        // Stable order: by time, ties broken by the per-node generation
        // order already present in the vector.
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("fault times are finite"));
        FaultPlan { events }
    }
}

/// Applies a [`FaultPlan`] to a [`Runtime`], respecting safety rules
/// (never kill the last standing worker) and recording what actually
/// happened for the experiment log.
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    eligible: Vec<NodeId>,
    /// Nodes currently crashed (NodeManager down).
    down: BTreeSet<NodeId>,
    /// Running CPU-hog activities per straggling node.
    stress: BTreeMap<NodeId, Vec<ActivityId>>,
    /// `(virtual time, description)` of every fault actually injected.
    pub injected: Vec<(f64, String)>,
    /// Events skipped by safety rules (last worker, no containers, …).
    pub skipped: u32,
    /// Observability sink: injected faults land as instants on a
    /// dedicated "faults" track plus per-kind counters.
    tracer: Tracer,
    track: TrackId,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, eligible: Vec<NodeId>) -> FaultInjector {
        FaultInjector {
            plan,
            cursor: 0,
            eligible,
            down: BTreeSet::new(),
            stress: BTreeMap::new(),
            injected: Vec::new(),
            skipped: 0,
            tracer: Tracer::disabled(),
            track: TrackId::NONE,
        }
    }

    /// Attaches an observability sink (usually the same tracer the
    /// [`Runtime`] carries). A disabled tracer keeps injection silent.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.track = tracer.track("faults");
    }

    /// Records one applied fault in both the experiment log and the trace.
    fn note(&mut self, at: f64, kind: &'static str, desc: String) {
        if self.tracer.is_enabled() {
            self.tracer.instant(
                self.track,
                &format!("fault:{kind}"),
                "fault",
                at,
                &[("what", desc.clone())],
            );
            self.tracer.inc(&format!("fault.{kind}"), 1);
            self.tracer.inc("fault.injected", 1);
        }
        self.injected.push((at, desc));
    }

    /// Records a fault suppressed by a safety rule.
    fn skip(&mut self) {
        self.skipped += 1;
        self.tracer.inc("fault.skipped", 1);
    }

    /// Runs `rt` to completion, injecting the plan's events at their
    /// virtual times. Events past the workflows' finish are ignored.
    /// With an empty plan this is exactly `rt.run_to_completion()`. Either
    /// way the run must end conserved (see `Runtime::check_conservation`).
    pub fn run(&mut self, rt: &mut Runtime) -> Vec<WorkflowReport> {
        while self.cursor < self.plan.events.len() {
            let ev = self.plan.events[self.cursor];
            self.cursor += 1;
            if !rt.run_until(SimTime::from_secs(ev.at)) {
                // All workflows finished (or failed).
                if let Err(leak) = rt.check_conservation() {
                    panic!("chaos run ended without conserving its resources: {leak}");
                }
                return rt.reports();
            }
            self.apply(rt, ev);
        }
        rt.run_to_completion()
    }

    /// How many eligible workers would remain standing if one more died.
    fn standing_workers(&self) -> usize {
        self.eligible
            .iter()
            .filter(|n| !self.down.contains(n))
            .count()
    }

    fn apply(&mut self, rt: &mut Runtime, ev: FaultEvent) {
        match ev.action {
            FaultAction::CrashNode(node) => {
                if self.down.contains(&node) || self.standing_workers() <= 1 {
                    self.skip();
                    return;
                }
                // A crash also takes any straggler hogs down with it.
                if let Some(ids) = self.stress.remove(&node) {
                    for id in ids {
                        rt.cluster.engine.cancel(id);
                    }
                }
                rt.fail_node(node);
                self.down.insert(node);
                let lost = match rt.cluster.try_re_replicate() {
                    Ok(copies) => format!("{copies} block copies started"),
                    Err(e) => format!("data loss: {e}"),
                };
                self.note(
                    ev.at,
                    "crash_node",
                    format!("crash node {} ({lost})", node.0),
                );
            }
            FaultAction::RecoverNode(node) => {
                if !self.down.remove(&node) {
                    self.skip();
                    return;
                }
                rt.recover_node(node);
                // The fresh disk joins empty; refill it to the target
                // replication factor in the background.
                let _ = rt.cluster.try_re_replicate();
                self.note(ev.at, "recover_node", format!("recover node {}", node.0));
            }
            FaultAction::PreemptContainer { pick } => {
                let live = rt.worker_containers();
                if live.is_empty() {
                    self.skip();
                    return;
                }
                let victim = live[(pick % live.len() as u64) as usize];
                if rt.preempt_container(victim) {
                    self.note(
                        ev.at,
                        "preempt_container",
                        format!("preempt container {}", victim.0),
                    );
                } else {
                    self.skip();
                }
            }
            FaultAction::LoseDatanode(node) => {
                if self.down.contains(&node)
                    || !rt.cluster.hdfs.is_alive(node)
                    || rt.cluster.hdfs.alive_count() <= 1
                {
                    self.skip();
                    return;
                }
                rt.cluster
                    .hdfs
                    .fail_node(node)
                    .expect("alive was just checked");
                let lost = match rt.cluster.try_re_replicate() {
                    Ok(copies) => format!("{copies} block copies started"),
                    Err(e) => format!("data loss: {e}"),
                };
                self.note(
                    ev.at,
                    "lose_datanode",
                    format!("lose datanode {} ({lost})", node.0),
                );
            }
            FaultAction::RestoreDatanode(node) => {
                if self.down.contains(&node) || rt.cluster.hdfs.is_alive(node) {
                    self.skip();
                    return;
                }
                rt.cluster.hdfs.revive_node(node).expect("known node");
                let _ = rt.cluster.try_re_replicate();
                self.note(
                    ev.at,
                    "restore_datanode",
                    format!("restore datanode {}", node.0),
                );
            }
            FaultAction::StragglerStart { node, procs } => {
                if self.down.contains(&node) || self.stress.contains_key(&node) {
                    self.skip();
                    return;
                }
                let ids = rt.cluster.add_cpu_stress(node, procs);
                self.stress.insert(node, ids);
                self.note(
                    ev.at,
                    "straggler_start",
                    format!("straggle node {} x{procs}", node.0),
                );
            }
            FaultAction::StragglerEnd(node) => match self.stress.remove(&node) {
                Some(ids) => {
                    for id in ids {
                        rt.cluster.engine.cancel(id);
                    }
                    self.note(
                        ev.at,
                        "straggler_end",
                        format!("unstraggle node {}", node.0),
                    );
                }
                None => self.skip(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_generate_no_events() {
        let plan = FaultPlan::generate(&FaultConfig::none(7), &[NodeId(2), NodeId(3)]);
        assert!(plan.events.is_empty());
    }

    #[test]
    fn same_seed_same_plan() {
        let nodes: Vec<NodeId> = (2..10).map(NodeId).collect();
        let a = FaultPlan::generate(&FaultConfig::with_intensity(42, 0.5), &nodes);
        let b = FaultPlan::generate(&FaultConfig::with_intensity(42, 0.5), &nodes);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
        let c = FaultPlan::generate(&FaultConfig::with_intensity(43, 0.5), &nodes);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn plans_are_time_sorted_and_paired() {
        let nodes: Vec<NodeId> = (2..6).map(NodeId).collect();
        let plan = FaultPlan::generate(&FaultConfig::with_intensity(1, 1.0), &nodes);
        for w in plan.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Every crash has a recovery scheduled for the same node.
        let crashes = plan
            .events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::CrashNode(_)))
            .count();
        let recoveries = plan
            .events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::RecoverNode(_)))
            .count();
        assert_eq!(crashes, recoveries);
    }

    #[test]
    fn intensity_scales_event_count() {
        let nodes: Vec<NodeId> = (2..18).map(NodeId).collect();
        let quiet = FaultPlan::generate(&FaultConfig::with_intensity(5, 0.05), &nodes);
        let loud = FaultPlan::generate(&FaultConfig::with_intensity(5, 1.0), &nodes);
        assert!(loud.events.len() > quiet.events.len() * 4);
    }
}
