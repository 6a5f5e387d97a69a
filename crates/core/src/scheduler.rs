//! The Workflow Scheduler and its four policies (paper §3.4).
//!
//! The scheduler's contract with the Workflow Driver has two touch points,
//! mirroring the paper's architecture: when a task's data dependencies are
//! met the scheduler shapes the *container request* (anywhere, or pinned
//! to a node for static policies), and when YARN hands back an allocated
//! container the scheduler *scores* the ready tasks; the driver picks,
//! declines and audits from those scores.
//!
//! * **FCFS** — tasks queue; the head runs in whatever container arrives.
//! * **Data-aware** (Hi-WAY's default) — "whenever a new container is
//!   allocated, the data-aware scheduler skims through all tasks pending
//!   execution, from which it selects the task with the highest fraction
//!   of input data available locally … on the compute node hosting the
//!   newly allocated container."
//! * **Round-robin** — static: tasks are assigned "in turn, and thus in
//!   equal numbers, to the available compute nodes" before execution.
//! * **HEFT** — static + adaptive: upward-rank ordering with
//!   earliest-finish-time placement, fed by the Provenance Manager's
//!   latest-observation runtime estimates (default zero for unexplored
//!   task/machine pairs, which deliberately drives exploration).

use std::collections::HashMap;

use hiway_hdfs::Hdfs;
use hiway_lang::{TaskId, TaskSpec};
use hiway_obs::{CandidateScore, Decision, DecisionKind, Tracer};
use hiway_sim::NodeId;
use hiway_yarn::{ContainerRequest, Resource};

use crate::config::SchedulerPolicy;
use crate::provenance::ProvenanceManager;

/// A Workflow Scheduler policy implementation.
pub trait Scheduler {
    fn policy(&self) -> SchedulerPolicy;

    /// For static policies: builds the complete task→node schedule before
    /// execution. Called once, after the (static) workflow is parsed.
    /// Dynamic policies keep this no-op.
    fn plan(
        &mut self,
        _tasks: &[TaskSpec],
        _nodes: &[NodeId],
        _node_names: &[String],
        _prov: &ProvenanceManager,
        _tracer: &Tracer,
        _now: f64,
    ) {
    }

    /// Shapes the container request for a task whose dependencies are met.
    fn container_request(&self, _task: &TaskSpec, resource: Resource) -> ContainerRequest {
        ContainerRequest::anywhere(resource)
    }

    /// Scores the candidates (ready, unlaunched tasks, in readiness order)
    /// for a container on `node`: one [`Score`] each, in candidate order.
    fn score(
        &self,
        node: NodeId,
        node_name: &str,
        candidates: &[&TaskSpec],
        hdfs: &Hdfs,
        prov: &ProvenanceManager,
    ) -> Scores;
}

/// One candidate's standing under a policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// The policy's objective; the audit row logs it as the score.
    pub key: f64,
    /// Compared only when `key` ties, in the same orientation.
    pub tie: f64,
    /// If this candidate wins, the policy would rather hand the container
    /// back and wait for a better-placed one (late binding).
    pub decline: bool,
    /// `Some(n)`: the candidate is ineligible here because it belongs on
    /// node `n` (static policies: planned for another node).
    pub reserved_for: Option<NodeId>,
}

impl Score {
    /// An eligible score with no tie-breaker.
    pub fn new(key: f64) -> Score {
        Score {
            key,
            tie: 0.0,
            decline: false,
            reserved_for: None,
        }
    }
}

/// A policy's verdict on one container: a score per candidate plus how
/// to read and explain them.
pub struct Scores {
    /// The lowest score wins (else the highest).
    pub lower_wins: bool,
    /// One score per candidate, in candidate order.
    pub of: Vec<Score>,
    /// A full `(key, tie)` tie goes to the latest-ready candidate instead
    /// of the earliest.
    pub latest_wins_ties: bool,
    /// Why the winner won, in the policy's own terms.
    pub reason: &'static str,
    /// Formats a candidate's audit detail (called only when tracing).
    pub detail: fn(&Score, &str) -> String,
}

/// Instantiates the scheduler for a policy.
pub fn make_scheduler(policy: SchedulerPolicy) -> Box<dyn Scheduler> {
    match policy {
        SchedulerPolicy::Fcfs => Box::new(FcfsScheduler),
        SchedulerPolicy::DataAware => Box::new(DataAwareScheduler),
        SchedulerPolicy::RoundRobin => Box::new(StaticScheduler::new(SchedulerPolicy::RoundRobin)),
        SchedulerPolicy::Heft => Box::new(StaticScheduler::new(SchedulerPolicy::Heft)),
        SchedulerPolicy::Adaptive => Box::new(AdaptiveScheduler),
    }
}

/// First-come-first-served.
pub struct FcfsScheduler;

impl Scheduler for FcfsScheduler {
    fn policy(&self) -> SchedulerPolicy {
        SchedulerPolicy::Fcfs
    }

    fn score(
        &self,
        _node: NodeId,
        _node_name: &str,
        candidates: &[&TaskSpec],
        _hdfs: &Hdfs,
        _prov: &ProvenanceManager,
    ) -> Scores {
        Scores {
            lower_wins: true,
            of: (0..candidates.len())
                .map(|i| Score::new(i as f64))
                .collect(),
            latest_wins_ties: false,
            reason: "head of the ready queue (lowest queue position wins)",
            detail: |s, _| format!("queue position {}", s.key),
        }
    }
}

/// Data-aware (the default).
pub struct DataAwareScheduler;

impl Scheduler for DataAwareScheduler {
    fn policy(&self) -> SchedulerPolicy {
        SchedulerPolicy::DataAware
    }

    /// Locality fraction per candidate. On a dead DataNode every fraction
    /// is zero (liveness is invariant across candidates), and the
    /// tie-break degenerates to FCFS.
    fn score(
        &self,
        node: NodeId,
        _node_name: &str,
        candidates: &[&TaskSpec],
        hdfs: &Hdfs,
        _prov: &ProvenanceManager,
    ) -> Scores {
        let alive = hdfs.is_alive(node);
        Scores {
            lower_wins: false,
            of: candidates
                .iter()
                .map(|t| {
                    let frac = alive.then(|| hdfs.locality_fraction(&t.inputs, node));
                    Score::new(frac.unwrap_or(0.0))
                })
                .collect(),
            latest_wins_ties: false,
            reason: if alive {
                "highest fraction of input data local to the container's node \
                 (ties fall back to FCFS order)"
            } else {
                "node's DataNode is down: all fractions zero, FCFS fallback"
            },
            detail: |s, node_name| format!("locality fraction {:.3} on {node_name}", s.key),
        }
    }
}

/// Shared machinery for the two static policies: a pre-built task→node
/// assignment, enforced through pinned container requests.
pub struct StaticScheduler {
    policy: SchedulerPolicy,
    assignment: HashMap<TaskId, NodeId>,
}

/// What one `plan` call needs to write its `Plan` audit rows.
struct PlanLog<'a> {
    tracer: &'a Tracer,
    now: f64,
    policy: SchedulerPolicy,
    nodes: &'a [NodeId],
    node_names: &'a [String],
}

impl PlanLog<'_> {
    /// One `Plan` row: `task` goes to `nodes[chosen]`, and `scored` gives
    /// every node's `(score, detail)` in node order.
    fn row(
        &self,
        task: TaskId,
        chosen: usize,
        scored: impl Iterator<Item = (f64, String)>,
        reason: String,
    ) {
        let name = |n: &NodeId| self.node_names[n.index()].clone();
        self.tracer.audit(Decision {
            t: self.now,
            policy: self.policy.name(),
            kind: DecisionKind::Plan,
            node: self.nodes[chosen].0,
            node_name: name(&self.nodes[chosen]),
            candidates: self
                .nodes
                .iter()
                .zip(scored)
                .map(|(n, (score, detail))| CandidateScore {
                    task: task.0,
                    label: name(n),
                    score,
                    detail,
                })
                .collect(),
            winner: Some(task.0),
            reason,
        });
    }
}

impl StaticScheduler {
    pub fn new(policy: SchedulerPolicy) -> StaticScheduler {
        debug_assert!(policy.is_static());
        StaticScheduler {
            policy,
            assignment: HashMap::new(),
        }
    }

    fn plan_round_robin(&mut self, tasks: &[TaskSpec], nodes: &[NodeId], log: Option<PlanLog>) {
        let n = nodes.len();
        let mut planned = vec![0usize; n];
        for (i, t) in tasks.iter().enumerate() {
            let slot = i % n;
            self.assignment.insert(t.id, nodes[slot]);
            if let Some(log) = &log {
                log.row(
                    t.id,
                    slot,
                    planned
                        .iter()
                        .map(|&p| (p as f64, format!("{p} tasks already planned here"))),
                    format!("round-robin: task #{i} takes slot {slot} of {n}"),
                );
            }
            planned[slot] += 1;
        }
    }

    /// HEFT (Topcuoglu et al. 2002), with task runtimes estimated from
    /// provenance exactly as §3.4 prescribes: the latest observation per
    /// task/node pair, and "a default runtime of zero … to encourage
    /// trying out new assignments". Observed makespans already include the
    /// stage-in/out time the measured node paid, so communication costs
    /// are folded into the per-node estimates rather than modelled as
    /// separate edge weights.
    fn plan_heft(
        &mut self,
        tasks: &[TaskSpec],
        nodes: &[NodeId],
        node_names: &[String],
        prov: &ProvenanceManager,
        log: Option<PlanLog>,
    ) {
        let n = nodes.len();

        // w[t][n]: estimated runtime of task t on node n (latest
        // observation; zero when unexplored, which drives exploration).
        let estimate = |t: &TaskSpec, node: &NodeId| {
            prov.latest_runtime(&t.name, &node_names[node.index()])
                .unwrap_or(0.0)
        };
        let w: Vec<Vec<f64>> = tasks
            .iter()
            .map(|t| nodes.iter().map(|node| estimate(t, node)).collect())
            .collect();
        let w_avg: Vec<f64> = w
            .iter()
            .map(|row| row.iter().sum::<f64>() / n as f64)
            .collect();

        // File-mediated successor lists.
        let mut producer_of: HashMap<&str, usize> = HashMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for o in &t.outputs {
                producer_of.insert(o.path.as_str(), i);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
        for (i, t) in tasks.iter().enumerate() {
            for input in &t.inputs {
                if let Some(&p) = producer_of.get(input.as_str()) {
                    children[p].push(i);
                    parents[i].push(p);
                }
            }
        }

        // Upward ranks via reverse topological order (memoized DFS).
        let mut rank = vec![f64::NAN; tasks.len()];
        fn upward(i: usize, rank: &mut Vec<f64>, children: &[Vec<usize>], w_avg: &[f64]) -> f64 {
            if !rank[i].is_nan() {
                return rank[i];
            }
            let best_child = children[i]
                .iter()
                .map(|&c| upward(c, rank, children, w_avg))
                .fold(0.0, f64::max);
            rank[i] = w_avg[i] + best_child;
            rank[i]
        }
        for i in 0..tasks.len() {
            upward(i, &mut rank, &children, &w_avg);
        }

        // Decreasing rank; ties broken by task id for determinism.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by(|&a, &b| {
            rank[b]
                .partial_cmp(&rank[a])
                .expect("ranks are finite")
                .then(tasks[a].id.cmp(&tasks[b].id))
        });

        // Earliest-finish-time placement. With all-zero estimates every
        // node looks identical; breaking ties by the node with the fewest
        // assigned tasks keeps the exploration spread the paper's
        // default-zero strategy is designed to produce.
        let mut node_ready = vec![0.0f64; n];
        let mut node_load = vec![0usize; n];
        let mut finish = vec![0.0f64; tasks.len()];
        for &ti in &order {
            let data_ready = parents[ti].iter().map(|&p| finish[p]).fold(0.0, f64::max);
            let eft_on = |ni: usize| node_ready[ni].max(data_ready) + w[ti][ni];
            let mut best: Option<(usize, f64)> = None;
            for ni in 0..n {
                let eft = eft_on(ni);
                let better = best.is_none_or(|(bni, beft)| {
                    eft < beft - 1e-12
                        || ((eft - beft).abs() <= 1e-12 && node_load[ni] < node_load[bni])
                });
                if better {
                    best = Some((ni, eft));
                }
            }
            let (ni, eft) = best.expect("at least one node");
            self.assignment.insert(tasks[ti].id, nodes[ni]);
            if let Some(log) = &log {
                log.row(
                    tasks[ti].id,
                    ni,
                    (0..n).map(|k| {
                        let (eft, ready, est) = (eft_on(k), node_ready[k], w[ti][k]);
                        let detail = format!(
                            "EFT {eft:.3}s = max(node ready {ready:.3}, data ready {data_ready:.3}) + est {est:.3}"
                        );
                        (eft, detail)
                    }),
                    format!(
                        "earliest finish time (upward rank {:.3}; load breaks EFT ties)",
                        rank[ti]
                    ),
                );
            }
            node_ready[ni] = eft;
            node_load[ni] += 1;
            finish[ti] = eft;
        }
    }
}

impl Scheduler for StaticScheduler {
    fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    fn plan(
        &mut self,
        tasks: &[TaskSpec],
        nodes: &[NodeId],
        node_names: &[String],
        prov: &ProvenanceManager,
        tracer: &Tracer,
        now: f64,
    ) {
        assert!(!nodes.is_empty(), "cannot plan on an empty cluster");
        let log = tracer.is_enabled().then_some(PlanLog {
            tracer,
            now,
            policy: self.policy,
            nodes,
            node_names,
        });
        match self.policy {
            SchedulerPolicy::RoundRobin => self.plan_round_robin(tasks, nodes, log),
            SchedulerPolicy::Heft => self.plan_heft(tasks, nodes, node_names, prov, log),
            _ => unreachable!("dynamic policy in StaticScheduler"),
        }
    }

    fn container_request(&self, task: &TaskSpec, resource: Resource) -> ContainerRequest {
        match self.assignment.get(&task.id) {
            Some(&node) => ContainerRequest::pinned(resource, node),
            // A task outside the plan (shouldn't happen for static
            // languages) falls back to anywhere.
            None => ContainerRequest::anywhere(resource),
        }
    }

    /// Plan confirmation: 1 for a task planned here, 0.5 for one outside
    /// the plan (it fills spare containers), and 0 — ineligible — for a
    /// task planned for another node.
    fn score(
        &self,
        node: NodeId,
        _node_name: &str,
        candidates: &[&TaskSpec],
        _hdfs: &Hdfs,
        _prov: &ProvenanceManager,
    ) -> Scores {
        Scores {
            lower_wins: false,
            of: candidates
                .iter()
                .map(|t| match self.assignment.get(&t.id) {
                    Some(&a) if a == node => Score::new(1.0),
                    Some(&a) => Score {
                        reserved_for: Some(a),
                        ..Score::new(0.0)
                    },
                    None => Score::new(0.5),
                })
                .collect(),
            latest_wins_ties: false,
            reason: "static plan confirmation: the task pre-assigned to this node \
                     (unplanned tasks fill spare containers)",
            detail: |s, node_name| match s.reserved_for {
                Some(a) => format!("planned for node {}", a.0),
                None if s.key == 1.0 => format!("planned for {node_name}"),
                None => "outside the static plan".into(),
            },
        }
    }
}

/// Dynamic adaptive scheduling: no pre-built schedule (so iterative
/// workflows are fine), but container-arrival-time selection is driven by
/// the Provenance Manager's runtime estimates. For a container on node
/// `n`, each candidate is scored by `latest(sig, n) / avg over observed
/// nodes` — prefer the task for which this node is relatively fastest;
/// unobserved task/node pairs score 0 (the paper's exploration-friendly
/// zero default). Ties fall back to data-aware locality. A winner this
/// node is known to run much slower than its cross-node average
/// (`latest > 1.5 × avg`) is declined: wait for a faster host.
pub struct AdaptiveScheduler;

impl Scheduler for AdaptiveScheduler {
    fn policy(&self) -> SchedulerPolicy {
        SchedulerPolicy::Adaptive
    }

    fn score(
        &self,
        node: NodeId,
        node_name: &str,
        candidates: &[&TaskSpec],
        hdfs: &Hdfs,
        prov: &ProvenanceManager,
    ) -> Scores {
        // Relative fitness of running `t` here: how does this node's
        // latest observation compare to the estimate of placing the task
        // "somewhere typical"? Lower is better; 0 (unobserved) explores.
        let fitness = |t: &TaskSpec| -> (f64, bool) {
            let here = prov.latest_runtime(&t.name, node_name).unwrap_or(0.0);
            if here == 0.0 {
                return (0.0, false); // unexplored: try it (and learn)
            }
            let avg = prov.average_runtime(&t.name);
            match avg.unwrap_or(here) {
                a if a <= 0.0 => (0.0, false),
                a => (here / a, avg.is_some() && here > a * 1.5),
            }
        };
        // Hoisted liveness check: locality on a dead node is uniformly
        // zero, so skip the per-candidate block scans entirely.
        let node_alive = hdfs.is_alive(node);
        Scores {
            lower_wins: true,
            of: candidates
                .iter()
                .map(|t| {
                    let (key, decline) = fitness(t);
                    // Locality as the tie-breaker (negated: lower wins).
                    let tie = node_alive.then(|| -hdfs.locality_fraction(&t.inputs, node));
                    Score {
                        tie: tie.unwrap_or(0.0),
                        decline,
                        ..Score::new(key)
                    }
                })
                .collect(),
            // Equal fitness and locality go to the latest-ready task: the
            // policy's placements have always broken full ties that way,
            // although its reason text says "FCFS order".
            latest_wins_ties: true,
            reason: "lowest relative fitness wins (ties: higher locality, then \
                     FCFS order)",
            detail: |s, _| {
                format!(
                    "relative fitness {:.3} (latest here / cross-node avg; \
                     0 = unexplored), locality {:.3}",
                    s.key, -s.tie
                )
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;
    use hiway_lang::{OutputSpec, TaskCost};
    use hiway_provdb::ProvDb;

    fn task(id: u64, name: &str, inputs: &[&str], outputs: &[&str]) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            name: name.into(),
            command: name.into(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs
                .iter()
                .map(|s| OutputSpec {
                    path: s.to_string(),
                    size: 10,
                })
                .collect(),
            cost: TaskCost::default(),
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("w{i}")).collect()
    }

    fn record(prov: &mut ProvenanceManager, name: &str, node: &str, makespan: f64) {
        prov.record_task(hiway_lang::trace::TaskEvent {
            id: 0,
            name: name.into(),
            command: name.into(),
            inputs: vec![],
            outputs: vec![],
            cpu_seconds: makespan,
            threads: 1,
            memory_mb: 1,
            node: node.into(),
            t_start: 0.0,
            t_end: makespan,
            attempts: 1,
            stdout: String::new(),
            stderr: String::new(),
        });
    }

    /// The node a static plan pinned a task to, read off its container
    /// request as the RM sees it.
    fn assigned(s: &StaticScheduler, id: TaskId) -> Option<NodeId> {
        s.container_request(&task(id.0, "t", &[], &[]), Resource::new(1, 1))
            .preference
    }

    /// Task choice as the driver makes it: the policy scores, the fixed
    /// rule picks.
    fn pick(
        s: &dyn Scheduler,
        node: NodeId,
        candidates: &[&TaskSpec],
        hdfs: &Hdfs,
        prov: &ProvenanceManager,
    ) -> Option<TaskId> {
        let name = format!("w{}", node.0);
        let scores = s.score(node, &name, candidates, hdfs, prov);
        assert_eq!(scores.of.len(), candidates.len(), "one score per candidate");
        driver::pick(&scores).map(|i| candidates[i].id)
    }

    fn scores(lower_wins: bool, of: Vec<Score>) -> Scores {
        Scores {
            lower_wins,
            of,
            latest_wins_ties: false,
            reason: "",
            detail: |_, _| String::new(),
        }
    }

    #[test]
    fn winner_takes_the_best_key_and_the_earliest_tie() {
        let of = vec![Score::new(2.0), Score::new(5.0), Score::new(5.0)];
        assert_eq!(driver::pick(&scores(false, of.clone())), Some(1));
        assert_eq!(driver::pick(&scores(true, of)), Some(0));
        // `tie` decides between equal keys, in the same orientation.
        let of = vec![
            Score::new(1.0),
            Score {
                tie: -0.5,
                ..Score::new(1.0)
            },
        ];
        assert_eq!(driver::pick(&scores(true, of.clone())), Some(1));
        assert_eq!(driver::pick(&scores(false, of)), Some(0));
        assert_eq!(driver::pick(&scores(false, Vec::new())), None);
        let of = vec![Score::new(5.0), Score::new(2.0), Score::new(5.0)];
        let latest = Scores {
            latest_wins_ties: true,
            ..scores(false, of)
        };
        assert_eq!(driver::pick(&latest), Some(2));
    }

    #[test]
    fn ineligible_candidates_never_win() {
        let out = Score {
            reserved_for: Some(NodeId(3)),
            ..Score::new(9.0)
        };
        let of = vec![out, Score::new(1.0)];
        assert_eq!(driver::pick(&scores(false, of)), Some(1));
        assert_eq!(driver::pick(&scores(false, vec![out, out])), None);
    }

    #[test]
    #[should_panic(expected = "scores are finite")]
    fn nan_scores_panic() {
        let of = vec![Score::new(1.0), Score::new(f64::NAN)];
        driver::pick(&scores(false, of));
    }

    #[test]
    fn fcfs_selects_queue_head() {
        let s = FcfsScheduler;
        let (a, b) = (task(0, "a", &[], &[]), task(1, "b", &[], &[]));
        let hdfs = Hdfs::new(2, Default::default(), 0);
        let prov = ProvenanceManager::new(ProvDb::new());
        assert_eq!(
            pick(&s, NodeId(0), &[&a, &b], &hdfs, &prov),
            Some(TaskId(0))
        );
        assert_eq!(pick(&s, NodeId(0), &[], &hdfs, &prov), None);
        // Scores are queue positions; the winner holds position 0.
        let scores = s.score(NodeId(1), "w1", &[&a, &b], &hdfs, &prov);
        let keys: Vec<f64> = scores.of.iter().map(|s| s.key).collect();
        assert_eq!(keys, [0.0, 1.0]);
        assert_eq!((scores.detail)(&scores.of[1], "w1"), "queue position 1");
        let req = s.container_request(&a, Resource::new(1, 100));
        assert!(req.preference.is_none());
    }

    #[test]
    fn data_aware_prefers_local_input() {
        // Replication 1 keeps each file on exactly its writer's node, so
        // the locality fractions are unambiguous.
        let config = hiway_hdfs::HdfsConfig {
            replication: 1,
            ..Default::default()
        };
        let mut hdfs = Hdfs::new(4, config, 3);
        hdfs.create("/big0", 100 << 20, NodeId(0)).unwrap();
        hdfs.create("/big2", 100 << 20, NodeId(2)).unwrap();
        let t0 = task(0, "t", &["/big0"], &["/o0"]);
        let t2 = task(1, "t", &["/big2"], &["/o2"]);
        let s = DataAwareScheduler;
        let prov = ProvenanceManager::new(ProvDb::new());
        // Container on node 2: the task whose input lives there wins even
        // though t0 is ahead in the queue.
        assert_eq!(
            pick(&s, NodeId(2), &[&t0, &t2], &hdfs, &prov),
            Some(TaskId(1))
        );
        assert_eq!(
            pick(&s, NodeId(0), &[&t0, &t2], &hdfs, &prov),
            Some(TaskId(0))
        );
        // The fractions explain the pick: the winner's locality strictly
        // exceeds its rival's.
        let scores = s.score(NodeId(2), "w2", &[&t0, &t2], &hdfs, &prov);
        assert_eq!(scores.of[1].key, 1.0);
        assert!(scores.of[0].key < 1.0);
        assert_eq!(
            (scores.detail)(&scores.of[1], "w2"),
            "locality fraction 1.000 on w2"
        );
    }

    #[test]
    fn data_aware_ties_fall_back_to_fcfs_order() {
        let hdfs = Hdfs::new(2, Default::default(), 3);
        let a = task(0, "a", &["/nowhere"], &[]);
        let b = task(1, "b", &["/nowhere"], &[]);
        let prov = ProvenanceManager::new(ProvDb::new());
        let s = DataAwareScheduler;
        assert_eq!(
            pick(&s, NodeId(0), &[&a, &b], &hdfs, &prov),
            Some(TaskId(0))
        );
    }

    #[test]
    fn adaptive_prefers_the_relatively_faster_task() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        // "slow" is 3x worse on w0 than its average; "fast" is better
        // than average here — the adaptive policy must prefer "fast".
        record(&mut prov, "slow", "w0", 300.0);
        record(&mut prov, "slow", "w1", 100.0);
        record(&mut prov, "fast", "w0", 50.0);
        record(&mut prov, "fast", "w1", 100.0);
        let hdfs = Hdfs::new(2, Default::default(), 0);
        let slow = task(0, "slow", &[], &[]);
        let fast = task(1, "fast", &[], &[]);
        let s = AdaptiveScheduler;
        assert_eq!(
            pick(&s, NodeId(0), &[&slow, &fast], &hdfs, &prov),
            Some(TaskId(1))
        );
        // Lower relative fitness wins; the scores show exactly that.
        let scores = s.score(NodeId(0), "w0", &[&slow, &fast], &hdfs, &prov);
        assert!(scores.of[1].key < scores.of[0].key);
    }

    #[test]
    fn adaptive_declines_only_beyond_one_and_a_half_times_the_average() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        // Average 250s: w0's 400s exceeds 1.5x (375s), w1's 100s does not.
        record(&mut prov, "t", "w0", 400.0);
        record(&mut prov, "t", "w1", 100.0);
        let hdfs = Hdfs::new(2, Default::default(), 0);
        let t = task(0, "t", &[], &[]);
        let on = |node: u32| {
            let name = format!("w{node}");
            AdaptiveScheduler
                .score(NodeId(node), &name, &[&t], &hdfs, &prov)
                .of[0]
        };
        assert!(on(0).decline);
        assert!(!on(1).decline);
        assert_eq!(on(0).key, 400.0 / 250.0);
    }

    #[test]
    fn adaptive_explores_unobserved_pairs_without_declining() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        record(&mut prov, "seen", "w1", 100.0);
        let hdfs = Hdfs::new(2, Default::default(), 0);
        let seen = task(0, "seen", &[], &[]);
        let scores = AdaptiveScheduler.score(NodeId(0), "w0", &[&seen], &hdfs, &prov);
        assert_eq!((scores.of[0].key, scores.of[0].decline), (0.0, false));
        assert_eq!(
            (scores.detail)(&scores.of[0], "w0"),
            "relative fitness 0.000 (latest here / cross-node avg; 0 = unexplored), \
             locality 0.000"
        );
    }

    #[test]
    fn round_robin_spreads_equally() {
        let mut s = StaticScheduler::new(SchedulerPolicy::RoundRobin);
        let tasks: Vec<TaskSpec> = (0..6).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1), NodeId(2)];
        let prov = ProvenanceManager::new(ProvDb::new());
        s.plan(&tasks, &nodes, &names(3), &prov, &Tracer::disabled(), 0.0);
        let mut counts = [0usize; 3];
        for t in &tasks {
            counts[assigned(&s, t.id).unwrap().index()] += 1;
        }
        assert_eq!(counts, [2, 2, 2]);
        // Requests are pinned; selection honours the assignment.
        let req = s.container_request(&tasks[4], Resource::new(1, 100));
        assert_eq!(req.preference, Some(NodeId(1)));
        assert!(!req.relax_locality);
        // Selection honours the assignment: only tasks planned for w1 are
        // eligible there, and they score 1.
        let hdfs = Hdfs::new(3, Default::default(), 0);
        let refs: Vec<&TaskSpec> = tasks.iter().collect();
        assert_eq!(pick(&s, NodeId(1), &refs, &hdfs, &prov), Some(TaskId(1)));
        let scores = s.score(NodeId(1), "w1", &refs, &hdfs, &prov);
        assert_eq!(scores.of[1].key, 1.0);
        assert_eq!(scores.of[0].key, 0.0);
        assert_eq!(scores.of[0].reserved_for, Some(NodeId(0)));
        assert_eq!((scores.detail)(&scores.of[0], "w1"), "planned for node 0");
        assert_eq!((scores.detail)(&scores.of[1], "w1"), "planned for w1");
        // A task outside the plan fills a spare container (score 0.5).
        let extra = task(9, "t", &[], &[]);
        let scores = s.score(NodeId(1), "w1", &[&tasks[0], &extra], &hdfs, &prov);
        assert_eq!(scores.of[1].key, 0.5);
        assert_eq!(driver::pick(&scores), Some(1));
        // Nothing eligible here: no winner.
        assert_eq!(pick(&s, NodeId(2), &[&tasks[0]], &hdfs, &prov), None);
    }

    #[test]
    fn heft_without_provenance_spreads_by_load() {
        let mut s = StaticScheduler::new(SchedulerPolicy::Heft);
        let tasks: Vec<TaskSpec> = (0..4).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1)];
        let prov = ProvenanceManager::new(ProvDb::new());
        s.plan(&tasks, &nodes, &names(2), &prov, &Tracer::disabled(), 0.0);
        let mut counts = [0usize; 2];
        for t in &tasks {
            counts[assigned(&s, t.id).unwrap().index()] += 1;
        }
        // All-zero estimates: load tie-breaking spreads tasks evenly.
        assert_eq!(counts, [2, 2]);
    }

    #[test]
    fn heft_avoids_known_slow_node() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        // Node w1 is 10x slower for this signature.
        record(&mut prov, "t", "w0", 10.0);
        record(&mut prov, "t", "w1", 100.0);
        let mut s = StaticScheduler::new(SchedulerPolicy::Heft);
        let tasks: Vec<TaskSpec> = (0..4).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1)];
        s.plan(&tasks, &nodes, &names(2), &prov, &Tracer::disabled(), 0.0);
        // EFTs: placing everything on w0 serially (10,20,30,40) beats
        // w1's 100 each time.
        for t in &tasks {
            assert_eq!(assigned(&s, t.id), Some(NodeId(0)));
        }
    }

    #[test]
    fn round_robin_plan_audit_matches_assignment() {
        let tracer = Tracer::enabled();
        let mut s = StaticScheduler::new(SchedulerPolicy::RoundRobin);
        let tasks: Vec<TaskSpec> = (0..6).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1), NodeId(2)];
        let prov = ProvenanceManager::new(ProvDb::new());
        s.plan(&tasks, &nodes, &names(3), &prov, &tracer, 0.0);
        tracer.with_decisions(|ds| {
            assert_eq!(ds.len(), 6, "one plan decision per task");
            for (i, d) in ds.iter().enumerate() {
                assert_eq!(d.policy, "round-robin");
                assert_eq!(d.kind, DecisionKind::Plan);
                assert_eq!(d.winner, Some(i as u64));
                // The audited node is the node actually assigned.
                let assigned = assigned(&s, TaskId(i as u64)).unwrap();
                assert_eq!(d.node, assigned.0);
                assert_eq!(d.candidates.len(), 3, "all nodes scored");
            }
        });
    }

    #[test]
    fn heft_plan_audit_matches_assignment() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        record(&mut prov, "t", "w0", 10.0);
        record(&mut prov, "t", "w1", 100.0);
        let tracer = Tracer::enabled();
        let mut s = StaticScheduler::new(SchedulerPolicy::Heft);
        let tasks: Vec<TaskSpec> = (0..4).map(|i| task(i, "t", &[], &[])).collect();
        let nodes = vec![NodeId(0), NodeId(1)];
        s.plan(&tasks, &nodes, &names(2), &prov, &tracer, 0.0);
        tracer.with_decisions(|ds| {
            assert_eq!(ds.len(), 4);
            for d in ds {
                assert_eq!(d.policy, "heft");
                assert_eq!(d.kind, DecisionKind::Plan);
                let winner = d.winner.unwrap();
                // Audit agrees with the actual plan...
                assert_eq!(d.node, assigned(&s, TaskId(winner)).unwrap().0);
                // ...and the chosen node has the minimum logged EFT.
                let chosen = d
                    .candidates
                    .iter()
                    .find(|c| c.label == d.node_name)
                    .expect("winner node is scored");
                for c in &d.candidates {
                    assert!(chosen.score <= c.score + 1e-12);
                }
            }
        });
    }

    #[test]
    fn heft_ranks_respect_the_critical_path() {
        let mut prov = ProvenanceManager::new(ProvDb::new());
        record(&mut prov, "long", "w0", 100.0);
        record(&mut prov, "long", "w1", 100.0);
        record(&mut prov, "short", "w0", 1.0);
        record(&mut prov, "short", "w1", 1.0);
        record(&mut prov, "sink", "w0", 1.0);
        record(&mut prov, "sink", "w1", 1.0);
        // long -> sink, short independent. The critical chain should be
        // placed first and not displaced by the short task.
        let tasks = vec![
            task(0, "short", &[], &[]),
            task(1, "long", &[], &["/mid"]),
            task(2, "sink", &["/mid"], &[]),
        ];
        let nodes = vec![NodeId(0), NodeId(1)];
        let mut s = StaticScheduler::new(SchedulerPolicy::Heft);
        s.plan(&tasks, &nodes, &names(2), &prov, &Tracer::disabled(), 0.0);
        // `long` has the highest upward rank (101) and is placed first on
        // an empty node; `short` lands on the other node.
        let long_node = assigned(&s, TaskId(1)).unwrap();
        let short_node = assigned(&s, TaskId(0)).unwrap();
        assert_ne!(long_node, short_node);
    }
}
