//! Property tests of the Workflow Driver: random layered DAGs always run
//! to completion with dependencies respected, under every dynamic
//! scheduler and under random task failures; and under every policy the
//! scheduler audit log agrees with what actually ran.

use proptest::prelude::*;

use hiway_core::cluster::Cluster;
use hiway_core::config::{HiwayConfig, SchedulerPolicy};
use hiway_core::driver::Runtime;
use hiway_lang::ir::{OutputSpec, StaticWorkflow, TaskCost, TaskId, TaskSpec};
use hiway_obs::{Decision, DecisionKind, Tracer};
use hiway_provdb::ProvDb;
use hiway_sim::{ClusterSpec, NodeId, NodeSpec};

/// Builds a random layered DAG: `layers[i]` tasks in layer `i`, each
/// consuming 1–2 outputs of the previous layer (or the staged input).
fn layered_dag(layers: &[usize], cpu: f64) -> StaticWorkflow {
    let mut tasks = Vec::new();
    let mut id = 0u64;
    let mut prev_outputs: Vec<String> = vec!["/in".to_string()];
    for (li, &width) in layers.iter().enumerate() {
        let mut outputs = Vec::new();
        for w in 0..width {
            let out = format!("/l{li}_t{w}");
            let mut inputs = vec![prev_outputs[w % prev_outputs.len()].clone()];
            if prev_outputs.len() > 1 && w % 3 == 0 {
                inputs.push(prev_outputs[(w + 1) % prev_outputs.len()].clone());
            }
            tasks.push(TaskSpec {
                id: TaskId(id),
                name: format!("layer{li}"),
                command: format!("tool-l{li}"),
                inputs,
                outputs: vec![OutputSpec {
                    path: out.clone(),
                    size: 1 << 20,
                }],
                cost: TaskCost::new(cpu, 1 + (w % 2) as u32, 256),
            });
            outputs.push(out);
            id += 1;
        }
        prev_outputs = outputs;
    }
    StaticWorkflow::new("random-dag", "test", tasks)
}

const POLICIES: [SchedulerPolicy; 5] = [
    SchedulerPolicy::Fcfs,
    SchedulerPolicy::DataAware,
    SchedulerPolicy::RoundRobin,
    SchedulerPolicy::Heft,
    SchedulerPolicy::Adaptive,
];

/// Runs `wf` under `policy` on `nodes` m3.large workers, the last one
/// CPU-stressed so that warm provenance marks it slow, and returns the
/// report's `(task, node)` placements.
fn run_traced(
    wf: StaticWorkflow,
    nodes: usize,
    seed: u64,
    policy: SchedulerPolicy,
    db: ProvDb,
    tracer: &Tracer,
) -> Result<Vec<(u64, String)>, String> {
    let total = wf.tasks.len();
    let spec = ClusterSpec::homogeneous(nodes, "w", &NodeSpec::m3_large("p"));
    let mut cluster = Cluster::new(spec, seed);
    cluster.prestage("/in", 4 << 20);
    cluster.add_cpu_stress(NodeId(nodes as u32 - 1), 4);
    let mut rt = Runtime::new(cluster);
    rt.set_tracer(tracer);
    let config = HiwayConfig::default()
        .with_scheduler(policy)
        .with_seed(seed);
    let idx = rt.submit(Box::new(wf), config, db);
    let reports = rt.run_to_completion();
    if let Some(e) = rt.error_of(idx) {
        return Err(format!("{}: {e}", policy.name()));
    }
    assert_eq!(reports[idx].tasks.len(), total);
    Ok(reports[idx]
        .tasks
        .iter()
        .map(|t| (t.id.0, t.node.clone()))
        .collect())
}

/// Checks one `Select` row against the driver's rule: the winner is the
/// earliest candidate holding the best logged score, in the orientation
/// the policy states (lower wins for FCFS queue positions and adaptive
/// fitness, higher for data-aware locality and static plan match), and a
/// static policy's 0 (planned elsewhere) never wins. Adaptive breaks equal
/// fitness by the locality its detail prints; the order among equal
/// printed localities is beyond what the log can resolve.
fn check_select(d: &Decision) -> Result<(), String> {
    let lower_wins = matches!(d.policy, "fcfs" | "adaptive");
    let scores: Vec<f64> = d.candidates.iter().map(|c| c.score).collect();
    let best = scores
        .iter()
        .copied()
        .reduce(|a, b| if lower_wins { a.min(b) } else { a.max(b) });
    let winner = d.winner.map(|w| {
        let at = d.candidates.iter().position(|c| c.task == w);
        at.expect("the winner is a candidate")
    });
    let expected = match (best, d.policy) {
        (None, _) | (Some(0.0), "round-robin" | "heft") => None,
        (Some(b), "adaptive") => {
            let locality = |i: usize| -> f64 {
                let detail = &d.candidates[i].detail;
                let at = detail.rfind("locality ").expect("adaptive detail") + 9;
                detail[at..].parse().expect("locality is a number")
            };
            let w = winner.ok_or("adaptive must pick")?;
            let tied = (0..scores.len()).filter(|&i| scores[i] == b);
            if scores[w] != b || tied.into_iter().any(|i| locality(i) > locality(w)) {
                return Err(format!("adaptive winner is not the fittest: {d:?}"));
            }
            return Ok(());
        }
        (Some(b), _) => scores.iter().position(|&s| s == b),
    };
    if winner != expected {
        return Err(format!("winner {winner:?}, rule says {expected:?}: {d:?}"));
    }
    Ok(())
}

/// A disabled tracer records no decisions, whatever the policy does.
#[test]
fn disabled_tracer_logs_no_decisions() {
    for policy in POLICIES {
        let tracer = Tracer::disabled();
        run_traced(
            layered_dag(&[3, 2], 3.0),
            3,
            1,
            policy,
            ProvDb::new(),
            &tracer,
        )
        .unwrap();
        assert_eq!(tracer.decision_count(), 0, "{}", policy.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under every policy, on warm provenance (one FCFS run first), each
    /// `Select` row follows the driver's rule, and each completed task
    /// won at least one `Select` on the node it ran on.
    #[test]
    fn select_audit_matches_placement_under_every_policy(
        layers in proptest::collection::vec(1usize..5, 1..4),
        nodes in 2usize..5,
        seed in 0u64..500,
    ) {
        for policy in POLICIES {
            let db = ProvDb::new();
            let warm = run_traced(
                layered_dag(&layers, 3.0), nodes, seed, SchedulerPolicy::Fcfs,
                db.clone(), &Tracer::disabled(),
            );
            prop_assert!(warm.is_ok(), "{:?}", warm);
            let tracer = Tracer::enabled();
            let placed = run_traced(layered_dag(&layers, 3.0), nodes, seed, policy, db, &tracer);
            prop_assert!(placed.is_ok(), "{:?}", placed);
            let selects: Vec<Decision> = tracer.with_decisions(|ds| {
                ds.iter().filter(|d| d.kind == DecisionKind::Select).cloned().collect()
            });
            for d in &selects {
                prop_assert_eq!(d.policy, policy.name());
                let verdict = check_select(d);
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
            for (task, node) in placed.unwrap() {
                prop_assert!(
                    selects.iter().any(|d| d.winner == Some(task) && d.node_name == node),
                    "{}: task {} ran on {} without winning a Select there",
                    policy.name(), task, node
                );
            }
        }
    }

    /// Every random DAG completes under both dynamic schedulers, and no
    /// task starts before its producers finished.
    #[test]
    fn random_dags_complete_with_dependencies_respected(
        layers in proptest::collection::vec(1usize..5, 1..4),
        nodes in 2usize..5,
        data_aware in any::<bool>(),
        seed in 0u64..500,
    ) {
        let wf = layered_dag(&layers, 3.0);
        let producers: std::collections::HashMap<String, TaskId> = wf
            .tasks
            .iter()
            .flat_map(|t| t.outputs.iter().map(|o| (o.path.clone(), t.id)))
            .collect();
        let task_inputs: std::collections::HashMap<TaskId, Vec<String>> =
            wf.tasks.iter().map(|t| (t.id, t.inputs.clone())).collect();
        let total = wf.tasks.len();

        let spec = ClusterSpec::homogeneous(nodes, "w", &NodeSpec::m3_large("p"));
        let mut cluster = Cluster::new(spec, seed);
        cluster.prestage("/in", 4 << 20);
        let mut rt = Runtime::new(cluster);
        let policy = if data_aware { SchedulerPolicy::DataAware } else { SchedulerPolicy::Fcfs };
        let idx = rt.submit(
            Box::new(wf),
            HiwayConfig::default().with_scheduler(policy).with_seed(seed),
            ProvDb::new(),
        );
        let reports = rt.run_to_completion();
        prop_assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
        prop_assert_eq!(reports[idx].tasks.len(), total);

        let end_of: std::collections::HashMap<TaskId, f64> =
            reports[idx].tasks.iter().map(|t| (t.id, t.t_end)).collect();
        for t in &reports[idx].tasks {
            for input in &task_inputs[&t.id] {
                if let Some(p) = producers.get(input) {
                    prop_assert!(
                        end_of[p] <= t.t_start + 1e-9,
                        "task {:?} started before producer {:?} finished",
                        t.id, p
                    );
                }
            }
        }
    }

    /// Random task failures with enough retries never prevent completion,
    /// and the attempt counts reflect the failures.
    #[test]
    fn random_failures_are_retried_to_completion(
        width in 2usize..6,
        failure_prob in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let wf = layered_dag(&[width, width], 2.0);
        let total = wf.tasks.len();
        let spec = ClusterSpec::homogeneous(3, "w", &NodeSpec::m3_large("p"));
        let mut cluster = Cluster::new(spec, seed);
        cluster.prestage("/in", 1 << 20);
        let mut rt = Runtime::new(cluster);
        let mut config = HiwayConfig::default().with_seed(seed);
        config.task_failure_prob = failure_prob;
        config.task_retries = 50; // p<0.5 ⇒ 50 straight failures ≈ never
        let idx = rt.submit(Box::new(wf), config, ProvDb::new());
        let reports = rt.run_to_completion();
        prop_assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
        prop_assert_eq!(reports[idx].tasks.len(), total);
        for t in &reports[idx].tasks {
            prop_assert!(t.attempts >= 1);
        }
    }
}
