//! The Workflow Driver and the AM runtime (paper §3.1, §3.3, Figure 3).
//!
//! A [`Runtime`] hosts one or more Hi-WAY AM instances on a shared
//! [`Cluster`] — "each workflow that is launched from a client results in
//! a separate instance of a Hi-WAY AM being spawned in its own container".
//! The runtime owns the engine poll loop; AMs are state machines reacting
//! to engine completions:
//!
//! * **Heartbeat** — the AM–RM allocation round: pending container
//!   requests are matched to free capacity and handed to the owning AM.
//! * **Worker container lifecycle** — "(i) obtaining the task's input
//!   data from HDFS, (ii) invoking the commands associated with the task,
//!   and (iii) storing any generated output data in HDFS".
//! * **Iterative discovery** — every task completion is fed back to the
//!   language front-end, which may reveal new tasks (conditionals, loops,
//!   recursion).
//! * **Fault tolerance** — failed attempts are retried in fresh containers
//!   with exponential backoff, steered away from failing (blacklisted)
//!   nodes; infrastructure losses (node crash, preemption) are budgeted
//!   separately from tool crashes; stragglers can be re-executed
//!   speculatively, first finisher wins.
//!
//! A task may therefore have several *attempts* in flight at once (one
//! primary plus at most one speculative duplicate); every engine event
//! carries the attempt id it belongs to, so late events of a cancelled
//! attempt are recognized as stale and dropped.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hiway_hdfs::exec as hdfs_exec;
use hiway_lang::trace::{FileEvent, TaskEvent};
use hiway_lang::{LangError, TaskId, TaskSpec, WorkflowSource};
use hiway_obs::{CandidateScore, Decision, DecisionKind, Tracer, TrackId};
use hiway_provdb::ProvDb;
use hiway_sim::{Activity, ActivityId, Completion, Endpoint, NodeId, SimTime};
use hiway_yarn::{AppId, Container, ContainerId, ContainerRequest};

use crate::cluster::{Cluster, Tag};
use crate::config::HiwayConfig;
use crate::memo::{memo_key, MemoHit};
use crate::provenance::ProvenanceManager;
use crate::report::{TaskReport, WorkflowReport};
use crate::scheduler::{make_scheduler, Scheduler, Scores};
use hiway_yarn::Resource;

/// AM–RM heartbeat: how often allocation rounds happen, seconds.
pub const HEARTBEAT_SECS: f64 = 1.0;
/// Resources occupied by every AM's own container.
pub const AM_RESOURCE: Resource = Resource::new(1, 1024);
/// Worker container startup latency (process spawn, localization), seconds.
const CONTAINER_STARTUP_SECS: f64 = 1.0;

/// Per-task execution state. Attempt-level phases (stage-in, exec,
/// stage-out) live on [`Attempt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Waiting for input files to be committed.
    Waiting,
    /// Dependencies met; a container request is outstanding.
    Requested,
    /// An attempt failed; the exponential-backoff timer is running.
    Backoff,
    /// At least one attempt is executing in a container.
    Active,
    Done,
}

/// Where one container attempt currently is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AttemptPhase {
    /// Container allocated; worker process starting up.
    Starting,
    /// Obtaining input data from HDFS / external services.
    StageIn,
    /// The black-box command is executing.
    Running,
    /// Writing outputs back to HDFS.
    StageOut,
}

/// Why an attempt failed — infrastructure losses are not the task's fault
/// and draw from a separate (much larger) retry budget than tool crashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Node crash, container preemption, storage loss mid-transfer.
    Infra,
    /// The tool itself crashed.
    Task,
}

/// One container execution of a task (a YARN "task attempt").
struct Attempt {
    container: Container,
    phase: AttemptPhase,
    speculative: bool,
    /// Remaining engine activities per phase-file group.
    group_remaining: HashMap<u32, usize>,
    group_started: HashMap<u32, SimTime>,
    /// All in-flight activity ids, for cancellation on failure.
    inflight: HashSet<ActivityId>,
    files_remaining: usize,
    /// Whether the working-directory (scratch) I/O phase has run.
    scratch_done: bool,
    t_start: f64,
    /// When the compute phase began (straggler detection).
    t_exec_start: f64,
}

impl Attempt {
    fn new(container: Container, now: f64, speculative: bool) -> Attempt {
        Attempt {
            container,
            phase: AttemptPhase::Starting,
            speculative,
            group_remaining: HashMap::new(),
            group_started: HashMap::new(),
            inflight: HashSet::new(),
            files_remaining: 0,
            scratch_done: false,
            t_start: now,
            t_exec_start: 0.0,
        }
    }
}

struct TaskRun {
    spec: TaskSpec,
    state: TaskState,
    /// Attempts launched so far (primary + speculative).
    attempts: u32,
    task_failures: u32,
    infra_failures: u32,
    /// Node of the last failed attempt, avoided on retry when possible.
    avoid_node: Option<NodeId>,
    /// Containers declined by the adaptive policy for this task so far.
    declines: u32,
    next_attempt: u32,
    /// In-flight attempts by attempt id (1 normally, 2 while speculating).
    active: BTreeMap<u32, Attempt>,
    /// A speculative duplicate has been requested or is running.
    speculating: bool,
    t_ready: f64,
    t_start: f64,
    t_exec_end: f64,
}

impl TaskRun {
    fn new(spec: TaskSpec) -> TaskRun {
        TaskRun {
            spec,
            state: TaskState::Waiting,
            attempts: 0,
            task_failures: 0,
            infra_failures: 0,
            avoid_node: None,
            declines: 0,
            next_attempt: 0,
            active: BTreeMap::new(),
            speculating: false,
            t_ready: 0.0,
            t_start: 0.0,
            t_exec_end: 0.0,
        }
    }
}

/// Per-workflow blacklist entry: strike count and its decay horizon.
#[derive(Clone, Copy, Debug, Default)]
struct Strikes {
    count: u32,
    expires: f64,
}

struct Am {
    app: AppId,
    source: Box<dyn WorkflowSource>,
    config: HiwayConfig,
    prov: ProvenanceManager,
    scheduler: Box<dyn Scheduler>,
    tasks: BTreeMap<TaskId, TaskRun>,
    /// Ready-but-unlaunched tasks in readiness order.
    ready_order: Vec<TaskId>,
    /// Tasks with an unserved speculative container request.
    spec_pending: Vec<TaskId>,
    /// Nodes this workflow has seen attempts fail on, with decay.
    blacklist: BTreeMap<NodeId, Strikes>,
    started: bool,
    /// How the workflow ended; `None` while it runs.
    end: Option<Result<(), String>>,
    /// The rendered trace of a successful run that writes one.
    trace: Option<String>,
    am_container: Option<Container>,
    t_submit: f64,
    t_finish: f64,
    rng: StdRng,
    reports: Vec<TaskReport>,
    wasted_secs: f64,
    infra_failures: u32,
    task_failures: u32,
    speculative_attempts: u32,
    /// Completed invocations satisfied from the warm store this run.
    memo_hits: u64,
    memo_saved_secs: f64,
}

impl Am {
    /// Whether committed invocations are memoized: whenever this run
    /// could feed (or is) a resume — an explicit resume flag, or any
    /// durable store. Lookups additionally require `resume`.
    fn memoizes(&self) -> bool {
        self.config.resume || self.config.provdb_path.is_some()
    }

    fn active(&self) -> bool {
        self.end.is_none()
    }

    fn has_inflight_tasks(&self) -> bool {
        self.tasks
            .values()
            .any(|t| !t.active.is_empty() || t.state == TaskState::Backoff)
    }

    /// Whether this workflow currently refuses containers on `node`.
    fn node_blacklisted(&self, node: NodeId, now: f64) -> bool {
        if self.config.blacklist_strikes == 0 {
            return false;
        }
        match self.blacklist.get(&node) {
            Some(s) => s.count >= self.config.blacklist_strikes && now < s.expires,
            None => false,
        }
    }

    /// Registers an attempt failure on `node`; strikes decay after
    /// `blacklist_decay_secs` of quiet.
    fn strike_node(&mut self, node: NodeId, now: f64) {
        let decay = self.config.blacklist_decay_secs;
        let entry = self.blacklist.entry(node).or_default();
        if now > entry.expires {
            entry.count = 0;
        }
        entry.count += 1;
        entry.expires = now + decay;
    }
}

/// The driver's one selection rule over a policy's scores: the best
/// `(key, tie)` among the eligible candidates wins, and full ties go to
/// the earliest-ready one.
pub(crate) fn pick(scores: &Scores) -> Option<usize> {
    let better = if scores.lower_wins {
        Ordering::Less
    } else {
        Ordering::Greater
    };
    let mut best: Option<usize> = None;
    for (i, s) in scores.of.iter().enumerate() {
        let beats = s.reserved_for.is_none()
            && best.is_none_or(|b| {
                let b = &scores.of[b];
                let ord = s
                    .key
                    .partial_cmp(&b.key)
                    .expect("scores are finite")
                    .then_with(|| s.tie.partial_cmp(&b.tie).expect("scores are finite"));
                ord == better
            });
        if beats {
            best = Some(i);
        }
    }
    best
}

/// Hosts AMs on a cluster and drives the simulation to completion.
pub struct Runtime {
    pub cluster: Cluster,
    ams: Vec<Am>,
    /// Worker container → (workflow, task, attempt) hosting it.
    containers: HashMap<ContainerId, (usize, TaskId, u32)>,
    heartbeat_armed: bool,
    stall_strikes: u32,
    /// Extra CPU charged to master nodes per cluster event, modelling
    /// NameNode/ResourceManager/AM bookkeeping (Figure 6's master load).
    pub master_overhead: Option<MasterOverhead>,
    /// Observability sink shared with the engine, HDFS, and the RM.
    tracer: Tracer,
    /// Per-node trace tracks (same interned names as the engine's).
    node_tracks: Vec<TrackId>,
}

/// Models the control plane's resource use on dedicated master nodes —
/// the quantities Figure 6 monitors with `uptime`/`iostat`/`ifstat`.
#[derive(Clone, Copy, Debug)]
pub struct MasterOverhead {
    /// Node hosting YARN's RM and HDFS's NameNode.
    pub hadoop_master: NodeId,
    /// Node hosting the Hi-WAY AM container.
    pub am_master: NodeId,
    /// CPU-seconds charged to the Hadoop master per container allocation
    /// and per HDFS file operation.
    pub per_event_cpu: f64,
    /// CPU-seconds charged to the AM node per task state transition.
    pub per_task_cpu: f64,
    /// Bytes of RPC/heartbeat/log-aggregation traffic between the worker
    /// and the master per control-plane event.
    pub rpc_bytes: u64,
    /// Bytes of audit/event logs the master writes per event.
    pub log_bytes: u64,
}

impl MasterOverhead {
    /// Defaults calibrated so the Figure 6 panels land in the paper's
    /// magnitude band (master load <5 % of a 2-core node at 128 workers).
    pub fn defaults(hadoop_master: NodeId, am_master: NodeId) -> MasterOverhead {
        MasterOverhead {
            hadoop_master,
            am_master,
            per_event_cpu: 0.2,
            per_task_cpu: 0.3,
            rpc_bytes: 4 << 20,
            log_bytes: 2 << 20,
        }
    }
}

impl Runtime {
    pub fn new(cluster: Cluster) -> Runtime {
        Runtime {
            cluster,
            ams: Vec::new(),
            containers: HashMap::new(),
            heartbeat_armed: false,
            stall_strikes: 0,
            master_overhead: None,
            tracer: Tracer::disabled(),
            node_tracks: Vec::new(),
        }
    }

    /// Attaches an observability sink to every layer of the deployment:
    /// the engine (activity lifecycle), HDFS (block and locality
    /// counters), the RM (allocation counters), and the driver itself
    /// (task-attempt phase spans and the scheduler audit log). Call before
    /// running; a disabled tracer keeps everything a no-op.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.cluster.engine.set_tracer(tracer);
        self.cluster.hdfs.set_tracer(tracer);
        self.cluster.rm.set_tracer(tracer);
        self.node_tracks = self
            .cluster
            .engine
            .spec()
            .nodes
            .iter()
            .map(|n| tracer.track(&n.name))
            .collect();
    }

    /// Submits a workflow; returns its index. The AM starts once YARN
    /// allocates its container (first heartbeat).
    pub fn submit(
        &mut self,
        source: Box<dyn WorkflowSource>,
        config: HiwayConfig,
        prov_db: ProvDb,
    ) -> usize {
        // A configured durable path supersedes the passed-in handle: the
        // provenance database must outlive this process for resume to
        // mean anything. Open failures surface as submission errors.
        let (prov_db, open_error) = match config.provdb_path.as_deref() {
            Some(path) => match ProvDb::open(path) {
                Ok(db) => (db, None),
                Err(e) => (ProvDb::new(), Some(format!("provenance store: {e}"))),
            },
            None => (prov_db, None),
        };
        // Route the submission through the configured scheduler queue.
        // Queued submissions hold their AM request until admitted;
        // rejected ones (admission limit, unknown queue) become errored
        // AMs without ever touching the RM queue.
        let queue_name = config
            .queue
            .clone()
            .unwrap_or_else(|| self.cluster.rm.default_queue().to_string());
        let (app, submit_error) = match self
            .cluster
            .rm
            .submit_app_to(&queue_name, source.name().to_string())
        {
            Ok((app, hiway_yarn::Admission::Rejected)) => (
                app,
                Some(format!(
                    "submission rejected: queue '{queue_name}' is at its application limit"
                )),
            ),
            Ok((app, _)) => (app, None),
            Err(why) => {
                let app = self.cluster.rm.submit_app(source.name().to_string());
                self.cluster.rm.finish_app(app);
                (app, Some(format!("submission failed: {why}")))
            }
        };
        let submit_error = open_error.or(submit_error);
        if submit_error.is_none() {
            // The AM container must never fall to cross-queue preemption:
            // killing the AM kills the whole workflow.
            self.cluster.rm.request(
                app,
                hiway_yarn::ContainerRequest::anywhere(AM_RESOURCE).never_preempt(),
            );
        }
        let seed = config.seed ^ (self.ams.len() as u64).wrapping_mul(0x9e37_79b9);
        let scheduler = make_scheduler(config.scheduler);
        let t_submit = self.cluster.engine.now().as_secs();
        self.ams.push(Am {
            app,
            source,
            config,
            prov: ProvenanceManager::new(prov_db),
            scheduler,
            tasks: BTreeMap::new(),
            ready_order: Vec::new(),
            spec_pending: Vec::new(),
            blacklist: BTreeMap::new(),
            started: false,
            end: None,
            trace: None,
            am_container: None,
            t_submit,
            t_finish: 0.0,
            rng: StdRng::seed_from_u64(seed),
            reports: Vec::new(),
            wasted_secs: 0.0,
            infra_failures: 0,
            task_failures: 0,
            speculative_attempts: 0,
            memo_hits: 0,
            memo_saved_secs: 0.0,
        });
        let wf = self.ams.len() - 1;
        if let Some(why) = submit_error {
            self.end_workflow(wf, Err(why));
        }
        self.arm_heartbeat();
        wf
    }

    fn arm_heartbeat(&mut self) {
        if !self.heartbeat_armed {
            self.heartbeat_armed = true;
            self.cluster
                .engine
                .set_timer_after(HEARTBEAT_SECS, Tag::Heartbeat { wf: 0 });
        }
    }

    /// Steps the engine once and dispatches everything that completed;
    /// `false` once the engine has drained.
    fn step(&mut self) -> bool {
        let Some(events) = self.cluster.engine.step() else {
            return false;
        };
        for Completion::Timer { tag, .. } | Completion::Activity { tag, .. } in events {
            self.dispatch(tag);
        }
        true
    }

    fn any_active(&self) -> bool {
        self.ams.iter().any(Am::active)
    }

    /// Runs until every submitted workflow has finished or failed, then
    /// returns the reports (in submission order). Panics if the run left
    /// anything behind (see [`Runtime::check_conservation`]).
    pub fn run_to_completion(&mut self) -> Vec<WorkflowReport> {
        while self.step() && self.any_active() {}
        // Anything still active at engine drain is stalled.
        for wf in 0..self.ams.len() {
            if self.ams[wf].active() {
                self.end_workflow(wf, Err("workflow stalled: no runnable work left".into()));
            }
        }
        if let Err(leak) = self.check_conservation() {
            panic!("run ended without conserving its resources: {leak}");
        }
        self.reports()
    }

    /// Runs until virtual time `deadline` (or until all workflows finish,
    /// whichever is first) and returns control — the hook that lets tests
    /// and chaos harnesses inject node failures mid-run. Returns `true`
    /// while at least one workflow is still active.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        while self.any_active() {
            match self.cluster.engine.peek_next_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => {
                    self.cluster
                        .engine
                        .advance_to(deadline.max(self.cluster.engine.now()));
                    return self.any_active();
                }
            }
        }
        false
    }

    /// Builds the reports: a workflow that has ended reports its end
    /// instant, one still running reports the current time.
    pub fn reports(&self) -> Vec<WorkflowReport> {
        let now = self.cluster.engine.now().as_secs();
        self.ams
            .iter()
            .map(|am| WorkflowReport {
                name: am.source.name().to_string(),
                language: am.source.language().to_string(),
                scheduler: am.scheduler.policy().name(),
                t_submit: am.t_submit,
                t_finish: if am.active() { now } else { am.t_finish },
                tasks: am.reports.clone(),
                trace: am.trace.clone().unwrap_or_default(),
                trace_path: am
                    .trace
                    .as_ref()
                    .map(|_| format!("/hiway/traces/{}.trace", am.source.name())),
                wasted_container_secs: am.wasted_secs,
                infra_failures: am.infra_failures,
                task_failures: am.task_failures,
                speculative_attempts: am.speculative_attempts,
            })
            .collect()
    }

    /// The error message of workflow `wf`, if it failed.
    pub fn error_of(&self, wf: usize) -> Option<&str> {
        match &self.ams[wf].end {
            Some(Err(why)) => Some(why),
            _ => None,
        }
    }

    /// The (possibly incomplete) provenance of a running workflow — like
    /// Chiron, Hi-WAY is one of the few systems where "a workflow's
    /// (incomplete) provenance data can be queried during execution of
    /// that same workflow" (§2.2, §3.5). Combine with
    /// [`Runtime::run_until`] to interrogate a paused run.
    pub fn provenance(&self, wf: usize) -> &ProvenanceManager {
        &self.ams[wf].prov
    }

    /// How many completed invocations workflow `wf` satisfied from the
    /// warm provenance store instead of executing (resume runs only).
    pub fn memo_hits(&self, wf: usize) -> u64 {
        self.ams[wf].memo_hits
    }

    /// Execution seconds the warm store saved workflow `wf` (the sum of
    /// the original makespans of all memo-satisfied invocations).
    pub fn memo_saved_secs(&self, wf: usize) -> f64 {
        self.ams[wf].memo_saved_secs
    }

    /// Progress counters of a workflow: `(done, total_known)` tasks.
    pub fn progress(&self, wf: usize) -> (usize, usize) {
        let am = &self.ams[wf];
        let done = am
            .tasks
            .values()
            .filter(|t| t.state == TaskState::Done)
            .count();
        (done, am.tasks.len())
    }

    /// Fails a node mid-run: kills its containers and re-tries the tasks
    /// that were running there. The caller decides whether to trigger
    /// HDFS re-replication afterwards.
    pub fn fail_node(&mut self, node: NodeId) {
        let killed = self.cluster.fail_node(node);
        for container in killed {
            if let Some(&(wf, task, attempt)) = self.containers.get(&container.id) {
                self.handle_attempt_failure(wf, task, attempt, FailureKind::Infra, "node failure");
            } else if let Some(wf) = self
                .ams
                .iter()
                .position(|am| am.am_container.map(|c| c.id) == Some(container.id))
            {
                self.end_workflow(wf, Err(format!("AM container lost with node {}", node.0)));
            }
        }
    }

    /// Brings a previously failed node back into service: its NodeManager
    /// re-registers with full capacity and its DataNode rejoins empty.
    /// Containers that died with the node stay dead; the per-workflow
    /// blacklists keep steering work away until their strikes decay.
    pub fn recover_node(&mut self, node: NodeId) {
        self.cluster.recover_node(node);
    }

    /// Kills one running worker container (YARN preemption). The attempt
    /// it hosted fails as an *infrastructure* failure — it does not count
    /// against the task's own retry budget. Returns `false` if the id is
    /// not a live worker container.
    pub fn preempt_container(&mut self, cid: ContainerId) -> bool {
        let Some(&(wf, task, attempt)) = self.containers.get(&cid) else {
            return false;
        };
        self.handle_attempt_failure(wf, task, attempt, FailureKind::Infra, "container preempted");
        true
    }

    /// Live worker containers (excludes AM containers), in id order —
    /// a deterministic victim list for preemption harnesses.
    pub fn worker_containers(&self) -> Vec<ContainerId> {
        let mut ids: Vec<ContainerId> = self.containers.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    // ----- event dispatch -------------------------------------------------

    #[doc(hidden)]
    pub fn dispatch_public(&mut self, tag: Tag) {
        self.dispatch(tag)
    }

    fn dispatch(&mut self, tag: Tag) {
        match tag {
            Tag::Heartbeat { .. } => self.on_heartbeat(),
            Tag::ContainerStarted { wf, task, attempt } => {
                self.begin_transfers(wf as usize, task, attempt, AttemptPhase::StageIn)
            }
            Tag::StageIn {
                wf,
                task,
                attempt,
                file,
            } => self.on_transfer_done(wf as usize, task, attempt, AttemptPhase::StageIn, file),
            Tag::Exec { wf, task, attempt } => self.on_exec_done(wf as usize, task, attempt),
            Tag::StageOut {
                wf,
                task,
                attempt,
                file,
            } => self.on_transfer_done(wf as usize, task, attempt, AttemptPhase::StageOut, file),
            Tag::RetryTask { wf, task } => self.on_retry_due(wf as usize, task),
            Tag::Stress | Tag::Replication => {}
        }
    }

    fn on_heartbeat(&mut self) {
        self.heartbeat_armed = false;
        // Fail fast workflows whose requests can never be satisfied — an
        // ask larger than every node (or the queue's elastic ceiling)
        // would otherwise hang until stall detection guesses.
        for (app, why) in self.cluster.rm.take_infeasible() {
            if let Some(wf) = self.ams.iter().position(|am| am.app == app) {
                if self.ams[wf].active() {
                    self.end_workflow(wf, Err(format!("unsatisfiable container request: {why}")));
                }
            }
        }
        // Cross-queue preemption victims selected by the RM die through
        // the same infrastructure-failure path node crashes use, so AM
        // infra-retry budgets and backoff apply.
        for cid in self.cluster.rm.take_preemptions() {
            self.preempt_container(cid);
        }
        let now = self.cluster.engine.now().as_secs();
        let granted = self.cluster.rm.allocate_at(now);
        let any_granted = !granted.is_empty();
        for container in granted {
            self.route_container(container);
        }
        self.maybe_speculate();

        if self.any_active() {
            // Stall detection: nothing allocated, nothing in flight, yet
            // unfinished workflows remain — the cluster can never make
            // progress (an input that will never exist, a pinned request
            // for a dead node, or an AM container that fits nowhere).
            // Tasks in retry backoff count as in flight: their timer will
            // re-request a container.
            let any_inflight = self.ams.iter().any(Am::has_inflight_tasks);
            if !any_granted && !any_inflight {
                self.stall_strikes += 1;
            } else {
                self.stall_strikes = 0;
            }
            if self.stall_strikes > 3 {
                for wf in 0..self.ams.len() {
                    if self.ams[wf].active() {
                        let why = if self.ams[wf].started {
                            "workflow stalled: tasks waiting on inputs that never appear"
                        } else {
                            "workflow stalled: AM container was never allocated"
                        };
                        self.end_workflow(wf, Err(why.to_string()));
                    }
                }
                return;
            }
            self.arm_heartbeat();
        }
    }

    fn route_container(&mut self, container: Container) {
        let wf = match self.ams.iter().position(|am| am.app == container.app) {
            Some(wf) => wf,
            None => {
                self.cluster.rm.release(container.id);
                return;
            }
        };
        if !self.ams[wf].active() {
            self.cluster.rm.release(container.id);
            return;
        }
        if !self.ams[wf].started {
            self.ams[wf].am_container = Some(container);
            self.start_am(wf);
            return;
        }
        self.charge_master_overhead_from(true, Some(container.node));
        let node = container.node;
        let now = self.cluster.engine.now().as_secs();
        // Per-workflow blacklist: hand containers on struck nodes straight
        // back, as long as some other schedulable node exists. The strikes
        // decay, so a recovered node earns its way back in.
        if self.ams[wf].node_blacklisted(node, now) {
            let alternative = self.cluster.rm.alive_nodes().into_iter().any(|n| {
                n != node
                    && self.cluster.rm.total(n).vcores > 0
                    && !self.ams[wf].node_blacklisted(n, now)
            });
            if alternative {
                self.cluster.rm.release(container.id);
                self.re_request_head(wf);
                return;
            }
        }
        // Pick a task for this worker container.
        let multi_node = self.cluster.rm.alive_nodes().len() > 1;
        let am = &mut self.ams[wf];
        let candidates: Vec<&TaskSpec> = am
            .ready_order
            .iter()
            .filter(|id| am.tasks[id].state == TaskState::Requested)
            .filter(|id| !(multi_node && am.tasks[id].avoid_node == Some(node)))
            .map(|id| &am.tasks[id].spec)
            .collect();
        let node_name = self.cluster.engine.spec().node(node).name.clone();
        // The policy scores; the fixed rule picks, and the audit row is
        // written from the very scores the pick used.
        let scores =
            am.scheduler
                .score(node, &node_name, &candidates, &self.cluster.hdfs, &am.prov);
        let winner = pick(&scores);
        if self.tracer.is_enabled() {
            self.tracer.audit(Decision {
                t: now,
                policy: am.scheduler.policy().name(),
                kind: DecisionKind::Select,
                node: node.0,
                node_name: node_name.clone(),
                candidates: candidates
                    .iter()
                    .zip(&scores.of)
                    .map(|(t, s)| CandidateScore {
                        task: t.id.0,
                        label: t.name.clone(),
                        score: s.key,
                        detail: (scores.detail)(s, &node_name),
                    })
                    .collect(),
                winner: winner.map(|i| candidates[i].id.0),
                reason: scores.reason.into(),
            });
        }
        let Some(i) = winner else {
            // No primary task fits this container: maybe a straggler's
            // speculative duplicate can use it.
            if self.try_launch_speculative(wf, container) {
                return;
            }
            // Otherwise hand it back and re-ask so the request count
            // matches the ready tasks again.
            self.cluster.rm.release(container.id);
            self.re_request_head(wf);
            return;
        };
        let task_id = candidates[i].id;
        // Late binding: the policy may decline a poorly placed container
        // and wait for a better one (bounded per task).
        let task = am.tasks.get_mut(&task_id).expect("candidate is known");
        if scores.of[i].decline && task.declines < 3 {
            task.declines += 1;
            let req = am
                .scheduler
                .container_request(&task.spec, container.resource);
            self.cluster.rm.release(container.id);
            self.cluster.rm.request(am.app, req);
            return;
        }
        self.launch_attempt(wf, container, task_id, false);
    }

    /// Issues a fresh container request for the head Requested task (used
    /// after handing a container back).
    fn re_request_head(&mut self, wf: usize) {
        let am = &self.ams[wf];
        let head = am
            .ready_order
            .iter()
            .find(|id| am.tasks[id].state == TaskState::Requested);
        if let Some(&tid) = head {
            self.request_container(wf, tid);
        }
    }

    /// Asks the RM for a container for `task_id`, shaped by the policy,
    /// first queueing the task as Requested in readiness order unless it
    /// already waits there.
    fn request_container(&mut self, wf: usize, task_id: TaskId) {
        let resource = self.container_resource_for(wf, &self.ams[wf].tasks[&task_id].spec);
        let am = &mut self.ams[wf];
        let task = am.tasks.get_mut(&task_id).expect("known task");
        if task.state != TaskState::Requested {
            task.state = TaskState::Requested;
            am.ready_order.push(task_id);
        }
        let req = am.scheduler.container_request(&task.spec, resource);
        self.cluster.rm.request(am.app, req);
    }

    /// Starts one attempt of `task_id` in `container`. Primary attempts
    /// consume the task's slot in `ready_order`; speculative ones run
    /// alongside the existing attempt.
    fn launch_attempt(
        &mut self,
        wf: usize,
        container: Container,
        task_id: TaskId,
        speculative: bool,
    ) {
        let now = self.cluster.engine.now().as_secs();
        let am = &mut self.ams[wf];
        let task = am.tasks.get_mut(&task_id).expect("known task");
        task.attempts += 1;
        let attempt = task.next_attempt;
        task.next_attempt += 1;
        task.active
            .insert(attempt, Attempt::new(container, now, speculative));
        if speculative {
            am.speculative_attempts += 1;
        } else {
            task.state = TaskState::Active;
            task.t_start = now;
            am.ready_order.retain(|id| *id != task_id);
        }
        self.containers.insert(container.id, (wf, task_id, attempt));
        if self.tracer.is_enabled() {
            self.tracer.instant(
                self.node_tracks[container.node.index()],
                &format!("attempt.launch:{}", self.ams[wf].tasks[&task_id].spec.name),
                "driver",
                now,
                &[
                    ("task", task_id.0.to_string()),
                    ("attempt", attempt.to_string()),
                    ("container", container.id.0.to_string()),
                    ("speculative", speculative.to_string()),
                ],
            );
            self.tracer.inc("driver.attempts_launched", 1);
            if speculative {
                self.tracer.inc("driver.speculative_attempts", 1);
            }
        }
        self.cluster.engine.set_timer_after(
            CONTAINER_STARTUP_SECS,
            Tag::ContainerStarted {
                wf: wf as u32,
                task: task_id,
                attempt,
            },
        );
    }

    /// Tries to use an unmatched container for a pending speculative
    /// duplicate; the duplicate must land on a different node than the
    /// straggling attempt.
    fn try_launch_speculative(&mut self, wf: usize, container: Container) -> bool {
        if !self.ams[wf].config.speculative_execution {
            return false;
        }
        let mut launch: Option<TaskId> = None;
        {
            let am = &mut self.ams[wf];
            let tasks = &am.tasks;
            let mut stale: Vec<usize> = Vec::new();
            for (i, tid) in am.spec_pending.iter().enumerate() {
                let eligible = tasks.get(tid).is_some_and(|t| {
                    t.state == TaskState::Active && t.speculating && t.active.len() == 1
                });
                if !eligible {
                    stale.push(i);
                    continue;
                }
                let primary_node = tasks[tid].active.values().next().map(|a| a.container.node);
                if primary_node == Some(container.node) {
                    continue; // same node as the straggler: pointless copy
                }
                launch = Some(*tid);
                stale.push(i);
                break;
            }
            for i in stale.into_iter().rev() {
                am.spec_pending.remove(i);
            }
        }
        match launch {
            Some(tid) => {
                self.launch_attempt(wf, container, tid, true);
                true
            }
            None => false,
        }
    }

    /// Scans for stragglers and requests duplicate containers for them —
    /// the speculative-execution heartbeat hook.
    fn maybe_speculate(&mut self) {
        let now = self.cluster.engine.now().as_secs();
        for wf in 0..self.ams.len() {
            if !self.ams[wf].active() || !self.ams[wf].config.speculative_execution {
                continue;
            }
            let factor = self.ams[wf].config.speculation_factor;
            let min_secs = self.ams[wf].config.speculation_min_secs;
            let am = &self.ams[wf];
            let stragglers: Vec<TaskId> = am
                .tasks
                .iter()
                .filter(|(_, task)| {
                    if task.state != TaskState::Active || task.speculating || task.active.len() != 1
                    {
                        return false;
                    }
                    let attempt = task.active.values().next().expect("len checked");
                    let elapsed = now - attempt.t_exec_start;
                    attempt.phase == AttemptPhase::Running
                        && elapsed >= min_secs
                        && am
                            .prov
                            .average_runtime(&task.spec.name)
                            .is_some_and(|est| est > 0.0 && elapsed > factor * est)
                })
                .map(|(tid, _)| *tid)
                .collect();
            for tid in stragglers {
                let resource = self.container_resource_for(wf, &self.ams[wf].tasks[&tid].spec);
                let am = &mut self.ams[wf];
                am.tasks.get_mut(&tid).expect("known").speculating = true;
                am.spec_pending.push(tid);
                self.cluster
                    .rm
                    .request(am.app, ContainerRequest::anywhere(resource));
            }
        }
    }

    fn start_am(&mut self, wf: usize) {
        let am = &mut self.ams[wf];
        am.started = true;
        if am.config.scheduler.is_static() && !am.source.is_static() {
            let why = format!(
                "static scheduling policy '{}' cannot run iterative language '{}'",
                am.config.scheduler.name(),
                am.source.language()
            );
            return self.end_workflow(wf, Err(why));
        }
        let discovered = am.source.initial_tasks();
        // Static policies plan over the full (static) task graph — but
        // only over nodes that can actually host a worker container
        // (dedicated master nodes advertise no capacity; the AM's own node
        // is already occupied by the AM).
        if let (Ok(tasks), true) = (&discovered, am.config.scheduler.is_static()) {
            let resource = am.config.container_resource;
            let nodes: Vec<_> = self
                .cluster
                .rm
                .alive_nodes()
                .into_iter()
                .filter(|n| self.cluster.rm.available(*n).fits(&resource))
                .collect();
            if nodes.is_empty() {
                let why = "no node can host a worker container; static planning impossible";
                return self.end_workflow(wf, Err(why.into()));
            }
            let names: Vec<String> = self
                .cluster
                .engine
                .spec()
                .nodes
                .iter()
                .map(|n| n.name.clone())
                .collect();
            let now = self.cluster.engine.now().as_secs();
            am.scheduler
                .plan(tasks, &nodes, &names, &am.prov, &self.tracer, now);
        }
        self.advance(wf, discovered);
    }

    /// Registers newly discovered tasks, requests containers for the ready
    /// ones, and ends the workflow once the front-end is complete and every
    /// task is done; a front-end error ends it as a failure.
    fn advance(&mut self, wf: usize, discovered: Result<Vec<TaskSpec>, LangError>) {
        match discovered {
            Ok(tasks) => self.register_tasks(wf, tasks),
            Err(e) => return self.end_workflow(wf, Err(e.to_string())),
        }
        self.check_ready(wf);
        let am = &self.ams[wf];
        if am.active()
            && am.source.is_complete()
            && am.tasks.values().all(|t| t.state == TaskState::Done)
        {
            self.end_workflow(wf, Ok(()));
        }
    }

    fn register_tasks(&mut self, wf: usize, tasks: Vec<TaskSpec>) {
        let am = &mut self.ams[wf];
        for spec in tasks {
            let id = spec.id;
            assert!(
                !am.tasks.contains_key(&id),
                "front-end emitted duplicate task {id:?}"
            );
            am.tasks.insert(id, TaskRun::new(spec));
        }
    }

    /// The container resource for a task: the AM-wide uniform size, or —
    /// in tailored mode (§5 future work) — the task's own footprint,
    /// clamped so it fits the largest node.
    fn container_resource_for(&self, wf: usize, task: &TaskSpec) -> Resource {
        let config = &self.ams[wf].config;
        if !config.tailored_containers {
            return config.container_resource;
        }
        let (max_vcores, max_mem) = self
            .cluster
            .rm
            .alive_nodes()
            .into_iter()
            .map(|n| self.cluster.rm.total(n))
            .fold((1u32, 512u64), |(v, m), r| {
                (v.max(r.vcores), m.max(r.memory_mb))
            });
        Resource::new(
            task.cost.threads.clamp(1, max_vcores),
            task.cost.memory_mb.clamp(256, max_mem),
        )
    }

    /// Moves Waiting tasks whose inputs are all available to Requested.
    fn check_ready(&mut self, wf: usize) {
        let now = self.cluster.engine.now().as_secs();
        let ready: Vec<TaskId> = {
            let am = &self.ams[wf];
            am.tasks
                .iter()
                .filter(|(_, t)| t.state == TaskState::Waiting)
                .filter(|(_, t)| {
                    t.spec
                        .inputs
                        .iter()
                        .all(|p| self.cluster.input_available(p))
                })
                .map(|(id, _)| *id)
                .collect()
        };
        for id in ready {
            // A nested check_ready (via a memo completion's discovery
            // cascade) may have handled this task already, or ended the
            // workflow.
            if !self.ams[wf].active() {
                return;
            }
            if self.ams[wf].tasks[&id].state != TaskState::Waiting {
                continue;
            }
            // Resume path: a committed invocation with this signature and
            // these input digests never reaches a scheduler — it is
            // satisfied from the warm provenance store on the spot.
            if self.ams[wf].config.resume {
                if let Some((key, hit)) = self.memo_lookup(wf, id) {
                    self.complete_from_memo(wf, id, &key, hit);
                    continue;
                }
            }
            self.ams[wf].tasks.get_mut(&id).expect("listed").t_ready = now;
            self.request_container(wf, id);
        }
    }

    /// The memo key of a task, from its signature and the canonical
    /// digests of its currently staged inputs. `None` when any input's
    /// digest is unavailable (shouldn't happen for a ready task) — the
    /// task then simply executes normally.
    fn memo_key_for(&self, wf: usize, task_id: TaskId) -> Option<String> {
        let spec = &self.ams[wf].tasks.get(&task_id)?.spec;
        let mut digests = Vec::with_capacity(spec.inputs.len());
        for path in &spec.inputs {
            let digest = match self.cluster.external_file(path) {
                // External inputs are not in HDFS; digest their stable
                // identity the same way HDFS digests its files.
                Some(ext) => {
                    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                    for &b in path.as_bytes().iter().chain(ext.size.to_le_bytes().iter()) {
                        h ^= b as u64;
                        h = h.wrapping_mul(0x100_0000_01b3);
                    }
                    h
                }
                None => self.cluster.hdfs.content_digest(path).ok()?,
            };
            digests.push(digest);
        }
        Some(memo_key(&spec.name, &spec.command, &digests))
    }

    /// Looks a ready task up in the memo store. A hit must also promise
    /// exactly the outputs the current spec declares — a changed workflow
    /// definition falls back to real execution.
    fn memo_lookup(&self, wf: usize, task_id: TaskId) -> Option<(String, MemoHit)> {
        let key = self.memo_key_for(wf, task_id)?;
        let hit = self.ams[wf].prov.memo_hit(&key)?;
        let spec = &self.ams[wf].tasks[&task_id].spec;
        let declared: Vec<(String, u64)> = spec
            .outputs
            .iter()
            .map(|o| (o.path.clone(), o.size))
            .collect();
        if hit.outputs != declared {
            return None;
        }
        Some((key, hit))
    }

    /// Satisfies a task from the warm store: materialize its recorded
    /// outputs in HDFS (free, like pre-staging — the data provably
    /// existed), mark it done, emit a `memo:hit` instant plus an audit
    /// row instead of execute phases, and run the normal completion tail
    /// (iterative discovery, readiness cascade, finish check).
    fn complete_from_memo(&mut self, wf: usize, task_id: TaskId, key: &str, hit: MemoHit) {
        let now = self.cluster.engine.now().as_secs();
        for (path, size) in &hit.outputs {
            self.cluster.discard_uncommitted(path);
            if !self.cluster.hdfs.exists(path) {
                self.cluster.prestage(path, *size);
            }
        }
        let am = &mut self.ams[wf];
        am.memo_hits += 1;
        am.memo_saved_secs += hit.saved_secs;
        let name = am.tasks[&task_id].spec.name.clone();
        if self.tracer.is_enabled() {
            let track = self.node_tracks.first().copied().unwrap_or_else(|| {
                // Tracer enabled but set_tracer never ran: intern a track.
                self.tracer.track("memo")
            });
            self.tracer.instant(
                track,
                "memo:hit",
                "memo",
                now,
                &[
                    ("task", task_id.0.to_string()),
                    ("name", name.clone()),
                    ("key", key.to_string()),
                    ("saved_secs", format!("{:.6}", hit.saved_secs)),
                ],
            );
            self.tracer.inc("driver.memo_hits", 1);
            self.tracer
                .observe("driver.memo_saved_secs", hit.saved_secs);
            self.tracer.audit(hiway_obs::Decision {
                t: now,
                policy: "memo",
                kind: hiway_obs::DecisionKind::Memo,
                node: 0,
                node_name: format!("memo:{}", hit.node),
                candidates: Vec::new(),
                winner: Some(task_id.0),
                reason: format!(
                    "invocation {name} satisfied from warm store (key {key}, saved {:.1}s)",
                    hit.saved_secs
                ),
            });
        }
        self.complete_task(
            wf,
            TaskReport {
                id: task_id,
                name,
                node: format!("memo:{}", hit.node),
                t_ready: now,
                t_start: now,
                t_end: now,
                attempts: 0,
                localize_secs: 0.0,
                commit_secs: 0.0,
            },
        );
    }

    /// The completion tail shared by executed and memo-satisfied tasks:
    /// the task is done and reported, and the front-end learns of it —
    /// iterative discovery (Figure 3) may reveal new tasks.
    fn complete_task(&mut self, wf: usize, report: TaskReport) {
        let am = &mut self.ams[wf];
        let id = report.id;
        am.tasks.get_mut(&id).expect("known task").state = TaskState::Done;
        am.reports.push(report);
        let discovered = am.source.on_task_completed(id);
        self.advance(wf, discovered);
    }

    // ----- worker container lifecycle --------------------------------------

    fn attempt_mut(&mut self, wf: usize, task_id: TaskId, attempt: u32) -> Option<&mut Attempt> {
        self.ams[wf]
            .tasks
            .get_mut(&task_id)?
            .active
            .get_mut(&attempt)
    }

    /// Bytes of `path` as staged: an external file's registered size, or
    /// the HDFS file's length.
    fn file_size(&self, path: &str) -> u64 {
        self.cluster
            .external_file(path)
            .map(|e| e.size)
            .or_else(|| self.cluster.hdfs.len(path).ok())
            .unwrap_or(0)
    }

    /// Starts an attempt's transfers in one direction — stage-in once its
    /// container is up, stage-out once its command has run — as one
    /// completion group per file. An attempt with nothing to transfer
    /// moves straight on to the next phase.
    fn begin_transfers(&mut self, wf: usize, task_id: TaskId, attempt: u32, phase: AttemptPhase) {
        let inbound = phase == AttemptPhase::StageIn;
        let spec = &self.ams[wf].tasks[&task_id].spec;
        let files: Vec<String> = if inbound {
            spec.inputs.clone()
        } else {
            spec.outputs.iter().map(|o| o.path.clone()).collect()
        };
        let Some(att) = self.attempt_mut(wf, task_id, attempt) else {
            return; // attempt was cancelled before its container came up
        };
        att.phase = phase;
        att.files_remaining = files.len();
        let node = att.container.node;
        if inbound {
            self.charge_master_overhead_from(false, Some(node));
        }
        let now = self.cluster.engine.now();
        let mut instantly_done: Vec<u32> = Vec::new();
        for (fi, path) in files.iter().enumerate() {
            let file = fi as u32;
            let started =
                if inbound {
                    let tag = Tag::StageIn {
                        wf: wf as u32,
                        task: task_id,
                        attempt,
                        file,
                    };
                    match self.cluster.external_file(path) {
                        Some(ext) if ext.size == 0 => Ok(Vec::new()),
                        Some(ext) => Ok(vec![self.cluster.engine.start(
                            Activity::Flow {
                                src: Endpoint::External(ext.service),
                                dst: Endpoint::Node(node),
                                src_disk: false,
                                dst_disk: true,
                            },
                            ext.size as f64,
                            tag,
                        )]),
                        None => self.cluster.hdfs.read_plan(path, node).map(|plan| {
                            hdfs_exec::start_read(&mut self.cluster.engine, &plan, tag)
                        }),
                    }
                } else {
                    let tag = Tag::StageOut {
                        wf: wf as u32,
                        task: task_id,
                        attempt,
                        file,
                    };
                    self.charge_master_overhead(false);
                    // A previous attempt may have died mid-stage-out, leaving a
                    // registered-but-uncommitted file behind; drop it so the
                    // retry's create succeeds.
                    self.cluster.discard_uncommitted(path);
                    let size = self.ams[wf].tasks[&task_id].spec.outputs[fi].size;
                    self.cluster
                        .hdfs
                        .create(path, size, node)
                        .map(|plan| hdfs_exec::start_write(&mut self.cluster.engine, &plan, tag))
                };
            let acts = match started {
                Ok(acts) => acts,
                Err(e) => {
                    // Replica or DataNode loss mid-run is an infrastructure
                    // fault: retry (re-replication may restore the data)
                    // rather than failing the whole workflow.
                    let dir = if inbound { "in" } else { "out" };
                    let why = format!("stage-{dir} of '{path}' failed: {e}");
                    return self.handle_attempt_failure(
                        wf,
                        task_id,
                        attempt,
                        FailureKind::Infra,
                        &why,
                    );
                }
            };
            let att = self.attempt_mut(wf, task_id, attempt).expect("live");
            att.group_started.insert(file, now);
            if acts.is_empty() {
                instantly_done.push(file);
            } else {
                att.group_remaining.insert(file, acts.len());
                att.inflight.extend(acts);
            }
        }
        for file in instantly_done {
            self.on_transfer_done(wf, task_id, attempt, phase, file);
        }
        if files.is_empty() {
            self.transfers_done(wf, task_id, attempt, phase);
        }
    }

    /// One transfer activity of `file` finished. The file is staged once
    /// its whole group has: a stage-out commits it, both directions record
    /// it in provenance, and the last file moves the attempt on.
    fn on_transfer_done(
        &mut self,
        wf: usize,
        task_id: TaskId,
        attempt: u32,
        phase: AttemptPhase,
        file: u32,
    ) {
        let now = self.cluster.engine.now();
        let att = match self.attempt_mut(wf, task_id, attempt) {
            Some(a) if a.phase == phase => a,
            _ => return, // stale event after failure/cancel
        };
        if let Some(rem) = att.group_remaining.get_mut(&file).filter(|rem| **rem > 1) {
            *rem -= 1;
            return;
        }
        att.group_remaining.remove(&file);
        let started = att.group_started[&file];
        let inbound = phase == AttemptPhase::StageIn;
        let spec = &self.ams[wf].tasks[&task_id].spec;
        let path = if inbound {
            spec.inputs[file as usize].clone()
        } else {
            spec.outputs[file as usize].path.clone()
        };
        if !inbound {
            self.cluster.commit_file(&path);
        }
        let size = self.file_size(&path);
        self.ams[wf].prov.record_file(FileEvent {
            path,
            size,
            task: task_id.0,
            direction: if inbound { "in" } else { "out" }.into(),
            transfer_seconds: now.since(started),
        });
        let att = self.attempt_mut(wf, task_id, attempt).expect("live");
        att.files_remaining -= 1;
        if att.files_remaining == 0 {
            self.transfers_done(wf, task_id, attempt, phase);
        }
    }

    /// Every file of `phase` is staged: after stage-in the command runs,
    /// after stage-out the task is committed.
    fn transfers_done(&mut self, wf: usize, task_id: TaskId, attempt: u32, phase: AttemptPhase) {
        if phase == AttemptPhase::StageIn {
            self.begin_exec(wf, task_id, attempt);
        } else {
            self.finish_task(wf, task_id, attempt);
        }
    }

    fn begin_exec(&mut self, wf: usize, task_id: TaskId, attempt: u32) {
        let now = self.cluster.engine.now().as_secs();
        let full_node = self.ams[wf].config.multithread_full_node;
        let cost = self.ams[wf].tasks[&task_id].spec.cost;
        let att = self.attempt_mut(wf, task_id, attempt).expect("live");
        att.phase = AttemptPhase::Running;
        att.inflight.clear();
        att.files_remaining = 1;
        att.t_exec_start = now;
        att.scratch_done = cost.scratch_bytes == 0;
        let container = att.container;
        let cap = if full_node {
            self.cluster.engine.spec().node(container.node).cores
        } else {
            container.resource.vcores
        };
        let threads = cost.threads.min(cap.max(1)).max(1) as f64;
        let act = self.cluster.engine.start(
            Activity::Compute {
                node: container.node,
                threads,
            },
            cost.cpu_seconds,
            Tag::Exec {
                wf: wf as u32,
                task: task_id,
                attempt,
            },
        );
        let att = self.attempt_mut(wf, task_id, attempt).expect("live");
        att.inflight.insert(act);
    }

    fn on_exec_done(&mut self, wf: usize, task_id: TaskId, attempt: u32) {
        let att = match self.attempt_mut(wf, task_id, attempt) {
            Some(a) if a.phase == AttemptPhase::Running => a,
            _ => return,
        };
        att.files_remaining = att.files_remaining.saturating_sub(1);
        if att.files_remaining > 0 {
            return; // more execution-phase activities outstanding
        }
        att.inflight.clear();
        if !att.scratch_done {
            // Working-directory I/O: the tool writes its temporary files
            // and reads them back — on the node's *local* disk under
            // Hi-WAY (cf. Figure 8's analysis).
            att.scratch_done = true;
            let node = att.container.node;
            let bytes = self.ams[wf].tasks[&task_id].spec.cost.scratch_bytes as f64;
            let tag = Tag::Exec {
                wf: wf as u32,
                task: task_id,
                attempt,
            };
            let w = self
                .cluster
                .engine
                .start(Activity::DiskWrite { node }, bytes, tag.clone());
            let r = self
                .cluster
                .engine
                .start(Activity::DiskRead { node }, bytes, tag);
            let att = self.attempt_mut(wf, task_id, attempt).expect("live");
            att.files_remaining = 2;
            att.inflight.insert(w);
            att.inflight.insert(r);
            return;
        }
        let now = self.cluster.engine.now().as_secs();
        // Speculation race resolved: this attempt wins, twins are cancelled.
        self.cancel_other_attempts(wf, task_id, attempt);
        {
            let task = self.ams[wf].tasks.get_mut(&task_id).expect("known");
            task.t_exec_end = now;
            task.t_start = task.active[&attempt].t_start;
            task.speculating = false;
        }

        // Simulated tool crash?
        let fail_prob = self.ams[wf].config.task_failure_prob;
        if fail_prob > 0.0 && self.ams[wf].rng.gen_bool(fail_prob.clamp(0.0, 1.0)) {
            return self.handle_attempt_failure(
                wf,
                task_id,
                attempt,
                FailureKind::Task,
                "simulated tool failure",
            );
        }
        self.begin_transfers(wf, task_id, attempt, AttemptPhase::StageOut);
    }

    /// The only way an attempt ends, whether it committed, failed, lost a
    /// speculation race or its workflow ended: the attempt is removed, its
    /// in-flight activities are cancelled, and its container is unmapped
    /// and its lease released (a no-op for a container that died with its
    /// node). Returns the ended attempt, or `None` if it had already ended.
    fn end_attempt(&mut self, wf: usize, task_id: TaskId, attempt: u32) -> Option<Attempt> {
        let att = self.ams[wf]
            .tasks
            .get_mut(&task_id)?
            .active
            .remove(&attempt)?;
        for &act in &att.inflight {
            self.cluster.engine.cancel(act);
        }
        self.containers.remove(&att.container.id);
        self.cluster.rm.release(att.container.id);
        Some(att)
    }

    /// Cancels every active attempt of the task except `winner` — the
    /// losers of a speculation race. Their container time is wasted but
    /// the cancellation is not a failure: no strikes, no budgets.
    fn cancel_other_attempts(&mut self, wf: usize, task_id: TaskId, winner: u32) {
        let losers: Vec<u32> = self.ams[wf].tasks[&task_id]
            .active
            .keys()
            .filter(|a| **a != winner)
            .copied()
            .collect();
        let now = self.cluster.engine.now().as_secs();
        for aid in losers {
            let att = self.end_attempt(wf, task_id, aid).expect("listed");
            let wasted = (now - att.t_start).max(0.0);
            let node_name = self.cluster.node_name(att.container.node).to_string();
            // Either twin can lose the race: the duplicate overtaking the
            // straggler is the expected case, the other direction happens
            // when the original recovers.
            let outcome = if att.speculative {
                "speculative-loser"
            } else {
                "primary-loser"
            };
            let am = &mut self.ams[wf];
            am.wasted_secs += wasted;
            let name = am.tasks[&task_id].spec.name.clone();
            am.prov
                .record_attempt(task_id.0, &name, &node_name, outcome, wasted);
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    self.node_tracks[att.container.node.index()],
                    &format!("attempt.cancelled:{name}"),
                    "driver",
                    now,
                    &[
                        ("task", task_id.0.to_string()),
                        ("attempt", aid.to_string()),
                        ("outcome", outcome.to_string()),
                    ],
                );
                self.tracer.inc("driver.speculation_losers", 1);
                self.tracer.observe("driver.wasted_secs", wasted);
            }
        }
    }

    fn finish_task(&mut self, wf: usize, task_id: TaskId, attempt: u32) {
        // Defensive: a twin should already have been cancelled at exec-win.
        self.cancel_other_attempts(wf, task_id, attempt);
        let att = self
            .end_attempt(wf, task_id, attempt)
            .expect("winner is live");
        let now = self.cluster.engine.now().as_secs();
        let node_name = self.cluster.node_name(att.container.node).to_string();
        let task = &self.ams[wf].tasks[&task_id];
        let spec = &task.spec;
        let event = TaskEvent {
            id: task_id.0,
            name: spec.name.clone(),
            command: spec.command.clone(),
            inputs: spec
                .inputs
                .iter()
                .map(|p| (p.clone(), self.file_size(p)))
                .collect(),
            outputs: spec
                .outputs
                .iter()
                .map(|o| (o.path.clone(), o.size))
                .collect(),
            cpu_seconds: spec.cost.cpu_seconds,
            threads: spec.cost.threads,
            memory_mb: spec.cost.memory_mb,
            node: node_name.clone(),
            t_start: task.t_start,
            t_end: now,
            attempts: task.attempts,
            stdout: format!("task {} ok", spec.name),
            stderr: String::new(),
        };
        // Phase breakdown of the winning attempt: localization covers
        // container startup plus stage-in (up to the compute start),
        // commit covers stage-out (from compute end to now).
        let localize_secs = (att.t_exec_start - att.t_start).max(0.0);
        let commit_secs = (now - task.t_exec_end).max(0.0);
        if self.tracer.is_enabled() {
            let track = self.node_tracks[att.container.node.index()];
            let wait = (task.t_start - task.t_ready).max(0.0);
            self.tracer.span(
                track,
                &spec.name,
                "container",
                att.t_start,
                now,
                &[
                    ("task", task_id.0.to_string()),
                    ("attempt", attempt.to_string()),
                    ("wait_secs", format!("{wait:.6}")),
                    ("localize_secs", format!("{localize_secs:.6}")),
                    ("commit_secs", format!("{commit_secs:.6}")),
                ],
            );
            self.tracer.span(
                track,
                "phase:localize",
                "phase",
                att.t_start,
                att.t_exec_start,
                &[],
            );
            self.tracer.span(
                track,
                "phase:execute",
                "phase",
                att.t_exec_start,
                task.t_exec_end,
                &[],
            );
            self.tracer
                .span(track, "phase:commit", "phase", task.t_exec_end, now, &[]);
            self.tracer.inc("driver.tasks_finished", 1);
            self.tracer.observe("driver.wait_secs", wait);
            self.tracer.observe("driver.localize_secs", localize_secs);
            self.tracer.observe("driver.commit_secs", commit_secs);
        }
        let report = TaskReport {
            id: task_id,
            name: spec.name.clone(),
            node: node_name,
            t_ready: task.t_ready,
            t_start: task.t_start,
            t_end: now,
            attempts: task.attempts,
            localize_secs,
            commit_secs,
        };
        // Memoize the committed invocation in its task-event document.
        let memoizes = self.ams[wf].memoizes();
        let key = memoizes.then(|| self.memo_key_for(wf, task_id)).flatten();
        self.ams[wf].prov.record_task(event, key.as_deref());
        self.charge_master_overhead(false);
        self.complete_task(wf, report);
    }

    /// One attempt of a task died. The failure kind decides which retry
    /// budget it burns: infrastructure losses (node crash, preemption,
    /// storage loss) are not the task's fault and have their own, larger
    /// allowance. Surviving speculative twins keep the task going without
    /// a retry; otherwise the task re-enters the queue after an
    /// exponential backoff.
    fn handle_attempt_failure(
        &mut self,
        wf: usize,
        task_id: TaskId,
        attempt: u32,
        kind: FailureKind,
        why: &str,
    ) {
        let Some(att) = self.end_attempt(wf, task_id, attempt) else {
            return; // already cancelled or finished
        };
        let now = self.cluster.engine.now().as_secs();
        let node = att.container.node;
        let wasted = (now - att.t_start).max(0.0);
        let node_name = self.cluster.node_name(node).to_string();
        let am = &mut self.ams[wf];
        am.wasted_secs += wasted;
        let outcome = match kind {
            FailureKind::Infra => {
                am.infra_failures += 1;
                "infra-failure"
            }
            FailureKind::Task => {
                am.task_failures += 1;
                "task-failure"
            }
        };
        am.strike_node(node, now);
        let task = am.tasks.get_mut(&task_id).expect("looked up above");
        match kind {
            FailureKind::Infra => task.infra_failures += 1,
            FailureKind::Task => task.task_failures += 1,
        }
        task.avoid_node = Some(node);
        let name = task.spec.name.clone();
        am.prov
            .record_attempt(task_id.0, &name, &node_name, outcome, wasted);
        if self.tracer.is_enabled() {
            self.tracer.instant(
                self.node_tracks[node.index()],
                &format!("attempt.failed:{name}"),
                "driver",
                now,
                &[
                    ("task", task_id.0.to_string()),
                    ("attempt", attempt.to_string()),
                    ("kind", outcome.to_string()),
                    ("why", why.to_string()),
                ],
            );
            self.tracer.inc(
                match kind {
                    FailureKind::Infra => "driver.infra_failures",
                    FailureKind::Task => "driver.task_failures",
                },
                1,
            );
            self.tracer.observe("driver.wasted_secs", wasted);
        }

        let am = &mut self.ams[wf];
        let task = am.tasks.get_mut(&task_id).expect("known task");
        if !task.active.is_empty() {
            // A speculative twin is still running and carries the task.
            task.speculating = false;
            return;
        }
        let (exhausted, budget_name) = match kind {
            FailureKind::Task => (task.task_failures > am.config.task_retries, "task"),
            FailureKind::Infra => (task.infra_failures > am.config.infra_retries, "infra"),
        };
        if exhausted {
            let why = format!(
                "task {task_id:?} failed too many times ({budget_name} budget; last: {why})"
            );
            return self.end_workflow(wf, Err(why));
        }
        // Exponential backoff before the fresh container ask; YARN will
        // place the retry "on different compute nodes" thanks to the
        // avoid list and the node blacklist.
        let failures = (task.task_failures + task.infra_failures).max(1);
        let (base, max) = (
            am.config.retry_backoff_secs,
            am.config.retry_backoff_max_secs,
        );
        let delay = (base * 2f64.powi(failures as i32 - 1)).min(max.max(base));
        if delay > 0.0 {
            task.state = TaskState::Backoff;
            let retry = Tag::RetryTask {
                wf: wf as u32,
                task: task_id,
            };
            self.cluster.engine.set_timer_after(delay, retry);
        } else {
            self.request_container(wf, task_id);
        }
    }

    /// A task's retry backoff elapsed: put it back in the ready queue with
    /// a fresh container request.
    fn on_retry_due(&mut self, wf: usize, task_id: TaskId) {
        let am = &self.ams[wf];
        let due = am.active()
            && am
                .tasks
                .get(&task_id)
                .is_some_and(|t| t.state == TaskState::Backoff);
        if due {
            self.request_container(wf, task_id);
            self.arm_heartbeat();
        }
    }

    /// The one way a workflow ends, successfully or not: every attempt
    /// ends (in task-id order), the AM container is released, the app's
    /// outstanding requests are withdrawn, the end instant is stamped and
    /// the admission slot is freed. A success also compacts the store and
    /// renders the trace.
    fn end_workflow(&mut self, wf: usize, outcome: Result<(), String>) {
        let attempts: Vec<(TaskId, u32)> = self.ams[wf]
            .tasks
            .iter()
            .flat_map(|(id, t)| t.active.keys().map(move |a| (*id, *a)))
            .collect();
        for (task_id, attempt) in attempts {
            self.end_attempt(wf, task_id, attempt);
        }
        let now = self.cluster.engine.now().as_secs();
        let am = &mut self.ams[wf];
        if let Some(c) = am.am_container.take() {
            self.cluster.rm.release(c.id);
        }
        self.cluster.rm.withdraw_requests(am.app);
        am.t_finish = now;
        if outcome.is_ok() {
            // Deterministic compaction point: fold the run's WAL into a
            // snapshot segment now that the workflow is complete (no-op
            // for in-memory stores). Background compaction would be
            // unsound in virtual time; end-of-run is the natural quiesce
            // point.
            let _ = am.prov.db().compact();
            if self.tracer.is_enabled() {
                let stats = am.prov.db().stats();
                self.tracer
                    .set_gauge("provdb.wal_records", stats.wal_records as f64);
                self.tracer
                    .set_gauge("provdb.wal_bytes", stats.wal_bytes as f64);
                self.tracer
                    .set_gauge("provdb.wal_rotations", stats.wal_rotations as f64);
                self.tracer
                    .set_gauge("provdb.compactions", stats.compactions as f64);
            }
            if am.config.write_trace {
                let total = (now - am.t_submit).max(0.0);
                let (name, language) = (am.source.name(), am.source.language());
                am.trace = Some(am.prov.finish_workflow(name, language, total));
            }
        }
        am.end = Some(outcome);
        // Free the admission slot: the oldest queued submission (if any)
        // takes it on the next heartbeat.
        self.cluster.rm.finish_app(am.app);
    }

    /// The end-of-run invariant, for use once every workflow has ended: no
    /// container is leased or mapped to an attempt, no request is pending,
    /// no queue holds usage, no activity other than background load and
    /// re-replication is live, and every successful workflow has each of
    /// its tasks done and reported exactly once. `Err` names the first
    /// leak found.
    pub fn check_conservation(&self) -> Result<(), String> {
        let rm = &self.cluster.rm;
        if let Some(am) = self.ams.iter().find(|am| am.active()) {
            return Err(format!("workflow '{}' is still running", am.source.name()));
        }
        if rm.running_containers() > 0 || !self.containers.is_empty() {
            return Err(format!(
                "{} container leases held, {} mapped to attempts",
                rm.running_containers(),
                self.containers.len()
            ));
        }
        if rm.pending_requests() > 0 {
            return Err(format!("{} requests pending", rm.pending_requests()));
        }
        for queue in rm.queue_names() {
            if let Some(used) = rm.queue_usage(&queue).filter(|u| *u != Resource::ZERO) {
                return Err(format!("queue '{queue}' still uses {used:?}"));
            }
        }
        let engine = &self.cluster.engine;
        if let Some(tag) = engine
            .live_tags()
            .find(|t| !matches!(t, Tag::Stress | Tag::Replication))
        {
            return Err(format!("activity {tag:?} still live"));
        }
        for (wf, am) in self.ams.iter().enumerate() {
            let (done, total) = self.progress(wf);
            let reported: HashSet<TaskId> = am.reports.iter().map(|r| r.id).collect();
            let accounted = done == total && reported.len() == total && am.reports.len() == total;
            if am.end == Some(Ok(())) && !accounted {
                return Err(format!(
                    "workflow '{}' succeeded with {done} of {total} tasks done and {} task reports",
                    am.source.name(),
                    am.reports.len()
                ));
            }
        }
        Ok(())
    }

    fn charge_master_overhead(&mut self, hadoop_side: bool) {
        self.charge_master_overhead_from(hadoop_side, None)
    }

    fn charge_master_overhead_from(&mut self, hadoop_side: bool, peer: Option<NodeId>) {
        if let Some(mo) = self.master_overhead {
            let (node, cpu) = if hadoop_side {
                (mo.hadoop_master, mo.per_event_cpu)
            } else {
                (mo.am_master, mo.per_task_cpu)
            };
            if !self.cluster.rm.is_alive(node) {
                return;
            }
            if cpu > 0.0 {
                self.cluster.engine.start(
                    Activity::Compute { node, threads: 1.0 },
                    cpu,
                    Tag::Stress,
                );
            }
            if mo.rpc_bytes > 0 {
                if let Some(peer) = peer {
                    if peer != node {
                        self.cluster.engine.start(
                            Activity::Flow {
                                src: Endpoint::Node(peer),
                                dst: Endpoint::Node(node),
                                src_disk: false,
                                dst_disk: false,
                            },
                            mo.rpc_bytes as f64,
                            Tag::Stress,
                        );
                    }
                }
            }
            if mo.log_bytes > 0 {
                self.cluster.engine.start(
                    Activity::DiskWrite { node },
                    mo.log_bytes as f64,
                    Tag::Stress,
                );
            }
        }
    }
}
