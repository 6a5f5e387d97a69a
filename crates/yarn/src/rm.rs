//! The ResourceManager: node capacity tracking and container allocation
//! through hierarchical fair/capacity queues with DRF ordering.
//!
//! With the default configuration (one all-absorbing `default` queue)
//! the allocator degenerates to exactly the historical FIFO walk; real
//! multi-tenancy starts when [`ResourceManager::configure_queues`]
//! installs a tree of weighted queues. See [`crate::queues`] for the
//! queue model.

use std::collections::BTreeMap;

use hiway_obs::{QueueAudit, QueueEventKind, Tracer};
use hiway_sim::{ClusterSpec, NodeId};

use crate::queues::{Admission, AdmissionPolicy, QueueSet, QueuesConfig};
use crate::types::{AppId, Container, ContainerId, ContainerRequest, RequestId, Resource};

/// RM configuration.
#[derive(Clone, Copy, Debug)]
pub struct RmConfig {
    /// Capacity advertised by each NodeManager, as a fraction of the
    /// node's physical cores/memory (YARN reserves headroom for the OS
    /// and the NM itself; 1.0 hands everything to containers, which is
    /// how the paper's experiments were configured).
    pub capacity_fraction: f64,
}

impl Default for RmConfig {
    fn default() -> RmConfig {
        RmConfig {
            capacity_fraction: 1.0,
        }
    }
}

struct NodeState {
    total: Resource,
    available: Resource,
    alive: bool,
}

struct PendingRequest {
    app: AppId,
    request: ContainerRequest,
}

/// The simulated ResourceManager.
pub struct ResourceManager {
    nodes: Vec<NodeState>,
    /// FIFO queue of pending requests across all applications. Ordering
    /// within a scheduler queue is request-id order; ordering *between*
    /// scheduler queues is DRF.
    queue: BTreeMap<u64, PendingRequest>,
    containers: BTreeMap<u64, Container>,
    next_request: u64,
    next_container: u64,
    next_app: u32,
    apps: Vec<String>,
    /// Leaf queue each application was submitted to.
    app_queue: Vec<usize>,
    /// Whether each application has been admitted (may request containers).
    app_admitted: Vec<bool>,
    /// Whether each application has terminally finished.
    app_finished: Vec<bool>,
    /// The queue tree. Defaults to a single elastic `default` leaf.
    queues: QueueSet,
    /// True once [`Self::configure_queues`] ran. Gates all per-queue
    /// observability so default deployments keep their historical traces
    /// byte-identical.
    queues_configured: bool,
    /// Cross-queue preemption victims selected but not yet collected by
    /// the driver via [`Self::take_preemptions`].
    pending_preemptions: Vec<ContainerId>,
    /// Requests rejected at submission because no node (or queue ceiling)
    /// could ever satisfy them; drained via [`Self::take_infeasible`].
    infeasible: Vec<(AppId, String)>,
    /// Round-robin pointer so relaxed requests spread across the cluster
    /// instead of piling onto node 0.
    spread_cursor: usize,
    /// Latest virtual time seen by [`Self::allocate_at`]. Submission-time
    /// audit entries use it; the RM deliberately has no clock of its own.
    last_now: f64,
    /// Whether the RM state changed since the last allocation round in a
    /// way that can make a pending ask grantable or re-order the tries.
    /// Every mutation outside `allocate_at` that can do so sets it; a
    /// round with the flag clear skips the scan, because it would grant
    /// nothing:
    ///
    /// - a round tries each schedulable ask exactly once, and every ask
    ///   still pending afterwards failed either its queue ceilings
    ///   (`fits_under_max`) or its node search (`find_node`);
    /// - the round's own grants only shrink node availability and grow
    ///   queue usage, and both tests are monotone in those two: an ask
    ///   that failed cannot pass after more was granted;
    /// - `pick_leaf` only orders the tries, and `spread_cursor` only
    ///   picks among nodes that already fit, so neither decides *whether*
    ///   an ask is granted.
    ///
    /// So after any round, empty or not, the next one grants nothing
    /// unless something outside the round changed the state.
    changed: bool,
    /// Forces every round to scan, so tests can check the gate against
    /// an RM that never skips.
    #[cfg(test)]
    scan_every_round: bool,
    /// Observability sink. Counters land in the metrics registry;
    /// timestamped container spans are emitted by the driver.
    tracer: Tracer,
}

impl ResourceManager {
    /// Builds an RM from the cluster hardware description: one NodeManager
    /// per node.
    pub fn new(spec: &ClusterSpec, config: RmConfig) -> ResourceManager {
        let nodes = spec
            .nodes
            .iter()
            .map(|n| {
                let total = Resource::new(
                    ((n.cores as f64) * config.capacity_fraction)
                        .floor()
                        .max(1.0) as u32,
                    ((n.memory_mb as f64) * config.capacity_fraction).floor() as u64,
                );
                NodeState {
                    total,
                    available: total,
                    alive: true,
                }
            })
            .collect();
        ResourceManager {
            nodes,
            queue: BTreeMap::new(),
            containers: BTreeMap::new(),
            next_request: 0,
            next_container: 0,
            next_app: 0,
            apps: Vec::new(),
            app_queue: Vec::new(),
            app_admitted: Vec::new(),
            app_finished: Vec::new(),
            queues: QueueSet::build(&QueuesConfig::default()).expect("default queue tree"),
            queues_configured: false,
            pending_preemptions: Vec::new(),
            infeasible: Vec::new(),
            spread_cursor: 0,
            last_now: 0.0,
            changed: true,
            #[cfg(test)]
            scan_every_round: false,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches an observability sink. Counters land in the shared
    /// metrics registry; a disabled tracer keeps every record a no-op.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Installs a queue tree. Must run before any application is
    /// submitted — re-binning live applications is not modelled.
    pub fn configure_queues(&mut self, config: QueuesConfig) -> Result<(), String> {
        if self.next_app > 0 {
            return Err("configure_queues after applications were submitted".to_string());
        }
        self.queues = QueueSet::build(&config)?;
        self.queues_configured = true;
        self.changed = true;
        Ok(())
    }

    /// Registers an application (a Hi-WAY AM about to start) on the
    /// default queue. The AM's own container is requested like any other
    /// via [`Self::request`]. Admission limits still apply: an app that
    /// was queued or rejected gets an id but no containers until (unless)
    /// admitted.
    pub fn submit_app(&mut self, name: impl Into<String>) -> AppId {
        let leaf = self.queues.default_leaf();
        self.admit(leaf, name.into()).0
    }

    /// Registers an application on a named leaf queue. Errs on unknown
    /// queue names; otherwise reports the admission verdict alongside the
    /// id.
    pub fn submit_app_to(
        &mut self,
        queue: &str,
        name: impl Into<String>,
    ) -> Result<(AppId, Admission), String> {
        let leaf = self
            .queues
            .leaf_by_name(queue)
            .ok_or_else(|| format!("unknown queue '{queue}'"))?;
        Ok(self.admit(leaf, name.into()))
    }

    fn admit(&mut self, leaf: usize, name: String) -> (AppId, Admission) {
        let id = AppId(self.next_app);
        self.next_app += 1;
        self.changed = true;
        self.apps.push(name);
        self.app_queue.push(leaf);
        let node = &mut self.queues.nodes[leaf];
        let at_cap = node.max_apps.is_some_and(|cap| node.live_apps >= cap);
        let verdict = if !at_cap {
            node.live_apps += 1;
            Admission::Admitted
        } else {
            match self.queues.admission {
                AdmissionPolicy::Queue => {
                    node.waiting.push(id.0);
                    Admission::Queued
                }
                AdmissionPolicy::Reject => Admission::Rejected,
            }
        };
        self.app_admitted.push(verdict == Admission::Admitted);
        self.app_finished.push(verdict == Admission::Rejected);
        let kind = match verdict {
            Admission::Admitted => QueueEventKind::Admit,
            Admission::Queued => QueueEventKind::Queued,
            Admission::Rejected => QueueEventKind::Reject,
        };
        self.emit_queue_audit(leaf, kind, Some(id), None, String::new());
        (id, verdict)
    }

    /// Marks an application terminally finished, freeing its admission
    /// slot; the oldest waiting application in the queue (if any) is
    /// admitted in its place. Safe to call more than once.
    pub fn finish_app(&mut self, app: AppId) {
        let idx = app.0 as usize;
        if idx >= self.app_finished.len() || self.app_finished[idx] {
            return;
        }
        self.app_finished[idx] = true;
        self.changed = true;
        if !self.app_admitted[idx] {
            // Still parked: just remove it from the wait list.
            let leaf = self.app_queue[idx];
            self.queues.nodes[leaf].waiting.retain(|&a| a != app.0);
            return;
        }
        let leaf = self.app_queue[idx];
        let node = &mut self.queues.nodes[leaf];
        node.live_apps = node.live_apps.saturating_sub(1);
        let can_admit = node.max_apps.is_none_or(|cap| node.live_apps < cap);
        if can_admit && !node.waiting.is_empty() {
            let next = node.waiting.remove(0);
            node.live_apps += 1;
            self.app_admitted[next as usize] = true;
            self.emit_queue_audit(
                leaf,
                QueueEventKind::Admit,
                Some(AppId(next)),
                None,
                "admitted from wait list".to_string(),
            );
        }
    }

    pub fn app_name(&self, app: AppId) -> &str {
        &self.apps[app.0 as usize]
    }

    /// Whether an application is currently admitted (rejected or parked
    /// applications cannot be granted containers).
    pub fn is_admitted(&self, app: AppId) -> bool {
        self.app_admitted[app.0 as usize]
    }

    /// Enqueues a container request; allocation happens on the next
    /// [`Self::allocate`] (the AM–RM heartbeat). Requests no node (and no
    /// queue ceiling) could *ever* satisfy are failed fast instead of
    /// queued: they land in [`Self::take_infeasible`] and the driver
    /// fails the workflow rather than letting it hang.
    pub fn request(&mut self, app: AppId, request: ContainerRequest) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        if let Some(why) = self.infeasible_reason(app, &request) {
            self.infeasible.push((app, why.clone()));
            let leaf = self.app_queue[app.0 as usize];
            self.emit_queue_audit(leaf, QueueEventKind::Infeasible, Some(app), None, why);
            self.tracer.inc("rm.requests_infeasible", 1);
            return id;
        }
        self.queue.insert(id.0, PendingRequest { app, request });
        self.changed = true;
        self.tracer.inc("rm.requests", 1);
        self.tracer
            .set_gauge("rm.pending_requests", self.queue.len() as f64);
        id
    }

    /// Why `request` can never be satisfied, if it cannot. Judged against
    /// node *totals* (dead nodes may revive) so transient failures never
    /// fail-fast a workflow.
    fn infeasible_reason(&self, app: AppId, request: &ContainerRequest) -> Option<String> {
        let res = request.resource;
        match request.preference {
            Some(pref) if !request.relax_locality => {
                if pref.index() >= self.nodes.len() {
                    return Some(format!("pinned to nonexistent node {}", pref.0));
                }
                if !self.nodes[pref.index()].total.fits(&res) {
                    return Some(format!(
                        "request {}vc/{}MB exceeds node {}'s capacity",
                        res.vcores, res.memory_mb, pref.0
                    ));
                }
            }
            _ => {
                if !self.nodes.iter().any(|n| n.total.fits(&res)) {
                    return Some(format!(
                        "request {}vc/{}MB fits no node in the cluster",
                        res.vcores, res.memory_mb
                    ));
                }
            }
        }
        // A request larger than the queue's elastic ceiling can never be
        // placed either, no matter how idle the cluster gets.
        let leaf = self.app_queue[app.0 as usize];
        let grand_total = self.grand_total();
        let node = &self.queues.nodes[leaf];
        if (res.vcores as f64) > node.max_frac * grand_total.vcores as f64 + 1e-9
            || (res.memory_mb as f64) > node.max_frac * grand_total.memory_mb as f64 + 1e-9
        {
            return Some(format!(
                "request {}vc/{}MB exceeds queue '{}' max-capacity",
                res.vcores, res.memory_mb, node.name
            ));
        }
        None
    }

    /// Withdraws every pending request of `app` (the application is being
    /// torn down); returns how many were withdrawn.
    pub fn withdraw_requests(&mut self, app: AppId) -> usize {
        let before = self.queue.len();
        self.queue.retain(|_, p| p.app != app);
        let withdrawn = before - self.queue.len();
        if withdrawn > 0 {
            self.changed = true;
            self.tracer.inc("rm.requests_cancelled", withdrawn as u64);
            self.tracer
                .set_gauge("rm.pending_requests", self.queue.len() as f64);
        }
        withdrawn
    }

    pub fn pending_requests(&self) -> usize {
        self.queue.len()
    }

    /// One allocation round at an unspecified time — equivalent to
    /// [`Self::allocate_at`] at the last seen virtual time. Preemption
    /// grace periods only advance through `allocate_at`, so tests that
    /// don't care about time keep using this.
    pub fn allocate(&mut self) -> Vec<Container> {
        self.allocate_at(self.last_now)
    }

    /// One allocation round at virtual time `now`: serves queues in DRF
    /// order, each queue FIFO within itself, capped by every queue's
    /// elastic ceiling; then updates starvation clocks and selects
    /// cross-queue preemption victims. Requests that cannot be satisfied
    /// stay queued. Returns the new containers.
    ///
    /// The scan over pending requests and nodes runs only if the RM state
    /// changed since the last round (see the `changed` field for why an
    /// unchanged state grants nothing). Every round still counts, updates
    /// the gauges and queue-usage rows, and runs the preemption logic.
    pub fn allocate_at(&mut self, now: f64) -> Vec<Container> {
        self.last_now = now;
        let total = self.alive_total();
        #[cfg(test)]
        let scan = self.changed || self.scan_every_round;
        #[cfg(not(test))]
        let scan = self.changed;
        let granted = if scan {
            self.changed = false;
            self.grant_pending(total)
        } else {
            Vec::new()
        };
        self.update_preemption(now, total);
        if self.tracer.is_enabled() {
            self.tracer.inc("rm.allocation_rounds", 1);
            self.tracer
                .inc("rm.containers_allocated", granted.len() as u64);
            self.tracer
                .set_gauge("rm.pending_requests", self.queue.len() as f64);
            self.tracer
                .set_gauge("rm.running_containers", self.containers.len() as f64);
            self.emit_queue_usage(now);
        }
        granted
    }

    /// The scan of one allocation round: tries every schedulable pending
    /// request once, leaves in DRF order, and grants those that fit under
    /// their queue ceilings and on a node.
    fn grant_pending(&mut self, total: Resource) -> Vec<Container> {
        let mut granted = Vec::new();
        // Per-leaf id-ordered snapshots of schedulable pending requests.
        let nq = self.queues.nodes.len();
        let mut per_leaf: Vec<Vec<u64>> = vec![Vec::new(); nq];
        for (&id, p) in &self.queue {
            if self.app_admitted[p.app.0 as usize] {
                per_leaf[self.app_queue[p.app.0 as usize]].push(id);
            }
        }
        let mut cursor = vec![0usize; nq];
        let mut eligible: Vec<bool> = per_leaf.iter().map(|v| !v.is_empty()).collect();
        while let Some(leaf) = self.queues.pick_leaf(&eligible, total) {
            let id = per_leaf[leaf][cursor[leaf]];
            cursor[leaf] += 1;
            if cursor[leaf] >= per_leaf[leaf].len() {
                eligible[leaf] = false;
            }
            let request = self.queue[&id].request;
            if !self.queues.fits_under_max(leaf, request.resource, total) {
                continue; // over the queue ceiling: stays pending
            }
            if let Some(node) = self.find_node(&request) {
                let pending = self.queue.remove(&id).expect("still queued");
                self.nodes[node.index()]
                    .available
                    .subtract(&pending.request.resource);
                let cid = ContainerId(self.next_container);
                self.next_container += 1;
                let container = Container {
                    id: cid,
                    app: pending.app,
                    node,
                    resource: pending.request.resource,
                    request: RequestId(id),
                    unpreemptable: pending.request.unpreemptable,
                };
                self.containers.insert(cid.0, container);
                self.queues.charge(leaf, container.resource);
                self.emit_queue_audit(
                    leaf,
                    QueueEventKind::Allocate,
                    Some(container.app),
                    Some(cid),
                    String::new(),
                );
                granted.push(container);
            }
        }
        granted
    }

    /// Per-leaf demand as cluster fractions: current usage plus pending
    /// admitted asks.
    fn leaf_demands(&self, total: Resource) -> Vec<f64> {
        let mut asked: Vec<Resource> = self.queues.nodes.iter().map(|n| n.used).collect();
        for p in self.queue.values() {
            if self.app_admitted[p.app.0 as usize] {
                asked[self.app_queue[p.app.0 as usize]].add(&p.request.resource);
            }
        }
        asked
            .iter()
            .map(|&r| QueueSet::dominant_share(r, total))
            .collect()
    }

    /// Pending admitted request count per leaf.
    fn leaf_pending(&self) -> Vec<u64> {
        let mut pending = vec![0u64; self.queues.nodes.len()];
        for p in self.queue.values() {
            if self.app_admitted[p.app.0 as usize] {
                pending[self.app_queue[p.app.0 as usize]] += 1;
            }
        }
        pending
    }

    /// Starvation bookkeeping + victim selection. A leaf is *starved*
    /// when it has pending demand and could absorb its next request while
    /// staying within its fair share — i.e. it is below fair share not by
    /// choice but because siblings hold the capacity. Once starved longer
    /// than the grace period, the newest containers of over-guarantee
    /// sibling queues are selected as victims (never below a queue's
    /// guarantee, never unpreemptable containers) and handed to the
    /// driver via [`Self::take_preemptions`].
    fn update_preemption(&mut self, now: f64, total: Resource) {
        let Some(grace) = self.queues.grace_secs else {
            return;
        };
        let demands = self.leaf_demands(total);
        let fair = self.queues.fair_shares(&demands);
        let leaves = self.queues.leaves();
        // Head request (lowest id) per leaf, for the "could take one more"
        // test.
        let mut head: Vec<Option<Resource>> = vec![None; self.queues.nodes.len()];
        for p in self.queue.values() {
            if !self.app_admitted[p.app.0 as usize] {
                continue;
            }
            let leaf = self.app_queue[p.app.0 as usize];
            if head[leaf].is_none() {
                head[leaf] = Some(p.request.resource);
            }
        }
        for &leaf in &leaves {
            let starved = match head[leaf] {
                Some(next) => {
                    let mut with_next = self.queues.nodes[leaf].used;
                    with_next.add(&next);
                    QueueSet::dominant_share(with_next, total) <= fair[leaf] + 1e-9
                }
                None => false,
            };
            if !starved {
                self.queues.nodes[leaf].starved_since = None;
                continue;
            }
            match self.queues.nodes[leaf].starved_since {
                None => self.queues.nodes[leaf].starved_since = Some(now),
                Some(t0) if now - t0 >= grace - 1e-9 => {
                    self.select_victims(leaf, &fair, total);
                    // Restart the grace clock: give the driver time to
                    // kill the victims before demanding more blood.
                    self.queues.nodes[leaf].starved_since = Some(now);
                }
                Some(_) => {}
            }
        }
    }

    /// Selects preemption victims on behalf of `starved`: walks live
    /// containers newest-first, taking those whose owning queue stays at
    /// or above its guarantee without them, until the starved queue's
    /// fair-share deficit is covered.
    fn select_victims(&mut self, starved: usize, fair: &[f64], total: Resource) {
        let mut need =
            fair[starved] - QueueSet::dominant_share(self.queues.nodes[starved].used, total);
        if need <= 1e-9 {
            return;
        }
        // Usage after victims already selected (this round and rounds the
        // driver has not yet acted on).
        let mut adjusted: Vec<Resource> = self.queues.nodes.iter().map(|n| n.used).collect();
        for cid in &self.pending_preemptions {
            if let Some(c) = self.containers.get(&cid.0) {
                let leaf = self.app_queue[c.app.0 as usize];
                adjusted[leaf].vcores = adjusted[leaf].vcores.saturating_sub(c.resource.vcores);
                adjusted[leaf].memory_mb = adjusted[leaf]
                    .memory_mb
                    .saturating_sub(c.resource.memory_mb);
            }
        }
        let ids: Vec<u64> = self.containers.keys().rev().copied().collect();
        for cid in ids {
            if need <= 1e-9 {
                break;
            }
            let c = self.containers[&cid];
            if c.unpreemptable || self.pending_preemptions.contains(&c.id) {
                continue;
            }
            let owner = self.app_queue[c.app.0 as usize];
            if owner == starved {
                continue;
            }
            let mut after = adjusted[owner];
            after.vcores = after.vcores.saturating_sub(c.resource.vcores);
            after.memory_mb = after.memory_mb.saturating_sub(c.resource.memory_mb);
            let over_guarantee = QueueSet::dominant_share(adjusted[owner], total)
                > self.queues.nodes[owner].cap_frac + 1e-9;
            let stays_at_guarantee =
                QueueSet::dominant_share(after, total) >= self.queues.nodes[owner].cap_frac - 1e-9;
            if !over_guarantee || !stays_at_guarantee {
                continue;
            }
            adjusted[owner] = after;
            need -= QueueSet::dominant_share(c.resource, total);
            self.pending_preemptions.push(c.id);
            self.tracer.inc("rm.queue_preemptions", 1);
            self.emit_queue_audit(
                owner,
                QueueEventKind::Preempt,
                Some(c.app),
                Some(c.id),
                format!("for starved queue '{}'", self.queues.nodes[starved].name),
            );
        }
    }

    /// Drains the preemption victims selected since the last call. The
    /// driver must kill each via its own failure path so AM infra-retry
    /// budgets apply.
    pub fn take_preemptions(&mut self) -> Vec<ContainerId> {
        std::mem::take(&mut self.pending_preemptions)
    }

    /// Drains requests that were failed fast as unsatisfiable, with the
    /// reason. The driver fails the owning workflow.
    pub fn take_infeasible(&mut self) -> Vec<(AppId, String)> {
        std::mem::take(&mut self.infeasible)
    }

    /// The leaf queue unnamed submissions land on.
    pub fn default_queue(&self) -> &str {
        &self.queues.nodes[self.queues.default_leaf()].name
    }

    /// Leaf queue names in definition order.
    pub fn queue_names(&self) -> Vec<String> {
        self.queues
            .leaves()
            .into_iter()
            .map(|i| self.queues.nodes[i].name.clone())
            .collect()
    }

    /// A leaf queue's current usage.
    pub fn queue_usage(&self, queue: &str) -> Option<Resource> {
        self.queues
            .leaf_by_name(queue)
            .map(|i| self.queues.nodes[i].used)
    }

    /// Pending admitted requests in a leaf queue.
    pub fn queue_pending(&self, queue: &str) -> Option<u64> {
        let leaf = self.queues.leaf_by_name(queue)?;
        Some(self.leaf_pending()[leaf])
    }

    /// Instantaneous fair shares (cluster fractions) of all leaf queues,
    /// in definition order — demand-bounded water-filling over weights.
    pub fn queue_fair_shares(&self) -> Vec<(String, f64)> {
        let total = self.alive_total();
        let fair = self.queues.fair_shares(&self.leaf_demands(total));
        self.queues
            .leaves()
            .into_iter()
            .map(|i| (self.queues.nodes[i].name.clone(), fair[i]))
            .collect()
    }

    /// A leaf queue's dominant share of the live cluster.
    pub fn queue_share(&self, queue: &str) -> Option<f64> {
        let leaf = self.queues.leaf_by_name(queue)?;
        Some(QueueSet::dominant_share(
            self.queues.nodes[leaf].used,
            self.alive_total(),
        ))
    }

    /// A leaf queue's absolute guaranteed / maximum cluster fractions.
    pub fn queue_limits(&self, queue: &str) -> Option<(f64, f64)> {
        let leaf = self.queues.leaf_by_name(queue)?;
        let n = &self.queues.nodes[leaf];
        Some((n.cap_frac, n.max_frac))
    }

    fn emit_queue_audit(
        &self,
        leaf: usize,
        kind: QueueEventKind,
        app: Option<AppId>,
        container: Option<ContainerId>,
        detail: String,
    ) {
        if !self.queues_configured || !self.tracer.is_enabled() {
            return;
        }
        let total = self.alive_total();
        let fair = self.queues.fair_shares(&self.leaf_demands(total));
        let n = &self.queues.nodes[leaf];
        self.tracer.queue_audit(QueueAudit {
            t: self.last_now,
            queue: n.name.clone(),
            kind,
            app: app.map(|a| a.0),
            container: container.map(|c| c.0),
            used_vcores: n.used.vcores as u64,
            used_memory_mb: n.used.memory_mb,
            pending: self.leaf_pending()[leaf],
            share: QueueSet::dominant_share(n.used, total),
            fair_share: fair[leaf],
            detail,
        });
    }

    /// One usage sample per leaf per allocation round, plus per-queue
    /// gauges. Only for explicitly configured queue trees.
    fn emit_queue_usage(&self, now: f64) {
        if !self.queues_configured {
            return;
        }
        let total = self.alive_total();
        let demands = self.leaf_demands(total);
        let fair = self.queues.fair_shares(&demands);
        let pending = self.leaf_pending();
        for leaf in self.queues.leaves() {
            let n = &self.queues.nodes[leaf];
            let share = QueueSet::dominant_share(n.used, total);
            self.tracer.set_gauge(
                &format!("rm.queue.{}.used_vcores", n.name),
                n.used.vcores as f64,
            );
            self.tracer.set_gauge(
                &format!("rm.queue.{}.used_memory_mb", n.name),
                n.used.memory_mb as f64,
            );
            self.tracer.set_gauge(
                &format!("rm.queue.{}.pending", n.name),
                pending[leaf] as f64,
            );
            self.tracer
                .set_gauge(&format!("rm.queue.{}.share", n.name), share);
            self.tracer
                .set_gauge(&format!("rm.queue.{}.fair_share", n.name), fair[leaf]);
            self.tracer.queue_audit(QueueAudit {
                t: now,
                queue: n.name.clone(),
                kind: QueueEventKind::Usage,
                app: None,
                container: None,
                used_vcores: n.used.vcores as u64,
                used_memory_mb: n.used.memory_mb,
                pending: pending[leaf],
                share,
                fair_share: fair[leaf],
                detail: String::new(),
            });
        }
    }

    /// Total capacity of live nodes.
    fn alive_total(&self) -> Resource {
        let mut t = Resource::ZERO;
        for n in self.nodes.iter().filter(|n| n.alive) {
            t.add(&n.total);
        }
        t
    }

    /// Total capacity of all nodes, dead or alive.
    fn grand_total(&self) -> Resource {
        let mut t = Resource::ZERO;
        for n in &self.nodes {
            t.add(&n.total);
        }
        t
    }

    fn find_node(&mut self, request: &ContainerRequest) -> Option<NodeId> {
        let fits = |state: &NodeState| state.alive && state.available.fits(&request.resource);
        if let Some(pref) = request.preference {
            if pref.index() < self.nodes.len() && fits(&self.nodes[pref.index()]) {
                return Some(pref);
            }
            if !request.relax_locality {
                return None; // strict placement waits for the exact node
            }
        }
        // Relaxed: round-robin over the cluster for an even spread.
        let n = self.nodes.len();
        for offset in 0..n {
            let idx = (self.spread_cursor + offset) % n;
            if fits(&self.nodes[idx]) {
                self.spread_cursor = (idx + 1) % n;
                return Some(NodeId(idx as u32));
            }
        }
        None
    }

    /// Returns a container's lease to the pool (task finished or killed).
    pub fn release(&mut self, id: ContainerId) -> Option<Container> {
        let container = self.containers.remove(&id.0)?;
        self.changed = true;
        let state = &mut self.nodes[container.node.index()];
        if state.alive {
            state.available.add(&container.resource);
        }
        self.queues
            .uncharge(self.app_queue[container.app.0 as usize], container.resource);
        self.tracer.inc("rm.containers_released", 1);
        self.tracer
            .set_gauge("rm.running_containers", self.containers.len() as f64);
        Some(container)
    }

    /// Marks a node dead and returns the containers that were running on
    /// it — the owning AMs must be told their tasks are gone.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<Container> {
        self.changed = true;
        let state = &mut self.nodes[node.index()];
        state.alive = false;
        state.available = Resource::ZERO;
        let killed: Vec<Container> = self
            .containers
            .values()
            .filter(|c| c.node == node)
            .copied()
            .collect();
        for c in &killed {
            self.containers.remove(&c.id.0);
            self.queues
                .uncharge(self.app_queue[c.app.0 as usize], c.resource);
        }
        if self.tracer.is_enabled() {
            self.tracer.inc("rm.nodes_failed", 1);
            self.tracer
                .inc("rm.containers_lost_to_node_failure", killed.len() as u64);
            self.tracer
                .set_gauge("rm.running_containers", self.containers.len() as f64);
        }
        killed
    }

    /// Overrides a node's advertised capacity (e.g. to dedicate a node to
    /// master processes or to exactly one AM container). Must be called
    /// before any containers are allocated on the node.
    pub fn set_capacity(&mut self, node: NodeId, capacity: Resource) {
        let state = &mut self.nodes[node.index()];
        assert!(
            state.available == state.total,
            "set_capacity with containers outstanding on node {}",
            node.0
        );
        state.total = capacity;
        state.available = capacity;
        self.changed = true;
    }

    /// Returns a node to service with full (empty) capacity.
    pub fn revive_node(&mut self, node: NodeId) {
        let state = &mut self.nodes[node.index()];
        if !state.alive {
            state.alive = true;
            state.available = state.total;
            self.changed = true;
            self.tracer.inc("rm.nodes_revived", 1);
        }
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.index()].alive
    }

    pub fn available(&self, node: NodeId) -> Resource {
        self.nodes[node.index()].available
    }

    pub fn total(&self, node: NodeId) -> Resource {
        self.nodes[node.index()].total
    }

    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id.0)
    }

    pub fn running_containers(&self) -> usize {
        self.containers.len()
    }

    /// Alive nodes, in id order.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::QueueSpec;
    use hiway_sim::{ClusterSpec, NodeSpec};

    fn rm(nodes: usize) -> ResourceManager {
        let spec = ClusterSpec::homogeneous(nodes, "n", &NodeSpec::m3_large("p"));
        ResourceManager::new(&spec, RmConfig::default())
    }

    fn one_core() -> Resource {
        Resource::new(1, 1000)
    }

    #[test]
    fn allocation_respects_capacity() {
        let mut r = rm(1); // m3.large: 2 vcores, 7500 MB
        let app = r.submit_app("wf");
        for _ in 0..3 {
            r.request(app, ContainerRequest::anywhere(one_core()));
        }
        let got = r.allocate();
        assert_eq!(got.len(), 2, "only two cores available");
        assert_eq!(r.pending_requests(), 1);
        // Releasing one frees capacity for the queued request.
        r.release(got[0].id);
        assert_eq!(r.allocate().len(), 1);
    }

    #[test]
    fn memory_limits_bind_too() {
        let mut r = rm(1);
        let app = r.submit_app("wf");
        // Two 1-core/6000MB asks: only one fits in 7500 MB.
        for _ in 0..2 {
            r.request(app, ContainerRequest::anywhere(Resource::new(1, 6000)));
        }
        assert_eq!(r.allocate().len(), 1);
    }

    #[test]
    fn relaxed_requests_spread_round_robin() {
        let mut r = rm(4);
        let app = r.submit_app("wf");
        for _ in 0..4 {
            r.request(app, ContainerRequest::anywhere(one_core()));
        }
        let got = r.allocate();
        let mut nodes: Vec<u32> = got.iter().map(|c| c.node.0).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn strict_placement_waits_for_its_node() {
        let mut r = rm(2);
        let app = r.submit_app("wf");
        // Fill node 0 completely.
        r.request(
            app,
            ContainerRequest::pinned(Resource::new(2, 7000), NodeId(0)),
        );
        assert_eq!(r.allocate().len(), 1);
        // A strict request for node 0 must wait even though node 1 is free.
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        assert!(r.allocate().is_empty());
        assert_eq!(r.pending_requests(), 1);
        // A relaxed request with the same preference falls back to node 1.
        assert_eq!(r.withdraw_requests(app), 1);
        r.request(
            app,
            ContainerRequest {
                resource: one_core(),
                preference: Some(NodeId(0)),
                relax_locality: true,
                unpreemptable: false,
            },
        );
        let got = r.allocate();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].node, NodeId(1));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut r = rm(1);
        let a1 = r.submit_app("first");
        let a2 = r.submit_app("second");
        r.request(a1, ContainerRequest::anywhere(Resource::new(2, 7000)));
        r.request(a2, ContainerRequest::anywhere(Resource::new(2, 7000)));
        let got = r.allocate();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].app, a1);
    }

    #[test]
    fn node_failure_kills_containers_and_capacity() {
        let mut r = rm(2);
        let app = r.submit_app("wf");
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(1)));
        let got = r.allocate();
        assert_eq!(got.len(), 2);
        let killed = r.fail_node(NodeId(0));
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].node, NodeId(0));
        assert!(!r.is_alive(NodeId(0)));
        assert_eq!(r.alive_nodes(), vec![NodeId(1)]);
        // New relaxed requests land on the survivor.
        r.request(app, ContainerRequest::anywhere(one_core()));
        let got = r.allocate();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].node, NodeId(1));
        // Releasing a killed container is a no-op (already gone).
        assert!(r.release(killed[0].id).is_none());
        // Revive restores capacity.
        r.revive_node(NodeId(0));
        assert_eq!(r.available(NodeId(0)), r.total(NodeId(0)));
    }

    #[test]
    fn capacity_fraction_reserves_headroom() {
        let spec = ClusterSpec::homogeneous(1, "n", &NodeSpec::c3_2xlarge("p"));
        let r = ResourceManager::new(
            &spec,
            RmConfig {
                capacity_fraction: 0.5,
            },
        );
        assert_eq!(r.total(NodeId(0)).vcores, 4);
        assert_eq!(r.total(NodeId(0)).memory_mb, 7500);
    }

    #[test]
    fn app_names_are_recorded() {
        let mut r = rm(1);
        let a = r.submit_app("snv-calling");
        assert_eq!(r.app_name(a), "snv-calling");
        assert!(r.is_admitted(a));
    }

    #[test]
    fn recovered_node_restores_full_capacity() {
        let mut r = rm(2);
        let app = r.submit_app("wf");
        // Two containers on node 0, then the node dies mid-flight.
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        assert_eq!(r.allocate().len(), 2);
        assert_eq!(r.available(NodeId(0)).vcores, 0);
        r.fail_node(NodeId(0));

        r.revive_node(NodeId(0));
        assert!(r.is_alive(NodeId(0)));
        // The containers died with the node: the NodeManager re-registers
        // with its *full* capacity, not the pre-crash remainder.
        assert_eq!(r.available(NodeId(0)), r.total(NodeId(0)));
        assert_eq!(r.running_containers(), 0);
    }

    #[test]
    fn old_container_ids_stay_dead_after_recovery() {
        let mut r = rm(2);
        let app = r.submit_app("wf");
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        let got = r.allocate();
        let old = got[0].id;
        let killed = r.fail_node(NodeId(0));
        assert_eq!(killed[0].id, old);
        r.revive_node(NodeId(0));

        // The pre-crash container id is gone for good: no lookup, no
        // double-release, and fresh allocations never reuse it.
        assert!(r.container(old).is_none());
        assert!(r.release(old).is_none());
        assert_eq!(r.available(NodeId(0)), r.total(NodeId(0)));
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        let fresh = r.allocate();
        assert_eq!(fresh.len(), 1);
        assert_ne!(fresh[0].id, old);
    }

    #[test]
    fn new_allocations_land_on_recovered_node() {
        let mut r = rm(2);
        let app = r.submit_app("wf");
        r.fail_node(NodeId(0));
        // While node 0 is down, relaxed requests avoid it...
        r.request(app, ContainerRequest::anywhere(one_core()));
        assert_eq!(r.allocate()[0].node, NodeId(1));
        // ...and pinned requests for it starve.
        let starved = r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        assert!(r.allocate().is_empty());
        assert_eq!(r.pending_requests(), 1);

        r.revive_node(NodeId(0));
        // The queued pinned request is finally served on the revived node.
        let got = r.allocate();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].node, NodeId(0));
        let _ = starved;
        // And relaxed requests may use it again too.
        r.request(app, ContainerRequest::anywhere(one_core()));
        let nodes: Vec<NodeId> = r.allocate().iter().map(|c| c.node).collect();
        assert!(!nodes.is_empty());
    }

    #[test]
    fn tracer_counts_allocation_lifecycle() {
        use hiway_obs::Tracer;
        let tracer = Tracer::enabled();
        let mut r = rm(2);
        r.set_tracer(&tracer);
        let app = r.submit_app("wf");
        for _ in 0..3 {
            r.request(app, ContainerRequest::anywhere(one_core()));
        }
        let got = r.allocate();
        assert_eq!(tracer.counter_value("rm.requests"), 3);
        assert_eq!(
            tracer.counter_value("rm.containers_allocated"),
            got.len() as u64
        );
        r.release(got[0].id);
        assert_eq!(tracer.counter_value("rm.containers_released"), 1);
        r.fail_node(NodeId(1));
        assert_eq!(tracer.counter_value("rm.nodes_failed"), 1);
        r.revive_node(NodeId(1));
        assert_eq!(tracer.counter_value("rm.nodes_revived"), 1);
        let snap = tracer.snapshot().expect("enabled tracer snapshots");
        assert_eq!(snap.metrics.gauge("rm.pending_requests"), Some(0.0));
        // Default (unconfigured) queues stay silent: no queue audits, no
        // per-queue gauges — historical traces must not change.
        assert_eq!(tracer.queue_audit_count(), 0);
        assert_eq!(snap.metrics.gauge("rm.queue.default.used_vcores"), None);
    }

    #[test]
    fn disabled_tracer_leaves_rm_silent() {
        let tracer = hiway_obs::Tracer::disabled();
        let mut r = rm(1);
        r.set_tracer(&tracer);
        let app = r.submit_app("wf");
        r.request(app, ContainerRequest::anywhere(one_core()));
        r.allocate();
        assert_eq!(tracer.counter_value("rm.requests"), 0);
        assert!(tracer.snapshot().is_none());
    }

    #[test]
    fn revive_is_idempotent_on_alive_nodes() {
        let mut r = rm(1);
        let app = r.submit_app("wf");
        r.request(app, ContainerRequest::anywhere(one_core()));
        assert_eq!(r.allocate().len(), 1);
        let before = r.available(NodeId(0));
        // Reviving a node that never died must not resurrect capacity
        // currently leased to containers.
        r.revive_node(NodeId(0));
        assert_eq!(r.available(NodeId(0)), before);
        assert_eq!(r.running_containers(), 1);
    }

    // ----- edge cases: release/crash interactions --------------------------

    #[test]
    fn release_after_node_crash_is_a_noop() {
        let mut r = rm(2);
        let app = r.submit_app("wf");
        r.request(app, ContainerRequest::pinned(one_core(), NodeId(0)));
        let got = r.allocate();
        let cid = got[0].id;
        r.fail_node(NodeId(0));
        // The driver may still hold the container handle and release it
        // after learning of the crash: the id is already gone, capacity
        // must not be resurrected on the dead node.
        assert!(r.release(cid).is_none());
        assert_eq!(r.available(NodeId(0)), Resource::ZERO);
        assert_eq!(r.running_containers(), 0);
        // Queue accounting was already uncharged by fail_node; a revive
        // then re-allocate works from a clean slate.
        assert_eq!(r.queue_usage("default"), Some(Resource::ZERO));
    }

    #[test]
    fn double_release_is_idempotent() {
        let mut r = rm(1);
        let app = r.submit_app("wf");
        r.request(app, ContainerRequest::anywhere(one_core()));
        let got = r.allocate();
        let cid = got[0].id;
        assert!(r.release(cid).is_some());
        let avail = r.available(NodeId(0));
        // Second release of the same id: no capacity double-credit, no
        // queue-usage underflow, no panic.
        assert!(r.release(cid).is_none());
        assert_eq!(r.available(NodeId(0)), avail);
        assert_eq!(r.queue_usage("default"), Some(Resource::ZERO));
    }

    #[test]
    fn oversized_request_fails_fast_not_hangs() {
        let mut r = rm(2); // m3.large: 2 vcores / 7500 MB per node
        let app = r.submit_app("wf");
        // More cores than any node has: must not enter the queue at all.
        r.request(app, ContainerRequest::anywhere(Resource::new(64, 1000)));
        assert_eq!(r.pending_requests(), 0);
        assert!(r.allocate().is_empty());
        let infeasible = r.take_infeasible();
        assert_eq!(infeasible.len(), 1);
        assert_eq!(infeasible[0].0, app);
        assert!(
            infeasible[0].1.contains("fits no node"),
            "{}",
            infeasible[0].1
        );
        // Drained once: subsequent calls are empty.
        assert!(r.take_infeasible().is_empty());
        // Same for memory, and for a pinned request exceeding its node.
        r.request(app, ContainerRequest::anywhere(Resource::new(1, 1 << 30)));
        r.request(
            app,
            ContainerRequest::pinned(Resource::new(4, 1000), NodeId(1)),
        );
        assert_eq!(r.pending_requests(), 0);
        assert_eq!(r.take_infeasible().len(), 2);
        // A dead node does NOT make a fitting request infeasible — the
        // node may revive, so the request waits instead.
        r.fail_node(NodeId(0));
        r.fail_node(NodeId(1));
        r.request(app, ContainerRequest::anywhere(one_core()));
        assert_eq!(r.pending_requests(), 1);
        assert!(r.take_infeasible().is_empty());
    }

    // ----- queue behaviour -------------------------------------------------

    fn two_tenant_rm(nodes: usize, grace: Option<f64>) -> ResourceManager {
        let mut r = rm(nodes);
        r.configure_queues(QueuesConfig::weighted_leaves(
            &[("tenant-a", 2.0), ("tenant-b", 1.0)],
            grace,
        ))
        .unwrap();
        r
    }

    #[test]
    fn configure_queues_rejects_late_or_bad_configs() {
        let mut r = rm(1);
        r.submit_app("wf");
        assert!(r.configure_queues(QueuesConfig::default()).is_err());
        let mut r = rm(1);
        assert!(r
            .configure_queues(QueuesConfig {
                root: QueueSpec::leaf("q", 0.0, 1.0, 1.0),
                ..QueuesConfig::default()
            })
            .is_err());
        assert!(r.submit_app_to("nope", "wf").is_err());
    }

    #[test]
    fn drf_orders_cross_queue_allocation() {
        // 4 nodes × 2 cores = 8 cores. Weights 2:1 ⇒ under saturating
        // demand tenant-a should end up with ~2× tenant-b's cores.
        let mut r = two_tenant_rm(4, None);
        let (a, v) = r.submit_app_to("tenant-a", "wf-a").unwrap();
        assert_eq!(v, Admission::Admitted);
        let (b, _) = r.submit_app_to("tenant-b", "wf-b").unwrap();
        for _ in 0..8 {
            r.request(a, ContainerRequest::anywhere(one_core()));
            r.request(b, ContainerRequest::anywhere(one_core()));
        }
        let got = r.allocate();
        assert_eq!(got.len(), 8, "work conservation: all cores in use");
        let a_cores = got.iter().filter(|c| c.app == a).count();
        let b_cores = got.iter().filter(|c| c.app == b).count();
        // Integer water-line: 5+3 or 6+2 both satisfy DRF within one
        // container; exact split is 5/3 with the alternating descent.
        assert!(a_cores > b_cores, "weighted: {a_cores} vs {b_cores}");
        assert!(b_cores >= 2, "lighter tenant not starved: {b_cores}");
        assert_eq!(r.queue_usage("tenant-a").unwrap().vcores, a_cores as u32);
        assert_eq!(r.queue_usage("tenant-b").unwrap().vcores, b_cores as u32);
    }

    #[test]
    fn max_capacity_caps_elastic_growth() {
        let mut r = rm(4); // 8 cores
        r.configure_queues(QueuesConfig {
            root: QueueSpec::parent(
                "root",
                1.0,
                1.0,
                1.0,
                vec![
                    QueueSpec::leaf("capped", 1.0, 0.25, 0.5),
                    QueueSpec::leaf("open", 1.0, 0.75, 1.0),
                ],
            ),
            admission: AdmissionPolicy::Reject,
            preemption_grace_secs: None,
        })
        .unwrap();
        let (a, _) = r.submit_app_to("capped", "wf").unwrap();
        for _ in 0..8 {
            r.request(a, ContainerRequest::anywhere(one_core()));
        }
        // Even with the whole cluster idle, "capped" stops at 50% = 4 cores.
        let got = r.allocate();
        assert_eq!(got.len(), 4);
        assert_eq!(r.pending_requests(), 4);
        assert_eq!(r.queue_usage("capped").unwrap().vcores, 4);
        // The sibling may use the rest (work conservation).
        let (b, _) = r.submit_app_to("open", "wf2").unwrap();
        for _ in 0..4 {
            r.request(b, ContainerRequest::anywhere(one_core()));
        }
        assert_eq!(r.allocate().len(), 4);
    }

    #[test]
    fn elastic_sharing_borrows_idle_capacity() {
        // tenant-b alone on the cluster may exceed its 1/3 guarantee all
        // the way to the full cluster.
        let mut r = two_tenant_rm(2, None); // 4 cores
        let (b, _) = r.submit_app_to("tenant-b", "wf").unwrap();
        for _ in 0..4 {
            r.request(b, ContainerRequest::anywhere(one_core()));
        }
        assert_eq!(r.allocate().len(), 4);
        assert!(r.queue_share("tenant-b").unwrap() > 0.9);
    }

    #[test]
    fn admission_rejects_past_limit() {
        let mut r = rm(2);
        r.configure_queues(QueuesConfig {
            root: QueueSpec::leaf("only", 1.0, 1.0, 1.0).with_max_apps(1),
            admission: AdmissionPolicy::Reject,
            preemption_grace_secs: None,
        })
        .unwrap();
        let (a, va) = r.submit_app_to("only", "first").unwrap();
        assert_eq!(va, Admission::Admitted);
        let (b, vb) = r.submit_app_to("only", "second").unwrap();
        assert_eq!(vb, Admission::Rejected);
        assert!(!r.is_admitted(b));
        // Rejected apps' requests never schedule.
        r.request(b, ContainerRequest::anywhere(one_core()));
        assert!(r.allocate().is_empty());
        // The admitted app is unaffected.
        r.request(a, ContainerRequest::anywhere(one_core()));
        assert_eq!(r.allocate().len(), 1);
    }

    #[test]
    fn admission_queues_and_admits_fifo_on_finish() {
        let mut r = rm(2);
        r.configure_queues(QueuesConfig {
            root: QueueSpec::leaf("only", 1.0, 1.0, 1.0).with_max_apps(1),
            admission: AdmissionPolicy::Queue,
            preemption_grace_secs: None,
        })
        .unwrap();
        let (a, _) = r.submit_app_to("only", "first").unwrap();
        let (b, vb) = r.submit_app_to("only", "second").unwrap();
        let (c, vc) = r.submit_app_to("only", "third").unwrap();
        assert_eq!(vb, Admission::Queued);
        assert_eq!(vc, Admission::Queued);
        // Parked apps' requests are held back.
        r.request(b, ContainerRequest::anywhere(one_core()));
        assert!(r.allocate().is_empty());
        // First finishes: b (older) admitted, c still parked.
        r.finish_app(a);
        assert!(r.is_admitted(b));
        assert!(!r.is_admitted(c));
        assert_eq!(r.allocate().len(), 1);
        // finish_app is idempotent; finishing b admits c.
        r.finish_app(a);
        assert!(!r.is_admitted(c));
        r.finish_app(b);
        assert!(r.is_admitted(c));
    }

    #[test]
    fn preemption_claws_back_capacity_for_starved_queue() {
        // 4 nodes × 2 cores; tenant-a (w2, guarantee 2/3) hogs all 8.
        let mut r = two_tenant_rm(4, Some(10.0));
        let (a, _) = r.submit_app_to("tenant-a", "hog").unwrap();
        for _ in 0..8 {
            r.request(a, ContainerRequest::anywhere(one_core()));
        }
        assert_eq!(r.allocate_at(0.0).len(), 8);
        // tenant-b arrives with demand. Its fair share is 1/3.
        let (b, _) = r.submit_app_to("tenant-b", "late").unwrap();
        for _ in 0..4 {
            r.request(b, ContainerRequest::anywhere(one_core()));
        }
        // Starvation clock starts at 1.0; before the grace expires, no
        // victims.
        assert!(r.allocate_at(1.0).is_empty());
        assert!(r.take_preemptions().is_empty());
        assert!(r.allocate_at(5.0).is_empty());
        assert!(r.take_preemptions().is_empty());
        // Grace (10s) elapsed: victims selected from tenant-a's newest
        // containers, but never below its 2/3 guarantee.
        r.allocate_at(11.5);
        let victims = r.take_preemptions();
        assert!(!victims.is_empty(), "grace expired, victims expected");
        let over_guarantee: f64 = 8.0 - (2.0 / 3.0) * 8.0; // ≈ 2.67 cores
        assert!(victims.len() as f64 <= over_guarantee.ceil() + 1e-9);
        // Newest first.
        let mut sorted = victims.clone();
        sorted.sort_by(|x, y| y.cmp(x));
        assert_eq!(victims, sorted);
        // The driver kills them; the freed cores go to tenant-b.
        for v in victims {
            r.release(v);
        }
        let got = r.allocate_at(12.0);
        assert!(got.iter().all(|c| c.app == b));
        assert!(!got.is_empty());
        assert!(r.queue_share("tenant-b").unwrap() > 0.2);
    }

    #[test]
    fn preemption_skips_unpreemptable_containers() {
        let mut r = two_tenant_rm(1, Some(1.0)); // 2 cores total
        let (a, _) = r.submit_app_to("tenant-a", "am-heavy").unwrap();
        // Both of tenant-a's containers are AM-style unpreemptable.
        r.request(a, ContainerRequest::anywhere(one_core()).never_preempt());
        r.request(a, ContainerRequest::anywhere(one_core()).never_preempt());
        assert_eq!(r.allocate_at(0.0).len(), 2);
        let (b, _) = r.submit_app_to("tenant-b", "late").unwrap();
        r.request(b, ContainerRequest::anywhere(one_core()));
        r.allocate_at(1.0);
        r.allocate_at(3.0);
        r.allocate_at(5.0);
        assert!(
            r.take_preemptions().is_empty(),
            "unpreemptable containers must never be selected"
        );
    }

    #[test]
    fn queue_audit_records_lifecycle() {
        use hiway_obs::Tracer;
        let tracer = Tracer::enabled();
        let mut r = two_tenant_rm(2, None);
        r.set_tracer(&tracer);
        let (a, _) = r.submit_app_to("tenant-a", "wf").unwrap();
        r.request(a, ContainerRequest::anywhere(one_core()));
        r.allocate_at(2.0);
        tracer.with_queue_audits(|audits| {
            assert!(audits
                .iter()
                .any(|q| q.kind == hiway_obs::QueueEventKind::Admit && q.app == Some(a.0)));
            assert!(audits
                .iter()
                .any(|q| q.kind == hiway_obs::QueueEventKind::Allocate
                    && q.queue == "tenant-a"
                    && q.used_vcores == 1));
            // One usage sample per leaf for the allocation round.
            let usage: Vec<_> = audits
                .iter()
                .filter(|q| q.kind == hiway_obs::QueueEventKind::Usage)
                .collect();
            assert_eq!(usage.len(), 2);
            assert!(usage.iter().all(|q| (q.t - 2.0).abs() < 1e-9));
        });
        let snap = tracer.snapshot().unwrap();
        assert_eq!(
            snap.metrics.gauge("rm.queue.tenant-a.used_vcores"),
            Some(1.0)
        );
        assert_eq!(
            snap.metrics.gauge("rm.queue.tenant-b.used_vcores"),
            Some(0.0)
        );
    }

    // ----- change-gated allocation rounds -----------------------------------

    #[test]
    fn parked_request_is_granted_on_the_first_round_after_admission() {
        let mut r = rm(2);
        r.configure_queues(QueuesConfig {
            root: QueueSpec::leaf("only", 1.0, 1.0, 1.0).with_max_apps(1),
            admission: AdmissionPolicy::Queue,
            preemption_grace_secs: None,
        })
        .unwrap();
        let (a, _) = r.submit_app_to("only", "first").unwrap();
        let (b, vb) = r.submit_app_to("only", "second").unwrap();
        assert_eq!(vb, Admission::Queued);
        r.request(b, ContainerRequest::anywhere(one_core()));
        // Rounds with nothing schedulable leave the request parked...
        assert!(r.allocate_at(1.0).is_empty());
        assert!(r.allocate_at(2.0).is_empty());
        // ...and admission from the wait list alone must re-arm the scan.
        r.finish_app(a);
        let got = r.allocate_at(3.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].app, b);
    }

    /// Two leaves under one parent: "a" capped at 75% of the cluster and
    /// one live app, "b" elastic with two; parked apps wait, and starved
    /// leaves preempt after two seconds.
    fn gate_oracle_rm(scan_every_round: bool) -> ResourceManager {
        let mut r = rm(4);
        r.configure_queues(QueuesConfig {
            root: QueueSpec::parent(
                "root",
                1.0,
                1.0,
                1.0,
                vec![
                    QueueSpec::leaf("a", 2.0, 0.5, 0.75).with_max_apps(1),
                    QueueSpec::leaf("b", 1.0, 0.5, 1.0).with_max_apps(2),
                ],
            ),
            admission: AdmissionPolicy::Queue,
            preemption_grace_secs: Some(2.0),
        })
        .unwrap();
        r.scan_every_round = scan_every_round;
        r
    }

    fn grant_keys(granted: &[Container]) -> Vec<(ContainerId, NodeId, AppId)> {
        granted.iter().map(|c| (c.id, c.node, c.app)).collect()
    }

    /// Drives `r` through `ops` (each `(kind, x, y, z)` draw picks an op
    /// and its arguments) and logs, per op, what it observably returned:
    /// grants, preemption victims, killed and released containers,
    /// withdrawals, admissions and fail-fast rejections.
    fn run_gate_ops(mut r: ResourceManager, ops: &[(u8, u8, u8, u8)]) -> Vec<String> {
        let mut apps = vec![
            r.submit_app_to("a", "a0").unwrap().0,
            r.submit_app_to("b", "b0").unwrap().0,
        ];
        let mut live: Vec<ContainerId> = Vec::new();
        let mut now = 0.0;
        let mut log = Vec::new();
        for &(kind, x, y, z) in ops {
            let app = apps[x as usize % apps.len()];
            let node = NodeId(y as u32 % 4);
            let size = Resource::new(1 + (y as u32 >> 2) % 2, 500 + 500 * (z as u64 % 8));
            let entry = match kind {
                0 | 1 => format!("{:?}", r.request(app, ContainerRequest::anywhere(size))),
                2 => format!("{:?}", r.request(app, ContainerRequest::pinned(size, node))),
                3 => {
                    let ask = ContainerRequest {
                        resource: size,
                        preference: Some(node),
                        relax_locality: true,
                        unpreemptable: x & 1 == 1,
                    };
                    format!("{:?}", r.request(app, ask))
                }
                4 => {
                    // Fits no node's total: failed fast, never queued.
                    r.request(app, ContainerRequest::anywhere(Resource::new(9, 1000)));
                    format!("{:?}", r.take_infeasible())
                }
                5 if !live.is_empty() => {
                    let id = live.swap_remove(x as usize % live.len());
                    format!("{:?}", r.release(id).map(|c| c.id))
                }
                6 => {
                    let killed = grant_keys(&r.fail_node(node));
                    live.retain(|id| !killed.iter().any(|k| k.0 == *id));
                    format!("{killed:?}")
                }
                7 => {
                    r.revive_node(node);
                    String::new()
                }
                8 | 9 if r.available(node) == r.total(node) && r.is_alive(node) => {
                    let cap = Resource::new(1 + z as u32 % 4, 2000 + 1000 * (x as u64 % 7));
                    r.set_capacity(node, cap);
                    String::new()
                }
                10 => format!("{}", r.withdraw_requests(app)),
                11 => {
                    r.finish_app(app);
                    String::new()
                }
                12 if apps.len() < 8 => {
                    let leaf = if x & 1 == 0 { "a" } else { "b" };
                    let (id, verdict) = r.submit_app_to(leaf, "late").unwrap();
                    apps.push(id);
                    format!("{id:?} {verdict:?}")
                }
                _ => {
                    now += z as f64 * 0.25;
                    let granted = grant_keys(&r.allocate_at(now));
                    live.extend(granted.iter().map(|k| k.0));
                    let victims = r.take_preemptions();
                    // The driver kills the victims, most of the time.
                    if x % 4 != 0 {
                        for id in &victims {
                            r.release(*id);
                            live.retain(|l| l != id);
                        }
                    }
                    format!("t={now} granted {granted:?} victims {victims:?}")
                }
            };
            log.push(entry);
        }
        log
    }

    proptest::proptest! {
        /// The change gate never alters an allocation: an RM that skips
        /// unchanged rounds and one that scans every round make the same
        /// grants and select the same preemption victims under the same
        /// random sequence of asks (relaxed, pinned and never fitting),
        /// releases, node failures and recoveries, capacity changes,
        /// withdrawals, submissions and finishes.
        #[test]
        fn gated_rounds_match_scanning_every_round(
            ops in proptest::collection::vec(
                (0u8..18, proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>(), 0u8..12),
                1..150,
            ),
        ) {
            let gated = run_gate_ops(gate_oracle_rm(false), &ops);
            let scanning = run_gate_ops(gate_oracle_rm(true), &ops);
            for (i, (g, s)) in gated.iter().zip(&scanning).enumerate() {
                proptest::prop_assert_eq!(g, s, "op {} = {:?}", i, ops[i]);
            }
        }
    }
}
