//! The Provenance Manager (paper §3.5).
//!
//! Registers events at three granularities — workflow, task, file — each
//! timestamped, and keeps them in two places: an append-only event list
//! that becomes the re-executable JSON trace file stored in HDFS, and the
//! queryable [`hiway_provdb`] document store (the MySQL/Couchbase stand-in)
//! from which the Workflow Scheduler draws its runtime estimates.
//!
//! The estimate strategy is the paper's: "the current strategy for
//! computing these runtime estimates is to always use the latest observed
//! runtime. If no runtimes have been observed yet for a particular
//! task-machine-assignment, a default runtime of zero is assumed to
//! encourage trying out new assignments."

use hiway_format::json::Json;
use hiway_lang::trace::{FileEvent, TaskEvent, TraceEvent, WorkflowEvent};
use hiway_provdb::{Aggregate, Op, ProvDb};

use crate::memo::MemoHit;

/// Collection names inside the provenance database.
pub const TASKS_COLLECTION: &str = "task_events";
pub const FILES_COLLECTION: &str = "file_events";
pub const WORKFLOWS_COLLECTION: &str = "workflow_events";
pub const ATTEMPTS_COLLECTION: &str = "attempt_events";

/// The `task_events` document of one task execution.
fn task_doc(t: &TaskEvent) -> Json {
    Json::object()
        .with("name", t.name.as_str())
        .with("node", t.node.as_str())
        .with("makespan", t.makespan())
        .with("t_start", t.t_start)
        .with("t_end", t.t_end)
        .with("attempts", t.attempts)
        .with("command", t.command.as_str())
}

/// The `file_events` document of one staged file.
fn file_doc(f: &FileEvent) -> Json {
    Json::object()
        .with("path", f.path.as_str())
        .with("size", f.size)
        .with("task", f.task)
        .with("direction", f.direction.as_str())
        .with("transfer_seconds", f.transfer_seconds)
}

/// Per-workflow provenance recorder over a (possibly shared, long-lived)
/// provenance database. Sharing the database across runs is what feeds the
/// adaptive scheduler in the Figure 9 experiment: every prior execution
/// enriches the runtime estimates of the next.
pub struct ProvenanceManager {
    db: ProvDb,
    events: Vec<TraceEvent>,
}

impl ProvenanceManager {
    pub fn new(db: ProvDb) -> ProvenanceManager {
        // Index the hot lookup fields once; index creation is idempotent.
        let tasks = db.collection(TASKS_COLLECTION);
        tasks.create_index("name");
        tasks.create_index("key");
        ProvenanceManager {
            db,
            events: Vec::new(),
        }
    }

    /// The shared database handle (e.g. to pass to the next workflow run).
    pub fn db(&self) -> &ProvDb {
        &self.db
    }

    /// Records a completed task execution. A memoizing run passes the
    /// invocation's [`crate::memo_key`]: the document then also carries
    /// `key` and the committed `outputs`, which is what
    /// [`ProvenanceManager::memo_hit`] recalls. On a durable database the
    /// document is in the WAL before this returns, so a crash right after
    /// the output commit still leaves a resumable record.
    pub fn record_task(&mut self, event: TaskEvent, memo_key: Option<&str>) {
        let mut doc = task_doc(&event);
        if let Some(key) = memo_key {
            let outputs = event.outputs.iter().map(|(path, size)| {
                Json::object()
                    .with("path", path.as_str())
                    .with("size", *size)
            });
            doc = doc
                .with("key", key)
                .with("outputs", Json::Array(outputs.collect()));
        }
        self.db.collection(TASKS_COLLECTION).insert(doc);
        self.events.push(TraceEvent::Task(event));
    }

    /// The latest committed invocation recorded under memo `key`, if any.
    pub fn memo_hit(&self, key: &str) -> Option<MemoHit> {
        let doc = self
            .db
            .collection(TASKS_COLLECTION)
            .query()
            .filter("key", Op::Eq, key)
            .last()?;
        let Some(Json::Array(outputs)) = doc.get("outputs") else {
            return None;
        };
        let outputs = outputs.iter().map(|o| {
            let path = o.get("path")?.as_str()?.to_string();
            Some((path, o.get("size")?.as_u64()?))
        });
        Some(MemoHit {
            outputs: outputs.collect::<Option<_>>()?,
            node: doc.get("node")?.as_str()?.to_string(),
            saved_secs: doc.get("makespan").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }

    /// Records the fate of one container attempt that did *not* commit the
    /// task's result — a tool crash, an infrastructure loss (node crash,
    /// preemption), or a cancelled speculative duplicate. Successful
    /// attempts are implied by the task event itself. Keeping these in the
    /// provenance store means a chaotic run's history is fully auditable
    /// while its trace file stays a re-executable workflow (§3.5): replay
    /// re-runs only the attempts that actually produced data.
    pub fn record_attempt(
        &mut self,
        task: u64,
        name: &str,
        node: &str,
        outcome: &str,
        container_secs: f64,
    ) {
        let doc = Json::object()
            .with("task", task)
            .with("name", name)
            .with("node", node)
            .with("outcome", outcome)
            .with("container_secs", container_secs);
        self.db.collection(ATTEMPTS_COLLECTION).insert(doc);
    }

    /// Number of recorded non-successful attempts with `outcome` (pass ""
    /// to count all outcomes).
    pub fn attempt_count(&self, outcome: &str) -> usize {
        let q = self.db.collection(ATTEMPTS_COLLECTION).query();
        let q = if outcome.is_empty() {
            q
        } else {
            q.filter("outcome", Op::Eq, outcome)
        };
        q.aggregate("container_secs", Aggregate::Count)
            .unwrap_or(0.0) as usize
    }

    /// Records a file staged in or out of a task's container.
    pub fn record_file(&mut self, event: FileEvent) {
        self.db
            .collection(FILES_COLLECTION)
            .insert(file_doc(&event));
        self.events.push(TraceEvent::File(event));
    }

    /// Closes the workflow, returning the full trace in the on-disk
    /// (JSON-lines) format — itself a valid workflow (§3.5).
    pub fn finish_workflow(&mut self, name: &str, language: &str, total_seconds: f64) -> String {
        let event = WorkflowEvent {
            name: name.to_string(),
            language: language.to_string(),
            total_seconds,
        };
        self.db.collection(WORKFLOWS_COLLECTION).insert(
            Json::object()
                .with("name", name)
                .with("language", language)
                .with("total_seconds", total_seconds),
        );
        // The workflow header leads the trace for readability.
        let mut trace = vec![TraceEvent::Workflow(event)];
        trace.append(&mut self.events);
        hiway_lang::trace::write_trace(&trace)
    }

    /// Imports the events of a previously written trace file into the
    /// statistics store — "stored as JSON objects in a trace file in HDFS,
    /// from where it can be accessed by other instances of Hi-WAY" (§3.5).
    /// Returns how many task observations were loaded.
    pub fn import_trace(&mut self, trace_text: &str) -> Result<usize, hiway_lang::LangError> {
        let events = hiway_lang::trace::parse_trace_events(trace_text)?;
        let mut loaded = 0;
        for event in events {
            match event {
                TraceEvent::Task(t) => {
                    self.db.collection(TASKS_COLLECTION).insert(task_doc(&t));
                    loaded += 1;
                }
                TraceEvent::File(f) => {
                    self.db.collection(FILES_COLLECTION).insert(file_doc(&f));
                }
                TraceEvent::Workflow(_) => {}
            }
        }
        Ok(loaded)
    }

    /// Latest observed makespan of `signature` on `node`, or `None` —
    /// which the scheduler maps to the exploration-friendly default of 0.
    pub fn latest_runtime(&self, signature: &str, node: &str) -> Option<f64> {
        self.db
            .collection(TASKS_COLLECTION)
            .query()
            .filter("name", Op::Eq, signature)
            .filter("node", Op::Eq, node)
            .last()
            .and_then(|doc| doc.get("makespan").and_then(Json::as_f64))
    }

    /// Average observed makespan of `signature` across all nodes.
    pub fn average_runtime(&self, signature: &str) -> Option<f64> {
        self.db
            .collection(TASKS_COLLECTION)
            .query()
            .filter("name", Op::Eq, signature)
            .aggregate("makespan", Aggregate::Avg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task_event(name: &str, node: &str, start: f64, end: f64) -> TaskEvent {
        TaskEvent {
            id: 0,
            name: name.into(),
            command: format!("{name} ..."),
            inputs: vec![],
            outputs: vec![],
            cpu_seconds: end - start,
            threads: 1,
            memory_mb: 100,
            node: node.into(),
            t_start: start,
            t_end: end,
            attempts: 1,
            stdout: String::new(),
            stderr: String::new(),
        }
    }

    #[test]
    fn latest_runtime_is_most_recent() {
        let mut p = ProvenanceManager::new(ProvDb::new());
        p.record_task(task_event("align", "w0", 0.0, 10.0), None);
        p.record_task(task_event("align", "w0", 20.0, 25.0), None);
        p.record_task(task_event("align", "w1", 0.0, 40.0), None);
        assert_eq!(p.latest_runtime("align", "w0"), Some(5.0));
        assert_eq!(p.latest_runtime("align", "w1"), Some(40.0));
        assert_eq!(p.latest_runtime("align", "w9"), None);
        assert_eq!(p.latest_runtime("sort", "w0"), None);
    }

    #[test]
    fn estimates_survive_across_manager_instances_sharing_a_db() {
        let db = ProvDb::new();
        let mut p1 = ProvenanceManager::new(db.clone());
        p1.record_task(task_event("align", "w0", 0.0, 12.0), None);
        drop(p1);
        let p2 = ProvenanceManager::new(db);
        assert_eq!(p2.latest_runtime("align", "w0"), Some(12.0));
    }

    #[test]
    fn finish_produces_reexecutable_trace() {
        let mut p = ProvenanceManager::new(ProvDb::new());
        let mut e = task_event("align", "w0", 0.0, 10.0);
        e.inputs = vec![("/in".into(), 5)];
        e.outputs = vec![("/out".into(), 10)];
        p.record_task(e, None);
        p.record_file(FileEvent {
            path: "/in".into(),
            size: 5,
            task: 0,
            direction: "in".into(),
            transfer_seconds: 0.1,
        });
        let trace = p.finish_workflow("demo", "cuneiform", 10.5);
        let wf = hiway_lang::trace::parse_trace(&trace).unwrap();
        assert_eq!(wf.name, "demo-replay");
        assert_eq!(wf.tasks.len(), 1);
    }

    #[test]
    fn memoized_task_documents_round_trip_as_hits() {
        let mut p = ProvenanceManager::new(ProvDb::new());
        let key = crate::memo_key("align", "cmd", &[7]);
        assert_eq!(p.memo_hit(&key), None);
        p.record_task(task_event("align", "w0", 0.0, 9.0), None);
        assert_eq!(p.memo_hit(&key), None, "a plain record carries no key");
        let mut e = task_event("align", "worker-1", 0.0, 12.5);
        e.outputs = vec![("/out/a.bam".into(), 1024)];
        p.record_task(e, Some(&key));
        let hit = p.memo_hit(&key).expect("recorded");
        assert_eq!(hit.outputs, vec![("/out/a.bam".to_string(), 1024)]);
        assert_eq!(hit.node, "worker-1");
        assert_eq!(hit.saved_secs, 12.5);
        let tasks = p.db().collection(TASKS_COLLECTION);
        assert_eq!(tasks.len(), 2, "one document per invocation");
        // The memoized document is still an ordinary runtime observation.
        assert_eq!(p.latest_runtime("align", "worker-1"), Some(12.5));
    }

    #[test]
    fn latest_memo_record_wins_and_survives_a_shared_db() {
        let db = ProvDb::new();
        let mut a = ProvenanceManager::new(db.clone());
        let key = crate::memo_key("t", "c", &[]);
        for (node, size) in [("n0", 1), ("n1", 2)] {
            let mut e = task_event("t", node, 0.0, size as f64);
            e.outputs = vec![("/x".into(), size)];
            a.record_task(e, Some(&key));
        }
        drop(a);
        let b = ProvenanceManager::new(db); // fresh handle, same store
        let hit = b.memo_hit(&key).expect("still there");
        assert_eq!(hit.node, "n1", "latest observation wins");
        assert_eq!(hit.outputs[0].1, 2);
    }
}
