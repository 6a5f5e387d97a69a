//! End-to-end crash-and-resume: a durable provenance store plus the
//! `resume` flag must let a re-submitted workflow skip every invocation
//! the previous run completed — emitting `memo:hit` records instead of
//! execute phases — and produce byte-identical outputs.

use hiway_core::cluster::Cluster;
use hiway_core::config::{HiwayConfig, SchedulerPolicy};
use hiway_core::driver::Runtime;
use hiway_core::provenance::TASKS_COLLECTION;
use hiway_format::json::Json;
use hiway_lang::dax::parse_dax;
use hiway_provdb::ProvDb;
use hiway_sim::{ClusterSpec, NodeSpec};
use hiway_workloads::montage::MontageParams;

/// Unique scratch directory for a durable store.
fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hiway-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh cluster with the Montage raw images staged.
fn montage_cluster(montage: &MontageParams) -> Cluster {
    let spec = ClusterSpec::homogeneous(4, "w", &NodeSpec::m3_large("proto"));
    let mut cluster = Cluster::new(spec, 7);
    for (path, size) in montage.input_files() {
        cluster.prestage(&path, size);
    }
    cluster
}

fn montage_config(db_path: &std::path::Path, resume: bool) -> HiwayConfig {
    HiwayConfig::default()
        .with_scheduler(SchedulerPolicy::Fcfs)
        .with_seed(11)
        .with_provdb_path(db_path.to_str().expect("utf-8 path"))
        .with_resume(resume)
}

/// The `task_events` documents of the durable store at `dir`, asserting
/// on the way that no separate memo collection exists: the store keeps
/// one document per committed invocation.
fn task_documents(dir: &std::path::Path) -> Vec<Json> {
    let db = ProvDb::open(dir).expect("reopen store");
    let names = db.collection_names();
    assert!(
        !names.iter().any(|n| n == "memo_invocations"),
        "no second memo document: {names:?}"
    );
    db.collection(TASKS_COLLECTION).query().collect()
}

/// `(path, content digest)` of every file in HDFS, sorted — the output
/// identity a resumed run must reproduce byte-for-byte.
fn hdfs_digests(rt: &Runtime) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = rt
        .cluster
        .hdfs
        .list()
        .into_iter()
        .map(|p| {
            let d = rt.cluster.hdfs.content_digest(&p).expect("digest");
            (p, d)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn warm_resume_skips_every_completed_invocation() {
    let dir = store_dir("warm");
    let montage = MontageParams::default();
    let n_tasks = montage.expected_tasks();

    // Cold run: executes everything, memoizing into the durable store.
    let (cold_secs, cold_digests) = {
        let mut rt = Runtime::new(montage_cluster(&montage));
        let source = parse_dax(&montage.dax_source()).expect("montage dax");
        let wf = rt.submit(Box::new(source), montage_config(&dir, false), ProvDb::new());
        let reports = rt.run_to_completion();
        assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
        assert_eq!(reports[wf].tasks.len(), n_tasks);
        assert_eq!(rt.memo_hits(wf), 0, "nothing to hit on a cold run");
        (reports[wf].runtime_secs(), hdfs_digests(&rt))
    };
    // One task-event document per invocation, carrying the memo key and
    // the committed outputs.
    let docs = task_documents(&dir);
    assert_eq!(docs.len(), n_tasks);
    for doc in &docs {
        assert!(doc.get("key").and_then(Json::as_str).is_some(), "{doc:?}");
        assert!(
            matches!(doc.get("outputs"), Some(Json::Array(_))),
            "{doc:?}"
        );
    }

    // Warm resume on a fresh cluster: every invocation is memo-satisfied.
    let mut rt = Runtime::new(montage_cluster(&montage));
    let source = parse_dax(&montage.dax_source()).expect("montage dax");
    let wf = rt.submit(Box::new(source), montage_config(&dir, true), ProvDb::new());
    let reports = rt.run_to_completion();
    assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
    let report = &reports[wf];
    assert_eq!(report.tasks.len(), n_tasks);
    assert_eq!(rt.memo_hits(wf), n_tasks as u64, "zero re-executions");
    assert!(rt.memo_saved_secs(wf) > 0.0);
    for t in &report.tasks {
        assert_eq!(t.attempts, 0, "{}: memo hits launch no containers", t.name);
        assert!(
            t.node.starts_with("memo:"),
            "{}: ran on {} instead of a memo hit",
            t.name,
            t.node
        );
    }
    // Byte-identical outputs.
    assert_eq!(hdfs_digests(&rt), cold_digests);
    // And essentially free: no execute phases contribute to the makespan.
    assert!(
        report.runtime_secs() < cold_secs / 4.0,
        "resume {:.1}s vs cold {cold_secs:.1}s",
        report.runtime_secs()
    );
    // Memo hits execute nothing, so they record no task events.
    drop(rt);
    assert_eq!(task_documents(&dir).len(), n_tasks);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_run_resume_finishes_without_redoing_completed_work() {
    let dir = store_dir("crash");
    let montage = MontageParams::default();
    let n_tasks = montage.expected_tasks();

    // Reference digests from an uninterrupted in-memory run.
    let reference = {
        let mut rt = Runtime::new(montage_cluster(&montage));
        let source = parse_dax(&montage.dax_source()).expect("montage dax");
        let wf = rt.submit(
            Box::new(source),
            HiwayConfig::default()
                .with_scheduler(SchedulerPolicy::Fcfs)
                .with_seed(11),
            ProvDb::new(),
        );
        rt.run_to_completion();
        assert!(rt.error_of(wf).is_none());
        hdfs_digests(&rt)
    };

    // First run dies mid-DAG: drop the runtime with the workflow active.
    // Committed WAL frames survive the crash; nothing else does.
    {
        let mut rt = Runtime::new(montage_cluster(&montage));
        let source = parse_dax(&montage.dax_source()).expect("montage dax");
        let wf = rt.submit(Box::new(source), montage_config(&dir, false), ProvDb::new());
        let still_active = rt.run_until(hiway_sim::SimTime::from_secs(60.0));
        assert!(still_active, "montage must still be mid-run at t=60");
        assert!(rt.error_of(wf).is_none());
    }

    // Resume: completed invocations are memo hits, the rest execute.
    let mut rt = Runtime::new(montage_cluster(&montage));
    let source = parse_dax(&montage.dax_source()).expect("montage dax");
    let wf = rt.submit(Box::new(source), montage_config(&dir, true), ProvDb::new());
    let reports = rt.run_to_completion();
    assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
    let report = &reports[wf];
    assert_eq!(report.tasks.len(), n_tasks);
    let hits = rt.memo_hits(wf);
    assert!(hits >= 1, "the crashed run committed at least one task");
    assert!(hits < n_tasks as u64, "the crashed run was interrupted");
    let memo_rows = report
        .tasks
        .iter()
        .filter(|t| t.node.starts_with("memo:"))
        .count();
    let executed = report.tasks.iter().filter(|t| t.attempts >= 1).count();
    assert_eq!(memo_rows as u64, hits);
    assert_eq!(memo_rows + executed, n_tasks, "every task: hit XOR exec");
    // The spliced run converges on the same bytes as the uninterrupted one.
    assert_eq!(hdfs_digests(&rt), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_against_an_empty_store_is_a_plain_run() {
    let dir = store_dir("empty");
    let montage = MontageParams::default();
    let mut rt = Runtime::new(montage_cluster(&montage));
    let source = parse_dax(&montage.dax_source()).expect("montage dax");
    let wf = rt.submit(Box::new(source), montage_config(&dir, true), ProvDb::new());
    let reports = rt.run_to_completion();
    assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
    assert_eq!(reports[wf].tasks.len(), montage.expected_tasks());
    assert_eq!(rt.memo_hits(wf), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_store_path_fails_the_submission() {
    // Point provdb_path below a regular file: create_dir_all must fail,
    // and the failure surfaces as a submission error, not a panic.
    let blocker = std::env::temp_dir().join(format!("hiway-resume-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("write blocker");
    let bad = blocker.join("db");
    let montage = MontageParams::default();
    let mut rt = Runtime::new(montage_cluster(&montage));
    let source = parse_dax(&montage.dax_source()).expect("montage dax");
    let config = HiwayConfig::default().with_provdb_path(bad.to_str().expect("utf-8"));
    let wf = rt.submit(Box::new(source), config, ProvDb::new());
    rt.run_to_completion();
    let err = rt.error_of(wf).expect("open failure must fail the run");
    assert!(err.contains("provenance store"), "{err}");
    let _ = std::fs::remove_file(&blocker);
}
