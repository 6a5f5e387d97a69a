//! End-to-end and per-layer host-cost benchmark of the Hi-WAY reproduction.
//!
//! Three workloads are built from the paper's own experiments (see
//! `README.md` in this directory for why each was chosen). A *pass* runs
//! one workload once: it sets up every workflow run of the workload and
//! executes it. An untraced pass drives the simulation through
//! [`Runtime::run_to_completion`], exactly as the experiment binaries do.
//! A traced pass drives the same simulation through an outside loop of
//! [`hiway_sim::Engine::step`] and [`Runtime::dispatch_public`] and times
//! every call into each layer from here (see [`traced`]); no crate of the
//! repository is instrumented.

pub mod json;
pub mod traced;

use std::time::Instant;

use hiway_core::driver::Runtime;
use hiway_core::{HiwayConfig, SchedulerPolicy, WorkflowReport};
use hiway_lang::cuneiform::CuneiformWorkflow;
use hiway_lang::dax::parse_dax;
use hiway_lang::ir::{StaticWorkflow, WorkflowSource};
use hiway_provdb::ProvDb;
use hiway_sim::{NodeId, NodeSpec};
use hiway_workloads::montage::MontageParams;
use hiway_workloads::profiles;
use hiway_workloads::snv::SnvParams;
use hiway_yarn::Resource;

pub use traced::LayerStats;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 4 Hi-WAY cell: SNV calling in Cuneiform, 72 samples,
    /// 24 local nodes with 3 one-core containers each, data-aware.
    SnvCuneiformFig4,
    /// The Table 2 128-worker rung, materialized to a static DAG.
    SnvStatic128w,
    /// One Figure 9 repetition: Montage, one FCFS run, then 20 HEFT runs
    /// sharing one provenance store.
    MontageHeftWarmup,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SnvCuneiformFig4,
        Workload::SnvStatic128w,
        Workload::MontageHeftWarmup,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SnvCuneiformFig4 => "snv_cuneiform_fig4",
            Workload::SnvStatic128w => "snv_static_128w",
            Workload::MontageHeftWarmup => "montage_heft_warmup",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the paper-shaped experiment itself uses for this cell:
    /// Figure 4 seeds a cell `1000 × containers + repetition`, Table 2
    /// `100 × workers + repetition`, and Figure 9 starts its first
    /// repetition's seed ladder at 7000.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::SnvCuneiformFig4 => 72_000,
            Workload::SnvStatic128w => 12_800,
            Workload::MontageHeftWarmup => 7_000,
        }
    }
}

/// Workload size: the stated size, or a shrunk instance for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Shrunk,
}

/// Figure 4 shape: (nodes, samples). Three one-core containers per node.
fn fig4_shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (24, 72),
        Size::Shrunk => (6, 6),
    }
}

const FIG4_CONTAINERS_PER_NODE: u32 = 3;

fn static_workers(size: Size) -> usize {
    match size {
        Size::Full => 128,
        Size::Shrunk => 4,
    }
}

fn heft_runs(size: Size) -> usize {
    match size {
        Size::Full => 20,
        Size::Shrunk => 3,
    }
}

/// Figure 9's stressed workers: 1 clean, 5 CPU-stressed, 5 disk-stressed.
const MONTAGE_WORKERS: usize = 11;
const STRESS_LEVELS: [u32; 5] = [1, 2, 3, 4, 6];

/// One workflow run of a pass, before setup.
#[derive(Clone, Copy, Debug)]
struct RunPlan {
    seed: u64,
    scheduler: SchedulerPolicy,
    /// Whether the run reads and writes the pass's shared provenance
    /// store (the HEFT ladder) rather than a fresh one.
    shared_db: bool,
}

fn plans(workload: Workload, size: Size, seed: u64) -> Vec<RunPlan> {
    match workload {
        Workload::SnvCuneiformFig4 => vec![RunPlan {
            seed,
            scheduler: SchedulerPolicy::DataAware,
            shared_db: false,
        }],
        Workload::SnvStatic128w => vec![RunPlan {
            seed,
            scheduler: SchedulerPolicy::Fcfs,
            shared_db: false,
        }],
        Workload::MontageHeftWarmup => {
            let fcfs = RunPlan {
                seed,
                scheduler: SchedulerPolicy::Fcfs,
                shared_db: false,
            };
            let heft = (0..heft_runs(size)).map(|k| RunPlan {
                seed: seed.wrapping_add(1 + k as u64),
                scheduler: SchedulerPolicy::Heft,
                shared_db: true,
            });
            std::iter::once(fcfs).chain(heft).collect()
        }
    }
}

/// A workflow run after setup: deployment built, inputs staged, workflow
/// parsed (and, for the static rung, materialized).
pub struct Prepared {
    pub runtime: Runtime,
    pub source: Box<dyn WorkflowSource>,
    pub config: HiwayConfig,
    pub db: ProvDb,
    /// Host seconds spent parsing (and materializing) the workflow text.
    pub parse_s: f64,
}

fn prepare(workload: Workload, size: Size, plan: &RunPlan, db: ProvDb) -> Result<Prepared, String> {
    let seed = plan.seed;
    match workload {
        Workload::SnvCuneiformFig4 => {
            let (nodes, samples) = fig4_shape(size);
            let snv = SnvParams::fig4(samples);
            let mut deployment = profiles::local_cluster(nodes, seed);
            let per_node = FIG4_CONTAINERS_PER_NODE;
            for node in 0..nodes {
                deployment.runtime.cluster.rm.set_capacity(
                    NodeId(node as u32),
                    Resource::new(per_node, per_node as u64 * 1024),
                );
            }
            for (path, size) in snv.input_files() {
                deployment.runtime.cluster.prestage(&path, size);
            }
            let t = Instant::now();
            let source = CuneiformWorkflow::parse("snv-fig4", &snv.cuneiform_source(), seed)
                .map_err(|e| e.to_string())?;
            let parse_s = t.elapsed().as_secs_f64();
            let config = HiwayConfig {
                container_resource: Resource::new(1, 1024),
                scheduler: plan.scheduler,
                seed,
                write_trace: false,
                ..HiwayConfig::default()
            };
            Ok(Prepared {
                runtime: deployment.runtime,
                source: Box::new(source),
                config,
                db,
                parse_s,
            })
        }
        Workload::SnvStatic128w => {
            let workers = static_workers(size);
            let snv = SnvParams::table2(workers);
            let node_type = NodeSpec::m3_large("proto");
            let mut deployment = profiles::ec2_cluster(workers, &node_type, seed);
            let s3 = deployment.s3.ok_or("ec2 cluster has no S3 endpoint")?;
            for (path, size) in snv.input_files() {
                deployment
                    .runtime
                    .cluster
                    .register_external_file(&path, s3, size);
            }
            let t = Instant::now();
            let source = materialize(
                CuneiformWorkflow::parse("snv-weak-scaling", &snv.cuneiform_source(), seed)
                    .map_err(|e| e.to_string())?,
            )?;
            let parse_s = t.elapsed().as_secs_f64();
            let mut config = profiles::whole_node_config(&node_type);
            config.scheduler = plan.scheduler;
            config.seed = seed;
            config.write_trace = false;
            Ok(Prepared {
                runtime: deployment.runtime,
                source: Box::new(source),
                config,
                db,
                parse_s,
            })
        }
        Workload::MontageHeftWarmup => {
            let montage = MontageParams::default();
            let mut deployment =
                profiles::ec2_cluster(MONTAGE_WORKERS, &NodeSpec::m3_large("proto"), seed);
            let workers = deployment.worker_ids();
            for (i, &level) in STRESS_LEVELS.iter().enumerate() {
                if let Some(&node) = workers.get(1 + i) {
                    deployment.runtime.cluster.add_cpu_stress(node, level);
                }
                if let Some(&node) = workers.get(1 + STRESS_LEVELS.len() + i) {
                    deployment.runtime.cluster.add_disk_stress(node, level);
                }
            }
            for (path, size) in montage.input_files() {
                deployment.runtime.cluster.prestage(&path, size);
            }
            let t = Instant::now();
            let source = parse_dax(&montage.dax_source()).map_err(|e| e.to_string())?;
            let parse_s = t.elapsed().as_secs_f64();
            let config = HiwayConfig {
                container_resource: Resource::new(1, 2048),
                scheduler: plan.scheduler,
                seed,
                write_trace: false,
                ..HiwayConfig::default()
            };
            Ok(Prepared {
                runtime: deployment.runtime,
                source: Box::new(source),
                config,
                db,
                parse_s,
            })
        }
    }
}

/// Unfolds a fully static Cuneiform program into a [`StaticWorkflow`],
/// the way the Tez baseline receives the SNV graph.
fn materialize(mut source: CuneiformWorkflow) -> Result<StaticWorkflow, String> {
    let tasks = source.initial_tasks().map_err(|e| e.to_string())?;
    if !source.is_complete() {
        return Err(format!("workflow '{}' is iterative", source.name()));
    }
    Ok(StaticWorkflow::new(
        source.name().to_string(),
        source.language(),
        tasks,
    ))
}

/// How one workflow run ended.
#[derive(Debug)]
pub struct Outcome {
    pub report: WorkflowReport,
    pub error: Option<String>,
    /// Virtual instant at which the driving loop stopped.
    pub end_secs: f64,
}

/// Executes a prepared run the way the experiment binaries do.
fn execute(p: Prepared) -> Outcome {
    let mut runtime = p.runtime;
    let wf = runtime.submit(p.source, p.config, p.db);
    let mut reports = runtime.run_to_completion();
    Outcome {
        error: runtime.error_of(wf).map(str::to_string),
        end_secs: runtime.cluster.engine.now().as_secs(),
        report: reports.swap_remove(wf),
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// CPU seconds building deployments, staging inputs, and parsing.
    pub setup_s: f64,
    /// Host seconds from submission to final report, summed over runs.
    pub wall_s: f64,
    /// CPU seconds of the same span as `wall_s`.
    pub cpu_s: f64,
    /// Virtual seconds, summed over the pass's workflow runs.
    pub makespan_s: f64,
    pub runs: usize,
    /// Runs that errored or completed the wrong number of tasks.
    pub failed_runs: usize,
    pub tasks: usize,
    pub errors: Vec<String>,
    pub outcomes: Vec<Outcome>,
    /// Per-layer attribution; traced passes only.
    pub layers: Option<LayerStats>,
}

/// What a pass does with each run after setting it up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Set up every run, then drop it unexecuted.
    SetupOnly,
    /// Execute through `run_to_completion`.
    Plain,
    /// Execute through the timed outside loop.
    Traced,
}

/// Runs one pass of `workload`.
pub fn run_pass(workload: Workload, size: Size, seed: u64, mode: Mode) -> PassResult {
    let mut out = PassResult::default();
    let mut layers = (mode == Mode::Traced).then(LayerStats::default);
    let shared = ProvDb::new();
    let mut stores = vec![shared.clone()];
    let expected = expected_tasks_per_run(workload, size);
    for plan in plans(workload, size, seed) {
        out.runs += 1;
        let db = if plan.shared_db {
            shared.clone()
        } else {
            let db = ProvDb::new();
            stores.push(db.clone());
            db
        };
        let cpu = process_cpu_s();
        let prepared = prepare(workload, size, &plan, db);
        out.setup_s += process_cpu_s() - cpu;
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => {
                out.failed_runs += 1;
                out.errors.push(format!("setup (seed {}): {e}", plan.seed));
                continue;
            }
        };
        if mode == Mode::SetupOnly {
            continue;
        }
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let outcome = match layers.as_mut() {
            Some(layers) => traced::execute(prepared, layers),
            None => execute(prepared),
        };
        out.wall_s += t.elapsed().as_secs_f64();
        out.cpu_s += process_cpu_s() - cpu;
        let done = outcome.report.tasks.len();
        out.tasks += done;
        out.makespan_s += outcome.report.runtime_secs();
        if let Some(e) = &outcome.error {
            out.failed_runs += 1;
            out.errors.push(format!("run (seed {}): {e}", plan.seed));
        } else if done != expected {
            out.failed_runs += 1;
            out.errors.push(format!(
                "run (seed {}): completed {done} tasks, expected {expected}",
                plan.seed
            ));
        }
        out.outcomes.push(outcome);
    }
    if let Some(layers) = layers.as_mut() {
        layers.provdb_docs = stores.iter().map(store_docs).sum();
        layers.runs = out.runs;
        layers.traced_wall_s = out.wall_s;
    }
    out.layers = layers;
    out
}

/// Documents held by a provenance store, over all its collections.
fn store_docs(db: &ProvDb) -> usize {
    db.collection_names()
        .iter()
        .map(|name| db.collection(name).len())
        .sum()
}

/// Expected tasks per workflow run at the stated size.
pub fn expected_tasks_per_run(workload: Workload, size: Size) -> usize {
    match workload {
        Workload::SnvCuneiformFig4 => SnvParams::fig4(fig4_shape(size).1).expected_tasks(),
        Workload::SnvStatic128w => SnvParams::table2(static_workers(size)).expected_tasks(),
        Workload::MontageHeftWarmup => MontageParams::default().expected_tasks(),
    }
}

/// CPU seconds this process has consumed so far, all threads included
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it excludes time the
/// kernel or the hypervisor gave to other work, which on a shared virtual
/// machine can stretch a pass's wall time twofold.
pub fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the duration
    // of the call (on Linux both of its fields are C `long`s), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "the process CPU-time clock is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
