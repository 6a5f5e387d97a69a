//! Workspace-level integration tests: whole-stack scenarios spanning the
//! languages, the AM, the substrate, the baselines, and the recipes.

use std::collections::HashMap;

use hiway::core::cluster::Cluster;
use hiway::core::driver::Runtime;
use hiway::core::{HiwayConfig, SchedulerPolicy};
use hiway::lang::cuneiform::CuneiformWorkflow;
use hiway::lang::ir::WorkflowSource;
use hiway::provdb::ProvDb;
use hiway::recipes::cook_str;
use hiway::sim::{ClusterSpec, NodeId, NodeSpec};

#[test]
fn all_four_languages_execute_on_one_cluster_sequentially() {
    // Cuneiform.
    let cuneiform = CuneiformWorkflow::parse(
        "cf",
        r#"deftask t( out("/cf/out.dat", 1000) : x ) cpu 5;
           target t(file("/shared/in.dat", 1000));"#,
        1,
    )
    .unwrap();
    // DAX.
    let dax = hiway::lang::dax::parse_dax(
        r#"<adag name="dx">
             <job id="a" name="toolA" runtime="5">
               <uses file="/shared/in.dat" link="input" size="1000"/>
               <uses file="/dax/out.dat" link="output" size="1000"/>
             </job>
           </adag>"#,
    )
    .unwrap();
    // Galaxy.
    let mut bindings = HashMap::new();
    bindings.insert(
        "reads".to_string(),
        hiway::lang::galaxy::BoundInput {
            path: "/shared/in.dat".into(),
            size: 1000,
        },
    );
    let galaxy = hiway::lang::galaxy::parse_galaxy(
        r#"{"name": "gx", "steps": {
             "0": {"id": 0, "type": "data_input", "label": "reads",
                   "inputs": [{"name": "reads"}], "input_connections": {}, "outputs": []},
             "1": {"id": 1, "type": "tool", "tool_id": "toolB",
                   "input_connections": {"in": {"id": 0, "output_name": "output"}},
                   "outputs": [{"name": "o", "type": "dat"}]}}}"#,
        &bindings,
        &hiway::lang::galaxy::ToolProfiles::default(),
    )
    .unwrap();

    let spec = ClusterSpec::homogeneous(2, "n", &NodeSpec::m3_large("p"));
    let mut cluster = Cluster::new(spec, 9);
    cluster.prestage("/shared/in.dat", 1000);
    let mut rt = Runtime::new(cluster);
    let db = ProvDb::new();
    let a = rt.submit(Box::new(cuneiform), HiwayConfig::default(), db.clone());
    let b = rt.submit(Box::new(dax), HiwayConfig::default(), db.clone());
    let c = rt.submit(Box::new(galaxy), HiwayConfig::default(), db.clone());
    let reports = rt.run_to_completion();
    for (i, lang) in [(a, "cuneiform"), (b, "dax"), (c, "galaxy")] {
        assert!(rt.error_of(i).is_none(), "{lang}: {:?}", rt.error_of(i));
        assert_eq!(reports[i].language, lang);
    }

    // Fourth language: replay the Cuneiform run's trace.
    let trace = reports[a].trace.clone();
    let replay = hiway::lang::trace::parse_trace(&trace).unwrap();
    assert_eq!(replay.language(), "trace");
    let spec2 = ClusterSpec::homogeneous(2, "n", &NodeSpec::m3_large("p"));
    let mut cluster2 = Cluster::new(spec2, 10);
    cluster2.prestage("/shared/in.dat", 1000);
    let mut rt2 = Runtime::new(cluster2);
    let d = rt2.submit(Box::new(replay), HiwayConfig::default(), ProvDb::new());
    let reports2 = rt2.run_to_completion();
    assert!(rt2.error_of(d).is_none());
    assert_eq!(reports2[d].tasks.len(), 1);
}

#[test]
fn provenance_statistics_survive_between_workflows_and_feed_heft() {
    // Run a Montage workflow twice on a heterogeneous cluster with a
    // shared provenance DB and verify the second (HEFT) run uses the
    // statistics: its runtime must beat the cold HEFT run.
    let montage = hiway::workloads::montage::MontageParams::default();
    let db = ProvDb::new();
    let mut runtimes = Vec::new();
    for k in 0..3 {
        let mut deployment =
            hiway::workloads::profiles::ec2_cluster(11, &NodeSpec::m3_large("proto"), 50 + k);
        let workers = deployment.worker_ids();
        for (i, level) in [2u32, 4, 8, 16].iter().enumerate() {
            deployment
                .runtime
                .cluster
                .add_cpu_stress(workers[1 + i], *level);
        }
        for (path, size) in montage.input_files() {
            deployment.runtime.cluster.prestage(&path, size);
        }
        let source = hiway::lang::dax::parse_dax(&montage.dax_source()).unwrap();
        let config = HiwayConfig {
            container_resource: hiway::yarn::Resource::new(1, 2048),
            scheduler: SchedulerPolicy::Heft,
            seed: 50 + k,
            write_trace: false,
            ..HiwayConfig::default()
        };
        let mut rt = deployment.runtime;
        let wf = rt.submit(Box::new(source), config, db.clone());
        let reports = rt.run_to_completion();
        assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
        runtimes.push(reports[wf].runtime_secs());
    }
    assert!(
        runtimes[2] < runtimes[0],
        "warm HEFT {:?} must beat cold HEFT",
        runtimes
    );
}

#[test]
fn recipe_to_report_round_trip() {
    let cooked = cook_str(
        "cluster ec2 workers=3 node=m3.large seed=21\n\
         scheduler data-aware\n\
         container vcores=1 memory=1024\n\
         workflow montage images=7\n",
    )
    .expect("cooks");
    let mut rt = cooked.runtime;
    let wf = rt.submit(cooked.source, cooked.config, ProvDb::new());
    let reports = rt.run_to_completion();
    assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
    assert!(rt.cluster.hdfs.exists("out/mosaic.jpg"));
    // Every task ran on a worker, never on the reserved master nodes.
    for t in &reports[wf].tasks {
        assert!(t.node.starts_with("worker-"), "{}", t.node);
    }
}

#[test]
fn data_aware_beats_fcfs_on_a_congested_switch() {
    // The Figure 4 mechanism in miniature: many data-heavy independent
    // tasks on a cluster whose switch is the bottleneck.
    let run = |policy: SchedulerPolicy| -> f64 {
        let mut deployment = hiway::workloads::profiles::local_cluster(6, 77);
        // Scale CPU down so the shared switch, not compute, is the
        // bottleneck — the regime Figure 4's right-hand side probes.
        let snv = hiway::workloads::snv::SnvParams::fig4(6).scaled(0.05);
        for (path, size) in snv.input_files() {
            deployment.runtime.cluster.prestage(&path, size);
        }
        let source = CuneiformWorkflow::parse("snv", &snv.cuneiform_source(), 77).unwrap();
        let config = HiwayConfig {
            container_resource: hiway::yarn::Resource::new(1, 1000),
            scheduler: policy,
            seed: 77,
            write_trace: false,
            ..HiwayConfig::default()
        };
        // Plenty of one-core containers per node.
        for node in 0..6 {
            deployment
                .runtime
                .cluster
                .rm
                .set_capacity(NodeId(node), hiway::yarn::Resource::new(8, 8000));
        }
        let mut rt = deployment.runtime;
        let wf = rt.submit(Box::new(source), config, ProvDb::new());
        let reports = rt.run_to_completion();
        assert!(rt.error_of(wf).is_none(), "{:?}", rt.error_of(wf));
        reports[wf].runtime_secs()
    };
    let data_aware = run(SchedulerPolicy::DataAware);
    let fcfs = run(SchedulerPolicy::Fcfs);
    assert!(
        data_aware < fcfs,
        "data-aware {data_aware:.0}s vs fcfs {fcfs:.0}s"
    );
}

#[test]
fn node_failure_mid_run_is_survived_with_re_replication() {
    // Start a long workflow, then fail a worker at a known instant via a
    // two-phase run: we drive the runtime manually by injecting failure
    // before submission-time placement has finished spreading replicas.
    let spec = ClusterSpec::homogeneous(5, "w", &NodeSpec::m3_large("p"));
    let mut cluster = Cluster::new(spec, 31);
    cluster.prestage("/in", 256 << 20);
    let tasks: Vec<hiway::lang::TaskSpec> = (0..6)
        .map(|i| hiway::lang::TaskSpec {
            id: hiway::lang::TaskId(i),
            name: "crunch".into(),
            command: "crunch".into(),
            inputs: vec!["/in".into()],
            outputs: vec![hiway::lang::OutputSpec {
                path: format!("/o{i}"),
                size: 1 << 20,
            }],
            cost: hiway::lang::TaskCost::new(120.0, 1, 512),
        })
        .collect();
    let wf = hiway::lang::StaticWorkflow::new("resilient", "test", tasks);
    let mut rt = Runtime::new(cluster);
    let idx = rt.submit(
        Box::new(wf),
        HiwayConfig::default().with_scheduler(SchedulerPolicy::Fcfs),
        ProvDb::new(),
    );
    rt.fail_node(NodeId(3));
    rt.cluster.re_replicate();
    let reports = rt.run_to_completion();
    assert!(rt.error_of(idx).is_none(), "{:?}", rt.error_of(idx));
    assert_eq!(reports[idx].tasks.len(), 6);
    for t in &reports[idx].tasks {
        assert_ne!(t.node, "w-3");
    }
}
