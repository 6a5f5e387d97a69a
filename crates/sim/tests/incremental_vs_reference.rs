//! Lockstep equivalence: the incremental engine (dirty-node CPU refresh,
//! cached flow paths, slab storage, a timer heap) must be
//! observationally identical — same completion sequences, same virtual
//! timestamps bit for bit — to the naive recompute-everything reference
//! engine it replaced. Random workloads mix compute, disk streams, flows,
//! external transfers, timers, cancellations, infinite background loads,
//! and partial time advances. An enabled tracer on the incremental engine
//! must only record the run, never change it.

use proptest::prelude::*;

use hiway_obs::Tracer;
use hiway_sim::reference::ReferenceEngine;
use hiway_sim::{
    Activity, ActivityId, ClusterSpec, Completion, Endpoint, Engine, ExternalSpec, NodeId,
    NodeSpec, TimerId,
};

#[derive(Clone, Debug)]
enum Op {
    Compute {
        node: u8,
        threads: f64,
        volume: f64,
    },
    DiskRead {
        node: u8,
        volume: f64,
    },
    DiskWrite {
        node: u8,
        volume: f64,
    },
    Flow {
        src: u8,
        dst: u8,
        src_disk: bool,
        dst_disk: bool,
        volume: f64,
    },
    External {
        node: u8,
        upload: bool,
        volume: f64,
    },
    Background {
        node: u8,
        threads: f64,
    },
    Timer {
        delay: f64,
    },
    CancelAct {
        pick: u16,
    },
    CancelTimer {
        pick: u16,
    },
    Step,
    Advance {
        dt: f64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, 0.5f64..4.0, 0.05f64..30.0).prop_map(|(node, threads, volume)| Op::Compute {
            node,
            threads,
            volume
        }),
        (0u8..8, 1.0e6f64..5.0e8).prop_map(|(node, volume)| Op::DiskRead { node, volume }),
        (0u8..8, 1.0e6f64..5.0e8).prop_map(|(node, volume)| Op::DiskWrite { node, volume }),
        (
            0u8..8,
            0u8..8,
            any::<bool>(),
            any::<bool>(),
            1.0e6f64..5.0e8
        )
            .prop_map(|(src, dst, src_disk, dst_disk, volume)| Op::Flow {
                src,
                dst,
                src_disk,
                dst_disk,
                volume
            }),
        (0u8..8, any::<bool>(), 1.0e6f64..2.0e8).prop_map(|(node, upload, volume)| Op::External {
            node,
            upload,
            volume
        }),
        (0u8..8, 0.5f64..2.0).prop_map(|(node, threads)| Op::Background { node, threads }),
        (0.0f64..20.0).prop_map(|delay| Op::Timer { delay }),
        (0u16..1000).prop_map(|pick| Op::CancelAct { pick }),
        (0u16..1000).prop_map(|pick| Op::CancelTimer { pick }),
        Just(Op::Step),
        (0.01f64..5.0).prop_map(|dt| Op::Advance { dt }),
    ]
}

/// Both engines report the same instant, bit for bit.
macro_rules! assert_same_time {
    ($a:expr, $b:expr, $ctx:expr) => {{
        let a = $a.map(|t| t.as_secs().to_bits());
        let b = $b.map(|t| t.as_secs().to_bits());
        prop_assert_eq!(a, b, "virtual time diverged at {}", $ctx);
    }};
}

fn completion_key(c: &Completion<u32>) -> (u8, u64, u32) {
    match c {
        Completion::Activity { id, tag } => (0, id.0, *tag),
        Completion::Timer { id, tag } => (1, id.0, *tag),
    }
}

fn lockstep(
    nodes: usize,
    switch_gbps: Option<f64>,
    traced: bool,
    ops: &[Op],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut spec = ClusterSpec::homogeneous(nodes, "n", &NodeSpec::m3_large("p"));
    spec.switch_bps = switch_gbps.map(|g| g * 1.0e9);
    let s3 = spec.add_external(ExternalSpec::s3());
    let mut inc: Engine<u32> = Engine::new(spec.clone());
    let mut refe: ReferenceEngine<u32> = ReferenceEngine::new(spec);
    let tracer = Tracer::enabled();
    if traced {
        inc.set_tracer(&tracer);
    }
    // Steps that fired something; an attached tracer must count exactly these.
    let mut steps = 0u64;

    let node = |sel: u8| NodeId(sel as u32 % nodes as u32);
    let mut act_ids: Vec<ActivityId> = Vec::new();
    let mut timer_ids: Vec<TimerId> = Vec::new();
    let mut tag = 0u32;
    let start = |inc: &mut Engine<u32>,
                 refe: &mut ReferenceEngine<u32>,
                 ids: &mut Vec<ActivityId>,
                 kind: Activity,
                 volume: f64,
                 tag: &mut u32| {
        let a = inc.start(kind.clone(), volume, *tag);
        let b = refe.start(kind, volume, *tag);
        assert_eq!(a, b, "activity ids diverged");
        *tag += 1;
        ids.push(a);
    };

    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Compute {
                node: n,
                threads,
                volume,
            } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::Compute {
                    node: node(*n),
                    threads: *threads,
                },
                *volume,
                &mut tag,
            ),
            Op::DiskRead { node: n, volume } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::DiskRead { node: node(*n) },
                *volume,
                &mut tag,
            ),
            Op::DiskWrite { node: n, volume } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::DiskWrite { node: node(*n) },
                *volume,
                &mut tag,
            ),
            Op::Flow {
                src,
                dst,
                src_disk,
                dst_disk,
                volume,
            } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::Flow {
                    src: Endpoint::Node(node(*src)),
                    dst: Endpoint::Node(node(*dst)),
                    src_disk: *src_disk,
                    dst_disk: *dst_disk,
                },
                *volume,
                &mut tag,
            ),
            Op::External {
                node: n,
                upload,
                volume,
            } => {
                let (src, dst) = if *upload {
                    (Endpoint::Node(node(*n)), Endpoint::External(s3))
                } else {
                    (Endpoint::External(s3), Endpoint::Node(node(*n)))
                };
                start(
                    &mut inc,
                    &mut refe,
                    &mut act_ids,
                    Activity::Flow {
                        src,
                        dst,
                        src_disk: !*upload,
                        dst_disk: *upload,
                    },
                    *volume,
                    &mut tag,
                )
            }
            Op::Background { node: n, threads } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::Compute {
                    node: node(*n),
                    threads: *threads,
                },
                f64::INFINITY,
                &mut tag,
            ),
            Op::Timer { delay } => {
                let a = inc.set_timer_after(*delay, tag);
                let b = refe.set_timer_after(*delay, tag);
                prop_assert_eq!(a, b, "timer ids diverged");
                tag += 1;
                timer_ids.push(a);
            }
            Op::CancelAct { pick } => {
                if !act_ids.is_empty() {
                    let id = act_ids[*pick as usize % act_ids.len()];
                    prop_assert_eq!(inc.cancel(id), refe.cancel(id), "cancel tag diverged");
                }
            }
            Op::CancelTimer { pick } => {
                if !timer_ids.is_empty() {
                    let id = timer_ids[*pick as usize % timer_ids.len()];
                    inc.cancel_timer(id);
                    refe.cancel_timer(id);
                }
            }
            Op::Step => {
                let a = inc.step();
                let b = refe.step();
                match (a, b) {
                    (None, None) => {}
                    (Some(fa), Some(fb)) => {
                        steps += 1;
                        let ka: Vec<_> = fa.iter().map(completion_key).collect();
                        let kb: Vec<_> = fb.iter().map(completion_key).collect();
                        prop_assert_eq!(ka, kb, "completion sequence diverged at op {}", i);
                    }
                    (a, b) => {
                        return Err(proptest::test_runner::TestCaseError::fail(format!(
                            "step presence diverged at op {i}: inc={} ref={}",
                            a.is_some(),
                            b.is_some()
                        )));
                    }
                }
            }
            Op::Advance { dt } => {
                // Real callers (metrics sampling) never advance past the
                // next event; bound the target the same way they do.
                let mut t = inc.now() + *dt;
                if let Some(bound) = inc.peek_next_time() {
                    t = t.min(bound);
                }
                inc.advance_to(t);
                refe.advance_to(t);
            }
        }
        assert_same_time!(Some(inc.now()), Some(refe.now()), format!("op {i}"));
        assert_same_time!(
            inc.peek_next_time(),
            refe.peek_next_time(),
            format!("peek after op {i}")
        );
        prop_assert_eq!(inc.active_count(), refe.active_count());
        prop_assert_eq!(inc.debug_timer_count(), refe.debug_timer_count());
    }

    // Drain to quiescence (only background loads may remain).
    for round in 0..10_000 {
        let a = inc.step();
        let b = refe.step();
        match (a, b) {
            (None, None) => {
                // Accumulated usage must agree too (same rates, same dts).
                for n in 0..nodes {
                    let ua = inc.take_usage(NodeId(n as u32));
                    let ub = refe.take_usage(NodeId(n as u32));
                    prop_assert_eq!(ua.core_seconds.to_bits(), ub.core_seconds.to_bits());
                    prop_assert_eq!(ua.elapsed.to_bits(), ub.elapsed.to_bits());
                }
                if traced {
                    prop_assert_eq!(tracer.counter_value("engine.steps"), steps);
                }
                return Ok(());
            }
            (Some(fa), Some(fb)) => {
                steps += 1;
                let ka: Vec<_> = fa.iter().map(completion_key).collect();
                let kb: Vec<_> = fb.iter().map(completion_key).collect();
                prop_assert_eq!(
                    ka,
                    kb,
                    "drain completion sequence diverged at round {}",
                    round
                );
                assert_same_time!(Some(inc.now()), Some(refe.now()), format!("drain {round}"));
            }
            _ => {
                return Err(proptest::test_runner::TestCaseError::fail(
                    "drain presence diverged".to_string(),
                ));
            }
        }
    }
    Err(proptest::test_runner::TestCaseError::fail(
        "engines failed to quiesce in 10k steps".to_string(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn incremental_engine_matches_reference(
        nodes in 1usize..6,
        switch in proptest::option::of(0.5f64..4.0),
        traced in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        lockstep(nodes, switch, traced, &ops)?;
    }
}
