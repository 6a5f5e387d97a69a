//! Property tests of the fair-sharing kernels: these invariants are what
//! make the simulated performance numbers trustworthy. The network fill is
//! also checked bit for bit against the naive progressive filling it
//! replaced (`hiway_sim::reference::max_min_rates`).

use proptest::prelude::*;

use hiway_sim::cpufair::fair_cores;
use hiway_sim::netfair::{Constraint, FlowPath, NetFairWorkspace, UNCONSTRAINED_BPS};
use hiway_sim::reference;

/// Capacity palette: repeated values make constraints saturate in the
/// same iteration, `0.0` models a dead link and `INFINITY` an absent
/// switch or an unlimited service.
fn capacity(pick: u8, x: f64) -> f64 {
    match pick % 8 {
        0 => 0.0,
        1 => f64::INFINITY,
        2 => 1.25e8,
        3 => 2.5e8,
        _ => x,
    }
}

/// One flow as raw draws: `(kind, a, b, disks, cap)`.
type FlowDraw = (u8, usize, usize, u8, Option<f64>);

/// Raw draws for an engine-shaped fill: `nodes` nodes with four
/// constraints each (disk read, disk write, NIC out, NIC in), a switch
/// aggregate and `externals` services, most of them unused by the flows.
fn engine_shaped() -> impl Strategy<Value = (usize, Vec<(u8, f64)>, Vec<FlowDraw>)> {
    (
        1usize..129,
        proptest::collection::vec((any::<u8>(), 1.0e6f64..2.0e9), 520..521),
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<usize>(),
                any::<usize>(),
                any::<u8>(),
                proptest::option::of(1.0e5f64..5.0e8),
            ),
            1..200,
        ),
    )
}

/// Builds the constraint vector and flow paths from [`engine_shaped`]
/// draws, with the engine's layout: per node `[disk_read, disk_write,
/// nic_out, nic_in]`, then the switch, then up to four externals.
fn build(nodes: usize, caps: &[(u8, f64)], draws: &[FlowDraw]) -> (Vec<Constraint>, Vec<FlowPath>) {
    let externals = caps[0].0 as usize % 5;
    let n_cons = nodes * 4 + 1 + externals;
    let constraints: Vec<Constraint> = (0..n_cons)
        .map(|i| Constraint {
            capacity: capacity(caps[i].0, caps[i].1),
        })
        .collect();
    let switch = nodes * 4;
    let ext = |k: usize| switch + 1 + k % externals.max(1);
    let flows = draws
        .iter()
        .map(|&(kind, a, b, disks, cap)| {
            let (src, dst) = (a % nodes, b % nodes);
            let mut cs = Vec::new();
            let mut rate_cap = None;
            match kind % 6 {
                0 => cs.push(src * 4),
                1 => cs.push(src * 4 + 1),
                2 | 3 => {
                    cs.push(src * 4 + 2);
                    if disks & 1 != 0 {
                        cs.push(src * 4);
                    }
                    cs.push(dst * 4 + 3);
                    if disks & 2 != 0 {
                        cs.push(dst * 4 + 1);
                    }
                    cs.push(switch);
                }
                _ if externals == 0 => cs.push(switch),
                4 => {
                    // Node ↔ external service, with its per-flow cap.
                    cs.push(ext(a));
                    cs.push(dst * 4 + 3);
                    rate_cap = cap;
                    if disks & 4 != 0 {
                        cs.push(switch);
                    }
                }
                _ => {
                    // External to external: one service may be listed twice.
                    cs.push(ext(a));
                    cs.push(ext(if disks & 8 != 0 { a } else { b }));
                    rate_cap = cap;
                }
            }
            FlowPath {
                constraints: cs,
                rate_cap,
            }
        })
        .collect();
    (constraints, flows)
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

proptest! {
    /// CPU water-filling: caps respected, capacity never exceeded, full
    /// utilization under contention, and the max-min property (nobody
    /// below their cap receives less than anyone else).
    #[test]
    fn cpu_fair_share_invariants(
        caps in proptest::collection::vec(0.0f64..16.0, 1..12),
        cores in 0.5f64..64.0,
    ) {
        let alloc = fair_cores(&caps, cores);
        prop_assert_eq!(alloc.len(), caps.len());
        let total: f64 = alloc.iter().sum();
        let demand: f64 = caps.iter().sum();
        for (a, c) in alloc.iter().zip(caps.iter()) {
            prop_assert!(*a <= c + 1e-9, "allocation exceeds cap");
            prop_assert!(*a >= -1e-12);
        }
        prop_assert!(total <= cores + 1e-6, "capacity exceeded");
        if demand >= cores {
            prop_assert!((total - cores).abs() < 1e-6, "under-utilized under contention");
        } else {
            prop_assert!((total - demand).abs() < 1e-6, "work not conserved");
        }
        // Max-min: unsatisfied demands all sit at the same water level.
        let level = alloc
            .iter()
            .zip(caps.iter())
            .filter(|(a, c)| **a < **c - 1e-9)
            .map(|(a, _)| *a)
            .fold(f64::NEG_INFINITY, f64::max);
        if level.is_finite() {
            for (a, c) in alloc.iter().zip(caps.iter()) {
                if *a < c - 1e-9 {
                    prop_assert!((a - level).abs() < 1e-6, "unequal water levels");
                }
            }
        }
    }

    /// Network max-min fairness on engine-shaped inputs: per-constraint
    /// sums within capacity, per-flow caps respected, and Pareto
    /// efficiency (every flow is limited by *something* — a cap, a
    /// saturated constraint, or nothing finite at all). A flow that lists
    /// a constraint twice uses it twice.
    #[test]
    fn network_rate_invariants((nodes, caps, draws) in engine_shaped()) {
        let (constraints, flows) = build(nodes, &caps, &draws);
        let rates = NetFairWorkspace::default().compute(&constraints, &flows).to_vec();
        prop_assert_eq!(rates.len(), flows.len());

        let used = |ci: usize| -> f64 {
            flows
                .iter()
                .zip(rates.iter())
                .map(|(f, r)| f.constraints.iter().filter(|&&c| c == ci).count() as f64 * r)
                .sum()
        };
        // Capacity per constraint.
        for (ci, c) in constraints.iter().enumerate() {
            prop_assert!(
                used(ci) <= c.capacity * (1.0 + 1e-6) + 1.0,
                "constraint {ci} over capacity"
            );
        }
        // Caps and positivity.
        for (f, r) in flows.iter().zip(rates.iter()) {
            prop_assert!(*r >= 0.0);
            if let Some(cap) = f.rate_cap {
                prop_assert!(*r <= cap * (1.0 + 1e-6) + 1.0, "flow over its cap");
            }
        }
        // Pareto: every flow is at its cap, crosses a saturated
        // constraint, or crosses only infinite ones.
        for (f, r) in flows.iter().zip(rates.iter()) {
            let at_cap = f.rate_cap.map(|c| *r >= c * (1.0 - 1e-6)).unwrap_or(false);
            let on_saturated = f.constraints.iter().any(|&ci| {
                let cap = constraints[ci].capacity;
                cap.is_finite() && used(ci) >= cap * (1.0 - 1e-6)
            });
            let unconstrained = f.rate_cap.is_none()
                && f.constraints.iter().all(|&ci| constraints[ci].capacity.is_infinite());
            if unconstrained {
                prop_assert_eq!(*r, UNCONSTRAINED_BPS);
            }
            prop_assert!(at_cap || on_saturated || unconstrained, "flow not limited by anything");
        }
    }

    /// The live-constraint fill is bit-identical to the naive fill over
    /// every constraint, including when one workspace serves successive
    /// fills of different shapes (its reset covers only what the previous
    /// call touched).
    #[test]
    fn workspace_fill_matches_naive_fill_bit_for_bit(
        fills in proptest::collection::vec(engine_shaped(), 1..4),
    ) {
        let mut ws = NetFairWorkspace::default();
        for (nodes, caps, draws) in &fills {
            let (constraints, flows) = build(*nodes, caps, draws);
            let naive = bits(&reference::max_min_rates(&constraints, &flows));
            prop_assert_eq!(bits(ws.compute(&constraints, &flows)), naive);
        }
    }
}

/// Engine-level property: a batch of compute activities with random
/// volumes on one node always completes, in total-work time.
#[test]
fn engine_conserves_cpu_work() {
    use hiway_sim::{Activity, ClusterSpec, Engine, NodeId, NodeSpec};
    use proptest::test_runner::{Config, TestRunner};

    let mut runner = TestRunner::new(Config::with_cases(64));
    runner
        .run(
            &proptest::collection::vec((0.1f64..50.0, 1u32..4), 1..10),
            |jobs| {
                let spec = ClusterSpec::homogeneous(1, "n", &NodeSpec::m3_large("p"));
                let mut engine: Engine<u32> = Engine::new(spec);
                let total_work: f64 = jobs.iter().map(|(w, _)| *w).sum();
                for (i, (work, threads)) in jobs.iter().enumerate() {
                    engine.start(
                        Activity::Compute {
                            node: NodeId(0),
                            threads: *threads as f64,
                        },
                        *work,
                        i as u32,
                    );
                }
                let mut completions = 0;
                while let Some(evts) = engine.step() {
                    completions += evts.len();
                }
                prop_assert_eq!(completions, jobs.len());
                // 2 cores: elapsed ≥ total/2 (can't beat capacity) and
                // ≤ total (can't be slower than serial on one core).
                let elapsed = engine.now().as_secs();
                prop_assert!(elapsed >= total_work / 2.0 - 1e-6);
                prop_assert!(elapsed <= total_work + 1e-6);
                Ok(())
            },
        )
        .unwrap();
}
