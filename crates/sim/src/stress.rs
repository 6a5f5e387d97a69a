//! Synthetic background load, mirroring the Linux `stress` tool.
//!
//! The adaptive-scheduling experiment (Section 4.3 / Figure 9) perturbs a
//! homogeneous EC2 cluster into a heterogeneous one by running `stress`
//! with 1, 4, 16, 64, and 256 CPU-bound processes on five machines and the
//! same counts of disk-writer processes on five others. These helpers
//! create the equivalent never-completing activities; cancelling the
//! returned handles through [`Engine::cancel`] stops the load.

use crate::engine::{Activity, ActivityId, Engine};
use crate::spec::NodeId;

/// Starts `procs` CPU-bound single-threaded hog processes on `node`
/// (`stress -c procs`). Each competes for one core under processor sharing.
pub fn cpu_stress<T: Clone>(
    engine: &mut Engine<T>,
    node: NodeId,
    procs: u32,
    tag: T,
) -> Vec<ActivityId> {
    (0..procs)
        .map(|_| {
            engine.start(
                Activity::Compute { node, threads: 1.0 },
                f64::INFINITY,
                tag.clone(),
            )
        })
        .collect()
}

/// Starts `procs` disk-writer hog processes on `node` (`stress -d procs`),
/// each an endless stream sharing the node's disk write bandwidth.
pub fn disk_stress<T: Clone>(
    engine: &mut Engine<T>,
    node: NodeId,
    procs: u32,
    tag: T,
) -> Vec<ActivityId> {
    (0..procs)
        .map(|_| engine.start(Activity::DiskWrite { node }, f64::INFINITY, tag.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, NodeSpec};

    #[test]
    fn cpu_stress_dilates_task_runtime() {
        let spec = ClusterSpec::homogeneous(1, "n", &NodeSpec::m3_large("p"));
        let mut e: Engine<u32> = Engine::new(spec);
        let handles = cpu_stress(&mut e, NodeId(0), 2, 0);
        assert_eq!(handles.len(), 2);
        // 1-thread task vs 2 hogs on 2 cores: everyone at 2/3 core.
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            2.0,
            1,
        );
        e.step().unwrap();
        assert!((e.now().as_secs() - 3.0).abs() < 1e-6);

        // After stopping the stress the next task runs at full speed.
        for h in handles {
            e.cancel(h);
        }
        e.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 1.0,
            },
            2.0,
            2,
        );
        let t0 = e.now();
        e.step().unwrap();
        assert!((e.now().since(t0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn disk_stress_dilates_writes() {
        let spec = ClusterSpec::homogeneous(1, "n", &NodeSpec::m3_large("p"));
        let mut e: Engine<u32> = Engine::new(spec);
        disk_stress(&mut e, NodeId(0), 1, 0);
        // Write 90 MB at 180 MB/s shared between 2 streams -> 1 second.
        e.start(Activity::DiskWrite { node: NodeId(0) }, 90.0e6, 1);
        e.step().unwrap();
        assert!((e.now().as_secs() - 1.0).abs() < 1e-3);
    }
}
