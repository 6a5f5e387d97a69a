//! Shrunk instances of every workload on a seed other than the
//! experiments' own, and the traced loop's fidelity to
//! `Runtime::run_to_completion`.

use hiway_perfbench::{expected_tasks_per_run, run_pass, Mode, Size, Workload};

/// A seed none of the experiments uses.
fn second_seed(w: Workload) -> u64 {
    w.default_seed() + 1
}

#[test]
fn gate_task_counts_are_the_stated_sizes() {
    let counts: Vec<usize> = Workload::ALL
        .iter()
        .map(|&w| expected_tasks_per_run(w, Size::Full))
        .collect();
    assert_eq!(counts, [1296, 2304, 38]);
}

#[test]
fn shrunk_workloads_complete_on_a_second_seed() {
    for w in Workload::ALL {
        let pass = run_pass(w, Size::Shrunk, second_seed(w), Mode::Plain);
        assert_eq!(pass.failed_runs, 0, "{}: {:?}", w.name(), pass.errors);
        assert_eq!(
            pass.tasks,
            pass.runs * expected_tasks_per_run(w, Size::Shrunk)
        );
        assert!(pass.makespan_s > 0.0 && pass.setup_s > 0.0);
        assert!(pass.wall_s > 0.0 && pass.cpu_s > 0.0);
    }
}

#[test]
fn same_seed_gives_the_same_makespan_and_another_seed_does_not() {
    for w in Workload::ALL {
        let seed = second_seed(w);
        let a = run_pass(w, Size::Shrunk, seed, Mode::Plain).makespan_s;
        let b = run_pass(w, Size::Shrunk, seed, Mode::Plain).makespan_s;
        let c = run_pass(w, Size::Shrunk, seed + 1, Mode::Plain).makespan_s;
        assert_eq!(a.to_bits(), b.to_bits(), "{}", w.name());
        assert_ne!(a.to_bits(), c.to_bits(), "{}", w.name());
    }
}

#[test]
fn setup_only_pass_executes_nothing() {
    let w = Workload::MontageHeftWarmup;
    let pass = run_pass(w, Size::Shrunk, second_seed(w), Mode::SetupOnly);
    assert_eq!(pass.failed_runs, 0);
    assert!(pass.setup_s > 0.0);
    assert_eq!((pass.tasks, pass.wall_s, pass.cpu_s), (0, 0.0, 0.0));
    assert!(pass.outcomes.is_empty());
}

/// The outside `step` + `dispatch_public` loop must stop at the same
/// virtual instant as `run_to_completion`, with identical reports.
#[test]
fn traced_loop_matches_run_to_completion() {
    for w in Workload::ALL {
        let seed = second_seed(w);
        let plain = run_pass(w, Size::Shrunk, seed, Mode::Plain);
        let traced = run_pass(w, Size::Shrunk, seed, Mode::Traced);
        assert_eq!(plain.outcomes.len(), traced.outcomes.len());
        for (p, t) in plain.outcomes.iter().zip(&traced.outcomes) {
            assert_eq!(p.end_secs.to_bits(), t.end_secs.to_bits(), "{}", w.name());
            assert_eq!(p.error, t.error);
            assert_eq!(format!("{:?}", p.report), format!("{:?}", t.report));
        }
        assert_eq!(plain.makespan_s.to_bits(), traced.makespan_s.to_bits());
    }
}

#[test]
fn traced_pass_accounts_for_every_task() {
    for w in Workload::ALL {
        let pass = run_pass(w, Size::Shrunk, second_seed(w), Mode::Traced);
        let layers = pass.layers.expect("traced pass has layer stats");
        assert_eq!(layers.runs, pass.runs);
        assert_eq!(layers.lang.tasks_discovered, pass.tasks, "{}", w.name());
        assert_eq!(layers.lang.on_completed_s.len(), pass.tasks, "{}", w.name());
        assert_eq!(layers.task_waits_virtual_s.len(), pass.tasks);
        assert!(layers.steps > 0 && layers.events >= layers.steps);
        assert!(layers.plan_s > 0.0 && layers.provdb_docs > 0);
        // One worker container per task plus one AM container per run.
        assert_eq!(
            layers.counter("rm.containers_allocated") as usize,
            pass.tasks + pass.runs,
            "{}",
            w.name()
        );
        assert!(layers.attributed_s() <= layers.traced_wall_s);
    }
}
