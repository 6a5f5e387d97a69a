//! The black-box intermediate representation shared by all front-ends.
//!
//! A scientific workflow, in Hi-WAY's model, is a set of *tasks* — opaque
//! command invocations — connected only through the files they consume and
//! produce. The engine never inspects file contents or command semantics;
//! it only needs (a) the data dependencies, to order execution, and (b) a
//! resource footprint per task, which in the original system is realized by
//! actually running the tool and here parameterizes the simulated
//! execution.

use std::fmt;

/// Identifier of a task within one workflow execution. Front-ends assign
/// them densely from zero in discovery order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u64);

/// A file a task will produce, with the size the simulated tool will emit.
/// (The real Hi-WAY learns sizes when the tool exits; the simulator must
/// know them up front to pace the stage-out transfers.)
#[derive(Clone, Debug, PartialEq)]
pub struct OutputSpec {
    pub path: String,
    pub size: u64,
}

/// The resource footprint of one black-box task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskCost {
    /// Total CPU work in reference CPU-seconds.
    pub cpu_seconds: f64,
    /// Maximum threads the tool can exploit (Bowtie 2 and TopHat 2 are
    /// heavily multi-threaded; ANNOVAR is single-threaded).
    pub threads: u32,
    /// Peak resident memory in MB — drives container sizing decisions in
    /// memory-constrained experiments (§4.2 runs one task per node).
    pub memory_mb: u64,
    /// Temporary working-directory bytes the tool writes and reads back
    /// during execution (TopHat 2's intermediate files are the canonical
    /// example). On Hi-WAY this traffic hits the node's local disk; on a
    /// system whose working directory lives on a shared network volume
    /// (Galaxy CloudMan's EBS) it crosses the network — the mechanism the
    /// paper credits for Figure 8's performance gap.
    pub scratch_bytes: u64,
}

impl TaskCost {
    pub fn new(cpu_seconds: f64, threads: u32, memory_mb: u64) -> TaskCost {
        TaskCost {
            cpu_seconds,
            threads,
            memory_mb,
            scratch_bytes: 0,
        }
    }

    /// Adds working-directory I/O to the footprint.
    pub fn with_scratch(mut self, scratch_bytes: u64) -> TaskCost {
        self.scratch_bytes = scratch_bytes;
        self
    }
}

impl Default for TaskCost {
    fn default() -> TaskCost {
        TaskCost {
            cpu_seconds: 1.0,
            threads: 1,
            memory_mb: 512,
            scratch_bytes: 0,
        }
    }
}

/// One ready-to-schedule black-box task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpec {
    pub id: TaskId,
    /// Tool signature ("invoking the same tools", §3.4) — the key under
    /// which the Provenance Manager aggregates runtime statistics.
    pub name: String,
    /// The opaque command line, recorded in provenance traces.
    pub command: String,
    /// HDFS paths this task reads. Must exist before the task can launch.
    pub inputs: Vec<String>,
    /// Files this task will write to HDFS.
    pub outputs: Vec<OutputSpec>,
    pub cost: TaskCost,
}

/// Error type shared by all front-ends.
#[derive(Clone, Debug)]
pub struct LangError {
    pub language: &'static str,
    pub message: String,
}

impl LangError {
    pub fn new(language: &'static str, message: impl Into<String>) -> LangError {
        LangError {
            language,
            message: message.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} workflow error: {}", self.language, self.message)
    }
}

impl std::error::Error for LangError {}

/// The interface between a workflow language and the Workflow Driver
/// (paper Figure 3). Parsing yields the initially inferable tasks; each
/// task completion may reveal further tasks (iterative languages) or
/// nothing new (static ones).
pub trait WorkflowSource {
    /// Workflow name, for provenance.
    fn name(&self) -> &str;

    /// The language this workflow was written in, for provenance.
    fn language(&self) -> &'static str;

    /// Tasks inferable by parsing alone. Called exactly once, first.
    fn initial_tasks(&mut self) -> Result<Vec<TaskSpec>, LangError>;

    /// Reports a completed task; returns any newly discovered tasks.
    /// Static languages return an empty vector.
    fn on_task_completed(&mut self, task: TaskId) -> Result<Vec<TaskSpec>, LangError>;

    /// Whether the full invocation graph is known after parsing. Static
    /// schedulers (round-robin, HEFT) require this (§3.4: they "can not be
    /// used in conjunction with workflow languages that allow iterative
    /// workflows").
    fn is_static(&self) -> bool;

    /// Workflow input files that must be present in HDFS before execution.
    fn required_inputs(&self) -> Vec<String>;

    /// True once the workflow has *revealed* all of its tasks — for static
    /// languages right after parsing, for iterative front-ends once the
    /// result expression is fully evaluated. It does **not** imply the
    /// tasks have finished executing; the Workflow Driver combines this
    /// with its own all-tasks-done check to detect workflow termination.
    fn is_complete(&self) -> bool;
}

/// A fully materialized (static) workflow: the common backbone of the DAX,
/// Galaxy, and trace front-ends.
#[derive(Clone, Debug, Default)]
pub struct StaticWorkflow {
    pub name: String,
    pub language: &'static str,
    pub tasks: Vec<TaskSpec>,
    emitted: bool,
}

impl StaticWorkflow {
    pub fn new(name: impl Into<String>, language: &'static str, tasks: Vec<TaskSpec>) -> Self {
        StaticWorkflow {
            name: name.into(),
            language,
            tasks,
            emitted: false,
        }
    }

    /// Files consumed by some task but produced by none — the workflow's
    /// external inputs.
    pub fn external_inputs(&self) -> Vec<String> {
        let produced: std::collections::HashSet<&str> = self
            .tasks
            .iter()
            .flat_map(|t| t.outputs.iter().map(|o| o.path.as_str()))
            .collect();
        let mut inputs: Vec<String> = self
            .tasks
            .iter()
            .flat_map(|t| t.inputs.iter())
            .filter(|p| !produced.contains(p.as_str()))
            .cloned()
            .collect();
        inputs.sort();
        inputs.dedup();
        inputs
    }

    /// Renders the task graph as Graphviz DOT, tasks as boxes and
    /// file-mediated dependencies as edges labelled with the file path —
    /// handy for eyeballing generated workflows (`dot -Tsvg`).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph workflow {\n  rankdir=LR;\n  node [shape=box];\n");
        let mut producers: std::collections::HashMap<&str, TaskId> =
            std::collections::HashMap::new();
        for t in &self.tasks {
            out.push_str(&format!(
                "  t{} [label=\"{}\\n#{}\"];\n",
                t.id.0,
                t.name.replace('"', "'"),
                t.id.0
            ));
            for o in &t.outputs {
                producers.insert(o.path.as_str(), t.id);
            }
        }
        for t in &self.tasks {
            for input in &t.inputs {
                match producers.get(input.as_str()) {
                    Some(p) => out.push_str(&format!(
                        "  t{} -> t{} [label=\"{}\"];\n",
                        p.0,
                        t.id.0,
                        input.replace('"', "'")
                    )),
                    None => {
                        // External input: a distinct ellipse node.
                        let key = format!("in_{:x}", fxhash(input));
                        out.push_str(&format!(
                            "  {key} [label=\"{}\", shape=ellipse];\n  {key} -> t{};\n",
                            input.replace('"', "'"),
                            t.id.0
                        ));
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Validates that the task graph is acyclic and well-formed (no two
    /// tasks produce the same file, ids are unique).
    pub fn validate(&self) -> Result<(), LangError> {
        let mut producers: std::collections::HashMap<&str, TaskId> =
            std::collections::HashMap::new();
        let mut ids = std::collections::HashSet::new();
        for t in &self.tasks {
            if !ids.insert(t.id) {
                return Err(LangError::new(
                    self.language,
                    format!("duplicate task id {:?}", t.id),
                ));
            }
            for o in &t.outputs {
                if let Some(prev) = producers.insert(o.path.as_str(), t.id) {
                    return Err(LangError::new(
                        self.language,
                        format!(
                            "file '{}' produced by both {:?} and {:?}",
                            o.path, prev, t.id
                        ),
                    ));
                }
            }
        }
        // Kahn's algorithm over file-mediated dependencies detects cycles.
        let mut indeg: std::collections::HashMap<TaskId, usize> = std::collections::HashMap::new();
        let mut dependents: std::collections::HashMap<TaskId, Vec<TaskId>> =
            std::collections::HashMap::new();
        for t in &self.tasks {
            let mut deg = 0;
            for input in &t.inputs {
                if let Some(&producer) = producers.get(input.as_str()) {
                    if producer != t.id {
                        deg += 1;
                        dependents.entry(producer).or_default().push(t.id);
                    } else {
                        return Err(LangError::new(
                            self.language,
                            format!("task {:?} consumes its own output '{input}'", t.id),
                        ));
                    }
                }
            }
            indeg.insert(t.id, deg);
        }
        let mut queue: Vec<TaskId> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut seen = 0usize;
        while let Some(id) = queue.pop() {
            seen += 1;
            if let Some(deps) = dependents.get(&id) {
                for d in deps.clone() {
                    let e = indeg.get_mut(&d).expect("known task");
                    *e -= 1;
                    if *e == 0 {
                        queue.push(d);
                    }
                }
            }
        }
        if seen != self.tasks.len() {
            return Err(LangError::new(
                self.language,
                "workflow graph contains a cycle",
            ));
        }
        Ok(())
    }
}

/// Tiny stable string hash for DOT node names.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

impl WorkflowSource for StaticWorkflow {
    fn name(&self) -> &str {
        &self.name
    }

    fn language(&self) -> &'static str {
        self.language
    }

    fn initial_tasks(&mut self) -> Result<Vec<TaskSpec>, LangError> {
        assert!(!self.emitted, "initial_tasks called twice");
        self.emitted = true;
        self.validate()?;
        Ok(self.tasks.clone())
    }

    fn on_task_completed(&mut self, _task: TaskId) -> Result<Vec<TaskSpec>, LangError> {
        Ok(Vec::new())
    }

    fn is_static(&self) -> bool {
        true
    }

    fn required_inputs(&self) -> Vec<String> {
        self.external_inputs()
    }

    fn is_complete(&self) -> bool {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, name: &str, inputs: &[&str], outputs: &[&str]) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            name: name.into(),
            command: format!("{name} ..."),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs
                .iter()
                .map(|s| OutputSpec {
                    path: s.to_string(),
                    size: 100,
                })
                .collect(),
            cost: TaskCost::default(),
        }
    }

    #[test]
    fn external_inputs_are_unproduced_files() {
        let wf = StaticWorkflow::new(
            "t",
            "test",
            vec![
                task(0, "a", &["/in1", "/in2"], &["/mid"]),
                task(1, "b", &["/mid", "/in2"], &["/out"]),
            ],
        );
        assert_eq!(
            wf.external_inputs(),
            vec!["/in1".to_string(), "/in2".to_string()]
        );
    }

    #[test]
    fn validate_accepts_dag() {
        let wf = StaticWorkflow::new(
            "t",
            "test",
            vec![
                task(0, "a", &["/in"], &["/m1"]),
                task(1, "b", &["/m1"], &["/m2"]),
                task(2, "c", &["/m1", "/m2"], &["/out"]),
            ],
        );
        assert!(wf.validate().is_ok());
    }

    #[test]
    fn validate_rejects_cycle() {
        let wf = StaticWorkflow::new(
            "t",
            "test",
            vec![
                task(0, "a", &["/y"], &["/x"]),
                task(1, "b", &["/x"], &["/y"]),
            ],
        );
        assert!(wf.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_producer() {
        let wf = StaticWorkflow::new(
            "t",
            "test",
            vec![task(0, "a", &[], &["/x"]), task(1, "b", &[], &["/x"])],
        );
        assert!(wf.validate().is_err());
    }

    #[test]
    fn validate_rejects_self_loop() {
        let wf = StaticWorkflow::new("t", "test", vec![task(0, "a", &["/x"], &["/x"])]);
        assert!(wf.validate().is_err());
    }

    #[test]
    fn workflow_source_protocol() {
        let mut wf = StaticWorkflow::new("t", "test", vec![task(0, "a", &["/in"], &["/out"])]);
        assert!(wf.is_static());
        assert!(!wf.is_complete());
        let tasks = wf.initial_tasks().unwrap();
        assert_eq!(tasks.len(), 1);
        assert!(
            wf.is_complete(),
            "static workflows are fully revealed by parsing"
        );
        assert!(wf.on_task_completed(TaskId(0)).unwrap().is_empty());
        assert_eq!(wf.required_inputs(), vec!["/in".to_string()]);
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_export_lists_tasks_edges_and_external_inputs() {
        let wf = StaticWorkflow::new(
            "d",
            "test",
            vec![
                TaskSpec {
                    id: TaskId(0),
                    name: "align".into(),
                    command: "align".into(),
                    inputs: vec!["/in/reads.fq".into()],
                    outputs: vec![OutputSpec {
                        path: "/w/aln.bam".into(),
                        size: 1,
                    }],
                    cost: TaskCost::default(),
                },
                TaskSpec {
                    id: TaskId(1),
                    name: "call".into(),
                    command: "call".into(),
                    inputs: vec!["/w/aln.bam".into()],
                    outputs: vec![OutputSpec {
                        path: "/out/vars.vcf".into(),
                        size: 1,
                    }],
                    cost: TaskCost::default(),
                },
            ],
        );
        let dot = wf.to_dot();
        assert!(dot.starts_with("digraph workflow {"));
        assert!(dot.contains("t0 [label=\"align"), "{dot}");
        assert!(dot.contains("t0 -> t1 [label=\"/w/aln.bam\"]"), "{dot}");
        assert!(dot.contains("shape=ellipse"), "external input node: {dot}");
        assert!(dot.trim_end().ends_with('}'));
    }
}
