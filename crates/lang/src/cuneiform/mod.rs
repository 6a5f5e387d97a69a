//! A Cuneiform-style functional workflow DSL.
//!
//! Cuneiform (Brandt, Bux, Leser — EDBT/ICDT workshops 2015) is the
//! "native" language of the Hi-WAY stack: a minimal functional language
//! whose only effectful operation is applying a *task* — a black-box tool
//! invocation — to values. Its hallmarks, all reproduced here:
//!
//! * **black-box tasks** declared with `deftask`, carrying opaque commands
//!   and declared outputs;
//! * **element-wise application**: applying a task to lists yields one
//!   task instance per element (scalars broadcast), which is how highly
//!   parallel pipelines are written without explicit loops;
//! * **data-dependent control flow**: `if`/`then`/`else` over values that
//!   may only become known when a task completes (`val(x)` reads the exit
//!   value of the task that produced `x`);
//! * **recursion** through user functions (`defun`), enabling unbounded
//!   iteration such as the k-means refinement loop from the paper §3.3.
//!
//! The evaluator discovers tasks incrementally: evaluation proceeds until
//! it *blocks* on a not-yet-completed task, at which point every task whose
//! arguments are fully known has been submitted. Only a completion that
//! releases a blocked `val()` runs the (memoized) evaluation again,
//! possibly unblocking conditionals and revealing new tasks — exactly the
//! execution model of the paper's Figure 3.
//!
//! # Example
//!
//! ```
//! use hiway_lang::cuneiform::CuneiformWorkflow;
//! use hiway_lang::ir::WorkflowSource;
//!
//! let src = r#"
//!     deftask align( out("aln_{0}.sam", mul(insize(reads), 2)) : reads ref )
//!         cpu mul(insize(reads), 0.000001) threads 8 mem 4000;
//!     let ref = file("/data/genome.fa", 3000000);
//!     let samples = [file("/data/s0.fq", 1000000), file("/data/s1.fq", 1200000)];
//!     target align(samples, ref);
//! "#;
//! let mut wf = CuneiformWorkflow::parse("demo", src, 7).unwrap();
//! let tasks = wf.initial_tasks().unwrap();
//! assert_eq!(tasks.len(), 2); // one aligner per sample
//! ```

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;

pub use eval::CuneiformWorkflow;
