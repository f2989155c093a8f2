//! # timber-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the TIMBER paper (see `EXPERIMENTS.md` at the repository root for
//! the paper-vs-measured record).
//!
//! Each experiment is a library function returning a structured result
//! plus a text rendering; the `repro` binary prints them, and
//! `repro bench` times the claims sweep. Experiments are seeded and
//! deterministic.
//!
//! | Paper item | Function |
//! |---|---|
//! | Table 1   | [`experiments::table1`] |
//! | Fig. 1    | [`experiments::fig1`] |
//! | Fig. 2    | [`experiments::fig2`] |
//! | Fig. 5    | [`experiments::fig5`] |
//! | Fig. 7    | [`experiments::fig7`] |
//! | Fig. 8    | [`experiments::fig8`] |
//! | §3/§4 claims | [`experiments::claims`] |
//! | Cross-scheme comparison | [`experiments::compare`] |

#![warn(missing_docs)]

pub mod ablations;
pub mod analyzegate;
pub mod conform;
pub mod experiments;
pub mod lintgate;
pub mod margin;
pub mod perf;
pub mod report;
pub mod soak;
pub mod trace;
pub mod tune;

pub use ablations::{
    ablation_dag, ablation_droop, ablation_glitch_activity, ablation_metastability,
    ablation_schedule, validation, DagResult, GlitchActivity, MetastabilityResult,
    ValidationSummary,
};
pub use experiments::{
    claims, compare, fig1, fig2, fig5, fig7, fig8, table1, ClaimsResult, CompareRow, Fig1Result,
    WaveResult,
};
pub use lintgate::{gate_config, gate_passes, lint_all, render_reports, shipped_netlists};
pub use margin::{margin_recovery, render_margin, MarginRow};
pub use perf::{bench_check, pipeline_baseline, BatchBench, BenchResult, BenchRun};
pub use trace::{trace_experiment, TraceResult, DEFAULT_RING_CAPACITY};
pub use tune::{frontier_check, tune_document, FrontierCheck};
