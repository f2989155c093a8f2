//! # timber-lint
//!
//! Static design-rule checker for TIMBER (DATE 2010) integrations.
//!
//! An integration that silently violates the paper's side conditions —
//! a short path below the `hold + checking period` floor (§4), a
//! replaced flop whose borrowing predecessor cannot relay to it (§5.1),
//! an error-consolidation tree slower than the `k_ed − 1 + 0.5` cycle
//! budget — fails in silicon, not in simulation. This crate checks
//! those rules *statically*, before any simulation runs, and reports
//! violations as [`Diagnostic`]s with stable codes (`TBR001`…)
//! suitable for CI gating.
//!
//! The check pipeline is [`lint`]: schedule well-formedness
//! (`TBR001`–`TBR006`), netlist structure (`TBR040`–`TBR043`,
//! including *all* combinational loops with their full cycle paths),
//! then — only on clean inputs — the timing rules (`TBR010`–`TBR031`)
//! built on the same `timber-sta` and `timber` analyses a real
//! integration plan uses. [`DesignLint`] is the design-invariant half
//! (structure findings and the hold analysis), built once to check
//! many configurations of one netlist over an STA and fanin cones the
//! caller already holds; [`lint`] builds one per call. The full code →
//! invariant table is in `DESIGN.md` §9; the CLI front-end is
//! `repro lint`.
//!
//! # Example
//!
//! ```
//! use timber_lint::{lint, LintConfig, ScheduleSpec};
//! use timber_netlist::{CellLibrary, Picos};
//! use timber_sta::ClockConstraint;
//!
//! let lib = CellLibrary::standard();
//! let nl = timber_netlist::ripple_carry_adder(&lib, 8).unwrap();
//! let cfg = LintConfig::new(
//!     "deferred20",
//!     ScheduleSpec::deferred(20.0),
//!     ClockConstraint::with_period(Picos(1500)),
//! );
//! let report = lint(&nl, &cfg);
//! assert!(report.passes(true), "{}", report.render());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod diagnostic;
pub mod linter;
pub mod schedule;
pub mod structure;
pub mod timing;

pub use config::{LintConfig, PaddingPolicy, ReplacementPlan, ScheduleSpec};
pub use diagnostic::{reports_json, DiagCode, Diagnostic, LintReport, Severity};
pub use linter::{lint, DesignLint};
pub use schedule::snap_period;

#[cfg(test)]
mod props;
