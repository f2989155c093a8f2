//! # timber-analyze
//!
//! Abstract-interpretation certifier for the TIMBER (DATE 2010)
//! reproduction: turns the repo's *observed* safety invariants —
//! bounded time borrowing, bounded relay chains, bounded governor
//! recovery — into machine-checked *certificates* proved from the
//! schedule and a per-stage arrival-time hull, never from simulation.
//!
//! Three engines:
//!
//! * [`interp`] — a fixed-point dataflow over per-stage arrival-time
//!   intervals (PieceTimer-style interval treatment, arXiv 1705.04993),
//!   refined per relay cone: the TIMBER FF's borrow capacity depends on
//!   the relayed select, so the analysis tracks the *set of reachable
//!   borrow depths* per stage (carry and select travel together through
//!   the relay, so one depth scalar captures the pair exactly) instead
//!   of one global worst case. It derives provable worst-case borrow,
//!   relay-chain length and consolidation budgets for any
//!   `(c, k_tb, k_ed, schedule)` point, for all eight schemes.
//! * [`governor`] — one explicit-state reachability search over both
//!   degradation ladders' window-granular abstract inputs. For the
//!   clock ladder it proves `LadderGovernor`'s published
//!   `recovery_bound()` and ladder-maximum period, driving the *real*
//!   implementation through its snapshot/restore API rather than a
//!   re-implementation; for the service ladder it proves that zero
//!   demand brings every reachable state back to nominal within its
//!   published `retry_after()` batches.
//! * [`soundness`] — a replay harness: the pinned conformance
//!   workloads (every grid point × scheme × burst shape) run through
//!   the real pipeline simulator and every dynamic observation is
//!   checked against its static certificate. A sabotage mode seeds an
//!   off-by-one bound that the harness must catch — the gate's
//!   self-test.
//!
//! [`certificate`] renders everything as lint reports (stable
//! `TBR050`–`TBR055` codes) and a JSON certificate document; the
//! `repro analyze` subcommand sits on top.

#![warn(missing_docs)]

pub mod certificate;
pub mod domain;
pub mod governor;
pub mod interp;
mod props;
pub mod soundness;

pub use certificate::{
    certificate_json, governor_report, point_report, service_report, soundness_report,
};
pub use domain::Interval;
pub use governor::{explore, explore_service, GovernorAnalysis, ServiceAnalysis};
pub use interp::{certify, AnalysisPoint, BoundSet, ConfigCertificate, FixpointInfo, StageFacts};
pub use soundness::{hull_of, replay_case, run_soundness, SoundnessReport, Violation};
