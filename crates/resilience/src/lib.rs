//! # timber-resilience
//!
//! Robustness infrastructure for the TIMBER (DATE 2010) reproduction,
//! in two halves:
//!
//! * **Closed-loop degraded-mode governor** ([`governor`]): the paper's
//!   central error control unit "temporarily reduces clock frequency"
//!   when a flagged error escapes the TB intervals (§4). The open-loop
//!   single-pulse controller handles isolated flags; *sustained* error
//!   storms — resonant droop trains, aging drift — need a closed loop.
//!   [`LadderGovernor`] drives a four-level escalation ladder
//!   (nominal → throttle → deep-throttle → safe-mode) from a windowed
//!   flag-rate estimator with hysteresis, a bounded escalation deadline,
//!   and guaranteed de-escalation back to nominal once flags cease.
//!   Its control law lives in [`ladder`], the core it shares with
//!   `timber-serve`'s admission-control `ServiceGovernor`.
//!   [`storms`] generates the stress environments (droop trains, aging
//!   ramps, flag-rate spikes) on top of `timber-variability`.
//!
//! * **Crash-safe hardened executor** ([`executor`], [`checkpoint`]):
//!   the deterministic work-pull scatter discipline shared by the
//!   Monte-Carlo sweep engine and the conformance campaign
//!   ([`scatter_strict`]), plus a hardened variant
//!   ([`run_hardened`]) on persistent pull workers that isolates every
//!   attempt with `catch_unwind`, enforces a per-attempt wall-clock
//!   watchdog from the calling thread, retries transient
//!   failures with bounded deterministic backoff, quarantines
//!   persistent failures into a ledger instead of aborting the
//!   campaign, and checkpoints completed trials so a killed campaign
//!   resumes to a byte-identical final report.
//!
//! Everything is deterministic: reports and ledgers are bit-identical
//! for any worker-thread count, and resuming from a checkpoint after a
//! kill reproduces exactly the uninterrupted output.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod executor;
pub mod governor;
pub mod ladder;
pub mod retry;
pub mod storms;

pub use checkpoint::{read_checkpoint_counting, scan_log, visit_log, JournalWriter, ScanStats};
pub use executor::{
    resolve_threads, run_hardened, scatter_strict, FailureKind, HardenedOutcome, HardenedSpec,
    QuarantineEntry, TrialJob,
};
pub use governor::{
    GovernorConfig, GovernorLevel, GovernorState, LadderGovernor, LadderTransition,
};
pub use retry::RetryPolicy;
pub use storms::StormScenario;

#[cfg(test)]
mod props;
