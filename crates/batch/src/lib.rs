//! # timber-batch
//!
//! 64-lane bit-sliced Monte-Carlo trial batcher for the TIMBER
//! (DATE 2010) reproduction's architectural simulator.
//!
//! The scalar hot path (`timber_pipeline::PipelineSim`) simulates one
//! trial at a time: one cycle touches one stage row, one scheme object
//! and one clock controller. Monte-Carlo sweeps, however, run many
//! *independent* trials of the *same* configuration — the ideal shape
//! for batching. This crate packs up to 64 trials ("lanes") into one
//! engine where every per-lane boolean lives in a `u64` bit-plane
//! (violation, chain-active, recovery-bubble, clock-watch) and every
//! small per-lane integer lives in a dense byte/word plane (relay
//! select, borrow carry, chain depth). A cycle step is then:
//!
//! 1. generate all 64 delays for a stage from a counter-mode generator
//!    (pure function of `(lane_seed, cycle, stage)` — no RNG state),
//! 2. build the violation bit-plane with one branch-free pass,
//! 3. fall through instantly when `violation | chain` is all-zero
//!    (the overwhelmingly common case in the paper's sparse-error
//!    regime), otherwise service only the set bits, each decided by
//!    the scheme's own [`timber_schemes::CaptureLaw`].
//!
//! Determinism is preserved *exactly*: both engines draw from the one
//! counter-mode [`timber_variability::SensitizationModel`], so the
//! scalar reference runs each lane through the real `PipelineSim` with
//! a lane-seeded model and the real scheme objects, and
//! [`reference::check_equivalence`] asserts per-lane
//! [`timber_pipeline::RunStats`] and telemetry counters are
//! bit-identical — the scalar↔bit-sliced gate `repro bench-check`
//! enforces in CI.
//!
//! # Example
//!
//! ```
//! use timber::CheckingPeriod;
//! use timber_batch::{BatchConfig, BatchWorkload};
//! use timber_netlist::Picos;
//! use timber_pipeline::PipelineConfig;
//! use timber_schemes::{Registry, SchemeId};
//! use timber_variability::{StageDelayModel, StagePathProfile};
//!
//! let profiles = vec![StageDelayModel::new(&StagePathProfile::from_critical(Picos(980))); 4];
//! let schedule = CheckingPeriod::deferred_flagging(Picos(1000), 24.0)?;
//! let config = BatchConfig {
//!     pipeline: PipelineConfig::new(4, Picos(1000)),
//!     scheme: Registry::new(schedule).law(SchemeId::CanaryFf),
//!     workload: BatchWorkload::new(profiles, 7),
//!     lanes: 64,
//! };
//! let run = timber_batch::run_batched(&config, 10_000);
//! assert_eq!(run.stats.len(), 64);
//! timber_batch::reference::check_equivalence(&config, 10_000, 2).unwrap();
//! # Ok::<(), timber::TimberError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
mod kernel;
pub mod reference;
pub mod scheme;
pub mod workload;

pub use engine::{row_kernel, run_batched, BatchConfig, BatchRun, MAX_LANES};
pub use scheme::BatchScheme;
pub use workload::BatchWorkload;

#[cfg(test)]
mod props;
