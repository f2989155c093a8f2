//! # timber-pipeline
//!
//! Cycle-level pipeline simulation for the TIMBER (DATE 2010)
//! reproduction.
//!
//! The simulator models a pipeline of combinational stages separated
//! by sequential elements: a linear chain by default, or any boundary
//! DAG given as a [`Topology`]. Each cycle, every stage sensitizes
//! a path (from `timber-variability`'s workload model), the path delay
//! is derated by the dynamic-variability environment, and the stage
//! boundary's resilience scheme — TIMBER, Razor-style detection,
//! canary prediction, or a plain margined flop — decides the outcome:
//! on-time capture, masked-by-borrowing, detected-and-replayed,
//! predicted, or silent corruption.
//!
//! A central controller consolidates flagged errors (with the paper's
//! OR-tree latency budget) and temporarily reduces clock frequency, and
//! the run statistics expose exactly the quantities the paper's claims
//! are about: single- vs multi-stage error rates, recovery penalties,
//! and throughput/energy cost.
//!
//! Two clock authorities are available: the paper's open-loop
//! single-pulse [`FrequencyController`] (the default), and — via
//! [`PipelineConfig::governor`] — the closed-loop escalation-ladder
//! governor from `timber-resilience`, which adds deep-throttle and a
//! Razor-style safe-mode replay for sustained error storms.
//!
//! # Example
//!
//! ```
//! use timber_netlist::Picos;
//! use timber_pipeline::{reference::MarginedFlop, PipelineConfig, PipelineSim};
//! use timber_variability::{CompositeVariability, SensitizationModel};
//!
//! let config = PipelineConfig::new(5, Picos(1000));
//! let mut scheme = MarginedFlop::new();
//! let sens = SensitizationModel::uniform(5, Picos(900), 1);
//! let var = CompositeVariability::nominal();
//! let mut sim = PipelineSim::new(config, &mut scheme, &sens, &var);
//! let stats = sim.run(10_000);
//! assert_eq!(stats.cycles, 10_000);
//! assert_eq!(stats.corrupted, 0); // nominal environment, 10% margin
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod montecarlo;
pub mod reference;
pub mod scheme;
pub mod sim;
pub mod stats;
pub mod topology;

pub use controller::FrequencyController;
pub use montecarlo::{Environment, SweepResult, SweepSpec, TrialPoint};
pub use scheme::{CycleContext, Recovery, SequentialScheme, StageOutcome};
pub use sim::{CertifiedBounds, PipelineConfig, PipelineSim};
pub use stats::RunStats;
pub use timber_resilience::{GovernorConfig, GovernorLevel};
pub use topology::Topology;

#[cfg(test)]
mod doubles;
#[cfg(test)]
mod props;
