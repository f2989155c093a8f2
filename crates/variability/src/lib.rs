//! # timber-variability
//!
//! Static and dynamic variability models for the TIMBER (DATE 2010)
//! reproduction.
//!
//! TIMBER targets *dynamic* variability — voltage droop, temperature
//! drift, aging, local noise — whose effects change with time and
//! workload and therefore cannot be margined away at manufacturing test.
//! This crate models each source as a multiplicative, per-cycle delay
//! derating factor and provides the workload (path-sensitization) model
//! that determines which path delay a pipeline stage exercises on each
//! cycle.
//!
//! All models are seeded and deterministic: the same configuration
//! always produces the same factor sequence, so every experiment in the
//! repository is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use timber_variability::{DelaySource, VariabilityBuilder};
//!
//! let mut var = VariabilityBuilder::new(42)
//!     .voltage_droop(0.08, 500, 2000.0)
//!     .local_jitter(0.01)
//!     .build();
//! let f = var.factor(0, 3);
//! assert!(f > 0.5 && f < 2.0);
//! ```

#![warn(missing_docs)]

pub mod math;
pub mod model;
pub mod sensitization;

pub use math::{box_muller, exponential, poisson_count};
pub use model::{
    Aging, CompositeVariability, DelaySource, LocalJitter, ProcessVariation, TemperatureDrift,
    VariabilityBuilder, VoltageDroop,
};
pub use sensitization::{
    draw, mix64, row_key, splitmix64, SensitizationModel, StageDelayModel, StagePathProfile, PHI,
};

#[cfg(test)]
mod props;
