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
//! All models are seeded, integer and counter-mode: every factor is a
//! Q16 fixed-point value and a pure function of `(seed, cycle, stage)`,
//! read from committed integer tables, so every experiment in the
//! repository is exactly reproducible on any platform.
//!
//! # Example
//!
//! ```
//! use timber_variability::{DelaySource, Q16, VariabilityBuilder};
//!
//! let var = VariabilityBuilder::new(42)
//!     .voltage_droop(0.08, 500, 2000.0)
//!     .local_jitter(0.01)
//!     .build();
//! let f = var.factor(0, 3);
//! assert!(f > Q16::from_f64(0.5) && f < Q16::from_f64(2.0));
//! // A pure function of the coordinates: any order, any number of times.
//! assert_eq!(var.factor(7_000, 1), var.factor(7_000, 1));
//! ```

#![warn(missing_docs)]

pub mod model;
pub mod sensitization;
mod tables;

pub use model::{
    Aging, CompositeVariability, DelaySource, LocalJitter, ProcessVariation, TemperatureDrift,
    VariabilityBuilder, VoltageDroop, Q16,
};
pub use sensitization::{
    draw, mix64, row_key, splitmix64, SensitizationModel, StageDelayModel, StagePathProfile, PHI,
};

#[cfg(test)]
mod props;
