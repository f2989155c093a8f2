//! # timber-schemes
//!
//! The baseline online timing-error-resilience techniques the TIMBER
//! paper compares against (its §2 and Table 1), next to TIMBER itself,
//! each as one [`CaptureLaw`]:
//!
//! * [`CaptureLaw::Razor`] — error *detection* with duplicate sampling
//!   after the clock edge and instruction replay (Razor, MICRO 2003);
//! * [`CaptureLaw::TransitionDetector`] — error detection with a
//!   transition detector and a one-cycle global stall (TDTB-style,
//!   Bowman 2008);
//! * [`CaptureLaw::Canary`] — error *prediction* with a delayed canary
//!   sample before the edge (Sato 2007): no corruption, but a guard
//!   band that forfeits margin recovery;
//! * [`CaptureLaw::SoftEdge`] — design-time soft-edge flip-flop: a
//!   fixed small transparency window masks tiny violations but detects
//!   nothing;
//! * [`CaptureLaw::LogicalMasking`] — logical error masking with
//!   redundant logic (Choudhury DATE 2009): covered critical paths
//!   produce the correct value early, uncovered ones escape;
//! * [`CaptureLaw::Conventional`] — the conventional design point.
//!
//! [`CaptureLaw::build`] puts any law, the two TIMBER cells included,
//! behind the `timber_pipeline::SequentialScheme` interface as one
//! [`LawScheme`], and [`Registry`] derives every law's parameters from
//! one TIMBER schedule.
//! [`feature_matrix`] reproduces the paper's Table 1 from the
//! implemented techniques' properties.

#![warn(missing_docs)]

pub mod features;
mod law;
pub mod registry;
mod scheme;

pub use features::{
    feature_matrix, render_table1, Category, MarginRecovery, Overhead, TechniqueFeatures,
    WhenDetected,
};
pub use law::CaptureLaw;
pub use registry::{Registry, SchemeId};
pub use scheme::LawScheme;

#[cfg(test)]
mod baselines;
#[cfg(test)]
mod props;
