//! # timber
//!
//! The primary contribution of *TIMBER: Time borrowing and error
//! relaying for online timing error resilience* (Choudhury, Chandra,
//! Mohanram, Aitken — DATE 2010), reproduced as a Rust library.
//!
//! TIMBER masks timing errors caused by dynamic variability by
//! **borrowing time from the successive pipeline stage** instead of
//! rolling back (Razor) or reserving a guard band (canary). The crate
//! provides:
//!
//! * [`CheckingPeriod`] — the TB/ED interval schedule after the clock
//!   edge and its derived quantities (recovered timing margin, maskable
//!   stages, consolidation-latency budget);
//! * [`TimberFlipFlop`] — the double-master flip-flop with *discrete*
//!   time borrowing and [`ErrorRelay`] logic that tells downstream flops
//!   how many extra units to borrow;
//! * [`TimberLatch`] — the pulse-gated latch pair with *continuous*
//!   borrowing and no relay logic;
//! * a [`CaptureOutcome`] to `timber_pipeline::StageOutcome`
//!   conversion: `timber-schemes` runs both cells, like every
//!   baseline, on the architectural simulator as one capture law;
//! * [`circuit`] — wave-level (transmission-gate / latch) constructions
//!   of both cells on `timber-wavesim`, used to reproduce the paper's
//!   SPICE waveform figures (Figs. 5 and 7) and for corner-case
//!   validation;
//! * [`TimberDesign`] — design integration: selects the flip-flops to
//!   replace in a netlist (endpoints of top-c% paths), sizes the relay
//!   cones, and derives the short-path padding plan.
//!
//! # Example
//!
//! ```
//! use timber::{CheckingPeriod, TimberFlipFlop};
//! use timber_netlist::Picos;
//!
//! // 3-interval checking period (1 TB + 2 ED) on a 1 ns clock,
//! // checking period = 12% of the cycle.
//! let schedule = CheckingPeriod::new(Picos(1000), 12.0, 1, 2)?;
//! let mut ff = TimberFlipFlop::new(schedule);
//! // A 30 ps violation on a 1000 ps cycle is masked by borrowing one
//! // 40 ps unit; with select 0 the error is not flagged.
//! let outcome = ff.capture(Picos(1030), Picos(1000));
//! assert!(outcome.masked());
//! assert!(!outcome.flagged());
//! # Ok::<(), timber::TimberError>(())
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod control;
pub mod design;
pub mod error;
pub mod flipflop;
pub mod gate_level;
pub mod latch;
pub mod relay;
pub mod schedule;
mod scheme;
pub mod validate;

pub use control::ConsolidationTree;
pub use design::{DesignReport, TimberDesign};
pub use error::TimberError;
pub use flipflop::{CaptureOutcome, TimberFlipFlop};
pub use gate_level::{compile, lockstep_compare, CompiledDesign, LockstepResult, SeqStyle};
pub use latch::TimberLatch;
pub use relay::{ErrorRelay, NetlistRelay, RelayEstimate};
pub use schedule::{CheckingPeriod, IntervalKind};
pub use validate::{validate_flipflop, validate_latch, ValidationReport};

#[cfg(test)]
mod props;
