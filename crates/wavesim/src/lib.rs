//! # timber-wavesim
//!
//! A picosecond-resolution, discrete-event digital waveform simulator —
//! the reproduction's stand-in for the SPICE simulations the TIMBER
//! paper uses to validate its two sequential cells (its Figs. 5 and 7).
//!
//! The simulator provides the circuit primitives the TIMBER flip-flop
//! and TIMBER latch schematics are drawn from (transmission gates,
//! level-sensitive latches, delay lines, ordinary gates, clock and data
//! stimuli), three-valued logic (`0`, `1`, `X`) so unknown start-up
//! state propagates honestly, and waveform capture with an ASCII
//! renderer used by the figure-reproduction binary.
//!
//! What Figs. 5/7 demonstrate is *logical-temporal* behaviour — which
//! master latch drives the slave when, when the error signal latches —
//! so a digital event simulator at 1 ps resolution reproduces every
//! labelled transition of those figures; analog fidelity is not required
//! (see `DESIGN.md`, substitution table).
//!
//! # Example
//!
//! ```
//! use timber_netlist::Picos;
//! use timber_wavesim::{Circuit, Logic};
//!
//! let mut c = Circuit::new();
//! let a = c.signal("a");
//! let y = c.signal("y");
//! c.inverter(a, y, Picos(10));
//! c.stimulus(a, &[(Picos(0), Logic::Zero), (Picos(100), Logic::One)]);
//! let mut sim = c.into_simulator();
//! sim.run_until(Picos(200));
//! assert_eq!(sim.value(y), Logic::Zero);
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod element;
pub mod signal;
pub mod sim;
pub mod wave;

pub use circuit::Circuit;
pub use element::{Element, Scheduled, TableGate};
pub use signal::{Logic, SigId};
pub use sim::Simulator;
pub use wave::{render_waves, Waveform, WaveformSet};

#[cfg(test)]
mod props;
