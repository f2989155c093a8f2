//! The capture law of every implemented technique, as plain data.
//!
//! A [`CaptureLaw`] holds one scheme's parameters and decides what a
//! data arrival at a stage boundary does. The scalar scheme
//! ([`CaptureLaw::build`]), the 64-lane bit-sliced engine in
//! `timber-batch` and the certifier in `timber-analyze` all read the
//! same law, so a technique's decision rule is written once.

use timber::{CheckingPeriod, TimberFlipFlop, TimberLatch};
use timber_netlist::Picos;
use timber_pipeline::{Recovery, StageOutcome};

use crate::registry::SchemeId;

/// One technique's capture law and its parameters.
///
/// The windows, guards and margins are the caller's choice;
/// [`Registry::law`](crate::Registry::law) derives the experiments'
/// values from one TIMBER schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CaptureLaw {
    /// TIMBER flip-flop (paper §5.1): a late arrival is masked by a
    /// discrete borrow of `select + 1` whole intervals, and the select
    /// is relayed downstream.
    TimberFf(CheckingPeriod),
    /// TIMBER latch (paper §5.2): continuous borrowing across the whole
    /// checking period, flagged past the TB region.
    TimberLatch(CheckingPeriod),
    /// Razor-style error detection (Razor, MICRO 2003): a shadow latch
    /// re-samples the data a speculation window after the clock edge; a
    /// mismatch with the main flop triggers a one-cycle local replay.
    ///
    /// The timing margin is recovered in full, but every detected error
    /// costs replay bubbles, the shadow latch loads the clock tree, and
    /// short paths must be padded past the speculation window.
    ///
    /// A data transition landing inside the main flop's setup/hold
    /// aperture can leave it metastable — one of Razor's well-known
    /// hazards, and one the TIMBER flip-flop avoids by construction
    /// (M1 re-samples the settled value well after the transition;
    /// paper §5.1). Arrivals within `±meta_window/2` of the capturing
    /// edge trigger the metastability detector and pay `meta_penalty`
    /// cycles (at least the plain replay) instead of a plain replay.
    Razor {
        /// Speculation window after the edge in which errors are caught.
        window: Picos,
        /// Width of the metastability aperture around the edge (zero
        /// disables the model).
        meta_window: Picos,
        /// Penalty for resolving a metastable capture, in cycles.
        meta_penalty: u32,
    },
    /// Transition-detector flip-flop (TDTB-style, Bowman DAC 2009 /
    /// ICICDT 2008): detects transitions in a window after the edge and
    /// recovers with a one-cycle global stall instead of a replay,
    /// which avoids Razor's metastability concerns.
    TransitionDetector {
        /// Detection window after the edge.
        window: Picos,
    },
    /// Canary flip-flop error *prediction* (Sato, ISQED 2007): a canary
    /// flop samples a delayed copy of the data; an arrival inside the
    /// guard band before the edge predicts an error before any
    /// corruption. Because the guard band must stay reserved, the
    /// dynamic-variability margin is never recovered.
    Canary {
        /// Guard band before the edge in which arrivals trigger a
        /// prediction.
        guard: Picos,
    },
    /// Soft-edge flip-flop (Wieckowski, CICC 2008): a design-time fixed
    /// transparency window masks small violations by implicit time
    /// borrowing. No detection, no flagging — violations beyond the
    /// window escape silently.
    SoftEdge {
        /// Transparency window after the edge.
        window: Picos,
    },
    /// Logical error masking with redundant logic (Choudhury &
    /// Mohanram, DATE 2009): redundant logic computes the correct
    /// output early when a covered critical path is exercised, masking
    /// the error with *zero* borrowed time. With probability
    /// `1 − coverage` the sensitized path is not covered and the
    /// violation escapes.
    LogicalMasking {
        /// Fraction of critical-path sensitizations the redundant logic
        /// covers.
        coverage: f64,
        /// Delay margin up to which covered paths are corrected.
        margin: Picos,
    },
    /// Conventional margined flip-flop: any late arrival corrupts.
    Conventional,
}

impl CaptureLaw {
    /// The technique this law belongs to.
    pub fn id(&self) -> SchemeId {
        match self {
            CaptureLaw::TimberFf(_) => SchemeId::TimberFf,
            CaptureLaw::TimberLatch(_) => SchemeId::TimberLatch,
            CaptureLaw::Razor { .. } => SchemeId::RazorFf,
            CaptureLaw::TransitionDetector { .. } => SchemeId::TransitionDetectorFf,
            CaptureLaw::Canary { .. } => SchemeId::CanaryFf,
            CaptureLaw::SoftEdge { .. } => SchemeId::SoftEdgeFf,
            CaptureLaw::LogicalMasking { .. } => SchemeId::LogicalMasking,
            CaptureLaw::Conventional => SchemeId::ConventionalFf,
        }
    }

    /// Asserts the parameters are representable.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive window, guard or margin, a negative
    /// metastability aperture, or coverage outside `[0, 1]`.
    pub fn validate(&self) {
        match *self {
            CaptureLaw::TimberFf(_) | CaptureLaw::TimberLatch(_) | CaptureLaw::Conventional => {}
            CaptureLaw::Razor {
                window,
                meta_window,
                ..
            } => {
                assert!(window > Picos::ZERO, "speculation window must be positive");
                assert!(
                    meta_window.is_non_negative(),
                    "metastability window must be non-negative"
                );
            }
            CaptureLaw::TransitionDetector { window } => {
                assert!(window > Picos::ZERO, "detection window must be positive");
            }
            CaptureLaw::Canary { guard } => {
                assert!(guard > Picos::ZERO, "guard band must be positive");
            }
            CaptureLaw::SoftEdge { window } => {
                assert!(window > Picos::ZERO, "transparency window must be positive");
            }
            CaptureLaw::LogicalMasking { coverage, margin } => {
                assert!((0.0..=1.0).contains(&coverage), "coverage in [0,1]");
                assert!(margin > Picos::ZERO, "margin must be positive");
            }
        }
    }

    /// The latest arrival the law captures on time against an edge at
    /// `period`: the edge, less Razor's lower half-aperture or the
    /// canary's guard band. Every arrival at or before it decides
    /// [`StageOutcome::Ok`] without a coverage draw.
    pub fn on_time_limit(&self, period: Picos) -> Picos {
        match *self {
            CaptureLaw::Razor { meta_window, .. } => period - meta_window / 2,
            CaptureLaw::Canary { guard } => period - guard,
            _ => period,
        }
    }

    /// Decides the capture of data stabilising at `arrival` against a
    /// capturing edge at `period`. Every arrival at or before
    /// [`on_time_limit`](Self::on_time_limit) is on time, so each law's
    /// own rule decides only later arrivals.
    ///
    /// `select` is the TIMBER flip-flop's relayed select input (every
    /// other law ignores it). `covered(coverage)` draws logical
    /// masking's coverage sample; it is called only for an arrival past
    /// the edge and inside the margin, so the caller's RNG advances
    /// exactly as the scalar scheme's does.
    pub fn decide(
        &self,
        arrival: Picos,
        period: Picos,
        select: u8,
        covered: impl FnOnce(f64) -> bool,
    ) -> StageOutcome {
        if arrival <= self.on_time_limit(period) {
            return StageOutcome::Ok;
        }
        let overshoot = arrival - period;
        match *self {
            CaptureLaw::TimberFf(schedule) => {
                TimberFlipFlop::resolve(&schedule, select, arrival, period).into()
            }
            CaptureLaw::TimberLatch(schedule) => {
                TimberLatch::resolve(&schedule, arrival, period).into()
            }
            CaptureLaw::Razor {
                window,
                meta_window,
                meta_penalty,
            } => {
                if overshoot <= meta_window / 2 {
                    // Inside the metastability aperture, which
                    // straddles the edge from the on-time limit.
                    StageOutcome::Detected {
                        recovery: Recovery::Replay {
                            penalty_cycles: meta_penalty.max(1),
                        },
                    }
                } else if overshoot <= window {
                    StageOutcome::Detected {
                        recovery: Recovery::Replay { penalty_cycles: 1 },
                    }
                } else {
                    // Beyond the speculation window the shadow latch
                    // also sampled stale data: silent escape.
                    StageOutcome::Corrupted
                }
            }
            CaptureLaw::TransitionDetector { window } => {
                if overshoot <= window {
                    StageOutcome::Detected {
                        recovery: Recovery::Stall { penalty_cycles: 1 },
                    }
                } else {
                    StageOutcome::Corrupted
                }
            }
            CaptureLaw::Canary { .. } => {
                if overshoot <= Picos::ZERO {
                    StageOutcome::Predicted
                } else {
                    // The variation outran the prediction (fast local
                    // event): prediction cannot catch it.
                    StageOutcome::Corrupted
                }
            }
            CaptureLaw::SoftEdge { window } => {
                if overshoot <= window {
                    StageOutcome::Masked {
                        borrowed: overshoot,
                        flagged: false,
                    }
                } else {
                    StageOutcome::Corrupted
                }
            }
            CaptureLaw::LogicalMasking { coverage, margin } => {
                if overshoot <= margin && covered(coverage) {
                    // The redundant logic produced the correct value in
                    // time: masked without borrowing.
                    StageOutcome::Masked {
                        borrowed: Picos::ZERO,
                        flagged: false,
                    }
                } else {
                    StageOutcome::Corrupted
                }
            }
            CaptureLaw::Conventional => StageOutcome::Corrupted,
        }
    }
}
