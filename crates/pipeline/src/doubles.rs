//! Test doubles shared by the simulator's unit and property tests.

#![cfg(test)]

use timber_netlist::Picos;

use crate::scheme::{CycleContext, Recovery, SequentialScheme, StageOutcome};
use crate::topology::Topology;

/// A scheme that masks every overrun by borrowing the overshoot, and
/// flags each one when `flagged` is set (maximum escalation pressure
/// for governor tests).
#[derive(Debug)]
pub(crate) struct BorrowAll {
    pub(crate) flagged: bool,
}

impl SequentialScheme for BorrowAll {
    fn evaluate(&mut self, _stage: usize, arrival: Picos, ctx: &CycleContext) -> StageOutcome {
        if arrival <= ctx.period {
            StageOutcome::Ok
        } else {
            StageOutcome::Masked {
                borrowed: arrival - ctx.period,
                flagged: self.flagged,
            }
        }
    }

    fn reset(&mut self, _topology: &Topology) {}
}

/// A scheme that detects every overrun and replays it, costing the
/// given number of bubbles.
#[derive(Debug)]
pub(crate) struct DetectAll(pub(crate) u32);

impl SequentialScheme for DetectAll {
    fn evaluate(&mut self, _stage: usize, arrival: Picos, ctx: &CycleContext) -> StageOutcome {
        if arrival <= ctx.period {
            StageOutcome::Ok
        } else {
            StageOutcome::Detected {
                recovery: Recovery::Replay {
                    penalty_cycles: self.0,
                },
            }
        }
    }

    fn reset(&mut self, _topology: &Topology) {}
}
