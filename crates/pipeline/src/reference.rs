//! Reference scheme: a plain margined flip-flop.
//!
//! The conventional design point every technique in the paper's Table 1
//! is compared against: no detection, no prediction, no masking. A
//! timing violation silently corrupts state, which is why conventional
//! designs carry worst-case margins.

use timber_netlist::Picos;

use crate::scheme::{CycleContext, SequentialScheme, StageOutcome};
use crate::topology::Topology;

/// Conventional master-slave flip-flop with no resilience support.
#[derive(Debug, Clone, Copy, Default)]
pub struct MarginedFlop {
    _private: (),
}

impl MarginedFlop {
    /// Creates the reference flop.
    pub fn new() -> MarginedFlop {
        MarginedFlop::default()
    }
}

impl SequentialScheme for MarginedFlop {
    fn evaluate(&mut self, _stage: usize, arrival: Picos, ctx: &CycleContext) -> StageOutcome {
        if arrival <= ctx.period {
            StageOutcome::Ok
        } else {
            StageOutcome::Corrupted
        }
    }

    fn reset(&mut self, _topology: &Topology) {}

    /// Stateless, and on time up to the edge.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meets_timing_when_on_time() {
        let mut f = MarginedFlop::new();
        let ctx = CycleContext {
            cycle: 0,
            period: Picos(1000),
        };
        assert_eq!(f.evaluate(0, Picos(999), &ctx), StageOutcome::Ok);
        assert_eq!(f.evaluate(0, Picos(1000), &ctx), StageOutcome::Ok);
    }

    #[test]
    fn corrupts_when_late() {
        let mut f = MarginedFlop::new();
        let ctx = CycleContext {
            cycle: 0,
            period: Picos(1000),
        };
        assert_eq!(f.evaluate(0, Picos(1001), &ctx), StageOutcome::Corrupted);
    }
}
