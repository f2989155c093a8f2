//! The resilience-scheme abstraction every sequential element implements.

use timber_netlist::Picos;

use crate::topology::Topology;

/// Per-cycle context handed to a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleContext {
    /// Current cycle number.
    pub cycle: u64,
    /// Current clock period (may be temporarily increased by the
    /// central controller).
    pub period: Picos,
}

/// Recovery action demanded by a detection-based scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Local instruction replay (Razor-style): the errant instruction
    /// re-executes, costing `penalty_cycles` bubbles.
    Replay {
        /// Pipeline bubbles injected.
        penalty_cycles: u32,
    },
    /// Architectural rollback to a checkpoint (multiple-issue recovery).
    Rollback {
        /// Pipeline bubbles injected.
        penalty_cycles: u32,
    },
    /// Global one-cycle clock stall (TDTB-style error masking at the
    /// system level).
    Stall {
        /// Pipeline bubbles injected.
        penalty_cycles: u32,
    },
}

impl Recovery {
    /// Bubbles this recovery injects.
    pub fn penalty_cycles(&self) -> u32 {
        match *self {
            Recovery::Replay { penalty_cycles }
            | Recovery::Rollback { penalty_cycles }
            | Recovery::Stall { penalty_cycles } => penalty_cycles,
        }
    }
}

/// Outcome of one stage-boundary evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// Data arrived before the capturing edge: nothing happened.
    Ok,
    /// A timing violation occurred and was masked by time borrowing.
    /// The system state remains correct.
    Masked {
        /// Time borrowed from the next stage, never negative: the next
        /// stage's data launches this much late on the following cycle.
        borrowed: Picos,
        /// Whether the error was also flagged to the central error
        /// control unit (TIMBER defers flagging while only TB intervals
        /// are used).
        flagged: bool,
    },
    /// A timing error was detected *after* the state was corrupted;
    /// `recovery` restores correctness at a throughput cost.
    Detected {
        /// How the scheme recovers.
        recovery: Recovery,
    },
    /// An imminent timing error was predicted *before* the clock edge
    /// (canary-style); state is still correct but the system must slow
    /// down.
    Predicted,
    /// The violation escaped the scheme entirely: silent data
    /// corruption.
    Corrupted,
}

impl StageOutcome {
    /// True when the architectural state stayed correct this cycle.
    pub fn state_correct(&self) -> bool {
        !matches!(self, StageOutcome::Corrupted)
    }
}

/// A sequential-element resilience scheme at every stage boundary of the
/// simulated pipeline.
///
/// The simulator calls [`evaluate`](SequentialScheme::evaluate) at most
/// once per stage per cycle, in stage order, which lets stateful schemes
/// (like the TIMBER flip-flop with its error-relay select inputs)
/// maintain per-stage state across calls. It calls it at every boundary
/// of every productive cycle unless the scheme reports an
/// [`on_time_limit`](SequentialScheme::on_time_limit), which lets it
/// leave out the boundaries it proves on time. A capture is decided
/// from the arrival and the cycle alone: time borrowed into the stage
/// is already part of the arrival.
pub trait SequentialScheme {
    /// Evaluates the data arrival at stage boundary `stage`: `arrival`
    /// is when the data stabilises at the boundary, measured from the
    /// launching clock edge and including any time the previous
    /// boundary borrowed; `arrival <= ctx.period` means the data met
    /// the edge.
    fn evaluate(&mut self, stage: usize, arrival: Picos, ctx: &CycleContext) -> StageOutcome;

    /// Clears all per-run state and sizes the scheme for `topology`,
    /// the boundary graph of the run that follows. The simulator calls
    /// it when it is built and again when it switches topology, so a
    /// scheme keeping per-boundary state never holds a shape of its
    /// own.
    fn reset(&mut self, topology: &Topology);

    /// The latest arrival this scheme provably captures on time in
    /// this cycle, or `None` (the default): "never skip".
    ///
    /// `Some(l)` promises two things:
    ///
    /// * At any stage, every arrival `≤ l` makes [`evaluate`] return
    ///   [`StageOutcome::Ok`] and leaves the scheme in the same state —
    ///   whichever arrival it was. Borrowed time is part of the arrival,
    ///   so this holds for any incoming borrow by construction. The
    ///   pipeline simulator relies on it to hand a provably on-time
    ///   stage that inherits a borrow or a relay chain a worst-case
    ///   stand-in arrival instead of deriving the exact one.
    /// * At a boundary that inherits neither a borrow nor a relay chain
    ///   (no predecessor returned [`StageOutcome::Masked`] in the last
    ///   productive cycle), the simulator may omit the call for an
    ///   arrival `≤ l` altogether, and the scheme's later outcomes must
    ///   be the same as if the call had been made. It may omit every
    ///   call of a cycle. A stateless scheme keeps this for free; a
    ///   scheme whose state crosses cycles must keep what a masked
    ///   violation hands on, and may rely on the boundaries it reaches
    ///   being evaluated. The one exception is the first productive
    ///   cycle after a safe-mode flush: the flush ends the simulator's
    ///   chains but not the scheme's own state, so that cycle evaluates
    ///   every boundary.
    ///
    /// Either way, the outcome, the scheme's state and so every later
    /// outcome are the same as when every stage is evaluated with its
    /// exact arrival.
    ///
    /// [`evaluate`]: SequentialScheme::evaluate
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        let _ = ctx;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_penalties_accessible() {
        assert_eq!(Recovery::Replay { penalty_cycles: 1 }.penalty_cycles(), 1);
        assert_eq!(Recovery::Rollback { penalty_cycles: 5 }.penalty_cycles(), 5);
        assert_eq!(Recovery::Stall { penalty_cycles: 1 }.penalty_cycles(), 1);
    }

    #[test]
    fn corruption_breaks_state_correctness() {
        assert!(StageOutcome::Ok.state_correct());
        assert!(StageOutcome::Masked {
            borrowed: Picos(40),
            flagged: false
        }
        .state_correct());
        assert!(StageOutcome::Predicted.state_correct());
        assert!(!StageOutcome::Corrupted.state_correct());
    }
}
