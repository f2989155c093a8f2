//! Selective replacement: TIMBER elements at *some* stage boundaries
//! only.
//!
//! The paper's case study replaces only the flip-flops terminating
//! top-c% critical paths (§6); the rest of the design keeps
//! conventional flops. [`SelectiveScheme`] models that at the pipeline
//! level: boundaries marked critical evaluate through a TIMBER scheme,
//! the others through a conventional flop. Borrowed time flowing out of
//! a TIMBER boundary into a conventional one is absorbed only by that
//! stage's slack — exactly the exposure the replacement rule is
//! designed to avoid (a critical stage never feeds a replaced-out
//! boundary, because such a boundary would itself be a top-c% endpoint).

use timber_netlist::Picos;
use timber_pipeline::reference::MarginedFlop;
use timber_pipeline::{CycleContext, SequentialScheme, StageOutcome};

use crate::schedule::CheckingPeriod;
use crate::scheme::TimberFfScheme;

/// A pipeline scheme with TIMBER flip-flops at selected boundaries and
/// conventional flops elsewhere.
#[derive(Debug)]
pub struct SelectiveScheme {
    timber: TimberFfScheme,
    conventional: MarginedFlop,
    is_timber: Vec<bool>,
}

impl SelectiveScheme {
    /// Creates a selective scheme; `is_timber[s]` chooses the element
    /// at boundary `s`.
    ///
    /// # Panics
    ///
    /// Panics if `is_timber` is empty.
    pub fn new(schedule: CheckingPeriod, is_timber: Vec<bool>) -> SelectiveScheme {
        assert!(!is_timber.is_empty(), "need at least one boundary");
        SelectiveScheme {
            timber: TimberFfScheme::new(schedule, is_timber.len()),
            conventional: MarginedFlop::new(),
            is_timber,
        }
    }

    /// Number of boundaries using TIMBER elements.
    pub fn replaced_count(&self) -> usize {
        self.is_timber.iter().filter(|&&b| b).count()
    }

    /// Total boundaries.
    pub fn len(&self) -> usize {
        self.is_timber.len()
    }

    /// True when no boundary exists (never constructed; see `new`).
    pub fn is_empty(&self) -> bool {
        self.is_timber.is_empty()
    }
}

impl SequentialScheme for SelectiveScheme {
    fn name(&self) -> &str {
        "timber-selective"
    }

    fn evaluate(
        &mut self,
        stage: usize,
        arrival: Picos,
        incoming_borrow: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        if self.is_timber[stage] {
            self.timber.evaluate(stage, arrival, incoming_borrow, ctx)
        } else {
            // Keep the TIMBER relay state machine in sync: the
            // conventional boundary contributes a clean (select 0)
            // evaluation at this stage.
            let _ = self.timber.evaluate(stage, Picos::ZERO, Picos::ZERO, ctx);
            self.conventional
                .evaluate(stage, arrival, incoming_borrow, ctx)
        }
    }

    fn reset(&mut self) {
        self.timber.reset();
    }

    /// Both element kinds are on time up to the edge, and the TIMBER
    /// relay sees the same clean evaluation either way.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(cycle: u64) -> CycleContext {
        CycleContext {
            cycle,
            period: Picos(1000),
            nominal_period: Picos(1000),
        }
    }

    fn sched() -> CheckingPeriod {
        CheckingPeriod::deferred_flagging(Picos(1000), 24.0).unwrap()
    }

    #[test]
    fn timber_boundaries_mask_and_conventional_ones_corrupt() {
        let mut s = SelectiveScheme::new(sched(), vec![true, false, true]);
        assert_eq!(s.replaced_count(), 2);
        assert_eq!(s.len(), 3);
        // Boundary 0 (TIMBER) masks a small violation.
        let out = s.evaluate(0, Picos(1040), Picos::ZERO, &ctx(0));
        assert!(matches!(out, StageOutcome::Masked { .. }));
        // Boundary 1 (conventional) corrupts on the same violation.
        let out = s.evaluate(1, Picos(1040), Picos::ZERO, &ctx(0));
        assert_eq!(out, StageOutcome::Corrupted);
        // Boundary 2 (TIMBER) masks.
        let out = s.evaluate(2, Picos(1040), Picos::ZERO, &ctx(0));
        assert!(matches!(out, StageOutcome::Masked { .. }));
    }

    #[test]
    fn on_time_arrivals_pass_everywhere() {
        let mut s = SelectiveScheme::new(sched(), vec![true, false]);
        for stage in 0..2 {
            assert_eq!(
                s.evaluate(stage, Picos(900), Picos::ZERO, &ctx(0)),
                StageOutcome::Ok
            );
        }
    }

    #[test]
    fn relay_still_works_across_timber_boundaries() {
        // TIMBER at 0 and 1: an error at 0 raises 1's select next
        // cycle even with a conventional boundary nearby.
        let mut s = SelectiveScheme::new(sched(), vec![true, true, false]);
        let _ = s.evaluate(0, Picos(1040), Picos::ZERO, &ctx(0));
        let _ = s.evaluate(1, Picos(900), Picos::ZERO, &ctx(0));
        let _ = s.evaluate(2, Picos(900), Picos::ZERO, &ctx(0));
        // Next cycle: boundary 1 masks a 2-unit violation thanks to the
        // relayed select.
        let _ = s.evaluate(0, Picos(900), Picos::ZERO, &ctx(1));
        let out = s.evaluate(1, Picos(1140), Picos(80), &ctx(1));
        assert!(
            matches!(out, StageOutcome::Masked { flagged: true, .. }),
            "relayed select must mask the chained violation: {out:?}"
        );
    }

    #[test]
    fn reset_clears_relay_state() {
        let mut s = SelectiveScheme::new(sched(), vec![true, true]);
        let _ = s.evaluate(0, Picos(1040), Picos::ZERO, &ctx(0));
        s.reset();
        // After reset, boundary 1 has select 0 again: a 2-unit
        // violation escapes.
        let out = s.evaluate(1, Picos(1140), Picos::ZERO, &ctx(1));
        assert_eq!(out, StageOutcome::Corrupted);
    }

    #[test]
    #[should_panic(expected = "at least one boundary")]
    fn empty_selection_rejected() {
        let _ = SelectiveScheme::new(sched(), vec![]);
    }
}
