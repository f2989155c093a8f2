//! Property-based tests (proptest) for the TIMBER core.

#![cfg(test)]

use proptest::prelude::*;

use timber_netlist::Picos;

use crate::flipflop::{CaptureOutcome, TimberFlipFlop};
use crate::latch::TimberLatch;
use crate::relay::ErrorRelay;
use crate::schedule::CheckingPeriod;

fn any_schedule() -> impl Strategy<Value = CheckingPeriod> {
    (500i64..3000, 1.0f64..45.0, 0u8..3, 1u8..3).prop_map(|(period, c, k_tb, k_ed)| {
        CheckingPeriod::new(Picos(period), c, k_tb, k_ed).expect("strategy is valid")
    })
}

proptest! {
    /// Relay algebra: consolidate is a bounded max, select_output is
    /// bounded and resets on no-error.
    #[test]
    fn relay_algebra(
        schedule in any_schedule(),
        selects in proptest::collection::vec(0u8..4, 0..6),
        sel_in in 0u8..4,
    ) {
        let relay = ErrorRelay::new(&schedule);
        let k = schedule.k();
        let out = relay.consolidate(&selects);
        prop_assert!(out < k);
        if let Some(&max) = selects.iter().max() {
            prop_assert_eq!(out, max.min(k - 1));
        } else {
            prop_assert_eq!(out, 0);
        }
        prop_assert_eq!(relay.select_output(false, sel_in), 0);
        prop_assert!(relay.select_output(true, sel_in) < k);
    }

    /// The flip-flop and the latch agree on *whether* a violation is
    /// maskable whenever the flop's select is maximal: the latch's
    /// continuous window equals the flop's saturated sampling delay.
    #[test]
    fn latch_and_saturated_ff_mask_the_same_set(
        schedule in any_schedule(),
        overshoot in 1i64..800,
    ) {
        let period = schedule.period();
        let mut ff = TimberFlipFlop::new(schedule);
        ff.set_select(schedule.k() - 1);
        let mut latch = TimberLatch::new(schedule);
        let arrival = period + Picos(overshoot);
        let ff_masked = ff.capture(arrival, period).masked();
        let latch_masked = latch.capture(arrival, period).masked();
        prop_assert_eq!(ff_masked, latch_masked,
            "k={} interval={} overshoot={}", schedule.k(), schedule.interval(), overshoot);
    }

    /// The flip-flop never borrows more than the checking period, and
    /// the latch never borrows more than the violation.
    #[test]
    fn borrow_amounts_bounded(
        schedule in any_schedule(),
        overshoot in 1i64..800,
        select in 0u8..6,
    ) {
        let period = schedule.period();
        let select = select % schedule.k();
        let mut ff = TimberFlipFlop::new(schedule);
        ff.set_select(select);
        let out = ff.capture(period + Picos(overshoot), period);
        prop_assert!(out.borrowed() <= schedule.checking());
        let mut latch = TimberLatch::new(schedule);
        let out = latch.capture(period + Picos(overshoot), period);
        prop_assert!(out.borrowed() <= Picos(overshoot));
    }

    /// Flagging policy: a masked violation is flagged iff it consumed
    /// an ED interval.
    #[test]
    fn flagging_iff_ed_interval_used(
        schedule in any_schedule(),
        overshoot in 1i64..800,
        select in 0u8..6,
    ) {
        let period = schedule.period();
        let select = select % schedule.k();
        let mut ff = TimberFlipFlop::new(schedule);
        ff.set_select(select);
        if let CaptureOutcome::Masked { units, flagged, .. } =
            ff.capture(period + Picos(overshoot), period)
        {
            prop_assert_eq!(flagged, units > schedule.k_tb());
        }
        let mut latch = TimberLatch::new(schedule);
        if let CaptureOutcome::Masked { flagged, .. } =
            latch.capture(period + Picos(overshoot), period)
        {
            let tb = schedule.interval() * i64::from(schedule.k_tb());
            prop_assert_eq!(flagged, Picos(overshoot) > tb);
        }
    }
}
