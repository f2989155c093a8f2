//! Behavioural model of the TIMBER latch (paper §5.2, Fig. 6).
//!
//! The cell is a pair of pulse-gated latches operating independently in
//! time-borrowing mode: the master is transparent during the TB region
//! of the checking period, the slave for the *entire* checking period,
//! and Q is taken from the slave. A late-arriving transition anywhere in
//! the checking period flows straight through the transparent slave —
//! *continuous* time borrowing, so the downstream stage is delayed by
//! exactly the violation amount, and no error-relay logic is needed.
//!
//! A timing error is detected by comparing master and slave on the
//! falling clock edge: if the data arrived after the master went opaque
//! (i.e. beyond the TB region) the two differ and the error is flagged.
//! Arrivals within the TB region update both latches identically, so
//! the TIMBER latch never flags a false error — at the cost of
//! propagating glitches and spurious transitions during the checking
//! period, and of losing the edge-sampling property (both noted in the
//! paper and reproduced by the circuit-level model in [`crate::circuit`]).

use timber_netlist::Picos;

use crate::flipflop::CaptureOutcome;
use crate::schedule::CheckingPeriod;

/// Behavioural TIMBER latch.
///
/// # Example
///
/// ```
/// use timber::{CheckingPeriod, TimberLatch};
/// use timber_netlist::Picos;
///
/// let schedule = CheckingPeriod::new(Picos(1000), 12.0, 1, 2)?;
/// let mut latch = TimberLatch::new(schedule);
/// // A 25 ps violation borrows exactly 25 ps (continuous borrowing).
/// let out = latch.capture(Picos(1025), Picos(1000));
/// assert_eq!(out.borrowed(), Picos(25));
/// assert!(!out.flagged());
/// # Ok::<(), timber::TimberError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TimberLatch {
    schedule: CheckingPeriod,
    enabled: bool,
}

impl TimberLatch {
    /// Creates a latch with time borrowing enabled.
    pub fn new(schedule: CheckingPeriod) -> TimberLatch {
        TimberLatch {
            schedule,
            enabled: true,
        }
    }

    /// The checking-period schedule.
    pub fn schedule(&self) -> &CheckingPeriod {
        &self.schedule
    }

    /// Enables or disables time borrowing (`EN` pin).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True when time borrowing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Duration of the master's transparency window (the TB region).
    pub fn tb_window(&self) -> Picos {
        self.schedule.tb_window()
    }

    /// Duration of the slave's transparency window: the usable checking
    /// period (`k × interval`, as the delay-line taps realise it).
    pub fn checking_window(&self) -> Picos {
        self.schedule.usable_checking()
    }

    /// Evaluates one capture: data stabilises at `arrival` against a
    /// capturing edge at `period`.
    ///
    /// Outcomes reuse [`CaptureOutcome`]; `units` reports how many
    /// whole intervals the violation spans (rounded up) and
    /// `select_out` is always 0 because the latch needs no relay.
    pub fn capture(&mut self, arrival: Picos, period: Picos) -> CaptureOutcome {
        if !self.enabled && arrival > period {
            return CaptureOutcome::Escaped {
                overshoot: arrival - period,
            };
        }
        TimberLatch::resolve(&self.schedule, arrival, period)
    }

    /// The capture arithmetic of an enabled latch as a pure function,
    /// shared by [`capture`](Self::capture) and the 64-lane batch
    /// engine.
    #[inline]
    pub fn resolve(schedule: &CheckingPeriod, arrival: Picos, period: Picos) -> CaptureOutcome {
        let overshoot = arrival - period;
        if overshoot <= Picos::ZERO {
            return CaptureOutcome::OnTime;
        }
        let window = schedule.usable_checking();
        if overshoot <= window {
            let interval = schedule.interval().as_ps().max(1);
            // Signed div_ceil is unstable; both operands are positive.
            let units = ((overshoot.as_ps() + interval - 1) / interval) as u8;
            CaptureOutcome::Masked {
                units,
                borrowed: overshoot, // continuous borrowing
                flagged: overshoot > schedule.tb_window(),
                select_out: 0,
            }
        } else {
            CaptureOutcome::Escaped {
                overshoot: overshoot - window,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap()
    }

    #[test]
    fn windows_derived_from_schedule() {
        let l = TimberLatch::new(sched());
        assert_eq!(l.tb_window(), Picos(40));
        assert_eq!(l.checking_window(), Picos(120));
    }

    #[test]
    fn violation_in_tb_region_masked_silently() {
        let mut l = TimberLatch::new(sched());
        let out = l.capture(Picos(1030), Picos(1000));
        assert_eq!(
            out,
            CaptureOutcome::Masked {
                units: 1,
                borrowed: Picos(30),
                flagged: false,
                select_out: 0,
            }
        );
    }

    #[test]
    fn borrowing_is_continuous_not_quantized() {
        let mut l = TimberLatch::new(sched());
        // 7ps violation borrows 7ps — unlike the FF, which would borrow
        // a whole 40ps unit.
        assert_eq!(l.capture(Picos(1007), Picos(1000)).borrowed(), Picos(7));
        assert_eq!(l.capture(Picos(1093), Picos(1000)).borrowed(), Picos(93));
    }

    #[test]
    fn violation_beyond_tb_region_flagged() {
        let mut l = TimberLatch::new(sched());
        let out = l.capture(Picos(1065), Picos(1000));
        assert!(out.masked());
        assert!(out.flagged());
    }

    #[test]
    fn boundary_of_tb_region_not_flagged() {
        let mut l = TimberLatch::new(sched());
        // Exactly at the master's closing edge: both latches agree.
        let out = l.capture(Picos(1040), Picos(1000));
        assert!(out.masked());
        assert!(!out.flagged());
    }

    #[test]
    fn violation_beyond_checking_period_escapes() {
        let mut l = TimberLatch::new(sched());
        let out = l.capture(Picos(1150), Picos(1000));
        assert_eq!(
            out,
            CaptureOutcome::Escaped {
                overshoot: Picos(30)
            }
        );
    }

    #[test]
    fn disabled_latch_is_conventional() {
        let mut l = TimberLatch::new(sched());
        l.set_enabled(false);
        assert!(matches!(
            l.capture(Picos(1005), Picos(1000)),
            CaptureOutcome::Escaped { .. }
        ));
        assert_eq!(l.capture(Picos(900), Picos(1000)), CaptureOutcome::OnTime);
    }

    #[test]
    fn never_flags_false_error_when_on_time() {
        let mut l = TimberLatch::new(sched());
        for a in (0..=1000).step_by(50) {
            assert_eq!(l.capture(Picos(a), Picos(1000)), CaptureOutcome::OnTime);
        }
    }
}
