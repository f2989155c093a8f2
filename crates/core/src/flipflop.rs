//! Behavioural model of the TIMBER flip-flop (paper §5.1, Fig. 3).
//!
//! The cell contains two master latches sharing one slave latch. M0
//! samples the data at the rising clock edge and drives the slave (and
//! Q) immediately; M1 samples at the rising edge of a *delayed* clock,
//! δ after the main edge, where δ is selected by the 2-bit select input
//! `S1S0` as `(select + 1)` checking-period intervals. After δ, the
//! slave is handed over to M1.
//!
//! * No timing error: M0 and M1 sample the same value — Q never
//!   changes hands visibly and no time is borrowed.
//! * Timing error with overshoot ≤ δ: M0 sampled stale data but M1
//!   samples the correct late-arriving value; the error is masked, and
//!   the downstream stage sees its data δ late — a *discrete* borrow of
//!   `select + 1` whole intervals.
//! * Overshoot > δ: even M1 sampled stale data; the error escapes (the
//!   relay logic exists precisely to raise δ at downstream flops before
//!   this can happen on multi-stage errors).
//!
//! The error signal (M0 ≠ M1) is latched on the falling clock edge; it
//! is flagged to the central error control unit only when the borrowed
//! interval extends into the ED region of the checking period.
//!
//! Because the late data is re-sampled by M1 well after the data-path
//! transition, the TIMBER flip-flop has no data-path metastability
//! problem (paper §5.1).

use timber_netlist::Picos;

use crate::schedule::CheckingPeriod;

/// Result of one capture at a TIMBER flip-flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureOutcome {
    /// Data met the clock edge; select output resets to 0.
    OnTime,
    /// A timing error was masked by borrowing `units` whole intervals.
    Masked {
        /// Intervals borrowed (`select_in + 1`).
        units: u8,
        /// Time handed to the next stage: `units × interval`.
        borrowed: Picos,
        /// True when an ED interval was used, i.e. the error was flagged
        /// to the central error control unit on the falling edge.
        flagged: bool,
        /// Select output relayed downstream (`min(select_in + 1, k-1)`).
        select_out: u8,
    },
    /// The violation exceeded the configured M1 sampling delay: the
    /// state is corrupt and the cell cannot detect it.
    Escaped {
        /// Amount by which the arrival missed even the delayed sample.
        overshoot: Picos,
    },
}

impl CaptureOutcome {
    /// True when the error was masked.
    pub fn masked(&self) -> bool {
        matches!(self, CaptureOutcome::Masked { .. })
    }

    /// True when the error was flagged to the central controller.
    pub fn flagged(&self) -> bool {
        matches!(self, CaptureOutcome::Masked { flagged: true, .. })
    }

    /// Time borrowed from the next stage (zero unless masked).
    pub fn borrowed(&self) -> Picos {
        match *self {
            CaptureOutcome::Masked { borrowed, .. } => borrowed,
            _ => Picos::ZERO,
        }
    }

    /// Select output relayed to downstream flops (zero unless masked).
    pub fn select_out(&self) -> u8 {
        match *self {
            CaptureOutcome::Masked { select_out, .. } => select_out,
            _ => 0,
        }
    }
}

/// Behavioural TIMBER flip-flop.
///
/// # Example
///
/// ```
/// use timber::{CheckingPeriod, TimberFlipFlop};
/// use timber_netlist::Picos;
///
/// let schedule = CheckingPeriod::new(Picos(1000), 12.0, 1, 2)?;
/// let mut ff = TimberFlipFlop::new(schedule);
/// assert!(ff.capture(Picos(990), Picos(1000)) == timber::CaptureOutcome::OnTime);
/// let masked = ff.capture(Picos(1025), Picos(1000));
/// assert_eq!(masked.borrowed(), Picos(40)); // one whole 40 ps unit
/// # Ok::<(), timber::TimberError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TimberFlipFlop {
    schedule: CheckingPeriod,
    select: u8,
    enabled: bool,
}

impl TimberFlipFlop {
    /// Creates a flip-flop with select input 0 and time borrowing
    /// enabled.
    pub fn new(schedule: CheckingPeriod) -> TimberFlipFlop {
        TimberFlipFlop {
            schedule,
            select: 0,
            enabled: true,
        }
    }

    /// The checking-period schedule the cell was built for.
    pub fn schedule(&self) -> &CheckingPeriod {
        &self.schedule
    }

    /// Current select input (number of *extra* intervals beyond the
    /// first that M1 waits).
    pub fn select(&self) -> u8 {
        self.select
    }

    /// Sets the select input (driven by the error-relay logic).
    ///
    /// # Panics
    ///
    /// Panics if `select >= k` (the delayed clock cannot reach past the
    /// checking period).
    pub fn set_select(&mut self, select: u8) {
        assert!(
            select < self.schedule.k(),
            "select {select} out of range for k = {}",
            self.schedule.k()
        );
        self.select = select;
    }

    /// Enables or disables time borrowing (`EN` pin). Disabled, the
    /// cell degenerates to a conventional master-slave flip-flop.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True when time borrowing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The M1 sampling delay δ for the current select input.
    pub fn sampling_delay(&self) -> Picos {
        self.schedule.interval() * (self.select as i64 + 1)
    }

    /// Evaluates one capture: data stabilises at `arrival` (measured
    /// from the launching edge) against a capturing edge at `period`.
    ///
    /// The select input resets to 0 on a clean capture, mirroring the
    /// relay rule "if no error occurs, the select output is 00".
    pub fn capture(&mut self, arrival: Picos, period: Picos) -> CaptureOutcome {
        if !self.enabled && arrival > period {
            return CaptureOutcome::Escaped {
                overshoot: arrival - period,
            };
        }
        let out = TimberFlipFlop::resolve(&self.schedule, self.select, arrival, period);
        if out == CaptureOutcome::OnTime {
            self.select = 0;
        }
        out
    }

    /// The capture arithmetic of an enabled cell whose select input is
    /// `select`, as a pure function: [`capture`](Self::capture) applies
    /// it to the cell's own state, and the 64-lane batch engine to its
    /// select planes.
    #[inline]
    pub fn resolve(
        schedule: &CheckingPeriod,
        select: u8,
        arrival: Picos,
        period: Picos,
    ) -> CaptureOutcome {
        let overshoot = arrival - period;
        if overshoot <= Picos::ZERO {
            return CaptureOutcome::OnTime;
        }
        let delta = schedule.interval() * (i64::from(select) + 1);
        if overshoot <= delta {
            let units = select + 1;
            CaptureOutcome::Masked {
                units,
                borrowed: delta,
                // Flag when any borrowed interval lies in the ED region.
                flagged: units > schedule.k_tb(),
                select_out: schedule.relayed_select(select),
            }
        } else {
            CaptureOutcome::Escaped {
                overshoot: overshoot - delta,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> CheckingPeriod {
        // 1 TB + 2 ED, 120ps checking on 1000ps clock: 40ps units.
        CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap()
    }

    #[test]
    fn on_time_capture_resets_select() {
        let mut ff = TimberFlipFlop::new(sched());
        ff.set_select(2);
        assert_eq!(ff.capture(Picos(800), Picos(1000)), CaptureOutcome::OnTime);
        assert_eq!(ff.select(), 0);
    }

    #[test]
    fn single_stage_error_masked_silently() {
        // select 0 -> delta 40ps; 30ps overshoot masked, TB interval
        // only: not flagged.
        let mut ff = TimberFlipFlop::new(sched());
        let out = ff.capture(Picos(1030), Picos(1000));
        assert_eq!(
            out,
            CaptureOutcome::Masked {
                units: 1,
                borrowed: Picos(40),
                flagged: false,
                select_out: 1,
            }
        );
        assert!(out.masked());
        assert!(!out.flagged());
    }

    #[test]
    fn second_stage_error_flagged() {
        // Downstream flop with relayed select 1 -> delta 80ps; the
        // second borrowed interval is ED: flagged.
        let mut ff = TimberFlipFlop::new(sched());
        ff.set_select(1);
        let out = ff.capture(Picos(1070), Picos(1000));
        assert_eq!(
            out,
            CaptureOutcome::Masked {
                units: 2,
                borrowed: Picos(80),
                flagged: true,
                select_out: 2,
            }
        );
    }

    #[test]
    fn select_out_saturates_at_k_minus_1() {
        let mut ff = TimberFlipFlop::new(sched());
        ff.set_select(2);
        let out = ff.capture(Picos(1110), Picos(1000));
        assert_eq!(out.select_out(), 2);
        assert!(out.flagged());
    }

    #[test]
    fn overshoot_beyond_delta_escapes() {
        let mut ff = TimberFlipFlop::new(sched());
        // select 0 -> delta 40; 70ps overshoot escapes by 30.
        let out = ff.capture(Picos(1070), Picos(1000));
        assert_eq!(
            out,
            CaptureOutcome::Escaped {
                overshoot: Picos(30)
            }
        );
        assert_eq!(out.borrowed(), Picos::ZERO);
    }

    #[test]
    fn exact_boundary_is_masked() {
        let mut ff = TimberFlipFlop::new(sched());
        let out = ff.capture(Picos(1040), Picos(1000));
        assert!(out.masked());
    }

    #[test]
    fn disabled_cell_is_conventional() {
        let mut ff = TimberFlipFlop::new(sched());
        ff.set_enabled(false);
        assert!(!ff.is_enabled());
        assert_eq!(ff.capture(Picos(900), Picos(1000)), CaptureOutcome::OnTime);
        assert!(matches!(
            ff.capture(Picos(1010), Picos(1000)),
            CaptureOutcome::Escaped { .. }
        ));
    }

    #[test]
    fn immediate_flagging_schedule_flags_first_borrow() {
        // k_tb = 0: the very first borrowed interval is ED.
        let s = CheckingPeriod::immediate_flagging(Picos(1000), 20.0).unwrap();
        let mut ff = TimberFlipFlop::new(s);
        let out = ff.capture(Picos(1050), Picos(1000));
        assert!(out.flagged());
    }

    #[test]
    fn sampling_delay_scales_with_select() {
        let mut ff = TimberFlipFlop::new(sched());
        assert_eq!(ff.sampling_delay(), Picos(40));
        ff.set_select(2);
        assert_eq!(ff.sampling_delay(), Picos(120));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_range_checked() {
        let mut ff = TimberFlipFlop::new(sched());
        ff.set_select(3);
    }
}
