//! The checking-period schedule: TB and ED intervals after the clock
//! edge.
//!
//! From the paper (§4): for a checking period `c` and recovered timing
//! margin `t`, TIMBER can mask up to `k`-stage timing errors with `c = k
//! · t`. The `k` intervals split into `k_tb` *time-borrowing* (TB)
//! intervals — borrowed silently — followed by `k_ed` *error-detection*
//! (ED) intervals, the first of whose use flags the error to the central
//! error control unit. The error is latched on the falling clock edge,
//! and the remaining `k_ed − 1` ED intervals keep masking while the
//! controller reacts, so the consolidation latency budget is
//! `k_ed − 1 + 0.5` cycles (1.5 cycles in the paper's Fig. 2, which has
//! one TB and two ED intervals).

use std::fmt;

use timber_netlist::Picos;

use crate::error::TimberError;

/// Kind of an interval in the checking period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalKind {
    /// Time-borrowing: used silently, not flagged.
    TimeBorrow,
    /// Error-detection: using it masks the error *and* flags it.
    ErrorDetect,
}

impl fmt::Display for IntervalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalKind::TimeBorrow => write!(f, "TB"),
            IntervalKind::ErrorDetect => write!(f, "ED"),
        }
    }
}

/// A validated checking-period schedule.
///
/// # Example
///
/// ```
/// use timber::{CheckingPeriod, IntervalKind};
/// use timber_netlist::Picos;
///
/// // The paper's Fig. 2: one TB + two ED intervals.
/// let s = CheckingPeriod::new(Picos(1000), 12.0, 1, 2)?;
/// assert_eq!(s.interval(), Picos(40));
/// assert_eq!(s.intervals().len(), 3);
/// assert_eq!(s.intervals()[0], IntervalKind::TimeBorrow);
/// assert!((s.consolidation_budget_cycles() - 1.5).abs() < 1e-9);
/// # Ok::<(), timber::TimberError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckingPeriod {
    period: Picos,
    checking: Picos,
    interval: Picos,
    k_tb: u8,
    k_ed: u8,
}

impl CheckingPeriod {
    /// Builds a schedule for a clock `period`, a checking period of
    /// `checking_pct` percent of it, and `k_tb` TB + `k_ed` ED
    /// intervals.
    ///
    /// # Errors
    ///
    /// * [`TimberError::InvalidPeriod`] if `period` is not positive;
    /// * [`TimberError::EmptySchedule`] if `k_tb + k_ed == 0`;
    /// * [`TimberError::InvalidCheckingPercent`] if `checking_pct`
    ///   is outside `(0, 50]` — the checking period must end before the
    ///   falling clock edge so the error flag can be latched there.
    pub fn new(
        period: Picos,
        checking_pct: f64,
        k_tb: u8,
        k_ed: u8,
    ) -> Result<CheckingPeriod, TimberError> {
        if period <= Picos::ZERO {
            return Err(TimberError::InvalidPeriod);
        }
        if k_tb as usize + k_ed as usize == 0 {
            return Err(TimberError::EmptySchedule);
        }
        if !(checking_pct > 0.0 && checking_pct <= 50.0) {
            return Err(TimberError::InvalidCheckingPercent {
                got_percent_x100: (checking_pct * 100.0) as i64,
            });
        }
        let checking = period.scale(checking_pct / 100.0);
        let k = (k_tb + k_ed) as i64;
        let interval = checking / k;
        if checking > period / 2 {
            return Err(TimberError::CheckingPeriodTooLong {
                checking,
                limit: period / 2,
            });
        }
        Ok(CheckingPeriod {
            period,
            checking,
            interval,
            k_tb,
            k_ed,
        })
    }

    /// The paper's case-study configuration *without* the TB interval
    /// (`k_tb = 0, k_ed = 2`): single-stage timing errors are flagged
    /// immediately, and the recovered margin is the larger `c/2` because
    /// the checking period splits into only two intervals.
    pub fn immediate_flagging(
        period: Picos,
        checking_pct: f64,
    ) -> Result<CheckingPeriod, TimberError> {
        CheckingPeriod::new(period, checking_pct, 0, 2)
    }

    /// The paper's configuration *with* the TB interval (`k_tb = 1,
    /// k_ed = 2`, its Fig. 2): single-stage errors are masked silently
    /// and flagging is deferred to the first two-stage error; the
    /// recovered margin is `c/3`.
    pub fn deferred_flagging(
        period: Picos,
        checking_pct: f64,
    ) -> Result<CheckingPeriod, TimberError> {
        CheckingPeriod::new(period, checking_pct, 1, 2)
    }

    /// Clock period.
    pub fn period(&self) -> Picos {
        self.period
    }

    /// Total checking-period duration `c`.
    pub fn checking(&self) -> Picos {
        self.checking
    }

    /// Duration `t = c / k` of one interval — also the *recovered
    /// timing margin* per stage.
    pub fn interval(&self) -> Picos {
        self.interval
    }

    /// The usable checking window `k × interval`. This is what the
    /// delay-line taps of both cells physically realise; it can be up
    /// to `k − 1` ps shorter than [`checking`](Self::checking) because
    /// the interval is quantised to whole picoseconds.
    pub fn usable_checking(&self) -> Picos {
        self.interval * i64::from(self.k())
    }

    /// The TB region `k_tb × interval`: a borrow reaching past it is
    /// flagged to the central error control unit.
    pub fn tb_window(&self) -> Picos {
        self.interval * i64::from(self.k_tb)
    }

    /// Number of TB intervals.
    pub fn k_tb(&self) -> u8 {
        self.k_tb
    }

    /// Number of ED intervals.
    pub fn k_ed(&self) -> u8 {
        self.k_ed
    }

    /// Total interval count `k`.
    pub fn k(&self) -> u8 {
        self.k_tb + self.k_ed
    }

    /// The interval kinds in order after the clock edge.
    pub fn intervals(&self) -> Vec<IntervalKind> {
        (0..self.k()).map(|i| self.kind_of(i)).collect()
    }

    /// Kind of the `index`-th interval (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index >= k`.
    pub fn kind_of(&self, index: u8) -> IntervalKind {
        assert!(index < self.k(), "interval index out of range");
        if index < self.k_tb {
            IntervalKind::TimeBorrow
        } else {
            IntervalKind::ErrorDetect
        }
    }

    /// Recovered timing margin as a percentage of the clock period.
    ///
    /// Matches the paper's §6: `c/2 %` without the TB interval
    /// (`k = 2`) and `c/3 %` with it (`k = 3`).
    pub fn recovered_margin_pct(&self) -> f64 {
        100.0 * self.interval.ratio(self.period)
    }

    /// Maximum number of pipeline stages across which a timing error can
    /// be masked (`k`; the `k+1`-stage error triggers frequency
    /// reduction).
    pub fn maskable_stages(&self) -> u8 {
        self.k()
    }

    /// Error-consolidation latency budget in clock cycles: `k_ed − 1 +
    /// 0.5` (the half cycle comes from latching the flag on the falling
    /// edge). With no ED intervals at all, errors are flagged on the
    /// first borrow and the budget is the remaining `k − 1 + 0.5`
    /// masked cycles.
    pub fn consolidation_budget_cycles(&self) -> f64 {
        if self.k_ed == 0 {
            self.k() as f64 - 1.0 + 0.5
        } else {
            self.k_ed as f64 - 1.0 + 0.5
        }
    }

    /// The select output a TIMBER flop relays downstream after masking
    /// an error with select input `select`: one interval more than it
    /// just borrowed, saturating at `k − 1` because the delayed clock
    /// cannot reach past the checking period (paper §5.1, Fig. 4).
    #[inline]
    pub fn relayed_select(&self, select: u8) -> u8 {
        (select + 1).min(self.k() - 1)
    }

    /// Number of units that may be borrowed without flagging.
    pub fn silent_units(&self) -> u8 {
        self.k_tb
    }

    /// Splits a borrow of `units` intervals into `(tb_used, ed_used)` —
    /// the paper's `k_tb`/`k_ed` accounting that telemetry summaries
    /// report. Saturates at the schedule's capacity: a borrow deeper
    /// than `k` still only uses `k_tb` TB and `k_ed` ED intervals.
    pub fn units_used(&self, units: u8) -> (u8, u8) {
        let tb = units.min(self.k_tb);
        let ed = units.saturating_sub(self.k_tb).min(self.k_ed);
        (tb, ed)
    }

    /// Hold-time floor implied by the schedule: short paths must exceed
    /// `hold + checking` (paper §4).
    pub fn short_path_floor(&self, hold: Picos) -> Picos {
        hold + self.checking
    }
}

impl fmt::Display for CheckingPeriod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checking {} of {} ({}x{} TB + {}x{} ED)",
            self.checking, self.period, self.k_tb, self.interval, self.k_ed, self.interval
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_schedule_numbers() {
        // 1 TB + 2 ED on 12% of a 1 ns clock: 40ps intervals.
        let s = CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap();
        assert_eq!(s.checking(), Picos(120));
        assert_eq!(s.interval(), Picos(40));
        assert_eq!(s.k(), 3);
        assert_eq!(
            s.intervals(),
            vec![
                IntervalKind::TimeBorrow,
                IntervalKind::ErrorDetect,
                IntervalKind::ErrorDetect
            ]
        );
        assert!((s.consolidation_budget_cycles() - 1.5).abs() < 1e-9);
        assert_eq!(s.maskable_stages(), 3);
        assert_eq!(s.silent_units(), 1);
    }

    #[test]
    fn margin_is_c_over_2_without_ed_and_c_over_3_with_ed() {
        for c in [10.0, 20.0, 30.0, 40.0] {
            let without = CheckingPeriod::immediate_flagging(Picos(10_000), c).unwrap();
            let with = CheckingPeriod::deferred_flagging(Picos(10_000), c).unwrap();
            assert!(
                (without.recovered_margin_pct() - c / 2.0).abs() < 0.05,
                "c={c}: {}",
                without.recovered_margin_pct()
            );
            assert!(
                (with.recovered_margin_pct() - c / 3.0).abs() < 0.05,
                "c={c}: {}",
                with.recovered_margin_pct()
            );
        }
    }

    #[test]
    fn short_path_floor_adds_checking_period() {
        let s = CheckingPeriod::new(Picos(1000), 20.0, 1, 1).unwrap();
        assert_eq!(s.short_path_floor(Picos(20)), Picos(220));
    }

    #[test]
    fn rejects_invalid_configurations() {
        assert_eq!(
            CheckingPeriod::new(Picos(0), 10.0, 1, 1).unwrap_err(),
            TimberError::InvalidPeriod
        );
        assert_eq!(
            CheckingPeriod::new(Picos(1000), 10.0, 0, 0).unwrap_err(),
            TimberError::EmptySchedule
        );
        assert!(matches!(
            CheckingPeriod::new(Picos(1000), 60.0, 1, 1).unwrap_err(),
            TimberError::InvalidCheckingPercent { .. }
        ));
        assert!(matches!(
            CheckingPeriod::new(Picos(1000), 0.0, 1, 1).unwrap_err(),
            TimberError::InvalidCheckingPercent { .. }
        ));
    }

    #[test]
    fn kind_of_boundaries() {
        let s = CheckingPeriod::new(Picos(1000), 30.0, 2, 1).unwrap();
        assert_eq!(s.kind_of(0), IntervalKind::TimeBorrow);
        assert_eq!(s.kind_of(1), IntervalKind::TimeBorrow);
        assert_eq!(s.kind_of(2), IntervalKind::ErrorDetect);
    }

    #[test]
    #[should_panic(expected = "interval index out of range")]
    fn kind_of_range_checked() {
        let s = CheckingPeriod::new(Picos(1000), 30.0, 2, 1).unwrap();
        let _ = s.kind_of(3);
    }

    #[test]
    fn no_ed_budget_uses_all_remaining_intervals() {
        let s = CheckingPeriod::immediate_flagging(Picos(1000), 20.0).unwrap();
        // k = 2, flag on first borrow, one more masked cycle + half.
        assert!((s.consolidation_budget_cycles() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn units_used_splits_tb_then_ed() {
        let s = CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap();
        assert_eq!(s.units_used(0), (0, 0));
        assert_eq!(s.units_used(1), (1, 0));
        assert_eq!(s.units_used(2), (1, 1));
        assert_eq!(s.units_used(3), (1, 2));
        // Saturates at the schedule's capacity.
        assert_eq!(s.units_used(9), (1, 2));
        let imm = CheckingPeriod::immediate_flagging(Picos(1000), 12.0).unwrap();
        assert_eq!(imm.units_used(1), (0, 1));
    }

    #[test]
    fn display_mentions_structure() {
        let s = CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap();
        let txt = s.to_string();
        assert!(txt.contains("TB") && txt.contains("ED"));
    }
}
