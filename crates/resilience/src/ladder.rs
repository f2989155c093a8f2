//! The control law both degradation ladders share.
//!
//! [`LadderGovernor`](crate::LadderGovernor) actuates it as a clock
//! period, `latency_cycles` after each decision; `timber-serve`'s
//! `ServiceGovernor` actuates it at once as an admission policy. When
//! to move a rung is decided here, once. Each closed window (an
//! estimator window of cycles, or one engine batch) carries one scalar
//! signal — flags, or cold demand — sorted against two thresholds:
//!
//! * **hot**, `signal ≥ escalate`: up one rung (the top rung holds);
//! * **calm**, `signal ≤ deescalate`: after `hold` consecutive calm
//!   windows at an elevated rung, down one rung;
//! * **dead zone**, strictly between: the calm streak resets and the
//!   rung holds. With a `deadline`, `deadline` consecutive dead-zone
//!   windows at a rung strictly between nominal and the top escalate
//!   anyway — a rung that cannot calm its own storm may not simmer
//!   forever.
//!
//! At most one rung moves per window, and every move resets both
//! streaks. The streak counters saturate at their thresholds: the law
//! reads them only through `≥ threshold`, so a saturated counter
//! behaves exactly like any larger one. [`LadderCore`] is therefore its
//! own bisimulation quotient — a finite state space an explicit-state
//! search enumerates as is.

/// Index of the top rung; rungs run from `0` (nominal) to `TOP`.
pub const TOP: u8 = 3;

/// The thresholds of one ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderLaw {
    /// Signal at or above which a window is hot.
    pub escalate: u64,
    /// Signal at or below which a window is calm (must be
    /// `< escalate`: the hysteresis band).
    pub deescalate: u64,
    /// Consecutive calm windows required to step down one rung.
    pub hold: u64,
    /// Consecutive dead-zone windows after which a rung strictly
    /// between nominal and the top escalates; `None` lets the dead zone
    /// hold any rung indefinitely.
    pub deadline: Option<u64>,
}

impl LadderLaw {
    /// Checks the hysteresis band and the streak lengths.
    ///
    /// # Panics
    ///
    /// Panics if `deescalate >= escalate`, `hold` is zero or the
    /// deadline is zero windows.
    pub fn validate(&self) {
        assert!(
            self.deescalate < self.escalate,
            "hysteresis requires deescalate < escalate"
        );
        assert!(self.hold > 0, "hold must be at least one window");
        assert!(
            self.deadline != Some(0),
            "deadline must be at least one window"
        );
    }

    /// The published recovery bound at rung `level`: calm windows that
    /// walk it back to nominal from fresh streaks, and so from any
    /// state at that rung.
    pub fn recovery_windows(&self, level: u8) -> u64 {
        self.hold * u64::from(level)
    }
}

/// Window-granular state of one ladder: the rung and both streaks,
/// each saturated at its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LadderCore {
    /// Rung in force (`0` = nominal … [`TOP`]).
    pub level: u8,
    /// Consecutive calm windows at this rung, at most `hold`.
    pub calm: u64,
    /// Consecutive dead-zone windows at this rung, at most the
    /// deadline (always 0 without one).
    pub dirty: u64,
}

impl LadderCore {
    /// Closes one window with `signal` under `law` and returns the new
    /// rung if it moved.
    pub fn close_window(&mut self, law: &LadderLaw, signal: u64) -> Option<u8> {
        let level = self.level;
        let to = if signal >= law.escalate {
            self.calm = 0;
            self.dirty = 0;
            (level < TOP).then(|| level + 1)
        } else if signal <= law.deescalate {
            self.dirty = 0;
            self.calm = (self.calm + 1).min(law.hold);
            (self.calm == law.hold && level > 0).then(|| level - 1)
        } else {
            self.calm = 0;
            let deadline = law.deadline?;
            self.dirty = (self.dirty + 1).min(deadline);
            (self.dirty == deadline && 0 < level && level < TOP).then(|| level + 1)
        }?;
        *self = LadderCore {
            level: to,
            calm: 0,
            dirty: 0,
        };
        Some(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAW: LadderLaw = LadderLaw {
        escalate: 3,
        deescalate: 0,
        hold: 2,
        deadline: Some(4),
    };

    #[test]
    fn hot_windows_climb_one_rung_each_and_the_top_holds() {
        let mut core = LadderCore::default();
        let steps: Vec<_> = (0..5).map(|_| core.close_window(&LAW, 9)).collect();
        assert_eq!(steps, [Some(1), Some(2), Some(3), None, None]);
    }

    #[test]
    fn calm_windows_step_down_every_hold_and_saturate_at_nominal() {
        let mut core = LadderCore {
            level: 2,
            ..LadderCore::default()
        };
        let steps: Vec<_> = (0..6).map(|_| core.close_window(&LAW, 0)).collect();
        assert_eq!(steps, [None, Some(1), None, Some(0), None, None]);
        assert_eq!(core.calm, LAW.hold, "the calm streak saturates at hold");
        assert_eq!(LAW.recovery_windows(2), 4);
    }

    #[test]
    fn the_deadline_escalates_only_intermediate_rungs() {
        for (level, expect) in [(0, None), (1, Some(2)), (2, Some(3)), (3, None)] {
            let mut core = LadderCore {
                level,
                ..LadderCore::default()
            };
            let moved = (0..4).find_map(|_| core.close_window(&LAW, 1));
            assert_eq!(moved, expect, "level {level}");
        }
        let mut top = LadderCore {
            level: TOP,
            ..LadderCore::default()
        };
        for _ in 0..10 {
            top.close_window(&LAW, 1);
        }
        assert_eq!(
            top.dirty, 4,
            "the dead-zone streak saturates at the deadline"
        );
    }

    #[test]
    fn without_a_deadline_the_dead_zone_only_resets_the_calm_streak() {
        let law = LadderLaw {
            deadline: None,
            ..LAW
        };
        let mut core = LadderCore {
            level: 1,
            calm: 1,
            dirty: 0,
        };
        for _ in 0..50 {
            assert_eq!(core.close_window(&law, 1), None);
        }
        assert_eq!(
            core,
            LadderCore {
                level: 1,
                calm: 0,
                dirty: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_band_is_rejected() {
        LadderLaw {
            escalate: 2,
            deescalate: 2,
            ..LAW
        }
        .validate();
    }
}
