//! Central error control unit: error consolidation and temporary
//! frequency reduction.
//!
//! In TIMBER (paper §4), flagged error signals from all sequential
//! elements are consolidated through an OR-tree; the error is latched on
//! the *falling* clock edge, buying half a cycle, and with `k_ed` ED
//! intervals the consolidation may take up to `k_ed - 1 + 0.5` cycles
//! before the controller must have reduced the clock frequency. The
//! controller here models that latency and applies a bounded, temporary
//! slowdown.

use timber_netlist::Picos;

/// Frequency-reduction controller.
#[derive(Debug, Clone)]
pub struct FrequencyController {
    nominal_period: Picos,
    /// Period in force while slowed: `nominal_period` scaled by
    /// `1 + slowdown_factor` (e.g. 0.10 = 10% slower clock), computed
    /// once in [`FrequencyController::new`].
    slowed_period: Picos,
    /// How long a slowdown episode lasts, in cycles.
    slowdown_window: u64,
    /// Consolidation latency in cycles from flag to actuation.
    latency_cycles: u64,
    /// Cycle at which the pending flag actuates (if any).
    pending_until: Option<u64>,
    /// Cycle at which the current slowdown episode ends (if any).
    slow_until: Option<u64>,
    /// Number of slowdown episodes started.
    episodes: u64,
    /// Highest cycle seen by [`FrequencyController::period_at`], for
    /// the monotonic-query contract.
    last_cycle: u64,
}

impl FrequencyController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown_factor` is negative or `slowdown_window` is
    /// zero.
    pub fn new(
        nominal_period: Picos,
        slowdown_factor: f64,
        slowdown_window: u64,
        latency_cycles: u64,
    ) -> FrequencyController {
        assert!(
            slowdown_factor >= 0.0,
            "slowdown factor must be non-negative"
        );
        assert!(slowdown_window > 0, "slowdown window must be positive");
        FrequencyController {
            nominal_period,
            slowed_period: nominal_period.scale(1.0 + slowdown_factor),
            slowdown_window,
            latency_cycles,
            pending_until: None,
            slow_until: None,
            episodes: 0,
            last_cycle: 0,
        }
    }

    /// Records a flagged error at `cycle`; actuation happens after the
    /// consolidation latency. Flagging during an already-active episode
    /// is absorbed (the earliest pending actuation wins; episodes do
    /// not stack).
    pub fn flag_error(&mut self, cycle: u64) {
        let actuate = cycle + self.latency_cycles;
        match self.pending_until {
            Some(existing) if existing <= actuate => {}
            _ => self.pending_until = Some(actuate),
        }
    }

    /// Advances to `cycle` and returns the clock period in force.
    ///
    /// # Query contract
    ///
    /// `period_at` mutates episode state under the assumption that
    /// cycles are queried in non-decreasing order (the simulator's hot
    /// loop guarantees this). A regressing query is a caller bug: debug
    /// builds assert, and release builds answer it *read-only* from the
    /// current episode state — the historical period is not
    /// reconstructed, and no pending actuation or expiry is processed,
    /// so the estimator can never be rewound by a bad caller.
    pub fn period_at(&mut self, cycle: u64) -> Picos {
        debug_assert!(
            cycle >= self.last_cycle,
            "FrequencyController::period_at must be queried with non-decreasing \
             cycles (got {cycle} after {})",
            self.last_cycle
        );
        if cycle < self.last_cycle {
            return self.period_readonly(cycle);
        }
        self.last_cycle = cycle;
        if let Some(actuate) = self.pending_until {
            if cycle >= actuate {
                self.pending_until = None;
                self.slow_until = Some(cycle + self.slowdown_window);
                self.episodes += 1;
            }
        }
        if let Some(until) = self.slow_until {
            if cycle < until {
                return self.slowed_period;
            }
            self.slow_until = None;
        }
        self.nominal_period
    }

    /// The period a regressed query observes: the current episode state
    /// at `cycle`, with no mutation.
    fn period_readonly(&self, cycle: u64) -> Picos {
        match self.slow_until {
            Some(until) if cycle < until => self.slowed_period,
            _ => self.nominal_period,
        }
    }

    /// The next cycle at which [`FrequencyController::period_at`]
    /// changes this controller's state — the pending actuation or the
    /// end of the active slowdown, whichever comes first — or `None`
    /// when neither is scheduled. Every transition is a level-triggered
    /// `cycle >= threshold` check, so between transitions `period_at`
    /// returns the same period and a caller may skip those queries.
    pub fn next_transition(&self) -> Option<u64> {
        match (self.pending_until, self.slow_until) {
            (Some(actuate), Some(until)) => Some(actuate.min(until)),
            (actuate, until) => actuate.or(until),
        }
    }

    /// True while the clock is currently slowed.
    pub fn is_slowed(&self) -> bool {
        self.slow_until.is_some()
    }

    /// Number of slowdown episodes started so far.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Clears all pending state (including the monotonic-query
    /// watermark: a reset controller accepts cycle 0 again).
    pub fn reset(&mut self) {
        self.pending_until = None;
        self.slow_until = None;
        self.episodes = 0;
        self.last_cycle = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_until_flagged() {
        let mut c = FrequencyController::new(Picos(1000), 0.1, 100, 2);
        assert_eq!(c.period_at(0), Picos(1000));
        c.flag_error(10);
        // Latency of 2 cycles: still nominal at 11.
        assert_eq!(c.period_at(11), Picos(1000));
        assert_eq!(c.period_at(12), Picos(1100));
        assert!(c.is_slowed());
        assert_eq!(c.episodes(), 1);
    }

    #[test]
    fn slowdown_expires() {
        let mut c = FrequencyController::new(Picos(1000), 0.1, 50, 0);
        c.flag_error(0);
        assert_eq!(c.period_at(0), Picos(1100));
        assert_eq!(c.period_at(49), Picos(1100));
        assert_eq!(c.period_at(50), Picos(1000));
        assert!(!c.is_slowed());
    }

    #[test]
    fn repeated_flags_do_not_stack() {
        let mut c = FrequencyController::new(Picos(1000), 0.2, 10, 1);
        c.flag_error(0);
        c.flag_error(0);
        c.flag_error(1);
        assert_eq!(c.period_at(1), Picos(1200));
        assert_eq!(c.episodes(), 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = FrequencyController::new(Picos(1000), 0.1, 10, 0);
        c.flag_error(5);
        let _ = c.period_at(5);
        c.reset();
        assert_eq!(c.period_at(6), Picos(1000));
        assert_eq!(c.episodes(), 0);
    }

    #[test]
    fn slowed_period_is_the_scaled_nominal_after_new_and_reset() {
        for (nominal, factor) in [(997, 0.1005), (1000, 0.1), (813, 0.25), (640, 0.0)] {
            let slowed = Picos(nominal).scale(1.0 + factor);
            let mut c = FrequencyController::new(Picos(nominal), factor, 10, 0);
            c.flag_error(0);
            assert_eq!(c.period_at(0), slowed, "{nominal}·(1 + {factor})");
            assert_eq!(c.period_readonly(0), slowed);
            c.reset();
            assert_eq!(c.period_at(0), Picos(nominal));
            c.flag_error(1);
            assert_eq!(c.period_at(1), slowed, "after reset");
        }
    }

    #[test]
    #[should_panic(expected = "slowdown window must be positive")]
    fn window_validated() {
        let _ = FrequencyController::new(Picos(1000), 0.1, 0, 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-decreasing cycles"))]
    fn out_of_order_query_asserts_in_debug() {
        // Debug builds reject the regression outright; release builds
        // answer it read-only (covered by the test below).
        let mut c = FrequencyController::new(Picos(1000), 0.1, 100, 2);
        let _ = c.period_at(50);
        let _ = c.period_at(10);
        // Release-only fallthrough: the regressed query must not have
        // perturbed forward state.
        assert_eq!(c.period_at(51), Picos(1000));
    }

    #[test]
    fn regressed_query_does_not_rewind_an_episode() {
        // Exercise the read-only path directly (works in both build
        // profiles: the queries stay monotone, then we inspect the
        // read-only helper the release path uses).
        let mut c = FrequencyController::new(Picos(1000), 0.1, 50, 0);
        c.flag_error(10);
        assert_eq!(c.period_at(10), Picos(1100));
        // Mid-episode: a historical query sees the *current* episode
        // state, never a reconstruction, and mutates nothing.
        assert_eq!(c.period_readonly(5), Picos(1100));
        assert_eq!(c.period_readonly(59), Picos(1100));
        assert_eq!(c.period_readonly(60), Picos(1000));
        assert!(c.is_slowed());
        assert_eq!(c.episodes(), 1);
        // Forward progress unaffected.
        assert_eq!(c.period_at(59), Picos(1100));
        assert_eq!(c.period_at(60), Picos(1000));
    }

    #[test]
    fn flag_during_active_episode_does_not_stack() {
        let mut c = FrequencyController::new(Picos(1000), 0.1, 50, 2);
        c.flag_error(0);
        assert_eq!(c.period_at(2), Picos(1100));
        assert_eq!(c.episodes(), 1);
        // Flag again mid-episode: a second episode starts only after
        // the new actuation point, and the count reflects it — the
        // window is extended, not multiplied.
        c.flag_error(10);
        assert_eq!(c.period_at(12), Picos(1100));
        assert_eq!(c.episodes(), 2);
        // The refreshed episode ends 50 cycles after its actuation.
        assert_eq!(c.period_at(61), Picos(1100));
        assert_eq!(c.period_at(62), Picos(1000));
        assert!(!c.is_slowed());
    }

    #[test]
    fn next_transition_names_the_actuation_then_the_expiry() {
        let mut c = FrequencyController::new(Picos(1000), 0.1, 50, 2);
        assert_eq!(c.next_transition(), None);
        c.flag_error(10);
        assert_eq!(c.next_transition(), Some(12));
        // Nothing changes before the actuation.
        assert_eq!(c.period_at(11), Picos(1000));
        assert_eq!(c.next_transition(), Some(12));
        assert_eq!(c.period_at(12), Picos(1100));
        assert_eq!(c.next_transition(), Some(62));
        // A flag mid-episode actuates before the expiry and pushes it
        // out; the actuation is the next transition.
        c.flag_error(20);
        assert_eq!(c.next_transition(), Some(22));
        assert_eq!(c.period_at(22), Picos(1100));
        assert_eq!(c.next_transition(), Some(72));
        assert_eq!(c.period_at(72), Picos(1000));
        assert_eq!(c.next_transition(), None);
        assert_eq!(c.episodes(), 2);
    }

    #[test]
    fn stepping_only_at_transitions_matches_stepping_every_cycle() {
        // Flags at fixed cycles, some inside episodes, some with the
        // actuation landing on the expiry cycle.
        let flags = [3u64, 5, 40, 52, 53, 120, 171, 300];
        for latency in [0, 1, 2, 5] {
            let mut every = FrequencyController::new(Picos(1000), 0.25, 50, latency);
            let mut lazy = every.clone();
            let (mut slow_every, mut slow_lazy) = (0u64, 0u64);
            let mut lazy_period = Picos(1000);
            let mut at = u64::MAX;
            for t in 0..400 {
                let p = every.period_at(t);
                slow_every += u64::from(every.is_slowed());
                if t >= at {
                    lazy_period = lazy.period_at(t);
                    at = lazy.next_transition().unwrap_or(u64::MAX);
                }
                slow_lazy += u64::from(lazy.is_slowed());
                assert_eq!(lazy_period, p, "latency {latency}, cycle {t}");
                if flags.contains(&t) {
                    every.flag_error(t);
                    lazy.flag_error(t);
                    at = lazy.next_transition().unwrap();
                }
            }
            assert_eq!(slow_lazy, slow_every, "latency {latency}");
            assert_eq!(lazy.episodes(), every.episodes(), "latency {latency}");
        }
    }

    #[test]
    fn reset_clears_the_monotonic_watermark() {
        let mut c = FrequencyController::new(Picos(1000), 0.1, 10, 0);
        let _ = c.period_at(500);
        c.reset();
        // Accepting cycle 0 again must not trip the contract.
        assert_eq!(c.period_at(0), Picos(1000));
    }
}
