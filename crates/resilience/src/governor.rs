//! The closed-loop degraded-mode governor.
//!
//! The paper's central error control unit reduces clock frequency when
//! a flagged error escapes the TB intervals (§4). A single open-loop
//! pulse is the right response to an *isolated* flag, but a sustained
//! error storm — a resonant droop train, aging drift pushing a whole
//! region past its margin — keeps flagging faster than one fixed
//! episode can drain. [`LadderGovernor`] closes the loop: a windowed
//! flag-rate estimator drives a four-level escalation ladder with
//! hysteresis, a bounded escalation deadline, and guaranteed
//! de-escalation back to nominal once flags cease.
//!
//! # The ladder
//!
//! | level | name          | meaning                                       |
//! |-------|---------------|-----------------------------------------------|
//! | 0     | nominal       | full frequency                                |
//! | 1     | throttle      | the paper's temporary slow-down               |
//! | 2     | deep-throttle | storm persists: slow further                  |
//! | 3     | safe-mode     | replay fallback: flush in-flight borrows and  |
//! |       |               | re-execute at a conservatively slow clock     |
//!
//! Safe-mode is deliberately a *Razor-style* fallback rather than more
//! TIMBER masking: when the flag rate shows the environment has shifted
//! beyond what the checking period can absorb, continuing to borrow
//! would accumulate unbounded multi-stage chains; discarding the
//! speculative borrow state and replaying at a safe clock is the only
//! mode with a correctness guarantee.
//!
//! # Control law
//!
//! Cycles are grouped into fixed windows of `window` cycles. At each
//! window close, the flag count `F` of the closed window drives one
//! decision of the shared [`ladder`](crate::ladder) core, actuated
//! `latency_cycles` later (the consolidation budget):
//!
//! * `F ≥ escalate_flags` → escalate one level;
//! * `F ≤ deescalate_flags` → a *clean* window; after `hold_windows`
//!   consecutive clean windows, de-escalate one level;
//! * otherwise (the hysteresis dead zone) at an elevated level: after
//!   `deadline_windows` consecutive not-clean windows at the same
//!   level, escalate anyway — the bounded recovery deadline. A level
//!   either recovers within its deadline or stops pretending it can.
//!
//! Every transition is reported through [`LadderGovernor::take_transition`]
//! so the simulator can emit telemetry events and perform the
//! safe-mode replay flush.
//!
//! # Query contract
//!
//! Like `timber_pipeline::FrequencyController`, [`LadderGovernor::period_at`]
//! must be queried with non-decreasing cycles; a regressing query is a
//! caller bug (debug builds assert). Release builds answer a regressed
//! query from the current level without rewinding the estimator.

use timber_netlist::Picos;

use crate::ladder::{LadderCore, LadderLaw, TOP};

/// One rung of the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GovernorLevel {
    /// Full frequency.
    Nominal,
    /// The paper's temporary slow-down.
    Throttle,
    /// Sustained storm: slow further.
    DeepThrottle,
    /// Replay fallback at a conservatively slow clock.
    SafeMode,
}

impl GovernorLevel {
    /// All levels, bottom to top.
    pub const ALL: [GovernorLevel; TOP as usize + 1] = [
        GovernorLevel::Nominal,
        GovernorLevel::Throttle,
        GovernorLevel::DeepThrottle,
        GovernorLevel::SafeMode,
    ];

    /// Ladder index (0 = nominal … 3 = safe-mode).
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            GovernorLevel::Nominal => "nominal",
            GovernorLevel::Throttle => "throttle",
            GovernorLevel::DeepThrottle => "deep-throttle",
            GovernorLevel::SafeMode => "safe-mode",
        }
    }
}

/// Tuning of the [`LadderGovernor`] (all plain scalars, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Flag-rate estimator window, in cycles.
    pub window: u64,
    /// Flags in one window at or above which the governor escalates.
    pub escalate_flags: u64,
    /// Flags in one window at or below which the window counts as
    /// clean (must be `< escalate_flags`: the hysteresis band).
    pub deescalate_flags: u64,
    /// Consecutive clean windows required to step down one level.
    pub hold_windows: u64,
    /// Consecutive not-clean windows an elevated level may linger in
    /// the hysteresis dead zone before the deadline forces another
    /// escalation.
    pub deadline_windows: u64,
    /// Consolidation latency from decision to actuation, in cycles
    /// (must be `< window`).
    pub latency_cycles: u64,
    /// Extra period at [`GovernorLevel::Throttle`] (0.10 = 10% slower).
    pub throttle_factor: f64,
    /// Extra period at [`GovernorLevel::DeepThrottle`].
    pub deep_factor: f64,
    /// Extra period at [`GovernorLevel::SafeMode`] — the ladder
    /// maximum: no period the governor ever returns exceeds
    /// `nominal * (1 + safe_factor)`.
    pub safe_factor: f64,
}

impl Default for GovernorConfig {
    /// Paper-consistent defaults: 64-cycle estimator windows, a 2-cycle
    /// consolidation latency (the Fig. 2 budget rounded up), 10%
    /// throttle matching the open-loop controller, 25% deep throttle,
    /// 50% safe-mode.
    fn default() -> GovernorConfig {
        GovernorConfig {
            window: 64,
            escalate_flags: 8,
            deescalate_flags: 1,
            hold_windows: 4,
            deadline_windows: 8,
            latency_cycles: 2,
            throttle_factor: 0.10,
            deep_factor: 0.25,
            safe_factor: 0.50,
        }
    }
}

impl GovernorConfig {
    /// The shared ladder law over per-window flag counts.
    fn law(&self) -> LadderLaw {
        LadderLaw {
            escalate: self.escalate_flags,
            deescalate: self.deescalate_flags,
            hold: self.hold_windows,
            deadline: Some(self.deadline_windows),
        }
    }

    fn validate(&self) {
        assert!(self.window > 0, "estimator window must be positive");
        self.law().validate();
        assert!(
            self.latency_cycles < self.window,
            "actuation latency must fit inside one window"
        );
        assert!(
            0.0 <= self.throttle_factor
                && self.throttle_factor <= self.deep_factor
                && self.deep_factor <= self.safe_factor,
            "ladder factors must be non-negative and non-decreasing"
        );
    }

    fn factor(&self, level: GovernorLevel) -> f64 {
        match level {
            GovernorLevel::Nominal => 0.0,
            GovernorLevel::Throttle => self.throttle_factor,
            GovernorLevel::DeepThrottle => self.deep_factor,
            GovernorLevel::SafeMode => self.safe_factor,
        }
    }
}

/// One actuated ladder transition, reported exactly once through
/// [`LadderGovernor::take_transition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderTransition {
    /// Cycle at which the new level took effect.
    pub cycle: u64,
    /// Level left.
    pub from: GovernorLevel,
    /// Level entered.
    pub to: GovernorLevel,
    /// Period in force at the new level.
    pub period: Picos,
}

impl LadderTransition {
    /// True for an upward (escalating) transition.
    pub fn is_escalation(&self) -> bool {
        self.to > self.from
    }
}

/// Window-granular control state of a [`LadderGovernor`], normalized so
/// the currently open estimator window starts at cycle 0.
///
/// This is the exact state space an explicit-state reachability check
/// must enumerate: the ladder level, both hysteresis counters, and any
/// decision still awaiting actuation (its cycle re-based to the window
/// start). The counters come from the shared ladder core, which
/// saturates them at their thresholds, so the set of states a governor
/// can report is finite — the bisimulation quotient, with no
/// normalization left to the caller. Per-cycle bookkeeping
/// (`flags_in_window`, `last_cycle`, lifetime counters) is deliberately
/// excluded — captured *at a window boundary* it is always zero.
/// `timber-analyze` drives [`LadderGovernor::restore`] +
/// [`LadderGovernor::state`] to prove the published
/// [`LadderGovernor::recovery_bound`] from structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GovernorState {
    /// Ladder level in force.
    pub level: GovernorLevel,
    /// Consecutive clean windows observed at this level.
    pub clean_windows: u64,
    /// Consecutive dead-zone windows observed at this level.
    pub dirty_windows: u64,
    /// Decision awaiting actuation: (cycles after the open window's
    /// start, target level).
    pub pending: Option<(u64, GovernorLevel)>,
}

impl GovernorState {
    /// The state every governor starts in.
    pub fn initial() -> GovernorState {
        GovernorState {
            level: GovernorLevel::Nominal,
            clean_windows: 0,
            dirty_windows: 0,
            pending: None,
        }
    }
}

/// The closed-loop escalation-ladder governor. See the module docs for
/// the control law.
#[derive(Debug, Clone)]
pub struct LadderGovernor {
    nominal: Picos,
    config: GovernorConfig,
    /// The clock period at each level (by [`GovernorLevel::index`]):
    /// `nominal` scaled by `1 + factor`, computed once in
    /// [`LadderGovernor::new`] instead of on every cycle.
    periods: [Picos; TOP as usize + 1],
    /// Level in force: the one [`LadderGovernor::period_at`] reads.
    level: GovernorLevel,
    /// The decided level and the hysteresis counters; its level runs
    /// ahead of `level` while a decision awaits actuation.
    core: LadderCore,
    /// First cycle of the currently open estimator window.
    window_start: u64,
    flags_in_window: u64,
    /// Actuation cycle of the decision `core` holds, if still pending.
    pending: Option<u64>,
    /// Most recent actuated transition, until the owner collects it.
    transition: Option<LadderTransition>,
    last_cycle: u64,
    escalations: u64,
    deescalations: u64,
    safe_mode_entries: u64,
}

impl LadderGovernor {
    /// Creates a governor at [`GovernorLevel::Nominal`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (zero window, inverted
    /// hysteresis band, latency not smaller than the window, or
    /// decreasing ladder factors) or `nominal` is not positive.
    pub fn new(nominal: Picos, config: GovernorConfig) -> LadderGovernor {
        assert!(nominal > Picos::ZERO, "nominal period must be positive");
        config.validate();
        LadderGovernor {
            nominal,
            config,
            periods: GovernorLevel::ALL.map(|l| nominal.scale(1.0 + config.factor(l))),
            level: GovernorLevel::Nominal,
            core: LadderCore::default(),
            window_start: 0,
            flags_in_window: 0,
            pending: None,
            transition: None,
            last_cycle: 0,
            escalations: 0,
            deescalations: 0,
            safe_mode_entries: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// Current ladder level.
    pub fn level(&self) -> GovernorLevel {
        self.level
    }

    /// True while any slow-down (level above nominal) is in force.
    pub fn is_slowed(&self) -> bool {
        self.level != GovernorLevel::Nominal
    }

    /// Upward transitions actuated so far.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Downward transitions actuated so far.
    pub fn deescalations(&self) -> u64 {
        self.deescalations
    }

    /// Safe-mode entries actuated so far.
    pub fn safe_mode_entries(&self) -> u64 {
        self.safe_mode_entries
    }

    /// The ladder maximum: no period [`LadderGovernor::period_at`] ever
    /// returns exceeds this.
    pub fn max_period(&self) -> Picos {
        self.period_of(GovernorLevel::SafeMode)
    }

    /// Period at `level` under this governor's config.
    pub fn period_of(&self, level: GovernorLevel) -> Picos {
        self.periods[usize::from(level.index())]
    }

    /// Upper bound, in cycles, on returning to nominal once flags
    /// cease: the tail of the window in which the last flag landed,
    /// then at most three de-escalation steps of `hold_windows` clean
    /// windows each, each actuated `latency_cycles` late.
    pub fn recovery_bound(&self) -> u64 {
        (self.config.law().recovery_windows(TOP) + 1) * self.config.window
            + u64::from(TOP) * self.config.latency_cycles
            + self.config.window
    }

    /// Records a flagged error at `cycle` (attributed to the estimator
    /// window currently open; the consolidation latency is applied at
    /// actuation, not here).
    pub fn flag_error(&mut self, cycle: u64) {
        debug_assert!(
            self.window_start <= cycle && cycle <= self.last_cycle,
            "LadderGovernor::flag_error must not run ahead of period_at queries"
        );
        self.flags_in_window += 1;
    }

    /// Advances the estimator to `cycle` and returns the clock period
    /// in force.
    ///
    /// Queries must use non-decreasing cycles (debug builds assert); a
    /// release-mode regression is answered from the current level
    /// without rewinding the estimator.
    pub fn period_at(&mut self, cycle: u64) -> Picos {
        debug_assert!(
            cycle >= self.last_cycle,
            "LadderGovernor::period_at must be queried with non-decreasing cycles \
             (got {cycle} after {})",
            self.last_cycle
        );
        if cycle < self.last_cycle {
            return self.period_of(self.level);
        }
        self.last_cycle = cycle;
        // Close every estimator window the query has moved past. Flags
        // recorded since the last close are attributed to the oldest
        // still-open window (exact for the simulator's per-cycle
        // queries; a jump can only batch flags forward, never back).
        while cycle >= self.window_start + self.config.window {
            let close = self.window_start + self.config.window;
            // A decision still pending here means the last query
            // stopped inside the latency gap and this one jumped past
            // the next close: that window is skipped, not decided.
            if self.pending.is_none()
                && self
                    .core
                    .close_window(&self.config.law(), self.flags_in_window)
                    .is_some()
            {
                self.pending = Some(close + self.config.latency_cycles);
            }
            self.window_start = close;
            self.flags_in_window = 0;
            // Apply a zero-or-short-latency decision that falls inside
            // the region we are skipping over.
            self.actuate_until(cycle);
        }
        self.actuate_until(cycle);
        self.period_of(self.level)
    }

    /// Collects the most recent actuated transition, if any. The
    /// pipeline simulator polls this every cycle to emit telemetry and
    /// perform the safe-mode replay flush; at most one transition can
    /// actuate per cycle, so polling per cycle observes every one.
    pub fn take_transition(&mut self) -> Option<LadderTransition> {
        self.transition.take()
    }

    /// Captures the window-granular control state, normalized so the
    /// currently open estimator window starts at cycle 0. Meaningful at
    /// a window boundary (immediately after a [`LadderGovernor::period_at`]
    /// query landed on a multiple of the window), where the per-cycle
    /// flag counter has just been reset; the pending actuation cycle is
    /// re-based relative to the window start.
    pub fn state(&self) -> GovernorState {
        let decided = GovernorLevel::ALL[usize::from(self.core.level)];
        GovernorState {
            level: self.level,
            clean_windows: self.core.calm,
            dirty_windows: self.core.dirty,
            pending: self.pending.map(|at| (at - self.window_start, decided)),
        }
    }

    /// Rebuilds a governor mid-flight from a [`GovernorState`] snapshot,
    /// with the open estimator window re-based to start at cycle 0.
    /// Lifetime counters (escalations, de-escalations, safe-mode
    /// entries) restart from zero; behavior from cycle 0 onward is
    /// identical to the snapshotted governor's from its window start.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LadderGovernor::new`].
    pub fn restore(nominal: Picos, config: GovernorConfig, state: GovernorState) -> LadderGovernor {
        let mut g = LadderGovernor::new(nominal, config);
        g.level = state.level;
        g.core = LadderCore {
            level: state.pending.map_or(state.level, |(_, to)| to).index(),
            calm: state.clean_windows,
            dirty: state.dirty_windows,
        };
        g.pending = state.pending.map(|(at, _)| at);
        g
    }

    /// Clears all estimator and ladder state back to nominal.
    pub fn reset(&mut self) {
        let nominal = self.nominal;
        let config = self.config;
        *self = LadderGovernor::new(nominal, config);
    }

    /// Actuates the pending decision if its cycle has arrived.
    fn actuate_until(&mut self, cycle: u64) {
        let Some(at) = self.pending else { return };
        if cycle < at {
            return;
        }
        self.pending = None;
        let from = self.level;
        let to = GovernorLevel::ALL[usize::from(self.core.level)];
        if to == from {
            return;
        }
        self.level = to;
        if to > from {
            self.escalations += 1;
            if to == GovernorLevel::SafeMode {
                self.safe_mode_entries += 1;
            }
        } else {
            self.deescalations += 1;
        }
        self.transition = Some(LadderTransition {
            cycle: at,
            from,
            to,
            period: self.period_of(to),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GovernorConfig {
        GovernorConfig {
            window: 10,
            escalate_flags: 3,
            deescalate_flags: 0,
            hold_windows: 2,
            deadline_windows: 4,
            latency_cycles: 2,
            ..GovernorConfig::default()
        }
    }

    fn storm(g: &mut LadderGovernor, from: u64, to: u64, flags_per_cycle: u64) {
        for c in from..to {
            let _ = g.period_at(c);
            for _ in 0..flags_per_cycle {
                g.flag_error(c);
            }
        }
    }

    #[test]
    fn stays_nominal_without_flags() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        for c in 0..100 {
            assert_eq!(g.period_at(c), Picos(1000));
        }
        assert_eq!(g.level(), GovernorLevel::Nominal);
        assert_eq!(g.escalations(), 0);
        assert!(g.take_transition().is_none());
    }

    #[test]
    fn storm_escalates_to_safe_mode() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        storm(&mut g, 0, 50, 1);
        // Window closes at 10, 20, 30 … each with 10 flags ≥ 3; each
        // close escalates one level, actuated 2 cycles later.
        assert_eq!(g.level(), GovernorLevel::SafeMode);
        assert_eq!(g.escalations(), 3);
        assert_eq!(g.safe_mode_entries(), 1);
        assert_eq!(g.period_at(50), Picos(1500));
    }

    #[test]
    fn period_never_exceeds_ladder_maximum() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        let max = g.max_period();
        for c in 0..500 {
            let p = g.period_at(c);
            assert!(p <= max, "cycle {c}: {p} > {max}");
            g.flag_error(c);
        }
    }

    #[test]
    fn deescalates_to_nominal_after_flags_cease() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        storm(&mut g, 0, 50, 1);
        assert_eq!(g.level(), GovernorLevel::SafeMode);
        let bound = g.recovery_bound();
        let mut recovered = None;
        for c in 50..50 + bound + 1 {
            let _ = g.period_at(c);
            if g.level() == GovernorLevel::Nominal {
                recovered = Some(c - 50);
                break;
            }
        }
        let took = recovered.expect("must recover within the bound");
        assert!(took <= bound, "{took} > bound {bound}");
        assert_eq!(g.deescalations(), 3);
    }

    #[test]
    fn hysteresis_band_does_not_flap() {
        // 1 flag per window: above deescalate (0), below escalate (3):
        // the dead zone. From nominal, the governor must not move.
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        for c in 0..200 {
            let _ = g.period_at(c);
            if c % 10 == 5 {
                g.flag_error(c);
            }
        }
        assert_eq!(g.level(), GovernorLevel::Nominal);
        assert_eq!(g.escalations(), 0);
    }

    #[test]
    fn deadline_forces_escalation_out_of_the_dead_zone() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        // One storm window lifts it to throttle…
        storm(&mut g, 0, 10, 1);
        let _ = g.period_at(12);
        assert_eq!(g.level(), GovernorLevel::Throttle);
        // …then linger in the dead zone (1 flag per window).
        for c in 13..200 {
            let _ = g.period_at(c);
            if c % 10 == 5 {
                g.flag_error(c);
            }
        }
        // deadline_windows = 4 dead-zone windows at a level escalate it.
        assert!(g.level() > GovernorLevel::Throttle, "{:?}", g.level());
    }

    #[test]
    fn transitions_are_reported_exactly_once() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        let mut seen = Vec::new();
        for c in 0..200 {
            let _ = g.period_at(c);
            if c < 50 {
                g.flag_error(c);
            }
            if let Some(t) = g.take_transition() {
                seen.push(t);
            }
        }
        let ups = seen.iter().filter(|t| t.is_escalation()).count() as u64;
        let downs = seen.len() as u64 - ups;
        assert_eq!(ups, g.escalations());
        assert_eq!(downs, g.deescalations());
        assert!(seen.iter().all(|t| t.period <= g.max_period()));
        // Consecutive transitions chain: each starts where the last
        // ended.
        for pair in seen.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
    }

    #[test]
    fn regressed_query_is_answered_without_rewinding() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        storm(&mut g, 0, 30, 1);
        let level = g.level();
        let p = g.period_of(level);
        // Out-of-order query (release semantics; debug asserts instead).
        if cfg!(not(debug_assertions)) {
            assert_eq!(g.period_at(5), p);
            assert_eq!(g.level(), level);
        }
    }

    #[test]
    fn reset_returns_to_nominal() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        storm(&mut g, 0, 50, 1);
        g.reset();
        assert_eq!(g.level(), GovernorLevel::Nominal);
        assert_eq!(g.escalations(), 0);
        assert_eq!(g.period_at(0), Picos(1000));
    }

    #[test]
    fn period_table_matches_the_scaled_nominal_after_new_restore_and_reset() {
        // Factors and a nominal whose products land near `.5`, so a
        // table built any other way would round differently somewhere.
        let config = GovernorConfig {
            throttle_factor: 0.1005,
            deep_factor: 0.2375,
            safe_factor: 0.5,
            ..cfg()
        };
        let nominal = Picos(997);
        let check = |g: &LadderGovernor, when: &str| {
            for level in GovernorLevel::ALL {
                assert_eq!(
                    g.period_of(level),
                    nominal.scale(1.0 + config.factor(level)),
                    "{when}: {}",
                    level.name()
                );
            }
            assert_eq!(g.max_period(), nominal.scale(1.0 + config.safe_factor));
        };
        let mut g = LadderGovernor::new(nominal, config);
        check(&g, "new");
        storm(&mut g, 0, 60, 1);
        assert!(g.is_slowed());
        assert_eq!(g.period_at(60), g.period_of(g.level()));
        let snap = g.state();
        g.reset();
        check(&g, "reset");
        let r = LadderGovernor::restore(nominal, config, snap);
        check(&r, "restore");
    }

    #[test]
    fn snapshot_at_a_window_boundary_restores_identical_behavior() {
        // Drive a governor into an interesting mixed state, snapshot at
        // a window boundary, and check the restored copy tracks the
        // original cycle-for-cycle over every input pattern.
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        storm(&mut g, 0, 25, 1); // two storm windows + a partial one
        let _ = g.period_at(30); // land exactly on a window boundary
        let snap = g.state();
        assert_ne!(snap, GovernorState::initial());

        let mut r = LadderGovernor::restore(Picos(1000), cfg(), snap);
        assert_eq!(r.level(), g.level());
        for c in 0..200u64 {
            let flag = c % 7 == 0; // a dead-zone-ish replay pattern
            let pg = g.period_at(30 + c);
            let pr = r.period_at(c);
            assert_eq!(pg, pr, "cycle {c}");
            if flag {
                g.flag_error(30 + c);
                r.flag_error(c);
            }
        }
        assert_eq!(g.level(), r.level());
        assert_eq!(g.state(), r.state());
    }

    #[test]
    fn initial_state_roundtrips() {
        let g = LadderGovernor::new(Picos(1000), cfg());
        assert_eq!(g.state(), GovernorState::initial());
        let r = LadderGovernor::restore(Picos(1000), cfg(), g.state());
        assert_eq!(r.level(), GovernorLevel::Nominal);
        assert_eq!(r.escalations(), 0);
    }

    #[test]
    fn a_jump_past_a_pending_decision_skips_that_window() {
        // The query at 10 closes a storm window and leaves its
        // escalation pending until 12; the next query jumps past the
        // close at 20, so that storm window is never decided.
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        storm(&mut g, 0, 10, 1);
        let _ = g.period_at(10);
        for _ in 0..3 {
            g.flag_error(10);
        }
        let _ = g.period_at(25);
        assert_eq!(g.level(), GovernorLevel::Throttle);
        assert_eq!(g.take_transition().map(|t| t.cycle), Some(12));
        assert_eq!(
            g.state(),
            GovernorState {
                level: GovernorLevel::Throttle,
                ..GovernorState::initial()
            }
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not run ahead of period_at queries")]
    fn a_flag_ahead_of_the_last_query_is_rejected() {
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        let _ = g.period_at(0);
        g.flag_error(100);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_hysteresis_band_is_rejected() {
        let bad = GovernorConfig {
            escalate_flags: 2,
            deescalate_flags: 2,
            ..GovernorConfig::default()
        };
        let _ = LadderGovernor::new(Picos(1000), bad);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn latency_must_fit_in_a_window() {
        let bad = GovernorConfig {
            window: 4,
            latency_cycles: 4,
            ..GovernorConfig::default()
        };
        let _ = LadderGovernor::new(Picos(1000), bad);
    }

    #[test]
    fn level_names_and_indices_are_stable() {
        for (i, l) in GovernorLevel::ALL.iter().enumerate() {
            assert_eq!(l.index() as usize, i);
        }
        assert_eq!(GovernorLevel::SafeMode.name(), "safe-mode");
    }
}
