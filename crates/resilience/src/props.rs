//! Property-based tests for the escalation-ladder governor, including
//! its equivalence to a standalone reference implementation of the
//! control law (the pre-`ladder`-core decide/actuate logic).

#![cfg(test)]

use proptest::prelude::*;

use timber_netlist::Picos;
use timber_variability::mix64;

use crate::governor::{
    GovernorConfig, GovernorLevel, GovernorState, LadderGovernor, LadderTransition,
};

/// A randomly drawn but always-valid governor configuration: `knobs`
/// is unpacked into hold/deadline/latency.
fn draw_config(window: u64, escalate: u64, band: u64, knobs: u64) -> GovernorConfig {
    GovernorConfig {
        window,
        escalate_flags: escalate + band, // keeps the hysteresis band open
        deescalate_flags: escalate.saturating_sub(1),
        hold_windows: 1 + mix64(knobs) % 4,
        deadline_windows: 1 + mix64(knobs ^ 1) % 5,
        latency_cycles: mix64(knobs ^ 2) % window,
        ..GovernorConfig::default()
    }
}

/// Deterministic per-case flag pattern: flag whenever the mixed hash of
/// (seed, cycle) clears a density threshold.
fn flags_at(seed: u64, cycle: u64, density_pct: u64) -> bool {
    mix64(seed ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 100 < density_pct
}

/// The reference clock ladder: the governor as it stood before the
/// shared ladder core — its own `up`/`down` tables, unbounded streak
/// counters, and a decision skipped while another is still pending.
/// [`LadderGovernor`] must match it step for step.
struct RefLadder {
    nominal: Picos,
    config: GovernorConfig,
    level: GovernorLevel,
    window_start: u64,
    flags_in_window: u64,
    clean_windows: u64,
    dirty_windows: u64,
    pending: Option<(u64, GovernorLevel)>,
    transition: Option<LadderTransition>,
    last_cycle: u64,
    escalations: u64,
    deescalations: u64,
    safe_mode_entries: u64,
}

fn up(level: GovernorLevel) -> GovernorLevel {
    match level {
        GovernorLevel::Nominal => GovernorLevel::Throttle,
        GovernorLevel::Throttle => GovernorLevel::DeepThrottle,
        GovernorLevel::DeepThrottle | GovernorLevel::SafeMode => GovernorLevel::SafeMode,
    }
}

fn down(level: GovernorLevel) -> GovernorLevel {
    match level {
        GovernorLevel::Nominal | GovernorLevel::Throttle => GovernorLevel::Nominal,
        GovernorLevel::DeepThrottle => GovernorLevel::Throttle,
        GovernorLevel::SafeMode => GovernorLevel::DeepThrottle,
    }
}

impl RefLadder {
    fn new(nominal: Picos, config: GovernorConfig) -> RefLadder {
        RefLadder {
            nominal,
            config,
            level: GovernorLevel::Nominal,
            window_start: 0,
            flags_in_window: 0,
            clean_windows: 0,
            dirty_windows: 0,
            pending: None,
            transition: None,
            last_cycle: 0,
            escalations: 0,
            deescalations: 0,
            safe_mode_entries: 0,
        }
    }

    fn period_of(&self, level: GovernorLevel) -> Picos {
        let factor = match level {
            GovernorLevel::Nominal => 0.0,
            GovernorLevel::Throttle => self.config.throttle_factor,
            GovernorLevel::DeepThrottle => self.config.deep_factor,
            GovernorLevel::SafeMode => self.config.safe_factor,
        };
        self.nominal.scale(1.0 + factor)
    }

    fn period_at(&mut self, cycle: u64) -> Picos {
        self.last_cycle = cycle;
        while cycle >= self.window_start + self.config.window {
            let close = self.window_start + self.config.window;
            self.decide(close);
            self.window_start = close;
            self.flags_in_window = 0;
            self.actuate_until(cycle);
        }
        self.actuate_until(cycle);
        self.period_of(self.level)
    }

    /// The saturated snapshot the real governor reports.
    fn state(&self) -> GovernorState {
        GovernorState {
            level: self.level,
            clean_windows: self.clean_windows.min(self.config.hold_windows),
            dirty_windows: self.dirty_windows.min(self.config.deadline_windows),
            pending: self
                .pending
                .map(|(at, to)| (at.saturating_sub(self.window_start), to)),
        }
    }

    fn decide(&mut self, close: u64) {
        let flags = self.flags_in_window;
        if self.pending.is_some() {
            return;
        }
        if flags >= self.config.escalate_flags {
            self.clean_windows = 0;
            self.dirty_windows = 0;
            if self.level != GovernorLevel::SafeMode {
                self.pending = Some((close + self.config.latency_cycles, up(self.level)));
            }
        } else if flags <= self.config.deescalate_flags {
            self.dirty_windows = 0;
            self.clean_windows += 1;
            if self.clean_windows >= self.config.hold_windows
                && self.level != GovernorLevel::Nominal
            {
                self.clean_windows = 0;
                self.pending = Some((close + self.config.latency_cycles, down(self.level)));
            }
        } else {
            self.clean_windows = 0;
            self.dirty_windows += 1;
            if self.dirty_windows >= self.config.deadline_windows
                && self.level != GovernorLevel::Nominal
                && self.level != GovernorLevel::SafeMode
            {
                self.dirty_windows = 0;
                self.pending = Some((close + self.config.latency_cycles, up(self.level)));
            }
        }
    }

    fn actuate_until(&mut self, cycle: u64) {
        let Some((at, to)) = self.pending else { return };
        if cycle < at {
            return;
        }
        self.pending = None;
        let from = self.level;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Safety: for any valid config and any flag pattern, the period
    /// the governor returns never exceeds the ladder maximum, and every
    /// reported transition period is also within it.
    #[test]
    fn period_never_exceeds_ladder_maximum(
        window in 4u64..40,
        escalate in 1u64..6,
        band in 1u64..4,
        knobs in any::<u64>(),
        density in 0u64..=100,
        seed in 0u64..1000,
    ) {
        let cfg = draw_config(window, escalate, band, knobs);
        let mut g = LadderGovernor::new(Picos(1000), cfg);
        let max = g.max_period();
        for c in 0..2_000u64 {
            let p = g.period_at(c);
            prop_assert!(p <= max, "cycle {}: {:?} > {:?}", c, p, max);
            prop_assert!(p >= Picos(1000), "cycle {}: below nominal", c);
            if flags_at(seed, c, density) {
                g.flag_error(c);
            }
            if let Some(t) = g.take_transition() {
                prop_assert!(t.period <= max);
            }
        }
    }

    /// Liveness: once flags cease, the governor returns to nominal
    /// within its own published recovery bound, from any storm it was
    /// driven into.
    #[test]
    fn recovery_within_published_bound(
        window in 4u64..32,
        escalate in 1u64..5,
        band in 1u64..4,
        knobs in any::<u64>(),
        density in 20u64..=100,
        seed in 0u64..1000,
    ) {
        let cfg = draw_config(window, escalate, band, knobs);
        let storm_len = 1 + mix64(seed ^ 7) % 600;
        let mut g = LadderGovernor::new(Picos(1000), cfg);
        for c in 0..storm_len {
            let _ = g.period_at(c);
            if flags_at(seed, c, density) {
                g.flag_error(c);
            }
        }
        let bound = g.recovery_bound();
        let mut recovered_at = None;
        for c in storm_len..storm_len + bound + 1 {
            let _ = g.period_at(c);
            if g.level() == GovernorLevel::Nominal {
                recovered_at = Some(c - storm_len);
                break;
            }
        }
        prop_assert!(
            recovered_at.is_some(),
            "level {:?} still elevated after {} flag-free cycles",
            g.level(),
            bound,
        );
    }

    /// Accounting: escalation and de-escalation counters always equal
    /// the observed ladder transitions, chain correctly, and their
    /// difference is exactly the final ladder index.
    #[test]
    fn counters_match_observed_transitions(
        window in 4u64..32,
        escalate in 1u64..5,
        band in 1u64..4,
        knobs in any::<u64>(),
        density in 0u64..=100,
        seed in 0u64..1000,
    ) {
        let cfg = draw_config(window, escalate, band, knobs);
        let mut g = LadderGovernor::new(Picos(1000), cfg);
        let mut transitions = Vec::new();
        let mut level = GovernorLevel::Nominal;
        for c in 0..3_000u64 {
            let _ = g.period_at(c);
            if flags_at(seed, c, density) {
                g.flag_error(c);
            }
            if let Some(t) = g.take_transition() {
                // Transitions chain: each starts at the current level
                // and moves exactly one rung.
                prop_assert_eq!(t.from, level);
                prop_assert_eq!(
                    (t.to.index() as i32 - t.from.index() as i32).abs(),
                    1
                );
                level = t.to;
                transitions.push(t);
            }
        }
        prop_assert_eq!(level, g.level());
        let ups = transitions.iter().filter(|t| t.is_escalation()).count() as u64;
        let downs = transitions.len() as u64 - ups;
        prop_assert_eq!(ups, g.escalations());
        prop_assert_eq!(downs, g.deescalations());
        prop_assert_eq!(ups - downs, u64::from(g.level().index()));
        let safe_entries = transitions
            .iter()
            .filter(|t| t.to == GovernorLevel::SafeMode)
            .count() as u64;
        prop_assert_eq!(safe_entries, g.safe_mode_entries());
    }

    /// The shared ladder core changes nothing observable: driven by the
    /// same flags and the same queries — per-cycle runs broken by jumps
    /// of up to two windows, storms, calm and dead-zone stretches — the
    /// governor and the reference agree on every period, level,
    /// transition, lifetime counter and saturated snapshot, at every
    /// query.
    #[test]
    fn governor_matches_the_reference_control_law(
        window in 4u64..24,
        escalate in 1u64..5,
        band in 1u64..4,
        knobs in any::<u64>(),
        jump_pct in 0u64..=30,
        seed in 0u64..1000,
    ) {
        let cfg = draw_config(window, escalate, band, knobs);
        let mut g = LadderGovernor::new(Picos(1000), cfg);
        let mut reference = RefLadder::new(Picos(1000), cfg);
        let mut cycle = 0u64;
        for step in 0..1_500u64 {
            let r = mix64(seed ^ step.wrapping_mul(0xD1B5_4A32_D192_ED03));
            if r % 100 < jump_pct {
                cycle += r % (2 * window + 1);
            } else {
                cycle += 1;
            }
            prop_assert_eq!(g.period_at(cycle), reference.period_at(cycle), "cycle {}", cycle);
            // The flag density drifts every 64 queries so one run walks
            // through storms, dead zones and calm.
            let density = mix64(seed ^ (step / 64)) % 101;
            if flags_at(seed, cycle, density) {
                for _ in 0..1 + r % 2 {
                    g.flag_error(cycle);
                    reference.flags_in_window += 1;
                }
            }
            prop_assert_eq!(g.take_transition(), reference.transition.take(), "cycle {}", cycle);
            prop_assert_eq!(g.level(), reference.level);
            prop_assert_eq!(g.escalations(), reference.escalations);
            prop_assert_eq!(g.deescalations(), reference.deescalations);
            prop_assert_eq!(g.safe_mode_entries(), reference.safe_mode_entries);
            prop_assert_eq!(g.state(), reference.state(), "cycle {}", cycle);
        }
    }
}
