//! Service-level degradation ladder for the evaluation daemon.
//!
//! The resilience crate's `LadderGovernor` closes the loop on *timing*
//! error storms: a windowed flag-rate estimator drives a four-level
//! escalation ladder with hysteresis so the clock degrades gracefully
//! instead of failing. [`ServiceGovernor`] runs the same control law —
//! the one `timber_resilience::ladder` core both ladders share — one
//! layer up, on the serving daemon itself: the estimator input is
//! per-batch *cold demand* (distinct uncached keys a batch asks for,
//! whether admitted or shed) and the actuator is admission control
//! instead of clock period, applied at once rather than after a
//! consolidation latency.
//!
//! # The ladder
//!
//! | level | name       | admission policy                              |
//! |-------|------------|-----------------------------------------------|
//! | 0     | nominal    | everything is served                          |
//! | 1     | shed-low   | low-priority cache misses are shed            |
//! | 2     | cache-only | every miss is shed; hits still served         |
//! | 3     | reject     | all eval requests rejected with `retry_after` |
//!
//! Cache hits keep flowing until the top rung — serving a memoized
//! result costs one digest and one map lookup, so shedding hits buys
//! nothing until the daemon is saturated outright.
//!
//! # Control law
//!
//! Each call to [`ServiceGovernor::observe_batch`] closes one
//! estimator window (= one engine batch) and actuates **at most one**
//! transition:
//!
//! * demand ≥ `escalate_backlog` → escalate one level;
//! * demand ≤ `deescalate_backlog` for `hold_batches` consecutive
//!   batches → de-escalate one level;
//! * the band between the thresholds is the hysteresis dead zone — the
//!   calm streak resets and the level holds (the service ladder has no
//!   escalation deadline).
//!
//! `timber-analyze` proves, from every reachable state, that batches of
//! zero demand bring the ladder back to nominal within
//! [`ServiceGovernor::retry_after`].
//!
//! Demand counts *shed* cold keys too: if it only counted admitted
//! work, escalating to cache-only would zero the signal and the ladder
//! would flap between rungs every `hold_batches` batches while the
//! overload is still arriving.
//!
//! Everything is integer state driven by batch contents, so replays
//! are byte-identical for any thread count — the property the chaos
//! campaign gates on.

use timber_resilience::ladder::{LadderCore, LadderLaw, TOP};

/// One rung of the service degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceLevel {
    /// Everything is served.
    Nominal,
    /// Low-priority cache misses are shed.
    ShedLow,
    /// Every miss is shed; hits are still served.
    CacheOnly,
    /// All eval requests rejected with a retry-after hint.
    Reject,
}

impl ServiceLevel {
    /// All levels, bottom to top.
    pub const ALL: [ServiceLevel; TOP as usize + 1] = [
        ServiceLevel::Nominal,
        ServiceLevel::ShedLow,
        ServiceLevel::CacheOnly,
        ServiceLevel::Reject,
    ];

    /// Ladder index (0 = nominal … 3 = reject).
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Stable machine-readable name (used in shed-response bodies).
    pub fn name(self) -> &'static str {
        match self {
            ServiceLevel::Nominal => "nominal",
            ServiceLevel::ShedLow => "shed-low",
            ServiceLevel::CacheOnly => "cache-only",
            ServiceLevel::Reject => "reject",
        }
    }

    /// True if a cache hit is served at this level.
    pub fn serves_hits(self) -> bool {
        self != ServiceLevel::Reject
    }

    /// True if a cache miss with `high_priority` is admitted for
    /// evaluation at this level.
    pub fn admits_miss(self, high_priority: bool) -> bool {
        match self {
            ServiceLevel::Nominal => true,
            ServiceLevel::ShedLow => high_priority,
            ServiceLevel::CacheOnly | ServiceLevel::Reject => false,
        }
    }
}

/// Tuning of the [`ServiceGovernor`] (all plain scalars, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceGovernorConfig {
    /// Cold demand at or above which a batch escalates one level.
    pub escalate_backlog: u64,
    /// Cold demand at or below which a batch counts toward
    /// de-escalation (must be `< escalate_backlog`: the hysteresis
    /// band).
    pub deescalate_backlog: u64,
    /// Consecutive calm batches required to step down one level.
    pub hold_batches: u64,
}

impl Default for ServiceGovernorConfig {
    /// The inert default: the escalation threshold sits beyond any
    /// reachable batch demand, so a daemon that never opts in behaves
    /// exactly as before this ladder existed (level pinned at nominal,
    /// zero transitions). Chaos and storm chaos-client runs install
    /// [`ServiceGovernorConfig::tight`] instead.
    fn default() -> ServiceGovernorConfig {
        ServiceGovernorConfig {
            escalate_backlog: u64::MAX,
            deescalate_backlog: 0,
            hold_batches: 1,
        }
    }
}

impl ServiceGovernorConfig {
    /// An aggressive config for chaos campaigns and storm chaos
    /// clients: escalate after one batch demanding ≥ 8 cold keys,
    /// de-escalate after two batches demanding ≤ 1.
    pub fn tight() -> ServiceGovernorConfig {
        ServiceGovernorConfig {
            escalate_backlog: 8,
            deescalate_backlog: 1,
            hold_batches: 2,
        }
    }

    /// The shared ladder law over per-batch cold demand: no deadline,
    /// so the dead zone holds any level.
    pub fn law(&self) -> LadderLaw {
        LadderLaw {
            escalate: self.escalate_backlog,
            deescalate: self.deescalate_backlog,
            hold: self.hold_batches,
            deadline: None,
        }
    }
}

/// One actuated ladder transition, returned by
/// [`ServiceGovernor::observe_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceTransition {
    /// Level left.
    pub from: ServiceLevel,
    /// Level entered.
    pub to: ServiceLevel,
}

impl ServiceTransition {
    /// True for an upward (escalating) transition.
    pub fn is_escalation(&self) -> bool {
        self.to > self.from
    }
}

/// The batch-granular admission-control governor. See the module docs
/// for the control law.
#[derive(Debug, Clone)]
pub struct ServiceGovernor {
    config: ServiceGovernorConfig,
    core: LadderCore,
    escalations: u64,
    deescalations: u64,
}

impl ServiceGovernor {
    /// Creates a governor at [`ServiceLevel::Nominal`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (inverted hysteresis band or
    /// a zero hold streak).
    pub fn new(config: ServiceGovernorConfig) -> ServiceGovernor {
        config.law().validate();
        ServiceGovernor {
            config,
            core: LadderCore::default(),
            escalations: 0,
            deescalations: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServiceGovernorConfig {
        &self.config
    }

    /// Current ladder level.
    pub fn level(&self) -> ServiceLevel {
        ServiceLevel::ALL[usize::from(self.core.level)]
    }

    /// Upward transitions actuated so far.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Downward transitions actuated so far.
    pub fn deescalations(&self) -> u64 {
        self.deescalations
    }

    /// Batches a rejected client should wait before retrying: the
    /// calm batches that walk the current level all the way back to
    /// [`ServiceLevel::Nominal`] (`hold_batches` per level), assuming
    /// demand stops.
    pub fn retry_after(&self) -> u64 {
        self.config.law().recovery_windows(self.core.level)
    }

    /// Closes one estimator window with the batch's cold demand
    /// (distinct uncached keys requested, shed ones included) and
    /// actuates at most one transition.
    pub fn observe_batch(&mut self, demand: u64) -> Option<ServiceTransition> {
        let from = self.level();
        self.core.close_window(&self.config.law(), demand)?;
        let to = self.level();
        if to > from {
            self.escalations += 1;
        } else {
            self.deescalations += 1;
        }
        Some(ServiceTransition { from, to })
    }
}

impl Default for ServiceGovernor {
    fn default() -> ServiceGovernor {
        ServiceGovernor::new(ServiceGovernorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_default_never_escalates() {
        let mut g = ServiceGovernor::default();
        for _ in 0..1000 {
            assert!(g.observe_batch(u64::MAX - 1).is_none());
        }
        assert_eq!(g.level(), ServiceLevel::Nominal);
        assert_eq!(g.escalations(), 0);
        assert_eq!(g.deescalations(), 0);
    }

    #[test]
    fn sustained_demand_climbs_to_reject_and_stops() {
        let mut g = ServiceGovernor::new(ServiceGovernorConfig::tight());
        let mut ups = 0;
        for _ in 0..10 {
            if let Some(t) = g.observe_batch(64) {
                assert!(t.is_escalation());
                ups += 1;
            }
        }
        assert_eq!(g.level(), ServiceLevel::Reject);
        assert_eq!(ups, 3);
        assert_eq!(g.escalations(), 3);
    }

    #[test]
    fn calm_batches_walk_back_to_nominal() {
        let mut g = ServiceGovernor::new(ServiceGovernorConfig::tight());
        for _ in 0..3 {
            let _ = g.observe_batch(64);
        }
        assert_eq!(g.level(), ServiceLevel::Reject);
        let mut downs = 0;
        for _ in 0..12 {
            if let Some(t) = g.observe_batch(0) {
                assert!(!t.is_escalation());
                downs += 1;
            }
        }
        assert_eq!(g.level(), ServiceLevel::Nominal);
        assert_eq!(downs, 3);
        assert_eq!(g.deescalations(), 3);
    }

    #[test]
    fn dead_zone_holds_the_level_without_flapping() {
        let cfg = ServiceGovernorConfig {
            escalate_backlog: 8,
            deescalate_backlog: 1,
            hold_batches: 2,
        };
        let mut g = ServiceGovernor::new(cfg);
        let _ = g.observe_batch(64);
        assert_eq!(g.level(), ServiceLevel::ShedLow);
        // Demand in (1, 8): neither streak advances.
        for _ in 0..50 {
            assert!(g.observe_batch(4).is_none());
        }
        assert_eq!(g.level(), ServiceLevel::ShedLow);
    }

    #[test]
    fn at_most_one_transition_per_batch() {
        let cfg = ServiceGovernorConfig {
            escalate_backlog: 1,
            deescalate_backlog: 0,
            hold_batches: 1,
        };
        let mut g = ServiceGovernor::new(cfg);
        let t = g.observe_batch(1_000_000).unwrap();
        assert_eq!(t.from, ServiceLevel::Nominal);
        assert_eq!(t.to, ServiceLevel::ShedLow);
        assert_eq!(g.level(), ServiceLevel::ShedLow);
    }

    #[test]
    fn admission_policy_matches_the_table() {
        assert!(ServiceLevel::Nominal.admits_miss(false));
        assert!(ServiceLevel::ShedLow.admits_miss(true));
        assert!(!ServiceLevel::ShedLow.admits_miss(false));
        assert!(!ServiceLevel::CacheOnly.admits_miss(true));
        assert!(!ServiceLevel::Reject.admits_miss(true));
        assert!(ServiceLevel::CacheOnly.serves_hits());
        assert!(!ServiceLevel::Reject.serves_hits());
    }

    #[test]
    fn retry_after_scales_with_the_level() {
        let mut g = ServiceGovernor::new(ServiceGovernorConfig::tight());
        assert_eq!(g.retry_after(), 0);
        for _ in 0..3 {
            let _ = g.observe_batch(64);
        }
        assert_eq!(g.level(), ServiceLevel::Reject);
        assert_eq!(g.retry_after(), 6); // hold_batches (2) * index (3)
    }

    #[test]
    fn level_names_and_indices_are_stable() {
        for (i, l) in ServiceLevel::ALL.iter().enumerate() {
            assert_eq!(l.index() as usize, i);
        }
        assert_eq!(ServiceLevel::Reject.name(), "reject");
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_band_is_rejected() {
        let _ = ServiceGovernor::new(ServiceGovernorConfig {
            escalate_backlog: 2,
            deescalate_backlog: 2,
            hold_batches: 1,
        });
    }
}
