//! The canonical scheme registry: one stable identifier per implemented
//! resilience technique, plus a factory that derives every technique's
//! [`CaptureLaw`] from a single [`CheckingPeriod`] the way the
//! experiments do (Razor window = the checking period, canary guard =
//! 8% of the clock, soft-edge transparency = one borrow interval).
//!
//! The registry exists so cross-cutting subsystems — the conformance
//! oracle, the bench experiments, future fuzzers — enumerate *the same*
//! eight design points instead of each hand-rolling its own list that
//! silently drifts.

use timber::CheckingPeriod;
use timber_netlist::Picos;

use crate::law::CaptureLaw;
use crate::scheme::LawScheme;

/// Stable identifier of one implemented resilience technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// TIMBER flip-flop with discrete borrowing and the error relay.
    TimberFf,
    /// TIMBER pulsed latch with continuous borrowing.
    TimberLatch,
    /// Razor shadow-latch detection with local replay.
    RazorFf,
    /// Transition-detector detection with a global stall.
    TransitionDetectorFf,
    /// Canary prediction before the edge.
    CanaryFf,
    /// Design-time soft-edge transparency window.
    SoftEdgeFf,
    /// Logical error masking with redundant logic.
    LogicalMasking,
    /// Conventional margined flip-flop (the baseline design point).
    ConventionalFf,
}

impl SchemeId {
    /// Every implemented scheme, in the canonical comparison order used
    /// by the experiments and the conformance campaign.
    pub const ALL: [SchemeId; 8] = [
        SchemeId::TimberFf,
        SchemeId::TimberLatch,
        SchemeId::RazorFf,
        SchemeId::TransitionDetectorFf,
        SchemeId::CanaryFf,
        SchemeId::SoftEdgeFf,
        SchemeId::LogicalMasking,
        SchemeId::ConventionalFf,
    ];

    /// The scheme's stable name, as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::TimberFf => "timber-ff",
            SchemeId::TimberLatch => "timber-latch",
            SchemeId::RazorFf => "razor-ff",
            SchemeId::TransitionDetectorFf => "transition-detector-ff",
            SchemeId::CanaryFf => "canary-ff",
            SchemeId::SoftEdgeFf => "soft-edge-ff",
            SchemeId::LogicalMasking => "logical-masking",
            SchemeId::ConventionalFf => "conventional-ff",
        }
    }

    /// Resolves a stable name back to its identifier.
    pub fn from_name(name: &str) -> Option<SchemeId> {
        SchemeId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// True when the scheme recovers through pipeline bubbles
    /// (produces `StageOutcome::Detected`), which shifts the cycle
    /// numbering of everything downstream of a detection.
    pub fn is_detection(self) -> bool {
        matches!(self, SchemeId::RazorFf | SchemeId::TransitionDetectorFf)
    }
}

/// Factory building any [`SchemeId`] with parameters derived from one
/// checking-period schedule, exactly as the experiments derive them.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    schedule: CheckingPeriod,
    coverage: f64,
}

impl Registry {
    /// A registry deriving every parameter from `schedule`.
    /// Logical-masking coverage defaults to the experiments' 0.8.
    pub fn new(schedule: CheckingPeriod) -> Registry {
        Registry {
            schedule,
            coverage: 0.8,
        }
    }

    /// Overrides the logical-masking coverage fraction. The conformance
    /// oracle pins it to 1.0 so the scheme's internal RNG cannot make
    /// two otherwise-identical models diverge.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    #[must_use]
    pub fn coverage(mut self, coverage: f64) -> Registry {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0,1]");
        self.coverage = coverage;
        self
    }

    /// The schedule parameters are derived from.
    pub fn schedule(&self) -> &CheckingPeriod {
        &self.schedule
    }

    /// The law of scheme `id` with its parameters derived from the
    /// schedule: Razor, the transition detector and logical masking
    /// act over the full checking period, the canary guards 8% of the
    /// clock, and the soft edge is transparent for one borrow interval.
    pub fn law(&self, id: SchemeId) -> CaptureLaw {
        let window = self.schedule.checking();
        match id {
            SchemeId::TimberFf => CaptureLaw::TimberFf(self.schedule),
            SchemeId::TimberLatch => CaptureLaw::TimberLatch(self.schedule),
            SchemeId::RazorFf => CaptureLaw::Razor {
                window,
                meta_window: Picos::ZERO,
                meta_penalty: 0,
            },
            SchemeId::TransitionDetectorFf => CaptureLaw::TransitionDetector { window },
            SchemeId::CanaryFf => CaptureLaw::Canary {
                guard: self.schedule.period().scale(0.08),
            },
            SchemeId::SoftEdgeFf => CaptureLaw::SoftEdge {
                window: self.schedule.interval(),
            },
            SchemeId::LogicalMasking => CaptureLaw::LogicalMasking {
                coverage: self.coverage,
                margin: window,
            },
            SchemeId::ConventionalFf => CaptureLaw::Conventional,
        }
    }

    /// Builds the scheme, seeding any internal randomness with `seed`.
    pub fn build(&self, id: SchemeId, seed: u64) -> LawScheme {
        self.law(id).build(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber_pipeline::StageOutcome;

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 24.0, 1, 2).unwrap()
    }

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for id in SchemeId::ALL {
            assert!(seen.insert(id.name()), "duplicate name {}", id.name());
            assert_eq!(SchemeId::from_name(id.name()), Some(id));
        }
        assert_eq!(SchemeId::from_name("frobnicator-ff"), None);
    }

    #[test]
    fn derived_parameters_follow_the_schedule() {
        let reg = Registry::new(sched());
        assert_eq!(
            reg.law(SchemeId::RazorFf),
            CaptureLaw::Razor {
                window: Picos(240),
                meta_window: Picos::ZERO,
                meta_penalty: 0,
            }
        );
        assert_eq!(
            reg.law(SchemeId::CanaryFf),
            CaptureLaw::Canary { guard: Picos(80) }
        );
        assert_eq!(
            reg.law(SchemeId::SoftEdgeFf),
            CaptureLaw::SoftEdge { window: Picos(80) }
        );
        for id in SchemeId::ALL {
            assert_eq!(reg.law(id).id(), id);
        }
    }

    #[test]
    fn masking_and_detection_partitions_are_disjoint() {
        // Sweep arrivals from well on time to past every window: a
        // detection scheme never masks, and only detection schemes
        // detect.
        let reg = Registry::new(sched());
        for id in SchemeId::ALL {
            let law = reg.law(id);
            let outcomes: Vec<StageOutcome> = (800..1400)
                .map(|a| law.decide(Picos(a), Picos(1000), 0, |_| true))
                .collect();
            let masks = outcomes
                .iter()
                .any(|o| matches!(o, StageOutcome::Masked { .. }));
            let detects = outcomes
                .iter()
                .any(|o| matches!(o, StageOutcome::Detected { .. }));
            assert!(!(masks && detects), "{id:?}");
            assert_eq!(detects, id.is_detection(), "{id:?}");
        }
    }

    #[test]
    #[should_panic(expected = "coverage in [0,1]")]
    fn coverage_is_validated() {
        let _ = Registry::new(sched()).coverage(1.5);
    }
}
