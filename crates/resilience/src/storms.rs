//! Storm scenario generators: stress environments that push the error
//! rate far past what the open-loop single-pulse throttle was tuned
//! for, exercising the [`crate::LadderGovernor`] escalation ladder.
//!
//! Each scenario is a named, seeded recipe over
//! `timber_variability::VariabilityBuilder`; one `(scenario, seed)`
//! pair reproduces the whole environment bit-for-bit.

use timber_variability::{CompositeVariability, VariabilityBuilder};

/// A named stress environment for soak campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StormScenario {
    /// Dense resonant voltage-droop events: the paper's dominant
    /// slow-changing global source, cranked until droops overlap and
    /// several consecutive cycles flag together (multi-stage storms).
    DroopTrain,
    /// Aggressive aging slope plus moderate droop: delay drifts upward
    /// through the run, so a fixed margin that held at cycle 10² is
    /// gone by cycle 10⁵ — sustained escalation pressure, not bursts.
    AgingRamp,
    /// Heavy fast local jitter over per-stage process spread: dense
    /// uncorrelated single-stage flags — a high flag *rate* without a
    /// common-mode cause, probing estimator hysteresis.
    FlagSpikes,
}

impl StormScenario {
    /// All scenarios, in report order.
    pub const ALL: [StormScenario; 3] = [
        StormScenario::DroopTrain,
        StormScenario::AgingRamp,
        StormScenario::FlagSpikes,
    ];

    /// Stable machine-readable name (CLI flag value, report key).
    pub fn name(self) -> &'static str {
        match self {
            StormScenario::DroopTrain => "droop-train",
            StormScenario::AgingRamp => "aging-ramp",
            StormScenario::FlagSpikes => "flag-spikes",
        }
    }

    /// Parses a scenario name as produced by [`StormScenario::name`].
    pub fn parse(s: &str) -> Option<StormScenario> {
        StormScenario::ALL.into_iter().find(|sc| sc.name() == s)
    }

    /// Builds the delay-derating environment for `stages` pipeline
    /// stages, fully determined by `seed`.
    pub fn build(self, stages: usize, seed: u64) -> CompositeVariability {
        let b = VariabilityBuilder::new(seed);
        match self {
            StormScenario::DroopTrain => b
                // Deep droops arriving every ~60 cycles with a short
                // resonance period: events overlap into trains.
                .voltage_droop(0.20, 48, 60.0)
                .local_jitter(0.01)
                .build(),
            StormScenario::AgingRamp => b
                // 6% per decade: +18% by cycle 10³, +30% by 10⁵.
                .aging(0.06)
                .voltage_droop(0.08, 500, 400.0)
                .process(stages, 0.02)
                .build(),
            StormScenario::FlagSpikes => b
                // σ = 5% iid per (cycle, stage): frequent independent
                // overshoots with no global component.
                .local_jitter(0.05)
                .process(stages, 0.03)
                .build(),
        }
    }
}

impl std::fmt::Display for StormScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber_variability::{DelaySource, Q16};

    #[test]
    fn names_round_trip() {
        for sc in StormScenario::ALL {
            assert_eq!(StormScenario::parse(sc.name()), Some(sc));
        }
        assert_eq!(StormScenario::parse("quiet"), None);
    }

    #[test]
    fn environments_are_reproducible() {
        for sc in StormScenario::ALL {
            let (a, b) = (sc.build(4, 17), sc.build(4, 17));
            assert_eq!(a, b, "{sc}");
            for c in 0..256u64 {
                for s in 0..4 {
                    assert_eq!(a.factor(c, s), b.factor(c, s), "{sc} cycle {c}");
                }
            }
        }
    }

    #[test]
    fn storms_actually_derate() {
        // Every scenario must push delays meaningfully past nominal
        // somewhere in the first few thousand cycles — a storm that
        // never slows anything exercises nothing.
        for sc in StormScenario::ALL {
            let env = sc.build(4, 3);
            let max = (0..4_000u64)
                .flat_map(|c| (0..4).map(move |s| (c, s)))
                .map(|(c, s)| env.factor(c, s))
                .max()
                .unwrap();
            assert!(
                max > Q16::from_f64(1.08),
                "{sc}: max factor {max:?} too tame"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Every storm's expiring global bound expires after the cycle
        /// it was asked from and covers each cycle before it expires
        /// (the first 4,096).
        #[test]
        fn expiring_global_bounds_cover_every_storm(
            seed in proptest::prelude::any::<u64>(),
            from in (0u64..20_000, 0u64..u64::MAX - 1, proptest::prelude::any::<bool>()),
        ) {
            let from = if from.2 { from.0 } else { from.1 };
            for sc in StormScenario::ALL {
                let env = sc.build(4, seed);
                let (bound, until) = env.global_bound(from).expect("storms are bounded");
                assert!(until > from, "{sc}: a bound from {from} expires at {until}");
                for c in from..until.min(from.saturating_add(4096)) {
                    assert!(env.global(c) <= bound, "{sc}: cycle {c} from {from}");
                }
            }
        }
    }

    #[test]
    fn seeds_differentiate_runs() {
        let a = StormScenario::DroopTrain.build(4, 1);
        let b = StormScenario::DroopTrain.build(4, 2);
        let differs = (0..512u64).any(|c| a.factor(c, 0) != b.factor(c, 0));
        assert!(differs);
    }
}
