//! Workload-dependent path sensitization.
//!
//! A timing error needs two coincidences: dynamic variability must
//! inflate delays *and* the workload must exercise a long path on that
//! very cycle. The paper leans on the second factor — the sensitization
//! probability of a top critical path is small (order 10⁻³, citing the
//! authors' DATE 2009 logic-masking work), so the joint probability of
//! sensitizing end-to-end critical paths on *successive* cycles (a
//! multi-stage error) is negligibly small.
//!
//! [`SensitizationModel`] samples, per cycle and stage, which delay
//! class the workload exercises; the pipeline simulator then derates the
//! sampled base delay with the `model::DelaySource` environment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timber_netlist::Picos;

/// Path-delay classes of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePathProfile {
    /// Delay of the stage's critical path.
    pub critical: Picos,
    /// Delay of the near-critical path population.
    pub near_critical: Picos,
    /// Median delay of ordinary sensitized paths.
    pub typical: Picos,
    /// Per-cycle probability the critical path is sensitized
    /// (paper-consistent default: 1e-3).
    pub p_critical: f64,
    /// Per-cycle probability a near-critical path is sensitized.
    pub p_near: f64,
}

impl StagePathProfile {
    /// A profile derived from the stage's critical delay: near-critical
    /// paths at 95% and typical paths at 65% of critical, with the
    /// paper-consistent sensitization probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `critical` is not positive.
    pub fn from_critical(critical: Picos) -> StagePathProfile {
        assert!(critical > Picos::ZERO, "critical delay must be positive");
        StagePathProfile {
            critical,
            near_critical: critical.scale(0.95),
            typical: critical.scale(0.65),
            p_critical: 1e-3,
            p_near: 1e-2,
        }
    }

    /// Validates the profile's probabilities and delay ordering.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are outside `[0, 1]`, their sum exceeds
    /// 1, or delays are not ordered `typical ≤ near_critical ≤
    /// critical`.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.p_critical));
        assert!((0.0..=1.0).contains(&self.p_near));
        assert!(self.p_critical + self.p_near <= 1.0);
        assert!(self.typical <= self.near_critical);
        assert!(self.near_critical <= self.critical);
    }
}

/// Which class of path a cycle sensitized (exposed for statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensitizedClass {
    /// The stage's critical path.
    Critical,
    /// A near-critical path.
    NearCritical,
    /// An ordinary path.
    Typical,
}

/// Per-stage sampler of the base (pre-derating) combinational delay.
#[derive(Debug, Clone)]
pub struct StageDelayModel {
    profile: StagePathProfile,
    /// `p_critical + p_near`: below it (and at or above `p_critical`)
    /// a draw sensitizes a near-critical path.
    p_band: f64,
    /// Width of the near-critical band `[near_critical, critical)`.
    near_span: i64,
    /// Typical paths span `[typical_lo, typical_hi)`.
    typical_lo: i64,
    typical_hi: i64,
}

impl StageDelayModel {
    /// Creates a sampler for a validated profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`StagePathProfile::validate`].
    pub fn new(profile: StagePathProfile) -> StageDelayModel {
        profile.validate();
        let typical_lo = profile.typical.as_ps() / 2;
        StageDelayModel {
            profile,
            p_band: profile.p_critical + profile.p_near,
            near_span: (profile.critical - profile.near_critical).as_ps(),
            typical_lo,
            typical_hi: profile.near_critical.as_ps().max(typical_lo + 1),
        }
    }

    /// The profile driving the sampler.
    pub fn profile(&self) -> &StagePathProfile {
        &self.profile
    }

    /// Samples a cycle's base delay and its class.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Picos, SensitizedClass) {
        let u: f64 = rng.gen();
        if u < self.profile.p_critical {
            (self.profile.critical, SensitizedClass::Critical)
        } else if u < self.p_band {
            let extra = if self.near_span > 0 {
                rng.gen_range(0..self.near_span)
            } else {
                0
            };
            (
                self.profile.near_critical + Picos(extra),
                SensitizedClass::NearCritical,
            )
        } else {
            // Typical paths span [0.5*typical, near_critical).
            (
                Picos(rng.gen_range(self.typical_lo..self.typical_hi)),
                SensitizedClass::Typical,
            )
        }
    }
}

/// Sensitization model for a whole pipeline: one [`StageDelayModel`] per
/// stage and a seeded RNG.
#[derive(Debug)]
pub struct SensitizationModel {
    stages: Vec<StageDelayModel>,
    rng: StdRng,
}

impl SensitizationModel {
    /// Creates a model from per-stage profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or any profile is invalid.
    pub fn new(profiles: Vec<StagePathProfile>, seed: u64) -> SensitizationModel {
        assert!(!profiles.is_empty(), "need at least one stage profile");
        SensitizationModel {
            stages: profiles.into_iter().map(StageDelayModel::new).collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A uniform pipeline: every stage shares the same critical delay.
    pub fn uniform(stages: usize, critical: Picos, seed: u64) -> SensitizationModel {
        SensitizationModel::new(
            vec![StagePathProfile::from_critical(critical); stages],
            seed,
        )
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Per-stage model accessor.
    pub fn stage(&self, stage: usize) -> &StageDelayModel {
        &self.stages[stage]
    }

    /// Samples the base delay sensitized at `stage` this cycle.
    #[inline]
    pub fn sample(&mut self, stage: usize) -> (Picos, SensitizedClass) {
        self.stages[stage].sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_from_critical_is_valid() {
        let p = StagePathProfile::from_critical(Picos(1000));
        p.validate();
        assert_eq!(p.near_critical, Picos(950));
        assert_eq!(p.typical, Picos(650));
    }

    #[test]
    fn critical_sensitization_rate_matches_probability() {
        let mut m = SensitizationModel::uniform(1, Picos(1000), 7);
        let n = 200_000;
        let crit = (0..n)
            .filter(|_| matches!(m.sample(0).1, SensitizedClass::Critical))
            .count();
        let rate = crit as f64 / n as f64;
        assert!(
            (rate - 1e-3).abs() < 4e-4,
            "critical rate {rate} should be near 1e-3"
        );
    }

    #[test]
    fn sampled_delays_never_exceed_critical() {
        let mut m = SensitizationModel::uniform(2, Picos(800), 9);
        for _ in 0..10_000 {
            for s in 0..2 {
                let (d, _) = m.sample(s);
                assert!(d <= Picos(800));
                assert!(d > Picos::ZERO);
            }
        }
    }

    #[test]
    fn class_delay_ranges_are_disjointish() {
        let mut m = SensitizationModel::uniform(1, Picos(1000), 3);
        for _ in 0..20_000 {
            let (d, class) = m.sample(0);
            match class {
                SensitizedClass::Critical => assert_eq!(d, Picos(1000)),
                SensitizedClass::NearCritical => {
                    assert!(d >= Picos(950) && d < Picos(1000))
                }
                SensitizedClass::Typical => assert!(d < Picos(950)),
            }
        }
    }

    #[test]
    fn model_is_seed_deterministic() {
        let mut a = SensitizationModel::uniform(3, Picos(500), 42);
        let mut b = SensitizationModel::uniform(3, Picos(500), 42);
        for _ in 0..1000 {
            for s in 0..3 {
                assert_eq!(a.sample(s).0, b.sample(s).0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "critical delay must be positive")]
    fn profile_rejects_zero_critical() {
        let _ = StagePathProfile::from_critical(Picos(0));
    }

    #[test]
    #[should_panic(expected = "need at least one stage profile")]
    fn model_rejects_empty_profiles() {
        let _ = SensitizationModel::new(vec![], 1);
    }
}
