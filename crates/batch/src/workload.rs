//! Counter-mode batched workload: per-lane streams of the one
//! sensitization model.
//!
//! Every delay is `timber_variability`'s counter-mode sample, a pure
//! function of `(lane seed, cycle, stage)` mapped through the stage's
//! integer-only [`StageDelayModel`]. The bit-sliced engine evaluates it
//! in whatever loop order suits it; the scalar reference runs a lane
//! through `PipelineSim` with a
//! [`SensitizationModel`](timber_variability::SensitizationModel)
//! seeded by the lane's seed, which draws the identical delay plane
//! (DESIGN.md §12.3).

use timber_netlist::Picos;
use timber_variability::{draw, splitmix64, StageDelayModel, PHI};

/// A batched Monte-Carlo workload: per-stage quantized profiles plus a
/// base seed from which every lane derives its own delay stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchWorkload {
    profiles: Vec<StageDelayModel>,
    seed: u64,
}

impl BatchWorkload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<StageDelayModel>, seed: u64) -> BatchWorkload {
        assert!(!profiles.is_empty(), "workload needs at least one stage");
        BatchWorkload { profiles, seed }
    }

    /// Number of stages the workload covers.
    pub fn stages(&self) -> usize {
        self.profiles.len()
    }

    /// The per-stage profiles.
    pub fn profiles(&self) -> &[StageDelayModel] {
        &self.profiles
    }

    /// The seed of lane `lane`'s delay stream.
    pub fn lane_seed(&self, lane: usize) -> u64 {
        splitmix64(self.seed ^ (lane as u64).wrapping_mul(PHI), 0)
    }

    /// The delay of stage `stage` in cycle `cycle` of the lane seeded
    /// `lane_seed` — the pure counter-mode sample.
    #[inline]
    pub fn delay(&self, lane_seed: u64, cycle: u64, stage: usize) -> Picos {
        self.profiles[stage].delay(draw(lane_seed, cycle, stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber_variability::{SensitizationModel, StagePathProfile};

    fn profile() -> StagePathProfile {
        let mut p = StagePathProfile::from_critical(Picos(1000));
        p.p_critical = 0.05;
        p.p_near = 0.25;
        p
    }

    #[test]
    fn delay_classes_respect_band_edges() {
        let q = StageDelayModel::new(&profile());
        for i in 0..10_000u64 {
            let d = q.delay(splitmix64(i, 0)).as_ps();
            assert!(d >= 325, "below typical floor: {d}");
            assert!(d <= 1000, "above critical: {d}");
        }
    }

    #[test]
    fn max_delay_bounds_every_draw() {
        let mut flat = profile();
        flat.typical = Picos(1000);
        flat.near_critical = Picos(1000);
        for p in [profile(), flat] {
            let q = StageDelayModel::new(&p);
            let top = (0..10_000u64)
                .map(|i| q.delay(splitmix64(i, 0)))
                .max()
                .unwrap();
            assert_eq!(top, q.max_delay(), "{p:?}");
        }
    }

    #[test]
    fn critical_class_frequency_tracks_cut() {
        let q = StageDelayModel::new(&profile());
        let n = 100_000u64;
        let crit = (0..n)
            .filter(|&i| q.delay(splitmix64(i, 0)).as_ps() == 1000)
            .count();
        let rate = crit as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "critical rate {rate}");
    }

    #[test]
    fn saturated_probability_is_all_critical() {
        let mut p = profile();
        p.p_critical = 1.0;
        p.p_near = 0.0;
        let q = StageDelayModel::new(&p);
        for i in 0..1000u64 {
            assert_eq!(q.delay(splitmix64(i, 0)).as_ps(), 1000);
        }
    }

    #[test]
    fn lane_streams_are_distinct_and_deterministic() {
        let w = BatchWorkload::new(vec![StageDelayModel::new(&profile()); 3], 42);
        let s0 = w.lane_seed(0);
        let s1 = w.lane_seed(1);
        assert_ne!(s0, s1);
        assert_eq!(w.delay(s0, 17, 2), w.delay(s0, 17, 2));
        assert_eq!(w.lane_seed(0), s0);
    }

    #[test]
    fn lane_models_match_direct_sampling() {
        let w = BatchWorkload::new(vec![StageDelayModel::new(&profile()); 4], 9);
        let seed = w.lane_seed(5);
        let model = SensitizationModel::from_stages(w.profiles().to_vec(), seed);
        for cycle in 0..100 {
            for s in 0..4 {
                assert_eq!(model.sample(cycle, s), w.delay(seed, cycle, s));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_workload_rejected() {
        let _ = BatchWorkload::new(vec![], 0);
    }
}
