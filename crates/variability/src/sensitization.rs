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
//! [`SensitizationModel`] decides, per cycle and stage, which delay
//! class the workload exercises; the pipeline simulator then derates the
//! sampled base delay with the `model::DelaySource` environment.
//!
//! # Counter-mode draws
//!
//! Every base delay is a *pure function* of `(seed, cycle, stage)`:
//! one 64-bit [`draw`] (a [`splitmix64`] mix of the three) mapped
//! through the stage's quantized, integer-only [`StageDelayModel`].
//! The model holds no generator state, so a delay can be asked for in
//! any order, skipped without shifting any later one, and evaluated by
//! the scalar `PipelineSim` and the 64-lane bit-sliced engine alike:
//! both read the same delay for the same coordinates, bit for bit.

use timber_netlist::Picos;

/// splitmix64 increment (golden-ratio constant).
pub const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
/// splitmix64 finalizer multiplier 1.
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
/// splitmix64 finalizer multiplier 2.
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// The splitmix64 output function alone: a 64-bit avalanche mixer
/// (the core of the repository's content hashes and jitter draws).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    z ^ (z >> 31)
}

/// SplitMix64: maps `(base, index)` to a well-mixed 64-bit value.
///
/// This is the standard SplitMix64 output for the `index`-th step of
/// the stream starting at `base`. Nearby indices (0, 1, 2, …) give
/// statistically independent values, which is what per-trial seeding
/// and every counter-mode stream in the repository rely on.
#[inline]
pub fn splitmix64(base: u64, index: u64) -> u64 {
    mix64(base.wrapping_add(index.wrapping_add(1).wrapping_mul(PHI)))
}

/// The seed-independent half of a draw's counter. A 64-lane sweep
/// hoists it out of the lane loop, saving two multiplies per lane.
#[inline]
pub fn row_key(cycle: u64, stage: usize) -> u64 {
    cycle.wrapping_mul(MIX1) ^ (stage as u64 + 1).wrapping_mul(MIX2)
}

/// The one 64-bit draw for `(seed, cycle, stage)`.
#[inline]
pub fn draw(seed: u64, cycle: u64, stage: usize) -> u64 {
    splitmix64(seed ^ row_key(cycle, stage), 0)
}

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

/// A stage's path-delay mixture, quantized for integer-only
/// counter-mode sampling.
///
/// One 64-bit draw is split in two: the low 32 bits classify the cycle
/// against fixed-point probability cuts (critical, then near-critical,
/// else typical), and the high 32 bits place it uniformly inside the
/// class band. Near-critical draws land in `[near_critical, critical)`
/// and typical draws in `[typical / 2, near_critical)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDelayModel {
    /// Critical-path delay in ps.
    critical: i64,
    /// Lower edge of the near-critical band in ps.
    near_lo: i64,
    /// Width of the near-critical band `[near_lo, critical)` in ps.
    near_span: u32,
    /// Lower edge of the typical band in ps.
    typ_lo: i64,
    /// Width of the typical band in ps (always ≥ 1).
    typ_span: u32,
    /// Fixed-point (`p × 2³²`) cut below which a draw is critical;
    /// `p = 1` maps to 2³², above every 32-bit class word.
    crit_cut: u64,
    /// Fixed-point cut below which a draw is critical or near-critical.
    near_cut: u64,
}

impl StageDelayModel {
    /// Quantizes a sensitization profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`StagePathProfile::validate`].
    pub fn new(profile: &StagePathProfile) -> StageDelayModel {
        profile.validate();
        let critical = profile.critical.as_ps();
        let near_lo = profile.near_critical.as_ps();
        let near_span = (critical - near_lo).max(0) as u32;
        let typ_lo = profile.typical.as_ps() / 2;
        let typ_hi = near_lo.max(typ_lo + 1);
        let typ_span = (typ_hi - typ_lo) as u32;
        const ONE: f64 = 4_294_967_296.0;
        StageDelayModel {
            critical,
            near_lo,
            near_span,
            typ_lo,
            typ_span,
            crit_cut: (profile.p_critical * ONE) as u64,
            near_cut: ((profile.p_critical + profile.p_near) * ONE) as u64,
        }
    }

    /// The largest delay [`StageDelayModel::delay`] can return: the
    /// critical delay, or the typical band's top when a degenerate
    /// profile puts that higher.
    pub fn max_delay(&self) -> Picos {
        Picos(
            self.critical
                .max(self.typ_lo + i64::from(self.typ_span) - 1),
        )
    }

    /// Maps one 64-bit draw to a delay. Integer-only, so every engine
    /// that reads the same draw gets the same delay.
    ///
    /// The low word `c` picks the class and the high word `u` the
    /// place in its band: `critical` if `c < crit_cut`, else
    /// `near_lo + (u × near_span) >> 32` if `c < near_cut`, else
    /// `typ_lo + (u × typ_span) >> 32`. It is written branch-free for
    /// the 64-lane engine's row kernel, which inlines it into a lane
    /// loop (DESIGN.md §12.2): each compare becomes an all-ones or
    /// all-zero mask and each class choice a masked merge under it.
    /// Written as `if` selects, the width select gets narrowed to 32
    /// bits, and the kernel's AVX2 instance pays a pack and a costlier
    /// blend per four lanes. The compares stay on `u64`: emulated on
    /// SSE2, they keep the baseline instance from being vectorized two
    /// lanes wide, which is slower than scalar.
    #[inline]
    pub fn delay(&self, r: u64) -> Picos {
        let class = r & 0xFFFF_FFFF;
        let near = lane_mask(class < self.near_cut);
        let crit = lane_mask(class < self.crit_cut);
        let (near_span, typ_span) = (u64::from(self.near_span), u64::from(self.typ_span));
        // What a near-critical draw changes from a typical one.
        let lo_step = self.near_lo.wrapping_sub(self.typ_lo) as u64;
        let lo = (self.typ_lo as u64).wrapping_add(near & lo_step);
        let span = typ_span ^ (near & (near_span ^ typ_span));
        let banded = lo.wrapping_add(((r >> 32) * span) >> 32);
        // The critical class wins over near-critical.
        Picos((banded ^ (crit & (banded ^ self.critical as u64))) as i64)
    }
}

/// All ones when `b`, else zero.
#[inline(always)]
fn lane_mask(b: bool) -> u64 {
    0u64.wrapping_sub(u64::from(b))
}

/// Sensitization model for a whole pipeline: one [`StageDelayModel`] per
/// stage and the seed of its counter-mode stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensitizationModel {
    stages: Vec<StageDelayModel>,
    seed: u64,
}

impl SensitizationModel {
    /// Creates a model from per-stage profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or any profile is invalid.
    pub fn new(profiles: Vec<StagePathProfile>, seed: u64) -> SensitizationModel {
        SensitizationModel::from_stages(profiles.iter().map(StageDelayModel::new).collect(), seed)
    }

    /// Creates a model from already quantized stage models.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn from_stages(stages: Vec<StageDelayModel>, seed: u64) -> SensitizationModel {
        assert!(!stages.is_empty(), "need at least one stage profile");
        SensitizationModel { stages, seed }
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

    /// The base delay sensitized at `stage` in `cycle`.
    #[inline]
    pub fn sample(&self, cycle: u64, stage: usize) -> Picos {
        self.stages[stage].delay(draw(self.seed, cycle, stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts each class over `n` cycles of stage 0 of a
    /// `from_critical(1000)` model: (critical, near-critical, typical).
    fn class_counts(m: &SensitizationModel, n: u64) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for cycle in 0..n {
            match m.sample(cycle, 0).as_ps() {
                1000 => counts.0 += 1,
                950..=999 => counts.1 += 1,
                _ => counts.2 += 1,
            }
        }
        counts
    }

    #[test]
    fn profile_from_critical_is_valid() {
        let p = StagePathProfile::from_critical(Picos(1000));
        p.validate();
        assert_eq!(p.near_critical, Picos(950));
        assert_eq!(p.typical, Picos(650));
    }

    #[test]
    fn critical_sensitization_rate_matches_probability() {
        let m = SensitizationModel::uniform(1, Picos(1000), 7);
        let n = 200_000;
        let (crit, _, _) = class_counts(&m, n);
        let rate = crit as f64 / n as f64;
        assert!(
            (rate - 1e-3).abs() < 4e-4,
            "critical rate {rate} should be near 1e-3"
        );
    }

    #[test]
    fn near_critical_sensitization_rate_matches_probability() {
        let m = SensitizationModel::uniform(1, Picos(1000), 7);
        let n = 200_000;
        let (_, near, _) = class_counts(&m, n);
        let rate = near as f64 / n as f64;
        assert!(
            (rate - 1e-2).abs() < 1.5e-3,
            "near-critical rate {rate} should be near 1e-2"
        );
    }

    #[test]
    fn sampled_delays_never_exceed_critical() {
        let m = SensitizationModel::uniform(2, Picos(800), 9);
        for cycle in 0..10_000 {
            for s in 0..2 {
                let d = m.sample(cycle, s);
                assert!(d <= Picos(800));
                assert!(d > Picos::ZERO);
            }
        }
    }

    #[test]
    fn class_delay_ranges_are_disjointish() {
        let q = StageDelayModel::new(&StagePathProfile::from_critical(Picos(1000)));
        for i in 0..20_000u64 {
            let r = splitmix64(3, i);
            let d = q.delay(r).as_ps();
            let class = r & 0xFFFF_FFFF;
            if class < q.crit_cut {
                assert_eq!(d, 1000);
            } else if class < q.near_cut {
                assert!((950..1000).contains(&d), "near-critical {d}");
            } else {
                assert!((325..950).contains(&d), "typical {d}");
            }
        }
    }

    #[test]
    fn delay_is_the_documented_class_formula() {
        let mixes = [
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (1e-3, 1e-2),
            (0.25, 0.5),
        ];
        // A 50 ps near-critical band, and a zero-width one.
        for near in [950, 1000] {
            for (p_critical, p_near) in mixes {
                let q = StageDelayModel::new(&StagePathProfile {
                    critical: Picos(1000),
                    near_critical: Picos(near),
                    typical: Picos(650),
                    p_critical,
                    p_near,
                });
                for i in 0..4096 {
                    let r = splitmix64(5, i);
                    let (class, u) = (r & 0xFFFF_FFFF, r >> 32);
                    let band = |lo: i64, span: u32| lo + ((u * u64::from(span)) >> 32) as i64;
                    let expected = if class < q.crit_cut {
                        q.critical
                    } else if class < q.near_cut {
                        band(q.near_lo, q.near_span)
                    } else {
                        band(q.typ_lo, q.typ_span)
                    };
                    assert_eq!(q.delay(r), Picos(expected), "{q:?} draw {r:#x}");
                }
            }
        }
    }

    #[test]
    fn model_is_seed_deterministic() {
        let a = SensitizationModel::uniform(3, Picos(500), 42);
        let b = SensitizationModel::uniform(3, Picos(500), 42);
        let c = SensitizationModel::uniform(3, Picos(500), 43);
        let row = |m: &SensitizationModel, cycle| (0..3).map(|s| m.sample(cycle, s)).collect();
        let rows = |m| {
            (0..1000)
                .map(|cycle| row(m, cycle))
                .collect::<Vec<Vec<Picos>>>()
        };
        assert_eq!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&c));
    }

    #[test]
    fn samples_are_pure_in_cycle_and_stage() {
        let m = SensitizationModel::uniform(3, Picos(500), 42);
        let forward: Vec<Picos> = (0..1000)
            .flat_map(|c| (0..3).map(move |s| (c, s)))
            .map(|(c, s)| m.sample(c, s))
            .collect();
        // Stage-major, reversed and strided orders read the same values.
        for s in (0..3).rev() {
            for c in (0..1000u64).rev() {
                assert_eq!(m.sample(c, s), forward[c as usize * 3 + s]);
            }
        }
        for c in (0..1000u64).step_by(7) {
            assert_eq!(m.sample(c, 1), forward[c as usize * 3 + 1]);
        }
    }

    #[test]
    fn exact_probability_one_is_always_critical() {
        let mut p = StagePathProfile::from_critical(Picos(1000));
        p.p_critical = 1.0;
        p.p_near = 0.0;
        let q = StageDelayModel::new(&p);
        // A class word of u32::MAX is the one a saturating cut misses.
        assert_eq!(q.delay(u64::from(u32::MAX)), Picos(1000));
        assert_eq!(q.delay(u64::MAX), Picos(1000));
    }

    #[test]
    fn splitmix64_is_pinned() {
        // The standard SplitMix64 stream from state 0.
        assert_eq!(splitmix64(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0, 1), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(0, 2), 0x06C4_5D18_8009_454F);
        assert_eq!(
            splitmix64(42, 7),
            splitmix64(42u64.wrapping_add(7u64.wrapping_mul(PHI)), 0)
        );
        // The one-argument form the batch engine once kept: `z + φ`,
        // then the finalizer.
        let one_arg = |z: u64| mix64(z.wrapping_add(PHI));
        for z in [0, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(splitmix64(z, 0), one_arg(z));
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
