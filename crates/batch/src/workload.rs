//! Counter-mode batched workload: quantized per-stage delay generation
//! shared bit-for-bit between the bit-sliced engine and the scalar
//! reference replay.
//!
//! The environment path of `PipelineSim` samples stateful generators
//! (sensitization `StdRng`, Box–Muller jitter), which cannot be
//! evaluated out of order. The batcher instead derives every delay from
//! a *pure function* of `(lane_seed, cycle, stage)` — a splitmix64 mix
//! of the three — so both engines can generate the same delay plane in
//! whatever loop order suits them. The distribution mirrors the scalar
//! `StageDelayModel`: a three-class mixture (critical / near-critical
//! band / typical band) with integer-only arithmetic, so there is no
//! floating-point reassociation to break cross-engine equality.

use timber_netlist::Picos;
use timber_pipeline::DelayRows;
use timber_variability::StagePathProfile;

/// splitmix64 increment (golden-ratio constant).
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
/// splitmix64 finalizer multiplier 1.
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
/// splitmix64 finalizer multiplier 2.
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// The splitmix64 output function: a high-quality 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(PHI);
    z = (z ^ (z >> 30)).wrapping_mul(MIX1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    z ^ (z >> 31)
}

/// The lane-independent half of a draw's counter: hoisting it out of a
/// 64-lane sweep saves two multiplies per lane.
#[inline]
pub(crate) fn row_key(cycle: u64, stage: usize) -> u64 {
    cycle.wrapping_mul(MIX1) ^ (stage as u64 + 1).wrapping_mul(MIX2)
}

/// One 64-bit draw for `(lane_seed, cycle, stage)` — the counter-mode
/// generator both engines share.
#[inline]
fn draw(lane_seed: u64, cycle: u64, stage: usize) -> u64 {
    splitmix64(lane_seed ^ row_key(cycle, stage))
}

/// `(u * span) >> 32`: maps a 32-bit uniform draw onto `[0, span)`.
#[inline]
fn scale32(u: u32, span: u32) -> i64 {
    ((u64::from(u) * u64::from(span)) >> 32) as i64
}

/// A stage's path-delay mixture, pre-quantized for integer-only
/// counter-mode sampling.
///
/// One 64-bit draw is split in two: the low 32 bits classify the cycle
/// (critical / near-critical / typical) against fixed-point probability
/// cuts, and the high 32 bits place it uniformly inside the class band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStageProfile {
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
    /// Fixed-point (`p × 2³²`) cut below which a draw is critical.
    crit_cut: u32,
    /// Fixed-point cut below which a draw is critical or near-critical.
    near_cut: u32,
}

impl BatchStageProfile {
    /// Quantizes a scalar sensitization profile.
    ///
    /// The class bands mirror `timber_variability::StageDelayModel`:
    /// near-critical draws land in `[near_critical, critical)` and
    /// typical draws in `[typical / 2, near_critical)`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`StagePathProfile::validate`].
    pub fn from_profile(profile: &StagePathProfile) -> BatchStageProfile {
        profile.validate();
        let critical = profile.critical.as_ps();
        let near_lo = profile.near_critical.as_ps();
        let near_span = (critical - near_lo).max(0) as u32;
        let typ_lo = profile.typical.as_ps() / 2;
        let typ_hi = near_lo.max(typ_lo + 1);
        let typ_span = (typ_hi - typ_lo) as u32;
        // Float→int `as` saturates, so p = 1.0 clamps to u32::MAX.
        let crit_cut = (profile.p_critical * 4_294_967_296.0) as u32;
        let near_cut = ((profile.p_critical + profile.p_near) * 4_294_967_296.0) as u32;
        BatchStageProfile {
            critical,
            near_lo,
            near_span,
            typ_lo,
            typ_span,
            crit_cut,
            near_cut,
        }
    }

    /// The largest delay [`BatchStageProfile::delay`] can return: the
    /// critical delay, or the typical band's top when a degenerate
    /// profile puts that higher.
    pub fn max_delay(&self) -> Picos {
        Picos(
            self.critical
                .max(self.typ_lo + i64::from(self.typ_span) - 1),
        )
    }

    /// Maps one 64-bit draw to a delay. Branch-light and integer-only;
    /// identical on every engine that consumes the same draw.
    #[inline]
    pub fn delay(&self, r: u64) -> Picos {
        let class = r as u32;
        let u = (r >> 32) as u32;
        if class < self.crit_cut {
            Picos(self.critical)
        } else if class < self.near_cut {
            Picos(self.near_lo + scale32(u, self.near_span))
        } else {
            Picos(self.typ_lo + scale32(u, self.typ_span))
        }
    }
}

/// A batched Monte-Carlo workload: per-stage quantized profiles plus a
/// base seed from which every lane derives its own delay stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchWorkload {
    profiles: Vec<BatchStageProfile>,
    seed: u64,
}

impl BatchWorkload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<BatchStageProfile>, seed: u64) -> BatchWorkload {
        assert!(!profiles.is_empty(), "workload needs at least one stage");
        BatchWorkload { profiles, seed }
    }

    /// Number of stages the workload covers.
    pub fn stages(&self) -> usize {
        self.profiles.len()
    }

    /// The per-stage profiles.
    pub fn profiles(&self) -> &[BatchStageProfile] {
        &self.profiles
    }

    /// The seed of lane `lane`'s delay stream.
    pub fn lane_seed(&self, lane: usize) -> u64 {
        splitmix64(self.seed ^ (lane as u64).wrapping_mul(PHI))
    }

    /// The delay of stage `stage` in cycle `cycle` of the lane seeded
    /// `lane_seed` — the pure counter-mode sample.
    #[inline]
    pub fn delay(&self, lane_seed: u64, cycle: u64, stage: usize) -> Picos {
        self.profiles[stage].delay(draw(lane_seed, cycle, stage))
    }

    /// A [`DelayRows`] view of one lane, for replaying the lane through
    /// the scalar `PipelineSim`.
    pub fn lane_rows(&self, lane: usize) -> LaneDelays {
        LaneDelays {
            profiles: self.profiles.clone(),
            lane_seed: self.lane_seed(lane),
        }
    }
}

/// Scalar-replay view of one lane's delay stream: implements
/// [`DelayRows`] over the same counter-mode generator the bit-sliced
/// engine evaluates, so `PipelineSim::planned` consumes the identical
/// delay plane.
#[derive(Debug, Clone)]
pub struct LaneDelays {
    profiles: Vec<BatchStageProfile>,
    lane_seed: u64,
}

impl DelayRows for LaneDelays {
    fn fill_row(&mut self, cycle: u64, row: &mut [Picos]) {
        for (stage, slot) in row.iter_mut().enumerate() {
            *slot = self.profiles[stage].delay(draw(self.lane_seed, cycle, stage));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> StagePathProfile {
        let mut p = StagePathProfile::from_critical(Picos(1000));
        p.p_critical = 0.05;
        p.p_near = 0.25;
        p
    }

    #[test]
    fn delay_classes_respect_band_edges() {
        let q = BatchStageProfile::from_profile(&profile());
        for i in 0..10_000u64 {
            let d = q.delay(splitmix64(i)).as_ps();
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
            let q = BatchStageProfile::from_profile(&p);
            let top = (0..10_000u64)
                .map(|i| q.delay(splitmix64(i)))
                .max()
                .unwrap();
            assert_eq!(top, q.max_delay(), "{p:?}");
        }
    }

    #[test]
    fn critical_class_frequency_tracks_cut() {
        let q = BatchStageProfile::from_profile(&profile());
        let n = 100_000u64;
        let crit = (0..n)
            .filter(|&i| q.delay(splitmix64(i)).as_ps() == 1000)
            .count();
        let rate = crit as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "critical rate {rate}");
    }

    #[test]
    fn saturated_probability_is_all_critical() {
        let mut p = profile();
        p.p_critical = 1.0;
        p.p_near = 0.0;
        let q = BatchStageProfile::from_profile(&p);
        for i in 0..1000u64 {
            assert_eq!(q.delay(splitmix64(i)).as_ps(), 1000);
        }
    }

    #[test]
    fn lane_streams_are_distinct_and_deterministic() {
        let w = BatchWorkload::new(vec![BatchStageProfile::from_profile(&profile()); 3], 42);
        let s0 = w.lane_seed(0);
        let s1 = w.lane_seed(1);
        assert_ne!(s0, s1);
        assert_eq!(w.delay(s0, 17, 2), w.delay(s0, 17, 2));
        assert_eq!(w.lane_seed(0), s0);
    }

    #[test]
    fn lane_rows_match_direct_sampling() {
        let w = BatchWorkload::new(vec![BatchStageProfile::from_profile(&profile()); 4], 9);
        let mut rows = w.lane_rows(5);
        let seed = w.lane_seed(5);
        let mut row = [Picos::ZERO; 4];
        for cycle in 0..100 {
            rows.fill_row(cycle, &mut row);
            for (s, &d) in row.iter().enumerate() {
                assert_eq!(d, w.delay(seed, cycle, s));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_workload_rejected() {
        let _ = BatchWorkload::new(vec![], 0);
    }
}
