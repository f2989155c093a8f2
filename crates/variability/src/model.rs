//! Delay-derating sources and their composition.
//!
//! Every source is a multiplicative factor on a pipeline stage's
//! combinational delay at a given clock cycle, combined in one
//! [`CompositeVariability`] environment.
//!
//! The taxonomy follows the paper's §1/§3 discussion:
//!
//! * **static** — [`ProcessVariation`]: fixed per stage, workload
//!   independent (handled at design/test time; included for baselines);
//! * **slow-changing global dynamic** — [`VoltageDroop`],
//!   [`TemperatureDrift`], [`Aging`]: affect many consecutive cycles and
//!   can therefore cause *multi-stage* timing errors;
//! * **fast-changing local dynamic** — [`LocalJitter`]: uncorrelated
//!   across cycles and stages, causing mostly *single-stage* errors.
//!
//! # Integer, counter-mode factors
//!
//! Every factor is a [`Q16`] fixed-point integer and a pure function of
//! `(seed, cycle, stage)`: no source holds generator state or a cache,
//! so any query may come in any order, from `&self`, and a skipped
//! query changes no other answer. Random terms hash their coordinates
//! with [`splitmix64`]; smooth terms read the committed integer tables
//! of `crate::tables`, so no query calls a transcendental function.

use std::ops::Mul;

use timber_netlist::Picos;

use crate::sensitization::{draw, splitmix64};
use crate::tables::{exp2_neg_q31, log10_q16, normal_q16, positive_sine_q16, Q16_ONE};

/// A non-negative fixed-point factor with 16 fraction bits:
/// `Q16::ONE` (`Q16(65536)`) is 1.0, `Q16(72090)` about 1.10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Q16(pub u32);

impl Q16 {
    /// The nominal factor, 1.0.
    pub const ONE: Q16 = Q16(Q16_ONE);

    /// The nearest Q16 to `x`, saturating at `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or NaN.
    pub fn from_f64(x: f64) -> Q16 {
        assert!(x >= 0.0, "a Q16 factor must be non-negative, got {x}");
        Q16((x * 65536.0).round().min(f64::from(u32::MAX)) as u32)
    }

    /// The factor as an `f64` (exact).
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / 65536.0
    }

    /// `base` derated by this factor: `⌊base · self / 2¹⁶⌋`, saturating
    /// at the ends of `i64`. A base of 2¹⁶ ps returns `self.0` ps
    /// exactly, which is how trace replays encode arrivals.
    #[inline]
    pub fn derate(self, base: Picos) -> Picos {
        let product = (i128::from(base.as_ps()) * i128::from(self.0)) >> 16;
        Picos(product.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64)
    }
}

/// The product rounded down, saturating at `u32::MAX`. It is
/// non-decreasing in both operands, so a product of bounds bounds the
/// product of the factors they bound; `Q16::ONE` is its identity.
impl Mul for Q16 {
    type Output = Q16;

    #[inline]
    fn mul(self, other: Q16) -> Q16 {
        let product = (u64::from(self.0) * u64::from(other.0)) >> 16;
        Q16(product.min(u64::from(u32::MAX)) as u32)
    }
}

/// A time- and stage-dependent multiplicative delay derating, as a
/// pure function of the cycle and the stage.
///
/// The factor splits in two: a cycle-wide [`DelaySource::global`] part,
/// the same for every stage of a cycle, and a stage's own
/// [`DelaySource::local`] part. The simulator derives the global part
/// at most once per cycle. Its on-time skip tests a stage against the
/// [`DelaySource::global_bound`] that holds at the cycle times the
/// stage's [`DelaySource::local_bound`] before it derives anything,
/// and derives the exact factor only where that fails.
pub trait DelaySource {
    /// The cycle-wide part of the factor at `cycle`.
    fn global(&self, cycle: u64) -> Q16;

    /// The stage's own part of the factor at `cycle`.
    fn local(&self, cycle: u64, stage: usize) -> Q16;

    /// The derating factor at `cycle` for pipeline `stage`:
    /// `global(cycle) * local(cycle, stage)`, the product the simulator
    /// applies.
    fn factor(&self, cycle: u64, stage: usize) -> Q16 {
        self.global(cycle) * self.local(cycle, stage)
    }

    /// A bound that expires: `Some((bound, until))` promises
    /// `global(c) ≤ bound` for every `c` in `from..until`, with
    /// `until > from` (unless `from` is `u64::MAX`; an `until` of
    /// `u64::MAX` never expires). `None` (the default) means "never
    /// skip". A caller asks again from `until` on; a bound that
    /// follows the environment's present state, not its worst case
    /// over a run, proves more stages on time.
    fn global_bound(&self, from: u64) -> Option<(Q16, u64)> {
        let _ = from;
        None
    }

    /// An upper bound on [`DelaySource::local`] at `stage` over every
    /// cycle, or `None` (the default): "never skip".
    fn local_bound(&self, stage: usize) -> Option<Q16> {
        let _ = stage;
        None
    }
}

/// `max(1 + σ·z, 0.5)` in Q16 for a Q16 normal draw `z`, non-decreasing
/// in `z`.
fn spread(sigma: Q16, z: i32) -> Q16 {
    let delta = (i64::from(sigma.0) * i64::from(z)) >> 16;
    let factor = i64::from(Q16_ONE) + delta;
    Q16(factor.clamp(i64::from(Q16_ONE / 2), i64::from(u32::MAX)) as u32)
}

/// `1 + Σ terms` in Q16, saturating.
fn one_plus(terms: &[u64]) -> Q16 {
    let sum = terms
        .iter()
        .fold(u64::from(Q16_ONE), |acc, &t| acc.saturating_add(t));
    Q16(sum.min(u64::from(u32::MAX)) as u32)
}

/// A `u32` phase advancing one turn every `period` cycles: the phase
/// step per cycle, `2³² / period` rounded.
fn phase_step(period: u64) -> u64 {
    ((1u64 << 32) + period / 2) / period
}

/// Static process variation: one factor per stage, `max(1 + σ·z, 0.5)`
/// with `z` a standard normal draw (clamped at ±4) hashed from the seed
/// and the stage, constant for the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessVariation {
    factors: Box<[Q16]>,
}

impl ProcessVariation {
    /// Draws per-stage factors for `stages` stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero or `sigma` is negative.
    pub fn new(stages: usize, sigma: f64, seed: u64) -> ProcessVariation {
        assert!(stages > 0, "process variation needs at least one stage");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        let sigma = Q16::from_f64(sigma);
        let factors = (0..stages as u64)
            .map(|s| spread(sigma, normal_q16(splitmix64(seed, s))))
            .collect();
        ProcessVariation { factors }
    }

    /// The factor of `stage` (stages past the last wrap around).
    #[inline]
    pub fn at(&self, stage: usize) -> Q16 {
        match self.factors.get(stage) {
            Some(&factor) => factor,
            None => self.factors[stage % self.factors.len()],
        }
    }
}

/// Global supply-voltage droop: a resonant ripple plus droop events
/// with an exponential recovery tail.
///
/// Voltage droop is the dominant *slow-changing global* source in the
/// paper's discussion: when a droop event hits, several consecutive
/// cycles slow down together, which is what makes multi-stage timing
/// errors possible at all.
///
/// Events are counter-mode: time is cut into windows of
/// `mean_interval` cycles, and each window holds one event at an offset
/// hashed from the seed and the window. The most recent event at or
/// before a cycle is therefore its own window's, once that has begun,
/// else the previous window's, and the factor reads no other state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoltageDroop {
    /// Peak derating of an event, Q16.
    depth: u64,
    /// Amplitude of the ripple (`depth / 4`), Q16.
    ripple: u64,
    /// Ripple phase advance per cycle (see [`phase_step`]).
    ripple_step: u64,
    /// Cycles per event window.
    window: u64,
    /// `⌊(2⁶⁴ − 1) / window⌋`, which turns the per-query division by the
    /// window into a multiply and one correction step.
    window_inverse: u64,
    /// Recovery exponent per cycle of age: `log₂ e / τ` in Q24, so an
    /// event of age `a` has decayed to `2^(−a·decay/2²⁴)`.
    decay: u64,
    seed: u64,
}

impl VoltageDroop {
    /// Creates a droop model.
    ///
    /// * `depth` — peak derating of an event (0.08 = up to 8% slower);
    /// * `resonance_cycles` — period of the small always-on resonant
    ///   ripple (its amplitude is `depth / 4`);
    /// * `mean_interval` — cycles between droop events, on average (the
    ///   event window, rounded to whole cycles); an event recovers with
    ///   time constant `max(mean_interval / 20, 4)` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is negative, `resonance_cycles` is zero, or
    /// `mean_interval` is not positive.
    pub fn new(depth: f64, resonance_cycles: u64, mean_interval: f64, seed: u64) -> VoltageDroop {
        assert!(depth >= 0.0, "droop depth must be non-negative");
        assert!(resonance_cycles > 0, "resonance period must be positive");
        assert!(mean_interval > 0.0, "mean interval must be positive");
        let depth = u64::from(Q16::from_f64(depth).0);
        let window = mean_interval.round().max(1.0) as u64;
        let tau = (mean_interval / 20.0).max(4.0);
        VoltageDroop {
            depth,
            ripple: depth / 4,
            ripple_step: phase_step(resonance_cycles),
            window,
            window_inverse: u64::MAX / window,
            decay: (std::f64::consts::LOG2_E * f64::from(1u32 << 24) / tau).round() as u64,
            seed,
        }
    }

    /// `cycle / window`: `cycle · inverse / 2⁶⁴` falls short of it by
    /// less than one, so one correction step makes it exact.
    #[inline]
    fn window_of(&self, cycle: u64) -> u64 {
        let k = ((u128::from(cycle) * u128::from(self.window_inverse)) >> 64) as u64;
        k + u64::from(cycle - k * self.window >= self.window)
    }

    /// The start of the event in window `k`.
    #[inline]
    fn event_in(&self, k: u64) -> u64 {
        let offset = (u128::from(splitmix64(self.seed, k)) * u128::from(self.window)) >> 64;
        (k * self.window).saturating_add(offset as u64)
    }

    /// The start of the latest event at or before `cycle`, or `None`
    /// before the first.
    #[inline]
    pub(crate) fn last_event(&self, cycle: u64) -> Option<u64> {
        let k = self.window_of(cycle);
        let here = self.event_in(k);
        if here <= cycle {
            Some(here)
        } else if k > 0 {
            Some(self.event_in(k - 1))
        } else {
            None
        }
    }

    /// The recovery tail at `cycle` of the event that started at
    /// `start`, in Q16: `depth · 2^(−age·decay/2²⁴)`, non-increasing
    /// in `cycle` (the table is non-increasing).
    #[inline]
    fn tail(&self, start: u64, cycle: u64) -> u64 {
        let y = (cycle - start).saturating_mul(self.decay);
        (self.depth * u64::from(exp2_neg_q31(y))) >> 31
    }

    /// The factor at `cycle`: `1 + ripple + event`.
    #[inline]
    pub fn at(&self, cycle: u64) -> Q16 {
        let phase = cycle.wrapping_mul(self.ripple_step) as u32;
        let ripple = (self.ripple * u64::from(positive_sine_q16(phase))) >> 16;
        let event = self
            .last_event(cycle)
            .map_or(0, |start| self.tail(start, cycle));
        one_plus(&[ripple, event])
    }

    /// `1 + depth/4 + depth`: the ripple's sine and the recovery tail
    /// are both at most one.
    #[cfg(test)]
    pub(crate) fn bound(&self) -> Q16 {
        one_plus(&[self.ripple, self.depth])
    }

    /// A bound on the factor over `from..until`, and `until`: the
    /// ripple's amplitude plus the tail of the latest event at or
    /// before `from`, read at `from`. The latest event stays the same
    /// until the next one starts, and its tail does not grow, so the
    /// bound holds until then. While the tail decays, `until` comes
    /// at most `max(window/20, 4)` cycles (about one recovery constant
    /// τ) later, so the next bound is tighter; a tail that has reached
    /// zero stays there until the next event.
    pub(crate) fn bound_from(&self, from: u64) -> (Q16, u64) {
        let k = self.window_of(from);
        let here = self.event_in(k);
        let (last, next) = if here <= from {
            let next = k
                .checked_add(1)
                .filter(|&j| j.checked_mul(self.window).is_some())
                .map_or(u64::MAX, |j| self.event_in(j));
            (Some(here), next)
        } else {
            (k.checked_sub(1).map(|j| self.event_in(j)), here)
        };
        let tail = last.map_or(0, |start| self.tail(start, from));
        let until = if tail == 0 {
            next
        } else {
            next.min(from.saturating_add((self.window / 20).max(4)))
        };
        (one_plus(&[self.ripple, tail]), until)
    }
}

/// Slow global temperature drift: a bounded, clipped sinusoid over a
/// very long period (thermal time constants are ~ms, i.e. millions of
/// cycles), at a seeded phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemperatureDrift {
    /// Peak derating, Q16.
    amplitude: u64,
    /// Phase advance per cycle (see [`phase_step`]).
    step: u64,
    /// Phase at cycle 0.
    phase: u32,
}

impl TemperatureDrift {
    /// Creates a drift with the given amplitude (e.g. 0.03 = up to 3%
    /// slower) and period in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or `period_cycles` is zero.
    pub fn new(amplitude: f64, period_cycles: u64, seed: u64) -> TemperatureDrift {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        assert!(period_cycles > 0, "period must be positive");
        TemperatureDrift {
            amplitude: u64::from(Q16::from_f64(amplitude).0),
            step: phase_step(period_cycles),
            phase: (splitmix64(seed, 0) >> 32) as u32,
        }
    }

    /// The factor at `cycle`: `1 + amplitude · max(0, sin θ)`.
    #[inline]
    pub fn at(&self, cycle: u64) -> Q16 {
        let phase = (cycle.wrapping_mul(self.step) as u32).wrapping_add(self.phase);
        one_plus(&[(self.amplitude * u64::from(positive_sine_q16(phase))) >> 16])
    }

    /// `1 + amplitude`: the clipped sine is at most one.
    pub(crate) fn bound(&self) -> Q16 {
        one_plus(&[self.amplitude])
    }
}

/// Aging (NBTI-style) wearout: delay grows with the decades of cycles
/// elapsed, `1 + per_decade · log₁₀(1 + cycle)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aging {
    /// Derating added per decade of cycles, Q16.
    per_decade: u64,
}

impl Aging {
    /// Creates an aging model adding `per_decade` derating per factor-10
    /// increase in elapsed cycles.
    ///
    /// # Panics
    ///
    /// Panics if `per_decade` is negative.
    pub fn new(per_decade: f64) -> Aging {
        assert!(per_decade >= 0.0, "per-decade slope must be non-negative");
        Aging {
            per_decade: u64::from(Q16::from_f64(per_decade).0),
        }
    }

    /// The factor at `cycle`, non-decreasing in `cycle`.
    #[inline]
    pub fn at(&self, cycle: u64) -> Q16 {
        let decades = u64::from(log10_q16(cycle.saturating_add(1)));
        one_plus(&[(self.per_decade * decades) >> 16])
    }

    /// The factor at `horizon − 1`, the largest below `horizon`.
    pub(crate) fn bound(&self, horizon: u64) -> Q16 {
        self.at(horizon.saturating_sub(1))
    }

    /// A bound on the factor over `from..until`, and `until`: the
    /// factor at `until − 1`, over a span of `max(from/4, 64)` cycles
    /// that grows as the logarithm flattens.
    pub(crate) fn bound_from(&self, from: u64) -> (Q16, u64) {
        let until = from.saturating_add((from / 4).max(64));
        (self.bound(until), until)
    }
}

/// Fast local noise: an iid normal derating per (cycle, stage),
/// `max(1 + σ·z, 0.5)` with `z` clamped at ±4. Models crosstalk, local
/// IR noise and PLL jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalJitter {
    sigma: Q16,
    seed: u64,
}

impl LocalJitter {
    /// Creates a jitter source with the given sigma (e.g. 0.01 = 1%).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(sigma: f64, seed: u64) -> LocalJitter {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LocalJitter {
            sigma: Q16::from_f64(sigma),
            seed,
        }
    }

    /// The factor at (`cycle`, `stage`): one inverse-CDF table read on
    /// the coordinate's counter-mode draw.
    #[inline]
    pub fn at(&self, cycle: u64, stage: usize) -> Q16 {
        spread(self.sigma, normal_q16(draw(self.seed, cycle, stage)))
    }

    /// The factor at the +4σ clamp.
    pub(crate) fn bound(&self) -> Q16 {
        spread(self.sigma, 4 * Q16_ONE as i32)
    }
}

/// The delay-derating environment: at most one source of each kind.
///
/// The global part is droop × temperature × aging and the local part
/// process × jitter, each product taken in that order; a missing source
/// contributes `Q16::ONE`, the identity of the product. The
/// environment holds no boxes and no generator state: every query is a
/// pure function of the sources' parameters and the coordinates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompositeVariability {
    process: Option<ProcessVariation>,
    droop: Option<VoltageDroop>,
    temperature: Option<TemperatureDrift>,
    aging: Option<Aging>,
    jitter: Option<LocalJitter>,
}

impl CompositeVariability {
    /// The nominal environment: no sources, factor `Q16::ONE`
    /// everywhere.
    pub fn nominal() -> CompositeVariability {
        CompositeVariability::default()
    }

    /// The static bound on the global part over `0..horizon`: each
    /// source at its worst, aging at `horizon − 1`. No expiring bound
    /// may exceed it.
    #[cfg(test)]
    pub(crate) fn static_global_bound(&self, horizon: u64) -> Q16 {
        let droop = self.droop.map_or(Q16::ONE, |d| d.bound());
        let temperature = self.temperature.map_or(Q16::ONE, |t| t.bound());
        let aging = self.aging.map_or(Q16::ONE, |a| a.bound(horizon));
        droop * temperature * aging
    }
}

impl DelaySource for CompositeVariability {
    #[inline]
    fn global(&self, cycle: u64) -> Q16 {
        let droop = self.droop.map_or(Q16::ONE, |d| d.at(cycle));
        let temperature = self.temperature.map_or(Q16::ONE, |t| t.at(cycle));
        let aging = self.aging.map_or(Q16::ONE, |a| a.at(cycle));
        droop * temperature * aging
    }

    #[inline]
    fn local(&self, cycle: u64, stage: usize) -> Q16 {
        let process = self.process.as_ref().map_or(Q16::ONE, |p| p.at(stage));
        let jitter = self.jitter.map_or(Q16::ONE, |j| j.at(cycle, stage));
        process * jitter
    }

    /// Each global source's bound from `from`, multiplied as the
    /// factors are, until the first of them expires; temperature's
    /// bound never does.
    fn global_bound(&self, from: u64) -> Option<(Q16, u64)> {
        let forever = (Q16::ONE, u64::MAX);
        let (droop, droop_until) = self.droop.map_or(forever, |d| d.bound_from(from));
        let temperature = self.temperature.map_or(Q16::ONE, |t| t.bound());
        let (aging, aging_until) = self.aging.map_or(forever, |a| a.bound_from(from));
        Some((droop * temperature * aging, droop_until.min(aging_until)))
    }

    /// The stage's process factor times the jitter at +4σ.
    fn local_bound(&self, stage: usize) -> Option<Q16> {
        let process = self.process.as_ref().map_or(Q16::ONE, |p| p.at(stage));
        let jitter = self.jitter.map_or(Q16::ONE, |j| j.bound());
        Some(process * jitter)
    }
}

/// Builder for [`CompositeVariability`].
///
/// Every added source derives its seed from the builder seed, so one
/// seed reproduces the whole environment.
#[derive(Debug, Clone)]
pub struct VariabilityBuilder {
    seed: u64,
    next_salt: u64,
    env: CompositeVariability,
}

/// Puts `source` in its slot.
///
/// # Panics
///
/// Panics if the slot already holds one.
fn place<T>(slot: &mut Option<T>, source: T, kind: &str) {
    assert!(slot.is_none(), "an environment holds one {kind} source");
    *slot = Some(source);
}

impl VariabilityBuilder {
    /// Starts a builder with a master seed.
    pub fn new(seed: u64) -> VariabilityBuilder {
        VariabilityBuilder {
            seed,
            next_salt: 1,
            env: CompositeVariability::nominal(),
        }
    }

    fn salt(&mut self) -> u64 {
        let s = self
            .seed
            .wrapping_add(self.next_salt.wrapping_mul(0xA24B_AED4_963E_E407));
        self.next_salt += 1;
        s
    }

    /// Adds static process variation over `stages` stages.
    ///
    /// # Panics
    ///
    /// Panics if the environment already has process variation (and
    /// see [`ProcessVariation::new`]). Every other source panics the
    /// same way when added twice.
    pub fn process(mut self, stages: usize, sigma: f64) -> VariabilityBuilder {
        let source = ProcessVariation::new(stages, sigma, self.salt());
        place(&mut self.env.process, source, "process");
        self
    }

    /// Adds voltage droop (see [`VoltageDroop::new`]).
    pub fn voltage_droop(
        mut self,
        depth: f64,
        resonance_cycles: u64,
        mean_interval: f64,
    ) -> VariabilityBuilder {
        let source = VoltageDroop::new(depth, resonance_cycles, mean_interval, self.salt());
        place(&mut self.env.droop, source, "droop");
        self
    }

    /// Adds temperature drift.
    pub fn temperature(mut self, amplitude: f64, period_cycles: u64) -> VariabilityBuilder {
        let source = TemperatureDrift::new(amplitude, period_cycles, self.salt());
        place(&mut self.env.temperature, source, "temperature");
        self
    }

    /// Adds aging wearout.
    pub fn aging(mut self, per_decade: f64) -> VariabilityBuilder {
        place(&mut self.env.aging, Aging::new(per_decade), "aging");
        self
    }

    /// Adds fast local jitter.
    pub fn local_jitter(mut self, sigma: f64) -> VariabilityBuilder {
        let source = LocalJitter::new(sigma, self.salt());
        place(&mut self.env.jitter, source, "jitter");
        self
    }

    /// Finishes the environment.
    pub fn build(self) -> CompositeVariability {
        self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q16_rounds_multiplies_and_derates() {
        assert_eq!(Q16::from_f64(1.0), Q16::ONE);
        assert_eq!(Q16::from_f64(0.05).0, 3277);
        assert_eq!(Q16::from_f64(1e12).0, u32::MAX);
        assert_eq!(Q16(98_304) * Q16(98_304), Q16(147_456), "1.5 · 1.5");
        assert_eq!(Q16(3) * Q16(Q16_ONE / 2), Q16(1), "rounds down");
        assert_eq!(Q16(u32::MAX) * Q16(u32::MAX), Q16(u32::MAX));
        assert_eq!(Q16(1234).derate(Picos(1 << 16)), Picos(1234));
        assert_eq!(Q16(98_304).derate(Picos(1001)), Picos(1501));
        assert_eq!(Q16(u32::MAX).derate(Picos(i64::MAX)), Picos(i64::MAX));
        assert_eq!(Q16(98_304).to_f64(), 1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn q16_rejects_negative_factors() {
        let _ = Q16::from_f64(-0.1);
    }

    #[test]
    fn process_variation_is_static() {
        let p = ProcessVariation::new(4, 0.05, 1);
        assert_ne!(p.at(0), p.at(1));
        assert_eq!(p.at(6), p.at(2), "stages past the last wrap around");
    }

    #[test]
    fn process_variation_zero_sigma_is_nominal() {
        let flat = ProcessVariation::new(4, 0.0, 1);
        assert!((0..4).all(|s| flat.at(s) == Q16::ONE));
    }

    #[test]
    fn droop_events_decay() {
        let d = VoltageDroop::new(0.10, 1_000_000, 10_000.0, 3);
        let start = d.last_event(50_000).expect("an event within five windows");
        let peak = d.at(start);
        assert!(peak >= Q16::from_f64(1.09), "{peak:?}");
        assert!(d.at(start + 30) < peak, "droop must recover");
    }

    #[test]
    fn droop_windows_divide_exactly() {
        for mean_interval in [1.0, 2.0, 3.0, 60.0, 400.0, 2000.0, 1e9, 1.8e19] {
            let d = VoltageDroop::new(0.05, 500, mean_interval, 1);
            let w = d.window;
            let edges = [0, 1, w - 1, w, w + 1, u64::MAX - 1, u64::MAX];
            let hashed = (0..2_000).map(|i| splitmix64(w, i));
            for cycle in edges.into_iter().chain(hashed) {
                assert_eq!(d.window_of(cycle), cycle / w, "{cycle} / {w}");
            }
        }
    }

    #[test]
    fn droop_factor_never_speeds_up() {
        let d = VoltageDroop::new(0.08, 500, 200.0, 9);
        assert!((0..5_000u64).all(|c| d.at(c) >= Q16::ONE));
    }

    #[test]
    fn temperature_is_bounded_and_slow() {
        let t = TemperatureDrift::new(0.03, 1_000_000, 5);
        for c in (0..10_000_000u64).step_by(100_000) {
            assert!((Q16::ONE..=t.bound()).contains(&t.at(c)));
        }
        assert_eq!(t.bound(), Q16::from_f64(1.03));
        // Adjacent cycles barely differ (slow drift).
        let (a, b) = (t.at(1_000).0, t.at(1_001).0);
        assert!(a.abs_diff(b) <= 2, "{a} -> {b}");
    }

    #[test]
    fn aging_is_monotone() {
        let a = Aging::new(0.01);
        assert!(a.at(1_000_000) > a.at(10));
        assert_eq!(a.at(0), Q16::ONE);
        // log10(1000) = 3 decades, within the tables' rounding.
        let at_999 = a.at(999).to_f64();
        assert!((at_999 - 1.03).abs() < 1e-4, "{at_999}");
    }

    #[test]
    fn local_jitter_is_deterministic_per_coordinate() {
        let j = LocalJitter::new(0.02, 11);
        assert_eq!(j.at(123, 4), j.at(123, 4));
        assert_eq!(j.at(123, 4), LocalJitter::new(0.02, 11).at(123, 4));
        // Different coordinates give different factors (overwhelmingly).
        assert_ne!(j.at(123, 4), j.at(124, 4));
    }

    #[test]
    fn composite_multiplies_sources() {
        let env = VariabilityBuilder::new(99)
            .process(4, 0.03)
            .voltage_droop(0.08, 500, 300.0)
            .temperature(0.02, 700)
            .aging(0.01)
            .local_jitter(0.01)
            .build();
        let (process, droop) = (env.process.clone().unwrap(), env.droop.unwrap());
        let (temperature, aging) = (env.temperature.unwrap(), env.aging.unwrap());
        let jitter = env.jitter.unwrap();
        for c in [0u64, 17, 4_000] {
            for s in 0..4 {
                let global = droop.at(c) * temperature.at(c) * aging.at(c);
                let local = process.at(s) * jitter.at(c, s);
                assert_eq!(env.factor(c, s), global * local, "cycle {c} stage {s}");
            }
        }
    }

    #[test]
    fn nominal_composite_is_identity() {
        let env = CompositeVariability::nominal();
        assert_eq!(env.factor(42, 7), Q16::ONE);
        assert_eq!(env.global_bound(1 << 40), Some((Q16::ONE, u64::MAX)));
        assert_eq!(env.local_bound(3), Some(Q16::ONE));
    }

    #[test]
    fn builder_produces_reproducible_environment() {
        let make = || {
            VariabilityBuilder::new(99)
                .process(4, 0.03)
                .voltage_droop(0.08, 500, 300.0)
                .local_jitter(0.01)
                .build()
        };
        assert_eq!(make(), make());
        let (a, b) = (make(), make());
        for c in 0..200u64 {
            for s in 0..4 {
                assert_eq!(a.factor(c, s), b.factor(c, s));
            }
        }
    }

    #[test]
    #[should_panic(expected = "one droop source")]
    fn builder_rejects_a_second_source_of_a_kind() {
        let _ = VariabilityBuilder::new(1)
            .voltage_droop(0.05, 500, 2000.0)
            .voltage_droop(0.08, 48, 60.0);
    }
}
