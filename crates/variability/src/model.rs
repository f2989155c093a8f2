//! Delay-derating sources and their composition.
//!
//! Each source implements [`DelaySource`]: a multiplicative factor on a
//! pipeline stage's combinational delay at a given clock cycle. Factors
//! combine multiplicatively in [`CompositeVariability`].
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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::math::box_muller;
use crate::sensitization::splitmix64;

/// A time- and stage-dependent multiplicative delay derating.
///
/// A factor of 1.0 is nominal; 1.10 means combinational delays are 10%
/// slower on that cycle at that stage.
pub trait DelaySource {
    /// Derating factor at `cycle` for pipeline `stage`.
    fn factor(&mut self, cycle: u64, stage: usize) -> f64;

    /// A static upper bound on this source's factor at `stage` over
    /// cycles `0..horizon`, or `None` (the default): "never skip".
    ///
    /// `Some(b)` makes two promises, which let the pipeline simulator
    /// skip the exact factor on a stage whose worst case is on time:
    ///
    /// 1. `0 ≤ factor(c, stage) ≤ b` for every `c < horizon` — as
    ///    rounded `f64`s, not only in exact arithmetic;
    /// 2. skipping any queries does not change the answer to a later
    ///    one (counter-mode sources, and stateful ones that catch up
    ///    on the next query, both qualify).
    ///
    /// Each built-in bound follows from the factor's own expression
    /// with the same operations in the same order: IEEE rounding is
    /// monotone, so a bound that dominates every operand before
    /// rounding still dominates after it.
    fn factor_bound(&self, stage: usize, horizon: u64) -> Option<f64> {
        let _ = (stage, horizon);
        None
    }

    /// An upper bound on `factor(cycle, stage)` for this one query, or
    /// `None`. The default is the static bound over cycles
    /// `0..=cycle`.
    ///
    /// The simulator asks for it only where the static bound exists
    /// but does not prove a stage on time, and before it derives the
    /// exact factor, so a source may answer from its cheap part: a
    /// composite whose slow terms already keep the stage on time never
    /// pays for its costly ones. `Some(b)` promises
    /// `0 ≤ factor(cycle, stage) ≤ b` as rounded `f64`s; the query
    /// follows the same non-decreasing cycle order as
    /// [`DelaySource::factor`] and changes no answer to a later query
    /// (promise 2 of [`DelaySource::factor_bound`]), whether or not the
    /// exact factor of this one is asked for next.
    fn factor_bound_at(&mut self, cycle: u64, stage: usize) -> Option<f64> {
        self.factor_bound(stage, cycle.saturating_add(1))
    }

    /// Short, human-readable source name (for reports).
    fn name(&self) -> &str;
}

/// Static process variation: a per-stage factor drawn once at
/// construction from N(1, sigma²), constant for the run.
#[derive(Debug, Clone)]
pub struct ProcessVariation {
    factors: Vec<f64>,
}

impl ProcessVariation {
    /// Draws per-stage factors for `stages` stages.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(stages: usize, sigma: f64, seed: u64) -> ProcessVariation {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        let factors = (0..stages)
            .map(|_| (1.0 + sigma * box_muller(&mut rng)).max(0.5))
            .collect();
        ProcessVariation { factors }
    }
}

impl DelaySource for ProcessVariation {
    fn factor(&mut self, _cycle: u64, stage: usize) -> f64 {
        self.factors[stage % self.factors.len()]
    }

    /// The stage's own static factor. The per-query bound, which
    /// defaults to this, is therefore exact too.
    fn factor_bound(&self, stage: usize, _horizon: u64) -> Option<f64> {
        Some(self.factors[stage % self.factors.len()])
    }

    fn name(&self) -> &str {
        "process"
    }
}

/// Global supply-voltage droop: a resonant sinusoidal component plus
/// Poisson-arriving droop events with exponential recovery.
///
/// Voltage droop is the dominant *slow-changing global* source in the
/// paper's discussion: when a droop event hits, several consecutive
/// cycles slow down together, which is what makes multi-stage timing
/// errors possible at all.
#[derive(Debug, Clone)]
pub struct VoltageDroop {
    /// Peak derating of a droop event (e.g. 0.08 = 8% slower).
    depth: f64,
    /// Period of the resonant component, in cycles.
    resonance_cycles: u64,
    /// Mean cycles between droop events.
    mean_interval: f64,
    /// Exponential recovery time constant, in cycles.
    recovery_tau: f64,
    rng: StdRng,
    next_event: u64,
    /// Cycle at which the most recent droop event started.
    last_event: Option<u64>,
    last_cycle_seen: u64,
    /// Cycle the cached factor was computed for (`u64::MAX` = none).
    /// The factor is stage-independent, and the simulator queries all
    /// stages of a cycle back-to-back, so this avoids recomputing the
    /// ripple sinusoid and recovery exponential per stage.
    cached_cycle: u64,
    cached_factor: f64,
}

impl VoltageDroop {
    /// Creates a droop model.
    ///
    /// * `depth` — peak derating of an event (0.08 = up to 8% slower);
    /// * `resonance_cycles` — period of the small always-on resonant
    ///   ripple (its amplitude is `depth / 4`);
    /// * `mean_interval` — mean cycles between droop events.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is negative, `resonance_cycles` is zero, or
    /// `mean_interval` is not positive.
    pub fn new(depth: f64, resonance_cycles: u64, mean_interval: f64, seed: u64) -> VoltageDroop {
        assert!(depth >= 0.0, "droop depth must be non-negative");
        assert!(resonance_cycles > 0, "resonance period must be positive");
        assert!(mean_interval > 0.0, "mean interval must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let first = crate::math::exponential(&mut rng, 1.0 / mean_interval).ceil() as u64;
        VoltageDroop {
            depth,
            resonance_cycles,
            mean_interval,
            recovery_tau: (mean_interval / 20.0).max(4.0),
            rng,
            next_event: first,
            last_event: None,
            last_cycle_seen: 0,
            cached_cycle: u64::MAX,
            cached_factor: 1.0,
        }
    }
}

impl DelaySource for VoltageDroop {
    fn factor(&mut self, cycle: u64, _stage: usize) -> f64 {
        if cycle == self.cached_cycle {
            return self.cached_factor;
        }
        // Advance event schedule up to `cycle`. Queries must be
        // monotone in cycle (the pipeline simulator guarantees this).
        debug_assert!(
            cycle >= self.last_cycle_seen,
            "VoltageDroop must be queried with non-decreasing cycles"
        );
        self.last_cycle_seen = cycle;
        while cycle >= self.next_event {
            self.last_event = Some(self.next_event);
            let gap = crate::math::exponential(&mut self.rng, 1.0 / self.mean_interval);
            self.next_event += gap.ceil().max(1.0) as u64;
        }
        let ripple = (self.depth / 4.0)
            * (std::f64::consts::TAU * (cycle % self.resonance_cycles) as f64
                / self.resonance_cycles as f64)
                .sin()
                .max(0.0);
        let event = match self.last_event {
            Some(start) => {
                let age = (cycle - start) as f64;
                self.depth * (-age / self.recovery_tau).exp()
            }
            None => 0.0,
        };
        self.cached_cycle = cycle;
        self.cached_factor = 1.0 + ripple + event;
        self.cached_factor
    }

    /// `(1 + depth/4) + depth`: the ripple is `depth/4` times a sine
    /// clipped to `[0, 1]`, and the event term is `depth` times
    /// `exp` of a non-positive argument, at most 1. The event schedule
    /// catches up on whatever cycle is queried next, so skipped
    /// queries change nothing.
    fn factor_bound(&self, _stage: usize, _horizon: u64) -> Option<f64> {
        Some((1.0 + self.depth / 4.0) + self.depth)
    }

    /// The exact factor: one evaluation per cycle, cached for the
    /// cycle's other stages and for the exact query that may follow.
    fn factor_bound_at(&mut self, cycle: u64, stage: usize) -> Option<f64> {
        Some(self.factor(cycle, stage))
    }

    fn name(&self) -> &str {
        "voltage-droop"
    }
}

/// Slow global temperature drift: a bounded sinusoid over a very long
/// period (thermal time constants are ~ms, i.e. millions of cycles).
#[derive(Debug, Clone)]
pub struct TemperatureDrift {
    amplitude: f64,
    period_cycles: u64,
    phase: f64,
    /// Cycle the cached factor was computed for (`u64::MAX` = none).
    /// Drift is a pure, stage-independent function of the cycle, so
    /// per-stage queries within a cycle reuse one sinusoid evaluation.
    cached_cycle: u64,
    cached_factor: f64,
}

impl TemperatureDrift {
    /// Creates a drift with the given amplitude (e.g. 0.03 = ±3%) and
    /// period in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or `period_cycles` is zero.
    pub fn new(amplitude: f64, period_cycles: u64, seed: u64) -> TemperatureDrift {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        assert!(period_cycles > 0, "period must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        TemperatureDrift {
            amplitude,
            period_cycles,
            phase: rng.gen_range(0.0..std::f64::consts::TAU),
            cached_cycle: u64::MAX,
            cached_factor: 1.0,
        }
    }
}

impl DelaySource for TemperatureDrift {
    fn factor(&mut self, cycle: u64, _stage: usize) -> f64 {
        if cycle == self.cached_cycle {
            return self.cached_factor;
        }
        let theta = std::f64::consts::TAU * (cycle % self.period_cycles) as f64
            / self.period_cycles as f64
            + self.phase;
        self.cached_cycle = cycle;
        self.cached_factor = 1.0 + self.amplitude * theta.sin().max(0.0);
        self.cached_factor
    }

    /// `1 + amplitude`: the sine is clipped to `[0, 1]`.
    fn factor_bound(&self, _stage: usize, _horizon: u64) -> Option<f64> {
        Some(1.0 + self.amplitude)
    }

    /// The exact factor, cached per cycle.
    fn factor_bound_at(&mut self, cycle: u64, stage: usize) -> Option<f64> {
        Some(self.factor(cycle, stage))
    }

    fn name(&self) -> &str {
        "temperature"
    }
}

/// Aging (NBTI-style) wearout: delay grows logarithmically with time.
#[derive(Debug, Clone)]
pub struct Aging {
    /// Derating added per decade of cycles.
    per_decade: f64,
    /// Cycle the cached factor was computed for (`u64::MAX` = none).
    /// Aging is a pure, stage-independent function of the cycle, so
    /// per-stage queries within a cycle reuse one `log10`.
    cached_cycle: u64,
    cached_factor: f64,
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
            per_decade,
            cached_cycle: u64::MAX,
            cached_factor: 1.0,
        }
    }

    fn at(&self, cycle: u64) -> f64 {
        1.0 + self.per_decade * (1.0 + cycle as f64).log10()
    }
}

impl DelaySource for Aging {
    fn factor(&mut self, cycle: u64, _stage: usize) -> f64 {
        if cycle != self.cached_cycle {
            self.cached_cycle = cycle;
            self.cached_factor = self.at(cycle);
        }
        self.cached_factor
    }

    /// The factor at `horizon − 1`, one ulp up. The factor grows with
    /// the cycle only as far as libm's `log10` is monotone, which it
    /// does not promise; the ulp at 1.x dwarfs `per_decade` times any
    /// `log10` rounding slip.
    fn factor_bound(&self, _stage: usize, horizon: u64) -> Option<f64> {
        Some(self.at(horizon.saturating_sub(1)).next_up())
    }

    /// The exact factor, cached per cycle.
    fn factor_bound_at(&mut self, cycle: u64, stage: usize) -> Option<f64> {
        Some(self.factor(cycle, stage))
    }

    fn name(&self) -> &str {
        "aging"
    }
}

/// Fast local noise: iid Gaussian derating per (cycle, stage), clipped
/// at ±4 sigma. Models crosstalk, local IR noise and PLL jitter.
#[derive(Debug, Clone)]
pub struct LocalJitter {
    sigma: f64,
    seed: u64,
    /// Counter-mode key of the cached Box–Muller pair
    /// (`u64::MAX` = none).
    cached_key: u64,
    /// One Box–Muller transform yields two independent normals; stages
    /// `2k` and `2k+1` of a cycle share a transform, so consecutive
    /// per-stage queries pay the `ln`/`sqrt`/`sin_cos` only once per
    /// pair. The two draws of a pair are exactly independent, so the
    /// per-coordinate statistics are unchanged.
    cached_pair: (f64, f64),
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
            sigma,
            seed,
            cached_key: u64::MAX,
            cached_pair: (0.0, 0.0),
        }
    }

    /// The Box–Muller pair for a (cycle, stage-pair) key.
    #[inline]
    fn pair_for(&mut self, key: u64) -> (f64, f64) {
        if key == self.cached_key {
            return self.cached_pair;
        }
        // Uniforms in (0, 1]: offset by one ulp step so ln never sees 0.
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let u1 = (splitmix64(key, 0) >> 11) as f64 * SCALE + SCALE;
        let u2 = (splitmix64(key, 1) >> 11) as f64 * SCALE;
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        self.cached_key = key;
        self.cached_pair = (r * cos, r * sin);
        self.cached_pair
    }
}

impl DelaySource for LocalJitter {
    fn factor(&mut self, cycle: u64, stage: usize) -> f64 {
        // Counter-mode: hash (cycle, stage pair) so the factor is a
        // pure function of the coordinate regardless of query order.
        let pair = (stage / 2) as u64;
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(pair.wrapping_mul(0x94D0_49BB_1331_11EB));
        let (z0, z1) = self.pair_for(key);
        let z = if stage.is_multiple_of(2) { z0 } else { z1 };
        let z = z.clamp(-4.0, 4.0);
        (1.0 + self.sigma * z).max(0.5)
    }

    /// `max(1 + 4σ, 0.5)`: the normal draw is clamped to `[-4, 4]`, and
    /// the source is counter-mode, so skipped queries change nothing.
    /// The per-query bound keeps this default: the exact factor costs
    /// a Box–Muller pair, which is what a skip is meant to save.
    fn factor_bound(&self, _stage: usize, _horizon: u64) -> Option<f64> {
        Some((1.0 + 4.0 * self.sigma).max(0.5))
    }

    fn name(&self) -> &str {
        "local-jitter"
    }
}

/// Product of several [`DelaySource`]s.
pub struct CompositeVariability {
    sources: Vec<Box<dyn DelaySource + Send>>,
}

impl CompositeVariability {
    /// Creates a composite from boxed sources.
    pub fn new(sources: Vec<Box<dyn DelaySource + Send>>) -> CompositeVariability {
        CompositeVariability { sources }
    }

    /// A composite with no sources (always factor 1.0).
    pub fn nominal() -> CompositeVariability {
        CompositeVariability {
            sources: Vec::new(),
        }
    }

    /// Names of the composed sources.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.name()).collect()
    }
}

impl std::fmt::Debug for CompositeVariability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeVariability")
            .field("sources", &self.source_names())
            .finish()
    }
}

impl DelaySource for CompositeVariability {
    fn factor(&mut self, cycle: u64, stage: usize) -> f64 {
        self.sources
            .iter_mut()
            .map(|s| s.factor(cycle, stage))
            .product()
    }

    /// The product of the sources' bounds, in source order (the same
    /// fold as [`DelaySource::factor`], so the rounding is monotone
    /// step by step), or `None` if any source gives `None`.
    fn factor_bound(&self, stage: usize, horizon: u64) -> Option<f64> {
        self.sources
            .iter()
            .map(|s| s.factor_bound(stage, horizon))
            .product()
    }

    /// The product of the sources' per-query bounds, folded in source
    /// order like [`DelaySource::factor`]: every operand dominates the
    /// matching factor and none is negative, so each rounded step
    /// dominates too.
    fn factor_bound_at(&mut self, cycle: u64, stage: usize) -> Option<f64> {
        self.sources
            .iter_mut()
            .map(|s| s.factor_bound_at(cycle, stage))
            .product()
    }

    fn name(&self) -> &str {
        "composite"
    }
}

/// Builder for [`CompositeVariability`].
///
/// Every added source derives its seed from the builder seed, so one
/// seed reproduces the whole environment.
#[derive(Debug)]
pub struct VariabilityBuilder {
    seed: u64,
    next_salt: u64,
    sources: Vec<Box<dyn DelaySource + Send>>,
}

impl std::fmt::Debug for Box<dyn DelaySource + Send> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DelaySource({})", self.name())
    }
}

impl VariabilityBuilder {
    /// Starts a builder with a master seed.
    pub fn new(seed: u64) -> VariabilityBuilder {
        VariabilityBuilder {
            seed,
            next_salt: 1,
            sources: Vec::new(),
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
    pub fn process(mut self, stages: usize, sigma: f64) -> VariabilityBuilder {
        let salt = self.salt();
        self.sources
            .push(Box::new(ProcessVariation::new(stages, sigma, salt)));
        self
    }

    /// Adds voltage droop (see [`VoltageDroop::new`]).
    pub fn voltage_droop(
        mut self,
        depth: f64,
        resonance_cycles: u64,
        mean_interval: f64,
    ) -> VariabilityBuilder {
        let salt = self.salt();
        self.sources.push(Box::new(VoltageDroop::new(
            depth,
            resonance_cycles,
            mean_interval,
            salt,
        )));
        self
    }

    /// Adds temperature drift.
    pub fn temperature(mut self, amplitude: f64, period_cycles: u64) -> VariabilityBuilder {
        let salt = self.salt();
        self.sources.push(Box::new(TemperatureDrift::new(
            amplitude,
            period_cycles,
            salt,
        )));
        self
    }

    /// Adds aging wearout.
    pub fn aging(mut self, per_decade: f64) -> VariabilityBuilder {
        self.sources.push(Box::new(Aging::new(per_decade)));
        self
    }

    /// Adds fast local jitter.
    pub fn local_jitter(mut self, sigma: f64) -> VariabilityBuilder {
        let salt = self.salt();
        self.sources.push(Box::new(LocalJitter::new(sigma, salt)));
        self
    }

    /// Finishes the composite.
    pub fn build(self) -> CompositeVariability {
        CompositeVariability::new(self.sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_variation_is_static() {
        let mut p = ProcessVariation::new(4, 0.05, 1);
        let f = p.factor(0, 2);
        assert_eq!(p.factor(100, 2), f);
        assert_eq!(p.factor(1_000_000, 2), f);
    }

    #[test]
    fn process_variation_zero_sigma_is_nominal() {
        let mut p = ProcessVariation::new(4, 0.0, 1);
        for s in 0..4 {
            assert!((p.factor(0, s) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn droop_events_decay() {
        // Events must be sparse relative to the 30-cycle observation
        // window, otherwise a fresh event can land between the peak and
        // the "later" sample and mask the recovery (with a 50-cycle
        // mean interval that happens for most seeds).
        let mut d = VoltageDroop::new(0.10, 1_000_000, 10_000.0, 3);
        // Find a cycle right at an event.
        let mut peak_cycle = None;
        let mut prev = 1.0;
        for c in 0..100_000u64 {
            let f = d.factor(c, 0);
            if f > prev && f > 1.05 {
                peak_cycle = Some(c);
                break;
            }
            prev = f;
        }
        let c = peak_cycle.expect("a droop event should occur in 100k cycles");
        let mut d2 = VoltageDroop::new(0.10, 1_000_000, 10_000.0, 3);
        let at_peak = d2.factor(c, 0);
        let later = d2.factor(c + 30, 0);
        assert!(at_peak > later, "droop must recover: {at_peak} -> {later}");
    }

    #[test]
    fn droop_factor_never_speeds_up() {
        let mut d = VoltageDroop::new(0.08, 500, 200.0, 9);
        for c in 0..5_000u64 {
            assert!(d.factor(c, 0) >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn temperature_is_bounded_and_slow() {
        let mut t = TemperatureDrift::new(0.03, 1_000_000, 5);
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for c in (0..10_000_000u64).step_by(100_000) {
            let f = t.factor(c, 0);
            min = min.min(f);
            max = max.max(f);
        }
        assert!(min >= 1.0 - 1e-12);
        assert!(max <= 1.03 + 1e-12);
        // Adjacent cycles barely differ (slow drift).
        let a = t.factor(1_000, 0);
        let b = t.factor(1_001, 0);
        assert!((a - b).abs() < 1e-4);
    }

    #[test]
    fn aging_is_monotone() {
        let mut a = Aging::new(0.01);
        let early = a.factor(10, 0);
        let late = a.factor(1_000_000, 0);
        assert!(late > early);
        assert!((a.factor(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_jitter_is_deterministic_per_coordinate() {
        let mut j = LocalJitter::new(0.02, 11);
        let f1 = j.factor(123, 4);
        let f2 = j.factor(123, 4);
        assert_eq!(f1, f2);
        // Different coordinates give different factors (overwhelmingly).
        assert_ne!(j.factor(123, 4), j.factor(124, 4));
    }

    #[test]
    fn composite_multiplies_sources() {
        struct Fixed(f64);
        impl DelaySource for Fixed {
            fn factor(&mut self, _c: u64, _s: usize) -> f64 {
                self.0
            }
            fn name(&self) -> &str {
                "fixed"
            }
        }
        let mut c = CompositeVariability::new(vec![Box::new(Fixed(1.1)), Box::new(Fixed(1.2))]);
        assert!((c.factor(0, 0) - 1.32).abs() < 1e-12);
        assert_eq!(c.source_names(), vec!["fixed", "fixed"]);
    }

    #[test]
    fn nominal_composite_is_identity() {
        let mut c = CompositeVariability::nominal();
        assert_eq!(c.factor(42, 7), 1.0);
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
        let mut a = make();
        let mut b = make();
        for c in 0..200u64 {
            for s in 0..4 {
                assert_eq!(a.factor(c, s), b.factor(c, s));
            }
        }
    }
}
