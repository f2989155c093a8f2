//! Property-based tests (proptest) for the variability models.

#![cfg(test)]

use proptest::prelude::*;

use timber_netlist::Picos;

use crate::model::{
    Aging, CompositeVariability, DelaySource, LocalJitter, ProcessVariation, TemperatureDrift,
    VariabilityBuilder, VoltageDroop,
};
use crate::sensitization::{SensitizationModel, StagePathProfile};

proptest! {
    /// Every composed environment yields positive, bounded factors.
    #[test]
    fn composite_factors_bounded(
        seed in 0u64..100,
        droop in 0.0f64..0.15,
        jitter in 0.0f64..0.03,
        cycle in 0u64..100_000,
        stage in 0usize..8,
    ) {
        let mut var = VariabilityBuilder::new(seed)
            .process(8, 0.03)
            .voltage_droop(droop.max(0.001), 500, 1000.0)
            .temperature(0.02, 1_000_000)
            .aging(0.002)
            .local_jitter(jitter)
            .build();
        let f = var.factor(cycle, stage);
        prop_assert!(f > 0.3, "factor {f} too small");
        prop_assert!(f < 2.5, "factor {f} too large");
    }

    /// Aging is monotone non-decreasing in time for any slope.
    #[test]
    fn aging_monotone(slope in 0.0f64..0.05, c1 in 0u64..1_000_000, c2 in 0u64..1_000_000) {
        let mut a = Aging::new(slope);
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(a.factor(lo, 0) <= a.factor(hi, 0) + 1e-12);
    }

    /// Temperature drift never speeds the circuit up and never exceeds
    /// its amplitude.
    #[test]
    fn temperature_bounded(
        amp in 0.0f64..0.1,
        period in 1_000u64..10_000_000,
        seed in 0u64..50,
        cycle in 0u64..50_000_000,
    ) {
        let mut t = TemperatureDrift::new(amp, period, seed);
        let f = t.factor(cycle, 0);
        prop_assert!(f >= 1.0 - 1e-12);
        prop_assert!(f <= 1.0 + amp + 1e-12);
    }

    /// Local jitter is a pure function of (seed, cycle, stage).
    #[test]
    fn jitter_pure(
        sigma in 0.0f64..0.05,
        seed in 0u64..100,
        cycle in 0u64..1_000_000,
        stage in 0usize..16,
    ) {
        let mut j1 = LocalJitter::new(sigma, seed);
        let mut j2 = LocalJitter::new(sigma, seed);
        prop_assert_eq!(j1.factor(cycle, stage), j2.factor(cycle, stage));
    }

    /// Sensitized delays never exceed the critical delay and are always
    /// positive, for any valid profile.
    #[test]
    fn sensitization_bounded(
        crit in 100i64..5000,
        p_crit in 0.0f64..0.5,
        p_near in 0.0f64..0.5,
        seed in 0u64..50,
    ) {
        let mut profile = StagePathProfile::from_critical(Picos(crit));
        profile.p_critical = p_crit;
        profile.p_near = p_near.min(1.0 - p_crit);
        let m = SensitizationModel::new(vec![profile], seed);
        for cycle in 0..200 {
            let d = m.sample(cycle, 0);
            prop_assert!(d > Picos::ZERO);
            prop_assert!(d <= Picos(crit));
        }
    }
}

/// Checks `factor ≤ factor_bound_at ≤ factor_bound` at every stage and
/// every cycle below `horizon`, querying each cycle's stages in order
/// as the simulator does (the per-query bound first).
fn assert_bounded(src: &mut dyn DelaySource, stages: usize, horizon: u64) {
    let bounds: Vec<f64> = (0..stages)
        .map(|s| {
            src.factor_bound(s, horizon)
                .expect("built-in sources are bounded")
        })
        .collect();
    for c in 0..horizon {
        for (s, &bound) in bounds.iter().enumerate() {
            let at = src
                .factor_bound_at(c, s)
                .expect("built-in sources are bounded");
            let f = src.factor(c, s);
            prop_assert!(
                (0.0..=at).contains(&f) && at <= bound,
                "{}: factor {f} outside [0, {at}] or per-query bound above {bound} \
                 at cycle {c} stage {s}",
                src.name()
            );
        }
    }
}

/// Checks promise two of `factor_bound`: an instance that skips the
/// queries `skip` selects answers every remaining query exactly as one
/// that saw them all. Like the simulator, it asks the per-query bound
/// before each exact factor, and on the skipped queries of even cycles
/// (those the per-query bound decides).
fn assert_skip_invisible(
    full: &mut dyn DelaySource,
    sparse: &mut dyn DelaySource,
    stages: usize,
    horizon: u64,
    skip: impl Fn(u64, usize) -> bool,
) {
    for c in 0..horizon {
        for s in 0..stages {
            let f = full.factor(c, s);
            if !skip(c, s) || c.is_multiple_of(2) {
                let _ = sparse.factor_bound_at(c, s);
            }
            if !skip(c, s) {
                prop_assert_eq!(
                    sparse.factor(c, s).to_bits(),
                    f.to_bits(),
                    "cycle {c} stage {s}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Process variation is bounded by its own static stage factor,
    /// including where the `0.5` floor clips a wide spread.
    #[test]
    fn process_factor_within_bound(
        stages in 1usize..8,
        sigma in 0.0f64..0.6,
        seed in any::<u64>(),
        horizon in 1u64..500,
    ) {
        assert_bounded(&mut ProcessVariation::new(stages, sigma, seed), stages, horizon);
    }

    /// Droop stays under `(1 + depth/4) + depth` through dense,
    /// overlapping event trains, and skipping queries (whole cycles or
    /// single stages) never changes a later answer.
    #[test]
    fn droop_factor_within_bound_and_skips_are_invisible(
        depth in 0.0f64..0.6,
        resonance in 1u64..600,
        mean_interval in 1.0f64..400.0,
        seed in any::<u64>(),
        horizon in 1u64..3000,
        stride in 2u64..9,
    ) {
        let make = || VoltageDroop::new(depth, resonance, mean_interval, seed);
        assert_bounded(&mut make(), 3, horizon);
        assert_skip_invisible(&mut make(), &mut make(), 3, horizon, |c, s| {
            !(c + s as u64).is_multiple_of(stride)
        });
    }

    /// Temperature drift stays under `1 + amplitude`.
    #[test]
    fn temperature_factor_within_bound(
        amplitude in 0.0f64..0.5,
        period in 1u64..5000,
        seed in any::<u64>(),
        horizon in 1u64..3000,
    ) {
        assert_bounded(&mut TemperatureDrift::new(amplitude, period, seed), 2, horizon);
    }

    /// Aging stays under its bound for every cycle below the horizon,
    /// and near the top of horizons far past any run length.
    #[test]
    fn aging_factor_within_bound(
        per_decade in 0.0f64..0.5,
        horizon in 1u64..20_000,
        far in 1u64..(1u64 << 50),
    ) {
        let mut aging = Aging::new(per_decade);
        assert_bounded(&mut aging, 1, horizon);
        let bound = aging.factor_bound(0, far).expect("bounded");
        for c in far.saturating_sub(64)..far {
            let f = aging.factor(c, 0);
            prop_assert!(f <= bound, "factor {f} > bound {bound} at cycle {c}");
        }
    }

    /// Jitter stays under `max(1 + 4σ, 0.5)`, including sigmas wide
    /// enough for the clamp and the floor to bite, and is counter-mode:
    /// skipped queries change nothing.
    #[test]
    fn jitter_factor_within_bound_and_skips_are_invisible(
        sigma in 0.0f64..0.4,
        seed in any::<u64>(),
        stages in 1usize..8,
        horizon in 1u64..2000,
        stride in 2u64..9,
    ) {
        assert_bounded(&mut LocalJitter::new(sigma, seed), stages, horizon);
        assert_skip_invisible(
            &mut LocalJitter::new(sigma, seed),
            &mut LocalJitter::new(sigma, seed),
            stages,
            horizon,
            |c, s| (c * 7 + s as u64).is_multiple_of(stride),
        );
    }

    /// A composite of every source is bounded by the product of their
    /// bounds, and skipping queries changes none of its later answers.
    #[test]
    fn composite_factor_within_bound_and_skips_are_invisible(
        seed in any::<u64>(),
        stages in 1usize..7,
        depths in (0.0f64..0.3, 0.0f64..0.1, 0.0f64..0.1),
        horizon in 1u64..1500,
        stride in 2u64..9,
    ) {
        let (droop, jitter, aging) = depths;
        let make = || {
            VariabilityBuilder::new(seed)
                .process(stages, 0.05)
                .voltage_droop(droop, 48, 60.0)
                .temperature(0.03, 700)
                .aging(aging)
                .local_jitter(jitter)
                .build()
        };
        assert_bounded(&mut make(), stages, horizon);
        assert_skip_invisible(&mut make(), &mut make(), stages, horizon, |c, s| {
            !(c + 3 * s as u64).is_multiple_of(stride)
        });
    }
}

/// A source that promises nothing.
struct Unbounded;

impl DelaySource for Unbounded {
    fn factor(&mut self, _cycle: u64, _stage: usize) -> f64 {
        1.0
    }

    fn name(&self) -> &str {
        "unbounded"
    }
}

#[test]
fn composite_bound_needs_every_source_bounded() {
    let bounded = CompositeVariability::new(vec![Box::new(Aging::new(0.01))]);
    assert!(bounded.factor_bound(0, 100).is_some());
    let mut mixed =
        CompositeVariability::new(vec![Box::new(Aging::new(0.01)), Box::new(Unbounded)]);
    assert_eq!(mixed.factor_bound(0, 100), None);
    assert_eq!(mixed.factor_bound_at(7, 0), None);
    assert_eq!(
        CompositeVariability::nominal().factor_bound(3, 100),
        Some(1.0)
    );
    assert_eq!(
        CompositeVariability::nominal().factor_bound_at(9, 3),
        Some(1.0)
    );
}

#[test]
fn slow_sources_answer_per_query_exactly_and_jitter_statically() {
    let mut exact: Vec<Box<dyn DelaySource>> = vec![
        Box::new(ProcessVariation::new(3, 0.05, 4)),
        Box::new(VoltageDroop::new(0.2, 48, 60.0, 4)),
        Box::new(TemperatureDrift::new(0.03, 700, 4)),
        Box::new(Aging::new(0.06)),
    ];
    for src in &mut exact {
        for c in 0..300 {
            let at = src.factor_bound_at(c, 1);
            assert_eq!(at, Some(src.factor(c, 1)), "{} at {c}", src.name());
        }
    }
    let mut jitter = LocalJitter::new(0.05, 4);
    for c in 0..300 {
        assert_eq!(jitter.factor_bound_at(c, 1), jitter.factor_bound(1, 1));
    }
}
