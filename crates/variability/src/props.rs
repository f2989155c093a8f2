//! Statistical and contract tests (proptest) for the variability
//! models.

#![cfg(test)]

use proptest::prelude::*;

use timber_netlist::Picos;

use crate::model::{
    Aging, CompositeVariability, DelaySource, LocalJitter, TemperatureDrift, VariabilityBuilder,
    VoltageDroop, Q16,
};
use crate::sensitization::{splitmix64, SensitizationModel, StagePathProfile};

/// Every source, with parameters drawn from the given seed.
fn full_environment(seed: u64, stages: usize, droop: f64, jitter: f64) -> CompositeVariability {
    VariabilityBuilder::new(seed)
        .process(stages, 0.03)
        .voltage_droop(droop, 48, 60.0)
        .temperature(0.03, 700)
        .aging(0.01)
        .local_jitter(jitter)
        .build()
}

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
        let var = VariabilityBuilder::new(seed)
            .process(8, 0.03)
            .voltage_droop(droop.max(0.001), 500, 1000.0)
            .temperature(0.02, 1_000_000)
            .aging(0.002)
            .local_jitter(jitter)
            .build();
        let f = var.factor(cycle, stage).to_f64();
        prop_assert!(f > 0.3, "factor {f} too small");
        prop_assert!(f < 2.5, "factor {f} too large");
    }

    /// Aging is monotone non-decreasing in time for any slope.
    #[test]
    fn aging_monotone(slope in 0.0f64..0.5, c1 in any::<u64>(), c2 in any::<u64>()) {
        let a = Aging::new(slope);
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(a.at(lo) <= a.at(hi));
        prop_assert!(a.at(hi) <= a.bound(hi.saturating_add(1)));
    }

    /// Temperature drift never speeds the circuit up and never exceeds
    /// its amplitude.
    #[test]
    fn temperature_bounded(
        amp in 0.0f64..0.5,
        period in 1u64..10_000_000,
        seed in any::<u64>(),
        cycle in any::<u64>(),
    ) {
        let t = TemperatureDrift::new(amp, period, seed);
        let f = t.at(cycle);
        prop_assert!(f >= Q16::ONE);
        prop_assert!(f <= t.bound());
        prop_assert!((t.bound().to_f64() - (1.0 + amp)).abs() < 1e-4);
    }

    /// `factor ≤ bound` at every tier the simulator uses, for random
    /// seeds, cycles and stages: the global part under the bound that
    /// holds from its cycle, the local part under the stage's bound,
    /// and each product under the product of bounds. A skipped query
    /// is invisible: an environment asked only here answers as one
    /// asked every cycle before it.
    #[test]
    fn composite_factor_within_bound_and_skips_are_invisible(
        seed in any::<u64>(),
        stages in 1usize..8,
        depths in (0.0f64..0.6, 0.0f64..0.4),
        cycle in 0u64..u64::MAX,
        stage in 0usize..16,
    ) {
        let var = full_environment(seed, stages, depths.0, depths.1);
        let (global, local) = (var.global(cycle), var.local(cycle, stage));
        let (global_bound, until) = var.global_bound(cycle).expect("bounded");
        let local_bound = var.local_bound(stage).expect("bounded");
        prop_assert!(until > cycle, "expires at {until}");
        prop_assert!(global <= global_bound, "{global:?} > {global_bound:?}");
        prop_assert!(local <= local_bound, "{local:?} > {local_bound:?}");
        prop_assert_eq!(var.factor(cycle, stage), global * local);
        prop_assert!(global * local <= global * local_bound);
        prop_assert!(global * local_bound <= global_bound * local_bound);
        let dense = full_environment(seed, stages, depths.0, depths.1);
        for c in cycle.saturating_sub(64)..cycle {
            let _ = dense.factor(c, stage);
        }
        prop_assert_eq!(dense.factor(cycle, stage), var.factor(cycle, stage));
    }

    /// Local jitter is a pure function of (seed, cycle, stage).
    #[test]
    fn jitter_pure(
        sigma in 0.0f64..0.05,
        seed in 0u64..100,
        cycle in 0u64..1_000_000,
        stage in 0usize..16,
    ) {
        let (j1, j2) = (LocalJitter::new(sigma, seed), LocalJitter::new(sigma, seed));
        prop_assert_eq!(j1.at(cycle, stage), j2.at(cycle, stage));
    }

    /// Out-of-order queries answer exactly as in-order ones: each
    /// cycle of a window asked forwards, backwards and in a hashed
    /// order, on a fresh environment and on one that already answered.
    #[test]
    fn queries_in_any_order_agree(
        seed in any::<u64>(),
        start in 0u64..1 << 40,
        len in 1u64..300,
        stages in 1usize..6,
    ) {
        let var = full_environment(seed, stages, 0.2, 0.05);
        let forwards: Vec<Q16> = (start..start + len)
            .flat_map(|c| (0..stages).map(move |s| (c, s)))
            .map(|(c, s)| var.factor(c, s))
            .collect();
        let fresh = full_environment(seed, stages, 0.2, 0.05);
        for i in (0..forwards.len()).rev() {
            let (c, s) = (start + (i / stages) as u64, i % stages);
            prop_assert_eq!(fresh.factor(c, s), forwards[i]);
        }
        for k in 0..forwards.len() as u64 {
            let i = (splitmix64(seed, k) % forwards.len() as u64) as usize;
            let (c, s) = (start + (i / stages) as u64, i % stages);
            prop_assert_eq!(var.factor(c, s), forwards[i]);
        }
    }

    /// The droop's latest event is the one a scan of every window
    /// finds, so the recovery tail reads the true age even where the
    /// event lies in the window before.
    #[test]
    fn droop_reads_the_latest_event(
        seed in any::<u64>(),
        mean_interval in 1.0f64..400.0,
        cycles in 1u64..3000,
    ) {
        let d = VoltageDroop::new(0.1, 48, mean_interval, seed);
        let mut latest = None;
        for c in 0..cycles {
            if d.last_event(c) == Some(c) {
                latest = Some(c);
            }
            prop_assert_eq!(d.last_event(c), latest, "cycle {}", c);
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Process variation is bounded by its own static stage factor,
    /// including where the `0.5` floor clips a wide spread.
    #[test]
    fn process_factor_within_bound(
        stages in 1usize..8,
        sigma in 0.0f64..0.6,
        seed in any::<u64>(),
        cycle in any::<u64>(),
    ) {
        let env = VariabilityBuilder::new(seed).process(stages, sigma).build();
        for s in 0..stages {
            let local = env.local(cycle, s);
            prop_assert_eq!(Some(local), env.local_bound(s));
            prop_assert!(local >= Q16::from_f64(0.5));
        }
    }

    /// Droop stays under `1 + depth/4 + depth` through dense event
    /// trains, and a query skipped on a stride changes no other answer.
    #[test]
    fn droop_factor_within_bound_and_skips_are_invisible(
        depth in 0.0f64..0.6,
        resonance in 1u64..600,
        mean_interval in 1.0f64..400.0,
        seed in any::<u64>(),
        horizon in 1u64..3000,
        stride in 2u64..9,
    ) {
        let d = VoltageDroop::new(depth, resonance, mean_interval, seed);
        let full: Vec<Q16> = (0..horizon).map(|c| d.at(c)).collect();
        prop_assert!(full.iter().all(|&f| (Q16::ONE..=d.bound()).contains(&f)));
        let sparse = VoltageDroop::new(depth, resonance, mean_interval, seed);
        for c in (0..horizon).step_by(stride as usize) {
            prop_assert_eq!(sparse.at(c), full[c as usize]);
        }
    }

    /// Temperature drift stays in `[1, 1 + amplitude]`.
    #[test]
    fn temperature_factor_within_bound(
        amplitude in 0.0f64..0.5,
        period in 1u64..5000,
        seed in any::<u64>(),
        horizon in 1u64..3000,
    ) {
        let t = TemperatureDrift::new(amplitude, period, seed);
        prop_assert!((0..horizon).all(|c| (Q16::ONE..=t.bound()).contains(&t.at(c))));
    }

    /// Aging stays under its bound for every cycle below the horizon,
    /// and near the top of horizons far past any run length.
    #[test]
    fn aging_factor_within_bound(
        per_decade in 0.0f64..0.5,
        horizon in 1u64..20_000,
        far in 1u64..(1u64 << 50),
    ) {
        let aging = Aging::new(per_decade);
        let bound = aging.bound(horizon);
        prop_assert!((0..horizon).all(|c| aging.at(c) <= bound));
        let bound = aging.bound(far);
        prop_assert!((far.saturating_sub(64)..far).all(|c| aging.at(c) <= bound));
    }

    /// Jitter stays in `[max(1 − 4σ, 0.5), max(1 + 4σ, 0.5)]`, including
    /// sigmas wide enough for the floor to bite, and a query skipped on
    /// a stride changes no other answer.
    #[test]
    fn jitter_factor_within_bound_and_skips_are_invisible(
        sigma in 0.0f64..0.4,
        seed in any::<u64>(),
        stages in 1usize..8,
        horizon in 1u64..2000,
        stride in 2u64..9,
    ) {
        let j = LocalJitter::new(sigma, seed);
        let sparse = LocalJitter::new(sigma, seed);
        for c in 0..horizon {
            for s in 0..stages {
                let f = j.at(c, s);
                prop_assert!(f >= Q16::from_f64(0.5) && f <= j.bound());
                if (c * 7 + s as u64).is_multiple_of(stride) {
                    prop_assert_eq!(sparse.at(c, s), f);
                }
            }
        }
    }
}

/// A random environment: each global source present or not, over
/// parameter ranges that hold the three `timber_resilience` storms'
/// and the serve engine's nominal stress, plus process and jitter.
fn random_environment(
    seed: u64,
    present: (bool, bool, bool),
    droop: (f64, u64, f64),
    temperature: (f64, u64),
    per_decade: f64,
) -> CompositeVariability {
    let mut b = VariabilityBuilder::new(seed)
        .process(4, 0.02)
        .local_jitter(0.01);
    if present.0 {
        b = b.voltage_droop(droop.0, droop.1, droop.2);
    }
    if present.1 {
        b = b.temperature(temperature.0, temperature.1);
    }
    if present.2 {
        b = b.aging(per_decade);
    }
    b.build()
}

/// The three storm environments of `timber_resilience::StormScenario`
/// (droop train, aging ramp, flag spikes), built with its parameters.
fn storm_environments(seed: u64) -> [CompositeVariability; 3] {
    let b = VariabilityBuilder::new(seed);
    [
        b.clone()
            .voltage_droop(0.20, 48, 60.0)
            .local_jitter(0.01)
            .build(),
        b.clone()
            .aging(0.06)
            .voltage_droop(0.08, 500, 400.0)
            .process(4, 0.02)
            .build(),
        b.local_jitter(0.05).process(4, 0.03).build(),
    ]
}

/// Checks the expiring global bound from `from`: it expires after
/// `from`, covers every cycle before it expires (the first 4,096), and
/// is no looser than the static bound up to its expiry.
fn check_expiring_bound(var: &CompositeVariability, from: u64) {
    let (bound, until) = var.global_bound(from).expect("bounded");
    assert!(until > from, "a bound from {from} expires at {until}");
    for c in from..until.min(from.saturating_add(4096)) {
        let global = var.global(c);
        assert!(
            global <= bound,
            "cycle {c}: {global:?} > {bound:?} from {from}"
        );
    }
    let worst = var.static_global_bound(until);
    assert!(bound <= worst, "{bound:?} above the static {worst:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The expiring global bound, for random environments and for the
    /// three storms, from random cycles near and far from the start.
    #[test]
    fn expiring_global_bounds_hold_until_they_expire(
        seed in any::<u64>(),
        present in (any::<bool>(), any::<bool>(), any::<bool>()),
        droop in (0.0f64..0.6, 1u64..600, 1.0f64..5000.0),
        temperature in (0.0f64..0.5, 1u64..1_000_000),
        per_decade in 0.0f64..0.5,
        from in (0u64..20_000, 0u64..u64::MAX - 1, any::<bool>()),
    ) {
        let from = if from.2 { from.0 } else { from.1 };
        let var = random_environment(seed, present, droop, temperature, per_decade);
        check_expiring_bound(&var, from);
        for storm in storm_environments(seed) {
            check_expiring_bound(&storm, from);
        }
    }
}

/// Walking the bounds from expiry to expiry covers a whole run: every
/// cycle lies under the bound in force, and the droop train's bound is
/// re-tightened about every recovery constant.
#[test]
fn expiring_bounds_chain_over_a_run() {
    for (i, var) in storm_environments(5).iter().enumerate() {
        let (mut from, mut refreshes) = (0u64, 0u64);
        while from < 20_000 {
            let (bound, until) = var.global_bound(from).unwrap();
            assert!(until > from);
            for c in from..until.min(20_000) {
                assert!(var.global(c) <= bound, "storm {i} cycle {c}");
            }
            from = until;
            refreshes += 1;
        }
        if i == 0 {
            assert!(
                refreshes > 20_000 / 60,
                "{refreshes} bounds over the droop train"
            );
        }
    }
}

/// The split between the parts: with only slow global sources, the
/// exact global part times the local bound is the exact factor, and
/// with only jitter (whose global part is one) it is the bound.
#[test]
fn slow_sources_answer_per_query_exactly_and_jitter_statically() {
    let slow = VariabilityBuilder::new(4)
        .voltage_droop(0.2, 48, 60.0)
        .temperature(0.03, 700)
        .aging(0.06)
        .build();
    let jitter = VariabilityBuilder::new(4).local_jitter(0.05).build();
    for c in 0..300 {
        let per_query = slow.global(c) * slow.local_bound(1).unwrap();
        assert_eq!(per_query, slow.factor(c, 1), "cycle {c}");
        let per_query = jitter.global(c) * jitter.local_bound(1).unwrap();
        let static_bound = jitter.global_bound(0).unwrap().0 * jitter.local_bound(1).unwrap();
        assert_eq!(per_query, static_bound, "cycle {c}");
    }
}

/// 200,000 jitter draws at σ = 10%: the mean, σ and mass beyond 3σ of
/// the standard normal, and nothing past the ±4σ clamp.
#[test]
fn jitter_has_normal_moments_and_tails() {
    const SIGMA: f64 = 0.1;
    let j = LocalJitter::new(SIGMA, 2024);
    let (mut n, mut sum, mut squares, mut beyond) = (0u32, 0.0, 0.0, 0u32);
    for c in 0..40_000u64 {
        for s in 0..5 {
            let f = j.at(c, s);
            let z = (f.to_f64() - 1.0) / SIGMA;
            assert!(z.abs() <= 4.0 + 1e-3, "{f:?} past the clamp");
            n += 1;
            sum += z;
            squares += z * z;
            beyond += u32::from(z.abs() > 3.0);
        }
    }
    let n = f64::from(n);
    let mean = sum / n;
    let sigma = (squares / n - mean * mean).sqrt();
    // Standard errors: 0.0022 for the mean, 0.0016 for σ, 23 draws for
    // the tail count (expected 0.0027 n = 540).
    assert!(mean.abs() < 0.01, "mean {mean}");
    assert!((sigma - 1.0).abs() < 0.01, "sigma {sigma}");
    let expected = 0.0027 * n;
    assert!(
        (f64::from(beyond) - expected).abs() < 100.0,
        "{beyond} draws beyond 3σ, expected {expected}"
    );
    assert!((j.bound().to_f64() - (1.0 + 4.0 * SIGMA)).abs() < 1e-4);
}

/// The clamp is where the table ends: the extreme draws read exactly
/// ±4σ, and a wide σ meets the 0.5 floor.
#[test]
fn jitter_clamps_at_four_sigma_and_floors_at_half() {
    assert_eq!(crate::tables::normal_q16(0), -4 << 16);
    assert!(crate::tables::normal_q16(u64::MAX) <= 4 << 16);
    assert!(crate::tables::normal_q16(u64::MAX) > (4 << 16) - 64);
    let wide = LocalJitter::new(0.4, 1);
    let lowest = (0..20_000u64).map(|c| wide.at(c, 0)).min().unwrap();
    assert_eq!(lowest, Q16::from_f64(0.5));
}

/// One event per window: the droop event rate is `1/mean_interval`,
/// to the rounding of the window to whole cycles.
#[test]
fn droop_event_rate_matches_the_mean_interval() {
    for (mean_interval, seed) in [(60.0, 1), (400.0, 2), (2000.0, 3), (37.4, 4), (1.0, 5)] {
        let d = VoltageDroop::new(0.05, 500, mean_interval, seed);
        let cycles = (5_000.0 * mean_interval) as u64;
        let events = (0..cycles).filter(|&c| d.last_event(c) == Some(c)).count();
        let expected = cycles as f64 / mean_interval;
        let window = mean_interval.round();
        let tolerance = 1.0 + expected * (window - mean_interval).abs() / window;
        assert!(
            (events as f64 - expected).abs() <= tolerance,
            "mean interval {mean_interval}: {events} events, expected {expected}"
        );
    }
}

/// The recovery tail: an event's excess decays by `e` every τ cycles.
#[test]
fn droop_recovers_with_its_time_constant() {
    // Ripple off (one-cycle resonance), τ = 2000 / 20 = 100 cycles.
    let d = VoltageDroop::new(0.1, 1, 2000.0, 7);
    let start = (0..4000).find(|&c| d.last_event(c) == Some(c)).unwrap();
    let excess = |age: u64| d.at(start + age).to_f64() - 1.0;
    assert!((excess(0) - 0.1).abs() < 1e-4);
    for age in [50u64, 100, 200, 400] {
        if d.last_event(start + age) != Some(start) {
            continue;
        }
        let want = 0.1 * (-(age as f64) / 100.0).exp();
        assert!(
            (excess(age) - want).abs() < 0.1 * 0.004 + 2e-5,
            "age {age}: {} against {want}",
            excess(age)
        );
    }
}
