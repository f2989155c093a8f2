//! Property-based soundness umbrella: random schedules, depths, burst
//! shapes and seeds — for every scheme, the statically certified bounds
//! must dominate everything the real simulator does on replay, and both
//! degradation ladders' published bounds must be provable — and their
//! sabotaged twins unprovable — for random configurations.

#![cfg(test)]

use proptest::prelude::*;
use timber::CheckingPeriod;
use timber_conformance::campaign::GRID;
use timber_conformance::{BurstShape, Workload};
use timber_netlist::Picos;
use timber_resilience::ladder::LadderLaw;
use timber_resilience::GovernorConfig;
use timber_schemes::SchemeId;
use timber_variability::mix64;

use crate::governor::{explore, explore_service, prove_clock, prove_service};
use crate::soundness::replay_case;

/// Checking percentages drawn from — all inside the valid `(0, 50]`
/// band, so every drawn schedule builds.
const PCTS: [f64; 6] = [12.0, 18.0, 24.0, 30.0, 36.0, 42.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any schedule grid point, burst shape, pipeline depth and
    /// seed: certify from the workload hull, replay through the real
    /// simulator, and demand that no dynamic observation — borrow,
    /// chain length, flag, corruption — exceeds its static bound, for
    /// all eight schemes.
    #[test]
    fn certified_bounds_dominate_every_replay(
        period in 600i64..2000,
        pct_idx in 0usize..PCTS.len(),
        grid_idx in 0usize..GRID.len(),
        stages in 1usize..=6,
        shape_idx in 0usize..BurstShape::ALL.len(),
        seed in any::<u64>(),
    ) {
        let (k_tb, k_ed) = GRID[grid_idx];
        let schedule =
            CheckingPeriod::new(Picos(period), PCTS[pct_idx], k_tb, k_ed).expect("valid draw");
        let w = Workload::generate(schedule, stages, 48, BurstShape::ALL[shape_idx], seed);
        for scheme in SchemeId::ALL {
            let (_cert, _cycles, violations) = replay_case(&w, scheme, seed, "prop", false);
            prop_assert!(violations.is_empty(), "{scheme:?}: {violations:#?}");
        }
    }

    /// For any valid clock-ladder configuration, the exhaustive FSM
    /// exploration must prove both published bounds: every reachable
    /// state recovers to nominal within `recovery_bound()`, and no
    /// reachable cycle exceeds `max_period()`. For any service-ladder
    /// `(escalate, deescalate, hold)`, every reachable state must reach
    /// nominal within its `retry_after()` batches. A recovery bound one
    /// unit below the explored worst — one cycle, one batch — must come
    /// back unproven for both.
    #[test]
    fn governor_ladder_bounds_are_proved_for_random_configs(
        window in 4u64..=32,
        escalate in 1u64..=6,
        band in 1u64..=4,
        knobs in any::<u64>(),
        nominal in 500i64..2000,
    ) {
        let config = GovernorConfig {
            window,
            escalate_flags: escalate + band, // keeps the hysteresis band open
            deescalate_flags: escalate.saturating_sub(1),
            // `mix64` unpacks several independent small draws from one
            // `any::<u64>()` (the vendored proptest subset only composes
            // tuples up to arity six).
            hold_windows: 1 + mix64(knobs) % 4,
            deadline_windows: 1 + mix64(knobs ^ 1) % 5,
            latency_cycles: mix64(knobs ^ 2) % window,
            ..GovernorConfig::default()
        };
        let analysis = explore(Picos(nominal), config);
        prop_assert!(analysis.proved(), "{analysis:?}");
        let sabotaged = prove_clock(Picos(nominal), config, analysis.worst_recovery_cycles - 1);
        prop_assert!(!sabotaged.recovery_proved, "{sabotaged:?}");

        let escalate = escalate + band;
        let law = LadderLaw {
            escalate,
            deescalate: mix64(knobs ^ 3) % escalate,
            hold: 1 + mix64(knobs ^ 4) % 6,
            deadline: None,
        };
        let service = explore_service(law);
        prop_assert!(service.proved, "{service:?}");
        let worst = service.worst_recovery_batches;
        prop_assert!(!prove_service(law, |_| worst - 1).proved, "{law:?}");
    }
}
