//! Property-based tests (proptest) for the pipeline simulator.

#![cfg(test)]

use proptest::prelude::*;

use timber_netlist::Picos;
use timber_variability::{CompositeVariability, SensitizationModel, StagePathProfile};

use crate::doubles::{BorrowAll, DetectAll};
use crate::reference::MarginedFlop;
use crate::sim::{PipelineConfig, PipelineSim};

fn sens(stages: usize, crit: i64, seed: u64) -> SensitizationModel {
    SensitizationModel::new(
        vec![StagePathProfile::from_critical(Picos(crit)); stages],
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: instructions + penalty cycles == cycles, always.
    #[test]
    fn instruction_conservation(
        stages in 1usize..6,
        period in 800i64..1100,
        penalty in 1u32..4,
        seed in 0u64..50,
    ) {
        let cfg = PipelineConfig::new(stages, Picos(period));
        let mut scheme = DetectAll(penalty);
        let s = sens(stages, 1000, seed);
        let var = CompositeVariability::nominal();
        let cycles = 5_000u64;
        let stats = PipelineSim::new(cfg, &mut scheme, &s, &var).run(cycles);
        prop_assert_eq!(stats.instructions + stats.penalty_cycles, stats.cycles);
        prop_assert_eq!(stats.cycles, cycles);
        prop_assert!(stats.ipc() <= 1.0);
    }

    /// The chain histogram accounts for every masked violation:
    /// Σ (len × count) == masked events (for a pure borrowing scheme).
    #[test]
    fn chain_histogram_accounts_for_all_masked(
        stages in 1usize..5,
        period in 850i64..1000,
        seed in 0u64..50,
    ) {
        let cfg = PipelineConfig::new(stages, Picos(period));
        let mut scheme = BorrowAll { flagged: false };
        let s = sens(stages, 1000, seed);
        let var = CompositeVariability::nominal();
        let stats = PipelineSim::new(cfg, &mut scheme, &s, &var).run(5_000);
        let weighted: u64 = stats
            .chain_histogram
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        prop_assert_eq!(weighted, stats.masked);
        prop_assert_eq!(stats.corrupted, 0);
        prop_assert_eq!(stats.detected, 0);
    }

    /// Wall time equals Σ period over cycles; without flags it is
    /// exactly cycles × nominal period.
    #[test]
    fn wall_time_is_nominal_without_flags(
        stages in 1usize..5,
        period in 800i64..1200,
        seed in 0u64..30,
    ) {
        let cfg = PipelineConfig::new(stages, Picos(period));
        let mut scheme = MarginedFlop::new();
        let s = sens(stages, period - 50, seed);
        let var = CompositeVariability::nominal();
        let cycles = 3_000u64;
        let stats = PipelineSim::new(cfg, &mut scheme, &s, &var).run(cycles);
        prop_assert_eq!(stats.wall_time, Picos(period) * cycles as i64);
        prop_assert_eq!(stats.slowdown_episodes, 0);
        prop_assert_eq!(stats.slow_cycles, 0);
    }

    /// Violation counters partition: masked, detected, predicted and
    /// corrupted are mutually exclusive per event, so their sum never
    /// exceeds stages × cycles.
    #[test]
    fn outcome_counters_bounded(
        stages in 1usize..5,
        period in 700i64..1000,
        seed in 0u64..30,
    ) {
        let cfg = PipelineConfig::new(stages, Picos(period));
        let mut scheme = BorrowAll { flagged: false };
        let s = sens(stages, 1000, seed);
        let var = CompositeVariability::nominal();
        let cycles = 2_000u64;
        let stats = PipelineSim::new(cfg, &mut scheme, &s, &var).run(cycles);
        let events = stats.masked + stats.detected + stats.predicted + stats.corrupted;
        prop_assert!(events <= stages as u64 * cycles);
        prop_assert!(stats.flagged <= stats.masked + stats.predicted);
    }
}
