//! Scalar reference replay and the scalar↔bit-sliced equivalence gate.
//!
//! Every lane of a [`BatchConfig`] is replayed through the real
//! `PipelineSim` (a `SensitizationModel` seeded with the lane's seed,
//! so the identical counter-mode delay plane, in a nominal environment;
//! real scheme objects, real telemetry recorder), scattered over the
//! shared work-pull executor. The per-lane `RunStats` and counters
//! must be **bit-identical** to the bit-sliced engine's — that
//! equality is the batcher's correctness argument, and
//! `repro bench-check` enforces it as a hard within-run CI gate.

use timber_pipeline::PipelineSim;
use timber_resilience::scatter_strict;
use timber_telemetry::{Counter, Recorder, RecorderConfig};
use timber_variability::{CompositeVariability, SensitizationModel};

use crate::engine::{run_batched, BatchConfig, BatchRun};

/// Replays every lane through the scalar `PipelineSim` and collects
/// per-lane statistics and counters in lane order.
///
/// `threads = 0` resolves to the detected core count; the merge order
/// is the flat lane order regardless of thread count (the sweep
/// machinery's determinism contract).
///
/// # Panics
///
/// Panics if the configuration fails [`BatchConfig::validate`].
pub fn run_scalar_reference(config: &BatchConfig, cycles: u64, threads: usize) -> BatchRun {
    config.validate();
    let lanes: Vec<usize> = (0..config.lanes).collect();
    let per_lane = scatter_strict(&lanes, threads, &|&lane| {
        let seed = config.workload.lane_seed(lane);
        let mut scheme = config.scheme.build(seed);
        let sens = SensitizationModel::from_stages(config.workload.profiles().to_vec(), seed);
        let var = CompositeVariability::nominal();
        // Ring capacity 0: counters only, no event storage cost.
        let mut recorder = Recorder::new(
            RecorderConfig::new(config.pipeline.stages, config.pipeline.nominal_period)
                .ring_capacity(0),
        );
        let stats =
            PipelineSim::with_telemetry(config.pipeline, &mut scheme, &sens, &var, &mut recorder)
                .run(cycles);
        let counters = Counter::ALL.map(|c| recorder.counter(c));
        (stats, counters)
    });
    let (stats, counters) = per_lane.into_iter().unzip();
    BatchRun { stats, counters }
}

/// Runs both engines and verifies bit-identity lane by lane.
///
/// Returns `Err` naming the first diverging lane and quantity; `Ok`
/// means every lane's `RunStats` (including the chain histogram and
/// wall time) and all 16 telemetry counters agree exactly.
///
/// # Panics
///
/// Panics if the configuration fails [`BatchConfig::validate`].
pub fn check_equivalence(config: &BatchConfig, cycles: u64, threads: usize) -> Result<(), String> {
    let batched = run_batched(config, cycles);
    let scalar = run_scalar_reference(config, cycles, threads);
    for lane in 0..config.lanes {
        if batched.stats[lane] != scalar.stats[lane] {
            return Err(format!(
                "scheme {}: lane {lane} RunStats diverged\n  bit-sliced: {:?}\n  scalar:     {:?}",
                config.scheme.id().name(),
                batched.stats[lane],
                scalar.stats[lane]
            ));
        }
        if batched.counters[lane] != scalar.counters[lane] {
            return Err(format!(
                "scheme {}: lane {lane} telemetry counters diverged\n  bit-sliced: {:?}\n  scalar:     {:?}",
                config.scheme.id().name(),
                batched.counters[lane],
                scalar.counters[lane]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::BatchScheme;
    use crate::workload::BatchWorkload;
    use timber::CheckingPeriod;
    use timber_netlist::Picos;
    use timber_pipeline::PipelineConfig;
    use timber_schemes::{Registry, SchemeId};
    use timber_variability::{StageDelayModel, StagePathProfile};

    fn stress_workload(stages: usize, critical: i64, seed: u64) -> BatchWorkload {
        let profiles = (0..stages)
            .map(|s| {
                let mut p = StagePathProfile::from_critical(Picos(critical + 15 * s as i64));
                p.p_critical = 0.03;
                p.p_near = 0.25;
                StageDelayModel::new(&p)
            })
            .collect();
        BatchWorkload::new(profiles, seed)
    }

    fn config(scheme: BatchScheme) -> BatchConfig {
        BatchConfig {
            pipeline: PipelineConfig::new(5, Picos(1000)),
            scheme,
            workload: stress_workload(5, 1050, 2010),
            lanes: 64,
        }
    }

    #[test]
    fn all_schemes_match_scalar_reference() {
        let sched = CheckingPeriod::deferred_flagging(Picos(1000), 24.0).unwrap();
        let immediate = CheckingPeriod::immediate_flagging(Picos(1000), 24.0).unwrap();
        let registry = Registry::new(sched);
        let laws = SchemeId::ALL
            .map(|id| registry.law(id))
            .into_iter()
            .chain([BatchScheme::TimberFf(immediate)]);
        for scheme in laws {
            check_equivalence(&config(scheme), 4_000, 2)
                .unwrap_or_else(|e| panic!("equivalence failed: {e}"));
        }
    }

    #[test]
    fn scalar_reference_is_thread_count_invariant() {
        let sched = CheckingPeriod::deferred_flagging(Picos(1000), 24.0).unwrap();
        let cfg = config(BatchScheme::TimberFf(sched));
        let one = run_scalar_reference(&cfg, 2_000, 1);
        let four = run_scalar_reference(&cfg, 2_000, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn partial_lane_batches_match_too() {
        let sched = CheckingPeriod::deferred_flagging(Picos(1000), 24.0).unwrap();
        for lanes in [1, 3, 17] {
            let mut cfg = config(BatchScheme::TimberFf(sched));
            cfg.lanes = lanes;
            check_equivalence(&cfg, 1_500, 2).unwrap();
        }
    }

    /// The flag-heavy schemes: immediate flagging (`k_tb = 0`, every
    /// masked violation flags) and the latch.
    fn flagging_schemes() -> [BatchScheme; 3] {
        let immediate = CheckingPeriod::new(Picos(1000), 24.0, 0, 2).unwrap();
        let deferred = CheckingPeriod::deferred_flagging(Picos(1000), 24.0).unwrap();
        [
            BatchScheme::TimberFf(immediate),
            BatchScheme::TimberLatch(immediate),
            BatchScheme::TimberLatch(deferred),
        ]
    }

    #[test]
    fn flag_heavy_schemes_match_at_one_and_64_lanes() {
        for scheme in flagging_schemes() {
            for lanes in [1, 64] {
                let mut cfg = config(scheme);
                cfg.lanes = lanes;
                check_equivalence(&cfg, 3_000, 2).unwrap_or_else(|e| panic!("{lanes} lanes: {e}"));
            }
        }
    }

    #[test]
    fn slowdowns_open_at_the_last_cycle_match() {
        // A window longer than the run: every episode is still open at
        // the end, and every flag after the first actuates during one.
        for scheme in flagging_schemes() {
            let mut cfg = config(scheme);
            cfg.pipeline.slowdown_window = 5_000;
            check_equivalence(&cfg, 1_200, 2).unwrap();
            let run = run_batched(&cfg, 1_200);
            assert!(
                run.stats.iter().any(|s| s.slowdown_episodes >= 2),
                "{}: no actuation inside an active episode",
                scheme.id().name()
            );
            let last = run.stats.iter().map(|s| s.slow_cycles).max().unwrap();
            assert!(last > 0 && last < 1_200, "{}: {last}", scheme.id().name());
        }
    }

    #[test]
    fn short_windows_and_latencies_match() {
        // Actuations landing on, just before and just after an expiry,
        // including a flag that actuates the cycle after it is raised.
        for scheme in flagging_schemes() {
            for (latency, window) in [(0, 1), (0, 3), (1, 1), (2, 2), (3, 1), (5, 8)] {
                let mut cfg = config(scheme);
                cfg.pipeline.consolidation_latency_cycles = latency;
                cfg.pipeline.slowdown_window = window;
                check_equivalence(&cfg, 1_500, 2)
                    .unwrap_or_else(|e| panic!("latency {latency}, window {window}: {e}"));
            }
        }
    }

    #[test]
    fn pending_bubbles_at_run_end_do_not_diverge() {
        // A heavy detection workload ends mid-penalty with high
        // probability; both engines must account identically.
        let cfg = config(BatchScheme::Razor {
            window: Picos(300),
            meta_window: Picos::ZERO,
            meta_penalty: 0,
        });
        check_equivalence(&cfg, 1_001, 3).unwrap();
    }
}
