//! Property tests: the bit-sliced engine is bit-identical to the
//! scalar path for every registered scheme across random `(k_tb, k_ed)`
//! schedules, stress profiles, lane counts and thread counts, and every
//! compiled row kernel instance equals the scalar draw and compare.

use proptest::prelude::*;
use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::PipelineConfig;
use timber_variability::{draw, mix64, row_key, StageDelayModel, StagePathProfile};

use crate::engine::BatchConfig;
use crate::kernel::RowKernel;
use crate::reference::check_equivalence;
use crate::scheme::BatchScheme;
use crate::workload::BatchWorkload;
use timber_schemes::{Registry, SchemeId};

const PERIOD: Picos = Picos(1000);

/// A violation-rich workload: criticals past the period so every
/// outcome class (mask, flag, detect, predict, corrupt, chains,
/// bubbles, throttles) is exercised.
fn workload(stages: usize, over: i64, p_critical: f64, p_near: f64, seed: u64) -> BatchWorkload {
    let profiles = (0..stages)
        .map(|s| {
            let critical = PERIOD.as_ps() + over + 20 * s as i64;
            let mut p = StagePathProfile::from_critical(Picos(critical));
            p.p_critical = p_critical;
            p.p_near = p_near;
            StageDelayModel::new(&p)
        })
        .collect();
    BatchWorkload::new(profiles, seed)
}

/// A workload whose stage criticals straddle `limit`: stage 0 stays
/// on time (its rows are provably on time), stage 1 is late at the
/// nominal period but on time once slowed (its rows turn skippable only
/// while every lane is slowed), and the rest take `offsets` around the
/// limit, so rows fed borrowed time sit next to rows that cannot be
/// late.
fn straddling(
    limit: i64,
    offsets: &[i64],
    p_critical: f64,
    p_near: f64,
    seed: u64,
) -> BatchWorkload {
    let profiles = [-30, 40]
        .iter()
        .chain(offsets)
        .map(|&off| {
            let mut p = StagePathProfile::from_critical(Picos(limit + off));
            p.p_critical = p_critical;
            p.p_near = p_near;
            StageDelayModel::new(&p)
        })
        .collect();
    BatchWorkload::new(profiles, seed)
}

/// Every row kernel instance this CPU can run.
fn kernels() -> Vec<RowKernel> {
    let mut kernels = vec![RowKernel::Plain, RowKernel::detect()];
    kernels.dedup();
    kernels
}

/// Class probabilities `(p_critical, p_near)`: the degenerate corners
/// (always typical, always critical, always near-critical) and two
/// interior mixtures.
const CLASS_MIXES: [(f64, f64); 5] = [
    (0.0, 0.0),
    (1.0, 0.0),
    (0.0, 1.0),
    (1e-3, 1e-2),
    (0.25, 0.5),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each compiled row kernel instance writes, for every lane count
    /// 1..=64 (tails of 1-3 lanes included), exactly the arrivals
    /// `carry + StageDelayModel::delay(draw)` and the violation mask a
    /// scalar `>` gives, across degenerate class mixes, zero-width
    /// near-critical bands, and limits one below, at and one above
    /// each arrival.
    #[test]
    fn row_kernels_equal_the_scalar_draw_and_compare(
        delays in (1i64..=3000, 1i64..=200, any::<u64>()),
        coords in (any::<u64>(), any::<u64>(), 0usize..8),
        knobs in any::<u64>(),
    ) {
        let (critical, width, typical) = delays;
        let (seed, cycle, stage) = coords;
        let key = row_key(cycle, stage);
        let seeds: Vec<u64> = (0..64).map(|l| mix64(seed ^ l)).collect();
        // Carries: zero on about a third of the lanes, else up to 255 ps.
        let carry: Vec<i64> = (0..64u64)
            .map(|l| match mix64(knobs ^ l) % 3 {
                0 => 0,
                _ => (mix64(knobs ^ l ^ 0xCA) % 256) as i64,
            })
            .collect();
        for near_width in [0, width.min(critical - 1)] {
            for (p_critical, p_near) in CLASS_MIXES {
                let near = critical - near_width;
                let profile = StagePathProfile {
                    critical: Picos(critical),
                    near_critical: Picos(near),
                    typical: Picos((typical % (near as u64 + 1)) as i64),
                    p_critical,
                    p_near,
                };
                let model = StageDelayModel::new(&profile);
                let arrival: Vec<i64> = (0..64)
                    .map(|l| carry[l] + model.delay(draw(seeds[l], cycle, stage)).as_ps())
                    .collect();
                // Limits one below (late), at and one above (on time).
                let limits: Vec<i64> = (0..64u64)
                    .map(|l| arrival[l as usize] + (mix64(knobs ^ l ^ 0x1E) % 3) as i64 - 1)
                    .collect();
                for lanes in 1..=64 {
                    let expected = (0..lanes)
                        .filter(|&l| arrival[l] > limits[l])
                        .fold(0u64, |mask, l| mask | 1 << l);
                    for kernel in kernels() {
                        let mut arrivals = vec![0; lanes];
                        let mask = kernel.run(&model, key, &seeds, &carry, &limits, &mut arrivals);
                        let name = kernel.name();
                        prop_assert_eq!(&arrivals[..], &arrival[..lanes], "{} {:?}", name, profile);
                        prop_assert_eq!(mask, expected, "{} {:?} lanes {}", name, profile, lanes);
                    }
                }
            }
        }
    }

    /// The satellite gate: per-trial `RunStats` and telemetry counters
    /// bit-identical across engines for every scheme, over random
    /// schedules, violation pressure, lane counts and thread counts.
    #[test]
    fn batched_equals_scalar_for_all_schemes(
        schedule in (0u8..=2, 1u8..=2, 10.0f64..30.0),
        pressure in (10i64..=120, 0.005f64..0.08, 0.05f64..0.3),
        shape in (any::<u64>(), 1usize..=64, 1usize..=4, 200u64..=700),
    ) {
        let (k_tb, k_ed, pct) = schedule;
        let (over, p_critical, p_near) = pressure;
        let (seed, lanes, threads, cycles) = shape;
        let sched = CheckingPeriod::new(PERIOD, pct, k_tb, k_ed).unwrap();
        let registry = Registry::new(sched);
        for scheme in SchemeId::ALL.map(|id| registry.law(id)) {
            let config = BatchConfig {
                pipeline: PipelineConfig::new(5, PERIOD),
                scheme,
                workload: workload(5, over, p_critical, p_near, seed),
                lanes,
            };
            check_equivalence(&config, cycles, threads)
                .unwrap_or_else(|e| panic!("equivalence failed: {e}"));
        }
    }

    /// The on-time row skip is invisible: with criticals straddling
    /// each law's limit and short slowdowns moving the limits, every
    /// law stays bit-identical to the scalar replay, and the engine
    /// skips some rows but not all.
    #[test]
    fn skipping_rows_that_cannot_be_late_is_invisible(
        schedule in (0u8..=2, 1u8..=2, 10.0f64..30.0),
        offsets in proptest::collection::vec(-60i64..=140, 3..4),
        pressure in (0.02f64..0.3, 0.05f64..0.3),
        clock in (0.05f64..0.2, 5u64..=60),
        shape in (any::<u64>(), 1usize..=16, 200u64..=500),
    ) {
        let (k_tb, k_ed, pct) = schedule;
        let (p_critical, p_near) = pressure;
        let (slowdown_factor, slowdown_window) = clock;
        let (seed, lanes, cycles) = shape;
        let sched = CheckingPeriod::new(PERIOD, pct, k_tb, k_ed).unwrap();
        let registry = Registry::new(sched);
        for scheme in SchemeId::ALL.map(|id| registry.law(id)) {
            let limit = scheme.on_time_limit(PERIOD).as_ps();
            let mut pipeline = PipelineConfig::new(5, PERIOD);
            pipeline.slowdown_factor = slowdown_factor;
            pipeline.slowdown_window = slowdown_window;
            let config = BatchConfig {
                pipeline,
                scheme,
                workload: straddling(limit, &offsets, p_critical, p_near, seed),
                lanes,
            };
            let (_, skipped) = crate::engine::run_counted(&config, cycles);
            prop_assert!(skipped > 0, "stage 0 is on time from cycle 0");
            prop_assert!(skipped < 5 * cycles, "stage 1 is late at the nominal period");
            check_equivalence(&config, cycles, 1)
                .unwrap_or_else(|e| panic!("equivalence failed: {e}"));
        }
    }

    /// Quiet workloads stay quiet in both engines (the all-clear fast
    /// path must not skip real work).
    #[test]
    fn quiet_lanes_have_no_events(
        seed in any::<u64>(),
        lanes in 1usize..=64,
        cycles in 100u64..=400,
    ) {
        let profiles = (0..4)
            .map(|_| StageDelayModel::new(
                &StagePathProfile::from_critical(Picos(880))))
            .collect();
        let config = BatchConfig {
            pipeline: PipelineConfig::new(4, PERIOD),
            scheme: BatchScheme::Conventional,
            workload: BatchWorkload::new(profiles, seed),
            lanes,
        };
        let run = crate::engine::run_batched(&config, cycles);
        for stats in &run.stats {
            prop_assert_eq!(stats.violations(), 0);
            prop_assert_eq!(stats.instructions, cycles);
        }
        prop_assert!(check_equivalence(&config, cycles, 1).is_ok());
    }
}
