//! Scratch profiling harness for the bit-sliced batcher: times the
//! engine against the scalar replay of the identical workload, in two
//! shapes, and checks bit-identity in both.
//!
//! * **stress**: 64 lanes, 5 stages, every critical past the period.
//! * **tune-shaped**: the storms `repro tune` runs, 16 lanes × 400
//!   cycles of `StagePathProfile::from_critical` stages, at criticals
//!   that straddle the period: some storms cannot be late at all, some
//!   are late on their critical draws. Enough storms that one timed
//!   call of the engine takes a few tenths of a second.
//!
//! It prints which row kernel instance the engine runs (DESIGN.md
//! §12.2). Run with `cargo run --release --example batch_profile`.

use std::time::Instant;

use timber::CheckingPeriod;
use timber_batch::{run_batched, BatchConfig, BatchRun, BatchScheme, BatchWorkload};
use timber_netlist::Picos;
use timber_pipeline::PipelineConfig;
use timber_variability::{StageDelayModel, StagePathProfile};

const PERIOD: Picos = Picos(1000);

/// The fastest of `repeats` timed calls of `f`, with its result.
fn best_of<T>(repeats: usize, f: impl Fn() -> T) -> (f64, T) {
    let mut best = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, out));
        }
    }
    best.expect("at least one repeat")
}

/// Times the engine and the single-threaded scalar replay over
/// `configs`, each run for `cycles`, best of `repeats`, and prints
/// both rates.
fn profile(name: &str, configs: &[BatchConfig], cycles: u64, repeats: usize) {
    let lane_cycles: u64 = configs.iter().map(|c| c.lanes as u64 * cycles).sum();
    let (tb, batched) = best_of(repeats, || {
        configs
            .iter()
            .map(|c| run_batched(c, cycles))
            .collect::<Vec<BatchRun>>()
    });
    let (ts, scalar) = best_of(repeats, || {
        configs
            .iter()
            .map(|c| timber_batch::reference::run_scalar_reference(c, cycles, 1))
            .collect::<Vec<BatchRun>>()
    });
    let masked: u64 = batched.iter().map(|r| r.totals().masked).sum();
    println!(
        "== {name}: {} runs, {lane_cycles} lane-cycles, masked {masked} ==",
        configs.len()
    );
    println!(
        "batched:  {tb:.3}s  ({:.0} lane-cycles/s)",
        lane_cycles as f64 / tb
    );
    println!(
        "scalar:   {ts:.3}s  ({:.0} lane-cycles/s)",
        lane_cycles as f64 / ts
    );
    println!("ratio: {:.2}x   identical: {}", ts / tb, batched == scalar);
}

/// One 64-lane TIMBER-FF run of 5 stages, every critical past the
/// period.
fn stress() -> Vec<BatchConfig> {
    let profiles = (0..5)
        .map(|s| {
            let mut p = StagePathProfile::from_critical(Picos(1050 + 15 * s as i64));
            p.p_critical = 0.03;
            p.p_near = 0.25;
            StageDelayModel::new(&p)
        })
        .collect();
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    vec![BatchConfig {
        pipeline: PipelineConfig::new(5, PERIOD),
        scheme: BatchScheme::TimberFf(sched),
        workload: BatchWorkload::new(profiles, 2010),
        lanes: 64,
    }]
}

/// 5,760 storms of 16 lanes on a 3-interval deferred schedule: four
/// criticals around the period (0.94× to 1.12×, as tune's operating
/// points and storm intensities place them) × 1,440 seeds.
fn tune_shaped() -> Vec<BatchConfig> {
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 30.0).expect("valid");
    let stages = sched.k() as usize;
    let mut configs = Vec::new();
    for seed in 0..1_440u64 {
        for critical in [940, 1000, 1060, 1120] {
            let profile = StagePathProfile::from_critical(Picos(critical));
            configs.push(BatchConfig {
                pipeline: PipelineConfig::new(stages, PERIOD),
                scheme: BatchScheme::TimberFf(sched),
                workload: BatchWorkload::new(vec![StageDelayModel::new(&profile); stages], seed),
                lanes: 16,
            });
        }
    }
    configs
}

fn main() {
    println!("row kernel: {}", timber_batch::row_kernel());
    profile("stress (64 lanes)", &stress(), 200_000, 1);
    profile("tune-shaped (16 lanes)", &tune_shaped(), 400, 3);
}
