//! Engine-throughput baseline: measures the Monte-Carlo sweep engine
//! on the claims workload at one and at all cores, times the bit-sliced
//! 64-lane batcher against the same-process scalar figures, checks that
//! every run is bit-identical, and serialises the numbers as
//! `BENCH_pipeline.json` so later changes can be compared against a
//! committed baseline.
//!
//! Two kinds of gate read that document:
//!
//! * **Within-run** (hardware-independent): `identical_across_threads`,
//!   the telemetry-overhead ratio, the multi-core scaling floor
//!   (`speedup >= 0.7 x min(threads, cores)`), and the bit-sliced
//!   batching tier (scalar<->bit-sliced equivalence plus
//!   `speedup_batched >= 1.75x`: the engine's lane-cycles/s over the
//!   single-threaded scalar replay of the same lanes, one workload and
//!   one delay model on both sides).
//!   Every wall clock behind a gated ratio is the median of the same
//!   number of interleaved runs, and every figure is a ratio of two
//!   measurements taken on one machine in one process, so CI can gate
//!   them hard even on shared runners.
//! * **Cross-run** (machine-dependent): absolute `cycles_per_second`
//!   against a committed baseline. Meaningful on the machine that wrote
//!   the baseline; advisory on heterogeneous CI hardware.

use std::time::Instant;

use serde_json::{json, Value};
use timber::CheckingPeriod;
use timber_batch::{reference, run_batched, BatchConfig, BatchScheme, BatchWorkload, MAX_LANES};
use timber_netlist::Picos;
use timber_pipeline::PipelineConfig;
use timber_resilience::resolve_threads;
use timber_variability::StageDelayModel;

use crate::experiments::{self, PERIOD, SEED, TRIALS};
use crate::trace::DEFAULT_RING_CAPACITY;

/// Within-run scaling floor: the multi-thread speedup must reach this
/// fraction of `min(threads, cores)`. Hardware-independent because both
/// sides of the ratio come from the same process on the same machine.
pub const SCALING_FLOOR_FRACTION: f64 = 0.7;

/// Within-run batching floor: the bit-sliced engine must deliver at
/// least this multiple of the cycles/second of the single-threaded
/// scalar replay of the same lanes. Chosen about 11% below the lowest
/// of 90 fresh runs on a shared 2-vCPU host once the scalar cycle
/// became sparse (1.97x; medians 2.57-2.83x); see `DESIGN.md` §12.4.
pub const BATCH_SPEEDUP_FLOOR: f64 = 1.75;

/// Timed repetitions behind each wall clock of a gated ratio: the
/// single-thread, multi-thread and instrumented sweeps, the bit-sliced
/// engine and its scalar replay each report the median of this many
/// interleaved runs, so one slow scheduling window on a shared host
/// cannot decide a gate.
pub const TIMING_REPEATS: usize = 5;

/// One timed execution of the baseline workload.
#[derive(Debug, Clone, Copy)]
pub struct BenchRun {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole sweep.
    pub wall_seconds: f64,
    /// Simulated pipeline cycles per wall-clock second.
    pub cycles_per_second: f64,
}

/// Within-run telemetry-overhead measurement: the same claims sweep
/// timed with the no-op sink and with a full `Recorder` attached, on
/// the same machine in the same process. The ratio is
/// hardware-independent, so CI gates it hard (unlike the absolute
/// throughput figures).
#[derive(Debug, Clone, Copy)]
pub struct OverheadRun {
    /// Wall-clock of the no-op-sink sweep (the multi-threaded run).
    pub noop_wall_seconds: f64,
    /// Wall-clock of the recorder-instrumented sweep, same threads
    /// (median of [`TIMING_REPEATS`] runs).
    pub instrumented_wall_seconds: f64,
    /// `instrumented / noop` wall clock; `1.0` means telemetry is free.
    pub ratio: f64,
}

/// The bit-sliced batching measurement: 64 Monte-Carlo lanes evaluated
/// in one engine pass, cross-checked bit-for-bit against the scalar
/// `PipelineSim` replay of the identical counter-mode workload.
#[derive(Debug, Clone, Copy)]
pub struct BatchBench {
    /// Trials packed into the bit-plane batch.
    pub lanes: usize,
    /// Simulated cycles per lane.
    pub cycles_per_lane: u64,
    /// Total simulated lane-cycles (`lanes * cycles_per_lane`).
    pub total_cycles: u64,
    /// Wall-clock of the bit-sliced engine (median of
    /// [`TIMING_REPEATS`] runs).
    pub wall_seconds: f64,
    /// Lane-cycles per second of the bit-sliced engine.
    pub cycles_per_second: f64,
    /// Wall-clock of the single-threaded scalar replay of the same
    /// lanes (median of [`TIMING_REPEATS`] runs).
    pub scalar_replay_wall_seconds: f64,
    /// Lane-cycles per second of the scalar replay.
    pub scalar_replay_cycles_per_second: f64,
    /// Whether the per-lane statistics and telemetry counters of both
    /// engines were bit-identical (they must be).
    pub identical: bool,
}

/// The full baseline: the claims sweep timed single- and
/// multi-threaded, plus the bit-sliced batching measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Trials per sweep cell.
    pub trials: usize,
    /// Cycles per trial.
    pub cycles_per_trial: u64,
    /// Total simulated cycles per execution (all schemes, all trials).
    pub total_cycles: u64,
    /// Detected core count ([`std::thread::available_parallelism`]),
    /// recorded so the scaling floor can be judged hardware-independently.
    pub cores: usize,
    /// Single-threaded run (median wall clock of [`TIMING_REPEATS`]
    /// runs).
    pub single: BenchRun,
    /// Multi-threaded run (all available cores unless overridden;
    /// median wall clock of [`TIMING_REPEATS`] runs).
    pub multi: BenchRun,
    /// Multi- over single-thread wall-clock speedup.
    pub speedup: f64,
    /// Recorder-instrumented vs no-op-sink cost of the same sweep.
    pub overhead: OverheadRun,
    /// The bit-sliced batching measurement.
    pub batched: BatchBench,
    /// Batched over scalar-replay cycles/second: the engine against
    /// `PipelineSim` on the same lanes, the gated batching ratio.
    pub speedup_batched: f64,
    /// Whether every run (single, multi, instrumented) produced
    /// bit-identical statistics (they must).
    pub identical: bool,
}

fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let result = run();
    (start.elapsed().as_secs_f64(), result)
}

/// The middle of an odd number of wall clocks.
fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// The bit-sliced bench workload: the stress stage profiles with the
/// critical paths pushed past the nominal edge, so the measurement
/// exercises the masking/relay event path rather than an all-quiet
/// sweep, on a floor of 1% critical-path sensitization.
fn batch_config() -> BatchConfig {
    let profiles: Vec<StageDelayModel> = experiments::stress_stage_profiles(5, SEED)
        .into_iter()
        .map(|mut p| {
            p.critical = Picos(p.critical.as_ps() + 80);
            p.p_critical = p.p_critical.max(0.01);
            StageDelayModel::new(&p)
        })
        .collect();
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid schedule");
    BatchConfig {
        pipeline: PipelineConfig::new(5, PERIOD),
        scheme: BatchScheme::TimberFf(sched),
        workload: BatchWorkload::new(profiles, SEED),
        lanes: MAX_LANES,
    }
}

/// Per-lane cycles that match the claims sweep's total simulated
/// volume (two schemes at `cycles` each), so the wall clocks compare.
fn cycles_per_lane(cycles: u64) -> u64 {
    (2 * cycles / MAX_LANES as u64).max(1)
}

/// The bit-sliced measurement from the median wall clocks of the
/// engine and of the single-threaded scalar replay of the identical
/// 64-lane workload, and whether every pair of their runs was
/// bit-identical.
fn batch_baseline(cycles: u64, wall: f64, replay_wall: f64, identical: bool) -> BatchBench {
    let cycles_per_lane = cycles_per_lane(cycles);
    let total_cycles = cycles_per_lane * MAX_LANES as u64;
    BatchBench {
        lanes: MAX_LANES,
        cycles_per_lane,
        total_cycles,
        wall_seconds: wall,
        cycles_per_second: total_cycles as f64 / wall,
        scalar_replay_wall_seconds: replay_wall,
        scalar_replay_cycles_per_second: total_cycles as f64 / replay_wall,
        identical,
    }
}

/// Times the claims sweep (`cycles` total cycles per scheme) with one
/// worker thread and with every available core, cross-checks that the
/// thread count did not change a single statistic, and runs the
/// bit-sliced batching measurement.
///
/// `threads` is the worker-thread count of the multi-threaded run;
/// `threads == 0` clamps to [`std::thread::available_parallelism`]
/// (the single-threaded reference run always uses one worker).
pub fn pipeline_baseline(cycles: u64, threads: usize) -> BenchResult {
    let (cores, multi_threads) = (resolve_threads(0), resolve_threads(threads));
    // Every gated ratio divides medians of `TIMING_REPEATS` runs,
    // interleaved so that a slow window on a shared host lands on both
    // sides of a ratio rather than on one.
    let batch_config = batch_config();
    let mut single_walls = Vec::with_capacity(TIMING_REPEATS);
    let mut batched_walls = Vec::with_capacity(TIMING_REPEATS);
    let mut replay_walls = Vec::with_capacity(TIMING_REPEATS);
    let mut multi_walls = Vec::with_capacity(TIMING_REPEATS);
    let mut instrumented_walls = Vec::with_capacity(TIMING_REPEATS);
    let mut single = None;
    let mut batch_identical = true;
    let mut identical = true;
    for _ in 0..TIMING_REPEATS {
        let (wall, one) = timed(|| experiments::claims(cycles, 1));
        single_walls.push(wall);
        let (wall, batched) = timed(|| run_batched(&batch_config, cycles_per_lane(cycles)));
        batched_walls.push(wall);
        let (wall, replay) =
            timed(|| reference::run_scalar_reference(&batch_config, cycles_per_lane(cycles), 1));
        replay_walls.push(wall);
        batch_identical &= batched == replay;
        let (wall, multi) = timed(|| experiments::claims(cycles, multi_threads));
        multi_walls.push(wall);
        // Same sweep once more with a recorder attached: the
        // instrumented / no-op ratio is the within-run overhead gate,
        // and the statistics must not change just because telemetry
        // watched.
        let (wall, (traced, _recorders)) = timed(|| {
            experiments::claims_spec(cycles, multi_threads)
                .run_with_telemetry(DEFAULT_RING_CAPACITY)
        });
        instrumented_walls.push(wall);
        identical &= one.deferred == multi.deferred
            && one.immediate == multi.immediate
            && traced.cell(0, 0) == &multi.deferred
            && traced.cell(1, 0) == &multi.immediate;
        single = Some(one);
    }
    let single = single.expect("at least one repetition");
    let (wall_single, wall_multi) = (median(single_walls), median(multi_walls));
    let wall_instrumented = median(instrumented_walls);
    let total_cycles = single.deferred.cycles + single.immediate.cycles;
    let run = |threads: usize, wall: f64| BenchRun {
        threads,
        wall_seconds: wall,
        cycles_per_second: total_cycles as f64 / wall,
    };
    let single_run = run(1, wall_single);
    let batched = batch_baseline(
        cycles,
        median(batched_walls),
        median(replay_walls),
        batch_identical,
    );
    let speedup_batched = batched.cycles_per_second / batched.scalar_replay_cycles_per_second;
    BenchResult {
        trials: TRIALS,
        cycles_per_trial: experiments::per_trial(cycles),
        total_cycles,
        cores,
        single: single_run,
        multi: run(multi_threads, wall_multi),
        speedup: wall_single / wall_multi,
        overhead: OverheadRun {
            noop_wall_seconds: wall_multi,
            instrumented_wall_seconds: wall_instrumented,
            ratio: wall_instrumented / wall_multi,
        },
        batched,
        speedup_batched,
        identical,
    }
}

fn run_json(r: &BenchRun) -> Value {
    json!({
        "threads": r.threads,
        "wall_seconds": r.wall_seconds,
        "cycles_per_second": r.cycles_per_second,
    })
}

fn batch_json(b: &BatchBench) -> Value {
    json!({
        "lanes": b.lanes,
        "cycles_per_lane": b.cycles_per_lane,
        "total_cycles": b.total_cycles,
        "wall_seconds": b.wall_seconds,
        "cycles_per_second": b.cycles_per_second,
        "scalar_replay": json!({
            "wall_seconds": b.scalar_replay_wall_seconds,
            "cycles_per_second": b.scalar_replay_cycles_per_second,
        }),
        "identical_scalar_bitsliced": b.identical,
    })
}

/// Serialises a [`BenchResult`] as the `BENCH_pipeline.json` document.
pub fn bench_json(r: &BenchResult) -> String {
    serde_json::to_string_pretty(&json!({
        "benchmark": "pipeline_sweep_claims",
        "trials": r.trials,
        "cycles_per_trial": r.cycles_per_trial,
        "total_cycles": r.total_cycles,
        "cores": r.cores,
        "single_thread": json!(run_json(&r.single)),
        "multi_thread": json!(run_json(&r.multi)),
        "speedup": r.speedup,
        "telemetry_overhead": json!({
            "noop_wall_seconds": r.overhead.noop_wall_seconds,
            "instrumented_wall_seconds": r.overhead.instrumented_wall_seconds,
            "ratio": r.overhead.ratio,
        }),
        "batched": batch_json(&r.batched),
        "speedup_batched": r.speedup_batched,
        "identical_across_threads": r.identical,
    }))
    .expect("serialise bench result")
}

/// Renders the baseline as text.
pub fn render_bench(r: &BenchResult) -> String {
    let b = &r.batched;
    format!(
        "claims sweep: {} trials x {} cycles, {} total simulated cycles ({} cores detected)\n\
         single thread ({}): {:.3} s  ({:.0} cycles/s)\n\
         multi  thread ({}): {:.3} s  ({:.0} cycles/s)\n\
         speedup: {:.2}x   results identical across thread counts: {}\n\
         telemetry overhead: instrumented {:.3} s vs no-op {:.3} s ({:.2}x)\n\
         batched ({} lanes x {} cycles): {:.3} s  ({:.0} lane-cycles/s), \
         scalar replay {:.3} s  ({:.0}/s), bit-identical: {}\n\
         speedup_batched: {:.2}x over the scalar replay\n",
        r.trials,
        r.cycles_per_trial,
        r.total_cycles,
        r.cores,
        r.single.threads,
        r.single.wall_seconds,
        r.single.cycles_per_second,
        r.multi.threads,
        r.multi.wall_seconds,
        r.multi.cycles_per_second,
        r.speedup,
        r.identical,
        r.overhead.instrumented_wall_seconds,
        r.overhead.noop_wall_seconds,
        r.overhead.ratio,
        b.lanes,
        b.cycles_per_lane,
        b.wall_seconds,
        b.cycles_per_second,
        b.scalar_replay_wall_seconds,
        b.scalar_replay_cycles_per_second,
        b.identical,
        r.speedup_batched,
    )
}

/// Extracts `<section>.cycles_per_second` from a bench JSON document.
fn throughput(doc: &Value, section: &str, label: &str) -> Result<f64, String> {
    doc[section]["cycles_per_second"]
        .as_f64()
        .filter(|v| *v > 0.0)
        .ok_or_else(|| format!("{label}: missing or non-positive {section}.cycles_per_second"))
}

/// Gates a fresh `BENCH_pipeline.json` document.
///
/// Two tiers of checks run on the fresh document:
///
/// * **Within-run** (always): `identical_across_threads` must be true,
///   the recorder-instrumented sweep must cost at most
///   `1 + max_overhead` times the no-op-sink sweep
///   (`telemetry_overhead.ratio`), the multi-thread speedup must reach
///   [`SCALING_FLOOR_FRACTION`]` x min(threads, cores)`, the bit-sliced
///   engine must be bit-identical to the scalar replay, and
///   `speedup_batched` (engine over scalar replay of the same lanes)
///   must reach [`BATCH_SPEEDUP_FLOOR`]; a document
///   without these figures fails. All were measured on one
///   machine in one process, so they hold regardless of runner
///   hardware. Every failed criterion is reported; the check never
///   stops at the first breach.
/// * **Cross-run** (only with `baseline_json`): each
///   `cycles_per_second` figure (single- and multi-threaded) must stay
///   within `±tolerance` (e.g. `0.15` = ±15%) of the baseline. A
///   figure far *above* the baseline also fails — it means the
///   committed baseline is stale and should be regenerated with
///   `repro bench`. Wall-clock only compares like with like on the
///   machine that wrote the baseline; CI runs this tier as advisory.
///
/// Returns the comparison report on success.
///
/// # Errors
///
/// Returns a message listing *every* failed criterion (within-run
/// breaches, out-of-tolerance metrics, missing fields) in one
/// invocation — the CI gate prints it and exits non-zero.
pub fn bench_check(
    baseline_json: Option<&str>,
    fresh_json: &str,
    tolerance: f64,
    max_overhead: f64,
) -> Result<String, String> {
    assert!(
        tolerance > 0.0 && tolerance < 1.0,
        "tolerance must be a fraction in (0, 1)"
    );
    assert!(max_overhead > 0.0, "max_overhead must be positive");
    let fresh: Value =
        serde_json::from_str(fresh_json).map_err(|e| format!("fresh: invalid JSON: {e}"))?;

    let mut report = String::new();
    let mut breaches = Vec::new();

    // -- Within-run tier (hard): every criterion is checked and every
    // breach recorded, so one invocation surfaces them all together.
    if fresh["identical_across_threads"] != Value::Bool(true) {
        breaches.push("fresh run was not identical across thread counts".to_owned());
    }

    match fresh["telemetry_overhead"]["ratio"]
        .as_f64()
        .filter(|v| *v > 0.0)
    {
        None => breaches.push("fresh: missing or non-positive telemetry_overhead.ratio".to_owned()),
        Some(overhead) => {
            let line = format!(
                "telemetry overhead: instrumented sweep costs {overhead:.2}x the no-op sweep \
                 (allowed {:.2}x)",
                1.0 + max_overhead
            );
            report.push_str(&line);
            report.push('\n');
            if overhead > 1.0 + max_overhead {
                breaches.push(format!("{line} -- recorder instrumentation too expensive"));
            }
        }
    }

    let speedup = fresh["speedup"].as_f64().filter(|v| *v > 0.0);
    let threads = fresh["multi_thread"]["threads"].as_u64().filter(|v| *v > 0);
    let cores = fresh["cores"].as_u64().filter(|v| *v > 0);
    match (speedup, threads, cores) {
        (Some(s), Some(t), Some(c)) => {
            let floor = SCALING_FLOOR_FRACTION * t.min(c) as f64;
            let line = format!(
                "scaling: speedup {s:.2}x on {t} threads / {c} cores \
                 (floor {floor:.2}x = {SCALING_FLOOR_FRACTION} x min(threads, cores))"
            );
            report.push_str(&line);
            report.push('\n');
            if s < floor {
                breaches.push(format!(
                    "{line} -- parallel dispatch below the scaling floor"
                ));
            }
        }
        _ => breaches.push(
            "fresh: missing speedup, multi_thread.threads or cores for the scaling floor"
                .to_owned(),
        ),
    }

    if fresh["batched"]["identical_scalar_bitsliced"] != Value::Bool(true) {
        breaches.push("batched: scalar and bit-sliced engines were not bit-identical".to_owned());
    }
    match fresh["speedup_batched"].as_f64().filter(|v| *v > 0.0) {
        None => breaches.push("fresh: missing or non-positive speedup_batched".to_owned()),
        Some(sb) => {
            // Both rates, so a breach says which side moved.
            let rate = |v: &Value| {
                v["cycles_per_second"]
                    .as_f64()
                    .map_or(f64::NAN, |c| c / 1e6)
            };
            let engine = rate(&fresh["batched"]);
            let replay = rate(&fresh["batched"]["scalar_replay"]);
            let line = format!(
                "batched: {sb:.2}x the scalar replay of the same lanes \
                 ({engine:.1}M lane-cycles/s against {replay:.1}M cycles/s; \
                 floor {BATCH_SPEEDUP_FLOOR:.2}x)"
            );
            report.push_str(&line);
            report.push('\n');
            if sb < BATCH_SPEEDUP_FLOOR {
                breaches.push(format!(
                    "{line} -- bit-sliced engine below the batching floor"
                ));
            }
        }
    }

    // -- Cross-run tier (advisory on heterogeneous hardware).
    if let Some(baseline_json) = baseline_json {
        let baseline: Value = serde_json::from_str(baseline_json)
            .map_err(|e| format!("baseline: invalid JSON: {e}"))?;
        report.push_str(&format!(
            "bench-check: tolerance +-{:.0}%\n",
            100.0 * tolerance
        ));
        for section in ["single_thread", "multi_thread"] {
            let base = throughput(&baseline, section, "baseline")?;
            let now = throughput(&fresh, section, "fresh")?;
            let ratio = now / base;
            let line = format!(
                "{section}: baseline {base:.0} cycles/s, fresh {now:.0} cycles/s ({:+.1}%)",
                100.0 * (ratio - 1.0)
            );
            report.push_str(&line);
            report.push('\n');
            if ratio < 1.0 - tolerance {
                breaches.push(format!("{line} -- slower than tolerance allows"));
            } else if ratio > 1.0 + tolerance {
                breaches.push(format!(
                    "{line} -- baseline is stale; regenerate with `repro bench`"
                ));
            }
        }
    }
    if breaches.is_empty() {
        Ok(report)
    } else {
        Err(breaches.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_thread_count_invariant_and_well_formed() {
        let r = pipeline_baseline(40_000, 0);
        assert!(r.identical, "thread count must not change results");
        assert_eq!(r.trials, TRIALS);
        assert_eq!(r.total_cycles, 2 * TRIALS as u64 * r.cycles_per_trial);
        assert!(r.cores >= 1);
        assert!(r.single.cycles_per_second > 0.0);
        assert!(r.multi.cycles_per_second > 0.0);

        let js = bench_json(&r);
        let back: Value = serde_json::from_str(&js).expect("valid json");
        assert_eq!(back["benchmark"], "pipeline_sweep_claims");
        assert_eq!(back["identical_across_threads"], serde_json::json!(true));
        assert!(back["cores"].as_u64().unwrap() >= 1);
        assert!(back["single_thread"]["cycles_per_second"].as_f64().unwrap() > 0.0);
        assert!(back["telemetry_overhead"]["ratio"].as_f64().unwrap() > 0.0);
        assert!(!render_bench(&r).is_empty());
    }

    #[test]
    fn batched_measurement_is_equivalent_and_reported() {
        let r = pipeline_baseline(40_000, 1);
        let b = r.batched;
        assert!(b.identical, "scalar and bit-sliced engines must agree");
        assert_eq!(b.lanes, MAX_LANES);
        assert_eq!(b.total_cycles, b.cycles_per_lane * MAX_LANES as u64);
        assert!(b.cycles_per_second > 0.0);
        assert!(r.speedup_batched > 0.0);

        let js = bench_json(&r);
        let back: Value = serde_json::from_str(&js).expect("valid json");
        assert_eq!(
            back["batched"]["identical_scalar_bitsliced"],
            serde_json::json!(true)
        );
        assert!(back["batched"]["cycles_per_second"].as_f64().unwrap() > 0.0);
        assert!(back["speedup_batched"].as_f64().unwrap() > 0.0);
        assert!(render_bench(&r).contains("speedup_batched"));
    }

    #[test]
    fn explicit_thread_count_is_respected() {
        let r = pipeline_baseline(40_000, 3);
        assert_eq!(r.multi.threads, 3);
        assert_eq!(r.single.threads, 1);
        assert!(r.identical);
    }

    /// A synthetic well-formed bench document for the gate tests. The
    /// knobs cover every within-run criterion.
    #[allow(clippy::too_many_arguments)]
    fn doc_full(
        single_cps: f64,
        multi_cps: f64,
        overhead: f64,
        speedup: f64,
        threads: u64,
        cores: u64,
        batched_identical: Option<bool>,
        speedup_batched: Option<f64>,
    ) -> String {
        let batched = match batched_identical {
            None => Value::Null,
            Some(identical) => json!({
                "lanes": 64,
                "cycles_per_lane": 10_000,
                "total_cycles": 640_000,
                "wall_seconds": 0.1,
                "cycles_per_second": 6_400_000.0,
                "scalar_replay": json!({
                    "wall_seconds": 0.4,
                    "cycles_per_second": 1_600_000.0,
                }),
                "identical_scalar_bitsliced": identical,
            }),
        };
        serde_json::to_string_pretty(&json!({
            "benchmark": "pipeline_sweep_claims",
            "cores": cores,
            "single_thread": json!({"threads": 1, "wall_seconds": 1.0, "cycles_per_second": single_cps}),
            "multi_thread": json!({"threads": threads, "wall_seconds": 0.5, "cycles_per_second": multi_cps}),
            "speedup": speedup,
            "telemetry_overhead": json!({
                "noop_wall_seconds": 0.5,
                "instrumented_wall_seconds": 0.5 * overhead,
                "ratio": overhead,
            }),
            "batched": batched,
            "speedup_batched": speedup_batched.map(|v| json!(v)).unwrap_or(Value::Null),
            "identical_across_threads": true,
        }))
        .unwrap()
    }

    fn doc_with_overhead(single_cps: f64, multi_cps: f64, overhead: f64) -> String {
        doc_full(
            single_cps,
            multi_cps,
            overhead,
            3.4,
            4,
            4,
            Some(true),
            Some(6.0),
        )
    }

    fn doc(single_cps: f64, multi_cps: f64) -> String {
        doc_with_overhead(single_cps, multi_cps, 1.05)
    }

    #[test]
    fn bench_check_passes_within_tolerance() {
        let base = doc(4_000_000.0, 8_000_000.0);
        let fresh = doc(3_800_000.0, 8_500_000.0);
        let report = bench_check(Some(&base), &fresh, 0.15, 0.5).expect("within tolerance");
        assert!(report.contains("single_thread"), "{report}");
        assert!(report.contains("multi_thread"), "{report}");
        assert!(report.contains("telemetry overhead"), "{report}");
        assert!(report.contains("scaling"), "{report}");
        assert!(report.contains("batched"), "{report}");
    }

    #[test]
    fn bench_check_fails_on_2x_slowdown() {
        let base = doc(4_000_000.0, 8_000_000.0);
        let slow = doc(2_000_000.0, 4_000_000.0);
        let err = bench_check(Some(&base), &slow, 0.15, 0.5).expect_err("2x slowdown must fail");
        assert!(err.contains("slower than tolerance allows"), "{err}");
        assert!(err.contains("single_thread"), "{err}");
        assert!(err.contains("multi_thread"), "{err}");
    }

    #[test]
    fn bench_check_fails_on_stale_baseline() {
        let base = doc(4_000_000.0, 8_000_000.0);
        let fast = doc(8_000_000.0, 16_000_000.0);
        let err = bench_check(Some(&base), &fast, 0.15, 0.5)
            .expect_err("2x speedup flags stale baseline");
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn bench_check_without_baseline_gates_within_run_only() {
        // No baseline: absolute throughput is not judged at all, only
        // the hardware-independent within-run figures.
        let fresh = doc(1.0, 1.0);
        let report = bench_check(None, &fresh, 0.15, 0.5).expect("within-run gate passes");
        assert!(report.contains("telemetry overhead"), "{report}");
        assert!(!report.contains("single_thread"), "{report}");
    }

    #[test]
    fn bench_check_fails_on_excessive_telemetry_overhead() {
        // A 2x-slower instrumented sweep breaches the within-run gate
        // even without a baseline (this is the hard CI gate).
        let slow = doc_with_overhead(4_000_000.0, 8_000_000.0, 2.0);
        let err = bench_check(None, &slow, 0.15, 0.5).expect_err("2x overhead must fail");
        assert!(err.contains("too expensive"), "{err}");
        // ...and with a baseline the overhead breach still surfaces.
        let base = doc(4_000_000.0, 8_000_000.0);
        let err = bench_check(Some(&base), &slow, 0.15, 0.5).expect_err("still fails");
        assert!(err.contains("too expensive"), "{err}");
    }

    #[test]
    fn bench_check_enforces_the_scaling_floor() {
        // speedup 1.1x on 4 threads / 4 cores is below 0.7 x 4 = 2.8.
        let flat = doc_full(4e6, 4.4e6, 1.05, 1.1, 4, 4, Some(true), Some(6.0));
        let err = bench_check(None, &flat, 0.15, 0.5).expect_err("flat scaling must fail");
        assert!(err.contains("scaling floor"), "{err}");
        // The floor is min(threads, cores): 1 thread on 8 cores only
        // has to beat 0.7x, so an honest single-core run passes.
        let one = doc_full(4e6, 4e6, 1.05, 1.0, 1, 8, Some(true), Some(6.0));
        bench_check(None, &one, 0.15, 0.5).expect("single-thread run passes the floor");
    }

    #[test]
    fn bench_check_enforces_the_batched_tier() {
        // A scalar<->bit-sliced divergence is a hard failure.
        let diverged = doc_full(4e6, 8e6, 1.05, 3.4, 4, 4, Some(false), Some(6.0));
        let err = bench_check(None, &diverged, 0.15, 0.5).expect_err("divergence must fail");
        assert!(err.contains("bit-identical"), "{err}");
        // A batched path slower than the floor is a hard failure, and
        // the breach names both sides' rates.
        let slow = doc_full(4e6, 8e6, 1.05, 3.4, 4, 4, Some(true), Some(1.0));
        let err = bench_check(None, &slow, 0.15, 0.5).expect_err("slow batching must fail");
        assert!(err.contains("batching floor"), "{err}");
        assert!(
            err.contains("6.4M lane-cycles/s against 1.6M cycles/s"),
            "{err}"
        );
        // A document without the batched section fails both checks.
        let missing = doc_full(4e6, 8e6, 1.05, 3.4, 4, 4, None, None);
        let err = bench_check(None, &missing, 0.15, 0.5).expect_err("missing tier must fail");
        assert!(err.contains("bit-identical"), "{err}");
        assert!(err.contains("speedup_batched"), "{err}");
    }

    #[test]
    fn bench_check_reports_every_breach_in_one_invocation() {
        // Invariance breach + overhead breach + scaling breach +
        // batched divergence, all present, all reported together.
        let broken = doc_full(4e6, 4.4e6, 2.0, 1.1, 4, 4, Some(false), Some(1.0)).replace(
            "\"identical_across_threads\": true",
            "\"identical_across_threads\": false",
        );
        let err = bench_check(None, &broken, 0.15, 0.5).expect_err("all breaches fail");
        assert!(err.contains("identical across thread counts"), "{err}");
        assert!(err.contains("too expensive"), "{err}");
        assert!(err.contains("scaling floor"), "{err}");
        assert!(err.contains("bit-identical"), "{err}");
        assert!(err.contains("batching floor"), "{err}");
    }

    #[test]
    fn bench_check_rejects_malformed_documents() {
        assert!(bench_check(Some("not json"), &doc(1.0, 1.0), 0.15, 0.5).is_err());
        assert!(bench_check(Some(&doc(1.0, 1.0)), "{}", 0.15, 0.5).is_err());
        // A fresh run that differed across thread counts is never ok.
        let broken = doc(4.0, 8.0).replace(
            "\"identical_across_threads\": true",
            "\"identical_across_threads\": false",
        );
        let err = bench_check(Some(&doc(4.0, 8.0)), &broken, 0.15, 0.5).unwrap_err();
        assert!(err.contains("identical"), "{err}");
        // A fresh document without the overhead section or the scaling
        // fields is rejected, naming every missing piece at once.
        let legacy = serde_json::to_string(&json!({
            "single_thread": json!({"cycles_per_second": 1.0}),
            "multi_thread": json!({"cycles_per_second": 1.0}),
            "identical_across_threads": true,
        }))
        .unwrap();
        let err = bench_check(None, &legacy, 0.15, 0.5).unwrap_err();
        assert!(err.contains("telemetry_overhead"), "{err}");
        assert!(err.contains("scaling floor"), "{err}");
    }
}
