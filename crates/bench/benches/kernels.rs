//! Criterion benches of the simulation kernels themselves: STA
//! throughput, critical-path enumeration, event-driven waveform
//! simulation, and the cycle-level pipeline simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use timber::CheckingPeriod;
use timber_netlist::{pipelined_datapath, CellLibrary, DatapathSpec, Picos};
use timber_pipeline::{PipelineConfig, PipelineSim};
use timber_schemes::CaptureLaw;
use timber_sta::{ClockConstraint, PathQuery, TimingAnalysis};
use timber_variability::{CompositeVariability, SensitizationModel};

fn sta_full_analysis(c: &mut Criterion) {
    let lib = CellLibrary::standard();
    let mut group = c.benchmark_group("sta_full_analysis");
    for gates in [500usize, 2000, 8000] {
        let nl = pipelined_datapath(&lib, &DatapathSpec::uniform(5, 16, gates / 5, 0.7, 42))
            .expect("generator");
        group.bench_with_input(BenchmarkId::from_parameter(gates), &nl, |b, nl| {
            b.iter(|| {
                black_box(TimingAnalysis::run(
                    nl,
                    &ClockConstraint::with_period(Picos(2000)),
                ))
            })
        });
    }
    group.finish();
}

fn sta_path_enumeration(c: &mut Criterion) {
    let lib = CellLibrary::standard();
    let nl =
        pipelined_datapath(&lib, &DatapathSpec::uniform(5, 16, 400, 0.7, 42)).expect("generator");
    let clk = ClockConstraint::with_period(Picos(2000));
    c.bench_function("sta_top_100_paths", |b| {
        b.iter(|| {
            let sta = TimingAnalysis::run(&nl, &clk);
            black_box(timber_sta::paths::enumerate_paths(
                &sta,
                &PathQuery {
                    max_paths: 100,
                    min_delay: Picos::MIN,
                },
            ))
        })
    });
}

fn wavesim_timber_ff(c: &mut Criterion) {
    c.bench_function("wavesim_two_stage_ff_demo", |b| {
        b.iter(|| black_box(timber::circuit::two_stage_ff_demo(Picos(1000), Picos(20))))
    });
}

fn pipeline_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_sim_cycles");
    for cycles in [10_000u64, 50_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cycles),
            &cycles,
            |b, &cycles| {
                b.iter(|| {
                    let sched =
                        CheckingPeriod::deferred_flagging(Picos(1000), 24.0).expect("valid");
                    let mut scheme = CaptureLaw::TimberFf(sched).build(0);
                    let sens = SensitizationModel::uniform(5, Picos(970), 1);
                    let var = CompositeVariability::nominal();
                    let cfg = PipelineConfig::new(5, Picos(1000));
                    black_box(PipelineSim::new(cfg, &mut scheme, &sens, &var).run(cycles))
                })
            },
        );
    }
    group.finish();
}

/// The claims-workload hot loop: the exact environment `claims` runs
/// (stressed sensitization + droop/temperature/jitter variability), so
/// cycles/sec here tracks what the Monte-Carlo sweeps actually pay.
fn pipeline_hot_loop(c: &mut Criterion) {
    const CYCLES: u64 = 100_000;
    c.bench_function("pipeline_hot_loop", |b| {
        b.iter(|| {
            let sched = CheckingPeriod::deferred_flagging(Picos(1000), 24.0).expect("valid");
            let mut scheme = CaptureLaw::TimberFf(sched).build(0);
            let sens = timber_bench::experiments::stress_sensitization(5, 2010);
            let var = timber_bench::experiments::stress_variability(2010);
            let cfg = PipelineConfig::new(5, Picos(1000));
            black_box(PipelineSim::new(cfg, &mut scheme, &sens, &var).run(CYCLES))
        })
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = sta_full_analysis, sta_path_enumeration, wavesim_timber_ff, pipeline_sim_throughput,
        pipeline_hot_loop
);
criterion_main!(kernels);
