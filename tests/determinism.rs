//! Reproducibility: every stochastic component is seeded, so identical
//! configurations must produce bit-identical results.

use timber_repro::core::CheckingPeriod;
use timber_repro::netlist::{random_dag, CellLibrary, Picos, RandomDagSpec};
use timber_repro::pipeline::{Environment, PipelineConfig, PipelineSim, SweepSpec};
use timber_repro::proc_model::{PerfPoint, ProcessorModel};
use timber_repro::schemes::CaptureLaw;
use timber_repro::sta::{ClockConstraint, TimingAnalysis};
use timber_repro::variability::{DelaySource, SensitizationModel, VariabilityBuilder};

#[test]
fn pipeline_runs_are_reproducible() {
    let run = || {
        let sched = CheckingPeriod::deferred_flagging(Picos(1000), 24.0).expect("valid");
        let mut scheme = CaptureLaw::TimberFf(sched).build(0);
        let sens = SensitizationModel::uniform(4, Picos(970), 99);
        let var = VariabilityBuilder::new(99)
            .voltage_droop(0.06, 400, 1500.0)
            .local_jitter(0.01)
            .build();
        PipelineSim::new(
            PipelineConfig::new(4, Picos(1000)),
            &mut scheme,
            &sens,
            &var,
        )
        .run(50_000)
    };
    assert_eq!(run(), run());
}

#[test]
fn sweeps_are_thread_count_invariant() {
    // The same SweepSpec must produce identical merged RunStats with
    // 1, 2 and 8 worker threads: per-trial seeds are derived from the
    // flat trial index (not the schedule), and worker results are
    // merged in canonical trial order.
    let sweep = |threads: usize| {
        SweepSpec::new(2010, 5_000, 6)
            .scheme("deferred", |_p| {
                let sched = CheckingPeriod::deferred_flagging(Picos(1000), 24.0).expect("valid");
                Box::new(CaptureLaw::TimberFf(sched).build(0))
            })
            .scheme("immediate", |_p| {
                let sched = CheckingPeriod::immediate_flagging(Picos(1000), 24.0).expect("valid");
                Box::new(CaptureLaw::TimberFf(sched).build(0))
            })
            .env("stress", |p| Environment {
                config: PipelineConfig::new(4, Picos(1000)),
                sensitization: SensitizationModel::uniform(4, Picos(970), p.seed),
                variability: VariabilityBuilder::new(p.seed)
                    .voltage_droop(0.06, 400, 1500.0)
                    .local_jitter(0.01)
                    .build(),
            })
            .threads(threads)
            .run()
    };
    let one = sweep(1);
    let two = sweep(2);
    let eight = sweep(8);
    for scheme in 0..2 {
        assert_eq!(one.cell(scheme, 0), two.cell(scheme, 0));
        assert_eq!(one.cell(scheme, 0), eight.cell(scheme, 0));
    }
    assert_eq!(one.total(), eight.total());
    // The environment must actually produce events, or invariance is
    // vacuous.
    assert!(one.total().violations() > 0);
}

#[test]
fn telemetry_traces_are_thread_count_invariant() {
    // The full exported trace document — counters, per-stage
    // histograms AND the surviving ring-buffer events — must be
    // byte-identical across thread counts: per-trial recorders are
    // merged in canonical flat trial order.
    let sweep = |threads: usize| {
        let (result, recorders) = SweepSpec::new(2010, 5_000, 6)
            .scheme("deferred", |_p| {
                let sched = CheckingPeriod::deferred_flagging(Picos(1000), 24.0).expect("valid");
                Box::new(CaptureLaw::TimberFf(sched).build(0))
            })
            .scheme("immediate", |_p| {
                let sched = CheckingPeriod::immediate_flagging(Picos(1000), 24.0).expect("valid");
                Box::new(CaptureLaw::TimberFf(sched).build(0))
            })
            .env("stress", |p| Environment {
                config: PipelineConfig::new(4, Picos(1000)),
                sensitization: SensitizationModel::uniform(4, Picos(970), p.seed),
                variability: VariabilityBuilder::new(p.seed)
                    .voltage_droop(0.06, 400, 1500.0)
                    .local_jitter(0.01)
                    .build(),
            })
            .threads(threads)
            .run_with_telemetry(128);
        let cells: Vec<(String, timber_repro::telemetry::Recorder)> = result
            .scheme_names()
            .iter()
            .cloned()
            .zip(recorders)
            .collect();
        (
            timber_repro::telemetry::trace_json("determinism", &cells),
            timber_repro::telemetry::trace_csv(&cells),
        )
    };
    let (json1, csv1) = sweep(1);
    let (json2, csv2) = sweep(2);
    let (json8, csv8) = sweep(8);
    assert_eq!(json1, json2);
    assert_eq!(json1, json8);
    assert_eq!(csv1, csv8);
    assert_eq!(csv1, csv2);
    // The trace must contain real events, or invariance is vacuous.
    assert!(csv1.lines().count() > 1, "trace is empty:\n{csv1}");
}

#[test]
fn sta_results_are_stable_across_runs() {
    let lib = CellLibrary::standard();
    let nl = random_dag(
        &lib,
        &RandomDagSpec {
            gates: 400,
            seed: 5,
            ..RandomDagSpec::default()
        },
    )
    .expect("generator");
    let clk = ClockConstraint::with_period(Picos(1500));
    let a = TimingAnalysis::run(&nl, &clk);
    let b = TimingAnalysis::run(&nl, &clk);
    for net in nl.net_ids() {
        assert_eq!(a.arrival(net), b.arrival(net));
    }
    assert_eq!(a.worst_path().nets, b.worst_path().nets);
}

#[test]
fn processor_models_are_reproducible_and_seed_sensitive() {
    let a = ProcessorModel::generate(PerfPoint::High, 5_000, Picos(1000), 1);
    let b = ProcessorModel::generate(PerfPoint::High, 5_000, Picos(1000), 1);
    assert_eq!(a.flops(), b.flops());
    let c = ProcessorModel::generate(PerfPoint::High, 5_000, Picos(1000), 2);
    assert_ne!(a.flops(), c.flops());
    // Calibration invariant holds for any seed.
    for seed in [1, 2, 3] {
        let m = ProcessorModel::generate(PerfPoint::Medium, 10_000, Picos(1000), seed);
        let rows = m.distribution(&[20.0]);
        assert!((rows[0].frac_ending - 0.50).abs() < 0.01);
    }
}

#[test]
fn variability_factors_are_pure_functions_of_seed_and_coordinates() {
    let build = || {
        VariabilityBuilder::new(31)
            .process(6, 0.04)
            .voltage_droop(0.08, 512, 1000.0)
            .temperature(0.02, 500_000)
            .aging(0.005)
            .local_jitter(0.01)
            .build()
    };
    let a = build();
    let b = build();
    for cycle in (0..10_000u64).step_by(37) {
        for stage in 0..6 {
            assert_eq!(a.factor(cycle, stage), b.factor(cycle, stage));
        }
    }
}

#[test]
fn waveform_demos_are_deterministic() {
    let a = timber_repro::core::circuit::two_stage_ff_demo(Picos(1000), Picos(20));
    let b = timber_repro::core::circuit::two_stage_ff_demo(Picos(1000), Picos(20));
    let ra = a.sim.waves().trace(a.err2).unwrap().samples().to_vec();
    let rb = b.sim.waves().trace(b.err2).unwrap().samples().to_vec();
    assert_eq!(ra, rb);
}
