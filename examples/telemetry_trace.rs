//! Telemetry trace: observing TIMBER's error-relay machinery in flight.
//!
//! Attaches a [`Recorder`] to a single pipeline simulation, prints the
//! paper's `k_tb`/`k_ed` accounting (borrows masked per TB interval,
//! relays per stage, ED flags and throttle requests), and then runs the
//! full `claims` sweep with telemetry to export the same data as JSON
//! and CSV — exactly what `repro trace claims --telemetry out.json`
//! produces, and byte-identical for any `--threads` value.
//!
//! Run with: `cargo run --release --example telemetry_trace`
//!
//! [`Recorder`]: timber_repro::telemetry::Recorder

use timber_repro::core::CheckingPeriod;
use timber_repro::netlist::Picos;
use timber_repro::pipeline::{Environment, PipelineConfig, PipelineSim, SweepSpec};
use timber_repro::schemes::CaptureLaw;
use timber_repro::telemetry::{
    render_summary, trace_csv, trace_json, Counter, Recorder, RecorderConfig,
};
use timber_repro::variability::{SensitizationModel, VariabilityBuilder};

const PERIOD: Picos = Picos(1000);
const STAGES: usize = 4;
const CYCLES: u64 = 200_000;
const SEED: u64 = 2010;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Instrument one simulation directly. `with_telemetry` accepts
    //    any `TelemetrySink`; the default `NoopSink` compiles to the
    //    exact un-instrumented hot loop.
    let schedule = CheckingPeriod::deferred_flagging(PERIOD, 24.0)?;
    let mut scheme = CaptureLaw::TimberFf(schedule).build(0);
    let sens = SensitizationModel::uniform(STAGES, Picos(970), SEED);
    let var = VariabilityBuilder::new(SEED)
        .voltage_droop(0.06, 400, 1500.0)
        .local_jitter(0.01)
        .build();
    let mut recorder = Recorder::new(RecorderConfig::new(STAGES, PERIOD).ring_capacity(256));
    let stats = PipelineSim::with_telemetry(
        PipelineConfig::new(STAGES, PERIOD),
        &mut scheme,
        &sens,
        &var,
        &mut recorder,
    )
    .run(CYCLES);

    // The recorder observes the pipeline; it never re-derives it.
    assert_eq!(recorder.counter(Counter::Masked), stats.masked);
    assert_eq!(recorder.counter(Counter::Cycles), stats.cycles);

    println!(
        "{}",
        render_summary("timber-ff", &recorder, schedule.k_tb(), schedule.k_ed())
    );

    // 2. The last few events kept by the bounded ring buffer.
    println!(
        "ring kept {} of {} events; most recent:",
        recorder.events().len(),
        recorder.events_seen()
    );
    for ev in recorder.events().iter().rev().take(5).rev() {
        println!("  cycle {:>8}  {:?}", ev.cycle, ev.kind);
    }

    // 3. The sweep path: per-trial recorders merged in canonical trial
    //    order, so the exported documents are byte-identical for any
    //    thread count — the same machinery behind `repro trace`.
    let (result, recorders) = SweepSpec::new(SEED, 100_000, 4)
        .scheme("deferred", |_p| {
            let s = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
            Box::new(CaptureLaw::TimberFf(s).build(0))
        })
        .scheme("immediate", |_p| {
            let s = CheckingPeriod::immediate_flagging(PERIOD, 24.0).expect("valid");
            Box::new(CaptureLaw::TimberFf(s).build(0))
        })
        .env("stress", |p| Environment {
            config: PipelineConfig::new(STAGES, PERIOD),
            sensitization: SensitizationModel::uniform(STAGES, Picos(970), p.seed),
            variability: VariabilityBuilder::new(p.seed)
                .voltage_droop(0.06, 400, 1500.0)
                .local_jitter(0.01)
                .build(),
        })
        .threads(0)
        .run_with_telemetry(256);
    let cells: Vec<(String, Recorder)> = result
        .scheme_names()
        .iter()
        .cloned()
        .zip(recorders)
        .collect();
    let json = trace_json("claims", &cells);
    let csv = trace_csv(&cells);
    println!(
        "\nclaims sweep trace: {} cells, {} JSON bytes, {} CSV rows",
        cells.len(),
        json.len(),
        csv.lines().count() - 1
    );
    Ok(())
}
