//! Quickstart: the TIMBER cells in five minutes.
//!
//! Builds the paper's Fig. 2 checking-period schedule, exercises both
//! TIMBER sequential elements behaviourally, and runs a short pipeline
//! simulation under voltage droop.
//!
//! Run with: `cargo run --example quickstart`

use timber_repro::core::{CaptureOutcome, CheckingPeriod, TimberFlipFlop, TimberLatch};
use timber_repro::netlist::Picos;
use timber_repro::pipeline::{PipelineConfig, PipelineSim};
use timber_repro::schemes::CaptureLaw;
use timber_repro::variability::{SensitizationModel, VariabilityBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let period = Picos(1000);

    // 1. A checking period of 12% of the clock, split 1 TB + 2 ED
    //    (the paper's Fig. 2 configuration).
    let schedule = CheckingPeriod::deferred_flagging(period, 12.0)?;
    println!("schedule: {schedule}");
    println!(
        "  recovered margin: {:.2}% of the cycle, masks up to {} stages, \
         consolidation budget {:.1} cycles",
        schedule.recovered_margin_pct(),
        schedule.maskable_stages(),
        schedule.consolidation_budget_cycles()
    );

    // 2. The TIMBER flip-flop masks a 30 ps violation by borrowing one
    //    whole 40 ps unit — silently, because the unit is a TB interval.
    let mut ff = TimberFlipFlop::new(schedule);
    match ff.capture(Picos(1030), period) {
        CaptureOutcome::Masked {
            units,
            borrowed,
            flagged,
            ..
        } => println!(
            "flip-flop: masked a 30ps violation with {units} unit(s) = {borrowed} \
             (flagged: {flagged})"
        ),
        other => println!("flip-flop: unexpected outcome {other:?}"),
    }

    // 3. The TIMBER latch borrows continuously: the same violation
    //    borrows exactly 30 ps.
    let mut latch = TimberLatch::new(schedule);
    let out = latch.capture(Picos(1030), period);
    println!(
        "latch:     masked the same violation borrowing exactly {} (flagged: {})",
        out.borrowed(),
        out.flagged()
    );

    // 4. A 100k-cycle pipeline run at a high-performance operating
    //    point under voltage droop: TIMBER masks every violation with
    //    no throughput loss.
    let stages = 5;
    let mut scheme =
        CaptureLaw::TimberFf(CheckingPeriod::deferred_flagging(period, 24.0)?).build(0);
    let sens = SensitizationModel::uniform(stages, Picos(970), 42);
    let var = VariabilityBuilder::new(42)
        .voltage_droop(0.05, 500, 2000.0)
        .local_jitter(0.005)
        .build();
    let config = PipelineConfig::new(stages, period);
    let stats = PipelineSim::new(config, &mut scheme, &sens, &var).run(100_000);
    println!(
        "pipeline:  {} cycles, {} violations masked ({} flagged), {} corrupted, IPC {:.4}",
        stats.cycles,
        stats.masked,
        stats.flagged,
        stats.corrupted,
        stats.ipc()
    );
    Ok(())
}
