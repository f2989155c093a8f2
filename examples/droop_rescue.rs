//! Droop rescue: the paper's motivating scenario.
//!
//! A high-performance processor is clocked with almost no margin for
//! dynamic variability. Voltage-droop events then push critical paths
//! past the cycle boundary. This example runs the identical stress
//! environment through a conventional flip-flop, a Razor-style
//! detect-and-replay flop, a canary prediction flop, and both TIMBER
//! cells, and prints what each one costs.
//!
//! Run with: `cargo run --release --example droop_rescue`

use timber_repro::core::CheckingPeriod;
use timber_repro::netlist::Picos;
use timber_repro::pipeline::{PipelineConfig, PipelineSim, SequentialScheme};
use timber_repro::schemes::{Registry, SchemeId};
use timber_repro::variability::{SensitizationModel, VariabilityBuilder};

const PERIOD: Picos = Picos(1000);
const STAGES: usize = 5;
const CYCLES: u64 = 500_000;
const SEED: u64 = 7;

fn run(scheme: &mut dyn SequentialScheme) -> timber_repro::pipeline::RunStats {
    // Identical seeds for every scheme: same workload, same droops.
    let sens = SensitizationModel::uniform(STAGES, Picos(970), SEED);
    let var = VariabilityBuilder::new(SEED)
        .voltage_droop(0.05, 500, 2000.0)
        .temperature(0.01, 1_000_000)
        .local_jitter(0.005)
        .build();
    let config = PipelineConfig::new(STAGES, PERIOD);
    PipelineSim::new(config, scheme, &sens, &var).run(CYCLES)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schedule = CheckingPeriod::deferred_flagging(PERIOD, 24.0)?;
    let registry = Registry::new(schedule);
    let mut schemes = [
        SchemeId::ConventionalFf,
        SchemeId::RazorFf,
        SchemeId::CanaryFf,
        SchemeId::TimberFf,
        SchemeId::TimberLatch,
    ]
    .map(|id| registry.build(id, SEED));

    println!(
        "{CYCLES} cycles at {PERIOD} with critical paths at 97% of the cycle, under 5% droop:\n"
    );
    println!(
        "{:<16} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8}",
        "scheme", "masked", "detected", "predicted", "corrupted", "IPC", "loss%"
    );
    for scheme in &mut schemes {
        let stats = run(scheme);
        println!(
            "{:<16} {:>9} {:>9} {:>10} {:>10} {:>8.4} {:>8.4}",
            scheme.law().id().name(),
            stats.masked,
            stats.detected,
            stats.predicted,
            stats.corrupted,
            stats.ipc(),
            100.0 * stats.throughput_loss(PERIOD)
        );
    }
    println!(
        "\nTIMBER masks every violation with zero corruption and zero IPC loss;\n\
         Razor recovers correctness but pays replay bubbles; the conventional\n\
         flop silently corrupts; the canary flop never corrupts but keeps the\n\
         clock throttled (the guard band it can never give back)."
    );
    Ok(())
}
