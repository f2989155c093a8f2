//! Partial replacement: TIMBER elements only where the paper puts
//! them.
//!
//! The case study in the paper replaces only flip-flops terminating
//! top-c% critical paths (§6). This example derives per-stage
//! criticality from the structural proxy netlist (real STA), picks the
//! boundaries whose bank terminates near-critical paths, and then runs
//! TIMBER flip-flops at every boundary with a telemetry recorder
//! attached. The per-boundary borrow counts show that only the picked
//! boundaries ever borrow time: a TIMBER flop anywhere else would never
//! act, so replacing it would be pure overhead.
//!
//! Run with: `cargo run --release --example partial_replacement`

use timber_repro::core::CheckingPeriod;
use timber_repro::pipeline::{PipelineConfig, PipelineSim};
use timber_repro::proc_model::{structural, PerfPoint};
use timber_repro::schemes::CaptureLaw;
use timber_repro::telemetry::{Recorder, RecorderConfig};
use timber_repro::variability::{SensitizationModel, VariabilityBuilder};

const CYCLES: u64 = 500_000;
const SEED: u64 = 11;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-stage profiles straight from the gate-level proxy.
    let proxy = structural::proxy_netlist(SEED);
    let profiles = structural::stage_profiles_from_netlist(&proxy, PerfPoint::High);
    let period = structural::proxy_period(&proxy, PerfPoint::High);
    let stages = profiles.len();
    let schedule = CheckingPeriod::deferred_flagging(period, 24.0)?;

    // Criticality rule: replace a boundary when its critical arrival is
    // within 12% of the clock period. The environment below derates by
    // at most ~8.5%, so boundaries outside that band can never violate.
    let threshold = period.scale(0.88);
    let replaced: Vec<bool> = profiles.iter().map(|p| p.critical >= threshold).collect();
    println!(
        "proxy netlist: {stages} stages at {period}; the rule replaces {} of {stages} \
         boundaries",
        replaced.iter().filter(|&&r| r).count(),
    );

    let sens = SensitizationModel::new(profiles.clone(), SEED ^ 0x5EED);
    let var = VariabilityBuilder::new(SEED)
        .voltage_droop(0.05, 500, 2000.0)
        .local_jitter(0.005)
        .build();
    let mut scheme = CaptureLaw::TimberFf(schedule).build(0);
    let mut recorder = Recorder::new(RecorderConfig::new(stages, period));
    let stats = PipelineSim::with_telemetry(
        PipelineConfig::new(stages, period),
        &mut scheme,
        &sens,
        &var,
        &mut recorder,
    )
    .run(CYCLES);

    println!("\nboundary  critical  replaced  borrows");
    for (s, (metrics, profile)) in recorder.stages().iter().zip(&profiles).enumerate() {
        println!(
            "{s:>8}  {:>8}  {:>8}  {:>7}",
            profile.critical.as_ps(),
            if replaced[s] { "yes" } else { "no" },
            metrics.borrows,
        );
    }
    println!(
        "\nTIMBER everywhere: masked {}, corrupted {}, IPC {:.4}",
        stats.masked,
        stats.corrupted,
        stats.ipc()
    );

    for (s, metrics) in recorder.stages().iter().enumerate() {
        assert!(
            replaced[s] || metrics.borrows == 0,
            "boundary {s} is outside the replacement set but borrowed {} times",
            metrics.borrows
        );
    }
    assert_eq!(stats.corrupted, 0, "TIMBER must mask every violation");
    println!(
        "Every borrow lands on a replaced boundary, so TIMBER flops on the\n\
         other boundaries would cost area and power and never act: the\n\
         paper's reason for keying the replacement set to the top-c% path\n\
         endpoints."
    );
    Ok(())
}
