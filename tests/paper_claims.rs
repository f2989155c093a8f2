//! The paper's headline claims, checked end-to-end through the public
//! APIs (these are the assertions `EXPERIMENTS.md` summarises).

use timber_repro::core::circuit::{two_stage_ff_demo, two_stage_latch_demo};
use timber_repro::core::CheckingPeriod;
use timber_repro::netlist::Picos;
use timber_repro::pipeline::{PipelineConfig, PipelineSim, SequentialScheme};
use timber_repro::schemes::CaptureLaw;
use timber_repro::variability::{SensitizationModel, VariabilityBuilder};
use timber_repro::wavesim::Logic;

const PERIOD: Picos = Picos(1000);

/// §4: recovered margin is c/2 without the TB interval and c/3 with it.
#[test]
fn claim_margin_is_c_over_2_without_tb_and_c_over_3_with_tb() {
    for c in [10.0, 20.0, 30.0, 40.0] {
        let without = CheckingPeriod::immediate_flagging(PERIOD, c).expect("valid");
        let with = CheckingPeriod::deferred_flagging(PERIOD, c).expect("valid");
        assert!((without.recovered_margin_pct() - c / 2.0).abs() < 0.1);
        assert!((with.recovered_margin_pct() - c / 3.0).abs() < 0.1);
    }
}

/// §4/Fig. 2: with 2 ED intervals the consolidation budget is 1.5
/// cycles.
#[test]
fn claim_consolidation_budget_is_one_and_a_half_cycles() {
    let s = CheckingPeriod::deferred_flagging(PERIOD, 12.0).expect("valid");
    assert!((s.consolidation_budget_cycles() - 1.5).abs() < 1e-9);
}

/// Fig. 5: in the flip-flop design, the first stage's error is masked
/// silently and the second stage's error is masked *and* flagged once,
/// on the falling edge.
#[test]
fn claim_fig5_two_stage_error_masked_and_flagged_once() {
    let demo = two_stage_ff_demo(PERIOD, Picos(20));
    let waves = demo.sim.waves();
    assert!(waves.trace(demo.err1).unwrap().rising_edges().is_empty());
    let rises = waves.trace(demo.err2).unwrap().rising_edges();
    assert_eq!(rises.len(), 1);
    // Flag latched on a falling edge: at period*k + period/2.
    let t = rises[0].as_ps();
    let phase = t % PERIOD.as_ps();
    assert!(
        (phase - PERIOD.as_ps() / 2).abs() < 20,
        "flag must latch near the falling edge, got phase {phase}"
    );
    assert_eq!(demo.sim.value(demo.q1), Logic::One);
    assert_eq!(demo.sim.value(demo.q2), Logic::One);
}

/// Fig. 7: same scenario with TIMBER latches; no relay logic needed.
#[test]
fn claim_fig7_latch_masks_without_relay() {
    let demo = two_stage_latch_demo(PERIOD, Picos(20));
    let waves = demo.sim.waves();
    assert!(waves.trace(demo.err1).unwrap().rising_edges().is_empty());
    assert_eq!(waves.trace(demo.err2).unwrap().rising_edges().len(), 1);
    assert_eq!(demo.sim.value(demo.q2), Logic::One);
}

fn stress_run(scheme: &mut dyn SequentialScheme, cycles: u64) -> timber_repro::pipeline::RunStats {
    let stages = 5;
    let sens = SensitizationModel::uniform(stages, Picos(970), 7);
    let var = VariabilityBuilder::new(7)
        .voltage_droop(0.05, 500, 2000.0)
        .local_jitter(0.005)
        .build();
    PipelineSim::new(PipelineConfig::new(stages, PERIOD), scheme, &sens, &var).run(cycles)
}

/// §1/§6: TIMBER recovers the margin "without roll-back or instruction
/// replay" and with "negligible loss in performance".
#[test]
fn claim_no_replay_and_negligible_performance_loss() {
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut timber = CaptureLaw::TimberFf(sched).build(0);
    let stats = stress_run(&mut timber, 100_000);
    assert!(stats.masked > 0, "environment must generate violations");
    assert_eq!(stats.corrupted, 0, "TIMBER must mask everything here");
    assert_eq!(stats.penalty_cycles, 0, "no replay bubbles ever");
    assert!(
        stats.throughput_loss(PERIOD) < 0.01,
        "loss {}",
        stats.throughput_loss(PERIOD)
    );
}

/// §3: single-stage timing errors dominate multi-stage ones.
#[test]
fn claim_single_stage_errors_dominate() {
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut timber = CaptureLaw::TimberFf(sched).build(0);
    let stats = stress_run(&mut timber, 250_000);
    assert!(stats.violations() > 10);
    assert!(
        stats.multi_stage_fraction() < 0.25,
        "multi-stage fraction {} should be a small minority",
        stats.multi_stage_fraction()
    );
    let singles = stats.chain_histogram.first().copied().unwrap_or(0);
    let longest = stats.chain_histogram.len();
    assert!(singles > 0);
    // The select input saturates at k-1, so chains slightly longer than
    // k stay maskable when the accumulated overshoot still fits within
    // the saturated sampling delay; anything much longer would mean the
    // frequency controller failed to engage.
    assert!(
        longest <= sched.maskable_stages() as usize + 2,
        "chains of length {longest} should not appear at this stress level (k={})",
        sched.maskable_stages()
    );
}

/// The same environment corrupts a conventional design — the reason
/// margins exist at all.
#[test]
fn claim_conventional_design_corrupts_without_margin() {
    let mut margined = CaptureLaw::Conventional.build(0);
    let stats = stress_run(&mut margined, 100_000);
    assert!(stats.corrupted > 0);
}

/// §5.2: the TIMBER latch masks the same errors with no error-relay
/// state and never flags a false error.
#[test]
fn claim_latch_masks_without_relay_state() {
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut latch = CaptureLaw::TimberLatch(sched).build(0);
    let stats = stress_run(&mut latch, 100_000);
    assert_eq!(stats.corrupted, 0);
    assert!(stats.masked > 0);
    // No violation → no flag: run a nominal environment and check.
    let mut latch = CaptureLaw::TimberLatch(sched).build(0);
    let sens = SensitizationModel::uniform(5, Picos(900), 3);
    let var = timber_repro::variability::CompositeVariability::nominal();
    let nominal =
        PipelineSim::new(PipelineConfig::new(5, PERIOD), &mut latch, &sens, &var).run(60_000);
    assert_eq!(nominal.flagged, 0, "no false error flags");
    assert_eq!(nominal.violations(), 0);
}
