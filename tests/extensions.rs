//! Integration coverage for the extension features: netlist-cone error
//! relay, corner-case circuit validation, derating what-if analysis and
//! timing reports.

use timber_repro::core::{validate_flipflop, validate_latch, CheckingPeriod, NetlistRelay};
use timber_repro::netlist::{fanin_cone, kogge_stone_adder, CellLibrary, Picos};
use timber_repro::proc_model::structural;
use timber_repro::proc_model::PerfPoint;
use timber_repro::sta::{
    derate_sweep, timing_report, ClockConstraint, TimingAnalysis, TimingSummary,
};

#[test]
fn relay_network_on_a_real_processor_proxy() {
    let nl = structural::proxy_netlist(7);
    let period = structural::proxy_period(&nl, PerfPoint::High);
    let clk = ClockConstraint::with_period(period);
    let sta = TimingAnalysis::run(&nl, &clk);
    let schedule = CheckingPeriod::deferred_flagging(period, 24.0).expect("valid");
    let replaced = timber_repro::sta::PathDistribution::replacement_set(&sta, &nl, 24.0);
    assert!(!replaced.is_empty());
    let mut relay = NetlistRelay::from_netlist(&nl, &replaced, &schedule);
    // An error at the first replaced flop alone raises exactly the
    // replaced flops whose fanin cone holds it, each to the select one
    // interval past zero.
    let mut errors = vec![false; relay.len()];
    errors[0] = true;
    relay.step(&errors);
    let expected: Vec<u8> = replaced
        .iter()
        .map(|&f| {
            if fanin_cone(&nl, f).contains(&replaced[0]) {
                schedule.relayed_select(0)
            } else {
                0
            }
        })
        .collect();
    assert!(
        expected.iter().any(|&s| s > 0),
        "the first replaced flop must feed a replaced flop"
    );
    let raised: Vec<u8> = (0..relay.len()).map(|i| relay.select(i)).collect();
    assert_eq!(raised, expected);
    relay.reset();
    relay.step(&vec![true; relay.len()]);
    let raised_all: usize = (0..relay.len()).filter(|&i| relay.select(i) > 0).count();
    assert!(raised_all > 0, "a dense error wave must raise selects");
    relay.step(&vec![false; relay.len()]);
    relay.step(&vec![false; relay.len()]);
    assert!(
        (0..relay.len()).all(|i| relay.select(i) == 0),
        "selects must decay after clean cycles"
    );
}

#[test]
fn circuit_validation_passes_on_a_third_schedule_shape() {
    // Schedule shapes not covered by the unit tests: k = 4 and a wide
    // two-interval split.
    let s = CheckingPeriod::new(Picos(2000), 40.0, 2, 2).expect("valid");
    let ff = validate_flipflop(&s, timber_repro::core::validate::standard_sweep(&s, 25));
    assert!(ff.all_agree(), "{:#?}", ff.disagreements());
    let latch = validate_latch(&s, timber_repro::core::validate::standard_sweep(&s, 25));
    assert!(latch.all_agree(), "{:#?}", latch.disagreements());
}

#[test]
fn derate_sweep_quantifies_the_margin_sta_side() {
    let lib = CellLibrary::standard();
    let nl = kogge_stone_adder(&lib, 16).expect("generator");
    let probe = TimingAnalysis::run(&nl, &ClockConstraint::with_period(Picos(1_000_000)));
    // 10% margin over nominal critical (plus setup).
    let period = probe.worst_arrival().scale(1.10) + Picos(30);
    let clk = ClockConstraint::with_period(period);
    let points = derate_sweep(&nl, &clk, &[1.0, 1.05, 1.10, 1.15, 1.25]);
    assert_eq!(points[0].failing_endpoints, 0, "nominal must meet timing");
    assert!(
        points.last().expect("points").failing_endpoints > 0,
        "25% derating must break a 10% margin"
    );
    // The crossover sits between 1.10 and 1.25.
    let first_fail = points
        .iter()
        .find(|p| p.failing_endpoints > 0)
        .expect("failure point");
    assert!(first_fail.factor > 1.05);
}

#[test]
fn timing_report_and_stats_agree_on_design_size() {
    let lib = CellLibrary::standard();
    let nl = kogge_stone_adder(&lib, 8).expect("generator");
    let clk = ClockConstraint::with_period(Picos(2000));
    let sta = TimingAnalysis::run(&nl, &clk);
    let summary = TimingSummary::measure(&sta, &nl);
    assert_eq!(summary.total_endpoints, nl.flop_ids().count());
    assert!(summary.met());
    let report = timing_report(&nl, &sta, 3);
    assert!(report.contains("MET"));
    assert!(report.contains(&format!("{:?}", nl.name())));
}

#[test]
fn dag_pipeline_with_dag_relay_masks_reconvergent_errors() {
    use timber_repro::core::CheckingPeriod;
    use timber_repro::pipeline::{PipelineConfig, PipelineSim, Topology};
    use timber_repro::schemes::CaptureLaw;
    use timber_repro::variability::{SensitizationModel, VariabilityBuilder};

    let topo = Topology::diamond();
    let period = Picos(1000);
    let schedule = CheckingPeriod::deferred_flagging(period, 24.0).expect("valid");
    let mut scheme = CaptureLaw::TimberFf(schedule).build(0);
    let sens = SensitizationModel::uniform(topo.len(), Picos(970), 5);
    let var = VariabilityBuilder::new(5)
        .voltage_droop(0.05, 500, 2000.0)
        .local_jitter(0.005)
        .build();
    let config = PipelineConfig::new(topo.len(), period);
    let stats = PipelineSim::new(config, &mut scheme, &sens, &var)
        .on_topology(&topo)
        .run(80_000);
    assert!(stats.masked > 0, "stress must produce violations");
    assert_eq!(
        stats.corrupted, 0,
        "the DAG relay must keep reconvergent chains masked: {stats:?}"
    );
    // Chains can span the diamond (length >= 2 events recorded).
    assert!(stats.chain_histogram.first().copied().unwrap_or(0) > 0);
}
