//! Cross-crate contract: for every scheme in the registry, the
//! telemetry escalation counters must equal the ladder transitions the
//! governor actually performed — the counters are the observability
//! surface CI regressions key on, so they may never drift from the
//! clock authority's own accounting.

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::{GovernorConfig, PipelineConfig, PipelineSim};
use timber_resilience::StormScenario;
use timber_schemes::{Registry, SchemeId};
use timber_telemetry::{Counter, EventKind, Recorder, RecorderConfig};
use timber_variability::SensitizationModel;

const STAGES: usize = 4;
const PERIOD: Picos = Picos(1000);
const CYCLES: u64 = 1_500;

fn run_scheme(id: SchemeId, storm: StormScenario, seed: u64) -> (Recorder, u64) {
    let schedule = CheckingPeriod::new(PERIOD, 24.0, 1, 2).expect("valid schedule");
    let registry = Registry::new(schedule);
    let mut scheme = registry.build(id, seed);
    let sens = SensitizationModel::uniform(STAGES, Picos(940), seed);
    let var = storm.build(STAGES, seed);
    let mut config = PipelineConfig::new(STAGES, PERIOD);
    config.governor = Some(GovernorConfig::default());
    // Large enough to keep every event of this short run, so the trace
    // can be compared against the monotonic counters.
    let mut rec = Recorder::new(RecorderConfig::new(STAGES, PERIOD).ring_capacity(1 << 16));
    let stats = PipelineSim::with_telemetry(config, &mut scheme, &sens, &var, &mut rec).run(CYCLES);
    (rec, stats.slowdown_episodes)
}

#[test]
fn escalation_counters_match_ladder_transitions_for_every_scheme() {
    let mut total_escalations = 0u64;
    for id in SchemeId::ALL {
        for storm in StormScenario::ALL {
            let (rec, ladder_escalations) = run_scheme(id, storm, 7);
            let escalations = rec.counter(Counter::Escalations);
            let deescalations = rec.counter(Counter::Deescalations);
            let safe_entries = rec.counter(Counter::SafeModeEntries);

            // The ladder's own transition count (surfaced through
            // RunStats::slowdown_episodes under the governor) is the
            // ground truth the telemetry counter must equal.
            assert_eq!(
                escalations,
                ladder_escalations,
                "{} under {}: counter vs ladder",
                id.name(),
                storm.name()
            );

            // The counters must also equal the surviving event trace.
            let mut seen_up = 0u64;
            let mut seen_down = 0u64;
            let mut seen_safe = 0u64;
            for e in rec.events() {
                match e.kind {
                    EventKind::Escalate { level, .. } => {
                        seen_up += 1;
                        if level == 3 {
                            seen_safe += 1;
                        }
                    }
                    EventKind::Deescalate { .. } => seen_down += 1,
                    _ => {}
                }
            }
            assert_eq!(seen_up, escalations, "{} / {}", id.name(), storm.name());
            assert_eq!(seen_down, deescalations, "{} / {}", id.name(), storm.name());
            assert_eq!(seen_safe, safe_entries, "{} / {}", id.name(), storm.name());

            // A ladder can only come down rungs it climbed.
            assert!(deescalations <= escalations, "{}", id.name());
            assert!(safe_entries <= escalations, "{}", id.name());
            total_escalations += escalations;
        }
    }
    // The storms must actually drive the ladder somewhere, or the
    // equalities above are vacuous.
    assert!(total_escalations > 0, "no storm escalated any scheme");
}

#[test]
fn quiet_environment_never_escalates_for_any_scheme() {
    let schedule = CheckingPeriod::new(PERIOD, 24.0, 1, 2).expect("valid schedule");
    let registry = Registry::new(schedule);
    for id in SchemeId::ALL {
        let mut scheme = registry.build(id, 7);
        // Short paths under nominal variability: nothing ever flags.
        let sens = SensitizationModel::uniform(STAGES, Picos(600), 7);
        let var = timber_variability::CompositeVariability::nominal();
        let mut config = PipelineConfig::new(STAGES, PERIOD);
        config.governor = Some(GovernorConfig::default());
        let mut rec = Recorder::new(RecorderConfig::new(STAGES, PERIOD).ring_capacity(1024));
        let _ = PipelineSim::with_telemetry(config, &mut scheme, &sens, &var, &mut rec).run(CYCLES);
        assert_eq!(rec.counter(Counter::Escalations), 0, "{}", id.name());
        assert_eq!(rec.counter(Counter::SafeModeEntries), 0, "{}", id.name());
    }
}
