//! The `repro analyze` gate: abstract-interpretation certificates for
//! every shipped generator config, governor-ladder reachability, and
//! the dynamic-replay soundness harness — the static twin of the
//! `repro lint` structural gate.
//!
//! Each shipped netlist is certified at two operating points. At the
//! *gate* clock (the lint gate's own period derivation) the certificate
//! must prove total silence: no reachable violation at all. At the
//! *overclocked* point — the period deliberately snapped below the
//! critical path, `k` pipeline stages — the certificate must prove the
//! TIMBER contract under real pressure: borrowing up to exactly the
//! usable checking period, relay chains up to `k`, ED flags reachable,
//! and still **no** reachable silent corruption. Both degradation
//! ladders — the clock governor and the service governor — are
//! exhaustively explored against their published bounds, and the
//! soundness harness replays the whole conformance surface asserting no
//! dynamic observation exceeds a static bound (`--sabotage` seeds the
//! off-by-one bound the harness must catch).

use serde_json::{json, Value};
use timber::CheckingPeriod;
use timber_analyze::{
    certificate_json, certify, explore, explore_service, governor_report, point_report,
    run_soundness, service_report, soundness_report, AnalysisPoint, ConfigCertificate,
    GovernorAnalysis, Interval, ServiceAnalysis, SoundnessReport,
};
use timber_lint::{LintReport, ScheduleSpec, Severity};
use timber_netlist::{Netlist, Picos};
use timber_resilience::GovernorConfig;
use timber_schemes::SchemeId;
use timber_serve::ServiceGovernorConfig;
use timber_sta::{ClockConstraint, TimingAnalysis};

use crate::lintgate::{shipped_netlists, GATE_CHECKING_PCT};

/// Seed for the soundness harness's generated workloads.
pub const ANALYZE_SEED: u64 = 7;

/// Pipeline depth certified at the gate clock.
pub const GATE_STAGES: usize = 4;

/// Everything one `repro analyze` run produced.
#[derive(Debug, Clone)]
pub struct AnalyzeGate {
    /// Per-point, clock-ladder, service-ladder and soundness lint
    /// reports, in that order.
    pub reports: Vec<LintReport>,
    /// The per-point certificates backing the reports.
    pub certificates: Vec<ConfigCertificate>,
    /// Clock-ladder exploration results (default and reference configs).
    pub governor: Vec<GovernorAnalysis>,
    /// Service-ladder exploration results (inert default and `tight()`).
    pub service: Vec<ServiceAnalysis>,
    /// The soundness replay outcome.
    pub soundness: SoundnessReport,
}

/// The worst combinational arrival of a netlist under an unconstrained
/// clock — the hull's upper bound.
fn worst_arrival(netlist: &Netlist) -> Picos {
    TimingAnalysis::run(netlist, &ClockConstraint::with_period(Picos(1_000_000))).worst_arrival()
}

/// The lint gate's period derivation: critical path ×1.05 + 30 ps
/// setup, snapped for exact interval quantisation.
fn gate_schedule(worst: Picos) -> CheckingPeriod {
    let spec = ScheduleSpec::deferred(GATE_CHECKING_PCT);
    let period = timber_lint::snap_period(worst.scale(1.05) + Picos(30), &spec);
    CheckingPeriod::new(period, GATE_CHECKING_PCT, spec.k_tb, spec.k_ed)
        .expect("snapped gate period is always buildable")
}

/// The overclocked stress point: the period snapped from 95% of the
/// critical path, so the worst path overshoots the clock by ≈5% — less
/// than one borrow interval (10% of the period at `c = 30%`, `k = 3`),
/// which the certificate must prove masked at every reachable depth.
fn overclocked_schedule(worst: Picos) -> CheckingPeriod {
    let spec = ScheduleSpec::deferred(GATE_CHECKING_PCT);
    let period = timber_lint::snap_period(worst.scale(0.95), &spec);
    CheckingPeriod::new(period, GATE_CHECKING_PCT, spec.k_tb, spec.k_ed)
        .expect("snapped overclock period is always buildable")
}

/// The analysis points certified for every shipped generator config.
pub fn shipped_points() -> Vec<AnalysisPoint> {
    let mut points = Vec::new();
    for netlist in shipped_netlists() {
        let worst = worst_arrival(&netlist);
        let gate = gate_schedule(worst);
        let hull = Interval::new(Picos::ZERO, worst);
        points.push(AnalysisPoint::new(
            format!("{}@gate", netlist.name()),
            SchemeId::TimberFf,
            gate,
            vec![hull; GATE_STAGES],
        ));
        // Overclocked: `k` stages, so the FF's borrow depth can walk to
        // saturation but never past it (depth d is reachable only after
        // d upstream masks — with `k` boundaries the walk ends exactly
        // at the last capacity step and corruption stays unreachable).
        let over = overclocked_schedule(worst);
        let stages = over.k() as usize;
        for scheme in [SchemeId::TimberFf, SchemeId::TimberLatch] {
            points.push(AnalysisPoint::new(
                format!("{}@overclock-{}", netlist.name(), scheme.name()),
                scheme,
                over,
                vec![hull; stages],
            ));
        }
    }
    points
}

/// Governor configurations whose published bounds the gate proves: the
/// shipped default and the resilience suite's tight reference ladder.
pub fn governor_configs() -> Vec<(Picos, GovernorConfig)> {
    let reference = GovernorConfig {
        window: 10,
        escalate_flags: 3,
        deescalate_flags: 0,
        hold_windows: 2,
        deadline_windows: 4,
        latency_cycles: 2,
        ..GovernorConfig::default()
    };
    vec![
        (Picos(1000), GovernorConfig::default()),
        (Picos(1000), reference),
    ]
}

/// Service-ladder configurations whose `retry_after()` the gate
/// proves: the inert default and the chaos/storm `tight()` ladder.
pub fn service_configs() -> Vec<ServiceGovernorConfig> {
    vec![
        ServiceGovernorConfig::default(),
        ServiceGovernorConfig::tight(),
    ]
}

/// Runs the whole gate. `sabotage` seeds the off-by-one certificate
/// bound the soundness harness must detect (the gate's self-test: the
/// run is then *expected* to fail).
pub fn run(sabotage: bool) -> AnalyzeGate {
    let mut reports = Vec::new();
    let mut certificates = Vec::new();
    for point in shipped_points() {
        let cert = certify(&point);
        reports.push(point_report(&cert));
        certificates.push(cert);
    }
    let mut governor = Vec::new();
    for (nominal, config) in governor_configs() {
        let analysis = explore(nominal, config);
        reports.push(governor_report(&analysis));
        governor.push(analysis);
    }
    let mut service = Vec::new();
    for config in service_configs() {
        let analysis = explore_service(config.law());
        reports.push(service_report(&analysis));
        service.push(analysis);
    }
    let soundness = run_soundness(GATE_STAGES, 64, ANALYZE_SEED, sabotage);
    reports.push(soundness_report(&soundness));
    AnalyzeGate {
        reports,
        certificates,
        governor,
        service,
        soundness,
    }
}

/// Whether the gate passes at the given threshold.
pub fn gate_passes(gate: &AnalyzeGate, deny_warn: bool) -> bool {
    gate.reports.iter().all(|r| r.passes(deny_warn))
}

/// Human-readable rendering: every report with findings, then the
/// certificate and exploration summaries, then a one-line verdict.
pub fn render(gate: &AnalyzeGate, deny_warn: bool) -> String {
    let mut out = String::new();
    for r in &gate.reports {
        if !r.diagnostics.is_empty() {
            out.push_str(&r.render());
            out.push('\n');
        }
    }
    for cert in &gate.certificates {
        out.push_str(&format!(
            "{}: borrow <= {}ps ({} unit(s)), chain <= {}, {}{}\n",
            cert.point.name,
            cert.bounds.borrow_ps.as_ps(),
            cert.bounds.borrow_units,
            cert.bounds.relay_chain,
            if cert.bounds.corruptible {
                "CORRUPTIBLE"
            } else {
                "incorruptible"
            },
            if cert.fixpoint.widened {
                " (widened)"
            } else {
                ""
            },
        ));
    }
    for g in &gate.governor {
        out.push_str(&format!(
            "governor[window={}]: {} reachable state(s), recovery <= {} of {} published, \
             period <= {}ps of {}ps published — {}\n",
            g.config.window,
            g.reachable_states,
            g.worst_recovery_cycles,
            g.published_recovery_bound,
            g.observed_max_period.as_ps(),
            g.max_period.as_ps(),
            if g.proved() { "proved" } else { "UNPROVEN" },
        ));
    }
    for s in &gate.service {
        out.push_str(&format!(
            "service[hold={}]: {} reachable state(s), recovery <= {} of {} published batch(es) \
             — {}\n",
            s.law.hold,
            s.reachable_states,
            s.worst_recovery_batches,
            s.published_recovery_batches,
            if s.proved { "proved" } else { "UNPROVEN" },
        ));
    }
    out.push_str(&format!(
        "soundness: {} case(s), {} cycle(s) replayed, {} violation(s){}\n",
        gate.soundness.cases,
        gate.soundness.replayed_cycles,
        gate.soundness.violations.len(),
        if gate.soundness.sabotaged {
            " [sabotage seeded]"
        } else {
            ""
        },
    ));
    let errors: usize = gate.reports.iter().map(|r| r.count(Severity::Error)).sum();
    let warnings: usize = gate.reports.iter().map(|r| r.count(Severity::Warn)).sum();
    out.push_str(&format!(
        "repro analyze: {} certificates, {errors} errors, {warnings} warnings — {}\n",
        gate.certificates.len(),
        if gate_passes(gate, deny_warn) {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    out
}

/// The machine-readable gate document.
pub fn gate_json(gate: &AnalyzeGate, deny_warn: bool) -> String {
    let doc = json!({
        "tool": "timber-analyze",
        "schema_version": 1,
        "deny_warn": deny_warn,
        "sabotage": gate.soundness.sabotaged,
        "pass": gate_passes(gate, deny_warn),
        "certificates": Value::Array(gate.certificates.iter().map(certificate_json).collect()),
        "governor": Value::Array(
            gate.governor
                .iter()
                .map(|g| {
                    json!({
                        "ladder": "clock",
                        "window": g.config.window,
                        "reachable_states": g.reachable_states,
                        "worst_recovery_cycles": g.worst_recovery_cycles,
                        "published_recovery_bound": g.published_recovery_bound,
                        "observed_max_period_ps": g.observed_max_period.as_ps(),
                        "max_period_ps": g.max_period.as_ps(),
                        "proved": g.proved(),
                    })
                })
                .chain(gate.service.iter().map(|s| {
                    json!({
                        "ladder": "service",
                        "hold_batches": s.law.hold,
                        "reachable_states": s.reachable_states,
                        "worst_recovery_batches": s.worst_recovery_batches,
                        "published_recovery_batches": s.published_recovery_batches,
                        "proved": s.proved,
                    })
                }))
                .collect(),
        ),
        "soundness": json!({
            "cases": gate.soundness.cases,
            "replayed_cycles": gate.soundness.replayed_cycles,
            "sabotaged": gate.soundness.sabotaged,
            "violations": Value::Array(
                gate.soundness
                    .violations
                    .iter()
                    .map(|v| json!({"case": v.case.clone(), "what": v.what.clone()}))
                    .collect(),
            ),
        }),
        "reports": Value::Array(gate.reports.iter().map(LintReport::to_json).collect()),
    });
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_certificates_are_clean_and_gate_passes() {
        let gate = run(false);
        assert!(gate_passes(&gate, true), "{}", render(&gate, true));
        assert_eq!(gate.certificates.len(), shipped_netlists().len() * 3);
        assert!(gate.soundness.pass());
        for g in &gate.governor {
            assert!(g.proved(), "{g:?}");
        }
        for s in &gate.service {
            assert!(s.proved, "{s:?}");
            assert_eq!(
                s.worst_recovery_batches, s.published_recovery_batches,
                "{s:?}"
            );
        }
    }

    #[test]
    fn gate_points_prove_silence_and_overclock_points_prove_pressure() {
        let gate = run(false);
        for cert in &gate.certificates {
            assert!(!cert.bounds.corruptible, "{}", cert.point.name);
            assert!(!cert.fixpoint.widened, "{}", cert.point.name);
            if cert.point.name.ends_with("@gate") {
                assert_eq!(cert.bounds.borrow_ps, Picos::ZERO, "{}", cert.point.name);
                assert_eq!(cert.bounds.relay_chain, 0, "{}", cert.point.name);
            } else {
                // Overclocked: real borrowing, still provably safe.
                assert!(cert.bounds.borrow_ps > Picos::ZERO, "{}", cert.point.name);
                assert!(cert.bounds.relay_chain > 0, "{}", cert.point.name);
                assert!(
                    cert.bounds.borrow_ps <= cert.point.schedule.usable_checking(),
                    "{}",
                    cert.point.name
                );
            }
        }
    }

    #[test]
    fn sabotage_run_fails_the_gate() {
        let gate = run(true);
        assert!(!gate_passes(&gate, false));
        assert!(!gate.soundness.pass());
    }

    #[test]
    fn json_document_has_the_gate_contract() {
        let gate = run(false);
        let doc: serde_json::Value = serde_json::from_str(&gate_json(&gate, true)).unwrap();
        assert_eq!(doc["tool"], *"timber-analyze");
        assert_eq!(doc["schema_version"].as_f64(), Some(1.0));
        assert_eq!(doc["pass"], serde_json::Value::Bool(true));
        assert_eq!(
            doc["certificates"].as_array().unwrap().len(),
            gate.certificates.len()
        );
        let ladders = doc["governor"].as_array().unwrap();
        for ladder in ["clock", "service"] {
            assert!(
                ladders.iter().any(|g| g["ladder"] == *ladder),
                "no {ladder} ladder entry"
            );
        }
    }
}
