//! Certificate rendering: lint reports with stable `TBR05x` codes and
//! the JSON certificate document the CI gate archives.

use serde_json::{json, Value};
use timber_lint::{DiagCode, Diagnostic, LintReport};

use crate::governor::{GovernorAnalysis, ServiceAnalysis};
use crate::interp::ConfigCertificate;
use crate::soundness::SoundnessReport;

/// Lints one certificate against the schedule it was proved for:
/// certified bounds that exceed what the schedule provisions become
/// stable-coded errors.
pub fn point_report(cert: &ConfigCertificate) -> LintReport {
    let mut report = LintReport::new(cert.point.name.clone());
    let sched = cert.point.schedule;
    let bounds = cert.bounds;
    if bounds.borrow_ps > sched.usable_checking() {
        report.push(
            Diagnostic::new(
                DiagCode::CertifiedBorrowExceedsCapacity,
                cert.point.scheme.name(),
                format!(
                    "certified worst-case borrow {}ps exceeds usable checking {}ps",
                    bounds.borrow_ps.as_ps(),
                    sched.usable_checking().as_ps()
                ),
            )
            .with_hint("widen the checking period or shorten the critical paths"),
        );
    }
    let maskable = sched.maskable_stages() as usize;
    if bounds.relay_chain > maskable.min(cert.point.stages) {
        report.push(
            Diagnostic::new(
                DiagCode::CertifiedChainExceedsMaskable,
                cert.point.scheme.name(),
                format!(
                    "certified relay chain {} exceeds the {} maskable stage(s)",
                    bounds.relay_chain,
                    maskable.min(cert.point.stages)
                ),
            )
            .with_hint("raise k or reduce consecutive-critical-stage pressure"),
        );
    }
    if bounds.consolidation_latency_cycles as f64 > bounds.consolidation_budget_cycles.ceil() {
        report.push(
            Diagnostic::new(
                DiagCode::CertifiedConsolidationLatency,
                cert.point.scheme.name(),
                format!(
                    "configured consolidation latency {} cycle(s) exceeds the schedule's {} cycle budget",
                    bounds.consolidation_latency_cycles, bounds.consolidation_budget_cycles
                ),
            )
            .with_hint("increase k_ed or shorten the consolidation tree"),
        );
    }
    if bounds.corruptible {
        let stage = cert
            .stage_facts
            .iter()
            .position(|f| f.can_corrupt)
            .unwrap_or(0);
        report.push(
            Diagnostic::new(
                DiagCode::CorruptionReachable,
                cert.point.scheme.name(),
                format!(
                    "silent corruption reachable at stage {stage} under the analyzed delay hull"
                ),
            )
            .with_hint("the hull exceeds the scheme's masking capacity at that boundary"),
        );
    }
    report
}

/// Lints one governor exploration: unproven published bounds become
/// `TBR053` errors.
pub fn governor_report(analysis: &GovernorAnalysis) -> LintReport {
    let mut report = LintReport::new("governor-ladder");
    if !analysis.recovery_proved {
        report.push(
            Diagnostic::new(
                DiagCode::GovernorBoundUnproven,
                "recovery_bound",
                format!(
                    "a reachable state ({} explored) is not back to nominal within the \
                     published {} cycle bound",
                    analysis.reachable_states, analysis.published_recovery_bound
                ),
            )
            .with_hint("the deadline term or hold accounting in recovery_bound() is stale"),
        );
    }
    if !analysis.period_proved {
        report.push(
            Diagnostic::new(
                DiagCode::GovernorBoundUnproven,
                "max_period",
                format!(
                    "observed period {}ps exceeds the published ceiling {}ps",
                    analysis.observed_max_period.as_ps(),
                    analysis.max_period.as_ps()
                ),
            )
            .with_hint("a ladder level scales beyond safe_factor"),
        );
    }
    report
}

/// Lints one service-ladder exploration: a reachable state that zero
/// demand does not bring back to nominal within its published
/// `retry_after()` becomes a `TBR053` error.
pub fn service_report(analysis: &ServiceAnalysis) -> LintReport {
    let mut report = LintReport::new("service-ladder");
    if !analysis.proved {
        report.push(
            Diagnostic::new(
                DiagCode::GovernorBoundUnproven,
                "retry_after",
                format!(
                    "a reachable state ({} explored) is not back to nominal within the \
                     retry_after() batches its level publishes",
                    analysis.reachable_states
                ),
            )
            .with_hint("retry_after() no longer covers hold_batches per level"),
        );
    }
    report
}

/// Lints one soundness replay: every dynamic observation that exceeded
/// its static bound becomes a `TBR055` error.
pub fn soundness_report(report: &SoundnessReport) -> LintReport {
    let mut out = LintReport::new("soundness-replay");
    for v in &report.violations {
        out.push(
            Diagnostic::new(DiagCode::SoundnessViolation, v.case.clone(), v.what.clone())
                .with_hint("a static bound is tighter than a reachable dynamic behavior"),
        );
    }
    out
}

/// The JSON certificate for one operating point (embedded in the
/// `repro analyze --json` document, `schema_version` owned there).
pub fn certificate_json(cert: &ConfigCertificate) -> Value {
    let sched = cert.point.schedule;
    json!({
        "name": cert.point.name,
        "scheme": cert.point.scheme.name(),
        "schedule": json!({
            "period_ps": sched.period().as_ps(),
            "checking_ps": sched.checking().as_ps(),
            "interval_ps": sched.interval().as_ps(),
            "k_tb": sched.k_tb(),
            "k_ed": sched.k_ed(),
        }),
        "stages": cert.point.stages,
        "stage_facts": Value::Array(
            cert.stage_facts
                .iter()
                .map(|f| {
                    json!({
                        "carry_in_ps": [f.carry_in.lo().as_ps(), f.carry_in.hi().as_ps()],
                        "select_in": f.select_in,
                        "chain_in": f.chain_in,
                        "can_violate": f.can_violate,
                        "can_mask": f.can_mask,
                        "can_corrupt": f.can_corrupt,
                        "can_flag": f.can_flag,
                        "borrow_out_ps": f.borrow_out.as_ps(),
                    })
                })
                .collect(),
        ),
        "bounds": json!({
            "borrow_ps": cert.bounds.borrow_ps.as_ps(),
            "borrow_units": cert.bounds.borrow_units,
            "relay_chain": cert.bounds.relay_chain,
            "flaggable": cert.bounds.flaggable,
            "corruptible": cert.bounds.corruptible,
            "consolidation_budget_cycles": cert.bounds.consolidation_budget_cycles,
            "consolidation_latency_cycles": cert.bounds.consolidation_latency_cycles,
        }),
        "fixpoint": json!({
            "iterations": cert.fixpoint.iterations,
            "widened": cert.fixpoint.widened,
        }),
    })
}

#[cfg(test)]
mod tests {
    use timber::CheckingPeriod;
    use timber_netlist::Picos;
    use timber_schemes::SchemeId;

    use super::*;
    use crate::domain::Interval;
    use crate::interp::{certify, AnalysisPoint};

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 30.0, 1, 2).unwrap()
    }

    #[test]
    fn clean_certificate_passes_and_serializes() {
        let point = AnalysisPoint::new(
            "clean",
            SchemeId::TimberFf,
            sched(),
            vec![Interval::new(Picos(400), Picos(1100)); 3],
        );
        let cert = certify(&point);
        let report = point_report(&cert);
        assert!(report.passes(true), "{}", report.render());
        let doc = certificate_json(&cert);
        assert_eq!(doc["scheme"], "timber-ff");
        assert_eq!(doc["bounds"]["borrow_ps"].as_f64(), Some(300.0));
        assert_eq!(doc["bounds"]["relay_chain"].as_f64(), Some(3.0));
        assert_eq!(doc["stage_facts"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn corruption_becomes_tbr054() {
        let point = AnalysisPoint::new(
            "hot",
            SchemeId::ConventionalFf,
            sched(),
            vec![Interval::new(Picos(400), Picos(1100))],
        );
        let report = point_report(&certify(&point));
        assert!(!report.passes(false));
        assert_eq!(report.with_code(DiagCode::CorruptionReachable).len(), 1);
    }

    #[test]
    fn sabotaged_chain_bound_does_not_trip_the_schedule_lint() {
        // The schedule lints compare bounds to provisioned capacity;
        // sabotage (bounds too *tight*) is the soundness gate's job.
        let point = AnalysisPoint::new(
            "sab",
            SchemeId::TimberFf,
            sched(),
            vec![Interval::new(Picos(400), Picos(1100)); 3],
        );
        let mut cert = certify(&point);
        cert.sabotage();
        assert!(point_report(&cert).passes(true));
    }
}
