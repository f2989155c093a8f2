//! Structured diagnostics with stable codes and human/JSON renderers.
//!
//! Every rule `timber-lint` checks has a stable code (`TBR001`,
//! `TBR002`, …) that scripts and CI gates can match on; the code also
//! fixes the severity, so a rule never silently changes from warning to
//! error between releases. The human renderer mimics compiler output
//! (`error[TBR040] u3: combinational loop: …`); the JSON renderer emits
//! one machine-readable document per linted configuration.

use std::fmt;

use serde_json::{json, Value};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: the check ran and wants to document a decision.
    Note,
    /// The configuration is suspicious or wasteful but functional.
    Warn,
    /// The configuration violates a design rule and must not ship.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.
///
/// Codes are append-only: a code is never renumbered or reused, so
/// `--deny`/CI filters keep working across versions. The code → invariant
/// table is documented in `DESIGN.md` §9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    /// Schedule has no intervals (`k_tb + k_ed == 0`).
    EmptySchedule,
    /// Checking percentage outside `(0, 50]`.
    CheckingPercentRange,
    /// Clock period is not positive.
    NonPositivePeriod,
    /// Checking period not divisible by `k`; quantisation shrinks the
    /// usable window.
    CheckingNotDivisible,
    /// Relay select increment is zero or exceeds `k`.
    RelayIncrementRange,
    /// Relay increment exceeds `k_tb`, defeating deferred flagging.
    RelayIncrementSkipsTb,
    /// Endpoint min-delay path shorter than `hold + checking period`
    /// with no padding planned.
    UnpaddedShortPath,
    /// Padding plan exceeds the declared padding budget.
    PaddingBudgetExceeded,
    /// Padding plan summary (informational).
    PaddingPlan,
    /// Replaced flop fed by an unreplaced borrowing predecessor.
    RelayCoverageGap,
    /// Explicitly replaced flop terminates no top-c% path.
    SuperfluousReplacement,
    /// Relay consolidation network misses its half-cycle settle budget.
    RelayConsolidationTiming,
    /// Replacement plan names a flop the netlist does not have.
    UnknownReplacedFlop,
    /// Error-consolidation OR-tree exceeds the schedule's latency
    /// budget.
    ConsolidationBudget,
    /// Replacement set is empty; the integration is a no-op.
    NothingReplaced,
    /// Combinational loop (full cycle reported).
    CombinationalLoop,
    /// Net with more than one driver.
    MultiDrivenNet,
    /// Undriven net with loads.
    FloatingInput,
    /// Combinational cell whose output reaches no flop or primary
    /// output.
    UnreachableCell,
    /// Certified worst-case borrow exceeds the schedule's usable
    /// checking period (`timber-analyze` fixed point).
    CertifiedBorrowExceedsCapacity,
    /// Certified relay-chain length exceeds the schedule's maskable
    /// stages at the analyzed operating point.
    CertifiedChainExceedsMaskable,
    /// Consolidation latency exceeds the schedule's `k_ed − 1 + 0.5`
    /// cycle budget (certificate-level check).
    CertifiedConsolidationLatency,
    /// Ladder reachability disproved a published bound (the clock
    /// ladder's recovery deadline or maximum period, or the service
    /// ladder's `retry_after`).
    GovernorBoundUnproven,
    /// Silent corruption reachable at the analyzed operating point.
    CorruptionReachable,
    /// A dynamic observation exceeded a static certificate bound in
    /// the soundness replay.
    SoundnessViolation,
    /// Timing checks were skipped because of earlier errors.
    TimingChecksSkipped,
}

impl DiagCode {
    /// The stable wire code, e.g. `"TBR001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::EmptySchedule => "TBR001",
            DiagCode::CheckingPercentRange => "TBR002",
            DiagCode::NonPositivePeriod => "TBR003",
            DiagCode::CheckingNotDivisible => "TBR004",
            DiagCode::RelayIncrementRange => "TBR005",
            DiagCode::RelayIncrementSkipsTb => "TBR006",
            DiagCode::UnpaddedShortPath => "TBR010",
            DiagCode::PaddingBudgetExceeded => "TBR011",
            DiagCode::PaddingPlan => "TBR012",
            DiagCode::RelayCoverageGap => "TBR020",
            DiagCode::SuperfluousReplacement => "TBR021",
            DiagCode::RelayConsolidationTiming => "TBR022",
            DiagCode::UnknownReplacedFlop => "TBR023",
            DiagCode::ConsolidationBudget => "TBR030",
            DiagCode::NothingReplaced => "TBR031",
            DiagCode::CombinationalLoop => "TBR040",
            DiagCode::MultiDrivenNet => "TBR041",
            DiagCode::FloatingInput => "TBR042",
            DiagCode::UnreachableCell => "TBR043",
            DiagCode::CertifiedBorrowExceedsCapacity => "TBR050",
            DiagCode::CertifiedChainExceedsMaskable => "TBR051",
            DiagCode::CertifiedConsolidationLatency => "TBR052",
            DiagCode::GovernorBoundUnproven => "TBR053",
            DiagCode::CorruptionReachable => "TBR054",
            DiagCode::SoundnessViolation => "TBR055",
            DiagCode::TimingChecksSkipped => "TBR090",
        }
    }

    /// Severity fixed by the code.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::EmptySchedule
            | DiagCode::CheckingPercentRange
            | DiagCode::NonPositivePeriod
            | DiagCode::RelayIncrementRange
            | DiagCode::UnpaddedShortPath
            | DiagCode::PaddingBudgetExceeded
            | DiagCode::RelayCoverageGap
            | DiagCode::RelayConsolidationTiming
            | DiagCode::UnknownReplacedFlop
            | DiagCode::ConsolidationBudget
            | DiagCode::CombinationalLoop
            | DiagCode::MultiDrivenNet
            | DiagCode::FloatingInput
            | DiagCode::CertifiedBorrowExceedsCapacity
            | DiagCode::CertifiedChainExceedsMaskable
            | DiagCode::CertifiedConsolidationLatency
            | DiagCode::GovernorBoundUnproven
            | DiagCode::CorruptionReachable
            | DiagCode::SoundnessViolation => Severity::Error,
            DiagCode::CheckingNotDivisible
            | DiagCode::RelayIncrementSkipsTb
            | DiagCode::SuperfluousReplacement
            | DiagCode::UnreachableCell => Severity::Warn,
            DiagCode::PaddingPlan | DiagCode::NothingReplaced | DiagCode::TimingChecksSkipped => {
                Severity::Note
            }
        }
    }

    /// The paper section the invariant comes from, when one exists.
    pub fn paper_section(self) -> Option<&'static str> {
        match self {
            DiagCode::EmptySchedule
            | DiagCode::CheckingPercentRange
            | DiagCode::CheckingNotDivisible => Some("§4"),
            DiagCode::UnpaddedShortPath
            | DiagCode::PaddingBudgetExceeded
            | DiagCode::PaddingPlan => Some("§4"),
            DiagCode::ConsolidationBudget => Some("§4"),
            DiagCode::RelayIncrementRange
            | DiagCode::RelayIncrementSkipsTb
            | DiagCode::RelayCoverageGap
            | DiagCode::RelayConsolidationTiming => Some("§5.1"),
            DiagCode::SuperfluousReplacement | DiagCode::NothingReplaced => Some("§6"),
            DiagCode::CertifiedBorrowExceedsCapacity
            | DiagCode::CertifiedConsolidationLatency
            | DiagCode::GovernorBoundUnproven => Some("§4"),
            DiagCode::CertifiedChainExceedsMaskable
            | DiagCode::CorruptionReachable
            | DiagCode::SoundnessViolation => Some("§5.1"),
            _ => None,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding: a rule violation (or informational note) anchored to a
/// named design object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// The offending net / instance / flop / config field name.
    pub subject: String,
    /// Human-readable description of the violation.
    pub message: String,
    /// Actionable fix suggestion, when one exists.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic; severity comes from the code.
    pub fn new(
        code: DiagCode,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            subject: subject.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Diagnostic {
        self.hint = Some(hint.into());
        self
    }

    /// Renders the compiler-style one-or-more-line form.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}] {}: {}",
            self.severity,
            self.code.as_str(),
            self.subject,
            self.message
        );
        if let Some(hint) = &self.hint {
            out.push_str(&format!("\n  hint: {hint}"));
        }
        if let Some(section) = self.code.paper_section() {
            out.push_str(&format!("\n  ref: TIMBER paper {section}"));
        }
        out
    }

    fn to_json(&self) -> Value {
        json!({
            "code": self.code.as_str(),
            "severity": self.severity.to_string(),
            "subject": self.subject.clone(),
            "message": self.message.clone(),
            "hint": match &self.hint {
                Some(h) => Value::String(h.clone()),
                None => Value::Null,
            },
            "paper": match self.code.paper_section() {
                Some(s) => Value::String(s.to_owned()),
                None => Value::Null,
            },
        })
    }
}

/// All diagnostics from linting one configuration.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Name of the linted configuration (design + schedule).
    pub config_name: String,
    /// Findings in check order (schedule, structure, timing).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Creates an empty report for a named configuration.
    pub fn new(config_name: impl Into<String>) -> LintReport {
        LintReport {
            config_name: config_name.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Adds a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when no diagnostic reaches the failure threshold:
    /// errors always fail; warnings fail only with `deny_warn`.
    pub fn passes(&self, deny_warn: bool) -> bool {
        self.count(Severity::Error) == 0 && !(deny_warn && self.count(Severity::Warn) > 0)
    }

    /// Error-severity diagnostics, in check order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Stable wire codes of the error-severity diagnostics, in check
    /// order — the rejection-reason strings `timber-tune` records for
    /// candidates the linter refuses.
    pub fn error_codes(&self) -> Vec<&'static str> {
        self.errors().map(|d| d.code.as_str()).collect()
    }

    /// Diagnostics carrying a given code.
    pub fn with_code(&self, code: DiagCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Renders the human-readable report block.
    pub fn render(&self) -> String {
        let mut out = format!("-- lint: {} --\n", self.config_name);
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} note(s)\n",
            self.config_name,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Note)
        ));
        out
    }

    /// The machine-readable document for this report.
    pub fn to_json(&self) -> Value {
        json!({
            "config": self.config_name.clone(),
            "summary": json!({
                "errors": self.count(Severity::Error),
                "warnings": self.count(Severity::Warn),
                "notes": self.count(Severity::Note),
            }),
            "diagnostics": Value::Array(self.diagnostics.iter().map(|d| d.to_json()).collect()),
        })
    }
}

/// Serialises a batch of reports as the `repro lint --json` document.
pub fn reports_json(reports: &[LintReport], deny_warn: bool) -> String {
    let all_pass = reports.iter().all(|r| r.passes(deny_warn));
    let doc = json!({
        "tool": "timber-lint",
        "schema_version": 1,
        "deny_warn": deny_warn,
        "pass": all_pass,
        "reports": Value::Array(reports.iter().map(LintReport::to_json).collect()),
    });
    serde_json::to_string_pretty(&doc).expect("lint document serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            DiagCode::EmptySchedule,
            DiagCode::CheckingPercentRange,
            DiagCode::NonPositivePeriod,
            DiagCode::CheckingNotDivisible,
            DiagCode::RelayIncrementRange,
            DiagCode::RelayIncrementSkipsTb,
            DiagCode::UnpaddedShortPath,
            DiagCode::PaddingBudgetExceeded,
            DiagCode::PaddingPlan,
            DiagCode::RelayCoverageGap,
            DiagCode::SuperfluousReplacement,
            DiagCode::RelayConsolidationTiming,
            DiagCode::UnknownReplacedFlop,
            DiagCode::ConsolidationBudget,
            DiagCode::NothingReplaced,
            DiagCode::CombinationalLoop,
            DiagCode::MultiDrivenNet,
            DiagCode::FloatingInput,
            DiagCode::UnreachableCell,
            DiagCode::CertifiedBorrowExceedsCapacity,
            DiagCode::CertifiedChainExceedsMaskable,
            DiagCode::CertifiedConsolidationLatency,
            DiagCode::GovernorBoundUnproven,
            DiagCode::CorruptionReachable,
            DiagCode::SoundnessViolation,
            DiagCode::TimingChecksSkipped,
        ];
        let mut seen = std::collections::HashSet::new();
        for code in all {
            assert!(code.as_str().starts_with("TBR"));
            assert_eq!(code.as_str().len(), 6);
            assert!(seen.insert(code.as_str()), "duplicate {}", code.as_str());
        }
    }

    #[test]
    fn severity_ordering_supports_thresholds() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Note);
    }

    #[test]
    fn report_pass_logic() {
        let mut r = LintReport::new("t");
        assert!(r.passes(false) && r.passes(true));
        r.push(Diagnostic::new(
            DiagCode::PaddingPlan,
            "padding",
            "2 buffers",
        ));
        assert!(r.passes(true), "notes never fail");
        r.push(Diagnostic::new(
            DiagCode::UnreachableCell,
            "u3",
            "output reaches nothing",
        ));
        assert!(r.passes(false));
        assert!(!r.passes(true), "--deny warn fails on warnings");
        r.push(Diagnostic::new(DiagCode::MultiDrivenNet, "n1", "2 drivers"));
        assert!(!r.passes(false));
    }

    #[test]
    fn render_includes_code_subject_and_hint() {
        let d = Diagnostic::new(
            DiagCode::UnpaddedShortPath,
            "flop f_short",
            "min-delay 40ps < floor 120ps",
        )
        .with_hint("insert 3 delay buffers");
        let text = d.render();
        assert!(text.contains("error[TBR010] flop f_short"));
        assert!(text.contains("hint: insert 3 delay buffers"));
        assert!(text.contains("paper §4"));
    }

    #[test]
    fn json_document_shape() {
        let mut r = LintReport::new("rca16@deferred");
        r.push(Diagnostic::new(DiagCode::CombinationalLoop, "u1", "loop"));
        let doc = reports_json(&[r], true);
        let v = serde_json::from_str(&doc).expect("valid json");
        assert_eq!(v["tool"], Value::String("timber-lint".into()));
        assert_eq!(v["pass"], Value::Bool(false));
        let rep = &v["reports"].as_array().unwrap()[0];
        assert_eq!(rep["summary"]["errors"], serde_json::json!(1));
        assert_eq!(
            rep["diagnostics"].as_array().unwrap()[0]["code"],
            Value::String("TBR040".into())
        );
    }
}
