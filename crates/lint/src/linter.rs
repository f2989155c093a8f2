//! The lint orchestrator: schedule → structure → timing.

use timber_netlist::{FaninCones, Netlist};
use timber_sta::{ClockConstraint, HoldAnalysis, TimingAnalysis};

use crate::config::LintConfig;
use crate::diagnostic::{DiagCode, Diagnostic, LintReport, Severity};
use crate::schedule::check_schedule;
use crate::structure::check_structure;
use crate::timing::check_timing;

/// Lints one netlist against one intended TIMBER integration.
///
/// Builds the design's [`DesignLint`], runs a max-delay analysis
/// under `config.constraint` and builds every flop's fanin cone when
/// the netlist is acyclic, then checks as [`DesignLint::lint`] does.
pub fn lint(netlist: &Netlist, config: &LintConfig) -> LintReport {
    let design = DesignLint::new(netlist, &config.constraint);
    let sta = match design.hold {
        Some(_) => TimingAnalysis::try_run(netlist, &config.constraint).ok(),
        None => None,
    };
    let cones = sta.as_ref().map(|sta| FaninCones::new(netlist, sta.topo()));
    design.lint(config, sta.as_ref().zip(cones.as_ref()))
}

/// Lint's design-invariant half: the structure findings and the
/// min-delay (hold) analysis. Neither reads the schedule or the clock
/// period, so one `DesignLint` checks any number of configurations of
/// its netlist.
#[derive(Debug, Clone)]
pub struct DesignLint<'nl> {
    netlist: &'nl Netlist,
    /// The structure pass's findings, in check order.
    structure: Vec<Diagnostic>,
    /// Min arrivals; `None` when the structure pass found an error or
    /// the netlist is cyclic, so no timing rule can run.
    hold: Option<HoldAnalysis>,
}

impl<'nl> DesignLint<'nl> {
    /// Runs the structure pass and, on a structurally clean netlist,
    /// the hold analysis under `constraint`'s hold and clk-to-Q times.
    pub fn new(netlist: &'nl Netlist, constraint: &ClockConstraint) -> DesignLint<'nl> {
        let mut found = LintReport::default();
        check_structure(netlist, &mut found);
        let hold = match found.count(Severity::Error) {
            0 => HoldAnalysis::try_run(netlist, constraint).ok(),
            _ => None,
        };
        DesignLint {
            netlist,
            structure: found.diagnostics,
            hold,
        }
    }

    /// Lints one configuration of the netlist: schedule, then
    /// structure, then timing.
    ///
    /// Check order matters: the timing rules assume an acyclic,
    /// single-driven netlist and a buildable schedule, so they only run
    /// when the schedule and structure passes produced no errors. In
    /// that case a [`DiagCode::TimingChecksSkipped`] note records the
    /// gap — a report that says nothing about short paths is not
    /// claiming they are safe.
    ///
    /// `timing` is a max-delay analysis of this netlist under
    /// `config.constraint` and the fanin cones built from its
    /// topological order; `None` when that analysis could not run,
    /// which skips the timing rules with a note.
    ///
    /// # Panics
    ///
    /// Panics if the analysis is of another netlist or was run under a
    /// constraint other than `config.constraint`, or if the timing
    /// rules run and `config.constraint` has other hold or clk-to-Q
    /// times than this `DesignLint` was built with.
    pub fn lint(
        &self,
        config: &LintConfig,
        timing: Option<(&TimingAnalysis<'_>, &FaninCones)>,
    ) -> LintReport {
        if let Some((sta, _)) = timing {
            assert!(
                std::ptr::eq(sta.netlist(), self.netlist),
                "the timing analysis must be of the linted netlist"
            );
            assert_eq!(
                *sta.constraint(),
                config.constraint,
                "the timing analysis must be run under the lint constraint"
            );
        }
        let mut report = LintReport::new(format!("{}@{}", self.netlist.name(), config.name));
        let schedule = check_schedule(&config.schedule, config.constraint.period, &mut report);
        report.diagnostics.extend(self.structure.iter().cloned());
        let Some(schedule) = schedule.filter(|_| report.count(Severity::Error) == 0) else {
            report.push(Diagnostic::new(
                DiagCode::TimingChecksSkipped,
                "timing",
                "short-path, relay, and consolidation checks skipped until the \
                 schedule and structural errors above are fixed",
            ));
            return report;
        };
        match (timing, &self.hold) {
            (Some((sta, cones)), Some(hold)) => check_timing(
                self.netlist,
                config,
                &schedule,
                sta,
                hold,
                cones,
                &mut report,
            ),
            _ => report.push(Diagnostic::new(
                DiagCode::TimingChecksSkipped,
                "timing",
                "timing analysis failed; fix structural errors first",
            )),
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaddingPolicy, ReplacementPlan, ScheduleSpec};
    use timber_netlist::{CellLibrary, FlopId, InstId, NetlistBuilder, Picos};
    use timber_sta::{ClockConstraint, TimingAnalysis};

    fn datapath() -> Netlist {
        let lib = CellLibrary::standard();
        timber_netlist::pipelined_datapath(
            &lib,
            &timber_netlist::DatapathSpec::uniform(4, 12, 150, 0.7, 17),
        )
        .unwrap()
    }

    fn period_for(nl: &Netlist, spec: &ScheduleSpec) -> Picos {
        let sta = TimingAnalysis::run(nl, &ClockConstraint::with_period(Picos(100_000)));
        let raw = sta.worst_arrival().scale(1.05) + Picos(30);
        crate::schedule::snap_period(raw, spec)
    }

    /// `lint`, checked against a `DesignLint` built under another
    /// period and an analysis retimed to the lint constraint.
    fn lint_both(nl: &Netlist, cfg: &LintConfig) -> LintReport {
        let report = lint(nl, cfg);
        let other = ClockConstraint::with_period(cfg.constraint.period * 3);
        let design = DesignLint::new(nl, &other);
        let sta = TimingAnalysis::run(nl, &other).retimed(&cfg.constraint);
        let cones = FaninCones::new(nl, sta.topo());
        let shared = design.lint(cfg, Some((&sta, &cones)));
        assert_eq!(shared.to_json(), report.to_json());
        report
    }

    fn clean_config(nl: &Netlist) -> LintConfig {
        let spec = ScheduleSpec::deferred(30.0);
        let period = period_for(nl, &spec);
        LintConfig::new("deferred30", spec, ClockConstraint::with_period(period))
    }

    #[test]
    fn shipped_style_config_is_clean() {
        let nl = datapath();
        let report = lint_both(&nl, &clean_config(&nl));
        assert_eq!(report.count(Severity::Error), 0, "{}", report.render());
        assert_eq!(report.count(Severity::Warn), 0, "{}", report.render());
        assert!(report.passes(true));
    }

    #[test]
    #[should_panic(expected = "must share the lint constraint's hold and clk-to-Q")]
    fn design_lint_under_another_hold_time_panics() {
        let nl = datapath();
        let cfg = clean_config(&nl);
        let design = DesignLint::new(
            &nl,
            &ClockConstraint {
                hold: Picos(21),
                ..cfg.constraint
            },
        );
        let sta = TimingAnalysis::run(&nl, &cfg.constraint);
        let cones = FaninCones::new(&nl, sta.topo());
        let _ = design.lint(&cfg, Some((&sta, &cones)));
    }

    #[test]
    #[should_panic(expected = "must be run under the lint constraint")]
    fn design_lint_over_an_analysis_at_another_period_panics() {
        let nl = datapath();
        let cfg = clean_config(&nl);
        let design = DesignLint::new(&nl, &cfg.constraint);
        let sta = TimingAnalysis::run(&nl, &ClockConstraint::with_period(Picos(100_000)));
        let cones = FaninCones::new(&nl, sta.topo());
        let _ = design.lint(&cfg, Some((&sta, &cones)));
    }

    #[test]
    fn structural_error_skips_timing_with_note() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("loop", &lib);
        let a = b.input("a");
        let x = b.gate("inv", &[a]).unwrap();
        let y = b.gate("inv", &[x]).unwrap();
        let q = b.flop("f", y);
        b.output("o", q);
        b.rewire_input(InstId(0), 0, y);
        let nl = b.finish_unchecked();
        let cfg = LintConfig::new(
            "c",
            ScheduleSpec::deferred(20.0),
            ClockConstraint::with_period(Picos(1000)),
        );
        let report = lint(&nl, &cfg);
        assert!(!report.passes(false));
        assert_eq!(report.with_code(DiagCode::CombinationalLoop).len(), 1);
        assert_eq!(report.with_code(DiagCode::TimingChecksSkipped).len(), 1);
        assert!(report.with_code(DiagCode::UnpaddedShortPath).is_empty());
    }

    #[test]
    fn unpadded_short_path_names_endpoint_and_code() {
        // Flop-to-flop wire with zero logic: min arrival (clk_to_q =
        // 40ps) is far below hold + checking on any realistic schedule.
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("short", &lib);
        let a = b.input("a");
        let mut x = b.flop("f_src", a);
        let q_src = x;
        for _ in 0..20 {
            x = b.gate("buf", &[x]).unwrap();
        }
        let q1 = b.flop("f_crit", x);
        let q2 = b.flop("f_short", q_src);
        b.output("o1", q1);
        b.output("o2", q2);
        let nl = b.finish().unwrap();
        let spec = ScheduleSpec::deferred(30.0);
        let period = period_for(&nl, &spec);
        let cfg = LintConfig::new("nopad", spec, ClockConstraint::with_period(period))
            .with_padding(PaddingPolicy::None);
        let report = lint_both(&nl, &cfg);
        assert!(!report.passes(false));
        let short = report.with_code(DiagCode::UnpaddedShortPath);
        assert!(!short.is_empty());
        assert!(
            short.iter().any(|d| d.subject.contains("f_short")),
            "{}",
            report.render()
        );
        assert!(short[0].render().contains("TBR010"));
    }

    #[test]
    fn explicit_plan_with_coverage_gap_is_tbr020() {
        // Two critical stages in a row: f_mid both starts and ends
        // critical paths, f_end ends one. Replacing only f_end leaves
        // f_mid's borrow unrelayable.
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("gap", &lib);
        let a = b.input("a");
        let mut x = b.flop("f_src", a);
        for _ in 0..10 {
            x = b.gate("buf", &[x]).unwrap();
        }
        let mut y = b.flop("f_mid", x);
        for _ in 0..10 {
            y = b.gate("buf", &[y]).unwrap();
        }
        let q = b.flop("f_end", y);
        b.output("o", q);
        let nl = b.finish().unwrap();
        let spec = ScheduleSpec::deferred(30.0);
        let period = period_for(&nl, &spec);
        let cfg = LintConfig::new("partial", spec, ClockConstraint::with_period(period))
            .with_replacement(ReplacementPlan::Explicit(vec![FlopId(2)]));
        let report = lint_both(&nl, &cfg);
        let gaps = report.with_code(DiagCode::RelayCoverageGap);
        assert_eq!(gaps.len(), 1, "{}", report.render());
        assert!(gaps[0].subject.contains("f_end"));
        assert!(gaps[0].message.contains("f_mid"));
        assert!(!report.passes(false));
    }

    #[test]
    fn explicit_plan_out_of_range_is_tbr023() {
        let nl = datapath();
        let mut cfg = clean_config(&nl);
        cfg.replacement = ReplacementPlan::Explicit(vec![FlopId(10_000)]);
        let report = lint_both(&nl, &cfg);
        assert_eq!(report.with_code(DiagCode::UnknownReplacedFlop).len(), 1);
    }

    #[test]
    fn tight_padding_budget_is_tbr011() {
        let nl = datapath();
        let mut cfg = clean_config(&nl);
        cfg.padding = PaddingPolicy::Budget(Picos(1));
        let report = lint_both(&nl, &cfg);
        // The datapath needs some padding at c=30%; a 1ps budget fails.
        assert_eq!(
            report.with_code(DiagCode::PaddingBudgetExceeded).len(),
            1,
            "{}",
            report.render()
        );
    }

    #[test]
    fn nothing_replaced_is_a_note_only() {
        // A single-stage design with a huge period: nothing is critical.
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("idle", &lib);
        let a = b.input("a");
        let x = b.gate("inv", &[a]).unwrap();
        let q = b.flop("f", x);
        b.output("o", q);
        let nl = b.finish().unwrap();
        let cfg = LintConfig::new(
            "huge",
            ScheduleSpec::deferred(10.0),
            ClockConstraint::with_period(Picos(1_000_000)),
        );
        let report = lint_both(&nl, &cfg);
        assert_eq!(report.with_code(DiagCode::NothingReplaced).len(), 1);
        assert_eq!(report.count(Severity::Error), 0, "{}", report.render());
    }
}
