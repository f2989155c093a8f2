//! Timing design rules (`TBR010`–`TBR031`): short-path safety, relay
//! coverage and settle time, consolidation latency.
//!
//! These checks only run on structurally clean netlists with a
//! buildable schedule; they reuse the real analyses — `timber-sta`'s
//! hold padding plan and `timber`'s relay/consolidation models — so a
//! lint verdict and a planned integration can never disagree.

use std::collections::HashSet;

use timber::{CheckingPeriod, ConsolidationTree, RelayEstimate};
use timber_netlist::{FaninCones, FlopId, Netlist};
use timber_sta::{classify_flops, HoldAnalysis, PathDistribution, TimingAnalysis};

use crate::config::{LintConfig, PaddingPolicy, ReplacementPlan};
use crate::diagnostic::{DiagCode, Diagnostic, LintReport};

/// How many per-endpoint `TBR010`/`TBR020` diagnostics are listed
/// individually before the remainder is folded into one summary entry.
pub const ENDPOINT_DIAG_CAP: usize = 16;

/// Runs every timing check, appending findings to `report`.
///
/// `sta` is the max-delay analysis under `config.constraint`, `hold`
/// the min-delay analysis and `cones` every flop's fanin cone, all of
/// `netlist`. The caller guarantees the netlist is acyclic (structure
/// checks passed).
///
/// # Panics
///
/// Panics if `hold` was run under other hold or clk-to-Q times than
/// `config.constraint`'s: its min arrivals and padding floor read them.
pub fn check_timing(
    netlist: &Netlist,
    config: &LintConfig,
    schedule: &CheckingPeriod,
    sta: &TimingAnalysis<'_>,
    hold: &HoldAnalysis,
    cones: &FaninCones,
    report: &mut LintReport,
) {
    let constraint = &config.constraint;
    assert_eq!(
        (hold.constraint().hold, hold.constraint().clk_to_q),
        (constraint.hold, constraint.clk_to_q),
        "the hold analysis must share the lint constraint's hold and clk-to-Q"
    );

    check_padding(netlist, config, schedule, hold, report);

    let threshold = constraint
        .period
        .scale(1.0 - config.schedule.checking_pct / 100.0);
    let classes = classify_flops(sta, threshold);
    let replaced = resolve_replacement(netlist, config, sta, &classes, report);

    if replaced.is_empty() {
        report.push(
            Diagnostic::new(
                DiagCode::NothingReplaced,
                "replacement",
                "no flip-flop ends a top-c% path; the TIMBER integration is a no-op",
            )
            .with_hint("raise the checking percentage or tighten the clock period"),
        );
        return;
    }

    let replaced_set: HashSet<FlopId> = replaced.iter().copied().collect();
    check_relay_coverage(netlist, cones, &replaced, &replaced_set, &classes, report);
    check_relay_timing(
        netlist,
        config,
        cones,
        &replaced,
        &replaced_set,
        &classes,
        report,
    );
    check_consolidation(config, schedule, replaced.len(), report);
}

/// Resolves the replacement plan to a concrete flop set, validating
/// explicit plans (`TBR023` unknown ids, `TBR021` superfluous members).
fn resolve_replacement(
    netlist: &Netlist,
    config: &LintConfig,
    sta: &TimingAnalysis<'_>,
    classes: &[timber_sta::FlopTimingClass],
    report: &mut LintReport,
) -> Vec<FlopId> {
    match &config.replacement {
        ReplacementPlan::TopC => {
            PathDistribution::replacement_set(sta, netlist, config.schedule.checking_pct)
        }
        ReplacementPlan::Explicit(flops) => {
            let mut valid = Vec::new();
            for &f in flops {
                if (f.0 as usize) >= netlist.flop_count() {
                    report.push(Diagnostic::new(
                        DiagCode::UnknownReplacedFlop,
                        format!("flop #{}", f.0),
                        format!(
                            "replacement plan names flop {} but the design has only {}",
                            f.0,
                            netlist.flop_count()
                        ),
                    ));
                    continue;
                }
                if !classes[f.0 as usize].ends_critical {
                    report.push(
                        Diagnostic::new(
                            DiagCode::SuperfluousReplacement,
                            format!("flop \"{}\"", netlist.flop(f).name()),
                            "terminates no top-c% path; replacing it buys nothing",
                        )
                        .with_hint("drop it from the plan to save relay area"),
                    );
                }
                valid.push(f);
            }
            valid
        }
    }
}

/// Short-path padding against the extended hold constraint (paper §4):
/// `TBR010` per unpadded endpoint, `TBR011` over budget, `TBR012` plan
/// summary.
fn check_padding(
    netlist: &Netlist,
    config: &LintConfig,
    schedule: &CheckingPeriod,
    hold: &HoldAnalysis,
    report: &mut LintReport,
) {
    let plan = hold.padding_plan(netlist, schedule.checking());
    if plan.is_empty() {
        return;
    }
    match config.padding {
        PaddingPolicy::None => {
            for (f, deficit) in plan.deficits.iter().take(ENDPOINT_DIAG_CAP) {
                report.push(
                    Diagnostic::new(
                        DiagCode::UnpaddedShortPath,
                        format!("flop \"{}\"", netlist.flop(*f).name()),
                        format!(
                            "min-delay path is {deficit} short of the floor {} \
                             (hold + checking period); the checking window would \
                             capture next-cycle data",
                            plan.floor
                        ),
                    )
                    .with_hint("insert delay buffers or switch padding policy to Auto"),
                );
            }
            if plan.deficits.len() > ENDPOINT_DIAG_CAP {
                report.push(Diagnostic::new(
                    DiagCode::UnpaddedShortPath,
                    "short paths",
                    format!(
                        "... and {} more endpoints below the {} floor",
                        plan.deficits.len() - ENDPOINT_DIAG_CAP,
                        plan.floor
                    ),
                ));
            }
        }
        PaddingPolicy::Budget(limit) if plan.total_padding > limit => {
            report.push(
                Diagnostic::new(
                    DiagCode::PaddingBudgetExceeded,
                    "short paths",
                    format!(
                        "padding plan needs {} total delay across {} endpoints, \
                         over the declared budget {}",
                        plan.total_padding,
                        plan.deficits.len(),
                        limit
                    ),
                )
                .with_hint("raise the budget or shrink the checking period"),
            );
        }
        PaddingPolicy::Auto | PaddingPolicy::Budget(_) => {
            report.push(Diagnostic::new(
                DiagCode::PaddingPlan,
                "short paths",
                format!(
                    "{} endpoints below the {} floor; plan inserts {} buffers \
                     ({} total delay)",
                    plan.deficits.len(),
                    plan.floor,
                    plan.buffers_needed(timber_netlist::Picos(28)),
                    plan.total_padding
                ),
            ));
        }
    }
}

/// Relay-cone coverage (`TBR020`, paper §5.1): a replaced flop fed by an
/// unreplaced flop that both starts and ends critical paths cannot learn
/// how much that predecessor just borrowed — a multi-stage error would
/// arrive unannounced.
fn check_relay_coverage(
    netlist: &Netlist,
    cones: &FaninCones,
    replaced: &[FlopId],
    replaced_set: &HashSet<FlopId>,
    classes: &[timber_sta::FlopTimingClass],
    report: &mut LintReport,
) {
    let mut emitted = 0usize;
    let mut suppressed = 0usize;
    for &f in replaced {
        for g in cones.cone(f) {
            if replaced_set.contains(&g) || !classes[g.0 as usize].starts_and_ends() {
                continue;
            }
            if emitted < ENDPOINT_DIAG_CAP {
                report.push(
                    Diagnostic::new(
                        DiagCode::RelayCoverageGap,
                        format!("flop \"{}\"", netlist.flop(f).name()),
                        format!(
                            "fed by unreplaced borrowing flop \"{}\"; its borrow \
                             cannot be relayed downstream",
                            netlist.flop(g).name()
                        ),
                    )
                    .with_hint("add the predecessor to the replacement plan"),
                );
                emitted += 1;
            } else {
                suppressed += 1;
            }
        }
    }
    if suppressed > 0 {
        report.push(Diagnostic::new(
            DiagCode::RelayCoverageGap,
            "replacement",
            format!("... and {suppressed} more relay-coverage gaps"),
        ));
    }
}

/// Relay settle time against the half-cycle budget (`TBR022`).
fn check_relay_timing(
    netlist: &Netlist,
    config: &LintConfig,
    cones: &FaninCones,
    replaced: &[FlopId],
    replaced_set: &HashSet<FlopId>,
    classes: &[timber_sta::FlopTimingClass],
    report: &mut LintReport,
) {
    for &f in replaced {
        let sources = cones
            .cone(f)
            .filter(|g| replaced_set.contains(g) && classes[g.0 as usize].starts_and_ends())
            .count();
        let estimate = RelayEstimate::new(sources);
        let slack = estimate.slack_pct(config.constraint.period);
        if slack < 0.0 {
            report.push(
                Diagnostic::new(
                    DiagCode::RelayConsolidationTiming,
                    format!("flop \"{}\"", netlist.flop(f).name()),
                    format!(
                        "relay network over {sources} sources needs {} to settle, \
                         past the half-cycle budget ({slack:.1}% slack)",
                        estimate.delay()
                    ),
                )
                .with_hint("shrink the relay cone or lower the clock frequency"),
            );
        }
    }
}

/// Error-consolidation OR-tree vs the schedule's latency budget
/// (`TBR030`, paper §4).
fn check_consolidation(
    config: &LintConfig,
    schedule: &CheckingPeriod,
    sources: usize,
    report: &mut LintReport,
) {
    let tree = ConsolidationTree::new(sources);
    if !tree.meets_budget(schedule) {
        report.push(
            Diagnostic::new(
                DiagCode::ConsolidationBudget,
                "consolidation",
                format!(
                    "OR-tree over {sources} sources settles in {:.2} cycles, over \
                     the schedule budget of {:.2} (k_ed - 1 + 0.5)",
                    tree.latency_cycles(config.constraint.period),
                    schedule.consolidation_budget_cycles()
                ),
            )
            .with_hint("add ED intervals (larger k_ed) or pipeline the OR-tree"),
        );
    }
}
