//! The fault-injection campaign: a deterministic sweep of seeded
//! timing-error bursts over every `(k_tb, k_ed)` schedule point of the
//! paper's case study, every scheme, and every burst shape — with the
//! differential oracle, the paper's masking/flagging contract, and two
//! metamorphic properties checked on every case.
//!
//! Parallelism goes through `timber_resilience::scatter_strict` — the
//! deterministic work-pull scatter shared with the Monte-Carlo engine:
//! worker threads pull flat case indices from an atomic counter, write
//! results back by index, and the report is reduced in canonical case
//! order afterwards — so the output is bit-identical for any
//! `--threads N`.

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_schemes::SchemeId;
use timber_variability::splitmix64;

use crate::analytical::analytical_run;
use crate::class::{Class, ModelRun};
use crate::oracle::{check, Divergence};
use crate::report::CampaignReport;
use crate::workload::{BurstShape, Workload};

/// The campaign's `(k_tb, k_ed)` schedule grid. It contains both paper
/// case-study points — immediate flagging `(0, 2)` and deferred
/// flagging `(1, 2)` (Fig. 2) — plus the surrounding lattice up to two
/// intervals per region, so the flagging boundary `units > k_tb` is
/// probed from both sides at every depth.
pub const GRID: [(u8, u8); 8] = [
    (0, 1),
    (0, 2),
    (1, 0),
    (1, 1),
    (1, 2),
    (2, 0),
    (2, 1),
    (2, 2),
];

/// The campaign's clock period: the paper's 1 GHz case study.
pub const PERIOD: Picos = Picos(1000);

/// Checking period as a percentage of the clock. 24% divides exactly
/// into 1–4 intervals of whole picoseconds at the 1000 ps period, so
/// every grid point's usable window equals its nominal window and
/// boundary probes stay exact.
pub const CHECKING_PCT: f64 = 24.0;

/// What to sweep and how.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Base seed; case seeds are `splitmix64(base, flat_index)`.
    pub base_seed: u64,
    /// Pipeline stage-boundary count per case.
    pub stages: usize,
    /// Cycles per generated workload.
    pub cycles: usize,
    /// Independent workloads per (grid, scheme, shape) cell.
    pub trials: usize,
    /// Worker threads, 0 = all cores (never changes the results).
    pub threads: usize,
    /// Activates the seeded model-B bug (harness self-test).
    pub sabotage: bool,
}

impl CampaignSpec {
    /// The pinned CI gate configuration: small enough to finish in
    /// seconds, big enough to exercise every coverage cell.
    pub fn pinned(base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            base_seed,
            stages: 4,
            cycles: 48,
            trials: 2,
            threads: 1,
            sabotage: false,
        }
    }

    /// The larger campaign (three times the trials, twice the cycles).
    pub fn full(base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            base_seed,
            stages: 4,
            cycles: 96,
            trials: 6,
            threads: 1,
            sabotage: false,
        }
    }

    /// Worker-thread count to use (0 = all cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> CampaignSpec {
        self.threads = threads;
        self
    }

    /// Enables the seeded model-B bug.
    #[must_use]
    pub fn sabotage(mut self, sabotage: bool) -> CampaignSpec {
        self.sabotage = sabotage;
        self
    }

    /// Total case count.
    pub fn cases(&self) -> usize {
        GRID.len() * SchemeId::ALL.len() * BurstShape::ALL.len() * self.trials
    }
}

/// One case's coordinates in the sweep, derived from its flat index.
#[derive(Debug, Clone, Copy)]
struct Case {
    grid_idx: usize,
    scheme_idx: usize,
    shape_idx: usize,
    seed: u64,
}

impl Case {
    fn of(spec: &CampaignSpec, flat: usize) -> Case {
        let per_shape = spec.trials;
        let per_scheme = BurstShape::ALL.len() * per_shape;
        let per_grid = SchemeId::ALL.len() * per_scheme;
        Case {
            grid_idx: flat / per_grid,
            scheme_idx: (flat % per_grid) / per_scheme,
            shape_idx: (flat % per_scheme) / per_shape,
            seed: splitmix64(spec.base_seed, flat as u64),
        }
    }

    fn scheme(&self) -> SchemeId {
        SchemeId::ALL[self.scheme_idx]
    }

    fn shape(&self) -> BurstShape {
        BurstShape::ALL[self.shape_idx]
    }
}

/// Everything one case contributes to the report.
#[derive(Debug)]
struct CaseOutcome {
    grid_idx: usize,
    scheme_idx: usize,
    shape_idx: usize,
    violations: u64,
    divergence: Option<Divergence>,
    contract_violations: Vec<String>,
    metamorphic_violations: Vec<String>,
}

fn context(case: &Case, grid: (u8, u8)) -> String {
    format!(
        "{} (k_tb={}, k_ed={}) {} seed {}",
        case.scheme().name(),
        grid.0,
        grid.1,
        case.shape().name(),
        case.seed
    )
}

/// The paper's §3 masking/flagging contract, checked against the
/// analytical model's classification of one case (see `DESIGN.md` §10
/// for the table).
fn check_contract(
    run: &ModelRun,
    schedule: &CheckingPeriod,
    id: SchemeId,
    ctx: &str,
) -> Vec<String> {
    let interval = schedule.interval();
    let usable = schedule.usable_checking();
    let k = i64::from(schedule.k());
    let k_tb = i64::from(schedule.k_tb());
    let tb_window = interval * k_tb;
    let mut out = Vec::new();
    let mut fail = |cycle: usize, stage: usize, what: String| {
        out.push(format!("{ctx}: cycle {cycle} stage {stage}: {what}"));
    };
    for (t, row) in run.cycles.iter().enumerate() {
        let Some(row) = row else { continue };
        for (s, &class) in row.iter().enumerate() {
            match (id, class) {
                (
                    SchemeId::TimberFf,
                    Class::Masked {
                        borrowed, flagged, ..
                    },
                ) => {
                    let units = borrowed.as_ps() / interval.as_ps().max(1);
                    if borrowed.as_ps() % interval.as_ps().max(1) != 0 {
                        fail(t, s, format!("borrow {borrowed} not a whole interval"));
                    } else if !(1..=k).contains(&units) {
                        fail(t, s, format!("borrowed {units} units outside [1, {k}]"));
                    } else if flagged != (units > k_tb) {
                        fail(
                            t,
                            s,
                            format!("{units}-unit borrow flagged={flagged} with k_tb={k_tb}"),
                        );
                    }
                }
                (
                    SchemeId::TimberLatch,
                    Class::Masked {
                        borrowed, flagged, ..
                    },
                ) => {
                    if borrowed <= Picos::ZERO || borrowed > usable {
                        fail(
                            t,
                            s,
                            format!("continuous borrow {borrowed} outside (0, {usable}]"),
                        );
                    } else if flagged != (borrowed > tb_window) {
                        fail(
                            t,
                            s,
                            format!(
                                "borrow {borrowed} flagged={flagged} with TB window {tb_window}"
                            ),
                        );
                    }
                }
                (
                    SchemeId::SoftEdgeFf,
                    Class::Masked {
                        borrowed, flagged, ..
                    },
                ) => {
                    if flagged {
                        fail(t, s, "soft-edge cell cannot flag".into());
                    } else if borrowed <= Picos::ZERO || borrowed > interval {
                        fail(
                            t,
                            s,
                            format!("soft-edge borrow {borrowed} outside (0, {interval}]"),
                        );
                    }
                }
                (
                    SchemeId::LogicalMasking,
                    Class::Masked {
                        borrowed, flagged, ..
                    },
                ) if borrowed != Picos::ZERO || flagged => {
                    fail(
                        t,
                        s,
                        format!(
                            "logical masking borrows zero time, got {borrowed} flagged={flagged}"
                        ),
                    );
                }
                (SchemeId::CanaryFf, Class::Masked { .. } | Class::Detected { .. }) => {
                    fail(t, s, format!("canary can only predict, got {class}"));
                }
                (
                    SchemeId::RazorFf | SchemeId::TransitionDetectorFf,
                    Class::Masked { .. } | Class::Predicted,
                ) => {
                    fail(t, s, format!("detection scheme produced {class}"));
                }
                (
                    SchemeId::RazorFf | SchemeId::TransitionDetectorFf,
                    Class::Detected { penalty },
                ) if penalty != 1 => {
                    fail(t, s, format!("recovery penalty {penalty}, expected 1"));
                }
                (
                    SchemeId::ConventionalFf,
                    Class::Masked { .. } | Class::Detected { .. } | Class::Predicted,
                ) => {
                    fail(t, s, format!("conventional flop produced {class}"));
                }
                _ => {}
            }
        }
    }
    out
}

/// Metamorphic property 1: scaling every delay *and* the period by the
/// same integer preserves the classification (borrows scale with it).
fn check_scaling(w: &Workload, base: &ModelRun, id: SchemeId, seed: u64, ctx: &str) -> Vec<String> {
    let scaled = analytical_run(&w.scaled(2), id, seed);
    let mut out = Vec::new();
    for (t, (r1, r2)) in base.cycles.iter().zip(&scaled.cycles).enumerate() {
        match (r1, r2) {
            (None, None) => {}
            (Some(row1), Some(row2)) => {
                for (s, (&c1, &c2)) in row1.iter().zip(row2).enumerate() {
                    let matches = match (c1, c2) {
                        (
                            Class::Masked {
                                borrowed: b1,
                                depth: d1,
                                flagged: f1,
                            },
                            Class::Masked {
                                borrowed: b2,
                                depth: d2,
                                flagged: f2,
                            },
                        ) => b2 == b1 * 2 && d1 == d2 && f1 == f2,
                        (a, b) => a == b,
                    };
                    if !matches {
                        out.push(format!(
                            "{ctx}: scaling x2 changed cycle {t} stage {s}: {c1} -> {c2}"
                        ));
                    }
                }
            }
            _ => out.push(format!(
                "{ctx}: scaling x2 changed bubble structure at cycle {t}"
            )),
        }
    }
    out
}

/// Severity order for the slack property: lower is better. `Detected`
/// never appears here (detection schemes are exempt below).
fn severity(c: Class) -> u8 {
    match c {
        Class::Ok => 0,
        Class::Predicted => 1,
        Class::Masked { .. } => 2,
        Class::Detected { .. } => 3,
        Class::Corrupted => 4,
    }
}

/// Metamorphic property 2 (slack locality + target safety): adding one
/// interval of slack at the first violating cell `(t, s)` must
///
/// 1. never worsen *that* cell — its inherited carry, select input and
///    checking window come from upstream and are untouched by the edit,
///    so a strictly earlier arrival can only keep or improve its class,
///    and a still-masked target keeps (or lowers) its borrow and depth;
/// 2. leave every cell *off the forward diagonal* `(t + i, s + i)`
///    bit-identical — carry and select relay both move exactly one
///    stage per cycle, so the edit's light cone is that diagonal and
///    nothing else.
///
/// A *global* "slack never raises borrow depth" is deliberately NOT
/// asserted: borrowing is a rescue mechanism, so extra slack can pull a
/// previously *escaping* cell back inside the checking window. The new
/// mask replaces a silent corruption (an improvement), but it also
/// re-creates a carry the corrupted cell had absorbed, which can
/// legitimately re-time — even corrupt — cells further down the
/// diagonal. Only the two properties above are monotone.
///
/// Detection schemes are exempt entirely — removing a detection shifts
/// the bubble structure, which re-times everything downstream.
fn check_slack(w: &Workload, base: &ModelRun, id: SchemeId, seed: u64, ctx: &str) -> Vec<String> {
    if id.is_detection() {
        return Vec::new();
    }
    // Target the first violating cell.
    let target = base.cycles.iter().enumerate().find_map(|(t, row)| {
        row.as_ref()
            .and_then(|row| row.iter().position(|c| c.is_violation()).map(|s| (t, s)))
    });
    let Some((t, s)) = target else {
        return Vec::new();
    };
    let relaxed = analytical_run(&w.with_slack(t, s, w.schedule().interval()), id, seed);
    let mut out = Vec::new();
    for (tc, (r1, r2)) in base.cycles.iter().zip(&relaxed.cycles).enumerate() {
        let (Some(row1), Some(row2)) = (r1, r2) else {
            // Non-detection schemes never bubble; a structural mismatch
            // is itself a locality violation.
            out.push(format!(
                "{ctx}: slack at ({t}, {s}) changed bubble structure at cycle {tc}"
            ));
            continue;
        };
        for (sc, (&c1, &c2)) in row1.iter().zip(row2).enumerate() {
            let on_diagonal = tc >= t && sc >= s && tc - t == sc - s;
            if !on_diagonal {
                if c1 != c2 {
                    out.push(format!(
                        "{ctx}: slack at ({t}, {s}) leaked off the relay diagonal to \
                         cycle {tc} stage {sc}: {c1} -> {c2}"
                    ));
                }
                continue;
            }
            if (tc, sc) != (t, s) {
                continue;
            }
            // The targeted cell itself must never get worse. The
            // borrow/depth comparison only applies when the base class
            // was already masked: a corrupted target rescued into a
            // mask legitimately goes from zero borrow to a real one.
            if severity(c2) > severity(c1) {
                out.push(format!(
                    "{ctx}: slack at ({t}, {s}) worsened the target: {c1} -> {c2}"
                ));
            } else if matches!(c1, Class::Masked { .. })
                && (c2.depth() > c1.depth() || c2.borrowed() > c1.borrowed())
            {
                out.push(format!(
                    "{ctx}: slack at ({t}, {s}) raised the target's borrow: {c1} -> {c2}"
                ));
            }
        }
    }
    out
}

fn run_case(spec: &CampaignSpec, flat: usize) -> CaseOutcome {
    let case = Case::of(spec, flat);
    let (k_tb, k_ed) = GRID[case.grid_idx];
    let schedule = CheckingPeriod::new(PERIOD, CHECKING_PCT, k_tb, k_ed)
        .expect("campaign grid schedules are valid");
    let id = case.scheme();
    let w = Workload::generate(schedule, spec.stages, spec.cycles, case.shape(), case.seed);
    let ctx = context(&case, (k_tb, k_ed));
    let base = analytical_run(&w, id, case.seed);
    let divergence = check(&w, id, case.seed, spec.sabotage);
    let contract_violations = check_contract(&base, &schedule, id, &ctx);
    let mut metamorphic_violations = check_scaling(&w, &base, id, case.seed, &ctx);
    metamorphic_violations.extend(check_slack(&w, &base, id, case.seed, &ctx));
    CaseOutcome {
        grid_idx: case.grid_idx,
        scheme_idx: case.scheme_idx,
        shape_idx: case.shape_idx,
        violations: base.violations(),
        divergence,
        contract_violations,
        metamorphic_violations,
    }
}

/// Runs the campaign and reduces the per-case outcomes — in canonical
/// flat order, regardless of thread count — into a report.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    let cases = spec.cases();
    let indices: Vec<usize> = (0..cases).collect();
    let outcomes =
        timber_resilience::scatter_strict(&indices, spec.threads, &|&flat| run_case(spec, flat));

    let mut report = CampaignReport::new(spec.base_seed, spec.sabotage);
    for outcome in outcomes {
        report.cases_run += 1;
        report.violations_seen += outcome.violations;
        if outcome.violations > 0 {
            report.mark_covered(outcome.grid_idx, outcome.scheme_idx, outcome.shape_idx);
        }
        if let Some(d) = outcome.divergence {
            report.divergences.push(d);
        }
        report
            .contract_violations
            .extend(outcome.contract_violations);
        report
            .metamorphic_violations
            .extend(outcome.metamorphic_violations);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_contains_both_paper_case_study_points() {
        assert!(GRID.contains(&(0, 2)), "immediate flagging");
        assert!(GRID.contains(&(1, 2)), "deferred flagging (Fig. 2)");
        for (k_tb, k_ed) in GRID {
            let s = CheckingPeriod::new(PERIOD, CHECKING_PCT, k_tb, k_ed).unwrap();
            assert_eq!(
                s.usable_checking(),
                s.checking(),
                "({k_tb},{k_ed}): intervals must divide exactly"
            );
        }
    }

    #[test]
    fn case_coordinates_cover_the_whole_sweep() {
        let spec = CampaignSpec::pinned(7);
        let mut seen = std::collections::HashSet::new();
        for flat in 0..spec.cases() {
            let c = Case::of(&spec, flat);
            assert!(c.grid_idx < GRID.len());
            assert!(seen.insert((c.grid_idx, c.scheme_idx, c.shape_idx, c.seed)));
        }
        assert_eq!(seen.len(), 8 * 8 * 5 * 2);
    }

    #[test]
    fn pinned_campaign_passes_and_covers_every_cell() {
        let report = run_campaign(&CampaignSpec::pinned(7));
        assert_eq!(report.cases_run, 640);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert!(
            report.contract_violations.is_empty(),
            "{:?}",
            report.contract_violations
        );
        assert!(
            report.metamorphic_violations.is_empty(),
            "{:?}",
            report.metamorphic_violations
        );
        assert!(report.coverage_complete(), "{:?}", report.missing_cells());
        assert!(report.pass());
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let a = run_campaign(&CampaignSpec::pinned(3));
        let b = run_campaign(&CampaignSpec::pinned(3).threads(4));
        assert_eq!(a.json(), b.json());
    }

    #[test]
    fn sabotaged_campaign_fails_with_divergences() {
        let report = run_campaign(&CampaignSpec::pinned(7).sabotage(true).threads(4));
        assert!(!report.divergences.is_empty());
        assert!(!report.pass());
    }
}
