//! The closed-loop search: enumerate → screen → one storm battery per
//! operating point → score (each a hardened scatter) → frontier →
//! anchor check → self-validation.
//!
//! Candidates are dispatched through `timber-resilience`'s
//! `scatter_strict`, which returns results in submission order
//! regardless of worker count; every aggregation after that is
//! sequential. The report is therefore byte-identical for any
//! `--threads`, which the golden-frontier gate enforces.

use std::collections::BTreeMap;

use timber_pipeline::RunStats;
use timber_resilience::scatter_strict;
use timber_telemetry::{TuneCounter, TuneStats};

use crate::eval::{
    screen, storm_battery, DesignAnalyses, DesignContext, Evaluation, Objectives, Outcome,
    ScoreDetail,
};
use crate::pareto;
use crate::space::{enumerate, CandidateSpec, DesignId};

/// What a `repro tune` run was asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneSpec {
    /// Base RNG seed for the storm workloads.
    pub seed: u64,
    /// How many candidates of the enumeration prefix to evaluate.
    pub budget: usize,
    /// Worker threads (`0` = all cores). Never affects the output.
    pub threads: usize,
    /// ε-tolerance of the anchor band check.
    pub tolerance: f64,
    /// Leak a seeded defect into the frontier (self-test).
    pub sabotage: bool,
}

impl Default for TuneSpec {
    fn default() -> TuneSpec {
        TuneSpec {
            seed: 42,
            budget: usize::MAX,
            threads: 0,
            tolerance: 0.25,
            sabotage: false,
        }
    }
}

/// A candidate that survived every filter, with its objective vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPoint {
    /// The candidate.
    pub spec: CandidateSpec,
    /// Its objectives.
    pub objectives: Objectives,
    /// Cost/coverage detail behind the objectives.
    pub detail: ScoreDetail,
}

/// One design's search result.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignReport {
    /// The design.
    pub design: DesignId,
    /// Candidates evaluated for this design.
    pub evaluated: usize,
    /// Candidates the linter rejected.
    pub lint_rejected: usize,
    /// Candidates the certifier rejected.
    pub cert_rejected: usize,
    /// Scored candidates, in evaluation order.
    pub scored: Vec<ScoredPoint>,
    /// Frontier membership: positions into `scored`.
    pub frontier: Vec<usize>,
}

impl DesignReport {
    /// The objective vectors of all scored points, in order.
    pub fn vectors(&self) -> Vec<[f64; 3]> {
        self.scored.iter().map(|p| p.objectives.vector()).collect()
    }

    /// The objective vectors of the frontier members.
    pub fn frontier_vectors(&self) -> Vec<[f64; 3]> {
        self.frontier
            .iter()
            .map(|&i| self.scored[i].objectives.vector())
            .collect()
    }
}

/// One paper case-study schedule checked against its design frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorCheck {
    /// The design the anchor belongs to.
    pub design: DesignId,
    /// The anchor candidate.
    pub spec: CandidateSpec,
    /// Stable label, e.g. `immediate-30`.
    pub label: String,
    /// The anchor was evaluated and scored.
    pub scored: bool,
    /// The anchor lies on or within the ε-band of the frontier.
    pub within_band: bool,
}

/// Everything one tune run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The request (threads excluded from serialisation — it never
    /// affects results).
    pub spec: TuneSpec,
    /// Per-design results, in [`DesignId::ALL`] order.
    pub designs: Vec<DesignReport>,
    /// Paper case-study anchor checks, in design order.
    pub anchors: Vec<AnchorCheck>,
    /// Search telemetry.
    pub stats: TuneStats,
}

impl TuneReport {
    /// Self-validation: frontier minimality/uniqueness per design plus
    /// the anchor band gate. Empty = the run passes. A `--sabotage`
    /// leak must surface here.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for d in &self.designs {
            for v in pareto::violations(&d.vectors(), &d.frontier) {
                out.push(format!("{}: {v}", d.design.name()));
            }
            let mut prev: Option<usize> = None;
            for &i in &d.frontier {
                if prev.is_some_and(|p| p >= i) {
                    out.push(format!(
                        "{}: frontier not in evaluation order",
                        d.design.name()
                    ));
                    break;
                }
                prev = Some(i);
            }
        }
        for a in &self.anchors {
            if !a.scored {
                out.push(format!(
                    "{}: anchor {} was not scored",
                    a.design.name(),
                    a.label
                ));
            } else if !a.within_band {
                out.push(format!(
                    "{}: anchor {} fell outside the {:.0}% frontier band",
                    a.design.name(),
                    a.label,
                    self.spec.tolerance * 100.0
                ));
            }
        }
        out
    }

    /// True when the run gates clean.
    pub fn pass(&self) -> bool {
        self.violations().is_empty()
    }
}

/// Evaluates `candidates` exactly as [`evaluate`](crate::evaluate)
/// would, with one set of analyses per design and one storm battery per
/// operating point instead of one of each per candidate; also returns
/// the lane-cycles the batteries ran.
///
/// Each design's analyses (STA, fanin cones, lint's structure pass and
/// hold analysis) are built once on the calling thread. Then every
/// candidate is screened through its design's, one battery runs for
/// each operating point the survivors reach, in first-appearance order,
/// and each survivor is scored from its point's battery. The screen
/// and the batteries are each a `scatter_strict` returning in
/// submission order, so no worker waits on another's battery and the
/// result is the same at any thread count.
fn evaluate_all(
    contexts: &BTreeMap<DesignId, DesignContext>,
    candidates: &[CandidateSpec],
    seed: u64,
    threads: usize,
) -> (Vec<Evaluation>, u64) {
    let analyses: BTreeMap<DesignId, DesignAnalyses<'_>> = contexts
        .iter()
        .map(|(&d, ctx)| (d, DesignAnalyses::new(ctx)))
        .collect();
    let screened = scatter_strict(candidates, threads, &|c: &CandidateSpec| {
        screen(&analyses[&c.design], c)
    });
    let mut points: Vec<CandidateSpec> = Vec::new();
    for feasible in screened.iter().flatten() {
        let key = feasible.spec.storm_key();
        if !points.contains(&key) {
            points.push(key);
        }
    }
    let batteries: Vec<RunStats> = scatter_strict(&points, threads, &|p: &CandidateSpec| {
        storm_battery(&contexts[&p.design], p, seed)
    });
    let evals = screened
        .into_iter()
        .map(|screened| match screened {
            Ok(feasible) => {
                let key = feasible.spec.storm_key();
                let at = points.iter().position(|p| *p == key).expect("battery ran");
                feasible.score(&batteries[at])
            }
            Err(rejected) => rejected,
        })
        .collect();
    (evals, batteries.iter().map(|b| b.cycles).sum())
}

/// Runs the search.
pub fn tune(spec: &TuneSpec) -> TuneReport {
    let mut stats = TuneStats::new();
    let all = enumerate();
    stats.add(TuneCounter::Enumerated, all.len() as u64);
    let budgeted: Vec<CandidateSpec> = all.into_iter().take(spec.budget).collect();

    // Compile each touched design exactly once; evaluations share the
    // contexts read-only across the scatter workers.
    let contexts: BTreeMap<DesignId, DesignContext> = DesignId::ALL
        .iter()
        .filter(|d| budgeted.iter().any(|c| c.design == **d))
        .map(|&d| (d, DesignContext::compile(d)))
        .collect();

    let (evals, lane_cycles) = evaluate_all(&contexts, &budgeted, spec.seed, spec.threads);
    stats.add(TuneCounter::StormLaneCycles, lane_cycles);
    stats.add(TuneCounter::Evaluated, evals.len() as u64);

    // Sequential aggregation, per design in fixed order.
    let mut designs = Vec::new();
    for &design in DesignId::ALL.iter().filter(|d| contexts.contains_key(d)) {
        let mut report = DesignReport {
            design,
            evaluated: 0,
            lint_rejected: 0,
            cert_rejected: 0,
            scored: Vec::new(),
            frontier: Vec::new(),
        };
        for e in evals.iter().filter(|e| e.spec.design == design) {
            report.evaluated += 1;
            match &e.outcome {
                Outcome::Scored(objectives, detail) => {
                    stats.add(TuneCounter::Scored, 1);
                    report.scored.push(ScoredPoint {
                        spec: e.spec,
                        objectives: *objectives,
                        detail: detail.clone(),
                    });
                }
                Outcome::LintRejected(_) => {
                    stats.add(TuneCounter::LintRejected, 1);
                    report.lint_rejected += 1;
                }
                Outcome::CertRejected => {
                    stats.add(TuneCounter::CertRejected, 1);
                    report.cert_rejected += 1;
                }
            }
        }
        let vectors = report.vectors();
        report.frontier = pareto::frontier(&vectors);
        if spec.sabotage {
            pareto::leak(&vectors, &mut report.frontier);
        }
        stats.add(TuneCounter::FrontierPoints, report.frontier.len() as u64);
        stats.add(
            TuneCounter::DominatedPruned,
            (report.scored.len() - report.frontier.len().min(report.scored.len())) as u64,
        );
        designs.push(report);
    }

    // Anchor band checks: the paper's case-study schedules must stay
    // on or within tolerance of their design's frontier.
    let mut anchors = Vec::new();
    for d in &designs {
        let front = d.frontier_vectors();
        for (anchor, label) in CandidateSpec::anchors(d.design)
            .into_iter()
            .zip(["immediate-30", "deferred-30"])
        {
            if !budgeted.contains(&anchor) {
                continue;
            }
            stats.add(TuneCounter::AnchorChecks, 1);
            let point = d.scored.iter().find(|p| p.spec == anchor);
            anchors.push(AnchorCheck {
                design: d.design,
                spec: anchor,
                label: label.to_owned(),
                scored: point.is_some(),
                within_band: point.is_some_and(|p| {
                    pareto::within_band(&p.objectives.vector(), &front, spec.tolerance)
                }),
            });
        }
    }

    TuneReport {
        spec: *spec,
        designs,
        anchors,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, STORM_CYCLES, STORM_INTENSITIES, STORM_LANES};
    use crate::space::Seeding;

    fn small(budget: usize) -> TuneSpec {
        TuneSpec {
            budget,
            threads: 1,
            ..TuneSpec::default()
        }
    }

    #[test]
    fn small_run_passes_and_counts_add_up() {
        let report = tune(&small(8));
        assert!(report.pass(), "{:?}", report.violations());
        assert_eq!(report.stats.get(TuneCounter::Evaluated), 8);
        assert_eq!(report.stats.get(TuneCounter::AnchorChecks), 4);
        let filtered = report.stats.get(TuneCounter::Scored)
            + report.stats.get(TuneCounter::LintRejected)
            + report.stats.get(TuneCounter::CertRejected);
        assert_eq!(filtered, 8);
        assert_eq!(report.designs.len(), 2);
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        let one = tune(&small(10));
        let four = tune(&TuneSpec {
            threads: 4,
            ..small(10)
        });
        // Everything except the spec's thread field must be identical.
        assert_eq!(one.designs, four.designs);
        assert_eq!(one.anchors, four.anchors);
        assert_eq!(one.stats, four.stats);
    }

    #[test]
    fn seeding_variants_share_one_battery_per_search() {
        let report = tune(&small(40));
        let mut points = BTreeMap::new();
        for d in &report.designs {
            for p in &d.scored {
                // Seeding variants of one operating point see the same
                // storms: identical violation and corruption totals.
                let totals = (
                    p.detail.violations,
                    p.detail.corrupted,
                    p.detail.lane_cycles,
                );
                let first = *points.entry(p.spec.storm_key()).or_insert(totals);
                assert_eq!(first, totals, "{}", p.spec.id());
            }
        }
        assert!(
            points.len() < report.stats.get(TuneCounter::Scored) as usize,
            "some operating point is scored under several seedings"
        );
        // Each battery ran once: the counter holds one battery per point.
        let battery = STORM_INTENSITIES.len() as u64 * STORM_LANES as u64 * STORM_CYCLES;
        assert_eq!(
            report.stats.get(TuneCounter::StormLaneCycles),
            points.len() as u64 * battery
        );
    }

    #[test]
    fn shared_batteries_score_every_candidate_like_evaluate() {
        // Points that differ in one schedule field only, each under
        // every seeding, so a battery shared across a field it reads
        // shows up as a score that `evaluate` does not give.
        let contexts: BTreeMap<DesignId, DesignContext> = DesignId::ALL
            .iter()
            .map(|&d| (d, DesignContext::compile(d)))
            .collect();
        let mut candidates = Vec::new();
        for design in DesignId::ALL {
            for (c_pct_x10, k_tb, k_ed, relay_increment) in [
                (300, 1, 2, 1),
                (300, 1, 3, 1),
                (300, 2, 2, 1),
                (300, 2, 2, 2),
                (200, 1, 2, 1),
            ] {
                for seeding in [
                    Seeding::TopC,
                    Seeding::Workload { target_pct: 60 },
                    Seeding::Workload { target_pct: 85 },
                ] {
                    candidates.push(CandidateSpec {
                        design,
                        c_pct_x10,
                        k_tb,
                        k_ed,
                        relay_increment,
                        seeding,
                    });
                }
            }
        }
        let (evals, lane_cycles) = evaluate_all(&contexts, &candidates, 42, 3);
        for (spec, shared) in candidates.iter().zip(&evals) {
            let alone = evaluate(&contexts[&spec.design], spec, 42);
            assert!(
                matches!(alone.outcome, Outcome::Scored(..)),
                "{}",
                spec.id()
            );
            assert_eq!(*shared, alone, "{}", spec.id());
        }
        let battery = STORM_INTENSITIES.len() as u64 * STORM_LANES as u64 * STORM_CYCLES;
        assert_eq!(lane_cycles, candidates.len() as u64 / 3 * battery);
    }

    #[test]
    fn sabotage_leak_is_caught() {
        let report = tune(&TuneSpec {
            sabotage: true,
            ..small(10)
        });
        assert!(!report.pass(), "sabotage must fail self-validation");
    }

    #[test]
    fn budget_widening_is_metamorphic() {
        // The evaluated set of the smaller budget is a prefix of the
        // larger; a small-budget frontier point survives in the larger
        // frontier iff no larger-budget evaluation dominates it.
        let small_run = tune(&small(8));
        let large_run = tune(&small(16));
        for (ds, dl) in small_run.designs.iter().zip(&large_run.designs) {
            assert_eq!(ds.design, dl.design);
            let prefix: Vec<_> = dl.scored[..ds.scored.len()].to_vec();
            assert_eq!(ds.scored, prefix, "evaluated set must be a prefix");
            let large_vecs = dl.vectors();
            for &i in &ds.frontier {
                let p = ds.scored[i].objectives.vector();
                let beaten = large_vecs
                    .iter()
                    .enumerate()
                    .any(|(j, q)| (pareto::dominates(q, &p)) || (j != i && *q == p && j < i));
                let kept = dl.frontier.contains(&i);
                assert_eq!(
                    kept,
                    !beaten,
                    "{}: point {i} kept={kept} beaten={beaten}",
                    ds.design.name()
                );
            }
        }
    }
}
