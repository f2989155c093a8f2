//! Property-based guarantees for the autotuner: frontier minimality
//! over arbitrary objective sets, scheme-agnostic storm scoring for
//! all eight resilience schemes, and the emitted-candidate contract —
//! anything the search scores lints clean and carries a valid
//! certificate.

#![cfg(test)]

use proptest::prelude::*;
use timber::CheckingPeriod;
use timber_analyze::{certify, AnalysisPoint, Interval};
use timber_batch::BatchScheme;
use timber_lint::{lint, LintConfig, ReplacementPlan};
use timber_netlist::Picos;
use timber_schemes::SchemeId;
use timber_sta::{ClockConstraint, PathDistribution, TimingAnalysis};
use timber_variability::mix64;

use crate::eval::{evaluate, operating_point, storm_score, workload_set, DesignContext, Outcome};
use crate::pareto::{dominates, frontier};
use crate::space::{enumerate, DesignId, Seeding};

/// All eight batch schemes at one TIMBER schedule (the detector-style
/// windows and guards sized off the schedule's interval, as the
/// conformance campaign does).
fn all_schemes(schedule: CheckingPeriod) -> [BatchScheme; 8] {
    let w = schedule.interval();
    [
        BatchScheme::TimberFf(schedule),
        BatchScheme::TimberLatch(schedule),
        BatchScheme::Razor {
            window: w,
            meta_window: Picos::ZERO,
            meta_penalty: 0,
        },
        BatchScheme::TransitionDetector { window: w },
        BatchScheme::Canary { guard: w },
        BatchScheme::SoftEdge { window: w },
        BatchScheme::LogicalMasking {
            coverage: 0.9,
            margin: w,
        },
        BatchScheme::Conventional,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Frontier minimality over arbitrary objective sets: no frontier
    /// member is dominated by any input point, every dropped point is
    /// dominated by (or duplicates) a surviving one.
    #[test]
    fn frontier_is_minimal_and_complete(raw in proptest::collection::vec(any::<u64>(), 1..24)) {
        let points: Vec<[f64; 3]> = raw
            .iter()
            .map(|&z| {
                // Small integer grid so duplicates and dominance both occur.
                let a = (mix64(z) % 5) as f64;
                let b = (mix64(z ^ 1) % 5) as f64;
                let c = (mix64(z ^ 2) % 5) as f64;
                [a, b, c]
            })
            .collect();
        let front = frontier(&points);
        for &i in &front {
            for (j, q) in points.iter().enumerate() {
                prop_assert!(j == i || !dominates(q, &points[i]),
                    "frontier member {i} dominated by {j}");
            }
        }
        for (i, p) in points.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            let covered = points.iter().enumerate().any(|(j, q)|
                (j != i && dominates(q, p)) || (j < i && q == p));
            prop_assert!(covered, "dropped point {i} neither dominated nor duplicate");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scheme-generality of the scoring path: for random designs and
    /// every one of the eight schemes, the storm battery produces
    /// finite objective inputs, and the per-scheme objective vectors
    /// feed a frontier that is minimal.
    #[test]
    fn storms_score_all_eight_schemes(z in any::<u64>()) {
        let design = if mix64(z).is_multiple_of(2) { DesignId::Rca16 } else { DesignId::Mul8 };
        let ctx = DesignContext::compile(design);
        let spec = crate::space::CandidateSpec::anchors(design)[(mix64(z ^ 3) % 2) as usize];
        let schedule = operating_point(&spec, ctx.raw_critical);
        let stages = schedule.k() as usize;
        let mut vectors = Vec::new();
        for scheme in all_schemes(schedule) {
            let totals = storm_score(
                schedule.period(), stages, &scheme, ctx.raw_critical, mix64(z ^ 5), 64, 8);
            prop_assert!(totals.instructions > 0, "{scheme:?} ran no instructions");
            let instr = totals.instructions as f64;
            let v = [
                totals.energy / instr,
                totals.corrupted as f64 / totals.cycles.max(1) as f64,
                totals.wall_time.0 as f64 / 1000.0 / instr,
            ];
            prop_assert!(v.iter().all(|x| x.is_finite() && *x >= 0.0), "{scheme:?}: {v:?}");
            vectors.push(v);
        }
        let front = frontier(&vectors);
        prop_assert!(!front.is_empty());
        for &i in &front {
            for (j, q) in vectors.iter().enumerate() {
                prop_assert!(j == i || !dominates(q, &vectors[i]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The emitted-candidate contract: any candidate the evaluator
    /// scores (a) lints clean under its own replacement plan and (b)
    /// carries a certificate proving its operating point safe.
    #[test]
    fn scored_candidates_lint_clean_with_valid_certificates(z in any::<u64>()) {
        let all = enumerate();
        let spec = all[(mix64(z) % all.len() as u64) as usize];
        let ctx = DesignContext::compile(spec.design);
        let eval = evaluate(&ctx, &spec, mix64(z ^ 7));
        if let Outcome::Scored(..) = eval.outcome {
            let schedule = operating_point(&spec, ctx.raw_critical);
            let constraint = ClockConstraint::with_period(schedule.period());
            let sta = TimingAnalysis::run(&ctx.netlist, &constraint);
            let plan = match spec.seeding {
                Seeding::TopC => ReplacementPlan::TopC,
                Seeding::Workload { target_pct } => ReplacementPlan::Explicit(workload_set(
                    &ctx.netlist, &sta, spec.c_pct(), f64::from(target_pct) / 100.0)),
            };
            let report = lint(
                &ctx.netlist,
                &LintConfig::new(spec.id(), spec.schedule_spec(), constraint)
                    .with_replacement(plan),
            );
            prop_assert!(report.error_codes().is_empty(), "{}", report.render());
            let hull = Interval::new(Picos::ZERO, ctx.raw_critical);
            let point = AnalysisPoint::new(
                spec.id(), SchemeId::TimberFf, schedule,
                vec![hull; schedule.k() as usize]);
            prop_assert!(certify(&point).is_safe(), "certificate must prove the point");
        } else {
            // Rejected candidates never reach the frontier; nothing to
            // check, but the replacement set must still be a subset of
            // the design's endpoints when workload-seeded.
            if let Seeding::Workload { target_pct } = spec.seeding {
                let schedule = operating_point(&spec, ctx.raw_critical);
                let constraint = ClockConstraint::with_period(schedule.period());
                let sta = TimingAnalysis::run(&ctx.netlist, &constraint);
                let full = PathDistribution::replacement_set(&sta, &ctx.netlist, spec.c_pct());
                let kept = workload_set(
                    &ctx.netlist, &sta, spec.c_pct(), f64::from(target_pct) / 100.0);
                prop_assert!(kept.iter().all(|f| full.contains(f)));
            }
        }
    }
}
