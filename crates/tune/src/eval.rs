//! Candidate evaluation: lint feasibility → static certificate →
//! power costing → Monte-Carlo storm coverage, producing the three
//! minimised objectives.
//!
//! Each evaluation is a *pure function* of `(DesignContext,
//! CandidateSpec, user seed)`: the storm RNG seeds derive from the
//! candidate's content (never its enumeration index), every
//! aggregation is sequential, and no wall-clock data enters the
//! result. This is what lets the search dispatch candidates through
//! `scatter_strict` and still emit byte-identical frontiers for any
//! `--threads`.
//!
//! ## Operating point
//!
//! The paper's value proposition is margin recovered *at speed*: a
//! schedule recovering `m`% of margin is clocked at the lint gate's
//! guard-banded period minus that margin —
//! `snap_period(critical × (1.05 − m/100) + 30 ps)` — so aggressive
//! schedules really do run a faster clock and really do see timing
//! violations the storms can grade.
//!
//! ## Objectives (all minimised)
//!
//! * `energy_per_instr` — simulated energy per instruction scaled by
//!   the candidate's static power overhead (`timber-power`);
//! * `miss_rate` — silent corruptions plus the analytic violation
//!   mass on *unprotected* top-c% endpoints, over all violations;
//! * `ns_per_instr` — simulated wall-time per instruction.

use timber::CheckingPeriod;
use timber_analyze::{certify, AnalysisPoint, Interval};
use timber_batch::{run_batched, BatchConfig, BatchScheme, BatchWorkload};
use timber_lint::{snap_period, DesignLint, LintConfig, ReplacementPlan};
use timber_netlist::{FaninCones, FlopId, Netlist, Picos};
use timber_pipeline::{PipelineConfig, RunStats};
use timber_power::{PowerParams, ProcessorOverheads, ReplacementStats};
use timber_proc::{endpoint_weight, weighted_cut};
use timber_schemes::SchemeId;
use timber_sta::{
    classify_flops, ClockConstraint, FlopTimingClass, PathDistribution, TimingAnalysis,
};
use timber_variability::{splitmix64, StageDelayModel, StagePathProfile};

use crate::space::{CandidateSpec, DesignId, Seeding};

/// Storm intensities: multipliers on the design's critical delay. The
/// last one pushes past the certified hull, so coverage measures
/// resilience *beyond* what the certificate proves.
pub const STORM_INTENSITIES: [f64; 3] = [1.00, 1.04, 1.08];

/// Monte-Carlo lanes per storm.
pub const STORM_LANES: usize = 16;

/// Cycles per storm lane.
pub const STORM_CYCLES: u64 = 400;

/// A design compiled once and shared (read-only) by every candidate
/// evaluation touching it.
#[derive(Debug)]
pub struct DesignContext {
    /// Which design this is.
    pub design: DesignId,
    /// The netlist.
    pub netlist: Netlist,
    /// Worst combinational arrival under an unconstrained clock.
    pub raw_critical: Picos,
}

impl DesignContext {
    /// Builds the netlist and measures its critical path.
    pub fn compile(design: DesignId) -> DesignContext {
        let netlist = design.build();
        let sta = TimingAnalysis::run(&netlist, &ClockConstraint::with_period(Picos(1_000_000)));
        let raw_critical = sta.worst_arrival();
        DesignContext {
            design,
            netlist,
            raw_critical,
        }
    }
}

/// The three minimised objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Energy per instruction, static-overhead-scaled.
    pub energy_per_instr: f64,
    /// Fraction of violations that escape protection.
    pub miss_rate: f64,
    /// Nanoseconds per instruction.
    pub ns_per_instr: f64,
}

impl Objectives {
    /// The objective vector, in the canonical order.
    pub fn vector(&self) -> [f64; 3] {
        [self.energy_per_instr, self.miss_rate, self.ns_per_instr]
    }
}

/// Everything a scored candidate carries besides its objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreDetail {
    /// Flops replaced by TIMBER elements.
    pub replaced: usize,
    /// Total flops in the design.
    pub total_flops: usize,
    /// Static power overhead of the protection, % of design power.
    pub power_overhead_pct: f64,
    /// Monte-Carlo lane-cycles spent.
    pub lane_cycles: u64,
    /// Violations observed across all storms.
    pub violations: u64,
    /// Silent corruptions observed across all storms.
    pub corrupted: u64,
}

/// How one candidate evaluation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Survived every filter; carries objectives.
    Scored(Objectives, ScoreDetail),
    /// Rejected by the linter; carries the stable error codes.
    LintRejected(Vec<String>),
    /// The certificate could not prove the operating point safe.
    CertRejected,
}

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The candidate.
    pub spec: CandidateSpec,
    /// What happened.
    pub outcome: Outcome,
}

/// The candidate's operating point: the lint gate's guard-banded
/// period minus the schedule's recovered margin, snapped so the
/// checking period quantises exactly onto `k` intervals.
pub fn operating_point(spec: &CandidateSpec, raw_critical: Picos) -> CheckingPeriod {
    let sched = spec.schedule_spec();
    let recovered_pct = spec.c_pct() / f64::from(sched.k());
    let factor = 1.05 - recovered_pct / 100.0;
    let period = snap_period(raw_critical.scale(factor) + Picos(30), &sched);
    CheckingPeriod::new(period, spec.c_pct(), spec.k_tb, spec.k_ed)
        .expect("snapped period is always buildable")
}

/// The workload-aware replacement set: top-c% endpoints cut at
/// `target` of the violation mass (READ-style ranking: criticality
/// excess × fanin-cone activity proxy), then closed under the
/// linter's relay-coverage rule (`TBR020`) so every kept flop's
/// borrowing feeders are kept too.
pub fn workload_set(
    netlist: &Netlist,
    sta: &TimingAnalysis<'_>,
    c_pct: f64,
    target: f64,
) -> Vec<FlopId> {
    workload_set_in(
        netlist,
        sta,
        &FaninCones::new(netlist, sta.topo()),
        c_pct,
        target,
    )
}

/// [`workload_set`] over fanin cones the caller already holds.
fn workload_set_in(
    netlist: &Netlist,
    sta: &TimingAnalysis<'_>,
    cones: &FaninCones,
    c_pct: f64,
    target: f64,
) -> Vec<FlopId> {
    let period = sta.constraint().period;
    let threshold = period.scale(1.0 - c_pct / 100.0);
    let classes: Vec<FlopTimingClass> = classify_flops(sta, threshold);
    let full = PathDistribution::replacement_set(sta, netlist, c_pct);
    if full.is_empty() {
        return full;
    }
    let max_cone = full.iter().map(|&f| cones.len(f)).max().unwrap_or(1);
    let weights: Vec<(usize, f64)> = full
        .iter()
        .map(|&f| {
            let arrival = sta.arrival(netlist.flop(f).d());
            let excess = (arrival.0 - threshold.0) as f64 / period.0 as f64;
            (
                f.0 as usize,
                endpoint_weight(excess, cones.len(f), max_cone),
            )
        })
        .collect();
    let mut kept: Vec<FlopId> = weighted_cut(&weights, target)
        .into_iter()
        .map(|id| FlopId(id as u32))
        .collect();
    // Relay closure to the linter's exact TBR020 rule: any
    // starts-and-ends flop in a kept flop's fanin cone must be kept.
    loop {
        let mut added = Vec::new();
        for &f in &kept {
            for g in cones.cone(f) {
                if classes[g.0 as usize].starts_and_ends()
                    && !kept.contains(&g)
                    && !added.contains(&g)
                {
                    added.push(g);
                }
            }
        }
        if added.is_empty() {
            break;
        }
        kept.extend(added);
    }
    kept.sort_unstable();
    kept
}

/// The candidate's replacement set, from its seeding strategy, and the
/// lint configuration declaring it. `sta` runs under the candidate's
/// operating point and `cones` comes from its topological order.
fn replacement_plan(
    spec: &CandidateSpec,
    sta: &TimingAnalysis<'_>,
    cones: &FaninCones,
) -> (Vec<FlopId>, LintConfig) {
    let netlist = sta.netlist();
    let (replaced, plan) = match spec.seeding {
        Seeding::TopC => (
            PathDistribution::replacement_set(sta, netlist, spec.c_pct()),
            ReplacementPlan::TopC,
        ),
        Seeding::Workload { target_pct } => {
            let set = workload_set_in(
                netlist,
                sta,
                cones,
                spec.c_pct(),
                f64::from(target_pct) / 100.0,
            );
            (set.clone(), ReplacementPlan::Explicit(set))
        }
    };
    let config =
        LintConfig::new(spec.id(), spec.schedule_spec(), *sta.constraint()).with_replacement(plan);
    (replaced, config)
}

/// Runs the storm battery for any batch scheme and merges the per-lane
/// statistics sequentially (lane order, then intensity order), so the
/// aggregate is bit-identical for any worker layout.
pub fn storm_score(
    period: Picos,
    stages: usize,
    scheme: &BatchScheme,
    base_critical: Picos,
    seed: u64,
    cycles: u64,
    lanes: usize,
) -> RunStats {
    let mut total = RunStats::default();
    for (i, intensity) in STORM_INTENSITIES.iter().enumerate() {
        let profile = StagePathProfile::from_critical(base_critical.scale(*intensity));
        let profiles = vec![StageDelayModel::new(&profile); stages];
        let workload = BatchWorkload::new(profiles, splitmix64(seed ^ (i as u64 + 1), 0));
        let config = BatchConfig {
            pipeline: PipelineConfig::new(stages, period),
            scheme: *scheme,
            workload,
            lanes,
        };
        total.merge(&run_batched(&config, cycles).totals());
    }
    total
}

/// The analyses of one design that no candidate's schedule changes: a
/// max-delay STA (retimed to each candidate's clock), every flop's
/// fanin cone, and lint's design-invariant half (structure findings
/// and the hold analysis). A search builds one per design and shares
/// it read-only across its workers.
pub(crate) struct DesignAnalyses<'ctx> {
    ctx: &'ctx DesignContext,
    sta: TimingAnalysis<'ctx>,
    cones: FaninCones,
    lint: DesignLint<'ctx>,
}

impl<'ctx> DesignAnalyses<'ctx> {
    /// Runs the analyses on `ctx`'s netlist. Every operating point
    /// clocks `ClockConstraint::with_period`, so any period serves.
    pub(crate) fn new(ctx: &'ctx DesignContext) -> DesignAnalyses<'ctx> {
        let constraint = ClockConstraint::with_period(ctx.raw_critical);
        let sta = TimingAnalysis::run(&ctx.netlist, &constraint);
        let cones = FaninCones::new(&ctx.netlist, sta.topo());
        DesignAnalyses {
            ctx,
            lint: DesignLint::new(&ctx.netlist, &constraint),
            sta,
            cones,
        }
    }
}

/// A candidate that passed lint and the certificate: everything its
/// objectives need except its storm totals.
#[derive(Debug)]
pub(crate) struct Feasible {
    pub(crate) spec: CandidateSpec,
    replaced: usize,
    total_flops: usize,
    power_pct: f64,
    /// Violation mass of the replaced top-c% endpoints.
    kept_mass: f64,
    /// Violation mass of the top-c% endpoints the seeding dropped.
    dropped_mass: f64,
}

/// Operating point → lint → certificate → power: `Err` carries the
/// rejected evaluation, `Ok` the candidate ready for its storms.
pub(crate) fn screen(
    design: &DesignAnalyses<'_>,
    spec: &CandidateSpec,
) -> Result<Feasible, Evaluation> {
    let ctx = design.ctx;
    let schedule = operating_point(spec, ctx.raw_critical);
    // The design's STA at the candidate's clock and its cones, read by
    // seeding, lint and power alike.
    let sta = design
        .sta
        .retimed(&ClockConstraint::with_period(schedule.period()));
    let cones = &design.cones;
    let (replaced, config) = replacement_plan(spec, &sta, cones);

    // Feasibility: the linter must find no errors.
    let report = design.lint.lint(&config, Some((&sta, cones)));
    let codes = report.error_codes();
    if !codes.is_empty() {
        return Err(Evaluation {
            spec: *spec,
            outcome: Outcome::LintRejected(codes.iter().map(|c| (*c).to_owned()).collect()),
        });
    }

    // Safety: the abstract-interpretation certificate must prove the
    // operating point silent-corruption-free within its hull.
    let stages = schedule.k() as usize;
    let hull = Interval::new(Picos::ZERO, ctx.raw_critical);
    let point = AnalysisPoint::new(spec.id(), SchemeId::TimberFf, schedule, vec![hull; stages]);
    let cert = certify(&point);
    if !cert.is_safe() {
        return Err(Evaluation {
            spec: *spec,
            outcome: Outcome::CertRejected,
        });
    }

    // Static cost: the netlist-derived replacement statistics through
    // the processor overhead model.
    let threshold = schedule.period().scale(1.0 - spec.c_pct() / 100.0);
    let classes = classify_flops(&sta, threshold);
    let relay_sources: Vec<usize> = replaced
        .iter()
        .map(|&f| {
            cones
                .cone(f)
                .filter(|g| replaced.contains(g) && classes[g.0 as usize].starts_and_ends())
                .count()
        })
        .collect();
    let stats = ReplacementStats {
        replaced: replaced.len(),
        total_flops: ctx.netlist.flop_count(),
        start_and_end: replaced
            .iter()
            .filter(|f| classes[f.0 as usize].starts_and_ends())
            .count(),
        relay_sources,
    };
    let overheads = ProcessorOverheads::from_stats(
        &stats,
        schedule.period(),
        spec.c_pct(),
        schedule.k(),
        &PowerParams::default(),
    );

    // Analytic violation mass on unprotected top-c% endpoints: the
    // storms model the protected critical core, so dropped endpoints
    // contribute misses proportional to their share of the mass.
    let full = PathDistribution::replacement_set(&sta, &ctx.netlist, spec.c_pct());
    let mass = |set: &[FlopId]| -> f64 {
        set.iter()
            .map(|&f| {
                let arrival = sta.arrival(ctx.netlist.flop(f).d());
                ((arrival.0 - threshold.0).max(0)) as f64 / schedule.period().0 as f64
            })
            .sum()
    };
    let dropped: Vec<FlopId> = full
        .iter()
        .copied()
        .filter(|f| !replaced.contains(f))
        .collect();
    Ok(Feasible {
        spec: *spec,
        replaced: replaced.len(),
        total_flops: ctx.netlist.flop_count(),
        power_pct: overheads.ff_power_overhead_pct(),
        kept_mass: mass(&replaced),
        dropped_mass: mass(&dropped),
    })
}

/// Dynamic coverage: the storm battery on the TIMBER-FF scheme at
/// `spec`'s operating point. It reads no seeding, so every candidate
/// with the same [`CandidateSpec::storm_key`] gets the same totals.
pub(crate) fn storm_battery(ctx: &DesignContext, spec: &CandidateSpec, user_seed: u64) -> RunStats {
    let schedule = operating_point(spec, ctx.raw_critical);
    storm_score(
        schedule.period(),
        schedule.k() as usize,
        &BatchScheme::TimberFf(schedule),
        ctx.raw_critical,
        spec.content_seed(user_seed),
        STORM_CYCLES,
        STORM_LANES,
    )
}

impl Feasible {
    /// Scores the candidate from its storm battery's totals.
    pub(crate) fn score(&self, totals: &RunStats) -> Evaluation {
        let violations = totals.masked + totals.detected + totals.predicted + totals.corrupted;
        let unprotected = if self.kept_mass > 0.0 {
            violations as f64 * (self.dropped_mass / self.kept_mass)
        } else {
            0.0
        };
        let instr = totals.instructions.max(1) as f64;
        let denom = violations as f64 + unprotected;
        let objectives = Objectives {
            energy_per_instr: totals.energy / instr * (1.0 + self.power_pct / 100.0),
            miss_rate: if denom > 0.0 {
                (totals.corrupted as f64 + unprotected) / denom
            } else {
                0.0
            },
            ns_per_instr: totals.wall_time.0 as f64 / 1000.0 / instr,
        };
        Evaluation {
            spec: self.spec,
            outcome: Outcome::Scored(
                objectives,
                ScoreDetail {
                    replaced: self.replaced,
                    total_flops: self.total_flops,
                    power_overhead_pct: self.power_pct,
                    lane_cycles: totals.cycles,
                    violations,
                    corrupted: totals.corrupted,
                },
            ),
        }
    }
}

/// Evaluates one candidate: operating point → lint → certificate →
/// power → storms → objectives. Runs the design's analyses for this
/// one call; a search shares them across its candidates.
pub fn evaluate(ctx: &DesignContext, spec: &CandidateSpec, user_seed: u64) -> Evaluation {
    match screen(&DesignAnalyses::new(ctx), spec) {
        Ok(feasible) => feasible.score(&storm_battery(ctx, spec, user_seed)),
        Err(rejected) => rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::enumerate;

    fn anchor(i: usize) -> CandidateSpec {
        CandidateSpec::anchors(DesignId::Rca16)[i]
    }

    #[test]
    fn evaluation_is_deterministic() {
        let ctx = DesignContext::compile(DesignId::Rca16);
        let a = evaluate(&ctx, &anchor(0), 42);
        let b = evaluate(&ctx, &anchor(0), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn anchors_score_clean() {
        let ctx = DesignContext::compile(DesignId::Rca16);
        for i in [0, 1] {
            let e = evaluate(&ctx, &anchor(i), 42);
            match e.outcome {
                Outcome::Scored(o, ref d) => {
                    assert!(o.energy_per_instr > 0.0);
                    assert!(o.ns_per_instr > 0.0);
                    assert!((0.0..=1.0).contains(&o.miss_rate), "{}", o.miss_rate);
                    assert!(d.replaced > 0);
                    assert!(d.violations > 0, "overclocked point must see violations");
                }
                ref other => panic!("anchor {i} not scored: {other:?}"),
            }
        }
    }

    #[test]
    fn one_pass_cones_match_fanin_cone_on_both_designs() {
        for design in DesignId::ALL {
            let ctx = DesignContext::compile(design);
            let nl = &ctx.netlist;
            let cones = FaninCones::new(nl, &timber_netlist::topo_order(nl).unwrap());
            for f in nl.flop_ids() {
                let want = timber_netlist::fanin_cone(nl, f);
                assert_eq!(cones.cone(f).collect::<Vec<_>>(), want, "{design:?} {f}");
            }
        }
    }

    #[test]
    fn shared_analysis_lint_equals_standalone_lint_on_the_whole_space() {
        let contexts: Vec<DesignContext> = DesignId::ALL
            .iter()
            .map(|&d| DesignContext::compile(d))
            .collect();
        // One set of analyses per design, as a search builds them.
        let analyses: Vec<DesignAnalyses<'_>> = contexts.iter().map(DesignAnalyses::new).collect();
        let space = enumerate();
        for ctx in &contexts {
            assert!(space.iter().any(|spec| spec.design == ctx.design));
        }
        for spec in &space {
            let design = analyses
                .iter()
                .find(|a| a.ctx.design == spec.design)
                .unwrap();
            let ctx = design.ctx;
            let schedule = operating_point(spec, ctx.raw_critical);
            let constraint = ClockConstraint::with_period(schedule.period());
            let sta = design.sta.retimed(&constraint);
            let fresh = TimingAnalysis::run(&ctx.netlist, &constraint);
            let fresh_cones = FaninCones::new(&ctx.netlist, fresh.topo());
            let (replaced, config) = replacement_plan(spec, &sta, &design.cones);
            assert_eq!(
                replaced,
                replacement_plan(spec, &fresh, &fresh_cones).0,
                "{}",
                spec.id()
            );
            assert_eq!(
                design
                    .lint
                    .lint(&config, Some((&sta, &design.cones)))
                    .to_json(),
                timber_lint::lint(&ctx.netlist, &config).to_json(),
                "{}",
                spec.id()
            );
        }
    }

    #[test]
    fn deferred_anchor_clocks_slower_than_immediate() {
        // Immediate recovers c/2, deferred only c/3: the immediate
        // anchor must run the faster clock.
        let ctx = DesignContext::compile(DesignId::Rca16);
        let imm = operating_point(&anchor(0), ctx.raw_critical);
        let def = operating_point(&anchor(1), ctx.raw_critical);
        assert!(imm.period() < def.period());
    }

    #[test]
    fn workload_set_is_relay_closed_subset() {
        let ctx = DesignContext::compile(DesignId::Mul8);
        let spec = CandidateSpec {
            seeding: Seeding::Workload { target_pct: 60 },
            ..CandidateSpec::anchors(DesignId::Mul8)[1]
        };
        let schedule = operating_point(&spec, ctx.raw_critical);
        let constraint = ClockConstraint::with_period(schedule.period());
        let sta = TimingAnalysis::run(&ctx.netlist, &constraint);
        let full = PathDistribution::replacement_set(&sta, &ctx.netlist, spec.c_pct());
        let kept = workload_set(&ctx.netlist, &sta, spec.c_pct(), 0.6);
        assert!(!kept.is_empty());
        assert!(
            kept.iter().all(|f| full.contains(f)),
            "escaped the top-c% set"
        );
        // And it lints clean as an explicit plan.
        let e = evaluate(&ctx, &spec, 42);
        assert!(
            !matches!(e.outcome, Outcome::LintRejected(_)),
            "{:?}",
            e.outcome
        );
    }
}
