//! The `tune` workload: repeated `tune()` searches with the spec
//! recorded in `FRONTIER_tune.json` (seed from `--seed`), on one
//! worker per core.
//!
//! Every search's document must be byte-equal to the golden when the
//! seed is the golden's, and equal to the run's first document
//! otherwise; every search must pass its own validation.
//!
//! The traced run re-drives the first quarter of the searches (at most
//! [`MAX_TRACED_SEARCHES`]) serially. For each candidate it times `evaluate()`, then calls
//! `evaluate`'s stages one by one with the same inputs — STA, seeding,
//! lint, certificate, power, storms, objectives — stopping where the
//! candidate's outcome stopped, and checks the staged outcome equals
//! `evaluate()`'s.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

use serde_json::json;
use timber_analyze::{certify, AnalysisPoint, Interval};
use timber_batch::BatchScheme;
use timber_lint::{lint, LintConfig, ReplacementPlan};
use timber_netlist::{fanin_cone, FlopId, Picos};
use timber_power::{PowerParams, ProcessorOverheads, ReplacementStats};
use timber_schemes::SchemeId;
use timber_sta::{classify_flops, ClockConstraint, PathDistribution, TimingAnalysis};
use timber_telemetry::TuneCounter;
use timber_tune::eval::{operating_point, storm_score, workload_set, STORM_CYCLES, STORM_LANES};
use timber_tune::{
    enumerate, evaluate, report_json, tune, CandidateSpec, DesignContext, DesignId, Evaluation,
    Objectives, Outcome as TuneOutcome, ScoreDetail, Seeding, TuneReport, TuneSpec,
};

use crate::stats::{end_to_end, fnv, Pace, Round, SetUps, FNV_START};
use crate::trace::{Tracer, ROOT, ROUND};
use crate::{Outcome, Sabotage, Settings};

/// The committed golden frontier; its recorded spec drives the search.
const GOLDEN: &str = include_str!("../../FRONTIER_tune.json");

/// The staged layers: span name, then the per-layer metrics giving its
/// mean time per call and its share of the staged time. Only these
/// spans count towards `trace.coverage`.
const LAYERS: [(&str, &str, &str); 8] = [
    ("tune.context", "tune.context_us", "tune.context_share"),
    ("sta", "sta.us", "sta.share"),
    ("tune.seeding", "tune.seeding_us", "tune.seeding_share"),
    ("lint", "lint.us", "lint.share"),
    (
        "analyze.certify",
        "analyze.certify_us",
        "analyze.certify_share",
    ),
    ("power", "power.us", "power.share"),
    ("batch.storm", "batch.storm_us", "batch.storm_share"),
    (
        "tune.objectives",
        "tune.objectives_us",
        "tune.objectives_share",
    ),
];

/// Upper bound on the searches the traced replica re-drives; it runs
/// them serially, at several times the untraced cost.
const MAX_TRACED_SEARCHES: usize = 32;

/// The search spec recorded in the golden, with `seed` in place of the
/// golden's own; also returns the golden's seed.
fn search_spec(seed: u64) -> io::Result<(TuneSpec, u64)> {
    let bad = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("golden frontier: {what}"),
        )
    };
    let doc = serde_json::from_str(GOLDEN.trim_end()).map_err(|e| bad(&e.to_string()))?;
    let field = |name: &str| doc.get(name).ok_or_else(|| bad(&format!("no {name:?}")));
    let golden_seed = field("seed")?.as_u64().ok_or_else(|| bad("seed"))?;
    let budget = field("budget")?.as_u64().ok_or_else(|| bad("budget"))?;
    let tolerance = field("tolerance")?
        .as_f64()
        .ok_or_else(|| bad("tolerance"))?;
    let spec = TuneSpec {
        seed,
        budget: budget as usize,
        threads: crate::threads(),
        tolerance,
        sabotage: false,
    };
    Ok((spec, golden_seed))
}

/// The frontier document exactly as `repro tune` writes it.
fn document(report: &TuneReport) -> String {
    let doc = serde_json::to_string_pretty(&report_json(report)).expect("report serialises");
    format!("{doc}\n")
}

/// Search construction: the budgeted enumeration and one compiled
/// context per design it touches — what `tune()` builds before its
/// first candidate.
fn construct(spec: &TuneSpec) -> (Vec<CandidateSpec>, BTreeMap<DesignId, DesignContext>) {
    let budgeted: Vec<CandidateSpec> = enumerate().into_iter().take(spec.budget).collect();
    let contexts = DesignId::ALL
        .iter()
        .filter(|d| budgeted.iter().any(|c| c.design == **d))
        .map(|&d| (d, DesignContext::compile(d)))
        .collect();
    (budgeted, contexts)
}

/// Runs the `tune` workload.
pub fn run(settings: Settings) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (spec, golden_seed) = search_spec(settings.seed)?;

    let set_up_rep = || {
        let started = Instant::now();
        std::hint::black_box(construct(&spec));
        started.elapsed().as_secs_f64()
    };
    let mut setups = SetUps::new(settings.seconds, set_up_rep());

    let mut golden = GOLDEN.to_owned();
    if settings.sabotage == Some(Sabotage::Golden) {
        let last = golden.trim_end().len() - 1;
        golden.replace_range(last..=last, "#");
    }
    let mut expected = (settings.seed == golden_seed).then_some(golden);

    let mut rounds = Vec::new();
    let mut warmup = 0;
    let mut first: Option<TuneReport> = None;
    let mut digest = FNV_START;
    let mut pace = Pace::new(settings.seconds, spec.threads);
    while let Some(measured) = pace.next() {
        let timer = Instant::now();
        let report = tune(&spec);
        let ns = timer.elapsed().as_nanos() as u64;
        let doc = document(&report);
        let evaluated = report.stats.get(TuneCounter::Evaluated);
        let expected_doc = expected.get_or_insert_with(|| doc.clone());
        let good = report.pass() && doc == *expected_doc;
        if !good {
            let r = rounds.len();
            if report.pass() {
                out.problem(format!(
                    "search {r}: document differs from the expected frontier"
                ));
            } else {
                out.problem(format!(
                    "search {r}: validation failed: {:?}",
                    report.violations()
                ));
            }
        }
        let ok = if good { evaluated } else { 0 };
        out.attempted += evaluated;
        out.failed += evaluated - ok;
        rounds.push(Round { ns, ok });
        if !measured {
            warmup += 1;
        }
        if first.is_none() {
            digest = fnv(digest, doc.as_bytes());
            first = Some(report);
        }
        if !settings.trace && setups.due(false) {
            setups.record(pace.rounds(), set_up_rep());
        }
    }
    while !settings.trace && setups.due(true) {
        setups.record(pace.rounds(), set_up_rep());
    }
    let first = first.expect("at least one search");
    let measured = &rounds[warmup..];
    out.info.push(("warmup_rounds".into(), json!(warmup)));
    out.info.push(("rounds".into(), json!(measured.len())));
    out.info
        .push(("candidates_per_round".into(), json!(spec.budget)));
    out.info
        .push(("latency_samples".into(), json!(measured.len())));
    out.info
        .push(("setups".into(), json!(setups.seconds.len())));
    out.info
        .push(("output_digest".into(), json!(format!("{digest:016x}"))));
    out.info.push((
        "counters".into(),
        serde_json::from_str(&first.stats.json()).expect("counter json is valid"),
    ));

    if settings.trace {
        let untraced: Vec<u64> = rounds.iter().map(|r| r.ns).collect();
        let layers = trace_replica(&spec, &first, &untraced, &mut out)?;
        out.metrics.extend(layers);
    } else {
        out.metrics
            .extend(end_to_end(&rounds, warmup, &setups, &pace, &mut out.info));
    }
    Ok(out)
}

/// Re-drives the first quarter of the searches (at most
/// [`MAX_TRACED_SEARCHES`]) serially through the staged replica and
/// derives the per-layer metrics.
fn trace_replica(
    spec: &TuneSpec,
    untraced_report: &TuneReport,
    untraced_ns: &[u64],
    out: &mut Outcome,
) -> io::Result<BTreeMap<&'static str, f64>> {
    let n = untraced_ns.len().div_ceil(4).min(MAX_TRACED_SEARCHES);
    let want_scored = untraced_report.stats.get(TuneCounter::Scored);
    let want_cert = untraced_report.stats.get(TuneCounter::CertRejected);
    let mut tr = Tracer::new();
    let mut lane_cycles = 0u64;
    let (mut scored, mut cert_rejected) = (0, 0);
    for call in 0..n as u64 {
        let root = tr.open(ROUND, ROOT, call);
        let mut mark = tr.now();
        let budgeted: Vec<CandidateSpec> = enumerate().into_iter().take(spec.budget).collect();
        tr.lap(&mut mark, "tune.enumerate", root, call);
        let mut contexts = BTreeMap::new();
        for d in DesignId::ALL {
            if budgeted.iter().any(|c| c.design == d) {
                contexts.insert(d, DesignContext::compile(d));
                tr.lap(&mut mark, "tune.context", root, call);
            }
        }
        (scored, cert_rejected) = (0, 0);
        for (i, candidate) in budgeted.iter().enumerate() {
            let ctx = &contexts[&candidate.design];
            let mut mark = tr.now();
            let reference = evaluate(ctx, candidate, spec.seed);
            tr.lap(&mut mark, "tune.evaluate", root, i as u64);
            let staged = staged_evaluate(
                ctx,
                candidate,
                spec.seed,
                &mut tr,
                root,
                i as u64,
                &mut lane_cycles,
            );
            if staged != reference {
                out.problem(format!(
                    "staged evaluation of {} differs from evaluate()",
                    candidate.id()
                ));
            }
            match staged.outcome {
                TuneOutcome::Scored(..) => scored += 1,
                TuneOutcome::CertRejected => cert_rejected += 1,
                TuneOutcome::LintRejected(_) => {}
            }
        }
        tr.close(root);
        if (scored, cert_rejected) != (want_scored, want_cert) {
            out.problem(format!(
                "traced search {call}: {scored} scored, {cert_rejected} cert-rejected; \
                     the untraced search had {want_scored} and {want_cert}"
            ));
        }
    }
    tr.write(&crate::scratch_dir()?.join("spans-tune.tsv"))?;

    let t = tr.totals();
    let count = |name: &str| t.get(name).map_or(0, |x| x.0);
    let ns = |name: &str| t.get(name).map_or(0, |x| x.1) as f64;
    let mean_us = |name: &str| ns(name) / count(name).max(1) as f64 / 1e3;
    let wall = tr.round_ns() as f64;
    let staged_wall = (wall - ns("tune.evaluate")).max(1.0);
    let untraced: f64 = untraced_ns[..n].iter().sum::<u64>() as f64;

    let mut m = BTreeMap::new();
    for (layer, us_name, share_name) in LAYERS {
        m.insert(us_name, mean_us(layer));
        m.insert(share_name, ns(layer) / staged_wall);
    }
    m.insert(
        "batch.lane_cycles_per_s",
        lane_cycles as f64 / (ns("batch.storm") / 1e9).max(1e-9),
    );
    m.insert(
        "tune.scatter_efficiency",
        ns("tune.evaluate") / (untraced * crate::threads() as f64).max(1.0),
    );
    m.insert("tune.scored", scored as f64);
    m.insert("tune.cert_rejected", cert_rejected as f64);
    let layers: Vec<&str> = LAYERS.iter().map(|&(layer, _, _)| layer).collect();
    m.insert("trace.coverage", tr.coverage(&layers, &["tune.evaluate"]));
    m.insert("trace.slowdown", wall / untraced.max(1.0));
    out.info.push(("traced_rounds".into(), json!(n)));
    Ok(m)
}

/// `evaluate`'s stages called one by one with its inputs, each a span
/// under `root`, returning the same [`Evaluation`].
fn staged_evaluate(
    ctx: &DesignContext,
    spec: &CandidateSpec,
    user_seed: u64,
    tr: &mut Tracer,
    root: u32,
    id: u64,
    lane_cycles: &mut u64,
) -> Evaluation {
    let mut mark = tr.now();
    let sched = spec.schedule_spec();
    let schedule = operating_point(spec, ctx.raw_critical);
    let constraint = ClockConstraint::with_period(schedule.period());
    let sta = TimingAnalysis::run(&ctx.netlist, &constraint);
    tr.lap(&mut mark, "sta", root, id);

    let replaced: Vec<FlopId> = match spec.seeding {
        Seeding::TopC => PathDistribution::replacement_set(&sta, &ctx.netlist, spec.c_pct()),
        Seeding::Workload { target_pct } => workload_set(
            &ctx.netlist,
            &sta,
            spec.c_pct(),
            f64::from(target_pct) / 100.0,
        ),
    };
    let plan = match spec.seeding {
        Seeding::TopC => ReplacementPlan::TopC,
        Seeding::Workload { .. } => ReplacementPlan::Explicit(replaced.clone()),
    };
    tr.lap(&mut mark, "tune.seeding", root, id);

    let config = LintConfig::new(spec.id(), sched, constraint).with_replacement(plan);
    let codes = lint(&ctx.netlist, &config).error_codes();
    tr.lap(&mut mark, "lint", root, id);
    if !codes.is_empty() {
        return Evaluation {
            spec: *spec,
            outcome: TuneOutcome::LintRejected(codes.iter().map(|c| (*c).to_owned()).collect()),
        };
    }

    let stages = schedule.k() as usize;
    let hull = Interval::new(Picos::ZERO, ctx.raw_critical);
    let point = AnalysisPoint::new(spec.id(), SchemeId::TimberFf, schedule, vec![hull; stages]);
    let safe = certify(&point).is_safe();
    tr.lap(&mut mark, "analyze.certify", root, id);
    if !safe {
        return Evaluation {
            spec: *spec,
            outcome: TuneOutcome::CertRejected,
        };
    }

    let threshold = schedule.period().scale(1.0 - spec.c_pct() / 100.0);
    let classes = classify_flops(&sta, threshold);
    let relay_sources: Vec<usize> = replaced
        .iter()
        .map(|&f| {
            fanin_cone(&ctx.netlist, f)
                .into_iter()
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
    let power_pct = ProcessorOverheads::from_stats(
        &stats,
        schedule.period(),
        spec.c_pct(),
        schedule.k(),
        &PowerParams::default(),
    )
    .ff_power_overhead_pct();
    tr.lap(&mut mark, "power", root, id);

    let totals = storm_score(
        schedule.period(),
        stages,
        &BatchScheme::TimberFf(schedule),
        ctx.raw_critical,
        spec.content_seed(user_seed),
        STORM_CYCLES,
        STORM_LANES,
    );
    *lane_cycles += totals.cycles;
    tr.lap(&mut mark, "batch.storm", root, id);

    let full = PathDistribution::replacement_set(&sta, &ctx.netlist, spec.c_pct());
    let mass = |set: &[FlopId]| -> f64 {
        set.iter()
            .map(|&f| {
                let arrival = sta.arrival(ctx.netlist.flop(f).d());
                ((arrival.0 - threshold.0).max(0)) as f64 / schedule.period().0 as f64
            })
            .sum()
    };
    let kept_mass = mass(&replaced);
    let dropped: Vec<FlopId> = full
        .iter()
        .copied()
        .filter(|f| !replaced.contains(f))
        .collect();
    let dropped_mass = mass(&dropped);
    let violations = totals.masked + totals.detected + totals.predicted + totals.corrupted;
    let unprotected = if kept_mass > 0.0 {
        violations as f64 * (dropped_mass / kept_mass)
    } else {
        0.0
    };
    let instr = totals.instructions.max(1) as f64;
    let denom = violations as f64 + unprotected;
    let objectives = Objectives {
        energy_per_instr: totals.energy / instr * (1.0 + power_pct / 100.0),
        miss_rate: if denom > 0.0 {
            (totals.corrupted as f64 + unprotected) / denom
        } else {
            0.0
        },
        ns_per_instr: totals.wall_time.0 as f64 / 1000.0 / instr,
    };
    let evaluation = Evaluation {
        spec: *spec,
        outcome: TuneOutcome::Scored(
            objectives,
            ScoreDetail {
                replaced: replaced.len(),
                total_flops: ctx.netlist.flop_count(),
                power_overhead_pct: power_pct,
                lane_cycles: totals.cycles,
                violations,
                corrupted: totals.corrupted,
            },
        ),
    };
    tr.lap(&mut mark, "tune.objectives", root, id);
    evaluation
}
