//! The serve workloads: `serve_cold`, `serve_sweep` and `serve_warm`.
//!
//! Load shape: a closed loop of [`CLIENTS`] in-process clients, that is
//! one `Engine::process_batch` round of [`CLIENTS`] request lines at a
//! time, with no sockets — what `repro serve` does with one batch of
//! lines. The engine answers a batch at once, so every request's
//! latency is its round's duration. Each round's lines are generated
//! before its timer starts, and output checks run after it stops.
//!
//! Where the traffic comes from: `serve_warm` sends back-to-back
//! `StormSpec::pinned` campaigns, the repository's own traffic model
//! (`repro storm`). `serve_cold` and `serve_sweep` isolate one layer
//! each (the miss path, compile); their request mixes are chosen for
//! that, not taken from recorded traffic, which the repository has none
//! of.
//!
//! The traced run ([`Replica`]) re-drives the first quarter of the
//! stream (at most [`MAX_TRACED_ROUNDS`] rounds) through the engine's
//! layers called one by one — parse, canonical form, key hash, cache
//! probe, seal check, compile, hardened executor, seal, journal — in
//! the engine's order, and must reproduce the engine's bodies and
//! cache counters exactly.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::{json, Value};
use timber::CheckingPeriod;
use timber_lint::{snap_period, ScheduleSpec};
use timber_netlist::{
    alu, array_multiplier, kogge_stone_adder, pipelined_datapath, random_dag, ripple_carry_adder,
    CellLibrary, DatapathSpec, Netlist, Picos, RandomDagSpec,
};
use timber_proc::structural::{proxy_netlist, stage_profiles_from_netlist};
use timber_proc::PerfPoint;
use timber_resilience::{
    resolve_threads, run_hardened, scan_log, HardenedSpec, JournalWriter, StormScenario, TrialJob,
};
use timber_schemes::SchemeId;
use timber_serve::{
    compile, content_hash, evaluate, open, parse_request, seal, CacheKey, CompiledDesign, DesignId,
    Engine, EngineConfig, EvalSpec, LruCache, Request, Response, StormSpec,
};
use timber_sta::{ClockConstraint, HoldAnalysis, TimingAnalysis};
use timber_telemetry::ServiceCounter;
use timber_variability::StagePathProfile;

use crate::stats::{end_to_end, fnv, splitmix64, Pace, Round, SetUps, FNV_START};
use crate::trace::{Tracer, ROOT, ROUND};
use crate::{Outcome, Sabotage, Settings};

/// Clients in the closed loop: requests per `process_batch` round, the
/// batch size of `StormSpec::pinned`.
const CLIENTS: usize = 16;
/// One request in this many rounds is re-evaluated from scratch and
/// compared byte for byte.
const CHECK_EVERY: usize = 8;
/// Rounds whose responses make up `output_digest`.
const DIGEST_ROUNDS: usize = 64;
/// Upper bound on the rounds the traced replica re-drives, which keeps
/// the span store small.
const MAX_TRACED_ROUNDS: usize = 4096;
/// Records the journal `serve_warm` restarts from.
const WARM_RECORDS: u64 = 50_000;

/// `serve_cold` storm axis, cycled per request.
const STORMS: [Option<StormScenario>; 4] = [
    None,
    Some(StormScenario::DroopTrain),
    Some(StormScenario::AgingRamp),
    Some(StormScenario::FlagSpikes),
];

/// `serve_sweep` interval splits `(k_tb, k_ed)`.
const SWEEP_SPLITS: [(u8, u8); 6] = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)];

/// The replica's spans that per-layer metrics report, and so count
/// towards `trace.coverage`; the glue between them (response assembly,
/// coalescing, design-tier probes and inserts) does not.
const LAYERS: [&str; 10] = [
    "spec.parse",
    "spec.canonical",
    "key.hash",
    "cache.result_probe",
    "cache.result_insert",
    "integrity.open",
    "compile",
    "executor",
    "integrity.seal",
    "checkpoint.append",
];

/// Engine counters compared between the engine and the replica.
const COUNTERS: [ServiceCounter; 5] = [
    ServiceCounter::Evals,
    ServiceCounter::Hits,
    ServiceCounter::Misses,
    ServiceCounter::DesignHits,
    ServiceCounter::DesignMisses,
];
type Counters = [u64; 5];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Sweep,
    Warm,
}

/// The request line a client sends for `spec`, every field spelled out.
fn request_line(id: u64, s: &EvalSpec) -> String {
    format!(
        "{{\"id\":{id},\"design\":\"{}\",\"scheme\":\"{}\",\"storm\":\"{}\",\
         \"checking_pct\":{},\"k_tb\":{},\"k_ed\":{},\"trials\":{},\"cycles\":{},\"seed\":{}}}",
        s.design.name(),
        s.scheme.name(),
        s.storm_name(),
        s.checking_pct,
        s.k_tb,
        s.k_ed,
        s.trials,
        s.cycles,
        s.seed
    )
}

/// A workload's request stream: round `r` is a pure function of the
/// run seed and `r`.
struct Stream {
    kind: Kind,
    /// Base of the per-request spec seeds.
    base: u64,
    /// `serve_sweep` design points in seeded order.
    points: Vec<(DesignId, f64, u8, u8)>,
}

impl Stream {
    fn new(kind: Kind, seed: u64) -> Stream {
        let base = splitmix64(seed);
        let mut points = Vec::new();
        if kind == Kind::Sweep {
            for design in DesignId::EVALUABLE {
                for step in 0..=140u32 {
                    for (k_tb, k_ed) in SWEEP_SPLITS {
                        points.push((design, 10.0 + 0.25 * f64::from(step), k_tb, k_ed));
                    }
                }
            }
            // Seeded Fisher–Yates, so each seed sweeps its own order.
            let mut z = base;
            for i in (1..points.len()).rev() {
                z = splitmix64(z);
                points.swap(i, (z % (i as u64 + 1)) as usize);
            }
        }
        Stream { kind, base, points }
    }

    /// Request `i`'s spec (`serve_cold`, `serve_sweep`).
    fn spec(&self, i: u64) -> EvalSpec {
        let seed = self.base.wrapping_add(i);
        if self.kind == Kind::Cold {
            let design = DesignId::EVALUABLE[(i % 7) as usize];
            return EvalSpec {
                scheme: SchemeId::ALL[(i % 8) as usize],
                storm: STORMS[(i % 4) as usize],
                seed,
                ..EvalSpec::defaults(design)
            };
        }
        let (design, checking_pct, k_tb, k_ed) =
            self.points[(i % self.points.len() as u64) as usize];
        EvalSpec {
            checking_pct,
            k_tb,
            k_ed,
            trials: 1,
            cycles: 200,
            seed,
            ..EvalSpec::defaults(design)
        }
    }

    /// Round `r`'s request ids and lines, in arrival order.
    ///
    /// `serve_warm` round `r` is one batch of campaign `r / 4`: the
    /// stream `StormSpec::pinned` builds (64 requests drawn from a pool
    /// of 8 specs, dealt to 4 clients) at a seed of its own, fed in
    /// batches of 16 as `repro storm` feeds it. Ids are renumbered so
    /// they stay unique across campaigns; the lines are otherwise the
    /// storm's own.
    fn round(&self, r: usize) -> Vec<(u64, String)> {
        if self.kind == Kind::Warm {
            let storm = StormSpec::pinned(self.base.wrapping_add((r / 4) as u64));
            let first = (r / 4 * storm.requests) as u64;
            return storm.stream()[r % 4 * CLIENTS..][..CLIENTS]
                .iter()
                .map(|line| {
                    let (head, tail) =
                        line.split_at(line.find(',').expect("storm line has fields"));
                    let local: u64 = head["{\"id\":".len()..]
                        .parse()
                        .expect("storm line starts with its id");
                    (first + local, format!("{{\"id\":{}{tail}", first + local))
                })
                .collect();
        }
        (0..CLIENTS as u64)
            .map(|k| {
                let id = (r * CLIENTS) as u64 + k;
                (id, request_line(id, &self.spec(id)))
            })
            .collect()
    }

    /// The set-up batch: one default request per design, with seeds the
    /// stream never uses, so the design tier holds all seven designs.
    fn set_up_lines(&self) -> Vec<String> {
        DesignId::EVALUABLE
            .iter()
            .enumerate()
            .map(|(d, &design)| {
                let spec = EvalSpec {
                    seed: !self.base - d as u64,
                    ..EvalSpec::defaults(design)
                };
                request_line(u64::MAX - d as u64, &spec)
            })
            .collect()
    }
}

/// Writes the journal `serve_warm` restarts from: [`WARM_RECORDS`]
/// cheap specs (one trial of 16 cycles), evaluated and sealed as the
/// engine would. Its specs never recur in the traffic; it sets the
/// resume cost and what the result tier holds at the first request.
fn write_warm_journal(path: &Path, base: u64) -> io::Result<()> {
    let compiled: Vec<CompiledDesign> = DesignId::EVALUABLE
        .iter()
        .map(|&d| compile(&EvalSpec::defaults(d)))
        .collect();
    let _ = std::fs::remove_file(path);
    let mut journal = JournalWriter::append(path)?;
    for j in 0..WARM_RECORDS {
        let d = (j % 7) as usize;
        let spec = EvalSpec {
            scheme: SchemeId::ALL[(j % 8) as usize],
            trials: 1,
            cycles: 16,
            seed: !base - j,
            ..EvalSpec::defaults(DesignId::EVALUABLE[d])
        };
        journal.record(&spec.key().hex(), &seal(&evaluate(&compiled[d], &spec)))?;
    }
    Ok(())
}

fn engine_config(kind: Kind, journal: &Path) -> EngineConfig {
    EngineConfig {
        threads: crate::threads(),
        journal: (kind != Kind::Sweep).then(|| journal.to_path_buf()),
        resume: kind == Kind::Warm,
        ..EngineConfig::default()
    }
}

fn ok_body(body: &str) -> bool {
    body.starts_with("\"status\":\"ok\"")
}

/// Builds the engine as a user would start it and lets lazy work
/// finish: a fresh engine plus the one-per-design batch
/// (`serve_cold`, `serve_sweep`), or a resume from the journal
/// (`serve_warm`). Returns the engine and the seconds it took.
fn set_up(
    kind: Kind,
    stream: &Stream,
    journal: &Path,
    out: &mut Outcome,
) -> io::Result<(Engine, f64)> {
    if kind != Kind::Warm {
        let _ = std::fs::remove_file(journal);
    }
    let started = Instant::now();
    let mut engine = Engine::new(engine_config(kind, journal))?;
    let warm_up = if kind == Kind::Warm {
        None
    } else {
        Some(engine.process_batch(&stream.set_up_lines())?)
    };
    let seconds = started.elapsed().as_secs_f64();
    if let Some(batch) = warm_up {
        if !batch.responses.iter().all(|r| ok_body(&r.body)) {
            out.problem("a set-up request did not come back ok".to_owned());
        }
    }
    if kind == Kind::Warm {
        let resumed = engine.stats().counter(ServiceCounter::Resumed);
        let torn = engine.stats().counter(ServiceCounter::JournalTornLines);
        if resumed != WARM_RECORDS || torn != 0 {
            out.problem(format!(
                "resume loaded {resumed} records ({torn} torn), expected {WARM_RECORDS}"
            ));
        }
    }
    Ok((engine, seconds))
}

fn counters(engine: &Engine) -> Counters {
    COUNTERS.map(|c| engine.stats().counter(c))
}

fn round_digest(responses: &[Response]) -> u64 {
    responses.iter().fold(FNV_START, |h, r| {
        fnv(fnv(h, &r.id.to_le_bytes()), r.body.as_bytes())
    })
}

/// Independent reference for response bodies: a fresh compile and a
/// direct `evaluate`, bypassing the engine's caches and executor.
#[derive(Default)]
struct Reference {
    compiled: HashMap<String, CompiledDesign>,
}

impl Reference {
    fn body(&mut self, line: &str) -> Option<String> {
        let Ok(Request::Eval { spec, .. }) = parse_request(line, 0) else {
            return None;
        };
        if self.compiled.len() > 64 {
            self.compiled.clear();
        }
        let design = self
            .compiled
            .entry(spec.design_canonical())
            .or_insert_with(|| compile(&spec));
        Some(evaluate(design, &spec))
    }
}

/// What the measured loop recorded.
struct Measured {
    /// Every round, warm-up first.
    rounds: Vec<Round>,
    /// How many leading rounds were warm-up.
    warmup: usize,
    /// Per-round response digest and engine counters, for the first
    /// rounds the replica may re-drive.
    prefix: Vec<(u64, Counters)>,
    /// Digest of the first [`DIGEST_ROUNDS`] rounds' responses.
    digest: u64,
    digest_counters: Counters,
    /// The loop's pacing and host-speed readings.
    pace: Pace,
}

/// The closed loop: warm-up rounds, then measured rounds for the run's
/// seconds, timing only `process_batch` and checking every round. When
/// `setups` is given, `set_up_rep` runs between rounds as it falls due.
fn drive(
    engine: &mut Engine,
    stream: &Stream,
    settings: Settings,
    keep: usize,
    mut setups: Option<&mut SetUps>,
    mut set_up_rep: impl FnMut(&mut Outcome) -> io::Result<f64>,
    out: &mut Outcome,
) -> io::Result<Measured> {
    let mut reference = Reference::default();
    let mut m = Measured {
        rounds: Vec::new(),
        warmup: 0,
        prefix: Vec::new(),
        digest: FNV_START,
        digest_counters: [0; 5],
        pace: Pace::new(settings.seconds, crate::threads()),
    };
    while let Some(measured) = m.pace.next() {
        let r = m.rounds.len();
        let mut requests = stream.round(r);
        let lines: Vec<String> = requests.iter().map(|(_, line)| line.clone()).collect();
        let timer = Instant::now();
        let batch = engine.process_batch(&lines)?;
        let ns = timer.elapsed().as_nanos() as u64;

        // The engine answers in id order.
        requests.sort_by_key(|&(id, _)| id);
        let mut responses = batch.responses;
        if r == 0 && settings.sabotage == Some(Sabotage::Body) {
            let body = &mut responses[0].body;
            let last = body.pop().map_or('#', |c| if c == '#' { '@' } else { '#' });
            body.push(last);
        }
        if responses.len() != requests.len() {
            out.problem(format!(
                "round {r}: {} responses to {} requests",
                responses.len(),
                requests.len()
            ));
        }
        let mut ok = 0;
        for (k, ((id, line), response)) in requests.iter().zip(&responses).enumerate() {
            if response.id != *id {
                out.problem(format!(
                    "round {r}: response id {} where {id} was due",
                    response.id
                ));
            }
            if ok_body(&response.body) {
                ok += 1;
            }
            let checked = r.is_multiple_of(CHECK_EVERY) && k == (r / CHECK_EVERY) % CLIENTS;
            if checked && reference.body(line).is_none_or(|b| b != response.body) {
                out.problem(format!(
                    "request {id}: body differs from the reference evaluation"
                ));
            }
        }
        out.attempted += requests.len() as u64;
        out.failed += (requests.len() - ok) as u64;
        m.rounds.push(Round { ns, ok: ok as u64 });
        if !measured {
            m.warmup += 1;
        }

        let digest = round_digest(&responses);
        if r < DIGEST_ROUNDS {
            m.digest = fnv(m.digest, &digest.to_le_bytes());
            m.digest_counters = counters(engine);
        }
        if r < keep {
            m.prefix.push((digest, counters(engine)));
        }
        if let Some(setups) = setups.as_deref_mut() {
            if setups.due(false) {
                setups.record(m.pace.rounds(), set_up_rep(out)?);
            }
        }
    }
    if let Some(setups) = setups {
        while setups.due(true) {
            setups.record(m.pace.rounds(), set_up_rep(out)?);
        }
    }
    Ok(m)
}

/// Deletes the run's temporary journals when dropped.
struct TempFiles(Vec<PathBuf>);

impl Drop for TempFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs one serve workload.
pub fn run(workload: &str, settings: Settings) -> io::Result<Outcome> {
    let kind = match workload {
        "serve_cold" => Kind::Cold,
        "serve_sweep" => Kind::Sweep,
        _ => Kind::Warm,
    };
    let dir = crate::scratch_dir()?;
    let pid = std::process::id();
    let journal = dir.join(format!("{workload}-{pid}.journal"));
    let restart_journal = dir.join(format!("{workload}-{pid}-restart.journal"));
    let replica_journal = dir.join(format!("{workload}-{pid}-replica.journal"));
    let set_up_journal = dir.join(format!("{workload}-{pid}-set-up.journal"));
    let _cleanup = TempFiles(vec![
        journal.clone(),
        restart_journal.clone(),
        replica_journal.clone(),
        set_up_journal.clone(),
    ]);

    let mut out = Outcome::default();
    let stream = Stream::new(kind, settings.seed);
    if kind == Kind::Warm {
        // The measured engine appends its misses to a copy, so the
        // set-up repetitions and the replica resume from the journal
        // as it was at the restart.
        write_warm_journal(&restart_journal, stream.base)?;
        std::fs::copy(&restart_journal, &journal)?;
    }

    // The measured engine, then throwaway ones for the set-up timings:
    // `serve_warm` resumes each from the restart journal, the others
    // journal each to a file of its own.
    let (mut engine, first) = set_up(kind, &stream, &journal, &mut out)?;
    let mut setups = SetUps::new(settings.seconds, first);
    let rep_journal = if kind == Kind::Warm {
        &restart_journal
    } else {
        &set_up_journal
    };
    let keep = if settings.trace { MAX_TRACED_ROUNDS } else { 0 };
    let measured = drive(
        &mut engine,
        &stream,
        settings,
        keep,
        (!settings.trace).then_some(&mut setups),
        |out| set_up(kind, &stream, rep_journal, out).map(|(_, seconds)| seconds),
        &mut out,
    )?;
    let rounds = &measured.rounds[measured.warmup..];
    out.info
        .push(("warmup_rounds".into(), json!(measured.warmup)));
    out.info.push(("rounds".into(), json!(rounds.len())));
    out.info.push(("requests_per_round".into(), json!(CLIENTS)));
    out.info
        .push(("latency_samples".into(), json!(rounds.len())));
    out.info
        .push(("setups".into(), json!(setups.seconds.len())));
    out.info.push((
        "output_digest".into(),
        json!(format!("{:016x}", measured.digest)),
    ));
    out.info.push((
        "digest_rounds".into(),
        json!(measured.rounds.len().min(DIGEST_ROUNDS)),
    ));
    out.info.push((
        "digest_counters".into(),
        Value::Object(
            COUNTERS
                .iter()
                .zip(measured.digest_counters)
                .map(|(c, v)| (c.name().to_owned(), json!(v)))
                .collect(),
        ),
    ));

    if settings.trace {
        drop(engine);
        let layers = trace_replica(
            workload,
            kind,
            &stream,
            &measured,
            &restart_journal,
            &replica_journal,
            &mut out,
        )?;
        out.metrics.extend(layers);
    } else {
        out.metrics.extend(end_to_end(
            &measured.rounds,
            measured.warmup,
            &setups,
            &measured.pace,
            &mut out.info,
        ));
    }
    Ok(out)
}

/// Re-drives the first quarter of the measured stream through the
/// replica, checks it reproduces the engine, and derives the per-layer
/// metrics from its spans.
fn trace_replica(
    workload: &str,
    kind: Kind,
    stream: &Stream,
    measured: &Measured,
    journal: &Path,
    replica_journal: &Path,
    out: &mut Outcome,
) -> io::Result<BTreeMap<&'static str, f64>> {
    let n = measured.rounds.len().div_ceil(4).min(measured.prefix.len());
    let mut rep = Replica::new(kind != Kind::Sweep, replica_journal)?;
    if kind == Kind::Warm {
        rep.resume(journal)?;
    } else {
        rep.process(&stream.set_up_lines(), u64::MAX, out)?;
        rep.tracer.clear();
    }
    let base = rep.counters;
    for r in 0..n {
        let lines: Vec<String> = stream.round(r).into_iter().map(|(_, line)| line).collect();
        let responses = rep.process(&lines, r as u64, out)?;
        if round_digest(&responses) != measured.prefix[r].0 {
            out.problem(format!("traced round {r}: bodies differ from the engine's"));
        }
    }
    if n > 0 && rep.counters != measured.prefix[n - 1].1 {
        out.problem(format!(
            "traced counters {:?} differ from the engine's {:?} \
             (evals, hits, misses, design hits, design misses)",
            rep.counters,
            measured.prefix[n - 1].1
        ));
    }
    rep.tracer
        .write(&crate::scratch_dir()?.join(format!("spans-{workload}.tsv")))?;

    let t = rep.tracer.totals();
    let count = |name: &str| t.get(name).map_or(0, |x| x.0);
    let ns = |name: &str| t.get(name).map_or(0, |x| x.1) as f64;
    let mean_us = |name: &str| ns(name) / count(name).max(1) as f64 / 1e3;
    let wall = rep.tracer.round_ns() as f64;
    let threads = crate::threads() as f64;
    let delta = |i: usize| (rep.counters[i] - base[i]) as f64;
    let evaluate_ns = ns("evaluate");

    let mut m = BTreeMap::new();
    m.insert("spec.parse_us", mean_us("spec.parse"));
    m.insert("spec.canonical_us", mean_us("spec.canonical"));
    m.insert("key.hash_us", mean_us("key.hash"));
    m.insert("cache.result_probe_us", mean_us("cache.result_probe"));
    m.insert("cache.result_insert_us", mean_us("cache.result_insert"));
    m.insert("integrity.open_us", mean_us("integrity.open"));
    m.insert("cache.result_hit_ratio", delta(1) / delta(0).max(1.0));
    m.insert(
        "cache.design_hit_ratio",
        delta(3) / (delta(3) + delta(4)).max(1.0),
    );
    m.insert("compile.total_us", mean_us("compile"));
    m.insert("compile.netlist_us", mean_us("compile.netlist"));
    m.insert("compile.sta_us", mean_us("compile.sta"));
    m.insert("compile.hold_plan_us", mean_us("compile.hold_plan"));
    m.insert("compile.share", ns("compile") / wall.max(1.0));
    m.insert("evaluate.us", mean_us("evaluate"));
    m.insert(
        "evaluate.sim_cycles_per_s",
        rep.sim_cycles as f64 / (evaluate_ns / 1e9).max(1e-9),
    );
    m.insert("evaluate.share", evaluate_ns / (wall * threads).max(1.0));
    m.insert("executor.batch_us", mean_us("executor"));
    m.insert(
        "executor.efficiency",
        evaluate_ns / (rep.executor_thread_ns as f64).max(1.0),
    );
    m.insert(
        "executor.overhead_us_per_job",
        (rep.executor_thread_ns as f64 - evaluate_ns) / rep.jobs.max(1) as f64 / 1e3,
    );
    m.insert("integrity.seal_us", mean_us("integrity.seal"));
    m.insert("checkpoint.append_us", mean_us("checkpoint.append"));
    m.insert("checkpoint.scan_ms", mean_us("checkpoint.scan") / 1e3);
    m.insert("checkpoint.resume_ms", mean_us("checkpoint.resume") / 1e3);
    m.insert("trace.coverage", rep.tracer.coverage(&LAYERS, &[]));
    m.insert(
        "trace.slowdown",
        wall / (measured.rounds[..n].iter().map(|r| r.ns).sum::<u64>() as f64).max(1.0),
    );
    out.info.push(("traced_rounds".into(), json!(n)));
    Ok(m)
}

/// The netlist `compile` generates for `design` (the serve crate's
/// generator table, called here so its time is its own span).
///
/// This and [`quantile_profiles`] copy private steps of
/// `timber_serve::compile`; every traced compile is checked against
/// `compile()` itself, so a change there that this copy misses fails
/// the traced run.
fn generator_netlist(design: DesignId) -> Netlist {
    let lib = CellLibrary::standard();
    match design {
        DesignId::Rca16 => ripple_carry_adder(&lib, 16).expect("generator"),
        DesignId::Ks16 => kogge_stone_adder(&lib, 16).expect("generator"),
        DesignId::Mul8 => array_multiplier(&lib, 8).expect("generator"),
        DesignId::Alu8 => alu(&lib, 8).expect("generator"),
        DesignId::RandomDag => random_dag(&lib, &RandomDagSpec::default()).expect("generator"),
        DesignId::Datapath => pipelined_datapath(&lib, &DatapathSpec::uniform(4, 12, 150, 0.7, 17))
            .expect("generator"),
        // 11 must equal `PROC_SEED` in the serve crate's compile.rs.
        DesignId::Proc => proxy_netlist(11),
        DesignId::Poison => unreachable!("the benchmark never sends poison"),
    }
}

/// Critical, 90th-percentile and median flop arrival, replicated over
/// the four pipeline stages, as `compile` derives them.
fn quantile_profiles(netlist: &Netlist, sta: &TimingAnalysis<'_>) -> Vec<StagePathProfile> {
    let mut arrivals: Vec<Picos> = netlist
        .flop_ids()
        .map(|f| sta.arrival(netlist.flop(f).d()))
        .filter(|&a| a > Picos::ZERO && a < Picos::MAX)
        .collect();
    let profile = if arrivals.is_empty() {
        StagePathProfile::from_critical(sta.worst_arrival())
    } else {
        arrivals.sort();
        let pick = |q: f64| arrivals[((arrivals.len() - 1) as f64 * q) as usize];
        let critical = *arrivals.last().expect("non-empty");
        let near = pick(0.90).min(critical);
        StagePathProfile {
            critical,
            near_critical: near,
            typical: pick(0.50).min(near),
            p_critical: 1e-3,
            p_near: 1e-2,
        }
    };
    vec![profile; 4]
}

/// `compile`'s stages called one by one, each its own child span of
/// `parent`: generator, STA, period and profiles, hold-padding plan.
fn compile_traced(spec: &EvalSpec, tr: &mut Tracer, parent: u32, id: u64) -> CompiledDesign {
    let schedule_spec = ScheduleSpec {
        checking_pct: spec.checking_pct,
        k_tb: spec.k_tb,
        k_ed: spec.k_ed,
        relay_increment: 1,
    };
    let mut mark = tr.now();
    let netlist = generator_netlist(spec.design);
    tr.lap(&mut mark, "compile.netlist", parent, id);
    let sta = TimingAnalysis::run(&netlist, &ClockConstraint::with_period(Picos(1_000_000)));
    tr.lap(&mut mark, "compile.sta", parent, id);
    let period = snap_period(sta.worst_arrival().scale(1.05) + Picos(30), &schedule_spec);
    let schedule = CheckingPeriod::new(period, spec.checking_pct, spec.k_tb, spec.k_ed)
        .expect("snapped period admits the schedule");
    let profiles = if spec.design == DesignId::Proc {
        stage_profiles_from_netlist(&netlist, PerfPoint::High)
    } else {
        quantile_profiles(&netlist, &sta)
    };
    tr.lap(&mut mark, "compile.schedule", parent, id);
    let plan = HoldAnalysis::run(&netlist, &ClockConstraint::with_period(period))
        .padding_plan(&netlist, schedule.checking());
    tr.lap(&mut mark, "compile.hold_plan", parent, id);
    CompiledDesign {
        design: spec.design,
        period,
        schedule,
        profiles,
        padding_floor: plan.floor,
        padding_endpoints: plan.deficits.len(),
        padding_total: plan.total_padding,
        flops: netlist.flop_ids().count(),
        nets: netlist.net_ids().count(),
    }
}

/// The engine's request path rebuilt from its layers' public calls,
/// each call a span.
struct Replica {
    tracer: Tracer,
    config: EngineConfig,
    results: LruCache<String>,
    designs: LruCache<CompiledDesign>,
    journal: Option<JournalWriter>,
    seq: u64,
    counters: Counters,
    /// Simulated cycles the evaluations ran (trials × cycles).
    sim_cycles: u64,
    /// Evaluation jobs the executor ran.
    jobs: u64,
    /// Σ executor wall time × the workers it used.
    executor_thread_ns: u64,
}

impl Replica {
    fn new(journalled: bool, journal: &Path) -> io::Result<Replica> {
        let config = EngineConfig {
            threads: crate::threads(),
            ..EngineConfig::default()
        };
        let _ = std::fs::remove_file(journal);
        Ok(Replica {
            tracer: Tracer::new(),
            results: LruCache::new(config.result_capacity),
            designs: LruCache::new(config.design_capacity),
            journal: if journalled {
                Some(JournalWriter::append(journal)?)
            } else {
                None
            },
            config,
            seq: 0,
            counters: [0; 5],
            sim_cycles: 0,
            jobs: 0,
            executor_thread_ns: 0,
        })
    }

    /// `Engine::new` with `resume`: scan the journal, keep every record
    /// whose seal verifies.
    fn resume(&mut self, journal: &Path) -> io::Result<()> {
        let resume = self.tracer.open("checkpoint.resume", ROOT, 0);
        let scan = self.tracer.open("checkpoint.scan", resume, 0);
        let (records, _) = scan_log(journal)?;
        self.tracer.close(scan);
        for (key, sealed) in records {
            if let Some(key) = CacheKey::from_hex(&key) {
                if open(&sealed, true).is_ok() {
                    self.results.insert(key, sealed);
                }
            }
        }
        self.tracer.close(resume);
        Ok(())
    }

    /// One `process_batch` round, layer by layer.
    fn process(
        &mut self,
        lines: &[String],
        round: u64,
        out: &mut Outcome,
    ) -> io::Result<Vec<Response>> {
        let tr = &mut self.tracer;
        let root = tr.open(ROUND, ROOT, round);
        let mut responses: Vec<Response> = Vec::with_capacity(lines.len());
        let mut pending: BTreeMap<CacheKey, (EvalSpec, Vec<u64>)> = BTreeMap::new();
        for line in lines {
            let default_id = self.seq;
            self.seq += 1;
            let mut mark = tr.now();
            let parsed = parse_request(line, default_id);
            tr.lap(&mut mark, "spec.parse", root, default_id);
            let Ok(Request::Eval { id, spec, .. }) = parsed else {
                out.problem(format!("replica could not parse {line}"));
                continue;
            };
            self.counters[0] += 1;
            let canonical = spec.canonical();
            tr.lap(&mut mark, "spec.canonical", root, id);
            let key = content_hash(canonical.as_bytes());
            tr.lap(&mut mark, "key.hash", root, id);
            let sealed = self.results.get(&key);
            tr.lap(&mut mark, "cache.result_probe", root, id);
            let body = sealed.and_then(|s| open(s, true).ok().map(str::to_owned));
            if sealed.is_some() {
                tr.lap(&mut mark, "integrity.open", root, id);
            }
            match body {
                Some(body) => {
                    self.counters[1] += 1;
                    responses.push(Response { id, body });
                    tr.lap(&mut mark, "engine.respond", root, id);
                }
                None => {
                    match pending.get_mut(&key) {
                        Some((_, ids)) => {
                            self.counters[1] += 1;
                            ids.push(id);
                        }
                        None => {
                            self.counters[2] += 1;
                            pending.insert(key, (spec, vec![id]));
                        }
                    }
                    tr.lap(&mut mark, "engine.coalesce", root, id);
                }
            }
        }

        let mut ready: Vec<(CacheKey, EvalSpec, Vec<u64>, CompiledDesign)> = Vec::new();
        let mut compiled: Vec<(EvalSpec, CompiledDesign)> = Vec::new();
        for (key, (spec, ids)) in pending {
            let id = ids[0];
            let mut mark = tr.now();
            let canonical = spec.design_canonical();
            tr.lap(&mut mark, "spec.canonical", root, id);
            let dkey = content_hash(canonical.as_bytes());
            tr.lap(&mut mark, "key.hash", root, id);
            let hit = self.designs.get(&dkey).cloned();
            tr.lap(&mut mark, "cache.design_probe", root, id);
            let design = match hit {
                Some(design) => {
                    self.counters[3] += 1;
                    design
                }
                None => {
                    self.counters[4] += 1;
                    let span = tr.open("compile", root, id);
                    let design = compile_traced(&spec, tr, span, id);
                    tr.close(span);
                    let mut mark = tr.now();
                    self.designs.insert(dkey, design.clone());
                    tr.lap(&mut mark, "cache.design_insert", root, id);
                    compiled.push((spec, design.clone()));
                    design
                }
            };
            ready.push((key, spec, ids, design));
        }

        if !ready.is_empty() {
            let executor = tr.open("executor", root, round);
            let spans: Arc<Mutex<Vec<(usize, u64, u64)>>> = Arc::default();
            let origin = tr.origin();
            let jobs: Vec<TrialJob> = ready
                .iter()
                .enumerate()
                .map(|(pos, (_, spec, _, design))| {
                    let (spec, design, spans) = (*spec, design.clone(), Arc::clone(&spans));
                    let job: TrialJob = Arc::new(move || {
                        let start = origin.elapsed().as_nanos() as u64;
                        let body = evaluate(&design, &spec);
                        let end = origin.elapsed().as_nanos() as u64;
                        spans
                            .lock()
                            .expect("evaluate spans")
                            .push((pos, start, end));
                        Ok(body)
                    });
                    job
                })
                .collect();
            let outcome = run_hardened(HardenedSpec {
                jobs,
                threads: self.config.threads,
                timeout: self.config.watchdog,
                max_attempts: self.config.max_attempts,
                retry: self.config.retry,
                retry_hangs: self.config.retry_hangs,
                completed: BTreeMap::new(),
                checkpoint: None,
                stop_after: None,
            })?;
            tr.close(executor);
            let workers = resolve_threads(self.config.threads).clamp(1, ready.len()) as u64;
            self.executor_thread_ns += tr.span_ns(executor) * workers;
            self.jobs += ready.len() as u64;
            for &(pos, start, end) in spans.lock().expect("evaluate spans").iter() {
                let spec = &ready[pos].1;
                self.sim_cycles += spec.trials as u64 * spec.cycles;
                tr.record("evaluate", start, end, executor, ready[pos].2[0]);
            }

            let mut mark = tr.now();
            for ((key, _, ids, _), payload) in ready.iter().zip(outcome.payloads) {
                let id = ids[0];
                let Some(body) = payload else {
                    out.problem(format!(
                        "replica evaluation of request {id} was quarantined"
                    ));
                    continue;
                };
                let sealed = seal(&body);
                tr.lap(&mut mark, "integrity.seal", root, id);
                if let Some(journal) = &mut self.journal {
                    journal.record(&key.hex(), &sealed)?;
                    tr.lap(&mut mark, "checkpoint.append", root, id);
                }
                self.results.insert(*key, sealed);
                tr.lap(&mut mark, "cache.result_insert", root, id);
                for &id in ids {
                    responses.push(Response {
                        id,
                        body: body.clone(),
                    });
                }
                tr.lap(&mut mark, "engine.respond", root, id);
            }
        }
        let mut mark = tr.now();
        responses.sort_by_key(|r| r.id);
        tr.lap(&mut mark, "engine.respond", root, round);
        tr.close(root);

        for (spec, traced) in compiled {
            let whole = compile(&spec);
            let same = whole.period == traced.period
                && whole.profiles == traced.profiles
                && whole.padding_floor == traced.padding_floor
                && whole.padding_endpoints == traced.padding_endpoints
                && whole.padding_total == traced.padding_total
                && whole.flops == traced.flops
                && whole.nets == traced.nets;
            if !same {
                out.problem(format!(
                    "compile stages disagree with compile() for {}",
                    spec.design_canonical()
                ));
            }
        }
        Ok(responses)
    }
}
