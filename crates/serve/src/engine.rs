//! The serving engine: content-addressed request processing.
//!
//! One [`Engine`] owns the two cache tiers, the durability journal and
//! the service telemetry, and processes request batches:
//!
//! 1. every line is parsed ([`crate::spec::parse_request`]); malformed
//!    lines become deterministic `status:"error"` responses;
//! 2. each evaluation request probes the result cache by content key —
//!    a hit is answered immediately, duplicate keys within the batch
//!    coalesce onto one pending evaluation (and count as hits);
//! 3. unique missing designs compile once (design tier), each compile
//!    isolated with `catch_unwind` so a poisoned request quarantines
//!    instead of killing the daemon;
//! 4. the remaining evaluations run as one hardened work-pull batch
//!    (`run_hardened`: watchdog, bounded retries, quarantine ledger);
//! 5. new results are journalled in one append per batch (crash-safe,
//!    torn-line tolerant) and inserted in canonical key order, then
//!    responses are emitted sorted by request id.
//!
//! Determinism: response bodies are pure functions of specs, cache
//! trajectories are pure functions of the request stream, and only the
//! `stats` operation exposes wall-clock latency (in its own object).
//!
//! # Integrity and degradation
//!
//! Every body entering the result cache or the journal is *sealed*
//! ([`crate::integrity`]): prefixed with a checksum over its exact
//! bytes. Reads verify the seal, so a flipped bit in RAM or on disk is
//! detected, counted (`cache_corrupt` / `journal_corrupt`), dropped,
//! and transparently recomputed as a miss — **a corrupted payload is
//! never served**. Admission runs through a [`ServiceGovernor`]
//! degradation ladder (nominal → shed-low → cache-only → reject) fed
//! by per-batch cold demand, and each miss is screened against the
//! request's `deadline_ms` with a deterministic cost model before any
//! work is spent on it.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use timber_resilience::{
    run_hardened, visit_log, HardenedSpec, JournalWriter, RetryPolicy, TrialJob,
};
use timber_telemetry::{ServiceCounter, ServiceStats};

use crate::cache::LruCache;
use crate::compile::{compile, evaluate, CompiledDesign};
use crate::governor::{ServiceGovernor, ServiceGovernorConfig, ServiceLevel};
use crate::integrity::{open, seal, SEAL_PREFIX_LEN};
use crate::key::CacheKey;
use crate::spec::{parse_request, EvalSpec, Priority, Request};

/// Default result-tier capacity (full response bodies).
pub const DEFAULT_RESULT_CAPACITY: usize = 1024;
/// Default design-tier capacity (compiled netlist artifacts).
pub const DEFAULT_DESIGN_CAPACITY: usize = 64;
/// Default per-attempt watchdog for one evaluation job.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);
/// Default attempts per evaluation before quarantine.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 2;
/// Deterministic cost model for deadline screening: simulated cycles
/// one wall-clock millisecond is assumed to cover. Deliberately a
/// *model*, not a measurement — wall-clock estimates would make
/// admission non-deterministic across machines.
pub const CYCLES_PER_MS: u64 = 100;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Result-tier capacity.
    pub result_capacity: usize,
    /// Design-tier capacity.
    pub design_capacity: usize,
    /// Worker threads for cache-miss batches (0 = all cores). Never
    /// changes any response byte.
    pub threads: usize,
    /// Append-only durability journal (`keyhex\tsealed-body` lines).
    pub journal: Option<PathBuf>,
    /// Preload the journal into the result cache at startup.
    pub resume: bool,
    /// Per-attempt watchdog for one evaluation job.
    pub watchdog: Duration,
    /// Attempts per evaluation before quarantine.
    pub max_attempts: u32,
    /// Backoff between evaluation attempts.
    pub retry: RetryPolicy,
    /// Treat a watchdog expiry as retryable instead of terminal.
    pub retry_hangs: bool,
    /// Admission-control ladder tuning (the default is inert).
    pub governor: ServiceGovernorConfig,
    /// Verify seals on cache reads. `false` is the chaos `--sabotage`
    /// switch: it disables exactly one checksum path so the campaign
    /// can prove it detects a served corruption.
    pub verify_reads: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            result_capacity: DEFAULT_RESULT_CAPACITY,
            design_capacity: DEFAULT_DESIGN_CAPACITY,
            threads: 0,
            journal: None,
            resume: false,
            watchdog: DEFAULT_WATCHDOG,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            retry: RetryPolicy::default_policy(),
            retry_hangs: false,
            governor: ServiceGovernorConfig::default(),
            verify_reads: true,
        }
    }
}

/// A one-shot fault armed by the chaos harness against the next cold
/// evaluation's **first attempt** (later attempts run clean, so the
/// retry machinery gets something to recover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFault {
    /// The first attempt sleeps past the watchdog and is abandoned.
    Hang,
    /// The first attempt stalls briefly, then fails retryably.
    Stall(Duration),
}

/// One rendered response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// Brace-free body fields (everything after `"id":N,`).
    pub body: String,
}

impl Response {
    /// The full single-line JSON document.
    pub fn render(&self) -> String {
        format!("{{\"id\":{},{}}}", self.id, self.body)
    }
}

/// What one batch produced.
#[derive(Debug)]
pub struct BatchOutput {
    /// Responses sorted by request id.
    pub responses: Vec<Response>,
    /// True if the batch contained a shutdown request.
    pub shutdown: bool,
}

/// `s` as a JSON string literal, quotes and escapes included — the one
/// helper every hand-assembled response and report line uses to embed
/// free text (error messages, panic payloads, check details).
pub fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_owned()).to_string()
}

/// A pending cold evaluation: the spec plus every request id waiting on
/// its key.
struct Pending {
    spec: EvalSpec,
    ids: Vec<u64>,
}

/// The persistent serving engine.
pub struct Engine {
    config: EngineConfig,
    results: LruCache<String>,
    designs: LruCache<CompiledDesign>,
    journal: Option<JournalWriter>,
    stats: ServiceStats,
    governor: ServiceGovernor,
    /// One-shot fault armed by the chaos harness, consumed by the next
    /// batch's first cold evaluation.
    armed_fault: Option<EvalFault>,
    /// Running id handed to requests that carry none.
    seq: u64,
}

impl Engine {
    /// Builds an engine, replaying the journal into the result cache
    /// when `resume` is set. Replay always verifies seals: a corrupt
    /// record is counted and dropped (the key recomputes as a miss),
    /// and torn or malformed lines land in `journal_torn_lines`.
    pub fn new(config: EngineConfig) -> io::Result<Engine> {
        let mut stats = ServiceStats::new();
        let mut results = LruCache::new(config.result_capacity);
        if let (Some(path), true) = (&config.journal, config.resume) {
            // Records stream from the file straight into the cache in
            // file order, so the last record per key wins — exactly the
            // state the journal writer left behind — and memory stays
            // at the cache plus one key per verified record. The keys
            // sit in one flat vector, deduplicated after the scan and
            // freed whole, so no per-key nodes stay resident among the
            // cache's strings.
            let mut resumed: Vec<CacheKey> = Vec::new();
            let mut corrupt = 0;
            let scan = visit_log(path, |key, sealed| match CacheKey::from_hex(key) {
                Some(key) if open(sealed, true).is_ok() => {
                    resumed.push(key);
                    results.insert(key, sealed.to_owned());
                }
                _ => corrupt += 1,
            })?;
            resumed.sort_unstable();
            resumed.dedup();
            stats.add(ServiceCounter::JournalTornLines, scan.dropped());
            stats.add(ServiceCounter::JournalCorrupt, corrupt);
            stats.add(ServiceCounter::Resumed, resumed.len() as u64);
        }
        let journal = match &config.journal {
            Some(path) => Some(JournalWriter::append(path)?),
            None => None,
        };
        Ok(Engine {
            designs: LruCache::new(config.design_capacity),
            governor: ServiceGovernor::new(config.governor),
            config,
            results,
            journal,
            stats,
            armed_fault: None,
            seq: 0,
        })
    }

    /// The engine's telemetry.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Result-tier occupancy (diagnostics).
    pub fn cached_results(&self) -> usize {
        self.results.len()
    }

    /// Current service degradation level.
    pub fn service_level(&self) -> ServiceLevel {
        self.governor.level()
    }

    /// Deadline cost model: the milliseconds `spec` is assumed to cost
    /// on a miss. A pure function of the spec, so admission is
    /// byte-identical everywhere.
    pub fn estimated_ms(spec: &EvalSpec) -> u64 {
        (spec.trials as u64)
            .saturating_mul(spec.cycles)
            .div_ceil(CYCLES_PER_MS)
    }

    /// Chaos hook: flips one payload byte of the `nth` cached result
    /// (in key order), past the seal prefix so the checksum — not the
    /// prefix parser — must catch it. Returns the corrupted key, or
    /// `None` if the cache holds fewer than `nth + 1` entries.
    pub fn corrupt_cached_result(&mut self, nth: usize, byte_seed: u64) -> Option<CacheKey> {
        let key = *self.results.keys().nth(nth)?;
        let sealed = self.results.peek_mut(&key)?;
        let body_len = sealed.len().checked_sub(SEAL_PREFIX_LEN)?;
        if body_len == 0 {
            return None;
        }
        let at = SEAL_PREFIX_LEN + (byte_seed % body_len as u64) as usize;
        // Replace with a printable byte that differs from the original,
        // keeping the entry valid UTF-8 and single-line.
        let replacement = if sealed.as_bytes()[at] == b'#' {
            "@"
        } else {
            "#"
        };
        sealed.replace_range(at..at + 1, replacement);
        Some(key)
    }

    /// Chaos hook: arms a one-shot [`EvalFault`] against the next cold
    /// evaluation's first attempt.
    pub fn arm_eval_fault(&mut self, fault: EvalFault) {
        self.armed_fault = Some(fault);
    }

    /// Fetches the compiled design for `spec`, compiling (and caching)
    /// it on a miss. `Err` is the compile panic's message.
    fn design_for(&mut self, spec: &EvalSpec) -> Result<CompiledDesign, String> {
        let dkey = spec.design_key();
        if let Some(d) = self.designs.get(&dkey) {
            self.stats.bump(ServiceCounter::DesignHits);
            return Ok(d.clone());
        }
        self.stats.bump(ServiceCounter::DesignMisses);
        let spec_copy = *spec;
        match catch_unwind(AssertUnwindSafe(move || compile(&spec_copy))) {
            Ok(design) => {
                let evicted = self.designs.insert(dkey, design.clone());
                self.stats
                    .add(ServiceCounter::DesignEvictions, evicted as u64);
                Ok(design)
            }
            Err(panic) => Err(panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "compile panicked".to_owned())),
        }
    }

    /// Processes one batch of request lines to completion.
    pub fn process_batch(&mut self, lines: &[String]) -> io::Result<BatchOutput> {
        self.stats.observe_queue_depth(lines.len());
        let mut responses: Vec<Response> = Vec::with_capacity(lines.len());
        let mut pending: BTreeMap<CacheKey, Pending> = BTreeMap::new();
        let mut stats_ids: Vec<u64> = Vec::new();
        let mut shutdown = false;
        // Distinct would-be-cold keys this batch, *including* shed and
        // deadline-rejected ones: the governor's demand signal must see
        // the arriving load, not just the admitted share, or shedding
        // would zero the signal and the ladder would flap.
        let mut cold_keys: BTreeSet<CacheKey> = BTreeSet::new();
        let level = self.governor.level();

        for line in lines {
            self.stats.bump(ServiceCounter::Requests);
            let default_id = self.seq;
            self.seq += 1;
            match parse_request(line, default_id) {
                Err(err) => {
                    self.stats.bump(ServiceCounter::Errors);
                    responses.push(Response {
                        id: default_id,
                        body: format!("\"status\":\"error\",\"error\":{}", json_str(&err)),
                    });
                }
                Ok(Request::Stats { id }) => {
                    self.stats.bump(ServiceCounter::StatsRequests);
                    stats_ids.push(id);
                }
                Ok(Request::Shutdown { id }) => {
                    shutdown = true;
                    responses.push(Response {
                        id,
                        body: "\"status\":\"ok\",\"shutdown\":true".to_owned(),
                    });
                }
                Ok(Request::Eval {
                    id,
                    spec,
                    priority,
                    deadline_ms,
                }) => {
                    self.stats.bump(ServiceCounter::Evals);
                    let key = spec.key();
                    let probe = Instant::now();
                    // Probe (and verify) the cache before admission, so
                    // a corrupt entry is quarantined whatever the level.
                    let cached = match self.results.get(&key) {
                        Some(sealed) => match open(sealed, self.config.verify_reads) {
                            Ok(body) => Some(body.to_owned()),
                            Err(_) => {
                                // Bit-rot: drop the entry so it
                                // recomputes as a miss, never served.
                                self.stats.bump(ServiceCounter::CacheCorrupt);
                                self.results.remove(&key);
                                None
                            }
                        },
                        None => None,
                    };
                    if let Some(body) = cached {
                        if level.serves_hits() {
                            self.stats.bump(ServiceCounter::Hits);
                            // Clamp to ≥ 1ns so a sub-tick probe cannot
                            // zero the mean and void the speedup figure.
                            self.stats
                                .hit_latency
                                .record((probe.elapsed().as_nanos() as u64).max(1));
                            responses.push(Response { id, body });
                        } else {
                            self.stats.bump(ServiceCounter::Shed);
                            responses.push(Response {
                                id,
                                body: self.shed_body(level),
                            });
                        }
                    } else if let Some(p) = pending.get_mut(&key) {
                        // Batch coalescing: same content, one compute.
                        self.stats.bump(ServiceCounter::Hits);
                        self.stats
                            .hit_latency
                            .record((probe.elapsed().as_nanos() as u64).max(1));
                        p.ids.push(id);
                    } else {
                        cold_keys.insert(key);
                        if !level.admits_miss(priority == Priority::High) {
                            self.stats.bump(ServiceCounter::Shed);
                            responses.push(Response {
                                id,
                                body: self.shed_body(level),
                            });
                        } else if deadline_ms
                            .is_some_and(|budget| Engine::estimated_ms(&spec) > budget)
                        {
                            // The cost model says this miss cannot make
                            // its deadline: reject before spending work.
                            self.stats.bump(ServiceCounter::DeadlineRejected);
                            responses.push(Response {
                                id,
                                body: format!(
                                    "\"status\":\"deadline\",\"estimated_ms\":{},\
                                     \"deadline_ms\":{}",
                                    Engine::estimated_ms(&spec),
                                    deadline_ms.expect("deadline present"),
                                ),
                            });
                        } else {
                            self.stats.bump(ServiceCounter::Misses);
                            pending.insert(
                                key,
                                Pending {
                                    spec,
                                    ids: vec![id],
                                },
                            );
                        }
                    }
                }
            }
        }

        self.run_pending(pending, &mut responses)?;

        // Close the governor's estimator window on this batch's demand.
        if let Some(t) = self.governor.observe_batch(cold_keys.len() as u64) {
            self.stats.bump(if t.is_escalation() {
                ServiceCounter::GovernorEscalations
            } else {
                ServiceCounter::GovernorDeescalations
            });
        }

        // Stats responses last, so they see the whole batch's counters.
        for id in stats_ids {
            responses.push(Response {
                id,
                body: format!("\"status\":\"ok\",\"stats\":{}", self.stats.json()),
            });
        }
        responses.sort_by_key(|r| r.id);
        Ok(BatchOutput {
            responses,
            shutdown,
        })
    }

    /// The deterministic body of a shed response at `level`.
    fn shed_body(&self, level: ServiceLevel) -> String {
        format!(
            "\"status\":\"shed\",\"level\":\"{}\",\"retry_after_batches\":{}",
            level.name(),
            self.governor.retry_after(),
        )
    }

    /// Compiles, evaluates, journals and answers every pending miss.
    fn run_pending(
        &mut self,
        pending: BTreeMap<CacheKey, Pending>,
        responses: &mut Vec<Response>,
    ) -> io::Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        // Design tier first, in canonical key order: one compile per
        // unique design, each isolated against panics.
        let mut ready: Vec<(CacheKey, Pending, CompiledDesign, u64)> = Vec::new();
        for (key, p) in pending {
            let started = Instant::now();
            match self.design_for(&p.spec) {
                Ok(design) => ready.push((key, p, design, started.elapsed().as_nanos() as u64)),
                Err(detail) => {
                    self.stats
                        .add(ServiceCounter::Quarantined, p.ids.len() as u64);
                    let body = format!(
                        "\"status\":\"quarantined\",\"key\":\"{}\",\"kind\":\"panic\",\
                         \"attempts\":1,\"detail\":{}",
                        key.hex(),
                        json_str(&detail)
                    );
                    for id in p.ids {
                        responses.push(Response {
                            id,
                            body: body.clone(),
                        });
                    }
                }
            }
        }
        if ready.is_empty() {
            return Ok(());
        }

        // Evaluation batch through the hardened work-pull executor:
        // catch_unwind isolation, wall-clock watchdog, bounded retries,
        // quarantine instead of a dead daemon. Per-job durations (first
        // attempt start to successful return) ride out through a side
        // table keyed by job index.
        let durations: Arc<Mutex<BTreeMap<usize, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let armed = self.armed_fault.take();
        let watchdog = self.config.watchdog;
        let jobs: Vec<TrialJob> = ready
            .iter()
            .enumerate()
            .map(|(pos, (_, p, design, _))| {
                let spec = p.spec;
                let design = design.clone();
                let durations = Arc::clone(&durations);
                // An armed chaos fault hits the batch's first cold job,
                // first attempt only; retries run clean.
                let fault = if pos == 0 { armed } else { None };
                let attempts_seen = Arc::new(AtomicU32::new(0));
                let first_attempt: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
                let job: TrialJob = Arc::new(move || {
                    let started = *first_attempt.get_or_init(Instant::now);
                    let attempt = attempts_seen.fetch_add(1, Ordering::SeqCst);
                    if attempt == 0 {
                        match fault {
                            Some(EvalFault::Hang) => {
                                // Sleep well past the watchdog; the
                                // executor abandons this attempt, and its
                                // worker discards the result and exits.
                                std::thread::sleep(
                                    watchdog.saturating_mul(40).max(Duration::from_secs(2)),
                                );
                                return Err("chaos: hung attempt abandoned".to_owned());
                            }
                            Some(EvalFault::Stall(delay)) => {
                                std::thread::sleep(delay);
                                return Err("chaos: injected stall".to_owned());
                            }
                            None => {}
                        }
                    }
                    let body = evaluate(&design, &spec);
                    durations
                        .lock()
                        .expect("duration table")
                        .insert(pos, started.elapsed().as_nanos() as u64);
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
        self.stats.add(ServiceCounter::Retries, outcome.retries);

        let mut quarantined: BTreeMap<usize, &timber_resilience::QuarantineEntry> =
            outcome.quarantined.iter().map(|q| (q.index, q)).collect();
        let durations = durations.lock().expect("duration table");
        let mut sealed = Vec::with_capacity(ready.len());
        for (pos, ((key, p, _, design_ns), payload)) in
            ready.iter().zip(outcome.payloads.iter()).enumerate()
        {
            match payload {
                Some(body) => {
                    // One cold sample per unique key: its own design
                    // fetch plus its job's wall time from first attempt
                    // to successful return (retries and backoff
                    // included, queue wait excluded).
                    let eval_ns = durations.get(&pos).copied().unwrap_or(0);
                    self.stats.miss_latency.record((design_ns + eval_ns).max(1));
                    // Seal once; the cache and journal both store the
                    // checksummed form so every later read verifies.
                    sealed.push((*key, seal(body)));
                    for &id in &p.ids {
                        responses.push(Response {
                            id,
                            body: body.clone(),
                        });
                    }
                }
                None => {
                    let (kind, attempts, detail) = match quarantined.remove(&pos) {
                        Some(q) => (q.kind.name(), q.attempts, q.detail.clone()),
                        None => ("panic", 1, "evaluation did not complete".to_owned()),
                    };
                    self.stats
                        .add(ServiceCounter::Quarantined, p.ids.len() as u64);
                    let body = format!(
                        "\"status\":\"quarantined\",\"key\":\"{}\",\"kind\":\"{kind}\",\
                         \"attempts\":{attempts},\"detail\":{}",
                        key.hex(),
                        json_str(&detail)
                    );
                    for &id in &p.ids {
                        responses.push(Response {
                            id,
                            body: body.clone(),
                        });
                    }
                }
            }
        }
        // One journal append and flush for the whole batch, before any
        // of its responses leaves `process_batch`.
        if let Some(journal) = &mut self.journal {
            journal.record_all(sealed.iter().map(|(key, body)| (key.hex(), body)))?;
        }
        for (key, body) in sealed {
            let evicted = self.results.insert(key, body);
            self.stats.add(ServiceCounter::Evictions, evicted as u64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::content_hash;

    fn tiny() -> EngineConfig {
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        }
    }

    fn lines(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn miss_then_hit_serves_identical_bytes() {
        let mut e = Engine::new(tiny()).unwrap();
        let cold = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        let warm = e
            .process_batch(&lines(&[r#"{"id":2,"design":"rca16"}"#]))
            .unwrap();
        assert_eq!(cold.responses.len(), 1);
        assert_eq!(cold.responses[0].body, warm.responses[0].body);
        assert_eq!(
            cold.responses[0].render(),
            "{\"id\":1,".to_owned() + &cold.responses[0].body + "}"
        );
        assert_eq!(e.stats().counter(ServiceCounter::Hits), 1);
        assert_eq!(e.stats().counter(ServiceCounter::Misses), 1);
        assert!(e.stats().hit_speedup() > 1.0);
    }

    #[test]
    fn duplicate_keys_in_one_batch_coalesce() {
        let mut e = Engine::new(tiny()).unwrap();
        let out = e
            .process_batch(&lines(&[
                r#"{"id":1,"design":"rca16"}"#,
                r#"{"id":2,"design":"rca16"}"#,
                r#"{"id":3,"design":"rca16","seed":8}"#,
            ]))
            .unwrap();
        assert_eq!(out.responses.len(), 3);
        assert_eq!(out.responses[0].body, out.responses[1].body);
        assert_ne!(out.responses[0].body, out.responses[2].body);
        assert_eq!(e.stats().counter(ServiceCounter::Misses), 2);
        assert_eq!(e.stats().counter(ServiceCounter::Hits), 1);
        // One design, compiled once, reused for the second unique spec.
        assert_eq!(e.stats().counter(ServiceCounter::DesignMisses), 1);
        assert_eq!(e.stats().counter(ServiceCounter::DesignHits), 1);
    }

    #[test]
    fn poison_is_quarantined_and_the_engine_survives() {
        let mut e = Engine::new(tiny()).unwrap();
        let out = e
            .process_batch(&lines(&[
                r#"{"id":1,"design":"poison"}"#,
                r#"{"id":2,"design":"rca16"}"#,
            ]))
            .unwrap();
        assert_eq!(out.responses.len(), 2);
        assert!(out.responses[0].body.contains("\"status\":\"quarantined\""));
        assert!(out.responses[0].body.contains("poison"));
        assert!(out.responses[1].body.contains("\"status\":\"ok\""));
        assert_eq!(e.stats().counter(ServiceCounter::Quarantined), 1);
        // The daemon keeps serving afterwards.
        let again = e
            .process_batch(&lines(&[r#"{"id":3,"design":"rca16"}"#]))
            .unwrap();
        assert!(again.responses[0].body.contains("\"status\":\"ok\""));
    }

    #[test]
    fn malformed_and_unknown_lines_answer_deterministic_errors() {
        let mut e = Engine::new(tiny()).unwrap();
        let out = e
            .process_batch(&lines(&[r#"{"design":"rca16","frob":1}"#, "not json"]))
            .unwrap();
        assert_eq!(out.responses.len(), 2);
        for r in &out.responses {
            assert!(r.body.contains("\"status\":\"error\""), "{}", r.body);
        }
        assert_eq!(e.stats().counter(ServiceCounter::Errors), 2);
        assert_eq!(e.stats().counter(ServiceCounter::Evals), 0);
    }

    #[test]
    fn responses_sort_by_id_whatever_the_arrival_order() {
        let mut e = Engine::new(tiny()).unwrap();
        let out = e
            .process_batch(&lines(&[
                r#"{"id":9,"design":"rca16"}"#,
                r#"{"id":1,"design":"ks16"}"#,
                r#"{"id":5,"op":"stats"}"#,
            ]))
            .unwrap();
        let ids: Vec<u64> = out.responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 5, 9]);
    }

    #[test]
    fn shutdown_flag_and_stats_body() {
        let mut e = Engine::new(tiny()).unwrap();
        let out = e
            .process_batch(&lines(&[
                r#"{"op":"stats","id":1}"#,
                r#"{"op":"shutdown","id":2}"#,
            ]))
            .unwrap();
        assert!(out.shutdown);
        assert!(out.responses[0].body.contains("\"stats\":{\"counters\""));
        assert!(out.responses[1].body.contains("\"shutdown\":true"));
    }

    #[test]
    fn journal_resume_preloads_the_cache() {
        let mut path = std::env::temp_dir();
        path.push(format!("timber-serve-journal-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut cfg = tiny();
        cfg.journal = Some(path.clone());
        let mut e = Engine::new(cfg.clone()).unwrap();
        let cold = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        drop(e);

        cfg.resume = true;
        let mut e2 = Engine::new(cfg).unwrap();
        assert_eq!(e2.stats().counter(ServiceCounter::Resumed), 1);
        let warm = e2
            .process_batch(&lines(&[r#"{"id":7,"design":"rca16"}"#]))
            .unwrap();
        assert_eq!(warm.responses[0].body, cold.responses[0].body);
        assert_eq!(e2.stats().counter(ServiceCounter::Hits), 1);
        assert_eq!(e2.stats().counter(ServiceCounter::Misses), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn engine_assigns_sequence_ids_when_absent() {
        let mut e = Engine::new(tiny()).unwrap();
        let out = e
            .process_batch(&lines(&[r#"{"op":"stats"}"#, r#"{"op":"stats"}"#]))
            .unwrap();
        let ids: Vec<u64> = out.responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn corrupted_cache_entry_is_detected_and_recomputed_never_served() {
        let mut e = Engine::new(tiny()).unwrap();
        let cold = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        let key = e.corrupt_cached_result(0, 13).expect("one cached entry");
        let again = e
            .process_batch(&lines(&[r#"{"id":2,"design":"rca16"}"#]))
            .unwrap();
        // Same bytes as the uncorrupted run: recomputed, not served.
        assert_eq!(again.responses[0].body, cold.responses[0].body);
        assert_eq!(e.stats().counter(ServiceCounter::CacheCorrupt), 1);
        assert_eq!(e.stats().counter(ServiceCounter::Misses), 2);
        assert_eq!(e.stats().counter(ServiceCounter::Hits), 0);
        assert_eq!(key, {
            let Request::Eval { spec, .. } = parse_request(r#"{"design":"rca16"}"#, 0).unwrap()
            else {
                panic!("eval")
            };
            spec.key()
        });
    }

    #[test]
    fn sabotaged_verification_serves_the_corruption() {
        // The negative control the chaos campaign relies on: with
        // verify_reads off, the corrupted bytes flow straight out.
        let mut cfg = tiny();
        cfg.verify_reads = false;
        let mut e = Engine::new(cfg).unwrap();
        let cold = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        e.corrupt_cached_result(0, 13).expect("one cached entry");
        let again = e
            .process_batch(&lines(&[r#"{"id":2,"design":"rca16"}"#]))
            .unwrap();
        assert_ne!(again.responses[0].body, cold.responses[0].body);
        assert_eq!(e.stats().counter(ServiceCounter::CacheCorrupt), 0);
        assert_eq!(e.stats().counter(ServiceCounter::Hits), 1);
    }

    #[test]
    fn governor_sheds_and_recovers() {
        let mut cfg = tiny();
        cfg.governor = crate::governor::ServiceGovernorConfig {
            escalate_backlog: 1,
            deescalate_backlog: 0,
            hold_batches: 1,
        };
        let mut e = Engine::new(cfg).unwrap();
        // Batch 1: cold demand 1 ≥ 1 escalates to shed-low after it.
        let first = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        assert!(first.responses[0].body.contains("\"status\":\"ok\""));
        assert_eq!(e.service_level(), ServiceLevel::ShedLow);
        // Batch 2: a low-priority miss is shed; the hit still serves.
        let second = e
            .process_batch(&lines(&[
                r#"{"id":2,"design":"ks16","priority":"low"}"#,
                r#"{"id":3,"design":"rca16"}"#,
            ]))
            .unwrap();
        assert!(
            second.responses[0].body.contains("\"status\":\"shed\""),
            "{}",
            second.responses[0].body
        );
        assert!(second.responses[0].body.contains("\"level\":\"shed-low\""));
        assert!(second.responses[1].body.contains("\"status\":\"ok\""));
        assert_eq!(e.stats().counter(ServiceCounter::Shed), 1);
        assert_eq!(e.stats().counter(ServiceCounter::GovernorEscalations), 2);
        // Idle batches walk the ladder back down.
        for _ in 0..8 {
            let _ = e.process_batch(&[]).unwrap();
        }
        assert_eq!(e.service_level(), ServiceLevel::Nominal);
        assert!(e.stats().counter(ServiceCounter::GovernorDeescalations) >= 2);
    }

    #[test]
    fn deadline_screening_rejects_unaffordable_misses_but_serves_hits() {
        let mut e = Engine::new(tiny()).unwrap();
        // Defaults: trials=2, cycles=400 → 800 cycles → 8 ms estimate.
        let out = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16","deadline_ms":2}"#]))
            .unwrap();
        assert!(
            out.responses[0].body.contains("\"status\":\"deadline\""),
            "{}",
            out.responses[0].body
        );
        assert!(out.responses[0].body.contains("\"estimated_ms\":8"));
        assert_eq!(e.stats().counter(ServiceCounter::DeadlineRejected), 1);
        // A generous deadline admits; once cached, even a tight one hits.
        let ok = e
            .process_batch(&lines(&[
                r#"{"id":2,"design":"rca16","deadline_ms":60000}"#,
            ]))
            .unwrap();
        assert!(ok.responses[0].body.contains("\"status\":\"ok\""));
        let warm = e
            .process_batch(&lines(&[r#"{"id":3,"design":"rca16","deadline_ms":2}"#]))
            .unwrap();
        assert!(warm.responses[0].body.contains("\"status\":\"ok\""));
        assert_eq!(e.stats().counter(ServiceCounter::Hits), 1);
    }

    #[test]
    fn armed_stall_fault_is_retried_and_counted() {
        let mut e = Engine::new(tiny()).unwrap();
        e.arm_eval_fault(EvalFault::Stall(Duration::from_millis(5)));
        let out = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        assert!(out.responses[0].body.contains("\"status\":\"ok\""));
        assert_eq!(e.stats().counter(ServiceCounter::Retries), 1);
        // The fault was one-shot: a fresh miss runs clean.
        let next = e
            .process_batch(&lines(&[r#"{"id":2,"design":"ks16"}"#]))
            .unwrap();
        assert!(next.responses[0].body.contains("\"status\":\"ok\""));
        assert_eq!(e.stats().counter(ServiceCounter::Retries), 1);
    }

    #[test]
    fn miss_latency_is_each_keys_own_cost_not_the_batch_tail() {
        let mut e = Engine::new(tiny()).unwrap();
        let stall = Duration::from_millis(200);
        e.arm_eval_fault(EvalFault::Stall(stall));
        let out = e
            .process_batch(&lines(&[
                r#"{"id":1,"design":"rca16"}"#,
                r#"{"id":2,"design":"ks16"}"#,
                r#"{"id":3,"design":"mul8"}"#,
                r#"{"id":4,"design":"alu8"}"#,
            ]))
            .unwrap();
        assert!(out
            .responses
            .iter()
            .all(|r| r.body.contains("\"status\":\"ok\"")));
        // Only the stalled job's sample carries the stall; the other
        // three keys finished long before the batch did.
        let miss = &e.stats().miss_latency;
        let stall_ns = stall.as_nanos() as u64;
        assert_eq!(miss.count(), 4);
        assert!(miss.quantile(1.0) >= stall_ns, "{}", miss.json());
        assert!(miss.quantile(2.0 / 3.0) < stall_ns, "{}", miss.json());
    }

    #[test]
    fn armed_hang_fault_recovers_when_hang_retries_are_on() {
        let mut cfg = tiny();
        cfg.watchdog = Duration::from_millis(100);
        cfg.retry_hangs = true;
        let mut e = Engine::new(cfg).unwrap();
        e.arm_eval_fault(EvalFault::Hang);
        let out = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        assert!(
            out.responses[0].body.contains("\"status\":\"ok\""),
            "{}",
            out.responses[0].body
        );
        assert_eq!(e.stats().counter(ServiceCounter::Retries), 1);
        assert_eq!(e.stats().counter(ServiceCounter::Quarantined), 0);
    }

    #[test]
    fn torn_journal_tail_is_counted_and_resume_still_works() {
        let mut path = std::env::temp_dir();
        path.push(format!("timber-serve-torn-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut cfg = tiny();
        cfg.journal = Some(path.clone());
        let mut e = Engine::new(cfg.clone()).unwrap();
        let cold = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        drop(e);
        // Tear a partial append onto the tail, as a kill would.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "deadbeef\t{{\"tru").unwrap();
        }
        cfg.resume = true;
        let mut e2 = Engine::new(cfg).unwrap();
        assert_eq!(e2.stats().counter(ServiceCounter::JournalTornLines), 1);
        assert_eq!(e2.stats().counter(ServiceCounter::Resumed), 1);
        let warm = e2
            .process_batch(&lines(&[r#"{"id":7,"design":"rca16"}"#]))
            .unwrap();
        assert_eq!(warm.responses[0].body, cold.responses[0].body);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_journal_record_is_dropped_and_recomputed_on_resume() {
        let mut path = std::env::temp_dir();
        path.push(format!("timber-serve-rot-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut cfg = tiny();
        cfg.journal = Some(path.clone());
        let mut e = Engine::new(cfg.clone()).unwrap();
        let cold = e
            .process_batch(&lines(&[r#"{"id":1,"design":"rca16"}"#]))
            .unwrap();
        drop(e);
        // Flip one payload byte on disk (past key, tab and seal prefix).
        let mut bytes = std::fs::read(&path).unwrap();
        let tab = bytes.iter().position(|&b| b == b'\t').unwrap();
        let at = tab + 1 + SEAL_PREFIX_LEN + 3;
        bytes[at] = if bytes[at] == b'#' { b'@' } else { b'#' };
        std::fs::write(&path, &bytes).unwrap();

        cfg.resume = true;
        let mut e2 = Engine::new(cfg).unwrap();
        assert_eq!(e2.stats().counter(ServiceCounter::JournalCorrupt), 1);
        assert_eq!(e2.stats().counter(ServiceCounter::Resumed), 0);
        let again = e2
            .process_batch(&lines(&[r#"{"id":7,"design":"rca16"}"#]))
            .unwrap();
        // Recomputed to the exact uncorrupted bytes, as a miss.
        assert_eq!(again.responses[0].body, cold.responses[0].body);
        assert_eq!(e2.stats().counter(ServiceCounter::Misses), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_past_capacity_keeps_the_last_distinct_keys_in_file_order() {
        let mut path = std::env::temp_dir();
        path.push(format!("timber-serve-overflow-{}", std::process::id()));
        let line = |id: u64, seed: u64| format!(r#"{{"id":{id},"design":"rca16","seed":{seed}}}"#);
        let key = |seed: u64| match parse_request(&line(0, seed), 0) {
            Ok(Request::Eval { spec, .. }) => spec.key(),
            other => panic!("expected eval, got {other:?}"),
        };
        let body =
            |seed: u64, version: u32| format!(r#""status":"ok","journal":"{seed}v{version}""#);
        let record = |seed: u64, version: u32| {
            format!("{}\t{}\n", key(seed).hex(), seal(&body(seed, version)))
        };
        // Ten lines: seeds 0-3, a later record for seed 1, a record for
        // seed 4 whose seal fails, seeds 5-7, then a torn append.
        let mut journal: String = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1)]
            .iter()
            .map(|&(seed, version)| record(seed, version))
            .collect();
        let rotten = record(4, 0);
        let at = rotten.find('\t').unwrap() + 1 + SEAL_PREFIX_LEN + 2;
        journal.push_str(&rotten[..at]);
        journal.push_str(if &rotten[at..at + 1] == "#" { "@" } else { "#" });
        journal.push_str(&rotten[at + 1..]);
        for seed in 5..8 {
            journal.push_str(&record(seed, 0));
        }
        journal.push_str("deadbeef\t{\"tru");
        std::fs::write(&path, &journal).unwrap();

        let mut cfg = tiny();
        cfg.result_capacity = 4;
        cfg.journal = Some(path.clone());
        cfg.resume = true;
        let mut e = Engine::new(cfg).unwrap();
        // Seven distinct keys verified; four fit.
        assert_eq!(e.stats().counter(ServiceCounter::Resumed), 7);
        assert_eq!(e.stats().counter(ServiceCounter::JournalCorrupt), 1);
        assert_eq!(e.stats().counter(ServiceCounter::JournalTornLines), 1);
        assert_eq!(e.stats().counter(ServiceCounter::Evictions), 0);

        // The survivors are the last four distinct keys by last record
        // (seed 1's rewrite outlives seeds 0, 2 and 3), least recent first.
        let survivors = [1, 5, 6, 7];
        let mut probe = e.results.clone();
        for (n, &seed) in survivors.iter().enumerate() {
            assert!(probe.peek(&key(seed)).is_some(), "seed {seed} resumed");
            assert_eq!(probe.insert(content_hash(&[n as u8]), String::new()), 1);
            assert!(
                probe.peek(&key(seed)).is_none(),
                "victim {n} is seed {seed}"
            );
        }

        // All four hit, serving the journal's bytes (the later of seed
        // 1's two records).
        let hits: Vec<String> = survivors.iter().map(|&s| line(s, s)).collect();
        let out = e.process_batch(&hits).unwrap();
        assert_eq!(e.stats().counter(ServiceCounter::Hits), 4);
        assert_eq!(e.stats().counter(ServiceCounter::Misses), 0);
        let served: Vec<&str> = out.responses.iter().map(|r| r.body.as_str()).collect();
        assert_eq!(served, [body(1, 1), body(5, 0), body(6, 0), body(7, 0)]);
        assert!(e.results.peek(&key(0)).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
