//! The chaos campaign: drives a live [`Engine`] through warm-up, a
//! governor ladder walk, a deadline screen, every planned fault, a
//! checksum sentinel and a final replay — demanding *exact accounting*
//! (every injected fault detected and recovered or quarantined, zero
//! corrupted responses served, final bytes identical to an unfaulted
//! oracle) for any thread count.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use timber_resilience::RetryPolicy;
use timber_schemes::SchemeId;
use timber_serve::{
    json_str, parse_request, CacheKey, DesignId, Engine, EngineConfig, EvalFault, Request,
    ServiceGovernorConfig, SEAL_PREFIX_LEN,
};
use timber_telemetry::ServiceCounter;
use timber_variability::splitmix64;

use crate::plan::{FaultKind, FaultPlan};
use crate::ChaosSpec;

/// Distinct specs in the warm-up pool.
const POOL: usize = 12;
/// Warm-up batch size: small enough that pool demand never trips the
/// tight governor's escalation threshold.
const WARM_BATCH: usize = 4;
/// Cold specs per surge batch — exactly the tight governor's
/// `escalate_backlog`, so each surge climbs one rung.
const SURGE: usize = 8;
/// Idle batches after the surge: enough calm observations to walk the
/// whole ladder back down (3 rungs × `hold_batches = 2`).
const IDLE_BATCHES: usize = 8;
/// Per-attempt watchdog for the engine under test: short enough that a
/// hung attempt is abandoned quickly, long enough that a clean 300
/// cycle trial never trips it.
const WATCHDOG: Duration = Duration::from_millis(250);

/// One named verdict the campaign records.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable check name (report key).
    pub name: &'static str,
    /// Whether the service behaved as the contract demands.
    pub pass: bool,
    /// Deterministic evidence (counts, first divergence, …).
    pub detail: String,
}

/// Campaign outcome: the accounting ledger plus every named check.
#[derive(Debug)]
pub struct ChaosReport {
    /// The campaign parameters.
    pub spec: ChaosSpec,
    /// Faults injected, indexed like [`FaultKind::ALL`].
    pub injected: [u64; 7],
    /// Faults detected and recovered/quarantined, same indexing.
    pub detected: [u64; 7],
    /// Every named verdict, in execution order.
    pub checks: Vec<Check>,
    /// The engine-under-test's final counter block (JSON object).
    pub counters: String,
}

impl ChaosReport {
    /// The gate: every check holds and every injected fault is
    /// accounted for.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass) && self.injected == self.detected
    }

    /// The canonical machine-readable report. Deliberately free of
    /// wall-clock, paths and thread counts, so the same `(seed,
    /// faults, sabotage)` campaign is byte-identical everywhere.
    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"tool\":\"timber-chaos\",\"schema_version\":1,\"seed\":{},\"faults\":{},\
             \"sabotage\":{}",
            self.spec.seed, self.spec.faults, self.spec.sabotage
        ));
        out.push_str(",\"taxonomy\":[");
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"injected\":{},\"detected\":{},\"defense\":{}}}",
                kind.name(),
                self.injected[i],
                self.detected[i],
                json_str(kind.expected_defense())
            ));
        }
        out.push_str("],\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"pass\":{},\"detail\":{}}}",
                c.name,
                c.pass,
                json_str(&c.detail)
            ));
        }
        out.push_str(&format!(
            "],\"counters\":{},\"pass\":{}}}",
            self.counters,
            self.pass()
        ));
        out
    }

    /// Human-readable summary: the fault taxonomy ledger and every
    /// check verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos: seed {} | {} faults | sabotage {}\n",
            self.spec.seed, self.spec.faults, self.spec.sabotage
        ));
        out.push_str("fault taxonomy (injected/detected):\n");
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            out.push_str(&format!(
                "  {:<13} {:>2}/{:<2}  {}\n",
                kind.name(),
                self.injected[i],
                self.detected[i],
                kind.expected_defense()
            ));
        }
        out.push_str("checks:\n");
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                if c.pass { "ok" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        out.push_str(if self.pass() { "PASS\n" } else { "FAIL\n" });
        out
    }
}

fn kind_index(kind: FaultKind) -> usize {
    FaultKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("kind")
}

/// The undecorated warm-up pool line for entry `j` (its id *is* `j`).
fn pool_line(seed: u64, j: usize) -> String {
    let design = DesignId::EVALUABLE[j % DesignId::EVALUABLE.len()];
    let scheme = SchemeId::ALL[j % SchemeId::ALL.len()];
    format!(
        "{{\"id\":{j},\"design\":\"{}\",\"scheme\":\"{}\",\"trials\":1,\"cycles\":300,\
         \"seed\":{seed}}}",
        design.name(),
        scheme.name(),
    )
}

/// The content key a request line would be cached under.
fn key_of(line: &str) -> Option<CacheKey> {
    match parse_request(line, 0) {
        Ok(Request::Eval { spec, .. }) => Some(spec.key()),
        _ => None,
    }
}

struct Campaign {
    spec: ChaosSpec,
    engine: Engine,
    /// Rendered oracle responses for the pool, by id.
    oracle: BTreeMap<u64, String>,
    /// Every successfully served cold spec: key → (line, body). The
    /// victims the cache/journal faults may select from.
    served: BTreeMap<CacheKey, (String, String)>,
    checks: Vec<Check>,
    injected: [u64; 7],
    detected: [u64; 7],
    journal: PathBuf,
    scratch: Vec<PathBuf>,
    /// Sequence for fresh (never-before-seen) specs.
    fresh: u64,
}

impl Campaign {
    fn scratch_path(spec: &ChaosSpec, tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "timber-chaos-{}-{}-{}-{}.journal",
            std::process::id(),
            spec.seed,
            u8::from(spec.sabotage),
            tag
        ))
    }

    fn new(spec: &ChaosSpec) -> io::Result<Campaign> {
        // The unfaulted oracle: an inert-governor engine, no journal,
        // same thread count (threads must never change a byte).
        let mut oracle_engine = Engine::new(EngineConfig {
            threads: spec.threads,
            ..EngineConfig::default()
        })?;
        let mut oracle = BTreeMap::new();
        let lines: Vec<String> = (0..POOL).map(|j| pool_line(spec.seed, j)).collect();
        for batch in lines.chunks(WARM_BATCH) {
            for r in oracle_engine.process_batch(batch)?.responses {
                oracle.insert(r.id, r.render());
            }
        }
        let journal = Campaign::scratch_path(spec, "main");
        let _ = fs::remove_file(&journal);
        let engine = Engine::new(EngineConfig {
            threads: spec.threads,
            journal: Some(journal.clone()),
            watchdog: WATCHDOG,
            retry: RetryPolicy::from_millis(1, 2, spec.seed),
            retry_hangs: true,
            governor: ServiceGovernorConfig::tight(),
            verify_reads: !spec.sabotage,
            ..EngineConfig::default()
        })?;
        Ok(Campaign {
            spec: spec.clone(),
            engine,
            oracle,
            served: BTreeMap::new(),
            checks: Vec::new(),
            injected: [0; 7],
            detected: [0; 7],
            journal,
            scratch: Vec::new(),
            fresh: 0,
        })
    }

    fn check(&mut self, name: &'static str, pass: bool, detail: String) {
        self.checks.push(Check { name, pass, detail });
    }

    fn counter(&self, c: ServiceCounter) -> u64 {
        self.engine.stats().counter(c)
    }

    /// A never-before-seen spec line (distinct content key each call).
    fn fresh_line(&mut self, extra: &str) -> String {
        self.fresh += 1;
        format!(
            "{{\"id\":{},\"design\":\"rca16\",\"trials\":1,\"cycles\":300,\"seed\":{}{extra}}}",
            1000 + self.fresh,
            700_000 + self.fresh,
        )
    }

    /// Sends one line and returns its lone response as `(body, render)`.
    fn send_one(&mut self, line: String) -> io::Result<(String, String)> {
        let out = self.engine.process_batch(std::slice::from_ref(&line))?;
        let r = out.responses.into_iter().next().expect("one response");
        if r.body.starts_with("\"status\":\"ok\"") {
            if let Some(key) = key_of(&line) {
                self.served.insert(key, (line, r.body.clone()));
            }
        }
        Ok((r.body.clone(), r.render()))
    }

    /// Replays the whole pool through `engine` and reports the first
    /// divergence from the oracle, if any.
    fn replay_pool(&self, engine: &mut Engine) -> io::Result<Option<u64>> {
        let lines: Vec<String> = (0..POOL).map(|j| pool_line(self.spec.seed, j)).collect();
        let mut got: BTreeMap<u64, String> = BTreeMap::new();
        for batch in lines.chunks(WARM_BATCH) {
            for r in engine.process_batch(batch)?.responses {
                got.insert(r.id, r.render());
            }
        }
        for (id, want) in &self.oracle {
            if got.get(id) != Some(want) {
                return Ok(Some(*id));
            }
        }
        Ok(None)
    }

    /// Phase 1: the warm-up pass must match the oracle byte-for-byte
    /// and leave every pool spec cached and journalled.
    fn warmup(&mut self) -> io::Result<()> {
        let lines: Vec<String> = (0..POOL).map(|j| pool_line(self.spec.seed, j)).collect();
        let mut got: BTreeMap<u64, String> = BTreeMap::new();
        for batch in lines.chunks(WARM_BATCH) {
            for r in self.engine.process_batch(batch)?.responses {
                if r.body.starts_with("\"status\":\"ok\"") {
                    if let Some(key) = key_of(&lines[r.id as usize]) {
                        self.served
                            .insert(key, (lines[r.id as usize].clone(), r.body.clone()));
                    }
                }
                got.insert(r.id, r.render());
            }
        }
        let divergence = self
            .oracle
            .iter()
            .find(|(id, want)| got.get(id) != Some(want))
            .map(|(id, _)| *id);
        self.check(
            "warmup-matches-oracle",
            divergence.is_none(),
            match divergence {
                None => format!("{POOL} responses byte-identical to the unfaulted oracle"),
                Some(id) => format!("first divergence at id {id}"),
            },
        );
        Ok(())
    }

    /// Phase 2: three surge batches walk the governor to `reject`, idle
    /// batches walk it back, and a shed spec is then served.
    fn ladder_walk(&mut self) -> io::Result<()> {
        let esc0 = self.counter(ServiceCounter::GovernorEscalations);
        let shed0 = self.counter(ServiceCounter::Shed);
        let mut last_surge: Vec<String> = Vec::new();
        for _ in 0..3 {
            let batch: Vec<String> = (0..SURGE).map(|_| self.fresh_line("")).collect();
            for r in self.engine.process_batch(&batch)?.responses {
                if r.body.starts_with("\"status\":\"ok\"") {
                    let line = batch
                        .iter()
                        .find(|l| l.contains(&format!("\"id\":{},", r.id)))
                        .cloned();
                    if let (Some(line), Some(key)) =
                        (line.clone(), line.as_deref().and_then(key_of))
                    {
                        self.served.insert(key, (line, r.body.clone()));
                    }
                }
            }
            last_surge = batch;
        }
        let escalations = self.counter(ServiceCounter::GovernorEscalations) - esc0;
        let sheds = self.counter(ServiceCounter::Shed) - shed0;
        self.check(
            "ladder-escalates-to-reject",
            escalations == 3 && self.engine.service_level().name() == "reject",
            format!(
                "{escalations} escalations (want 3), level {}, {sheds} requests shed",
                self.engine.service_level().name()
            ),
        );
        let deesc0 = self.counter(ServiceCounter::GovernorDeescalations);
        for _ in 0..IDLE_BATCHES {
            self.engine.process_batch(&[])?;
        }
        let deescalations = self.counter(ServiceCounter::GovernorDeescalations) - deesc0;
        self.check(
            "ladder-recovers-to-nominal",
            deescalations == 3 && self.engine.service_level().name() == "nominal",
            format!(
                "{deescalations} de-escalations (want 3), level {}",
                self.engine.service_level().name()
            ),
        );
        // A request the ladder shed must now be served.
        let shed_line = last_surge.into_iter().next().expect("surge batch");
        let (body, _) = self.send_one(shed_line)?;
        self.check(
            "shed-request-served-after-recovery",
            body.starts_with("\"status\":\"ok\""),
            format!(
                "post-recovery status prefix: {}",
                &body[..body.len().min(24)]
            ),
        );
        Ok(())
    }

    /// Phase 3: the deadline screen rejects an unaffordable miss
    /// deterministically, and the un-deadlined resend is served.
    fn deadline_screen(&mut self) -> io::Result<()> {
        let before = self.counter(ServiceCounter::DeadlineRejected);
        let line = self.fresh_line(",\"deadline_ms\":1");
        let (body, _) = self.send_one(line.clone())?;
        let rejected = body.starts_with("\"status\":\"deadline\"")
            && self.counter(ServiceCounter::DeadlineRejected) - before == 1;
        // The client gives up on its deadline and re-sends plain.
        let resend = line.replace(",\"deadline_ms\":1", "");
        let (body2, _) = self.send_one(resend)?;
        self.check(
            "deadline-screen-rejects-then-serves",
            rejected && body2.starts_with("\"status\":\"ok\""),
            format!(
                "deadline response {}, resend {}",
                &body[..body.len().min(20)],
                &body2[..body2.len().min(12)]
            ),
        );
        Ok(())
    }

    /// Injects one planned cache flip and verifies the checksum path
    /// detects it and the recompute serves clean bytes.
    fn inject_cache_flip(&mut self, param: u64) -> io::Result<()> {
        let cached = self.engine.cached_results();
        if cached == 0 {
            return Ok(());
        }
        let nth = (param % cached as u64) as usize;
        let Some(key) = self.engine.corrupt_cached_result(nth, splitmix64(param, 1)) else {
            return Ok(());
        };
        self.injected[kind_index(FaultKind::CacheFlip)] += 1;
        let Some((line, want)) = self.served.get(&key).cloned() else {
            return Ok(());
        };
        let before = self.counter(ServiceCounter::CacheCorrupt);
        let (body, _) = self.send_one(line)?;
        let caught = self.counter(ServiceCounter::CacheCorrupt) - before == 1;
        if caught && body == want {
            self.detected[kind_index(FaultKind::CacheFlip)] += 1;
        }
        Ok(())
    }

    /// Copies the live journal, tears the copy mid-final-record, and
    /// proves a resumed engine counts the tear and replays clean.
    fn inject_journal_tear(&mut self, idx: usize, param: u64) -> io::Result<()> {
        let src = fs::read(&self.journal)?;
        if src.is_empty() || *src.last().expect("non-empty") != b'\n' {
            return Ok(());
        }
        let body = &src[..src.len() - 1];
        let line_start = body.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let final_len = src.len() - line_start;
        if final_len < 2 {
            return Ok(());
        }
        // Remove 1..final_len bytes: a non-empty unterminated tail
        // remains, exactly what a crash mid-append leaves behind.
        let cut = 1 + (param % (final_len as u64 - 1)) as usize;
        let torn = Campaign::scratch_path(&self.spec, &format!("tear{idx}"));
        fs::write(&torn, &src[..src.len() - cut])?;
        self.scratch.push(torn.clone());
        self.injected[kind_index(FaultKind::JournalTear)] += 1;
        let mut aux = Engine::new(EngineConfig {
            threads: self.spec.threads,
            journal: Some(torn),
            resume: true,
            ..EngineConfig::default()
        })?;
        let counted = aux.stats().counter(ServiceCounter::JournalTornLines) == 1;
        if counted && self.replay_pool(&mut aux)?.is_none() {
            self.detected[kind_index(FaultKind::JournalTear)] += 1;
        }
        Ok(())
    }

    /// Copies the live journal, flips one sealed-payload byte of one
    /// record, and proves a resumed engine drops (never serves) it.
    fn inject_journal_flip(&mut self, idx: usize, param: u64) -> io::Result<()> {
        let mut src = fs::read(&self.journal)?;
        let line_spans: Vec<(usize, usize)> = {
            let mut spans = Vec::new();
            let mut start = 0;
            for (i, &b) in src.iter().enumerate() {
                if b == b'\n' {
                    spans.push((start, i));
                    start = i + 1;
                }
            }
            spans
        };
        if line_spans.is_empty() {
            return Ok(());
        }
        let (start, end) = line_spans[(param % line_spans.len() as u64) as usize];
        let Some(tab) = src[start..end].iter().position(|&b| b == b'\t') else {
            return Ok(());
        };
        let payload_start = start + tab + 1 + SEAL_PREFIX_LEN;
        if payload_start >= end {
            return Ok(());
        }
        let at = payload_start + (splitmix64(param, 3) % (end - payload_start) as u64) as usize;
        src[at] = if src[at] == b'#' { b'@' } else { b'#' };
        let flipped = Campaign::scratch_path(&self.spec, &format!("flip{idx}"));
        fs::write(&flipped, &src)?;
        self.scratch.push(flipped.clone());
        self.injected[kind_index(FaultKind::JournalFlip)] += 1;
        let mut aux = Engine::new(EngineConfig {
            threads: self.spec.threads,
            journal: Some(flipped),
            resume: true,
            ..EngineConfig::default()
        })?;
        let counted = aux.stats().counter(ServiceCounter::JournalCorrupt) == 1;
        if counted && self.replay_pool(&mut aux)?.is_none() {
            self.detected[kind_index(FaultKind::JournalFlip)] += 1;
        }
        Ok(())
    }

    /// Arms a one-shot evaluation fault against a fresh spec and
    /// verifies the retry machinery recovers and counts it.
    fn inject_eval_fault(&mut self, kind: FaultKind, param: u64) -> io::Result<()> {
        let fault = match kind {
            FaultKind::EvalStall => EvalFault::Stall(Duration::from_millis(1 + param % 5)),
            _ => EvalFault::Hang,
        };
        self.engine.arm_eval_fault(fault);
        self.injected[kind_index(kind)] += 1;
        let before = self.counter(ServiceCounter::Retries);
        let line = self.fresh_line("");
        let (body, _) = self.send_one(line)?;
        let retried = self.counter(ServiceCounter::Retries) - before == 1;
        if retried && body.starts_with("\"status\":\"ok\"") {
            self.detected[kind_index(kind)] += 1;
        }
        Ok(())
    }

    /// Sends a request line cut mid-transmission: the engine must
    /// answer a deterministic parse error, and the full-line resend
    /// must serve the oracle bytes.
    fn inject_line_drop(&mut self, param: u64) -> io::Result<()> {
        let j = (param % POOL as u64) as usize;
        let line = pool_line(self.spec.seed, j);
        let cut = 1 + (splitmix64(param, 2) % (line.len() as u64 - 1)) as usize;
        self.injected[kind_index(FaultKind::LineDrop)] += 1;
        let before = self.counter(ServiceCounter::Errors);
        let (body, _) = self.send_one(line[..cut].to_owned())?;
        let errored = body.starts_with("\"status\":\"error\"")
            && self.counter(ServiceCounter::Errors) - before == 1;
        let (_, rendered) = self.send_one(line)?;
        if errored && Some(&rendered) == self.oracle.get(&(j as u64)) {
            self.detected[kind_index(FaultKind::LineDrop)] += 1;
        }
        Ok(())
    }

    /// Injects a poisoned spec whose compile panics; it must land in
    /// the quarantine ledger, never kill the engine.
    fn inject_poison(&mut self, idx: usize, param: u64) -> io::Result<()> {
        self.injected[kind_index(FaultKind::Poison)] += 1;
        let before = self.counter(ServiceCounter::Quarantined);
        let line = format!(
            "{{\"id\":{},\"design\":\"poison\",\"seed\":{param}}}",
            3000 + idx
        );
        let (body, _) = self.send_one(line)?;
        let quarantined = body.starts_with("\"status\":\"quarantined\"")
            && self.counter(ServiceCounter::Quarantined) - before == 1;
        if quarantined {
            self.detected[kind_index(FaultKind::Poison)] += 1;
        }
        Ok(())
    }

    /// Phase 5: the checksum sentinel. A forced cache flip must be
    /// caught by the read-path checksum and recomputed — with
    /// `--sabotage` (checksum disabled) both verdicts fail, proving
    /// the harness detects a served corruption.
    fn checksum_sentinel(&mut self) -> io::Result<()> {
        let Some(key) = self
            .engine
            .corrupt_cached_result(0, splitmix64(self.spec.seed, 0x5E17))
        else {
            self.check(
                "checksum-sentinel-caught",
                false,
                "no cached entry to corrupt".into(),
            );
            return Ok(());
        };
        let Some((line, want)) = self.served.get(&key).cloned() else {
            self.check(
                "checksum-sentinel-caught",
                false,
                "corrupted key never recorded".into(),
            );
            return Ok(());
        };
        let before = self.counter(ServiceCounter::CacheCorrupt);
        let (body, _) = self.send_one(line)?;
        let caught = self.counter(ServiceCounter::CacheCorrupt) - before == 1;
        self.check(
            "checksum-sentinel-caught",
            caught,
            format!(
                "cache_corrupt delta {} (want 1)",
                self.counter(ServiceCounter::CacheCorrupt) - before
            ),
        );
        self.check(
            "no-corrupted-response-served",
            body == want,
            if body == want {
                "recomputed bytes match the recorded response".to_owned()
            } else {
                "served bytes diverge from the recorded response".to_owned()
            },
        );
        Ok(())
    }

    /// Phase 6: after every fault, the pool must still replay
    /// byte-identically to the unfaulted oracle.
    fn final_replay(&mut self) -> io::Result<()> {
        let lines: Vec<String> = (0..POOL).map(|j| pool_line(self.spec.seed, j)).collect();
        let mut got: BTreeMap<u64, String> = BTreeMap::new();
        for batch in lines.chunks(WARM_BATCH) {
            for r in self.engine.process_batch(batch)?.responses {
                got.insert(r.id, r.render());
            }
        }
        let divergence = self
            .oracle
            .iter()
            .find(|(id, want)| got.get(id) != Some(want))
            .map(|(id, _)| *id);
        self.check(
            "final-replay-matches-oracle",
            divergence.is_none(),
            match divergence {
                None => "final replay byte-identical to the unfaulted oracle".to_owned(),
                Some(id) => format!("first divergence at id {id}"),
            },
        );
        Ok(())
    }

    fn cleanup(&self) {
        let _ = fs::remove_file(&self.journal);
        for p in &self.scratch {
            let _ = fs::remove_file(p);
        }
    }

    fn run(mut self) -> io::Result<ChaosReport> {
        let plan = FaultPlan::new(self.spec.seed, self.spec.faults);
        self.warmup()?;
        self.ladder_walk()?;
        self.deadline_screen()?;
        for (idx, fault) in plan.faults().to_vec().into_iter().enumerate() {
            match fault.kind {
                FaultKind::CacheFlip => self.inject_cache_flip(fault.param)?,
                FaultKind::JournalTear => self.inject_journal_tear(idx, fault.param)?,
                FaultKind::JournalFlip => self.inject_journal_flip(idx, fault.param)?,
                FaultKind::EvalStall | FaultKind::EvalHang => {
                    self.inject_eval_fault(fault.kind, fault.param)?
                }
                FaultKind::LineDrop => self.inject_line_drop(fault.param)?,
                FaultKind::Poison => self.inject_poison(idx, fault.param)?,
            }
        }
        self.checksum_sentinel()?;
        self.final_replay()?;
        self.cleanup();
        Ok(ChaosReport {
            counters: self.engine.stats().counters_json(),
            spec: self.spec,
            injected: self.injected,
            detected: self.detected,
            checks: self.checks,
        })
    }
}

/// Runs the full campaign for `spec`. `Err` is an I/O failure
/// (scratch journals), not a gate verdict — the verdict is
/// [`ChaosReport::pass`].
pub fn run(spec: &ChaosSpec) -> io::Result<ChaosReport> {
    Campaign::new(spec)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_panics() {
        // Poison compiles panic on purpose; keep test output readable.
        std::panic::set_hook(Box::new(|_| {}));
    }

    #[test]
    fn pinned_campaign_accounts_for_every_fault() {
        quiet_panics();
        let spec = ChaosSpec {
            seed: 42,
            faults: 7,
            threads: 2,
            sabotage: false,
        };
        let report = run(&spec).unwrap();
        assert!(report.pass(), "{}", report.render());
        assert_eq!(report.injected, report.detected);
        assert!(report.injected.iter().all(|&n| n == 1), "covering prefix");
        let doc: serde_json::Value = serde_json::from_str(&report.json()).unwrap();
        assert_eq!(doc["tool"], serde_json::json!("timber-chaos"));
        assert_eq!(doc["pass"], serde_json::json!(true));
    }

    #[test]
    fn report_is_thread_invariant() {
        quiet_panics();
        let mk = |threads| ChaosSpec {
            seed: 9,
            faults: 7,
            threads,
            sabotage: false,
        };
        assert_eq!(run(&mk(1)).unwrap().json(), run(&mk(4)).unwrap().json());
    }

    #[test]
    fn sabotage_disables_the_checksum_and_the_harness_catches_it() {
        quiet_panics();
        let spec = ChaosSpec {
            seed: 42,
            faults: 7,
            threads: 2,
            sabotage: true,
        };
        let report = run(&spec).unwrap();
        assert!(!report.pass(), "sabotage must fail the gate");
        let sentinel = report
            .checks
            .iter()
            .find(|c| c.name == "checksum-sentinel-caught")
            .expect("sentinel check present");
        assert!(!sentinel.pass, "disabled checksum must go uncaught");
    }
}
