//! The `repro soak` gate: the resilience soak campaign.
//!
//! Every storm scenario from `timber-resilience` × every scheme in the
//! registry runs under the escalation-ladder governor, through the
//! hardened executor: each trial is isolated with `catch_unwind`,
//! watched by a wall-clock watchdog, retried with bounded deterministic
//! backoff, and quarantined (reported, not fatal) if it keeps failing.
//! Completed trials can be checkpointed so a killed campaign resumes to
//! a byte-identical final report.
//!
//! Fault injection (`--inject-panic K`, `--inject-hang K`) appends
//! synthetic always-failing trials *after* the real grid, so the
//! quarantine machinery itself is exercised by CI: the gate passes only
//! when exactly the injected trials are quarantined and every real
//! trial completes with its invariants intact.
//!
//! The JSON report contains only deterministic campaign content — no
//! host wall-clock measurements, no resume/stop metadata — so a
//! stop-then-resume run and an uninterrupted run produce byte-identical
//! documents (the CI gate diffs them).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::{GovernorConfig, PipelineConfig, PipelineSim};
use timber_resilience::{
    read_checkpoint_counting, run_hardened, HardenedOutcome, HardenedSpec, QuarantineEntry,
    RetryPolicy, ScanStats, StormScenario, TrialJob,
};
use timber_schemes::{Registry, SchemeId};
use timber_variability::{splitmix64, SensitizationModel};

/// The pinned base seed the CI gate runs at.
pub const DEFAULT_SEED: u64 = 7;
/// Cycles per trial by default: long enough for every storm to push the
/// governor through its ladder at least once.
pub const DEFAULT_CYCLES: u64 = 6_000;
/// Stage-boundary count per trial.
const STAGES: usize = 4;
/// The campaign clock: the paper's 1 GHz case study.
const PERIOD: Picos = Picos(1000);
/// Checking period as a percentage of the clock (divides exactly; see
/// the conformance campaign's derivation).
const CHECKING_PCT: f64 = 24.0;
/// Independent trials per (storm, scheme) cell.
const TRIALS: usize = 2;
/// Default per-attempt wall-clock watchdog. Real trials finish in
/// milliseconds; only an injected (or genuinely hung) trial ever
/// reaches it.
const WATCHDOG: Duration = Duration::from_secs(5);
/// Attempts per trial for panics/errors.
const MAX_ATTEMPTS: u32 = 2;

/// What to run and how.
#[derive(Debug, Clone)]
pub struct SoakSpec {
    /// Base seed; trial seeds are `splitmix64(base, flat_index)`.
    pub seed: u64,
    /// Simulated cycles per trial.
    pub cycles: u64,
    /// Worker threads (0 = all cores). Never changes the report.
    pub threads: usize,
    /// Append-only checkpoint log for completed trials.
    pub checkpoint: Option<PathBuf>,
    /// Pre-load completed trials from the checkpoint before running.
    pub resume: bool,
    /// Synthetic always-panicking trials appended after the real grid.
    pub inject_panic: usize,
    /// Synthetic hanging trials appended after the real grid.
    pub inject_hang: usize,
    /// Run only the first this-many trials not yet completed, then
    /// stop — the deterministic stand-in for `kill -9` in resume tests.
    pub stop_after: Option<usize>,
    /// Backoff between trial attempts (`--retry-base` / `--retry-cap`).
    pub retry: RetryPolicy,
    /// Per-attempt wall-clock watchdog (`--watchdog`).
    pub watchdog: Duration,
}

impl SoakSpec {
    /// The pinned configuration at `seed` with no injections.
    pub fn pinned(seed: u64) -> SoakSpec {
        SoakSpec {
            seed,
            cycles: DEFAULT_CYCLES,
            threads: 0,
            checkpoint: None,
            resume: false,
            inject_panic: 0,
            inject_hang: 0,
            stop_after: None,
            retry: RetryPolicy::default_policy(),
            watchdog: WATCHDOG,
        }
    }

    /// Real (grid) trial count, excluding injected failures.
    pub fn real_trials(&self) -> usize {
        StormScenario::ALL.len() * SchemeId::ALL.len() * TRIALS
    }

    /// Total job count including injected failures.
    pub fn total_trials(&self) -> usize {
        self.real_trials() + self.inject_panic + self.inject_hang
    }
}

/// One real trial's coordinates, derived from its flat index.
fn coordinates(flat: usize) -> (StormScenario, SchemeId, usize) {
    let per_scheme = TRIALS;
    let per_storm = SchemeId::ALL.len() * per_scheme;
    let storm = StormScenario::ALL[flat / per_storm];
    let scheme = SchemeId::ALL[(flat % per_storm) / per_scheme];
    (storm, scheme, flat % per_scheme)
}

/// Runs one real trial to its canonical single-line JSON payload, with
/// the campaign's invariants checked inline. `Err` is a deterministic
/// invariant-violation description (the executor retries, then
/// quarantines it).
fn run_trial(flat: usize, seed: u64, cycles: u64) -> Result<String, String> {
    let (storm, id, trial) = coordinates(flat);
    let schedule = CheckingPeriod::new(PERIOD, CHECKING_PCT, 1, 2)
        .map_err(|e| format!("trial {flat}: bad schedule: {e}"))?;
    let registry = Registry::new(schedule);
    let mut scheme = registry.build(id, seed);
    let sens = SensitizationModel::uniform(STAGES, Picos(940), seed);
    let var = storm.build(STAGES, seed);
    let mut config = PipelineConfig::new(STAGES, PERIOD);
    config.governor = Some(GovernorConfig::default());
    let stats = PipelineSim::new(config, &mut scheme, &sens, &var).run(cycles);

    // Invariants every trial must satisfy, whatever the storm does.
    if stats.cycles != cycles {
        return Err(format!(
            "trial {flat}: ran {} of {cycles} cycles",
            stats.cycles
        ));
    }
    let chain_events: u64 = stats
        .chain_histogram
        .iter()
        .enumerate()
        .map(|(k, &n)| (k as u64 + 1) * n)
        .sum();
    // Every violation belongs to exactly one maximal chain — masked
    // members extend it, a detection or corruption terminates it — so
    // the histogram's weighted sum must equal the violation count
    // (safe-mode flushes record their chains before zeroing them).
    if chain_events != stats.violations() {
        return Err(format!(
            "trial {flat}: chain accounting broke: sum(len*count) = {chain_events}, \
             violations = {}",
            stats.violations()
        ));
    }
    if stats.flagged > stats.masked {
        return Err(format!(
            "trial {flat}: flagged {} exceeds masked {}",
            stats.flagged, stats.masked
        ));
    }
    if stats.instructions > stats.cycles {
        return Err(format!(
            "trial {flat}: {} instructions in {} cycles",
            stats.instructions, stats.cycles
        ));
    }
    // Simulated time only — never host wall-clock — so the payload is
    // bit-identical across machines, thread counts and resumes.
    Ok(format!(
        "{{\"storm\":\"{}\",\"scheme\":\"{}\",\"trial\":{trial},\"seed\":{seed},\
         \"cycles\":{},{}}}",
        storm.name(),
        id.name(),
        stats.cycles,
        stats.totals_json(),
    ))
}

/// Builds the full job list: the real grid, then injected panics, then
/// injected hangs.
fn jobs(spec: &SoakSpec) -> Vec<TrialJob> {
    let mut jobs: Vec<TrialJob> = Vec::with_capacity(spec.total_trials());
    for flat in 0..spec.real_trials() {
        let seed = splitmix64(spec.seed, flat as u64);
        let cycles = spec.cycles;
        jobs.push(Arc::new(move || run_trial(flat, seed, cycles)));
    }
    for k in 0..spec.inject_panic {
        jobs.push(Arc::new(move || panic!("injected panic #{k}")));
    }
    for _ in 0..spec.inject_hang {
        jobs.push(Arc::new(|| {
            // Far past the watchdog; the executor abandons the attempt,
            // and its worker exits when the sleep ends (or with the
            // process).
            std::thread::sleep(Duration::from_secs(600));
            Ok(String::new())
        }));
    }
    jobs
}

/// The campaign's outcome, reduced for reporting.
#[derive(Debug)]
pub struct SoakReport {
    /// Base seed the campaign ran at.
    pub seed: u64,
    /// Cycles per trial.
    pub cycles: u64,
    /// Real (grid) trial count.
    pub real_trials: usize,
    /// Injected failure count (panics + hangs).
    pub injected: usize,
    /// Per-trial payloads in index order (`None` = quarantined or, after
    /// an early stop, not yet run).
    pub payloads: Vec<Option<String>>,
    /// The quarantine ledger, sorted by trial index.
    pub quarantined: Vec<QuarantineEntry>,
    /// Trials satisfied from the resume checkpoint.
    pub resumed: usize,
    /// True if `--stop-after` ended the campaign early.
    pub stopped: bool,
    /// Torn or malformed checkpoint lines dropped during resume.
    pub torn_lines: u64,
}

impl SoakReport {
    /// The gate criterion: every real trial completed (none quarantined,
    /// none missing unless the campaign was deliberately stopped early),
    /// and only injected trials sit in the quarantine ledger.
    pub fn pass(&self) -> bool {
        if self.quarantined.iter().any(|q| q.index < self.real_trials) {
            return false;
        }
        if self.stopped {
            // A deliberately stopped campaign is judged on what it ran.
            return true;
        }
        // Uninterrupted: every real trial completed, and every injected
        // failure actually landed in the ledger.
        self.payloads[..self.real_trials]
            .iter()
            .all(|p| p.is_some())
            && self.quarantined.len() == self.injected
    }

    /// The canonical machine-readable report: deterministic campaign
    /// content only (no resume/stop metadata, no host timing), so
    /// stop-then-resume and uninterrupted runs diff byte-identical.
    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"tool\":\"timber-soak\",\"schema_version\":1");
        out.push_str(&format!(
            ",\"seed\":{},\"cycles\":{},\"trials\":{},\"injected\":{},\"torn_lines\":{}",
            self.seed, self.cycles, self.real_trials, self.injected, self.torn_lines
        ));
        out.push_str(",\"results\":[");
        for (i, p) in self.payloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match p {
                Some(payload) => out.push_str(payload),
                None => out.push_str("null"),
            }
        }
        out.push_str("],\"quarantined\":[");
        for (i, q) in self.quarantined.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"kind\":\"{}\",\"attempts\":{},\"detail\":{}}}",
                q.index,
                q.kind.name(),
                q.attempts,
                serde_json::Value::String(q.detail.clone())
            ));
        }
        out.push_str(&format!("],\"pass\":{}}}", self.pass()));
        out
    }

    /// Human-readable summary (includes resume/stop metadata, which the
    /// JSON deliberately omits).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let completed = self.payloads.iter().filter(|p| p.is_some()).count();
        out.push_str(&format!(
            "soak: seed {} | {} real trials x {} cycles | {} injected failures\n",
            self.seed, self.real_trials, self.cycles, self.injected
        ));
        out.push_str(&format!(
            "completed {completed}/{} ({} resumed from checkpoint){}\n",
            self.payloads.len(),
            self.resumed,
            if self.stopped {
                " — stopped early (--stop-after)"
            } else {
                ""
            }
        ));
        if self.torn_lines > 0 {
            out.push_str(&format!(
                "dropped {} torn/malformed checkpoint line(s) during resume\n",
                self.torn_lines
            ));
        }
        for q in &self.quarantined {
            out.push_str(&format!(
                "quarantined trial {}: {} after {} attempt(s): {}\n",
                q.index,
                q.kind.name(),
                q.attempts,
                q.detail
            ));
        }
        out.push_str(if self.pass() { "PASS\n" } else { "FAIL\n" });
        out
    }
}

/// Runs the soak campaign. `Err` is a checkpoint I/O failure (a usage
/// problem, not a gate verdict).
pub fn run(spec: &SoakSpec) -> std::io::Result<SoakReport> {
    let (completed, scan): (BTreeMap<usize, String>, ScanStats) =
        match (&spec.checkpoint, spec.resume) {
            (Some(path), true) => read_checkpoint_counting(path)?,
            _ => (BTreeMap::new(), ScanStats::default()),
        };
    let out: HardenedOutcome = run_hardened(HardenedSpec {
        jobs: jobs(spec),
        threads: spec.threads,
        timeout: spec.watchdog,
        max_attempts: MAX_ATTEMPTS,
        retry: spec.retry,
        retry_hangs: false,
        completed,
        checkpoint: spec.checkpoint.clone(),
        stop_after: spec.stop_after,
    })?;
    Ok(SoakReport {
        seed: spec.seed,
        cycles: spec.cycles,
        real_trials: spec.real_trials(),
        injected: spec.inject_panic + spec.inject_hang,
        payloads: out.payloads,
        quarantined: out.quarantined,
        resumed: out.resumed,
        stopped: out.stopped,
        torn_lines: scan.dropped(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> SoakSpec {
        let mut s = SoakSpec::pinned(seed);
        s.cycles = 400;
        s.threads = 4;
        s
    }

    #[test]
    fn coordinates_cover_the_grid_exactly_once() {
        let spec = SoakSpec::pinned(7);
        let mut seen = std::collections::HashSet::new();
        for flat in 0..spec.real_trials() {
            assert!(seen.insert(coordinates(flat)));
        }
        assert_eq!(seen.len(), 3 * 8 * TRIALS);
    }

    #[test]
    fn quick_campaign_passes_with_no_injections() {
        let report = run(&quick(7)).unwrap();
        assert!(report.pass(), "{}", report.render());
        assert!(report.quarantined.is_empty());
        assert_eq!(report.payloads.len(), report.real_trials);
        assert!(report.payloads.iter().all(|p| p.is_some()));
    }

    #[test]
    fn quick_report_bytes_are_pinned() {
        // Every trial payload carries the run's totals, so this pins
        // the report byte for byte, not only its pass flag.
        let json = run(&quick(7)).unwrap().json();
        assert_eq!(
            timber_serve::content_hash(json.as_bytes()).hex(),
            "0a977c37beadca3fbf3ffe17b3d1fed8c2e456788e1fd1b927b75b35e30198b7"
        );
    }

    #[test]
    fn thread_count_does_not_change_the_json() {
        let mut a = quick(3);
        a.threads = 1;
        let mut b = quick(3);
        b.threads = 8;
        assert_eq!(run(&a).unwrap().json(), run(&b).unwrap().json());
    }

    #[test]
    fn injected_failures_quarantine_and_still_pass() {
        let mut spec = quick(7);
        spec.inject_panic = 2;
        spec.inject_hang = 0; // hangs cost a watchdog period; the CLI gate test injects one
        let report = run(&spec).unwrap();
        assert!(report.pass(), "{}", report.render());
        assert_eq!(report.quarantined.len(), 2);
        for (k, q) in report.quarantined.iter().enumerate() {
            assert_eq!(q.index, report.real_trials + k);
            assert_eq!(q.detail, format!("injected panic #{k}"));
        }
    }

    #[test]
    fn stop_then_resume_is_byte_identical_to_uninterrupted() {
        let mut path = std::env::temp_dir();
        path.push(format!("timber-soak-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut first = quick(5);
        first.checkpoint = Some(path.clone());
        first.stop_after = Some(10);
        let partial = run(&first).unwrap();
        assert!(partial.stopped);

        let mut second = quick(5);
        second.checkpoint = Some(path.clone());
        second.resume = true;
        let resumed = run(&second).unwrap();
        assert!(resumed.resumed >= 10, "resumed {}", resumed.resumed);

        let uninterrupted = run(&quick(5)).unwrap();
        assert_eq!(resumed.json(), uninterrupted.json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_json_is_parseable_and_flags_pass() {
        let report = run(&quick(2)).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&report.json()).unwrap();
        assert_eq!(doc["tool"], serde_json::json!("timber-soak"));
        assert_eq!(doc["pass"], serde_json::json!(true));
        assert_eq!(
            doc["results"].as_array().map(|r| r.len()),
            Some(report.real_trials)
        );
    }
}
