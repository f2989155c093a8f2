//! Deterministic work-pull execution, in two disciplines.
//!
//! [`scatter_strict`] is the strict scatter the Monte-Carlo sweep and
//! the conformance campaign share: a shared atomic counter hands out
//! items in index order, results land in index-order slots, and a
//! panicking item stops new pulls and is re-raised deterministically
//! (always the lowest panicking index, regardless of thread count or
//! scheduling). Output is bit-identical for any `threads`.
//!
//! [`run_hardened`] is the soak-campaign discipline: same pull order,
//! but every trial attempt is isolated with `catch_unwind`, watched by
//! a wall-clock watchdog, retried with bounded deterministic backoff,
//! and — if it keeps failing — *quarantined* into a ledger instead of
//! aborting the campaign. Completed trials can be checkpointed so a
//! killed campaign resumes to a byte-identical final report.
//!
//! Its workers persist across campaigns: a process-wide idle list of
//! parked threads, of which each campaign checks out `threads`. A
//! worker pulls trials itself, runs every attempt inline and publishes
//! the attempt's deadline in its lane. The calling thread is the only
//! watchdog: it sleeps until the campaign ends or the earliest deadline
//! passes. It cannot kill a hung thread (std offers no safe way), so on
//! expiry it abandons that lane and checks out a replacement worker to
//! keep `threads` at work; the abandoned thread discards its result and
//! exits once its job returns. That bounds campaign wall-clock without
//! pretending to cancel arbitrary computation. Hangs are terminal by
//! default — a deterministic trial that hung once will hang again — but
//! a caller expecting *transient* stalls (the chaos campaign's injected
//! delays) can opt into retrying them with [`HardenedSpec::retry_hangs`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::checkpoint::JournalWriter;
use crate::retry::RetryPolicy;

/// Resolves a `--threads` value: 0 means all available cores.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs `run_one` over every item with `threads` workers (0 = all
/// cores) and returns results in item order, bit-identical for any
/// thread count.
///
/// # Panics
///
/// If any item panics, the panic of the *lowest* panicking index is
/// re-raised after in-flight items finish — deterministic propagation
/// of the existing fail-fast contract.
pub fn scatter_strict<T, R, F>(items: &[T], threads: usize, run_one: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = resolve_threads(threads).clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if poisoned.load(Ordering::SeqCst) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= items.len() {
                    return;
                }
                match catch_unwind(AssertUnwindSafe(|| run_one(&items[i]))) {
                    Ok(r) => *slots[i].lock().unwrap() = Some(r),
                    Err(payload) => {
                        poisoned.store(true, Ordering::SeqCst);
                        panics.lock().unwrap().push((i, payload));
                    }
                }
            });
        }
    });

    // Items are pulled in index order, so every index below the lowest
    // panicking one was pulled before pulls stopped; if it panicked too
    // it is in the list. The minimum is therefore the globally lowest
    // panicking index — scheduling-independent.
    let mut panics = panics.into_inner().unwrap();
    if let Some(pos) = panics
        .iter()
        .enumerate()
        .min_by_key(|(_, (i, _))| *i)
        .map(|(pos, _)| pos)
    {
        std::panic::resume_unwind(panics.swap_remove(pos).1);
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("all slots filled"))
        .collect()
}

/// One soak trial: produces its canonical single-line JSON payload, or
/// a deterministic error description. Must be `'static` because the
/// workers that run it outlive the campaign call.
pub type TrialJob = Arc<dyn Fn() -> Result<String, String> + Send + Sync + 'static>;

/// How a quarantined trial ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The trial panicked on every attempt.
    Panic,
    /// The trial exceeded the wall-clock watchdog (never retried).
    Hang,
    /// The trial returned an error on every attempt.
    Error,
}

impl FailureKind {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Hang => "hang",
            FailureKind::Error => "error",
        }
    }
}

/// One entry of the quarantine ledger: a trial that failed all its
/// attempts. Reported, not fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Trial index.
    pub index: usize,
    /// Terminal failure mode.
    pub kind: FailureKind,
    /// Attempts consumed (1 for hangs).
    pub attempts: u32,
    /// Deterministic failure detail (panic message, error string, or
    /// the configured watchdog budget — never measured wall-clock).
    pub detail: String,
}

/// Configuration of one hardened campaign.
pub struct HardenedSpec {
    /// The trials, in index order.
    pub jobs: Vec<TrialJob>,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Per-attempt wall-clock watchdog.
    pub timeout: Duration,
    /// Attempts per trial for panics/errors (≥ 1). Hangs get one
    /// unless [`HardenedSpec::retry_hangs`] is set.
    pub max_attempts: u32,
    /// Deterministic seeded-jitter backoff between attempts; the trial
    /// index is the jitter token.
    pub retry: RetryPolicy,
    /// Retry watchdog timeouts like other transient failures instead of
    /// quarantining on the first one. Off by default: a deterministic
    /// trial that hung once will hang again, and each timed-out attempt
    /// holds a thread until its job returns. Turn on only when stalls
    /// are known to be transient (fault injection).
    pub retry_hangs: bool,
    /// Payloads of trials already completed in a previous run
    /// (from [`crate::read_checkpoint_counting`]); these are not re-run.
    pub completed: BTreeMap<usize, String>,
    /// Append-only checkpoint log for newly completed trials.
    pub checkpoint: Option<PathBuf>,
    /// Run only the first this-many trials not already completed, in
    /// index order, then stop — the deterministic stand-in for
    /// `kill -9` in resume tests. Which trials ran does not depend on
    /// the thread count.
    pub stop_after: Option<usize>,
}

/// The result of [`run_hardened`].
#[derive(Debug)]
pub struct HardenedOutcome {
    /// Per-trial canonical payloads in index order; `None` marks a
    /// quarantined (or, after an early stop, not-yet-run) trial.
    pub payloads: Vec<Option<String>>,
    /// The quarantine ledger, sorted by trial index.
    pub quarantined: Vec<QuarantineEntry>,
    /// Trials satisfied from the resume checkpoint without re-running.
    pub resumed: usize,
    /// Attempts beyond each trial's first, summed over the campaign —
    /// deterministic, since attempt outcomes are (the chaos gate checks
    /// every injected transient fault produced exactly one retry).
    pub retries: u64,
    /// True if `stop_after` was reached: it was no larger than the
    /// number of trials left to run.
    pub stopped: bool,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// One trial's result: its payload and the attempts consumed, or its
/// quarantine record.
type TrialResult = Result<(String, u32), QuarantineEntry>;

/// Longest deadline a lane publishes. A longer watchdog (the CLI takes
/// any `u64` milliseconds) would overflow `Instant`; this one never
/// fires in practice.
const WATCHDOG_CAP: Duration = Duration::from_secs(100 * 365 * 24 * 3600);

/// What a worker's lane is doing, as the watchdog sees it.
enum Lane {
    /// Pulling, recording or backing off: nothing to watch.
    Idle,
    /// Running `attempt` of `trial`, due by `deadline`.
    Running {
        trial: usize,
        attempt: u32,
        deadline: Instant,
    },
    /// The watchdog gave up on the running attempt: the worker discards
    /// its result and exits.
    Abandoned,
}

/// One campaign, shared by the calling thread and its workers.
struct Campaign {
    spec: HardenedSpec,
    /// Trials to run, in index order: those not already completed, cut
    /// at `stop_after`.
    todo: Vec<usize>,
    /// Position of the next pull in `todo`.
    next: AtomicUsize,
    slots: Vec<Mutex<Option<TrialResult>>>,
    writer: Option<Mutex<JournalWriter>>,
    /// Set with `io_error` on a checkpoint failure; workers stop pulling.
    stop: AtomicBool,
    io_error: Mutex<Option<std::io::Error>>,
    /// Lanes still pulling; the caller waits on `finished` until it is 0.
    live: Mutex<usize>,
    finished: Condvar,
}

/// A lane of work for one worker: the campaign, the lane it publishes
/// its attempts in, and a hang to retry before it starts pulling.
struct Task {
    campaign: Arc<Campaign>,
    lane: Arc<Mutex<Lane>>,
    retry: Option<(usize, u32)>,
}

/// Parked workers, each blocked on its own channel for its next task.
/// A worker is only pushed here when it finishes a lane, so the list
/// never holds more workers than were ever in use at once.
static IDLE: Mutex<Vec<mpsc::Sender<Task>>> = Mutex::new(Vec::new());

/// Hands `task` to a parked worker, or starts one if none is idle.
fn dispatch(mut task: Task) {
    let parked = IDLE.lock().expect("idle list lock").pop();
    if let Some(worker) = parked {
        match worker.send(task) {
            Ok(()) => return,
            // Its thread is gone (it panicked outside an attempt).
            Err(mpsc::SendError(back)) => task = back,
        }
    }
    std::thread::Builder::new()
        .name("timber-hardened".to_owned())
        .spawn(move || worker(task))
        .expect("spawn a hardened-executor worker");
}

/// A worker thread's life: run lanes until one is abandoned, parking
/// between them.
fn worker(mut task: Task) {
    let (tx, rx) = mpsc::channel();
    while let Some(campaign) = run_lane(task) {
        // Back on the idle list before the caller can see this lane
        // finish, so the caller's next campaign finds it there.
        IDLE.lock().expect("idle list lock").push(tx.clone());
        campaign.finish_lane();
        // Parked workers hold nothing of a campaign: its jobs (and what
        // they capture) are freed with the caller's last reference.
        drop(campaign);
        task = rx.recv().expect("a worker holds its own sender");
    }
}

/// Runs one lane: the retried hang, if any, then pulled trials until
/// none remain. `None` means the watchdog abandoned the lane.
fn run_lane(task: Task) -> Option<Arc<Campaign>> {
    let Task {
        campaign,
        lane,
        mut retry,
    } = task;
    while let Some((index, attempt)) = retry.take().or_else(|| campaign.pull().map(|i| (i, 1))) {
        let result = campaign.run_trial(&lane, index, attempt)?;
        campaign.record(index, result);
    }
    Some(campaign)
}

impl Campaign {
    /// The next trial to run, or `None` once `todo` is exhausted or a
    /// checkpoint write failed.
    fn pull(&self) -> Option<usize> {
        if self.stop.load(Ordering::SeqCst) {
            return None;
        }
        self.todo
            .get(self.next.fetch_add(1, Ordering::SeqCst))
            .copied()
    }

    /// When an attempt started at `start` is due.
    fn deadline(&self, start: Instant) -> Instant {
        start + self.spec.timeout.min(WATCHDOG_CAP)
    }

    /// Runs `index` from attempt `first` until it succeeds or exhausts
    /// its attempts, publishing each attempt on `lane`. `None` means the
    /// watchdog abandoned the lane mid-attempt.
    fn run_trial(&self, lane: &Mutex<Lane>, index: usize, first: u32) -> Option<TrialResult> {
        let spec = &self.spec;
        let mut last_kind = FailureKind::Error;
        let mut last_detail = String::new();
        for attempt in first..=spec.max_attempts {
            if attempt > 1 {
                std::thread::sleep(spec.retry.backoff(attempt - 1, index as u64));
            }
            *lane.lock().expect("lane lock") = Lane::Running {
                trial: index,
                attempt,
                deadline: self.deadline(Instant::now()),
            };
            let result = catch_unwind(AssertUnwindSafe(|| (spec.jobs[index])()));
            {
                let mut state = lane.lock().expect("lane lock");
                if matches!(*state, Lane::Abandoned) {
                    return None;
                }
                *state = Lane::Idle;
            }
            match result {
                Ok(Ok(payload)) => return Some(Ok((payload, attempt))),
                Ok(Err(e)) => {
                    last_kind = FailureKind::Error;
                    last_detail = e;
                }
                Err(panic_payload) => {
                    last_kind = FailureKind::Panic;
                    last_detail = panic_message(panic_payload.as_ref());
                }
            }
        }
        Some(Err(QuarantineEntry {
            index,
            kind: last_kind,
            attempts: spec.max_attempts,
            detail: last_detail,
        }))
    }

    /// Stores trial `index`'s result, checkpointing a success.
    fn record(&self, index: usize, result: TrialResult) {
        if let (Ok((payload, _)), Some(writer)) = (&result, &self.writer) {
            if let Err(e) = writer
                .lock()
                .expect("checkpoint lock")
                .record(&index.to_string(), payload)
            {
                *self.io_error.lock().expect("io error lock") = Some(e);
                self.stop.store(true, Ordering::SeqCst);
            }
        }
        *self.slots[index].lock().expect("trial slot lock") = Some(result);
    }

    fn finish_lane(&self) {
        let mut live = self.live.lock().expect("live lanes lock");
        *live -= 1;
        if *live == 0 {
            self.finished.notify_one();
        }
    }

    /// Checks out a worker for a new lane, which first retries `retry`
    /// if given.
    fn start_lane(self: &Arc<Self>, retry: Option<(usize, u32)>) -> Arc<Mutex<Lane>> {
        let lane = Arc::new(Mutex::new(Lane::Idle));
        dispatch(Task {
            campaign: Arc::clone(self),
            lane: Arc::clone(&lane),
            retry,
        });
        lane
    }

    /// The watchdog, on the calling thread: sleeps until every lane has
    /// finished or the earliest running attempt is due, and replaces
    /// each lane whose attempt overran. It does not wake per trial.
    fn watch(self: &Arc<Self>, mut lanes: Vec<Arc<Mutex<Lane>>>) {
        loop {
            let now = Instant::now();
            // An attempt that starts after `now` is due after this, so
            // no deadline published while the caller sleeps is missed.
            let mut wake = self.deadline(now);
            for lane in &mut lanes {
                let mut state = lane.lock().expect("lane lock");
                let Lane::Running {
                    trial,
                    attempt,
                    deadline,
                } = *state
                else {
                    continue;
                };
                if deadline > now {
                    wake = wake.min(deadline);
                    continue;
                }
                *state = Lane::Abandoned;
                drop(state);
                let retry = self.expire(trial, attempt);
                *lane = self.start_lane(retry);
            }
            let live = self.live.lock().expect("live lanes lock");
            if *live == 0 {
                return;
            }
            let timeout = wake.saturating_duration_since(Instant::now());
            drop(
                self.finished
                    .wait_timeout(live, timeout)
                    .expect("live lanes lock"),
            );
        }
    }

    /// Settles a trial whose attempt overran: the next attempt of a
    /// retryable hang (for the replacement lane), or a quarantine.
    fn expire(&self, trial: usize, attempt: u32) -> Option<(usize, u32)> {
        let spec = &self.spec;
        if spec.retry_hangs && attempt < spec.max_attempts {
            return Some((trial, attempt + 1));
        }
        // Hangs are terminal by default: a deterministic trial that
        // hung once will hang again.
        self.record(
            trial,
            Err(QuarantineEntry {
                index: trial,
                kind: FailureKind::Hang,
                attempts: attempt,
                detail: format!("exceeded {} ms watchdog", spec.timeout.as_millis()),
            }),
        );
        None
    }
}

/// Runs a hardened campaign: work-pull over `spec.jobs`, per-attempt
/// `catch_unwind` isolation and watchdog, bounded deterministic backoff
/// retries, quarantine instead of abort, optional checkpointing and
/// resume. Deterministic for any thread count: payloads and the ledger
/// depend only on the jobs themselves.
///
/// `Err` is returned only for checkpoint I/O failures.
pub fn run_hardened(mut spec: HardenedSpec) -> std::io::Result<HardenedOutcome> {
    assert!(spec.max_attempts >= 1, "at least one attempt per trial");
    let total = spec.jobs.len();
    let mut payloads: Vec<Option<String>> = vec![None; total];
    let mut resumed = 0usize;
    for (i, payload) in std::mem::take(&mut spec.completed) {
        if i < total {
            payloads[i] = Some(payload);
            resumed += 1;
        }
    }
    let mut todo: Vec<usize> = (0..total).filter(|&i| payloads[i].is_none()).collect();
    let stopped = spec.stop_after.is_some_and(|limit| limit <= todo.len());
    todo.truncate(spec.stop_after.unwrap_or(usize::MAX));
    let writer = match &spec.checkpoint {
        Some(path) => Some(Mutex::new(JournalWriter::append(path)?)),
        None => None,
    };

    let threads = resolve_threads(spec.threads).min(todo.len());
    let campaign = Arc::new(Campaign {
        slots: (0..total).map(|_| Mutex::new(None)).collect(),
        spec,
        todo,
        next: AtomicUsize::new(0),
        writer,
        stop: AtomicBool::new(false),
        io_error: Mutex::new(None),
        live: Mutex::new(threads),
        finished: Condvar::new(),
    });
    let lanes = (0..threads).map(|_| campaign.start_lane(None)).collect();
    campaign.watch(lanes);

    if let Some(e) = campaign.io_error.lock().expect("io error lock").take() {
        return Err(e);
    }
    let mut quarantined = Vec::new();
    let mut retries: u64 = 0;
    for (i, slot) in campaign.slots.iter().enumerate() {
        match slot.lock().expect("trial slot lock").take() {
            Some(Ok((payload, attempts))) => {
                retries += u64::from(attempts.saturating_sub(1));
                payloads[i] = Some(payload);
            }
            Some(Err(entry)) => {
                retries += u64::from(entry.attempts.saturating_sub(1));
                quarantined.push(entry);
            }
            None => {} // resumed, or not run because of `stop_after`
        }
    }
    quarantined.sort_by_key(|q| q.index);
    Ok(HardenedOutcome {
        payloads,
        quarantined,
        resumed,
        retries,
        stopped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_job(i: usize) -> TrialJob {
        Arc::new(move || Ok(format!("{{\"trial\":{i}}}")))
    }

    fn spec(jobs: Vec<TrialJob>) -> HardenedSpec {
        HardenedSpec {
            jobs,
            threads: 3,
            timeout: Duration::from_secs(5),
            max_attempts: 2,
            retry: RetryPolicy::from_millis(1, 4, 0),
            retry_hangs: false,
            completed: BTreeMap::new(),
            checkpoint: None,
            stop_after: None,
        }
    }

    #[test]
    fn scatter_strict_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let f = |x: &u64| x * x + 1;
        let serial: Vec<u64> = items.iter().map(f).collect();
        for threads in [1, 2, 5, 16] {
            assert_eq!(scatter_strict(&items, threads, &f), serial);
        }
    }

    #[test]
    fn scatter_strict_handles_empty_input() {
        let items: Vec<u64> = Vec::new();
        assert!(scatter_strict(&items, 4, &|x: &u64| *x).is_empty());
    }

    #[test]
    fn scatter_strict_propagates_lowest_panic() {
        let items: Vec<u64> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scatter_strict(&items, 4, &|x: &u64| {
                if *x == 13 || *x == 40 {
                    panic!("boom at {x}");
                }
                *x
            })
        }));
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert_eq!(msg, "boom at 13");
    }

    #[test]
    fn hardened_all_success() {
        let out = run_hardened(spec((0..10).map(ok_job).collect())).unwrap();
        assert!(out.quarantined.is_empty());
        assert!(!out.stopped);
        for (i, p) in out.payloads.iter().enumerate() {
            assert_eq!(p.as_deref(), Some(format!("{{\"trial\":{i}}}").as_str()));
        }
        // A watchdog too long for an `Instant` (`--watchdog` takes any
        // u64 milliseconds) never fires.
        let mut s = spec((0..10).map(ok_job).collect());
        s.timeout = Duration::MAX;
        assert_eq!(run_hardened(s).unwrap().payloads, out.payloads);
    }

    #[test]
    fn hardened_quarantines_persistent_panic() {
        let mut jobs: Vec<TrialJob> = (0..6).map(ok_job).collect();
        jobs[2] = Arc::new(|| panic!("injected panic"));
        let out = run_hardened(spec(jobs)).unwrap();
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.index, 2);
        assert_eq!(q.kind, FailureKind::Panic);
        assert_eq!(q.attempts, 2);
        assert_eq!(q.detail, "injected panic");
        assert!(out.payloads[2].is_none());
        assert!(out.payloads[3].is_some());
    }

    #[test]
    fn hardened_retries_transient_error() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let mut jobs: Vec<TrialJob> = (0..3).map(ok_job).collect();
        jobs[1] = Arc::new(move || {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                Err("transient".to_owned())
            } else {
                Ok("{\"trial\":1}".to_owned())
            }
        });
        let out = run_hardened(spec(jobs)).unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.payloads[1].as_deref(), Some("{\"trial\":1}"));
        assert_eq!(tries.load(Ordering::SeqCst), 2);
        assert_eq!(out.retries, 1);
    }

    #[test]
    fn retry_hangs_recovers_a_transient_stall() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let mut jobs: Vec<TrialJob> = (0..3).map(ok_job).collect();
        jobs[1] = Arc::new(move || {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_secs(600));
            }
            Ok("{\"trial\":1}".to_owned())
        });
        let mut s = spec(jobs);
        s.timeout = Duration::from_millis(50);
        s.retry_hangs = true;
        let out = run_hardened(s).unwrap();
        assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
        assert_eq!(out.payloads[1].as_deref(), Some("{\"trial\":1}"));
        assert_eq!(out.retries, 1);
    }

    #[test]
    fn retry_hangs_still_quarantines_a_persistent_hang() {
        let mut jobs: Vec<TrialJob> = (0..2).map(ok_job).collect();
        jobs[0] = Arc::new(|| {
            std::thread::sleep(Duration::from_secs(600));
            Ok(String::new())
        });
        let mut s = spec(jobs);
        s.timeout = Duration::from_millis(50);
        s.retry_hangs = true;
        let out = run_hardened(s).unwrap();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].kind, FailureKind::Hang);
        assert_eq!(out.quarantined[0].attempts, 2);
    }

    #[test]
    fn hardened_quarantines_hang_without_retry() {
        let mut jobs: Vec<TrialJob> = (0..4).map(ok_job).collect();
        jobs[3] = Arc::new(|| {
            std::thread::sleep(Duration::from_secs(600));
            Ok(String::new())
        });
        let mut s = spec(jobs);
        s.timeout = Duration::from_millis(50);
        let out = run_hardened(s).unwrap();
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.index, 3);
        assert_eq!(q.kind, FailureKind::Hang);
        assert_eq!(q.attempts, 1);
        assert_eq!(q.detail, "exceeded 50 ms watchdog");
    }

    #[test]
    fn hardened_resume_skips_completed() {
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<TrialJob> = (0..5)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Arc::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(format!("{{\"trial\":{i}}}"))
                }) as TrialJob
            })
            .collect();
        let mut s = spec(jobs);
        s.completed.insert(0, "{\"trial\":0}".to_owned());
        s.completed.insert(3, "{\"trial\":3}".to_owned());
        let out = run_hardened(s).unwrap();
        assert_eq!(out.resumed, 2);
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        for (i, p) in out.payloads.iter().enumerate() {
            assert_eq!(p.as_deref(), Some(format!("{{\"trial\":{i}}}").as_str()));
        }
    }

    #[test]
    fn hardened_stop_after_leaves_holes_and_flags_stopped() {
        let mut s = spec((0..12).map(ok_job).collect());
        s.threads = 1;
        s.stop_after = Some(4);
        let out = run_hardened(s).unwrap();
        assert!(out.stopped);
        let done = out.payloads.iter().filter(|p| p.is_some()).count();
        assert_eq!(done, 4);
    }

    #[test]
    fn hardened_checkpoint_then_resume_completes_the_rest() {
        let mut path = std::env::temp_dir();
        path.push(format!("timber-exec-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // First run: stop after 3 of 8.
        let mut s = spec((0..8).map(ok_job).collect());
        s.threads = 2;
        s.checkpoint = Some(path.clone());
        s.stop_after = Some(3);
        let first = run_hardened(s).unwrap();
        assert!(first.stopped);
        // Resume: finish the rest; final payloads identical to a
        // never-stopped run.
        let completed = crate::read_checkpoint_counting(&path).unwrap().0;
        assert!(completed.len() >= 3);
        let mut s = spec((0..8).map(ok_job).collect());
        s.checkpoint = Some(path.clone());
        s.completed = completed;
        let second = run_hardened(s).unwrap();
        assert!(!second.stopped);
        let uninterrupted = run_hardened(spec((0..8).map(ok_job).collect())).unwrap();
        assert_eq!(second.payloads, uninterrupted.payloads);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hardened_is_deterministic_across_thread_counts() {
        // Fresh jobs per run: persistent panics, a transient error, and a
        // transient stall past the watchdog that `retry_hangs` retries.
        let make_jobs = || -> Vec<TrialJob> {
            (0..20)
                .map(|i| {
                    let tries = Arc::new(AtomicUsize::new(0));
                    match i {
                        _ if i % 7 == 3 => {
                            Arc::new(move || -> Result<String, String> { panic!("bad trial {i}") })
                                as TrialJob
                        }
                        5 => Arc::new(move || {
                            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                                return Err("transient".to_owned());
                            }
                            Ok(format!("{{\"trial\":{i}}}"))
                        }),
                        8 => Arc::new(move || {
                            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                                std::thread::sleep(Duration::from_secs(1));
                            }
                            Ok(format!("{{\"trial\":{i}}}"))
                        }),
                        _ => ok_job(i),
                    }
                })
                .collect()
        };
        let summary = |out: &HardenedOutcome| {
            (
                out.payloads.clone(),
                out.quarantined.clone(),
                out.retries,
                out.resumed,
                out.stopped,
            )
        };
        let run = |threads: usize| {
            let mut s = spec(make_jobs());
            s.threads = threads;
            s.timeout = Duration::from_millis(200);
            s.retry_hangs = true;
            s
        };
        let campaigns = |threads: usize| {
            let whole = run_hardened(run(threads)).unwrap();
            // Stop after 6 fresh trials (0..=5), then resume the rest.
            let mut path = std::env::temp_dir();
            path.push(format!(
                "timber-exec-determinism-{}-{threads}",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let mut first = run(threads);
            first.checkpoint = Some(path.clone());
            first.stop_after = Some(6);
            let stopped = run_hardened(first).unwrap();
            let mut second = run(threads);
            second.checkpoint = Some(path.clone());
            second.completed = crate::read_checkpoint_counting(&path).unwrap().0;
            let resumed = run_hardened(second).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(resumed.payloads, whole.payloads, "threads={threads}");
            [summary(&whole), summary(&stopped), summary(&resumed)]
        };
        let base = campaigns(1);
        // (retries, resumed, stopped): panics 3, 10, 17, the transient
        // error 5 and the stall 8 each retry once; the stop runs 0..=5;
        // the resume skips the five of those that succeeded.
        let counts = |i: usize| (base[i].2, base[i].3, base[i].4);
        assert_eq!(counts(0), (5, 0, false));
        assert_eq!(counts(1), (2, 0, true));
        assert_eq!(counts(2), (4, 5, false));
        for threads in [2, 4, 8] {
            assert_eq!(campaigns(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn failure_kind_names_are_stable() {
        assert_eq!(FailureKind::Panic.name(), "panic");
        assert_eq!(FailureKind::Hang.name(), "hang");
        assert_eq!(FailureKind::Error.name(), "error");
    }
}
