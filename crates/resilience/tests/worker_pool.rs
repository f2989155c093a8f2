//! The hardened executor's persistent workers: campaigns reuse them
//! without starting or leaking threads, and a hung trial costs one
//! replacement thread while the hung one ends once its job returns.
//!
//! One `#[test]`, so this binary's thread count is its own.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use timber_resilience::{
    run_hardened, FailureKind, HardenedOutcome, HardenedSpec, RetryPolicy, TrialJob,
};

/// The process's thread count (`Threads:` in `/proc/self/status`);
/// `None` where the platform has no such file.
fn thread_count() -> Option<usize> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    Some(line.trim().parse().expect("a thread count"))
}

fn campaign(jobs: Vec<TrialJob>, timeout: Duration) -> HardenedOutcome {
    run_hardened(HardenedSpec {
        jobs,
        threads: 2,
        timeout,
        max_attempts: 2,
        retry: RetryPolicy::from_millis(1, 2, 0),
        retry_hangs: false,
        completed: BTreeMap::new(),
        checkpoint: None,
        stop_after: None,
    })
    .expect("no checkpoint, no I/O error")
}

fn ok_job(i: usize) -> TrialJob {
    Arc::new(move || Ok(format!("{{\"trial\":{i}}}")))
}

/// Ok, persistent error, persistent panic and a retried transient error.
fn mixed_jobs() -> Vec<TrialJob> {
    let tries = Arc::new(AtomicUsize::new(0));
    vec![
        ok_job(0),
        Arc::new(|| Err("persistent error".to_owned())),
        Arc::new(|| panic!("injected panic")),
        Arc::new(move || {
            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                return Err("transient error".to_owned());
            }
            Ok("{\"trial\":3}".to_owned())
        }),
        ok_job(4),
    ]
}

/// Runs two trials that can only finish together, so the campaign must
/// have run them on two threads at once.
fn full_width_campaign() {
    let barrier = Arc::new(Barrier::new(2));
    let jobs = (0..2)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            Arc::new(move || {
                barrier.wait();
                Ok(format!("{{\"trial\":{i}}}"))
            }) as TrialJob
        })
        .collect();
    let out = campaign(jobs, Duration::from_secs(5));
    assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
}

#[test]
fn workers_are_reused_and_a_hang_costs_one_ending_thread() {
    let idle = Duration::from_secs(5);

    let before = thread_count();
    let empty = campaign(Vec::new(), idle);
    assert!(empty.payloads.is_empty() && empty.quarantined.is_empty());
    assert_eq!(thread_count(), before, "an empty campaign starts no thread");

    full_width_campaign();
    let warm = thread_count();
    assert_eq!(warm, before.map(|n| n + 2), "one thread per lane");
    for round in 0..50 {
        let out = campaign(mixed_jobs(), idle);
        let kinds: Vec<(usize, FailureKind)> =
            out.quarantined.iter().map(|q| (q.index, q.kind)).collect();
        assert_eq!(kinds, [(1, FailureKind::Error), (2, FailureKind::Panic)]);
        assert_eq!(out.retries, 3, "round {round}");
        assert_eq!(out.payloads[3].as_deref(), Some("{\"trial\":3}"));
        assert_eq!(thread_count(), warm, "round {round}: thread count moved");
    }

    // Trial 0 sleeps far past a 20 ms watchdog; 8 quick trials follow.
    let sleep = Duration::from_millis(300);
    let mut jobs: Vec<TrialJob> = vec![Arc::new(move || {
        std::thread::sleep(sleep);
        Ok(String::new())
    })];
    jobs.extend((1..9).map(ok_job));
    let start = Instant::now();
    let out = campaign(jobs, Duration::from_millis(20));
    let during = thread_count();
    assert!(start.elapsed() < sleep, "returned after the sleeper woke");
    let kinds: Vec<(usize, FailureKind)> =
        out.quarantined.iter().map(|q| (q.index, q.kind)).collect();
    assert_eq!(kinds, [(0, FailureKind::Hang)]);
    assert_eq!(out.payloads.iter().flatten().count(), 8);
    // The replacement lane came from the idle list if the other worker
    // had already finished its lane, else it is one new thread.
    let during = during.zip(warm);
    assert!(
        during.is_none_or(|(d, w)| d == w || d == w + 1),
        "more than one replacement thread: {during:?}"
    );

    // The sleeper's thread ends once its job returns.
    let poll_until = Instant::now() + Duration::from_secs(2);
    let ended = || during.is_none_or(|(d, _)| thread_count() == Some(d - 1));
    while !ended() && Instant::now() < poll_until {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(ended(), "the abandoned thread did not exit");
    // Full width again, on the warm count: the pool regrows to two
    // workers if the replacement came from the idle list.
    full_width_campaign();
    assert_eq!(thread_count(), warm, "threads leaked by the hang");
}
