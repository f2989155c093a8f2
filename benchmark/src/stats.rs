//! Helpers shared by every workload: pacing the measured loop and the
//! repeated set-up, the end-to-end metrics computed from round records,
//! a response digest and the input-seed generator.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One timed operation batch: a `process_batch` round or a `tune()` call.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Host time the round took, in nanoseconds.
    pub ns: u64,
    /// Operations (requests or candidates) that came back ok.
    pub ok: u64,
}

/// Contiguous, equal-count slices the measured rounds are split into.
const SEGMENTS: usize = 8;

/// Seconds of rounds run before measuring starts, so the first
/// searches' and batches' cold start does not count as steady state.
const WARMUP_S: f64 = 1.0;

/// Set-up repetitions per run, spread evenly over it.
const SETUP_REPS: usize = 21;
/// Fewest set-up repetitions a run times.
const SETUP_MIN: usize = 3;
/// Largest share of a run's time set-up repetitions may take.
const SETUP_SHARE: f64 = 0.2;

/// Seconds between two readings of the host-speed yardstick.
const YARDSTICK_EVERY_S: f64 = 0.02;
/// Iterations of the yardstick kernel each thread runs per reading
/// (about 0.6 ms).
const YARDSTICK_ITERS: u32 = 160_000;
/// Empty threads each reading starts and joins one after another
/// (about 0.2 ms).
const YARDSTICK_SPAWNS: usize = 6;
/// A round's host speed is the median of this many readings before it
/// and this many after, plus the one just before it: about 0.1 s.
const YARDSTICK_HALF_WINDOW: usize = 2;
/// Nanoseconds the thread part of a reading ([`threads_ns`]) and the
/// memory part ([`memory_ns`]) take on the reference host. Every
/// reported time is scaled to that host; changing either constant
/// shifts every baseline.
const REFERENCE_THREADS_NS: f64 = 1_000_000.0;
const REFERENCE_MEMORY_NS: f64 = 30_000.0;
/// Bytes of the memory probe's buffer, written once per 4 KiB page.
const PROBE_BYTES: usize = 1 << 20;
/// Passes the memory probe makes over its buffer per reading.
const PROBE_PASSES: u8 = 4;

/// The thread part of a yardstick reading, in nanoseconds: a fixed
/// integer kernel (xorshift steps and updates to a 32 KiB table) run on
/// `threads` threads at once, then [`YARDSTICK_SPAWNS`] empty threads
/// started and joined in turn. The serve executor and the tuner start
/// threads for every batch, and on a shared virtual machine how long a
/// thread takes to start and wake varies more than arithmetic speed
/// does.
fn threads_ns(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut table = [0u64; 4096];
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t as u64;
                let mut odd = 0u64;
                for _ in 0..YARDSTICK_ITERS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let slot = &mut table[(x & 4095) as usize];
                    *slot = slot.wrapping_add(x);
                    if *slot & 3 == 0 {
                        odd += 1;
                    }
                }
                std::hint::black_box((odd, table));
            });
        }
    });
    for _ in 0..YARDSTICK_SPAWNS {
        std::thread::spawn(|| ())
            .join()
            .expect("an empty thread cannot panic");
    }
    started.elapsed().as_nanos() as f64
}

/// The memory part of a yardstick reading, in nanoseconds: one write
/// to every 4 KiB page of `buffer`, [`PROBE_PASSES`] times. Writes a
/// page apart miss the core's own caches and translation buffers, so
/// the probe times the shared last-level cache and page walks, which
/// other tenants of a virtual machine's host slow down without the
/// arithmetic kernel of [`threads_ns`] noticing.
fn memory_ns(buffer: &mut [u8]) -> f64 {
    let started = Instant::now();
    for pass in 0..PROBE_PASSES {
        for i in (0..buffer.len()).step_by(4096) {
            buffer[i] = buffer[i].wrapping_add(pass);
        }
        std::hint::black_box(&mut *buffer);
    }
    started.elapsed().as_nanos() as f64
}

/// One reading of the host-speed yardstick: how much slower than the
/// reference host the thread part and the memory part ran, averaged,
/// so 1 on the reference host. The code is the benchmark's own,
/// identical on every commit compared (`benchmark/README.md`).
fn yardstick(threads: usize, buffer: &mut [u8]) -> f64 {
    (threads_ns(threads) / REFERENCE_THREADS_NS + memory_ns(buffer) / REFERENCE_MEMORY_NS) / 2.0
}

/// Paces a measured loop: rounds in the first [`WARMUP_S`] seconds are
/// warm-up, then rounds are measured for the run's seconds and until
/// every segment has one.
///
/// It also reads the host-speed yardstick every [`YARDSTICK_EVERY_S`],
/// between rounds. The shared virtual machines the benchmark was
/// written on run the same code up to 1.8× faster in one second than
/// in the next, from load outside them. In the noisiest hours measured
/// there, a round's time scaled by the yardstick readings around it
/// varied from run to run an eighth to a half as much as the raw time;
/// in quiet hours, about as much.
pub struct Pace {
    started: Instant,
    seconds: f64,
    measuring_since: Option<Instant>,
    measured: usize,
    threads: usize,
    /// Rounds started so far.
    rounds: usize,
    last_reading: Option<Instant>,
    /// `(rounds started before it, slowness)` per yardstick reading.
    readings: Vec<(usize, f64)>,
    /// The memory probe's buffer.
    probe: Vec<u8>,
}

impl Pace {
    /// Starts pacing a run that measures for `seconds`; the yardstick
    /// runs on `threads` threads, as the measured code does.
    pub fn new(seconds: f64, threads: usize) -> Pace {
        let mut probe = vec![0u8; PROBE_BYTES];
        // Map every page now, so no reading pays for first touches.
        memory_ns(&mut probe);
        Pace {
            started: Instant::now(),
            seconds,
            measuring_since: None,
            measured: 0,
            threads,
            rounds: 0,
            last_reading: None,
            readings: Vec::new(),
            probe,
        }
    }

    /// Called before each round: whether it is measured (else warm-up),
    /// or `None` once the run is over.
    pub fn next(&mut self) -> Option<bool> {
        let measured = match self.measuring_since {
            Some(since)
                if self.measured >= SEGMENTS && since.elapsed().as_secs_f64() >= self.seconds =>
            {
                return None
            }
            Some(_) => true,
            None if self.started.elapsed().as_secs_f64() >= WARMUP_S => {
                self.measuring_since = Some(Instant::now());
                true
            }
            None => false,
        };
        if self
            .last_reading
            .is_none_or(|t| t.elapsed().as_secs_f64() >= YARDSTICK_EVERY_S)
        {
            self.readings
                .push((self.rounds, yardstick(self.threads, &mut self.probe)));
            self.last_reading = Some(Instant::now());
        }
        self.measured += usize::from(measured);
        self.rounds += 1;
        Some(measured)
    }

    /// The host-speed factor for round `r`: one over the median of the
    /// readings around it. Multiplying a host time by it gives the
    /// reference host's time.
    pub fn speed(&self, r: usize) -> f64 {
        let at = self.readings.partition_point(|&(first, _)| first <= r);
        self.speed_over(
            at.saturating_sub(YARDSTICK_HALF_WINDOW + 1),
            at + YARDSTICK_HALF_WINDOW,
        )
    }

    /// The host-speed factor for work done after `r` rounds started
    /// and before the next: the same window as [`Pace::speed`], but of
    /// readings taken before it only, since a long set-up repetition
    /// disturbs the reading that follows it.
    fn speed_before(&self, r: usize) -> f64 {
        let at = self.readings.partition_point(|&(first, _)| first < r);
        self.speed_over(at.saturating_sub(2 * YARDSTICK_HALF_WINDOW + 1), at)
    }

    fn speed_over(&self, lo: usize, hi: usize) -> f64 {
        let hi = hi.min(self.readings.len());
        let window: Vec<f64> = self.readings[lo..hi].iter().map(|&(_, s)| s).collect();
        1.0 / median(&window)
    }

    /// Rounds started so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The host-speed factor over the whole run, from the median
    /// reading: above 1 on a host faster than the reference.
    fn speed_of_run(&self) -> f64 {
        let all: Vec<f64> = self.readings.iter().map(|&(_, s)| s).collect();
        1.0 / median(&all)
    }
}

/// Times set-up repetitions spread evenly over a run rather than in
/// one burst: on a shared virtual machine a burst of a few
/// milliseconds' set-ups lands wholly inside or outside a slow spell of
/// the host, so its median flips between two levels from run to run,
/// while reps spread over the run see what its rounds see.
pub struct SetUps {
    every: f64,
    last: Instant,
    /// Seconds each timed repetition took, with the rounds run before it.
    pub seconds: Vec<(usize, f64)>,
}

impl SetUps {
    /// Spreads [`SETUP_REPS`] repetitions over a run that measures for
    /// `seconds`, fewer when `first` (one set-up's seconds) is so long
    /// that they would take more than [`SETUP_SHARE`] of it.
    pub fn new(seconds: f64, first: f64) -> SetUps {
        SetUps {
            every: ((WARMUP_S + seconds) / SETUP_REPS as f64).max(first / SETUP_SHARE),
            last: Instant::now(),
            seconds: Vec::new(),
        }
    }

    /// Whether a repetition is due: one interval has passed since the
    /// last, or the run is `over` and fewer than [`SETUP_MIN`] were timed.
    pub fn due(&self, over: bool) -> bool {
        if over {
            self.seconds.len() < SETUP_MIN
        } else {
            self.last.elapsed().as_secs_f64() >= self.every
        }
    }

    /// Records one repetition, taken after `rounds` rounds had started.
    pub fn record(&mut self, rounds: usize, seconds: f64) {
        self.seconds.push((rounds, seconds));
        self.last = Instant::now();
    }
}

/// The end-to-end metrics of a run, every time scaled to the reference
/// host: segment-median throughput, median and 90th-percentile round
/// latency, median set-up time, and the peak resident set. `rounds`
/// holds every round, the first `warmup` of them warm-up. The 99th
/// percentile and the unscaled numbers go to `info`.
pub fn end_to_end(
    rounds: &[Round],
    warmup: usize,
    setups: &SetUps,
    pace: &Pace,
    info: &mut Vec<(String, Value)>,
) -> BTreeMap<&'static str, f64> {
    let scaled: Vec<Round> = rounds
        .iter()
        .enumerate()
        .skip(warmup)
        .map(|(r, round)| Round {
            ns: (round.ns as f64 * pace.speed(r)) as u64,
            ok: round.ok,
        })
        .collect();
    let setup_s: Vec<f64> = setups
        .seconds
        .iter()
        .map(|&(r, s)| s * pace.speed_before(r))
        .collect();
    let mut m = timings(&scaled, &setup_s);
    let unscaled = timings(
        &rounds[warmup..],
        &setups.seconds.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
    );
    let p99 = m
        .remove("latency_p99_ms")
        .expect("timings has every latency");
    info.push(("latency_p99_ms".into(), json!(p99)));
    info.push((
        "unscaled".into(),
        Value::Object(
            unscaled
                .into_iter()
                .map(|(name, v)| (name.to_owned(), json!(v)))
                .collect(),
        ),
    ));
    info.push(("host_speed".into(), json!(pace.speed_of_run())));
    info.push(("yardstick_readings".into(), json!(pace.readings.len())));
    if let Some(mib) = peak_rss_mib() {
        m.insert("peak_rss_mib", mib);
    }
    m
}

/// Throughput, latency percentiles and median set-up time of `rounds`
/// and `setup_s`, as measured.
fn timings(rounds: &[Round], setup_s: &[f64]) -> BTreeMap<&'static str, f64> {
    let latencies_ms: Vec<f64> = rounds.iter().map(|r| r.ns as f64 / 1e6).collect();
    let mut m = BTreeMap::new();
    m.insert("ops_per_s", segment_rate(rounds));
    m.insert("latency_p50_ms", percentile(&latencies_ms, 0.50));
    m.insert("latency_p90_ms", percentile(&latencies_ms, 0.90));
    m.insert("latency_p99_ms", percentile(&latencies_ms, 0.99));
    m.insert("setup_s", median(setup_s));
    m
}

/// Median of `values` (the mean of the two middle values for an even
/// count). `values` must not be empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1] of `values`, which must not
/// be empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Throughput as the median over [`SEGMENTS`] equal-count slices of
/// the rounds, each slice's rate being its ok operations over the host
/// time of its rounds. A median of slices resists the odd stalled
/// stretch that moves a whole-run mean. Needs at least `SEGMENTS`
/// rounds.
pub fn segment_rate(rounds: &[Round]) -> f64 {
    let n = rounds.len();
    let rates: Vec<f64> = (0..SEGMENTS)
        .map(|s| {
            let slice = &rounds[s * n / SEGMENTS..(s + 1) * n / SEGMENTS];
            let ok: u64 = slice.iter().map(|r| r.ok).sum();
            let ns: u64 = slice.iter().map(|r| r.ns).sum();
            ok as f64 / (ns.max(1) as f64 / 1e9)
        })
        .collect();
    median(&rates)
}

/// FNV-1a over `bytes`, continuing from `hash`. The benchmark's own
/// digest, so a change to the program's hash functions cannot hide a
/// change in its output.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

/// The process's peak resident set (`VmHWM`) in MiB, on Linux.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `splitmix64` step, used to derive every workload input from the
/// run seed.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rounds_scale_by_the_readings_around_them_and_set_ups_by_those_before() {
        let mut pace = Pace::new(1.0, 1);
        // One reading before every second round; rounds 6 and 7 ran
        // while the host was twice as slow.
        pace.readings = vec![
            (0, 1.0),
            (2, 1.0),
            (4, 1.0),
            (6, 2.0),
            (8, 2.0),
            (10, 2.0),
            (12, 2.0),
        ];
        assert_eq!(pace.speed(1), 1.0);
        assert_eq!(pace.speed(7), 0.5);
        // A set-up after 6 rounds started sees readings 0..=4 only.
        assert_eq!(pace.speed_before(6), 1.0);
        assert_eq!(pace.speed_before(13), 0.5);
    }

    #[test]
    fn segment_rate_is_the_median_slice() {
        let mut rounds = vec![
            Round {
                ns: 1_000_000_000,
                ok: 10,
            };
            16
        ];
        // One stalled slice does not move the median.
        rounds[0].ns = 10_000_000_000;
        assert_eq!(segment_rate(&rounds), 10.0);
    }
}
