//! Deterministic workload generation: per-(cycle, stage) arrival-time
//! tables carrying seeded timing-error bursts through the TB and ED
//! intervals of a checking-period schedule.
//!
//! A workload is the *shared input* of both conformance models: the
//! analytical simulator replays it through an exact-arrival delay
//! source, the event-driven model replays it as stimulus transitions
//! through the waveform kernel. Generation uses the same splitmix64
//! mixer as the Monte-Carlo engine, so every case is reproducible from
//! `(seed, shape, schedule)` alone.

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_variability::splitmix64;

/// Shape of the injected timing-error burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BurstShape {
    /// Isolated single-cycle, single-stage overshoots within one borrow
    /// interval (the paper's dominant sparse-error regime), including
    /// exact-boundary arrivals.
    TbSingle,
    /// A relayed escalation: consecutive stages overshoot on
    /// consecutive cycles by exactly one more interval each, walking
    /// the borrow depth from the TB region into the ED region until
    /// the checking period is exhausted.
    EdEscalation,
    /// Overshoots beyond the usable checking period (boundary and
    /// boundary+1 included): every scheme must escape or detect.
    BeyondChecking,
    /// Droop-like bursts: every stage overshoots in the same short
    /// span of cycles (the paper's multi-stage error scenario).
    MultiStageBurst,
    /// Unstructured stress: every cell independently overshoots with
    /// probability 1/6, anywhere from 1 ps to twice the checking
    /// period.
    RandomStress,
}

impl BurstShape {
    /// Every shape, in canonical campaign order.
    pub const ALL: [BurstShape; 5] = [
        BurstShape::TbSingle,
        BurstShape::EdEscalation,
        BurstShape::BeyondChecking,
        BurstShape::MultiStageBurst,
        BurstShape::RandomStress,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BurstShape::TbSingle => "tb-single",
            BurstShape::EdEscalation => "ed-escalation",
            BurstShape::BeyondChecking => "beyond-checking",
            BurstShape::MultiStageBurst => "multi-stage-burst",
            BurstShape::RandomStress => "random-stress",
        }
    }
}

/// Counter-mode splitmix64 stream: every draw mixes `(seed, counter)`,
/// so generation order never couples two workloads with related seeds.
struct Stream {
    seed: u64,
    counter: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream { seed, counter: 0 }
    }

    fn next(&mut self) -> u64 {
        let v = splitmix64(self.seed, self.counter);
        self.counter += 1;
        v
    }

    /// Uniform draw in `[lo, hi]` (inclusive).
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// One generated conformance workload: a checking-period schedule plus
/// the per-(cycle, stage) data arrival times, measured from each
/// cycle's launch edge and *before* any inherited borrow (the models
/// add their own carry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    schedule: CheckingPeriod,
    /// `arrivals[cycle][stage]`.
    arrivals: Vec<Vec<Picos>>,
}

impl Workload {
    /// Generates a workload of `cycles` rows for `stages` boundaries
    /// carrying `shape`-shaped bursts seeded by `seed`.
    ///
    /// Quiet cells arrive comfortably before the edge, so even a
    /// maximal inherited borrow cannot push them past it; burst cells
    /// overshoot by amounts aligned to the schedule's intervals
    /// (boundary arrivals included, so off-by-one sampling bugs in
    /// either model are caught).
    ///
    /// # Panics
    ///
    /// Panics if `stages` or `cycles` is zero.
    pub fn generate(
        schedule: CheckingPeriod,
        stages: usize,
        cycles: usize,
        shape: BurstShape,
        seed: u64,
    ) -> Workload {
        assert!(stages > 0, "need at least one stage");
        assert!(cycles > 0, "need at least one cycle");
        let period = schedule.period();
        let interval = schedule.interval();
        let usable = schedule.usable_checking();
        let mut rng = Stream::new(seed);
        // Quiet cells sit at 40% of the period with a little jitter:
        // even a full checking period of inherited borrow (≤ 50% of
        // the clock) leaves them on time.
        let quiet = |rng: &mut Stream| period.scale(0.4) + Picos(rng.range(0, 20));
        let mut rows: Vec<Vec<Picos>> = (0..cycles)
            .map(|_| (0..stages).map(|_| quiet(&mut rng)).collect())
            .collect();
        match shape {
            BurstShape::TbSingle => {
                let events = (cycles / 6).max(2);
                for e in 0..events {
                    let t = rng.range(0, cycles as i64 - 1) as usize;
                    let s = rng.range(0, stages as i64 - 1) as usize;
                    // Every third event lands exactly on the one-unit
                    // boundary; the rest are uniform inside it.
                    let over = if e % 3 == 0 {
                        interval
                    } else {
                        Picos(rng.range(1, interval.as_ps().max(1)))
                    };
                    rows[t][s] = period + over;
                }
            }
            BurstShape::EdEscalation => {
                // Walk the borrow depth one interval per relayed stage:
                // with the relay working, stage j's arrival lands
                // exactly on its (j+1)-unit sampling boundary.
                let depth = (schedule.k() as usize).min(stages);
                let span = depth + 2;
                let runs = (cycles / (2 * span)).max(1);
                for _ in 0..runs {
                    let t0 = rng.range(0, cycles.saturating_sub(span) as i64) as usize;
                    for j in 0..depth {
                        if t0 + j < cycles {
                            rows[t0 + j][j] = period + interval;
                        }
                    }
                }
            }
            BurstShape::BeyondChecking => {
                let events = (cycles / 8).max(2);
                for e in 0..events {
                    let t = rng.range(0, cycles as i64 - 1) as usize;
                    let s = rng.range(0, stages as i64 - 1) as usize;
                    // First two events probe the exact escape boundary.
                    let over = match e {
                        0 => usable,
                        1 => usable + Picos(1),
                        _ => usable + Picos(rng.range(1, period.as_ps() / 2)),
                    };
                    rows[t][s] = period + over;
                }
            }
            BurstShape::MultiStageBurst => {
                let bursts = (cycles / 16).max(1);
                for _ in 0..bursts {
                    let span = rng.range(2, 3) as usize;
                    let t0 = rng.range(0, cycles.saturating_sub(span) as i64) as usize;
                    for row in rows.iter_mut().take((t0 + span).min(cycles)).skip(t0) {
                        for cell in row.iter_mut() {
                            *cell = period + Picos(rng.range(1, interval.as_ps().max(1)));
                        }
                    }
                }
            }
            BurstShape::RandomStress => {
                for row in &mut rows {
                    for cell in row.iter_mut() {
                        if rng.next().is_multiple_of(6) {
                            let over = if rng.next().is_multiple_of(4) {
                                // Boundary probes.
                                [interval, usable, usable + Picos(1)][(rng.next() % 3) as usize]
                            } else {
                                Picos(rng.range(1, 2 * usable.as_ps().max(1)))
                            };
                            *cell = period + over;
                        }
                    }
                }
            }
        }
        Workload {
            schedule,
            arrivals: rows,
        }
    }

    /// Builds a workload from explicit arrival rows (picoseconds), as
    /// the divergence minimizer's generated reproducers do.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, a row is empty, or rows have uneven
    /// lengths.
    pub fn from_rows(schedule: CheckingPeriod, rows: &[&[i64]]) -> Workload {
        assert!(!rows.is_empty(), "need at least one cycle");
        let stages = rows[0].len();
        assert!(stages > 0, "need at least one stage");
        let arrivals = rows
            .iter()
            .map(|row| {
                assert_eq!(row.len(), stages, "uneven workload rows");
                row.iter().map(|&ps| Picos(ps)).collect()
            })
            .collect();
        Workload { schedule, arrivals }
    }

    /// The checking-period schedule in force.
    pub fn schedule(&self) -> &CheckingPeriod {
        &self.schedule
    }

    /// Clock period.
    pub fn period(&self) -> Picos {
        self.schedule.period()
    }

    /// Stage-boundary count.
    pub fn stages(&self) -> usize {
        self.arrivals[0].len()
    }

    /// Cycle count.
    pub fn cycles(&self) -> usize {
        self.arrivals.len()
    }

    /// The arrival table, `[cycle][stage]`.
    pub fn arrivals(&self) -> &[Vec<Picos>] {
        &self.arrivals
    }

    /// The workload with every delay *and* the period scaled by the
    /// integer factor `m` — the metamorphic transformation that must
    /// preserve the error classification.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not positive or the scaled schedule is invalid.
    #[must_use]
    pub fn scaled(&self, m: i64) -> Workload {
        assert!(m > 0, "scale factor must be positive");
        let pct =
            self.schedule.checking().as_ps() as f64 * 100.0 / self.schedule.period().as_ps() as f64;
        let schedule = CheckingPeriod::new(
            self.schedule.period() * m,
            pct,
            self.schedule.k_tb(),
            self.schedule.k_ed(),
        )
        .expect("scaled schedule stays valid");
        Workload {
            schedule,
            arrivals: self
                .arrivals
                .iter()
                .map(|row| row.iter().map(|&a| a * m).collect())
                .collect(),
        }
    }

    /// The workload with `slack` of extra slack at one cell (its
    /// arrival reduced, floored at 1 ps) — the metamorphic
    /// transformation that must never increase any borrow depth.
    #[must_use]
    pub fn with_slack(&self, cycle: usize, stage: usize, slack: Picos) -> Workload {
        let mut w = self.clone();
        let cell = &mut w.arrivals[cycle][stage];
        *cell = (*cell - slack).max(Picos(1));
        w
    }

    /// Overwrites one cell's arrival (the divergence minimizer's edit
    /// primitive).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` or `stage` is out of range.
    pub fn set(&mut self, cycle: usize, stage: usize, arrival: Picos) {
        self.arrivals[cycle][stage] = arrival;
    }

    /// The workload truncated to its first `cycles` rows (used by the
    /// divergence minimizer; divergences are causal, so rows after the
    /// first divergence are irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero or exceeds the table.
    #[must_use]
    pub fn truncated(&self, cycles: usize) -> Workload {
        assert!(cycles > 0 && cycles <= self.cycles(), "bad truncation");
        Workload {
            schedule: self.schedule,
            arrivals: self.arrivals[..cycles].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 24.0, 1, 2).unwrap()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for shape in BurstShape::ALL {
            let a = Workload::generate(sched(), 4, 48, shape, 9);
            let b = Workload::generate(sched(), 4, 48, shape, 9);
            assert_eq!(a, b, "{shape:?}");
            let c = Workload::generate(sched(), 4, 48, shape, 10);
            assert_ne!(a, c, "{shape:?} must vary with the seed");
        }
    }

    #[test]
    fn every_shape_injects_at_least_one_violation() {
        for shape in BurstShape::ALL {
            for seed in 0..8 {
                let w = Workload::generate(sched(), 4, 48, shape, seed);
                let violations = w
                    .arrivals()
                    .iter()
                    .flatten()
                    .filter(|&&a| a > w.period())
                    .count();
                assert!(violations > 0, "{shape:?} seed {seed}");
            }
        }
    }

    #[test]
    fn arrivals_stay_inside_the_event_frame() {
        // The event-driven model frames each cycle at 4x the period;
        // every arrival (even with a full checking period of inherited
        // borrow) must land inside it.
        for shape in BurstShape::ALL {
            for seed in 0..8 {
                let w = Workload::generate(sched(), 4, 48, shape, seed);
                let bound = w.period() * 3;
                for row in w.arrivals() {
                    for &a in row {
                        assert!(a >= Picos(1) && a < bound, "{shape:?}: {a}");
                    }
                }
            }
        }
    }

    #[test]
    fn scaling_scales_schedule_and_delays_exactly() {
        let w = Workload::generate(sched(), 4, 32, BurstShape::EdEscalation, 3);
        let s = w.scaled(2);
        assert_eq!(s.period(), Picos(2000));
        assert_eq!(s.schedule().interval(), w.schedule().interval() * 2);
        assert_eq!(s.schedule().k(), w.schedule().k());
        for (r2, r1) in s.arrivals().iter().zip(w.arrivals()) {
            for (&a2, &a1) in r2.iter().zip(r1) {
                assert_eq!(a2, a1 * 2);
            }
        }
    }

    #[test]
    fn slack_and_truncation_edit_single_cells() {
        let w = Workload::generate(sched(), 4, 32, BurstShape::TbSingle, 3);
        let e = w.with_slack(5, 2, Picos(100));
        assert_eq!(
            e.arrivals()[5][2],
            (w.arrivals()[5][2] - Picos(100)).max(Picos(1))
        );
        let t = w.truncated(7);
        assert_eq!(t.cycles(), 7);
        assert_eq!(t.arrivals()[6], w.arrivals()[6]);
    }
}
