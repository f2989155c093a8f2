//! The 64-lane bit-sliced simulation engine.
//!
//! State layout (the "bit planes" of DESIGN.md §12): per stage
//! boundary `s`, the engine keeps
//!
//! * `carry[s]` / `chain[s]` — dense `i64`/`u32` planes of borrowed
//!   time and chain depth per lane, double-buffered like the scalar
//!   simulator's SoA rows, with a companion `u64` occupancy mask whose
//!   bit `l` says lane `l` has live state (mask-clear lanes are zero);
//! * `select[s]` / `pending[s]` — `u8` planes of the TIMBER relay
//!   select inputs, with occupancy masks;
//!
//! plus per-lane (not per-stage) planes: the recovery-bubble counter
//! with its `penalty_mask`, the genuine per-lane
//! [`FrequencyController`] with the cycle of its next transition, and
//! the per-lane tallies.
//!
//! A cycle touches dense data only where a mask bit is set, so in the
//! paper's sparse-error regime the whole step degenerates to: one
//! branch-free delay/violation pass per stage (none at all for a stage
//! that cannot be late) and a single `u64` test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timber_netlist::Picos;
use timber_pipeline::{FrequencyController, PipelineConfig, RunStats, StageOutcome};
use timber_telemetry::Counter;
use timber_variability::row_key;

use crate::kernel::RowKernel;
use crate::scheme::BatchScheme;
use crate::workload::BatchWorkload;

/// Maximum lanes per batch: one bit per lane in a `u64` plane.
pub const MAX_LANES: usize = 64;

/// A batched run request: one pipeline/scheme configuration evaluated
/// over `lanes` independent Monte-Carlo trials.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Pipeline configuration (stages, period, recovery budget). The
    /// closed-loop governor is not supported by the bit-sliced engine.
    pub pipeline: PipelineConfig,
    /// Resilience scheme at every stage boundary.
    pub scheme: BatchScheme,
    /// Counter-mode delay workload (must cover at least
    /// `pipeline.stages` stages).
    pub workload: BatchWorkload,
    /// Number of independent trials, `1..=64`.
    pub lanes: usize,
}

impl BatchConfig {
    /// Validates the request.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=64`, the workload covers
    /// fewer stages than the pipeline, a closed-loop governor is
    /// configured, the scheme parameters are invalid, or the law is one
    /// the engine does not model (Razor with a metastability aperture).
    pub fn validate(&self) {
        assert!(
            (1..=MAX_LANES).contains(&self.lanes),
            "lanes must be in 1..={MAX_LANES}"
        );
        assert!(
            self.workload.stages() >= self.pipeline.stages,
            "workload must cover all {} stages",
            self.pipeline.stages
        );
        assert!(
            self.pipeline.governor.is_none(),
            "the bit-sliced engine supports only the open-loop controller"
        );
        self.scheme.validate();
        if let BatchScheme::Razor { meta_window, .. } = self.scheme {
            assert!(
                meta_window == Picos::ZERO,
                "the bit-sliced engine does not model the {} metastability aperture",
                self.scheme.id().name()
            );
        }
    }
}

/// Result of a batched run: per-lane statistics and telemetry
/// counters, in lane order. Both are bit-identical to replaying each
/// lane through the scalar `PipelineSim` (enforced by
/// [`crate::reference::check_equivalence`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRun {
    /// Per-lane run statistics.
    pub stats: Vec<RunStats>,
    /// Per-lane telemetry counters, indexed by `Counter as usize`.
    pub counters: Vec<[u64; Counter::COUNT]>,
}

impl BatchRun {
    /// Merges the per-lane statistics ([`RunStats::merge`]) in lane
    /// order, so the result — including its f64 fields — is
    /// bit-identical for any worker thread count that produced the
    /// run.
    pub fn totals(&self) -> RunStats {
        let mut total = RunStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }
}

/// Per-lane event tallies accumulated during the run.
#[derive(Debug, Clone, Default)]
struct LaneTally {
    masked: u64,
    flagged: u64,
    detected: u64,
    predicted: u64,
    corrupted: u64,
    penalty_cycles: u64,
    slow_cycles: u64,
    relays: u64,
    throttle_requests: u64,
    chain_hist: Vec<u64>,
}

impl LaneTally {
    /// Mirrors `RunStats::record_chain`: grow-on-demand histogram of
    /// chain lengths (index `len - 1`).
    fn record_chain(&mut self, len: usize) {
        if len == 0 {
            return;
        }
        if self.chain_hist.len() < len {
            self.chain_hist.resize(len, 0);
        }
        self.chain_hist[len - 1] += 1;
    }
}

/// The engine proper. Constructed per run; all planes are allocated
/// once up front.
struct Engine {
    pipeline: PipelineConfig,
    law: BatchScheme,
    workload: BatchWorkload,
    /// The row kernel instance this CPU runs.
    kernel: RowKernel,
    lanes: usize,
    stages: usize,
    /// Bit `l` set for every live lane.
    all: u64,
    lane_seeds: Vec<u64>,
    clocks: Vec<FrequencyController>,
    /// Cycle of lane `l`'s next controller transition (`u64::MAX` when
    /// none is scheduled); `period_at` is called only there.
    clock_at: Vec<u64>,
    /// The earliest `clock_at` over all lanes.
    next_clock: u64,
    /// Cycle lane `l`'s current slowdown began, while it is slowed.
    slowed_since: Vec<Option<u64>>,
    /// Current period per lane, in ps.
    period_ps: Vec<i64>,
    /// The law's on-time limit at each lane's current period, in ps:
    /// a later arrival is a violation.
    limit_ps: Vec<i64>,
    /// The smallest `limit_ps` over all lanes.
    min_limit: i64,
    /// Each stage's largest possible delay, in ps.
    ceiling: Vec<i64>,
    /// Dense per-boundary planes with `u64` occupancy masks
    /// (mask-clear lanes hold zero).
    carry: Vec<Vec<i64>>,
    carry_mask: Vec<u64>,
    chain: Vec<Vec<u32>>,
    chain_mask: Vec<u64>,
    next_carry: Vec<Vec<i64>>,
    next_carry_mask: Vec<u64>,
    next_chain: Vec<Vec<u32>>,
    next_chain_mask: Vec<u64>,
    /// TIMBER relay planes (allocated but untouched for other laws).
    select: Vec<Vec<u8>>,
    select_mask: Vec<u64>,
    pending: Vec<Vec<u8>>,
    pending_mask: Vec<u64>,
    /// Per-lane coverage RNGs (logical masking only); drawn in the
    /// same conditional order as the scalar scheme object.
    rngs: Vec<StdRng>,
    penalty: Vec<u64>,
    penalty_mask: u64,
    tally: Vec<LaneTally>,
    /// Scratch arrival row for the current stage.
    arrivals: Vec<i64>,
    /// Rows skipped as provably on time.
    skipped_rows: u64,
}

/// Calls `f(l)` for every set bit of `mask`, ascending.
#[inline]
fn for_lanes(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        let l = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        f(l);
    }
}

impl Engine {
    fn new(config: &BatchConfig) -> Engine {
        config.validate();
        let stages = config.pipeline.stages;
        let lanes = config.lanes;
        let law = config.scheme;
        let lane_seeds: Vec<u64> = (0..lanes).map(|l| config.workload.lane_seed(l)).collect();
        let rngs = if matches!(law, BatchScheme::LogicalMasking { .. }) {
            lane_seeds
                .iter()
                .map(|&s| StdRng::seed_from_u64(s))
                .collect()
        } else {
            Vec::new()
        };
        let clocks = (0..lanes)
            .map(|_| {
                FrequencyController::new(
                    config.pipeline.nominal_period,
                    config.pipeline.slowdown_factor,
                    config.pipeline.slowdown_window,
                    config.pipeline.consolidation_latency_cycles,
                )
            })
            .collect();
        let limit = law.on_time_limit(config.pipeline.nominal_period).as_ps();
        let plane_i64 = || vec![vec![0i64; lanes]; stages];
        let plane_u32 = || vec![vec![0u32; lanes]; stages];
        let plane_u8 = || vec![vec![0u8; lanes]; stages];
        Engine {
            pipeline: config.pipeline,
            law,
            workload: config.workload.clone(),
            kernel: RowKernel::detect(),
            lanes,
            stages,
            all: if lanes == MAX_LANES {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            },
            lane_seeds,
            clocks,
            clock_at: vec![u64::MAX; lanes],
            next_clock: u64::MAX,
            slowed_since: vec![None; lanes],
            period_ps: vec![config.pipeline.nominal_period.as_ps(); lanes],
            limit_ps: vec![limit; lanes],
            min_limit: limit,
            ceiling: config.workload.profiles()[..stages]
                .iter()
                .map(|p| p.max_delay().as_ps())
                .collect(),
            carry: plane_i64(),
            carry_mask: vec![0; stages],
            chain: plane_u32(),
            chain_mask: vec![0; stages],
            next_carry: plane_i64(),
            next_carry_mask: vec![0; stages],
            next_chain: plane_u32(),
            next_chain_mask: vec![0; stages],
            select: plane_u8(),
            select_mask: vec![0; stages],
            pending: plane_u8(),
            pending_mask: vec![0; stages],
            rngs,
            penalty: vec![0; lanes],
            penalty_mask: 0,
            tally: vec![LaneTally::default(); lanes],
            arrivals: vec![0; lanes],
            skipped_rows: 0,
        }
    }

    /// Flags lane `l`'s controller at cycle `t` and schedules its next
    /// transition. The scalar engine has already queried `period_at(t)`
    /// when the cycle's flags arrive, so a transition due at `t` (zero
    /// latency) is taken at the next step, exactly as it does.
    #[inline]
    fn flag_lane(&mut self, l: usize, t: u64) {
        self.clocks[l].flag_error(t);
        let at = self.clocks[l]
            .next_transition()
            .expect("a flag schedules an actuation");
        self.clock_at[l] = at;
        self.next_clock = self.next_clock.min(at);
    }

    /// Steps lane `l`'s controller at cycle `t`, its transition cycle
    /// or the first step after it. Slow
    /// cycles are counted per episode, when the slowdown ends or (in
    /// [`Engine::finish`]) at the end of the run.
    fn clock_transition(&mut self, l: usize, t: u64) {
        let clock = &mut self.clocks[l];
        let period = clock.period_at(t);
        self.period_ps[l] = period.as_ps();
        self.limit_ps[l] = self.law.on_time_limit(period).as_ps();
        match (self.slowed_since[l], clock.is_slowed()) {
            (None, true) => self.slowed_since[l] = Some(t),
            (Some(since), false) => {
                self.tally[l].slow_cycles += t - since;
                self.slowed_since[l] = None;
            }
            _ => {}
        }
        self.clock_at[l] = clock.next_transition().unwrap_or(u64::MAX);
    }

    fn step(&mut self, t: u64) {
        // 1. Clocks: the scalar engine calls period_at every cycle, but
        // a controller only changes at its transitions (level-triggered
        // `cycle >= threshold` checks), so each lane is stepped there
        // alone and a quiet cycle costs one comparison.
        if t >= self.next_clock {
            let mut next = u64::MAX;
            for l in 0..self.lanes {
                if self.clock_at[l] <= t {
                    self.clock_transition(l, t);
                }
                next = next.min(self.clock_at[l]);
            }
            self.next_clock = next;
            self.min_limit = self.limit_ps.iter().copied().min().unwrap_or(i64::MAX);
        }

        // 2. Recovery bubbles: bubbled lanes burn one penalty cycle
        // and freeze all boundary state.
        let bubble = self.penalty_mask;
        for_lanes(bubble, |l| {
            self.penalty[l] -= 1;
            self.tally[l].penalty_cycles += 1;
            if self.penalty[l] == 0 {
                self.penalty_mask &= !(1u64 << l);
            }
        });
        let active = self.all & !bubble;
        if active == 0 {
            return;
        }

        // 3. TIMBER relay roll: at each lane's first evaluation of a
        // cycle the scalar scheme latches pending selects into the
        // flops and clears them; bubbled lanes skip it exactly like
        // they skip evaluation.
        if matches!(self.law, BatchScheme::TimberFf(_)) {
            for s in 0..self.stages {
                let roll = (self.pending_mask[s] | self.select_mask[s]) & active;
                for_lanes(roll, |l| {
                    self.select[s][l] = self.pending[s][l];
                    self.pending[s][l] = 0;
                });
                self.select_mask[s] =
                    (self.select_mask[s] & !active) | (self.pending_mask[s] & active);
                self.pending_mask[s] &= !active;
            }
        }

        // 4. Stage sweep: one branch-free delay/arrival/violation pass
        // per stage, then service only the attention lanes.
        for s in 0..self.stages {
            // A row that cannot be late: no active lane carries borrowed
            // time into the stage and its worst delay meets every lane's
            // limit. Every arrival is on time, so no draw is read (a
            // counter-mode draw that is skipped shifts no later one) and
            // only the chains dying here are retired (DESIGN.md §12.3).
            if self.carry_mask[s] & active == 0 && self.ceiling[s] <= self.min_limit {
                for_lanes(self.chain_mask[s] & active, |l| {
                    self.eval_lane(s, l, t, false);
                });
                self.skipped_rows += 1;
                continue;
            }
            let violation = self.kernel.run(
                &self.workload.profiles()[s],
                row_key(t, s),
                &self.lane_seeds,
                &self.carry[s],
                &self.limit_ps,
                &mut self.arrivals,
            );
            // Attention: violating lanes plus lanes whose inherited
            // chain must be recorded as it dies.
            let attention = (violation | self.chain_mask[s]) & active;
            for_lanes(attention, |l| {
                self.eval_lane(s, l, t, violation >> l & 1 == 1);
            });
        }

        // 5. Commit: per-lane double-buffer swap, but only where a
        // mask bit says there is state to move or clear.
        for s in 0..self.stages {
            let touched = (self.carry_mask[s] | self.next_carry_mask[s]) & active;
            for_lanes(touched, |l| {
                self.carry[s][l] = self.next_carry[s][l];
                self.next_carry[s][l] = 0;
            });
            self.carry_mask[s] = (self.carry_mask[s] & !active) | self.next_carry_mask[s];
            self.next_carry_mask[s] = 0;

            let touched = (self.chain_mask[s] | self.next_chain_mask[s]) & active;
            for_lanes(touched, |l| {
                self.chain[s][l] = self.next_chain[s][l];
                self.next_chain[s][l] = 0;
            });
            self.chain_mask[s] = (self.chain_mask[s] & !active) | self.next_chain_mask[s];
            self.next_chain_mask[s] = 0;
        }
    }

    /// Evaluates one attention lane at stage `s`, mirroring the scalar
    /// outcome handling of `PipelineSim::run` statement for statement.
    fn eval_lane(&mut self, s: usize, l: usize, t: u64, violated: bool) {
        let chain_depth = self.chain[s][l] as usize;
        let select = self.select[s][l];
        let outcome = if violated {
            let law = self.law;
            let rng = &mut self.rngs;
            law.decide(
                Picos(self.arrivals[l]),
                Picos(self.period_ps[l]),
                select,
                |coverage| rng[l].gen_bool(coverage),
            )
        } else {
            StageOutcome::Ok
        };
        match outcome {
            StageOutcome::Ok => {
                // On-time capture: an inherited chain dies here.
                if chain_depth > 0 {
                    self.tally[l].record_chain(chain_depth);
                }
            }
            StageOutcome::Masked { borrowed, flagged } => {
                self.tally[l].masked += 1;
                let len = chain_depth + 1;
                if chain_depth > 0 {
                    self.tally[l].relays += 1;
                }
                if flagged {
                    self.tally[l].flagged += 1;
                    self.tally[l].throttle_requests += 1;
                    self.flag_lane(l, t);
                }
                if s + 1 < self.stages {
                    if let BatchScheme::TimberFf(schedule) = self.law {
                        // Relay: downstream select input for the next
                        // cycle (single writer per slot in a linear
                        // pipeline; the slot was cleared at roll).
                        self.pending[s + 1][l] = schedule.relayed_select(select);
                        self.pending_mask[s + 1] |= 1u64 << l;
                    }
                    self.next_carry[s + 1][l] = borrowed.as_ps();
                    self.next_carry_mask[s + 1] |= 1u64 << l;
                    self.next_chain[s + 1][l] = len as u32;
                    self.next_chain_mask[s + 1] |= 1u64 << l;
                } else {
                    self.tally[l].record_chain(len);
                }
            }
            StageOutcome::Detected { recovery } => {
                self.tally[l].detected += 1;
                self.tally[l].record_chain(chain_depth + 1);
                self.penalty[l] += u64::from(recovery.penalty_cycles());
                self.penalty_mask |= 1u64 << l;
            }
            StageOutcome::Predicted => {
                self.tally[l].predicted += 1;
                if chain_depth > 0 {
                    self.tally[l].record_chain(chain_depth);
                }
                self.tally[l].throttle_requests += 1;
                self.flag_lane(l, t);
            }
            StageOutcome::Corrupted => {
                self.tally[l].corrupted += 1;
                self.tally[l].record_chain(chain_depth + 1);
            }
        }
    }

    fn finish(mut self, cycles: u64) -> BatchRun {
        // Flush chains still in flight (scalar end-of-run rule).
        for s in 0..self.stages {
            let mask = self.chain_mask[s];
            for_lanes(mask, |l| {
                let len = self.chain[s][l] as usize;
                self.tally[l].record_chain(len);
            });
        }
        let slowed = self
            .pipeline
            .nominal_period
            .scale(1.0 + self.pipeline.slowdown_factor);
        // Slowdowns still open at the end count up to the last cycle.
        for (tally, since) in self.tally.iter_mut().zip(&self.slowed_since) {
            if let Some(since) = since {
                tally.slow_cycles += cycles - since;
            }
        }
        let mut stats = Vec::with_capacity(self.lanes);
        let mut counters = Vec::with_capacity(self.lanes);
        for (l, tally) in self.tally.into_iter().enumerate() {
            let episodes = self.clocks[l].episodes();
            // Every cycle is nominal or slowed, so wall time folds into
            // a closed form identical to the scalar running sum
            // (integer ps additions); energy is the scalar simulator's
            // one unit per cycle.
            let wall_time = self.pipeline.nominal_period * (cycles - tally.slow_cycles) as i64
                + slowed * tally.slow_cycles as i64;
            let mut c = [0u64; Counter::COUNT];
            c[Counter::Cycles as usize] = cycles;
            c[Counter::Masked as usize] = tally.masked;
            c[Counter::Flagged as usize] = tally.flagged;
            c[Counter::Detected as usize] = tally.detected;
            c[Counter::Predicted as usize] = tally.predicted;
            c[Counter::Corrupted as usize] = tally.corrupted;
            c[Counter::PenaltyCycles as usize] = tally.penalty_cycles;
            c[Counter::SlowCycles as usize] = tally.slow_cycles;
            c[Counter::ThrottleEpisodes as usize] = episodes;
            c[Counter::Relays as usize] = tally.relays;
            c[Counter::ThrottleRequests as usize] = tally.throttle_requests;
            counters.push(c);
            stats.push(RunStats {
                cycles,
                instructions: cycles - tally.penalty_cycles,
                masked: tally.masked,
                flagged: tally.flagged,
                detected: tally.detected,
                predicted: tally.predicted,
                corrupted: tally.corrupted,
                penalty_cycles: tally.penalty_cycles,
                slow_cycles: tally.slow_cycles,
                slowdown_episodes: episodes,
                wall_time,
                chain_histogram: tally.chain_hist,
                energy: cycles as f64,
            });
        }
        BatchRun { stats, counters }
    }
}

/// Runs `cycles` clock cycles of every lane through the bit-sliced
/// engine and returns per-lane statistics and telemetry counters.
///
/// # Panics
///
/// Panics if the configuration fails [`BatchConfig::validate`].
pub fn run_batched(config: &BatchConfig, cycles: u64) -> BatchRun {
    run_counted(config, cycles).0
}

/// The name of the row kernel instance the engine runs on this CPU:
/// `"avx2"` where the CPU has AVX2, else `"plain"` (DESIGN.md §12.2).
pub fn row_kernel() -> &'static str {
    RowKernel::detect().name()
}

/// [`run_batched`], also returning how many rows (stage × cycle) the
/// engine skipped as provably on time.
pub(crate) fn run_counted(config: &BatchConfig, cycles: u64) -> (BatchRun, u64) {
    let mut engine = Engine::new(config);
    for t in 0..cycles {
        engine.step(t);
    }
    let skipped = engine.skipped_rows;
    (engine.finish(cycles), skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber::CheckingPeriod;
    use timber_variability::{StageDelayModel, StagePathProfile};

    fn stress_profiles(stages: usize, critical: i64) -> Vec<StageDelayModel> {
        (0..stages)
            .map(|s| {
                let mut p = StagePathProfile::from_critical(Picos(critical + 10 * s as i64));
                p.p_critical = 0.02;
                p.p_near = 0.2;
                StageDelayModel::new(&p)
            })
            .collect()
    }

    fn config(scheme: BatchScheme, lanes: usize, critical: i64) -> BatchConfig {
        BatchConfig {
            pipeline: PipelineConfig::new(4, Picos(1000)),
            scheme,
            workload: BatchWorkload::new(stress_profiles(4, critical), 2010),
            lanes,
        }
    }

    #[test]
    fn quiet_workload_is_all_ok() {
        let cfg = config(BatchScheme::Conventional, 8, 900);
        let run = run_batched(&cfg, 2_000);
        for stats in &run.stats {
            assert_eq!(stats.cycles, 2_000);
            assert_eq!(stats.instructions, 2_000);
            assert_eq!(stats.violations(), 0);
            assert_eq!(stats.wall_time, Picos(1000) * 2_000);
            assert!(stats.chain_histogram.is_empty());
        }
    }

    #[test]
    fn timber_ff_masks_and_flags_under_stress() {
        let sched = CheckingPeriod::new(Picos(1000), 24.0, 1, 2).unwrap();
        let cfg = config(BatchScheme::TimberFf(sched), 64, 1040);
        let run = run_batched(&cfg, 5_000);
        let masked: u64 = run.stats.iter().map(|s| s.masked).sum();
        let flagged: u64 = run.stats.iter().map(|s| s.flagged).sum();
        assert!(masked > 0, "stress workload must mask");
        assert!(flagged > 0, "chains must reach the ED region");
        let slow: u64 = run.stats.iter().map(|s| s.slow_cycles).sum();
        assert!(slow > 0, "flags must throttle the per-lane clock");
        for (stats, counters) in run.stats.iter().zip(&run.counters) {
            assert_eq!(counters[Counter::Masked as usize], stats.masked);
            assert_eq!(counters[Counter::Flagged as usize], stats.flagged);
            assert_eq!(
                counters[Counter::ThrottleEpisodes as usize],
                stats.slowdown_episodes
            );
        }
    }

    #[test]
    fn detector_penalties_cost_instructions() {
        let cfg = config(
            BatchScheme::Razor {
                window: Picos(200),
                meta_window: Picos::ZERO,
                meta_penalty: 0,
            },
            16,
            1040,
        );
        let run = run_batched(&cfg, 5_000);
        let detected: u64 = run.stats.iter().map(|s| s.detected).sum();
        assert!(detected > 0);
        for stats in &run.stats {
            assert_eq!(stats.instructions + stats.penalty_cycles, stats.cycles);
        }
    }

    #[test]
    fn lane_count_below_64_works() {
        for lanes in [1, 2, 63] {
            let cfg = config(BatchScheme::SoftEdge { window: Picos(60) }, lanes, 1020);
            let run = run_batched(&cfg, 500);
            assert_eq!(run.stats.len(), lanes);
        }
    }

    #[test]
    fn a_row_whose_worst_delay_meets_the_limit_exactly_is_skipped() {
        // Every draw is the critical delay, equal to the period: an
        // arrival at the limit is on time, so no row can be late.
        let mut p = StagePathProfile::from_critical(Picos(1000));
        p.p_critical = 1.0;
        p.p_near = 0.0;
        let cfg = BatchConfig {
            pipeline: PipelineConfig::new(4, Picos(1000)),
            scheme: BatchScheme::Conventional,
            workload: BatchWorkload::new(vec![StageDelayModel::new(&p); 4], 3),
            lanes: 8,
        };
        let (run, skipped) = run_counted(&cfg, 300);
        assert_eq!(skipped, 4 * 300);
        assert!(run.stats.iter().all(|s| s.violations() == 0));
        crate::reference::check_equivalence(&cfg, 300, 1).unwrap();
    }

    #[test]
    fn carried_time_keeps_a_fast_stage_live() {
        // Stage 0 can be late and TIMBER masks it, handing borrowed
        // time to stage 1, whose own worst delay is on time: its rows
        // with a carry must be drawn, the rest may be skipped.
        let sched = CheckingPeriod::new(Picos(1000), 30.0, 1, 2).unwrap();
        let mut late = StagePathProfile::from_critical(Picos(1060));
        late.p_critical = 0.3;
        let fast = StagePathProfile::from_critical(Picos(990));
        let profiles = [late, fast].map(|p| StageDelayModel::new(&p));
        let cfg = BatchConfig {
            pipeline: PipelineConfig::new(2, Picos(1000)),
            scheme: BatchScheme::TimberFf(sched),
            workload: BatchWorkload::new(profiles.to_vec(), 11),
            lanes: 4,
        };
        let (run, skipped) = run_counted(&cfg, 2_000);
        assert!(run.stats.iter().map(|s| s.masked).sum::<u64>() > 0);
        assert!(skipped > 0, "stage 1 rows without a carry are skipped");
        crate::reference::check_equivalence(&cfg, 2_000, 1).unwrap();
    }

    #[test]
    fn runs_are_deterministic() {
        let sched = CheckingPeriod::new(Picos(1000), 24.0, 0, 2).unwrap();
        let cfg = config(BatchScheme::TimberFf(sched), 32, 1040);
        assert_eq!(run_batched(&cfg, 3_000), run_batched(&cfg, 3_000));
    }

    #[test]
    #[should_panic(expected = "open-loop controller")]
    fn governor_is_rejected() {
        let mut cfg = config(BatchScheme::Conventional, 4, 900);
        cfg.pipeline.governor = Some(timber_resilience::GovernorConfig::default());
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "does not model the razor-ff metastability aperture")]
    fn razor_metastability_aperture_is_rejected() {
        let razor = BatchScheme::Razor {
            window: Picos(200),
            meta_window: Picos(20),
            meta_penalty: 4,
        };
        config(razor, 4, 900).validate();
    }

    #[test]
    #[should_panic(expected = "lanes must be in")]
    fn lane_bounds_are_enforced() {
        let cfg = config(BatchScheme::Conventional, 65, 900);
        cfg.validate();
    }
}
