//! The cycle-level pipeline simulator.

use timber_netlist::Picos;
use timber_resilience::{GovernorConfig, GovernorLevel, LadderGovernor};
use timber_telemetry::{Counter, EventKind, NoopSink, TelemetrySink};
use timber_variability::{DelaySource, SensitizationModel, Q16};

use crate::controller::FrequencyController;
use crate::scheme::{CycleContext, SequentialScheme, StageOutcome};
use crate::stats::RunStats;
use crate::topology::Topology;

/// Statically certified per-run bounds, checked live in debug builds.
///
/// `timber-analyze` derives these from the schedule and the workload's
/// delay hull; attaching them to a [`PipelineConfig`] arms a
/// `debug_assert!` in the hot loop's masking arm that fails the moment
/// any dynamic observation exceeds its static certificate. The check is
/// wrapped in `#[cfg(debug_assertions)]`, so release builds carry zero
/// overhead — `repro bench-check` runs against release binaries and
/// sees the identical hot loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifiedBounds {
    /// Certified upper bound on time borrowed at any stage boundary in
    /// one cycle.
    pub max_borrow: Picos,
    /// Certified upper bound on the masked-violation relay-chain
    /// length.
    pub max_chain: usize,
}

/// Configuration of a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Number of pipeline stages (and stage boundaries).
    pub stages: usize,
    /// Nominal clock period.
    pub nominal_period: Picos,
    /// Error-consolidation latency in whole cycles from flag to
    /// frequency actuation. The paper's Fig. 2 budget is 1.5 cycles
    /// (half a cycle is bought by latching the flag on the falling
    /// edge); we round up to whole simulator cycles.
    pub consolidation_latency_cycles: u64,
    /// Relative clock slow-down while mitigating (0.1 = 10% slower).
    pub slowdown_factor: f64,
    /// Duration of a slow-down episode, in cycles.
    pub slowdown_window: u64,
    /// Closed-loop escalation-ladder governor. `None` (the default)
    /// keeps the open-loop single-pulse [`FrequencyController`];
    /// `Some` replaces it with a
    /// [`timber_resilience::LadderGovernor`] — a windowed flag-rate
    /// estimator driving nominal → throttle → deep-throttle →
    /// safe-mode, with safe-mode entry flushing all in-flight borrow
    /// state and replaying through a pipeline refill (Razor-style
    /// fallback).
    pub governor: Option<GovernorConfig>,
    /// Statically certified bounds from `timber-analyze`. When set,
    /// debug builds assert every masked borrow and relay chain stays
    /// within its certificate; release builds ignore the field
    /// entirely (the check is compiled out).
    pub debug_bounds: Option<CertifiedBounds>,
}

impl PipelineConfig {
    /// A configuration with paper-consistent defaults: 2-cycle
    /// consolidation, 10% temporary slow-down for 100 cycles.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero or `nominal_period` is not positive.
    pub fn new(stages: usize, nominal_period: Picos) -> PipelineConfig {
        assert!(stages > 0, "pipeline needs at least one stage");
        assert!(nominal_period > Picos::ZERO, "period must be positive");
        PipelineConfig {
            stages,
            nominal_period,
            consolidation_latency_cycles: 2,
            slowdown_factor: 0.10,
            slowdown_window: 100,
            governor: None,
            debug_bounds: None,
        }
    }
}

/// Where a run's per-stage delays come from: the counter-mode
/// sensitization model, derated by the variability environment.
///
/// The hot loop is row-based: once per productive cycle it fills one
/// row — `row[s]` is the derated combinational delay of stage `s` —
/// and then evaluates the row against the scheme, at the boundaries
/// the fill did not prove on time.
struct DelaySupply<'a> {
    sensitization: &'a SensitizationModel,
    variability: &'a dyn DelaySource,
    /// Per stage, [`DelaySource::local_bound`], asked for once.
    local_bounds: Vec<Option<Q16>>,
    /// Per stage, the [`DelaySource::global_bound`] asked for last
    /// times the stage's local bound: a bound on every factor of the
    /// cycles before `until`.
    bounds: Vec<Option<Q16>>,
    /// The first cycle `bounds` does not cover.
    until: u64,
}

impl<'a> DelaySupply<'a> {
    /// A supply whose bounds are asked for at its first cycle.
    fn new(
        sensitization: &'a SensitizationModel,
        variability: &'a dyn DelaySource,
        stages: usize,
    ) -> DelaySupply<'a> {
        DelaySupply {
            sensitization,
            variability,
            local_bounds: (0..stages).map(|s| variability.local_bound(s)).collect(),
            bounds: vec![None; stages],
            until: 0,
        }
    }

    /// Asks for the global bound that holds from `cycle` and refreshes
    /// the per-stage bounds with it.
    fn refresh(&mut self, cycle: u64) {
        let global = self.variability.global_bound(cycle);
        self.until = global.map_or(u64::MAX, |(_, until)| until);
        for (bound, local) in self.bounds.iter_mut().zip(&self.local_bounds) {
            *bound = global.zip(*local).map(|((g, _), l)| g * l);
        }
    }

    /// Fills one cycle's delay row: each stage's base delay is the
    /// sensitization model's pure `(cycle, stage)` sample, derated by
    /// `global(cycle) * local(cycle, stage)`. Sets `proved[s]` where
    /// stage `s` was proved on time, and returns whether every stage
    /// was.
    ///
    /// A stage that [`on_time`] proves on time against the scheme's
    /// [`SequentialScheme::on_time_limit`] for this cycle, with the
    /// bound that holds at the cycle (the bounds are refreshed when the
    /// cycle reaches `until`), skips the exact factor; the global part
    /// is derived once per cycle, when a stage first needs it. A
    /// skipped stage gets the stand-in `limit − carry[s]`, an arrival
    /// exactly at the limit. The stand-in is exact in outcome: the true
    /// arrival is at most the limit, and the scheme contract makes every
    /// such arrival `Ok` with the same scheme state; the environment is
    /// a pure function of the coordinates, so a skipped query changes
    /// no other answer.
    fn fill_row(
        &mut self,
        scheme: &dyn SequentialScheme,
        ctx: &CycleContext,
        carry: &[Picos],
        row: &mut [Picos],
        proved: &mut [bool],
    ) -> bool {
        let cycle = ctx.cycle;
        if cycle >= self.until {
            self.refresh(cycle);
        }
        let limit = scheme.on_time_limit(ctx);
        let variability = self.variability;
        let mut global = None;
        let mut all = true;
        for (s, (slot, proved)) in row.iter_mut().zip(proved.iter_mut()).enumerate() {
            let base = self.sensitization.sample(cycle, s);
            if let Some(limit) = limit {
                let room = limit.as_ps().saturating_sub(carry[s].as_ps());
                if self.bounds[s].is_some_and(|b| on_time(base, b, room)) {
                    *slot = Picos(room);
                    *proved = true;
                    continue;
                }
            }
            let global = *global.get_or_insert_with(|| variability.global(cycle));
            *slot = (global * variability.local(cycle, s)).derate(base);
            *proved = false;
            all = false;
        }
        all
    }
}

/// The simulator's one on-time test: whether
/// `carry + bound.derate(base) ≤ limit`, given the saturated
/// `room = limit − carry`. The product is exact in `i128`, so for a
/// non-negative base (every sensitization sample is positive) the test
/// is exact wherever `room` did not saturate. A room saturated upward
/// is less than the true one, so a `true` answer still holds; one
/// saturated downward is negative, and no non-negative delay fits it.
#[inline]
fn on_time(base: Picos, bound: Q16, room: i64) -> bool {
    (i128::from(base.as_ps()) * i128::from(bound.0)) >> 16 <= i128::from(room)
}

/// Struct-of-arrays per-boundary state, double-buffered.
///
/// Each field is one flat array indexed by stage boundary, so a cycle
/// step walks a handful of small contiguous rows (delay, arrival,
/// carry, chain) instead of hopping between per-stage objects: the
/// arrival row is built in one branch-free pass, and the outcome loop
/// only touches the chain/carry rows on the rare violating stages.
#[derive(Debug)]
struct StageSoa {
    /// Borrowed time entering each boundary this cycle.
    carry: Vec<Picos>,
    /// Length of the masked-violation chain feeding each boundary.
    chain: Vec<usize>,
    /// Double buffer for `carry`: next cycle's borrows accumulate
    /// here, then the buffers swap — the main loop never allocates.
    next_carry: Vec<Picos>,
    /// Double buffer for `chain`.
    next_chain: Vec<usize>,
    /// Per-stage combinational delay row, filled once per cycle.
    delay_row: Vec<Picos>,
    /// Per-stage arrival row (`carry + delay`), built in one pass.
    arrival_row: Vec<Picos>,
    /// Per stage, whether this cycle's fill proved it on time.
    proved: Vec<bool>,
    /// Whether some boundary holds a carry or a chain.
    live: bool,
}

impl StageSoa {
    fn new(stages: usize) -> StageSoa {
        StageSoa {
            carry: vec![Picos::ZERO; stages + 1],
            chain: vec![0; stages + 1],
            next_carry: vec![Picos::ZERO; stages + 1],
            next_chain: vec![0; stages + 1],
            delay_row: vec![Picos::ZERO; stages],
            arrival_row: vec![Picos::ZERO; stages],
            proved: vec![false; stages],
            live: false,
        }
    }

    /// Zeroes the next-cycle buffers and builds the arrival row from
    /// the freshly filled delay row.
    fn begin_cycle(&mut self) {
        self.next_carry.fill(Picos::ZERO);
        self.next_chain.fill(0);
        for (s, arrival) in self.arrival_row.iter_mut().enumerate() {
            *arrival = self.carry[s] + self.delay_row[s];
        }
    }

    /// Whether boundary `s` may skip the scheme call: proved on time,
    /// and inheriting neither a borrow nor a relay chain.
    fn skips(&self, s: usize) -> bool {
        self.proved[s] && self.carry[s] == Picos::ZERO && self.chain[s] == 0
    }

    /// Swaps the double buffers at the end of a productive cycle.
    fn commit_cycle(&mut self) {
        std::mem::swap(&mut self.carry, &mut self.next_carry);
        std::mem::swap(&mut self.chain, &mut self.next_chain);
        self.live = self
            .chain
            .iter()
            .zip(&self.carry)
            .any(|(&d, &c)| d > 0 || c != Picos::ZERO);
    }
}

/// The clock authority of a run: the paper's open-loop single-pulse
/// throttle, or the closed-loop escalation ladder.
#[derive(Debug, Clone)]
enum ClockControl {
    OpenLoop(FrequencyController),
    Ladder(LadderGovernor),
}

impl ClockControl {
    fn for_config(config: &PipelineConfig) -> ClockControl {
        match config.governor {
            Some(gc) => ClockControl::Ladder(LadderGovernor::new(config.nominal_period, gc)),
            None => ClockControl::OpenLoop(FrequencyController::new(
                config.nominal_period,
                config.slowdown_factor,
                config.slowdown_window,
                config.consolidation_latency_cycles,
            )),
        }
    }

    fn period_at(&mut self, cycle: u64) -> Picos {
        match self {
            ClockControl::OpenLoop(c) => c.period_at(cycle),
            ClockControl::Ladder(g) => g.period_at(cycle),
        }
    }

    fn flag_error(&mut self, cycle: u64) {
        match self {
            ClockControl::OpenLoop(c) => c.flag_error(cycle),
            ClockControl::Ladder(g) => g.flag_error(cycle),
        }
    }

    fn is_slowed(&self) -> bool {
        match self {
            ClockControl::OpenLoop(c) => c.is_slowed(),
            ClockControl::Ladder(g) => g.is_slowed(),
        }
    }

    /// Slowdown episodes: open-loop pulses, or ladder escalations.
    fn episodes(&self) -> u64 {
        match self {
            ClockControl::OpenLoop(c) => c.episodes(),
            ClockControl::Ladder(g) => g.escalations(),
        }
    }
}

/// Cycle-level simulator binding a scheme, a workload model and a
/// variability environment.
///
/// Time-borrowing semantics: time borrowed at stage boundary `s` in
/// cycle `t` delays the data launched into each successor of `s` — on
/// the default linear chain, stage `s+1` — so it is added to the
/// arrival there in cycle `t+1`. A boundary fed by several
/// predecessors ([`PipelineSim::on_topology`]) inherits the largest of
/// their borrows. Borrow falling off a boundary without successors is
/// absorbed by write-back slack (the paper's pipelines end in a
/// register file / memory stage with margin).
///
/// Relay chains follow the same edges: a masked violation extends its
/// boundary's chain by one and hands it to every successor, so chains
/// continue along every fork and merge by max where paths reconverge.
/// Each chain is recorded once, where it ends (an on-time capture, a
/// detection or corruption, a boundary without successors, a safe-mode
/// flush, or the end of `run`). On a linear chain the weighted
/// histogram sum equals the masked count; on a DAG each forked path
/// counts separately.
///
/// The cycle is sparse, as TIMBER's sparse-error premise suggests: a
/// boundary proved on time against the scheme's
/// [`SequentialScheme::on_time_limit`] that inherits neither a borrow
/// nor a relay chain is not evaluated at all (see [`PipelineSim::run`]).
///
/// The simulator is generic over a [`TelemetrySink`]; the default
/// [`NoopSink`] compiles away (every instrumentation site is guarded by
/// the sink's `ENABLED` constant), so [`PipelineSim::new`] keeps the
/// un-instrumented hot-loop throughput. Use
/// [`PipelineSim::with_telemetry`] to record borrow/relay/ED-flag/panic
/// events, per-stage histograms and throttle activity into a
/// `timber_telemetry::Recorder`.
pub struct PipelineSim<'a, S: TelemetrySink = NoopSink> {
    config: PipelineConfig,
    scheme: &'a mut dyn SequentialScheme,
    supply: DelaySupply<'a>,
    clock: ClockControl,
    /// The boundary graph borrows and chains propagate along.
    topology: Topology,
    /// Struct-of-arrays boundary state (carry/chain rows, double
    /// buffered) plus the per-cycle delay and arrival rows.
    soa: StageSoa,
    /// A safe-mode flush has happened since the last productive cycle,
    /// so the next one evaluates every boundary.
    flushed: bool,
    cycle: u64,
    penalty_remaining: u64,
    sink: S,
}

impl<S: TelemetrySink> std::fmt::Debug for PipelineSim<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineSim")
            .field("config", &self.config)
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl<'a> PipelineSim<'a, NoopSink> {
    /// Creates an un-instrumented simulator (telemetry compiled away).
    ///
    /// # Panics
    ///
    /// Panics if the sensitization model has fewer stages than the
    /// config.
    pub fn new(
        config: PipelineConfig,
        scheme: &'a mut dyn SequentialScheme,
        sensitization: &'a SensitizationModel,
        variability: &'a dyn DelaySource,
    ) -> PipelineSim<'a, NoopSink> {
        PipelineSim::with_telemetry(config, scheme, sensitization, variability, NoopSink)
    }
}

impl<'a, S: TelemetrySink> PipelineSim<'a, S> {
    /// Creates a simulator writing telemetry into `sink` (pass a
    /// `&mut timber_telemetry::Recorder` to keep it afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the sensitization model has fewer stages than the
    /// config.
    pub fn with_telemetry(
        config: PipelineConfig,
        scheme: &'a mut dyn SequentialScheme,
        sensitization: &'a SensitizationModel,
        variability: &'a dyn DelaySource,
        sink: S,
    ) -> PipelineSim<'a, S> {
        assert!(
            sensitization.stage_count() >= config.stages,
            "sensitization model must cover all {} stages",
            config.stages
        );
        let clock = ClockControl::for_config(&config);
        let topology = Topology::linear(config.stages);
        scheme.reset(&topology);
        PipelineSim {
            config,
            scheme,
            supply: DelaySupply::new(sensitization, variability, config.stages),
            clock,
            topology,
            soa: StageSoa::new(config.stages),
            flushed: false,
            cycle: 0,
            penalty_remaining: 0,
            sink,
        }
    }

    /// Runs the pipeline over `topology`'s boundary DAG instead of the
    /// default linear chain, resetting the scheme for it.
    ///
    /// # Panics
    ///
    /// Panics if `topology` does not have one boundary per configured
    /// stage.
    #[must_use]
    pub fn on_topology(mut self, topology: &Topology) -> PipelineSim<'a, S> {
        assert_eq!(
            topology.len(),
            self.config.stages,
            "topology must have one boundary per stage"
        );
        self.topology = topology.clone();
        self.scheme.reset(topology);
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Borrowed time entering each stage boundary on the *next* cycle —
    /// the architectural carry state left behind by [`PipelineSim::run`].
    ///
    /// Index `s` is the borrow inherited by boundary `s`; a boundary
    /// without predecessors (index 0 of a linear chain) and the extra
    /// final index are always zero (nothing borrows into the pipeline
    /// head, and borrow falling off the tail is absorbed by write-back
    /// slack). The differential-conformance oracle compares
    /// this against the event-driven model's final state.
    pub fn carry(&self) -> &[Picos] {
        &self.soa.carry
    }

    /// Length of the masked-violation chain feeding each boundary on
    /// the next cycle (the relay depth; companion of
    /// [`PipelineSim::carry`]).
    pub fn chain_depths(&self) -> &[usize] {
        &self.soa.chain
    }

    /// Recovery bubbles still pending after [`PipelineSim::run`]
    /// returned.
    pub fn penalty_remaining(&self) -> u64 {
        self.penalty_remaining
    }

    /// Total cycles simulated so far (across all `run` calls).
    pub fn cycles_run(&self) -> u64 {
        self.cycle
    }

    /// Runs `cycles` clock cycles and returns the statistics.
    ///
    /// Schemes that reserve a guard band (canary prediction) apply it
    /// inside their own `evaluate`; the simulator hands every scheme
    /// the raw arrival against the actual clock edge.
    ///
    /// A boundary the delay fill proves on time, with no carry and no
    /// chain entering it, is left out of the outcome loop: its outcome
    /// is `Ok` with no chain to end, and the `on_time_limit` contract
    /// makes omitting the call exact. A cycle where every boundary is
    /// left out, with no carry or chain anywhere, skips the outcome
    /// loop and the buffer swap altogether. The first productive cycle
    /// after a safe-mode flush evaluates every boundary: the flush ends
    /// the simulator's chains, not the scheme's own relay state.
    pub fn run(&mut self, cycles: u64) -> RunStats {
        let mut stats = RunStats::default();
        // Chains are at most `stages` long, so one reservation keeps
        // `record_chain` allocation-free for the whole run.
        stats.reserve_chains(self.config.stages + 1);
        let mut seen_episodes = self.clock.episodes();
        for _ in 0..cycles {
            let t = self.cycle;
            self.cycle += 1;
            let period = self.clock.period_at(t);

            // Closed-loop ladder transitions actuate at most once per
            // cycle; polling here observes every one.
            if let ClockControl::Ladder(g) = &mut self.clock {
                if let Some(tr) = g.take_transition() {
                    if S::ENABLED {
                        let kind = if tr.is_escalation() {
                            EventKind::Escalate {
                                level: tr.to.index(),
                                period: tr.period,
                            }
                        } else {
                            EventKind::Deescalate {
                                level: tr.to.index(),
                                period: tr.period,
                            }
                        };
                        self.sink.event(t, kind);
                    }
                    if tr.to == GovernorLevel::SafeMode {
                        // Razor-style fallback: the environment has
                        // outrun what borrowing can absorb, so discard
                        // every in-flight speculative borrow and replay
                        // through a full pipeline refill at the safe
                        // clock. Flushed chains end here and are
                        // recorded so chain accounting stays exact.
                        let mut flushed = 0u32;
                        for d in self.soa.chain.iter_mut() {
                            if *d > 0 {
                                stats.record_chain(*d);
                                flushed += 1;
                                *d = 0;
                            }
                        }
                        self.soa.carry.fill(Picos::ZERO);
                        self.soa.live = false;
                        // The scheme keeps its own relay state, which
                        // the flush does not reach: evaluate every
                        // boundary of the next productive cycle, so the
                        // scheme sees it as if nothing were skipped.
                        self.flushed = true;
                        self.penalty_remaining += self.config.stages as u64;
                        if S::ENABLED {
                            self.sink.event(t, EventKind::SafeModeReplay { flushed });
                        }
                    }
                }
            }

            stats.cycles += 1;
            stats.wall_time += period;
            if self.clock.is_slowed() {
                stats.slow_cycles += 1;
            }
            if S::ENABLED {
                self.sink.add(Counter::Cycles, 1);
                if self.clock.is_slowed() {
                    self.sink.add(Counter::SlowCycles, 1);
                }
                if matches!(self.clock, ClockControl::OpenLoop(_))
                    && self.clock.episodes() != seen_episodes
                {
                    seen_episodes = self.clock.episodes();
                    self.sink.event(t, EventKind::Throttle { period });
                }
            }

            if self.penalty_remaining > 0 {
                // Recovery bubble: no instruction completes and stage
                // boundaries idle.
                self.penalty_remaining -= 1;
                stats.penalty_cycles += 1;
                if S::ENABLED {
                    self.sink.add(Counter::PenaltyCycles, 1);
                }
                continue;
            }

            let ctx = CycleContext { cycle: t, period };
            // Row-based cycle step: sample the whole delay row, build
            // the arrival row in one pass, then classify outcomes.
            let all_proved = self.supply.fill_row(
                &*self.scheme,
                &ctx,
                &self.soa.carry,
                &mut self.soa.delay_row,
                &mut self.soa.proved,
            );
            let dense = std::mem::take(&mut self.flushed);
            stats.instructions += 1;
            if all_proved && !self.soa.live && !dense {
                // Every boundary is on time and inherits nothing: each
                // outcome is `Ok` with no chain to end, and the carry
                // and chain rows stay zero.
                continue;
            }
            self.soa.begin_cycle();

            for s in 0..self.config.stages {
                if !dense && self.soa.skips(s) {
                    continue;
                }
                let arrival = self.soa.arrival_row[s];
                let outcome = self.scheme.evaluate(s, arrival, &ctx);
                match outcome {
                    StageOutcome::Ok => {
                        if self.soa.chain[s] > 0 {
                            stats.record_chain(self.soa.chain[s]);
                        }
                    }
                    StageOutcome::Masked { borrowed, flagged } => {
                        stats.masked += 1;
                        let len = self.soa.chain[s] + 1;
                        #[cfg(debug_assertions)]
                        if let Some(b) = self.config.debug_bounds {
                            debug_assert!(
                                borrowed <= b.max_borrow,
                                "certificate violated at cycle {t} stage {s}: \
                                 borrowed {}ps > certified {}ps",
                                borrowed.as_ps(),
                                b.max_borrow.as_ps(),
                            );
                            debug_assert!(
                                len <= b.max_chain,
                                "certificate violated at cycle {t} stage {s}: \
                                 relay chain {len} > certified {}",
                                b.max_chain,
                            );
                        }
                        if S::ENABLED {
                            if self.soa.chain[s] > 0 {
                                // An inherited borrow means the upstream
                                // boundary relayed its error state here.
                                self.sink.event(
                                    t,
                                    EventKind::Relay {
                                        stage: s as u32,
                                        select: self.soa.chain[s] as u32,
                                    },
                                );
                            }
                            self.sink.event(
                                t,
                                EventKind::Borrow {
                                    stage: s as u32,
                                    depth: len as u32,
                                    slack: borrowed,
                                    flagged,
                                },
                            );
                            if flagged {
                                self.sink.event(t, EventKind::EdFlag { stage: s as u32 });
                                self.sink.event(t, EventKind::ThrottleRequest);
                            }
                        }
                        if flagged {
                            stats.flagged += 1;
                            self.clock.flag_error(t);
                        }
                        let succs = self.topology.successors(s);
                        if succs.is_empty() {
                            // Chain falls off the pipeline end.
                            stats.record_chain(len);
                        }
                        for &q in succs {
                            let carry = &mut self.soa.next_carry[q];
                            *carry = (*carry).max(borrowed);
                            let chain = &mut self.soa.next_chain[q];
                            *chain = (*chain).max(len);
                        }
                    }
                    StageOutcome::Detected { recovery } => {
                        stats.detected += 1;
                        stats.record_chain(self.soa.chain[s] + 1);
                        self.penalty_remaining += u64::from(recovery.penalty_cycles());
                        if S::ENABLED {
                            self.sink.event(
                                t,
                                EventKind::Detected {
                                    stage: s as u32,
                                    penalty: recovery.penalty_cycles(),
                                },
                            );
                        }
                    }
                    StageOutcome::Predicted => {
                        stats.predicted += 1;
                        if self.soa.chain[s] > 0 {
                            stats.record_chain(self.soa.chain[s]);
                        }
                        self.clock.flag_error(t);
                        if S::ENABLED {
                            self.sink.event(t, EventKind::Predicted { stage: s as u32 });
                            self.sink.event(t, EventKind::ThrottleRequest);
                        }
                    }
                    StageOutcome::Corrupted => {
                        stats.corrupted += 1;
                        stats.record_chain(self.soa.chain[s] + 1);
                        if S::ENABLED {
                            self.sink.event(t, EventKind::Panic { stage: s as u32 });
                        }
                    }
                }
            }
            self.soa.commit_cycle();
        }
        // Flush chains still in flight.
        for &len in &self.soa.chain {
            if len > 0 {
                stats.record_chain(len);
            }
        }
        // Drop the unused tail of the pre-sized histogram so its length
        // is the longest chain actually observed, as before.
        while stats.chain_histogram.last() == Some(&0) {
            stats.chain_histogram.pop();
        }
        stats.slowdown_episodes = self.clock.episodes();
        // One unit per cycle, bubbles included: the count is below
        // 2^53, so the conversion is exact.
        stats.energy = stats.cycles as f64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::doubles::{BorrowAll, DetectAll};
    use crate::reference::MarginedFlop;
    use timber_variability::CompositeVariability;

    fn uniform_sens(stages: usize, crit: i64) -> SensitizationModel {
        SensitizationModel::uniform(stages, Picos(crit), 5)
    }

    #[test]
    fn nominal_run_has_no_events() {
        let cfg = PipelineConfig::new(4, Picos(1000));
        let mut scheme = MarginedFlop::new();
        let sens = uniform_sens(4, 900);
        let var = CompositeVariability::nominal();
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(5_000);
        assert_eq!(stats.cycles, 5_000);
        assert_eq!(stats.instructions, 5_000);
        assert_eq!(stats.violations(), 0);
        assert!((stats.ipc() - 1.0).abs() < 1e-12);
        assert_eq!(stats.wall_time, Picos(1000) * 5_000);
    }

    #[test]
    fn margined_flop_corrupts_on_overrun() {
        // Critical path longer than the period: every critical
        // sensitization corrupts.
        let cfg = PipelineConfig::new(2, Picos(800));
        let mut scheme = MarginedFlop::new();
        let sens = uniform_sens(2, 900);
        let var = CompositeVariability::nominal();
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(100_000);
        assert!(stats.corrupted > 0, "over-clocked baseline must corrupt");
        assert_eq!(stats.masked, 0);
    }

    #[test]
    fn detection_costs_bubbles() {
        let cfg = PipelineConfig::new(2, Picos(800));
        let mut scheme = DetectAll(1);
        let sens = uniform_sens(2, 900);
        let var = CompositeVariability::nominal();
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(100_000);
        assert!(stats.detected > 0);
        assert_eq!(stats.corrupted, 0);
        assert_eq!(stats.penalty_cycles as i64, stats.detected as i64);
        assert!(stats.ipc() < 1.0);
    }

    #[test]
    fn borrowing_preserves_full_throughput() {
        // Period 880 vs critical 900: only critical (p=1e-3) and the
        // top of the near-critical band violate — the paper's sparse-
        // error regime.
        let cfg = PipelineConfig::new(3, Picos(880));
        let mut scheme = BorrowAll { flagged: false };
        let sens = uniform_sens(3, 900);
        let var = CompositeVariability::nominal();
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(100_000);
        assert!(stats.masked > 0);
        assert_eq!(stats.corrupted, 0);
        assert!((stats.ipc() - 1.0).abs() < 1e-12);
        // Chains recorded: histogram non-empty, dominated by length 1.
        assert!(!stats.chain_histogram.is_empty());
        assert!(stats.chain_histogram[0] > 0);
        assert!(stats.multi_stage_fraction() < 0.1);
    }

    #[test]
    fn borrowed_time_increases_next_stage_pressure() {
        // Deterministic: every stage always at 850 vs period 800 →
        // borrow 50 each boundary; chains span the whole pipeline.
        let cfg = PipelineConfig::new(2, Picos(800));
        let mut scheme = BorrowAll { flagged: false };
        // p_critical = 1: force the critical path every cycle.
        let mut profiles = vec![timber_variability::StagePathProfile::from_critical(Picos(850)); 2];
        for p in &mut profiles {
            p.p_critical = 1.0;
            p.p_near = 0.0;
        }
        let sens = SensitizationModel::new(profiles, 1);
        let var = CompositeVariability::nominal();
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(10);
        // Stage 0 violates every cycle (850 > 800); stage 1 violates
        // harder with the inherited 50ps and extends each chain to
        // length 2 before it falls off the 2-stage pipeline: histogram
        // = [2, 9] (cycle 0's stage-1 event and the end-of-run flush
        // are the two singletons).
        assert_eq!(stats.masked, 2 * 10);
        assert_eq!(stats.chain_histogram, vec![2, 9]);
        assert!(stats.multi_stage_fraction() > 0.7);
    }

    #[test]
    fn final_state_accessors_expose_carry_and_chain() {
        // Every stage always at 850 vs period 800: each boundary masks
        // every cycle, so after the run boundary 1 carries 50ps of
        // borrow with a chain of depth 1 feeding it.
        let cfg = PipelineConfig::new(2, Picos(800));
        let mut scheme = BorrowAll { flagged: false };
        let mut profiles = vec![timber_variability::StagePathProfile::from_critical(Picos(850)); 2];
        for p in &mut profiles {
            p.p_critical = 1.0;
            p.p_near = 0.0;
        }
        let sens = SensitizationModel::new(profiles, 1);
        let var = CompositeVariability::nominal();
        let mut sim = PipelineSim::new(cfg, &mut scheme, &sens, &var);
        let _ = sim.run(10);
        assert_eq!(sim.cycles_run(), 10);
        assert_eq!(sim.penalty_remaining(), 0);
        assert_eq!(sim.carry(), &[Picos::ZERO, Picos(50), Picos::ZERO]);
        assert_eq!(sim.chain_depths(), &[0, 1, 0]);
    }

    fn forced_borrow_run(bounds: Option<CertifiedBounds>) -> RunStats {
        // Every stage always at 850 vs period 800: borrow 50ps per
        // boundary, chains of length 2 on the 2-stage pipeline.
        let mut cfg = PipelineConfig::new(2, Picos(800));
        cfg.debug_bounds = bounds;
        let mut scheme = BorrowAll { flagged: false };
        let mut profiles = vec![timber_variability::StagePathProfile::from_critical(Picos(850)); 2];
        for p in &mut profiles {
            p.p_critical = 1.0;
            p.p_near = 0.0;
        }
        let sens = SensitizationModel::new(profiles, 1);
        let var = CompositeVariability::nominal();
        PipelineSim::new(cfg, &mut scheme, &sens, &var).run(10)
    }

    #[test]
    fn certified_bounds_that_hold_change_nothing() {
        let free = forced_borrow_run(None);
        let bounded = forced_borrow_run(Some(CertifiedBounds {
            max_borrow: Picos(100),
            max_chain: 2,
        }));
        assert_eq!(free.masked, bounded.masked);
        assert_eq!(free.chain_histogram, bounded.chain_histogram);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "certificate violated")]
    fn violated_borrow_certificate_fires_the_debug_hook() {
        let _ = forced_borrow_run(Some(CertifiedBounds {
            max_borrow: Picos(49), // real borrow is 50ps
            max_chain: 2,
        }));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "certificate violated")]
    fn violated_chain_certificate_fires_the_debug_hook() {
        let _ = forced_borrow_run(Some(CertifiedBounds {
            max_borrow: Picos(100),
            max_chain: 1, // real chains reach length 2
        }));
    }

    /// A source with one constant local factor that claims `bound`
    /// for it and counts the exact local parts it derives.
    struct Counting {
        factor: Q16,
        bound: Option<Q16>,
        queries: std::cell::Cell<u64>,
    }

    impl Counting {
        fn new(factor: Q16, bound: Option<Q16>) -> Counting {
            Counting {
                factor,
                bound,
                queries: std::cell::Cell::new(0),
            }
        }
    }

    impl DelaySource for Counting {
        fn global(&self, _cycle: u64) -> Q16 {
            Q16::ONE
        }

        fn local(&self, _cycle: u64, _stage: usize) -> Q16 {
            self.queries.set(self.queries.get() + 1);
            self.factor
        }

        fn global_bound(&self, _from: u64) -> Option<(Q16, u64)> {
            Some((Q16::ONE, u64::MAX))
        }

        fn local_bound(&self, _stage: usize) -> Option<Q16> {
            self.bound
        }
    }

    /// [`BorrowAll`] with the on-time limit its `evaluate` honours.
    #[derive(Debug)]
    struct LimitedBorrowAll;
    impl SequentialScheme for LimitedBorrowAll {
        fn evaluate(&mut self, s: usize, arrival: Picos, ctx: &CycleContext) -> StageOutcome {
            BorrowAll { flagged: false }.evaluate(s, arrival, ctx)
        }
        fn reset(&mut self, _topology: &Topology) {}
        fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
            Some(ctx.period)
        }
    }

    #[test]
    fn provably_on_time_stages_skip_the_exact_factor() {
        // Critical paths of 900ps against a 1000ps edge under a bound
        // of 1.1: every stage of every cycle is on time in the worst
        // case, so no exact factor is ever needed.
        let cfg = PipelineConfig::new(4, Picos(1000));
        let mut scheme = MarginedFlop::new();
        let sens = uniform_sens(4, 900);
        let var = Counting::new(Q16::ONE, Some(Q16::from_f64(1.1)));
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(2_000);
        assert_eq!(stats.violations(), 0);
        assert_eq!(var.queries.get(), 0);
        // A bound of 1.2 puts the critical path (1080ps) past the edge,
        // so exactly the cycles that sensitize it ask for the factor.
        let var = Counting::new(Q16::ONE, Some(Q16::from_f64(1.2)));
        let _ = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(2_000);
        let queries = var.queries.get();
        assert!(queries > 0 && queries < 2_000, "{queries}");
    }

    #[test]
    fn unbounded_sources_never_take_the_fast_path() {
        // The largest bound saturates `derate` at `i64::MAX`; with a
        // carry of ~2.3e18ps a wrapping sum would come out negative and
        // pass for on time. The product is exact, so it never does.
        for bound in [Some(Q16(u32::MAX)), None] {
            let cfg = PipelineConfig::new(2, Picos(1000));
            let mut scheme = LimitedBorrowAll;
            let mut profiles =
                vec![timber_variability::StagePathProfile::from_critical(Picos(i64::MAX / 4)); 2];
            for p in &mut profiles {
                p.p_critical = 1.0;
                p.p_near = 0.0;
            }
            let sens = SensitizationModel::new(profiles, 1);
            let var = Counting::new(Q16::ONE, bound);
            let mut sim = PipelineSim::new(cfg, &mut scheme, &sens, &var);
            let stats = sim.run(50);
            assert!(
                sim.carry()[1] > Picos(i64::MAX / 8),
                "{bound:?}: carry is large"
            );
            assert_eq!(stats.masked, 2 * 50, "{bound:?}");
            assert_eq!(var.queries.get(), 2 * 50, "{bound:?}: every stage is exact");
        }
    }

    #[test]
    fn on_time_compares_the_derated_delay_exactly() {
        // 1001ps at 1.5 derates to ⌊1501.5⌋ = 1501ps.
        let f = Q16::from_f64(1.5);
        assert!(on_time(Picos(1001), f, 1501));
        assert!(!on_time(Picos(1001), f, 1500));
    }

    #[test]
    fn on_time_at_zero_and_negative_room() {
        assert!(on_time(Picos::ZERO, Q16(u32::MAX), 0));
        assert!(on_time(Picos(1), Q16(Q16::ONE.0 - 1), 0));
        assert!(!on_time(Picos(1), Q16::ONE, 0));
        assert!(!on_time(Picos::ZERO, Q16::ONE, -1));
        assert!(!on_time(Picos(5), Q16(0), -1));
    }

    #[test]
    fn on_time_products_past_exact_integers_and_saturation() {
        // Past 2⁵² (where an `f64` product stops being exact) the test
        // is still exact, and a product past `i64` is late against any
        // room, however large.
        let big = Picos(1 << 60);
        assert!(on_time(big, Q16::ONE, 1 << 60));
        assert!(!on_time(big, Q16::ONE, (1 << 60) - 1));
        assert!(!on_time(Picos(i64::MAX), Q16(u32::MAX), i64::MAX));
        assert!(on_time(Picos(i64::MAX), Q16::ONE, i64::MAX));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The on-time test decides exactly as adding the derated
        /// delay to the carry, near the limit and far from it.
        #[test]
        fn on_time_matches_the_derated_arrival(
            base in 0i64..1 << 40,
            bound in any::<u32>(),
            carry in -(1i64 << 40)..1 << 40,
            deltas in (-2i64..=2, -(1i64 << 40)..1 << 40),
            near in any::<bool>(),
        ) {
            let bound = Q16(bound);
            let delta = if near { deltas.0 } else { deltas.1 };
            let arrival = carry + bound.derate(Picos(base)).as_ps();
            let limit = arrival + delta;
            prop_assert_eq!(on_time(Picos(base), bound, limit - carry), arrival <= limit);
        }
    }

    #[test]
    #[should_panic(expected = "must cover all")]
    fn sensitization_must_cover_stages() {
        let cfg = PipelineConfig::new(4, Picos(1000));
        let mut scheme = MarginedFlop::new();
        let sens = uniform_sens(2, 900);
        let var = CompositeVariability::nominal();
        let _ = PipelineSim::new(cfg, &mut scheme, &sens, &var);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn config_validates_stages() {
        let _ = PipelineConfig::new(0, Picos(1000));
    }

    fn storm_config(stages: usize) -> PipelineConfig {
        let mut cfg = PipelineConfig::new(stages, Picos(800));
        cfg.governor = Some(timber_resilience::GovernorConfig {
            window: 16,
            escalate_flags: 4,
            deescalate_flags: 0,
            hold_windows: 2,
            deadline_windows: 4,
            latency_cycles: 2,
            ..timber_resilience::GovernorConfig::default()
        });
        cfg
    }

    /// Critical path forced every cycle at 1100ps against a nominal
    /// period of 800: the overshoot outruns throttle (880) and
    /// deep-throttle (1000) — only safe-mode (1200) masks it, so the
    /// ladder must climb all the way.
    fn forced_sens(stages: usize) -> SensitizationModel {
        let mut profiles =
            vec![timber_variability::StagePathProfile::from_critical(Picos(1100)); stages];
        for p in &mut profiles {
            p.p_critical = 1.0;
            p.p_near = 0.0;
        }
        SensitizationModel::new(profiles, 1)
    }

    #[test]
    fn governor_escalates_under_storm_and_slows_wall_clock() {
        let cfg = storm_config(2);
        let mut scheme = BorrowAll { flagged: true };
        let sens = forced_sens(2);
        let var = CompositeVariability::nominal();
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(400);
        // The ladder must have climbed (episodes counts escalations)…
        assert!(stats.slowdown_episodes >= 3, "{}", stats.slowdown_episodes);
        assert!(stats.slow_cycles > 0);
        // …and safe-mode entry injected a pipeline refill.
        assert!(stats.penalty_cycles >= 2, "{}", stats.penalty_cycles);
        // Wall time exceeds nominal: the storm cost real frequency.
        assert!(stats.wall_time > Picos(800) * 400);
    }

    #[test]
    fn governor_stays_nominal_on_quiet_workload() {
        let mut cfg = storm_config(3);
        cfg.nominal_period = Picos(1000);
        let mut scheme = BorrowAll { flagged: true };
        let sens = uniform_sens(3, 900);
        let var = CompositeVariability::nominal();
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(5_000);
        assert_eq!(stats.slowdown_episodes, 0);
        assert_eq!(stats.slow_cycles, 0);
        assert_eq!(stats.wall_time, Picos(1000) * 5_000);
    }

    #[test]
    fn governor_telemetry_counters_match_events() {
        use timber_telemetry::{Recorder, RecorderConfig};
        let cfg = storm_config(2);
        let mut scheme = BorrowAll { flagged: true };
        let sens = forced_sens(2);
        let var = CompositeVariability::nominal();
        let mut rec = Recorder::new(RecorderConfig::new(2, Picos(800)).ring_capacity(4096));
        let _ = PipelineSim::with_telemetry(cfg, &mut scheme, &sens, &var, &mut rec).run(400);
        let escalations = rec.counter(Counter::Escalations);
        let deescalations = rec.counter(Counter::Deescalations);
        let safe_entries = rec.counter(Counter::SafeModeEntries);
        assert!(escalations >= 3, "{escalations}");
        assert!(safe_entries >= 1, "{safe_entries}");
        // Counters must equal the surviving event trace (ring is large
        // enough to keep every event in this short run).
        let mut seen_up = 0u64;
        let mut seen_down = 0u64;
        let mut seen_safe = 0u64;
        for e in rec.events() {
            match e.kind {
                EventKind::Escalate { level, .. } => {
                    seen_up += 1;
                    if level == 3 {
                        seen_safe += 1;
                    }
                }
                EventKind::Deescalate { .. } => seen_down += 1,
                _ => {}
            }
        }
        assert_eq!(seen_up, escalations);
        assert_eq!(seen_down, deescalations);
        assert_eq!(seen_safe, safe_entries);
    }

    #[test]
    fn safe_mode_replay_flushes_carry_and_chain() {
        use timber_telemetry::{Recorder, RecorderConfig};
        let cfg = storm_config(2);
        let mut scheme = BorrowAll { flagged: true };
        let sens = forced_sens(2);
        let var = CompositeVariability::nominal();
        let mut rec = Recorder::new(RecorderConfig::new(2, Picos(800)).ring_capacity(4096));
        let mut sim = PipelineSim::with_telemetry(cfg, &mut scheme, &sens, &var, &mut rec);
        // Run exactly up to the first safe-mode entry by stepping.
        let mut entered = false;
        for _ in 0..600 {
            let _ = sim.run(1);
            if let ClockControl::Ladder(g) = &sim.clock {
                if g.level() == GovernorLevel::SafeMode {
                    entered = true;
                    break;
                }
            }
        }
        assert!(entered, "storm must reach safe mode");
        // The flush landed this cycle: no speculative borrow survives.
        assert!(sim.carry().iter().all(|&c| c == Picos::ZERO));
        assert!(sim.chain_depths().iter().all(|&d| d == 0));
        assert!(sim.penalty_remaining() > 0, "refill bubbles pending");
    }
}
