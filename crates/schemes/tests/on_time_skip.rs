//! Differential check of the simulator's on-time skip: every run must
//! come out exactly as it does when the exact variability factor is
//! computed, and the scheme evaluated, for every stage of every cycle.
//!
//! The exact path is reached through two adapters that forward
//! everything but hide the contracts the skip relies on —
//! [`DelaySource::global_bound`], [`DelaySource::local_bound`] and
//! [`SequentialScheme::on_time_limit`] keep their `None` defaults.
//! Counting wrappers show that the skip really fires, in the delay fill
//! and in the scheme calls it leaves out.

use std::cell::Cell;

use proptest::prelude::*;

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::{
    CycleContext, GovernorConfig, PipelineConfig, PipelineSim, RunStats, SequentialScheme,
    StageOutcome, Topology,
};
use timber_resilience::StormScenario;
use timber_schemes::{LawScheme, Registry, SchemeId};
use timber_telemetry::{EventKind, Recorder, RecorderConfig};
use timber_variability::{
    splitmix64, CompositeVariability, DelaySource, SensitizationModel, StagePathProfile,
    VariabilityBuilder, Q16,
};

/// A delay source with its bounds hidden.
struct Exact<'a>(&'a dyn DelaySource);

impl DelaySource for Exact<'_> {
    fn global(&self, cycle: u64) -> Q16 {
        self.0.global(cycle)
    }

    fn local(&self, cycle: u64, stage: usize) -> Q16 {
        self.0.local(cycle, stage)
    }
}

/// The largest global bound `source` gives over `0..horizon`, walking
/// its bounds from expiry to expiry: the static bound of a run.
fn run_bound(source: &dyn DelaySource, horizon: u64) -> Option<Q16> {
    let (mut worst, mut from) = (Q16(0), 0);
    while from < horizon {
        let (bound, until) = source.global_bound(from)?;
        assert!(until > from, "a bound from {from} expires at {until}");
        worst = worst.max(bound);
        from = until;
    }
    Some(worst)
}

/// The same factors with all of each moved into the local part, and
/// the run's static bound in the local bound: the skip tests every
/// cycle against the run's worst case.
struct Flat<'a> {
    inner: &'a dyn DelaySource,
    /// The horizon of the one `run` call the source serves.
    horizon: u64,
}

impl DelaySource for Flat<'_> {
    fn global(&self, _cycle: u64) -> Q16 {
        Q16::ONE
    }

    fn local(&self, cycle: u64, stage: usize) -> Q16 {
        self.inner.factor(cycle, stage)
    }

    fn global_bound(&self, _from: u64) -> Option<(Q16, u64)> {
        Some((Q16::ONE, u64::MAX))
    }

    fn local_bound(&self, stage: usize) -> Option<Q16> {
        let global = run_bound(self.inner, self.horizon)?;
        Some(global * self.inner.local_bound(stage)?)
    }
}

/// How a run's cycles and stage-cycles reached the delay source.
#[derive(Debug, Clone, Copy, Default)]
struct Queries {
    /// Cycles that derived the global part: some stage was not proved
    /// on time by the static bound.
    global: u64,
    /// Stage-cycles that derived the exact local part.
    exact: u64,
}

/// A delay source that forwards everything and counts the queries.
struct Counting<'a> {
    inner: &'a dyn DelaySource,
    global: Cell<u64>,
    exact: Cell<u64>,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn DelaySource) -> Counting<'a> {
        Counting {
            inner,
            global: Cell::new(0),
            exact: Cell::new(0),
        }
    }

    fn queries(&self) -> Queries {
        Queries {
            global: self.global.get(),
            exact: self.exact.get(),
        }
    }
}

impl DelaySource for Counting<'_> {
    fn global(&self, cycle: u64) -> Q16 {
        self.global.set(self.global.get() + 1);
        self.inner.global(cycle)
    }

    fn local(&self, cycle: u64, stage: usize) -> Q16 {
        self.exact.set(self.exact.get() + 1);
        self.inner.local(cycle, stage)
    }

    fn global_bound(&self, from: u64) -> Option<(Q16, u64)> {
        self.inner.global_bound(from)
    }

    fn local_bound(&self, stage: usize) -> Option<Q16> {
        self.inner.local_bound(stage)
    }
}

/// A scheme with its on-time limit hidden.
struct Unlimited<'a>(&'a mut dyn SequentialScheme);

impl SequentialScheme for Unlimited<'_> {
    fn evaluate(&mut self, stage: usize, arrival: Picos, ctx: &CycleContext) -> StageOutcome {
        self.0.evaluate(stage, arrival, ctx)
    }

    fn reset(&mut self, topology: &Topology) {
        self.0.reset(topology);
    }
}

/// A scheme that forwards everything, its on-time limit included, and
/// counts the boundaries it evaluates.
struct Evaluations<'a> {
    inner: &'a mut dyn SequentialScheme,
    calls: u64,
}

impl SequentialScheme for Evaluations<'_> {
    fn evaluate(&mut self, stage: usize, arrival: Picos, ctx: &CycleContext) -> StageOutcome {
        self.calls += 1;
        self.inner.evaluate(stage, arrival, ctx)
    }

    fn reset(&mut self, topology: &Topology) {
        self.inner.reset(topology);
    }

    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        self.inner.on_time_limit(ctx)
    }
}

/// Runs `scheme` on `environment` in `chunks` successive `run` calls,
/// with telemetry; with `exact` set, through the adapters.
fn instrumented_run(
    config: PipelineConfig,
    topology: &Topology,
    scheme: &mut dyn SequentialScheme,
    (sens, var): (&SensitizationModel, &dyn DelaySource),
    chunks: &[u64],
    exact: bool,
) -> Outcome {
    let mut unlimited = Unlimited(scheme);
    let scheme: &mut dyn SequentialScheme = if exact { &mut unlimited } else { unlimited.0 };
    let hidden = Exact(var);
    let var: &dyn DelaySource = if exact { &hidden } else { hidden.0 };
    let mut recorder = Recorder::new(
        RecorderConfig::new(config.stages, config.nominal_period).ring_capacity(1 << 16),
    );
    let mut sim =
        PipelineSim::with_telemetry(config, scheme, sens, var, &mut recorder).on_topology(topology);
    let chunks = chunks.iter().map(|&n| sim.run(n)).collect();
    let carry = sim.carry().to_vec();
    let chains = sim.chain_depths().to_vec();
    let penalty_remaining = sim.penalty_remaining();
    Outcome {
        chunks,
        carry,
        chains,
        penalty_remaining,
        recorder,
    }
}

/// One simulated trial, in the shape the serve engine runs.
#[derive(Debug, Clone, Copy)]
struct Trial {
    scheme: SchemeId,
    /// `None` for the nominal stress, else one storm.
    storm: Option<StormScenario>,
    stages: usize,
    /// Run on the diamond DAG (four boundaries) instead of a linear
    /// chain of `stages`.
    diamond: bool,
    /// Clock period as a per-mille of the critical path: below 1000
    /// is over-clocked.
    period_permille: i64,
    governor: Option<GovernorConfig>,
    seed: u64,
}

/// Everything a run leaves behind that the skip could disturb.
#[derive(Debug, PartialEq)]
struct Outcome {
    chunks: Vec<RunStats>,
    carry: Vec<Picos>,
    chains: Vec<usize>,
    penalty_remaining: u64,
    recorder: Recorder,
}

impl Trial {
    const CRITICAL: i64 = 1000;

    fn topology(&self) -> Topology {
        if self.diamond {
            Topology::diamond()
        } else {
            Topology::linear(self.stages)
        }
    }

    /// The trial's scheme; the simulator sizes it for the trial's
    /// topology, so TIMBER-FF relays over it.
    fn scheme(&self) -> LawScheme {
        let schedule =
            CheckingPeriod::new(Picos(Self::CRITICAL), 24.0, 1, 2).expect("valid schedule");
        Registry::new(schedule).build(self.scheme, self.seed)
    }

    fn config(&self) -> PipelineConfig {
        let period = Picos(Self::CRITICAL * self.period_permille / 1000);
        let mut config = PipelineConfig::new(self.stages, period);
        config.governor = self.governor;
        config
    }

    fn environment(&self) -> (SensitizationModel, CompositeVariability) {
        let mut profile = StagePathProfile::from_critical(Picos(Self::CRITICAL));
        // Far denser than the paper's 10⁻³, so short runs see borrows,
        // relays and detections.
        profile.p_critical = 0.02;
        profile.p_near = 0.1;
        let sens = SensitizationModel::new(vec![profile; self.stages], self.seed ^ 0x5EED);
        let var = match self.storm {
            Some(storm) => storm.build(self.stages, self.seed),
            None => VariabilityBuilder::new(self.seed)
                .voltage_droop(0.05, 500, 2000.0)
                .local_jitter(0.005)
                .build(),
        };
        (sens, var)
    }

    /// Runs the trial in `chunks` successive `run` calls; with `exact`
    /// set, through the adapters.
    fn run(&self, chunks: &[u64], exact: bool) -> Outcome {
        let (sens, var) = self.environment();
        let mut scheme = self.scheme();
        instrumented_run(
            self.config(),
            &self.topology(),
            &mut scheme,
            (&sens, &var),
            chunks,
            exact,
        )
    }

    /// The un-instrumented run (the serve path) in one call of
    /// `cycles`, on the delay source `wrap` makes of the trial's
    /// environment, and how the run's cycles reached it.
    fn stats(
        &self,
        cycles: u64,
        limited: bool,
        wrap: impl Fn(&CompositeVariability) -> Box<dyn DelaySource + '_>,
    ) -> (RunStats, Queries) {
        let mut scheme = self.scheme();
        let topology = self.topology();
        let (sens, var) = self.environment();
        let wrapped = wrap(&var);
        let var = Counting::new(wrapped.as_ref());
        let config = self.config();
        let stats = if limited {
            PipelineSim::new(config, &mut scheme, &sens, &var)
                .on_topology(&topology)
                .run(cycles)
        } else {
            let mut scheme = Unlimited(&mut scheme);
            PipelineSim::new(config, &mut scheme, &sens, &var)
                .on_topology(&topology)
                .run(cycles)
        };
        (stats, var.queries())
    }

    /// The un-instrumented run in one call of `cycles`, with the
    /// scheme's on-time limit shown or hidden, and the boundaries the
    /// scheme evaluated.
    fn evaluations(&self, cycles: u64, limited: bool) -> (RunStats, u64) {
        let mut scheme = self.scheme();
        let mut counted = Evaluations {
            inner: &mut scheme,
            calls: 0,
        };
        let (sens, var) = self.environment();
        let stats = if limited {
            PipelineSim::new(self.config(), &mut counted, &sens, &var)
                .on_topology(&self.topology())
                .run(cycles)
        } else {
            let mut hidden = Unlimited(&mut counted);
            PipelineSim::new(self.config(), &mut hidden, &sens, &var)
                .on_topology(&self.topology())
                .run(cycles)
        };
        (stats, counted.calls)
    }
}

/// The serve engine's governor.
fn serve_governor() -> Option<GovernorConfig> {
    Some(GovernorConfig::default())
}

/// A governor that reaches safe mode within a few dozen cycles of a
/// flag burst, so its flushes land on live relay chains.
fn aggressive_governor() -> Option<GovernorConfig> {
    Some(GovernorConfig {
        window: 16,
        escalate_flags: 2,
        hold_windows: 1,
        deadline_windows: 1,
        latency_cycles: 1,
        ..GovernorConfig::default()
    })
}

const STORMS: [Option<StormScenario>; 4] = [
    None,
    Some(StormScenario::DroopTrain),
    Some(StormScenario::AgingRamp),
    Some(StormScenario::FlagSpikes),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Skipping changes nothing: run statistics (chunk by chunk), the
    /// final carry, chain and penalty state, and every telemetry
    /// counter and event, on linear chains and on the diamond.
    #[test]
    fn skipping_on_time_stages_changes_nothing(
        pick in (0usize..8, 0usize..4),
        // A chain of 1–6 boundaries, or the diamond (twice the cases
        // of a chain-only run, so chains keep their coverage).
        shape in (1usize..7, any::<bool>()),
        period_permille in 850i64..1250,
        governed in 0usize..3,
        seed in any::<u64>(),
        cycles in 50u64..1500,
    ) {
        let trial = Trial {
            scheme: SchemeId::ALL[pick.0],
            storm: STORMS[pick.1],
            stages: if shape.1 { 4 } else { shape.0 },
            diamond: shape.1,
            period_permille,
            governor: [None, serve_governor(), aggressive_governor()][governed],
            seed,
        };
        let split = splitmix64(seed, 1) % cycles;
        let chunks = [split, 0, cycles - split];
        prop_assert_eq!(trial.run(&chunks, false), trial.run(&chunks, true));
        prop_assert_eq!(
            trial.stats(cycles, true, |v| Box::new(v.clone())).0,
            trial.stats(cycles, false, |v| Box::new(Exact(v))).0
        );
    }
}

/// The skip is not vacuous. On every storm, on a linear chain and on
/// the diamond, the skipping run derives the global part on fewer
/// cycles than it simulates (the bound proves whole cycles on time)
/// and the exact local part on strictly fewer stage-cycles than the
/// exact run. A flattened source has the run's static bound and no
/// separate global part. On the storms whose slow global terms (droop,
/// aging) a static bound must cover at their worst, the bound that
/// holds at the cycle proves on time what the static one cannot: the
/// skipping run derives the global part on fewer cycles and fewer
/// exact factors on the same trajectory.
#[test]
fn both_skip_levels_fire_on_serve_shaped_storms() {
    const CYCLES: u64 = 4000;
    for (stages, diamond) in [(5, false), (4, true)] {
        for storm in STORMS {
            let trial = Trial {
                scheme: SchemeId::TimberFf,
                storm,
                stages,
                diamond,
                period_permille: 1000,
                governor: serve_governor(),
                seed: 7,
            };
            let (skipping, fast) = trial.stats(CYCLES, true, |v| Box::new(v.clone()));
            let (exact, slow) = trial.stats(CYCLES, false, |v| Box::new(Exact(v)));
            let (flat, static_only) = trial.stats(CYCLES, true, |v| {
                Box::new(Flat {
                    inner: v,
                    horizon: CYCLES,
                })
            });
            let storm_name = storm.map_or("nominal", StormScenario::name);
            let name = format!("{storm_name} (diamond: {diamond})");
            assert_eq!(skipping, exact, "{name}");
            assert_eq!(flat, exact, "{name}: flattening changes no factor");
            assert_eq!(slow.global, exact.instructions, "{name}");
            assert!(fast.global < skipping.instructions, "{name}: {fast:?}");
            assert!(
                fast.exact < slow.exact,
                "{name}: {} exact factors against {}",
                fast.exact,
                slow.exact
            );
            assert!(fast.exact <= static_only.exact, "{name}");
            if matches!(
                storm,
                Some(StormScenario::DroopTrain | StormScenario::AgingRamp)
            ) {
                assert!(
                    fast.exact < static_only.exact,
                    "{name}: the expiring bound proved no more stage-cycles than the static one \
                     ({fast:?} against {static_only:?})"
                );
                assert!(
                    fast.global < static_only.global,
                    "{name}: the expiring bound proved no more cycles than the static one \
                     ({fast:?} against {static_only:?})"
                );
            }
        }
    }
}

/// A run split into many `run` calls, at the cycles where the
/// environment's global bounds expire and next to them, comes out as
/// one uninterrupted run: the same final state, the same telemetry,
/// and per-call statistics that add up to the whole run's. (A chain
/// still in flight when a call returns is recorded by that call, so
/// the chain histograms are not compared.)
#[test]
fn runs_split_at_bound_expiries_equal_one_run() {
    const CYCLES: u64 = 1500;
    for storm in STORMS {
        let trial = Trial {
            scheme: SchemeId::TimberFf,
            storm,
            stages: 5,
            diamond: false,
            period_permille: 1000,
            governor: serve_governor(),
            seed: 9,
        };
        let (_, var) = trial.environment();
        let (mut cuts, mut from) = (vec![1], 0);
        while from < CYCLES {
            let (_, until) = var.global_bound(from).expect("bounded");
            cuts.extend(
                [until - 1, until, until.saturating_add(1)]
                    .into_iter()
                    .filter(|&c| c < CYCLES),
            );
            from = until;
        }
        cuts.sort_unstable();
        cuts.dedup();
        let chunks: Vec<u64> = cuts
            .iter()
            .chain([&CYCLES])
            .scan(0, |at, &cut| Some(cut - std::mem::replace(at, cut)))
            .collect();
        let name = storm.map_or("nominal", StormScenario::name);
        let split = trial.run(&chunks, false);
        let whole = trial.run(&[CYCLES], false);
        let sum = |chunks: &[RunStats]| {
            let mut total = RunStats::default();
            chunks.iter().for_each(|c| total.merge(c));
            RunStats {
                chain_histogram: Vec::new(),
                slowdown_episodes: chunks.last().map_or(0, |c| c.slowdown_episodes),
                ..total
            }
        };
        assert_eq!(sum(&split.chunks), sum(&whole.chunks), "{name}");
        assert_eq!(
            (split.carry, split.chains, split.penalty_remaining),
            (whole.carry, whole.chains, whole.penalty_remaining),
            "{name}"
        );
        assert_eq!(split.recorder, whole.recorder, "{name}");
        if storm.is_some_and(|s| s != StormScenario::FlagSpikes) {
            assert!(chunks.len() > 30, "{name}: {} calls", chunks.len());
        }
    }
}

/// Every capture law under every storm setting, on a linear chain and
/// on the diamond, over- and under-clocked: the skipping run's
/// statistics equal the exact run's.
#[test]
fn every_law_and_storm_skips_invisibly() {
    for scheme in SchemeId::ALL {
        for storm in STORMS {
            for (diamond, period_permille) in [(false, 950), (true, 950), (false, 1050)] {
                let trial = Trial {
                    scheme,
                    storm,
                    stages: if diamond { 4 } else { 5 },
                    diamond,
                    period_permille,
                    governor: serve_governor(),
                    seed: 11,
                };
                assert_eq!(
                    trial.stats(1500, true, |v| Box::new(v.clone())).0,
                    trial.stats(1500, false, |v| Box::new(Exact(v))).0,
                    "{scheme:?} {storm:?} diamond {diamond} period {period_permille}"
                );
            }
        }
    }
}

/// A storm that drives the aggressive governor up its whole ladder
/// again and again. Every stage's delay is the critical path derated
/// by one factor per cycle, in pairs of cycles at 1.04, 1.14 and 1.29:
/// each overshoots by about 40ps, inside TIMBER-FF's first 80ps
/// interval, at one level's edge (nominal, throttle, deep throttle).
/// In the first cycle of the level's pair boundary 0 masks and relays
/// select 1 to boundary 1; in the second, boundary 1's overshoot plus
/// the borrow needs two intervals, so it masks flagged. That is a flag
/// every six cycles at every level but safe mode, where all is on time.
struct LadderStorm;

impl LadderStorm {
    const FACTORS: [f64; 3] = [1.04, 1.14, 1.29];
}

impl DelaySource for LadderStorm {
    fn global(&self, cycle: u64) -> Q16 {
        Q16::from_f64(Self::FACTORS[(cycle / 2 % 3) as usize])
    }

    fn local(&self, _cycle: u64, _stage: usize) -> Q16 {
        Q16::ONE
    }

    fn global_bound(&self, _from: u64) -> Option<(Q16, u64)> {
        Some((Q16::from_f64(Self::FACTORS[2]), u64::MAX))
    }

    fn local_bound(&self, _stage: usize) -> Option<Q16> {
        Some(Q16::ONE)
    }
}

/// A safe-mode flush ends the simulator's chains but not TIMBER-FF's
/// relayed selects, so the first productive cycle after it must reach
/// the scheme although every boundary is on time at the safe clock.
/// Under [`LadderStorm`], a flush after a cycle in which boundary 0
/// masked leaves select 1 pending at boundary 1; were it applied in a
/// later cycle instead, boundary 1's next late arrival would mask
/// flagged with two intervals where the exact run masks silently with
/// one. The run, its final state and its full telemetry must equal the
/// exact run's.
#[test]
fn safe_mode_flushes_keep_the_relayed_selects_in_step() {
    let mut profile = StagePathProfile::from_critical(Picos(Trial::CRITICAL));
    profile.p_critical = 1.0;
    profile.p_near = 0.0;
    let sens = SensitizationModel::new(vec![profile; 2], 1);
    let mut config = PipelineConfig::new(2, Picos(Trial::CRITICAL));
    config.governor = aggressive_governor();
    let topology = Topology::linear(2);
    let law = Trial {
        scheme: SchemeId::TimberFf,
        storm: None,
        stages: 2,
        diamond: false,
        period_permille: 1000,
        governor: config.governor,
        seed: 0,
    };
    let chunks = [900, 0, 1100];
    let run = |exact| {
        let mut scheme = law.scheme();
        instrumented_run(
            config,
            &topology,
            &mut scheme,
            (&sens, &LadderStorm),
            &chunks,
            exact,
        )
    };
    let skipping = run(false);
    assert_eq!(skipping, run(true));
    let live_flushes = skipping
        .recorder
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SafeModeReplay { flushed } if flushed > 0))
        .count();
    assert!(live_flushes > 0, "no flush met a live chain");
}

/// Logical masking masks with no borrow, so a boundary can inherit a
/// chain and no carry. It must still be evaluated: its `Ok` ends the
/// chain there.
#[test]
fn a_chain_without_a_carry_is_evaluated() {
    let mut unborrowed_relays = 0;
    for seed in 0..24u64 {
        let trial = Trial {
            scheme: SchemeId::LogicalMasking,
            storm: STORMS[(seed % 4) as usize],
            stages: if seed % 2 == 1 { 4 } else { 5 },
            diamond: seed % 2 == 1,
            period_permille: 900 + (seed % 5) as i64 * 20,
            governor: serve_governor().filter(|_| seed % 3 == 0),
            seed,
        };
        let stages = trial.stages;
        let chunks = [600, 0, 600];
        let skipping = trial.run(&chunks, false);
        assert_eq!(skipping, trial.run(&chunks, true), "seed {seed}");
        unborrowed_relays += skipping
            .recorder
            .events()
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::Borrow { stage, slack, .. }
                    if slack == Picos::ZERO && (stage as usize) + 1 < stages)
            })
            .count();
    }
    assert!(unborrowed_relays > 0, "no masking handed on a bare chain");
}

/// On the diamond, a violation masked at boundary 1 or 2 leaves a relay
/// pending at the reconvergent boundary 3; the cycle that applies it
/// must be evaluated there even when every boundary is on time.
#[test]
fn a_pending_relay_on_the_diamond_is_applied() {
    let mut relays = 0;
    for seed in 0..24u64 {
        let trial = Trial {
            scheme: SchemeId::TimberFf,
            storm: STORMS[(seed % 4) as usize],
            stages: 4,
            diamond: true,
            period_permille: 880 + (seed % 6) as i64 * 20,
            governor: serve_governor().filter(|_| seed % 2 == 0),
            seed,
        };
        let chunks = [500, 0, 500];
        let skipping = trial.run(&chunks, false);
        assert_eq!(skipping, trial.run(&chunks, true), "seed {seed}");
        relays += skipping
            .recorder
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Relay { stage: 3, .. }))
            .count();
    }
    assert!(relays > 0, "no relay reached the reconvergent boundary");
}

/// The call skip is not vacuous: on every stress setting, on a linear
/// chain and on the diamond, for every capture law, the skipping run
/// evaluates strictly fewer boundaries than the exact run, which
/// evaluates every boundary of every productive cycle, and both runs'
/// statistics are equal.
#[test]
fn the_skipping_run_evaluates_fewer_boundaries() {
    const CYCLES: u64 = 2000;
    for scheme in SchemeId::ALL {
        for storm in STORMS {
            for (stages, diamond) in [(5, false), (4, true)] {
                let trial = Trial {
                    scheme,
                    storm,
                    stages,
                    diamond,
                    period_permille: 1000,
                    governor: serve_governor(),
                    seed: 3,
                };
                let name = format!("{scheme:?} {storm:?} diamond {diamond}");
                let (skipping, fewer) = trial.evaluations(CYCLES, true);
                let (exact, every) = trial.evaluations(CYCLES, false);
                assert_eq!(skipping, exact, "{name}");
                assert_eq!(every, exact.instructions * stages as u64, "{name}");
                assert!(fewer < every, "{name}: {fewer} of {every} boundaries");
            }
        }
    }
}
