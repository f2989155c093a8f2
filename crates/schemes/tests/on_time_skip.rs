//! Differential check of the simulator's on-time skip: every run must
//! come out exactly as it does when the exact variability factor is
//! computed for every stage of every cycle.
//!
//! The exact path is reached through two adapters that forward
//! everything but hide the contracts the skip relies on —
//! [`DelaySource::global_bound`], [`DelaySource::local_bound`] and
//! [`SequentialScheme::on_time_limit`] keep their `None` defaults. A
//! counting wrapper shows that the skip really fires, at both of its
//! levels.

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
use timber_telemetry::{Recorder, RecorderConfig};
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

/// The same factors with all of each moved into the local part, and the
/// same static bound: the second skip level, the exact global part
/// times the local bound, is then no tighter than the first.
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

    fn global_bound(&self, _horizon: u64) -> Option<Q16> {
        Some(Q16::ONE)
    }

    fn local_bound(&self, stage: usize) -> Option<Q16> {
        let global = self.inner.global_bound(self.horizon)?;
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

    fn global_bound(&self, horizon: u64) -> Option<Q16> {
        self.inner.global_bound(horizon)
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
    governor: bool,
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
        if self.governor {
            config.governor = Some(GovernorConfig::default());
        }
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
        let mut scheme = self.scheme();
        let mut unlimited = Unlimited(&mut scheme);
        let scheme: &mut dyn SequentialScheme = if exact { &mut unlimited } else { unlimited.0 };
        let (sens, var) = self.environment();
        let hidden = Exact(&var);
        let var: &dyn DelaySource = if exact { &hidden } else { hidden.0 };
        let config = self.config();
        let mut recorder = Recorder::new(
            RecorderConfig::new(self.stages, config.nominal_period).ring_capacity(1 << 16),
        );
        let mut sim = PipelineSim::with_telemetry(config, scheme, &sens, var, &mut recorder)
            .on_topology(&self.topology());
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
        governor in any::<bool>(),
        seed in any::<u64>(),
        cycles in 50u64..1500,
    ) {
        let trial = Trial {
            scheme: SchemeId::ALL[pick.0],
            storm: STORMS[pick.1],
            stages: if shape.1 { 4 } else { shape.0 },
            diamond: shape.1,
            period_permille,
            governor,
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
/// cycles than it simulates (the static bound proves whole cycles on
/// time) and the exact local part on strictly fewer stage-cycles than
/// the exact run. On the storms whose slow global terms (droop, aging)
/// the static bound must cover at their worst, the second level proves
/// stage-cycles on time that the static bound could not: a flattened
/// source with the same static bound and no separate global part
/// derives more exact factors on the same trajectory.
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
                governor: true,
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
                    "{name}: the second level decided nothing ({fast:?})"
                );
            }
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
                    governor: true,
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
