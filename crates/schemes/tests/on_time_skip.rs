//! Differential check of the simulator's on-time skip: every run must
//! come out exactly as it does when the exact variability factor is
//! computed for every stage of every cycle.
//!
//! The exact path is reached through two adapters that forward
//! everything but hide the contracts the skip relies on —
//! [`DelaySource::factor_bound`] and
//! [`SequentialScheme::on_time_limit`] keep their `None` defaults, and
//! so does [`DelaySource::factor_bound_at`], which defaults to the
//! static bound. A counting wrapper shows that the skip really fires,
//! at both of its levels.

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
    VariabilityBuilder,
};

/// A delay source with its bound hidden.
struct Exact<'a>(&'a mut dyn DelaySource);

impl DelaySource for Exact<'_> {
    fn factor(&mut self, cycle: u64, stage: usize) -> f64 {
        self.0.factor(cycle, stage)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// How a run's stage-cycles reached the delay source.
#[derive(Debug, Clone, Copy, Default)]
struct Queries {
    /// Per-query bounds asked: stage-cycles the static bound did not
    /// prove on time.
    bounded: u64,
    /// Exact factors derived.
    exact: u64,
    /// Exact factors derived for the query whose per-query bound was
    /// just asked: the per-query bound did not prove it on time either.
    exact_after_bounded: u64,
}

impl Queries {
    /// Stage-cycles the per-query bound proved on time.
    fn decided_per_query(&self) -> u64 {
        self.bounded - self.exact_after_bounded
    }
}

/// A delay source that forwards both bounds and counts the queries.
struct Counting<'a> {
    inner: &'a mut dyn DelaySource,
    queries: Queries,
    last_bounded: Option<(u64, usize)>,
}

impl DelaySource for Counting<'_> {
    fn factor(&mut self, cycle: u64, stage: usize) -> f64 {
        self.queries.exact += 1;
        if self.last_bounded.take() == Some((cycle, stage)) {
            self.queries.exact_after_bounded += 1;
        }
        self.inner.factor(cycle, stage)
    }

    fn factor_bound(&self, stage: usize, horizon: u64) -> Option<f64> {
        self.inner.factor_bound(stage, horizon)
    }

    fn factor_bound_at(&mut self, cycle: u64, stage: usize) -> Option<f64> {
        self.queries.bounded += 1;
        self.last_bounded = Some((cycle, stage));
        self.inner.factor_bound_at(cycle, stage)
    }

    fn name(&self) -> &str {
        self.inner.name()
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
        let (sens, mut var) = self.environment();
        let mut hidden = Exact(&mut var);
        let var: &mut dyn DelaySource = if exact { &mut hidden } else { hidden.0 };
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

    /// The un-instrumented run (the serve path) in one call, and how
    /// its stage-cycles reached the delay source.
    fn stats(&self, cycles: u64, exact: bool) -> (RunStats, Queries) {
        let mut scheme = self.scheme();
        let topology = self.topology();
        let (sens, mut var) = self.environment();
        let mut var = Counting {
            inner: &mut var,
            queries: Queries::default(),
            last_bounded: None,
        };
        let config = self.config();
        let stats = if exact {
            let mut scheme = Unlimited(&mut scheme);
            PipelineSim::new(config, &mut scheme, &sens, &mut Exact(&mut var))
                .on_topology(&topology)
                .run(cycles)
        } else {
            PipelineSim::new(config, &mut scheme, &sens, &mut var)
                .on_topology(&topology)
                .run(cycles)
        };
        (stats, var.queries)
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
        prop_assert_eq!(trial.stats(cycles, false).0, trial.stats(cycles, true).0);
    }
}

/// The skip is not vacuous. On every storm, on a linear chain and on
/// the diamond, the skipping run derives the exact factor on strictly
/// fewer stage-cycles than the exact run, and on the storms whose slow
/// global terms (droop, aging) the static bound must cover at their
/// worst, the per-query bound proves some stage-cycles on time that
/// the static bound could not.
#[test]
fn both_skip_levels_fire_on_serve_shaped_storms() {
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
            let (skipping, fast) = trial.stats(4000, false);
            let (exact, slow) = trial.stats(4000, true);
            let storm_name = storm.map_or("nominal", StormScenario::name);
            let name = format!("{storm_name} (diamond: {diamond})");
            assert_eq!(skipping, exact, "{name}");
            assert_eq!(slow.bounded, 0, "{name}: the exact run asks no bound");
            assert!(
                fast.exact < slow.exact,
                "{name}: {} exact factors against {}",
                fast.exact,
                slow.exact
            );
            if matches!(
                storm,
                Some(StormScenario::DroopTrain | StormScenario::AgingRamp)
            ) {
                assert!(
                    fast.decided_per_query() > 0,
                    "{name}: the per-query bound decided nothing ({fast:?})"
                );
            }
        }
    }
}
