//! Parallel Monte-Carlo sweep engine.
//!
//! A [`SweepSpec`] is the cross product of a *scheme axis* (factories
//! producing [`SequentialScheme`]s), an *environment axis* (factories
//! producing an [`Environment`]: pipeline config, sensitization model
//! and variability stack), and a *trial axis* (independent seeds). The
//! engine fans the trials out through
//! [`timber_resilience::scatter_strict`] — the deterministic work-pull
//! scatter shared with the conformance campaign — and reduces each
//! cell's trials with [`RunStats::merge`].
//!
//! # Determinism
//!
//! Results are bit-identical regardless of thread count:
//!
//! * every trial's RNG seed is a pure function of the spec, derived as
//!   `splitmix64(base_seed, env * trials + trial)` — note the index is
//!   *scheme-independent*, so every scheme on the axis faces exactly
//!   the same sequence of stress environments (required for fair
//!   scheme-vs-scheme comparisons such as "deferred flagging flags no
//!   more than immediate flagging");
//! * trials are embarrassingly parallel (no shared mutable state);
//! * worker results are scattered back to their flat trial index and
//!   merged *sequentially in trial order*, so floating-point sums are
//!   performed in one canonical order no matter which worker ran which
//!   trial.

use timber_telemetry::{Recorder, RecorderConfig};
use timber_variability::{splitmix64, CompositeVariability, SensitizationModel};

use crate::scheme::SequentialScheme;
use crate::sim::{PipelineConfig, PipelineSim};
use crate::stats::RunStats;

/// Coordinates of one trial in the sweep grid, handed to the scheme and
/// environment factories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialPoint {
    /// Index on the scheme axis.
    pub scheme: usize,
    /// Index on the environment axis.
    pub env: usize,
    /// Trial index within the (scheme, env) cell.
    pub trial: usize,
    /// Derived RNG seed for this trial. Scheme-independent: the same
    /// `(env, trial)` pair yields the same seed on every scheme, so all
    /// schemes are measured against identical environments.
    pub seed: u64,
}

/// Everything a trial needs besides the scheme: the pipeline
/// configuration, the workload (sensitization) model and the
/// variability stack.
pub struct Environment {
    /// Pipeline configuration (stage count, period, controller knobs).
    pub config: PipelineConfig,
    /// Per-stage path sensitization model.
    pub sensitization: SensitizationModel,
    /// Delay-derating environment.
    pub variability: CompositeVariability,
}

type SchemeFactory<'a> = Box<dyn Fn(&TrialPoint) -> Box<dyn SequentialScheme> + Sync + 'a>;
type EnvFactory<'a> = Box<dyn Fn(&TrialPoint) -> Environment + Sync + 'a>;

/// A Monte-Carlo sweep: scheme axis × environment axis × trials.
///
/// Build with [`SweepSpec::new`], add axes with [`SweepSpec::scheme`]
/// and [`SweepSpec::env`], then call [`SweepSpec::run`].
///
/// # Example
///
/// ```
/// use timber_netlist::Picos;
/// use timber_pipeline::montecarlo::{Environment, SweepSpec};
/// use timber_pipeline::reference::MarginedFlop;
/// use timber_pipeline::PipelineConfig;
/// use timber_variability::{CompositeVariability, SensitizationModel};
///
/// let result = SweepSpec::new(42, 1_000, 4)
///     .scheme("margined", |_p| Box::new(MarginedFlop::new()))
///     .env("nominal", |p| Environment {
///         config: PipelineConfig::new(3, Picos(1000)),
///         sensitization: SensitizationModel::uniform(3, Picos(900), p.seed),
///         variability: CompositeVariability::nominal(),
///     })
///     .threads(2)
///     .run();
/// assert_eq!(result.cell(0, 0).cycles, 4 * 1_000);
/// ```
pub struct SweepSpec<'a> {
    scheme_names: Vec<String>,
    schemes: Vec<SchemeFactory<'a>>,
    env_names: Vec<String>,
    envs: Vec<EnvFactory<'a>>,
    trials: usize,
    cycles_per_trial: u64,
    base_seed: u64,
    threads: usize,
}

impl std::fmt::Debug for SweepSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepSpec")
            .field("schemes", &self.scheme_names)
            .field("envs", &self.env_names)
            .field("trials", &self.trials)
            .field("cycles_per_trial", &self.cycles_per_trial)
            .field("base_seed", &self.base_seed)
            .field("threads", &self.threads)
            .finish()
    }
}

impl<'a> SweepSpec<'a> {
    /// Starts a sweep: `trials` independent runs of `cycles_per_trial`
    /// cycles per (scheme, environment) cell, seeded from `base_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `trials` or `cycles_per_trial` is zero.
    pub fn new(base_seed: u64, cycles_per_trial: u64, trials: usize) -> SweepSpec<'a> {
        assert!(trials > 0, "sweep needs at least one trial");
        assert!(cycles_per_trial > 0, "trials must run at least one cycle");
        SweepSpec {
            scheme_names: Vec::new(),
            schemes: Vec::new(),
            env_names: Vec::new(),
            envs: Vec::new(),
            trials,
            cycles_per_trial,
            base_seed,
            threads: 0,
        }
    }

    /// Adds a scheme to the scheme axis. The factory is called once per
    /// trial (on the worker thread) to build a fresh scheme instance.
    pub fn scheme(
        mut self,
        name: &str,
        factory: impl Fn(&TrialPoint) -> Box<dyn SequentialScheme> + Sync + 'a,
    ) -> SweepSpec<'a> {
        self.scheme_names.push(name.to_owned());
        self.schemes.push(Box::new(factory));
        self
    }

    /// Adds an environment to the environment axis. The factory is
    /// called once per trial (on the worker thread); it should derive
    /// all randomness from `point.seed` so the trial is reproducible.
    pub fn env(
        mut self,
        name: &str,
        factory: impl Fn(&TrialPoint) -> Environment + Sync + 'a,
    ) -> SweepSpec<'a> {
        self.env_names.push(name.to_owned());
        self.envs.push(Box::new(factory));
        self
    }

    /// Sets the worker-thread count. `0` (the default) uses
    /// [`std::thread::available_parallelism`]. The thread count never
    /// affects results, only wall-clock time.
    pub fn threads(mut self, threads: usize) -> SweepSpec<'a> {
        self.threads = threads;
        self
    }

    fn point(&self, flat: usize) -> TrialPoint {
        let per_scheme = self.envs.len() * self.trials;
        let scheme = flat / per_scheme;
        let rem = flat % per_scheme;
        let env = rem / self.trials;
        let trial = rem % self.trials;
        TrialPoint {
            scheme,
            env,
            trial,
            seed: splitmix64(self.base_seed, (env * self.trials + trial) as u64),
        }
    }

    fn run_trial(&self, flat: usize) -> RunStats {
        let point = self.point(flat);
        let mut scheme = (self.schemes[point.scheme])(&point);
        let env = (self.envs[point.env])(&point);
        PipelineSim::new(
            env.config,
            scheme.as_mut(),
            &env.sensitization,
            &env.variability,
        )
        .run(self.cycles_per_trial)
    }

    fn run_trial_with_telemetry(&self, flat: usize, ring_capacity: usize) -> (RunStats, Recorder) {
        let point = self.point(flat);
        let mut scheme = (self.schemes[point.scheme])(&point);
        let env = (self.envs[point.env])(&point);
        let mut recorder = Recorder::new(
            RecorderConfig::new(env.config.stages, env.config.nominal_period)
                .ring_capacity(ring_capacity),
        );
        let stats = PipelineSim::with_telemetry(
            env.config,
            scheme.as_mut(),
            &env.sensitization,
            &env.variability,
            &mut recorder,
        )
        .run(self.cycles_per_trial);
        (stats, recorder)
    }

    fn validate(&self) -> usize {
        assert!(!self.schemes.is_empty(), "sweep needs at least one scheme");
        assert!(
            !self.envs.is_empty(),
            "sweep needs at least one environment"
        );
        self.schemes.len() * self.envs.len() * self.trials
    }

    /// Fans `total` trials out over the spec's workers (0 = all cores)
    /// through the shared deterministic scatter and returns the
    /// per-trial outputs in flat trial order, independent of which
    /// worker ran which trial. A panicking trial is re-raised
    /// deterministically (lowest panicking flat index) by
    /// [`timber_resilience::scatter_strict`].
    fn scatter<T: Send>(&self, total: usize, run_one: &(impl Fn(usize) -> T + Sync)) -> Vec<T> {
        let indices: Vec<usize> = (0..total).collect();
        timber_resilience::scatter_strict(&indices, self.threads, &|&flat| run_one(flat))
    }

    fn reduce(&self, per_trial: Vec<RunStats>) -> SweepResult {
        // Reduce trials in flat order (canonical floating-point order).
        let mut cells = vec![RunStats::default(); self.schemes.len() * self.envs.len()];
        for (flat, stats) in per_trial.into_iter().enumerate() {
            cells[flat / self.trials].merge(&stats);
        }
        SweepResult {
            scheme_names: self.scheme_names.clone(),
            env_names: self.env_names.clone(),
            trials: self.trials,
            cycles_per_trial: self.cycles_per_trial,
            cells,
        }
    }

    /// Runs every trial and reduces the results.
    ///
    /// # Panics
    ///
    /// Panics if no scheme or no environment was added, or if a worker
    /// thread panics (the panic is propagated).
    pub fn run(&self) -> SweepResult {
        let total = self.validate();
        let per_trial = self.scatter(total, &|flat| self.run_trial(flat));
        self.reduce(per_trial)
    }

    /// Runs every trial with a per-trial [`Recorder`] attached and
    /// reduces both the statistics and the telemetry.
    ///
    /// Returns the usual [`SweepResult`] plus one merged [`Recorder`]
    /// per (scheme, environment) cell, in the same cell order as
    /// [`SweepResult::cell`] (`scheme * envs + env`). Each trial writes
    /// into its own single-writer recorder on the worker thread;
    /// recorders are then merged *sequentially in flat trial order*, so
    /// — like the statistics — the telemetry is bit-identical
    /// regardless of thread count.
    ///
    /// `ring_capacity` bounds the surviving event trace per cell.
    ///
    /// # Panics
    ///
    /// Panics as [`SweepSpec::run`] does.
    pub fn run_with_telemetry(&self, ring_capacity: usize) -> (SweepResult, Vec<Recorder>) {
        let total = self.validate();
        let per_trial = self.scatter(total, &|flat| {
            self.run_trial_with_telemetry(flat, ring_capacity)
        });
        let cell_count = self.schemes.len() * self.envs.len();
        let mut stats = Vec::with_capacity(total);
        let mut recorders: Vec<Option<Recorder>> = (0..cell_count).map(|_| None).collect();
        for (flat, (trial_stats, recorder)) in per_trial.into_iter().enumerate() {
            stats.push(trial_stats);
            match &mut recorders[flat / self.trials] {
                Some(acc) => acc.merge(&recorder),
                slot => *slot = Some(recorder),
            }
        }
        let result = self.reduce(stats);
        let recorders = recorders
            .into_iter()
            .map(|r| r.expect("every cell ran at least one trial"))
            .collect();
        (result, recorders)
    }
}

/// Merged results of a sweep, one [`RunStats`] per (scheme,
/// environment) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    scheme_names: Vec<String>,
    env_names: Vec<String>,
    trials: usize,
    cycles_per_trial: u64,
    cells: Vec<RunStats>,
}

impl SweepResult {
    /// Merged statistics of one (scheme, environment) cell: all trials
    /// folded together with [`RunStats::merge`].
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, scheme: usize, env: usize) -> &RunStats {
        assert!(
            scheme < self.scheme_names.len(),
            "scheme index out of range"
        );
        assert!(env < self.env_names.len(), "environment index out of range");
        &self.cells[scheme * self.env_names.len() + env]
    }

    /// Grand total across every cell.
    pub fn total(&self) -> RunStats {
        let mut total = RunStats::default();
        for cell in &self.cells {
            total.merge(cell);
        }
        total
    }

    /// Names on the scheme axis, in cell order.
    pub fn scheme_names(&self) -> &[String] {
        &self.scheme_names
    }

    /// Names on the environment axis, in cell order.
    pub fn env_names(&self) -> &[String] {
        &self.env_names
    }

    /// Trials per cell.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Cycles simulated per trial.
    pub fn cycles_per_trial(&self) -> u64 {
        self.cycles_per_trial
    }

    /// Total cycles simulated across the whole sweep.
    pub fn total_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::MarginedFlop;
    use std::sync::Mutex;
    use timber_netlist::Picos;
    use timber_variability::{CompositeVariability, VariabilityBuilder};

    fn nominal_env(stages: usize, seed: u64) -> Environment {
        Environment {
            config: PipelineConfig::new(stages, Picos(1000)),
            sensitization: SensitizationModel::uniform(stages, Picos(900), seed),
            variability: CompositeVariability::nominal(),
        }
    }

    fn stressed_env(stages: usize, seed: u64) -> Environment {
        Environment {
            config: PipelineConfig::new(stages, Picos(1000)),
            sensitization: SensitizationModel::uniform(stages, Picos(970), seed),
            variability: VariabilityBuilder::new(seed)
                .voltage_droop(0.06, 400, 1500.0)
                .local_jitter(0.01)
                .build(),
        }
    }

    #[test]
    fn splitmix64_mixes_neighbouring_indices() {
        let a = splitmix64(0, 0);
        let b = splitmix64(0, 1);
        let c = splitmix64(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Pure function.
        assert_eq!(splitmix64(0, 0), a);
    }

    #[test]
    fn sweep_runs_every_cell_for_all_trials() {
        let r = SweepSpec::new(7, 500, 3)
            .scheme("a", |_p| Box::new(MarginedFlop::new()))
            .scheme("b", |_p| Box::new(MarginedFlop::new()))
            .env("e0", |p| nominal_env(3, p.seed))
            .env("e1", |p| nominal_env(4, p.seed))
            .threads(1)
            .run();
        assert_eq!(r.scheme_names(), &["a".to_owned(), "b".to_owned()]);
        assert_eq!(r.env_names(), &["e0".to_owned(), "e1".to_owned()]);
        for s in 0..2 {
            for e in 0..2 {
                assert_eq!(r.cell(s, e).cycles, 3 * 500);
            }
        }
        assert_eq!(r.total().cycles, 2 * 2 * 3 * 500);
        assert_eq!(r.total_cycles(), 2 * 2 * 3 * 500);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sweep = |threads: usize| {
            SweepSpec::new(99, 2_000, 5)
                .scheme("margined", |_p| Box::new(MarginedFlop::new()))
                .env("stress", |p| stressed_env(4, p.seed))
                .threads(threads)
                .run()
        };
        let serial = sweep(1);
        assert_eq!(serial, sweep(3));
        assert_eq!(serial, sweep(8));
        // The stress environment must actually produce events for this
        // test to mean anything.
        assert!(serial.cell(0, 0).violations() > 0);
    }

    #[test]
    fn trial_seeds_are_scheme_independent() {
        let seen: Mutex<Vec<(usize, usize, u64)>> = Mutex::new(Vec::new());
        let record = |p: &TrialPoint| {
            seen.lock().unwrap().push((p.scheme, p.trial, p.seed));
            Box::new(MarginedFlop::new()) as Box<dyn SequentialScheme>
        };
        SweepSpec::new(5, 100, 4)
            .scheme("a", record)
            .scheme("b", record)
            .env("e", |p| nominal_env(3, p.seed))
            .threads(1)
            .run();
        let seen = seen.into_inner().unwrap();
        for trial in 0..4 {
            let seeds: Vec<u64> = seen
                .iter()
                .filter(|(_, t, _)| *t == trial)
                .map(|&(_, _, s)| s)
                .collect();
            assert_eq!(seeds.len(), 2, "both schemes ran trial {trial}");
            assert_eq!(seeds[0], seeds[1], "trial {trial} seeds must match");
        }
        // Different trials draw different seeds.
        assert_ne!(seen[0].2, seen[1].2);
    }

    #[test]
    fn merged_cell_equals_sequential_merge_of_trials() {
        let r = SweepSpec::new(11, 1_000, 3)
            .scheme("margined", |_p| Box::new(MarginedFlop::new()))
            .env("stress", |p| stressed_env(3, p.seed))
            .threads(2)
            .run();
        let mut manual = RunStats::default();
        for trial in 0..3 {
            let seed = splitmix64(11, trial);
            let mut scheme = MarginedFlop::new();
            let env = stressed_env(3, seed);
            let stats = PipelineSim::new(
                env.config,
                &mut scheme,
                &env.sensitization,
                &env.variability,
            )
            .run(1_000);
            manual.merge(&stats);
        }
        assert_eq!(r.cell(0, 0), &manual);
    }

    #[test]
    fn telemetry_counters_match_merged_stats() {
        use timber_telemetry::Counter;
        let (result, recorders) = SweepSpec::new(99, 2_000, 3)
            .scheme("margined", |_p| Box::new(MarginedFlop::new()))
            .env("stress", |p| stressed_env(4, p.seed))
            .threads(1)
            .run_with_telemetry(128);
        assert_eq!(recorders.len(), 1);
        let cell = result.cell(0, 0);
        let rec = &recorders[0];
        assert_eq!(rec.counter(Counter::Cycles), cell.cycles);
        assert_eq!(rec.counter(Counter::Masked), cell.masked);
        assert_eq!(rec.counter(Counter::Flagged), cell.flagged);
        assert_eq!(rec.counter(Counter::Detected), cell.detected);
        assert_eq!(rec.counter(Counter::Predicted), cell.predicted);
        assert_eq!(rec.counter(Counter::Corrupted), cell.corrupted);
        assert_eq!(rec.counter(Counter::PenaltyCycles), cell.penalty_cycles);
        assert_eq!(rec.counter(Counter::SlowCycles), cell.slow_cycles);
        assert_eq!(
            rec.counter(Counter::ThrottleEpisodes),
            cell.slowdown_episodes
        );
        // The stressed margined pipeline must actually corrupt for the
        // comparison to be meaningful.
        assert!(cell.violations() > 0);
    }

    #[test]
    fn telemetry_is_bit_identical_across_thread_counts() {
        let sweep = |threads: usize| {
            let (result, recorders) = SweepSpec::new(2010, 2_000, 5)
                .scheme("margined", |_p| Box::new(MarginedFlop::new()))
                .env("stress", |p| stressed_env(4, p.seed))
                .threads(threads)
                .run_with_telemetry(64);
            let cells: Vec<(String, timber_telemetry::Recorder)> = recorders
                .into_iter()
                .enumerate()
                .map(|(i, r)| (format!("cell{i}"), r))
                .collect();
            (result, timber_telemetry::trace_json("test", &cells))
        };
        let (serial_result, serial_trace) = sweep(1);
        let (par_result, par_trace) = sweep(4);
        assert_eq!(serial_result, par_result);
        assert_eq!(serial_trace, par_trace);
        assert!(serial_trace.contains("\"events\""));
    }

    #[test]
    fn telemetry_and_plain_run_agree() {
        let spec = || {
            SweepSpec::new(17, 1_500, 3)
                .scheme("margined", |_p| Box::new(MarginedFlop::new()))
                .env("stress", |p| stressed_env(3, p.seed))
                .threads(1)
        };
        let plain = spec().run();
        let (instrumented, _) = spec().run_with_telemetry(32);
        assert_eq!(plain, instrumented);
    }

    #[test]
    #[should_panic(expected = "at least one scheme")]
    fn empty_scheme_axis_panics() {
        let _ = SweepSpec::new(0, 10, 1)
            .env("e", |p| nominal_env(3, p.seed))
            .run();
    }
}
