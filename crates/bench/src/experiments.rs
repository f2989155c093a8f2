//! The experiment implementations, one per paper table/figure.

use timber::{
    circuit::{two_stage_ff_demo, two_stage_latch_demo},
    CheckingPeriod,
};
use timber_netlist::Picos;
use timber_pipeline::{
    Environment, PipelineConfig, RunStats, SequentialScheme, SweepSpec, TrialPoint,
};
use timber_power::{fig8_table, Fig8Point, PowerParams};
use timber_proc::{calibration, structural, PerfPoint, ProcessorModel};
use timber_schemes::{render_table1, CaptureLaw, Registry, SchemeId};
use timber_variability::{
    CompositeVariability, SensitizationModel, StagePathProfile, VariabilityBuilder,
};
use timber_wavesim::render_waves;

/// Default clock period used across experiments.
pub const PERIOD: Picos = Picos(1000);
/// Default flop count of the synthetic processor.
pub const N_FLOPS: usize = 10_000;
/// Default master seed.
pub const SEED: u64 = 2010;

// --- Table 1 ---------------------------------------------------------------

/// Reproduces Table 1 (qualitative comparison of online resilience
/// techniques) from the implemented schemes' feature records.
pub fn table1() -> String {
    render_table1()
}

// --- Fig. 1 ----------------------------------------------------------------

/// One Fig. 1 bar: a (performance point, threshold) pair with target
/// and measured fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Bar {
    /// Performance point.
    pub perf: PerfPoint,
    /// Top-c% threshold.
    pub c_pct: f64,
    /// Calibration target: fraction of flops ending a top-c% path.
    pub target_ending: f64,
    /// Measured on the statistical processor model.
    pub model_ending: f64,
    /// Calibration target: fraction both starting and ending.
    pub target_both: f64,
    /// Measured on the statistical processor model.
    pub model_both: f64,
    /// Measured bottom-up on the structural proxy netlist via STA.
    pub structural_ending: f64,
    /// Measured bottom-up on the structural proxy netlist via STA.
    pub structural_both: f64,
}

/// The Fig. 1 reproduction: critical-path distribution between
/// flip-flops at three performance points.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// All 12 bars (3 performance points × 4 thresholds).
    pub bars: Vec<Fig1Bar>,
}

impl Fig1Result {
    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "perf    c%   target(end/both)   model(end/both)   structural(end/both)\n",
        );
        for b in &self.bars {
            out.push_str(&format!(
                "{:<7} {:<4} {:>6.1}%/{:<6.1}%   {:>6.1}%/{:<6.1}%   {:>6.1}%/{:<6.1}%\n",
                b.perf.to_string(),
                b.c_pct,
                100.0 * b.target_ending,
                100.0 * b.target_both,
                100.0 * b.model_ending,
                100.0 * b.model_both,
                100.0 * b.structural_ending,
                100.0 * b.structural_both,
            ));
        }
        out
    }
}

/// Runs the Fig. 1 experiment.
pub fn fig1() -> Fig1Result {
    let thresholds = [10.0, 20.0, 30.0, 40.0];
    let proxy = structural::proxy_netlist(SEED);
    let mut bars = Vec::new();
    for perf in PerfPoint::ALL {
        let model = ProcessorModel::generate(perf, N_FLOPS, PERIOD, SEED);
        let model_rows = model.distribution(&thresholds);
        let structural_rows = structural::measure_distribution(&proxy, perf, &thresholds);
        let cal = calibration(perf);
        for i in 0..4 {
            bars.push(Fig1Bar {
                perf,
                c_pct: thresholds[i],
                target_ending: cal[i].frac_ending,
                model_ending: model_rows[i].frac_ending,
                target_both: cal[i].frac_start_and_end,
                model_both: model_rows[i].frac_start_and_end,
                structural_ending: structural_rows.rows[i].frac_ending,
                structural_both: structural_rows.rows[i].frac_start_and_end,
            });
        }
    }
    Fig1Result { bars }
}

// --- Fig. 2 ----------------------------------------------------------------

/// Reproduces Fig. 2: the checking-period schedule and its derived
/// quantities for both flagging configurations at every checking
/// period.
pub fn fig2() -> String {
    let mut out = String::from(
        "config              c%   intervals        unit(ps)  margin%  maskable  consolidation budget\n",
    );
    for c in [10.0, 20.0, 30.0, 40.0] {
        for (label, sched) in [
            (
                "immediate (2 ED)",
                CheckingPeriod::immediate_flagging(PERIOD, c).expect("valid"),
            ),
            (
                "deferred (1TB+2ED)",
                CheckingPeriod::deferred_flagging(PERIOD, c).expect("valid"),
            ),
        ] {
            let kinds: Vec<String> = sched.intervals().iter().map(|k| k.to_string()).collect();
            out.push_str(&format!(
                "{label:<19} {c:<4} {:<16} {:<9} {:<8.2} {:<9} {:.1} cycles\n",
                kinds.join("+"),
                sched.interval().as_ps(),
                sched.recovered_margin_pct(),
                sched.maskable_stages(),
                sched.consolidation_budget_cycles(),
            ));
        }
    }
    out
}

// --- Figs. 5 and 7 ----------------------------------------------------------

/// Result of a waveform-figure reproduction.
#[derive(Debug, Clone)]
pub struct WaveResult {
    /// ASCII waveform rendering.
    pub render: String,
    /// Times at which the first cell's error flag rose.
    pub err1_rises: usize,
    /// Times at which the second cell's error flag rose.
    pub err2_rises: usize,
    /// Whether both outputs ended with the correct (masked) data.
    pub data_correct: bool,
}

fn wave_result(demo: timber::circuit::TwoStageDemo) -> WaveResult {
    let waves = demo.sim.waves();
    let err1_rises = waves
        .trace(demo.err1)
        .map(|w| w.rising_edges().len())
        .unwrap_or(0);
    let err2_rises = waves
        .trace(demo.err2)
        .map(|w| w.rising_edges().len())
        .unwrap_or(0);
    let data_correct = demo.sim.value(demo.q1) == timber_wavesim::Logic::One
        && demo.sim.value(demo.q2) == timber_wavesim::Logic::One;
    let render = render_waves(
        waves,
        &demo.rows.iter().map(|&(n, s)| (n, s)).collect::<Vec<_>>(),
        demo.period,
        demo.period * 5,
        demo.period / 50,
    );
    WaveResult {
        render,
        err1_rises,
        err2_rises,
        data_correct,
    }
}

/// Reproduces Fig. 5: a two-stage timing error masked by two TIMBER
/// flip-flops (Err1 silent, Err2 flags on the falling edge).
pub fn fig5() -> WaveResult {
    wave_result(two_stage_ff_demo(PERIOD, Picos(20)))
}

/// Reproduces Fig. 7: a two-stage timing error masked by two TIMBER
/// latches.
pub fn fig7() -> WaveResult {
    wave_result(two_stage_latch_demo(PERIOD, Picos(20)))
}

// --- Fig. 8 ----------------------------------------------------------------

/// Runs the Fig. 8 experiment: all overhead series at the default
/// parameters.
pub fn fig8() -> Vec<Fig8Point> {
    fig8_table(N_FLOPS, PERIOD, SEED, &PowerParams::default())
}

/// Renders the Fig. 8 table as text.
pub fn render_fig8(points: &[Fig8Point]) -> String {
    let mut out = String::from(
        "perf    c%   relay area%  relay slack%  FF pwr% (margin%)  FF pwr% w/TB (margin%)  latch pwr% (margin%)  latch pwr% w/TB (margin%)\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<7} {:<4} {:<12.2} {:<13.1} {:<6.2} ({:<5.2})     {:<6.2} ({:<5.2})          {:<6.2} ({:<5.2})        {:<6.2} ({:<5.2})\n",
            p.perf.to_string(),
            p.c_pct,
            p.relay_area_pct,
            p.relay_slack_pct,
            p.ff_power_overhead_pct,
            p.margin_without_tb_pct,
            p.ff_power_overhead_with_tb_pct,
            p.margin_with_tb_pct,
            p.latch_power_overhead_pct,
            p.margin_without_tb_pct,
            p.latch_power_overhead_with_tb_pct,
            p.margin_with_tb_pct,
        ));
    }
    out
}

// --- §3/§4 claims ------------------------------------------------------------

/// Quantitative check of the paper's §3/§4 claims on the pipeline
/// simulator.
#[derive(Debug, Clone)]
pub struct ClaimsResult {
    /// Run statistics under the deferred-flagging TIMBER FF scheme.
    pub deferred: RunStats,
    /// Run statistics under immediate flagging (no TB interval).
    pub immediate: RunStats,
    /// Nominal period used.
    pub period: Picos,
    /// Cycles simulated.
    pub cycles: u64,
}

impl ClaimsResult {
    /// Renders the claims summary.
    pub fn render(&self) -> String {
        let d = &self.deferred;
        let i = &self.immediate;
        format!(
            "cycles: {}\n\
             deferred flagging (1TB+2ED): masked {} (flagged {}), corrupted {}, \
             chains {:?}, multi-stage fraction {:.4}, slowdowns {}, throughput loss {:.4}%\n\
             immediate flagging (2ED):    masked {} (flagged {}), corrupted {}, \
             chains {:?}, multi-stage fraction {:.4}, slowdowns {}, throughput loss {:.4}%\n",
            self.cycles,
            d.masked,
            d.flagged,
            d.corrupted,
            d.chain_histogram,
            d.multi_stage_fraction(),
            d.slowdown_episodes,
            100.0 * d.throughput_loss(self.period),
            i.masked,
            i.flagged,
            i.corrupted,
            i.chain_histogram,
            i.multi_stage_fraction(),
            i.slowdown_episodes,
            100.0 * i.throughput_loss(self.period),
        )
    }
}

/// The per-stage path profiles of the shared stress environment: a
/// high-performance processor model (critical paths at 97% of the
/// cycle). The claims sensitization and the bit-sliced bench workload
/// both derive from these.
pub(crate) fn stress_stage_profiles(stages: usize, seed: u64) -> Vec<StagePathProfile> {
    ProcessorModel::generate(PerfPoint::High, 256, PERIOD, seed).stage_profiles(stages)
}

/// The sensitization half of the shared stress environment: stage
/// profiles from a high-performance processor model (critical paths at
/// 97% of the cycle).
fn stress_sensitization(stages: usize, seed: u64) -> SensitizationModel {
    SensitizationModel::new(stress_stage_profiles(stages, seed), seed ^ 0x5EED)
}

/// The variability half of the shared stress environment: voltage
/// droop, slow temperature drift and small local jitter.
fn stress_variability(seed: u64) -> CompositeVariability {
    VariabilityBuilder::new(seed)
        .voltage_droop(0.05, 500, 2000.0)
        .temperature(0.01, 1_000_000)
        .local_jitter(0.005)
        .build()
}

/// Trials per sweep cell: total requested cycles are split into this
/// many independently seeded runs, merged with `RunStats::merge`.
pub const TRIALS: usize = 8;

/// Splits a total cycle budget into per-trial cycle counts.
pub(crate) fn per_trial(cycles: u64) -> u64 {
    (cycles / TRIALS as u64).max(1)
}

/// The shared stress environment for the claims/compare experiments:
/// a high-performance point (critical paths at 97% of the cycle) under
/// voltage droop, slow temperature drift and small local jitter.
fn stress_environment(stages: usize, seed: u64) -> Environment {
    Environment {
        config: PipelineConfig::new(stages, PERIOD),
        sensitization: stress_sensitization(stages, seed),
        variability: stress_variability(seed),
    }
}

/// The sweep specification behind [`claims_netlist_backed`]
/// (also used by the telemetry trace path). The returned period is the
/// netlist-derived one the spec runs at.
pub fn claims_netlist_spec(cycles: u64, threads: usize) -> (SweepSpec<'static>, Picos) {
    let proxy = structural::proxy_netlist(SEED);
    let profiles = structural::stage_profiles_from_netlist(&proxy, PerfPoint::High);
    let stages = profiles.len();
    let period = structural::proxy_period(&proxy, PerfPoint::High);
    let scheme = move |k_tb: u8| {
        move |_p: &TrialPoint| -> Box<dyn SequentialScheme> {
            let sched = CheckingPeriod::new(period, 24.0, k_tb, 2).expect("valid schedule");
            Box::new(CaptureLaw::TimberFf(sched).build(0))
        }
    };
    let spec = SweepSpec::new(SEED, per_trial(cycles), TRIALS)
        .scheme("deferred", scheme(1))
        .scheme("immediate", scheme(0))
        .env("netlist-backed", move |p| Environment {
            config: PipelineConfig::new(stages, period),
            sensitization: SensitizationModel::new(profiles.clone(), p.seed ^ 0x5EED),
            variability: VariabilityBuilder::new(p.seed)
                .voltage_droop(0.05, 500, 2000.0)
                .local_jitter(0.005)
                .build(),
        })
        .threads(threads);
    (spec, period)
}

/// Runs the §3/§4 claims on sensitization profiles derived from the
/// *structural* proxy netlist (per-bank STA arrivals) instead of the
/// uniform synthetic profiles — the fully netlist-backed variant of
/// [`claims`]. `threads` is the worker-thread count (`0` = all
/// available cores; the count never changes the numbers).
pub fn claims_netlist_backed(cycles: u64, threads: usize) -> ClaimsResult {
    let (spec, period) = claims_netlist_spec(cycles, threads);
    let result = spec.run();
    ClaimsResult {
        deferred: result.cell(0, 0).clone(),
        immediate: result.cell(1, 0).clone(),
        period,
        cycles: result.cell(0, 0).cycles,
    }
}

/// The sweep specification behind [`claims`] (also used by
/// the telemetry trace path): deferred vs immediate flagging on the
/// shared stress environment.
pub fn claims_spec(cycles: u64, threads: usize) -> SweepSpec<'static> {
    SweepSpec::new(SEED, per_trial(cycles), TRIALS)
        .scheme("deferred", |_p| {
            let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid schedule");
            Box::new(CaptureLaw::TimberFf(sched).build(0))
        })
        .scheme("immediate", |_p| {
            let sched = CheckingPeriod::immediate_flagging(PERIOD, 24.0).expect("valid schedule");
            Box::new(CaptureLaw::TimberFf(sched).build(0))
        })
        .env("stress", |p| stress_environment(5, p.seed))
        .threads(threads)
}

/// Runs the claims experiment for `cycles` cycles on `threads` worker
/// threads (`0` = all available cores; the count never changes the
/// numbers).
pub fn claims(cycles: u64, threads: usize) -> ClaimsResult {
    let result = claims_spec(cycles, threads).run();
    ClaimsResult {
        deferred: result.cell(0, 0).clone(),
        immediate: result.cell(1, 0).clone(),
        period: PERIOD,
        cycles: result.cell(0, 0).cycles,
    }
}

// --- Cross-scheme comparison --------------------------------------------------

/// One row of the cross-scheme comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Scheme name.
    pub name: String,
    /// Run statistics.
    pub stats: RunStats,
}

/// Runs every implemented scheme through the identical stress
/// environment (same seeds) for `cycles` cycles on `threads` worker
/// threads (`0` = all available cores; the count never changes the
/// numbers).
///
/// Every scheme is one entry on the sweep's scheme axis; the per-trial
/// seeds are scheme-independent, so all schemes face exactly the same
/// stress environments.
pub fn compare(cycles: u64, threads: usize) -> Vec<CompareRow> {
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid schedule");
    let registry = Registry::new(sched);
    let mut spec = SweepSpec::new(SEED, per_trial(cycles), TRIALS)
        .env("stress", |p| stress_environment(5, p.seed))
        .threads(threads);
    for id in SchemeId::ALL {
        spec = spec.scheme(id.name(), move |p| Box::new(registry.build(id, p.seed)));
    }
    let result = spec.run();
    result
        .scheme_names()
        .iter()
        .enumerate()
        .map(|(i, name)| CompareRow {
            name: name.clone(),
            stats: result.cell(i, 0).clone(),
        })
        .collect()
}

/// Renders the comparison table.
pub fn render_compare(rows: &[CompareRow], period: Picos) -> String {
    let mut out = String::from(
        "scheme                   masked   flagged  detected predicted corrupted  IPC     loss%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:<8} {:<8} {:<8} {:<9} {:<10} {:<7.4} {:<7.4}\n",
            r.name,
            r.stats.masked,
            r.stats.flagged,
            r.stats.detected,
            r.stats.predicted,
            r.stats.corrupted,
            r.stats.ipc(),
            100.0 * r.stats.throughput_loss(period),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_all_categories() {
        let t = table1();
        assert!(t.contains("Error detection"));
        assert!(t.contains("Error prediction"));
        assert!(t.contains("TIMBER"));
    }

    #[test]
    fn fig1_model_matches_targets_and_structural_shape() {
        let r = fig1();
        assert_eq!(r.bars.len(), 12);
        for b in &r.bars {
            // Statistical model matches calibration tightly.
            assert!((b.model_ending - b.target_ending).abs() < 0.01, "{b:?}");
            assert!((b.model_both - b.target_both).abs() < 0.01, "{b:?}");
            // Structural netlist reproduces the qualitative shape.
            assert!(b.structural_both <= b.structural_ending + 1e-12);
        }
        assert!(!r.render().is_empty());
    }

    #[test]
    fn fig2_lists_both_configs() {
        let t = fig2();
        assert!(t.contains("immediate"));
        assert!(t.contains("deferred"));
        assert!(t.contains("TB+ED"));
    }

    #[test]
    fn fig5_masks_and_flags_like_the_paper() {
        let r = fig5();
        assert_eq!(r.err1_rises, 0, "Err1 must stay silent");
        assert_eq!(r.err2_rises, 1, "Err2 must flag exactly once");
        assert!(r.data_correct);
        assert!(r.render.contains("Err2"));
    }

    #[test]
    fn fig7_masks_and_flags_like_the_paper() {
        let r = fig7();
        assert_eq!(r.err1_rises, 0);
        assert_eq!(r.err2_rises, 1);
        assert!(r.data_correct);
    }

    #[test]
    fn fig8_has_twelve_points() {
        let points = fig8();
        assert_eq!(points.len(), 12);
        assert!(!render_fig8(&points).is_empty());
    }

    #[test]
    fn netlist_backed_claims_match_synthetic_shape() {
        // Netlist-derived profiles put the error rate near 6e-5 per
        // cycle (the paper's §4 regime is 1e-5..1e-3), and events
        // cluster inside droop episodes, so a 60k-cycle window can
        // legitimately see zero of them. 400k cycles gives an expected
        // count above 20, making "stress produces violations" robust.
        let r = claims_netlist_backed(400_000, 0);
        assert_eq!(r.deferred.corrupted, 0);
        assert!(r.deferred.masked > 0, "stress must produce violations");
        // Deferred flagging still flags a subset.
        assert!(r.deferred.flagged <= r.deferred.masked);
        assert!(r.deferred.flagged <= r.immediate.flagged);
        assert!(r.deferred.multi_stage_fraction() < 0.3);
    }

    #[test]
    fn claims_hold_under_stress() {
        let r = claims(60_000, 0);
        // TIMBER masks everything in this regime: no corruption.
        assert_eq!(r.deferred.corrupted, 0, "{:?}", r.deferred);
        assert!(r.deferred.masked > 0, "environment must produce errors");
        // Single-stage events dominate (paper §3).
        assert!(
            r.deferred.multi_stage_fraction() < 0.2,
            "multi-stage fraction {}",
            r.deferred.multi_stage_fraction()
        );
        // Deferred flagging flags only multi-stage errors: fewer flags
        // (and slowdowns) than immediate flagging.
        assert!(r.deferred.flagged <= r.immediate.flagged);
        // Performance loss from temporary frequency reduction is
        // negligible (paper §1: "negligible loss in performance").
        assert!(
            r.deferred.throughput_loss(r.period) < 0.01,
            "loss {}",
            r.deferred.throughput_loss(r.period)
        );
        assert!(!r.render().is_empty());
    }

    #[test]
    fn compare_shows_the_papers_tradeoffs() {
        let rows = compare(40_000, 0);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let timber = get("timber-ff");
        let razor = get("razor-ff");
        let margined = get("conventional-ff");

        // TIMBER: no corruption, full throughput.
        assert_eq!(timber.stats.corrupted, 0);
        assert!((timber.stats.ipc() - 1.0).abs() < 1e-9);
        // Razor: recovers correctness but pays replay bubbles.
        assert_eq!(razor.stats.corrupted, 0);
        assert!(razor.stats.detected > 0);
        assert!(razor.stats.ipc() < 1.0);
        // Conventional: silent corruption.
        assert!(margined.stats.corrupted > 0);
        assert!(!render_compare(&rows, PERIOD).is_empty());
    }

    /// The counts every scalar outcome row reports, in one array:
    /// instructions, masked, flagged, detected, predicted, corrupted,
    /// penalty cycles, slow cycles and slowdown episodes.
    fn counts(s: &RunStats) -> [u64; 9] {
        [
            s.instructions,
            s.masked,
            s.flagged,
            s.detected,
            s.predicted,
            s.corrupted,
            s.penalty_cycles,
            s.slow_cycles,
            s.slowdown_episodes,
        ]
    }

    /// A row's simulated time in ps and its energy.
    fn time_and_energy(s: &RunStats) -> (i64, f64) {
        (s.wall_time.as_ps(), s.energy)
    }

    #[test]
    fn scalar_laws_reproduce_their_pinned_counts() {
        // Every capture law through `PipelineSim` on the shared stress
        // environment, Razor's metastability aperture and the diamond
        // relay. `compare_shows_the_papers_tradeoffs` checks shapes;
        // this pins the exact counts (`repro dag` prints the same run).
        let rows = compare(40_000, 0);
        let compare: Vec<(String, [u64; 9])> = rows
            .iter()
            .map(|r| (r.name.clone(), counts(&r.stats)))
            .collect();
        let expected = [
            ("timber-ff", [40000, 28, 2, 0, 0, 0, 0, 100, 1]),
            ("timber-latch", [40000, 26, 0, 0, 0, 0, 0, 0, 0]),
            ("razor-ff", [39974, 0, 0, 26, 0, 0, 26, 0, 0]),
            ("transition-detector-ff", [39974, 0, 0, 26, 0, 0, 26, 0, 0]),
            ("canary-ff", [40000, 0, 0, 0, 427, 0, 0, 36303, 369]),
            ("soft-edge-ff", [40000, 26, 0, 0, 0, 0, 0, 0, 0]),
            ("logical-masking", [40000, 18, 0, 0, 0, 8, 0, 0, 0]),
            ("conventional-ff", [40000, 0, 0, 0, 0, 26, 0, 0, 0]),
        ]
        .map(|(name, c)| (name.to_owned(), c));
        assert_eq!(compare, expected);
        let floats: Vec<(i64, f64)> = rows.iter().map(|r| time_and_energy(&r.stats)).collect();
        assert_eq!(
            floats,
            [
                (40_010_000, 40_000.0),
                (40_000_000, 40_000.0),
                (40_000_000, 40_000.0),
                (40_000_000, 40_000.0),
                (43_630_300, 40_000.0),
                (40_000_000, 40_000.0),
                (40_000_000, 40_000.0),
                (40_000_000, 40_000.0),
            ]
        );

        let meta = crate::ablations::ablation_metastability(80_000, 0);
        assert_eq!(counts(&meta.razor_ideal), [79958, 0, 0, 42, 0, 0, 42, 0, 0]);
        assert_eq!(counts(&meta.razor_meta), [79690, 0, 0, 91, 0, 0, 310, 0, 0]);
        assert_eq!(counts(&meta.timber), [80000, 45, 6, 0, 0, 0, 0, 500, 5]);
        assert_eq!(time_and_energy(&meta.razor_ideal), (80_000_000, 80_000.0));
        assert_eq!(time_and_energy(&meta.razor_meta), (80_000_000, 80_000.0));
        assert_eq!(time_and_energy(&meta.timber), (80_050_000, 80_000.0));

        let dag = crate::ablations::ablation_dag(500_000);
        assert_eq!(
            counts(&dag.dag_relay),
            [500000, 220, 25, 0, 0, 0, 0, 2200, 22]
        );
        assert_eq!(dag.dag_relay.chain_histogram, [213, 19, 3]);
        assert_eq!(
            counts(&dag.conventional),
            [500000, 0, 0, 0, 0, 205, 0, 0, 0]
        );
        assert_eq!(dag.conventional.chain_histogram, [205]);
        assert_eq!(time_and_energy(&dag.dag_relay), (500_220_000, 500_000.0));
        assert_eq!(time_and_energy(&dag.conventional), (500_000_000, 500_000.0));

        // The claims sweep (`repro claims` runs 1,000,000 cycles).
        let claims = claims(80_000, 0);
        assert_eq!(counts(&claims.deferred), [80000, 55, 4, 0, 0, 0, 0, 300, 3]);
        assert_eq!(claims.deferred.chain_histogram, [48, 2, 1]);
        assert_eq!(time_and_energy(&claims.deferred), (80_030_000, 80_000.0));
        assert_eq!(
            counts(&claims.immediate),
            [80000, 29, 29, 0, 0, 0, 0, 2800, 28]
        );
        assert_eq!(claims.immediate.chain_histogram, [27, 1]);
        assert_eq!(time_and_energy(&claims.immediate), (80_280_000, 80_000.0));
    }
}
