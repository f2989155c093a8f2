//! Ablation studies over the design choices `DESIGN.md` calls out:
//! the TB/ED interval split, the checking-period width, the droop
//! severity the checking period can absorb, and Razor's metastability
//! exposure vs TIMBER's immunity.

use timber::{validate_flipflop, validate_latch, CheckingPeriod};
use timber_netlist::Picos;
use timber_pipeline::{Environment, PipelineConfig, RunStats, SequentialScheme, SweepSpec};
use timber_schemes::CaptureLaw;
use timber_variability::{SensitizationModel, VariabilityBuilder};

use crate::experiments::{per_trial, PERIOD, SEED, TRIALS};

const STAGES: usize = 5;

fn environment(droop_depth: f64, seed: u64) -> Environment {
    let sens = SensitizationModel::uniform(STAGES, Picos(970), seed ^ 0x5EED);
    let var = VariabilityBuilder::new(seed)
        .voltage_droop(droop_depth, 500, 2000.0)
        .local_jitter(0.005)
        .build();
    Environment {
        config: PipelineConfig::new(STAGES, PERIOD),
        sensitization: sens,
        variability: var,
    }
}

// --- schedule-shape ablation -------------------------------------------------

/// One row of the TB/ED split ablation.
#[derive(Debug, Clone)]
pub struct ScheduleAblationRow {
    /// TB interval count.
    pub k_tb: u8,
    /// ED interval count.
    pub k_ed: u8,
    /// Checking period, % of the clock.
    pub c_pct: f64,
    /// Recovered margin, % of the clock.
    pub margin_pct: f64,
    /// Run statistics.
    pub stats: RunStats,
}

/// Sweeps the TB/ED interval split at several checking periods,
/// quantifying the paper's §4 trade-off: more TB intervals defer
/// flagging (fewer slowdowns) but shrink the per-stage margin for the
/// same checking period.
///
/// `threads` is the worker-thread count (`0` = all available cores).
/// Every (c, TB, ED) combination is one entry on the sweep's scheme
/// axis, all sharing identical environments.
pub fn ablation_schedule(cycles: u64, threads: usize) -> Vec<ScheduleAblationRow> {
    let mut grid = Vec::new();
    for c in [12.0, 24.0, 36.0] {
        for (k_tb, k_ed) in [(0u8, 2u8), (1, 1), (1, 2), (2, 1), (2, 2)] {
            let sched = CheckingPeriod::new(PERIOD, c, k_tb, k_ed).expect("valid schedule");
            grid.push((c, k_tb, k_ed, sched));
        }
    }
    let mut spec = SweepSpec::new(SEED, per_trial(cycles), TRIALS)
        .env("droop-5pct", |p| environment(0.05, p.seed))
        .threads(threads);
    for &(c, k_tb, k_ed, sched) in &grid {
        spec = spec.scheme(&format!("c{c}-tb{k_tb}-ed{k_ed}"), move |_| {
            Box::new(CaptureLaw::TimberFf(sched).build(0))
        });
    }
    let result = spec.run();
    grid.iter()
        .enumerate()
        .map(|(i, &(c, k_tb, k_ed, sched))| ScheduleAblationRow {
            k_tb,
            k_ed,
            c_pct: c,
            margin_pct: sched.recovered_margin_pct(),
            stats: result.cell(i, 0).clone(),
        })
        .collect()
}

/// Renders the schedule ablation.
pub fn render_ablation_schedule(rows: &[ScheduleAblationRow]) -> String {
    let mut out =
        String::from("c%   k_tb k_ed margin%  masked  flagged corrupted slowdowns loss%\n");
    for r in rows {
        out.push_str(&format!(
            "{:<4} {:<4} {:<4} {:<8.2} {:<7} {:<7} {:<9} {:<9} {:.4}\n",
            r.c_pct,
            r.k_tb,
            r.k_ed,
            r.margin_pct,
            r.stats.masked,
            r.stats.flagged,
            r.stats.corrupted,
            r.stats.slowdown_episodes,
            100.0 * r.stats.throughput_loss(PERIOD),
        ));
    }
    out
}

// --- droop-depth ablation -----------------------------------------------------

/// One row of the droop-depth ablation.
#[derive(Debug, Clone)]
pub struct DroopAblationRow {
    /// Peak droop derating (0.04 = 4%).
    pub depth: f64,
    /// TIMBER FF statistics.
    pub timber: RunStats,
    /// Conventional flip-flop statistics.
    pub conventional: RunStats,
}

/// Sweeps the droop severity: the conventional design's corruption rate
/// climbs with depth, while TIMBER keeps masking until the violations
/// outgrow the checking period.
///
/// `threads` is the worker-thread count (`0` = all available cores).
/// The droop depths form the sweep's environment axis; both schemes see
/// the same environments at every depth.
pub fn ablation_droop(cycles: u64, threads: usize) -> Vec<DroopAblationRow> {
    const DEPTHS: [f64; 5] = [0.02, 0.04, 0.06, 0.08, 0.10];
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut spec = SweepSpec::new(SEED, per_trial(cycles), TRIALS)
        .scheme("timber-ff", move |_| {
            Box::new(CaptureLaw::TimberFf(sched).build(0))
        })
        .scheme("conventional-ff", |_| {
            Box::new(CaptureLaw::Conventional.build(0))
        })
        .threads(threads);
    for depth in DEPTHS {
        spec = spec.env(&format!("droop-{depth}"), move |p| {
            environment(depth, p.seed)
        });
    }
    let result = spec.run();
    DEPTHS
        .iter()
        .enumerate()
        .map(|(e, &depth)| DroopAblationRow {
            depth,
            timber: result.cell(0, e).clone(),
            conventional: result.cell(1, e).clone(),
        })
        .collect()
}

/// Renders the droop ablation.
pub fn render_ablation_droop(rows: &[DroopAblationRow]) -> String {
    let mut out = String::from(
        "droop%  conventional corrupted   TIMBER masked  TIMBER corrupted  TIMBER loss%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<7.1} {:<23} {:<14} {:<17} {:.4}\n",
            100.0 * r.depth,
            r.conventional.corrupted,
            r.timber.masked,
            r.timber.corrupted,
            100.0 * r.timber.throughput_loss(PERIOD),
        ));
    }
    out
}

// --- metastability ablation -----------------------------------------------------

/// Result of the metastability comparison.
#[derive(Debug, Clone)]
pub struct MetastabilityResult {
    /// Razor without the metastability model.
    pub razor_ideal: RunStats,
    /// Razor paying a 4-cycle resolution penalty in a 20 ps aperture.
    pub razor_meta: RunStats,
    /// TIMBER FF (immune by construction: M1 re-samples the settled
    /// value).
    pub timber: RunStats,
}

/// Compares Razor with and without metastability resolution costs
/// against TIMBER under the same stress (paper §5.1: "TIMBER flip-flop
/// does not suffer from data-path metastability issues"). `threads` is
/// the worker-thread count (`0` = all available cores).
pub fn ablation_metastability(cycles: u64, threads: usize) -> MetastabilityResult {
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let razor = |meta_window, meta_penalty| CaptureLaw::Razor {
        window: sched.checking(),
        meta_window,
        meta_penalty,
    };
    let result = SweepSpec::new(SEED, per_trial(cycles), TRIALS)
        .scheme("razor-ideal", move |p| {
            Box::new(razor(Picos::ZERO, 0).build(p.seed))
        })
        .scheme("razor-meta", move |p| {
            Box::new(razor(Picos(20), 4).build(p.seed))
        })
        .scheme("timber-ff", move |_| {
            Box::new(CaptureLaw::TimberFf(sched).build(0))
        })
        .env("droop-5pct", |p| environment(0.05, p.seed))
        .threads(threads)
        .run();
    MetastabilityResult {
        razor_ideal: result.cell(0, 0).clone(),
        razor_meta: result.cell(1, 0).clone(),
        timber: result.cell(2, 0).clone(),
    }
}

/// Renders the metastability comparison.
pub fn render_metastability(r: &MetastabilityResult) -> String {
    format!(
        "scheme          detected  penalty cycles  IPC\n\
         razor (ideal)   {:<9} {:<15} {:.4}\n\
         razor (meta)    {:<9} {:<15} {:.4}\n\
         timber-ff       {:<9} {:<15} {:.4}   (masked {} instead)\n",
        r.razor_ideal.detected,
        r.razor_ideal.penalty_cycles,
        r.razor_ideal.ipc(),
        r.razor_meta.detected,
        r.razor_meta.penalty_cycles,
        r.razor_meta.ipc(),
        r.timber.detected,
        r.timber.penalty_cycles,
        r.timber.ipc(),
        r.timber.masked,
    )
}

// --- DAG topology ------------------------------------------------------------

/// Result of the reconvergent-topology experiment.
#[derive(Debug, Clone)]
pub struct DagResult {
    /// Diamond topology with the DAG-aware relay.
    pub dag_relay: RunStats,
    /// Diamond topology with conventional flops (no masking).
    pub conventional: RunStats,
}

/// Runs the diamond (reconvergent) topology under stress: the DAG-aware
/// TIMBER relay — max-consolidation over each boundary's real fanin set,
/// the paper's Fig. 4 rule — masks everything the conventional design
/// corrupts.
pub fn ablation_dag(cycles: u64) -> DagResult {
    dag_under(
        cycles,
        PipelineConfig::new(timber_pipeline::Topology::diamond().len(), PERIOD),
    )
}

/// [`ablation_dag`] under an explicit pipeline configuration.
fn dag_under(cycles: u64, config: PipelineConfig) -> DagResult {
    use timber_pipeline::{PipelineSim, Topology};

    let topo = Topology::diamond();
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");

    let run = |scheme: &mut dyn SequentialScheme| {
        let env = environment(0.05, SEED);
        PipelineSim::new(config, scheme, &env.sensitization, &env.variability)
            .on_topology(&topo)
            .run(cycles)
    };
    DagResult {
        dag_relay: run(&mut CaptureLaw::TimberFf(sched).build(0)),
        conventional: run(&mut CaptureLaw::Conventional.build(0)),
    }
}

/// Renders the DAG experiment.
pub fn render_dag(r: &DagResult) -> String {
    format!(
        "diamond topology (0 -> {{1,2}} -> 3), identical stress:\n\
         conventional flops: {} corrupted\n\
         TIMBER DAG relay:   {} masked ({} flagged), {} corrupted, chains {:?}\n",
        r.conventional.corrupted,
        r.dag_relay.masked,
        r.dag_relay.flagged,
        r.dag_relay.corrupted,
        r.dag_relay.chain_histogram,
    )
}

// --- glitch activity --------------------------------------------------------

/// Downstream switching activity of both TIMBER cells under a glitchy
/// data stream.
#[derive(Debug, Clone, Copy)]
pub struct GlitchActivity {
    /// Q-node transitions of the TIMBER flip-flop over the run.
    pub ff_transitions: usize,
    /// Q-node transitions of the TIMBER latch over the run.
    pub latch_transitions: usize,
    /// Input transitions applied.
    pub input_transitions: usize,
}

/// Measures the glitch-propagation cost the paper attributes to the
/// TIMBER latch (§5.2): the latch's slave is transparent for the whole
/// checking period, so input glitches in that window reach Q and burn
/// downstream switching power; the flip-flop's edge-sampled Q stays
/// quiet.
///
/// Both cells see the same data stream: a clean pre-edge value plus a
/// burst of glitches inside each checking period.
pub fn ablation_glitch_activity(cycles: usize) -> GlitchActivity {
    use timber::circuit::{build_timber_ff, build_timber_latch, TimberFfSpec, TimberLatchSpec};
    use timber_wavesim::{Circuit, Logic};

    let period = PERIOD;
    let horizon = period * (cycles as i64 + 2);

    let build_stimulus = |c: &mut Circuit, d: timber_wavesim::SigId| -> usize {
        let mut events = vec![(Picos::ZERO, Logic::Zero)];
        // Per cycle: settle to a stable value before the edge, then two
        // glitch pulses inside the checking period (20..60ps after the
        // edge), returning to the stable value.
        for k in 1..=cycles as i64 {
            let edge = period * k;
            events.push((edge - Picos(200), Logic::One));
            events.push((edge + Picos(20), Logic::Zero));
            events.push((edge + Picos(30), Logic::One));
            events.push((edge + Picos(45), Logic::Zero));
            events.push((edge + Picos(60), Logic::One));
            events.push((edge + Picos(400), Logic::Zero));
        }
        let n = events.len();
        c.stimulus(d, &events);
        n
    };

    // Flip-flop cell.
    let mut c = Circuit::new();
    let clk = c.signal("clk");
    let d = c.signal("d");
    let cell = build_timber_ff(&mut c, "ff", d, clk, &TimberFfSpec::default());
    c.clock(clk, period, horizon);
    c.stimulus(cell.flag_enable, &[(Picos::ZERO, Logic::Zero)]);
    let input_transitions = build_stimulus(&mut c, d);
    c.watch(cell.q);
    let mut sim = c.into_simulator();
    sim.run_until(horizon);
    let ff_transitions = sim
        .waves()
        .trace(cell.q)
        .map(|w| w.samples().len())
        .unwrap_or(0);

    // Latch cell, identical stimulus.
    let mut c = Circuit::new();
    let clk = c.signal("clk");
    let d = c.signal("d");
    let cell = build_timber_latch(&mut c, "latch", d, clk, &TimberLatchSpec::default());
    c.clock(clk, period, horizon);
    let _ = build_stimulus(&mut c, d);
    c.watch(cell.q);
    let mut sim = c.into_simulator();
    sim.run_until(horizon);
    let latch_transitions = sim
        .waves()
        .trace(cell.q)
        .map(|w| w.samples().len())
        .unwrap_or(0);

    GlitchActivity {
        ff_transitions,
        latch_transitions,
        input_transitions,
    }
}

/// Renders the glitch-activity comparison.
pub fn render_glitch(g: &GlitchActivity) -> String {
    format!(
        "input transitions: {}\n\
         TIMBER FF    Q transitions: {}  (edge-sampled: glitches filtered)\n\
         TIMBER latch Q transitions: {}  ({}x the FF — the §5.2 drawback, quantified)\n",
        g.input_transitions,
        g.ff_transitions,
        g.latch_transitions,
        if g.ff_transitions > 0 {
            g.latch_transitions / g.ff_transitions.max(1)
        } else {
            0
        },
    )
}

// --- circuit validation -----------------------------------------------------

/// Summary of the corner-case circuit validation sweeps.
#[derive(Debug, Clone, Copy)]
pub struct ValidationSummary {
    /// Flip-flop cases evaluated.
    pub ff_cases: usize,
    /// Flip-flop disagreements.
    pub ff_disagreements: usize,
    /// Latch cases evaluated.
    pub latch_cases: usize,
    /// Latch disagreements.
    pub latch_disagreements: usize,
}

/// Runs the corner-case validation of both wave-level cells against
/// the behavioural models, over two schedule shapes.
pub fn validation() -> ValidationSummary {
    let mut ff_cases = 0;
    let mut ff_dis = 0;
    let mut latch_cases = 0;
    let mut latch_dis = 0;
    for sched in [
        CheckingPeriod::new(PERIOD, 12.0, 1, 2).expect("valid"),
        CheckingPeriod::new(PERIOD, 30.0, 2, 1).expect("valid"),
    ] {
        let sweep = timber::validate::standard_sweep(&sched, 10);
        let ff = validate_flipflop(&sched, sweep.iter().copied());
        ff_cases += ff.len();
        ff_dis += ff.disagreements().len();
        let latch = validate_latch(&sched, sweep);
        latch_cases += latch.len();
        latch_dis += latch.disagreements().len();
    }
    ValidationSummary {
        ff_cases,
        ff_disagreements: ff_dis,
        latch_cases,
        latch_disagreements: latch_dis,
    }
}

/// Renders the validation summary.
pub fn render_validation(v: &ValidationSummary) -> String {
    format!(
        "TIMBER flip-flop: {} corner cases, {} disagreements\n\
         TIMBER latch:     {} corner cases, {} disagreements\n",
        v.ff_cases, v.ff_disagreements, v.latch_cases, v.latch_disagreements
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_ablation_shows_flagging_tradeoff() {
        let rows = ablation_schedule(12_000, 0);
        assert_eq!(rows.len(), 15);
        // At a fixed c, more TB intervals => margin shrinks.
        let at = |c: f64, tb: u8, ed: u8| {
            rows.iter()
                .find(|r| r.c_pct == c && r.k_tb == tb && r.k_ed == ed)
                .expect("row")
        };
        assert!(at(24.0, 0, 2).margin_pct > at(24.0, 1, 2).margin_pct);
        // Deferred flagging slows down less often than immediate.
        assert!(at(24.0, 1, 2).stats.slowdown_episodes <= at(24.0, 0, 2).stats.slowdown_episodes);
        assert!(!render_ablation_schedule(&rows).is_empty());
    }

    #[test]
    fn droop_ablation_shows_monotone_corruption() {
        let rows = ablation_droop(20_000, 0);
        assert_eq!(rows.len(), 5);
        // Conventional corruption grows (weakly) with droop depth.
        assert!(
            rows.last().unwrap().conventional.corrupted
                >= rows.first().unwrap().conventional.corrupted
        );
        // TIMBER masks at mild depths.
        assert_eq!(rows[0].timber.corrupted, 0);
        assert_eq!(rows[1].timber.corrupted, 0);
        assert!(!render_ablation_droop(&rows).is_empty());
    }

    #[test]
    fn metastability_costs_razor_but_not_timber() {
        let r = ablation_metastability(25_000, 0);
        assert!(r.razor_meta.penalty_cycles >= r.razor_ideal.penalty_cycles);
        assert_eq!(r.timber.detected, 0);
        assert_eq!(r.timber.penalty_cycles, 0);
        assert!(!render_metastability(&r).is_empty());
    }

    #[test]
    fn dag_relay_masks_what_conventional_corrupts() {
        let r = ablation_dag(40_000);
        assert!(r.conventional.corrupted > 0, "stress must bite");
        assert_eq!(r.dag_relay.corrupted, 0, "{:?}", r.dag_relay);
        assert!(r.dag_relay.masked > 0);
        assert!(!render_dag(&r).is_empty());
        // With the throttle's slowdown off, both runs keep the nominal
        // clock, so every stage-cycle that corrupts a conventional flop
        // (its delay alone is late) is late for TIMBER too, whose
        // arrivals only add a borrow: each one must be masked. With the
        // throttle on, a flag slows the clock and some never happen.
        let mut config = PipelineConfig::new(4, PERIOD);
        config.slowdown_factor = 0.0;
        let same_clock = dag_under(40_000, config);
        assert_eq!(same_clock.conventional, r.conventional);
        assert_eq!(same_clock.dag_relay.corrupted, 0);
        assert!(same_clock.dag_relay.masked >= same_clock.conventional.corrupted);
    }

    #[test]
    fn latch_propagates_more_glitches_than_ff() {
        let g = ablation_glitch_activity(20);
        assert!(g.input_transitions > 0);
        assert!(
            g.latch_transitions > 2 * g.ff_transitions,
            "latch {} vs ff {}",
            g.latch_transitions,
            g.ff_transitions
        );
        assert!(!render_glitch(&g).is_empty());
    }

    #[test]
    fn validation_sweeps_agree_everywhere() {
        let v = validation();
        assert!(v.ff_cases > 50);
        assert!(v.latch_cases > 20);
        assert_eq!(v.ff_disagreements, 0);
        assert_eq!(v.latch_disagreements, 0);
    }
}
