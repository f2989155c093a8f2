//! Cross-crate property-based tests (proptest): invariants that must
//! hold for *any* configuration, not just the hand-picked ones.

use proptest::prelude::*;

use timber_repro::core::{CaptureOutcome, CheckingPeriod, TimberFlipFlop, TimberLatch};
use timber_repro::netlist::{random_dag, CellLibrary, Picos, RandomDagSpec};
use timber_repro::sta::{ClockConstraint, PathQuery, TimingAnalysis};

proptest! {
    /// For any valid schedule, margin × k == checking period (up to
    /// integer division) and the interval kinds are TB-before-ED.
    #[test]
    fn schedule_invariants(
        period in 200i64..5_000,
        c in 1.0f64..50.0,
        k_tb in 0u8..3,
        k_ed in 1u8..3,
    ) {
        let s = CheckingPeriod::new(Picos(period), c, k_tb, k_ed).unwrap();
        let k = (k_tb + k_ed) as i64;
        // interval = checking / k exactly (integer division).
        prop_assert_eq!(s.interval(), s.checking() / k);
        // TB intervals strictly precede ED intervals.
        let kinds = s.intervals();
        let first_ed = kinds.iter().position(|x| *x == timber_repro::core::IntervalKind::ErrorDetect);
        if let Some(i) = first_ed {
            prop_assert!(kinds[i..].iter().all(|x| *x == timber_repro::core::IntervalKind::ErrorDetect));
        }
        prop_assert_eq!(kinds.len() as u8, s.k());
        // The checking period never crosses the falling edge.
        prop_assert!(s.checking() <= Picos(period) / 2);
    }

    /// The TIMBER flip-flop's outcomes partition the arrival axis:
    /// OnTime up to the edge, Masked for overshoot ≤ δ, Escaped beyond.
    #[test]
    fn flipflop_outcome_partition(
        overshoot in -500i64..500,
        select in 0u8..3,
    ) {
        let period = Picos(1000);
        let s = CheckingPeriod::new(period, 12.0, 1, 2).unwrap();
        let mut ff = TimberFlipFlop::new(s);
        ff.set_select(select);
        let delta = ff.sampling_delay();
        let arrival = period + Picos(overshoot);
        match ff.capture(arrival, period) {
            CaptureOutcome::OnTime => prop_assert!(overshoot <= 0),
            CaptureOutcome::Masked { borrowed, units, .. } => {
                prop_assert!(overshoot > 0);
                prop_assert!(Picos(overshoot) <= delta);
                // Discrete borrowing: always whole units.
                prop_assert_eq!(borrowed, s.interval() * (select as i64 + 1));
                prop_assert_eq!(units, select + 1);
            }
            CaptureOutcome::Escaped { overshoot: esc } => {
                prop_assert!(Picos(overshoot) > delta);
                prop_assert_eq!(esc, Picos(overshoot) - delta);
            }
        }
    }

    /// The TIMBER latch borrows exactly the violation (continuous), and
    /// flags exactly when the violation exceeds the TB window.
    #[test]
    fn latch_borrowing_is_continuous(overshoot in 1i64..500) {
        let period = Picos(1000);
        let s = CheckingPeriod::new(period, 24.0, 1, 2).unwrap();
        let mut latch = TimberLatch::new(s);
        match latch.capture(period + Picos(overshoot), period) {
            CaptureOutcome::Masked { borrowed, flagged, .. } => {
                prop_assert_eq!(borrowed, Picos(overshoot));
                prop_assert_eq!(flagged, Picos(overshoot) > latch.tb_window());
                prop_assert!(Picos(overshoot) <= latch.checking_window());
            }
            CaptureOutcome::Escaped { .. } => {
                prop_assert!(Picos(overshoot) > latch.checking_window());
            }
            CaptureOutcome::OnTime => prop_assert!(false, "overshoot > 0 cannot be on time"),
        }
    }

    /// For any generated netlist, path enumeration returns paths in
    /// non-increasing delay order, the head equals the STA worst
    /// arrival, and every reported delay is consistent with re-summing
    /// its arcs.
    #[test]
    fn path_enumeration_is_sound(seed in 0u64..50) {
        let lib = CellLibrary::standard();
        let nl = random_dag(&lib, &RandomDagSpec {
            inputs: 8,
            outputs: 8,
            gates: 120,
            depth_bias: 0.6,
            seed,
        }).unwrap();
        let clk = ClockConstraint::with_period(Picos(2000));
        let sta = TimingAnalysis::run(&nl, &clk);
        let paths = timber_repro::sta::paths::enumerate_paths(&sta, &PathQuery {
            max_paths: 30,
            min_delay: Picos::MIN,
        });
        prop_assert!(!paths.is_empty());
        // Note: compare against the worst *endpoint* path, not
        // `worst_arrival()` — random DAGs contain dead-end internal
        // nets deeper than any registered output.
        prop_assert_eq!(paths[0].delay, sta.worst_path().delay);
        for w in paths.windows(2) {
            prop_assert!(w[0].delay >= w[1].delay);
        }
        for p in &paths {
            // Re-sum each path's arcs and check the reported delay lies
            // within the min/max-pin bounds (a gate may be fed the same
            // net on two pins with different arc delays, so an exact
            // single re-summation is not always well-defined).
            use timber_repro::netlist::Driver;
            use timber_repro::sta::paths::PathStart;
            let start_arr = match p.start {
                PathStart::PrimaryInput(_) => Picos::ZERO,
                PathStart::FlopQ(_) => clk.clk_to_q,
            };
            let (mut lo, mut hi) = (start_arr, start_arr);
            for w in p.nets.windows(2) {
                let (from, to) = (w[0], w[1]);
                if let Some(Driver::Instance(inst)) = nl.net(to).driver() {
                    let arcs: Vec<Picos> = nl
                        .instance(inst)
                        .inputs()
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n == from)
                        .map(|(pin, _)| sta.arc_delay(inst, pin))
                        .collect();
                    prop_assert!(!arcs.is_empty(), "path step must follow a real arc");
                    lo += arcs.iter().copied().fold(Picos::MAX, Picos::min);
                    hi += arcs.iter().copied().fold(Picos::MIN, Picos::max);
                }
            }
            prop_assert!(p.delay >= lo && p.delay <= hi,
                "path delay {} outside re-summed bounds [{}, {}]", p.delay, lo, hi);
        }
    }

    /// Telemetry counters must equal the sweep's own `RunStats`
    /// aggregates for the same seed, for every implemented scheme: the
    /// instrumentation observes the pipeline, it never re-derives it.
    #[test]
    fn telemetry_counters_match_stats_for_every_scheme(seed in 0u64..1000) {
        use timber_repro::pipeline::{Environment, PipelineConfig, SweepSpec};
        use timber_repro::schemes::{Registry, SchemeId};
        use timber_repro::telemetry::Counter;
        use timber_repro::variability::{SensitizationModel, VariabilityBuilder};

        let period = Picos(1000);
        let sched = CheckingPeriod::deferred_flagging(period, 24.0).unwrap();
        let registry = Registry::new(sched);
        let mut spec = SweepSpec::new(seed, 4_000, 2)
            .env("stress", move |p| Environment {
                config: PipelineConfig::new(4, period),
                sensitization: SensitizationModel::uniform(4, Picos(970), p.seed),
                variability: VariabilityBuilder::new(p.seed)
                    .voltage_droop(0.06, 400, 1500.0)
                    .local_jitter(0.01)
                    .build(),
            })
            .threads(2);
        for id in SchemeId::ALL {
            spec = spec.scheme(id.name(), move |p| Box::new(registry.build(id, p.seed)));
        }
        let (result, recorders) = spec.run_with_telemetry(64);
        prop_assert_eq!(recorders.len(), SchemeId::ALL.len());
        for (i, rec) in recorders.iter().enumerate() {
            let cell = result.cell(i, 0);
            let name = SchemeId::ALL[i].name();
            prop_assert_eq!(rec.counter(Counter::Cycles), cell.cycles, "{}: cycles", name);
            prop_assert_eq!(rec.counter(Counter::Masked), cell.masked, "{}: masked", name);
            prop_assert_eq!(rec.counter(Counter::Flagged), cell.flagged, "{}: flagged", name);
            prop_assert_eq!(rec.counter(Counter::Detected), cell.detected, "{}: detected", name);
            prop_assert_eq!(rec.counter(Counter::Predicted), cell.predicted, "{}: predicted", name);
            prop_assert_eq!(rec.counter(Counter::Corrupted), cell.corrupted, "{}: corrupted", name);
            prop_assert_eq!(rec.counter(Counter::PenaltyCycles), cell.penalty_cycles, "{}: penalty", name);
            prop_assert_eq!(rec.counter(Counter::SlowCycles), cell.slow_cycles, "{}: slow", name);
            prop_assert_eq!(rec.counter(Counter::ThrottleEpisodes), cell.slowdown_episodes, "{}: episodes", name);
        }
    }

    /// Distribution fractions measured on any processor model are
    /// monotone in the threshold and `both ⊆ ending`.
    #[test]
    fn processor_distribution_invariants(seed in 0u64..20) {
        use timber_repro::proc_model::{PerfPoint, ProcessorModel};
        let m = ProcessorModel::generate(PerfPoint::High, 2_000, Picos(1000), seed);
        let rows = m.distribution(&[10.0, 20.0, 30.0, 40.0]);
        for w in rows.windows(2) {
            prop_assert!(w[1].frac_ending >= w[0].frac_ending);
            prop_assert!(w[1].frac_start_and_end >= w[0].frac_start_and_end);
        }
        for r in rows {
            prop_assert!(r.frac_start_and_end <= r.frac_ending + 1e-12);
        }
    }
}
