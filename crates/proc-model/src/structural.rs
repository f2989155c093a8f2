//! Structural cross-validation: real netlists whose measured path
//! distributions qualitatively reproduce the Fig. 1 shape.
//!
//! The statistical [`crate::ProcessorModel`] matches the published
//! marginals by construction; this module checks the *mechanism* from
//! the bottom up: a lane-structured pipeline netlist is generated with
//! `timber-netlist` and analysed with real STA, and the same endpoint
//! statistics emerge — more aggressive clocking makes more flops
//! critical enders, and only the subset sitting on *persistently deep
//! lanes* also starts critical paths.
//!
//! ## Lane construction
//!
//! Real datapaths have per-bit "lanes" whose logic depth is correlated
//! across pipeline stages (a multiplier's middle bits are deep in every
//! stage they traverse). The generator gives each lane a persistent
//! depth factor; per stage, the lane's chain depth is that factor times
//! a small jitter, and lanes are cross-coupled with mixing gates. A
//! flop on a deep lane then *ends* a deep path (from the previous
//! stage's chain) and *starts* one (into the next stage's chain) —
//! exactly the start-and-end population TIMBER's error relay must
//! serve.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timber_netlist::{CellLibrary, NetId, Netlist, NetlistBuilder, Picos};
use timber_sta::{ClockConstraint, PathDistribution, TimingAnalysis};

use crate::calibration::PerfPoint;

/// Number of bit lanes in the proxy.
const LANES: usize = 24;
/// Number of pipeline stages.
const STAGES: usize = 5;
/// Maximum chain depth (gates) of the deepest lane.
const MAX_DEPTH: usize = 28;

/// Builds the structural proxy netlist.
///
/// All performance points share this structure (the performance point
/// only selects the clock, like speed-binning the same silicon).
///
/// # Panics
///
/// Panics only on internal generator bugs (construction with the
/// standard library cannot fail).
pub fn proxy_netlist(seed: u64) -> Netlist {
    let lib = CellLibrary::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("proc_proxy_{seed}"), &lib);

    // Persistent lane depth factors: a few deep lanes, a long tail of
    // shallow ones (squaring a uniform biases toward shallow).
    let lane_factor: Vec<f64> = (0..LANES)
        .map(|_| {
            let u: f64 = rng.gen_range(0.25..1.0);
            u.sqrt()
        })
        .collect();

    // Input register bank.
    let mut bank: Vec<NetId> = (0..LANES)
        .map(|i| {
            let pi = b.input(&format!("in{i}"));
            b.flop(&format!("r0_{i}"), pi)
        })
        .collect();

    let gate_menu = ["nand2", "nor2", "and2", "or2", "xor2"];
    for stage in 0..STAGES {
        let mut next = Vec::with_capacity(LANES);
        for lane in 0..LANES {
            let jitter: f64 = rng.gen_range(0.85..1.15);
            let depth = ((MAX_DEPTH as f64) * lane_factor[lane] * jitter).round() as usize;
            let depth = depth.max(2);
            // Chain starts from this lane's own bank flop so a deep
            // lane's flop *starts* a deep path.
            let mut node = bank[lane];
            for g in 0..depth {
                let cell = gate_menu[rng.gen_range(0..gate_menu.len())];
                // Mix in another lane's (shallow prefix) signal to add
                // reconvergence without deepening other lanes.
                let other = bank[rng.gen_range(0..LANES)];
                let _ = g;
                node = b.gate(cell, &[node, other]).expect("standard cells");
            }
            next.push(b.flop(&format!("r{}_{lane}", stage + 1), node));
        }
        bank = next;
    }
    for (i, &q) in bank.iter().enumerate() {
        b.output(&format!("out{i}"), q);
    }
    b.finish().expect("generated netlist is well-formed")
}

/// Clock period for a proxy netlist at a performance point: the
/// critical delay divided by the point's critical fraction, so that the
/// worst path sits at exactly that fraction of the period.
pub fn proxy_period(netlist: &Netlist, perf: PerfPoint) -> Picos {
    let sta = TimingAnalysis::run(netlist, &ClockConstraint::with_period(Picos(1_000_000)));
    sta.worst_arrival().scale(1.0 / perf.critical_fraction())
}

/// Measures the Fig. 1-style distribution of a proxy netlist at a
/// performance point.
pub fn measure_distribution(
    netlist: &Netlist,
    perf: PerfPoint,
    thresholds_pct: &[f64],
) -> timber_sta::PathDistribution {
    let period = proxy_period(netlist, perf);
    let sta = TimingAnalysis::run(netlist, &ClockConstraint::with_period(period));
    PathDistribution::measure(&sta, thresholds_pct)
}

/// Derives per-stage sensitization profiles for the pipeline simulator
/// straight from the structural netlist: for each register bank
/// `r{stage}_*`, the critical/near-critical/typical delays are the
/// max / 90th-percentile / median STA arrivals at that bank's D pins.
///
/// This closes the loop between the gate-level substrate and the
/// architectural simulator: the same netlist that produced the Fig. 1
/// statistics drives the error-rate experiments.
///
/// # Panics
///
/// Panics if the netlist does not follow the proxy's `r{stage}_{lane}`
/// flop naming.
pub fn stage_profiles_from_netlist(
    netlist: &Netlist,
    perf: PerfPoint,
) -> Vec<timber_variability::StagePathProfile> {
    let period = proxy_period(netlist, perf);
    let sta = TimingAnalysis::run(netlist, &ClockConstraint::with_period(period));
    let mut profiles = Vec::new();
    for stage in 1.. {
        let prefix = format!("r{stage}_");
        let mut arrivals: Vec<Picos> = netlist
            .flop_ids()
            .filter(|&f| netlist.flop(f).name().starts_with(&prefix))
            .map(|f| sta.arrival(netlist.flop(f).d()))
            .collect();
        if arrivals.is_empty() {
            break;
        }
        arrivals.sort();
        let pick = |q: f64| arrivals[((arrivals.len() - 1) as f64 * q) as usize];
        let critical = *arrivals.last().expect("non-empty");
        let near = pick(0.90).min(critical);
        let typical = pick(0.50).min(near);
        profiles.push(timber_variability::StagePathProfile {
            critical,
            near_critical: near,
            typical,
            p_critical: 1e-3,
            p_near: 1e-2,
        });
    }
    assert!(
        !profiles.is_empty(),
        "netlist must use the proxy's r{{stage}}_{{lane}} naming"
    );
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;

    const THRESHOLDS: [f64; 4] = [10.0, 20.0, 30.0, 40.0];

    #[test]
    fn higher_performance_has_more_critical_enders() {
        let nl = proxy_netlist(21);
        let low = measure_distribution(&nl, PerfPoint::Low, &THRESHOLDS);
        let high = measure_distribution(&nl, PerfPoint::High, &THRESHOLDS);
        for (l, h) in low.rows.iter().zip(high.rows.iter()) {
            assert!(
                h.frac_ending >= l.frac_ending,
                "high perf must have >= enders at c={}: {} vs {}",
                l.threshold_pct,
                h.frac_ending,
                l.frac_ending
            );
        }
    }

    #[test]
    fn deep_lanes_produce_start_and_end_flops() {
        let nl = proxy_netlist(21);
        let d = measure_distribution(&nl, PerfPoint::High, &THRESHOLDS);
        // At the widest threshold, persistent deep lanes must show up
        // as flops that both start and end critical paths.
        assert!(
            d.rows[3].frac_start_and_end > 0.0,
            "lane correlation must create start-and-end flops: {:?}",
            d.rows
        );
    }

    #[test]
    fn start_and_end_subset_is_proper() {
        let nl = proxy_netlist(21);
        for perf in PerfPoint::ALL {
            let d = measure_distribution(&nl, perf, &THRESHOLDS);
            for row in &d.rows {
                assert!(row.frac_start_and_end <= row.frac_ending + 1e-12);
            }
            // At the 20% threshold a strict majority of enders should
            // not also be starters (the paper's motivating fact).
            let r20 = &d.rows[1];
            if r20.frac_ending > 0.0 {
                assert!(
                    r20.frac_start_and_end / r20.frac_ending < 0.9,
                    "at {perf}: both/end = {}",
                    r20.frac_start_and_end / r20.frac_ending
                );
            }
        }
    }

    #[test]
    fn distribution_monotone_in_threshold() {
        let nl = proxy_netlist(33);
        let d = measure_distribution(&nl, PerfPoint::Medium, &THRESHOLDS);
        for w in d.rows.windows(2) {
            assert!(w[1].frac_ending >= w[0].frac_ending);
            assert!(w[1].frac_start_and_end >= w[0].frac_start_and_end);
        }
    }

    #[test]
    fn proxy_period_realises_critical_fraction() {
        let nl = proxy_netlist(21);
        let period = proxy_period(&nl, PerfPoint::Medium);
        let sta = TimingAnalysis::run(&nl, &ClockConstraint::with_period(period));
        let frac = sta.worst_arrival().ratio(period);
        assert!((frac - 0.92).abs() < 0.01, "critical fraction {frac}");
    }

    #[test]
    fn stage_profiles_follow_bank_structure() {
        let nl = proxy_netlist(21);
        let profiles = stage_profiles_from_netlist(&nl, PerfPoint::High);
        // The proxy has 5 stages of register banks.
        assert_eq!(profiles.len(), 5);
        for p in &profiles {
            p.validate();
            assert!(p.critical > Picos::ZERO);
            // The high performance point pins the design-wide critical
            // path at 97% of the period; each stage's own critical sits
            // at or below that.
            let period = proxy_period(&nl, PerfPoint::High);
            assert!(p.critical <= period.scale(0.98));
        }
        // The profiles are usable by the pipeline simulator.
        use timber_pipeline::{PipelineConfig, PipelineSim};
        let period = proxy_period(&nl, PerfPoint::High);
        let sens = timber_variability::SensitizationModel::new(profiles, 9);
        let var = timber_variability::CompositeVariability::nominal();
        let mut scheme = timber_pipeline::reference::MarginedFlop::new();
        let stats =
            PipelineSim::new(PipelineConfig::new(5, period), &mut scheme, &sens, &var).run(5_000);
        assert_eq!(
            stats.corrupted, 0,
            "nominal run at the binned period is safe"
        );
    }

    #[test]
    fn proxy_is_seed_deterministic() {
        let a = proxy_netlist(5);
        let b = proxy_netlist(5);
        assert_eq!(a.instance_count(), b.instance_count());
        assert_eq!(a.flop_count(), b.flop_count());
        let c = proxy_netlist(6);
        assert_ne!(a.instance_count(), c.instance_count());
    }
}
