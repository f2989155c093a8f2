//! The design tier: compiling a request's netlist into the reusable
//! evaluation artifact, and running trials against it.
//!
//! A compile has two halves. Everything that depends only on the
//! [`DesignId`] — generator netlist, full STA, the guard-banded raw
//! period, the sensitization profiles and the min-delay (hold)
//! analysis — is built once per design per process. A process-wide
//! table keeps only what the tail reads: the raw period, the profiles,
//! the flop and net counts, and the min arrival at each flop-D
//! endpoint; the netlist and the per-net analyses are dropped. Only
//! the schedule-dependent tail runs per [`compile`]: snapping the
//! period to the schedule, building the [`CheckingPeriod`], and the
//! padding its checking period forces (every short path must reach
//! `hold + checking period`, paper §4). The tail is exact because hold
//! min-arrivals depend only on `clk_to_q` and `hold`, never on the
//! clock period. So only a compile for a design this process has
//! already built is cheap; the first compile of each design still pays
//! the whole build.
//!
//! The [`CompiledDesign`] depends only on the fields in
//! [`crate::spec::EvalSpec::design_canonical`], so the engine caches it
//! separately from results: two requests sweeping schemes over the same
//! design share one compile.
//!
//! Evaluation ([`evaluate`]) then mirrors the soak harness's trial
//! shape — registry-built scheme, STA-derived sensitization profiles,
//! storm or nominal stress, escalation governor — and reduces the
//! trials (in canonical trial order) to one id-independent response
//! body. Determinism: the body is a pure function of the spec, which is
//! exactly what makes content-addressed caching sound.

use std::sync::OnceLock;

use timber::CheckingPeriod;
use timber_lint::{snap_period, ScheduleSpec};
use timber_netlist::{
    alu, array_multiplier, kogge_stone_adder, pipelined_datapath, random_dag, ripple_carry_adder,
    CellLibrary, DatapathSpec, Netlist, Picos, RandomDagSpec, Sink,
};
use timber_pipeline::{GovernorConfig, PipelineConfig, PipelineSim, RunStats};
use timber_proc::structural::{proxy_netlist, stage_profiles_from_netlist};
use timber_proc::PerfPoint;
use timber_schemes::Registry;
use timber_sta::{ClockConstraint, HoldAnalysis, TimingAnalysis};
use timber_variability::{splitmix64, SensitizationModel, StagePathProfile, VariabilityBuilder};

use crate::spec::{DesignId, EvalSpec};

/// Stage-boundary count for the generator designs (the proc proxy
/// carries its own bank structure).
const STAGES: usize = 4;

/// The seed the structural processor proxy is pinned at — the same
/// netlist the lint gate ships.
const PROC_SEED: u64 = 11;

/// The product of a compile: one design at one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDesign {
    /// Which design this artifact serves.
    pub design: DesignId,
    /// Snapped clock period (checking period quantises exactly).
    pub period: Picos,
    /// The interval schedule at that period.
    pub schedule: CheckingPeriod,
    /// Per-stage sensitization profiles derived from the netlist's STA
    /// arrival distribution.
    pub profiles: Vec<StagePathProfile>,
    /// Hold-padding plan summary: required min-delay floor.
    pub padding_floor: Picos,
    /// Endpoints the plan must pad.
    pub padding_endpoints: usize,
    /// Total inserted delay across all padded endpoints.
    pub padding_total: Picos,
    /// Flop count of the compiled netlist.
    pub flops: usize,
    /// Net count of the compiled netlist.
    pub nets: usize,
}

fn generator_netlist(design: DesignId) -> Netlist {
    let lib = CellLibrary::standard();
    match design {
        DesignId::Rca16 => ripple_carry_adder(&lib, 16).expect("generator"),
        DesignId::Ks16 => kogge_stone_adder(&lib, 16).expect("generator"),
        DesignId::Mul8 => array_multiplier(&lib, 8).expect("generator"),
        DesignId::Alu8 => alu(&lib, 8).expect("generator"),
        DesignId::RandomDag => random_dag(&lib, &RandomDagSpec::default()).expect("generator"),
        DesignId::Datapath => pipelined_datapath(&lib, &DatapathSpec::uniform(4, 12, 150, 0.7, 17))
            .expect("generator"),
        DesignId::Proc => proxy_netlist(PROC_SEED),
        DesignId::Poison => unreachable!("poison never reaches the generator"),
    }
}

/// Profiles for a generator design: critical / 90th-percentile / median
/// of the STA arrivals at flop D pins, replicated across the pipeline
/// stages (flop-free combinational designs fall back to the worst
/// primary-output arrival).
fn quantile_profiles(netlist: &Netlist, sta: &TimingAnalysis<'_>) -> Vec<StagePathProfile> {
    let mut arrivals: Vec<Picos> = netlist
        .flop_ids()
        .map(|f| sta.arrival(netlist.flop(f).d()))
        .filter(|&a| a > Picos::ZERO && a < Picos::MAX)
        .collect();
    let profile = if arrivals.is_empty() {
        StagePathProfile::from_critical(sta.worst_arrival())
    } else {
        arrivals.sort();
        let pick = |q: f64| arrivals[((arrivals.len() - 1) as f64 * q) as usize];
        let critical = *arrivals.last().expect("non-empty");
        let near = pick(0.90).min(critical);
        let typical = pick(0.50).min(near);
        StagePathProfile {
            critical,
            near_critical: near,
            typical,
            p_critical: 1e-3,
            p_near: 1e-2,
        }
    };
    vec![profile; STAGES]
}

/// The schedule-independent half of a compile, built once per design.
///
/// It keeps only what the schedule tail reads: no netlist and no
/// per-net analysis, just the min arrival at each reachable flop-D
/// endpoint — all a padding plan needs.
struct DesignBase {
    /// The design's critical path with a 5% guard band plus setup,
    /// before snapping to a schedule.
    raw_period: Picos,
    profiles: Vec<StagePathProfile>,
    /// Hold time of the analysis clock.
    hold: Picos,
    /// Min arrival at every reachable flop-D endpoint, one entry per
    /// endpoint in [`HoldAnalysis::padding_plan`]'s order. Min
    /// arrivals are period-independent, so one list serves every
    /// checking period.
    endpoint_arrivals: Vec<Picos>,
    flops: usize,
    nets: usize,
}

impl DesignBase {
    fn build(design: DesignId) -> DesignBase {
        let netlist = generator_netlist(design);
        let clock = ClockConstraint::with_period(Picos(1_000_000));
        let sta = TimingAnalysis::run(&netlist, &clock);
        let profiles = if design == DesignId::Proc {
            stage_profiles_from_netlist(&netlist, PerfPoint::High)
        } else {
            quantile_profiles(&netlist, &sta)
        };
        let hold = HoldAnalysis::run(&netlist, &clock);
        let endpoint_arrivals = netlist
            .net_ids()
            .map(|net| (net, hold.min_arrival(net)))
            .filter(|&(_, arrival)| arrival != Picos::MAX)
            .flat_map(|(net, arrival)| {
                netlist
                    .net(net)
                    .fanout()
                    .iter()
                    .filter(|sink| matches!(sink, Sink::FlopD(_)))
                    .map(move |_| arrival)
            })
            .collect();
        DesignBase {
            // Same period derivation as the lint gate.
            raw_period: sta.worst_arrival().scale(1.05) + Picos(30),
            profiles,
            hold: clock.hold,
            endpoint_arrivals,
            flops: netlist.flop_ids().count(),
            nets: netlist.net_ids().count(),
        }
    }

    /// The padding plan's floor, padded-endpoint count and total
    /// padding for a checking period — the summary
    /// [`HoldAnalysis::padding_plan`] would give on the full netlist.
    fn padding(&self, checking: Picos) -> (Picos, usize, Picos) {
        let floor = self.hold + checking;
        let (endpoints, total) = self
            .endpoint_arrivals
            .iter()
            .filter(|&&arrival| arrival < floor)
            .fold((0, Picos::ZERO), |(n, total), &arrival| {
                (n + 1, total + (floor - arrival))
            });
        (floor, endpoints, total)
    }

    /// The process-wide base for an evaluable design, built on first
    /// use. Slots follow declaration order; `Poison`, the last variant,
    /// never gets here.
    fn get(design: DesignId) -> &'static DesignBase {
        static BASES: [OnceLock<DesignBase>; DesignId::EVALUABLE.len()] =
            [const { OnceLock::new() }; DesignId::EVALUABLE.len()];
        BASES[design as usize].get_or_init(|| DesignBase::build(design))
    }
}

/// Compiles a spec's design tier: the design's shared base (generator,
/// STA, profiles, hold analysis), then the schedule tail — snapped
/// period → schedule → hold padding plan.
///
/// # Panics
///
/// Panics for [`DesignId::Poison`] — by contract, so the engine's
/// `catch_unwind` + quarantine path is exercised end to end (the serve
/// analogue of `repro soak --inject-panic`). Also panics on internal
/// contract violations (spec validation already bounds every schedule
/// parameter).
pub fn compile(spec: &EvalSpec) -> CompiledDesign {
    if spec.design == DesignId::Poison {
        panic!("poison design: compile fails by contract");
    }
    let base = DesignBase::get(spec.design);
    let schedule_spec = ScheduleSpec {
        checking_pct: spec.checking_pct,
        k_tb: spec.k_tb,
        k_ed: spec.k_ed,
        relay_increment: 1,
    };
    // Snapped so the checking period quantises exactly onto the k
    // intervals.
    let period = snap_period(base.raw_period, &schedule_spec);
    let schedule = CheckingPeriod::new(period, spec.checking_pct, spec.k_tb, spec.k_ed)
        .expect("snapped period admits the validated schedule");
    let (padding_floor, padding_endpoints, padding_total) = base.padding(schedule.checking());
    CompiledDesign {
        design: spec.design,
        period,
        schedule,
        profiles: base.profiles.clone(),
        padding_floor,
        padding_endpoints,
        padding_total,
        flops: base.flops,
        nets: base.nets,
    }
}

/// Runs the spec's trials against a compiled design and reduces them to
/// the id-independent response body. Trial seeds derive from the base
/// seed via `splitmix64(seed, trial)`; merging happens in trial order,
/// so the body is byte-identical however the batch was scheduled.
pub fn evaluate(compiled: &CompiledDesign, spec: &EvalSpec) -> String {
    let stages = compiled.profiles.len();
    let registry = Registry::new(compiled.schedule);
    let mut totals = RunStats::default();
    for trial in 0..spec.trials {
        let seed = splitmix64(spec.seed, trial as u64);
        let mut scheme = registry.build(spec.scheme, seed);
        let sens = SensitizationModel::new(compiled.profiles.clone(), seed ^ 0x5EED);
        let var = match spec.storm {
            Some(storm) => storm.build(stages, seed),
            // Nominal stress: mild droop plus fast local jitter.
            None => VariabilityBuilder::new(seed)
                .voltage_droop(0.05, 500, 2000.0)
                .local_jitter(0.005)
                .build(),
        };
        let mut config = PipelineConfig::new(stages, compiled.period);
        config.governor = Some(GovernorConfig::default());
        let stats = PipelineSim::new(config, &mut scheme, &sens, &var).run(spec.cycles);
        totals.merge(&stats);
    }
    format!(
        "\"status\":\"ok\",\"key\":\"{}\",\"design\":\"{}\",\"scheme\":\"{}\",\"storm\":\"{}\",\
         \"period_ps\":{},\"checking_ps\":{},\
         \"padding\":{{\"floor_ps\":{},\"endpoints\":{},\"total_ps\":{}}},\
         \"netlist\":{{\"flops\":{},\"nets\":{}}},\
         \"trials\":{},\"cycles\":{},\"seed\":{},\"totals\":{{{}}}",
        spec.key(),
        spec.design.name(),
        spec.scheme.name(),
        spec.storm_name(),
        compiled.period.as_ps(),
        compiled.schedule.checking().as_ps(),
        compiled.padding_floor.as_ps(),
        compiled.padding_endpoints,
        compiled.padding_total.as_ps(),
        compiled.flops,
        compiled.nets,
        spec.trials,
        spec.cycles,
        spec.seed,
        totals.totals_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber_resilience::StormScenario;

    #[test]
    fn every_evaluable_design_compiles() {
        for design in DesignId::EVALUABLE {
            let spec = EvalSpec::defaults(design);
            let c = compile(&spec);
            assert!(c.period > Picos::ZERO, "{design:?}");
            assert!(!c.profiles.is_empty(), "{design:?}");
            for p in &c.profiles {
                p.validate();
            }
            // The snapped schedule must quantise exactly.
            assert_eq!(
                c.schedule.checking().as_ps() % i64::from(spec.k_tb + spec.k_ed),
                0,
                "{design:?}"
            );
        }
    }

    fn panic_message(spec: &EvalSpec) -> String {
        let err = std::panic::catch_unwind(|| compile(spec)).unwrap_err();
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn poison_design_panics_by_contract() {
        let msg = panic_message(&EvalSpec::defaults(DesignId::Poison));
        assert!(msg.contains("poison"), "{msg}");
    }

    /// The whole compile rebuilt from scratch for one spec: generator →
    /// STA → snapped period → hold analysis at that period → padding
    /// plan, with nothing shared across calls.
    fn compile_from_scratch(spec: &EvalSpec) -> CompiledDesign {
        let schedule_spec = ScheduleSpec {
            checking_pct: spec.checking_pct,
            k_tb: spec.k_tb,
            k_ed: spec.k_ed,
            relay_increment: 1,
        };
        let netlist = generator_netlist(spec.design);
        let sta = TimingAnalysis::run(&netlist, &ClockConstraint::with_period(Picos(1_000_000)));
        let period = snap_period(sta.worst_arrival().scale(1.05) + Picos(30), &schedule_spec);
        let schedule = CheckingPeriod::new(period, spec.checking_pct, spec.k_tb, spec.k_ed)
            .expect("snapped period admits the schedule");
        let profiles = if spec.design == DesignId::Proc {
            stage_profiles_from_netlist(&netlist, PerfPoint::High)
        } else {
            quantile_profiles(&netlist, &sta)
        };
        let plan = HoldAnalysis::run(&netlist, &ClockConstraint::with_period(period))
            .padding_plan(&netlist, schedule.checking());
        CompiledDesign {
            design: spec.design,
            period,
            schedule,
            profiles,
            padding_floor: plan.floor,
            padding_endpoints: plan.deficits.len(),
            padding_total: plan.total_padding,
            flops: netlist.flop_ids().count(),
            nets: netlist.net_ids().count(),
        }
    }

    #[test]
    fn shared_base_plus_schedule_tail_equals_a_from_scratch_compile() {
        for design in DesignId::EVALUABLE {
            for checking_pct in [10.0, 17.5, 24.0, 30.0, 37.25, 45.0] {
                for k_tb in 0..=2 {
                    for k_ed in 1..=2 {
                        let spec = EvalSpec {
                            checking_pct,
                            k_tb,
                            k_ed,
                            ..EvalSpec::defaults(design)
                        };
                        assert_eq!(
                            compile(&spec),
                            compile_from_scratch(&spec),
                            "{}",
                            spec.design_canonical()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_first_use_agrees_and_poison_still_panics() {
        let mut spec = EvalSpec::defaults(DesignId::Datapath);
        spec.checking_pct = 33.0;
        // The table is process-wide, so this races first use only when
        // no other test has reached the design yet; the barrier lines
        // the eight threads up either way.
        let start = std::sync::Barrier::new(8);
        let compiled: Vec<CompiledDesign> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        compile(&spec)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for c in &compiled {
            assert_eq!(c, &compile_from_scratch(&spec));
        }
        // Every base is built now; poison still never reaches the table.
        for design in DesignId::EVALUABLE {
            compile(&EvalSpec::defaults(design));
        }
        let msg = panic_message(&EvalSpec::defaults(DesignId::Poison));
        assert!(msg.contains("poison"), "{msg}");
    }

    #[test]
    fn evaluation_is_deterministic_and_id_free() {
        let spec = EvalSpec::defaults(DesignId::Rca16);
        let compiled = compile(&spec);
        let a = evaluate(&compiled, &spec);
        let b = evaluate(&compile(&spec), &spec);
        assert_eq!(a, b);
        assert!(!a.contains("\"id\""));
        assert!(a.contains(&format!("\"key\":\"{}\"", spec.key())));
    }

    #[test]
    fn seed_and_scheme_change_the_body() {
        let base = EvalSpec::defaults(DesignId::Rca16);
        let compiled = compile(&base);
        let mut reseeded = base;
        reseeded.seed = 8;
        let mut rescheme = base;
        rescheme.scheme = timber_schemes::SchemeId::ConventionalFf;
        assert_ne!(evaluate(&compiled, &base), evaluate(&compiled, &reseeded));
        assert_ne!(evaluate(&compiled, &base), evaluate(&compiled, &rescheme));
    }

    #[test]
    fn design_tier_is_schedule_sensitive() {
        let a = compile(&EvalSpec::defaults(DesignId::Ks16));
        let mut spec = EvalSpec::defaults(DesignId::Ks16);
        spec.checking_pct = 30.0;
        let b = compile(&spec);
        assert!(b.schedule.checking() > a.schedule.checking());
    }

    /// Every `evaluate` body over the design × scheme × storm grid,
    /// digested. The value was pinned when the scalar simulator moved
    /// onto the batch engine's counter-mode sensitization draws; any
    /// change to a body fails here.
    #[test]
    fn evaluate_bodies_match_the_pinned_digest() {
        let storms = [
            None,
            Some(StormScenario::DroopTrain),
            Some(StormScenario::AgingRamp),
            Some(StormScenario::FlagSpikes),
        ];
        let mut bodies = String::new();
        for design in DesignId::EVALUABLE {
            for scheme in timber_schemes::SchemeId::ALL {
                for storm in storms {
                    let spec = EvalSpec {
                        scheme,
                        storm,
                        cycles: 1_500,
                        ..EvalSpec::defaults(design)
                    };
                    bodies.push_str(&evaluate(&compile(&spec), &spec));
                    bodies.push('\n');
                }
            }
        }
        assert_eq!(
            crate::key::content_hash(bodies.as_bytes()).hex(),
            "6d57204f0ee0dd8b8186521a44675ee6c1bcc80ce936e03ea3c4927bd06ebe86"
        );
    }
}
