//! Scratch profiling harness: times the hot-path components of one
//! claims-style trial in isolation so optimisation work targets the
//! real cost centres, then the environment path of a serve-shaped
//! trial under each stress scenario, with and without the on-time
//! skip. Run with `cargo run --release --example hotpath_profile`.

use std::time::Instant;

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::{GovernorConfig, PipelineConfig, PipelineSim, SequentialScheme, Topology};
use timber_resilience::StormScenario;
use timber_schemes::{CaptureLaw, Registry, SchemeId};
use timber_variability::{DelaySource, SensitizationModel, VariabilityBuilder};

const CYCLES: u64 = 2_000_000;
const STAGES: usize = 5;
const PERIOD: Picos = Picos(1000);

fn main() {
    let mk_sens = || SensitizationModel::uniform(STAGES, Picos(970), 0x5EED);
    let mk_var = || {
        VariabilityBuilder::new(42)
            .voltage_droop(0.05, 500, 2000.0)
            .temperature(0.01, 1_000_000)
            .local_jitter(0.005)
            .build()
    };

    // (a) full sim
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut scheme = CaptureLaw::TimberFf(sched).build(0);
    let sens = mk_sens();
    let mut var = mk_var();
    let cfg = PipelineConfig::new(STAGES, PERIOD);
    let t = Instant::now();
    let stats = PipelineSim::new(cfg, &mut scheme, &sens, &mut var).run(CYCLES);
    let full = t.elapsed().as_secs_f64();
    println!(
        "full sim:       {:.3}s  ({:.0} cycles/s) masked={}",
        full,
        CYCLES as f64 / full,
        stats.masked
    );

    // (b) sensitization sampling only
    let sens = mk_sens();
    let t = Instant::now();
    let mut acc = Picos::ZERO;
    for cycle in 0..CYCLES {
        for s in 0..STAGES {
            acc += sens.sample(cycle, s);
        }
    }
    let tb = t.elapsed().as_secs_f64();
    println!(
        "sens only:      {:.3}s  ({:.0} cycles/s) acc={}",
        tb,
        CYCLES as f64 / tb,
        acc.as_ps()
    );

    // (c) variability only
    let mut var = mk_var();
    let t = Instant::now();
    let mut facc = 0.0f64;
    for c in 0..CYCLES {
        for s in 0..STAGES {
            facc += var.factor(c, s);
        }
    }
    let tc = t.elapsed().as_secs_f64();
    println!(
        "var only:       {:.3}s  ({:.0} cycles/s) acc={:.2}",
        tc,
        CYCLES as f64 / tc,
        facc
    );

    // (c2) individual sources
    for (name, mut src) in [
        (
            "droop",
            VariabilityBuilder::new(42)
                .voltage_droop(0.05, 500, 2000.0)
                .build(),
        ),
        (
            "temp",
            VariabilityBuilder::new(42)
                .temperature(0.01, 1_000_000)
                .build(),
        ),
        (
            "jitter",
            VariabilityBuilder::new(42).local_jitter(0.005).build(),
        ),
    ] {
        let t = Instant::now();
        let mut facc = 0.0f64;
        for c in 0..CYCLES {
            for s in 0..STAGES {
                facc += src.factor(c, s);
            }
        }
        let tcc = t.elapsed().as_secs_f64();
        println!(
            "var {name:<10} {:.3}s  ({:.0} cycles/s) acc={:.2}",
            tcc,
            CYCLES as f64 / tcc,
            facc
        );
    }

    // (d) scheme only, fixed arrivals
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut scheme = CaptureLaw::TimberFf(sched).build(0);
    scheme.reset(&Topology::linear(STAGES));
    let t = Instant::now();
    let mut ok = 0u64;
    for c in 0..CYCLES {
        let ctx = timber_pipeline::CycleContext {
            cycle: c,
            period: PERIOD,
        };
        for s in 0..STAGES {
            let arr = Picos(600 + ((c as i64 + s as i64) & 63));
            if scheme.evaluate(s, arr, &ctx) == timber_pipeline::StageOutcome::Ok {
                ok += 1;
            }
        }
    }
    let td = t.elapsed().as_secs_f64();
    println!(
        "scheme only:    {:.3}s  ({:.0} cycles/s) ok={}",
        td,
        CYCLES as f64 / td,
        ok
    );

    // (d2) every registry scheme behind the trait object the
    // simulator calls (all eight are one `LawScheme`),
    // on the same fixed arrivals, per `evaluate` call; one
    // `on_time_limit` per cycle as `fill_row` asks it.
    for id in SchemeId::ALL {
        let mut built = Registry::new(sched).build(id, 7);
        let scheme: &mut dyn SequentialScheme = &mut built;
        scheme.reset(&Topology::linear(STAGES));
        let t = Instant::now();
        let mut ok = 0u64;
        for c in 0..CYCLES {
            let ctx = timber_pipeline::CycleContext {
                cycle: c,
                period: PERIOD,
            };
            ok += u64::from(scheme.on_time_limit(&ctx).is_some());
            for s in 0..STAGES {
                let arr = Picos(600 + ((c as i64 + s as i64) & 63));
                if scheme.evaluate(s, arr, &ctx) == timber_pipeline::StageOutcome::Ok {
                    ok += 1;
                }
            }
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / (CYCLES * STAGES as u64) as f64;
        println!("scheme {:<22} {ns:.2} ns/call ok={ok}", id.name());
    }

    // (e) the environment path per stress scenario, in the shape of a
    // serve trial (TIMBER flops, escalation governor): with the
    // on-time skip, and with the bounds hidden so every stage derives
    // its exact factor. The shares say which level decided each
    // stage-cycle of the skipping run: the static bound, the
    // per-query bound, or the exact factor.
    for storm in [
        None,
        Some(StormScenario::DroopTrain),
        Some(StormScenario::AgingRamp),
        Some(StormScenario::FlagSpikes),
    ] {
        let name = storm.map_or("nominal", StormScenario::name);
        let mut walls = [0.0; 2];
        let mut shares = [0.0; 3];
        for (wall, hide_bound) in walls.iter_mut().zip([false, true]) {
            let mut var = Counted {
                inner: match storm {
                    Some(storm) => storm.build(STAGES, 42),
                    None => VariabilityBuilder::new(42)
                        .voltage_droop(0.05, 500, 2000.0)
                        .local_jitter(0.005)
                        .build(),
                },
                hide_bound,
                bounded: 0,
                exact: 0,
            };
            let mut scheme = CaptureLaw::TimberFf(sched).build(0);
            let sens = mk_sens();
            let mut cfg = PipelineConfig::new(STAGES, PERIOD);
            cfg.governor = Some(GovernorConfig::default());
            let t = Instant::now();
            let stats = PipelineSim::new(cfg, &mut scheme, &sens, &mut var).run(CYCLES);
            *wall = t.elapsed().as_secs_f64();
            if !hide_bound {
                // Every exact factor follows a per-query bound here:
                // the scheme has a limit and each source a bound.
                let rows = (stats.instructions * STAGES as u64) as f64;
                shares = [
                    1.0 - var.bounded as f64 / rows,
                    (var.bounded - var.exact) as f64 / rows,
                    var.exact as f64 / rows,
                ];
            }
        }
        println!(
            "env {name:<12} {:.3}s  ({:.0} cycles/s; exact {:.0} cycles/s, {:.2}x) \
             decided: static {:.2}%, per-query {:.2}%, exact {:.2}%",
            walls[0],
            CYCLES as f64 / walls[0],
            CYCLES as f64 / walls[1],
            walls[1] / walls[0],
            100.0 * shares[0],
            100.0 * shares[1],
            100.0 * shares[2],
        );
    }
}

/// A delay source that counts the per-query bounds and exact factors
/// it answers, and can hide both bounds, forcing the simulator's exact
/// path.
struct Counted {
    inner: timber_variability::CompositeVariability,
    hide_bound: bool,
    bounded: u64,
    exact: u64,
}

impl DelaySource for Counted {
    fn factor(&mut self, cycle: u64, stage: usize) -> f64 {
        self.exact += 1;
        self.inner.factor(cycle, stage)
    }

    fn factor_bound(&self, stage: usize, horizon: u64) -> Option<f64> {
        if self.hide_bound {
            None
        } else {
            self.inner.factor_bound(stage, horizon)
        }
    }

    fn factor_bound_at(&mut self, cycle: u64, stage: usize) -> Option<f64> {
        self.bounded += 1;
        if self.hide_bound {
            None
        } else {
            self.inner.factor_bound_at(cycle, stage)
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
