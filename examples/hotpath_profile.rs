//! Scratch profiling harness: times the hot-path components of one
//! claims-style trial in isolation so optimisation work targets the
//! real cost centres, then the environment path of a serve-shaped
//! trial under each stress scenario, with and without the on-time
//! skip, and how many boundary-cycles still reach the scheme. Run with
//! `cargo run --release --example hotpath_profile`.

use std::cell::Cell;
use std::time::Instant;

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::{
    CycleContext, GovernorConfig, PipelineConfig, PipelineSim, SequentialScheme, StageOutcome,
    Topology,
};
use timber_resilience::StormScenario;
use timber_schemes::{CaptureLaw, Registry, SchemeId};
use timber_variability::{
    Aging, CompositeVariability, DelaySource, LocalJitter, ProcessVariation, SensitizationModel,
    TemperatureDrift, VariabilityBuilder, VoltageDroop, Q16,
};

const CYCLES: u64 = 2_000_000;

/// One source's factor at (cycle, stage).
type Query<'a> = dyn Fn(u64, usize) -> Q16 + 'a;
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
    let var = mk_var();
    let cfg = PipelineConfig::new(STAGES, PERIOD);
    let t = Instant::now();
    let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(CYCLES);
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

    // (c) the environment's exact factor only
    let var = mk_var();
    let t = Instant::now();
    let mut facc = 0u64;
    for c in 0..CYCLES {
        for s in 0..STAGES {
            facc += u64::from(var.factor(c, s).0);
        }
    }
    let tc = t.elapsed().as_secs_f64();
    println!(
        "var only:       {:.3}s  ({:.0} cycles/s) acc={}",
        tc,
        CYCLES as f64 / tc,
        facc
    );

    // (c2) one row per source: ns per query, over the same
    // (cycle, stage) coordinates.
    let process = ProcessVariation::new(STAGES, 0.03, 42);
    let droop = VoltageDroop::new(0.05, 500, 2000.0, 42);
    let temperature = TemperatureDrift::new(0.01, 1_000_000, 42);
    let aging = Aging::new(0.06);
    let jitter = LocalJitter::new(0.005, 42);
    let sources: [(&str, &Query); 5] = [
        ("process", &|_c, s| process.at(s)),
        ("droop", &|c, _s| droop.at(c)),
        ("temperature", &|c, _s| temperature.at(c)),
        ("aging", &|c, _s| aging.at(c)),
        ("jitter", &|c, s| jitter.at(c, s)),
    ];
    for (name, at) in sources {
        let t = Instant::now();
        let mut facc = 0u64;
        for c in 0..CYCLES {
            for s in 0..STAGES {
                facc += u64::from(std::hint::black_box(at(c, s)).0);
            }
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / (CYCLES * STAGES as u64) as f64;
        println!("source {name:<12} {ns:.2} ns/query acc={facc}");
    }

    // (d) scheme only, fixed arrivals
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut scheme = CaptureLaw::TimberFf(sched).build(0);
    scheme.reset(&Topology::linear(STAGES));
    let t = Instant::now();
    let mut ok = 0u64;
    for c in 0..CYCLES {
        let ctx = CycleContext {
            cycle: c,
            period: PERIOD,
        };
        for s in 0..STAGES {
            let arr = Picos(600 + ((c as i64 + s as i64) & 63));
            if scheme.evaluate(s, arr, &ctx) == StageOutcome::Ok {
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
            let ctx = CycleContext {
                cycle: c,
                period: PERIOD,
            };
            ok += u64::from(scheme.on_time_limit(&ctx).is_some());
            for s in 0..STAGES {
                let arr = Picos(600 + ((c as i64 + s as i64) & 63));
                if scheme.evaluate(s, arr, &ctx) == StageOutcome::Ok {
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
    // its exact factor. The shares say how far the skipping run got:
    // how often the simulator asked for a fresh global bound, the
    // cycles that derived the global part (some stage was not proved
    // on time by the bound that held), and the stage-cycles that
    // derived the exact local part (the bound did not prove them), and the
    // boundary-cycles that reached the scheme's `evaluate` (the rest
    // were proved on time with no borrow or chain entering them).
    for storm in [
        None,
        Some(StormScenario::DroopTrain),
        Some(StormScenario::AgingRamp),
        Some(StormScenario::FlagSpikes),
    ] {
        let name = storm.map_or("nominal", StormScenario::name);
        let mut walls = [0.0; 2];
        let mut shares = [0.0; 3];
        let mut refreshes = 0.0;
        for (wall, hide_bound) in walls.iter_mut().zip([false, true]) {
            let var = Counted {
                inner: match storm {
                    Some(storm) => storm.build(STAGES, 42),
                    None => VariabilityBuilder::new(42)
                        .voltage_droop(0.05, 500, 2000.0)
                        .local_jitter(0.005)
                        .build(),
                },
                hide_bound,
                global: Cell::new(0),
                local: Cell::new(0),
                refreshes: Cell::new(0),
            };
            let mut law = CaptureLaw::TimberFf(sched).build(0);
            let mut scheme = Evaluated {
                inner: &mut law,
                calls: 0,
            };
            let sens = mk_sens();
            let mut cfg = PipelineConfig::new(STAGES, PERIOD);
            cfg.governor = Some(GovernorConfig::default());
            let t = Instant::now();
            let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var).run(CYCLES);
            *wall = t.elapsed().as_secs_f64();
            if !hide_bound {
                let rows = (stats.instructions * STAGES as u64) as f64;
                shares = [
                    var.global.get() as f64 / stats.instructions as f64,
                    var.local.get() as f64 / rows,
                    scheme.calls as f64 / rows,
                ];
                refreshes = 1000.0 * var.refreshes.get() as f64 / stats.cycles as f64;
            }
        }
        println!(
            "env {name:<12} {:.3}s  ({:.0} cycles/s; exact {:.0} cycles/s, {:.2}x) \
             bound refreshes {refreshes:.2} per 1,000 cycles, \
             global part on {:.2}% of cycles, exact local on {:.2}% of stage-cycles, \
             evaluate on {:.2}% of stage-cycles",
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

/// A scheme that forwards everything, its on-time limit included, and
/// counts the boundaries the simulator evaluates.
struct Evaluated<'a> {
    inner: &'a mut dyn SequentialScheme,
    calls: u64,
}

impl SequentialScheme for Evaluated<'_> {
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

/// A delay source that counts the global and local parts it derives
/// and the global bounds it is asked for, and can hide both bounds,
/// forcing the simulator's exact path.
struct Counted {
    inner: CompositeVariability,
    hide_bound: bool,
    global: Cell<u64>,
    local: Cell<u64>,
    refreshes: Cell<u64>,
}

impl DelaySource for Counted {
    fn global(&self, cycle: u64) -> Q16 {
        self.global.set(self.global.get() + 1);
        self.inner.global(cycle)
    }

    fn local(&self, cycle: u64, stage: usize) -> Q16 {
        self.local.set(self.local.get() + 1);
        self.inner.local(cycle, stage)
    }

    fn global_bound(&self, from: u64) -> Option<(Q16, u64)> {
        self.refreshes.set(self.refreshes.get() + 1);
        self.inner.global_bound(from).filter(|_| !self.hide_bound)
    }

    fn local_bound(&self, stage: usize) -> Option<Q16> {
        self.inner.local_bound(stage).filter(|_| !self.hide_bound)
    }
}
