//! Soundness harness: replays real pipeline runs and asserts that no
//! dynamic observation ever exceeds a static certificate bound.
//!
//! Every conformance grid point × scheme × burst shape is certified
//! from the workload's per-stage delay hull and then replayed through
//! the real [`PipelineSim`]; observed borrow, chain length, flags and
//! corruption must all sit inside the certificate. Two *crafted*
//! exact-capacity workloads (a diagonal critical wave that walks the
//! TIMBER FF to full depth `k`, and its latch twin) make the bounds
//! *tight*, so the sabotage mode — which seeds an off-by-one bound —
//! is caught deterministically, proving the gate can actually fail.

use timber::CheckingPeriod;
use timber_conformance::analytical::{critical_only, TraceDelaySource};
use timber_conformance::campaign::{CHECKING_PCT, GRID, PERIOD};
use timber_conformance::{BurstShape, Workload};
use timber_netlist::Picos;
use timber_pipeline::{CertifiedBounds, PipelineConfig, PipelineSim};
use timber_schemes::{Registry, SchemeId};
use timber_telemetry::{Counter, EventKind, TelemetrySink};

use crate::domain::Interval;
use crate::interp::{certify, AnalysisPoint, ConfigCertificate};

/// One dynamic observation that exceeded its static bound.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Case identifier (`g{k_tb}{k_ed}-{scheme}-{shape}`).
    pub case: String,
    /// What exceeded what.
    pub what: String,
}

/// Outcome of one soundness sweep.
#[derive(Debug, Clone)]
pub struct SoundnessReport {
    /// Certified-and-replayed cases.
    pub cases: usize,
    /// Total pipeline cycles replayed.
    pub replayed_cycles: u64,
    /// True when the off-by-one sabotage was seeded.
    pub sabotaged: bool,
    /// Dynamic observations that exceeded a static bound.
    pub violations: Vec<Violation>,
}

impl SoundnessReport {
    /// True when every observation sat inside its certificate.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sink tracking the worst borrow and chain depth actually observed.
#[derive(Default)]
struct MaxSink {
    max_slack: Picos,
    max_depth: u32,
}

impl TelemetrySink for MaxSink {
    const ENABLED: bool = true;

    fn event(&mut self, _cycle: u64, kind: EventKind) {
        if let EventKind::Borrow { slack, depth, .. } = kind {
            self.max_slack = self.max_slack.max(slack);
            self.max_depth = self.max_depth.max(depth);
        }
    }

    fn add(&mut self, _counter: Counter, _n: u64) {}
}

/// The per-stage combinational delay hull of a pinned workload — the
/// abstraction the certifier consumes.
pub fn hull_of(w: &Workload) -> Vec<Interval> {
    (0..w.stages())
        .map(|s| {
            let mut lo = Picos(i64::MAX);
            let mut hi = Picos(i64::MIN);
            for row in w.arrivals() {
                lo = lo.min(row[s]);
                hi = hi.max(row[s]);
            }
            Interval::new(lo, hi)
        })
        .collect()
}

/// Certifies `w` for `scheme`, replays it through the real simulator,
/// and returns the certificate, cycles replayed, and every bound the
/// replay broke. `sabotage` seeds the off-by-one bound first.
pub fn replay_case(
    w: &Workload,
    scheme: SchemeId,
    seed: u64,
    case: &str,
    sabotage: bool,
) -> (ConfigCertificate, u64, Vec<Violation>) {
    let point = AnalysisPoint::new(case, scheme, *w.schedule(), hull_of(w));
    let mut cert = certify(&point);
    if sabotage {
        cert.sabotage();
    }

    let stages = w.stages();
    let registry = Registry::new(*w.schedule()).coverage(1.0);
    let mut built = registry.build(scheme, seed);
    let mut config = PipelineConfig::new(stages, w.period());
    config.slowdown_factor = 0.0;
    if !sabotage {
        // Arm the simulator's own certificate hook: debug builds
        // assert the bound at every masked capture, release ignores it.
        config.debug_bounds = Some(CertifiedBounds {
            max_borrow: cert.bounds.borrow_ps,
            max_chain: cert.bounds.relay_chain,
        });
    }
    let sens = critical_only(stages);
    let var = TraceDelaySource::new(w.arrivals());
    let mut sink = MaxSink::default();
    let stats = PipelineSim::with_telemetry(config, &mut built, &sens, &var, &mut sink)
        .run(w.cycles() as u64);

    let mut violations = Vec::new();
    let mut broke = |what: String| {
        violations.push(Violation {
            case: case.to_string(),
            what,
        });
    };
    if sink.max_slack > cert.bounds.borrow_ps {
        broke(format!(
            "observed borrow {}ps exceeds certified {}ps",
            sink.max_slack.as_ps(),
            cert.bounds.borrow_ps.as_ps()
        ));
    }
    let observed_chain = stats.chain_histogram.len();
    if observed_chain > cert.bounds.relay_chain {
        broke(format!(
            "observed relay chain {observed_chain} exceeds certified {}",
            cert.bounds.relay_chain
        ));
    }
    if stats.flagged > 0 && !cert.bounds.flaggable {
        broke(format!(
            "{} flag(s) observed but certificate says unflaggable",
            stats.flagged
        ));
    }
    if stats.corrupted > 0 && !cert.bounds.corruptible {
        broke(format!(
            "{} corruption(s) observed but certificate says incorruptible",
            stats.corrupted
        ));
    }
    (cert, w.cycles() as u64, violations)
}

/// The crafted diagonal critical wave: stage `s` goes critical at cycle
/// `s` by exactly one borrow interval past the clock period, walking a
/// borrowing scheme to its full capacity — certified bounds are *tight*
/// for the TIMBER FF and latch, so an off-by-one sabotage cannot hide.
fn diagonal_wave(schedule: CheckingPeriod) -> Workload {
    let stages = schedule.k() as usize;
    let period = schedule.period().as_ps();
    let critical = period + schedule.interval().as_ps();
    let quiet = period * 2 / 5;
    let cycles = stages + 2; // two quiet tail cycles drain the chain
    let rows: Vec<Vec<i64>> = (0..cycles)
        .map(|c| {
            (0..stages)
                .map(|s| if c == s { critical } else { quiet })
                .collect()
        })
        .collect();
    let borrowed: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    Workload::from_rows(schedule, &borrowed)
}

/// Certifies and replays the full conformance surface: every grid
/// point × scheme × burst shape on generated workloads, plus the
/// crafted exact-capacity waves for the two borrowing schemes.
pub fn run_soundness(stages: usize, cycles: usize, seed: u64, sabotage: bool) -> SoundnessReport {
    let mut report = SoundnessReport {
        cases: 0,
        replayed_cycles: 0,
        sabotaged: sabotage,
        violations: Vec::new(),
    };
    let mut run = |w: &Workload, scheme: SchemeId, case: &str| {
        let (_cert, replayed, mut violations) = replay_case(w, scheme, seed, case, sabotage);
        report.cases += 1;
        report.replayed_cycles += replayed;
        report.violations.append(&mut violations);
    };
    for &(k_tb, k_ed) in GRID.iter() {
        let schedule = CheckingPeriod::new(PERIOD, CHECKING_PCT, k_tb, k_ed).unwrap();
        for scheme in SchemeId::ALL {
            for shape in BurstShape::ALL {
                let w = Workload::generate(schedule, stages, cycles, shape, seed);
                let case = format!("g{k_tb}{k_ed}-{}-{}", scheme.name(), shape.name());
                run(&w, scheme, &case);
            }
        }
        let wave = diagonal_wave(schedule);
        for scheme in [SchemeId::TimberFf, SchemeId::TimberLatch] {
            let case = format!("g{k_tb}{k_ed}-{}-diagonal-wave", scheme.name());
            run(&wave, scheme, &case);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_surface_is_sound() {
        let report = run_soundness(4, 64, 7, false);
        assert!(report.pass(), "{:#?}", report.violations);
        assert_eq!(report.cases, 8 * 8 * 5 + 8 * 2);
        assert!(report.replayed_cycles > 0);
    }

    #[test]
    fn sabotage_is_caught() {
        let report = run_soundness(4, 64, 7, true);
        assert!(!report.pass(), "off-by-one bounds must be detected");
        // Every grid point's crafted waves are tight: both schemes trip.
        assert!(report.violations.len() >= GRID.len());
    }

    #[test]
    fn diagonal_wave_reaches_exact_capacity() {
        let schedule = CheckingPeriod::new(PERIOD, CHECKING_PCT, 1, 2).unwrap();
        let w = diagonal_wave(schedule);
        let (cert, _, violations) = replay_case(&w, SchemeId::TimberFf, 7, "wave", false);
        assert!(violations.is_empty(), "{violations:#?}");
        let k = schedule.k() as i64;
        assert_eq!(cert.bounds.borrow_ps, schedule.interval() * k);
        assert_eq!(cert.bounds.relay_chain, schedule.k() as usize);
        let (_, _, sabotaged) = replay_case(&w, SchemeId::TimberFf, 7, "wave", true);
        assert!(!sabotaged.is_empty(), "tight bounds must expose sabotage");
    }

    #[test]
    fn hull_covers_every_cell() {
        let schedule = CheckingPeriod::new(PERIOD, CHECKING_PCT, 1, 1).unwrap();
        let w = Workload::generate(schedule, 3, 32, BurstShape::TbSingle, 1);
        let hull = hull_of(&w);
        for row in w.arrivals() {
            for (s, &d) in row.iter().enumerate() {
                assert!(hull[s].contains(d));
            }
        }
    }
}
