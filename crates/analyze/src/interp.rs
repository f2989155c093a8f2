//! The abstract interpreter: a fixed-point dataflow over per-stage
//! arrival-time intervals deriving provable worst-case borrow depth,
//! relay-chain length and consolidation budgets.
//!
//! # Abstract state
//!
//! For the continuously borrowing schemes (latch, soft-edge,
//! logical masking) the carry entering each stage boundary is tracked
//! as an [`Interval`]; the masking capacity is a schedule constant, so
//! comparing the interval's upper bound against it is sound for every
//! reachable run.
//!
//! The TIMBER FF needs more precision: its capacity
//! `(select + 1) · interval` depends on the relayed select, and select
//! and carry are *correlated* — a stage can hold a small select (low
//! capacity) in exactly the cycles its carry is small. A single
//! max-carry/max-select pair would certify "no corruption" for runs
//! that corrupt at low select with a large own-stage delay. But the
//! relay ships carry and select together: a mask at depth `d` hands the
//! next boundary carry `(min(d, k−1)+1) · interval` *and* select
//! `min(d+1, k−1)`, so one scalar — the borrow depth — captures the
//! pair exactly. The FF analysis therefore tracks the *set of reachable
//! depths* `{0, 1, …, k}` per stage (per relay cone, not one global
//! worst case), which is both precise and trivially finite; depth
//! saturation at `k` is the widening point of the relay feedback.
//!
//! The dataflow is monotone over a finite lattice and the pipeline is
//! linear, so the fixed point converges within `stages + 1` passes; a
//! widening fallback to the structural caps guards the loop regardless.

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::PipelineConfig;
use timber_schemes::{CaptureLaw, Registry, SchemeId};

use crate::domain::Interval;

/// One `(scheme, schedule, pipeline-depth, delay-hull)` operating point
/// to certify.
#[derive(Debug, Clone)]
pub struct AnalysisPoint {
    /// Display name (config / netlist identifier).
    pub name: String,
    /// Scheme analyzed.
    pub scheme: SchemeId,
    /// Checking-period schedule `(c, k_tb, k_ed)`.
    pub schedule: CheckingPeriod,
    /// Pipeline depth in stage boundaries.
    pub stages: usize,
    /// Per-stage combinational delay hull (pre-borrow base delays).
    pub hull: Vec<Interval>,
    /// Logical-masking coverage assumed (only that scheme reads it).
    pub coverage: f64,
    /// Consolidation latency the run is configured with, in cycles.
    pub consolidation_latency_cycles: u64,
}

impl AnalysisPoint {
    /// An analysis point over `hull` (one interval per stage) with the
    /// pipeline simulator's default consolidation latency and full
    /// logical-masking coverage.
    ///
    /// # Panics
    ///
    /// Panics if `hull` is empty.
    pub fn new(
        name: impl Into<String>,
        scheme: SchemeId,
        schedule: CheckingPeriod,
        hull: Vec<Interval>,
    ) -> AnalysisPoint {
        assert!(!hull.is_empty(), "need at least one stage");
        let stages = hull.len();
        let latency = PipelineConfig::new(stages, schedule.period()).consolidation_latency_cycles;
        AnalysisPoint {
            name: name.into(),
            scheme,
            schedule,
            stages,
            hull,
            coverage: 1.0,
            consolidation_latency_cycles: latency,
        }
    }
}

/// Facts the fixed point proves about one stage boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageFacts {
    /// Hull of the carry entering the boundary.
    pub carry_in: Interval,
    /// Largest reachable relay select input (TIMBER FF only).
    pub select_in: u8,
    /// Longest masked chain that can feed the boundary.
    pub chain_in: usize,
    /// A timing violation is reachable at this boundary.
    pub can_violate: bool,
    /// A masked (borrowing) capture is reachable.
    pub can_mask: bool,
    /// A silent corruption (escape past the scheme) is reachable.
    pub can_corrupt: bool,
    /// A flagged (ED-region) capture is reachable.
    pub can_flag: bool,
    /// Upper bound on time borrowed out of this boundary in one cycle.
    pub borrow_out: Picos,
}

/// How the fixed point terminated.
#[derive(Debug, Clone, Copy)]
pub struct FixpointInfo {
    /// Dataflow passes until stabilization.
    pub iterations: usize,
    /// True when the widening fallback to the structural caps fired.
    pub widened: bool,
}

/// The certified bound set for one analysis point.
#[derive(Debug, Clone, Copy)]
pub struct BoundSet {
    /// Worst-case time borrowed at any boundary in one cycle.
    pub borrow_ps: Picos,
    /// The same bound in whole borrow intervals (rounded up).
    pub borrow_units: u8,
    /// Worst-case masked relay-chain length.
    pub relay_chain: usize,
    /// An ED flag is reachable.
    pub flaggable: bool,
    /// A silent corruption is reachable.
    pub corruptible: bool,
    /// The schedule's consolidation budget, in cycles.
    pub consolidation_budget_cycles: f64,
    /// The configured consolidation latency, in cycles.
    pub consolidation_latency_cycles: u64,
}

/// A machine-checked certificate: per-stage facts plus the aggregated
/// bound set, for one operating point.
#[derive(Debug, Clone)]
pub struct ConfigCertificate {
    /// The point analyzed.
    pub point: AnalysisPoint,
    /// Per-boundary facts.
    pub stage_facts: Vec<StageFacts>,
    /// Aggregated provable bounds.
    pub bounds: BoundSet,
    /// Fixed-point metadata.
    pub fixpoint: FixpointInfo,
}

impl ConfigCertificate {
    /// True when the certificate proves the point safe: no reachable
    /// silent corruption, the fixed point converged without the
    /// widening fallback, and the configured consolidation latency
    /// fits the schedule's budget. This is the admission predicate the
    /// design-space autotuner (`timber-tune`) filters candidates with.
    pub fn is_safe(&self) -> bool {
        // Latency vs budget uses the same rounded-up-budget rule as
        // `point_report` (the half-cycle is bought back by latching on
        // the falling edge).
        !self.bounds.corruptible
            && !self.fixpoint.widened
            && (self.bounds.consolidation_latency_cycles as f64)
                <= self.bounds.consolidation_budget_cycles.ceil()
    }

    /// Seeds the off-by-one sabotage the soundness gate's self-test
    /// must catch: the borrow bound loses one picosecond and the chain
    /// bound one link.
    pub fn sabotage(&mut self) {
        if self.bounds.borrow_ps > Picos::ZERO {
            self.bounds.borrow_ps -= Picos(1);
        }
        if self.bounds.relay_chain > 0 {
            self.bounds.relay_chain -= 1;
        }
    }
}

/// Mutable abstract state of the dataflow, one slot per boundary.
struct AbsState {
    /// TIMBER FF: reachable borrow depths per boundary
    /// (`depths[s][d]`, `d ∈ 0..=k`).
    depths: Vec<Vec<bool>>,
    /// Continuous schemes: carry hull per boundary.
    carry: Vec<Interval>,
    /// Longest masked chain feeding each boundary.
    chain: Vec<usize>,
}

/// Runs the fixed point and returns the certificate for `point`.
///
/// # Panics
///
/// Panics if the hull length disagrees with `point.stages`.
pub fn certify(point: &AnalysisPoint) -> ConfigCertificate {
    assert_eq!(
        point.hull.len(),
        point.stages,
        "hull must cover every stage"
    );
    let stages = point.stages;
    let k = point.schedule.k() as usize;
    let mut st = AbsState {
        depths: vec![vec![false; k + 1]; stages],
        carry: vec![Interval::ZERO; stages],
        chain: vec![0; stages],
    };
    for d in &mut st.depths {
        d[0] = true; // the quiet path is always reachable
    }
    let mut facts = vec![StageFacts::default(); stages];
    let mut iterations = 0usize;
    let mut widened = false;
    loop {
        iterations += 1;
        let changed = pass(point, &mut st, &mut facts);
        if !changed {
            break;
        }
        if iterations > stages + 1 {
            // Widening fallback: jump every slot to its structural cap
            // (depth saturation, full usable checking, chain of the
            // whole prefix) and settle the facts in one more pass.
            widened = true;
            for (s, depth_row) in st.depths.iter_mut().enumerate() {
                depth_row.iter_mut().for_each(|r| *r = true);
                st.carry[s] = Interval::new(Picos::ZERO, point.schedule.usable_checking());
                st.chain[s] = s;
            }
            let _ = pass(point, &mut st, &mut facts);
            break;
        }
    }

    let borrow_ps = facts
        .iter()
        .map(|f| f.borrow_out)
        .max()
        .unwrap_or(Picos::ZERO);
    let interval_ps = point.schedule.interval().as_ps().max(1);
    let borrow_units =
        ((borrow_ps.as_ps() + interval_ps - 1) / interval_ps).clamp(0, i64::from(u8::MAX)) as u8;
    let relay_chain = facts
        .iter()
        .map(|f| f.chain_in + usize::from(f.can_violate))
        .max()
        .unwrap_or(0);
    let bounds = BoundSet {
        borrow_ps,
        borrow_units,
        relay_chain,
        flaggable: facts.iter().any(|f| f.can_flag),
        corruptible: facts.iter().any(|f| f.can_corrupt),
        consolidation_budget_cycles: point.schedule.consolidation_budget_cycles(),
        consolidation_latency_cycles: point.consolidation_latency_cycles,
    };
    ConfigCertificate {
        point: point.clone(),
        stage_facts: facts,
        bounds,
        fixpoint: FixpointInfo {
            iterations,
            widened,
        },
    }
}

/// One forward dataflow pass; returns true when any successor slot
/// grew.
fn pass(point: &AnalysisPoint, st: &mut AbsState, facts: &mut [StageFacts]) -> bool {
    let sched = point.schedule;
    let p = sched.period();
    let interval = sched.interval();
    let k = sched.k() as usize;
    let k_tb = sched.k_tb();
    let law = Registry::new(sched)
        .coverage(point.coverage)
        .law(point.scheme);
    // How far past the edge each law's capture survives, as a mask or
    // a detection (the FF's at full select; below it, its capacity
    // follows the relayed depth).
    let capacity = match law {
        CaptureLaw::TimberFf(s) | CaptureLaw::TimberLatch(s) => s.usable_checking(),
        CaptureLaw::Razor { window, .. }
        | CaptureLaw::TransitionDetector { window }
        | CaptureLaw::SoftEdge { window } => window,
        CaptureLaw::LogicalMasking { margin, .. } => margin,
        CaptureLaw::Canary { .. } | CaptureLaw::Conventional => Picos::ZERO,
    };
    let coverage = match law {
        CaptureLaw::LogicalMasking { coverage, .. } => coverage,
        _ => 1.0,
    };
    let mut changed = false;

    for (s, slot) in facts.iter_mut().enumerate() {
        let hull = point.hull[s];
        let chain_in = st.chain[s];
        let mut f = StageFacts {
            chain_in,
            ..StageFacts::default()
        };

        match law {
            CaptureLaw::TimberFf(_) => {
                let max_depth = (0..=k).rev().find(|&d| st.depths[s][d]).unwrap_or(0);
                f.carry_in = Interval::new(Picos::ZERO, interval * max_depth as i64);
                f.select_in = max_depth.min(k - 1) as u8;
                for d in 0..=k {
                    if !st.depths[s][d] {
                        continue;
                    }
                    let carry = interval * d as i64;
                    let sel = d.min(k - 1);
                    let capacity = interval * (sel as i64 + 1);
                    // Headroom left after the inherited borrow: one
                    // interval below saturation, zero at depth k.
                    let extra = capacity - carry;
                    if carry + hull.hi() <= p {
                        continue; // this depth cannot violate
                    }
                    f.can_violate = true;
                    if hull.hi() > p + extra {
                        f.can_corrupt = true;
                    }
                    if hull.lo() <= p + extra {
                        f.can_mask = true;
                        f.borrow_out = f.borrow_out.max(capacity);
                        if sel as u32 + 1 > u32::from(k_tb) {
                            f.can_flag = true;
                        }
                        if s + 1 < point.stages {
                            let next = (d + 1).min(k);
                            if !st.depths[s + 1][next] {
                                st.depths[s + 1][next] = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
            CaptureLaw::TimberLatch(_)
            | CaptureLaw::SoftEdge { .. }
            | CaptureLaw::LogicalMasking { .. } => {
                let carry = st.carry[s];
                f.carry_in = carry;
                let arrival = carry + hull;
                let over_hi = arrival.hi() - p;
                if over_hi > Picos::ZERO {
                    f.can_violate = true;
                    f.can_corrupt = over_hi > capacity || coverage < 1.0;
                    if arrival.lo() <= p + capacity && coverage > 0.0 {
                        f.can_mask = true;
                        f.borrow_out = match law {
                            // Logical masking absorbs without borrowing.
                            CaptureLaw::LogicalMasking { .. } => Picos::ZERO,
                            // Continuous borrowing hands on the actual
                            // overshoot, clamped to the capacity.
                            _ => over_hi.min(capacity),
                        };
                        if let CaptureLaw::TimberLatch(schedule) = law {
                            f.can_flag = over_hi > schedule.tb_window();
                        }
                        if s + 1 < point.stages {
                            let grown =
                                st.carry[s + 1].join(Interval::new(Picos::ZERO, f.borrow_out));
                            if grown != st.carry[s + 1] {
                                st.carry[s + 1] = grown;
                                changed = true;
                            }
                        }
                    }
                }
            }
            CaptureLaw::Razor { .. } | CaptureLaw::TransitionDetector { .. } => {
                // Detection: never masks, never carries; corruption
                // escapes past the speculation window.
                let over_hi = hull.hi() - p;
                f.can_violate = over_hi > Picos::ZERO;
                f.can_corrupt = over_hi > capacity;
            }
            CaptureLaw::Canary { .. } | CaptureLaw::Conventional => {
                // Prediction fires before the edge; anything past the
                // edge is a silent escape for both.
                let over_hi = hull.hi() - p;
                f.can_violate = over_hi > Picos::ZERO;
                f.can_corrupt = f.can_violate;
            }
        }

        if f.can_mask && s + 1 < point.stages && st.chain[s + 1] < chain_in + 1 {
            st.chain[s + 1] = chain_in + 1;
            changed = true;
        }
        *slot = f;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> CheckingPeriod {
        // 1000 ps clock, 30% checking, 1 TB + 2 ED: 100 ps intervals.
        CheckingPeriod::new(Picos(1000), 30.0, 1, 2).unwrap()
    }

    fn quiet() -> Interval {
        Interval::new(Picos(400), Picos(420))
    }

    #[test]
    fn quiet_hull_certifies_zero_bounds() {
        for id in SchemeId::ALL {
            let point = AnalysisPoint::new("quiet", id, sched(), vec![quiet(); 4]);
            let cert = certify(&point);
            assert_eq!(cert.bounds.borrow_ps, Picos::ZERO, "{id:?}");
            assert_eq!(cert.bounds.relay_chain, 0, "{id:?}");
            assert!(!cert.bounds.corruptible, "{id:?}");
            assert!(!cert.bounds.flaggable, "{id:?}");
            assert!(!cert.fixpoint.widened, "{id:?}");
        }
    }

    #[test]
    fn ff_escalation_reaches_exact_capacity() {
        // Every stage can overshoot by one more interval than its
        // inherited borrow: the relay walks the depth to full k.
        let hull = vec![Interval::new(Picos(400), Picos(1100)); 3];
        let point = AnalysisPoint::new("esc", SchemeId::TimberFf, sched(), hull);
        let cert = certify(&point);
        assert_eq!(cert.bounds.borrow_ps, Picos(300)); // k·interval
        assert_eq!(cert.bounds.borrow_units, 3);
        assert_eq!(cert.bounds.relay_chain, 3);
        assert!(cert.bounds.flaggable); // units 2 and 3 are ED
        assert!(!cert.bounds.corruptible);
        assert!(cert.fixpoint.iterations <= 4);
        assert!(!cert.fixpoint.widened);
    }

    #[test]
    fn ff_low_select_corruption_is_caught() {
        // Stage 1 can see 1.5 intervals of overshoot with *no*
        // inherited borrow (select 0, capacity one interval): a naive
        // max-carry/max-select analysis would miss this escape.
        let hull = vec![
            Interval::new(Picos(400), Picos(1100)),
            Interval::new(Picos(400), Picos(1150)),
        ];
        let point = AnalysisPoint::new("low-sel", SchemeId::TimberFf, sched(), hull);
        let cert = certify(&point);
        assert!(cert.bounds.corruptible);
    }

    #[test]
    fn latch_borrows_continuously_up_to_usable() {
        let hull = vec![Interval::new(Picos(400), Picos(1150)); 2];
        let point = AnalysisPoint::new("latch", SchemeId::TimberLatch, sched(), hull);
        let cert = certify(&point);
        // Stage 0 borrows 150; stage 1 can see 150+150 = 300 = usable.
        assert_eq!(cert.bounds.borrow_ps, Picos(300));
        assert!(!cert.bounds.corruptible);
        assert!(cert.bounds.flaggable); // 150 > k_tb·interval = 100
        assert_eq!(cert.bounds.relay_chain, 2);
    }

    #[test]
    fn detection_chains_stop_at_one() {
        let hull = vec![Interval::new(Picos(400), Picos(1250)); 3];
        for id in [SchemeId::RazorFf, SchemeId::TransitionDetectorFf] {
            let point = AnalysisPoint::new("det", id, sched(), hull.clone());
            let cert = certify(&point);
            assert_eq!(cert.bounds.borrow_ps, Picos::ZERO, "{id:?}");
            assert_eq!(cert.bounds.relay_chain, 1, "{id:?}");
            assert!(!cert.bounds.corruptible, "250 <= checking 300, {id:?}");
        }
        let point = AnalysisPoint::new(
            "esc",
            SchemeId::RazorFf,
            sched(),
            vec![Interval::new(Picos(400), Picos(1301))],
        );
        assert!(certify(&point).bounds.corruptible);
    }

    #[test]
    fn conventional_corrupts_on_any_violation() {
        for id in [SchemeId::ConventionalFf, SchemeId::CanaryFf] {
            let point = AnalysisPoint::new(
                "conv",
                id,
                sched(),
                vec![Interval::new(Picos(400), Picos(1001))],
            );
            let cert = certify(&point);
            assert!(cert.bounds.corruptible, "{id:?}");
            assert_eq!(cert.bounds.relay_chain, 1, "{id:?}");
        }
    }

    #[test]
    fn logical_masking_with_partial_coverage_is_corruptible() {
        let hull = vec![Interval::new(Picos(400), Picos(1100)); 2];
        let mut point = AnalysisPoint::new("lm", SchemeId::LogicalMasking, sched(), hull);
        let full = certify(&point);
        assert!(!full.bounds.corruptible, "coverage 1.0, within margin");
        assert_eq!(full.bounds.borrow_ps, Picos::ZERO);
        assert_eq!(full.bounds.relay_chain, 2);
        point.coverage = 0.8;
        assert!(certify(&point).bounds.corruptible);
    }

    #[test]
    fn sabotage_is_off_by_one() {
        let hull = vec![Interval::new(Picos(400), Picos(1100)); 3];
        let point = AnalysisPoint::new("esc", SchemeId::TimberFf, sched(), hull);
        let mut cert = certify(&point);
        cert.sabotage();
        assert_eq!(cert.bounds.borrow_ps, Picos(299));
        assert_eq!(cert.bounds.relay_chain, 2);
    }

    #[test]
    fn budget_fields_follow_the_schedule() {
        let point = AnalysisPoint::new("b", SchemeId::TimberFf, sched(), vec![quiet()]);
        let cert = certify(&point);
        assert!((cert.bounds.consolidation_budget_cycles - 1.5).abs() < 1e-9);
        assert_eq!(cert.bounds.consolidation_latency_cycles, 2);
    }
}
