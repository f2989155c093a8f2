//! Model A: the analytical cycle-level simulator replaying a workload
//! through `timber-pipeline`.
//!
//! The trick that makes the replay *exact* is the delay encoding: the
//! sensitization model is pinned to a critical path of `2^16` ps with
//! `p_critical = 1`, and the [`DelaySource`] factor for cycle `t`,
//! stage `s` is the arrival itself read as a Q16 factor,
//! `Q16(arrival)`. The simulator derates the base as
//! `⌊2^16 · arrival / 2^16⌋`, which is `arrival` bit-for-bit — no
//! rounding can leak into the conformance comparison.

use timber_netlist::Picos;
use timber_pipeline::{PipelineConfig, PipelineSim};
use timber_schemes::{Registry, SchemeId};
use timber_telemetry::{Counter, EventKind, Recorder, RecorderConfig, TelemetrySink};
use timber_variability::{DelaySource, SensitizationModel, StagePathProfile, Q16};

use crate::class::{Class, ModelRun};
use crate::workload::Workload;

/// The pinned critical-path length of the exact-arrival encoding: one
/// in Q16, so a factor of `Q16(a)` derates it to exactly `a` ps.
pub const TRACE_BASE: i64 = 1 << 16;

/// Replays a workload's arrival table as derating factors. Paired with
/// [`critical_only`], the simulator's arrival at cycle `t`, stage `s`
/// is exactly `arrivals[t][s]`.
#[derive(Debug)]
pub struct TraceDelaySource<'a> {
    arrivals: &'a [Vec<Picos>],
}

impl<'a> TraceDelaySource<'a> {
    /// A source over `arrivals[cycle][stage]`; the run must not go past
    /// its last row.
    pub fn new(arrivals: &'a [Vec<Picos>]) -> TraceDelaySource<'a> {
        TraceDelaySource { arrivals }
    }
}

/// The sensitization model of a table replay: every stage always
/// sensitizes its [`TRACE_BASE`] critical path.
pub fn critical_only(stages: usize) -> SensitizationModel {
    let mut profile = StagePathProfile::from_critical(Picos(TRACE_BASE));
    profile.p_critical = 1.0;
    profile.p_near = 0.0;
    SensitizationModel::new(vec![profile; stages], 0)
}

impl DelaySource for TraceDelaySource<'_> {
    /// One: the whole arrival is the stage's own part.
    fn global(&self, _cycle: u64) -> Q16 {
        Q16::ONE
    }

    /// The arrival in ps, read as a Q16 factor on [`TRACE_BASE`].
    ///
    /// # Panics
    ///
    /// Panics if the arrival lies outside `0..2^32` ps.
    fn local(&self, cycle: u64, stage: usize) -> Q16 {
        let arrival = self.arrivals[cycle as usize][stage].as_ps();
        Q16(u32::try_from(arrival).expect("trace arrivals lie in 0..2^32 ps"))
    }
}

/// A [`TelemetrySink`] that reconstructs the per-(cycle, stage)
/// [`Class`] table from the pipeline's event stream — the analytical
/// model's half of the differential comparison.
#[derive(Debug)]
pub struct ClassificationSink {
    stages: usize,
    cycles: Vec<Option<Vec<Class>>>,
}

impl ClassificationSink {
    /// An empty sink for a pipeline with `stages` boundaries.
    pub fn new(stages: usize) -> ClassificationSink {
        ClassificationSink {
            stages,
            cycles: Vec::new(),
        }
    }

    /// The reconstructed classification table, consumed.
    pub fn into_cycles(self) -> Vec<Option<Vec<Class>>> {
        self.cycles
    }
}

impl TelemetrySink for ClassificationSink {
    const ENABLED: bool = true;

    fn event(&mut self, cycle: u64, kind: EventKind) {
        let class = match kind {
            EventKind::Borrow {
                depth,
                slack,
                flagged,
                ..
            } => Class::Masked {
                borrowed: slack,
                depth,
                flagged,
            },
            EventKind::Detected { penalty, .. } => Class::Detected { penalty },
            EventKind::Predicted { .. } => Class::Predicted,
            EventKind::Panic { .. } => Class::Corrupted,
            // Relay depth is already carried inside the Borrow event;
            // flag/throttle traffic has no per-stage classification.
            EventKind::Relay { .. }
            | EventKind::EdFlag { .. }
            | EventKind::ThrottleRequest
            | EventKind::Throttle { .. }
            | EventKind::Escalate { .. }
            | EventKind::Deescalate { .. }
            | EventKind::SafeModeReplay { .. } => return,
        };
        let stage = kind.stage().expect("classified events carry a stage") as usize;
        let row = self.cycles[cycle as usize]
            .as_mut()
            .expect("events only happen on evaluated cycles");
        row[stage] = class;
    }

    fn add(&mut self, counter: Counter, n: u64) {
        match counter {
            Counter::Cycles => {
                for _ in 0..n {
                    self.cycles.push(Some(vec![Class::Ok; self.stages]));
                }
            }
            Counter::PenaltyCycles => {
                // The cycle row was just pushed by the `Cycles` tick;
                // mark it as a recovery bubble.
                let last = self.cycles.last_mut().expect("bubble follows a cycle tick");
                *last = None;
            }
            _ => {}
        }
    }
}

/// Runs the analytical model over a workload and returns its account.
///
/// The frequency controller is frozen (`slowdown_factor = 0`) so the
/// comparison is about the cell and relay contract, not the throttling
/// policy, and logical-masking coverage is pinned to 1.0 so no internal
/// RNG can differ between models.
pub fn analytical_run(w: &Workload, id: SchemeId, seed: u64) -> ModelRun {
    let mut sink = ClassificationSink::new(w.stages());
    let (final_carry, final_chain) = run_with_sink(w, id, seed, &mut sink);
    ModelRun {
        cycles: sink.into_cycles(),
        final_carry,
        final_chain,
    }
}

/// Runs the analytical model twice on identical state — once
/// reconstructing the oracle's classification table, once with a
/// telemetry [`Recorder`] attached — and returns both accounts. The
/// conformance property tests assert the recorder's counters equal the
/// oracle's per-class counts ([`ModelRun::counts`]); both runs see the
/// same seeds, so any disagreement is a telemetry accounting bug.
pub fn analytical_run_recorded(w: &Workload, id: SchemeId, seed: u64) -> (ModelRun, Recorder) {
    let run = analytical_run(w, id, seed);
    let mut recorder = Recorder::new(RecorderConfig::new(w.stages(), w.period()));
    let _ = run_with_sink(w, id, seed, &mut recorder);
    (run, recorder)
}

/// One analytical replay with an arbitrary telemetry sink attached;
/// returns the final `(carry, chain_depth)` architectural state.
fn run_with_sink<S: TelemetrySink>(
    w: &Workload,
    id: SchemeId,
    seed: u64,
    sink: &mut S,
) -> (Vec<Picos>, Vec<usize>) {
    let stages = w.stages();
    let sens = critical_only(stages);
    let var = TraceDelaySource::new(w.arrivals());
    let registry = Registry::new(*w.schedule()).coverage(1.0);
    let mut scheme = registry.build(id, seed);
    let mut config = PipelineConfig::new(stages, w.period());
    config.slowdown_factor = 0.0;
    let mut sim = PipelineSim::with_telemetry(config, &mut scheme, &sens, &var, sink);
    let _ = sim.run(w.cycles() as u64);
    (sim.carry().to_vec(), sim.chain_depths().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::BurstShape;
    use timber::CheckingPeriod;

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 24.0, 1, 2).unwrap()
    }

    #[test]
    fn trace_source_reproduces_arrivals_exactly() {
        let w = Workload::generate(sched(), 4, 48, BurstShape::RandomStress, 11);
        let src = TraceDelaySource::new(w.arrivals());
        for (t, row) in w.arrivals().iter().enumerate() {
            for (s, &a) in row.iter().enumerate() {
                let f = src.factor(t as u64, s);
                assert_eq!(f.derate(Picos(TRACE_BASE)), a, "cycle {t} stage {s}");
            }
        }
    }

    #[test]
    fn quiet_workload_classifies_everything_ok() {
        // All-quiet arrivals (40% of the period): no violations at all.
        let rows: Vec<Vec<i64>> = vec![vec![400; 3]; 8];
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let w = Workload::from_rows(sched(), &refs);
        for id in SchemeId::ALL {
            let run = analytical_run(&w, id, 5);
            assert_eq!(run.cycles.len(), 8, "{id:?}");
            assert_eq!(run.violations(), 0, "{id:?}");
            assert!(run.final_carry.iter().all(|&c| c == Picos::ZERO));
        }
    }

    #[test]
    fn single_overshoot_masks_once_for_timber_ff() {
        // One +40ps overshoot (inside the 80ps interval) at cycle 2,
        // stage 1: exactly one masked, unflagged, depth-1 event, and a
        // full-interval borrow carried into boundary 2.
        let mut rows: Vec<Vec<i64>> = vec![vec![400; 3]; 6];
        rows[2][1] = 1040;
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let w = Workload::from_rows(sched(), &refs);
        let run = analytical_run(&w, SchemeId::TimberFf, 5);
        assert_eq!(
            run.cycles[2].as_ref().unwrap()[1],
            Class::Masked {
                borrowed: Picos(80),
                depth: 1,
                flagged: false,
            }
        );
        assert_eq!(run.violations(), 1);
    }

    #[test]
    fn detection_bubbles_shift_later_rows() {
        // Razor detects the cycle-1 overshoot; cycle 2 becomes a
        // recovery bubble (`None`), and its arrivals are never
        // evaluated.
        let mut rows: Vec<Vec<i64>> = vec![vec![400; 2]; 5];
        rows[1][0] = 1100;
        rows[2][0] = 1100; // skipped by the bubble
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let w = Workload::from_rows(sched(), &refs);
        let run = analytical_run(&w, SchemeId::RazorFf, 5);
        assert_eq!(
            run.cycles[1].as_ref().unwrap()[0],
            Class::Detected { penalty: 1 }
        );
        assert_eq!(run.cycles[2], None);
        assert_eq!(run.violations(), 1);
    }
}
