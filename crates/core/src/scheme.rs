//! `timber_pipeline::SequentialScheme` implementations for both TIMBER
//! cells, so the architectural simulator can run TIMBER against the
//! baseline techniques.

use timber_netlist::Picos;
use timber_pipeline::{CycleContext, SequentialScheme, StageOutcome, Topology};

use crate::flipflop::{CaptureOutcome, TimberFlipFlop};
use crate::latch::TimberLatch;
use crate::relay::ErrorRelay;
use crate::schedule::CheckingPeriod;

impl From<CaptureOutcome> for StageOutcome {
    fn from(out: CaptureOutcome) -> StageOutcome {
        match out {
            CaptureOutcome::OnTime => StageOutcome::Ok,
            CaptureOutcome::Masked {
                borrowed, flagged, ..
            } => StageOutcome::Masked { borrowed, flagged },
            CaptureOutcome::Escaped { .. } => StageOutcome::Corrupted,
        }
    }
}

/// Pipeline scheme built from [`TimberFlipFlop`]s with error relaying
/// along the stage-boundary graph.
///
/// Each boundary's select input on the next cycle is the max over the
/// select outputs of its predecessors (the paper's Fig. 4 rule),
/// matching the combinational relay settling during the remaining half
/// cycle. The graph is a linear chain unless
/// [`on_topology`](TimberFfScheme::on_topology) gives a DAG.
#[derive(Debug)]
pub struct TimberFfScheme {
    schedule: CheckingPeriod,
    relay: ErrorRelay,
    flops: Vec<TimberFlipFlop>,
    topology: Topology,
    /// Select inputs to apply at the start of the next cycle.
    pending_select: Vec<u8>,
    last_cycle: Option<u64>,
}

impl TimberFfScheme {
    /// Creates the scheme for `stages` boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new(schedule: CheckingPeriod, stages: usize) -> TimberFfScheme {
        assert!(stages > 0, "need at least one stage boundary");
        TimberFfScheme {
            schedule,
            relay: ErrorRelay::new(&schedule),
            flops: vec![TimberFlipFlop::new(schedule); stages],
            topology: Topology::linear(stages),
            pending_select: vec![0; stages],
            last_cycle: None,
        }
    }

    /// Relays select outputs along `topology`'s edges instead of the
    /// linear chain. Pass the simulator the same topology.
    ///
    /// # Panics
    ///
    /// Panics if `topology` does not have one boundary per flop.
    #[must_use]
    pub fn on_topology(mut self, topology: &Topology) -> TimberFfScheme {
        assert_eq!(
            topology.len(),
            self.flops.len(),
            "topology must have one boundary per stage"
        );
        self.topology = topology.clone();
        self
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &CheckingPeriod {
        &self.schedule
    }

    /// Current select input at a boundary (test/diagnostic access).
    pub fn select_at(&self, stage: usize) -> u8 {
        self.flops[stage].select()
    }

    fn roll_cycle(&mut self, cycle: u64) {
        if self.last_cycle != Some(cycle) {
            self.last_cycle = Some(cycle);
            for (flop, sel) in self.flops.iter_mut().zip(&mut self.pending_select) {
                flop.set_select(*sel);
                *sel = 0;
            }
        }
    }
}

impl SequentialScheme for TimberFfScheme {
    fn name(&self) -> &str {
        "timber-ff"
    }

    fn evaluate(
        &mut self,
        stage: usize,
        arrival: Picos,
        _incoming_borrow: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        self.roll_cycle(ctx.cycle);
        let out = self.flops[stage].capture(arrival, ctx.period);
        // Relay: each successor's next-cycle select input is the max
        // over its fanin's select outputs. Any other outcome outputs
        // select 0, which leaves every max unchanged.
        if let CaptureOutcome::Masked { .. } = out {
            let sel_out = self.relay.select_output(true, self.flops[stage].select());
            for &q in self.topology.successors(stage) {
                let slot = &mut self.pending_select[q];
                *slot = self.relay.consolidate(&[*slot, sel_out]);
            }
        }
        out.into()
    }

    fn reset(&mut self) {
        for flop in &mut self.flops {
            *flop = TimberFlipFlop::new(self.schedule);
        }
        self.pending_select.iter_mut().for_each(|s| *s = 0);
        self.last_cycle = None;
    }

    /// On time up to the edge: an on-time capture resets the select
    /// and relays select 0, whatever the arrival.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period)
    }
}

/// Pipeline scheme built from [`TimberLatch`]es (continuous borrowing,
/// no relay logic).
#[derive(Debug)]
pub struct TimberLatchScheme {
    schedule: CheckingPeriod,
    latches: Vec<TimberLatch>,
}

impl TimberLatchScheme {
    /// Creates the scheme for `stages` boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new(schedule: CheckingPeriod, stages: usize) -> TimberLatchScheme {
        assert!(stages > 0, "need at least one stage boundary");
        TimberLatchScheme {
            schedule,
            latches: vec![TimberLatch::new(schedule); stages],
        }
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &CheckingPeriod {
        &self.schedule
    }
}

impl SequentialScheme for TimberLatchScheme {
    fn name(&self) -> &str {
        "timber-latch"
    }

    fn evaluate(
        &mut self,
        stage: usize,
        arrival: Picos,
        _incoming_borrow: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        self.latches[stage].capture(arrival, ctx.period).into()
    }

    fn reset(&mut self) {
        for l in &mut self.latches {
            *l = TimberLatch::new(self.schedule);
        }
    }

    /// On time up to the edge; an on-time capture leaves the latch
    /// untouched.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap()
    }

    fn ctx(cycle: u64) -> CycleContext {
        CycleContext {
            cycle,
            period: Picos(1000),
            nominal_period: Picos(1000),
        }
    }

    #[test]
    fn single_stage_error_masked_without_flag() {
        let mut s = TimberFfScheme::new(sched(), 3);
        let out = s.evaluate(0, Picos(1030), Picos::ZERO, &ctx(0));
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos(40),
                flagged: false
            }
        );
    }

    #[test]
    fn relay_raises_downstream_select_next_cycle() {
        let mut s = TimberFfScheme::new(sched(), 3);
        // Cycle 0: error at boundary 0.
        let _ = s.evaluate(0, Picos(1030), Picos::ZERO, &ctx(0));
        let _ = s.evaluate(1, Picos(900), Picos::ZERO, &ctx(0));
        let _ = s.evaluate(2, Picos(900), Picos::ZERO, &ctx(0));
        // Cycle 1: boundary 1 now has select 1 -> can mask up to 80ps.
        let _ = s.evaluate(0, Picos(900), Picos::ZERO, &ctx(1));
        assert_eq!(s.select_at(1), 1);
        let out = s.evaluate(1, Picos(1070), Picos(40), &ctx(1));
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos(80),
                flagged: true
            }
        );
    }

    #[test]
    fn two_stage_error_without_relay_escapes() {
        let mut s = TimberFfScheme::new(sched(), 3);
        // Boundary 1 with select 0 sees a 70ps overshoot directly.
        let out = s.evaluate(1, Picos(1070), Picos::ZERO, &ctx(0));
        assert_eq!(out, StageOutcome::Corrupted);
    }

    #[test]
    fn selects_decay_after_clean_cycle() {
        let mut s = TimberFfScheme::new(sched(), 2);
        let _ = s.evaluate(0, Picos(1030), Picos::ZERO, &ctx(0));
        let _ = s.evaluate(1, Picos(900), Picos::ZERO, &ctx(0));
        // Cycle 1: clean everywhere.
        let _ = s.evaluate(0, Picos(900), Picos::ZERO, &ctx(1));
        let _ = s.evaluate(1, Picos(900), Picos::ZERO, &ctx(1));
        // Cycle 2: boundary 1 back to select 0.
        let _ = s.evaluate(0, Picos(900), Picos::ZERO, &ctx(2));
        assert_eq!(s.select_at(1), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut s = TimberFfScheme::new(sched(), 2);
        let _ = s.evaluate(0, Picos(1030), Picos::ZERO, &ctx(0));
        s.reset();
        assert_eq!(s.select_at(0), 0);
        assert_eq!(s.select_at(1), 0);
    }

    #[test]
    fn dag_scheme_consolidates_over_reconvergent_fanin() {
        // Diamond: 0 -> {1, 2} -> 3.
        let mut s = TimberFfScheme::new(sched(), 4).on_topology(&Topology::diamond());
        // Cycle 0: errors at boundaries 1 AND 2.
        let _ = s.evaluate(0, Picos(900), Picos::ZERO, &ctx(0));
        let _ = s.evaluate(1, Picos(1030), Picos::ZERO, &ctx(0));
        let _ = s.evaluate(2, Picos(1030), Picos::ZERO, &ctx(0));
        let _ = s.evaluate(3, Picos(900), Picos::ZERO, &ctx(0));
        // Cycle 1: boundary 3's select is the max of both relays (1).
        let _ = s.evaluate(0, Picos(900), Picos::ZERO, &ctx(1));
        assert_eq!(s.select_at(3), 1);
        // And with the raised select it masks a 2-unit violation.
        let _ = s.evaluate(1, Picos(900), Picos::ZERO, &ctx(1));
        let _ = s.evaluate(2, Picos(900), Picos::ZERO, &ctx(1));
        let out = s.evaluate(3, Picos(1070), Picos(40), &ctx(1));
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos(80),
                flagged: true
            }
        );
    }

    #[test]
    fn dag_relay_follows_edges_not_indices() {
        // Diamond: an error at boundary 1 raises the select of its
        // successor 3, not of boundary 2, which merely follows it in
        // index order.
        let mut s = TimberFfScheme::new(sched(), 4).on_topology(&Topology::diamond());
        for (stage, arrival) in [900, 1030, 900, 900].into_iter().enumerate() {
            let _ = s.evaluate(stage, Picos(arrival), Picos::ZERO, &ctx(0));
        }
        let _ = s.evaluate(0, Picos(900), Picos::ZERO, &ctx(1));
        assert_eq!(s.select_at(2), 0);
        assert_eq!(s.select_at(3), 1);
    }

    #[test]
    fn dag_scheme_on_linear_chain_matches_linear_scheme() {
        // A 3-stage chain given as a topology behaves exactly like the
        // default linear relay over a deterministic event sequence.
        let chain = Topology::new(vec![vec![], vec![0], vec![1]]);
        let mut dag = TimberFfScheme::new(sched(), 3).on_topology(&chain);
        let mut lin = TimberFfScheme::new(sched(), 3);
        let arrivals = [
            [1030i64, 900, 900],
            [900, 1070, 900],
            [900, 900, 900],
            [1030, 900, 900],
            [900, 1070, 1110],
        ];
        for (cycle, row) in arrivals.iter().enumerate() {
            for (stage, &a) in row.iter().enumerate() {
                let d = dag.evaluate(stage, Picos(a), Picos::ZERO, &ctx(cycle as u64));
                let l = lin.evaluate(stage, Picos(a), Picos::ZERO, &ctx(cycle as u64));
                assert_eq!(d, l, "cycle {cycle} stage {stage}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn dag_scheme_rejects_forward_edges() {
        let _ = TimberFfScheme::new(sched(), 2).on_topology(&Topology::new(vec![vec![1], vec![]]));
    }

    #[test]
    #[should_panic(expected = "one boundary per stage")]
    fn dag_scheme_rejects_a_topology_of_another_size() {
        let _ = TimberFfScheme::new(sched(), 3).on_topology(&Topology::diamond());
    }

    #[test]
    fn latch_scheme_borrows_continuously() {
        let mut s = TimberLatchScheme::new(sched(), 2);
        let out = s.evaluate(0, Picos(1023), Picos::ZERO, &ctx(0));
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos(23),
                flagged: false
            }
        );
        // Beyond the TB window: flagged.
        let out = s.evaluate(1, Picos(1100), Picos::ZERO, &ctx(0));
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos(100),
                flagged: true
            }
        );
    }

    #[test]
    fn latch_scheme_corrupts_past_checking_period() {
        let mut s = TimberLatchScheme::new(sched(), 1);
        let out = s.evaluate(0, Picos(1130), Picos::ZERO, &ctx(0));
        assert_eq!(out, StageOutcome::Corrupted);
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(
            TimberFfScheme::new(sched(), 1).name(),
            TimberLatchScheme::new(sched(), 1).name()
        );
    }
}
