//! The one scalar scheme: any capture law on the pipeline simulator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timber_netlist::Picos;
use timber_pipeline::{CycleContext, SequentialScheme, StageOutcome, Topology};

use crate::law::CaptureLaw;

/// Any [`CaptureLaw`] behind the `SequentialScheme` interface; build
/// one with [`CaptureLaw::build`] or
/// [`Registry::build`](crate::Registry::build).
///
/// The law decides every capture. The scheme owns the only state any
/// law keeps: the coverage RNG logical masking draws from, and the
/// TIMBER flip-flop's relay planes. It has no shape of its own: the
/// simulator sizes it through `reset`, and a TIMBER-FF relay follows
/// the simulator's successor lists, so the relay graph and the borrow
/// graph are always the same.
#[derive(Debug)]
pub struct LawScheme {
    law: CaptureLaw,
    seed: u64,
    rng: StdRng,
    /// The relay planes, for `CaptureLaw::TimberFf` once reset.
    relay: Option<Relay>,
}

/// The TIMBER flip-flop's error relay over a boundary graph (paper
/// Fig. 4): each boundary's select input on the next cycle is the max
/// over the select outputs of its predecessors, matching the
/// combinational relay settling during the remaining half cycle.
#[derive(Debug)]
struct Relay {
    topology: Topology,
    /// Select input of each boundary in cycle `cycle`.
    select: Vec<u8>,
    /// Select inputs to apply at the start of the next cycle.
    pending: Vec<u8>,
    /// The cycle `select` is in force for.
    cycle: Option<u64>,
}

impl CaptureLaw {
    /// Builds the scalar scheme, seeding logical masking's coverage
    /// RNG with `seed`. The pipeline simulator sizes it.
    ///
    /// # Panics
    ///
    /// Panics if the law fails [`validate`](Self::validate).
    pub fn build(&self, seed: u64) -> LawScheme {
        self.validate();
        LawScheme {
            law: *self,
            seed,
            rng: StdRng::seed_from_u64(seed),
            relay: None,
        }
    }
}

impl LawScheme {
    /// The law deciding every capture.
    pub fn law(&self) -> &CaptureLaw {
        &self.law
    }

    /// A TIMBER-FF capture: decided at the boundary's relayed select,
    /// and relayed on if masked. Kept out of line, so the stateless
    /// laws' path stays as short as a scheme without relay planes.
    #[inline(never)]
    fn relayed_capture(
        &mut self,
        stage: usize,
        arrival: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        let (Some(relay), CaptureLaw::TimberFf(schedule)) = (&mut self.relay, &self.law) else {
            unreachable!("only a TIMBER-FF scheme holds relay planes");
        };
        // The first capture of a cycle applies the inputs the last
        // evaluated cycle relayed; a recovery bubble evaluates nothing,
        // so it holds them. So does a cycle the simulator leaves out
        // because every boundary is on time and inherits no chain: a
        // relayed select is non-zero only at a boundary whose
        // predecessor masked in the last productive cycle, which
        // inherits a chain and is evaluated, so the select is rolled in
        // the cycle it belongs to. A safe-mode flush ends the chains
        // but not these inputs, so the simulator evaluates every
        // boundary of the cycle after it.
        if relay.cycle != Some(ctx.cycle) {
            relay.cycle = Some(ctx.cycle);
            for (select, pending) in relay.select.iter_mut().zip(&mut relay.pending) {
                *select = std::mem::take(pending);
            }
        }
        let select = relay.select[stage];
        let out = self.law.decide(arrival, ctx.period, select, |_| false);
        if let StageOutcome::Masked { .. } = out {
            // Any other outcome outputs select 0, which leaves every
            // successor's max unchanged.
            let relayed = schedule.relayed_select(select);
            for &q in relay.topology.successors(stage) {
                relay.pending[q] = relay.pending[q].max(relayed);
            }
        }
        out
    }
}

impl SequentialScheme for LawScheme {
    /// # Panics
    ///
    /// Panics at a stage outside the topology a TIMBER-FF scheme was
    /// reset with.
    fn evaluate(&mut self, stage: usize, arrival: Picos, ctx: &CycleContext) -> StageOutcome {
        if self.relay.is_some() {
            return self.relayed_capture(stage, arrival, ctx);
        }
        debug_assert!(
            !matches!(self.law, CaptureLaw::TimberFf(_)),
            "a TIMBER-FF scheme relays along the topology it was reset with"
        );
        let rng = &mut self.rng;
        self.law
            .decide(arrival, ctx.period, 0, |coverage| rng.gen_bool(coverage))
    }

    /// Reseeds the coverage RNG and, for TIMBER-FF, clears the relay
    /// planes and sizes them for `topology`.
    fn reset(&mut self, topology: &Topology) {
        self.rng = StdRng::seed_from_u64(self.seed);
        if let CaptureLaw::TimberFf(_) = self.law {
            self.relay = Some(Relay {
                topology: topology.clone(),
                select: vec![0; topology.len()],
                pending: vec![0; topology.len()],
                cycle: None,
            });
        }
    }

    /// The law's limit. An on-time arrival draws no coverage sample and
    /// relays nothing, so the scheme's state is the same for every
    /// such arrival. It is also the same when the call is omitted at a
    /// boundary that inherits no chain. The relayed selects are the only
    /// state that crosses calls, and an on-time capture reads none; a
    /// pending select is non-zero only at a boundary that inherits a
    /// chain, which the simulator evaluates, so the selects still roll
    /// in the cycle they belong to.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(self.law.on_time_limit(ctx.period))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber::CheckingPeriod;
    use timber_pipeline::{PipelineConfig, PipelineSim};
    use timber_variability::{CompositeVariability, SensitizationModel, StagePathProfile};

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap()
    }

    fn ctx(cycle: u64) -> CycleContext {
        CycleContext {
            cycle,
            period: Picos(1000),
        }
    }

    /// A TIMBER-FF scheme sized for `topology`.
    fn timber_ff(topology: &Topology) -> LawScheme {
        let mut s = CaptureLaw::TimberFf(sched()).build(0);
        s.reset(topology);
        s
    }

    /// A TIMBER latch scheme on a linear pipeline of `stages`.
    fn timber_latch(stages: usize) -> LawScheme {
        let mut s = CaptureLaw::TimberLatch(sched()).build(0);
        s.reset(&Topology::linear(stages));
        s
    }

    /// Boundary `stage`'s select input in the cycle last evaluated.
    fn select_at(s: &LawScheme, stage: usize) -> u8 {
        s.relay.as_ref().expect("a TIMBER-FF scheme").select[stage]
    }

    #[test]
    fn single_stage_error_masked_without_flag() {
        let mut s = timber_ff(&Topology::linear(3));
        let out = s.evaluate(0, Picos(1030), &ctx(0));
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
        let mut s = timber_ff(&Topology::linear(3));
        // Cycle 0: error at boundary 0.
        let _ = s.evaluate(0, Picos(1030), &ctx(0));
        let _ = s.evaluate(1, Picos(900), &ctx(0));
        let _ = s.evaluate(2, Picos(900), &ctx(0));
        // Cycle 1: boundary 1 now has select 1 -> can mask up to 80ps.
        let _ = s.evaluate(0, Picos(900), &ctx(1));
        assert_eq!(select_at(&s, 1), 1);
        let out = s.evaluate(1, Picos(1070), &ctx(1));
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
        let mut s = timber_ff(&Topology::linear(3));
        // Boundary 1 with select 0 sees a 70ps overshoot directly.
        let out = s.evaluate(1, Picos(1070), &ctx(0));
        assert_eq!(out, StageOutcome::Corrupted);
    }

    #[test]
    fn selects_decay_after_clean_cycle() {
        let mut s = timber_ff(&Topology::linear(2));
        let _ = s.evaluate(0, Picos(1030), &ctx(0));
        let _ = s.evaluate(1, Picos(900), &ctx(0));
        // Cycle 1: clean everywhere.
        let _ = s.evaluate(0, Picos(900), &ctx(1));
        let _ = s.evaluate(1, Picos(900), &ctx(1));
        // Cycle 2: boundary 1 back to select 0.
        let _ = s.evaluate(0, Picos(900), &ctx(2));
        assert_eq!(select_at(&s, 1), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut s = timber_ff(&Topology::linear(2));
        let _ = s.evaluate(0, Picos(1030), &ctx(0));
        let _ = s.evaluate(1, Picos(900), &ctx(0));
        s.reset(&Topology::linear(2));
        // Cycle 1 after the reset: the relayed select is gone, so a
        // 70ps overshoot at boundary 1 escapes.
        assert_eq!(select_at(&s, 0), 0);
        assert_eq!(select_at(&s, 1), 0);
        let _ = s.evaluate(0, Picos(900), &ctx(1));
        assert_eq!(select_at(&s, 1), 0);
        assert_eq!(s.evaluate(1, Picos(1070), &ctx(1)), StageOutcome::Corrupted);
    }

    #[test]
    fn dag_scheme_consolidates_over_reconvergent_fanin() {
        // Diamond: 0 -> {1, 2} -> 3.
        let mut s = timber_ff(&Topology::diamond());
        // Cycle 0: errors at boundaries 1 AND 2.
        let _ = s.evaluate(0, Picos(900), &ctx(0));
        let _ = s.evaluate(1, Picos(1030), &ctx(0));
        let _ = s.evaluate(2, Picos(1030), &ctx(0));
        let _ = s.evaluate(3, Picos(900), &ctx(0));
        // Cycle 1: boundary 3's select is the max of both relays (1).
        let _ = s.evaluate(0, Picos(900), &ctx(1));
        assert_eq!(select_at(&s, 3), 1);
        // And with the raised select it masks a 2-unit violation.
        let _ = s.evaluate(1, Picos(900), &ctx(1));
        let _ = s.evaluate(2, Picos(900), &ctx(1));
        let out = s.evaluate(3, Picos(1070), &ctx(1));
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
        let mut s = timber_ff(&Topology::diamond());
        for (stage, arrival) in [900, 1030, 900, 900].into_iter().enumerate() {
            let _ = s.evaluate(stage, Picos(arrival), &ctx(0));
        }
        let _ = s.evaluate(0, Picos(900), &ctx(1));
        assert_eq!(select_at(&s, 2), 0);
        assert_eq!(select_at(&s, 3), 1);
    }

    #[test]
    fn dag_scheme_on_linear_chain_matches_linear_scheme() {
        // A 3-stage chain given by predecessor lists behaves exactly
        // like the built-in linear chain over a deterministic event
        // sequence.
        let mut dag = timber_ff(&Topology::new(vec![vec![], vec![0], vec![1]]));
        let mut lin = timber_ff(&Topology::linear(3));
        let arrivals = [
            [1030i64, 900, 900],
            [900, 1070, 900],
            [900, 900, 900],
            [1030, 900, 900],
            [900, 1070, 1110],
        ];
        for (cycle, row) in arrivals.iter().enumerate() {
            for (stage, &a) in row.iter().enumerate() {
                let d = dag.evaluate(stage, Picos(a), &ctx(cycle as u64));
                let l = lin.evaluate(stage, Picos(a), &ctx(cycle as u64));
                assert_eq!(d, l, "cycle {cycle} stage {stage}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn dag_scheme_rejects_forward_edges() {
        let _ = timber_ff(&Topology::new(vec![vec![1], vec![]]));
    }

    #[test]
    #[should_panic(expected = "one boundary per stage")]
    fn dag_scheme_rejects_a_topology_of_another_size() {
        // The simulator sizes the scheme, so a topology that does not
        // fit the pipeline is refused there.
        let sens = SensitizationModel::uniform(3, Picos(900), 1);
        let var = CompositeVariability::nominal();
        let mut s = CaptureLaw::TimberFf(sched()).build(0);
        let _ = PipelineSim::new(PipelineConfig::new(3, Picos(1000)), &mut s, &sens, &var)
            .on_topology(&Topology::diamond());
    }

    #[test]
    fn latch_scheme_borrows_continuously() {
        let mut s = timber_latch(2);
        let out = s.evaluate(0, Picos(1023), &ctx(0));
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos(23),
                flagged: false
            }
        );
        // Beyond the TB window: flagged.
        let out = s.evaluate(1, Picos(1100), &ctx(0));
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
        let mut s = timber_latch(1);
        let out = s.evaluate(0, Picos(1130), &ctx(0));
        assert_eq!(out, StageOutcome::Corrupted);
    }

    #[test]
    fn one_scheme_follows_each_simulator_that_resets_it() {
        // One TIMBER-FF value runs in a 3-stage linear simulator, then
        // in a 4-stage diamond one; each run must equal a fresh
        // scheme's. Every stage is late on every cycle, so the relay
        // raises selects (and flags) along whichever graph it follows.
        let profiles = |stages: usize| {
            let mut p = StagePathProfile::from_critical(Picos(1030));
            p.p_critical = 1.0;
            p.p_near = 0.0;
            SensitizationModel::new(vec![p; stages], 3)
        };
        let config = |stages: usize| {
            let mut c = PipelineConfig::new(stages, Picos(1000));
            c.slowdown_factor = 0.0;
            c
        };
        let run = |s: &mut LawScheme, topology: &Topology| {
            let sens = profiles(topology.len());
            let var = CompositeVariability::nominal();
            PipelineSim::new(config(topology.len()), s, &sens, &var)
                .on_topology(topology)
                .run(50)
        };
        let law = CaptureLaw::TimberFf(sched());
        let linear = Topology::linear(3);
        let diamond = Topology::diamond();

        let mut reused = law.build(0);
        let first = run(&mut reused, &linear);
        let second = run(&mut reused, &diamond);
        assert_eq!(first, run(&mut law.build(0), &linear));
        assert_eq!(second, run(&mut law.build(0), &diamond));
        assert!(first.flagged > 0 && second.flagged > 0, "the relay ran");
        assert_ne!(first.chain_histogram, second.chain_histogram);
    }
}
