//! Max-delay (setup) arrival-time propagation and slack computation.

use timber_netlist::{Driver, InstId, NetId, Netlist, NetlistError, Picos, Sink};

/// Clock constraint applied to a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockConstraint {
    /// Clock period.
    pub period: Picos,
    /// Flip-flop setup time.
    pub setup: Picos,
    /// Flip-flop hold time.
    pub hold: Picos,
    /// Flip-flop clock-to-Q delay.
    pub clk_to_q: Picos,
}

impl ClockConstraint {
    /// A constraint with the given period and default cell timing
    /// (setup 30 ps, hold 20 ps, clk-to-Q 40 ps), representative of the
    /// standard library's flip-flop.
    pub fn with_period(period: Picos) -> ClockConstraint {
        ClockConstraint {
            period,
            setup: Picos(30),
            hold: Picos(20),
            clk_to_q: Picos(40),
        }
    }

    /// The latest permissible data arrival at a flop D pin.
    pub fn required_arrival(&self) -> Picos {
        self.period - self.setup
    }
}

/// Supplies per-arc delays to the analysis.
///
/// The default implementation, [`LibraryDelays`], reads worst-case arc
/// delays straight from the cell library; variability experiments derate
/// through a custom implementation.
pub trait DelayCalculator {
    /// Max-delay for the arc from `pin` of `inst` to its output.
    fn max_arc_delay(&self, netlist: &Netlist, inst: InstId, pin: usize) -> Picos;

    /// Min-delay for the same arc (used by hold analysis). Defaults to
    /// the max delay, which is conservative for setup and optimistic for
    /// hold; [`LibraryDelays`] overrides with the best arc.
    fn min_arc_delay(&self, netlist: &Netlist, inst: InstId, pin: usize) -> Picos {
        self.max_arc_delay(netlist, inst, pin)
    }
}

/// Delay calculator that uses library arc delays unmodified.
#[derive(Debug, Clone, Copy, Default)]
pub struct LibraryDelays;

impl DelayCalculator for LibraryDelays {
    fn max_arc_delay(&self, netlist: &Netlist, inst: InstId, pin: usize) -> Picos {
        let cell = netlist.library().cell(netlist.instance(inst).cell());
        cell.arc(pin).worst()
    }

    fn min_arc_delay(&self, netlist: &Netlist, inst: InstId, pin: usize) -> Picos {
        let cell = netlist.library().cell(netlist.instance(inst).cell());
        cell.arc(pin).best()
    }
}

/// Result of a max-delay timing analysis.
///
/// Arrival times are measured from the capturing clock edge at time 0:
/// primary inputs arrive at 0, flop Q pins at `clk_to_q`.
#[derive(Debug, Clone)]
pub struct TimingAnalysis<'nl> {
    netlist: &'nl Netlist,
    constraint: ClockConstraint,
    /// Max-delay for every instance arc, flat: instance `i`'s arcs sit
    /// at `arc_start[i]..arc_start[i + 1]`, in pin order. Cached so path
    /// enumeration sees exactly the delays the arrival times were
    /// computed with, even for stochastic calculators.
    arc_delays: Vec<Picos>,
    /// Offset of each instance's first arc in `arc_delays`, plus the
    /// total arc count at the end.
    arc_start: Vec<u32>,
    /// Max arrival time at each net.
    arrival: Vec<Picos>,
    /// Max remaining delay from each net to any timing endpoint.
    downstream: Vec<Picos>,
    /// For each net driven by an instance, the input pin realising the
    /// max arrival (for path backtracking).
    critical_pin: Vec<Option<usize>>,
    topo: Vec<InstId>,
}

impl<'nl> TimingAnalysis<'nl> {
    /// Runs analysis with library delays.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational loop; validated
    /// netlists never do. Use [`TimingAnalysis::try_run`] for netlists
    /// of unknown provenance.
    pub fn run(netlist: &'nl Netlist, constraint: &ClockConstraint) -> TimingAnalysis<'nl> {
        TimingAnalysis::run_with(netlist, constraint, &LibraryDelays)
    }

    /// Runs analysis with a caller-supplied delay calculator.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational loop (see
    /// [`TimingAnalysis::try_run_with`]).
    pub fn run_with(
        netlist: &'nl Netlist,
        constraint: &ClockConstraint,
        delays: &dyn DelayCalculator,
    ) -> TimingAnalysis<'nl> {
        TimingAnalysis::try_run_with(netlist, constraint, delays)
            .expect("validated netlist must be acyclic")
    }

    /// Runs analysis with library delays, reporting a combinational
    /// loop (with its full cycle path) instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the combinational
    /// logic is cyclic.
    pub fn try_run(
        netlist: &'nl Netlist,
        constraint: &ClockConstraint,
    ) -> Result<TimingAnalysis<'nl>, NetlistError> {
        TimingAnalysis::try_run_with(netlist, constraint, &LibraryDelays)
    }

    /// Runs analysis with a caller-supplied delay calculator, reporting
    /// a combinational loop instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the combinational
    /// logic is cyclic.
    pub fn try_run_with(
        netlist: &'nl Netlist,
        constraint: &ClockConstraint,
        delays: &dyn DelayCalculator,
    ) -> Result<TimingAnalysis<'nl>, NetlistError> {
        let topo = timber_netlist::topo_order(netlist)?;
        let n = netlist.net_count();
        let mut arrival = vec![Picos::ZERO; n];
        let mut critical_pin = vec![None; n];

        // Snapshot arc delays once, into one flat buffer.
        let mut arc_start = Vec::with_capacity(netlist.instance_count() + 1);
        let mut arc_delays = Vec::new();
        for inst_id in netlist.instance_ids() {
            arc_start.push(arc_delays.len() as u32);
            let pins = netlist.instance(inst_id).inputs().len();
            arc_delays.extend((0..pins).map(|pin| delays.max_arc_delay(netlist, inst_id, pin)));
        }
        arc_start.push(arc_delays.len() as u32);

        // Startpoint arrivals.
        for net_id in netlist.net_ids() {
            arrival[net_id.0 as usize] = match netlist.net(net_id).driver() {
                Some(Driver::PrimaryInput) => Picos::ZERO,
                Some(Driver::FlopQ(_)) => constraint.clk_to_q,
                _ => Picos::MIN,
            };
        }

        // Forward propagation.
        for &inst_id in &topo {
            let inst = netlist.instance(inst_id);
            let arcs = &arc_delays[arc_start[inst_id.0 as usize] as usize..];
            let mut best = Picos::MIN;
            let mut best_pin = None;
            for (pin, &input) in inst.inputs().iter().enumerate() {
                let in_arr = arrival[input.0 as usize];
                if in_arr == Picos::MIN {
                    continue;
                }
                let t = in_arr + arcs[pin];
                if t > best {
                    best = t;
                    best_pin = Some(pin);
                }
            }
            let out = inst.output().0 as usize;
            arrival[out] = best;
            critical_pin[out] = best_pin;
        }

        // Backward propagation of max downstream delay to any endpoint
        // (flop D pin or primary output).
        let mut downstream = vec![Picos::MIN; n];
        for net_id in netlist.net_ids() {
            let is_endpoint = netlist
                .net(net_id)
                .fanout()
                .iter()
                .any(|s| matches!(s, Sink::FlopD(_) | Sink::PrimaryOutput));
            if is_endpoint {
                downstream[net_id.0 as usize] = Picos::ZERO;
            }
        }
        for &inst_id in topo.iter().rev() {
            let inst = netlist.instance(inst_id);
            let out_down = downstream[inst.output().0 as usize];
            if out_down == Picos::MIN {
                continue;
            }
            let arcs = &arc_delays[arc_start[inst_id.0 as usize] as usize..];
            for (pin, &input) in inst.inputs().iter().enumerate() {
                let through = out_down + arcs[pin];
                let slot = &mut downstream[input.0 as usize];
                if through > *slot {
                    *slot = through;
                }
            }
        }

        Ok(TimingAnalysis {
            netlist,
            constraint: *constraint,
            arc_delays,
            arc_start,
            arrival,
            downstream,
            critical_pin,
            topo,
        })
    }

    /// This analysis under another clock constraint with the same
    /// clk-to-Q delay.
    ///
    /// Arrivals start at 0 (primary inputs) or clk-to-Q (flop Q pins)
    /// and add cached arc delays, so arrivals, downstream delays and
    /// critical pins do not depend on the period, setup or hold; only
    /// the constraint is replaced. The result equals a fresh
    /// [`TimingAnalysis::run_with`] under `constraint` whenever the
    /// delay calculator is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `constraint.clk_to_q` differs from this analysis's.
    pub fn retimed(&self, constraint: &ClockConstraint) -> TimingAnalysis<'nl> {
        assert_eq!(
            constraint.clk_to_q, self.constraint.clk_to_q,
            "retiming cannot change clk-to-Q: flop arrivals start there"
        );
        TimingAnalysis {
            constraint: *constraint,
            ..self.clone()
        }
    }

    /// The design under analysis.
    pub fn netlist(&self) -> &'nl Netlist {
        self.netlist
    }

    /// Cached max-delay of an instance arc as used by this analysis.
    pub fn arc_delay(&self, inst: InstId, pin: usize) -> Picos {
        let start = self.arc_start[inst.0 as usize] as usize;
        let end = self.arc_start[inst.0 as usize + 1] as usize;
        self.arc_delays[start..end][pin]
    }

    /// The constraint the analysis was run against.
    pub fn constraint(&self) -> &ClockConstraint {
        &self.constraint
    }

    /// Max arrival time at a net. `Picos::MIN` for unreachable nets.
    pub fn arrival(&self, net: NetId) -> Picos {
        self.arrival[net.0 as usize]
    }

    /// Max delay from `net` to any timing endpoint (flop D or primary
    /// output). `Picos::MIN` if no endpoint is reachable.
    pub fn downstream(&self, net: NetId) -> Picos {
        self.downstream[net.0 as usize]
    }

    /// Input pin realising the max arrival at an instance-driven net.
    pub fn critical_pin(&self, net: NetId) -> Option<usize> {
        self.critical_pin[net.0 as usize]
    }

    /// Slack of a flop D endpoint: `required_arrival - (arrival + setup
    /// margin already folded into required)`.
    pub fn endpoint_slack(&self, arrival: Picos) -> Picos {
        self.constraint.required_arrival() - arrival
    }

    /// Largest arrival over all nets (the design's critical delay,
    /// excluding setup).
    pub fn worst_arrival(&self) -> Picos {
        self.arrival
            .iter()
            .copied()
            .filter(|&a| a != Picos::MIN)
            .fold(Picos::ZERO, Picos::max)
    }

    /// Worst (smallest) endpoint slack in the design.
    pub fn worst_slack(&self) -> Picos {
        self.endpoint_slack(self.worst_arrival())
    }

    /// Topological instance order computed during analysis (exposed for
    /// reuse by incremental passes; C-INTERMEDIATE).
    pub fn topo(&self) -> &[InstId] {
        &self.topo
    }

    /// The single worst path in the design (see [`crate::paths`]).
    pub fn worst_path(&self) -> crate::paths::TimingPath {
        crate::paths::worst_path(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber_netlist::{CellLibrary, NetlistBuilder};

    fn chain(n: usize) -> (Netlist, Vec<NetId>) {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a");
        let mut q = b.flop("f_in", a);
        let mut nets = vec![q];
        for _ in 0..n {
            q = b.gate("buf", &[q]).unwrap();
            nets.push(q);
        }
        let out = b.flop("f_out", q);
        b.output("o", out);
        (b.finish().unwrap(), nets)
    }

    #[test]
    fn arrival_accumulates_along_chain() {
        let (nl, nets) = chain(3);
        let clk = ClockConstraint::with_period(Picos(1000));
        let sta = TimingAnalysis::run(&nl, &clk);
        // buf delay is 28ps; flop Q starts at clk_to_q = 40.
        assert_eq!(sta.arrival(nets[0]), Picos(40));
        assert_eq!(sta.arrival(nets[1]), Picos(68));
        assert_eq!(sta.arrival(nets[2]), Picos(96));
        assert_eq!(sta.arrival(nets[3]), Picos(124));
        assert_eq!(sta.worst_arrival(), Picos(124));
    }

    #[test]
    fn downstream_mirrors_arrival() {
        let (nl, nets) = chain(3);
        let clk = ClockConstraint::with_period(Picos(1000));
        let sta = TimingAnalysis::run(&nl, &clk);
        // From flop Q, three buffers remain to the endpoint.
        assert_eq!(sta.downstream(nets[0]), Picos(84));
        assert_eq!(sta.downstream(nets[3]), Picos(0));
    }

    #[test]
    fn slack_uses_setup() {
        let (nl, _) = chain(1);
        let clk = ClockConstraint::with_period(Picos(200));
        let sta = TimingAnalysis::run(&nl, &clk);
        // arrival = 40 + 28 = 68; required = 200 - 30 = 170.
        assert_eq!(sta.worst_slack(), Picos(102));
    }

    #[test]
    fn negative_slack_detected() {
        let (nl, _) = chain(10);
        let clk = ClockConstraint::with_period(Picos(100));
        let sta = TimingAnalysis::run(&nl, &clk);
        assert!(sta.worst_slack().is_negative());
    }

    #[test]
    fn critical_pin_tracks_slower_input() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let q = b.flop("f", a); // arrives at 40
        let slow = b.gate("buf", &[q]).unwrap(); // 68
        let y = b.gate("nand2", &[q, slow]).unwrap();
        let o = b.flop("fo", y);
        b.output("o", o);
        let nl = b.finish().unwrap();
        let sta = TimingAnalysis::run(&nl, &ClockConstraint::with_period(Picos(1000)));
        // Pin 1 (slow) dominates: 68 + 24 = 92 vs 40 + 24 = 64.
        assert_eq!(sta.critical_pin(y), Some(1));
        assert_eq!(sta.arrival(y), Picos(92));
    }

    #[test]
    fn custom_delay_calculator_derates() {
        struct Doubled;
        impl DelayCalculator for Doubled {
            fn max_arc_delay(&self, nl: &Netlist, inst: InstId, pin: usize) -> Picos {
                LibraryDelays.max_arc_delay(nl, inst, pin) * 2
            }
        }
        let (nl, nets) = chain(2);
        let clk = ClockConstraint::with_period(Picos(1000));
        let base = TimingAnalysis::run(&nl, &clk);
        let slow = TimingAnalysis::run_with(&nl, &clk, &Doubled);
        let last = *nets.last().unwrap();
        assert_eq!(
            slow.arrival(last) - Picos(40),
            (base.arrival(last) - Picos(40)) * 2
        );
    }

    /// Every `timber_netlist` generator, including both tune designs
    /// (`ripple_carry_adder` 16 and `array_multiplier` 8).
    fn every_generator() -> Vec<Netlist> {
        use timber_netlist::{
            alu, array_multiplier, kogge_stone_adder, pipelined_datapath, random_dag,
            ripple_carry_adder, DatapathSpec, RandomDagSpec,
        };
        let lib = CellLibrary::standard();
        vec![
            ripple_carry_adder(&lib, 16).unwrap(),
            array_multiplier(&lib, 8).unwrap(),
            kogge_stone_adder(&lib, 16).unwrap(),
            alu(&lib, 8).unwrap(),
            random_dag(&lib, &RandomDagSpec::default()).unwrap(),
            pipelined_datapath(&lib, &DatapathSpec::uniform(4, 12, 150, 0.7, 17)).unwrap(),
        ]
    }

    #[test]
    fn retimed_analysis_equals_a_fresh_run_at_every_period() {
        use crate::endpoints::{classify_flops, PathDistribution};
        for nl in &every_generator() {
            let base = TimingAnalysis::run(nl, &ClockConstraint::with_period(Picos(1_000_000)));
            let critical = base.worst_arrival();
            for factor in [0.3, 0.6, 0.85, 0.95, 1.0, 1.03, 1.1, 1.5, 4.0] {
                let clk = ClockConstraint {
                    setup: Picos(25),
                    hold: Picos(35),
                    ..ClockConstraint::with_period(critical.scale(factor))
                };
                let fresh = TimingAnalysis::run(nl, &clk);
                let retimed = base.retimed(&clk);
                let at = format!("{} at {}", nl.name(), clk.period);
                assert_eq!(*retimed.constraint(), clk, "{at}");
                for net in nl.net_ids() {
                    assert_eq!(retimed.arrival(net), fresh.arrival(net), "{at}");
                    assert_eq!(retimed.downstream(net), fresh.downstream(net), "{at}");
                    assert_eq!(retimed.critical_pin(net), fresh.critical_pin(net), "{at}");
                }
                for f in nl.flop_ids() {
                    let d = nl.flop(f).d();
                    assert_eq!(
                        retimed.endpoint_slack(retimed.arrival(d)),
                        fresh.endpoint_slack(fresh.arrival(d)),
                        "{at}"
                    );
                }
                assert_eq!(retimed.worst_slack(), fresh.worst_slack(), "{at}");
                assert_eq!(retimed.worst_path(), fresh.worst_path(), "{at}");
                for c_pct in [10.0, 30.0, 50.0] {
                    let threshold = clk.period.scale(1.0 - c_pct / 100.0);
                    assert_eq!(
                        classify_flops(&retimed, threshold),
                        classify_flops(&fresh, threshold),
                        "{at}"
                    );
                    assert_eq!(
                        PathDistribution::replacement_set(&retimed, nl, c_pct),
                        PathDistribution::replacement_set(&fresh, nl, c_pct),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "retiming cannot change clk-to-Q")]
    fn retiming_to_another_clk_to_q_panics() {
        let (nl, _) = chain(2);
        let sta = TimingAnalysis::run(&nl, &ClockConstraint::with_period(Picos(1000)));
        let _ = sta.retimed(&ClockConstraint {
            clk_to_q: Picos(41),
            ..ClockConstraint::with_period(Picos(1000))
        });
    }

    #[test]
    fn required_arrival_subtracts_setup() {
        let c = ClockConstraint::with_period(Picos(500));
        assert_eq!(c.required_arrival(), Picos(470));
    }
}
