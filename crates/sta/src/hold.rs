//! Min-delay (hold) analysis and short-path padding.
//!
//! TIMBER's checking period extends the window after the clock edge in
//! which a stage boundary is still "listening" to its data input, so
//! every short path must be padded to a delay of at least `hold +
//! checking period` (paper §4). This module computes the per-endpoint
//! deficits and a buffer-insertion plan whose cost feeds the
//! `timber-power` overhead model.

use timber_netlist::{Driver, FlopId, Netlist, NetlistError, Picos, Sink};

use crate::analysis::{ClockConstraint, DelayCalculator, LibraryDelays};

/// Result of a min-delay analysis.
#[derive(Debug, Clone)]
pub struct HoldAnalysis {
    /// Min arrival time at each net (`Picos::MAX` when unreachable).
    min_arrival: Vec<Picos>,
    constraint: ClockConstraint,
}

impl HoldAnalysis {
    /// Runs min-delay analysis with library best-case arc delays.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational loop; validated
    /// netlists never do. Use [`HoldAnalysis::try_run`] for netlists of
    /// unknown provenance.
    pub fn run(netlist: &Netlist, constraint: &ClockConstraint) -> HoldAnalysis {
        HoldAnalysis::run_with(netlist, constraint, &LibraryDelays)
    }

    /// Runs min-delay analysis with a custom delay calculator.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational loop (see
    /// [`HoldAnalysis::try_run_with`]).
    pub fn run_with(
        netlist: &Netlist,
        constraint: &ClockConstraint,
        delays: &dyn DelayCalculator,
    ) -> HoldAnalysis {
        HoldAnalysis::try_run_with(netlist, constraint, delays)
            .expect("validated netlist must be acyclic")
    }

    /// Runs min-delay analysis, reporting a combinational loop (with
    /// its full cycle path) instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the combinational
    /// logic is cyclic.
    pub fn try_run(
        netlist: &Netlist,
        constraint: &ClockConstraint,
    ) -> Result<HoldAnalysis, NetlistError> {
        HoldAnalysis::try_run_with(netlist, constraint, &LibraryDelays)
    }

    /// Runs min-delay analysis with a custom delay calculator,
    /// reporting a combinational loop instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the combinational
    /// logic is cyclic.
    pub fn try_run_with(
        netlist: &Netlist,
        constraint: &ClockConstraint,
        delays: &dyn DelayCalculator,
    ) -> Result<HoldAnalysis, NetlistError> {
        let topo = timber_netlist::topo_order(netlist)?;
        let mut min_arrival = vec![Picos::MAX; netlist.net_count()];
        for net_id in netlist.net_ids() {
            min_arrival[net_id.0 as usize] = match netlist.net(net_id).driver() {
                Some(Driver::PrimaryInput) => Picos::ZERO,
                Some(Driver::FlopQ(_)) => constraint.clk_to_q,
                _ => Picos::MAX,
            };
        }
        for inst_id in topo {
            let inst = netlist.instance(inst_id);
            let mut best = Picos::MAX;
            for (pin, &input) in inst.inputs().iter().enumerate() {
                let in_arr = min_arrival[input.0 as usize];
                if in_arr == Picos::MAX {
                    continue;
                }
                let t = in_arr + delays.min_arc_delay(netlist, inst_id, pin);
                best = best.min(t);
            }
            min_arrival[inst.output().0 as usize] = best;
        }
        Ok(HoldAnalysis {
            min_arrival,
            constraint: *constraint,
        })
    }

    /// The constraint the analysis was run against. Min arrivals read
    /// only its clk-to-Q, and padding plans only its hold time.
    pub fn constraint(&self) -> &ClockConstraint {
        &self.constraint
    }

    /// Min arrival at a net.
    pub fn min_arrival(&self, net: timber_netlist::NetId) -> Picos {
        self.min_arrival[net.0 as usize]
    }

    /// Builds the padding plan for a checking period.
    ///
    /// Every flop D endpoint needs `min_arrival ≥ hold + checking_period`;
    /// endpoints short of that must be padded with delay buffers.
    pub fn padding_plan(&self, netlist: &Netlist, checking_period: Picos) -> PaddingPlan {
        let floor = self.constraint.hold + checking_period;
        let mut deficits = Vec::new();
        let mut total = Picos::ZERO;
        for net_id in netlist.net_ids() {
            let has_flop_sink = netlist
                .net(net_id)
                .fanout()
                .iter()
                .any(|s| matches!(s, Sink::FlopD(_)));
            if !has_flop_sink {
                continue;
            }
            let arr = self.min_arrival[net_id.0 as usize];
            if arr == Picos::MAX {
                continue;
            }
            if arr < floor {
                let deficit = floor - arr;
                for sink in netlist.net(net_id).fanout() {
                    if let Sink::FlopD(f) = *sink {
                        deficits.push((f, deficit));
                        total += deficit;
                    }
                }
            }
        }
        PaddingPlan {
            floor,
            deficits,
            total_padding: total,
        }
    }
}

/// Buffer-insertion plan to satisfy the extended hold constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaddingPlan {
    /// Required min path delay (`hold + checking period`).
    pub floor: Picos,
    /// Endpoints needing padding and the delay each is short by.
    pub deficits: Vec<(FlopId, Picos)>,
    /// Sum of all deficits.
    pub total_padding: Picos,
}

impl PaddingPlan {
    /// Number of delay buffers required if each contributes `buf_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `buf_delay` is not positive.
    pub fn buffers_needed(&self, buf_delay: Picos) -> usize {
        assert!(buf_delay > Picos::ZERO, "buffer delay must be positive");
        self.deficits
            .iter()
            .map(|(_, d)| ((d.as_ps() + buf_delay.as_ps() - 1) / buf_delay.as_ps()) as usize)
            .sum()
    }

    /// True when no endpoint needs padding.
    pub fn is_empty(&self) -> bool {
        self.deficits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber_netlist::{
        alu, array_multiplier, kogge_stone_adder, pipelined_datapath, random_dag,
        ripple_carry_adder, CellLibrary, DatapathSpec, NetlistBuilder, RandomDagSpec,
    };

    fn direct_and_buffered() -> Netlist {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("hold", &lib);
        let a = b.input("a");
        let q = b.flop("f0", a);
        // Short path: Q straight into the next flop.
        let q1 = b.flop("f_short", q);
        // Longer path through two buffers.
        let x = b.gate("buf", &[q]).unwrap();
        let y = b.gate("buf", &[x]).unwrap();
        let q2 = b.flop("f_long", y);
        b.output("o1", q1);
        b.output("o2", q2);
        b.finish().unwrap()
    }

    #[test]
    fn min_arrival_takes_fastest_route() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let q = b.flop("f", a);
        let fast = b.gate("inv", &[q]).unwrap(); // best arc 14
        let slow = b.gate("buf", &[fast]).unwrap(); // +28
        let m = b.gate("nand2", &[fast, slow]).unwrap(); // best arc 18/20
        let o = b.flop("fo", m);
        b.output("o", o);
        let nl = b.finish().unwrap();
        let h = HoldAnalysis::run(&nl, &ClockConstraint::with_period(Picos(500)));
        // Fast route: 40 + 14 + 18 = 72.
        assert_eq!(h.min_arrival(m), Picos(72));
    }

    #[test]
    fn padding_plan_flags_short_paths_only() {
        let nl = direct_and_buffered();
        let clk = ClockConstraint::with_period(Picos(500));
        let h = HoldAnalysis::run(&nl, &clk);
        // Checking period 100ps: floor = 20 + 100 = 120.
        let plan = h.padding_plan(&nl, Picos(100));
        // f_short sees min arrival 40 (< 120): deficit 80.
        // f_long sees 40 + 28 + 28 = 96 (< 120): deficit 24.
        // f0's D comes from a PI with arrival 0: deficit 120.
        assert_eq!(plan.floor, Picos(120));
        assert_eq!(plan.deficits.len(), 3);
        assert_eq!(plan.total_padding, Picos(80 + 24 + 120));
    }

    #[test]
    fn zero_checking_period_often_needs_no_padding() {
        let nl = direct_and_buffered();
        let clk = ClockConstraint::with_period(Picos(500));
        let h = HoldAnalysis::run(&nl, &clk);
        // floor = hold = 20 < clk_to_q = 40, so register-to-register
        // paths are safe; only the PI-fed flop violates.
        let plan = h.padding_plan(&nl, Picos::ZERO);
        assert_eq!(plan.deficits.len(), 1);
    }

    /// Min arrivals use only `clk_to_q` and `hold`, which
    /// `ClockConstraint::with_period` holds constant, so one analysis
    /// serves every clock and checking period (callers that cache a
    /// design's hold analysis across schedules rely on this).
    #[test]
    fn hold_analysis_does_not_depend_on_the_clock_period() {
        let lib = CellLibrary::standard();
        let designs = [
            ripple_carry_adder(&lib, 16).unwrap(),
            kogge_stone_adder(&lib, 16).unwrap(),
            array_multiplier(&lib, 8).unwrap(),
            alu(&lib, 8).unwrap(),
            random_dag(&lib, &RandomDagSpec::default()).unwrap(),
            pipelined_datapath(&lib, &DatapathSpec::uniform(4, 12, 150, 0.7, 17)).unwrap(),
            direct_and_buffered(),
        ];
        for nl in &designs {
            let fast = HoldAnalysis::run(nl, &ClockConstraint::with_period(Picos(300)));
            let slow = HoldAnalysis::run(nl, &ClockConstraint::with_period(Picos(1_000_000)));
            for net in nl.net_ids() {
                assert_eq!(
                    fast.min_arrival(net),
                    slow.min_arrival(net),
                    "{}",
                    nl.name()
                );
            }
            for checking in [0, 45, 120, 333, 900] {
                assert_eq!(
                    fast.padding_plan(nl, Picos(checking)),
                    slow.padding_plan(nl, Picos(checking)),
                    "{} at checking {checking}ps",
                    nl.name()
                );
            }
        }
    }

    #[test]
    fn buffers_needed_rounds_up() {
        let plan = PaddingPlan {
            floor: Picos(100),
            deficits: vec![(FlopId(0), Picos(50)), (FlopId(1), Picos(57))],
            total_padding: Picos(107),
        };
        // With 28ps buffers: ceil(50/28)=2, ceil(57/28)=3.
        assert_eq!(plan.buffers_needed(Picos(28)), 5);
        assert!(!plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer delay must be positive")]
    fn buffers_needed_validates_delay() {
        let plan = PaddingPlan {
            floor: Picos(0),
            deficits: vec![],
            total_padding: Picos(0),
        };
        let _ = plan.buffers_needed(Picos(0));
    }
}
