//! Error-relay logic for the TIMBER flip-flop (paper §5.1, Fig. 4).
//!
//! The relay rule: a flop `g` that suffered an error emits select
//! output `S(g) + 1` (otherwise 0); a downstream flop `f`'s select
//! input is the **maximum** over the select outputs of the TIMBER flops
//! in its combinational fanin cone. This guarantees `f` can borrow one
//! more interval than any upstream flop just borrowed, masking a
//! multi-stage error if it propagates.
//!
//! The relay is combinational and must settle before the next rising
//! clock edge; since the error signal is latched on the falling edge,
//! it has half a clock period. [`RelayEstimate`] models its delay and
//! area from the fanin-cone statistics (the paper's Fig. 8 i-a/i-b).

use timber_netlist::{Area, Picos};
use timber_telemetry::{EventKind, NoopSink, TelemetrySink};

use crate::schedule::CheckingPeriod;

/// Pure relay combinational rules.
#[derive(Debug, Clone, Copy)]
pub struct ErrorRelay {
    schedule: CheckingPeriod,
}

impl ErrorRelay {
    /// Creates relay logic for `schedule`.
    pub fn new(schedule: &CheckingPeriod) -> ErrorRelay {
        ErrorRelay {
            schedule: *schedule,
        }
    }

    /// Select output of one flop given whether it saw an error and its
    /// current select input: [`CheckingPeriod::relayed_select`] on an
    /// error, otherwise 0.
    pub fn select_output(&self, error: bool, select_in: u8) -> u8 {
        if error {
            self.schedule.relayed_select(select_in)
        } else {
            0
        }
    }

    /// Select input of a downstream flop: the max over its fanin cone's
    /// select outputs (zero for an empty cone).
    pub fn consolidate(&self, outputs: &[u8]) -> u8 {
        let max = outputs.iter().copied().max().unwrap_or(0);
        max.min(self.schedule.k() - 1)
    }
}

/// Cycle-accurate error-relay propagation over an arbitrary netlist.
///
/// Where `timber_schemes::LawScheme` relays between whole stage
/// boundaries, `NetlistRelay` runs the rule on real fanin cones: on
/// each clock cycle, every TIMBER flop publishes its select output
/// (`select_in + 1` on error, else 0) and every flop's next select
/// input is the max over the select outputs of the TIMBER flops in its
/// combinational fanin cone.
#[derive(Debug, Clone)]
pub struct NetlistRelay {
    relay: ErrorRelay,
    /// `cones[i]` = indices (into the replaced set) of flop i's relay
    /// sources.
    cones: Vec<Vec<usize>>,
    selects: Vec<u8>,
    /// Clock cycles stepped so far; timestamps telemetry events.
    cycle: u64,
}

impl NetlistRelay {
    /// Builds the relay network for the `replaced` flops of a netlist.
    ///
    /// Each replaced flop's relay cone is the intersection of its
    /// combinational fanin cone with the replaced set.
    pub fn from_netlist(
        netlist: &timber_netlist::Netlist,
        replaced: &[timber_netlist::FlopId],
        schedule: &CheckingPeriod,
    ) -> NetlistRelay {
        let index_of: std::collections::HashMap<timber_netlist::FlopId, usize> =
            replaced.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        let cones = replaced
            .iter()
            .map(|&f| {
                timber_netlist::fanin_cone(netlist, f)
                    .into_iter()
                    .filter_map(|g| index_of.get(&g).copied())
                    .collect()
            })
            .collect();
        NetlistRelay {
            relay: ErrorRelay::new(schedule),
            cones,
            selects: vec![0; replaced.len()],
            cycle: 0,
        }
    }

    /// Number of TIMBER flops in the network.
    pub fn len(&self) -> usize {
        self.cones.len()
    }

    /// True when the network is empty.
    pub fn is_empty(&self) -> bool {
        self.cones.is_empty()
    }

    /// Current select input of flop `i` (index into the replaced set).
    pub fn select(&self, i: usize) -> u8 {
        self.selects[i]
    }

    /// Advances one clock cycle: `errors[i]` says whether replaced flop
    /// `i` masked a timing error this cycle. Returns the new select
    /// inputs (in force for the *next* cycle).
    ///
    /// # Panics
    ///
    /// Panics if `errors.len()` differs from the network size.
    pub fn step(&mut self, errors: &[bool]) -> &[u8] {
        self.step_telemetry(errors, &mut NoopSink)
    }

    /// [`NetlistRelay::step`] with telemetry: every flop whose select
    /// input becomes non-zero (i.e. an upstream error was relayed to
    /// it) emits a [`EventKind::Relay`] event stamped with the relay's
    /// internal cycle counter.
    ///
    /// # Panics
    ///
    /// Panics if `errors.len()` differs from the network size.
    pub fn step_telemetry<S: TelemetrySink>(&mut self, errors: &[bool], sink: &mut S) -> &[u8] {
        assert_eq!(errors.len(), self.cones.len(), "one error bit per flop");
        let outputs: Vec<u8> = self
            .selects
            .iter()
            .zip(errors)
            .map(|(&sel, &err)| self.relay.select_output(err, sel))
            .collect();
        self.selects = self
            .cones
            .iter()
            .map(|cone| {
                let outs: Vec<u8> = cone.iter().map(|&src| outputs[src]).collect();
                self.relay.consolidate(&outs)
            })
            .collect();
        if S::ENABLED {
            for (i, &sel) in self.selects.iter().enumerate() {
                if sel > 0 {
                    sink.event(
                        self.cycle,
                        EventKind::Relay {
                            stage: i as u32,
                            select: u32::from(sel),
                        },
                    );
                }
            }
        }
        self.cycle += 1;
        &self.selects
    }

    /// Clock cycles stepped since construction or [`NetlistRelay::reset`].
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Resets all selects to zero and the cycle counter.
    pub fn reset(&mut self) {
        self.selects.iter_mut().for_each(|s| *s = 0);
        self.cycle = 0;
    }
}

/// Delay/area estimate of one flop's relay network.
///
/// The select-output generator is a 2-bit conditional incrementer
/// (≈4 gates); consolidating `m` sources takes a binary tree of 2-bit
/// max cells (≈3 gates each, `m − 1` cells, `ceil(log2 m)` levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayEstimate {
    /// Number of TIMBER flops in the fanin cone that are themselves
    /// start-and-end points (only they contribute select outputs).
    pub sources: usize,
    /// Delay per logic level.
    pub gate_delay: Picos,
    /// Area of one equivalent gate.
    pub gate_area: Area,
}

impl RelayEstimate {
    /// Creates an estimate with the standard-library-consistent gate
    /// delay (a 2-bit max cell ≈ one complex-gate level, 30 ps) and
    /// area (2 inverter-equivalents per gate).
    pub fn new(sources: usize) -> RelayEstimate {
        RelayEstimate {
            sources,
            gate_delay: Picos(30),
            gate_area: Area(2.0),
        }
    }

    /// Logic depth of the relay network in gate levels.
    pub fn depth(&self) -> usize {
        if self.sources <= 1 {
            // Select-output generation only.
            1
        } else {
            1 + (usize::BITS - (self.sources - 1).leading_zeros()) as usize
        }
    }

    /// Worst-case settle time of the relay network.
    pub fn delay(&self) -> Picos {
        self.gate_delay * self.depth() as i64
    }

    /// Timing slack of the relay against its half-cycle budget,
    /// expressed as a percentage of half the clock period (the paper's
    /// Fig. 8 i-b metric).
    pub fn slack_pct(&self, period: Picos) -> f64 {
        let budget = period / 2;
        100.0 * (budget - self.delay()).ratio(budget)
    }

    /// Gate count of the relay network: one conditional incrementer
    /// (4 gates) plus `max(sources − 1, 0)` 2-bit max cells of 3 gates.
    pub fn gate_count(&self) -> usize {
        4 + 3 * self.sources.saturating_sub(1)
    }

    /// Total relay area.
    pub fn area(&self) -> Area {
        self.gate_area * self.gate_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relay() -> ErrorRelay {
        let s = CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap();
        ErrorRelay::new(&s)
    }

    #[test]
    fn select_output_increments_on_error() {
        let r = relay();
        assert_eq!(r.select_output(false, 0), 0);
        assert_eq!(r.select_output(false, 2), 0);
        assert_eq!(r.select_output(true, 0), 1);
        assert_eq!(r.select_output(true, 1), 2);
    }

    #[test]
    fn select_output_saturates() {
        let r = relay();
        assert_eq!(r.select_output(true, 2), 2);
    }

    #[test]
    fn consolidate_takes_max() {
        let r = relay();
        assert_eq!(r.consolidate(&[]), 0);
        assert_eq!(r.consolidate(&[0, 0]), 0);
        assert_eq!(r.consolidate(&[0, 2, 1]), 2);
    }

    #[test]
    fn netlist_relay_propagates_selects_downstream() {
        use timber_netlist::{CellLibrary, FlopId, NetlistBuilder};
        // Chain: f0 -> logic -> f1 -> logic -> f2.
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a");
        let q0 = b.flop("f0", a);
        let x = b.gate("inv", &[q0]).unwrap();
        let q1 = b.flop("f1", x);
        let y = b.gate("inv", &[q1]).unwrap();
        let q2 = b.flop("f2", y);
        b.output("o", q2);
        let nl = b.finish().unwrap();

        let sched = CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap();
        let replaced = vec![FlopId(0), FlopId(1), FlopId(2)];
        let mut relay = NetlistRelay::from_netlist(&nl, &replaced, &sched);
        assert_eq!(relay.len(), 3);

        // Cycle 0: error at f0 only.
        relay.step(&[true, false, false]);
        assert_eq!(relay.select(0), 0);
        assert_eq!(relay.select(1), 1, "f1 must prepare to borrow 2 units");
        assert_eq!(relay.select(2), 0);

        // Cycle 1: the error propagates to f1.
        relay.step(&[false, true, false]);
        assert_eq!(relay.select(2), 2, "f2 sees f1's incremented select");
        assert_eq!(relay.select(1), 0, "f0 was clean, f1's input decays");

        // Cycle 2: everything clean again.
        relay.step(&[false, false, false]);
        assert_eq!(relay.select(0), 0);
        assert_eq!(relay.select(1), 0);
        assert_eq!(relay.select(2), 0);
    }

    #[test]
    fn netlist_relay_consolidates_reconvergent_cones() {
        use timber_netlist::{CellLibrary, FlopId, NetlistBuilder};
        // f0 and f1 both feed f2.
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("merge", &lib);
        let a = b.input("a");
        let q0 = b.flop("f0", a);
        let q1 = b.flop("f1", a);
        let m = b.gate("nand2", &[q0, q1]).unwrap();
        let q2 = b.flop("f2", m);
        b.output("o", q2);
        let nl = b.finish().unwrap();

        let sched = CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap();
        let mut relay = NetlistRelay::from_netlist(&nl, &[FlopId(0), FlopId(1), FlopId(2)], &sched);
        // Seed different selects via two error steps.
        relay.step(&[true, false, false]); // f2 input: max(1, 0) = 1
        assert_eq!(relay.select(2), 1);
        relay.step(&[true, true, false]); // outputs: f0 -> 1, f1 -> 1
        assert_eq!(relay.select(2), 1);
        relay.reset();
        assert_eq!(relay.select(2), 0);
        assert!(!relay.is_empty());
    }

    #[test]
    #[should_panic(expected = "one error bit per flop")]
    fn netlist_relay_validates_error_width() {
        use timber_netlist::{CellLibrary, FlopId, NetlistBuilder};
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("one", &lib);
        let a = b.input("a");
        let q = b.flop("f", a);
        b.output("o", q);
        let nl = b.finish().unwrap();
        let sched = CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap();
        let mut relay = NetlistRelay::from_netlist(&nl, &[FlopId(0)], &sched);
        relay.step(&[]);
    }

    #[test]
    fn step_telemetry_records_relay_events() {
        use timber_netlist::{CellLibrary, FlopId, NetlistBuilder};
        use timber_telemetry::{Counter, Recorder, RecorderConfig};
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a");
        let q0 = b.flop("f0", a);
        let x = b.gate("inv", &[q0]).unwrap();
        let q1 = b.flop("f1", x);
        b.output("o", q1);
        let nl = b.finish().unwrap();

        let sched = CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap();
        let mut relay = NetlistRelay::from_netlist(&nl, &[FlopId(0), FlopId(1)], &sched);
        let mut rec = Recorder::new(RecorderConfig::new(2, Picos(1000)));

        relay.step_telemetry(&[true, false], &mut rec);
        relay.step_telemetry(&[false, false], &mut rec);
        assert_eq!(relay.cycles(), 2);
        // Cycle 0: f1's select input went to 1 — exactly one relay.
        assert_eq!(rec.counter(Counter::Relays), 1);
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cycle, 0);

        relay.reset();
        assert_eq!(relay.cycles(), 0);
    }

    #[test]
    fn estimate_depth_grows_logarithmically() {
        assert_eq!(RelayEstimate::new(0).depth(), 1);
        assert_eq!(RelayEstimate::new(1).depth(), 1);
        assert_eq!(RelayEstimate::new(2).depth(), 2);
        assert_eq!(RelayEstimate::new(4).depth(), 3);
        assert_eq!(RelayEstimate::new(8).depth(), 4);
        assert_eq!(RelayEstimate::new(9).depth(), 5);
    }

    #[test]
    fn small_cones_have_large_slack() {
        // The paper's point: relay cones are small, so slack vs the
        // half-cycle budget is large.
        let e = RelayEstimate::new(4);
        let slack = e.slack_pct(Picos(1000));
        assert!(slack > 70.0, "slack {slack}%");
    }

    #[test]
    fn area_and_gate_count() {
        let e = RelayEstimate::new(1);
        assert_eq!(e.gate_count(), 4);
        let e = RelayEstimate::new(5);
        assert_eq!(e.gate_count(), 4 + 12);
        assert!((e.area().0 - 32.0).abs() < 1e-9);
    }
}
