//! Corner-case circuit validation: the reproduction of the paper's
//! "both circuit elements are validated using corner-case circuit
//! simulations".
//!
//! For a sweep of violation sizes, select-input configurations and
//! flag-enable settings, a single TIMBER cell is built at the
//! transmission-gate/latch level in `timber-wavesim`, stimulated with a
//! late data transition, and observed; the observation is compared
//! against the behavioural model's [`crate::CaptureOutcome`] for the
//! same case. Disagreements are reported per case, so any divergence
//! between the schematic and the analytical model is caught exactly
//! where it happens.
//!
//! Violations within a small *electrical guard* (a few gate delays) of
//! a decision boundary (the clock edge, the M1 sampling instant, the
//! TB/checking window edges) are skipped: there the circuit's outcome
//! legitimately depends on gate delays the behavioural model abstracts
//! away.

use timber_netlist::Picos;
use timber_wavesim::{Circuit, Logic};

use crate::circuit::{build_timber_ff, build_timber_latch, TimberFfSpec, TimberLatchSpec};
use crate::flipflop::{CaptureOutcome, TimberFlipFlop};
use crate::latch::TimberLatch;
use crate::schedule::CheckingPeriod;

/// Electrical guard around decision boundaries, in ps.
const BOUNDARY_GUARD: i64 = 8;

/// What the circuit-level simulation showed for one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitObservation {
    /// Q carried the (late) correct data at the end of the cycle.
    pub data_captured: bool,
    /// The error flag was high after the following falling edge.
    pub flagged: bool,
}

/// One validated corner case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerCase {
    /// Data arrival relative to the capturing clock edge (negative =
    /// early).
    pub violation: Picos,
    /// Select input (flip-flop only; 0 for the latch).
    pub select: u8,
    /// What the circuit did.
    pub circuit: CircuitObservation,
    /// What the behavioural model predicted.
    pub behavioural: CaptureOutcome,
    /// Whether they agree.
    pub agrees: bool,
}

/// A full validation sweep.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// All evaluated cases.
    pub cases: Vec<CornerCase>,
    /// Cases skipped because they fell within the electrical guard of
    /// a boundary.
    pub skipped: usize,
}

impl ValidationReport {
    /// Cases where circuit and model disagreed.
    pub fn disagreements(&self) -> Vec<&CornerCase> {
        self.cases.iter().filter(|c| !c.agrees).collect()
    }

    /// True when every evaluated case agreed.
    pub fn all_agree(&self) -> bool {
        self.cases.iter().all(|c| c.agrees)
    }

    /// Number of evaluated cases.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// True when no cases were evaluated.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }
}

fn expected_observation(outcome: CaptureOutcome) -> CircuitObservation {
    match outcome {
        CaptureOutcome::OnTime => CircuitObservation {
            data_captured: true,
            flagged: false,
        },
        CaptureOutcome::Masked { flagged, .. } => CircuitObservation {
            data_captured: true,
            flagged,
        },
        CaptureOutcome::Escaped { .. } => CircuitObservation {
            data_captured: false,
            flagged: false,
        },
    }
}

fn near(v: i64, boundary: i64) -> bool {
    (v - boundary).abs() < BOUNDARY_GUARD
}

/// Runs one flip-flop corner case at the circuit level.
fn run_ff_case(schedule: &CheckingPeriod, select: u8, violation: Picos) -> CircuitObservation {
    let period = schedule.period();
    let delta = schedule.interval() * (i64::from(select) + 1);
    let flag_enable = select + 1 > schedule.k_tb();

    let mut c = Circuit::new();
    let clk = c.signal("clk");
    let d = c.signal("d");
    let cell = build_timber_ff(
        &mut c,
        "dut",
        d,
        clk,
        &TimberFfSpec {
            delta,
            ..TimberFfSpec::default()
        },
    );
    let horizon = period * 4;
    c.clock(clk, period, horizon);
    c.stimulus(
        cell.flag_enable,
        &[(Picos::ZERO, Logic::from_bool(flag_enable))],
    );
    // Data settles low, then rises `violation` after the edge at 2T.
    c.stimulus(
        d,
        &[
            (Picos::ZERO, Logic::Zero),
            (period * 2 + violation, Logic::One),
        ],
    );
    c.watch(cell.q);
    c.watch(cell.err);
    let mut sim = c.into_simulator();
    sim.run_until(horizon);
    // Observe Q just before the next rising edge at 3T, and the flag
    // after the falling edge at 2.5T.
    let q = sim
        .waves()
        .trace(cell.q)
        .expect("watched")
        .value_at(period * 3 - Picos(1));
    let err = sim
        .waves()
        .trace(cell.err)
        .expect("watched")
        .value_at(period * 3 - Picos(1));
    CircuitObservation {
        data_captured: q == Logic::One,
        flagged: err == Logic::One,
    }
}

/// Validates the TIMBER flip-flop circuit against the behavioural model
/// over a violation sweep for every select value.
///
/// `violations` are offsets from the capturing edge; steps inside the
/// electrical guard of a boundary are skipped.
pub fn validate_flipflop(
    schedule: &CheckingPeriod,
    violations: impl IntoIterator<Item = Picos>,
) -> ValidationReport {
    let period = schedule.period();
    let mut cases = Vec::new();
    let mut skipped = 0usize;
    for violation in violations {
        for select in 0..schedule.k() {
            let delta = schedule.interval() * (i64::from(select) + 1);
            if near(violation.as_ps(), 0) || near(violation.as_ps(), delta.as_ps()) {
                skipped += 1;
                continue;
            }
            let mut model = TimberFlipFlop::new(*schedule);
            model.set_select(select);
            let behavioural = model.capture(period + violation, period);
            let circuit = run_ff_case(schedule, select, violation);
            let agrees = circuit == expected_observation(behavioural);
            cases.push(CornerCase {
                violation,
                select,
                circuit,
                behavioural,
                agrees,
            });
        }
    }
    ValidationReport { cases, skipped }
}

/// Runs one latch corner case at the circuit level.
fn run_latch_case(schedule: &CheckingPeriod, violation: Picos) -> CircuitObservation {
    let period = schedule.period();
    let spec = TimberLatchSpec {
        tb_window: schedule.tb_window(),
        checking_window: schedule.checking(),
        latch_delay: Picos(4),
    };
    let mut c = Circuit::new();
    let clk = c.signal("clk");
    let d = c.signal("d");
    let cell = build_timber_latch(&mut c, "dut", d, clk, &spec);
    let horizon = period * 4;
    c.clock(clk, period, horizon);
    c.stimulus(
        d,
        &[
            (Picos::ZERO, Logic::Zero),
            (period * 2 + violation, Logic::One),
        ],
    );
    c.watch(cell.q);
    c.watch(cell.err);
    let mut sim = c.into_simulator();
    sim.run_until(horizon);
    let q = sim
        .waves()
        .trace(cell.q)
        .expect("watched")
        .value_at(period * 3 - Picos(1));
    let err = sim
        .waves()
        .trace(cell.err)
        .expect("watched")
        .value_at(period * 3 - Picos(1));
    CircuitObservation {
        data_captured: q == Logic::One,
        flagged: err == Logic::One,
    }
}

/// Validates the TIMBER latch circuit against the behavioural model.
pub fn validate_latch(
    schedule: &CheckingPeriod,
    violations: impl IntoIterator<Item = Picos>,
) -> ValidationReport {
    let period = schedule.period();
    let tb = (schedule.interval() * i64::from(schedule.k_tb())).as_ps();
    let w = schedule.checking().as_ps();
    let mut cases = Vec::new();
    let mut skipped = 0usize;
    for violation in violations {
        let v = violation.as_ps();
        if near(v, 0) || near(v, tb) || near(v, w) {
            skipped += 1;
            continue;
        }
        let mut model = TimberLatch::new(*schedule);
        let behavioural = model.capture(period + violation, period);
        let circuit = run_latch_case(schedule, violation);
        let agrees = circuit == expected_observation(behavioural);
        cases.push(CornerCase {
            violation,
            select: 0,
            circuit,
            behavioural,
            agrees,
        });
    }
    ValidationReport { cases, skipped }
}

/// A standard violation sweep: from well before the edge to past the
/// checking period, at the given step.
pub fn standard_sweep(schedule: &CheckingPeriod, step: i64) -> Vec<Picos> {
    assert!(step > 0, "sweep step must be positive");
    let hi = schedule.checking().as_ps() + 2 * schedule.interval().as_ps();
    (-3 * step..=hi).step_by(step as usize).map(Picos).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 12.0, 1, 2).unwrap()
    }

    #[test]
    fn flipflop_circuit_matches_model_across_corners() {
        let s = sched();
        let report = validate_flipflop(&s, standard_sweep(&s, 10));
        assert!(
            report.all_agree(),
            "disagreements: {:#?}",
            report.disagreements()
        );
        assert!(report.len() > 30, "sweep must cover many cases");
        assert!(report.skipped > 0, "boundary guard must skip some");
    }

    #[test]
    fn latch_circuit_matches_model_across_corners() {
        let s = sched();
        let report = validate_latch(&s, standard_sweep(&s, 10));
        assert!(
            report.all_agree(),
            "disagreements: {:#?}",
            report.disagreements()
        );
        assert!(report.len() > 10);
    }

    #[test]
    fn wider_checking_period_also_validates() {
        let s = CheckingPeriod::new(Picos(1000), 30.0, 2, 1).unwrap();
        let ff = validate_flipflop(&s, standard_sweep(&s, 25));
        assert!(ff.all_agree(), "{:#?}", ff.disagreements());
        let latch = validate_latch(&s, standard_sweep(&s, 25));
        assert!(latch.all_agree(), "{:#?}", latch.disagreements());
    }

    #[test]
    fn early_arrivals_always_on_time() {
        let s = sched();
        let report = validate_flipflop(&s, [Picos(-200), Picos(-50)]);
        for case in &report.cases {
            assert!(matches!(case.behavioural, CaptureOutcome::OnTime));
            assert!(case.circuit.data_captured);
            assert!(!case.circuit.flagged);
        }
    }

    #[test]
    #[should_panic(expected = "sweep step must be positive")]
    fn sweep_validates_step() {
        let _ = standard_sweep(&sched(), 0);
    }
}
