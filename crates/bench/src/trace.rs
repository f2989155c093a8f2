//! `repro trace` — runs an experiment with telemetry attached and
//! exports the borrow/relay/ED-flag observability data.
//!
//! The trace rides on [`SweepSpec::run_with_telemetry`]: every trial
//! records into its own single-writer recorder and recorders are merged
//! in canonical trial order, so the exported JSON/CSV is byte-identical
//! regardless of `--threads`.
//!
//! [`SweepSpec::run_with_telemetry`]: timber_pipeline::SweepSpec::run_with_telemetry

use timber::CheckingPeriod;
use timber_pipeline::SweepResult;
use timber_telemetry::{render_summary, trace_csv, trace_json, Recorder};

use crate::experiments;

/// Default ring-buffer capacity per sweep cell: the most recent 4096
/// events survive into the exported trace.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A traced experiment: the usual sweep result plus one merged
/// [`Recorder`] per cell.
#[derive(Debug)]
pub struct TraceResult {
    /// Experiment name (`claims` or `claims-netlist`).
    pub experiment: String,
    /// One `(cell name, merged recorder)` pair per sweep cell, in
    /// canonical cell order.
    pub cells: Vec<(String, Recorder)>,
    /// The `(k_tb, k_ed)` schedule each cell ran under, parallel to
    /// `cells` — drives the summary's interval accounting.
    pub schedules: Vec<(u8, u8)>,
    /// The merged statistics (identical to the un-traced experiment).
    pub result: SweepResult,
}

impl TraceResult {
    /// The `--telemetry` JSON document.
    pub fn json(&self) -> String {
        trace_json(&self.experiment, &self.cells)
    }

    /// The CSV event-trace export (one row per surviving event).
    pub fn csv(&self) -> String {
        trace_csv(&self.cells)
    }

    /// Human-readable per-cell summary tables: borrows masked per TB
    /// interval, relays per stage, ED flags and throttle requests —
    /// the paper's `k_tb`/`k_ed` accounting.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ((name, recorder), &(k_tb, k_ed)) in self.cells.iter().zip(&self.schedules) {
            out.push_str(&render_summary(name, recorder, k_tb, k_ed));
            out.push('\n');
        }
        out
    }
}

/// Runs `experiment` with telemetry attached.
///
/// Supported experiments: `claims` and `claims-netlist` (the sweep
/// pipelines instrumented end-to-end).
///
/// # Errors
///
/// Returns an error naming the supported experiments if `experiment`
/// has no telemetry-instrumented path.
pub fn trace_experiment(
    experiment: &str,
    cycles: u64,
    threads: usize,
    ring_capacity: usize,
) -> Result<TraceResult, String> {
    let (result, recorders) = match experiment {
        "claims" => experiments::claims_spec(cycles, threads).run_with_telemetry(ring_capacity),
        "claims-netlist" => {
            let (spec, _period) = experiments::claims_netlist_spec(cycles, threads);
            spec.run_with_telemetry(ring_capacity)
        }
        other => {
            let expected = "expected one of: claims, claims-netlist";
            return Err(format!(
                "experiment {other:?} has no telemetry trace ({expected})"
            ));
        }
    };
    // Both supported experiments put the two flagging policies on the
    // scheme axis against a single environment, so cells == schemes.
    let deferred = CheckingPeriod::deferred_flagging(experiments::PERIOD, 24.0).expect("valid");
    let immediate = CheckingPeriod::immediate_flagging(experiments::PERIOD, 24.0).expect("valid");
    let schedules = vec![
        (deferred.k_tb(), deferred.k_ed()),
        (immediate.k_tb(), immediate.k_ed()),
    ];
    let cells = result
        .scheme_names()
        .iter()
        .cloned()
        .zip(recorders)
        .collect();
    Ok(TraceResult {
        experiment: experiment.to_owned(),
        cells,
        schedules,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber_telemetry::Counter;

    #[test]
    fn unknown_experiment_is_rejected() {
        let err = trace_experiment("fig1", 1_000, 1, 16).unwrap_err();
        assert!(err.contains("no telemetry trace"), "{err}");
    }

    #[test]
    fn claims_trace_matches_untraced_run_and_exports() {
        let t = trace_experiment("claims", 60_000, 1, 64).expect("claims traces");
        assert_eq!(t.cells.len(), 2);
        assert_eq!(t.cells[0].0, "deferred");
        assert_eq!(t.cells[1].0, "immediate");

        // Telemetry counters agree with the merged statistics.
        let plain = experiments::claims(60_000, 1);
        assert_eq!(t.result.cell(0, 0), &plain.deferred);
        assert_eq!(t.cells[0].1.counter(Counter::Masked), plain.deferred.masked);
        assert_eq!(
            t.cells[1].1.counter(Counter::Flagged),
            plain.immediate.flagged
        );

        let json = t.json();
        assert!(json.contains("\"experiment\": \"claims\""));
        assert!(t.csv().starts_with("cell,cycle,kind"));
        let summary = t.render();
        assert!(summary.contains("cell deferred"), "{summary}");
        assert!(summary.contains("TB0="), "{summary}");
    }
}
