//! Search telemetry for the design-space autotuner (`repro tune`).
//!
//! The pipeline-side [`crate::Recorder`] counts *simulation* events and
//! [`crate::service`] counts *service* events; this module counts
//! *search* events: candidates enumerated, feasibility rejections at
//! each filter stage, storm lane-cycles spent, and frontier sizes.
//! Search accounting happens once per candidate — far off any inner
//! loop — so, like the service counters, it uses plain fields rather
//! than the zero-cost sink machinery.
//!
//! Determinism contract: every counter is a pure function of the tune
//! specification (designs, seed, budget). No wall-clock data lives
//! here, so the counters may appear verbatim in byte-identical replay
//! gates.

/// Monotonic autotuner counters, mirroring [`crate::Counter`]'s
/// fixed-array design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum TuneCounter {
    /// Candidate specifications enumerated from the design space.
    Enumerated,
    /// Candidates actually evaluated (within the search budget).
    Evaluated,
    /// Candidates rejected by the `timber-lint` feasibility filter.
    LintRejected,
    /// Candidates rejected because the `timber-analyze` certificate
    /// could not prove them safe (corruptible or widened).
    CertRejected,
    /// Candidates that survived every filter and carry objectives.
    Scored,
    /// Monte-Carlo lane-cycles the storm batteries ran, each battery
    /// counted once however many candidates share it.
    StormLaneCycles,
    /// Points on the emitted Pareto frontiers (all designs).
    FrontierPoints,
    /// Evaluated points pruned as dominated or duplicate.
    DominatedPruned,
    /// Case-study anchor schedules checked against the frontier.
    AnchorChecks,
}

impl TuneCounter {
    /// Number of counters (array-index bound).
    pub const COUNT: usize = 9;

    /// All counters, in index order.
    pub const ALL: [TuneCounter; TuneCounter::COUNT] = [
        TuneCounter::Enumerated,
        TuneCounter::Evaluated,
        TuneCounter::LintRejected,
        TuneCounter::CertRejected,
        TuneCounter::Scored,
        TuneCounter::StormLaneCycles,
        TuneCounter::FrontierPoints,
        TuneCounter::DominatedPruned,
        TuneCounter::AnchorChecks,
    ];

    /// Stable machine-readable name (JSON export key).
    pub fn name(&self) -> &'static str {
        match self {
            TuneCounter::Enumerated => "enumerated",
            TuneCounter::Evaluated => "evaluated",
            TuneCounter::LintRejected => "lint_rejected",
            TuneCounter::CertRejected => "cert_rejected",
            TuneCounter::Scored => "scored",
            TuneCounter::StormLaneCycles => "storm_lane_cycles",
            TuneCounter::FrontierPoints => "frontier_points",
            TuneCounter::DominatedPruned => "dominated_pruned",
            TuneCounter::AnchorChecks => "anchor_checks",
        }
    }
}

/// The autotuner's counter state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneStats {
    counters: [u64; TuneCounter::COUNT],
}

impl TuneStats {
    /// Fresh, all-zero stats.
    pub fn new() -> TuneStats {
        TuneStats::default()
    }

    /// Increments `counter` by `n`.
    pub fn add(&mut self, counter: TuneCounter, n: u64) {
        self.counters[counter as usize] += n;
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: TuneCounter) -> u64 {
        self.counters[counter as usize]
    }

    /// JSON object mapping every counter name to its value, in index
    /// order (deterministic key order for byte-identical replays).
    pub fn json(&self) -> String {
        let fields: Vec<String> = TuneCounter::ALL
            .iter()
            .map(|c| format!("\"{}\":{}", c.name(), self.get(*c)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip_and_names_are_stable() {
        let mut s = TuneStats::new();
        for (i, c) in TuneCounter::ALL.iter().enumerate() {
            s.add(*c, (i + 1) as u64);
        }
        for (i, c) in TuneCounter::ALL.iter().enumerate() {
            assert_eq!(s.get(*c), (i + 1) as u64);
        }
        let json = s.json();
        for c in TuneCounter::ALL {
            assert!(json.contains(c.name()), "{json}");
        }
        // Deterministic key order: enumerated comes first.
        assert!(json.starts_with("{\"enumerated\":1"), "{json}");
    }

    #[test]
    fn all_covers_every_index() {
        assert_eq!(TuneCounter::ALL.len(), TuneCounter::COUNT);
        for (i, c) in TuneCounter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
