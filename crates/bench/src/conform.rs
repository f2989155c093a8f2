//! The `repro conform` gate: the differential conformance campaign
//! from `timber-conformance`, wrapped for the CLI and CI.
//!
//! The gate runs the pinned fault-injection campaign — every
//! `(k_tb, k_ed)` grid point × scheme × burst shape — through both the
//! analytical simulator and the event-driven gate-level replay, and
//! fails on any cross-model divergence, contract violation, metamorphic
//! violation, or coverage hole. The report is byte-identical for any
//! thread count, so CI can diff it.

use timber_conformance::{run_campaign, CampaignReport, CampaignSpec};

/// The pinned base seed the gate runs at.
pub const DEFAULT_SEED: u64 = 7;

/// Runs the campaign: the pinned configuration by default, the larger
/// sweep with `full`. `threads == 0` means all cores (matching the
/// other `repro` subcommands); the thread count never changes the
/// report.
pub fn run(seed: u64, full: bool, sabotage: bool, threads: usize) -> CampaignReport {
    let spec = if full {
        CampaignSpec::full(seed)
    } else {
        CampaignSpec::pinned(seed)
    };
    run_campaign(&spec.threads(threads).sabotage(sabotage))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_gate_passes_at_the_default_seed() {
        let report = run(DEFAULT_SEED, false, false, 4);
        assert!(report.pass(), "{}", report.render());
    }

    #[test]
    fn zero_threads_matches_explicit_threads() {
        let a = run(3, false, false, 0);
        let b = run(3, false, false, 2);
        assert_eq!(a.json(), b.json());
    }
}
