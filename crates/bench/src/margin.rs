//! Margin recovery, measured directly: the minimum clock period each
//! scheme can sustain with zero silent corruption under the stress
//! environment.
//!
//! This is the quantity TIMBER exists to improve (paper §1: online
//! resilience "help\[s\] recover timing margins, improving performance
//! and/or power consumption"). A conventional design must clock at the
//! worst-case arrival; a masking/detecting design can clock at the
//! *nominal* arrival and let the resilience hardware absorb the
//! dynamic-variability tail.

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::{Environment, PipelineConfig, RunStats, SweepSpec};
use timber_schemes::{Registry, SchemeId};
use timber_variability::{SensitizationModel, VariabilityBuilder};

use crate::experiments::{per_trial, SEED, TRIALS};

const STAGES: usize = 5;
/// Nominal (base-design) clock period against which recovered margin is
/// reported.
const NOMINAL: Picos = Picos(1100);

fn run_at(id: SchemeId, period: Picos, cycles: u64, threads: usize) -> RunStats {
    // The schedule scales with the period (the checking period is a
    // fraction of the clock), and with it Razor's speculation window
    // and the canary guard band.
    let schedule = CheckingPeriod::deferred_flagging(period, 24.0).expect("valid");
    let registry = Registry::new(schedule);
    SweepSpec::new(SEED, per_trial(cycles), TRIALS)
        .scheme(id.name(), move |p| Box::new(registry.build(id, p.seed)))
        .env("margin-stress", move |p| Environment {
            config: PipelineConfig::new(STAGES, period),
            sensitization: SensitizationModel::uniform(STAGES, Picos(970), p.seed ^ 0x5EED),
            variability: VariabilityBuilder::new(p.seed)
                .voltage_droop(0.05, 500, 2000.0)
                .local_jitter(0.005)
                .build(),
        })
        .threads(threads)
        .run()
        .cell(0, 0)
        .clone()
}

/// One scheme's operating-point result.
#[derive(Debug, Clone)]
pub struct MarginRow {
    /// Scheme name.
    pub name: String,
    /// Minimum period sustaining zero corruption.
    pub min_safe_period: Picos,
    /// Margin recovered vs the conventional baseline period, percent.
    pub margin_vs_conventional_pct: f64,
    /// Statistics at the minimum safe period.
    pub stats: RunStats,
}

/// Finds, by binary search over the clock period, the fastest safe
/// operating point of every scheme under the identical environment, and
/// reports the margin each recovers relative to the conventional
/// design's requirement.
///
/// `threads` is the worker-thread count (`0` = all available cores).
/// Each binary-search probe is a sweep whose trials run in parallel;
/// the search path itself is deterministic because the sweep results
/// are thread-count invariant.
pub fn margin_recovery(cycles: u64, threads: usize) -> Vec<MarginRow> {
    let schemes = [
        SchemeId::ConventionalFf,
        SchemeId::CanaryFf,
        SchemeId::RazorFf,
        SchemeId::TimberFf,
        SchemeId::TimberLatch,
    ];
    let mut rows: Vec<MarginRow> = schemes
        .iter()
        .map(|&id| {
            // Binary search the smallest period with zero corruption.
            let (mut lo, mut hi) = (Picos(850), NOMINAL);
            debug_assert!(run_at(id, hi, cycles, threads).corrupted == 0);
            while hi - lo > Picos(2) {
                let mid = (lo + hi) / 2;
                if run_at(id, mid, cycles, threads).corrupted == 0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            MarginRow {
                name: id.name().to_owned(),
                min_safe_period: hi,
                margin_vs_conventional_pct: 0.0, // filled below
                stats: run_at(id, hi, cycles, threads),
            }
        })
        .collect();
    let conventional = rows
        .iter()
        .find(|r| r.name == SchemeId::ConventionalFf.name())
        .map(|r| r.min_safe_period)
        .expect("baseline present");
    for r in &mut rows {
        r.margin_vs_conventional_pct =
            100.0 * (conventional - r.min_safe_period).ratio(conventional);
    }
    rows
}

/// Renders the margin-recovery table.
pub fn render_margin(rows: &[MarginRow]) -> String {
    let mut out = String::from(
        "scheme            min safe period   margin recovered   IPC@min   loss%@min\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<17} {:<17} {:<18} {:<9.4} {:.4}\n",
            r.name,
            r.min_safe_period.to_string(),
            format!("{:+.2}%", r.margin_vs_conventional_pct),
            r.stats.ipc(),
            100.0 * r.stats.throughput_loss(r.min_safe_period),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timber_recovers_margin_over_conventional() {
        // One shared (short) search keeps the debug-mode test fast;
        // the `repro margin` binary runs the full-length version.
        let rows = margin_recovery(10_000, 0);
        let period = |n: &str| {
            rows.iter()
                .find(|r| r.name == n)
                .unwrap_or_else(|| panic!("{n}"))
                .min_safe_period
        };
        // TIMBER runs strictly faster than the conventional design.
        assert!(
            period("timber-ff") < period("conventional-ff"),
            "timber {} vs conventional {}",
            period("timber-ff"),
            period("conventional-ff")
        );
        assert!(period("timber-latch") <= period("timber-ff"));
        // Razor also recovers margin (it detects and replays).
        assert!(period("razor-ff") < period("conventional-ff"));
        // The canary guard band cannot beat the conventional
        // requirement (prediction does not mask anything).
        assert!(period("canary-ff") >= period("timber-ff"));

        let conventional = rows.iter().find(|r| r.name == "conventional-ff").unwrap();
        assert!(conventional.margin_vs_conventional_pct.abs() < 1e-9);
        for r in &rows {
            assert_eq!(r.stats.corrupted, 0, "{} must be safe at its min", r.name);
        }
        assert!(!render_margin(&rows).is_empty());
    }
}
