//! Run statistics collected by the pipeline simulator.

use timber_netlist::Picos;

/// Aggregated statistics of one pipeline simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Instructions completed (one per cycle minus recovery bubbles).
    pub instructions: u64,
    /// Violations masked by time borrowing (state stayed correct).
    pub masked: u64,
    /// Masked violations that were also flagged to the controller.
    pub flagged: u64,
    /// Errors detected after corruption and recovered.
    pub detected: u64,
    /// Errors predicted before the edge.
    pub predicted: u64,
    /// Silent data corruptions (escapes).
    pub corrupted: u64,
    /// Bubbles injected by recovery actions.
    pub penalty_cycles: u64,
    /// Cycles executed at a reduced clock frequency.
    pub slow_cycles: u64,
    /// Frequency-reduction episodes.
    pub slowdown_episodes: u64,
    /// Total wall-clock time of the run.
    pub wall_time: Picos,
    /// Histogram of borrow-chain lengths: `chain_histogram[k]` counts
    /// maximal chains of exactly `k+1` consecutive-stage masked
    /// violations (index 0 = single-stage events). This is the
    /// single- vs multi-stage error statistic of the paper's §3.
    pub chain_histogram: Vec<u64>,
    /// Total energy consumed, in relative units: one unit per cycle,
    /// bubbles included, so it equals `cycles`.
    pub energy: f64,
}

impl RunStats {
    /// Instructions per cycle (bubbles reduce it below 1.0).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Instructions per nanosecond of wall-clock time.
    pub fn throughput_per_ns(&self) -> f64 {
        if self.wall_time == Picos::ZERO {
            0.0
        } else {
            self.instructions as f64 / self.wall_time.as_ns()
        }
    }

    /// Throughput loss relative to an ideal run of the same cycle count
    /// at `nominal_period` (0.0 = no loss, 0.1 = 10% slower).
    pub fn throughput_loss(&self, nominal_period: Picos) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let ideal = self.cycles as f64 / (nominal_period.as_ns() * self.cycles as f64);
        let actual = self.throughput_per_ns();
        ((ideal - actual) / ideal).max(0.0)
    }

    /// Total timing violations that reached a sequential element
    /// (masked + detected + corrupted).
    pub fn violations(&self) -> u64 {
        self.masked + self.detected + self.corrupted
    }

    /// Fraction of violation events that were part of a multi-stage
    /// (length ≥ 2) chain.
    pub fn multi_stage_fraction(&self) -> f64 {
        let single = self.chain_histogram.first().copied().unwrap_or(0);
        let multi: u64 = self.chain_histogram.iter().skip(1).sum();
        if single + multi == 0 {
            0.0
        } else {
            multi as f64 / (single + multi) as f64
        }
    }

    /// The run's totals as JSON object members, without braces:
    /// `"instructions"` through `"escalations"` (slowdown episodes),
    /// then `"sim_time_ps"` (simulated wall time). Serve's response
    /// body and soak's trial payload both embed these bytes.
    pub fn totals_json(&self) -> String {
        format!(
            "\"instructions\":{},\"masked\":{},\"flagged\":{},\"detected\":{},\
             \"predicted\":{},\"corrupted\":{},\"penalty_cycles\":{},\"slow_cycles\":{},\
             \"escalations\":{},\"sim_time_ps\":{}",
            self.instructions,
            self.masked,
            self.flagged,
            self.detected,
            self.predicted,
            self.corrupted,
            self.penalty_cycles,
            self.slow_cycles,
            self.slowdown_episodes,
            self.wall_time.as_ps(),
        )
    }

    /// Records a chain of `len` consecutive-stage masked violations.
    pub(crate) fn record_chain(&mut self, len: usize) {
        if len == 0 {
            return;
        }
        if self.chain_histogram.len() < len {
            self.chain_histogram.resize(len, 0);
        }
        self.chain_histogram[len - 1] += 1;
    }

    /// Pre-sizes the chain histogram so [`record_chain`] up to
    /// `max_len` never reallocates (the simulator's hot loop relies on
    /// this). Zero-pads; existing counts are kept.
    ///
    /// [`record_chain`]: RunStats::record_chain
    pub(crate) fn reserve_chains(&mut self, max_len: usize) {
        if self.chain_histogram.len() < max_len {
            self.chain_histogram.resize(max_len, 0);
        }
    }

    /// Folds another run's statistics into this one: counters,
    /// wall-time and energy add; chain histograms add element-wise
    /// (extending to the longer of the two).
    ///
    /// Merging is the reduction step of the Monte-Carlo sweep engine:
    /// merging worker results in trial order gives bit-identical
    /// aggregates regardless of how trials were scheduled onto threads.
    /// Merging with `RunStats::default()` (an empty run) on either side
    /// leaves the meaningful statistics unchanged — though note the
    /// zero-padding of `chain_histogram` is observable via `Vec` length
    /// comparison only, never via any derived metric.
    pub fn merge(&mut self, other: &RunStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.masked += other.masked;
        self.flagged += other.flagged;
        self.detected += other.detected;
        self.predicted += other.predicted;
        self.corrupted += other.corrupted;
        self.penalty_cycles += other.penalty_cycles;
        self.slow_cycles += other.slow_cycles;
        self.slowdown_episodes += other.slowdown_episodes;
        self.wall_time += other.wall_time;
        self.energy += other.energy;
        if self.chain_histogram.len() < other.chain_histogram.len() {
            self.chain_histogram.resize(other.chain_histogram.len(), 0);
        }
        for (mine, theirs) in self.chain_histogram.iter_mut().zip(&other.chain_histogram) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_counts_bubbles() {
        let s = RunStats {
            cycles: 100,
            instructions: 90,
            ..RunStats::default()
        };
        assert!((s.ipc() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn ipc_of_empty_run_is_zero() {
        assert_eq!(RunStats::default().ipc(), 0.0);
        assert_eq!(RunStats::default().throughput_per_ns(), 0.0);
    }

    #[test]
    fn chain_recording_extends_histogram() {
        let mut s = RunStats::default();
        s.record_chain(1);
        s.record_chain(1);
        s.record_chain(3);
        assert_eq!(s.chain_histogram, vec![2, 0, 1]);
        assert!((s.multi_stage_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_loss_zero_for_nominal_run() {
        let s = RunStats {
            cycles: 1000,
            instructions: 1000,
            wall_time: Picos(1000) * 1000,
            ..RunStats::default()
        };
        assert!(s.throughput_loss(Picos(1000)).abs() < 1e-12);
    }

    #[test]
    fn throughput_loss_positive_when_slowed() {
        let s = RunStats {
            cycles: 1000,
            instructions: 950,
            wall_time: Picos(1050) * 1000,
            ..RunStats::default()
        };
        let loss = s.throughput_loss(Picos(1000));
        assert!(loss > 0.0 && loss < 0.2, "loss {loss}");
    }

    fn sample_stats() -> RunStats {
        RunStats {
            cycles: 100,
            instructions: 95,
            masked: 7,
            flagged: 2,
            detected: 1,
            predicted: 3,
            corrupted: 0,
            penalty_cycles: 5,
            slow_cycles: 10,
            slowdown_episodes: 1,
            wall_time: Picos(123_456),
            chain_histogram: vec![6, 1],
            energy: 104.5,
        }
    }

    #[test]
    fn merge_concatenates_unequal_histograms() {
        // Shorter into longer and longer into shorter both add
        // element-wise and extend to the longer length.
        let mut a = RunStats {
            chain_histogram: vec![3, 1],
            ..RunStats::default()
        };
        let b = RunStats {
            chain_histogram: vec![2, 2, 5],
            ..RunStats::default()
        };
        a.merge(&b);
        assert_eq!(a.chain_histogram, vec![5, 3, 5]);

        let mut c = RunStats {
            chain_histogram: vec![2, 2, 5],
            ..RunStats::default()
        };
        c.merge(&RunStats {
            chain_histogram: vec![3, 1],
            ..RunStats::default()
        });
        assert_eq!(c.chain_histogram, vec![5, 3, 5]);
    }

    #[test]
    fn merge_sums_wall_time_and_energy() {
        let mut a = sample_stats();
        let b = sample_stats();
        a.merge(&b);
        assert_eq!(a.wall_time, Picos(2 * 123_456));
        assert!((a.energy - 209.0).abs() < 1e-12);
        assert_eq!(a.cycles, 200);
        assert_eq!(a.instructions, 190);
        assert_eq!(a.masked, 14);
        assert_eq!(a.flagged, 4);
        assert_eq!(a.detected, 2);
        assert_eq!(a.predicted, 6);
        assert_eq!(a.penalty_cycles, 10);
        assert_eq!(a.slow_cycles, 20);
        assert_eq!(a.slowdown_episodes, 2);
        assert_eq!(a.chain_histogram, vec![12, 2]);
    }

    #[test]
    fn merge_with_default_is_identity() {
        // Default on the right.
        let mut a = sample_stats();
        a.merge(&RunStats::default());
        assert_eq!(a, sample_stats());
        // Default on the left.
        let mut b = RunStats::default();
        b.merge(&sample_stats());
        assert_eq!(b, sample_stats());
    }

    #[test]
    fn violations_sum() {
        let s = RunStats {
            masked: 5,
            detected: 3,
            corrupted: 2,
            ..RunStats::default()
        };
        assert_eq!(s.violations(), 10);
    }
}
