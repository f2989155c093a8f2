//! Behavioural implementations of the baseline techniques.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timber_netlist::Picos;
use timber_pipeline::{CycleContext, Recovery, SequentialScheme, StageOutcome};

/// Razor-style error detection (Razor, MICRO 2003): a shadow latch
/// re-samples the data a speculation window after the clock edge; a
/// mismatch with the main flop triggers a local instruction replay.
///
/// The timing margin is recovered in full, but every detected error
/// costs replay bubbles, the shadow latch loads the clock tree, and
/// short paths must be padded past the speculation window.
///
/// ## Metastability
///
/// A data transition landing inside the main flop's setup/hold aperture
/// can leave it metastable — one of Razor's well-known hazards, and one
/// the TIMBER flip-flop avoids by construction (M1 re-samples the
/// settled value well after the transition; paper §5.1). With
/// [`RazorFf::with_metastability`], arrivals within `±meta_window/2` of
/// the capturing edge trigger the metastability detector and pay an
/// extended resolution penalty instead of a plain replay.
#[derive(Debug, Clone, Copy)]
pub struct RazorFf {
    /// Speculation window after the edge in which errors are caught.
    pub window: Picos,
    /// Replay penalty per detected error, in cycles.
    pub replay_penalty: u32,
    /// Width of the metastability aperture around the edge (zero
    /// disables the model).
    pub meta_window: Picos,
    /// Penalty for resolving a metastable capture, in cycles.
    pub meta_penalty: u32,
}

impl RazorFf {
    /// Creates a Razor flop with the given speculation window, a
    /// 1-cycle replay penalty (the paper's local replay variant), and
    /// metastability modelling disabled.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn new(window: Picos) -> RazorFf {
        assert!(window > Picos::ZERO, "speculation window must be positive");
        RazorFf {
            window,
            replay_penalty: 1,
            meta_window: Picos::ZERO,
            meta_penalty: 0,
        }
    }

    /// Enables the metastability model: arrivals within
    /// `±meta_window/2` of the edge cost `meta_penalty` cycles to
    /// resolve.
    ///
    /// # Panics
    ///
    /// Panics if `meta_window` is negative.
    pub fn with_metastability(mut self, meta_window: Picos, meta_penalty: u32) -> RazorFf {
        assert!(
            meta_window.is_non_negative(),
            "metastability window must be non-negative"
        );
        self.meta_window = meta_window;
        self.meta_penalty = meta_penalty;
        self
    }
}

impl SequentialScheme for RazorFf {
    fn name(&self) -> &str {
        "razor-ff"
    }

    fn evaluate(
        &mut self,
        _stage: usize,
        arrival: Picos,
        _incoming_borrow: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        // Metastability aperture straddles the capturing edge.
        let half_meta = self.meta_window / 2;
        if self.meta_window > Picos::ZERO
            && arrival > ctx.period - half_meta
            && arrival <= ctx.period + half_meta
        {
            return StageOutcome::Detected {
                recovery: Recovery::Replay {
                    penalty_cycles: self.meta_penalty.max(self.replay_penalty),
                },
            };
        }
        if arrival <= ctx.period {
            StageOutcome::Ok
        } else if arrival <= ctx.period + self.window {
            StageOutcome::Detected {
                recovery: Recovery::Replay {
                    penalty_cycles: self.replay_penalty,
                },
            }
        } else {
            // Beyond the speculation window the shadow latch also
            // sampled stale data: silent escape.
            StageOutcome::Corrupted
        }
    }

    fn reset(&mut self) {}

    /// On time up to the edge, less the lower half of the
    /// metastability aperture (`meta_window = 0` leaves the edge).
    /// Stateless.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period - self.meta_window / 2)
    }
}

/// Transition-detector flip-flop (TDTB-style, Bowman DAC 2009 /
/// ICICDT 2008): detects transitions in a window after the edge and
/// recovers with a one-cycle global stall instead of a replay, which
/// avoids Razor's metastability concerns.
#[derive(Debug, Clone, Copy)]
pub struct TransitionDetectorFf {
    /// Detection window after the edge.
    pub window: Picos,
}

impl TransitionDetectorFf {
    /// Creates a transition-detector flop.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn new(window: Picos) -> TransitionDetectorFf {
        assert!(window > Picos::ZERO, "detection window must be positive");
        TransitionDetectorFf { window }
    }
}

impl SequentialScheme for TransitionDetectorFf {
    fn name(&self) -> &str {
        "transition-detector-ff"
    }

    fn evaluate(
        &mut self,
        _stage: usize,
        arrival: Picos,
        _incoming_borrow: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        if arrival <= ctx.period {
            StageOutcome::Ok
        } else if arrival <= ctx.period + self.window {
            StageOutcome::Detected {
                recovery: Recovery::Stall { penalty_cycles: 1 },
            }
        } else {
            StageOutcome::Corrupted
        }
    }

    fn reset(&mut self) {}

    /// Stateless, and on time up to the edge.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period)
    }
}

/// Canary flip-flop error *prediction* (Sato, ISQED 2007): a canary
/// flop samples a delayed copy of the data; if the canary differs from
/// the main flop the data arrived inside the guard band before the
/// edge and an error is predicted — before any corruption.
///
/// Because the guard band must stay reserved, the dynamic-variability
/// timing margin is never actually recovered (the paper's core
/// criticism of prediction techniques).
#[derive(Debug, Clone, Copy)]
pub struct CanaryFf {
    /// Guard band before the edge in which arrivals trigger a
    /// prediction.
    pub guard: Picos,
}

impl CanaryFf {
    /// Creates a canary flop with the given guard band.
    ///
    /// # Panics
    ///
    /// Panics if `guard` is not positive.
    pub fn new(guard: Picos) -> CanaryFf {
        assert!(guard > Picos::ZERO, "guard band must be positive");
        CanaryFf { guard }
    }
}

impl SequentialScheme for CanaryFf {
    fn name(&self) -> &str {
        "canary-ff"
    }

    fn evaluate(
        &mut self,
        _stage: usize,
        arrival: Picos,
        _incoming_borrow: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        if arrival + self.guard <= ctx.period {
            StageOutcome::Ok
        } else if arrival <= ctx.period {
            StageOutcome::Predicted
        } else {
            // The variation outran the prediction (fast local event):
            // prediction techniques cannot catch it.
            StageOutcome::Corrupted
        }
    }

    fn reset(&mut self) {}

    /// On time up to the guard band. Stateless.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period - self.guard)
    }

    fn guard_band(&self, _nominal_period: Picos) -> Picos {
        self.guard
    }
}

/// Soft-edge flip-flop (Wieckowski, CICC 2008): a design-time fixed
/// transparency window that masks small violations by implicit time
/// borrowing. No detection, no flagging — violations beyond the window
/// escape silently.
#[derive(Debug, Clone, Copy)]
pub struct SoftEdgeFf {
    /// Transparency window after the edge.
    pub window: Picos,
}

impl SoftEdgeFf {
    /// Creates a soft-edge flop.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn new(window: Picos) -> SoftEdgeFf {
        assert!(window > Picos::ZERO, "transparency window must be positive");
        SoftEdgeFf { window }
    }
}

impl SequentialScheme for SoftEdgeFf {
    fn name(&self) -> &str {
        "soft-edge-ff"
    }

    fn evaluate(
        &mut self,
        _stage: usize,
        arrival: Picos,
        _incoming_borrow: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        if arrival <= ctx.period {
            StageOutcome::Ok
        } else if arrival <= ctx.period + self.window {
            StageOutcome::Masked {
                borrowed: arrival - ctx.period,
                flagged: false,
            }
        } else {
            StageOutcome::Corrupted
        }
    }

    fn reset(&mut self) {}

    /// Stateless, and on time up to the edge.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period)
    }
}

/// Logical error masking with redundant logic (Choudhury & Mohanram,
/// DATE 2009): redundant logic computes the correct output with a
/// smaller delay when a covered critical path is exercised, masking the
/// error with *zero* borrowed time. Coverage is partial: with
/// probability `1 − coverage` the sensitized path is not covered and
/// the violation escapes.
#[derive(Debug)]
pub struct LogicalMasking {
    /// Fraction of critical-path sensitizations the redundant logic
    /// covers.
    pub coverage: f64,
    /// Delay margin up to which covered paths are corrected.
    pub margin: Picos,
    rng: StdRng,
}

impl LogicalMasking {
    /// Creates a logical-masking scheme.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]` or `margin` is not
    /// positive.
    pub fn new(coverage: f64, margin: Picos, seed: u64) -> LogicalMasking {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0,1]");
        assert!(margin > Picos::ZERO, "margin must be positive");
        LogicalMasking {
            coverage,
            margin,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SequentialScheme for LogicalMasking {
    fn name(&self) -> &str {
        "logical-masking"
    }

    fn evaluate(
        &mut self,
        _stage: usize,
        arrival: Picos,
        _incoming_borrow: Picos,
        ctx: &CycleContext,
    ) -> StageOutcome {
        if arrival <= ctx.period {
            StageOutcome::Ok
        } else if arrival <= ctx.period + self.margin && self.rng.gen_bool(self.coverage) {
            // The redundant logic produced the correct value in time:
            // masked without borrowing.
            StageOutcome::Masked {
                borrowed: Picos::ZERO,
                flagged: false,
            }
        } else {
            StageOutcome::Corrupted
        }
    }

    fn reset(&mut self) {}

    /// On time up to the edge; an on-time arrival draws no coverage
    /// sample, so the RNG state is untouched.
    fn on_time_limit(&self, ctx: &CycleContext) -> Option<Picos> {
        Some(ctx.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CycleContext {
        CycleContext {
            cycle: 0,
            period: Picos(1000),
            nominal_period: Picos(1000),
        }
    }

    #[test]
    fn razor_detects_in_window_and_replays() {
        let mut r = RazorFf::new(Picos(100));
        assert_eq!(
            r.evaluate(0, Picos(990), Picos::ZERO, &ctx()),
            StageOutcome::Ok
        );
        assert_eq!(
            r.evaluate(0, Picos(1050), Picos::ZERO, &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Replay { penalty_cycles: 1 }
            }
        );
        assert_eq!(
            r.evaluate(0, Picos(1150), Picos::ZERO, &ctx()),
            StageOutcome::Corrupted
        );
    }

    #[test]
    fn razor_metastability_aperture_costs_extra() {
        let mut r = RazorFf::new(Picos(100)).with_metastability(Picos(20), 4);
        // Inside the aperture (period ± 10): extended resolution.
        assert_eq!(
            r.evaluate(0, Picos(995), Picos::ZERO, &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Replay { penalty_cycles: 4 }
            }
        );
        assert_eq!(
            r.evaluate(0, Picos(1008), Picos::ZERO, &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Replay { penalty_cycles: 4 }
            }
        );
        // Outside the aperture: plain behaviour.
        assert_eq!(
            r.evaluate(0, Picos(985), Picos::ZERO, &ctx()),
            StageOutcome::Ok
        );
        assert_eq!(
            r.evaluate(0, Picos(1050), Picos::ZERO, &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Replay { penalty_cycles: 1 }
            }
        );
    }

    #[test]
    fn razor_without_metastability_model_is_unchanged_near_edge() {
        let mut r = RazorFf::new(Picos(100));
        assert_eq!(
            r.evaluate(0, Picos(999), Picos::ZERO, &ctx()),
            StageOutcome::Ok
        );
    }

    #[test]
    fn transition_detector_stalls_instead_of_replaying() {
        let mut t = TransitionDetectorFf::new(Picos(100));
        assert_eq!(
            t.evaluate(0, Picos(1050), Picos::ZERO, &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Stall { penalty_cycles: 1 }
            }
        );
    }

    #[test]
    fn canary_predicts_in_guard_band() {
        let mut c = CanaryFf::new(Picos(80));
        assert_eq!(
            c.evaluate(0, Picos(900), Picos::ZERO, &ctx()),
            StageOutcome::Ok
        );
        assert_eq!(
            c.evaluate(0, Picos(950), Picos::ZERO, &ctx()),
            StageOutcome::Predicted
        );
        // A fast variation that jumps past the guard band escapes.
        assert_eq!(
            c.evaluate(0, Picos(1010), Picos::ZERO, &ctx()),
            StageOutcome::Corrupted
        );
        assert_eq!(c.guard_band(Picos(1000)), Picos(80));
    }

    #[test]
    fn soft_edge_masks_silently_within_window() {
        let mut s = SoftEdgeFf::new(Picos(30));
        let out = s.evaluate(0, Picos(1020), Picos::ZERO, &ctx());
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos(20),
                flagged: false
            }
        );
        assert_eq!(
            s.evaluate(0, Picos(1040), Picos::ZERO, &ctx()),
            StageOutcome::Corrupted
        );
    }

    #[test]
    fn logical_masking_with_full_coverage_masks_without_borrowing() {
        let mut l = LogicalMasking::new(1.0, Picos(100), 1);
        let out = l.evaluate(0, Picos(1050), Picos::ZERO, &ctx());
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos::ZERO,
                flagged: false
            }
        );
    }

    #[test]
    fn logical_masking_with_zero_coverage_escapes() {
        let mut l = LogicalMasking::new(0.0, Picos(100), 1);
        assert_eq!(
            l.evaluate(0, Picos(1050), Picos::ZERO, &ctx()),
            StageOutcome::Corrupted
        );
    }

    #[test]
    fn logical_masking_coverage_is_statistical() {
        let mut l = LogicalMasking::new(0.7, Picos(100), 42);
        let n = 10_000;
        let masked = (0..n)
            .filter(|_| {
                matches!(
                    l.evaluate(0, Picos(1050), Picos::ZERO, &ctx()),
                    StageOutcome::Masked { .. }
                )
            })
            .count();
        let rate = masked as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.03, "coverage rate {rate}");
    }

    #[test]
    fn scheme_names_are_unique() {
        let names = [
            RazorFf::new(Picos(1)).name().to_owned(),
            TransitionDetectorFf::new(Picos(1)).name().to_owned(),
            CanaryFf::new(Picos(1)).name().to_owned(),
            SoftEdgeFf::new(Picos(1)).name().to_owned(),
            LogicalMasking::new(0.5, Picos(1), 0).name().to_owned(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    #[should_panic(expected = "guard band must be positive")]
    fn canary_validates_guard() {
        let _ = CanaryFf::new(Picos(0));
    }
}
