//! The baseline laws on [`LawScheme`](crate::scheme::LawScheme):
//! Razor, the transition detector, the canary, the soft edge, logical
//! masking and the conventional flop. The TIMBER cells' tests sit with
//! the scheme itself.

#[cfg(test)]
mod tests {
    use timber_netlist::Picos;
    use timber_pipeline::{CycleContext, Recovery, SequentialScheme, StageOutcome, Topology};

    use crate::law::CaptureLaw;
    use crate::scheme::LawScheme;

    fn ctx() -> CycleContext {
        CycleContext {
            cycle: 0,
            period: Picos(1000),
        }
    }

    fn scheme(law: CaptureLaw, seed: u64) -> LawScheme {
        law.build(seed)
    }

    fn razor(window: i64, meta_window: i64, meta_penalty: u32) -> LawScheme {
        scheme(
            CaptureLaw::Razor {
                window: Picos(window),
                meta_window: Picos(meta_window),
                meta_penalty,
            },
            0,
        )
    }

    #[test]
    fn razor_detects_in_window_and_replays() {
        let mut r = razor(100, 0, 0);
        assert_eq!(r.evaluate(0, Picos(990), &ctx()), StageOutcome::Ok);
        assert_eq!(
            r.evaluate(0, Picos(1050), &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Replay { penalty_cycles: 1 }
            }
        );
        assert_eq!(r.evaluate(0, Picos(1150), &ctx()), StageOutcome::Corrupted);
    }

    #[test]
    fn razor_metastability_aperture_costs_extra() {
        let mut r = razor(100, 20, 4);
        // Inside the aperture (period ± 10): extended resolution.
        assert_eq!(
            r.evaluate(0, Picos(995), &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Replay { penalty_cycles: 4 }
            }
        );
        assert_eq!(
            r.evaluate(0, Picos(1008), &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Replay { penalty_cycles: 4 }
            }
        );
        // Outside the aperture: plain behaviour.
        assert_eq!(r.evaluate(0, Picos(985), &ctx()), StageOutcome::Ok);
        assert_eq!(
            r.evaluate(0, Picos(1050), &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Replay { penalty_cycles: 1 }
            }
        );
    }

    #[test]
    fn razor_without_metastability_model_is_unchanged_near_edge() {
        let mut r = razor(100, 0, 0);
        assert_eq!(r.evaluate(0, Picos(999), &ctx()), StageOutcome::Ok);
    }

    #[test]
    fn transition_detector_stalls_instead_of_replaying() {
        let mut t = scheme(CaptureLaw::TransitionDetector { window: Picos(100) }, 0);
        assert_eq!(
            t.evaluate(0, Picos(1050), &ctx()),
            StageOutcome::Detected {
                recovery: Recovery::Stall { penalty_cycles: 1 }
            }
        );
    }

    #[test]
    fn canary_predicts_in_guard_band() {
        let mut c = scheme(CaptureLaw::Canary { guard: Picos(80) }, 0);
        assert_eq!(c.evaluate(0, Picos(900), &ctx()), StageOutcome::Ok);
        assert_eq!(c.evaluate(0, Picos(950), &ctx()), StageOutcome::Predicted);
        // A fast variation that jumps past the guard band escapes.
        assert_eq!(c.evaluate(0, Picos(1010), &ctx()), StageOutcome::Corrupted);
        assert_eq!(c.on_time_limit(&ctx()), Some(Picos(920)));
    }

    #[test]
    fn soft_edge_masks_silently_within_window() {
        let mut s = scheme(CaptureLaw::SoftEdge { window: Picos(30) }, 0);
        let out = s.evaluate(0, Picos(1020), &ctx());
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos(20),
                flagged: false
            }
        );
        assert_eq!(s.evaluate(0, Picos(1040), &ctx()), StageOutcome::Corrupted);
    }

    #[test]
    fn logical_masking_with_full_coverage_masks_without_borrowing() {
        let mut l = scheme(
            CaptureLaw::LogicalMasking {
                coverage: 1.0,
                margin: Picos(100),
            },
            1,
        );
        let out = l.evaluate(0, Picos(1050), &ctx());
        assert_eq!(
            out,
            StageOutcome::Masked {
                borrowed: Picos::ZERO,
                flagged: false
            }
        );
    }

    #[test]
    fn logical_masking_chains_on_a_diamond_are_recorded_once() {
        use timber_pipeline::{PipelineConfig, PipelineSim};
        use timber_variability::{CompositeVariability, SensitizationModel, StagePathProfile};

        // Only boundary 1 of the diamond 0 -> {1, 2} -> 3 is late, and
        // full coverage masks it without borrowing. Each mask starts a
        // chain that the on-time sink ends the next cycle: one length-1
        // chain per mask, recorded at the sink and not also where it
        // started.
        let profiles = [900, 1040, 900, 900]
            .map(|c| {
                let mut p = StagePathProfile::from_critical(Picos(c));
                p.p_critical = 1.0;
                p.p_near = 0.0;
                p
            })
            .to_vec();
        let sens = SensitizationModel::new(profiles, 1);
        let var = CompositeVariability::nominal();
        let mut l = scheme(
            CaptureLaw::LogicalMasking {
                coverage: 1.0,
                margin: Picos(100),
            },
            1,
        );
        let config = PipelineConfig::new(4, Picos(1000));
        let mut sim =
            PipelineSim::new(config, &mut l, &sens, &var).on_topology(&Topology::diamond());
        let stats = sim.run(100);
        assert_eq!(stats.masked, 100);
        assert_eq!(stats.corrupted, 0);
        assert_eq!(stats.chain_histogram, vec![100]);
        assert_eq!(sim.carry()[3], Picos::ZERO, "nothing was borrowed");
    }

    #[test]
    fn logical_masking_with_zero_coverage_escapes() {
        let mut l = scheme(
            CaptureLaw::LogicalMasking {
                coverage: 0.0,
                margin: Picos(100),
            },
            1,
        );
        assert_eq!(l.evaluate(0, Picos(1050), &ctx()), StageOutcome::Corrupted);
    }

    #[test]
    fn reset_replays_the_coverage_draws() {
        let law = CaptureLaw::LogicalMasking {
            coverage: 0.5,
            margin: Picos(100),
        };
        let draws = |l: &mut LawScheme| -> Vec<StageOutcome> {
            (0..64)
                .map(|_| l.evaluate(0, Picos(1050), &ctx()))
                .collect()
        };
        let mut l = scheme(law, 7);
        let first = draws(&mut l);
        l.reset(&Topology::linear(1));
        assert_eq!(draws(&mut l), first);
    }

    #[test]
    fn logical_masking_coverage_is_statistical() {
        let mut l = scheme(
            CaptureLaw::LogicalMasking {
                coverage: 0.7,
                margin: Picos(100),
            },
            42,
        );
        let n = 10_000;
        let masked = (0..n)
            .filter(|_| {
                matches!(
                    l.evaluate(0, Picos(1050), &ctx()),
                    StageOutcome::Masked { .. }
                )
            })
            .count();
        let rate = masked as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.03, "coverage rate {rate}");
    }

    #[test]
    fn scheme_names_are_unique() {
        let laws = [
            CaptureLaw::Razor {
                window: Picos(1),
                meta_window: Picos::ZERO,
                meta_penalty: 0,
            },
            CaptureLaw::TransitionDetector { window: Picos(1) },
            CaptureLaw::Canary { guard: Picos(1) },
            CaptureLaw::SoftEdge { window: Picos(1) },
            CaptureLaw::LogicalMasking {
                coverage: 0.5,
                margin: Picos(1),
            },
            CaptureLaw::Conventional,
        ];
        let mut names: Vec<&str> = laws
            .iter()
            .map(|&law| scheme(law, 0).law().id().name())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), laws.len());
    }

    #[test]
    #[should_panic(expected = "guard band must be positive")]
    fn canary_validates_guard() {
        let _ = scheme(CaptureLaw::Canary { guard: Picos(0) }, 0);
    }
}
