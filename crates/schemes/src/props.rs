//! Property-based tests (proptest) for the capture laws' scheme.

#![cfg(test)]

use proptest::prelude::*;

use timber::CheckingPeriod;
use timber_netlist::Picos;
use timber_pipeline::{CycleContext, SequentialScheme, StageOutcome, Topology};
use timber_variability::splitmix64;

use crate::law::CaptureLaw;
use crate::registry::{Registry, SchemeId};
use crate::scheme::LawScheme;

fn razor(window: i64, meta_window: i64, meta_penalty: u32) -> LawScheme {
    CaptureLaw::Razor {
        window: Picos(window),
        meta_window: Picos(meta_window),
        meta_penalty,
    }
    .build(0)
}

fn ctx(period: i64) -> CycleContext {
    CycleContext {
        cycle: 0,
        period: Picos(period),
    }
}

proptest! {
    /// Razor's outcome partition: Ok before the edge, Detected inside
    /// the speculation window, Corrupted beyond — with the
    /// metastability aperture carving Detected out of the region around
    /// the edge.
    #[test]
    fn razor_outcome_partition(
        period in 500i64..2000,
        window in 50i64..300,
        meta in 0i64..40,
        arrival_off in -600i64..900,
    ) {
        let mut r = razor(window, meta, 3);
        let arrival = Picos(period + arrival_off);
        let out = r.evaluate(0, arrival, &ctx(period));
        let half = meta / 2;
        if meta > 0 && arrival_off > -half && arrival_off <= half {
            prop_assert!(matches!(out, StageOutcome::Detected { .. }), "expected Detected");
        } else if arrival_off <= 0 {
            prop_assert_eq!(out, StageOutcome::Ok);
        } else if arrival_off <= window {
            prop_assert!(matches!(out, StageOutcome::Detected { .. }), "expected Detected");
        } else {
            prop_assert_eq!(out, StageOutcome::Corrupted);
        }
    }

    /// Canary never corrupts inside the region its guard band covers,
    /// and never signals when arrivals are clear of the band.
    #[test]
    fn canary_guard_band_semantics(
        period in 500i64..2000,
        guard in 20i64..200,
        arrival_off in -600i64..300,
    ) {
        let mut c = CaptureLaw::Canary { guard: Picos(guard) }.build(0);
        let arrival = Picos(period + arrival_off);
        let out = c.evaluate(0, arrival, &ctx(period));
        if arrival_off + guard <= 0 {
            prop_assert_eq!(out, StageOutcome::Ok);
        } else if arrival_off <= 0 {
            prop_assert_eq!(out, StageOutcome::Predicted);
        } else {
            prop_assert_eq!(out, StageOutcome::Corrupted);
        }
        prop_assert_eq!(c.on_time_limit(&ctx(period)), Some(Picos(period - guard)));
    }

    /// Soft-edge masking is continuous: the borrowed time equals the
    /// violation exactly, never more than the window.
    #[test]
    fn soft_edge_borrow_exact(
        period in 500i64..2000,
        window in 10i64..200,
        overshoot in 1i64..400,
    ) {
        let mut s = CaptureLaw::SoftEdge { window: Picos(window) }.build(0);
        let out = s.evaluate(0, Picos(period + overshoot), &ctx(period));
        if overshoot <= window {
            prop_assert_eq!(out, StageOutcome::Masked {
                borrowed: Picos(overshoot),
                flagged: false,
            });
        } else {
            prop_assert_eq!(out, StageOutcome::Corrupted);
        }
    }

    /// The transition detector and ideal Razor agree on *what* they
    /// catch; they differ only in the recovery mechanism.
    #[test]
    fn tdtb_and_razor_catch_the_same_errors(
        period in 500i64..2000,
        window in 50i64..300,
        arrival_off in -300i64..600,
    ) {
        let mut razor = razor(window, 0, 0);
        let mut tdtb = CaptureLaw::TransitionDetector { window: Picos(window) }.build(0);
        let arrival = Picos(period + arrival_off);
        let r = razor.evaluate(0, arrival, &ctx(period));
        let t = tdtb.evaluate(0, arrival, &ctx(period));
        let caught = |o: &StageOutcome| matches!(o, StageOutcome::Detected { .. });
        prop_assert_eq!(caught(&r), caught(&t));
        prop_assert_eq!(r.state_correct(), t.state_correct());
    }

    /// The relay guarantee: when every per-stage *base* overshoot stays
    /// within one interval, a TIMBER FF pipeline can only corrupt after
    /// a masked chain of at least `k` consecutive stages (where the
    /// select input saturates). Shorter chains are always masked.
    ///
    /// Time-borrow carry-over is applied exactly as in the pipeline
    /// simulator: a borrow at boundary `s` in cycle `t` arrives at
    /// boundary `s+1` in cycle `t+1`.
    #[test]
    fn corruption_requires_chain_of_at_least_k(
        seed in 0u64..60,
        stages in 2usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let schedule = CheckingPeriod::new(Picos(1000), 24.0, 1, 2).expect("valid");
        let k = schedule.k() as usize;
        let interval = schedule.interval().as_ps();
        let mut scheme = CaptureLaw::TimberFf(schedule).build(0);
        scheme.reset(&Topology::linear(stages));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut carry = vec![Picos::ZERO; stages + 1];
        let mut chain = vec![0usize; stages + 1];
        for cycle in 0..500u64 {
            let ctx = CycleContext {
                cycle,
                period: Picos(1000),
            };
            let mut next_carry = vec![Picos::ZERO; stages + 1];
            let mut next_chain = vec![0usize; stages + 1];
            for s in 0..stages {
                // Base delay at most one interval past the period.
                let base = 1000i64 - rng.gen_range(0i64..200)
                    + if rng.gen_bool(0.4) { rng.gen_range(0..=interval) } else { 0 };
                let arrival = carry[s] + Picos(base);
                let outcome = scheme.evaluate(s, arrival, &ctx);
                if !outcome.state_correct() {
                    prop_assert!(chain[s] >= k,
                        "corruption with chain {} < k={k} (seed={seed} cycle={cycle} \
                         stage={s} arrival={arrival} carry={})", chain[s], carry[s]);
                } else if let StageOutcome::Masked { borrowed, .. } = outcome {
                    prop_assert!(borrowed <= schedule.checking());
                    next_carry[s + 1] = borrowed;
                    next_chain[s + 1] = chain[s] + 1;
                }
            }
            carry = next_carry;
            chain = next_chain;
        }
    }
}

/// Every scheme with an on-time limit, with the topology it was reset
/// for: the eight registry schemes on a linear pipeline, Razor with its
/// metastability aperture on, and TIMBER-FF relaying over a random DAG.
/// `pick` chooses one; `seed` seeds any internal randomness and the
/// DAG's edges.
fn limited_scheme(pick: usize, stages: usize, seed: u64) -> (LawScheme, Topology) {
    let schedule = CheckingPeriod::new(Picos(1000), 24.0, 1, 2).expect("valid schedule");
    let registry = Registry::new(schedule);
    let (law, topology) = match pick {
        p if p < SchemeId::ALL.len() => (registry.law(SchemeId::ALL[p]), Topology::linear(stages)),
        8 => (
            CaptureLaw::Razor {
                window: schedule.checking(),
                meta_window: Picos(40),
                meta_penalty: 4,
            },
            Topology::linear(stages),
        ),
        _ => (CaptureLaw::TimberFf(schedule), random_dag(stages, seed)),
    };
    let mut scheme = law.build(seed);
    scheme.reset(&topology);
    (scheme, topology)
}

/// A DAG of `stages` boundaries in which each earlier boundary feeds
/// each later one with probability ½, drawn from `seed`.
fn random_dag(stages: usize, seed: u64) -> Topology {
    let mut n = 0;
    Topology::new(
        (0..stages)
            .map(|b| {
                (0..b)
                    .filter(|_| {
                        n += 1;
                        splitmix64(seed, n) & 1 == 1
                    })
                    .collect()
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The `on_time_limit` contract: two instances driven through one
    /// random history (borrows, relays, detections, clock changes), fed
    /// different arrivals at or below the limit at one step, both
    /// return `Ok` there and agree on every later outcome. With `omit`
    /// set, where that step's boundary inherits no masked violation,
    /// the second instance is not called there at all.
    #[test]
    fn arrivals_within_the_on_time_limit_are_interchangeable(
        pick in 0usize..10,
        stages in 1usize..6,
        seed in any::<u64>(),
        step in 0usize..120,
        // One arrival hugs the limit, where a limit set too late shows.
        slack in (0i64..4, 0i64..400),
        omit in any::<bool>(),
    ) {
        let (mut a, topology) = limited_scheme(pick, stages, seed);
        let (mut b, _) = limited_scheme(pick, stages, seed);
        let cycles = 24u64;
        let step = step % (cycles as usize * stages);
        let mut n = 0u64;
        // Boundaries a predecessor's masked violation reaches this cycle.
        let mut inherits = vec![false; stages];
        for cycle in 0..cycles {
            // Nominal, over-clocked and throttled edges.
            let period = Picos([1000, 880, 1100, 1200][(splitmix64(seed, n) % 4) as usize]);
            let ctx = CycleContext { cycle, period };
            let mut next_inherits = vec![false; stages];
            for (s, &inherited) in inherits.iter().enumerate() {
                n += 1;
                let draw = splitmix64(seed ^ 0xA11, n);
                let (oa, ob) = if cycle as usize * stages + s == step {
                    let limit = a.on_time_limit(&ctx).expect("scheme is limited");
                    prop_assert_eq!(b.on_time_limit(&ctx), Some(limit));
                    let oa = a.evaluate(s, limit - Picos(slack.0), &ctx);
                    let ob = if omit && !inherited {
                        StageOutcome::Ok
                    } else {
                        b.evaluate(s, limit - Picos(slack.1), &ctx)
                    };
                    prop_assert_eq!(oa, StageOutcome::Ok);
                    prop_assert_eq!(ob, StageOutcome::Ok);
                    (oa, ob)
                } else {
                    // Arrivals from well on time to past every window.
                    let arrival = period + Picos((draw % 400) as i64 - 250);
                    (a.evaluate(s, arrival, &ctx), b.evaluate(s, arrival, &ctx))
                };
                prop_assert_eq!(oa, ob, "{} cycle {} stage {}", a.law().id().name(), cycle, s);
                if let StageOutcome::Masked { .. } = oa {
                    for &q in topology.successors(s) {
                        next_inherits[q] = true;
                    }
                }
            }
            inherits = next_inherits;
        }
    }
}
