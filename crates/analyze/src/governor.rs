//! Explicit-state reachability of both degradation ladders.
//!
//! Each ladder decides only by comparing one per-window signal — flags
//! per estimator window, cold demand per batch — against its escalate
//! and de-escalate thresholds, so three abstract inputs per window — the
//! escalate threshold, zero and, when the thresholds leave one, a
//! dead-zone value strictly between them — cover every transition the
//! concrete machine can take. One breadth-first search over
//! `(state, abstract input) → state` enumerates the whole reachable set;
//! the shared ladder core saturates its own streak counters, so the
//! states it reports are already the finite bisimulation quotient. Two
//! certificates sit on that search:
//!
//! * [`explore`] drives the *real* [`LadderGovernor`] through its
//!   snapshot/restore API, proving the published [`recovery_bound`] and
//!   ladder-maximum period from structure, not from sampled runs;
//! * [`explore_service`] drives the shared core under the service
//!   ladder's law (no deadline), proving that from every reachable state
//!   zero demand reaches nominal within the `retry_after()` batches that
//!   state's level publishes ([`LadderLaw::recovery_windows`]).
//!
//! [`recovery_bound`]: LadderGovernor::recovery_bound

use std::collections::HashSet;
use std::hash::Hash;

use timber_netlist::Picos;
use timber_resilience::ladder::{LadderCore, LadderLaw, TOP};
use timber_resilience::{GovernorConfig, GovernorLevel, GovernorState, LadderGovernor};

/// Guard against configuration families with more distinct states than
/// the window-normalized snapshot can enumerate cheaply; exceeding it
/// yields an *unproven* (not failed) analysis.
const STATE_CAP: usize = 4096;

/// Result of exhaustively exploring one clock-ladder configuration.
#[derive(Debug, Clone)]
pub struct GovernorAnalysis {
    /// Nominal clock period the ladder scales.
    pub nominal: Picos,
    /// Configuration explored.
    pub config: GovernorConfig,
    /// Distinct reachable window-boundary states.
    pub reachable_states: usize,
    /// Worst observed cycles-to-nominal over every reachable state.
    pub worst_recovery_cycles: u64,
    /// The bound the implementation publishes.
    pub published_recovery_bound: u64,
    /// The ladder's published period ceiling.
    pub max_period: Picos,
    /// Largest period actually observed anywhere in the exploration.
    pub observed_max_period: Picos,
    /// Every reachable state returns to nominal within the published
    /// bound under clean input.
    pub recovery_proved: bool,
    /// No reachable cycle ever exceeds the published period ceiling.
    pub period_proved: bool,
}

impl GovernorAnalysis {
    /// True when both published bounds are proved.
    pub fn proved(&self) -> bool {
        self.recovery_proved && self.period_proved
    }
}

/// Result of exhaustively exploring the service ladder under one law.
#[derive(Debug, Clone)]
pub struct ServiceAnalysis {
    /// Law explored.
    pub law: LadderLaw,
    /// Distinct reachable batch-boundary states.
    pub reachable_states: usize,
    /// Worst observed zero-demand batches-to-nominal over every
    /// reachable state.
    pub worst_recovery_batches: u64,
    /// The `retry_after()` the top level publishes, the largest any
    /// state publishes.
    pub published_recovery_batches: u64,
    /// Every reachable state is back at nominal within the
    /// `retry_after()` its own level publishes.
    pub proved: bool,
}

/// The abstract per-window signals that distinguish every transition
/// of a ladder with these thresholds.
fn abstract_inputs(escalate: u64, deescalate: u64) -> Vec<u64> {
    let mut inputs = vec![escalate, 0];
    if deescalate + 1 < escalate {
        inputs.push(deescalate + 1);
    }
    inputs
}

/// Every state reachable from `initial` under `inputs`, in
/// breadth-first order, and whether the search finished within
/// [`STATE_CAP`].
fn reachable<S: Copy + Eq + Hash>(
    initial: S,
    inputs: &[u64],
    mut step: impl FnMut(S, u64) -> S,
) -> (Vec<S>, bool) {
    let mut seen = HashSet::from([initial]);
    let mut states = vec![initial];
    let mut next = 0;
    while let Some(&state) = states.get(next) {
        next += 1;
        for &input in inputs {
            let succ = step(state, input);
            if seen.insert(succ) {
                states.push(succ);
                if states.len() > STATE_CAP {
                    return (states, false);
                }
            }
        }
    }
    (states, true)
}

/// The worst recovery over `states`, and whether the search was
/// complete and every state recovered within its bound (`recover`
/// returns `None` past it).
fn worst_recovery<S: Copy>(
    (states, complete): &(Vec<S>, bool),
    recover: impl Fn(S) -> Option<u64>,
) -> (u64, bool) {
    let recoveries: Vec<_> = states
        .iter()
        .filter(|_| *complete)
        .map(|&s| recover(s))
        .collect();
    let worst = recoveries.iter().flatten().max().copied().unwrap_or(0);
    (worst, *complete && recoveries.iter().all(Option::is_some))
}

/// Exhaustively explores the clock ladder for `(nominal, config)`.
pub fn explore(nominal: Picos, config: GovernorConfig) -> GovernorAnalysis {
    let published = LadderGovernor::new(nominal, config).recovery_bound();
    prove_clock(nominal, config, published)
}

/// [`explore`], checking recovery against `published_recovery_bound`.
pub(crate) fn prove_clock(
    nominal: Picos,
    config: GovernorConfig,
    published_recovery_bound: u64,
) -> GovernorAnalysis {
    let mut observed_max_period = Picos::ZERO;
    let search = reachable(
        GovernorState::initial(),
        &abstract_inputs(config.escalate_flags, config.deescalate_flags),
        // One full window from `state`, every flag landing at its
        // first cycle.
        |state, flags| {
            let mut g = LadderGovernor::restore(nominal, config, state);
            (0..flags).for_each(|_| g.flag_error(0));
            for cycle in 0..=config.window {
                observed_max_period = observed_max_period.max(g.period_at(cycle));
            }
            g.state()
        },
    );
    let (worst_recovery_cycles, recovery_proved) = worst_recovery(&search, |state| {
        recovery_from(nominal, config, state, published_recovery_bound)
    });
    let max_period = LadderGovernor::new(nominal, config).max_period();
    GovernorAnalysis {
        nominal,
        config,
        reachable_states: search.0.len(),
        worst_recovery_cycles,
        published_recovery_bound,
        max_period,
        observed_max_period,
        recovery_proved,
        period_proved: search.1 && observed_max_period <= max_period,
    }
}

/// Cycles until the machine restored from `state` is back at nominal
/// under flag-free input, or `None` if it has not recovered within
/// `bound` cycles.
fn recovery_from(
    nominal: Picos,
    config: GovernorConfig,
    state: GovernorState,
    bound: u64,
) -> Option<u64> {
    let mut g = LadderGovernor::restore(nominal, config, state);
    let mut last_non_nominal = None;
    for cycle in 0..=bound {
        if g.period_at(cycle) != nominal {
            last_non_nominal = Some(cycle);
        }
    }
    if g.period_at(bound) != nominal || g.state().level != GovernorLevel::Nominal {
        return None;
    }
    Some(last_non_nominal.map_or(0, |c| c + 1))
}

/// Exhaustively explores the service ladder under `law` (its
/// `ServiceGovernorConfig::law()`).
pub fn explore_service(law: LadderLaw) -> ServiceAnalysis {
    prove_service(law, |level| law.recovery_windows(level))
}

/// [`explore_service`], checking each state's recovery against
/// `published(level)` batches.
pub(crate) fn prove_service(law: LadderLaw, published: impl Fn(u8) -> u64) -> ServiceAnalysis {
    let search = reachable(
        LadderCore::default(),
        &abstract_inputs(law.escalate, law.deescalate),
        |mut core, demand| {
            core.close_window(&law, demand);
            core
        },
    );
    let (worst_recovery_batches, proved) = worst_recovery(&search, |core| {
        batches_to_nominal(&law, core, published(core.level))
    });
    ServiceAnalysis {
        law,
        reachable_states: search.0.len(),
        worst_recovery_batches,
        published_recovery_batches: published(TOP),
        proved,
    }
}

/// Zero-demand batches until `core` is back at nominal, or `None` if it
/// has not recovered within `bound` batches.
fn batches_to_nominal(law: &LadderLaw, mut core: LadderCore, bound: u64) -> Option<u64> {
    for batches in 0..=bound {
        if core.level == 0 {
            return Some(batches);
        }
        core.close_window(law, 0);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GovernorConfig {
        GovernorConfig {
            window: 10,
            escalate_flags: 3,
            deescalate_flags: 0,
            hold_windows: 2,
            deadline_windows: 4,
            latency_cycles: 2,
            ..GovernorConfig::default()
        }
    }

    #[test]
    fn published_bounds_are_proved_for_the_reference_config() {
        let analysis = explore(Picos(1000), cfg());
        assert!(analysis.proved(), "{analysis:?}");
        assert!(analysis.reachable_states > 1);
        assert!(analysis.reachable_states < STATE_CAP);
        assert!(analysis.worst_recovery_cycles <= analysis.published_recovery_bound);
        assert!(
            analysis.worst_recovery_cycles > 0,
            "storms must cost something"
        );
        assert!(analysis.observed_max_period <= analysis.max_period);
        assert!(
            analysis.observed_max_period > Picos(1000),
            "escalation must be reachable"
        );
    }

    #[test]
    fn default_config_is_proved_too() {
        let analysis = explore(Picos(1000), GovernorConfig::default());
        assert!(analysis.proved(), "{analysis:?}");
    }

    #[test]
    fn dead_zone_input_only_exists_when_thresholds_leave_one() {
        assert_eq!(abstract_inputs(3, 0), vec![3, 0, 1]);
        assert_eq!(abstract_inputs(1, 0), vec![1, 0]);
    }

    /// The chaos/storm service ladder (`ServiceGovernorConfig::tight()`).
    const TIGHT: LadderLaw = LadderLaw {
        escalate: 8,
        deescalate: 1,
        hold: 2,
        deadline: None,
    };

    #[test]
    fn service_ladder_is_proved_and_its_bound_is_tight() {
        let analysis = explore_service(TIGHT);
        assert!(analysis.proved, "{analysis:?}");
        // Levels 0..=3, calm streak below hold (or saturated at it at
        // nominal): 3 + 2 + 2 + 2.
        assert_eq!(analysis.reachable_states, 9);
        assert_eq!(analysis.worst_recovery_batches, 6);
        assert_eq!(analysis.published_recovery_batches, 6);
    }

    #[test]
    fn a_clock_bound_one_cycle_below_the_worst_recovery_is_unproven() {
        for config in [cfg(), GovernorConfig::default()] {
            let worst = explore(Picos(1000), config).worst_recovery_cycles;
            assert!(prove_clock(Picos(1000), config, worst).recovery_proved);
            let sabotaged = prove_clock(Picos(1000), config, worst - 1);
            assert!(!sabotaged.recovery_proved, "{sabotaged:?}");
            assert!(!sabotaged.proved());
        }
    }

    #[test]
    fn a_service_bound_one_batch_below_the_worst_recovery_is_unproven() {
        let worst = explore_service(TIGHT).worst_recovery_batches;
        assert!(!prove_service(TIGHT, |_| worst - 1).proved);
        let sabotaged = prove_service(TIGHT, |level| {
            TIGHT.recovery_windows(level).saturating_sub(1)
        });
        assert!(!sabotaged.proved, "{sabotaged:?}");
    }

    #[test]
    fn worst_recovery_is_reproducible_from_a_deep_state() {
        let analysis = explore(Picos(1000), cfg());
        // Drive the real governor into a storm, then measure directly.
        let mut g = LadderGovernor::new(Picos(1000), cfg());
        for cycle in 0..200 {
            let _ = g.period_at(cycle);
            if cycle % 2 == 0 {
                g.flag_error(cycle);
            }
        }
        let storm_state = g.state();
        let measured = recovery_from(
            Picos(1000),
            cfg(),
            storm_state,
            analysis.published_recovery_bound,
        );
        let measured = measured.expect("storm state must recover within the bound");
        assert!(measured <= analysis.worst_recovery_cycles);
    }
}
