//! Property-based tests for the cache layer's load-bearing claims:
//! canonicalization is injective over distinct specs and stable under
//! request-field reordering, a cache hit serves the exact bytes the
//! cold miss produced — for every scheme in the registry — and the
//! recency-list [`LruCache`] evicts exactly what a tick-and-scan LRU
//! would, and the [`ServiceGovernor`] on the shared ladder core steps
//! exactly as its standalone streak-counting reference did.

#![cfg(test)]

use std::collections::BTreeMap;

use proptest::prelude::*;
use timber_resilience::StormScenario;
use timber_schemes::SchemeId;

use crate::cache::LruCache;
use crate::engine::{Engine, EngineConfig};
use crate::governor::{ServiceGovernor, ServiceGovernorConfig, ServiceLevel, ServiceTransition};
use crate::integrity::{open, seal};
use crate::key::{content_hash, CacheKey};
use crate::spec::{parse_request, DesignId, EvalSpec, Request};

/// Checking percentages drawn in properties (all valid, all snappable).
const PCTS: [f64; 6] = [10.0, 20.0, 24.0, 25.5, 30.0, 50.0];

type Shape = (usize, usize, usize, usize, u8, u8);
type Budget = (usize, u64, u64);

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        0usize..7,
        0usize..8,
        0usize..4,
        0usize..PCTS.len(),
        0u8..4,
        1u8..4,
    )
}

fn budget_strategy() -> impl Strategy<Value = Budget> {
    (1usize..5, 1u64..1000, 0u64..16)
}

fn build_spec(shape: Shape, budget: Budget) -> EvalSpec {
    let (design, scheme, storm, pct, k_tb, k_ed) = shape;
    let (trials, cycles, seed) = budget;
    EvalSpec {
        design: DesignId::EVALUABLE[design],
        scheme: SchemeId::ALL[scheme],
        storm: match storm {
            0 => None,
            i => Some(StormScenario::ALL[i - 1]),
        },
        checking_pct: PCTS[pct],
        k_tb,
        k_ed,
        trials,
        cycles,
        seed,
    }
}

/// Renders a spec as a request line with one of several field orders.
fn request_line(spec: &EvalSpec, order: usize) -> String {
    let fields = [
        format!("\"design\":\"{}\"", spec.design.name()),
        format!("\"scheme\":\"{}\"", spec.scheme.name()),
        format!("\"storm\":\"{}\"", spec.storm_name()),
        format!("\"checking_pct\":{}", spec.checking_pct),
        format!("\"k_tb\":{}", spec.k_tb),
        format!("\"k_ed\":{}", spec.k_ed),
        format!("\"trials\":{}", spec.trials),
        format!("\"cycles\":{}", spec.cycles),
        format!("\"seed\":{}", spec.seed),
    ];
    // A seeded rotation plus a parity flip: enough distinct orderings
    // to exercise order independence without a permutation library.
    let n = fields.len();
    let picked: Vec<String> = (0..n)
        .map(|i| {
            let idx = if order.is_multiple_of(2) {
                (i + order) % n
            } else {
                (n - 1 - i + order) % n
            };
            fields[idx].clone()
        })
        .collect();
    format!("{{{}}}", picked.join(","))
}

/// The reference LRU: a logical tick bumped per touch, victim = the
/// smallest `(tick, key)` pair, found by scanning every entry. Obviously
/// right and O(capacity) per eviction; [`LruCache`] must match it.
struct TickLru {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<CacheKey, (u64, u32)>,
}

impl TickLru {
    fn new(capacity: usize) -> TickLru {
        TickLru {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<&u32> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|slot| {
            slot.0 = tick;
            &slot.1
        })
    }

    fn peek_mut(&mut self, key: &CacheKey) -> Option<&mut u32> {
        self.entries.get_mut(key).map(|slot| &mut slot.1)
    }

    fn remove(&mut self, key: &CacheKey) -> Option<u32> {
        self.entries.remove(key).map(|(_, v)| v)
    }

    fn insert(&mut self, key: CacheKey, value: u32) -> usize {
        self.tick += 1;
        let mut evicted = 0;
        if !self.entries.contains_key(&key) && self.entries.len() == self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, (t, _))| (*t, **k))
                .map(|(k, _)| *k)
                .expect("full cache is non-empty");
            self.entries.remove(&victim);
            evicted = 1;
        }
        self.entries.insert(key, (self.tick, value));
        evicted
    }
}

/// One cache operation: `(op, key, value)`, op 0 = get, 1 = insert,
/// 2 = remove, 3 = peek_mut (overwrite in place).
type CacheOp = (u8, u8, u32);

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    proptest::collection::vec((0u8..4, 0u8..12, any::<u32>()), 0..96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// O(1) eviction changes nothing observable: driven by the same
    /// operations, the recency-list cache and the tick-and-scan
    /// reference agree on every return value, eviction count, length
    /// and key set, at every step and every small capacity.
    #[test]
    fn recency_list_lru_matches_the_tick_scan_reference(
        capacity in 1usize..=8,
        ops in cache_ops(),
    ) {
        let mut fast: LruCache<u32> = LruCache::new(capacity);
        let mut reference = TickLru::new(capacity);
        for (step, (op, k, v)) in ops.into_iter().enumerate() {
            let key = content_hash(&[k]);
            match op {
                0 => prop_assert_eq!(fast.get(&key).copied(), reference.get(&key).copied()),
                1 => prop_assert_eq!(fast.insert(key, v), reference.insert(key, v)),
                2 => prop_assert_eq!(fast.remove(&key), reference.remove(&key)),
                _ => {
                    let a = fast.peek_mut(&key).map(|x| std::mem::replace(x, v));
                    let b = reference.peek_mut(&key).map(|x| std::mem::replace(x, v));
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(fast.len(), reference.entries.len(), "len after step {}", step);
            prop_assert!(
                fast.keys().eq(reference.entries.keys()),
                "keys after step {}",
                step
            );
        }
    }
}

/// The reference service ladder: the governor as it stood before the
/// shared ladder core — its own `up`/`down` tables and unbounded hot and
/// calm streaks, with a hot streak of one batch (the only value any
/// config ever set). [`ServiceGovernor`] must match it step for step.
struct RefService {
    config: ServiceGovernorConfig,
    level: ServiceLevel,
    hot_streak: u64,
    calm_streak: u64,
    escalations: u64,
    deescalations: u64,
}

impl RefService {
    const HOT_BATCHES: u64 = 1;

    fn new(config: ServiceGovernorConfig) -> RefService {
        RefService {
            config,
            level: ServiceLevel::Nominal,
            hot_streak: 0,
            calm_streak: 0,
            escalations: 0,
            deescalations: 0,
        }
    }

    fn retry_after(&self) -> u64 {
        self.config.hold_batches * u64::from(self.level.index())
    }

    fn observe_batch(&mut self, demand: u64) -> Option<ServiceTransition> {
        if demand >= self.config.escalate_backlog {
            self.hot_streak += 1;
            self.calm_streak = 0;
        } else if demand <= self.config.deescalate_backlog {
            self.calm_streak += 1;
            self.hot_streak = 0;
        } else {
            self.hot_streak = 0;
            self.calm_streak = 0;
        }
        let from = self.level;
        if self.hot_streak >= Self::HOT_BATCHES && self.level != ServiceLevel::Reject {
            self.hot_streak = 0;
            self.level = match from {
                ServiceLevel::Nominal => ServiceLevel::ShedLow,
                ServiceLevel::ShedLow => ServiceLevel::CacheOnly,
                ServiceLevel::CacheOnly | ServiceLevel::Reject => ServiceLevel::Reject,
            };
            self.escalations += 1;
        } else if self.calm_streak >= self.config.hold_batches
            && self.level != ServiceLevel::Nominal
        {
            self.calm_streak = 0;
            self.level = match from {
                ServiceLevel::Nominal | ServiceLevel::ShedLow => ServiceLevel::Nominal,
                ServiceLevel::CacheOnly => ServiceLevel::ShedLow,
                ServiceLevel::Reject => ServiceLevel::CacheOnly,
            };
            self.deescalations += 1;
        } else {
            return None;
        }
        Some(ServiceTransition {
            from,
            to: self.level,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shared ladder core changes nothing observable: for any valid
    /// config and any demand stream, the governor and the reference
    /// return the same transitions and agree on level, counters and
    /// `retry_after` after every batch.
    #[test]
    fn service_governor_matches_the_reference_control_law(
        escalate in 1u64..=12,
        deescalate_pct in 0u64..100,
        hold in 1u64..=5,
        demands in proptest::collection::vec(0u64..=24, 0..160),
    ) {
        let config = ServiceGovernorConfig {
            escalate_backlog: escalate,
            deescalate_backlog: deescalate_pct * escalate / 100,
            hold_batches: hold,
        };
        let mut g = ServiceGovernor::new(config);
        let mut reference = RefService::new(config);
        // A third of the draws land on zero demand, so calm streaks
        // long enough to walk the ladder down are common.
        for (batch, demand) in demands.into_iter().map(|d| d.saturating_sub(8)).enumerate() {
            prop_assert_eq!(g.observe_batch(demand), reference.observe_batch(demand), "batch {}", batch);
            prop_assert_eq!(g.level(), reference.level);
            prop_assert_eq!(g.escalations(), reference.escalations);
            prop_assert_eq!(g.deescalations(), reference.deescalations);
            prop_assert_eq!(g.retry_after(), reference.retry_after());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Injectivity: two specs canonicalize (and key) equal iff they are
    /// field-for-field equal — the property that makes answering from
    /// the content-addressed cache sound.
    #[test]
    fn canonicalization_is_injective(
        shape_a in shape_strategy(),
        budget_a in budget_strategy(),
        shape_b in shape_strategy(),
        budget_b in budget_strategy(),
    ) {
        let a = build_spec(shape_a, budget_a);
        let b = build_spec(shape_b, budget_b);
        prop_assert_eq!(a == b, a.canonical() == b.canonical());
        prop_assert_eq!(a.canonical() == b.canonical(), a.key() == b.key());
        // The design tier must collapse exactly the design-relevant
        // fields.
        let design_equal = a.design == b.design
            && a.checking_pct.to_bits() == b.checking_pct.to_bits()
            && a.k_tb == b.k_tb
            && a.k_ed == b.k_ed;
        prop_assert_eq!(design_equal, a.design_key() == b.design_key());
    }

    /// Stability: any field ordering of the same request parses to the
    /// same spec, canonical form and key.
    #[test]
    fn canonicalization_survives_field_reordering(
        shape in shape_strategy(),
        budget in budget_strategy(),
        order_a in 0usize..18,
        order_b in 0usize..18,
    ) {
        let spec = build_spec(shape, budget);
        let parse = |order: usize| match parse_request(&request_line(&spec, order), 0) {
            Ok(Request::Eval { spec, .. }) => spec,
            other => panic!("expected eval, got {other:?}"),
        };
        let a = parse(order_a);
        let b = parse(order_b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.canonical(), spec.canonical());
        prop_assert_eq!(a.key(), spec.key());
    }

    /// Bit-rot never serves: replacing any single byte of a sealed
    /// payload — checksum prefix or body alike — makes the verifying
    /// open reject it.
    #[test]
    fn any_single_byte_corruption_of_a_seal_is_detected(
        chars in proptest::collection::vec(0x20u8..0x7f, 0..64),
        pos_seed in any::<u64>(),
        replacement in 0x20u8..0x7f,
    ) {
        let body = String::from_utf8(chars).expect("printable ascii");
        let sealed = seal(&body);
        let at = (pos_seed % sealed.len() as u64) as usize;
        let mut bytes = sealed.clone().into_bytes();
        // A replacement equal to the original would be a no-op flip;
        // nudge it to the next printable byte instead.
        bytes[at] = if bytes[at] == replacement {
            if replacement == 0x7e { 0x20 } else { replacement + 1 }
        } else {
            replacement
        };
        let corrupted = String::from_utf8(bytes).expect("ascii in, ascii out");
        prop_assert!(open(&corrupted, true).is_err());
        prop_assert_eq!(open(&sealed, true).unwrap(), body);
    }

    /// Defaults round-trip: a fully-explicit line and the minimal line
    /// with every default omitted share one cache key.
    #[test]
    fn explicit_defaults_collapse_onto_the_minimal_line(design in 0usize..7) {
        let spec = EvalSpec::defaults(DesignId::EVALUABLE[design]);
        let minimal = format!("{{\"design\":\"{}\"}}", spec.design.name());
        let explicit = request_line(&spec, 0);
        let key_of = |line: &str| match parse_request(line, 0) {
            Ok(Request::Eval { spec, .. }) => spec.key(),
            other => panic!("expected eval, got {other:?}"),
        };
        prop_assert_eq!(key_of(&minimal), key_of(&explicit));
    }
}

/// The warm-path contract, scheme by scheme: for every scheme in the
/// registry, the cache-hit response is byte-identical to the cold-miss
/// response that populated it.
#[test]
fn cache_hit_bytes_equal_cold_miss_bytes_for_all_schemes() {
    let mut engine = Engine::new(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    })
    .unwrap();
    for (i, scheme) in SchemeId::ALL.iter().enumerate() {
        let line = |id: usize| {
            format!(
                "{{\"id\":{id},\"design\":\"rca16\",\"scheme\":\"{}\",\"trials\":1,\
                 \"cycles\":200}}",
                scheme.name()
            )
        };
        let cold = engine.process_batch(&[line(2 * i)]).unwrap();
        let warm = engine.process_batch(&[line(2 * i + 1)]).unwrap();
        assert_eq!(
            cold.responses[0].body,
            warm.responses[0].body,
            "scheme {} must serve identical bytes warm and cold",
            scheme.name()
        );
        assert!(cold.responses[0].body.contains("\"status\":\"ok\""));
    }
    use timber_telemetry::ServiceCounter;
    assert_eq!(engine.stats().counter(ServiceCounter::Hits), 8);
    assert_eq!(engine.stats().counter(ServiceCounter::Misses), 8);
    // All 16 requests hit one compiled design.
    assert_eq!(engine.stats().counter(ServiceCounter::DesignMisses), 1);
}

/// The read-path contract at every payload offset: a cached entry
/// corrupted at *any* body byte is detected, quarantined and
/// recomputed — the served bytes never change.
#[test]
fn corrupted_cache_bytes_are_never_served_at_any_offset() {
    use timber_telemetry::ServiceCounter;
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let line =
        |id: usize| format!("{{\"id\":{id},\"design\":\"rca16\",\"trials\":1,\"cycles\":50}}");
    let cold = engine.process_batch(&[line(0)]).unwrap().responses[0]
        .body
        .clone();
    for offset in 0..cold.len() as u64 {
        // `corrupt_cached_result` flips the payload byte at
        // `offset % body_len`; sweeping 0..body_len covers them all.
        assert!(engine.corrupt_cached_result(0, offset).is_some());
        let served = engine.process_batch(&[line(1)]).unwrap().responses[0]
            .body
            .clone();
        assert_eq!(served, cold, "offset {offset} served corrupted bytes");
    }
    assert_eq!(
        engine.stats().counter(ServiceCounter::CacheCorrupt),
        cold.len() as u64,
        "every corruption must be detected exactly once"
    );
}
