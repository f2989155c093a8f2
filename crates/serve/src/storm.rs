//! `repro storm`: the deterministic load generator and replay gate.
//!
//! The campaign synthesizes `requests` evaluation requests drawn (by a
//! seeded splitmix64 pick) from a pool of `requests / 8` distinct
//! specs, so most requests repeat earlier content and the service can
//! prove its cache. Requests are dealt to `clients` in contiguous
//! blocks and re-interleaved round-robin — deliberately *not* id order
//! — then fed through the engine in batches; poisoned requests (the
//! `poison` design, each with a unique seed) ride at the end of the
//! stream and must all land in quarantine.
//!
//! The determinism contract under test: after sorting by request id,
//! the response documents and the counter block are byte-identical for
//! any `--clients`, `--threads` and batch interleaving — and across a
//! cold replay of the same campaign in a fresh process. Wall-clock
//! latency (the 10× hit-speedup floor) is judged for the exit code but
//! kept out of the deterministic report body.
//!
//! With a `chaos_seed` the storm doubles as the *chaos client*: a
//! seeded splitmix64 draw demotes some requests to low priority and
//! pins others to an unaffordable 1 ms deadline, the engine runs under
//! the tight admission-control governor, and every shed or
//! deadline-rejected response is retried — after idle batches that let
//! the ladder step back down and a seeded jittered backoff — until the
//! whole stream is served. The retried bodies replace the originals,
//! so the determinism gate is unchanged: the final report must be
//! byte-identical for any `--threads`, and every real request must end
//! `ok`.

use std::collections::BTreeMap;
use std::io;

use timber_resilience::RetryPolicy;
use timber_schemes::SchemeId;
use timber_telemetry::{ServiceCounter, ServiceStats};
use timber_variability::splitmix64;

use crate::engine::{Engine, EngineConfig, Response};
use crate::governor::ServiceGovernorConfig;
use crate::spec::DesignId;

/// Minimum cache hit rate the gate demands from the pinned campaign.
pub const MIN_HIT_RATE: f64 = 0.5;
/// Minimum mean cold/hit service-time ratio the gate demands.
pub const MIN_HIT_SPEEDUP: f64 = 10.0;
/// Retry rounds the chaos client attempts before giving up (a stream
/// still degraded after this many rounds fails the gate).
pub const MAX_RETRY_ROUNDS: u32 = 8;
/// Idle batches between chaos-client retry rounds: enough calm
/// observations for the tight governor (`hold_batches = 2`) to step
/// the ladder back down before the re-send.
const IDLE_BATCHES_PER_ROUND: usize = 4;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct StormSpec {
    /// Simulated concurrent clients the stream is dealt across.
    pub clients: usize,
    /// Evaluation requests to issue (excluding poison).
    pub requests: usize,
    /// Base seed for pool construction and request picks.
    pub seed: u64,
    /// Poisoned requests appended after the stream.
    pub poison: usize,
    /// Worker threads for cache-miss batches (0 = all cores).
    pub threads: usize,
    /// Engine batch size (queue depth per processing round).
    pub batch_size: usize,
    /// Result-cache capacity.
    pub capacity: usize,
    /// Chaos-client mode: the seed for the priority/deadline draw and
    /// the retry jitter. `None` is the plain load campaign.
    pub chaos_seed: Option<u64>,
    /// Chaos-client retry backoff base, milliseconds.
    pub retry_base_ms: u64,
    /// Chaos-client retry backoff cap, milliseconds.
    pub retry_cap_ms: u64,
}

impl StormSpec {
    /// The pinned CI campaign at `seed`.
    pub fn pinned(seed: u64) -> StormSpec {
        StormSpec {
            clients: 4,
            requests: 64,
            seed,
            poison: 0,
            threads: 0,
            batch_size: 16,
            capacity: crate::engine::DEFAULT_RESULT_CAPACITY,
            chaos_seed: None,
            retry_base_ms: 10,
            retry_cap_ms: 100,
        }
    }

    /// Distinct specs in the request pool.
    pub fn pool_size(&self) -> usize {
        (self.requests / 8).max(1)
    }

    /// The request line for pool entry `j`: design and scheme walk
    /// coprime cycles (7 and 8), so the first 56 entries are distinct
    /// by construction and the spec seed advances beyond that.
    fn pool_line(&self, j: usize, id: u64) -> String {
        let design = DesignId::EVALUABLE[j % DesignId::EVALUABLE.len()];
        let scheme = SchemeId::ALL[j % SchemeId::ALL.len()];
        let seed = self.seed.wrapping_add((j / 56) as u64);
        format!(
            "{{\"id\":{id},\"design\":\"{}\",\"scheme\":\"{}\",\"trials\":1,\"cycles\":300,\
             \"seed\":{seed}}}",
            design.name(),
            scheme.name(),
        )
    }

    /// The *undecorated* request line for id `i`: a seeded pick from
    /// the pool. This is also what the chaos client re-sends on retry —
    /// priority back to the default and the hopeless deadline dropped.
    fn request_line(&self, i: usize) -> String {
        let pick = splitmix64(self.seed ^ 0x00C0_FFEE, i as u64) as usize;
        self.pool_line(pick % self.pool_size(), i as u64)
    }

    /// The request line for id `i` as first sent: in chaos mode a
    /// seeded draw pins ~1/8 of requests to an unaffordable 1 ms
    /// deadline and demotes a disjoint ~1/4 to low priority, so the
    /// tight governor and the deadline screen both get real traffic.
    fn decorated_line(&self, i: usize) -> String {
        let mut line = self.request_line(i);
        let Some(chaos_seed) = self.chaos_seed else {
            return line;
        };
        let draw = splitmix64(chaos_seed, i as u64);
        let extra = if draw.is_multiple_of(8) {
            ",\"deadline_ms\":1"
        } else if draw % 4 == 1 {
            ",\"priority\":\"low\""
        } else {
            return line;
        };
        line.pop(); // the closing brace
        line.push_str(extra);
        line.push('}');
        line
    }

    /// Which simulated client request `id` was dealt to (poison rides
    /// on the last client).
    pub fn client_of(&self, id: u64) -> usize {
        let clients = self.clients.max(1);
        let block = self.requests.div_ceil(clients).max(1);
        (id as usize / block).min(clients - 1)
    }

    /// The full request stream in *arrival* order: block-dealt to
    /// clients, merged round-robin, poison appended last.
    pub fn stream(&self) -> Vec<String> {
        let clients = self.clients.max(1);
        // Id order first.
        let by_id: Vec<String> = (0..self.requests).map(|i| self.decorated_line(i)).collect();
        // Contiguous blocks per client, then round-robin across them:
        // the arrival order a fair scheduler would produce, and
        // measurably different from id order once clients > 1.
        let block = self.requests.div_ceil(clients);
        let mut merged = Vec::with_capacity(self.requests + self.poison);
        for round in 0..block {
            for client in 0..clients {
                if let Some(line) = by_id.get(client * block + round) {
                    merged.push(line.clone());
                }
            }
        }
        for p in 0..self.poison {
            // Unique seeds: every poisoned request is distinct content
            // and must be quarantined on its own.
            merged.push(format!(
                "{{\"id\":{},\"design\":\"poison\",\"seed\":{}}}",
                self.requests + p,
                self.seed.wrapping_add(p as u64),
            ));
        }
        merged
    }
}

/// Per-client chaos accounting: what the simulated client saw and did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClientChaos {
    /// Re-sent requests (each shed or deadline-rejected response costs
    /// one retry in a later round).
    pub retries: u64,
    /// Shed responses observed, across all rounds.
    pub sheds: u64,
    /// Deadline-rejected responses observed, across all rounds.
    pub deadline_misses: u64,
}

/// Campaign outcome.
#[derive(Debug)]
pub struct StormReport {
    /// The campaign parameters.
    pub spec: StormSpec,
    /// All responses, sorted by request id (retried requests keep
    /// their final body).
    pub responses: Vec<Response>,
    /// Final engine telemetry.
    pub stats: ServiceStats,
    /// Per-client retry/shed/deadline accounting (all zero outside
    /// chaos mode).
    pub client_stats: Vec<ClientChaos>,
}

impl StormReport {
    /// Deterministic hit rate, from the counter block.
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Wall-clock mean cold/hit service-time ratio.
    pub fn hit_speedup(&self) -> f64 {
        self.stats.hit_speedup()
    }

    /// The deterministic gate: every real request answered `ok`,
    /// exactly the poisoned requests quarantined, and the pinned
    /// campaign's hit rate at least [`MIN_HIT_RATE`].
    pub fn deterministic_pass(&self) -> bool {
        let real_ok = self
            .responses
            .iter()
            .filter(|r| r.id < self.spec.requests as u64)
            .all(|r| r.body.starts_with("\"status\":\"ok\""));
        let poison_quarantined = self
            .responses
            .iter()
            .filter(|r| r.id >= self.spec.requests as u64)
            .all(|r| r.body.starts_with("\"status\":\"quarantined\""));
        let expected = self.spec.requests + self.spec.poison;
        real_ok
            && poison_quarantined
            && self.responses.len() == expected
            && self.stats.counter(ServiceCounter::Quarantined) == self.spec.poison as u64
            && self.hit_rate() >= MIN_HIT_RATE
    }

    /// The full gate: the deterministic checks plus the wall-clock
    /// cache-speedup floor ([`MIN_HIT_SPEEDUP`]).
    pub fn pass(&self) -> bool {
        self.deterministic_pass() && self.hit_speedup() >= MIN_HIT_SPEEDUP
    }

    /// The response documents alone, one per line, in id order — the
    /// bytes the determinism contract covers: identical for any
    /// `--threads`, `--clients` and batch interleaving of the same
    /// campaign.
    pub fn responses_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.responses {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }

    /// The canonical machine-readable report: campaign parameters,
    /// responses in id order and the deterministic counter block —
    /// byte-identical across thread counts and cold replays of the
    /// same campaign (the parameter echo and queue-depth gauge
    /// naturally track `--clients`/`--batch-size`; the response bytes
    /// themselves never do, see [`StormReport::responses_jsonl`]).
    /// Wall-clock latency is deliberately absent.
    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"tool\":\"timber-storm\",\"schema_version\":2");
        out.push_str(&format!(
            ",\"clients\":{},\"requests\":{},\"seed\":{},\"poison\":{},\"pool\":{}",
            self.spec.clients,
            self.spec.requests,
            self.spec.seed,
            self.spec.poison,
            self.spec.pool_size()
        ));
        match self.spec.chaos_seed {
            Some(s) => out.push_str(&format!(",\"chaos_seed\":{s}")),
            None => out.push_str(",\"chaos_seed\":null"),
        }
        out.push_str(",\"client_stats\":[");
        for (i, c) in self.client_stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"client\":{i},\"retries\":{},\"sheds\":{},\"deadline_misses\":{}}}",
                c.retries, c.sheds, c.deadline_misses
            ));
        }
        out.push(']');
        out.push_str(",\"responses\":[");
        for (i, r) in self.responses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.render());
        }
        out.push_str(&format!(
            "],\"counters\":{},\"hit_rate\":{:.4},\"pass\":{}}}",
            self.stats.counters_json(),
            self.hit_rate(),
            self.deterministic_pass()
        ));
        out
    }

    /// Human-readable summary, including the wall-clock speedup the
    /// JSON deliberately omits.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "storm: seed {} | {} requests over {} clients (pool {}) | {} poisoned\n",
            self.spec.seed,
            self.spec.requests,
            self.spec.clients,
            self.spec.pool_size(),
            self.spec.poison
        ));
        out.push_str(&format!(
            "cache: {} hits / {} misses (rate {:.2}, floor {MIN_HIT_RATE}), \
             {} evictions\n",
            self.stats.counter(ServiceCounter::Hits),
            self.stats.counter(ServiceCounter::Misses),
            self.hit_rate(),
            self.stats.counter(ServiceCounter::Evictions),
        ));
        out.push_str(&format!(
            "latency: hit mean {} ns p99 {} ns | cold mean {} ns p99 {} ns | \
             speedup {:.1}x (floor {MIN_HIT_SPEEDUP}x)\n",
            self.stats.hit_latency.mean(),
            self.stats.hit_latency.p99(),
            self.stats.miss_latency.mean(),
            self.stats.miss_latency.p99(),
            self.hit_speedup(),
        ));
        out.push_str(&format!(
            "quarantined: {} (expected {})\n",
            self.stats.counter(ServiceCounter::Quarantined),
            self.spec.poison
        ));
        if self.spec.chaos_seed.is_some() {
            let total: u64 = self.client_stats.iter().map(|c| c.retries).sum();
            let sheds: u64 = self.client_stats.iter().map(|c| c.sheds).sum();
            let deadline: u64 = self.client_stats.iter().map(|c| c.deadline_misses).sum();
            out.push_str(&format!(
                "chaos client: {total} retries | {sheds} sheds | {deadline} deadline misses\n",
            ));
        }
        out.push_str(if self.pass() { "PASS\n" } else { "FAIL\n" });
        out
    }
}

/// Degraded responses the chaos client retries (everything else is
/// final: `ok`, `quarantined` or a hard error).
fn degraded(body: &str) -> bool {
    body.starts_with("\"status\":\"shed\"") || body.starts_with("\"status\":\"deadline\"")
}

/// Bumps the owning client's shed/deadline tallies for one observed
/// response.
fn tally(spec: &StormSpec, response: &Response, stats: &mut [ClientChaos]) {
    let client = spec.client_of(response.id);
    if response.body.starts_with("\"status\":\"shed\"") {
        stats[client].sheds += 1;
    } else if response.body.starts_with("\"status\":\"deadline\"") {
        stats[client].deadline_misses += 1;
    }
}

/// Runs the campaign against a fresh engine. `Err` is an I/O failure
/// (journalling), not a gate verdict.
pub fn run(spec: &StormSpec) -> io::Result<StormReport> {
    let mut config = EngineConfig {
        result_capacity: spec.capacity,
        threads: spec.threads,
        retry: RetryPolicy::from_millis(spec.retry_base_ms, spec.retry_cap_ms, spec.seed),
        ..EngineConfig::default()
    };
    if spec.chaos_seed.is_some() {
        // Chaos mode exercises admission control; the inert default
        // governor would never shed anything.
        config.governor = ServiceGovernorConfig::tight();
    }
    let mut engine = Engine::new(config)?;
    let stream = spec.stream();
    let mut responses: Vec<Response> = Vec::with_capacity(stream.len());
    for batch in stream.chunks(spec.batch_size.max(1)) {
        responses.extend(engine.process_batch(batch)?.responses);
    }
    // Canonical ordering: by request id, whatever the interleaving.
    responses.sort_by_key(|r| r.id);
    let mut client_stats = vec![ClientChaos::default(); spec.clients.max(1)];
    if let Some(chaos_seed) = spec.chaos_seed {
        for r in &responses {
            tally(spec, r, &mut client_stats);
        }
        let policy = RetryPolicy::from_millis(spec.retry_base_ms, spec.retry_cap_ms, chaos_seed);
        let idle: Vec<String> = Vec::new();
        for round in 1..=MAX_RETRY_ROUNDS {
            let pending: Vec<usize> = responses
                .iter()
                .enumerate()
                .filter(|(_, r)| degraded(&r.body))
                .map(|(i, _)| i)
                .collect();
            if pending.is_empty() {
                break;
            }
            // A patient client: idle batches are calm observations, so
            // the governor's hold streak can step the ladder back down
            // before the re-send.
            for _ in 0..IDLE_BATCHES_PER_ROUND {
                engine.process_batch(&idle)?;
            }
            // Seeded jittered backoff — slept once per round at the
            // round's largest per-request wait. Wall-clock only; the
            // deterministic report never sees it.
            if let Some(wait) = pending
                .iter()
                .map(|&i| policy.backoff(round, responses[i].id))
                .max()
            {
                std::thread::sleep(wait);
            }
            let lines: Vec<String> = pending
                .iter()
                .map(|&i| {
                    let id = responses[i].id;
                    client_stats[spec.client_of(id)].retries += 1;
                    spec.request_line(id as usize)
                })
                .collect();
            let by_id: BTreeMap<u64, usize> =
                pending.iter().map(|&i| (responses[i].id, i)).collect();
            for r in engine.process_batch(&lines)?.responses {
                tally(spec, &r, &mut client_stats);
                if let Some(&i) = by_id.get(&r.id) {
                    responses[i] = r;
                }
            }
        }
    }
    Ok(StormReport {
        spec: spec.clone(),
        responses,
        stats: engine.stats().clone(),
        client_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> StormSpec {
        StormSpec {
            clients: 3,
            requests: 24,
            seed,
            poison: 0,
            threads: 4,
            batch_size: 8,
            capacity: 1024,
            chaos_seed: None,
            retry_base_ms: 1,
            retry_cap_ms: 2,
        }
    }

    #[test]
    fn pinned_campaign_passes_and_reports() {
        let report = run(&quick(7)).unwrap();
        assert!(report.deterministic_pass(), "{}", report.render());
        assert!(report.hit_rate() >= MIN_HIT_RATE);
        assert_eq!(report.responses.len(), 24);
        let doc: serde_json::Value = serde_json::from_str(&report.json()).unwrap();
        assert_eq!(doc["tool"], serde_json::json!("timber-storm"));
        assert_eq!(doc["pass"], serde_json::json!(true));
    }

    #[test]
    fn client_and_thread_interleaving_never_changes_the_responses() {
        let mut a = quick(3);
        a.clients = 1;
        a.threads = 1;
        a.batch_size = 24;
        let mut b = quick(3);
        b.clients = 5;
        b.threads = 8;
        b.batch_size = 5;
        let ra = run(&a).unwrap();
        let rb = run(&b).unwrap();
        // The response bytes and the cache trajectory are interleaving
        // independent; only the parameter echo may differ.
        assert_eq!(ra.responses_jsonl(), rb.responses_jsonl());
        assert_eq!(
            ra.stats.counter(ServiceCounter::Hits),
            rb.stats.counter(ServiceCounter::Hits)
        );
        assert_eq!(
            ra.stats.counter(ServiceCounter::Misses),
            rb.stats.counter(ServiceCounter::Misses)
        );
    }

    #[test]
    fn cold_replay_is_byte_identical() {
        let spec = quick(11);
        assert_eq!(run(&spec).unwrap().json(), run(&spec).unwrap().json());
    }

    #[test]
    fn poisoned_requests_quarantine_without_failing_the_rest() {
        let mut spec = quick(7);
        spec.poison = 2;
        let report = run(&spec).unwrap();
        assert!(report.deterministic_pass(), "{}", report.render());
        let quarantined: Vec<&Response> = report
            .responses
            .iter()
            .filter(|r| r.body.starts_with("\"status\":\"quarantined\""))
            .collect();
        assert_eq!(quarantined.len(), 2);
        assert!(quarantined.iter().all(|r| r.id >= 24));
    }

    #[test]
    fn stream_interleaving_differs_from_id_order_but_ids_cover_all() {
        let spec = quick(7);
        let stream = spec.stream();
        let ids: Vec<u64> = stream
            .iter()
            .map(|l| {
                let doc: serde_json::Value = serde_json::from_str(l).unwrap();
                doc["id"].as_u64().unwrap()
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<u64>>());
        assert_ne!(ids, sorted, "block dealing must reorder arrivals");
    }

    #[test]
    fn chaos_client_retries_until_every_request_is_served() {
        let mut spec = quick(7);
        spec.requests = 64;
        spec.batch_size = 16;
        spec.chaos_seed = Some(5);
        let report = run(&spec).unwrap();
        assert!(report.deterministic_pass(), "{}", report.render());
        // The seeded draw must have produced real degradations, and
        // every one of them must have been retried to completion.
        let retries: u64 = report.client_stats.iter().map(|c| c.retries).sum();
        let deadline: u64 = report.client_stats.iter().map(|c| c.deadline_misses).sum();
        assert!(deadline > 0, "seeded deadlines never fired");
        assert!(retries >= deadline, "every degradation costs a retry");
        assert_eq!(
            report.stats.counter(ServiceCounter::DeadlineRejected),
            deadline
        );
        assert!(report
            .responses
            .iter()
            .all(|r| r.body.starts_with("\"status\":\"ok\"")));
    }

    #[test]
    fn chaos_client_report_is_thread_invariant() {
        let mut a = quick(7);
        a.requests = 64;
        a.batch_size = 16;
        a.chaos_seed = Some(5);
        a.threads = 1;
        let mut b = a.clone();
        b.threads = 4;
        assert_eq!(run(&a).unwrap().json(), run(&b).unwrap().json());
    }

    #[test]
    fn small_cache_forces_deterministic_evictions() {
        let mut spec = quick(9);
        spec.capacity = 2;
        let a = run(&spec).unwrap();
        let b = run(&spec).unwrap();
        assert!(a.stats.counter(ServiceCounter::Evictions) > 0);
        assert_eq!(
            a.stats.counters_json(),
            b.stats.counters_json(),
            "eviction trajectory must replay exactly"
        );
    }
}
