//! Deterministic seeded-jitter retry policy.
//!
//! Fixed exponential backoff synchronizes retries: every client that
//! failed in the same window sleeps the same span and returns in the
//! same instant (the thundering herd). The classic fix is randomized
//! jitter, but wall-clock entropy would break the replay gates this
//! repository lives by. [`RetryPolicy`] threads the needle: the jitter
//! is a splitmix64 hash of `(jitter_seed, token, attempt)`, so two
//! tokens (request ids, trial indices) de-synchronize while every
//! replay of the same campaign sleeps exactly the same spans.

use std::time::Duration;

use timber_variability::mix64;

/// Deterministic capped-exponential backoff with seeded jitter.
///
/// Retry `n` (1-based) sleeps `base * 2^(n-1)` plus a jitter of up to
/// half that span, everything capped at `cap`. The jitter is a pure
/// function of `(jitter_seed, token, attempt)` — replays are
/// byte-identical, distinct tokens spread out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-retry backoff span.
    pub base: Duration,
    /// Upper bound on any single backoff sleep (jitter included).
    pub cap: Duration,
    /// Seed for the deterministic jitter stream (0 is a valid seed,
    /// not a disable switch).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The serving stack's historical constants: 10 ms base, 100 ms
    /// cap, jitter stream 0.
    pub const fn default_policy() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter_seed: 0,
        }
    }

    /// A policy with explicit base/cap in milliseconds (the CLI's
    /// `--retry-base` / `--retry-cap` units).
    pub fn from_millis(base_ms: u64, cap_ms: u64, jitter_seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
            jitter_seed,
        }
    }

    /// The backoff before retry `attempt` (1-based) of the work unit
    /// identified by `token`. Pure: same inputs, same span, on every
    /// machine and every replay.
    pub fn backoff(&self, attempt: u32, token: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self.base.saturating_mul(1u32 << exp);
        let span_ns = raw.as_nanos().min(u128::from(u64::MAX)) as u64;
        let jitter_ns = if span_ns == 0 {
            0
        } else {
            // Derive one draw per (seed, token, attempt): token and
            // attempt land in different mixer rounds so neighbouring
            // tokens don't correlate.
            mix64(
                mix64(self.jitter_seed ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    ^ u64::from(attempt),
            ) % (span_ns / 2 + 1)
        };
        raw.saturating_add(Duration::from_nanos(jitter_ns))
            .min(self.cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::default_policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_token_and_attempt() {
        let p = RetryPolicy::default_policy();
        assert_eq!(p.backoff(1, 7), p.backoff(1, 7));
        assert_eq!(p.backoff(3, 42), p.backoff(3, 42));
    }

    #[test]
    fn distinct_tokens_desynchronize() {
        let p = RetryPolicy::from_millis(10, 1000, 1);
        let spans: Vec<Duration> = (0..16).map(|t| p.backoff(1, t)).collect();
        let mut unique = spans.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() > 1, "jitter must spread tokens: {spans:?}");
    }

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy::from_millis(10, 40, 0);
        let b1 = p.backoff(1, 0);
        assert!(b1 >= Duration::from_millis(10) && b1 <= Duration::from_millis(15));
        // 2^(attempt-1) growth until the cap flattens everything.
        assert_eq!(p.backoff(4, 0), Duration::from_millis(40));
        assert_eq!(p.backoff(16, 0), Duration::from_millis(40));
    }

    #[test]
    fn jitter_never_exceeds_half_the_raw_span() {
        let p = RetryPolicy::from_millis(10, 10_000, 99);
        for token in 0..64 {
            let span = p.backoff(1, token);
            assert!(span >= Duration::from_millis(10));
            assert!(span <= Duration::from_millis(15), "{span:?}");
        }
    }

    #[test]
    fn different_seeds_draw_different_streams() {
        let a = RetryPolicy::from_millis(10, 1000, 1);
        let b = RetryPolicy::from_millis(10, 1000, 2);
        let diverges = (0..32).any(|t| a.backoff(1, t) != b.backoff(1, t));
        assert!(diverges);
    }
}
