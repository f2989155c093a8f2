//! Content-addressed cache keys.
//!
//! A [`CacheKey`] is a 256-bit digest of a request's *canonical* spec
//! string ([`crate::spec::EvalSpec::canonical`]). The digest is a
//! blake-style wide-pipe sponge built from the splitmix64 finalizer:
//! four 64-bit lanes absorb the input in 8-byte words with per-lane
//! tweaks and cross-lane diffusion rounds, then the length is absorbed
//! and the state squeezed.
//!
//! It is **content addressing, not cryptography**: the construction
//! targets uniform dispersion and a 2⁻¹²⁸-ish accidental-collision
//! floor for cache lookup, and makes no claim against adversarial
//! preimages. Canonicalization, not hashing, carries the injectivity
//! burden — the property tests prove distinct specs canonicalize to
//! distinct strings, and this digest merely addresses those strings.

use timber_variability::mix64;

/// A 256-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub [u64; 4]);

impl CacheKey {
    /// Lowercase hex rendering (64 chars) — the journal/ledger key and
    /// the `key` field of every response.
    pub fn hex(&self) -> String {
        format!(
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }

    /// Parses the [`CacheKey::hex`] rendering back into a key (used
    /// when replaying the durability journal). Returns `None` for
    /// anything but exactly 64 hex digits.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 64 || !s.is_ascii() {
            return None;
        }
        let mut lanes = [0u64; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u64::from_str_radix(&s[i * 16..(i + 1) * 16], 16).ok()?;
        }
        Some(CacheKey(lanes))
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Digests `bytes` into a [`CacheKey`].
pub fn content_hash(bytes: &[u8]) -> CacheKey {
    // Distinct lane constants (splitmix64 gamma multiples) so an empty
    // input already has a non-degenerate state.
    let mut lanes: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0x3C6E_F372_FE94_F82A,
        0xDAA6_6D2C_7DDF_743F,
        0x78DD_E6E5_FD29_F054,
    ];
    for (i, chunk) in bytes.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        // Absorb into one lane, then diffuse across all four so word
        // order matters in every lane.
        let lane = i % 4;
        lanes[lane] = mix64(lanes[lane] ^ w);
        let carry = lanes[lane];
        for (j, l) in lanes.iter_mut().enumerate() {
            if j != lane {
                *l = mix64(*l ^ carry.rotate_left(j as u32 * 17 + 1));
            }
        }
    }
    // Length padding: distinguishes trailing-zero-byte inputs of
    // different lengths from each other.
    let len = bytes.len() as u64;
    for (j, l) in lanes.iter_mut().enumerate() {
        *l = mix64(*l ^ len.wrapping_add(j as u64));
    }
    // Final squeeze rounds.
    for _ in 0..2 {
        let all = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
        for l in lanes.iter_mut() {
            *l = mix64(*l ^ all);
        }
    }
    CacheKey(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_is_64_lowercase_chars() {
        let k = content_hash(b"hello");
        assert_eq!(k.hex().len(), 64);
        assert!(k.hex().chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(k.hex(), k.hex().to_lowercase());
    }

    #[test]
    fn digest_is_stable_across_calls() {
        assert_eq!(content_hash(b"spec"), content_hash(b"spec"));
    }

    #[test]
    fn nearby_inputs_diverge() {
        let base = content_hash(b"design=rca16;seed=7");
        for tweak in [
            &b"design=rca16;seed=8"[..],
            b"design=rca17;seed=7",
            b"design=rca16;seed=7 ",
            b"design=rca16;seed=70",
            b"",
        ] {
            assert_ne!(base, content_hash(tweak), "{tweak:?}");
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_digest() {
        // Length padding must separate zero-padded prefixes.
        assert_ne!(content_hash(b"ab"), content_hash(b"ab\0"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_ne!(content_hash(b"\0\0\0\0\0\0\0\0"), content_hash(b"\0"));
    }

    #[test]
    fn word_order_matters() {
        // Two 8-byte words swapped must not collide (cross-lane
        // diffusion makes absorption order-sensitive).
        let a = content_hash(b"AAAAAAAABBBBBBBB");
        let b = content_hash(b"BBBBBBBBAAAAAAAA");
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let k = content_hash(b"round trip");
        assert_eq!(CacheKey::from_hex(&k.hex()), Some(k));
        assert_eq!(CacheKey::from_hex("abc"), None);
        assert_eq!(CacheKey::from_hex(&"z".repeat(64)), None);
        assert_eq!(CacheKey::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn keys_order_and_compare() {
        let mut keys: Vec<CacheKey> = (0..16u8).map(|i| content_hash(&[i])).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 16);
    }
}
