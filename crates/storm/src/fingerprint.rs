//! Content fingerprints for incident dedup.
//!
//! A storm is thousands of firings that are *almost* the same text: the
//! same alert template stamped with different timestamps, counters, and
//! case. The fingerprint must collide for those and separate genuinely
//! different incidents, so it hashes a *normalized token stream* — not
//! the raw bytes:
//!
//! * ASCII-lowercased, split on every non-alphanumeric byte;
//! * single-character tokens dropped (they are template punctuation and
//!   sequence-number debris, not content);
//! * pure-digit tokens dropped (timestamps, counters, retry ordinals —
//!   the parts that differ between firings of the same alert).
//!
//! Tokens feed FNV-1a with a separator byte (so token *boundaries*
//! matter: `["ab","c"]` ≠ `["a","bc"]`), the source string is mixed in
//! the same way, and the result goes through the splitmix64 finalizer —
//! the same stable, process-independent hashing idiom `featcache` uses,
//! and the one `serve::fleet` shards with. No per-process seeding: two
//! servers agree on every fingerprint.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A token-boundary separator outside the normalized alphabet.
const SEP: u8 = 0x1f;

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv1a_byte(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over `bytes` — a stable, dependency-free string hash
/// (`std`'s `DefaultHasher` is seeded per process).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a_byte(h, b))
}

/// Is this token alert *content* (kept) or firing debris (dropped)?
fn keep_token(token: &[u8]) -> bool {
    token.len() >= 2 && !token.iter().all(|b| b.is_ascii_digit())
}

/// The normalized token stream of `text`, materialized. The fingerprint
/// itself never allocates this; it exists for tests and for callers that
/// want to inspect what two colliding incidents had in common.
pub fn normalize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = Vec::new();
    for &b in text.as_bytes() {
        if b.is_ascii_alphanumeric() {
            current.push(b.to_ascii_lowercase());
        } else if !current.is_empty() {
            if keep_token(&current) {
                tokens.push(String::from_utf8(std::mem::take(&mut current)).unwrap());
            } else {
                current.clear();
            }
        }
    }
    if keep_token(&current) {
        tokens.push(String::from_utf8(current).unwrap());
    }
    tokens
}

/// Fingerprint of `(text, source)`: stable across processes, equal
/// exactly when the normalized token streams and sources are equal.
pub fn fingerprint(text: &str, source: &str) -> u64 {
    let mut h = FNV_OFFSET;
    // Stream the normalized tokens straight into the hash — one pass,
    // no token vector.
    let mut token = [0u8; 64];
    let mut len = 0usize;
    let mut overflow: Vec<u8> = Vec::new();
    let flush = |h: &mut u64, token: &[u8], overflow: &mut Vec<u8>| {
        let full: &[u8] = if overflow.is_empty() {
            token
        } else {
            overflow.extend_from_slice(token);
            overflow
        };
        if keep_token(full) {
            for &b in full {
                *h = fnv1a_byte(*h, b);
            }
            *h = fnv1a_byte(*h, SEP);
        }
        overflow.clear();
    };
    for &b in text.as_bytes() {
        if b.is_ascii_alphanumeric() {
            if len == token.len() {
                overflow.extend_from_slice(&token);
                len = 0;
            }
            token[len] = b.to_ascii_lowercase();
            len += 1;
        } else if len > 0 || !overflow.is_empty() {
            flush(&mut h, &token[..len], &mut overflow);
            len = 0;
        }
    }
    if len > 0 || !overflow.is_empty() {
        flush(&mut h, &token[..len], &mut overflow);
    }
    // Mix the source under a distinct tag byte so ("a", "b") never
    // collides with ("a b", "").
    h = fnv1a_byte(h, 0x02);
    for &b in source.as_bytes() {
        h = fnv1a_byte(h, b.to_ascii_lowercase());
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_drops_case_punctuation_and_counters() {
        assert_eq!(
            normalize("Switch AGG-3 down!! (retry 1718231) at 12:04:55"),
            vec!["switch", "agg", "down", "retry", "at"]
        );
    }

    #[test]
    fn equivalent_firings_collide() {
        let a = fingerprint("Switch agg-3 in c1.dc1 CRC errors, retry 17", "netmon");
        let b = fingerprint("SWITCH   agg-3 in c1/dc1 CRC errors; retry 9821", "NetMon");
        assert_eq!(a, b);
    }

    #[test]
    fn different_content_or_source_separates() {
        let base = fingerprint("Switch agg-3 CRC errors", "netmon");
        assert_ne!(base, fingerprint("Switch agg-4x CRC errors", "netmon"));
        assert_ne!(base, fingerprint("Switch agg-3 CRC errors", "syslog"));
    }

    #[test]
    fn token_boundaries_matter() {
        assert_ne!(fingerprint("ab cd", "s"), fingerprint("abcd", "s"));
    }

    #[test]
    fn long_tokens_hash_like_their_normalized_stream() {
        // Exercise the stack-buffer overflow path (> 64-byte token).
        let long = "x".repeat(200);
        let text = format!("alpha {long} beta");
        let fp1 = fingerprint(&text, "s");
        let fp2 = fingerprint(&format!("ALPHA {} BETA", long.to_uppercase()), "s");
        assert_eq!(fp1, fp2);
        assert_ne!(fp1, fingerprint("alpha beta", "s"));
    }
}
