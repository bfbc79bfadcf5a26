//! Key placement: which shard owns a key.
//!
//! The placement is purely functional — it depends only on the key and the
//! shard count — so routing two operations on the same key always lands them
//! on the same shard, which is what makes every per-key history a history of
//! exactly one (sequentially consistent) shard.

use std::hash::{Hash, Hasher};

/// Fibonacci golden-ratio multiplier: the classic multiplicative-hashing
/// constant `⌊2^64 / φ⌋ | 1`, whose high bits mix every input bit.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard (in `0..shards`) that owns `key`: multiplicative hashing over
/// the key's `Hash` image.
///
/// The key is hashed once, the digest is multiplied by the 64-bit Fibonacci
/// constant (so low-entropy digests still spread across the high bits), and
/// the high bits are mapped onto `0..shards` with a widening multiply — no
/// modulo bias, uniform for any shard count, not just powers of two.
/// Sequential keys scatter across shards, which evens out occupancy and
/// thins each shard's access sequence by ~1/S.  One shard owns every key,
/// so nothing is hashed then.
pub(crate) fn hash_shard<K: Hash>(key: &K, shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    let mut hasher = std::hash::DefaultHasher::new();
    key.hash(&mut hasher);
    let mixed = hasher.finish().wrapping_mul(FIB);
    // High-bits range reduction: (mixed / 2^64) * shards, exactly.
    ((u128::from(mixed) * shards as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            for key in 0u64..1000 {
                let a = hash_shard(&key, shards);
                let b = hash_shard(&key, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
    }

    #[test]
    fn hash_partitioner_spreads_sequential_keys() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for key in 0u64..4000 {
            counts[hash_shard(&key, shards)] += 1;
        }
        // Uniform would be 1000 per shard; allow generous slack.
        for &c in &counts {
            assert!((600..=1400).contains(&c), "skewed occupancy: {counts:?}");
        }
    }
}
