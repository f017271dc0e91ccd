//! Small utilities: a fast hasher for integer keys.

use std::hash::{BuildHasherDefault, Hasher};

/// A trivial hasher for integer keys, such as the `World`'s per-pair
/// resequencing buffers keyed by (source, destination) rank. SipHash's
/// HashDoS resistance buys nothing in a closed simulation. Per-message and
/// per-packet state is not hashed at all: it lives in tables indexed by
/// the message id or the sending rank.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fold arbitrary bytes; only used if a non-integer key sneaks in.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, i: u64) {
        // Multiply by a large odd constant to spread sequential ids across
        // buckets (Fibonacci hashing).
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }
}

/// `BuildHasher` for [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by integers, hashed with [`IdHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "IdBuildHasher is deterministic (no RandomState); iteration order is a pure function of the insertion sequence"
)]
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: IdHashMap<u64, &str> = IdHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&"x"));
        }
        assert_eq!(m.get(&1000), None);
    }

    #[test]
    fn sequential_ids_spread() {
        // Fibonacci hashing must not map sequential ids to sequential
        // hashes (that would collide after masking in small tables).
        let h = |i: u64| {
            let mut hasher = IdHasher::default();
            hasher.write_u64(i);
            hasher.finish()
        };
        assert_ne!(h(1).wrapping_sub(h(0)), 1);
        assert_ne!(h(2).wrapping_sub(h(1)), 1);
    }
}
