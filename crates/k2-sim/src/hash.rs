//! A fixed-key hasher for simulator-internal map keys.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-process
//! random key: robust against adversarial keys, but it dominates the
//! cost of the small-integer lookups on the event path (page owners,
//! interrupt hooks, deferred-call ids). [`FastHasher`] is a
//! multiply-rotate hash in the style of rustc's `FxHasher`, with a fixed
//! key, so it costs a few cycles per word.
//!
//! Use [`FastMap`] / [`FastSet`] only where the keys are produced by the
//! simulator itself (page numbers, domain/line pairs, sequence ids) and
//! sit on the per-event path. Keys that come from outside the program
//! keep the default hasher. The fixed key makes iteration order a pure
//! function of the insertion history, but that order is still not part
//! of any contract: nothing that reaches an output may iterate one of
//! these maps without sorting first (DESIGN.md §5.11).
//!
//! # Examples
//!
//! ```
//! use k2_sim::hash::FastMap;
//!
//! let mut owners: FastMap<u32, u8> = FastMap::default();
//! owners.insert(7, 1);
//! assert_eq!(owners.get(&7), Some(&1));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate hasher behind [`FastMap`] and [`FastSet`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

/// Odd multiplier with well-spread bits (the 64-bit `FxHasher` seed).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The raw product. Multiplying by an odd constant is a bijection on
    /// the low bits, so consecutive small keys (the common case here)
    /// land in distinct buckets, while the high bits the table uses as
    /// its tag byte are well mixed.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FastHasher`]: stateless, so every map built with
/// it hashes identically in every process.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by simulator-internal values (see the module docs).
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` of simulator-internal values (see the module docs).
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        assert_eq!(hash_of(&(3u8, 42u16)), hash_of(&(3u8, 42u16)));
        assert_ne!(hash_of(&(3u8, 42u16)), hash_of(&(42u8, 3u16)));
    }

    #[test]
    fn small_integers_spread_over_buckets() {
        // The low 6 bits pick one of 64 buckets: 64 consecutive keys fill
        // every one of them, for plain and for (domain, line) keys.
        let plain: FastSet<u64> = (0u32..64).map(|i| hash_of(&i) & 63).collect();
        assert_eq!(plain.len(), 64);
        let pairs: FastSet<u64> = (0u16..64).map(|l| hash_of(&(1u8, l)) & 63).collect();
        assert_eq!(pairs.len(), 64);
    }

    #[test]
    fn byte_slices_hash_every_byte() {
        let a = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9][..]);
        let b = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 10][..]);
        assert_ne!(a, b);
    }
}
