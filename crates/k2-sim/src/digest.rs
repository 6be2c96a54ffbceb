//! 64-bit FNV-1a folding for snapshot identity checks.
//!
//! A [`Fnv64`] accumulates the structural state of a machine snapshot
//! into one 64-bit digest: cheap to compute, deterministic across runs
//! and platforms (everything is folded as explicit little-endian bytes,
//! never via `Hash`/`Debug`, whose output is not pinned), and sensitive
//! enough that two snapshots agreeing on the digest almost surely carry
//! the same state. Collision resistance is *not* a goal — digests gate
//! fast-path equality assertions in tests and benches, and every
//! differential suite also compares full rendered reports.
//!
//! # Examples
//!
//! ```
//! use k2_sim::digest::Fnv64;
//!
//! let mut a = Fnv64::new();
//! a.u64(7).str("mail").bytes(&[1, 2, 3]);
//! let mut b = Fnv64::new();
//! b.u64(7).str("mail").bytes(&[1, 2, 3]);
//! assert_eq!(a.finish(), b.finish());
//! assert_ne!(Fnv64::new().u64(7).finish(), Fnv64::new().u64(8).finish());
//! ```

/// Incremental FNV-1a (64-bit) hasher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a digest at the offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a `u64` as 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds an `i64`.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds an `f64` via its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// Folds a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Folds a `bool`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.bytes(&[v as u8])
    }

    /// Folds a string's bytes, length-prefixed so `("ab","c")` and
    /// `("a","bc")` digest differently.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.bytes(s.as_bytes())
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::new().bytes(b"foobar").finish(), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_separates_string_splits() {
        let mut a = Fnv64::new();
        a.str("ab").str("c");
        let mut b = Fnv64::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let h1 = Fnv64::new().bytes(b"abc").finish();
        assert_ne!(h1, Fnv64::new().bytes(b"acb").finish());
        // Chunked hashing equals whole-buffer hashing.
        assert_eq!(h1, Fnv64::new().bytes(b"ab").bytes(b"c").finish());
    }
}
