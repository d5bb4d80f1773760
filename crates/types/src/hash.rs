//! FNV-1a (64-bit): the workspace's one non-cryptographic hash.
//!
//! Every digest, content hash and signature in the platform folds bytes
//! through this type: the end-state digests that pin determinism, the
//! triggered-report change detector, and — keyed — the trusted-authority
//! signatures on VSF pushes and config bundles.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a-64 hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The standard FNV-1a-64 start state.
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// A keyed start state: the offset basis XOR `key`.
    pub const fn keyed(key: u64) -> Self {
        Fnv1a(OFFSET_BASIS ^ key)
    }

    /// Fold `bytes` in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// Fold `v` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything folded so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn standard_fnv1a_64_vectors() {
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_and_keyed_states_compose() {
        let mut split = Fnv1a::new();
        split.write(b"foo");
        split.write(b"bar");
        assert_eq!(split.finish(), hash(b"foobar"));

        let mut word = Fnv1a::new();
        word.write_u64(0x0807_0605_0403_0201);
        assert_eq!(word.finish(), hash(&[1, 2, 3, 4, 5, 6, 7, 8]));

        assert_eq!(Fnv1a::keyed(0), Fnv1a::new());
        assert_ne!(Fnv1a::keyed(1).finish(), Fnv1a::new().finish());
    }
}
