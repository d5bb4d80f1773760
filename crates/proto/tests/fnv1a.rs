//! `flexran_types::hash::Fnv1a` against a bytewise reference written from
//! the FNV-1a definition, on arbitrary interleavings of byte slices and
//! `u64` words, plain and keyed. Signatures and digests across the
//! workspace fold their input through this one hasher.

use proptest::prelude::*;

use flexran_types::hash::Fnv1a;

/// FNV-1a-64 over `bytes` from `basis`: XOR each byte in, then multiply
/// by the FNV-64 prime 2^40 + 2^8 + 0xb3.
fn reference(basis: u64, bytes: &[u8]) -> u64 {
    const FNV64_PRIME: u64 = (1 << 40) + (1 << 8) + 0xb3;
    bytes
        .iter()
        .fold(basis, |h, &b| (h ^ b as u64).wrapping_mul(FNV64_PRIME))
}

/// The FNV-64 offset basis, in the decimal form the definition gives.
const FNV64_OFFSET_BASIS: u64 = 14_695_981_039_346_656_037;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn streaming_hasher_equals_bytewise_reference(
        key in any::<u64>(),
        keyed in any::<bool>(),
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..24), any::<u64>()),
            0..12,
        ),
    ) {
        let (mut h, basis) = if keyed {
            (Fnv1a::keyed(key), FNV64_OFFSET_BASIS ^ key)
        } else {
            (Fnv1a::new(), FNV64_OFFSET_BASIS)
        };
        let mut stream = Vec::new();
        for (is_word, bytes, word) in ops {
            if is_word {
                h.write_u64(word);
                stream.extend_from_slice(&word.to_le_bytes());
            } else {
                h.write(&bytes);
                stream.extend_from_slice(&bytes);
            }
        }
        prop_assert_eq!(h.finish(), reference(basis, &stream));
    }
}
