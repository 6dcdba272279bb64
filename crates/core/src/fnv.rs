//! The one FNV-1a (64-bit) implementation behind every fingerprint in
//! the workspace: simulator/bench determinism prints, the cross-commit
//! golden constants and the size model's per-cell texture draws.
//! Multicast group keys no longer hash: their content word is the
//! delivery state itself (`cvr_mcast::undelivered_key`).
//!
//! Callers start from [`OFFSET`] and fold bytes ([`fold_bytes`]) or whole
//! words ([`fold_u64`], little-endian byte order). The byte order is part
//! of every committed fingerprint, so it must never change.

/// FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the accumulator `hash`, in slice order.
#[inline]
pub fn fold_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Folds the eight little-endian bytes of `word` into `hash`.
#[inline]
pub fn fold_u64(hash: u64, word: u64) -> u64 {
    fold_bytes(hash, &word.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        // FNV-1a 64 reference vectors (Noll's test suite).
        assert_eq!(fold_bytes(OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fold_bytes(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fold_bytes(OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_fold_is_the_little_endian_byte_fold() {
        let word = 0x0102_0304_0506_0708u64;
        assert_eq!(
            fold_u64(OFFSET, word),
            fold_bytes(OFFSET, &[8, 7, 6, 5, 4, 3, 2, 1])
        );
    }
}
