//! The hasher of the slot path's small integer keys.
//!
//! The maps a slot probes per user — delivery state by cell key
//! ([`crate::cache`]) and group identity by `cvr_mcast::GroupKey` — are keyed
//! by a few machine words with most of their entropy in a handful of
//! neighbouring bits (cells a user walks through differ by one in `x` or
//! `z`). `std`'s SipHash pays ≈ 20 ns a probe to defend string keys; these
//! need two properties only:
//!
//! * **Both ends of the word carry every key bit.** hashbrown picks the
//!   bucket from a hash's low bits and the 7-bit control tag from its top
//!   bits. A bare multiply feeds key bits upwards only, so cells differing
//!   in `x` alone (bits 20 and up of a cell key) would share every low bit
//!   — one bucket for a whole row of the world. [`CellHasher::finish`]
//!   therefore folds the high half down, multiplies again and folds once
//!   more (xorshift–multiply–xorshift, the shape of splitmix64's
//!   finaliser).
//! * **A peer cannot precompute collisions.** ACK and release ids come off
//!   the wire, so the initial state is a per-process secret drawn once
//!   from [`RandomState`]. It enters before the first multiply, so which
//!   keys share a bucket depends on it non-linearly. Every builder of a
//!   process carries the same seed: a cloned map stays valid, and two maps
//!   hash alike.
//!
//! Hash values, and with them map iteration order, differ between
//! processes exactly as they do under `RandomState` — nothing that reaches
//! an output may iterate one of these maps.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// 2⁶⁴ / φ, odd: the per-word multiplier.
const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// splitmix64's first finaliser multiplier, odd.
const FINISH_MUL: u64 = 0xBF58_476D_1CE4_E5B9;

/// Multiply–xorshift hasher over the words of a small integer key.
#[derive(Debug, Clone, Copy)]
pub struct CellHasher(u64);

impl Hasher for CellHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(WORD_MUL);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let folded = self.0 ^ (self.0 >> 32);
        let mixed = folded.wrapping_mul(FINISH_MUL);
        mixed ^ (mixed >> 29)
    }
}

/// Builds [`CellHasher`]s seeded with the process's secret.
#[derive(Debug, Clone, Copy)]
pub struct CellHashBuilder {
    seed: u64,
}

impl Default for CellHashBuilder {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        CellHashBuilder {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for CellHashBuilder {
    type Hasher = CellHasher;

    #[inline]
    fn build_hasher(&self) -> CellHasher {
        CellHasher(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CellId;
    use crate::id::VideoId;

    /// Bucket loads (low 12 bits) and tag use (top 7 bits) of `hashes`.
    /// The seed differs per process, so the bound is one a uniformly
    /// random placement exceeds less than once in 10⁵ runs: four times the
    /// mean load, or 12 where the mean is one key a bucket.
    fn assert_spread(what: &str, hashes: &[u64]) {
        let mut buckets = vec![0usize; 1 << 12];
        let mut tags = [false; 128];
        for &hash in hashes {
            buckets[(hash & 0xFFF) as usize] += 1;
            tags[(hash >> 57) as usize] = true;
        }
        let mean = hashes.len().div_ceil(buckets.len());
        let worst = *buckets.iter().max().expect("4096 buckets");
        assert!(
            worst <= (4 * mean).max(12),
            "{what}: a bucket holds {worst} of {} keys (mean {mean})",
            hashes.len()
        );
        let used = tags.iter().filter(|&&used| used).count();
        assert_eq!(used, 128, "{what}: only {used} of 128 control tags used");
    }

    /// The cells of three key families: the whole paper-default world,
    /// 4 096 cells of equal `z`, 4 096 of equal `x`.
    fn key_families() -> [(&'static str, Vec<CellId>); 3] {
        // The paper-default world is 240 cells along each axis.
        let half = 120;
        let world = (-half..=half)
            .flat_map(|x| (-half..=half).map(move |z| CellId { x, z }))
            .collect();
        let row = (-2048..2048).map(|x| CellId { x, z: 17 }).collect();
        let column = (-2048..2048).map(|z| CellId { x: -3, z }).collect();
        [("world", world), ("equal z", row), ("equal x", column)]
    }

    #[test]
    fn cell_keys_spread_over_buckets_and_tags() {
        let build = CellHashBuilder::default();
        for (what, cells) in key_families() {
            let hashes: Vec<u64> = cells
                .iter()
                .map(|&cell| build.hash_one(VideoId::key_of(cell)))
                .collect();
            assert_spread(what, &hashes);
        }
    }

    #[test]
    fn cell_ids_spread_over_buckets_and_tags() {
        let build = CellHashBuilder::default();
        for (what, cells) in key_families() {
            let hashes: Vec<u64> = cells.iter().map(|cell| build.hash_one(cell)).collect();
            assert_spread(what, &hashes);
        }
    }

    #[test]
    fn a_bare_multiply_would_pile_a_row_of_cells_into_one_bucket() {
        // What the finaliser is for: without it, keys differing only above
        // bit 20 agree on the low 12 bits of the hash.
        let buckets: std::collections::HashSet<u64> = (-2048..2048)
            .map(|x| VideoId::key_of(CellId { x, z: 17 }).wrapping_mul(WORD_MUL) & 0xFFF)
            .collect();
        assert_eq!(buckets.len(), 1);
    }

    #[test]
    fn every_builder_of_a_process_hashes_alike() {
        let (a, b) = (CellHashBuilder::default(), CellHashBuilder::default());
        for key in [0u64, 1, 0x00FF_FFFF_FFFF, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        let cell = CellId { x: -7, z: 7 };
        assert_eq!(a.hash_one(cell), b.hash_one(cell));
    }

    #[test]
    fn byte_writes_hash_the_same_words_as_integer_writes() {
        let build = CellHashBuilder::default();
        let mut by_word = build.build_hasher();
        by_word.write_u64(0x0102_0304_0506_0708);
        by_word.write_u32(0x0A0B_0C0D);
        let mut by_bytes = build.build_hasher();
        by_bytes.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        by_bytes.write(&0x0A0B_0C0Du32.to_le_bytes());
        assert_eq!(by_word.finish(), by_bytes.finish());
    }
}
