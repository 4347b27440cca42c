//! Deterministic, cheap hashing for simulation hot-path maps.
//!
//! Simulation bookkeeping maps are keyed by small integers the sim itself
//! hands out — request ids, connection indices, sequential message keys.
//! `std`'s default SipHash is DoS-resistant, which none of
//! these need, and costs several times more per operation than the keys
//! deserve. This module provides the classic multiply-xor construction
//! (the `FxHash` scheme rustc uses for its own interner tables) and
//! [`HashMap`]/[`HashSet`] aliases over it.
//!
//! The hasher is fixed-seed, so map *iteration order* is deterministic
//! across processes. No runtime result may depend on iteration order
//! regardless, but determinism here removes the temptation entirely.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The fixed [`BuildHasher`](std::hash::BuildHasher) behind the fast maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] keyed through [`FxHasher`]; build one with `default()`.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] keyed through [`FxHasher`]; build one with `default()`.
pub type FastSet<T> = HashSet<T, FxBuildHasher>;

/// `pi * 2^61`, an odd constant with well-mixed bits.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-xor hasher: each 8-byte word is rotated into the state and
/// multiplied by `SEED` (π·2⁶¹). Not collision-resistant against adversarial
/// keys — only for keys the simulation itself generates.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_round_trip_sequential_keys() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..10_000u64 {
            m.insert(k, k * 2);
        }
        for k in 0..10_000u64 {
            assert_eq!(m.get(&k), Some(&(k * 2)));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn sets_deduplicate() {
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
    }

    #[test]
    fn hashes_are_deterministic_and_dispersed() {
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        // Fixed seed: same input, same output, every process.
        assert_eq!(hash(42), hash(42));
        // Sequential keys must not collide or cluster into a few buckets.
        let hashes: Vec<u64> = (0..1000).map(hash).collect();
        let mut unique = hashes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), hashes.len());
    }

    #[test]
    fn collect_and_iterate() {
        let m: FastMap<u32, u32> = (0..10).map(|k| (k, k * k)).collect();
        assert_eq!(m.values().sum::<u32>(), (0..10).map(|k| k * k).sum());
        let s: FastSet<u32> = (0..10).collect();
        let mut keys: Vec<u32> = s.into_iter().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..10).collect::<Vec<u32>>());
    }
}
