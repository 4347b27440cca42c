//! Deterministic, cheap hashing for simulation hot-path maps.
//!
//! Simulation bookkeeping maps are keyed by small integers the sim itself
//! hands out — request ids, connection indices, sequential message keys.
//! `std`'s default SipHash is DoS-resistant, which none of
//! these need, and costs several times more per operation than the keys
//! deserve. This module provides the classic multiply-xor construction
//! (the `FxHash` scheme rustc uses for its own interner tables) behind
//! thin [`HashMap`]/[`HashSet`] wrappers.
//!
//! The hasher is fixed-seed, so map *iteration order* is deterministic
//! across processes. No runtime result may depend on iteration order
//! regardless, but determinism here removes the temptation entirely.
//!
//! # Capacity-preserving clones
//!
//! [`FastMap`] and [`FastSet`] are newtypes rather than bare type aliases
//! for one reason: `std`'s derived `Clone` allocates the clone at the
//! *minimum* capacity for the current length, not the original's
//! capacity. Because bucket count determines iteration order, a clone
//! could silently iterate in a different order than its source — a
//! determinism hazard for any caller that snapshots a map mid-run (and a
//! silent rehash cost for clones that keep growing). The `Clone` impls
//! here re-reserve the source's capacity first, so a clone has the same
//! bucket layout, the same iteration order, and no deferred rehash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The fixed [`BuildHasher`](std::hash::BuildHasher) behind the fast maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

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

/// A [`HashMap`] keyed through [`FxHasher`], with a capacity-preserving
/// [`Clone`]. Dereferences to the underlying map for the full API.
#[derive(Debug)]
pub struct FastMap<K, V>(HashMap<K, V, FxBuildHasher>);

impl<K, V> Default for FastMap<K, V> {
    fn default() -> Self {
        FastMap::new()
    }
}

impl<K, V> FastMap<K, V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        FastMap(HashMap::with_hasher(FxBuildHasher::default()))
    }

    /// An empty map with room for `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FastMap(HashMap::with_capacity_and_hasher(
            capacity,
            FxBuildHasher::default(),
        ))
    }
}

impl<K: Clone + Eq + Hash, V: Clone> Clone for FastMap<K, V> {
    fn clone(&self) -> Self {
        // Reserve the source's capacity *before* inserting so the clone
        // lands in the same bucket layout (same iteration order) and
        // never rehashes while catching up to the source's size.
        let mut m = FastMap::with_capacity(self.0.capacity());
        m.0.extend(self.0.iter().map(|(k, v)| (k.clone(), v.clone())));
        m
    }
}

impl<K, V> Deref for FastMap<K, V> {
    type Target = HashMap<K, V, FxBuildHasher>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<K, V> DerefMut for FastMap<K, V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for FastMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = FastMap::new();
        m.0.extend(iter);
        m
    }
}

impl<K: Eq + Hash, V> Extend<(K, V)> for FastMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl<'a, K, V> IntoIterator for &'a FastMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::collections::hash_map::Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<'a, K, V> IntoIterator for &'a mut FastMap<K, V> {
    type Item = (&'a K, &'a mut V);
    type IntoIter = std::collections::hash_map::IterMut<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter_mut()
    }
}

impl<K, V> IntoIterator for FastMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::collections::hash_map::IntoIter<K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for FastMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K: Eq + Hash, V: Eq> Eq for FastMap<K, V> {}

/// A [`HashSet`] keyed through [`FxHasher`], with a capacity-preserving
/// [`Clone`]. Dereferences to the underlying set for the full API.
#[derive(Debug)]
pub struct FastSet<T>(HashSet<T, FxBuildHasher>);

impl<T> Default for FastSet<T> {
    fn default() -> Self {
        FastSet::new()
    }
}

impl<T> FastSet<T> {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        FastSet(HashSet::with_hasher(FxBuildHasher::default()))
    }

    /// An empty set with room for `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FastSet(HashSet::with_capacity_and_hasher(
            capacity,
            FxBuildHasher::default(),
        ))
    }
}

impl<T: Clone + Eq + Hash> Clone for FastSet<T> {
    fn clone(&self) -> Self {
        let mut s = FastSet::with_capacity(self.0.capacity());
        s.0.extend(self.0.iter().cloned());
        s
    }
}

impl<T> Deref for FastSet<T> {
    type Target = HashSet<T, FxBuildHasher>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<T> DerefMut for FastSet<T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<T: Eq + Hash> FromIterator<T> for FastSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = FastSet::new();
        s.0.extend(iter);
        s
    }
}

impl<T: Eq + Hash> Extend<T> for FastSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl<'a, T> IntoIterator for &'a FastSet<T> {
    type Item = &'a T;
    type IntoIter = std::collections::hash_set::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<T> IntoIterator for FastSet<T> {
    type Item = T;
    type IntoIter = std::collections::hash_set::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<T: Eq + Hash> PartialEq for FastSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T: Eq + Hash> Eq for FastSet<T> {}

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
    fn clone_preserves_capacity_and_iteration_order() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        // Grow, then shrink the *length* far below capacity: a naive
        // clone would allocate small and iterate differently.
        for k in 0..4_096u64 {
            m.insert(k, k);
        }
        for k in 64..4_096u64 {
            m.remove(&k);
        }
        let c = m.clone();
        assert_eq!(c.capacity(), m.capacity(), "clone must not shrink");
        let orig: Vec<u64> = m.keys().copied().collect();
        let cloned: Vec<u64> = c.keys().copied().collect();
        assert_eq!(orig, cloned, "same buckets, same iteration order");
        assert_eq!(m, c);

        let mut s: FastSet<u64> = (0..4_096).collect();
        for k in 64..4_096u64 {
            s.remove(&k);
        }
        let sc = s.clone();
        assert_eq!(sc.capacity(), s.capacity());
        let a: Vec<u64> = s.iter().copied().collect();
        let b: Vec<u64> = sc.iter().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn collect_and_iterate() {
        let m: FastMap<u32, u32> = (0..10).map(|k| (k, k * k)).collect();
        let mut sum = 0;
        for (_, v) in &m {
            sum += v;
        }
        assert_eq!(sum, (0..10).map(|k| k * k).sum::<u32>());
        let s: FastSet<u32> = (0..10).collect();
        assert_eq!(s.len(), 10);
        assert_eq!((&s).into_iter().count(), 10);
    }
}
