//! Keyed routing: which partition each tenant's messages land on.
//!
//! Partitioning is where fleet-scale skew is born: a key-hash router can
//! pile the heaviest tenants onto one partition while others idle, and
//! the skew bounds the whole group's throughput (*How Fast Can We
//! Insert?*'s envelope is per partition, not per topic). The strategies
//! here are the sweep axis of the fleet scenario: Kafka's default
//! round-robin and key-hash, plus a locality strategy in the spirit of
//! Raptis & Passarella's *On Efficiently Partitioning a Topic in Apache
//! Kafka* — partitions are pre-divided into per-class ranges sized by
//! each class's traffic share, so co-located (same-class) streams share
//! partitions and classes do not interfere.

use serde::{Deserialize, Serialize};

use super::population::Population;

/// Routes one message to a partition.
///
/// Implementations must be deterministic functions of their own state and
/// the `(tenant, class)` key — the fleet engine relies on that for
/// bit-identical replays.
///
/// # Example
///
/// ```
/// use kafkasim::fleet::{Partitioner, PartitionStrategy};
///
/// let mut router = PartitionStrategy::RoundRobin.build_simple(8);
/// let first: Vec<u32> = (0..4).map(|t| router.route(t, 0, 8)).collect();
/// assert_eq!(first, vec![0, 1, 2, 3]);
/// ```
pub trait Partitioner {
    /// Picks the partition (`0..n_partitions`) for one message of
    /// `tenant` belonging to stream-class index `class`.
    fn route(&mut self, tenant: u32, class: u16, n_partitions: u32) -> u32;
}

/// The partitioning strategies the fleet scenario sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// Kafka's keyless default: a global cursor deals messages evenly
    /// regardless of tenant. No skew, but no per-tenant ordering.
    RoundRobin,
    /// Kafka's keyed default: `hash(tenant) % n`. Per-tenant ordering,
    /// with skew from hash collisions between heavy tenants.
    KeyHash,
    /// Locality-aware (after Raptis & Passarella): each class owns a
    /// contiguous partition range sized by its share of total traffic;
    /// tenants hash *within* their class's range.
    Locality,
}

impl PartitionStrategy {
    /// The strategy's stable display/CSV label.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PartitionStrategy::RoundRobin => "round-robin",
            PartitionStrategy::KeyHash => "key-hash",
            PartitionStrategy::Locality => "locality",
        }
    }

    /// Builds the router for a fleet of `n_partitions` partitions over
    /// `population`. The population is only consulted by
    /// [`PartitionStrategy::Locality`] (for class traffic shares).
    #[must_use]
    pub fn build(&self, n_partitions: u32, population: &Population) -> Box<dyn Partitioner> {
        match self {
            PartitionStrategy::RoundRobin => Box::new(RoundRobinPartitioner { cursor: 0 }),
            PartitionStrategy::KeyHash => Box::new(KeyHashPartitioner),
            PartitionStrategy::Locality => {
                Box::new(LocalityPartitioner::new(n_partitions, population))
            }
        }
    }

    /// Builds a router without a population (usable for
    /// [`PartitionStrategy::RoundRobin`] and
    /// [`PartitionStrategy::KeyHash`]; `Locality` falls back to
    /// key-hash since it has no class shares to divide by).
    #[must_use]
    pub fn build_simple(&self, _n_partitions: u32) -> Box<dyn Partitioner> {
        match self {
            PartitionStrategy::RoundRobin => Box::new(RoundRobinPartitioner { cursor: 0 }),
            PartitionStrategy::KeyHash | PartitionStrategy::Locality => {
                Box::new(KeyHashPartitioner)
            }
        }
    }
}

/// SplitMix64 finaliser: a cheap, well-mixed integer hash. Deterministic
/// across platforms (pure wrapping arithmetic).
#[must_use]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct RoundRobinPartitioner {
    cursor: u64,
}

impl Partitioner for RoundRobinPartitioner {
    fn route(&mut self, _tenant: u32, _class: u16, n_partitions: u32) -> u32 {
        let p = (self.cursor % u64::from(n_partitions)) as u32;
        self.cursor = self.cursor.wrapping_add(1);
        p
    }
}

struct KeyHashPartitioner;

impl Partitioner for KeyHashPartitioner {
    fn route(&mut self, tenant: u32, _class: u16, n_partitions: u32) -> u32 {
        (mix64(u64::from(tenant)) % u64::from(n_partitions)) as u32
    }
}

/// Locality router: contiguous per-class partition ranges sized by class
/// traffic share (weight × rate), with tenants hashed within their
/// class's range.
struct LocalityPartitioner {
    /// `ranges[class] = (first_partition, len)`, covering `0..n` exactly.
    ranges: Vec<(u32, u32)>,
}

impl LocalityPartitioner {
    fn new(n_partitions: u32, population: &Population) -> Self {
        // Largest-remainder apportionment of partitions by traffic share,
        // with every class guaranteed at least one partition when
        // possible (a zero-width range would stall the class entirely).
        let shares: Vec<f64> = population
            .entries()
            .iter()
            .map(|e| e.weight * e.class.rate_hz)
            .collect();
        let total: f64 = shares.iter().sum();
        let n_classes = shares.len();
        let quotas: Vec<f64> = shares
            .iter()
            .map(|s| s / total * n_partitions as f64)
            .collect();
        let mut widths: Vec<u32> = quotas.iter().map(|q| q.floor() as u32).collect();
        if n_partitions as usize >= n_classes {
            for w in widths.iter_mut() {
                *w = (*w).max(1);
            }
        }
        // Settle the seat count to exactly n_partitions.
        let mut order: Vec<usize> = (0..n_classes).collect();
        // `total_cmp` orders the remainders, all in `[+0, 1)`, as `partial_cmp`
        // does, and orders NaN too: shares whose sum underflows to 0 or
        // overflows to ∞ (valid weights and rates, products out of range)
        // give NaN quotas, which `partial_cmp` cannot order.
        order.sort_by(|&a, &b| {
            let ra = quotas[a] - quotas[a].floor();
            let rb = quotas[b] - quotas[b].floor();
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let mut assigned: u32 = widths.iter().sum();
        let mut i = 0usize;
        while assigned < n_partitions {
            widths[order[i % n_classes]] += 1;
            assigned += 1;
            i += 1;
        }
        // Over-assignment can only come from the max(1) floor; shrink the
        // widest classes back down.
        while assigned > n_partitions {
            let widest = (0..n_classes)
                .max_by_key(|&c| widths[c])
                .expect("a population has at least one class");
            if widths[widest] <= 1 {
                break;
            }
            widths[widest] -= 1;
            assigned -= 1;
        }
        let mut ranges = Vec::with_capacity(n_classes);
        let mut start = 0u32;
        for w in widths {
            ranges.push((start, w));
            start += w;
        }
        LocalityPartitioner { ranges }
    }
}

impl Partitioner for LocalityPartitioner {
    fn route(&mut self, tenant: u32, class: u16, n_partitions: u32) -> u32 {
        let (start, len) = self.ranges[class as usize];
        if len == 0 {
            // Degenerate (more classes than partitions): fall back to
            // plain key-hash over the whole topic.
            return (mix64(u64::from(tenant)) % u64::from(n_partitions)) as u32;
        }
        start + (mix64(u64::from(tenant)) % u64::from(len)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::super::population::{Population, PopulationEntry, StreamClass};
    use super::*;
    use crate::source::SizeSpec;
    use desim::SimDuration;

    fn pop(weights_rates: &[(f64, f64)]) -> Population {
        Population::new(
            weights_rates
                .iter()
                .enumerate()
                .map(|(i, &(weight, rate_hz))| PopulationEntry {
                    class: StreamClass {
                        name: format!("c{i}"),
                        size: SizeSpec::Fixed(200),
                        rate_hz,
                        timeliness: SimDuration::from_secs(30),
                    },
                    weight,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn round_robin_cycles_evenly() {
        let p = pop(&[(1.0, 1.0)]);
        let mut r = PartitionStrategy::RoundRobin.build(4, &p);
        let got: Vec<u32> = (0..8).map(|t| r.route(t, 0, 4)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn key_hash_is_sticky_per_tenant() {
        let p = pop(&[(1.0, 1.0)]);
        let mut r = PartitionStrategy::KeyHash.build(16, &p);
        let first = r.route(42, 0, 16);
        for _ in 0..10 {
            assert_eq!(r.route(42, 0, 16), first);
        }
        let hit: std::collections::BTreeSet<u32> = (0..200).map(|t| r.route(t, 0, 16)).collect();
        assert!(hit.len() > 10, "200 tenants should cover most partitions");
    }

    #[test]
    fn locality_ranges_partition_the_topic_by_traffic_share() {
        // Class 0 carries 0.5*4=2.0 traffic units, class 1 carries
        // 0.5*1=0.5: expect an 80/20 split of 10 partitions.
        let p = pop(&[(0.5, 4.0), (0.5, 1.0)]);
        let mut r = PartitionStrategy::Locality.build(10, &p);
        let class0: std::collections::BTreeSet<u32> = (0..500).map(|t| r.route(t, 0, 10)).collect();
        let class1: std::collections::BTreeSet<u32> = (0..500).map(|t| r.route(t, 1, 10)).collect();
        assert!(class0.iter().all(|&pt| pt < 8));
        assert!(class1.iter().all(|&pt| pt >= 8));
    }

    #[test]
    fn locality_gives_every_class_a_partition_when_possible() {
        // A tiny class must not get a zero-width range.
        let p = pop(&[(0.98, 10.0), (0.02, 0.1)]);
        let mut r = PartitionStrategy::Locality.build(4, &p);
        let tiny: std::collections::BTreeSet<u32> = (0..100).map(|t| r.route(t, 1, 4)).collect();
        assert_eq!(tiny.len(), 1, "tiny class fits one dedicated partition");
    }

    #[test]
    fn degenerate_locality_falls_back_to_key_hash() {
        // More classes than partitions: zero-width ranges route by hash.
        let p = pop(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let mut r = PartitionStrategy::Locality.build(2, &p);
        for t in 0..50 {
            for c in 0..3 {
                assert!(r.route(t, c, 2) < 2);
            }
        }
    }

    #[test]
    fn locality_with_shares_out_of_range_still_covers_the_topic() {
        // Valid weights and rates whose products overflow to ∞ or
        // underflow to 0: the quotas are NaN, and every class still gets
        // a range inside the topic.
        for p in [pop(&[(1e200, 1e200), (1.0, 1.0)]), pop(&[(1e-200, 1e-200)])] {
            let mut r = PartitionStrategy::Locality.build(4, &p);
            for c in 0..p.entries().len() as u16 {
                assert!((0..50).all(|t| r.route(t, c, 4) < 4));
            }
        }
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(PartitionStrategy::RoundRobin.name(), "round-robin");
        assert_eq!(PartitionStrategy::KeyHash.name(), "key-hash");
        assert_eq!(PartitionStrategy::Locality.name(), "locality");
    }
}
