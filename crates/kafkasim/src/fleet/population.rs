//! The producer population: which stream classes exist and how many
//! producers each one gets.
//!
//! The paper's Table II describes three application scenarios (social
//! media, web access records, game traffic); a fleet run instantiates a
//! *population* of producers drawn from a weighted mix of such classes.
//! Apportionment is deterministic largest-remainder (no sampling), so the
//! same population always yields the same tenant→class map and fleet runs
//! stay bit-identical at a fixed seed.

use desim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::source::SizeSpec;

/// One stream class of the population — the per-producer workload shape.
///
/// This is the `kafkasim`-level projection of a Table II scenario: just
/// the payload-size model, the per-producer emission rate and the
/// timeliness bound. The KPI-weight side of a scenario (needed for the
/// per-class γ of Eq. 2) stays in `testbed`/`core`, keeping the crate
/// dependency direction intact.
///
/// # Example
///
/// ```
/// use desim::SimDuration;
/// use kafkasim::fleet::StreamClass;
/// use kafkasim::source::SizeSpec;
///
/// let game = StreamClass {
///     name: "game-traffic".into(),
///     size: SizeSpec::Uniform { low: 40, high: 100 },
///     rate_hz: 2.0,
///     timeliness: SimDuration::from_millis(300),
/// };
/// assert_eq!(game.size.mean(), 70.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamClass {
    /// Class label (kebab-case by convention, e.g. `"social-media"`).
    pub name: String,
    /// Payload-size model of one producer of this class.
    pub size: SizeSpec,
    /// Per-producer emission rate, messages/second.
    pub rate_hz: f64,
    /// Message timeliness bound `S` of the class.
    pub timeliness: SimDuration,
}

/// One entry of the population mix: a class and its share of producers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationEntry {
    /// The stream class.
    pub class: StreamClass,
    /// Relative weight (any positive finite number; normalised over the
    /// population).
    pub weight: f64,
}

/// A weighted mix of stream classes, apportioned deterministically over
/// a producer count.
///
/// # Example
///
/// ```
/// use desim::SimDuration;
/// use kafkasim::fleet::{Population, PopulationEntry, StreamClass};
/// use kafkasim::source::SizeSpec;
///
/// let class = |name: &str| StreamClass {
///     name: name.into(),
///     size: SizeSpec::Fixed(200),
///     rate_hz: 1.0,
///     timeliness: SimDuration::from_secs(30),
/// };
/// let pop = Population::new(vec![
///     PopulationEntry { class: class("a"), weight: 0.7 },
///     PopulationEntry { class: class("b"), weight: 0.3 },
/// ])
/// .expect("positive weights and rates");
///
/// let classes = pop.apportion(10);
/// assert_eq!(classes.len(), 10);
/// assert_eq!(classes.iter().filter(|&&c| c == 0).count(), 7);
/// assert_eq!(classes.iter().filter(|&&c| c == 1).count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Population {
    entries: Vec<PopulationEntry>,
}

impl Population {
    /// Builds a population from a non-empty weighted mix.
    ///
    /// # Errors
    ///
    /// Rejects an empty mix, non-finite or non-positive weights, and
    /// non-positive rates.
    pub fn new(entries: Vec<PopulationEntry>) -> Result<Self, String> {
        if entries.is_empty() {
            return Err("population must have at least one class".into());
        }
        for e in &entries {
            if !e.weight.is_finite() || e.weight <= 0.0 {
                return Err(format!(
                    "class '{}' weight must be finite and positive, got {}",
                    e.class.name, e.weight
                ));
            }
            if !e.class.rate_hz.is_finite() || e.class.rate_hz <= 0.0 {
                return Err(format!(
                    "class '{}' rate must be finite and positive, got {}",
                    e.class.name, e.class.rate_hz
                ));
            }
        }
        Ok(Population { entries })
    }

    /// The class mix, in declaration order.
    #[must_use]
    pub fn entries(&self) -> &[PopulationEntry] {
        &self.entries
    }

    /// The class at `idx` (as produced by [`Population::apportion`]).
    #[must_use]
    pub fn class(&self, idx: u16) -> &StreamClass {
        &self.entries[idx as usize].class
    }

    /// Assigns every producer `0..producers` a class index.
    ///
    /// Per-class counts come from largest-remainder apportionment of the
    /// normalised weights; producers are then dealt round-robin across
    /// the classes (one per class per cycle while any remain), so class
    /// membership interleaves rather than forming contiguous tenant-id
    /// blocks. Purely arithmetic — no RNG — hence reproducible.
    #[must_use]
    pub fn apportion(&self, producers: usize) -> Vec<u16> {
        let total: f64 = self.entries.iter().map(|e| e.weight).sum();
        // Floor quotas first, then hand leftover seats to the largest
        // fractional remainders (ties to the earlier-declared class).
        let quotas: Vec<f64> = self
            .entries
            .iter()
            .map(|e| e.weight / total * producers as f64)
            .collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let assigned: usize = counts.iter().sum();
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = quotas[a] - quotas[a].floor();
            let rb = quotas[b] - quotas[b].floor();
            // Each weight is finite and positive, so `weight / total` is in
            // `[0, 1]` even when `total` overflows.
            rb.partial_cmp(&ra)
                .expect("no quota is NaN")
                .then(a.cmp(&b))
        });
        for i in 0..producers.saturating_sub(assigned) {
            counts[order[i % order.len()]] += 1;
        }

        let mut remaining = counts;
        let mut out = Vec::with_capacity(producers);
        while out.len() < producers {
            for (idx, left) in remaining.iter_mut().enumerate() {
                if *left > 0 {
                    *left -= 1;
                    out.push(idx as u16);
                    if out.len() == producers {
                        break;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(name: &str, rate_hz: f64) -> StreamClass {
        StreamClass {
            name: name.into(),
            size: SizeSpec::Fixed(200),
            rate_hz,
            timeliness: SimDuration::from_secs(30),
        }
    }

    #[test]
    fn rejects_bad_mixes() {
        assert!(Population::new(vec![]).is_err());
        assert!(Population::new(vec![PopulationEntry {
            class: class("a", 1.0),
            weight: 0.0,
        }])
        .is_err());
        assert!(Population::new(vec![PopulationEntry {
            class: class("a", 1.0),
            weight: f64::NAN,
        }])
        .is_err());
        assert!(Population::new(vec![PopulationEntry {
            class: class("a", 0.0),
            weight: 1.0,
        }])
        .is_err());
    }

    #[test]
    fn apportionment_is_exact_and_interleaved() {
        let pop = Population::new(vec![
            PopulationEntry {
                class: class("a", 1.0),
                weight: 0.5,
            },
            PopulationEntry {
                class: class("b", 1.0),
                weight: 0.3,
            },
            PopulationEntry {
                class: class("c", 1.0),
                weight: 0.2,
            },
        ])
        .unwrap();
        let classes = pop.apportion(1000);
        assert_eq!(classes.len(), 1000);
        assert_eq!(classes.iter().filter(|&&c| c == 0).count(), 500);
        assert_eq!(classes.iter().filter(|&&c| c == 1).count(), 300);
        assert_eq!(classes.iter().filter(|&&c| c == 2).count(), 200);
        // Interleaved: the first cycle deals one of each.
        assert_eq!(&classes[..3], &[0, 1, 2]);
    }

    #[test]
    fn largest_remainder_settles_fractional_seats() {
        // 1/3 weights over 10 producers: 4/3/3, remainder to the
        // earliest-declared class.
        let pop = Population::new(
            (0..3)
                .map(|i| PopulationEntry {
                    class: class(&format!("c{i}"), 1.0),
                    weight: 1.0,
                })
                .collect(),
        )
        .unwrap();
        let classes = pop.apportion(10);
        assert_eq!(classes.iter().filter(|&&c| c == 0).count(), 4);
        assert_eq!(classes.iter().filter(|&&c| c == 1).count(), 3);
        assert_eq!(classes.iter().filter(|&&c| c == 2).count(), 3);
    }

    #[test]
    fn apportionment_is_deterministic() {
        let pop = Population::new(vec![
            PopulationEntry {
                class: class("a", 1.0),
                weight: 0.61,
            },
            PopulationEntry {
                class: class("b", 1.0),
                weight: 0.39,
            },
        ])
        .unwrap();
        assert_eq!(pop.apportion(997), pop.apportion(997));
    }
}
