//! Consumer groups: membership, assignment, and deterministic rebalance.
//!
//! Kafka consumer groups redistribute partition ownership whenever
//! membership changes (a *rebalance*). The coordinator here implements
//! the two classic assignors — **range** (sorted members take contiguous
//! partition chunks, fully recomputed each generation) and **sticky**
//! (surviving members keep what they own; only orphaned partitions move)
//! — and reports exactly which partitions changed owner, which is the
//! "rebalance storm" size the fleet figure plots and the window the
//! engine charges duplicate re-reads to.

use serde::{Deserialize, Serialize};

/// Partition-assignment policy applied at every membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Assignor {
    /// Sort members, deal contiguous partition ranges. Simple, but a
    /// single join/leave can move almost every partition.
    Range,
    /// Keep surviving owners in place; reassign only orphaned or
    /// newly-freed partitions to the least-loaded members.
    Sticky,
}

impl Assignor {
    /// The assignor's stable display/CSV label.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Assignor::Range => "range",
            Assignor::Sticky => "sticky",
        }
    }
}

/// The outcome of one rebalance: the new generation, who owns what, and
/// how many partitions actually moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rebalance {
    /// Group generation after the change (starts at 1).
    pub generation: u64,
    /// Partitions whose owner changed (or went from unowned to owned).
    pub moved: Vec<u32>,
    /// Full post-rebalance assignment, one `(member, partitions)` pair
    /// per member in ascending member order.
    pub assignments: Vec<(u32, Vec<u32>)>,
}

/// Deterministic consumer-group coordinator.
///
/// Membership is a sorted set of member ids; every [`join`](Self::join)
/// or [`leave`](Self::leave) bumps the generation and reassigns
/// partitions under the configured [`Assignor`]. All state is plain
/// sorted vectors, so identical call sequences produce identical
/// assignments — the property the fleet bit-identity test pins.
///
/// # Example
///
/// ```
/// use kafkasim::fleet::{Assignor, GroupCoordinator};
///
/// let mut group = GroupCoordinator::new(Assignor::Sticky, 4, &[0, 1]);
/// let reb = group.join(2).expect("new member triggers a rebalance");
/// assert_eq!(reb.generation, 2);
/// // Sticky moves only what it must: member 2 takes one partition each
/// // from the two incumbents... or fewer, if balance allows.
/// assert!(reb.moved.len() < 4, "sticky does not reshuffle everything");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCoordinator {
    assignor: Assignor,
    n_partitions: u32,
    /// Current members, ascending.
    members: Vec<u32>,
    generation: u64,
    /// `owner[p]` is the member owning partition `p`, `None` when the
    /// group is empty.
    owner: Vec<Option<u32>>,
}

impl GroupCoordinator {
    /// Creates a group over `n_partitions` partitions with the given
    /// initial members (deduplicated, order-insensitive) and performs
    /// the generation-1 assignment.
    ///
    /// # Panics
    /// Panics when `n_partitions` is zero.
    #[must_use]
    pub fn new(assignor: Assignor, n_partitions: u32, initial_members: &[u32]) -> Self {
        assert!(n_partitions > 0, "a topic has at least one partition");
        let mut members: Vec<u32> = initial_members.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut group = GroupCoordinator {
            assignor,
            n_partitions,
            members,
            generation: 1,
            owner: vec![None; n_partitions as usize],
        };
        group.reassign();
        group
    }

    /// Current group generation.
    #[must_use]
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Current members, ascending.
    #[must_use]
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The member owning `partition`, when the group is non-empty.
    #[must_use]
    pub(crate) fn owner_of(&self, partition: u32) -> Option<u32> {
        self.owner[partition as usize]
    }

    /// Partitions owned by `member`, ascending.
    #[must_use]
    pub(crate) fn partitions_of(&self, member: u32) -> Vec<u32> {
        (0..self.n_partitions)
            .filter(|&p| self.owner[p as usize] == Some(member))
            .collect()
    }

    /// Adds a member. Returns the rebalance, or `None` if the member was
    /// already present (no generation bump).
    pub fn join(&mut self, member: u32) -> Option<Rebalance> {
        match self.members.binary_search(&member) {
            Ok(_) => None,
            Err(at) => {
                self.members.insert(at, member);
                Some(self.rebalance())
            }
        }
    }

    /// Removes a member. Returns the rebalance, or `None` if the member
    /// was not present.
    pub fn leave(&mut self, member: u32) -> Option<Rebalance> {
        match self.members.binary_search(&member) {
            Ok(at) => {
                self.members.remove(at);
                Some(self.rebalance())
            }
            Err(_) => None,
        }
    }

    fn rebalance(&mut self) -> Rebalance {
        self.generation += 1;
        let before = self.owner.clone();
        self.reassign();
        let moved: Vec<u32> = (0..self.n_partitions)
            .filter(|&p| {
                let i = p as usize;
                before[i] != self.owner[i] && self.owner[i].is_some()
            })
            .collect();
        Rebalance {
            generation: self.generation,
            moved,
            assignments: self
                .members
                .iter()
                .map(|&m| (m, self.partitions_of(m)))
                .collect(),
        }
    }

    fn reassign(&mut self) {
        if self.members.is_empty() {
            self.owner.iter_mut().for_each(|o| *o = None);
            return;
        }
        match self.assignor {
            Assignor::Range => {
                let n = self.n_partitions as usize;
                let m = self.members.len();
                let mut p = 0usize;
                for (i, &member) in self.members.iter().enumerate() {
                    let take = n / m + usize::from(i < n % m);
                    for _ in 0..take {
                        self.owner[p] = Some(member);
                        p += 1;
                    }
                }
            }
            Assignor::Sticky => {
                // Keep partitions whose owner survived; collect orphans.
                let mut load: Vec<(u32, usize)> =
                    self.members.iter().map(|&m| (m, 0usize)).collect();
                let mut orphans: Vec<u32> = Vec::new();
                for p in 0..self.n_partitions {
                    match self.owner[p as usize] {
                        Some(m) if self.members.binary_search(&m).is_ok() => {
                            load.iter_mut()
                                .find(|(id, _)| *id == m)
                                .expect("`load` has one entry per member")
                                .1 += 1;
                        }
                        _ => {
                            self.owner[p as usize] = None;
                            orphans.push(p);
                        }
                    }
                }
                // Strip incumbents holding more than the balanced ceiling
                // — their highest partitions become orphans too.
                let ceil = (self.n_partitions as usize).div_ceil(self.members.len());
                for entry in &mut load {
                    while entry.1 > ceil {
                        let heavy = entry.0;
                        let victim = (0..self.n_partitions)
                            .rev()
                            .find(|&p| self.owner[p as usize] == Some(heavy))
                            .expect("`heavy` owns more than `ceil` partitions");
                        self.owner[victim as usize] = None;
                        orphans.push(victim);
                        entry.1 -= 1;
                    }
                }
                orphans.sort_unstable();
                // Deal orphans one at a time to the lightest member (ties
                // to the lowest member id).
                for p in orphans {
                    let idx = load
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(id, c))| (c, id))
                        .map(|(i, _)| i)
                        .expect("the group is not empty");
                    self.owner[p as usize] = Some(load[idx].0);
                    load[idx].1 += 1;
                }
                // Final minimal balancing: move single partitions from the
                // heaviest to the lightest until spread ≤ 1.
                loop {
                    let max_i = (0..load.len())
                        .max_by_key(|&i| (load[i].1, usize::MAX - i))
                        .expect("the group is not empty");
                    let min_i = load
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(id, c))| (c, id))
                        .map(|(i, _)| i)
                        .expect("the group is not empty");
                    if load[max_i].1 <= load[min_i].1 + 1 {
                        break;
                    }
                    let heavy = load[max_i].0;
                    let victim = (0..self.n_partitions)
                        .rev()
                        .find(|&p| self.owner[p as usize] == Some(heavy))
                        .expect("`heavy` owns at least two partitions more than the lightest");
                    self.owner[victim as usize] = Some(load[min_i].0);
                    load[max_i].1 -= 1;
                    load[min_i].1 += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(g: &GroupCoordinator) -> Vec<usize> {
        g.members()
            .iter()
            .map(|&m| g.partitions_of(m).len())
            .collect()
    }

    #[test]
    fn range_deals_contiguous_chunks() {
        let g = GroupCoordinator::new(Assignor::Range, 10, &[5, 1, 3]);
        assert_eq!(g.members(), &[1, 3, 5]);
        assert_eq!(g.partitions_of(1), vec![0, 1, 2, 3]);
        assert_eq!(g.partitions_of(3), vec![4, 5, 6]);
        assert_eq!(g.partitions_of(5), vec![7, 8, 9]);
    }

    #[test]
    fn every_partition_is_owned_when_group_nonempty() {
        for assignor in [Assignor::Range, Assignor::Sticky] {
            let mut g = GroupCoordinator::new(assignor, 17, &[0, 1, 2, 3]);
            g.leave(2);
            g.join(9);
            g.join(10);
            g.leave(0);
            for p in 0..17 {
                assert!(g.owner_of(p).is_some(), "{assignor:?} left {p} orphaned");
            }
            let c = counts(&g);
            assert!(c.iter().max().unwrap() - c.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn sticky_moves_less_than_range() {
        let mut range = GroupCoordinator::new(Assignor::Range, 12, &[0, 1, 2]);
        let mut sticky = GroupCoordinator::new(Assignor::Sticky, 12, &[0, 1, 2]);
        let moved_range = range.join(3).unwrap().moved.len();
        let moved_sticky = sticky.join(3).unwrap().moved.len();
        assert!(
            moved_sticky < moved_range,
            "sticky {moved_sticky} >= range {moved_range}"
        );
        // Sticky moves the minimum: the new member's fair share.
        assert_eq!(moved_sticky, 3);
    }

    #[test]
    fn duplicate_join_and_absent_leave_are_no_ops() {
        let mut g = GroupCoordinator::new(Assignor::Sticky, 4, &[0, 1]);
        assert!(g.join(0).is_none());
        assert!(g.leave(7).is_none());
        assert_eq!(g.generation(), 1);
    }

    #[test]
    fn emptied_group_orphans_everything_and_recovers() {
        let mut g = GroupCoordinator::new(Assignor::Sticky, 4, &[0]);
        g.leave(0).unwrap();
        assert!((0..4).all(|p| g.owner_of(p).is_none()));
        let reb = g.join(5).unwrap();
        assert_eq!(reb.moved, vec![0, 1, 2, 3]);
        assert_eq!(g.partitions_of(5), vec![0, 1, 2, 3]);
    }

    #[test]
    fn identical_histories_give_identical_assignments() {
        let run = |assignor| {
            let mut g = GroupCoordinator::new(assignor, 32, &[0, 1, 2, 3, 4, 5, 6, 7]);
            g.join(8);
            g.leave(2);
            g.join(9);
            g.leave(0);
            g
        };
        for assignor in [Assignor::Range, Assignor::Sticky] {
            assert_eq!(run(assignor), run(assignor));
        }
    }

    #[test]
    fn rebalance_reports_match_owner_table() {
        let mut g = GroupCoordinator::new(Assignor::Range, 9, &[0, 1]);
        let reb = g.join(2).unwrap();
        for (m, parts) in &reb.assignments {
            assert_eq!(g.partitions_of(*m), *parts);
        }
        for &p in &reb.moved {
            assert!(g.owner_of(p).is_some());
        }
    }
}
