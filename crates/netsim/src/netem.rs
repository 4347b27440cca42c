//! NetEm-style impairment: a network *condition* (delay + loss) and
//! time-varying condition timelines.
//!
//! The paper's testbed injects faults with the Linux NetEm emulator
//! (Jurgelionis et al., ICCCN 2011): a fixed one-way delay `D` and i.i.d.
//! packet loss rate `L` during each experiment ([`NetCondition`], which sets
//! both on the links), and in the dynamic-configuration experiment (Fig. 9)
//! a Pareto delay and a Gilbert–Elliott loss level sampled once per
//! interval ([`ConditionTimeline`], a piecewise-constant schedule of
//! conditions that [`crate::trace`] generates).

use desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A snapshot of the network condition between producer and cluster: the
/// paper's feature pair `(D, L)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetCondition {
    /// One-way network delay `D`.
    pub delay: SimDuration,
    /// Packet loss rate `L` in `[0, 1]`.
    pub loss_rate: f64,
}

impl NetCondition {
    /// A condition with the given one-way delay and loss rate.
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1]`.
    #[must_use]
    pub fn new(delay: SimDuration, loss_rate: f64) -> Self {
        assert!(
            loss_rate.is_finite() && (0.0..=1.0).contains(&loss_rate),
            "loss_rate must be in [0,1]"
        );
        NetCondition { delay, loss_rate }
    }

    /// The paper's "normal case" boundary: `D < 200 ms` and `L = 0`.
    #[must_use]
    pub fn is_normal(&self) -> bool {
        self.delay < SimDuration::from_millis(200) && self.loss_rate == 0.0
    }
}

impl Default for NetCondition {
    /// A healthy LAN: 1 ms one-way delay, no loss.
    fn default() -> Self {
        NetCondition::new(SimDuration::from_millis(1), 0.0)
    }
}

/// A piecewise-constant schedule of network conditions over simulated time.
///
/// Used to replay the Fig. 9 network in the dynamic-configuration
/// experiment: the condition changes at each breakpoint and holds until the
/// next one.
///
/// # Example
///
/// ```
/// use netsim::{ConditionTimeline, NetCondition};
/// use desim::{SimDuration, SimTime};
///
/// let tl = ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(100), 0.15));
/// assert_eq!(tl.at(SimTime::from_secs(90)).loss_rate, 0.15);
/// assert_eq!(tl.last_change(), SimTime::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionTimeline {
    breakpoints: Vec<(SimTime, NetCondition)>,
}

/// Error building a [`ConditionTimeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimelineError {
    /// The breakpoint list was empty.
    Empty,
    /// Breakpoints were not strictly increasing in time.
    NotSorted,
    /// The first breakpoint was not at time zero.
    MissingOrigin,
}

impl core::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TimelineError::Empty => write!(f, "timeline needs at least one breakpoint"),
            TimelineError::NotSorted => write!(f, "breakpoints must strictly increase in time"),
            TimelineError::MissingOrigin => write!(f, "first breakpoint must be at time zero"),
        }
    }
}

impl std::error::Error for TimelineError {}

impl ConditionTimeline {
    /// Builds a timeline from `(start, condition)` breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`TimelineError`] when the list is empty, unsorted, or does
    /// not start at time zero.
    pub(crate) fn new(breakpoints: Vec<(SimTime, NetCondition)>) -> Result<Self, TimelineError> {
        if breakpoints.is_empty() {
            return Err(TimelineError::Empty);
        }
        if breakpoints[0].0 != SimTime::ZERO {
            return Err(TimelineError::MissingOrigin);
        }
        if breakpoints.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(TimelineError::NotSorted);
        }
        Ok(ConditionTimeline { breakpoints })
    }

    /// A timeline that holds a single condition forever.
    #[must_use]
    pub fn constant(condition: NetCondition) -> Self {
        ConditionTimeline {
            breakpoints: vec![(SimTime::ZERO, condition)],
        }
    }

    /// The condition in force at instant `t`.
    #[must_use]
    pub fn at(&self, t: SimTime) -> NetCondition {
        match self
            .breakpoints
            .binary_search_by(|(start, _)| start.cmp(&t))
        {
            Ok(i) => self.breakpoints[i].1,
            Err(0) => self.breakpoints[0].1, // unreachable: origin at zero
            Err(i) => self.breakpoints[i - 1].1,
        }
    }

    /// The next breakpoint strictly after `t`, if any.
    #[must_use]
    pub(crate) fn next_change(&self, t: SimTime) -> Option<SimTime> {
        self.breakpoints
            .iter()
            .map(|(start, _)| *start)
            .find(|start| *start > t)
    }

    /// All breakpoints in order.
    #[must_use]
    pub fn breakpoints(&self) -> &[(SimTime, NetCondition)] {
        &self.breakpoints
    }

    /// The instant of the final breakpoint.
    #[must_use]
    pub fn last_change(&self) -> SimTime {
        self.breakpoints
            .last()
            .map(|(t, _)| *t)
            .unwrap_or(SimTime::ZERO)
    }

    /// Time-averaged loss rate between `from` and `to`.
    ///
    /// Useful when summarising what a trace did over an experiment.
    #[must_use]
    pub(crate) fn mean_loss(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return self.at(from).loss_rate;
        }
        let mut acc = 0.0;
        let mut cursor = from;
        while cursor < to {
            let cond = self.at(cursor);
            let next = self.next_change(cursor).filter(|n| *n < to).unwrap_or(to);
            acc += cond.loss_rate * next.saturating_since(cursor).as_secs_f64();
            cursor = next;
        }
        acc / to.saturating_since(from).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(ms: u64, loss: f64) -> NetCondition {
        NetCondition::new(SimDuration::from_millis(ms), loss)
    }

    #[test]
    fn normal_case_boundary_matches_paper() {
        assert!(cond(100, 0.0).is_normal());
        assert!(!cond(250, 0.0).is_normal());
        assert!(!cond(100, 0.01).is_normal());
        // D < 200ms is strict.
        assert!(!cond(200, 0.0).is_normal());
    }

    #[test]
    fn timeline_lookup() {
        let tl = ConditionTimeline::new(vec![
            (SimTime::ZERO, cond(10, 0.0)),
            (SimTime::from_secs(10), cond(100, 0.1)),
            (SimTime::from_secs(20), cond(50, 0.05)),
        ])
        .unwrap();
        assert_eq!(tl.at(SimTime::ZERO), cond(10, 0.0));
        assert_eq!(tl.at(SimTime::from_secs(9)), cond(10, 0.0));
        assert_eq!(tl.at(SimTime::from_secs(10)), cond(100, 0.1));
        assert_eq!(tl.at(SimTime::from_secs(15)), cond(100, 0.1));
        assert_eq!(tl.at(SimTime::from_secs(99)), cond(50, 0.05));
    }

    #[test]
    fn next_change_finds_following_breakpoint() {
        let tl = ConditionTimeline::new(vec![
            (SimTime::ZERO, cond(1, 0.0)),
            (SimTime::from_secs(5), cond(2, 0.0)),
        ])
        .unwrap();
        assert_eq!(tl.next_change(SimTime::ZERO), Some(SimTime::from_secs(5)));
        assert_eq!(tl.next_change(SimTime::from_secs(5)), None);
        assert_eq!(tl.last_change(), SimTime::from_secs(5));
    }

    #[test]
    fn rejects_bad_timelines() {
        assert_eq!(ConditionTimeline::new(vec![]), Err(TimelineError::Empty));
        assert_eq!(
            ConditionTimeline::new(vec![(SimTime::from_secs(1), cond(1, 0.0))]),
            Err(TimelineError::MissingOrigin)
        );
        assert_eq!(
            ConditionTimeline::new(vec![
                (SimTime::ZERO, cond(1, 0.0)),
                (SimTime::ZERO, cond(2, 0.0)),
            ]),
            Err(TimelineError::NotSorted)
        );
    }

    #[test]
    fn mean_loss_weights_by_time() {
        let tl = ConditionTimeline::new(vec![
            (SimTime::ZERO, cond(1, 0.0)),
            (SimTime::from_secs(10), cond(1, 0.2)),
        ])
        .unwrap();
        let mean = tl.mean_loss(SimTime::ZERO, SimTime::from_secs(20));
        assert!((mean - 0.1).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let tl = ConditionTimeline::new(vec![
            (SimTime::ZERO, cond(10, 0.0)),
            (SimTime::from_secs(60), cond(120, 0.13)),
        ])
        .unwrap();
        let json = serde_json::to_string(&tl).unwrap();
        let back: ConditionTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(tl, back);
    }
}
