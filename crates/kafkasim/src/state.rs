//! The paper's message state machine (Fig. 2) and delivery cases (Table I).
//!
//! A message starts *Ready to be sent* and moves through the transitions
//!
//! | # | Transition |
//! |---|---|
//! | I | Ready → Delivered (successful initial send) |
//! | II | Ready → Lost (initial send fails) |
//! | III | Lost → Lost (a retry fails; repeated `τ_r` times) |
//! | IV | Lost → Delivered (a retry succeeds) |
//! | V | Delivered → Lost *from the producer's view* (ack missing) |
//! | VI | Lost → Duplicated (retry of an already-persisted message) |
//!
//! and ends in one of Table I's five cases. Only Case 1 and Case 4 are
//! successful deliveries; the paper's metrics are
//! `P_l = P(Case2 ∪ Case3)` and `P_d = P(Case5)`.

use serde::{Deserialize, Serialize};

/// A state in the Fig. 2 diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageState {
    /// Initial state: buffered at the producer, not yet on the wire.
    Ready,
    /// Persisted on a broker.
    Delivered,
    /// Not persisted (or, mid-protocol, believed unpersisted by the
    /// producer).
    Lost,
    /// Persisted more than once due to duplicated retries.
    Duplicated,
}

/// A transition in the Fig. 2 diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transition {
    /// Ready → Delivered: successful initial send.
    I,
    /// Ready → Lost: failed initial send.
    II,
    /// Lost → Lost: failed retry.
    III,
    /// Lost → Delivered: successful retry.
    IV,
    /// Delivered → Lost (producer's view): persisted but unacknowledged.
    V,
    /// Lost → Duplicated: retry duplicates a persisted message.
    VI,
}

/// The five terminal delivery cases of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryCase {
    /// `I` — delivered on the first attempt.
    Case1,
    /// `II` — lost on the first attempt, never retried.
    Case2,
    /// `II → τ_r·III` — still lost after exhausting retries.
    Case3,
    /// `II → τ_r·III → IV` — eventually delivered by a retry.
    Case4,
    /// `II → τ_r·III → IV → V → τ_d·VI` — delivered but duplicated.
    Case5,
}

impl DeliveryCase {
    /// Classifies a finished message from its observable outcome.
    ///
    /// * `attempts` — Kafka-level send attempts (0 means the message expired
    ///   before ever reaching the wire; the paper folds this into Case 2
    ///   because the initial sending failed).
    /// * `copies` — how many copies the audit found in the topic.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn classify(attempts: u32, copies: u64) -> DeliveryCase {
        match copies {
            0 => {
                if attempts <= 1 {
                    DeliveryCase::Case2
                } else {
                    DeliveryCase::Case3
                }
            }
            1 => {
                if attempts <= 1 {
                    DeliveryCase::Case1
                } else {
                    DeliveryCase::Case4
                }
            }
            _ => DeliveryCase::Case5,
        }
    }

    /// Branch-free form of [`DeliveryCase::classify`], returning
    /// [`DeliveryCase::index`] directly.
    ///
    /// Used by the audit hot loop so per-message outcome accounting is a
    /// table lookup instead of a nested match; pinned equal to `classify`
    /// by a unit test.
    #[must_use]
    pub(crate) fn classify_index(attempts: u32, copies: u64) -> usize {
        // Rows: copies 0 / 1 / 2+; columns: attempts ≤ 1 / > 1.
        const CASE: [[usize; 2]; 3] = [
            [1, 2], // copies 0 → Case2 / Case3
            [0, 3], // copies 1 → Case1 / Case4
            [4, 4], // copies 2+ → Case5
        ];
        CASE[copies.min(2) as usize][usize::from(attempts > 1)]
    }

    /// All five cases in order.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn all() -> [DeliveryCase; 5] {
        [
            DeliveryCase::Case1,
            DeliveryCase::Case2,
            DeliveryCase::Case3,
            DeliveryCase::Case4,
            DeliveryCase::Case5,
        ]
    }

    /// Index 0..5, for counting arrays.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        match self {
            DeliveryCase::Case1 => 0,
            DeliveryCase::Case2 => 1,
            DeliveryCase::Case3 => 2,
            DeliveryCase::Case4 => 3,
            DeliveryCase::Case5 => 4,
        }
    }
}

impl core::fmt::Display for DeliveryCase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Case{}", self.index() + 1)
    }
}

/// Error returned by [`StateMachine::apply`] for an illegal transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTransition {
    /// The state the machine was in.
    pub from: MessageState,
    /// The transition that was attempted.
    pub transition: Transition,
}

impl core::fmt::Display for InvalidTransition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "transition {:?} is not legal from state {:?}",
            self.transition, self.from
        )
    }
}

impl std::error::Error for InvalidTransition {}

/// An executable copy of the Fig. 2 state machine.
///
/// Mostly used by tests and the audit to prove that every simulated
/// delivery corresponds to a legal transition sequence.
///
/// # Example
///
/// ```
/// use kafkasim::state::{StateMachine, Transition, MessageState, DeliveryCase};
///
/// let mut sm = StateMachine::new();
/// sm.apply(Transition::II).unwrap();
/// sm.apply(Transition::III).unwrap();
/// assert_eq!(sm.apply(Transition::IV).unwrap(), MessageState::Delivered);
/// assert_eq!(sm.case(), Some(DeliveryCase::Case4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMachine {
    state: MessageState,
    history: Vec<Transition>,
}

impl Default for StateMachine {
    fn default() -> Self {
        StateMachine::new()
    }
}

impl StateMachine {
    /// A machine in the initial *Ready* state.
    #[must_use]
    pub fn new() -> Self {
        StateMachine {
            state: MessageState::Ready,
            history: Vec::new(),
        }
    }

    /// The current state.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn state(&self) -> MessageState {
        self.state
    }

    /// Applies a transition.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTransition`] when the transition is not legal in the
    /// current state per Fig. 2.
    pub fn apply(&mut self, t: Transition) -> Result<MessageState, InvalidTransition> {
        use MessageState::*;
        use Transition::*;
        let next = match (self.state, t) {
            (Ready, I) => Delivered,
            (Ready, II) => Lost,
            (Lost, III) => Lost,
            (Lost, IV) => Delivered,
            (Delivered, V) => Lost,
            (Lost, VI) => Duplicated,
            // Additional duplicated retries stay in Duplicated.
            (Duplicated, VI) => Duplicated,
            (from, transition) => return Err(InvalidTransition { from, transition }),
        };
        self.state = next;
        self.history.push(t);
        Ok(next)
    }

    /// The Table I case this history corresponds to, if terminal.
    ///
    /// Returns `None` while the machine is still in `Ready`, or when the
    /// history does not match any of the five enumerated case patterns
    /// (e.g. a message currently "Lost" mid-retry that could still recover).
    #[must_use]
    pub fn case(&self) -> Option<DeliveryCase> {
        use Transition::*;
        let h = &self.history;
        if h.is_empty() {
            return None;
        }
        if h == &[I] {
            return Some(DeliveryCase::Case1);
        }
        if h[0] != II {
            return None;
        }
        // Skip the III repetitions.
        let mut i = 1;
        while i < h.len() && h[i] == III {
            i += 1;
        }
        match &h[i..] {
            [] => Some(if i == 1 {
                DeliveryCase::Case2
            } else {
                DeliveryCase::Case3
            }),
            [IV] => Some(DeliveryCase::Case4),
            [IV, V, rest @ ..] if !rest.is_empty() && rest.iter().all(|t| *t == VI) => {
                Some(DeliveryCase::Case5)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn case1_is_single_successful_send() {
        let mut sm = StateMachine::new();
        sm.apply(Transition::I).unwrap();
        assert_eq!(sm.state(), MessageState::Delivered);
        assert_eq!(sm.case(), Some(DeliveryCase::Case1));
    }

    #[test]
    fn case2_is_unretried_failure() {
        let mut sm = StateMachine::new();
        sm.apply(Transition::II).unwrap();
        assert_eq!(sm.case(), Some(DeliveryCase::Case2));
    }

    #[test]
    fn case3_is_retry_exhaustion() {
        let mut sm = StateMachine::new();
        sm.apply(Transition::II).unwrap();
        for _ in 0..5 {
            sm.apply(Transition::III).unwrap();
        }
        assert_eq!(sm.state(), MessageState::Lost);
        assert_eq!(sm.case(), Some(DeliveryCase::Case3));
    }

    #[test]
    fn case4_recovers_via_retry() {
        let mut sm = StateMachine::new();
        sm.apply(Transition::II).unwrap();
        sm.apply(Transition::III).unwrap();
        sm.apply(Transition::IV).unwrap();
        assert_eq!(sm.case(), Some(DeliveryCase::Case4));
    }

    #[test]
    fn case5_duplicates_after_missing_ack() {
        let mut sm = StateMachine::new();
        for t in [
            Transition::II,
            Transition::III,
            Transition::IV,
            Transition::V,
            Transition::VI,
            Transition::VI,
        ] {
            sm.apply(t).unwrap();
        }
        assert_eq!(sm.state(), MessageState::Duplicated);
        assert_eq!(sm.case(), Some(DeliveryCase::Case5));
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut sm = StateMachine::new();
        let err = sm.apply(Transition::III).unwrap_err();
        assert_eq!(err.from, MessageState::Ready);
        sm.apply(Transition::I).unwrap();
        assert!(sm.apply(Transition::I).is_err());
        assert!(sm.apply(Transition::II).is_err());
    }

    #[test]
    fn classify_matches_table() {
        assert_eq!(DeliveryCase::classify(1, 1), DeliveryCase::Case1);
        assert_eq!(DeliveryCase::classify(0, 0), DeliveryCase::Case2);
        assert_eq!(DeliveryCase::classify(1, 0), DeliveryCase::Case2);
        assert_eq!(DeliveryCase::classify(4, 0), DeliveryCase::Case3);
        assert_eq!(DeliveryCase::classify(3, 1), DeliveryCase::Case4);
        assert_eq!(DeliveryCase::classify(2, 2), DeliveryCase::Case5);
        assert_eq!(DeliveryCase::classify(1, 3), DeliveryCase::Case5);
    }

    #[test]
    fn classify_index_matches_classify() {
        for attempts in 0..6u32 {
            for copies in 0..6u64 {
                assert_eq!(
                    DeliveryCase::classify_index(attempts, copies),
                    DeliveryCase::classify(attempts, copies).index(),
                    "attempts={attempts} copies={copies}"
                );
            }
        }
    }

    #[test]
    fn display_and_index_agree() {
        for (i, case) in DeliveryCase::all().into_iter().enumerate() {
            assert_eq!(case.index(), i);
            assert_eq!(case.to_string(), format!("Case{}", i + 1));
        }
    }

    proptest! {
        /// Every legal transition sequence that ends the message's life
        /// classifies into exactly one Table I case, and classification by
        /// (attempts, copies) agrees with the history-based classification.
        #[test]
        fn histories_classify_consistently(retries in 0u32..8, recovered in proptest::bool::ANY, dups in 0u32..3) {
            let mut sm = StateMachine::new();
            let mut attempts = 1u32;
            if retries == 0 && recovered {
                sm.apply(Transition::I).unwrap();
            } else {
                sm.apply(Transition::II).unwrap();
                for _ in 0..retries {
                    sm.apply(Transition::III).unwrap();
                    attempts += 1;
                }
                if recovered {
                    sm.apply(Transition::IV).unwrap();
                    attempts += 1;
                    if dups > 0 {
                        sm.apply(Transition::V).unwrap();
                        for _ in 0..dups {
                            sm.apply(Transition::VI).unwrap();
                            attempts += 1;
                        }
                    }
                }
            }
            let case = sm.case().expect("terminal history");
            let copies = match sm.state() {
                MessageState::Delivered => 1,
                MessageState::Duplicated => 1 + u64::from(dups),
                MessageState::Lost => 0,
                MessageState::Ready => unreachable!(),
            };
            prop_assert_eq!(DeliveryCase::classify(attempts, copies), case);
        }
    }
}
