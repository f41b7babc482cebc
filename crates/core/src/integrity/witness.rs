//! Execution integrity: a hash-chain witness over executed control flow.
//!
//! Paper §VI-B observes that an adversary stronger than the one modelled in
//! the attacks could tamper with a program's *control flow* (control-data or
//! non-control-data attacks) to make it take a longer path. Execution
//! integrity means such deviations are detectable. The simulator implements
//! the simplest sound mechanism: the substrate appends the identifier of
//! every executed block/op to an [`ExecutionWitness`] hash chain; the
//! customer, who can regenerate the expected chain by running the same
//! program on her own reference platform, compares final digests and
//! step counts.

use super::measurement::Digest;
use super::sha256::Sha256;
use serde::{Deserialize, Serialize};

/// A hash chain committing to the sequence of executed blocks.
///
/// # Example
///
/// ```
/// use trustmeter_core::ExecutionWitness;
///
/// let mut reference = ExecutionWitness::new();
/// let mut remote = ExecutionWitness::new();
/// for block in ["entry", "loop", "loop", "exit"] {
///     reference.record(block);
///     remote.record(block);
/// }
/// assert!(reference.matches(&remote));
///
/// remote.record("injected-code");
/// assert!(!reference.matches(&remote));
/// assert_eq!(remote.len(), reference.len() + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ExecutionWitness {
    chain: Digest,
    len: usize,
}

impl ExecutionWitness {
    /// Creates an empty witness.
    pub fn new() -> ExecutionWitness {
        ExecutionWitness {
            chain: Digest::ZERO,
            len: 0,
        }
    }

    /// Records the execution of a block identified by `block_id`.
    pub fn record(&mut self, block_id: &str) {
        self.record_step(Digest::of(block_id.as_bytes()));
    }

    /// Records a step whose label digest the caller has already computed —
    /// bit-identical to [`ExecutionWitness::record`] when `step` is
    /// `Digest::of(label)`. Control-flow labels repeat heavily (a libcall
    /// loop re-records the same `call:<symbol>` every iteration), so
    /// substrates memoize the label digest and pay only the chain update —
    /// which must see every step — per record.
    pub fn record_step(&mut self, step: Digest) {
        self.chain = Digest(Sha256::digest_pair(&self.chain.0, &step.0));
        self.len += 1;
    }

    /// The running chain digest committing to everything recorded so far.
    pub fn digest(&self) -> Digest {
        self.chain
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether two witnesses commit to identical executions.
    pub fn matches(&self, other: &ExecutionWitness) -> bool {
        self.chain == other.chain && self.len == other.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_match() {
        let mut a = ExecutionWitness::new();
        let mut b = ExecutionWitness::new();
        for s in ["a", "b", "c"] {
            a.record(s);
            b.record(s);
        }
        assert!(a.matches(&b));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn order_matters() {
        let mut a = ExecutionWitness::new();
        let mut b = ExecutionWitness::new();
        a.record("x");
        a.record("y");
        b.record("y");
        b.record("x");
        assert!(!a.matches(&b));
    }

    #[test]
    fn extra_steps_detected() {
        let mut reference = ExecutionWitness::new();
        let mut remote = ExecutionWitness::new();
        for s in ["entry", "compute"] {
            reference.record(s);
            remote.record(s);
        }
        remote.record("attacker-detour");
        assert!(!reference.matches(&remote));
        assert_eq!((reference.len(), remote.len()), (2, 3));
    }

    #[test]
    fn record_step_matches_record() {
        let mut by_label = ExecutionWitness::new();
        let mut by_step = ExecutionWitness::new();
        for label in ["entry", "call:sqrt", "call:sqrt", "exit"] {
            by_label.record(label);
            by_step.record_step(Digest::of(label.as_bytes()));
        }
        assert!(by_label.matches(&by_step));
        assert_eq!(by_label.digest(), by_step.digest());
    }

    #[test]
    fn empty_witnesses_match() {
        let a = ExecutionWitness::new();
        let b = ExecutionWitness::default();
        assert!(a.matches(&b));
        assert!(a.is_empty());
        assert_eq!(a.digest(), Digest::ZERO);
    }

    #[test]
    fn digest_changes_with_each_step() {
        let mut w = ExecutionWitness::new();
        let d0 = w.digest();
        w.record("a");
        let d1 = w.digest();
        w.record("a");
        let d2 = w.digest();
        assert_ne!(d0, d1);
        assert_ne!(d1, d2);
    }
}
