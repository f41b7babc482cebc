//! Execution integrity: a witness committing to executed control flow.
//!
//! Paper §VI-B observes that an adversary stronger than the one modelled in
//! the attacks could tamper with a program's *control flow* (control-data or
//! non-control-data attacks) to make it take a longer path. Execution
//! integrity means such deviations are detectable. The simulator implements
//! the simplest sound mechanism: the substrate records the identifier of
//! every executed block/op in an [`ExecutionWitness`], whose digest is one
//! SHA-256 over the sequence; the customer, who can regenerate the expected
//! digest by running the same program on her own reference platform,
//! compares final digests and step counts.

use super::measurement::Digest;
use super::sha256::{Sha256, H0};

/// A commitment to the sequence of executed blocks.
///
/// Each step is the 32-byte digest of its block label, and the witness
/// digest is SHA-256 over the concatenation of the step digests, absorbed
/// as they arrive: one compression per two steps. Every step has the same
/// length, so the concatenation is injective in the step sequence, and two
/// different sequences share a digest only through a SHA-256 collision.
/// The empty witness's digest is [`Digest::ZERO`].
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
#[derive(Debug, Clone)]
pub struct ExecutionWitness {
    /// SHA-256 state over every complete pair of steps recorded so far.
    state: [u32; 8],
    /// The last step while `len` is odd: the first half of the next block.
    pending: [u8; 32],
    len: usize,
}

impl ExecutionWitness {
    /// Creates an empty witness.
    pub fn new() -> ExecutionWitness {
        ExecutionWitness {
            state: H0,
            pending: [0; 32],
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
    /// substrates memoize the label digest and pay only the witness update
    /// — which must see every step — per record.
    pub fn record_step(&mut self, step: Digest) {
        if self.len.is_multiple_of(2) {
            self.pending = step.0;
        } else {
            let mut block = [0u8; 64];
            block[..32].copy_from_slice(&self.pending);
            block[32..].copy_from_slice(&step.0);
            Sha256::compress(&mut self.state, &block);
        }
        self.len += 1;
    }

    /// The digest committing to everything recorded so far: SHA-256 over
    /// the concatenated step digests, or [`Digest::ZERO`] before the first
    /// step.
    pub fn digest(&self) -> Digest {
        if self.len == 0 {
            return Digest::ZERO;
        }
        let tail: &[u8] = if self.len.is_multiple_of(2) {
            &[]
        } else {
            &self.pending
        };
        Digest(Sha256::finish(self.state, tail, 32 * self.len as u64))
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether two witnesses commit to identical executions: equal
    /// digests over equal step counts.
    pub fn matches(&self, other: &ExecutionWitness) -> bool {
        self.len == other.len && self.digest() == other.digest()
    }
}

impl Default for ExecutionWitness {
    fn default() -> Self {
        ExecutionWitness::new()
    }
}

/// Equality is [`ExecutionWitness::matches`].
impl PartialEq for ExecutionWitness {
    fn eq(&self, other: &ExecutionWitness) -> bool {
        self.matches(other)
    }
}

impl Eq for ExecutionWitness {}

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
