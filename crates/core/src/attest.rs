//! Attestation of usage reports.
//!
//! The paper's threat model (§III-B) rules out the trivial attack where the
//! server simply reports a made-up number, by assuming the kernel is trusted
//! and that "the measurement result is signed by the TPM on the kernel's
//! request and the signature is then verified by the user". This module
//! provides that piece: a simulated attestation key that signs a [`Quote`]
//! binding together the customer's nonce, the measurement-log PCR (source
//! integrity), the execution-witness digest (execution integrity) and the
//! usage report itself.
//!
//! The "signature" is an HMAC-SHA256 under a key shared with the verifier —
//! a stand-in for a TPM quote; the substitution is documented in the
//! "Reference provenance" item of `docs/ARCHITECTURE.md`'s determinism
//! contract.

use crate::cputime::CpuTime;
use crate::integrity::{Digest, Sha256};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors returned by quote verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuoteError {
    /// The MAC does not verify under the expected key.
    BadSignature,
    /// The nonce does not match the challenge the verifier issued.
    NonceMismatch,
}

impl fmt::Display for QuoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuoteError::BadSignature => f.write_str("quote signature did not verify"),
            QuoteError::NonceMismatch => f.write_str("quote nonce did not match the challenge"),
        }
    }
}

impl std::error::Error for QuoteError {}

/// A simulated TPM attestation identity key.
///
/// # Example
///
/// ```
/// use trustmeter_core::{AttestationKey, CpuTime, Digest};
/// use trustmeter_sim::Cycles;
///
/// let key = AttestationKey::from_seed(b"platform-aik");
/// let usage = CpuTime::new(Cycles(1_000), Cycles(200));
/// let quote = key.quote(42, Digest::of(b"pcr"), Digest::of(b"witness"), usage);
/// assert!(key.verify(&quote, 42).is_ok());
/// assert!(key.verify(&quote, 43).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationKey {
    secret: [u8; 32],
}

impl AttestationKey {
    /// Derives a key deterministically from a seed.
    pub fn from_seed(seed: &[u8]) -> AttestationKey {
        AttestationKey {
            secret: Sha256::digest(seed),
        }
    }

    /// Produces a quote over the given platform state and usage report.
    pub fn quote(
        &self,
        nonce: u64,
        measurement_pcr: Digest,
        witness_digest: Digest,
        usage: CpuTime,
    ) -> Quote {
        let mut quote = Quote {
            nonce,
            measurement_pcr,
            witness_digest,
            usage,
            mac: [0u8; 32],
        };
        quote.mac = Sha256::hmac(&self.secret, &quote.signing_bytes());
        quote
    }

    /// Verifies a quote against the challenge nonce the verifier issued.
    ///
    /// # Errors
    /// Returns [`QuoteError::NonceMismatch`] if the nonce differs from the
    /// challenge and [`QuoteError::BadSignature`] if the MAC does not verify.
    pub fn verify(&self, quote: &Quote, challenge_nonce: u64) -> Result<(), QuoteError> {
        if quote.nonce != challenge_nonce {
            return Err(QuoteError::NonceMismatch);
        }
        let expected = Sha256::hmac(&self.secret, &quote.signing_bytes());
        if expected != quote.mac {
            return Err(QuoteError::BadSignature);
        }
        Ok(())
    }
}

/// A signed usage attestation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The verifier's freshness challenge.
    pub nonce: u64,
    /// PCR value committing to the process's measurement log.
    pub measurement_pcr: Digest,
    /// Digest of the execution witness: SHA-256 over its step digests
    /// (see [`crate::ExecutionWitness`]).
    pub witness_digest: Digest,
    /// The usage report being attested.
    pub usage: CpuTime,
    /// HMAC-SHA256 over the above under the platform attestation key.
    pub mac: [u8; 32],
}

impl Quote {
    /// Canonical byte encoding of the signed fields.
    fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 32 + 32 + 16);
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out.extend_from_slice(&self.measurement_pcr.0);
        out.extend_from_slice(&self.witness_digest.0);
        out.extend_from_slice(&self.usage.utime.as_u64().to_be_bytes());
        out.extend_from_slice(&self.usage.stime.as_u64().to_be_bytes());
        out
    }
}

impl fmt::Display for Quote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quote(nonce={}, pcr={}, witness={}, {})",
            self.nonce, self.measurement_pcr, self.witness_digest, self.usage
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustmeter_sim::Cycles;

    fn sample_usage() -> CpuTime {
        CpuTime::new(Cycles(123_456), Cycles(7_890))
    }

    #[test]
    fn quote_round_trip() {
        let key = AttestationKey::from_seed(b"aik");
        let q = key.quote(7, Digest::of(b"pcr"), Digest::of(b"wit"), sample_usage());
        assert_eq!(key.verify(&q, 7), Ok(()));
        assert!(format!("{q}").contains("nonce=7"));
    }

    #[test]
    fn wrong_nonce_rejected() {
        let key = AttestationKey::from_seed(b"aik");
        let q = key.quote(7, Digest::ZERO, Digest::ZERO, sample_usage());
        assert_eq!(key.verify(&q, 8), Err(QuoteError::NonceMismatch));
    }

    #[test]
    fn tampered_usage_rejected() {
        let key = AttestationKey::from_seed(b"aik");
        let mut q = key.quote(7, Digest::ZERO, Digest::ZERO, sample_usage());
        q.usage.utime = Cycles(999_999_999);
        assert_eq!(key.verify(&q, 7), Err(QuoteError::BadSignature));
    }

    #[test]
    fn tampered_pcr_rejected() {
        let key = AttestationKey::from_seed(b"aik");
        let mut q = key.quote(7, Digest::of(b"real"), Digest::ZERO, sample_usage());
        q.measurement_pcr = Digest::of(b"forged");
        assert_eq!(key.verify(&q, 7), Err(QuoteError::BadSignature));
    }

    #[test]
    fn different_key_rejected() {
        let signer = AttestationKey::from_seed(b"aik-1");
        let verifier = AttestationKey::from_seed(b"aik-2");
        let q = signer.quote(1, Digest::ZERO, Digest::ZERO, sample_usage());
        assert_eq!(verifier.verify(&q, 1), Err(QuoteError::BadSignature));
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", QuoteError::BadSignature).contains("signature"));
        assert!(format!("{}", QuoteError::NonceMismatch).contains("nonce"));
    }
}
