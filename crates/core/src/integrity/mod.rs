//! Trust properties: source integrity and execution integrity.
//!
//! Paper §VI-B argues that a trustworthy metering platform needs, besides
//! fine-grained metering, two integrity properties:
//!
//! * **Source integrity** — only the expected code (the user's program plus
//!   the standard subroutines it legitimately needs) executes in the context
//!   of the user's process. The shell attack and the shared-library attacks
//!   violate this property. We provide a TPM-style *measured launch*: every
//!   image that enters the process context (executable, shared library,
//!   constructor, interposed symbol, shell-injected code) is hashed into a
//!   [`MeasurementLog`] and folded into a [`PcrBank`]; a verifier compares
//!   the log against a whitelist and produces a [`SourceIntegrityReport`].
//! * **Execution integrity** — the control flow of the program is not
//!   tampered with. We provide an [`ExecutionWitness`]: one SHA-256 over
//!   the digests of the executed basic-block/op stream, which a verifier
//!   compares, with the step count, against the witness of a reference
//!   execution.
//!
//! Hashing uses the crate's own [`Sha256`] implementation (no external
//! crypto dependency), validated against FIPS 180-4 test vectors.

mod measurement;
mod sha256;
mod witness;

pub use measurement::{
    Digest, ImageKind, MeasuredImage, MeasurementLog, PcrBank, SourceIntegrityReport,
};
pub use sha256::Sha256;
pub use witness::ExecutionWitness;
