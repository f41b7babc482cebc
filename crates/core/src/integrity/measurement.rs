//! Measured launch: source integrity for a process's code closure.
//!
//! Every image that executes inside a user process's context — the user's
//! own executable, each shared library, each constructor/destructor, every
//! interposed symbol, and any code the shell injects before `execve()` — is
//! measured (hashed) into an append-only [`MeasurementLog`] and folded into
//! a [`PcrBank`], mimicking the TCG integrity-measurement architecture the
//! paper cites (Sailer et al., USENIX Security 2004).
//!
//! A customer who knows the expected closure of her program (a *whitelist*)
//! can check the log and detect the launch-time attacks of §IV-A: the shell
//! attack shows up as an unexpected [`ImageKind::ShellInjected`] entry, the
//! `LD_PRELOAD` attacks as unexpected [`ImageKind::SharedLibrary`] /
//! [`ImageKind::Constructor`] entries.

use super::sha256::Sha256;
use serde::{Deserialize, JsonReader, Serialize, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A 256-bit measurement digest. It serializes as its 64-character
/// lowercase hex string ([`Digest::to_hex`]), and only that spelling
/// deserializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest (initial PCR value).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes arbitrary bytes into a digest.
    pub fn of(data: &[u8]) -> Digest {
        Digest(Sha256::digest(data))
    }

    /// Hashes a string label (convenience for naming code objects in the
    /// simulator, where there are no real bytes to hash).
    pub fn of_label(label: &str) -> Digest {
        Digest::of(label.as_bytes())
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        Sha256::to_hex(&self.0)
    }

    /// Parses the rendering [`Digest::to_hex`] gives and no other (see
    /// [`Sha256::from_hex`]).
    fn parse(text: &str) -> Result<Digest, serde::Error> {
        Sha256::from_hex(text).map(Digest).ok_or_else(|| {
            serde::Error::custom(format!("expected 64 lowercase hex digits, got {text:?}"))
        })
    }
}

impl Serialize for Digest {
    fn to_value(&self) -> Value {
        Value::Str(self.to_hex())
    }

    fn write_json(&self, out: &mut String) {
        out.push('"');
        Sha256::write_hex(out, &self.0);
        out.push('"');
    }
}

impl Deserialize for Digest {
    fn from_value(v: &Value) -> Result<Digest, serde::Error> {
        match v {
            Value::Str(text) => Digest::parse(text),
            other => Err(serde::Error::custom(format!(
                "expected a hex digest, got {other:?}"
            ))),
        }
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Digest, serde::Error> {
        match r.peek() {
            Some(b'"') => Digest::parse(&r.parse_str()?),
            _ => Digest::from_value(&r.parse_value()?),
        }
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::ZERO
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", &self.to_hex()[..16])
    }
}

/// The kind of code object being measured into a process's context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ImageKind {
    /// The user-submitted program binary.
    Executable,
    /// A shared library mapped at startup or via `dlopen`.
    SharedLibrary,
    /// A library constructor or destructor routine.
    Constructor,
    /// An interposed (substituted) library symbol.
    InterposedSymbol,
    /// Code the shell executes in the child between `fork()` and `execve()`.
    ShellInjected,
    /// The dynamic linker itself.
    Linker,
}

impl fmt::Display for ImageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ImageKind::Executable => "executable",
            ImageKind::SharedLibrary => "shared-library",
            ImageKind::Constructor => "constructor",
            ImageKind::InterposedSymbol => "interposed-symbol",
            ImageKind::ShellInjected => "shell-injected",
            ImageKind::Linker => "linker",
        };
        f.write_str(s)
    }
}

/// One measured image: a named code object plus its digest.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MeasuredImage {
    /// Human-readable name (e.g. `"libc.so.6"`, `"attack_preload.so"`).
    pub name: String,
    /// What kind of object this is.
    pub kind: ImageKind,
    /// Measurement digest of the object's contents.
    pub digest: Digest,
}

impl MeasuredImage {
    /// Creates a measured image, deriving the digest from the name and kind
    /// (the simulator has no real bytes; a real implementation hashes the
    /// mapped file).
    pub fn new(name: impl Into<String>, kind: ImageKind) -> MeasuredImage {
        let name = name.into();
        let digest = Digest::of(format!("{kind}:{name}").as_bytes());
        MeasuredImage { name, kind, digest }
    }

    /// Creates a measured image with an explicit digest.
    pub fn with_digest(name: impl Into<String>, kind: ImageKind, digest: Digest) -> MeasuredImage {
        MeasuredImage {
            name: name.into(),
            kind,
            digest,
        }
    }
}

impl fmt::Display for MeasuredImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.name, self.kind, self.digest)
    }
}

/// A simulated TPM platform-configuration-register bank.
///
/// `extend` folds a new measurement into a register exactly like a TPM:
/// `PCR ← SHA-256(PCR ‖ measurement)`. The final PCR value therefore commits
/// to the whole ordered measurement sequence.
///
/// # Example
///
/// ```
/// use trustmeter_core::{Digest, PcrBank};
/// let mut bank = PcrBank::new(4);
/// let before = bank.read(0);
/// bank.extend(0, Digest::of(b"image"));
/// assert_ne!(bank.read(0), before);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcrBank {
    pcrs: Vec<Digest>,
}

impl PcrBank {
    /// Creates a bank with `n` registers initialised to zero.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> PcrBank {
        assert!(n > 0, "a PCR bank needs at least one register");
        PcrBank {
            pcrs: vec![Digest::ZERO; n],
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.pcrs.len()
    }

    /// Whether the bank has no registers (never true for a constructed bank).
    pub fn is_empty(&self) -> bool {
        self.pcrs.is_empty()
    }

    /// Reads register `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn read(&self, index: usize) -> Digest {
        self.pcrs[index]
    }

    /// Extends register `index` with `measurement`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn extend(&mut self, index: usize, measurement: Digest) -> Digest {
        let mut h = Sha256::new();
        h.update(&self.pcrs[index].0);
        h.update(&measurement.0);
        self.pcrs[index] = Digest(h.finalize());
        self.pcrs[index]
    }

    /// Recomputes the expected PCR value for an ordered measurement list,
    /// starting from zero. Verifiers use this to check a measurement log
    /// against a quoted PCR.
    pub fn replay(measurements: impl IntoIterator<Item = Digest>) -> Digest {
        let mut bank = PcrBank::new(1);
        for m in measurements {
            bank.extend(0, m);
        }
        bank.read(0)
    }
}

/// The verifier's verdict on a process's measured code closure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceIntegrityReport {
    /// Images present in the log but absent from the whitelist — evidence of
    /// injected code (shell attack, preload attack, interposition attack).
    pub unexpected: Vec<MeasuredImage>,
    /// Whitelisted images that never appeared (e.g. a library silently
    /// replaced rather than added).
    pub missing: Vec<String>,
    /// Whether the replayed PCR matched the quoted PCR.
    pub pcr_consistent: bool,
}

impl SourceIntegrityReport {
    /// `true` when the closure is exactly the expected one and the PCR
    /// replay matched.
    pub fn is_trustworthy(&self) -> bool {
        self.unexpected.is_empty() && self.missing.is_empty() && self.pcr_consistent
    }
}

impl fmt::Display for SourceIntegrityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "source-integrity: {} ({} unexpected, {} missing, pcr {})",
            if self.is_trustworthy() {
                "OK"
            } else {
                "VIOLATED"
            },
            self.unexpected.len(),
            self.missing.len(),
            if self.pcr_consistent {
                "consistent"
            } else {
                "MISMATCH"
            }
        )
    }
}

/// Append-only measurement log for one process (one per `execve`).
///
/// # Example
///
/// ```
/// use trustmeter_core::{ImageKind, MeasuredImage, MeasurementLog};
///
/// let mut log = MeasurementLog::new();
/// log.measure(MeasuredImage::new("victim", ImageKind::Executable));
/// log.measure(MeasuredImage::new("libc.so.6", ImageKind::SharedLibrary));
/// log.measure(MeasuredImage::new("attack_preload.so", ImageKind::SharedLibrary));
///
/// let whitelist = ["victim", "libc.so.6"];
/// let report = log.verify(whitelist.iter().copied(), log.pcr());
/// assert!(!report.is_trustworthy());
/// assert_eq!(report.unexpected.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasurementLog {
    entries: Vec<MeasuredImage>,
    pcr: Digest,
}

impl MeasurementLog {
    /// Creates an empty log.
    pub fn new() -> MeasurementLog {
        MeasurementLog {
            entries: Vec::new(),
            pcr: Digest::ZERO,
        }
    }

    /// Appends a measurement and extends the log's PCR.
    pub fn measure(&mut self, image: MeasuredImage) {
        let mut h = Sha256::new();
        h.update(&self.pcr.0);
        h.update(&image.digest.0);
        self.pcr = Digest(h.finalize());
        self.entries.push(image);
    }

    /// The measured entries, in measurement order.
    pub fn entries(&self) -> &[MeasuredImage] {
        &self.entries
    }

    /// Number of measured entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current PCR value committing to the whole log.
    pub fn pcr(&self) -> Digest {
        self.pcr
    }

    /// Verifies the log against a whitelist of expected image names and a
    /// quoted PCR value (normally obtained from an attestation
    /// [`crate::Quote`]).
    pub fn verify<'a>(
        &self,
        whitelist: impl IntoIterator<Item = &'a str>,
        quoted_pcr: Digest,
    ) -> SourceIntegrityReport {
        let allowed: BTreeSet<&str> = whitelist.into_iter().collect();
        let unexpected: Vec<MeasuredImage> = self
            .entries
            .iter()
            .filter(|e| !allowed.contains(e.name.as_str()))
            .cloned()
            .collect();
        let present: BTreeSet<&str> = self.entries.iter().map(|e| e.name.as_str()).collect();
        let missing: Vec<String> = allowed
            .iter()
            .filter(|n| !present.contains(**n))
            .map(|n| n.to_string())
            .collect();
        let replayed = PcrBank::replay(self.entries.iter().map(|e| e.digest));
        SourceIntegrityReport {
            unexpected,
            missing,
            pcr_consistent: replayed == quoted_pcr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_label_is_stable() {
        assert_eq!(Digest::of_label("x"), Digest::of_label("x"));
        assert_ne!(Digest::of_label("x"), Digest::of_label("y"));
        assert_eq!(Digest::ZERO.to_hex(), "0".repeat(64));
        assert_eq!(format!("{}", Digest::ZERO).len(), 16);
    }

    #[test]
    fn digest_serializes_as_lowercase_hex_only() {
        let read = |text: &str| Digest::read_json(&mut JsonReader::new(text));
        let digest = Digest::of_label("x");
        let mut json = String::new();
        digest.write_json(&mut json);
        assert_eq!(json, format!("\"{}\"", digest.to_hex()));
        assert_eq!(read(&json), Ok(digest));
        assert_eq!(Digest::from_value(&digest.to_value()), Ok(digest));
        assert!(read(&json.to_uppercase()).is_err());
        assert!(read(&format!("{:?}", digest.0)).is_err());
    }

    #[test]
    fn measured_image_digest_depends_on_kind() {
        let a = MeasuredImage::new("libm.so", ImageKind::SharedLibrary);
        let b = MeasuredImage::new("libm.so", ImageKind::Constructor);
        assert_ne!(a.digest, b.digest);
        assert!(format!("{a}").contains("libm.so"));
    }

    #[test]
    fn pcr_extend_changes_and_is_order_sensitive() {
        let m1 = Digest::of(b"one");
        let m2 = Digest::of(b"two");
        let mut bank_a = PcrBank::new(1);
        bank_a.extend(0, m1);
        bank_a.extend(0, m2);
        let mut bank_b = PcrBank::new(1);
        bank_b.extend(0, m2);
        bank_b.extend(0, m1);
        assert_ne!(bank_a.read(0), bank_b.read(0));
        assert_eq!(PcrBank::replay([m1, m2]), bank_a.read(0));
        assert_eq!(bank_a.len(), 1);
        assert!(!bank_a.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn empty_bank_rejected() {
        let _ = PcrBank::new(0);
    }

    #[test]
    fn clean_log_verifies() {
        let mut log = MeasurementLog::new();
        log.measure(MeasuredImage::new("prog", ImageKind::Executable));
        log.measure(MeasuredImage::new("ld-linux.so", ImageKind::Linker));
        log.measure(MeasuredImage::new("libc.so.6", ImageKind::SharedLibrary));
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        let report = log.verify(["prog", "ld-linux.so", "libc.so.6"], log.pcr());
        assert!(report.is_trustworthy());
        assert!(format!("{report}").contains("OK"));
    }

    #[test]
    fn injected_code_is_flagged() {
        let mut log = MeasurementLog::new();
        log.measure(MeasuredImage::new("prog", ImageKind::Executable));
        log.measure(MeasuredImage::new(
            "shell-injected-loop",
            ImageKind::ShellInjected,
        ));
        let report = log.verify(["prog"], log.pcr());
        assert!(!report.is_trustworthy());
        assert_eq!(report.unexpected.len(), 1);
        assert_eq!(report.unexpected[0].kind, ImageKind::ShellInjected);
        assert!(report.missing.is_empty());
        assert!(format!("{report}").contains("VIOLATED"));
    }

    #[test]
    fn missing_whitelisted_image_is_flagged() {
        let mut log = MeasurementLog::new();
        log.measure(MeasuredImage::new("prog", ImageKind::Executable));
        let report = log.verify(["prog", "libexpected.so"], log.pcr());
        assert!(!report.is_trustworthy());
        assert_eq!(report.missing, vec!["libexpected.so".to_string()]);
    }

    #[test]
    fn wrong_quoted_pcr_is_flagged() {
        let mut log = MeasurementLog::new();
        log.measure(MeasuredImage::new("prog", ImageKind::Executable));
        let report = log.verify(["prog"], Digest::of(b"forged"));
        assert!(!report.pcr_consistent);
        assert!(!report.is_trustworthy());
    }

    #[test]
    fn empty_log_with_empty_whitelist_is_trustworthy() {
        let log = MeasurementLog::new();
        let report = log.verify([], log.pcr());
        assert!(report.is_trustworthy());
    }
}
