//! The durable journal: write-ahead persistence, crash recovery and
//! checkpoints for the fleet.
//!
//! The paper's trust argument only holds if the metering evidence survives
//! the meterer: an in-memory ledger is exactly the mutable accounting state
//! a crash — or a cheating provider — can rewrite. This module makes the
//! fleet's accounting *append-only and replayable*: every accounting-
//! relevant event is serialized as one JSON line (via the vendored
//! `serde_json`) into a [`Journal`] **before** its effects are released,
//! so a restarted service can rebuild bit-identical
//! [`crate::Ledger`]/[`crate::TenantAuditSummary`]/metrics state with
//! [`crate::FleetService::recover`].
//!
//! Six typed entries ([`JournalEntry`]):
//!
//! * **`Accepted`** — a [`JobSpec`] the ingest pipeline admitted,
//!   appended at `submit` time *before* the job becomes visible to any
//!   worker. This closes the submission-side durability gap: a crash
//!   between acceptance and release no longer silently loses the job —
//!   recovery reports accepted-but-unreleased specs
//!   ([`RecoveryReport::unreleased`]) so a restarted service resubmits
//!   them deterministically.
//! * **`Run`** — a completed [`RunRecord`], appended by the ingest
//!   pipeline's completion log *before* the record is released to the
//!   consumer (the write-ahead point). A record that was never journaled
//!   was never released, so it was never billed: crash-lost work simply
//!   never happened.
//! * **`Invoice`** — the ledger posting derived from a run (both the
//!   billed and the ground-truth invoice), appended when the service
//!   posts the record.
//! * **`Verdict`** — the audit verdict for a run, appended alongside the
//!   invoice. Together, `Invoice` + `Verdict` are the durable *receipts*:
//!   recovery re-derives both from the `Run` entry and cross-checks them,
//!   so a journal whose receipts were tampered with after the fact is
//!   detected (see [`RecoveryReport::mismatches`]).
//! * **`Checkpoint`** — a folded prefix: ledger, audit summaries and
//!   metrics as of some run count, written inline by a
//!   [`CheckpointCadence`] (and at a failover) so long-running fleets do
//!   not replay from genesis.
//! * **`Poisoned`** — a [`PoisonNotice`]: the verdict for a job the
//!   supervisor retired, journaled where its `Run` would have been.
//!
//! A truncated tail — the partial, newline-less last line a crash
//! mid-append leaves behind — is detected at parse time and dropped
//! ([`TailStatus`]), and [`SegmentedFileSink::open`] cuts it from the head
//! segment before anything is appended, so a restarted process never
//! merges new entries into the torn fragment. Any unparseable line that
//! *is* newline-terminated was fully written and later damaged, so it is an
//! error ([`JournalError::Corrupt`]), wherever it sits.
//!
//! ## The evidence ledger
//!
//! Since PR 7 the journal is tamper-*evident*, not just crash-safe: every
//! line is a chained envelope `{"prev":"<hex>","entry":{…}}` whose `prev`
//! is the hash-chain link over all preceding canonical line bytes (see
//! [`crate::evidence`]), so duplication, reordering, deletion and
//! in-place edits before the torn tail surface at [`parse_journal`] time
//! as [`JournalError::ChainViolation`] naming the first bad entry. A
//! sealing [`SegmentedFileSink`] ([`SegmentConfig::with_seal`])
//! additionally signs every rotated-away segment into a
//! [`BlockHeader`] sidecar — Merkle root over the segment's lines, the
//! range of job ids they name, chain bounds, HMAC under the fleet seed's
//! [`SealKey`] — and can hand out per-entry [`InclusionProof`]s
//! ([`Journal::prove`]) that verify against the seal key alone, no replay
//! required (the substrate of [`crate::FleetService::dispute`]), reading
//! only the segments whose range holds the job.
//!
//! ## The group-commit write path
//!
//! The write-ahead point must be cheap enough to run always-on, so the
//! journal batches. [`Journal::append_batch`] is its one write method:
//! producers hand it *groups* of entries — a submitted slice's
//! `Accepted` specs, the ingest pipeline's whole ready prefix of `Run`s,
//! a pump's Invoice/Verdict receipts — which are serialized back to back
//! into one reused buffer (via the vendored `serde_json`'s
//! buffer-reusing [`serde_json::Serializer`]), hashed once each (the
//! leaf and chain link every sink is handed as a [`Framed`] line), and
//! committed with a single [`JournalSink::append_lines`] call: one
//! write, one fsync decision.
//!
//! [`SegmentedFileSink`] is the file sink: segment files written one
//! whole batch per write and rotated at a size threshold
//! ([`SegmentConfig`]), an
//! [`FsyncPolicy`] (never / every append / group commit), and retirement
//! of segments older than the latest [`JournalEntry::Checkpoint`] —
//! written automatically by a [`CheckpointCadence`]-configured service —
//! so recovery replays only the lines after the newest checkpoint. The
//! checkpoint itself carries the whole ledger, every invoice included, so
//! it grows with the number of jobs ever posted.
//!
//! ```
//! use trustmeter_fleet::{FleetConfig, FleetService, JobSpec, Journal, TenantId};
//! use trustmeter_workloads::Workload;
//!
//! let journal = Journal::in_memory();
//! let mut service = FleetService::new(FleetConfig::new(1, 42)).with_journal(journal.clone());
//! service.process(&[JobSpec::clean(0, TenantId(1), Workload::LoopO, 0.001)]);
//!
//! // The journal now holds Accepted + Run + Invoice + Verdict for the
//! // job; a fresh service replays it into bit-identical state.
//! let (entries, _tail) = journal.entries().unwrap();
//! let mut restarted = FleetService::new(FleetConfig::new(1, 42));
//! let report = restarted.recover(&entries).unwrap();
//! assert_eq!(report.runs_replayed, 1);
//! assert_eq!(restarted.ledger(), service.ledger());
//! ```

use std::borrow::Cow;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::auditor::{AuditVerdict, AuditorState};
use crate::evidence::{
    self, BlockHeader, ChainDigest, ChainedLine, InclusionProof, JobRange, MerkleTree, SealKey,
};
use crate::executor::{JobId, JobSpec, RunRecord};
use crate::metrics::MetricsRegistry;
use crate::tenant::{Ledger, TenantId};
use trustmeter_core::{Invoice, Sha256};

/// One append-only journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEntry {
    /// A job the ingest pipeline accepted, journaled at submit time
    /// before the job is visible to any worker (the submission-side
    /// write-ahead point).
    Accepted(JobSpec),
    /// A completed run, journaled before it is released to the consumer
    /// (boxed: a `RunRecord` is by far the largest entry).
    Run(Box<RunRecord>),
    /// The ledger posting a run produced (the billing receipt).
    Invoice(InvoicePosting),
    /// The audit verdict a run produced (the audit receipt).
    Verdict(AuditVerdict),
    /// A folded journal prefix (see [`Checkpoint`]).
    Checkpoint(Box<Checkpoint>),
    /// A job declared **poison** by the ingest supervisor: it killed
    /// `max_job_attempts` workers in a row, was individually quarantined
    /// at its release point (the rest of the fleet keeps flowing), and
    /// this chained entry is its tenant-visible verdict — journaled in
    /// release order, exactly where the job's `Run` entry would have
    /// been.
    Poisoned(PoisonNotice),
}

impl JournalEntry {
    /// Wraps an accepted job spec.
    pub fn accepted(spec: JobSpec) -> JournalEntry {
        JournalEntry::Accepted(spec)
    }

    /// Wraps a completed run.
    pub fn run(record: RunRecord) -> JournalEntry {
        JournalEntry::Run(Box::new(record))
    }

    /// Wraps a checkpoint.
    pub fn checkpoint(checkpoint: Checkpoint) -> JournalEntry {
        JournalEntry::Checkpoint(Box::new(checkpoint))
    }

    /// Wraps a poison-job verdict.
    pub fn poisoned(notice: PoisonNotice) -> JournalEntry {
        JournalEntry::Poisoned(notice)
    }
}

impl JournalEntry {
    /// The job this entry belongs to (`None` for checkpoints).
    pub fn job(&self) -> Option<JobId> {
        match self {
            JournalEntry::Accepted(spec) => Some(spec.id),
            JournalEntry::Run(record) => Some(record.job.id),
            JournalEntry::Invoice(posting) => Some(posting.job),
            JournalEntry::Verdict(verdict) => Some(verdict.job),
            JournalEntry::Checkpoint(_) => None,
            JournalEntry::Poisoned(notice) => Some(notice.spec.id),
        }
    }

    /// Short stable label for display and diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            JournalEntry::Accepted(_) => "accepted",
            JournalEntry::Run(_) => "run",
            JournalEntry::Invoice(_) => "invoice",
            JournalEntry::Verdict(_) => "verdict",
            JournalEntry::Checkpoint(_) => "checkpoint",
            JournalEntry::Poisoned(_) => "poisoned",
        }
    }
}

/// The tenant-visible verdict for a poison job (see
/// [`JournalEntry::Poisoned`]): which job, and how many execution
/// attempts — each one a killed worker — it burned before the
/// supervisor gave up. Nothing was billed: the job never released a
/// record, so the never-journaled ⇒ never-billed invariant holds with
/// the `Poisoned` entry standing in for the `Run` that will never come.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoisonNotice {
    /// The poison job, spec and tenant included (the tenant sees whose
    /// job was quarantined).
    pub spec: JobSpec,
    /// Execution attempts consumed (= workers killed in a row).
    pub attempts: u32,
}

/// The billing receipt for one posted run: exactly the invoices the ledger
/// accumulated, so recovery can cross-check its re-derived posting against
/// the journaled one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvoicePosting {
    /// Who was billed.
    pub tenant: TenantId,
    /// Which run.
    pub job: JobId,
    /// The invoice over the provider-billed usage.
    pub billed: Invoice,
    /// The invoice over the TSC ground-truth usage.
    pub truth: Invoice,
}

/// A folded journal prefix: the complete accounting state after replaying
/// some number of runs. Recovery seeds from the latest checkpoint instead
/// of replaying from genesis.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Runs folded into this checkpoint.
    pub runs: u64,
    /// The ledger after those runs.
    pub ledger: Ledger,
    /// The auditor's summaries and cost counters after those runs.
    pub audit: AuditorState,
    /// The service's metering registry after those runs, built from this
    /// checkpoint's own `ledger` and `audit` (see
    /// [`crate::FleetService::metering`]; the exposition is part of the
    /// recovery contract). A restore reads back only its `cpu_usage`
    /// series; every other family follows from `ledger` and `audit`.
    pub metrics: MetricsRegistry,
}

/// Why a journal operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The underlying sink failed (I/O).
    Io(String),
    /// An entry before the tail failed to parse — an append-only journal
    /// can only be damaged at its end, so this is corruption, not a crash
    /// artifact. `line` is 1-based.
    Corrupt {
        /// 1-based line number of the unparseable entry.
        line: usize,
        /// The parser's message.
        message: String,
    },
    /// A chained entry's embedded `prev` link disagrees with the hash
    /// chain recomputed over the preceding canonical line bytes:
    /// duplication, reordering, deletion or in-place edits somewhere at
    /// or before this line. `line` is 1-based and names the **first**
    /// entry the chain no longer vouches for.
    ChainViolation {
        /// 1-based line number of the first entry off the chain.
        line: usize,
        /// What broke (entry label, job id, link mismatch detail).
        message: String,
    },
    /// A sealed segment's block header failed verification: wrong Merkle
    /// root or chain bounds for the segment's contents, or a seal that
    /// does not verify under this fleet's [`evidence::SealKey`].
    SealViolation {
        /// The segment whose seal failed.
        segment: u64,
        /// What broke.
        message: String,
    },
    /// A sealed segment's block header is in a format this build does not
    /// read: its `version` is not [`BlockHeader::VERSION`].
    UnsupportedHeader {
        /// The segment whose header was rejected.
        segment: u64,
        /// The version the header declares.
        version: u32,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(message) => write!(f, "journal i/o error: {message}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            JournalError::ChainViolation { line, message } => {
                write!(f, "journal chain violation at line {line}: {message}")
            }
            JournalError::SealViolation { segment, message } => {
                write!(f, "journal seal violation at segment {segment}: {message}")
            }
            JournalError::UnsupportedHeader { segment, version } => write!(
                f,
                "segment {segment} block header is version {version}; this build reads version {}",
                BlockHeader::VERSION
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e.to_string())
    }
}

/// What the parser found at the end of the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// Every line parsed.
    Clean,
    /// The final line had no terminating newline — the signature of a
    /// crash mid-append — and was dropped.
    Truncated {
        /// Bytes of tail that were discarded.
        dropped_bytes: usize,
    },
}

impl TailStatus {
    /// Whether the tail was dropped.
    pub fn is_truncated(&self) -> bool {
        matches!(self, TailStatus::Truncated { .. })
    }
}

/// Append/byte and sink counters for one [`Journal`] handle. Every field
/// counts work done through this handle since it was opened, not entries
/// already in a reopened file, and never decreases: the rotation / fsync /
/// retirement / seal counters sum the current sink's [`SinkStats`] with
/// those of every sink [`Journal::fail_over`] swapped out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct JournalStats {
    /// Entries appended.
    pub appends: u64,
    /// Bytes appended (serialized lines including the newline).
    pub bytes: u64,
    /// Batched commits: groups of entries serialized into one buffer and
    /// handed to the sink as a single [`JournalSink::append_lines`] call.
    /// `appends / group_commits` is the realized batch size.
    pub group_commits: u64,
    /// Segment rotations the sink performed (see [`SegmentedFileSink`]).
    pub rotations: u64,
    /// `fsync` calls the sink issued.
    pub fsyncs: u64,
    /// Segments the sink retired (deleted) as superseded by a checkpoint.
    pub segments_retired: u64,
    /// Sealed block headers the sink wrote (see
    /// [`SegmentConfig::with_seal`]).
    pub seals: u64,
}

/// Sink-level durability counters (all zero for sinks without segments or
/// explicit syncing, e.g. [`MemorySink`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SinkStats {
    /// Segment rotations performed.
    pub rotations: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Segments deleted because a newer checkpoint superseded them.
    pub segments_retired: u64,
    /// Sealed block headers written on rotation (see
    /// [`SegmentConfig::with_seal`]).
    pub seals: u64,
}

/// When a [`SegmentedFileSink`] pushes committed bytes past the OS page
/// cache to the platter. Every policy flushes to the OS per commit, so a
/// *process* crash never loses a committed entry; the policies differ in
/// what an OS crash or power loss can take with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FsyncPolicy {
    /// Never `fsync`: a process crash loses nothing committed, but power
    /// loss can lose anything not yet written back by the OS.
    #[default]
    Never,
    /// `fsync` on every commit: every released record survives power
    /// loss, at one disk sync per commit.
    EveryAppend,
    /// Amortized power-loss durability: `fsync` once the unsynced backlog
    /// reaches `max_entries` entries or `max_bytes` bytes, whichever
    /// comes first. The crash window — entries flushed to the OS but not
    /// yet on the platter — is bounded by these two knobs.
    GroupCommit {
        /// Sync after at most this many unsynced entries.
        max_entries: u64,
        /// … or after at most this many unsynced bytes.
        max_bytes: u64,
    },
}

/// Geometry and durability policy for a [`SegmentedFileSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentConfig {
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes. Commits never split across segments, so a segment can
    /// overshoot the threshold by up to one commit.
    pub segment_bytes: u64,
    /// When committed bytes are fsynced.
    pub fsync: FsyncPolicy,
    /// When `Some(seed)`, the sink seals every rotated-away segment into
    /// a signed [`BlockHeader`] (a `segment-NNNNNNNN.seal` sidecar): a
    /// Merkle root over the segment's lines, the range of job ids they
    /// name and the hash-chain bounds, HMAC-signed under
    /// [`SealKey::from_seed`]. `None` keeps PR-5
    /// behaviour (no sidecars).
    pub seal: Option<u64>,
}

impl SegmentConfig {
    /// Default rotation threshold: 8 MiB per segment.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

    /// Replaces the rotation threshold.
    ///
    /// # Panics
    /// Panics if `segment_bytes` is zero.
    pub fn with_segment_bytes(mut self, segment_bytes: u64) -> SegmentConfig {
        assert!(segment_bytes > 0, "segments need a positive byte budget");
        self.segment_bytes = segment_bytes;
        self
    }

    /// Replaces the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> SegmentConfig {
        self.fsync = fsync;
        self
    }

    /// Seals rotated segments under the fleet seed's [`SealKey`] (see
    /// [`SegmentConfig::seal`]).
    pub fn with_seal(mut self, seed: u64) -> SegmentConfig {
        self.seal = Some(seed);
        self
    }
}

impl Default for SegmentConfig {
    fn default() -> SegmentConfig {
        SegmentConfig {
            segment_bytes: Self::DEFAULT_SEGMENT_BYTES,
            fsync: FsyncPolicy::Never,
            seal: None,
        }
    }
}

/// How often a journaled [`crate::FleetService`] writes inline
/// [`JournalEntry::Checkpoint`] entries, bounding recovery cost.
///
/// Checkpoints are written at *safe points* — moments when every
/// journaled `Run` has been posted (the end of a stream pump, and so the
/// end of every `process` batch) — so the checkpoint folds everything
/// before it and recovery can start from the latest one
/// ([`recovery_window`]). On a
/// [`SegmentedFileSink`] each checkpoint also starts a fresh segment and
/// retires the segments it supersedes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CheckpointCadence {
    /// Never checkpoint automatically.
    #[default]
    Never,
    /// Checkpoint at the first safe point once at least this many runs
    /// were posted since the previous checkpoint.
    EveryNRuns(u64),
}

impl CheckpointCadence {
    /// Checkpoint every `n` posted runs (at the next safe point).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn every_n_runs(n: u64) -> CheckpointCadence {
        assert!(n > 0, "a checkpoint cadence needs a positive run count");
        CheckpointCadence::EveryNRuns(n)
    }

    /// Whether a checkpoint is due after `runs_since` posted runs.
    pub(crate) fn due(&self, runs_since: u64) -> bool {
        match self {
            CheckpointCadence::Never => false,
            CheckpointCadence::EveryNRuns(n) => runs_since >= *n,
        }
    }
}

/// One chained line of a batch as [`Journal::append_batch`] hands it to
/// a [`JournalSink`]: where it ends in the batch text, and the evidence
/// the journal computed over it, so no sink hashes a line again.
#[derive(Debug, Clone, Copy)]
pub struct Framed {
    /// Byte offset just past the line's newline in the batch text; the
    /// line starts where the one before it ends.
    pub end: usize,
    /// The line's Merkle leaf digest ([`evidence::leaf_digest`] of its
    /// canonical bytes, newline excluded).
    pub leaf: ChainDigest,
    /// The chain value before the line (its `prev` field).
    pub prev: ChainDigest,
    /// The chain value after the line: [`evidence::link_leaf`] of `prev`
    /// and `leaf`.
    pub link: ChainDigest,
    /// The job the line names ([`JournalEntry::job`]).
    pub job: Option<JobId>,
}

/// Where journal lines go. Implementations must make an appended line
/// durable before returning: the pipeline releases a record to consumers
/// only after its `Run` entry has been accepted.
pub trait JournalSink: Send {
    /// Group commit: appends `text`, the batch's lines back to back, each
    /// ending in a newline, and makes the whole batch durable together —
    /// ideally one write and one fsync decision. `lines` describes each
    /// line of `text` in order. A sealing sink takes their leaves, chain
    /// values and jobs as handed (the Merkle leaves, the chain bounds and
    /// the signed [`BlockHeader::jobs`] range) and hashes nothing, so a
    /// fresh sink continues a chain it never saw. `Ok` means every line is
    /// in the sink exactly once; `Err` means none is, so a retry of the
    /// same batch cannot duplicate any.
    fn append_lines(&mut self, text: &str, lines: &[Framed]) -> Result<(), JournalError>;

    /// Writes `fragment` **without a terminating newline** — the exact
    /// artifact a crash mid-write leaves behind. This exists for the
    /// fault-injection harness ([`crate::faults::FaultInjectingSink`]
    /// manufactures torn tails through it) and must never be called on
    /// the healthy write path: a later append would merge into the
    /// fragment. Default: refuses with
    /// [`JournalError::Io`], which keeps sinks that cannot represent a
    /// torn tail honest.
    fn append_torn(&mut self, fragment: &str) -> Result<(), JournalError> {
        let _ = fragment;
        Err(JournalError::Io(
            "sink does not support torn (newline-less) writes".to_string(),
        ))
    }

    /// Called just before a lone [`JournalEntry::Checkpoint`] batch is
    /// appended: segmented sinks rotate so the checkpoint leads a fresh
    /// segment. Default: no-op.
    fn begin_checkpoint(&mut self) -> Result<(), JournalError> {
        Ok(())
    }

    /// Called when the checkpoint line failed to append after
    /// [`JournalSink::begin_checkpoint`] succeeded: undo any bracketing
    /// state (e.g. rotation suppression) without retiring anything.
    /// Default: no-op.
    fn abort_checkpoint(&mut self) {}

    /// Called after the checkpoint line was appended: segmented sinks
    /// make it durable and retire the segments it supersedes. Default:
    /// no-op.
    fn finish_checkpoint(&mut self) -> Result<(), JournalError> {
        Ok(())
    }

    /// Sink-level durability counters. Default: all zero.
    fn sink_stats(&self) -> SinkStats {
        SinkStats::default()
    }

    /// Seals the current in-progress segment (if it has any entries) by
    /// rotating it away, so every committed entry is covered by a signed
    /// [`BlockHeader`]. A no-op for sinks without seals. Default: no-op.
    fn seal_head(&mut self) -> Result<(), JournalError> {
        Ok(())
    }

    /// The signed block headers of every sealed live segment, oldest
    /// first. Default: none.
    fn sealed_headers(&self) -> Result<Vec<BlockHeader>, JournalError> {
        Ok(Vec::new())
    }

    /// Builds [`InclusionProof`]s — Merkle path plus signed block header
    /// — for every sealed entry belonging to `job`, without replaying the
    /// journal into service state. A segmented sink reads every live
    /// header, then reads and hashes only the segments whose signed
    /// [`BlockHeader::jobs`] range holds `job`, parses only their lines
    /// that contain the id as a whole decimal token, and takes every path
    /// from one [`MerkleTree`] per segment. Default: none (unsealed sinks
    /// cannot prove inclusion).
    fn prove(&self, job: JobId) -> Result<Vec<InclusionProof>, JournalError> {
        let _ = job;
        Ok(Vec::new())
    }

    /// Verifies the ledger this sink holds: the strict chain walk over
    /// [`JournalSink::contents`] (the walk [`parse_journal`] makes over
    /// the concatenated text, taken one piece at a time), then every
    /// sealed live segment against its block header (Merkle root, chain
    /// bounds, entry count, HMAC seal under `key`, job-id range), from the
    /// leaves and job ids the walk already computed. Default: the chain
    /// walk alone, with no seal checked.
    fn verify(&self, key: &SealKey) -> Result<LedgerVerification, JournalError> {
        let _ = key;
        let mut entries = 0u64;
        let tail = walk_journal(
            |visit| self.contents(visit),
            |line| entries += u64::from(line.entry.is_some()),
        )?;
        Ok(LedgerVerification {
            entries,
            tail,
            seals_verified: 0,
        })
    }

    /// The evidence chain head after the last committed line
    /// ([`evidence::genesis`] before the first), which a journal opened
    /// over this sink continues. Every sink tracks it as it commits (a
    /// reopened [`SegmentedFileSink`] takes it from the directory's newest
    /// committed line at open), so this reads nothing.
    fn chain_head(&self) -> ChainDigest;

    /// Reads the stored text back, entries written before this sink was
    /// opened included, and hands it to `visit` one piece at a time,
    /// oldest first: a segmented sink hands each live segment in turn
    /// from one reused buffer, so a read holds one segment, never the
    /// journal. The pieces concatenate to the journal text, and a line
    /// one piece leaves unterminated runs on into the next. The read
    /// stops at the first error, `visit`'s included, and returns it.
    fn contents(
        &self,
        visit: &mut dyn FnMut(&str) -> Result<(), JournalError>,
    ) -> Result<(), JournalError>;
}

/// An in-memory sink: the journal of record for tests and for services
/// that only need replayability within one process.
#[derive(Debug, Default)]
pub struct MemorySink {
    buffer: String,
    /// The [`Framed::link`] of the last committed line (`None` before the
    /// first).
    head: Option<ChainDigest>,
}

impl MemorySink {
    /// An empty in-memory journal.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }
}

impl JournalSink for MemorySink {
    fn append_lines(&mut self, text: &str, lines: &[Framed]) -> Result<(), JournalError> {
        self.buffer.push_str(text);
        if let Some(last) = lines.last() {
            self.head = Some(last.link);
        }
        Ok(())
    }

    fn append_torn(&mut self, fragment: &str) -> Result<(), JournalError> {
        self.buffer.push_str(fragment);
        Ok(())
    }

    fn chain_head(&self) -> ChainDigest {
        self.head.unwrap_or_else(evidence::genesis)
    }

    fn contents(
        &self,
        visit: &mut dyn FnMut(&str) -> Result<(), JournalError>,
    ) -> Result<(), JournalError> {
        visit(&self.buffer)
    }
}

/// Journal file bytes as text. A byte that is not UTF-8 reads as U+FFFD,
/// so damage to it is located like damage to any other byte; honest
/// journal files are UTF-8 and are borrowed as they are.
fn decode(bytes: &[u8]) -> Cow<'_, str> {
    // The lossy decoder is several times slower than `from_utf8` on valid
    // text, so it runs only on text that is not.
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// Reads the file at `path` into `buf` (cleared first) and decodes it
/// (see [`decode`]).
fn read_text<'b>(path: &Path, buf: &'b mut Vec<u8>) -> std::io::Result<Cow<'b, str>> {
    buf.clear();
    File::open(path)?.read_to_end(buf)?;
    Ok(decode(buf))
}

/// What a sealed [`BlockHeader`] commits to for one segment, gathered line
/// by line: as a [`SegmentedFileSink`] appends, and as its
/// [`JournalSink::verify`] walks.
#[derive(Debug)]
struct Block {
    /// The chain value before the segment's first line.
    prev: ChainDigest,
    /// The chain value after its last line.
    head: ChainDigest,
    /// The Merkle leaf digests of its lines, one per entry.
    leaves: Vec<ChainDigest>,
    /// The range of job ids its lines name.
    jobs: Option<JobRange>,
}

impl Block {
    /// An empty block at chain value `link`.
    fn at(link: ChainDigest) -> Block {
        Block {
            prev: link,
            head: link,
            leaves: Vec::new(),
            jobs: None,
        }
    }

    /// The block of `text`'s terminated lines, or `None` if it has none.
    /// The chain starts at the first line's claimed `prev` (genesis if it
    /// claims none), since a retired directory starts mid-chain at its
    /// leading checkpoint. Nothing is checked: detection belongs to
    /// [`parse_journal`] and [`JournalSink::verify`], so a tampered journal
    /// can still be opened and inspected. After the first, a line is
    /// parsed for its job only when `jobs` is set.
    fn fold(text: &str, jobs: bool) -> Result<Option<Block>, JournalError> {
        let mut block: Option<Block> = None;
        LineSplitter::default().feed(text, &mut |line| {
            let chained = if jobs || block.is_none() {
                serde_json::from_str::<ChainedLine>(line.text).ok()
            } else {
                None
            };
            let block = block.get_or_insert_with(|| {
                let claimed = chained.as_ref().and_then(|c| Sha256::from_hex(&c.prev));
                Block::at(claimed.unwrap_or_else(evidence::genesis))
            });
            let leaf = evidence::leaf_digest(line.text.as_bytes());
            let link = evidence::link_leaf(&block.head, &leaf);
            let job = chained.and_then(|chained| chained.entry.job());
            block.push(leaf, block.head, link, job);
            Ok(())
        })?;
        Ok(block)
    }

    /// Adds a line: its leaf, the chain values before and after it, and
    /// the job it names. The first line's `prev` is the block's leading
    /// bound, so a fresh sink after failover continues the chain it is
    /// handed.
    fn push(
        &mut self,
        leaf: ChainDigest,
        prev: ChainDigest,
        link: ChainDigest,
        job: Option<JobId>,
    ) {
        if self.leaves.is_empty() {
            self.prev = prev;
        }
        self.leaves.push(leaf);
        self.head = link;
        self.jobs = JobRange::widen(self.jobs, job);
    }

    /// The block's unsigned header as segment `segment`.
    fn header(&self, segment: u64) -> BlockHeader {
        BlockHeader {
            version: BlockHeader::VERSION,
            segment,
            entries: self.leaves.len() as u64,
            jobs: self.jobs,
            chain_prev: Sha256::to_hex(&self.prev),
            chain_head: Sha256::to_hex(&self.head),
            merkle_root: Sha256::to_hex(&MerkleTree::new(&self.leaves).root()),
            seal: String::new(),
        }
    }
}

/// The file sink: segment files (`segment-00000001.jsonl`,
/// `segment-00000002.jsonl`, …) in one directory, rotated at
/// [`SegmentConfig::segment_bytes`], fsynced per [`FsyncPolicy`], and
/// retired (deleted) once a [`JournalEntry::Checkpoint`] supersedes them.
///
/// Invariants the recovery path relies on:
///
/// * a commit is one write of whole lines, cut away again if it fails,
///   so a *process* crash can only tear the final, unterminated line of
///   the **last** segment, and a retried commit lands once — earlier
///   segments are sealed and must parse cleanly (every read walks the
///   live segments as one text, so a torn line anywhere else runs on
///   into the next segment's first line and surfaces as
///   [`JournalError::Corrupt`]);
/// * a checkpoint always leads its segment ([`Self::begin_checkpoint`]
///   rotates first), and retirement deletes only segments *before* the
///   checkpoint's — after the checkpoint batch is fsynced — so the live
///   directory always replays from a leading checkpoint.
#[derive(Debug)]
pub struct SegmentedFileSink {
    dir: PathBuf,
    config: SegmentConfig,
    /// The current segment, opened for appending.
    file: File,
    /// Index of the segment currently appended to (== `live.last()`).
    current_index: u64,
    /// Bytes committed to the current segment.
    current_len: u64,
    /// A failed commit could not cut the segment back to `current_len`:
    /// the cut is retried before anything else is written or sealed.
    cut_due: bool,
    /// A rotation failed after its commit's lines were durable: it is
    /// retried before the next write.
    rotation_due: bool,
    /// Live segment indices, ascending.
    live: Vec<u64>,
    /// Inside a `begin_checkpoint`…`finish_checkpoint` bracket: rotation
    /// is suppressed so the checkpoint line can never overflow into (or
    /// past) a segment retirement is about to use as its horizon.
    in_checkpoint: bool,
    unsynced_entries: u64,
    unsynced_bytes: u64,
    stats: SinkStats,
    /// The fleet's sealing key, when [`SegmentConfig::seal`] is set.
    seal_key: Option<SealKey>,
    /// The current segment's block, kept whether or not the sink seals:
    /// its head is the chain head over every committed line.
    block: Block,
}

impl SegmentedFileSink {
    const PREFIX: &'static str = "segment-";
    const SUFFIX: &'static str = ".jsonl";
    const SEAL_SUFFIX: &'static str = ".seal";
    /// The first tail [`Self::last_link`] reads of a segment: several
    /// typical lines, a fraction of a segment.
    const TAIL_BYTES: u64 = 4 * 1024;

    /// The file name of segment `index`.
    fn segment_name(index: u64) -> String {
        format!("{}{index:08}{}", Self::PREFIX, Self::SUFFIX)
    }

    /// The file name of segment `index`'s sealed block header.
    fn seal_name(index: u64) -> String {
        format!("{}{index:08}{}", Self::PREFIX, Self::SEAL_SUFFIX)
    }

    /// Opens (creating if absent) a segment directory at `dir`. Existing
    /// segments are kept — reopening after a crash continues the same
    /// journal — and the *last* segment's torn tail, if any, is cut away
    /// (the same tail [`parse_journal`] would drop), so the next entry
    /// never merges into the torn fragment. A torn tail in an earlier
    /// segment is never repaired: sealed segments cannot legally be torn,
    /// so that damage must surface as corruption, not be papered over.
    ///
    /// The sink continues the chain from the head segment alone, sealing
    /// or not: it reads that segment once and folds its lines into the
    /// head's block (leaves, job range, chain bounds), starting from the
    /// first line's claimed `prev`. When the head holds no line, the chain
    /// continues after the last line of the newest earlier segment that
    /// holds one (its claimed `prev` linked with its leaf), or at genesis.
    /// No sidecar is read and nothing is checked, so open never fails on
    /// tampered content; detection belongs to [`parse_journal`] and
    /// [`JournalSink::verify`].
    pub fn open(
        dir: impl AsRef<Path>,
        config: SegmentConfig,
    ) -> Result<SegmentedFileSink, JournalError> {
        assert!(
            config.segment_bytes > 0,
            "segments need a positive byte budget"
        );
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut live: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name();
                let name = name.to_str()?;
                let index = name
                    .strip_prefix(Self::PREFIX)?
                    .strip_suffix(Self::SUFFIX)?;
                index.parse::<u64>().ok()
            })
            .collect();
        live.sort_unstable();
        if live.is_empty() {
            live.push(1);
        }
        let current_index = *live.last().expect("at least one segment");
        let mut file = Self::open_segment(&dir, current_index)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // Cut the torn tail: O_APPEND writes then land just after the last
        // newline.
        let kept = bytes
            .iter()
            .rposition(|&byte| byte == b'\n')
            .map_or(0, |at| at + 1);
        if kept < bytes.len() {
            file.set_len(kept as u64)?;
        }
        let block = match Block::fold(&decode(&bytes[..kept]), config.seal.is_some())? {
            Some(block) => block,
            None => Block::at(Self::last_link(&dir, &live[..live.len() - 1])?),
        };
        Ok(SegmentedFileSink {
            dir,
            config,
            file,
            current_index,
            current_len: kept as u64,
            cut_due: false,
            rotation_due: false,
            live,
            in_checkpoint: false,
            unsynced_entries: 0,
            unsynced_bytes: 0,
            stats: SinkStats::default(),
            seal_key: config.seal.map(SealKey::from_seed),
            block,
        })
    }

    /// Opens segment `index` of `dir` for appending, creating it if absent.
    fn open_segment(dir: &Path, index: u64) -> std::io::Result<File> {
        OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(dir.join(Self::segment_name(index)))
    }

    /// The chain value after the last line of the newest segment among
    /// `indices` that ends a line: that line folded on its own (see
    /// [`Block::fold`]), or genesis if no segment ends one.
    ///
    /// A file is read from its end, [`Self::TAIL_BYTES`] first and twice
    /// as many each time after, until the line the rule picks in the tail
    /// starts after the tail's first newline, or the tail is the whole
    /// file. Decoding restarts at every newline, so the text after the
    /// tail's first one is the file's, and the rule picks the line it
    /// would pick in the whole file.
    fn last_link(dir: &Path, indices: &[u64]) -> Result<ChainDigest, JournalError> {
        let mut buf = Vec::new();
        for &index in indices.iter().rev() {
            let mut file = File::open(dir.join(Self::segment_name(index)))?;
            let len = file.metadata()?.len();
            let mut tail = Self::TAIL_BYTES.min(len);
            loop {
                buf.resize(
                    usize::try_from(tail).expect("a read tail fits in memory"),
                    0,
                );
                file.seek(SeekFrom::Start(len - tail))?;
                file.read_exact(&mut buf)?;
                let text = decode(&buf);
                let terminated = &text[..text.rfind('\n').map_or(0, |at| at + 1)];
                let last = terminated.trim_end().rfind('\n').map_or(0, |at| at + 1);
                let whole = tail == len || text.find('\n').is_some_and(|first| last > first);
                if !whole {
                    tail = tail.saturating_mul(2).min(len);
                    continue;
                }
                if let Some(block) = Block::fold(&terminated[last..], false)? {
                    return Ok(block.head);
                }
                break;
            }
        }
        Ok(evidence::genesis())
    }

    /// Reads the segments `indices`, in order, into one reused buffer and
    /// hands each to `visit` (see [`JournalSink::contents`]).
    fn read_segments(&self, indices: &[u64], visit: &mut Visit<'_>) -> Result<(), JournalError> {
        let mut buf = Vec::new();
        for &index in indices {
            let text = read_text(&self.dir.join(Self::segment_name(index)), &mut buf)?;
            visit(&text)?;
        }
        Ok(())
    }

    /// Reads segment `index`'s sealed block header; `None` if the segment
    /// was never sealed (the in-progress head, or a pre-sealing journal).
    /// A header of any version but [`BlockHeader::VERSION`] is rejected
    /// here, before anything reads its other fields.
    fn read_header(&self, index: u64) -> Result<Option<BlockHeader>, JournalError> {
        let mut buf = Vec::new();
        let text = match read_text(&self.dir.join(Self::seal_name(index)), &mut buf) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let header: BlockHeader =
            serde_json::from_str(&text).map_err(|e| JournalError::SealViolation {
                segment: index,
                message: format!("unparseable block header: {e}"),
            })?;
        if header.version != BlockHeader::VERSION {
            return Err(JournalError::UnsupportedHeader {
                segment: index,
                version: header.version,
            });
        }
        Ok(Some(header))
    }

    /// Accepts a segment without a sealed header if this sink does not
    /// seal, or if it is the in-progress head: on a sealing sink any
    /// earlier segment was sealed when it rotated away, so a missing
    /// sidecar is a [`JournalError::SealViolation`].
    fn unsealed(&self, index: u64) -> Result<(), JournalError> {
        if self.seal_key.is_none() || Some(&index) == self.live.last() {
            return Ok(());
        }
        Err(JournalError::SealViolation {
            segment: index,
            message: "non-head segment has no sealed block header".to_string(),
        })
    }

    /// Writes the signed block header for the (just-synced) current
    /// segment when sealing is enabled. The block is left alone:
    /// [`Self::rotate`] starts the next one once the successor segment is
    /// open, so a rotation that fails here or later can simply run again.
    fn seal_current(&mut self) -> Result<(), JournalError> {
        let Some(key) = &self.seal_key else {
            return Ok(());
        };
        let mut header = self.block.header(self.current_index);
        header.sign(key);
        let text = serde_json::to_string(&header)
            .map_err(|e| JournalError::Io(format!("serialize block header: {e}")))?;
        let mut file = File::create(self.dir.join(Self::seal_name(self.current_index)))?;
        file.write_all(text.as_bytes())?;
        if !matches!(self.config.fsync, FsyncPolicy::Never) {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Syncs the current segment to the platter and resets the unsynced
    /// backlog. Uses `fdatasync` (`sync_data`): file *data* plus the
    /// metadata needed to read it back (size) — the standard WAL sync,
    /// materially cheaper than `fsync`'s full-metadata flush.
    fn fsync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.unsynced_entries = 0;
        self.unsynced_bytes = 0;
        Ok(())
    }

    /// Syncs the segment *directory*: a freshly created segment's data
    /// can be fdatasync'd and still unreachable after power loss if the
    /// directory entry never hit the platter, and a retirement's
    /// `remove_file`s are likewise directory mutations. Called after
    /// creating a segment (under a syncing policy) and after retirement.
    fn sync_dir(&mut self) -> Result<(), JournalError> {
        File::open(&self.dir)?.sync_all()?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Cuts the current segment back to its committed length, if a
    /// failed commit's own cut failed (`cut_due`).
    fn cut_back(&mut self) -> Result<(), JournalError> {
        if self.cut_due {
            self.file.set_len(self.current_len)?;
            self.cut_due = false;
        }
        Ok(())
    }

    /// Seals the current segment and starts the next one. Nothing changes
    /// until the next segment is open and its directory entry synced, so
    /// a rotation that fails can run again.
    fn rotate(&mut self) -> Result<(), JournalError> {
        self.cut_back()?;
        // Seal the finished segment to the platter unless the policy
        // never syncs: a sealed segment is the one place a torn tail is
        // *illegal*, so don't leave it hostage to the page cache.
        if !matches!(self.config.fsync, FsyncPolicy::Never) && self.unsynced_bytes > 0 {
            self.fsync()?;
        }
        // The finished segment is complete: sign its block header before
        // anything can be appended elsewhere.
        self.seal_current()?;
        let next = self.current_index + 1;
        let file = Self::open_segment(&self.dir, next)?;
        // Make the new segment's directory entry durable too, or records
        // synced into it could vanish with the file on power loss.
        if !matches!(self.config.fsync, FsyncPolicy::Never) {
            self.sync_dir()?;
        }
        self.file = file;
        self.current_index = next;
        self.current_len = 0;
        self.live.push(next);
        self.stats.rotations += 1;
        if self.seal_key.is_some() {
            self.stats.seals += 1;
        }
        self.block = Block::at(self.block.head);
        self.rotation_due = false;
        Ok(())
    }
}

impl JournalSink for SegmentedFileSink {
    /// Writes `text` at the end of the current segment in one write and
    /// applies the fsync policy (the commit point), then pushes its
    /// `lines` onto the segment's block and rotates if the segment is over
    /// budget. `Ok` means the lines are in the segment exactly once and
    /// in the block; `Err` leaves the segment file and the block as they
    /// were, so the journal's retry of the same batch cannot land it twice.
    fn append_lines(&mut self, text: &str, lines: &[Framed]) -> Result<(), JournalError> {
        if lines.is_empty() {
            return Ok(());
        }
        self.cut_back()?;
        if self.rotation_due {
            self.rotate()?;
        }
        let (bytes, entries) = (text.len() as u64, lines.len() as u64);
        let sync = match self.config.fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryAppend => true,
            FsyncPolicy::GroupCommit {
                max_entries,
                max_bytes,
            } => {
                self.unsynced_entries + entries >= max_entries
                    || self.unsynced_bytes + bytes >= max_bytes
            }
        };
        let written = self.file.write_all(text.as_bytes());
        let synced = written.and_then(|()| if sync { self.file.sync_data() } else { Ok(()) });
        if let Err(e) = synced {
            // Nothing of a failed commit stays in the segment; a cut that
            // fails too is retried before the next write.
            self.cut_due = true;
            self.cut_back().ok();
            return Err(e.into());
        }
        self.current_len += bytes;
        self.unsynced_entries += entries;
        self.unsynced_bytes += bytes;
        if sync {
            self.stats.fsyncs += 1;
            self.unsynced_entries = 0;
            self.unsynced_bytes = 0;
        }
        for line in lines {
            self.block.push(line.leaf, line.prev, line.link, line.job);
        }
        // A checkpoint line larger than the segment budget must not
        // rotate mid-bracket: retirement uses its segment as the horizon.
        // The next ordinary commit rotates instead. The lines are
        // durable, so a rotation that fails now does not fail the commit.
        if self.current_len >= self.config.segment_bytes && !self.in_checkpoint {
            self.rotation_due = self.rotate().is_err();
        }
        Ok(())
    }

    fn append_torn(&mut self, fragment: &str) -> Result<(), JournalError> {
        // A torn fragment is *not* committed evidence: it counts toward
        // the segment length (those bytes are on disk) but never joins
        // the chain fold or the Merkle leaves — exactly as a real crash
        // artifact would be dropped by the parse and cut on reopen.
        self.file.write_all(fragment.as_bytes())?;
        self.current_len += fragment.len() as u64;
        Ok(())
    }

    fn begin_checkpoint(&mut self) -> Result<(), JournalError> {
        // A checkpoint must lead its segment so retirement can use the
        // segment boundary as the recovery horizon. A fresh (empty)
        // segment already qualifies.
        if self.current_len > 0 {
            self.rotate()?;
        }
        self.in_checkpoint = true;
        Ok(())
    }

    fn abort_checkpoint(&mut self) {
        // The checkpoint line never committed: lift the rotation
        // suppression so ordinary appends keep rotating, and leave the
        // live segments untouched (nothing was superseded).
        self.in_checkpoint = false;
    }

    fn finish_checkpoint(&mut self) -> Result<(), JournalError> {
        self.in_checkpoint = false;
        // Retirement is destructive, so it is durable *whatever* the
        // policy: the checkpoint that supersedes the old segments (and
        // its directory entry) goes to the platter before any history is
        // deleted. `Never` trades away tail durability, but actively
        // destroying previously-durable segments against a page-cache-
        // only checkpoint would be strictly worse than not retiring.
        if self.unsynced_bytes > 0 {
            self.fsync()?;
        }
        self.sync_dir()?;
        // Everything before the checkpoint's (current) segment is folded
        // into it and can go. The unlinks are left to the OS's normal
        // writeback: if power loss resurrects a retired segment, it sits
        // *before* the (durable) checkpoint, so recovery's
        // last-checkpoint seek skips it and the next retirement deletes
        // it again.
        let retire: Vec<u64> = self.live.drain(..self.live.len() - 1).collect();
        for index in retire {
            std::fs::remove_file(self.dir.join(Self::segment_name(index)))?;
            // A retired segment's sealed header goes with it (absent for
            // segments written before sealing was enabled).
            match std::fs::remove_file(self.dir.join(Self::seal_name(index))) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            self.stats.segments_retired += 1;
        }
        Ok(())
    }

    fn seal_head(&mut self) -> Result<(), JournalError> {
        // Rotating seals the closed segment; an empty head has nothing to
        // seal, and a checkpoint bracket must not rotate mid-flight.
        if self.seal_key.is_some() && self.current_len > 0 && !self.in_checkpoint {
            self.rotate()?;
        }
        Ok(())
    }

    fn sealed_headers(&self) -> Result<Vec<BlockHeader>, JournalError> {
        let mut headers = Vec::new();
        for &index in &self.live {
            if let Some(header) = self.read_header(index)? {
                headers.push(header);
            }
        }
        Ok(headers)
    }

    fn prove(&self, job: JobId) -> Result<Vec<InclusionProof>, JournalError> {
        // Every live header is read, so a foreign version or a missing
        // sidecar surfaces wherever it sits; only the segments whose
        // signed range holds the job are read further.
        let mut holding = Vec::new();
        for &index in &self.live {
            match self.read_header(index)? {
                Some(header) if header.jobs.is_some_and(|jobs| jobs.contains(job)) => {
                    holding.push((index, header));
                }
                Some(_) => {}
                None => self.unsealed(index)?,
            }
        }
        let token = job.0.to_string();
        let mut proofs = Vec::new();
        for (index, header) in holding {
            // One pass over the segment: every line is hashed for the
            // Merkle tree, and the lines that may name the job are kept to
            // be parsed (see `names_token`).
            let mut leaves = Vec::new();
            let mut named = Vec::new();
            let mut take = |line: Line<'_>| {
                if names_token(line.text, &token) {
                    named.push((leaves.len(), line.text.to_string()));
                }
                leaves.push(evidence::leaf_digest(line.text.as_bytes()));
                Ok(())
            };
            let mut lines = LineSplitter::default();
            self.read_segments(&[index], &mut |text| lines.feed(text, &mut take))?;
            lines.finish(&mut take)?;
            // One tree per segment gives every proof's path.
            let mut tree = None;
            for (at, line) in named {
                let chained: ChainedLine =
                    serde_json::from_str(&line).map_err(|e| JournalError::SealViolation {
                        segment: index,
                        message: format!("sealed segment holds an unparseable line: {e}"),
                    })?;
                if chained.entry.job() == Some(job) {
                    let tree = tree.get_or_insert_with(|| MerkleTree::new(&leaves));
                    proofs.push(InclusionProof {
                        line,
                        index: at as u64,
                        path: tree.path(at),
                        header: header.clone(),
                    });
                }
            }
        }
        Ok(proofs)
    }

    fn verify(&self, key: &SealKey) -> Result<LedgerVerification, JournalError> {
        // Per live segment, the header its lines give (its leaves are
        // dropped once the walk leaves it, and each entry once its job id
        // is taken), whether a line that starts there runs on into a later
        // segment, and whether its last line is the torn tail the walk
        // dropped.
        let mut walked: Vec<BlockHeader> = Vec::with_capacity(self.live.len());
        let mut overruns = vec![false; self.live.len()];
        let mut torn = vec![false; self.live.len()];
        let mut block = Block::at(evidence::genesis());
        let mut entries = 0u64;
        let tail = walk_journal(
            |visit| self.contents(visit),
            |line| {
                while walked.len() < line.piece {
                    walked.push(block.header(self.live[walked.len()]));
                    block = Block::at(block.head);
                }
                let job = line.entry.as_ref().and_then(JournalEntry::job);
                block.push(line.leaf, line.prev, line.link, job);
                overruns[line.piece] |= line.overruns;
                torn[line.piece] |= line.entry.is_none();
                entries += u64::from(line.entry.is_some());
            },
        )?;
        while walked.len() < self.live.len() {
            walked.push(block.header(self.live[walked.len()]));
            block = Block::at(block.head);
        }
        let mut verified = 0u64;
        for (at, (&index, segment)) in self.live.iter().zip(&walked).enumerate() {
            let Some(header) = self.read_header(index)? else {
                // The unsealed head is vouched for by the chain walk only.
                self.unsealed(index)?;
                continue;
            };
            let violation = |message: String| JournalError::SealViolation {
                segment: index,
                message,
            };
            // A sealed segment's lines end inside its own file, and its
            // last line is never torn.
            let unterminated =
                || violation("sealed segment ends in an unterminated line".to_string());
            if overruns[at] {
                return Err(unterminated());
            }
            if header.segment != index {
                return Err(violation(format!(
                    "header names segment {}, found beside segment {index}",
                    header.segment
                )));
            }
            if header.entries != segment.entries {
                return Err(violation(format!(
                    "header seals {} entries, segment holds {}",
                    header.entries, segment.entries
                )));
            }
            if header.chain_prev != segment.chain_prev {
                return Err(violation(
                    "segment's leading chain bound disagrees with its sealed header".to_string(),
                ));
            }
            if header.chain_head != segment.chain_head {
                return Err(violation(
                    "segment's trailing chain bound disagrees with its sealed header".to_string(),
                ));
            }
            if header.merkle_root != segment.merkle_root {
                return Err(violation(
                    "segment's merkle root disagrees with its sealed header".to_string(),
                ));
            }
            if !header.verify_seal(key) {
                return Err(violation(
                    "block header seal does not verify under this fleet's key".to_string(),
                ));
            }
            if torn[at] {
                return Err(unterminated());
            }
            // A validly signed but wrong range would hide the segment's
            // lines from `prove`.
            if segment.jobs != header.jobs {
                return Err(violation(format!(
                    "header seals job range {:?}, segment's lines name {:?}",
                    header.jobs, segment.jobs
                )));
            }
            verified += 1;
        }
        Ok(LedgerVerification {
            entries,
            tail,
            seals_verified: verified,
        })
    }

    fn chain_head(&self) -> ChainDigest {
        self.block.head
    }

    fn sink_stats(&self) -> SinkStats {
        self.stats
    }

    fn contents(
        &self,
        visit: &mut dyn FnMut(&str) -> Result<(), JournalError>,
    ) -> Result<(), JournalError> {
        self.read_segments(&self.live, visit)
    }
}

/// Whether `line` holds `token` (a job id in decimal) as a whole decimal
/// token: an occurrence with no ASCII digit on either side. Every entry
/// that names a job writes its id as a JSON integer, so a line that fails
/// this cannot belong to the job; it is a necessary condition only, and
/// the caller parses every line that passes.
fn names_token(line: &str, token: &str) -> bool {
    // `contains` is a vectorised search and rejects most lines; the
    // occurrence-by-occurrence check runs only on the lines it passes.
    if !line.contains(token) {
        return false;
    }
    let digit_at = |at: usize| line.as_bytes().get(at).is_some_and(u8::is_ascii_digit);
    line.match_indices(token)
        .any(|(at, _)| (at == 0 || !digit_at(at - 1)) && !digit_at(at + token.len()))
}

struct JournalInner {
    sink: Box<dyn JournalSink>,
    stats: JournalStats,
    /// The evidence chain head: the chain link folded over every line
    /// committed so far (the sink's [`JournalSink::chain_head`] on open,
    /// advanced only after a commit succeeds, and kept across a
    /// failover, whose fresh sink takes it from the first line's `prev`).
    link: ChainDigest,
    /// Reused serialization buffer: every append path serializes into
    /// this and hands it to the sink whole, so the steady state allocates
    /// nothing per entry.
    scratch: String,
    /// Where each serialized line ends in `scratch`, and its evidence
    /// (reused).
    framed: Vec<Framed>,
}

/// Serializes a [`JournalEntry`] inside the chained envelope,
/// `{"prev":"<hex>","entry":{"<variant>":<value>}}`.
fn frame_entry(
    out: &mut String,
    prev: &ChainDigest,
    entry: &JournalEntry,
) -> Result<(), JournalError> {
    out.push_str("{\"prev\":\"");
    Sha256::write_hex(out, prev);
    out.push_str("\",\"entry\":");
    serde_json::Serializer::new(out)
        .serialize(entry)
        .map_err(|e| JournalError::Io(format!("serialize journal entry: {e}")))?;
    out.push('}');
    Ok(())
}

/// What a read hands the journal text to, one piece at a time (see
/// [`JournalSink::contents`]).
type Visit<'a> = dyn FnMut(&str) -> Result<(), JournalError> + 'a;

/// One non-blank line of journal text.
struct Line<'t> {
    /// 1-based line number in the concatenated text, blank lines counted.
    no: usize,
    /// The 0-based piece (a segment, for a segmented sink) the line
    /// starts in.
    piece: usize,
    /// The line's canonical bytes, without its newline.
    text: &'t str,
    /// Whether a newline ends it (only the last line can lack one).
    terminated: bool,
    /// Whether its bytes run on past the end of the piece it starts in.
    overruns: bool,
}

/// Splits journal text that is read one piece at a time into the lines
/// of the pieces' concatenation, the one way every walk splits them: on
/// `\n` only, so a `\r` stays part of a line's canonical bytes. A line a
/// piece leaves unterminated is carried over and joined to the next
/// piece's first line, so the lines, their numbers and their bytes are
/// those of the concatenated text.
#[derive(Default)]
struct LineSplitter {
    /// Lines ended so far, blank ones counted.
    no: usize,
    /// Pieces fed so far.
    pieces: usize,
    /// The line the pieces so far leave unterminated (empty if none).
    carry: String,
    /// The piece the carried line starts in.
    carry_piece: usize,
    /// Whether the carried line holds bytes of a later piece.
    carry_overruns: bool,
}

impl LineSplitter {
    /// Splits `piece`, handing `emit` every non-blank line it ends.
    fn feed(
        &mut self,
        piece: &str,
        emit: &mut impl FnMut(Line<'_>) -> Result<(), JournalError>,
    ) -> Result<(), JournalError> {
        let ordinal = self.pieces;
        self.pieces += 1;
        let mut parts = piece.split('\n');
        let mut part = parts.next().unwrap_or_default();
        for next in parts {
            self.no += 1;
            let (text, piece, overruns) = if self.carry.is_empty() {
                (part, ordinal, false)
            } else {
                self.carry.push_str(part);
                let overruns = self.carry_overruns || !part.is_empty();
                (self.carry.as_str(), self.carry_piece, overruns)
            };
            if !text.trim().is_empty() {
                emit(Line {
                    no: self.no,
                    piece,
                    text,
                    terminated: true,
                    overruns,
                })?;
            }
            self.carry.clear();
            part = next;
        }
        // What follows the piece's last newline runs on into the next.
        if !part.is_empty() {
            if self.carry.is_empty() {
                self.carry_piece = ordinal;
                self.carry_overruns = false;
            } else {
                self.carry_overruns = true;
            }
            self.carry.push_str(part);
        }
        Ok(())
    }

    /// Hands `emit` the line the last piece left unterminated, if any.
    fn finish(
        mut self,
        emit: &mut impl FnMut(Line<'_>) -> Result<(), JournalError>,
    ) -> Result<(), JournalError> {
        if self.carry.trim().is_empty() {
            return Ok(());
        }
        self.no += 1;
        emit(Line {
            no: self.no,
            piece: self.carry_piece,
            text: &self.carry,
            terminated: false,
            overruns: self.carry_overruns,
        })
    }
}

/// Serializes `entries` into the reused buffer, each chained onto the
/// line before it and ended by a newline, and commits them as ONE
/// sink-level group commit. Each line is hashed once, here: its leaf
/// feeds the chain and, handed on in its [`Framed`], a sealing sink's
/// Merkle tree. The chain head and the handle counters advance only if
/// the sink accepts the batch, so a retry continues the chain exactly
/// where it stood.
fn commit(inner: &mut JournalInner, entries: &[JournalEntry]) -> Result<(), JournalError> {
    inner.scratch.clear();
    inner.framed.clear();
    let mut link = inner.link;
    for entry in entries {
        let start = inner.scratch.len();
        frame_entry(&mut inner.scratch, &link, entry)?;
        let leaf = evidence::leaf_digest(&inner.scratch.as_bytes()[start..]);
        inner.scratch.push('\n');
        let prev = link;
        link = evidence::link_leaf(&prev, &leaf);
        inner.framed.push(Framed {
            end: inner.scratch.len(),
            leaf,
            prev,
            link,
            job: entry.job(),
        });
    }
    inner.sink.append_lines(&inner.scratch, &inner.framed)?;
    inner.link = link;
    inner.stats.appends += inner.framed.len() as u64;
    inner.stats.bytes += inner.scratch.len() as u64;
    inner.stats.group_commits += 1;
    Ok(())
}

/// `stats` with a sink's durability counters added on.
fn with_sink_stats(stats: JournalStats, sink: SinkStats) -> JournalStats {
    JournalStats {
        rotations: stats.rotations + sink.rotations,
        fsyncs: stats.fsyncs + sink.fsyncs,
        segments_retired: stats.segments_retired + sink.segments_retired,
        seals: stats.seals + sink.seals,
        ..stats
    }
}

/// A cloneable handle to one append-only journal. The ingest pipeline and
/// the service share a handle, so the append/byte counters cover the whole
/// write-ahead stream; appends are serialized through an internal lock.
///
/// See the [module docs](self) for the entry types and the recovery
/// contract.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<JournalInner>>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Journal")
            .field("appends", &stats.appends)
            .field("bytes", &stats.bytes)
            .finish()
    }
}

impl Journal {
    /// A journal over a custom sink. Appends continue the evidence chain
    /// from the sink's head ([`JournalSink::chain_head`]), which the sink
    /// tracks itself, so a reopened journal continues its chain instead of
    /// restarting it, and nothing is read here.
    pub fn with_sink(sink: Box<dyn JournalSink>) -> Journal {
        let link = sink.chain_head();
        Journal {
            inner: Arc::new(Mutex::new(JournalInner {
                sink,
                stats: JournalStats::default(),
                link,
                scratch: String::new(),
                framed: Vec::new(),
            })),
        }
    }

    /// An in-memory journal.
    pub fn in_memory() -> Journal {
        Journal::with_sink(Box::new(MemorySink::new()))
    }

    /// A journal over a [`SegmentedFileSink`] at directory `dir` (created
    /// if absent; existing segments are continued — reopening after a
    /// crash cuts the last segment's torn tail first; see
    /// [`SegmentedFileSink::open`]).
    ///
    /// # Errors
    /// [`JournalError::Io`] if the directory or its segments cannot be
    /// opened.
    pub fn segmented(
        dir: impl AsRef<Path>,
        config: SegmentConfig,
    ) -> Result<Journal, JournalError> {
        let sink = SegmentedFileSink::open(dir, config)?;
        Ok(Journal::with_sink(Box::new(sink)))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The journal's one write method: serializes `entries` back to back
    /// into the reused buffer, each in its chained envelope, and commits
    /// them as one [`JournalSink::append_lines`] group commit, durable
    /// before return. A batch holding a lone [`JournalEntry::Checkpoint`]
    /// is bracketed by the sink's checkpoint hooks: a segmented sink
    /// rotates first (the checkpoint leads a fresh segment) and retires
    /// the superseded segments after.
    ///
    /// # Errors
    /// [`JournalError::Io`] if serialization or the sink fails.
    pub fn append_batch(&self, entries: &[JournalEntry]) -> Result<(), JournalError> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let checkpoint = matches!(entries, [JournalEntry::Checkpoint(_)]);
        if checkpoint {
            inner.sink.begin_checkpoint()?;
        }
        if let Err(e) = commit(inner, entries) {
            if checkpoint {
                // Leave the bracket cleanly: nothing was superseded, and
                // the sink must not stay in checkpoint mode (that would
                // suppress rotation forever).
                inner.sink.abort_checkpoint();
            }
            return Err(e);
        }
        if checkpoint {
            inner.sink.finish_checkpoint()?;
        }
        Ok(())
    }

    /// Fails the journal over to a **fresh** sink (e.g. a new segment
    /// directory on a healthy disk) after the current sink started
    /// rejecting writes. The swap propagates to every clone of this
    /// handle — the service and the ingest pipeline share one journal —
    /// and the evidence chain head carries over unchanged: the link only
    /// ever advances after a commit *succeeds*, so the replacement sink's
    /// first line continues the chain exactly where the dead sink's last
    /// committed line left it. The replacement learns that head from the
    /// first line it is handed ([`Framed::prev`]), so a sealing
    /// [`SegmentedFileSink`] signs headers with consistent chain bounds.
    ///
    /// The replacement must be empty: failover *continues* a journal, it
    /// never splices two. (For the new directory to be recoverable on its
    /// own, write a leading [`JournalEntry::Checkpoint`] right after the
    /// swap — [`crate::FleetStream::resume_with_sink`] does.) The outgoing
    /// sink's counters carry over into [`Journal::stats`].
    pub fn fail_over(&self, sink: Box<dyn JournalSink>) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stats = with_sink_stats(inner.stats, inner.sink.sink_stats());
        inner.sink = sink;
    }

    /// Append/byte/commit counters for this handle, plus the sink counters
    /// of the current sink and every sink it failed over from.
    pub fn stats(&self) -> JournalStats {
        let inner = self.lock();
        with_sink_stats(inner.stats, inner.sink.sink_stats())
    }

    /// Reads the journal back and parses it, dropping a truncated tail
    /// and walking the evidence chain.
    ///
    /// # Errors
    /// [`JournalError::Io`] if the sink cannot be read;
    /// [`JournalError::Corrupt`] if an entry *before* the tail fails to
    /// parse; [`JournalError::ChainViolation`] if an entry is off the
    /// hash chain (see [`parse_journal`]).
    pub fn entries(&self) -> Result<(Vec<JournalEntry>, TailStatus), JournalError> {
        let inner = self.lock();
        read_entries(|visit| inner.sink.contents(visit))
    }

    /// The journal's canonical chained bytes, exactly as the sink holds
    /// them — the text [`parse_journal`] walks and the evidence chain is
    /// computed over. External verifiers (and tamper tests) operate on
    /// this representation. The one read that holds the whole journal in
    /// memory: [`Journal::entries`] and [`Journal::verify`] walk the
    /// sink's pieces instead. A byte of a segment file that is not UTF-8
    /// reads as U+FFFD, here and in every read of the journal, so the walk
    /// locates it as it locates any other damaged byte.
    ///
    /// # Errors
    /// [`JournalError::Io`] if the sink cannot be read.
    pub fn text(&self) -> Result<String, JournalError> {
        let mut text = String::new();
        self.lock().sink.contents(&mut |piece| {
            text.push_str(piece);
            Ok(())
        })?;
        Ok(text)
    }

    /// Seals the in-progress segment (if it holds any entries) by
    /// rotating it away, so every committed entry is covered by a signed
    /// block header — the step [`Journal::prove`] needs before it can
    /// cover the newest entries. A no-op on sinks without sealing.
    ///
    /// # Errors
    /// [`JournalError::Io`] if the rotation or header write fails.
    pub fn seal(&self) -> Result<(), JournalError> {
        self.lock().sink.seal_head()
    }

    /// The signed block headers of the sealed live segments, oldest
    /// first (empty on sinks without sealing).
    ///
    /// # Errors
    /// [`JournalError::Io`] if a header cannot be read;
    /// [`JournalError::SealViolation`] if one does not parse;
    /// [`JournalError::UnsupportedHeader`] if one is not
    /// [`BlockHeader::VERSION`].
    pub fn sealed_headers(&self) -> Result<Vec<BlockHeader>, JournalError> {
        self.lock().sink.sealed_headers()
    }

    /// Builds [`InclusionProof`]s for every *sealed* entry of `job` —
    /// Merkle path plus signed block header, checkable with
    /// [`InclusionProof::verify`] and nothing else. Entries in the
    /// unsealed head segment are not covered; call [`Journal::seal`]
    /// first to include them. Every live header is read, but only the
    /// segments whose signed job-id range holds `job` are read past it
    /// (see [`JournalSink::prove`]), so a dispute costs one small read per
    /// segment and the hashing of the segments that hold the job, not the
    /// journal.
    ///
    /// # Errors
    /// [`JournalError::Io`] if a segment cannot be read;
    /// [`JournalError::SealViolation`] if a non-head segment of a sealing
    /// sink has no sealed header (exactly as [`Journal::verify`] reports
    /// it) or a line naming the id does not parse;
    /// [`JournalError::UnsupportedHeader`] as for
    /// [`Journal::sealed_headers`].
    pub fn prove(&self, job: JobId) -> Result<Vec<InclusionProof>, JournalError> {
        self.lock().sink.prove(job)
    }

    /// Full ledger verification ([`JournalSink::verify`]): parses the
    /// journal — which walks the hash chain, so duplication, reordering,
    /// deletion and in-place edits surface as
    /// [`JournalError::ChainViolation`] naming the first bad entry — then
    /// re-verifies every sealed block header under the fleet `seed`'s
    /// [`SealKey`] (forged, altered or foreign-fleet seals surface as
    /// [`JournalError::SealViolation`], headers of another format version
    /// as [`JournalError::UnsupportedHeader`]). Each line is read, hashed
    /// and parsed once: the seal check takes the walk's leaves and job
    /// ids, so a validly signed header whose Merkle root, chain bounds or
    /// job-id range is not its segment's is a
    /// [`JournalError::SealViolation`] too, and each entry is dropped once
    /// its id is taken.
    ///
    /// # Errors
    /// [`JournalError::Io`], [`JournalError::Corrupt`],
    /// [`JournalError::ChainViolation`], [`JournalError::SealViolation`]
    /// or [`JournalError::UnsupportedHeader`] as above.
    pub fn verify(&self, seed: u64) -> Result<LedgerVerification, JournalError> {
        self.lock().sink.verify(&SealKey::from_seed(seed))
    }
}

/// What [`Journal::verify`] established about a ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerVerification {
    /// Entries the chain walk vouched for.
    pub entries: u64,
    /// Whether a torn (crash-artifact) tail was dropped.
    pub tail: TailStatus,
    /// Sealed block headers that verified under the seed's key.
    pub seals_verified: u64,
}

/// Parses JSON-lines journal text **and walks its hash chain**. A final
/// line missing its newline — the exact artifact a crash mid-append
/// leaves, since each entry and its newline are written in one call — is
/// dropped with [`TailStatus::Truncated`]; an unparseable *terminated*
/// line anywhere (tail included) was fully written and later damaged, so
/// it is [`JournalError::Corrupt`].
///
/// Every surviving line must also sit on the evidence chain: its `prev`
/// field must equal the chain link recomputed over the preceding
/// canonical line bytes. The first entry must chain from
/// [`evidence::genesis`] — unless it is a [`JournalEntry::Checkpoint`],
/// which may carry any anchor, because a retired segmented journal
/// legitimately starts mid-chain at its leading checkpoint. Duplicated,
/// reordered, deleted or edited lines break the fold and surface as
/// [`JournalError::ChainViolation`] naming the **first** entry the chain
/// no longer vouches for.
pub fn parse_journal(text: &str) -> Result<(Vec<JournalEntry>, TailStatus), JournalError> {
    read_entries(|visit| visit(text))
}

/// The entries and tail of the strict chain walk over the text `read`
/// hands it.
fn read_entries(
    read: impl FnOnce(&mut Visit<'_>) -> Result<(), JournalError>,
) -> Result<(Vec<JournalEntry>, TailStatus), JournalError> {
    let mut entries = Vec::new();
    let tail = walk_journal(read, |line| entries.extend(line.entry))?;
    Ok((entries, tail))
}

/// One line the strict chain walk passed.
struct Walked {
    /// The 0-based piece the line starts in ([`Line::piece`]).
    piece: usize,
    /// Whether the line runs on past that piece ([`Line::overruns`]).
    overruns: bool,
    /// The line's leaf digest.
    leaf: ChainDigest,
    /// The chain value before the line.
    prev: ChainDigest,
    /// The chain value after the line.
    link: ChainDigest,
    /// The line's entry; `None` for the torn tail the walk dropped.
    entry: Option<JournalEntry>,
}

/// The strict chain walk of [`parse_journal`], [`Journal::entries`] and
/// [`JournalSink::verify`] over the text `read` hands it, piece by piece:
/// reads, hashes and parses every line once, checks it against the chain
/// and hands it to `visit`, torn tail included (with `entry: None`, its
/// leaf folded onto the chain but vouched for by nothing). Lines, their
/// numbers and every error are those of the walk over the pieces'
/// concatenation.
fn walk_journal(
    read: impl FnOnce(&mut Visit<'_>) -> Result<(), JournalError>,
    mut visit: impl FnMut(Walked),
) -> Result<TailStatus, JournalError> {
    let mut link = evidence::genesis();
    let mut anchored = false;
    let mut tail = TailStatus::Clean;
    let mut step = |line: Line<'_>| {
        let leaf = evidence::leaf_digest(line.text.as_bytes());
        let (piece, overruns) = (line.piece, line.overruns);
        if !line.terminated {
            // Only an *unterminated* final line is a crash artifact: the
            // writer appends line + newline in one write, so a torn write
            // can never include the newline, and a line without one may be
            // a prefix of a longer record whether or not it parses. Drop
            // it.
            visit(Walked {
                piece,
                overruns,
                leaf,
                prev: link,
                link: evidence::link_leaf(&link, &leaf),
                entry: None,
            });
            tail = TailStatus::Truncated {
                dropped_bytes: line.text.len(),
            };
            return Ok(());
        }
        // A newline-terminated line that fails to parse was fully written
        // and later damaged — corruption, wherever it sits.
        let chained: ChainedLine =
            serde_json::from_str(line.text).map_err(|e| JournalError::Corrupt {
                line: line.no,
                message: e.to_string(),
            })?;
        let subject = || match chained.entry.job() {
            Some(job) => format!("{} entry for {job}", chained.entry.label()),
            None => format!("{} entry", chained.entry.label()),
        };
        let claimed =
            Sha256::from_hex(&chained.prev).ok_or_else(|| JournalError::ChainViolation {
                line: line.no,
                message: format!("{} carries an unparseable prev link", subject()),
            })?;
        if !anchored && claimed != link && matches!(chained.entry, JournalEntry::Checkpoint(_)) {
            // A retired journal starts at its leading checkpoint, whose
            // prev is the chain head the fold reached before retirement:
            // adopt it.
            link = claimed;
        }
        if claimed != link {
            return Err(JournalError::ChainViolation {
                line: line.no,
                message: format!(
                    "{} claims prev {}… but the chain here reads {}… \
                     (duplicated, reordered, deleted or edited evidence at or \
                     before this line)",
                    subject(),
                    &chained.prev[..8.min(chained.prev.len())],
                    &Sha256::to_hex(&link)[..8],
                ),
            });
        }
        anchored = true;
        let prev = link;
        link = evidence::link_leaf(&link, &leaf);
        visit(Walked {
            piece,
            overruns,
            leaf,
            prev,
            link,
            entry: Some(chained.entry),
        });
        Ok(())
    };
    let mut lines = LineSplitter::default();
    read(&mut |piece| lines.feed(piece, &mut step))?;
    lines.finish(&mut step)?;
    Ok(tail)
}

/// The suffix of `entries` a recovery should replay: from the **last**
/// [`JournalEntry::Checkpoint`] onward (a cadence-written checkpoint
/// folds everything before it, so earlier entries are redundant), or the
/// whole slice when no checkpoint is present.
///
/// A retired [`SegmentedFileSink`] directory already starts at its
/// latest checkpoint; this helper makes recovery cost bounded for
/// unretired journals (e.g. a [`CheckpointCadence`] service over a
/// [`MemorySink`]) too. See [`crate::FleetService::recover_latest`].
pub fn recovery_window(entries: &[JournalEntry]) -> &[JournalEntry] {
    match entries
        .iter()
        .rposition(|entry| matches!(entry, JournalEntry::Checkpoint(_)))
    {
        Some(at) => &entries[at..],
        None => entries,
    }
}

/// How a journal replay went (see [`crate::FleetService::recover`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// `Run` entries re-posted through the service.
    pub runs_replayed: u64,
    /// Runs folded into checkpoints that were applied instead of replayed.
    pub checkpoint_runs: u64,
    /// Journaled `Invoice`/`Verdict` receipts that matched the re-derived
    /// posting bit for bit.
    pub postings_confirmed: u64,
    /// Jobs whose journaled receipt disagreed with the replay — evidence
    /// the journal was modified after the fact (each receipt entry that
    /// disagrees contributes one element, so a job can appear twice).
    pub mismatches: Vec<JobId>,
    /// Runs whose receipts never made it to the journal (the crash tail);
    /// their effects were re-derived and posted during recovery.
    pub unconfirmed: u64,
    /// Jobs whose id appeared in more than one replayed `Run` entry (or
    /// in a replayed entry *and* the applied checkpoint). Populated only
    /// by lenient recovery ([`crate::FleetService::recover_lenient`]):
    /// strict recovery
    /// ([`crate::FleetService::recover`]) hard-errors on the first
    /// duplicate with [`RecoveryError::ChainViolation`] instead, because
    /// on a chained journal a duplicated entry can only be a copy-paste —
    /// a legitimate resubmission would carry a fresh `prev` link.
    pub duplicate_runs: Vec<JobId>,
    /// `Accepted` entries replayed (submission-side write-ahead records).
    pub accepted: u64,
    /// Jobs that were accepted but never released before the journal
    /// ended — the work a crash interrupted — in submission order.
    /// Resubmitting exactly these specs to the restarted service
    /// reproduces the uninterrupted run deterministically.
    pub unreleased: Vec<JobSpec>,
    /// `Poisoned` verdicts replayed: jobs the executor fleet retired
    /// after they killed the configured run of workers. Each retired its
    /// matching `Accepted` entry (the job *was* resolved — do not
    /// resubmit it) without posting anything to the ledger.
    pub poisoned: u64,
}

impl RecoveryReport {
    /// Whether every journaled receipt matched its re-derived posting.
    pub fn is_consistent(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Why a journal replay was rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryError {
    /// An `Invoice`/`Verdict` entry named a job with no preceding `Run`
    /// entry — the journal is not a valid write-ahead sequence.
    OrphanPosting(JobId),
    /// A `Checkpoint` entry appeared after runs had already been replayed;
    /// checkpoints are only valid as a journal's (possibly repeated)
    /// leading entries.
    MisplacedCheckpoint,
    /// Strict recovery found the same job in more than one `Run` entry
    /// (or in a replayed entry *and* the applied checkpoint). On a
    /// chained journal this is duplicated evidence, not a resubmission —
    /// use [`crate::FleetService::recover_lenient`] to replay anyway and
    /// inspect [`RecoveryReport::duplicate_runs`].
    ChainViolation(JobId),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::OrphanPosting(job) => {
                write!(f, "journal posting for {job} has no preceding run entry")
            }
            RecoveryError::MisplacedCheckpoint => {
                f.write_str("checkpoint entry after replayed runs")
            }
            RecoveryError::ChainViolation(job) => {
                write!(f, "duplicated run entry for {job} in a chained journal")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Fleet, FleetConfig, JobSpec};
    use std::collections::HashMap;
    use trustmeter_workloads::Workload;

    fn record() -> RunRecord {
        Fleet::new(FleetConfig::new(1, 7)).run_one(&JobSpec::clean(
            0,
            TenantId(1),
            Workload::LoopO,
            0.001,
        ))
    }

    #[test]
    fn entries_round_trip_through_json_lines() {
        let journal = Journal::in_memory();
        let run = JournalEntry::run(record());
        journal.append_batch(std::slice::from_ref(&run)).unwrap();
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(entries, vec![run]);
        let stats = journal.stats();
        assert_eq!(stats.appends, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn truncated_tail_is_dropped() {
        let journal = Journal::in_memory();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        let text = journal.text().unwrap();
        // A crash mid-append leaves a partial final line.
        let torn = format!("{text}{}", &text[..text.len() / 2]);
        let (entries, tail) = parse_journal(&torn).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(tail.is_truncated());
    }

    #[test]
    fn unterminated_final_line_is_dropped_even_if_parseable() {
        let journal = Journal::in_memory();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        let text = journal.text().unwrap();
        // Strip the final newline: the last line parses but is torn.
        let torn = &text[..text.len() - 1];
        let (entries, tail) = parse_journal(torn).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(tail.is_truncated());
    }

    #[test]
    fn terminated_corrupt_final_line_is_an_error() {
        // Appends write the line and its newline in one call, so a torn
        // write can never be newline-terminated: a terminated line that
        // fails to parse was damaged after the fact.
        let journal = Journal::in_memory();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        let text = journal.text().unwrap();
        let damaged = format!("{text}{{\"Run\":garbage}}\n");
        match parse_journal(&damaged) {
            Err(JournalError::Corrupt { line: 2, .. }) => {}
            other => panic!("expected corruption at line 2, got {other:?}"),
        }
    }

    #[test]
    fn corruption_before_the_tail_is_an_error() {
        let journal = Journal::in_memory();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        let text = journal.text().unwrap();
        let corrupted = format!("not json\n{text}");
        match parse_journal(&corrupted) {
            Err(JournalError::Corrupt { line: 1, .. }) => {}
            other => panic!("expected corruption at line 1, got {other:?}"),
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let journal = Journal::in_memory();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        let text = journal.text().unwrap();
        let padded = format!("\n{text}\n\n");
        let (entries, tail) = parse_journal(&padded).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(tail, TailStatus::Clean);
    }

    #[test]
    fn entry_labels_and_jobs() {
        let run = JournalEntry::run(record());
        assert_eq!(run.label(), "run");
        assert_eq!(run.job(), Some(JobId(0)));
    }

    /// A unique scratch directory for one segmented-sink test.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("trustmeter-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_segments(dir: &Path) -> Journal {
        // A few hundred bytes per segment: every run entry rotates.
        Journal::segmented(dir, SegmentConfig::default().with_segment_bytes(512)).unwrap()
    }

    #[test]
    fn batched_appends_are_byte_identical_to_per_entry_appends() {
        let entries = vec![JournalEntry::run(record()), JournalEntry::run(record())];
        let one_by_one = Journal::in_memory();
        for entry in &entries {
            one_by_one
                .append_batch(std::slice::from_ref(entry))
                .unwrap();
        }
        let batched = Journal::in_memory();
        batched.append_batch(&entries).unwrap();
        assert_eq!(batched.text().unwrap(), one_by_one.text().unwrap());
        // Counters: same appends/bytes, but one commit for the batch.
        assert_eq!(batched.stats().appends, 2);
        assert_eq!(batched.stats().bytes, one_by_one.stats().bytes);
        assert_eq!(batched.stats().group_commits, 1);
        assert_eq!(one_by_one.stats().group_commits, 2);
    }

    #[test]
    fn segmented_sink_rotates_at_the_byte_threshold() {
        let dir = scratch_dir("rotate");
        let journal = tiny_segments(&dir);
        for _ in 0..3 {
            journal
                .append_batch(&[JournalEntry::run(record())])
                .unwrap();
        }
        let stats = journal.stats();
        assert!(stats.rotations >= 2, "stats: {stats:?}");
        let segments = std::fs::read_dir(&dir).unwrap().count();
        assert!(segments >= 3, "expected ≥3 live segments, got {segments}");
        // Reading back concatenates the segments in order.
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(entries.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segmented_sink_survives_reopen_and_repairs_last_segment_only() {
        let dir = scratch_dir("reopen");
        {
            let journal = tiny_segments(&dir);
            for _ in 0..2 {
                journal
                    .append_batch(&[JournalEntry::run(record())])
                    .unwrap();
            }
        }
        // Tear the LAST segment's tail, as a crash mid-append would.
        let mut segments: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segments.sort();
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new()
                .append(true)
                .open(segments.last().unwrap())
                .unwrap();
            file.write_all(br#"{"Run":{"job":{"id":7"#).unwrap();
        }
        // Reopening repairs the torn tail and continues the journal.
        let reopened = tiny_segments(&dir);
        reopened
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        let (entries, tail) = reopened.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean, "reopen repaired the torn tail");
        assert_eq!(entries.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_in_an_earlier_segment_is_corruption() {
        let dir = scratch_dir("earlier-torn");
        {
            let journal = tiny_segments(&dir);
            for _ in 0..2 {
                journal
                    .append_batch(&[JournalEntry::run(record())])
                    .unwrap();
            }
        }
        let mut segments: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segments.sort();
        assert!(segments.len() >= 2);
        // Damage the FIRST (sealed) segment: strip its trailing newline.
        // Sealed segments cannot legally be torn, so the journal must
        // refuse, not silently drop entries mid-file.
        let first = &segments[0];
        let text = std::fs::read_to_string(first).unwrap();
        std::fs::write(first, &text[..text.len() - 1]).unwrap();
        let journal = tiny_segments(&dir);
        match journal.entries() {
            Err(JournalError::Corrupt { .. }) => {}
            other => panic!("expected corruption, got {other:?}"),
        }
        // `verify` walks the same text: the torn line merges into the
        // next segment's first line, which does not parse.
        match journal.verify(0) {
            Err(JournalError::Corrupt { .. }) => {}
            other => panic!("expected corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotates_retires_and_leads_the_live_directory() {
        let dir = scratch_dir("checkpoint");
        let journal = tiny_segments(&dir);
        for _ in 0..3 {
            journal
                .append_batch(&[JournalEntry::run(record())])
                .unwrap();
        }
        let before = std::fs::read_dir(&dir).unwrap().count();
        assert!(before >= 3);
        // A checkpoint folds everything before it: the sink rotates so the
        // checkpoint leads a fresh segment, then deletes the history.
        let checkpoint = Checkpoint {
            runs: 3,
            ledger: Ledger::new(),
            audit: AuditorState::default(),
            metrics: MetricsRegistry::new(),
        };
        journal
            .append_batch(&[JournalEntry::checkpoint(checkpoint)])
            .unwrap();
        let stats = journal.stats();
        assert!(
            stats.segments_retired >= before as u64 - 1,
            "stats: {stats:?}"
        );
        let (entries, _) = journal.entries().unwrap();
        assert_eq!(entries[0].label(), "checkpoint", "checkpoint leads");
        assert_eq!(entries.len(), 1, "history was retired");
        // Appends continue after the checkpoint.
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        let (entries, _) = journal.entries().unwrap();
        assert_eq!(entries.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_policy_fsyncs_on_entry_and_byte_thresholds() {
        let dir = scratch_dir("group-fsync");
        let config = SegmentConfig::default().with_fsync(FsyncPolicy::GroupCommit {
            max_entries: 2,
            max_bytes: 1024 * 1024,
        });
        let journal = Journal::segmented(&dir, config).unwrap();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        assert_eq!(journal.stats().fsyncs, 0, "below both thresholds");
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        assert_eq!(journal.stats().fsyncs, 1, "entry threshold reached");
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        assert_eq!(journal.stats().fsyncs, 1, "window restarts after a sync");
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = scratch_dir("every-fsync");
        let journal = Journal::segmented(
            &dir,
            SegmentConfig::default().with_fsync(FsyncPolicy::EveryAppend),
        )
        .unwrap();
        journal
            .append_batch(&[JournalEntry::run(record()), JournalEntry::run(record())])
            .unwrap();
        assert_eq!(journal.stats().fsyncs, 1, "one sync per group commit");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_window_seeks_the_last_checkpoint() {
        let run = JournalEntry::run(record());
        let checkpoint = || {
            JournalEntry::checkpoint(Checkpoint {
                runs: 0,
                ledger: Ledger::new(),
                audit: AuditorState::default(),
                metrics: MetricsRegistry::new(),
            })
        };
        let entries = vec![
            run.clone(),
            checkpoint(),
            run.clone(),
            checkpoint(),
            run.clone(),
        ];
        let window = recovery_window(&entries);
        assert_eq!(window.len(), 2);
        assert_eq!(window[0].label(), "checkpoint");
        assert_eq!(window[1].label(), "run");
        // No checkpoint: the whole journal is the window.
        let plain = vec![run.clone(), run];
        assert_eq!(recovery_window(&plain).len(), 2);
    }

    #[test]
    fn chained_lines_carry_prev_links_and_reject_reordering() {
        let journal = Journal::in_memory();
        for _ in 0..3 {
            journal
                .append_batch(&[JournalEntry::run(record())])
                .unwrap();
        }
        let text = journal.text().unwrap();
        assert_eq!(
            text.matches("\"prev\":").count(),
            3,
            "every line is chained"
        );
        journal.entries().unwrap();

        // Swapping any two lines breaks the chain at the earlier slot.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2);
        let mut swapped = lines.join("\n");
        swapped.push('\n');
        match parse_journal(&swapped) {
            Err(JournalError::ChainViolation { line: 2, message }) => {
                assert!(message.contains("claims prev"), "{message}");
            }
            other => panic!("expected a chain violation at line 2, got {other:?}"),
        }
    }

    #[test]
    fn an_upper_cased_prev_on_the_last_line_is_a_chain_violation() {
        // The chain walk alone cannot see an edit to the last line's
        // payload, but its `prev` must be the one spelling of the link.
        let journal = Journal::in_memory();
        for _ in 0..3 {
            journal
                .append_batch(&[JournalEntry::run(record())])
                .unwrap();
        }
        let text = journal.text().unwrap();
        let last = text.lines().last().unwrap();
        let prev = &last[9..9 + 64];
        assert_ne!(prev, prev.to_uppercase(), "the link spells a letter");
        let shouted = text.replace(last, &last.replacen(prev, &prev.to_uppercase(), 1));
        match parse_journal(&shouted) {
            Err(JournalError::ChainViolation { line: 3, message }) => {
                assert!(message.contains("unparseable prev link"), "{message}");
            }
            other => panic!("expected a chain violation at line 3, got {other:?}"),
        }
    }

    #[test]
    fn a_clean_run_line_says_each_fact_once() {
        let record = Fleet::new(FleetConfig::new(1, 7)).run_one(&JobSpec::clean(
            0,
            TenantId(1),
            Workload::Pi,
            0.01,
        ));
        let journal = Journal::in_memory();
        journal.append_batch(&[JournalEntry::run(record)]).unwrap();
        let text = journal.text().unwrap();
        let line = text.trim_end();
        assert!(line.len() <= 1200, "{} bytes: {line}", line.len());
        assert!(line.contains("\"reference\":\"Outcome\""), "{line}");
        for field in ["measurement_pcr", "witness_digest", "victim_billed"] {
            assert_eq!(line.matches(field).count(), 1, "{field} once: {line}");
        }
    }

    #[test]
    fn a_run_line_with_decimal_byte_digests_is_corrupt() {
        // Format v3 wrote a digest as an array of 32 decimal bytes; v4
        // reads only the hex string, so such a line is corruption.
        let journal = Journal::in_memory();
        journal
            .append_batch(&[
                JournalEntry::accepted(record().job),
                JournalEntry::run(record()),
            ])
            .unwrap();
        let text = journal.text().unwrap();
        let pcr = record().outcome.measurement_pcr;
        let hex = format!("\"{}\"", pcr.to_hex());
        assert!(text.contains(&hex));
        let v3 = text.replace(&hex, &format!("{:?}", pcr.0).replace(' ', ""));
        match parse_journal(&v3) {
            Err(JournalError::Corrupt { line: 2, .. }) => {}
            other => panic!("expected corruption at line 2, got {other:?}"),
        }
    }

    #[test]
    fn sealing_rotates_out_signed_headers_that_prove_inclusion() {
        let dir = scratch_dir("seal-roundtrip");
        let config = SegmentConfig::default().with_seal(42);
        let journal = Journal::segmented(&dir, config).unwrap();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        assert!(
            journal.sealed_headers().unwrap().is_empty(),
            "head unsealed"
        );
        journal.seal().unwrap();
        assert_eq!(journal.stats().seals, 1);

        let headers = journal.sealed_headers().unwrap();
        assert_eq!(headers.len(), 1);
        assert_eq!(headers[0].entries, 1);
        assert_eq!(headers[0].version, BlockHeader::VERSION);
        assert!(headers[0].verify_seal(&SealKey::from_seed(42)));
        assert!(!headers[0].verify_seal(&SealKey::from_seed(43)));

        let proofs = journal.prove(JobId(0)).unwrap();
        assert_eq!(proofs.len(), 1);
        let entry = proofs[0].verify(&SealKey::from_seed(42)).unwrap();
        assert_eq!(entry.label(), "run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealed_reopen_continues_the_chain_where_it_left_off() {
        let dir = scratch_dir("seal-reopen");
        let config = SegmentConfig::default().with_seal(42);
        let journal = Journal::segmented(&dir, config).unwrap();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        journal.seal().unwrap();
        drop(journal);

        // The reopened handle rescans the chain head and keeps linking.
        let journal = Journal::segmented(&dir, config).unwrap();
        journal
            .append_batch(&[JournalEntry::run(record())])
            .unwrap();
        journal.seal().unwrap();
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(entries.len(), 2, "both sessions' entries chain cleanly");
        let verification = journal.verify(42).unwrap();
        assert_eq!(verification.entries, 2);
        assert_eq!(verification.seals_verified, 2);
        drop(journal);

        // Reopening over a non-empty head takes the head's range from its
        // own lines, so the sealed range covers both sessions' jobs.
        let journal = Journal::segmented(&dir, config).unwrap();
        journal.append_batch(&[accepted(3)]).unwrap();
        drop(journal);
        let journal = Journal::segmented(&dir, config).unwrap();
        journal.append_batch(&[accepted(9)]).unwrap();
        journal.seal().unwrap();
        let headers = journal.sealed_headers().unwrap();
        assert_eq!(
            headers.last().unwrap().jobs,
            Some(JobRange {
                min: JobId(3),
                max: JobId(9)
            })
        );
        let verification = journal.verify(42).unwrap();
        assert_eq!(verification.entries, 4);
        assert_eq!(verification.seals_verified, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The reference chain head of journal text: every terminated,
    /// non-blank line folded onto the chain, starting from the first one's
    /// claimed `prev` (genesis if it claims none), with no claim checked.
    fn chain_head_of(text: &str) -> ChainDigest {
        let terminated = &text[..text.rfind('\n').map_or(0, |at| at + 1)];
        let mut lines = terminated
            .split('\n')
            .filter(|line| !line.trim().is_empty())
            .peekable();
        let claimed = lines.peek().and_then(|line| {
            let chained: ChainedLine = serde_json::from_str(line).ok()?;
            Sha256::from_hex(&chained.prev)
        });
        lines.fold(claimed.unwrap_or_else(evidence::genesis), |link, line| {
            evidence::link_leaf(&link, &evidence::leaf_digest(line.as_bytes()))
        })
    }

    /// The link [`SegmentedFileSink::last_link`] took from a segment when
    /// it read the whole file: the decoded text's last terminated,
    /// non-blank line, folded on its own.
    fn whole_file_link(bytes: &[u8]) -> Option<ChainDigest> {
        let text = decode(bytes);
        let terminated = &text[..text.rfind('\n').map_or(0, |at| at + 1)];
        let last = terminated.trim_end().rfind('\n').map_or(0, |at| at + 1);
        Block::fold(&terminated[last..], false)
            .unwrap()
            .map(|block| block.head)
    }

    #[test]
    fn an_empty_head_continues_after_the_line_the_whole_file_ends_with() {
        let source = scratch_dir("tail-source");
        let journal = Journal::segmented(&source, SegmentConfig::default()).unwrap();
        let batch: Vec<JournalEntry> = (0..3).map(accepted).collect();
        journal.append_batch(&batch).unwrap();
        let honest = journal.text().unwrap();
        drop(journal);
        std::fs::remove_dir_all(&source).unwrap();
        let lines: Vec<&str> = honest.lines().collect();
        let tail = SegmentedFileSink::TAIL_BYTES as usize;
        // The last line, with whitespace inside its object that makes it
        // several tails long.
        let (prev, entry) = lines[2].split_at(lines[2].find(",\"entry\"").unwrap());
        let long = format!("{prev},{}{}", " ".repeat(3 * tail), &entry[1..]);
        // A first line of two-byte characters, one byte longer or not,
        // so that the first tail starts inside a character.
        let wide = |skew: &str| format!("{skew}{}\n{honest}", "é".repeat(tail));
        let mut invalid = wide("").into_bytes();
        invalid[1] = 0xFF;
        let near = invalid.len() - honest.len() - 3;
        invalid[near] = 0xFF;
        let mut invalid_last = honest.clone().into_bytes();
        let at = invalid_last.len() - 10;
        invalid_last[at] = 0xFF;
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("honest", honest.clone().into()),
            (
                "a last line longer than the first tail",
                format!("{}\n{}\n{long}\n", lines[0], lines[1]).into(),
            ),
            (
                "one line longer than the first tail",
                format!("{long}\n").into(),
            ),
            ("blank lines", format!("{honest}\n \n\t\n\n").into()),
            (
                "blank lines longer than the first tail",
                format!("{honest}{}", " \n".repeat(tail)).into(),
            ),
            (
                "a \\r ending the last line",
                format!("{}\r\n", honest.trim_end()).into(),
            ),
            ("a \\r after the last line", format!("{honest}\r").into()),
            ("a blank line of \\r", format!("{honest}\r\n").into()),
            ("a split character", wide("").into()),
            ("a split character, skewed", wide("x").into()),
            ("non-UTF-8 bytes earlier", invalid),
            ("a non-UTF-8 byte in the last line", invalid_last),
            ("no terminated line", lines[0].into()),
            ("blank lines only", " \n".repeat(tail).into()),
        ];
        for (case, bytes) in &cases {
            let dir = scratch_dir("tail");
            std::fs::create_dir_all(&dir).unwrap();
            // An earlier segment, for a newest one that ends no line.
            std::fs::write(dir.join(SegmentedFileSink::segment_name(1)), &honest).unwrap();
            std::fs::write(dir.join(SegmentedFileSink::segment_name(2)), bytes).unwrap();
            std::fs::write(dir.join(SegmentedFileSink::segment_name(3)), "").unwrap();
            let expected = whole_file_link(bytes)
                .or_else(|| whole_file_link(honest.as_bytes()))
                .unwrap();
            let sink = SegmentedFileSink::open(&dir, SegmentConfig::default()).unwrap();
            assert_eq!(sink.chain_head(), expected, "{case}");
            drop(sink);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Reopens `dir` and checks that the chain head the journal adopts
    /// is the one the fold over its text gives.
    fn reopened_head(dir: &Path, config: SegmentConfig) -> ChainDigest {
        let journal = Journal::segmented(dir, config).unwrap();
        let head = journal.lock().link;
        assert_eq!(head, chain_head_of(&journal.text().unwrap()), "{dir:?}");
        head
    }

    #[test]
    fn reopen_adopts_the_head_the_fold_over_the_text_gives() {
        let dir = scratch_dir("reopen-head");
        let config = SegmentConfig::default()
            .with_segment_bytes(512)
            .with_seal(42);
        // Tiny segments: several sealed segments and a non-empty head.
        let journal = Journal::segmented(&dir, config).unwrap();
        for id in 0..7 {
            journal.append_batch(&[accepted(id)]).unwrap();
        }
        let live = journal.lock().link;
        drop(journal);
        assert_eq!(reopened_head(&dir, config), live);
        // Reopened over that non-empty head, and appended to again.
        let journal = Journal::segmented(&dir, config).unwrap();
        journal.append_batch(&[accepted(7)]).unwrap();
        let live = journal.lock().link;
        drop(journal);
        assert_eq!(reopened_head(&dir, config), live);
        // A retired directory starts at its leading checkpoint.
        let journal = Journal::segmented(&dir, config).unwrap();
        journal
            .append_batch(&[JournalEntry::checkpoint(Checkpoint::default())])
            .unwrap();
        journal.append_batch(&[accepted(8)]).unwrap();
        assert!(journal.stats().segments_retired > 0);
        let live = journal.lock().link;
        drop(journal);
        assert_eq!(reopened_head(&dir, config), live);
        // A failover sink is anchored at the inherited head; its own
        // directory starts with a checkpoint claiming that head.
        let journal = Journal::segmented(&dir, config).unwrap();
        let standby = scratch_dir("reopen-head-standby");
        journal.fail_over(Box::new(SegmentedFileSink::open(&standby, config).unwrap()));
        journal
            .append_batch(&[JournalEntry::checkpoint(Checkpoint::default())])
            .unwrap();
        journal.append_batch(&[accepted(9)]).unwrap();
        let live = journal.lock().link;
        drop(journal);
        assert_eq!(reopened_head(&standby, config), live);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&standby).unwrap();
    }

    fn accepted(id: u64) -> JournalEntry {
        JournalEntry::accepted(JobSpec::clean(id, TenantId(1), Workload::LoopO, 0.001))
    }

    /// A few lines per segment, sealed under seed 42.
    fn tiny_sealed() -> SegmentConfig {
        SegmentConfig::default()
            .with_segment_bytes(512)
            .with_seal(42)
    }

    /// A sealed journal of `jobs` Accepted lines, a few per segment, with
    /// every segment sealed.
    fn sealed_accepted(dir: &Path, jobs: u64) -> Journal {
        let journal = Journal::segmented(dir, tiny_sealed()).unwrap();
        for id in 0..jobs {
            journal.append_batch(&[accepted(id)]).unwrap();
        }
        journal.seal().unwrap();
        journal
    }

    #[test]
    fn reopen_continues_after_the_newest_line_past_a_damaged_sealed_segment() {
        let dir = scratch_dir("reopen-newest-line");
        let journal = sealed_accepted(&dir, 12);
        let header = journal.sealed_headers().unwrap().pop().unwrap();
        let newest = header.segment;
        assert!(newest > 2, "several sealed segments");
        let signed = Sha256::from_hex(&header.chain_head).unwrap();
        assert_eq!(journal.lock().link, signed);
        drop(journal);

        // Overwrite one byte of segment 2's first line: a hex digit of its
        // `prev` link.
        let path = dir.join(SegmentedFileSink::segment_name(2));
        let honest = std::fs::read(&path).unwrap();
        let mut damaged = honest.clone();
        let at = br#"{"prev":""#.len();
        damaged[at] = if damaged[at] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, &damaged).unwrap();

        // The head is empty, so reopen continues after the newest sealed
        // segment's last line, which gives the signed head without reading
        // the damaged segment; the fold over the damaged text would give
        // another.
        let journal = Journal::segmented(&dir, tiny_sealed()).unwrap();
        let text = journal.text().unwrap();
        assert_eq!(journal.lock().link, signed);
        assert_ne!(chain_head_of(&text), signed);
        // Detection stays with the walk, at the damaged line.
        let first = std::fs::read_to_string(dir.join(SegmentedFileSink::segment_name(1))).unwrap();
        let line = first.lines().count() + 1;
        let expected = parse_journal(&text).unwrap_err();
        match &expected {
            JournalError::ChainViolation { line: at, message } => {
                assert_eq!(*at, line);
                assert!(message.contains("claims prev"), "{message}");
            }
            other => panic!("expected a chain violation at line {line}, got {other:?}"),
        }
        assert_eq!(journal.entries().unwrap_err(), expected);
        assert_eq!(journal.verify(42).unwrap_err(), expected);

        // The next entry chains onto the signed head, so once the byte is
        // restored the whole directory verifies.
        journal.append_batch(&[accepted(12)]).unwrap();
        std::fs::write(&path, &honest).unwrap();
        let verification = journal.verify(42).unwrap();
        assert_eq!(verification.entries, 13);
        assert_eq!(verification.seals_verified, newest);
        journal.seal().unwrap();
        assert_eq!(journal.verify(42).unwrap().seals_verified, newest + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_reads_no_sidecar_when_the_newest_seal_does_not_verify() {
        for case in ["forged", "missing", "v3"] {
            let dir = scratch_dir(&format!("reopen-no-sidecar-{case}"));
            let journal = sealed_accepted(&dir, 12);
            journal.append_batch(&[accepted(12)]).unwrap();
            let live = journal.lock().link;
            let header = journal.sealed_headers().unwrap().pop().unwrap();
            let segment = header.segment;
            drop(journal);
            let sidecar = dir.join(SegmentedFileSink::seal_name(segment));
            let write = |header: &BlockHeader| {
                std::fs::write(&sidecar, serde_json::to_string(header).unwrap()).unwrap();
            };
            let expected = match case {
                "forged" => {
                    // Another head, signed under a key that is not the
                    // fleet's.
                    let mut forged = header.clone();
                    forged.chain_head = Sha256::to_hex(&evidence::genesis());
                    forged.sign(&SealKey::from_seed(43));
                    write(&forged);
                    JournalError::SealViolation {
                        segment,
                        message: "segment's trailing chain bound disagrees with its sealed header"
                            .to_string(),
                    }
                }
                "missing" => {
                    std::fs::remove_file(&sidecar).unwrap();
                    JournalError::SealViolation {
                        segment,
                        message: "non-head segment has no sealed block header".to_string(),
                    }
                }
                _ => {
                    let mut v3 = BlockHeader {
                        version: 3,
                        ..header.clone()
                    };
                    v3.sign(&SealKey::from_seed(42));
                    write(&v3);
                    JournalError::UnsupportedHeader {
                        segment,
                        version: 3,
                    }
                }
            };
            // Open reads no sidecar: the fold over the head segment gives
            // the honest head, and the tampered header is left for verify.
            let journal = Journal::segmented(&dir, tiny_sealed()).unwrap();
            assert_eq!(journal.lock().link, live, "{case}");
            let error = journal.verify(42).unwrap_err();
            assert_eq!(error, expected, "{case}");
            if case == "v3" {
                assert!(error.to_string().contains("version 3"), "{error}");
            }
            journal.append_batch(&[accepted(13)]).unwrap();
            let (entries, tail) = journal.entries().unwrap();
            assert_eq!((entries.len(), tail), (14, TailStatus::Clean), "{case}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn an_unsealed_reopen_reads_only_its_head() {
        let dir = scratch_dir("unsealed-reopen-head");
        let journal = tiny_segments(&dir);
        for id in 0..20 {
            journal.append_batch(&[accepted(id)]).unwrap();
        }
        assert!(journal.stats().rotations > 1);
        let live = journal.lock().link;
        drop(journal);

        // Overwrite one hex digit of segment 1's first `prev`, the claim a
        // fold over every segment would start from.
        let path = dir.join(SegmentedFileSink::segment_name(1));
        let honest = std::fs::read(&path).unwrap();
        let mut damaged = honest.clone();
        let at = br#"{"prev":""#.len();
        damaged[at] = if damaged[at] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, &damaged).unwrap();

        // Reopen reads only the head, so it adopts the head of honest
        // history, and the next entry chains onto it: once the byte is
        // restored the whole directory verifies.
        let journal = tiny_segments(&dir);
        assert_eq!(journal.lock().link, live);
        journal.append_batch(&[accepted(20)]).unwrap();
        std::fs::write(&path, &honest).unwrap();
        assert_eq!(journal.verify(42).unwrap().entries, 21);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_byte_that_is_not_utf8_is_located_like_any_other_damage() {
        let dir = scratch_dir("not-utf8");
        let journal = sealed_accepted(&dir, 12);
        // Byte 40 of segment 2 is a hex digit of its first line's `prev`.
        let path = dir.join(SegmentedFileSink::segment_name(2));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let expected = JournalError::ChainViolation {
            line: 4,
            message: "accepted entry for job-3 carries an unparseable prev link".to_string(),
        };
        assert_eq!(
            parse_journal(&journal.text().unwrap()),
            Err(expected.clone())
        );
        assert_eq!(journal.entries(), Err(expected.clone()));
        assert_eq!(journal.verify(42), Err(expected));
        // The segment's leaves are no longer the sealed ones, so no proof
        // from it verifies.
        let key = SealKey::from_seed(42);
        for id in 3..6 {
            let proofs = journal.prove(JobId(id)).unwrap();
            assert_eq!(proofs.len(), 1, "job {id}");
            assert!(proofs[0].verify(&key).is_err(), "job {id}");
        }
        // In a sidecar, such a byte makes the header unparseable.
        let sidecar = dir.join(SegmentedFileSink::seal_name(3));
        let mut bytes = std::fs::read(&sidecar).unwrap();
        bytes[0] = 0xFF;
        std::fs::write(&sidecar, &bytes).unwrap();
        match journal.sealed_headers() {
            Err(JournalError::SealViolation {
                segment: 3,
                message,
            }) => assert!(
                message.starts_with("unparseable block header: "),
                "{message}"
            ),
            other => panic!("expected a seal violation at segment 3, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unsealed_journal_verifies_its_chain_and_proves_nothing_once_it_rotates() {
        // Without a seal no segment has a sidecar, and none is demanded:
        // verify is the chain walk alone, and prove has nothing to prove.
        let dir = scratch_dir("unsealed-rotated");
        let journal = tiny_segments(&dir);
        for id in 0..20 {
            journal.append_batch(&[accepted(id)]).unwrap();
        }
        assert!(journal.stats().rotations > 1);
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!((entries.len(), tail), (20, TailStatus::Clean));
        let verification = journal.verify(42).unwrap();
        assert_eq!(verification.entries, 20);
        assert_eq!(verification.seals_verified, 0);
        assert_eq!(journal.prove(JobId(3)).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prove_refuses_a_non_head_segment_without_its_seal() {
        let dir = scratch_dir("seal-missing");
        let journal = sealed_accepted(&dir, 12);
        let last = JobId(11);
        assert!(journal.sealed_headers().unwrap().len() > 2);
        assert!(!journal.prove(last).unwrap().is_empty());
        // Without segment 1's sidecar, nothing vouches for its lines: a
        // proof must not settle from the segments that are left.
        std::fs::remove_file(dir.join(SegmentedFileSink::seal_name(1))).unwrap();
        let verify = journal.verify(42).unwrap_err();
        assert!(
            matches!(verify, JournalError::SealViolation { segment: 1, .. }),
            "{verify:?}"
        );
        assert_eq!(journal.prove(last).unwrap_err(), verify);
        assert_eq!(journal.prove(JobId(0)).unwrap_err(), verify);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prove_reads_only_the_segments_whose_sealed_range_holds_the_job() {
        let dir = scratch_dir("seal-ranges");
        // With 120 ids, every id's digits also occur in larger ids (1 in
        // 10–19 and 111), in `prev` digests and in the scale's float.
        let journal = sealed_accepted(&dir, 120);
        let headers = journal.sealed_headers().unwrap();
        // The reference: every line of every sealed segment, parsed, as
        // (segment, index, line) triples per job.
        let mut named: HashMap<JobId, Vec<(u64, u64, String)>> = HashMap::new();
        for header in &headers {
            let path = dir.join(SegmentedFileSink::segment_name(header.segment));
            let text = std::fs::read_to_string(path).unwrap();
            for (at, line) in text.lines().enumerate() {
                let chained: ChainedLine = serde_json::from_str(line).unwrap();
                let job = chained.entry.job().unwrap();
                let proof = (header.segment, at as u64, line.to_string());
                named.entry(job).or_default().push(proof);
            }
        }
        let key = SealKey::from_seed(42);
        for id in 0..120 {
            let proofs = journal.prove(JobId(id)).unwrap();
            assert_eq!(proofs.len(), 1, "job {id}: one Accepted line");
            let proved: Vec<(u64, u64, String)> = proofs
                .iter()
                .map(|p| (p.header.segment, p.index, p.line.clone()))
                .collect();
            assert_eq!(named.get(&JobId(id)), Some(&proved), "job {id}");
            assert_eq!(proofs[0].verify(&key).unwrap(), accepted(id));
            let holding: Vec<u64> = headers
                .iter()
                .filter(|h| h.jobs.unwrap().contains(JobId(id)))
                .map(|h| h.segment)
                .collect();
            assert_eq!(holding, vec![proofs[0].header.segment], "job {id}");
        }
        // An id outside every range reads no segment.
        assert!(journal.prove(JobId(120)).unwrap().is_empty());
        // A decimal token must be whole: 1 occurs inside 11 and 10 but
        // names neither.
        assert!(names_token(r#"{"id":1,"x":0.5}"#, "1"));
        assert!(!names_token(r#"{"id":11,"x":10}"#, "1"));
        assert!(names_token(r#"{"id":11}"#, "11"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_proof_verifies_only_at_its_own_index() {
        let dir = scratch_dir("seal-index");
        let config = SegmentConfig::default().with_seal(42);
        let journal = Journal::segmented(&dir, config).unwrap();
        let batch: Vec<JournalEntry> = (0..10).map(accepted).collect();
        journal.append_batch(&batch).unwrap();
        journal.seal().unwrap();
        let mut proofs = journal.prove(JobId(5)).unwrap();
        assert_eq!(proofs.len(), 1);
        let mut proof = proofs.remove(0);
        assert_eq!(
            (proof.header.entries, proof.index, proof.path.len()),
            (10, 5, 4)
        );
        let key = SealKey::from_seed(42);
        assert_eq!(proof.verify(&key).unwrap(), accepted(5));
        // The line and path are genuine, but a proof that claims another
        // position would misstate which entry the segment holds there.
        for index in (0..10).filter(|&index| index != 5) {
            proof.index = index;
            assert_eq!(
                proof.verify(&key).unwrap_err(),
                evidence::ProofError::RootMismatch { segment: 1, index },
                "index {index}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_resigned_narrowed_range_is_a_seal_violation() {
        let dir = scratch_dir("seal-narrowed");
        let journal = sealed_accepted(&dir, 12);
        let sidecar = dir.join(SegmentedFileSink::seal_name(2));
        let mut header: BlockHeader =
            serde_json::from_str(&std::fs::read_to_string(&sidecar).unwrap()).unwrap();
        let range = header.jobs.unwrap();
        assert!(range.min < range.max, "segment 2 holds several jobs");
        // The signer narrows the range to hide the segment's first job from
        // `prove`: the seal is valid, the range is not.
        header.jobs = Some(JobRange {
            min: JobId(range.min.0 + 1),
            ..range
        });
        header.sign(&SealKey::from_seed(42));
        std::fs::write(&sidecar, serde_json::to_string(&header).unwrap()).unwrap();
        assert!(journal.prove(range.min).unwrap().is_empty(), "hidden");
        match journal.verify(42) {
            Err(JournalError::SealViolation {
                segment: 2,
                message,
            }) => {
                assert!(message.contains("job range"), "{message}");
            }
            other => panic!("expected a seal violation at segment 2, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_sealed_segment_cannot_end_in_a_torn_line() {
        let dir = scratch_dir("seal-torn-end");
        let journal = sealed_accepted(&dir, 12);
        let last = journal.sealed_headers().unwrap().last().unwrap().segment;
        let path = dir.join(SegmentedFileSink::segment_name(last));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        // The chain walk takes the unterminated line for a crash artifact,
        // but the sealed segment it sits in cannot be torn.
        assert!(journal.entries().unwrap().1.is_truncated());
        match journal.verify(42) {
            Err(JournalError::SealViolation { segment, message }) => {
                assert_eq!(segment, last);
                assert!(message.contains("unterminated"), "{message}");
            }
            other => panic!("expected a seal violation at segment {last}, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_carriage_return_is_part_of_a_sealed_line() {
        let dir = scratch_dir("seal-carriage-return");
        let journal = sealed_accepted(&dir, 12);
        let last = journal.sealed_headers().unwrap().last().unwrap().segment;
        let path = dir.join(SegmentedFileSink::segment_name(last));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{}\r\n", text.trim_end_matches('\n'))).unwrap();
        // The line still parses and nothing chains after it, but its bytes
        // are not the sealed ones.
        assert!(journal.entries().is_ok());
        match journal.verify(42) {
            Err(JournalError::SealViolation { segment, .. }) => assert_eq!(segment, last),
            other => panic!("expected a seal violation at segment {last}, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unsigned_range_edit_fails_the_seal() {
        let dir = scratch_dir("seal-range-forged");
        let journal = sealed_accepted(&dir, 12);
        let sidecar = dir.join(SegmentedFileSink::seal_name(2));
        let mut header: BlockHeader =
            serde_json::from_str(&std::fs::read_to_string(&sidecar).unwrap()).unwrap();
        let range = header.jobs.unwrap();
        let mut proof = journal.prove(range.max).unwrap().remove(0);
        assert_eq!(proof.header, header);
        header.jobs = Some(JobRange {
            max: JobId(range.max.0 + 100),
            ..range
        });
        std::fs::write(&sidecar, serde_json::to_string(&header).unwrap()).unwrap();
        match journal.verify(42) {
            Err(JournalError::SealViolation {
                segment: 2,
                message,
            }) => {
                assert!(message.contains("seal does not verify"), "{message}");
            }
            other => panic!("expected a seal violation at segment 2, got {other:?}"),
        }
        proof.header = header;
        assert_eq!(
            proof.verify(&SealKey::from_seed(42)).unwrap_err(),
            evidence::ProofError::SealForged { segment: 2 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_commit_leaves_the_segment_and_its_seal_state_as_they_were() {
        // Five chained Accepted lines, framed as the journal frames them.
        let mut text = String::new();
        let mut lines = Vec::new();
        let mut link = evidence::genesis();
        for id in 0..5 {
            let start = text.len();
            frame_entry(&mut text, &link, &accepted(id)).unwrap();
            let leaf = evidence::leaf_digest(&text.as_bytes()[start..]);
            text.push('\n');
            let prev = link;
            link = evidence::link_leaf(&prev, &leaf);
            let (end, job) = (text.len(), Some(JobId(id)));
            lines.push(Framed {
                end,
                leaf,
                prev,
                link,
                job,
            });
        }
        let at = lines[1].end;
        let dir = scratch_dir("failed-commit");
        let mut sink =
            SegmentedFileSink::open(&dir, SegmentConfig::default().with_seal(7)).unwrap();
        sink.append_lines(&text[..at], &lines[..2]).unwrap();
        let segment_path = dir.join(SegmentedFileSink::segment_name(1));

        // The next commit's write finds the disk full.
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        let segment = std::mem::replace(&mut sink.file, full);
        assert!(sink.append_lines(&text[at..], &lines[2..]).is_err());
        assert_eq!(std::fs::read_to_string(&segment_path).unwrap(), text[..at]);
        assert_eq!(
            sink.block.leaves.len(),
            2,
            "nothing of the failed batch is sealed"
        );
        assert_eq!(sink.block.head, lines[1].link);

        // The journal retries the same batch, which lands once.
        sink.file = segment;
        sink.append_lines(&text[at..], &lines[2..]).unwrap();
        sink.seal_head().unwrap();
        let verified = sink.verify(&SealKey::from_seed(7)).unwrap();
        assert_eq!(verified.entries, 5);
        assert_eq!(verified.seals_verified, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
