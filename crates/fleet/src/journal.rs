//! The durable journal: write-ahead persistence, crash recovery and
//! compaction for the fleet.
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
//!   metrics as of some run count, produced by [`compact`] or inline by a
//!   [`CheckpointCadence`] so long-running fleets do not replay from
//!   genesis.
//! * **`Poisoned`** — a [`PoisonNotice`]: the verdict for a job the
//!   supervisor retired, journaled where its `Run` would have been.
//!
//! A truncated tail — the partial, newline-less last line a crash
//! mid-append leaves behind — is detected at parse time and dropped
//! ([`TailStatus`]), and [`SegmentedFileSink::open`] repairs it before
//! appending so a restarted process never merges new entries into the
//! torn fragment. Any unparseable line that *is* newline-terminated was fully
//! written and later damaged, so it is an error ([`JournalError::Corrupt`]),
//! wherever it sits.
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
//! [`BlockHeader`] sidecar — Merkle root over the segment's lines, chain
//! bounds, the checkpoint metric-family exclusion list, HMAC under the
//! fleet seed's [`SealKey`] — and can hand out per-entry
//! [`InclusionProof`]s ([`Journal::prove`]) that verify against the seal
//! key alone, no replay required (the substrate of
//! [`crate::FleetService::dispute`]).
//!
//! ## The group-commit write path
//!
//! The write-ahead point must be cheap enough to run always-on, so the
//! journal batches. [`Journal::append_batch`] is its one write method:
//! producers hand it *groups* of entries — a submitted slice's
//! `Accepted` specs, the ingest pipeline's whole ready prefix of `Run`s,
//! a pump's Invoice/Verdict receipts — which are serialized back to back
//! into one reused buffer (via the vendored `serde_json`'s
//! buffer-reusing [`serde_json::Serializer`]) and committed with a
//! single [`JournalSink::append_lines`] call: one write, one flush/fsync
//! decision.
//!
//! [`SegmentedFileSink`] is the file sink: `BufWriter`-backed segment
//! files rotated at a size threshold ([`SegmentConfig`]), an
//! [`FsyncPolicy`] (never / every append / group commit), and retirement
//! of segments older than the latest [`JournalEntry::Checkpoint`] —
//! written automatically by a [`CheckpointCadence`]-configured service —
//! so the journal's disk footprint and recovery cost are both bounded.
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

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::auditor::{AuditVerdict, AuditorState};
use crate::evidence::{self, BlockHeader, ChainDigest, ChainedLine, InclusionProof, SealKey};
use crate::executor::{JobId, JobSpec, RunRecord};
use crate::metrics::MetricsRegistry;
use crate::tenant::{Ledger, TenantId};
use crate::FleetService;
use trustmeter_core::Invoice;

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
    /// A folded journal prefix (see [`compact`]).
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
    /// The full metrics registry after those runs (the exposition is part
    /// of the recovery contract).
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

/// Append/byte counters for one [`Journal`] handle (monotonic; `appends`,
/// `bytes` and `group_commits` count work through this handle since it
/// was opened, not entries already in a reopened file; the rotation /
/// fsync / retirement counters come from the sink and cover the sink's
/// lifetime).
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
    /// Merkle root over the segment's lines, the hash-chain bounds, the
    /// checkpoint metric-family exclusion list, all HMAC-signed under
    /// [`SealKey::from_seed`]. `None` keeps PR-5 behaviour (no sidecars).
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
/// [`JournalEntry::Checkpoint`] entries, bounding recovery cost without
/// an offline [`compact`] pass.
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
    /// Never checkpoint automatically (compaction stays caller-driven).
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

/// Where journal lines go. Implementations must make an appended line
/// durable before returning: the pipeline releases a record to consumers
/// only after its `Run` entry has been accepted.
pub trait JournalSink: Send {
    /// Group commit: appends every serialized entry (no line carries a
    /// newline; the sink writes each as its own newline-terminated line)
    /// and makes the whole batch durable together — ideally one buffered
    /// write and one flush/fsync decision.
    fn append_lines(&mut self, lines: &[&str]) -> Result<(), JournalError>;

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

    /// Re-anchors the sink's internal evidence chain at `head`. Only
    /// meaningful on a **fresh, empty** sink about to receive the
    /// continuation of an existing chain — [`Journal::fail_over`] calls
    /// this so a sealing [`SegmentedFileSink`]'s first sealed header
    /// carries chain bounds consistent with the first committed line's
    /// `prev` claim. Default: no-op (sinks without internal chain state
    /// have nothing to anchor).
    fn anchor_chain(&mut self, head: ChainDigest) {
        let _ = head;
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
    /// journal into service state. Default: none (unsealed sinks cannot
    /// prove inclusion).
    fn prove(&self, job: JobId) -> Result<Vec<InclusionProof>, JournalError> {
        let _ = job;
        Ok(Vec::new())
    }

    /// Re-verifies every sealed live segment against its block header
    /// (Merkle root, chain bounds, entry count, HMAC seal under `key`)
    /// and returns how many seals were checked. Default: zero.
    fn verify_seals(&self, key: &SealKey) -> Result<u64, JournalError> {
        let _ = key;
        Ok(0)
    }

    /// The full journal text, including entries written before this sink
    /// was opened (file sinks re-read the file; segmented sinks
    /// concatenate their live segments oldest-first).
    fn contents(&self) -> Result<String, JournalError>;
}

/// An in-memory sink: the journal of record for tests and for services
/// that only need replayability within one process.
#[derive(Debug, Default)]
pub struct MemorySink {
    buffer: String,
}

impl MemorySink {
    /// An empty in-memory journal.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }
}

impl JournalSink for MemorySink {
    fn append_lines(&mut self, lines: &[&str]) -> Result<(), JournalError> {
        for line in lines {
            self.buffer.push_str(line);
            self.buffer.push('\n');
        }
        Ok(())
    }

    fn append_torn(&mut self, fragment: &str) -> Result<(), JournalError> {
        self.buffer.push_str(fragment);
        Ok(())
    }

    fn contents(&self) -> Result<String, JournalError> {
        Ok(self.buffer.clone())
    }
}

/// Opens (creating if absent) a journal file in append mode and repairs a
/// torn tail (see [`repair_torn_tail`]).
fn open_repaired(path: &Path) -> Result<File, JournalError> {
    let file = OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    repair_torn_tail(&file)?;
    Ok(file)
}

/// Truncates a non-newline-terminated tail (O_APPEND writes then land
/// at the new end of file). Scans backwards in bounded chunks, so
/// reopening a large journal costs only the torn-tail length, not the
/// file size.
fn repair_torn_tail(file: &File) -> Result<(), JournalError> {
    use std::io::{Seek as _, SeekFrom};
    const CHUNK: u64 = 64 * 1024;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let mut reader = file;
    let mut last = [0u8; 1];
    reader.seek(SeekFrom::Start(len - 1))?;
    reader.read_exact(&mut last)?;
    if last[0] == b'\n' {
        return Ok(());
    }
    let mut end = len;
    let keep = loop {
        if end == 0 {
            break 0; // no newline at all: the whole file is one torn line
        }
        let start = end.saturating_sub(CHUNK);
        let mut buf = vec![0u8; (end - start) as usize];
        reader.seek(SeekFrom::Start(start))?;
        reader.read_exact(&mut buf)?;
        if let Some(at) = buf.iter().rposition(|b| *b == b'\n') {
            break start + at as u64 + 1;
        }
        end = start;
    };
    file.set_len(keep)?;
    Ok(())
}

/// The file sink: `BufWriter`-backed segment files
/// (`segment-00000001.jsonl`, `segment-00000002.jsonl`, …) in one
/// directory, rotated at [`SegmentConfig::segment_bytes`], fsynced per
/// [`FsyncPolicy`], and retired (deleted) once a
/// [`JournalEntry::Checkpoint`] supersedes them.
///
/// Invariants the recovery path relies on:
///
/// * every commit ends with a flush, so a *process* crash can only tear
///   the final, unterminated line of the **last** segment — earlier
///   segments are sealed and must parse cleanly ([`Self::contents`]
///   concatenates the live segments, so a torn tail anywhere else
///   surfaces as [`JournalError::Corrupt`]);
/// * a checkpoint always leads its segment ([`Self::begin_checkpoint`]
///   rotates first), and retirement deletes only segments *before* the
///   checkpoint's — after the checkpoint batch is fsynced — so the live
///   directory always replays from a leading checkpoint.
#[derive(Debug)]
pub struct SegmentedFileSink {
    dir: PathBuf,
    config: SegmentConfig,
    writer: BufWriter<File>,
    /// Index of the segment currently appended to (== `live.last()`).
    current_index: u64,
    /// Bytes committed to the current segment.
    current_len: u64,
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
    /// Chain head over every committed line (maintained only when
    /// sealing).
    chain: ChainDigest,
    /// Chain head as of the current segment's first line — the sealed
    /// header's `chain_prev` bound.
    segment_chain_prev: ChainDigest,
    /// Merkle leaf digests of the current segment's lines.
    leaves: Vec<ChainDigest>,
}

impl SegmentedFileSink {
    const PREFIX: &'static str = "segment-";
    const SUFFIX: &'static str = ".jsonl";
    const SEAL_SUFFIX: &'static str = ".seal";

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
    /// journal — and the *last* segment's torn tail, if any, is truncated
    /// away (the same tail [`parse_journal`] would drop), so the next
    /// entry never merges into the torn fragment. A torn tail in an
    /// earlier segment is never repaired: sealed segments cannot legally
    /// be torn, so that damage must surface as corruption, not be papered
    /// over.
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
        let file = open_repaired(&dir.join(Self::segment_name(current_index)))?;
        let current_len = file.metadata()?.len();
        let mut sink = SegmentedFileSink {
            dir,
            config,
            writer: BufWriter::new(file),
            current_index,
            current_len,
            live,
            in_checkpoint: false,
            unsynced_entries: 0,
            unsynced_bytes: 0,
            stats: SinkStats::default(),
            seal_key: config.seal.map(SealKey::from_seed),
            chain: evidence::genesis(),
            segment_chain_prev: evidence::genesis(),
            leaves: Vec::new(),
        };
        if sink.seal_key.is_some() {
            sink.rescan_chain()?;
        }
        Ok(sink)
    }

    /// Rebuilds the chain head, the current segment's leaf set and its
    /// leading chain bound from the live segments — reopening a sealed
    /// journal continues its chain, it never restarts one. The scan is
    /// *tolerant* (the first line's claimed `prev` is adopted as the
    /// anchor, later claims are not checked): detection belongs to
    /// [`parse_journal`] and [`JournalSink::verify_seals`], not to open,
    /// so a tampered journal can still be opened and inspected.
    fn rescan_chain(&mut self) -> Result<(), JournalError> {
        let mut chain = evidence::genesis();
        let mut anchored = false;
        let mut segment_chain_prev = chain;
        let mut leaves = Vec::new();
        let live = self.live.clone();
        for index in live {
            segment_chain_prev = chain;
            leaves.clear();
            let text = std::fs::read_to_string(self.dir.join(Self::segment_name(index)))?;
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                if !anchored {
                    anchored = true;
                    if let Ok(chained) = serde_json::from_str::<ChainedLine>(line) {
                        if let Some(claimed) = evidence::decode_hex(&chained.prev) {
                            chain = claimed;
                            segment_chain_prev = chain;
                        }
                    }
                }
                let leaf = evidence::leaf_digest(line.as_bytes());
                chain = evidence::link_leaf(&chain, &leaf);
                leaves.push(leaf);
            }
        }
        self.chain = chain;
        self.segment_chain_prev = segment_chain_prev;
        self.leaves = leaves;
        Ok(())
    }

    /// Reads segment `index`'s sealed block header; `None` if the segment
    /// was never sealed (the in-progress head, or a pre-sealing journal).
    fn read_header(&self, index: u64) -> Result<Option<BlockHeader>, JournalError> {
        let path = self.dir.join(Self::seal_name(index));
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let header: BlockHeader =
            serde_json::from_str(&text).map_err(|e| JournalError::SealViolation {
                segment: index,
                message: format!("unparseable block header: {e}"),
            })?;
        Ok(Some(header))
    }

    /// Writes the signed block header for the (just-flushed) current
    /// segment when sealing is enabled, and re-bases the per-segment
    /// chain state for the successor segment.
    fn seal_current(&mut self) -> Result<(), JournalError> {
        let Some(key) = &self.seal_key else {
            return Ok(());
        };
        let mut header = BlockHeader {
            version: BlockHeader::VERSION,
            segment: self.current_index,
            entries: self.leaves.len() as u64,
            chain_prev: evidence::encode_hex(&self.segment_chain_prev),
            chain_head: evidence::encode_hex(&self.chain),
            merkle_root: evidence::encode_hex(&evidence::merkle_root(&self.leaves)),
            excluded_families: excluded_metric_families(),
            seal: String::new(),
        };
        header.sign(key);
        let text = serde_json::to_string(&header)
            .map_err(|e| JournalError::Io(format!("serialize block header: {e}")))?;
        let mut file = File::create(self.dir.join(Self::seal_name(self.current_index)))?;
        file.write_all(text.as_bytes())?;
        if !matches!(self.config.fsync, FsyncPolicy::Never) {
            file.sync_data()?;
        }
        self.stats.seals += 1;
        self.segment_chain_prev = self.chain;
        self.leaves.clear();
        Ok(())
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Paths of the live segments, oldest first (the last one is being
    /// appended to).
    pub fn segments(&self) -> Vec<PathBuf> {
        self.live
            .iter()
            .map(|index| self.dir.join(Self::segment_name(*index)))
            .collect()
    }

    /// Syncs the current segment to the platter and resets the unsynced
    /// backlog. Uses `fdatasync` (`sync_data`): file *data* plus the
    /// metadata needed to read it back (size) — the standard WAL sync,
    /// materially cheaper than `fsync`'s full-metadata flush.
    fn fsync(&mut self) -> Result<(), JournalError> {
        self.writer.get_ref().sync_data()?;
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

    /// Writes `lines` into the current segment, flushes to the OS (the
    /// commit point), then applies the fsync policy and rotates if the
    /// segment is over budget.
    fn commit(&mut self, lines: &[&str]) -> Result<(), JournalError> {
        let mut bytes = 0u64;
        for line in lines {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            bytes += line.len() as u64 + 1;
            if self.seal_key.is_some() {
                // One hash per line: the leaf feeds both the Merkle tree
                // and the chain fold.
                let leaf = evidence::leaf_digest(line.as_bytes());
                self.chain = evidence::link_leaf(&self.chain, &leaf);
                self.leaves.push(leaf);
            }
        }
        // Flushed before the caller releases anything: a process crash
        // after return never loses a committed entry, and a crash during
        // the flush leaves at most complete lines plus one torn,
        // unterminated tail (writes land sequentially).
        self.writer.flush()?;
        self.current_len += bytes;
        self.unsynced_entries += lines.len() as u64;
        self.unsynced_bytes += bytes;
        match self.config.fsync {
            FsyncPolicy::Never => {}
            FsyncPolicy::EveryAppend => self.fsync()?,
            FsyncPolicy::GroupCommit {
                max_entries,
                max_bytes,
            } => {
                if self.unsynced_entries >= max_entries || self.unsynced_bytes >= max_bytes {
                    self.fsync()?;
                }
            }
        }
        // A checkpoint line larger than the segment budget must not
        // rotate mid-bracket: retirement uses its segment as the horizon.
        // The next ordinary commit rotates instead.
        if self.current_len >= self.config.segment_bytes && !self.in_checkpoint {
            self.rotate()?;
        }
        Ok(())
    }

    /// Seals the current segment and starts the next one.
    fn rotate(&mut self) -> Result<(), JournalError> {
        self.writer.flush()?;
        // Seal the finished segment to the platter unless the policy
        // never syncs: a sealed segment is the one place a torn tail is
        // *illegal*, so don't leave it hostage to the page cache.
        if !matches!(self.config.fsync, FsyncPolicy::Never) && self.unsynced_bytes > 0 {
            self.fsync()?;
        }
        // The finished segment is complete and flushed: sign its block
        // header before anything can be appended elsewhere.
        self.seal_current()?;
        self.current_index += 1;
        let file = open_repaired(&self.dir.join(Self::segment_name(self.current_index)))?;
        self.writer = BufWriter::new(file);
        self.current_len = 0;
        self.live.push(self.current_index);
        self.stats.rotations += 1;
        // Make the new segment's directory entry durable too, or records
        // synced into it could vanish with the file on power loss.
        if !matches!(self.config.fsync, FsyncPolicy::Never) {
            self.sync_dir()?;
        }
        Ok(())
    }
}

impl JournalSink for SegmentedFileSink {
    fn append_lines(&mut self, lines: &[&str]) -> Result<(), JournalError> {
        if lines.is_empty() {
            return Ok(());
        }
        self.commit(lines)
    }

    fn append_torn(&mut self, fragment: &str) -> Result<(), JournalError> {
        // A torn fragment is *not* committed evidence: it counts toward
        // the segment length (those bytes are on disk) but never joins
        // the chain fold or the Merkle leaves — exactly as a real crash
        // artifact would be dropped by the parse and repaired on reopen.
        self.writer.write_all(fragment.as_bytes())?;
        self.writer.flush()?;
        self.current_len += fragment.len() as u64;
        Ok(())
    }

    fn anchor_chain(&mut self, head: ChainDigest) {
        // Only sound on an empty sink (nothing committed yet): the first
        // committed line will claim `prev = head`, so the sealed headers'
        // chain bounds and `verify_seals`'s anchor adoption agree.
        self.chain = head;
        self.segment_chain_prev = head;
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
        let mut proofs = Vec::new();
        for &index in &self.live {
            let Some(header) = self.read_header(index)? else {
                continue; // the in-progress head is not sealed yet
            };
            let text = std::fs::read_to_string(self.dir.join(Self::segment_name(index)))?;
            let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
            let leaves: Vec<ChainDigest> = lines
                .iter()
                .map(|l| evidence::leaf_digest(l.as_bytes()))
                .collect();
            for (at, line) in lines.iter().enumerate() {
                let chained: ChainedLine =
                    serde_json::from_str(line).map_err(|e| JournalError::SealViolation {
                        segment: index,
                        message: format!("sealed segment holds an unparseable line: {e}"),
                    })?;
                if chained.entry.job() == Some(job) {
                    proofs.push(InclusionProof {
                        line: (*line).to_string(),
                        index: at as u64,
                        path: evidence::merkle_path(&leaves, at),
                        header: header.clone(),
                    });
                }
            }
        }
        Ok(proofs)
    }

    fn verify_seals(&self, key: &SealKey) -> Result<u64, JournalError> {
        let mut verified = 0u64;
        let mut chain = evidence::genesis();
        let mut anchored = false;
        let last = *self.live.last().expect("at least one segment");
        for &index in &self.live {
            let header = self.read_header(index)?;
            let text = std::fs::read_to_string(self.dir.join(Self::segment_name(index)))?;
            let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
            let Some(header) = header else {
                if index != last {
                    return Err(JournalError::SealViolation {
                        segment: index,
                        message: "non-head segment has no sealed block header".to_string(),
                    });
                }
                // The unsealed head is vouched for by the chain walk only.
                continue;
            };
            if !anchored {
                anchored = true;
                if let Some(first) = lines.first() {
                    if let Ok(chained) = serde_json::from_str::<ChainedLine>(first) {
                        if let Some(claimed) = evidence::decode_hex(&chained.prev) {
                            chain = claimed;
                        }
                    }
                }
            }
            let segment_prev = chain;
            let leaves: Vec<ChainDigest> = lines
                .iter()
                .map(|l| evidence::leaf_digest(l.as_bytes()))
                .collect();
            for leaf in &leaves {
                chain = evidence::link_leaf(&chain, leaf);
            }
            let violation = |message: String| JournalError::SealViolation {
                segment: index,
                message,
            };
            if header.segment != index {
                return Err(violation(format!(
                    "header names segment {}, found beside segment {index}",
                    header.segment
                )));
            }
            if header.entries != lines.len() as u64 {
                return Err(violation(format!(
                    "header seals {} entries, segment holds {}",
                    header.entries,
                    lines.len()
                )));
            }
            if header.chain_prev != evidence::encode_hex(&segment_prev) {
                return Err(violation(
                    "segment's leading chain bound disagrees with its sealed header".to_string(),
                ));
            }
            if header.chain_head != evidence::encode_hex(&chain) {
                return Err(violation(
                    "segment's trailing chain bound disagrees with its sealed header".to_string(),
                ));
            }
            if header.merkle_root != evidence::encode_hex(&evidence::merkle_root(&leaves)) {
                return Err(violation(
                    "segment's merkle root disagrees with its sealed header".to_string(),
                ));
            }
            if !header.verify_seal(key) {
                return Err(violation(
                    "block header seal does not verify under this fleet's key".to_string(),
                ));
            }
            verified += 1;
        }
        Ok(verified)
    }

    fn sink_stats(&self) -> SinkStats {
        self.stats
    }

    fn contents(&self) -> Result<String, JournalError> {
        let mut text = String::new();
        for index in &self.live {
            File::open(self.dir.join(Self::segment_name(*index)))?.read_to_string(&mut text)?;
        }
        Ok(text)
    }
}

struct JournalInner {
    sink: Box<dyn JournalSink>,
    stats: JournalStats,
    /// The evidence chain head: the chain link folded over every line
    /// committed so far (recomputed from the sink's existing contents on
    /// open, advanced only after a commit succeeds).
    link: ChainDigest,
    /// Reused serialization buffer: every append path serializes into
    /// this and hands the sink string slices, so the steady state
    /// allocates nothing per entry.
    scratch: String,
    /// End offset of each serialized line in `scratch` (reused).
    line_ends: Vec<usize>,
}

/// Serializes a [`JournalEntry`] inside the chained envelope,
/// `{"prev":"<hex>","entry":{"<variant>":<value>}}`.
fn frame_entry(
    out: &mut String,
    prev: &ChainDigest,
    entry: &JournalEntry,
) -> Result<(), JournalError> {
    out.push_str("{\"prev\":\"");
    out.push_str(&evidence::encode_hex(prev));
    out.push_str("\",\"entry\":");
    serde_json::Serializer::new(out)
        .serialize(entry)
        .map_err(|e| JournalError::Io(format!("serialize journal entry: {e}")))?;
    out.push('}');
    Ok(())
}

/// Recomputes the chain head over existing journal text. The fold is
/// *tolerant*: the first line's claimed `prev` is adopted as the anchor
/// (a retired journal legitimately starts mid-chain at its leading
/// checkpoint) and later claims are not checked — detection belongs to
/// [`parse_journal`], not to open, so a tampered journal can still be
/// opened and inspected. An unterminated final line is ignored, exactly
/// as reopen repairs it away.
fn chain_head_of(text: &str) -> ChainDigest {
    let mut link = evidence::genesis();
    let mut anchored = false;
    let mut offset = 0usize;
    while offset < text.len() {
        let rest = &text[offset..];
        let (line, consumed, terminated) = match rest.find('\n') {
            Some(at) => (&rest[..at], at + 1, true),
            None => (rest, rest.len(), false),
        };
        offset += consumed;
        if !terminated || line.trim().is_empty() {
            continue;
        }
        if !anchored {
            anchored = true;
            if let Ok(chained) = serde_json::from_str::<ChainedLine>(line) {
                if let Some(claimed) = evidence::decode_hex(&chained.prev) {
                    link = claimed;
                }
            }
        }
        link = evidence::chain_link(&link, line.as_bytes());
    }
    link
}

/// Serializes `entries` into the reused buffer, each chained onto the
/// line before it, and commits them as ONE sink-level group commit. The
/// chain head and the handle counters advance only if the sink accepts
/// the batch, so a retry continues the chain exactly where it stood.
fn commit(inner: &mut JournalInner, entries: &[JournalEntry]) -> Result<(), JournalError> {
    inner.scratch.clear();
    inner.line_ends.clear();
    let mut link = inner.link;
    for entry in entries {
        let start = inner.scratch.len();
        frame_entry(&mut inner.scratch, &link, entry)?;
        link = evidence::chain_link(&link, &inner.scratch.as_bytes()[start..]);
        inner.line_ends.push(inner.scratch.len());
    }
    let mut lines = Vec::with_capacity(inner.line_ends.len());
    let mut start = 0usize;
    for &end in &inner.line_ends {
        lines.push(&inner.scratch[start..end]);
        start = end;
    }
    inner.sink.append_lines(&lines)?;
    inner.link = link;
    inner.stats.appends += lines.len() as u64;
    inner.stats.bytes += inner.scratch.len() as u64 + lines.len() as u64;
    inner.stats.group_commits += 1;
    Ok(())
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
    /// A journal over a custom sink. The sink's existing contents are
    /// read once to recompute the evidence chain head, so appends
    /// continue the chain across reopens instead of restarting it.
    ///
    /// # Errors
    /// [`JournalError::Io`] if the sink's contents cannot be read.
    pub fn with_sink(sink: Box<dyn JournalSink>) -> Result<Journal, JournalError> {
        let link = chain_head_of(&sink.contents()?);
        Ok(Journal {
            inner: Arc::new(Mutex::new(JournalInner {
                sink,
                stats: JournalStats::default(),
                link,
                scratch: String::new(),
                line_ends: Vec::new(),
            })),
        })
    }

    /// An in-memory journal.
    pub fn in_memory() -> Journal {
        Journal::with_sink(Box::new(MemorySink::new()))
            .expect("an empty in-memory journal cannot fail to open")
    }

    /// A journal over a [`SegmentedFileSink`] at directory `dir` (created
    /// if absent; existing segments are continued — reopening after a
    /// crash repairs the last segment's torn tail first).
    ///
    /// # Errors
    /// [`JournalError::Io`] if the directory or its segments cannot be
    /// opened.
    pub fn segmented(
        dir: impl AsRef<Path>,
        config: SegmentConfig,
    ) -> Result<Journal, JournalError> {
        Journal::with_sink(Box::new(SegmentedFileSink::open(dir, config)?))
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
    /// committed line left it. The sink is told the inherited head
    /// ([`JournalSink::anchor_chain`]) so a sealing [`SegmentedFileSink`]
    /// signs headers with consistent chain bounds.
    ///
    /// The replacement must be empty: failover *continues* a journal, it
    /// never splices two. (For the new directory to be recoverable on its
    /// own, write a leading [`JournalEntry::Checkpoint`] right after the
    /// swap — [`crate::FleetStream::resume_with_sink`] does.)
    pub fn fail_over(&self, sink: Box<dyn JournalSink>) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.sink = sink;
        let link = inner.link;
        inner.sink.anchor_chain(link);
    }

    /// Append/byte/commit counters for this handle, merged with the
    /// sink's rotation/fsync/retirement counters.
    pub fn stats(&self) -> JournalStats {
        let inner = self.lock();
        let sink = inner.sink.sink_stats();
        JournalStats {
            rotations: sink.rotations,
            fsyncs: sink.fsyncs,
            segments_retired: sink.segments_retired,
            seals: sink.seals,
            ..inner.stats
        }
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
        let text = self.lock().sink.contents()?;
        parse_journal(&text)
    }

    /// The journal's canonical chained bytes, exactly as the sink holds
    /// them — the text [`parse_journal`] walks and the evidence chain is
    /// computed over. External verifiers (and tamper tests) operate on
    /// this representation.
    ///
    /// # Errors
    /// [`JournalError::Io`] if the sink cannot be read.
    pub fn text(&self) -> Result<String, JournalError> {
        self.lock().sink.contents()
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
    /// [`JournalError::SealViolation`] if one does not parse.
    pub fn sealed_headers(&self) -> Result<Vec<BlockHeader>, JournalError> {
        self.lock().sink.sealed_headers()
    }

    /// Builds [`InclusionProof`]s for every *sealed* entry of `job` —
    /// Merkle path plus signed block header, checkable with
    /// [`InclusionProof::verify`] and nothing else. Entries in the
    /// unsealed head segment are not covered; call [`Journal::seal`]
    /// first to include them.
    ///
    /// # Errors
    /// [`JournalError::Io`] if a segment cannot be read;
    /// [`JournalError::SealViolation`] if a sealed segment holds an
    /// unparseable line.
    pub fn prove(&self, job: JobId) -> Result<Vec<InclusionProof>, JournalError> {
        self.lock().sink.prove(job)
    }

    /// Full ledger verification: parses the journal — which walks the
    /// hash chain, so duplication, reordering, deletion and in-place
    /// edits surface as [`JournalError::ChainViolation`] naming the first
    /// bad entry — then re-verifies every sealed block header under the
    /// fleet `seed`'s [`SealKey`] (forged, altered or foreign-fleet seals
    /// surface as [`JournalError::SealViolation`]).
    ///
    /// # Errors
    /// [`JournalError::Io`], [`JournalError::Corrupt`],
    /// [`JournalError::ChainViolation`] or [`JournalError::SealViolation`]
    /// as above.
    pub fn verify(&self, seed: u64) -> Result<LedgerVerification, JournalError> {
        let guard = self.lock();
        let text = guard.sink.contents()?;
        let (entries, tail) = parse_journal(&text)?;
        let seals_verified = guard.sink.verify_seals(&SealKey::from_seed(seed))?;
        Ok(LedgerVerification {
            entries: entries.len() as u64,
            tail,
            seals_verified,
        })
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

/// The journal layer's self-accounting metric families: they describe
/// this *process* (its own appends, commits, rotations, syncs and
/// recoveries), not the metered workload, so a recovered service
/// legitimately reads `fleet_recoveries_total 1` where the uninterrupted
/// original reads 0.
pub const SELF_ACCOUNTING_FAMILIES: [&str; 15] = [
    "fleet_journal_appends_total",
    "fleet_journal_bytes_total",
    "fleet_journal_group_commits_total",
    "fleet_journal_rotations_total",
    "fleet_journal_fsyncs_total",
    "fleet_journal_segments_retired_total",
    "fleet_journal_retries_total",
    "fleet_journal_failures_total",
    "fleet_ledger_seals_total",
    "fleet_proofs_emitted_total",
    "fleet_chain_violations_total",
    "fleet_recoveries_total",
    "fleet_observer_spans_total",
    "fleet_observer_spans_dropped_total",
    "fleet_observer_overhead_seconds_total",
];

/// The live-pipeline metric families: queue/inflight gauges, the
/// rejected-submissions counter and the worker-supervision families
/// describe the running ingest pipeline at a moment in time, not the
/// metered workload, and are timing-dependent while the pipeline is
/// live — so checkpoints exclude them (see
/// [`crate::FleetService::checkpoint`]).
pub const LIVE_PIPELINE_FAMILIES: [&str; 11] = [
    "fleet_queue_depth",
    "fleet_inflight",
    "fleet_submissions_rejected",
    "fleet_quarantined",
    "fleet_stage_seconds",
    "fleet_stage_seconds_by_tenant",
    "fleet_pool_buffers",
    "fleet_worker_restarts_total",
    "fleet_jobs_reassigned_total",
    "fleet_poison_jobs_total",
    "fleet_workers_live",
];

/// The metric families a checkpoint excludes from its snapshot —
/// [`SELF_ACCOUNTING_FAMILIES`] plus [`LIVE_PIPELINE_FAMILIES`] —
/// committed inside every sealed [`BlockHeader`] so the exclusion policy
/// itself is part of the signed evidence.
pub fn excluded_metric_families() -> Vec<String> {
    SELF_ACCOUNTING_FAMILIES
        .iter()
        .chain(LIVE_PIPELINE_FAMILIES.iter())
        .map(|family| (*family).to_string())
        .collect()
}

/// Strips the named families' series (and their `HELP`/`TYPE` headers)
/// from a metrics exposition. Histogram families render their series
/// under derived `_bucket`/`_sum`/`_count` names, so those are stripped
/// alongside the bare family name.
pub fn strip_families(exposition: &str, families: &[&str]) -> String {
    exposition
        .lines()
        .filter(|line| {
            !families.iter().any(|family| {
                ["", "_bucket", "_sum", "_count"].iter().any(|suffix| {
                    line.starts_with(&format!("{family}{suffix} "))
                        || line.starts_with(&format!("{family}{suffix}{{"))
                }) || line.starts_with(&format!("# HELP {family} "))
                    || line.starts_with(&format!("# TYPE {family} "))
            })
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The metering exposition: everything except the journal's
/// self-accounting counters and the live-pipeline gauges — the series
/// the recovery contract guarantees byte-identical **whatever process**
/// produced them (streamed or batch, original or recovered).
pub fn metering_exposition(exposition: &str) -> String {
    let families: Vec<&str> = SELF_ACCOUNTING_FAMILIES
        .iter()
        .chain(LIVE_PIPELINE_FAMILIES.iter())
        .copied()
        .collect();
    strip_families(exposition, &families)
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
    let mut entries = Vec::new();
    let mut offset = 0usize;
    let mut line_no = 0usize;
    let mut tail = TailStatus::Clean;
    let mut link = evidence::genesis();
    let mut anchored = false;
    while offset < text.len() {
        let rest = &text[offset..];
        let (line, consumed, terminated) = match rest.find('\n') {
            Some(at) => (&rest[..at], at + 1, true),
            None => (rest, rest.len(), false),
        };
        line_no += 1;
        let is_last = offset + consumed >= text.len();
        if line.trim().is_empty() {
            offset += consumed;
            continue;
        }
        match serde_json::from_str::<ChainedLine>(line) {
            Ok(chained) => {
                if !terminated {
                    // A complete-looking parse without a newline is still a
                    // torn append: the writer appends line + newline in one
                    // write, so the newline's absence means the line may be
                    // a prefix of a longer record. Drop it.
                    tail = TailStatus::Truncated {
                        dropped_bytes: line.len(),
                    };
                } else {
                    let subject = match chained.entry.job() {
                        Some(job) => format!("{} entry for {job}", chained.entry.label()),
                        None => format!("{} entry", chained.entry.label()),
                    };
                    let claimed = evidence::decode_hex(&chained.prev).ok_or_else(|| {
                        JournalError::ChainViolation {
                            line: line_no,
                            message: format!("{subject} carries an unparseable prev link"),
                        }
                    })?;
                    if !anchored
                        && claimed != link
                        && matches!(chained.entry, JournalEntry::Checkpoint(_))
                    {
                        // A retired journal starts at its leading
                        // checkpoint, whose prev is the chain head the
                        // fold reached before retirement: adopt it.
                        link = claimed;
                    }
                    if claimed != link {
                        return Err(JournalError::ChainViolation {
                            line: line_no,
                            message: format!(
                                "{subject} claims prev {}… but the chain here reads {}… \
                                 (duplicated, reordered, deleted or edited evidence at or \
                                 before this line)",
                                &chained.prev[..8.min(chained.prev.len())],
                                &evidence::encode_hex(&link)[..8],
                            ),
                        });
                    }
                    anchored = true;
                    link = evidence::chain_link(&link, line.as_bytes());
                    entries.push(chained.entry);
                }
            }
            // Only an *unterminated* final line is a crash artifact: the
            // writer appends line + newline in one write, so a torn write
            // can never include the newline. A newline-terminated line
            // that fails to parse was fully written and later damaged —
            // corruption, wherever it sits.
            Err(e) if is_last && !terminated => {
                tail = TailStatus::Truncated {
                    dropped_bytes: line.len(),
                };
                let _ = e;
            }
            Err(e) => {
                return Err(JournalError::Corrupt {
                    line: line_no,
                    message: e.to_string(),
                });
            }
        }
        offset += consumed;
    }
    Ok((entries, tail))
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
    /// by the *lenient* paths ([`crate::FleetService::recover_lenient`]
    /// and [`compact`]'s internal replay): strict recovery
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
    /// [`compact`] refused to fold a prefix whose receipts disagree with
    /// the replay: folding would erase the tamper evidence into a
    /// clean-looking checkpoint. Investigate (recover the original and
    /// inspect [`RecoveryReport::mismatches`]) before compacting.
    InconsistentPrefix {
        /// The jobs whose receipts disagreed.
        mismatches: Vec<JobId>,
    },
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
            RecoveryError::InconsistentPrefix { mismatches } => {
                write!(
                    f,
                    "refusing to compact: {} receipt(s) disagree with the replay",
                    mismatches.len()
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Folds the oldest `fold_runs` records of `entries` — their `Run`,
/// `Invoice` and `Verdict` entries, plus any leading `Checkpoint` — into a
/// single [`Checkpoint`] entry, returning the compacted sequence
/// `[Checkpoint, …kept entries…]`.
///
/// `scratch` must be a *fresh* service configured identically to the
/// journal's origin (same [`crate::FleetConfig`], same tenant
/// registrations): the fold is computed by replaying the prefix through
/// it, exactly as recovery would. Entries are partitioned by job id, so a
/// receipt is never separated from its run, whatever their interleaving.
///
/// Recovering from the compacted sequence yields bit-identical state to
/// recovering from the original (`tests/fleet.rs` enforces this).
///
/// # Errors
/// Propagates [`RecoveryError`] from replaying the folded prefix, and
/// refuses with [`RecoveryError::InconsistentPrefix`] if any folded
/// receipt disagrees with the replay — folding would erase the tamper
/// evidence into a clean-looking checkpoint.
pub fn compact(
    entries: &[JournalEntry],
    fold_runs: usize,
    scratch: &mut FleetService,
) -> Result<Vec<JournalEntry>, RecoveryError> {
    let fold_ids: std::collections::BTreeSet<JobId> = entries
        .iter()
        .filter_map(|entry| match entry {
            JournalEntry::Run(record) => Some(record.job.id),
            _ => None,
        })
        .take(fold_runs)
        .collect();
    let mut folded = Vec::new();
    let mut kept = Vec::new();
    for entry in entries {
        match entry.job() {
            None => {
                if !kept.is_empty() {
                    return Err(RecoveryError::MisplacedCheckpoint);
                }
                folded.push(entry.clone());
            }
            Some(job) if fold_ids.contains(&job) => folded.push(entry.clone()),
            Some(_) => kept.push(entry.clone()),
        }
    }
    let report = scratch.replay(&folded)?;
    if !report.is_consistent() {
        // Folding a tampered prefix would erase the evidence into a
        // clean-looking checkpoint.
        return Err(RecoveryError::InconsistentPrefix {
            mismatches: report.mismatches,
        });
    }
    let mut compacted = Vec::with_capacity(kept.len() + 1);
    compacted.push(JournalEntry::checkpoint(scratch.checkpoint()));
    compacted.append(&mut kept);
    Ok(compacted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Fleet, FleetConfig, JobSpec};
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
        let text = journal.lock().sink.contents().unwrap();
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
        let text = journal.lock().sink.contents().unwrap();
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
        let text = journal.lock().sink.contents().unwrap();
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
        let text = journal.lock().sink.contents().unwrap();
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
        let text = journal.lock().sink.contents().unwrap();
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
        assert_eq!(headers[0].excluded_families, excluded_metric_families());
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
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
