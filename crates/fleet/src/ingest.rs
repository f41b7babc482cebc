//! Streaming ingestion: a long-lived worker pool draining a bounded,
//! per-tenant-fair submission queue.
//!
//! [`FleetIngest`] replaces one-shot batch execution with a pipeline tenants
//! feed continuously: [`FleetIngest::submit`] enqueues a [`JobSpec`] into a
//! bounded [`FairQueue`]; worker threads pop jobs round-robin across tenants
//! and execute them with [`Fleet::run_one`]; completed [`RunRecord`]s land
//! in a sequence-numbered completion log. Because every job's kernel seed is
//! derived from the fleet seed and job id alone, and the completion log is
//! keyed by submission sequence, a streamed run is **bit-identical** to the
//! equivalent batch run for any worker count.
//!
//! Four backpressure-and-fairness knobs:
//!
//! * **Capacity** ([`IngestConfig::with_capacity`]) bounds the undispatched
//!   backlog.
//! * **Policy** ([`BackpressurePolicy`]): a full queue either rejects the
//!   submit with [`SubmitError::QueueFull`] (load shedding) or blocks the
//!   submitting thread until a slot frees (lossless streaming).
//! * **Fairness** is structural: the queue round-robins across tenant
//!   lanes, so one greedy tenant cannot starve the rest (see
//!   [`FleetIngest::dispatch_log`]).
//! * **Completion watermark**
//!   ([`IngestConfig::with_completion_watermark`]) bounds the *other* end:
//!   capacity bounds only the undispatched backlog, and completed records
//!   otherwise accumulate in the completion log until a consumer takes
//!   them ([`FleetIngest::take_ready`], a stream's `pump`, or `finish`).
//!   With a watermark, workers stall instead of letting the log outrun the
//!   consumer, so total pipeline memory is bounded by
//!   `capacity + watermark`.
//!
//! With a [`crate::Journal`] attached (the last argument of
//! [`FleetIngest::new`]), every record is appended to the
//! write-ahead log *before* it is released to the consumer — the
//! durability boundary of the [`crate::journal`] layer. Those appends are
//! also the *evidence* boundary: each journaled record becomes a
//! hash-chained line (and, once its segment rotates under a sealing
//! sink, a Merkle leaf under a signed block header), so the order the
//! pipeline releases records in is exactly the order a disputing tenant
//! can later hold the provider to. The submission side is journaled too:
//! `submit` writes a [`crate::JournalEntry::Accepted`] spec *before* the
//! job becomes visible to any worker, so a crash between acceptance and
//! release no longer silently loses the job — recovery reports the
//! accepted-but-unreleased specs for deterministic resubmission.
//!
//! ## Surviving the disk: retry, quarantine, failover
//!
//! Journal I/O is the one place this pipeline touches a device that can
//! fail, so it never panics on it. Every journal commit (acceptance at
//! submit, the ready prefix at release) runs under a seeded-deterministic
//! [`RetryPolicy`]: transient errors are retried with bounded exponential
//! backoff in virtual ticks. On exhaustion the pipeline enters
//! **quarantine**: releases stop with the un-journaled batch parked
//! (preserving the *never-journaled ⇒ never-billed* invariant — nothing
//! is ever released unjournaled), `submit` fails fast with
//! [`SubmitError::Quarantined`], and the state is observable via
//! [`FleetIngest::health`] and the `fleet_quarantined` /
//! `fleet_journal_failures_total` metrics. Workers keep *executing*
//! during quarantine; only the billing boundary is closed. The operator
//! fails over with [`FleetIngest::resume_with_sink`]: the journal swaps
//! to a fresh sink (chain continuity intact — the evidence chain head
//! only ever advances on successful commits), the pending accepted set is
//! re-journaled so the new sink is recoverable on its own, and the next
//! pump drains the stalled prefix.
//!
//! ## Surviving the workers: watchdog, reassignment, poison jobs
//!
//! The execution layer is not assumed immortal either. A seeded
//! [`WorkerFaultSchedule`] ([`IngestConfig::with_worker_faults`]) injects
//! panics, hangs, pathological slowdowns and corrupted records into the
//! pool, and the supervisor machinery proves the pipeline's outputs stay
//! bit-identical to an unfaulted run:
//!
//! * **Detection is deterministic.** Time is virtual ticks that only
//!   injected faults spend — a healthy run never spends any. A hanging or
//!   slowed worker charges each tick it spins to its own job, so the
//!   moment that job's spent ticks pass its budget
//!   ([`IngestConfig::with_job_deadline`], grace plus the job's declared
//!   workload length in ticks) it is reaped — in ticks, never wall clock,
//!   and never because some *other* worker spun. Panics are caught by a
//!   reap-on-unwind guard; no panic escapes the pool. Corrupted records
//!   are rejected at completion by the same quote machinery the auditor
//!   uses ([`Fleet::verify_record`]).
//! * **Recovery is bounded.** A reaped worker's in-flight batch is
//!   reclaimed and requeued at the *same* sequence numbers (release
//!   order, and therefore every downstream artifact, is unchanged —
//!   re-execution is safe because the kernel is deterministic from the
//!   fleet seed and job id), and a replacement worker is respawned under
//!   the [`SupervisorPolicy`] restart budget: budget dry → the pool
//!   degrades; last worker dead → the fleet quarantines (the PR 8
//!   surface: submits fail fast, [`FleetIngest::health`] says why).
//! * **Zombies cannot double-release.** Completions carry the worker's
//!   generation; a reaped worker finishing late fails the dedup guard
//!   and its record is discarded — released ⇒ journaled ⇒ executed
//!   exactly once.
//! * **Poison jobs are quarantined individually.** A job that kills
//!   [`SupervisorPolicy::max_job_attempts`] workers in a row gets a
//!   tombstone in the completion log (the release cursor passes it), a
//!   journaled [`crate::JournalEntry::Poisoned`] verdict, and a
//!   tenant-visible [`JobVerdict::Poisoned`] — while every other job
//!   keeps flowing.
//!
//! ```
//! use trustmeter_fleet::{Fleet, FleetConfig, FleetIngest, IngestConfig, JobSpec, TenantId};
//! use trustmeter_workloads::Workload;
//!
//! let ingest = FleetIngest::new(Fleet::new(FleetConfig::new(2, 42)), IngestConfig::new(2), None);
//! for id in 0..4 {
//!     let job = JobSpec::clean(id, TenantId((id % 2) as u32), Workload::LoopO, 0.001);
//!     ingest.submit(job).unwrap();
//! }
//! let outcome = ingest.finish();
//! // Completion log merges in submission order regardless of which worker
//! // finished first.
//! let ids: Vec<u64> = outcome.records.iter().map(|r| r.job.id.0).collect();
//! assert_eq!(ids, vec![0, 1, 2, 3]);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use serde::{Deserialize, Serialize};

use crate::executor::{Fleet, JobId, JobSpec, RunRecord};
use crate::faults::{RetryPolicy, SupervisorPolicy, WorkerFaultKind, WorkerFaultSchedule};
use crate::journal::{Journal, JournalEntry, JournalError, JournalSink, PoisonNotice};
use crate::pool::{BufferPool, PoolStats};
use crate::queue::FairQueue;
use crate::tenant::TenantId;
use crate::trace::{PipelineTracer, Stage};

/// What `submit` does when the submission queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BackpressurePolicy {
    /// Block the submitting thread until a queue slot frees (lossless).
    #[default]
    Block,
    /// Return [`SubmitError::QueueFull`] immediately (load shedding).
    Reject,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmitError {
    /// The queue is at capacity and the policy is
    /// [`BackpressurePolicy::Reject`].
    QueueFull,
    /// The pipeline is shutting down; no further jobs are accepted.
    ShutDown,
    /// The journal exhausted its [`RetryPolicy`] and the pipeline is
    /// quarantined: nothing can be made durable, so nothing new is
    /// accepted (and nothing already executed is released). Fail over
    /// with [`FleetIngest::resume_with_sink`] to resume.
    Quarantined,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("submission queue is full"),
            SubmitError::ShutDown => f.write_str("ingest pipeline is shut down"),
            SubmitError::Quarantined => f.write_str(
                "ingest pipeline is quarantined: the journal is failing and \
                 nothing can be made durable (fail over with resume_with_sink)",
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A batch submission that did not fully succeed. The admitted prefix is
/// real work: those jobs are journaled (when a journal is attached), queued
/// and will execute — only the remainder was refused. Callers decide
/// whether to retry the tail, shed it, or fail over first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSubmitError {
    /// Submission sequence numbers of the jobs that *were* admitted, in
    /// submission order (empty when the batch failed outright).
    pub accepted: Vec<u64>,
    /// Why the remainder was refused.
    pub error: SubmitError,
}

impl fmt::Display for BatchSubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch submission stopped after {} accepted job(s): {}",
            self.accepted.len(),
            self.error
        )
    }
}

impl std::error::Error for BatchSubmitError {}

/// Worker-pool configuration for [`FleetIngest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Number of long-lived worker threads.
    pub workers: usize,
    /// Maximum undispatched jobs in the submission queue (0 = unbounded).
    /// Completed-but-unconsumed records are *not* counted: consumers must
    /// pump ([`FleetIngest::take_ready`]) to bound total pipeline memory.
    pub capacity: usize,
    /// What `submit` does when the queue is full.
    pub backpressure: BackpressurePolicy,
    /// Start with dispatch paused; call [`FleetIngest::resume`] to begin
    /// draining. Useful for tests and for staging a backlog.
    pub start_paused: bool,
    /// Completion-side watermark (0 = unbounded): workers stall before
    /// starting a new job while completed-but-unconsumed records plus
    /// in-flight jobs are at this limit, so a slow consumer bounds the
    /// completion log instead of letting it outrun `take_ready`. A
    /// graceful [`FleetIngest::finish`] lifts the watermark — the drain is
    /// about to consume everything anyway. See
    /// [`IngestConfig::with_completion_watermark`] for the deadlock hazard
    /// when the consuming thread also submits under
    /// [`BackpressurePolicy::Block`].
    pub completion_watermark: usize,
    /// The retry policy every journal commit (acceptance at submit, the
    /// ready prefix at release) runs under; exhaustion quarantines the
    /// pipeline instead of panicking. Irrelevant without a journal.
    pub retry: RetryPolicy,
    /// Per-job execution deadline grace, in virtual ticks (`None` = no
    /// watchdog). A job's budget is this grace plus its declared workload
    /// length in ticks, counted in the ticks its own worker spins on it;
    /// only injected faults spin, so healthy runs never trip a deadline
    /// and detection is deterministic. See
    /// [`IngestConfig::with_job_deadline`].
    pub job_deadline: Option<u64>,
    /// The supervisor's bounded recovery ladder for dead, hung and lying
    /// workers (see [`SupervisorPolicy`]).
    pub supervisor: SupervisorPolicy,
    /// The seeded worker fault schedule to inject (empty = healthy pool).
    /// A non-empty schedule also checks every completion with
    /// [`Fleet::verify_record`] before it enters the completion log (the
    /// wrong-result defense); the healthy hot path skips that quote
    /// recomputation.
    pub worker_faults: WorkerFaultSchedule,
}

impl IngestConfig {
    /// Default queue capacity.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// `workers` threads over a [`Self::DEFAULT_CAPACITY`]-slot queue with
    /// blocking backpressure.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> IngestConfig {
        assert!(workers > 0, "an ingest pipeline needs at least one worker");
        IngestConfig {
            workers,
            capacity: Self::DEFAULT_CAPACITY,
            backpressure: BackpressurePolicy::Block,
            start_paused: false,
            completion_watermark: 0,
            retry: RetryPolicy::default(),
            job_deadline: None,
            supervisor: SupervisorPolicy::default(),
            worker_faults: WorkerFaultSchedule::none(),
        }
    }

    /// Replaces the queue capacity (0 = unbounded).
    pub fn with_capacity(mut self, capacity: usize) -> IngestConfig {
        self.capacity = capacity;
        self
    }

    /// Replaces the backpressure policy.
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> IngestConfig {
        self.backpressure = policy;
        self
    }

    /// Starts the pipeline paused (no dispatch until
    /// [`FleetIngest::resume`]).
    pub fn paused(mut self) -> IngestConfig {
        self.start_paused = true;
        self
    }

    /// Replaces the completion-side watermark (0 = unbounded): workers
    /// stall before starting a new job while completed-but-unconsumed
    /// records plus in-flight jobs are at the limit, so total pipeline
    /// memory is bounded by `capacity + completion_watermark` even when
    /// the consumer stops pumping.
    ///
    /// **Deadlock hazard.** Only `take_ready`/`pump`/`finish` clear the
    /// watermark. Under [`BackpressurePolicy::Block`] with a bounded
    /// queue, a thread that submits more than `capacity + watermark` jobs
    /// without pumping parks in `submit` while every worker is stalled on
    /// the watermark — and if that thread is also the only consumer,
    /// nothing can ever wake either side. With a watermark, either pump
    /// from the submitting loop (as [`crate::FleetStream`] usage does),
    /// consume from a separate thread, use
    /// [`BackpressurePolicy::Reject`], or keep
    /// `capacity >= total submissions - watermark`.
    pub fn with_completion_watermark(mut self, watermark: usize) -> IngestConfig {
        self.completion_watermark = watermark;
        self
    }

    /// Replaces the journal-commit [`RetryPolicy`] (see
    /// [`IngestConfig::retry`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> IngestConfig {
        self.retry = retry;
        self
    }

    /// Arms the per-worker watchdog with a per-job budget of
    /// `grace_ticks` plus the job's declared workload length in virtual
    /// ticks (one tick per simulated millisecond, at least one), counted
    /// in the ticks the job's own worker spins on it. Detection is
    /// deterministic: only injected faults spin, so a healthy run can
    /// never expire a deadline, and a worker spinning beside a hang is
    /// charged nothing for it. A worker whose running job overspends its
    /// budget is reaped — its batch reassigned, a replacement respawned
    /// under the [`SupervisorPolicy`].
    pub fn with_job_deadline(mut self, grace_ticks: u64) -> IngestConfig {
        self.job_deadline = Some(grace_ticks);
        self
    }

    /// Replaces the [`SupervisorPolicy`] (restart budget, degradation,
    /// poison threshold).
    pub fn with_supervisor(mut self, supervisor: SupervisorPolicy) -> IngestConfig {
        self.supervisor = supervisor;
        self
    }

    /// Installs a [`WorkerFaultSchedule`] to inject into the pool, and
    /// with it completion verification (see [`IngestConfig::worker_faults`]).
    pub fn with_worker_faults(mut self, faults: WorkerFaultSchedule) -> IngestConfig {
        self.worker_faults = faults;
        self
    }
}

/// A point-in-time snapshot of pipeline state (all counters monotonic
/// except `queued` and the inflight gauges).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct IngestStats {
    /// Jobs accepted by `submit` so far.
    pub submitted: u64,
    /// Jobs fully executed so far.
    pub completed: u64,
    /// Submissions rejected with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Jobs queued and not yet dispatched to a worker.
    pub queued: usize,
    /// Completed records not yet consumed via [`FleetIngest::take_ready`]
    /// (what the completion watermark bounds).
    pub ready: usize,
    /// Jobs currently executing, per tenant.
    pub inflight: BTreeMap<TenantId, u64>,
    /// Failed journal commit attempts that were retried (each failed
    /// attempt before exhaustion counts one).
    pub retries: u64,
    /// Journal commits that exhausted the retry policy (each one
    /// quarantined the pipeline).
    pub journal_failures: u64,
    /// Whether the pipeline is currently quarantined (see
    /// [`SubmitError::Quarantined`]).
    pub quarantined: bool,
    /// Workers currently alive in the pool (moves with
    /// [`FleetIngest::scale_to`] and with supervisor reaps/respawns).
    pub workers: usize,
    /// Workers respawned by the supervisor after a reap.
    pub worker_restarts: u64,
    /// Jobs reclaimed from dead/hung/lying workers and requeued for
    /// re-execution (same sequence number, attempt advanced).
    pub reassigned: u64,
    /// Jobs declared poison after killing
    /// [`SupervisorPolicy::max_job_attempts`] workers in a row.
    pub poisoned: u64,
    /// Completions discarded by the zombie dedup guard (a reaped worker
    /// finishing late can never double-release).
    pub stale_completions: u64,
    /// Release-path buffer recycling counters (see [`crate::pool`]).
    pub pool: PoolStats,
}

impl IngestStats {
    /// Jobs currently executing across all tenants.
    pub fn inflight_total(&self) -> u64 {
        self.inflight.values().sum()
    }
}

/// A point-in-time durability health report for the ingest pipeline —
/// what an operator (or [`crate::FleetStream::health`]) reads to decide
/// whether a failover is needed and whether it worked.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FleetHealth {
    /// Whether the pipeline is quarantined: the journal exhausted its
    /// retry policy, releases are stopped and submits fail fast.
    pub quarantined: bool,
    /// Journal commits that exhausted the retry policy.
    pub journal_failures: u64,
    /// Failed journal commit attempts that were retried.
    pub retries: u64,
    /// Virtual backoff ticks spent waiting between retry attempts.
    pub backoff_ticks: u64,
    /// Completed records parked by quarantine, awaiting the post-failover
    /// drain (never released unjournaled).
    pub stalled: u64,
    /// Accepted-but-unreleased jobs whose `Accepted` markers are pending
    /// (re-journaled into the replacement sink on failover).
    pub pending_accepted: u64,
    /// The journal error that caused the current (or most recent)
    /// quarantine, if any.
    pub last_error: Option<String>,
    /// Workers currently alive in the pool.
    pub workers_live: usize,
    /// Workers respawned by the supervisor after a reap.
    pub worker_restarts: u64,
    /// Jobs reclaimed from dead/hung/lying workers and requeued.
    pub reassigned: u64,
    /// Jobs declared poison and individually quarantined.
    pub poisoned: u64,
    /// The last worker died with the restart budget spent: the fleet is
    /// quarantined until [`crate::FleetStream::scale_workers`] (or
    /// [`FleetIngest::scale_to`] on a bare pool) revives the pool.
    pub workers_dead: bool,
}

/// Everything a drained pipeline produced.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Records not yet taken via [`FleetIngest::take_ready`], in submission
    /// order.
    pub records: Vec<RunRecord>,
    /// The full dispatch order (which job each worker popped, in pop
    /// order) — the observable fairness record. A reassigned job appears
    /// once per dispatch.
    pub dispatch_log: Vec<(JobId, TenantId)>,
    /// Final counters (queue and inflight gauges are zero by construction).
    pub stats: IngestStats,
    /// Poison-job verdicts released over the pipeline's lifetime, in
    /// release order (tenant-visible; each was also journaled as a
    /// [`crate::JournalEntry::Poisoned`] chained entry).
    pub poisoned: Vec<PoisonNotice>,
    /// Final durability and supervision health (why a quarantined drain
    /// released nothing).
    pub health: FleetHealth,
}

/// The tenant-visible outcome of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobVerdict {
    /// The job executed and its record was released.
    Completed,
    /// The job was declared **poison**: it killed workers on `attempts`
    /// consecutive execution attempts and was individually quarantined
    /// (journaled, release cursor moved past it) while the rest of the
    /// fleet kept flowing.
    Poisoned {
        /// Execution attempts consumed before the verdict.
        attempts: u32,
    },
}

impl IngestOutcome {
    /// The verdict for `job`, judged from this outcome's released
    /// records and poison notices. Records taken by an earlier
    /// [`FleetIngest::take_ready`] are not in `records`, so a streaming
    /// consumer should track those itself; poison verdicts are
    /// lifetime-cumulative and always visible here.
    pub fn verdict(&self, job: JobId) -> Option<JobVerdict> {
        if self.records.iter().any(|r| r.job.id == job) {
            return Some(JobVerdict::Completed);
        }
        self.poisoned
            .iter()
            .find(|n| n.spec.id == job)
            .map(|n| JobVerdict::Poisoned {
                attempts: n.attempts,
            })
    }
}

/// One entry in the sequence-numbered completion log.
#[derive(Debug, Clone)]
enum Completion {
    /// A fully executed job's record (boxed: a tombstone is ~20× smaller
    /// than a record, and the log holds many entries at once).
    Record(Box<RunRecord>),
    /// A poison-job tombstone: lets the contiguous-prefix release cursor
    /// pass the sequence while a journaled verdict — not a record — is
    /// what gets released.
    Poisoned(PoisonNotice),
}

/// One dispatched (sequence, job) pair held by a worker — the
/// supervision record the watchdog, the reaper and the zombie dedup
/// guard all read.
#[derive(Debug, Clone)]
struct Assignment {
    /// The job as dispatched, kept so a reap can requeue it verbatim.
    job: JobSpec,
    /// Generation of the worker holding it; completions from any other
    /// generation (or a reaped one) are discarded.
    worker: u64,
    /// Execution attempt this dispatch is (1-based).
    attempt: u32,
    /// Whether the worker has actually begun executing it. Batch-mates
    /// behind the running job sit dispatched-but-unstarted: they consume
    /// no attempt (and spend no ticks) if their worker dies.
    started: bool,
    /// Virtual ticks the holding worker has spun on this job. Only that
    /// worker's own spin loop charges it, so a fault elsewhere in the pool
    /// never counts against this job's deadline.
    spent: u64,
    /// Wall-clock dispatch stamp for the [`Stage::Reassign`] span;
    /// stamped only when tracing.
    dispatched_at: Option<std::time::Instant>,
}

/// What [`Shared::complete`] did with an execution result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompletionOutcome {
    /// Logged into the completion log; the worker proceeds.
    Accepted,
    /// The worker was reaped while executing — the record was discarded
    /// by the dedup guard; the worker abandons its batch and exits.
    Zombie,
    /// The record failed verification (a lying executor); the worker
    /// must be reaped and the job reassigned.
    Rejected,
}

/// Mutable pipeline state behind the mutex.
#[derive(Debug)]
struct State {
    queue: FairQueue,
    /// Next submission sequence number.
    next_seq: u64,
    /// Sequence-numbered completion log; contiguous prefixes are released
    /// to consumers in submission order (poison tombstones are passed,
    /// journaled and surfaced as verdicts).
    completed: BTreeMap<u64, Completion>,
    /// Next sequence number to release from the completion log.
    released: u64,
    /// Dispatch order (which job each worker popped, in pop order) — the
    /// observable fairness record.
    dispatch_log: Vec<(JobId, TenantId)>,
    inflight: BTreeMap<TenantId, u64>,
    submitted: u64,
    completed_count: u64,
    rejected: u64,
    paused: bool,
    shutting_down: bool,
    /// On shutdown, drop queued jobs instead of draining them (set by
    /// `Drop` teardown; `finish` drains).
    discard_queued: bool,
    /// The journal exhausted its retry policy: releases are stopped and
    /// submits fail fast until a failover lifts the quarantine.
    quarantined: bool,
    /// The ready batch whose journal commit exhausted the retry policy,
    /// parked at the release cursor: never released (the write-ahead
    /// invariant), drained by the first `take_ready` after failover.
    stalled: Vec<RunRecord>,
    /// Failed journal commit attempts that were retried.
    retries: u64,
    /// Journal commits that exhausted the retry policy.
    journal_failures: u64,
    /// Virtual backoff ticks spent between retry attempts.
    backoff_ticks: u64,
    /// The journal error behind the current/most recent quarantine.
    last_error: Option<String>,
    /// Accepted-but-unreleased specs, keyed by submission sequence: the
    /// jobs whose `Accepted` journal markers are still pending. Entries
    /// leave at release; the survivors are re-journaled into the
    /// replacement sink on failover so it is recoverable on its own.
    /// Empty without a journal.
    accepted: BTreeMap<u64, JobSpec>,
    /// Worker-pool size target (see [`FleetIngest::scale_to`]). Workers
    /// consume one "shrink token" each — exiting at the top of their loop —
    /// while `active_workers` exceeds this. Degrades when the restart
    /// budget runs dry.
    worker_target: usize,
    /// Workers currently alive (spawned minus exited minus reaped).
    active_workers: usize,
    /// In-flight dispatches keyed by sequence number — what spinning
    /// workers charge and a reap reclaims.
    assignments: BTreeMap<u64, Assignment>,
    /// Generations of reaped workers. Any thread still running one of
    /// these is a zombie: its completions are discarded and it exits at
    /// its next state check. Bounded by the restart budget.
    dead_workers: BTreeSet<u64>,
    /// Workers ever spawned — the generation for the next one.
    spawned_total: u64,
    /// Respawns consumed in the current restart window.
    restarts_in_window: u32,
    /// Virtual tick the current restart window opened at.
    window_start: u64,
    /// Workers respawned by the supervisor, lifetime.
    worker_restarts: u64,
    /// Jobs reclaimed from reaped workers and requeued, lifetime.
    jobs_reassigned: u64,
    /// Jobs declared poison, lifetime.
    poisoned_count: u64,
    /// Released poison verdicts, in release order (each journaled before
    /// the cursor passed it).
    poisoned_log: Vec<PoisonNotice>,
    /// Zombie completions discarded by the dedup guard, lifetime.
    stale_completions: u64,
    /// The last worker died with the restart budget spent. Distinct from
    /// journal quarantine (same `quarantined` gate, different exit):
    /// lifted by [`FleetIngest::scale_to`], not by a sink failover.
    workers_dead: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signaled when work becomes available or pause/shutdown changes.
    job_ready: Condvar,
    /// Signaled when a queue slot frees (wakes blocked submitters).
    slot_free: Condvar,
    /// Signaled when a job completes (wakes `finish`).
    job_done: Condvar,
    policy: BackpressurePolicy,
    /// Completion-side watermark (0 = unbounded); see
    /// [`IngestConfig::with_completion_watermark`].
    watermark: usize,
    /// When set, every record is appended as a [`crate::JournalEntry::Run`]
    /// *before* it is released by `take_ready` — the write-ahead point of
    /// the durability layer.
    journal: Option<Journal>,
    /// When set, submits are timestamped and workers record queue-wait
    /// spans at dispatch; `take_ready` records the journal group commit.
    /// Observation only — release order and records are unaffected.
    tracer: Option<PipelineTracer>,
    /// Serializes consumers through `take_ready`, so journal appends (done
    /// *outside* the state lock, where they would otherwise stall every
    /// worker on release-path I/O) still happen in release order.
    release_guard: Mutex<()>,
    /// Serializes submitters, so the `Accepted` write-ahead append (done
    /// *outside* the state lock for the same reason) lands in the journal
    /// in exactly the submission-sequence order — and so the admission
    /// check stays valid across the append (no competing submitter can
    /// fill the queue in between; workers only ever free slots).
    submit_guard: Mutex<()>,
    /// The retry policy every journal commit runs under.
    retry: RetryPolicy,
    /// Recycles the release-path record buffers: `take_ready` drains into
    /// a pooled `Vec`, and consumers hand the emptied container back via
    /// [`FleetIngest::recycle`]. Leaf lock — only ever taken while holding
    /// nothing or the state lock, never the other way around.
    pool: BufferPool<RunRecord>,
    /// The shared virtual clock the restart window is measured against.
    /// Advanced only by injected faults' spin loops — a healthy pipeline
    /// never pays for it. Deadlines do not read it: each spun tick is
    /// also charged to the spinning worker's own [`Assignment`].
    clock: AtomicU64,
    /// The supervisor's recovery ladder (restart budget, degradation,
    /// poison threshold).
    supervisor: SupervisorPolicy,
    /// Per-job deadline grace in virtual ticks (`None` = no watchdog).
    deadline_grace: Option<u64>,
    /// The installed worker fault schedule (empty = healthy pool; a
    /// non-empty one also runs [`Fleet::verify_record`] on every
    /// completion before it enters the completion log).
    worker_faults: WorkerFaultSchedule,
    /// The executor, held here so the supervisor can respawn workers
    /// from any thread (including a panicking worker's unwind guard).
    fleet: Fleet,
    /// Join handles of supervisor-respawned workers, joined by `finish`
    /// and `Drop`.
    respawned: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Locks the state, recovering from poisoning: workers never panic
    /// while holding the lock (jobs run outside it), and the reap guard
    /// handles worker death.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, condvar: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// The one submission path (a single `submit` is a one-job slice):
    /// admits `jobs` in capacity-sized slices, paying the submit guard once
    /// for the whole batch and, per slice, one grouped `Accepted` journal
    /// commit, one state-lock hold (sequence assignment plus a bulk queue
    /// push) and one condvar wake.
    fn submit_all(&self, jobs: &[JobSpec]) -> Result<Vec<u64>, BatchSubmitError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let fail = |seqs: Vec<u64>, error: SubmitError| BatchSubmitError {
            accepted: seqs,
            error,
        };
        let mut seqs = Vec::with_capacity(jobs.len());
        // One submitter at a time: the Accepted write-ahead append below
        // happens outside the state lock, and this guard is what keeps
        // (a) the journal's Accepted order equal to the sequence order
        // and (b) the admission decision valid across the append.
        let _submit = self
            .submit_guard
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut remaining = jobs;
        while !remaining.is_empty() {
            // Admission: how many fit right now (everything, if unbounded).
            let admit = {
                let mut state = self.lock();
                loop {
                    if state.shutting_down {
                        return Err(fail(seqs, SubmitError::ShutDown));
                    }
                    if state.quarantined {
                        return Err(fail(seqs, SubmitError::Quarantined));
                    }
                    let free = match state.queue.capacity() {
                        0 => remaining.len(),
                        cap => cap.saturating_sub(state.queue.len()),
                    };
                    if free > 0 {
                        break free.min(remaining.len());
                    }
                    match self.policy {
                        BackpressurePolicy::Reject => {
                            state.rejected += remaining.len() as u64;
                            return Err(fail(seqs, SubmitError::QueueFull));
                        }
                        BackpressurePolicy::Block => {
                            state = self.wait(&self.slot_free, state);
                        }
                    }
                }
            };
            let (slice, rest) = remaining.split_at(admit);
            remaining = rest;
            // The submission-side write-ahead point, batched: the whole
            // admitted slice becomes durable in one grouped Accepted commit
            // before any of it is visible to a worker. On exhaustion the
            // pipeline quarantines and the caller learns exactly which
            // prefix was accepted — those jobs are journaled and will run;
            // the slice and everything after it were refused.
            if let Some(journal) = &self.journal {
                let accepted: Vec<JournalEntry> =
                    slice.iter().cloned().map(JournalEntry::Accepted).collect();
                if let Err(e) = self.commit_with_retry(slice[0].id, slice[0].tenant, || {
                    journal.append_batch(&accepted)
                }) {
                    self.enter_quarantine(e, Vec::new());
                    return Err(fail(seqs, SubmitError::Quarantined));
                }
            }
            let mut state = self.lock();
            if state.shutting_down {
                // Shutdown raced the acceptance append; the orphan Accepted
                // entries are harmless (recovery reports them unreleased).
                return Err(fail(seqs, SubmitError::ShutDown));
            }
            let first_seq = state.next_seq;
            state.next_seq += admit as u64;
            state.submitted += admit as u64;
            if self.journal.is_some() {
                for (offset, job) in slice.iter().enumerate() {
                    state
                        .accepted
                        .insert(first_seq + offset as u64, job.clone());
                }
            }
            let submitted_at = self.tracer.as_ref().map(|_| std::time::Instant::now());
            state
                .queue
                .push_batch_at(first_seq, slice, submitted_at)
                .expect("slice admitted under the submit guard");
            seqs.extend(first_seq..first_seq + admit as u64);
            drop(state);
            // One wake per admitted slice, not per job.
            if admit == 1 {
                self.job_ready.notify_one();
            } else {
                self.job_ready.notify_all();
            }
        }
        Ok(seqs)
    }

    fn stats(&self) -> IngestStats {
        let state = self.lock();
        IngestStats {
            submitted: state.submitted,
            completed: state.completed_count,
            rejected: state.rejected,
            queued: state.queue.len(),
            ready: state.completed.len() + state.stalled.len(),
            inflight: state.inflight.clone(),
            retries: state.retries,
            journal_failures: state.journal_failures,
            quarantined: state.quarantined,
            workers: state.active_workers,
            worker_restarts: state.worker_restarts,
            reassigned: state.jobs_reassigned,
            poisoned: state.poisoned_count,
            stale_completions: state.stale_completions,
            pool: self.pool.stats(),
        }
    }

    /// The pipeline's durability health report.
    fn health(&self) -> FleetHealth {
        let state = self.lock();
        FleetHealth {
            quarantined: state.quarantined,
            journal_failures: state.journal_failures,
            retries: state.retries,
            backoff_ticks: state.backoff_ticks,
            stalled: state.stalled.len() as u64,
            pending_accepted: state.accepted.len() as u64,
            last_error: state.last_error.clone(),
            workers_live: state.active_workers,
            worker_restarts: state.worker_restarts,
            reassigned: state.jobs_reassigned,
            poisoned: state.poisoned_count,
            workers_dead: state.workers_dead,
        }
    }

    /// Runs one journal commit under the retry policy: bounded attempts,
    /// deterministic exponential backoff in *virtual ticks* (cooperative
    /// yields, never wall-clock sleeps), one [`Stage::JournalRetry`]
    /// aggregate span per failed attempt when tracing. Returns the last
    /// error on exhaustion — the caller quarantines; nothing here panics.
    fn commit_with_retry(
        &self,
        job: JobId,
        tenant: TenantId,
        mut commit: impl FnMut() -> Result<(), JournalError>,
    ) -> Result<(), JournalError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let started = self.tracer.as_ref().map(|_| std::time::Instant::now());
            let Err(error) = commit() else {
                return Ok(());
            };
            if let (Some(tracer), Some(started)) = (&self.tracer, started) {
                // A shared commit attempt is nobody's per-tenant latency:
                // aggregate cell only, attributed to the batch's first job.
                tracer.record_aggregate(Stage::JournalRetry, job, tenant, started.elapsed());
            }
            if attempt >= self.retry.max_attempts {
                return Err(error);
            }
            let ticks = self.retry.backoff_ticks(attempt);
            {
                let mut state = self.lock();
                state.retries += 1;
                state.backoff_ticks += ticks;
            }
            for _ in 0..ticks {
                std::thread::yield_now();
            }
        }
    }

    /// Flips the pipeline into quarantine: `stalled` (the batch whose
    /// commit exhausted the policy — empty for a submission-side failure)
    /// is parked at the release cursor, releases stop, submits fail fast,
    /// and every waiter wakes to observe the state. Lifted only by
    /// [`Shared::resume_after_failover`].
    fn enter_quarantine(&self, error: JournalError, stalled: Vec<RunRecord>) {
        let mut state = self.lock();
        state.quarantined = true;
        state.journal_failures += 1;
        state.last_error = Some(error.to_string());
        debug_assert!(
            state.stalled.is_empty(),
            "a quarantined pipeline releases nothing, so at most one batch can stall"
        );
        state.stalled = stalled;
        drop(state);
        self.job_ready.notify_all();
        self.slot_free.notify_all();
        self.job_done.notify_all();
    }

    /// Completes a failover after [`Journal::fail_over`] swapped in a
    /// fresh sink: re-journals the pending accepted set (so the new sink
    /// is recoverable on its own, accepted-but-unreleased jobs included)
    /// and lifts the quarantine. On error the pipeline *stays*
    /// quarantined — the replacement sink is failing too.
    fn resume_after_failover(&self) -> Result<(), JournalError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let accepted: Vec<JournalEntry> = {
            let state = self.lock();
            state
                .accepted
                .values()
                .cloned()
                .map(JournalEntry::Accepted)
                .collect()
        };
        journal.append_batch(&accepted)?;
        let mut state = self.lock();
        if state.workers_dead {
            // A dead worker pool is not a journal problem: the sink swap
            // succeeded, but only scale_to can staff the pool again.
            return Err(JournalError::Io(
                "fleet workers are all dead; scale_to a live pool before resuming".to_string(),
            ));
        }
        state.quarantined = false;
        state.last_error = None;
        drop(state);
        self.job_ready.notify_all();
        self.slot_free.notify_all();
        Ok(())
    }

    /// The most jobs one worker pulls per lock acquisition. Bounds the
    /// latency skew batching can introduce (a worker never hoards more
    /// than this while its peers idle); the fair-share cap below usually
    /// bites first.
    const MAX_PULL: usize = 8;

    /// The virtual-tick execution budget for a job: its declared workload
    /// length (user seconds at the job's scale) at one tick per simulated
    /// millisecond, at least one tick. The job's worker may spin this plus
    /// the configured grace before it is reaped.
    fn cost_ticks(job: &JobSpec) -> u64 {
        let user_secs = job.workload.spec(job.scale).user_secs;
        (user_secs * 1000.0).ceil().max(1.0) as u64
    }

    /// Worker loop: pop a fair batch, execute it outside the lock, log the
    /// completions under one lock hold. Batching amortizes the state lock
    /// and condvar traffic without changing anything observable downstream:
    /// pops stay round-robin (the dispatch log is identical), and the
    /// completion log is keyed by submission sequence, so release order —
    /// and therefore reports, ledgers and metering — is bit-identical to
    /// one-job-at-a-time pulls.
    ///
    /// Every pop registers an [`Assignment`] under this worker's
    /// generation; the fault schedule is consulted per (job, attempt)
    /// before execution; completions go through the dedup guard in
    /// [`Shared::complete`]. A worker that learns it was reaped abandons
    /// its remaining batch (the reaper already reclaimed it) and exits.
    fn work(shared: &Arc<Shared>, gen: u64) {
        let fleet = &shared.fleet;
        let mut batch: Vec<crate::queue::QueuedJob> = Vec::with_capacity(Self::MAX_PULL);
        loop {
            {
                let mut state = shared.lock();
                loop {
                    if state.dead_workers.contains(&gen) {
                        // Reaped while idle; the reaper already adjusted
                        // the live count and reclaimed any assignments.
                        return;
                    }
                    if state.paused && !state.shutting_down {
                        state = shared.wait(&shared.job_ready, state);
                        continue;
                    }
                    if state.shutting_down && state.discard_queued {
                        // Teardown without finish(): abandon the backlog.
                        state.active_workers -= 1;
                        return;
                    }
                    // Scale-down: consume a shrink token and exit. Ignored
                    // while shutting down — finish() needs every worker
                    // still alive to drain the backlog.
                    if !state.shutting_down && state.active_workers > state.worker_target {
                        state.active_workers -= 1;
                        return;
                    }
                    // Completion watermark: don't start new work while the
                    // unconsumed completion log (plus what's already in
                    // flight) is at the limit. A graceful shutdown lifts
                    // the watermark — finish() consumes everything.
                    let mut budget = usize::MAX;
                    if shared.watermark > 0 && !state.shutting_down {
                        let inflight: u64 = state.inflight.values().sum();
                        let used = state.completed.len() as u64 + inflight;
                        if used >= shared.watermark as u64 {
                            state = shared.wait(&shared.job_ready, state);
                            continue;
                        }
                        budget = (shared.watermark as u64 - used) as usize;
                    }
                    if state.queue.is_empty() {
                        if state.shutting_down {
                            state.active_workers -= 1;
                            return;
                        }
                        state = shared.wait(&shared.job_ready, state);
                        continue;
                    }
                    // Pull a batch: watermark-respecting, capped, and no
                    // more than this worker's fair share of the backlog so
                    // one worker cannot strip-mine the queue while its
                    // peers idle.
                    let share = state.queue.len().div_ceil(state.active_workers.max(1));
                    let max = Self::MAX_PULL.min(budget).min(share).max(1);
                    let dispatch_stamp = shared.tracer.as_ref().map(|_| std::time::Instant::now());
                    while batch.len() < max {
                        let Some(queued) = state.queue.pop() else {
                            break;
                        };
                        state.dispatch_log.push((queued.job.id, queued.job.tenant));
                        *state.inflight.entry(queued.job.tenant).or_insert(0) += 1;
                        // The first batch item starts executing right away;
                        // the rest start as their predecessors complete.
                        state.assignments.insert(
                            queued.seq,
                            Assignment {
                                job: queued.job.clone(),
                                worker: gen,
                                attempt: queued.attempt,
                                started: batch.is_empty(),
                                spent: 0,
                                dispatched_at: dispatch_stamp,
                            },
                        );
                        batch.push(queued);
                    }
                    break;
                }
            }
            if batch.len() == 1 {
                shared.slot_free.notify_one();
            } else {
                shared.slot_free.notify_all();
            }

            let mut abandoned = false;
            for idx in 0..batch.len() {
                let queued = &batch[idx];
                let next_seq = batch.get(idx + 1).map(|q| q.seq);
                // Dispatch closed the queue-wait window at pop; record it
                // outside the state lock so tracing never stalls workers.
                if let (Some(tracer), Some(submitted_at)) = (&shared.tracer, queued.submitted_at) {
                    tracer.record(
                        Stage::QueueWait,
                        queued.job.id,
                        queued.job.tenant,
                        submitted_at.elapsed(),
                    );
                }

                // Consult the fault schedule for this (job, attempt).
                let fault = shared
                    .worker_faults
                    .fault_for(queued.job.id, queued.attempt);
                let record = match fault {
                    Some(WorkerFaultKind::Panic) => panic!(
                        "injected worker fault: panic executing job {} (attempt {})",
                        queued.job.id.0, queued.attempt
                    ),
                    Some(WorkerFaultKind::Hang { ticks }) => {
                        if !Shared::spin_ticks(shared, gen, queued.seq, ticks) {
                            abandoned = true;
                            break;
                        }
                        fleet.run_one(&queued.job)
                    }
                    Some(WorkerFaultKind::SlowDown { factor }) => {
                        let extra =
                            Self::cost_ticks(&queued.job).saturating_mul(factor.saturating_sub(1));
                        if !Shared::spin_ticks(shared, gen, queued.seq, extra) {
                            abandoned = true;
                            break;
                        }
                        fleet.run_one(&queued.job)
                    }
                    Some(WorkerFaultKind::WrongResult) => {
                        // A lying executor: bill more than was done. The
                        // completion-side quote check catches it — the
                        // quote's MAC covers the honest usage.
                        let mut record = fleet.run_one(&queued.job);
                        record.outcome.victim_billed.utime.0 =
                            record.outcome.victim_billed.utime.0.wrapping_add(1_000_000);
                        record
                    }
                    None => fleet.run_one(&queued.job),
                };

                match shared.complete(gen, queued.seq, next_seq, record, fleet) {
                    CompletionOutcome::Accepted => {}
                    CompletionOutcome::Zombie => {
                        abandoned = true;
                        break;
                    }
                    CompletionOutcome::Rejected => {
                        Shared::reap(
                            shared,
                            gen,
                            "completion failed record verification (wrong-result executor)",
                        );
                        abandoned = true;
                        break;
                    }
                }
            }
            batch.clear();
            if abandoned {
                // The reaper reclaimed whatever this worker still held;
                // exit without touching counters it already adjusted.
                return;
            }
        }
    }

    /// Logs one execution result into the completion log, guarded against
    /// zombies: the record is accepted only if this worker's generation
    /// still owns the live assignment for `seq` — a reaped worker
    /// finishing late can never double-release or burn a chain link. On
    /// acceptance, the next batch item starts under the same lock hold.
    fn complete(
        &self,
        gen: u64,
        seq: u64,
        next_seq: Option<u64>,
        record: RunRecord,
        fleet: &Fleet,
    ) -> CompletionOutcome {
        if !self.worker_faults.is_empty() && fleet.verify_record(&record).is_err() {
            return CompletionOutcome::Rejected;
        }
        let mut state = self.lock();
        let live = !state.dead_workers.contains(&gen)
            && state
                .assignments
                .get(&seq)
                .is_some_and(|assignment| assignment.worker == gen);
        if !live {
            // The dedup guard: this worker was reaped (its job already
            // reassigned, maybe even re-executed and released) — the
            // stale record is discarded, never logged.
            state.stale_completions += 1;
            return CompletionOutcome::Zombie;
        }
        state.assignments.remove(&seq);
        let tenant = record.job.tenant;
        if let Some(inflight) = state.inflight.get_mut(&tenant) {
            *inflight -= 1;
            if *inflight == 0 {
                state.inflight.remove(&tenant);
            }
        }
        state
            .completed
            .insert(seq, Completion::Record(Box::new(record)));
        state.completed_count += 1;
        if let Some(next) = next_seq.and_then(|next| state.assignments.get_mut(&next)) {
            if next.worker == gen {
                next.started = true;
            }
        }
        drop(state);
        self.job_done.notify_all();
        CompletionOutcome::Accepted
    }

    /// Burns `ticks` virtual ticks on the job at `seq`: each tick advances
    /// the shared clock (which only the restart window reads) and is
    /// charged to this worker's own assignment, so a hanging or slowed
    /// worker deterministically reaps *itself* the tick its job's spent
    /// ticks pass `grace + cost_ticks(job)` — detection is in ticks, not
    /// wall clock, a healthy pipeline (no injected faults) never spends
    /// any, and one worker's spinning never expires another's job.
    /// Returns `false` if this worker was reaped or the pipeline began
    /// discarding (the caller abandons its batch).
    fn spin_ticks(shared: &Arc<Shared>, gen: u64, seq: u64, ticks: u64) -> bool {
        for _ in 0..ticks {
            shared.clock.fetch_add(1, Ordering::Relaxed);
            let overdue = {
                let mut state = shared.lock();
                if state.dead_workers.contains(&gen) {
                    return false;
                }
                if state.shutting_down && state.discard_queued {
                    state.active_workers = state.active_workers.saturating_sub(1);
                    return false;
                }
                state.assignments.get_mut(&seq).is_some_and(|running| {
                    running.spent += 1;
                    shared.deadline_grace.is_some_and(|grace| {
                        running.spent > grace.saturating_add(Self::cost_ticks(&running.job))
                    })
                })
            };
            if overdue {
                Shared::reap(
                    shared,
                    gen,
                    "job deadline expired (hung or pathologically slow worker)",
                );
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Reaps a worker: marks its generation dead (anything it still runs
    /// is zombie code whose completions the dedup guard discards),
    /// reclaims its in-flight assignments — requeueing each at the same
    /// sequence number with the attempt advanced, or declaring it poison
    /// once it has burned [`SupervisorPolicy::max_job_attempts`] workers
    /// — and respawns a replacement under the restart budget. Budget
    /// dry → the pool degrades; last worker dead → the fleet
    /// quarantines. Called from the unwind guard (panicked worker), the
    /// spin loop (overdue worker) and the completion verifier (lying
    /// worker); it must never panic — it runs during unwinds.
    fn reap(shared: &Arc<Shared>, gen: u64, reason: &str) {
        let mut respawn_gen = None;
        let mut reassigned: Vec<(JobId, TenantId, Option<std::time::Instant>)> = Vec::new();
        {
            let mut state = shared.lock();
            if state.dead_workers.contains(&gen) {
                return; // a competing detector got here first
            }
            state.dead_workers.insert(gen);
            state.active_workers = state.active_workers.saturating_sub(1);
            // Reclaim everything the dead worker held. Requeueing keeps
            // the original sequence numbers, so release order — and every
            // bit of downstream output — is unchanged; re-execution is
            // safe because the kernel is deterministic from the fleet
            // seed and job id.
            let seqs: Vec<u64> = state
                .assignments
                .iter()
                .filter(|(_, a)| a.worker == gen)
                .map(|(seq, _)| *seq)
                .collect();
            for seq in seqs {
                let Some(assignment) = state.assignments.remove(&seq) else {
                    continue;
                };
                if let Some(inflight) = state.inflight.get_mut(&assignment.job.tenant) {
                    *inflight = inflight.saturating_sub(1);
                    if *inflight == 0 {
                        state.inflight.remove(&assignment.job.tenant);
                    }
                }
                state.jobs_reassigned += 1;
                reassigned.push((
                    assignment.job.id,
                    assignment.job.tenant,
                    assignment.dispatched_at,
                ));
                // Only the assignment actually *executing* consumed an
                // attempt; batch-mates the worker never started requeue at
                // their current attempt, so the fault schedule still
                // addresses their first execution.
                if assignment.started && assignment.attempt >= shared.supervisor.max_job_attempts {
                    // Poison: this job has killed max_job_attempts workers
                    // in a row. A tombstone lets the release cursor pass
                    // it; the verdict is journaled at release. The rest of
                    // the fleet keeps flowing.
                    state.poisoned_count += 1;
                    state.completed.insert(
                        seq,
                        Completion::Poisoned(PoisonNotice {
                            spec: assignment.job,
                            attempts: assignment.attempt,
                        }),
                    );
                } else {
                    let attempt = if assignment.started {
                        assignment.attempt + 1
                    } else {
                        assignment.attempt
                    };
                    state.queue.requeue(seq, assignment.job, attempt);
                }
            }
            // The restart ladder. Respawning continues during a graceful
            // finish (the drain needs workers) but not during teardown.
            if !(state.shutting_down && state.discard_queued) {
                let now = shared.clock.load(Ordering::Relaxed);
                if shared.supervisor.restart_window > 0
                    && now.saturating_sub(state.window_start) >= shared.supervisor.restart_window
                {
                    state.window_start = now;
                    state.restarts_in_window = 0;
                }
                if state.restarts_in_window < shared.supervisor.max_restarts {
                    state.restarts_in_window += 1;
                    state.worker_restarts += 1;
                    state.active_workers += 1;
                    let next_gen = state.spawned_total;
                    state.spawned_total += 1;
                    respawn_gen = Some(next_gen);
                } else {
                    // Budget spent: degrade to the surviving pool size.
                    state.worker_target = state.worker_target.min(state.active_workers.max(1));
                    if state.active_workers == 0 {
                        state.workers_dead = true;
                        state.quarantined = true;
                        state.last_error = Some(format!(
                            "last worker died with the restart budget spent: {reason}"
                        ));
                    }
                }
            }
        }
        // Spans and the respawn happen outside the state lock.
        if let Some(tracer) = &shared.tracer {
            for (job, tenant, dispatched_at) in &reassigned {
                // Reclaiming is nobody's per-tenant latency: aggregate
                // cell only, one span per reassigned job.
                let elapsed = dispatched_at.map(|at| at.elapsed()).unwrap_or_default();
                tracer.record_aggregate(Stage::Reassign, *job, *tenant, elapsed);
            }
        }
        if let Some(next_gen) = respawn_gen {
            let handle = Shared::spawn_worker(shared, next_gen);
            shared
                .respawned
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle);
        }
        shared.job_ready.notify_all();
        shared.job_done.notify_all();
        shared.slot_free.notify_all();
    }

    /// Spawns one worker thread at generation `gen` (startup, scale-up
    /// and supervisor respawns all come through here).
    fn spawn_worker(shared: &Arc<Shared>, gen: u64) -> JoinHandle<()> {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("fleet-ingest-{gen}"))
            .spawn(move || {
                // Reap on unwind: a panicking job (injected or real) gets
                // its worker reaped, its batch reassigned and a
                // replacement respawned — the panic never escapes the
                // pool and never takes the drain target down with it. On a
                // normal exit the guard only drops its `Arc<Shared>`, so
                // the pool's state (queue, pooled buffers, tracer, journal
                // handle) is freed with the pool.
                let _guard = WorkerReapGuard {
                    shared: Arc::clone(&shared),
                    gen,
                };
                Shared::work(&shared, gen);
            })
            .expect("spawn ingest worker")
    }

    /// Removes and returns the contiguous run of completed records starting
    /// at the release cursor, in submission order. With a journal attached,
    /// the **whole ready prefix** is serialized into the journal's reused
    /// buffer and committed as one [`crate::JournalEntry::Run`] group
    /// commit **before** the release cursor advances — the write-ahead
    /// guarantee: a record a consumer ever observes (and bills) is already
    /// durable, and a record that was never journaled was never released.
    /// Batching the prefix costs one sink write (and one flush/fsync
    /// decision) per pump instead of one per record.
    ///
    /// Journal I/O happens under the consumer-only release guard, *not*
    /// the worker-shared state lock, so workers keep completing jobs while
    /// the consumer pays for the write-ahead commit.
    ///
    /// This never panics on I/O. The commit runs under the configured
    /// [`RetryPolicy`]; on exhaustion the batch is parked and the
    /// pipeline quarantines ([`Shared::enter_quarantine`]) — the release
    /// cursor never advances past an un-journaled record, so nothing is
    /// ever released unjournaled, under any fault schedule. A quarantined
    /// pipeline returns an empty batch until a failover lifts the
    /// quarantine, after which the parked batch drains first.
    fn take_ready(&self) -> Vec<RunRecord> {
        let _release = self
            .release_guard
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // The completion log now interleaves records with poison
        // tombstones, so the contiguous prefix drains in segments: runs
        // of records group-commit as one Run entry; each tombstone
        // journals its own chained Poisoned verdict. Record buffers are
        // pooled (or the parked quarantine batch, which is pooled too).
        enum Segment {
            Records(Vec<RunRecord>),
            Poison(PoisonNotice),
        }
        let mut out: Option<Vec<RunRecord>> = None;
        loop {
            let (first, segment) = {
                let mut state = self.lock();
                if state.quarantined {
                    break;
                }
                let first = state.released;
                if !state.stalled.is_empty() {
                    // A quarantine parked these records exactly at the
                    // release cursor; they drain first.
                    let mut ready = std::mem::take(&mut state.stalled);
                    Self::drain_contiguous_records(&mut state, first, &mut ready);
                    (first, Segment::Records(ready))
                } else {
                    match state.completed.get(&first) {
                        Some(Completion::Record(_)) => {
                            let mut ready = self.pool.acquire();
                            Self::drain_contiguous_records(&mut state, first, &mut ready);
                            (first, Segment::Records(ready))
                        }
                        Some(Completion::Poisoned(_)) => {
                            let Some(Completion::Poisoned(notice)) = state.completed.remove(&first)
                            else {
                                unreachable!("entry observed under the same lock hold");
                            };
                            (first, Segment::Poison(notice))
                        }
                        None => break,
                    }
                }
            };
            match segment {
                Segment::Records(ready) => {
                    debug_assert!(!ready.is_empty(), "record segments start non-empty");
                    if let Some(journal) = &self.journal {
                        // The batch is durable before the cursor advances.
                        let commit_started =
                            self.tracer.as_ref().map(|_| std::time::Instant::now());
                        let runs: Vec<JournalEntry> =
                            ready.iter().cloned().map(JournalEntry::run).collect();
                        if let Err(e) =
                            self.commit_with_retry(ready[0].job.id, ready[0].job.tenant, || {
                                journal.append_batch(&runs)
                            })
                        {
                            // Retry policy exhausted: park the batch
                            // (un-released, un-journaled — the cursor still
                            // points at its first record) and close the
                            // billing boundary.
                            self.enter_quarantine(e, ready);
                            break;
                        }
                        if let (Some(tracer), Some(started)) = (&self.tracer, commit_started) {
                            // One group commit covers the whole prefix;
                            // attribute the span to its first record
                            // (aggregate cell only — a shared commit is
                            // nobody's per-tenant latency).
                            tracer.record_aggregate(
                                Stage::JournalCommit,
                                ready[0].job.id,
                                ready[0].job.tenant,
                                started.elapsed(),
                            );
                        }
                    }
                    let mut state = self.lock();
                    debug_assert_eq!(state.released, first, "release guard serializes consumers");
                    state.released = first + ready.len() as u64;
                    // The released records' Accepted markers are no longer
                    // pending: a Run entry now vouches for each of them.
                    if !state.accepted.is_empty() {
                        for seq in first..state.released {
                            state.accepted.remove(&seq);
                        }
                    }
                    drop(state);
                    match &mut out {
                        None => out = Some(ready),
                        Some(acc) => acc.extend(ready),
                    }
                }
                Segment::Poison(notice) => {
                    // A poison verdict is released by journaling it — the
                    // chained Poisoned entry is the tenant-auditable
                    // outcome; there is no record to hand out.
                    if let Some(journal) = &self.journal {
                        let entry = [JournalEntry::poisoned(notice.clone())];
                        if let Err(e) =
                            self.commit_with_retry(notice.spec.id, notice.spec.tenant, || {
                                journal.append_batch(&entry)
                            })
                        {
                            // Put the tombstone back; the cursor has not
                            // moved past it.
                            let mut state = self.lock();
                            state.completed.insert(first, Completion::Poisoned(notice));
                            drop(state);
                            self.enter_quarantine(e, Vec::new());
                            break;
                        }
                    }
                    let mut state = self.lock();
                    debug_assert_eq!(state.released, first, "release guard serializes consumers");
                    state.released = first + 1;
                    state.accepted.remove(&first);
                    state.poisoned_log.push(notice);
                }
            }
        }
        // Wake workers stalled on the completion watermark.
        self.job_ready.notify_all();
        out.unwrap_or_default()
    }

    /// Moves the contiguous run of records starting at `first +
    /// ready.len()` out of the completion log into `ready`, stopping at
    /// the first gap or poison tombstone (which stays put for the next
    /// segment).
    fn drain_contiguous_records(state: &mut State, first: u64, ready: &mut Vec<RunRecord>) {
        loop {
            let seq = first + ready.len() as u64;
            match state.completed.get(&seq) {
                Some(Completion::Record(_)) => {
                    let Some(Completion::Record(record)) = state.completed.remove(&seq) else {
                        unreachable!("entry observed under the same lock hold");
                    };
                    ready.push(*record);
                }
                _ => break,
            }
        }
    }
}

/// Reaps its worker on unwind (a panicking simulated run — injected or
/// real); a normal exit only releases its `Arc<Shared>`.
struct WorkerReapGuard {
    shared: Arc<Shared>,
    gen: u64,
}

impl Drop for WorkerReapGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            Shared::reap(&self.shared, self.gen, "worker panicked mid-job");
        }
    }
}

/// The streaming ingestion pipeline: a worker pool over a bounded,
/// per-tenant-fair submission queue. See the [module docs](self).
///
/// Dropping a `FleetIngest` without calling [`FleetIngest::finish`] tears
/// the pipeline down: queued jobs are discarded, running jobs complete,
/// workers are joined, and blocked submitters are released with
/// [`SubmitError::ShutDown`]. Call `finish` to drain instead.
#[derive(Debug)]
pub struct FleetIngest {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// A cloneable, `Send` handle for submitting jobs to a [`FleetIngest`] from
/// other threads (each tenant can stream from its own thread).
#[derive(Debug, Clone)]
pub struct IngestHandle {
    shared: Arc<Shared>,
}

impl IngestHandle {
    /// Submits one job; returns its submission sequence number.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under [`BackpressurePolicy::Reject`] with
    /// a full queue; [`SubmitError::ShutDown`] once the pipeline is
    /// finishing.
    pub fn submit(&self, job: JobSpec) -> Result<u64, SubmitError> {
        self.submit_all(std::slice::from_ref(&job))
            .map(|seqs| seqs[0])
            .map_err(|e| e.error)
    }

    /// Submits a batch of jobs; see [`FleetIngest::submit_all`].
    ///
    /// # Errors
    /// [`BatchSubmitError`] carrying the accepted prefix and the
    /// [`SubmitError`] that stopped the batch.
    pub fn submit_all(&self, jobs: &[JobSpec]) -> Result<Vec<u64>, BatchSubmitError> {
        self.shared.submit_all(jobs)
    }

    /// A snapshot of the pipeline counters and gauges.
    pub fn stats(&self) -> IngestStats {
        self.shared.stats()
    }
}

impl FleetIngest {
    /// Spawns `config.workers` workers over `fleet`, write-ahead
    /// journaling every accepted spec and released record into `journal`
    /// when one is given (see the [`crate::journal`] module docs). The
    /// fleet's tracer, if any, also records the pipeline's queue-wait and
    /// journal-commit spans.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn new(fleet: Fleet, config: IngestConfig, journal: Option<Journal>) -> FleetIngest {
        assert!(
            config.workers > 0,
            "an ingest pipeline needs at least one worker"
        );
        let tracer = fleet.tracer().cloned();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: FairQueue::new(config.capacity),
                next_seq: 0,
                completed: BTreeMap::new(),
                released: 0,
                dispatch_log: Vec::new(),
                inflight: BTreeMap::new(),
                submitted: 0,
                completed_count: 0,
                rejected: 0,
                paused: config.start_paused,
                shutting_down: false,
                discard_queued: false,
                quarantined: false,
                stalled: Vec::new(),
                retries: 0,
                journal_failures: 0,
                backoff_ticks: 0,
                last_error: None,
                accepted: BTreeMap::new(),
                worker_target: config.workers,
                active_workers: config.workers,
                assignments: BTreeMap::new(),
                dead_workers: BTreeSet::new(),
                spawned_total: config.workers as u64,
                restarts_in_window: 0,
                window_start: 0,
                worker_restarts: 0,
                jobs_reassigned: 0,
                poisoned_count: 0,
                poisoned_log: Vec::new(),
                stale_completions: 0,
                workers_dead: false,
            }),
            job_ready: Condvar::new(),
            slot_free: Condvar::new(),
            job_done: Condvar::new(),
            policy: config.backpressure,
            watermark: config.completion_watermark,
            journal,
            tracer,
            release_guard: Mutex::new(()),
            submit_guard: Mutex::new(()),
            retry: config.retry,
            pool: BufferPool::new(),
            clock: AtomicU64::new(0),
            supervisor: config.supervisor,
            deadline_grace: config.job_deadline,
            worker_faults: config.worker_faults,
            fleet,
            respawned: Mutex::new(Vec::new()),
        });
        let workers = (0..config.workers)
            .map(|i| Shared::spawn_worker(&shared, i as u64))
            .collect();
        FleetIngest { shared, workers }
    }

    /// Resizes the worker pool to `workers` threads (clamped to at least
    /// one). Growing spawns immediately; shrinking is cooperative — each
    /// surplus worker finishes the batch it holds and exits at the top of
    /// its loop, so no job is ever abandoned mid-run. During shutdown the
    /// target is ignored: `finish` keeps every worker alive to drain.
    pub fn scale_to(&mut self, workers: usize) {
        let target = workers.max(1);
        let gens: Vec<u64> = {
            let mut state = self.shared.lock();
            if state.shutting_down {
                return;
            }
            state.worker_target = target;
            let grow = target.saturating_sub(state.active_workers);
            // Count the spawns now, under the lock, so the fair-share
            // batch cap sees the new pool size immediately.
            state.active_workers += grow;
            if grow > 0 && state.workers_dead {
                // A fresh pool revives a fleet whose last worker died
                // with the restart budget spent.
                state.workers_dead = false;
                state.quarantined = false;
                state.last_error = None;
            }
            let first = state.spawned_total;
            state.spawned_total += grow as u64;
            (first..first + grow as u64).collect()
        };
        let grew = !gens.is_empty();
        for gen in gens {
            self.workers.push(Shared::spawn_worker(&self.shared, gen));
        }
        if grew {
            // New workers (and possibly a revived pipeline) need waking
            // submitters and consumers.
            self.shared.slot_free.notify_all();
        }
        // Wake idle workers: on a shrink, surplus ones consume their
        // shrink tokens without waiting for the next submission.
        self.shared.job_ready.notify_all();
    }

    /// Sets a tenant's fairness weight: how many jobs its lane may release
    /// per rotation turn (deficit round robin). Weight 1 (the default) is
    /// plain round-robin; 0 is clamped to 1. Takes effect from the lane's
    /// next turn.
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        self.shared.lock().queue.set_weight(tenant, weight);
    }

    /// Submits one job; returns its submission sequence number.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under [`BackpressurePolicy::Reject`] with
    /// a full queue; [`SubmitError::ShutDown`] once the pipeline is
    /// finishing.
    pub fn submit(&self, job: JobSpec) -> Result<u64, SubmitError> {
        self.submit_all(std::slice::from_ref(&job))
            .map(|seqs| seqs[0])
            .map_err(|e| e.error)
    }

    /// Submits a batch of jobs, paying the submission-path synchronization
    /// (submit guard, `Accepted` journal group commit, state lock, worker
    /// wake) once per admitted slice instead of once per job. Sequence
    /// numbers, queue fairness, journal bytes and every downstream artifact
    /// are bit-identical to submitting the same jobs one at a time.
    ///
    /// Under [`BackpressurePolicy::Block`] a batch larger than the queue
    /// capacity is admitted in capacity-sized slices, blocking between
    /// slices until slots free.
    ///
    /// # Errors
    /// [`BatchSubmitError`] carrying the sequence numbers of the accepted
    /// prefix (those jobs are in the pipeline and will run) and the
    /// [`SubmitError`] that stopped the rest of the batch.
    pub fn submit_all(&self, jobs: &[JobSpec]) -> Result<Vec<u64>, BatchSubmitError> {
        self.shared.submit_all(jobs)
    }

    /// A cloneable handle for submitting from other threads.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A snapshot of the pipeline counters and gauges.
    pub fn stats(&self) -> IngestStats {
        self.shared.stats()
    }

    /// The pipeline's durability health report: quarantine state, retry
    /// and failure counters, parked work (see [`FleetHealth`]).
    pub fn health(&self) -> FleetHealth {
        self.shared.health()
    }

    /// Fails the journal over to a **fresh** sink (e.g. a new segment
    /// directory on a healthy disk) and lifts the quarantine. The swap
    /// keeps chain continuity — the evidence chain head only advances on
    /// successful commits, so the new sink's first line continues exactly
    /// where the dead sink's last committed line left off — and the
    /// pending accepted set is re-journaled into the new sink so it is
    /// recoverable on its own, accepted-but-unreleased jobs included.
    /// The next [`FleetIngest::take_ready`] drains the parked batch.
    ///
    /// Callers going through [`crate::FleetStream`] should use
    /// [`crate::FleetStream::resume_with_sink`] instead, which also
    /// writes a leading checkpoint so the new sink replays standalone.
    ///
    /// # Errors
    /// [`JournalError::Io`] if the pipeline has no journal, or if the
    /// replacement sink rejects the re-journaled accepted set — in which
    /// case the pipeline stays quarantined.
    pub fn resume_with_sink(&self, sink: Box<dyn JournalSink>) -> Result<(), JournalError> {
        let Some(journal) = &self.shared.journal else {
            return Err(JournalError::Io(
                "ingest pipeline has no journal to fail over".to_string(),
            ));
        };
        journal.fail_over(sink);
        self.shared.resume_after_failover()
    }

    /// The second half of a failover, for callers that swap the sink and
    /// write their own leading entries first (see
    /// [`crate::FleetStream::resume_with_sink`]): re-journals the pending
    /// accepted set and lifts the quarantine.
    pub(crate) fn resume_after_failover(&self) -> Result<(), JournalError> {
        self.shared.resume_after_failover()
    }

    /// Stops dispatching new jobs (running jobs finish normally).
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Resumes dispatch after [`FleetIngest::pause`].
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.job_ready.notify_all();
    }

    /// The dispatch order so far — which job each worker popped, in pop
    /// order. This is the observable fairness record: with a backlog from
    /// several tenants, consecutive entries round-robin across tenants.
    pub fn dispatch_log(&self) -> Vec<(JobId, TenantId)> {
        self.shared.lock().dispatch_log.clone()
    }

    /// Removes and returns all completed records that form a contiguous
    /// run in submission order (the stream analogue of a batch result
    /// prefix). Records completed out of order are held back until the gap
    /// fills, so consumers always observe submission order. Poison
    /// verdicts release in the same order (their journaled `Poisoned`
    /// entry is the release) but yield no record — read them from
    /// [`FleetIngest::poisoned`] or [`IngestOutcome::poisoned`].
    pub fn take_ready(&self) -> Vec<RunRecord> {
        self.shared.take_ready()
    }

    /// The poison verdicts released so far: jobs that killed
    /// [`SupervisorPolicy::max_job_attempts`] workers in a row and were
    /// retired with a journaled [`crate::JournalEntry::Poisoned`] entry
    /// instead of a record. In release (submission) order.
    pub fn poisoned(&self) -> Vec<PoisonNotice> {
        self.shared.lock().poisoned_log.clone()
    }

    /// Hands a consumed [`FleetIngest::take_ready`] buffer back to the
    /// release-path pool: the container is cleared (leftover records are
    /// dropped) and its capacity is reused by the next release batch. Pool
    /// traffic shows up in [`IngestStats::pool`]. Purely an allocator
    /// optimization — skipping it just means the next batch allocates.
    pub fn recycle(&self, buffer: Vec<RunRecord>) {
        self.shared.pool.release(buffer);
    }

    /// Graceful shutdown: stops accepting new submissions, drains every
    /// queued job, joins the workers, and returns all records not yet taken
    /// via [`FleetIngest::take_ready`] (in submission order) plus the final
    /// dispatch log and counters.
    ///
    /// Finishing while **quarantined** still executes and joins everything,
    /// but releases nothing: the parked and completed records stay behind
    /// the closed billing boundary (never journaled ⇒ never billed), and
    /// `outcome.records` is empty with `outcome.stats.quarantined` set.
    /// Fail over with [`FleetIngest::resume_with_sink`] *before* finishing
    /// to drain them instead.
    pub fn finish(mut self) -> IngestOutcome {
        {
            let mut state = self.shared.lock();
            state.shutting_down = true;
            // Draining overrides pause: a paused pipeline still finishes.
            state.paused = false;
            let target = state.submitted;
            // Every submitted job resolves to either a completed record
            // or a poison tombstone; the supervisor respawns through the
            // drain, so the target stays reachable — unless the whole
            // pool is dead with the restart budget spent.
            while state.completed_count + state.poisoned_count < target && !state.workers_dead {
                self.shared.job_ready.notify_all();
                state = self.shared.wait(&self.shared.job_done, state);
            }
            if state.workers_dead {
                // Nothing left to execute the backlog; release what did
                // complete and report the degraded state in the stats.
                state.discard_queued = true;
            }
        }
        // Wake everyone: idle workers exit, blocked submitters see ShutDown.
        self.shared.job_ready.notify_all();
        self.shared.slot_free.notify_all();
        for worker in self.workers.drain(..) {
            // Panicked workers were already reaped by their unwind guard;
            // their handles just carry the panic payload.
            let _ = worker.join();
        }
        loop {
            // Supervisor respawns can themselves respawn; drain until the
            // set is stable.
            let drained: Vec<JoinHandle<()>> = {
                let mut respawned = self
                    .shared
                    .respawned
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                std::mem::take(&mut *respawned)
            };
            if drained.is_empty() {
                break;
            }
            for worker in drained {
                let _ = worker.join();
            }
        }
        let records = self.shared.take_ready();
        let stats = self.shared.stats();
        let poisoned = self.shared.lock().poisoned_log.clone();
        IngestOutcome {
            records,
            dispatch_log: self.dispatch_log(),
            stats,
            poisoned,
            health: self.shared.health(),
        }
    }
}

impl Drop for FleetIngest {
    /// Teardown without [`FleetIngest::finish`] (early return, panic
    /// unwind, plain drop): discard queued jobs, release blocked
    /// submitters, join the workers. Never blocks longer than the jobs
    /// already running.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // finish() already joined everything
        }
        {
            let mut state = self.shared.lock();
            state.shutting_down = true;
            state.discard_queued = true;
            state.paused = false;
        }
        self.shared.job_ready.notify_all();
        self.shared.slot_free.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked mid-job was already reaped by its
            // unwind guard; don't double-panic during teardown.
            let _ = worker.join();
        }
        let respawned: Vec<JoinHandle<()>> = {
            let mut respawned = self
                .shared
                .respawned
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *respawned)
        };
        for worker in respawned {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::FleetConfig;
    use trustmeter_workloads::Workload;

    const SCALE: f64 = 0.001;

    fn job(id: u64, tenant: u32) -> JobSpec {
        JobSpec::clean(id, TenantId(tenant), Workload::LoopO, SCALE)
    }

    #[test]
    fn streamed_records_arrive_in_submission_order() {
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(4, 7)),
            IngestConfig::new(4),
            None,
        );
        for id in 0..12 {
            ingest.submit(job(id, (id % 3) as u32)).unwrap();
        }
        let outcome = ingest.finish();
        let ids: Vec<u64> = outcome.records.iter().map(|r| r.job.id.0).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn recycled_buffers_feed_the_next_release() {
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(1, 7)),
            IngestConfig::new(1),
            None,
        );
        let mut taken = 0;
        for round in 0..3 {
            for id in 0..4 {
                ingest.submit(job(round * 4 + id, 1)).unwrap();
            }
            // Pump like a stream consumer: take, consume, recycle.
            while taken < (round + 1) * 4 {
                let ready = ingest.take_ready();
                taken += ready.len() as u64;
                ingest.recycle(ready);
            }
        }
        let stats = ingest.stats().pool;
        assert!(stats.acquired > 0, "releases drew from the pool");
        assert!(
            stats.reused > 0,
            "later releases reused recycled capacity: {stats:?}"
        );
        assert_eq!(stats.acquired, stats.reused + stats.allocated());
        let outcome = ingest.finish();
        assert_eq!(outcome.stats.completed, 12);
    }

    #[test]
    fn reject_policy_returns_queue_full() {
        let config = IngestConfig::new(1)
            .with_capacity(2)
            .with_backpressure(BackpressurePolicy::Reject)
            .paused();
        let ingest = FleetIngest::new(Fleet::new(FleetConfig::new(1, 7)), config, None);
        ingest.submit(job(0, 1)).unwrap();
        ingest.submit(job(1, 1)).unwrap();
        assert_eq!(ingest.submit(job(2, 1)), Err(SubmitError::QueueFull));
        assert_eq!(ingest.stats().rejected, 1);
        ingest.resume();
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.stats.rejected, 1);
        assert_eq!(outcome.stats.queued, 0);
        assert_eq!(outcome.stats.inflight_total(), 0);
    }

    #[test]
    fn blocked_submitters_ride_out_backpressure() {
        let config = IngestConfig::new(2).with_capacity(1);
        let ingest = FleetIngest::new(Fleet::new(FleetConfig::new(2, 3)), config, None);
        let handle = ingest.handle();
        let submitter = std::thread::spawn(move || {
            for id in 0..10 {
                handle.submit(job(id, (id % 2) as u32)).unwrap();
            }
        });
        submitter.join().unwrap();
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len(), 10);
        let ids: Vec<u64> = outcome.records.iter().map(|r| r.job.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_log_round_robins_a_staged_backlog() {
        // Stage a backlog while paused so the dispatch order is exact.
        let config = IngestConfig::new(1).with_capacity(0).paused();
        let ingest = FleetIngest::new(Fleet::new(FleetConfig::new(1, 5)), config, None);
        for id in 0..6 {
            ingest.submit(job(id, 1)).unwrap(); // greedy tenant
        }
        ingest.submit(job(6, 2)).unwrap(); // modest tenant
        ingest.resume();
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len(), 7);
        let dispatched: Vec<u32> = outcome
            .dispatch_log
            .iter()
            .map(|(_, tenant)| tenant.0)
            .collect();
        // Tenant 2's single job is served second, not seventh.
        assert_eq!(dispatched[1], 2, "dispatch order: {dispatched:?}");
    }

    #[test]
    fn dropping_without_finish_discards_backlog_and_joins_workers() {
        let config = IngestConfig::new(2).paused();
        let ingest = FleetIngest::new(Fleet::new(FleetConfig::new(2, 11)), config, None);
        let handle = ingest.handle();
        for id in 0..4 {
            ingest.submit(job(id, 1)).unwrap();
        }
        // No finish(): Drop must tear down without hanging, abandoning the
        // paused backlog.
        drop(ingest);
        assert_eq!(handle.submit(job(9, 1)), Err(SubmitError::ShutDown));
        assert_eq!(handle.stats().completed, 0, "backlog was discarded");
    }

    #[test]
    fn submit_after_finish_is_rejected() {
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(1, 1)),
            IngestConfig::new(1),
            None,
        );
        let handle = ingest.handle();
        ingest.submit(job(0, 1)).unwrap();
        ingest.finish();
        assert_eq!(handle.submit(job(1, 1)), Err(SubmitError::ShutDown));
    }

    #[test]
    fn completion_watermark_stalls_workers_until_consumed() {
        let config = IngestConfig::new(2).with_completion_watermark(1);
        let ingest = FleetIngest::new(Fleet::new(FleetConfig::new(2, 13)), config, None);
        for id in 0..5 {
            ingest.submit(job(id, 1)).unwrap();
        }
        // One job is allowed through; with ready + inflight at the
        // watermark, no worker may start another.
        while ingest.stats().ready < 1 {
            std::thread::yield_now();
        }
        for _ in 0..100 {
            std::thread::yield_now();
        }
        let stats = ingest.stats();
        assert_eq!(stats.ready, 1, "completion log is bounded at the watermark");
        assert_eq!(stats.completed, 1, "no further job started");
        // Consuming the record frees exactly one slot.
        let taken = ingest.take_ready();
        assert_eq!(taken.len(), 1);
        while ingest.stats().ready < 1 {
            std::thread::yield_now();
        }
        assert_eq!(ingest.stats().completed, 2);
        // A graceful finish lifts the watermark and drains the backlog.
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len() + taken.len(), 5);
        assert_eq!(outcome.stats.ready, 0);
    }

    #[test]
    fn journal_receives_released_records_in_submission_order() {
        let journal = crate::journal::Journal::in_memory();
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(4, 21)),
            IngestConfig::new(4),
            Some(journal.clone()),
        );
        for id in 0..8 {
            ingest.submit(job(id, (id % 2) as u32)).unwrap();
        }
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len(), 8);
        let (entries, tail) = journal.entries().unwrap();
        assert!(!tail.is_truncated());
        // Every submission wrote an Accepted marker ahead of its Run.
        let accepted: Vec<u64> = entries
            .iter()
            .filter(|e| e.label() == "accepted")
            .map(|e| e.job().unwrap().0)
            .collect();
        assert_eq!(accepted, (0..8).collect::<Vec<_>>());
        let runs: Vec<u64> = entries
            .iter()
            .filter(|e| e.label() == "run")
            .map(|e| e.job().unwrap().0)
            .collect();
        assert_eq!(
            runs,
            (0..8).collect::<Vec<_>>(),
            "journal is submission order"
        );
        assert_eq!(journal.stats().appends, 16);
    }

    #[test]
    fn unreleased_records_are_never_journaled() {
        let journal = crate::journal::Journal::in_memory();
        let config = IngestConfig::new(1).paused();
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(1, 17)),
            config,
            Some(journal.clone()),
        );
        ingest.submit(job(0, 1)).unwrap();
        // Teardown without finish(): the backlog is discarded, nothing was
        // released, so no Run entry was journaled — crash-lost work was
        // never billed. The Accepted marker *is* there: that is the
        // submission-side record a restarted service resubmits from.
        drop(ingest);
        let (entries, _) = journal.entries().unwrap();
        let labels: Vec<&str> = entries.iter().map(|e| e.label()).collect();
        assert_eq!(labels, vec!["accepted"]);
    }

    #[test]
    fn retry_policy_absorbs_transient_journal_faults() {
        use crate::faults::{FaultInjectingSink, FaultSchedule};
        use crate::journal::MemorySink;

        // Line 1 (job 0's Accepted is line 0; this hits job 1's Accepted)
        // fails twice, then clears: within the default 4-attempt policy.
        let schedule = FaultSchedule::none().transient_at(1, 2);
        let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(1, 23)),
            IngestConfig::new(1),
            Some(journal.clone()),
        );
        for id in 0..3 {
            ingest.submit(job(id, 1)).unwrap();
        }
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len(), 3);
        assert!(!outcome.stats.quarantined);
        assert_eq!(outcome.stats.retries, 2);
        assert_eq!(outcome.stats.journal_failures, 0);
        assert_eq!(probe.stats().injected_transient, 2);
        // The journal chain survived the retries intact.
        let (entries, _) = journal.entries().unwrap();
        assert_eq!(entries.len(), 6, "3 accepted + 3 runs");
    }

    #[test]
    fn exhausted_retries_quarantine_instead_of_panicking() {
        use crate::faults::{FaultInjectingSink, FaultSchedule, RetryPolicy};
        use crate::journal::MemorySink;

        // Accepted entries (lines 0..2) pass; the release-path Run commit
        // (line 2 onward) hits a dead disk.
        let schedule = FaultSchedule::none().disk_full_at(2);
        let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        let config = IngestConfig::new(1).with_retry_policy(RetryPolicy::new(2));
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(1, 29)),
            config,
            Some(journal.clone()),
        );
        ingest.submit(job(0, 1)).unwrap();
        ingest.submit(job(1, 1)).unwrap();
        // Wait for both to complete, then try to release: the commit
        // exhausts the policy and quarantines — no panic, no release.
        while ingest.stats().completed < 2 {
            std::thread::yield_now();
        }
        assert!(ingest.take_ready().is_empty());
        let health = ingest.health();
        assert!(health.quarantined);
        assert_eq!(health.journal_failures, 1);
        assert_eq!(health.retries, 1);
        assert_eq!(health.stalled, 2);
        assert_eq!(health.pending_accepted, 2);
        assert!(health.last_error.unwrap().contains("disk-full"));
        // Quarantine closes the front door…
        assert_eq!(ingest.submit(job(2, 1)), Err(SubmitError::Quarantined));
        // …and the billing boundary: nothing was released unjournaled.
        let (entries, _) = journal.entries().unwrap();
        assert!(entries.iter().all(|e| e.label() == "accepted"));
        let outcome = ingest.finish();
        assert!(outcome.records.is_empty(), "quarantine releases nothing");
        assert!(outcome.stats.quarantined);
    }

    #[test]
    fn failover_drains_the_stalled_prefix_with_chain_continuity() {
        use crate::faults::{FaultInjectingSink, FaultSchedule, RetryPolicy};
        use crate::journal::{parse_journal, MemorySink};

        let schedule = FaultSchedule::none().permanent_at(2);
        let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        let config = IngestConfig::new(1).with_retry_policy(RetryPolicy::none());
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(1, 31)),
            config,
            Some(journal.clone()),
        );
        ingest.submit(job(0, 1)).unwrap();
        ingest.submit(job(1, 1)).unwrap();
        while ingest.stats().completed < 2 {
            std::thread::yield_now();
        }
        assert!(ingest.take_ready().is_empty());
        assert!(ingest.health().quarantined);
        let dead_text = journal.text().unwrap();

        // Fail over to a fresh sink: quarantine lifts, the parked batch
        // drains, and new submissions are accepted again.
        ingest
            .resume_with_sink(Box::new(MemorySink::new()))
            .unwrap();
        assert!(!ingest.health().quarantined);
        let drained = ingest.take_ready();
        assert_eq!(drained.len(), 2);
        ingest.submit(job(2, 1)).unwrap();
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len(), 1);

        // Chain continuity: the old text concatenated with the new sink's
        // text parses as ONE unbroken evidence chain.
        let new_text = journal.text().unwrap();
        let spliced = format!("{dead_text}{new_text}");
        let (entries, tail) = parse_journal(&spliced).unwrap();
        assert!(!tail.is_truncated());
        // 2 accepted (old) + 2 re-journaled accepted + 2 runs + 1 accepted
        // + 1 run (post-failover submission).
        assert_eq!(entries.len(), 8);
    }

    #[test]
    fn submit_all_slices_through_a_bounded_queue() {
        let config = IngestConfig::new(2).with_capacity(3);
        let ingest = FleetIngest::new(Fleet::new(FleetConfig::new(2, 7)), config, None);
        let jobs: Vec<JobSpec> = (0..10).map(|id| job(id, (id % 3) as u32)).collect();
        let seqs = ingest.submit_all(&jobs).unwrap();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        let outcome = ingest.finish();
        let ids: Vec<u64> = outcome.records.iter().map(|r| r.job.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>(), "submission order held");
        assert_eq!(outcome.stats.submitted, 10);
    }

    #[test]
    fn batched_submission_journal_matches_per_job_bytes() {
        let jobs: Vec<JobSpec> = (0..6).map(|id| job(id, (id % 2) as u32)).collect();
        let run = |batched: bool| {
            let journal = Journal::in_memory();
            let config = IngestConfig::new(1).paused();
            let ingest = FleetIngest::new(
                Fleet::new(FleetConfig::new(1, 41)),
                config,
                Some(journal.clone()),
            );
            if batched {
                ingest.submit_all(&jobs).unwrap();
            } else {
                for j in &jobs {
                    ingest.submit(j.clone()).unwrap();
                }
            }
            ingest.resume();
            ingest.finish();
            journal.text().unwrap()
        };
        assert_eq!(
            run(false),
            run(true),
            "grouped Accepted commits are byte-identical to per-job appends"
        );
    }

    #[test]
    fn quarantine_mid_batch_reports_the_accepted_prefix() {
        use crate::faults::{FaultInjectingSink, FaultSchedule, RetryPolicy};
        use crate::journal::MemorySink;

        // Slice 1 (jobs 0-1, journal lines 0-1) commits; slice 2's grouped
        // Accepted commit starts at line 2 and hits a dead disk. Workers
        // never journal (runs are journaled at release, and nothing calls
        // take_ready), so the line schedule is deterministic even with the
        // pool running.
        let schedule = FaultSchedule::none().disk_full_at(2);
        let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        let config = IngestConfig::new(1)
            .with_capacity(2)
            .with_retry_policy(RetryPolicy::none());
        let ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(1, 43)),
            config,
            Some(journal.clone()),
        );
        let jobs: Vec<JobSpec> = (0..4).map(|id| job(id, 1)).collect();
        let err = ingest.submit_all(&jobs).unwrap_err();
        assert_eq!(
            err.accepted,
            vec![0, 1],
            "journaled prefix is in the pipeline"
        );
        assert_eq!(err.error, SubmitError::Quarantined);
        assert!(ingest.health().quarantined);
        let outcome = ingest.finish();
        assert_eq!(outcome.stats.submitted, 2, "only the durable prefix ran");
        assert!(outcome.records.is_empty(), "quarantine releases nothing");
    }

    #[test]
    fn scale_to_grows_and_shrinks_the_pool() {
        let mut ingest = FleetIngest::new(
            Fleet::new(FleetConfig::new(2, 7)),
            IngestConfig::new(2),
            None,
        );
        assert_eq!(ingest.stats().workers, 2);
        ingest.scale_to(4);
        assert_eq!(ingest.stats().workers, 4);
        ingest.scale_to(1);
        while ingest.stats().workers > 1 {
            std::thread::yield_now();
        }
        // The shrunk pool still drains everything.
        for id in 0..8 {
            ingest.submit(job(id, (id % 2) as u32)).unwrap();
        }
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len(), 8);
        assert_eq!(outcome.stats.workers, 0, "every worker exited on finish");
    }

    #[test]
    fn finished_dropped_and_respawned_pools_free_their_shared_state() {
        // A worker's reap guard holds an `Arc<Shared>`; one that outlives
        // its worker keeps the queue, the pooled buffers, the tracer and
        // the journal's open segment alive forever.
        let pool = |faults: WorkerFaultSchedule| {
            let config = IngestConfig::new(2).with_worker_faults(faults);
            FleetIngest::new(
                Fleet::new(FleetConfig::new(2, 11)),
                config,
                Some(Journal::in_memory()),
            )
        };

        let ingest = pool(WorkerFaultSchedule::none());
        let shared = Arc::downgrade(&ingest.shared);
        ingest.submit_all(&[job(0, 1), job(1, 2)]).unwrap();
        assert_eq!(ingest.finish().records.len(), 2);
        assert!(
            shared.upgrade().is_none(),
            "finished pool leaked its Shared"
        );

        let ingest = pool(WorkerFaultSchedule::none());
        let shared = Arc::downgrade(&ingest.shared);
        ingest.submit_all(&[job(0, 1), job(1, 2)]).unwrap();
        while ingest.stats().completed < 2 {
            std::thread::yield_now();
        }
        drop(ingest);
        assert!(shared.upgrade().is_none(), "dropped pool leaked its Shared");

        let ingest = pool(WorkerFaultSchedule::none().panic_on(JobId(1)));
        let shared = Arc::downgrade(&ingest.shared);
        let jobs: Vec<JobSpec> = (0..4).map(|id| job(id, 1)).collect();
        ingest.submit_all(&jobs).unwrap();
        let outcome = ingest.finish();
        assert_eq!(outcome.records.len(), 4);
        assert!(outcome.stats.worker_restarts >= 1, "the panic was reaped");
        assert!(
            shared.upgrade().is_none(),
            "pool with a respawned worker leaked its Shared"
        );
    }

    #[test]
    fn take_ready_holds_back_gaps() {
        let config = IngestConfig::new(1).paused();
        let ingest = FleetIngest::new(Fleet::new(FleetConfig::new(1, 9)), config, None);
        ingest.submit(job(0, 1)).unwrap();
        ingest.submit(job(1, 1)).unwrap();
        // Nothing completed yet: nothing to take.
        assert!(ingest.take_ready().is_empty());
        ingest.resume();
        let rest = ingest.finish();
        assert_eq!(rest.records.len(), 2);
    }
}
