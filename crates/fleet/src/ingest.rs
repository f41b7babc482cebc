//! Streaming ingestion: a long-lived worker pool draining a bounded,
//! per-tenant-fair submission queue.
//!
//! [`FleetStream`], opened with [`FleetService::stream`], is the one
//! pipeline: [`FleetStream::submit`] enqueues a [`JobSpec`] into a bounded
//! [`FairQueue`]; worker threads pop jobs round-robin across tenants and
//! execute them with [`Fleet::run_one`]; completed [`RunRecord`]s land in
//! a sequence-numbered completion log, and [`FleetStream::pump`] posts its
//! contiguous prefix to the service's ledger, auditor and metering.
//! Because every job's kernel seed is derived from the fleet seed and job
//! id alone, and the completion log is keyed by submission sequence, a
//! streamed run is **bit-identical** to the equivalent batch run
//! ([`FleetService::process`]) for any worker count.
//!
//! Four backpressure-and-fairness knobs:
//!
//! * **Capacity** ([`IngestConfig::with_capacity`]) bounds the undispatched
//!   backlog.
//! * **Policy** ([`BackpressurePolicy`]): a full queue either rejects the
//!   submit with [`SubmitError::QueueFull`] (load shedding) or blocks the
//!   submitting thread until a slot frees (lossless streaming).
//! * **Fairness** orders dispatch only: the queue round-robins across
//!   tenant lanes, so a backlog in one lane does not hold back the others'
//!   dispatch (see [`FleetStream::dispatch_log`]). Capacity is shared, so
//!   under [`BackpressurePolicy::Reject`] a flooding tenant gets every
//!   tenant's submits shed, and under [`BackpressurePolicy::Block`] every
//!   submitter waits.
//! * **Completion watermark**
//!   ([`IngestConfig::with_completion_watermark`]) bounds the *other* end:
//!   capacity bounds only the undispatched backlog, and completed records
//!   otherwise accumulate in the completion log until
//!   [`FleetStream::pump`] or [`FleetStream::finish`] posts them. With a
//!   watermark, workers stall instead of letting the log outrun the
//!   consumer, so at most `capacity + watermark` jobs wait unposted. That
//!   bounds the backlog, not the session: it keeps every record and
//!   verdict it posted (for [`FleetStream::finish`]'s report) and the
//!   whole [`FleetStream::dispatch_log`].
//!
//! With a [`crate::Journal`] attached to the service
//! ([`FleetService::with_journal`]), every record is appended to the
//! write-ahead log *before* it is released to the consumer — the
//! durability boundary of the [`crate::journal`] layer. A pump releases
//! the contiguous prefix of the completion log as one group commit,
//! records and poison verdicts alike, in release order. Those appends are
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
//! submit, the ready prefix at release, and a failover's leading
//! checkpoint and re-journaled accepted set) runs under a [`RetryPolicy`]:
//! transient errors are retried back to back, up to the policy's attempt
//! count — a failed commit writes nothing, so there is nothing to wait
//! out. On exhaustion the pipeline enters
//! **quarantine**: releases stop with the unjournaled prefix parked,
//! records and poison verdicts alike (preserving the *never-journaled ⇒
//! never-billed* invariant — nothing is ever released unjournaled),
//! `submit` fails fast with
//! [`SubmitError::Quarantined`], and the state is observable via
//! [`FleetStream::health`] and the `fleet_quarantined` /
//! `fleet_journal_failures_total` metrics. Workers keep *executing*
//! during quarantine; only the billing boundary is closed. The operator
//! fails over with [`FleetStream::resume_with_sink`]: the journal swaps
//! to a fresh sink (chain continuity intact — the evidence chain head
//! only ever advances on successful commits), a leading checkpoint and
//! the pending accepted set are written so the new sink is recoverable
//! on its own, and the stalled prefix drains.
//!
//! ## Surviving the workers: reassignment, poison jobs
//!
//! The execution layer is not assumed immortal either. A seeded
//! [`WorkerFaultSchedule`] ([`IngestConfig::with_worker_faults`]) injects
//! panics and corrupted records into the pool, and supervision proves the
//! pipeline's outputs stay bit-identical to an unfaulted run. A fault
//! belongs to the job, not to the thread:
//!
//! * **Detection covers what a worker can trip.** Each worker runs under
//!   `catch_unwind`, so no panic escapes the pool, and every completed
//!   record passes the same quote check the auditor applies
//!   ([`Fleet::verify_record`]) before it enters the completion log, so a
//!   lying record is rejected. A job whose run never returns holds its
//!   worker, and nothing detects it; what bounds a simulated run is the
//!   kernel's horizon (flagged [`crate::Anomaly::HorizonHit`]).
//! * **Recovery is bounded and in place.** The faulted worker itself
//!   reclaims its in-flight batch and requeues it at the *same* sequence
//!   numbers (release order, and therefore every downstream artifact, is
//!   unchanged — re-execution is safe because the kernel is deterministic
//!   from the fleet seed and job id), then restarts on the same thread
//!   under the [`SupervisorPolicy`] restart budget, a count per stream
//!   session that nothing refills: budget dry → the
//!   thread retires and the pool degrades; last worker retired → the
//!   fleet quarantines (submits fail fast, [`FleetStream::health`] says
//!   why). Only a worker reclaims its own assignments, and only after it
//!   stopped running them, so a record is logged at most once: released
//!   ⇒ journaled ⇒ executed exactly once.
//! * **Poison jobs are quarantined individually.** A job that kills
//!   [`SupervisorPolicy::max_job_attempts`] workers in a row gets a
//!   [`crate::JournalEntry::Poisoned`] verdict where its record would
//!   have been in the completion log, journaled in release order in the
//!   same group commit as the records around it, and a tenant-visible
//!   [`FleetStream::poisoned`] notice — while every other job keeps
//!   flowing.
//!
//! ## One state machine, and the threads around it
//!
//! Every decision above is a transition of one private `State`, a machine
//! with no threads and no I/O: `admit` and then `accept` (once the
//! slice's `Accepted` entries are journaled), `pull` (pause, teardown,
//! shrink tokens, the watermark and a fair-share batch), `complete`,
//! `fault` (reassign or poison, then restart or retire), `ready_prefix`
//! and then `release` (once the prefix is journaled), `commit_failed` and
//! `failed_over` (the journal's cause of quarantine), `scale` (the pool,
//! and its cause), `resume`, `close` and `drained`. Each takes plain
//! inputs, timestamps included, and returns plain outputs plus the
//! condvar wakeups it needs. The threads are glue: an entry point locks,
//! runs one transition (or waits around one), unlocks, does the I/O (the
//! journal commit under the retry policy, the tracer's spans,
//! [`Fleet::run_one`] and [`Fleet::verify_record`]) and applies the
//! wakeups. A seeded property in this module's tests drives virtual
//! workers, a submitter and the session's owner through the machine in
//! random interleavings against a model journal, without a thread, and
//! checks the pipeline's invariants after every step.
//!
//! ```
//! use trustmeter_fleet::{FleetConfig, FleetService, IngestConfig, JobSpec, TenantId};
//! use trustmeter_workloads::Workload;
//!
//! let mut service = FleetService::new(FleetConfig::new(2, 42));
//! let stream = service.stream(IngestConfig::new(2));
//! for id in 0..4 {
//!     let job = JobSpec::clean(id, TenantId((id % 2) as u32), Workload::LoopO, 0.001);
//!     stream.submit(job).unwrap();
//! }
//! let report = stream.finish();
//! // Records post in submission order regardless of which worker
//! // finished first.
//! let ids: Vec<u64> = report.records.iter().map(|r| r.job.id.0).collect();
//! assert_eq!(ids, vec![0, 1, 2, 3]);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::auditor::AuditVerdict;
use crate::executor::{Fleet, JobId, JobSpec, RunRecord};
use crate::faults::{RetryPolicy, SupervisorPolicy, WorkerFaultKind, WorkerFaultSchedule};
use crate::journal::{Journal, JournalEntry, JournalError, JournalSink, PoisonNotice};
use crate::pool::{BufferPool, PoolStats};
use crate::queue::{FairQueue, QueuedJob};
use crate::tenant::TenantId;
use crate::trace::{PipelineTracer, Stage};
use crate::{FleetReport, FleetService};

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
    /// The pipeline is quarantined, so nothing new is accepted (and
    /// nothing already executed is released). Either the journal
    /// exhausted its [`RetryPolicy`] and nothing can be made durable —
    /// fail over with [`FleetStream::resume_with_sink`] — or the worker
    /// pool died — revive it with [`FleetStream::scale_workers`].
    /// [`FleetHealth`] says which.
    Quarantined,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("submission queue is full"),
            SubmitError::ShutDown => f.write_str("ingest pipeline is shut down"),
            SubmitError::Quarantined => f.write_str(
                "ingest pipeline is quarantined: the journal is failing \
                 (fail over with resume_with_sink) or the worker pool died \
                 (revive it with scale_workers)",
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

/// Worker-pool configuration for a [`FleetStream`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Number of long-lived worker threads.
    pub workers: usize,
    /// Maximum undispatched jobs in the submission queue (0 = unbounded).
    /// Completed-but-unposted records are *not* counted: consumers must
    /// [`FleetStream::pump`] (or set a completion watermark) to bound
    /// them.
    pub capacity: usize,
    /// What `submit` does when the queue is full.
    pub backpressure: BackpressurePolicy,
    /// Start with dispatch paused; call [`FleetStream::resume`] to begin
    /// draining. Useful for tests and for staging a backlog.
    pub start_paused: bool,
    /// Completion-side watermark (0 = unbounded): workers stall before
    /// starting a new job while completed-but-unconsumed records plus
    /// in-flight jobs are at this limit, so a slow consumer bounds the
    /// completion log instead of letting it outrun the pump. A
    /// graceful [`FleetStream::finish`] lifts the watermark — the drain is
    /// about to consume everything anyway. See
    /// [`IngestConfig::with_completion_watermark`] for the deadlock hazard
    /// when the consuming thread also submits under
    /// [`BackpressurePolicy::Block`].
    pub completion_watermark: usize,
    /// The retry policy every journal commit (acceptance at submit, the
    /// ready prefix at release, a failover's two commits) runs under;
    /// exhaustion quarantines the pipeline instead of panicking.
    /// Irrelevant without a journal.
    pub retry: RetryPolicy,
    /// The supervisor's bounded recovery ladder for panicked and lying
    /// workers (see [`SupervisorPolicy`]).
    pub supervisor: SupervisorPolicy,
    /// The seeded worker fault schedule to inject (empty = healthy pool).
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
    /// [`FleetStream::resume`]).
    pub fn paused(mut self) -> IngestConfig {
        self.start_paused = true;
        self
    }

    /// Replaces the completion-side watermark (0 = unbounded): workers
    /// stall before starting a new job while completed-but-unconsumed
    /// records plus in-flight jobs are at the limit, so at most
    /// `capacity + completion_watermark` jobs wait unposted even when the
    /// consumer stops pumping. The session still keeps every record and
    /// verdict it posts.
    ///
    /// **Deadlock hazard.** Only `pump`/`finish` clear the watermark.
    /// Under [`BackpressurePolicy::Block`] with a bounded queue, a thread
    /// that submits more than `capacity + watermark` jobs without pumping
    /// parks in `submit` while every worker is stalled on the watermark —
    /// and if that thread is also the only consumer, nothing can ever wake
    /// either side. With a watermark, either pump from the submitting
    /// loop, submit from other threads through an [`IngestHandle`] while
    /// this one pumps, use [`BackpressurePolicy::Reject`], or keep
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

    /// Replaces the [`SupervisorPolicy`] (restart budget, degradation,
    /// poison threshold).
    pub fn with_supervisor(mut self, supervisor: SupervisorPolicy) -> IngestConfig {
        self.supervisor = supervisor;
        self
    }

    /// Installs a [`WorkerFaultSchedule`] to inject into the pool.
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
    /// Completed records not yet posted by [`FleetStream::pump`] (what
    /// the completion watermark bounds).
    pub ready: usize,
    /// Jobs currently executing, per tenant: each worker's running job.
    /// The batch-mates it pulled and has not started are not counted.
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
    /// [`FleetStream::scale_workers`] and when a faulted worker retires).
    pub workers: usize,
    /// Faulted workers restarted in place under the restart budget.
    pub worker_restarts: u64,
    /// Running jobs reclaimed from panicked or lying workers and requeued
    /// for re-execution (same sequence number, attempt advanced). The
    /// unstarted batch-mates a fault requeues beside them never ran and
    /// are not counted.
    pub reassigned: u64,
    /// Jobs declared poison after killing
    /// [`SupervisorPolicy::max_job_attempts`] workers in a row.
    pub poisoned: u64,
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
/// what an operator reads from [`FleetStream::health`] to decide whether
/// a failover is needed and whether it worked. Every figure is a count
/// of faults or entries; none is a time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FleetHealth {
    /// Whether the pipeline is quarantined: releases are stopped and
    /// submits fail fast while the journal's error or a dead worker pool
    /// stands. A failover lifts only the first, and reviving the pool
    /// only the second.
    pub quarantined: bool,
    /// Journal commits that exhausted the retry policy.
    pub journal_failures: u64,
    /// Failed journal commit attempts that were retried, back to back.
    pub retries: u64,
    /// Released-prefix entries (records and poison verdicts) parked by
    /// quarantine, awaiting the post-failover drain (never released
    /// unjournaled).
    pub stalled: u64,
    /// Accepted-but-unreleased jobs whose `Accepted` markers are pending
    /// (re-journaled into the replacement sink on failover).
    pub pending_accepted: u64,
    /// Why the pipeline is quarantined: the journal's error while it
    /// stands, else why the worker pool died; `None` once neither does.
    pub last_error: Option<String>,
    /// Workers currently alive in the pool.
    pub workers_live: usize,
    /// Faulted workers restarted in place this session, never more than
    /// [`SupervisorPolicy::max_restarts`]. A fault past the budget retires
    /// its worker instead, so `reassigned` can climb while this stays
    /// flat.
    pub worker_restarts: u64,
    /// Running jobs reclaimed from panicked or lying workers and requeued
    /// with the attempt advanced: one per fault that did not poison its
    /// job.
    pub reassigned: u64,
    /// Jobs declared poison and individually quarantined.
    pub poisoned: u64,
    /// The last worker retired with the restart budget spent: the fleet
    /// is quarantined until [`FleetStream::scale_workers`] revives the
    /// pool (and, if the journal failed too, until a failover).
    pub workers_dead: bool,
}

/// One dispatched (sequence, job) pair held by a worker — the
/// supervision record a fault reads.
#[derive(Debug, Clone)]
struct Assignment {
    /// The job as dispatched, kept so a fault can requeue it verbatim.
    job: JobSpec,
    /// Id of the worker holding it: a fault reclaims exactly that
    /// worker's assignments.
    worker: u64,
    /// Execution attempt this dispatch is (1-based).
    attempt: u32,
    /// Whether the worker has actually begun executing it. Batch-mates
    /// behind the running job sit dispatched-but-unstarted: they consume
    /// no attempt if their worker dies, and they are not in flight.
    started: bool,
    /// Wall-clock dispatch stamp for the [`Stage::Reassign`] span;
    /// stamped only when tracing.
    dispatched_at: Option<Instant>,
}

/// Where the pipeline is in its life, in lifecycle order: whether
/// dispatch runs and whether submissions are still taken. From
/// `Draining` on, submissions are refused with [`SubmitError::ShutDown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
enum Phase {
    /// Opened with [`IngestConfig::paused`]: submissions queue, and
    /// nothing dispatches until [`FleetStream::resume`].
    Paused,
    /// Submissions queue and workers dispatch.
    #[default]
    Running,
    /// [`FleetStream::finish`]: submissions are refused, and every
    /// accepted job still runs, with the pause, shrink tokens and the
    /// completion watermark lifted. Workers exit once the queue is empty.
    Draining,
    /// A drop without `finish`, or a drain whose pool died: submissions
    /// are refused, the queued backlog is abandoned, and workers exit
    /// after the batch they hold.
    TearingDown,
}

/// The condvar wakeups a [`State`] transition asks for, which
/// [`Shared::wake`] applies: for `job_ready` (idle workers), `slot_free` (a
/// submitter blocked on a full queue) and `job_done` (a drain waiting for
/// the last job), in that order, how many jobs or slots became available.
/// One wakes one waiter, which can take it in full; more wake every
/// waiter, and [`EVERY`] asks for a change every waiter must see.
#[derive(Debug, Clone, Copy, Default)]
#[must_use]
struct Wake(usize, usize, usize);

/// A [`Wake`] count that wakes every waiter.
const EVERY: usize = usize::MAX;

/// The running job a fault requeued with its attempt advanced: its id,
/// tenant and dispatch stamp, for the [`Stage::Reassign`] span.
type Reassigned = (JobId, TenantId, Option<Instant>);

/// What a worker does after [`State::pull`].
enum Pull {
    /// Run the batch just pulled.
    Run(Wake),
    /// Wait on `job_ready` and pull again.
    Wait,
    /// Leave the pool: the worker's thread ends.
    Exit,
}

/// The pipeline's state and every decision over it: a machine with no
/// threads and no I/O. Each method is one transition that takes plain
/// inputs (timestamps included) and returns plain outputs plus the
/// [`Wake`] it needs; [`Shared`] and [`FleetStream`] hold the lock around
/// it and do the I/O.
#[derive(Debug, Default)]
struct State {
    queue: FairQueue,
    phase: Phase,
    /// What `admit` does when the queue is full.
    policy: BackpressurePolicy,
    /// Completion-side watermark (0 = unbounded); see
    /// [`IngestConfig::with_completion_watermark`].
    watermark: usize,
    /// The supervisor's recovery ladder (restart budget, degradation,
    /// poison threshold).
    supervisor: SupervisorPolicy,
    /// Next submission sequence number, and so the number of jobs
    /// accepted so far.
    next_seq: u64,
    /// Sequence-numbered completion log, holding what a release journals:
    /// a [`JournalEntry::Run`] per executed job and a
    /// [`JournalEntry::Poisoned`] verdict per poison job. Contiguous
    /// prefixes are released in submission order.
    completed: BTreeMap<u64, JournalEntry>,
    /// Next sequence number to release from the completion log.
    released: u64,
    /// Dispatch order (which job each worker popped, in pop order) — the
    /// observable fairness record.
    dispatch_log: Vec<(JobId, TenantId)>,
    completed_count: u64,
    rejected: u64,
    /// The journal error that exhausted the retry policy. While it
    /// stands the pipeline is quarantined (see [`State::quarantined`]);
    /// only a failover lifts it.
    journal_error: Option<String>,
    /// The released prefix whose journal commit exhausted the retry
    /// policy, records and poison verdicts alike, parked at the release
    /// cursor: never released (the write-ahead invariant), taken first
    /// by the first `ready_prefix` after failover.
    stalled: Vec<JournalEntry>,
    /// Failed journal commit attempts that were retried.
    retries: u64,
    /// Journal commits that exhausted the retry policy.
    journal_failures: u64,
    /// The journaled `Accepted` entries of accepted-but-unreleased jobs,
    /// keyed by submission sequence. Entries leave at release; the
    /// survivors are re-journaled into the replacement sink on failover
    /// so it is recoverable on its own. Empty without a journal.
    accepted: BTreeMap<u64, JournalEntry>,
    /// Worker-pool size target (see [`FleetStream::scale_workers`]). Workers
    /// consume one "shrink token" each — exiting at the top of their loop —
    /// while `active_workers` exceeds this. Degrades when the restart
    /// budget runs dry.
    worker_target: usize,
    /// Workers currently alive (spawned minus exited minus retired).
    active_workers: usize,
    /// In-flight dispatches keyed by sequence number — what a fault
    /// reclaims and the in-flight gauges count.
    assignments: BTreeMap<u64, Assignment>,
    /// Workers ever spawned — the id of the next one.
    spawned_total: u64,
    /// Faulted workers restarted in place this session: the restart
    /// budget's count, which nothing refills.
    worker_restarts: u64,
    /// Running jobs reclaimed from faulted workers and requeued with the
    /// attempt advanced, lifetime.
    jobs_reassigned: u64,
    /// Jobs declared poison, lifetime.
    poisoned_count: u64,
    /// Released poison verdicts, in release order (each journaled before
    /// the cursor passed it).
    poisoned_log: Vec<PoisonNotice>,
    /// Why the last worker retired with the restart budget spent. The
    /// other cause of quarantine: only [`State::scale`] lifts it, never a
    /// sink failover.
    dead_pool: Option<String>,
}

impl State {
    /// The most jobs one worker pulls per lock acquisition. Bounds the
    /// latency skew batching can introduce (a worker never hoards more
    /// than this while its peers idle); the fair-share cap in
    /// [`State::pull`] usually bites first.
    const MAX_PULL: usize = 8;

    /// An empty pipeline configured by `config`, with no worker yet:
    /// [`State::scale`] staffs it.
    fn new(config: &IngestConfig) -> State {
        State {
            queue: FairQueue::new(config.capacity),
            phase: if config.start_paused {
                Phase::Paused
            } else {
                Phase::Running
            },
            policy: config.backpressure,
            watermark: config.completion_watermark,
            supervisor: config.supervisor,
            ..State::default()
        }
    }

    /// Quarantined while either cause stands, a failing journal or a dead
    /// worker pool: releases are stopped and submits fail fast.
    fn quarantined(&self) -> bool {
        self.journal_error.is_some() || self.dead_pool.is_some()
    }

    /// Admission for a submitter holding `n` more jobs: `Some(k)` takes
    /// the first `k` (all of them if the queue is unbounded), `None` waits
    /// for a free slot under [`BackpressurePolicy::Block`]. A full queue
    /// under [`BackpressurePolicy::Reject`] refuses all `n`, counting
    /// them rejected.
    fn admit(&mut self, n: usize) -> Result<Option<usize>, SubmitError> {
        if self.phase >= Phase::Draining {
            return Err(SubmitError::ShutDown);
        }
        if self.quarantined() {
            return Err(SubmitError::Quarantined);
        }
        let free = match self.queue.capacity() {
            0 => n,
            cap => cap.saturating_sub(self.queue.len()),
        };
        if free > 0 {
            return Ok(Some(free.min(n)));
        }
        match self.policy {
            BackpressurePolicy::Reject => {
                self.rejected += n as u64;
                Err(SubmitError::QueueFull)
            }
            BackpressurePolicy::Block => Ok(None),
        }
    }

    /// Enqueues an admitted `slice` at the next sequence numbers, its
    /// committed `Accepted` entries (empty without a journal) pending until
    /// release, and returns those numbers. A close that raced the commit
    /// refuses the slice: its orphan `Accepted` entries are harmless, as
    /// recovery reports them unreleased.
    fn accept(
        &mut self,
        slice: &[JobSpec],
        accepted: Vec<JournalEntry>,
        submitted_at: Option<Instant>,
    ) -> Result<(Range<u64>, Wake), SubmitError> {
        if self.phase >= Phase::Draining {
            return Err(SubmitError::ShutDown);
        }
        let first = self.next_seq;
        self.next_seq += slice.len() as u64;
        self.accepted.extend((first..).zip(accepted));
        // A fault may have requeued reclaimed jobs into the slots the
        // slice was admitted to; like them, an admitted job never bounces.
        if let Err(queued) = self.queue.push_batch_at(first, slice, submitted_at) {
            for (seq, job) in (first + queued as u64..).zip(&slice[queued..]) {
                self.queue.requeue(seq, job.clone(), 1);
            }
        }
        Ok((first..self.next_seq, Wake(slice.len(), 0, 0)))
    }

    /// Worker `worker`'s next step, with `batch` empty. It exits on
    /// teardown, on a shrink token, or when a drain finds the queue empty;
    /// it waits while paused, while the completion watermark is reached,
    /// or for work. Otherwise it fills `batch` with at most
    /// [`State::MAX_PULL`] jobs, within the watermark's room and its fair
    /// share of the backlog so one worker cannot strip-mine the queue
    /// while its peers idle, and registers each as its [`Assignment`]
    /// dispatched at `stamp`. The first starts at once; each of the rest
    /// starts as its predecessor completes.
    fn pull(&mut self, worker: u64, stamp: Option<Instant>, batch: &mut Vec<QueuedJob>) -> Pull {
        if self.phase == Phase::Paused {
            return Pull::Wait;
        }
        let running = self.phase == Phase::Running;
        if self.phase == Phase::TearingDown
            || (running && self.active_workers > self.worker_target)
            || (!running && self.queue.is_empty())
        {
            self.leave(None);
            return Pull::Exit;
        }
        // The watermark counts the unconsumed completion log plus what is
        // already in flight. A drain lifts it: finish() consumes
        // everything.
        let mut budget = usize::MAX;
        if self.watermark > 0 && running {
            let used = self.completed.len() + self.assignments.len();
            if used >= self.watermark {
                return Pull::Wait;
            }
            budget = self.watermark - used;
        }
        if self.queue.is_empty() {
            return Pull::Wait;
        }
        let share = self.queue.len().div_ceil(self.active_workers.max(1));
        let max = Self::MAX_PULL.min(budget).min(share).max(1);
        while batch.len() < max {
            let Some(queued) = self.queue.pop() else {
                break;
            };
            self.dispatch_log.push((queued.job.id, queued.job.tenant));
            self.assignments.insert(
                queued.seq,
                Assignment {
                    job: queued.job.clone(),
                    worker,
                    attempt: queued.attempt,
                    started: batch.is_empty(),
                    dispatched_at: stamp,
                },
            );
            batch.push(queued);
        }
        Pull::Run(Wake(0, batch.len(), 0))
    }

    /// Logs `entry`, the record of `seq` that its worker just finished,
    /// and starts `next`, that worker's next batch item. Only the worker
    /// holding `seq` completes it, and nothing reclaims its assignments
    /// while it runs, so a record is logged at most once.
    fn complete(&mut self, seq: u64, next: Option<u64>, entry: JournalEntry) -> Wake {
        self.assignments.remove(&seq);
        self.completed.insert(seq, entry);
        self.completed_count += 1;
        if let Some(next) = next.and_then(|next| self.assignments.get_mut(&next)) {
            next.started = true;
        }
        Wake(0, 0, EVERY)
    }

    /// A fault of `worker`, which has stopped running its batch: reclaims
    /// every assignment it holds, requeueing each at its sequence number
    /// (release order, and so every downstream byte, is unchanged, and
    /// re-execution is safe because the kernel is deterministic from the
    /// fleet seed and job id). The job it was running is the one it
    /// reassigns, with the attempt advanced, or poisons once that job
    /// has burned [`SupervisorPolicy::max_job_attempts`] workers. Then
    /// the restart budget decides: restart in place, or retire. Returns
    /// whether the worker restarts, and the reassigned job's id, tenant
    /// and dispatch stamp for its span.
    fn fault(&mut self, worker: u64, reason: &str) -> (bool, Option<Reassigned>, Wake) {
        let mut reassigned = None;
        for (seq, a) in self.assignments.extract_if(.., |_, a| a.worker == worker) {
            if !a.started {
                // Batch-mates the worker never started consumed no
                // attempt: they requeue at their current one, so the
                // fault schedule still addresses their first execution.
                self.queue.requeue(seq, a.job, a.attempt);
            } else if a.attempt >= self.supervisor.max_job_attempts {
                // Poison: its verdict takes the record's place in the
                // completion log and is journaled at release.
                self.poisoned_count += 1;
                let notice = PoisonNotice {
                    spec: a.job,
                    attempts: a.attempt,
                };
                self.completed.insert(seq, JournalEntry::poisoned(notice));
            } else {
                self.jobs_reassigned += 1;
                reassigned = Some((a.job.id, a.job.tenant, a.dispatched_at));
                self.queue.requeue(seq, a.job, a.attempt + 1);
            }
        }
        // The restart ladder: a per-session count of restarts that
        // nothing refills. Restarts continue during a drain (it needs
        // workers) but not during teardown.
        let teardown = self.phase == Phase::TearingDown;
        let restart = !teardown && self.worker_restarts < u64::from(self.supervisor.max_restarts);
        if restart {
            self.worker_restarts += 1;
        } else {
            // A teardown retires the worker without charging anything.
            self.leave((!teardown).then_some(reason));
        }
        (restart, reassigned, Wake(EVERY, EVERY, EVERY))
    }

    /// The one rule for a worker leaving the pool. One that retires on a
    /// fault with the restart budget spent (`fault` names why) degrades
    /// the pool's target to the survivors, and the last one to go that way
    /// quarantines the fleet until [`State::scale`] revives it.
    fn leave(&mut self, fault: Option<&str>) {
        self.active_workers -= 1;
        if let Some(reason) = fault {
            self.worker_target = self.worker_target.min(self.active_workers.max(1));
            if self.active_workers == 0 {
                self.dead_pool = Some(format!(
                    "last worker died with the restart budget spent: {reason}"
                ));
            }
        }
    }

    /// The prefix to journal and release next: a prefix parked by
    /// quarantine first, then the completion log's contiguous run from the
    /// release cursor. `None` while quarantined or with nothing ready. The
    /// cursor stays put until [`State::release`].
    fn ready_prefix(&mut self) -> Option<Vec<JournalEntry>> {
        if self.quarantined() {
            return None;
        }
        let (first, mut prefix) = (self.released, std::mem::take(&mut self.stalled));
        while let Some(entry) = self.completed.remove(&(first + prefix.len() as u64)) {
            prefix.push(entry);
        }
        (!prefix.is_empty()).then_some(prefix)
    }

    /// Releases `prefix`, the last [`State::ready_prefix`], once it is
    /// journaled: moves the cursor past it, retires its pending `Accepted`
    /// entries, and hands its records to `out` and its poison verdicts to
    /// the poisoned log.
    fn release(&mut self, prefix: Vec<JournalEntry>, out: &mut Vec<RunRecord>) -> Wake {
        self.released += prefix.len() as u64;
        // A Run or Poisoned entry now vouches for each released job, so
        // its Accepted marker is no longer pending.
        self.accepted.retain(|&seq, _| seq >= self.released);
        for entry in prefix {
            match entry {
                JournalEntry::Run(record) => out.push(*record),
                // A poison verdict is released by journaling it; there is
                // no record to hand out.
                JournalEntry::Poisoned(notice) => self.poisoned_log.push(notice),
                _ => unreachable!("the completion log holds runs and poison verdicts"),
            }
        }
        // The completion log shrank: wake workers stalled on the
        // watermark.
        Wake(EVERY, 0, 0)
    }

    /// A journal commit exhausted its retry policy: the pipeline
    /// quarantines with `error` standing, and `parked` (the prefix whose
    /// commit failed, empty for a submission-side commit) waits at the
    /// release cursor. Releases stop and submits fail fast until
    /// [`State::failed_over`].
    fn commit_failed(&mut self, error: &JournalError, parked: Vec<JournalEntry>) -> Wake {
        self.journal_failures += 1;
        self.journal_error = Some(error.to_string());
        // A quarantined pipeline releases nothing, so at most one prefix is
        // parked; a submission-side failure racing it must not drop it.
        debug_assert!(parked.is_empty() || self.stalled.is_empty());
        self.stalled.extend(parked);
        Wake(EVERY, EVERY, EVERY)
    }

    /// A failed journal commit attempt is about to be retried.
    fn retried(&mut self) {
        self.retries += 1;
    }

    /// The failover's commits landed: lifts the journal's cause of
    /// quarantine. A dead worker pool is not a journal problem and stands
    /// until [`State::scale`] staffs the pool again.
    fn failed_over(&mut self) -> Wake {
        self.journal_error = None;
        Wake(EVERY, EVERY, 0)
    }

    /// Resizes the pool to `workers` (at least one) and returns the ids of
    /// the workers to spawn. Growing counts the spawns at once, so the
    /// fair-share cap sees the new pool size, and revives a dead pool; a
    /// failing journal keeps the pipeline quarantined until a failover.
    /// Shrinking leaves surplus workers a shrink token each. A closed
    /// pipeline ignores the target: a drain keeps every worker alive.
    fn scale(&mut self, workers: usize) -> (Range<u64>, Wake) {
        if self.phase >= Phase::Draining {
            return (0..0, Wake::default());
        }
        self.worker_target = workers.max(1);
        let grow = self.worker_target.saturating_sub(self.active_workers);
        self.active_workers += grow;
        let first = self.spawned_total;
        self.spawned_total += grow as u64;
        if grow == 0 {
            return (first..first, Wake(EVERY, 0, 0));
        }
        self.dead_pool = None;
        (first..self.spawned_total, Wake(EVERY, EVERY, 0))
    }

    /// Starts dispatch in a pipeline opened paused.
    fn resume(&mut self) -> Wake {
        self.phase = self.phase.max(Phase::Running);
        Wake(EVERY, 0, 0)
    }

    /// Closes the pipeline to submissions: a drain runs every accepted
    /// job, a paused pipeline's included, and a teardown abandons the
    /// queued backlog.
    fn close(&mut self, drain: bool) -> Wake {
        self.phase = if drain {
            Phase::Draining
        } else {
            Phase::TearingDown
        };
        Wake(EVERY, EVERY, 0)
    }

    /// Whether a close is over: every accepted job completed or was
    /// poisoned. A dead pool completes nothing more, so it turns a drain
    /// into a teardown.
    fn drained(&mut self) -> bool {
        if self.dead_pool.is_some() {
            self.phase = Phase::TearingDown;
        }
        self.phase == Phase::TearingDown
            || self.completed_count + self.poisoned_count >= self.next_seq
    }

    /// The pipeline counters and gauges, with the buffer pool's `pool`.
    fn stats(&self, pool: PoolStats) -> IngestStats {
        let mut inflight = BTreeMap::new();
        for assignment in self.assignments.values().filter(|a| a.started) {
            *inflight.entry(assignment.job.tenant).or_insert(0) += 1;
        }
        IngestStats {
            submitted: self.next_seq,
            completed: self.completed_count,
            rejected: self.rejected,
            queued: self.queue.len(),
            ready: self.completed.len() + self.stalled.len(),
            inflight,
            retries: self.retries,
            journal_failures: self.journal_failures,
            quarantined: self.quarantined(),
            workers: self.active_workers,
            worker_restarts: self.worker_restarts,
            reassigned: self.jobs_reassigned,
            poisoned: self.poisoned_count,
            pool,
        }
    }

    /// The pipeline's durability health report.
    fn health(&self) -> FleetHealth {
        FleetHealth {
            quarantined: self.quarantined(),
            journal_failures: self.journal_failures,
            retries: self.retries,
            stalled: self.stalled.len() as u64,
            pending_accepted: self.accepted.len() as u64,
            last_error: self.journal_error.clone().or(self.dead_pool.clone()),
            workers_live: self.active_workers,
            worker_restarts: self.worker_restarts,
            reassigned: self.jobs_reassigned,
            poisoned: self.poisoned_count,
            workers_dead: self.dead_pool.is_some(),
        }
    }
}

/// The job a commit's spans are attributed to: its first entry's. A
/// checkpoint names no job, so a commit of one records no span.
fn first_job(entries: &[JournalEntry]) -> Option<(JobId, TenantId)> {
    match entries.first()? {
        JournalEntry::Accepted(spec) => Some((spec.id, spec.tenant)),
        JournalEntry::Run(record) => Some((record.job.id, record.job.tenant)),
        JournalEntry::Poisoned(notice) => Some((notice.spec.id, notice.spec.tenant)),
        _ => None,
    }
}

/// The threads' side of the pipeline: the lock around [`State`], the
/// condvars its transitions wake, and the I/O and execution no transition
/// does.
#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signaled when work becomes available or pause/shutdown changes.
    job_ready: Condvar,
    /// Signaled when a queue slot frees (wakes blocked submitters).
    slot_free: Condvar,
    /// Signaled when a job completes (wakes `finish`).
    job_done: Condvar,
    /// When set, every released prefix is appended to it *before*
    /// `take_ready` releases it — the write-ahead point of the
    /// durability layer.
    journal: Option<Journal>,
    /// When set, submits are timestamped and workers record queue-wait
    /// spans at dispatch; `take_ready` records the journal group commit.
    /// Observation only — release order and records are unaffected.
    tracer: Option<PipelineTracer>,
    /// Serializes submitters, so the `Accepted` write-ahead append (done
    /// *outside* the state lock for the same reason) lands in the journal
    /// in exactly the submission-sequence order — and so the admission
    /// check stays valid across the append (no competing submitter can
    /// fill the queue in between; workers only ever free slots).
    submit_guard: Mutex<()>,
    /// The retry policy every journal commit runs under.
    retry: RetryPolicy,
    /// Recycles the release-path record buffers: `take_ready` drains into
    /// a pooled `Vec`, and the pump hands the emptied container back.
    /// Leaf lock — only ever taken while holding nothing or the state
    /// lock, never the other way around.
    pool: BufferPool<RunRecord>,
    /// The installed worker fault schedule (empty = healthy pool).
    worker_faults: WorkerFaultSchedule,
    /// The executor every worker runs its jobs on.
    fleet: Fleet,
}

impl Shared {
    /// Locks the state, recovering from poisoning: workers never panic
    /// while holding the lock (jobs run outside it), and a panicking job
    /// is caught and handled as a fault of its worker.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, condvar: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies the wakeups a transition returned: the one place the
    /// pipeline notifies a condvar.
    fn wake(&self, Wake(workers, submitters, drain): Wake) {
        let condvars = [&self.job_ready, &self.slot_free, &self.job_done];
        for (condvar, available) in condvars.into_iter().zip([workers, submitters, drain]) {
            match available {
                0 => {}
                1 => condvar.notify_one(),
                _ => condvar.notify_all(),
            }
        }
    }

    /// Submits one job as a one-job slice of [`Shared::submit_all`].
    fn submit(&self, job: JobSpec) -> Result<u64, SubmitError> {
        self.submit_all(std::slice::from_ref(&job))
            .map(|seqs| seqs[0])
            .map_err(|e| e.error)
    }

    /// The one submission path (a single `submit` is a one-job slice):
    /// admits `jobs` in capacity-sized slices, paying the submit guard once
    /// for the whole batch and, per slice, one grouped `Accepted` journal
    /// commit, two state-lock holds ([`State::admit`], then
    /// [`State::accept`]) and one condvar wake.
    fn submit_all(&self, jobs: &[JobSpec]) -> Result<Vec<u64>, BatchSubmitError> {
        let fail = |accepted, error| BatchSubmitError { accepted, error };
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
            let admit = {
                let mut state = self.lock();
                loop {
                    match state.admit(remaining.len()) {
                        Ok(Some(admit)) => break admit,
                        Ok(None) => state = self.wait(&self.slot_free, state),
                        Err(error) => return Err(fail(seqs, error)),
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
            let mut accepted = Vec::new();
            if self.journal.is_some() {
                accepted = slice.iter().cloned().map(JournalEntry::Accepted).collect();
                if let Err(e) = self.commit_with_retry(&accepted) {
                    let wake = self.lock().commit_failed(&e, Vec::new());
                    self.wake(wake);
                    return Err(fail(seqs, SubmitError::Quarantined));
                }
            }
            let submitted_at = self.tracer.as_ref().map(|_| Instant::now());
            let outcome = self.lock().accept(slice, accepted, submitted_at);
            let (slice_seqs, wake) = match outcome {
                Ok(outcome) => outcome,
                Err(error) => return Err(fail(seqs, error)),
            };
            seqs.extend(slice_seqs);
            self.wake(wake);
        }
        Ok(seqs)
    }

    fn stats(&self) -> IngestStats {
        self.lock().stats(self.pool.stats())
    }

    /// Runs one journal commit of `batch` under the retry policy: at
    /// most `max_attempts` tries, back to back, each failed one but the
    /// last counted in `retries`. When tracing, each failed attempt is one
    /// [`Stage::JournalRetry`] aggregate span, attributed to the first job
    /// the commit names ([`first_job`]): a checkpoint's failed attempts
    /// are counted and not traced. A failed commit writes nothing and
    /// advances no chain, so the next try starts from exactly where the
    /// first did. Returns the last error on exhaustion — the caller
    /// quarantines or reports it; nothing here panics on I/O. Only a
    /// pipeline with a journal commits.
    fn commit_with_retry(&self, batch: &[JournalEntry]) -> Result<(), JournalError> {
        let journal = self.journal.as_ref().expect("commits need a journal");
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let started = self.tracer.as_ref().map(|_| Instant::now());
            let Err(error) = journal.append_batch(batch) else {
                return Ok(());
            };
            if let (Some(tracer), Some(started), Some((job, tenant))) =
                (&self.tracer, started, first_job(batch))
            {
                // A shared commit attempt is nobody's per-tenant latency.
                tracer.record_aggregate(Stage::JournalRetry, job, tenant, started.elapsed());
            }
            if attempt >= self.retry.max_attempts {
                return Err(error);
            }
            self.lock().retried();
        }
    }

    /// Worker loop: pull a fair batch under one lock hold
    /// ([`State::pull`]), execute it outside the lock, and log each
    /// completion under one lock hold. Batching amortizes the state lock
    /// and condvar traffic without changing anything observable
    /// downstream: pops stay round-robin (the dispatch log is identical),
    /// and the completion log is keyed by submission sequence, so release
    /// order — and therefore reports, ledgers and metering — is
    /// bit-identical to one-job-at-a-time pulls.
    ///
    /// The fault schedule is consulted per (job, attempt) before
    /// execution. Returns `Ok` when the worker leaves the pool and the
    /// fault that stopped it otherwise: a record [`Fleet::verify_record`]
    /// rejected. A panic unwinds out of here instead;
    /// [`Shared::spawn_worker`] catches it. Either way the assignments
    /// this worker still holds are left for [`State::fault`] to reclaim.
    fn work(&self, id: u64) -> Result<(), &'static str> {
        let mut batch: Vec<QueuedJob> = Vec::with_capacity(State::MAX_PULL);
        loop {
            let mut state = self.lock();
            let wake = loop {
                let stamp = self.tracer.as_ref().map(|_| Instant::now());
                match state.pull(id, stamp, &mut batch) {
                    Pull::Run(wake) => break wake,
                    Pull::Wait => state = self.wait(&self.job_ready, state),
                    Pull::Exit => return Ok(()),
                }
            };
            drop(state);
            self.wake(wake);

            for (idx, queued) in batch.iter().enumerate() {
                let (job, next_seq) = (&queued.job, batch.get(idx + 1).map(|q| q.seq));
                // Dispatch closed the queue-wait window at pop; record it
                // outside the state lock so tracing never stalls workers.
                if let (Some(tracer), Some(submitted_at)) = (&self.tracer, queued.submitted_at) {
                    tracer.record(Stage::QueueWait, job.id, job.tenant, submitted_at.elapsed());
                }

                // Consult the fault schedule for this (job, attempt).
                let record = match self.worker_faults.fault_for(job.id, queued.attempt) {
                    Some(WorkerFaultKind::Panic) => panic!(
                        "injected worker fault: panic executing job {} (attempt {})",
                        job.id.0, queued.attempt
                    ),
                    Some(WorkerFaultKind::WrongResult) => {
                        // A lying executor: bill more than was done. The
                        // completion-side quote check catches it — the
                        // quote's MAC covers the honest usage.
                        let mut record = self.fleet.run_one(job);
                        record.outcome.victim_billed.utime.0 =
                            record.outcome.victim_billed.utime.0.wrapping_add(1_000_000);
                        record
                    }
                    None => self.fleet.run_one(job),
                };
                if !self.complete(queued.seq, next_seq, record) {
                    return Err("completion failed record verification (wrong-result executor)");
                }
            }
            batch.clear();
        }
    }

    /// Logs one execution result ([`State::complete`]) unless
    /// [`Fleet::verify_record`] rejects it (a lying executor), which
    /// returns `false` and logs nothing.
    fn complete(&self, seq: u64, next_seq: Option<u64>, record: RunRecord) -> bool {
        if self.fleet.verify_record(&record).is_err() {
            return false;
        }
        let entry = JournalEntry::run(record);
        let wake = self.lock().complete(seq, next_seq, entry);
        self.wake(wake);
        true
    }

    /// Spawns worker `id` (at startup and on scale-up). The thread runs
    /// [`Shared::work`] under `catch_unwind`, so a panicking job (injected
    /// or real) never escapes the pool: a panic and a rejected record are
    /// both faults of the job, handled by [`State::fault`] on this same
    /// thread, which then re-enters `work` or, with the restart budget
    /// spent, retires.
    fn spawn_worker(shared: &Arc<Shared>, id: u64) -> JoinHandle<()> {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("fleet-ingest-{id}"))
            .spawn(move || loop {
                let reason = match panic::catch_unwind(AssertUnwindSafe(|| shared.work(id))) {
                    Ok(Ok(())) => return,
                    Ok(Err(reason)) => reason,
                    Err(_) => "worker panicked mid-job",
                };
                let (restart, reassigned, wake) = shared.lock().fault(id, reason);
                if let (Some(tracer), Some((job, tenant, dispatched_at))) =
                    (&shared.tracer, reassigned)
                {
                    // Reclaiming is nobody's per-tenant latency: aggregate
                    // cell only, one span per reassigned job.
                    let elapsed = dispatched_at.map(|at| at.elapsed()).unwrap_or_default();
                    tracer.record_aggregate(Stage::Reassign, job, tenant, elapsed);
                }
                shared.wake(wake);
                if !restart {
                    return;
                }
            })
            .expect("spawn ingest worker")
    }
}

/// A cloneable, `Send` handle for submitting jobs to a [`FleetStream`]
/// from other threads (each tenant can stream from its own thread while
/// the session's owner pumps).
#[derive(Debug, Clone)]
pub struct IngestHandle {
    shared: Arc<Shared>,
}

impl IngestHandle {
    /// Submits one job; see [`FleetStream::submit`].
    ///
    /// # Errors
    /// As for [`FleetStream::submit`].
    pub fn submit(&self, job: JobSpec) -> Result<u64, SubmitError> {
        self.shared.submit(job)
    }

    /// Submits a batch of jobs; see [`FleetStream::submit_all`].
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

/// A live streaming session over a [`FleetService`]: a worker pool over a
/// bounded, per-tenant-fair submission queue. See the [module docs](self).
///
/// Obtained from [`FleetService::stream`]. Jobs submitted through
/// [`FleetStream::submit`] (or an [`IngestHandle`] from
/// [`FleetStream::handle`], one per tenant thread) are executed by the
/// session's worker pool; [`FleetStream::pump`] posts completed records to
/// the service's ledger, auditor and metrics **in submission order**, and
/// [`FleetStream::finish`] drains the pipeline and returns the same
/// [`FleetReport`] [`FleetService::process`] produces — bit-identical for
/// any worker count, because seeds derive from job ids and the completion
/// log merges by submission sequence.
///
/// Dropping a stream without calling [`FleetStream::finish`] tears the
/// pipeline down: queued jobs are discarded, running jobs complete,
/// workers are joined, and blocked submitters are released with
/// [`SubmitError::ShutDown`]. Finished or dropped, the session folds its
/// final [`IngestStats`] into [`FleetService::metrics`] once.
#[derive(Debug)]
pub struct FleetStream<'a> {
    service: &'a mut FleetService,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    records: Vec<RunRecord>,
    verdicts: Vec<AuditVerdict>,
}

impl<'a> FleetStream<'a> {
    /// Spawns `config.workers` workers over the service's fleet,
    /// write-ahead journaling every accepted spec and released record into
    /// the service's journal, if one is attached (see the
    /// [`crate::journal`] module docs). The fleet's tracer, if any, also
    /// records the pipeline's queue-wait and journal-commit spans.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub(crate) fn open(service: &'a mut FleetService, config: IngestConfig) -> FleetStream<'a> {
        assert!(
            config.workers > 0,
            "an ingest pipeline needs at least one worker"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State::new(&config)),
            job_ready: Condvar::new(),
            slot_free: Condvar::new(),
            job_done: Condvar::new(),
            journal: service.journal.clone(),
            tracer: service.fleet.tracer().cloned(),
            submit_guard: Mutex::new(()),
            retry: config.retry,
            pool: BufferPool::new(),
            worker_faults: config.worker_faults,
            fleet: service.fleet.clone(),
        });
        let mut stream = FleetStream {
            service,
            shared,
            workers: Vec::new(),
            records: Vec::new(),
            verdicts: Vec::new(),
        };
        stream.scale_workers(config.workers);
        stream
    }

    /// Submits one job; returns its submission sequence number.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under [`BackpressurePolicy::Reject`] with
    /// a full queue; [`SubmitError::Quarantined`] while the journal or the
    /// worker pool is down; [`SubmitError::ShutDown`] once the session is
    /// finishing.
    pub fn submit(&self, job: JobSpec) -> Result<u64, SubmitError> {
        self.shared.submit(job)
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

    /// Resizes the worker pool to `workers` threads (clamped to at least
    /// one). Growing spawns immediately; shrinking is cooperative — each
    /// surplus worker finishes the batch it holds and exits at the top of
    /// its loop, so no job is ever abandoned mid-run. Reports stay
    /// bit-identical across any scaling schedule, and growing revives a
    /// pool that died out ([`FleetHealth::workers_dead`]). During shutdown
    /// the target is ignored: `finish` keeps every worker alive to drain.
    pub fn scale_workers(&mut self, workers: usize) {
        let (ids, wake) = self.shared.lock().scale(workers);
        if !ids.is_empty() {
            // Join the threads that already exited (shrunk or retired)
            // before adding more, so a long-lived stream holds a handle
            // only for a thread that may still run.
            for exited in self.workers.extract_if(.., |worker| worker.is_finished()) {
                exited.join().expect("a worker catches its jobs' panics");
            }
            for id in ids {
                self.workers.push(Shared::spawn_worker(&self.shared, id));
            }
        }
        self.shared.wake(wake);
    }

    /// Sets a tenant's fairness weight: how many jobs its lane may release
    /// per rotation turn (deficit round robin). Weight 1 (the default) is
    /// plain round-robin; 0 is clamped to 1. Takes effect from the lane's
    /// next turn.
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        self.shared.lock().queue.set_weight(tenant, weight);
    }

    /// A cloneable handle for submitting jobs from other threads while this
    /// session pumps completions.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A snapshot of the pipeline counters and gauges.
    pub fn stats(&self) -> IngestStats {
        self.shared.stats()
    }

    /// Starts dispatch in a stream opened with [`IngestConfig::paused`].
    pub fn resume(&self) {
        let wake = self.shared.lock().resume();
        self.shared.wake(wake);
    }

    /// Durability health: quarantine flag, retry/failure counters, the
    /// stalled backlog and the last journal error. The session
    /// keeps executing while quarantined — only the billing boundary
    /// (release → post) is closed — so poll this to decide when a
    /// [`FleetStream::resume_with_sink`] failover is needed.
    pub fn health(&self) -> FleetHealth {
        self.shared.lock().health()
    }

    /// Fails the journal over to a **fresh** sink and lifts the
    /// quarantine, then pumps the drained backlog into the service.
    ///
    /// The swap keeps chain continuity — the evidence chain head only
    /// advances on successful commits — and writes a leading
    /// [`crate::Checkpoint`] of the current accounting state into the new
    /// sink before anything else: a checkpoint is the one entry
    /// [`crate::parse_journal`] allows to adopt a foreign chain anchor, so
    /// the new sink replays **standalone** with
    /// [`FleetService::recover_latest`] — no splicing with the dead sink's
    /// lines required. After the checkpoint, the pending
    /// accepted-but-unreleased specs are re-journaled (the new sink is
    /// self-contained for submission-side recovery too), the stalled
    /// ready prefix is drained and posted, and normal operation resumes.
    ///
    /// Both commits run under the session's [`RetryPolicy`], like every
    /// other journal commit, and their failed attempts count in
    /// [`FleetHealth::retries`]. A checkpoint names no job, so its failed
    /// attempts leave no retry span. A retry after the checkpoint line
    /// landed but the retirement behind it failed writes the checkpoint
    /// again; recovery accepts repeated leading checkpoints, since only
    /// a checkpoint after replayed runs is misplaced.
    ///
    /// A dead worker pool is a separate cause of quarantine: the failover
    /// succeeds, and the pipeline stays quarantined, releasing nothing,
    /// until [`FleetStream::scale_workers`] revives the pool.
    ///
    /// # Errors
    /// [`JournalError`] if the session has no journal, or if the
    /// replacement sink fails every attempt the retry policy allows while
    /// writing the leading checkpoint or the accepted backlog — the
    /// pipeline then *stays* quarantined.
    pub fn resume_with_sink(&mut self, sink: Box<dyn JournalSink>) -> Result<(), JournalError> {
        let shared = &*self.shared;
        let Some(journal) = &shared.journal else {
            return Err(JournalError::Io(
                "stream session has no journal to fail over".to_string(),
            ));
        };
        journal.fail_over(sink);
        let checkpoint = JournalEntry::checkpoint(self.service.checkpoint());
        shared.commit_with_retry(&[checkpoint])?;
        self.service.runs_since_checkpoint = 0;
        let accepted: Vec<JournalEntry> = shared.lock().accepted.values().cloned().collect();
        shared.commit_with_retry(&accepted)?;
        let wake = shared.lock().failed_over();
        shared.wake(wake);
        self.pump();
        Ok(())
    }

    /// Verdicts posted so far, in submission order.
    pub fn verdicts(&self) -> &[AuditVerdict] {
        &self.verdicts
    }

    /// Poison verdicts released so far: jobs the supervisor retired after
    /// they killed [`SupervisorPolicy::max_job_attempts`] workers in a
    /// row. Each was journaled as a chained [`JournalEntry::Poisoned`]
    /// entry when released; nothing was billed for it. In release
    /// (submission) order.
    pub fn poisoned(&self) -> Vec<PoisonNotice> {
        self.shared.lock().poisoned_log.clone()
    }

    /// The dispatch order so far — which job each worker popped, in pop
    /// order; a reassigned job appears once per dispatch. This is the
    /// observable fairness record: with a backlog from several tenants,
    /// consecutive entries round-robin across tenants.
    pub fn dispatch_log(&self) -> Vec<(JobId, TenantId)> {
        self.shared.lock().dispatch_log.clone()
    }

    /// Posts every completed record that extends the contiguous
    /// submission-order prefix to the service (ledger → auditor →
    /// metrics) and returns how many records were posted. Records
    /// completed out of order are held back until the gap fills; poison
    /// verdicts release in the same order (their journaled `Poisoned`
    /// entry is the release) but post nothing — read them from
    /// [`FleetStream::poisoned`].
    ///
    /// With a journal attached, the `Run` entries of the whole ready
    /// prefix are committed as a batch before anything posts, the pump's
    /// billing/audit receipts are coalesced into **one** group commit
    /// after the posting loop, and the end of the pump is a checkpoint
    /// safe point: every journaled run is posted, so an inline
    /// [`crate::Checkpoint`] written here folds the whole journal so far.
    pub fn pump(&mut self) -> usize {
        let mut ready = self.take_ready();
        let posted = self
            .service
            .post_ready(&mut ready, &mut self.records, &mut self.verdicts);
        // Hand the emptied batch container back for the next release.
        self.shared.pool.release(ready);
        posted
    }

    /// Releases the contiguous prefix of the completion log, a prefix
    /// parked by quarantine first, and returns its records in submission
    /// order. With a journal attached, each prefix — records and poison
    /// verdicts alike, journaled as they lie in the log, so no record is
    /// cloned — is committed as **one** group commit **before** the
    /// release cursor passes it. That is the write-ahead guarantee: a
    /// record a consumer ever observes (and bills) is already durable,
    /// and a record that was never journaled was never released.
    ///
    /// Only `&mut self` reaches this, so the borrow serializes consumers,
    /// and the commit runs outside the state lock: workers keep completing
    /// jobs meanwhile, and the loop releases what they completed until the
    /// prefix is empty.
    ///
    /// This never panics on I/O. The commit runs under the configured
    /// [`RetryPolicy`]; on exhaustion the prefix is parked and the
    /// pipeline quarantines ([`State::commit_failed`]), so nothing is
    /// ever released unjournaled, under any fault schedule. A quarantined
    /// pipeline releases nothing until a failover lifts the quarantine.
    ///
    /// The wakeups wait for the end of the pump, so a worker stalled on
    /// the completion watermark starts no job that this pump releases.
    /// Every release asks for the same one and a failed commit's wakes
    /// every waiter, so the pump's last wake covers them all.
    fn take_ready(&mut self) -> Vec<RunRecord> {
        let shared = &*self.shared;
        let mut records: Option<Vec<RunRecord>> = None;
        let mut wake = Wake::default();
        loop {
            let Some(prefix) = shared.lock().ready_prefix() else {
                break;
            };
            if shared.journal.is_some() {
                let commit_started = shared.tracer.as_ref().map(|_| Instant::now());
                if let Err(e) = shared.commit_with_retry(&prefix) {
                    // Retry policy exhausted: park the prefix (unreleased,
                    // unjournaled — the cursor still points at its first
                    // entry) and close the billing boundary.
                    wake = shared.lock().commit_failed(&e, prefix);
                    break;
                }
                if let (Some(tracer), Some(started), Some((job, tenant))) =
                    (&shared.tracer, commit_started, first_job(&prefix))
                {
                    // A shared commit is nobody's per-tenant latency:
                    // aggregate cell only, attributed to its first job.
                    tracer.record_aggregate(Stage::JournalCommit, job, tenant, started.elapsed());
                }
            }
            let out = records.get_or_insert_with(|| shared.pool.acquire());
            wake = shared.lock().release(prefix, out);
        }
        shared.wake(wake);
        records.unwrap_or_default()
    }

    /// Drains the pipeline (graceful shutdown: every accepted job still
    /// runs), posts the remaining records, and returns the cumulative
    /// report — bit-identical to [`FleetService::process`] over the same
    /// jobs for any worker count.
    ///
    /// Finishing while **quarantined** still executes and joins everything
    /// but posts nothing more: the parked and completed records stay
    /// behind the closed billing boundary (never journaled ⇒ never
    /// billed). Fail over with [`FleetStream::resume_with_sink`] *before*
    /// finishing to drain them instead.
    pub fn finish(self) -> FleetReport {
        self.drain().0
    }

    /// [`FleetStream::finish`], also returning the drained pipeline's
    /// final [`FleetHealth`].
    pub(crate) fn drain(mut self) -> (FleetReport, FleetHealth) {
        self.pump();
        self.shut_down(true);
        self.pump();
        let report = FleetReport {
            records: std::mem::take(&mut self.records),
            verdicts: std::mem::take(&mut self.verdicts),
            ledger: self.service.ledger.clone(),
        };
        (report, self.shared.lock().health())
    }

    /// Stops the pool and joins every worker. A drain first waits until
    /// every submitted job completed or was poisoned — a faulted worker
    /// restarts in place through the drain, so that target stays
    /// reachable unless the whole pool retired with the restart budget
    /// spent. A teardown (or a dead pool) discards the queued
    /// backlog instead, so it never blocks longer than the jobs already
    /// running.
    fn shut_down(&mut self, drain: bool) {
        let shared = &self.shared;
        let mut state = shared.lock();
        shared.wake(state.close(drain));
        while !state.drained() {
            state = shared.wait(&shared.job_done, state);
        }
        drop(state);
        for worker in self.workers.drain(..) {
            // Workers catch their jobs' panics, so a join never carries
            // one; a teardown must not panic on it either way.
            let _ = worker.join();
        }
    }
}

impl Drop for FleetStream<'_> {
    /// Teardown without [`FleetStream::finish`] (early return, panic
    /// unwind, plain drop) discards the queued backlog and joins the
    /// workers. Either way, the session's final counters and gauges then
    /// fold into the service's ops registry.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shut_down(false);
        }
        self.service.fold_session(&self.shared.stats());
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

    /// A service over `workers` shards on fleet seed `seed`, journaling
    /// into `journal` when one is given.
    fn service(workers: usize, seed: u64, journal: Option<Journal>) -> FleetService {
        let service = FleetService::new(FleetConfig::new(workers, seed));
        match journal {
            Some(journal) => service.with_journal(journal),
            None => service,
        }
    }

    #[test]
    fn streamed_records_arrive_in_submission_order() {
        let mut service = service(4, 7, None);
        let stream = service.stream(IngestConfig::new(4));
        for id in 0..12 {
            stream.submit(job(id, (id % 3) as u32)).unwrap();
        }
        let report = stream.finish();
        let ids: Vec<u64> = report.records.iter().map(|r| r.job.id.0).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn recycled_buffers_feed_the_next_release() {
        let mut service = service(1, 7, None);
        let mut stream = service.stream(IngestConfig::new(1));
        let handle = stream.handle();
        let mut taken = 0;
        for round in 0..3 {
            for id in 0..4 {
                stream.submit(job(round * 4 + id, 1)).unwrap();
            }
            // Each pump takes the ready prefix, posts it and recycles the
            // emptied buffer.
            while taken < (round + 1) * 4 {
                taken += stream.pump() as u64;
            }
        }
        let stats = stream.stats().pool;
        assert!(stats.acquired > 0, "releases drew from the pool");
        assert!(
            stats.reused > 0,
            "later releases reused recycled capacity: {stats:?}"
        );
        assert_eq!(stats.acquired, stats.reused + stats.allocated());
        stream.finish();
        assert_eq!(handle.stats().completed, 12);
    }

    #[test]
    fn reject_policy_returns_queue_full() {
        let config = IngestConfig::new(1)
            .with_capacity(2)
            .with_backpressure(BackpressurePolicy::Reject)
            .paused();
        let mut service = service(1, 7, None);
        let stream = service.stream(config);
        let handle = stream.handle();
        stream.submit(job(0, 1)).unwrap();
        stream.submit(job(1, 1)).unwrap();
        assert_eq!(stream.submit(job(2, 1)), Err(SubmitError::QueueFull));
        assert_eq!(stream.stats().rejected, 1);
        stream.resume();
        let report = stream.finish();
        assert_eq!(report.records.len(), 2);
        let stats = handle.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.inflight_total(), 0);
    }

    #[test]
    fn blocked_submitters_ride_out_backpressure() {
        let config = IngestConfig::new(2).with_capacity(1);
        let mut service = service(2, 3, None);
        let stream = service.stream(config);
        let handle = stream.handle();
        let submitter = std::thread::spawn(move || {
            for id in 0..10 {
                handle.submit(job(id, (id % 2) as u32)).unwrap();
            }
        });
        submitter.join().unwrap();
        let report = stream.finish();
        assert_eq!(report.records.len(), 10);
        let ids: Vec<u64> = report.records.iter().map(|r| r.job.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_log_round_robins_a_staged_backlog() {
        // Stage a backlog while paused so the dispatch order is exact.
        let config = IngestConfig::new(1).with_capacity(0).paused();
        let mut service = service(1, 5, None);
        let stream = service.stream(config);
        for id in 0..6 {
            stream.submit(job(id, 1)).unwrap(); // greedy tenant
        }
        stream.submit(job(6, 2)).unwrap(); // modest tenant
        stream.resume();
        // Every job has been dispatched once every job has completed.
        while stream.stats().completed < 7 {
            std::thread::yield_now();
        }
        let dispatch_log = stream.dispatch_log();
        let report = stream.finish();
        assert_eq!(report.records.len(), 7);
        let dispatched: Vec<u32> = dispatch_log.iter().map(|(_, tenant)| tenant.0).collect();
        // Tenant 2's single job is served second, not seventh.
        assert_eq!(dispatched[1], 2, "dispatch order: {dispatched:?}");
    }

    #[test]
    fn dropping_without_finish_discards_backlog_and_joins_workers() {
        let config = IngestConfig::new(2).paused();
        let mut service = service(2, 11, None);
        let stream = service.stream(config);
        let handle = stream.handle();
        for id in 0..4 {
            stream.submit(job(id, 1)).unwrap();
        }
        // No finish(): Drop must tear down without hanging, abandoning the
        // paused backlog.
        drop(stream);
        assert_eq!(handle.submit(job(9, 1)), Err(SubmitError::ShutDown));
        assert_eq!(handle.stats().completed, 0, "backlog was discarded");
    }

    #[test]
    fn submit_after_finish_is_rejected() {
        let mut service = service(1, 1, None);
        let stream = service.stream(IngestConfig::new(1));
        let handle = stream.handle();
        stream.submit(job(0, 1)).unwrap();
        stream.finish();
        assert_eq!(handle.submit(job(1, 1)), Err(SubmitError::ShutDown));
    }

    #[test]
    fn completion_watermark_stalls_workers_until_consumed() {
        let config = IngestConfig::new(2).with_completion_watermark(1);
        let mut service = service(2, 13, None);
        let mut stream = service.stream(config);
        let handle = stream.handle();
        for id in 0..5 {
            stream.submit(job(id, 1)).unwrap();
        }
        // One job is allowed through; with ready + inflight at the
        // watermark, no worker may start another.
        while stream.stats().ready < 1 {
            std::thread::yield_now();
        }
        for _ in 0..100 {
            std::thread::yield_now();
        }
        let stats = stream.stats();
        assert_eq!(stats.ready, 1, "completion log is bounded at the watermark");
        assert_eq!(stats.completed, 1, "no further job started");
        // Consuming the record frees exactly one slot.
        assert_eq!(stream.pump(), 1);
        while stream.stats().ready < 1 {
            std::thread::yield_now();
        }
        assert_eq!(stream.stats().completed, 2);
        // A graceful finish lifts the watermark and drains the backlog.
        let report = stream.finish();
        assert_eq!(report.records.len(), 5);
        assert_eq!(handle.stats().ready, 0);
    }

    #[test]
    fn journal_receives_released_records_in_submission_order() {
        let journal = Journal::in_memory();
        let mut service = service(4, 21, Some(journal.clone()));
        let stream = service.stream(IngestConfig::new(4));
        for id in 0..8 {
            stream.submit(job(id, (id % 2) as u32)).unwrap();
        }
        let report = stream.finish();
        assert_eq!(report.records.len(), 8);
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
        // 8 accepted + 8 runs + 8 invoices + 8 verdicts.
        assert_eq!(journal.stats().appends, 32);
    }

    #[test]
    fn unreleased_records_are_never_journaled() {
        let journal = Journal::in_memory();
        let mut service = service(1, 17, Some(journal.clone()));
        let stream = service.stream(IngestConfig::new(1).paused());
        stream.submit(job(0, 1)).unwrap();
        // Teardown without finish(): the backlog is discarded, nothing was
        // released, so no Run entry was journaled — crash-lost work was
        // never billed. The Accepted marker *is* there: that is the
        // submission-side record a restarted service resubmits from.
        drop(stream);
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
        let journal = Journal::with_sink(Box::new(sink));
        let mut service = service(1, 23, Some(journal.clone()));
        let stream = service.stream(IngestConfig::new(1));
        let handle = stream.handle();
        for id in 0..3 {
            stream.submit(job(id, 1)).unwrap();
        }
        let report = stream.finish();
        assert_eq!(report.records.len(), 3);
        let stats = handle.stats();
        assert!(!stats.quarantined);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.journal_failures, 0);
        assert_eq!(probe.stats().injected_transient, 2);
        // The journal chain survived the retries intact.
        let (entries, _) = journal.entries().unwrap();
        assert_eq!(
            entries.len(),
            12,
            "3 accepted + 3 runs + 3 invoices + 3 verdicts"
        );
    }

    #[test]
    fn exhausted_retries_quarantine_instead_of_panicking() {
        use crate::faults::{FaultInjectingSink, FaultSchedule, RetryPolicy};
        use crate::journal::MemorySink;

        // Accepted entries (lines 0..2) pass; the release-path Run commit
        // (line 2 onward) hits a dead disk.
        let schedule = FaultSchedule::none().disk_full_at(2);
        let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink));
        let config = IngestConfig::new(1).with_retry_policy(RetryPolicy::new(2));
        let mut service = service(1, 29, Some(journal.clone()));
        let mut stream = service.stream(config);
        let handle = stream.handle();
        stream.submit(job(0, 1)).unwrap();
        stream.submit(job(1, 1)).unwrap();
        // Wait for both to complete, then try to release: the commit
        // exhausts the policy and quarantines — no panic, no release.
        while stream.stats().completed < 2 {
            std::thread::yield_now();
        }
        assert_eq!(stream.pump(), 0);
        let health = stream.health();
        assert!(health.quarantined);
        assert_eq!(health.journal_failures, 1);
        assert_eq!(health.retries, 1);
        assert_eq!(health.stalled, 2);
        assert_eq!(health.pending_accepted, 2);
        assert!(health.last_error.unwrap().contains("disk-full"));
        // Quarantine closes the front door…
        assert_eq!(stream.submit(job(2, 1)), Err(SubmitError::Quarantined));
        // …and the billing boundary: nothing was released unjournaled.
        let (entries, _) = journal.entries().unwrap();
        assert!(entries.iter().all(|e| e.label() == "accepted"));
        let report = stream.finish();
        assert!(report.records.is_empty(), "quarantine releases nothing");
        assert!(handle.stats().quarantined);
    }

    #[test]
    fn failover_drains_the_stalled_prefix_with_chain_continuity() {
        use crate::faults::{FaultInjectingSink, FaultSchedule, RetryPolicy};
        use crate::journal::{parse_journal, MemorySink};

        let schedule = FaultSchedule::none().permanent_at(2);
        let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink));
        let config = IngestConfig::new(1).with_retry_policy(RetryPolicy::none());
        let mut service = service(1, 31, Some(journal.clone()));
        let mut stream = service.stream(config);
        stream.submit(job(0, 1)).unwrap();
        stream.submit(job(1, 1)).unwrap();
        while stream.stats().completed < 2 {
            std::thread::yield_now();
        }
        assert_eq!(stream.pump(), 0);
        assert!(stream.health().quarantined);
        let dead_text = journal.text().unwrap();

        // Fail over to a fresh sink: quarantine lifts, the parked batch
        // drains, and new submissions are accepted again.
        stream
            .resume_with_sink(Box::new(MemorySink::new()))
            .unwrap();
        assert!(!stream.health().quarantined);
        assert_eq!(stream.verdicts().len(), 2, "the failover posted the stall");
        stream.submit(job(2, 1)).unwrap();
        let report = stream.finish();
        assert_eq!(report.records.len(), 3);

        // Chain continuity: the old text concatenated with the new sink's
        // text parses as ONE unbroken evidence chain.
        let new_text = journal.text().unwrap();
        let spliced = format!("{dead_text}{new_text}");
        let (entries, tail) = parse_journal(&spliced).unwrap();
        assert!(!tail.is_truncated());
        // 2 accepted (old); then the leading checkpoint, 2 re-journaled
        // accepted, 2 runs and their 4 receipts; then 1 accepted, 1 run
        // and 2 receipts (post-failover submission).
        assert_eq!(entries.len(), 15);
    }

    #[test]
    fn submit_all_slices_through_a_bounded_queue() {
        let config = IngestConfig::new(2).with_capacity(3);
        let mut service = service(2, 7, None);
        let stream = service.stream(config);
        let handle = stream.handle();
        let jobs: Vec<JobSpec> = (0..10).map(|id| job(id, (id % 3) as u32)).collect();
        let seqs = stream.submit_all(&jobs).unwrap();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        let report = stream.finish();
        let ids: Vec<u64> = report.records.iter().map(|r| r.job.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>(), "submission order held");
        assert_eq!(handle.stats().submitted, 10);
    }

    #[test]
    fn batched_submission_journal_matches_per_job_bytes() {
        let jobs: Vec<JobSpec> = (0..6).map(|id| job(id, (id % 2) as u32)).collect();
        let run = |batched: bool| {
            let journal = Journal::in_memory();
            let mut service = service(1, 41, Some(journal.clone()));
            let stream = service.stream(IngestConfig::new(1).paused());
            if batched {
                stream.submit_all(&jobs).unwrap();
            } else {
                for j in &jobs {
                    stream.submit(j.clone()).unwrap();
                }
            }
            stream.finish();
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
        // never journal (runs are journaled at release, and nothing pumps),
        // so the line schedule is deterministic even with the pool running.
        let schedule = FaultSchedule::none().disk_full_at(2);
        let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink));
        let config = IngestConfig::new(1)
            .with_capacity(2)
            .with_retry_policy(RetryPolicy::none());
        let mut service = service(1, 43, Some(journal.clone()));
        let stream = service.stream(config);
        let handle = stream.handle();
        let jobs: Vec<JobSpec> = (0..4).map(|id| job(id, 1)).collect();
        let err = stream.submit_all(&jobs).unwrap_err();
        assert_eq!(
            err.accepted,
            vec![0, 1],
            "journaled prefix is in the pipeline"
        );
        assert_eq!(err.error, SubmitError::Quarantined);
        assert!(stream.health().quarantined);
        let report = stream.finish();
        assert_eq!(handle.stats().submitted, 2, "only the durable prefix ran");
        assert!(report.records.is_empty(), "quarantine releases nothing");
    }

    #[test]
    fn scale_workers_grows_and_shrinks_the_pool() {
        let mut service = service(2, 7, None);
        let mut stream = service.stream(IngestConfig::new(2));
        let handle = stream.handle();
        assert_eq!(stream.stats().workers, 2);
        stream.scale_workers(4);
        assert_eq!(stream.stats().workers, 4);
        stream.scale_workers(1);
        while stream.stats().workers > 1 {
            std::thread::yield_now();
        }
        // The shrunk pool still drains everything.
        for id in 0..8 {
            stream.submit(job(id, (id % 2) as u32)).unwrap();
        }
        let report = stream.finish();
        assert_eq!(report.records.len(), 8);
        assert_eq!(handle.stats().workers, 0, "every worker exited on finish");
    }

    #[test]
    fn scaling_joins_the_threads_that_already_exited() {
        let mut service = service(4, 7, None);
        let mut stream = service.stream(IngestConfig::new(4));
        stream.scale_workers(1);
        // Three surplus workers consume their shrink tokens and exit.
        while stream.workers.iter().filter(|w| w.is_finished()).count() < 3 {
            std::thread::yield_now();
        }
        stream.scale_workers(4);
        assert_eq!(stream.workers.len(), 4, "only live threads keep a handle");
        for id in 0..8 {
            stream.submit(job(id, (id % 2) as u32)).unwrap();
        }
        assert_eq!(stream.finish().records.len(), 8);
    }

    #[test]
    fn finished_dropped_and_respawned_pools_free_their_shared_state() {
        // Each worker thread holds an `Arc<Shared>`, a restarted one
        // included; one that outlives its pool keeps the queue, the pooled
        // buffers, the tracer and the journal's open segment alive forever.
        let mut service = service(2, 11, Some(Journal::in_memory()));
        let config = |faults| IngestConfig::new(2).with_worker_faults(faults);

        let stream = service.stream(config(WorkerFaultSchedule::none()));
        let shared = Arc::downgrade(&stream.shared);
        stream.submit_all(&[job(0, 1), job(1, 2)]).unwrap();
        assert_eq!(stream.finish().records.len(), 2);
        assert!(
            shared.upgrade().is_none(),
            "finished pool leaked its Shared"
        );

        let stream = service.stream(config(WorkerFaultSchedule::none()));
        let shared = Arc::downgrade(&stream.shared);
        stream.submit_all(&[job(0, 1), job(1, 2)]).unwrap();
        while stream.stats().completed < 2 {
            std::thread::yield_now();
        }
        drop(stream);
        assert!(shared.upgrade().is_none(), "dropped pool leaked its Shared");

        let stream = service.stream(config(WorkerFaultSchedule::none().panic_on(JobId(1))));
        let shared = Arc::downgrade(&stream.shared);
        let handle = stream.handle();
        let jobs: Vec<JobSpec> = (0..4).map(|id| job(id, 1)).collect();
        stream.submit_all(&jobs).unwrap();
        let report = stream.finish();
        assert_eq!(report.records.len(), 4);
        assert!(handle.stats().worker_restarts >= 1, "the panic was reaped");
        drop(handle);
        assert!(
            shared.upgrade().is_none(),
            "pool with a respawned worker leaked its Shared"
        );
    }

    #[test]
    fn take_ready_holds_back_gaps() {
        let mut service = service(1, 9, None);
        let mut stream = service.stream(IngestConfig::new(1).paused());
        stream.submit(job(0, 1)).unwrap();
        stream.submit(job(1, 1)).unwrap();
        // Nothing completed yet: nothing to take.
        assert_eq!(stream.pump(), 0);
        stream.resume();
        let report = stream.finish();
        assert_eq!(report.records.len(), 2);
    }

    #[test]
    fn a_released_prefix_and_its_poison_verdict_are_one_group_commit() {
        let journal = Journal::in_memory();
        let mut service = service(1, 9, Some(journal.clone()));
        let config = IngestConfig::new(1)
            .paused()
            .with_supervisor(SupervisorPolicy::default().with_max_job_attempts(2))
            .with_worker_faults(WorkerFaultSchedule::none().poison_on(JobId(2)));
        let mut stream = service.stream(config);
        let jobs: Vec<JobSpec> = (0..6).map(|id| job(id, 1)).collect();
        stream.submit_all(&jobs).unwrap();
        stream.resume();
        // Five records and the poison verdict wait in the completion log.
        while stream.stats().ready < 6 {
            std::thread::yield_now();
        }
        let before = journal.stats().group_commits;
        assert_eq!(stream.pump(), 5);
        assert_eq!(
            journal.stats().group_commits - before,
            2,
            "one commit for the released prefix, one for its receipts"
        );
        let (entries, _) = journal.entries().unwrap();
        let released: Vec<&str> = entries[6..12].iter().map(JournalEntry::label).collect();
        assert_eq!(released, ["run", "run", "poisoned", "run", "run", "run"]);
        assert_eq!(stream.poisoned().len(), 1);
    }

    #[test]
    fn a_submission_side_quarantine_keeps_the_parked_prefix() {
        let mut service = service(1, 9, None);
        let stream = service.stream(IngestConfig::new(1).paused());
        let notice = PoisonNotice {
            spec: job(0, 1),
            attempts: 1,
        };
        let error = || JournalError::Io("injected".to_string());
        // The release side parks its prefix; a submission-side commit that
        // exhausted its retries at the same time quarantines second.
        let mut state = stream.shared.lock();
        let _ = state.commit_failed(&error(), vec![JournalEntry::poisoned(notice)]);
        let _ = state.commit_failed(&error(), Vec::new());
        drop(state);
        let health = stream.health();
        assert_eq!(health.journal_failures, 2);
        assert_eq!(health.stalled, 1, "the parked prefix survives");
    }

    #[test]
    fn completion_rejects_a_lying_record_without_a_fault_schedule() {
        let mut service = service(1, 9, None);
        let stream = service.stream(IngestConfig::new(1).paused());
        let mut record = stream.shared.fleet.run_one(&job(0, 1));
        record.outcome.victim_billed.utime.0 += 1_000_000;
        assert!(!stream.shared.complete(0, None, record));
        assert_eq!(stream.stats().completed, 0, "nothing was logged");
    }

    #[test]
    fn inflight_counts_only_the_running_job_of_a_batch() {
        // One worker pulls all eight staged jobs in one batch; only the one
        // it runs is in flight, its batch-mates wait.
        let mut service = service(1, 9, None);
        let stream = service.stream(IngestConfig::new(1).paused());
        let jobs: Vec<JobSpec> = (0..8)
            .map(|id| JobSpec::clean(id, TenantId(1), Workload::Pi, 0.01))
            .collect();
        stream.submit_all(&jobs).unwrap();
        stream.resume();
        loop {
            let stats = stream.stats();
            assert!(stats.inflight_total() <= 1, "{:?}", stats.inflight);
            if stats.completed == 8 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(stream.finish().records.len(), 8);
    }

    #[test]
    fn a_failover_retries_its_commits_under_the_policy() {
        use crate::faults::{FaultInjectingSink, FaultSchedule};
        use crate::journal::MemorySink;

        let dead = FaultSchedule::none().permanent_at(2);
        let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), dead);
        let journal = Journal::with_sink(Box::new(sink));
        let mut service = service(1, 31, Some(journal.clone()));
        let mut stream = service.stream(IngestConfig::new(1));
        stream.submit_all(&[job(0, 1), job(1, 1)]).unwrap();
        while stream.stats().completed < 2 {
            std::thread::yield_now();
        }
        assert_eq!(stream.pump(), 0);
        assert!(stream.health().quarantined);
        let retries = stream.health().retries;
        // The replacement's first write, the leading checkpoint, fails
        // once; the default policy's second attempt lands it.
        let flaky = FaultSchedule::none().transient_at(0, 1);
        let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), flaky);
        stream.resume_with_sink(Box::new(sink)).unwrap();
        let health = stream.health();
        assert!(!health.quarantined);
        assert_eq!(health.retries, retries + 1);
        assert_eq!(stream.verdicts().len(), 2, "the failover released both");
        assert_eq!(stream.finish().records.len(), 2);
    }

    // ---------------------------------------------------------------------
    // The pipeline machine under seeded interleavings: virtual workers, a
    // submitter and the session's owner drive a bare `State` against a
    // model journal. No thread, no lock, no I/O.
    // ---------------------------------------------------------------------

    /// Cases of the interleaving property: `PROPTEST_CASES` when set (CI
    /// runs 10,000 in release), else a count that keeps the debug run
    /// short.
    fn machine_cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    }

    /// The traffic shapes the pipeline serves.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Traffic {
        /// fleetbench's closed loop: `Block`, 16-job `submit_all` chunks,
        /// at most 64 jobs accepted and unreleased.
        Closed,
        /// fleetbench's open loop: `Reject` over a small queue, weighted
        /// tenants.
        Open,
        /// `FleetService::process`: paused, capacity equal to the batch,
        /// one `submit_all`, then a drain.
        Process,
        /// One-job submits.
        OneByOne,
        /// Capacity 0 (unbounded).
        Unbounded,
    }

    /// One step of one actor: the submitter, a worker (by index) or the
    /// session's owner.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Action {
        Submit,
        Accept,
        Pull(usize),
        Complete(usize),
        Fault(usize),
        Pump,
        Commit,
        Failover,
        Scale,
        Resume,
        Close,
        Drained,
        Join,
    }

    /// A virtual worker thread.
    #[derive(Debug)]
    struct Worker {
        id: u64,
        /// The batch it pulled; empty between pulls.
        batch: Vec<QueuedJob>,
        /// The batch item it is running.
        at: usize,
        /// Waiting on `job_ready`.
        parked: bool,
    }

    /// What the session's owner thread is doing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Owner {
        Open,
        /// In `shut_down`, waiting on `job_done` while parked.
        Closing {
            drain: bool,
            parked: bool,
        },
        /// Joining the workers; a drain then pumps once more.
        Joining {
            drain: bool,
        },
        Done,
    }

    struct Sim<'r> {
        seed: u64,
        step: usize,
        action: Option<Action>,
        rng: trustmeter_sim::SimRng,
        state: State,
        traffic: Traffic,
        jobs: Vec<JobSpec>,
        /// Jobs that kill every worker that runs them, by job id.
        poison: Vec<bool>,
        /// Jobs per `submit_all` call.
        chunk: usize,
        journal: bool,
        /// Attempts per journal commit.
        retry: u32,
        /// The chance that one commit attempt fails.
        flaky: f64,
        /// The chance that a worker may fault its running job this step.
        fault_rate: f64,
        /// The record every completion clones with its job's spec.
        record: &'r RunRecord,
        workers: Vec<Worker>,
        /// The submitter: the next job to hand over, the end of the
        /// current `submit_all` call, a slice between `admit` and
        /// `accept`, and whether it waits on `slot_free`.
        next_job: usize,
        call_end: usize,
        admitted: Option<usize>,
        blocked: bool,
        owner: Owner,
        /// The owner is inside `take_ready`: the prefix it is committing,
        /// if any, and the wakeups it applies when the pump ends.
        pump: Option<(Option<Vec<JournalEntry>>, Wake)>,
        // The model journal and the counts the machine must agree with.
        /// Each job's sequence number, once accepted.
        seq_of: Vec<Option<u64>>,
        /// Each sequence number's job.
        job_at: Vec<usize>,
        /// Whether each sequence number's `Accepted` entry was committed.
        accepted_journaled: Vec<bool>,
        /// Release entries committed, in sequence order.
        journaled: u64,
        released: u64,
        out: Vec<RunRecord>,
        /// Started attempts of each sequence number that faulted.
        faults: Vec<u32>,
        reassigned: u64,
        rejected: u64,
        retries: u64,
        journal_failures: u64,
    }

    macro_rules! ensure {
        ($sim:expr, $cond:expr, $($what:tt)+) => {
            assert!(
                $cond,
                "seed {} step {} {:?}: {}",
                $sim.seed,
                $sim.step,
                $sim.action,
                format_args!($($what)+)
            )
        };
    }

    impl<'r> Sim<'r> {
        fn new(seed: u64, record: &'r RunRecord) -> Sim<'r> {
            let mut rng = trustmeter_sim::SimRng::seed_from(seed);
            let traffic = [
                Traffic::Closed,
                Traffic::Open,
                Traffic::Process,
                Traffic::OneByOne,
                Traffic::Unbounded,
            ][rng.gen_range(0, 5) as usize];
            let n = match traffic {
                Traffic::Closed => rng.gen_range(16, 97),
                _ => rng.gen_range(1, 41),
            } as usize;
            let tenants = rng.gen_range(1, 4) as u32;
            let jobs: Vec<JobSpec> = (0..n as u64)
                .map(|id| job(id, rng.gen_range(1, u64::from(tenants) + 1) as u32))
                .collect();
            let (capacity, policy, chunk) = match traffic {
                Traffic::Closed => (n, BackpressurePolicy::Block, 16),
                Traffic::Open => (
                    rng.gen_range(1, 9) as usize,
                    BackpressurePolicy::Reject,
                    rng.gen_range(1, 9) as usize,
                ),
                Traffic::Process => (n, BackpressurePolicy::Block, n),
                Traffic::OneByOne => {
                    let policy = if rng.gen_bool(0.5) {
                        BackpressurePolicy::Block
                    } else {
                        BackpressurePolicy::Reject
                    };
                    (rng.gen_range(0, 5) as usize, policy, 1)
                }
                Traffic::Unbounded => (0, BackpressurePolicy::Block, rng.gen_range(1, 17) as usize),
            };
            let workers = rng.gen_range(1, 5) as usize;
            let mut config = IngestConfig::new(workers)
                .with_capacity(capacity)
                .with_backpressure(policy)
                .with_supervisor(
                    SupervisorPolicy::default()
                        .with_max_restarts(rng.gen_range(0, 5) as u32)
                        .with_max_job_attempts(rng.gen_range(1, 4) as u32),
                );
            if traffic == Traffic::Process || rng.gen_bool(0.2) {
                config = config.paused();
            }
            if traffic != Traffic::Process && rng.gen_bool(0.4) {
                config = config.with_completion_watermark(rng.gen_range(1, 7) as usize);
            }
            let mut state = State::new(&config);
            if traffic == Traffic::Open {
                for tenant in 1..=tenants {
                    state.queue.set_weight(TenantId(tenant), tenant);
                }
            }
            let fault_rate = [0.0, 0.1, 0.3][rng.gen_range(0, 3) as usize];
            let mut sim = Sim {
                seed,
                step: 0,
                action: None,
                poison: (0..n)
                    .map(|_| fault_rate > 0.0 && rng.gen_bool(0.05))
                    .collect(),
                journal: rng.gen_bool(0.85),
                retry: rng.gen_range(1, 4) as u32,
                flaky: [0.0, 0.05, 0.3][rng.gen_range(0, 3) as usize],
                fault_rate,
                rng,
                state,
                traffic,
                jobs,
                chunk,
                record,
                workers: Vec::new(),
                next_job: 0,
                call_end: 0,
                admitted: None,
                blocked: false,
                owner: Owner::Open,
                pump: None,
                seq_of: vec![None; n],
                job_at: Vec::new(),
                accepted_journaled: Vec::new(),
                journaled: 0,
                released: 0,
                out: Vec::new(),
                faults: Vec::new(),
                reassigned: 0,
                rejected: 0,
                retries: 0,
                journal_failures: 0,
            };
            sim.scale(workers);
            sim
        }

        /// Runs the case to its end, checking every invariant after every
        /// step.
        fn run(mut self) {
            while !(self.owner == Owner::Done && self.submitter_done()) {
                let actions = self.enabled();
                ensure!(
                    self,
                    !actions.is_empty(),
                    "no actor can move: a lost wakeup"
                );
                ensure!(self, self.step < 50_000, "the case never ends");
                let action = actions[self.rng.gen_range(0, actions.len() as u64) as usize];
                self.step += 1;
                self.action = Some(action);
                let causes = (
                    self.state.journal_error.is_some(),
                    self.state.dead_pool.is_some(),
                );
                self.act(action);
                // 5. Only a failed commit raises a journal error and only a
                // failover lifts it; only a fault kills the pool and only a
                // scale-up revives it.
                let now = (
                    self.state.journal_error.is_some(),
                    self.state.dead_pool.is_some(),
                );
                if causes.0 != now.0 {
                    let by = if now.0 {
                        matches!(action, Action::Accept | Action::Commit | Action::Join)
                    } else {
                        action == Action::Failover
                    };
                    ensure!(self, by, "the journal error changed by another step");
                }
                if causes.1 != now.1 {
                    let by = if now.1 {
                        matches!(action, Action::Fault(_))
                    } else {
                        action == Action::Scale
                    };
                    ensure!(self, by, "the dead pool changed by another step");
                }
                self.check();
            }
            // 10. A drain whose pool lived ran every accepted job, and a
            // journal that stayed up released them all.
            if self.state.phase == Phase::Draining {
                let s = &self.state;
                ensure!(
                    self,
                    s.completed_count + s.poisoned_count == s.next_seq,
                    "a drain left jobs unrun"
                );
                ensure!(
                    self,
                    s.journal_error.is_some() || s.released == s.next_seq,
                    "a drain left jobs unreleased"
                );
            }
        }

        fn submitter_done(&self) -> bool {
            self.next_job == self.jobs.len() && self.admitted.is_none()
        }

        /// Every action some actor can take now. A parked actor takes none
        /// until a wakeup reaches it.
        fn enabled(&mut self) -> Vec<Action> {
            let mut actions = Vec::new();
            if self.admitted.is_some() {
                actions.push(Action::Accept);
            } else if !self.blocked && !self.submitter_done() && self.window_open() {
                actions.push(Action::Submit);
            }
            for (i, worker) in self.workers.iter().enumerate() {
                if worker.parked {
                    continue;
                }
                let Some(running) = worker.batch.get(worker.at) else {
                    actions.push(Action::Pull(i));
                    continue;
                };
                let poison = self.poison[running.job.id.0 as usize];
                if !poison {
                    actions.push(Action::Complete(i));
                }
                if poison || self.rng.gen_bool(self.fault_rate) {
                    actions.push(Action::Fault(i));
                }
            }
            match self.owner {
                Owner::Open => match &self.pump {
                    Some((Some(_), _)) => actions.push(Action::Commit),
                    Some((None, _)) => actions.push(Action::Pump),
                    None if self.traffic == Traffic::Process => {
                        if self.submitter_done() {
                            actions.push(Action::Close);
                        }
                    }
                    None => {
                        actions.push(Action::Pump);
                        if self.state.journal_error.is_some() {
                            actions.push(Action::Failover);
                        }
                        if self.rng.gen_bool(0.1) {
                            actions.push(Action::Scale);
                        }
                        if self.state.phase == Phase::Paused && self.rng.gen_bool(0.3) {
                            actions.push(Action::Resume);
                        }
                        let close = if self.submitter_done() { 0.1 } else { 0.005 };
                        if self.rng.gen_bool(close) {
                            actions.push(Action::Close);
                        }
                    }
                },
                Owner::Closing { parked: false, .. } => actions.push(Action::Drained),
                Owner::Joining { .. } if self.workers.is_empty() => actions.push(Action::Join),
                _ => {}
            }
            actions
        }

        /// The closed loop submits a chunk only while its jobs fit in the
        /// window of accepted-and-unreleased jobs, until it closes.
        fn window_open(&self) -> bool {
            self.traffic != Traffic::Closed
                || self.owner != Owner::Open
                || self.next_job < self.call_end
                || self.job_at.len() as u64 - self.state.released + 16 <= 64
        }

        fn act(&mut self, action: Action) {
            match action {
                Action::Submit => self.submit(),
                Action::Accept => self.accept(),
                Action::Pull(i) => self.pull(i),
                Action::Complete(i) => self.complete(i),
                Action::Fault(i) => self.fault(i),
                Action::Pump => self.pump_step(),
                Action::Commit => self.commit_step(),
                Action::Failover => self.failover(),
                Action::Scale => {
                    let target = self.rng.gen_range(0, 5) as usize;
                    self.scale(target);
                }
                Action::Resume => {
                    let wake = self.state.resume();
                    self.wake(wake);
                }
                Action::Close => {
                    let drain = self.traffic == Traffic::Process || self.rng.gen_bool(0.75);
                    let wake = self.state.close(drain);
                    self.wake(wake);
                    self.owner = Owner::Closing {
                        drain,
                        parked: false,
                    };
                    self.drained();
                }
                Action::Drained => self.drained(),
                Action::Join => {
                    if let Owner::Joining { drain: true } = self.owner {
                        // `drain` pumps once more after the join.
                        self.pump = Some((None, Wake::default()));
                        while self.pump.is_some() {
                            match self.pump {
                                Some((Some(_), _)) => self.commit_step(),
                                _ => self.pump_step(),
                            }
                        }
                    }
                    self.owner = Owner::Done;
                }
            }
        }

        /// Applies a transition's wakeups to the parked actors: a count of
        /// one wakes one waiter at random, more wake every waiter, and a
        /// notify that finds no waiter is lost, as on a condvar.
        fn wake(&mut self, Wake(workers, submitters, done): Wake) {
            let parked: Vec<usize> = (0..self.workers.len())
                .filter(|&i| self.workers[i].parked)
                .collect();
            match workers {
                0 => {}
                1 if parked.is_empty() => {}
                1 => {
                    let pick = self.rng.gen_range(0, parked.len() as u64) as usize;
                    self.workers[parked[pick]].parked = false;
                }
                _ => parked.iter().for_each(|&i| self.workers[i].parked = false),
            }
            if submitters > 0 {
                self.blocked = false;
            }
            if let (1.., Owner::Closing { drain, .. }) = (done, self.owner) {
                self.owner = Owner::Closing {
                    drain,
                    parked: false,
                };
            }
        }

        /// One journal commit under the retry policy, against a model sink
        /// that fails each attempt with the case's chance.
        fn commit(&mut self) -> Result<(), JournalError> {
            let mut attempt = 0;
            loop {
                attempt += 1;
                if !self.rng.gen_bool(self.flaky) {
                    return Ok(());
                }
                if attempt >= self.retry {
                    return Err(JournalError::Io("model sink failed".to_string()));
                }
                self.state.retried();
                self.retries += 1;
            }
        }

        fn quarantine(&mut self, error: &JournalError, parked: Vec<JournalEntry>) -> Wake {
            self.journal_failures += 1;
            self.state.commit_failed(error, parked)
        }

        fn submit(&mut self) {
            if self.next_job == self.call_end {
                self.call_end = (self.next_job + self.chunk).min(self.jobs.len());
            }
            let n = self.call_end - self.next_job;
            let (closed, quarantined) = (
                self.state.phase >= Phase::Draining,
                self.state.quarantined(),
            );
            let full = self.state.queue.is_full();
            match self.state.admit(n) {
                Ok(Some(k)) => {
                    ensure!(
                        self,
                        !closed && !quarantined && 0 < k && k <= n,
                        "admitted {k} of {n}"
                    );
                    self.admitted = Some(k);
                }
                Ok(None) => {
                    ensure!(
                        self,
                        full && self.state.policy == BackpressurePolicy::Block,
                        "waited for a free slot"
                    );
                    self.blocked = true;
                }
                Err(error) => {
                    let expected = if closed {
                        SubmitError::ShutDown
                    } else if quarantined {
                        SubmitError::Quarantined
                    } else {
                        SubmitError::QueueFull
                    };
                    ensure!(self, error == expected, "refused with {error:?}");
                    if error == SubmitError::QueueFull {
                        self.rejected += n as u64;
                    }
                    // The call returns; a closed pipeline refuses the rest.
                    self.next_job = if closed {
                        self.jobs.len()
                    } else {
                        self.call_end
                    };
                }
            }
        }

        fn accept(&mut self) {
            let k = self.admitted.take().expect("a slice awaits acceptance");
            let slice = self.jobs[self.next_job..self.next_job + k].to_vec();
            let mut accepted = Vec::new();
            if self.journal {
                accepted = slice.iter().cloned().map(JournalEntry::Accepted).collect();
                if let Err(error) = self.commit() {
                    let wake = self.quarantine(&error, Vec::new());
                    self.wake(wake);
                    self.next_job = self.call_end;
                    return;
                }
            }
            match self.state.accept(&slice, accepted, None) {
                Ok((seqs, wake)) => {
                    ensure!(
                        self,
                        seqs == (self.job_at.len() as u64..(self.job_at.len() + k) as u64),
                        "accepted at {seqs:?}"
                    );
                    for (seq, spec) in seqs.zip(&slice) {
                        self.seq_of[spec.id.0 as usize] = Some(seq);
                    }
                    self.job_at.extend(self.next_job..self.next_job + k);
                    self.accepted_journaled
                        .extend(std::iter::repeat_n(self.journal, k));
                    self.faults.extend(std::iter::repeat_n(0, k));
                    self.next_job += k;
                    self.wake(wake);
                }
                Err(error) => {
                    ensure!(
                        self,
                        error == SubmitError::ShutDown && self.state.phase >= Phase::Draining,
                        "refused an admitted slice with {error:?}"
                    );
                    self.next_job = self.jobs.len();
                }
            }
        }

        fn pull(&mut self, i: usize) {
            let id = self.workers[i].id;
            let mut batch = std::mem::take(&mut self.workers[i].batch);
            match self.state.pull(id, None, &mut batch) {
                Pull::Run(wake) => {
                    ensure!(
                        self,
                        (1..=State::MAX_PULL).contains(&batch.len()),
                        "pulled {} jobs",
                        batch.len()
                    );
                    self.workers[i].batch = batch;
                    self.workers[i].at = 0;
                    self.wake(wake);
                }
                Pull::Wait => self.workers[i].parked = true,
                Pull::Exit => {
                    self.workers.remove(i);
                }
            }
        }

        fn complete(&mut self, i: usize) {
            let worker = &mut self.workers[i];
            let queued = &worker.batch[worker.at];
            let next = worker.batch.get(worker.at + 1).map(|q| q.seq);
            let seq = queued.seq;
            let mut record = self.record.clone();
            record.job = queued.job.clone();
            worker.at += 1;
            if worker.at == worker.batch.len() {
                worker.batch.clear();
            }
            let wake = self.state.complete(seq, next, JournalEntry::run(record));
            self.wake(wake);
        }

        fn fault(&mut self, i: usize) {
            let id = self.workers[i].id;
            let running = self.workers[i].batch[self.workers[i].at].clone();
            let before = self.state.assignments.clone();
            let reason = if self.rng.gen_bool(0.5) {
                "worker panicked mid-job"
            } else {
                "completion failed record verification (wrong-result executor)"
            };
            let (restart, reassigned, wake) = self.state.fault(id, reason);
            // 6. The fault reclaimed exactly its own worker's assignments.
            let after = &self.state.assignments;
            ensure!(
                self,
                after.len() + before.values().filter(|a| a.worker == id).count() == before.len(),
                "a fault took another worker's assignment"
            );
            for (seq, a) in after {
                let kept = before.get(seq).is_some_and(|was| {
                    (was.worker, was.attempt, was.started) == (a.worker, a.attempt, a.started)
                });
                ensure!(
                    self,
                    a.worker != id && kept,
                    "a fault changed the assignment of {seq}"
                );
            }
            // 4, 7. The running job used one more attempt: it is poisoned
            // at the policy's limit and reassigned below it.
            let seq = running.seq as usize;
            self.faults[seq] += 1;
            ensure!(
                self,
                self.faults[seq] == running.attempt,
                "attempt {}",
                running.attempt
            );
            let poisoned = running.attempt >= self.state.supervisor.max_job_attempts;
            ensure!(
                self,
                reassigned.is_none() == poisoned,
                "reassigned {reassigned:?}"
            );
            if !poisoned {
                self.reassigned += 1;
            }
            let worker = &mut self.workers[i];
            worker.batch.clear();
            if !restart {
                self.workers.remove(i);
            }
            self.wake(wake);
        }

        fn pump_step(&mut self) {
            let quarantined = self.state.quarantined();
            let before = self.state.released;
            let taken = self.state.ready_prefix();
            ensure!(
                self,
                !(quarantined && taken.is_some()),
                "a quarantined pipeline released"
            );
            ensure!(
                self,
                self.state.released == before,
                "the cursor moved before the commit"
            );
            match (taken, self.pump.take()) {
                (Some(prefix), pump) => {
                    let wake = pump.map_or(Wake::default(), |(_, wake)| wake);
                    self.pump = Some((Some(prefix), wake));
                }
                (None, Some((_, wake))) => self.wake(wake),
                (None, None) => {}
            }
        }

        fn commit_step(&mut self) {
            let Some((Some(prefix), _)) = self.pump.take() else {
                unreachable!("a commit follows a taken prefix");
            };
            let seqs: Vec<u64> = prefix.iter().map(|entry| self.seq(entry)).collect();
            ensure!(
                self,
                seqs.iter()
                    .copied()
                    .eq(self.released..self.released + seqs.len() as u64),
                "released out of order: {seqs:?}"
            );
            if self.journal {
                if let Err(error) = self.commit() {
                    let failed = self.quarantine(&error, prefix);
                    self.wake(failed);
                    return;
                }
                // 1, 4. The model journal takes release entries in
                // sequence order, each once; a poison verdict only after
                // the job's last allowed attempt, and never a record.
                for (entry, &seq) in prefix.iter().zip(&seqs) {
                    ensure!(self, seq == self.journaled, "journaled {seq} out of order");
                    self.journaled += 1;
                    let limit = self.state.supervisor.max_job_attempts;
                    match entry {
                        JournalEntry::Poisoned(notice) => ensure!(
                            self,
                            notice.attempts == limit && self.faults[seq as usize] == limit,
                            "poisoned {seq} after {} faults",
                            self.faults[seq as usize]
                        ),
                        _ => ensure!(
                            self,
                            !self.poison[self.job_at[seq as usize]],
                            "a poison job's record journaled"
                        ),
                    }
                }
            }
            let (records, verdicts) = (self.out.len(), self.state.poisoned_log.len());
            let wake = self.state.release(prefix, &mut self.out);
            self.released += seqs.len() as u64;
            // 2. Released as it was journaled: each record in order.
            let runs = &self.out[records..];
            let poisons = &self.state.poisoned_log[verdicts..];
            ensure!(
                self,
                runs.len() + poisons.len() == seqs.len(),
                "released {} of {}",
                runs.len() + poisons.len(),
                seqs.len()
            );
            for record in runs {
                ensure!(
                    self,
                    !self.poison[record.job.id.0 as usize],
                    "a poison job released as a record"
                );
            }
            self.pump = Some((None, wake));
        }

        /// `resume_with_sink`: the leading checkpoint and the pending
        /// `Accepted` set, each under the retry policy, then a pump.
        fn failover(&mut self) {
            if self.commit().is_err() {
                return;
            }
            let pending: Vec<JournalEntry> = self.state.accepted.values().cloned().collect();
            if self.commit().is_err() {
                return;
            }
            let seqs: Vec<u64> = pending.iter().map(|entry| self.seq(entry)).collect();
            ensure!(
                self,
                seqs.iter().copied().eq(self.pending()),
                "re-journaled {seqs:?}"
            );
            let wake = self.state.failed_over();
            self.wake(wake);
            self.pump = Some((None, Wake::default()));
        }

        fn scale(&mut self, target: usize) {
            let (ids, wake) = self.state.scale(target);
            for id in ids {
                self.workers.push(Worker {
                    id,
                    batch: Vec::new(),
                    at: 0,
                    parked: false,
                });
            }
            self.wake(wake);
        }

        fn drained(&mut self) {
            let Owner::Closing { drain, .. } = self.owner else {
                unreachable!("only a closing owner waits for the drain");
            };
            self.owner = if self.state.drained() {
                Owner::Joining { drain }
            } else {
                Owner::Closing {
                    drain,
                    parked: true,
                }
            };
        }

        /// The sequence number of a completion-log or `Accepted` entry.
        fn seq(&self, entry: &JournalEntry) -> u64 {
            let id = entry.job().expect("the entry names its job");
            self.seq_of[id.0 as usize].expect("the job was accepted")
        }

        /// Sequence numbers whose `Accepted` entry is committed and that
        /// the release cursor has not passed.
        fn pending(&self) -> impl Iterator<Item = u64> + '_ {
            (self.state.released..self.state.next_seq)
                .filter(|&seq| self.accepted_journaled[seq as usize])
        }

        /// The invariants that hold between any two steps.
        fn check(&self) {
            let s = &self.state;
            // 1. Released ⇒ journaled, and 2. the cursor is the model's.
            ensure!(
                self,
                !self.journal || s.released <= self.journaled,
                "released {} with {} journaled",
                s.released,
                self.journaled
            );
            ensure!(
                self,
                s.released == self.released,
                "cursor at {}",
                s.released
            );
            // 3. Every admitted sequence number is in exactly one place.
            let mut places = vec![0u8; s.next_seq as usize];
            let mut queue = s.queue.clone();
            let committing = match &self.pump {
                Some((Some(prefix), _)) => &prefix[..],
                _ => &[],
            };
            let seqs = std::iter::from_fn(|| queue.pop().map(|queued| queued.seq))
                .chain(s.assignments.keys().copied())
                .chain(s.completed.keys().copied())
                .chain(s.stalled.iter().chain(committing).map(|e| self.seq(e)))
                .chain(0..s.released);
            for seq in seqs {
                ensure!(self, seq < s.next_seq, "{seq} was never admitted");
                places[seq as usize] += 1;
            }
            ensure!(
                self,
                places.iter().all(|&n| n == 1),
                "places by sequence number: {places:?}"
            );
            // 7. One reassignment per fault that poisoned nothing, within
            // the restart budget.
            ensure!(
                self,
                s.jobs_reassigned == self.reassigned,
                "reassigned {}",
                s.jobs_reassigned
            );
            ensure!(
                self,
                s.worker_restarts <= u64::from(s.supervisor.max_restarts),
                "{} restarts",
                s.worker_restarts
            );
            // 8. The pending Accepted set is what the journal holds for
            // the jobs the cursor has not passed.
            ensure!(
                self,
                s.accepted.keys().copied().eq(self.pending()),
                "pending {:?}",
                s.accepted.keys().collect::<Vec<_>>()
            );
            // 9. Each live worker holds exactly its batch's rest, of which
            // it runs the first: in flight never exceeds the live workers.
            ensure!(
                self,
                self.workers.len() == s.active_workers,
                "{} live",
                s.active_workers
            );
            for worker in &self.workers {
                let held = s.assignments.iter().filter(|(_, a)| a.worker == worker.id);
                let mut rest: Vec<(u64, bool)> = worker.batch[worker.at.min(worker.batch.len())..]
                    .iter()
                    .enumerate()
                    .map(|(k, queued)| (queued.seq, k == 0))
                    .collect();
                rest.sort_unstable();
                ensure!(
                    self,
                    held.map(|(seq, a)| (*seq, a.started)).eq(rest),
                    "worker {} holds other than the rest of its batch",
                    worker.id
                );
            }
            let inflight = s.stats(PoolStats::default()).inflight_total();
            ensure!(
                self,
                inflight <= s.active_workers as u64,
                "{inflight} in flight"
            );
            // The counters the model keeps.
            ensure!(self, s.rejected == self.rejected, "rejected {}", s.rejected);
            ensure!(self, s.retries == self.retries, "retries {}", s.retries);
            ensure!(
                self,
                s.journal_failures == self.journal_failures,
                "journal failures {}",
                s.journal_failures
            );
        }
    }

    #[test]
    fn the_pipeline_machine_keeps_its_invariants_under_seeded_interleavings() {
        let record = Fleet::new(FleetConfig::new(1, 7)).run_one(&job(0, 1));
        for seed in 0..machine_cases() {
            Sim::new(seed, &record).run();
        }
    }
}
