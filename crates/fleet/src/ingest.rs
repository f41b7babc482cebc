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
//! submit, the ready prefix at release) runs under a [`RetryPolicy`]:
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
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use serde::{Deserialize, Serialize};

use crate::auditor::AuditVerdict;
use crate::executor::{Fleet, JobId, JobSpec, RunRecord};
use crate::faults::{RetryPolicy, SupervisorPolicy, WorkerFaultKind, WorkerFaultSchedule};
use crate::journal::{Journal, JournalEntry, JournalError, JournalSink, PoisonNotice};
use crate::pool::{BufferPool, PoolStats};
use crate::queue::FairQueue;
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
    /// ready prefix at release) runs under; exhaustion quarantines the
    /// pipeline instead of panicking. Irrelevant without a journal.
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
    /// no attempt if their worker dies.
    started: bool,
    /// Wall-clock dispatch stamp for the [`Stage::Reassign`] span;
    /// stamped only when tracing.
    dispatched_at: Option<std::time::Instant>,
}

/// Mutable pipeline state behind the mutex.
#[derive(Debug)]
struct State {
    queue: FairQueue,
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
    paused: bool,
    shutting_down: bool,
    /// On shutdown, drop queued jobs instead of draining them (set by
    /// `Drop` teardown; `finish` drains).
    discard_queued: bool,
    /// The journal error that exhausted the retry policy. While it
    /// stands the pipeline is quarantined (see [`State::quarantined`]);
    /// only a failover lifts it.
    journal_error: Option<String>,
    /// The released prefix whose journal commit exhausted the retry
    /// policy, records and poison verdicts alike, parked at the release
    /// cursor: never released (the write-ahead invariant), drained first
    /// by the first `take_ready` after failover.
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
    /// other cause of quarantine: only [`FleetStream::scale_workers`]
    /// lifts it, never a sink failover.
    dead_pool: Option<String>,
}

impl State {
    /// Quarantined while either cause stands, a failing journal or a dead
    /// worker pool: releases are stopped and submits fail fast.
    fn quarantined(&self) -> bool {
        self.journal_error.is_some() || self.dead_pool.is_some()
    }
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
    /// The supervisor's recovery ladder (restart budget, degradation,
    /// poison threshold).
    supervisor: SupervisorPolicy,
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

    /// Submits one job as a one-job slice of [`Shared::submit_all`].
    fn submit(&self, job: JobSpec) -> Result<u64, SubmitError> {
        self.submit_all(std::slice::from_ref(&job))
            .map(|seqs| seqs[0])
            .map_err(|e| e.error)
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
                    if state.quarantined() {
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
            let mut accepted = Vec::new();
            if let Some(journal) = &self.journal {
                accepted = slice.iter().cloned().map(JournalEntry::Accepted).collect();
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
            // The committed entries themselves stay pending until release.
            state.accepted.extend((first_seq..).zip(accepted));
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
        let mut inflight = BTreeMap::new();
        for assignment in state.assignments.values() {
            *inflight.entry(assignment.job.tenant).or_insert(0) += 1;
        }
        IngestStats {
            submitted: state.next_seq,
            completed: state.completed_count,
            rejected: state.rejected,
            queued: state.queue.len(),
            ready: state.completed.len() + state.stalled.len(),
            inflight,
            retries: state.retries,
            journal_failures: state.journal_failures,
            quarantined: state.quarantined(),
            workers: state.active_workers,
            worker_restarts: state.worker_restarts,
            reassigned: state.jobs_reassigned,
            poisoned: state.poisoned_count,
            pool: self.pool.stats(),
        }
    }

    /// The pipeline's durability health report.
    fn health(&self) -> FleetHealth {
        let state = self.lock();
        FleetHealth {
            quarantined: state.quarantined(),
            journal_failures: state.journal_failures,
            retries: state.retries,
            stalled: state.stalled.len() as u64,
            pending_accepted: state.accepted.len() as u64,
            last_error: state
                .journal_error
                .clone()
                .or_else(|| state.dead_pool.clone()),
            workers_live: state.active_workers,
            worker_restarts: state.worker_restarts,
            reassigned: state.jobs_reassigned,
            poisoned: state.poisoned_count,
            workers_dead: state.dead_pool.is_some(),
        }
    }

    /// Runs one journal commit under the retry policy: at most
    /// `max_attempts` tries, back to back, and one [`Stage::JournalRetry`]
    /// aggregate span per failed attempt when tracing. A failed commit
    /// writes nothing and advances no chain, so the next try starts from
    /// exactly where the first did. Returns the last error on exhaustion
    /// — the caller quarantines; nothing here panics.
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
            self.lock().retries += 1;
        }
    }

    /// Flips the pipeline into quarantine: `stalled` (the released prefix
    /// whose commit exhausted the policy — empty for a submission-side
    /// failure) is parked at the release cursor, releases stop, submits
    /// fail fast, and every waiter wakes to observe the state. Lifted
    /// only by [`Shared::resume_after_failover`].
    fn enter_quarantine(&self, error: JournalError, stalled: Vec<JournalEntry>) {
        let mut state = self.lock();
        state.journal_failures += 1;
        state.journal_error = Some(error.to_string());
        // A quarantined pipeline releases nothing, so at most one prefix is
        // parked; a submission-side failure racing it must not drop it.
        debug_assert!(stalled.is_empty() || state.stalled.is_empty());
        state.stalled.extend(stalled);
        drop(state);
        self.job_ready.notify_all();
        self.slot_free.notify_all();
        self.job_done.notify_all();
    }

    /// Completes a failover after [`Journal::fail_over`] swapped in a
    /// fresh sink: re-journals the pending accepted set (so the new sink
    /// is recoverable on its own, accepted-but-unreleased jobs included)
    /// and lifts the journal's cause of quarantine. A dead worker pool is
    /// not a journal problem: it stands until
    /// [`FleetStream::scale_workers`] staffs the pool again. On error the
    /// journal's cause stands too — the replacement sink is failing.
    fn resume_after_failover(&self) -> Result<(), JournalError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let accepted: Vec<JournalEntry> = self.lock().accepted.values().cloned().collect();
        journal.append_batch(&accepted)?;
        self.lock().journal_error = None;
        self.job_ready.notify_all();
        self.slot_free.notify_all();
        Ok(())
    }

    /// The most jobs one worker pulls per lock acquisition. Bounds the
    /// latency skew batching can introduce (a worker never hoards more
    /// than this while its peers idle); the fair-share cap below usually
    /// bites first.
    const MAX_PULL: usize = 8;

    /// Worker loop: pop a fair batch, execute it outside the lock, log the
    /// completions under one lock hold. Batching amortizes the state lock
    /// and condvar traffic without changing anything observable downstream:
    /// pops stay round-robin (the dispatch log is identical), and the
    /// completion log is keyed by submission sequence, so release order —
    /// and therefore reports, ledgers and metering — is bit-identical to
    /// one-job-at-a-time pulls.
    ///
    /// Every pop registers an [`Assignment`] under this worker's id, and
    /// the fault schedule is consulted per (job, attempt) before
    /// execution. Returns `Ok` on a normal exit (shutdown, teardown or a
    /// shrink token) and the fault that stopped it otherwise: a record
    /// [`Fleet::verify_record`] rejected. A panic unwinds out of here
    /// instead; [`Shared::spawn_worker`] catches it.
    /// Either way the assignments this worker still holds are left for
    /// [`Shared::fault`] to reclaim.
    fn work(&self, id: u64) -> Result<(), &'static str> {
        let mut batch: Vec<crate::queue::QueuedJob> = Vec::with_capacity(Self::MAX_PULL);
        loop {
            {
                let mut state = self.lock();
                loop {
                    if state.paused && !state.shutting_down {
                        state = self.wait(&self.job_ready, state);
                        continue;
                    }
                    if state.shutting_down && state.discard_queued {
                        // Teardown without finish(): abandon the backlog.
                        state.active_workers -= 1;
                        return Ok(());
                    }
                    // Scale-down: consume a shrink token and exit. Ignored
                    // while shutting down — finish() needs every worker
                    // still alive to drain the backlog.
                    if !state.shutting_down && state.active_workers > state.worker_target {
                        state.active_workers -= 1;
                        return Ok(());
                    }
                    // Completion watermark: don't start new work while the
                    // unconsumed completion log (plus what's already in
                    // flight) is at the limit. A graceful shutdown lifts
                    // the watermark — finish() consumes everything.
                    let mut budget = usize::MAX;
                    if self.watermark > 0 && !state.shutting_down {
                        let used = state.completed.len() + state.assignments.len();
                        if used >= self.watermark {
                            state = self.wait(&self.job_ready, state);
                            continue;
                        }
                        budget = self.watermark - used;
                    }
                    if state.queue.is_empty() {
                        if state.shutting_down {
                            state.active_workers -= 1;
                            return Ok(());
                        }
                        state = self.wait(&self.job_ready, state);
                        continue;
                    }
                    // Pull a batch: watermark-respecting, capped, and no
                    // more than this worker's fair share of the backlog so
                    // one worker cannot strip-mine the queue while its
                    // peers idle.
                    let share = state.queue.len().div_ceil(state.active_workers.max(1));
                    let max = Self::MAX_PULL.min(budget).min(share).max(1);
                    let dispatch_stamp = self.tracer.as_ref().map(|_| std::time::Instant::now());
                    while batch.len() < max {
                        let Some(queued) = state.queue.pop() else {
                            break;
                        };
                        state.dispatch_log.push((queued.job.id, queued.job.tenant));
                        // The first batch item starts executing right away;
                        // the rest start as their predecessors complete.
                        state.assignments.insert(
                            queued.seq,
                            Assignment {
                                job: queued.job.clone(),
                                worker: id,
                                attempt: queued.attempt,
                                started: batch.is_empty(),
                                dispatched_at: dispatch_stamp,
                            },
                        );
                        batch.push(queued);
                    }
                    break;
                }
            }
            if batch.len() == 1 {
                self.slot_free.notify_one();
            } else {
                self.slot_free.notify_all();
            }

            for (idx, queued) in batch.iter().enumerate() {
                let next_seq = batch.get(idx + 1).map(|q| q.seq);
                // Dispatch closed the queue-wait window at pop; record it
                // outside the state lock so tracing never stalls workers.
                if let (Some(tracer), Some(submitted_at)) = (&self.tracer, queued.submitted_at) {
                    tracer.record(
                        Stage::QueueWait,
                        queued.job.id,
                        queued.job.tenant,
                        submitted_at.elapsed(),
                    );
                }

                // Consult the fault schedule for this (job, attempt).
                let fault = self.worker_faults.fault_for(queued.job.id, queued.attempt);
                let record = match fault {
                    Some(WorkerFaultKind::Panic) => panic!(
                        "injected worker fault: panic executing job {} (attempt {})",
                        queued.job.id.0, queued.attempt
                    ),
                    Some(WorkerFaultKind::WrongResult) => {
                        // A lying executor: bill more than was done. The
                        // completion-side quote check catches it — the
                        // quote's MAC covers the honest usage.
                        let mut record = self.fleet.run_one(&queued.job);
                        record.outcome.victim_billed.utime.0 =
                            record.outcome.victim_billed.utime.0.wrapping_add(1_000_000);
                        record
                    }
                    None => self.fleet.run_one(&queued.job),
                };
                if !self.complete(queued.seq, next_seq, record) {
                    return Err("completion failed record verification (wrong-result executor)");
                }
            }
            batch.clear();
        }
    }

    /// Logs one execution result into the completion log and starts the
    /// next batch item under the same lock hold. Returns `false`, logging
    /// nothing, when [`Fleet::verify_record`] rejects the record (a lying
    /// executor). Only the worker holding `seq` calls this, and nothing
    /// reclaims its assignments while it runs, so the record is logged at
    /// most once.
    fn complete(&self, seq: u64, next_seq: Option<u64>, record: RunRecord) -> bool {
        if self.fleet.verify_record(&record).is_err() {
            return false;
        }
        let mut state = self.lock();
        state.assignments.remove(&seq);
        state.completed.insert(seq, JournalEntry::run(record));
        state.completed_count += 1;
        if let Some(next) = next_seq.and_then(|next| state.assignments.get_mut(&next)) {
            next.started = true;
        }
        drop(state);
        self.job_done.notify_all();
        true
    }

    /// Handles a fault of worker `id`, which has stopped running its
    /// batch: reclaims every assignment it still holds — requeueing each
    /// at the same sequence number, with the attempt advanced for the job
    /// it was running (the one job it reassigns), or declaring that job
    /// poison once it has burned [`SupervisorPolicy::max_job_attempts`]
    /// workers — then charges the restart budget. Returns whether the
    /// worker restarts in place; with the budget spent it retires
    /// instead, degrading the pool, and the last worker to retire
    /// quarantines the fleet. A teardown retires the worker without
    /// charging anything.
    fn fault(&self, id: u64, reason: &str) -> bool {
        let mut reassigned: Option<(JobId, TenantId, Option<std::time::Instant>)> = None;
        let restart = {
            let mut state = self.lock();
            // Requeueing keeps the original sequence numbers, so release
            // order — and every bit of downstream output — is unchanged;
            // re-execution is safe because the kernel is deterministic
            // from the fleet seed and job id.
            let seqs: Vec<u64> = state
                .assignments
                .iter()
                .filter(|(_, a)| a.worker == id)
                .map(|(seq, _)| *seq)
                .collect();
            for seq in seqs {
                let Some(assignment) = state.assignments.remove(&seq) else {
                    continue;
                };
                if !assignment.started {
                    // Only the assignment actually *executing* consumed an
                    // attempt; batch-mates the worker never started requeue
                    // at their current attempt, so the fault schedule still
                    // addresses their first execution. They never ran, so
                    // they are not reassigned.
                    state.queue.requeue(seq, assignment.job, assignment.attempt);
                } else if assignment.attempt >= self.supervisor.max_job_attempts {
                    // Poison: this job has killed max_job_attempts workers
                    // in a row. Its verdict takes the record's place in the
                    // completion log and is journaled at release. The rest
                    // of the fleet keeps flowing.
                    state.poisoned_count += 1;
                    state.completed.insert(
                        seq,
                        JournalEntry::poisoned(PoisonNotice {
                            spec: assignment.job,
                            attempts: assignment.attempt,
                        }),
                    );
                } else {
                    state.jobs_reassigned += 1;
                    reassigned = Some((
                        assignment.job.id,
                        assignment.job.tenant,
                        assignment.dispatched_at,
                    ));
                    state
                        .queue
                        .requeue(seq, assignment.job, assignment.attempt + 1);
                }
            }
            // The restart ladder: a per-session count of restarts that
            // nothing refills. Restarts continue during a graceful finish
            // (the drain needs workers) but not during teardown.
            if state.shutting_down && state.discard_queued {
                state.active_workers -= 1;
                false
            } else if state.worker_restarts < u64::from(self.supervisor.max_restarts) {
                state.worker_restarts += 1;
                true
            } else {
                // Budget spent: retire, degrading to the surviving pool.
                state.active_workers -= 1;
                state.worker_target = state.worker_target.min(state.active_workers.max(1));
                if state.active_workers == 0 {
                    state.dead_pool = Some(format!(
                        "last worker died with the restart budget spent: {reason}"
                    ));
                }
                false
            }
        };
        // Spans are recorded outside the state lock.
        if let (Some(tracer), Some((job, tenant, dispatched_at))) = (&self.tracer, reassigned) {
            // Reclaiming is nobody's per-tenant latency: aggregate cell
            // only, one span per reassigned job.
            let elapsed = dispatched_at.map(|at| at.elapsed()).unwrap_or_default();
            tracer.record_aggregate(Stage::Reassign, job, tenant, elapsed);
        }
        self.job_ready.notify_all();
        self.job_done.notify_all();
        self.slot_free.notify_all();
        restart
    }

    /// Spawns worker `id` (at startup and on scale-up). The thread runs
    /// [`Shared::work`] under `catch_unwind`, so a panicking job (injected
    /// or real) never escapes the pool: a panic and a rejected record are
    /// both faults of the job, handled by
    /// [`Shared::fault`] on this same thread, which then re-enters `work`
    /// or, with the restart budget spent, retires.
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
                if !shared.fault(id, reason) {
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
            state: Mutex::new(State {
                queue: FairQueue::new(config.capacity),
                next_seq: 0,
                completed: BTreeMap::new(),
                released: 0,
                dispatch_log: Vec::new(),
                completed_count: 0,
                rejected: 0,
                paused: config.start_paused,
                shutting_down: false,
                discard_queued: false,
                journal_error: None,
                stalled: Vec::new(),
                retries: 0,
                journal_failures: 0,
                accepted: BTreeMap::new(),
                worker_target: config.workers,
                active_workers: config.workers,
                assignments: BTreeMap::new(),
                spawned_total: config.workers as u64,
                worker_restarts: 0,
                jobs_reassigned: 0,
                poisoned_count: 0,
                poisoned_log: Vec::new(),
                dead_pool: None,
            }),
            job_ready: Condvar::new(),
            slot_free: Condvar::new(),
            job_done: Condvar::new(),
            policy: config.backpressure,
            watermark: config.completion_watermark,
            journal: service.journal.clone(),
            tracer: service.fleet.tracer().cloned(),
            submit_guard: Mutex::new(()),
            retry: config.retry,
            pool: BufferPool::new(),
            supervisor: config.supervisor,
            worker_faults: config.worker_faults,
            fleet: service.fleet.clone(),
        });
        let workers = (0..config.workers)
            .map(|i| Shared::spawn_worker(&shared, i as u64))
            .collect();
        FleetStream {
            service,
            shared,
            workers,
            records: Vec::new(),
            verdicts: Vec::new(),
        }
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
        let target = workers.max(1);
        let ids = {
            let mut state = self.shared.lock();
            if state.shutting_down {
                return;
            }
            state.worker_target = target;
            let grow = target.saturating_sub(state.active_workers);
            // Count the spawns now, under the lock, so the fair-share
            // batch cap sees the new pool size immediately.
            state.active_workers += grow;
            if grow > 0 {
                // A fresh pool revives a fleet whose last worker retired
                // with the restart budget spent. A failing journal keeps
                // it quarantined until a failover.
                state.dead_pool = None;
            }
            let first = state.spawned_total;
            state.spawned_total += grow as u64;
            first..first + grow as u64
        };
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
        self.shared.lock().paused = false;
        self.shared.job_ready.notify_all();
    }

    /// Durability health: quarantine flag, retry/failure counters, the
    /// stalled backlog and the last journal error. The session
    /// keeps executing while quarantined — only the billing boundary
    /// (release → post) is closed — so poll this to decide when a
    /// [`FleetStream::resume_with_sink`] failover is needed.
    pub fn health(&self) -> FleetHealth {
        self.shared.health()
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
    /// A dead worker pool is a separate cause of quarantine: the failover
    /// succeeds, and the pipeline stays quarantined, releasing nothing,
    /// until [`FleetStream::scale_workers`] revives the pool.
    ///
    /// # Errors
    /// [`JournalError`] if the session has no journal, or if the
    /// replacement sink fails while writing the leading checkpoint or the
    /// accepted backlog — the pipeline then *stays* quarantined.
    pub fn resume_with_sink(&mut self, sink: Box<dyn JournalSink>) -> Result<(), JournalError> {
        let Some(journal) = &self.service.journal else {
            return Err(JournalError::Io(
                "stream session has no journal to fail over".to_string(),
            ));
        };
        journal.fail_over(sink);
        journal.append_batch(&[JournalEntry::checkpoint(self.service.checkpoint())])?;
        self.service.runs_since_checkpoint = 0;
        self.shared.resume_after_failover()?;
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
    /// pipeline quarantines ([`Shared::enter_quarantine`]), so nothing is
    /// ever released unjournaled, under any fault schedule. A quarantined
    /// pipeline releases nothing until a failover lifts the quarantine.
    fn take_ready(&mut self) -> Vec<RunRecord> {
        let shared = &*self.shared;
        let mut records: Option<Vec<RunRecord>> = None;
        loop {
            let (first, prefix) = {
                let mut state = shared.lock();
                if state.quarantined() {
                    break;
                }
                let first = state.released;
                let mut prefix = std::mem::take(&mut state.stalled);
                while let Some(entry) = state.completed.remove(&(first + prefix.len() as u64)) {
                    prefix.push(entry);
                }
                if prefix.is_empty() {
                    break;
                }
                (first, prefix)
            };
            if let Some(journal) = &shared.journal {
                let (job, tenant) = match &prefix[0] {
                    JournalEntry::Run(record) => (record.job.id, record.job.tenant),
                    JournalEntry::Poisoned(notice) => (notice.spec.id, notice.spec.tenant),
                    _ => unreachable!("the completion log holds runs and poison verdicts"),
                };
                let commit_started = shared.tracer.as_ref().map(|_| std::time::Instant::now());
                if let Err(e) =
                    shared.commit_with_retry(job, tenant, || journal.append_batch(&prefix))
                {
                    // Retry policy exhausted: park the prefix (unreleased,
                    // unjournaled — the cursor still points at its first
                    // entry) and close the billing boundary.
                    shared.enter_quarantine(e, prefix);
                    break;
                }
                if let (Some(tracer), Some(started)) = (&shared.tracer, commit_started) {
                    // A shared commit is nobody's per-tenant latency:
                    // aggregate cell only, attributed to its first job.
                    tracer.record_aggregate(Stage::JournalCommit, job, tenant, started.elapsed());
                }
            }
            let mut state = shared.lock();
            state.released = first + prefix.len() as u64;
            // A Run or Poisoned entry now vouches for each released job,
            // so its Accepted marker is no longer pending.
            for seq in first..state.released {
                state.accepted.remove(&seq);
            }
            let out = records.get_or_insert_with(|| shared.pool.acquire());
            for entry in prefix {
                match entry {
                    JournalEntry::Run(record) => out.push(*record),
                    // A poison verdict is released by journaling it; there
                    // is no record to hand out.
                    JournalEntry::Poisoned(notice) => state.poisoned_log.push(notice),
                    _ => unreachable!("the completion log holds runs and poison verdicts"),
                }
            }
        }
        // Wake workers stalled on the completion watermark.
        shared.job_ready.notify_all();
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
        (report, self.shared.health())
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
        {
            let mut state = shared.lock();
            state.shutting_down = true;
            // Draining overrides pause: a paused pipeline still finishes.
            state.paused = false;
            let target = state.next_seq;
            while drain
                && state.completed_count + state.poisoned_count < target
                && state.dead_pool.is_none()
            {
                shared.job_ready.notify_all();
                state = shared.wait(&shared.job_done, state);
            }
            state.discard_queued = !drain || state.dead_pool.is_some();
        }
        // Wake everyone: idle workers exit, blocked submitters see ShutDown.
        shared.job_ready.notify_all();
        shared.slot_free.notify_all();
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
        let stats = self.shared.stats();
        self.service.fold_session(&stats);
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
        stream
            .shared
            .enter_quarantine(error(), vec![JournalEntry::poisoned(notice)]);
        stream.shared.enter_quarantine(error(), Vec::new());
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
}
