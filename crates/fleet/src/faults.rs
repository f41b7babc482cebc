//! Deterministic fault injection and retry policy for the journal write
//! path.
//!
//! The paper's trust argument assumes the metering evidence survives the
//! meterer; this module makes sure the *meterer survives the disk*. A
//! [`FaultInjectingSink`] wraps any [`JournalSink`] with a seeded,
//! line-addressed [`FaultSchedule`] so every disk failure mode the
//! pipeline must tolerate — a transient `EIO`, a permanently failed
//! device, a full disk, a torn mid-line write, a crash point — is
//! *reproducible*: the same schedule over the same workload injects the
//! same fault at the same byte, in tests, in the benchmark and in
//! `examples/fleet_faults.rs`.
//!
//! The consumer side is [`RetryPolicy`]: a seeded-deterministic bounded
//! exponential backoff (in *virtual ticks*, never wall-clock sleeps) the
//! ingest pipeline runs journal commits under. Transient faults are
//! retried and absorbed; on exhaustion the pipeline enters **quarantine**
//! (see [`crate::ingest::FleetIngest`]): releases stop — preserving the
//! never-journaled ⇒ never-billed invariant — until the service fails
//! over to a fresh sink with
//! [`crate::ingest::FleetIngest::resume_with_sink`].
//!
//! ## Fault semantics
//!
//! Faults are addressed by *committed line index*: a fault `at_line: k`
//! fires on the first commit that would contain line `k` (0-based over
//! the sink's lifetime). What happens next depends on the kind:
//!
//! * [`FaultKind::Transient`] — the commit fails with
//!   [`JournalError::Io`] and **nothing is written**, `failures` times;
//!   then the fault is consumed and the same commit succeeds. This is the
//!   `EIO`-then-recovered case a [`RetryPolicy`] absorbs.
//! * [`FaultKind::Permanent`] / [`FaultKind::DiskFull`] — the sink goes
//!   **dead**: this commit and every later write fails. Reads
//!   ([`JournalSink::contents`], proofs, seal checks) still pass through,
//!   modelling a device that can be re-read (or re-mounted read-only)
//!   after its writes started failing.
//! * [`FaultKind::Torn`] — the lines before the fault line commit, then
//!   exactly `bytes` bytes of the fault line are written **with no
//!   newline** and the sink goes dead: the canonical crash artifact
//!   ([`crate::journal::parse_journal`] drops it as a truncated tail and
//!   reopening repairs it).
//! * [`FaultKind::Crash`] — the crash hook (see
//!   [`FaultInjectingSink::on_crash`]) runs, nothing is written, and the
//!   sink goes dead: a process-kill point with a clean (newline-
//!   terminated) tail.
//!
//! ```
//! use trustmeter_fleet::journal::{Journal, MemorySink};
//! use trustmeter_fleet::faults::{FaultInjectingSink, FaultSchedule};
//! use trustmeter_fleet::{JobSpec, JournalEntry, TenantId};
//! use trustmeter_workloads::Workload;
//!
//! // Fail the second line twice, then let it through.
//! let schedule = FaultSchedule::none().transient_at(1, 2);
//! let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
//! let journal = Journal::with_sink(Box::new(sink)).unwrap();
//!
//! let spec = JobSpec::clean(0, TenantId(1), Workload::LoopO, 0.001);
//! let entry = [JournalEntry::Accepted(spec)];
//! journal.append_batch(&entry).unwrap(); // line 0: clean
//! assert!(journal.append_batch(&entry).is_err()); // line 1: injected EIO
//! assert!(journal.append_batch(&entry).is_err()); // retry 1: injected EIO
//! journal.append_batch(&entry).unwrap(); // retry 2: fault exhausted
//! assert_eq!(probe.stats().injected_transient, 2);
//! assert!(!probe.is_dead());
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};
use trustmeter_sim::SimRng;

use crate::evidence::{BlockHeader, ChainDigest, InclusionProof, SealKey};
use crate::executor::JobId;
use crate::journal::{JournalError, JournalSink, SinkStats};

/// One injectable journal failure mode (see the [module docs](self) for
/// the exact semantics of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Fail the commit with [`JournalError::Io`] — nothing written —
    /// this many times, then succeed. The retryable case.
    Transient {
        /// How many consecutive attempts fail before the fault clears.
        failures: u32,
    },
    /// The device fails permanently: this and every later write errors.
    Permanent,
    /// The disk is full (`ENOSPC`): terminal like [`FaultKind::Permanent`],
    /// distinguished in the error text and the [`FaultStats`].
    DiskFull,
    /// Write exactly this many bytes of the fault line (no newline), then
    /// go dead — the canonical torn-tail crash artifact.
    Torn {
        /// Bytes of the fault line that land before the tear.
        bytes: u64,
    },
    /// Run the crash hook and go dead without writing anything — a
    /// process-kill point with a clean tail.
    Crash,
}

impl FaultKind {
    /// A stable lowercase label (`"transient"`, `"disk-full"`, …) for
    /// logs, metrics labels and test assertions — the [`FaultKind`]
    /// analogue of [`crate::journal::JournalEntry::label`].
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Transient { .. } => "transient",
            FaultKind::Permanent => "permanent",
            FaultKind::DiskFull => "disk-full",
            FaultKind::Torn { .. } => "torn",
            FaultKind::Crash => "crash",
        }
    }
}

/// A fault pinned to a committed-line index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// 0-based index (over the sink's lifetime) of the line whose commit
    /// triggers the fault.
    pub at_line: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic, line-addressed fault plan for one
/// [`FaultInjectingSink`]. Built fluently ([`FaultSchedule::none`] then
/// `transient_at`/`permanent_at`/…) or seeded randomly
/// ([`FaultSchedule::random`]); either way the schedule is pure data, so
/// the same schedule over the same workload reproduces the same failure
/// byte for byte.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The planned faults, sorted by [`PlannedFault::at_line`].
    plan: Vec<PlannedFault>,
}

impl FaultSchedule {
    /// An empty schedule: the wrapper passes everything through (the
    /// healthy-path overhead the bench's `--faults` mode measures).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds a fault at `at_line`, keeping the plan sorted (stable for
    /// equal lines: earlier-added faults fire first).
    pub fn with_fault(mut self, at_line: u64, kind: FaultKind) -> FaultSchedule {
        let at = self
            .plan
            .iter()
            .position(|f| f.at_line > at_line)
            .unwrap_or(self.plan.len());
        self.plan.insert(at, PlannedFault { at_line, kind });
        self
    }

    /// A transient `EIO` at `at_line` for `failures` attempts.
    pub fn transient_at(self, at_line: u64, failures: u32) -> FaultSchedule {
        self.with_fault(at_line, FaultKind::Transient { failures })
    }

    /// A permanent device failure from `at_line` on.
    pub fn permanent_at(self, at_line: u64) -> FaultSchedule {
        self.with_fault(at_line, FaultKind::Permanent)
    }

    /// A full disk (`ENOSPC`) from `at_line` on.
    pub fn disk_full_at(self, at_line: u64) -> FaultSchedule {
        self.with_fault(at_line, FaultKind::DiskFull)
    }

    /// A torn write at `at_line`: `bytes` bytes land, then the sink dies.
    pub fn torn_at(self, at_line: u64, bytes: u64) -> FaultSchedule {
        self.with_fault(at_line, FaultKind::Torn { bytes })
    }

    /// A crash point at `at_line` (see [`FaultInjectingSink::on_crash`]).
    pub fn crash_at(self, at_line: u64) -> FaultSchedule {
        self.with_fault(at_line, FaultKind::Crash)
    }

    /// A seeded random schedule over the first `horizon` lines: one to
    /// three transient faults and, half the time, one terminal fault
    /// (permanent / disk-full / torn / crash) somewhere in the horizon.
    /// Deterministic in `seed`.
    pub fn random(seed: u64, horizon: u64) -> FaultSchedule {
        let mut rng = SimRng::seed_from(seed);
        let horizon = horizon.max(1);
        let mut schedule = FaultSchedule::none();
        let transients = 1 + rng.next_u64() % 3;
        for _ in 0..transients {
            let at = rng.next_u64() % horizon;
            let failures = 1 + (rng.next_u64() % 3) as u32;
            schedule = schedule.transient_at(at, failures);
        }
        if rng.next_u64().is_multiple_of(2) {
            let at = rng.next_u64() % horizon;
            schedule = match rng.next_u64() % 4 {
                0 => schedule.permanent_at(at),
                1 => schedule.disk_full_at(at),
                2 => schedule.torn_at(at, 1 + rng.next_u64() % 40),
                _ => schedule.crash_at(at),
            };
        }
        schedule
    }

    /// The planned faults, sorted by line.
    pub fn plan(&self) -> &[PlannedFault] {
        &self.plan
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }
}

/// What a [`FaultInjectingSink`] has injected and passed so far
/// (monotonic; read through a [`FaultProbe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Transient `EIO`s injected (one per failed attempt).
    pub injected_transient: u64,
    /// Permanent-failure faults fired.
    pub injected_permanent: u64,
    /// Disk-full faults fired.
    pub injected_disk_full: u64,
    /// Torn-write faults fired.
    pub injected_torn: u64,
    /// Crash-point faults fired.
    pub injected_crash: u64,
    /// Commits rejected because the sink was already dead.
    pub rejected_dead: u64,
    /// Commits that passed through cleanly.
    pub commits_passed: u64,
    /// Lines committed to the inner sink.
    pub lines_committed: u64,
}

impl FaultStats {
    /// Total faults injected, all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected_transient
            + self.injected_permanent
            + self.injected_disk_full
            + self.injected_torn
            + self.injected_crash
    }
}

/// Shared fault-injection state: the live plan, the committed-line
/// cursor, terminal death, counters.
#[derive(Debug)]
struct FaultState {
    plan: VecDeque<PlannedFault>,
    /// Lines successfully committed to the inner sink.
    committed: u64,
    /// `Some(reason)` once a terminal fault fired: every later write
    /// fails with this message.
    dead: Option<String>,
    stats: FaultStats,
}

/// A test-side observer for a [`FaultInjectingSink`]: the sink is boxed
/// away inside a [`crate::Journal`], so the probe (which shares its
/// state) is how tests and examples assert on what was injected.
#[derive(Debug, Clone)]
pub struct FaultProbe {
    state: Arc<Mutex<FaultState>>,
}

fn lock_state(state: &Arc<Mutex<FaultState>>) -> MutexGuard<'_, FaultState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FaultProbe {
    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        lock_state(&self.state).stats
    }

    /// Whether a terminal fault has fired (all further writes fail).
    pub fn is_dead(&self) -> bool {
        lock_state(&self.state).dead.is_some()
    }

    /// The terminal fault's error text, if one fired.
    pub fn dead_reason(&self) -> Option<String> {
        lock_state(&self.state).dead.clone()
    }

    /// Lines committed to the inner sink so far.
    pub fn lines_committed(&self) -> u64 {
        lock_state(&self.state).committed
    }

    /// Planned faults not yet consumed.
    pub fn faults_remaining(&self) -> usize {
        lock_state(&self.state).plan.len()
    }
}

/// A [`JournalSink`] decorator injecting a [`FaultSchedule`] into any
/// inner sink. Writes are intercepted (see the [module docs](self) for
/// the per-kind semantics); reads pass through even after a terminal
/// fault so recovery and inspection of already-committed bytes keep
/// working. Construct with [`FaultInjectingSink::wrap`], which also
/// returns the [`FaultProbe`] observer.
pub struct FaultInjectingSink {
    inner: Box<dyn JournalSink>,
    state: Arc<Mutex<FaultState>>,
    /// Invoked (with the committed-line count) when a
    /// [`FaultKind::Crash`] fires, before the sink goes dead.
    crash_hook: Option<Box<dyn FnMut(u64) + Send>>,
}

impl fmt::Debug for FaultInjectingSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = lock_state(&self.state);
        f.debug_struct("FaultInjectingSink")
            .field("committed", &state.committed)
            .field("dead", &state.dead)
            .field("faults_remaining", &state.plan.len())
            .finish()
    }
}

impl FaultInjectingSink {
    /// Wraps `inner` with `schedule`, returning the sink and its probe.
    pub fn wrap(
        inner: Box<dyn JournalSink>,
        schedule: FaultSchedule,
    ) -> (FaultInjectingSink, FaultProbe) {
        let state = Arc::new(Mutex::new(FaultState {
            plan: schedule.plan.into(),
            committed: 0,
            dead: None,
            stats: FaultStats::default(),
        }));
        let probe = FaultProbe {
            state: Arc::clone(&state),
        };
        (
            FaultInjectingSink {
                inner,
                state,
                crash_hook: None,
            },
            probe,
        )
    }

    /// Installs the crash hook a [`FaultKind::Crash`] fault invokes (with
    /// the committed-line count) before the sink goes dead. Tests use it
    /// to snapshot "what the journal held at the kill point".
    pub fn on_crash(mut self, hook: impl FnMut(u64) + Send + 'static) -> FaultInjectingSink {
        self.crash_hook = Some(Box::new(hook));
        self
    }

    /// The write interception core: either the whole batch passes, or a
    /// planned fault inside it fires and the batch fails (committing a
    /// prefix only for [`FaultKind::Torn`]).
    fn commit(&mut self, lines: &[&str]) -> Result<(), JournalError> {
        let mut state = lock_state(&self.state);
        if let Some(reason) = &state.dead {
            let reason = reason.clone();
            state.stats.rejected_dead += 1;
            return Err(JournalError::Io(reason));
        }
        let batch = lines.len() as u64;
        let hit = state
            .plan
            .front()
            .is_some_and(|fault| fault.at_line < state.committed + batch);
        if !hit {
            self.inner.append_lines(lines)?;
            state.committed += batch;
            state.stats.commits_passed += 1;
            state.stats.lines_committed += batch;
            return Ok(());
        }
        let mut fault = state.plan.pop_front().expect("hit implies a fault");
        match fault.kind {
            FaultKind::Transient { ref mut failures } => {
                state.stats.injected_transient += 1;
                if *failures > 1 {
                    *failures -= 1;
                    state.plan.push_front(fault);
                }
                Err(JournalError::Io(format!(
                    "injected transient i/o error (EIO) at line {}",
                    fault.at_line
                )))
            }
            FaultKind::Permanent => {
                state.stats.injected_permanent += 1;
                let reason = format!("injected permanent i/o failure at line {}", fault.at_line);
                state.dead = Some(reason.clone());
                Err(JournalError::Io(reason))
            }
            FaultKind::DiskFull => {
                state.stats.injected_disk_full += 1;
                let reason = format!(
                    "injected disk-full (ENOSPC): no space left on device at line {}",
                    fault.at_line
                );
                state.dead = Some(reason.clone());
                Err(JournalError::Io(reason))
            }
            FaultKind::Torn { bytes } => {
                state.stats.injected_torn += 1;
                // The complete lines before the fault line land normally…
                let lead = (fault.at_line - state.committed) as usize;
                if lead > 0 {
                    self.inner.append_lines(&lines[..lead])?;
                    state.committed += lead as u64;
                    state.stats.lines_committed += lead as u64;
                }
                // …then a newline-less fragment of the fault line — the
                // exact artifact a crash mid-write leaves — and the sink
                // dies so nothing can ever append after the fragment.
                let line = lines[lead];
                let cut = (bytes as usize).min(line.len());
                self.inner.append_torn(&line[..cut])?;
                let reason = format!(
                    "injected torn write ({cut} of {} bytes) at line {}",
                    line.len(),
                    fault.at_line
                );
                state.dead = Some(reason.clone());
                Err(JournalError::Io(reason))
            }
            FaultKind::Crash => {
                state.stats.injected_crash += 1;
                let committed = state.committed;
                if let Some(hook) = &mut self.crash_hook {
                    hook(committed);
                }
                let reason = format!("injected crash point at line {}", fault.at_line);
                state.dead = Some(reason.clone());
                Err(JournalError::Io(reason))
            }
        }
    }

    /// Fails with the terminal fault's reason if one has fired.
    fn check_alive(&self) -> Result<(), JournalError> {
        match &lock_state(&self.state).dead {
            Some(reason) => Err(JournalError::Io(reason.clone())),
            None => Ok(()),
        }
    }
}

impl JournalSink for FaultInjectingSink {
    fn append_lines(&mut self, lines: &[&str]) -> Result<(), JournalError> {
        if lines.is_empty() {
            return Ok(());
        }
        self.commit(lines)
    }

    fn append_torn(&mut self, fragment: &str) -> Result<(), JournalError> {
        self.check_alive()?;
        self.inner.append_torn(fragment)
    }

    fn begin_checkpoint(&mut self) -> Result<(), JournalError> {
        self.check_alive()?;
        self.inner.begin_checkpoint()
    }

    fn abort_checkpoint(&mut self) {
        self.inner.abort_checkpoint()
    }

    fn finish_checkpoint(&mut self) -> Result<(), JournalError> {
        self.check_alive()?;
        self.inner.finish_checkpoint()
    }

    fn seal_head(&mut self) -> Result<(), JournalError> {
        self.check_alive()?;
        self.inner.seal_head()
    }

    fn anchor_chain(&mut self, head: ChainDigest) {
        self.inner.anchor_chain(head)
    }

    fn sink_stats(&self) -> SinkStats {
        self.inner.sink_stats()
    }

    // Reads pass through even when dead: already-committed bytes stay
    // readable (page cache / read-only remount), which is exactly what
    // recovery and post-mortem inspection rely on.

    fn sealed_headers(&self) -> Result<Vec<BlockHeader>, JournalError> {
        self.inner.sealed_headers()
    }

    fn prove(&self, job: JobId) -> Result<Vec<InclusionProof>, JournalError> {
        self.inner.prove(job)
    }

    fn verify_seals(&self, key: &SealKey) -> Result<u64, JournalError> {
        self.inner.verify_seals(key)
    }

    fn contents(&self) -> Result<String, JournalError> {
        self.inner.contents()
    }
}

/// One injectable executor failure mode, the compute-layer analogue of
/// [`FaultKind`]. Injected into the worker pool by a
/// [`WorkerFaultSchedule`]; detection and recovery are the ingest
/// supervisor's job (see [`SupervisorPolicy`] and
/// [`crate::ingest::FleetIngest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerFaultKind {
    /// The worker panics mid-execution. The pool catches the unwind,
    /// reaps the worker, respawns it under the supervisor's restart
    /// budget and reassigns the in-flight batch — no panic escapes.
    Panic,
    /// The worker wedges for this many **virtual ticks** before
    /// finishing. If a job deadline is configured
    /// ([`crate::IngestConfig::with_job_deadline`]) and the hang
    /// outlasts it, the watchdog reaps the worker and reassigns the job;
    /// the zombie's late completion is discarded by the dedup guard.
    Hang {
        /// Virtual ticks the worker spins before completing.
        ticks: u64,
    },
    /// The execution runs `factor`× its declared workload length (in
    /// virtual ticks). A pathological slowdown may or may not trip the
    /// job deadline — both outcomes release bit-identical results.
    SlowDown {
        /// Execution-time multiplier (≥ 1).
        factor: u64,
    },
    /// The worker returns a corrupted [`crate::RunRecord`] (inflated
    /// billed usage). The pool's completion-side quote check — the same
    /// attestation machinery the auditor uses — rejects it, reaps the
    /// lying worker, and re-executes the job on an honest one.
    WrongResult,
}

impl WorkerFaultKind {
    /// A stable lowercase label (`"panic"`, `"hang"`, …) for logs and
    /// test assertions, mirroring [`FaultKind::label`].
    pub fn label(&self) -> &'static str {
        match self {
            WorkerFaultKind::Panic => "panic",
            WorkerFaultKind::Hang { .. } => "hang",
            WorkerFaultKind::SlowDown { .. } => "slowdown",
            WorkerFaultKind::WrongResult => "wrong-result",
        }
    }
}

/// A worker fault pinned to a job id, the executor analogue of
/// [`PlannedFault`]. The fault fires on the job's first `attempts`
/// execution attempts (1-based), then clears — so a reassigned retry
/// succeeds unless the fault was planned to outlast the supervisor's
/// `max_job_attempts` (a **poison job**, see
/// [`WorkerFaultSchedule::poison_on`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedWorkerFault {
    /// The job whose execution triggers the fault.
    pub job: JobId,
    /// What goes wrong.
    pub kind: WorkerFaultKind,
    /// How many execution attempts the fault survives (1 = first
    /// attempt only; `u32::MAX` = every attempt, i.e. poison).
    pub attempts: u32,
}

/// A deterministic, job-addressed worker fault plan, the compute-layer
/// mirror of [`FaultSchedule`]: pure data, seeded, reproducible. Built
/// fluently ([`WorkerFaultSchedule::none`] then `panic_on`/`hang_on`/…)
/// or seeded randomly ([`WorkerFaultSchedule::random`], which never
/// plans a poison job), and installed with
/// [`crate::IngestConfig::with_worker_faults`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkerFaultSchedule {
    /// The planned faults, sorted by job id (stable for equal ids:
    /// earlier-added faults match first).
    plan: Vec<PlannedWorkerFault>,
}

impl WorkerFaultSchedule {
    /// An empty schedule: the pool runs exactly as without one.
    pub fn none() -> WorkerFaultSchedule {
        WorkerFaultSchedule::default()
    }

    /// Adds a fault for `job`, keeping the plan sorted by job id.
    pub fn with_worker_fault(
        mut self,
        job: JobId,
        kind: WorkerFaultKind,
        attempts: u32,
    ) -> WorkerFaultSchedule {
        let at = self
            .plan
            .iter()
            .position(|f| f.job.0 > job.0)
            .unwrap_or(self.plan.len());
        self.plan.insert(
            at,
            PlannedWorkerFault {
                job,
                kind,
                attempts,
            },
        );
        self
    }

    /// The worker executing `job` panics (first attempt only).
    pub fn panic_on(self, job: JobId) -> WorkerFaultSchedule {
        self.with_worker_fault(job, WorkerFaultKind::Panic, 1)
    }

    /// The worker executing `job` hangs for `ticks` virtual ticks
    /// (first attempt only).
    pub fn hang_on(self, job: JobId, ticks: u64) -> WorkerFaultSchedule {
        self.with_worker_fault(job, WorkerFaultKind::Hang { ticks }, 1)
    }

    /// The worker executing `job` runs `factor`× slow (first attempt
    /// only).
    pub fn slow_on(self, job: JobId, factor: u64) -> WorkerFaultSchedule {
        self.with_worker_fault(job, WorkerFaultKind::SlowDown { factor }, 1)
    }

    /// The worker executing `job` returns a corrupted record (first
    /// attempt only).
    pub fn wrong_result_on(self, job: JobId) -> WorkerFaultSchedule {
        self.with_worker_fault(job, WorkerFaultKind::WrongResult, 1)
    }

    /// `job` is **poison**: it panics its worker on *every* attempt, so
    /// the supervisor's `max_job_attempts` budget is the only way out —
    /// the job is individually quarantined with a journaled
    /// [`crate::JournalEntry::Poisoned`] verdict while the rest of the
    /// fleet keeps flowing.
    pub fn poison_on(self, job: JobId) -> WorkerFaultSchedule {
        self.with_worker_fault(job, WorkerFaultKind::Panic, u32::MAX)
    }

    /// A seeded random schedule over job ids `0..jobs`: one to three
    /// faulted jobs, each with one uniformly drawn fault kind firing on
    /// the first attempt only — **never** a poison job, so recovery
    /// always converges to the unfaulted result. Deterministic in
    /// `seed`.
    pub fn random(seed: u64, jobs: u64) -> WorkerFaultSchedule {
        let mut rng = SimRng::seed_from(seed);
        let jobs = jobs.max(1);
        let mut schedule = WorkerFaultSchedule::none();
        let faulted = 1 + rng.next_u64() % 3;
        for _ in 0..faulted {
            let job = JobId(rng.next_u64() % jobs);
            schedule = match rng.next_u64() % 4 {
                0 => schedule.panic_on(job),
                1 => schedule.hang_on(job, 1 + rng.next_u64() % 16),
                2 => schedule.slow_on(job, 2 + rng.next_u64() % 3),
                _ => schedule.wrong_result_on(job),
            };
        }
        schedule
    }

    /// The fault (if any) that fires on execution attempt `attempt`
    /// (1-based) of `job`. Pure in `(self, job, attempt)` — the pool
    /// tracks attempts, the schedule just answers.
    pub fn fault_for(&self, job: JobId, attempt: u32) -> Option<WorkerFaultKind> {
        self.plan
            .iter()
            .find(|f| f.job == job && attempt <= f.attempts)
            .map(|f| f.kind)
    }

    /// The planned faults, sorted by job id.
    pub fn plan(&self) -> &[PlannedWorkerFault] {
        &self.plan
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }
}

/// The supervisor's bounded recovery ladder for a failing worker pool:
/// respawn within a restart budget, degrade to fewer workers when the
/// budget runs dry, quarantine the fleet when the last worker dies, and
/// declare a job poison once it has killed `max_job_attempts` workers
/// in a row. Pure data; the enforcement lives in
/// [`crate::ingest::FleetIngest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorPolicy {
    /// Worker respawns allowed per restart window before the pool
    /// degrades (a dead worker is no longer replaced).
    pub max_restarts: u32,
    /// The restart-budget window, in virtual ticks; `0` makes the
    /// budget a lifetime total.
    pub restart_window: u64,
    /// Execution attempts a job gets before it is declared **poison**
    /// (journaled, tenant-visible, individually quarantined). At
    /// least 1.
    pub max_job_attempts: u32,
}

impl Default for SupervisorPolicy {
    /// Eight respawns per 1024-tick window, three attempts per job.
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            max_restarts: 8,
            restart_window: 1024,
            max_job_attempts: 3,
        }
    }
}

impl SupervisorPolicy {
    /// Replaces the per-window respawn budget.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> SupervisorPolicy {
        self.max_restarts = max_restarts;
        self
    }

    /// Replaces the restart-budget window (virtual ticks; `0` =
    /// lifetime budget).
    pub fn with_restart_window(mut self, restart_window: u64) -> SupervisorPolicy {
        self.restart_window = restart_window;
        self
    }

    /// Replaces the poison threshold.
    ///
    /// # Panics
    /// Panics if `max_job_attempts` is zero (a job needs at least one
    /// attempt to fail).
    pub fn with_max_job_attempts(mut self, max_job_attempts: u32) -> SupervisorPolicy {
        assert!(
            max_job_attempts > 0,
            "a job needs at least one execution attempt"
        );
        self.max_job_attempts = max_job_attempts;
        self
    }
}

/// A seeded-deterministic bounded retry policy for journal commits:
/// `max_attempts` tries, exponential backoff between them measured in
/// **virtual ticks** (cooperative `yield_now` loops, never wall-clock
/// sleeps, so tests and the bench stay fast and deterministic), with
/// seed-derived jitter so colliding retriers deterministically de-sync.
///
/// The ingest pipeline runs every release-path and submission-path
/// journal commit under its configured policy
/// ([`crate::IngestConfig::with_retry_policy`]); on exhaustion it enters
/// quarantine instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff after the first failure, in virtual ticks.
    pub base_ticks: u64,
    /// Backoff ceiling, in virtual ticks.
    pub max_ticks: u64,
    /// Jitter seed (the fleet seed, conventionally).
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, backoff 1 → 2 → 4 ticks (capped at 64), seed 0.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_ticks: 1,
            max_ticks: 64,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and default backoff.
    ///
    /// # Panics
    /// Panics if `max_attempts` is zero (the first try is an attempt).
    pub fn new(max_attempts: u32) -> RetryPolicy {
        assert!(
            max_attempts > 0,
            "a retry policy needs at least one attempt"
        );
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// No retries: one attempt, fail straight to quarantine.
    pub fn none() -> RetryPolicy {
        RetryPolicy::new(1)
    }

    /// Replaces the first-failure backoff (in virtual ticks).
    pub fn with_base_ticks(mut self, base_ticks: u64) -> RetryPolicy {
        self.base_ticks = base_ticks;
        self
    }

    /// Replaces the backoff ceiling (in virtual ticks).
    pub fn with_max_ticks(mut self, max_ticks: u64) -> RetryPolicy {
        self.max_ticks = max_ticks;
        self
    }

    /// Replaces the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// The backoff before retry number `attempt` (1-based: the wait after
    /// the first failure is `backoff_ticks(1)`), in virtual ticks:
    /// `min(base << (attempt-1), max)` plus deterministic seed-derived
    /// jitter in `[0, backoff/2]`, capped at `max_ticks`. Pure in
    /// `(self, attempt)`.
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        let shift = (attempt.saturating_sub(1)).min(63);
        let exp = self
            .base_ticks
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.max_ticks);
        let jitter = if exp >= 2 {
            SimRng::seed_from(self.seed ^ (attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .next_u64()
                % (exp / 2 + 1)
        } else {
            0
        };
        (exp + jitter).min(self.max_ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::JobSpec;
    use crate::journal::{Journal, JournalEntry, MemorySink};
    use crate::tenant::TenantId;
    use trustmeter_workloads::Workload;

    /// Appends one small entry as its own commit (one line).
    fn append(journal: &Journal) -> Result<(), JournalError> {
        journal.append_batch(&[entry()])
    }

    fn entry() -> JournalEntry {
        JournalEntry::Accepted(JobSpec::clean(0, TenantId(1), Workload::LoopO, 0.001))
    }

    #[test]
    fn empty_schedule_passes_everything_through() {
        let (sink, probe) =
            FaultInjectingSink::wrap(Box::new(MemorySink::new()), FaultSchedule::none());
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        for _ in 0..5 {
            append(&journal).unwrap();
        }
        let stats = probe.stats();
        assert_eq!(stats.injected_total(), 0);
        assert_eq!(stats.lines_committed, 5);
        assert_eq!(journal.entries().unwrap().0.len(), 5);
    }

    #[test]
    fn transient_fault_fails_then_clears() {
        let schedule = FaultSchedule::none().transient_at(1, 2);
        let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        append(&journal).unwrap();
        assert!(append(&journal).is_err());
        assert!(append(&journal).is_err());
        append(&journal).unwrap();
        assert_eq!(probe.stats().injected_transient, 2);
        assert!(!probe.is_dead());
        // The chain survived the retries: nothing was written on the
        // failed attempts, so the parse walks cleanly.
        assert_eq!(journal.entries().unwrap().0.len(), 2);
    }

    #[test]
    fn disk_full_is_terminal_but_reads_pass_through() {
        let schedule = FaultSchedule::none().disk_full_at(1);
        let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        append(&journal).unwrap();
        let err = append(&journal).unwrap_err();
        assert!(err.to_string().contains("disk-full"), "{err}");
        // Dead: every further write fails…
        assert!(append(&journal).is_err());
        assert!(probe.is_dead());
        assert_eq!(probe.stats().rejected_dead, 1);
        // …but the committed prefix is still readable.
        assert_eq!(journal.entries().unwrap().0.len(), 1);
    }

    #[test]
    fn torn_fault_leaves_the_canonical_crash_artifact() {
        let schedule = FaultSchedule::none().torn_at(1, 10);
        let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        append(&journal).unwrap();
        assert!(append(&journal).is_err());
        assert!(probe.is_dead());
        assert_eq!(probe.stats().injected_torn, 1);
        // Exactly 10 bytes of line 1 landed, with no newline: the parse
        // drops it as a truncated tail, keeping line 0.
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert!(tail.is_truncated());
    }

    #[test]
    fn torn_fault_mid_batch_commits_the_leading_lines() {
        let schedule = FaultSchedule::none().torn_at(2, 4);
        let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        let batch = vec![entry(); 4];
        assert!(journal.append_batch(&batch).is_err());
        // Lines 0 and 1 committed whole; line 2 tore; line 3 never landed.
        assert_eq!(probe.lines_committed(), 2);
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(tail.is_truncated());
    }

    #[test]
    fn crash_fault_runs_the_hook_with_a_clean_tail() {
        let schedule = FaultSchedule::none().crash_at(2);
        let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
        let seen = Arc::new(Mutex::new(None));
        let seen_in_hook = Arc::clone(&seen);
        let sink = sink.on_crash(move |committed| {
            *seen_in_hook.lock().unwrap() = Some(committed);
        });
        let journal = Journal::with_sink(Box::new(sink)).unwrap();
        append(&journal).unwrap();
        append(&journal).unwrap();
        assert!(append(&journal).is_err());
        assert_eq!(*seen.lock().unwrap(), Some(2));
        assert!(probe.is_dead());
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(!tail.is_truncated(), "a crash point leaves a clean tail");
    }

    #[test]
    fn random_schedules_are_deterministic_in_the_seed() {
        for seed in 0..32 {
            assert_eq!(
                FaultSchedule::random(seed, 100),
                FaultSchedule::random(seed, 100)
            );
        }
        // And not all identical.
        assert_ne!(FaultSchedule::random(1, 100), FaultSchedule::random(2, 100));
    }

    #[test]
    fn schedule_builder_keeps_the_plan_sorted() {
        let schedule = FaultSchedule::none()
            .permanent_at(9)
            .transient_at(2, 1)
            .torn_at(5, 3);
        let lines: Vec<u64> = schedule.plan().iter().map(|f| f.at_line).collect();
        assert_eq!(lines, vec![2, 5, 9]);
        assert_eq!(schedule.plan()[0].kind.label(), "transient");
    }

    #[test]
    fn worker_schedules_are_deterministic_seeded_and_poison_free() {
        for seed in 0..32 {
            assert_eq!(
                WorkerFaultSchedule::random(seed, 12),
                WorkerFaultSchedule::random(seed, 12)
            );
        }
        assert_ne!(
            WorkerFaultSchedule::random(1, 12),
            WorkerFaultSchedule::random(2, 12)
        );
        // Random schedules never plan a poison job: every fault clears
        // after the first attempt, inside any supervisor's budget.
        for seed in 0..64 {
            for fault in WorkerFaultSchedule::random(seed, 12).plan() {
                assert_eq!(fault.attempts, 1, "seed {seed} planned {fault:?}");
            }
        }
    }

    #[test]
    fn worker_fault_lookup_is_attempt_scoped() {
        let schedule = WorkerFaultSchedule::none()
            .hang_on(JobId(3), 7)
            .poison_on(JobId(9))
            .wrong_result_on(JobId(1));
        // Sorted by job id, labels stable.
        let jobs: Vec<u64> = schedule.plan().iter().map(|f| f.job.0).collect();
        assert_eq!(jobs, vec![1, 3, 9]);
        assert_eq!(schedule.plan()[0].kind.label(), "wrong-result");
        // First attempt faults; the reassigned second attempt is clean…
        assert_eq!(
            schedule.fault_for(JobId(3), 1),
            Some(WorkerFaultKind::Hang { ticks: 7 })
        );
        assert_eq!(schedule.fault_for(JobId(3), 2), None);
        assert_eq!(schedule.fault_for(JobId(2), 1), None);
        // …except for a poison job, which faults on every attempt.
        for attempt in [1, 2, 3, 1000] {
            assert_eq!(
                schedule.fault_for(JobId(9), attempt),
                Some(WorkerFaultKind::Panic)
            );
        }
    }

    #[test]
    fn backoff_jitter_stays_within_bounds_for_the_first_ten_attempts() {
        // Across a spread of seeds and shapes, every backoff lands in
        // [base_ticks, max_ticks] for attempts 1..=10.
        for seed in 0..32u64 {
            for (base, max) in [(1u64, 64u64), (2, 16), (4, 4), (1, 1), (8, 256)] {
                let policy = RetryPolicy::default()
                    .with_base_ticks(base)
                    .with_max_ticks(max)
                    .with_seed(seed);
                for attempt in 1..=10u32 {
                    let ticks = policy.backoff_ticks(attempt);
                    assert!(
                        ticks >= base.min(max) && ticks <= max,
                        "seed {seed} base {base} max {max} attempt {attempt}: {ticks}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_policies_produce_identical_tick_sequences() {
        for seed in 0..16u64 {
            let a = RetryPolicy::new(10).with_base_ticks(2).with_seed(seed);
            let b = RetryPolicy::new(10).with_base_ticks(2).with_seed(seed);
            let ticks_a: Vec<u64> = (1..=10).map(|n| a.backoff_ticks(n)).collect();
            let ticks_b: Vec<u64> = (1..=10).map(|n| b.backoff_ticks(n)).collect();
            assert_eq!(ticks_a, ticks_b, "seed {seed}");
        }
        // Different seeds de-sync somewhere in the first ten attempts.
        let a = RetryPolicy::new(10).with_base_ticks(2).with_seed(1);
        let b = RetryPolicy::new(10).with_base_ticks(2).with_seed(2);
        assert_ne!(
            (1..=10).map(|n| a.backoff_ticks(n)).collect::<Vec<u64>>(),
            (1..=10).map(|n| b.backoff_ticks(n)).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_monotonic_in_shape() {
        let policy = RetryPolicy::default().with_seed(42);
        let ticks: Vec<u64> = (1..8).map(|a| policy.backoff_ticks(a)).collect();
        assert_eq!(
            ticks,
            (1..8)
                .map(|a| policy.backoff_ticks(a))
                .collect::<Vec<u64>>(),
            "pure in (policy, attempt)"
        );
        for t in &ticks {
            assert!(*t <= policy.max_ticks);
        }
        assert!(ticks[0] >= policy.base_ticks);
        // Huge attempt counts saturate instead of overflowing.
        assert_eq!(policy.backoff_ticks(u32::MAX), policy.max_ticks);
    }
}
