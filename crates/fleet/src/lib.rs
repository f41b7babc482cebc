//! # trustmeter-fleet
//!
//! A deterministic, sharded, multi-tenant metering service over the
//! trustmeter workspace — the paper's single-run trust argument
//! ([`trustmeter_core`]) lifted to the scale where billing disputes
//! actually happen: many tenants submitting many jobs to a provider whose
//! accounting may or may not be honest.
//!
//! | Piece | What it does |
//! |-------|--------------|
//! | [`executor::Fleet`] | executes [`executor::JobSpec`]s; results are bit-identical for any worker count |
//! | [`ingest::FleetStream`] | the one pipeline, opened with [`FleetService::stream`]: worker pool, bounded submission queue, backpressure, per-tenant fairness, sequence-numbered completion log posted into the service |
//! | [`queue::FairQueue`] | the bounded per-tenant-fair queue under the pool |
//! | [`tenant::Ledger`] | aggregates per-run [`trustmeter_core::Invoice`]s and CPU time (billed vs TSC ground truth) into per-tenant accounts |
//! | [`auditor::Auditor`] | streams run records through the §VI trust workflow and raises per-tenant [`auditor::Anomaly`] verdicts |
//! | [`journal::Journal`] | append-only JSON-lines write-ahead log: runs, billing/audit receipts, checkpoints; crash recovery via [`FleetService::recover`] |
//! | [`metrics::MetricsRegistry`] | Prometheus-style text exposition; a service builds two when they are read: billing-grade [`FleetService::metering`] from the ledger and the auditor (checkpointed) and operational [`FleetService::metrics`] from the journal, the tracer and the sessions (never checkpointed) |
//! | [`FleetService`] | wires it all together: submit → execute → bill → audit → journal → export |
//!
//! ## Example
//!
//! ```
//! use trustmeter_fleet::{
//!     AttackSpec, FleetConfig, FleetService, JobSpec, RateCard, Tenant, TenantId,
//! };
//! use trustmeter_workloads::Workload;
//!
//! let mut service = FleetService::new(FleetConfig::new(4, 2026));
//! service.register(Tenant::new(TenantId(1), "acme", RateCard::per_cpu_hour(0.10)));
//! service.register(Tenant::new(TenantId(2), "initech", RateCard::per_cpu_hour(0.08)));
//!
//! let jobs = vec![
//!     JobSpec::clean(0, TenantId(1), Workload::Pi, 0.002),
//!     JobSpec::attacked(1, TenantId(2), Workload::Pi, 0.002, AttackSpec::Shell),
//! ];
//! let report = service.process(&jobs);
//!
//! // The attacked tenant is billed above ground truth and flagged.
//! let honest = report.ledger.account(TenantId(1)).unwrap();
//! let victim = report.ledger.account(TenantId(2)).unwrap();
//! assert!(victim.overcharge_ratio() > honest.overcharge_ratio());
//! assert_eq!(victim.flagged_runs, 1);
//! assert!(service.metrics_text().contains("cpu_usage"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditor;
pub mod evidence;
pub mod executor;
pub mod faults;
pub mod ingest;
pub mod journal;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod tenant;
pub mod trace;

pub use auditor::{
    Anomaly, AuditVerdict, Auditor, AuditorState, SamplingPolicy, TenantAuditSummary,
};
pub use evidence::{
    BlockHeader, ChainDigest, InclusionProof, JobRange, ProofError, ProofStep, SealKey,
};
pub use executor::{
    quote_nonce, AttackSpec, Fleet, FleetConfig, JobId, JobSpec, ReferenceOutcome, RunRecord,
};
pub use faults::{
    FaultInjectingSink, FaultKind, FaultProbe, FaultSchedule, FaultStats, PlannedFault,
    PlannedWorkerFault, RetryPolicy, SupervisorPolicy, WorkerFaultKind, WorkerFaultSchedule,
};
pub use ingest::{
    BackpressurePolicy, BatchSubmitError, FleetHealth, FleetStream, IngestConfig, IngestHandle,
    IngestStats, SubmitError,
};
pub use journal::{
    parse_journal, recovery_window, Checkpoint, CheckpointCadence, Framed, FsyncPolicy,
    InvoicePosting, Journal, JournalEntry, JournalError, JournalSink, JournalStats,
    LedgerVerification, MemorySink, PoisonNotice, RecoveryError, RecoveryReport, SegmentConfig,
    SegmentedFileSink, SinkStats, TailStatus,
};
pub use metrics::{MetricKind, MetricsRegistry};
pub use pool::PoolStats;
pub use queue::FairQueue;
pub use tenant::{Ledger, Tenant, TenantDirectory, TenantId, TenantLedger};
pub use trace::{span_id, PipelineTracer, Span, SpanWall, Stage, StageObservation, TracerStats};

// Re-exported so fleet callers can price tenants without importing core.
pub use trustmeter_core::RateCard;

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The `cpu_usage` metering family: a tenant's CPU seconds, one series
/// per [`USAGE_SERIES`] entry.
const CPU_USAGE: (&str, &str) = ("cpu_usage", "CPU seconds attributed to tenant jobs");
/// The `(state, source)` labels of a tenant's `cpu_usage` series, in the
/// order of the service's per-tenant usage sums.
const USAGE_SERIES: [(&str, &str); 4] = [
    ("user", "billed"),
    ("system", "billed"),
    ("user", "truth"),
    ("system", "truth"),
];

/// Reads one field of a component's stats snapshot as a metric value.
type Read<S> = fn(&S) -> f64;

/// Where an unlabeled ops family's value comes from.
enum Feed {
    /// Counter: a [`JournalStats`] field of the attached journal, read
    /// when the registry is.
    Journal(Read<JournalStats>),
    /// Counter: a [`TracerStats`] field of the attached tracer, read when
    /// the registry is.
    Tracer(Read<TracerStats>),
    /// Counter: an [`IngestStats`] field, summed over ended sessions.
    Ingest(Read<IngestStats>),
    /// Gauge: an [`IngestStats`] field as the last session ended.
    IngestGauge(Read<IngestStats>),
    /// Counter: bumped by the service on the event it names.
    Event,
}

/// The unlabeled families of the ops registry ([`FleetService::metrics`]):
/// name, help and feed. With [`STAGE_SECONDS`],
/// [`STAGE_SECONDS_BY_TENANT`], [`INFLIGHT`] and [`POOL_BUFFERS`] this is
/// every ops family; everything else a service exports is metering.
const OPS: [(&str, &str, Feed); 22] = [
    (
        "fleet_journal_appends_total",
        "Entries appended to the durability journal",
        Feed::Journal(|s| s.appends as f64),
    ),
    (
        "fleet_journal_bytes_total",
        "Bytes appended to the durability journal (JSON lines)",
        Feed::Journal(|s| s.bytes as f64),
    ),
    (
        "fleet_journal_group_commits_total",
        "Batched journal commits (entry groups committed with one sink write)",
        Feed::Journal(|s| s.group_commits as f64),
    ),
    (
        "fleet_journal_rotations_total",
        "Journal segment rotations",
        Feed::Journal(|s| s.rotations as f64),
    ),
    (
        "fleet_journal_fsyncs_total",
        "fsync calls issued by the journal sink",
        Feed::Journal(|s| s.fsyncs as f64),
    ),
    (
        "fleet_journal_segments_retired_total",
        "Journal segments retired as superseded by a checkpoint",
        Feed::Journal(|s| s.segments_retired as f64),
    ),
    (
        "fleet_ledger_seals_total",
        "Signed block headers sealed over rotated journal segments",
        Feed::Journal(|s| s.seals as f64),
    ),
    (
        "fleet_journal_retries_total",
        "Failed journal commit attempts absorbed by the retry policy (transient I/O errors)",
        Feed::Ingest(|s| s.retries as f64),
    ),
    (
        "fleet_journal_failures_total",
        "Journal commits that exhausted the retry policy and quarantined the pipeline",
        Feed::Ingest(|s| s.journal_failures as f64),
    ),
    (
        "fleet_submissions_rejected",
        "Submissions rejected because the queue was full",
        Feed::Ingest(|s| s.rejected as f64),
    ),
    (
        "fleet_worker_restarts_total",
        "Faulted workers restarted in place under the restart budget",
        Feed::Ingest(|s| s.worker_restarts as f64),
    ),
    (
        "fleet_jobs_reassigned_total",
        "Running jobs reclaimed from panicked or lying workers and requeued for re-execution",
        Feed::Ingest(|s| s.reassigned as f64),
    ),
    (
        "fleet_poison_jobs_total",
        "Jobs retired as poison after killing the configured run of workers",
        Feed::Ingest(|s| s.poisoned as f64),
    ),
    (
        "fleet_queue_depth",
        "Jobs queued and not yet dispatched to a worker",
        Feed::IngestGauge(|s| s.queued as f64),
    ),
    (
        "fleet_quarantined",
        "Whether the ingest pipeline is quarantined after an unrecoverable journal failure (0/1)",
        Feed::IngestGauge(|s| f64::from(u8::from(s.quarantined))),
    ),
    (
        "fleet_workers_live",
        "Workers currently alive in the ingest pool",
        Feed::IngestGauge(|s| s.workers as f64),
    ),
    (
        "fleet_observer_spans_total",
        "Spans recorded by the pipeline tracer",
        Feed::Tracer(|s| s.spans_recorded as f64),
    ),
    (
        "fleet_observer_spans_dropped_total",
        "Spans evicted from the tracer's full ring buffer",
        Feed::Tracer(|s| s.spans_dropped as f64),
    ),
    (
        "fleet_observer_overhead_seconds_total",
        "Time spent inside the observability layer itself (the cost of observing)",
        Feed::Tracer(|s| s.overhead_nanos as f64 / 1e9),
    ),
    (
        "fleet_proofs_emitted_total",
        "Inclusion proofs emitted by dispute resolution",
        Feed::Event,
    ),
    (
        "fleet_chain_violations_total",
        "Evidence chain or seal violations detected during recovery or dispute",
        Feed::Event,
    ),
    (
        "fleet_recoveries_total",
        "Journal recoveries performed by this service",
        Feed::Event,
    ),
];

/// Stage latency histograms, one series per [`Stage`].
const STAGE_SECONDS: (&str, &str) = (
    "fleet_stage_seconds",
    "Pipeline stage latency distribution, by stage",
);
/// Stage latency histograms per tenant; series appear with traffic.
const STAGE_SECONDS_BY_TENANT: (&str, &str) = (
    "fleet_stage_seconds_by_tenant",
    "Pipeline stage latency distribution, by stage and tenant",
);
/// Inflight gauges, one series per tenant that has had a job in flight.
const INFLIGHT: (&str, &str) = ("fleet_inflight", "Jobs currently executing, per tenant");
/// Release-path buffer pool gauges, one series per [`POOL_EVENTS`] entry.
const POOL_BUFFERS: (&str, &str) = (
    "fleet_pool_buffers",
    "Release-path record buffer pool, by event (idle_capacity counts elements, the rest buffers)",
);
const POOL_EVENTS: [(&str, Read<PoolStats>); 5] = [
    ("acquired", |p| p.acquired as f64),
    ("reused", |p| p.reused as f64),
    ("returned", |p| p.returned as f64),
    ("idle", |p| p.idle as f64),
    ("idle_capacity", |p| p.idle_capacity as f64),
];

/// A fresh ops registry with every declared family registered at zero, so
/// the exposition has the same families before the first pump, with
/// tracing on or off, and in a recovered service.
fn ops_registry() -> MetricsRegistry {
    let mut ops = MetricsRegistry::new();
    for (name, help, feed) in OPS {
        match feed {
            Feed::IngestGauge(_) => ops.gauge_set(name, help, &[], 0.0),
            _ => ops.counter_add(name, help, &[], 0.0),
        }
    }
    let (name, help) = STAGE_SECONDS;
    for stage in Stage::ALL {
        ops.histogram_zero(
            name,
            help,
            &metrics::LATENCY_BUCKETS,
            &[("stage", stage.label())],
        );
    }
    let (name, help) = STAGE_SECONDS_BY_TENANT;
    ops.declare(name, help, MetricKind::Histogram, &metrics::LATENCY_BUCKETS);
    let (name, help) = INFLIGHT;
    ops.declare(name, help, MetricKind::Gauge, &[]);
    let (name, help) = POOL_BUFFERS;
    for (event, _) in POOL_EVENTS {
        ops.gauge_set(name, help, &[("event", event)], 0.0);
    }
    ops
}

/// The metering part of a [`FleetService::metrics_text`] dump: every line
/// that does not belong to an ops family, which is exactly
/// [`FleetService::metering`]'s render. Tests compare
/// `metering().render()` directly; this is for callers that only hold the
/// text.
pub fn metering_exposition(exposition: &str) -> String {
    let ops = ops_registry();
    let mut names = BTreeSet::new();
    for (family, _, kind) in ops.family_info() {
        names.insert(family.to_string());
        if kind == MetricKind::Histogram {
            for suffix in ["_bucket", "_sum", "_count"] {
                names.insert(format!("{family}{suffix}"));
            }
        }
    }
    exposition
        .lines()
        .filter(|line| {
            let series = line
                .strip_prefix("# HELP ")
                .or_else(|| line.strip_prefix("# TYPE "))
                .unwrap_or(line);
            let name = series.split([' ', '{']).next().unwrap_or_default();
            !names.contains(name)
        })
        .flat_map(|line| [line, "\n"])
        .collect()
}

/// Everything one processed batch produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Run records in submission order.
    pub records: Vec<RunRecord>,
    /// Audit verdicts, one per record, in the same order.
    pub verdicts: Vec<AuditVerdict>,
    /// The ledger state after posting the batch (cumulative across
    /// batches).
    pub ledger: Ledger,
}

impl FleetReport {
    /// Records whose audit found at least one anomaly.
    pub fn flagged(&self) -> impl Iterator<Item = (&RunRecord, &AuditVerdict)> {
        self.records
            .iter()
            .zip(self.verdicts.iter())
            .filter(|(_, verdict)| !verdict.is_clean())
    }
}

/// The assembled metering service: executor, ledger, auditor and metrics
/// behind one batch [`FleetService::process`] call or a streaming
/// [`FleetService::stream`] session.
///
/// # Examples
///
/// ```
/// use trustmeter_fleet::{FleetConfig, FleetService, JobSpec, RateCard, Tenant, TenantId};
/// use trustmeter_workloads::Workload;
///
/// let mut service = FleetService::new(FleetConfig::new(2, 7));
/// service.register(Tenant::new(TenantId(1), "acme", RateCard::per_cpu_second(0.01)));
/// let report = service.process(&[JobSpec::clean(0, TenantId(1), Workload::LoopO, 0.001)]);
/// assert_eq!(report.ledger.account(TenantId(1)).unwrap().runs, 1);
/// assert!(service.metrics_text().contains("fleet_jobs"));
/// ```
#[derive(Debug)]
pub struct FleetService {
    fleet: Fleet,
    directory: TenantDirectory,
    auditor: Auditor,
    ledger: Ledger,
    /// Per-tenant CPU seconds in [`USAGE_SERIES`] order, summed in posting
    /// order: the one input of [`FleetService::metering`] that the ledger
    /// cannot give back bit for bit, because it keeps integer
    /// [`trustmeter_core::CpuTime`] totals.
    usage: BTreeMap<TenantId, [f64; 4]>,
    /// The part of the operational telemetry this service counts itself:
    /// [`Feed::Event`] counters and the folded session counters and
    /// gauges. [`FleetService::metrics`] adds the journal and tracer
    /// families when it is read. It describes this process and its
    /// timing, so it is never checkpointed or restored.
    ops: MetricsRegistry,
    /// Pricing applied to tenants that were never registered.
    default_rate_card: RateCard,
    /// The durability journal, when attached: runs, invoices and verdicts
    /// are appended write-ahead so the accounting state can be rebuilt
    /// with [`FleetService::recover`].
    journal: Option<Journal>,
    /// The pipeline tracer, when attached (see
    /// [`FleetService::with_tracer`]): the service times its audit/post
    /// stages into it, and [`FleetService::metrics`] reads its histogram
    /// cells into the `fleet_stage_seconds*` metrics.
    tracer: Option<PipelineTracer>,
    /// How often inline checkpoints are written (see
    /// [`FleetService::with_checkpoint_cadence`]).
    cadence: CheckpointCadence,
    /// Runs posted since the last inline checkpoint.
    runs_since_checkpoint: u64,
}

impl FleetService {
    /// A service with the given executor configuration and a
    /// $0.10/CPU-hour default rate card. The auditor inherits the config's
    /// sampling policy and seed — so it verifies exactly the runs the
    /// workers precompute references for — and demands a valid attestation
    /// quote (signed with the fleet's key) before trusting any of them.
    pub fn new(config: FleetConfig) -> FleetService {
        let auditor = Auditor::new(config.machine.clone())
            .with_sampling(config.sampling, config.seed)
            .demand_quotes(config.seed);
        FleetService {
            fleet: Fleet::new(config),
            directory: TenantDirectory::new(),
            auditor,
            ledger: Ledger::new(),
            usage: BTreeMap::new(),
            ops: ops_registry(),
            default_rate_card: RateCard::per_cpu_hour(0.10),
            journal: None,
            tracer: None,
            cadence: CheckpointCadence::Never,
            runs_since_checkpoint: 0,
        }
    }

    /// Attaches a [`PipelineTracer`]: the executor records execution
    /// spans, streaming sessions record queue-wait and journal-commit
    /// spans, and the service itself records audit and post spans — all
    /// read into the `fleet_stage_seconds*` histograms and the
    /// `fleet_observer_*` self-accounting counters of
    /// [`FleetService::metrics`]. Pure observation: every billing, audit
    /// and metering-exposition artifact stays bit-identical with tracing
    /// on or off.
    pub fn with_tracer(mut self, tracer: PipelineTracer) -> FleetService {
        self.fleet.set_tracer(Some(tracer.clone()));
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&PipelineTracer> {
        self.tracer.as_ref()
    }

    /// Attaches a durability journal: from now on every released run and
    /// its billing/audit receipts are appended write-ahead (see the
    /// [`journal`] module docs). The `fleet_journal_*` and
    /// `fleet_ledger_seals_total` series read the journal's own counters.
    pub fn with_journal(mut self, journal: Journal) -> FleetService {
        self.journal = Some(journal);
        self
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Enables automatic inline checkpoints: once at least `n` runs (for
    /// [`CheckpointCadence::every_n_runs`]) were posted since the last
    /// checkpoint, the service writes a [`Checkpoint`] entry at the next
    /// *safe point* — the end of a stream pump (so once per
    /// [`FleetService::process`] batch), when every journaled run has been
    /// posted — so recovery cost stays bounded. On a segmented journal
    /// each checkpoint starts a fresh segment and retires the segments it
    /// supersedes; on other sinks, recover with
    /// [`FleetService::recover_latest`], which seeks to the newest
    /// checkpoint first.
    pub fn with_checkpoint_cadence(mut self, cadence: CheckpointCadence) -> FleetService {
        self.cadence = cadence;
        self
    }

    /// Replaces the rate card used for unregistered tenants.
    pub fn with_default_rate_card(mut self, card: RateCard) -> FleetService {
        self.default_rate_card = card;
        self
    }

    /// Registers a tenant and its pricing.
    pub fn register(&mut self, tenant: Tenant) {
        self.directory.register(tenant);
    }

    /// The tenant directory.
    pub fn directory(&self) -> &TenantDirectory {
        &self.directory
    }

    /// The cumulative ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The streaming auditor.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// Executes, bills, audits and meters one batch of jobs as one stream
    /// session — the batch takes exactly the streaming path: a paused
    /// pool of `shards` workers (at most one per job) over a queue sized
    /// for the batch, [`FleetStream::submit_all`], then
    /// [`FleetStream::finish`]. With a journal attached every spec is
    /// journaled `Accepted` before any worker sees it, the `Run`s are
    /// group-committed before anything posts, then the receipts and, if
    /// the cadence is due, one checkpoint: never journaled ⇒ never billed.
    ///
    /// # Panics
    /// Panics with the journal error if the batch does not fully release
    /// (the journal quarantined the session, or a job was poisoned). The
    /// batch API has no error channel, and nothing unreleased was posted;
    /// use [`FleetService::stream`] to ride out journal faults with
    /// retry, quarantine and failover instead.
    pub fn process(&mut self, jobs: &[JobSpec]) -> FleetReport {
        let workers = self.fleet.config().shards.min(jobs.len()).max(1);
        let stream = self.stream(
            IngestConfig::new(workers)
                .with_capacity(jobs.len())
                .paused(),
        );
        // A refused submission quarantines the session; the drain below
        // reports the cause.
        let _ = stream.submit_all(jobs);
        let (report, health) = stream.drain();
        if report.records.len() < jobs.len() {
            let cause = health
                .last_error
                .unwrap_or_else(|| format!("{} job(s) poisoned", health.poisoned));
            panic!(
                "batch released {} of {} jobs: {cause}",
                report.records.len(),
                jobs.len()
            );
        }
        report
    }

    /// Opens a streaming session: a live worker pool whose completed
    /// records flow into this service's ledger, auditor and metrics in
    /// submission order. See [`FleetStream`].
    ///
    /// # Examples
    ///
    /// ```
    /// use trustmeter_fleet::{FleetConfig, FleetService, IngestConfig, JobSpec, TenantId};
    /// use trustmeter_workloads::Workload;
    ///
    /// let mut service = FleetService::new(FleetConfig::new(2, 42));
    /// let mut stream = service.stream(IngestConfig::new(2));
    /// for id in 0..4 {
    ///     stream
    ///         .submit(JobSpec::clean(id, TenantId(1), Workload::LoopO, 0.001))
    ///         .unwrap();
    /// }
    /// let report = stream.finish();
    /// assert_eq!(report.records.len(), 4);
    /// assert_eq!(report.ledger.account(TenantId(1)).unwrap().runs, 4);
    /// ```
    pub fn stream(&mut self, config: IngestConfig) -> FleetStream<'_> {
        FleetStream::open(self, config)
    }

    /// The shared posting tail of a stream's `pump` and `finish`: posts
    /// each released record (appending to the session's record/verdict
    /// logs), group-commits all the billing/audit receipts in one journal
    /// write, then checkpoints if the cadence is due — the end of a pump
    /// is a safe point, since every journaled run is posted by then.
    /// Drains `ready` in place (the caller keeps the emptied container so
    /// it can recycle its capacity into the release-path pool).
    fn post_ready(
        &mut self,
        ready: &mut Vec<RunRecord>,
        records: &mut Vec<RunRecord>,
        verdicts: &mut Vec<AuditVerdict>,
    ) -> usize {
        let posted = ready.len();
        if posted == 0 {
            return 0;
        }
        let mut receipts = self
            .journal
            .is_some()
            .then(|| Vec::with_capacity(2 * posted));
        let mut first_posted: Option<(JobId, TenantId)> = None;
        for record in ready.drain(..) {
            let post_started = self.tracer.as_ref().map(|_| std::time::Instant::now());
            let (verdict, posting) = self.post_record_core(&record);
            if let (Some(tracer), Some(started)) = (&self.tracer, post_started) {
                tracer.record(
                    Stage::Post,
                    record.job.id,
                    record.job.tenant,
                    started.elapsed(),
                );
            }
            first_posted.get_or_insert((record.job.id, record.job.tenant));
            match &mut receipts {
                Some(receipts) => receipts.extend([
                    JournalEntry::Invoice(posting),
                    JournalEntry::Verdict(verdict),
                ]),
                None => verdicts.push(verdict),
            }
            records.push(record);
        }
        if let Some(receipts) = receipts {
            let commit_started = self.tracer.as_ref().map(|_| std::time::Instant::now());
            // Receipts are *enrichment*, not the billing record: recovery
            // re-derives every posting from the Run entry and only uses
            // journaled receipts to cross-check. So a failing sink here
            // degrades (the receipts count as `unconfirmed` on recovery,
            // and `fleet_journal_failures_total` ticks) instead of
            // panicking — the ingest side quarantines the pipeline at the
            // next Run commit anyway if the disk stays dead.
            let committed = self
                .journal
                .as_ref()
                .expect("receipts collected only with a journal")
                .append_batch(&receipts);
            if committed.is_err() {
                self.count("fleet_journal_failures_total", 1.0);
            }
            if let (Some(tracer), Some(started), Some((job, tenant))) =
                (&self.tracer, commit_started, first_posted)
            {
                // One group commit covers every receipt of the pump;
                // attribute the span to the first posted record.
                tracer.record_aggregate(Stage::JournalCommit, job, tenant, started.elapsed());
            }
            // The committed verdicts move into the session's log.
            verdicts.extend(receipts.into_iter().filter_map(|receipt| match receipt {
                JournalEntry::Verdict(verdict) => Some(verdict),
                _ => None,
            }));
        }
        self.runs_since_checkpoint += posted as u64;
        self.maybe_checkpoint();
        posted
    }

    /// If a checkpoint is due and a journal is attached, writes an inline
    /// [`Checkpoint`] entry (rotating + retiring segments on a segmented
    /// sink). Callers invoke this only at safe points: every journaled
    /// run is posted, so the checkpoint folds the whole journal so far.
    fn maybe_checkpoint(&mut self) {
        if self.journal.is_none() || !self.cadence.due(self.runs_since_checkpoint) {
            return;
        }
        let checkpoint = self.checkpoint();
        // A checkpoint is an optimization (it bounds recovery cost), not
        // a durability obligation — everything it folds is already on the
        // journal. A failing sink skips the checkpoint and counts a
        // failure; `runs_since_checkpoint` is left alone so the cadence
        // retries at the next safe point.
        match self
            .journal
            .as_ref()
            .expect("journal checked above")
            .append_batch(&[JournalEntry::checkpoint(checkpoint)])
        {
            Ok(()) => self.runs_since_checkpoint = 0,
            Err(_) => self.count("fleet_journal_failures_total", 1.0),
        }
    }

    /// Adds `n` to the unlabeled ops counter `name`, as declared in
    /// [`OPS`].
    fn count(&mut self, name: &str, n: f64) {
        let help = OPS
            .iter()
            .find(|(declared, ..)| *declared == name)
            .map(|(_, help, _)| *help)
            .expect("ops counter is declared in OPS");
        self.ops.counter_add(name, help, &[], n);
    }

    /// Bills, audits and meters one completed run (the shared core of the
    /// live and recovery paths). Journaling is the caller's job: a pump
    /// coalesces the receipts into one group commit, recovery replays must
    /// not re-journal at all.
    fn post_record_core(&mut self, record: &RunRecord) -> (AuditVerdict, InvoicePosting) {
        let freq = self.fleet.config().machine.frequency;
        let card = self
            .directory
            .get(record.job.tenant)
            .map(|t| t.rate_card)
            .unwrap_or(self.default_rate_card);
        let outcome = &record.outcome;
        let (billed_invoice, truth_invoice) = self.ledger.post_run(
            record.job.tenant,
            &card,
            freq,
            record.job.id,
            outcome.victim_billed,
            outcome.victim_truth,
            outcome.victim_process_aware,
        );
        let audit_started = self.tracer.as_ref().map(|_| std::time::Instant::now());
        let verdict = self.auditor.observe(record);
        if let (Some(tracer), Some(started)) = (&self.tracer, audit_started) {
            tracer.record(
                Stage::Audit,
                record.job.id,
                record.job.tenant,
                started.elapsed(),
            );
        }
        let sums = self.usage.entry(record.job.tenant).or_default();
        for (sum, secs) in sums.iter_mut().zip([
            outcome.billed_utime_secs(),
            outcome.billed_stime_secs(),
            outcome.truth_total_secs() - outcome.truth_stime_secs(),
            outcome.truth_stime_secs(),
        ]) {
            *sum += secs;
        }
        if !verdict.is_clean() {
            self.ledger.account_mut(record.job.tenant).flag();
        }
        let posting = InvoicePosting {
            tenant: record.job.tenant,
            job: record.job.id,
            billed: billed_invoice,
            truth: truth_invoice,
        };
        (verdict, posting)
    }

    /// The Prometheus-style text dump of both registries: the metering
    /// families first, then the ops families.
    pub fn metrics_text(&self) -> String {
        let mut text = self.metering().render();
        text.push_str(&self.metrics().render());
        text
    }

    /// The billing-grade metering registry: per-tenant CPU usage, jobs,
    /// anomalies, audit cost, tenants and charges. It is the only metrics
    /// state a [`Checkpoint`] carries, so it is bit-identical for a fixed
    /// seed whatever the worker count, batching, tracing, injected faults
    /// or recovery.
    ///
    /// The registry is built when it is read, so it always agrees with
    /// what it reports on: `fleet_jobs`, `fleet_tenants` and
    /// `tenant_charge` come from the ledger, `fleet_anomalies` and the
    /// `fleet_audit_*` counters from the auditor, and `cpu_usage` from the
    /// per-tenant usage sums posting keeps, added in posting order.
    pub fn metering(&self) -> MetricsRegistry {
        let mut metering = MetricsRegistry::new();
        metering.counter_add(
            "fleet_audit_replays_total",
            "Inline clean-reference replays the auditor performed",
            &[],
            self.auditor.replay_count() as f64,
        );
        metering.counter_add(
            "fleet_audit_reference_hits_total",
            "Runs audited with a worker-precomputed reference",
            &[],
            self.auditor.reference_hit_count() as f64,
        );
        metering.gauge_set(
            "fleet_tenants",
            "Tenants with at least one posted run",
            &[],
            self.ledger.len() as f64,
        );
        for account in self.ledger.iter() {
            let tenant = account.tenant.to_string();
            metering.counter_add(
                "fleet_jobs",
                "Jobs executed by the fleet",
                &[("tenant", &tenant)],
                account.runs as f64,
            );
            for (source, charge) in [
                ("billed", account.billed_charge),
                ("truth", account.truth_charge),
            ] {
                metering.gauge_set(
                    "tenant_charge",
                    "Cumulative charge per tenant, by source",
                    &[("tenant", &tenant), ("source", source)],
                    charge,
                );
            }
        }
        let (name, help) = CPU_USAGE;
        for (tenant, sums) in &self.usage {
            let tenant = tenant.to_string();
            for ((state, source), secs) in USAGE_SERIES.iter().zip(sums) {
                let labels = [
                    ("tenant", tenant.as_str()),
                    ("state", state),
                    ("source", source),
                ];
                metering.counter_add(name, help, &labels, *secs);
            }
        }
        for summary in self.auditor.summaries() {
            let tenant = summary.tenant.to_string();
            for kind in Anomaly::KINDS {
                let count = summary.anomaly_counts.get(kind).copied().unwrap_or(0);
                metering.counter_add(
                    "fleet_anomalies",
                    "Audit anomalies raised, by kind",
                    &[("tenant", &tenant), ("kind", kind)],
                    count as f64,
                );
            }
        }
        metering
    }

    /// The operational-telemetry registry: journal, evidence, recovery,
    /// stage-latency, observer, pipeline and supervision families, for
    /// quantile and counter queries (e.g.
    /// [`MetricsRegistry::histogram_quantile`] over the
    /// `fleet_stage_seconds` series). It describes this process and its
    /// timing, so checkpoints never carry it and recovery never restores
    /// it.
    ///
    /// The registry is built when it is read, so nothing mirrors a
    /// source: the journal and seal counters are the attached journal's
    /// [`JournalStats`], the `fleet_observer_*` counters the tracer's
    /// [`TracerStats`], and the stage histograms its cumulative
    /// [`PipelineTracer::observations`]. The pipeline families hold what
    /// finished or dropped stream sessions folded in. Reading changes
    /// nothing, so two reads with no work between them are equal.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut ops = self.ops.clone();
        let journal = self.journal.as_ref().map(Journal::stats);
        let tracer = self.tracer.as_ref().map(PipelineTracer::stats);
        for (name, help, feed) in OPS {
            let value = match (feed, &journal, &tracer) {
                (Feed::Journal(read), Some(stats), _) => read(stats),
                (Feed::Tracer(read), _, Some(stats)) => read(stats),
                _ => continue,
            };
            ops.counter_add(name, help, &[], value);
        }
        for observation in self.tracer.iter().flat_map(PipelineTracer::observations) {
            let stage = observation.stage.label();
            let tenant = observation.tenant.map(|tenant| tenant.to_string());
            let ((name, help), labels): (_, &[(&str, &str)]) = match &tenant {
                None => (STAGE_SECONDS, &[("stage", stage)]),
                Some(tenant) => (
                    STAGE_SECONDS_BY_TENANT,
                    &[("stage", stage), ("tenant", tenant)],
                ),
            };
            ops.histogram_add(
                name,
                help,
                &metrics::LATENCY_BUCKETS,
                labels,
                &observation.counts,
                observation.sum_secs,
                observation.count,
            );
        }
        ops
    }

    /// A snapshot of the service's accounting state — ledger, audit
    /// summaries and cost counters, and [`FleetService::metering`] read
    /// at the same moment, so the checkpoint's metering matches its own
    /// ledger and audit state — as a journal [`Checkpoint`] entry, so
    /// recovery does not replay from genesis. A [`CheckpointCadence`]
    /// writes them inline. The ops registry describes the process that
    /// wrote the checkpoint, so it stays out.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            runs: self.ledger.iter().map(|a| a.runs).sum(),
            ledger: self.ledger.clone(),
            audit: self.auditor.state(),
            metrics: self.metering(),
        }
    }

    /// Replays a journal into this service, rebuilding bit-identical
    /// ledger, audit-summary and metrics state — including after a crash
    /// that left `Run` entries without their receipts.
    ///
    /// The service must be *fresh* and configured like the journal's
    /// origin: same [`FleetConfig`] (seed, machine, sampling) and the same
    /// tenant registrations, exactly as a restarted process would
    /// construct it. Each `Run` entry is re-posted through the normal
    /// billing/audit path (precomputed references and quotes make this
    /// cheap and deterministic); journaled `Invoice`/`Verdict` receipts
    /// are cross-checked against the re-derived postings, so a journal
    /// edited after the fact is reported in
    /// [`RecoveryReport::mismatches`]. An attached journal is **not**
    /// written to during recovery.
    ///
    /// Recovery is **strict** about duplicated evidence: a job id that
    /// appears in more than one `Run` entry (or in a replayed entry *and*
    /// the applied checkpoint) is a hard
    /// [`RecoveryError::ChainViolation`], because on a chained journal a
    /// byte-identical duplicate can only be copy-pasted — a legitimate
    /// resubmission carries a fresh `prev` link and fresh receipts. Use
    /// [`FleetService::recover_lenient`] to replay such a journal anyway
    /// and inspect [`RecoveryReport::duplicate_runs`].
    ///
    /// # Errors
    /// [`RecoveryError`] if the entry sequence is not a valid write-ahead
    /// journal (a receipt without its run, a checkpoint after replayed
    /// runs, a duplicated run).
    pub fn recover(&mut self, entries: &[JournalEntry]) -> Result<RecoveryReport, RecoveryError> {
        let result = self.replay_with(entries, true);
        if matches!(result, Err(RecoveryError::ChainViolation(_))) {
            self.count("fleet_chain_violations_total", 1.0);
        }
        let report = result?;
        self.count("fleet_recoveries_total", 1.0);
        Ok(report)
    }

    /// [`FleetService::recover`] without the duplicate-evidence hard
    /// error: duplicated runs are replayed faithfully (the ledger posts
    /// again, exactly as the PR-5 recovery did) and every duplicate is
    /// surfaced in [`RecoveryReport::duplicate_runs`] for the operator to
    /// vet. For journals whose duplication is *known* to be legitimate
    /// job-id reuse across batches.
    ///
    /// # Errors
    /// [`RecoveryError`] as for [`FleetService::recover`], minus the
    /// duplicate check.
    pub fn recover_lenient(
        &mut self,
        entries: &[JournalEntry],
    ) -> Result<RecoveryReport, RecoveryError> {
        let report = self.replay_with(entries, false)?;
        self.count("fleet_recoveries_total", 1.0);
        Ok(report)
    }

    /// [`FleetService::recover`] from the **latest** checkpoint onward
    /// ([`journal::recovery_window`]): the entry point for journals a
    /// [`CheckpointCadence`] wrote inline checkpoints into. A retired
    /// segment directory already starts at its newest checkpoint, so for
    /// those this is equivalent to plain `recover`; for unretired
    /// journals it bounds replay cost to the entries after the last
    /// checkpoint instead of rejecting the mid-stream checkpoint.
    ///
    /// # Errors
    /// [`RecoveryError`] as for [`FleetService::recover`].
    pub fn recover_latest(
        &mut self,
        entries: &[JournalEntry],
    ) -> Result<RecoveryReport, RecoveryError> {
        self.recover(journal::recovery_window(entries))
    }

    /// Settles a billing dispute for `job` from **sealed evidence alone**
    /// — the paper's verifiable-metering endpoint. The service seals the
    /// journal head (so the newest entries are covered by a signed block
    /// header), asks the journal for the job's [`InclusionProof`]s, and
    /// verifies every one under the fleet seed's [`SealKey`]: no journal
    /// replay, no trust in the live in-memory ledger. The resolution pins
    /// the billed/truth invoices and the audit verdict to the exact
    /// chained lines that justify them; the proofs travel with it, so the
    /// disputing tenant can re-run [`InclusionProof::verify`] themselves.
    ///
    /// Increments `fleet_proofs_emitted_total` per emitted proof, and
    /// `fleet_chain_violations_total` if any proof fails to verify.
    ///
    /// # Errors
    /// [`DisputeError::NoJournal`] without an attached journal;
    /// [`DisputeError::NoEvidence`] if no sealed entry names the job;
    /// [`DisputeError::Journal`] / [`DisputeError::Proof`] if the
    /// evidence cannot be produced or does not verify.
    pub fn dispute(&mut self, job: JobId) -> Result<DisputeResolution, DisputeError> {
        let Some(journal) = &self.journal else {
            return Err(DisputeError::NoJournal);
        };
        journal.seal().map_err(DisputeError::Journal)?;
        let proofs = journal.prove(job).map_err(DisputeError::Journal)?;
        if proofs.is_empty() {
            return Err(DisputeError::NoEvidence(job));
        }
        let key = SealKey::from_seed(self.fleet.config().seed);
        let mut invoice = None;
        let mut verdict = None;
        let mut runs = 0u64;
        for proof in &proofs {
            match proof.verify(&key) {
                // Same-id resubmissions are legal; the newest sealed
                // receipts are the settled ones.
                Ok(JournalEntry::Invoice(posting)) => invoice = Some(posting),
                Ok(JournalEntry::Verdict(v)) => verdict = Some(v),
                Ok(JournalEntry::Run(_)) => runs += 1,
                // Sealed Accepted entries prove the submission was
                // durable, but carry no billing to settle.
                Ok(JournalEntry::Accepted(_)) => {}
                Ok(JournalEntry::Checkpoint(_)) => {}
                // A sealed poison verdict is the settled outcome for a
                // job the fleet retired: nothing billed, nothing owed.
                Ok(JournalEntry::Poisoned(_)) => {}
                Err(e) => {
                    self.count("fleet_chain_violations_total", 1.0);
                    return Err(DisputeError::Proof(e));
                }
            }
        }
        self.count("fleet_proofs_emitted_total", proofs.len() as f64);
        Ok(DisputeResolution {
            job,
            runs,
            invoice,
            verdict,
            proofs,
        })
    }

    fn replay_with(
        &mut self,
        entries: &[JournalEntry],
        strict: bool,
    ) -> Result<RecoveryReport, RecoveryError> {
        // Detach any journal for the duration: a replay must never append
        // to the log it is replaying.
        let journal = self.journal.take();
        let result = self.replay_inner(entries, strict);
        self.journal = journal;
        result
    }

    fn replay_inner(
        &mut self,
        entries: &[JournalEntry],
        strict: bool,
    ) -> Result<RecoveryReport, RecoveryError> {
        /// The receipts a replayed run expects to find journaled after
        /// it — its invoice, then its verdict — and which ones were found.
        struct Pending {
            receipts: [JournalEntry; 2],
            seen: [bool; 2],
        }
        // One FIFO queue of outstanding postings per job id, not a single
        // slot: two same-id runs released back-to-back (legal — e.g. both
        // completing within one pump window) journal Run,Run,…receipts…,
        // and their receipts pair with the runs in release order.
        let mut pending: std::collections::BTreeMap<JobId, std::collections::VecDeque<Pending>> =
            std::collections::BTreeMap::new();
        // Every job already posted (replayed here, or folded into an
        // applied checkpoint — the ledger's invoices carry the ids).
        // Job-id reuse across batches is legal at runtime, so a repeated
        // Run entry is replayed faithfully; it is also indistinguishable
        // from a copy-pasted (double-billing) entry, so every duplicate is
        // surfaced in the report for the operator to vet.
        let mut posted: std::collections::BTreeSet<JobId> = std::collections::BTreeSet::new();
        // Accepted-but-unreleased specs, in submission order: an
        // `Accepted` entry is retired by the `Run` entry that releases
        // the same job; whatever survives the replay was accepted and
        // never released — the restarted service resubmits exactly those
        // (see [`RecoveryReport::unreleased`]).
        let mut accepted_pending: Vec<JobSpec> = Vec::new();
        let mut report = RecoveryReport::default();
        for entry in entries {
            match entry {
                JournalEntry::Accepted(spec) => {
                    accepted_pending.push(spec.clone());
                    report.accepted += 1;
                }
                JournalEntry::Checkpoint(checkpoint) => {
                    if report.runs_replayed > 0 {
                        return Err(RecoveryError::MisplacedCheckpoint);
                    }
                    self.ledger = checkpoint.ledger.clone();
                    self.auditor.restore(checkpoint.audit.clone());
                    // Of the checkpoint's metering only the `cpu_usage`
                    // sums are read back: every other family follows from
                    // the ledger and audit state just restored.
                    let (name, _) = CPU_USAGE;
                    self.usage = self
                        .ledger
                        .iter()
                        .map(|account| {
                            let tenant = account.tenant.to_string();
                            let sums = USAGE_SERIES.map(|(state, source)| {
                                let labels = [
                                    ("tenant", tenant.as_str()),
                                    ("state", state),
                                    ("source", source),
                                ];
                                checkpoint.metrics.get(name, &labels).unwrap_or(0.0)
                            });
                            (account.tenant, sums)
                        })
                        .collect();
                    report.checkpoint_runs = checkpoint.runs;
                    posted = self
                        .ledger
                        .iter()
                        .flat_map(|account| account.invoices.iter().map(|(job, _, _)| *job))
                        .collect();
                }
                JournalEntry::Run(record) => {
                    // The release retires the oldest matching Accepted
                    // entry (same-id resubmissions pair in order).
                    if let Some(pos) = accepted_pending
                        .iter()
                        .position(|spec| spec.id == record.job.id)
                    {
                        accepted_pending.remove(pos);
                    }
                    if !posted.insert(record.job.id) {
                        if strict {
                            // On a chained journal a byte-identical repeat
                            // is duplicated evidence, not a resubmission.
                            return Err(RecoveryError::ChainViolation(record.job.id));
                        }
                        report.duplicate_runs.push(record.job.id);
                    }
                    let (verdict, invoice) = self.post_record_core(record);
                    pending
                        .entry(record.job.id)
                        .or_default()
                        .push_back(Pending {
                            receipts: [
                                JournalEntry::Invoice(invoice),
                                JournalEntry::Verdict(verdict),
                            ],
                            seen: [false; 2],
                        });
                    report.runs_replayed += 1;
                }
                JournalEntry::Invoice(_) | JournalEntry::Verdict(_) => {
                    // A receipt checks the oldest replayed run of its job
                    // that has not yet met a receipt of its kind.
                    let job = entry.job().expect("a receipt names its job");
                    let kind = usize::from(matches!(entry, JournalEntry::Verdict(_)));
                    let Some(queue) = pending.get_mut(&job) else {
                        return Err(RecoveryError::OrphanPosting(job));
                    };
                    let Some(pend) = queue.iter_mut().find(|p| !p.seen[kind]) else {
                        return Err(RecoveryError::OrphanPosting(job));
                    };
                    if pend.receipts[kind] == *entry {
                        report.postings_confirmed += 1;
                    } else {
                        report.mismatches.push(job);
                    }
                    pend.seen[kind] = true;
                    while queue.front().is_some_and(|p| p.seen == [true; 2]) {
                        queue.pop_front();
                    }
                    if queue.is_empty() {
                        pending.remove(&job);
                    }
                }
                JournalEntry::Poisoned(notice) => {
                    // A poison verdict resolves its job without posting:
                    // retire the oldest matching Accepted entry so the job
                    // is not reported as interrupted work to resubmit.
                    if let Some(pos) = accepted_pending
                        .iter()
                        .position(|spec| spec.id == notice.spec.id)
                    {
                        accepted_pending.remove(pos);
                    }
                    report.poisoned += 1;
                }
            }
        }
        report.unconfirmed = pending.values().map(|queue| queue.len() as u64).sum();
        report.unreleased = accepted_pending;
        // Cadence bookkeeping: everything after the last checkpoint was
        // replayed here, so that is how many runs the next inline
        // checkpoint is due after.
        self.runs_since_checkpoint = report.runs_replayed;
        Ok(report)
    }

    /// Folds a finished or dropped stream session's final ingest
    /// snapshot into the ops registry, once: its counters add to the
    /// earlier sessions', and its gauges replace theirs. The inflight
    /// gauge gets a series for every tenant with a ledger account, so the
    /// set of series does not depend on scheduling.
    fn fold_session(&mut self, stats: &IngestStats) {
        for (name, help, feed) in OPS {
            match feed {
                Feed::Ingest(read) => self.ops.counter_add(name, help, &[], read(stats)),
                Feed::IngestGauge(read) => self.ops.gauge_set(name, help, &[], read(stats)),
                _ => {}
            }
        }
        let (name, help) = INFLIGHT;
        let ledger = self.ledger.iter().map(|account| account.tenant);
        for tenant in ledger.chain(stats.inflight.keys().copied()) {
            let count = stats.inflight.get(&tenant).copied().unwrap_or(0);
            self.ops
                .gauge_set(name, help, &[("tenant", &tenant.to_string())], count as f64);
        }
        let (name, help) = POOL_BUFFERS;
        for (event, read) in POOL_EVENTS {
            self.ops
                .gauge_set(name, help, &[("event", event)], read(&stats.pool));
        }
    }
}

/// Why a [`FleetService::dispute`] could not be settled.
#[derive(Debug)]
pub enum DisputeError {
    /// The service has no attached journal, so there is no evidence.
    NoJournal,
    /// No sealed journal entry names the disputed job.
    NoEvidence(JobId),
    /// The journal could not produce the evidence (I/O, seal or chain
    /// trouble on the sink side).
    Journal(JournalError),
    /// An inclusion proof failed to verify — the evidence itself is bad.
    Proof(ProofError),
}

impl fmt::Display for DisputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoJournal => write!(f, "dispute requires an attached journal"),
            Self::NoEvidence(job) => {
                write!(f, "no sealed evidence names job {job}")
            }
            Self::Journal(e) => write!(f, "journal could not produce evidence: {e}"),
            Self::Proof(e) => write!(f, "evidence failed verification: {e}"),
        }
    }
}

impl std::error::Error for DisputeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Journal(e) => Some(e),
            Self::Proof(e) => Some(e),
            _ => None,
        }
    }
}

/// The settled outcome of a [`FleetService::dispute`]: the job's billed
/// invoice and audit verdict, each pinned to a verified [`InclusionProof`]
/// drawn from the sealed evidence ledger. Everything here was checked
/// against a signed block header — nothing was read from the live
/// in-memory ledger, and nothing required replaying the journal.
#[derive(Debug)]
pub struct DisputeResolution {
    /// The disputed job.
    pub job: JobId,
    /// Sealed `Run` entries naming the job (resubmissions count once each).
    pub runs: u64,
    /// The newest sealed invoice posting for the job, if any was sealed.
    pub invoice: Option<InvoicePosting>,
    /// The newest sealed audit verdict for the job, if any was sealed.
    pub verdict: Option<AuditVerdict>,
    /// The verified proofs themselves, for independent re-checking.
    pub proofs: Vec<InclusionProof>,
}

impl DisputeResolution {
    /// Billed-over-truth ratio from the sealed invoice — the paper's
    /// headline overcharge figure. `None` without a sealed invoice or
    /// with a zero-cost truth run.
    #[must_use]
    pub fn overcharge_ratio(&self) -> Option<f64> {
        let posting = self.invoice.as_ref()?;
        if posting.truth.total > 0.0 {
            Some(posting.billed.total / posting.truth.total)
        } else {
            None
        }
    }

    /// Whether the sealed audit verdict flagged the run as anomalous.
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.verdict.as_ref().is_some_and(|v| !v.is_clean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustmeter_workloads::Workload;

    #[test]
    fn service_bills_audits_and_meters_one_batch() {
        let mut service = FleetService::new(FleetConfig::new(2, 9));
        service.register(Tenant::new(
            TenantId(1),
            "acme",
            RateCard::per_cpu_second(0.01),
        ));
        let jobs = vec![
            JobSpec::clean(0, TenantId(1), Workload::LoopO, 0.001),
            JobSpec::attacked(1, TenantId(1), Workload::LoopO, 0.001, AttackSpec::Shell),
        ];
        let report = service.process(&jobs);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.verdicts.len(), 2);
        assert!(report.verdicts[0].is_clean());
        assert!(!report.verdicts[1].is_clean());
        assert_eq!(report.flagged().count(), 1);
        let account = report.ledger.account(TenantId(1)).unwrap();
        assert_eq!(account.runs, 2);
        assert_eq!(account.flagged_runs, 1);
        let text = service.metrics_text();
        assert!(text.contains("cpu_usage{"));
        assert!(text.contains("fleet_anomalies{"));
        assert!(text.contains("# TYPE fleet_jobs counter"));
    }

    #[test]
    fn unregistered_tenants_use_default_pricing() {
        let mut service = FleetService::new(FleetConfig::new(1, 5))
            .with_default_rate_card(RateCard::per_cpu_second(1.0));
        let jobs = vec![JobSpec::clean(0, TenantId(99), Workload::Pi, 0.001)];
        let report = service.process(&jobs);
        let account = report.ledger.account(TenantId(99)).unwrap();
        assert!(account.billed_charge > 0.0);
    }
}
