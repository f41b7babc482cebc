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
//! | [`ingest::FleetIngest`] | long-lived worker pool: bounded submission queue, backpressure, per-tenant fairness, sequence-numbered completion log |
//! | [`queue::FairQueue`] | the bounded per-tenant-fair queue under the pool |
//! | [`tenant::Ledger`] | aggregates per-run [`trustmeter_core::Invoice`]s and CPU time (billed vs TSC ground truth) into per-tenant accounts |
//! | [`auditor::Auditor`] | streams run records through the §VI trust workflow and raises per-tenant [`auditor::Anomaly`] verdicts |
//! | [`journal::Journal`] | append-only JSON-lines write-ahead log: runs, billing/audit receipts, checkpoints; crash recovery via [`FleetService::recover`] |
//! | [`metrics::MetricsRegistry`] | Prometheus-style text exposition of usage and anomaly counters |
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
pub use evidence::{BlockHeader, ChainDigest, InclusionProof, ProofError, ProofStep, SealKey};
pub use executor::{
    quote_nonce, AttackSpec, Fleet, FleetConfig, JobId, JobSpec, ReferenceOutcome, RunRecord,
};
pub use faults::{
    FaultInjectingSink, FaultKind, FaultProbe, FaultSchedule, FaultStats, PlannedFault,
    PlannedWorkerFault, RetryPolicy, SupervisorPolicy, WorkerFaultKind, WorkerFaultSchedule,
};
pub use ingest::{
    BackpressurePolicy, BatchSubmitError, FleetHealth, FleetIngest, IngestConfig, IngestHandle,
    IngestOutcome, IngestStats, JobVerdict, SubmitError,
};
pub use journal::{
    compact, excluded_metric_families, metering_exposition, parse_journal, recovery_window,
    strip_families, Checkpoint, CheckpointCadence, FsyncPolicy, InvoicePosting, Journal,
    JournalEntry, JournalError, JournalSink, JournalStats, LedgerVerification, MemorySink,
    PoisonNotice, RecoveryError, RecoveryReport, SegmentConfig, SegmentedFileSink, SinkStats,
    TailStatus, LIVE_PIPELINE_FAMILIES, SELF_ACCOUNTING_FAMILIES,
};
pub use metrics::{CounterCell, MetricKind, MetricsRegistry};
pub use pool::{BufferPool, PoolStats};
pub use queue::FairQueue;
pub use tenant::{Ledger, Tenant, TenantDirectory, TenantId, TenantLedger};
pub use trace::{span_id, PipelineTracer, Span, SpanWall, Stage, StageObservation, TracerStats};

// Re-exported so fleet callers can price tenants without importing core.
pub use trustmeter_core::RateCard;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

const AUDIT_REPLAYS_METRIC: &str = "fleet_audit_replays_total";
const AUDIT_REPLAYS_HELP: &str = "Inline clean-reference replays the auditor performed";
const AUDIT_REF_HITS_METRIC: &str = "fleet_audit_reference_hits_total";
const AUDIT_REF_HITS_HELP: &str = "Runs audited with a worker-precomputed reference";
const JOURNAL_APPENDS_METRIC: &str = "fleet_journal_appends_total";
const JOURNAL_APPENDS_HELP: &str = "Entries appended to the durability journal";
const JOURNAL_BYTES_METRIC: &str = "fleet_journal_bytes_total";
const JOURNAL_BYTES_HELP: &str = "Bytes appended to the durability journal (JSON lines)";
const JOURNAL_GROUP_COMMITS_METRIC: &str = "fleet_journal_group_commits_total";
const JOURNAL_GROUP_COMMITS_HELP: &str =
    "Batched journal commits (entry groups committed with one sink write)";
const JOURNAL_ROTATIONS_METRIC: &str = "fleet_journal_rotations_total";
const JOURNAL_ROTATIONS_HELP: &str = "Journal segment rotations";
const JOURNAL_FSYNCS_METRIC: &str = "fleet_journal_fsyncs_total";
const JOURNAL_FSYNCS_HELP: &str = "fsync calls issued by the journal sink";
const JOURNAL_RETIRED_METRIC: &str = "fleet_journal_segments_retired_total";
const JOURNAL_RETIRED_HELP: &str = "Journal segments retired as superseded by a checkpoint";
const JOURNAL_RETRIES_METRIC: &str = "fleet_journal_retries_total";
const JOURNAL_RETRIES_HELP: &str =
    "Failed journal commit attempts absorbed by the retry policy (transient I/O errors)";
const JOURNAL_FAILURES_METRIC: &str = "fleet_journal_failures_total";
const JOURNAL_FAILURES_HELP: &str =
    "Journal commits that exhausted the retry policy and quarantined the pipeline";
const QUARANTINED_METRIC: &str = "fleet_quarantined";
const QUARANTINED_HELP: &str =
    "Whether the ingest pipeline is quarantined after an unrecoverable journal failure (0/1)";
const LEDGER_SEALS_METRIC: &str = "fleet_ledger_seals_total";
const LEDGER_SEALS_HELP: &str = "Signed block headers sealed over rotated journal segments";
const PROOFS_EMITTED_METRIC: &str = "fleet_proofs_emitted_total";
const PROOFS_EMITTED_HELP: &str = "Inclusion proofs emitted by dispute resolution";
const CHAIN_VIOLATIONS_METRIC: &str = "fleet_chain_violations_total";
const CHAIN_VIOLATIONS_HELP: &str =
    "Evidence chain or seal violations detected during recovery or dispute";
const RECOVERIES_METRIC: &str = "fleet_recoveries_total";
const RECOVERIES_HELP: &str = "Journal recoveries performed by this service";
const STAGE_SECONDS_METRIC: &str = "fleet_stage_seconds";
const STAGE_SECONDS_HELP: &str = "Pipeline stage latency distribution, by stage";
const STAGE_SECONDS_BY_TENANT_METRIC: &str = "fleet_stage_seconds_by_tenant";
const STAGE_SECONDS_BY_TENANT_HELP: &str =
    "Pipeline stage latency distribution, by stage and tenant";
const OBSERVER_SPANS_METRIC: &str = "fleet_observer_spans_total";
const OBSERVER_SPANS_HELP: &str = "Spans recorded by the pipeline tracer";
const OBSERVER_DROPPED_METRIC: &str = "fleet_observer_spans_dropped_total";
const OBSERVER_DROPPED_HELP: &str = "Spans evicted from the tracer's full ring buffer";
const OBSERVER_OVERHEAD_METRIC: &str = "fleet_observer_overhead_seconds_total";
const OBSERVER_OVERHEAD_HELP: &str =
    "Time spent inside the observability layer itself (the cost of observing)";
const WORKER_RESTARTS_METRIC: &str = "fleet_worker_restarts_total";
const WORKER_RESTARTS_HELP: &str = "Workers respawned by the supervisor after a reap";
const JOBS_REASSIGNED_METRIC: &str = "fleet_jobs_reassigned_total";
const JOBS_REASSIGNED_HELP: &str =
    "Jobs reclaimed from dead, hung or lying workers and requeued for re-execution";
const POISON_JOBS_METRIC: &str = "fleet_poison_jobs_total";
const POISON_JOBS_HELP: &str = "Jobs retired as poison after killing the configured run of workers";
const WORKERS_LIVE_METRIC: &str = "fleet_workers_live";
const WORKERS_LIVE_HELP: &str = "Workers currently alive in the ingest pool";

/// Pre-registers the journal layer's self-accounting counters at zero
/// (existing values are kept — `counter_add` with a zero delta only
/// creates missing series), so the exposition is stable before the first
/// append and after a checkpoint restore strips them.
fn register_journal_metrics(metrics: &mut MetricsRegistry) {
    for (name, help) in [
        (JOURNAL_APPENDS_METRIC, JOURNAL_APPENDS_HELP),
        (JOURNAL_BYTES_METRIC, JOURNAL_BYTES_HELP),
        (JOURNAL_GROUP_COMMITS_METRIC, JOURNAL_GROUP_COMMITS_HELP),
        (JOURNAL_ROTATIONS_METRIC, JOURNAL_ROTATIONS_HELP),
        (JOURNAL_FSYNCS_METRIC, JOURNAL_FSYNCS_HELP),
        (JOURNAL_RETIRED_METRIC, JOURNAL_RETIRED_HELP),
        (JOURNAL_RETRIES_METRIC, JOURNAL_RETRIES_HELP),
        (JOURNAL_FAILURES_METRIC, JOURNAL_FAILURES_HELP),
        (LEDGER_SEALS_METRIC, LEDGER_SEALS_HELP),
        (PROOFS_EMITTED_METRIC, PROOFS_EMITTED_HELP),
        (CHAIN_VIOLATIONS_METRIC, CHAIN_VIOLATIONS_HELP),
        (RECOVERIES_METRIC, RECOVERIES_HELP),
    ] {
        metrics.counter_add(name, help, &[], 0.0);
    }
    // The quarantine flag is a gauge, pre-set healthy so "never
    // quarantined" and "series never existed" stay distinguishable.
    metrics.gauge_set(QUARANTINED_METRIC, QUARANTINED_HELP, &[], 0.0);
}

/// Pre-registers the observability families at zero: the per-stage
/// latency histograms (one zeroed series per [`Stage`]), the per-tenant
/// variant family (series appear as tenants send traffic), and the
/// tracer's self-accounting counters — so the exposition is stable with
/// tracing on or off, before any span is recorded, and after a
/// checkpoint restore strips them.
fn register_observability_metrics(metrics: &mut MetricsRegistry) {
    for stage in Stage::ALL {
        metrics.histogram_zero(
            STAGE_SECONDS_METRIC,
            STAGE_SECONDS_HELP,
            &metrics::LATENCY_BUCKETS,
            &[("stage", stage.label())],
        );
    }
    metrics.histogram_family(
        STAGE_SECONDS_BY_TENANT_METRIC,
        STAGE_SECONDS_BY_TENANT_HELP,
        &metrics::LATENCY_BUCKETS,
    );
    for (name, help) in [
        (OBSERVER_SPANS_METRIC, OBSERVER_SPANS_HELP),
        (OBSERVER_DROPPED_METRIC, OBSERVER_DROPPED_HELP),
        (OBSERVER_OVERHEAD_METRIC, OBSERVER_OVERHEAD_HELP),
    ] {
        metrics.counter_add(name, help, &[], 0.0);
    }
    register_supervision_metrics(metrics);
}

/// Pre-registers the worker-supervision families at zero: the restart,
/// reassignment and poison-job counters plus the live-worker gauge — so
/// a fleet that never loses a worker still exposes the families an
/// operator's alerts watch, and the exposition is stable after a
/// checkpoint restore strips them (they are [`LIVE_PIPELINE_FAMILIES`]).
fn register_supervision_metrics(metrics: &mut MetricsRegistry) {
    for (name, help) in [
        (WORKER_RESTARTS_METRIC, WORKER_RESTARTS_HELP),
        (JOBS_REASSIGNED_METRIC, JOBS_REASSIGNED_HELP),
        (POISON_JOBS_METRIC, POISON_JOBS_HELP),
    ] {
        metrics.counter_add(name, help, &[], 0.0);
    }
    metrics.gauge_set(WORKERS_LIVE_METRIC, WORKERS_LIVE_HELP, &[], 0.0);
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
    metrics: MetricsRegistry,
    /// Pricing applied to tenants that were never registered.
    default_rate_card: RateCard,
    /// The durability journal, when attached: runs, invoices and verdicts
    /// are appended write-ahead so the accounting state can be rebuilt
    /// with [`FleetService::recover`].
    journal: Option<Journal>,
    /// Journal counters already folded into the metrics exposition.
    journal_exported: JournalStats,
    /// The pipeline tracer, when attached (see
    /// [`FleetService::with_tracer`]): the service times its audit/post
    /// stages into it and drains its histogram cells into the
    /// `fleet_stage_seconds*` metrics.
    tracer: Option<PipelineTracer>,
    /// Tracer counters already folded into the metrics exposition.
    observer_exported: TracerStats,
    /// How often inline checkpoints are written (see
    /// [`FleetService::with_checkpoint_cadence`]).
    cadence: CheckpointCadence,
    /// Runs posted since the last inline checkpoint.
    runs_since_checkpoint: u64,
    /// Pre-resolved atomic counter handles for the per-record posting hot
    /// path (see [`MetricsRegistry::counter_cell`]). A process-local cache
    /// only — cleared whenever `metrics` is replaced wholesale (checkpoint
    /// restore), since handles are only meaningful on the registry that
    /// issued them.
    cells: ServiceCells,
}

/// Cached [`CounterCell`] handles for every counter the posting path
/// touches per record, resolved once instead of re-rendering label strings
/// and walking the registry maps on every job.
#[derive(Debug, Default)]
struct ServiceCells {
    /// (audit replays, reference cache hits).
    audit: Option<(CounterCell, CounterCell)>,
    tenants: BTreeMap<TenantId, TenantCells>,
}

#[derive(Debug, Clone, Copy)]
struct TenantCells {
    jobs: CounterCell,
    /// cpu_usage split: (user, billed), (system, billed), (user, truth),
    /// (system, truth) — the order [`FleetService::export_record`] posts.
    cpu: [CounterCell; 4],
    /// One per [`Anomaly::KINDS`] entry, in `KINDS` order.
    anomalies: [CounterCell; Anomaly::KINDS.len()],
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
        let mut metrics = MetricsRegistry::new();
        // Pre-register the audit cost counters at zero so the exposition
        // shows the replay cost even before (or without) any audits.
        metrics.counter_add(AUDIT_REPLAYS_METRIC, AUDIT_REPLAYS_HELP, &[], 0.0);
        metrics.counter_add(AUDIT_REF_HITS_METRIC, AUDIT_REF_HITS_HELP, &[], 0.0);
        // Likewise the journal/recovery series, so the exposition is
        // stable before the first append or recovery.
        register_journal_metrics(&mut metrics);
        // And the stage-latency histograms and observer self-accounting
        // counters, so tracing on/off never changes which series exist.
        register_observability_metrics(&mut metrics);
        FleetService {
            fleet: Fleet::new(config),
            directory: TenantDirectory::new(),
            auditor,
            ledger: Ledger::new(),
            metrics,
            default_rate_card: RateCard::per_cpu_hour(0.10),
            journal: None,
            journal_exported: JournalStats::default(),
            tracer: None,
            observer_exported: TracerStats::default(),
            cadence: CheckpointCadence::Never,
            runs_since_checkpoint: 0,
            cells: ServiceCells::default(),
        }
    }

    /// Attaches a [`PipelineTracer`]: the executor records execution
    /// spans, streaming sessions record queue-wait and journal-commit
    /// spans, and the service itself records audit and post spans — all
    /// drained into the `fleet_stage_seconds*` histograms and the
    /// `fleet_observer_*` self-accounting counters at each export point.
    /// Pure observation: every billing, audit and metering-exposition
    /// artifact stays bit-identical with tracing on or off.
    pub fn with_tracer(mut self, tracer: PipelineTracer) -> FleetService {
        self.observer_exported = tracer.stats();
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
    /// [`journal`] module docs). Counters already in the journal handle
    /// are not re-exported — the `fleet_journal_*` series count appends
    /// since attachment.
    pub fn with_journal(mut self, journal: Journal) -> FleetService {
        self.journal_exported = journal.stats();
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
    /// posted — so recovery cost stays bounded without an offline
    /// [`journal::compact`] pass. On a segmented journal each checkpoint
    /// starts a fresh segment and retires the segments it supersedes; on
    /// other sinks, recover with [`FleetService::recover_latest`], which
    /// seeks to the newest checkpoint first.
    pub fn with_checkpoint_cadence(mut self, cadence: CheckpointCadence) -> FleetService {
        self.cadence = cadence;
        self
    }

    /// Replaces the auditor (e.g. to widen its tolerance). If the new
    /// auditor's sampling policy differs from the fleet's, records the
    /// workers did not precompute a reference for fall back to inline
    /// replays (correct, just slower).
    pub fn with_auditor(mut self, auditor: Auditor) -> FleetService {
        self.auditor = auditor;
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

    /// Opens a streaming session: a live [`FleetIngest`] worker pool whose
    /// completed records flow into this service's ledger, auditor and
    /// metrics in submission order. See [`FleetStream`].
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
        let ingest = FleetIngest::new(self.fleet.clone(), config, self.journal.clone());
        FleetStream {
            service: self,
            ingest,
            records: Vec::new(),
            verdicts: Vec::new(),
            inflight_exported: Vec::new(),
            rejected_exported: 0,
            retries_exported: 0,
            failures_exported: 0,
            supervision_exported: (0, 0, 0),
        }
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
            if let Some(receipts) = &mut receipts {
                receipts.push(JournalEntry::Invoice(posting));
                receipts.push(JournalEntry::Verdict(verdict.clone()));
            }
            records.push(record);
            verdicts.push(verdict);
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
                self.metrics
                    .counter_add(JOURNAL_FAILURES_METRIC, JOURNAL_FAILURES_HELP, &[], 1.0);
            }
            if let (Some(tracer), Some(started), Some((job, tenant))) =
                (&self.tracer, commit_started, first_posted)
            {
                // One group commit covers every receipt of the pump;
                // attribute the span to the first posted record.
                tracer.record_aggregate(Stage::JournalCommit, job, tenant, started.elapsed());
            }
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
            Err(_) => {
                self.metrics
                    .counter_add(JOURNAL_FAILURES_METRIC, JOURNAL_FAILURES_HELP, &[], 1.0);
            }
        }
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
        let replays_before = self.auditor.replay_count();
        let hits_before = self.auditor.reference_hit_count();
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
        let (replay_cell, hit_cell) = match self.cells.audit {
            Some(cells) => cells,
            None => {
                let cells = (
                    self.metrics
                        .counter_cell(AUDIT_REPLAYS_METRIC, AUDIT_REPLAYS_HELP, &[]),
                    self.metrics
                        .counter_cell(AUDIT_REF_HITS_METRIC, AUDIT_REF_HITS_HELP, &[]),
                );
                self.cells.audit = Some(cells);
                cells
            }
        };
        self.metrics.cell_add(
            replay_cell,
            (self.auditor.replay_count() - replays_before) as f64,
        );
        self.metrics.cell_add(
            hit_cell,
            (self.auditor.reference_hit_count() - hits_before) as f64,
        );
        if !verdict.is_clean() {
            self.ledger.account_mut(record.job.tenant).flag();
        }
        self.export_record(record, &verdict);
        let posting = InvoicePosting {
            tenant: record.job.tenant,
            job: record.job.id,
            billed: billed_invoice,
            truth: truth_invoice,
        };
        (verdict, posting)
    }

    /// Resolves (once per tenant) the cached cell handles for every counter
    /// the posting path touches. Resolution also pre-registers each anomaly
    /// kind's series at zero, so the exposition distinguishes "zero
    /// anomalies" from "series never existed" exactly as the locked path
    /// did when it posted explicit zero deltas per record.
    fn tenant_cells(&mut self, tenant: TenantId) -> TenantCells {
        if let Some(cells) = self.cells.tenants.get(&tenant) {
            return *cells;
        }
        let label = tenant.to_string();
        let jobs = self.metrics.counter_cell(
            "fleet_jobs",
            "Jobs executed by the fleet",
            &[("tenant", &label)],
        );
        let usage_help = "CPU seconds attributed to tenant jobs";
        let cpu = [
            ("user", "billed"),
            ("system", "billed"),
            ("user", "truth"),
            ("system", "truth"),
        ]
        .map(|(state, source)| {
            self.metrics.counter_cell(
                "cpu_usage",
                usage_help,
                &[("tenant", &label), ("state", state), ("source", source)],
            )
        });
        let anomaly_help = "Audit anomalies raised, by kind";
        let anomalies = Anomaly::KINDS.map(|kind| {
            self.metrics.counter_cell(
                "fleet_anomalies",
                anomaly_help,
                &[("tenant", &label), ("kind", kind)],
            )
        });
        let cells = TenantCells {
            jobs,
            cpu,
            anomalies,
        };
        self.cells.tenants.insert(tenant, cells);
        cells
    }

    fn export_record(&mut self, record: &RunRecord, verdict: &AuditVerdict) {
        let outcome = &record.outcome;
        let cells = self.tenant_cells(record.job.tenant);
        self.metrics.cell_add(cells.jobs, 1.0);
        for (cell, secs) in cells.cpu.iter().zip([
            outcome.billed_utime_secs(),
            outcome.billed_stime_secs(),
            outcome.truth_total_secs() - outcome.truth_stime_secs(),
            outcome.truth_stime_secs(),
        ]) {
            self.metrics.cell_add(*cell, secs);
        }
        for anomaly in &verdict.anomalies {
            let slot = Anomaly::KINDS
                .iter()
                .position(|kind| *kind == anomaly.kind())
                .expect("anomaly kind listed in Anomaly::KINDS");
            self.metrics.cell_add(cells.anomalies[slot], 1.0);
        }
    }

    fn export_gauges(&mut self) {
        self.metrics.gauge_set(
            "fleet_tenants",
            "Tenants with at least one posted run",
            &[],
            self.ledger.len() as f64,
        );
        let ledgers: Vec<(String, f64, f64)> = self
            .ledger
            .iter()
            .map(|a| (a.tenant.to_string(), a.billed_charge, a.truth_charge))
            .collect();
        for (tenant, billed, truth) in ledgers {
            self.metrics.gauge_set(
                "tenant_charge",
                "Cumulative charge per tenant, by source",
                &[("tenant", &tenant), ("source", "billed")],
                billed,
            );
            self.metrics.gauge_set(
                "tenant_charge",
                "Cumulative charge per tenant, by source",
                &[("tenant", &tenant), ("source", "truth")],
                truth,
            );
        }
    }

    /// The Prometheus-style text dump of every metric.
    pub fn metrics_text(&self) -> String {
        self.metrics.render()
    }

    /// The metrics registry itself, for quantile and counter queries
    /// (e.g. [`MetricsRegistry::histogram_quantile`] over the
    /// `fleet_stage_seconds` series).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Drains the tracer's aggregated histogram cells into the
    /// `fleet_stage_seconds*` metrics and folds its span/overhead
    /// counters into the exposition (delta since the last export). A
    /// no-op without a tracer — the zero-registered families stay zero,
    /// so tracing on/off never changes which series exist.
    fn export_observer_metrics(&mut self) {
        let Some(tracer) = &self.tracer else { return };
        for observation in tracer.take_observations() {
            let stage = observation.stage.label();
            match observation.tenant {
                None => self.metrics.histogram_add(
                    STAGE_SECONDS_METRIC,
                    STAGE_SECONDS_HELP,
                    &metrics::LATENCY_BUCKETS,
                    &[("stage", stage)],
                    &observation.counts,
                    observation.sum_secs,
                    observation.count,
                ),
                Some(tenant) => self.metrics.histogram_add(
                    STAGE_SECONDS_BY_TENANT_METRIC,
                    STAGE_SECONDS_BY_TENANT_HELP,
                    &metrics::LATENCY_BUCKETS,
                    &[("stage", stage), ("tenant", &tenant.to_string())],
                    &observation.counts,
                    observation.sum_secs,
                    observation.count,
                ),
            }
        }
        let stats = tracer.stats();
        let exported = self.observer_exported;
        for (name, help, now, before) in [
            (
                OBSERVER_SPANS_METRIC,
                OBSERVER_SPANS_HELP,
                stats.spans_recorded,
                exported.spans_recorded,
            ),
            (
                OBSERVER_DROPPED_METRIC,
                OBSERVER_DROPPED_HELP,
                stats.spans_dropped,
                exported.spans_dropped,
            ),
        ] {
            self.metrics
                .counter_add(name, help, &[], now.saturating_sub(before) as f64);
        }
        self.metrics.counter_add(
            OBSERVER_OVERHEAD_METRIC,
            OBSERVER_OVERHEAD_HELP,
            &[],
            stats.overhead_nanos.saturating_sub(exported.overhead_nanos) as f64 / 1e9,
        );
        self.observer_exported = stats;
    }

    /// A snapshot of the service's accounting state — ledger, audit
    /// summaries and cost counters, metering metrics — as a journal
    /// [`Checkpoint`] entry. [`journal::compact`] folds a journal prefix
    /// into one of these so recovery does not replay from genesis, and a
    /// [`CheckpointCadence`] writes them inline.
    ///
    /// The metrics snapshot carries the *metering* families only: the
    /// journal's self-accounting counters and the live ingest
    /// gauges/counters ([`SELF_ACCOUNTING_FAMILIES`],
    /// [`LIVE_PIPELINE_FAMILIES`]) describe the process that wrote the
    /// checkpoint — a restarted process starts both at zero, and the
    /// live-pipeline series are timing-dependent, which would poison the
    /// bit-identical recovery contract.
    pub fn checkpoint(&self) -> Checkpoint {
        let excluded: Vec<&str> = SELF_ACCOUNTING_FAMILIES
            .iter()
            .chain(LIVE_PIPELINE_FAMILIES.iter())
            .copied()
            .collect();
        Checkpoint {
            runs: self.ledger.iter().map(|a| a.runs).sum(),
            ledger: self.ledger.clone(),
            audit: self.auditor.state(),
            metrics: self.metrics.without_families(&excluded),
        }
    }

    /// Replays a journal into this service, rebuilding bit-identical
    /// ledger, audit-summary and metrics state — including after a crash
    /// that left `Run` entries without their receipts, and after
    /// [`journal::compact`]ion.
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
            self.metrics
                .counter_add(CHAIN_VIOLATIONS_METRIC, CHAIN_VIOLATIONS_HELP, &[], 1.0);
        }
        let report = result?;
        self.metrics
            .counter_add(RECOVERIES_METRIC, RECOVERIES_HELP, &[], 1.0);
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
        self.metrics
            .counter_add(RECOVERIES_METRIC, RECOVERIES_HELP, &[], 1.0);
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
                    self.metrics.counter_add(
                        CHAIN_VIOLATIONS_METRIC,
                        CHAIN_VIOLATIONS_HELP,
                        &[],
                        1.0,
                    );
                    return Err(DisputeError::Proof(e));
                }
            }
        }
        self.metrics.counter_add(
            PROOFS_EMITTED_METRIC,
            PROOFS_EMITTED_HELP,
            &[],
            proofs.len() as f64,
        );
        // Sealing the head may have rotated a segment; fold the new seal
        // count into the exposition.
        self.export_journal_metrics();
        Ok(DisputeResolution {
            job,
            runs,
            invoice,
            verdict,
            proofs,
        })
    }

    /// The replay core of [`FleetService::recover`], without counting a
    /// recovery — [`journal::compact`] uses it to fold a prefix into a
    /// checkpoint. Lenient about duplicates: compaction must be able to
    /// fold whatever recovery (strict or lenient) would replay.
    pub(crate) fn replay(
        &mut self,
        entries: &[JournalEntry],
    ) -> Result<RecoveryReport, RecoveryError> {
        self.replay_with(entries, false)
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
        struct Pending {
            invoice: InvoicePosting,
            verdict: AuditVerdict,
            invoice_seen: bool,
            verdict_seen: bool,
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
                    self.metrics = checkpoint.metrics.clone();
                    // The replaced registry invalidates every cached cell
                    // handle; the posting path re-resolves on next use.
                    self.cells = ServiceCells::default();
                    // Checkpoints exclude the self-accounting and
                    // observability families (they described the dead
                    // process); re-register them at zero so the
                    // exposition stays stable.
                    register_journal_metrics(&mut self.metrics);
                    register_observability_metrics(&mut self.metrics);
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
                            invoice,
                            verdict,
                            invoice_seen: false,
                            verdict_seen: false,
                        });
                    report.runs_replayed += 1;
                }
                JournalEntry::Invoice(posting) => {
                    let Some(queue) = pending.get_mut(&posting.job) else {
                        return Err(RecoveryError::OrphanPosting(posting.job));
                    };
                    let Some(pend) = queue.iter_mut().find(|p| !p.invoice_seen) else {
                        return Err(RecoveryError::OrphanPosting(posting.job));
                    };
                    if pend.invoice == *posting {
                        report.postings_confirmed += 1;
                    } else {
                        report.mismatches.push(posting.job);
                    }
                    pend.invoice_seen = true;
                    while queue
                        .front()
                        .is_some_and(|p| p.invoice_seen && p.verdict_seen)
                    {
                        queue.pop_front();
                    }
                    if queue.is_empty() {
                        pending.remove(&posting.job);
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
                JournalEntry::Verdict(verdict) => {
                    let Some(queue) = pending.get_mut(&verdict.job) else {
                        return Err(RecoveryError::OrphanPosting(verdict.job));
                    };
                    let Some(pend) = queue.iter_mut().find(|p| !p.verdict_seen) else {
                        return Err(RecoveryError::OrphanPosting(verdict.job));
                    };
                    if pend.verdict == *verdict {
                        report.postings_confirmed += 1;
                    } else {
                        report.mismatches.push(verdict.job);
                    }
                    pend.verdict_seen = true;
                    while queue
                        .front()
                        .is_some_and(|p| p.invoice_seen && p.verdict_seen)
                    {
                        queue.pop_front();
                    }
                    if queue.is_empty() {
                        pending.remove(&verdict.job);
                    }
                }
            }
        }
        report.unconfirmed = pending.values().map(|queue| queue.len() as u64).sum();
        report.unreleased = accepted_pending;
        // Cadence bookkeeping: everything after the last checkpoint was
        // replayed here, so that is how many runs the next inline
        // checkpoint is due after.
        self.runs_since_checkpoint = report.runs_replayed;
        self.export_gauges();
        Ok(report)
    }

    /// Folds the attached journal's append/byte/commit/rotation/fsync
    /// counters into the metrics exposition (delta since the last
    /// export).
    fn export_journal_metrics(&mut self) {
        let Some(journal) = &self.journal else { return };
        let stats = journal.stats();
        let exported = self.journal_exported;
        for (name, help, now, before) in [
            (
                JOURNAL_APPENDS_METRIC,
                JOURNAL_APPENDS_HELP,
                stats.appends,
                exported.appends,
            ),
            (
                JOURNAL_BYTES_METRIC,
                JOURNAL_BYTES_HELP,
                stats.bytes,
                exported.bytes,
            ),
            (
                JOURNAL_GROUP_COMMITS_METRIC,
                JOURNAL_GROUP_COMMITS_HELP,
                stats.group_commits,
                exported.group_commits,
            ),
            (
                JOURNAL_ROTATIONS_METRIC,
                JOURNAL_ROTATIONS_HELP,
                stats.rotations,
                exported.rotations,
            ),
            (
                JOURNAL_FSYNCS_METRIC,
                JOURNAL_FSYNCS_HELP,
                stats.fsyncs,
                exported.fsyncs,
            ),
            (
                JOURNAL_RETIRED_METRIC,
                JOURNAL_RETIRED_HELP,
                stats.segments_retired,
                exported.segments_retired,
            ),
            (
                LEDGER_SEALS_METRIC,
                LEDGER_SEALS_HELP,
                stats.seals,
                exported.seals,
            ),
        ] {
            self.metrics
                .counter_add(name, help, &[], now.saturating_sub(before) as f64);
        }
        self.journal_exported = stats;
    }

    /// Exports the live ingest gauges and the rejected-submissions counter
    /// delta (shared by mid-stream pumps and the final drain). `stale`
    /// lists tenants whose inflight series were previously exported and
    /// must be zeroed if absent from the current snapshot (gauge series
    /// persist once created).
    fn export_ingest_metrics(
        &mut self,
        stats: &IngestStats,
        stale: &[TenantId],
        rejected_delta: u64,
        retries_delta: u64,
        failures_delta: u64,
        supervision_deltas: (u64, u64, u64),
    ) {
        let (restarts_delta, reassigned_delta, poisoned_delta) = supervision_deltas;
        self.metrics.gauge_set(
            "fleet_queue_depth",
            "Jobs queued and not yet dispatched to a worker",
            &[],
            stats.queued as f64,
        );
        let inflight_help = "Jobs currently executing, per tenant";
        for tenant in stale {
            if !stats.inflight.contains_key(tenant) {
                self.metrics.gauge_set(
                    "fleet_inflight",
                    inflight_help,
                    &[("tenant", &tenant.to_string())],
                    0.0,
                );
            }
        }
        for (tenant, count) in &stats.inflight {
            self.metrics.gauge_set(
                "fleet_inflight",
                inflight_help,
                &[("tenant", &tenant.to_string())],
                *count as f64,
            );
        }
        self.metrics.counter_add(
            "fleet_submissions_rejected",
            "Submissions rejected because the queue was full",
            &[],
            rejected_delta as f64,
        );
        self.metrics.gauge_set(
            QUARANTINED_METRIC,
            QUARANTINED_HELP,
            &[],
            if stats.quarantined { 1.0 } else { 0.0 },
        );
        self.metrics.counter_add(
            JOURNAL_RETRIES_METRIC,
            JOURNAL_RETRIES_HELP,
            &[],
            retries_delta as f64,
        );
        self.metrics.counter_add(
            JOURNAL_FAILURES_METRIC,
            JOURNAL_FAILURES_HELP,
            &[],
            failures_delta as f64,
        );
        self.metrics.counter_add(
            WORKER_RESTARTS_METRIC,
            WORKER_RESTARTS_HELP,
            &[],
            restarts_delta as f64,
        );
        self.metrics.counter_add(
            JOBS_REASSIGNED_METRIC,
            JOBS_REASSIGNED_HELP,
            &[],
            reassigned_delta as f64,
        );
        self.metrics.counter_add(
            POISON_JOBS_METRIC,
            POISON_JOBS_HELP,
            &[],
            poisoned_delta as f64,
        );
        self.metrics.gauge_set(
            WORKERS_LIVE_METRIC,
            WORKERS_LIVE_HELP,
            &[],
            stats.workers as f64,
        );
        let pool_help = "Release-path record buffer pool, by event \
                         (idle_capacity counts elements, the rest buffers)";
        for (event, value) in [
            ("acquired", stats.pool.acquired),
            ("reused", stats.pool.reused),
            ("returned", stats.pool.returned),
            ("idle", stats.pool.idle),
            ("idle_capacity", stats.pool.idle_capacity),
        ] {
            self.metrics.gauge_set(
                "fleet_pool_buffers",
                pool_help,
                &[("event", event)],
                value as f64,
            );
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

/// A live streaming session over a [`FleetService`].
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
#[derive(Debug)]
pub struct FleetStream<'a> {
    service: &'a mut FleetService,
    ingest: FleetIngest,
    records: Vec<RunRecord>,
    verdicts: Vec<AuditVerdict>,
    /// Tenants whose `fleet_inflight` gauge has been exported; their series
    /// must be re-zeroed when they leave the inflight snapshot.
    inflight_exported: Vec<TenantId>,
    /// Rejected-submission count already added to the metrics counter.
    rejected_exported: u64,
    /// Journal retry count already added to the metrics counter.
    retries_exported: u64,
    /// Journal failure count already added to the metrics counter.
    failures_exported: u64,
    /// Supervision counters (worker restarts, reassigned jobs, poison
    /// jobs) already added to the metrics counters.
    supervision_exported: (u64, u64, u64),
}

impl FleetStream<'_> {
    /// Submits one job; returns its submission sequence number.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under [`BackpressurePolicy::Reject`] with
    /// a full queue; [`SubmitError::ShutDown`] once the session is
    /// finishing.
    pub fn submit(&self, job: JobSpec) -> Result<u64, SubmitError> {
        self.ingest.submit(job)
    }

    /// Submits a batch of jobs through the batched hot path (one submit
    /// guard hold, one grouped `Accepted` journal commit, one state-lock
    /// hold and one worker wake per admitted slice). The resulting report,
    /// ledger, journal bytes and metering exposition are bit-identical to
    /// submitting the same jobs one at a time.
    ///
    /// # Errors
    /// [`BatchSubmitError`] carrying the accepted prefix (those jobs are in
    /// the pipeline and will run) and the [`SubmitError`] that stopped the
    /// rest.
    pub fn submit_all(&self, jobs: &[JobSpec]) -> Result<Vec<u64>, BatchSubmitError> {
        self.ingest.submit_all(jobs)
    }

    /// Resizes the session's worker pool (clamped to at least one worker).
    /// Growing spawns immediately; shrinking retires surplus workers at
    /// their next dispatch boundary. Reports stay bit-identical across any
    /// scaling schedule — worker count never affects release order.
    pub fn scale_workers(&mut self, workers: usize) {
        self.ingest.scale_to(workers);
    }

    /// Sets a tenant's fairness weight (deficit round robin): how many jobs
    /// its lane may release per rotation turn. Weight 1 is the default
    /// round-robin share.
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        self.ingest.set_tenant_weight(tenant, weight);
    }

    /// A cloneable handle for submitting jobs from other threads while this
    /// session pumps completions.
    pub fn handle(&self) -> IngestHandle {
        self.ingest.handle()
    }

    /// A snapshot of the pipeline counters and gauges.
    pub fn stats(&self) -> IngestStats {
        self.ingest.stats()
    }

    /// Pauses dispatch (running jobs finish; queued jobs wait).
    pub fn pause(&self) {
        self.ingest.pause()
    }

    /// Resumes dispatch after [`FleetStream::pause`].
    pub fn resume(&self) {
        self.ingest.resume()
    }

    /// Durability health: quarantine flag, retry/failure counters, the
    /// stalled-record backlog and the last journal error. The session
    /// keeps executing while quarantined — only the billing boundary
    /// (release → post) is closed — so poll this to decide when a
    /// [`FleetStream::resume_with_sink`] failover is needed.
    pub fn health(&self) -> FleetHealth {
        self.ingest.health()
    }

    /// Fails the journal over to a **fresh** sink and lifts the
    /// quarantine, then pumps the drained backlog into the service.
    ///
    /// The service-level failover writes a leading [`Checkpoint`] of the
    /// current accounting state into the new sink before anything else:
    /// a checkpoint is the one entry [`parse_journal`] allows to adopt a
    /// foreign chain anchor, so the new sink replays **standalone** with
    /// [`FleetService::recover_latest`] — no splicing with the dead
    /// sink's lines required. After the checkpoint, the pending
    /// accepted-but-unreleased specs are re-journaled (the new sink is
    /// self-contained for submission-side recovery too), the stalled
    /// ready prefix is drained and posted, and normal operation resumes.
    ///
    /// # Errors
    /// [`JournalError`] if the session has no journal or the replacement
    /// sink fails while writing the leading checkpoint or the accepted
    /// backlog — the pipeline then *stays* quarantined.
    pub fn resume_with_sink(&mut self, sink: Box<dyn JournalSink>) -> Result<(), JournalError> {
        let Some(journal) = &self.service.journal else {
            return Err(JournalError::Io(
                "stream session has no journal to fail over".to_string(),
            ));
        };
        journal.fail_over(sink);
        journal.append_batch(&[JournalEntry::checkpoint(self.service.checkpoint())])?;
        self.service.runs_since_checkpoint = 0;
        self.ingest.resume_after_failover()?;
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
    /// entry when released; nothing was billed for it.
    pub fn poisoned(&self) -> Vec<PoisonNotice> {
        self.ingest.poisoned()
    }

    /// The dispatch order so far — which job each worker popped, in pop
    /// order. With a multi-tenant backlog, consecutive entries round-robin
    /// across tenants (the observable fairness record).
    pub fn dispatch_log(&self) -> Vec<(JobId, TenantId)> {
        self.ingest.dispatch_log()
    }

    /// Posts every completed record that extends the contiguous submission-
    /// order prefix to the service (ledger → auditor → metrics), updates the
    /// ingest gauges, and returns how many records were posted.
    ///
    /// With a journal attached, the pump's billing/audit receipts are
    /// coalesced into **one** group commit after the posting loop (the
    /// `Run` entries were already committed as a batch when `take_ready`
    /// released the records), and the end of the pump is a checkpoint
    /// safe point: every journaled run is posted, so an inline
    /// [`Checkpoint`] written here folds the whole journal so far.
    pub fn pump(&mut self) -> usize {
        let mut ready = self.ingest.take_ready();
        let posted = self
            .service
            .post_ready(&mut ready, &mut self.records, &mut self.verdicts);
        // Hand the emptied batch container back for the next release.
        self.ingest.recycle(ready);
        let stats = self.ingest.stats();
        self.export_stream_metrics(&stats);
        posted
    }

    fn export_stream_metrics(&mut self, stats: &IngestStats) {
        let delta = stats.rejected - self.rejected_exported;
        let retries_delta = stats.retries - self.retries_exported;
        let failures_delta = stats.journal_failures - self.failures_exported;
        let supervision_deltas = (
            stats.worker_restarts - self.supervision_exported.0,
            stats.reassigned - self.supervision_exported.1,
            stats.poisoned - self.supervision_exported.2,
        );
        self.service.export_ingest_metrics(
            stats,
            &self.inflight_exported,
            delta,
            retries_delta,
            failures_delta,
            supervision_deltas,
        );
        self.service.export_journal_metrics();
        self.service.export_observer_metrics();
        self.rejected_exported = stats.rejected;
        self.retries_exported = stats.retries;
        self.failures_exported = stats.journal_failures;
        self.supervision_exported = (stats.worker_restarts, stats.reassigned, stats.poisoned);
        for tenant in stats.inflight.keys() {
            if !self.inflight_exported.contains(tenant) {
                self.inflight_exported.push(*tenant);
            }
        }
    }

    /// Drains the pipeline (graceful shutdown: every accepted job still
    /// runs), posts the remaining records, and returns the cumulative
    /// report — bit-identical to [`FleetService::process`] over the same
    /// jobs for any worker count.
    pub fn finish(self) -> FleetReport {
        self.drain().0
    }

    /// [`FleetStream::finish`], also returning the drained pipeline's
    /// final [`FleetHealth`].
    fn drain(mut self) -> (FleetReport, FleetHealth) {
        self.pump();
        let FleetStream {
            service,
            ingest,
            mut records,
            mut verdicts,
            mut inflight_exported,
            rejected_exported,
            retries_exported,
            failures_exported,
            supervision_exported,
        } = self;
        let mut outcome = ingest.finish();
        service.post_ready(&mut outcome.records, &mut records, &mut verdicts);
        // Final gauges are deterministic: the queue is empty, nothing is
        // inflight, and every tenant that was ever inflight now has a
        // ledger account — so zero the inflight series for all of them.
        for account in service.ledger.iter() {
            if !inflight_exported.contains(&account.tenant) {
                inflight_exported.push(account.tenant);
            }
        }
        service.export_ingest_metrics(
            &outcome.stats,
            &inflight_exported,
            outcome.stats.rejected - rejected_exported,
            outcome.stats.retries - retries_exported,
            outcome.stats.journal_failures - failures_exported,
            (
                outcome.stats.worker_restarts - supervision_exported.0,
                outcome.stats.reassigned - supervision_exported.1,
                outcome.stats.poisoned - supervision_exported.2,
            ),
        );
        service.export_journal_metrics();
        service.export_observer_metrics();
        service.export_gauges();
        let report = FleetReport {
            records,
            verdicts,
            ledger: service.ledger.clone(),
        };
        (report, outcome.health)
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
