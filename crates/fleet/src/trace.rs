//! Pipeline span tracing: who waited where, and what observing cost.
//!
//! The paper asks whether a meter's reports can be trusted; this module
//! turns that question on the fleet itself. A [`PipelineTracer`] rides
//! along the pipeline and records one [`Span`] per stage boundary a job
//! crosses — queue wait, worker execution, audit verdict, journal group
//! commit, release→post — into a bounded ring buffer, while aggregating
//! every observation into log-bucketed histogram cells the service reads
//! into its `fleet_stage_seconds*` metrics.
//!
//! ## Determinism contract
//!
//! Tracing is *observation*, never *input*: no traced quantity may flow
//! back into billing, audit or metering state. Two rules enforce this:
//!
//! 1. **Span identity is deterministic, wall time is segregated.** A
//!    span's `id` derives from the fleet seed, the job id and the stage
//!    alone (the same mixing discipline as
//!    [`crate::Fleet::job_seed`]) — bit-identical for any worker count,
//!    with tracing on or off. Everything the wall clock touched lives in
//!    the nested [`SpanWall`] object, so a consumer diffing two trace
//!    exports can strip the `wall` field and compare the rest exactly.
//! 2. **Traced time never enters checked artifacts.** Ledgers, verdicts
//!    and the metering registry ([`crate::FleetService::metering`], built
//!    from the ledger, the auditor and the per-tenant usage sums alone)
//!    contain no tracer output: the `fleet_stage_seconds*` histograms and
//!    the `fleet_observer_*` counters live in the ops registry
//!    ([`crate::FleetService::metrics`]), which checkpoints never carry.
//!
//! ## Self-accounting
//!
//! Observation has a cost, and an honest meter accounts for its own: the
//! tracer stamps an [`std::time::Instant`] at every record and
//! accumulates the time it spent recording into
//! [`TracerStats::overhead_nanos`], which the service exports as
//! `fleet_observer_overhead_seconds_total`. `fleetbench` reports it against
//! wall time, next to traced-over-untraced CPU per job from the same run.
//!
//! ```
//! use trustmeter_fleet::{FleetConfig, FleetService, JobSpec, PipelineTracer, TenantId};
//! use trustmeter_workloads::Workload;
//!
//! let tracer = PipelineTracer::new(1024, 42);
//! let mut service = FleetService::new(FleetConfig::new(2, 42)).with_tracer(tracer.clone());
//! service.process(&[JobSpec::clean(0, TenantId(1), Workload::LoopO, 0.001)]);
//!
//! let spans = tracer.spans();
//! assert!(!spans.is_empty());
//! let mut jsonl = Vec::new();
//! tracer.export_jsonl(&mut jsonl).unwrap();
//! assert_eq!(jsonl.iter().filter(|b| **b == b'\n').count(), spans.len());
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Error, Serialize, Value};
use trustmeter_sim::SimRng;

use crate::executor::JobId;
use crate::metrics::LATENCY_BUCKETS;
use crate::tenant::TenantId;

/// A pipeline stage boundary a job crosses, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Submit → dispatch: time spent queued before a worker popped the job.
    QueueWait,
    /// Worker execution: the metered run itself (plus reference/quote
    /// precompute for sampled jobs).
    Execute,
    /// The auditor's §VI verdict over the completed record.
    Audit,
    /// A journal group commit (runs at release, receipts at post) —
    /// attributed to the first record of the group.
    JournalCommit,
    /// Release → post: billing, audit and metering of one released record
    /// (the audit span nests inside this one).
    Post,
    /// One failed journal commit attempt that the retry policy will retry
    /// (see [`crate::faults::RetryPolicy`]) — attributed to the first
    /// record (or the submitted spec) of the failed batch. Absent from
    /// healthy runs.
    JournalRetry,
    /// A dispatched job reclaimed from a panicked or lying worker and
    /// re-enqueued for re-execution (see
    /// [`crate::faults::WorkerFaultSchedule`]) — attributed to the
    /// reassigned job. Absent from healthy runs.
    Reassign,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::QueueWait,
        Stage::Execute,
        Stage::Audit,
        Stage::JournalCommit,
        Stage::Post,
        Stage::JournalRetry,
        Stage::Reassign,
    ];

    /// Short stable snake_case name, used as the `stage` label of the
    /// `fleet_stage_seconds*` histograms and the span schema.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Execute => "execute",
            Stage::Audit => "audit",
            Stage::JournalCommit => "journal_commit",
            Stage::Post => "post",
            Stage::JournalRetry => "journal_retry",
            Stage::Reassign => "reassign",
        }
    }

    fn index(self) -> u8 {
        match self {
            Stage::QueueWait => 0,
            Stage::Execute => 1,
            Stage::Audit => 2,
            Stage::JournalCommit => 3,
            Stage::Post => 4,
            Stage::JournalRetry => 5,
            Stage::Reassign => 6,
        }
    }
}

impl Serialize for Stage {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
    fn write_json(&self, out: &mut String) {
        serde::write_escaped_str(out, self.label());
    }
}

impl Deserialize for Stage {
    fn from_value(v: &Value) -> Result<Stage, Error> {
        let Value::Str(label) = v else {
            return Err(Error::custom(format!("expected a stage label, got {v:?}")));
        };
        Stage::ALL
            .into_iter()
            .find(|stage| stage.label() == label.as_str())
            .ok_or_else(|| Error::custom(format!("unknown stage `{label}`")))
    }
}

/// The wall-clock half of a span, segregated from the deterministic
/// identity fields so trace consumers can strip it and diff the rest
/// bit-for-bit across runs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanWall {
    /// Span start as nanoseconds since the Unix epoch (wall clock; not
    /// deterministic).
    pub start_unix_nanos: u64,
    /// Measured stage duration in nanoseconds (wall clock; not
    /// deterministic).
    pub duration_nanos: u64,
}

/// One recorded stage crossing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Deterministic span id: a function of the fleet seed, the job id
    /// and the stage alone — the same for any worker count, with tracing
    /// on or off.
    pub id: u64,
    /// The job that crossed the stage.
    pub job: JobId,
    /// The tenant that submitted the job.
    pub tenant: TenantId,
    /// Which stage boundary this span measures.
    pub stage: Stage,
    /// The wall-clock fields, segregated (see [`SpanWall`]).
    pub wall: SpanWall,
}

/// Derives the deterministic span id for a (fleet seed, job, stage)
/// triple — the tracing analogue of [`crate::Fleet::job_seed`].
pub fn span_id(fleet_seed: u64, job: JobId, stage: Stage) -> u64 {
    SimRng::seed_from(
        fleet_seed
            ^ job.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (stage.index() as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
    .next_u64()
}

/// One histogram cell: every observation the tracer aggregated for a
/// (stage, tenant) pair since it was created, bucketed to
/// [`LATENCY_BUCKETS`] (one trailing `+Inf` slot).
#[derive(Debug, Clone, PartialEq)]
pub struct StageObservation {
    /// The observed stage.
    pub stage: Stage,
    /// `None` for the per-stage aggregate cell, `Some` for a per-tenant
    /// variant.
    pub tenant: Option<TenantId>,
    /// Non-cumulative bucket counts, `LATENCY_BUCKETS.len() + 1` slots.
    pub counts: Vec<u64>,
    /// Sum of observed durations, in seconds.
    pub sum_secs: f64,
    /// Number of observations.
    pub count: u64,
}

/// The tracer's own cost and volume counters (monotonic since creation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TracerStats {
    /// Spans recorded (whether or not still in the ring).
    pub spans_recorded: u64,
    /// Spans evicted from the full ring.
    pub spans_dropped: u64,
    /// Nanoseconds spent inside the observability layer itself.
    pub overhead_nanos: u64,
}

#[derive(Debug)]
struct Cell {
    counts: Vec<u64>,
    sum_secs: f64,
    count: u64,
}

impl Cell {
    fn new() -> Cell {
        Cell {
            counts: vec![0; LATENCY_BUCKETS.len() + 1],
            sum_secs: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, secs: f64) {
        let slot = LATENCY_BUCKETS
            .iter()
            .position(|bound| secs <= *bound)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.counts[slot] += 1;
        self.sum_secs += secs;
        self.count += 1;
    }
}

#[derive(Debug)]
struct Inner {
    /// Bounded span ring: a full ring evicts the oldest span.
    ring: VecDeque<Span>,
    /// Histogram cells keyed by (stage index, tenant): `None` is the
    /// per-stage aggregate, `Some` the per-tenant variant. Bounded by
    /// stages × (tenants + 1), independent of job count.
    cells: BTreeMap<(u8, Option<TenantId>), Cell>,
    recorded: u64,
    dropped: u64,
    overhead_nanos: u64,
}

/// A bounded, thread-shared span recorder for the fleet pipeline. See the
/// [module docs](self) for the determinism and self-accounting contracts.
///
/// Cloning is cheap and shares the buffer: the service, the executor and
/// every ingest worker record into the same tracer.
#[derive(Debug, Clone)]
pub struct PipelineTracer {
    inner: Arc<Mutex<Inner>>,
    fleet_seed: u64,
    capacity: usize,
}

impl PipelineTracer {
    /// A tracer holding at most `capacity` spans (older spans are evicted
    /// and counted in [`TracerStats::spans_dropped`]); `fleet_seed` must
    /// match the fleet's so span ids line up with job seeds.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — an unbounded ring is exactly what
    /// this type exists to prevent, and a zero-capacity one records
    /// nothing.
    pub fn new(capacity: usize, fleet_seed: u64) -> PipelineTracer {
        assert!(capacity > 0, "a span ring needs capacity");
        PipelineTracer {
            inner: Arc::new(Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity),
                cells: BTreeMap::new(),
                recorded: 0,
                dropped: 0,
                overhead_nanos: 0,
            })),
            fleet_seed,
            capacity,
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The fleet seed span ids derive from.
    pub fn fleet_seed(&self) -> u64 {
        self.fleet_seed
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record_inner(
        &self,
        stage: Stage,
        job: JobId,
        tenant: TenantId,
        duration: Duration,
        per_tenant: bool,
    ) {
        // The overhead clock starts before the lock: contention on the
        // tracer is part of what observing costs.
        let entered = Instant::now();
        let start = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .saturating_sub(duration);
        let span = Span {
            id: span_id(self.fleet_seed, job, stage),
            job,
            tenant,
            stage,
            wall: SpanWall {
                start_unix_nanos: start.as_nanos() as u64,
                duration_nanos: duration.as_nanos() as u64,
            },
        };
        let secs = duration.as_secs_f64();
        let mut inner = self.lock();
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(span);
        inner.recorded += 1;
        inner
            .cells
            .entry((stage.index(), None))
            .or_insert_with(Cell::new)
            .observe(secs);
        if per_tenant {
            inner
                .cells
                .entry((stage.index(), Some(tenant)))
                .or_insert_with(Cell::new)
                .observe(secs);
        }
        inner.overhead_nanos += entered.elapsed().as_nanos() as u64;
    }

    /// Records one stage crossing for a job: a span in the ring plus the
    /// per-stage and per-tenant histogram cells.
    pub fn record(&self, stage: Stage, job: JobId, tenant: TenantId, duration: Duration) {
        self.record_inner(stage, job, tenant, duration, true);
    }

    /// Records a stage crossing that spans multiple tenants' work (e.g. a
    /// journal group commit, attributed to the group's first record):
    /// a span in the ring plus the per-stage aggregate cell only — a
    /// shared commit is nobody's per-tenant latency.
    pub fn record_aggregate(&self, stage: Stage, job: JobId, tenant: TenantId, duration: Duration) {
        self.record_inner(stage, job, tenant, duration, false);
    }

    /// The tracer's cost and volume counters.
    pub fn stats(&self) -> TracerStats {
        let inner = self.lock();
        TracerStats {
            spans_recorded: inner.recorded,
            spans_dropped: inner.dropped,
            overhead_nanos: inner.overhead_nanos,
        }
    }

    /// A snapshot of the spans currently in the ring, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().ring.iter().cloned().collect()
    }

    /// The aggregated histogram cells (stage-sorted, per-stage aggregate
    /// before per-tenant variants) — what the service reads into its
    /// `fleet_stage_seconds*` metrics. Reading neither drains the cells
    /// nor counts as observing overhead, so two reads with no recording
    /// between them are equal.
    pub fn observations(&self) -> Vec<StageObservation> {
        self.lock()
            .cells
            .iter()
            .map(|(&(stage, tenant), cell)| StageObservation {
                stage: Stage::ALL[stage as usize],
                tenant,
                counts: cell.counts.clone(),
                sum_secs: cell.sum_secs,
                count: cell.count,
            })
            .collect()
    }

    /// Streams the ring's spans as JSON-lines (one span per line, oldest
    /// first) through the vendored streaming `write_json` path — no
    /// intermediate `Value` tree, one reused line buffer.
    ///
    /// # Errors
    /// An [`io::Error`] from the writer.
    pub fn export_jsonl<W: io::Write>(&self, mut out: W) -> io::Result<()> {
        let spans = self.spans();
        let mut line = String::new();
        for span in &spans {
            line.clear();
            span.write_json(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn span_ids_are_deterministic_and_distinct() {
        let a = span_id(42, JobId(7), Stage::Execute);
        assert_eq!(a, span_id(42, JobId(7), Stage::Execute));
        assert_ne!(a, span_id(42, JobId(8), Stage::Execute));
        assert_ne!(a, span_id(42, JobId(7), Stage::Audit));
        assert_ne!(a, span_id(43, JobId(7), Stage::Execute));
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let tracer = PipelineTracer::new(2, 1);
        for id in 0..5 {
            tracer.record(Stage::Execute, JobId(id), TenantId(1), ms(1));
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let ids: Vec<u64> = spans.iter().map(|s| s.job.0).collect();
        assert_eq!(ids, vec![3, 4], "oldest spans evicted first");
        let stats = tracer.stats();
        assert_eq!(stats.spans_recorded, 5);
        assert_eq!(stats.spans_dropped, 3);
    }

    #[test]
    fn observations_aggregate_per_stage_and_per_tenant() {
        let tracer = PipelineTracer::new(16, 1);
        tracer.record(Stage::QueueWait, JobId(0), TenantId(1), ms(1));
        tracer.record(Stage::QueueWait, JobId(1), TenantId(2), ms(2));
        tracer.record_aggregate(Stage::JournalCommit, JobId(0), TenantId(1), ms(3));
        let observations = tracer.observations();
        // queue_wait aggregate + two tenants, journal_commit aggregate only.
        assert_eq!(observations.len(), 4);
        let aggregate = observations
            .iter()
            .find(|o| o.stage == Stage::QueueWait && o.tenant.is_none())
            .unwrap();
        assert_eq!(aggregate.count, 2);
        assert!(observations
            .iter()
            .any(|o| o.stage == Stage::QueueWait && o.tenant == Some(TenantId(2))));
        assert!(!observations
            .iter()
            .any(|o| o.stage == Stage::JournalCommit && o.tenant.is_some()));
        // Reading does not drain the cells.
        assert_eq!(tracer.observations(), observations);
    }

    #[test]
    fn overhead_accumulates() {
        let tracer = PipelineTracer::new(4, 1);
        tracer.record(Stage::Execute, JobId(0), TenantId(1), ms(1));
        // The clock has nanosecond resolution; all we can assert portably
        // is monotonic accumulation. Reading the cells is not observing.
        let first = tracer.stats().overhead_nanos;
        tracer.observations();
        assert_eq!(tracer.stats().overhead_nanos, first);
        tracer.record(Stage::Execute, JobId(1), TenantId(1), ms(1));
        assert!(tracer.stats().overhead_nanos >= first);
    }

    #[test]
    fn spans_roundtrip_through_json_with_wall_segregated() {
        let tracer = PipelineTracer::new(4, 9);
        tracer.record(Stage::Audit, JobId(3), TenantId(7), ms(5));
        let mut jsonl = Vec::new();
        tracer.export_jsonl(&mut jsonl).unwrap();
        let line = String::from_utf8(jsonl).unwrap();
        let span: Span = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(span, tracer.spans()[0]);
        assert_eq!(span.stage, Stage::Audit);
        assert_eq!(span.id, span_id(9, JobId(3), Stage::Audit));
        // The wall fields live under one strippable key.
        assert!(line.contains("\"wall\":{"), "got: {line}");
        assert!(line.contains("\"duration_nanos\":5000000"));
    }

    #[test]
    fn stage_labels_roundtrip() {
        for stage in Stage::ALL {
            let back = Stage::from_value(&stage.to_value()).unwrap();
            assert_eq!(back, stage);
        }
        assert!(Stage::from_value(&Value::Str("warp".into())).is_err());
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        PipelineTracer::new(0, 1);
    }
}
