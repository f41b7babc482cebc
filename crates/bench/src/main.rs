//! `trustmeter-bench` — the fleet perf harness.
//!
//! Streams a fixed audited batch through a [`FleetService`] worker pool
//! twice — journaling **off**, and write-ahead journaling to the
//! **segmented** group-commit sink (rotation, fsync policy, inline
//! checkpoint cadence) — and writes a JSON report (`BENCH_fleet.json` by
//! default) with wall clock, jobs/sec, the auditor's replay counters and
//! the journal
//! append/commit/rotation/fsync counters, so both the performance
//! trajectory of the audited streaming path *and* the cost of each
//! durability mode are tracked from run to run. A third **sealed** mode
//! runs the same segmented configuration with the evidence ledger on
//! (hash-chained lines, signed block headers on rotation), so the
//! chain+seal overhead vs plain group commit is tracked from run to run.
//! With `--faults` a fourth **faulted** mode repeats the sealed
//! configuration with the journal sink wrapped in a
//! [`FaultInjectingSink`] carrying an *empty* schedule and the ingest
//! [`RetryPolicy`] armed: no fault ever fires, so the delta vs `sealed`
//! is what the fault-tolerance plumbing (the wrapper indirection plus
//! the retry loop around every group commit) costs on the healthy path.
//! In segmented and sealed modes the harness additionally reopens the
//! segment directory and verifies that recovery reproduces the live
//! service's ledger and metering exposition bit for bit; in sealed mode
//! it also verifies every sealed block header cryptographically.
//!
//! ```text
//! trustmeter-bench [--smoke] [--faults] [--jobs N] [--workers N]
//!                  [--repeat N] [--out PATH] [--fsync never|every|group]
//!                  [--group-entries N] [--group-bytes N]
//!                  [--segment-bytes N] [--checkpoint-every N]
//!                  [--arrival-rate JOBS_PER_SEC] [--duration SECS]
//! ```
//!
//! With `--arrival-rate` the harness additionally runs an **open-loop
//! sustained-load session**: a seeded Poisson arrival schedule (quantized
//! to 1 ms virtual ticks) is paced against the wall clock and submitted in
//! `submit_all` chunks through a bounded, shed-on-overflow queue — load
//! keeps arriving whether or not the service keeps up, which is what
//! separates a saturation measurement from the closed-loop modes above.
//! Tenant fairness is deficit-weighted by rate card (a tenant paying 4×
//! the base rate gets a 4× queue weight), and a small autoscaler
//! grows/shrinks the worker pool off the queue-depth gauge. The session's
//! saturation report (offered vs achieved rate, shed count, queue-depth
//! peak, autoscale trace, buffer-pool recycling, per-tenant shares) lands
//! in the output JSON under `open_loop`.
//!
//! Modes are measured in interleaved rounds (off, segmented, sealed, off,
//! segmented, …) and the reported run per mode is the **median** by wall
//! clock, so slow-machine drift hits every mode evenly instead of
//! whichever ran last. Every mode additionally runs each round **with a
//! pipeline tracer attached**: the report carries per-stage latency
//! distributions (p50/p90/p99 for queue wait, execution, audit, journal
//! commit and post, from the `fleet_stage_seconds` histograms), the
//! tracer's self-accounted overhead, and the measured tracing-on vs
//! tracing-off wall-clock delta — the meter metering itself.
//!
//! `--smoke` shrinks the batch to a few jobs for CI: it proves the harness
//! (including every durability mode and the recovery check) runs end
//! to end without spending CI minutes on a real measurement.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;
use trustmeter_fleet::{
    AttackSpec, BackpressurePolicy, CheckpointCadence, FaultInjectingSink, FaultSchedule,
    FleetConfig, FleetService, FsyncPolicy, IngestConfig, JobSpec, Journal, JournalStats,
    PipelineTracer, PoolStats, RateCard, RetryPolicy, SamplingPolicy, SegmentConfig,
    SegmentedFileSink, Stage, SubmitError, Tenant, TenantId,
};
use trustmeter_workloads::Workload;

/// Workload scale for harness jobs (matches the criterion fleet bench).
const SCALE: f64 = 0.001;
/// Fleet seed (matches the criterion fleet bench).
const SEED: u64 = 0xf1ee7;

/// How one harness run persists its journal.
#[derive(Debug, Clone, Copy)]
enum JournalMode {
    /// In-memory ledgers only.
    Off,
    /// Segmented group-commit sink with an inline checkpoint cadence.
    /// `label` distinguishes the flush-only run (`segmented`, survives a
    /// process death) from the fsync-policy run (`segmented-fsync`,
    /// survives power loss).
    Segmented {
        label: &'static str,
        config: SegmentConfig,
        checkpoint_every: u64,
    },
    /// The sealed segmented configuration with the sink wrapped in a
    /// [`FaultInjectingSink`] carrying an **empty** schedule and the
    /// ingest retry policy armed (`--faults`). No fault ever fires —
    /// the delta vs `sealed` is the healthy-path cost of the
    /// fault-tolerance plumbing itself.
    Faulted {
        config: SegmentConfig,
        checkpoint_every: u64,
    },
}

impl JournalMode {
    fn label(&self) -> &'static str {
        match self {
            JournalMode::Off => "off",
            JournalMode::Segmented { label, .. } => label,
            JournalMode::Faulted { .. } => "faulted",
        }
    }

    /// The segment configuration to reopen for the post-run recovery
    /// check (`None` with journaling off).
    fn segment_config(&self) -> Option<SegmentConfig> {
        match self {
            JournalMode::Segmented { config, .. } | JournalMode::Faulted { config, .. } => {
                Some(*config)
            }
            JournalMode::Off => None,
        }
    }
}

/// One pipeline stage's latency distribution, read back from the traced
/// run's `fleet_stage_seconds` histogram.
#[derive(Debug, Clone, Serialize)]
struct StageLatency {
    /// Stage label (`queue_wait`, `execute`, `audit`, `journal_commit`,
    /// `post`).
    stage: &'static str,
    /// Observations recorded for the stage.
    count: u64,
    /// Estimated p50 latency in seconds (`null` with zero observations).
    p50_secs: Option<f64>,
    /// Estimated p90 latency in seconds.
    p90_secs: Option<f64>,
    /// Estimated p99 latency in seconds.
    p99_secs: Option<f64>,
}

/// What one harness run measured.
#[derive(Debug, Serialize)]
struct BenchReport {
    /// Harness identifier.
    bench: &'static str,
    /// Durability mode: `off`, `segmented` (group-commit pipeline), `sealed` (group commit plus
    /// the hash-chained, block-sealed evidence ledger), `faulted` (the
    /// sealed configuration behind a no-op fault wrapper with the retry
    /// policy armed, `--faults` only) or `segmented-fsync` (group
    /// commit under the configured fsync policy).
    journal: &'static str,
    /// Fsync policy of the segmented run (`null` otherwise).
    fsync: Option<FsyncPolicy>,
    /// Segment rotation threshold of the segmented run (0 otherwise).
    segment_bytes: u64,
    /// Inline checkpoint cadence of the segmented run, in posted runs
    /// (0 = disabled).
    checkpoint_every: u64,
    /// Jobs streamed through the service.
    jobs: u64,
    /// Worker threads in the ingest pool.
    workers: usize,
    /// Interleaved measurement rounds this mode ran; the reported numbers
    /// are the median round by wall clock.
    repeat: usize,
    /// Workload scale factor per job.
    scale: f64,
    /// Audit sampling policy the run used.
    sampling: SamplingPolicy,
    /// End-to-end wall clock of submit → pump → finish, in seconds.
    wall_secs: f64,
    /// Jobs per wall-clock second.
    jobs_per_sec: f64,
    /// Inline reference replays the auditor performed (serial cost).
    audit_replays: u64,
    /// Runs audited with a worker-precomputed reference (parallel cost).
    audit_reference_hits: u64,
    /// Runs the audit flagged with at least one anomaly.
    flagged_runs: u64,
    /// Journal entries appended (0 with journaling off).
    journal_appends: u64,
    /// Journal bytes appended (0 with journaling off).
    journal_bytes: u64,
    /// Batched journal commits (one sink write per batch).
    journal_group_commits: u64,
    /// Segment rotations.
    journal_rotations: u64,
    /// fsync calls issued by the sink.
    journal_fsyncs: u64,
    /// Segments retired as superseded by a checkpoint.
    journal_segments_retired: u64,
    /// Signed block headers sealed over rotated segments (0 outside
    /// sealed mode).
    journal_seals: u64,
    /// Sealed block headers that verified cryptographically when the
    /// journal was reopened (0 outside sealed mode).
    seals_verified: u64,
    /// Whether a post-run recovery from the journal reproduced the live
    /// ledger and metering exposition bit for bit. `null` with journaling
    /// `off` (nothing to recover from); a boolean only where the check
    /// actually ran, so "did not run" can never read as "failed".
    recovery_bit_identical: Option<bool>,
    /// End-to-end wall clock of the median tracing-**on** round, in
    /// seconds (`wall_secs` is the tracing-off median — both run in every
    /// interleaved round).
    traced_wall_secs: f64,
    /// Measured cost of observing: traced vs untraced wall clock, in
    /// percent (positive = tracing slowed the run down).
    tracing_overhead_pct: f64,
    /// Spans the tracer recorded during the median traced round.
    observer_spans: u64,
    /// Time spent inside the observability layer itself during the median
    /// traced round, in seconds (the self-accounted share of the
    /// overhead).
    observer_overhead_secs: f64,
    /// Per-stage latency distributions from the median traced round.
    stages: Vec<StageLatency>,
}

/// The `i`-th harness job: tenants and workloads rotate, every fourth job
/// carries an attack (shared by the closed-loop batch and the open-loop
/// arrival stream).
fn spec(i: u64) -> JobSpec {
    let tenant = TenantId((i % 4) as u32 + 1);
    let workload = Workload::ALL[(i % 4) as usize];
    if i.is_multiple_of(4) {
        JobSpec::attacked(i, tenant, workload, SCALE, AttackSpec::Shell)
    } else {
        JobSpec::clean(i, tenant, workload, SCALE)
    }
}

fn batch(n: u64) -> Vec<JobSpec> {
    (0..n).map(spec).collect()
}

fn build_service(workers: usize) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(workers, SEED));
    for id in 1..=4u32 {
        service.register(Tenant::new(
            TenantId(id),
            format!("t{id}"),
            RateCard::per_cpu_hour(0.10),
        ));
    }
    service
}

fn run(jobs: u64, workers: usize, mode: JournalMode, traced: bool) -> BenchReport {
    // Per-mode scratch space under the temp dir, cleaned up at the end.
    let scratch = std::env::temp_dir().join(format!(
        "trustmeter-bench-{}-{}",
        mode.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create bench scratch dir");

    let mut service = build_service(workers);
    let tracer = traced.then(|| {
        // Up to five spans per job (queue wait, execute, audit, commit,
        // post); size the ring so a full run fits without evictions.
        PipelineTracer::new((jobs as usize * 8).max(64), SEED)
    });
    if let Some(tracer) = &tracer {
        service = service.with_tracer(tracer.clone());
    }
    let (fsync, segment_bytes, checkpoint_every, retry) = match mode {
        JournalMode::Off => (None, 0, 0, None),
        JournalMode::Segmented {
            config,
            checkpoint_every,
            ..
        } => {
            let journal =
                Journal::segmented(scratch.join("segments"), config).expect("open bench segments");
            service = service.with_journal(journal);
            if checkpoint_every > 0 {
                service = service
                    .with_checkpoint_cadence(CheckpointCadence::every_n_runs(checkpoint_every));
            }
            (
                Some(config.fsync),
                config.segment_bytes,
                checkpoint_every,
                None,
            )
        }
        JournalMode::Faulted {
            config,
            checkpoint_every,
        } => {
            // Same on-disk layout as the sealed mode, but every write
            // funnels through the fault wrapper (with nothing scheduled)
            // and every group commit runs inside the retry loop.
            let sink =
                SegmentedFileSink::open(scratch.join("segments"), config).expect("open segments");
            let (sink, _probe) = FaultInjectingSink::wrap(Box::new(sink), FaultSchedule::none());
            let journal = Journal::with_sink(Box::new(sink)).expect("wrap bench sink");
            service = service.with_journal(journal);
            if checkpoint_every > 0 {
                service = service
                    .with_checkpoint_cadence(CheckpointCadence::every_n_runs(checkpoint_every));
            }
            (
                Some(config.fsync),
                config.segment_bytes,
                checkpoint_every,
                Some(RetryPolicy::default()),
            )
        }
    };

    let specs = batch(jobs);
    let start = Instant::now();
    let mut ingest = IngestConfig::new(workers).with_capacity(specs.len());
    if let Some(policy) = retry {
        ingest = ingest.with_retry_policy(policy);
    }
    let mut stream = service.stream(ingest);
    // Submit in chunks: one guard hold, one Accepted group commit and one
    // worker wake per chunk instead of per job (results are bit-identical
    // to per-job submission), pumping completions between chunks.
    for chunk in specs.chunks(32) {
        stream.submit_all(chunk).expect("queue sized for batch");
        stream.pump();
    }
    // Keep pumping while the workers drain, like a live consumer would:
    // journal group commits then overlap with execution instead of
    // piling into a serial tail after the last job completes.
    while stream.verdicts().len() < jobs as usize {
        stream.pump();
        std::thread::yield_now();
    }
    let report = stream.finish();
    let wall_secs = start.elapsed().as_secs_f64();
    assert_eq!(report.records.len() as u64, jobs, "every job completed");
    let flagged_runs = report.flagged().count() as u64;
    let journal_stats = service.journal().map(|j| j.stats()).unwrap_or_default();

    // Segmented/sealed/faulted modes close the loop: reopen the
    // (rotated, retired) segment directory with the mode's own config and prove
    // recovery is bit-identical to the live service — neither the
    // group-commit pipeline nor the evidence ledger may cost correctness.
    // Sealed mode additionally verifies every sealed block header.
    let mut seals_verified = 0;
    let recovery_bit_identical = if let Some(config) = mode.segment_config() {
        let reopened =
            Journal::segmented(scratch.join("segments"), config).expect("reopen bench segments");
        let (entries, _tail) = reopened.entries().expect("parse bench journal");
        let mut recovered = build_service(workers);
        recovered
            .recover_latest(&entries)
            .expect("recover bench journal");
        assert_eq!(
            recovered.ledger(),
            service.ledger(),
            "recovered ledger == live ledger"
        );
        assert_eq!(
            recovered.metering().render(),
            service.metering().render(),
            "recovered metering exposition == live exposition"
        );
        if config.seal.is_some() {
            let verification = reopened.verify(SEED).expect("verify sealed bench journal");
            seals_verified = verification.seals_verified;
        }
        Some(true)
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&scratch);

    // Read the per-stage distributions back from the traced run's
    // histograms (zero observations — e.g. journal_commit with journaling
    // off — report `null` quantiles).
    let metrics = service.metrics();
    let stages = Stage::ALL
        .iter()
        .map(|stage| {
            let labels = [("stage", stage.label())];
            StageLatency {
                stage: stage.label(),
                count: metrics
                    .histogram_count("fleet_stage_seconds", &labels)
                    .unwrap_or(0),
                p50_secs: metrics.histogram_quantile("fleet_stage_seconds", &labels, 0.5),
                p90_secs: metrics.histogram_quantile("fleet_stage_seconds", &labels, 0.9),
                p99_secs: metrics.histogram_quantile("fleet_stage_seconds", &labels, 0.99),
            }
        })
        .collect();
    // The bench never schedules worker faults, so a healthy run must not
    // record a single reassignment span — if one shows up, the supervisor
    // reaped a worker that did nothing wrong (`--faults` smoke tripwire).
    if matches!(mode, JournalMode::Faulted { .. }) {
        let reassigns = metrics
            .histogram_count("fleet_stage_seconds", &[("stage", Stage::Reassign.label())])
            .unwrap_or(0);
        assert_eq!(reassigns, 0, "healthy bench run reassigned a job");
    }
    let observer = tracer.as_ref().map(|t| t.stats()).unwrap_or_default();

    let sampling = service.auditor().sampling();
    BenchReport {
        bench: "fleet_stream_audited",
        journal: mode.label(),
        fsync,
        segment_bytes,
        checkpoint_every,
        jobs,
        workers,
        repeat: 1,
        scale: SCALE,
        sampling,
        wall_secs,
        jobs_per_sec: jobs as f64 / wall_secs.max(f64::EPSILON),
        audit_replays: service.auditor().replay_count(),
        audit_reference_hits: service.auditor().reference_hit_count(),
        flagged_runs,
        journal_appends: journal_stats.appends,
        journal_bytes: journal_stats.bytes,
        journal_group_commits: journal_stats.group_commits,
        journal_rotations: journal_stats.rotations,
        journal_fsyncs: journal_stats.fsyncs,
        journal_segments_retired: journal_stats.segments_retired,
        journal_seals: journal_stats.seals,
        seals_verified,
        recovery_bit_identical,
        traced_wall_secs: if traced { wall_secs } else { 0.0 },
        tracing_overhead_pct: 0.0,
        observer_spans: observer.spans_recorded,
        observer_overhead_secs: observer.overhead_nanos as f64 / 1e9,
        stages,
    }
}

/// Folds the median traced round into the median untraced report: the
/// headline `wall_secs` stays the tracing-off number, the traced round
/// contributes its wall clock, the observer self-accounting and the
/// per-stage distributions. `tracing_overhead_pct` is **not** the ratio of
/// the two medians — those may come from different rounds, and on a noisy
/// machine that ratio swings by more than the effect being measured.
/// Instead it is the median of the per-round *paired* deltas: each round
/// runs tracing-on and tracing-off back to back, so its delta cancels
/// whatever drift that round carried, and the median across rounds drops
/// the outliers.
fn merge_traced(
    mut untraced: BenchReport,
    traced: BenchReport,
    paired_overhead_pct: f64,
) -> BenchReport {
    untraced.traced_wall_secs = traced.wall_secs;
    untraced.tracing_overhead_pct = paired_overhead_pct;
    untraced.observer_spans = traced.observer_spans;
    untraced.observer_overhead_secs = traced.observer_overhead_secs;
    untraced.stages = traced.stages;
    untraced
}

/// The median of the per-round tracing-on vs tracing-off wall-clock
/// deltas, in percent (`rounds` pairs each round's two runs).
fn median_paired_overhead_pct(untraced: &[BenchReport], traced: &[BenchReport]) -> f64 {
    let mut deltas: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(off, on)| (on.wall_secs / off.wall_secs.max(f64::EPSILON) - 1.0) * 100.0)
        .collect();
    deltas.sort_by(f64::total_cmp);
    deltas[deltas.len() / 2]
}

fn stats_line(stats: &JournalStats) -> String {
    format!(
        "{} appends / {} commits ({} bytes), {} rotations, {} fsyncs, {} retired, {} seals",
        stats.appends,
        stats.group_commits,
        stats.bytes,
        stats.rotations,
        stats.fsyncs,
        stats.segments_retired,
        stats.seals
    )
}

/// The median round by wall clock (`samples` must be non-empty).
fn median_by_wall(mut samples: Vec<BenchReport>) -> BenchReport {
    let repeat = samples.len();
    samples.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    let mut report = samples.swap_remove(repeat / 2);
    report.repeat = repeat;
    report
}

// ---------------------------------------------------------------------------
// Open-loop sustained-load session (`--arrival-rate`)
// ---------------------------------------------------------------------------

/// Virtual tick the arrival schedule is quantized to (1 ms).
const TICK_SECS: f64 = 0.001;
/// Bounded submission queue of the open-loop session; overflow is shed
/// (counted, never blocked on — blocking would close the loop).
const OPEN_LOOP_QUEUE: usize = 1024;
/// Per-tenant rate cards of the open-loop session, in $/cpu-hour. Fairness
/// weights are derived from these: a tenant paying 4× the base rate gets a
/// 4× deficit-round-robin weight.
const OPEN_LOOP_RATES: [f64; 4] = [0.05, 0.10, 0.10, 0.20];

/// The deficit-round-robin weight a rate card buys: its multiple of the
/// cheapest card, rounded (so [0.05, 0.10, 0.10, 0.20] → [1, 2, 2, 4]).
fn rate_card_weight(rate: f64) -> u32 {
    let base = OPEN_LOOP_RATES
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    ((rate / base).round() as u32).max(1)
}

/// One tenant's share of the open-loop session.
#[derive(Debug, Serialize)]
struct OpenLoopTenant {
    /// Tenant id.
    tenant: u32,
    /// The tenant's rate card, in $/cpu-hour.
    rate_per_cpu_hour: f64,
    /// The deficit-round-robin weight the rate card bought.
    weight: u32,
    /// Jobs of this tenant that completed and were billed.
    completed_runs: u64,
    /// The tenant's billed charge.
    billed_charge: f64,
}

/// What the open-loop sustained-load session measured.
#[derive(Debug, Serialize)]
struct OpenLoopReport {
    /// Harness identifier.
    bench: &'static str,
    /// Seed of the arrival schedule (and the fleet).
    seed: u64,
    /// Offered arrival rate, jobs per second.
    arrival_rate: f64,
    /// Length of the arrival window, seconds (drain time excluded).
    duration_secs: f64,
    /// Virtual tick the schedule is quantized to, seconds.
    virtual_tick_secs: f64,
    /// Bounded submission-queue capacity (overflow is shed).
    queue_capacity: usize,
    /// Worker-pool floor (the starting size; the autoscaler never shrinks
    /// below it).
    workers_min: usize,
    /// Worker-pool ceiling the autoscaler may grow to.
    workers_max: usize,
    /// Largest pool the autoscaler actually reached.
    workers_peak: usize,
    /// Autoscaler grow steps taken (one worker each).
    scale_ups: u64,
    /// Autoscaler shrink steps taken.
    scale_downs: u64,
    /// Jobs the seeded schedule offered.
    jobs_offered: u64,
    /// Jobs the bounded queue accepted.
    jobs_accepted: u64,
    /// Jobs shed because the queue was full (offered − accepted).
    jobs_rejected: u64,
    /// Jobs that completed and were billed.
    jobs_completed: u64,
    /// Wall clock of the whole session (arrival window + drain), seconds.
    wall_secs: f64,
    /// The offered rate (`arrival_rate`, repeated for the report reader).
    offered_jobs_per_sec: f64,
    /// Completed jobs over the whole session wall clock.
    achieved_jobs_per_sec: f64,
    /// Whether the service saturated: it shed load, or completed less
    /// than 95 % of the offered rate.
    saturated: bool,
    /// Deepest backlog the queue-depth gauge reached.
    queue_depth_peak: usize,
    /// Jobs shed on queue overflow, broken down by tenant id (every
    /// registered tenant appears, zero included; the values sum to
    /// `jobs_rejected`) — who actually pays for saturation under the
    /// deficit-weighted queue.
    shed_by_tenant: BTreeMap<u32, u64>,
    /// Release-path buffer recycling over the session.
    pool: PoolStats,
    /// Per-tenant weights and billed shares.
    tenants: Vec<OpenLoopTenant>,
}

/// The report file: one closed-loop entry per durability mode under
/// `modes`, plus the open-loop saturation report when `--arrival-rate`
/// ran one (`null` otherwise).
#[derive(Debug, Serialize)]
struct BenchFile {
    /// Closed-loop mode reports (off, segmented, sealed, …).
    modes: Vec<BenchReport>,
    /// Open-loop sustained-load report (`--arrival-rate` only).
    open_loop: Option<OpenLoopReport>,
}

/// splitmix64 — the arrival schedule's own tiny RNG, so the bench does not
/// reach into the simulator's.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in (0, 1].
fn unit(state: &mut u64) -> f64 {
    ((splitmix(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// The seeded Poisson arrival schedule: exponential inter-arrival times at
/// `rate` jobs/s, quantized to virtual ticks, covering `duration` seconds.
/// Deterministic for a given seed — two runs offer byte-identical load.
fn arrival_schedule(seed: u64, rate: f64, duration: f64) -> Vec<u64> {
    let mut state = seed;
    let mut at = 0.0;
    let mut ticks = Vec::new();
    loop {
        at += -unit(&mut state).ln() / rate;
        if at >= duration {
            return ticks;
        }
        ticks.push((at / TICK_SECS) as u64);
    }
}

/// Runs the open-loop sustained-load session: pace the seeded schedule
/// against the wall clock, submit due arrivals in `submit_all` chunks,
/// shed on overflow, autoscale the worker pool off the queue-depth gauge,
/// and report saturation.
fn run_open_loop(rate: f64, duration: f64, workers: usize) -> OpenLoopReport {
    let mut service = FleetService::new(FleetConfig::new(workers, SEED));
    for (i, rate_card) in OPEN_LOOP_RATES.iter().enumerate() {
        let id = i as u32 + 1;
        service.register(Tenant::new(
            TenantId(id),
            format!("t{id}"),
            RateCard::per_cpu_hour(*rate_card),
        ));
    }
    let mut stream = service.stream(
        IngestConfig::new(workers)
            .with_capacity(OPEN_LOOP_QUEUE)
            .with_backpressure(BackpressurePolicy::Reject),
    );
    // Deficit-weighted fairness: queue share follows the rate card.
    for (i, rate_card) in OPEN_LOOP_RATES.iter().enumerate() {
        stream.set_tenant_weight(TenantId(i as u32 + 1), rate_card_weight(*rate_card));
    }

    let schedule = arrival_schedule(SEED, rate, duration);
    let offered = schedule.len() as u64;
    let workers_max = (workers * 2).max(workers + 1);
    let mut current = workers;
    let mut workers_peak = workers;
    let (mut scale_ups, mut scale_downs) = (0u64, 0u64);
    let mut queue_depth_peak = 0usize;
    // Autoscaler: grow a worker when the backlog passes half the queue,
    // retire one when it falls below a sixteenth — hysteresis wide enough
    // that the pool does not flap on every pump.
    let mut autoscale = |stream: &mut trustmeter_fleet::FleetStream<'_>, current: &mut usize| {
        let depth = stream.stats().queued;
        queue_depth_peak = queue_depth_peak.max(depth);
        if depth >= OPEN_LOOP_QUEUE / 2 && *current < workers_max {
            *current += 1;
            stream.scale_workers(*current);
            scale_ups += 1;
            workers_peak = workers_peak.max(*current);
        } else if depth <= OPEN_LOOP_QUEUE / 16 && *current > workers {
            *current -= 1;
            stream.scale_workers(*current);
            scale_downs += 1;
        }
    };

    let start = Instant::now();
    let mut next = 0usize;
    let mut chunk: Vec<JobSpec> = Vec::new();
    let mut shed_by_tenant: BTreeMap<u32, u64> = (1..=OPEN_LOOP_RATES.len() as u32)
        .map(|id| (id, 0))
        .collect();
    while next < schedule.len() {
        // Open loop: everything due by the current virtual tick is offered
        // now, whether or not the service kept up.
        let tick = (start.elapsed().as_secs_f64() / TICK_SECS) as u64;
        chunk.clear();
        while next < schedule.len() && schedule[next] <= tick {
            chunk.push(spec(next as u64));
            next += 1;
        }
        if !chunk.is_empty() {
            if let Err(e) = stream.submit_all(&chunk) {
                // Queue full: the tail of the chunk was shed (counted by
                // the pipeline); anything else is a harness bug. The
                // admitted prefix is `e.accepted` — everything after it
                // charges the owning tenant's shed column.
                assert_eq!(e.error, SubmitError::QueueFull, "open-loop submit: {e}");
                for job in &chunk[e.accepted.len()..] {
                    *shed_by_tenant.entry(job.tenant.0).or_default() += 1;
                }
            }
        }
        stream.pump();
        autoscale(&mut stream, &mut current);
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    // Drain what the bounded queue accepted, autoscaling down as the
    // backlog empties.
    let mut stats = stream.stats();
    while stats.completed < stats.submitted {
        stream.pump();
        autoscale(&mut stream, &mut current);
        std::thread::yield_now();
        stats = stream.stats();
    }
    stream.pump();
    let wall_secs = start.elapsed().as_secs_f64();
    let stats = stream.stats();
    let report = stream.finish();
    // End the autoscaler's borrows of the counters it reports on.
    #[allow(clippy::drop_non_drop)]
    drop(autoscale);

    let completed = report.records.len() as u64;
    let achieved = completed as f64 / wall_secs.max(f64::EPSILON);
    assert_eq!(
        shed_by_tenant.values().sum::<u64>(),
        stats.rejected,
        "per-tenant shed accounting must cover every rejected job"
    );
    let tenants = OPEN_LOOP_RATES
        .iter()
        .enumerate()
        .map(|(i, rate_card)| {
            let id = TenantId(i as u32 + 1);
            let account = report.ledger.account(id);
            OpenLoopTenant {
                tenant: id.0,
                rate_per_cpu_hour: *rate_card,
                weight: rate_card_weight(*rate_card),
                completed_runs: account.map(|a| a.runs).unwrap_or(0),
                billed_charge: account.map(|a| a.billed_charge).unwrap_or(0.0),
            }
        })
        .collect();
    OpenLoopReport {
        bench: "fleet_open_loop",
        seed: SEED,
        arrival_rate: rate,
        duration_secs: duration,
        virtual_tick_secs: TICK_SECS,
        queue_capacity: OPEN_LOOP_QUEUE,
        workers_min: workers,
        workers_max,
        workers_peak,
        scale_ups,
        scale_downs,
        jobs_offered: offered,
        jobs_accepted: stats.submitted,
        jobs_rejected: stats.rejected,
        jobs_completed: completed,
        wall_secs,
        offered_jobs_per_sec: rate,
        achieved_jobs_per_sec: achieved,
        saturated: stats.rejected > 0 || achieved < 0.95 * rate,
        queue_depth_peak,
        shed_by_tenant,
        pool: stats.pool,
        tenants,
    }
}

fn main() {
    // 192 jobs: enough post-checkpoint volume (the cadence fires at run
    // 100) that at least one sealed segment outlives retirement, so the
    // reopen-and-verify step always has a sealed block to check.
    let mut jobs: u64 = 192;
    let mut workers: usize = 4;
    let mut repeat: usize = 5;
    let mut faults = false;
    let mut arrival_rate: Option<f64> = None;
    let mut duration: f64 = 2.0;
    let mut out = String::from("BENCH_fleet.json");
    let mut fsync = FsyncPolicy::GroupCommit {
        max_entries: 64,
        max_bytes: 256 * 1024,
    };
    let mut group_entries: u64 = 64;
    let mut group_bytes: u64 = 256 * 1024;
    let mut segment_bytes: u64 = 128 * 1024;
    let mut checkpoint_every: u64 = 100;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                jobs = 8;
                workers = 2;
                segment_bytes = 4 * 1024;
                checkpoint_every = 4;
            }
            "--faults" => {
                faults = true;
            }
            "--jobs" => {
                let value = args.next().expect("--jobs requires a value");
                jobs = value.parse().expect("--jobs takes an integer");
            }
            "--workers" => {
                let value = args.next().expect("--workers requires a value");
                workers = value.parse().expect("--workers takes an integer");
                assert!(workers > 0, "--workers must be positive");
            }
            "--repeat" => {
                let value = args.next().expect("--repeat requires a value");
                repeat = value.parse().expect("--repeat takes an integer");
                assert!(repeat > 0, "--repeat must be positive");
            }
            "--out" => {
                out = args.next().expect("--out requires a path");
            }
            "--fsync" => {
                let value = args.next().expect("--fsync requires a value");
                fsync = match value.as_str() {
                    "never" => FsyncPolicy::Never,
                    "every" => FsyncPolicy::EveryAppend,
                    "group" => FsyncPolicy::GroupCommit {
                        max_entries: group_entries,
                        max_bytes: group_bytes,
                    },
                    other => panic!("--fsync takes never|every|group, got `{other}`"),
                };
            }
            "--group-entries" => {
                let value = args.next().expect("--group-entries requires a value");
                group_entries = value.parse().expect("--group-entries takes an integer");
            }
            "--group-bytes" => {
                let value = args.next().expect("--group-bytes requires a value");
                group_bytes = value.parse().expect("--group-bytes takes an integer");
            }
            "--segment-bytes" => {
                let value = args.next().expect("--segment-bytes requires a value");
                segment_bytes = value.parse().expect("--segment-bytes takes an integer");
                assert!(segment_bytes > 0, "--segment-bytes must be positive");
            }
            "--checkpoint-every" => {
                let value = args.next().expect("--checkpoint-every requires a value");
                checkpoint_every = value.parse().expect("--checkpoint-every takes an integer");
            }
            "--arrival-rate" => {
                let value = args.next().expect("--arrival-rate requires a value");
                let rate: f64 = value.parse().expect("--arrival-rate takes jobs/sec");
                assert!(rate > 0.0, "--arrival-rate must be positive");
                arrival_rate = Some(rate);
            }
            "--duration" => {
                let value = args.next().expect("--duration requires a value");
                duration = value.parse().expect("--duration takes seconds");
                assert!(duration > 0.0, "--duration must be positive");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: trustmeter-bench [--smoke] [--faults] [--jobs N] [--workers N] \
                     [--repeat N] [--out PATH] [--fsync never|every|group] [--group-entries N] \
                     [--group-bytes N] [--segment-bytes N] [--checkpoint-every N] \
                     [--arrival-rate JOBS_PER_SEC] [--duration SECS]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(jobs > 0, "--jobs must be positive");
    // Re-resolve group-commit knobs in case --group-* came after --fsync.
    if let FsyncPolicy::GroupCommit { .. } = fsync {
        fsync = FsyncPolicy::GroupCommit {
            max_entries: group_entries,
            max_bytes: group_bytes,
        };
    }

    let segment_config = SegmentConfig::default()
        .with_segment_bytes(segment_bytes)
        .with_fsync(fsync);
    let mut modes = vec![
        JournalMode::Off,
        // Flush to the OS, no fsync: survives a process death.
        JournalMode::Segmented {
            label: "segmented",
            config: segment_config.with_fsync(FsyncPolicy::Never),
            checkpoint_every,
        },
        // The segmented configuration with the evidence ledger on: every
        // line hash-chained, every rotated segment sealed under a signed
        // block header. The delta vs `segmented` is the chain+seal cost.
        JournalMode::Segmented {
            label: "sealed",
            config: segment_config
                .with_fsync(FsyncPolicy::Never)
                .with_seal(SEED),
            checkpoint_every,
        },
    ];
    // The sealed configuration behind a faultless fault wrapper with the
    // default retry policy armed: the delta vs `sealed` is the
    // healthy-path price of the fault-tolerance machinery itself.
    if faults {
        modes.push(JournalMode::Faulted {
            config: segment_config
                .with_fsync(FsyncPolicy::Never)
                .with_seal(SEED),
            checkpoint_every,
        });
    }
    // The configured fsync policy on top: what power-loss durability
    // costs over journal-off. With `--fsync never` this would duplicate
    // the mode above under a misleading label, so it is skipped.
    if !matches!(fsync, FsyncPolicy::Never) {
        modes.push(JournalMode::Segmented {
            label: "segmented-fsync",
            config: segment_config,
            checkpoint_every,
        });
    }
    let mut untraced_samples: Vec<Vec<BenchReport>> = modes.iter().map(|_| Vec::new()).collect();
    let mut traced_samples: Vec<Vec<BenchReport>> = modes.iter().map(|_| Vec::new()).collect();
    for round in 0..repeat {
        // Rotate the starting mode each round so slow-machine drift
        // (thermal throttling, background load) hits every mode in every
        // position instead of always penalizing whichever runs last.
        for offset in 0..modes.len() {
            let at = (round + offset) % modes.len();
            // Interleave tracing-on and tracing-off within the round,
            // alternating which goes first, so the overhead delta is not
            // confounded by drift either.
            if round % 2 == 0 {
                untraced_samples[at].push(run(jobs, workers, modes[at], false));
                traced_samples[at].push(run(jobs, workers, modes[at], true));
            } else {
                traced_samples[at].push(run(jobs, workers, modes[at], true));
                untraced_samples[at].push(run(jobs, workers, modes[at], false));
            }
        }
    }
    let reports: Vec<BenchReport> = untraced_samples
        .into_iter()
        .zip(traced_samples)
        .map(|(untraced, traced)| {
            let overhead = median_paired_overhead_pct(&untraced, &traced);
            merge_traced(median_by_wall(untraced), median_by_wall(traced), overhead)
        })
        .collect();

    // Smoke caps the open-loop window too: prove the pacing loop, the
    // shedding path and the autoscaler run, not a real measurement.
    let open_loop = arrival_rate.map(|rate| {
        run_open_loop(
            rate,
            if jobs <= 8 {
                duration.min(1.0)
            } else {
                duration
            },
            workers,
        )
    });

    let file = BenchFile {
        modes: reports,
        open_loop,
    };
    let json = serde_json::to_string_pretty(&file).expect("serialize report");
    std::fs::write(&out, format!("{json}\n")).expect("write report file");
    let reports = &file.modes;
    for report in reports {
        println!(
            "journal={}: {} jobs / {} workers: {:.3} s wall, {:.1} jobs/s, \
             {} replays, {} reference hits, {}",
            report.journal,
            report.jobs,
            report.workers,
            report.wall_secs,
            report.jobs_per_sec,
            report.audit_replays,
            report.audit_reference_hits,
            stats_line(&JournalStats {
                appends: report.journal_appends,
                bytes: report.journal_bytes,
                group_commits: report.journal_group_commits,
                rotations: report.journal_rotations,
                fsyncs: report.journal_fsyncs,
                segments_retired: report.journal_segments_retired,
                seals: report.journal_seals,
            }),
        );
        let quantiles: Vec<String> = report
            .stages
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| {
                format!(
                    "{} p50={:.0}µs p99={:.0}µs",
                    s.stage,
                    s.p50_secs.unwrap_or(0.0) * 1e6,
                    s.p99_secs.unwrap_or(0.0) * 1e6
                )
            })
            .collect();
        println!(
            "  tracing: {:+.1}% wall ({} spans, {:.1} ms observer overhead); {}",
            report.tracing_overhead_pct,
            report.observer_spans,
            report.observer_overhead_secs * 1e3,
            quantiles.join(", "),
        );
    }
    let baseline = reports[0].wall_secs.max(f64::EPSILON);
    for report in &reports[1..] {
        println!(
            "journal={} overhead: {:+.1}% wall clock{}",
            report.journal,
            (report.wall_secs / baseline - 1.0) * 100.0,
            if report.recovery_bit_identical == Some(true) {
                " (recovery verified bit-identical)"
            } else {
                ""
            }
        );
    }
    if let Some(open) = &file.open_loop {
        println!(
            "open-loop @ {:.0} jobs/s for {:.1} s: offered {}, completed {} \
             ({:.1} jobs/s achieved), shed {}, queue peak {}, workers {}→{} \
             ({} ups / {} downs), pool reuse {}/{}{}",
            open.arrival_rate,
            open.duration_secs,
            open.jobs_offered,
            open.jobs_completed,
            open.achieved_jobs_per_sec,
            open.jobs_rejected,
            open.queue_depth_peak,
            open.workers_min,
            open.workers_peak,
            open.scale_ups,
            open.scale_downs,
            open.pool.reused,
            open.pool.acquired,
            if open.saturated { " — SATURATED" } else { "" },
        );
        for tenant in &open.tenants {
            println!(
                "  tenant {} (weight {}, ${:.2}/cpu-h): {} runs, ${:.4} billed",
                tenant.tenant,
                tenant.weight,
                tenant.rate_per_cpu_hour,
                tenant.completed_runs,
                tenant.billed_charge,
            );
        }
    }
    println!("→ {out}");
}
