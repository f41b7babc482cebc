//! Executor fault-injection tests: the worker pool under hostile compute.
//!
//! Every failure mode is driven through a seeded [`WorkerFaultSchedule`]
//! so each scenario reproduces exactly: panics caught by the worker's own
//! `catch_unwind`, and lying executors rejected by completion
//! verification against their own attestation quotes. Each fault reclaims
//! the worker's batch, and the worker restarts in place or, with the
//! restart budget spent, retires. Recovery is
//! deterministic — a reassigned job re-executes bit-identically from the
//! (fleet seed, job id) derivation — so the property tests can demand
//! the strongest contract there is: report, ledger, metering exposition
//! and **journal bytes** identical to the unfaulted run at 1, 2 and 8
//! workers, under any poison-free schedule.

use proptest::prelude::*;
use trustmeter::prelude::*;

const SCALE: f64 = 0.001;

/// Env knobs for the CI chaos step: `PROPTEST_CASES` scales the number
/// of random schedules per property, `CHAOS_SEED` shifts the whole
/// seed space so distinct CI matrix legs explore distinct schedules.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Injected worker panics are expected noise here; silence exactly those
/// so test output stays readable, and forward everything else to the
/// default hook.
fn quiet_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected worker fault") {
                previous(info);
            }
        }));
    });
}

/// A mixed batch: four tenants, all four workloads, clean runs and a mix
/// of launch-time and runtime attacks (the `tests/fleet.rs` batch).
fn batch(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let tenant = TenantId((i % 4) as u32 + 1);
            let workload = Workload::ALL[(i % 4) as usize];
            match i % 5 {
                0 => JobSpec::attacked(i, tenant, workload, SCALE, AttackSpec::Shell),
                1 => JobSpec::attacked(
                    i,
                    tenant,
                    workload,
                    SCALE,
                    AttackSpec::Scheduling { nice: -10 },
                ),
                _ => JobSpec::clean(i, tenant, workload, SCALE),
            }
        })
        .collect()
}

/// A service on seed 77 with the four test tenants registered.
fn service77(workers: usize, journal: Option<Journal>) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(workers, 77));
    for id in 1..=4u32 {
        service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    match journal {
        Some(journal) => service.with_journal(journal),
        None => service,
    }
}

fn count_entries(entries: &[JournalEntry], label: &str) -> usize {
    entries.iter().filter(|e| e.label() == label).count()
}

fn run_ids(entries: &[JournalEntry]) -> Vec<JobId> {
    entries
        .iter()
        .filter_map(|e| match e {
            JournalEntry::Run(record) => Some(record.job.id),
            _ => None,
        })
        .collect()
}

/// Streams `jobs` through a journaled session with the given fault
/// schedule; returns the report, the metering exposition and the raw
/// journal bytes.
///
/// Waits for every job to finish executing before draining: release is
/// pull-driven (nothing journals a `Run` entry until `take_ready`), so
/// draining a fully-executed pipeline journals one run block followed by
/// the billing receipts — the same byte layout no matter how workers
/// interleaved, which is what lets the property demand byte identity.
fn stream_with_faults(
    jobs: &[JobSpec],
    workers: usize,
    faults: WorkerFaultSchedule,
) -> (FleetReport, String, String) {
    let journal = Journal::in_memory();
    let mut service = service77(workers, Some(journal.clone()));
    let config = IngestConfig::new(workers)
        .with_supervisor(SupervisorPolicy::default().with_max_restarts(64))
        .with_worker_faults(faults);
    let stream = service.stream(config);
    for job in jobs {
        stream.submit(job.clone()).expect("queue sized for batch");
    }
    let mut spins = 0u64;
    while stream.stats().completed < jobs.len() as u64 {
        spins += 1;
        assert!(
            spins < 100_000_000,
            "pipeline wedged: {:?}",
            stream.health()
        );
        std::thread::yield_now();
    }
    let report = stream.finish();
    let metering = service.metering().render();
    let bytes = journal.text().expect("in-memory journal reads back");
    (report, metering, bytes)
}

// ---------------------------------------------------------------------------
// Panic: reassign, restart in place — bit-identical finish
// ---------------------------------------------------------------------------

#[test]
fn panicking_worker_is_reaped_respawned_and_its_batch_reassigned() {
    quiet_injected_panics();
    let jobs = batch(12);
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs);
    let baseline_metering = baseline.metering().render();

    let journal = Journal::in_memory();
    let mut service = service77(2, Some(journal.clone()));
    let config =
        IngestConfig::new(2).with_worker_faults(WorkerFaultSchedule::none().panic_on(JobId(3)));
    let mut stream = service.stream(config);
    for job in &jobs {
        stream.submit(job.clone()).expect("queue sized for batch");
    }
    let health = loop {
        let health = stream.health();
        if health.worker_restarts >= 1 {
            break health;
        }
        stream.pump();
        std::thread::yield_now();
    };
    assert!(health.reassigned >= 1, "the panicked batch was reclaimed");
    let report = stream.finish();

    // The panic never escaped, and nothing it touched leaked into the
    // output: the report, ledger and metering exposition are the
    // unfaulted run's, bit for bit.
    assert_eq!(report, baseline_report);
    assert_eq!(service.metering().render(), baseline_metering);

    // The recovery is observable where operators look.
    let text = service.metrics_text();
    assert!(
        text.contains("fleet_worker_restarts_total 1"),
        "dump:\n{text}"
    );
    assert!(text.contains("fleet_poison_jobs_total 0"), "dump:\n{text}");

    // Released ⇒ journaled ⇒ executed exactly once: every job has
    // exactly one Run entry despite the reassignment.
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean);
    let mut ids = run_ids(&entries);
    ids.sort_unstable();
    assert_eq!(ids, (0..12).map(JobId).collect::<Vec<_>>());
}

#[test]
fn a_fault_reassigns_only_the_job_its_worker_was_running() {
    quiet_injected_panics();
    let jobs = batch(12);
    let baseline = service77(1, None).process(&jobs);

    // One worker pulls the paused backlog eight jobs at a time, so each
    // panic stops it with unstarted batch-mates in hand. They requeue
    // without having run; only the panicked job is reassigned.
    let mut service = service77(1, None);
    let faults = WorkerFaultSchedule::none()
        .panic_on(JobId(1))
        .panic_on(JobId(4))
        .panic_on(JobId(9));
    let stream = service.stream(IngestConfig::new(1).paused().with_worker_faults(faults));
    stream.submit_all(&jobs).expect("queue sized for batch");
    stream.resume();
    assert_eq!(stream.finish(), baseline);
    let ops = service.metrics();
    assert_eq!(ops.get("fleet_worker_restarts_total", &[]), Some(3.0));
    assert_eq!(ops.get("fleet_jobs_reassigned_total", &[]), Some(3.0));
}

#[test]
fn a_dropped_stream_keeps_its_ops_counters() {
    quiet_injected_panics();
    let mut service = service77(1, None);
    let config =
        IngestConfig::new(1).with_worker_faults(WorkerFaultSchedule::none().panic_on(JobId(0)));
    let stream = service.stream(config);
    stream
        .submit(batch(1)[0].clone())
        .expect("queue sized for batch");
    // Never pumped and never finished: the restart is known only to the
    // session until the drop folds it into the service.
    while stream.stats().worker_restarts < 1 {
        std::thread::yield_now();
    }
    drop(stream);
    let restarts = service.metrics().get("fleet_worker_restarts_total", &[]);
    assert_eq!(restarts, Some(1.0));
}

// ---------------------------------------------------------------------------
// Wrong result: completion verification catches the lying executor
// ---------------------------------------------------------------------------

#[test]
fn lying_executor_is_rejected_by_quote_verification_and_job_reexecuted() {
    let jobs = batch(8);
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs);
    let baseline_metering = baseline.metering().render();

    let mut service = service77(2, None);
    let config = IngestConfig::new(2)
        .with_worker_faults(WorkerFaultSchedule::none().wrong_result_on(JobId(2)));
    let stream = service.stream(config);
    for job in &jobs {
        stream.submit(job.clone()).expect("queue sized for batch");
    }
    let report = stream.finish();

    // The corrupted record never released: the attestation quote's MAC
    // covers the honest usage, so the inflated bill failed verification,
    // the worker was reaped, and the honest re-execution released.
    assert_eq!(report, baseline_report);
    assert_eq!(service.metering().render(), baseline_metering);
    let text = service.metrics_text();
    assert!(
        text.contains("fleet_worker_restarts_total 1"),
        "dump:\n{text}"
    );
}

// ---------------------------------------------------------------------------
// Poison: individually quarantined, journaled, fleet keeps flowing
// ---------------------------------------------------------------------------

#[test]
fn poison_job_is_retired_with_a_journaled_verdict_while_the_fleet_flows() {
    quiet_injected_panics();
    let jobs = batch(12);
    // The baseline is the same batch without the poison job: everything
    // else must bill and audit exactly as if the poison never existed.
    let poison = JobId(6);
    let healthy: Vec<JobSpec> = jobs.iter().filter(|j| j.id != poison).cloned().collect();
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&healthy);

    let journal = Journal::in_memory();
    let mut service = service77(2, Some(journal.clone()));
    let config = IngestConfig::new(2)
        .with_supervisor(SupervisorPolicy::default().with_max_job_attempts(2))
        .with_worker_faults(WorkerFaultSchedule::none().poison_on(poison));
    let stream = service.stream(config);
    for job in &jobs {
        stream.submit(job.clone()).expect("queue sized for batch");
    }
    let report = stream.finish();

    // Tenant-visible verdict: the poison job is named, with its attempt
    // count; everything else completed and billed bit-identically.
    let poisoned = stream_poisoned_after_finish(&journal);
    assert_eq!(poisoned.len(), 1);
    assert_eq!(poisoned[0].spec.id, poison);
    assert_eq!(poisoned[0].attempts, 2);
    assert_eq!(report.records.len(), 11);
    assert_eq!(report, baseline_report);

    // The verdict is part of the evidence: a chained Poisoned entry in
    // release order, retiring its Accepted marker on replay.
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(count_entries(&entries, "poisoned"), 1);
    assert_eq!(count_entries(&entries, "accepted"), 12);
    assert_eq!(count_entries(&entries, "run"), 11);
    let released: Vec<(&str, Option<JobId>)> = entries
        .iter()
        .filter(|e| matches!(e.label(), "run" | "poisoned"))
        .map(|e| (e.label(), e.job()))
        .collect();
    let at = released
        .iter()
        .position(|(label, _)| *label == "poisoned")
        .expect("the verdict is journaled");
    assert_eq!(released[at - 1], ("run", Some(JobId(5))));
    assert_eq!(released[at + 1], ("run", Some(JobId(7))));
    let mut recovered = service77(2, None);
    let recovery = recovered.recover(&entries).expect("replay the journal");
    assert!(recovery.is_consistent());
    assert_eq!(recovery.poisoned, 1);
    assert_eq!(recovery.runs_replayed, 11);
    assert!(
        recovery.unreleased.is_empty(),
        "the poison verdict resolves its accepted entry"
    );
    assert_eq!(recovered.ledger(), &baseline_report.ledger);

    // And it is visible where operators look.
    let text = service.metrics_text();
    assert!(text.contains("fleet_poison_jobs_total 1"), "dump:\n{text}");
    assert!(
        text.contains("fleet_worker_restarts_total 2"),
        "dump:\n{text}"
    );
}

/// Reads the released poison verdicts back out of the journal — the
/// stream was consumed by `finish`, and the journal is the authoritative
/// record anyway.
fn stream_poisoned_after_finish(journal: &Journal) -> Vec<PoisonNotice> {
    let (entries, _) = journal.entries().unwrap();
    entries
        .iter()
        .filter_map(|e| match e {
            JournalEntry::Poisoned(notice) => Some(notice.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn poison_verdict_is_queryable_on_the_ingest_outcome() {
    quiet_injected_panics();
    let poison = JobId(1);
    let config = IngestConfig::new(1)
        .with_supervisor(SupervisorPolicy::default().with_max_job_attempts(3))
        .with_worker_faults(WorkerFaultSchedule::none().poison_on(poison));
    let mut service = service77(1, None);
    let mut stream = service.stream(config);
    for job in batch(4) {
        stream.submit(job).expect("queue sized for batch");
    }
    // The verdict releases in submission order, right behind job 0.
    while stream.poisoned().is_empty() {
        stream.pump();
        std::thread::yield_now();
    }
    let poisoned = stream.poisoned();
    let report = stream.finish();
    assert_eq!(poisoned.len(), 1);
    assert_eq!(poisoned[0].spec.id, poison);
    assert_eq!(poisoned[0].attempts, 3);
    assert!(report.records.iter().any(|r| r.job.id == JobId(0)));
    assert!(!report.records.iter().any(|r| r.job.id == JobId(99)));
    assert!(!poisoned.iter().any(|n| n.spec.id == JobId(99)));
    assert_eq!(report.records.len(), 3);
    let ops = service.metrics();
    assert_eq!(ops.get("fleet_poison_jobs_total", &[]), Some(1.0));
    assert_eq!(ops.get("fleet_worker_restarts_total", &[]), Some(3.0));
}

// ---------------------------------------------------------------------------
// Restart budget: degrade, die, revive
// ---------------------------------------------------------------------------

#[test]
fn a_fault_past_the_restart_budget_retires_its_worker_and_the_pool_degrades() {
    quiet_injected_panics();
    let jobs = batch(8);
    let baseline = service77(2, None).process(&jobs);

    let mut service = service77(2, None);
    let config = IngestConfig::new(2)
        .paused()
        .with_supervisor(SupervisorPolicy::default().with_max_restarts(0))
        .with_worker_faults(WorkerFaultSchedule::none().panic_on(JobId(0)));
    let stream = service.stream(config);
    stream.submit_all(&jobs).expect("queue sized for batch");
    stream.resume();
    // The worker that panics on job 0 has no restart to spend: its batch
    // is reassigned without a restart, it retires, and the survivor
    // carries the pool — degraded, not dead.
    let health = loop {
        let health = stream.health();
        if health.reassigned >= 1 {
            break health;
        }
        std::thread::yield_now();
    };
    assert_eq!(health.workers_live, 1);
    assert!(!health.quarantined);
    assert!(!health.workers_dead);
    assert_eq!(health.worker_restarts, 0);
    assert_eq!(stream.finish(), baseline);
}

#[test]
fn spent_restart_budget_quarantines_the_dead_pool_and_scale_to_revives_it() {
    quiet_injected_panics();
    let config = IngestConfig::new(1)
        .with_supervisor(SupervisorPolicy::default().with_max_restarts(0))
        .with_worker_faults(WorkerFaultSchedule::none().panic_on(JobId(0)));
    let mut service = service77(1, None);
    let mut stream = service.stream(config.clone());
    for job in batch(3) {
        stream.submit(job).expect("queue sized for batch");
    }
    // The only worker dies with a zero restart budget: the fleet is
    // workers-dead and quarantined, observably.
    let health = loop {
        let health = stream.health();
        if health.workers_dead {
            break health;
        }
        std::thread::yield_now();
    };
    assert!(health.quarantined);
    assert_eq!(health.workers_live, 0);
    assert!(health
        .last_error
        .as_deref()
        .is_some_and(|e| e.contains("restart budget")));
    assert_eq!(
        stream.submit(batch(4)[3].clone()),
        Err(SubmitError::Quarantined)
    );

    // A fresh pool revives the fleet; the panicked job's second attempt
    // is clean, so the full backlog drains.
    stream.scale_workers(1);
    let health = stream.health();
    assert!(!health.workers_dead);
    assert!(!health.quarantined);
    let report = stream.finish();
    assert_eq!(report.records.len(), 3);
    // The dead worker's whole in-flight batch reclaims: the panicked job
    // plus any unstarted batch-mates it had popped alongside it.
    let ops = service.metrics();
    assert!(ops.get("fleet_jobs_reassigned_total", &[]) >= Some(1.0));
    assert_eq!(ops.get("fleet_poison_jobs_total", &[]), Some(0.0));

    // Once more, pumping while the pool is dead: the revived session
    // finishes like an unfaulted run.
    let baseline = service77(1, None).process(&batch(3));
    let mut service = service77(1, None);
    let mut stream = service.stream(config);
    stream.submit_all(&batch(3)).expect("queue sized for batch");
    while !stream.health().workers_dead {
        stream.pump();
        std::thread::yield_now();
    }
    assert!(stream.health().quarantined);
    stream.scale_workers(1);
    assert!(!stream.health().quarantined);
    assert_eq!(stream.finish(), baseline);
    let reassigned = service.metrics().get("fleet_jobs_reassigned_total", &[]);
    assert!(reassigned >= Some(1.0), "reassigned: {reassigned:?}");
}

/// A service whose journal fills on line 3, the first `Run` line.
fn disk_full_service() -> FleetService {
    let (sink, _probe) = FaultInjectingSink::wrap(
        Box::new(MemorySink::new()),
        FaultSchedule::none().disk_full_at(3),
    );
    service77(1, Some(Journal::with_sink(Box::new(sink))))
}

/// Brings both causes of quarantine about at once. The disk fills on the
/// first release, so jobs 0 and 1 are parked; then job 2 panics the only
/// worker, which has no restart budget, so the pool dies too.
fn failed_journal_and_dead_pool(service: &mut FleetService) -> FleetStream<'_> {
    quiet_injected_panics();
    let config = IngestConfig::new(1)
        .paused()
        .with_completion_watermark(2)
        .with_retry_policy(RetryPolicy::none())
        .with_supervisor(SupervisorPolicy::default().with_max_restarts(0))
        .with_worker_faults(WorkerFaultSchedule::none().panic_on(JobId(2)));
    let mut stream = service.stream(config);
    stream
        .submit_all(&batch(3))
        .expect("the Accepted lines precede the fault");
    stream.resume();
    // The watermark holds job 2 back until jobs 0 and 1 leave the
    // completion log; their release finds the disk full.
    while stream.stats().ready < 2 {
        std::thread::yield_now();
    }
    assert_eq!(stream.pump(), 0);
    while !stream.health().workers_dead {
        std::thread::yield_now();
    }
    stream
}

#[test]
fn reviving_a_dead_pool_leaves_a_failed_journal_quarantined() {
    let mut service = disk_full_service();
    let mut stream = failed_journal_and_dead_pool(&mut service);

    stream.scale_workers(1);
    let health = stream.health();
    assert!(!health.workers_dead, "{health:?}");
    assert!(health.quarantined, "{health:?}");
    assert_eq!(health.stalled, 2, "{health:?}");
    assert!(
        health
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("disk-full")),
        "{health:?}"
    );
    assert_eq!(
        stream.submit(batch(4)[3].clone()),
        Err(SubmitError::Quarantined)
    );

    // The failover lifts the journal's cause; the parked jobs release,
    // and the revived worker runs job 2.
    stream
        .resume_with_sink(Box::new(MemorySink::new()))
        .expect("the fresh sink takes the failover");
    assert!(!stream.health().quarantined);
    let report = stream.finish();
    assert_eq!(report.records.len(), 3);
}

#[test]
fn a_failover_leaves_a_dead_pool_quarantined() {
    let mut service = disk_full_service();
    let mut stream = failed_journal_and_dead_pool(&mut service);

    // The failover succeeds and lifts the journal's cause only: with no
    // worker left the pipeline stays quarantined and releases nothing.
    stream
        .resume_with_sink(Box::new(MemorySink::new()))
        .expect("the fresh sink takes the failover");
    let health = stream.health();
    assert!(health.workers_dead, "{health:?}");
    assert!(health.quarantined, "{health:?}");
    assert_eq!(health.stalled, 2, "{health:?}");
    assert!(
        health
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("restart budget")),
        "{health:?}"
    );

    // Reviving the pool lifts the last cause.
    stream.scale_workers(1);
    assert!(!stream.health().quarantined);
    let report = stream.finish();
    assert_eq!(report.records.len(), 3);
}

#[test]
fn a_spent_restart_budget_is_never_refilled() {
    // The restart budget is a count per session that nothing refills.
    // Both jobs panic the only worker: the first fault gets the one
    // restart, and the second retires the pool.
    quiet_injected_panics();
    let mut service = service77(1, None);
    let config = IngestConfig::new(1)
        .paused()
        .with_supervisor(SupervisorPolicy::default().with_max_restarts(1))
        .with_worker_faults(
            WorkerFaultSchedule::none()
                .panic_on(JobId(0))
                .panic_on(JobId(1)),
        );
    let stream = service.stream(config);
    stream.submit_all(&batch(2)).expect("queue sized for batch");
    stream.resume();
    while !stream.health().workers_dead && stream.stats().completed < 2 {
        std::thread::yield_now();
    }
    let health = stream.health();
    assert_eq!(health.worker_restarts, 1, "{health:?}");
    assert!(health.workers_dead, "{health:?}");
}

// ---------------------------------------------------------------------------
// Satellite: submit_all never journals an Accepted line for rejected jobs
// ---------------------------------------------------------------------------

#[test]
fn submit_all_journals_accepted_lines_only_for_the_admitted_prefix() {
    let jobs = batch(6);
    let journal = Journal::in_memory();
    // Capacity 4, Reject, paused: the first 4 jobs are admitted (and
    // journaled) as one slice; the queue is then exactly full, so the
    // remaining 2 are rejected — the exact mid-batch boundary.
    let config = IngestConfig::new(1)
        .with_capacity(4)
        .with_backpressure(BackpressurePolicy::Reject)
        .paused();
    let mut service = service77(1, Some(journal.clone()));
    let stream = service.stream(config);
    let err = stream.submit_all(&jobs).expect_err("two jobs do not fit");
    assert_eq!(err.accepted, vec![0, 1, 2, 3]);
    assert_eq!(err.error, SubmitError::QueueFull);

    // The write-ahead Accepted group commit covers exactly the admitted
    // slice — a rejected job must never acquire a durable acceptance.
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(count_entries(&entries, "accepted"), 4);
    let accepted_ids: Vec<JobId> = entries.iter().filter_map(|e| e.job()).collect();
    assert_eq!(accepted_ids, (0..4).map(JobId).collect::<Vec<_>>());

    // The admitted prefix runs; recovery sees a fully resolved journal.
    stream.resume();
    let report = stream.finish();
    assert_eq!(report.records.len(), 4);
    let rejected = service.metrics().get("fleet_submissions_rejected", &[]);
    assert_eq!(rejected, Some(2.0));
    let (entries, _) = journal.entries().unwrap();
    assert_eq!(count_entries(&entries, "accepted"), 4);
    assert_eq!(count_entries(&entries, "run"), 4);
}

#[test]
fn submit_all_exactly_at_capacity_is_fully_admitted() {
    let jobs = batch(4);
    let journal = Journal::in_memory();
    let config = IngestConfig::new(1)
        .with_capacity(4)
        .with_backpressure(BackpressurePolicy::Reject)
        .paused();
    let mut service = service77(1, Some(journal.clone()));
    let stream = service.stream(config);
    let seqs = stream.submit_all(&jobs).expect("batch exactly fits");
    assert_eq!(seqs, vec![0, 1, 2, 3]);
    let (entries, _) = journal.entries().unwrap();
    assert_eq!(count_entries(&entries, "accepted"), 4);
    stream.resume();
    assert_eq!(stream.finish().records.len(), 4);
}

// ---------------------------------------------------------------------------
// Property: random poison-free schedules leave no trace in any artifact
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Whatever a poison-free schedule injects — panics, lying
    /// executors — at 1, 2 or 8 workers, the released
    /// report, the ledger, the metering exposition and the raw journal
    /// bytes are bit-identical to the unfaulted run, every job executes
    /// (and bills) exactly once, and no panic escapes the pool.
    #[test]
    fn random_worker_fault_schedules_leave_every_artifact_bit_identical(
        seed in 0u64..1_000_000,
        workers_idx in 0usize..3,
        n in 4u64..12,
    ) {
        quiet_injected_panics();
        let workers = [1usize, 2, 8][workers_idx];
        let jobs = batch(n);
        let schedule = WorkerFaultSchedule::random(seed ^ chaos_seed(), n);

        let (clean_report, clean_metering, clean_bytes) =
            stream_with_faults(&jobs, workers, WorkerFaultSchedule::none());
        let (report, metering, bytes) = stream_with_faults(&jobs, workers, schedule);

        prop_assert_eq!(&report, &clean_report);
        prop_assert_eq!(&metering, &clean_metering);
        prop_assert_eq!(&bytes, &clean_bytes);

        // Executed exactly once: one Run entry per job, despite any
        // reassignments and re-executions behind the scenes.
        let (entries, tail) = parse_journal(&bytes).map_err(|e| {
            TestCaseError::fail(format!("journal must parse back: {e}"))
        })?;
        prop_assert_eq!(tail, TailStatus::Clean);
        let mut ids = run_ids(&entries);
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n).map(JobId).collect::<Vec<_>>());
    }
}
