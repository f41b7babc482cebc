//! Surviving the workers: executor fault injection, watchdog supervision,
//! deterministic reassignment and poison-job quarantine.
//!
//! The disk-fault demo (`fleet_faults`) killed the journal; this one kills
//! the *executors*. A seeded [`WorkerFaultSchedule`] drives the whole
//! supervision story:
//!
//! 1. a worker **panics** mid-batch: the unwind guard reaps it, the
//!    supervisor respawns a replacement, and the dead worker's in-flight
//!    batch is reassigned and re-executed — deterministically, because a
//!    job's seed derives from (fleet seed, job id), not from which worker
//!    runs it;
//! 2. a worker **hangs**: no wall clock is consulted — the virtual-tick
//!    deadline watchdog catches it the tick its per-job deadline passes,
//!    and the job is reassigned the same way;
//! 3. a worker **lies**, inflating the victim's bill: completion
//!    verification replays the attestation quote MAC over the claimed
//!    usage, rejects the record, reaps the liar, and re-executes honestly;
//! 4. the finished report, ledger and metering exposition are
//!    **bit-identical** to a clean run — every job ran (and billed)
//!    exactly once, per the journal;
//! 5. a **poison job** that kills every worker that touches it is retired
//!    after `max_job_attempts` with a journaled, chained `Poisoned`
//!    verdict — the rest of the fleet keeps flowing and bills exactly as
//!    if the poison had never been submitted;
//! 6. a pool that dies with its restart budget spent **quarantines**
//!    (fail-fast submits, `workers_dead` in health) until the operator
//!    revives it with `scale_to`.
//!
//! ```text
//! cargo run --release --example fleet_chaos
//! ```

use trustmeter::prelude::*;

const SCALE: f64 = 0.002;
const JOBS: u64 = 16;
const SEED: u64 = 0xC4A0;

fn jobs() -> Vec<JobSpec> {
    (0..JOBS)
        .map(|id| {
            let tenant = TenantId((id % 4) as u32 + 1);
            let workload = Workload::ALL[(id % 4) as usize];
            if tenant.0 == 2 {
                JobSpec::attacked(id, tenant, workload, SCALE, AttackSpec::Shell)
            } else {
                JobSpec::clean(id, tenant, workload, SCALE)
            }
        })
        .collect()
}

fn build_service(journal: Option<Journal>) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(4, SEED));
    for (id, name) in [
        (1, "acme"),
        (2, "shelled-inc"),
        (3, "initech"),
        (4, "hooli"),
    ] {
        service.register(Tenant::new(
            TenantId(id),
            name,
            RateCard::per_cpu_hour(0.10),
        ));
    }
    match journal {
        Some(journal) => service.with_journal(journal),
        None => service,
    }
}

/// Injected worker panics are the point of the demo; keep them off the
/// terminal and let anything unexpected through.
fn quiet_injected_panics() {
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
}

fn main() {
    quiet_injected_panics();

    // Ground truth: the same batch on an unfaulted service.
    let mut clean = build_service(None);
    let clean_report = clean.process(&jobs());
    let clean_metering = metering_exposition(&clean.metrics_text());

    // ---- 1-3. Panic, hang, lie — one schedule, one stream ---------------
    let schedule = WorkerFaultSchedule::none()
        .panic_on(JobId(3))
        .hang_on(JobId(7), 50_000)
        .wrong_result_on(JobId(11));
    let journal = Journal::in_memory();
    let mut service = build_service(Some(journal.clone()));
    let config = IngestConfig::new(2)
        .with_job_deadline(4)
        .with_worker_faults(schedule);
    let mut stream = service.stream(config);
    for job in jobs() {
        stream.submit(job).expect("queue sized for the batch");
    }

    // The three faults each kill one worker (the hang trips the virtual-
    // tick watchdog; its spin can push slow-but-honest peers past their
    // own deadlines too, which reassigns them just as safely).
    let health = loop {
        let health = stream.health();
        if health.worker_restarts >= 3 {
            break health;
        }
        stream.pump();
        std::thread::yield_now();
    };
    println!(
        "supervisor: {} workers reaped+respawned, {} jobs reassigned, {} live",
        health.worker_restarts, health.reassigned, health.workers_live
    );
    assert!(health.reassigned >= 3, "each fault reclaimed its batch");
    assert!(!health.workers_dead);

    // ---- 4. Bit-identical finish ----------------------------------------
    let report = stream.finish();
    assert_eq!(report, clean_report, "chaos run == clean run, bit for bit");
    let text = service.metrics_text();
    assert_eq!(metering_exposition(&text), clean_metering);
    assert!(text.contains("fleet_poison_jobs_total 0"));
    println!(
        "finished: {} records; report, ledger and metering exposition \
         identical to the clean run",
        report.records.len()
    );

    // Released ⇒ journaled ⇒ executed exactly once, despite three
    // re-executions behind the scenes.
    let (entries, tail) = journal.entries().expect("journal parses back");
    assert_eq!(tail, TailStatus::Clean);
    let mut ran: Vec<JobId> = entries
        .iter()
        .filter_map(|e| match e {
            JournalEntry::Run(record) => Some(record.job.id),
            _ => None,
        })
        .collect();
    ran.sort_unstable();
    assert_eq!(ran, (0..JOBS).map(JobId).collect::<Vec<_>>());
    println!("journal: every job has exactly one Run entry");

    // ---- 5. A poison job is quarantined; the fleet keeps flowing --------
    let poison = JobId(5);
    let healthy: Vec<JobSpec> = jobs().into_iter().filter(|j| j.id != poison).collect();
    let mut baseline = build_service(None);
    let baseline_report = baseline.process(&healthy);

    let journal = Journal::in_memory();
    let mut service = build_service(Some(journal.clone()));
    let config = IngestConfig::new(2)
        .with_supervisor(SupervisorPolicy::default().with_max_job_attempts(2))
        .with_worker_faults(WorkerFaultSchedule::none().poison_on(poison));
    let stream = service.stream(config);
    for job in jobs() {
        stream.submit(job).expect("queue sized for the batch");
    }
    let report = stream.finish();
    assert_eq!(report.records.len(), JOBS as usize - 1);
    assert_eq!(
        report, baseline_report,
        "everyone else bills as if the poison never existed"
    );
    let (entries, _) = journal.entries().expect("journal parses back");
    let notice = entries
        .iter()
        .find_map(|e| match e {
            JournalEntry::Poisoned(notice) => Some(notice.clone()),
            _ => None,
        })
        .expect("the verdict is part of the evidence chain");
    assert_eq!(notice.spec.id, poison);
    println!(
        "poison job {:?} retired after {} attempts ({} workers killed), \
         verdict journaled; {} healthy records billed",
        notice.spec.id,
        notice.attempts,
        notice.attempts,
        report.records.len()
    );
    let mut recovered = build_service(None);
    let recovery = recovered.recover(&entries).expect("journal replays");
    assert!(recovery.is_consistent());
    assert_eq!(recovery.poisoned, 1);
    assert!(
        recovery.unreleased.is_empty(),
        "the Poisoned entry retires its Accepted marker"
    );
    assert_eq!(recovered.ledger(), &baseline_report.ledger);
    assert!(service.metrics_text().contains("fleet_poison_jobs_total 1"));
    println!("replay: recovery consistent, poison retired, ledger matches baseline");

    // ---- 6. Restart budget spent: dead pool, operator revival -----------
    let config = IngestConfig::new(1)
        .with_supervisor(SupervisorPolicy::default().with_max_restarts(0))
        .with_worker_faults(WorkerFaultSchedule::none().panic_on(JobId(0)));
    let mut ingest = FleetIngest::new(Fleet::new(FleetConfig::new(1, SEED)), config, None);
    for job in jobs().into_iter().take(3) {
        ingest.submit(job).expect("queue sized for the batch");
    }
    while !ingest.health().workers_dead {
        std::thread::yield_now();
    }
    let health = ingest.health();
    println!(
        "*** workers dead: {} (budget spent; submits fail fast)",
        health.last_error.as_deref().unwrap_or("?")
    );
    assert!(health.quarantined);
    assert_eq!(
        ingest.submit(JobSpec::clean(99, TenantId(1), Workload::LoopO, SCALE)),
        Err(SubmitError::Quarantined)
    );
    ingest.scale_to(1);
    assert!(
        !ingest.health().workers_dead,
        "a fresh pool lifts the quarantine"
    );
    let outcome = ingest.finish();
    assert_eq!(outcome.records.len(), 3);
    assert!(outcome.poisoned.is_empty());
    println!(
        "revived with scale_to(1): backlog drained, {} records ({} reassigned)",
        outcome.records.len(),
        outcome.stats.reassigned
    );
}
