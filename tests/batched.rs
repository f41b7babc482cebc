//! Tier-1 equivalence suite for the batched hot path: `submit_all`
//! chunked submission and bulk release must be **bit-identical** to the
//! one-job-at-a-time path — reports, ledgers, metering exposition and
//! journal bytes — at 1, 2 and 8 workers, and a batch that dies mid-way
//! on a failing journal must quarantine without billing anything it
//! never journaled.

use trustmeter::prelude::*;

const SCALE: f64 = 0.001;

/// A mixed batch: four tenants, all four workloads, a mix of clean and
/// attacked runs (mirrors the `fleet.rs` suite).
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

fn service(workers: usize) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(workers, 77));
    for id in 1..=4u32 {
        service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    service
}

/// Streams `jobs` through a fresh service, submitting per job or in
/// `submit_all` chunks of `chunk` (0 = per job), pumping between chunks
/// like a live consumer. Returns the report and the final metering
/// exposition.
fn stream_jobs(jobs: &[JobSpec], workers: usize, chunk: usize) -> (FleetReport, String) {
    let mut service = service(workers);
    let mut stream = service.stream(IngestConfig::new(workers));
    if chunk == 0 {
        for job in jobs {
            stream.submit(job.clone()).expect("queue sized for batch");
            stream.pump();
        }
    } else {
        for slice in jobs.chunks(chunk) {
            stream.submit_all(slice).expect("queue sized for batch");
            stream.pump();
        }
    }
    let report = stream.finish();
    (report, service.metering().render())
}

#[test]
fn batched_submission_is_bit_identical_to_per_job_at_1_2_8_workers() {
    let jobs = batch(24);
    let mut reference = service(4);
    let reference_report = reference.process(&jobs);
    let reference_metering = reference.metering().render();

    for workers in [1usize, 2, 8] {
        let (per_job, per_job_metering) = stream_jobs(&jobs, workers, 0);
        for chunk in [5usize, 24] {
            let (batched, batched_metering) = stream_jobs(&jobs, workers, chunk);
            // Records, verdicts and the ledger: the full report matches
            // the per-job stream and the plain batch API bit for bit.
            assert_eq!(
                batched, per_job,
                "chunk {chunk} at {workers} workers drifted from per-job"
            );
            assert_eq!(batched, reference_report);
            // The metering exposition — everything a billing consumer
            // reads — is byte-identical too.
            assert_eq!(
                batched_metering, per_job_metering,
                "metering drifted at chunk {chunk}, {workers} workers"
            );
            assert_eq!(batched_metering, reference_metering);
        }
    }
}

/// Runs a journaled stream with all submissions staged up front and the
/// pipeline paused until `finish` (which overrides the pause and drains in
/// one release), so the journal line schedule is exact: every `Accepted`
/// marker in submission order, then one `Run` group and one receipts
/// group — deterministic at any worker count. Returns the journal text.
fn journal_text(jobs: &[JobSpec], workers: usize, chunk: usize) -> String {
    let journal = Journal::in_memory();
    let mut service = service(workers).with_journal(journal.clone());
    let stream = service.stream(IngestConfig::new(workers).paused());
    if chunk == 0 {
        for job in jobs {
            stream.submit(job.clone()).expect("queue sized for batch");
        }
    } else {
        for slice in jobs.chunks(chunk) {
            stream.submit_all(slice).expect("queue sized for batch");
        }
    }
    let report = stream.finish();
    assert_eq!(report.records.len(), jobs.len());
    journal.text().expect("read back in-memory journal")
}

#[test]
fn batched_journal_bytes_match_per_job_at_1_2_8_workers() {
    let jobs = batch(24);
    let baseline = journal_text(&jobs, 1, 0);
    assert!(!baseline.is_empty());
    for workers in [1usize, 2, 8] {
        for chunk in [0usize, 5, 24] {
            assert_eq!(
                journal_text(&jobs, workers, chunk),
                baseline,
                "journal bytes drifted at chunk {chunk}, {workers} workers"
            );
        }
    }
}

#[test]
fn quarantined_batch_never_bills_and_drains_after_failover() {
    let jobs = batch(8);

    // Clean reference: the same jobs over a healthy journal.
    let mut clean = service(2).with_journal(Journal::in_memory());
    let clean_report = clean.process(&jobs);

    // Lines 0-7 are the batch's grouped `Accepted` markers; the first
    // `Run` group commit starts at line 8 and hits a dead disk with no
    // retries — the release path must quarantine with nothing billed.
    let schedule = FaultSchedule::none().disk_full_at(8);
    let (sink, _probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
    let journal = Journal::with_sink(Box::new(sink));
    let mut service = service(2).with_journal(journal);
    let mut stream = service.stream(IngestConfig::new(2).with_retry_policy(RetryPolicy::none()));
    stream.submit_all(&jobs).expect("queue sized for batch");
    while !stream.health().quarantined {
        stream.pump();
        std::thread::yield_now();
    }
    assert_eq!(
        stream.verdicts().len(),
        0,
        "nothing posted while quarantined"
    );

    // Failover to a healthy sink: the parked batch drains, and the final
    // ledger matches the clean run bit for bit.
    stream
        .resume_with_sink(Box::new(MemorySink::new()))
        .expect("failover to healthy sink");
    while stream.verdicts().len() < jobs.len() {
        stream.pump();
        std::thread::yield_now();
    }
    let report = stream.finish();
    assert_eq!(report.records.len(), jobs.len());
    assert_eq!(report.ledger, clean_report.ledger);
    assert_eq!(report.verdicts, clean_report.verdicts);
}
