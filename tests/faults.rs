//! Fault-injection tests: the journal pipeline under a hostile disk.
//!
//! Every failure mode is driven through [`FaultInjectingSink`] with a
//! deterministic schedule, so each scenario reproduces byte for byte:
//! transient `EIO`s absorbed by the retry policy, terminal faults
//! (permanent / disk-full / torn / crash) that quarantine the pipeline,
//! failover to a fresh sink with chain continuity, and submission-side
//! recovery — `Accepted`-but-unreleased jobs resubmitted deterministically
//! after a kill. The property tests drive seeded *random* schedules and
//! hold the core invariants: no panic, released ⇒ journaled, and
//! post-failover recovery bit-identical at 1/2/8 workers.

use proptest::prelude::*;
use trustmeter::prelude::*;

const SCALE: f64 = 0.001;

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

/// A service on seed 77 with the four test tenants registered, optionally
/// journaled — recovery requires the restarted service to be configured
/// like the original.
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

/// An in-memory journal behind a fault-injecting wrapper.
fn faulty_journal(schedule: FaultSchedule) -> (Journal, FaultProbe) {
    let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
    let journal = Journal::with_sink(Box::new(sink)).expect("fresh sink opens");
    (journal, probe)
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

// ---------------------------------------------------------------------------
// Quarantine: exhausted retries stop releases, observably
// ---------------------------------------------------------------------------

#[test]
fn quarantine_is_observable_and_releases_nothing_unjournaled() {
    let jobs = batch(6);
    // The 6 Accepted lines land at 0..=5; the first Run group commit
    // starts at line 6 and hits a full disk that never clears.
    let (journal, probe) = faulty_journal(FaultSchedule::none().disk_full_at(6));
    let mut service = service77(2, Some(journal.clone()));
    let retry = RetryPolicy::new(2).with_base_ticks(1);
    let mut stream = service.stream(IngestConfig::new(2).with_retry_policy(retry));
    for job in &jobs {
        stream
            .submit(job.clone())
            .expect("accepted lines precede the fault");
    }
    while !stream.health().quarantined {
        stream.pump();
        std::thread::yield_now();
    }

    let health = stream.health();
    assert_eq!(health.journal_failures, 1);
    assert_eq!(health.retries, 1, "2 attempts = 1 retry before exhaustion");
    assert!(health.stalled >= 1, "the failed batch is parked, not lost");
    assert_eq!(health.pending_accepted, 6);
    assert!(health
        .last_error
        .expect("quarantine records the error")
        .contains("disk-full"));

    // Submissions fail fast, and pumping releases nothing.
    assert_eq!(
        stream.submit(jobs[0].clone()),
        Err(SubmitError::Quarantined)
    );
    assert_eq!(stream.pump(), 0);

    // finish() still joins every worker, but the billing boundary stayed
    // closed: nothing was released, because nothing could be journaled.
    let report = stream.finish();
    assert!(report.records.is_empty(), "quarantine released nothing");
    assert!(report.ledger.iter().next().is_none(), "nothing was billed");

    // The quarantine is observable in the metrics exposition.
    let text = service.metrics_text();
    assert!(text.contains("fleet_quarantined 1"), "dump:\n{text}");
    assert!(
        text.contains("fleet_journal_failures_total 1"),
        "dump:\n{text}"
    );
    assert!(
        text.contains("fleet_journal_retries_total 1"),
        "dump:\n{text}"
    );

    // The dead sink still serves reads — recovery tooling must be able to
    // inspect what made it to disk: the accepted backlog, and no runs.
    assert!(probe.is_dead());
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(entries.len(), 6);
    assert!(entries.iter().all(|e| e.label() == "accepted"));
}

#[test]
fn failed_batch_commit_panics_without_billing_and_keeps_the_accepted_lines() {
    let jobs = batch(6);
    // `process` journals the 6 Accepted lines first; the Run group commit
    // starts at line 6 and hits a device that never comes back.
    let (journal, probe) = faulty_journal(FaultSchedule::none().permanent_at(jobs.len() as u64));
    let mut service = service77(2, Some(journal.clone()));
    let processed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        service.process(&jobs);
    }));
    assert!(processed.is_err(), "an unjournaled batch must not return");
    assert!(probe.is_dead());
    assert!(
        service.ledger().iter().next().is_none(),
        "nothing was billed"
    );

    // The submission side was write-ahead: every job is on the journal as
    // Accepted, and recovery hands all of them back for resubmission.
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(entries.len(), jobs.len());
    assert_eq!(count_entries(&entries, "accepted"), jobs.len());
    let mut recovered = service77(2, None);
    let recovery = recovered
        .recover(&entries)
        .expect("replay the accepted lines");
    assert_eq!(recovery.runs_replayed, 0);
    assert_eq!(recovery.unreleased, jobs);
}

// ---------------------------------------------------------------------------
// Failover: drain the stalled prefix, recover bit-identically
// ---------------------------------------------------------------------------

#[test]
fn failover_recovery_is_bit_identical_across_1_2_8_workers() {
    let jobs = batch(12);
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs);
    let baseline_metering = metering_exposition(&baseline.metrics_text());

    let mut recovered_expositions = Vec::new();
    for workers in [1usize, 2, 8] {
        // The 12 Accepted lines land first; the first Run commit (line 12)
        // hits a permanent device failure with no retries to soften it.
        let (journal, probe) = faulty_journal(FaultSchedule::none().permanent_at(12));
        let mut service = service77(workers, Some(journal.clone()));
        let config = IngestConfig::new(workers).with_retry_policy(RetryPolicy::none());
        let mut stream = service.stream(config);
        for job in &jobs {
            stream
                .submit(job.clone())
                .expect("accepted lines precede the fault");
        }
        while !stream.health().quarantined {
            stream.pump();
            std::thread::yield_now();
        }
        assert!(probe.is_dead());
        assert!(stream.health().stalled >= 1);

        // Fail over to a fresh sink: the stalled prefix drains with chain
        // continuity, and the session returns to normal operation.
        stream
            .resume_with_sink(Box::new(MemorySink::new()))
            .expect("fresh sink accepts the failover");
        assert!(!stream.health().quarantined);
        let report = stream.finish();
        assert_eq!(
            report, baseline_report,
            "failover must not perturb results at {workers} workers"
        );
        let text = service.metrics_text();
        assert_eq!(metering_exposition(&text), baseline_metering);
        assert!(text.contains("fleet_quarantined 0"), "dump:\n{text}");
        assert!(
            text.contains("fleet_journal_failures_total 1"),
            "dump:\n{text}"
        );

        // The replacement sink replays *standalone*: it leads with a
        // checkpoint (the one entry allowed to adopt a foreign chain
        // anchor), then the re-journaled accepted backlog, then the
        // drained runs and their receipts.
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(entries[0].label(), "checkpoint");
        assert_eq!(count_entries(&entries, "accepted"), 12);
        assert_eq!(count_entries(&entries, "run"), 12);

        let mut recovered = service77(workers, None);
        let recovery = recovered
            .recover_latest(&entries)
            .expect("failover sink replays standalone");
        assert!(
            recovery.is_consistent(),
            "mismatches: {:?}",
            recovery.mismatches
        );
        assert_eq!(recovery.runs_replayed, 12);
        assert_eq!(recovery.accepted, 12);
        assert!(
            recovery.unreleased.is_empty(),
            "every accepted job released"
        );
        assert_eq!(recovered.ledger(), &baseline_report.ledger);
        let recovered_metering = metering_exposition(&recovered.metrics_text());
        assert_eq!(
            recovered_metering, baseline_metering,
            "recovered metering exposition must be byte-identical at {workers} workers"
        );
        recovered_expositions.push(recovered_metering);
    }
    assert_eq!(recovered_expositions[0], recovered_expositions[1]);
    assert_eq!(recovered_expositions[0], recovered_expositions[2]);
}

// ---------------------------------------------------------------------------
// Submission-side durability: Accepted entries survive the kill
// ---------------------------------------------------------------------------

#[test]
fn accepted_resubmission_reproduces_the_uninterrupted_run() {
    let jobs = batch(12);
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs);
    let baseline_metering = metering_exposition(&baseline.metrics_text());

    // Stream the first half to release, accept the second half, then kill
    // the process before anything more is released.
    let journal = Journal::in_memory();
    let mut service = service77(4, Some(journal.clone()));
    {
        let mut stream = service.stream(IngestConfig::new(4));
        for job in &jobs[..6] {
            stream.submit(job.clone()).expect("queue sized for batch");
        }
        while stream.verdicts().len() < 6 {
            stream.pump();
            std::thread::yield_now();
        }
        for job in &jobs[6..] {
            stream.submit(job.clone()).expect("queue sized for batch");
        }
        // Dropping the stream here is the kill: jobs 6..12 were accepted
        // (journaled write-ahead at submit) but never released.
    }
    drop(service);

    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(count_entries(&entries, "accepted"), 12);
    assert_eq!(count_entries(&entries, "run"), 6);

    // A restarted service replays the journal; the recovery report hands
    // back exactly the accepted-but-unreleased specs, in submission order.
    let mut recovered = service77(4, None);
    let recovery = recovered.recover(&entries).expect("replay the journal");
    assert!(recovery.is_consistent());
    assert_eq!(recovery.runs_replayed, 6);
    assert_eq!(recovery.accepted, 12);
    assert_eq!(recovery.unreleased, &jobs[6..]);

    // Resubmitting them reproduces the uninterrupted run bit for bit:
    // same records, same ledger, same metering exposition.
    let resumed_report = recovered.process(&recovery.unreleased);
    assert_eq!(
        resumed_report.records.as_slice(),
        &baseline_report.records[6..],
        "re-executed records must be bit-identical"
    );
    assert_eq!(recovered.ledger(), &baseline_report.ledger);
    assert_eq!(
        metering_exposition(&recovered.metrics_text()),
        baseline_metering,
        "recovered-then-resubmitted metering exposition must be byte-identical"
    );
}

// ---------------------------------------------------------------------------
// Property: random fault schedules, pipeline level
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the seeded schedule injects — transient bursts, a mid-run
    /// disk-full, a torn batch, a crash point — the pipeline never panics,
    /// never releases a record whose Run entry was not journaled, and
    /// after failover(s) the finished report and the recovered state are
    /// bit-identical to the clean batch run at 1, 2 and 8 workers.
    #[test]
    fn random_fault_schedules_never_panic_or_release_unjournaled(
        seed in 0u64..1_000_000,
        workers_idx in 0usize..3,
        n in 4u64..10,
    ) {
        let workers = [1usize, 2, 8][workers_idx];
        let jobs = batch(n);
        let mut baseline = service77(4, None);
        let baseline_report = baseline.process(&jobs);

        let schedule = FaultSchedule::random(seed, n * 4);
        let (journal, _probe) = faulty_journal(schedule);
        let mut service = service77(workers, Some(journal.clone()));
        let retry = RetryPolicy::new(3).with_base_ticks(1).with_seed(seed);
        let mut stream = service.stream(IngestConfig::new(workers).with_retry_policy(retry));

        // Runs journaled before any failover discarded the sink they
        // landed on — collect them as each epoch ends.
        let mut journaled: std::collections::BTreeSet<JobId> =
            std::collections::BTreeSet::new();
        let harvest = |journal: &Journal, journaled: &mut std::collections::BTreeSet<JobId>| {
            let (entries, _tail) = journal.entries().expect("dead sinks still serve reads");
            journaled.extend(run_ids(&entries));
        };

        for job in &jobs {
            loop {
                match stream.submit(job.clone()) {
                    Ok(_) => break,
                    Err(SubmitError::Quarantined) => {
                        harvest(&journal, &mut journaled);
                        stream
                            .resume_with_sink(Box::new(MemorySink::new()))
                            .expect("fresh sink accepts the failover");
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
        let mut spins = 0u32;
        while stream.verdicts().len() < n as usize {
            if stream.health().quarantined {
                harvest(&journal, &mut journaled);
                stream
                    .resume_with_sink(Box::new(MemorySink::new()))
                    .expect("fresh sink accepts the failover");
            }
            stream.pump();
            std::thread::yield_now();
            spins += 1;
            prop_assert!(spins < 1_000_000, "pipeline wedged under schedule {seed}");
        }
        let report = stream.finish();
        prop_assert_eq!(&report, &baseline_report);

        // Released ⇒ journaled: every released record has a Run entry on
        // some epoch's sink.
        let (entries, _tail) = journal.entries().unwrap();
        journaled.extend(run_ids(&entries));
        for record in &report.records {
            prop_assert!(
                journaled.contains(&record.job.id),
                "job {} released without a journaled Run entry",
                record.job.id
            );
        }

        // The final sink recovers standalone into the same state.
        let mut recovered = service77(workers, None);
        let recovery = recovered.recover_latest(&entries).expect("replay final sink");
        prop_assert!(recovery.unreleased.is_empty());
        prop_assert_eq!(recovered.ledger(), &baseline_report.ledger);
        prop_assert_eq!(
            metering_exposition(&recovered.metrics_text()),
            metering_exposition(&baseline.metrics_text())
        );
    }

    /// Random fault schedules interleaved with journal-level operations —
    /// appends, checkpoint rotations (which retire segments), seals — over
    /// a real segmented directory: nothing panics, every committed line
    /// parses back, and a torn tail is confined to the live head segment.
    #[test]
    fn random_faults_over_segmented_journal_ops_never_panic(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(0u8..4u8, 4..24),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "trustmeter-faults-props-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let inner = SegmentedFileSink::open(
            &dir,
            SegmentConfig::default().with_segment_bytes(512),
        )
        .expect("open segment dir");
        let (sink, probe) = FaultInjectingSink::wrap(
            Box::new(inner),
            FaultSchedule::random(seed, 24),
        );
        let journal = Journal::with_sink(Box::new(sink)).expect("fresh sink opens");

        // A small pool of real run records to append.
        let records = service77(1, None).process(&batch(3)).records;

        // Expected parseable lines: appends since the last successful
        // checkpoint (checkpoints retire the segments before them), plus
        // that checkpoint itself.
        let mut expected_lines = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match op % 4 {
                0 => {
                    let spec = JobSpec::clean(1000 + i as u64, TenantId(1), Workload::LoopO, SCALE);
                    if journal.append_batch(&[JournalEntry::accepted(spec)]).is_ok() {
                        expected_lines += 1;
                    }
                }
                1 => {
                    let record = records[i % records.len()].clone();
                    if journal.append_batch(&[JournalEntry::run(record)]).is_ok() {
                        expected_lines += 1;
                    }
                }
                2 => {
                    if journal
                        .append_batch(&[JournalEntry::checkpoint(Checkpoint::default())])
                        .is_ok()
                    {
                        expected_lines = 1;
                    }
                }
                _ => {
                    // Sealing may fail on a dead sink; either way, no
                    // chain line is written.
                    let _ = journal.seal();
                }
            }
        }

        // Reads pass through even when the sink is dead: the committed
        // prefix parses back, chain intact, with at most a torn tail.
        let (entries, tail) = journal.entries().expect("committed prefix parses");
        prop_assert_eq!(entries.len(), expected_lines);
        if tail.is_truncated() {
            prop_assert!(probe.is_dead(), "only a torn fault truncates the tail");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
