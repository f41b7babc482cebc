//! Integration tests for the `trustmeter-fleet` metering service: a
//! 100+-job multi-tenant batch across ≥4 shards, ledger arithmetic,
//! shard-count determinism, the metrics exposition, the streaming
//! ingestion pipeline (backpressure, per-tenant fairness, streamed-vs-batch
//! bit-identical results), and the durability journal (write-ahead
//! persistence, crash recovery, checkpoints).

use proptest::prelude::*;
use trustmeter::prelude::*;

const SCALE: f64 = 0.001;

/// A mixed batch: four tenants, all four workloads, clean runs and a mix
/// of launch-time and runtime attacks.
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

#[test]
fn hundred_jobs_across_four_shards_bill_and_audit() {
    let jobs = batch(100);
    let mut service = FleetService::new(FleetConfig::new(4, 77));
    for id in 1..=4u32 {
        service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    let report = service.process(&jobs);
    assert_eq!(report.records.len(), 100);
    assert_eq!(report.verdicts.len(), 100);

    // Every tenant has an account; per-tenant totals equal the sum of the
    // per-run invoices, and the posted run count matches the submissions.
    let mut posted = 0;
    for account in report.ledger.iter() {
        posted += account.runs;
        assert!((account.billed_charge - account.invoice_sum()).abs() < 1e-9);
        assert_eq!(account.invoices.len() as u64, account.runs);
        assert!(account.billed_charge > 0.0);
    }
    assert_eq!(posted, 100);

    // Attacked runs are flagged, clean runs are not (ids 0,1 mod 5 attack).
    for (record, verdict) in report.records.iter().zip(&report.verdicts) {
        assert_eq!(
            record.job.attack.is_some(),
            !verdict.is_clean(),
            "job {}",
            record.job.id
        );
    }

    // The attacks inflate the fleet-wide bill above ground truth.
    assert!(report.ledger.total_billed_charge() > report.ledger.total_truth_charge());
}

#[test]
fn shard_count_does_not_change_results() {
    let jobs = batch(24);
    let run = |shards: usize| {
        FleetService::new(FleetConfig::new(shards, 123))
            .process(&jobs)
            .records
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(
        one, two,
        "1-shard and 2-shard results must be bit-identical"
    );
    assert_eq!(
        one, eight,
        "1-shard and 8-shard results must be bit-identical"
    );
}

#[test]
fn full_service_is_deterministic_across_shard_counts() {
    let jobs = batch(30);
    let run = |shards: usize| {
        let mut service = FleetService::new(FleetConfig::new(shards, 7));
        service.register(Tenant::new(TenantId(1), "a", RateCard::per_cpu_hour(0.10)));
        let report = service.process(&jobs);
        (report, service.metrics_text())
    };
    let (report_a, metrics_a) = run(1);
    let (report_b, metrics_b) = run(4);
    assert_eq!(report_a, report_b);
    assert_eq!(
        metrics_a, metrics_b,
        "metrics exposition must be byte-identical"
    );
}

#[test]
fn metrics_exposition_contains_usage_and_anomaly_counters() {
    let jobs = batch(20);
    let mut service = FleetService::new(FleetConfig::new(4, 3));
    let _ = service.process(&jobs);
    let text = service.metrics_text();
    assert!(text.contains("# TYPE cpu_usage counter"), "dump:\n{text}");
    assert!(text.contains("cpu_usage{"), "dump:\n{text}");
    assert!(text.contains("state=\"user\""), "dump:\n{text}");
    assert!(text.contains("state=\"system\""), "dump:\n{text}");
    assert!(
        text.contains("# TYPE fleet_anomalies counter"),
        "dump:\n{text}"
    );
    assert!(text.contains("kind=\"overbilled\""), "dump:\n{text}");
    assert!(text.contains("# TYPE fleet_jobs counter"), "dump:\n{text}");
}

#[test]
fn ledger_survives_multiple_batches() {
    let mut service = FleetService::new(FleetConfig::new(2, 11));
    let first = batch(10);
    let second: Vec<JobSpec> = batch(10)
        .into_iter()
        .map(|mut job| {
            job.id = JobId(job.id.0 + 10);
            job
        })
        .collect();
    service.process(&first);
    let report = service.process(&second);
    let posted: u64 = report.ledger.iter().map(|a| a.runs).sum();
    assert_eq!(posted, 20, "ledger must accumulate across batches");
}

/// Streams `jobs` through a fresh service with `workers` workers
/// (single-threaded submission, so submission order equals batch order)
/// and returns the report plus the service.
fn stream_jobs(jobs: &[JobSpec], workers: usize) -> (FleetReport, FleetService) {
    let mut service = FleetService::new(FleetConfig::new(workers, 77));
    for id in 1..=4u32 {
        service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    let mut stream = service.stream(IngestConfig::new(workers));
    for job in jobs {
        stream.submit(job.clone()).expect("queue sized for batch");
        // Interleave pumping with submission, as a live service would.
        stream.pump();
    }
    let report = stream.finish();
    (report, service)
}

/// A service's ops exposition with the release-buffer pool gauges zeroed:
/// how many pumps found records ready depends on scheduling, so that is
/// the one ops family that may differ across worker counts.
fn ops_without_pool_timing(service: &FleetService) -> String {
    let mut ops = service.metrics().clone();
    for event in ["acquired", "reused", "returned", "idle", "idle_capacity"] {
        ops.gauge_set("fleet_pool_buffers", "", &[("event", event)], 0.0);
    }
    ops.render()
}

#[test]
fn streamed_run_is_bit_identical_to_batch_for_1_2_8_workers() {
    let jobs = batch(24);
    let mut batch_service = FleetService::new(FleetConfig::new(4, 77));
    for id in 1..=4u32 {
        batch_service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    let batch_report = batch_service.process(&jobs);

    let mut streamed_metrics = Vec::new();
    for workers in [1usize, 2, 8] {
        let (report, service) = stream_jobs(&jobs, workers);
        // Ledgers, audit verdicts and invoice totals match the batch path
        // bit for bit, whatever the worker count.
        assert_eq!(
            report, batch_report,
            "streamed report must equal batch report at {workers} workers"
        );
        assert_eq!(
            report.ledger.total_billed_charge(),
            batch_report.ledger.total_billed_charge()
        );
        streamed_metrics.push((
            service.metering().render(),
            ops_without_pool_timing(&service),
        ));
    }
    // Both streamed expositions are themselves deterministic across worker
    // counts: final queue depth and inflight gauges are structurally zero.
    // Only the release-buffer pool gauges are timing-dependent, so they
    // are zeroed before comparing.
    assert_eq!(streamed_metrics[0], streamed_metrics[1]);
    assert_eq!(streamed_metrics[0], streamed_metrics[2]);
}

#[test]
fn full_queue_rejects_submissions_under_reject_policy() {
    let mut service = FleetService::new(FleetConfig::new(1, 5));
    let config = IngestConfig::new(1)
        .with_capacity(3)
        .with_backpressure(BackpressurePolicy::Reject)
        .paused();
    let stream = service.stream(config);
    for id in 0..3 {
        stream
            .submit(JobSpec::clean(id, TenantId(1), Workload::LoopO, SCALE))
            .expect("queue has room");
    }
    // Queue full, dispatch paused: the fourth submission is shed.
    let overflow = stream.submit(JobSpec::clean(3, TenantId(1), Workload::LoopO, SCALE));
    assert_eq!(overflow, Err(SubmitError::QueueFull));
    assert_eq!(stream.stats().rejected, 1);
    stream.resume();
    let report = stream.finish();
    assert_eq!(report.records.len(), 3, "accepted jobs all ran");
    let metrics = service.metrics_text();
    assert!(
        metrics.contains("fleet_submissions_rejected 1"),
        "dump:\n{metrics}"
    );
}

#[test]
fn greedy_tenant_cannot_starve_others() {
    // Stage a backlog while paused: tenant 1 floods 12 jobs before tenants
    // 2 and 3 submit one each. A FIFO queue would run both stragglers last;
    // the fair queue round-robins tenant lanes.
    let mut service = FleetService::new(FleetConfig::new(1, 9));
    let stream = service.stream(IngestConfig::new(1).paused());
    for id in 0..12 {
        stream
            .submit(JobSpec::clean(id, TenantId(1), Workload::LoopO, SCALE))
            .unwrap();
    }
    stream
        .submit(JobSpec::clean(12, TenantId(2), Workload::LoopO, SCALE))
        .unwrap();
    stream
        .submit(JobSpec::clean(13, TenantId(3), Workload::LoopO, SCALE))
        .unwrap();
    stream.resume();
    // Wait for the backlog to drain so the dispatch log is complete.
    while stream.stats().completed < 14 {
        std::thread::yield_now();
    }

    // With one worker the dispatch order is exact: round-robin serves the
    // two modest tenants in positions 1 and 2, not after the flood.
    let dispatched: Vec<u32> = stream.dispatch_log().iter().map(|(_, t)| t.0).collect();
    assert_eq!(
        &dispatched[..3],
        &[1, 2, 3],
        "full dispatch order: {dispatched:?}"
    );
    // Per-tenant completion counts within the first round are bounded:
    // every tenant completed one job before the greedy tenant's second.
    for tenant in [1u32, 2, 3] {
        let served = dispatched[..3].iter().filter(|t| **t == tenant).count();
        assert_eq!(served, 1, "tenant {tenant} in first round: {dispatched:?}");
    }

    // The merged report is still in submission order (ids 0..13), so
    // fairness never costs determinism.
    let report = stream.finish();
    assert_eq!(report.records.len(), 14);
    let ids: Vec<u64> = report.records.iter().map(|r| r.job.id.0).collect();
    assert_eq!(ids, (0..14).collect::<Vec<_>>());
    let summaries: Vec<(u32, u64)> = service
        .auditor()
        .summaries()
        .map(|s| (s.tenant.0, s.runs))
        .collect();
    assert_eq!(summaries, vec![(1, 12), (2, 1), (3, 1)]);
}

/// Audits `records` with a fresh inline-replay-only auditor (references
/// stripped) and returns the verdicts.
fn inline_verdicts(records: &[RunRecord], machine: KernelConfig) -> (Vec<AuditVerdict>, u64) {
    let mut auditor = Auditor::new(machine);
    let verdicts = records
        .iter()
        .map(|record| {
            let mut stripped = record.clone();
            stripped.reference = None;
            auditor.observe(&stripped)
        })
        .collect();
    (verdicts, auditor.replay_count())
}

#[test]
fn precomputed_reference_verdicts_match_inline_replays() {
    let jobs = batch(24);
    let machine = FleetConfig::new(1, 77).machine;

    // The ground truth: every record audited via an inline replay.
    let reference_records = FleetService::new(FleetConfig::new(4, 77))
        .process(&jobs)
        .records;
    assert!(
        reference_records.iter().all(|r| r.reference.is_some()),
        "the Always policy precomputes a reference for every job"
    );
    let (inline, inline_replays) = inline_verdicts(&reference_records, machine.clone());
    assert!(inline_replays > 0, "stripped records force inline replays");

    // Batch path: verdicts come from precomputed references, bit-identical
    // to the inline replays.
    let mut batch_service = FleetService::new(FleetConfig::new(4, 77));
    for id in 1..=4u32 {
        batch_service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    let batch_report = batch_service.process(&jobs);
    assert_eq!(batch_report.verdicts, inline);
    assert_eq!(batch_service.auditor().replay_count(), 0);
    assert_eq!(
        batch_service.auditor().reference_hit_count(),
        jobs.len() as u64
    );

    // Streamed path at 1, 2 and 8 workers: same verdicts again.
    for workers in [1usize, 2, 8] {
        let (report, _) = stream_jobs(&jobs, workers);
        assert_eq!(
            report.verdicts, inline,
            "streamed verdicts at {workers} workers must equal inline-replay verdicts"
        );
    }
}

#[test]
fn sampling_policy_skips_are_deterministic_for_a_fixed_fleet_seed() {
    let jobs = batch(30);
    let run = |shards: usize, workers: Option<usize>| {
        let config = FleetConfig::new(shards, 2026).with_sampling(SamplingPolicy::Probability(0.5));
        let mut service = FleetService::new(config);
        let report = match workers {
            None => service.process(&jobs),
            Some(workers) => {
                let mut stream = service.stream(IngestConfig::new(workers));
                for job in &jobs {
                    stream.submit(job.clone()).expect("queue fits batch");
                    stream.pump();
                }
                stream.finish()
            }
        };
        (report, service)
    };

    let (batch_report, _) = run(4, None);
    let audited: Vec<bool> = batch_report.verdicts.iter().map(|v| v.audited).collect();
    assert!(
        audited.iter().any(|a| *a) && audited.iter().any(|a| !*a),
        "p=0.5 over 30 jobs should audit some and skip some: {audited:?}"
    );
    // Skipped attacked runs are not flagged; audited attacked runs are.
    for (record, verdict) in batch_report.records.iter().zip(&batch_report.verdicts) {
        assert_eq!(record.reference.is_some(), verdict.audited);
        if verdict.audited {
            assert_eq!(record.job.attack.is_some(), !verdict.is_clean());
        } else {
            assert!(verdict.is_clean(), "skipped runs assert nothing");
        }
    }

    // The same fleet seed produces the same skip set whatever the shard or
    // worker count, streamed or batch. (Streamed expositions additionally
    // carry the ingest gauges, so they are compared among themselves; the
    // buffer-pool gauges depend on how many pumps found records, so that
    // family is zeroed first.)
    let mut streamed_metrics = Vec::new();
    for workers in [1usize, 2, 8] {
        let (report, service) = run(8, Some(workers));
        assert_eq!(report, batch_report);
        streamed_metrics.push((
            service.metering().render(),
            ops_without_pool_timing(&service),
        ));
    }
    assert_eq!(streamed_metrics[0], streamed_metrics[1]);
    assert_eq!(streamed_metrics[0], streamed_metrics[2]);

    // A different fleet seed draws a different skip set (the decision is
    // seeded, not positional). Note the seed also reshuffles kernel seeds,
    // so only the audited flags are compared.
    let other_jobs = batch(30);
    let config = FleetConfig::new(4, 9999).with_sampling(SamplingPolicy::Probability(0.5));
    let mut other_service = FleetService::new(config);
    let other_report = other_service.process(&other_jobs);
    let other_audited: Vec<bool> = other_report.verdicts.iter().map(|v| v.audited).collect();
    assert_ne!(audited, other_audited, "seed must steer the skip set");
}

#[test]
fn fallback_replay_still_detects_shell_overbilling() {
    let fleet = Fleet::new(FleetConfig::new(1, 42));
    let job = JobSpec::attacked(0, TenantId(1), Workload::LoopO, SCALE, AttackSpec::Shell);
    let mut record = fleet.run_one(&job);
    // A record that arrives without a precomputed reference (e.g. produced
    // by an executor with a different sampling policy) still gets the full
    // §VI replay audit.
    record.reference = None;
    let mut auditor = Auditor::new(fleet.config().machine.clone());
    let verdict = auditor.observe(&record);
    assert!(verdict.audited);
    let kinds: Vec<&str> = verdict.anomalies.iter().map(Anomaly::kind).collect();
    assert!(kinds.contains(&"overbilled"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"unexpected-images"), "kinds: {kinds:?}");
    assert_eq!(auditor.replay_count(), 1, "exactly one inline replay");
    assert_eq!(auditor.reference_hit_count(), 0);
}

#[test]
fn audit_cost_counters_are_exported() {
    // Pre-registered at zero on a fresh service.
    let fresh = FleetService::new(FleetConfig::new(1, 1));
    let text = fresh.metrics_text();
    assert!(
        text.contains("# TYPE fleet_audit_replays_total counter"),
        "dump:\n{text}"
    );
    assert!(
        text.contains("fleet_audit_replays_total 0"),
        "dump:\n{text}"
    );
    assert!(
        text.contains("fleet_audit_reference_hits_total 0"),
        "dump:\n{text}"
    );

    // After a batch, the reference hits count every audited run and the
    // replay counter stays at zero (workers precomputed everything).
    let jobs = batch(10);
    let mut service = FleetService::new(FleetConfig::new(2, 3));
    let _ = service.process(&jobs);
    let text = service.metrics_text();
    assert!(
        text.contains("fleet_audit_replays_total 0"),
        "dump:\n{text}"
    );
    assert!(
        text.contains("fleet_audit_reference_hits_total 10"),
        "dump:\n{text}"
    );
}

#[test]
fn fleet_report_serializes() {
    let jobs = batch(4);
    let mut service = FleetService::new(FleetConfig::new(2, 19));
    let report = service.process(&jobs);
    let json = serde_json::to_string(&report).expect("serialize report");
    assert!(json.contains("verdicts"));
    assert!(json.contains("billed_charge"));
}

// ---------------------------------------------------------------------------
// Durability: write-ahead journal, crash recovery, checkpoints
// ---------------------------------------------------------------------------

/// A service on seed 77 with the four test tenants registered, optionally
/// journaled — recovery requires the restarted service to be configured
/// like the original, so every durability test builds services here.
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

fn audit_summaries(service: &FleetService) -> Vec<TenantAuditSummary> {
    service.auditor().summaries().cloned().collect()
}

fn count_entries(entries: &[JournalEntry], label: &str) -> usize {
    entries.iter().filter(|e| e.label() == label).count()
}

#[test]
fn journal_recovery_is_bit_identical_across_1_2_8_workers() {
    let jobs = batch(24);
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs);
    let baseline_metering = baseline.metering().render();

    let mut recovered_expositions = Vec::new();
    for workers in [1usize, 2, 8] {
        // Stream the batch through a journaled service.
        let journal = Journal::in_memory();
        let mut service = service77(workers, Some(journal.clone()));
        let mut stream = service.stream(IngestConfig::new(workers));
        for job in &jobs {
            stream.submit(job.clone()).expect("queue sized for batch");
            stream.pump();
        }
        let streamed_report = stream.finish();
        assert_eq!(
            streamed_report, baseline_report,
            "journaling must not perturb results at {workers} workers"
        );
        let text = service.metrics_text();
        assert!(
            text.contains("fleet_journal_appends_total 96"),
            "24 accepted + 24 runs + 24 invoices + 24 verdicts; dump:\n{text}"
        );
        assert!(
            !text.contains("fleet_journal_bytes_total 0\n"),
            "dump:\n{text}"
        );

        // The journal replays into a bit-identical restarted service.
        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(count_entries(&entries, "accepted"), 24);
        assert_eq!(count_entries(&entries, "run"), 24);
        assert_eq!(count_entries(&entries, "invoice"), 24);
        assert_eq!(count_entries(&entries, "verdict"), 24);

        let mut recovered = service77(workers, None);
        let report = recovered.recover(&entries).unwrap();
        assert_eq!(report.runs_replayed, 24);
        assert_eq!(report.postings_confirmed, 48);
        assert_eq!(report.unconfirmed, 0);
        assert_eq!(report.accepted, 24);
        assert!(report.unreleased.is_empty(), "every accepted job released");
        assert!(
            report.is_consistent(),
            "mismatches: {:?}",
            report.mismatches
        );

        assert_eq!(recovered.ledger(), &baseline_report.ledger);
        assert_eq!(audit_summaries(&recovered), audit_summaries(&baseline));
        assert_eq!(
            recovered.metering().render(),
            baseline_metering,
            "metering exposition must be byte-identical after recovery"
        );
        let recovered_metrics = recovered.metrics_text();
        assert!(recovered_metrics.contains("fleet_recoveries_total 1"));
        recovered_expositions.push(recovered_metrics);
    }
    // The full recovered exposition — journal series included — is itself
    // byte-identical whatever the worker count that produced the journal.
    assert_eq!(recovered_expositions[0], recovered_expositions[1]);
    assert_eq!(recovered_expositions[0], recovered_expositions[2]);
}

#[test]
fn killed_stream_recovers_the_released_prefix() {
    let dir = segment_dir("kill");
    let jobs = batch(24);
    {
        let journal = Journal::segmented(&dir, SegmentConfig::default()).unwrap();
        let mut service = service77(2, Some(journal));
        let mut stream = service.stream(IngestConfig::new(2));
        for job in &jobs {
            stream.submit(job.clone()).expect("queue sized for batch");
        }
        while stream.verdicts().len() < 8 {
            stream.pump();
            std::thread::yield_now();
        }
        // The "kill": drop the stream mid-flight. Unreleased completions
        // and the queued backlog are discarded — never journaled, never
        // billed.
        drop(stream);
    }

    let journal = Journal::segmented(&dir, SegmentConfig::default()).unwrap();
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean, "line appends are atomic");
    let released = count_entries(&entries, "run");
    assert!((8..=24).contains(&released), "released: {released}");
    // Released records form a submission-order prefix, so the clean-run
    // baseline is simply the first `released` jobs.
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs[..released]);

    let mut recovered = service77(2, None);
    let report = recovered.recover(&entries).unwrap();
    assert_eq!(report.runs_replayed as usize, released);
    assert_eq!(report.unconfirmed, 0, "pump journals receipts in step");
    assert!(report.is_consistent());
    assert_eq!(recovered.ledger(), &baseline_report.ledger);
    assert_eq!(audit_summaries(&recovered), audit_summaries(&baseline));
    assert_eq!(recovered.metering().render(), baseline.metering().render());

    // A harsher crash: the last record's receipts never hit the disk (and
    // the final line is torn mid-append). Recovery re-derives the missing
    // receipts from the Run entry and still matches the baseline.
    let mut torn = entries.clone();
    let last_two: Vec<&str> = torn[torn.len() - 2..].iter().map(|e| e.label()).collect();
    assert_eq!(last_two, ["invoice", "verdict"]);
    torn.truncate(torn.len() - 2);
    let mut recovered_torn = service77(2, None);
    let report = recovered_torn.recover(&torn).unwrap();
    assert_eq!(report.unconfirmed, 1, "one run lost its receipts");
    assert!(report.is_consistent());
    assert_eq!(recovered_torn.ledger(), &baseline_report.ledger);
    assert_eq!(
        recovered_torn.metering().render(),
        baseline.metering().render()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_and_corrupt_tails_are_dropped_mid_file_corruption_is_not() {
    let journal = Journal::in_memory();
    let mut service = service77(2, Some(journal.clone()));
    service.process(&batch(4));
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(entries.len(), 16);

    // Take the canonical chained bytes and tear the tail mid-line, as a
    // crash mid-append would.
    let text = journal.text().unwrap();
    let torn = format!("{text}{}", &text[..40]);
    let (parsed, tail) = parse_journal(&torn).unwrap();
    assert_eq!(parsed, entries);
    assert!(tail.is_truncated());

    // A newline-terminated final line that fails to parse is *not* a crash
    // artifact — appends write the line and its newline in one call, so a
    // torn write can never be terminated. It is corruption, and an error.
    let corrupt_tail = format!("{text}{{\"Run\":garbage}}\n");
    assert!(matches!(
        parse_journal(&corrupt_tail),
        Err(JournalError::Corrupt { line: 17, .. })
    ));

    // Corruption before the tail is likewise an error.
    let lines: Vec<&str> = text.lines().collect();
    let mid_corrupt = format!(
        "{}\nnot-json\n{}\n",
        lines[..6].join("\n"),
        lines[6..].join("\n")
    );
    match parse_journal(&mid_corrupt) {
        Err(JournalError::Corrupt { line: 7, .. }) => {}
        other => panic!("expected corruption at line 7, got {other:?}"),
    }

    // Recovery over the truncated journal still matches a clean run of the
    // surviving prefix.
    let mut recovered = service77(2, None);
    recovered.recover(&parsed).unwrap();
    let mut baseline = service77(2, None);
    baseline.process(&batch(4));
    assert_eq!(recovered.ledger(), baseline.ledger());
}

#[test]
fn tampered_journal_receipts_and_outcomes_are_detected() {
    let jobs = batch(6);
    let journal = Journal::in_memory();
    let mut service = service77(2, Some(journal.clone()));
    service.process(&jobs);
    let (entries, _) = journal.entries().unwrap();

    // Tamper with a billing receipt: the re-derived invoice disagrees.
    let mut doctored = entries.clone();
    let invoice_at = doctored
        .iter()
        .position(|e| e.label() == "invoice")
        .unwrap();
    let job = match &mut doctored[invoice_at] {
        JournalEntry::Invoice(posting) => {
            posting.billed.total /= 2.0;
            posting.job
        }
        _ => unreachable!(),
    };
    let mut recovered = service77(2, None);
    let report = recovered.recover(&doctored).unwrap();
    assert_eq!(report.mismatches, vec![job]);
    assert!(!report.is_consistent());

    // Tamper with a run's reported outcome: the attestation quote no
    // longer matches, the replayed verdict gains a quote-mismatch anomaly,
    // and the journaled (clean) verdict receipt disagrees with the replay.
    // The batch journals its six Accepted lines first, so job 0's Run is
    // entry 6.
    let mut doctored = entries.clone();
    let job = match &mut doctored[6] {
        JournalEntry::Run(record) => {
            record.outcome.victim_billed.utime =
                Cycles(record.outcome.victim_billed.utime.as_u64() * 3);
            record.job.id
        }
        _ => unreachable!(),
    };
    let mut recovered = service77(2, None);
    let report = recovered.recover(&doctored).unwrap();
    assert!(
        report.mismatches.contains(&job),
        "mismatches: {:?}",
        report.mismatches
    );
    // Job 0 belongs to tenant 1 (batch() stripes tenants by id).
    let summary = recovered.auditor().summary(TenantId(1)).unwrap();
    assert!(
        summary.anomaly_counts.contains_key("quote-mismatch"),
        "counts: {:?}",
        summary.anomaly_counts
    );

    // Tamper with a run's *embedded reference* only (forge the clean truth
    // up to the attacked bill, hiding the overcharge): the quote nonce
    // commits to the reference, so verification fails, the auditor replays
    // inline, and the overbilling survives — plus the verdict receipt
    // disagrees.
    let mut doctored = entries.clone();
    let job = match &mut doctored[6] {
        JournalEntry::Run(record) => {
            let reference = record.reference.as_mut().unwrap();
            reference.victim_truth = record.outcome.victim_billed;
            record.job.id
        }
        _ => unreachable!(),
    };
    let mut recovered = service77(2, None);
    let report = recovered.recover(&doctored).unwrap();
    assert!(report.mismatches.contains(&job));
    let summary = recovered.auditor().summary(TenantId(1)).unwrap();
    assert!(
        summary.anomaly_counts.contains_key("quote-mismatch"),
        "counts: {:?}",
        summary.anomaly_counts
    );
    assert!(
        summary.anomaly_counts.contains_key("overbilled"),
        "the forged reference must not hide the overcharge: {:?}",
        summary.anomaly_counts
    );
}

#[test]
fn invalid_journals_are_rejected() {
    let journal = Journal::in_memory();
    let mut service = service77(1, Some(journal.clone()));
    service.process(&batch(2));
    let (entries, _) = journal.entries().unwrap();

    // A receipt with no preceding run is not a write-ahead sequence.
    let orphan: Vec<JournalEntry> = entries
        .iter()
        .filter(|e| e.label() != "run")
        .cloned()
        .collect();
    let mut recovered = service77(1, None);
    assert!(matches!(
        recovered.recover(&orphan),
        Err(RecoveryError::OrphanPosting(_))
    ));

    // A checkpoint after replayed runs is rejected.
    let mut misplaced = entries.clone();
    misplaced.push(JournalEntry::checkpoint(service77(1, None).checkpoint()));
    let mut recovered = service77(1, None);
    assert!(matches!(
        recovered.recover(&misplaced),
        Err(RecoveryError::MisplacedCheckpoint)
    ));

    // A repeated Run+receipts group is a hard error under strict
    // recovery: in a hash-chained journal a duplicated entry can only be
    // copy-pasted evidence (the chain would have caught a literal re-read
    // of the same line), so double-billing is refused, not just reported.
    // This is the regression test for the old silent-accept path, which
    // replayed the duplicate into the ledger and merely listed the id in
    // `duplicate_runs`.
    let mut duplicated = entries.clone();
    duplicated.extend(entries[..3].iter().cloned());
    let mut recovered = service77(1, None);
    assert!(matches!(
        recovered.recover(&duplicated),
        Err(RecoveryError::ChainViolation(JobId(0)))
    ));

    // Lenient recovery keeps the operator-vetting behavior for legacy
    // journals: the duplicate replays and the id is surfaced.
    let mut recovered = service77(1, None);
    let report = recovered.recover_lenient(&duplicated).unwrap();
    assert_eq!(report.duplicate_runs, vec![JobId(0)]);
    assert!(report.is_consistent(), "receipts still match the replay");
    assert_eq!(report.runs_replayed, 3, "the duplicate was posted");

    // The same strict refusal covers runs already folded into a
    // checkpoint, and the same lenient surfacing still works.
    let mut folded = service77(1, None);
    folded.recover(&entries).unwrap();
    let mut checkpointed = vec![JournalEntry::checkpoint(folded.checkpoint())];
    checkpointed.extend(entries[..3].iter().cloned());
    let mut recovered = service77(1, None);
    assert!(matches!(
        recovered.recover(&checkpointed),
        Err(RecoveryError::ChainViolation(JobId(0)))
    ));
    let mut recovered = service77(1, None);
    let report = recovered.recover_lenient(&checkpointed).unwrap();
    assert_eq!(report.duplicate_runs, vec![JobId(0)]);
}

#[test]
fn same_id_runs_released_back_to_back_pair_receipts_in_fifo_order() {
    // Two runs sharing a job id but differing in content (same derived
    // seed, different workloads) — a legal resubmission. When both are
    // released before their receipts (the streaming pump pattern:
    // Run,Run,…receipts…), recovery must pair each receipt with *its*
    // run, not overwrite one pending posting with the other.
    let journal = Journal::in_memory();
    let mut service = service77(1, Some(journal.clone()));
    service.process(&[JobSpec::clean(0, TenantId(1), Workload::LoopO, SCALE)]);
    service.process(&[JobSpec::clean(0, TenantId(1), Workload::Pi, SCALE)]);
    let (entries, _) = journal.entries().unwrap();
    let labels: Vec<&str> = entries.iter().map(|e| e.label()).collect();
    assert_eq!(
        labels,
        ["accepted", "run", "invoice", "verdict", "accepted", "run", "invoice", "verdict"]
    );
    // Reorder into the release-both-then-post pattern.
    let stream_order = vec![
        entries[0].clone(),
        entries[4].clone(),
        entries[1].clone(),
        entries[5].clone(),
        entries[2].clone(),
        entries[3].clone(),
        entries[6].clone(),
        entries[7].clone(),
    ];
    // Strict recovery refuses the reused id outright — from evidence
    // alone a resubmission is indistinguishable from double billing, so
    // settling it needs the lenient path and an operator's judgment.
    let mut recovered = service77(1, None);
    assert!(matches!(
        recovered.recover(&stream_order),
        Err(RecoveryError::ChainViolation(JobId(0)))
    ));
    let mut recovered = service77(1, None);
    let report = recovered.recover_lenient(&stream_order).unwrap();
    assert!(
        report.is_consistent(),
        "mismatches: {:?}",
        report.mismatches
    );
    assert_eq!(report.runs_replayed, 2);
    assert_eq!(report.unconfirmed, 0);
    assert_eq!(report.duplicate_runs, vec![JobId(0)]);
    assert_eq!(recovered.ledger(), service.ledger());
}

/// A scratch segment directory unique to one test.
fn segment_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("trustmeter-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn segmented_recovery_is_bit_identical_across_1_2_8_workers() {
    let jobs = batch(24);
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs);

    let group = FsyncPolicy::GroupCommit {
        max_entries: 16,
        max_bytes: 32 * 1024,
    };
    let policies = [FsyncPolicy::Never, FsyncPolicy::EveryAppend, group];
    let runs = policies.map(|fsync| [1usize, 2, 8].map(|workers| (fsync, workers)));
    for (fsync, workers) in runs.into_iter().flatten() {
        let dir = segment_dir(&format!("seg-{workers}"));
        // Segments small enough to rotate many times, a cadence that
        // checkpoints (and retires) mid-stream.
        let config = SegmentConfig::default()
            .with_segment_bytes(8 * 1024)
            .with_fsync(fsync);
        let journal = Journal::segmented(&dir, config).unwrap();
        let mut service = service77(workers, Some(journal.clone()))
            .with_checkpoint_cadence(CheckpointCadence::every_n_runs(10));
        let mut stream = service.stream(IngestConfig::new(workers));
        for job in &jobs {
            stream.submit(job.clone()).expect("queue sized for batch");
            stream.pump();
        }
        let streamed_report = stream.finish();
        assert_eq!(
            streamed_report, baseline_report,
            "segmented journaling must not perturb results at {workers} workers, {fsync:?}"
        );
        let stats = journal.stats();
        assert!(stats.rotations > 0, "segments rotated: {stats:?}");
        assert!(stats.group_commits > 0, "appends were batched: {stats:?}");
        assert!(
            stats.segments_retired > 0,
            "checkpoints retired history: {stats:?}"
        );
        assert!(fsync == FsyncPolicy::Never || stats.fsyncs > 0, "{stats:?}");
        let text = service.metrics_text();
        for family in [
            "fleet_journal_rotations_total",
            "fleet_journal_group_commits_total",
            "fleet_journal_fsyncs_total",
        ] {
            assert!(text.contains(family), "missing {family}; dump:\n{text}");
        }
        assert!(
            !text.contains("fleet_journal_rotations_total 0\n"),
            "rotations exported; dump:\n{text}"
        );

        // The live directory starts at the latest checkpoint (everything
        // older was retired) and replays into bit-identical state — the
        // "restarted process" path.
        let reopened = Journal::segmented(&dir, config).unwrap();
        let (entries, tail) = reopened.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(
            entries[0].label(),
            "checkpoint",
            "retired directory leads with its checkpoint"
        );
        let mut recovered = service77(workers, None);
        let report = recovered.recover_latest(&entries).unwrap();
        assert!(
            report.is_consistent(),
            "mismatches: {:?}",
            report.mismatches
        );
        assert!(report.checkpoint_runs > 0, "checkpoint was applied");
        assert_eq!(
            report.checkpoint_runs + report.runs_replayed,
            24,
            "checkpointed + replayed covers the whole batch"
        );
        assert_eq!(recovered.ledger(), &baseline_report.ledger);
        assert_eq!(audit_summaries(&recovered), audit_summaries(&baseline));
        assert_eq!(
            recovered.metering().render(),
            baseline.metering().render(),
            "metering exposition must be byte-identical after segmented recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn cadence_checkpoints_bound_recovery_on_any_sink() {
    // On a non-segmented sink nothing is retired, so the journal holds
    // mid-stream checkpoints; recover_latest seeks the newest one and
    // replays only the entries after it.
    let journal = Journal::in_memory();
    let mut service = service77(2, Some(journal.clone()))
        .with_checkpoint_cadence(CheckpointCadence::every_n_runs(10));
    let jobs = batch(24);
    let mut stream = service.stream(IngestConfig::new(2));
    for job in &jobs {
        // One job in flight at a time: every pump that posts posts exactly
        // one run, so the cadence fires after runs 10 and 20.
        stream.submit(job.clone()).expect("queue sized for batch");
        while stream.pump() == 0 {
            std::thread::yield_now();
        }
    }
    stream.finish();
    let (entries, _) = journal.entries().unwrap();
    let checkpoints = count_entries(&entries, "checkpoint");
    assert_eq!(checkpoints, 2, "cadence wrote inline checkpoints at 10, 20");

    // Strict recovery rejects the mid-stream checkpoint...
    let mut strict = service77(2, None);
    assert!(matches!(
        strict.recover(&entries),
        Err(RecoveryError::MisplacedCheckpoint)
    ));
    // ...recover_latest applies it: only the post-checkpoint tail replays.
    let mut recovered = service77(2, None);
    let report = recovered.recover_latest(&entries).unwrap();
    assert_eq!(report.checkpoint_runs, 20);
    assert_eq!(report.runs_replayed, 4);
    assert!(report.is_consistent());
    let mut baseline = service77(2, None);
    baseline.process(&jobs);
    assert_eq!(recovered.ledger(), baseline.ledger());
    assert_eq!(audit_summaries(&recovered), audit_summaries(&baseline));
    assert_eq!(recovered.metering().render(), baseline.metering().render());

    // A checkpoint carries the metering registry and nothing else, and
    // restoring one leaves the ops registry exactly as a service that
    // recovered an empty journal has it.
    assert_eq!(service.checkpoint().metrics, service.metering());
    let mut empty = service77(2, None);
    empty.recover(&[]).unwrap();
    assert_eq!(recovered.metrics(), empty.metrics());
}

#[test]
fn cadence_checkpoints_meter_their_own_ledger_and_audit() {
    // A checkpoint's metering describes the ledger and audit state it was
    // written with: nothing in it may lag behind (or run ahead of) them.
    let journal = Journal::in_memory();
    let mut service = service77(2, Some(journal.clone()))
        .with_checkpoint_cadence(CheckpointCadence::every_n_runs(8));
    let jobs = batch(16);
    service.process(&jobs[..8]);
    service.process(&jobs[8..]);
    let (entries, _) = journal.entries().unwrap();
    let checkpoints: Vec<&Checkpoint> = entries
        .iter()
        .filter_map(|entry| match entry {
            JournalEntry::Checkpoint(checkpoint) => Some(&**checkpoint),
            _ => None,
        })
        .collect();
    assert_eq!(checkpoints.len(), 2, "one checkpoint per 8-job batch");
    for (n, checkpoint) in checkpoints.into_iter().enumerate() {
        let metrics = &checkpoint.metrics;
        let tenants = checkpoint.ledger.len() as f64;
        assert_eq!(metrics.get("fleet_tenants", &[]), Some(tenants), "#{n}");
        for account in checkpoint.ledger.iter() {
            let tenant = account.tenant.to_string();
            let runs = account.runs as f64;
            assert_eq!(
                metrics.get("fleet_jobs", &[("tenant", &tenant)]),
                Some(runs),
                "#{n} {tenant}"
            );
            for (source, charge) in [
                ("billed", account.billed_charge),
                ("truth", account.truth_charge),
            ] {
                assert_eq!(
                    metrics.get("tenant_charge", &[("tenant", &tenant), ("source", source)]),
                    Some(charge),
                    "#{n} {tenant} {source} charge"
                );
            }
        }
        for summary in checkpoint.audit.summaries.values() {
            let tenant = summary.tenant.to_string();
            for kind in Anomaly::KINDS {
                let count = summary.anomaly_counts.get(kind).copied().unwrap_or(0);
                assert_eq!(
                    metrics.get("fleet_anomalies", &[("tenant", &tenant), ("kind", kind)]),
                    Some(count as f64),
                    "#{n} {tenant} {kind}"
                );
            }
        }
    }
}

#[test]
fn a_stream_dropped_after_posting_everything_meters_like_process() {
    let jobs = batch(12);
    let mut baseline = service77(2, None);
    baseline.process(&jobs);

    let mut service = service77(2, None);
    let mut stream = service.stream(IngestConfig::new(2));
    stream.submit_all(&jobs).expect("queue sized for batch");
    while stream.verdicts().len() < jobs.len() {
        stream.pump();
        std::thread::yield_now();
    }
    // Dropped, never finished: everything was posted, so the metering
    // must not depend on how the session ended.
    drop(stream);
    assert_eq!(service.ledger(), baseline.ledger());
    assert_eq!(service.metering().render(), baseline.metering().render());
}

#[test]
fn killed_segmented_stream_recovers_the_released_prefix() {
    let dir = segment_dir("seg-kill");
    let jobs = batch(24);
    let config = SegmentConfig::default().with_segment_bytes(8 * 1024);
    {
        let journal = Journal::segmented(&dir, config).unwrap();
        let mut service =
            service77(2, Some(journal)).with_checkpoint_cadence(CheckpointCadence::every_n_runs(8));
        let mut stream = service.stream(IngestConfig::new(2));
        for job in &jobs {
            stream.submit(job.clone()).expect("queue sized for batch");
        }
        while stream.verdicts().len() < 8 {
            stream.pump();
            std::thread::yield_now();
        }
        // The "kill": drop the stream mid-flight, then tear the last
        // segment the way a crash mid-append would.
        drop(stream);
    }
    {
        use std::io::Write as _;
        let mut segments: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segments.sort();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(segments.last().unwrap())
            .unwrap();
        file.write_all(br#"{"Run":{"job":{"id":999"#).unwrap();
    }
    // Reopening repairs the torn tail; recovery replays the released
    // prefix, receipts included.
    let journal = Journal::segmented(&dir, config).unwrap();
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean, "reopen repaired the torn tail");
    let mut recovered = service77(2, None);
    let report = recovered.recover_latest(&entries).unwrap();
    assert!(report.is_consistent());
    let released = (report.checkpoint_runs + report.runs_replayed) as usize;
    assert!((8..=24).contains(&released), "released: {released}");

    let mut baseline = service77(4, None);
    baseline.process(&jobs[..released]);
    assert_eq!(recovered.ledger(), baseline.ledger());
    assert_eq!(recovered.metering().render(), baseline.metering().render());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn watermarked_stream_is_still_bit_identical_to_batch() {
    let jobs = batch(12);
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs);
    let mut service = service77(4, None);
    let config = IngestConfig::new(4).with_completion_watermark(2);
    let mut stream = service.stream(config);
    for job in &jobs {
        stream.submit(job.clone()).expect("queue sized for batch");
        stream.pump();
    }
    assert_eq!(stream.finish(), baseline_report);
}

// ---------------------------------------------------------------------------
// Property: interleaved append/rotate/checkpoint/recover sequences converge
// ---------------------------------------------------------------------------

/// Everything the journal proptest replays against, built once: the base
/// journal (append groups per job) and, for every prefix length, the
/// ledger and audit summaries of an uninterrupted batch run.
struct JournalFixture {
    groups: Vec<Vec<JournalEntry>>,
    prefix_ledgers: Vec<Ledger>,
    prefix_summaries: Vec<Vec<TenantAuditSummary>>,
}

fn journal_fixture() -> &'static JournalFixture {
    static FIXTURE: std::sync::OnceLock<JournalFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let jobs = batch(8);
        let journal = Journal::in_memory();
        let mut service = service77(2, Some(journal.clone()));
        service.process(&jobs);
        let (entries, _) = journal.entries().unwrap();
        // The batch path journals every Accepted line, then every Run, then
        // the Invoice/Verdict receipts job by job; regroup them per job.
        assert_eq!(entries.len(), 32);
        let groups: Vec<Vec<JournalEntry>> = (0..jobs.len())
            .map(|i| {
                let receipts = 2 * jobs.len() + 2 * i;
                vec![
                    entries[i].clone(),
                    entries[jobs.len() + i].clone(),
                    entries[receipts].clone(),
                    entries[receipts + 1].clone(),
                ]
            })
            .collect();
        for group in &groups {
            let labels: Vec<&str> = group.iter().map(|e| e.label()).collect();
            assert_eq!(labels, ["accepted", "run", "invoice", "verdict"]);
        }
        let mut prefix_ledgers = Vec::new();
        let mut prefix_summaries = Vec::new();
        for n in 0..=jobs.len() {
            let mut baseline = service77(2, None);
            baseline.process(&jobs[..n]);
            prefix_ledgers.push(baseline.ledger().clone());
            prefix_summaries.push(audit_summaries(&baseline));
        }
        JournalFixture {
            groups,
            prefix_ledgers,
            prefix_summaries,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever interleaving of group appends, size-driven rotations
    /// (every segment is tiny), inline checkpoints (with retirement) and
    /// mid-sequence recoveries — plus full reopen-from-disk cycles — a
    /// segmented journal lives through, recovery always reproduces the
    /// uninterrupted batch state for the appended prefix.
    #[test]
    fn segmented_journal_survives_interleaved_append_rotate_checkpoint_recover(
        ops in prop::collection::vec(0u8..4, 1..12),
    ) {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let fixture = journal_fixture();
        let dir = segment_dir(&format!("seg-prop-{case}"));
        // ~2 KiB segments: almost every group commit rotates.
        let config = SegmentConfig::default().with_segment_bytes(2048);
        let mut journal = Journal::segmented(&dir, config).unwrap();
        let mut appended = 0usize;
        for op in ops {
            match op {
                0 => {
                    if appended < fixture.groups.len() {
                        journal.append_batch(&fixture.groups[appended]).unwrap();
                        appended += 1;
                    }
                }
                1 => {
                    // Inline checkpoint at a safe point: fold everything
                    // appended so far, retiring the older segments.
                    let (entries, _) = journal.entries().unwrap();
                    let mut scratch = service77(2, None);
                    scratch.recover_latest(&entries).unwrap();
                    let checkpoint = JournalEntry::checkpoint(scratch.checkpoint());
                    journal.append_batch(&[checkpoint]).unwrap();
                }
                2 => {
                    // The restarted process: reopen the directory from disk.
                    journal = Journal::segmented(&dir, config).unwrap();
                }
                _ => {
                    let (entries, tail) = journal.entries().unwrap();
                    prop_assert_eq!(tail, TailStatus::Clean);
                    let mut recovered = service77(2, None);
                    let report = recovered.recover_latest(&entries).unwrap();
                    prop_assert!(report.is_consistent());
                    prop_assert_eq!(report.unconfirmed, 0);
                    prop_assert_eq!(recovered.ledger(), &fixture.prefix_ledgers[appended]);
                }
            }
        }
        // Drain the remaining groups and do the final recovery.
        for group in &fixture.groups[appended..] {
            journal.append_batch(group).unwrap();
        }
        let (entries, _) = journal.entries().unwrap();
        let mut recovered = service77(2, None);
        let report = recovered.recover_latest(&entries).unwrap();
        prop_assert!(report.is_consistent());
        prop_assert_eq!(report.unconfirmed, 0);
        let full = fixture.groups.len();
        prop_assert_eq!(recovered.ledger(), &fixture.prefix_ledgers[full]);
        prop_assert_eq!(&audit_summaries(&recovered), &fixture.prefix_summaries[full]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Observability: span tracing, stage histograms, exposition hygiene
// ---------------------------------------------------------------------------

/// Streams `jobs` through a traced seed-77 service and returns the report,
/// the service, and the set of span ids the tracer captured.
fn stream_jobs_traced(jobs: &[JobSpec], workers: usize) -> (FleetReport, FleetService, Vec<u64>) {
    let tracer = PipelineTracer::new(4096, 77);
    let mut service = service77(workers, None).with_tracer(tracer.clone());
    let mut stream = service.stream(IngestConfig::new(workers));
    for job in jobs {
        stream.submit(job.clone()).expect("queue sized for batch");
        stream.pump();
    }
    let report = stream.finish();
    let mut span_ids: Vec<u64> = tracer.spans().iter().map(|span| span.id).collect();
    span_ids.sort_unstable();
    span_ids.dedup();
    (report, service, span_ids)
}

#[test]
fn tracing_does_not_perturb_results_at_1_2_8_workers() {
    let jobs = batch(24);
    let mut baseline = service77(4, None);
    let baseline_report = baseline.process(&jobs);
    let baseline_metering = baseline.metering().render();

    let mut all_span_ids = Vec::new();
    for workers in [1usize, 2, 8] {
        let (untraced_report, untraced) = stream_jobs(&jobs, workers);
        let (traced_report, traced, span_ids) = stream_jobs_traced(&jobs, workers);

        // Ledger and verdicts are bit-identical with the tracer attached.
        assert_eq!(
            traced_report, untraced_report,
            "tracing must not perturb the report at {workers} workers"
        );
        assert_eq!(traced_report.ledger, baseline_report.ledger);
        assert_eq!(traced_report.verdicts, baseline_report.verdicts);

        // The metering exposition — everything a billing consumer reads —
        // is byte-identical with tracing on, off, or absent entirely.
        assert_eq!(
            traced.metering().render(),
            untraced.metering().render(),
            "metering exposition must not depend on tracing at {workers} workers"
        );
        assert_eq!(traced.metering().render(), baseline_metering);
        let traced_metrics = traced.metrics_text();
        let untraced_metrics = untraced.metrics_text();

        // The traced run did observe the pipeline: stage histograms and the
        // observer's self-accounting are live, and the untraced run's are not.
        assert!(
            traced_metrics.contains("fleet_stage_seconds_count{stage=\"execute\"} 24"),
            "dump:\n{traced_metrics}"
        );
        assert!(
            traced_metrics.contains("fleet_stage_seconds_count{stage=\"queue_wait\"} 24"),
            "dump:\n{traced_metrics}"
        );
        assert!(
            !traced_metrics.contains("fleet_observer_spans_total 0\n"),
            "dump:\n{traced_metrics}"
        );
        assert!(
            untraced_metrics.contains("fleet_observer_spans_total 0\n"),
            "dump:\n{untraced_metrics}"
        );

        // Span identity is seeded, not clocked: every stage of every job maps
        // to the same id whatever the worker count. (No journal is attached,
        // so no journal-commit spans exist — no retry spans either, since
        // those only appear when a journal commit fails — and no reassign
        // spans, since no worker ever dies on a healthy run.)
        let mut expected: Vec<u64> = jobs
            .iter()
            .flat_map(|job| {
                Stage::ALL
                    .iter()
                    .filter(|stage| {
                        **stage != Stage::JournalCommit
                            && **stage != Stage::JournalRetry
                            && **stage != Stage::Reassign
                    })
                    .map(|stage| span_id(77, job.id, *stage))
            })
            .collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(span_ids, expected, "span ids drifted at {workers} workers");
        all_span_ids.push(span_ids);
    }
    assert_eq!(all_span_ids[0], all_span_ids[1]);
    assert_eq!(all_span_ids[0], all_span_ids[2]);
}

#[test]
fn recovery_byte_matches_metering_exposition_with_tracing_enabled() {
    let jobs = batch(24);
    let mut baseline = service77(4, None);
    baseline.process(&jobs);
    let baseline_metering = baseline.metering().render();

    let mut recovered_expositions = Vec::new();
    for workers in [1usize, 2, 8] {
        // Stream through a journaled *and traced* service: the journal must
        // capture no trace of the tracer.
        let journal = Journal::in_memory();
        let mut service =
            service77(workers, Some(journal.clone())).with_tracer(PipelineTracer::new(4096, 77));
        let mut stream = service.stream(IngestConfig::new(workers));
        for job in &jobs {
            stream.submit(job.clone()).expect("queue sized for batch");
            stream.pump();
        }
        let _ = stream.finish();

        // A healthy run commits to the journal without a single retry, and
        // the supervisor never reaps a healthy worker.
        let ops = service.metrics();
        let spans = |s: Stage| ops.histogram_count("fleet_stage_seconds", &[("stage", s.label())]);
        assert!(spans(Stage::JournalCommit) > Some(0));
        assert_eq!(spans(Stage::JournalRetry), Some(0), "{workers} workers");
        assert_eq!(spans(Stage::Reassign), Some(0), "{workers} workers");
        assert_eq!(ops.get("fleet_journal_retries_total", &[]), Some(0.0));
        assert_eq!(ops.get("fleet_jobs_reassigned_total", &[]), Some(0.0));
        // The observer families are the tracer's own counters, and reading
        // the registry observes nothing, so it reads the same twice.
        let observer = service.tracer().unwrap().stats();
        let observed = [
            "fleet_observer_spans_total",
            "fleet_observer_spans_dropped_total",
            "fleet_observer_overhead_seconds_total",
        ]
        .map(|family| ops.get(family, &[]));
        let expected = [
            observer.spans_recorded as f64,
            observer.spans_dropped as f64,
            observer.overhead_nanos as f64 / 1e9,
        ]
        .map(Some);
        assert_eq!(observed, expected, "{workers} workers");
        assert_eq!(service.metrics_text(), service.metrics_text());

        let (entries, tail) = journal.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean);
        let mut recovered = service77(workers, None);
        let report = recovered.recover(&entries).unwrap();
        assert!(report.is_consistent());

        let recovered_metrics = recovered.metrics_text();
        assert_eq!(
            recovered.metering().render(),
            baseline_metering,
            "recovered metering exposition must byte-match the un-traced \
             baseline at {workers} workers"
        );
        // The recovered service never saw the tracer: its stage histograms
        // and observer counters are the pre-registered zeros.
        assert!(
            recovered_metrics.contains("fleet_observer_spans_total 0\n"),
            "dump:\n{recovered_metrics}"
        );
        assert!(
            recovered_metrics.contains("fleet_stage_seconds_count{stage=\"execute\"} 0"),
            "dump:\n{recovered_metrics}"
        );
        recovered_expositions.push(recovered_metrics);
    }
    assert_eq!(recovered_expositions[0], recovered_expositions[1]);
    assert_eq!(recovered_expositions[0], recovered_expositions[2]);
}

#[test]
fn exposition_lint_help_escaping_and_ordering() {
    // Every family a fully-loaded service registers — journaled, traced,
    // and with a lying worker restarted — carries non-empty help, and
    // lives in exactly one of its two registries.
    let jobs = batch(12);
    let mut service =
        service77(2, Some(Journal::in_memory())).with_tracer(PipelineTracer::new(256, 77));
    let config = IngestConfig::new(2)
        .with_worker_faults(WorkerFaultSchedule::none().wrong_result_on(JobId(5)));
    let stream = service.stream(config);
    stream.submit_all(&jobs).expect("queue sized for batch");
    let _ = stream.finish();
    let registry = service.metering();
    let metering: Vec<&str> = registry.family_info().map(|(name, ..)| name).collect();
    let mut families = 0;
    for (name, help, _) in service
        .metering()
        .family_info()
        .chain(service.metrics().family_info())
    {
        assert!(!help.trim().is_empty(), "family {name} has empty help text");
        families += 1;
    }
    assert!(families >= 10, "expected a loaded registry, got {families}");
    for (name, ..) in service.metrics().family_info() {
        assert!(
            !metering.contains(&name),
            "family {name} is registered in both registries"
        );
    }
    // The one text post-processor drops exactly the ops families.
    assert_eq!(
        metering_exposition(&service.metrics_text()),
        service.metering().render()
    );

    // Label escaping round-trips: a hostile label value renders escaped and
    // un-escapes back to the original bytes.
    let hostile = "a\\b\"c\nd";
    let mut registry = MetricsRegistry::new();
    registry.counter_add("lint_test", "lint", &[("tenant", hostile)], 1.0);
    let text = registry.render();
    let escaped = "tenant=\"a\\\\b\\\"c\\nd\"";
    assert!(text.contains(escaped), "dump:\n{text}");
    let start = text.find("tenant=\"").unwrap() + "tenant=\"".len();
    let end = text[start..].find("\"}").unwrap() + start;
    let mut unescaped = String::new();
    let mut chars = text[start..end].chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            unescaped.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => unescaped.push('\\'),
            Some('"') => unescaped.push('"'),
            Some('n') => unescaped.push('\n'),
            other => panic!("unknown escape \\{other:?}"),
        }
    }
    assert_eq!(unescaped, hostile, "escaping must round-trip");

    // Render order is stable: registration order does not leak into the
    // exposition, for scalar and histogram families alike.
    let forward = {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("lint_a", "first", &[("t", "1")], 1.0);
        registry.counter_add("lint_a", "first", &[("t", "2")], 2.0);
        registry.histogram_observe("lint_b", "second", &[0.1, 1.0], &[], 0.5);
        registry.gauge_set("lint_c", "third", &[], 7.0);
        registry.render()
    };
    let reversed = {
        let mut registry = MetricsRegistry::new();
        registry.gauge_set("lint_c", "third", &[], 7.0);
        registry.histogram_observe("lint_b", "second", &[0.1, 1.0], &[], 0.5);
        registry.counter_add("lint_a", "first", &[("t", "2")], 2.0);
        registry.counter_add("lint_a", "first", &[("t", "1")], 1.0);
        registry.render()
    };
    assert_eq!(forward, reversed, "render order must not track insertion");
    let a = forward.find("lint_a").unwrap();
    let b = forward.find("lint_b").unwrap();
    let c = forward.find("lint_c").unwrap();
    assert!(a < b && b < c, "families render in name order:\n{forward}");
}
