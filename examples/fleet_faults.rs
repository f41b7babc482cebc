//! Surviving the disk: fault injection, quarantine, failover, recovery.
//!
//! The demo drives the whole graceful-degradation story with a
//! deterministic fault schedule:
//!
//! 1. a [`FleetService`] streams a 3-tenant batch through a journal whose
//!    sink is wrapped in a [`FaultInjectingSink`]: a transient `EIO`
//!    burst early (absorbed by the [`RetryPolicy`], invisible except in
//!    `fleet_journal_retries_total`), then a full disk mid-stream;
//! 2. the disk-full exhausts the retry budget and **quarantines** the
//!    pipeline: releases stop (never journaled ⇒ never billed), `submit`
//!    fails fast with [`SubmitError::Quarantined`], and the condition is
//!    visible in [`FleetStream::health`] and the `fleet_quarantined` /
//!    `fleet_journal_failures_total` series;
//! 3. the operator fails over to a fresh sink with
//!    [`FleetStream::resume_with_sink`]: a leading checkpoint anchors the
//!    evidence chain, the accepted backlog is re-journaled, the stalled
//!    ready prefix drains, and the stream finishes normally;
//! 4. the finished report is **bit-identical** to a clean, unfaulted run
//!    of the same batch — and so is a fresh service recovered from the
//!    replacement sink alone, metering exposition byte for byte.
//!
//! ```text
//! cargo run --release --example fleet_faults
//! ```

use trustmeter::prelude::*;

const SCALE: f64 = 0.002;
const JOBS: u64 = 18;
const SEED: u64 = 0xFA17;

fn jobs() -> Vec<JobSpec> {
    (0..JOBS)
        .map(|id| {
            let tenant = TenantId((id % 3) as u32 + 1);
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
    for (id, name) in [(1, "acme"), (2, "shelled-inc"), (3, "initech")] {
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

fn main() {
    // Ground truth: the same batch on an unfaulted service.
    let mut clean = build_service(None);
    let clean_report = clean.process(&jobs());
    let clean_metering = clean.metering().render();

    // ---- 1. A journal on a disk that is about to go bad ----------------
    // Submission journals one Accepted line per job (lines 0..18). The
    // schedule injects a 2-attempt transient EIO burst inside that prefix,
    // then a full disk at line 18 — the first *Run* group commit.
    let schedule = FaultSchedule::none().transient_at(7, 2).disk_full_at(JOBS);
    let (sink, probe) = FaultInjectingSink::wrap(Box::new(MemorySink::new()), schedule);
    let journal = Journal::with_sink(Box::new(sink));
    let mut service = build_service(Some(journal.clone()));
    let retry = RetryPolicy::new(4);
    let mut stream = service.stream(IngestConfig::new(4).with_retry_policy(retry));

    for job in jobs() {
        stream
            .submit(job)
            .expect("accepted lines precede the fault");
    }
    println!(
        "submitted {JOBS} jobs; the retry policy absorbed {} transient fault(s) silently",
        probe.stats().injected_transient
    );

    // ---- 2. The disk fills; the pipeline quarantines --------------------
    while !stream.health().quarantined {
        stream.pump();
        std::thread::yield_now();
    }
    let health = stream.health();
    println!(
        "*** quarantined: {} (after {} retries; {} records parked, {} accepted pending)",
        health.last_error.as_deref().unwrap_or("?"),
        health.retries,
        health.stalled,
        health.pending_accepted,
    );
    assert!(matches!(
        stream.submit(JobSpec::clean(99, TenantId(1), Workload::LoopO, SCALE)),
        Err(SubmitError::Quarantined)
    ));
    assert_eq!(stream.pump(), 0, "releases are stopped");
    assert!(probe.is_dead(), "the injected disk-full is terminal");

    // ---- 3. Failover to a fresh sink ------------------------------------
    stream
        .resume_with_sink(Box::new(MemorySink::new()))
        .expect("fresh sink accepts the failover");
    println!(
        "failed over to a fresh sink: quarantined={}, drained the stalled prefix",
        stream.health().quarantined
    );

    // ---- 4. Finish and compare against the clean run --------------------
    let report = stream.finish();
    assert_eq!(
        report, clean_report,
        "faulted run == clean run, bit for bit"
    );
    assert_eq!(service.metering().render(), clean_metering);
    let text = service.metrics_text();
    assert!(text.contains("fleet_quarantined 0"));
    assert!(text.contains("fleet_journal_failures_total 1"));
    println!(
        "finished: {} records, ledger and metering exposition identical to the clean run",
        report.records.len()
    );

    // The replacement sink replays standalone: leading checkpoint, the
    // re-journaled accepted backlog, the drained runs and receipts.
    let (entries, tail) = journal.entries().expect("replacement sink parses");
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(entries[0].label(), "checkpoint");
    let mut recovered = build_service(None);
    let recovery = recovered
        .recover_latest(&entries)
        .expect("failover sink replays standalone");
    assert!(recovery.is_consistent(), "no receipt was tampered with");
    assert!(
        recovery.unreleased.is_empty(),
        "every accepted job released"
    );
    assert_eq!(recovered.ledger(), &clean_report.ledger);
    assert_eq!(
        recovered.metering().render(),
        clean_metering,
        "recovered metering exposition == clean exposition, byte for byte"
    );
    println!(
        "recovered a fresh service from the replacement sink alone: {} runs replayed, \
         {} accepted entries, state bit-identical to the clean run",
        recovery.runs_replayed, recovery.accepted
    );
    for account in recovered.ledger().iter() {
        println!("  {account}");
    }
}
