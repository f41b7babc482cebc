//! Crash recovery, segmented: kill a journaled stream mid-flight, then
//! prove the recovered service is bit-identical to a clean batch run of
//! everything the journal released.
//!
//! The demo walks the whole group-commit durability story:
//!
//! 1. a [`FleetService`] with a **segmented** write-ahead [`Journal`]
//!    (tiny segments so rotation is visible, a checkpoint cadence so
//!    retirement fires, a group-commit fsync policy) streams a 36-job,
//!    3-tenant batch through a worker pool; the release path commits each
//!    ready prefix as one batched journal write;
//! 2. mid-stream, the cadence writes inline `Checkpoint` entries — each
//!    one starts a fresh segment and **deletes** the segments it
//!    supersedes, so the directory never grows without bound;
//! 3. the stream is dropped mid-flight — the "kill". Unreleased work is
//!    discarded: it was never journaled, so it was never billed;
//! 4. a torn half-line is appended to the last segment, the artifact a
//!    crash mid-append leaves behind (a torn tail is only legal there —
//!    sealed segments must parse cleanly);
//! 5. a fresh service (same config, same tenants — what a restarted
//!    process would build) reopens the directory (repairing the torn
//!    tail) and replays it with [`FleetService::recover_latest`]: the
//!    leading checkpoint seeds the state, the post-checkpoint tail
//!    replays, every journaled receipt is cross-checked, and the
//!    recovered ledger/audit/metering state equals a clean batch run over
//!    the released prefix — byte for byte on the metering exposition.
//!
//! ```text
//! cargo run --release --example fleet_recover
//! ```

use trustmeter::prelude::*;

const SCALE: f64 = 0.002;
const JOBS: u64 = 36;
const SEED: u64 = 0xD15C;

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

/// A service configured the way both the original process and the
/// restarted one would configure it.
fn build_service(journal: Option<Journal>) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(4, SEED));
    service.register(Tenant::new(
        TenantId(1),
        "acme",
        RateCard::per_cpu_hour(0.10),
    ));
    service.register(Tenant::new(
        TenantId(2),
        "shelled-inc",
        RateCard::per_cpu_hour(0.10),
    ));
    service.register(Tenant::new(
        TenantId(3),
        "initech",
        RateCard::per_cpu_hour(0.12),
    ));
    match journal {
        Some(journal) => service
            .with_journal(journal)
            .with_checkpoint_cadence(CheckpointCadence::every_n_runs(16)),
        None => service,
    }
}

fn segment_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read segment dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
}

fn main() {
    let dir = std::env::temp_dir().join(format!("trustmeter-fleet-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // 8 KiB segments rotate many times over this batch; the group-commit
    // policy fsyncs once per 64 entries / 256 KiB of backlog.
    let config = SegmentConfig::default()
        .with_segment_bytes(8 * 1024)
        .with_fsync(FsyncPolicy::GroupCommit {
            max_entries: 64,
            max_bytes: 256 * 1024,
        });

    // ---- 1. Stream with a segmented write-ahead journal -----------------
    let journal = Journal::segmented(&dir, config).expect("open segment dir");
    let mut service = build_service(Some(journal.clone()));
    let mut stream = service.stream(IngestConfig::new(4).with_completion_watermark(8));
    for job in jobs() {
        stream.submit(job).expect("pipeline accepts until finish");
    }
    // Pump until at least two thirds of the batch is posted...
    while stream.verdicts().len() < (JOBS as usize) * 2 / 3 {
        stream.pump();
        std::thread::yield_now();
    }
    let posted = stream.verdicts().len();
    let stats = journal.stats();
    println!(
        "streamed {posted}/{JOBS} jobs: {} entries in {} group commits, \
         {} rotations, {} segments retired, {} fsyncs, then...",
        stats.appends, stats.group_commits, stats.rotations, stats.segments_retired, stats.fsyncs
    );
    assert!(stats.rotations > 0, "tiny segments must have rotated");
    assert!(
        stats.segments_retired > 0,
        "the checkpoint cadence must have retired history"
    );

    // ---- 2. ...the crash ------------------------------------------------
    drop(stream);
    drop(service);
    println!("  *** killed the stream mid-flight ***");

    // ---- 3. A torn final line in the LAST segment -----------------------
    {
        use std::io::Write as _;
        let segments = segment_files(&dir);
        println!("{} live segments on disk after the kill", segments.len());
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(segments.last().expect("at least one segment"))
            .expect("reopen last segment");
        file.write_all(br#"{"Run":{"job":{"id":999"#)
            .expect("append torn line");
    }

    // ---- 4. Recovery ----------------------------------------------------
    // Reopening the directory repairs the torn tail (only the last
    // segment may legally be torn), and the live directory leads with the
    // newest checkpoint — older segments were already deleted.
    let journal = Journal::segmented(&dir, config).expect("reopen segment dir");
    let (entries, tail) = journal.entries().expect("parse segment dir");
    assert!(!tail.is_truncated(), "reopening repaired the torn tail");
    assert_eq!(entries[0].label(), "checkpoint", "checkpoint leads");
    let mut recovered = build_service(None);
    let report = recovered.recover_latest(&entries).expect("replay journal");
    assert!(report.is_consistent(), "no receipt was tampered with");
    let released = (report.checkpoint_runs + report.runs_replayed) as usize;
    println!(
        "recovered {released} runs ({} from the checkpoint, {} replayed, \
         {} receipts cross-checked)",
        report.checkpoint_runs, report.runs_replayed, report.postings_confirmed
    );

    // The released records form a submission-order prefix, so the ground
    // truth is a clean batch run over the first `released` jobs.
    let mut baseline = build_service(None);
    let baseline_report = baseline.process(&jobs()[..released]);
    assert_eq!(
        recovered.ledger(),
        &baseline_report.ledger,
        "recovered ledger == clean batch ledger"
    );
    assert_eq!(
        recovered.metering().render(),
        baseline.metering().render(),
        "recovered metering exposition == clean batch exposition"
    );
    for account in recovered.ledger().iter() {
        println!("  {account}");
    }
    println!("recovered state is bit-identical to a clean run of the released prefix");

    let _ = std::fs::remove_dir_all(&dir);
}
