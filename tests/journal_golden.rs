//! Golden digests pinning the journal's bytes.
//!
//! `tests/evidence.rs` and `tests/faults.rs` check that a journal
//! verifies and recovers, so a change that moved a line, a segment
//! boundary or a seal would still pass them. These tests hash every file
//! a scenario leaves behind (its name, length and bytes) and compare the
//! result against digests recorded from a known-good build, as
//! `tests/kernel_golden.rs` pins the kernel. Between them the scenarios
//! cover group commits, rotation, checkpoint lines larger than a
//! segment, retirement, reopening a sealed directory, a disk-full
//! failover to a fresh sealed sink, and a poison verdict.
//!
//! A sixth digest is blind to the execution witness: it hashes the
//! entries the four run-carrying journals read back as, with every field
//! the witness decides zeroed (a `Run`'s three witness digests and its
//! quote's nonce and MAC, a `WitnessMismatch` verdict's two digests). A
//! change to the witness encoding moves the byte digests but never this
//! one.
//!
//! A seventh digest hashes the `Debug` text of the same entries, with
//! each `Run` quote's nonce and MAC zeroed (the nonce commits to the
//! reference, and the MAC signs the nonce). It depends on no text
//! format, so a change to how entries are written — the journal format —
//! moves the other six pins and never this one; a change to what the
//! service decides moves it.
//!
//! An eighth digest hashes the JSON of every inclusion proof
//! `Journal::prove` gives for each job of the processed directory after
//! each seal: its lines, leaf indices, Merkle paths and signed headers.
//! A faster prover must leave it where it is; a format change moves it
//! with the byte pins.
//!
//! If a digest changes on purpose, re-derive it from the failure message
//! and say why in the commit. A deliberate format change re-derives the
//! byte pins and the witness-blind pin and leaves the `Debug` pin where
//! it was; a witness change re-derives the byte pins and the `Debug` pin
//! and leaves the witness-blind pin where it was.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use trustmeter::prelude::*;

const SCALE: f64 = 0.001;

/// The fleet seed, which also keys the seals.
const SEED: u64 = 77;

/// Sealed segment directory after 104 jobs in seven `process` batches.
const PROCESSED_DIGEST: &str = "86e4a7061a1e6ecb28334552c6116c8ac07b9c92f5393aa03cdc9d0cdf6bf656";

/// The same directory after a reopen, a recovery and 8 more jobs.
const REOPENED_DIGEST: &str = "13c783b0e5e8ac0073c6ae1a29915fc32a7b9cce3c0fcf7dc6514c14ae02a447";

/// The disk-full sink's directory, then the one it failed over to.
const FAILED_DIGEST: &str = "7f0c4cf36bd5237e064118b25a7b6d36078297960fb993efb723b464ec3156af";
const FAILED_OVER_DIGEST: &str = "bd2a5d08229068a937e22fb44dbe3ecf9d9eb209aaaf30a221f7a6443ad42d4f";

/// The in-memory journal text of the poison stream.
const POISON_DIGEST: &str = "ff72ada01118fe61b52defa628ae2b4e60cbc803357e07c3f77d4dc28723895a";

/// The entries of the processed, reopened, failed-over and poison
/// journals, with the witness-derived fields zeroed.
const WITNESS_BLIND_DIGEST: &str =
    "0713b102074df5693373c8337b6a3635346bf81cc3524d8f22e8eb1964c2ddc0";

/// The `Debug` text of the same entries, with each `Run` quote's nonce
/// and MAC zeroed (both follow from the reference commitment): blind to
/// the journal's text format.
const DEBUG_DIGEST: &str = "70082472d33fe81684b226d157f2a045c375e611b7d7e0ce0aa2a82aec9d7b31";

/// The JSON of every proof `prove` gives for jobs 0..104 after the first
/// seal, then for jobs 0..112 after the reopened directory's seal.
const PROOFS_DIGEST: &str = "bd46ea4866f237356ef909b4ace73384afc276c75cbe7b29d9469632ffa65302";

/// A mixed batch over job ids `ids`: four tenants, all four workloads,
/// clean runs and a mix of launch-time and runtime attacks.
fn jobs(ids: std::ops::Range<u64>) -> Vec<JobSpec> {
    ids.map(|i| {
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

/// A service on [`SEED`] with the four tenants registered.
fn service(workers: usize) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(workers, SEED));
    for id in 1..=4u32 {
        service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    service
}

/// Sealed 16 KiB segments: a `Run` line is about 1 KiB and a checkpoint
/// line outgrows a segment, so every scenario rotates.
fn sealed_config() -> SegmentConfig {
    SegmentConfig::default()
        .with_segment_bytes(16 * 1024)
        .with_seal(SEED)
}

/// A fresh directory; tests run their scenarios concurrently, so each
/// call gets its own.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "trustmeter-journal-golden-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Feeds one named document into the running digest, length-prefixed so
/// adjacent documents cannot alias.
fn absorb(hasher: &mut Sha256, name: &str, body: &[u8]) {
    for part in [name.as_bytes(), body] {
        hasher.update(&(part.len() as u64).to_be_bytes());
        hasher.update(part);
    }
}

/// SHA-256 over the name, length and bytes of every file in `dir`, in
/// name order.
fn dir_digest(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("scenario directory exists")
        .map(|entry| {
            entry
                .expect("directory entry reads")
                .file_name()
                .into_string()
                .expect("file names are UTF-8")
        })
        .collect();
    names.sort();
    let mut hasher = Sha256::new();
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).expect("scenario file reads");
        absorb(&mut hasher, name, &bytes);
    }
    Sha256::to_hex(&hasher.finalize())
}

fn text_digest(text: &str) -> String {
    let mut hasher = Sha256::new();
    absorb(&mut hasher, "journal", text.as_bytes());
    Sha256::to_hex(&hasher.finalize())
}

/// Polls until `done` holds for the stream's counters.
fn wait_for(stream: &FleetStream<'_>, done: impl Fn(&IngestStats) -> bool) {
    while !done(&stream.stats()) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What one pinned journal holds: the digest of its bytes and the
/// entries it reads back as.
type Pinned = (String, Vec<JournalEntry>);

/// Feeds the JSON of every proof `journal` gives for each job of `ids`,
/// in order, into the running digest.
fn absorb_proofs(hasher: &mut Sha256, journal: &Journal, ids: std::ops::Range<u64>) {
    for id in ids {
        for proof in journal.prove(JobId(id)).expect("the sealed journal proves") {
            let json = serde_json::to_string(&proof).expect("a proof serializes");
            absorb(hasher, "proof", json.as_bytes());
        }
    }
}

/// Every entry `journal` reads back as, from a clean tail.
fn read_back(journal: &Journal) -> Vec<JournalEntry> {
    let (entries, tail) = journal.entries().expect("the journal reads back");
    assert_eq!(tail, TailStatus::Clean);
    entries
}

/// 104 jobs `process`ed into a sealed directory, then the directory
/// reopened, recovered and 8 more jobs processed; with the digest of
/// every proof of every job after each seal (see [`absorb_proofs`]).
fn processed_and_reopened() -> ([Pinned; 2], String) {
    let dir = scratch_dir("processed");
    let journal = Journal::segmented(&dir, sealed_config()).expect("fresh directory opens");
    let mut first = service(2)
        .with_journal(journal.clone())
        .with_checkpoint_cadence(CheckpointCadence::every_n_runs(40));
    let all = jobs(0..104);
    for chunk in all.chunks(16) {
        first.process(chunk);
    }
    journal.seal().expect("the head seals");
    drop(first);
    let processed = dir_digest(&dir);
    let mut proofs = Sha256::new();
    absorb_proofs(&mut proofs, &journal, 0..104);
    drop(journal);

    let journal = Journal::segmented(&dir, sealed_config()).expect("sealed directory reopens");
    let entries = read_back(&journal);
    let mut second = service(2);
    second
        .recover_latest(&entries)
        .expect("the sealed journal recovers");
    let mut second = second
        .with_journal(journal.clone())
        .with_checkpoint_cadence(CheckpointCadence::every_n_runs(40));
    second.process(&jobs(104..112));
    journal.seal().expect("the head seals");
    assert!(
        journal
            .verify(SEED)
            .expect("the ledger verifies")
            .seals_verified
            > 0
    );
    let reopened_entries = read_back(&journal);
    drop(second);
    let reopened = dir_digest(&dir);
    absorb_proofs(&mut proofs, &journal, 0..112);
    drop(journal);
    std::fs::remove_dir_all(&dir).unwrap();
    (
        [(processed, entries), (reopened, reopened_entries)],
        Sha256::to_hex(&proofs.finalize()),
    )
}

#[test]
fn processed_and_reopened_sealed_segments_match_the_pinned_digests() {
    let ([(processed, _), (reopened, _)], _) = processed_and_reopened();
    assert_eq!(
        processed, PROCESSED_DIGEST,
        "the processed directory's bytes changed"
    );
    assert_eq!(
        reopened, REOPENED_DIGEST,
        "the reopened directory's bytes changed"
    );
}

/// The digest of a disk-full sink's directory (30 `Accepted` lines and
/// no run), then the fresh directory it failed over to.
fn disk_full_failover() -> (String, Pinned) {
    let failed_dir = scratch_dir("failed");
    let fresh_dir = scratch_dir("failed-over");
    // The 30 Accepted lines land at 0..=29; the first Run group commit
    // holds line 40 and finds the disk full.
    let inner = SegmentedFileSink::open(&failed_dir, sealed_config()).expect("fresh directory");
    let (sink, _probe) =
        FaultInjectingSink::wrap(Box::new(inner), FaultSchedule::none().disk_full_at(40));
    let journal = Journal::with_sink(Box::new(sink));
    let mut service = service(2).with_journal(journal.clone());
    let config = IngestConfig::new(2)
        .paused()
        .with_retry_policy(RetryPolicy::none());
    let mut stream = service.stream(config);
    stream
        .submit_all(&jobs(0..30))
        .expect("the accepted lines precede the fault");
    stream.resume();
    wait_for(&stream, |stats| stats.ready == 30);
    assert_eq!(stream.pump(), 0, "the failed commit releases nothing");
    assert!(stream.health().quarantined);

    let fresh = SegmentedFileSink::open(&fresh_dir, sealed_config()).expect("fresh directory");
    stream
        .resume_with_sink(Box::new(fresh))
        .expect("the fresh sink takes the failover");
    let report = stream.finish();
    assert_eq!(report.records.len(), 30);
    journal.seal().expect("the head seals");
    assert!(
        journal
            .verify(SEED)
            .expect("the ledger verifies")
            .seals_verified
            > 0
    );
    let failed_over_entries = read_back(&journal);
    drop(service);
    drop(journal);
    let failed = dir_digest(&failed_dir);
    let failed_over = dir_digest(&fresh_dir);
    std::fs::remove_dir_all(&failed_dir).unwrap();
    std::fs::remove_dir_all(&fresh_dir).unwrap();
    (failed, (failed_over, failed_over_entries))
}

#[test]
fn every_proof_of_the_processed_directory_matches_the_pinned_digest() {
    let (_, proofs) = processed_and_reopened();
    assert_eq!(
        proofs, PROOFS_DIGEST,
        "a proof's line, index, path or header changed"
    );
}

#[test]
fn a_disk_full_failover_matches_the_pinned_digests() {
    let (failed, (failed_over, _)) = disk_full_failover();
    assert_eq!(
        failed, FAILED_DIGEST,
        "the disk-full directory's bytes changed"
    );
    assert_eq!(
        failed_over, FAILED_OVER_DIGEST,
        "the failed-over directory's bytes changed"
    );
}

/// The in-memory journal of a stream whose job 2 is poison.
fn poison_stream() -> Pinned {
    quiet_injected_panics();
    let journal = Journal::in_memory();
    let mut service = service(1).with_journal(journal.clone());
    let config = IngestConfig::new(1)
        .paused()
        .with_supervisor(SupervisorPolicy::default().with_max_job_attempts(2))
        .with_worker_faults(WorkerFaultSchedule::none().poison_on(JobId(2)));
    let mut stream = service.stream(config);
    stream.submit_all(&jobs(0..6)).expect("the queue holds six");
    stream.resume();
    // Five records and one poison verdict wait in the completion log.
    wait_for(&stream, |stats| stats.ready == 6);
    assert_eq!(stream.pump(), 5);
    let report = stream.finish();
    assert_eq!(report.records.len(), 5);
    let text = journal.text().expect("the in-memory journal reads");
    (text_digest(&text), read_back(&journal))
}

#[test]
fn a_poison_verdicts_journal_text_matches_the_pinned_digest() {
    let (text, _) = poison_stream();
    assert_eq!(
        text, POISON_DIGEST,
        "the poison stream's journal text changed"
    );
}

/// `entry` with every field the execution witness decides zeroed: a
/// `Run`'s outcome, reference and quote witness digests, the quote's
/// nonce (it commits to the reference) and MAC (it signs the witness),
/// and the two digests of a `WitnessMismatch` anomaly.
fn witness_blind(mut entry: JournalEntry) -> JournalEntry {
    match &mut entry {
        JournalEntry::Run(record) => {
            record.outcome.witness_digest = Digest::ZERO;
            if let Some(reference) = &mut record.reference {
                reference.witness_digest = Digest::ZERO;
            }
            if let Some(quote) = &mut record.quote {
                quote.witness_digest = Digest::ZERO;
                quote.nonce = 0;
                quote.mac = [0; 32];
            }
        }
        JournalEntry::Verdict(verdict) => {
            for anomaly in &mut verdict.anomalies {
                if let Anomaly::WitnessMismatch { expected, observed } = anomaly {
                    *expected = Digest::ZERO;
                    *observed = Digest::ZERO;
                }
            }
        }
        _ => {}
    }
    entry
}

/// `entry` with a `Run` quote's nonce and MAC zeroed.
fn unsigned(mut entry: JournalEntry) -> JournalEntry {
    if let JournalEntry::Run(record) = &mut entry {
        if let Some(quote) = &mut record.quote {
            quote.nonce = 0;
            quote.mac = [0; 32];
        }
    }
    entry
}

/// The entries the four run-carrying journals read back as, by name.
fn run_carrying_entries() -> [(&'static str, Vec<JournalEntry>); 4] {
    let ([(_, processed), (_, reopened)], _) = processed_and_reopened();
    let (_, (_, failed_over)) = disk_full_failover();
    let (_, poison) = poison_stream();
    [
        ("processed", processed),
        ("reopened", reopened),
        ("failed-over", failed_over),
        ("poison", poison),
    ]
}

#[test]
fn the_witness_blind_entries_match_the_pinned_digest() {
    let mut hasher = Sha256::new();
    for (name, entries) in run_carrying_entries() {
        for entry in entries {
            let json = serde_json::to_string(&witness_blind(entry)).expect("entry serializes");
            absorb(&mut hasher, name, json.as_bytes());
        }
    }
    assert_eq!(
        Sha256::to_hex(&hasher.finalize()),
        WITNESS_BLIND_DIGEST,
        "a journaled entry changed outside its witness-derived fields"
    );
}

#[test]
fn the_entries_debug_text_matches_the_pinned_digest() {
    let mut hasher = Sha256::new();
    let mut count = 0;
    for (name, entries) in run_carrying_entries() {
        for entry in entries {
            absorb(
                &mut hasher,
                name,
                format!("{:?}", unsigned(entry)).as_bytes(),
            );
            count += 1;
        }
    }
    assert_eq!(count, 241);
    assert_eq!(
        Sha256::to_hex(&hasher.finalize()),
        DEBUG_DIGEST,
        "a journaled entry changed outside its quote's nonce and MAC"
    );
}

/// Injected worker panics are expected here; silence exactly those and
/// forward everything else to the default hook.
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
