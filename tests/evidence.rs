//! Adversarial tamper suite for the evidence ledger: a dishonest
//! provider (or a disk-level attacker) edits the journal after the fact
//! — duplicating a billing line, reordering lines, deleting evidence,
//! flipping bytes inside a sealed segment, splicing in a segment from a
//! different fleet — and every mutation must be *detected and located*:
//! the chain walk or the seal check names the first bad entry. The
//! untampered ledger, meanwhile, stays bit-identically recoverable at
//! 1, 2 and 8 workers, and the dispute flow settles invoices from
//! sealed proofs without replaying the journal.

use std::path::{Path, PathBuf};

use trustmeter::prelude::*;

const SCALE: f64 = 0.001;
const SEED: u64 = 77;

/// A mixed batch: four tenants, all four workloads, one launch-time
/// attack stripe (ids ≡ 0 mod 4) so disputes see both clean and
/// overbilled runs.
fn batch(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let tenant = TenantId((i % 4) as u32 + 1);
            let workload = Workload::ALL[(i % 4) as usize];
            if i % 4 == 0 {
                JobSpec::attacked(i, tenant, workload, SCALE, AttackSpec::Shell)
            } else {
                JobSpec::clean(i, tenant, workload, SCALE)
            }
        })
        .collect()
}

fn service_seeded(workers: usize, seed: u64, journal: Option<Journal>) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(workers, seed));
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

/// A scratch segment directory unique to one test, removed when the
/// guard drops — also when the test panics.
struct ScratchDir(PathBuf);

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(tag: &str) -> ScratchDir {
    let dir =
        std::env::temp_dir().join(format!("trustmeter-evidence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ScratchDir(dir)
}

/// Small segments so the batch rotates (and seals) several times.
fn sealed_config(seed: u64) -> SegmentConfig {
    SegmentConfig::default()
        .with_segment_bytes(4 * 1024)
        .with_seal(seed)
}

/// Builds a sealed ledger on disk: processes `jobs` through a sealed
/// segmented journal, then seals the head so *every* entry sits in a
/// sealed segment. Returns the directory's guard.
fn build_sealed(tag: &str, seed: u64, jobs: u64) -> ScratchDir {
    let dir = scratch_dir(tag);
    let journal = Journal::segmented(&dir, sealed_config(seed)).unwrap();
    let mut service = service_seeded(2, seed, Some(journal.clone()));
    service.process(&batch(jobs));
    journal.seal().unwrap();
    dir
}

/// The live segment files of `dir`, in journal order.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    files.sort();
    files
}

/// One journal line located on disk.
#[derive(Clone)]
struct Located {
    file: PathBuf,
    /// Index within the segment file.
    index: usize,
    /// 0-based line number across the concatenated journal.
    global: usize,
    text: String,
}

/// Every journal line of `dir`, in journal order.
fn global_lines(dir: &Path) -> Vec<Located> {
    let mut out = Vec::new();
    let mut global = 0;
    for file in segment_files(dir) {
        let text = std::fs::read_to_string(&file).unwrap();
        for (index, line) in text.lines().enumerate() {
            out.push(Located {
                file: file.clone(),
                index,
                global,
                text: line.to_string(),
            });
            global += 1;
        }
    }
    out
}

fn read_lines(file: &Path) -> Vec<String> {
    std::fs::read_to_string(file)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn write_lines(file: &Path, lines: &[String]) {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(file, text).unwrap();
}

/// Reopens a tampered directory and demands a [`JournalError::ChainViolation`]
/// from the parse walk, returning its 1-based line and message.
fn expect_chain_violation(dir: &Path, seed: u64) -> (usize, String) {
    let journal = Journal::segmented(dir, sealed_config(seed)).unwrap();
    match journal.entries() {
        Err(JournalError::ChainViolation { line, message }) => (line, message),
        other => panic!("expected a chain violation, got {other:?}"),
    }
}

#[test]
fn duplicated_run_line_is_located_as_a_chain_violation() {
    let dir = build_sealed("dup", SEED, 12);
    // Copy-paste a mid-stream Run line right after itself — the classic
    // double-billing forgery the paper's threat model worries about.
    let target = global_lines(&dir)
        .into_iter()
        .find(|l| l.global >= 3 && l.text.contains("\"Run\""))
        .unwrap();
    let mut file_lines = read_lines(&target.file);
    file_lines.insert(target.index + 1, target.text.clone());
    write_lines(&target.file, &file_lines);

    let (line, message) = expect_chain_violation(&dir, SEED);
    assert_eq!(
        line,
        target.global + 2,
        "the duplicate itself is the first bad line"
    );
    assert!(message.contains("run entry"), "names the entry: {message}");
    assert!(
        message.contains("claims prev"),
        "explains the break: {message}"
    );
}

#[test]
fn swapped_lines_are_located_as_a_chain_violation() {
    let dir = build_sealed("swap", SEED, 12);
    // Reorder two adjacent mid-file lines (e.g. move a cheap invoice in
    // front of an expensive one's run).
    let target = global_lines(&dir)
        .into_iter()
        .find(|l| l.global >= 3 && read_lines(&l.file).len() > l.index + 1)
        .unwrap();
    let mut file_lines = read_lines(&target.file);
    file_lines.swap(target.index, target.index + 1);
    write_lines(&target.file, &file_lines);

    let (line, message) = expect_chain_violation(&dir, SEED);
    assert_eq!(
        line,
        target.global + 1,
        "the earlier swapped slot is the first bad line"
    );
    assert!(
        message.contains("claims prev"),
        "explains the break: {message}"
    );
}

#[test]
fn deleted_mid_stream_line_is_located_as_a_chain_violation() {
    let dir = build_sealed("delete", SEED, 12);
    // Silently drop one piece of evidence from the middle of the stream.
    let lines = global_lines(&dir);
    let total = lines.len();
    let target = lines
        .into_iter()
        .find(|l| l.global >= 3 && l.global + 1 < total)
        .unwrap();
    let mut file_lines = read_lines(&target.file);
    file_lines.remove(target.index);
    write_lines(&target.file, &file_lines);

    let (line, message) = expect_chain_violation(&dir, SEED);
    assert_eq!(
        line,
        target.global + 1,
        "the line after the deletion inherits its slot and breaks there"
    );
    assert!(
        message.contains("claims prev"),
        "explains the break: {message}"
    );
}

/// Flips the first ASCII digit inside the entry payload of `line`,
/// keeping it valid JSON so detection is cryptographic, not syntactic.
fn flip_payload_digit(line: &str) -> String {
    let entry_at = line.find("\"entry\"").unwrap();
    let at = line[entry_at..]
        .char_indices()
        .find(|(_, c)| c.is_ascii_digit())
        .map(|(i, _)| entry_at + i)
        .unwrap();
    let mut bytes = line.as_bytes().to_vec();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    String::from_utf8(bytes).unwrap()
}

#[test]
fn flipped_byte_in_a_sealed_segment_breaks_the_chain() {
    let dir = build_sealed("flipmid", SEED, 12);
    // One flipped digit mid-stream: the edited line still parses, but the
    // next line's prev link no longer matches the re-folded chain.
    let lines = global_lines(&dir);
    let total = lines.len();
    let target = lines
        .into_iter()
        .find(|l| l.global >= 3 && l.global + 1 < total)
        .unwrap();
    let mut file_lines = read_lines(&target.file);
    file_lines[target.index] = flip_payload_digit(&file_lines[target.index]);
    write_lines(&target.file, &file_lines);

    let (line, message) = expect_chain_violation(&dir, SEED);
    assert_eq!(
        line,
        target.global + 2,
        "the edit surfaces at the next chained line"
    );
    assert!(
        message.contains("claims prev"),
        "explains the break: {message}"
    );
}

#[test]
fn flipped_byte_in_the_final_sealed_line_fails_the_seal() {
    let dir = build_sealed("fliplast", SEED, 12);
    // The last committed line has no successor to contradict it — the
    // chain walk alone cannot see the edit. The sealed block header can:
    // its trailing chain bound and Merkle root both disagree.
    let target = global_lines(&dir).last().cloned().unwrap();
    let mut file_lines = read_lines(&target.file);
    file_lines[target.index] = flip_payload_digit(&file_lines[target.index]);
    write_lines(&target.file, &file_lines);

    let journal = Journal::segmented(&dir, sealed_config(SEED)).unwrap();
    let (_, tail) = journal.entries().expect("the chain walk alone passes");
    assert_eq!(tail, TailStatus::Clean);
    match journal.verify(SEED) {
        Err(JournalError::SealViolation { message, .. }) => {
            assert!(
                message.contains("chain bound") || message.contains("merkle root"),
                "names the broken commitment: {message}"
            );
        }
        other => panic!("expected a seal violation, got {other:?}"),
    }
}

#[test]
fn spliced_segment_from_a_different_fleet_seed_is_rejected() {
    let ours = build_sealed("splice-ours", SEED, 12);
    let theirs = build_sealed("splice-theirs", 99, 12);
    let our_files = segment_files(&ours);
    let their_files = segment_files(&theirs);
    assert!(
        our_files.len() > 2 && their_files.len() > 2,
        "batch rotated"
    );

    // Replace our first segment (and its seal) with the other fleet's:
    // the foreign content chains internally, but our second segment's
    // leading prev link contradicts the foreign chain head.
    let foreign = std::fs::read_to_string(&their_files[0]).unwrap();
    let foreign_lines = foreign.lines().count();
    std::fs::write(&our_files[0], &foreign).unwrap();
    std::fs::copy(
        their_files[0].with_extension("seal"),
        our_files[0].with_extension("seal"),
    )
    .unwrap();
    let (line, message) = expect_chain_violation(&ours, SEED);
    assert_eq!(
        line,
        foreign_lines + 1,
        "the first line after the spliced segment is the first bad entry"
    );
    assert!(
        message.contains("claims prev"),
        "explains the break: {message}"
    );
}

#[test]
fn spliced_seal_sidecar_from_a_different_fleet_seed_is_rejected() {
    let ours = build_sealed("sealonly-ours", SEED, 12);
    let theirs = build_sealed("sealonly-theirs", 99, 12);
    // Keep our entries, swap in the foreign fleet's block header for our
    // first segment: the chain is intact, so only the seal check can
    // object.
    let spliced_file = segment_files(&ours)[0].clone();
    let spliced_segment: u64 = spliced_file
        .file_stem()
        .unwrap()
        .to_str()
        .unwrap()
        .trim_start_matches("segment-")
        .parse()
        .unwrap();
    std::fs::copy(
        segment_files(&theirs)[0].with_extension("seal"),
        spliced_file.with_extension("seal"),
    )
    .unwrap();
    let journal = Journal::segmented(&ours, sealed_config(SEED)).unwrap();
    journal.entries().expect("the chain itself is intact");
    match journal.verify(SEED) {
        Err(JournalError::SealViolation { segment, .. }) => {
            assert_eq!(segment, spliced_segment, "names the spliced segment");
        }
        other => panic!("expected a seal violation, got {other:?}"),
    }
}

#[test]
fn resigned_header_of_another_version_is_rejected_by_name() {
    let dir = build_sealed("version", SEED, 12);
    let key = SealKey::from_seed(SEED);
    // Rewrite the first sidecar to a format this build does not read and
    // re-sign it under the right key: the seal itself is valid, so only
    // the version check can object. Version 3 is the format before this
    // one's `Run` lines; no reader of it is kept.
    let sidecar = segment_files(&dir)[0].with_extension("seal");
    let original: BlockHeader =
        serde_json::from_str(&std::fs::read_to_string(&sidecar).unwrap()).unwrap();
    let proofs = Journal::segmented(&dir, sealed_config(SEED))
        .unwrap()
        .prove(JobId(0))
        .unwrap();
    let proof = proofs
        .into_iter()
        .find(|proof| proof.header.segment == original.segment)
        .expect("job 0's Accepted line sits in the first segment");
    assert_eq!(BlockHeader::VERSION, 4);
    for version in [3, BlockHeader::VERSION + 1] {
        let mut header = original.clone();
        header.version = version;
        header.sign(&key);
        assert!(header.verify_seal(&key));
        std::fs::write(&sidecar, serde_json::to_string(&header).unwrap()).unwrap();

        let journal = Journal::segmented(&dir, sealed_config(SEED)).unwrap();
        let named = JournalError::UnsupportedHeader {
            segment: header.segment,
            version,
        };
        assert_eq!(journal.verify(SEED).unwrap_err(), named);
        assert_eq!(journal.prove(JobId(0)).unwrap_err(), named);
        assert_eq!(journal.sealed_headers().unwrap_err(), named);
        let mut proof = proof.clone();
        proof.header = header.clone();
        assert_eq!(
            proof.verify(&key).unwrap_err(),
            ProofError::UnsupportedHeader {
                segment: header.segment,
                version,
            }
        );
    }
}

#[test]
fn untampered_sealed_recovery_is_bit_identical_at_1_2_8_workers() {
    let jobs = batch(24);
    let mut baseline = service_seeded(4, SEED, None);
    let baseline_report = baseline.process(&jobs);

    for workers in [1usize, 2, 8] {
        let dir = scratch_dir(&format!("clean-{workers}"));
        let journal = Journal::segmented(&dir, sealed_config(SEED)).unwrap();
        let mut service = service_seeded(workers, SEED, Some(journal.clone()))
            .with_checkpoint_cadence(CheckpointCadence::every_n_runs(10));
        let mut stream = service.stream(IngestConfig::new(workers));
        for job in &jobs {
            stream.submit(job.clone()).expect("queue sized for batch");
            stream.pump();
        }
        let streamed_report = stream.finish();
        assert_eq!(
            streamed_report, baseline_report,
            "sealing must not perturb results at {workers} workers"
        );
        let stats = journal.stats();
        assert!(stats.rotations > 0, "segments rotated: {stats:?}");
        assert!(stats.seals > 0, "rotations sealed blocks: {stats:?}");
        assert!(
            stats.segments_retired > 0,
            "checkpoints retired sealed history: {stats:?}"
        );

        // Strict recovery from the sealed ledger is bit-identical.
        let reopened = Journal::segmented(&dir, sealed_config(SEED)).unwrap();
        let (entries, tail) = reopened.entries().unwrap();
        assert_eq!(tail, TailStatus::Clean);
        let mut recovered = service_seeded(workers, SEED, None);
        recovered.recover_latest(&entries).unwrap();
        assert_eq!(recovered.ledger(), service.ledger());
        assert_eq!(recovered.metering().render(), service.metering().render());

        // And, once the head (which holds the final checkpoint — the
        // cadence retired everything it superseded) is sealed too, the
        // reopened ledger verifies cryptographically end to end.
        reopened.seal().unwrap();
        let verification = reopened.verify(SEED).unwrap();
        assert_eq!(verification.entries, entries.len() as u64);
        assert!(verification.seals_verified > 0, "{verification:?}");
    }
}

#[test]
fn dispute_settles_from_sealed_proofs_without_replay() {
    let dir = scratch_dir("dispute");
    let journal = Journal::segmented(&dir, sealed_config(SEED)).unwrap();
    let mut service = service_seeded(2, SEED, Some(journal.clone()));
    // Make job 0 a *runtime* (scheduling) attack: unlike the shell
    // attack, whose injected loop genuinely runs in the victim's context
    // (truth grows with the bill), scheduling inflates the bill over an
    // unchanged truth — the overcharge a dispute should surface.
    let mut jobs = batch(8);
    jobs[0] = JobSpec::attacked(
        0,
        TenantId(1),
        Workload::ALL[0],
        SCALE,
        AttackSpec::Scheduling { nice: -10 },
    );
    service.process(&jobs);

    // A clean job settles with its sealed invoice and a clean verdict.
    let clean = service.dispute(JobId(3)).unwrap();
    assert_eq!(clean.job, JobId(3));
    assert_eq!(clean.runs, 1, "one sealed run names the job");
    assert_eq!(clean.invoice.as_ref().unwrap().job, JobId(3));
    assert!(!clean.flagged());
    assert!(clean.overcharge_ratio().unwrap() > 0.0);

    // The shell-attacked job's sealed evidence shows the overcharge and
    // the anomalous verdict — pinned to proofs, not to the live ledger.
    let attacked = service.dispute(JobId(0)).unwrap();
    assert!(attacked.flagged(), "the sealed verdict carries the anomaly");
    assert!(
        attacked.overcharge_ratio().unwrap() > 1.0,
        "ratio: {:?}",
        attacked.overcharge_ratio()
    );

    // Every proof verifies standalone — key only, no journal, no replay —
    // and fails against every *other* sealed header.
    let key = SealKey::from_seed(SEED);
    let headers = journal.sealed_headers().unwrap();
    assert!(headers.len() > 1, "the batch sealed several blocks");
    for proof in clean.proofs.iter().chain(&attacked.proofs) {
        proof.verify(&key).unwrap();
        for header in headers.iter().filter(|h| h.segment != proof.header.segment) {
            assert!(
                proof.verify_against(header).is_err(),
                "proof for segment {} must not fold into segment {}",
                proof.header.segment,
                header.segment
            );
        }
    }

    // Every sealed header is in the one format this build reads.
    for header in &headers {
        assert_eq!(header.version, BlockHeader::VERSION);
    }

    // Disputes are themselves metered.
    let text = service.metrics_text();
    assert!(text.contains("fleet_proofs_emitted_total"));
    assert!(text.contains("fleet_ledger_seals_total"));

    // No evidence, no settlement.
    assert!(matches!(
        service.dispute(JobId(555)),
        Err(DisputeError::NoEvidence(JobId(555)))
    ));
    let mut bare = service_seeded(1, SEED, None);
    assert!(matches!(
        bare.dispute(JobId(0)),
        Err(DisputeError::NoJournal)
    ));
}
