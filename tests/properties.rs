//! Property-based tests (proptest) over the core invariants:
//! accounting conservation, monotonicity, hash-chain integrity, billing
//! arithmetic, and agreement of the two JSON decoding paths on journal
//! evidence.

use proptest::prelude::*;
use trustmeter::fleet::evidence;
use trustmeter::prelude::*;

// ---------------------------------------------------------------------------
// Metering-scheme invariants over arbitrary event streams
// ---------------------------------------------------------------------------

/// A simplified random execution: a sequence of slices, each with a task id,
/// a mode, and a duration; ticks arrive every `jiffy` cycles.
#[derive(Debug, Clone)]
struct RandomExecution {
    jiffy: u64,
    slices: Vec<(u32, bool, u64)>, // (task, kernel?, cycles)
}

fn random_execution() -> impl Strategy<Value = RandomExecution> {
    (
        1_000u64..50_000,
        prop::collection::vec((1u32..6, any::<bool>(), 1u64..30_000), 1..60),
    )
        .prop_map(|(jiffy, slices)| RandomExecution { jiffy, slices })
}

/// Replays a random execution into a set of schemes, emitting switch,
/// mode-change and timer-tick events the way the kernel would.
fn replay(exec: &RandomExecution, bank: &mut MeterBank) -> (u64, u64) {
    let mut now = 0u64;
    let mut next_tick = exec.jiffy;
    let mut busy = 0u64;
    let mut ticks = 0u64;
    for (task, kernel, cycles) in &exec.slices {
        let task = TaskId(*task);
        let mode = if *kernel { Mode::Kernel } else { Mode::User };
        bank.on_event(&MeterEvent::SwitchIn {
            at: Cycles(now),
            task,
            mode,
        });
        let mut remaining = *cycles;
        while remaining > 0 {
            let run = remaining.min(next_tick - now);
            now += run;
            remaining -= run;
            busy += run;
            if now == next_tick {
                bank.on_event(&MeterEvent::TimerTick {
                    at: Cycles(now),
                    task: Some(task),
                    mode,
                });
                ticks += 1;
                next_tick += exec.jiffy;
            }
        }
        bank.on_event(&MeterEvent::SwitchOut {
            at: Cycles(now),
            task,
        });
    }
    (busy, ticks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The TSC scheme accounts exactly the busy cycles, never more or less.
    #[test]
    fn tsc_accounting_conserves_busy_time(exec in random_execution()) {
        let mut bank = MeterBank::standard(Cycles(exec.jiffy));
        let (busy, _) = replay(&exec, &mut bank);
        let total: u64 = bank
            .usages(SchemeKind::Tsc)
            .values()
            .map(|u| u.total().as_u64())
            .sum();
        prop_assert_eq!(total, busy);
    }

    /// The tick scheme accounts exactly one jiffy per non-idle tick.
    #[test]
    fn tick_accounting_totals_jiffies(exec in random_execution()) {
        let mut bank = MeterBank::standard(Cycles(exec.jiffy));
        let (_, ticks) = replay(&exec, &mut bank);
        let total: u64 = bank
            .usages(SchemeKind::Tick)
            .values()
            .map(|u| u.total().as_u64())
            .sum();
        prop_assert_eq!(total, ticks * exec.jiffy);
    }

    /// The tick scheme's error for any single task is bounded by one jiffy
    /// per context switch of that task (the imprecision the scheduling
    /// attack exploits is bounded, not unbounded).
    #[test]
    fn tick_error_bounded_by_switch_count(exec in random_execution()) {
        let mut bank = MeterBank::standard(Cycles(exec.jiffy));
        replay(&exec, &mut bank);
        let tick = bank.usages(SchemeKind::Tick);
        let tsc = bank.usages(SchemeKind::Tsc);
        for (task, truth) in &tsc {
            let billed = tick.get(task).copied().unwrap_or(CpuTime::ZERO);
            let switches = exec.slices.iter().filter(|(t, _, _)| TaskId(*t) == *task).count() as u64;
            let bound = (switches + 1) * exec.jiffy;
            let err = billed.total().as_u64().abs_diff(truth.total().as_u64());
            prop_assert!(err <= bound, "task {task}: err {err} > bound {bound}");
        }
    }

    /// Process-aware and TSC accounting agree exactly when there are no
    /// interrupts in the stream.
    #[test]
    fn process_aware_equals_tsc_without_interrupts(exec in random_execution()) {
        let mut bank = MeterBank::standard(Cycles(exec.jiffy));
        replay(&exec, &mut bank);
        prop_assert_eq!(bank.usages(SchemeKind::Tsc), bank.usages(SchemeKind::ProcessAware));
    }
}

// ---------------------------------------------------------------------------
// CpuTime / billing arithmetic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cputime_addition_is_commutative_and_monotone(
        a_u in 0u64..1_000_000_000, a_s in 0u64..1_000_000_000,
        b_u in 0u64..1_000_000_000, b_s in 0u64..1_000_000_000,
    ) {
        let a = CpuTime::new(Cycles(a_u), Cycles(a_s));
        let b = CpuTime::new(Cycles(b_u), Cycles(b_s));
        prop_assert_eq!(a + b, b + a);
        prop_assert!((a + b).total() >= a.total());
        prop_assert_eq!((a + b).saturating_sub(b), a);
    }

    #[test]
    fn invoice_total_scales_linearly_with_usage(
        secs in 1u64..100_000,
        price in 0.01f64..10.0,
    ) {
        let freq = CpuFrequency::from_mhz(1000);
        let card = RateCard::per_cpu_second(price);
        let usage = CpuTime::user(freq.cycles_for(Nanos::from_secs(secs)));
        let double = CpuTime::user(freq.cycles_for(Nanos::from_secs(secs * 2)));
        let single = card.invoice(usage, freq).total;
        let doubled = card.invoice(double, freq).total;
        prop_assert!((doubled - 2.0 * single).abs() < 1e-6 * doubled.max(1.0));
    }

    #[test]
    fn overcharge_report_is_consistent(
        ref_u in 1u64..1_000_000_000, meas_u in 1u64..2_000_000_000,
    ) {
        let freq = CpuFrequency::from_mhz(1000);
        let reference = CpuTime::user(Cycles(ref_u));
        let measured = CpuTime::user(Cycles(meas_u));
        let report = OverchargeReport::compare(measured, reference, freq);
        prop_assert!(report.overcharge_secs >= 0.0);
        if report.verdict == Verdict::Overcharged {
            prop_assert!(meas_u > ref_u);
            prop_assert!(report.inflation_ratio > 1.0);
        }
        if meas_u == ref_u {
            prop_assert_eq!(report.verdict, Verdict::Consistent);
        }
    }
}

// ---------------------------------------------------------------------------
// Integrity structures
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SHA-256 streaming equals one-shot hashing for arbitrary chunkings.
    #[test]
    fn sha256_streaming_matches_oneshot(data in prop::collection::vec(any::<u8>(), 0..2048), split in 1usize..64) {
        let oneshot = Sha256::digest(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(split) {
            h.update(chunk);
        }
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// PCR replay commits to the exact measurement order.
    #[test]
    fn pcr_replay_detects_any_reordering(names in prop::collection::vec("[a-z]{1,8}", 2..10)) {
        let digests: Vec<Digest> = names.iter().map(|n| Digest::of(n.as_bytes())).collect();
        let original = PcrBank::replay(digests.clone());
        let mut swapped = digests.clone();
        swapped.swap(0, 1);
        if digests[0] != digests[1] {
            prop_assert_ne!(PcrBank::replay(swapped), original);
        }
    }

    /// A measurement log verifies against its own contents and flags any
    /// extra image.
    #[test]
    fn measurement_log_flags_extras(names in prop::collection::vec("[a-z]{1,8}", 1..8), extra in "[a-z]{9,12}") {
        let mut log = MeasurementLog::new();
        for n in &names {
            log.measure(MeasuredImage::new(n.clone(), ImageKind::SharedLibrary));
        }
        let ok = log.verify(names.iter().map(|s| s.as_str()), log.pcr());
        prop_assert!(ok.is_trustworthy());
        log.measure(MeasuredImage::new(extra.clone(), ImageKind::ShellInjected));
        let bad = log.verify(names.iter().map(|s| s.as_str()), log.pcr());
        prop_assert!(!bad.is_trustworthy());
        prop_assert_eq!(bad.unexpected.len(), 1);
    }

    /// Execution witnesses match exactly when and only when the recorded
    /// sequences match.
    #[test]
    fn witness_equality_matches_sequence_equality(
        a in prop::collection::vec("[a-z]{1,6}", 0..20),
        b in prop::collection::vec("[a-z]{1,6}", 0..20),
    ) {
        let mut wa = ExecutionWitness::new();
        let mut wb = ExecutionWitness::new();
        for s in &a { wa.record(s); }
        for s in &b { wb.record(s); }
        prop_assert_eq!(wa.matches(&wb), a == b);
    }

    /// Quotes verify if and only if nothing was tampered with.
    #[test]
    fn quote_tampering_is_detected(nonce in any::<u64>(), u in any::<u64>(), s in any::<u64>(), bump in 1u64..1_000) {
        let key = AttestationKey::from_seed(b"test-aik");
        let usage = CpuTime::new(Cycles(u), Cycles(s));
        let quote = key.quote(nonce, Digest::of(b"pcr"), Digest::of(b"wit"), usage);
        prop_assert!(key.verify(&quote, nonce).is_ok());
        let mut forged = quote.clone();
        forged.usage.utime = Cycles(u.wrapping_add(bump));
        prop_assert!(key.verify(&forged, nonce).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// The witness specification: the digest is SHA-256 over the
    /// concatenated 32-byte step digests (`Digest::ZERO` when nothing was
    /// recorded), and `len` counts the steps.
    #[test]
    fn witness_digest_is_sha256_over_the_step_digests(
        labels in prop::collection::vec("[a-z]{0,8}", 0..40),
    ) {
        let mut witness = ExecutionWitness::new();
        let mut steps = Vec::new();
        for label in &labels {
            witness.record(label);
            steps.extend_from_slice(&Digest::of(label.as_bytes()).0);
        }
        let expected = if labels.is_empty() {
            Digest::ZERO
        } else {
            Digest(Sha256::digest(&steps))
        };
        prop_assert_eq!(witness.digest(), expected);
        prop_assert_eq!(witness.len(), labels.len());
    }
}

// ---------------------------------------------------------------------------
// Event queue ordering
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = trustmeter_sim::EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(Cycles(*t), i);
        }
        let mut last = Cycles::ZERO;
        let mut popped = 0;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.at >= last);
            last = ev.at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }
}

// ---------------------------------------------------------------------------
// Evidence-ledger invariants over random journal lifecycles
// ---------------------------------------------------------------------------

/// One step of a random journal lifecycle.
#[derive(Debug, Clone)]
enum LedgerOp {
    /// Process a few more jobs through the service (appends chained
    /// Run/Invoice/Verdict triples, rotating — and sealing — segments as
    /// the byte threshold passes). When the second field is set, the batch
    /// also resubmits an id already used (legal job-id reuse), so sealed
    /// job-id ranges overlap across distant segments.
    Run(u8, Option<u8>),
    /// Fold everything so far into a checkpoint (retires sealed history).
    Checkpoint,
    /// Seal the in-progress head segment.
    Seal,
    /// Drop every handle and reopen the directory cold.
    Reopen,
}

fn ledger_ops() -> impl Strategy<Value = Vec<LedgerOp>> {
    // Weighted pick: half the steps append runs, the rest split across
    // checkpoint, seal and reopen.
    prop::collection::vec((0u8..6, 1u8..4, 0u8..255), 1..10).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(pick, n, reuse)| match pick {
                0..=2 => LedgerOp::Run(n, (reuse % 3 == 0).then_some(reuse / 3)),
                3 => LedgerOp::Checkpoint,
                4 => LedgerOp::Seal,
                _ => LedgerOp::Reopen,
            })
            .collect()
    })
}

/// A directory unique to one proptest case.
fn case_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "trustmeter-prop-ledger-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn prop_service(journal: Journal) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(2, 77));
    for id in 1..=2u32 {
        service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    service.with_journal(journal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Any interleaving of append / rotate / checkpoint / retire / reopen
    /// leaves the ledger chain-verifiable, and every inclusion proof
    /// verifies against its own sealed block header — and against no
    /// other.
    #[test]
    fn ledger_lifecycles_preserve_chain_and_proof_verification(ops in ledger_ops()) {
        const SEED: u64 = 77;
        let dir = case_dir();
        // Segments small enough that a couple of jobs cross the rotation
        // threshold, so sealing happens mid-lifecycle, not just on demand.
        let config = SegmentConfig::default()
            .with_segment_bytes(2 * 1024)
            .with_seal(SEED);
        let mut journal = Journal::segmented(&dir, config).unwrap();
        let mut service = prop_service(journal.clone());
        let mut next_id = 0u64;
        let mut live_jobs: Vec<JobId> = Vec::new();
        for op in &ops {
            match op {
                LedgerOp::Run(n, reuse) => {
                    let fresh = next_id..next_id + u64::from(*n);
                    let reused = reuse.filter(|_| next_id > 0).map(|k| u64::from(k) % next_id);
                    next_id = fresh.end;
                    let jobs: Vec<JobSpec> = fresh
                        .chain(reused)
                        .map(|id| {
                            if !live_jobs.contains(&JobId(id)) {
                                live_jobs.push(JobId(id));
                            }
                            JobSpec::clean(
                                id,
                                TenantId((id % 2) as u32 + 1),
                                Workload::ALL[(id % 4) as usize],
                                0.001,
                            )
                        })
                        .collect();
                    service.process(&jobs);
                }
                LedgerOp::Checkpoint => {
                    let checkpoint = JournalEntry::checkpoint(service.checkpoint());
                    journal.append_batch(&[checkpoint]).unwrap();
                    live_jobs.clear();
                }
                LedgerOp::Seal => journal.seal().unwrap(),
                LedgerOp::Reopen => {
                    drop(service);
                    journal = Journal::segmented(&dir, config).unwrap();
                    // The chain must pick up exactly where the old handle
                    // left it: recover the service and keep appending.
                    // Reused ids are legal, so recovery is lenient.
                    let (entries, _) = journal.entries().unwrap();
                    service = prop_service(journal.clone());
                    service.recover_lenient(recovery_window(&entries)).unwrap();
                }
            }
            // The chain walk accepts the journal after every step.
            let (_, tail) = journal.entries().unwrap();
            prop_assert_eq!(tail, TailStatus::Clean);
        }

        // Seal the head so every entry is covered, then verify the whole
        // ledger: chain walk plus every sealed block header.
        journal.seal().unwrap();
        let verification = journal.verify(SEED).unwrap();
        let (entries, _) = journal.entries().unwrap();
        prop_assert_eq!(verification.entries, entries.len() as u64);

        // The reference: every line of every sealed segment, parsed, as
        // (segment, index, line) triples per job.
        let headers = journal.sealed_headers().unwrap();
        let mut named: std::collections::HashMap<JobId, Vec<(u64, u64, String)>> =
            std::collections::HashMap::new();
        for header in &headers {
            let path = dir.join(format!("segment-{:08}.jsonl", header.segment));
            let text = std::fs::read_to_string(path).unwrap();
            let lines = text.lines().filter(|l| !l.trim().is_empty());
            for (at, line) in lines.enumerate() {
                let chained: evidence::ChainedLine = serde_json::from_str(line).unwrap();
                if let Some(job) = chained.entry.job() {
                    named
                        .entry(job)
                        .or_default()
                        .push((header.segment, at as u64, line.to_string()));
                }
            }
        }

        // Every live job's proofs are exactly the full scan's lines, verify
        // against their own headers and fail against every other sealed
        // header.
        let key = SealKey::from_seed(SEED);
        for job in &live_jobs {
            let proofs = journal.prove(*job).unwrap();
            prop_assert!(!proofs.is_empty(), "sealed evidence names job {job}");
            let proved: Vec<(u64, u64, String)> = proofs
                .iter()
                .map(|p| (p.header.segment, p.index, p.line.clone()))
                .collect();
            prop_assert!(
                named.get(job) == Some(&proved),
                "job {job}: proofs {proved:?}, full scan {:?}",
                named.get(job)
            );
            for proof in &proofs {
                prop_assert!(proof.verify(&key).is_ok());
                for header in headers.iter().filter(|h| h.segment != proof.header.segment) {
                    prop_assert!(
                        proof.verify_against(header).is_err(),
                        "proof for segment {} folded into segment {}",
                        proof.header.segment,
                        header.segment
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// The streaming JSON reader decodes journal evidence as the value tree does
// ---------------------------------------------------------------------------

/// `PROPTEST_CASES` scales the cases of the witness specification, of the
/// journal lifecycles, of the reader's mutated inputs and of the segment
/// walk (CI runs each at 1024).
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Every line, block-header sidecar and serialized inclusion proof of a
/// seeded sealed journal that holds `Accepted`, `Run`, `Invoice`,
/// `Verdict`, a cadence `Checkpoint` and a `Poisoned` entry.
fn evidence_corpus() -> &'static [String] {
    use std::sync::OnceLock;
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        const SEED: u64 = 77;
        let dir = case_dir();
        let config = SegmentConfig::default()
            .with_segment_bytes(4 * 1024)
            .with_seal(SEED);
        let journal = Journal::segmented(&dir, config).unwrap();
        let mut service = prop_service(journal.clone())
            .with_checkpoint_cadence(CheckpointCadence::every_n_runs(4));
        let spec = |id: u64| {
            let tenant = TenantId((id % 2) as u32 + 1);
            let workload = Workload::ALL[(id % 4) as usize];
            if id.is_multiple_of(3) {
                JobSpec::attacked(id, tenant, workload, 0.001, AttackSpec::Shell)
            } else {
                JobSpec::clean(id, tenant, workload, 0.001)
            }
        };
        // The first batch ends in a cadence checkpoint, which retires the
        // segments before it; the second stays below the cadence.
        service.process(&(0..4).map(spec).collect::<Vec<_>>());
        service.process(&(4..7).map(spec).collect::<Vec<_>>());
        journal
            .append_batch(&[JournalEntry::poisoned(PoisonNotice {
                spec: spec(7),
                attempts: 3,
            })])
            .unwrap();
        journal.seal().unwrap();

        let mut corpus: Vec<String> = journal
            .text()
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        for variant in [
            "Accepted",
            "Run",
            "Invoice",
            "Verdict",
            "Checkpoint",
            "Poisoned",
        ] {
            let framed = format!("\"entry\":{{\"{variant}\"");
            assert!(
                corpus.iter().any(|line| line.contains(&framed)),
                "the corpus holds a {variant} entry"
            );
        }
        for header in journal.sealed_headers().unwrap() {
            let sidecar = dir.join(format!("segment-{:08}.seal", header.segment));
            corpus.push(std::fs::read_to_string(sidecar).unwrap());
        }
        for id in 0..8 {
            for proof in journal.prove(JobId(id)).unwrap() {
                corpus.push(serde_json::to_string(&proof).unwrap());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        corpus
    })
}

/// Decodes `text` as a `T` through the reader and through the tree and
/// fails unless both give the same value or both fail.
fn paths_agree<T>(text: &str) -> Result<(), TestCaseError>
where
    T: serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let read = serde_json::from_str::<T>(text).ok();
    let tree = serde_json::from_str::<serde::Value>(text)
        .ok()
        .and_then(|value| T::from_value(&value).ok());
    // Debug output tells floats apart by their bits (`-0.0` from `0.0`).
    prop_assert!(
        read == tree && format!("{read:?}") == format!("{tree:?}"),
        "{} decodes differently on {text:?}: reader {read:?}, tree {tree:?}",
        std::any::type_name::<T>()
    );
    Ok(())
}

fn all_paths_agree(text: &str) -> Result<(), TestCaseError> {
    paths_agree::<evidence::ChainedLine>(text)?;
    paths_agree::<JournalEntry>(text)?;
    paths_agree::<BlockHeader>(text)?;
    paths_agree::<InclusionProof>(text)
}

/// The characters mutations draw from: JSON's structure, number syntax,
/// hex digits of both cases and whitespace, where the two decoding paths
/// could part ways (a digest is a hex string both paths read with one
/// decoder; a space or tab beside a key makes the reader match it by
/// name).
const MUTATION_CHARS: &str = "\"\\,:{}[]-+.eE0123456789abcdfABCDF \t";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Flipping, inserting, deleting or truncating characters of real
    /// journal evidence never makes the streaming reader disagree with
    /// the value tree: the same value, or an error from both.
    #[test]
    fn the_reader_decodes_mutated_evidence_as_the_tree_does(
        pick in any::<usize>(),
        mutants in prop::collection::vec(
            prop::collection::vec((0u8..4, any::<usize>(), 0usize..MUTATION_CHARS.len()), 1..5),
            16..33,
        ),
    ) {
        let corpus = evidence_corpus();
        let original: Vec<char> = corpus[pick % corpus.len()].chars().collect();
        all_paths_agree(&original.iter().collect::<String>())?;
        for edits in mutants {
            let mut text = original.clone();
            for (kind, at, with) in edits {
                let at = at % (text.len() + 1);
                let with = MUTATION_CHARS.as_bytes()[with] as char;
                match kind {
                    0 if at < text.len() => text[at] = with,
                    1 => text.insert(at, with),
                    2 if at < text.len() => {
                        text.remove(at);
                    }
                    _ => text.truncate(at),
                }
                all_paths_agree(&text.iter().collect::<String>())?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Keys written out of the writers' order decode through the name match
// ---------------------------------------------------------------------------

/// How [`reprint`] rewrites its target object.
#[derive(Debug, Clone, Copy)]
enum Rewrite {
    /// The keys in reverse order.
    Reverse,
    /// The keys rotated left by the count.
    Rotate(usize),
    /// The picked key written a second time with another value, after the
    /// first when set, before it otherwise.
    Duplicate(usize, bool),
    /// A key no evidence type declares, inserted at the pick.
    Unknown(usize),
    /// The picked key's first character written as a `\u00XX` escape.
    Escape(usize),
    /// The picked JSON whitespace on both sides of every `:` and `,`, and
    /// inside the braces.
    Spaced(usize),
}

/// The fields whose objects are maps: their keys are data, so a key
/// inserted there changes what the object decodes to.
const MAP_FIELDS: [&str; 5] = [
    "accounts",
    "summaries",
    "anomaly_counts",
    "families",
    "series",
];

/// Prints `v` as compact JSON, but its object number `target` (counted
/// in `seen`, depth first) as `how` says. `field` is the key `v` is the
/// value of. Sets `target_is_struct` when the target object is a
/// struct's fields: held in no map field, and keyed by lower-case names
/// (a variant's object is keyed by its upper-case name).
fn reprint(
    out: &mut String,
    v: &serde::Value,
    field: Option<&str>,
    seen: &mut usize,
    target: usize,
    how: Rewrite,
    target_is_struct: &mut bool,
) {
    use serde::Value;
    const WHITESPACE: [&str; 6] = [" ", "\t", "\n", "\r", " \t", "\r\n "];
    let quoted = |key: &str| {
        let mut out = String::new();
        serde::write_escaped_str(&mut out, key);
        out
    };
    let entries = match v {
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reprint(out, item, None, seen, target, how, target_is_struct);
            }
            out.push(']');
            return;
        }
        Value::Map(entries) => entries,
        other => return serde::write_compact_value(out, other),
    };
    let at = *seen;
    *seen += 1;
    let n = entries.len();
    let extra = match how {
        Rewrite::Duplicate(pick, _) if n > 0 => [
            Value::Null,
            Value::U64(7),
            Value::Str("x".into()),
            Value::Seq(Vec::new()),
            Value::Map(Vec::new()),
        ]
        .into_iter()
        .cycle()
        .skip(pick % 5)
        .find(|other| *other != entries[pick % n].1)
        .unwrap(),
        _ => Value::Seq(vec![Value::Map(vec![("k".into(), Value::F64(-0.5))])]),
    };
    // Each key as named and as written, and its value.
    let mut keyed: Vec<(&str, String, &Value)> = entries
        .iter()
        .map(|(k, v)| (k.as_str(), quoted(k), v))
        .collect();
    let mut space = "";
    if at == target {
        *target_is_struct = n > 0
            && !field.is_some_and(|field| MAP_FIELDS.contains(&field))
            && entries
                .iter()
                .all(|(k, _)| k.starts_with(|c: char| c.is_ascii_lowercase()));
        match how {
            Rewrite::Reverse => keyed.reverse(),
            Rewrite::Rotate(by) if n > 0 => keyed.rotate_left(by % n),
            Rewrite::Duplicate(pick, after) if n > 0 => {
                let (name, key, _) = keyed[pick % n].clone();
                keyed.insert(pick % n + usize::from(after), (name, key, &extra));
            }
            Rewrite::Unknown(pick) => {
                keyed.insert(pick % (n + 1), ("zz_unknown", quoted("zz_unknown"), &extra));
            }
            Rewrite::Escape(pick) if n > 0 => {
                let key = &entries[pick % n].0;
                if let Some(first) = key.chars().next().filter(char::is_ascii) {
                    let rest = quoted(&key[first.len_utf8()..]);
                    keyed[pick % n].1 = format!("\"\\u{:04x}{}", u32::from(first), &rest[1..]);
                }
            }
            Rewrite::Spaced(pick) => space = WHITESPACE[pick % WHITESPACE.len()],
            _ => {}
        }
    }
    out.push('{');
    out.push_str(space);
    for (i, (name, key, value)) in keyed.into_iter().enumerate() {
        if i > 0 {
            out.push_str(space);
            out.push(',');
            out.push_str(space);
        }
        out.push_str(&key);
        out.push_str(space);
        out.push(':');
        out.push_str(space);
        reprint(out, value, Some(name), seen, target, how, target_is_struct);
    }
    out.push_str(space);
    out.push('}');
}

/// Fails unless `text` decodes through the reader as `original` does, as
/// each evidence type: the same value, or an error both times.
fn decodes_as(original: &str, text: &str) -> Result<(), TestCaseError> {
    fn same<T: serde::Deserialize + std::fmt::Debug>(
        original: &str,
        text: &str,
    ) -> Result<(), TestCaseError> {
        let before = format!("{:?}", serde_json::from_str::<T>(original).ok());
        let after = format!("{:?}", serde_json::from_str::<T>(text).ok());
        prop_assert!(
            before == after,
            "{} decodes {text:?} as {after}, but {original:?} as {before}",
            std::any::type_name::<T>()
        );
        Ok(())
    }
    same::<evidence::ChainedLine>(original, text)?;
    same::<JournalEntry>(original, text)?;
    same::<BlockHeader>(original, text)?;
    same::<InclusionProof>(original, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Evidence re-printed with one object's keys reordered, duplicated,
    /// joined by an unknown key, escaped or spaced (text whose keys the
    /// reader's in-order literal check declines, so its name-matching
    /// loop reads them) decodes through the reader as through the value
    /// tree. Unless a key was duplicated or a map's or a variant's object
    /// gained a key, it also decodes as the line itself does.
    #[test]
    fn rewritten_keys_fall_through_to_the_name_match_and_decode_alike(
        pick in any::<usize>(),
        rewrites in prop::collection::vec((0u8..6, any::<usize>(), any::<usize>(), any::<bool>()), 1..9),
    ) {
        let corpus = evidence_corpus();
        let line = &corpus[pick % corpus.len()];
        let tree: serde::Value = serde_json::from_str(line).unwrap();
        let mut objects = 0;
        let mut compact = String::new();
        reprint(&mut compact, &tree, None, &mut objects, usize::MAX, Rewrite::Reverse, &mut false);
        decodes_as(line, &compact)?;
        for (kind, target, n, after) in rewrites {
            let how = match kind {
                0 => Rewrite::Reverse,
                1 => Rewrite::Rotate(n),
                2 => Rewrite::Duplicate(n, after),
                3 => Rewrite::Unknown(n),
                4 => Rewrite::Escape(n),
                _ => Rewrite::Spaced(n),
            };
            let mut text = String::new();
            let mut is_struct = false;
            reprint(&mut text, &tree, None, &mut 0, target % objects, how, &mut is_struct);
            all_paths_agree(&text)?;
            let kept = match how {
                Rewrite::Duplicate(..) => false,
                Rewrite::Unknown(_) => is_struct,
                _ => true,
            };
            if kept {
                decodes_as(line, &text)?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A journal read one segment at a time walks as its concatenated text does
// ---------------------------------------------------------------------------

/// The live segment files of a segment directory, oldest first.
fn segment_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    files.sort();
    files
}

/// Damages one segment file of `dir`, as `kind` says: 0 flips a byte (to
/// another ASCII byte), 1 strips the file's final newline, 2 cuts the
/// head segment mid-line, 3 deletes, 4 duplicates and 5 swaps lines, 6
/// inserts a blank line, 7 a `\r`, and 8 sets a byte to 0xFF, which is
/// not UTF-8. `file` and `at` pick where.
fn damage_segment(dir: &std::path::Path, kind: u8, file: usize, at: usize) {
    let files = segment_files(dir);
    let path = if kind == 2 {
        files.last().unwrap()
    } else {
        &files[file % files.len()]
    };
    let mut bytes = std::fs::read(path).unwrap();
    let mut lines: Vec<Vec<u8>> = bytes
        .split_inclusive(|byte| *byte == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    let n = lines.len();
    match kind {
        0 if !bytes.is_empty() => {
            let i = at % bytes.len();
            bytes[i] ^= (at as u8 % 0x7F) + 1;
        }
        1 if bytes.last() == Some(&b'\n') => {
            bytes.pop();
        }
        2 if !bytes.is_empty() => bytes.truncate(at % bytes.len()),
        3 if n > 0 => {
            lines.remove(at % n);
            bytes = lines.concat();
        }
        4 if n > 0 => {
            let line = lines[at % n].clone();
            lines.insert(at % n, line);
            bytes = lines.concat();
        }
        5 if n > 1 => {
            lines.swap(at % (n - 1), at % (n - 1) + 1);
            bytes = lines.concat();
        }
        6 => {
            lines.insert(at % (n + 1), b"\n".to_vec());
            bytes = lines.concat();
        }
        7 => bytes.insert(at % (bytes.len() + 1), b'\r'),
        8 if !bytes.is_empty() => {
            let i = at % bytes.len();
            bytes[i] = 0xFF;
        }
        _ => {}
    }
    std::fs::write(path, bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// A segmented journal, sealed or not, read back one segment at a
    /// time by `Journal::entries` and `Journal::verify`, walks exactly as
    /// `parse_journal` walks its concatenated text, whatever damage its
    /// files took before or after the reopen: the same entries and tail,
    /// or the same error, line and message.
    #[test]
    fn the_segment_by_segment_walk_equals_the_concatenated_walk(
        shape in (any::<bool>(), any::<bool>(), 200u64..900, 0usize..16),
        batches in prop::collection::vec(1u64..4, 1..10),
        damages in prop::collection::vec((0u8..9, any::<usize>(), any::<usize>(), any::<bool>()), 0..4),
    ) {
        const SEED: u64 = 77;
        let (sealed, seal_head, segment_bytes, checkpoint_after) = shape;
        let dir = case_dir();
        let config = SegmentConfig::default().with_segment_bytes(segment_bytes);
        let config = if sealed { config.with_seal(SEED) } else { config };
        let journal = Journal::segmented(&dir, config).unwrap();
        let mut id = 0u64;
        for (at, n) in batches.iter().enumerate() {
            let batch: Vec<JournalEntry> = (id..id + n)
                .map(|id| {
                    let workload = Workload::ALL[(id % 4) as usize];
                    JournalEntry::accepted(JobSpec::clean(id, TenantId(1), workload, 0.001))
                })
                .collect();
            id += n;
            journal.append_batch(&batch).unwrap();
            if at == checkpoint_after {
                journal
                    .append_batch(&[JournalEntry::checkpoint(Checkpoint::default())])
                    .unwrap();
            }
        }
        if seal_head {
            journal.seal().unwrap();
        }
        drop(journal);

        // Damage taken before the reopen meets its repair and its fold;
        // damage after it is read as it lies. Open never fails on either.
        for &(kind, file, at, _) in damages.iter().filter(|damage| !damage.3) {
            damage_segment(&dir, kind, file, at);
        }
        let journal = Journal::segmented(&dir, config).unwrap();
        for &(kind, file, at, _) in damages.iter().filter(|damage| damage.3) {
            damage_segment(&dir, kind, file, at);
        }

        let walked = parse_journal(&journal.text().unwrap());
        prop_assert_eq!(journal.entries(), walked.clone());
        match walked {
            // The walk runs before any seal check, so its error wins.
            Err(error) => prop_assert_eq!(journal.verify(SEED).unwrap_err(), error),
            Ok((entries, tail)) => {
                if let Ok(verification) = journal.verify(SEED) {
                    prop_assert_eq!(verification.entries, entries.len() as u64);
                    prop_assert_eq!(verification.tail, tail);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
