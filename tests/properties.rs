//! Property-based tests (proptest) over the core invariants:
//! accounting conservation, monotonicity, hash-chain integrity, and
//! billing arithmetic.

use proptest::prelude::*;
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
    /// the byte threshold passes).
    Run(u8),
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
    prop::collection::vec((0u8..6, 1u8..4), 1..10).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(pick, n)| match pick {
                0..=2 => LedgerOp::Run(n),
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
    #![proptest_config(ProptestConfig::with_cases(24))]

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
                LedgerOp::Run(n) => {
                    let jobs: Vec<JobSpec> = (0..u64::from(*n))
                        .map(|_| {
                            let id = next_id;
                            next_id += 1;
                            live_jobs.push(JobId(id));
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
                    let (entries, _) = journal.entries().unwrap();
                    service = prop_service(journal.clone());
                    service.recover_latest(&entries).unwrap();
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

        // Every live job's proofs verify against their own headers and
        // fail against every other sealed header.
        let key = SealKey::from_seed(SEED);
        let headers = journal.sealed_headers().unwrap();
        for job in live_jobs.iter().take(4) {
            let proofs = journal.prove(*job).unwrap();
            prop_assert!(!proofs.is_empty(), "sealed evidence names job {job}");
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
