//! The traced run's per-layer table. A single-threaded pass over a seeded
//! sample of the workload's jobs calls each layer's public function
//! directly, inside the benchmark's own spans; the end-to-end phases of the
//! traced run add the ingest, queue, journal and trace counters; the
//! reconciliation row checks that layer costs times their counts account
//! for the untraced run's CPU time.

use std::path::Path;
use std::time::{Duration, Instant};

use trustmeter_experiments::Scenario;
use trustmeter_fleet::evidence::leaf_digest;
use trustmeter_fleet::{
    parse_journal, Auditor, FairQueue, Fleet, FleetConfig, FleetService, InvoicePosting, JobSpec,
    Journal, JournalEntry, Ledger, RateCard, SamplingPolicy, SealKey, Stage,
};
use trustmeter_kernel::{Kernel, KernelStats};

use crate::closed::StreamRun;
use crate::mix::{self, RATE_CARDS};
use crate::readside::ReadSide;
use crate::service;
use crate::spans::Spans;
use crate::{Checks, Config, Table};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.build_us", "us"),
    ("kernel.setup_us", "us"),
    ("kernel.run_us.clean", "us"),
    ("kernel.run_us.attacked", "us"),
    ("kernel.events_per_job", "count"),
    ("kernel.sim_s_per_wall_s", "ratio"),
    ("experiments.reference_us", "us"),
    ("executor.run_one_us.p50", "us"),
    ("executor.run_one_us.p99", "us"),
    ("executor.verify_record_us", "us"),
    ("executor.serial_jobs_s", "jobs/s"),
    ("executor.parallel_efficiency", "ratio"),
    ("ingest.submit_all_us", "us"),
    ("ingest.pump_us", "us"),
    ("ingest.posted_per_pump", "count"),
    ("ingest.reassigned", "count"),
    ("queue.push_pop_us", "us"),
    ("queue.depth_peak", "count"),
    ("stage.queue_wait_p99_ms", "ms"),
    ("pool.reuse_ratio", "ratio"),
    ("journal.encode_us", "us"),
    ("journal.commit_us", "us"),
    ("journal.bytes_per_job", "bytes"),
    ("journal.lines_per_job", "count"),
    ("journal.commits_per_job", "count"),
    ("journal.parse_us_per_entry", "us"),
    ("evidence.leaf_us", "us"),
    ("evidence.seal_verify_us", "us"),
    ("evidence.prove_ms", "ms"),
    ("evidence.proof_verify_us", "us"),
    ("tenant.post_us", "us"),
    ("auditor.observe_us", "us"),
    ("auditor.replays", "count"),
    ("auditor.reference_hit_ratio", "ratio"),
    ("metrics.render_us", "us"),
    ("metrics.exposition_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_dropped", "count"),
    ("reconcile.unexplained_frac", "ratio"),
    ("reconcile.tracing_overhead_pct", "%"),
    ("reconcile.sampled_jobs", "count"),
];

/// Passes over the sample at most, which bounds the spans a run writes.
const MAX_PASSES: usize = 6;
/// Jobs disputed in the read pass.
const PROVE_SAMPLE: usize = 8;
/// Renders of the final exposition in the read pass.
const RENDERS: usize = 16;

/// What the job pass counted besides span times.
#[derive(Debug, Default)]
pub struct JobPass {
    /// Jobs passed through every layer (sample size × passes).
    pub jobs: usize,
    /// Σ of the `KernelStats` event counters (all but `ticks_coalesced`,
    /// which counts ticks the kernel skipped) over the kernel runs.
    pub events: u64,
    /// Σ simulated `elapsed_secs`.
    pub sim_secs: f64,
    /// Σ wall time of `Kernel::run`.
    pub run_secs: f64,
}

fn events(stats: &KernelStats) -> u64 {
    stats.ticks
        + stats.context_switches
        + stats.device_interrupts
        + stats.syscalls
        + stats.tasks_created
        + stats.tasks_exited
        + stats.minor_faults
        + stats.major_faults
        + stats.debug_traps
        + stats.signals_delivered
}

/// Calls every job-side layer directly for each job of `sample` (whole
/// cycles of the workload's seeded mix) until `budget` is spent (at least
/// one pass, at most [`MAX_PASSES`]). Two span roots per job:
/// `job` holds the calls that partition a job's cost (execute, verify,
/// post, audit, journal commit, queue), `breakdown` holds what those calls
/// do inside (program build, kernel set-up and run, reference replay,
/// entry encoding and leaf hashing).
pub fn job_pass(
    cfg: &Config,
    sample: &[JobSpec],
    budget: Duration,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<JobPass, String> {
    let sample = if cfg.smoke {
        &sample[..sample.len().min(16)]
    } else {
        sample
    };
    let fleet = Fleet::new(FleetConfig::new(1, cfg.fleet_seed));
    let machine = fleet.config().machine.clone();
    let freq = machine.frequency;
    let mut ledger = Ledger::new();
    let mut auditor = Auditor::new(machine.clone())
        .with_sampling(SamplingPolicy::Always, cfg.fleet_seed)
        .demand_quotes(cfg.fleet_seed);
    let dir = cfg.work.join("layer-journal");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::segmented(&dir, service::segment_config(cfg.fleet_seed))
        .map_err(|e| format!("open layer journal: {e}"))?;
    let mut queue = FairQueue::new(sample.len());
    for (i, tenant) in mix::TENANTS.iter().enumerate() {
        queue.set_weight(*tenant, mix::weight(i));
    }
    let mut out = JobPass::default();
    let start = Instant::now();
    let mut seq = 0u64;
    while out.jobs == 0 || (start.elapsed() < budget && out.jobs < MAX_PASSES * sample.len()) {
        for job in sample {
            let id = Some(job.id.0);
            let attacked = job.attack.is_some();
            spans.time("breakdown", id, |s| {
                let config = machine.clone().with_seed(fleet.job_seed(job.id));
                let program = s.time("workloads.build", id, |_| job.workload.build(job.scale));
                let mut kernel = s.time("kernel.setup", id, |_| {
                    let attack = job.attack.map(|a| a.build(job.workload, job.scale));
                    let mut kernel = Kernel::new(config.clone());
                    if let Some(a) = &attack {
                        a.install(&mut kernel);
                    }
                    let victim = kernel.spawn_process(program, job.nice);
                    if let Some(a) = &attack {
                        a.launch(&mut kernel, victim, Some(job.workload));
                    }
                    kernel
                });
                let name = if attacked {
                    "kernel.run.attacked"
                } else {
                    "kernel.run.clean"
                };
                let started = Instant::now();
                let result = s.time(name, id, |_| kernel.run());
                out.run_secs += started.elapsed().as_secs_f64();
                out.events += events(&result.stats);
                out.sim_secs += result.elapsed_secs();
                if attacked {
                    let mut scenario =
                        Scenario::new(job.workload, job.scale).with_config(config.clone());
                    scenario.victim_nice = job.nice;
                    s.time("experiments.reference", id, |_| scenario.run_clean());
                }
            });
            let entries = spans.time("job", id, |s| {
                let record = s.time("executor.run_one", id, |_| fleet.run_one(job));
                if let Err(e) = s.time("executor.verify_record", id, |_| {
                    fleet.verify_record(&record)
                }) {
                    checks.fail(format!("{}: {e}", job.id));
                }
                let card = RateCard::per_cpu_hour(RATE_CARDS[(job.tenant.0 - 1) as usize]);
                let outcome = &record.outcome;
                let (billed, truth) = s.time("tenant.post", id, |_| {
                    ledger.post_run(
                        job.tenant,
                        &card,
                        freq,
                        job.id,
                        outcome.victim_billed,
                        outcome.victim_truth,
                        outcome.victim_process_aware,
                    )
                });
                let verdict = s.time("auditor.observe", id, |_| auditor.observe(&record));
                let entries = vec![
                    JournalEntry::accepted(job.clone()),
                    JournalEntry::run(record.clone()),
                    JournalEntry::Invoice(InvoicePosting {
                        tenant: job.tenant,
                        job: job.id,
                        billed,
                        truth,
                    }),
                    JournalEntry::Verdict(verdict),
                ];
                if let Err(e) = s.time("journal.commit", id, |_| journal.append_batch(&entries)) {
                    checks.fail(format!("layer journal commit: {e}"));
                }
                s.time("queue.push_pop", id, |_| {
                    let pushed = queue.push(seq, job.clone());
                    (pushed.is_ok(), queue.pop())
                });
                seq += 1;
                entries
            });
            spans.time("breakdown", id, |s| {
                let lines: Vec<String> = s.time("journal.encode", id, |_| {
                    entries
                        .iter()
                        .map(|e| serde_json::to_string(e).expect("an entry serializes"))
                        .collect()
                });
                s.time("evidence.leaf", id, |_| {
                    lines
                        .iter()
                        .map(|line| leaf_digest(line.as_bytes()))
                        .collect::<Vec<_>>()
                });
            });
            checks.attempt(1);
            out.jobs += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// What the read pass counted besides span times.
#[derive(Debug, Default)]
pub struct ReadPass {
    pub entries: usize,
    pub exposition_bytes: usize,
}

/// Calls the read-side layers directly on the journal in `dir`: parse,
/// seal verification, proof construction and verification, and metrics
/// rendering of `live`'s registry.
pub fn read_pass(
    cfg: &Config,
    dir: &Path,
    live: &FleetService,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<ReadPass, String> {
    let journal = Journal::segmented(dir, service::segment_config(cfg.fleet_seed))
        .map_err(|e| format!("reopen for the read pass: {e}"))?;
    let key = SealKey::from_seed(cfg.fleet_seed);
    spans.time("read", None, |s| {
        let text = journal.text().map_err(|e| e.to_string())?;
        let (entries, _) = s
            .time("journal.parse", None, |_| parse_journal(&text))
            .map_err(|e| e.to_string())?;
        let headers = journal.sealed_headers().map_err(|e| e.to_string())?;
        for header in &headers {
            checks.attempt(1);
            if !s.time("evidence.seal_verify", None, |_| header.verify_seal(&key)) {
                checks.fail(format!("seal of block {} does not verify", header.segment));
            }
        }
        let jobs: Vec<_> = entries
            .iter()
            .filter_map(|e| match e {
                JournalEntry::Run(r) => Some(r.job.id),
                _ => None,
            })
            .collect();
        let mut rng = mix::Rng::new(cfg.seed ^ 0x9407E);
        for _ in 0..PROVE_SAMPLE.min(jobs.len()) {
            let job = jobs[rng.below(jobs.len())];
            let proofs = s
                .time("evidence.prove", Some(job.0), |_| journal.prove(job))
                .map_err(|e| e.to_string())?;
            for proof in &proofs {
                checks.attempt(1);
                if let Err(e) = s.time("evidence.proof_verify", Some(job.0), |_| proof.verify(&key))
                {
                    checks.fail(format!("proof for {job}: {e}"));
                }
            }
        }
        let mut exposition_bytes = 0;
        for _ in 0..RENDERS {
            exposition_bytes = s
                .time("metrics.render", None, |_| live.metrics().render())
                .len();
        }
        Ok(ReadPass {
            entries: entries.len(),
            exposition_bytes,
        })
    })
}

/// Mean self time of `name`'s spans, microseconds.
fn mean_us(spans: &Spans, name: &str) -> f64 {
    spans.layers().get(name).map_or(0.0, |l| l.mean_us())
}

/// Writes the layer-pass and read-pass rows.
pub fn layer_rows(table: &mut Table, spans: &Spans, pass: &JobPass, read: &ReadPass) {
    let layers = spans.layers();
    let mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us());
    table.push("workloads.build_us", mean("workloads.build"));
    table.push("kernel.setup_us", mean("kernel.setup"));
    table.push("kernel.run_us.clean", mean("kernel.run.clean"));
    table.push("kernel.run_us.attacked", mean("kernel.run.attacked"));
    table.push(
        "kernel.events_per_job",
        pass.events as f64 / pass.jobs.max(1) as f64,
    );
    table.push(
        "kernel.sim_s_per_wall_s",
        pass.sim_secs / pass.run_secs.max(f64::EPSILON),
    );
    table.push("experiments.reference_us", mean("experiments.reference"));
    let run_one = layers.get("executor.run_one").cloned().unwrap_or_default();
    table.push("executor.run_one_us.p50", run_one.quantile_us(0.5));
    table.push("executor.run_one_us.p99", run_one.quantile_us(0.99));
    table.push("executor.verify_record_us", mean("executor.verify_record"));
    table.push(
        "executor.serial_jobs_s",
        1e6 / run_one.mean_us().max(f64::EPSILON),
    );
    table.push("queue.push_pop_us", mean("queue.push_pop"));
    table.push("journal.encode_us", mean("journal.encode"));
    table.push("journal.commit_us", mean("journal.commit"));
    table.push(
        "journal.parse_us_per_entry",
        mean("journal.parse") / read.entries.max(1) as f64,
    );
    table.push("evidence.leaf_us", mean("evidence.leaf"));
    table.push("evidence.seal_verify_us", mean("evidence.seal_verify"));
    table.push("evidence.prove_ms", mean("evidence.prove") / 1e3);
    table.push("evidence.proof_verify_us", mean("evidence.proof_verify"));
    table.push("tenant.post_us", mean("tenant.post"));
    table.push("auditor.observe_us", mean("auditor.observe"));
    table.push("metrics.render_us", mean("metrics.render"));
    table.push("metrics.exposition_bytes", read.exposition_bytes as f64);
    table.push("reconcile.sampled_jobs", pass.jobs as f64);
}

/// Writes the pipeline rows of a traced streamed run through `service`:
/// submit and pump costs, queue depth and wait, buffer reuse, journal
/// volume per job, audit counters and the service tracer's own cost.
pub fn pipeline_rows(table: &mut Table, run: &StreamRun, service: &FleetService, spans: &Spans) {
    let jobs = run.records.max(1) as f64;
    table.push("ingest.submit_all_us", mean_us(spans, "ingest.submit_all"));
    table.push("ingest.pump_us", mean_us(spans, "ingest.pump"));
    table.push(
        "ingest.posted_per_pump",
        run.posted as f64 / run.pumps.max(1) as f64,
    );
    table.push("ingest.reassigned", run.stats.reassigned as f64);
    table.push("queue.depth_peak", run.depth_peak as f64);
    let queue_wait = service
        .metrics()
        .histogram_quantile(
            "fleet_stage_seconds",
            &[("stage", Stage::QueueWait.label())],
            0.99,
        )
        .unwrap_or(0.0);
    table.push("stage.queue_wait_p99_ms", queue_wait * 1e3);
    let pool = run.stats.pool;
    table.push(
        "pool.reuse_ratio",
        pool.reused as f64 / pool.acquired.max(1) as f64,
    );
    let journal = service.journal().map(|j| j.stats()).unwrap_or_default();
    table.push("journal.bytes_per_job", journal.bytes as f64 / jobs);
    table.push("journal.lines_per_job", journal.appends as f64 / jobs);
    table.push(
        "journal.commits_per_job",
        journal.group_commits as f64 / jobs,
    );
    let auditor = service.auditor();
    table.push("auditor.replays", auditor.replay_count() as f64);
    table.push(
        "auditor.reference_hit_ratio",
        auditor.reference_hit_count() as f64 / jobs,
    );
    let tracer = service.tracer().map(|t| t.stats()).unwrap_or_default();
    table.push(
        "trace.overhead_frac",
        tracer.overhead_nanos as f64 / 1e9 / run.wall.as_secs_f64(),
    );
    table.push("trace.spans_dropped", tracer.spans_dropped as f64);
}

/// `executor.parallel_efficiency`: the end-to-end job rate of the same run
/// over the serial `Fleet::run_one` rate times the usable cores.
pub fn parallel_efficiency(table: &mut Table, cfg: &Config, jobs_s: f64, spans: &Spans) {
    let serial = 1e6 / mean_us(spans, "executor.run_one").max(f64::EPSILON);
    let cores = cfg.workers.min(cfg.nproc).max(1) as f64;
    table.push("executor.parallel_efficiency", jobs_s / (serial * cores));
}

/// The reconciliation rows of a job workload: the layer pass's partition
/// of one job's cost (the direct children of its `job` spans) against the
/// untraced run's CPU time per job.
pub fn reconcile_jobs(table: &mut Table, spans: &Spans, cpu_per_job_s: f64, overhead_pct: f64) {
    let per_job_s = spans.children_self_ns("job") as f64 / 1e9 / spans.count("job").max(1) as f64;
    table.push(
        "reconcile.unexplained_frac",
        1.0 - per_job_s / cpu_per_job_s,
    );
    table.push("reconcile.tracing_overhead_pct", overhead_pct);
}

/// The reconciliation rows of the read-side workload: parse, seal checks,
/// re-posting and auditing every recovered run, and the disputes' proofs,
/// against the untraced passes' CPU time per pass.
pub fn reconcile_read(table: &mut Table, spans: &Spans, read: &ReadSide, overhead_pct: f64) {
    let layers = spans.layers();
    let mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us()) / 1e6;
    let count = |name: &str| layers.get(name).map_or(0, |l| l.count()) as f64;
    let proofs_per_prove = count("evidence.proof_verify") / count("evidence.prove").max(1.0);
    let disputes_per_pass =
        read.dispute_ms.iter().map(Vec::len).sum::<usize>() as f64 / read.passes().max(1) as f64;
    // `entries()` and `verify` each parse the whole journal.
    let predicted = 2.0 * mean("journal.parse")
        + read.seals as f64 * mean("evidence.seal_verify")
        + read.runs as f64 * (mean("tenant.post") + mean("auditor.observe"))
        + disputes_per_pass
            * (mean("evidence.prove") + proofs_per_prove * mean("evidence.proof_verify"));
    let actual = read.cpu_per_pass();
    table.push("reconcile.unexplained_frac", 1.0 - predicted / actual);
    table.push("reconcile.tracing_overhead_pct", overhead_pct);
}
