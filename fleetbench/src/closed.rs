//! `closed_clean_sealed`: a closed loop over the production configuration.
//! A fixed window of jobs is kept in flight; the driver submits the next
//! chunk through `FleetStream::submit_all` only when enough of the window
//! has been posted, and sleeps between pumps.

use std::path::Path;
use std::time::{Duration, Instant};

use trustmeter_fleet::{FleetService, IngestConfig, IngestStats, JobSpec, PipelineTracer};

use crate::layers;
use crate::mix;
use crate::readside::{self, ReadSide};
use crate::service::{self, Fingerprint};
use crate::spans::Spans;
use crate::stats;
use crate::sys;
use crate::{Checks, Config, Round, Table};

/// Jobs per closed-loop round (a whole number of mix blocks).
const ROUND_JOBS: usize = 32 * mix::CLOSED_BLOCK;
/// Jobs submitted per `submit_all`.
const CHUNK: usize = 16;
/// Jobs kept in flight (submitted, verdict not yet posted).
const WINDOW: usize = 64;
/// How long the driver sleeps between pumps.
pub const PUMP_INTERVAL: Duration = Duration::from_micros(200);
/// Inline checkpoint cadence of the production configuration, in runs. A
/// checkpoint retires the segments before it, and with them the evidence
/// a dispute needs; at this cadence a round's last checkpoint lands at
/// least `ROUND_JOBS - 2 × (CHECKPOINT_EVERY + WINDOW)` runs before its
/// end, so the read side always finds jobs to dispute.
const CHECKPOINT_EVERY: u64 = 400;
/// Disputes settled per read-side pass.
const DISPUTES_PER_PASS: usize = 8;

/// SHA-256 of the serial reference's ledger and metering exposition for
/// seed [`PINNED_SEED`] at the default round size. A change that alters any
/// billed or metered figure of the mix fails it.
const PINNED_SEED: u64 = 1;
const PINNED_DIGEST: &str = "6c4c20ee2d009e89df3dd3986134ee20c1f820cd58ca23892677f7969facf894";

/// What one streamed batch measured.
#[derive(Debug)]
pub struct StreamRun {
    /// First `submit_all` until `finish` returns.
    pub wall: Duration,
    /// Process CPU over the same interval.
    pub cpu: Duration,
    /// Per job, from its submission to its verdict becoming visible after
    /// a pump, milliseconds.
    pub latency_ms: Vec<f64>,
    pub pumps: u64,
    pub posted: u64,
    pub depth_peak: usize,
    pub stats: IngestStats,
    pub records: usize,
}

/// Streams `specs` through `service` as a closed loop of [`WINDOW`] jobs.
pub fn drive(
    service: &mut FleetService,
    specs: &[JobSpec],
    workers: usize,
    spans: &mut Spans,
) -> StreamRun {
    let cpu0 = sys::process_cpu();
    let start = Instant::now();
    let mut stream = service.stream(IngestConfig::new(workers).with_capacity(specs.len()));
    let mut submitted_at = Vec::with_capacity(specs.len());
    let mut latency_ms = Vec::with_capacity(specs.len());
    let (mut pumps, mut posted, mut depth_peak) = (0u64, 0u64, 0usize);
    let mut visible = 0usize;
    loop {
        while submitted_at.len() < specs.len() && submitted_at.len() - visible + CHUNK <= WINDOW {
            let from = submitted_at.len();
            let chunk = &specs[from..(from + CHUNK).min(specs.len())];
            let now = Instant::now();
            spans
                .time("ingest.submit_all", None, |_| stream.submit_all(chunk))
                .expect("the queue holds the whole batch");
            submitted_at.extend(std::iter::repeat_n(now, chunk.len()));
        }
        posted += spans.time("ingest.pump", None, |_| stream.pump()) as u64;
        pumps += 1;
        let now = Instant::now();
        let seen = stream.verdicts().len();
        latency_ms.extend(
            submitted_at[visible..seen]
                .iter()
                .map(|at| (now - *at).as_secs_f64() * 1e3),
        );
        visible = seen;
        depth_peak = depth_peak.max(stream.stats().queued);
        if visible == specs.len() {
            break;
        }
        std::thread::sleep(PUMP_INTERVAL);
    }
    let stats = stream.stats();
    let report = spans.time("ingest.finish", None, |_| stream.finish());
    StreamRun {
        wall: start.elapsed(),
        cpu: sys::process_cpu().saturating_sub(cpu0),
        latency_ms,
        pumps,
        posted,
        depth_peak,
        stats,
        records: report.records.len(),
    }
}

/// The closed-loop rounds of one run.
struct Rounds {
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
    /// The last round's service, whose journal the read side reopens.
    last: FleetService,
    last_run: StreamRun,
}

impl Rounds {
    /// Process CPU per job over every round, seconds.
    fn cpu_per_job(&self) -> f64 {
        let ms: Vec<f64> = self.rounds.iter().map(|r| r.cpu_ms_per_job).collect();
        ms.iter().sum::<f64>() / ms.len() as f64 / 1e3
    }
}

/// Streams `specs` through fresh services, one round after another, until
/// `budget` is spent. Every round's ledger and metering exposition must
/// equal the first one's, which `reference` holds. With `read`, each round
/// is followed by one read-side pass over its journal, so the read side is
/// sampled across the whole run.
#[allow(clippy::too_many_arguments)]
fn rounds(
    cfg: &Config,
    specs: &[JobSpec],
    dir: &Path,
    budget: Duration,
    traced: bool,
    mut read: Option<&mut ReadSide>,
    spans: &mut Spans,
    checks: &mut Checks,
    reference: &mut Option<Fingerprint>,
) -> Result<Rounds, String> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut rounds = Vec::new();
    loop {
        let t = Instant::now();
        let tracer = traced.then(|| PipelineTracer::new(8 * specs.len(), cfg.fleet_seed));
        let mut service = service::journaled(
            dir,
            cfg.workers,
            cfg.fleet_seed,
            Some(CHECKPOINT_EVERY),
            tracer,
        )?;
        setup_s.push(t.elapsed().as_secs_f64());
        let run = drive(&mut service, specs, cfg.workers, spans);
        checks.attempt(specs.len() as u64);
        if run.records != specs.len() {
            checks.fail_n(
                (specs.len() - run.records.min(specs.len())) as u64,
                "closed loop lost jobs",
            );
        }
        let fingerprint = Fingerprint::of(&service);
        if let Some(read) = read.as_deref_mut() {
            readside::seal_head(dir, cfg.fleet_seed)?;
            let disputes = if cfg.smoke { 2 } else { DISPUTES_PER_PASS };
            readside::measure(
                cfg,
                dir,
                &fingerprint,
                Duration::ZERO,
                1,
                disputes,
                read,
                spans,
                checks,
            );
        }
        match reference {
            Some(reference) if *reference != fingerprint => {
                checks.fail("a round's ledger or metering exposition differs from the reference")
            }
            Some(_) => {}
            None => *reference = Some(fingerprint),
        }
        rounds.push(Round::new(specs.len(), run.wall, run.cpu, &run.latency_ms));
        if start.elapsed() >= budget {
            return Ok(Rounds {
                setup_s,
                rounds,
                last: service,
                last_run: run,
            });
        }
    }
}

/// The trusted reference: the same batch through the serial batch path
/// (`FleetService::process` on one worker, no journal), checked against
/// the pinned digest for the default seed.
fn reference(cfg: &Config, specs: &[JobSpec], checks: &mut Checks) -> Fingerprint {
    let mut serial = service::fresh(1, cfg.fleet_seed);
    serial.process(specs);
    let fingerprint = Fingerprint::of(&serial);
    checks.attempt(1);
    if cfg.seed == PINNED_SEED && !cfg.smoke {
        let digest = fingerprint.digest();
        if digest != PINNED_DIGEST {
            checks.fail(format!(
                "reference digest {digest} differs from the pinned {PINNED_DIGEST}"
            ));
        }
    }
    fingerprint
}

fn round_jobs(cfg: &Config) -> usize {
    if cfg.smoke {
        mix::CLOSED_BLOCK
    } else {
        ROUND_JOBS
    }
}

pub fn run(cfg: &Config, checks: &mut Checks) -> Result<Table, String> {
    let specs = mix::closed_batch(cfg.seed, round_jobs(cfg));
    let dir = cfg.work.join("closed");
    let budget = cfg.seconds;
    let mut table = Table::default();
    let mut live = None;
    if !cfg.trace {
        let mut spans = Spans::new(false);
        let mut read = ReadSide::default();
        let r = rounds(
            cfg,
            &specs,
            &dir,
            budget,
            false,
            Some(&mut read),
            &mut spans,
            checks,
            &mut live,
        )?;
        check_reference(cfg, &specs, live, checks);
        table.setup_s(&r.setup_s);
        table.rounds(&r.rounds);
        table.read_side(&read);
        return Ok(table);
    }
    let mut off = Spans::new(false);
    let untraced = rounds(
        cfg,
        &specs,
        &dir,
        budget.mul_f64(0.25),
        false,
        None,
        &mut off,
        checks,
        &mut live,
    )?;
    let mut spans = Spans::new(true);
    let traced = rounds(
        cfg,
        &specs,
        &dir,
        budget.mul_f64(0.25),
        true,
        None,
        &mut spans,
        checks,
        &mut live,
    )?;
    check_reference(cfg, &specs, live, checks);
    readside::seal_head(&dir, cfg.fleet_seed)?;
    let sample = &specs[..(6 * mix::CLOSED_BLOCK).min(specs.len())];
    let pass = layers::job_pass(cfg, sample, budget.mul_f64(0.4), &mut spans, checks)?;
    let read_pass = layers::read_pass(cfg, &dir, &traced.last, &mut spans, checks)?;
    layers::pipeline_rows(&mut table, &traced.last_run, &traced.last, &spans);
    layers::layer_rows(&mut table, &spans, &pass, &read_pass);
    let jobs_s: Vec<f64> = untraced.rounds.iter().map(|r| r.jobs_s).collect();
    layers::parallel_efficiency(&mut table, cfg, stats::median(&jobs_s), &spans);
    layers::reconcile_jobs(
        &mut table,
        &spans,
        untraced.cpu_per_job(),
        (traced.cpu_per_job() / untraced.cpu_per_job() - 1.0) * 100.0,
    );
    crate::write_spans(cfg, &spans);
    Ok(table)
}

fn check_reference(
    cfg: &Config,
    specs: &[JobSpec],
    live: Option<Fingerprint>,
    checks: &mut Checks,
) {
    let reference = reference(cfg, specs, checks);
    if live.as_ref() != Some(&reference) {
        checks.fail("the streamed ledger or metering exposition differs from the serial reference");
    }
}
