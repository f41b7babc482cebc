//! `open_attack_bursty`: an open loop. Seeded Poisson arrivals from three
//! interactive tenants and periodic bursts from one batch tenant are
//! offered at a fixed rate into a bounded `Reject` queue, whether or not
//! the service keeps up. Latency runs from each job's scheduled arrival to
//! its verdict becoming visible after a pump. An untraced run is three
//! sessions, each a window on a fresh service followed by read-side passes
//! over its journal.

use std::path::Path;
use std::time::{Duration, Instant};

use trustmeter_fleet::{
    BackpressurePolicy, FleetService, IngestConfig, IngestStats, PipelineTracer, SubmitError,
};

use crate::closed::StreamRun;
use crate::layers;
use crate::mix::{self, Arrival, TENANTS};
use crate::readside::{self, ReadSide};
use crate::service::{self, Fingerprint};
use crate::spans::Spans;
use crate::sys;
use crate::{Checks, Config, Round, Table};

/// Offered load, jobs/s: about 22% of this mix's saturated capacity with
/// two workers on two vCPUs, low enough that a slow stretch of the host
/// does not tip the loop into a backlog (see the benchmark's README).
pub const OFFERED_RATE: f64 = 400.0;
/// Offered load of the smoke run.
const SMOKE_RATE: f64 = 100.0;
/// Bounded submission queue; overflow is shed.
const QUEUE: usize = 1024;
/// How long the driver sleeps between pumps at most.
pub const PUMP_INTERVAL: Duration = Duration::from_micros(250);
/// How often the driver scrapes the pipeline's stats and health.
pub const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// A run whose generator submitted its arrivals later than this at p99
/// measured the driver, not the fleet, and is invalid.
const LAG_BOUND_MS: f64 = 20.0;
/// Open-loop sessions per untraced run.
const SESSIONS: u64 = 3;
/// Set-ups per session; `setup_s` is the median of all of them.
const SETUPS: usize = 10;
/// Disputes settled per read-side pass.
const DISPUTES_PER_PASS: usize = 4;

/// Length of the windows a run's figures are computed over: one burst
/// period, so every window holds one burst.
const WINDOW: Duration = Duration::from_millis(500);

/// What one open-loop run measured.
struct OpenRun {
    stream: StreamRun,
    /// One round per whole [`WINDOW`] of the schedule (the whole run when
    /// the schedule is shorter than a window).
    rounds: Vec<Round>,
    offered: [u64; 4],
    shed: [u64; 4],
    poisoned: u64,
    /// How late each arrival was submitted, milliseconds.
    lag_ms: Vec<f64>,
}

fn drive(
    service: &mut FleetService,
    schedule: &[Arrival],
    duration: Duration,
    workers: usize,
    spans: &mut Spans,
) -> OpenRun {
    let windows = (duration.as_nanos() / WINDOW.as_nanos()) as usize;
    let mut window_latency: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut stream = service.stream(
        IngestConfig::new(workers)
            .with_capacity(QUEUE)
            .with_backpressure(BackpressurePolicy::Reject),
    );
    for (i, tenant) in TENANTS.iter().enumerate() {
        stream.set_tenant_weight(*tenant, mix::weight(i));
    }
    let mut offered = [0u64; 4];
    let mut shed = [0u64; 4];
    let mut accepted: Vec<usize> = Vec::with_capacity(schedule.len());
    let mut latency_ms = Vec::with_capacity(schedule.len());
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let (mut pumps, mut posted, mut depth_peak) = (0u64, 0u64, 0usize);
    let mut chunk = Vec::new();
    let mut visible = 0usize;
    let mut next = 0usize;
    let start = Instant::now();
    // (time, process CPU, jobs posted) at each window boundary passed.
    let mut marks = vec![(start, sys::process_cpu(), 0u64)];
    let mut next_scrape = SCRAPE_EVERY;
    let at = |i: usize| start + Duration::from_nanos(schedule[i].at_ns);
    let window_of = |a: &Arrival| (a.at_ns / WINDOW.as_nanos() as u64) as usize;
    loop {
        let now = Instant::now();
        chunk.clear();
        let first = next;
        while next < schedule.len() && at(next) <= now {
            chunk.push(schedule[next].job.clone());
            lag_ms.push((now - at(next)).as_secs_f64() * 1e3);
            offered[(schedule[next].job.tenant.0 - 1) as usize] += 1;
            next += 1;
        }
        if !chunk.is_empty() {
            let admitted =
                match spans.time("ingest.submit_all", None, |_| stream.submit_all(&chunk)) {
                    Ok(seqs) => seqs.len(),
                    Err(e) => {
                        assert_eq!(e.error, SubmitError::QueueFull, "open-loop submit: {e}");
                        e.accepted.len()
                    }
                };
            accepted.extend(first..first + admitted);
            // A shed job never gets a verdict: its latency is infinite.
            for arrival in &schedule[first + admitted..next] {
                let tenant = arrival.job.tenant;
                shed[(tenant.0 - 1) as usize] += 1;
                if tenant != TENANTS[0] {
                    latency_ms.push(f64::INFINITY);
                    if let Some(w) = window_latency.get_mut(window_of(arrival)) {
                        w.push(f64::INFINITY);
                    }
                }
            }
        }
        posted += spans.time("ingest.pump", None, |_| stream.pump()) as u64;
        pumps += 1;
        let now = Instant::now();
        let seen = stream.verdicts().len();
        for &i in &accepted[visible..seen] {
            if schedule[i].job.tenant != TENANTS[0] {
                let ms = (now - at(i)).as_secs_f64() * 1e3;
                latency_ms.push(ms);
                if let Some(w) = window_latency.get_mut(window_of(&schedule[i])) {
                    w.push(ms);
                }
            }
        }
        visible = seen;
        if marks.len() <= windows && now - start >= WINDOW * marks.len() as u32 {
            marks.push((now, sys::process_cpu(), posted));
        }
        let stats = stream.stats();
        depth_peak = depth_peak.max(stats.queued);
        if start.elapsed() >= next_scrape {
            spans.time("ingest.scrape", None, |_| (stream.stats(), stream.health()));
            next_scrape += SCRAPE_EVERY;
        }
        if next == schedule.len() && (visible + stats.poisoned as usize) >= accepted.len() {
            break;
        }
        let until_next = schedule.get(next).map_or(PUMP_INTERVAL, |a| {
            (start + Duration::from_nanos(a.at_ns)).saturating_duration_since(Instant::now())
        });
        std::thread::sleep(until_next.min(PUMP_INTERVAL));
    }
    let stats: IngestStats = stream.stats();
    let poisoned = stream.poisoned().len() as u64;
    let report = spans.time("ingest.finish", None, |_| stream.finish());
    let wall = start.elapsed();
    let cpu = sys::process_cpu().saturating_sub(marks[0].1);
    let rounds = if marks.len() > 1 {
        marks
            .windows(2)
            .zip(&window_latency)
            .map(|(m, latency)| {
                let jobs = (m[1].2 - m[0].2) as usize;
                Round::new(
                    jobs,
                    m[1].0 - m[0].0,
                    m[1].1.saturating_sub(m[0].1),
                    latency,
                )
            })
            .collect()
    } else {
        vec![Round::new(report.records.len(), wall, cpu, &latency_ms)]
    };
    OpenRun {
        rounds,
        stream: StreamRun {
            wall,
            cpu,
            latency_ms: Vec::new(),
            pumps,
            posted,
            depth_peak,
            stats,
            records: report.records.len(),
        },
        offered,
        shed,
        poisoned,
        lag_ms,
    }
}

/// Checks the open loop's accounting: offered = accepted + shed, accepted
/// = posted + poisoned, no reassignments, no inline audit replays. Shed and
/// poisoned jobs count as failed.
fn check(run: &OpenRun, service: &FleetService, checks: &mut Checks) {
    let offered: u64 = run.offered.iter().sum();
    let shed: u64 = run.shed.iter().sum();
    let stats = &run.stream.stats;
    checks.attempt(offered);
    if shed > 0 {
        checks.fail_n(shed, format!("{shed} jobs shed"));
    }
    if run.poisoned > 0 {
        checks.fail_n(run.poisoned, format!("{} jobs poisoned", run.poisoned));
    }
    if offered != stats.submitted + shed {
        checks.fail("offered != accepted + shed");
    }
    if stats.submitted != run.stream.records as u64 + run.poisoned {
        checks.fail("accepted != posted + poisoned");
    }
    if stats.reassigned != 0 {
        checks.fail(format!("{} jobs reassigned", stats.reassigned));
    }
    if service.auditor().replay_count() != 0 {
        checks.fail("the auditor replayed a job inline");
    }
    let lag = crate::stats::quantile(&run.lag_ms, 0.99);
    if lag > LAG_BOUND_MS {
        checks.fail(format!(
            "generator lag p99 {lag:.1} ms is past {LAG_BOUND_MS} ms: the run is invalid"
        ));
    }
}

/// A fresh journaled service with the service tracer attached, and the
/// schedule of session `session` for `window` seconds. The service checkpoints inline at 40%
/// and 80% of the offered jobs: a checkpoint retires the segments before
/// it, and with them the evidence a dispute needs, so the last fifth of
/// the window stays disputable. A schedule too short for that keeps every
/// segment.
fn setup(
    cfg: &Config,
    dir: &Path,
    session: u64,
    window: Duration,
) -> Result<(FleetService, Vec<Arrival>), String> {
    let rate = if cfg.smoke { SMOKE_RATE } else { OFFERED_RATE };
    let seed = cfg.seed ^ (session << 48);
    let schedule = mix::open_schedule(seed, rate, window.as_secs_f64());
    let checkpoint_every = (schedule.len() >= 1000).then(|| schedule.len() as u64 * 2 / 5);
    let tracer = PipelineTracer::new(4096, cfg.fleet_seed);
    let service = service::journaled(
        dir,
        cfg.workers,
        cfg.fleet_seed,
        checkpoint_every,
        Some(tracer),
    )?;
    Ok((service, schedule))
}

/// Set-ups repeated [`SETUPS`] times; returns their times and the last.
fn setups(
    cfg: &Config,
    dir: &Path,
    session: u64,
    window: Duration,
) -> Result<(Vec<f64>, FleetService, Vec<Arrival>), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let (service, schedule) = setup(cfg, dir, session, window)?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() == SETUPS {
            return Ok((times, service, schedule));
        }
    }
}

pub fn run(cfg: &Config, checks: &mut Checks) -> Result<Table, String> {
    let dir = cfg.work.join("open");
    let budget = cfg.seconds;
    let mut table = Table::default();
    if !cfg.trace {
        // Sessions of an open-loop window followed by read-side passes over
        // its journal, so both are sampled across the whole run.
        let sessions = if cfg.smoke { 1 } else { SESSIONS };
        let window = budget.mul_f64(0.6 / sessions as f64);
        let mut spans = Spans::new(false);
        let (mut setup_s, mut rounds, mut read) = (Vec::new(), Vec::new(), ReadSide::default());
        for session in 0..sessions {
            let (times, mut service, schedule) = setups(cfg, &dir, session, window)?;
            setup_s.extend(times);
            let run = drive(&mut service, &schedule, window, cfg.workers, &mut spans);
            check(&run, &service, checks);
            rounds.extend(run.rounds);
            readside::seal_head(&dir, cfg.fleet_seed)?;
            readside::measure(
                cfg,
                &dir,
                &Fingerprint::of(&service),
                budget.mul_f64(0.35 / sessions as f64),
                1,
                if cfg.smoke { 2 } else { DISPUTES_PER_PASS },
                &mut read,
                &mut spans,
                checks,
            );
        }
        table.setup_s(&setup_s);
        table.rounds(&rounds);
        table.read_side(&read);
        return Ok(table);
    }
    let mut off = Spans::new(false);
    let window = budget.mul_f64(0.25);
    let (_, mut service, schedule) = setups(cfg, &dir, 0, window)?;
    let untraced = drive(&mut service, &schedule, window, cfg.workers, &mut off);
    check(&untraced, &service, checks);
    let mut spans = Spans::new(true);
    let (_, mut service, schedule) = setups(cfg, &dir, 0, window)?;
    let traced = drive(&mut service, &schedule, window, cfg.workers, &mut spans);
    check(&traced, &service, checks);
    readside::seal_head(&dir, cfg.fleet_seed)?;
    let sample: Vec<_> = (0..2 * mix::OPEN_CYCLE as u64)
        .map(|i| mix::open_job(i, TENANTS[(i % 4) as usize]))
        .collect();
    let pass = layers::job_pass(cfg, &sample, budget.mul_f64(0.4), &mut spans, checks)?;
    let read_pass = layers::read_pass(cfg, &dir, &service, &mut spans, checks)?;
    let cpu_per_job = |r: &OpenRun| r.stream.cpu.as_secs_f64() / r.stream.records.max(1) as f64;
    layers::pipeline_rows(&mut table, &traced.stream, &service, &spans);
    layers::layer_rows(&mut table, &spans, &pass, &read_pass);
    layers::parallel_efficiency(
        &mut table,
        cfg,
        untraced.stream.records as f64 / untraced.stream.wall.as_secs_f64(),
        &spans,
    );
    layers::reconcile_jobs(
        &mut table,
        &spans,
        cpu_per_job(&untraced),
        (cpu_per_job(&traced) / cpu_per_job(&untraced) - 1.0) * 100.0,
    );
    // Only this workload sheds or lags; the shared per-layer table leaves
    // both out.
    for (i, tenant) in TENANTS.iter().enumerate() {
        let shed = traced.shed[i] as f64 / traced.offered[i].max(1) as f64;
        println!("queue.shed_frac.t{:<18} {shed:>14.4} ratio", tenant.0);
    }
    let lag = crate::stats::quantile(&traced.lag_ms, 0.99);
    println!("loadgen.lag_p99_ms {lag:>28.4} ms");
    crate::write_spans(cfg, &spans);
    Ok(table)
}
