//! `offline_recover_dispute`: no jobs run in the timed phase. Set-up
//! streams a seeded batch with the closed loop's mix into a sealed
//! segmented journal without checkpoints; the timed phase reopens it,
//! recovers a fresh service, verifies every seal and settles disputes.

use std::time::Instant;

use trustmeter_fleet::{FleetService, PipelineTracer};

use crate::closed::{self, StreamRun};
use crate::layers;
use crate::mix;
use crate::readside::{self, ReadSide};
use crate::service::{self, Fingerprint};
use crate::spans::Spans;
use crate::{Checks, Config, Table};

/// Jobs in the journal.
const JOURNAL_JOBS: usize = 64 * mix::CLOSED_BLOCK;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Disputes settled per pass.
const DISPUTES_PER_PASS: usize = 8;

/// Builds the journal [`SETUPS`] times (the last one with `spans` and a
/// service tracer when traced) and seals its head.
fn setups(
    cfg: &Config,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<(Vec<f64>, FleetService, StreamRun), String> {
    let jobs = if cfg.smoke {
        mix::CLOSED_BLOCK
    } else {
        JOURNAL_JOBS
    };
    let dir = cfg.work.join("offline");
    let mut times = Vec::new();
    loop {
        let last = times.len() + 1 == SETUPS;
        let mut off = Spans::new(false);
        let t = Instant::now();
        let specs = mix::closed_batch(cfg.seed, jobs);
        let tracer = (cfg.trace && last).then(|| PipelineTracer::new(8 * jobs, cfg.fleet_seed));
        let mut service = service::journaled(&dir, cfg.workers, cfg.fleet_seed, None, tracer)?;
        let run = closed::drive(
            &mut service,
            &specs,
            cfg.workers,
            if last { &mut *spans } else { &mut off },
        );
        readside::seal_head(&dir, cfg.fleet_seed)?;
        times.push(t.elapsed().as_secs_f64());
        checks.attempt(jobs as u64);
        if run.records != jobs {
            checks.fail_n((jobs - run.records.min(jobs)) as u64, "set-up lost jobs");
        }
        if last {
            return Ok((times, service, run));
        }
    }
}

/// Read-side passes over the set-up journal for `budget`.
fn measure(
    cfg: &Config,
    live: &FleetService,
    budget: std::time::Duration,
    spans: &mut Spans,
    checks: &mut Checks,
) -> ReadSide {
    let mut read = ReadSide::default();
    readside::measure(
        cfg,
        &cfg.work.join("offline"),
        &Fingerprint::of(live),
        budget,
        3,
        if cfg.smoke { 2 } else { DISPUTES_PER_PASS },
        &mut read,
        spans,
        checks,
    );
    read
}

pub fn run(cfg: &Config, checks: &mut Checks) -> Result<Table, String> {
    let mut table = Table::default();
    if !cfg.trace {
        let mut spans = Spans::new(false);
        let (setup_s, service, _) = setups(cfg, &mut spans, checks)?;
        let read = measure(cfg, &service, cfg.seconds, &mut spans, checks);
        table.setup_s(&setup_s);
        // The jobs of this workload are the journaled runs each pass
        // recovers, and its requests are the disputes.
        table.rounds(&read.rounds());
        table.read_side(&read);
        return Ok(table);
    }
    let mut spans = Spans::new(true);
    let (_, service, setup_run) = setups(cfg, &mut spans, checks)?;
    let mut off = Spans::new(false);
    let untraced = measure(cfg, &service, cfg.seconds.mul_f64(0.3), &mut off, checks);
    let traced = measure(cfg, &service, cfg.seconds.mul_f64(0.3), &mut spans, checks);
    let sample = mix::closed_batch(cfg.seed, 6 * mix::CLOSED_BLOCK);
    let pass = layers::job_pass(cfg, &sample, cfg.seconds.mul_f64(0.3), &mut spans, checks)?;
    let read_pass =
        layers::read_pass(cfg, &cfg.work.join("offline"), &service, &mut spans, checks)?;
    layers::pipeline_rows(&mut table, &setup_run, &service, &spans);
    layers::layer_rows(&mut table, &spans, &pass, &read_pass);
    layers::parallel_efficiency(
        &mut table,
        cfg,
        setup_run.records as f64 / setup_run.wall.as_secs_f64(),
        &spans,
    );
    layers::reconcile_read(
        &mut table,
        &spans,
        &untraced,
        (traced.cpu_per_pass() / untraced.cpu_per_pass() - 1.0) * 100.0,
    );
    crate::write_spans(cfg, &spans);
    Ok(table)
}
