//! The read side of the journal and evidence layers, as an operator and a
//! tenant use it: reopen a sealed segment directory and recover a fresh
//! service from it, verify every seal, and settle disputes from sealed
//! proofs.

use std::path::Path;
use std::time::{Duration, Instant};

use trustmeter_fleet::{JobId, Journal, JournalEntry};

use crate::mix::Rng;
use crate::service::{self, Fingerprint};
use crate::spans::Spans;
use crate::sys;
use crate::{Checks, Config, Round};

/// What the read-side passes measured.
#[derive(Debug, Default)]
pub struct ReadSide {
    /// Reopen + `entries()` + `recover_latest` of each pass, seconds.
    pub recover_s: Vec<f64>,
    /// `Journal::verify` of each pass, seconds.
    pub verify_s: Vec<f64>,
    /// Each pass's `FleetService::dispute` latencies, milliseconds.
    pub dispute_ms: Vec<Vec<f64>>,
    /// Process CPU of each pass.
    pub cpu: Vec<Duration>,
    /// Wall time of each pass.
    pub wall: Vec<Duration>,
    /// `Run` entries the recovered window holds.
    pub runs: usize,
    /// Entries the journal holds.
    pub entries: usize,
    /// Sealed blocks verified per pass.
    pub seals: u64,
}

impl ReadSide {
    /// Passes made.
    pub fn passes(&self) -> usize {
        self.cpu.len()
    }

    /// One [`Round`] per pass, its jobs being the journal's runs and its
    /// latencies the pass's disputes.
    pub fn rounds(&self) -> Vec<Round> {
        (0..self.passes())
            .map(|i| Round::new(self.runs, self.wall[i], self.cpu[i], &self.dispute_ms[i]))
            .collect()
    }

    /// Mean process CPU per pass, seconds.
    pub fn cpu_per_pass(&self) -> f64 {
        self.cpu.iter().sum::<Duration>().as_secs_f64() / self.passes().max(1) as f64
    }
}

/// Seals the journal head once, so every later read sees the same bytes
/// and `dispute` finds every entry sealed.
pub fn seal_head(dir: &Path, fleet_seed: u64) -> Result<(), String> {
    Journal::segmented(dir, service::segment_config(fleet_seed))
        .and_then(|journal| journal.seal())
        .map_err(|e| format!("seal journal head: {e}"))
}

/// Adds read-side passes over the sealed journal in `dir` to `out` until
/// `budget` is spent (at least `min_passes`), each settling `disputes`
/// disputes for a seeded sample of the jobs the journal holds. The
/// recovered ledger and metering exposition must equal `live`, and every
/// dispute must settle from verified proofs.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    cfg: &Config,
    dir: &Path,
    live: &Fingerprint,
    budget: Duration,
    min_passes: usize,
    disputes: usize,
    out: &mut ReadSide,
    spans: &mut Spans,
    checks: &mut Checks,
) {
    let mut rng = Rng::new(cfg.seed ^ 0xD15_9073 ^ ((out.passes() as u64) << 32));
    let start = Instant::now();
    let mut passes = 0;
    while passes < min_passes || start.elapsed() < budget {
        let cpu0 = sys::process_cpu();
        let started = Instant::now();
        if let Err(e) = pass(cfg, dir, live, disputes, &mut rng, out, spans, checks) {
            checks.fail(format!("read side: {e}"));
            return;
        }
        out.wall.push(started.elapsed());
        out.cpu.push(sys::process_cpu().saturating_sub(cpu0));
        passes += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn pass(
    cfg: &Config,
    dir: &Path,
    live: &Fingerprint,
    disputes: usize,
    rng: &mut Rng,
    out: &mut ReadSide,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<(), String> {
    let (workers, fleet_seed) = (cfg.workers, cfg.fleet_seed);
    let started = Instant::now();
    let journal = spans
        .time("journal.reopen", None, |_| {
            Journal::segmented(dir, service::segment_config(fleet_seed))
        })
        .map_err(|e| format!("reopen: {e}"))?;
    let (entries, _tail) = spans
        .time("journal.entries", None, |_| journal.entries())
        .map_err(|e| format!("parse: {e}"))?;
    let mut recovered = service::fresh(workers, fleet_seed);
    let report = spans
        .time("fleet.recover_latest", None, |_| {
            recovered.recover_latest(&entries)
        })
        .map_err(|e| format!("recover: {e}"))?;
    out.recover_s.push(started.elapsed().as_secs_f64());
    checks.attempt(1);
    if !report.is_consistent() || Fingerprint::of(&recovered) != *live {
        checks.fail("recovered ledger or metering exposition differs from the live service");
    }

    let started = Instant::now();
    let verification = spans
        .time("journal.verify", None, |_| journal.verify(fleet_seed))
        .map_err(|e| format!("verify: {e}"))?;
    out.verify_s.push(started.elapsed().as_secs_f64());
    checks.attempt(1);
    if verification.seals_verified == 0 {
        checks.fail("journal verification found no sealed block");
    }
    out.seals = verification.seals_verified;
    out.entries = entries.len();

    let jobs: Vec<JobId> = entries
        .iter()
        .filter_map(|entry| match entry {
            JournalEntry::Run(record) => Some(record.job.id),
            _ => None,
        })
        .collect();
    out.runs = jobs.len();
    if jobs.is_empty() {
        return Err("the recovered window holds no runs".to_string());
    }
    let mut recovered = recovered.with_journal(journal);
    let mut latencies = Vec::with_capacity(disputes);
    for _ in 0..disputes {
        let job = jobs[rng.below(jobs.len())];
        let started = Instant::now();
        let resolution = spans.time("fleet.dispute", Some(job.0), |_| recovered.dispute(job));
        latencies.push(started.elapsed().as_secs_f64() * 1e3);
        checks.attempt(1);
        match resolution {
            Ok(r) if r.runs >= 1 && r.invoice.is_some() && r.verdict.is_some() => {}
            Ok(_) => checks.fail(format!(
                "dispute of {job} settled without invoice and verdict"
            )),
            Err(e) => checks.fail(format!("dispute of {job}: {e}")),
        }
    }
    out.dispute_ms.push(latencies);
    Ok(())
}
