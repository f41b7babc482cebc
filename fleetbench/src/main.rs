//! `fleetbench` — the repository benchmark of the trustmeter fleet service.
//!
//! ```text
//! fleetbench --workload closed_clean_sealed|open_attack_bursty|offline_recover_dispute
//!            --seed N --seconds S --trace 0|1 [--smoke]
//! fleetbench --compare A.json B.json
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics with
//! tracing off; with `--trace 1` a separate run measures the per-layer
//! table. Either way it checks the program's outputs, prints a provenance
//! line and a human-readable table, and ends its standard output with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. A failed
//! check makes the exit code 1. Each run also writes its result, with
//! provenance, under `.fleetbench_out/`; `--compare` sets two of them side
//! by side and refuses results from machines with different core counts.
//! See `fleetbench/README.md` for the workloads and metrics.

mod closed;
mod layers;
mod mix;
mod offline;
mod open;
mod readside;
mod service;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use readside::ReadSide;
use serde::Value;

/// Every end-to-end metric, with its unit, in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("jobs_s", "jobs/s"),
    ("cpu_ms_per_job", "ms"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("recover_s", "s"),
    ("verify_s", "s"),
    ("dispute_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

const WORKLOADS: [&str; 3] = [
    "closed_clean_sealed",
    "open_attack_bursty",
    "offline_recover_dispute",
];

/// Where runs keep their journals; removed when the run ends.
const WORK_DIR: &str = ".fleetbench_work";
/// Where runs leave their results and spans.
const OUT_DIR: &str = ".fleetbench_out";

/// One run's settings.
#[derive(Debug)]
pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own smoke test.
    pub smoke: bool,
    /// Worker threads: one per core, no autoscaling.
    pub workers: usize,
    pub nproc: usize,
    pub fleet_seed: u64,
    /// This run's scratch directory.
    pub work: PathBuf,
}

/// Operations attempted and failed, with what failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, message: impl Into<String>) {
        self.fail_n(1, message);
    }

    pub fn fail_n(&mut self, n: u64, message: impl Into<String>) {
        self.failed += n;
        self.messages.push(message.into());
    }
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Table {
    rows: Vec<(String, f64)>,
}

impl Table {
    pub fn push(&mut self, name: &str, value: f64) {
        self.rows.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn setup_s(&mut self, samples: &[f64]) {
        self.push("setup_s", stats::median(samples));
    }

    /// `jobs_s`, `cpu_ms_per_job`, `lat_p50_ms` and `lat_p99_ms`: each
    /// measured per round and reported as the fast quartile of the rounds.
    pub fn rounds(&mut self, rounds: &[Round]) {
        let column = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
        self.push("jobs_s", stats::fast_quartile(&column(|r| r.jobs_s), true));
        let lower = |f| stats::fast_quartile(&column(f), false);
        self.push("cpu_ms_per_job", lower(|r| r.cpu_ms_per_job));
        self.push("lat_p50_ms", lower(|r| r.lat_p50_ms));
        self.push("lat_p99_ms", lower(|r| r.lat_p99_ms));
        eprintln!(
            "{} rounds, {} latency samples",
            rounds.len(),
            rounds.iter().map(|r| r.samples).sum::<usize>()
        );
    }

    /// `recover_s`, `verify_s` and `dispute_p50_ms`: per pass, reported as
    /// the fast quartile of the passes.
    pub fn read_side(&mut self, read: &ReadSide) {
        self.push("recover_s", stats::fast_quartile(&read.recover_s, false));
        self.push("verify_s", stats::fast_quartile(&read.verify_s, false));
        let dispute_p50: Vec<f64> = read.dispute_ms.iter().map(|d| stats::median(d)).collect();
        self.push("dispute_p50_ms", stats::fast_quartile(&dispute_p50, false));
        eprintln!(
            "read side: {} passes over {} entries ({} runs, {} seals), {} disputes",
            read.passes(),
            read.entries,
            read.runs,
            read.seals,
            read.dispute_ms.iter().map(Vec::len).sum::<usize>()
        );
    }
}

/// One round's end-to-end figures: a closed-loop batch, an open-loop
/// window or a read-side pass.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub jobs_s: f64,
    pub cpu_ms_per_job: f64,
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    /// Latency samples the round's quantiles came from.
    pub samples: usize,
}

impl Round {
    pub fn new(jobs: usize, wall: Duration, cpu: Duration, latency_ms: &[f64]) -> Round {
        Round {
            jobs_s: jobs as f64 / wall.as_secs_f64(),
            cpu_ms_per_job: cpu.as_secs_f64() * 1e3 / jobs.max(1) as f64,
            lat_p50_ms: stats::quantile(latency_ms, 0.5),
            lat_p99_ms: stats::quantile(latency_ms, 0.99),
            samples: latency_ms.len(),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fleetbench --workload {} --seed N --seconds S --trace 0|1 [--smoke]\n       \
         fleetbench --compare A.json B.json",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == name.as_str())
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let nproc = sys::available_parallelism();
    Ok(Config {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        workers: nproc,
        nproc,
        fleet_seed: mix::fleet_seed(seed),
        work: PathBuf::from(WORK_DIR).join(format!("{workload}-{}", std::process::id())),
    })
}

/// Where the run came from: what a result must be compared under.
fn provenance(cfg: &Config) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"workers\": {}, \"rustc\": \"{}\", \"git_head\": \"{}\", \
         \"closed_pump_interval_us\": {}, \"open_pump_interval_us\": {}, \"open_offered_rate\": {}, \
         \"open_scrape_every_ms\": {}}}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        cfg.seconds.as_secs_f64(),
        sys::online_cpus(),
        cfg.nproc,
        cfg.workers,
        sys::rustc_version(),
        sys::git_head(),
        closed::PUMP_INTERVAL.as_micros(),
        open::PUMP_INTERVAL.as_micros(),
        open::OFFERED_RATE,
        open::SCRAPE_EVERY.as_millis(),
    )
}

fn result_json(correct: bool, checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// `--compare A B`: two results' metrics side by side, refused when they
/// were measured on different core counts.
fn compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for key in ["nproc", "available_parallelism"] {
        let core_count = |v: &Value| number(v.field_or_null("provenance").field_or_null(key));
        if core_count(&a) != core_count(&b) {
            eprintln!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                core_count(&a),
                core_count(&b)
            );
            return ExitCode::from(3);
        }
    }
    let metrics = |v: &Value| match v.field_or_null("result").field_or_null("metrics") {
        Value::Map(entries) => entries.clone(),
        _ => Vec::new(),
    };
    let theirs = metrics(&b);
    for (name, metric) in metrics(&a) {
        let x = number(metric.field_or_null("value")).unwrap_or(f64::NAN);
        let y = theirs
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, m)| number(m.field_or_null("value")))
            .unwrap_or(f64::NAN);
        let unit = match metric.field_or_null("unit") {
            Value::Str(unit) => unit.as_str(),
            _ => "",
        };
        println!(
            "{name:32} {x:>14.4} {y:>14.4} {:>+8.1}%  {unit}",
            (y / x - 1.0) * 100.0
        );
    }
    ExitCode::SUCCESS
}

/// Prints the per-layer span table (count and self time of every span
/// name) and writes the run's spans, one JSON object per line, over the
/// previous traced run's of the same workload.
pub fn write_spans(cfg: &Config, spans: &spans::Spans) {
    for (name, layer) in spans.layers() {
        println!(
            "span {name:28} count {:>8}  self mean {:>12.3} us  self total {:>10.3} ms",
            layer.count(),
            layer.mean_us(),
            layer.self_ns.iter().sum::<u64>() as f64 / 1e6
        );
    }
    let path = format!("{OUT_DIR}/{}-spans.jsonl", cfg.workload);
    let _ = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(path, spans.to_jsonl()));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, a, b] => compare(a, b),
            _ => usage(),
        };
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return usage();
        }
    };
    let provenance = provenance(&cfg);
    println!("provenance {provenance}");
    let started = Instant::now();
    let mut checks = Checks::default();
    let result = match cfg.workload {
        "closed_clean_sealed" => closed::run(&cfg, &mut checks),
        "open_attack_bursty" => open::run(&cfg, &mut checks),
        _ => offline::run(&cfg, &mut checks),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    // Only removed once no other run is using it.
    let _ = std::fs::remove_dir(WORK_DIR);
    let mut table = match result {
        Ok(table) => table,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    table.push("peak_rss_mb", sys::peak_rss_mb());
    let names: &[(&str, &str)] = if cfg.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        match table.get(name) {
            Some(value) if value.is_finite() => metrics.push((*name, *unit, value)),
            Some(value) => checks.fail(format!("{name} is {value}")),
            None => checks.fail(format!("{name} was not measured")),
        }
    }
    for message in &checks.messages {
        eprintln!("FAILED: {message}");
    }
    let correct = checks.failed == 0;
    for (name, unit, value) in &metrics {
        println!("{name:32} {value:>14.4} {unit}");
    }
    println!(
        "{} run: {:.1} s, {} attempted, {} failed",
        cfg.workload,
        started.elapsed().as_secs_f64(),
        checks.attempted,
        checks.failed
    );
    let json = result_json(correct, &checks, &metrics);
    let _ = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        let stem = format!(
            "{OUT_DIR}/{}-seed{}-trace{}",
            cfg.workload,
            cfg.seed,
            u8::from(cfg.trace)
        );
        std::fs::write(
            format!("{stem}.json"),
            format!("{{\"provenance\": {provenance}, \"result\": {json}}}\n"),
        )
    });
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
