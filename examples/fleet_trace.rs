//! Metering the meter: pipeline span tracing, stage latency histograms,
//! and observation-overhead accounting.
//!
//! The fleet bills tenants for CPU time — so the observability layer that
//! watches the fleet must itself be accounted for, and must never perturb
//! what it observes. This demo:
//!
//! 1. streams a 48-job, 3-tenant batch through a [`FleetService`] with a
//!    [`PipelineTracer`] attached: every stage boundary — queue wait,
//!    execution, audit, journal commit, release→post — becomes a span in
//!    a bounded ring and a sample in the `fleet_stage_seconds` histograms;
//! 2. reads per-stage p50/p99 latency straight off the metrics registry
//!    (`histogram_quantile`), the same numbers a Prometheus scrape of
//!    `fleet_stage_seconds_bucket` would yield;
//! 3. prints the observer's own bill — spans recorded, spans dropped by
//!    the ring bound, and `fleet_observer_overhead_seconds_total`, the
//!    time spent inside the observability layer itself;
//! 4. exports the span ring as JSON lines. Span *identity* (id, job,
//!    tenant, stage) is derived from the fleet seed, so it is stable
//!    across runs and worker counts; wall-clock data is segregated under
//!    the `wall` key, so a consumer that strips it gets a deterministic
//!    artifact;
//! 5. replays the identical batch untraced and proves the metering
//!    exposition — the surface billing consumers read — is byte-identical
//!    with tracing on or off.
//!
//! ```text
//! cargo run --release --example fleet_trace
//! ```

use trustmeter::prelude::*;

const SCALE: f64 = 0.002;
const SEED: u64 = 0x0B5E12;
const JOBS: u64 = 48;

fn jobs() -> Vec<JobSpec> {
    (0..JOBS)
        .map(|id| {
            let tenant = TenantId((id % 3) as u32 + 1);
            let workload = Workload::ALL[(id % 4) as usize];
            if tenant.0 == 2 && id % 4 == 0 {
                JobSpec::attacked(id, tenant, workload, SCALE, AttackSpec::Shell)
            } else {
                JobSpec::clean(id, tenant, workload, SCALE)
            }
        })
        .collect()
}

fn build_service() -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(4, SEED));
    for (id, name, rate) in [
        (1, "acme", 0.10),
        (2, "shelled-inc", 0.10),
        (3, "initech", 0.12),
    ] {
        service.register(Tenant::new(
            TenantId(id),
            name,
            RateCard::per_cpu_hour(rate),
        ));
    }
    service
}

fn stream(service: &mut FleetService) -> FleetReport {
    let mut stream = service.stream(IngestConfig::new(4));
    for job in jobs() {
        stream.submit(job).expect("queue sized for batch");
        stream.pump();
    }
    stream.finish()
}

fn main() {
    // ---- 1. A traced streaming run --------------------------------------
    let tracer = PipelineTracer::new(4 * JOBS as usize, SEED);
    let mut service = build_service().with_tracer(tracer.clone());
    let report = stream(&mut service);
    println!(
        "streamed {} jobs across 3 tenants with the tracer attached",
        report.records.len()
    );

    // ---- 2. Per-stage latency, straight off the histograms --------------
    println!("\nstage latency (from fleet_stage_seconds):");
    let metrics = service.metrics();
    for stage in Stage::ALL {
        let labels = [("stage", stage.label())];
        let count = metrics
            .histogram_count("fleet_stage_seconds", &labels)
            .unwrap_or(0);
        if count == 0 {
            // No journal attached in this demo, so no journal-commit spans.
            println!("  {:>14}: (no samples)", stage.label());
            continue;
        }
        let quantile = |q: f64| {
            metrics
                .histogram_quantile("fleet_stage_seconds", &labels, q)
                .expect("non-empty histogram")
        };
        println!(
            "  {:>14}: {count:3} spans, p50 {:8.1} µs, p99 {:8.1} µs",
            stage.label(),
            quantile(0.5) * 1e6,
            quantile(0.99) * 1e6,
        );
    }

    // ---- 3. The observer's own bill --------------------------------------
    let stats = tracer.stats();
    println!(
        "\nobserver self-accounting: {} spans recorded, {} dropped by the \
         ring bound, {:.3} ms spent observing",
        stats.spans_recorded,
        stats.spans_dropped,
        stats.overhead_nanos as f64 / 1e6
    );
    let text = service.metrics_text();
    for line in text.lines().filter(|l| l.starts_with("fleet_observer_")) {
        println!("  {line}");
    }

    // ---- 4. Export the span ring as JSON lines ---------------------------
    let mut jsonl = Vec::new();
    tracer.export_jsonl(&mut jsonl).expect("write to memory");
    let jsonl = String::from_utf8(jsonl).expect("spans are utf-8");
    println!(
        "\nexported {} spans as JSON lines; the first two:",
        jsonl.lines().count()
    );
    for line in jsonl.lines().take(2) {
        println!("  {line}");
    }
    // Span identity is seeded: the execute span of job 0 has the same id
    // in every run of this example, on any machine.
    let expected = span_id(SEED, JobId(0), Stage::Execute);
    assert!(
        jsonl.contains(&format!("\"id\":{expected}")),
        "seeded span id must appear in the export"
    );
    println!("  (span ids are seeded: job 0 execute = {expected} every run)");

    // ---- 5. Tracing never perturbs the metering --------------------------
    let mut untraced = build_service();
    let untraced_report = stream(&mut untraced);
    assert_eq!(
        report, untraced_report,
        "ledger and verdicts must be bit-identical with tracing on or off"
    );
    assert_eq!(
        service.metering().render(),
        untraced.metering().render(),
        "metering exposition must be byte-identical with tracing on or off"
    );
    println!(
        "\nreplayed untraced: ledger, verdicts and metering exposition are \
         byte-identical — observing the pipeline costs time, never accuracy"
    );
}
