//! Fleet benchmarks: the worker-count sweep over the batch path
//! (`FleetService::process`), the streaming ingest pipeline (submit →
//! fair dispatch → sequence-numbered merge), and the auditing and metrics
//! stages on top of a fixed batch.

use criterion::{criterion_group, criterion_main, Criterion};
use trustmeter_fleet::{
    AttackSpec, BackpressurePolicy, Fleet, FleetConfig, FleetIngest, FleetService, IngestConfig,
    JobSpec, Journal, SamplingPolicy, TenantId,
};
use trustmeter_workloads::Workload;

const SCALE: f64 = 0.001;

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

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);

    let jobs = batch(32);
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(&format!("process_32_jobs_{shards}_shards"), |b| {
            b.iter(|| {
                let mut service = FleetService::new(FleetConfig::new(shards, 0xf1ee7));
                service.process(&jobs).verdicts.len()
            })
        });
    }

    // The bare ingest pipeline: spawn the pool, submit the batch job by
    // job, drain, merge — the sweep above minus ledger, audit and metrics
    // posting.
    for workers in [1usize, 4] {
        group.bench_function(&format!("ingest_32_jobs_{workers}_workers"), |b| {
            b.iter(|| {
                let ingest = FleetIngest::new(
                    Fleet::new(FleetConfig::new(workers, 0xf1ee7)),
                    IngestConfig::new(workers).with_capacity(jobs.len()),
                    None,
                );
                for job in &jobs {
                    ingest.submit(job.clone()).expect("queue fits batch");
                }
                ingest.finish().records.len()
            })
        });
    }

    // Streaming through the full service: submit + pump + finish, so the
    // ledger/auditor/metrics posting path is included.
    group.bench_function("service_stream_32_jobs_4_workers", |b| {
        b.iter(|| {
            let mut service = FleetService::new(FleetConfig::new(4, 0xf1ee7));
            let config = IngestConfig::new(4)
                .with_capacity(8)
                .with_backpressure(BackpressurePolicy::Reject);
            let mut stream = service.stream(config);
            let mut posted = 0;
            for job in &jobs {
                // Load-shedding loop: on QueueFull, pump completions until
                // a slot frees up.
                while stream.submit(job.clone()).is_err() {
                    posted += stream.pump();
                    std::thread::yield_now();
                }
                posted += stream.pump();
            }
            let report = stream.finish();
            (posted, report.verdicts.len())
        })
    });

    // The durability knob: the same full-service stream with every run
    // and receipt write-ahead journaled (in-memory sink, so this measures
    // the serialization overhead without filesystem noise; the
    // trustmeter-bench binary measures the file-backed mode).
    group.bench_function("service_stream_32_jobs_4_workers_journaled", |b| {
        b.iter(|| {
            let journal = Journal::in_memory();
            let mut service =
                FleetService::new(FleetConfig::new(4, 0xf1ee7)).with_journal(journal.clone());
            let mut stream = service.stream(IngestConfig::new(4).with_capacity(jobs.len()));
            for job in &jobs {
                stream.submit(job.clone()).expect("queue fits batch");
                stream.pump();
            }
            let report = stream.finish();
            (report.verdicts.len(), journal.stats().appends)
        })
    });

    // The audit-cost knob: spot-check every 4th job instead of all of
    // them. Workers then skip 3/4 of the reference computations.
    group.bench_function("service_stream_32_jobs_4_workers_sampled_every4", |b| {
        b.iter(|| {
            let config = FleetConfig::new(4, 0xf1ee7).with_sampling(SamplingPolicy::EveryNth(4));
            let mut service = FleetService::new(config);
            let mut stream = service.stream(IngestConfig::new(4).with_capacity(jobs.len()));
            for job in &jobs {
                stream.submit(job.clone()).expect("queue fits batch");
                stream.pump();
            }
            let report = stream.finish();
            report.verdicts.len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
