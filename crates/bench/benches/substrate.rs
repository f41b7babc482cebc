//! Microbenchmarks of the simulation substrate: if these regress, every
//! figure regeneration gets slower.
//!
//! The two `kernel_*` cases time whole scenarios: `kernel_closed_mix` is
//! the per-op cost (the 32 kernel runs of one block of fleetbench's
//! closed-loop mix), `kernel_scheduling_attack` the fork-heavy cost
//! (Brute under the scheduling attack, about 4,200 short-lived tasks).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use trustmeter_attacks::{
    Attack, InterpositionAttack, PreloadConstructorAttack, SchedulingAttack, ShellAttack,
};
use trustmeter_core::{
    MeterEvent, MeteringScheme, Mode, Sha256, TaskId, TickAccounting, TscAccounting,
};
use trustmeter_experiments::Scenario;
use trustmeter_kernel::{Kernel, KernelConfig, OpsProgram};
use trustmeter_sim::{Cycles, EventQueue, SimRng};
use trustmeter_workloads::native::{md5, pi, whetstone};
use trustmeter_workloads::Workload;

/// One block of the closed-loop mix: every (tenant, workload, scale) once,
/// the job whose tenant index equals its workload index attacked at one
/// scale, rotating through the cheap code-injection attacks.
fn closed_mix_block() -> Vec<(Scenario, Option<Box<dyn Attack>>)> {
    let mut block = Vec::with_capacity(32);
    let mut attacks = 0usize;
    for tenant in 0..4 {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for (s, scale) in [0.001, 0.01].into_iter().enumerate() {
                let seed = block.len() as u64;
                let scenario = Scenario::new(workload, scale)
                    .with_config(KernelConfig::paper_machine().with_seed(seed));
                let attack: Option<Box<dyn Attack>> = (tenant == w && s == w % 2).then(|| {
                    attacks += 1;
                    match attacks % 3 {
                        1 => Box::new(ShellAttack::paper_default(scale)) as Box<dyn Attack>,
                        2 => Box::new(PreloadConstructorAttack::paper_default(scale)),
                        _ => Box::new(InterpositionAttack::paper_default(scale)),
                    }
                });
                block.push((scenario, attack));
            }
        }
    }
    block
}

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.sample_size(20);

    group.bench_function("event_queue_10k", |b| {
        b.iter_batched(
            || {
                let mut rng = SimRng::seed_from(1);
                (0..10_000u64)
                    .map(|_| Cycles(rng.next_u64() % 1_000_000))
                    .collect::<Vec<_>>()
            },
            |times| {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.schedule(*t, i);
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("sha256_64KiB", |b| {
        let data = vec![0xabu8; 64 * 1024];
        b.iter(|| Sha256::digest(&data))
    });

    group.bench_function("md5_brute_2_chars", |b| {
        let target = md5::digest(b"zz");
        b.iter(|| md5::brute_force(&target, 2))
    });

    group.bench_function("pi_spigot_100_digits", |b| {
        b.iter(|| pi::spigot_digits(100))
    });

    group.bench_function("whetstone_10_loops", |b| b.iter(|| whetstone::run(10)));

    group.bench_function("accounting_100k_ticks", |b| {
        b.iter(|| {
            let mut acct = TickAccounting::new(Cycles(1_000));
            let mut tsc = TscAccounting::new();
            for i in 0..100_000u64 {
                let ev = MeterEvent::TimerTick {
                    at: Cycles(i * 1_000),
                    task: Some(TaskId((i % 4) as u32 + 1)),
                    mode: if i % 3 == 0 { Mode::Kernel } else { Mode::User },
                };
                acct.on_event(&ev);
                tsc.on_event(&ev);
            }
            (acct.usages().len(), tsc.usages().len())
        })
    });

    group.bench_function("kernel_run_two_tasks_50ms_each", |b| {
        b.iter(|| {
            let cfg = KernelConfig::paper_machine();
            let work = cfg
                .frequency
                .cycles_for(trustmeter_sim::Nanos::from_millis(50));
            let mut k = Kernel::new(cfg);
            k.spawn_process(Box::new(OpsProgram::compute_only("a", work)), 0);
            k.spawn_process(Box::new(OpsProgram::compute_only("b", work)), -5);
            k.run().stats.ticks
        })
    });

    group.bench_function("kernel_closed_mix", |b| {
        let block = closed_mix_block();
        b.iter(|| {
            block
                .iter()
                .map(|(scenario, attack)| match attack {
                    None => scenario.run_clean().stats.ticks,
                    Some(attack) => scenario.run_attacked(attack.as_ref()).stats.ticks,
                })
                .sum::<u64>()
        })
    });

    group.bench_function("kernel_scheduling_attack", |b| {
        let scenario = Scenario::new(Workload::Brute, 0.002);
        let attack = SchedulingAttack::paper_default(0.002, -10);
        b.iter(|| scenario.run_attacked(&attack).stats.tasks_created)
    });

    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
