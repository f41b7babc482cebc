//! One Criterion benchmark group per paper figure.
//!
//! Each bench runs the corresponding experiment end to end (clean runs,
//! attacked runs, series assembly) at `BENCH_SCALE`. The reported times are
//! the cost of *regenerating the figure*, and the benches double as a
//! regression harness: `cargo bench --bench figures -p trustmeter-bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use trustmeter_bench::bench_config;
use trustmeter_experiments::{
    fig10_irqflood, fig11_pfflood, fig4_shell, fig5_ctor, fig6_interpose, fig7_sched_whetstone,
    fig8_sched_brute, fig9_thrash,
};

fn bench_figures(c: &mut Criterion) {
    let cfg = bench_config();
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);

    group.bench_function("fig4_shell_attack", |b| b.iter(|| fig4_shell(&cfg)));
    group.bench_function("fig5_constructor_attack", |b| b.iter(|| fig5_ctor(&cfg)));
    group.bench_function("fig6_interposition_attack", |b| {
        b.iter(|| fig6_interpose(&cfg))
    });
    group.bench_function("fig7_scheduling_whetstone", |b| {
        b.iter(|| fig7_sched_whetstone(&cfg))
    });
    group.bench_function("fig8_scheduling_brute", |b| {
        b.iter(|| fig8_sched_brute(&cfg))
    });
    group.bench_function("fig9_thrashing", |b| b.iter(|| fig9_thrash(&cfg)));
    group.bench_function("fig10_interrupt_flood", |b| b.iter(|| fig10_irqflood(&cfg)));
    group.bench_function("fig11_exception_flood", |b| b.iter(|| fig11_pfflood(&cfg)));

    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
