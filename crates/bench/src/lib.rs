//! # trustmeter-bench
//!
//! Criterion benchmark harness for the trustmeter workspace. The benches
//! live under `benches/`:
//!
//! * `figures` — one benchmark group per paper figure (Figs. 4–11), running
//!   the corresponding experiment at a small scale so the full suite stays
//!   fast while preserving every ratio.
//! * `ablations` — the HZ sweep, scheduler choice and flood-rate sweep
//!   studies plus the §V-C comparison and §VI-B defense replays.
//! * `substrate` — microbenchmarks of the building blocks (event queue,
//!   SHA-256, MD5, accounting schemes, a whole small kernel run) so
//!   performance regressions in the simulator itself are visible.
//!
//! This library crate only exposes the shared configuration helpers used by
//! those benches. The fleet service is measured by `fleetbench` instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use trustmeter_experiments::ExperimentConfig;

/// The workload scale used by the figure benches. Small enough that one
/// iteration takes well under a second, large enough that every attack still
/// produces a measurable effect.
pub const BENCH_SCALE: f64 = 0.001;

/// The experiment configuration shared by the benches.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: BENCH_SCALE,
        seed: 0xbe_c4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_small_scale() {
        let cfg = bench_config();
        assert!(cfg.scale <= 0.01);
        assert!(cfg.scale > 0.0);
    }
}
