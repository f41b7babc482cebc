//! The workload catalog: the paper's four victim programs and their
//! calibration.
//!
//! The evaluation (§V-A) uses four test programs, abbreviated O, P, W and B:
//!
//! | Key | Paper program | Simulated as |
//! |-----|---------------|--------------|
//! | `O` | a CPU-bound loop program written by the authors | pure compute loop with a hot loop-control variable |
//! | `P` | an open-source π calculator | Machin-series compute with `sqrt`/`malloc` library calls and a hot variable `y` |
//! | `W` | the netlib Whetstone benchmark | Whetstone op mix with heavy libm usage and a hot variable `T1` |
//! | `B` | an MD5 brute-force cracker | multi-threaded MD5 search (threads scheduled like processes, as on Linux) with a hot counter in `crack_len()` |
//!
//! Baseline user-time targets are calibrated to the "no attack" bars of the
//! paper's Figures 4–6 (roughly 120–220 CPU seconds on the 2.53 GHz E7200).
//! Every quantity scales linearly with the `scale` parameter so tests and CI
//! can run small instances while preserving all the ratios.

use crate::programs::{VictimProgram, VictimSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use trustmeter_kernel::Program;

/// The four victim programs of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// The authors' own CPU-bound loop program ("O").
    LoopO,
    /// The π calculator ("P").
    Pi,
    /// The Whetstone benchmark ("W").
    Whetstone,
    /// The multi-threaded MD5 brute-forcer ("B").
    Brute,
}

impl Workload {
    /// All four workloads in the order the paper's figures use (O, P, W, B).
    pub const ALL: [Workload; 4] = [
        Workload::LoopO,
        Workload::Pi,
        Workload::Whetstone,
        Workload::Brute,
    ];

    /// The one-letter label used on the figures' X axis.
    pub fn label(self) -> &'static str {
        match self {
            Workload::LoopO => "O",
            Workload::Pi => "P",
            Workload::Whetstone => "W",
            Workload::Brute => "B",
        }
    }

    /// The address of the program's hot variable (the breakpoint target of
    /// the execution-thrashing attack, §V-B4).
    pub fn hot_variable_addr(self) -> u64 {
        match self {
            Workload::LoopO => 0x6010_0010,     // loop control variable
            Workload::Pi => 0x6012_0040,        // variable y
            Workload::Whetstone => 0x6014_0080, // variable T1
            Workload::Brute => 0x6016_00c0,     // `count` in crack_len()
        }
    }

    /// Baseline parameters at `scale = 1.0`.
    fn base_spec(self) -> VictimSpec {
        match self {
            Workload::LoopO => VictimSpec {
                name: "O",
                user_secs: 120.0,
                chunk_us: 1_000.0,
                libcalls: vec![("malloc", 3_000)],
                watched_addr: self.hot_variable_addr(),
                watched_accesses: 1_000_000,
                threads: 1,
                memory_pages: 25_000,
                touch_pages_total: 1_000_000,
            },
            Workload::Pi => VictimSpec {
                name: "P",
                user_secs: 150.0,
                chunk_us: 1_000.0,
                libcalls: vec![("sqrt", 6_000), ("malloc", 1_000)],
                watched_addr: self.hot_variable_addr(),
                // The paper sets the breakpoint on a variable accessed about
                // 10^7 times.
                watched_accesses: 10_000_000,
                threads: 1,
                memory_pages: 5_000,
                touch_pages_total: 500_000,
            },
            Workload::Whetstone => VictimSpec {
                name: "W",
                user_secs: 190.0,
                chunk_us: 1_000.0,
                libcalls: vec![("sqrt", 4_000), ("sin", 2_000), ("cos", 2_000)],
                watched_addr: self.hot_variable_addr(),
                // T1 is accessed about 2 × 10^5 times.
                watched_accesses: 200_000,
                threads: 1,
                memory_pages: 10_000,
                touch_pages_total: 500_000,
            },
            Workload::Brute => VictimSpec {
                name: "B",
                user_secs: 215.0,
                chunk_us: 1_000.0,
                libcalls: vec![("malloc", 8_000)],
                watched_addr: self.hot_variable_addr(),
                // `count` is hit about 895 thousand times with
                // PER_THREAD_TRIES = 50.
                watched_accesses: 895_000,
                threads: 8,
                memory_pages: 40_000,
                touch_pages_total: 1_000_000,
            },
        }
    }

    /// The workload's parameters at the given scale.
    ///
    /// # Panics
    /// Panics if `scale` is not positive and finite.
    pub fn spec(self, scale: f64) -> VictimSpec {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        self.base_spec().scaled(scale)
    }

    /// Builds the simulated program at the given scale.
    pub fn build(self, scale: f64) -> Box<dyn Program> {
        Box::new(VictimProgram::new(self.spec(scale)))
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_order() {
        let labels: Vec<&str> = Workload::ALL.iter().map(|w| w.label()).collect();
        assert_eq!(labels, vec!["O", "P", "W", "B"]);
        assert_eq!(format!("{}", Workload::Pi), "P");
    }

    #[test]
    fn hot_variable_addresses_are_distinct() {
        let mut addrs: Vec<u64> = Workload::ALL
            .iter()
            .map(|w| w.hot_variable_addr())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 4);
    }

    #[test]
    fn spec_scales_linearly() {
        let full = Workload::Whetstone.spec(1.0);
        let half = Workload::Whetstone.spec(0.5);
        assert!((half.user_secs - full.user_secs / 2.0).abs() < 1e-9);
        assert_eq!(half.watched_accesses, full.watched_accesses / 2);
        assert_eq!(half.libcalls[0].1, full.libcalls[0].1 / 2);
        assert_eq!(half.threads, full.threads);
    }

    #[test]
    fn baselines_follow_paper_ordering() {
        // The paper's "no attack" bars are ordered O < P < W < B.
        let secs: Vec<f64> = Workload::ALL
            .iter()
            .map(|w| w.spec(1.0).user_secs)
            .collect();
        assert!(secs.windows(2).all(|w| w[0] < w[1]), "{secs:?}");
    }

    #[test]
    fn brute_is_multithreaded_and_paper_counts_kept() {
        let b = Workload::Brute.spec(1.0);
        assert!(b.threads > 1);
        assert_eq!(b.watched_accesses, 895_000);
        assert_eq!(Workload::Pi.spec(1.0).watched_accesses, 10_000_000);
        assert_eq!(Workload::Whetstone.spec(1.0).watched_accesses, 200_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = Workload::Pi.spec(0.0);
    }

    #[test]
    fn build_produces_named_program() {
        let p = Workload::Brute.build(0.01);
        assert_eq!(p.name(), "B");
    }
}
