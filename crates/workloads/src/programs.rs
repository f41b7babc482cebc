//! The simulated victim programs.
//!
//! A [`VictimProgram`] turns a [`VictimSpec`] into the op stream the
//! simulated kernel executes: an optional memory-allocation phase, worker
//! threads (for the multi-threaded Brute program), and a main loop of
//! compute chunks interleaved with shared-library calls, hot-variable
//! accesses (the thrashing attack's breakpoint target) and working-set
//! touches (the exception-flooding attack's amplifier).

use trustmeter_kernel::{Op, OpOutcome, Program, ProgramCtx, SyscallOp};
use trustmeter_sim::{CpuFrequency, Cycles, Nanos};

/// Parameters describing one victim program.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimSpec {
    /// Program name (the figure label: "O", "P", "W" or "B").
    pub name: &'static str,
    /// Total user-mode computation across the whole thread group, in CPU
    /// seconds at the paper machine's clock.
    pub user_secs: f64,
    /// Size of one compute chunk in microseconds (the granularity at which
    /// the program can be preempted between ops).
    pub chunk_us: f64,
    /// Shared-library calls: `(symbol, total calls)` over the whole run.
    pub libcalls: Vec<(&'static str, u64)>,
    /// Address of the hot variable (thrashing-attack breakpoint target).
    pub watched_addr: u64,
    /// Total number of accesses to the hot variable.
    pub watched_accesses: u64,
    /// Number of threads (1 = single-threaded).
    pub threads: u32,
    /// Working-set size in pages, allocated at startup.
    pub memory_pages: u64,
    /// Total page touches over the run (spread across chunks).
    pub touch_pages_total: u64,
}

impl VictimSpec {
    /// Returns a copy with every linear quantity multiplied by `scale`.
    pub fn scaled(mut self, scale: f64) -> VictimSpec {
        self.user_secs *= scale;
        self.watched_accesses = (self.watched_accesses as f64 * scale).round() as u64;
        self.touch_pages_total = (self.touch_pages_total as f64 * scale).round() as u64;
        for (_, calls) in &mut self.libcalls {
            *calls = (*calls as f64 * scale).round() as u64;
        }
        self
    }

    /// The number of compute chunks the main thread executes.
    pub fn main_chunks(&self) -> u64 {
        let per_thread_secs = self.user_secs / self.threads as f64;
        ((per_thread_secs * 1e6 / self.chunk_us).round() as u64).max(1)
    }
}

/// Phase of the victim program's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Alloc,
    SpawnThreads { spawned: u32 },
    Main { chunk: u64, sub: u8 },
    WaitThreads { reaped: u32 },
    Done,
}

/// The simulated victim program.
///
/// # Example
///
/// ```
/// use trustmeter_workloads::Workload;
/// use trustmeter_kernel::{Kernel, KernelConfig};
///
/// let mut kernel = Kernel::new(KernelConfig::paper_machine());
/// let pid = kernel.spawn_process(Workload::LoopO.build(0.001), 0);
/// let result = kernel.run();
/// assert!(result.process(pid).unwrap().ground_truth().total().as_u64() > 0);
/// ```
pub struct VictimProgram {
    spec: VictimSpec,
    phase: Phase,
    chunk_cycles: Cycles,
    chunks: u64,
    libcall_schedule: Vec<(&'static str, u64)>,
    watched_per_chunk: u64,
    watched_remainder: u64,
    touches_per_chunk: u64,
}

impl VictimProgram {
    /// Creates the program from its spec (costs expressed at the paper
    /// machine's clock frequency).
    pub fn new(spec: VictimSpec) -> VictimProgram {
        VictimProgram::with_frequency(spec, CpuFrequency::E7200)
    }

    /// Creates the program with an explicit CPU frequency for cost
    /// conversion.
    pub fn with_frequency(spec: VictimSpec, freq: CpuFrequency) -> VictimProgram {
        let chunk_cycles = freq.cycles_for(Nanos::from_secs_f64(spec.chunk_us / 1e6));
        let chunks = spec.main_chunks();
        let libcall_schedule: Vec<(&'static str, u64)> = spec
            .libcalls
            .iter()
            .map(|&(sym, total)| (sym, (total / chunks).max(if total > 0 { 1 } else { 0 })))
            .collect();
        let watched_per_chunk = spec.watched_accesses / chunks;
        let watched_remainder = spec.watched_accesses % chunks;
        let touches_per_chunk = spec.touch_pages_total / chunks;
        VictimProgram {
            phase: Phase::Alloc,

            chunk_cycles,
            chunks,
            libcall_schedule,
            watched_per_chunk,
            watched_remainder,
            touches_per_chunk,
            spec,
        }
    }

    /// The spec this program was built from.
    pub fn spec(&self) -> &VictimSpec {
        &self.spec
    }

    fn worker(&self) -> WorkerProgram {
        WorkerProgram {
            name: self.spec.name,
            chunks_left: self.chunks,
            chunk_cycles: self.chunk_cycles,
            libcalls: self.libcall_schedule.clone(),
            touches_per_chunk: self.touches_per_chunk,
            sub: 0,
        }
    }
}

impl Program for VictimProgram {
    fn name(&self) -> &str {
        self.spec.name
    }

    fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> Option<Op> {
        loop {
            match self.phase {
                Phase::Alloc => {
                    self.phase = Phase::SpawnThreads { spawned: 0 };
                    if self.spec.memory_pages > 0 {
                        return Some(Op::AllocMemory {
                            pages: self.spec.memory_pages,
                        });
                    }
                }
                Phase::SpawnThreads { spawned } => {
                    if spawned + 1 < self.spec.threads {
                        self.phase = Phase::SpawnThreads {
                            spawned: spawned + 1,
                        };
                        return Some(Op::Syscall(SyscallOp::SpawnThread {
                            thread: Box::new(self.worker()),
                        }));
                    }
                    self.phase = Phase::Main { chunk: 0, sub: 0 };
                }
                Phase::Main { chunk, sub } => {
                    if chunk >= self.chunks {
                        self.phase = Phase::WaitThreads { reaped: 0 };
                        continue;
                    }
                    match sub {
                        0 => {
                            self.phase = Phase::Main { chunk, sub: 1 };
                            return Some(Op::Compute {
                                cycles: self.chunk_cycles,
                            });
                        }
                        s if (s as usize) <= self.libcall_schedule.len() => {
                            self.phase = Phase::Main {
                                chunk,
                                sub: sub + 1,
                            };
                            let (symbol, calls) = self.libcall_schedule[s as usize - 1];
                            if calls > 0 {
                                return Some(Op::LibCall { symbol, calls });
                            }
                        }
                        s if s as usize == self.libcall_schedule.len() + 1 => {
                            self.phase = Phase::Main {
                                chunk,
                                sub: sub + 1,
                            };
                            let mut count = self.watched_per_chunk;
                            if chunk < self.watched_remainder {
                                count += 1;
                            }
                            if count > 0 {
                                return Some(Op::AccessWatched {
                                    addr: self.spec.watched_addr,
                                    count,
                                });
                            }
                        }
                        _ => {
                            self.phase = Phase::Main {
                                chunk: chunk + 1,
                                sub: 0,
                            };
                            if self.touches_per_chunk > 0 {
                                return Some(Op::TouchMemory {
                                    pages: self.touches_per_chunk,
                                });
                            }
                        }
                    }
                }
                Phase::WaitThreads { reaped } => {
                    if reaped + 1 < self.spec.threads {
                        self.phase = Phase::WaitThreads { reaped: reaped + 1 };
                        return Some(Op::Syscall(SyscallOp::Wait));
                    }
                    self.phase = Phase::Done;
                }
                Phase::Done => return None,
            }
        }
    }
}

/// A worker thread of a multi-threaded victim (Brute's searcher threads).
pub struct WorkerProgram {
    name: &'static str,
    chunks_left: u64,
    chunk_cycles: Cycles,
    libcalls: Vec<(&'static str, u64)>,
    touches_per_chunk: u64,
    sub: u8,
}

impl Program for WorkerProgram {
    fn name(&self) -> &str {
        self.name
    }

    fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> Option<Op> {
        loop {
            if self.chunks_left == 0 {
                return None;
            }
            match self.sub {
                0 => {
                    self.sub = 1;
                    return Some(Op::Compute {
                        cycles: self.chunk_cycles,
                    });
                }
                s if (s as usize) <= self.libcalls.len() => {
                    self.sub += 1;
                    let (symbol, calls) = self.libcalls[s as usize - 1];
                    if calls > 0 {
                        return Some(Op::LibCall { symbol, calls });
                    }
                }
                _ => {
                    self.sub = 0;
                    self.chunks_left -= 1;
                    if self.touches_per_chunk > 0 {
                        return Some(Op::TouchMemory {
                            pages: self.touches_per_chunk,
                        });
                    }
                }
            }
        }
    }
}

/// A convenience program used by examples: computes π digits' cost as pure
/// compute, then exits. Unlike [`VictimProgram`] it takes an explicit amount
/// of work, which makes it handy for calibration tests.
pub struct FixedComputeProgram {
    name: String,
    remaining_chunks: u64,
    chunk: Cycles,
}

impl FixedComputeProgram {
    /// A program that computes for `secs` CPU seconds in 1 ms chunks.
    pub fn seconds(name: impl Into<String>, secs: f64, freq: CpuFrequency) -> FixedComputeProgram {
        let chunk = freq.cycles_for(Nanos::from_millis(1));
        let remaining_chunks = (secs * 1_000.0).round().max(1.0) as u64;
        FixedComputeProgram {
            name: name.into(),
            remaining_chunks,
            chunk,
        }
    }
}

impl Program for FixedComputeProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_op(&mut self, ctx: &mut ProgramCtx<'_>) -> Option<Op> {
        let _ = &ctx.last;
        if self.remaining_chunks == 0 {
            return None;
        }
        self.remaining_chunks -= 1;
        Some(Op::Compute { cycles: self.chunk })
    }
}

/// Returns `true` if the outcome indicates a completed wait on a child.
pub fn is_child_event(outcome: OpOutcome) -> bool {
    matches!(
        outcome,
        OpOutcome::ChildExited(_) | OpOutcome::ChildStopped(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Workload;
    use trustmeter_core::SchemeKind;
    use trustmeter_kernel::{Kernel, KernelConfig};
    use trustmeter_sim::SimRng;

    fn drain_ops(program: &mut dyn Program, limit: usize) -> Vec<String> {
        let mut rng = SimRng::seed_from(3);
        let mut out = Vec::new();
        for _ in 0..limit {
            let mut ctx = ProgramCtx {
                pid: trustmeter_core::TaskId(1),
                last: OpOutcome::Completed,
                rng: &mut rng,
            };
            match program.next_op(&mut ctx) {
                Some(op) => out.push(format!("{op:?}")),
                None => break,
            }
        }
        out
    }

    #[test]
    fn spec_scaling_and_chunks() {
        let spec = Workload::Whetstone.spec(0.01);
        assert!(spec.main_chunks() >= 1);
        let spec2 = spec.clone().scaled(2.0);
        assert!((spec2.user_secs - spec.user_secs * 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_threaded_victim_emits_expected_op_mix() {
        let mut prog = VictimProgram::new(Workload::Pi.spec(0.001));
        let ops = drain_ops(&mut prog, 100_000);
        assert!(ops.iter().any(|o| o.contains("AllocMemory")));
        assert!(ops.iter().any(|o| o.contains("Compute")));
        assert!(ops.iter().any(|o| o.contains("LibCall(sqrt")));
        assert!(ops.iter().any(|o| o.contains("AccessWatched")));
        assert!(ops.iter().any(|o| o.contains("TouchMemory")));
        // Single-threaded: no clone/wait.
        assert!(!ops.iter().any(|o| o.contains("clone")));
    }

    #[test]
    fn brute_spawns_and_waits_for_threads() {
        let mut prog = VictimProgram::new(Workload::Brute.spec(0.0005));
        let ops = drain_ops(&mut prog, 500_000);
        let spawns = ops.iter().filter(|o| o.contains("clone")).count();
        let waits = ops.iter().filter(|o| o.contains("Syscall(wait)")).count();
        assert_eq!(spawns, 7); // 8 threads = leader + 7 spawned
        assert_eq!(waits, 7);
    }

    #[test]
    fn watched_access_total_matches_spec() {
        let spec = Workload::Whetstone.spec(0.01);
        let expected = spec.watched_accesses;
        let mut prog = VictimProgram::new(spec);
        let mut rng = SimRng::seed_from(3);
        let mut total = 0u64;
        loop {
            let mut ctx = ProgramCtx {
                pid: trustmeter_core::TaskId(1),
                last: OpOutcome::Completed,
                rng: &mut rng,
            };
            match prog.next_op(&mut ctx) {
                Some(Op::AccessWatched { count, .. }) => total += count,
                Some(_) => {}
                None => break,
            }
        }
        assert_eq!(total, expected);
    }

    #[test]
    fn victims_run_to_completion_in_the_kernel() {
        for w in Workload::ALL {
            let mut kernel = Kernel::new(KernelConfig::paper_machine());
            let pid = kernel.spawn_process(w.build(0.002), 0);
            let result = kernel.run();
            assert!(!result.hit_horizon, "{w} hit the horizon");
            let p = result.process(pid).unwrap();
            assert!(p.ground_truth().total().as_u64() > 0, "{w} consumed no CPU");
            // Billed and ground truth agree within a few percent when there
            // is no attack and no competing load.
            let billed = p.usage(SchemeKind::Tick).total().as_f64();
            let truth = p.usage(SchemeKind::Tsc).total().as_f64();
            let rel = (billed - truth).abs() / truth;
            assert!(rel < 0.1, "{w}: billed {billed} vs truth {truth}");
        }
    }

    #[test]
    fn brute_usage_covers_all_threads() {
        let mut kernel = Kernel::new(KernelConfig::paper_machine());
        let spec = Workload::Brute.spec(0.002);
        let expected_secs = spec.user_secs;
        let pid = kernel.spawn_process(Box::new(VictimProgram::new(spec)), 0);
        let result = kernel.run();
        let p = result.process(pid).unwrap();
        assert_eq!(p.threads, 8);
        let truth_secs = p.ground_truth().total_secs(result.frequency);
        assert!(
            truth_secs >= expected_secs * 0.9,
            "group usage {truth_secs} should cover ~{expected_secs}"
        );
    }

    #[test]
    fn fixed_compute_program_emits_requested_work() {
        let freq = CpuFrequency::E7200;
        let mut prog = FixedComputeProgram::seconds("calib", 0.01, freq);
        let ops = drain_ops(&mut prog, 1_000);
        assert_eq!(ops.len(), 10); // 10 chunks of 1 ms
    }

    #[test]
    fn child_event_helper() {
        assert!(is_child_event(OpOutcome::ChildExited(
            trustmeter_core::TaskId(3)
        )));
        assert!(is_child_event(OpOutcome::ChildStopped(
            trustmeter_core::TaskId(3)
        )));
        assert!(!is_child_event(OpOutcome::Completed));
    }
}
