//! The program model: what simulated processes execute.
//!
//! A [`Program`] is a state machine that, each time the kernel asks, yields
//! the next [`Op`] it wants to perform: user-mode computation, a library
//! call, memory accesses, or a system call. The kernel lowers each op into
//! user/kernel/exception time and side effects, drives the metering schemes
//! with the resulting events, and feeds back an [`OpOutcome`] that the
//! program can use to make decisions (e.g. a ptrace tracer reacting to its
//! tracee stopping).

use crate::signals::Signal;
use std::fmt;
use trustmeter_core::TaskId;
use trustmeter_sim::{Cycles, Nanos, SimRng};

/// A system-call request issued by a program.
pub enum SyscallOp {
    /// Create a child process running `child`.
    Fork {
        /// The program the child will run.
        child: Box<dyn Program>,
        /// Nice value for the child (inherited behaviour is expressed by
        /// passing the parent's nice).
        nice: i8,
    },
    /// Create a thread in the caller's thread group running `thread`.
    SpawnThread {
        /// The program the new thread will run.
        thread: Box<dyn Program>,
    },
    /// Wait for any child to exit or (for traced children) stop.
    Wait,
    /// Terminate the calling task.
    Exit {
        /// Exit status.
        code: i32,
    },
    /// Sleep for the given duration.
    Nanosleep {
        /// How long to sleep.
        duration: Nanos,
    },
    /// Synchronous disk read of `bytes` bytes (blocks until the disk
    /// completes and raises an interrupt owned by the caller).
    Read {
        /// Number of bytes to read.
        bytes: u64,
    },
    /// Synchronous disk write.
    Write {
        /// Number of bytes to write.
        bytes: u64,
    },
    /// Load a shared library at runtime (`dlopen`), running its
    /// constructor in the caller's context.
    Dlopen {
        /// Library name, resolved against the kernel's library registry.
        library: String,
    },
    /// Unload a shared library (`dlclose`), running its destructor.
    Dlclose {
        /// Library name.
        library: String,
    },
    /// Change the caller's nice value (requires privilege to decrease).
    SetNice {
        /// The new nice value.
        nice: i8,
    },
    /// Send a signal to another task.
    Kill {
        /// Target task.
        target: TaskId,
        /// Signal to deliver.
        signal: Signal,
    },
    /// Attach to `target` as a tracer (stops the target).
    PtraceAttach {
        /// The task to trace.
        target: TaskId,
    },
    /// Arm a hardware breakpoint (debug registers DR0/DR7) on an address in
    /// the target's address space.
    PtraceSetBreakpoint {
        /// The traced task.
        target: TaskId,
        /// The watched address.
        addr: u64,
    },
    /// Resume a stopped tracee.
    PtraceCont {
        /// The traced task.
        target: TaskId,
    },
    /// Detach from a tracee (resumes it).
    PtraceDetach {
        /// The traced task.
        target: TaskId,
    },
    /// Read the caller's own accumulated CPU usage (as reported by the
    /// kernel's commodity tick accounting — exactly what `getrusage`
    /// returns on Linux).
    Getrusage,
}

impl fmt::Debug for SyscallOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl SyscallOp {
    /// Short name of the syscall (for traces and stats).
    pub fn name(&self) -> &'static str {
        match self {
            SyscallOp::Fork { .. } => "fork",
            SyscallOp::SpawnThread { .. } => "clone",
            SyscallOp::Wait => "wait",
            SyscallOp::Exit { .. } => "exit",
            SyscallOp::Nanosleep { .. } => "nanosleep",
            SyscallOp::Read { .. } => "read",
            SyscallOp::Write { .. } => "write",
            SyscallOp::Dlopen { .. } => "dlopen",
            SyscallOp::Dlclose { .. } => "dlclose",
            SyscallOp::SetNice { .. } => "setpriority",
            SyscallOp::Kill { .. } => "kill",
            SyscallOp::PtraceAttach { .. } => "ptrace(ATTACH)",
            SyscallOp::PtraceSetBreakpoint { .. } => "ptrace(POKEUSER)",
            SyscallOp::PtraceCont { .. } => "ptrace(CONT)",
            SyscallOp::PtraceDetach { .. } => "ptrace(DETACH)",
            SyscallOp::Getrusage => "getrusage",
        }
    }
}

/// One unit of work a program asks the kernel to perform.
pub enum Op {
    /// Pure user-mode computation.
    Compute {
        /// How many cycles of computation.
        cycles: Cycles,
    },
    /// Call a shared-library function `calls` times. The per-call cost is
    /// resolved through the dynamic loader (and is inflated when the symbol
    /// is interposed by a malicious preload library).
    LibCall {
        /// Symbol name, e.g. `"malloc"` or `"sqrt"`. Static, as
        /// [`Op::Label`]'s block is: programs name a fixed set of
        /// symbols, and the kernel resolves each once per task.
        symbol: &'static str,
        /// Number of consecutive calls.
        calls: u64,
    },
    /// Touch `pages` distinct data pages (may fault depending on memory
    /// pressure).
    TouchMemory {
        /// Number of page touches.
        pages: u64,
    },
    /// Access a watched variable `count` times. If a hardware breakpoint is
    /// armed on `addr` (execution-thrashing attack), every access raises a
    /// debug exception and stops the task; otherwise the accesses cost
    /// almost nothing.
    AccessWatched {
        /// The address of the variable.
        addr: u64,
        /// Number of accesses.
        count: u64,
    },
    /// Grow the task's memory footprint by `pages` pages (used by the
    /// memory-hog attacker).
    AllocMemory {
        /// Number of pages to allocate.
        pages: u64,
    },
    /// Record a control-flow label into the task's execution witness
    /// (costless; used for the execution-integrity property).
    Label {
        /// Basic-block label.
        block: &'static str,
    },
    /// Invoke a system call.
    Syscall(SyscallOp),
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute { cycles } => write!(f, "Compute({cycles})"),
            Op::LibCall { symbol, calls } => write!(f, "LibCall({symbol} x{calls})"),
            Op::TouchMemory { pages } => write!(f, "TouchMemory({pages} pages)"),
            Op::AccessWatched { addr, count } => write!(f, "AccessWatched(0x{addr:x} x{count})"),
            Op::AllocMemory { pages } => write!(f, "AllocMemory({pages} pages)"),
            Op::Label { block } => write!(f, "Label({block})"),
            Op::Syscall(s) => write!(f, "Syscall({})", s.name()),
        }
    }
}

impl Op {
    /// Convenience constructor for a user-mode computation of `us`
    /// microseconds at the given clock frequency.
    pub fn compute_us(freq: trustmeter_sim::CpuFrequency, us: f64) -> Op {
        Op::Compute {
            cycles: freq.cycles_for(Nanos::from_secs_f64(us / 1e6)),
        }
    }

    /// Convenience constructor for [`SyscallOp::Exit`].
    pub fn exit(code: i32) -> Op {
        Op::Syscall(SyscallOp::Exit { code })
    }
}

/// The result of the previously executed op, made available to the program
/// when it is asked for its next op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpOutcome {
    /// No previous op (first call) .
    #[default]
    None,
    /// The previous op completed normally.
    Completed,
    /// `fork` created this child.
    ForkedChild(TaskId),
    /// `clone` created this thread.
    ThreadSpawned(TaskId),
    /// `wait` reaped this exited child.
    ChildExited(TaskId),
    /// `wait` observed this traced child stopping.
    ChildStopped(TaskId),
    /// `wait` found no children to wait for.
    NoChildren,
    /// `getrusage` result: user and system cycles as accounted by the
    /// kernel's own (tick-based) scheme.
    Rusage {
        /// User time in cycles.
        utime: Cycles,
        /// System time in cycles.
        stime: Cycles,
    },
    /// The previous syscall failed (e.g. ptrace on a dead task).
    Failed,
}

/// Context handed to a program when it is asked for its next op.
pub struct ProgramCtx<'a> {
    /// The task's own id.
    pub pid: TaskId,
    /// Outcome of the previously executed op.
    pub last: OpOutcome,
    /// Deterministic per-task random number generator.
    pub rng: &'a mut SimRng,
}

/// A simulated program: a generator of [`Op`]s.
///
/// Programs must be `Send` so whole scenarios can be farmed out to worker
/// threads by the experiment harness.
pub trait Program: Send {
    /// The program's name (used for reporting and per-name aggregation).
    fn name(&self) -> &str;

    /// Returns the next op to execute, or `None` when the program is done
    /// (equivalent to calling `exit(0)`).
    fn next_op(&mut self, ctx: &mut ProgramCtx<'_>) -> Option<Op>;
}

/// A program defined by a fixed list of ops (useful for tests and for
/// simple attackers).
///
/// # Example
///
/// ```
/// use trustmeter_kernel::{Op, OpsProgram, Program};
/// use trustmeter_sim::Cycles;
///
/// let prog = OpsProgram::new("three-steps", vec![
///     Op::Compute { cycles: Cycles(1_000) },
///     Op::Label { block: "middle" },
///     Op::Compute { cycles: Cycles(2_000) },
/// ]);
/// assert_eq!(prog.name(), "three-steps");
/// ```
pub struct OpsProgram {
    name: String,
    ops: std::collections::VecDeque<Op>,
}

impl OpsProgram {
    /// Creates a program that performs `ops` in order and then exits.
    pub fn new(name: impl Into<String>, ops: Vec<Op>) -> OpsProgram {
        OpsProgram {
            name: name.into(),
            ops: ops.into(),
        }
    }

    /// Creates a program that performs a single computation and exits.
    pub fn compute_only(name: impl Into<String>, cycles: Cycles) -> OpsProgram {
        OpsProgram::new(name, vec![Op::Compute { cycles }])
    }
}

impl Program for OpsProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> Option<Op> {
        self.ops.pop_front()
    }
}

/// A program that repeats a generator closure a fixed number of times.
///
/// Each iteration the closure receives the iteration index and returns the
/// ops for that iteration; iterations are flattened into the op stream.
pub struct LoopProgram<F> {
    name: String,
    iterations: u64,
    current: u64,
    buffered: std::collections::VecDeque<Op>,
    body: F,
}

impl<F> LoopProgram<F>
where
    F: FnMut(u64) -> Vec<Op> + Send,
{
    /// Creates a looping program running `body` for `iterations` rounds.
    pub fn new(name: impl Into<String>, iterations: u64, body: F) -> LoopProgram<F> {
        LoopProgram {
            name: name.into(),
            iterations,
            current: 0,
            buffered: std::collections::VecDeque::new(),
            body,
        }
    }
}

impl<F> Program for LoopProgram<F>
where
    F: FnMut(u64) -> Vec<Op> + Send,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> Option<Op> {
        loop {
            if let Some(op) = self.buffered.pop_front() {
                return Some(op);
            }
            if self.current >= self.iterations {
                return None;
            }
            let ops = (self.body)(self.current);
            self.current += 1;
            self.buffered.extend(ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustmeter_sim::CpuFrequency;

    fn ctx_with<'a>(rng: &'a mut SimRng) -> ProgramCtx<'a> {
        ProgramCtx {
            pid: TaskId(1),
            last: OpOutcome::None,
            rng,
        }
    }

    #[test]
    fn ops_program_yields_in_order_then_ends() {
        let mut rng = SimRng::seed_from(1);
        let mut p = OpsProgram::new(
            "t",
            vec![Op::Compute { cycles: Cycles(1) }, Op::Label { block: "x" }],
        );
        let mut ctx = ctx_with(&mut rng);
        assert!(matches!(p.next_op(&mut ctx), Some(Op::Compute { .. })));
        assert!(matches!(p.next_op(&mut ctx), Some(Op::Label { .. })));
        assert!(p.next_op(&mut ctx).is_none());
        assert!(p.next_op(&mut ctx).is_none());
    }

    #[test]
    fn compute_only_constructor() {
        let mut rng = SimRng::seed_from(1);
        let mut p = OpsProgram::compute_only("c", Cycles(77));
        let mut ctx = ctx_with(&mut rng);
        match p.next_op(&mut ctx) {
            Some(Op::Compute { cycles }) => assert_eq!(cycles, Cycles(77)),
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn loop_program_flattens_iterations() {
        let mut rng = SimRng::seed_from(1);
        let mut p = LoopProgram::new("loop", 3, |i| {
            vec![
                Op::Compute {
                    cycles: Cycles(i + 1),
                },
                Op::Label { block: "iter" },
            ]
        });
        let mut ctx = ctx_with(&mut rng);
        let mut computes = Vec::new();
        while let Some(op) = p.next_op(&mut ctx) {
            if let Op::Compute { cycles } = op {
                computes.push(cycles.as_u64());
            }
        }
        assert_eq!(computes, vec![1, 2, 3]);
    }

    #[test]
    fn loop_program_with_empty_body_terminates() {
        let mut rng = SimRng::seed_from(1);
        let mut p = LoopProgram::new("empty", 5, |_| Vec::new());
        let mut ctx = ctx_with(&mut rng);
        assert!(p.next_op(&mut ctx).is_none());
    }

    #[test]
    fn op_debug_and_helpers() {
        let freq = CpuFrequency::from_mhz(1000);
        let op = Op::compute_us(freq, 2.0);
        match op {
            Op::Compute { cycles } => assert_eq!(cycles, Cycles(2_000)),
            _ => panic!("wrong op"),
        }
        assert!(format!("{:?}", Op::exit(0)).contains("exit"));
        assert!(format!(
            "{:?}",
            Op::LibCall {
                symbol: "malloc",
                calls: 3
            }
        )
        .contains("malloc"));
        assert_eq!(SyscallOp::Wait.name(), "wait");
        assert_eq!(SyscallOp::Getrusage.name(), "getrusage");
    }

    #[test]
    fn outcome_default_is_none() {
        assert_eq!(OpOutcome::default(), OpOutcome::None);
    }
}
