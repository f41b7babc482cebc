//! Task (process/thread) control blocks.
//!
//! A [`Task`] is the kernel's bookkeeping for one schedulable entity.
//! Threads are tasks that share a thread-group id with their spawner,
//! mirroring Linux where threads are scheduled exactly like processes — the
//! detail responsible for the Brute anomaly in the paper's Fig. 8.

use crate::loader::LibraryRegistry;
use crate::program::{Op, OpOutcome, Program};
use crate::signals::Signal;
use std::collections::VecDeque;
use std::fmt;
use trustmeter_core::{
    Digest, ExceptionKind, ExecutionWitness, ImageKind, MeasuredImage, MeasurementLog, Mode, TaskId,
};
use trustmeter_sim::{Cycles, SimRng};

/// Why a task is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Blocked in `wait()` for a child to exit or stop.
    WaitChild,
    /// Blocked on a disk request.
    DiskIo,
    /// Sleeping in `nanosleep()`.
    Sleep,
}

/// The scheduling state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Runnable, waiting for the CPU.
    Ready,
    /// Currently executing on the CPU.
    Running,
    /// Blocked waiting for an event.
    Blocked(BlockReason),
    /// Stopped by `SIGSTOP`/ptrace; only `SIGCONT`/`PTRACE_CONT` resumes it.
    Stopped,
    /// Exited but not yet reaped by its parent.
    Zombie,
    /// Fully torn down.
    Dead,
}

impl TaskState {
    /// Whether the task can still consume CPU in the future.
    pub fn is_alive(self) -> bool {
        !matches!(self, TaskState::Zombie | TaskState::Dead)
    }

    /// Whether the task is on a run queue.
    pub fn is_runnable(self) -> bool {
        matches!(self, TaskState::Ready | TaskState::Running)
    }
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskState::Ready => "ready",
            TaskState::Running => "running",
            TaskState::Blocked(BlockReason::WaitChild) => "blocked(wait)",
            TaskState::Blocked(BlockReason::DiskIo) => "blocked(io)",
            TaskState::Blocked(BlockReason::Sleep) => "blocked(sleep)",
            TaskState::Stopped => "stopped",
            TaskState::Zombie => "zombie",
            TaskState::Dead => "dead",
        };
        f.write_str(s)
    }
}

/// Memory bookkeeping for one task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskMem {
    /// Pages the task has allocated (its footprint).
    pub allocated_pages: u64,
    /// Pages currently resident in physical memory.
    pub resident_pages: u64,
}

/// A micro-operation: the kernel-internal lowering of an [`Op`].
///
/// Each op turns into a short queue of micro-ops; the run loop executes the
/// front micro-op of the current task, splitting time-consuming micro-ops at
/// event boundaries (timer ticks, interrupts).
pub(crate) enum Micro {
    /// User-mode execution.
    User { remaining: Cycles },
    /// Kernel-mode execution on behalf of the task (syscall service,
    /// signal delivery, context-switch cost).
    Kernel { remaining: Cycles },
    /// Kernel-mode execution wrapped in exception-enter/exit events.
    Exception {
        kind: ExceptionKind,
        remaining: Cycles,
        entered: bool,
    },
    /// Apply a syscall's side effect (fork, block, arm breakpoint, ...).
    /// Effects are instantaneous; their service time is modelled by the
    /// preceding `Kernel` micro-op.
    Effect(Effect),
    /// Check a watched-address access against the task's armed breakpoint;
    /// expands into a debug exception + trap stop when armed.
    WatchedAccess { addr: u64, count_left: u64 },
}

impl fmt::Debug for Micro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Micro::User { remaining } => write!(f, "User({remaining})"),
            Micro::Kernel { remaining } => write!(f, "Kernel({remaining})"),
            Micro::Exception {
                kind, remaining, ..
            } => write!(f, "Exception({kind}, {remaining})"),
            Micro::Effect(e) => write!(f, "Effect({e:?})"),
            Micro::WatchedAccess { addr, count_left } => {
                write!(f, "WatchedAccess(0x{addr:x}, {count_left} left)")
            }
        }
    }
}

/// Instantaneous kernel side effects produced by syscalls and traps.
pub(crate) enum Effect {
    Fork {
        child: Box<dyn Program>,
        nice: i8,
    },
    SpawnThread {
        thread: Box<dyn Program>,
    },
    Wait,
    Exit {
        code: i32,
    },
    Sleep {
        duration: Cycles,
    },
    DiskRequest {
        bytes: u64,
    },
    Dlopen {
        library: String,
    },
    Dlclose {
        library: String,
    },
    SetNice {
        nice: i8,
    },
    Kill {
        target: TaskId,
        signal: Signal,
    },
    PtraceAttach {
        target: TaskId,
    },
    PtraceSetBreakpoint {
        target: TaskId,
        addr: u64,
    },
    PtraceCont {
        target: TaskId,
    },
    PtraceDetach {
        target: TaskId,
    },
    Getrusage,
    /// The current task hit an armed breakpoint: stop it and notify the
    /// tracer.
    TrapStop,
}

impl fmt::Debug for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Effect::Fork { .. } => "fork",
            Effect::SpawnThread { .. } => "spawn-thread",
            Effect::Wait => "wait",
            Effect::Exit { .. } => "exit",
            Effect::Sleep { .. } => "sleep",
            Effect::DiskRequest { .. } => "disk-request",
            Effect::Dlopen { .. } => "dlopen",
            Effect::Dlclose { .. } => "dlclose",
            Effect::SetNice { .. } => "set-nice",
            Effect::Kill { .. } => "kill",
            Effect::PtraceAttach { .. } => "ptrace-attach",
            Effect::PtraceSetBreakpoint { .. } => "ptrace-breakpoint",
            Effect::PtraceCont { .. } => "ptrace-cont",
            Effect::PtraceDetach { .. } => "ptrace-detach",
            Effect::Getrusage => "getrusage",
            Effect::TrapStop => "trap-stop",
        };
        f.write_str(s)
    }
}

/// The kernel's task table: a slab indexed by pid.
///
/// Pids are allocated densely from 1 and tasks are never removed (exited
/// tasks are retained for end-of-run accounting), so `TaskId(p)` lives at
/// slot `p - 1` and every lookup is a single bounds-checked array index.
/// This is the hottest structure in the simulator — the run loop touches
/// it several times per micro-op — which is why it is a slab and not a
/// `BTreeMap`.
#[derive(Default)]
pub(crate) struct TaskTable {
    slots: Vec<Task>,
}

impl TaskTable {
    /// An empty table.
    pub(crate) fn new() -> TaskTable {
        TaskTable { slots: Vec::new() }
    }

    /// The task with id `id`, if it has ever been admitted.
    #[inline]
    pub(crate) fn get(&self, id: TaskId) -> Option<&Task> {
        self.slots.get((id.0 as usize).wrapping_sub(1))
    }

    /// Mutable access to the task with id `id`.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.slots.get_mut((id.0 as usize).wrapping_sub(1))
    }

    /// Admits a task. Ids must arrive densely (the kernel's pid allocator
    /// guarantees this); the slab slot is the pid minus one.
    pub(crate) fn insert(&mut self, task: Task) {
        debug_assert_eq!(
            task.id.0 as usize,
            self.slots.len() + 1,
            "pids must be allocated densely from 1"
        );
        self.slots.push(task);
    }

    /// Number of tasks ever admitted.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Iterates every task in pid order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.slots.iter()
    }
}

/// Per-task state keyed by pid, for the subsystems that forget a task
/// when it exits (the schedulers and the memory manager).
///
/// Entries are stored densely and `index[pid]` holds an entry's position
/// plus one (zero when absent), so the index grows to the largest pid
/// inserted — the kernel allocates pids densely from 1. A removal moves
/// the last entry into the hole. A lookup — the scheduler's `charge` runs
/// one per time-consuming micro-op — is two array indexings, and a scan
/// touches only the tasks present, however many pids the run has
/// allocated (a fork-heavy attack creates thousands of short-lived
/// tasks). Scans visit entries in no particular order, so every consumer
/// must break ties on the pid.
#[derive(Debug)]
pub(crate) struct PidSlab<T> {
    entries: Vec<(TaskId, T)>,
    index: Vec<u32>,
}

impl<T> Default for PidSlab<T> {
    fn default() -> Self {
        PidSlab {
            entries: Vec::new(),
            index: Vec::new(),
        }
    }
}

impl<T> PidSlab<T> {
    fn position(&self, id: TaskId) -> Option<usize> {
        let slot = *self.index.get(id.0 as usize)?;
        (slot as usize).checked_sub(1)
    }

    /// The entry for `id`, if present.
    #[inline]
    pub(crate) fn get(&self, id: TaskId) -> Option<&T> {
        self.position(id).map(|at| &self.entries[at].1)
    }

    /// Mutable access to the entry for `id`, if present.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: TaskId) -> Option<&mut T> {
        self.position(id).map(|at| &mut self.entries[at].1)
    }

    /// Whether `id` has an entry.
    pub(crate) fn contains(&self, id: TaskId) -> bool {
        self.position(id).is_some()
    }

    /// Inserts or replaces the entry for `id`.
    pub(crate) fn insert(&mut self, id: TaskId, value: T) {
        if let Some(slot) = self.get_mut(id) {
            *slot = value;
            return;
        }
        let pid = id.0 as usize;
        if self.index.len() <= pid {
            self.index.resize(pid + 1, 0);
        }
        self.entries.push((id, value));
        self.index[pid] = self.entries.len() as u32;
    }

    /// Removes and returns the entry for `id`.
    pub(crate) fn remove(&mut self, id: TaskId) -> Option<T> {
        let at = self.position(id)?;
        self.index[id.0 as usize] = 0;
        let (_, value) = self.entries.swap_remove(at);
        if let Some((moved, _)) = self.entries.get(at) {
            self.index[moved.0 as usize] = at as u32 + 1;
        }
        Some(value)
    }

    /// Every entry present, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TaskId, &T)> {
        self.entries.iter().map(|(id, value)| (*id, value))
    }

    /// Every value present, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, value)| value)
    }

    /// Mutable access to every value present, in no particular order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut().map(|(_, value)| value)
    }
}

/// A library symbol as one task calls it: its per-call cost under the
/// task's `LD_PRELOAD` and its `call:<symbol>` witness step.
///
/// Resolution is fixed for a task's whole life: its preload list is set at
/// spawn, the registry cannot change while the kernel runs (installing a
/// library needs `&mut Kernel`), and `dlopen` never changes what
/// [`LibraryRegistry::resolve`] returns. So each (task, symbol) pair is
/// resolved — and, when interposed, measured — on its first call only.
pub(crate) struct ResolvedSymbol {
    symbol: &'static str,
    per_call: Cycles,
    step: Digest,
}

/// The task control block.
pub struct Task {
    /// Task id (unique).
    pub id: TaskId,
    /// Thread-group id; equals `id` for a process leader, the spawner's
    /// `tgid` for threads.
    pub tgid: TaskId,
    /// Parent task id (`None` for the initial task).
    pub parent: Option<TaskId>,
    /// Program name (for reporting).
    pub name: String,
    /// Nice value (−20 … 19, lower = higher priority).
    pub nice: i8,
    /// Scheduling state.
    pub state: TaskState,
    /// Current privilege mode (what the task will resume in).
    pub mode: Mode,
    /// The program the task executes (`None` once exited).
    pub(crate) program: Option<Box<dyn Program>>,
    /// Pending micro-ops lowered from the current op.
    pub(crate) micros: VecDeque<Micro>,
    /// Outcome delivered to the program at the next `next_op` call.
    pub(crate) last_outcome: OpOutcome,
    /// Deterministic per-task RNG.
    pub(crate) rng: SimRng,
    /// Memory bookkeeping.
    pub mem: TaskMem,
    /// Ids of live children.
    pub children: Vec<TaskId>,
    /// Tracer attached via ptrace, if any.
    pub traced_by: Option<TaskId>,
    /// Armed hardware-breakpoint address (DR0), if any.
    pub breakpoint: Option<u64>,
    /// Exit status (valid once `Zombie`/`Dead`).
    pub exit_code: Option<i32>,
    /// Measurement log for source integrity (measured launch).
    pub measurements: MeasurementLog,
    /// Execution witness for execution integrity.
    pub witness: ExecutionWitness,
    /// Number of ops fetched from the program (op-level progress counter).
    pub ops_executed: u64,
    /// Number of voluntary context switches (blocks).
    pub voluntary_switches: u64,
    /// Number of times this task was preempted.
    pub involuntary_switches: u64,
    /// Environment: libraries to preload at execve (the `LD_PRELOAD`
    /// attack vector).
    pub ld_preload: Vec<String>,
    /// Library symbols this task has called, resolved once each.
    pub(crate) symbols: Vec<ResolvedSymbol>,
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("tgid", &self.tgid)
            .field("name", &self.name)
            .field("nice", &self.nice)
            .field("state", &self.state)
            .field("mode", &self.mode)
            .field("ops_executed", &self.ops_executed)
            .finish()
    }
}

impl Task {
    /// Creates a new task control block.
    pub(crate) fn new(
        id: TaskId,
        tgid: TaskId,
        parent: Option<TaskId>,
        nice: i8,
        program: Box<dyn Program>,
        rng: SimRng,
    ) -> Task {
        let name = program.name().to_string();
        Task {
            id,
            tgid,
            parent,
            name,
            nice,
            state: TaskState::Ready,
            mode: Mode::User,
            program: Some(program),
            micros: VecDeque::new(),
            last_outcome: OpOutcome::None,
            rng,
            mem: TaskMem::default(),
            children: Vec::new(),
            traced_by: None,
            breakpoint: None,
            exit_code: None,
            measurements: MeasurementLog::new(),
            witness: ExecutionWitness::new(),
            ops_executed: 0,
            voluntary_switches: 0,
            involuntary_switches: 0,
            ld_preload: Vec::new(),
            symbols: Vec::new(),
        }
    }

    /// Whether this task is a thread (shares a thread group with another
    /// task) rather than a thread-group leader.
    pub fn is_thread(&self) -> bool {
        self.id != self.tgid
    }

    /// Whether the task still has micro-ops or program ops to run.
    pub fn has_pending_work(&self) -> bool {
        !self.micros.is_empty() || self.program.is_some()
    }

    /// Pushes a micro-op to the front of the queue (used for signal
    /// delivery costs that must run before whatever the task was doing).
    pub(crate) fn push_front_micro(&mut self, micro: Micro) {
        self.micros.push_front(micro);
    }

    /// Appends a user-mode computation to the micro queue (used by the
    /// loader to inject constructor/destructor work).
    pub(crate) fn push_user_work(&mut self, cycles: Cycles) {
        if !cycles.is_zero() {
            self.micros.push_back(Micro::User { remaining: cycles });
        }
    }

    /// The per-call cost and witness step of a call to `symbol`. The first
    /// call resolves it through `libs` under this task's `LD_PRELOAD` and,
    /// when a preloaded library interposes it, measures the interposed
    /// symbol into the task's log.
    pub(crate) fn resolve_symbol(
        &mut self,
        libs: &LibraryRegistry,
        symbol: &'static str,
    ) -> (Cycles, Digest) {
        if let Some(known) = self.symbols.iter().find(|s| s.symbol == symbol) {
            return (known.per_call, known.step);
        }
        let (per_call, provider) = libs.resolve(symbol, &self.ld_preload);
        if self.ld_preload.contains(&provider) {
            self.measurements.measure(MeasuredImage::new(
                format!("{provider}:{symbol}"),
                ImageKind::InterposedSymbol,
            ));
        }
        let step = Digest::of(format!("call:{symbol}").as_bytes());
        self.symbols.push(ResolvedSymbol {
            symbol,
            per_call,
            step,
        });
        (per_call, step)
    }

    /// Fetches the next op from the program, handing it the last outcome.
    pub(crate) fn fetch_op(&mut self) -> Option<Op> {
        let program = self.program.as_mut()?;
        let mut ctx = crate::program::ProgramCtx {
            pid: self.id,
            last: std::mem::take(&mut self.last_outcome),
            rng: &mut self.rng,
        };
        let op = program.next_op(&mut ctx);
        if op.is_some() {
            self.ops_executed += 1;
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::OpsProgram;

    fn sample_task(id: u32, tgid: u32) -> Task {
        Task::new(
            TaskId(id),
            TaskId(tgid),
            None,
            0,
            Box::new(OpsProgram::compute_only("t", Cycles(10))),
            SimRng::seed_from(1),
        )
    }

    #[test]
    fn state_predicates() {
        assert!(TaskState::Ready.is_alive());
        assert!(TaskState::Running.is_runnable());
        assert!(TaskState::Blocked(BlockReason::Sleep).is_alive());
        assert!(!TaskState::Blocked(BlockReason::Sleep).is_runnable());
        assert!(!TaskState::Zombie.is_alive());
        assert!(!TaskState::Dead.is_alive());
        assert!(TaskState::Stopped.is_alive());
        assert_eq!(
            format!("{}", TaskState::Blocked(BlockReason::DiskIo)),
            "blocked(io)"
        );
    }

    #[test]
    fn new_task_defaults() {
        let t = sample_task(5, 5);
        assert_eq!(t.state, TaskState::Ready);
        assert_eq!(t.mode, Mode::User);
        assert!(!t.is_thread());
        assert!(t.has_pending_work());
        assert_eq!(t.ops_executed, 0);
        assert!(t.measurements.is_empty());
        assert!(format!("{t:?}").contains("Task"));
    }

    #[test]
    fn thread_detection() {
        let t = sample_task(6, 5);
        assert!(t.is_thread());
    }

    #[test]
    fn fetch_op_counts_and_delivers_outcome() {
        let mut t = sample_task(1, 1);
        t.last_outcome = OpOutcome::Completed;
        let op = t.fetch_op();
        assert!(op.is_some());
        assert_eq!(t.ops_executed, 1);
        // Outcome is consumed by the fetch.
        assert_eq!(t.last_outcome, OpOutcome::None);
        assert!(t.fetch_op().is_none());
    }

    #[test]
    fn task_table_is_a_dense_slab() {
        let mut table = TaskTable::new();
        table.insert(sample_task(1, 1));
        table.insert(sample_task(2, 1));
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(TaskId(1)).unwrap().id, TaskId(1));
        assert_eq!(table.get(TaskId(2)).unwrap().id, TaskId(2));
        assert!(table.get(TaskId(0)).is_none(), "pid 0 is never allocated");
        assert!(table.get(TaskId(3)).is_none());
        table.get_mut(TaskId(2)).unwrap().nice = -5;
        assert_eq!(table.get(TaskId(2)).unwrap().nice, -5);
        let ids: Vec<TaskId> = table.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn pid_slab_keeps_its_index_through_removals() {
        let mut slab = PidSlab::default();
        for pid in [3, 1, 7, 4] {
            slab.insert(TaskId(pid), pid * 10);
        }
        assert_eq!(slab.remove(TaskId(1)), Some(10));
        assert_eq!(slab.remove(TaskId(1)), None);
        slab.insert(TaskId(3), 33);
        assert_eq!(slab.get(TaskId(3)), Some(&33));
        assert_eq!(slab.get(TaskId(4)), Some(&40));
        assert_eq!(slab.get(TaskId(7)), Some(&70));
        assert!(slab.get(TaskId(0)).is_none() && slab.get(TaskId(99)).is_none());
        *slab.get_mut(TaskId(7)).unwrap() += 1;
        let mut live: Vec<(TaskId, u32)> = slab.iter().map(|(id, v)| (id, *v)).collect();
        live.sort();
        assert_eq!(
            live,
            vec![(TaskId(3), 33), (TaskId(4), 40), (TaskId(7), 71)]
        );
        assert!(slab.contains(TaskId(4)) && !slab.contains(TaskId(1)));
    }

    #[test]
    fn symbols_resolve_once_and_measure_interposition_once() {
        let mut libs = LibraryRegistry::with_standard_libraries(Cycles(1_000));
        libs.install(
            crate::loader::SharedLibrary::new("evil.so")
                .with_symbol("malloc", Cycles(5_000))
                .injected(),
        );
        let mut t = sample_task(1, 1);
        t.ld_preload = vec!["evil.so".to_string()];
        let first = t.resolve_symbol(&libs, "malloc");
        assert_eq!(first.0, Cycles(5_300));
        assert_eq!(first.1, Digest::of(b"call:malloc"));
        assert_eq!(t.resolve_symbol(&libs, "malloc"), first);
        assert_eq!(t.resolve_symbol(&libs, "free").0, Cycles(200));
        let interposed: Vec<&str> = t
            .measurements
            .entries()
            .iter()
            .filter(|m| m.kind == ImageKind::InterposedSymbol)
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(interposed, vec!["evil.so:malloc"]);
        assert_eq!(t.symbols.len(), 2);
    }

    #[test]
    fn micro_queue_manipulation() {
        let mut t = sample_task(1, 1);
        t.push_user_work(Cycles(100));
        t.push_user_work(Cycles::ZERO); // ignored
        t.push_front_micro(Micro::Kernel {
            remaining: Cycles(5),
        });
        assert_eq!(t.micros.len(), 2);
        assert!(matches!(t.micros.front(), Some(Micro::Kernel { .. })));
        assert!(format!("{:?}", t.micros.front().unwrap()).contains("Kernel"));
    }
}
