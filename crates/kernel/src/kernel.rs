//! The kernel orchestrator: process management, the run loop, event
//! handling, and the bridge to the metering schemes.
//!
//! The [`Kernel`] owns every subsystem (scheduler, memory manager, dynamic
//! loader, devices) and executes the spawned programs' ops on a single
//! simulated CPU. Every accounting-relevant transition is reported to a
//! [`MeterBank`] holding the commodity tick scheme and the two fine-grained
//! schemes, so one run yields all three readings.

use crate::config::KernelConfig;
use crate::devices::{Disk, NicFlood};
use crate::loader::LibraryRegistry;
use crate::mm::MemoryManager;
use crate::program::{Op, OpOutcome, Program, SyscallOp};
use crate::results::{KernelStats, ProcessUsage, RunResult};
use crate::sched::{build_scheduler, Scheduler};
use crate::signals::Signal;
use crate::task::{BlockReason, Effect, Micro, Task, TaskState, TaskTable};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use trustmeter_core::{
    Digest, ExceptionKind, ImageKind, IrqLine, MeasuredImage, MeterBank, MeterEvent, Mode,
    SchemeKind, TaskId,
};
use trustmeter_sim::{Cycles, EventQueue, SimRng, TraceLevel, TraceSink};

/// Events the kernel schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelEvent {
    /// Periodic timer interrupt.
    TimerTick,
    /// A junk packet arrived at the NIC.
    NicPacket,
    /// A disk request issued by `owner` completed.
    DiskComplete { owner: TaskId },
    /// A sleeping task's timer expired.
    WakeSleep { task: TaskId },
}

/// Every [`CostModel`](crate::CostModel) figure the run loop charges,
/// converted to cycles once in [`Kernel::new`] instead of per op (each
/// conversion is f64 → `Nanos` → u128 division). A derived cost keeps
/// the f64 expression it was always converted from — `cost(fork_us *
/// 0.6)`, not `cost(fork_us) * 0.6` — so every charge is bit-identical.
#[derive(Debug, Clone, Copy)]
struct Costs {
    context_switch: Cycles,
    syscall_entry: Cycles,
    fork: Cycles,
    /// `clone()` of a thread: `fork_us * 0.6`.
    spawn_thread: Cycles,
    execve: Cycles,
    exit: Cycles,
    wait: Cycles,
    /// A runtime `dlopen`: `dynlink_per_library_us * 0.25`.
    dlopen: Cycles,
    signal_delivery: Cycles,
    ptrace_request: Cycles,
    minor_fault: Cycles,
    /// A major fault with its synchronous swap-in: `major_fault_us +
    /// swap_in_us`.
    major_fault: Cycles,
    debug_trap: Cycles,
    timer_irq: Cycles,
    nic_irq: Cycles,
    disk_irq: Cycles,
}

impl Costs {
    fn new(config: &KernelConfig) -> Costs {
        let c = config.costs;
        let cost = |us: f64| config.cost(us);
        Costs {
            context_switch: cost(c.context_switch_us),
            syscall_entry: cost(c.syscall_entry_us),
            fork: cost(c.fork_us),
            spawn_thread: cost(c.fork_us * 0.6),
            execve: cost(c.execve_us),
            exit: cost(c.exit_us),
            wait: cost(c.wait_us),
            dlopen: cost(c.dynlink_per_library_us * 0.25),
            signal_delivery: cost(c.signal_delivery_us),
            ptrace_request: cost(c.ptrace_request_us),
            minor_fault: cost(c.minor_fault_us),
            major_fault: cost(c.major_fault_us + c.swap_in_us),
            debug_trap: cost(c.debug_trap_us),
            timer_irq: cost(c.timer_irq_us),
            nic_irq: cost(c.nic_irq_us),
            disk_irq: cost(c.disk_irq_us),
        }
    }
}

/// Result of trying to obtain more work for a task.
enum FetchResult {
    /// New micro-ops were queued (or the op was costless).
    Lowered,
    /// The program is finished and the task should exit.
    Exited,
}

/// The simulated operating-system kernel.
///
/// # Example
///
/// ```
/// use trustmeter_kernel::{Kernel, KernelConfig, OpsProgram};
/// use trustmeter_core::SchemeKind;
/// use trustmeter_sim::Cycles;
///
/// let mut kernel = Kernel::new(KernelConfig::paper_machine());
/// let pid = kernel.spawn_process(
///     Box::new(OpsProgram::compute_only("job", Cycles(50_000_000))),
///     0,
/// );
/// let result = kernel.run();
/// let usage = result.process(pid).unwrap();
/// assert!(usage.usage(SchemeKind::Tsc).total() >= Cycles(50_000_000));
/// ```
pub struct Kernel {
    config: KernelConfig,
    costs: Costs,
    now: Cycles,
    next_pid: u32,
    tasks: TaskTable,
    /// Tasks not yet exited. The run loop asks on every pass whether any
    /// task is alive, and the task table keeps every task ever created.
    alive: usize,
    current: Option<TaskId>,
    scheduler: Box<dyn Scheduler>,
    meter: MeterBank,
    events: EventQueue<KernelEvent>,
    mm: MemoryManager,
    libs: LibraryRegistry,
    disk: Disk,
    nic_flood: Option<NicFlood>,
    nic_rng: SimRng,
    /// Code the (tampered) shell injects between `fork()` and `execve()`,
    /// as `(label, cycles)` pairs. Empty on an honest platform.
    shell_injection: Vec<(String, Cycles)>,
    /// `LD_PRELOAD` applied to processes launched through the shell.
    ld_preload: Vec<String>,
    /// Destructor work to run when a task exits, per task.
    exit_work: BTreeMap<TaskId, Vec<(String, Cycles)>>,
    /// Stopped tracees not yet reported to their tracer via `wait()`.
    stopped_unreported: BTreeSet<TaskId>,
    /// Tasks with a tracer attached (`traced_by` set), so exit and wait
    /// find a tracer's tracees without walking every task ever created.
    traced: BTreeSet<TaskId>,
    /// The (start, end) of the most recent device-interrupt handler window,
    /// used to decide whether a (late-processed) timer tick interrupted an
    /// interrupt handler and must therefore be charged as system time.
    irq_window: Option<(Cycles, Cycles)>,
    trace: TraceSink,
    stats: KernelStats,
    rng: SimRng,
    preempt_requested: bool,
    /// Memoized witness-label digests. The witness chain update must see
    /// every step, but `Digest::of(label)` is pure and labels repeat, so
    /// each distinct label is hashed once. (Library calls keep their
    /// `call:<symbol>` steps in the calling task's resolved symbols.)
    witness_steps: HashMap<String, Digest>,
}

/// Looks up (or computes and caches) the step digest for a witness label.
/// A free function rather than a method so call sites holding a mutable
/// task borrow can still reach the cache field.
fn memo_step(cache: &mut HashMap<String, Digest>, label: &str) -> Digest {
    match cache.get(label) {
        Some(step) => *step,
        None => {
            let step = Digest::of(label.as_bytes());
            cache.insert(label.to_string(), step);
            step
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("tasks", &self.tasks.len())
            .field("current", &self.current)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel from a configuration, with the standard library
    /// registry and the default three-scheme meter bank.
    pub fn new(config: KernelConfig) -> Kernel {
        let jiffy = config.jiffy();
        let mut rng = SimRng::seed_from(config.seed);
        let nic_rng = rng.fork();
        let linker_cost = config.cost(config.costs.dynlink_per_library_us);
        Kernel {
            costs: Costs::new(&config),
            scheduler: build_scheduler(config.scheduler, jiffy),
            meter: MeterBank::standard(jiffy),
            events: EventQueue::new(),
            mm: MemoryManager::new(config.physical_pages),
            libs: LibraryRegistry::with_standard_libraries(linker_cost),
            disk: Disk::new(config.cost(config.costs.disk_latency_us)),
            nic_flood: None,
            nic_rng,
            shell_injection: Vec::new(),
            ld_preload: Vec::new(),
            exit_work: BTreeMap::new(),
            stopped_unreported: BTreeSet::new(),
            traced: BTreeSet::new(),
            irq_window: None,
            trace: TraceSink::disabled(),
            stats: KernelStats::default(),
            now: Cycles::ZERO,
            next_pid: 1,
            tasks: TaskTable::new(),
            alive: 0,
            current: None,
            rng,
            preempt_requested: false,
            witness_steps: HashMap::new(),
            config,
        }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Mutable access to the library registry, used by attacks to install
    /// malicious libraries.
    pub fn libraries_mut(&mut self) -> &mut LibraryRegistry {
        &mut self.libs
    }

    /// Enables structured tracing at the given level.
    pub fn enable_trace(&mut self, level: TraceLevel) {
        self.trace = TraceSink::with_level(level).with_capacity_limit(100_000);
    }

    /// The collected trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Installs the shell attack: `(label, cycles)` work executed in every
    /// shell-launched process between `fork()` and `execve()`.
    pub fn set_shell_injection(&mut self, injection: Vec<(String, Cycles)>) {
        self.shell_injection = injection;
    }

    /// Sets the `LD_PRELOAD` list applied to shell-launched processes.
    pub fn set_ld_preload(&mut self, libraries: Vec<String>) {
        self.ld_preload = libraries;
    }

    /// Points a junk-packet flood at the machine (the interrupt-flooding
    /// attack).
    pub fn set_nic_flood(&mut self, flood: NicFlood) {
        self.nic_flood = Some(flood);
    }

    /// Reference to the meter bank (to inspect usages mid-run in tests).
    pub fn meter(&self) -> &MeterBank {
        &self.meter
    }

    /// The task table entry for `id`, if it exists.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id)
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    fn alloc_pid(&mut self) -> TaskId {
        let id = TaskId(self.next_pid);
        self.next_pid += 1;
        id
    }

    /// Launches a program the way the platform shell does: fork, run any
    /// shell-injected code, `execve`, dynamic linking and library
    /// constructors (honouring `LD_PRELOAD`), then the program itself. All
    /// launch-phase work is billed to the new process — the property the
    /// launch-time attacks exploit.
    pub fn spawn_process(&mut self, program: Box<dyn Program>, nice: i8) -> TaskId {
        let pid = self.alloc_pid();
        let rng = self.rng.fork();
        let mut task = Task::new(pid, pid, None, nice, program, rng);
        task.ld_preload = self.ld_preload.clone();

        // fork() cost is billed to the child from its very first instant.
        task.push_front_micro(Micro::Kernel {
            remaining: self.costs.fork,
        });

        // Shell-injected code runs before execve, in user mode.
        let injection = self.shell_injection.clone();
        for (label, cycles) in injection {
            task.measurements
                .measure(MeasuredImage::new(&label, ImageKind::ShellInjected));
            task.witness
                .record_step(memo_step(&mut self.witness_steps, &label));
            task.push_user_work(cycles);
        }

        // execve + dynamic linking + constructors.
        task.micros.push_back(Micro::Kernel {
            remaining: self.costs.execve,
        });
        let plan = self
            .libs
            .load_plan(&task.name.clone(), &task.ld_preload.clone());
        for m in plan.measurements {
            task.measurements.measure(m);
        }
        for (label, cycles) in plan.user_work {
            task.witness
                .record_step(memo_step(&mut self.witness_steps, &label));
            task.push_user_work(cycles);
        }
        if !plan.exit_work.is_empty() {
            self.exit_work.insert(pid, plan.exit_work);
        }

        self.admit(task)
    }

    /// Creates a task without the shell/loader launch phase (children forked
    /// by running programs, attack helpers, kernel-internal tasks).
    pub fn spawn_raw(&mut self, program: Box<dyn Program>, nice: i8) -> TaskId {
        let pid = self.alloc_pid();
        let rng = self.rng.fork();
        let task = Task::new(pid, pid, None, nice, program, rng);
        self.admit(task)
    }

    fn admit(&mut self, task: Task) -> TaskId {
        let id = task.id;
        let nice = task.nice;
        self.mm.register(id);
        self.stats.tasks_created += 1;
        self.alive += 1;
        self.tasks.insert(task);
        self.scheduler.task_created(id, nice, self.now);
        self.scheduler.enqueue(id, self.now, self.current);
        id
    }

    // -----------------------------------------------------------------
    // Run loop
    // -----------------------------------------------------------------

    /// Runs the simulation until every task has exited (or the horizon is
    /// reached) and returns the per-process usages under every scheme.
    pub fn run(&mut self) -> RunResult {
        let horizon = self.config.horizon();
        let jiffy = self.config.jiffy();
        self.events
            .schedule(self.now + jiffy, KernelEvent::TimerTick);
        if let Some(flood) = self.nic_flood {
            let first = flood.first_arrival(self.config.frequency).max(Cycles(1));
            self.events.schedule(first, KernelEvent::NicPacket);
        }

        let mut hit_horizon = false;
        loop {
            while let Some(ev) = self.events.pop_due(self.now) {
                self.handle_event(ev.at, ev.payload);
            }
            if !self.any_alive() {
                break;
            }
            if self.now >= horizon {
                hit_horizon = true;
                break;
            }
            if self.current.is_none() {
                match self.scheduler.pick_next(self.now) {
                    Some(next) => self.switch_to(next),
                    None => {
                        // Idle: nothing is runnable, so handling each jiffy
                        // tick individually would only pay the handler cost
                        // and reschedule — coalesce the ticks up to the next
                        // non-tick event (or the horizon), then advance the
                        // clock to the next event in one step.
                        self.coalesce_idle_ticks(horizon);
                        match self.events.peek_time() {
                            Some(t) => {
                                self.now = self.now.max(t);
                                continue;
                            }
                            None => break,
                        }
                    }
                }
            }
            let deadline = self.events.peek_time().unwrap_or(horizon).min(horizon);
            if deadline <= self.now {
                continue;
            }
            self.run_current_until(deadline);
        }
        self.collect_results(hit_horizon)
    }

    fn any_alive(&self) -> bool {
        self.alive > 0
    }

    fn switch_to(&mut self, next: TaskId) {
        self.stats.context_switches += 1;
        let ctx_cost = self.costs.context_switch;
        let Some(task) = self.tasks.get_mut(next) else {
            return;
        };
        task.state = TaskState::Running;
        let mode = task.mode;
        task.push_front_micro(Micro::Kernel {
            remaining: ctx_cost,
        });
        self.current = Some(next);
        self.meter.on_event(&MeterEvent::SwitchIn {
            at: self.now,
            task: next,
            mode,
        });
        self.trace
            .emit_with(self.now, TraceLevel::Info, "sched", || {
                format!("switch to {next}")
            });
    }

    fn deschedule_current(&mut self, new_state: TaskState, voluntary: bool) {
        let Some(cur) = self.current.take() else {
            return;
        };
        self.meter.on_event(&MeterEvent::SwitchOut {
            at: self.now,
            task: cur,
        });
        if let Some(task) = self.tasks.get_mut(cur) {
            task.state = new_state;
            if voluntary {
                task.voluntary_switches += 1;
            } else {
                task.involuntary_switches += 1;
            }
        }
        if voluntary {
            self.scheduler.note_voluntary_block(cur, self.now);
        }
        if new_state == TaskState::Ready {
            self.scheduler.enqueue(cur, self.now, None);
        }
    }

    fn run_current_until(&mut self, deadline: Cycles) {
        let mut guard = 0u32;
        while self.now < deadline {
            let Some(cur) = self.current else { return };
            if !self.execute_front_micro(cur, deadline) {
                // Micro queue empty: lower the next program op.
                match self.fetch_and_lower(cur) {
                    FetchResult::Lowered => {
                        guard += 1;
                        // A pathological program could yield an unbounded
                        // stream of costless ops; cap the zero-time work we
                        // do per slice so the clock always makes progress.
                        if guard > 10_000 {
                            self.now = deadline;
                            return;
                        }
                        continue;
                    }
                    FetchResult::Exited => {
                        self.do_exit(cur, 0);
                        return;
                    }
                }
            }
            if self.preempt_requested {
                self.preempt_requested = false;
                if self.current == Some(cur) {
                    self.deschedule_current(TaskState::Ready, false);
                }
                return;
            }
            if self.current != Some(cur) {
                return;
            }
        }
    }

    /// With nothing runnable, the pending timer tick (there is at most one
    /// in the queue) would fire every jiffy, pay the handler cost, and
    /// reschedule itself — without ever waking anyone, because wakeups come
    /// from non-tick events. Move the tick to the first jiffy boundary at
    /// or past the next non-tick event (or the horizon) in one step.
    fn coalesce_idle_ticks(&mut self, horizon: Cycles) {
        if !matches!(self.events.peek(), Some((_, KernelEvent::TimerTick))) {
            return;
        }
        let Some(tick) = self.events.pop() else {
            return;
        };
        // Clamp to the horizon: the run loop stops there, so events beyond
        // it must stay unprocessed exactly as they would under per-jiffy
        // ticking.
        let target = self.events.peek_time().unwrap_or(horizon).min(horizon);
        let jiffy = self.config.jiffy();
        let mut at = tick.at;
        if target > at && !jiffy.is_zero() {
            let skipped = (target - at).as_u64().div_ceil(jiffy.as_u64());
            at += jiffy * skipped;
            self.stats.ticks_coalesced += skipped;
        }
        self.events.schedule(at, KernelEvent::TimerTick);
    }

    /// Executes the front micro-op of `cur`, splitting it at `deadline`.
    /// Returns `false` when the task has no pending micro-op (the caller
    /// must lower the next program op first).
    ///
    /// This is the hottest function in the simulator: the micro-op is
    /// inspected, advanced, popped on completion, and its mode switch and
    /// breakpoint check resolved under a **single** task-table lookup; only
    /// the subsystem side effects (meter events, scheduler charge, syscall
    /// effects) run after the borrow ends.
    fn execute_front_micro(&mut self, cur: TaskId, deadline: Cycles) -> bool {
        let budget = deadline.saturating_sub(self.now);
        // What remains to do once the borrow on the task is released.
        enum Action {
            Run {
                slice: Cycles,
                completes: bool,
                exception: Option<ExceptionKind>,
                enter_exception: bool,
            },
            Effect,
            Done,
        }
        let (action, mode_change) = {
            let Some(task) = self.tasks.get_mut(cur) else {
                return false;
            };
            let Some(front) = task.micros.front_mut() else {
                return false;
            };
            let (action, mode) = match front {
                Micro::User { remaining } => {
                    let slice = (*remaining).min(budget);
                    *remaining = remaining.saturating_sub(slice);
                    let completes = remaining.is_zero();
                    if completes {
                        task.micros.pop_front();
                    }
                    (
                        Action::Run {
                            slice,
                            completes,
                            exception: None,
                            enter_exception: false,
                        },
                        Some(Mode::User),
                    )
                }
                Micro::Kernel { remaining } => {
                    let slice = (*remaining).min(budget);
                    *remaining = remaining.saturating_sub(slice);
                    let completes = remaining.is_zero();
                    if completes {
                        task.micros.pop_front();
                    }
                    (
                        Action::Run {
                            slice,
                            completes,
                            exception: None,
                            enter_exception: false,
                        },
                        Some(Mode::Kernel),
                    )
                }
                Micro::Exception {
                    kind,
                    remaining,
                    entered,
                } => {
                    let enter = !*entered;
                    *entered = true;
                    let kind = *kind;
                    let slice = (*remaining).min(budget);
                    *remaining = remaining.saturating_sub(slice);
                    let completes = remaining.is_zero();
                    if completes {
                        task.micros.pop_front();
                    }
                    (
                        Action::Run {
                            slice,
                            completes,
                            exception: Some(kind),
                            enter_exception: enter,
                        },
                        Some(Mode::Kernel),
                    )
                }
                Micro::WatchedAccess { addr, count_left } => {
                    // Replace the front micro according to whether a
                    // breakpoint is armed on this address.
                    let addr = *addr;
                    let count_left = *count_left;
                    let armed = task.breakpoint == Some(addr) && task.traced_by.is_some();
                    task.micros.pop_front();
                    if armed {
                        self.stats.debug_traps += 1;
                        if count_left > 1 {
                            task.micros.push_front(Micro::WatchedAccess {
                                addr,
                                count_left: count_left - 1,
                            });
                        }
                        task.micros.push_front(Micro::Effect(Effect::TrapStop));
                        task.micros.push_front(Micro::Kernel {
                            remaining: self.costs.signal_delivery,
                        });
                        task.micros.push_front(Micro::Exception {
                            kind: ExceptionKind::Debug,
                            remaining: self.costs.debug_trap,
                            entered: false,
                        });
                        // The access itself is a single user-mode
                        // instruction.
                        task.micros.push_front(Micro::User {
                            remaining: Cycles(1),
                        });
                    } else {
                        // Unwatched accesses are ordinary user work (one
                        // cycle each).
                        task.micros.push_front(Micro::User {
                            remaining: Cycles(count_left.max(1)),
                        });
                    }
                    (Action::Done, None)
                }
                Micro::Effect(_) => (Action::Effect, None),
            };
            let mode_change = match mode {
                Some(mode) if task.mode != mode => {
                    task.mode = mode;
                    Some(mode)
                }
                _ => None,
            };
            (action, mode_change)
        };

        if let Some(mode) = mode_change {
            self.meter.on_event(&MeterEvent::ModeChange {
                at: self.now,
                task: cur,
                mode,
            });
        }
        match action {
            Action::Run {
                slice,
                completes,
                exception,
                enter_exception,
            } => {
                if let (Some(kind), true) = (exception, enter_exception) {
                    self.meter.on_event(&MeterEvent::ExceptionEnter {
                        at: self.now,
                        task: cur,
                        kind,
                    });
                }
                self.now += slice;
                self.scheduler.charge(cur, slice);
                if completes && exception.is_some() {
                    self.meter.on_event(&MeterEvent::ExceptionExit {
                        at: self.now,
                        task: cur,
                    });
                }
            }
            Action::Effect => {
                let effect = {
                    let Some(task) = self.tasks.get_mut(cur) else {
                        return true;
                    };
                    match task.micros.pop_front() {
                        Some(Micro::Effect(e)) => e,
                        _ => return true,
                    }
                };
                self.apply_effect(cur, effect);
            }
            Action::Done => {}
        }
        true
    }

    // -----------------------------------------------------------------
    // Op lowering
    // -----------------------------------------------------------------

    /// Fetches the next op of `cur` and lowers it into micro-ops.
    fn fetch_and_lower(&mut self, cur: TaskId) -> FetchResult {
        let op = match self.tasks.get_mut(cur) {
            Some(task) => {
                // Deliver an implicit "completed" outcome for ops that
                // have no specific result.
                if task.ops_executed > 0 && task.last_outcome == OpOutcome::None {
                    task.last_outcome = OpOutcome::Completed;
                }
                task.fetch_op()
            }
            None => return FetchResult::Exited,
        };
        match op {
            Some(op) => {
                self.lower_op(cur, op);
                FetchResult::Lowered
            }
            None => {
                // Program finished: run destructors (if any) and then exit.
                let exit_work = self.exit_work.remove(&cur).unwrap_or_default();
                if exit_work.is_empty() {
                    return FetchResult::Exited;
                }
                let exit_cost = self.costs.exit;
                if let Some(task) = self.tasks.get_mut(cur) {
                    for (label, cycles) in exit_work {
                        task.witness
                            .record_step(memo_step(&mut self.witness_steps, &label));
                        task.push_user_work(cycles);
                    }
                    task.micros.push_back(Micro::Kernel {
                        remaining: exit_cost,
                    });
                    task.micros
                        .push_back(Micro::Effect(Effect::Exit { code: 0 }));
                }
                FetchResult::Lowered
            }
        }
    }

    /// Lowers one op into the (empty) micro-op queue of `cur`.
    fn lower_op(&mut self, cur: TaskId, op: Op) {
        let entry = self.costs.syscall_entry;
        match op {
            Op::Compute { cycles } => {
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.push_user_work(cycles);
                }
            }
            Op::LibCall { symbol, calls } => {
                let Some(task) = self.tasks.get_mut(cur) else {
                    return;
                };
                let (per_call, step) = task.resolve_symbol(&self.libs, symbol);
                task.witness.record_step(step);
                task.push_user_work(Cycles(per_call.as_u64().saturating_mul(calls)));
            }
            Op::TouchMemory { pages } => {
                let batch = self.mm.touch(cur, pages);
                self.stats.minor_faults += batch.minor_faults;
                self.stats.major_faults += batch.major_faults;
                let minor_cost = self.costs.minor_fault;
                let major_cost = self.costs.major_fault;
                let Some(task) = self.tasks.get_mut(cur) else {
                    return;
                };
                // The touches themselves are cheap user work.
                task.push_user_work(Cycles(pages.max(1)));
                if batch.minor_faults > 0 {
                    task.micros.push_back(Micro::Exception {
                        kind: ExceptionKind::PageFault,
                        remaining: Cycles(minor_cost.as_u64().saturating_mul(batch.minor_faults)),
                        entered: false,
                    });
                }
                if batch.major_faults > 0 {
                    task.micros.push_back(Micro::Exception {
                        kind: ExceptionKind::PageFault,
                        remaining: Cycles(major_cost.as_u64().saturating_mul(batch.major_faults)),
                        entered: false,
                    });
                }
                task.mem = self.mm.task_mem(cur);
            }
            Op::AccessWatched { addr, count } => {
                if count == 0 {
                    return;
                }
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.micros.push_back(Micro::WatchedAccess {
                        addr,
                        count_left: count,
                    });
                }
            }
            Op::AllocMemory { pages } => {
                self.mm.allocate(cur, pages);
                let mem = self.mm.task_mem(cur);
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.mem = mem;
                    task.micros.push_back(Micro::Kernel { remaining: entry });
                }
            }
            Op::Label { block } => {
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.witness
                        .record_step(memo_step(&mut self.witness_steps, block));
                }
            }
            Op::Syscall(sys) => {
                self.stats.syscalls += 1;
                self.lower_syscall(cur, sys, entry);
            }
        }
    }

    fn lower_syscall(&mut self, cur: TaskId, sys: SyscallOp, entry: Cycles) {
        let costs = self.costs;
        let Some(task) = self.tasks.get_mut(cur) else {
            return;
        };
        let mut kernel_cost = entry;
        let effect = match sys {
            SyscallOp::Fork { child, nice } => {
                kernel_cost += costs.fork;
                Effect::Fork { child, nice }
            }
            SyscallOp::SpawnThread { thread } => {
                kernel_cost += costs.spawn_thread;
                Effect::SpawnThread { thread }
            }
            SyscallOp::Wait => {
                kernel_cost += costs.wait;
                Effect::Wait
            }
            SyscallOp::Exit { code } => {
                // Destructors registered at load time run before the exit
                // syscall proper.
                let exit_work = self.exit_work.remove(&cur).unwrap_or_default();
                for (label, cycles) in exit_work {
                    task.witness
                        .record_step(memo_step(&mut self.witness_steps, &label));
                    task.push_user_work(cycles);
                }
                kernel_cost += costs.exit;
                Effect::Exit { code }
            }
            SyscallOp::Nanosleep { duration } => {
                let dur = self.config.frequency.cycles_for(duration);
                Effect::Sleep { duration: dur }
            }
            SyscallOp::Read { bytes } | SyscallOp::Write { bytes } => {
                kernel_cost += Cycles(bytes / 8);
                Effect::DiskRequest { bytes }
            }
            SyscallOp::Dlopen { library } => {
                kernel_cost += costs.dlopen;
                Effect::Dlopen { library }
            }
            SyscallOp::Dlclose { library } => Effect::Dlclose { library },
            SyscallOp::SetNice { nice } => Effect::SetNice { nice },
            SyscallOp::Kill { target, signal } => {
                kernel_cost += costs.signal_delivery;
                Effect::Kill { target, signal }
            }
            SyscallOp::PtraceAttach { target } => {
                kernel_cost += costs.ptrace_request;
                Effect::PtraceAttach { target }
            }
            SyscallOp::PtraceSetBreakpoint { target, addr } => {
                kernel_cost += costs.ptrace_request;
                Effect::PtraceSetBreakpoint { target, addr }
            }
            SyscallOp::PtraceCont { target } => {
                kernel_cost += costs.ptrace_request;
                Effect::PtraceCont { target }
            }
            SyscallOp::PtraceDetach { target } => {
                kernel_cost += costs.ptrace_request;
                Effect::PtraceDetach { target }
            }
            SyscallOp::Getrusage => Effect::Getrusage,
        };
        task.micros.push_back(Micro::Kernel {
            remaining: kernel_cost,
        });
        task.micros.push_back(Micro::Effect(effect));
    }

    // -----------------------------------------------------------------
    // Effects
    // -----------------------------------------------------------------

    fn apply_effect(&mut self, cur: TaskId, effect: Effect) {
        match effect {
            Effect::Fork { child, nice } => {
                let pid = self.alloc_pid();
                let rng = self.rng.fork();
                let task = Task::new(pid, pid, Some(cur), nice, child, rng);
                self.mm.register(pid);
                self.stats.tasks_created += 1;
                self.alive += 1;
                self.tasks.insert(task);
                self.scheduler.task_created(pid, nice, self.now);
                let preempt = self.scheduler.enqueue(pid, self.now, self.current);
                self.preempt_requested |= preempt;
                if let Some(parent) = self.tasks.get_mut(cur) {
                    parent.children.push(pid);
                    parent.last_outcome = OpOutcome::ForkedChild(pid);
                }
            }
            Effect::SpawnThread { thread } => {
                let pid = self.alloc_pid();
                let rng = self.rng.fork();
                let (tgid, nice) = self
                    .tasks
                    .get(cur)
                    .map(|t| (t.tgid, t.nice))
                    .unwrap_or((cur, 0));
                let task = Task::new(pid, tgid, Some(cur), nice, thread, rng);
                self.mm.register(pid);
                self.stats.tasks_created += 1;
                self.alive += 1;
                self.tasks.insert(task);
                self.scheduler.task_created(pid, nice, self.now);
                let preempt = self.scheduler.enqueue(pid, self.now, self.current);
                self.preempt_requested |= preempt;
                if let Some(parent) = self.tasks.get_mut(cur) {
                    parent.children.push(pid);
                    parent.last_outcome = OpOutcome::ThreadSpawned(pid);
                }
            }
            Effect::Wait => self.do_wait(cur),
            Effect::Exit { code } => self.do_exit(cur, code),
            Effect::Sleep { duration } => {
                self.events
                    .schedule(self.now + duration, KernelEvent::WakeSleep { task: cur });
                self.block_current(BlockReason::Sleep);
            }
            Effect::DiskRequest { bytes } => {
                let done = self.disk.completion_time(self.now, bytes);
                self.events
                    .schedule(done, KernelEvent::DiskComplete { owner: cur });
                self.block_current(BlockReason::DiskIo);
            }
            Effect::Dlopen { library } => {
                let plan = self.libs.dlopen_plan(&library);
                if let Some(task) = self.tasks.get_mut(cur) {
                    for m in plan.measurements {
                        task.measurements.measure(m);
                    }
                    for (label, cycles) in plan.user_work {
                        task.witness
                            .record_step(memo_step(&mut self.witness_steps, &label));
                        task.push_user_work(cycles);
                    }
                    task.last_outcome = OpOutcome::Completed;
                }
                if !plan.exit_work.is_empty() {
                    self.exit_work
                        .entry(cur)
                        .or_default()
                        .extend(plan.exit_work);
                }
            }
            Effect::Dlclose { library } => {
                let work = self.libs.dlclose_plan(&library);
                if let Some(task) = self.tasks.get_mut(cur) {
                    for (label, cycles) in work {
                        task.witness
                            .record_step(memo_step(&mut self.witness_steps, &label));
                        task.push_user_work(cycles);
                    }
                    task.last_outcome = OpOutcome::Completed;
                }
            }
            Effect::SetNice { nice } => {
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.nice = nice;
                }
                self.scheduler.set_nice(cur, nice);
            }
            Effect::Kill { target, signal } => {
                self.deliver_signal(target, signal);
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.last_outcome = OpOutcome::Completed;
                }
            }
            Effect::PtraceAttach { target } => self.ptrace_attach(cur, target),
            Effect::PtraceSetBreakpoint { target, addr } => {
                let ok = self
                    .tasks
                    .get(target)
                    .map(|t| t.traced_by == Some(cur) && t.state.is_alive())
                    .unwrap_or(false);
                if ok {
                    if let Some(t) = self.tasks.get_mut(target) {
                        t.breakpoint = Some(addr);
                    }
                }
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.last_outcome = if ok {
                        OpOutcome::Completed
                    } else {
                        OpOutcome::Failed
                    };
                }
            }
            Effect::PtraceCont { target } => {
                let ok = self
                    .tasks
                    .get(target)
                    .map(|t| t.traced_by == Some(cur) && t.state == TaskState::Stopped)
                    .unwrap_or(false);
                if ok {
                    self.stopped_unreported.remove(&target);
                    if let Some(t) = self.tasks.get_mut(target) {
                        t.state = TaskState::Ready;
                    }
                    let preempt = self.scheduler.enqueue(target, self.now, self.current);
                    self.preempt_requested |= preempt;
                }
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.last_outcome = if ok {
                        OpOutcome::Completed
                    } else {
                        OpOutcome::Failed
                    };
                }
            }
            Effect::PtraceDetach { target } => {
                let was_stopped = self
                    .tasks
                    .get(target)
                    .map(|t| t.state == TaskState::Stopped)
                    .unwrap_or(false);
                if let Some(t) = self.tasks.get_mut(target) {
                    t.traced_by = None;
                    t.breakpoint = None;
                    if was_stopped {
                        t.state = TaskState::Ready;
                    }
                }
                self.traced.remove(&target);
                if was_stopped {
                    self.stopped_unreported.remove(&target);
                    self.scheduler.enqueue(target, self.now, self.current);
                }
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.last_outcome = OpOutcome::Completed;
                }
            }
            Effect::Getrusage => {
                let tgid = self.tasks.get(cur).map(|t| t.tgid).unwrap_or(cur);
                let members: Vec<TaskId> = self
                    .tasks
                    .iter()
                    .filter(|t| t.tgid == tgid)
                    .map(|t| t.id)
                    .collect();
                let mut utime = Cycles::ZERO;
                let mut stime = Cycles::ZERO;
                for m in members {
                    let u = self.meter.usage(SchemeKind::Tick, m);
                    utime += u.utime;
                    stime += u.stime;
                }
                if let Some(task) = self.tasks.get_mut(cur) {
                    task.last_outcome = OpOutcome::Rusage { utime, stime };
                }
            }
            Effect::TrapStop => {
                // The current task hit an armed breakpoint: it stops and its
                // tracer (blocked in wait) is woken.
                self.stopped_unreported.insert(cur);
                let tracer = self.tasks.get(cur).and_then(|t| t.traced_by);
                if let Some(tracer) = tracer {
                    self.wake_waiter_with(tracer, OpOutcome::ChildStopped(cur));
                }
                self.deschedule_current(TaskState::Stopped, true);
            }
        }
    }

    fn block_current(&mut self, reason: BlockReason) {
        self.deschedule_current(TaskState::Blocked(reason), true);
    }

    fn do_wait(&mut self, cur: TaskId) {
        // 1. Any zombie child to reap?
        let zombie = self
            .tasks
            .get(cur)
            .map(|t| t.children.clone())
            .unwrap_or_default()
            .into_iter()
            .find(|c| {
                self.tasks
                    .get(*c)
                    .map(|t| t.state == TaskState::Zombie)
                    .unwrap_or(false)
            });
        if let Some(child) = zombie {
            self.reap(cur, child);
            if let Some(task) = self.tasks.get_mut(cur) {
                task.last_outcome = OpOutcome::ChildExited(child);
            }
            return;
        }
        // 2. Any stopped tracee not yet reported?
        let stopped = self.stopped_unreported.iter().copied().find(|t| {
            self.tasks
                .get(*t)
                .map(|x| x.traced_by == Some(cur))
                .unwrap_or(false)
        });
        if let Some(tracee) = stopped {
            self.stopped_unreported.remove(&tracee);
            if let Some(task) = self.tasks.get_mut(cur) {
                task.last_outcome = OpOutcome::ChildStopped(tracee);
            }
            return;
        }
        // 3. Anything to wait for at all?
        let has_children = self
            .tasks
            .get(cur)
            .map(|t| !t.children.is_empty())
            .unwrap_or(false);
        let has_tracees = self.traced.iter().any(|t| {
            self.tasks
                .get(*t)
                .map(|t| t.traced_by == Some(cur) && t.state.is_alive())
                .unwrap_or(false)
        });
        if !has_children && !has_tracees {
            if let Some(task) = self.tasks.get_mut(cur) {
                task.last_outcome = OpOutcome::NoChildren;
            }
            return;
        }
        // 4. Block until a child exits or stops.
        self.block_current(BlockReason::WaitChild);
    }

    fn reap(&mut self, parent: TaskId, child: TaskId) {
        if let Some(t) = self.tasks.get_mut(child) {
            t.state = TaskState::Dead;
        }
        if let Some(p) = self.tasks.get_mut(parent) {
            p.children.retain(|c| *c != child);
        }
    }

    /// Wakes `waiter` (blocked in `wait()`) with the given outcome; no-op if
    /// it is not blocked in wait.
    fn wake_waiter_with(&mut self, waiter: TaskId, outcome: OpOutcome) {
        let waiting = self
            .tasks
            .get(waiter)
            .map(|t| t.state == TaskState::Blocked(BlockReason::WaitChild))
            .unwrap_or(false);
        if !waiting {
            return;
        }
        if let Some(t) = self.tasks.get_mut(waiter) {
            t.state = TaskState::Ready;
            t.last_outcome = outcome;
        }
        let preempt = self.scheduler.enqueue(waiter, self.now, self.current);
        self.preempt_requested |= preempt;
        // A stopped-child notification consumed via direct wakeup does not
        // need to be re-reported by the next wait().
        if let OpOutcome::ChildStopped(tracee) = outcome {
            self.stopped_unreported.remove(&tracee);
        }
    }

    fn deliver_signal(&mut self, target: TaskId, signal: Signal) {
        let alive = self
            .tasks
            .get(target)
            .map(|t| t.state.is_alive())
            .unwrap_or(false);
        if !alive {
            return;
        }
        self.stats.signals_delivered += 1;
        let cost = self.costs.signal_delivery;
        if let Some(t) = self.tasks.get_mut(target) {
            t.push_front_micro(Micro::Kernel { remaining: cost });
        }
        if signal.kills_task() {
            self.do_exit(target, 128 + signal.number() as i32);
        } else if signal.stops_task() {
            self.stop_task(target);
        } else if signal == Signal::Cont {
            let stopped = self
                .tasks
                .get(target)
                .map(|t| t.state == TaskState::Stopped)
                .unwrap_or(false);
            if stopped {
                if let Some(t) = self.tasks.get_mut(target) {
                    t.state = TaskState::Ready;
                }
                self.stopped_unreported.remove(&target);
                let preempt = self.scheduler.enqueue(target, self.now, self.current);
                self.preempt_requested |= preempt;
            }
        }
    }

    fn stop_task(&mut self, target: TaskId) {
        if self.current == Some(target) {
            self.deschedule_current(TaskState::Stopped, true);
            return;
        }
        let Some(t) = self.tasks.get_mut(target) else {
            return;
        };
        match t.state {
            TaskState::Ready => {
                t.state = TaskState::Stopped;
                self.scheduler.dequeue(target);
            }
            TaskState::Blocked(_) => t.state = TaskState::Stopped,
            _ => {}
        }
    }

    fn ptrace_attach(&mut self, tracer: TaskId, target: TaskId) {
        let ok = self
            .tasks
            .get(target)
            .map(|t| t.state.is_alive() && t.traced_by.is_none() && target != tracer)
            .unwrap_or(false);
        if ok {
            if let Some(t) = self.tasks.get_mut(target) {
                t.traced_by = Some(tracer);
                self.traced.insert(target);
            }
            // Attach stops the target with SIGSTOP.
            self.deliver_signal(target, Signal::Stop);
            self.stopped_unreported.insert(target);
        }
        if let Some(task) = self.tasks.get_mut(tracer) {
            task.last_outcome = if ok {
                OpOutcome::Completed
            } else {
                OpOutcome::Failed
            };
        }
    }

    fn do_exit(&mut self, tid: TaskId, code: i32) {
        let was_current = self.current == Some(tid);
        if was_current {
            self.current = None;
            self.meter.on_event(&MeterEvent::SwitchOut {
                at: self.now,
                task: tid,
            });
        }
        self.meter.on_event(&MeterEvent::TaskExit {
            at: self.now,
            task: tid,
        });
        self.stats.tasks_exited += 1;
        self.scheduler.dequeue(tid);
        self.scheduler.task_removed(tid);
        self.mm.release(tid);
        self.stopped_unreported.remove(&tid);

        let (parent, children, tracees): (Option<TaskId>, Vec<TaskId>, Vec<TaskId>) = {
            let t = match self.tasks.get_mut(tid) {
                Some(t) => t,
                None => return,
            };
            t.exit_code = Some(code);
            if t.state.is_alive() {
                self.alive -= 1;
            }
            t.state = TaskState::Zombie;
            t.program = None;
            t.micros.clear();
            let tracees = Vec::new();
            (t.parent, t.children.clone(), tracees)
        };
        // Detach any tasks this task was tracing.
        let my_tracees: Vec<TaskId> = self
            .traced
            .iter()
            .copied()
            .filter(|t| self.tasks.get(*t).and_then(|t| t.traced_by) == Some(tid))
            .collect();
        for tracee in my_tracees.into_iter().chain(tracees) {
            let was_stopped = self
                .tasks
                .get(tracee)
                .map(|t| t.state == TaskState::Stopped)
                .unwrap_or(false);
            if let Some(t) = self.tasks.get_mut(tracee) {
                t.traced_by = None;
                t.breakpoint = None;
                if was_stopped {
                    t.state = TaskState::Ready;
                }
            }
            self.traced.remove(&tracee);
            if was_stopped {
                self.stopped_unreported.remove(&tracee);
                self.scheduler.enqueue(tracee, self.now, self.current);
            }
        }
        // Orphan the children.
        for child in children {
            if let Some(c) = self.tasks.get_mut(child) {
                c.parent = None;
            }
        }
        // Notify a tracer waiting on this task (ptrace makes the tracer an
        // effective parent).
        let tracer = self.tasks.get(tid).and_then(|t| t.traced_by);
        if let Some(tracer) = tracer {
            if let Some(t) = self.tasks.get_mut(tid) {
                t.traced_by = None;
            }
            self.traced.remove(&tid);
            self.wake_waiter_with(tracer, OpOutcome::ChildExited(tid));
        }
        // Notify the parent.
        match parent {
            Some(p)
                if self
                    .tasks
                    .get(p)
                    .map(|t| t.state.is_alive())
                    .unwrap_or(false) =>
            {
                let waiting = self
                    .tasks
                    .get(p)
                    .map(|t| t.state == TaskState::Blocked(BlockReason::WaitChild))
                    .unwrap_or(false);
                if waiting {
                    self.reap(p, tid);
                    self.wake_waiter_with(p, OpOutcome::ChildExited(tid));
                }
            }
            _ => {
                // No live parent: reaped by init immediately.
                if let Some(t) = self.tasks.get_mut(tid) {
                    t.state = TaskState::Dead;
                }
            }
        }
        self.trace
            .emit_with(self.now, TraceLevel::Info, "exit", || {
                format!("{tid} exited with {code}")
            });
    }

    // -----------------------------------------------------------------
    // Event handling
    // -----------------------------------------------------------------

    fn handle_event(&mut self, at: Cycles, ev: KernelEvent) {
        match ev {
            KernelEvent::TimerTick => self.handle_tick(at),
            KernelEvent::NicPacket => self.handle_nic_packet(at),
            KernelEvent::DiskComplete { owner } => self.handle_disk_complete(at, owner),
            KernelEvent::WakeSleep { task } => {
                let sleeping = self
                    .tasks
                    .get(task)
                    .map(|t| t.state == TaskState::Blocked(BlockReason::Sleep))
                    .unwrap_or(false);
                if sleeping {
                    if let Some(t) = self.tasks.get_mut(task) {
                        t.state = TaskState::Ready;
                        t.last_outcome = OpOutcome::Completed;
                    }
                    let preempt = self.scheduler.enqueue(task, self.now, self.current);
                    if preempt && self.current.is_some() {
                        self.deschedule_current(TaskState::Ready, false);
                    }
                }
            }
        }
    }

    fn handle_tick(&mut self, scheduled_at: Cycles) {
        self.stats.ticks += 1;
        let cur = self.current;
        // If the tick was due while a device-interrupt handler was running
        // (the handler advanced the clock past it), the tick interrupted
        // kernel/interrupt context and is charged as system time — exactly
        // the sampling effect the interrupt-flooding attack relies on.
        let in_irq = self
            .irq_window
            .map(|(start, end)| scheduled_at >= start && scheduled_at < end)
            .unwrap_or(false);
        let mode = if in_irq {
            Mode::Kernel
        } else {
            cur.and_then(|c| self.tasks.get(c))
                .map(|t| t.mode)
                .unwrap_or(Mode::User)
        };
        // The timer interrupt itself runs in interrupt context on top of
        // whatever was executing.
        self.meter.on_event(&MeterEvent::IrqEnter {
            at: self.now,
            irq: IrqLine::TIMER,
            current: cur,
            owner: None,
        });
        self.meter.on_event(&MeterEvent::TimerTick {
            at: self.now,
            task: cur,
            mode,
        });
        let handler = self.costs.timer_irq;
        self.now += handler;
        self.meter.on_event(&MeterEvent::IrqExit {
            at: self.now,
            irq: IrqLine::TIMER,
        });

        let resched = self.scheduler.on_tick(self.now, cur);
        if resched && self.current.is_some() {
            self.deschedule_current(TaskState::Ready, false);
        }
        // Keep ticking while anything can still run.
        if self.any_alive() {
            let jiffy = self.config.jiffy();
            self.events
                .schedule(self.now + jiffy, KernelEvent::TimerTick);
        }
    }

    fn handle_nic_packet(&mut self, at: Cycles) {
        self.stats.device_interrupts += 1;
        let cur = self.current;
        self.meter.on_event(&MeterEvent::IrqEnter {
            at: self.now,
            irq: IrqLine::NIC,
            current: cur,
            owner: None,
        });
        let handler = self.costs.nic_irq;
        let start = self.now.max(at);
        self.now += handler;
        self.irq_window = Some((start, self.now));
        self.meter.on_event(&MeterEvent::IrqExit {
            at: self.now,
            irq: IrqLine::NIC,
        });
        if let Some(flood) = self.nic_flood {
            if self.any_alive() {
                if let Some(next) =
                    flood.next_arrival(self.now, self.config.frequency, &mut self.nic_rng)
                {
                    self.events.schedule(next, KernelEvent::NicPacket);
                }
            }
        }
    }

    fn handle_disk_complete(&mut self, at: Cycles, owner: TaskId) {
        self.stats.device_interrupts += 1;
        let cur = self.current;
        self.meter.on_event(&MeterEvent::IrqEnter {
            at: self.now,
            irq: IrqLine::DISK,
            current: cur,
            owner: Some(owner),
        });
        let handler = self.costs.disk_irq;
        let start = self.now.max(at);
        self.now += handler;
        self.irq_window = Some((start, self.now));
        self.meter.on_event(&MeterEvent::IrqExit {
            at: self.now,
            irq: IrqLine::DISK,
        });
        let blocked = self
            .tasks
            .get(owner)
            .map(|t| t.state == TaskState::Blocked(BlockReason::DiskIo))
            .unwrap_or(false);
        if blocked {
            if let Some(t) = self.tasks.get_mut(owner) {
                t.state = TaskState::Ready;
                t.last_outcome = OpOutcome::Completed;
            }
            let preempt = self.scheduler.enqueue(owner, self.now, self.current);
            if preempt && self.current.is_some() {
                self.deschedule_current(TaskState::Ready, false);
            }
        }
    }

    // -----------------------------------------------------------------
    // Results
    // -----------------------------------------------------------------

    fn collect_results(&mut self, hit_horizon: bool) -> RunResult {
        debug_assert_eq!(
            self.alive,
            self.tasks.iter().filter(|t| t.state.is_alive()).count(),
            "live-task count out of step with the task table"
        );
        debug_assert!(
            self.tasks
                .iter()
                .all(|t| t.traced_by.is_some() == self.traced.contains(&t.id)),
            "traced set out of step with the task table"
        );
        self.stats.minor_faults = self.mm.minor_faults;
        self.stats.major_faults = self.mm.major_faults;
        let mut groups: BTreeMap<TaskId, ProcessUsage> = BTreeMap::new();
        for task in self.tasks.iter() {
            let entry = groups.entry(task.tgid).or_insert_with(|| ProcessUsage {
                tgid: task.tgid,
                name: String::new(),
                threads: 0,
                by_scheme: BTreeMap::new(),
                exit_code: None,
            });
            entry.threads += 1;
            if task.id == task.tgid {
                entry.name = task.name.clone();
                entry.exit_code = task.exit_code;
            } else if entry.name.is_empty() {
                entry.name = task.name.clone();
            }
            for kind in self.meter.kinds() {
                let usage = self.meter.usage(kind, task.id);
                let slot = entry.by_scheme.entry(kind).or_default();
                *slot += usage;
            }
        }
        RunResult {
            frequency: self.config.frequency,
            finished_at: self.now,
            processes: groups.into_values().collect(),
            stats: self.stats,
            hit_horizon,
        }
    }

    /// The measurement log of a task (for source-integrity verification).
    pub fn measurement_log(&self, task: TaskId) -> Option<&trustmeter_core::MeasurementLog> {
        self.tasks.get(task).map(|t| &t.measurements)
    }

    /// The execution witness of a task (for execution-integrity
    /// verification).
    pub fn witness(&self, task: TaskId) -> Option<&trustmeter_core::ExecutionWitness> {
        self.tasks.get(task).map(|t| &t.witness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{LoopProgram, OpsProgram};
    use trustmeter_sim::Nanos;

    fn small_config() -> KernelConfig {
        KernelConfig::paper_machine().with_seed(7)
    }

    fn secs(cfg: &KernelConfig, s: f64) -> Cycles {
        cfg.frequency.cycles_for(Nanos::from_secs_f64(s))
    }

    #[test]
    fn single_compute_task_is_fully_accounted() {
        let cfg = small_config();
        let work = secs(&cfg, 0.5);
        let mut k = Kernel::new(cfg.clone());
        let pid = k.spawn_process(Box::new(OpsProgram::compute_only("job", work)), 0);
        let result = k.run();
        assert!(!result.hit_horizon);
        let p = result.process(pid).unwrap();
        // Ground truth covers the work plus launch overhead.
        assert!(p.ground_truth().total() >= work);
        // Tick accounting is within a few jiffies of the ground truth for a
        // single CPU-bound task.
        let diff = p.billed().total().as_f64() - p.ground_truth().total().as_f64();
        assert!(diff.abs() < 4.0 * cfg.jiffy().as_f64(), "diff {diff}");
        assert_eq!(p.exit_code, Some(0));
        assert!(result.stats.ticks > 0);
        assert!(result.stats.context_switches >= 1);
    }

    #[test]
    fn two_equal_tasks_share_the_cpu() {
        let cfg = small_config();
        let work = secs(&cfg, 0.3);
        let mut k = Kernel::new(cfg.clone());
        let a = k.spawn_process(Box::new(OpsProgram::compute_only("a", work)), 0);
        let b = k.spawn_process(Box::new(OpsProgram::compute_only("b", work)), 0);
        let result = k.run();
        let ga = result.process(a).unwrap().ground_truth().total().as_f64();
        let gb = result.process(b).unwrap().ground_truth().total().as_f64();
        assert!((ga - gb).abs() / ga < 0.1, "unfair split {ga} vs {gb}");
        // Elapsed time covers both (single CPU).
        assert!(result.finished_at.as_f64() >= ga + gb - cfg.jiffy().as_f64());
    }

    #[test]
    fn launch_phase_is_billed_to_the_process() {
        let cfg = small_config();
        let mut k = Kernel::new(cfg.clone());
        let pid = k.spawn_process(Box::new(OpsProgram::compute_only("tiny", Cycles(1_000))), 0);
        let result = k.run();
        let p = result.process(pid).unwrap();
        // Even a tiny program pays fork + execve + linking + constructors.
        let launch_min =
            cfg.cost(cfg.costs.fork_us).as_u64() + cfg.cost(cfg.costs.execve_us).as_u64();
        assert!(p.ground_truth().total().as_u64() > launch_min);
        // The measurement log saw the executable and the standard libraries.
        // (The kernel retains task state after the run.)
        let log = k.measurement_log(pid).unwrap();
        assert!(log
            .entries()
            .iter()
            .any(|m| m.kind == ImageKind::Executable));
        assert!(log
            .entries()
            .iter()
            .any(|m| m.kind == ImageKind::SharedLibrary));
    }

    #[test]
    fn fork_wait_round_trip() {
        let cfg = small_config();
        let child_work = secs(&cfg, 0.01);
        let mut k = Kernel::new(cfg);
        // Parent forks one child, waits for it, computes a little, exits.
        let parent = OpsProgram::new(
            "parent",
            vec![
                Op::Syscall(SyscallOp::Fork {
                    child: Box::new(OpsProgram::compute_only("child", child_work)),
                    nice: 0,
                }),
                Op::Syscall(SyscallOp::Wait),
                Op::Compute {
                    cycles: Cycles(10_000),
                },
            ],
        );
        let pid = k.spawn_process(Box::new(parent), 0);
        let result = k.run();
        assert!(!result.hit_horizon);
        assert_eq!(result.stats.tasks_created, 2);
        assert_eq!(result.stats.tasks_exited, 2);
        let child = result.processes.iter().find(|p| p.name == "child").unwrap();
        assert!(child.ground_truth().total() >= child_work);
        assert!(result.process(pid).is_some());
    }

    #[test]
    fn threads_share_a_thread_group() {
        let cfg = small_config();
        let work = secs(&cfg, 0.05);
        let mut k = Kernel::new(cfg);
        let main = OpsProgram::new(
            "threaded",
            vec![
                Op::Syscall(SyscallOp::SpawnThread {
                    thread: Box::new(OpsProgram::compute_only("threaded", work)),
                }),
                Op::Syscall(SyscallOp::SpawnThread {
                    thread: Box::new(OpsProgram::compute_only("threaded", work)),
                }),
                Op::Compute { cycles: work },
                Op::Syscall(SyscallOp::Wait),
                Op::Syscall(SyscallOp::Wait),
            ],
        );
        let pid = k.spawn_process(Box::new(main), 0);
        let result = k.run();
        let p = result.process(pid).unwrap();
        assert_eq!(p.threads, 3);
        // Group usage includes all three threads' work.
        assert!(p.ground_truth().total().as_f64() >= 3.0 * work.as_f64() * 0.99);
    }

    #[test]
    fn nanosleep_does_not_consume_cpu() {
        let cfg = small_config();
        let mut k = Kernel::new(cfg.clone());
        let prog = OpsProgram::new(
            "sleeper",
            vec![
                Op::Syscall(SyscallOp::Nanosleep {
                    duration: Nanos::from_millis(50),
                }),
                Op::Compute {
                    cycles: Cycles(1_000),
                },
            ],
        );
        let pid = k.spawn_process(Box::new(prog), 0);
        let result = k.run();
        let p = result.process(pid).unwrap();
        // Elapsed at least 50 ms, but CPU far less.
        assert!(result.finished_at >= cfg.frequency.cycles_for(Nanos::from_millis(50)));
        assert!(p.ground_truth().total().as_f64() < secs(&cfg, 0.02).as_f64());
    }

    #[test]
    fn idle_tick_coalescing_skips_jiffies_but_respects_the_horizon() {
        let cfg = small_config().with_horizon_secs(0.05);
        let mut k = Kernel::new(cfg.clone());
        // One task that sleeps far past the horizon: the kernel idles with
        // only the timer tick and the distant wake event pending.
        let prog = OpsProgram::new(
            "sleeper",
            vec![
                Op::Syscall(SyscallOp::Nanosleep {
                    duration: Nanos::from_secs(10),
                }),
                Op::Compute {
                    cycles: Cycles(1_000),
                },
            ],
        );
        k.spawn_process(Box::new(prog), 0);
        let result = k.run();
        assert!(result.hit_horizon);
        assert!(
            result.stats.ticks_coalesced > 0,
            "idle jiffies must be coalesced"
        );
        // The clock stops at (a jiffy past) the horizon instead of jumping
        // to the wake event 10 virtual seconds away.
        let horizon = cfg.horizon().as_f64();
        assert!(
            result.finished_at.as_f64() <= horizon + 2.0 * cfg.jiffy().as_f64(),
            "finished at {} vs horizon {horizon}",
            result.finished_at
        );
    }

    #[test]
    fn disk_io_blocks_and_interrupt_is_owned() {
        let cfg = small_config();
        let mut k = Kernel::new(cfg);
        let prog = OpsProgram::new(
            "reader",
            vec![
                Op::Syscall(SyscallOp::Read { bytes: 64 * 1024 }),
                Op::Compute {
                    cycles: Cycles(1_000),
                },
            ],
        );
        let pid = k.spawn_process(Box::new(prog), 0);
        let result = k.run();
        assert!(result.stats.device_interrupts >= 1);
        let p = result.process(pid).unwrap();
        assert!(p.ground_truth().total() > Cycles::ZERO);
    }

    #[test]
    fn getrusage_reports_tick_usage() {
        let cfg = small_config();
        let work = secs(&cfg, 0.1);
        let mut k = Kernel::new(cfg);
        struct CheckRusage {
            work: Cycles,
            step: u32,
            observed: Option<(Cycles, Cycles)>,
        }
        impl Program for CheckRusage {
            fn name(&self) -> &str {
                "rusage-check"
            }
            fn next_op(&mut self, ctx: &mut crate::program::ProgramCtx<'_>) -> Option<Op> {
                self.step += 1;
                match self.step {
                    1 => Some(Op::Compute { cycles: self.work }),
                    2 => Some(Op::Syscall(SyscallOp::Getrusage)),
                    3 => {
                        if let OpOutcome::Rusage { utime, stime } = ctx.last {
                            self.observed = Some((utime, stime));
                        }
                        None
                    }
                    _ => None,
                }
            }
        }
        let pid = k.spawn_process(
            Box::new(CheckRusage {
                work,
                step: 0,
                observed: None,
            }),
            0,
        );
        let result = k.run();
        // The process consumed the work plus overheads; getrusage (not
        // directly observable here) must at least not have crashed and the
        // run completed.
        assert!(result.process(pid).unwrap().billed().total() > Cycles::ZERO);
    }

    #[test]
    fn ptrace_attach_breakpoint_and_thrash_round() {
        let cfg = small_config();
        let mut k = Kernel::new(cfg);
        // Victim accesses a watched variable 50 times between computations.
        // The first computation spans a few timer ticks so the tracer gets a
        // chance to attach before the accesses start.
        let victim = OpsProgram::new(
            "victim",
            vec![
                Op::Compute {
                    cycles: Cycles(30_000_000),
                },
                Op::AccessWatched {
                    addr: 0x6000_1000,
                    count: 50,
                },
                Op::Compute {
                    cycles: Cycles(500_000),
                },
            ],
        );
        let victim_pid = k.spawn_process(Box::new(victim), 0);
        // Tracer: attach, set breakpoint, then cont in a loop.
        struct Tracer {
            target: TaskId,
            state: u32,
        }
        impl Program for Tracer {
            fn name(&self) -> &str {
                "tracer"
            }
            fn next_op(&mut self, ctx: &mut crate::program::ProgramCtx<'_>) -> Option<Op> {
                match self.state {
                    0 => {
                        self.state = 1;
                        Some(Op::Syscall(SyscallOp::PtraceAttach {
                            target: self.target,
                        }))
                    }
                    1 => {
                        self.state = 2;
                        Some(Op::Syscall(SyscallOp::Wait))
                    }
                    2 => {
                        self.state = 3;
                        Some(Op::Syscall(SyscallOp::PtraceSetBreakpoint {
                            target: self.target,
                            addr: 0x6000_1000,
                        }))
                    }
                    _ => match ctx.last {
                        OpOutcome::ChildStopped(_) | OpOutcome::Completed
                            // Alternate cont / wait until the tracee dies.
                            if self.state % 2 == 1 => {
                                self.state += 1;
                                Some(Op::Syscall(SyscallOp::PtraceCont { target: self.target }))
                            }
                        OpOutcome::Failed | OpOutcome::NoChildren | OpOutcome::ChildExited(_) => None,
                        _ => {
                            self.state += 1;
                            Some(Op::Syscall(SyscallOp::Wait))
                        }
                    },
                }
            }
        }
        k.spawn_raw(
            Box::new(Tracer {
                target: victim_pid,
                state: 0,
            }),
            0,
        );
        let result = k.run();
        assert!(!result.hit_horizon);
        assert!(
            result.stats.debug_traps >= 50,
            "traps: {}",
            result.stats.debug_traps
        );
        let victim_usage = result.process(victim_pid).unwrap();
        // Thrashing produces system time on the victim.
        assert!(victim_usage.ground_truth().stime > Cycles::ZERO);
    }

    #[test]
    fn zero_time_guard_leaves_a_watched_access_for_the_next_slice() {
        let cfg = small_config();
        // Ten thousand costless ops, then a watched access lowered just as
        // the guard ends the slice: it stays queued, the clock jumps to
        // the slice deadline, and the access runs when the task resumes.
        let mut ops: Vec<Op> = (0..10_000).map(|_| Op::Label { block: "spin" }).collect();
        ops.push(Op::AccessWatched {
            addr: 0x6000_1000,
            count: 7,
        });
        let mut k = Kernel::new(cfg.clone());
        let pid = k.spawn_process(Box::new(OpsProgram::new("spinner", ops)), 0);
        let result = k.run();
        assert!(!result.hit_horizon);
        assert!(
            result.finished_at >= cfg.jiffy(),
            "the guard advanced the clock"
        );
        assert_eq!(result.stats.debug_traps, 0);
        assert_eq!(result.process(pid).unwrap().exit_code, Some(0));
        assert_eq!(k.task(pid).unwrap().ops_executed, 10_001);
        assert_eq!(
            k.witness(pid).unwrap().len(),
            10_000 + 4,
            "labels + launch steps"
        );
    }

    #[test]
    fn interrupt_flood_inflates_victim_system_time_under_tick_and_tsc() {
        let cfg = small_config();
        let work = secs(&cfg, 0.2);
        // Clean run.
        let mut clean = Kernel::new(cfg.clone());
        let v1 = clean.spawn_process(Box::new(OpsProgram::compute_only("victim", work)), 0);
        let clean_result = clean.run();
        // Flooded run.
        let mut attacked = Kernel::new(cfg.clone());
        attacked.set_nic_flood(NicFlood::steady(50_000.0));
        let v2 = attacked.spawn_process(Box::new(OpsProgram::compute_only("victim", work)), 0);
        let attacked_result = attacked.run();

        let clean_billed = clean_result.process(v1).unwrap().billed();
        let attacked_billed = attacked_result.process(v2).unwrap().billed();
        assert!(
            attacked_billed.total() > clean_billed.total(),
            "flood should inflate billed time: {attacked_billed:?} vs {clean_billed:?}"
        );
        // The process-aware scheme does not bill the victim for the junk
        // interrupts.
        let pa_attacked = attacked_result
            .process(v2)
            .unwrap()
            .usage(SchemeKind::ProcessAware);
        let tsc_attacked = attacked_result.process(v2).unwrap().usage(SchemeKind::Tsc);
        assert!(pa_attacked.stime < tsc_attacked.stime);
        assert!(attacked_result.stats.device_interrupts > 100);
    }

    #[test]
    fn loop_program_runs_to_completion() {
        let cfg = small_config();
        let mut k = Kernel::new(cfg);
        let prog = LoopProgram::new("looper", 100, |_| {
            vec![Op::Compute {
                cycles: Cycles(100_000),
            }]
        });
        let pid = k.spawn_process(Box::new(prog), 0);
        let result = k.run();
        let p = result.process(pid).unwrap();
        assert!(p.ground_truth().total() >= Cycles(10_000_000));
    }

    #[test]
    fn horizon_stops_runaway_programs() {
        let cfg = small_config().with_horizon_secs(0.05);
        let mut k = Kernel::new(cfg);
        let prog = LoopProgram::new("forever", u64::MAX, |_| {
            vec![Op::Compute {
                cycles: Cycles(1_000_000),
            }]
        });
        k.spawn_process(Box::new(prog), 0);
        let result = k.run();
        assert!(result.hit_horizon);
    }

    #[test]
    fn kill_terminates_target() {
        let cfg = small_config();
        let mut k = Kernel::new(cfg.clone());
        let victim = k.spawn_process(
            Box::new(OpsProgram::compute_only("victim", secs(&cfg, 5.0))),
            0,
        );
        let killer = OpsProgram::new(
            "killer",
            vec![
                Op::Compute {
                    cycles: Cycles(1_000_000),
                },
                Op::Syscall(SyscallOp::Kill {
                    target: victim,
                    signal: Signal::Kill,
                }),
            ],
        );
        k.spawn_raw(Box::new(killer), -5);
        let result = k.run();
        assert!(!result.hit_horizon);
        let v = result.process(victim).unwrap();
        // The victim was killed long before finishing 5 s of work.
        assert!(v.ground_truth().total().as_f64() < secs(&cfg, 5.0).as_f64());
        assert_eq!(v.exit_code, Some(128 + 9));
    }

    #[test]
    fn conservation_between_tick_and_tsc_totals() {
        // Whatever the scheme, the total accounted busy time should be close:
        // ticks sample the same execution the TSC measures exactly.
        let cfg = small_config();
        let mut k = Kernel::new(cfg.clone());
        k.spawn_process(Box::new(OpsProgram::compute_only("a", secs(&cfg, 0.3))), 0);
        k.spawn_process(Box::new(OpsProgram::compute_only("b", secs(&cfg, 0.2))), -5);
        let result = k.run();
        let tick_total: f64 = result
            .processes
            .iter()
            .map(|p| p.usage(SchemeKind::Tick).total().as_f64())
            .sum();
        let tsc_total: f64 = result
            .processes
            .iter()
            .map(|p| p.usage(SchemeKind::Tsc).total().as_f64())
            .sum();
        let rel = (tick_total - tsc_total).abs() / tsc_total;
        assert!(rel < 0.05, "tick {tick_total} vs tsc {tsc_total}");
    }
}
