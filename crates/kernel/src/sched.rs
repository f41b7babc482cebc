//! CPU schedulers.
//!
//! Two schedulers are provided:
//!
//! * [`FairShareScheduler`] (the default) — a per-jiffy proportional-share
//!   scheduler with *tick-quantised preemption*: scheduling decisions are
//!   taken when the running task blocks or exits and at every timer tick,
//!   never in the middle of a jiffy because of a wakeup. Each task's share
//!   of a jiffy is proportional to its nice-derived weight, and tasks that
//!   recently blocked voluntarily (interactive/sleeper credit) are preferred
//!   at equal remaining entitlement. These two properties — whole-jiffy
//!   charging by the tick accountant plus attackers that run right after
//!   the tick and relinquish before the next one — are what the paper's
//!   process-scheduling attack exploits (§IV-B1).
//! * [`CfsScheduler`] — a vruntime-based scheduler with immediate wakeup
//!   preemption, used by the scheduler ablation (E12) to show how the choice
//!   of scheduler changes the attack's effectiveness.
//!
//! The scheduler only manages *ready* tasks; the kernel tells it when tasks
//! are created, become runnable, block, or exit, and asks it to pick the
//! next task to run.

use crate::config::SchedulerKind;
use crate::task::PidSlab;
use trustmeter_core::TaskId;
use trustmeter_sim::Cycles;

/// Weight derived from a nice value, O(1)-scheduler style: the default
/// timeslice in milliseconds, `(20 − nice) × 5`, clamped to ≥ 5.
///
/// nice 0 → 100, nice −20 → 200, nice 19 → 5.
pub fn nice_to_weight(nice: i8) -> u64 {
    let ts = (20 - nice as i64) * 5;
    ts.max(5) as u64
}

/// CFS-style weight, approximately `1024 × 1.25^(−nice)`.
pub fn nice_to_cfs_weight(nice: i8) -> u64 {
    let w = 1024.0 * 1.25f64.powi(-(nice as i32));
    w.round().max(15.0) as u64
}

/// The interface the kernel uses to drive a scheduler.
pub trait Scheduler: Send {
    /// Which scheduler this is.
    fn kind(&self) -> SchedulerKind;

    /// Registers a new task.
    fn task_created(&mut self, id: TaskId, nice: i8, now: Cycles);

    /// Forgets a task entirely (exit).
    fn task_removed(&mut self, id: TaskId);

    /// Updates a task's nice value.
    fn set_nice(&mut self, id: TaskId, nice: i8);

    /// Marks a task runnable. Returns `true` if the scheduler wants the
    /// currently running task preempted right now (only the CFS scheduler
    /// ever asks for that).
    fn enqueue(&mut self, id: TaskId, now: Cycles, current: Option<TaskId>) -> bool;

    /// Removes a task from the ready set (it blocked or stopped before
    /// being picked).
    fn dequeue(&mut self, id: TaskId);

    /// Charges `ran` cycles of CPU consumption to a task.
    fn charge(&mut self, id: TaskId, ran: Cycles);

    /// Notes that a task blocked voluntarily (sleeper credit).
    fn note_voluntary_block(&mut self, id: TaskId, now: Cycles);

    /// Timer tick: returns `true` if the current task should be preempted.
    fn on_tick(&mut self, now: Cycles, current: Option<TaskId>) -> bool;

    /// Picks (and removes from the ready set) the next task to run.
    fn pick_next(&mut self, now: Cycles) -> Option<TaskId>;

    /// Number of ready tasks.
    fn ready_count(&self) -> usize;
}

/// Constructs the scheduler selected by `kind`.
pub fn build_scheduler(kind: SchedulerKind, jiffy: Cycles) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::FairShare => Box::new(FairShareScheduler::new(jiffy)),
        SchedulerKind::Cfs => Box::new(CfsScheduler::new(jiffy)),
    }
}

// ---------------------------------------------------------------------------
// Fair-share scheduler
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct FairTask {
    weight: u64,
    used_this_jiffy: Cycles,
    sleeper_seq: u64,
    last_picked_seq: u64,
    ready: bool,
}

/// Per-jiffy proportional-share scheduler with tick-quantised preemption.
///
/// # Example
///
/// ```
/// use trustmeter_kernel::sched::{FairShareScheduler, Scheduler};
/// use trustmeter_core::TaskId;
/// use trustmeter_sim::Cycles;
///
/// let mut s = FairShareScheduler::new(Cycles(1_000));
/// s.task_created(TaskId(1), 0, Cycles(0));
/// s.task_created(TaskId(2), -10, Cycles(0));
/// s.enqueue(TaskId(1), Cycles(0), None);
/// s.enqueue(TaskId(2), Cycles(0), None);
/// // The higher-priority task (larger weight) is picked first.
/// assert_eq!(s.pick_next(Cycles(0)), Some(TaskId(2)));
/// ```
#[derive(Debug)]
pub struct FairShareScheduler {
    jiffy: Cycles,
    tasks: PidSlab<FairTask>,
    sleep_counter: u64,
    pick_counter: u64,
}

impl FairShareScheduler {
    /// Creates a fair-share scheduler for the given jiffy length.
    pub fn new(jiffy: Cycles) -> FairShareScheduler {
        FairShareScheduler {
            jiffy,
            tasks: PidSlab::default(),
            sleep_counter: 0,
            pick_counter: 0,
        }
    }

    /// Remaining per-jiffy entitlement of a task, in cycles, given the total
    /// weight of all ready tasks (plus the current one).
    fn remaining_entitlement(&self, t: &FairTask, total_weight: u64) -> i128 {
        let entitled = self.jiffy.as_u64() as i128 * t.weight as i128 / total_weight.max(1) as i128;
        entitled - t.used_this_jiffy.as_u64() as i128
    }

    fn total_ready_weight(&self, extra: Option<TaskId>) -> u64 {
        self.tasks
            .iter()
            .filter(|(id, t)| t.ready || Some(*id) == extra)
            .map(|(_, t)| t.weight)
            .sum()
    }
}

impl Scheduler for FairShareScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::FairShare
    }

    fn task_created(&mut self, id: TaskId, nice: i8, _now: Cycles) {
        self.tasks.insert(
            id,
            FairTask {
                weight: nice_to_weight(nice),
                used_this_jiffy: Cycles::ZERO,
                sleeper_seq: 0,
                last_picked_seq: 0,
                ready: false,
            },
        );
    }

    fn task_removed(&mut self, id: TaskId) {
        self.tasks.remove(id);
    }

    fn set_nice(&mut self, id: TaskId, nice: i8) {
        if let Some(t) = self.tasks.get_mut(id) {
            t.weight = nice_to_weight(nice);
        }
    }

    fn enqueue(&mut self, id: TaskId, _now: Cycles, _current: Option<TaskId>) -> bool {
        if let Some(t) = self.tasks.get_mut(id) {
            t.ready = true;
        }
        // Tick-quantised preemption: wakeups never preempt the running task.
        false
    }

    fn dequeue(&mut self, id: TaskId) {
        if let Some(t) = self.tasks.get_mut(id) {
            t.ready = false;
        }
    }

    fn charge(&mut self, id: TaskId, ran: Cycles) {
        if let Some(t) = self.tasks.get_mut(id) {
            t.used_this_jiffy += ran;
        }
    }

    fn note_voluntary_block(&mut self, id: TaskId, _now: Cycles) {
        self.sleep_counter += 1;
        let seq = self.sleep_counter;
        if let Some(t) = self.tasks.get_mut(id) {
            t.sleeper_seq = seq;
        }
    }

    fn on_tick(&mut self, _now: Cycles, current: Option<TaskId>) -> bool {
        // New jiffy: everyone's entitlement is replenished.
        for t in self.tasks.values_mut() {
            t.used_this_jiffy = Cycles::ZERO;
        }
        // Preempt the current task if any ready task is at least as entitled
        // (higher weight, or equal weight with sleeper credit) — this is
        // where round-robin among equals and priority preemption happen.
        let Some(cur) = current else {
            return self.ready_count() > 0;
        };
        let Some(cur_t) = self.tasks.get(cur) else {
            return self.ready_count() > 0;
        };
        self.tasks
            .iter()
            .filter(|(id, t)| t.ready && *id != cur)
            .any(|(_, t)| t.weight >= cur_t.weight)
    }

    fn pick_next(&mut self, _now: Cycles) -> Option<TaskId> {
        let total_weight = self.total_ready_weight(None);
        let best = self
            .tasks
            .iter()
            .filter(|(_, t)| t.ready)
            .max_by(|(aid, a), (bid, b)| {
                let ra = self.remaining_entitlement(a, total_weight);
                let rb = self.remaining_entitlement(b, total_weight);
                ra.cmp(&rb)
                    .then(a.sleeper_seq.cmp(&b.sleeper_seq))
                    // Round-robin among otherwise-equal tasks: prefer the one
                    // picked least recently.
                    .then(b.last_picked_seq.cmp(&a.last_picked_seq))
                    .then(a.weight.cmp(&b.weight))
                    .then(bid.cmp(aid)) // lower id wins the final tie
            })
            .map(|(id, _)| id)?;
        self.pick_counter += 1;
        let seq = self.pick_counter;
        if let Some(t) = self.tasks.get_mut(best) {
            t.ready = false;
            t.last_picked_seq = seq;
        }
        Some(best)
    }

    fn ready_count(&self) -> usize {
        self.tasks.values().filter(|t| t.ready).count()
    }
}

// ---------------------------------------------------------------------------
// CFS-like scheduler
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct CfsTask {
    weight: u64,
    vruntime: u128,
    ready: bool,
}

/// vruntime-based scheduler with immediate wakeup preemption (ablation).
#[derive(Debug)]
pub struct CfsScheduler {
    tasks: PidSlab<CfsTask>,
    /// Wakeup/tick preemption granularity in weighted nanoseconds-equivalent
    /// cycles (vruntime units).
    granularity: u128,
    /// Sleeper placement bonus subtracted from `min_vruntime` on wakeup.
    sleeper_bonus: u128,
}

impl CfsScheduler {
    /// Creates a CFS-like scheduler; `jiffy` calibrates the preemption
    /// granularity (half a jiffy) and sleeper bonus (one jiffy).
    pub fn new(jiffy: Cycles) -> CfsScheduler {
        CfsScheduler {
            tasks: PidSlab::default(),
            granularity: jiffy.as_u64() as u128 / 2,
            sleeper_bonus: jiffy.as_u64() as u128,
        }
    }

    fn min_ready_vruntime(&self) -> Option<u128> {
        self.tasks
            .values()
            .filter(|t| t.ready)
            .map(|t| t.vruntime)
            .min()
    }

    fn min_vruntime_all(&self) -> u128 {
        self.tasks.values().map(|t| t.vruntime).min().unwrap_or(0)
    }
}

impl Scheduler for CfsScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Cfs
    }

    fn task_created(&mut self, id: TaskId, nice: i8, _now: Cycles) {
        let min = self.min_vruntime_all();
        self.tasks.insert(
            id,
            CfsTask {
                weight: nice_to_cfs_weight(nice),
                vruntime: min,
                ready: false,
            },
        );
    }

    fn task_removed(&mut self, id: TaskId) {
        self.tasks.remove(id);
    }

    fn set_nice(&mut self, id: TaskId, nice: i8) {
        if let Some(t) = self.tasks.get_mut(id) {
            t.weight = nice_to_cfs_weight(nice);
        }
    }

    fn enqueue(&mut self, id: TaskId, _now: Cycles, current: Option<TaskId>) -> bool {
        let min = self.min_vruntime_all();
        let bonus = self.sleeper_bonus;
        let Some(t) = self.tasks.get_mut(id) else {
            return false;
        };
        t.vruntime = t.vruntime.max(min.saturating_sub(bonus));
        t.ready = true;
        let woken_vruntime = t.vruntime;
        // Immediate wakeup preemption when the woken task is sufficiently
        // behind the current task.
        match current.and_then(|c| self.tasks.get(c)) {
            Some(cur) => woken_vruntime + self.granularity < cur.vruntime,
            None => false,
        }
    }

    fn dequeue(&mut self, id: TaskId) {
        if let Some(t) = self.tasks.get_mut(id) {
            t.ready = false;
        }
    }

    fn charge(&mut self, id: TaskId, ran: Cycles) {
        if let Some(t) = self.tasks.get_mut(id) {
            t.vruntime += ran.as_u64() as u128 * 1024 / t.weight as u128;
        }
    }

    fn note_voluntary_block(&mut self, _id: TaskId, _now: Cycles) {}

    fn on_tick(&mut self, _now: Cycles, current: Option<TaskId>) -> bool {
        let Some(cur) = current.and_then(|c| self.tasks.get(c)) else {
            return self.ready_count() > 0;
        };
        match self.min_ready_vruntime() {
            Some(min) => min + self.granularity < cur.vruntime,
            None => false,
        }
    }

    fn pick_next(&mut self, _now: Cycles) -> Option<TaskId> {
        let best = self
            .tasks
            .iter()
            .filter(|(_, t)| t.ready)
            .min_by(|(aid, a), (bid, b)| a.vruntime.cmp(&b.vruntime).then(aid.cmp(bid)))
            .map(|(id, _)| id)?;
        if let Some(t) = self.tasks.get_mut(best) {
            t.ready = false;
        }
        Some(best)
    }

    fn ready_count(&self) -> usize {
        self.tasks.values().filter(|t| t.ready).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_tables() {
        assert_eq!(nice_to_weight(0), 100);
        assert_eq!(nice_to_weight(-20), 200);
        assert_eq!(nice_to_weight(19), 5);
        assert!(nice_to_weight(-10) > nice_to_weight(0));
        assert_eq!(nice_to_cfs_weight(0), 1024);
        assert!(nice_to_cfs_weight(-5) > 3 * nice_to_cfs_weight(0) - 200);
        assert!(nice_to_cfs_weight(19) >= 15);
    }

    #[test]
    fn fair_share_prefers_higher_weight_then_sleepers() {
        let mut s = FairShareScheduler::new(Cycles(1_000));
        s.task_created(TaskId(1), 0, Cycles(0));
        s.task_created(TaskId(2), 0, Cycles(0));
        s.task_created(TaskId(3), -10, Cycles(0));
        for id in [1, 2, 3] {
            s.enqueue(TaskId(id), Cycles(0), None);
        }
        // Higher weight first.
        assert_eq!(s.pick_next(Cycles(0)), Some(TaskId(3)));
        // Among equals, a recent sleeper wins.
        s.note_voluntary_block(TaskId(2), Cycles(0));
        assert_eq!(s.pick_next(Cycles(0)), Some(TaskId(2)));
        assert_eq!(s.pick_next(Cycles(0)), Some(TaskId(1)));
        assert_eq!(s.pick_next(Cycles(0)), None);
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn fair_share_entitlement_depletes_within_jiffy() {
        let jiffy = Cycles(1_000);
        let mut s = FairShareScheduler::new(jiffy);
        s.task_created(TaskId(1), 0, Cycles(0)); // victim
        s.task_created(TaskId(2), 0, Cycles(0)); // attacker
        s.enqueue(TaskId(1), Cycles(0), None);
        s.enqueue(TaskId(2), Cycles(0), None);
        s.note_voluntary_block(TaskId(2), Cycles(0)); // attacker has sleeper credit
                                                      // Attacker picked first, consumes more than its 50% entitlement.
        assert_eq!(s.pick_next(Cycles(0)), Some(TaskId(2)));
        s.charge(TaskId(2), Cycles(600));
        s.enqueue(TaskId(2), Cycles(600), None);
        // Now the victim has more remaining entitlement.
        assert_eq!(s.pick_next(Cycles(600)), Some(TaskId(1)));
        // After the tick, entitlements reset and the sleeper is preferred again.
        s.enqueue(TaskId(1), Cycles(1_000), None);
        let resched = s.on_tick(Cycles(1_000), None);
        assert!(resched);
        assert_eq!(s.pick_next(Cycles(1_000)), Some(TaskId(2)));
    }

    #[test]
    fn fair_share_wakeup_never_preempts() {
        let mut s = FairShareScheduler::new(Cycles(1_000));
        s.task_created(TaskId(1), 0, Cycles(0));
        s.task_created(TaskId(2), -20, Cycles(0));
        let preempt = s.enqueue(TaskId(2), Cycles(10), Some(TaskId(1)));
        assert!(!preempt);
    }

    #[test]
    fn fair_share_tick_preempts_for_equal_or_higher_weight() {
        let mut s = FairShareScheduler::new(Cycles(1_000));
        s.task_created(TaskId(1), 0, Cycles(0));
        s.task_created(TaskId(2), 0, Cycles(0));
        s.enqueue(TaskId(2), Cycles(0), Some(TaskId(1)));
        assert!(s.on_tick(Cycles(1_000), Some(TaskId(1))));
        // A strictly lower-weight waiter does not preempt.
        let mut s2 = FairShareScheduler::new(Cycles(1_000));
        s2.task_created(TaskId(1), -10, Cycles(0));
        s2.task_created(TaskId(2), 5, Cycles(0));
        s2.enqueue(TaskId(2), Cycles(0), Some(TaskId(1)));
        assert!(!s2.on_tick(Cycles(1_000), Some(TaskId(1))));
    }

    #[test]
    fn fair_share_idle_tick_reschedules_when_work_exists() {
        let mut s = FairShareScheduler::new(Cycles(1_000));
        s.task_created(TaskId(1), 0, Cycles(0));
        assert!(!s.on_tick(Cycles(1_000), None));
        s.enqueue(TaskId(1), Cycles(0), None);
        assert!(s.on_tick(Cycles(2_000), None));
    }

    #[test]
    fn set_nice_and_removal() {
        let mut s = FairShareScheduler::new(Cycles(1_000));
        s.task_created(TaskId(1), 0, Cycles(0));
        s.task_created(TaskId(2), 0, Cycles(0));
        s.set_nice(TaskId(2), -20);
        s.enqueue(TaskId(1), Cycles(0), None);
        s.enqueue(TaskId(2), Cycles(0), None);
        assert_eq!(s.pick_next(Cycles(0)), Some(TaskId(2)));
        s.task_removed(TaskId(1));
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn cfs_picks_min_vruntime_and_charges_by_weight() {
        let mut s = CfsScheduler::new(Cycles(1_000));
        s.task_created(TaskId(1), 0, Cycles(0));
        s.task_created(TaskId(2), 0, Cycles(0));
        s.enqueue(TaskId(1), Cycles(0), None);
        s.enqueue(TaskId(2), Cycles(0), None);
        let first = s.pick_next(Cycles(0)).unwrap();
        s.charge(first, Cycles(500));
        s.enqueue(first, Cycles(500), None);
        let second = s.pick_next(Cycles(500)).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn cfs_wakeup_preemption_depends_on_gap() {
        let mut s = CfsScheduler::new(Cycles(1_000));
        s.task_created(TaskId(1), 0, Cycles(0));
        s.task_created(TaskId(2), 0, Cycles(0));
        // Current task 1 accumulates lots of vruntime.
        s.charge(TaskId(1), Cycles(10_000));
        let preempt = s.enqueue(TaskId(2), Cycles(0), Some(TaskId(1)));
        assert!(preempt);
        // A freshly created task at the same vruntime does not preempt.
        let mut s2 = CfsScheduler::new(Cycles(1_000));
        s2.task_created(TaskId(1), 0, Cycles(0));
        s2.task_created(TaskId(2), 0, Cycles(0));
        assert!(!s2.enqueue(TaskId(2), Cycles(0), Some(TaskId(1))));
    }

    #[test]
    fn cfs_tick_preemption() {
        let mut s = CfsScheduler::new(Cycles(1_000));
        s.task_created(TaskId(1), 0, Cycles(0));
        s.task_created(TaskId(2), 0, Cycles(0));
        s.enqueue(TaskId(2), Cycles(0), None);
        assert!(!s.on_tick(Cycles(0), Some(TaskId(1))));
        s.charge(TaskId(1), Cycles(5_000));
        assert!(s.on_tick(Cycles(1_000), Some(TaskId(1))));
        assert_eq!(s.kind(), SchedulerKind::Cfs);
    }

    #[test]
    fn build_scheduler_dispatches() {
        assert_eq!(
            build_scheduler(SchedulerKind::FairShare, Cycles(10)).kind(),
            SchedulerKind::FairShare
        );
        assert_eq!(
            build_scheduler(SchedulerKind::Cfs, Cycles(10)).kind(),
            SchedulerKind::Cfs
        );
    }
}
