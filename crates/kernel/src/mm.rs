//! Virtual-memory subsystem: resident sets, global reclaim, swap pressure.
//!
//! The model is intentionally coarse — just rich enough to reproduce the
//! exception-flooding attack (§IV-B4): a memory-hog process allocates more
//! memory than the machine has, the global reclaimer evicts other tasks'
//! resident pages, and the victim's subsequent memory touches turn into
//! major page faults whose kernel service time (plus synchronous swap-in
//! cost) is billed to the victim's system time.

use crate::task::{PidSlab, TaskMem};
use trustmeter_core::TaskId;

/// The outcome of a batch of page touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultBatch {
    /// Touches satisfied from the resident set.
    pub hits: u64,
    /// Minor faults (page present in page cache / needs mapping only).
    pub minor_faults: u64,
    /// Major faults (page must be read back from swap).
    pub major_faults: u64,
}

impl FaultBatch {
    /// Total faults of either kind.
    pub fn total_faults(&self) -> u64 {
        self.minor_faults + self.major_faults
    }
}

/// Global physical-memory manager.
///
/// # Example
///
/// ```
/// use trustmeter_kernel::mm::MemoryManager;
/// use trustmeter_core::TaskId;
///
/// let mut mm = MemoryManager::new(1_000);
/// mm.register(TaskId(1));
/// mm.allocate(TaskId(1), 500);
/// let batch = mm.touch(TaskId(1), 100);
/// assert_eq!(batch.total_faults(), 0); // plenty of memory: everything resident
/// ```
#[derive(Debug)]
pub struct MemoryManager {
    physical_pages: u64,
    tasks: PidSlab<TaskMem>,
    /// Sum of every task's `resident_pages`, kept as they change so a
    /// touch does not sum every task.
    resident_total: u64,
    /// Total major faults serviced (statistics).
    pub major_faults: u64,
    /// Total minor faults serviced (statistics).
    pub minor_faults: u64,
}

impl MemoryManager {
    /// Creates a manager for a machine with `physical_pages` pages of RAM.
    ///
    /// # Panics
    /// Panics if `physical_pages` is zero.
    pub fn new(physical_pages: u64) -> MemoryManager {
        assert!(physical_pages > 0, "physical memory must be non-empty");
        MemoryManager {
            physical_pages,
            tasks: PidSlab::default(),
            resident_total: 0,
            major_faults: 0,
            minor_faults: 0,
        }
    }

    /// Registers a task with an empty address space.
    pub fn register(&mut self, task: TaskId) {
        if !self.tasks.contains(task) {
            self.tasks.insert(task, TaskMem::default());
        }
    }

    /// Releases a task's memory (exit).
    pub fn release(&mut self, task: TaskId) {
        if let Some(m) = self.tasks.remove(task) {
            self.resident_total -= m.resident_pages;
        }
    }

    /// Total pages currently resident across all tasks.
    pub fn resident_total(&self) -> u64 {
        self.resident_total
    }

    /// Free physical pages.
    pub fn free_pages(&self) -> u64 {
        self.physical_pages.saturating_sub(self.resident_total())
    }

    /// Memory pressure in `[0, 1]`: the fraction of physical memory in use.
    pub fn pressure(&self) -> f64 {
        self.resident_total() as f64 / self.physical_pages as f64
    }

    /// A task's memory bookkeeping.
    pub fn task_mem(&self, task: TaskId) -> TaskMem {
        self.tasks.get(task).copied().unwrap_or_default()
    }

    /// Grows a task's footprint by `pages` and makes the new pages resident,
    /// reclaiming from the largest other resident sets when RAM runs out.
    /// Returns the number of pages that had to be reclaimed (stolen) from
    /// other tasks.
    pub fn allocate(&mut self, task: TaskId, pages: u64) -> u64 {
        self.register(task);
        {
            let m = self.tasks.get_mut(task).expect("registered above");
            m.allocated_pages += pages;
        }
        self.make_resident(task, pages)
    }

    /// Makes `pages` pages of `task` resident, reclaiming from others if
    /// needed. Returns pages reclaimed from other tasks.
    fn make_resident(&mut self, task: TaskId, pages: u64) -> u64 {
        let mut reclaimed_total = 0;
        let free = self.free_pages();
        let shortfall = pages.saturating_sub(free);
        if shortfall > 0 {
            reclaimed_total = self.reclaim(shortfall, task);
        }
        let available = self.free_pages().min(pages);
        let m = self.tasks.get_mut(task).expect("task registered");
        let before = m.resident_pages;
        m.resident_pages = (before + available).min(m.allocated_pages);
        self.resident_total = self.resident_total - before + m.resident_pages;
        reclaimed_total
    }

    /// Evicts up to `pages` resident pages from tasks other than `exempt`,
    /// preferring the largest resident sets (a global LRU approximation).
    fn reclaim(&mut self, pages: u64, exempt: TaskId) -> u64 {
        let mut remaining = pages;
        let mut reclaimed = 0;
        // Collect victims ordered by resident size, largest first.
        let mut victims: Vec<(TaskId, u64)> = self
            .tasks
            .iter()
            .filter(|(id, m)| *id != exempt && m.resident_pages > 0)
            .map(|(id, m)| (id, m.resident_pages))
            .collect();
        victims.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (victim, resident) in victims {
            if remaining == 0 {
                break;
            }
            let take = resident.min(remaining);
            if let Some(m) = self.tasks.get_mut(victim) {
                m.resident_pages -= take;
                self.resident_total -= take;
            }
            remaining -= take;
            reclaimed += take;
        }
        reclaimed
    }

    /// Touches `pages` pages of `task`'s working set and classifies the
    /// touches into hits, minor faults and major faults based on how much of
    /// the task's footprint is resident and on global memory pressure.
    pub fn touch(&mut self, task: TaskId, pages: u64) -> FaultBatch {
        self.register(task);
        let pressure = self.pressure();
        let mem = self.task_mem(task);
        // Fraction of this task's footprint that is resident. An un-sized
        // task (no explicit allocation) is treated as fully resident unless
        // pressure is high.
        let resident_fraction = if mem.allocated_pages == 0 {
            1.0
        } else {
            mem.resident_pages as f64 / mem.allocated_pages as f64
        };
        let miss_fraction = (1.0 - resident_fraction).clamp(0.0, 1.0);
        // Under pressure, even previously-resident pages get evicted between
        // touches; model that as an extra miss probability that ramps up
        // once memory is more than 90 % full.
        let pressure_miss = ((pressure - 0.9) / 0.1).clamp(0.0, 1.0) * 0.5;
        let effective_miss = (miss_fraction + pressure_miss).clamp(0.0, 1.0);
        let faults = (pages as f64 * effective_miss).round() as u64;
        // Under real memory pressure a miss needs a swap-in (major); without
        // pressure a miss is a first-touch minor fault.
        let major = if pressure >= 0.99 {
            faults
        } else {
            (faults as f64 * pressure_miss.min(1.0)).round() as u64
        };
        let minor = faults - major.min(faults);
        let batch = FaultBatch {
            hits: pages - faults.min(pages),
            minor_faults: minor,
            major_faults: major.min(faults),
        };
        self.minor_faults += batch.minor_faults;
        self.major_faults += batch.major_faults;
        // Touched pages become resident again (stealing from others if the
        // machine is overcommitted), which is what keeps the thrashing going.
        if batch.total_faults() > 0 {
            self.make_resident(task, batch.total_faults().min(mem.allocated_pages.max(1)));
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_ram_rejected() {
        let _ = MemoryManager::new(0);
    }

    #[test]
    fn allocation_within_ram_is_fault_free() {
        let mut mm = MemoryManager::new(1_000);
        mm.register(TaskId(1));
        assert_eq!(mm.allocate(TaskId(1), 400), 0);
        assert_eq!(mm.task_mem(TaskId(1)).resident_pages, 400);
        let b = mm.touch(TaskId(1), 200);
        assert_eq!(b.total_faults(), 0);
        assert_eq!(b.hits, 200);
        assert!(mm.pressure() < 0.5);
    }

    #[test]
    fn overcommit_reclaims_from_other_tasks() {
        let mut mm = MemoryManager::new(1_000);
        mm.register(TaskId(1));
        mm.register(TaskId(2));
        mm.allocate(TaskId(1), 800);
        // The hog wants more than what is free: pages are stolen from task 1.
        let reclaimed = mm.allocate(TaskId(2), 600);
        assert!(reclaimed > 0);
        assert!(mm.task_mem(TaskId(1)).resident_pages < 800);
        assert!(mm.free_pages() <= 1_000);
    }

    #[test]
    fn victim_faults_under_pressure() {
        let mut mm = MemoryManager::new(1_000);
        mm.register(TaskId(1));
        mm.register(TaskId(2));
        mm.allocate(TaskId(1), 500);
        // Hog allocates more than RAM; victim loses residency.
        mm.allocate(TaskId(2), 2_000);
        let batch = mm.touch(TaskId(1), 300);
        assert!(
            batch.total_faults() > 0,
            "victim should fault under pressure: {batch:?}"
        );
        assert!(mm.major_faults + mm.minor_faults > 0);
    }

    #[test]
    fn no_pressure_first_touch_is_minor() {
        let mut mm = MemoryManager::new(10_000);
        mm.register(TaskId(1));
        // Allocate but artificially mark nothing resident by allocating into
        // a fresh task and touching more than resident.
        mm.allocate(TaskId(1), 100);
        // Resident == allocated, so no faults.
        let b = mm.touch(TaskId(1), 50);
        assert_eq!(b.major_faults, 0);
    }

    #[test]
    fn release_frees_memory() {
        let mut mm = MemoryManager::new(100);
        mm.allocate(TaskId(1), 100);
        assert_eq!(mm.free_pages(), 0);
        mm.release(TaskId(1));
        assert_eq!(mm.free_pages(), 100);
        assert_eq!(mm.resident_total(), 0);
    }

    #[test]
    fn resident_total_tracks_every_change() {
        let mut mm = MemoryManager::new(1_000);
        let check = |mm: &MemoryManager| {
            let sum: u64 = mm.tasks.values().map(|m| m.resident_pages).sum();
            assert_eq!(mm.resident_total(), sum);
        };
        mm.allocate(TaskId(1), 600);
        mm.allocate(TaskId(2), 300);
        check(&mm);
        mm.allocate(TaskId(3), 900); // reclaims from 1 and 2
        check(&mm);
        mm.touch(TaskId(1), 400);
        check(&mm);
        mm.touch(TaskId(7), 10); // unregistered
        check(&mm);
        mm.release(TaskId(3));
        check(&mm);
        mm.release(TaskId(3));
        check(&mm);
    }

    #[test]
    fn touch_unregistered_task_is_safe() {
        let mut mm = MemoryManager::new(100);
        let b = mm.touch(TaskId(9), 10);
        assert_eq!(b.hits, 10);
    }
}
