//! The bounded, per-tenant-fair submission queue under the ingest pipeline.
//!
//! [`FairQueue`] is a pure data structure (no locks, no threads): one FIFO
//! lane per tenant plus a round-robin rotation over the tenants that
//! currently have queued work. [`FairQueue::pop`] serves the front tenant of
//! the rotation and then moves it to the back, so a tenant's one queued
//! job is dispatched ahead of another tenant's backlog of thousands.
//!
//! That fairness orders dispatch only. Capacity bounds the total number
//! of *queued* (not yet dispatched) jobs across all lanes, and the worker
//! pool in [`crate::ingest`] turns a full queue into backpressure by
//! policy: under [`crate::ingest::BackpressurePolicy::Reject`] a flooding
//! tenant gets every tenant's submits shed
//! ([`crate::ingest::SubmitError::QueueFull`]), and under
//! [`crate::ingest::BackpressurePolicy::Block`] every submitter waits.
//!
//! ```
//! use trustmeter_fleet::queue::FairQueue;
//! use trustmeter_fleet::{JobSpec, TenantId};
//! use trustmeter_workloads::Workload;
//!
//! let mut queue = FairQueue::new(8);
//! // A greedy tenant enqueues three jobs, a modest tenant one.
//! for id in 0..3 {
//!     queue.push(id, JobSpec::clean(id, TenantId(1), Workload::Pi, 0.001)).unwrap();
//! }
//! queue.push(3, JobSpec::clean(3, TenantId(2), Workload::Pi, 0.001)).unwrap();
//!
//! // Round-robin: tenant 2 is served second, not last.
//! let tenants: Vec<u32> = std::iter::from_fn(|| queue.pop())
//!     .map(|queued| queued.job.tenant.0)
//!     .collect();
//! assert_eq!(tenants, vec![1, 2, 1, 1]);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use crate::executor::JobSpec;
use crate::tenant::TenantId;

/// A job waiting in the queue, tagged with its submission sequence number
/// (the merge key that keeps streamed runs bit-identical to batch runs).
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedJob {
    /// Submission sequence number, assigned in `submit()` order.
    pub seq: u64,
    /// The job as submitted.
    pub job: JobSpec,
    /// When the job was submitted — stamped only when a
    /// [`crate::trace::PipelineTracer`] is attached, so the dispatching
    /// worker can record the queue-wait span. Observation only: nothing
    /// downstream of dispatch reads it.
    pub submitted_at: Option<Instant>,
    /// Execution attempt this dispatch represents, 1-based. Fresh
    /// submissions enter at 1; the supervisor bumps it each time the job is
    /// reclaimed from a dead worker and requeued, so the worker-fault
    /// schedule and the poison-job ladder can address individual attempts.
    pub attempt: u32,
}

/// A bounded multi-tenant queue with weighted round-robin fairness across
/// tenants (deficit round robin with unit-size jobs: a tenant's lane is
/// served up to `weight` jobs per rotation turn, so no fractional deficit
/// ever carries over).
#[derive(Debug, Clone, Default)]
pub struct FairQueue {
    /// One FIFO lane per tenant with queued work.
    lanes: BTreeMap<TenantId, VecDeque<QueuedJob>>,
    /// Round-robin rotation: each tenant with queued work appears exactly
    /// once; `pop` serves the front and rotates it to the back once its
    /// per-turn credit is spent.
    rotation: VecDeque<TenantId>,
    /// Total queued jobs across all lanes.
    queued: usize,
    /// Maximum total queued jobs (0 = unbounded).
    capacity: usize,
    /// Per-tenant service weights (jobs served per rotation turn); tenants
    /// absent from the map get weight 1, which degenerates to plain
    /// round-robin.
    weights: BTreeMap<TenantId, u32>,
    /// Remaining credit of the tenant at the rotation front; 0 means
    /// "reload from the weight table on the next pop".
    front_credit: u32,
}

impl FairQueue {
    /// An empty queue holding at most `capacity` undispatched jobs
    /// (`capacity == 0` means unbounded).
    pub fn new(capacity: usize) -> FairQueue {
        FairQueue {
            lanes: BTreeMap::new(),
            rotation: VecDeque::new(),
            queued: 0,
            capacity,
            weights: BTreeMap::new(),
            front_credit: 0,
        }
    }

    /// Sets a tenant's service weight: how many of its queued jobs one
    /// rotation turn may serve before the rotation moves on. Weights below
    /// 1 are clamped to 1.
    pub fn set_weight(&mut self, tenant: TenantId, weight: u32) {
        self.weights.insert(tenant, weight.max(1));
    }

    /// The tenant's service weight (1 unless set).
    pub fn weight(&self, tenant: TenantId) -> u32 {
        self.weights.get(&tenant).copied().unwrap_or(1)
    }

    /// Total queued (undispatched) jobs.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.capacity != 0 && self.queued >= self.capacity
    }

    /// The configured capacity (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued jobs for one tenant's lane.
    pub fn lane_len(&self, tenant: TenantId) -> usize {
        self.lanes.get(&tenant).map_or(0, VecDeque::len)
    }

    /// Enqueues a job on its tenant's lane. Returns the job back when the
    /// queue is at capacity so callers can apply their backpressure policy.
    pub fn push(&mut self, seq: u64, job: JobSpec) -> Result<(), JobSpec> {
        if self.is_full() {
            return Err(job);
        }
        self.enqueue(job.tenant, [(seq, job)], None, 1);
        Ok(())
    }

    /// Re-enqueues a job reclaimed from a panicked or lying worker.
    /// Unlike [`FairQueue::push`] this ignores capacity: the slot was
    /// already admitted when the job was first accepted, so bouncing a
    /// reclaimed job off a full queue would lose admitted work. The job
    /// keeps its original sequence number (release order is unchanged) and
    /// carries the attempt the next execution will be.
    pub fn requeue(&mut self, seq: u64, job: JobSpec, attempt: u32) {
        self.enqueue(job.tenant, [(seq, job)], None, attempt);
    }

    /// Bulk [`FairQueue::push`] with a submission timestamp for queue-wait
    /// tracing (see [`QueuedJob::submitted_at`]): enqueues `jobs` with
    /// consecutive sequence numbers starting at `first_seq`, touching each
    /// tenant lane once per run of equal-tenant jobs rather than once per
    /// job. Stops and returns `Err(enqueued_count)` if capacity runs out
    /// mid-slice. A caller that admitted the slice under its own
    /// accounting enqueues the rest with [`FairQueue::requeue`]: requeued
    /// jobs may have refilled the slots it counted on.
    pub fn push_batch_at(
        &mut self,
        first_seq: u64,
        jobs: &[JobSpec],
        submitted_at: Option<Instant>,
    ) -> Result<(), usize> {
        let mut i = 0;
        while i < jobs.len() {
            if self.is_full() {
                return Err(i);
            }
            let tenant = jobs[i].tenant;
            let mut end = i + 1;
            while end < jobs.len() && jobs[end].tenant == tenant {
                end += 1;
            }
            if self.capacity != 0 {
                end = end.min(i + (self.capacity - self.queued));
            }
            let run = (first_seq + i as u64..).zip(jobs[i..end].iter().cloned());
            self.enqueue(tenant, run, submitted_at, 1);
            i = end;
        }
        Ok(())
    }

    /// The one enqueue path: appends one or more of `tenant`'s jobs, each
    /// with its sequence number, to its lane and counts them. Capacity is
    /// the caller's to check.
    fn enqueue(
        &mut self,
        tenant: TenantId,
        jobs: impl IntoIterator<Item = (u64, JobSpec)>,
        submitted_at: Option<Instant>,
        attempt: u32,
    ) {
        let lane = self.lanes.entry(tenant).or_default();
        if lane.is_empty() {
            // Tenant (re)enters the rotation at the back: newly active
            // tenants wait one round rather than jumping the queue.
            self.rotation.push_back(tenant);
        }
        for (seq, job) in jobs {
            lane.push_back(QueuedJob {
                seq,
                job,
                submitted_at,
                attempt,
            });
            self.queued += 1;
        }
    }

    /// Dequeues the next job round-robin across tenants: serves the front
    /// tenant of the rotation, then — once that tenant's per-turn credit
    /// (its weight) is spent or its lane drains — rotates it to the back.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        let tenant = *self.rotation.front()?;
        if self.front_credit == 0 {
            self.front_credit = self.weight(tenant);
        }
        let lane = self.lanes.get_mut(&tenant).expect("rotation lane exists");
        let queued = lane.pop_front().expect("rotation lane non-empty");
        self.front_credit -= 1;
        if lane.is_empty() {
            self.lanes.remove(&tenant);
            self.rotation.pop_front();
            self.front_credit = 0;
        } else if self.front_credit == 0 {
            self.rotation.rotate_left(1);
        }
        self.queued -= 1;
        Some(queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustmeter_workloads::Workload;

    fn job(id: u64, tenant: u32) -> JobSpec {
        JobSpec::clean(id, TenantId(tenant), Workload::LoopO, 0.001)
    }

    #[test]
    fn pop_is_fifo_within_one_tenant() {
        let mut queue = FairQueue::new(0);
        for id in 0..5 {
            queue.push(id, job(id, 1)).unwrap();
        }
        let ids: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|q| q.seq).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_round_robins_across_tenants() {
        let mut queue = FairQueue::new(0);
        // Greedy tenant 1 enqueues 4 jobs before tenants 2 and 3 appear.
        for id in 0..4 {
            queue.push(id, job(id, 1)).unwrap();
        }
        queue.push(4, job(4, 2)).unwrap();
        queue.push(5, job(5, 3)).unwrap();
        let tenants: Vec<u32> = std::iter::from_fn(|| queue.pop())
            .map(|q| q.job.tenant.0)
            .collect();
        assert_eq!(tenants, vec![1, 2, 3, 1, 1, 1]);
    }

    #[test]
    fn capacity_bounds_total_not_per_lane() {
        let mut queue = FairQueue::new(2);
        queue.push(0, job(0, 1)).unwrap();
        queue.push(1, job(1, 2)).unwrap();
        assert!(queue.is_full());
        let rejected = queue.push(2, job(2, 3)).unwrap_err();
        assert_eq!(rejected.id.0, 2);
        queue.pop().unwrap();
        assert!(!queue.is_full());
        queue.push(2, job(2, 3)).unwrap();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn lane_len_tracks_per_tenant_backlog() {
        let mut queue = FairQueue::new(0);
        for id in 0..3 {
            queue.push(id, job(id, 7)).unwrap();
        }
        assert_eq!(queue.lane_len(TenantId(7)), 3);
        assert_eq!(queue.lane_len(TenantId(8)), 0);
        queue.pop();
        assert_eq!(queue.lane_len(TenantId(7)), 2);
    }

    #[test]
    fn push_batch_matches_sequential_pushes() {
        let mut one_by_one = FairQueue::new(0);
        let mut batched = FairQueue::new(0);
        let jobs: Vec<JobSpec> = (0..8).map(|id| job(id, (id % 3) as u32 + 1)).collect();
        for (seq, j) in jobs.iter().enumerate() {
            one_by_one.push(seq as u64, j.clone()).unwrap();
        }
        batched.push_batch_at(0, &jobs, None).unwrap();
        assert_eq!(batched.len(), one_by_one.len());
        let a: Vec<(u64, u32)> = std::iter::from_fn(|| one_by_one.pop())
            .map(|q| (q.seq, q.job.tenant.0))
            .collect();
        let b: Vec<(u64, u32)> = std::iter::from_fn(|| batched.pop())
            .map(|q| (q.seq, q.job.tenant.0))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn push_batch_stops_at_capacity() {
        let mut queue = FairQueue::new(3);
        let jobs: Vec<JobSpec> = (0..5).map(|id| job(id, 1)).collect();
        assert_eq!(queue.push_batch_at(0, &jobs, None), Err(3));
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.pop().unwrap().seq, 0);
    }

    #[test]
    fn requeue_ignores_capacity_and_preserves_seq() {
        let mut queue = FairQueue::new(1);
        queue.push(7, job(7, 1)).unwrap();
        assert!(queue.is_full());
        // A reclaimed job re-enters even though the queue is at capacity.
        queue.requeue(3, job(3, 2), 2);
        assert_eq!(queue.len(), 2);
        let reclaimed = std::iter::from_fn(|| queue.pop())
            .find(|q| q.seq == 3)
            .unwrap();
        assert_eq!(reclaimed.attempt, 2);
        // Fresh pushes always start at attempt 1.
        queue.push(8, job(8, 1)).unwrap();
        assert_eq!(queue.pop().unwrap().attempt, 1);
    }

    #[test]
    fn weighted_pop_serves_shares_per_rotation_turn() {
        let mut queue = FairQueue::new(0);
        queue.set_weight(TenantId(1), 2);
        for id in 0..4 {
            queue.push(id, job(id, 1)).unwrap();
        }
        for id in 4..8 {
            queue.push(id, job(id, 2)).unwrap();
        }
        let tenants: Vec<u32> = std::iter::from_fn(|| queue.pop())
            .map(|q| q.job.tenant.0)
            .collect();
        // Tenant 1 (weight 2) gets two slots per turn, tenant 2 one.
        assert_eq!(tenants, vec![1, 1, 2, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn tenant_reentering_rotation_waits_a_round() {
        let mut queue = FairQueue::new(0);
        queue.push(0, job(0, 1)).unwrap();
        queue.push(1, job(1, 2)).unwrap();
        // Tenant 1 drains, then resubmits while tenant 2 still waits.
        assert_eq!(queue.pop().unwrap().job.tenant, TenantId(1));
        queue.push(2, job(2, 1)).unwrap();
        // Tenant 2 is served before tenant 1's new job.
        assert_eq!(queue.pop().unwrap().job.tenant, TenantId(2));
        assert_eq!(queue.pop().unwrap().job.tenant, TenantId(1));
    }
}
