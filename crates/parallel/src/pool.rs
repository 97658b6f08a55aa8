//! The thread-pool coordination object: a two-level work-stealing
//! scheduler with per-worker Chase–Lev deques, a small global injector for
//! the initial split, and condvar-based idle parking with termination
//! detection (§III-A/B).
//!
//! The paper uses one central bounded queue guarded by OpenMP locks plus a
//! `std::condition_variable` for idle threads. This pool keeps the paper's
//! *semantics* — bounded capacity gating task creation ("split only when
//! there is room"), idle parking, drained/stopped termination — but
//! distributes the queue: each worker owns a lock-free
//! [`StealDeque`](crate::deque::StealDeque) it pushes and pops at the LIFO
//! end, while idle workers steal from randomly chosen victims at the FIFO
//! end. The capacity rule becomes a *per-deque length hint*: a worker may
//! only submit a split while its own deque holds fewer than `capacity`
//! tasks, so the §III-A ablation knob keeps its meaning. The mutex +
//! condvar survive only for what they are good at: parking idle workers
//! and announcing termination.
//!
//! Termination detection is a single in-flight task count: every task is
//! counted before it becomes visible (push, inject, or
//! [`TaskPool::preregister_active`] for directly handed chunks) and
//! uncounted in [`WorkerHandle::task_done`]; the pool is drained exactly
//! when the count hits zero. Parked workers are woken by pushes (an
//! `idlers` counter elides the notify when nobody sleeps) and by the
//! drain or an external [`TaskPool::shutdown`].

use crate::deque::{Steal, StealDeque};
use crate::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};
use crate::task::Task;
use std::collections::VecDeque;

/// Per-worker scheduler statistics (steal/park/split activity), collected
/// lock-free and snapshot via [`TaskPool::scheduler_counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerCounts {
    /// Tasks this worker took from another worker's deque.
    pub steals: u64,
    /// Steal attempts (full victim sweeps) that came back empty-handed.
    pub failed_steals: u64,
    /// Times this worker parked on the condvar.
    pub parks: u64,
    /// Tasks this worker split off and pushed onto its own deque.
    pub splits: u64,
    /// Tasks this worker finished executing ([`WorkerHandle::task_done`]).
    pub executed: u64,
}

impl SchedulerCounts {
    /// Adds another worker's counts into `self`.
    pub fn merge(&mut self, other: &SchedulerCounts) {
        self.steals += other.steals;
        self.failed_steals += other.failed_steals;
        self.parks += other.parks;
        self.splits += other.splits;
        self.executed += other.executed;
    }
}

/// Lock-free cells behind [`SchedulerCounts`].
#[derive(Default)]
struct StatCells {
    steals: AtomicU64,
    failed_steals: AtomicU64,
    parks: AtomicU64,
    splits: AtomicU64,
    executed: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> SchedulerCounts {
        // ordering: Relaxed — monotonic diagnostic counters; a snapshot is
        // a point-in-time tally, no reader derives synchronization from it.
        SchedulerCounts {
            steals: self.steals.load(Ordering::Relaxed),
            failed_steals: self.failed_steals.load(Ordering::Relaxed),
            // ordering: Relaxed — as above.
            parks: self.parks.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
        }
    }
}

/// Shared pool: per-worker steal deques + global injector + idle-thread
/// parking + termination. See the module docs for the design.
pub struct TaskPool {
    /// One Chase–Lev deque per worker, indexed by worker id.
    deques: Vec<StealDeque<Task>>,
    /// Runtime enforcement of the deque ownership contract: each worker id
    /// may be checked out (as a [`WorkerHandle`]) at most once at a time.
    checked_out: Vec<AtomicBool>,
    /// Per-worker xorshift state for randomized victim selection.
    victim_rng: Vec<AtomicU64>,
    /// Per-worker scheduler statistics.
    stats: Vec<StatCells>,
    /// Global injector: overflow/startup work any worker may take. Holds
    /// only the initial-split chunks in the engine, so a plain locked
    /// VecDeque is plenty.
    injector: Mutex<VecDeque<Task>>,
    /// Lock-free mirror of the injector length.
    injector_len: AtomicUsize,
    /// Tasks made visible but not yet completed. Zero ⇒ drained.
    inflight: AtomicUsize,
    /// Terminal state: drained, or externally stopped.
    done: AtomicBool,
    /// Parking lot for idle workers (the mutex guards nothing but the wait).
    park: Mutex<()>,
    cv: Condvar,
    /// Workers currently parked or about to park; pushes skip the notify
    /// syscall while this is zero.
    idlers: AtomicUsize,
    /// Per-deque capacity: the §III-A "split only when there is room" gate.
    capacity: usize,
    /// Tasks ever placed in the injector.
    injected: AtomicUsize,
    /// Adaptive-granularity gate: while closed, workers skip publishing
    /// stealable frames (the pool is saturated). Opened/closed by the run
    /// monitor from the observed steal-to-execute ratio; an `idlers > 0`
    /// override in [`WorkerHandle::split_allowed`] keeps starving thieves
    /// fed between monitor ticks.
    split_gate: AtomicBool,
    /// Whether the adaptive gate is consulted at all. Plain bool: set once
    /// via [`TaskPool::set_adaptive`] before the pool is shared.
    adaptive: bool,
    /// Cooperative pause request (checkpoint quiesce). Distinguishes "stop
    /// to checkpoint, the frontier is live" from a plain [`TaskPool::shutdown`]
    /// ("stop, the frontier is garbage"): workers that observe a raised
    /// pause drain their in-progress explorer into task descriptors instead
    /// of dropping it.
    pause: AtomicBool,
}

/// Initial per-deque ring-buffer capacity. Deliberately small and
/// *independent* of the capacity gate: buffers double on demand, so the
/// Chase–Lev `grow` path (buffer swap + retire/reclaim) is live in
/// production whenever `capacity` exceeds this, not dead code sized away
/// at construction. The churn profile in `tests/engine_differential.rs`
/// and the loom grow models rely on that.
const INITIAL_DEQUE_BUF: usize = 8;

/// How many randomized victim sweeps a worker makes before giving up on
/// stealing (each sweep covers every other worker once, starting from a
/// random victim); a failed sweep that saw contention (`Retry`) is repeated.
const STEAL_ROUNDS: usize = 2;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TaskPool {
    /// An empty pool for `workers` worker threads with the given per-deque
    /// capacity hint. Victim selection is seeded from `workers`/`capacity`;
    /// use [`TaskPool::with_seed`] to vary it.
    pub fn new(workers: usize, capacity: usize) -> Self {
        Self::with_seed(workers, capacity, 0)
    }

    /// Like [`TaskPool::new`] with an explicit seed for the randomized
    /// victim selection (tests and the simulator use this to explore
    /// different steal orders).
    pub fn with_seed(workers: usize, capacity: usize, seed: u64) -> Self {
        assert!(workers >= 1, "need at least one worker");
        assert!(capacity >= 1, "capacity must be positive");
        TaskPool {
            deques: (0..workers)
                .map(|_| StealDeque::with_min_capacity(INITIAL_DEQUE_BUF.min(capacity)))
                .collect(),
            checked_out: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            victim_rng: (0..workers)
                .map(|w| AtomicU64::new(splitmix64(seed ^ (w as u64 + 1)) | 1))
                .collect(),
            stats: (0..workers).map(|_| StatCells::default()).collect(),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            park: Mutex::new(()),
            cv: Condvar::new(),
            idlers: AtomicUsize::new(0),
            capacity,
            injected: AtomicUsize::new(0),
            split_gate: AtomicBool::new(true),
            adaptive: false,
            pause: AtomicBool::new(false),
        }
    }

    /// Turns the adaptive-granularity gate on or off. Must be called
    /// before the pool is shared across threads (takes `&mut self`).
    pub fn set_adaptive(&mut self, on: bool) {
        self.adaptive = on;
        // Entering adaptive mode always starts with the gate open — the
        // monitor has observed nothing yet, so the static §III-A gates
        // alone should govern until the first heartbeat delta.
        // ordering: Relaxed — advisory throttling hint (see set_split_gate).
        self.split_gate.store(true, Ordering::Relaxed);
    }

    /// Opens or closes the adaptive split gate (the run monitor drives
    /// this from heartbeat deltas). A no-op for workers unless the pool
    /// was configured with [`TaskPool::set_adaptive`].
    pub fn set_split_gate(&self, open: bool) {
        // ordering: Relaxed — the gate is an advisory throttling hint; a
        // worker acting on a stale value only publishes (or skips) one
        // extra task, never affects correctness or termination.
        self.split_gate.store(open, Ordering::Relaxed);
    }

    /// Number of worker slots (deques).
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// The per-deque capacity hint.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once the pool has terminated (drained or shut down).
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Pre-counts `n` tasks that are handed to workers directly, bypassing
    /// both the deques and the injector. Without this a chunk-less worker
    /// could observe "nothing in flight" and declare the pool drained
    /// before the handed-off work even starts (the classic premature-
    /// termination race; see `scheduler_interleave.rs` for the regression
    /// test). Each handed task must be balanced by a
    /// [`WorkerHandle::task_done`].
    pub fn preregister_active(&self, n: usize) {
        // ordering: SeqCst — all `inflight` traffic shares one total order
        // with the parker's drain check; a weaker count could let a parked
        // worker read zero while a handed-off chunk is still running.
        self.inflight.fetch_add(n, Ordering::SeqCst);
    }

    /// Puts a task into the global injector (the engine routes the
    /// initial-split chunks through here). Always succeeds; the injector
    /// is not capacity-gated.
    pub fn inject(&self, task: Task) {
        // ordering: SeqCst — the task is counted in flight *before* it is
        // visible, in the same total order as the drain check (see
        // `preregister_active`); `injector_len` mirrors are SeqCst so the
        // parker's work re-check cannot miss a just-injected task.
        self.inflight.fetch_add(1, Ordering::SeqCst);
        {
            let mut q = self.injector.lock().unwrap();
            q.push_back(task);
            // ordering: SeqCst — mirror store; see above.
            self.injector_len.store(q.len(), Ordering::SeqCst);
        }
        // ordering: Relaxed — monotonic diagnostic tally only.
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.wake_one();
    }

    /// Checks out the deque owner handle for worker `wid`.
    ///
    /// Panics if `wid` is out of range or already checked out — the
    /// Chase–Lev owner end tolerates exactly one owner, so this is the
    /// runtime fence behind the deque's safety contract.
    pub fn worker(&self, wid: usize) -> WorkerHandle<'_> {
        assert!(wid < self.deques.len(), "worker id {wid} out of range");
        assert!(
            !self.checked_out[wid].swap(true, Ordering::AcqRel),
            "worker {wid} already checked out"
        );
        WorkerHandle { pool: self, wid }
    }

    /// External stop (stopping rule fired): wakes every parked thread and
    /// prevents further pops and pushes.
    pub fn shutdown(&self) {
        self.done.store(true, Ordering::Release);
        let _guard = self.park.lock().unwrap();
        self.cv.notify_all();
    }

    /// Requests a checkpoint pause: raises the pause flag, then shuts the
    /// pool down through the ordinary stop machinery. Workers observing
    /// the stop consult [`TaskPool::pause_requested`] to decide whether
    /// their in-progress frontier is worth draining.
    pub fn request_pause(&self) {
        // ordering: Release — published before the `done` store in
        // `shutdown()`, pairing with the Acquire loads in `is_done` /
        // `pause_requested`: any worker that exits because it saw the
        // shutdown is guaranteed to also see the pause flag.
        self.pause.store(true, Ordering::Release);
        self.shutdown();
    }

    /// True once [`TaskPool::request_pause`] has been called.
    pub fn pause_requested(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in
        // `request_pause`; see there.
        self.pause.load(Ordering::Acquire)
    }

    /// Drains every task still queued (injector + all deques) after the
    /// worker threads have exited. Quiescence is the caller's contract:
    /// this is only sound once the workers are joined, because the deque
    /// steal end is then free of races and the drained set is exactly the
    /// untouched remainder. Used by the checkpoint path to turn queued
    /// work into durable descriptors.
    pub fn drain_tasks(&self) -> Vec<Task> {
        let mut out = Vec::new();
        {
            let mut q = self.injector.lock().unwrap();
            out.extend(q.drain(..));
            // ordering: SeqCst — keep the lock-free mirror honest (see
            // `inject`), in case diagnostics read it after the drain.
            self.injector_len.store(0, Ordering::SeqCst);
        }
        for d in &self.deques {
            loop {
                match d.steal() {
                    Steal::Success(t) => out.push(t),
                    // Retry is only reachable under owner/thief races;
                    // post-join there are none, but loop anyway so the
                    // contract does not depend on that reasoning.
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        out
    }

    /// Total tasks ever placed in the global injector.
    pub fn total_injected(&self) -> usize {
        // ordering: Relaxed — diagnostic tally; reported after the run,
        // when the joins have already ordered every increment.
        self.injected.load(Ordering::Relaxed)
    }

    /// Per-worker scheduler statistics, indexed by worker id.
    pub fn scheduler_counts(&self) -> Vec<SchedulerCounts> {
        self.stats.iter().map(StatCells::snapshot).collect()
    }

    /// Total deque ring-buffer doublings across all workers (diagnostic;
    /// the churn stress profile asserts this is non-zero).
    pub fn total_deque_grows(&self) -> u64 {
        self.deques.iter().map(StealDeque::grow_count).sum()
    }

    /// Wakes one parked worker, eliding the syscall when nobody is parked.
    /// Callers must have published their work (deque push or injector
    /// store) *before* this; the SeqCst fence pairs with the parker's
    /// idlers increment so either we see the idler or it sees our work.
    fn wake_one(&self) {
        // ordering: SeqCst — the fence orders the caller's work publication
        // before the idlers load, pairing with the parker's SeqCst idlers
        // increment: either we see the idler (and notify) or the idler's
        // re-check sees our work. Anything weaker reopens the lost-wakeup.
        fence(Ordering::SeqCst);
        if self.idlers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().unwrap();
            self.cv.notify_one();
        }
    }

    /// Next pseudo-random value for worker `wid`'s victim selection
    /// (xorshift64; only `wid`'s own thread touches its cell, the atomic
    /// is for shared-struct plumbing).
    fn next_rand(&self, wid: usize) -> u64 {
        // ordering: Relaxed — the cell is only ever touched by `wid`'s own
        // thread; the atomic exists for shared-struct plumbing, not sync.
        let mut x = self.victim_rng[wid].load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // ordering: Relaxed — thread-private cell; see above.
        self.victim_rng[wid].store(x, Ordering::Relaxed);
        x
    }

    /// Any stealable or injected work visible right now? (Approximate —
    /// exact when quiescent, which is when the parker needs it.)
    fn any_work_visible(&self) -> bool {
        // ordering: SeqCst — the parker's re-check must totally order with
        // the pusher's publish + fence in `wake_one` (lost-wakeup pairing).
        self.injector_len.load(Ordering::SeqCst) > 0 || self.deques.iter().any(|d| !d.is_empty())
    }

    fn pop_injected(&self) -> Option<Task> {
        // ordering: SeqCst — both mirror accesses pair with the stores in
        // `inject`, keeping the lock-elision pre-check sound (a stale zero
        // here would only delay, not lose, a task — but the parker's drain
        // logic also reads this mirror, and that one must not lag).
        if self.injector_len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut q = self.injector.lock().unwrap();
        let t = q.pop_front();
        // ordering: SeqCst — mirror store; see above.
        self.injector_len.store(q.len(), Ordering::SeqCst);
        t
    }

    /// One randomized steal pass for `wid`: up to [`STEAL_ROUNDS`] sweeps
    /// over all victims, each starting at a random one; a sweep that only
    /// lost CAS races (`Retry`) is retried.
    fn try_steal(&self, wid: usize) -> Option<Task> {
        let n = self.deques.len();
        if n <= 1 {
            return None;
        }
        for _ in 0..STEAL_ROUNDS {
            let start = (self.next_rand(wid) % n as u64) as usize;
            let mut saw_retry = false;
            for k in 0..n {
                let v = (start + k) % n;
                if v == wid {
                    continue;
                }
                match self.deques[v].steal() {
                    Steal::Success(t) => {
                        // ordering: Relaxed — diagnostic tally only.
                        self.stats[wid].steals.fetch_add(1, Ordering::Relaxed);
                        return Some(t);
                    }
                    Steal::Retry => {
                        // Lost a race; move on and revisit this victim on
                        // the next sweep.
                        saw_retry = true;
                        crate::sync::hint::spin_loop();
                    }
                    Steal::Empty => {}
                }
            }
            if !saw_retry {
                break;
            }
        }
        // ordering: Relaxed — diagnostic tally only.
        self.stats[wid]
            .failed_steals
            .fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// The checked-out owner end of one worker's deque (see
/// [`TaskPool::worker`]). All scheduling calls a worker thread makes go
/// through its handle; dropping it returns the slot.
pub struct WorkerHandle<'p> {
    pool: &'p TaskPool,
    wid: usize,
}

impl WorkerHandle<'_> {
    /// This worker's id (deque index).
    pub fn id(&self) -> usize {
        self.wid
    }

    /// The pool this handle belongs to.
    pub fn pool(&self) -> &TaskPool {
        self.pool
    }

    /// Cheap pre-check of the §III-A capacity gate: is there room in
    /// *this worker's* deque? Only on `true` does the caller pay for the
    /// split.
    #[inline]
    pub fn has_room_hint(&self) -> bool {
        self.pool.deques[self.wid].len() < self.pool.capacity
    }

    /// The adaptive-granularity gate: should this worker publish a
    /// stealable frame right now? Always `true` without adaptive mode.
    /// With it: never split on a 1-worker pool (nobody can steal, so every
    /// snapshot would be pure overhead), otherwise follow the
    /// monitor-driven gate — with an instant override when any worker is
    /// parked, so a starving thief is fed at the victim's next step
    /// instead of waiting out a monitor tick.
    #[inline]
    pub fn split_allowed(&self) -> bool {
        let pool = self.pool;
        if !pool.adaptive {
            return true;
        }
        if pool.deques.len() == 1 {
            return false;
        }
        // ordering: Relaxed — both reads are advisory throttling hints; a
        // stale value costs at most one extra (or one deferred) split and
        // the idlers override re-fires on every subsequent step.
        pool.split_gate.load(Ordering::Relaxed) || pool.idlers.load(Ordering::Relaxed) > 0
    }

    /// Tries to push a split-off task onto this worker's own deque; fails
    /// when the deque is at capacity or the pool is done. Wakes one parked
    /// thread on success.
    // The Err variant returns ownership of the (snapshot-bearing, hence
    // large) task so the caller can unsplit without cloning; boxing it
    // would add a heap round-trip on the split path for a cold branch.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&self, task: Task) -> Result<(), Task> {
        let pool = self.pool;
        if pool.done.load(Ordering::Acquire) {
            return Err(task);
        }
        if pool.deques[self.wid].len() >= pool.capacity {
            return Err(task);
        }
        // Count the task *before* it becomes stealable so a fast thief
        // cannot drive `inflight` below zero.
        // ordering: SeqCst — `inflight` shares one total order with the
        // drain check (see `preregister_active`).
        pool.inflight.fetch_add(1, Ordering::SeqCst);
        pool.deques[self.wid].push(task);
        // ordering: Relaxed — a diagnostic tally only.
        pool.stats[self.wid].splits.fetch_add(1, Ordering::Relaxed);
        pool.wake_one();
        Ok(())
    }

    /// Blocks until a task is available or the pool terminates (`None`).
    ///
    /// Order of preference: own deque (LIFO), steal from a random victim
    /// (FIFO), global injector, park. Termination: nothing in flight
    /// anywhere, or an external stop via [`TaskPool::shutdown`].
    pub fn next_task(&self) -> Option<Task> {
        let pool = self.pool;
        loop {
            if pool.done.load(Ordering::Acquire) {
                return None;
            }
            if let Some(t) = pool.deques[self.wid].pop() {
                return Some(t);
            }
            if let Some(t) = pool.try_steal(self.wid) {
                return Some(t);
            }
            if let Some(t) = pool.pop_injected() {
                return Some(t);
            }
            // Nothing found: park. The idlers increment happens before the
            // work re-check; together with the pusher-side fence in
            // `wake_one` this closes the sleep/lost-wakeup race.
            // ordering: SeqCst — every `idlers` op joins the total order
            // with the pusher's fence + load in `wake_one`; the same order
            // covers the `inflight` drain check below.
            let mut guard = pool.park.lock().unwrap();
            pool.idlers.fetch_add(1, Ordering::SeqCst);
            loop {
                // ordering: Acquire — pairs with the Release `done` stores
                // so a woken worker sees every pre-shutdown write.
                if pool.done.load(Ordering::Acquire) {
                    // ordering: SeqCst — see the comment on the increment.
                    pool.idlers.fetch_sub(1, Ordering::SeqCst);
                    return None;
                }
                if pool.any_work_visible() {
                    // ordering: SeqCst — see the comment on the increment.
                    pool.idlers.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                    break; // retry the full acquisition loop
                }
                // ordering: SeqCst — the drain check must not reorder with
                // the visibility checks above (same total order as every
                // `inflight` update), or a racing push could be missed.
                if pool.inflight.load(Ordering::SeqCst) == 0 {
                    // Drained: nothing queued anywhere, nothing running.
                    // ordering: Release — publishes every pre-done write to
                    // the other workers' Acquire load of `done`.
                    pool.done.store(true, Ordering::Release);
                    // ordering: SeqCst — same total order as every other
                    // `idlers` op (see the increment above).
                    pool.idlers.fetch_sub(1, Ordering::SeqCst);
                    pool.cv.notify_all();
                    return None;
                }
                // ordering: Relaxed — diagnostic tally only.
                pool.stats[self.wid].parks.fetch_add(1, Ordering::Relaxed);
                guard = pool.cv.wait(guard).unwrap();
            }
        }
    }

    /// Balances one visible task (pushed, injected, or preregistered)
    /// after its execution finished; triggers termination when it was the
    /// last one in flight.
    pub fn task_done(&self) {
        let pool = self.pool;
        // ordering: Relaxed — diagnostic tally (feeds the adaptive
        // controller's steal-to-execute ratio; advisory only).
        pool.stats[self.wid]
            .executed
            .fetch_add(1, Ordering::Relaxed);
        // ordering: SeqCst — the final decrement must be totally ordered
        // with the parker's drain check so exactly one side declares done.
        let prev = pool.inflight.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "task_done without a matching visible task");
        if prev == 1 {
            // ordering: Release — publishes the finished task's effects
            // before the workers' Acquire load of `done`.
            pool.done.store(true, Ordering::Release);
            let _guard = pool.park.lock().unwrap();
            pool.cv.notify_all();
        }
    }
}

impl Drop for WorkerHandle<'_> {
    fn drop(&mut self) {
        self.pool.checked_out[self.wid].store(false, Ordering::Release);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use phylo::taxa::TaxonId;
    use phylo::tree::EdgeId;

    fn task(i: u32) -> Task {
        Task::probe(TaxonId(0), vec![EdgeId(i)])
    }

    #[test]
    fn split_gate_defaults_open_and_only_binds_adaptive_pools() {
        let mut p = TaskPool::new(2, 4);
        assert!(p.worker(0).split_allowed(), "non-adaptive: always allowed");
        p.set_split_gate(false);
        assert!(p.worker(0).split_allowed(), "gate ignored without adaptive");
        p.set_adaptive(true);
        assert!(p.worker(0).split_allowed(), "gate starts open");
        p.set_split_gate(false);
        assert!(!p.worker(0).split_allowed(), "closed gate blocks splits");
        p.set_split_gate(true);
        assert!(p.worker(0).split_allowed());
    }

    #[test]
    fn adaptive_single_worker_never_splits() {
        let mut p = TaskPool::new(1, 4);
        p.set_adaptive(true);
        assert!(!p.worker(0).split_allowed());
    }

    #[test]
    fn executed_counts_track_task_done() {
        let p = TaskPool::new(1, 4);
        let w = p.worker(0);
        w.try_push(task(0)).unwrap();
        w.try_push(task(1)).unwrap();
        let _ = w.next_task().unwrap();
        w.task_done();
        assert_eq!(p.scheduler_counts()[0].executed, 1);
        let _ = w.next_task().unwrap();
        w.task_done();
        assert_eq!(p.scheduler_counts()[0].executed, 2);
    }

    #[test]
    fn capacity_gates_own_deque() {
        let p = TaskPool::new(2, 2);
        let w = p.worker(0);
        assert!(w.try_push(task(0)).is_ok());
        assert!(w.try_push(task(1)).is_ok());
        assert!(w.try_push(task(2)).is_err());
        assert!(!w.has_room_hint());
        // The *other* worker's deque is independent.
        let w1 = p.worker(1);
        assert!(w1.has_room_hint());
        assert!(w1.try_push(task(3)).is_ok());
    }

    #[test]
    fn owner_pops_lifo() {
        let p = TaskPool::new(1, 8);
        let w = p.worker(0);
        w.try_push(task(0)).unwrap();
        w.try_push(task(1)).unwrap();
        assert_eq!(w.next_task().unwrap().branches[0], EdgeId(1));
        assert_eq!(w.next_task().unwrap().branches[0], EdgeId(0));
        w.task_done();
        w.task_done();
        // Both done ⇒ the pool reports drained.
        assert!(w.next_task().is_none());
        assert!(p.is_done());
    }

    #[test]
    fn idle_workers_steal_fifo() {
        let p = TaskPool::new(2, 8);
        let w0 = p.worker(0);
        w0.try_push(task(0)).unwrap();
        w0.try_push(task(1)).unwrap();
        let w1 = p.worker(1);
        // Worker 1 has nothing of its own: it must steal worker 0's
        // *oldest* task.
        assert_eq!(w1.next_task().unwrap().branches[0], EdgeId(0));
        assert_eq!(p.scheduler_counts()[1].steals, 1);
    }

    #[test]
    fn injected_tasks_reach_any_worker() {
        let p = TaskPool::new(2, 4);
        p.inject(task(7));
        assert_eq!(p.total_injected(), 1);
        let w1 = p.worker(1);
        assert_eq!(w1.next_task().unwrap().branches[0], EdgeId(7));
        w1.task_done();
        assert!(p.is_done());
    }

    #[test]
    fn drain_terminates_all_waiters() {
        let p = TaskPool::new(4, 4);
        p.inject(task(0));
        std::thread::scope(|s| {
            for wid in 0..4 {
                let p = &p;
                s.spawn(move || {
                    let w = p.worker(wid);
                    while let Some(_t) = w.next_task() {
                        w.task_done();
                    }
                });
            }
        });
        assert!(p.is_done());
    }

    #[test]
    fn shutdown_wakes_waiters() {
        let p = TaskPool::new(2, 4);
        // Keep work in flight so the second worker must park…
        p.preregister_active(1);
        std::thread::scope(|s| {
            let h = s.spawn(|| p.worker(1).next_task());
            std::thread::sleep(std::time::Duration::from_millis(20));
            // …until an external stop wakes it with `None`.
            p.shutdown();
            assert!(h.join().unwrap().is_none());
        });
    }

    #[test]
    fn no_push_after_done() {
        let p = TaskPool::new(1, 4);
        p.shutdown();
        assert!(p.worker(0).try_push(task(0)).is_err());
    }

    #[test]
    fn no_pop_after_done() {
        let p = TaskPool::new(1, 4);
        let w = p.worker(0);
        w.try_push(task(0)).unwrap();
        p.shutdown();
        assert!(w.next_task().is_none());
    }

    #[test]
    #[should_panic(expected = "already checked out")]
    fn double_checkout_panics() {
        let p = TaskPool::new(1, 4);
        let _a = p.worker(0);
        let _b = p.worker(0);
    }

    #[test]
    fn handle_drop_releases_slot() {
        let p = TaskPool::new(1, 4);
        drop(p.worker(0));
        let _again = p.worker(0); // must not panic
    }

    #[test]
    fn preregistered_work_defers_termination() {
        // Regression for the premature-termination race documented on
        // `preregister_active`: a worker with no visible tasks must park,
        // not declare the pool drained, while a handed-off chunk runs.
        let p = TaskPool::new(2, 4);
        p.preregister_active(1);
        std::thread::scope(|s| {
            let parked = s.spawn(|| p.worker(1).next_task());
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!p.is_done(), "pool terminated while a chunk was running");
            // The chunk owner finishes: now the pool may drain.
            let w0 = p.worker(0);
            w0.task_done();
            assert!(parked.join().unwrap().is_none());
        });
        assert!(p.is_done());
    }
}
