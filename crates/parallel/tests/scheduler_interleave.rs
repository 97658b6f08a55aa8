//! Interleaving stress tests for the two-level work-stealing scheduler.
//!
//! These tests hammer the pool and the raw Chase–Lev deque from many
//! threads with synthetic task graphs and assert the only property that
//! matters: **every task is executed exactly once** — none lost (the pool
//! would either hang or terminate early) and none double-executed (the
//! deque's pop/steal race would hand one task to two threads). They also
//! pin down the termination protocol: accounting conservation and the
//! `preregister_active` premature-termination regression.

use gentrius_parallel::{Steal, StealDeque, Task, TaskPool, WorkerHandle};
use phylo::taxa::TaxonId;
use phylo::tree::EdgeId;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// A synthetic task carrying `id` in its branch list.
fn task(id: usize) -> Task {
    Task::probe(TaxonId(0), vec![EdgeId(id as u32)])
}

fn id_of(t: &Task) -> usize {
    t.branches[0].0 as usize
}

/// Executes task `id` of an implicit binary tree on `n` nodes: marks it,
/// then schedules both children — through the worker's own deque when the
/// capacity gate allows, inline otherwise (exactly the engine's "no room:
/// keep the work yourself" fallback).
fn execute(
    w: &WorkerHandle<'_>,
    id: usize,
    n: usize,
    executed: &[AtomicU32],
    inline: &AtomicUsize,
) {
    executed[id].fetch_add(1, Ordering::Relaxed);
    for c in [2 * id + 1, 2 * id + 2] {
        if c < n && w.try_push(task(c)).is_err() {
            inline.fetch_add(1, Ordering::Relaxed);
            execute(w, c, n, executed, inline);
        }
    }
}

/// Runs the binary-tree workload on a fresh pool and checks exactly-once
/// execution plus scheduling-accounting conservation.
fn run_tree_stress(workers: usize, capacity: usize, seed: u64, n: usize) -> u64 {
    let pool = TaskPool::with_seed(workers, capacity, seed);
    let executed: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let inline = AtomicUsize::new(0);
    pool.inject(task(0));
    std::thread::scope(|s| {
        for wid in 0..workers {
            let (pool, executed, inline) = (&pool, &executed[..], &inline);
            s.spawn(move || {
                let w = pool.worker(wid);
                while let Some(t) = w.next_task() {
                    execute(&w, id_of(&t), n, executed, inline);
                    w.task_done();
                }
            });
        }
    });
    assert!(pool.is_done());
    for (i, c) in executed.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            1,
            "task {i} executed {} times (workers={workers} capacity={capacity} seed={seed})",
            c.load(Ordering::Relaxed)
        );
    }
    // Conservation: every node of the task tree was scheduled exactly one
    // way — deque push (a worker's split), injector, or inline fallback.
    let counts = pool.scheduler_counts();
    let splits: u64 = counts.iter().map(|c| c.splits).sum();
    assert_eq!(
        splits as usize + pool.total_injected() + inline.load(Ordering::Relaxed),
        n,
        "scheduling accounting leaked (workers={workers} capacity={capacity} seed={seed})"
    );
    counts.iter().map(|c| c.steals).sum()
}

#[test]
fn task_tree_executes_each_task_exactly_once() {
    let mut total_steals = 0u64;
    for workers in [2usize, 4, 8] {
        // capacity 2 starves the deques (heavy inline fallback + injector
        // traffic), 64 piles them high (deque growth + long steal chains).
        for capacity in [2usize, 8, 64] {
            for seed in [1u64, 42] {
                total_steals += run_tree_stress(workers, capacity, seed, 30_000);
            }
        }
    }
    assert!(total_steals > 0, "stress never exercised the steal path");
}

#[test]
fn deque_survives_randomized_push_pop_steal_interleavings() {
    const N: usize = 50_000;
    for seed in [3u64, 9, 27] {
        let d: StealDeque<usize> = StealDeque::with_min_capacity(8);
        let seen: Vec<AtomicU32> = (0..N).map(|_| AtomicU32::new(0)).collect();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let (d, seen, done) = (&d, &seen[..], &done);
                s.spawn(move || loop {
                    match d.steal() {
                        Steal::Success(v) => {
                            seen[v].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && d.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            // Owner: a seeded xorshift decides between pushing the next
            // item and popping — mixing the LIFO end into the thieves'
            // FIFO traffic at unpredictable points.
            let mut x = seed | 1;
            let mut next = 0usize;
            while next < N {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 3 != 0 {
                    d.push(next);
                    next += 1;
                } else if let Some(v) = d.pop() {
                    seen[v].fetch_add(1, Ordering::Relaxed);
                }
            }
            while let Some(v) = d.pop() {
                seen[v].fetch_add(1, Ordering::Relaxed);
            }
            done.store(true, Ordering::Release);
        });
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "item {i} seen {} times (seed={seed})",
                c.load(Ordering::Relaxed)
            );
        }
    }
}

/// Regression: work handed to a worker directly (bypassing deques and the
/// injector, as the engine does with a worker's first replayed chunk) must
/// be pre-counted, or an idle worker that wakes first can observe
/// "nothing in flight" and terminate the whole pool before the chunk runs.
#[test]
fn preregistered_chunks_defer_termination_under_load() {
    let pool = TaskPool::new(4, 8);
    const CHUNKS: usize = 2;
    const CHILDREN: usize = 5;
    pool.preregister_active(CHUNKS);
    let executed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Three consumers with nothing to do yet: they must park, not
        // declare the pool drained.
        for wid in 1..4 {
            let (pool, executed) = (&pool, &executed);
            s.spawn(move || {
                let w = pool.worker(wid);
                while let Some(_t) = w.next_task() {
                    executed.fetch_add(1, Ordering::Relaxed);
                    w.task_done();
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !pool.is_done(),
            "pool terminated while preregistered chunks were still pending"
        );
        // Worker 0 now runs its direct chunks, fanning out children for
        // the parked consumers, and balances each chunk with task_done.
        // If the consumers haven't drained the deque yet, the capacity
        // hint rejects the push and the child runs inline, exactly as the
        // engine handles a full deque.
        let w0 = pool.worker(0);
        for chunk in 0..CHUNKS {
            for c in 0..CHILDREN {
                if w0.try_push(task(chunk * CHILDREN + c)).is_err() {
                    executed.fetch_add(1, Ordering::Relaxed);
                }
            }
            w0.task_done();
        }
        while let Some(_t) = w0.next_task() {
            executed.fetch_add(1, Ordering::Relaxed);
            w0.task_done();
        }
    });
    assert!(pool.is_done());
    assert_eq!(executed.load(Ordering::Relaxed), CHUNKS * CHILDREN);
}
