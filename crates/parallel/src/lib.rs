//! # gentrius-parallel — the paper's thread-pooling / work-stealing engine
//!
//! A faithful Rust implementation of §III of *"Parallel Inference of
//! Phylogenetic Stands with Gentrius"* (IPPS 2023):
//!
//! * a deterministic serial prefix up to the **initial-split state** `I_0`
//!   (the first state whose next taxon has two or more admissible
//!   branches), whose branch set is divided among threads as uniformly as
//!   possible;
//! * **work stealing** via a two-level scheduler: each worker owns a
//!   lock-free Chase–Lev deque ([`deque`]) it pushes split-off tasks onto
//!   (LIFO for itself, FIFO for thieves), idle workers steal from
//!   randomly selected victims, and a small global injector seeds the
//!   initial-split chunks. Tasks carry half of the current state's
//!   admissible branches together with an owned **state snapshot** (agile
//!   tree + remaining-taxa order + mapping engines forked live-only); the
//!   receiving thread resumes the snapshot directly in O(depth) instead
//!   of replaying the `I_0 → I_c` insertion path in O(depth × kernel).
//!   The paper's bounded central queue survives as a *per-deque* capacity
//!   hint: a worker only splits while its own deque has room (§III-A), so
//!   the capacity ablation keeps its meaning — and because a split now
//!   costs an O(state) clone, an **adaptive split gate** driven by the
//!   run monitor's sampled steal-to-execute ratio closes publication
//!   while the pool is saturated (with an idlers override so a parked
//!   thief is never starved);
//! * **batched atomic counters** for stand trees / intermediate states /
//!   dead ends, with the count-based stopping rules evaluated on flush
//!   (count limits may be overshot by at most one batch per thread, as in
//!   the paper). The wall-clock rule is enforced by the engine's **run
//!   monitor** ([`obs::monitor`]): a supervisor thread that ticks every
//!   ~50 ms, raises `StopCause::TimeLimit` when the budget runs out, and
//!   wakes parked workers — flush-side checks alone cannot bound time
//!   overshoot, because parked or starved workers never flush;
//! * termination detection via a single in-flight task count, with idle
//!   workers parked on a condition variable (the paper's
//!   `std::condition_variable` construction; the mutex guards nothing but
//!   the parking) and per-worker steal/park/split statistics surfaced
//!   through [`pool::SchedulerCounts`] in the [`ParallelRunResult`];
//! * an **observability layer** ([`obs`]): the run monitor's heartbeat
//!   ring, a schema-versioned run-metrics JSON export, and a
//!   Chrome-trace-event export of the per-worker task timeline.
//!
//! ## Scheduler testing
//!
//! The scheduler is exercised at three levels: deque-level interleaving
//! tests (`deque` unit tests and `tests/scheduler_interleave.rs` hammer
//! push/pop/steal from many threads and assert every task executes
//! exactly once), pool-level termination tests (including a regression
//! test for the premature-termination race around
//! [`TaskPool::preregister_active`]), and an end-to-end differential
//! harness (`tests/engine_differential.rs` in the workspace umbrella
//! crate) that checks the parallel engine against the serial driver on
//! dozens of randomized instances at 1/2/4/8 threads.
//!
//! On top of that, the runtime's synchronization protocol is *model
//! checked*: every protocol-relevant primitive is imported through the
//! [`sync`] facade, which swaps in the `loom` interleaving explorer when
//! built with `RUSTFLAGS="--cfg loom"`. The loom suites
//! (`tests/loom_*.rs`) exhaustively enumerate schedules (up to a
//! preemption bound) of the deque's push/pop/steal/grow paths, the
//! counters' flush → stop-flag protocol, the pool's park/wake and
//! termination detection, and the snapshot-handoff publication and
//! adaptive-gate protocols (`loom_handoff.rs`). Weak-memory coverage beyond loom's
//! sequentially consistent exploration comes from the Miri and TSan CI
//! jobs (`.github/workflows/concurrency.yml`).
//!
//! ```
//! use gentrius_core::{GentriusConfig, StandProblem};
//! use gentrius_parallel::{run_parallel, ParallelConfig};
//! use phylo::newick::parse_forest;
//!
//! let (_, trees) = parse_forest(["((A,B),(C,D));", "((A,E),(F,G));"]).unwrap();
//! let problem = StandProblem::from_constraints(trees).unwrap();
//! let result = run_parallel(
//!     &problem,
//!     &GentriusConfig::exhaustive(),
//!     &ParallelConfig::with_threads(2),
//! )
//! .unwrap();
//! assert!(result.complete());
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod deque;
pub mod engine;
pub mod obs;
pub mod pool;
pub mod sync;
pub mod task;

pub use counters::{FlushThresholds, GlobalCounters, LocalCounters};
pub use deque::{Steal, StealDeque};
pub use engine::{
    run_parallel, run_parallel_epoch, ParallelConfig, ParallelRunResult, ResumeFrontier, TaskSpan,
    WorkerReport,
};
pub use obs::{Heartbeat, MonitorConfig, MonitorReport};
pub use pool::{SchedulerCounts, TaskPool, WorkerHandle};
pub use task::{paper_queue_capacity, partition_branches, Task};
