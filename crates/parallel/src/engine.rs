//! The parallel Gentrius engine (§III): deterministic serial prefix up to
//! the initial-split state `I_0`, uniform distribution of the split
//! branches over the workers, and thread-pool work stealing with
//! snapshot-handoff tasks thereafter (a task carries a resumable
//! [`gentrius_core::state::StateSnapshot`] instead of a replayable path —
//! see `task.rs` for the trade-off).

use crate::counters::{FlushThresholds, GlobalCounters, LocalCounters};
use crate::obs::monitor::{spawn_monitor, MonitorConfig, MonitorReport, MonitorShared};
use crate::pool::{SchedulerCounts, TaskPool, WorkerHandle};
use crate::task::{paper_queue_capacity, partition_branches, Task};
use gentrius_core::config::{GentriusConfig, StopCause};
use gentrius_core::explore::{Explorer, StepEvent};
use gentrius_core::problem::{ProblemError, StandProblem};
use gentrius_core::sink::{CountOnly, StandSink};
use gentrius_core::state::SearchState;
use gentrius_core::stats::RunStats;
use phylo::tree::EdgeId;
use std::time::{Duration, Instant};

/// Parallel-engine knobs on top of the algorithmic [`GentriusConfig`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of worker threads (`N_t`).
    pub threads: usize,
    /// Counter-flush batching (§III-B; `unbatched()` for the ablation).
    pub flush: FlushThresholds,
    /// Per-worker deque capacity (the §III-A "split only when there is
    /// room" gate); `None` applies the paper rule
    /// (`N_t + 1` if `N_t < 8`, else `N_t / 2`).
    pub queue_capacity: Option<usize>,
    /// Minimum remaining taxa for a thread to submit a task (§III-A: deep
    /// threads, with fewer than three taxa left, may not submit).
    pub min_remaining_for_split: usize,
    /// Seed for the scheduler's randomized victim selection (varies the
    /// steal order; results must be independent of it).
    pub steal_seed: u64,
    /// Record per-worker task spans (wall-clock seconds since engine
    /// start) in the [`WorkerReport`]s.
    pub trace: bool,
    /// Run-monitor settings (`None` disables the supervisor thread). The
    /// monitor is what enforces the wall-clock stopping rule — counter
    /// flushes cannot, because parked or starved workers never flush — so
    /// disable it only in tests that deliberately model the old behavior.
    pub monitor: Option<MonitorConfig>,
    /// Adaptive task granularity: gate split publication on the observed
    /// steal-to-execute ratio (sampled each monitor tick), so workers stop
    /// paying for state snapshots once the pool is saturated. A single
    /// worker under this mode never splits at all (nobody can steal).
    pub adaptive_split: bool,
    /// Steps between polls of the shared stop flag in the worker hot loop.
    /// Larger strides keep the (cheap but shared) flag read off the
    /// per-state path; the stop-overshoot bound grows by at most one
    /// stride per worker. Tests asserting tight overshoot bounds set 1.
    pub stop_poll_stride: usize,
}

impl ParallelConfig {
    /// Paper-faithful settings for `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            flush: FlushThresholds::paper_defaults(),
            queue_capacity: None,
            min_remaining_for_split: 3,
            steal_seed: 0,
            trace: false,
            monitor: Some(MonitorConfig::default()),
            adaptive_split: true,
            stop_poll_stride: 64,
        }
    }

    fn capacity(&self) -> usize {
        self.queue_capacity
            .unwrap_or_else(|| paper_queue_capacity(self.threads))
    }
}

/// One executed task on one worker, in wall-clock seconds since engine
/// start (recorded only with [`ParallelConfig::trace`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskSpan {
    /// Seconds from engine start when the task began (resume included).
    pub start: f64,
    /// Seconds from engine start when the worker went idle again.
    pub end: f64,
    /// Insertions between `I_0` and the task's snapshot state (steal depth
    /// diagnostics; 0 for the initial-split chunks). Replaces the old
    /// replayed-path length, which is always 0 under snapshot handoff.
    pub snapshot_depth: usize,
}

/// Per-worker diagnostics (load balance, §III's motivation).
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Tasks this worker executed (initial chunk included).
    pub tasks_executed: usize,
    /// Work counted by this worker.
    pub stats: RunStats,
    /// Scheduler activity: steals, failed steal sweeps, parks, splits.
    pub sched: SchedulerCounts,
    /// Wall-clock task spans (empty unless tracing was enabled).
    pub spans: Vec<TaskSpan>,
}

/// Outcome of a parallel run.
#[derive(Clone, Debug, Default)]
pub struct ParallelRunResult {
    /// Global counters (exact totals of the work performed). Count-based
    /// stopping limits may be overshot by up to one flush batch per
    /// thread, as in the paper; the wall-clock limit is enforced by the
    /// run monitor to within about one monitor tick.
    pub stats: RunStats,
    /// The stopping rule that fired, if any.
    pub stop: Option<StopCause>,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Index of the initial agile tree.
    pub initial_tree: usize,
    /// Counters accumulated by the serial prefix (root → `I_0`).
    pub prefix: RunStats,
    /// Scheduler activity summed over the workers (`workers[i].sched`).
    /// Its `splits` are the tasks submitted through worker deques.
    pub scheduler: SchedulerCounts,
    /// Initial-split chunks routed through the global injector.
    pub injected: u64,
    /// Deque ring-buffer doublings across all workers (the Chase–Lev
    /// `grow` path; the churn stress profile asserts on this).
    pub deque_grows: u64,
    /// Per-worker reports, in thread order.
    pub workers: Vec<WorkerReport>,
    /// What the run monitor observed (all-default when disabled).
    pub monitor: MonitorReport,
}

impl ParallelRunResult {
    /// True if the stand was fully enumerated.
    pub fn complete(&self) -> bool {
        self.stop.is_none()
    }
}

/// A frontier to resume from: the pending task descriptors of a previous
/// epoch plus the cumulative counters it had reached. Fed to
/// [`run_parallel_epoch`], which skips the serial prefix and initial split
/// (that work is *inside* the descriptors) and seeds the global counters
/// so the stopping rules fire against cumulative totals.
pub struct ResumeFrontier {
    /// The pending work, exactly as captured by a previous epoch. A task
    /// with an **empty** branch list is the synthetic complete-state
    /// descriptor (its snapshot is a finished stand tree that was counted
    /// as pending, not emitted); workers re-emit it via the root-complete
    /// path.
    pub tasks: Vec<Task>,
    /// Cumulative counters over all previous epochs.
    pub base: RunStats,
}

/// Counts the stand in parallel (no topology output).
pub fn run_parallel(
    problem: &StandProblem,
    config: &GentriusConfig,
    pcfg: &ParallelConfig,
) -> Result<ParallelRunResult, ProblemError> {
    let (r, _sinks, _frontier) =
        run_parallel_epoch(problem, config, pcfg, |_| CountOnly, None, false)?;
    Ok(r)
}

/// Runs **one epoch** of the parallel engine, giving each execution
/// context its own sink: index 0 belongs to the serial prefix (main
/// thread), index `1 + t` to worker `t`, returned in that order for
/// merging. A whole run is one epoch with `resume: None` and
/// `capture_frontier: false`; checkpointed runs chain epochs with:
///
/// * `resume` — start from a previous epoch's [`ResumeFrontier`] instead
///   of the serial prefix + initial split: the descriptors are injected
///   directly and the global counters are seeded with the frontier's
///   cumulative base, so the reported stats (and the stopping rules) are
///   cumulative across epochs. Wall-clock budgets are **not** rebased —
///   callers chaining epochs subtract elapsed time from `max_time`
///   themselves.
/// * `capture_frontier` — when the epoch stops early (checkpoint pause
///   via [`MonitorConfig::checkpoint_every`], or any stopping rule), the
///   un-done work is returned as the third tuple element: each worker
///   drains its in-progress explorer into descriptors and the pool's
///   queues are drained after the join. An empty frontier means the
///   search space is exhausted. With `capture_frontier: false` early
///   stops discard the frontier.
///
/// A paused epoch reports `stop: None` but a non-empty frontier; callers
/// distinguish "complete" from "paused" by the frontier, not the cause.
pub fn run_parallel_epoch<S, F>(
    problem: &StandProblem,
    config: &GentriusConfig,
    pcfg: &ParallelConfig,
    make_sink: F,
    resume: Option<ResumeFrontier>,
    capture_frontier: bool,
) -> Result<(ParallelRunResult, Vec<S>, Vec<Task>), ProblemError>
where
    S: StandSink + Send,
    F: Fn(usize) -> S,
{
    assert!(pcfg.threads >= 1, "need at least one worker thread");
    let initial = problem.initial_tree_index(&config.initial_tree)?;
    // Surface order-rule problems before any thread is spawned (workers
    // construct their states with expect()).
    SearchState::new(problem, initial, &config.taxon_order).map_err(ProblemError::BadTaxonOrder)?;
    let started = Instant::now();

    // Root invariant check (same as the serial driver). A resumed frontier
    // does not start at the root: each of its states passed the same check
    // when it was built (in the epoch that captured it, or in
    // `StateSnapshot::from_parts` when read back from a checkpoint), and it
    // carries real pending work, so it must not be short-circuited.
    let mut sinks = Vec::new();
    let mut prefix_sink = make_sink(0);
    if resume.is_none()
        && problem
            .conflicting_constraint(&problem.constraints()[initial])
            .is_some()
    {
        sinks.push(prefix_sink);
        return Ok((
            ParallelRunResult {
                elapsed: started.elapsed(),
                threads: pcfg.threads,
                initial_tree: initial,
                workers: vec![WorkerReport::default(); pcfg.threads],
                ..ParallelRunResult::default()
            },
            sinks,
            Vec::new(),
        ));
    }

    let (resume_tasks, base_stats) = match resume {
        Some(f) => (Some(f.tasks), f.base),
        None => (None, RunStats::new()),
    };
    let global = GlobalCounters::with_base(config.stopping.clone(), base_stats);
    // The pool exists for the whole run (even though workers only spawn in
    // phase 3) so the monitor can wake parked threads and sample scheduler
    // state from its very first tick.
    let mut pool = TaskPool::with_seed(pcfg.threads, pcfg.capacity(), pcfg.steal_seed);
    pool.set_adaptive(pcfg.adaptive_split);
    let pool = pool;
    let monitor_shared = pcfg.monitor.as_ref().map(MonitorShared::new);

    let checkpoint_every = pcfg.monitor.as_ref().and_then(|m| m.checkpoint_every);

    // One scope holds the monitor and (later) the workers. Every return
    // path below must call `finish` on the monitor before the scope
    // closes, or the scope would wait on a supervisor that never quits.
    let (result, returned_sinks, frontier) = std::thread::scope(|scope| {
        if let Some(shared) = &monitor_shared {
            spawn_monitor(scope, shared, &global, &pool, started, checkpoint_every);
        }
        // If anything below unwinds (a worker panic propagating through
        // `join().expect`), the monitor must still be told to quit, or the
        // scope's implicit join would hang the unwind forever.
        struct MonitorQuitGuard<'a>(Option<&'a MonitorShared>);
        impl Drop for MonitorQuitGuard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    if let Some(shared) = self.0 {
                        shared.quit();
                    }
                }
            }
        }
        let _monitor_guard = MonitorQuitGuard(monitor_shared.as_ref());
        let finish_monitor = || match &monitor_shared {
            Some(shared) => shared.finish(&global, &pool, started),
            None => MonitorReport::default(),
        };

        let prefix_stats = if let Some(tasks) = resume_tasks {
            // ----------------------------------------------------------
            // Resume — the frontier descriptors *are* the remaining
            // search space; the serial prefix and the initial split were
            // already performed by the epoch that captured them. Inject
            // everything and go straight to the thread pool.
            // ----------------------------------------------------------
            for task in tasks {
                pool.inject(task);
            }
            RunStats::new()
        } else {
            // ----------------------------------------------------------
            // Phase 1 — serial prefix: identical across all threads (the
            // paper has every thread redo it; we run it once on the main
            // thread and count it once, so totals match the serial run
            // exactly). The monitor already supervises this phase: a
            // wall-clock limit expiring mid-prefix stops it within a
            // tick, and a checkpoint pause ends it via `pool.is_done()`.
            // ----------------------------------------------------------
            let state = new_state(problem, initial, config);
            let mut prefix_ex = Explorer::new_root(state);
            let mut prefix_local = LocalCounters::new(&global, pcfg.flush);
            loop {
                if global.stopped() || pool.is_done() {
                    break;
                }
                if prefix_ex.finished() {
                    break;
                }
                if prefix_ex.top().map(|f| f.pending()).unwrap_or(0) >= 2 {
                    break; // reached the initial-split state I_0
                }
                count_event(prefix_ex.step(&mut prefix_sink), &mut prefix_local);
            }
            let prefix_stats = prefix_local.totals();
            prefix_local.flush();
            drop(prefix_local);

            if prefix_ex.finished() || global.stopped() || pool.is_done() {
                // The whole search (or the stopping budget, or a
                // checkpoint pause) fit in the prefix.
                let frontier = if capture_frontier && !prefix_ex.finished() {
                    prefix_ex
                        .drain_frontier()
                        .into_iter()
                        .map(|(snap, taxon, branches)| Task::new(snap, taxon, branches, 0))
                        .collect()
                } else {
                    Vec::new()
                };
                let monitor = finish_monitor();
                sinks.push(prefix_sink);
                return (
                    ParallelRunResult {
                        stats: global.snapshot(),
                        stop: global.stop_cause(),
                        elapsed: started.elapsed(),
                        threads: pcfg.threads,
                        initial_tree: initial,
                        prefix: prefix_stats,
                        workers: vec![WorkerReport::default(); pcfg.threads],
                        monitor,
                        ..ParallelRunResult::default()
                    },
                    sinks,
                    frontier,
                );
            }

            // ----------------------------------------------------------
            // Phase 2 — initial split: distribute the admissible branches
            // of I_0's next taxon over the threads as uniformly as
            // possible (Fig. 2a; with fewer branches than threads the
            // surplus threads start parked and are fed by work stealing,
            // the queue-based equivalent of Fig. 2b).
            // ----------------------------------------------------------
            let split_frame = prefix_ex.top().expect("I_0 has a frame");
            let split_taxon = split_frame.taxon;
            let split_branches: Vec<EdgeId> = split_frame.branches[split_frame.cursor..].to_vec();
            // One snapshot of the I_0 state serves every chunk; workers
            // resume it directly instead of replaying the prefix path per
            // task. Every frame below the top is exhausted (the phase-1
            // loop breaks the moment a frame has ≥2 pending), so the
            // snapshot + split branches cover the remaining search space
            // exactly.
            let split_depth = prefix_ex.applied_depth();
            let split_snapshot = prefix_ex.state().snapshot();
            drop(prefix_ex);

            let chunks = partition_branches(&split_branches, pcfg.threads);
            // The initial chunks go through the global injector: any
            // worker may pick one up, surplus workers park until splits
            // reach their deques. (If the monitor already shut the pool
            // down, workers see `done` and exit without touching the
            // injected tasks.)
            for branches in chunks {
                pool.inject(Task::new(
                    split_snapshot.clone(),
                    split_taxon,
                    branches,
                    split_depth,
                ));
            }
            drop(split_snapshot);
            prefix_stats
        };

        // --------------------------------------------------------------
        // Phase 3 — thread pool with per-worker steal deques.
        // --------------------------------------------------------------
        let mut worker_sinks: Vec<Option<S>> =
            (0..pcfg.threads).map(|t| Some(make_sink(1 + t))).collect();
        // Workers get their own (inner) scope so the per-run borrows stay
        // local; the monitor in the outer scope keeps supervising them
        // throughout.
        let results: Vec<(WorkerReport, S, Vec<Task>)> = std::thread::scope(|wscope| {
            let mut handles = Vec::with_capacity(pcfg.threads);
            for (tid, sink_slot) in worker_sinks.iter_mut().enumerate() {
                let sink = sink_slot.take().expect("sink prepared per worker");
                let pool = &pool;
                let global = &global;
                let started_at = started;
                handles.push(wscope.spawn(move || {
                    worker_loop(
                        problem,
                        pcfg,
                        pool.worker(tid),
                        global,
                        sink,
                        started_at,
                        capture_frontier,
                    )
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let monitor = finish_monitor();

        let sched_counts = pool.scheduler_counts();
        let mut scheduler = SchedulerCounts::default();
        let mut workers = Vec::with_capacity(pcfg.threads);
        let mut frontier = Vec::new();
        sinks.push(prefix_sink);
        for (tid, (mut report, sink, drained)) in results.into_iter().enumerate() {
            report.sched = sched_counts[tid];
            scheduler.merge(&report.sched);
            workers.push(report);
            sinks.push(sink);
            frontier.extend(drained);
        }
        if capture_frontier {
            // The workers have joined, so the queues are quiescent: every
            // task still sitting in a deque or the injector is untouched
            // work and joins the frontier verbatim.
            frontier.extend(pool.drain_tasks());
        }

        (
            ParallelRunResult {
                stats: global.snapshot(),
                stop: global.stop_cause(),
                elapsed: started.elapsed(),
                threads: pcfg.threads,
                initial_tree: initial,
                prefix: prefix_stats,
                scheduler,
                injected: pool.total_injected() as u64,
                deque_grows: pool.total_deque_grows(),
                workers,
                monitor,
            },
            sinks,
            frontier,
        )
    });

    Ok((result, returned_sinks, frontier))
}

fn new_state<'p>(
    problem: &'p StandProblem,
    initial: usize,
    config: &GentriusConfig,
) -> SearchState<'p> {
    let mut state = SearchState::new(problem, initial, &config.taxon_order)
        .expect("validated problem must build a state");
    state.enable_mapping(config.mapping);
    state
}

#[inline]
fn count_event(ev: StepEvent, local: &mut LocalCounters<'_>) {
    match ev {
        StepEvent::Entered => local.intermediate_state(),
        StepEvent::StandTree => local.stand_tree(),
        StepEvent::DeadEnd => {
            local.intermediate_state();
            local.dead_end();
        }
        StepEvent::Backtracked | StepEvent::Finished => {}
    }
}

/// Attempts to carve a task out of the explorer's current state and submit
/// it onto the calling worker's own deque (paper §III-A task-creation
/// conditions: ≥2 pending branches, own deque below capacity, enough
/// remaining taxa to be worth stealing — plus the adaptive granularity
/// gate). The gates are ordered cheapest-first; only once all pass is the
/// O(state) snapshot taken. `base_depth` is the executing task's own
/// snapshot depth, so published depths accumulate along steal chains.
fn maybe_submit(
    ex: &mut Explorer<'_>,
    worker: &WorkerHandle<'_>,
    min_remaining: usize,
    base_depth: usize,
) {
    if ex.remaining_taxa() < min_remaining {
        return;
    }
    if !worker.has_room_hint() {
        return;
    }
    if !worker.split_allowed() {
        return;
    }
    if ex.top().map(|f| f.pending()).unwrap_or(0) < 2 {
        return;
    }
    let Some(branches) = ex.split_top() else {
        return;
    };
    let task = Task::new(
        ex.state().snapshot(),
        ex.top().expect("split implies a frame").taxon,
        branches,
        base_depth + ex.applied_depth(),
    );
    if let Err(task) = worker.try_push(task) {
        // Raced to a full deque (or a stopped pool): keep the branches.
        ex.unsplit_top(task.branches);
    }
}

fn worker_loop<S: StandSink>(
    problem: &StandProblem,
    pcfg: &ParallelConfig,
    worker: WorkerHandle<'_>,
    global: &GlobalCounters,
    mut sink: S,
    started: Instant,
    capture: bool,
) -> (WorkerReport, S, Vec<Task>) {
    // If this worker panics (a bug, not a control path), make sure the
    // rest of the pool is released instead of parking forever.
    struct PanicGuard<'a>(&'a TaskPool);
    impl Drop for PanicGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.shutdown();
            }
        }
    }
    let _guard = PanicGuard(worker.pool());

    let mut local = LocalCounters::new(global, pcfg.flush);
    let mut tasks_executed = 0usize;
    let mut spans: Vec<TaskSpan> = Vec::new();
    let mut frontier: Vec<Task> = Vec::new();
    let stride = pcfg.stop_poll_stride.max(1);

    // Initial chunks arrive through the pool's global injector; everything
    // after that comes off this worker's own deque or is stolen. Each task
    // carries its own resumable state: no shared anchor, no replay, no
    // unwind — the explorer is simply dropped when the task finishes.
    while let Some(task) = worker.next_task() {
        tasks_executed += 1;
        let span_start = pcfg.trace.then(|| started.elapsed().as_secs_f64());
        let snapshot_depth = task.depth;
        let state = SearchState::resume(problem, task.snapshot);
        let mut ex = if task.branches.is_empty() {
            // The synthetic complete-state descriptor (a paused epoch's
            // root-complete marker): the snapshot *is* a stand tree that
            // was captured before being emitted. `new_root` re-arms the
            // root-complete path so the next step emits it exactly once.
            Explorer::new_root(state)
        } else {
            let mut ex = Explorer::new_idle(state);
            ex.resume_task(task.taxon, task.branches);
            ex
        };
        // The received frame itself may be splittable (Fig. 2b's group
        // separation happens via the scheduler).
        maybe_submit(
            &mut ex,
            &worker,
            pcfg.min_remaining_for_split,
            snapshot_depth,
        );
        let mut until_poll = 1usize;
        loop {
            until_poll -= 1;
            if until_poll == 0 {
                until_poll = stride;
                // `is_done` catches a checkpoint pause, which quiesces the
                // pool without raising the global stop (no rule fired).
                if global.stopped() || worker.pool().is_done() {
                    break;
                }
            }
            let ev = ex.step(&mut sink);
            if ev == StepEvent::Finished {
                break;
            }
            count_event(ev, &mut local);
            if ev == StepEvent::Entered {
                maybe_submit(
                    &mut ex,
                    &worker,
                    pcfg.min_remaining_for_split,
                    snapshot_depth,
                );
            }
        }
        if let Some(start) = span_start {
            spans.push(TaskSpan {
                start,
                end: started.elapsed().as_secs_f64(),
                snapshot_depth,
            });
        }
        if global.stopped() || worker.pool().is_done() {
            if capture {
                // Turn whatever this task had left into descriptors so a
                // checkpoint can carry it (a no-op if the explorer just
                // finished). Counters stay exact: drained work was never
                // counted, resumed work will be.
                frontier.extend(
                    ex.drain_frontier()
                        .into_iter()
                        .map(|(snap, taxon, branches)| {
                            Task::new(snap, taxon, branches, snapshot_depth)
                        }),
                );
            }
            worker.task_done();
            worker.pool().shutdown();
            break;
        }
        worker.task_done();
    }

    let totals = local.totals();
    local.flush();
    (
        WorkerReport {
            tasks_executed,
            stats: totals,
            sched: SchedulerCounts::default(), // filled in by the engine
            spans,
        },
        sink,
        frontier,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gentrius_core::driver::run_serial;
    use gentrius_core::sink::CountOnly;
    use phylo::newick::parse_forest;

    fn problem(newicks: &[&str]) -> StandProblem {
        let (_, trees) = parse_forest(newicks.iter().copied()).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    fn exhaustive() -> GentriusConfig {
        GentriusConfig::exhaustive()
    }

    #[test]
    fn parallel_equals_serial_counts() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let serial = run_serial(&p, &exhaustive(), &mut CountOnly).unwrap();
        for threads in [1, 2, 3, 4] {
            let r =
                run_parallel(&p, &exhaustive(), &ParallelConfig::with_threads(threads)).unwrap();
            assert!(r.complete());
            assert_eq!(r.stats, serial.stats, "threads={threads}");
        }
    }

    #[test]
    fn worker_reports_partition_the_work() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let r = run_parallel(&p, &exhaustive(), &ParallelConfig::with_threads(3)).unwrap();
        let mut merged = r.prefix;
        for w in &r.workers {
            merged.merge(&w.stats);
        }
        assert_eq!(merged, r.stats);
        let total_tasks: usize = r.workers.iter().map(|w| w.tasks_executed).sum();
        assert!(total_tasks >= 1);
    }

    #[test]
    fn incompatible_input_returns_empty() {
        let p = problem(&["((A,B),(C,D));", "((A,C),(B,D));"]);
        let r = run_parallel(&p, &exhaustive(), &ParallelConfig::with_threads(2)).unwrap();
        assert_eq!(r.stats.stand_trees, 0);
        assert!(r.complete());
    }

    #[test]
    fn stand_tree_limit_stops_parallel_run() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let full = run_parallel(&p, &exhaustive(), &ParallelConfig::with_threads(2)).unwrap();
        assert!(full.stats.stand_trees > 50);
        let cfg = GentriusConfig {
            stopping: gentrius_core::StoppingRules::counts(50, u64::MAX),
            ..GentriusConfig::default()
        };
        let mut pcfg = ParallelConfig::with_threads(2);
        pcfg.flush = FlushThresholds::unbatched();
        let r = run_parallel(&p, &cfg, &pcfg).unwrap();
        assert_eq!(r.stop, Some(StopCause::StandTreeLimit));
        assert!(r.stats.stand_trees >= 50);
        assert!(r.stats.stand_trees < full.stats.stand_trees);
    }

    #[test]
    fn batched_counters_may_overshoot_but_totals_are_exact() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let cfg = GentriusConfig {
            stopping: gentrius_core::StoppingRules::counts(10, u64::MAX),
            ..GentriusConfig::default()
        };
        let mut pcfg = ParallelConfig::with_threads(2);
        pcfg.flush = FlushThresholds {
            stand_trees: 64,
            intermediate_states: 64,
            dead_ends: 64,
        };
        let r = run_parallel(&p, &cfg, &pcfg).unwrap();
        assert_eq!(r.stop, Some(StopCause::StandTreeLimit));
        // Overshoot is bounded by one batch per context.
        assert!(r.stats.stand_trees >= 10);
        assert!(r.stats.stand_trees <= 10 + 64 * 3);
    }

    #[test]
    fn traced_spans_cover_the_work() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let mut pcfg = ParallelConfig::with_threads(3);
        pcfg.trace = true;
        let r = run_parallel(&p, &exhaustive(), &pcfg).unwrap();
        let elapsed = r.elapsed.as_secs_f64();
        let mut total_spans = 0;
        for w in &r.workers {
            assert_eq!(w.spans.len(), w.tasks_executed);
            for s in &w.spans {
                assert!(s.start <= s.end);
                assert!(s.end <= elapsed + 1e-3);
            }
            for pair in w.spans.windows(2) {
                assert!(pair[0].end <= pair[1].start + 1e-6, "overlapping spans");
            }
            total_spans += w.spans.len();
        }
        assert!(total_spans >= 1);
        // Untraced runs record nothing.
        let r2 = run_parallel(&p, &exhaustive(), &ParallelConfig::with_threads(3)).unwrap();
        assert!(r2.workers.iter().all(|w| w.spans.is_empty()));
    }

    #[test]
    fn queue_capacity_override() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]);
        let mut pcfg = ParallelConfig::with_threads(2);
        pcfg.queue_capacity = Some(1);
        let serial = run_serial(&p, &exhaustive(), &mut CountOnly).unwrap();
        let r = run_parallel(&p, &exhaustive(), &pcfg).unwrap();
        assert_eq!(r.stats, serial.stats);
    }
}
