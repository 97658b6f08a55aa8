//! The run monitor: a supervisor thread that gives the engine a heartbeat.
//!
//! §III-B's batched counters evaluate the stopping rules only when a
//! worker flushes. For the two count limits that is exactly the paper's
//! documented behaviour (overshoot bounded by one batch per thread), but
//! for the wall-clock rule it was a real bug: a run whose workers are all
//! parked on the idle condvar, or grinding below the flush thresholds,
//! re-examines the clock *never*, so `max_time` could be overshot without
//! bound. The monitor makes the fix structural instead of sprinkling clock
//! checks through the hot paths: the engine owns one lightweight thread
//! that ticks every [`MonitorConfig::tick`], calls
//! [`enforce_time_limit`] (raise the stop flag with
//! [`StopCause::TimeLimit`], then shut the pool down so parked workers
//! wake), and samples per-worker progress into a bounded ring of
//! [`Heartbeat`] snapshots — the raw series behind the `--metrics-json`
//! export and the scaling-experiment timelines.
//!
//! Concurrency: the monitor's own state (quit flag, tick count, heartbeat
//! ring) lives behind one facade `Mutex` + `Condvar`, so the whole
//! protocol is visible to the loom model. The *enforcement* action is a
//! pure function over [`GlobalCounters`] + [`TaskPool`]
//! ([`enforce_time_limit`]), which `tests/loom_monitor.rs` races against
//! parked and mid-flush workers.

use crate::counters::GlobalCounters;
use crate::pool::{SchedulerCounts, TaskPool};
use crate::sync::{Condvar, Mutex};
use gentrius_core::config::StopCause;
use gentrius_core::stats::RunStats;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Knobs for the run monitor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Supervision period: how often the monitor enforces `max_time` and
    /// samples a heartbeat. A checkpoint deadline that falls inside a tick
    /// wakes the monitor early, so `checkpoint_every` is not rounded up to
    /// a whole tick.
    pub tick: Duration,
    /// Ring capacity for heartbeat snapshots; once full, the oldest
    /// sample is dropped for each new one (the drop count is reported).
    pub heartbeat_capacity: usize,
    /// Checkpoint cadence: once this much wall-clock time has elapsed
    /// since engine start, the monitor requests a cooperative pause
    /// ([`TaskPool::request_pause`]) so the epoch ends with its frontier
    /// intact and the caller can write a `.standckpt`. `None` disables
    /// the trigger (the epoch runs to completion or a stopping rule).
    pub checkpoint_every: Option<Duration>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            tick: Duration::from_millis(50),
            heartbeat_capacity: 512,
            checkpoint_every: None,
        }
    }
}

/// One sampled snapshot of run progress.
#[derive(Clone, Debug, PartialEq)]
pub struct Heartbeat {
    /// Seconds since engine start at the moment of sampling.
    pub elapsed_secs: f64,
    /// Global counter snapshot (flushed totals only — per-thread pending
    /// batches are invisible until they flush, as in the paper).
    pub stats: RunStats,
    /// Per-worker scheduler activity, indexed by worker id.
    pub per_worker: Vec<SchedulerCounts>,
}

/// What the monitor observed over one engine run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorReport {
    /// Supervision ticks performed (0 when the monitor was disabled).
    pub ticks: u64,
    /// True if the run was stopped by the wall-clock rule
    /// ([`StopCause::TimeLimit`]), whether the monitor or a counter flush
    /// raised it first.
    pub time_limit_raised: bool,
    /// Heartbeats evicted from the ring because it was full.
    pub dropped_heartbeats: u64,
    /// The retained heartbeat series, oldest first. The final entry is
    /// sampled at engine shutdown, so a completed run always carries its
    /// end state even if every periodic sample was evicted.
    pub heartbeats: Vec<Heartbeat>,
}

/// Mutable monitor state, guarded by [`MonitorShared::state`].
struct MonitorState {
    quit: bool,
    ticks: u64,
    dropped: u64,
    heartbeats: VecDeque<Heartbeat>,
    capacity: usize,
}

/// Shared handle between the engine and its monitor thread. Created
/// before the worker scope opens; [`MonitorShared::finish`] must be called
/// (on every engine path) before the scope closes, or the scope would
/// wait on a monitor that never quits.
pub struct MonitorShared {
    state: Mutex<MonitorState>,
    cv: Condvar,
    tick: Duration,
}

impl MonitorShared {
    /// Fresh shared state for one run.
    pub fn new(cfg: &MonitorConfig) -> Self {
        MonitorShared {
            state: Mutex::new(MonitorState {
                quit: false,
                ticks: 0,
                dropped: 0,
                heartbeats: VecDeque::new(),
                capacity: cfg.heartbeat_capacity.max(1),
            }),
            cv: Condvar::new(),
            tick: cfg.tick,
        }
    }

    /// Signals the monitor thread to exit, takes a final heartbeat, and
    /// returns everything observed. Idempotent in effect; the monitor
    /// wakes immediately (no residual tick latency on engine shutdown).
    pub fn finish(
        &self,
        global: &GlobalCounters,
        pool: &TaskPool,
        started: Instant,
    ) -> MonitorReport {
        let mut st = self.state.lock().unwrap();
        st.quit = true;
        push_heartbeat(&mut st, global, pool, started);
        let report = MonitorReport {
            ticks: st.ticks,
            time_limit_raised: global.stop_cause() == Some(StopCause::TimeLimit),
            dropped_heartbeats: st.dropped,
            heartbeats: st.heartbeats.iter().cloned().collect(),
        };
        drop(st);
        self.cv.notify_all();
        report
    }

    /// Signals the monitor thread to exit without sampling or reporting.
    /// The engine's unwind guard uses this so a panicking worker still
    /// propagates (a scope join on a never-quitting monitor would hang
    /// the unwind instead).
    pub fn quit(&self) {
        let mut st = self.state.lock().unwrap();
        st.quit = true;
        drop(st);
        self.cv.notify_all();
    }
}

fn push_heartbeat(
    st: &mut MonitorState,
    global: &GlobalCounters,
    pool: &TaskPool,
    started: Instant,
) {
    if st.heartbeats.len() >= st.capacity {
        st.heartbeats.pop_front();
        st.dropped += 1;
    }
    st.heartbeats.push_back(Heartbeat {
        elapsed_secs: started.elapsed().as_secs_f64(),
        stats: global.snapshot(),
        per_worker: pool.scheduler_counts(),
    });
}

/// The bugfix, as a pure action: if the run's wall-clock budget is
/// exhausted, raise the stop flag with [`StopCause::TimeLimit`] (the
/// first-writer-wins CAS keeps any earlier cause) and shut the pool down
/// so parked workers wake instead of sleeping through the stop. Safe to
/// call repeatedly; both halves are idempotent. Returns whether the limit
/// was exceeded (i.e. whether enforcement ran).
pub fn enforce_time_limit(global: &GlobalCounters, pool: &TaskPool) -> bool {
    if !global.time_limit_exceeded() {
        return false;
    }
    global.raise_stop(StopCause::TimeLimit);
    pool.shutdown();
    true
}

/// The adaptive-granularity controller, as a pure action over one
/// heartbeat interval: given the previous tick's total steal/execute
/// counts, sample the new totals and open or close the pool's split gate.
///
/// Heuristic: the pool is *saturated* when the interval saw real task
/// throughput (at least one completed task per worker) but steals claimed
/// ≤ 1/4 of it — everyone had local work, so publishing more stealable
/// frames (each costing a state snapshot) is pure overhead. Any other
/// interval — steal-heavy, or too quiet to judge — opens the gate, and a
/// parked worker overrides a closed gate instantly via
/// [`crate::WorkerHandle::split_allowed`]. Returns the new gate state.
pub fn adapt_split_gate(pool: &TaskPool, prev_steals: &mut u64, prev_executed: &mut u64) -> bool {
    let mut steals = 0u64;
    let mut executed = 0u64;
    for c in pool.scheduler_counts() {
        steals += c.steals;
        executed += c.executed;
    }
    let d_steals = steals.saturating_sub(*prev_steals);
    let d_executed = executed.saturating_sub(*prev_executed);
    *prev_steals = steals;
    *prev_executed = executed;
    let saturated = d_executed >= pool.workers() as u64 && d_steals * 4 <= d_executed;
    pool.set_split_gate(!saturated);
    !saturated
}

/// Spawns the monitor thread into the engine's worker scope. The thread
/// runs until [`MonitorShared::finish`] is called: each tick it enforces
/// the wall-clock rule, retunes the adaptive split gate and samples a
/// heartbeat, then sleeps on the shared condvar for up to one tick (so
/// shutdown wakes it instantly).
pub fn spawn_monitor<'scope, 'env: 'scope>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    shared: &'env MonitorShared,
    global: &'env GlobalCounters,
    pool: &'env TaskPool,
    started: Instant,
    checkpoint_every: Option<Duration>,
) {
    scope.spawn(move || {
        let mut prev_steals = 0u64;
        let mut prev_executed = 0u64;
        let mut pause_raised = false;
        let mut st = shared.state.lock().unwrap();
        loop {
            if st.quit {
                // `finish` already took the final sample.
                break;
            }
            st.ticks += 1;
            enforce_time_limit(global, pool);
            // The checkpoint trigger: once the epoch's wall-clock budget is
            // spent, quiesce the workers cooperatively. Raised at most once
            // per epoch — after the pause the pool is shutting down anyway.
            // Until then the monitor wakes at the deadline when it falls
            // inside the tick, so a cadence shorter than a tick is kept.
            let mut wait = shared.tick;
            if let Some(every) = checkpoint_every.filter(|_| !pause_raised) {
                match every.checked_sub(started.elapsed()) {
                    Some(left) if !left.is_zero() => wait = wait.min(left),
                    _ => {
                        pause_raised = true;
                        pool.request_pause();
                    }
                }
            }
            adapt_split_gate(pool, &mut prev_steals, &mut prev_executed);
            push_heartbeat(&mut st, global, pool, started);
            let (guard, _timeout) = shared.cv.wait_timeout(st, wait).unwrap();
            st = guard;
        }
    });
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use gentrius_core::config::StoppingRules;

    fn time_rules(max: Duration) -> StoppingRules {
        StoppingRules {
            max_stand_trees: None,
            max_intermediate_states: None,
            max_time: Some(max),
        }
    }

    #[test]
    fn enforce_is_inert_within_budget() {
        let g = GlobalCounters::new(time_rules(Duration::from_secs(3600)));
        let p = TaskPool::new(2, 4);
        assert!(!enforce_time_limit(&g, &p));
        assert!(!g.stopped());
        assert!(!p.is_done());
    }

    #[test]
    fn enforce_raises_time_limit_and_shuts_down_the_pool() {
        let g = GlobalCounters::new(time_rules(Duration::ZERO));
        let p = TaskPool::new(2, 4);
        assert!(enforce_time_limit(&g, &p));
        assert!(g.stopped());
        assert_eq!(g.stop_cause(), Some(StopCause::TimeLimit));
        assert!(p.is_done());
        // Idempotent on repeat.
        assert!(enforce_time_limit(&g, &p));
        assert_eq!(g.stop_cause(), Some(StopCause::TimeLimit));
    }

    #[test]
    fn enforce_keeps_an_earlier_cause() {
        let g = GlobalCounters::new(time_rules(Duration::ZERO));
        let p = TaskPool::new(1, 1);
        g.raise_stop(StopCause::StandTreeLimit);
        assert!(enforce_time_limit(&g, &p));
        assert_eq!(g.stop_cause(), Some(StopCause::StandTreeLimit));
        assert!(p.is_done(), "parked workers must still be released");
    }

    #[test]
    fn adaptive_controller_tracks_the_steal_to_execute_ratio() {
        use crate::task::Task;
        use phylo::taxa::TaxonId;

        let mut p = TaskPool::new(2, 8);
        p.set_adaptive(true);
        let (mut prev_s, mut prev_e) = (0u64, 0u64);
        // Quiet interval: nothing executed — the gate stays open.
        assert!(adapt_split_gate(&p, &mut prev_s, &mut prev_e));
        // Steal-free throughput: worker 0 runs 4 of its own tasks.
        {
            let w = p.worker(0);
            for i in 0..4 {
                w.try_push(Task::probe(TaxonId(0), vec![phylo::tree::EdgeId(i)]))
                    .unwrap();
            }
            for _ in 0..4 {
                let _ = w.next_task().unwrap();
                w.task_done();
            }
        }
        assert!(
            !adapt_split_gate(&p, &mut prev_s, &mut prev_e),
            "saturated interval must close the gate"
        );
        assert!(!p.worker(0).split_allowed());
        // The next interval shows no progress: the gate reopens.
        assert!(adapt_split_gate(&p, &mut prev_s, &mut prev_e));
        assert!(p.worker(0).split_allowed());
    }

    #[test]
    fn heartbeat_ring_is_bounded_and_reports_drops() {
        let g = GlobalCounters::new(StoppingRules::unlimited());
        let p = TaskPool::new(2, 4);
        let shared = MonitorShared::new(&MonitorConfig {
            tick: Duration::from_millis(1),
            heartbeat_capacity: 4,
            checkpoint_every: None,
        });
        let t0 = Instant::now();
        {
            let mut st = shared.state.lock().unwrap();
            for _ in 0..10 {
                push_heartbeat(&mut st, &g, &p, t0);
            }
        }
        let report = shared.finish(&g, &p, t0);
        assert_eq!(report.heartbeats.len(), 4);
        assert_eq!(report.dropped_heartbeats, 7); // 10 + final, cap 4
        for pair in report.heartbeats.windows(2) {
            assert!(pair[0].elapsed_secs <= pair[1].elapsed_secs);
        }
        assert_eq!(report.heartbeats[0].per_worker.len(), 2);
    }

    #[test]
    fn checkpoint_cadence_shorter_than_a_tick_is_kept() {
        // A 20 ms cadence under a 60 s tick: the monitor must wake at the
        // cadence instead of sleeping out the tick.
        let g = GlobalCounters::new(StoppingRules::unlimited());
        let p = TaskPool::new(2, 4);
        p.preregister_active(1); // keeps the parked worker from self-draining
        let shared = MonitorShared::new(&MonitorConfig {
            tick: Duration::from_secs(60),
            heartbeat_capacity: 64,
            checkpoint_every: None,
        });
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            spawn_monitor(scope, &shared, &g, &p, t0, Some(Duration::from_millis(20)));
            // Parked until the pause shuts the pool down.
            assert!(p.worker(1).next_task().is_none());
            shared.finish(&g, &p, t0)
        });
        assert!(p.pause_requested());
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the pause waited for a tick: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn monitor_thread_stops_a_parked_pool_and_quits_on_finish() {
        let g = GlobalCounters::new(time_rules(Duration::from_millis(5)));
        let p = TaskPool::new(2, 4);
        p.preregister_active(1); // keeps the parked worker from self-draining
        let shared = MonitorShared::new(&MonitorConfig {
            tick: Duration::from_millis(2),
            heartbeat_capacity: 64,
            checkpoint_every: None,
        });
        let t0 = Instant::now();
        let report = std::thread::scope(|scope| {
            spawn_monitor(scope, &shared, &g, &p, t0, None);
            // A parked worker never flushes counters; only the monitor can
            // release it once the 5 ms budget runs out.
            let got = p.worker(1).next_task();
            assert!(got.is_none());
            shared.finish(&g, &p, t0)
        });
        assert_eq!(g.stop_cause(), Some(StopCause::TimeLimit));
        assert!(report.time_limit_raised);
        assert!(report.ticks >= 1);
        assert!(!report.heartbeats.is_empty());
    }
}
