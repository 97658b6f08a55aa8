//! Schema-versioned `RunMetrics` JSON export of a [`ParallelRunResult`].
//!
//! One engine run serializes to a single self-describing JSON document:
//! the `schema`/`version` header first, then totals, stopping outcome,
//! flush thresholds, aggregate and per-worker scheduler diagnostics, and
//! the monitor's heartbeat series. The format is covered by a golden-file
//! test (`tests/metrics_golden.rs`) — any field rename, reorder or type
//! change is a schema break and must bump [`METRICS_VERSION`] along with
//! the fixture.
//!
//! The exporter writes to any `io::Write` (the workspace `no-stray-io`
//! lint bars library code from printing); the CLI surfaces it as
//! `gentrius stand --metrics-json <path>` and the bench smoke target
//! seeds the `BENCH_*.json` perf trajectory with it.

use super::json::JsonWriter;
use super::monitor::Heartbeat;
use crate::counters::FlushThresholds;
use crate::engine::ParallelRunResult;
use crate::pool::SchedulerCounts;
use gentrius_core::config::StopCause;
use gentrius_core::stats::RunStats;
use std::io;

/// Schema identifier carried in every export.
pub const METRICS_SCHEMA: &str = "gentrius-run-metrics";

/// Current schema version. Bump on any breaking change to the document
/// layout and regenerate the golden fixture.
///
/// v2: scheduler objects (aggregate and per-worker) gained `executed`
/// (tasks completed — the denominator of the adaptive-granularity
/// controller's steal-to-execute ratio).
pub const METRICS_VERSION: u64 = 2;

fn stop_cause_str(stop: Option<StopCause>) -> Option<&'static str> {
    match stop {
        None => None,
        Some(StopCause::StandTreeLimit) => Some("stand-tree-limit"),
        Some(StopCause::StateLimit) => Some("state-limit"),
        Some(StopCause::TimeLimit) => Some("time-limit"),
    }
}

fn stats_object(w: &mut JsonWriter, s: &RunStats) {
    w.begin_object();
    w.key("stand_trees").u64(s.stand_trees);
    w.key("intermediate_states").u64(s.intermediate_states);
    w.key("dead_ends").u64(s.dead_ends);
    w.end_object();
}

fn sched_object(w: &mut JsonWriter, s: &SchedulerCounts) {
    w.begin_object();
    w.key("steals").u64(s.steals);
    w.key("failed_steals").u64(s.failed_steals);
    w.key("parks").u64(s.parks);
    w.key("splits").u64(s.splits);
    w.key("executed").u64(s.executed);
    w.end_object();
}

fn heartbeat_object(w: &mut JsonWriter, h: &Heartbeat) {
    w.begin_object();
    w.key("elapsed_secs").f64(h.elapsed_secs);
    w.key("stats");
    stats_object(w, &h.stats);
    w.key("per_worker").begin_array();
    for s in &h.per_worker {
        sched_object(w, s);
    }
    w.end_array();
    w.end_object();
}

/// Renders one run as a schema-v1 metrics document (compact JSON, no
/// trailing newline).
pub fn render_run_metrics(result: &ParallelRunResult, flush: &FlushThresholds) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string(METRICS_SCHEMA);
    w.key("version").u64(METRICS_VERSION);
    w.key("threads").u64(result.threads as u64);
    w.key("elapsed_secs").f64(result.elapsed.as_secs_f64());
    match stop_cause_str(result.stop) {
        Some(c) => w.key("stop_cause").string(c),
        None => w.key("stop_cause").null(),
    };
    w.key("complete").bool(result.complete());
    w.key("initial_tree").u64(result.initial_tree as u64);
    w.key("flush_thresholds").begin_object();
    w.key("stand_trees").u64(flush.stand_trees);
    w.key("intermediate_states").u64(flush.intermediate_states);
    w.key("dead_ends").u64(flush.dead_ends);
    w.end_object();
    w.key("stats");
    stats_object(&mut w, &result.stats);
    w.key("prefix");
    stats_object(&mut w, &result.prefix);
    w.key("stolen_tasks").u64(result.scheduler.splits);
    w.key("scheduler").begin_object();
    w.key("steals").u64(result.scheduler.steals);
    w.key("failed_steals").u64(result.scheduler.failed_steals);
    w.key("parks").u64(result.scheduler.parks);
    w.key("splits").u64(result.scheduler.splits);
    w.key("executed").u64(result.scheduler.executed);
    w.key("injected").u64(result.injected);
    w.key("deque_grows").u64(result.deque_grows);
    w.end_object();
    w.key("workers").begin_array();
    for worker in &result.workers {
        w.begin_object();
        w.key("tasks_executed").u64(worker.tasks_executed as u64);
        w.key("stats");
        stats_object(&mut w, &worker.stats);
        w.key("sched");
        sched_object(&mut w, &worker.sched);
        w.key("spans").u64(worker.spans.len() as u64);
        w.end_object();
    }
    w.end_array();
    w.key("monitor").begin_object();
    w.key("ticks").u64(result.monitor.ticks);
    w.key("time_limit_raised")
        .bool(result.monitor.time_limit_raised);
    w.key("dropped_heartbeats")
        .u64(result.monitor.dropped_heartbeats);
    w.key("heartbeats").begin_array();
    for h in &result.monitor.heartbeats {
        heartbeat_object(&mut w, h);
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.finish()
}

/// Writes the schema-v1 metrics document for `result` to `out`, newline
/// terminated.
pub fn write_run_metrics<W: io::Write>(
    out: &mut W,
    result: &ParallelRunResult,
    flush: &FlushThresholds,
) -> io::Result<()> {
    let doc = render_run_metrics(result, flush);
    out.write_all(doc.as_bytes())?;
    out.write_all(b"\n")
}
