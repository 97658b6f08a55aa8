//! Golden-file test for the schema-v2 run-metrics export: a fully
//! synthetic [`ParallelRunResult`] with fixed values must serialize
//! byte-for-byte to the checked-in fixture. Any intentional schema change
//! must bump `METRICS_VERSION` and regenerate
//! `tests/golden/run_metrics_v2.json` (the failure message prints the
//! actual document).

#![cfg(not(loom))]

use gentrius_core::config::StopCause;
use gentrius_core::stats::RunStats;
use gentrius_parallel::obs::json::validate;
use gentrius_parallel::obs::{render_run_metrics, METRICS_VERSION};
use gentrius_parallel::{
    FlushThresholds, Heartbeat, MonitorReport, ParallelRunResult, SchedulerCounts, TaskSpan,
    WorkerReport,
};
use std::time::Duration;

fn stats(trees: u64, states: u64, dead: u64) -> RunStats {
    RunStats {
        stand_trees: trees,
        intermediate_states: states,
        dead_ends: dead,
    }
}

fn sched(steals: u64, failed: u64, parks: u64, splits: u64, executed: u64) -> SchedulerCounts {
    SchedulerCounts {
        steals,
        failed_steals: failed,
        parks,
        splits,
        executed,
    }
}

/// A synthetic two-worker run with every field pinned to a deterministic
/// value (durations chosen so `f64` formatting is exact).
fn fixture_result() -> (ParallelRunResult, FlushThresholds) {
    let per_worker = vec![sched(3, 1, 2, 5, 5), sched(0, 4, 3, 1, 3)];
    let result = ParallelRunResult {
        stats: stats(40, 100, 12),
        stop: Some(StopCause::TimeLimit),
        elapsed: Duration::from_millis(125),
        threads: 2,
        initial_tree: 1,
        prefix: stats(0, 4, 0),
        scheduler: sched(3, 5, 5, 6, 8),
        injected: 2,
        deque_grows: 1,
        workers: vec![
            WorkerReport {
                tasks_executed: 5,
                stats: stats(25, 60, 7),
                sched: per_worker[0],
                spans: vec![
                    TaskSpan {
                        start: 0.0,
                        end: 0.0625,
                        snapshot_depth: 0,
                    },
                    TaskSpan {
                        start: 0.0625,
                        end: 0.125,
                        snapshot_depth: 3,
                    },
                ],
            },
            WorkerReport {
                tasks_executed: 3,
                stats: stats(15, 36, 5),
                sched: per_worker[1],
                spans: vec![],
            },
        ],
        monitor: MonitorReport {
            ticks: 2,
            time_limit_raised: true,
            dropped_heartbeats: 0,
            heartbeats: vec![
                Heartbeat {
                    elapsed_secs: 0.0625,
                    stats: stats(8, 20, 2),
                    per_worker: vec![sched(1, 0, 1, 2, 2), sched(0, 2, 1, 0, 1)],
                },
                Heartbeat {
                    elapsed_secs: 0.125,
                    stats: stats(40, 100, 12),
                    per_worker,
                },
            ],
        },
    };
    let flush = FlushThresholds::paper_defaults();
    (result, flush)
}

#[test]
fn schema_v2_round_trips_against_the_golden_fixture() {
    assert_eq!(METRICS_VERSION, 2, "bump the fixture with the schema");
    let (result, flush) = fixture_result();
    let doc = render_run_metrics(&result, &flush);
    validate(&doc).expect("export must be valid JSON");
    let golden = include_str!("golden/run_metrics_v2.json");
    assert_eq!(
        doc,
        golden.trim_end(),
        "metrics schema drifted from the v2 fixture; if intentional, bump \
         METRICS_VERSION and regenerate the fixture. Actual:\n{doc}"
    );
}

#[test]
fn export_is_stable_across_calls() {
    let (result, flush) = fixture_result();
    assert_eq!(
        render_run_metrics(&result, &flush),
        render_run_metrics(&result, &flush)
    );
}

#[test]
fn real_run_exports_validate_and_carry_the_header() {
    use gentrius_core::config::GentriusConfig;
    use gentrius_core::problem::StandProblem;
    use gentrius_parallel::{run_parallel, ParallelConfig};
    use phylo::newick::parse_forest;

    let (_, trees) = parse_forest(["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"]).unwrap();
    let problem = StandProblem::from_constraints(trees).unwrap();
    let mut pcfg = ParallelConfig::with_threads(2);
    pcfg.trace = true;
    let r = run_parallel(&problem, &GentriusConfig::exhaustive(), &pcfg).unwrap();
    let doc = render_run_metrics(&r, &pcfg.flush);
    validate(&doc).unwrap();
    assert!(doc.starts_with("{\"schema\":\"gentrius-run-metrics\",\"version\":2,"));
    assert!(doc.contains("\"stop_cause\":null"));
    assert!(doc.contains("\"monitor\":{\"ticks\":"));
}
