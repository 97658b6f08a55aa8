//! Kill/resume differential harness for the checkpointed epoch engine.
//!
//! A checkpointed run is a sequence of engine epochs: the monitor pauses
//! the pool every `checkpoint_every`, the frontier is drained into task
//! descriptors, and the next epoch re-injects them. The contract under
//! test: any such interruption pattern — across both mapping modes
//! and 1/2/4 threads — yields the *exact* clean-run counters and the
//! byte-identical canonical stand set. Every inter-epoch frontier is
//! additionally captured into a `.standckpt` image and restored from its
//! wire bytes through the CLI's run pipeline (`RunSpec::checkpoint`, then
//! `pipeline::restore`, which re-validates every task), so the harness
//! also proves the sidecars `stand resume` reads are faithful, not just
//! the in-memory descriptors.

use gentrius_cli::pipeline::{self, Driver, Frontier, Output, Restored, RunSpec};
use gentrius_core::{
    canonical_stand_set, CollectNewick, GentriusConfig, InitialTreeRule, MappingMode, RunStats,
    StandProblem, StopCause, StoppingRules, TaxonOrderRule,
};
use gentrius_parallel::{run_parallel_epoch, MonitorConfig, ParallelConfig, ResumeFrontier};
use gentrius_standfile::Checkpoint;
use phylo::newick::parse_forest;
use phylo::taxa::TaxonSet;
use std::time::Duration;

const COLLECT_CAP: usize = 200_000;

/// A blow-up-ish instance: large enough that a 1 ms checkpoint cadence
/// interrupts mid-enumeration many times, small enough to finish fast.
const NEWICKS: [&str; 3] = ["((A,B),(C,D));", "((A,E),(F,G));", "((C,F),(H,I));"];

fn setup(mapping: MappingMode) -> (TaxonSet, StandProblem, GentriusConfig) {
    let (taxa, trees) = parse_forest(NEWICKS.iter().copied()).unwrap();
    let problem = StandProblem::from_constraints(trees).unwrap();
    let config = GentriusConfig {
        initial_tree: InitialTreeRule::Index(0),
        taxon_order: TaxonOrderRule::Dynamic,
        stopping: StoppingRules::unlimited(),
        mapping,
    };
    (taxa, problem, config)
}

fn pcfg(threads: usize, checkpoint_every: Option<Duration>) -> ParallelConfig {
    let mut p = ParallelConfig::with_threads(threads);
    // Tight polling so a pause lands mid-task instead of on a boundary.
    p.stop_poll_stride = 1;
    p.monitor = Some(MonitorConfig {
        tick: Duration::from_millis(1),
        heartbeat_capacity: 64,
        checkpoint_every,
    });
    p
}

/// The uninterrupted reference run.
fn clean_run(
    taxa: &TaxonSet,
    problem: &StandProblem,
    config: &GentriusConfig,
    threads: usize,
) -> (RunStats, Vec<String>) {
    let (r, sinks, _) = run_parallel_epoch(
        problem,
        config,
        &pcfg(threads, None),
        |_| CollectNewick::with_cap(taxa, COLLECT_CAP),
        None,
        false,
    )
    .unwrap();
    assert_eq!(r.stop, None, "reference run must complete");
    (
        r.stats,
        canonical_stand_set(sinks.into_iter().map(|s| s.out)),
    )
}

/// Captures an inter-epoch frontier into a checkpoint image, round-trips
/// it through the `.standckpt` wire format and restores it — the path a
/// sidecar takes from one process to `stand resume` in the next. The next
/// epoch runs on the restored problem, as a resume does: its constraint
/// trees are re-parsed, so their arenas need not match the original's.
fn wire_roundtrip(spec: &RunSpec<'_>, frontier: &Frontier) -> Restored {
    let ck = spec.checkpoint(0, frontier);
    let decoded = Checkpoint::decode(&ck.encode()).expect("wire round-trip");
    assert_eq!(decoded, ck, "decode(encode(ck)) must be identity");
    let restored = pipeline::restore(&decoded).expect("a captured frontier restores");
    assert_eq!(
        format!("{:?}", restored.config),
        format!("{:?}", spec.config),
        "the checkpoint must carry the run's config"
    );
    assert_eq!(restored.frontier.stats, frontier.stats);
    assert_eq!(restored.frontier.generation, frontier.generation);
    restored
}

/// Runs the enumeration as a sequence of paused epochs, pushing every
/// inter-epoch frontier through the checkpoint wire format.
fn interrupted_run(
    taxa: &TaxonSet,
    problem: &StandProblem,
    config: &GentriusConfig,
    threads: usize,
) -> (RunStats, Vec<String>, u64) {
    let every = Some(Duration::from_millis(1));
    let spec = RunSpec {
        taxa,
        problem,
        config: config.clone(),
        driver: Driver::Engine(pcfg(threads, every)),
        output: Output::Container {
            path: "differential.stand".into(),
            checkpoint_every: every,
        },
    };
    let mut outs: Vec<Vec<String>> = Vec::new();
    let mut resumed: Option<Restored> = None;
    let mut epochs = 0u64;
    loop {
        let resume = resumed.as_mut().map(|r| ResumeFrontier {
            tasks: std::mem::take(&mut r.frontier.tasks),
            base: r.frontier.stats,
        });
        let (r, sinks, captured) = run_parallel_epoch(
            resumed.as_ref().map_or(problem, |r| &r.problem),
            config,
            &pcfg(threads, every),
            |_| CollectNewick::with_cap(taxa, COLLECT_CAP),
            resume,
            true,
        )
        .unwrap();
        outs.extend(sinks.into_iter().map(|s| s.out));
        epochs += 1;
        assert!(
            epochs <= 100_000,
            "checkpoint epochs did not converge (livelock?)"
        );
        assert_eq!(
            r.stop, None,
            "exhaustive rules: only pauses may end an epoch"
        );
        if captured.is_empty() {
            return (r.stats, canonical_stand_set(outs), epochs);
        }
        let captured = Frontier {
            tasks: captured,
            stats: r.stats,
            generation: epochs,
            segments: Vec::new(),
        };
        resumed = Some(wire_roundtrip(&spec, &captured));
    }
}

#[test]
fn kill_resume_differential_all_modes_and_threads() {
    for mapping in [MappingMode::Recompute, MappingMode::EdgeIndexed] {
        let (taxa, problem, config) = setup(mapping);
        let (ref_stats, ref_set) = clean_run(&taxa, &problem, &config, 2);
        assert!(
            ref_set.len() > 1_000,
            "{mapping}: instance too small to interrupt meaningfully ({} trees)",
            ref_set.len()
        );
        for threads in [1usize, 2, 4] {
            let ctx = format!("{mapping} x {threads} threads");
            let (stats, set, epochs) = interrupted_run(&taxa, &problem, &config, threads);
            assert_eq!(stats, ref_stats, "{ctx}: counters diverged");
            assert_eq!(set, ref_set, "{ctx}: stand sets diverged");
            assert!(epochs >= 1, "{ctx}: no epochs ran");
        }
    }
}

/// A resumed run whose frontier is empty must terminate immediately with
/// the carried-over counters and no new trees.
#[test]
fn empty_frontier_resume_terminates() {
    let (taxa, problem, config) = setup(MappingMode::EdgeIndexed);
    let base = RunStats {
        stand_trees: 7,
        intermediate_states: 11,
        dead_ends: 3,
    };
    let (r, sinks, captured) = run_parallel_epoch(
        &problem,
        &config,
        &pcfg(2, None),
        |_| CollectNewick::with_cap(&taxa, COLLECT_CAP),
        Some(ResumeFrontier {
            tasks: Vec::new(),
            base,
        }),
        true,
    )
    .unwrap();
    assert_eq!(r.stats, base, "counters must pass through unchanged");
    assert!(captured.is_empty());
    assert!(sinks.into_iter().all(|s| s.out.is_empty()));
}

/// Count limits fire on resumed runs against the *cumulative* totals: a
/// resume seeded near the limit must stop almost immediately.
#[test]
fn resumed_run_honors_cumulative_count_limit() {
    let (taxa, problem, mut config) = setup(MappingMode::EdgeIndexed);
    // First epoch: pause quickly to harvest a mid-run frontier.
    let (r, _sinks, captured) = run_parallel_epoch(
        &problem,
        &config,
        &pcfg(2, Some(Duration::from_millis(1))),
        |_| CollectNewick::with_cap(&taxa, COLLECT_CAP),
        None,
        true,
    )
    .unwrap();
    assert!(
        !captured.is_empty(),
        "1 ms cadence must interrupt this instance"
    );
    // Second epoch: a tree limit just above the carried-in total.
    let limit = r.stats.stand_trees + 50;
    config.stopping.max_stand_trees = Some(limit);
    let (r2, _sinks, _captured) = run_parallel_epoch(
        &problem,
        &config,
        &pcfg(2, None),
        |_| CollectNewick::with_cap(&taxa, COLLECT_CAP),
        Some(ResumeFrontier {
            tasks: captured,
            base: r.stats,
        }),
        true,
    )
    .unwrap();
    assert_eq!(r2.stop, Some(StopCause::StandTreeLimit));
    assert!(
        r2.stats.stand_trees >= limit,
        "limit {limit} reported before being reached ({})",
        r2.stats.stand_trees
    );
    // Overshoot bounded by one flush batch per worker, as in the paper.
    assert!(
        r2.stats.stand_trees < limit + 10_000,
        "unbounded overshoot past the cumulative limit ({} vs {limit})",
        r2.stats.stand_trees
    );
}
