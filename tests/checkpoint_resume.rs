//! Kill/resume differential harness for the checkpointed epoch engine.
//!
//! A checkpointed run is a sequence of engine epochs: the monitor pauses
//! the pool every `checkpoint_every`, the frontier is drained into task
//! descriptors, and the next epoch re-injects them. The contract under
//! test: any such interruption pattern — across both mapping modes
//! and 1/2/4 threads — yields the *exact* clean-run counters and the
//! byte-identical canonical stand set. Every inter-epoch frontier is
//! additionally round-tripped through the `.standckpt` wire format
//! (encode → decode → `StateSnapshot::from_parts`), so the harness also
//! proves the serialized descriptors are faithful, not just the
//! in-memory ones.

use gentrius_core::state::StateSnapshot;
use gentrius_core::{
    canonical_stand_set, CollectNewick, GentriusConfig, InitialTreeRule, MappingMode, RunStats,
    StandProblem, StopCause, StoppingRules, TaxonOrderRule,
};
use gentrius_parallel::{
    run_parallel_epoch, run_parallel_with_sinks, MonitorConfig, ParallelConfig, ResumeFrontier,
    Task,
};
use gentrius_standfile::ckpt::problem_hash;
use gentrius_standfile::{Checkpoint, CkptTask};
use phylo::newick::{parse_forest, to_newick};
use phylo::taxa::{TaxonId, TaxonSet};
use phylo::tree::{EdgeId, Tree};
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
    let (r, sinks) = run_parallel_with_sinks(problem, config, &pcfg(threads, None), |_| {
        CollectNewick::with_cap(taxa, COLLECT_CAP)
    })
    .unwrap();
    assert_eq!(r.stop, None, "reference run must complete");
    (
        r.stats,
        canonical_stand_set(sinks.into_iter().map(|s| s.out)),
    )
}

/// Round-trips an inter-epoch frontier through the `.standckpt` wire
/// format and rebuilds the tasks from the decoded bytes — the same path
/// `stand resume` takes across a process boundary.
fn wire_roundtrip(
    taxa: &TaxonSet,
    problem: &StandProblem,
    config: &GentriusConfig,
    stats: RunStats,
    generation: u64,
    tasks: &[Task],
) -> (RunStats, Vec<Task>) {
    let taxa_names: Vec<String> = taxa.iter().map(|(_, n)| n.to_string()).collect();
    let constraints: Vec<String> = problem
        .constraints()
        .iter()
        .map(|t| to_newick(t, taxa))
        .collect();
    let ck = Checkpoint {
        problem_hash: problem_hash(&taxa_names, &constraints),
        mapping: config.mapping,
        order_code: tasks.first().map(|t| t.snapshot.order_code()).unwrap_or(0),
        threads: 4,
        initial_tree: 0,
        stopping: config.stopping.clone(),
        stats,
        generation,
        output: "differential.stand".into(),
        taxa: taxa_names,
        constraints,
        segments: Vec::new(),
        tasks: tasks
            .iter()
            .map(|t| CkptTask {
                taxon: t.taxon.0,
                branches: t.branches.iter().map(|e| e.0).collect(),
                depth: t.depth as u64,
                remaining: t.snapshot.remaining().iter().map(|x| x.0).collect(),
                tree: t.snapshot.agile().dump_arena(),
            })
            .collect(),
    };
    let decoded = Checkpoint::decode(&ck.encode()).expect("wire round-trip");
    assert_eq!(decoded, ck, "decode(encode(ck)) must be identity");
    let restored: Vec<Task> = decoded
        .tasks
        .iter()
        .map(|t| {
            let tree = Tree::from_arena_dump(&t.tree).expect("arena dump");
            let remaining: Vec<TaxonId> = t.remaining.iter().map(|&x| TaxonId(x)).collect();
            let snap = StateSnapshot::from_parts(
                problem,
                tree,
                remaining,
                decoded.order_code,
                decoded.mapping,
            )
            .expect("snapshot from parts");
            Task::new(
                snap,
                TaxonId(t.taxon),
                t.branches.iter().map(|&x| EdgeId(x)).collect(),
                t.depth as usize,
            )
        })
        .collect();
    (decoded.stats, restored)
}

/// Runs the enumeration as a sequence of paused epochs, pushing every
/// inter-epoch frontier through the checkpoint wire format.
fn interrupted_run(
    taxa: &TaxonSet,
    problem: &StandProblem,
    config: &GentriusConfig,
    threads: usize,
) -> (RunStats, Vec<String>, u64) {
    let mut outs: Vec<Vec<String>> = Vec::new();
    let mut frontier: Option<Vec<Task>> = None;
    let mut base = RunStats::new();
    let mut epochs = 0u64;
    loop {
        let resume = frontier.take().map(|tasks| ResumeFrontier { tasks, base });
        let (r, sinks, captured) = run_parallel_epoch(
            problem,
            config,
            &pcfg(threads, Some(Duration::from_millis(1))),
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
        let (stats, restored) = wire_roundtrip(taxa, problem, config, r.stats, epochs, &captured);
        base = stats;
        frontier = Some(restored);
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
