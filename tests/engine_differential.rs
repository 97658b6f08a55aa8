//! Differential stress harness for the two-level work-stealing scheduler.
//!
//! §IV's preamble claims the serial and parallel versions "yield the exact
//! same results for all datasets". The scheduler rewrite (per-worker steal
//! deques + global injector) must preserve that: this harness runs ~50
//! seeded random instances through the serial driver and the parallel
//! engine at 1/2/4/8 threads and demands identical counters and identical
//! canonical stand sets (sorted canonical Newick, the order-free form).
//! The sweep is constructed to include dead-end-heavy instances, and two
//! dedicated tests drive one instance into each deterministic stopping
//! rule to check that both engines report the same cause with bounded
//! overshoot.

use gentrius_core::{
    canonical_stand_set, run_serial, CollectNewick, CountOnly, GentriusConfig, MappingMode,
    StopCause, StoppingRules,
};
use gentrius_datagen::{
    empirical_dataset, simulated_dataset, Dataset, EmpiricalParams, MissingPattern, SimulatedParams,
};
use gentrius_parallel::{
    run_parallel, run_parallel_epoch, FlushThresholds, MonitorConfig, ParallelConfig,
    ParallelRunResult,
};
use phylo::generate::ShapeModel;

const COLLECT_CAP: usize = 80_000;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The accounting invariant behind `LocalCounters::dead_end`: the
/// `explore.rs` call sites record every dead end *alongside* an
/// intermediate state, so no snapshot — final, prefix, per-worker, or a
/// heartbeat taken mid-run by the monitor — may ever show more dead ends
/// than intermediate states. A violation means double or missed
/// accounting at a call site (or a counter-publication reorder).
fn assert_dead_end_invariant(stats: &gentrius_core::RunStats, ctx: &str) {
    assert!(
        stats.dead_ends <= stats.intermediate_states,
        "{ctx}: dead_ends {} > intermediate_states {}",
        stats.dead_ends,
        stats.intermediate_states
    );
}

/// Applies the dead-end invariant to every snapshot a parallel run
/// exposes.
fn assert_run_invariants(par: &ParallelRunResult, ctx: &str) {
    assert_dead_end_invariant(&par.stats, &format!("{ctx}: totals"));
    assert_dead_end_invariant(&par.prefix, &format!("{ctx}: prefix"));
    for (w, report) in par.workers.iter().enumerate() {
        assert_dead_end_invariant(&report.stats, &format!("{ctx}: worker {w}"));
    }
    for (i, hb) in par.monitor.heartbeats.iter().enumerate() {
        assert_dead_end_invariant(&hb.stats, &format!("{ctx}: heartbeat {i}"));
    }
}

/// ~50 instances spanning all four missingness regimes plus the empirical
/// generator — small enough to enumerate fully, varied enough to exercise
/// splits, steals, dead ends and uneven initial divisions.
fn differential_sweep() -> Vec<Dataset> {
    let mut v = Vec::new();
    for (k, pattern) in [
        MissingPattern::Uniform,
        MissingPattern::Clustered,
        MissingPattern::ComprehensiveCore,
        MissingPattern::RogueTaxa,
    ]
    .into_iter()
    .enumerate()
    {
        let sp = SimulatedParams {
            taxa: (8, 14),
            loci: (3, 5),
            missing: (0.25, 0.5),
            pattern,
            shape: ShapeModel::Uniform,
        };
        v.extend((0..8).map(|i| simulated_dataset(&sp, 7040 + k as u64, i)));
    }
    let ep = EmpiricalParams {
        taxa: (8, 14),
        loci: (3, 5),
        frac_with_missing: 0.8,
        frac_heavy_missing: 0.4,
    };
    v.extend((0..10).map(|i| empirical_dataset(&ep, 7040, i)));
    // A hard batch: bigger, sparser, clustered instances. These supply the
    // dead-end enumerations and the multi-thousand-state searches that the
    // stopping-rule tests below shrink their limits against.
    let hard = SimulatedParams {
        taxa: (14, 18),
        loci: (5, 7),
        missing: (0.5, 0.7),
        pattern: MissingPattern::Clustered,
        shape: ShapeModel::Uniform,
    };
    v.extend((0..8).map(|i| simulated_dataset(&hard, 7044, i)));
    v
}

fn bounded_config() -> GentriusConfig {
    GentriusConfig {
        stopping: StoppingRules::counts(60_000, 300_000),
        ..GentriusConfig::default()
    }
}

#[test]
fn serial_and_parallel_agree_across_the_sweep() {
    let config = bounded_config();
    let sweep = differential_sweep();
    assert!(sweep.len() >= 50, "sweep shrank to {}", sweep.len());
    let mut verified = 0usize;
    let mut with_dead_ends = 0usize;
    let mut saw_steal = false;
    for d in &sweep {
        let Ok(p) = d.problem() else { continue };
        let mut serial_sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
        let serial = run_serial(&p, &config, &mut serial_sink).expect("serial");
        if !serial.complete() {
            continue; // exact identity needs a complete enumeration
        }
        if serial.stats.dead_ends > 0 {
            with_dead_ends += 1;
        }
        assert_dead_end_invariant(&serial.stats, &format!("{} serial", d.name));
        let serial_set = canonical_stand_set([serial_sink.out]);
        for threads in THREAD_COUNTS {
            let (par, sinks, _) = run_parallel_epoch(
                &p,
                &config,
                &ParallelConfig::with_threads(threads),
                |_| CollectNewick::with_cap(&d.taxa, COLLECT_CAP),
                None,
                false,
            )
            .expect("parallel");
            assert!(
                par.complete(),
                "{} threads={threads}: spurious stop",
                d.name
            );
            assert_eq!(
                par.stats, serial.stats,
                "{} threads={threads}: counters diverged",
                d.name
            );
            assert_run_invariants(&par, &format!("{} threads={threads}", d.name));
            let par_set = canonical_stand_set(sinks.into_iter().map(|s| s.out));
            assert_eq!(
                par_set, serial_set,
                "{} threads={threads}: stand sets diverged",
                d.name
            );
            saw_steal |= par.scheduler.steals > 0;
        }
        verified += 1;
    }
    assert!(
        verified >= 35,
        "too few fully-enumerable instances ({verified})"
    );
    assert!(
        with_dead_ends >= 1,
        "sweep lost its dead-end instances — the harness no longer stresses backtracking"
    );
    assert!(
        saw_steal,
        "no run ever stole a task — the scheduler was not exercised"
    );
}

/// The mapping-kernel conformance matrix: every fully-enumerable instance
/// of the sweep runs under both mapping engines — Recompute (the oracle)
/// and EdgeIndexed — serially and at 2/4/8 threads. All eight cells must reproduce the oracle's counters and canonical stand set
/// exactly, and every snapshot a parallel run exposes (totals, prefix,
/// per-worker, heartbeats) must satisfy the dead-end invariant. This is
/// the gate that lets the flat edge-indexed kernels be the default: any
/// divergence from the recompute projections shows up as a counter or
/// stand-set mismatch here.
#[test]
fn mapping_mode_conformance_matrix() {
    const MODES: [MappingMode; 2] = [MappingMode::Recompute, MappingMode::EdgeIndexed];
    let sweep = differential_sweep();
    let mut verified = 0usize;
    let mut with_dead_ends = 0usize;
    for d in &sweep {
        let Ok(p) = d.problem() else { continue };
        // Serial Recompute is the oracle cell every other cell must match.
        let oracle_cfg = GentriusConfig {
            mapping: MappingMode::Recompute,
            ..bounded_config()
        };
        let mut oracle_sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
        let oracle = run_serial(&p, &oracle_cfg, &mut oracle_sink).expect("oracle");
        if !oracle.complete() {
            continue; // exact identity needs a complete enumeration
        }
        assert_dead_end_invariant(&oracle.stats, &format!("{} oracle", d.name));
        if oracle.stats.dead_ends > 0 {
            with_dead_ends += 1;
        }
        let oracle_set = canonical_stand_set([oracle_sink.out]);
        for mode in MODES {
            let config = GentriusConfig {
                mapping: mode,
                ..bounded_config()
            };
            if mode != MappingMode::Recompute {
                // The Recompute serial cell *is* the oracle; don't rerun it.
                let mut sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
                let serial = run_serial(&p, &config, &mut sink).expect("serial");
                assert_eq!(
                    serial.stats, oracle.stats,
                    "{} {mode} serial: counters diverged",
                    d.name
                );
                assert_eq!(
                    canonical_stand_set([sink.out]),
                    oracle_set,
                    "{} {mode} serial: stand set diverged",
                    d.name
                );
            }
            for threads in [2usize, 4, 8] {
                let (par, sinks, _) = run_parallel_epoch(
                    &p,
                    &config,
                    &ParallelConfig::with_threads(threads),
                    |_| CollectNewick::with_cap(&d.taxa, COLLECT_CAP),
                    None,
                    false,
                )
                .expect("parallel");
                assert!(
                    par.complete(),
                    "{} {mode} threads={threads}: spurious stop",
                    d.name
                );
                assert_eq!(
                    par.stats, oracle.stats,
                    "{} {mode} threads={threads}: counters diverged",
                    d.name
                );
                assert_run_invariants(&par, &format!("{} {mode} threads={threads}", d.name));
                assert_eq!(
                    canonical_stand_set(sinks.into_iter().map(|s| s.out)),
                    oracle_set,
                    "{} {mode} threads={threads}: stand set diverged",
                    d.name
                );
            }
        }
        verified += 1;
    }
    assert!(
        verified >= 35,
        "too few fully-enumerable instances ({verified})"
    );
    assert!(
        with_dead_ends >= 1,
        "matrix lost its dead-end instances — kernels' undo paths not stressed"
    );
}

/// Deque-churn stress profile: worker deques start on deliberately tiny
/// ring buffers (8 slots) while the capacity gate is raised far above
/// them, so sustained splitting forces repeated Chase–Lev `grow` cycles —
/// buffer swap, retire, reclaim — underneath concurrent steals. The
/// results must stay bit-identical to the serial driver, and the profile
/// must actually exercise `grow` (asserted via the engine report) or it
/// is testing nothing.
#[test]
fn deque_churn_profile_stays_exact_and_exercises_grow() {
    let config = bounded_config();
    let hard = SimulatedParams {
        taxa: (14, 18),
        loci: (5, 7),
        missing: (0.5, 0.7),
        pattern: MissingPattern::Clustered,
        shape: ShapeModel::Uniform,
    };
    let mut total_grows = 0u64;
    let mut total_steals = 0u64;
    let mut verified = 0usize;
    for i in 0..6 {
        let d = simulated_dataset(&hard, 9090, i);
        let Ok(p) = d.problem() else { continue };
        let mut serial_sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
        let serial = run_serial(&p, &config, &mut serial_sink).expect("serial");
        if !serial.complete() {
            continue;
        }
        let serial_set = canonical_stand_set([serial_sink.out]);
        for threads in [2usize, 4, 8] {
            let mut pcfg = ParallelConfig::with_threads(threads);
            pcfg.queue_capacity = Some(256); // far above the 8-slot buffers
            pcfg.steal_seed = i;
            // A fast monitor tick makes the heartbeats sample the global
            // counters *while* workers are flushing, stressing the
            // snapshot-safe publication order behind the dead-end
            // invariant.
            pcfg.monitor = Some(MonitorConfig {
                tick: std::time::Duration::from_millis(1),
                heartbeat_capacity: 4096,
                checkpoint_every: None,
            });
            let (par, sinks, _) = run_parallel_epoch(
                &p,
                &config,
                &pcfg,
                |_| CollectNewick::with_cap(&d.taxa, COLLECT_CAP),
                None,
                false,
            )
            .expect("parallel");
            assert!(
                par.complete(),
                "{} threads={threads}: spurious stop",
                d.name
            );
            assert_eq!(
                par.stats, serial.stats,
                "{} threads={threads}: counters diverged under churn",
                d.name
            );
            assert_run_invariants(&par, &format!("{} churn threads={threads}", d.name));
            let par_set = canonical_stand_set(sinks.into_iter().map(|s| s.out));
            assert_eq!(
                par_set, serial_set,
                "{} threads={threads}: stand sets diverged under churn",
                d.name
            );
            total_grows += par.deque_grows;
            total_steals += par.scheduler.steals;
        }
        verified += 1;
    }
    assert!(verified >= 3, "only {verified} churn instances enumerable");
    assert!(
        total_grows > 0,
        "capacity 256 over 8-slot initial buffers never forced a grow — churn profile is inert"
    );
    assert!(total_steals > 0, "churn profile never stole");
}

/// Steal-heavy stress profile for the snapshot-handoff task model: tiny
/// flush thresholds force counter traffic on every few events, small deque
/// ring buffers plus a raised capacity gate maximise split/steal churn,
/// and per-step stop polling keeps every worker responsive. A stolen task
/// now carries a full `StateSnapshot` (not a replay path), so this profile
/// hammers exactly the snapshot/clone/resume path under both mapping
/// engines at 1/2/4/8 threads and demands bit-identical stand sets plus
/// the dead-end invariant on every counter snapshot.
#[test]
fn steal_heavy_snapshot_handoff_stays_exact_across_modes() {
    const MODES: [MappingMode; 2] = [MappingMode::Recompute, MappingMode::EdgeIndexed];
    let hard = SimulatedParams {
        taxa: (14, 18),
        loci: (5, 7),
        missing: (0.5, 0.7),
        pattern: MissingPattern::Clustered,
        shape: ShapeModel::Uniform,
    };
    let mut verified = 0usize;
    let mut total_steals = 0u64;
    for i in 0..4 {
        let d = simulated_dataset(&hard, 6161, i);
        let Ok(p) = d.problem() else { continue };
        let mut serial_sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
        let serial = run_serial(&p, &bounded_config(), &mut serial_sink).expect("serial");
        if !serial.complete() {
            continue;
        }
        let serial_set = canonical_stand_set([serial_sink.out]);
        for mode in MODES {
            let config = GentriusConfig {
                mapping: mode,
                ..bounded_config()
            };
            for threads in THREAD_COUNTS {
                let mut pcfg = ParallelConfig::with_threads(threads);
                // Tiny batches: flush-driven global-counter traffic on
                // nearly every event.
                pcfg.flush = FlushThresholds {
                    stand_trees: 2,
                    intermediate_states: 2,
                    dead_ends: 2,
                };
                // Small initial ring buffers under a raised capacity gate:
                // sustained splitting, stealing and deque growth.
                pcfg.queue_capacity = Some(128);
                pcfg.steal_seed = i ^ (threads as u64) << 8;
                pcfg.stop_poll_stride = 1;
                let (par, sinks, _) = run_parallel_epoch(
                    &p,
                    &config,
                    &pcfg,
                    |_| CollectNewick::with_cap(&d.taxa, COLLECT_CAP),
                    None,
                    false,
                )
                .expect("parallel");
                assert!(
                    par.complete(),
                    "{} {mode} threads={threads}: spurious stop",
                    d.name
                );
                assert_eq!(
                    par.stats, serial.stats,
                    "{} {mode} threads={threads}: counters diverged under steal stress",
                    d.name
                );
                assert_run_invariants(&par, &format!("{} {mode} steal threads={threads}", d.name));
                let par_set = canonical_stand_set(sinks.into_iter().map(|s| s.out));
                assert_eq!(
                    par_set, serial_set,
                    "{} {mode} threads={threads}: stand sets diverged under steal stress",
                    d.name
                );
                total_steals += par.scheduler.steals;
            }
        }
        verified += 1;
    }
    assert!(
        verified >= 2,
        "only {verified} steal-stress instances enumerable"
    );
    assert!(
        total_steals > 0,
        "steal-stress profile never stole a snapshot task — profile is inert"
    );
}

/// One instance per adversarial-zoo family (the deep-unbalanced plateau,
/// a fuzz-sized stopping-rule-interaction instance, and the Grove-like
/// clade-blocky empirical instance), each run through the full 2-mode ×
/// {serial, 2, 4 threads} conformance matrix: identical counters,
/// identical canonical stand sets, and the dead-end invariant on every
/// exposed snapshot. The showcase-scale interaction instance cannot
/// appear here (its complete enumeration is a blow-up by design); its
/// fuzz-sized sibling exercises the same bimodal desert/garden geometry.
#[test]
fn adversarial_zoo_families_stay_exact_across_modes_and_threads() {
    use gentrius_datagen::adversarial::{
        grove_showcase, interaction_dataset, unbalanced_showcase, InteractionParams, ZOO_SEED,
    };
    const MODES: [MappingMode; 2] = [MappingMode::Recompute, MappingMode::EdgeIndexed];
    let small_interaction = interaction_dataset(
        &InteractionParams {
            taxa: (10, 14),
            loci: (4, 6),
            ..InteractionParams::zoo()
        },
        ZOO_SEED,
        0,
    );
    for d in [unbalanced_showcase(), small_interaction, grove_showcase()] {
        let p = d.problem().expect("zoo instance is valid");
        let oracle_cfg = GentriusConfig {
            mapping: MappingMode::Recompute,
            ..bounded_config()
        };
        let mut oracle_sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
        let oracle = run_serial(&p, &oracle_cfg, &mut oracle_sink).expect("oracle");
        assert!(
            oracle.complete(),
            "{}: zoo conformance instance must fully enumerate",
            d.name
        );
        assert_dead_end_invariant(&oracle.stats, &format!("{} oracle", d.name));
        let oracle_set = canonical_stand_set([oracle_sink.out]);
        for mode in MODES {
            let config = GentriusConfig {
                mapping: mode,
                ..bounded_config()
            };
            if mode != MappingMode::Recompute {
                let mut sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
                let serial = run_serial(&p, &config, &mut sink).expect("serial");
                assert_eq!(
                    serial.stats, oracle.stats,
                    "{} {mode} serial: counters diverged",
                    d.name
                );
                assert_eq!(
                    canonical_stand_set([sink.out]),
                    oracle_set,
                    "{} {mode} serial: stand set diverged",
                    d.name
                );
            }
            for threads in [2usize, 4] {
                let (par, sinks, _) = run_parallel_epoch(
                    &p,
                    &config,
                    &ParallelConfig::with_threads(threads),
                    |_| CollectNewick::with_cap(&d.taxa, COLLECT_CAP),
                    None,
                    false,
                )
                .expect("parallel");
                assert!(
                    par.complete(),
                    "{} {mode} threads={threads}: spurious stop",
                    d.name
                );
                assert_eq!(
                    par.stats, oracle.stats,
                    "{} {mode} threads={threads}: counters diverged",
                    d.name
                );
                assert_run_invariants(&par, &format!("{} {mode} threads={threads}", d.name));
                assert_eq!(
                    canonical_stand_set(sinks.into_iter().map(|s| s.out)),
                    oracle_set,
                    "{} {mode} threads={threads}: stand set diverged",
                    d.name
                );
            }
        }
    }
}

/// The first instance in the sweep whose complete enumeration crosses both
/// thresholds, so shrunken limits are guaranteed to fire.
fn limit_tripping_instance(min_trees: u64, min_states: u64) -> (Dataset, u64, u64) {
    let config = bounded_config();
    for d in differential_sweep() {
        let Ok(p) = d.problem() else { continue };
        let Ok(r) = run_serial(&p, &config, &mut CountOnly) else {
            continue;
        };
        if r.complete()
            && r.stats.stand_trees >= min_trees
            && r.stats.intermediate_states >= min_states
        {
            return (d, r.stats.stand_trees, r.stats.intermediate_states);
        }
    }
    panic!("no sweep instance crosses trees>={min_trees}, states>={min_states}");
}

#[test]
fn stand_tree_limit_fires_in_both_engines_with_bounded_overshoot() {
    let (d, total_trees, _) = limit_tripping_instance(200, 200);
    let p = d.problem().expect("valid");
    let limit = total_trees / 2;
    let config = GentriusConfig {
        stopping: StoppingRules::counts(limit, u64::MAX),
        ..GentriusConfig::default()
    };
    let serial = run_serial(&p, &config, &mut CountOnly).expect("serial");
    assert_eq!(serial.stop, Some(StopCause::StandTreeLimit), "{}", d.name);
    for threads in THREAD_COUNTS {
        let mut pcfg = ParallelConfig::with_threads(threads);
        let batch = 16u64;
        pcfg.flush = FlushThresholds {
            stand_trees: batch,
            intermediate_states: batch,
            dead_ends: batch,
        };
        // The overshoot bound below assumes every worker re-checks the stop
        // flag after each step; stride 1 restores that per-step poll.
        pcfg.stop_poll_stride = 1;
        let par = run_parallel(&p, &config, &pcfg).expect("parallel");
        assert_eq!(
            par.stop,
            Some(StopCause::StandTreeLimit),
            "{} threads={threads}",
            d.name
        );
        // One in-flight batch per worker, plus one step per worker between
        // the stop being raised and each worker's next poll.
        let bound = limit + batch * threads as u64 + threads as u64;
        assert!(
            par.stats.stand_trees <= bound,
            "{} threads={threads}: {} trees overshoots limit {limit} (bound {bound})",
            d.name,
            par.stats.stand_trees
        );
    }
}

#[test]
fn state_limit_fires_in_both_engines_with_bounded_overshoot() {
    let (d, _, total_states) = limit_tripping_instance(200, 200);
    let p = d.problem().expect("valid");
    let limit = total_states / 2;
    let config = GentriusConfig {
        stopping: StoppingRules::counts(u64::MAX, limit),
        ..GentriusConfig::default()
    };
    let serial = run_serial(&p, &config, &mut CountOnly).expect("serial");
    assert_eq!(serial.stop, Some(StopCause::StateLimit), "{}", d.name);
    for threads in THREAD_COUNTS {
        let mut pcfg = ParallelConfig::with_threads(threads);
        let batch = 16u64;
        pcfg.flush = FlushThresholds {
            stand_trees: batch,
            intermediate_states: batch,
            dead_ends: batch,
        };
        // Per-step stop polling keeps the overshoot bound tight (see the
        // stand-tree variant above).
        pcfg.stop_poll_stride = 1;
        let par = run_parallel(&p, &config, &pcfg).expect("parallel");
        assert_eq!(
            par.stop,
            Some(StopCause::StateLimit),
            "{} threads={threads}",
            d.name
        );
        let bound = limit + batch * threads as u64 + threads as u64;
        assert!(
            par.stats.intermediate_states <= bound,
            "{} threads={threads}: {} states overshoots limit {limit} (bound {bound})",
            d.name,
            par.stats.intermediate_states
        );
    }
}

#[test]
fn time_limit_fires_in_both_engines() {
    // The serial driver only examines the clock every 8192 events, so the
    // instance must be big enough to reach that first checkpoint.
    let (d, _, _) = limit_tripping_instance(1, 6_000);
    let p = d.problem().expect("valid");
    let config = GentriusConfig {
        stopping: StoppingRules {
            max_stand_trees: None,
            max_intermediate_states: None,
            max_time: Some(std::time::Duration::ZERO),
        },
        ..GentriusConfig::default()
    };
    let serial = run_serial(&p, &config, &mut CountOnly).expect("serial");
    assert_eq!(serial.stop, Some(StopCause::TimeLimit), "{}", d.name);
    for threads in [2usize, 8] {
        let mut pcfg = ParallelConfig::with_threads(threads);
        pcfg.flush = FlushThresholds::unbatched();
        let par = run_parallel(&p, &config, &pcfg).expect("parallel");
        assert_eq!(
            par.stop,
            Some(StopCause::TimeLimit),
            "{} threads={threads}",
            d.name
        );
    }
    // With the run monitor supervising the clock, even *unreachable* flush
    // thresholds cannot defer the limit (the flush-side check alone could
    // miss it forever on parked/starved workers).
    for threads in [1usize, 4] {
        let mut pcfg = ParallelConfig::with_threads(threads);
        pcfg.flush = FlushThresholds {
            stand_trees: u64::MAX,
            intermediate_states: u64::MAX,
            dead_ends: u64::MAX,
        };
        let par = run_parallel(&p, &config, &pcfg).expect("parallel");
        assert_eq!(
            par.stop,
            Some(StopCause::TimeLimit),
            "{} threads={threads} (huge thresholds)",
            d.name
        );
        assert!(par.monitor.time_limit_raised);
        assert_run_invariants(&par, &format!("{} time-limit threads={threads}", d.name));
    }
}
