//! Stress tests of the threaded engine: randomized instances, oversubscribed
//! thread counts, tiny queue capacities, and stopping rules racing against
//! completion — the counters and stand sets must stay exact or the
//! overshoot must stay within its documented bound.

use gentrius_core::{
    CollectNewick, CountOnly, GentriusConfig, StandProblem, StopCause, StoppingRules,
};
use gentrius_parallel::{run_parallel, run_parallel_epoch, FlushThresholds, ParallelConfig};
use phylo::bitset::BitSet;
use phylo::generate::{random_tree_on_n, ShapeModel};
use phylo::ops::restrict;
use phylo::taxa::TaxonSet;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_problem(seed: u64, n_range: std::ops::RangeInclusive<usize>) -> (TaxonSet, StandProblem) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(n_range);
    let taxa = TaxonSet::with_synthetic(n);
    loop {
        let source = random_tree_on_n(n, ShapeModel::Uniform, &mut rng);
        let m = rng.gen_range(3..=5);
        let mut covered = BitSet::new(n);
        let mut cols = Vec::new();
        for _ in 0..m {
            let k = rng.gen_range(4..=(n * 2 / 3).max(4));
            let mut s = BitSet::new(n);
            while s.count() < k {
                s.insert(rng.gen_range(0..n));
            }
            covered.union_with(&s);
            cols.push(s);
        }
        if covered.count() != n {
            continue;
        }
        let constraints: Vec<_> = cols.iter().map(|c| restrict(&source, c)).collect();
        if let Ok(p) = StandProblem::from_constraints(constraints) {
            return (taxa, p);
        }
    }
}

#[test]
fn oversubscribed_threads_and_tiny_queues_stay_exact() {
    let config = GentriusConfig {
        stopping: StoppingRules::counts(100_000, 500_000),
        ..GentriusConfig::default()
    };
    let mut verified = 0;
    for seed in 0..12u64 {
        let (_, problem) = random_problem(seed, 10..=14);
        let serial = gentrius_core::run_serial(&problem, &config, &mut CountOnly).unwrap();
        if !serial.complete() {
            continue;
        }
        for (threads, cap) in [(6usize, Some(1usize)), (9, Some(2)), (16, None)] {
            let mut pcfg = ParallelConfig::with_threads(threads);
            pcfg.queue_capacity = cap;
            let r = run_parallel(&problem, &config, &pcfg).unwrap();
            assert!(r.complete(), "seed {seed} threads {threads}");
            assert_eq!(r.stats, serial.stats, "seed {seed} threads {threads}");
        }
        verified += 1;
    }
    assert!(verified >= 6, "only {verified} instances verified");
}

#[test]
fn repeated_runs_are_count_stable() {
    // Thread scheduling varies between runs; the totals must not.
    let (_, problem) = random_problem(99, 12..=12);
    let config = GentriusConfig {
        stopping: StoppingRules::counts(200_000, 500_000),
        ..GentriusConfig::default()
    };
    let first = run_parallel(&problem, &config, &ParallelConfig::with_threads(4)).unwrap();
    if !first.complete() {
        return; // identity only guaranteed for complete runs
    }
    for _ in 0..5 {
        let r = run_parallel(&problem, &config, &ParallelConfig::with_threads(4)).unwrap();
        assert_eq!(r.stats, first.stats);
    }
}

#[test]
fn stand_sets_stable_under_thread_count() {
    let (taxa, problem) = random_problem(7, 10..=12);
    let config = GentriusConfig {
        stopping: StoppingRules::counts(100_000, 400_000),
        ..GentriusConfig::default()
    };
    let collect = |threads: usize| -> Option<Vec<String>> {
        let (r, sinks, _) = run_parallel_epoch(
            &problem,
            &config,
            &ParallelConfig::with_threads(threads),
            |_| CollectNewick::with_cap(&taxa, 200_000),
            None,
            false,
        )
        .unwrap();
        r.complete().then(|| {
            let mut v: Vec<String> = sinks.into_iter().flat_map(|s| s.out).collect();
            v.sort();
            v
        })
    };
    let Some(base) = collect(1) else { return };
    for threads in [2, 3, 5, 8] {
        assert_eq!(collect(threads).as_ref(), Some(&base), "threads {threads}");
    }
}

#[test]
fn overshoot_stays_within_one_batch_per_context() {
    let (_, problem) = random_problem(3, 12..=14);
    // Make sure the instance is big enough to hit the limit.
    let probe = gentrius_core::run_serial(
        &problem,
        &GentriusConfig {
            stopping: StoppingRules::counts(5_000, 100_000),
            ..GentriusConfig::default()
        },
        &mut CountOnly,
    )
    .unwrap();
    if probe.stop != Some(StopCause::StandTreeLimit) {
        return;
    }
    let limit = 5_000u64;
    for threads in [2usize, 4] {
        for batch in [1u64, 16, 256] {
            let mut pcfg = ParallelConfig::with_threads(threads);
            pcfg.flush = FlushThresholds {
                stand_trees: batch,
                intermediate_states: batch * 8,
                dead_ends: batch,
            };
            let cfg = GentriusConfig {
                stopping: StoppingRules::counts(limit, u64::MAX),
                ..GentriusConfig::default()
            };
            let r = run_parallel(&problem, &cfg, &pcfg).unwrap();
            assert_eq!(r.stop, Some(StopCause::StandTreeLimit));
            assert!(r.stats.stand_trees >= limit);
            let bound = limit + batch * (threads as u64 + 1);
            assert!(
                r.stats.stand_trees <= bound,
                "threads {threads} batch {batch}: {} > {bound}",
                r.stats.stand_trees
            );
        }
    }
}
