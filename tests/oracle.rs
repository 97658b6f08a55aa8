//! Cross-crate oracle tests: Gentrius (serial, parallel, simulated) versus
//! brute-force enumeration of all topologies.

use gentrius_core::{
    CollectNewick, GentriusConfig, InitialTreeRule, MappingMode, StandProblem, StoppingRules,
    TaxonOrderRule,
};
use gentrius_parallel::{run_parallel, ParallelConfig};
use gentrius_sim::{simulate, SimConfig};
use phylo::enumerate::for_each_topology;
use phylo::generate::{random_tree_on_n, ShapeModel};
use phylo::newick::to_newick;
use phylo::ops::{displays, restrict};
use phylo::taxa::{TaxonId, TaxonSet};
use phylo::BitSet;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Brute-force stand: all topologies on the union taxa displaying every
/// constraint, as canonical Newick strings.
fn brute_force_stand(problem: &StandProblem, taxa: &TaxonSet) -> Vec<String> {
    let ids: Vec<TaxonId> = problem
        .all_taxa()
        .iter()
        .map(|t| TaxonId(t as u32))
        .collect();
    let mut out = Vec::new();
    for_each_topology(problem.universe(), &ids, |t| {
        if problem.constraints().iter().all(|c| displays(t, c)) {
            out.push(to_newick(t, taxa));
        }
    });
    out.sort();
    out
}

/// Generates a random problem: a hidden source tree on `n ≤ 8` taxa,
/// restricted to `m` random (≥4-taxon) subsets covering all taxa.
fn random_problem(n: usize, m: usize, rng: &mut ChaCha8Rng) -> (TaxonSet, StandProblem) {
    let taxa = TaxonSet::with_synthetic(n);
    loop {
        let source = random_tree_on_n(n, ShapeModel::Uniform, rng);
        let mut columns = Vec::with_capacity(m);
        let mut covered = BitSet::new(n);
        for _ in 0..m {
            let k = rng.gen_range(4..=n.min(6));
            let mut subset = BitSet::new(n);
            while subset.count() < k {
                subset.insert(rng.gen_range(0..n));
            }
            covered.union_with(&subset);
            columns.push(subset);
        }
        if covered.count() != n {
            continue; // resample until every taxon appears somewhere
        }
        let constraints: Vec<_> = columns.iter().map(|c| restrict(&source, c)).collect();
        if let Ok(p) = StandProblem::from_constraints(constraints) {
            return (taxa, p);
        }
    }
}

fn gentrius_stand(problem: &StandProblem, taxa: &TaxonSet, config: &GentriusConfig) -> Vec<String> {
    let mut sink = CollectNewick::with_cap(taxa, 1_000_000);
    let r = gentrius_core::run_serial(problem, config, &mut sink).expect("run");
    assert!(r.complete(), "oracle instances must enumerate fully");
    assert_eq!(r.stats.stand_trees as usize, sink.out.len());
    sink.out.sort();
    sink.out
}

#[test]
fn serial_matches_brute_force_on_random_instances() {
    let mut rng = ChaCha8Rng::seed_from_u64(12345);
    for trial in 0..25 {
        let n = rng.gen_range(6..=8);
        let m = rng.gen_range(2..=4);
        let (taxa, problem) = random_problem(n, m, &mut rng);
        let expected = brute_force_stand(&problem, &taxa);
        let got = gentrius_stand(&problem, &taxa, &GentriusConfig::exhaustive());
        assert_eq!(got, expected, "trial {trial} (n={n}, m={m})");
    }
}

#[test]
fn heuristic_variants_agree_with_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(777);
    let (taxa, problem) = random_problem(8, 3, &mut rng);
    let expected = brute_force_stand(&problem, &taxa);
    for initial in [InitialTreeRule::MaxOverlap, InitialTreeRule::Index(1)] {
        for order in [TaxonOrderRule::Dynamic, TaxonOrderRule::ById] {
            for mapping in [MappingMode::Recompute, MappingMode::EdgeIndexed] {
                let cfg = GentriusConfig {
                    initial_tree: initial.clone(),
                    taxon_order: order.clone(),
                    mapping,
                    stopping: StoppingRules::unlimited(),
                };
                let got = gentrius_stand(&problem, &taxa, &cfg);
                assert_eq!(
                    got, expected,
                    "initial={initial:?} order={order:?} mapping={mapping:?}"
                );
            }
        }
    }
}

#[test]
fn parallel_and_sim_match_oracle_counts() {
    let mut rng = ChaCha8Rng::seed_from_u64(31415);
    for trial in 0..8 {
        let (taxa, problem) = random_problem(8, 3, &mut rng);
        let expected = brute_force_stand(&problem, &taxa).len() as u64;
        let serial = gentrius_stand(&problem, &taxa, &GentriusConfig::exhaustive()).len() as u64;
        assert_eq!(serial, expected, "trial {trial}");
        let par = run_parallel(
            &problem,
            &GentriusConfig::exhaustive(),
            &ParallelConfig::with_threads(3),
        )
        .expect("parallel");
        assert_eq!(par.stats.stand_trees, expected, "trial {trial} parallel");
        let sim = simulate(
            &problem,
            &GentriusConfig::exhaustive(),
            &SimConfig::with_threads(5),
        )
        .expect("sim");
        assert_eq!(sim.stats.stand_trees, expected, "trial {trial} sim");
    }
}
