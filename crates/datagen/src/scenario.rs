//! Scenario instances reproducing the *roles* of specific datasets named in
//! the paper (DESIGN.md substitution 2).
//!
//! The paper's narrative datasets (`emp-data-42370`, `sim-data-5001`,
//! `sim-data-1511/1792/1795`, the Table I/II long runners) are not
//! redistributable here; what matters for reproduction is their *behaviour
//! class*. This module provides deterministic searches over the seeded
//! generators for instances exhibiting each class, plus named accessors
//! with pre-searched seeds so the benches start from known-good instances.

use crate::dataset::Dataset;
use crate::simulated::{simulated_dataset, MissingPattern, SimulatedParams};
use gentrius_core::{GentriusConfig, StoppingRules};
use gentrius_sim::{simulate, SimConfig};
use phylo::generate::ShapeModel;

/// Outcome of probing one instance with the virtual-time simulator.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Serial (1-thread) virtual makespan.
    pub serial_ticks: u64,
    /// Serial stand trees (under the probe's stopping rules).
    pub serial_trees: u64,
    /// Whether the serial run completed without a stopping rule.
    pub serial_complete: bool,
}

/// Simulates the dataset serially under the given stopping rules.
pub fn probe(dataset: &Dataset, stopping: &StoppingRules) -> Probe {
    let problem = dataset.problem().expect("generated dataset is valid");
    let cfg = GentriusConfig {
        stopping: stopping.clone(),
        ..GentriusConfig::default()
    };
    let r = simulate(&problem, &cfg, &SimConfig::with_threads(1)).expect("probe run");
    Probe {
        serial_ticks: r.makespan,
        serial_trees: r.stats.stand_trees,
        serial_complete: r.complete(),
    }
}

/// Deterministically scans generator indices `start..start+budget` and
/// returns the first dataset satisfying `pred`, together with its index.
pub fn find_instance<F>(
    params: &SimulatedParams,
    seed: u64,
    start: u64,
    budget: u64,
    mut pred: F,
) -> Option<(u64, Dataset)>
where
    F: FnMut(&Dataset) -> bool,
{
    for i in start..start + budget {
        let d = simulated_dataset(params, seed, i);
        if pred(&d) {
            return Some((i, d));
        }
    }
    None
}

/// The parameter block used by all scenario searches: small enough that a
/// probe takes milliseconds, constrained enough that interesting workflow
/// shapes occur.
pub fn scenario_params() -> SimulatedParams {
    SimulatedParams {
        taxa: (14, 26),
        loci: (4, 7),
        missing: (0.35, 0.55),
        pattern: MissingPattern::Uniform,
        shape: ShapeModel::Uniform,
    }
}

/// The master seed for the pre-searched scenarios below. Changing it
/// invalidates the hardcoded indices.
pub const SCENARIO_SEED: u64 = 20230512;

/// `emp-data-42370` role (§II-B): a completable instance with a
/// non-trivial stand where both heuristics visibly reduce the number of
/// visited intermediate states and dead ends.
pub fn heuristics_showcase() -> Dataset {
    // Pre-searched: see `find_heuristics_showcase` and the scenario tests.
    simulated_dataset(&scenario_params(), SCENARIO_SEED, HEURISTICS_INDEX)
}

/// Pre-searched index for [`heuristics_showcase`] (probe: stand of 8,385
/// trees; 510 states with both heuristics, 5,337 (10.5×) without the
/// initial-tree rule, 17,382 (34.1×) with 5,502 dead ends without dynamic
/// insertion — the paper's both-heuristics-matter shape). Indices are tied
/// to the workspace RNG stream (`shims/rand*`); re-pin with the
/// `heur_scan`/`find_scenarios` tools if the stream changes.
pub const HEURISTICS_INDEX: u64 = 26;

/// Parameters of the trap search: clustered missingness produces the
/// heterogeneous (desert/garden) branch-and-bound trees where the
/// stopping-rule distortion of Fig. 5b / Fig. 8 occurs.
pub fn trap_params() -> SimulatedParams {
    SimulatedParams {
        taxa: (22, 36),
        loci: (5, 9),
        missing: (0.45, 0.65),
        pattern: MissingPattern::Clustered,
        shape: ShapeModel::Uniform,
    }
}

/// `sim-data-5001` role (Fig. 5b, §IV-A): under a tight intermediate-state
/// limit the serial run burns most of the budget in dead-end-rich desert
/// regions, while the parallel descent reaches tree-dense regions sooner —
/// adapted speedups beyond the thread count (super-linear distortion).
pub fn trap_showcase() -> (Dataset, StoppingRules) {
    let d = simulated_dataset(&trap_params(), SCENARIO_SEED, TRAP_INDEX);
    (d, trap_stopping())
}

/// Pre-searched index for [`trap_showcase`] (probe: at a 50k-state budget
/// the serial run stops early and the 2-thread adapted speedup exceeds
/// 2.2× — the Fig. 5b distortion). Re-pin with `trap_scan` /
/// `find_scenarios` if the workspace RNG stream changes.
pub const TRAP_INDEX: u64 = 32;

/// The reduced stopping rules used by the trap scenario (scaled version of
/// the paper's 10M-state short analyses of §IV-D).
pub fn trap_stopping() -> StoppingRules {
    StoppingRules::counts(1_000_000_000, 50_000)
}

/// Searches for a trap instance: serial hits the state limit, and the
/// 2-thread adapted speedup exceeds `min_asp` (super-linear distortion).
pub fn find_trap_instance(
    seed: u64,
    start: u64,
    budget: u64,
    min_asp: f64,
) -> Option<(u64, Dataset)> {
    let params = trap_params();
    let stopping = trap_stopping();
    find_instance(&params, seed, start, budget, |d| {
        let problem = match d.problem() {
            Ok(p) => p,
            Err(_) => return false,
        };
        let cfg = GentriusConfig {
            stopping: stopping.clone(),
            ..GentriusConfig::default()
        };
        let serial = simulate(&problem, &cfg, &SimConfig::with_threads(1)).expect("sim");
        if serial.complete() {
            return false;
        }
        let par = simulate(&problem, &cfg, &SimConfig::with_threads(2)).expect("sim");
        par.adapted_speedup_vs(&serial) >= min_asp
    })
}

/// The dead-end blow-up role: a trap-family instance whose *complete*
/// enumeration is large (hundreds of thousands of events) and dead-end
/// dominated. Because the enumeration completes, serial and parallel runs
/// perform identical total work, which makes wall-clock throughput
/// comparisons between them exact — the scaling-regression gate
/// (BENCH_6) is built on this instance and [`blowup_showcase`].
pub fn deadend_blowup() -> Dataset {
    simulated_dataset(&trap_params(), SCENARIO_SEED, DEADEND_BLOWUP_INDEX)
}

/// Pre-searched index for [`deadend_blowup`] (probe: complete serial
/// enumeration of 192,375 trees — a backtracking-heavy workload long
/// enough to time reliably). Re-pin with [`find_deadend_blowup`] if the
/// workspace RNG stream changes.
///
/// The search size depends on the form the instance is loaded in. The
/// in-memory [`deadend_blowup`] takes 204,299 intermediate states and
/// 82,620 dead ends; its dataset file (what `gentrius gen` writes and the
/// CLI loads) takes 254,465 and 206,226. The stand is the same. The
/// stopping rules are not the cause: each form gives its own figures
/// under the default rules and under count-only limits alike. The cause
/// is the text round trip: [`Dataset::from_text`] re-interns the taxa in
/// order of appearance, and taxon ids break ties in the dynamic taxon
/// order, so the two forms insert taxa in different orders.
pub const DEADEND_BLOWUP_INDEX: u64 = 19;

/// Searches for a [`deadend_blowup`] instance: fully enumerable under a
/// large budget, at least `min_states` intermediate states, and dead
/// ends at least a third of the states.
pub fn find_deadend_blowup(
    seed: u64,
    start: u64,
    budget: u64,
    min_states: u64,
) -> Option<(u64, Dataset)> {
    use gentrius_core::{run_serial, CountOnly};
    let params = trap_params();
    find_instance(&params, seed, start, budget, |d| {
        let Ok(problem) = d.problem() else {
            return false;
        };
        let cfg = GentriusConfig {
            stopping: StoppingRules::counts(1_000_000, 400_000),
            ..GentriusConfig::default()
        };
        let Ok(r) = run_serial(&problem, &cfg, &mut CountOnly) else {
            return false;
        };
        r.complete()
            && r.stats.intermediate_states >= min_states
            && r.stats.dead_ends * 3 >= r.stats.intermediate_states
    })
}

/// Searches for a heuristics-showcase instance: fully enumerable within
/// the budget, with a stand of at least `min_trees` trees and at least
/// `min_states` intermediate states.
pub fn find_heuristics_showcase(
    seed: u64,
    start: u64,
    budget: u64,
    min_trees: u64,
    min_states: u64,
) -> Option<(u64, Dataset)> {
    let params = scenario_params();
    let stopping = StoppingRules::counts(500_000, 2_000_000);
    find_instance(&params, seed, start, budget, |d| {
        let p = probe(d, &stopping);
        p.serial_complete && p.serial_trees >= min_trees && p.serial_ticks >= min_states
    })
}

/// Fig. 5a role: a crafted instance whose branch-and-bound tree *cannot*
/// be load-balanced, producing a speedup plateau (the paper observed
/// plateaus of ~3× and ~5× on sim-data-1511/1792/1795).
///
/// Construction (see the E7 bench): the agile tree is a caterpillar on
/// taxa `c_0..c_m`; taxa `z_1..z_k` are each pinned to a single branch by
/// a quartet constraint (a forced chain — explored in the serial prefix);
/// taxon `y` is pinned by two quartets to a ~5-edge region — the initial
/// split; and two *free* taxa `f_1, f_2` form a large fan at the very
/// bottom, where fewer than three taxa remain, so the §III-A rule forbids
/// task creation. The workload therefore consists of exactly ~5
/// unstealable chunks: speedup plateaus at ~5 regardless of thread count.
pub fn plateau_showcase() -> Dataset {
    plateau_with_chunks(5)
}

/// The ~3x-plateau variant: `y`'s two quartets sandwich a 3-edge region
/// (the paper reports plateaus of both ~3x and ~5x).
pub fn plateau_showcase_3() -> Dataset {
    plateau_with_chunks(3)
}

/// Builds the crafted plateau instance with a `chunks`-edge initial split
/// (supported: 3 or 5 — the size of the admissible-region intersection is
/// set by how far apart `y`'s two anchoring quartets sit on the
/// caterpillar).
pub fn plateau_with_chunks(chunks: usize) -> Dataset {
    plateau_family(chunks, 1)
}

/// The caterpillar blow-up instance: the plateau construction with a
/// *large* free fan (`plateau_family(5, 3)`, six free taxa). Every free
/// taxon is admissible on every edge, so the stand size explodes
/// combinatorially (~10^9 topologies) and an enumeration under bench
/// limits spends its whole budget in wide, uniform frames — the §IV
/// blow-up regime where per-state work is cheap and engine overhead
/// (task handoff, stop polling, counter flushing) dominates scaling.
pub fn blowup_showcase() -> Dataset {
    let mut d = plateau_family(5, 3);
    d.name = "caterpillar-blowup".to_string();
    d
}

/// The shared plateau/blow-up construction: a caterpillar with a pinned
/// chain, the `chunks`-edge initial-split taxon `y`, and `free_pairs`
/// three-leaf fan constraints contributing `2 * free_pairs` taxa that are
/// admissible everywhere.
fn plateau_family(chunks: usize, free_pairs: usize) -> Dataset {
    use phylo::taxa::TaxonSet;
    use phylo::tree::Tree;
    use phylo::TaxonId;

    assert!(chunks == 3 || chunks == 5, "supported plateau sizes: 3, 5");
    assert!(free_pairs >= 1, "at least one free fan pair");
    let k = 6usize; // chain length
    let m = 27usize; // caterpillar taxa c_0..c_26
    let n = m + k + 1 + 2 * free_pairs; // + y + f1..f_{2*free_pairs}
    let mut taxa = TaxonSet::new();
    for i in 0..m {
        taxa.intern(&format!("c{i}"));
    }
    for i in 1..=k {
        taxa.intern(&format!("z{i}"));
    }
    taxa.intern("y");
    for i in 1..=2 * free_pairs {
        taxa.intern(&format!("f{i}"));
    }
    debug_assert_eq!(taxa.len(), n);
    let c = |i: usize| TaxonId(i as u32);
    let z = |i: usize| TaxonId((m + i - 1) as u32);
    let y = TaxonId((m + k) as u32);
    let f = |i: usize| TaxonId((m + k + i) as u32);

    // Caterpillar (((c0,c1),c2),c3)... on all c's: the initial agile tree.
    let mut caterpillar = Tree::three_leaf(n, c(0), c(1), c(2));
    for i in 3..m {
        let prev = caterpillar.leaf(c(i - 1)).expect("leaf exists");
        let e = caterpillar.adjacent_edges(prev)[0];
        caterpillar.insert_leaf_on_edge(c(i), e);
    }

    // Quartet ((a,b),(d,e)).
    let quartet = |a: TaxonId, b: TaxonId, d: TaxonId, e: TaxonId| {
        let mut t = Tree::three_leaf(n, a, b, d);
        let leaf_d = t.leaf(d).expect("leaf exists");
        let edge = t.adjacent_edges(leaf_d)[0];
        t.insert_leaf_on_edge(e, edge);
        t
    };

    let mut constraints = vec![caterpillar];
    // Chain pins: z_i forced onto c_j's pendant edge (j spaced by 3,
    // starting at 7, away from y's split region around c_0..c_5).
    for i in 1..=k {
        let j = 7 + 3 * (i - 1);
        constraints.push(quartet(z(i), c(j), c(j - 1), c(j + 1)));
    }
    // The initial-split taxon y: two quartets whose admissible regions
    // intersect in `chunks` edges around the bottom of the caterpillar
    // (anchoring the second quartet at (c3,c4) instead of (c4,c5) shrinks
    // the sandwiched region from 5 edges to 3).
    constraints.push(quartet(y, c(2), c(0), c(1)));
    if chunks == 5 {
        constraints.push(quartet(y, c(2), c(4), c(5)));
    } else {
        constraints.push(quartet(y, c(2), c(3), c(4)));
    }
    // Free fan taxa: a 3-leaf constraint sharing a single taxon with the
    // agile tree keeps each f-pair admissible everywhere.
    for i in 0..free_pairs {
        constraints.push(Tree::three_leaf(n, f(2 * i + 1), f(2 * i + 2), c(0)));
    }

    Dataset {
        name: format!("plateau-craft-{chunks}"),
        taxa,
        species_tree: None,
        pam: None,
        constraints,
    }
}

/// Pre-searched generator indices of the "long runner" family: instances
/// whose serial virtual cost exceeds ~150k ticks (probe via the
/// `long_scan` maintenance tool). The first two complete under a 400k
/// budget (Table II role); the rest have very large stands (Table I role).
pub const LONG_RUNNER_INDICES: [u64; 6] = [15, 42, 9, 12, 17, 24];

/// A deterministic "long runner" for the Table I / Table II roles: a large
/// instance with a big stand. `index` selects into
/// [`LONG_RUNNER_INDICES`].
pub fn long_runner(index: u64) -> Dataset {
    let params = SimulatedParams {
        taxa: (24, 40),
        loci: (5, 9),
        missing: (0.4, 0.6),
        pattern: MissingPattern::Uniform,
        shape: ShapeModel::Uniform,
    };
    let gen_idx = LONG_RUNNER_INDICES[index as usize % LONG_RUNNER_INDICES.len()];
    let mut d = simulated_dataset(&params, SCENARIO_SEED.wrapping_add(77), gen_idx);
    d.name = format!("long-runner-{index}");
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristics_showcase_has_searched_property() {
        let d = heuristics_showcase();
        let p = probe(&d, &StoppingRules::counts(500_000, 2_000_000));
        assert!(p.serial_complete, "showcase must be fully enumerable");
        assert!(p.serial_trees >= 100, "stand too small: {}", p.serial_trees);
    }

    #[test]
    fn trap_showcase_has_searched_property() {
        let (d, stopping) = trap_showcase();
        let problem = d.problem().unwrap();
        let cfg = GentriusConfig {
            stopping,
            ..GentriusConfig::default()
        };
        let serial = simulate(&problem, &cfg, &SimConfig::with_threads(1)).unwrap();
        let par = simulate(&problem, &cfg, &SimConfig::with_threads(2)).unwrap();
        assert!(
            !serial.complete(),
            "trap serial run must hit the state limit"
        );
        // Super-linear adapted speedup at 2 threads: parallel finds more
        // trees per tick than serial (Fig. 5b mechanism).
        let asp = par.adapted_speedup_vs(&serial);
        assert!(asp > 2.2, "adapted speedup too low: {asp:.2}");
        assert!(
            par.stats.stand_trees > serial.stats.stand_trees,
            "parallel must find more trees: serial={} parallel={}",
            serial.stats.stand_trees,
            par.stats.stand_trees
        );
    }

    #[test]
    fn plateau_showcase_saturates() {
        let d = plateau_showcase();
        let p = d.problem().unwrap();
        let cfg = GentriusConfig {
            stopping: StoppingRules::unlimited(),
            ..GentriusConfig::default()
        };
        let mut sc1 = SimConfig::with_threads(1);
        sc1.cost = gentrius_sim::CostModel::ideal();
        let s1 = simulate(&p, &cfg, &sc1).unwrap();
        assert!(s1.complete());
        assert!(
            s1.makespan > 5_000,
            "plateau instance too small: {}",
            s1.makespan
        );
        let sp = |t: usize| {
            let mut sc = SimConfig::with_threads(t);
            sc.cost = gentrius_sim::CostModel::ideal();
            let r = simulate(&p, &cfg, &sc).unwrap();
            assert_eq!(r.stats, s1.stats);
            r.speedup_vs(&s1)
        };
        let sp8 = sp(8);
        let sp16 = sp(16);
        // The workload has ~5 unstealable chunks: speedup saturates.
        assert!(sp8 <= 6.0, "no plateau: sp8={sp8:.2}");
        assert!(
            (sp16 - sp8).abs() < 1.0,
            "still scaling: sp8={sp8:.2} sp16={sp16:.2}"
        );
        assert!(sp8 >= 2.0, "plateau too low: sp8={sp8:.2}");
    }

    #[test]
    fn plateau_3_variant_saturates_lower() {
        let d5 = plateau_showcase();
        let d3 = plateau_showcase_3();
        let cfg = GentriusConfig {
            stopping: StoppingRules::unlimited(),
            ..GentriusConfig::default()
        };
        let sp16 = |d: &crate::Dataset| {
            let p = d.problem().unwrap();
            let mut sc1 = SimConfig::with_threads(1);
            sc1.cost = gentrius_sim::CostModel::ideal();
            let s1 = simulate(&p, &cfg, &sc1).unwrap();
            let mut sc = SimConfig::with_threads(16);
            sc.cost = gentrius_sim::CostModel::ideal();
            let r = simulate(&p, &cfg, &sc).unwrap();
            r.speedup_vs(&s1)
        };
        let p5 = sp16(&d5);
        let p3 = sp16(&d3);
        assert!(
            p3 < p5,
            "3-chunk plateau ({p3:.2}) must sit below 5-chunk ({p5:.2})"
        );
        assert!(
            (2.0..=3.7).contains(&p3),
            "expected ~3x plateau, got {p3:.2}"
        );
        assert!(
            (4.0..=5.8).contains(&p5),
            "expected ~5x plateau, got {p5:.2}"
        );
    }

    #[test]
    fn long_runners_are_valid() {
        for i in 0..2 {
            let d = long_runner(i);
            d.problem().unwrap();
            d.pam.as_ref().unwrap().validate_for_inference().unwrap();
        }
    }
}

/// A named scenario in the registry: the dataset plus what it reproduces.
pub struct NamedScenario {
    /// Registry key (CLI: `gen --scenario <key>`).
    pub key: &'static str,
    /// One-line description of the paper role.
    pub role: &'static str,
    /// Builds the dataset.
    pub build: fn() -> Dataset,
}

/// All pre-searched / crafted scenario instances, by stable key.
pub const REGISTRY: &[NamedScenario] = &[
    NamedScenario {
        key: "heuristics-showcase",
        role:
            "emp-data-42370 role (SS II-B): both heuristics matter; 1x/5.8x/14.1x state inflation",
        build: heuristics_showcase,
    },
    NamedScenario {
        key: "trap",
        role: "sim-data-5001 role (Fig. 5b): stopping-rule trap with super-linear adapted speedups",
        build: || trap_showcase().0,
    },
    NamedScenario {
        key: "plateau-3",
        role: "Fig. 5a role: crafted 3-chunk workload, hard ~3x speedup plateau",
        build: plateau_showcase_3,
    },
    NamedScenario {
        key: "plateau-5",
        role: "Fig. 5a role: crafted 5-chunk workload, hard ~5x speedup plateau",
        build: plateau_showcase,
    },
    NamedScenario {
        key: "long-runner-0",
        role: "Table I/II role: large stand, ~200k-tick serial cost",
        build: || long_runner(0),
    },
    NamedScenario {
        key: "long-runner-1",
        role: "Table I/II role: large stand, near-paper Table II scaling shape",
        build: || long_runner(1),
    },
];

/// Looks up a scenario by key.
pub fn scenario_by_key(key: &str) -> Option<Dataset> {
    REGISTRY.iter().find(|s| s.key == key).map(|s| (s.build)())
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn every_registry_entry_builds_a_valid_problem() {
        for entry in REGISTRY {
            let d = scenario_by_key(entry.key).expect("key resolves");
            let p = d.problem().unwrap_or_else(|e| panic!("{}: {e}", entry.key));
            assert!(p.num_taxa() >= 4, "{}", entry.key);
            assert!(!entry.role.is_empty());
        }
        assert!(scenario_by_key("nope").is_none());
    }

    #[test]
    fn registry_keys_are_unique() {
        let mut keys: Vec<&str> = REGISTRY.iter().map(|s| s.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), REGISTRY.len());
    }
}
