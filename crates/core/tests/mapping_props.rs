//! Property tests of the edge-indexed admissibility kernels. The kernels
//! name each common-subtree edge by a clade key, which is exact only while
//! the agile tree agrees with each constraint on their common taxa — the
//! invariant every search state keeps. So on random walks that insert
//! only on admissible edges (states the search can reach) the kernels must
//! agree with the definitional admissibility test for every (constraint,
//! missing taxon, edge) triple, and key equality must match split
//! equality, at every depth. Apply/undo round trips must restore the raw
//! key vectors exactly, on walks over random edges as well; that property
//! does not depend on the invariant.

use gentrius_core::edge_index::EdgeIndexedMaps;
use gentrius_core::mapping::{attachment_map, missing_taxon_targets, CladeKey};
use gentrius_core::StandProblem;
use phylo::bitset::BitSet;
use phylo::generate::{random_tree, ShapeModel};
use phylo::ops::{compatible, restrict};
use phylo::split::{topo_eq, Split};
use phylo::taxa::TaxonId;
use phylo::tree::{EdgeId, Insertion, Tree};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const UNIVERSE: usize = 11;

/// A random instance: an agile tree and 2–3 constraint trees, all
/// restrictions of one random source tree (so they are pairwise
/// compatible and form a well-posed stand problem).
fn random_instance(seed: u64) -> (Tree, StandProblem) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids: Vec<TaxonId> = (0..UNIVERSE as u32).map(TaxonId).collect();
    let source = random_tree(UNIVERSE, &ids, ShapeModel::Uniform, &mut rng);
    let subset = |rng: &mut ChaCha8Rng, lo: usize, hi: usize| {
        let mut shuffled = ids.clone();
        shuffled.shuffle(rng);
        let size = rng.gen_range(lo..=hi);
        BitSet::from_iter(UNIVERSE, shuffled[..size].iter().map(|t| t.index()))
    };
    let agile = restrict(&source, &subset(&mut rng, 4, 7));
    let n_cons = rng.gen_range(2..=3);
    let constraints: Vec<Tree> = (0..n_cons)
        .map(|_| restrict(&source, &subset(&mut rng, 4, 9)))
        .collect();
    let problem = StandProblem::from_constraints(constraints).unwrap();
    (agile, problem)
}

/// §II-A admissibility from first principles: insert `t` on `e`, restrict
/// both trees to the common taxa plus `t`, compare topologies.
fn admissible_by_definition(agile: &Tree, constraint: &Tree, t: TaxonId, e: EdgeId) -> bool {
    let mut a = agile.clone();
    a.insert_leaf_on_edge(t, e);
    let mut cu = agile.taxa().intersection(constraint.taxa());
    cu.insert(t.index());
    topo_eq(&restrict(&a, &cu), &restrict(constraint, &cu))
}

/// The kernels' answer for one (constraint, taxon, edge) triple.
fn admissible_by_kernel(ei: &EdgeIndexedMaps, ci: usize, t: TaxonId, e: EdgeId) -> bool {
    if ei.all_admissible(ci) {
        return true;
    }
    let target = ei.target_key(ci, t);
    if target.is_none() {
        return true; // constraint does not pin the taxon
    }
    ei.projection_key(ci, e) == target
}

/// Everything a kernel exposes, as raw keys.
type KernelSnapshot = Vec<(BitSet, bool, Vec<CladeKey>, Vec<CladeKey>)>;

fn snapshot(ei: &EdgeIndexedMaps, problem: &StandProblem, agile: &Tree) -> KernelSnapshot {
    (0..problem.constraints().len())
        .map(|ci| {
            let map = agile.edges().map(|e| ei.projection_key(ci, e)).collect();
            let targets = (0..UNIVERSE)
                .map(|t| ei.target_key(ci, TaxonId(t as u32)))
                .collect();
            (ei.common(ci).clone(), ei.all_admissible(ci), map, targets)
        })
        .collect()
}

/// Asserts the kernels match freshly recomputed Arc-based projections:
/// the same `C` and all-admissible flag, and keys that name the same
/// common-subtree edges as the recomputed splits — an entry has a key iff
/// it has a split, and two entries share a key iff they share a split.
/// Pairs of agile edges are compared on every state; targets only under
/// constraints the agile tree agrees with, since keys of two trees are
/// comparable only then.
fn matches_recompute(
    ei: &EdgeIndexedMaps,
    problem: &StandProblem,
    agile: &Tree,
) -> Result<(), TestCaseError> {
    for (ci, cons) in problem.constraints().iter().enumerate() {
        let c = agile.taxa().intersection(cons.taxa());
        prop_assert_eq!(ei.common(ci), &c, "C of constraint {}", ci);
        let fresh = attachment_map(agile, &c);
        prop_assert_eq!(
            ei.all_admissible(ci),
            fresh.all_admissible(),
            "all flag of constraint {}",
            ci
        );
        if ei.all_admissible(ci) {
            continue;
        }
        let mut entries: Vec<(CladeKey, Option<&Split>)> = agile
            .edges()
            .map(|e| (ei.projection_key(ci, e), fresh.get(e)))
            .collect();
        let fresh_targets = missing_taxon_targets(cons, &c);
        if compatible(agile, cons) {
            entries.extend((0..UNIVERSE).map(|t| {
                (
                    ei.target_key(ci, TaxonId(t as u32)),
                    fresh_targets[t].as_ref(),
                )
            }));
        }
        for (i, &(key, split)) in entries.iter().enumerate() {
            prop_assert_eq!(
                key.is_none(),
                split.is_none(),
                "constraint {}, entry {}",
                ci,
                i
            );
            for (j, &(key2, split2)) in entries.iter().enumerate().skip(i + 1) {
                prop_assert_eq!(
                    key == key2,
                    split == split2,
                    "constraint {}, entries {} and {}",
                    ci,
                    i,
                    j
                );
            }
        }
    }
    Ok(())
}

/// Checks the kernel against the definition for every (constraint,
/// missing taxon, edge) triple and returns, per missing taxon, the edges
/// every constraint admits it on.
fn agrees_with_definition(
    ei: &EdgeIndexedMaps,
    problem: &StandProblem,
    agile: &Tree,
) -> Result<Vec<(TaxonId, Vec<EdgeId>)>, TestCaseError> {
    let mut admissible: Vec<(TaxonId, Vec<EdgeId>)> = problem
        .all_taxa()
        .difference(agile.taxa())
        .iter()
        .map(|t| (TaxonId(t as u32), agile.edges().collect()))
        .collect();
    for (ci, cons) in problem.constraints().iter().enumerate() {
        let c = agile.taxa().intersection(cons.taxa());
        // Taxa the constraint does not contain are never pinned by it.
        for t in 0..UNIVERSE {
            if !cons.taxa().contains(t) {
                prop_assert!(ei.target_key(ci, TaxonId(t as u32)).is_none());
            }
        }
        for (t, edges) in admissible.iter_mut() {
            let t = *t;
            if !cons.taxa().contains(t.index()) {
                continue;
            }
            for e in agile.edges() {
                let kernel = admissible_by_kernel(ei, ci, t, e);
                if c.count() <= 1 {
                    // |C| ≤ 1: every edge is admissible by definition and
                    // the kernel must say so via the all flag.
                    prop_assert!(ei.all_admissible(ci));
                    prop_assert!(kernel);
                } else {
                    prop_assert_eq!(
                        kernel,
                        admissible_by_definition(agile, cons, t, e),
                        "constraint {}, taxon {:?}, edge {:?}",
                        ci,
                        t,
                        e
                    );
                }
            }
            edges.retain(|&e| admissible_by_kernel(ei, ci, t, e));
        }
    }
    Ok(admissible)
}

/// Inserts `t` on `e` and patches the kernels, returning the undo record
/// together with the kernel snapshot taken before the insertion.
fn apply(
    ei: &mut EdgeIndexedMaps,
    problem: &StandProblem,
    agile: &mut Tree,
    t: TaxonId,
    e: EdgeId,
) -> (Insertion, KernelSnapshot) {
    let snap = snapshot(ei, problem, agile);
    let ins = agile.insert_leaf_on_edge(t, e);
    ei.after_insert(problem, agile, &ins);
    (ins, snap)
}

/// Unwinds `trail`, requiring each undo to restore the exact pre-insert
/// snapshot.
fn unwind(
    ei: &mut EdgeIndexedMaps,
    problem: &StandProblem,
    agile: &mut Tree,
    mut trail: Vec<(Insertion, KernelSnapshot)>,
) -> Result<(), TestCaseError> {
    while let Some((ins, snap)) = trail.pop() {
        ei.before_remove(&ins);
        agile.remove_insertion(&ins);
        prop_assert_eq!(snapshot(ei, problem, agile), snap);
    }
    Ok(())
}

/// A random walk that inserts only on admissible edges, checking the
/// kernels against the definition and the recompute machinery at every
/// depth, until the tree is complete or no taxon has an admissible edge.
/// Returns the trail for unwinding.
fn admissible_walk(
    ei: &mut EdgeIndexedMaps,
    problem: &StandProblem,
    agile: &mut Tree,
    rng: &mut ChaCha8Rng,
) -> Result<Vec<(Insertion, KernelSnapshot)>, TestCaseError> {
    let mut trail = Vec::new();
    loop {
        prop_assert_eq!(problem.conflicting_constraint(agile), None);
        matches_recompute(ei, problem, agile)?;
        let mut options = agrees_with_definition(ei, problem, agile)?;
        options.retain(|(_, edges)| !edges.is_empty());
        let Some((t, edges)) = options.choose(rng) else {
            return Ok(trail);
        };
        let e = edges[rng.gen_range(0..edges.len())];
        trail.push(apply(ei, problem, agile, *t, e));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edge_kernel_agrees_with_definition(seed in 0u64..u64::MAX) {
        let (mut agile, problem) = random_instance(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA11CE);
        let mut ei = EdgeIndexedMaps::new(&problem, &agile);
        admissible_walk(&mut ei, &problem, &mut agile, &mut rng)?;
    }

    #[test]
    fn apply_undo_roundtrip_restores_projection_state(seed in 0u64..u64::MAX) {
        let (mut agile, problem) = random_instance(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1CE);
        let mut ei = EdgeIndexedMaps::new(&problem, &agile);

        // States the search reaches: admissible edges only.
        let trail = admissible_walk(&mut ei, &problem, &mut agile, &mut rng)?;
        unwind(&mut ei, &problem, &mut agile, trail)?;

        // Any states: every missing taxon on a random edge, in random
        // order. Keys of agile edges must still match their splits.
        let mut missing: Vec<TaxonId> = problem
            .all_taxa()
            .difference(agile.taxa())
            .iter()
            .map(|t| TaxonId(t as u32))
            .collect();
        missing.shuffle(&mut rng);
        let mut trail = Vec::new();
        for t in missing {
            let edges: Vec<EdgeId> = agile.edges().collect();
            let e = edges[rng.gen_range(0..edges.len())];
            trail.push(apply(&mut ei, &problem, &mut agile, t, e));
            matches_recompute(&ei, &problem, &agile)?;
        }
        unwind(&mut ei, &problem, &mut agile, trail)?;
    }
}
