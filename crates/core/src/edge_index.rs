//! Edge-indexed admissibility kernels — flat projections keyed by clade.
//!
//! The incremental engine ([`crate::incremental`]) keeps the paper's
//! double-edge mappings alive across insertions, but still represents a
//! projection as `Vec<Option<Arc<Split>>>` and answers the admissibility
//! test `map[e] == b̂(t)` by comparing full split bitsets. This module is
//! the flat-vector successor:
//!
//! * per constraint, a projection is a plain `Vec<CladeKey>` indexed by
//!   `EdgeId` and the targets a plain `Vec<CladeKey>` indexed by taxon id;
//!   a [`CladeKey`] is the (smallest member, size) pair of the edge's
//!   below-set of common taxa, exact while the agile tree and the
//!   constraint agree on those taxa — the invariant the search keeps — so
//!   the admissibility test is a single `u64` compare per (edge,
//!   constraint), with no bitset, hashing or allocation behind it;
//! * rebuilds reuse the traversal scratch of [`ProjectionScratch`] and
//!   recycle retired key vectors through a pool, so the steady-state
//!   explore loop allocates nothing per node;
//! * insertions follow the incremental engine's patch discipline: a
//!   constraint not containing the inserted taxon gets an O(1) three-slot
//!   patch, a containing constraint gets a rebuild with the old vectors
//!   pushed onto the undo stack.
//!
//! [`crate::config::MappingMode::Recompute`] stays available as the oracle
//! the conformance matrix checks every kernel against.

use crate::mapping::{project_edges_into, project_targets_into, CladeKey, ProjectionScratch};
use crate::problem::StandProblem;
use phylo::bitset::BitSet;
use phylo::taxa::TaxonId;
use phylo::tree::{EdgeId, Insertion, Tree};

/// Flat projection state for one constraint tree.
#[derive(Clone)]
struct EdgeKernel {
    /// `C = W ∩ Y_i`, kept in sync with the agile tree's taxa.
    c: BitSet,
    /// `|C| ≤ 1`: no common subtree edges; every branch is admissible and
    /// `map`/`targets` contents are meaningless.
    all: bool,
    /// Projection of agile edges onto the common subtree, by `EdgeId`.
    map: Vec<CladeKey>,
    /// `b̂(t)` for each taxon (by taxon id; `NONE` when absent).
    targets: Vec<CladeKey>,
}

/// Undo record for one constraint rebuilt by an insertion.
struct UndoEntry {
    constraint: u32,
    all: bool,
    map: Vec<CladeKey>,
    targets: Vec<CladeKey>,
}

/// The live edge-indexed projections for every constraint plus the LIFO
/// undo stack and the recycled scratch buffers.
pub struct EdgeIndexedMaps {
    per: Vec<EdgeKernel>,
    undo: Vec<Vec<UndoEntry>>,
    scratch: ProjectionScratch,
    /// Retired `Vec<CladeKey>` buffers, recycled across rebuilds.
    pool: Vec<Vec<CladeKey>>,
    /// Retired undo frames, recycled across insertions.
    frame_pool: Vec<Vec<UndoEntry>>,
}

impl EdgeIndexedMaps {
    /// Builds the kernels for the root state.
    pub fn new(problem: &StandProblem, agile: &Tree) -> Self {
        let mut scratch = ProjectionScratch::new();
        let per = problem
            .constraints()
            .iter()
            .map(|cons| {
                let c = agile.taxa().intersection(cons.taxa());
                let mut map = Vec::new();
                let mut targets = Vec::new();
                let projected = project_edges_into(agile, &c, &mut scratch, &mut map);
                if projected {
                    project_targets_into(cons, &c, &mut scratch, &mut targets);
                }
                EdgeKernel {
                    all: !projected,
                    c,
                    map,
                    targets,
                }
            })
            .collect();
        EdgeIndexedMaps {
            per,
            undo: Vec::new(),
            scratch,
            pool: Vec::new(),
            frame_pool: Vec::new(),
        }
    }

    /// True if constraint `ci` admits every branch (`|C| ≤ 1`).
    #[inline]
    pub fn all_admissible(&self, ci: usize) -> bool {
        self.per[ci].all
    }

    /// The target key `b̂(t)` of `taxon` under constraint `ci`, or `NONE`
    /// when the constraint admits every branch or does not pin the taxon.
    #[inline]
    pub fn target_key(&self, ci: usize, taxon: TaxonId) -> CladeKey {
        let k = &self.per[ci];
        if k.all {
            return CladeKey::NONE;
        }
        k.targets
            .get(taxon.index())
            .copied()
            .unwrap_or(CladeKey::NONE)
    }

    /// The projection key of live edge `e` under constraint `ci`.
    #[inline]
    pub fn projection_key(&self, ci: usize, e: EdgeId) -> CladeKey {
        self.per[ci]
            .map
            .get(e.index())
            .copied()
            .unwrap_or(CladeKey::NONE)
    }

    /// The common taxa `C` tracked for constraint `ci` (tests).
    pub fn common(&self, ci: usize) -> &BitSet {
        &self.per[ci].c
    }

    /// Records a no-op frame for an insertion whose maps will never be
    /// queried (tree completion: the stand is emitted and undone without
    /// any admissibility query, so patching would be pure waste).
    pub fn after_insert_unqueried(&mut self) {
        self.undo.push(self.frame_pool.pop().unwrap_or_default());
    }

    /// Patches the kernels after `agile` gained the insertion `ins`.
    pub fn after_insert(&mut self, problem: &StandProblem, agile: &Tree, ins: &Insertion) {
        let t = ins.taxon.index();
        let mut frame = self.frame_pool.pop().unwrap_or_default();
        for (ci, k) in self.per.iter_mut().enumerate() {
            let cons = &problem.constraints()[ci];
            if cons.taxa().contains(t) {
                // C grows: full rebuild into recycled buffers, with undo.
                k.c.insert(t);
                let mut new_map = self.pool.pop().unwrap_or_default();
                let mut new_targets = self.pool.pop().unwrap_or_default();
                let projected = project_edges_into(agile, &k.c, &mut self.scratch, &mut new_map);
                if projected {
                    project_targets_into(cons, &k.c, &mut self.scratch, &mut new_targets);
                }
                frame.push(UndoEntry {
                    constraint: ci as u32,
                    all: k.all,
                    map: std::mem::replace(&mut k.map, new_map),
                    targets: std::mem::replace(&mut k.targets, new_targets),
                });
                k.all = !projected;
            } else if !k.all {
                // C unchanged: the three edges around the subdivision all
                // project to whatever the subdivided edge projected to.
                // Undo needs no repair — the slots of freed edge ids are
                // never read while dead and are rewritten on id reuse.
                let hi = ins.far_half.index().max(ins.pendant.index());
                if k.map.len() <= hi {
                    k.map.resize(hi + 1, CladeKey::NONE);
                }
                let key = k.map[ins.edge.index()];
                k.map[ins.far_half.index()] = key;
                k.map[ins.pendant.index()] = key;
            }
        }
        self.undo.push(frame);
    }

    /// Clones the *live* kernel state only — the flat projection and
    /// target vectors — with empty undo stacks and pools. Sound for task
    /// handoff because a resumed task never undoes below its resume point:
    /// the undo frames it pushes from here on are exactly the ones it will
    /// pop.
    pub fn fork_live(&self) -> Self {
        EdgeIndexedMaps {
            per: self.per.clone(),
            undo: Vec::new(),
            scratch: ProjectionScratch::new(),
            pool: Vec::new(),
            frame_pool: Vec::new(),
        }
    }

    /// Reverts the most recent [`EdgeIndexedMaps::after_insert`]. Call
    /// *before* removing the insertion from the tree (LIFO discipline).
    pub fn before_remove(&mut self, ins: &Insertion) {
        // xlint: allow(panic-freedom) — undo underflow means the LIFO discipline broke; continuing would enumerate wrong stands
        let mut frame = self.undo.pop().expect("undo stack underflow");
        for entry in frame.drain(..) {
            let k = &mut self.per[entry.constraint as usize];
            k.c.remove(ins.taxon.index());
            k.all = entry.all;
            self.pool.push(std::mem::replace(&mut k.map, entry.map));
            self.pool
                .push(std::mem::replace(&mut k.targets, entry.targets));
        }
        self.frame_pool.push(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::tests::assert_keys_match_splits;
    use crate::mapping::{attachment_map, missing_taxon_targets};
    use phylo::newick::parse_forest;

    fn problem(newicks: &[&str]) -> StandProblem {
        let (_, trees) = parse_forest(newicks.iter().copied()).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    /// Compares the edge-indexed kernels against freshly recomputed
    /// Arc-based projections: the same `C` and all-admissible flag, and
    /// keys that name the same common-subtree edges as the recomputed
    /// splits. Keys of the agile tree and of a constraint are comparable
    /// only while the two agree on their common taxa, which every state
    /// built here does.
    fn assert_matches_recompute(ei: &EdgeIndexedMaps, problem: &StandProblem, agile: &Tree) {
        assert_eq!(problem.conflicting_constraint(agile), None);
        for (ci, cons) in problem.constraints().iter().enumerate() {
            let c = agile.taxa().intersection(cons.taxa());
            assert_eq!(ei.common(ci), &c, "C of {ci}");
            let fresh_map = attachment_map(agile, &c);
            assert_eq!(
                ei.all_admissible(ci),
                fresh_map.all_admissible(),
                "all_admissible flag of {ci}"
            );
            let fresh_targets = missing_taxon_targets(cons, &c);
            let targets = fresh_targets
                .iter()
                .enumerate()
                .map(|(t, fresh)| (ei.target_key(ci, TaxonId(t as u32)), fresh.as_ref()));
            if ei.all_admissible(ci) {
                for (t, (key, fresh)) in targets.enumerate() {
                    assert!(
                        key.is_none() && fresh.is_none(),
                        "constraint {ci}, taxon {t}"
                    );
                }
            } else {
                let entries: Vec<_> = agile
                    .edges()
                    .map(|e| (ei.projection_key(ci, e), fresh_map.get(e)))
                    .chain(targets)
                    .collect();
                assert_keys_match_splits(&entries, &format!("constraint {ci}"));
            }
        }
    }

    #[test]
    fn insert_remove_tracks_recompute() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));", "((A,F),(G,B));"]);
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        assert_matches_recompute(&ei, &p, &agile);

        let e_taxon = TaxonId(4);
        let g_taxon = TaxonId(6);
        let edges: Vec<_> = agile.edges().collect();
        let ins1 = agile.insert_leaf_on_edge(e_taxon, edges[2]);
        ei.after_insert(&p, &agile, &ins1);
        assert_matches_recompute(&ei, &p, &agile);

        let edges: Vec<_> = agile.edges().collect();
        let ins2 = agile.insert_leaf_on_edge(g_taxon, edges[5]);
        ei.after_insert(&p, &agile, &ins2);
        assert_matches_recompute(&ei, &p, &agile);

        ei.before_remove(&ins2);
        agile.remove_insertion(&ins2);
        assert_matches_recompute(&ei, &p, &agile);

        ei.before_remove(&ins1);
        agile.remove_insertion(&ins1);
        assert_matches_recompute(&ei, &p, &agile);
    }

    #[test]
    fn reinsertion_after_undo_is_consistent() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        let e_taxon = TaxonId(4);
        let edges: Vec<_> = agile.edges().collect();
        for &edge in &edges {
            let ins = agile.insert_leaf_on_edge(e_taxon, edge);
            ei.after_insert(&p, &agile, &ins);
            assert_matches_recompute(&ei, &p, &agile);
            ei.before_remove(&ins);
            agile.remove_insertion(&ins);
            assert_matches_recompute(&ei, &p, &agile);
        }
    }

    #[test]
    fn tiny_overlap_transitions_all_admissible_flag() {
        // Constraint 1 shares only taxon A with the agile tree at the root
        // (all-admissible); inserting E (in constraint 1) grows C to two
        // taxa and must flip the flag — and undo must flip it back.
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        assert!(ei.all_admissible(1));
        let edges: Vec<_> = agile.edges().collect();
        let ins = agile.insert_leaf_on_edge(TaxonId(4), edges[0]);
        ei.after_insert(&p, &agile, &ins);
        assert!(!ei.all_admissible(1));
        assert_matches_recompute(&ei, &p, &agile);
        ei.before_remove(&ins);
        agile.remove_insertion(&ins);
        assert!(ei.all_admissible(1));
        assert_matches_recompute(&ei, &p, &agile);
    }
}
