//! Attachment projections — our realization of the paper's *double-edge
//! mapping* (§II-A and the Gentrius supplement).
//!
//! For an agile tree `A` on taxa `W` and a constraint tree `T` on `Y`, let
//! `C = W ∩ Y` be the common taxa. The invariant maintained by the search is
//! `A|C = T|C` (the *common subtree*). Every edge of `A` *projects* onto the
//! edge of the common subtree that a leaf inserted on it would subdivide;
//! the same projection computed on `T` tells, for each taxon `t ∈ Y \ W`,
//! which common-subtree edge `b̂(t)` it must subdivide. A branch of `A` is
//! then admissible for `t` (w.r.t. this constraint) iff it projects onto
//! `b̂(t)`.
//!
//! We identify common-subtree edges canonically by their **split of `C`**,
//! so projections computed independently on `A` and `T` are directly
//! comparable. The edge-indexed kernels ([`project_edges_into`],
//! [`project_targets_into`]) name the same edges by a [`CladeKey`]
//! instead: two integers per edge, no bitsets, exact under `A|C = T|C`.
//!
//! ### Why the projection is total and single-valued
//!
//! Root the tree at a `C`-leaf and consider the Steiner (minimal spanning)
//! subtree of the `C`-leaves. An edge whose below-set of `C`-taxa is
//! non-empty lies on a path of the Steiner tree and projects to that path's
//! common-subtree edge (its split). An edge with an empty below-set hangs
//! off the Steiner tree; in a **binary** tree nothing can hang off a Steiner
//! *branching* vertex (it already has degree 3 inside the Steiner tree), so
//! the hanging point is always interior to exactly one path — the edge
//! inherits that path's split. Hence for `|C| ≥ 2` every edge of the tree
//! projects to exactly one common-subtree edge; for `|C| ≤ 1` the common
//! subtree has no edges and every branch is admissible.

use phylo::bitset::BitSet;
use phylo::split::Split;
use phylo::taxa::TaxonId;
use phylo::tree::{EdgeId, NodeId, Tree};
use std::sync::Arc;

/// The attachment projection of every edge of a tree onto the common
/// subtree with taxon set `C`.
#[derive(Clone, Debug)]
pub enum AttachMap {
    /// `|C| ≤ 1`: the common subtree has no edges; every branch of the
    /// tree is admissible for any taxon of this constraint.
    AllAdmissible,
    /// `|C| ≥ 2`: `map[e]` is the canonical `C`-split of the common-subtree
    /// edge that edge `e` projects onto (`None` for dead edge ids). Splits
    /// are shared (`Arc`) across the many edges projecting onto the same
    /// common-subtree edge — building the map allocates one split per
    /// *Steiner* edge instead of one per tree edge.
    Projected(Vec<Option<Arc<Split>>>),
}

impl AttachMap {
    /// Looks up the projection of a live edge. Returns `None` in the
    /// `AllAdmissible` case (no projection exists / not needed).
    pub fn get(&self, e: EdgeId) -> Option<&Split> {
        match self {
            AttachMap::AllAdmissible => None,
            AttachMap::Projected(v) => v[e.index()].as_deref(),
        }
    }

    /// True if the map is the degenerate all-admissible case.
    pub fn all_admissible(&self) -> bool {
        matches!(self, AttachMap::AllAdmissible)
    }
}

/// Computes the attachment projection of `tree` w.r.t. the common taxon set
/// `c` (which must be a subset of `tree`'s leaf set).
pub fn attachment_map(tree: &Tree, c: &BitSet) -> AttachMap {
    debug_assert!(c.is_subset(tree.taxa()), "C must be common taxa");
    if c.count() < 2 {
        return AttachMap::AllAdmissible;
    }
    // Root at the C-leaf with the smallest taxon id (deterministic). The
    // subset assertion above guarantees the leaf exists; degrade to
    // all-admissible rather than panic if the contract is ever broken.
    let Some(root) = c.min_member().and_then(|m| tree.leaf(TaxonId(m as u32))) else {
        debug_assert!(false, "C-taxon missing from tree");
        return AttachMap::AllAdmissible;
    };
    let order = tree.preorder(root);

    // Bottom-up: C-taxa below each node's parent edge.
    let mut below: Vec<BitSet> = (0..tree.node_id_bound())
        .map(|_| BitSet::new(tree.universe()))
        .collect();
    for &(v, _) in &order {
        if let Some(t) = tree.taxon(v) {
            if c.contains(t.index()) {
                below[v.index()].insert(t.index());
            }
        }
    }
    for &(v, pe) in order.iter().rev() {
        if let Some(pe) = pe {
            let parent = tree.opposite(pe, v);
            let child_set = below[v.index()].clone();
            below[parent.index()].union_with(&child_set);
        }
    }

    // Top-down: Steiner edges get their own split; hanging edges inherit
    // (and share) the split of the nearest ancestor Steiner edge.
    let mut map: Vec<Option<Arc<Split>>> = vec![None; tree.edge_id_bound()];
    let mut inherit: Vec<Option<Arc<Split>>> = vec![None; tree.node_id_bound()];
    for &(v, pe) in &order {
        let Some(pe) = pe else { continue };
        let parent = tree.opposite(pe, v);
        let split = if below[v.index()].is_empty() {
            // The root's child always carries `C \ {r}`, so every hanging
            // edge has a Steiner ancestor.
            let Some(inherited) = inherit[parent.index()].clone() else {
                debug_assert!(false, "hanging edge with no Steiner ancestor");
                continue;
            };
            inherited
        } else {
            Arc::new(Split::canonical(below[v.index()].clone(), c))
        };
        map[pe.index()] = Some(Arc::clone(&split));
        inherit[v.index()] = Some(split);
    }
    AttachMap::Projected(map)
}

/// For a constraint tree `T` and common taxa `c`, returns for each taxon in
/// `T`'s leaf set *outside* `c` the common-subtree edge (as a `C`-split) it
/// attaches to — the `b̂(t)` of the admissibility test. Output is indexed by
/// taxon id (`None` for taxa that are in `c`, absent, or when `|c| ≤ 1`).
pub fn missing_taxon_targets(tree: &Tree, c: &BitSet) -> Vec<Option<Split>> {
    let mut out: Vec<Option<Split>> = vec![None; tree.universe()];
    let map = attachment_map(tree, c);
    let AttachMap::Projected(map) = map else {
        return out;
    };
    for (leaf, taxon) in tree.leaves() {
        if c.contains(taxon.index()) {
            continue;
        }
        let pendant = tree.adjacent_edges(leaf)[0];
        out[taxon.index()] = map[pendant.index()].as_deref().cloned();
    }
    out
}

/// Identity of a common-subtree edge in the edge-indexed kernels.
///
/// With the tree rooted at the leaf of `r = min C`, every edge `e` has a
/// below-set `B(e)` of `C`-taxa on the side away from `r`, and `B(e)` is
/// exactly the canonical side of `e`'s split of `C` (the side without the
/// reference taxon). The key packs `(min B(e), |B(e)|)` as
/// `min << 32 | size`. It determines `B(e)` because the below-sets of a
/// rooted tree form a laminar family: two of them are nested or disjoint,
/// so two distinct below-sets with the same smallest member are nested and
/// differ in size. Taxon ids and leaf counts both fit in `u32` for every
/// universe the tree arena accepts, so the packing is exact.
///
/// Keys of *two* trees are comparable only when both trees induce the
/// same family, i.e. agree on `C`. The search keeps `A|C = T|C` for the
/// agile tree `A` and every constraint `T` from the root state on
/// ([`crate::StandProblem::conflicting_constraint`] checks it wherever a
/// state is built from outside the search), so `map[e] == b̂(t)` is one
/// integer compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CladeKey(u64);

impl CladeKey {
    /// Sentinel for "no key" (dead edge slot, taxon without a target).
    /// Never a real key: every below-set of a projected edge is non-empty.
    pub const NONE: CladeKey = CladeKey(0);

    #[inline]
    fn new(min: u32, size: u32) -> CladeKey {
        CladeKey((u64::from(min) << 32) | u64::from(size))
    }

    /// True if this is the [`CladeKey::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == CladeKey::NONE
    }
}

/// Reusable buffers for [`project_edges_into`] / [`project_targets_into`].
///
/// One instance lives inside the edge-indexed kernel and is threaded
/// through every rebuild, so the steady-state explore loop performs no
/// heap allocation: the per-node key halves and the traversal buffers are
/// recycled across rebuilds.
#[derive(Default)]
pub struct ProjectionScratch {
    /// Smallest `C`-taxon of each node's below-set (inherited for hanging
    /// nodes once [`clade_keys`] returns).
    min: Vec<u32>,
    /// Size of each node's below-set (likewise inherited).
    size: Vec<u32>,
    order: Vec<(NodeId, Option<EdgeId>)>,
    stack: Vec<(NodeId, Option<EdgeId>)>,
}

impl ProjectionScratch {
    /// Creates empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        ProjectionScratch::default()
    }

    /// The key of the edge above non-root node `v` after [`clade_keys`].
    #[inline]
    fn key(&self, v: NodeId) -> CladeKey {
        CladeKey::new(self.min[v.index()], self.size[v.index()])
    }
}

/// Fills `scratch` so that [`ProjectionScratch::key`] gives, for every
/// non-root node `v` of `tree` rooted at the leaf of `min C`, the clade
/// key of the common-subtree edge that `v`'s parent edge projects onto.
/// Returns `false` for the degenerate `|C| ≤ 1` case (no common-subtree
/// edges).
fn clade_keys(tree: &Tree, c: &BitSet, scratch: &mut ProjectionScratch) -> bool {
    debug_assert!(c.is_subset(tree.taxa()), "C must be common taxa");
    if c.count() < 2 {
        return false;
    }
    // Root at the C-leaf with the smallest taxon id (deterministic). The
    // subset assertion above guarantees the leaf exists; degrade to
    // all-admissible rather than panic if the contract is ever broken.
    let Some(root) = c.min_member().and_then(|m| tree.leaf(TaxonId(m as u32))) else {
        debug_assert!(false, "C-taxon missing from tree");
        return false;
    };
    tree.preorder_into(root, &mut scratch.stack, &mut scratch.order);
    let nodes = tree.node_id_bound();
    let ProjectionScratch {
        min, size, order, ..
    } = scratch;
    min.clear();
    min.resize(nodes, u32::MAX);
    size.clear();
    size.resize(nodes, 0);

    // Bottom-up: in reverse preorder every node follows its children, so
    // a leaf adds itself and then each node folds into its parent.
    for &(v, pe) in order.iter().rev() {
        let i = v.index();
        if let Some(t) = tree.taxon(v) {
            if c.contains(t.index()) {
                min[i] = min[i].min(t.0);
                size[i] += 1;
            }
        }
        if let Some(pe) = pe {
            let p = tree.opposite(pe, v).index();
            min[p] = min[p].min(min[i]);
            size[p] += size[i];
        }
    }

    // Top-down: a node with an empty below-set hangs off the Steiner tree
    // and inherits its parent's key, i.e. that of the nearest Steiner edge
    // above it (the root's child always carries `C \ {r}`).
    for &(v, pe) in order.iter() {
        let Some(pe) = pe else { continue };
        let i = v.index();
        if size[i] == 0 {
            let p = tree.opposite(pe, v).index();
            debug_assert!(size[p] != 0, "hanging edge with no Steiner ancestor");
            min[i] = min[p];
            size[i] = size[p];
        }
    }
    true
}

/// Edge-indexed variant of [`attachment_map`]: writes the [`CladeKey`] of
/// the common-subtree edge every live edge of `tree` projects onto into
/// `map` (indexed by `EdgeId`, dead slots are [`CladeKey::NONE`]). Returns
/// `false` for the degenerate `|C| ≤ 1` case (every branch admissible;
/// `map` contents are then meaningless).
pub fn project_edges_into(
    tree: &Tree,
    c: &BitSet,
    scratch: &mut ProjectionScratch,
    map: &mut Vec<CladeKey>,
) -> bool {
    if !clade_keys(tree, c, scratch) {
        return false;
    }
    map.clear();
    map.resize(tree.edge_id_bound(), CladeKey::NONE);
    for &(v, pe) in &scratch.order {
        if let Some(pe) = pe {
            map[pe.index()] = scratch.key(v);
        }
    }
    true
}

/// Edge-indexed variant of [`missing_taxon_targets`]: fills `out` (indexed
/// by taxon id over the whole universe) with the [`CladeKey`] of the
/// common-subtree edge each taxon of `tree`'s leaf set outside `c` must
/// subdivide — [`CladeKey::NONE`] for taxa in `c`, absent taxa, or when
/// `|C| ≤ 1` (in which case `false` is returned).
pub fn project_targets_into(
    tree: &Tree,
    c: &BitSet,
    scratch: &mut ProjectionScratch,
    out: &mut Vec<CladeKey>,
) -> bool {
    out.clear();
    out.resize(tree.universe(), CladeKey::NONE);
    if !clade_keys(tree, c, scratch) {
        return false;
    }
    for (leaf, taxon) in tree.leaves() {
        if !c.contains(taxon.index()) {
            out[taxon.index()] = scratch.key(leaf);
        }
    }
    true
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use phylo::newick::parse_forest;
    use phylo::ops::{displays, restrict};
    use phylo::split::topo_eq;

    /// Reference implementation of admissibility by definition: insert `t`
    /// on edge `e` of `agile` and check `A'|(C∪{t}) = T|(C∪{t})`.
    fn admissible_by_definition(agile: &Tree, constraint: &Tree, t: TaxonId, e: EdgeId) -> bool {
        let mut a = agile.clone();
        a.insert_leaf_on_edge(t, e);
        let mut cu = agile.taxa().intersection(constraint.taxa());
        cu.insert(t.index());
        topo_eq(&restrict(&a, &cu), &restrict(constraint, &cu))
    }

    /// Asserts that clade keys name the same common-subtree edges as the
    /// Arc machinery's splits. Each entry pairs the key of an edge or a
    /// target with its split: an entry has a key iff it has a split, and
    /// two entries share a key iff they share a split.
    pub(crate) fn assert_keys_match_splits(entries: &[(CladeKey, Option<&Split>)], ctx: &str) {
        for (i, &(key, split)) in entries.iter().enumerate() {
            assert_eq!(key.is_none(), split.is_none(), "{ctx}: entry {i}");
            for (j, &(key2, split2)) in entries.iter().enumerate().skip(i + 1) {
                assert_eq!(key == key2, split == split2, "{ctx}: entries {i} and {j}");
            }
        }
    }

    /// Admissibility via the projection machinery.
    fn admissible_by_projection(agile: &Tree, constraint: &Tree, t: TaxonId, e: EdgeId) -> bool {
        let c = agile.taxa().intersection(constraint.taxa());
        let targets = missing_taxon_targets(constraint, &c);
        let Some(target) = &targets[t.index()] else {
            return true; // |C| <= 1 → every edge admissible
        };
        let map = attachment_map(agile, &c);
        map.get(e) == Some(target)
    }

    #[test]
    fn projection_matches_definition_small() {
        // Agile on {A,B,C,D}; constraint on {A,B,C,E}; insert E.
        let (taxa, trees) = parse_forest(["((A,B),(C,D));", "((A,B),(C,E));"]).unwrap();
        let agile = &trees[0];
        let cons = &trees[1];
        let e_id = taxa.get("E").unwrap();
        let mut n_adm = 0;
        for e in agile.edges() {
            let d = admissible_by_definition(agile, cons, e_id, e);
            let p = admissible_by_projection(agile, cons, e_id, e);
            assert_eq!(d, p, "mismatch on edge {e:?}");
            n_adm += usize::from(d);
        }
        // E must end up sister to C among {A,B,C}: admissible are C's
        // pendant edge, the internal edge, and D's pendant (D is not in the
        // constraint, so (C,(D,E)) also restricts to (C,E)).
        assert_eq!(n_adm, 3);
    }

    #[test]
    fn hanging_subtree_edges_inherit() {
        // Agile has a whole subtree with no common taxa; all of its edges
        // plus the path edges they hang off must be admissible together.
        let (taxa, trees) = parse_forest([
            "((A,B),((X,Y),(C,D)));", // agile; X,Y not in constraint
            "((A,B),(C,E));",         // constraint: E next to C
        ])
        .unwrap();
        let agile = &trees[0];
        let cons = &trees[1];
        let e_id = taxa.get("E").unwrap();
        for e in agile.edges() {
            assert_eq!(
                admissible_by_definition(agile, cons, e_id, e),
                admissible_by_projection(agile, cons, e_id, e),
                "mismatch on edge {e:?}"
            );
        }
    }

    #[test]
    fn all_admissible_when_overlap_tiny() {
        let (taxa, trees) = parse_forest(["((A,B),(C,D));", "((E,F),(G,A));"]).unwrap();
        let agile = &trees[0];
        let cons = &trees[1];
        // Common taxa = {A} → |C| = 1 → every edge admissible for E/F/G.
        let c = agile.taxa().intersection(cons.taxa());
        assert_eq!(c.count(), 1);
        assert!(attachment_map(agile, &c).all_admissible());
        let e_id = taxa.get("E").unwrap();
        for e in agile.edges() {
            assert!(admissible_by_projection(agile, cons, e_id, e));
        }
    }

    #[test]
    fn projection_randomized_against_definition() {
        use phylo::generate::{random_tree, ShapeModel};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let universe = 12usize;
        for trial in 0..40 {
            // Source tree on all taxa; agile = restriction to a subset W;
            // constraint = restriction to a subset Y; test every missing
            // taxon of Y on every agile edge.
            let ids: Vec<TaxonId> = (0..universe as u32).map(TaxonId).collect();
            let source = random_tree(universe, &ids, ShapeModel::Uniform, &mut rng);
            use rand::seq::SliceRandom;
            use rand::Rng;
            let mut shuffled = ids.clone();
            shuffled.shuffle(&mut rng);
            let w_size = rng.gen_range(3..=8);
            let y_size = rng.gen_range(4..=9);
            let w = BitSet::from_iter(universe, shuffled[..w_size].iter().map(|t| t.index()));
            shuffled.shuffle(&mut rng);
            let y = BitSet::from_iter(universe, shuffled[..y_size].iter().map(|t| t.index()));
            let agile = restrict(&source, &w);
            let cons = restrict(&source, &y);
            debug_assert!(displays(&source, &agile));
            for t in y.difference(&w).iter() {
                let t = TaxonId(t as u32);
                for e in agile.edges() {
                    assert_eq!(
                        admissible_by_definition(&agile, &cons, t, e),
                        admissible_by_projection(&agile, &cons, t, e),
                        "trial {trial}: taxon {t:?} edge {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn edge_indexed_projection_matches_arc_machinery() {
        use phylo::generate::{random_tree, ShapeModel};
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let universe = 12usize;
        let mut scratch = ProjectionScratch::new();
        let (mut map, mut targets) = (Vec::new(), Vec::new());
        for trial in 0..40 {
            // Agile tree and constraint are restrictions of one source
            // tree, so they agree on their common taxa.
            let ids: Vec<TaxonId> = (0..universe as u32).map(TaxonId).collect();
            let source = random_tree(universe, &ids, ShapeModel::Uniform, &mut rng);
            let mut shuffled = ids.clone();
            shuffled.shuffle(&mut rng);
            let w_size = rng.gen_range(3..=8);
            let y_size = rng.gen_range(4..=9);
            let w = BitSet::from_iter(universe, shuffled[..w_size].iter().map(|t| t.index()));
            shuffled.shuffle(&mut rng);
            let y = BitSet::from_iter(universe, shuffled[..y_size].iter().map(|t| t.index()));
            let agile = restrict(&source, &w);
            let cons = restrict(&source, &y);
            let c = agile.taxa().intersection(cons.taxa());

            let reference = attachment_map(&agile, &c);
            let projected = project_edges_into(&agile, &c, &mut scratch, &mut map);
            assert_eq!(projected, !reference.all_admissible(), "trial {trial}");
            let ref_targets = missing_taxon_targets(&cons, &c);
            let has_targets = project_targets_into(&cons, &c, &mut scratch, &mut targets);
            assert_eq!(has_targets, projected, "trial {trial}");
            let target_entries = (0..universe).map(|t| (targets[t], ref_targets[t].as_ref()));
            if projected {
                let entries: Vec<_> = agile
                    .edges()
                    .map(|e| (map[e.index()], reference.get(e)))
                    .chain(target_entries)
                    .collect();
                assert_keys_match_splits(&entries, &format!("trial {trial}"));
            } else {
                for (t, (key, split)) in target_entries.enumerate() {
                    assert!(key.is_none() && split.is_none(), "trial {trial}, taxon {t}");
                }
            }
        }
    }

    #[test]
    fn targets_only_for_missing_taxa() {
        let (taxa, trees) = parse_forest(["((A,B),(C,D));", "((A,B),(C,E));"]).unwrap();
        let c = trees[0].taxa().intersection(trees[1].taxa());
        let targets = missing_taxon_targets(&trees[1], &c);
        assert!(targets[taxa.get("A").unwrap().index()].is_none());
        assert!(targets[taxa.get("E").unwrap().index()].is_some());
        assert!(targets[taxa.get("D").unwrap().index()].is_none()); // not in constraint
    }
}
