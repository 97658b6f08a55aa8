//! Splits (bipartitions) of taxon sets induced by tree edges.
//!
//! Removing an edge from an unrooted tree bipartitions its leaf set; the
//! collection of non-trivial splits determines the topology uniquely
//! (Buneman). We canonicalize a split as the side **not** containing the
//! smallest taxon of the tree's leaf set, so splits compare and hash cheaply.

use crate::bitset::BitSet;
use crate::tree::{EdgeId, Tree};

/// A canonical split of a taxon set: the stored side excludes the reference
/// (smallest) taxon of the leaf set it was computed over.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Split {
    side: BitSet,
}

impl Split {
    /// Canonicalizes `side` as a split of `taxa` (the full leaf set).
    ///
    /// Panics in debug builds if `side` is not a proper subset relationship
    /// candidate (same universe required).
    pub fn canonical(mut side: BitSet, taxa: &BitSet) -> Split {
        debug_assert_eq!(side.universe(), taxa.universe());
        debug_assert!(side.is_subset(taxa));
        if let Some(reference) = taxa.min_member() {
            if side.contains(reference) {
                // Flip to the complementary side within `taxa`.
                let mut flipped = taxa.clone();
                flipped.difference_with(&side);
                side = flipped;
            }
        }
        Split { side }
    }

    /// The canonical side (never contains the reference taxon).
    pub fn side(&self) -> &BitSet {
        &self.side
    }

    /// Size of the canonical side.
    pub fn side_count(&self) -> usize {
        self.side.count()
    }

    /// True if this split separates fewer than two taxa on one side, i.e.
    /// it is induced by a pendant edge and carries no topological signal.
    /// `taxa` must be the leaf set the split was canonicalized over.
    pub fn is_trivial(&self, taxa: &BitSet) -> bool {
        let k = self.side.count();
        k <= 1 || k + 1 >= taxa.count()
    }

    /// Split compatibility: two splits of the same taxon set are compatible
    /// iff at least one of the four side intersections is empty. A set of
    /// pairwise compatible splits is realizable by a single tree.
    pub fn compatible_with(&self, other: &Split, taxa: &BitSet) -> bool {
        let a = &self.side;
        let b = &other.side;
        if a.is_disjoint(b) {
            return true; // A1 ∩ B1 = ∅
        }
        if a.is_subset(b) || b.is_subset(a) {
            return true; // A1 ∩ B2 = ∅ or A2 ∩ B1 = ∅
        }
        // A2 ∩ B2 = ∅ ⇔ A1 ∪ B1 ⊇ taxa.
        let mut union = a.union(b);
        union.intersect_with(taxa);
        union == *taxa
    }
}

/// Computes `(edge, side)` for every live edge of `tree`: the side is the
/// leaf set on the `b`-endpoint side... more precisely the side *away* from
/// the traversal root (an arbitrary but deterministic leaf).
///
/// The returned sides are raw (not canonicalized); pair with
/// [`Split::canonical`] as needed.
pub fn edge_sides(tree: &Tree) -> Vec<(EdgeId, BitSet)> {
    let mut out = Vec::with_capacity(tree.edge_count());
    let Some(root) = tree.any_leaf() else {
        return out;
    };
    let order = tree.preorder(root);
    // Fold taxa bottom-up: in reverse preorder every node appears after all
    // of its children, so one pass accumulates each subtree's taxa and
    // records the side hanging below each parent edge.
    let mut sides: Vec<Option<BitSet>> = vec![None; tree.edge_id_bound()];
    let mut acc: Vec<BitSet> = (0..tree.node_id_bound())
        .map(|_| BitSet::new(tree.universe()))
        .collect();
    for &(v, _) in &order {
        if let Some(t) = tree.taxon(v) {
            acc[v.index()].insert(t.index());
        }
    }
    for &(v, pe) in order.iter().rev() {
        if let Some(pe) = pe {
            let parent = tree.opposite(pe, v);
            let child_set = acc[v.index()].clone();
            acc[parent.index()].union_with(&child_set);
            sides[pe.index()] = Some(child_set);
        }
    }
    for e in tree.edges() {
        let side = sides[e.index()]
            .take()
            .expect("edge not covered by traversal");
        out.push((e, side));
    }
    out
}

/// The set of canonical non-trivial splits of `tree` — its topological
/// fingerprint. Two trees on the same leaf set are isomorphic iff these
/// sets are equal.
pub fn nontrivial_splits(tree: &Tree) -> Vec<Split> {
    let taxa = tree.taxa();
    let mut v: Vec<Split> = edge_sides(tree)
        .into_iter()
        .map(|(_, side)| Split::canonical(side, taxa))
        .filter(|s| !s.is_trivial(taxa))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Topological equality of two unrooted trees: same leaf set and same
/// non-trivial split set.
pub fn topo_eq(a: &Tree, b: &Tree) -> bool {
    a.taxa() == b.taxa() && nontrivial_splits(a) == nontrivial_splits(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxa::TaxonId;

    fn t(i: u32) -> TaxonId {
        TaxonId(i)
    }

    /// Builds the quartet ((0,1),(2,3)) programmatically.
    fn quartet_01_23(universe: usize) -> Tree {
        let mut tree = Tree::three_leaf(universe, t(0), t(1), t(2));
        // Insert taxon 3 on the pendant edge of taxon 2 → (0,1)|(2,3).
        let leaf2 = tree.leaf(t(2)).unwrap();
        let e = tree.adjacent_edges(leaf2)[0];
        tree.insert_leaf_on_edge(t(3), e);
        tree
    }

    #[test]
    fn edge_sides_partition_taxa() {
        let tree = quartet_01_23(8);
        for (e, side) in edge_sides(&tree) {
            assert!(!side.is_empty(), "{e:?} has empty side");
            assert!(side.is_subset(tree.taxa()));
            assert!(side != *tree.taxa(), "{e:?} side covers all taxa");
        }
        assert_eq!(edge_sides(&tree).len(), tree.edge_count());
    }

    #[test]
    fn quartet_has_one_nontrivial_split() {
        let tree = quartet_01_23(8);
        let splits = nontrivial_splits(&tree);
        assert_eq!(splits.len(), 1);
        // Canonical side excludes taxon 0 → must be {2,3}.
        assert_eq!(splits[0].side(), &BitSet::from_iter(8, [2, 3]));
    }

    #[test]
    fn three_leaf_tree_has_no_nontrivial_splits() {
        let tree = Tree::three_leaf(4, t(0), t(1), t(2));
        assert!(nontrivial_splits(&tree).is_empty());
    }

    #[test]
    fn canonicalization_flips_reference_side() {
        let taxa = BitSet::from_iter(8, [0, 1, 2, 3]);
        let s1 = Split::canonical(BitSet::from_iter(8, [0, 1]), &taxa);
        let s2 = Split::canonical(BitSet::from_iter(8, [2, 3]), &taxa);
        assert_eq!(s1, s2);
        assert!(!s1.side().contains(0));
    }

    #[test]
    fn compatibility() {
        let taxa = BitSet::from_iter(8, [0, 1, 2, 3, 4]);
        let ab = Split::canonical(BitSet::from_iter(8, [1, 2]), &taxa);
        let cd = Split::canonical(BitSet::from_iter(8, [3, 4]), &taxa);
        let ac = Split::canonical(BitSet::from_iter(8, [1, 3]), &taxa);
        assert!(ab.compatible_with(&cd, &taxa));
        assert!(!ab.compatible_with(&ac, &taxa));
        // Nested splits are compatible.
        let abc = Split::canonical(BitSet::from_iter(8, [1, 2, 3]), &taxa);
        assert!(ab.compatible_with(&abc, &taxa));
    }

    #[test]
    fn topo_eq_distinguishes_quartets() {
        // ((0,1),(2,3)) vs ((0,2),(1,3))
        let q1 = quartet_01_23(8);
        let mut q2 = Tree::three_leaf(8, t(0), t(1), t(2));
        let leaf1 = q2.leaf(t(1)).unwrap();
        let e = q2.adjacent_edges(leaf1)[0];
        q2.insert_leaf_on_edge(t(3), e); // → (0,2)|(1,3)
        assert!(!topo_eq(&q1, &q2));
        assert!(topo_eq(&q1, &q1.clone()));
    }

    #[test]
    fn topo_eq_requires_same_taxa() {
        let a = Tree::three_leaf(8, t(0), t(1), t(2));
        let b = Tree::three_leaf(8, t(0), t(1), t(3));
        assert!(!topo_eq(&a, &b));
    }
}
