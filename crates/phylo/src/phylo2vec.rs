//! phylo2vec-style integer-vector encoding of binary unrooted trees.
//!
//! A binary unrooted tree on taxa `t0 < t1 < … < t_{n-1}` is written as the
//! integer vector of its *canonical insertion trace*: starting from the
//! unique tree on `{t0, t1}`, taxon `t_i` (`i ≥ 2`) is inserted on edge
//! `code[i-2]` of the partial tree, where edges are numbered in allocation
//! order (the order [`Tree::insert_leaf_on_edge`] assigns ids on a fresh
//! arena — a partial tree on `k` leaves has exactly the contiguous edge ids
//! `0 .. 2k-3`). The trace is unique, so `encode ∘ decode ≡ id` on codes
//! and `decode ∘ encode` reproduces the topology exactly.
//!
//! Properties the stand container relies on (per the phylo2vec paper):
//!
//! * **O(n) integers per tree** instead of an O(n·label) Newick string;
//! * element `code[i]` is bounded by `2i+1`, so varints stay at one byte
//!   for all but the deepest insertions;
//! * trees that share the insertion history of their first `k` taxa share
//!   the first `k-2` vector entries — sibling stand trees emitted by the
//!   depth-first search differ only in a short suffix, which the container
//!   exploits with prefix-delta compression;
//! * the vector is trivially hashable, giving a cheap cross-shard
//!   topology key.

use crate::taxa::TaxonId;
use crate::tree::{EdgeId, NodeId, Tree};

/// Errors from encoding or decoding a tree vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum P2vError {
    /// The tree is not binary unrooted (required for `n ≥ 3` leaves).
    NotBinary,
    /// `code` has the wrong length for the taxon list (`n-2` entries).
    LengthMismatch {
        /// Number of taxa supplied.
        taxa: usize,
        /// Number of code entries supplied.
        code: usize,
    },
    /// A code entry addresses an edge beyond the partial tree.
    OutOfRange {
        /// Index into the code vector.
        index: usize,
        /// The offending value.
        value: u32,
        /// Exclusive bound (`2·index + 1`).
        bound: u32,
    },
    /// The taxon list is not strictly ascending.
    TaxaNotSorted,
    /// A taxon id is outside the declared universe.
    TaxonOutOfUniverse {
        /// The offending taxon id.
        taxon: u32,
        /// The universe size.
        universe: usize,
    },
    /// An internal invariant failed (defensive; indicates a bug).
    Internal(&'static str),
}

impl std::fmt::Display for P2vError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            P2vError::NotBinary => write!(f, "tree is not binary unrooted"),
            P2vError::LengthMismatch { taxa, code } => {
                write!(
                    f,
                    "{taxa} taxa need {} code entries, got {code}",
                    taxa.saturating_sub(2)
                )
            }
            P2vError::OutOfRange {
                index,
                value,
                bound,
            } => write!(f, "code[{index}] = {value} out of range (< {bound})"),
            P2vError::TaxaNotSorted => write!(f, "taxon list is not strictly ascending"),
            P2vError::TaxonOutOfUniverse { taxon, universe } => {
                write!(f, "taxon {taxon} outside universe of {universe}")
            }
            P2vError::Internal(m) => write!(f, "internal phylo2vec error: {m}"),
        }
    }
}

impl std::error::Error for P2vError {}

/// A tree as its present-taxa list (strictly ascending) plus the canonical
/// insertion-trace code (`taxa.len().saturating_sub(2)` entries).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TreeVector {
    /// Taxa present in the tree, ascending.
    pub taxa: Vec<TaxonId>,
    /// Edge index chosen for each taxon from the third onward.
    pub code: Vec<u32>,
}

impl TreeVector {
    /// Rebuilds the tree over a universe of `universe` taxa.
    pub fn decode(&self, universe: usize) -> Result<Tree, P2vError> {
        decode(universe, &self.taxa, &self.code)
    }
}

/// Encodes one tree (allocates fresh scratch; use [`Encoder`] when encoding
/// many trees in a row).
pub fn encode(tree: &Tree) -> Result<TreeVector, P2vError> {
    Encoder::new().encode(tree)
}

/// Rebuilds a tree from its taxon list and insertion-trace code.
///
/// `taxa` must be strictly ascending and within `universe`; `code` must
/// have `taxa.len().saturating_sub(2)` entries with `code[i] < 2i + 1`.
pub fn decode(universe: usize, taxa: &[TaxonId], code: &[u32]) -> Result<Tree, P2vError> {
    for w in taxa.windows(2) {
        if w[0] >= w[1] {
            return Err(P2vError::TaxaNotSorted);
        }
    }
    if let Some(t) = taxa.iter().find(|t| t.index() >= universe) {
        return Err(P2vError::TaxonOutOfUniverse {
            taxon: t.0,
            universe,
        });
    }
    let n = taxa.len();
    if code.len() != n.saturating_sub(2) {
        return Err(P2vError::LengthMismatch {
            taxa: n,
            code: code.len(),
        });
    }
    match n {
        0 => return Ok(Tree::new(universe)),
        1 => {
            let mut t = Tree::new(universe);
            t.add_node(Some(taxa[0]));
            return Ok(t);
        }
        _ => {}
    }
    let mut tree = Tree::two_leaf(universe, taxa[0], taxa[1]);
    for (j, (&c, &t)) in code.iter().zip(taxa.iter().skip(2)).enumerate() {
        // The partial tree has j + 2 leaves and therefore 2(j+2) - 3 =
        // 2j + 1 edges, with contiguous ids (fresh arena, no removals).
        // arith: node/edge ids are u32-backed, so a decodable tree has
        // fewer than `u32::MAX / 2` leaves; the assert pins the cast.
        debug_assert!(j <= (u32::MAX as usize - 1) / 2);
        let bound = 2 * j as u32 + 1;
        if c >= bound {
            return Err(P2vError::OutOfRange {
                index: j,
                value: c,
                bound,
            });
        }
        tree.insert_leaf_on_edge(t, EdgeId(c));
    }
    Ok(tree)
}

/// Per-node state of the encoder's replay, indexed by node id.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Smallest taxon rank below the node (the tree rooted at `t0`'s leaf).
    min: u32,
    /// Rank whose canonical insertion created the node: the larger of its
    /// two children's `min`. 0 for leaves (every creator is at least 2).
    creator: u32,
    /// First node under this one on its min-child chain whose creator is
    /// smaller: the lower end of the edge `creator` was inserted on.
    below: u32,
    /// Canonical id of the edge above the node in the partial tree the
    /// replay has reached.
    top: u32,
}

/// Reusable-scratch encoder: keeps its per-node buffers across
/// [`Encoder::encode`] calls (the stand container encodes every emitted
/// tree on the worker that found it).
#[derive(Default)]
pub struct Encoder {
    /// Rank of each present taxon, indexed by taxon id.
    rank: Vec<u32>,
    /// Replay state, indexed by node id.
    slots: Vec<Slot>,
    /// `created[i]`: the internal node rank `i` created (`i >= 2`).
    created: Vec<u32>,
    /// Preorder from `t0`'s leaf: `(node, edge to its parent)`.
    order: Vec<(NodeId, Option<EdgeId>)>,
    /// DFS scratch for the preorder.
    stack: Vec<(NodeId, Option<EdgeId>)>,
}

/// `created` entry of a rank no node has claimed yet.
const UNCLAIMED: u32 = u32::MAX;

impl Encoder {
    /// A fresh encoder (buffers grow on first use).
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Encodes `tree` into its canonical [`TreeVector`] in `O(n)`.
    ///
    /// Rooted at `t0`'s leaf, the internal node that the canonical
    /// insertion of `t_i` created is the one whose two subtrees have
    /// minimum ranks `< i` and exactly `i`, and the edge `t_i` was
    /// inserted on ran from that node's parent down to `below`: the first
    /// node on its min-child chain that existed before `t_i`. Replaying
    /// the insertions in rank order with [`Tree::insert_leaf_on_edge`]'s
    /// id rule (the subdivided edge keeps its id on the `t0` side, the far
    /// half gets `2i-3`, the pendant `2i-2`) then reads each code entry
    /// off the edge above `below`.
    pub fn encode(&mut self, tree: &Tree) -> Result<TreeVector, P2vError> {
        // arith: taxon ids originate from the universe's u32-backed
        // `TaxonId`s, so the round-trip through `usize` cannot truncate.
        let taxa: Vec<TaxonId> = tree.taxa().iter().map(|t| TaxonId(t as u32)).collect();
        let n = taxa.len();
        if n <= 2 {
            return Ok(TreeVector {
                taxa,
                code: Vec::new(),
            });
        }
        if !tree.is_binary_unrooted() {
            return Err(P2vError::NotBinary);
        }
        if self.rank.len() < tree.universe() {
            self.rank.resize(tree.universe(), 0);
        }
        for (i, t) in taxa.iter().enumerate() {
            // arith: a binary tree on n leaves has 2n-2 nodes with u32 ids,
            // so every rank (and `2i-2` below) fits in a u32.
            self.rank[t.index()] = i as u32;
        }
        let leaf = |t: TaxonId| {
            tree.leaf(t)
                .ok_or(P2vError::Internal("present taxon has no leaf"))
        };
        // The walk is bounded by the live node count, so a cyclic or
        // disconnected arena shows as a wrong length instead of a hang.
        tree.preorder_into(leaf(taxa[0])?, &mut self.stack, &mut self.order);
        if self.order.len() != tree.node_count() {
            return Err(P2vError::Internal("tree is cyclic or disconnected"));
        }

        // Bottom-up: reverse preorder visits children before parents.
        if self.slots.len() < tree.node_id_bound() {
            self.slots.resize(tree.node_id_bound(), Slot::default());
        }
        self.created.clear();
        self.created.resize(n, UNCLAIMED);
        for &(v, up) in self.order.iter().rev() {
            if let Some(t) = tree.taxon(v) {
                self.slots[v.index()] = Slot {
                    min: self.rank[t.index()],
                    creator: 0,
                    below: v.0,
                    top: 0,
                };
                continue;
            }
            let mut kids = tree
                .adjacent_edges(v)
                .iter()
                .filter(|&&e| Some(e) != up)
                .map(|&e| tree.opposite(e, v));
            let (Some(a), Some(b)) = (kids.next(), kids.next()) else {
                return Err(P2vError::Internal("internal node without two children"));
            };
            let (ma, mb) = (self.slots[a.index()].min, self.slots[b.index()].min);
            let (min_child, min, creator) = if ma < mb { (a, ma, mb) } else { (b, mb, ma) };
            // Pointer-jump down the min-child chain: a node with a larger
            // creator was inserted on the edge above this node's `below`
            // later, and so was everything between it and its own `below`.
            // Each chain is jumped over once, so the whole pass is O(n).
            let mut w = min_child.0;
            while self.slots[w as usize].creator > creator {
                w = self.slots[w as usize].below;
            }
            self.slots[v.index()] = Slot {
                min,
                creator,
                below: w,
                top: 0,
            };
            match self.created.get_mut(creator as usize) {
                Some(c) if *c == UNCLAIMED => *c = v.0,
                _ => return Err(P2vError::Internal("two nodes claim one insertion")),
            }
        }

        // Replay the canonical insertions on the `top` labels.
        self.slots[leaf(taxa[1])?.index()].top = 0;
        let mut code = Vec::with_capacity(n - 2);
        for (i, &t) in taxa.iter().enumerate().skip(2) {
            let v = self.created[i];
            if v == UNCLAIMED {
                return Err(P2vError::Internal("no node for an insertion"));
            }
            let u = self.slots[v as usize].below as usize;
            let edge = self.slots[u].top;
            code.push(edge);
            // arith: `i < n`, and 2n-3 < 2^32 (see the rank loop above).
            let far_half = 2 * i as u32 - 3;
            self.slots[v as usize].top = edge;
            self.slots[u].top = far_half;
            // arith: the pendant id is one past the far half, below 2n-3.
            self.slots[leaf(t)?.index()].top = far_half + 1;
        }
        Ok(TreeVector { taxa, code })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick::{parse_forest, to_newick};

    fn roundtrip(nwk: &str) {
        let (taxa, trees) = parse_forest([nwk]).unwrap();
        let tv = encode(&trees[0]).unwrap();
        let back = tv.decode(taxa.len()).unwrap();
        assert_eq!(
            to_newick(&back, &taxa),
            to_newick(&trees[0], &taxa),
            "code {:?}",
            tv.code
        );
    }

    #[test]
    fn tiny_trees_roundtrip() {
        roundtrip("(A,B);");
        roundtrip("((A,B),C);");
        roundtrip("((A,B),(C,D));");
        roundtrip("((A,C),(B,D));");
        roundtrip("((A,D),(B,C));");
    }

    #[test]
    fn caterpillar_and_balanced_roundtrip() {
        roundtrip("(((((A,B),C),D),E),F);");
        roundtrip("(((A,B),(C,D)),((E,F),(G,H)));");
    }

    #[test]
    fn degenerate_sizes() {
        let tv = encode(&Tree::new(5)).unwrap();
        assert!(tv.taxa.is_empty() && tv.code.is_empty());
        assert_eq!(tv.decode(5).unwrap().leaf_count(), 0);

        let mut one = Tree::new(5);
        one.add_node(Some(TaxonId(3)));
        let tv = encode(&one).unwrap();
        assert_eq!(tv.taxa, vec![TaxonId(3)]);
        assert!(tv.decode(5).unwrap().leaf(TaxonId(3)).is_some());
    }

    #[test]
    fn third_taxon_code_is_always_zero() {
        let (_taxa, trees) = parse_forest(["((A,B),C);"]).unwrap();
        let tv = encode(&trees[0]).unwrap();
        assert_eq!(tv.code, vec![0]);
    }

    #[test]
    fn code_enumerates_distinct_topologies() {
        // The 15 codes on 5 leaves (1 * 1 * 3 * 5) are exactly the 15
        // unrooted binary topologies: decode each, re-encode, and the code
        // must come back unchanged (bijectivity on the code side).
        let taxa: Vec<TaxonId> = (0..5).map(TaxonId).collect();
        let mut seen = std::collections::HashSet::new();
        for c1 in 0..3u32 {
            for c2 in 0..5u32 {
                let code = vec![0, c1, c2];
                let tree = decode(5, &taxa, &code).unwrap();
                let tv = Encoder::new().encode(&tree).unwrap();
                assert_eq!(tv.code, code);
                seen.insert(tv.code);
            }
        }
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn decode_rejects_bad_input() {
        let taxa: Vec<TaxonId> = (0..4).map(TaxonId).collect();
        assert!(matches!(
            decode(4, &taxa, &[0]),
            Err(P2vError::LengthMismatch { .. })
        ));
        assert!(matches!(
            decode(4, &taxa, &[0, 3]),
            Err(P2vError::OutOfRange { .. })
        ));
        assert!(matches!(
            decode(4, &[TaxonId(1), TaxonId(0)], &[]),
            Err(P2vError::TaxaNotSorted)
        ));
        assert!(matches!(
            decode(2, &taxa, &[0, 0]),
            Err(P2vError::TaxonOutOfUniverse { .. })
        ));
        assert!(matches!(
            decode(4, &taxa, &[1, 0]),
            Err(P2vError::OutOfRange { .. })
        ));
    }

    #[test]
    fn encoder_reuse_matches_fresh() {
        let mut enc = Encoder::new();
        let inputs = [
            "((A,B),(C,D));",
            "(((((A,B),C),D),E),F);",
            "((A,E),(B,(C,D)));",
        ];
        for nwk in inputs {
            let (taxa, trees) = parse_forest([nwk]).unwrap();
            let reused = enc.encode(&trees[0]).unwrap();
            let fresh = encode(&trees[0]).unwrap();
            assert_eq!(reused, fresh);
            let back = reused.decode(taxa.len()).unwrap();
            assert_eq!(to_newick(&back, &taxa), to_newick(&trees[0], &taxa));
        }
    }

    #[test]
    fn long_caterpillar_roundtrips_in_linear_time() {
        // t0 - v2 - ... - v_{n-1} - t1, each t_i inserted on t1's pendant
        // edge: every min-child chain runs down to t1, so a descent that
        // walks it node by node without the `below` links is quadratic.
        let n = 100_000u32;
        let mut tree = Tree::two_leaf(n as usize, TaxonId(0), TaxonId(1));
        for i in 2..n {
            let leaf = tree.leaf(TaxonId(1)).unwrap();
            let edge = tree.adjacent_edges(leaf)[0];
            tree.insert_leaf_on_edge(TaxonId(i), edge);
        }
        let tv = encode(&tree).unwrap();
        let want: Vec<u32> = (2..n).map(|i| if i == 2 { 0 } else { 2 * i - 5 }).collect();
        assert!(tv.code == want, "caterpillar code differs");
        // The tree was built by canonical insertions, so decoding must
        // rebuild its arena slot for slot.
        assert!(tv.decode(n as usize).unwrap().dump_arena() == tree.dump_arena());
    }

    #[test]
    fn cyclic_or_disconnected_arenas_are_internal_errors() {
        let t = TaxonId;
        // Three internal nodes in a ring, one leaf each: every degree is
        // binary, but a walk from the t0 leaf never ends.
        let mut ring = Tree::new(3);
        let hubs: Vec<NodeId> = (0..3).map(|_| ring.add_node(None)).collect();
        for i in 0..3 {
            ring.add_edge(hubs[i], hubs[(i + 1) % 3]);
            let leaf = ring.add_node(Some(t(i as u32)));
            ring.add_edge(hubs[i], leaf);
        }
        assert!(ring.is_binary_unrooted());
        assert!(matches!(encode(&ring), Err(P2vError::Internal(_))));
        // Two disjoint stars: binary degrees, half the nodes unreachable.
        let mut split = Tree::new(6);
        for star in [[0, 1, 2], [3, 4, 5]] {
            let hub = split.add_node(None);
            for x in star {
                let leaf = split.add_node(Some(t(x)));
                split.add_edge(hub, leaf);
            }
        }
        assert!(split.is_binary_unrooted());
        assert!(matches!(encode(&split), Err(P2vError::Internal(_))));
    }

    #[test]
    fn random_trees_roundtrip() {
        use crate::generate::{random_tree_on_n, ShapeModel};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let taxa = crate::taxa::TaxonSet::with_synthetic(40);
        let mut enc = Encoder::new();
        for n in [3usize, 4, 7, 13, 25, 40] {
            for _ in 0..8 {
                let t = random_tree_on_n(n, ShapeModel::Yule, &mut rng);
                let tv = enc.encode(&t).unwrap();
                assert_eq!(tv.taxa.len(), n);
                assert_eq!(tv.code.len(), n - 2);
                let back = tv.decode(t.universe()).unwrap();
                assert_eq!(to_newick(&back, &taxa), to_newick(&t, &taxa));
            }
        }
    }
}
