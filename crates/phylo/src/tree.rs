//! Unrooted phylogenetic trees backed by an arena with undo-safe edits.
//!
//! The Gentrius search inserts and removes taxa millions of times and — in
//! the parallel version — ships *paths* (sequences of `(taxon, edge)`
//! insertions) between threads that each own a private copy of the tree.
//! For a path recorded by one thread to be replayable on another thread's
//! copy, node and edge identifiers must be a deterministic function of the
//! edit history. This arena guarantees that by:
//!
//! * allocating ids monotonically and recycling freed ids **LIFO**, and
//! * making [`Tree::remove_insertion`] the *exact* inverse of
//!   [`Tree::insert_leaf_on_edge`] — including adjacency-list order and the
//!   free lists — so that backtracking restores the arena bit-for-bit.
//!
//! Trees are unrooted; edges are undirected pairs of nodes. Leaves carry a
//! [`TaxonId`] from a fixed universe shared by all trees of an analysis.

use crate::bitset::BitSet;
use crate::taxa::TaxonId;
use std::fmt;

/// Identifier of a node within one [`Tree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge (branch) within one [`Tree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug)]
struct Node {
    alive: bool,
    taxon: Option<TaxonId>,
    /// Incident edges. Order is part of the deterministic state.
    adj: Vec<EdgeId>,
}

impl Clone for Node {
    fn clone(&self) -> Self {
        Node {
            alive: self.alive,
            taxon: self.taxon,
            adj: self.adj.clone(),
        }
    }

    /// Reuses `self`'s adjacency buffer when its capacity suffices.
    fn clone_from(&mut self, source: &Self) {
        self.alive = source.alive;
        self.taxon = source.taxon;
        self.adj.clone_from(&source.adj);
    }
}

#[derive(Clone, Copy, Debug)]
struct Edge {
    alive: bool,
    a: NodeId,
    b: NodeId,
}

/// Record returned by [`Tree::insert_leaf_on_edge`]; feeding it back to
/// [`Tree::remove_insertion`] undoes the insertion exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insertion {
    /// The inserted taxon.
    pub taxon: TaxonId,
    /// The new leaf node carrying `taxon`.
    pub leaf: NodeId,
    /// The new internal node subdividing the target edge.
    pub mid: NodeId,
    /// The edge that was subdivided (keeps its id, now ends at `mid`).
    pub edge: EdgeId,
    /// New edge `mid – detached` (the far half of the subdivided edge).
    pub far_half: EdgeId,
    /// New pendant edge `mid – leaf`.
    pub pendant: EdgeId,
    /// The endpoint of `edge` that was detached onto `far_half`.
    pub detached: NodeId,
}

/// Errors reported by [`Tree::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// An edge refers to a dead node, or adjacency lists are inconsistent.
    Inconsistent(String),
    /// The tree is not connected or contains a cycle.
    NotATree(String),
    /// A taxon labels more than one leaf, or an internal node carries a taxon.
    BadLabels(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Inconsistent(m) => write!(f, "inconsistent arena: {m}"),
            TreeError::NotATree(m) => write!(f, "not a tree: {m}"),
            TreeError::BadLabels(m) => write!(f, "bad labels: {m}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// One node slot of an [`ArenaDump`] (dead slots have empty adjacency and
/// no taxon).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DumpNode {
    /// Whether the slot holds a live node.
    pub alive: bool,
    /// The labelling taxon id, for live leaves.
    pub taxon: Option<u32>,
    /// Incident edge ids in adjacency order.
    pub adj: Vec<u32>,
}

/// One edge slot of an [`ArenaDump`] (dead slots keep their stale
/// endpoints; `alloc_edge` overwrites the whole slot on reuse, so
/// they are never read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DumpEdge {
    /// Whether the slot holds a live edge.
    pub alive: bool,
    /// First endpoint node id.
    pub a: u32,
    /// Second endpoint node id.
    pub b: u32,
}

/// A plain-data image of a [`Tree`] arena — every slot plus the free lists
/// — produced by [`Tree::dump_arena`] and restored (with validation) by
/// [`Tree::from_arena_dump`]. The image preserves node/edge *ids* and the
/// future allocation order, so a restored tree is behaviourally identical
/// to the original ([`Tree::arena_fingerprint`] matches).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaDump {
    /// The taxon universe size.
    pub universe: usize,
    /// Node slots, dense by id.
    pub nodes: Vec<DumpNode>,
    /// Edge slots, dense by id.
    pub edges: Vec<DumpEdge>,
    /// Dead node ids in LIFO pop order (last pushed first).
    pub free_nodes: Vec<u32>,
    /// Dead edge ids in LIFO pop order (last pushed first).
    pub free_edges: Vec<u32>,
}

/// Checks that `free` enumerates exactly the dead slots of an arena of
/// `len` slots, each once (`live(i)` reports slot liveness).
fn check_free_list(
    kind: &str,
    free: &[u32],
    len: usize,
    live: impl Fn(usize) -> bool,
) -> Result<(), TreeError> {
    let mut seen = vec![false; len];
    for &id in free {
        let i = id as usize;
        if i >= len {
            return Err(TreeError::Inconsistent(format!(
                "free {kind} id {id} out of range"
            )));
        }
        if live(i) {
            return Err(TreeError::Inconsistent(format!(
                "free {kind} list contains live slot {id}"
            )));
        }
        if seen[i] {
            return Err(TreeError::Inconsistent(format!(
                "free {kind} list repeats slot {id}"
            )));
        }
        seen[i] = true;
    }
    for (i, &s) in seen.iter().enumerate() {
        if !s && !live(i) {
            return Err(TreeError::Inconsistent(format!(
                "dead {kind} slot {i} missing from the free list"
            )));
        }
    }
    Ok(())
}

/// An unrooted tree over a fixed taxon universe.
#[derive(Debug)]
pub struct Tree {
    universe: usize,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    free_nodes: Vec<NodeId>,
    free_edges: Vec<EdgeId>,
    /// `leaf_of[t]` is the leaf node labelled with taxon `t`, if present.
    leaf_of: Vec<Option<NodeId>>,
    /// The set of taxa currently present as leaves.
    taxa: BitSet,
    n_nodes: usize,
    n_edges: usize,
}

impl Clone for Tree {
    fn clone(&self) -> Self {
        Tree {
            universe: self.universe,
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            free_nodes: self.free_nodes.clone(),
            free_edges: self.free_edges.clone(),
            leaf_of: self.leaf_of.clone(),
            taxa: self.taxa.clone(),
            n_nodes: self.n_nodes,
            n_edges: self.n_edges,
        }
    }

    /// Field by field, so a recycled tree (`BatchingSink`'s spare pool)
    /// keeps every buffer whose capacity suffices, each node's adjacency
    /// list included, instead of allocating one list per node.
    fn clone_from(&mut self, source: &Self) {
        self.universe = source.universe;
        self.nodes.clone_from(&source.nodes);
        self.edges.clone_from(&source.edges);
        self.free_nodes.clone_from(&source.free_nodes);
        self.free_edges.clone_from(&source.free_edges);
        self.leaf_of.clone_from(&source.leaf_of);
        self.taxa.clone_from(&source.taxa);
        self.n_nodes = source.n_nodes;
        self.n_edges = source.n_edges;
    }
}

impl Tree {
    /// Creates an empty tree over a universe of `universe` taxa.
    pub fn new(universe: usize) -> Self {
        Tree {
            universe,
            nodes: Vec::new(),
            edges: Vec::new(),
            free_nodes: Vec::new(),
            free_edges: Vec::new(),
            leaf_of: vec![None; universe],
            taxa: BitSet::new(universe),
            n_nodes: 0,
            n_edges: 0,
        }
    }

    /// The taxon universe size this tree addresses.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// Number of leaves (taxa present).
    #[inline]
    pub fn leaf_count(&self) -> usize {
        self.taxa.count()
    }

    /// Upper bound (exclusive) on edge ids ever allocated; dead ids below
    /// this bound are skipped by [`Tree::edges`].
    #[inline]
    pub fn edge_id_bound(&self) -> usize {
        self.edges.len()
    }

    /// Upper bound (exclusive) on node ids ever allocated.
    #[inline]
    pub fn node_id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// The set of taxa present as leaves.
    #[inline]
    pub fn taxa(&self) -> &BitSet {
        &self.taxa
    }

    /// The leaf node labelled with `t`, if present.
    #[inline]
    pub fn leaf(&self, t: TaxonId) -> Option<NodeId> {
        self.leaf_of[t.index()]
    }

    /// The taxon labelling node `n` (leaves only).
    #[inline]
    pub fn taxon(&self, n: NodeId) -> Option<TaxonId> {
        self.nodes[n.index()].taxon
    }

    /// True if `n` refers to a live node.
    #[inline]
    pub fn node_alive(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(|x| x.alive)
    }

    /// True if `e` refers to a live edge.
    #[inline]
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        self.edges.get(e.index()).is_some_and(|x| x.alive)
    }

    /// Degree of node `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.nodes[n.index()].adj.len()
    }

    /// Incident edges of `n` in deterministic adjacency order.
    #[inline]
    pub fn adjacent_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.nodes[n.index()].adj
    }

    /// Both endpoints of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e.index()];
        (edge.a, edge.b)
    }

    /// The endpoint of `e` that is not `n`. Panics if `n` is not incident.
    #[inline]
    pub fn opposite(&self, e: EdgeId, n: NodeId) -> NodeId {
        let edge = &self.edges[e.index()];
        if edge.a == n {
            edge.b
        } else {
            debug_assert_eq!(edge.b, n, "{n:?} not incident to {e:?}");
            edge.a
        }
    }

    /// Iterates live node ids in increasing id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterates live edge ids in increasing id order (the canonical branch
    /// enumeration order used by the search).
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Iterates `(leaf node, taxon)` pairs in increasing node-id order.
    pub fn leaves(&self) -> impl Iterator<Item = (NodeId, TaxonId)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .filter_map(|(i, n)| n.taxon.map(|t| (NodeId(i as u32), t)))
    }

    // ------------------------------------------------------------------
    // Construction primitives (used by builders / parsers)
    // ------------------------------------------------------------------

    fn alloc_node(&mut self, taxon: Option<TaxonId>) -> NodeId {
        let id = match self.free_nodes.pop() {
            Some(id) => {
                let n = &mut self.nodes[id.index()];
                debug_assert!(!n.alive);
                n.alive = true;
                n.taxon = taxon;
                debug_assert!(n.adj.is_empty());
                id
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(Node {
                    alive: true,
                    taxon,
                    adj: Vec::with_capacity(3),
                });
                id
            }
        };
        if let Some(t) = taxon {
            debug_assert!(self.leaf_of[t.index()].is_none(), "duplicate taxon");
            self.leaf_of[t.index()] = Some(id);
            self.taxa.insert(t.index());
        }
        self.n_nodes += 1;
        id
    }

    fn free_node(&mut self, id: NodeId) {
        let n = &mut self.nodes[id.index()];
        debug_assert!(n.alive);
        debug_assert!(n.adj.is_empty(), "freeing node with incident edges");
        n.alive = false;
        if let Some(t) = n.taxon.take() {
            self.leaf_of[t.index()] = None;
            self.taxa.remove(t.index());
        }
        self.free_nodes.push(id);
        self.n_nodes -= 1;
    }

    fn alloc_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        let id = match self.free_edges.pop() {
            Some(id) => {
                let e = &mut self.edges[id.index()];
                debug_assert!(!e.alive);
                *e = Edge { alive: true, a, b };
                id
            }
            None => {
                let id = EdgeId(self.edges.len() as u32);
                self.edges.push(Edge { alive: true, a, b });
                id
            }
        };
        self.n_edges += 1;
        id
    }

    fn free_edge(&mut self, id: EdgeId) {
        let e = &mut self.edges[id.index()];
        debug_assert!(e.alive);
        e.alive = false;
        self.free_edges.push(id);
        self.n_edges -= 1;
    }

    /// Adds an isolated node (builder use). Leaves must have unique taxa.
    pub fn add_node(&mut self, taxon: Option<TaxonId>) -> NodeId {
        self.alloc_node(taxon)
    }

    /// Connects two existing nodes with a new edge (builder use).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        debug_assert!(self.node_alive(a) && self.node_alive(b));
        let e = self.alloc_edge(a, b);
        self.nodes[a.index()].adj.push(e);
        self.nodes[b.index()].adj.push(e);
        e
    }

    /// Builds the unique tree on two taxa.
    pub fn two_leaf(universe: usize, a: TaxonId, b: TaxonId) -> Self {
        let mut t = Tree::new(universe);
        let na = t.add_node(Some(a));
        let nb = t.add_node(Some(b));
        t.add_edge(na, nb);
        t
    }

    /// Builds the unique (star) tree on three taxa.
    pub fn three_leaf(universe: usize, a: TaxonId, b: TaxonId, c: TaxonId) -> Self {
        let mut t = Tree::new(universe);
        let center = t.add_node(None);
        for tx in [a, b, c] {
            let leaf = t.add_node(Some(tx));
            t.add_edge(center, leaf);
        }
        t
    }

    // ------------------------------------------------------------------
    // The two search-critical edits
    // ------------------------------------------------------------------

    /// Inserts leaf `taxon` by subdividing `edge`.
    ///
    /// `edge`'s id survives the subdivision (it keeps its `a` endpoint and
    /// is re-pointed at the new midpoint); the far half and the pendant get
    /// fresh ids, deterministically. Returns the undo record.
    pub fn insert_leaf_on_edge(&mut self, taxon: TaxonId, edge: EdgeId) -> Insertion {
        debug_assert!(self.edge_alive(edge), "insert on dead edge {edge:?}");
        debug_assert!(
            self.leaf_of[taxon.index()].is_none(),
            "taxon already present"
        );
        let detached = self.edges[edge.index()].b;

        // Allocation order is part of the deterministic contract:
        // mid, leaf, far_half, pendant.
        let mid = self.alloc_node(None);
        let leaf = self.alloc_node(Some(taxon));

        // Re-point `edge`'s b endpoint at the midpoint, preserving the
        // position of `edge` in the detached node's adjacency list for the
        // replacement `far_half` edge.
        self.edges[edge.index()].b = mid;
        self.nodes[mid.index()].adj.push(edge);

        let far_half = self.alloc_edge(mid, detached);
        let pos = self.nodes[detached.index()]
            .adj
            .iter()
            .position(|&e| e == edge)
            .expect("edge missing from endpoint adjacency");
        self.nodes[detached.index()].adj[pos] = far_half;
        self.nodes[mid.index()].adj.push(far_half);

        let pendant = self.alloc_edge(mid, leaf);
        self.nodes[mid.index()].adj.push(pendant);
        self.nodes[leaf.index()].adj.push(pendant);

        Insertion {
            taxon,
            leaf,
            mid,
            edge,
            far_half,
            pendant,
            detached,
        }
    }

    /// Exactly undoes an insertion made by [`Tree::insert_leaf_on_edge`].
    ///
    /// Must be called in LIFO order with respect to other edits (the search
    /// backtracks strictly), otherwise the arena would not be restorable.
    pub fn remove_insertion(&mut self, ins: &Insertion) {
        // Free in reverse allocation order so the LIFO free lists return to
        // their pre-insertion state: pendant, far_half, leaf, mid.
        let mid = ins.mid;
        debug_assert_eq!(self.nodes[mid.index()].adj.len(), 3);

        // Detach pendant.
        self.nodes[ins.leaf.index()].adj.clear();
        self.nodes[mid.index()].adj.retain(|&e| e != ins.pendant);
        self.free_edge(ins.pendant);

        // Re-point `edge` back at the detached endpoint, restoring its
        // position in the adjacency list (it sits where far_half is now).
        let pos = self.nodes[ins.detached.index()]
            .adj
            .iter()
            .position(|&e| e == ins.far_half)
            .expect("far_half missing from detached adjacency");
        self.nodes[ins.detached.index()].adj[pos] = ins.edge;
        self.nodes[mid.index()].adj.retain(|&e| e != ins.far_half);
        self.free_edge(ins.far_half);

        self.edges[ins.edge.index()].b = ins.detached;
        self.nodes[mid.index()].adj.retain(|&e| e != ins.edge);

        self.free_node(ins.leaf);
        self.free_node(mid);
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Returns the nodes reachable from `root` in DFS preorder together with
    /// the edge leading to each (None for the root). Iterative, so deep
    /// caterpillar trees cannot overflow the stack. On a cyclic arena the
    /// walk stops at one entry more than [`Tree::node_count`], so it always
    /// ends and a caller can tell a tree by the length alone.
    pub fn preorder(&self, root: NodeId) -> Vec<(NodeId, Option<EdgeId>)> {
        let mut order = Vec::with_capacity(self.n_nodes);
        let mut stack = Vec::new();
        self.preorder_into(root, &mut stack, &mut order);
        order
    }

    /// [`Tree::preorder`] into caller-owned buffers (`stack` is DFS
    /// scratch, `order` receives the result); both are cleared first. Lets
    /// the projection kernels traverse without allocating per rebuild.
    pub fn preorder_into(
        &self,
        root: NodeId,
        stack: &mut Vec<(NodeId, Option<EdgeId>)>,
        order: &mut Vec<(NodeId, Option<EdgeId>)>,
    ) {
        order.clear();
        stack.clear();
        stack.push((root, None));
        while let Some((v, pe)) = stack.pop() {
            if order.len() > self.n_nodes {
                break;
            }
            order.push((v, pe));
            // Reverse so the first adjacency is processed first: makes the
            // preorder deterministic and adjacency-order-respecting.
            for &e in self.nodes[v.index()].adj.iter().rev() {
                if Some(e) != pe {
                    stack.push((self.opposite(e, v), Some(e)));
                }
            }
        }
    }

    /// Any live node, preferring a leaf (useful as a traversal root).
    pub fn any_leaf(&self) -> Option<NodeId> {
        self.taxa.min_member().and_then(|t| self.leaf_of[t])
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Structural sanity check: adjacency symmetry, connectivity,
    /// acyclicity, unique leaf labels, internal nodes unlabelled.
    pub fn validate(&self) -> Result<(), TreeError> {
        // Adjacency consistency.
        for (i, e) in self.edges.iter().enumerate() {
            if !e.alive {
                continue;
            }
            let id = EdgeId(i as u32);
            for n in [e.a, e.b] {
                if !self.node_alive(n) {
                    return Err(TreeError::Inconsistent(format!(
                        "{id:?} touches dead node {n:?}"
                    )));
                }
                if !self.nodes[n.index()].adj.contains(&id) {
                    return Err(TreeError::Inconsistent(format!(
                        "{id:?} missing from adjacency of {n:?}"
                    )));
                }
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            let id = NodeId(i as u32);
            for &e in &n.adj {
                if !self.edge_alive(e) {
                    return Err(TreeError::Inconsistent(format!(
                        "{id:?} adjacent to dead edge {e:?}"
                    )));
                }
                let (a, b) = self.endpoints(e);
                if a != id && b != id {
                    return Err(TreeError::Inconsistent(format!(
                        "{id:?} lists non-incident edge {e:?}"
                    )));
                }
            }
            if n.taxon.is_some() && n.adj.len() > 1 {
                return Err(TreeError::BadLabels(format!(
                    "labelled node {id:?} has degree {}",
                    n.adj.len()
                )));
            }
        }
        // Tree shape: connected and |E| = |V| - 1.
        if self.n_nodes > 0 {
            if self.n_edges + 1 != self.n_nodes {
                return Err(TreeError::NotATree(format!(
                    "{} nodes but {} edges",
                    self.n_nodes, self.n_edges
                )));
            }
            let Some(root) = self.node_ids().next() else {
                return Err(TreeError::NotATree(format!(
                    "{} nodes counted but none alive",
                    self.n_nodes
                )));
            };
            let reached = self.preorder(root).len();
            if reached != self.n_nodes {
                return Err(TreeError::NotATree(format!(
                    "reached {reached} of {} nodes",
                    self.n_nodes
                )));
            }
        }
        // Label uniqueness is enforced by alloc_node; cross-check leaf_of.
        for t in self.taxa.iter() {
            match self.leaf_of[t] {
                Some(n)
                    if self.node_alive(n)
                        && self.nodes[n.index()].taxon == Some(TaxonId(t as u32)) => {}
                _ => {
                    return Err(TreeError::BadLabels(format!(
                        "taxon {t} not backed by a live labelled leaf"
                    )))
                }
            }
        }
        Ok(())
    }

    /// True if every leaf has degree 1, every internal node degree 3, and
    /// there are at least two nodes (the shape Gentrius operates on; the
    /// 2-leaf tree counts as binary).
    pub fn is_binary_unrooted(&self) -> bool {
        if self.n_nodes < 2 {
            return false;
        }
        self.node_ids().all(|n| {
            let node = &self.nodes[n.index()];
            if node.taxon.is_some() {
                node.adj.len() == 1
            } else {
                node.adj.len() == 3
            }
        })
    }

    // ------------------------------------------------------------------
    // Arena serialization (checkpoint support)
    // ------------------------------------------------------------------

    /// Captures the full arena as plain data: every slot (live *and* dead)
    /// plus both free lists in pop order. Unlike a Newick round-trip, which
    /// renumbers nodes and edges, restoring a dump with
    /// [`Tree::from_arena_dump`] reproduces the arena id-for-id — the
    /// property checkpointed search tasks rely on, since their recorded
    /// branch [`EdgeId`]s are arena indices.
    pub fn dump_arena(&self) -> ArenaDump {
        ArenaDump {
            universe: self.universe,
            nodes: self
                .nodes
                .iter()
                .map(|n| DumpNode {
                    alive: n.alive,
                    taxon: n.taxon.map(|t| t.0),
                    adj: n.adj.iter().map(|e| e.0).collect(),
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|e| DumpEdge {
                    alive: e.alive,
                    a: e.a.0,
                    b: e.b.0,
                })
                .collect(),
            free_nodes: self.free_nodes.iter().map(|n| n.0).collect(),
            free_edges: self.free_edges.iter().map(|e| e.0).collect(),
        }
    }

    /// Rebuilds a tree from an [`ArenaDump`], verifying the dump is
    /// internally consistent before trusting it (dumps cross process
    /// boundaries through checkpoint files, so they are hostile input):
    /// free lists must enumerate exactly the dead slots, dead nodes must
    /// have empty adjacency (the reuse invariant `alloc_node`
    /// debug-asserts), taxa must be unique and within the universe, and the
    /// live structure must pass [`Tree::validate`].
    pub fn from_arena_dump(dump: &ArenaDump) -> Result<Tree, TreeError> {
        let bad = |msg: String| TreeError::Inconsistent(msg);
        if dump.nodes.len() > u32::MAX as usize || dump.edges.len() > u32::MAX as usize {
            return Err(bad("arena dump exceeds u32 id space".into()));
        }
        let mut leaf_of: Vec<Option<NodeId>> = vec![None; dump.universe];
        let mut taxa = BitSet::new(dump.universe);
        let mut nodes = Vec::with_capacity(dump.nodes.len());
        let mut n_nodes = 0usize;
        for (i, n) in dump.nodes.iter().enumerate() {
            if n.alive {
                n_nodes += 1;
                if let Some(t) = n.taxon {
                    if t as usize >= dump.universe {
                        return Err(bad(format!("node {i}: taxon {t} outside universe")));
                    }
                    if leaf_of[t as usize].is_some() {
                        return Err(TreeError::BadLabels(format!("taxon {t} labels two nodes")));
                    }
                    leaf_of[t as usize] = Some(NodeId(i as u32));
                    taxa.insert(t as usize);
                }
            } else if !n.adj.is_empty() {
                return Err(bad(format!("dead node {i} has a non-empty adjacency list")));
            } else if n.taxon.is_some() {
                return Err(bad(format!("dead node {i} carries a taxon")));
            }
            nodes.push(Node {
                alive: n.alive,
                taxon: if n.alive { n.taxon.map(TaxonId) } else { None },
                adj: n.adj.iter().map(|&e| EdgeId(e)).collect(),
            });
        }
        let mut edges = Vec::with_capacity(dump.edges.len());
        let mut n_edges = 0usize;
        for e in &dump.edges {
            if e.alive {
                n_edges += 1;
                if e.a as usize >= dump.nodes.len() || e.b as usize >= dump.nodes.len() {
                    return Err(bad("edge endpoint outside the node arena".into()));
                }
            }
            edges.push(Edge {
                alive: e.alive,
                a: NodeId(e.a),
                b: NodeId(e.b),
            });
        }
        // The free lists must enumerate exactly the dead slots, each once:
        // a live id on a free list would be resurrected by the next alloc,
        // and a dead slot missing from the lists would leak forever.
        check_free_list("node", &dump.free_nodes, dump.nodes.len(), |i| {
            dump.nodes[i].alive
        })?;
        check_free_list("edge", &dump.free_edges, dump.edges.len(), |i| {
            dump.edges[i].alive
        })?;
        let tree = Tree {
            universe: dump.universe,
            nodes,
            edges,
            free_nodes: dump.free_nodes.iter().map(|&n| NodeId(n)).collect(),
            free_edges: dump.free_edges.iter().map(|&e| EdgeId(e)).collect(),
            leaf_of,
            taxa,
            n_nodes,
            n_edges,
        };
        tree.validate()?;
        Ok(tree)
    }

    /// A behavioural fingerprint of the arena: the live structure (ids,
    /// labels, adjacency order) plus the *future allocation order* (the
    /// LIFO free lists in pop order, then the next fresh ids). Two arenas
    /// with equal fingerprints are indistinguishable to any sequence of
    /// future edits — this is the determinism contract the parallel task
    /// paths rely on, and what the undo/replay tests assert.
    ///
    /// Note a cancelled insert/remove pair leaves dead slots behind, so raw
    /// memory is *not* restored — but the freed ids sit on the LIFO free
    /// list in exactly fresh-allocation order, which is why the fingerprint
    /// (and therefore all future behaviour) is.
    pub fn arena_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            (i, n.taxon.map(|t| t.0)).hash(&mut h);
            for e in &n.adj {
                e.0.hash(&mut h);
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            if !e.alive {
                continue;
            }
            (i, e.a.0, e.b.0).hash(&mut h);
        }
        // Future id sequence = free list in pop order, then fresh ids from
        // the bump pointer. A free-list tail that is exactly the ids just
        // below the bump pointer (in pop order) is equivalent to never
        // having allocated them, so trim it before hashing.
        fn hash_future<H: Hasher>(free: &[u32], len: usize, h: &mut H) {
            let mut eff = len as u32;
            let mut cut = 0;
            while cut < free.len() && free[cut] + 1 == eff {
                eff -= 1;
                cut += 1;
            }
            for id in free[cut..].iter().rev() {
                id.hash(h);
            }
            eff.hash(h);
        }
        let free_nodes: Vec<u32> = self.free_nodes.iter().map(|n| n.0).collect();
        let free_edges: Vec<u32> = self.free_edges.iter().map(|e| e.0).collect();
        hash_future(&free_nodes, self.nodes.len(), &mut h);
        hash_future(&free_edges, self.edges.len(), &mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaxonId {
        TaxonId(i)
    }

    #[test]
    fn two_and_three_leaf_shapes() {
        let t2 = Tree::two_leaf(8, t(0), t(1));
        assert_eq!(t2.node_count(), 2);
        assert_eq!(t2.edge_count(), 1);
        assert!(t2.is_binary_unrooted());
        t2.validate().unwrap();

        let t3 = Tree::three_leaf(8, t(0), t(1), t(2));
        assert_eq!(t3.node_count(), 4);
        assert_eq!(t3.edge_count(), 3);
        assert!(t3.is_binary_unrooted());
        t3.validate().unwrap();
    }

    #[test]
    fn insert_grows_binary_tree() {
        let mut tree = Tree::three_leaf(8, t(0), t(1), t(2));
        let e = tree.edges().next().unwrap();
        let ins = tree.insert_leaf_on_edge(t(3), e);
        tree.validate().unwrap();
        assert!(tree.is_binary_unrooted());
        assert_eq!(tree.leaf_count(), 4);
        assert_eq!(tree.node_count(), 6);
        assert_eq!(tree.edge_count(), 5);
        assert_eq!(tree.taxon(ins.leaf), Some(t(3)));
        assert_eq!(tree.leaf(t(3)), Some(ins.leaf));
    }

    #[test]
    fn remove_is_exact_inverse() {
        let mut tree = Tree::three_leaf(8, t(0), t(1), t(2));
        let before = tree.arena_fingerprint();
        let e = tree.edges().nth(2).unwrap();
        let ins = tree.insert_leaf_on_edge(t(5), e);
        assert_ne!(tree.arena_fingerprint(), before);
        tree.remove_insertion(&ins);
        assert_eq!(tree.arena_fingerprint(), before);
        tree.validate().unwrap();
        assert_eq!(tree.leaf(t(5)), None);
    }

    #[test]
    fn nested_insert_remove_lifo() {
        let mut tree = Tree::three_leaf(16, t(0), t(1), t(2));
        let fp0 = tree.arena_fingerprint();
        let e0 = tree.edges().next().unwrap();
        let i1 = tree.insert_leaf_on_edge(t(3), e0);
        let fp1 = tree.arena_fingerprint();
        let i2 = tree.insert_leaf_on_edge(t(4), i1.pendant);
        let i3 = tree.insert_leaf_on_edge(t(5), i2.far_half);
        tree.validate().unwrap();
        assert!(tree.is_binary_unrooted());
        tree.remove_insertion(&i3);
        tree.remove_insertion(&i2);
        assert_eq!(tree.arena_fingerprint(), fp1);
        tree.remove_insertion(&i1);
        assert_eq!(tree.arena_fingerprint(), fp0);
    }

    #[test]
    fn replay_determinism_across_copies() {
        // Two histories: (insert, remove, insert-same) vs (insert) must
        // produce identical arenas — that is what makes task paths portable.
        let mut a = Tree::three_leaf(16, t(0), t(1), t(2));
        let mut b = a.clone();
        let e = a.edges().next().unwrap();
        let ins = a.insert_leaf_on_edge(t(7), e);
        a.remove_insertion(&ins);
        let ia = a.insert_leaf_on_edge(t(7), e);
        let ib = b.insert_leaf_on_edge(t(7), e);
        assert_eq!(ia, ib);
        assert_eq!(a.arena_fingerprint(), b.arena_fingerprint());
    }

    #[test]
    fn preorder_reaches_all_nodes() {
        let mut tree = Tree::three_leaf(16, t(0), t(1), t(2));
        for (i, tx) in (3..10).enumerate() {
            let e = tree.edges().nth(i % tree.edge_count()).unwrap();
            tree.insert_leaf_on_edge(t(tx), e);
        }
        let root = tree.any_leaf().unwrap();
        assert_eq!(tree.preorder(root).len(), tree.node_count());
    }

    #[test]
    fn edge_iteration_is_id_ordered() {
        let mut tree = Tree::three_leaf(16, t(0), t(1), t(2));
        let e = tree.edges().next().unwrap();
        tree.insert_leaf_on_edge(t(3), e);
        let ids: Vec<u32> = tree.edges().map(|e| e.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn validate_catches_duplicate_structure() {
        // A handcrafted cycle must be rejected.
        let mut tree = Tree::new(4);
        let a = tree.add_node(Some(t(0)));
        let b = tree.add_node(None);
        tree.add_edge(a, b);
        tree.add_edge(a, b);
        assert!(matches!(
            tree.validate(),
            Err(TreeError::NotATree(_)) | Err(TreeError::BadLabels(_))
        ));
        // A triangle beside a separate edge has |E| = |V| - 1, so only the
        // walk can see the cycle, and it must end instead of looping.
        let mut tree = Tree::new(4);
        let tri: Vec<NodeId> = (0..3).map(|_| tree.add_node(None)).collect();
        for i in 0..3 {
            tree.add_edge(tri[i], tri[(i + 1) % 3]);
        }
        let (c, d) = (tree.add_node(Some(t(0))), tree.add_node(Some(t(1))));
        tree.add_edge(c, d);
        assert_eq!(tree.preorder(tri[0]).len(), tree.node_count() + 1);
        assert!(matches!(tree.validate(), Err(TreeError::NotATree(_))));
    }

    #[test]
    fn arena_dump_roundtrip_preserves_fingerprint() {
        // Build a tree with dead slots: insert, remove, insert elsewhere,
        // so free lists are non-trivial.
        let mut tree = Tree::three_leaf(16, t(0), t(1), t(2));
        let e0 = tree.edges().next().unwrap();
        let i1 = tree.insert_leaf_on_edge(t(3), e0);
        let i2 = tree.insert_leaf_on_edge(t(4), i1.pendant);
        tree.remove_insertion(&i2);
        let i3 = tree.insert_leaf_on_edge(t(5), i1.far_half);
        tree.remove_insertion(&i3);
        let dump = tree.dump_arena();
        let restored = Tree::from_arena_dump(&dump).unwrap();
        assert_eq!(restored.arena_fingerprint(), tree.arena_fingerprint());
        assert_eq!(restored.dump_arena(), dump, "dump is a fixed point");
        // Behavioural identity: the same future edit yields the same ids.
        let ia = tree.insert_leaf_on_edge(t(6), i1.pendant);
        let mut restored = restored;
        let ib = restored.insert_leaf_on_edge(t(6), i1.pendant);
        assert_eq!(ia, ib);
        assert_eq!(restored.arena_fingerprint(), tree.arena_fingerprint());
    }

    #[test]
    fn arena_dump_rejects_corruption() {
        let mut tree = Tree::three_leaf(8, t(0), t(1), t(2));
        let e = tree.edges().next().unwrap();
        let ins = tree.insert_leaf_on_edge(t(3), e);
        tree.remove_insertion(&ins);
        let good = tree.dump_arena();
        assert!(Tree::from_arena_dump(&good).is_ok());

        // Free list omits a dead slot.
        let mut d = good.clone();
        d.free_nodes.pop();
        assert!(Tree::from_arena_dump(&d).is_err());
        // Free list names a live slot.
        let mut d = good.clone();
        d.free_nodes.push(0);
        assert!(Tree::from_arena_dump(&d).is_err());
        // Duplicate free id.
        let mut d = good.clone();
        let dup = d.free_edges[0];
        d.free_edges.push(dup);
        assert!(Tree::from_arena_dump(&d).is_err());
        // Out-of-range free id.
        let mut d = good.clone();
        d.free_edges[0] = 999;
        assert!(Tree::from_arena_dump(&d).is_err());
        // Duplicate taxon.
        let mut d = good.clone();
        for n in d.nodes.iter_mut().filter(|n| n.alive && n.taxon == Some(1)) {
            n.taxon = Some(0);
        }
        assert!(Tree::from_arena_dump(&d).is_err());
        // Taxon outside the universe.
        let mut d = good.clone();
        for n in d.nodes.iter_mut().filter(|n| n.taxon == Some(2)) {
            n.taxon = Some(99);
        }
        assert!(Tree::from_arena_dump(&d).is_err());
        // Dead node with adjacency.
        let mut d = good.clone();
        let dead = d.free_nodes[0] as usize;
        d.nodes[dead].adj.push(0);
        assert!(Tree::from_arena_dump(&d).is_err());
        // Edge endpoint out of range.
        let mut d = good.clone();
        let live_edge = d.edges.iter().position(|e| e.alive).unwrap();
        d.edges[live_edge].a = 999;
        assert!(Tree::from_arena_dump(&d).is_err());
        // Disconnected live structure (drop one edge, keep counts stale).
        let mut d = good.clone();
        d.edges[live_edge].alive = false;
        d.free_edges.insert(0, live_edge as u32);
        assert!(Tree::from_arena_dump(&d).is_err());
    }

    #[test]
    fn clone_from_recycles_buffers_and_behaves_like_a_fresh_clone() {
        // Source: universe 12, with dead slots on both free lists.
        let mut src = Tree::three_leaf(12, t(0), t(1), t(2));
        let e0 = src.edges().next().unwrap();
        let i3 = src.insert_leaf_on_edge(t(3), e0);
        let i4 = src.insert_leaf_on_edge(t(4), i3.far_half);
        let i5 = src.insert_leaf_on_edge(t(5), i4.pendant);
        src.remove_insertion(&i5);
        // Target: another universe and a larger, differently shaped arena,
        // so every buffer it holds is big enough to take the source.
        let mut dst = Tree::three_leaf(40, t(7), t(8), t(9));
        for x in 10..30 {
            let e = dst.edges().nth(x % dst.edge_count()).unwrap();
            dst.insert_leaf_on_edge(t(x as u32), e);
        }
        let adj_bufs: Vec<(*const EdgeId, usize)> = dst
            .nodes
            .iter()
            .map(|n| (n.adj.as_ptr(), n.adj.capacity()))
            .collect();
        let nodes_buf = dst.nodes.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst.dump_arena(), src.dump_arena());
        assert_eq!(dst.universe(), 12);
        assert_eq!(dst.taxa(), src.taxa());
        assert_eq!(dst.arena_fingerprint(), src.arena_fingerprint());
        assert_eq!(dst.nodes.as_ptr(), nodes_buf, "node slots reused");
        for (node, &(ptr, cap)) in dst.nodes.iter().zip(&adj_bufs) {
            if cap >= node.adj.len() {
                assert_eq!(node.adj.as_ptr(), ptr, "adjacency buffer reused");
            }
        }
        // Later edits hand out the same ids as on a fresh clone.
        let mut fresh = src.clone();
        for tree in [&mut dst, &mut fresh] {
            tree.validate().unwrap();
        }
        let a = dst.insert_leaf_on_edge(t(6), i4.far_half);
        let b = fresh.insert_leaf_on_edge(t(6), i4.far_half);
        assert_eq!(a, b);
        let a2 = dst.insert_leaf_on_edge(t(11), a.pendant);
        let b2 = fresh.insert_leaf_on_edge(t(11), b.pendant);
        assert_eq!(a2, b2);
        dst.remove_insertion(&a2);
        fresh.remove_insertion(&b2);
        assert_eq!(dst.dump_arena(), fresh.dump_arena());
        // Recycling into a smaller tree grows it to the same state.
        let mut small = Tree::two_leaf(3, t(0), t(1));
        small.clone_from(&dst);
        assert_eq!(small.dump_arena(), dst.dump_arena());
        small.validate().unwrap();
    }

    #[test]
    fn opposite_endpoint() {
        let tree = Tree::two_leaf(4, t(0), t(1));
        let e = tree.edges().next().unwrap();
        let (a, b) = tree.endpoints(e);
        assert_eq!(tree.opposite(e, a), b);
        assert_eq!(tree.opposite(e, b), a);
    }
}
