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
//!   exploits with prefix-delta compression, and which lets [`Encoder`]
//!   encode the completions of one parent tree from that tree's cached
//!   analysis ([`Encoder::completions`]);
//! * the vector is trivially hashable, giving a cheap cross-shard
//!   topology key;
//! * like the phylo2vec library's vector-to-Newick conversion, a code
//!   renders as text without a tree object: [`NewickWriter`] writes the
//!   canonical Newick of a full-taxon code in `O(n)`.

use crate::newick::format_label;
use crate::taxa::{TaxonId, TaxonSet};
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

/// `lower` entry of an internal node: the rank that created it, tagged.
/// An untagged entry is a leaf's taxon.
// arith: a constant shift, below the width of u32.
const INNER: u32 = 1 << 31;
/// Walk-stack token that closes an internal node's parenthesis (above any
/// edge id, which stays below `INNER`).
const CLOSE: u32 = u32::MAX;

/// Writes the canonical Newick form of [`crate::newick::to_newick`]
/// straight from a code over a full taxon set (taxa `0 .. n`, the form a
/// `.stand` container stores), without building a [`Tree`]. Labels are
/// quoted once, when the writer is made; the replay and walk buffers are
/// reused across [`NewickWriter::write`] calls.
///
/// Root the insertion trace at `t0`'s leaf. Inserting `t_i` on edge `c`
/// (the [`Tree::insert_leaf_on_edge`] id rule) creates a node whose two
/// child edges are the far half `2i-3`, which leads to the subtree below
/// `c`, and the pendant `2i-2`, whose subtree's smallest taxon is `i`.
/// Every taxon below `c` came before `i`, so the far half always holds
/// the smaller minimum: it is already the first sibling in canonical
/// order. `c` keeps its id above the new node, so one `lower[edge]` array
/// tracks the tree in three stores per insertion, and the canonical string
/// is a preorder walk from the node below edge 0 (`t0`'s neighbour, where
/// `to_newick` roots) that takes `2i-3` before `2i-2`: no sort, no
/// per-node allocation and no recursion.
#[derive(Debug)]
pub struct NewickWriter {
    /// Every taxon's Newick label, quoted where needed, back to back.
    labels: String,
    /// `labels[starts[t] .. starts[t + 1]]` is taxon `t`'s label.
    starts: Vec<usize>,
    /// Node below each edge of the partial tree: a taxon, or `INNER | i`
    /// for the node `t_i`'s insertion created.
    lower: Vec<u32>,
    /// Preorder walk stack: pendant edges still to visit and `CLOSE`s.
    stack: Vec<u32>,
}

impl NewickWriter {
    /// A writer for codes over every taxon of `taxa`, in id order.
    pub fn new(taxa: &TaxonSet) -> Self {
        let mut labels = String::new();
        let mut starts = Vec::with_capacity(taxa.len().saturating_add(1));
        starts.push(0);
        for (_, name) in taxa.iter() {
            labels.push_str(&format_label(name));
            starts.push(labels.len());
        }
        NewickWriter {
            labels,
            starts,
            lower: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn label(&self, taxon: u32) -> &str {
        let t = taxon as usize;
        // arith: the walk only reaches taxa below `n`, and `starts` holds
        // `n + 1` offsets.
        &self.labels[self.starts[t]..self.starts[t + 1]]
    }

    /// Appends the canonical Newick of the tree `code` describes to `out`
    /// (with the closing `;`, without a newline). The code is checked as
    /// [`decode`] checks it, with the same errors: `n - 2` entries
    /// ([`P2vError::LengthMismatch`]), each `code[j] < 2j + 1`
    /// ([`P2vError::OutOfRange`], the first offending entry). On an error
    /// `out` may hold a partial line.
    pub fn write(&mut self, code: &[u32], out: &mut String) -> Result<(), P2vError> {
        let n = self.starts.len() - 1;
        if code.len() != n.saturating_sub(2) {
            return Err(P2vError::LengthMismatch {
                taxa: n,
                code: code.len(),
            });
        }
        if n >= INNER as usize / 2 {
            return Err(P2vError::Internal("too many taxa for u32 edge ids"));
        }
        match n {
            0 => {
                out.push(';');
                return Ok(());
            }
            1 => {
                out.push_str(self.label(0));
                out.push(';');
                return Ok(());
            }
            _ => {}
        }
        // Replay: edge 0 runs from t0's leaf down to t1's; before the
        // insertion of t_i (i = j + 2) the edges are 0 .. 2j + 1.
        self.lower.clear();
        self.lower.push(1);
        for (j, &c) in code.iter().enumerate() {
            // arith: j < n - 2 and n < 2^30 (checked above), so the bound,
            // the rank and both new edge ids fit in a u32 below `INNER`.
            let bound = 2 * j as u32 + 1;
            if c >= bound {
                return Err(P2vError::OutOfRange {
                    index: j,
                    value: c,
                    bound,
                });
            }
            let below = self.lower[c as usize];
            // arith: the rank i = j + 2 < n, see above.
            self.lower[c as usize] = INNER | (j as u32 + 2);
            self.lower.push(below); // the far half, edge 2i-3
            self.lower.push(j as u32 + 2); // the pendant, edge 2i-2
        }

        // Walk: t0 first, then the subtrees of its neighbour, which share
        // t0's parenthesis instead of opening their own.
        out.push('(');
        out.push_str(self.label(0));
        out.push(',');
        self.stack.clear();
        let mut x = self.lower[0];
        if x & INNER != 0 {
            let i = x ^ INNER;
            self.stack.push(2 * i - 2);
            x = self.lower[2 * i as usize - 3];
        }
        loop {
            // Down the far halves to a leaf, leaving each pendant (and the
            // parenthesis to close after it) on the stack.
            while x & INNER != 0 {
                let i = x ^ INNER;
                out.push('(');
                self.stack.push(CLOSE);
                self.stack.push(2 * i - 2);
                x = self.lower[2 * i as usize - 3];
            }
            out.push_str(self.label(x));
            loop {
                match self.stack.pop() {
                    None => {
                        out.push_str(");");
                        return Ok(());
                    }
                    Some(CLOSE) => out.push(')'),
                    Some(e) => {
                        out.push(',');
                        x = self.lower[e as usize];
                        break;
                    }
                }
            }
        }
    }
}

/// Per-node state of the encoder's analysis, indexed by node id.
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
}

impl Slot {
    /// The slot of leaf `v`, whose taxon has rank `rank`.
    fn leaf(v: u32, rank: u32) -> Slot {
        Slot {
            min: rank,
            creator: 0,
            below: v,
        }
    }

    /// The slot of an internal node whose children are `a` and `b`.
    ///
    /// Pointer-jump down the min-child chain: a node with a larger creator
    /// was inserted on the edge above this node's `below` later, and so was
    /// everything between it and its own `below`. Each chain is jumped over
    /// once, so a whole bottom-up pass is O(n). Every `below` is a strict
    /// descendant, so the jump ends on any arena.
    fn join(slots: &[Slot], a: u32, b: u32) -> Slot {
        let (ma, mb) = (slots[a as usize].min, slots[b as usize].min);
        let (mut w, min, creator) = if ma < mb { (a, ma, mb) } else { (b, mb, ma) };
        while slots[w as usize].creator > creator {
            w = slots[w as usize].below;
        }
        Slot {
            min,
            creator,
            below: w,
        }
    }
}

/// `created` entry of a rank no node has claimed yet.
const UNCLAIMED: u32 = u32::MAX;
/// `ParentFrame::up` entry of an id that is no node of the parent tree.
const ABSENT: u32 = u32::MAX;

/// A preorder from `t0`'s leaf: `(node, edge to its parent)`.
type Preorder = Vec<(NodeId, Option<EdgeId>)>;

/// The bottom-up pass of an encode over `order`, a preorder from `t0`'s
/// leaf: fills `slots` and `created` (every rank `>= 2` claimed by one
/// internal node) and hands each internal node and its two children to
/// `visit`.
fn analyse(
    tree: &Tree,
    rank: &[u32],
    order: &[(NodeId, Option<EdgeId>)],
    slots: &mut [Slot],
    created: &mut [u32],
    mut visit: impl FnMut(NodeId, NodeId, NodeId),
) -> Result<(), P2vError> {
    // Reverse preorder visits children before parents.
    for &(v, up) in order.iter().rev() {
        if let Some(t) = tree.taxon(v) {
            slots[v.index()] = Slot::leaf(v.0, rank[t.index()]);
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
        visit(v, a, b);
        let slot = Slot::join(slots, a.0, b.0);
        slots[v.index()] = slot;
        match created.get_mut(slot.creator as usize) {
            Some(c) if *c == UNCLAIMED => *c = v.0,
            _ => return Err(P2vError::Internal("two nodes claim one insertion")),
        }
    }
    Ok(())
}

/// Replays the canonical insertion of rank `i`, whose leaf is `leaf`, on
/// the `top` labels ([`Tree::insert_leaf_on_edge`]'s id rule: the
/// subdivided edge keeps its id on the `t0` side, the far half gets `2i-3`,
/// the pendant `2i-2`) and returns its code entry.
fn insert(
    slots: &[Slot],
    created: &[u32],
    top: &mut [u32],
    i: usize,
    leaf: u32,
) -> Result<u32, P2vError> {
    let v = created[i];
    if v == UNCLAIMED {
        return Err(P2vError::Internal("no node for an insertion"));
    }
    let u = slots[v as usize].below as usize;
    let edge = top[u];
    // arith: `i < n`, and a binary tree on n leaves has 2n-2 nodes with
    // u32 ids, so 2i-3 and the pendant id one past it fit in a u32.
    let far_half = 2 * i as u32 - 3;
    top[v as usize] = edge;
    top[u] = far_half;
    top[leaf as usize] = far_half + 1;
    Ok(edge)
}

/// Grows `v` to at least `len` entries.
fn grow<T>(v: &mut Vec<T>, len: usize)
where
    T: Clone,
    T: Default,
{
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// The analysis of an announced parent tree `T′`, from which each
/// completion `T′ + x` (taxon `x` on any edge of `T′`) is encoded without
/// a walk over the whole tree.
///
/// Ranks are taken over `T′ ∪ {x}`. Inserting `x` on the edge from `p` down
/// to `c` adds one node `m` between them; only `m` and the ancestors of
/// `m` change their analysis, since no other subtree contains `m`. Every
/// node that a rank below `x`'s rank `r` created keeps its slot, so the
/// code entries of those ranks and the `top` labels they leave are the
/// same for every completion (the prefix property of phylo2vec codes).
#[derive(Default)]
struct ParentFrame {
    /// The taxon every completion inserts; `None` when no frame applies.
    taxon: Option<TaxonId>,
    /// That taxon's rank in a completion (at least 2).
    rank: usize,
    /// Taxa of a completion.
    taxa: usize,
    /// Live nodes of `T′`.
    nodes: usize,
    /// `t0`'s leaf, the root of the analysis.
    root: u32,
    /// Per node id: the parent in `T′` (the root's is itself), or
    /// `ABSENT` for an id that is no node of `T′`.
    up: Vec<u32>,
    /// Per node id: the two children of an internal node of `T′`.
    kids: Vec<[u32; 2]>,
    /// Per node id: the analysis of `T′`. A completion patches `m`'s
    /// ancestors and then restores them from `saved_slots`.
    slots: Vec<Slot>,
    /// Per rank: the node of `T′` it created (`UNCLAIMED` for `rank`).
    created: Vec<u32>,
    /// Per rank: the leaf of `T′` with that rank (unused for `rank`).
    leaves: Vec<u32>,
    /// The code entries of the ranks below `rank`.
    prefix: Vec<u32>,
    /// Per node id: the `top` labels once the ranks below `rank` are in.
    top: Vec<u32>,
    /// A completion's copy of `top`, replayed from `rank` on.
    work: Vec<u32>,
    /// The slots and the `created` entries a completion patched.
    saved_slots: Vec<(u32, Slot)>,
    saved_created: Vec<(usize, u32)>,
}

impl ParentFrame {
    /// Analyses `parent` for completions with `x`, or returns `None` (no
    /// frame applies) when `parent` cannot be encoded, `x` is `t0` or `t1`
    /// of a completion, or a completion has fewer than 4 taxa.
    fn analyse(
        &mut self,
        parent: &Tree,
        x: TaxonId,
        rank: &mut Vec<u32>,
        stack: &mut Preorder,
        order: &mut Preorder,
    ) -> Option<()> {
        // arith: `leaf_count < universe`, which fits in a usize.
        let taxa = parent.leaf_count() + 1;
        if x.index() >= parent.universe()
            || parent.leaf(x).is_some()
            || taxa < 4
            || !parent.is_binary_unrooted()
        {
            return None;
        }
        grow(rank, parent.universe());
        self.leaves.clear();
        let mut r = None;
        for t in parent.taxa().iter() {
            if r.is_none() && t > x.index() {
                r = Some(self.leaves.len());
                self.leaves.push(ABSENT);
            }
            // arith: ranks stay below the node count, which fits in a u32
            // (node ids are u32); taxon ids come from u32-backed `TaxonId`s.
            rank[t] = self.leaves.len() as u32;
            self.leaves.push(parent.leaf(TaxonId(t as u32))?.0);
        }
        self.rank = match r {
            Some(r) => r,
            None => {
                self.leaves.push(ABSENT);
                taxa - 1
            }
        };
        if self.rank < 2 {
            return None;
        }
        let root = NodeId(self.leaves[0]);
        parent.preorder_into(root, stack, order);
        if order.len() != parent.node_count() {
            return None;
        }
        let bound = parent.node_id_bound();
        self.up.clear();
        self.up.resize(bound, ABSENT);
        for &(v, e) in order.iter() {
            self.up[v.index()] = e.map_or(v.0, |e| parent.opposite(e, v).0);
        }
        grow(&mut self.kids, bound);
        grow(&mut self.slots, bound);
        grow(&mut self.top, bound);
        self.created.clear();
        self.created.resize(taxa, UNCLAIMED);
        let kids = &mut self.kids;
        analyse(
            parent,
            rank,
            order,
            &mut self.slots,
            &mut self.created,
            |v, a, b| kids[v.index()] = [a.0, b.0],
        )
        .ok()?;
        self.top[self.leaves[1] as usize] = 0;
        self.prefix.clear();
        for i in 2..self.rank {
            let entry = insert(&self.slots, &self.created, &mut self.top, i, self.leaves[i]);
            self.prefix.push(entry.ok()?);
        }
        (self.taxa, self.nodes, self.root) = (taxa, parent.node_count(), root.0);
        self.taxon = Some(x);
        Some(())
    }

    /// Whether node id `v` is a node of `T′`.
    fn holds(&self, v: NodeId) -> bool {
        self.up.get(v.index()).is_some_and(|&u| u != ABSENT)
    }

    /// The node `x`'s leaf hangs from in `tree`, and the parent/child pair
    /// of `T′` whose edge it subdivides, if `tree` is shaped like a
    /// completion: `T′`'s leaf count plus one, `T′`'s node count plus two,
    /// and `x`'s neighbour of degree 3 with a parent/child pair of `T′` as
    /// its other two neighbours.
    fn locate(&self, tree: &Tree, x: TaxonId) -> Option<(NodeId, NodeId, NodeId, NodeId)> {
        // arith: `nodes` counts the live nodes of an arena, far below
        // usize::MAX.
        if x.index() >= tree.universe()
            || tree.leaf_count() != self.taxa
            || tree.node_count() != self.nodes + 2
        {
            return None;
        }
        let xl = tree.leaf(x)?;
        let &[pendant] = tree.adjacent_edges(xl) else {
            return None;
        };
        let m = tree.opposite(pendant, xl);
        let &[e1, e2, e3] = tree.adjacent_edges(m) else {
            return None;
        };
        let mut others = [e1, e2, e3]
            .into_iter()
            .filter(|&e| e != pendant)
            .map(|e| tree.opposite(e, m));
        let (Some(a), Some(b)) = (others.next(), others.next()) else {
            return None;
        };
        if self.holds(xl) || self.holds(m) || !self.holds(a) || !self.holds(b) || a == b {
            return None;
        }
        let (p, c) = match (self.up[a.index()], self.up[b.index()]) {
            (u, _) if u == b.0 => (b, a),
            (_, u) if u == a.0 => (a, b),
            _ => return None,
        };
        Some((xl, m, p, c))
    }

    /// Encodes `tree`, a completion of the frame, into `code`; `false`
    /// (with `code` unspecified) when `tree` is not shaped like one.
    fn complete(&mut self, tree: &Tree, code: &mut Vec<u32>) -> bool {
        let Some(x) = self.taxon else {
            return false;
        };
        let Some((xl, m, p, c)) = self.locate(tree, x) else {
            return false;
        };
        let r = self.rank;
        let bound = tree.node_id_bound();
        grow(&mut self.slots, bound);
        // arith: ranks stay below the node count (see `analyse`).
        self.slots[xl.index()] = Slot::leaf(xl.0, r as u32);
        self.saved_slots.clear();
        self.saved_created.clear();
        // `m` has children `c` and `x`. Every ancestor of `m` up to `t0`'s
        // leaf is recomputed from its two children: stopping where a slot
        // comes out unchanged would be wrong, since a higher node's jump
        // can pass through that node into changed ones.
        let slot = Slot::join(&self.slots, xl.0, c.0);
        self.slots[m.index()] = slot;
        let mut claimed = self.claim(slot.creator, m.0);
        let (mut child, mut was, mut v) = (m.0, c.0, p.0);
        while claimed && v != self.root {
            let [k1, k2] = self.kids[v as usize];
            let slot = Slot::join(&self.slots, child, if k1 == was { k2 } else { k1 });
            self.saved_slots.push((v, self.slots[v as usize]));
            self.slots[v as usize] = slot;
            claimed = self.claim(slot.creator, v);
            (child, was) = (v, v);
            v = self.up[v as usize];
        }

        code.clear();
        code.extend_from_slice(&self.prefix);
        self.work.clear();
        self.work.extend_from_slice(&self.top);
        grow(&mut self.work, bound);
        let ok = claimed
            && (r..self.taxa).all(|i| {
                let leaf = if i == r { xl.0 } else { self.leaves[i] };
                insert(&self.slots, &self.created, &mut self.work, i, leaf)
                    .map(|entry| code.push(entry))
                    .is_ok()
            });
        self.restore();
        ok
    }

    /// Points rank `k`'s `created` entry at node `v`, saving the old entry;
    /// `false` for a rank beyond the completion's.
    fn claim(&mut self, k: u32, v: u32) -> bool {
        let Some(entry) = self.created.get_mut(k as usize) else {
            return false;
        };
        self.saved_created.push((k as usize, *entry));
        *entry = v;
        true
    }

    /// Undoes a completion's patch, newest first.
    fn restore(&mut self) {
        for &(v, slot) in self.saved_slots.iter().rev() {
            self.slots[v as usize] = slot;
        }
        for &(k, node) in self.saved_created.iter().rev() {
            self.created[k] = node;
        }
    }
}

/// Reusable-scratch encoder: keeps its per-node buffers across
/// [`Encoder::encode_into`] calls (the stand container encodes every
/// emitted tree on the worker that found it), and encodes the completions
/// of an announced parent tree ([`Encoder::completions`]) from that tree's
/// cached analysis.
#[derive(Default)]
pub struct Encoder {
    /// Rank of each present taxon, indexed by taxon id.
    rank: Vec<u32>,
    /// Analysis state, indexed by node id.
    slots: Vec<Slot>,
    /// Canonical id of the edge above each node in the partial tree the
    /// replay has reached, indexed by node id.
    top: Vec<u32>,
    /// `created[i]`: the internal node rank `i` created (`i >= 2`).
    created: Vec<u32>,
    /// Preorder from `t0`'s leaf: `(node, edge to its parent)`.
    order: Preorder,
    /// DFS scratch for the preorder.
    stack: Preorder,
    /// The announced parent tree's analysis.
    frame: ParentFrame,
}

impl Encoder {
    /// A fresh encoder (buffers grow on first use).
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Announces the trees encoded next, up to the next announcement:
    /// `Some((parent, taxon))` says each is `parent` with `taxon` inserted
    /// on one of its edges, and `None` withdraws the announcement. The
    /// parent is analysed once here, so each of its completions costs a
    /// walk from the new node up to `t0`'s leaf and a replay of the ranks
    /// from `taxon`'s upward instead of a full encode; one analysis costs
    /// about one full encode. A tree not shaped like a completion, or a
    /// parent the incremental path does not cover (`taxon` is `t0` or
    /// `t1`, fewer than 4 taxa, a tree [`Encoder::encode_into`] rejects),
    /// takes the full encode, with its errors.
    pub fn completions(&mut self, parent: Option<(&Tree, TaxonId)>) {
        self.frame.taxon = None;
        if let Some((tree, x)) = parent {
            let (rank, stack, order) = (&mut self.rank, &mut self.stack, &mut self.order);
            // `None` leaves no frame: every tree takes the full encode.
            let _ = self.frame.analyse(tree, x, rank, stack, order);
        }
    }

    /// Encodes `tree` into its canonical [`TreeVector`] in `O(n)`.
    pub fn encode(&mut self, tree: &Tree) -> Result<TreeVector, P2vError> {
        let mut code = Vec::new();
        self.encode_into(tree, &mut code)?;
        // arith: taxon ids originate from the universe's u32-backed
        // `TaxonId`s, so the round-trip through `usize` cannot truncate.
        let taxa = tree.taxa().iter().map(|t| TaxonId(t as u32)).collect();
        Ok(TreeVector { taxa, code })
    }

    /// Writes `tree`'s canonical code into `code` (cleared first), with no
    /// allocation once the buffers are warm. A completion of the announced
    /// parent tree is patched from its cached analysis; debug builds check
    /// each such code against the full encode.
    pub fn encode_into(&mut self, tree: &Tree, code: &mut Vec<u32>) -> Result<(), P2vError> {
        if self.frame.complete(tree, code) {
            debug_assert_eq!(
                Ok(code.as_slice()),
                self.full(tree).as_deref(),
                "incremental encode of a completion differs from the full encode"
            );
            return Ok(());
        }
        code.clear();
        self.encode_full(tree, code)
    }

    /// The full encode into a fresh vector (the debug cross-check).
    fn full(&mut self, tree: &Tree) -> Result<Vec<u32>, P2vError> {
        let mut code = Vec::new();
        self.encode_full(tree, &mut code)?;
        Ok(code)
    }

    /// The full encode in `O(n)`.
    ///
    /// Rooted at `t0`'s leaf, the internal node that the canonical
    /// insertion of `t_i` created is the one whose two subtrees have
    /// minimum ranks `< i` and exactly `i`, and the edge `t_i` was
    /// inserted on ran from that node's parent down to `below`: the first
    /// node on its min-child chain that existed before `t_i`. Replaying
    /// the insertions in rank order with [`Tree::insert_leaf_on_edge`]'s
    /// id rule then reads each code entry off the edge above `below`.
    fn encode_full(&mut self, tree: &Tree, code: &mut Vec<u32>) -> Result<(), P2vError> {
        let n = tree.leaf_count();
        if n <= 2 {
            return Ok(());
        }
        if !tree.is_binary_unrooted() {
            return Err(P2vError::NotBinary);
        }
        grow(&mut self.rank, tree.universe());
        for (i, t) in tree.taxa().iter().enumerate() {
            // arith: a binary tree on n leaves has 2n-2 nodes with u32 ids,
            // so every rank fits in a u32.
            self.rank[t] = i as u32;
        }
        let leaf = |t: usize| {
            // arith: taxon ids come from u32-backed `TaxonId`s.
            tree.leaf(TaxonId(t as u32))
                .ok_or(P2vError::Internal("present taxon has no leaf"))
        };
        let mut taxa = tree.taxa().iter();
        let (Some(t0), Some(t1)) = (taxa.next(), taxa.next()) else {
            return Err(P2vError::Internal("present taxon has no leaf"));
        };
        // The walk is bounded by the live node count, so a cyclic or
        // disconnected arena shows as a wrong length instead of a hang.
        tree.preorder_into(leaf(t0)?, &mut self.stack, &mut self.order);
        if self.order.len() != tree.node_count() {
            return Err(P2vError::Internal("tree is cyclic or disconnected"));
        }
        grow(&mut self.slots, tree.node_id_bound());
        grow(&mut self.top, tree.node_id_bound());
        self.created.clear();
        self.created.resize(n, UNCLAIMED);
        let (slots, created) = (&mut self.slots, &mut self.created);
        analyse(tree, &self.rank, &self.order, slots, created, |_, _, _| {})?;

        self.top[leaf(t1)?.index()] = 0;
        code.reserve(n - 2);
        for (i, t) in taxa.enumerate() {
            // arith: the iterator has yielded t0 and t1 already.
            let entry = insert(&self.slots, &self.created, &mut self.top, i + 2, leaf(t)?.0)?;
            code.push(entry);
        }
        Ok(())
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

    /// Every valid code on `n` taxa (`(2n-5)!!` of them for `n >= 3`).
    fn all_codes(n: usize) -> Vec<Vec<u32>> {
        let mut codes = vec![Vec::new()];
        for j in 0..n.saturating_sub(2) {
            codes = codes
                .into_iter()
                .flat_map(|c: Vec<u32>| {
                    (0..2 * j as u32 + 1).map(move |e| {
                        let mut c = c.clone();
                        c.push(e);
                        c
                    })
                })
                .collect();
        }
        codes
    }

    #[test]
    fn writer_matches_decode_then_to_newick_on_every_small_code() {
        let plain = ["A", "B", "C", "D", "E", "F", "G", "H"];
        // A space, a quote, '(', ',', ':', ';', '[' and a non-ASCII label
        // (with an ideographic space, which quotes too).
        let quoted = [
            "Homo sapiens",
            "O'Brien",
            "x(y",
            "p,q",
            "k:v",
            "s;t",
            "[c",
            "ザル\u{3000}日本",
        ];
        let mut checked = 0;
        for names in [plain, quoted] {
            for n in 0..=names.len() {
                let mut taxa = TaxonSet::new();
                for name in &names[..n] {
                    taxa.intern(name);
                }
                let ids: Vec<TaxonId> = (0..n as u32).map(TaxonId).collect();
                let mut writer = NewickWriter::new(&taxa);
                let mut line = String::new();
                for code in all_codes(n) {
                    line.clear();
                    writer.write(&code, &mut line).unwrap();
                    let tree = decode(n, &ids, &code).unwrap();
                    assert_eq!(line, to_newick(&tree, &taxa), "code {code:?}");
                    checked += 1;
                }
            }
        }
        // 1 + 1 + 1 + 1 + 3 + 15 + 105 + 945 + 10395 codes per label set.
        assert_eq!(checked, 2 * 11_467);
    }

    #[test]
    fn writer_rejects_bad_codes_like_decode() {
        let taxa = TaxonSet::with_synthetic(5);
        let ids: Vec<TaxonId> = (0..5).map(TaxonId).collect();
        let mut writer = NewickWriter::new(&taxa);
        let bad: [&[u32]; 6] = [
            &[0, 1],
            &[0, 1, 2, 3],
            &[1, 0, 0],
            &[0, 3, 0],
            &[0, 2, 5],
            &[0, 9, 9],
        ];
        for code in bad {
            let mut line = String::new();
            let got = writer.write(code, &mut line).err();
            assert!(got.is_some(), "{code:?} accepted");
            assert_eq!(got, decode(5, &ids, code).err(), "{code:?}");
        }
        // A rejected code leaves nothing behind for the next one.
        let mut line = String::new();
        writer.write(&[0, 2, 4], &mut line).unwrap();
        assert_eq!(
            line,
            to_newick(&decode(5, &ids, &[0, 2, 4]).unwrap(), &taxa)
        );
    }

    #[test]
    fn writer_renders_a_deep_caterpillar_without_recursion() {
        // Every t_i inserted on the edge above t1: one nesting level per
        // taxon, far deeper than a recursive renderer's stack allows.
        let n = 200_000u32;
        let taxa = TaxonSet::with_synthetic(n as usize);
        let name = |t: u32| taxa.name(TaxonId(t));
        let code: Vec<u32> = (2..n).map(|i| if i == 2 { 0 } else { 2 * i - 5 }).collect();
        let mut line = String::new();
        NewickWriter::new(&taxa).write(&code, &mut line).unwrap();
        let head = format!(
            "({},{}{},{})",
            name(0),
            "(".repeat(n as usize - 3),
            name(1),
            name(n - 1)
        );
        assert!(line.starts_with(&head), "{}", &line[..80]);
        assert!(line.ends_with(&format!(",{}),{});", name(3), name(2))));
        assert_eq!(line.matches('(').count(), n as usize - 2);
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
