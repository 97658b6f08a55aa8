//! Edge-indexed admissibility kernels — flat labels patched locally.
//!
//! Per constraint `i`, every edge of the agile tree `A` and every edge of
//! `T_i` carries a label naming the common-subtree edge it projects onto.
//! The target `b̂(t)` of a missing taxon is the label of its pendant edge
//! in `T_i`, so the admissibility test `map[e] == b̂(t)` is one `u64`
//! compare per (edge, constraint), with no bitset, hashing or allocation
//! behind it.
//!
//! * **Starting labels.** A full build labels both trees with clade keys
//!   ([`project_edges_into`]) and roots them at the leaf of the reference
//!   taxon `r = min C`. It records per edge which endpoint faces `r` and
//!   whether common taxa lie beyond it, i.e. whether the edge is on the
//!   Steiner tree of `C` or hangs off it. So "which side is far" never
//!   needs a traversal.
//! * **Insertions outside `T_i`** leave `C` alone. The three edges around
//!   the subdivision take the subdivided edge's label: an O(1) patch that
//!   needs no undo, since freed edge slots are never read while dead.
//! * **Admissible insertions of `x ∈ T_i`** (`map[ins.edge] == b̂(x) = ê`)
//!   split `ê` where `x` joins it, in `A` and in `T_i` alike. The part of
//!   `ê` on `r`'s side keeps `ê`. The far part of `ê`'s Steiner path, with
//!   everything hanging off it, takes a fresh label `F`. The new path to
//!   `x`, with everything hanging off it, takes a fresh label `P`: `x`'s
//!   whole hanging subtree, or in `A` only `x`'s pendant when `ins.edge`
//!   lies on `ê`'s Steiner path. Only the preimage of `ê` is touched. This
//!   is exact because every state the search reaches has `A|C' = T_i|C'`,
//!   and both trees split that one topology the same way.
//! * **Full builds** remain for the `|C| ≤ 1 → 2` transition and for
//!   insertions the constraint does not admit, which the search never
//!   makes (tests' random-edge walks do; the CLI rejects checkpoint
//!   branches the restored state does not admit). The kernel stays exact
//!   on every state.
//! * **Undo** pops a LIFO log of overwritten slots and takes the fresh
//!   labels back, so labels are a function of the insertion path.
//!
//! Labels only need to agree within one kernel instance:
//! [`EdgeIndexedMaps::fork_live`] clones them, and a kernel built from a
//! serialized state starts again from clade keys.
//! [`crate::config::MappingMode::Recompute`] stays available as the oracle
//! the conformance matrix checks every kernel against.

use crate::mapping::{project_edges_into, CladeKey, ProjectionScratch};
use crate::problem::StandProblem;
use phylo::bitset::BitSet;
use phylo::taxa::TaxonId;
use phylo::tree::{EdgeId, Insertion, NodeId, Tree};

/// Edge flag: the edge's first endpoint (`Tree::endpoints(e).0`) faces the
/// reference taxon.
const A_UP: u8 = 1;
/// Edge flag: common taxa lie beyond the edge, so it is on the Steiner
/// tree of `C` rather than hanging off it.
const STEINER: u8 = 2;
/// [`EdgeKernel::pendant`] entry of a taxon the constraint lacks.
const NO_EDGE: u32 = u32::MAX;

/// Labels and orientation of one tree's edges, indexed by `EdgeId`.
#[derive(Clone, Default)]
struct Labels {
    key: Vec<CladeKey>,
    flags: Vec<u8>,
}

impl Labels {
    /// Full build: clade keys, oriented toward the leaf of `min C`. Returns
    /// `false` when `|C| ≤ 1`, leaving the labels meaningless.
    fn build(&mut self, tree: &Tree, c: &BitSet, scratch: &mut ProjectionScratch) -> bool {
        if !project_edges_into(tree, c, scratch, &mut self.key) {
            return false;
        }
        self.flags.clear();
        self.flags.resize(tree.edge_id_bound(), 0);
        for (e, child, steiner) in scratch.rooted_edges() {
            let mut flags = if steiner { STEINER } else { 0 };
            if tree.endpoints(e).0 != child {
                flags |= A_UP;
            }
            self.flags[e.index()] = flags;
        }
        true
    }

    /// The endpoint of `e` away from the reference taxon.
    #[inline]
    fn child(&self, tree: &Tree, e: EdgeId) -> NodeId {
        let (a, b) = tree.endpoints(e);
        if self.flags[e.index()] & A_UP != 0 {
            b
        } else {
            a
        }
    }

    /// The endpoint of `e` toward the reference taxon.
    #[inline]
    fn parent(&self, tree: &Tree, e: EdgeId) -> NodeId {
        tree.opposite(e, self.child(tree, e))
    }

    /// The edge from `v` toward the reference taxon (`None` at its leaf).
    #[inline]
    fn parent_edge(&self, tree: &Tree, v: NodeId) -> Option<EdgeId> {
        tree.adjacent_edges(v)
            .iter()
            .copied()
            .find(|&g| self.child(tree, g) == v)
    }

    /// The O(1) patch of the agile tree after `ins` subdivided `ins.edge`:
    /// the far half continues the edge and the pendant hangs off it, so
    /// both take its label.
    #[inline]
    fn subdivide(&mut self, ins: &Insertion) {
        let hi = ins.far_half.index().max(ins.pendant.index());
        if self.key.len() <= hi {
            self.key.resize(hi + 1, CladeKey::NONE);
            self.flags.resize(hi + 1, 0);
        }
        let e = ins.edge.index();
        self.key[ins.far_half.index()] = self.key[e];
        self.key[ins.pendant.index()] = self.key[e];
        // `ins.edge` keeps its first endpoint and the far half starts at
        // the midpoint, so both face the reference the same way; the
        // pendant starts at the midpoint, which faces it.
        self.flags[ins.far_half.index()] = self.flags[e];
        self.flags[ins.pendant.index()] = A_UP;
    }

    /// Splits the common-subtree edge labelled `old` where a new common
    /// taxon joins it through its pendant edge `pendant` (see the module
    /// docs): the part beyond the junction takes `far`, the new path with
    /// everything hanging off it takes `path`. Overwritten slots go to
    /// `log`, tagged with `cons`.
    fn split(
        &mut self,
        tree: &Tree,
        pendant: EdgeId,
        [old, far, path]: [CladeKey; 3],
        cons: bool,
        log: &mut Vec<Logged>,
        stack: &mut Vec<EdgeId>,
    ) {
        // Climb from the pendant to `old`'s Steiner path: `top` is the
        // hanging edge where the new path leaves it, at node `junction`.
        let mut top = pendant;
        let junction = loop {
            let v = self.parent(tree, top);
            let Some(up) = self.parent_edge(tree, v) else {
                debug_assert!(false, "hanging edge with no Steiner ancestor");
                return;
            };
            if self.flags[up.index()] & STEINER != 0 {
                break v;
            }
            top = up;
        };
        // Below the junction the Steiner path goes on through its other
        // child edge.
        let below = tree
            .adjacent_edges(junction)
            .iter()
            .copied()
            .find(|&g| g != top && self.child(tree, g) != junction);
        debug_assert!(below.is_some(), "junction off the Steiner path");
        if let Some(below) = below {
            self.relabel(tree, below, [old, far], cons, log, stack);
        }
        self.relabel(tree, top, [old, path], cons, log, stack);
        // The new path joins the Steiner tree; `relabel` logged its slots.
        let mut e = pendant;
        while e != top {
            self.flags[e.index()] |= STEINER;
            match self.parent_edge(tree, self.parent(tree, e)) {
                Some(up) => e = up,
                None => return,
            }
        }
        self.flags[top.index()] |= STEINER;
    }

    /// Gives `new` to `start` and to every edge labelled `old` beyond it,
    /// logging each overwritten slot.
    fn relabel(
        &mut self,
        tree: &Tree,
        start: EdgeId,
        [old, new]: [CladeKey; 2],
        cons: bool,
        log: &mut Vec<Logged>,
        stack: &mut Vec<EdgeId>,
    ) {
        stack.clear();
        stack.push(start);
        while let Some(e) = stack.pop() {
            let i = e.index();
            if self.key[i] != old {
                continue;
            }
            log.push(Logged {
                key: old,
                edge: e,
                flags: self.flags[i],
                cons,
            });
            self.key[i] = new;
            let v = self.child(tree, e);
            stack.extend(tree.adjacent_edges(v).iter().filter(|&&g| g != e));
        }
    }
}

/// One label slot overwritten by a local split, restored on undo.
struct Logged {
    key: CladeKey,
    edge: EdgeId,
    flags: u8,
    /// A slot of `T_i` rather than of the agile tree.
    cons: bool,
}

/// Everything a full build produces for one constraint.
#[derive(Clone, Default)]
struct Labelling {
    /// `|C| ≤ 1`: no common-subtree edges; every branch is admissible and
    /// the labels are meaningless.
    all: bool,
    /// Fresh labels handed out since the last full build.
    fresh: u32,
    /// Labels of the agile tree's edges.
    agile: Labels,
    /// Labels of the constraint tree's edges.
    cons: Labels,
}

impl Labelling {
    fn build(&mut self, agile: &Tree, cons: &Tree, c: &BitSet, scratch: &mut ProjectionScratch) {
        self.fresh = 0;
        self.all = !self.agile.build(agile, c, scratch) || !self.cons.build(cons, c, scratch);
    }
}

/// Label state for one constraint tree.
#[derive(Clone)]
struct EdgeKernel {
    /// `C = W ∩ Y_i`, kept in sync with the agile tree's taxa.
    c: BitSet,
    /// `T_i`'s pendant edge per taxon id (`NO_EDGE` for taxa it lacks).
    pendant: Vec<u32>,
    lab: Labelling,
}

impl EdgeKernel {
    /// `b̂(t)`: the label of `t`'s pendant edge in `T_i` while that edge
    /// hangs off the common subtree, i.e. while `t ∉ C`.
    #[inline]
    fn target(&self, taxon: usize) -> CladeKey {
        if self.lab.all {
            return CladeKey::NONE;
        }
        match self.pendant.get(taxon) {
            Some(&p) if p != NO_EDGE && self.lab.cons.flags[p as usize] & STEINER == 0 => {
                self.lab.cons.key[p as usize]
            }
            _ => CladeKey::NONE,
        }
    }

    /// Splits `ê = map[ins.edge]` in both trees for an admissible `ins`.
    fn split(
        &mut self,
        agile: &Tree,
        cons: &Tree,
        ins: &Insertion,
        log: &mut Vec<Logged>,
        stack: &mut Vec<EdgeId>,
    ) {
        let lab = &mut self.lab;
        let labels = [
            lab.agile.key[ins.edge.index()],
            CladeKey::fresh(lab.fresh),
            CladeKey::fresh(lab.fresh + 1),
        ];
        lab.fresh += 2;
        lab.agile
            .split(agile, ins.pendant, labels, false, log, stack);
        let pendant = EdgeId(self.pendant[ins.taxon.index()]);
        lab.cons.split(cons, pendant, labels, true, log, stack);
    }
}

/// How one insertion changed one constraint's kernel.
enum Change {
    /// `C` grew but still has at most one taxon.
    Grow,
    /// A local split; its overwritten slots start at this log position.
    Split(usize),
    /// A full build; the labelling it replaced.
    Rebuild(Labelling),
}

/// Undo record for one constraint containing an inserted taxon.
struct UndoEntry {
    constraint: u32,
    change: Change,
}

/// The live edge-indexed labels for every constraint plus the LIFO undo
/// state and the reused walk buffers.
pub struct EdgeIndexedMaps {
    per: Vec<EdgeKernel>,
    /// Undo records of every live insertion, oldest first.
    undo: Vec<UndoEntry>,
    /// Where each live insertion's records start in `undo`.
    frames: Vec<usize>,
    /// Label slots overwritten by local splits, oldest first.
    log: Vec<Logged>,
    scratch: ProjectionScratch,
    /// Edge stack of the relabelling walks.
    stack: Vec<EdgeId>,
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
                let mut pendant = vec![NO_EDGE; cons.universe()];
                for (leaf, t) in cons.leaves() {
                    if let Some(e) = cons.adjacent_edges(leaf).first() {
                        pendant[t.index()] = e.0;
                    }
                }
                let mut lab = Labelling::default();
                lab.build(agile, cons, &c, &mut scratch);
                EdgeKernel { c, pendant, lab }
            })
            .collect();
        EdgeIndexedMaps::with_kernels(per)
    }

    /// Kernels with empty undo state and fresh scratch.
    fn with_kernels(per: Vec<EdgeKernel>) -> Self {
        EdgeIndexedMaps {
            per,
            undo: Vec::new(),
            frames: Vec::new(),
            log: Vec::new(),
            scratch: ProjectionScratch::new(),
            stack: Vec::new(),
        }
    }

    /// True if constraint `ci` admits every branch (`|C| ≤ 1`).
    #[inline]
    pub fn all_admissible(&self, ci: usize) -> bool {
        self.per[ci].lab.all
    }

    /// The target key `b̂(t)` of `taxon` under constraint `ci`, or `NONE`
    /// when the constraint admits every branch or does not pin the taxon.
    #[inline]
    pub fn target_key(&self, ci: usize, taxon: TaxonId) -> CladeKey {
        self.per[ci].target(taxon.index())
    }

    /// The projection key of live edge `e` under constraint `ci`.
    #[inline]
    pub fn projection_key(&self, ci: usize, e: EdgeId) -> CladeKey {
        self.per[ci]
            .lab
            .agile
            .key
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
        self.frames.push(self.undo.len());
    }

    /// Patches the kernels after `agile` gained the insertion `ins`.
    pub fn after_insert(&mut self, problem: &StandProblem, agile: &Tree, ins: &Insertion) {
        let x = ins.taxon.index();
        self.frames.push(self.undo.len());
        for (ci, k) in self.per.iter_mut().enumerate() {
            if !k.lab.all {
                k.lab.agile.subdivide(ins);
            }
            let cons = &problem.constraints()[ci];
            if !cons.taxa().contains(x) {
                continue;
            }
            let target = k.target(x);
            k.c.insert(x);
            let change = if !target.is_none() && k.lab.agile.key[ins.edge.index()] == target {
                let mark = self.log.len();
                k.split(agile, cons, ins, &mut self.log, &mut self.stack);
                Change::Split(mark)
            } else if k.lab.all && k.c.count() < 2 {
                Change::Grow
            } else {
                // The |C| 1 → 2 transition, or an insertion this
                // constraint does not admit.
                let mut next = Labelling::default();
                next.build(agile, cons, &k.c, &mut self.scratch);
                Change::Rebuild(std::mem::replace(&mut k.lab, next))
            };
            self.undo.push(UndoEntry {
                constraint: ci as u32,
                change,
            });
        }
    }

    /// Clones the *live* kernel state only — the labels — with empty undo
    /// state. Sound for task handoff because a resumed task never undoes
    /// below its resume point: the undo records it pushes from here on
    /// are exactly the ones it will pop.
    pub fn fork_live(&self) -> Self {
        EdgeIndexedMaps::with_kernels(self.per.clone())
    }

    /// Reverts the most recent [`EdgeIndexedMaps::after_insert`]. Call
    /// *before* removing the insertion from the tree (LIFO discipline).
    pub fn before_remove(&mut self, ins: &Insertion) {
        // xlint: allow(panic-freedom) — undo underflow means the LIFO discipline broke; continuing would enumerate wrong stands
        let start = self.frames.pop().expect("undo stack underflow");
        for entry in self.undo.drain(start..).rev() {
            let k = &mut self.per[entry.constraint as usize];
            k.c.remove(ins.taxon.index());
            match entry.change {
                Change::Grow => {}
                Change::Split(mark) => {
                    k.lab.fresh -= 2;
                    for slot in self.log.drain(mark..).rev() {
                        let side = if slot.cons {
                            &mut k.lab.cons
                        } else {
                            &mut k.lab.agile
                        };
                        side.key[slot.edge.index()] = slot.key;
                        side.flags[slot.edge.index()] = slot.flags;
                    }
                }
                Change::Rebuild(prev) => k.lab = prev,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::tests::assert_keys_match_splits;
    use crate::mapping::{attachment_map, missing_taxon_targets};
    use phylo::newick::parse_forest;
    use phylo::ops::compatible;

    fn problem(newicks: &[&str]) -> StandProblem {
        let (_, trees) = parse_forest(newicks.iter().copied()).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    /// Compares the edge-indexed kernels against freshly recomputed
    /// Arc-based projections: the same `C` and all-admissible flag, and
    /// keys that name the same common-subtree edges as the recomputed
    /// splits. Targets join the comparison only under constraints the
    /// agile tree agrees with, since keys of two trees are comparable only
    /// then.
    fn assert_matches_recompute(ei: &EdgeIndexedMaps, problem: &StandProblem, agile: &Tree) {
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
                let mut entries: Vec<_> = agile
                    .edges()
                    .map(|e| (ei.projection_key(ci, e), fresh_map.get(e)))
                    .collect();
                if compatible(agile, cons) {
                    entries.extend(targets);
                }
                assert_keys_match_splits(&entries, &format!("constraint {ci}"));
            }
        }
    }

    /// Per constraint: `C`, the all flag, the fresh counter and the labels
    /// and flags of every live edge of both trees.
    type Dump = Vec<(BitSet, bool, u32, Vec<(CladeKey, u8)>, Vec<(CladeKey, u8)>)>;

    fn dump(ei: &EdgeIndexedMaps, problem: &StandProblem, agile: &Tree) -> Dump {
        let side = |labels: &Labels, tree: &Tree| {
            tree.edges()
                .map(|e| {
                    let key = labels.key.get(e.index()).copied();
                    let flags = labels.flags.get(e.index()).copied();
                    (key.unwrap_or(CladeKey::NONE), flags.unwrap_or(0))
                })
                .collect()
        };
        ei.per
            .iter()
            .zip(problem.constraints())
            .map(|(k, cons)| {
                let lab = &k.lab;
                let (agile, cons) = (side(&lab.agile, agile), side(&lab.cons, cons));
                (k.c.clone(), lab.all, lab.fresh, agile, cons)
            })
            .collect()
    }

    /// How the last insertion changed constraint `ci`.
    fn last_change(ei: &EdgeIndexedMaps, ci: u32) -> &'static str {
        let start = *ei.frames.last().unwrap();
        match ei.undo[start..].iter().find(|u| u.constraint == ci) {
            None => "patch",
            Some(UndoEntry { change, .. }) => match change {
                Change::Grow => "grow",
                Change::Split(_) => "split",
                Change::Rebuild(_) => "rebuild",
            },
        }
    }

    /// The node the leaf of taxon `t` hangs from.
    fn hub(tree: &Tree, t: u32) -> NodeId {
        let leaf = tree.leaf(TaxonId(t)).unwrap();
        tree.opposite(tree.adjacent_edges(leaf)[0], leaf)
    }

    fn pendant_of(tree: &Tree, t: u32) -> EdgeId {
        tree.adjacent_edges(tree.leaf(TaxonId(t)).unwrap())[0]
    }

    fn edge_between(tree: &Tree, u: NodeId, v: NodeId) -> EdgeId {
        let mut adj = tree.adjacent_edges(u).iter().copied();
        adj.find(|&e| tree.opposite(e, u) == v).unwrap()
    }

    /// The agile tree of the rule cases, which is also constraint 0. Taxon
    /// ids follow first appearance: A 0, Z 1, B 2, C 3, D 4, Y 5, then E 6.
    /// Parsing points every edge away from the split root edge, so every
    /// edge's first endpoint faces A except A's own pendant.
    const AGILE: &str = "((A,(Z,B)),(C,(D,Y)));";
    const E: u32 = 6;

    /// One case of the rule: the agile tree above with `cons` as
    /// constraint 1, `E` inserted on `edge(agile)`. Checks the kernels
    /// against recompute before and after, hands `check` constraint 1's
    /// label of the edge before the insertion, requires undo to restore
    /// the exact prior state, and returns what the insertion did to
    /// constraint 1.
    fn rule_case(
        cons: &str,
        edge: impl Fn(&Tree) -> EdgeId,
        check: impl Fn(&EdgeIndexedMaps, &Tree, &Insertion, CladeKey),
    ) -> &'static str {
        let p = problem(&[AGILE, cons]);
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        assert_matches_recompute(&ei, &p, &agile);
        let before = dump(&ei, &p, &agile);
        let edge = edge(&agile);
        let old = ei.projection_key(1, edge);
        let ins = agile.insert_leaf_on_edge(TaxonId(E), edge);
        ei.after_insert(&p, &agile, &ins);
        assert_matches_recompute(&ei, &p, &agile);
        check(&ei, &agile, &ins, old);
        let change = last_change(&ei, 1);
        ei.before_remove(&ins);
        agile.remove_insertion(&ins);
        assert!(dump(&ei, &p, &agile) == before, "undo is not exact");
        change
    }

    /// The labels constraint 1 gives `ins`'s three edges, as `[ê, F, P]`
    /// indices: which of the old label and the two fresh ones each got.
    fn roles(ei: &EdgeIndexedMaps, ins: &Insertion, old: CladeKey) -> [char; 3] {
        [ins.edge, ins.far_half, ins.pendant].map(|e| match ei.projection_key(1, e) {
            k if k == old => 'ê',
            k if k == CladeKey::fresh(0) => 'F',
            k if k == CladeKey::fresh(1) => 'P',
            _ => '?',
        })
    }

    /// ê = the common edge above C. Its Steiner path runs from the hub of
    /// A and B through the hub of C to C's leaf; the (D,Y) cherry hangs
    /// off it.
    const E_NEXT_TO_C: &str = "((A,B),(C,E));";

    #[test]
    fn split_on_steiner_path_with_edge_on_root_side() {
        let change = rule_case(
            E_NEXT_TO_C,
            |a| edge_between(a, hub(a, 0), hub(a, 3)),
            |ei, a, ins, old| {
                // The edge's first endpoint faces A, so it keeps ê.
                let flags = ei.per[1].lab.agile.flags[ins.edge.index()];
                assert_eq!(flags, A_UP | STEINER);
                assert_eq!(roles(ei, ins, old), ['ê', 'F', 'P']);
                // The far part takes F with everything hanging off it.
                for t in [3, 4, 5] {
                    assert_eq!(ei.projection_key(1, pendant_of(a, t)), CladeKey::fresh(0));
                }
            },
        );
        assert_eq!(change, "split");
    }

    #[test]
    fn split_on_steiner_path_with_edge_on_far_side() {
        // ê = A's pendant: E sister to A. The pendant's first endpoint is
        // A's hub, away from A, so the far half keeps ê.
        let change = rule_case(
            "((A,E),(B,C));",
            |a| pendant_of(a, 0),
            |ei, _, ins, old| {
                let flags = ei.per[1].lab.agile.flags[ins.edge.index()];
                assert_eq!(flags, STEINER);
                assert_eq!(roles(ei, ins, old), ['F', 'ê', 'P']);
            },
        );
        assert_eq!(change, "split");
    }

    #[test]
    fn split_in_subtree_hanging_off_the_path() {
        // E lands inside the (D,Y) cherry: the whole cherry becomes the
        // path to E, the rest of ê's path beyond C's hub takes F.
        let change = rule_case(
            E_NEXT_TO_C,
            |a| pendant_of(a, 4),
            |ei, a, ins, old| {
                assert_eq!(roles(ei, ins, old), ['P', 'P', 'P']);
                let cherry = edge_between(a, hub(a, 3), hub(a, 5));
                assert_eq!(ei.projection_key(1, cherry), CladeKey::fresh(1));
                assert_eq!(ei.projection_key(1, pendant_of(a, 5)), CladeKey::fresh(1));
                assert_eq!(ei.projection_key(1, pendant_of(a, 3)), CladeKey::fresh(0));
                let root_side = edge_between(a, hub(a, 0), hub(a, 3));
                assert_eq!(ei.projection_key(1, root_side), old);
                // The new path is on the Steiner tree now; the rest of
                // the cherry still hangs.
                let flags = &ei.per[1].lab.agile.flags;
                for e in [cherry, ins.edge, ins.pendant] {
                    assert_ne!(flags[e.index()] & STEINER, 0, "{e:?}");
                }
                for e in [ins.far_half, pendant_of(a, 5)] {
                    assert_eq!(flags[e.index()] & STEINER, 0, "{e:?}");
                }
            },
        );
        assert_eq!(change, "split");
    }

    #[test]
    fn split_where_the_edge_ends_at_a_common_leaf() {
        // E on C's own pendant: the far part is the half ending at C.
        let change = rule_case(
            E_NEXT_TO_C,
            |a| pendant_of(a, 3),
            |ei, a, ins, old| {
                assert_eq!(roles(ei, ins, old), ['ê', 'F', 'P']);
                for t in [4, 5] {
                    assert_eq!(ei.projection_key(1, pendant_of(a, t)), old);
                }
            },
        );
        assert_eq!(change, "split");
    }

    #[test]
    fn transition_from_one_common_taxon_builds_in_full() {
        // Constraint 1 shares only A with the agile tree (all-admissible);
        // inserting E grows C to two taxa and must flip the flag with a
        // full build. Constraint 2 shares nothing, so E only grows its C.
        let p = problem(&[AGILE, "((A,E),(F,G));", "((E,H),(I,J));"]);
        let mut agile = p.constraints()[0].clone();
        let mut ei = EdgeIndexedMaps::new(&p, &agile);
        assert!(ei.all_admissible(1) && ei.all_admissible(2));
        let before = dump(&ei, &p, &agile);
        let ins = agile.insert_leaf_on_edge(TaxonId(E), pendant_of(&agile, 1));
        ei.after_insert(&p, &agile, &ins);
        assert!(!ei.all_admissible(1) && ei.all_admissible(2));
        assert_eq!(last_change(&ei, 1), "rebuild");
        assert_eq!(last_change(&ei, 2), "grow");
        assert_matches_recompute(&ei, &p, &agile);
        ei.before_remove(&ins);
        agile.remove_insertion(&ins);
        assert!(ei.all_admissible(1));
        assert!(dump(&ei, &p, &agile) == before, "undo is not exact");
    }

    #[test]
    fn inadmissible_insert_takes_the_rebuild_fallback() {
        // Z's pendant is outside ê's preimage: the agile tree no longer
        // agrees with constraint 1, which rebuilds from clade keys.
        let change = rule_case(
            E_NEXT_TO_C,
            |a| pendant_of(a, 1),
            |ei, _, _, _| assert_eq!(ei.per[1].lab.fresh, 0),
        );
        assert_eq!(change, "rebuild");
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
        let before = dump(&ei, &p, &agile);
        for &edge in &edges {
            let ins = agile.insert_leaf_on_edge(e_taxon, edge);
            ei.after_insert(&p, &agile, &ins);
            assert_matches_recompute(&ei, &p, &agile);
            ei.before_remove(&ins);
            agile.remove_insertion(&ins);
            assert!(dump(&ei, &p, &agile) == before, "undo is not exact");
        }
    }
}
