//! The mutable search state of Algorithm 1: the agile tree, the set of
//! remaining taxa, and the admissibility queries against every constraint.
//!
//! This is the paper's *state*: "the current agile tree, together with the
//! set of constraint trees, the common subtrees, and the corresponding
//! mappings at a given point in time" (§II-A). In the reference
//! [`MappingMode::Recompute`](crate::config::MappingMode) engine the
//! projections are recomputed per state; the incremental engine patches
//! them on insert/remove.

use crate::config::{MappingMode, TaxonOrderRule};
use crate::edge_index::EdgeIndexedMaps;
use crate::incremental::IncrementalMaps;
use crate::mapping::{attachment_map, missing_taxon_targets, AttachMap, CladeKey};
use crate::problem::StandProblem;
use phylo::split::Split;
use phylo::taxa::TaxonId;
use phylo::tree::{EdgeId, Insertion, Tree};

/// Undo record for one taxon insertion (tree edit + taxon bookkeeping).
#[derive(Clone, Debug)]
pub struct AppliedStep {
    /// The tree edit.
    pub ins: Insertion,
    /// Where in the remaining list the taxon sat (restored on undo).
    remaining_idx: usize,
}

impl AppliedStep {
    /// The inserted taxon.
    pub fn taxon(&self) -> TaxonId {
        self.ins.taxon
    }

    /// The edge that was subdivided.
    pub fn edge(&self) -> EdgeId {
        self.ins.edge
    }
}

/// The choice produced by [`SearchState::select_next`].
#[derive(Clone, Debug)]
pub struct NextTaxon {
    /// The taxon to insert at this state.
    pub taxon: TaxonId,
    /// Its admissible branches, in increasing edge-id order.
    pub branches: Vec<EdgeId>,
}

/// Tie-breaking policy of the dynamic selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DynamicTie {
    SmallestId,
    MostConstraints,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OrderEngine {
    Dynamic(DynamicTie),
    Static,
}

/// Why [`StateSnapshot::from_parts`] rejected a serialized state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The order-engine wire byte is not 0, 1 or 2.
    UnknownOrderCode(u8),
    /// The agile tree addresses a taxon universe of another size.
    UniverseMismatch {
        /// The agile tree's universe size.
        agile: usize,
        /// The problem's universe size.
        problem: usize,
    },
    /// The agile tree is not binary unrooted.
    NotBinary,
    /// A remaining taxon is outside the universe, already in the agile
    /// tree, or listed twice.
    RemainingNotMissing(u32),
    /// This many taxa missing from the agile tree are not remaining.
    MissingNotRemaining(usize),
    /// The agile tree disagrees with this constraint on their common taxa,
    /// a state the search never reaches.
    ConflictsWithConstraint(usize),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnknownOrderCode(c) => write!(f, "unknown order-engine code {c}"),
            SnapshotError::UniverseMismatch { agile, problem } => write!(
                f,
                "agile tree universe {agile} does not match the problem's {problem}"
            ),
            SnapshotError::NotBinary => write!(f, "agile tree is not binary unrooted"),
            SnapshotError::RemainingNotMissing(t) => write!(
                f,
                "remaining taxon {t} is out of range, already in the agile tree or repeated"
            ),
            SnapshotError::MissingNotRemaining(n) => {
                write!(f, "{n} missing taxa absent from the remaining list")
            }
            SnapshotError::ConflictsWithConstraint(i) => write!(
                f,
                "agile tree conflicts with constraint {i} on their common taxa"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// An owned, problem-independent copy of a [`SearchState`]: the agile
/// tree, the remaining taxa and the *live* projection engine state (with
/// empty undo stacks). This is the replay-free task-handoff payload: a
/// thief rebuilds a working state in O(state) via
/// [`SearchState::resume`] instead of replaying the path through the
/// mapping kernels.
pub struct StateSnapshot {
    agile: Tree,
    remaining: Vec<TaxonId>,
    order: OrderEngine,
    engine: MapsEngine,
}

impl StateSnapshot {
    /// A minimal placeholder snapshot (empty tree, no taxa, recompute
    /// engine) for scheduler tests and probes that never resume it.
    pub fn sentinel() -> Self {
        StateSnapshot {
            agile: Tree::new(0),
            remaining: Vec::new(),
            order: OrderEngine::Static,
            engine: MapsEngine::Recompute,
        }
    }

    /// Number of taxa already inserted beyond nothing — used only for
    /// diagnostics (`snapshot_depth` in task spans).
    pub fn remaining_count(&self) -> usize {
        self.remaining.len()
    }

    /// The agile tree of this snapshot (for serialization).
    pub fn agile(&self) -> &Tree {
        &self.agile
    }

    /// The remaining taxa in selection order (for serialization).
    pub fn remaining(&self) -> &[TaxonId] {
        &self.remaining
    }

    /// One-byte wire code of the order engine (see
    /// [`StateSnapshot::from_parts`] for the mapping).
    pub fn order_code(&self) -> u8 {
        match self.order {
            OrderEngine::Static => 0,
            OrderEngine::Dynamic(DynamicTie::SmallestId) => 1,
            OrderEngine::Dynamic(DynamicTie::MostConstraints) => 2,
        }
    }

    /// The [`MappingMode`] whose engine backs this snapshot.
    pub fn mapping_mode(&self) -> MappingMode {
        match self.engine {
            MapsEngine::Recompute => MappingMode::Recompute,
            MapsEngine::Incremental(_) => MappingMode::Incremental,
            MapsEngine::EdgeIndexed(_) => MappingMode::EdgeIndexed,
        }
    }

    /// Rebuilds a snapshot from its serialized parts, constructing the
    /// projection engine *fresh* from `(problem, agile)` — the engines are
    /// deterministic functions of the problem and the current agile tree
    /// (their constructors recompute every map from scratch), so checkpoint
    /// files never serialize kernel internals. `order_code` is the wire
    /// byte from [`StateSnapshot::order_code`]: 0 = static, 1 = dynamic
    /// with smallest-id tie-break, 2 = dynamic with most-constraints
    /// tie-break.
    ///
    /// The parts cross process boundaries through checkpoint files, so they
    /// are validated as hostile input: the universe must match the problem,
    /// the remaining taxa must be exactly the taxa missing from the agile
    /// tree, the agile tree must be binary, and it must agree with every
    /// constraint on their common taxa
    /// ([`StandProblem::conflicting_constraint`]) — the invariant of every
    /// search state, without which the edge-indexed kernels would answer
    /// admissibility queries wrongly.
    pub fn from_parts(
        problem: &StandProblem,
        agile: Tree,
        remaining: Vec<TaxonId>,
        order_code: u8,
        mapping: MappingMode,
    ) -> Result<StateSnapshot, SnapshotError> {
        let order = match order_code {
            0 => OrderEngine::Static,
            1 => OrderEngine::Dynamic(DynamicTie::SmallestId),
            2 => OrderEngine::Dynamic(DynamicTie::MostConstraints),
            other => return Err(SnapshotError::UnknownOrderCode(other)),
        };
        if agile.universe() != problem.universe() {
            return Err(SnapshotError::UniverseMismatch {
                agile: agile.universe(),
                problem: problem.universe(),
            });
        }
        if !agile.is_binary_unrooted() {
            return Err(SnapshotError::NotBinary);
        }
        let mut missing = problem.all_taxa().difference(agile.taxa());
        for &t in &remaining {
            if t.index() >= problem.universe() || !missing.contains(t.index()) {
                return Err(SnapshotError::RemainingNotMissing(t.0));
            }
            missing.remove(t.index());
        }
        if missing.count() != 0 {
            return Err(SnapshotError::MissingNotRemaining(missing.count()));
        }
        if let Some(i) = problem.conflicting_constraint(&agile) {
            return Err(SnapshotError::ConflictsWithConstraint(i));
        }
        let engine = match mapping {
            MappingMode::Recompute => MapsEngine::Recompute,
            MappingMode::Incremental => {
                MapsEngine::Incremental(IncrementalMaps::new(problem, &agile))
            }
            MappingMode::EdgeIndexed => {
                MapsEngine::EdgeIndexed(Box::new(EdgeIndexedMaps::new(problem, &agile)))
            }
        };
        Ok(StateSnapshot {
            agile,
            remaining,
            order,
            engine,
        })
    }
}

impl Clone for StateSnapshot {
    fn clone(&self) -> Self {
        StateSnapshot {
            agile: self.agile.clone(),
            remaining: self.remaining.clone(),
            order: self.order,
            engine: match &self.engine {
                MapsEngine::Recompute => MapsEngine::Recompute,
                MapsEngine::Incremental(inc) => MapsEngine::Incremental(inc.fork_live()),
                MapsEngine::EdgeIndexed(ei) => MapsEngine::EdgeIndexed(Box::new(ei.fork_live())),
            },
        }
    }
}

impl std::fmt::Debug for StateSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateSnapshot")
            .field("leaves", &self.agile.leaf_count())
            .field("remaining", &self.remaining.len())
            .finish_non_exhaustive()
    }
}

/// The projection-maintenance engine backing admissibility queries — the
/// runtime counterpart of [`MappingMode`].
enum MapsEngine {
    /// Rebuild projections per query batch (the oracle).
    Recompute,
    /// Arc-based maps patched on insert/remove.
    Incremental(IncrementalMaps),
    /// Flat edge-indexed kernels (the default).
    EdgeIndexed(Box<EdgeIndexedMaps>),
}

/// Mutable Gentrius search state over a borrowed problem.
pub struct SearchState<'p> {
    problem: &'p StandProblem,
    /// The growing agile tree.
    pub agile: Tree,
    /// Taxa not yet inserted, in selection-rule order.
    remaining: Vec<TaxonId>,
    order: OrderEngine,
    /// Live projections per the configured [`MappingMode`].
    engine: MapsEngine,
    /// Reusable query buffers (see [`QueryScratch`]); kept on the state so
    /// the selection loop allocates nothing per candidate taxon.
    scratch: QueryScratch,
}

impl<'p> SearchState<'p> {
    /// Creates the root state: the agile tree is (a copy of) constraint
    /// `initial_idx`; the remaining taxa are ordered per `order`.
    ///
    /// Returns `Err` if a [`TaxonOrderRule::Fixed`] order does not cover
    /// exactly the missing taxa.
    pub fn new(
        problem: &'p StandProblem,
        initial_idx: usize,
        order: &TaxonOrderRule,
    ) -> Result<Self, String> {
        let agile = problem.constraints()[initial_idx].clone();
        let missing = problem.all_taxa().difference(agile.taxa());
        let remaining: Vec<TaxonId> = match order {
            TaxonOrderRule::Dynamic
            | TaxonOrderRule::DynamicByConstraints
            | TaxonOrderRule::ById => missing.iter().map(|t| TaxonId(t as u32)).collect(),
            TaxonOrderRule::MostConstrainedFirst => {
                let mut v: Vec<TaxonId> = missing.iter().map(|t| TaxonId(t as u32)).collect();
                v.sort_by_key(|t| {
                    (
                        std::cmp::Reverse(problem.constraints_of_taxon(t.index()).len()),
                        t.index(),
                    )
                });
                v
            }
            TaxonOrderRule::Fixed(seq) => {
                let given: Vec<TaxonId> = seq
                    .iter()
                    .copied()
                    .filter(|t| missing.contains(t.index()))
                    .collect();
                if given.len() != missing.count() {
                    return Err(format!(
                        "fixed order covers {} of {} missing taxa",
                        given.len(),
                        missing.count()
                    ));
                }
                given
            }
        };
        let engine = match order {
            TaxonOrderRule::Dynamic => OrderEngine::Dynamic(DynamicTie::SmallestId),
            TaxonOrderRule::DynamicByConstraints => {
                OrderEngine::Dynamic(DynamicTie::MostConstraints)
            }
            _ => OrderEngine::Static,
        };
        Ok(SearchState {
            problem,
            agile,
            remaining,
            order: engine,
            engine: MapsEngine::Recompute,
            scratch: QueryScratch::new(),
        })
    }

    /// Installs the projection engine for `mode` (must be called on the
    /// root state, before any insertion). A fresh state starts in
    /// [`MappingMode::Recompute`].
    pub fn enable_mapping(&mut self, mode: MappingMode) {
        self.engine = match mode {
            MappingMode::Recompute => MapsEngine::Recompute,
            MappingMode::Incremental => {
                MapsEngine::Incremental(IncrementalMaps::new(self.problem, &self.agile))
            }
            MappingMode::EdgeIndexed => {
                MapsEngine::EdgeIndexed(Box::new(EdgeIndexedMaps::new(self.problem, &self.agile)))
            }
        };
    }

    /// Switches this state to the incremental mapping engine (must be
    /// called on the root state, before any insertion).
    pub fn enable_incremental(&mut self) {
        self.enable_mapping(MappingMode::Incremental);
    }

    /// The problem this state explores.
    pub fn problem(&self) -> &'p StandProblem {
        self.problem
    }

    /// Captures an owned [`StateSnapshot`] of the current logical state.
    /// The projection engines are forked *live-only* (empty undo stacks),
    /// which is sound because a resumed task never undoes below its resume
    /// point. Costs one O(state) clone — paid by the splitter, not the
    /// thief.
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            agile: self.agile.clone(),
            remaining: self.remaining.clone(),
            order: self.order,
            engine: match &self.engine {
                MapsEngine::Recompute => MapsEngine::Recompute,
                MapsEngine::Incremental(inc) => MapsEngine::Incremental(inc.fork_live()),
                MapsEngine::EdgeIndexed(ei) => MapsEngine::EdgeIndexed(Box::new(ei.fork_live())),
            },
        }
    }

    /// Rebuilds a working state from a snapshot taken over the same
    /// `problem`. Moves the owned snapshot data — the thief side of a task
    /// handoff performs no clone and no kernel replay.
    pub fn resume(problem: &'p StandProblem, snap: StateSnapshot) -> SearchState<'p> {
        SearchState {
            problem,
            agile: snap.agile,
            remaining: snap.remaining,
            order: snap.order,
            engine: snap.engine,
            scratch: QueryScratch::new(),
        }
    }

    /// True when the agile tree contains every taxon of `X`.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Number of taxa still to insert.
    pub fn remaining_count(&self) -> usize {
        self.remaining.len()
    }

    /// The remaining taxa in selection order (mostly for diagnostics).
    pub fn remaining(&self) -> &[TaxonId] {
        &self.remaining
    }

    /// Inserts `taxon` on `edge` and removes it from the remaining list.
    pub fn apply(&mut self, taxon: TaxonId, edge: EdgeId) -> AppliedStep {
        let remaining_idx = self
            .remaining
            .iter()
            .position(|&t| t == taxon)
            // xlint: allow(panic-freedom) — a taxon outside `remaining` means the frame stack is corrupt; going on would enumerate wrong stands
            .expect("inserting a taxon that is not remaining");
        self.remaining.remove(remaining_idx);
        let ins = self.agile.insert_leaf_on_edge(taxon, edge);
        // Completion: the state is emitted and undone without any
        // admissibility query — skip the (expensive) map update.
        let unqueried = self.remaining.is_empty();
        match &mut self.engine {
            MapsEngine::Recompute => {}
            MapsEngine::Incremental(inc) => {
                if unqueried {
                    inc.after_insert_unqueried();
                } else {
                    inc.after_insert(self.problem, &self.agile, &ins);
                }
            }
            MapsEngine::EdgeIndexed(ei) => {
                if unqueried {
                    ei.after_insert_unqueried();
                } else {
                    ei.after_insert(self.problem, &self.agile, &ins);
                }
            }
        }
        AppliedStep { ins, remaining_idx }
    }

    /// Exactly undoes [`SearchState::apply`] (LIFO discipline required).
    pub fn undo(&mut self, step: &AppliedStep) {
        match &mut self.engine {
            MapsEngine::Recompute => {}
            MapsEngine::Incremental(inc) => inc.before_remove(&step.ins),
            MapsEngine::EdgeIndexed(ei) => ei.before_remove(&step.ins),
        }
        self.agile.remove_insertion(&step.ins);
        self.remaining.insert(step.remaining_idx, step.ins.taxon);
    }

    /// The admissible branches of `taxon` at the current state, in
    /// increasing edge-id order (the canonical branch enumeration order).
    ///
    /// Allocates its own scratch, so it stays callable through `&self`;
    /// the hot path is [`SearchState::select_next`], which reuses the
    /// state-owned buffers instead.
    pub fn admissible_branches(&self, taxon: TaxonId) -> Vec<EdgeId> {
        let mut scratch = QueryScratch::new();
        scratch.reset(self.problem.constraints().len());
        let mut out = Vec::new();
        admissible_into(
            self.problem,
            &self.agile,
            &self.engine,
            &mut scratch,
            taxon,
            &mut out,
        );
        out
    }

    /// Selects the next taxon per the configured order rule and returns it
    /// with its admissible branches. `None` when the tree is complete.
    ///
    /// Under the dynamic rule this is the paper's *dynamic taxon
    /// insertion*: the remaining taxon with the fewest admissible branches
    /// (ties → smallest taxon id; a zero-branch taxon short-circuits, which
    /// is what makes dead ends detectable immediately).
    ///
    /// Takes `&mut self` only to reuse the state-owned query buffers; the
    /// logical state (tree, remaining taxa, projections) is not modified.
    pub fn select_next(&mut self) -> Option<NextTaxon> {
        if self.remaining.is_empty() {
            return None;
        }
        // Destructure so the engine/scratch borrows are disjoint.
        let SearchState {
            problem,
            agile,
            remaining,
            order,
            engine,
            scratch,
        } = self;
        scratch.reset(problem.constraints().len());
        let mut cand = std::mem::take(&mut scratch.cand);
        let OrderEngine::Dynamic(tie) = *order else {
            let taxon = remaining[0];
            admissible_into(problem, agile, engine, scratch, taxon, &mut cand);
            let branches = cand.clone();
            scratch.cand = cand;
            return Some(NextTaxon { taxon, branches });
        };
        let rank = |t: TaxonId| match tie {
            // Lower rank wins on branch-count ties.
            DynamicTie::SmallestId => (0usize, t.index()),
            DynamicTie::MostConstraints => (
                usize::MAX - problem.constraints_of_taxon(t.index()).len(),
                t.index(),
            ),
        };
        let mut best_buf = std::mem::take(&mut scratch.best);
        let mut best: Option<TaxonId> = None;
        for &taxon in remaining.iter() {
            admissible_into(problem, agile, engine, scratch, taxon, &mut cand);
            if cand.is_empty() {
                scratch.cand = cand;
                scratch.best = best_buf;
                return Some(NextTaxon {
                    taxon,
                    branches: Vec::new(),
                });
            }
            let better = match best {
                None => true,
                Some(b) => {
                    cand.len() < best_buf.len()
                        || (cand.len() == best_buf.len() && rank(taxon) < rank(b))
                }
            };
            if better {
                std::mem::swap(&mut cand, &mut best_buf);
                best = Some(taxon);
            }
        }
        let choice = best.map(|taxon| NextTaxon {
            taxon,
            branches: best_buf.clone(),
        });
        scratch.cand = cand;
        scratch.best = best_buf;
        choice
    }
}

/// Computes the admissible branches of `taxon` into `out` (cleared first),
/// in increasing edge-id order. Free function over disjoint borrows so
/// [`SearchState::select_next`] can thread the state-owned scratch through
/// without fighting the borrow checker.
fn admissible_into(
    problem: &StandProblem,
    agile: &Tree,
    engine: &MapsEngine,
    scratch: &mut QueryScratch,
    taxon: TaxonId,
    out: &mut Vec<EdgeId>,
) {
    out.clear();
    let cis = problem.constraints_of_taxon(taxon.index());
    if let MapsEngine::EdgeIndexed(ei) = engine {
        // Flat kernels: one u64 compare per (edge, constraint).
        scratch.ei_checks.clear();
        for &ci in cis {
            let ci = ci as usize;
            let target = ei.target_key(ci, taxon);
            if !target.is_none() {
                scratch.ei_checks.push((ci, target));
            }
        }
        'edges: for e in agile.edges() {
            for &(ci, target) in &scratch.ei_checks {
                if ei.projection_key(ci, e) != target {
                    continue 'edges;
                }
            }
            out.push(e);
        }
        return;
    }
    // Recompute mode fills the per-state scratch lazily; the incremental
    // engine already holds live maps.
    if let MapsEngine::Recompute = engine {
        for &ci in cis {
            let ci = ci as usize;
            if scratch.agile_maps[ci].is_none() {
                let cons = &problem.constraints()[ci];
                let c = agile.taxa().intersection(cons.taxa());
                scratch.agile_maps[ci] = Some(attachment_map(agile, &c));
                scratch.targets[ci] = Some(missing_taxon_targets(cons, &c));
            }
        }
    }
    // Collect (agile map, target split) for each constraint containing
    // the taxon whose common-taxa overlap is >= 2; a constraint with
    // |C| <= 1 has no target and admits every branch.
    let mut checks: Vec<(&AttachMap, &Split)> = Vec::new();
    for &ci in cis {
        let ci = ci as usize;
        let (map, targets): (&AttachMap, &[Option<Split>]) = match engine {
            MapsEngine::Incremental(inc) => (inc.agile_map(ci), inc.targets(ci)),
            _ => (
                // xlint: allow(panic-freedom) — the recompute loop above filled this cell; a miss would silently admit wrong branches
                scratch.agile_maps[ci].as_ref().expect("ensured above"),
                // xlint: allow(panic-freedom) — same invariant as the map cell directly above
                scratch.targets[ci].as_ref().expect("ensured above"),
            ),
        };
        if let Some(target) = &targets[taxon.index()] {
            checks.push((map, target));
        }
    }
    'edges: for e in agile.edges() {
        for &(map, target) in &checks {
            if map.get(e) != Some(target) {
                continue 'edges;
            }
        }
        out.push(e);
    }
}

/// Reusable per-state query buffers: the recompute mode's lazily-filled
/// projection caches (one slot per constraint, invalidated per selection)
/// plus the candidate/best branch buffers and the edge-indexed check list
/// that keep the selection loop allocation-free.
struct QueryScratch {
    agile_maps: Vec<Option<AttachMap>>,
    targets: Vec<Option<Vec<Option<Split>>>>,
    /// `(constraint, target key)` pairs for the edge-indexed fast path.
    ei_checks: Vec<(usize, CladeKey)>,
    /// Branches of the candidate taxon under evaluation.
    cand: Vec<EdgeId>,
    /// Branches of the best candidate so far.
    best: Vec<EdgeId>,
}

impl QueryScratch {
    fn new() -> Self {
        QueryScratch {
            agile_maps: Vec::new(),
            targets: Vec::new(),
            ei_checks: Vec::new(),
            cand: Vec::new(),
            best: Vec::new(),
        }
    }

    /// Invalidates the recompute caches (the agile tree changed since the
    /// last query batch) without shrinking any buffer.
    fn reset(&mut self, n_constraints: usize) {
        self.agile_maps.clear();
        self.agile_maps.resize(n_constraints, None);
        self.targets.clear();
        self.targets.resize_with(n_constraints, || None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialTreeRule;
    use phylo::newick::parse_forest;

    fn problem(newicks: &[&str]) -> StandProblem {
        let (_, trees) = parse_forest(newicks.iter().copied()).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    #[test]
    fn root_state_setup() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let idx = p.initial_tree_index(&InitialTreeRule::Index(0)).unwrap();
        let s = SearchState::new(&p, idx, &TaxonOrderRule::Dynamic).unwrap();
        assert_eq!(s.remaining_count(), 2); // E, F
        assert!(!s.is_complete());
    }

    #[test]
    fn fixed_order_validation() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let e = TaxonId(4);
        let f = TaxonId(5);
        assert!(SearchState::new(&p, 0, &TaxonOrderRule::Fixed(vec![f, e])).is_ok());
        assert!(SearchState::new(&p, 0, &TaxonOrderRule::Fixed(vec![e])).is_err());
    }

    #[test]
    fn apply_undo_roundtrip() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let mut s = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let fp = s.agile.arena_fingerprint();
        let next = s.select_next().unwrap();
        assert!(!next.branches.is_empty());
        let step = s.apply(next.taxon, next.branches[0]);
        assert_eq!(s.remaining_count(), 1);
        s.undo(&step);
        assert_eq!(s.remaining_count(), 2);
        assert_eq!(s.agile.arena_fingerprint(), fp);
        assert_eq!(s.remaining(), &[TaxonId(4), TaxonId(5)]);
    }

    #[test]
    fn admissible_respects_constraints() {
        // Agile = ((A,B),(C,D)); constraint ((A,B),(C,E)) pins E next to C.
        let p = problem(&["((A,B),(C,D));", "((A,B),(C,E));"]);
        let s = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let branches = s.admissible_branches(TaxonId(4));
        // E must be sister to C w.r.t. {A,B}: C's pendant, the internal
        // edge, and D's pendant all satisfy the restriction (D is not in
        // the constraint); A's and B's pendant edges do not.
        assert_eq!(branches.len(), 3);
        let leaf_c = s.agile.leaf(TaxonId(2)).unwrap();
        assert!(branches.contains(&s.agile.adjacent_edges(leaf_c)[0]));
        for bad in [TaxonId(0), TaxonId(1)] {
            let leaf = s.agile.leaf(bad).unwrap();
            assert!(!branches.contains(&s.agile.adjacent_edges(leaf)[0]));
        }
    }

    #[test]
    fn unconstrained_taxon_admits_every_branch() {
        // F appears only in the second constraint, which shares just one
        // taxon (C) with the agile tree → all 5 branches admissible.
        let p = problem(&["((A,B),(C,D));", "((F,G),(H,C));"]);
        let s = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let branches = s.admissible_branches(TaxonId(4));
        assert_eq!(branches.len(), s.agile.edge_count());
    }

    #[test]
    fn dynamic_selection_prefers_fewest_branches() {
        // E is pinned to one branch; the taxa of the weakly-overlapping
        // constraint are free → dynamic must pick E first.
        let p = problem(&["((A,B),(C,D));", "((A,B),(C,E));", "((F,G),(H,A));"]);
        let mut s = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let next = s.select_next().unwrap();
        assert_eq!(next.taxon, TaxonId(4)); // E: 3 branches vs 5 for F,G,H
        assert_eq!(next.branches.len(), 3);
    }

    #[test]
    fn by_id_order_ignores_branch_counts() {
        let p = problem(&["((A,B),(C,D));", "((A,B),(C,E));", "((F,G),(H,A));"]);
        let mut s = SearchState::new(&p, 0, &TaxonOrderRule::ById).unwrap();
        let next = s.select_next().unwrap();
        assert_eq!(next.taxon, TaxonId(4)); // smallest missing id happens to be E
        let mut s2 = SearchState::new(
            &p,
            0,
            &TaxonOrderRule::Fixed(vec![TaxonId(5), TaxonId(6), TaxonId(7), TaxonId(4)]),
        )
        .unwrap();
        let next2 = s2.select_next().unwrap();
        assert_eq!(next2.taxon, TaxonId(5)); // F first per fixed order
    }

    #[test]
    fn most_constrained_first_orders_by_constraint_count() {
        // E appears in two constraints, F/G/H in one → E first.
        let p = problem(&["((A,B),(C,D));", "((A,B),(C,E));", "((F,G),(H,E));"]);
        let mut s = SearchState::new(&p, 0, &TaxonOrderRule::MostConstrainedFirst).unwrap();
        assert_eq!(s.remaining()[0], TaxonId(4)); // E
        let next = s.select_next().unwrap();
        assert_eq!(next.taxon, TaxonId(4));
    }

    #[test]
    fn dynamic_by_constraints_breaks_ties_differently() {
        // F and G are both unconstrained w.r.t. the agile tree (5 branches
        // each), but G appears in two constraints vs F's one → the
        // constraint-count tie-break prefers G while the id tie-break
        // prefers F.
        let p = problem(&["((A,B),(C,D));", "((F,G),(H,A));", "((G,B),(I,J));"]);
        let mut by_id = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut by_cons = SearchState::new(&p, 0, &TaxonOrderRule::DynamicByConstraints).unwrap();
        let a = by_id.select_next().unwrap();
        let b = by_cons.select_next().unwrap();
        assert_eq!(a.branches.len(), b.branches.len());
        assert!(a.taxon < b.taxon, "id tie-break picks the smaller id");
        let g = TaxonId(5);
        assert_eq!(b.taxon, g);
    }

    #[test]
    fn from_parts_rejects_a_tree_that_conflicts_with_a_constraint() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let remaining = vec![TaxonId(4), TaxonId(5)];
        let ok = StateSnapshot::from_parts(
            &p,
            p.constraints()[0].clone(),
            remaining.clone(),
            1,
            MappingMode::EdgeIndexed,
        );
        assert!(ok.is_ok());
        // A taxon id far outside the universe is an error, not a panic.
        let err = StateSnapshot::from_parts(
            &p,
            p.constraints()[0].clone(),
            vec![TaxonId(4), TaxonId(5), TaxonId(1000)],
            1,
            MappingMode::EdgeIndexed,
        )
        .unwrap_err();
        assert_eq!(err, SnapshotError::RemainingNotMissing(1000));
        // ((A,C),(B,D)) has the right taxa (same interning order and
        // universe as the problem) but splits them the other way from
        // constraint 0.
        let (_, trees) =
            parse_forest(["((A,B),(C,D));", "((A,C),(B,D));", "((E,F),(A,B));"]).unwrap();
        let err =
            StateSnapshot::from_parts(&p, trees[1].clone(), remaining, 1, MappingMode::EdgeIndexed)
                .unwrap_err();
        assert_eq!(err, SnapshotError::ConflictsWithConstraint(0));
        assert!(err.to_string().contains("constraint 0"), "{err}");
    }

    #[test]
    fn conflicting_constraint_yields_zero_branches() {
        // Constraints force E both next to C and next to A — impossible.
        let p = problem(&["((A,B),(C,D));", "((A,B),(C,E));", "((E,A),(B,C));"]);
        let mut s = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let next = s.select_next().unwrap();
        assert_eq!(next.taxon, TaxonId(4));
        assert!(next.branches.is_empty());
    }
}
