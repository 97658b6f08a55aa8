//! The branch-and-bound step machine.
//!
//! Algorithm 1 of the paper is a recursion; here it is an explicit-stack
//! machine advanced one transition at a time by [`Explorer::step`]. That
//! single representation powers all three execution engines:
//!
//! * the **serial driver** just loops `step()`;
//! * the **threaded engine** additionally calls [`Explorer::split_top`] to
//!   carve half of the current state's pending branches into a task that
//!   carries a [`crate::state::StateSnapshot`], and a thief resumes that
//!   snapshot with [`Explorer::resume_task`], with no path replay;
//! * the **virtual-time simulator** drives many explorers in lock-step,
//!   charging one tick per transition, and still hands tasks over as
//!   paths it replays from the initial-split state `I_0` with
//!   [`Explorer::begin_task`]/[`Explorer::end_task`].
//!
//! Counting conventions (they match the paper's reported numbers):
//! entering a new incomplete state = one *intermediate state*; an entered
//! state whose next taxon has no admissible branch = additionally one
//! *dead end* (the state is undone immediately); inserting the final taxon
//! = one *stand tree* (not an intermediate state).

use crate::sink::StandSink;
use crate::state::{AppliedStep, SearchState};
use phylo::taxa::TaxonId;
use phylo::tree::EdgeId;

/// One DFS frame: a search state, the taxon chosen at it, and the
/// admissible branches not yet descended into.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The edit that created this state (`None` for the root / task base).
    step: Option<AppliedStep>,
    /// The taxon to insert at this state.
    pub taxon: TaxonId,
    /// Admissible branches for `taxon`, in edge-id order.
    pub branches: Vec<EdgeId>,
    /// Index of the next branch to try.
    pub cursor: usize,
    /// The sink has been told that this frame's completions follow (set
    /// on the first completion step of a frame with one taxon left).
    announced: bool,
}

impl Frame {
    fn new(step: Option<AppliedStep>, taxon: TaxonId, branches: Vec<EdgeId>) -> Frame {
        Frame {
            step,
            taxon,
            branches,
            cursor: 0,
            announced: false,
        }
    }

    /// Branches not yet tried.
    pub fn pending(&self) -> usize {
        self.branches.len() - self.cursor
    }
}

/// Event emitted by one [`Explorer::step`] transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// Descended into a new intermediate state.
    Entered,
    /// Generated a complete stand tree (the sink was invoked) and
    /// backtracked out of it.
    StandTree,
    /// Descended into a state whose next taxon has no admissible branch;
    /// the state was counted and immediately undone.
    DeadEnd,
    /// The top frame was exhausted and popped (one taxon removed).
    Backtracked,
    /// The whole assigned search space is exhausted.
    Finished,
}

/// Explicit-stack explorer over a [`SearchState`].
pub struct Explorer<'p> {
    state: SearchState<'p>,
    stack: Vec<Frame>,
    /// Insertions replayed to reach a task's start state; not part of the
    /// exploration (not counted, not backtracked by `step`).
    base: Vec<AppliedStep>,
    /// Root state was already complete (single-tree stand); one synthetic
    /// `StandTree` is emitted, then `Finished`.
    root_complete: bool,
}

impl<'p> Explorer<'p> {
    /// An explorer that will traverse the whole search space from the root
    /// state.
    pub fn new_root(state: SearchState<'p>) -> Self {
        let mut ex = Explorer {
            root_complete: state.is_complete(),
            state,
            stack: Vec::new(),
            base: Vec::new(),
        };
        if !ex.root_complete {
            if let Some(next) = ex.state.select_next() {
                ex.stack.push(Frame::new(None, next.taxon, next.branches));
            }
        }
        ex
    }

    /// An idle explorer (no assigned work), for workers that receive
    /// their work via [`Explorer::resume_task`] (the state is positioned at
    /// the task's start state) or [`Explorer::begin_task`] (the state is
    /// positioned at the initial-split state `I_0`).
    pub fn new_idle(state: SearchState<'p>) -> Self {
        Explorer {
            state,
            stack: Vec::new(),
            base: Vec::new(),
            root_complete: false,
        }
    }

    /// The underlying search state (e.g. to inspect the agile tree).
    pub fn state(&self) -> &SearchState<'p> {
        &self.state
    }

    /// Current DFS depth in frames (the root/task frame is depth 1).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// True when no frames remain (`step` would return `Finished`).
    pub fn finished(&self) -> bool {
        self.stack.is_empty() && !self.root_complete
    }

    /// The top frame, if any.
    pub fn top(&self) -> Option<&Frame> {
        self.stack.last()
    }

    /// The `(taxon, edge)` insertions currently applied on top of `I_0`:
    /// the replayed task base (if any) followed by the exploration's own
    /// insertions — the paper's *path* from `I_0` to the current state
    /// `I_c`, ready to be shipped inside a new task.
    pub fn path_from_base(&self) -> Vec<(TaxonId, EdgeId)> {
        self.base
            .iter()
            .map(|s| (s.taxon(), s.edge()))
            .chain(
                self.stack
                    .iter()
                    .filter_map(|f| f.step.as_ref().map(|s| (s.taxon(), s.edge()))),
            )
            .collect()
    }

    /// Splits the top frame's pending branches in half: the first half is
    /// returned (to become a task), the second half stays. `None` unless at
    /// least two branches are pending. (Engine-level conditions — queue
    /// capacity and the ≥3-remaining-taxa rule — are the caller's job.)
    pub fn split_top(&mut self) -> Option<Vec<EdgeId>> {
        let f = self.stack.last_mut()?;
        let pending = f.pending();
        if pending < 2 {
            return None;
        }
        let give = pending / 2;
        let taken: Vec<EdgeId> = f.branches[f.cursor..f.cursor + give].to_vec();
        f.branches.drain(f.cursor..f.cursor + give);
        Some(taken)
    }

    /// Number of taxa still missing from the agile tree.
    pub fn remaining_taxa(&self) -> usize {
        self.state.remaining_count()
    }

    /// Replays a task: applies `path` (uncounted base insertions) from the
    /// current position, then installs a frame for `taxon` restricted to
    /// the given `branches` subset. Requires an idle explorer.
    pub fn begin_task(
        &mut self,
        path: &[(TaxonId, EdgeId)],
        taxon: TaxonId,
        branches: Vec<EdgeId>,
    ) {
        assert!(self.finished(), "begin_task on a busy explorer");
        assert!(self.base.is_empty(), "previous task base not unwound");
        for &(t, e) in path {
            self.base.push(self.state.apply(t, e));
        }
        self.stack.push(Frame::new(None, taxon, branches));
    }

    /// Installs a task frame on a state that is *already positioned* at the
    /// task's start state `I_c` (resumed from a
    /// [`crate::state::StateSnapshot`] — no base insertions, no kernel
    /// replay). The frame carries `step: None`, so exhausting it never
    /// undoes below the resume point. Requires an idle explorer.
    pub fn resume_task(&mut self, taxon: TaxonId, branches: Vec<EdgeId>) {
        assert!(self.finished(), "resume_task on a busy explorer");
        assert!(self.base.is_empty(), "previous task base not unwound");
        self.stack.push(Frame::new(None, taxon, branches));
    }

    /// Number of insertions currently applied on top of this explorer's
    /// start state: the replayed base plus the exploration's own applied
    /// frames. This is the depth a snapshot taken *now* would carry.
    pub fn applied_depth(&self) -> usize {
        self.base.len() + self.stack.iter().filter(|f| f.step.is_some()).count()
    }

    /// Unwinds the task base replayed by [`Explorer::begin_task`],
    /// returning the state to `I_0`. The task's frames must be exhausted.
    pub fn end_task(&mut self) {
        assert!(self.finished(), "end_task on a busy explorer");
        while let Some(step) = self.base.pop() {
            self.state.undo(&step);
        }
    }

    /// Abandons the remaining frames without exploring them (used when a
    /// stopping rule fires mid-task): undoes every applied insertion so the
    /// explorer is back at its base state and `finished()`.
    pub fn abort_frames(&mut self) {
        while let Some(f) = self.stack.pop() {
            if let Some(step) = &f.step {
                self.state.undo(step);
            }
        }
        self.root_complete = false;
    }

    /// Drains the un-explored frontier into task descriptors and unwinds
    /// every frame (checkpoint support): each frame with pending branches
    /// becomes one `(state snapshot, taxon, pending branches)` triple —
    /// the snapshot is taken in that frame's own context, so resuming it
    /// with [`Explorer::resume_task`] explores exactly the branches the
    /// frame had left. The union of the descriptors is precisely the work
    /// this explorer had not done, so a paused run's counters and stand
    /// set stay exact across a checkpoint/resume cycle.
    ///
    /// Frames are drained top-down (deepest context first); afterwards the
    /// explorer is `finished()` and back at its base state, like after
    /// [`Explorer::abort_frames`]. A pending `root_complete` (the root
    /// state was already a complete tree whose synthetic emission has not
    /// happened yet) becomes a descriptor with an empty branch set; the
    /// resume side detects the complete snapshot and re-emits it.
    pub fn drain_frontier(&mut self) -> Vec<(crate::state::StateSnapshot, TaxonId, Vec<EdgeId>)> {
        let mut out = Vec::new();
        if self.root_complete {
            self.root_complete = false;
            out.push((self.state.snapshot(), TaxonId(0), Vec::new()));
        }
        while let Some(f) = self.stack.pop() {
            if f.pending() > 0 {
                out.push((
                    self.state.snapshot(),
                    f.taxon,
                    f.branches[f.cursor..].to_vec(),
                ));
            }
            if let Some(step) = &f.step {
                self.state.undo(step);
            }
        }
        out
    }

    /// Returns branches previously taken by [`Explorer::split_top`] to the
    /// top frame (used when the task queue raced to full after the split).
    /// The branches are re-inserted at the cursor, restoring the original
    /// enumeration order.
    pub fn unsplit_top(&mut self, branches: Vec<EdgeId>) {
        // Returning branches to a frame that does not exist would silently
        // drop them from the enumeration (missed stands).
        // xlint: allow(panic-freedom) — this corruption must be loud
        let f = self.stack.last_mut().expect("unsplit with no frame");
        let at = f.cursor;
        f.branches.splice(at..at, branches);
    }

    /// Advances one transition. See the module docs for the counting
    /// conventions attached to each event.
    ///
    /// Every completion comes from a frame with one taxon left, and the
    /// first completion step of such a frame first announces the frame's
    /// tree and taxon to the sink ([`StandSink::completions`]). The flag
    /// lives on the frame, so a split, resumed, drained or aborted frame
    /// needs no other bookkeeping: a task's new frame announces itself.
    pub fn step<S: StandSink>(&mut self, sink: &mut S) -> StepEvent {
        if self.root_complete {
            self.root_complete = false;
            // Not a completion of any frame: withdraw a stale announcement.
            sink.completions(None);
            sink.stand_tree(&self.state.agile);
            return StepEvent::StandTree;
        }
        let Some(top) = self.stack.last_mut() else {
            return StepEvent::Finished;
        };
        if top.cursor < top.branches.len() {
            let edge = top.branches[top.cursor];
            top.cursor += 1;
            let taxon = top.taxon;
            if !top.announced && self.state.remaining_count() == 1 {
                top.announced = true;
                sink.completions(Some((&self.state.agile, taxon)));
            }
            let step = self.state.apply(taxon, edge);
            if self.state.is_complete() {
                sink.stand_tree(&self.state.agile);
                self.state.undo(&step);
                return StepEvent::StandTree;
            }
            // An incomplete state always offers a next taxon; if that
            // invariant ever broke, counting the branch as a dead end
            // degrades gracefully instead of tearing the worker down.
            let Some(next) = self.state.select_next() else {
                self.state.undo(&step);
                return StepEvent::DeadEnd;
            };
            if next.branches.is_empty() {
                self.state.undo(&step);
                return StepEvent::DeadEnd;
            }
            self.stack
                .push(Frame::new(Some(step), next.taxon, next.branches));
            StepEvent::Entered
        } else {
            let Some(f) = self.stack.pop() else {
                // Unreachable — `last_mut` above proved non-empty — but
                // finishing is the graceful answer if that ever changes.
                return StepEvent::Finished;
            };
            if let Some(step) = &f.step {
                self.state.undo(step);
            }
            if self.stack.is_empty() {
                StepEvent::Finished
            } else {
                StepEvent::Backtracked
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaxonOrderRule;
    use crate::problem::StandProblem;
    use crate::sink::{CollectNewick, CountOnly};
    use phylo::newick::parse_forest;
    use phylo::taxa::TaxonSet;

    fn setup(newicks: &[&str]) -> (TaxonSet, StandProblem) {
        let (taxa, trees) = parse_forest(newicks.iter().copied()).unwrap();
        (taxa, StandProblem::from_constraints(trees).unwrap())
    }

    fn run_to_end(ex: &mut Explorer<'_>) -> (u64, u64, u64) {
        let mut sink = CountOnly;
        let (mut trees, mut states, mut dead) = (0u64, 0u64, 0u64);
        loop {
            match ex.step(&mut sink) {
                StepEvent::Entered => states += 1,
                StepEvent::StandTree => trees += 1,
                StepEvent::DeadEnd => {
                    states += 1;
                    dead += 1;
                }
                StepEvent::Backtracked => {}
                StepEvent::Finished => break,
            }
        }
        (trees, states, dead)
    }

    #[test]
    fn single_complete_constraint_yields_one_tree() {
        let (_, p) = setup(&["((A,B),(C,D));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let (trees, states, dead) = run_to_end(&mut ex);
        assert_eq!((trees, states, dead), (1, 0, 0));
    }

    #[test]
    fn figure_1a_style_free_insertions() {
        // Agile ((A,B),(C,D)); one extra unconstrained-ish taxon E pinned
        // to a single branch and one taxon F free on a 2-branch set would
        // need crafting; here instead: two missing taxa from a second
        // constraint sharing only one taxon → both free everywhere.
        // Stand size = edges(4-leaf)=5 positions for the first, then 7 for
        // the second = 35 trees... restricted by the second constraint's
        // own topology among themselves.
        let (_, p) = setup(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let (trees, _states, _dead) = run_to_end(&mut ex);
        assert!(trees > 0);
        // Cross-check against the brute-force oracle.
        let oracle = brute_force_count(&p);
        assert_eq!(trees, oracle);
    }

    /// Brute-force stand size via the phylo topology enumerator.
    fn brute_force_count(p: &StandProblem) -> u64 {
        use phylo::enumerate::for_each_topology;
        use phylo::ops::displays;
        let ids: Vec<TaxonId> = p.all_taxa().iter().map(|t| TaxonId(t as u32)).collect();
        let mut count = 0u64;
        for_each_topology(p.universe(), &ids, |t| {
            if p.constraints().iter().all(|c| displays(t, c)) {
                count += 1;
            }
        });
        count
    }

    #[test]
    fn matches_oracle_on_pinning_constraints() {
        let (_, p) = setup(&["((A,B),(C,D));", "((A,B),(C,E));", "((B,C),(D,F));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let (trees, _, _) = run_to_end(&mut ex);
        assert_eq!(trees, brute_force_count(&p));
    }

    #[test]
    fn incompatible_constraints_yield_empty_stand() {
        // E pinned next to C by one constraint and next to A by another,
        // with full overlap otherwise → no tree satisfies both.
        let (_, p) = setup(&["((A,B),(C,D));", "((A,B),(C,E));", "((C,B),(A,E));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let (trees, _states, _dead) = run_to_end(&mut ex);
        assert_eq!(trees, 0);
        assert_eq!(trees, brute_force_count(&p));
        // Note: the conflict is already visible at the root state, which is
        // not itself a created intermediate state, so no DeadEnd event is
        // counted here — the exploration simply has nothing to descend into.
    }

    #[test]
    fn collected_stand_trees_display_all_constraints() {
        let (taxa, p) = setup(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let mut sink = CollectNewick::with_cap(&taxa, 10_000);
        loop {
            if ex.step(&mut sink) == StepEvent::Finished {
                break;
            }
        }
        assert!(!sink.out.is_empty());
        // No duplicates.
        let mut sorted = sink.out.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), sink.out.len());
        // Every collected tree displays every constraint.
        use phylo::newick::parse_newick;
        use phylo::ops::displays;
        for s in &sink.out {
            let t = parse_newick(s, &taxa).unwrap();
            for c in p.constraints() {
                assert!(displays(&t, c), "{s} does not display a constraint");
            }
        }
    }

    #[test]
    fn split_top_halves_pending() {
        let (_, p) = setup(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let total = ex.top().unwrap().pending();
        assert!(total >= 2, "test premise: multi-branch root");
        let taken = ex.split_top().unwrap();
        assert_eq!(taken.len(), total / 2);
        assert_eq!(ex.top().unwrap().pending(), total - total / 2);
        // Splitting a 1-pending frame is refused.
        while ex.top().unwrap().pending() > 1 {
            ex.split_top();
        }
        assert!(ex.split_top().is_none());
    }

    #[test]
    fn split_top_refuses_single_pending_and_exhausted_frames() {
        // One missing taxon (E): every insertion completes the tree, so the
        // root frame stays on top while its cursor walks to the end — the
        // only way to exercise split_top on a partially-consumed frame
        // without a frame push in between.
        let (_, p) = setup(&["((A,B),(C,D));", "((A,B),(C,E));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let total = ex.top().unwrap().branches.len();
        assert!(total >= 2, "test premise: multi-branch frame");
        let mut sink = CountOnly;
        while ex.top().unwrap().pending() > 1 {
            assert_eq!(ex.step(&mut sink), StepEvent::StandTree);
        }
        // pending == 1: give would be 0, so the split is refused outright
        // rather than returning an empty branch set.
        assert!(ex.split_top().is_none());
        assert_eq!(ex.step(&mut sink), StepEvent::StandTree);
        let top = ex.top().unwrap();
        assert_eq!(top.cursor, top.branches.len(), "cursor at end");
        assert_eq!(top.pending(), 0);
        assert!(ex.split_top().is_none());
        // The exhausted frame pops and the space is done.
        assert_eq!(ex.step(&mut sink), StepEvent::Finished);
        assert!(ex.split_top().is_none(), "no frame left to split");
    }

    #[test]
    fn unsplit_with_advanced_cursor_restores_branches_exactly() {
        let (_, p) = setup(&["((A,B),(C,D));", "((A,B),(C,E));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let before = ex.top().unwrap().branches.clone();
        assert_eq!(before.len(), 3, "E has three admissible branches");
        let mut sink = CountOnly;
        assert_eq!(ex.step(&mut sink), StepEvent::StandTree); // cursor -> 1
        let taken = ex.split_top().unwrap();
        // The split takes from the cursor position: the untried suffix's
        // front, never the already-consumed prefix.
        assert_eq!(taken[..], before[1..1 + taken.len()]);
        ex.unsplit_top(taken);
        let top = ex.top().unwrap();
        assert_eq!(top.branches, before, "exact order restored");
        assert_eq!(top.cursor, 1, "consumed prefix untouched");
        // The remaining enumeration proceeds as if the split never happened.
        let (trees, _, _) = run_to_end(&mut ex);
        assert_eq!(trees as usize, before.len() - 1);
    }

    #[test]
    fn abort_frames_restores_base_state() {
        let (_, p) = setup(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let fp = state.agile.arena_fingerprint();
        let mut ex = Explorer::new_root(state);
        let mut sink = CountOnly;
        for _ in 0..7 {
            if ex.step(&mut sink) == StepEvent::Finished {
                break;
            }
        }
        assert!(ex.depth() >= 1);
        ex.abort_frames();
        assert!(ex.finished());
        assert_eq!(ex.state().agile.arena_fingerprint(), fp);
        assert_eq!(ex.remaining_taxa(), 3);
    }

    #[test]
    fn unsplit_restores_the_exact_branch_order() {
        let (_, p) = setup(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let before = ex.top().unwrap().branches.clone();
        let taken = ex.split_top().unwrap();
        ex.unsplit_top(taken);
        assert_eq!(ex.top().unwrap().branches, before);
        assert_eq!(ex.top().unwrap().cursor, 0);
        // After consuming one branch, split+unsplit must keep the cursor
        // prefix intact too.
        let mut sink = CountOnly;
        let _ = ex.step(&mut sink);
        let before = ex.top().unwrap().clone();
        let _ = before; // frames differ post-step; re-check on the new top
        let snapshot = ex.top().unwrap().branches.clone();
        let cursor = ex.top().unwrap().cursor;
        if let Some(taken) = ex.split_top() {
            ex.unsplit_top(taken);
            assert_eq!(ex.top().unwrap().branches, snapshot);
            assert_eq!(ex.top().unwrap().cursor, cursor);
        }
    }

    #[test]
    fn drain_frontier_covers_exactly_the_remaining_work() {
        // Stop the exploration after k steps for every k, drain the
        // frontier, finish each descriptor independently, and check the
        // partial counts plus the descriptor counts always reproduce the
        // uninterrupted run exactly — the checkpoint/resume exactness
        // contract.
        let (_, p) = setup(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let full = {
            let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
            let mut ex = Explorer::new_root(state);
            run_to_end(&mut ex)
        };
        let mut saw_mid_drain = false;
        for k in 0..200 {
            let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
            let fp = state.agile.arena_fingerprint();
            let mut ex = Explorer::new_root(state);
            let mut sink = CountOnly;
            let (mut trees, mut states, mut dead) = (0u64, 0u64, 0u64);
            let mut finished_early = false;
            for _ in 0..k {
                match ex.step(&mut sink) {
                    StepEvent::Entered => states += 1,
                    StepEvent::StandTree => trees += 1,
                    StepEvent::DeadEnd => {
                        states += 1;
                        dead += 1;
                    }
                    StepEvent::Backtracked => {}
                    StepEvent::Finished => {
                        finished_early = true;
                        break;
                    }
                }
            }
            let frontier = ex.drain_frontier();
            if !frontier.is_empty() {
                saw_mid_drain = true;
            }
            assert!(ex.finished(), "drain leaves the explorer idle");
            assert_eq!(
                ex.state().agile.arena_fingerprint(),
                fp,
                "drain unwound every applied step"
            );
            for (snap, taxon, branches) in frontier {
                let resumed = SearchState::resume(&p, snap);
                assert!(!branches.is_empty() || resumed.is_complete());
                let mut rex = Explorer::new_idle(resumed);
                rex.resume_task(taxon, branches);
                let (t, s, d) = run_to_end(&mut rex);
                trees += t;
                states += s;
                dead += d;
            }
            assert_eq!((trees, states, dead), full, "k = {k}");
            if finished_early {
                break;
            }
        }
        assert!(saw_mid_drain, "the sweep must hit a non-empty frontier");
    }

    #[test]
    fn task_replay_explores_assigned_subset_only() {
        // Split the root frame: run the two halves as separate tasks and
        // check the union matches the full run.
        let (_, p) = setup(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let full = {
            let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
            let mut ex = Explorer::new_root(state);
            run_to_end(&mut ex)
        };

        let state = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex = Explorer::new_root(state);
        let root = ex.top().unwrap().clone();
        let taken = ex.split_top().unwrap();
        let kept: Vec<EdgeId> = root.branches[taken.len()..].to_vec();
        let taxon = root.taxon;

        // Task 1 on `taken` with a fresh explorer.
        let s1 = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex1 = Explorer::new_idle(s1);
        ex1.begin_task(&[], taxon, taken);
        let r1 = run_to_end(&mut ex1);
        ex1.end_task();

        // Task 2 on `kept`.
        let s2 = SearchState::new(&p, 0, &TaxonOrderRule::Dynamic).unwrap();
        let mut ex2 = Explorer::new_idle(s2);
        ex2.begin_task(&[], taxon, kept);
        let r2 = run_to_end(&mut ex2);
        ex2.end_task();

        assert_eq!(
            (r1.0 + r2.0, r1.1 + r2.1, r1.2 + r2.2),
            full,
            "task union must equal the full exploration"
        );
        // After end_task the explorer is reusable at I_0.
        assert!(ex1.finished());
        assert_eq!(ex1.remaining_taxa(), 3);
    }
}
