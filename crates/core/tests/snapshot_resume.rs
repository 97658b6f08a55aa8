//! Snapshot-handoff equivalence: the property the parallel engine's
//! replay-free task model rests on, tested directly at the Explorer level.
//!
//! A stolen task used to carry a `(taxon, edge)` replay path; it now
//! carries an owned [`StateSnapshot`] that the thief resumes in O(depth)
//! instead of replaying in O(depth × kernel). This property test pins the
//! two mechanisms together: at randomly chosen depths of randomly built
//! explorations — whose prefixes interleave containing and non-containing
//! inserts, completions and dead ends arbitrarily — handing the same
//! stolen half-frame to a path-replaying thief and to a snapshot-resuming
//! thief must be observationally identical (counters, stand sets) under
//! both mapping engines.

use gentrius_core::config::{MappingMode, TaxonOrderRule};
use gentrius_core::explore::{Explorer, StepEvent};
use gentrius_core::problem::StandProblem;
use gentrius_core::sink::CollectNewick;
use gentrius_core::state::SearchState;
use phylo::bitset::BitSet;
use phylo::generate::{random_tree_on_n, ShapeModel};
use phylo::ops::restrict;
use phylo::taxa::TaxonSet;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CAP: usize = 1_000_000;

fn random_problem(seed: u64) -> (TaxonSet, StandProblem) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(8..=12);
    let taxa = TaxonSet::with_synthetic(n);
    loop {
        let source = random_tree_on_n(n, ShapeModel::Uniform, &mut rng);
        let m = rng.gen_range(2..=4);
        let mut covered = BitSet::new(n);
        let mut cols = Vec::new();
        for _ in 0..m {
            let k = rng.gen_range(4..=n.min(7));
            let mut s = BitSet::new(n);
            while s.count() < k {
                s.insert(rng.gen_range(0..n));
            }
            covered.union_with(&s);
            cols.push(s);
        }
        if covered.count() != n {
            continue;
        }
        let constraints: Vec<_> = cols.iter().map(|c| restrict(&source, c)).collect();
        if let Ok(p) = StandProblem::from_constraints(constraints) {
            return (taxa, p);
        }
    }
}

fn fresh_state<'p>(problem: &'p StandProblem, mode: MappingMode) -> SearchState<'p> {
    let mut s = SearchState::new(problem, 0, &TaxonOrderRule::Dynamic).expect("root state");
    s.enable_mapping(mode);
    s
}

fn drain(ex: &mut Explorer<'_>, sink: &mut CollectNewick<'_>) -> (u64, u64, u64) {
    let (mut t, mut s, mut d) = (0, 0, 0);
    loop {
        match ex.step(sink) {
            StepEvent::Entered => s += 1,
            StepEvent::StandTree => t += 1,
            StepEvent::DeadEnd => {
                s += 1;
                d += 1;
            }
            StepEvent::Backtracked => {}
            StepEvent::Finished => return (t, s, d),
        }
    }
}

const MODES: [MappingMode; 2] = [MappingMode::Recompute, MappingMode::EdgeIndexed];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// At up to three split points of one random trajectory per mode, the
    /// same stolen half-frame drained by a path-replaying thief and by a
    /// snapshot-resuming thief must produce identical counters and stand
    /// sets.
    #[test]
    fn snapshot_resume_is_observationally_identical_to_path_replay(seed in 0u64..u64::MAX) {
        for mode in MODES {
            let (taxa, problem) = random_problem(seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5157);
            let mut donor = Explorer::new_root(fresh_state(&problem, mode));
            let mut donor_sink = CollectNewick::with_cap(&taxa, CAP);
            let mut compared = 0usize;
            while !donor.finished() && compared < 3 {
                // Walk a random stretch: the prefix below any split point is
                // an arbitrary interleaving of inserts (containing and
                // non-containing alike), completions and dead ends.
                for _ in 0..rng.gen_range(1..25) {
                    if donor.step(&mut donor_sink) == StepEvent::Finished {
                        break;
                    }
                }
                if donor.finished() {
                    break;
                }
                let Some(stolen) = donor.split_top() else {
                    continue; // top frame not splittable at this depth
                };
                let path = donor.path_from_base();
                let taxon = donor.top().expect("busy donor has a top frame").taxon;

                // Thief A — the old mechanism: fresh root state, replay the
                // recorded path, work the stolen half.
                let mut replayer = Explorer::new_idle(fresh_state(&problem, mode));
                replayer.begin_task(&path, taxon, stolen.clone());
                prop_assert_eq!(replayer.applied_depth(), path.len());
                let mut replay_sink = CollectNewick::with_cap(&taxa, CAP);
                let replay_work = drain(&mut replayer, &mut replay_sink);
                replayer.end_task();

                // Thief B — the new mechanism: resume an owned snapshot of
                // the donor's state, no replay.
                let snap = donor.state().snapshot();
                prop_assert_eq!(
                    snap.remaining_count() + donor.applied_depth(),
                    problem.num_taxa() - problem.constraints()[0].taxa().count(),
                    "snapshot remaining-taxa accounting broken"
                );
                let mut resumer = Explorer::new_idle(SearchState::resume(&problem, snap));
                resumer.resume_task(taxon, stolen);
                let mut resume_sink = CollectNewick::with_cap(&taxa, CAP);
                let resume_work = drain(&mut resumer, &mut resume_sink);

                prop_assert_eq!(
                    resume_work, replay_work,
                    "mode {:?} depth {}: counters diverged", mode, path.len()
                );
                replay_sink.out.sort();
                resume_sink.out.sort();
                prop_assert_eq!(
                    resume_sink.out, replay_sink.out,
                    "mode {:?} depth {}: stand sets diverged", mode, path.len()
                );
                compared += 1;
            }
        }
    }

    /// A depth-0 snapshot (taken before any insertion) resumed over the
    /// root frame must reproduce the whole enumeration — the degenerate
    /// case the engine's initial-split injection relies on.
    #[test]
    fn depth_zero_snapshot_reproduces_the_full_enumeration(seed in 0u64..u64::MAX) {
        for mode in MODES {
            let (taxa, problem) = random_problem(seed);
            // Reference: an undisturbed run from the root.
            let mut reference = Explorer::new_root(fresh_state(&problem, mode));
            let mut ref_sink = CollectNewick::with_cap(&taxa, CAP);
            let full = drain(&mut reference, &mut ref_sink);

            // Snapshot the virgin root state, then resume it over the same
            // root frame a fresh explorer opens at construction.
            let root = fresh_state(&problem, mode);
            let snap = root.snapshot();
            let donor = Explorer::new_root(root);
            let Some(top) = donor.top() else {
                continue; // root state already complete (single-tree stand)
            };
            let (taxon, branches) = (top.taxon, top.branches.clone());
            let mut resumer = Explorer::new_idle(SearchState::resume(&problem, snap));
            resumer.resume_task(taxon, branches);
            let mut resume_sink = CollectNewick::with_cap(&taxa, CAP);
            let work = drain(&mut resumer, &mut resume_sink);
            prop_assert_eq!(work, full, "mode {:?}: depth-0 counters diverged", mode);
            ref_sink.out.sort();
            resume_sink.out.sort();
            prop_assert_eq!(resume_sink.out, ref_sink.out.clone(), "mode {:?}", mode);
        }
    }
}
