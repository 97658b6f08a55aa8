//! # gentrius-core — sequential Gentrius stand enumeration
//!
//! A from-scratch Rust implementation of the Gentrius branch-and-bound
//! algorithm (Chernomor et al. 2023) as described in §II of
//! *"Parallel Inference of Phylogenetic Stands with Gentrius"* (IPPS 2023):
//! given a set of unrooted, incomplete *constraint trees*, enumerate every
//! binary unrooted tree on the full taxon set that displays all of them —
//! the *stand*.
//!
//! The crate provides:
//!
//! * [`StandProblem`] — the instance (constraint trees, or a species tree
//!   plus a presence–absence matrix);
//! * [`GentriusConfig`] — the paper's two heuristics (initial-tree
//!   selection, dynamic taxon insertion), the three stopping rules, and the
//!   mapping-maintenance engine;
//! * [`Terrace`] — the high-level entry point (named after the class that
//!   hosts the algorithm in IQ-TREE 2, §III-B);
//! * [`explore::Explorer`] — the underlying explicit-stack step machine,
//!   shared with the parallel engine and the virtual-time simulator.
//!
//! ```
//! use gentrius_core::{GentriusConfig, Terrace};
//! use phylo::newick::parse_forest;
//!
//! let (taxa, trees) = parse_forest(["((A,B),(C,D));", "((C,D),(E,F));"]).unwrap();
//! let terrace = Terrace::from_constraint_trees(trees).unwrap();
//! let result = terrace.count(&GentriusConfig::exhaustive()).unwrap();
//! assert!(result.complete());
//! assert!(result.stats.stand_trees > 0);
//! # let _ = taxa;
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod driver;
pub mod edge_index;
pub mod explore;
pub mod mapping;
pub mod oracle;
pub mod problem;
pub mod sink;
pub mod state;
pub mod stats;

pub use analysis::{SplitSupportSink, StandSummary};
pub use config::{
    GentriusConfig, InitialTreeRule, MappingMode, StopCause, StoppingRules, TaxonOrderRule,
};
pub use driver::{run_serial, RunResult};
pub use problem::{ProblemError, StandProblem};
pub use sink::{
    canonical_stand_set, BatchingSink, CollectNewick, CollectTrees, CountOnly, StandSink,
};
pub use stats::RunStats;

use phylo::pam::Pam;
use phylo::tree::Tree;

/// High-level stand-enumeration entry point over a [`StandProblem`].
///
/// Mirrors the `Terrace` class of the paper's implementation (§III-B): it
/// owns the constraint trees and offers counting / enumeration with a
/// chosen configuration.
#[derive(Clone, Debug)]
pub struct Terrace {
    problem: StandProblem,
}

impl Terrace {
    /// Input mode 1: a set of unrooted incomplete constraint trees.
    pub fn from_constraint_trees(trees: Vec<Tree>) -> Result<Self, ProblemError> {
        Ok(Terrace {
            problem: StandProblem::from_constraints(trees)?,
        })
    }

    /// Input mode 2: a complete species tree plus a presence–absence
    /// matrix; constraints are the per-locus induced subtrees.
    pub fn from_species_tree_and_pam(tree: &Tree, pam: &Pam) -> Result<Self, ProblemError> {
        Ok(Terrace {
            problem: StandProblem::from_species_tree_and_pam(tree, pam)?,
        })
    }

    /// The underlying problem instance.
    pub fn problem(&self) -> &StandProblem {
        &self.problem
    }

    /// Counts the stand (serial), discarding topologies.
    pub fn count(&self, config: &GentriusConfig) -> Result<RunResult, ProblemError> {
        self.enumerate(config, &mut CountOnly)
    }

    /// Enumerates the stand (serial), streaming each complete tree into
    /// `sink`.
    pub fn enumerate<S: StandSink>(
        &self,
        config: &GentriusConfig,
        sink: &mut S,
    ) -> Result<RunResult, ProblemError> {
        run_serial(&self.problem, config, sink)
    }

    /// Quick terrace check: does the stand contain more than one tree?
    /// Runs with a 2-tree stopping rule, so the cost is a few states even
    /// on inputs whose full stand is astronomical.
    pub fn is_on_terrace(&self) -> Result<bool, ProblemError> {
        Ok(self.stand_size_at_least(2)? >= 2)
    }

    /// Counts stand trees up to `k` and stops: returns `min(stand, k)`
    /// exactly. The cheap way to ask "is the stand at least this big?"
    /// without paying for full enumeration.
    pub fn stand_size_at_least(&self, k: u64) -> Result<u64, ProblemError> {
        let cfg = GentriusConfig {
            stopping: StoppingRules {
                max_stand_trees: Some(k),
                max_intermediate_states: None,
                max_time: None,
            },
            ..GentriusConfig::default()
        };
        Ok(self.count(&cfg)?.stats.stand_trees.min(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::newick::parse_forest;
    use phylo::TaxonId;

    #[test]
    fn terrace_from_pam_equals_from_induced_trees() {
        let (_, trees) = parse_forest(["(((A,B),(C,D)),((E,F),(G,H)));"]).unwrap();
        let species = &trees[0];
        let mut pam = Pam::new(8, 2);
        for t in [0, 1, 2, 3, 4] {
            pam.set(TaxonId(t), 0, true);
        }
        for t in [3, 4, 5, 6, 7] {
            pam.set(TaxonId(t), 1, true);
        }
        let t1 = Terrace::from_species_tree_and_pam(species, &pam).unwrap();
        let t2 = Terrace::from_constraint_trees(pam.induced_subtrees(species)).unwrap();
        let cfg = GentriusConfig::exhaustive();
        let r1 = t1.count(&cfg).unwrap();
        let r2 = t2.count(&cfg).unwrap();
        assert_eq!(r1.stats, r2.stats);
        // The species tree itself is on the stand.
        assert!(r1.stats.stand_trees >= 1);
    }

    #[test]
    fn terrace_checks_are_cheap_and_exact() {
        let (_, trees) = parse_forest(["((A,B),(C,D));", "((C,D),(E,F));"]).unwrap();
        let t = Terrace::from_constraint_trees(trees).unwrap();
        assert!(t.is_on_terrace().unwrap());
        let full = t
            .count(&GentriusConfig::exhaustive())
            .unwrap()
            .stats
            .stand_trees;
        assert_eq!(t.stand_size_at_least(3).unwrap(), 3.min(full));
        assert_eq!(t.stand_size_at_least(u64::MAX).unwrap(), full);

        // A single complete constraint: stand of exactly one tree.
        let (_, one) = parse_forest(["((A,B),((C,D),E));"]).unwrap();
        let t1 = Terrace::from_constraint_trees(one).unwrap();
        assert!(!t1.is_on_terrace().unwrap());
        assert_eq!(t1.stand_size_at_least(10).unwrap(), 1);
    }
}
