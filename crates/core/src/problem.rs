//! The stand-enumeration problem instance: a set of unrooted, incomplete
//! constraint trees over a common taxon universe.

use crate::config::InitialTreeRule;
use phylo::bitset::BitSet;
use phylo::ops::compatible;
use phylo::pam::Pam;
use phylo::tree::Tree;
use std::fmt;

/// Errors constructing a [`StandProblem`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProblemError {
    /// No constraint trees were given.
    Empty,
    /// Constraint `i` is not a binary unrooted tree.
    NotBinary(usize),
    /// Constraint `i` has fewer than three taxa (no informative topology
    /// and no place to start an insertion from).
    TooSmall(usize),
    /// Constraint `i` addresses a different taxon universe size.
    UniverseMismatch(usize),
    /// The initial-tree index given by [`InitialTreeRule::Index`] is out of
    /// bounds.
    BadInitialIndex(usize),
    /// A fixed taxon-insertion order does not cover the missing taxa.
    BadTaxonOrder(String),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::Empty => write!(f, "no constraint trees"),
            ProblemError::NotBinary(i) => write!(f, "constraint {i} is not binary unrooted"),
            ProblemError::TooSmall(i) => write!(f, "constraint {i} has fewer than 3 taxa"),
            ProblemError::UniverseMismatch(i) => {
                write!(f, "constraint {i} has a different taxon universe")
            }
            ProblemError::BadInitialIndex(i) => {
                write!(f, "initial tree index {i} out of bounds")
            }
            ProblemError::BadTaxonOrder(m) => write!(f, "bad taxon order: {m}"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// A stand-enumeration instance: constraint trees `T_i` on `Y_i ⊆ X`.
///
/// The *stand* is the set of all binary unrooted trees on
/// `X = ∪ Y_i` displaying every `T_i`.
#[derive(Clone, Debug)]
pub struct StandProblem {
    universe: usize,
    constraints: Vec<Tree>,
    /// `X = ∪ Y_i`.
    all_taxa: BitSet,
    /// For each taxon, the indices of the constraints containing it.
    taxon_constraints: Vec<Vec<u32>>,
}

impl StandProblem {
    /// Builds a problem from constraint trees (Gentrius input mode 1).
    /// All trees must share the same universe, be binary unrooted and have
    /// at least three taxa.
    pub fn from_constraints(constraints: Vec<Tree>) -> Result<Self, ProblemError> {
        if constraints.is_empty() {
            return Err(ProblemError::Empty);
        }
        let universe = constraints[0].universe();
        for (i, t) in constraints.iter().enumerate() {
            if t.universe() != universe {
                return Err(ProblemError::UniverseMismatch(i));
            }
            if t.leaf_count() < 3 {
                return Err(ProblemError::TooSmall(i));
            }
            if !t.is_binary_unrooted() {
                return Err(ProblemError::NotBinary(i));
            }
        }
        let mut all_taxa = BitSet::new(universe);
        for t in &constraints {
            all_taxa.union_with(t.taxa());
        }
        let mut taxon_constraints = vec![Vec::new(); universe];
        for (i, t) in constraints.iter().enumerate() {
            for tx in t.taxa().iter() {
                taxon_constraints[tx].push(i as u32);
            }
        }
        Ok(StandProblem {
            universe,
            constraints,
            all_taxa,
            taxon_constraints,
        })
    }

    /// Builds a problem from a complete species tree plus a PAM (Gentrius
    /// input mode 2): the constraints are the per-locus induced subtrees.
    /// Loci inducing fewer than three taxa are rejected via the normal
    /// constraint validation.
    pub fn from_species_tree_and_pam(tree: &Tree, pam: &Pam) -> Result<Self, ProblemError> {
        Self::from_constraints(pam.induced_subtrees(tree))
    }

    /// The taxon universe size.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The constraint trees.
    pub fn constraints(&self) -> &[Tree] {
        &self.constraints
    }

    /// `X`: the union of all constraint leaf sets.
    pub fn all_taxa(&self) -> &BitSet {
        &self.all_taxa
    }

    /// Number of taxa in `X`.
    pub fn num_taxa(&self) -> usize {
        self.all_taxa.count()
    }

    /// Indices of constraints containing taxon `t`.
    pub fn constraints_of_taxon(&self, t: usize) -> &[u32] {
        &self.taxon_constraints[t]
    }

    /// The first constraint `T_i` that `agile` disagrees with on their
    /// common taxa `C_i` (`agile|C_i ≠ T_i|C_i`), or `None` when it agrees
    /// with all of them.
    ///
    /// Agreement is the invariant of every search state: it makes an empty
    /// stand certain at the root when it fails there, and the edge-indexed
    /// kernels' clade keys are exact only while it holds. The search keeps
    /// it from the root on; this is the one check for states that come
    /// from elsewhere — the initial tree of every engine and each task
    /// tree read back from a checkpoint.
    pub fn conflicting_constraint(&self, agile: &Tree) -> Option<usize> {
        self.constraints.iter().position(|t| !compatible(agile, t))
    }

    /// Chooses the initial agile tree index per `rule`.
    ///
    /// [`InitialTreeRule::MaxOverlap`] is the paper's heuristic: the
    /// constraint sharing the largest total number of taxa with all other
    /// constraints (ties → smallest index).
    pub fn initial_tree_index(&self, rule: &InitialTreeRule) -> Result<usize, ProblemError> {
        match rule {
            InitialTreeRule::Index(i) => {
                if *i < self.constraints.len() {
                    Ok(*i)
                } else {
                    Err(ProblemError::BadInitialIndex(*i))
                }
            }
            InitialTreeRule::MaxOverlap => {
                let mut best = 0usize;
                let mut best_score = 0usize;
                for (j, tj) in self.constraints.iter().enumerate() {
                    let mut score = 0usize;
                    for (i, ti) in self.constraints.iter().enumerate() {
                        if i != j {
                            score += tj.taxa().intersection_count(ti.taxa());
                        }
                    }
                    if j == 0 || score > best_score {
                        best = j;
                        best_score = score;
                    }
                }
                Ok(best)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::newick::parse_forest;

    #[test]
    fn construction_and_union() {
        let (_, trees) = parse_forest(["((A,B),(C,D));", "((C,D),(E,F));"]).unwrap();
        let p = StandProblem::from_constraints(trees).unwrap();
        assert_eq!(p.num_taxa(), 6);
        assert_eq!(p.constraints().len(), 2);
        assert_eq!(p.constraints_of_taxon(2), &[0, 1]); // C in both
        assert_eq!(p.constraints_of_taxon(0), &[0]); // A only in first
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            StandProblem::from_constraints(vec![]).unwrap_err(),
            ProblemError::Empty
        );
        let (_, trees) = parse_forest(["(A,B,C,D);"]).unwrap(); // star
        assert_eq!(
            StandProblem::from_constraints(trees).unwrap_err(),
            ProblemError::NotBinary(0)
        );
        let (_, trees) = parse_forest(["(A,B);"]).unwrap();
        assert_eq!(
            StandProblem::from_constraints(trees).unwrap_err(),
            ProblemError::TooSmall(0)
        );
    }

    #[test]
    fn max_overlap_picks_hub_tree() {
        // Middle tree shares taxa with both others; outer trees share only
        // with the middle one.
        let (_, trees) =
            parse_forest(["((A,B),(C,D));", "((C,D),(E,F));", "((E,F),(G,H));"]).unwrap();
        let p = StandProblem::from_constraints(trees).unwrap();
        assert_eq!(
            p.initial_tree_index(&InitialTreeRule::MaxOverlap).unwrap(),
            1
        );
        assert_eq!(p.initial_tree_index(&InitialTreeRule::Index(2)).unwrap(), 2);
        assert!(p.initial_tree_index(&InitialTreeRule::Index(9)).is_err());
    }

    #[test]
    fn conflicting_constraint_names_the_first_disagreement() {
        let (_, trees) =
            parse_forest(["((A,B),(C,D));", "((A,C),(E,F));", "((A,C),(B,D));"]).unwrap();
        let p = StandProblem::from_constraints(trees).unwrap();
        // Constraint 1 shares only {A,C} with constraint 0; constraint 2
        // splits {A,B,C,D} the other way.
        assert_eq!(p.conflicting_constraint(&p.constraints()[0]), Some(2));
        assert_eq!(p.conflicting_constraint(&p.constraints()[1]), None);
    }

    #[test]
    fn from_pam_mode() {
        let (_, trees) = parse_forest(["((A,B),((C,D),(E,F)));"]).unwrap();
        let mut pam = Pam::new(6, 2);
        for t in [0, 1, 2, 3] {
            pam.set(phylo::TaxonId(t), 0, true);
        }
        for t in [2, 3, 4, 5] {
            pam.set(phylo::TaxonId(t), 1, true);
        }
        let p = StandProblem::from_species_tree_and_pam(&trees[0], &pam).unwrap();
        assert_eq!(p.num_taxa(), 6);
        assert_eq!(p.constraints().len(), 2);
    }
}
