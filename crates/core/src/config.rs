//! Run configuration: heuristics, stopping rules and mapping engine.

use phylo::taxa::TaxonId;
use std::time::Duration;

/// How the initial agile tree is chosen among the constraint trees
/// (paper §II-B, first heuristic).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum InitialTreeRule {
    /// The constraint tree sharing the largest total number of taxa with
    /// all remaining constraint trees (the paper's default heuristic).
    #[default]
    MaxOverlap,
    /// A fixed constraint tree by index — used to reproduce the paper's
    /// "random constraint tree" ablation deterministically.
    Index(usize),
}

/// How the next taxon to insert is selected (paper §II-B, second
/// heuristic: *dynamic taxon insertion*; the paper's §V lists exploring
/// further insertion-order heuristics as future work — the last two
/// variants are that exploration, evaluated by the E11 bench).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum TaxonOrderRule {
    /// At every state insert the remaining taxon with the fewest admissible
    /// branches (ties broken by smallest taxon id). The paper's default.
    #[default]
    Dynamic,
    /// Insert in increasing taxon-id order.
    ById,
    /// Insert in an explicitly given order (must cover all missing taxa;
    /// used for the shuffled-order ablation of §II-B).
    Fixed(Vec<TaxonId>),
    /// Future-work variant 1 (static): insert taxa in descending order of
    /// how many constraint trees contain them — highly shared taxa are
    /// the most constrained on average, so they are placed early without
    /// paying the per-state admissibility scan of `Dynamic`.
    MostConstrainedFirst,
    /// Future-work variant 2 (dynamic): fewest admissible branches, with
    /// ties broken by the *most* containing constraints (instead of the
    /// smallest id) — among equally-pinned taxa, prefer the one whose
    /// insertion refines the most mappings.
    DynamicByConstraints,
}

/// How per-constraint projections are maintained across insertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MappingMode {
    /// Recompute all attachment maps at every state — the oracle engine
    /// every other mode is conformance-checked against.
    Recompute,
    /// Patch `Arc<Split>`-based maps incrementally on insert/remove with an
    /// undo log (the scheme the paper's implementation uses; §V notes it
    /// costs 15–30% of total runtime to maintain).
    Incremental,
    /// Flat `Vec<CladeKey>` kernels indexed by `EdgeId`, patched on
    /// insert/undone on remove: each common-subtree edge is named by the
    /// smallest member and size of its below-set of common taxa, so the
    /// admissibility test collapses to one integer compare per (edge,
    /// constraint). The default.
    #[default]
    EdgeIndexed,
}

impl MappingMode {
    /// Stable CLI/metrics name of the mode.
    pub fn as_str(self) -> &'static str {
        match self {
            MappingMode::Recompute => "recompute",
            MappingMode::Incremental => "incremental",
            MappingMode::EdgeIndexed => "edge-indexed",
        }
    }
}

impl std::fmt::Display for MappingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for MappingMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "recompute" => Ok(MappingMode::Recompute),
            "incremental" => Ok(MappingMode::Incremental),
            "edge-indexed" | "edgeindexed" => Ok(MappingMode::EdgeIndexed),
            other => Err(format!(
                "unknown mapping mode '{other}' (expected recompute, incremental or edge-indexed)"
            )),
        }
    }
}

/// The three stopping rules of §II-B. `None` disables a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoppingRules {
    /// Rule 1: stop after counting more than this many stand trees.
    pub max_stand_trees: Option<u64>,
    /// Rule 2: stop after visiting more than this many intermediate states.
    pub max_intermediate_states: Option<u64>,
    /// Rule 3: stop after this much wall-clock time.
    pub max_time: Option<Duration>,
}

impl StoppingRules {
    /// The paper's defaults: 10^6 trees, 10^7 states, 168 hours.
    pub fn paper_defaults() -> Self {
        StoppingRules {
            max_stand_trees: Some(1_000_000),
            max_intermediate_states: Some(10_000_000),
            max_time: Some(Duration::from_secs(168 * 3600)),
        }
    }

    /// No limits (full enumeration; use only when the stand is known small).
    pub fn unlimited() -> Self {
        StoppingRules {
            max_stand_trees: None,
            max_intermediate_states: None,
            max_time: None,
        }
    }

    /// Limits on trees and states only (deterministic; no timer).
    pub fn counts(max_trees: u64, max_states: u64) -> Self {
        StoppingRules {
            max_stand_trees: Some(max_trees),
            max_intermediate_states: Some(max_states),
            max_time: None,
        }
    }
}

impl Default for StoppingRules {
    fn default() -> Self {
        StoppingRules::paper_defaults()
    }
}

/// Which stopping rule fired, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// Rule 1: the stand-tree limit was reached.
    StandTreeLimit,
    /// Rule 2: the intermediate-state limit was reached.
    StateLimit,
    /// Rule 3: the time limit was reached.
    TimeLimit,
}

/// Complete configuration of a Gentrius run.
#[derive(Clone, Debug, Default)]
pub struct GentriusConfig {
    /// Initial agile tree selection.
    pub initial_tree: InitialTreeRule,
    /// Taxon insertion order.
    pub taxon_order: TaxonOrderRule,
    /// Stopping rules.
    pub stopping: StoppingRules,
    /// Mapping maintenance engine.
    pub mapping: MappingMode,
}

impl GentriusConfig {
    /// Paper-default configuration.
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// Full enumeration with both heuristics on and no limits.
    pub fn exhaustive() -> Self {
        GentriusConfig {
            stopping: StoppingRules::unlimited(),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iib() {
        let s = StoppingRules::paper_defaults();
        assert_eq!(s.max_stand_trees, Some(1_000_000));
        assert_eq!(s.max_intermediate_states, Some(10_000_000));
        assert_eq!(s.max_time, Some(Duration::from_secs(604_800)));
    }

    #[test]
    fn default_config_uses_both_heuristics() {
        let c = GentriusConfig::default();
        assert_eq!(c.initial_tree, InitialTreeRule::MaxOverlap);
        assert_eq!(c.taxon_order, TaxonOrderRule::Dynamic);
        assert_eq!(c.mapping, MappingMode::EdgeIndexed);
    }

    #[test]
    fn mapping_mode_round_trips_through_names() {
        for mode in [
            MappingMode::Recompute,
            MappingMode::Incremental,
            MappingMode::EdgeIndexed,
        ] {
            assert_eq!(mode.as_str().parse::<MappingMode>(), Ok(mode));
        }
        assert_eq!(
            "edgeindexed".parse::<MappingMode>(),
            Ok(MappingMode::EdgeIndexed)
        );
        assert!("hashmap".parse::<MappingMode>().is_err());
    }

    #[test]
    fn unlimited_disables_everything() {
        let s = StoppingRules::unlimited();
        assert!(s.max_stand_trees.is_none());
        assert!(s.max_intermediate_states.is_none());
        assert!(s.max_time.is_none());
    }
}
