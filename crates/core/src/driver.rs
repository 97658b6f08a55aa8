//! The serial Gentrius driver: runs the [`Explorer`] to completion while
//! accounting and enforcing the stopping rules.

use crate::config::{GentriusConfig, StopCause};
use crate::explore::{Explorer, StepEvent};
use crate::problem::{ProblemError, StandProblem};
use crate::sink::StandSink;
use crate::state::SearchState;
use crate::stats::RunStats;
use std::time::{Duration, Instant};

/// Outcome of one (serial) Gentrius run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// The counters (stand trees / intermediate states / dead ends).
    pub stats: RunStats,
    /// Which stopping rule fired; `None` means the enumeration completed
    /// and `stats.stand_trees` is the exact stand size.
    pub stop: Option<StopCause>,
    /// Wall-clock duration of the exploration.
    pub elapsed: Duration,
    /// Index of the constraint tree used as the initial agile tree.
    pub initial_tree: usize,
}

impl RunResult {
    /// True if the stand was fully enumerated (no stopping rule fired).
    pub fn complete(&self) -> bool {
        self.stop.is_none()
    }
}

/// How often (in step events) the wall-clock stopping rule is polled;
/// counter rules are checked on every event.
const TIME_CHECK_INTERVAL: u64 = 8192;

/// Runs the sequential Gentrius algorithm on `problem` with `config`,
/// streaming every complete stand tree into `sink`.
///
/// Before exploring, the initial agile tree is checked for pairwise
/// compatibility against every constraint (the invariant `A|C_i = T_i|C_i`
/// must hold at the root); an incompatible input yields an immediate empty
/// stand.
pub fn run_serial<S: StandSink>(
    problem: &StandProblem,
    config: &GentriusConfig,
    sink: &mut S,
) -> Result<RunResult, ProblemError> {
    let initial = problem.initial_tree_index(&config.initial_tree)?;
    let started = Instant::now();

    // Root invariant check: the initial tree must be compatible with every
    // other constraint, otherwise the stand is empty by definition.
    if problem
        .conflicting_constraint(&problem.constraints()[initial])
        .is_some()
    {
        return Ok(RunResult {
            stats: RunStats::new(),
            stop: None,
            elapsed: started.elapsed(),
            initial_tree: initial,
        });
    }

    let mut state = SearchState::new(problem, initial, &config.taxon_order)
        .map_err(ProblemError::BadTaxonOrder)?;
    state.enable_mapping(config.mapping);
    let mut explorer = Explorer::new_root(state);
    let mut stats = RunStats::new();
    let mut stop = None;
    let mut events: u64 = 0;

    loop {
        match explorer.step(sink) {
            StepEvent::Entered => stats.intermediate_states += 1,
            StepEvent::StandTree => stats.stand_trees += 1,
            StepEvent::DeadEnd => {
                stats.intermediate_states += 1;
                stats.dead_ends += 1;
            }
            StepEvent::Backtracked => {}
            StepEvent::Finished => break,
        }
        events += 1;
        if let Some(max) = config.stopping.max_stand_trees {
            if stats.stand_trees >= max {
                stop = Some(StopCause::StandTreeLimit);
                break;
            }
        }
        if let Some(max) = config.stopping.max_intermediate_states {
            if stats.intermediate_states >= max {
                stop = Some(StopCause::StateLimit);
                break;
            }
        }
        if events.is_multiple_of(TIME_CHECK_INTERVAL) {
            if let Some(max) = config.stopping.max_time {
                if started.elapsed() >= max {
                    stop = Some(StopCause::TimeLimit);
                    break;
                }
            }
        }
    }

    Ok(RunResult {
        stats,
        stop,
        elapsed: started.elapsed(),
        initial_tree: initial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InitialTreeRule, MappingMode, StoppingRules, TaxonOrderRule};
    use crate::sink::CountOnly;
    use phylo::newick::parse_forest;

    fn problem(newicks: &[&str]) -> StandProblem {
        let (_, trees) = parse_forest(newicks.iter().copied()).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    #[test]
    fn complete_run_reports_no_stop() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let r = run_serial(&p, &GentriusConfig::exhaustive(), &mut CountOnly).unwrap();
        assert!(r.complete());
        assert!(r.stats.stand_trees > 0);
    }

    #[test]
    fn stand_tree_limit_fires() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let full = run_serial(&p, &GentriusConfig::exhaustive(), &mut CountOnly).unwrap();
        assert!(full.stats.stand_trees > 3);
        let cfg = GentriusConfig {
            stopping: StoppingRules::counts(3, u64::MAX),
            ..GentriusConfig::default()
        };
        let r = run_serial(&p, &cfg, &mut CountOnly).unwrap();
        assert_eq!(r.stop, Some(StopCause::StandTreeLimit));
        assert_eq!(r.stats.stand_trees, 3);
    }

    #[test]
    fn state_limit_fires() {
        let p = problem(&["((A,B),(C,D));", "((A,E),(F,G));"]);
        let cfg = GentriusConfig {
            stopping: StoppingRules::counts(u64::MAX, 2),
            ..GentriusConfig::default()
        };
        let r = run_serial(&p, &cfg, &mut CountOnly).unwrap();
        assert_eq!(r.stop, Some(StopCause::StateLimit));
        assert_eq!(r.stats.intermediate_states, 2);
    }

    #[test]
    fn incompatible_initial_tree_short_circuits() {
        // Two quartets on the same taxa with conflicting topology.
        let p = problem(&["((A,B),(C,D));", "((A,C),(B,D));"]);
        let r = run_serial(&p, &GentriusConfig::exhaustive(), &mut CountOnly).unwrap();
        assert!(r.complete());
        assert_eq!(r.stats.stand_trees, 0);
        assert_eq!(r.stats.intermediate_states, 0);
    }

    #[test]
    fn initial_tree_rule_is_respected() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));", "((E,F),(G,H));"]);
        let cfg = GentriusConfig {
            initial_tree: InitialTreeRule::Index(2),
            stopping: StoppingRules::unlimited(),
            ..GentriusConfig::default()
        };
        let r = run_serial(&p, &cfg, &mut CountOnly).unwrap();
        assert_eq!(r.initial_tree, 2);
        let r2 = run_serial(&p, &GentriusConfig::exhaustive(), &mut CountOnly).unwrap();
        assert_eq!(r2.initial_tree, 1); // MaxOverlap picks the hub tree
                                        // Same stand size regardless of starting tree.
        assert_eq!(r.stats.stand_trees, r2.stats.stand_trees);
    }

    #[test]
    fn order_rules_same_count_different_effort() {
        // §II-B: disabling dynamic insertion preserves correctness but
        // typically visits more states / dead ends.
        let p = problem(&[
            "((A,B),(C,D));",
            "((A,B),(C,E));",
            "((B,C),(D,F));",
            "((A,E),(D,G));",
        ]);
        let dynamic = run_serial(&p, &GentriusConfig::exhaustive(), &mut CountOnly).unwrap();
        let by_id = run_serial(
            &p,
            &GentriusConfig {
                taxon_order: TaxonOrderRule::ById,
                stopping: StoppingRules::unlimited(),
                ..GentriusConfig::default()
            },
            &mut CountOnly,
        )
        .unwrap();
        assert_eq!(dynamic.stats.stand_trees, by_id.stats.stand_trees);
    }

    #[test]
    fn all_order_rules_agree_on_stand_size() {
        let p = problem(&[
            "((A,B),(C,D));",
            "((A,B),(C,E));",
            "((B,C),(D,F));",
            "((A,E),(D,G));",
        ]);
        let mut sizes = Vec::new();
        for order in [
            TaxonOrderRule::Dynamic,
            TaxonOrderRule::ById,
            TaxonOrderRule::MostConstrainedFirst,
            TaxonOrderRule::DynamicByConstraints,
        ] {
            let cfg = GentriusConfig {
                taxon_order: order,
                stopping: StoppingRules::unlimited(),
                ..GentriusConfig::default()
            };
            sizes.push(
                run_serial(&p, &cfg, &mut CountOnly)
                    .unwrap()
                    .stats
                    .stand_trees,
            );
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn bad_fixed_order_is_reported() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));"]);
        let cfg = GentriusConfig {
            taxon_order: TaxonOrderRule::Fixed(vec![phylo::TaxonId(4)]), // misses F
            ..GentriusConfig::default()
        };
        assert!(matches!(
            run_serial(&p, &cfg, &mut CountOnly),
            Err(ProblemError::BadTaxonOrder(_))
        ));
    }

    #[test]
    fn all_mapping_modes_match_recompute() {
        let p = problem(&["((A,B),(C,D));", "((C,D),(E,F));", "((A,F),(G,B));"]);
        let rec = run_serial(
            &p,
            &GentriusConfig {
                mapping: MappingMode::Recompute,
                stopping: StoppingRules::unlimited(),
                ..GentriusConfig::default()
            },
            &mut CountOnly,
        )
        .unwrap();
        for mapping in [MappingMode::Incremental, MappingMode::EdgeIndexed] {
            let alt = run_serial(
                &p,
                &GentriusConfig {
                    mapping,
                    stopping: StoppingRules::unlimited(),
                    ..GentriusConfig::default()
                },
                &mut CountOnly,
            )
            .unwrap();
            assert_eq!(rec.stats, alt.stats, "{mapping}");
        }
    }
}
