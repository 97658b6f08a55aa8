//! Scheduler-policy tests of the virtual-time simulator: the paper's task
//! restrictions (queue capacity rule, ≥3-remaining-taxa cut-off) must
//! behave as designed, and results must be invariant to them — under
//! every mapping engine. The simulator replays the scheduler policy on
//! top of the real kernels, so each test runs the full Recompute /
//! EdgeIndexed matrix: a policy invariant that holds only under one
//! kernel is not an invariant.

use gentrius_core::{GentriusConfig, MappingMode, StandProblem, StoppingRules};
use gentrius_datagen::{simulated_dataset, MissingPattern, SimulatedParams};
use gentrius_sim::{simulate, CostModel, SimConfig};
use phylo::generate::ShapeModel;

const MODES: [MappingMode; 2] = [MappingMode::Recompute, MappingMode::EdgeIndexed];

fn medium_instance() -> StandProblem {
    let params = SimulatedParams {
        taxa: (20, 20),
        loci: (5, 5),
        missing: (0.45, 0.5),
        pattern: MissingPattern::Uniform,
        shape: ShapeModel::Uniform,
    };
    // Search a deterministic index with a non-trivial serial cost.
    for i in 0..40 {
        let d = simulated_dataset(&params, 31_337, i);
        let Ok(p) = d.problem() else { continue };
        let cfg = GentriusConfig {
            stopping: StoppingRules::counts(100_000, 100_000),
            ..GentriusConfig::default()
        };
        let s = simulate(&p, &cfg, &SimConfig::with_threads(1)).unwrap();
        if s.complete() && s.makespan > 4_000 {
            return p;
        }
    }
    panic!("no medium instance found in the seeded family");
}

fn config(mapping: MappingMode) -> GentriusConfig {
    GentriusConfig {
        mapping,
        stopping: StoppingRules::counts(100_000, 100_000),
        ..GentriusConfig::default()
    }
}

#[test]
fn results_invariant_to_all_policy_knobs() {
    let p = medium_instance();
    let mut reference = None;
    for mode in MODES {
        let cfg = config(mode);
        let serial = simulate(&p, &cfg, &SimConfig::with_threads(1)).unwrap();
        // The counters may not depend on the mapping engine either.
        let reference = reference.get_or_insert(serial.stats);
        assert_eq!(&serial.stats, reference, "{mode}: serial counters drifted");
        for threads in [2usize, 8] {
            for capacity in [Some(1usize), Some(4), None] {
                for min_remaining in [2usize, 3, 6] {
                    for stealing in [true, false] {
                        let mut sc = SimConfig::with_threads(threads);
                        sc.queue_capacity = capacity;
                        sc.min_remaining_for_split = min_remaining;
                        sc.stealing = stealing;
                        let r = simulate(&p, &cfg, &sc).unwrap();
                        assert_eq!(
                            &r.stats, reference,
                            "{mode} threads={threads} cap={capacity:?} \
                             min={min_remaining} steal={stealing}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn zero_capacity_queue_disables_stealing() {
    let p = medium_instance();
    for mode in MODES {
        let cfg = config(mode);
        let mut with_queue = SimConfig::with_threads(8);
        with_queue.cost = CostModel::ideal();
        let mut no_queue = with_queue.clone();
        no_queue.queue_capacity = Some(0);
        let a = simulate(&p, &cfg, &with_queue).unwrap();
        let b = simulate(&p, &cfg, &no_queue).unwrap();
        assert_eq!(
            b.tasks_stolen, 0,
            "{mode}: capacity 0 must prevent submissions"
        );
        assert!(
            a.tasks_stolen > 0,
            "{mode}: default capacity should allow stealing"
        );
        assert!(a.makespan <= b.makespan, "{mode}: stealing must not hurt");
        // A zero-capacity queue is exactly the static-split mode.
        let mut static_mode = with_queue.clone();
        static_mode.stealing = false;
        let c = simulate(&p, &cfg, &static_mode).unwrap();
        assert_eq!(b.makespan, c.makespan, "{mode}");
    }
}

#[test]
fn larger_min_remaining_reduces_task_traffic() {
    let p = medium_instance();
    for mode in MODES {
        let cfg = config(mode);
        let stolen = |min: usize| {
            let mut sc = SimConfig::with_threads(8);
            sc.min_remaining_for_split = min;
            simulate(&p, &cfg, &sc).unwrap().tasks_stolen
        };
        let loose = stolen(2);
        let paper = stolen(3);
        let strict = stolen(8);
        assert!(loose >= paper, "{mode}: loose {loose} < paper {paper}");
        assert!(paper >= strict, "{mode}: paper {paper} < strict {strict}");
    }
}

#[test]
fn makespan_never_below_critical_work_over_threads() {
    // Sanity: T_N >= T_1 / N on the ideal machine (no superlinear gains
    // without stopping rules).
    let p = medium_instance();
    for mode in MODES {
        let cfg = config(mode);
        let mut base = SimConfig::with_threads(1);
        base.cost = CostModel::ideal();
        let serial = simulate(&p, &cfg, &base).unwrap();
        for threads in [2usize, 4, 8, 16, 32] {
            let mut sc = SimConfig::with_threads(threads);
            sc.cost = CostModel::ideal();
            let r = simulate(&p, &cfg, &sc).unwrap();
            let lower = serial.makespan / threads as u64;
            assert!(
                r.makespan >= lower,
                "{mode} threads {threads}: {} < {lower}",
                r.makespan
            );
            assert!(r.makespan <= serial.makespan, "{mode} threads {threads}");
        }
    }
}
