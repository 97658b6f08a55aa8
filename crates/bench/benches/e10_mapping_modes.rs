//! E10 — §V profiling note: the cost of maintaining the branch mappings.
//!
//! The paper's Valgrind profile attributes 15–30% of total runtime to
//! updating the double-edge mappings on taxon insertion/removal, and lists
//! redesigning them as future work. Our two mapping engines span that
//! design space: `Recompute` rebuilds projections per state, `EdgeIndexed`
//! keeps flat labels and relabels only the preimage of the common-subtree
//! edge each insertion splits. This bench measures real wall-clock state
//! throughput for both on several instances.

use gentrius_bench::banner;
use gentrius_core::{CountOnly, GentriusConfig, MappingMode, StoppingRules};
use gentrius_datagen::scenario::{heuristics_showcase, long_runner};
use gentrius_datagen::Dataset;

fn run(dataset: &Dataset, mapping: MappingMode) -> (f64, u64) {
    let problem = dataset.problem().expect("valid");
    let cfg = GentriusConfig {
        mapping,
        stopping: StoppingRules::counts(150_000, 500_000),
        ..GentriusConfig::default()
    };
    // Best of 3 to tame wall-clock noise.
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..3 {
        let r = gentrius_core::run_serial(&problem, &cfg, &mut CountOnly).expect("run");
        let secs = r.elapsed.as_secs_f64();
        events = r.stats.intermediate_states + r.stats.stand_trees;
        best = best.min(secs);
    }
    (best, events)
}

fn main() {
    banner(
        "E10",
        "§V: mapping-maintenance cost (recompute vs edge-indexed engines)",
        "insertion-local label maintenance beats per-state recomputation; \
         the gap is the mapping-maintenance share of runtime the paper \
         profiles at 15-30%",
    );
    let datasets = [heuristics_showcase(), long_runner(0), long_runner(2)];
    println!(
        "\n{:<18} {:>8} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "dataset", "events", "recomp (s)", "edge (s)", "recomp ev/s", "edge ev/s", "speedup"
    );
    for d in &datasets {
        let (tr, ev) = run(d, MappingMode::Recompute);
        let (te, ev2) = run(d, MappingMode::EdgeIndexed);
        assert_eq!(ev, ev2, "engines must traverse the same tree");
        println!(
            "{:<18} {:>8} {:>12.3} {:>12.3} {:>12.0} {:>12.0} {:>8.2}x",
            d.name,
            ev,
            tr,
            te,
            ev as f64 / tr,
            ev as f64 / te,
            tr / te
        );
    }
    println!();
    println!("events = intermediate states + stand trees; ev/s is the paper's");
    println!("\"hundreds of thousands of states per second\" figure of merit.");
}
