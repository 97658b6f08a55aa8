//! Parallel speedup demo: the real thread-pool engine on the host's cores,
//! cross-validated against the virtual-time simulator at paper-scale
//! thread counts.
//!
//! ```text
//! cargo run --release --example parallel_speedup
//! ```

use gentrius_core::GentriusConfig;
use gentrius_datagen::scenario::long_runner;
use gentrius_parallel::{run_parallel, ParallelConfig};
use gentrius_sim::{simulate, SimConfig};

fn main() {
    let dataset = long_runner(0);
    let problem = dataset.problem().expect("valid dataset");
    let config = GentriusConfig {
        stopping: gentrius_core::StoppingRules::counts(200_000, 2_000_000),
        ..GentriusConfig::default()
    };
    println!(
        "dataset {}: {} taxa, {} loci, {:.1}% missing",
        dataset.name,
        dataset.num_taxa(),
        dataset.num_loci(),
        100.0 * dataset.missing_fraction()
    );

    // -------- real threads (bounded by the host's cores) --------
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!();
    println!("real thread-pool engine (host has {hw} hardware threads):");
    println!(
        "{:>8} {:>10} {:>12} {:>9} {:>8}",
        "threads", "time (s)", "trees", "speedup", "stolen"
    );
    let mut t1 = None;
    for threads in [1, 2, hw.min(4)] {
        let r = run_parallel(&problem, &config, &ParallelConfig::with_threads(threads))
            .expect("parallel run");
        let secs = r.elapsed.as_secs_f64();
        let sp = t1.map(|t: f64| t / secs).unwrap_or(1.0);
        println!(
            "{:>8} {:>10.3} {:>12} {:>9.2} {:>8}",
            threads, secs, r.stats.stand_trees, sp, r.scheduler.splits
        );
        if t1.is_none() {
            t1 = Some(secs);
        }
    }

    // -------- virtual time (any thread count, deterministic) --------
    println!();
    println!("virtual-time simulator (paper-scale thread counts):");
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>8}",
        "threads", "ticks", "trees", "speedup", "stolen"
    );
    let serial = simulate(&problem, &config, &SimConfig::with_threads(1)).expect("sim");
    for threads in [1usize, 2, 4, 8, 12, 16] {
        let r = simulate(&problem, &config, &SimConfig::with_threads(threads)).expect("sim");
        println!(
            "{:>8} {:>12} {:>12} {:>9.2} {:>8}",
            threads,
            r.makespan,
            r.stats.stand_trees,
            r.speedup_vs(&serial),
            r.tasks_stolen
        );
    }
    // -------- schedule visualization --------
    let mut traced = SimConfig::with_threads(8);
    traced.trace = true;
    let r = simulate(&problem, &config, &traced).expect("sim");
    if let Some(tl) = &r.timeline {
        println!();
        println!("8-thread schedule ('#' busy, '.' idle, '|' task boundary):");
        print!("{}", tl.render(r.makespan, 64));
    }

    println!();
    println!("the wall-clock table is capped by the host's core count; the");
    println!("virtual-time table reproduces the paper's 16-thread scaling shape.");
}
