//! Throughput — enumeration rates across the mapping kernels.
//!
//! Measures states/sec and dead-ends/sec for both mapping engines
//! (`Recompute`, `EdgeIndexed`) on the seeded simulated
//! instances and the crafted caterpillar blow-up, serially and through the
//! parallel engine at 1/2/4/8 threads, and writes the whole grid to
//! `BENCH_5.json` (override the path with `BENCH5_OUT`) via the
//! workspace's hand-rolled JSON writer.
//!
//! The bench is also a gate, and exits non-zero when any rule fails:
//!
//! 1. **conformance** — per instance, all serial runs must report
//!    identical counters regardless of mapping mode, and every complete
//!    parallel run must reproduce the complete serial totals exactly;
//! 2. **performance** — on the medium simulated instance the edge-indexed
//!    kernels must deliver at least 1.5x the states/sec of the `Recompute`
//!    oracle, the claimed payoff of the flat clade-key representation;
//! 3. **scaling** — the replay-free handoff regression rule, written to
//!    `BENCH_6.json` (override with `BENCH6_OUT`): in edge-indexed mode on
//!    the blow-up instances (`caterpillar-blowup`, `simulated-deadend`)
//!    the parallel engine at 1 thread must reach at least 95% of the
//!    serial events/sec (trees + states; engine overhead bounded) and at
//!    2 threads must strictly beat serial (scaling is real, not
//!    flat-to-negative) — on multi-core hosts; a single-core host
//!    degrades the 2-thread rule to an oversubscription overhead bound,
//!    recorded in the emitted document (`cores`, `par2_gate`).

use gentrius_bench::{banner, bench_config};
use gentrius_core::{run_serial, CountOnly, GentriusConfig, MappingMode, RunStats, StandProblem};
use gentrius_datagen::scenario::{
    blowup_showcase, deadend_blowup, heuristics_showcase, long_runner, plateau_with_chunks,
    trap_showcase,
};
use gentrius_parallel::obs::json::{self, JsonWriter};
use gentrius_parallel::{run_parallel, FlushThresholds, ParallelConfig};

const MODES: [MappingMode; 2] = [MappingMode::Recompute, MappingMode::EdgeIndexed];
const THREADS: [usize; 4] = [1, 2, 4, 8];
const SERIAL_REPS: usize = 3;
const SPEEDUP_GATE: f64 = 1.5;
/// Best-of reps for the scaling-gate cells (wall-clock only — counters
/// are checked for exactness separately).
const SCALING_REPS: usize = 5;
/// parallel(1) must retain at least this fraction of the serial rate.
const PAR1_MIN_RATIO: f64 = 0.95;
/// On a single-core host parallel(2) cannot beat serial; it must still
/// retain this fraction of the serial rate. Two timeslicing CPU-bound
/// workers pay real context-switch and cache-thrash costs — observed at
/// up to ~20% on the emission-heavy blow-up — so the bound is much
/// looser than par1's: its job is to catch catastrophic oversubscription
/// (the flat-to-negative scaling this PR eliminates showed up as ~35%
/// losses), not to measure scaling the hardware cannot express.
const PAR2_SINGLE_CORE_MIN_RATIO: f64 = 0.75;

/// One measured run of the grid.
struct Cell {
    stats: RunStats,
    secs: f64,
    complete: bool,
}

impl Cell {
    fn states_per_sec(&self) -> f64 {
        self.stats.intermediate_states as f64 / self.secs
    }

    fn dead_ends_per_sec(&self) -> f64 {
        self.stats.dead_ends as f64 / self.secs
    }

    /// Total enumeration events per second (stand trees + intermediate
    /// states; dead ends are a subset of the latter). The scaling gate
    /// uses this because the blow-up instances are tree-emission heavy:
    /// every event is one kernel application, whatever its kind.
    fn events_per_sec(&self) -> f64 {
        (self.stats.stand_trees + self.stats.intermediate_states) as f64 / self.secs
    }
}

fn config(mapping: MappingMode) -> GentriusConfig {
    GentriusConfig {
        mapping,
        ..bench_config(50_000, 100_000)
    }
}

/// Keeps whichever of `best` / `cell` has the lower wall-clock.
fn take_best(best: &mut Option<Cell>, cell: Cell) {
    if best.as_ref().is_none_or(|b| cell.secs < b.secs) {
        *best = Some(cell);
    }
}

/// One serial measurement.
fn serial_cell_once(problem: &StandProblem, cfg: &GentriusConfig) -> Cell {
    let r = run_serial(problem, cfg, &mut CountOnly).expect("serial run");
    Cell {
        stats: r.stats,
        secs: r.elapsed.as_secs_f64().max(1e-9),
        complete: r.stop.is_none(),
    }
}

/// Serial cell: best wall-clock of [`SERIAL_REPS`] runs (the counters are
/// deterministic, so only the timing varies).
fn serial_cell(problem: &StandProblem, cfg: &GentriusConfig) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..SERIAL_REPS {
        take_best(&mut best, serial_cell_once(problem, cfg));
    }
    best.expect("SERIAL_REPS > 0")
}

/// Parallel cell: best wall-clock of `reps` runs (the scaling gate calls
/// this once per interleaved rep; the grid measures once).
fn parallel_cell(
    problem: &StandProblem,
    cfg: &GentriusConfig,
    pcfg: &ParallelConfig,
    reps: usize,
) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..reps.max(1) {
        let r = run_parallel(problem, cfg, pcfg).expect("parallel run");
        let secs = r.elapsed.as_secs_f64().max(1e-9);
        if best.as_ref().is_none_or(|b| secs < b.secs) {
            best = Some(Cell {
                complete: r.complete(),
                stats: r.stats,
                secs,
            });
        }
    }
    best.expect("reps >= 1")
}

fn emit_cell(w: &mut JsonWriter, cell: &Cell, threads: Option<usize>) {
    w.begin_object();
    if let Some(t) = threads {
        w.key("threads").u64(t as u64);
    }
    w.key("stand_trees").u64(cell.stats.stand_trees);
    w.key("intermediate_states")
        .u64(cell.stats.intermediate_states);
    w.key("dead_ends").u64(cell.stats.dead_ends);
    w.key("seconds").f64(cell.secs);
    w.key("states_per_sec").f64(cell.states_per_sec());
    w.key("dead_ends_per_sec").f64(cell.dead_ends_per_sec());
    w.key("complete").bool(cell.complete);
    w.end_object();
}

fn main() {
    banner(
        "THROUGHPUT",
        "mapping-kernel enumeration rates (states/sec, dead-ends/sec)",
        "edge-indexed kernels beat per-state recomputation by >= 1.5x on \
         the medium simulated instance; all modes enumerate identically",
    );

    // (dataset, role) — long-runner-0 is the medium simulated instance the
    // speedup gate applies to; plateau-craft-5 is the caterpillar blow-up.
    let instances = [
        (long_runner(0), "simulated-medium"),
        (heuristics_showcase(), "simulated-small"),
        (trap_showcase().0, "simulated-deadend"),
        (plateau_with_chunks(5), "caterpillar-blowup"),
    ];

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("gentrius-throughput-bench");
    w.key("version").u64(1);
    w.key("issue").u64(5);
    w.key("limits").begin_object();
    w.key("max_stand_trees").u64(50_000);
    w.key("max_intermediate_states").u64(100_000);
    w.end_object();
    w.key("instances").begin_array();

    let mut gate_speedup = None;
    for (dataset, role) in &instances {
        let problem = dataset.problem().expect("scenario dataset is valid");
        println!(
            "\n{} ({role}: {} constraints, {} taxa)",
            dataset.name,
            problem.constraints().len(),
            problem.num_taxa()
        );
        println!(
            "{:<14} {:>8} {:>10} {:>10} {:>9} {:>12} {:>14}",
            "mapping", "threads", "states", "deadends", "secs", "states/s", "dead-ends/s"
        );

        w.begin_object();
        w.key("name").string(&dataset.name);
        w.key("role").string(role);
        w.key("modes").begin_array();

        let mut serial_stats: Option<RunStats> = None;
        let mut recompute_rate = None;
        for mode in MODES {
            let serial = serial_cell(&problem, &config(mode));
            // Conformance gate 1: the serial driver is deterministic, so
            // the counters may not depend on the mapping engine at all.
            match &serial_stats {
                None => serial_stats = Some(serial.stats),
                Some(reference) => assert_eq!(
                    reference, &serial.stats,
                    "{} {mode}: serial counters diverged across mapping modes",
                    dataset.name
                ),
            }
            println!(
                "{:<14} {:>8} {:>10} {:>10} {:>9.3} {:>12.0} {:>14.0}",
                mode.as_str(),
                "serial",
                serial.stats.intermediate_states,
                serial.stats.dead_ends,
                serial.secs,
                serial.states_per_sec(),
                serial.dead_ends_per_sec()
            );
            if *role == "simulated-medium" {
                match mode {
                    MappingMode::Recompute => recompute_rate = Some(serial.states_per_sec()),
                    MappingMode::EdgeIndexed => {
                        let base = recompute_rate.expect("Recompute measured first");
                        gate_speedup = Some(serial.states_per_sec() / base);
                    }
                }
            }

            w.begin_object();
            w.key("mapping").string(mode.as_str());
            w.key("serial");
            emit_cell(&mut w, &serial, None);
            w.key("parallel").begin_array();
            for threads in THREADS {
                let par = parallel_cell(
                    &problem,
                    &config(mode),
                    &ParallelConfig::with_threads(threads),
                    1,
                );
                // Conformance gate 2: a complete parallel run must land on
                // the complete serial totals exactly.
                if par.complete && serial.complete {
                    assert_eq!(
                        serial.stats, par.stats,
                        "{} {mode} threads={threads}: parallel totals diverged from serial",
                        dataset.name
                    );
                }
                println!(
                    "{:<14} {:>8} {:>10} {:>10} {:>9.3} {:>12.0} {:>14.0}",
                    mode.as_str(),
                    threads,
                    par.stats.intermediate_states,
                    par.stats.dead_ends,
                    par.secs,
                    par.states_per_sec(),
                    par.dead_ends_per_sec()
                );
                emit_cell(&mut w, &par, Some(threads));
            }
            w.end_array(); // parallel
            w.end_object(); // mode
        }
        w.end_array(); // modes
        w.end_object(); // instance
    }
    w.end_array(); // instances

    let speedup = gate_speedup.expect("medium instance measured");
    w.key("gates").begin_object();
    w.key("serial_counters_identical_across_modes").bool(true);
    w.key("complete_parallel_totals_match_serial").bool(true);
    w.key("edge_indexed_vs_recompute_states_per_sec")
        .f64(speedup);
    w.key("speedup_gate_min").f64(SPEEDUP_GATE);
    w.end_object();
    w.end_object();

    let doc = w.finish();
    json::validate(&doc).expect("emitted document must be valid JSON");
    let out = std::env::var("BENCH5_OUT").unwrap_or_else(|_| "BENCH_5.json".to_string());
    std::fs::write(&out, doc + "\n").expect("write BENCH_5.json");
    println!("\nwrote throughput grid to {out}");
    println!(
        "edge-indexed vs recompute on the medium simulated instance: {speedup:.2}x \
         (gate: >= {SPEEDUP_GATE}x)"
    );
    // Performance gate — after the JSON is on disk so a regression still
    // leaves the numbers behind for inspection.
    assert!(
        speedup >= SPEEDUP_GATE,
        "edge-indexed kernels only reached {speedup:.2}x of the Recompute \
         states/sec on the medium simulated instance (gate: {SPEEDUP_GATE}x)"
    );

    // Scaling-regression document + gate (BENCH_6): the replay-free
    // handoff must keep 1-thread engine overhead within 5% and make 2
    // threads strictly faster than serial on the blow-up instances —
    // where the host has a second core to offer. On single-core hosts
    // (CI sandboxes, cgroup-limited containers) wall-clock speedup from
    // a second thread is physically impossible, so the par2 gate degrades
    // to the same overhead bound as par1; the emitted document records
    // which gate applied. Both instances are sized so one run takes on
    // the order of a second — long enough that thread spawn and the
    // serial prefix are noise — and measured best-of-[`SCALING_REPS`]
    // on events/sec, under the coarse flush tuning the parallel engine
    // ships for exactly these emission-heavy workloads.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let par2_must_scale = cores >= 2;
    let scaling_cases = [
        // The crafted caterpillar blow-up: ~10^9-topology stand, capped by
        // the stand-tree budget; both engines do the same bounded work.
        (
            blowup_showcase(),
            "caterpillar-blowup",
            (8_000_000u64, 16_000_000u64),
        ),
        // The dead-end blow-up: *complete* enumeration (192k trees, 204k
        // states, 83k dead ends), so serial and parallel totals are
        // identical and throughput comparisons are exact.
        (
            deadend_blowup(),
            "simulated-deadend",
            (1_000_000u64, 400_000u64),
        ),
    ];
    let mut scaling: Vec<(String, String, f64, f64, f64)> = Vec::new();
    for (dataset, role, (max_trees, max_states)) in &scaling_cases {
        let problem = dataset.problem().expect("scaling dataset is valid");
        let cfg = GentriusConfig {
            mapping: MappingMode::EdgeIndexed,
            ..bench_config(*max_trees, *max_states)
        };
        let scaling_pcfg = |threads: usize| {
            let mut p = ParallelConfig::with_threads(threads);
            p.flush = FlushThresholds::coarse();
            p
        };
        // Interleave the reps round-robin (serial, par1, par2, serial, …)
        // rather than running each config's reps back-to-back: on a shared
        // host the background load drifts on the scale of seconds, and
        // interleaving exposes all three configs to the same drift before
        // best-of takes over.
        let mut serial: Option<Cell> = None;
        let mut par1: Option<Cell> = None;
        let mut par2: Option<Cell> = None;
        for _ in 0..SCALING_REPS {
            take_best(&mut serial, serial_cell_once(&problem, &cfg));
            take_best(
                &mut par1,
                parallel_cell(&problem, &cfg, &scaling_pcfg(1), 1),
            );
            take_best(
                &mut par2,
                parallel_cell(&problem, &cfg, &scaling_pcfg(2), 1),
            );
        }
        let (serial, par1, par2) = (
            serial.expect("SCALING_REPS > 0"),
            par1.expect("SCALING_REPS > 0"),
            par2.expect("SCALING_REPS > 0"),
        );
        // Conformance: when every run completes, the totals must agree
        // exactly (the dead-end instance always completes here).
        if serial.complete {
            for (t, par) in [(1, &par1), (2, &par2)] {
                assert!(par.complete, "{} threads={t}: spurious stop", dataset.name);
                assert_eq!(
                    serial.stats, par.stats,
                    "{} threads={t}: scaling totals diverged from serial",
                    dataset.name
                );
            }
        }
        scaling.push((
            dataset.name.clone(),
            (*role).to_string(),
            serial.events_per_sec(),
            par1.events_per_sec(),
            par2.events_per_sec(),
        ));
    }
    let mut sw = JsonWriter::new();
    sw.begin_object();
    sw.key("schema").string("gentrius-scaling-bench");
    sw.key("version").u64(1);
    sw.key("issue").u64(6);
    sw.key("mapping").string("edge-indexed");
    sw.key("reps").u64(SCALING_REPS as u64);
    sw.key("cores").u64(cores as u64);
    sw.key("par2_gate").string(if par2_must_scale {
        "beat-serial"
    } else {
        "overhead-bound (single-core host)"
    });
    sw.key("instances").begin_array();
    let mut all_pass = true;
    println!();
    for (name, role, serial_rate, par1, par2) in &scaling {
        let r1 = par1 / serial_rate;
        let r2 = par2 / serial_rate;
        let par2_ok = if par2_must_scale {
            r2 > 1.0
        } else {
            r2 >= PAR2_SINGLE_CORE_MIN_RATIO
        };
        let pass = r1 >= PAR1_MIN_RATIO && par2_ok;
        all_pass &= pass;
        println!(
            "scaling {role}: serial {serial_rate:.0} events/s, par1 {par1:.0} ({:.0}%), \
             par2 {par2:.0} ({:.0}%) — {}",
            r1 * 100.0,
            r2 * 100.0,
            if pass { "ok" } else { "FAIL" }
        );
        sw.begin_object();
        sw.key("name").string(name);
        sw.key("role").string(role);
        sw.key("serial_events_per_sec").f64(*serial_rate);
        sw.key("par1_events_per_sec").f64(*par1);
        sw.key("par2_events_per_sec").f64(*par2);
        sw.key("par1_ratio").f64(r1);
        sw.key("par2_ratio").f64(r2);
        sw.key("pass").bool(pass);
        sw.end_object();
    }
    sw.end_array();
    sw.key("gates").begin_object();
    sw.key("par1_min_ratio").f64(PAR1_MIN_RATIO);
    sw.key("par2_must_beat_serial").bool(par2_must_scale);
    sw.key("par2_single_core_min_ratio")
        .f64(PAR2_SINGLE_CORE_MIN_RATIO);
    sw.key("pass").bool(all_pass);
    sw.end_object();
    sw.end_object();
    let sdoc = sw.finish();
    json::validate(&sdoc).expect("scaling document must be valid JSON");
    let sout = std::env::var("BENCH6_OUT").unwrap_or_else(|_| "BENCH_6.json".to_string());
    std::fs::write(&sout, sdoc + "\n").expect("write BENCH_6.json");
    println!("wrote scaling gate to {sout}");
    // Scaling gate — again after the JSON hits disk.
    for (name, role, serial_rate, par1, par2) in &scaling {
        assert!(
            par1 / serial_rate >= PAR1_MIN_RATIO,
            "{name} ({role}): parallel(1) reached only {:.0}% of the serial \
             events/sec (gate: {:.0}%) — engine overhead regressed",
            par1 / serial_rate * 100.0,
            PAR1_MIN_RATIO * 100.0
        );
        if par2_must_scale {
            assert!(
                par2 > serial_rate,
                "{name} ({role}): parallel(2) at {par2:.0} events/s did not beat \
                 serial at {serial_rate:.0} — scaling regressed to flat-or-worse"
            );
        } else {
            assert!(
                par2 / serial_rate >= PAR2_SINGLE_CORE_MIN_RATIO,
                "{name} ({role}): single-core host, but parallel(2) at {par2:.0} \
                 events/s fell below {:.0}% of serial ({serial_rate:.0}) — \
                 oversubscription overhead regressed",
                PAR2_SINGLE_CORE_MIN_RATIO * 100.0
            );
        }
    }
}
