//! Seeded constraint-set mutation fuzzer (`datagen fuzz`).
//!
//! Takes zoo instances as bases, applies small random mutations to their
//! constraint trees (drop / duplicate a constraint, drop / add / regraft
//! a leaf) and drives every viable mutant through the 2-mode ×
//! thread-count conformance matrix: serial `Recompute` is the oracle;
//! `EdgeIndexed` serially plus both modes at 2 and 4 threads must
//! reproduce its counters and canonical stand set exactly,
//! and every counter snapshot must satisfy the dead-end invariant.
//!
//! Every mutant is a pure function of `(seed, iteration)`: a failure
//! report names the iteration, and rerunning with the same seed
//! regenerates the same mutant. Failing instances are greedily minimized
//! (dropping constraints, then taxa) and written to a corpus directory in
//! the standard dataset text format, where `tests/fuzz_corpus.rs` replays
//! them forever.

use crate::adversarial::{
    grove_dataset, interaction_dataset, unbalanced_dataset, GroveParams, InteractionParams,
    UnbalancedParams,
};
use crate::dataset::Dataset;
use crate::simulated::{simulated_dataset, MissingPattern, SimulatedParams};
use gentrius_core::{
    canonical_stand_set, run_serial, CollectNewick, GentriusConfig, MappingMode, StoppingRules,
};
use gentrius_parallel::{run_parallel_epoch, ParallelConfig};
use phylo::generate::ShapeModel;
use phylo::ops::restrict;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Cap on collected stand trees per conformance cell.
const COLLECT_CAP: usize = 40_000;

/// Fuzzer configuration. Everything that affects which mutants are
/// generated is derived from `seed` alone; `time_box` / `max_iterations`
/// only decide how far down the deterministic stream the run gets.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed: mutant `i` is a pure function of `(seed, i)`.
    pub seed: u64,
    /// Stop after this many iterations (`None` = unbounded).
    pub max_iterations: Option<u64>,
    /// Stop after this wall-clock budget (`None` = unbounded). The box
    /// only truncates the stream — it never changes what iteration `i`
    /// does.
    pub time_box: Option<Duration>,
    /// Parallel thread counts of the conformance matrix.
    pub threads: Vec<usize>,
    /// Stopping rules of every conformance cell (bounded so pathological
    /// mutants cannot hang the fuzzer).
    pub stopping: StoppingRules,
}

impl FuzzConfig {
    /// The defaults used by `datagen fuzz` and the nightly smoke job.
    pub fn new(seed: u64) -> Self {
        FuzzConfig {
            seed,
            max_iterations: None,
            time_box: None,
            threads: vec![2, 4],
            stopping: StoppingRules::counts(40_000, 150_000),
        }
    }
}

/// One conformance divergence, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Iteration index down the seed's mutant stream.
    pub iteration: u64,
    /// The minimized failing dataset.
    pub dataset: Dataset,
    /// The first divergence the matrix hit.
    pub reason: String,
}

/// Aggregate outcome of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed (mutants drawn from the stream).
    pub iterations: u64,
    /// Mutants that ran the full conformance matrix.
    pub checked: u64,
    /// Mutants skipped (invalid problem or incomplete oracle enumeration).
    pub skipped: u64,
    /// Divergences found, minimized.
    pub failures: Vec<FuzzFailure>,
}

/// Draws the base dataset of iteration `i`: a rotation over the zoo
/// families plus the simulated clustered regime, all at fuzz-friendly
/// sizes.
pub fn base_dataset(seed: u64, i: u64) -> Dataset {
    match i % 4 {
        0 => {
            let sp = SimulatedParams {
                taxa: (8, 13),
                loci: (3, 5),
                missing: (0.3, 0.55),
                pattern: MissingPattern::Clustered,
                shape: ShapeModel::Uniform,
            };
            simulated_dataset(&sp, seed, i)
        }
        1 => grove_dataset(&GroveParams::zoo(), seed, i),
        2 => {
            let ip = InteractionParams {
                taxa: (10, 14),
                loci: (4, 6),
                ..InteractionParams::zoo()
            };
            interaction_dataset(&ip, seed, i)
        }
        _ => {
            let up = UnbalancedParams {
                spine: (10, 14),
                anchor: (3, 4),
                pinned: (1, 2),
                tail_pairs: (1, 1),
            };
            unbalanced_dataset(&up, seed, i)
        }
    }
}

/// Applies 1–3 random constraint-set mutations. Returns `None` when the
/// drawn mutations were all inapplicable (e.g. every constraint too small
/// to shrink). Mutants keep the taxon universe and stay parseable; they
/// are *not* guaranteed to be valid stand problems — the caller skips
/// those.
pub fn mutate(base: &Dataset, rng: &mut ChaCha8Rng) -> Option<Dataset> {
    let mut d = base.clone();
    // The PAM and species tree no longer describe the mutated constraints.
    d.pam = None;
    d.species_tree = None;
    d.name = format!("{}-mut", d.name);
    let n_mut = rng.gen_range(1..=3usize);
    let mut applied = 0usize;
    for _ in 0..n_mut {
        if d.constraints.is_empty() {
            break;
        }
        let which = rng.gen_range(0..5u32);
        let ci = rng.gen_range(0..d.constraints.len());
        match which {
            // Drop a constraint.
            0 if d.constraints.len() > 2 => {
                d.constraints.remove(ci);
                applied += 1;
            }
            // Duplicate a constraint (stresses identical-projection paths).
            1 => {
                let t = d.constraints[ci].clone();
                d.constraints.push(t);
                applied += 1;
            }
            // Drop a random leaf.
            2 if d.constraints[ci].leaf_count() > 4 => {
                let t = &d.constraints[ci];
                let leaves: Vec<_> = t.leaves().map(|(_, tx)| tx).collect();
                let victim = leaves[rng.gen_range(0..leaves.len())];
                let mut keep = t.taxa().clone();
                keep.remove(victim.index());
                d.constraints[ci] = restrict(t, &keep);
                applied += 1;
            }
            // Regraft a random leaf onto a random edge.
            3 if d.constraints[ci].leaf_count() > 4 => {
                let t = &d.constraints[ci];
                let leaves: Vec<_> = t.leaves().map(|(_, tx)| tx).collect();
                let victim = leaves[rng.gen_range(0..leaves.len())];
                let mut keep = t.taxa().clone();
                keep.remove(victim.index());
                let mut pruned = restrict(t, &keep);
                let edges: Vec<_> = pruned.edges().collect();
                let e = edges[rng.gen_range(0..edges.len())];
                pruned.insert_leaf_on_edge(victim, e);
                if pruned.is_binary_unrooted() {
                    d.constraints[ci] = pruned;
                    applied += 1;
                }
            }
            // Add a leaf the constraint is missing.
            4 => {
                let t = &d.constraints[ci];
                let universe = t.universe();
                let absent: Vec<u32> = (0..universe as u32)
                    .filter(|&x| !t.taxa().contains(x as usize))
                    .collect();
                if !absent.is_empty() {
                    let tx = phylo::taxa::TaxonId(absent[rng.gen_range(0..absent.len())]);
                    let mut grown = t.clone();
                    let edges: Vec<_> = grown.edges().collect();
                    let e = edges[rng.gen_range(0..edges.len())];
                    grown.insert_leaf_on_edge(tx, e);
                    d.constraints[ci] = grown;
                    applied += 1;
                }
            }
            _ => {}
        }
    }
    if applied == 0 {
        None
    } else {
        Some(d)
    }
}

/// Outcome of one conformance-matrix run.
#[derive(Clone, Debug)]
pub enum Conformance {
    /// Every cell matched the oracle.
    Ok,
    /// The instance could not be checked (invalid problem, or the oracle
    /// enumeration hit the fuzz budget — exact identity needs a complete
    /// run).
    Skip(String),
    /// A cell diverged from the oracle.
    Diverged(String),
}

/// Runs the 2-mode × thread-count conformance matrix on one dataset.
pub fn conformance_check(d: &Dataset, stopping: &StoppingRules, threads: &[usize]) -> Conformance {
    let p = match d.problem() {
        Ok(p) => p,
        Err(e) => return Conformance::Skip(format!("invalid problem: {e:?}")),
    };
    let oracle_cfg = GentriusConfig {
        mapping: MappingMode::Recompute,
        stopping: stopping.clone(),
        ..GentriusConfig::default()
    };
    let mut oracle_sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
    let oracle = match run_serial(&p, &oracle_cfg, &mut oracle_sink) {
        Ok(r) => r,
        Err(e) => return Conformance::Skip(format!("oracle failed: {e:?}")),
    };
    if !oracle.complete() {
        return Conformance::Skip("oracle enumeration hit the fuzz budget".to_string());
    }
    if oracle.stats.dead_ends > oracle.stats.intermediate_states {
        return Conformance::Diverged(format!(
            "oracle dead-end invariant: {} > {}",
            oracle.stats.dead_ends, oracle.stats.intermediate_states
        ));
    }
    let oracle_set = canonical_stand_set([oracle_sink.out]);
    for mode in [MappingMode::Recompute, MappingMode::EdgeIndexed] {
        let config = GentriusConfig {
            mapping: mode,
            stopping: stopping.clone(),
            ..GentriusConfig::default()
        };
        if mode != MappingMode::Recompute {
            let mut sink = CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
            let serial = match run_serial(&p, &config, &mut sink) {
                Ok(r) => r,
                Err(e) => return Conformance::Diverged(format!("{mode} serial errored: {e:?}")),
            };
            if serial.stats != oracle.stats {
                return Conformance::Diverged(format!(
                    "{mode} serial counters: {:?} vs oracle {:?}",
                    serial.stats, oracle.stats
                ));
            }
            if canonical_stand_set([sink.out]) != oracle_set {
                return Conformance::Diverged(format!("{mode} serial stand set diverged"));
            }
        }
        for &t in threads {
            let pcfg = ParallelConfig::with_threads(t);
            let collect = |_| CollectNewick::with_cap(&d.taxa, COLLECT_CAP);
            let (par, sinks, _) = match run_parallel_epoch(&p, &config, &pcfg, collect, None, false)
            {
                Ok(r) => r,
                Err(e) => {
                    return Conformance::Diverged(format!("{mode} threads={t} errored: {e:?}"))
                }
            };
            if !par.complete() {
                return Conformance::Diverged(format!("{mode} threads={t}: spurious stop"));
            }
            if par.stats != oracle.stats {
                return Conformance::Diverged(format!(
                    "{mode} threads={t} counters: {:?} vs oracle {:?}",
                    par.stats, oracle.stats
                ));
            }
            for (ctx, stats) in std::iter::once(("totals", &par.stats))
                .chain(std::iter::once(("prefix", &par.prefix)))
                .chain(par.workers.iter().map(|w| ("worker", &w.stats)))
            {
                if stats.dead_ends > stats.intermediate_states {
                    return Conformance::Diverged(format!(
                        "{mode} threads={t} {ctx}: dead-end invariant violated"
                    ));
                }
            }
            if canonical_stand_set(sinks.into_iter().map(|s| s.out)) != oracle_set {
                return Conformance::Diverged(format!("{mode} threads={t}: stand set diverged"));
            }
        }
    }
    Conformance::Ok
}

/// Greedily minimizes a failing dataset: repeatedly tries dropping one
/// constraint, then restricting away one taxon, keeping any shrink that
/// still diverges. Deterministic (first shrink that reproduces wins).
pub fn minimize(d: &Dataset, stopping: &StoppingRules, threads: &[usize]) -> Dataset {
    let diverges = |c: &Dataset| {
        matches!(
            conformance_check(c, stopping, threads),
            Conformance::Diverged(_)
        )
    };
    let mut cur = d.clone();
    loop {
        let mut shrunk = false;
        // Pass 1: drop whole constraints.
        let mut i = 0;
        while i < cur.constraints.len() {
            if cur.constraints.len() <= 2 {
                break;
            }
            let mut cand = cur.clone();
            cand.constraints.remove(i);
            if diverges(&cand) {
                cur = cand;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        // Pass 2: restrict a taxon out of every constraint containing it.
        let universe = cur.taxa.len();
        for tx in 0..universe {
            let mut cand = cur.clone();
            let mut touched = false;
            for c in &mut cand.constraints {
                if c.taxa().contains(tx) && c.leaf_count() > 4 {
                    let mut keep = c.taxa().clone();
                    keep.remove(tx);
                    *c = restrict(c, &keep);
                    touched = true;
                }
            }
            if touched && diverges(&cand) {
                cur = cand;
                shrunk = true;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

/// Runs the fuzzer. If `corpus_dir` is given, every minimized failure is
/// written there as `fuzz-<seed>-<iteration>.dataset` in the standard
/// dataset text format.
pub fn run_fuzz(config: &FuzzConfig, corpus_dir: Option<&Path>) -> std::io::Result<FuzzReport> {
    let start = Instant::now();
    let mut report = FuzzReport::default();
    let mut i = 0u64;
    loop {
        if let Some(max) = config.max_iterations {
            if i >= max {
                break;
            }
        }
        if let Some(box_) = config.time_box {
            if start.elapsed() >= box_ {
                break;
            }
        }
        // Each iteration derives its own RNG stream from (seed, i): the
        // time box truncates the stream but never perturbs it.
        let mut rng = ChaCha8Rng::seed_from_u64(
            config.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        );
        let base = base_dataset(config.seed, i);
        report.iterations += 1;
        let Some(mutant) = mutate(&base, &mut rng) else {
            report.skipped += 1;
            i += 1;
            continue;
        };
        match conformance_check(&mutant, &config.stopping, &config.threads) {
            Conformance::Ok => report.checked += 1,
            Conformance::Skip(_) => report.skipped += 1,
            Conformance::Diverged(reason) => {
                report.checked += 1;
                let mut min = minimize(&mutant, &config.stopping, &config.threads);
                min.name = format!("fuzz-{}-{}", config.seed, i);
                if let Some(dir) = corpus_dir {
                    std::fs::create_dir_all(dir)?;
                    min.save(&dir.join(format!("{}.dataset", min.name)))?;
                }
                report.failures.push(FuzzFailure {
                    iteration: i,
                    dataset: min,
                    reason,
                });
            }
        }
        i += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutants_are_deterministic_per_iteration() {
        for i in 0..12u64 {
            let gen = |_| {
                let mut rng = ChaCha8Rng::seed_from_u64(77 ^ i.wrapping_mul(3));
                mutate(&base_dataset(77, i), &mut rng).map(|d| d.to_text())
            };
            assert_eq!(gen(()), gen(()));
        }
    }

    #[test]
    fn short_fuzz_run_is_clean_and_deterministic() {
        let mut cfg = FuzzConfig::new(2026);
        cfg.max_iterations = Some(6);
        cfg.threads = vec![2];
        let a = run_fuzz(&cfg, None).expect("fuzz run");
        let b = run_fuzz(&cfg, None).expect("fuzz run");
        assert_eq!(a.iterations, 6);
        assert_eq!(a.checked, b.checked);
        assert_eq!(a.skipped, b.skipped);
        assert!(a.checked >= 2, "too few checked mutants: {}", a.checked);
        assert!(
            a.failures.is_empty(),
            "conformance divergence at HEAD: {:?}",
            a.failures.iter().map(|f| &f.reason).collect::<Vec<_>>()
        );
    }

    #[test]
    fn minimizer_preserves_divergence_verdicts() {
        // No real divergence exists at HEAD, so pin the minimizer shape
        // instead: a clean instance must come back unshrunk (no shrink can
        // "introduce" a failure verdict on the Ok path).
        let d = base_dataset(5, 0);
        let stopping = StoppingRules::counts(40_000, 150_000);
        let min = minimize(&d, &stopping, &[2]);
        assert_eq!(min.to_text(), d.to_text());
    }
}
