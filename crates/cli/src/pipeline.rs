//! The stand-run pipeline: every `stand`, `stand resume` and `verify` run
//! goes in as a [`RunSpec`] and comes out as one [`RunReport`].
//!
//! Every engine run takes one epoch loop, in which each execution context
//! gets its own sink; for a container that is the segment `{out}.g{k}.seg{i}`
//! (epoch `k`; context 0 is the serial prefix, `1 + t` worker `t`). Without
//! a checkpoint cadence the loop runs one epoch and captures no frontier.
//! With one, the monitor pauses the pool every cadence, the frontier goes
//! to the `{out}ckpt` sidecar, and the next epoch re-injects it; a
//! wall-clock stop leaves the sidecar for `stand resume`.
//!
//! Durability: a sidecar names only finished segments and is renamed into
//! place whole. The final merge is a commit point: the merged container is
//! finished, then the sidecar is retired, then the segments are deleted.
//! An error or a crash at any step leaves either the finished container or
//! a sidecar with every segment it names; the segments no sidecar names are
//! removed on error, and by the sweep before the next run.

use crate::commands::{at, msg};
use crate::CliError;
use gentrius_core::state::{SearchState, StateSnapshot};
use gentrius_core::StopCause::{StandTreeLimit, StateLimit, TimeLimit};
use gentrius_core::{
    canonical_stand_set, BatchingSink, CollectNewick, GentriusConfig, InitialTreeRule, RunResult,
    RunStats, StandProblem, StandSink, StopCause, TaxonOrderRule,
};
use gentrius_parallel::{
    run_parallel_epoch, ParallelConfig, ParallelRunResult, ResumeFrontier, Task,
};
use gentrius_standfile::ckpt::problem_hash;
use gentrius_standfile::{
    concat_segments, Checkpoint, CkptTask, ContainerSink, ContainerSummary, StandfileError,
};
use phylo::newick::{parse_newick, to_newick};
use phylo::taxa::{TaxonId, TaxonSet};
use phylo::tree::{EdgeId, Tree};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Trees a container segment buffers before encoding them in one burst.
const SEGMENT_BATCH: usize = 64;

/// Which search runs.
pub enum Driver {
    /// The serial driver, on the calling thread.
    Serial,
    /// The parallel engine.
    Engine(ParallelConfig),
}

/// Where the stand trees go.
pub enum Output {
    /// Nowhere: the run only counts them.
    Count,
    /// Canonical Newick strings in memory, at most `cap` per context.
    Collect {
        /// `--max-collect`.
        cap: usize,
    },
    /// A `.stand` container.
    Container {
        /// The container path.
        path: PathBuf,
        /// `--checkpoint-every` (engine only).
        checkpoint_every: Option<Duration>,
    },
}

/// One run: the problem, how to search it and where the trees go.
pub struct RunSpec<'a> {
    /// The taxa the problem is labelled over.
    pub taxa: &'a TaxonSet,
    /// The constraint trees.
    pub problem: &'a StandProblem,
    /// Initial tree, taxon order, stopping rules and mapping engine.
    pub config: GentriusConfig,
    /// Serial driver or parallel engine.
    pub driver: Driver,
    /// Where the stand trees go.
    pub output: Output,
}

/// What a run did.
#[derive(Default)]
pub struct RunReport {
    /// Counters, cumulative over every epoch and every resume.
    pub stats: RunStats,
    /// The stopping rule that fired, if any.
    pub stop: Option<StopCause>,
    /// Wall-clock time of this invocation.
    pub elapsed: Duration,
    /// The engine's last epoch with `elapsed` of the whole invocation, for
    /// the metrics and trace exports (`None` for the serial driver).
    pub engine: Option<ParallelRunResult>,
    /// The collected trees, sorted.
    pub trees: Vec<String>,
    /// The finished container (`None` while a sidecar holds the run).
    pub container: Option<ContainerSummary>,
    /// Engine epochs run (1 for the serial driver).
    pub epochs: u64,
    /// The sidecar a wall-clock stop left for `stand resume`, and the
    /// tasks in its frontier.
    pub sidecar: Option<(PathBuf, usize)>,
    /// Stale segment files removed before the run.
    pub stale_segments: usize,
    /// The stale sidecar a fresh run removed.
    pub stale_checkpoint: Option<PathBuf>,
}

/// A paused engine run: its pending work and its progress so far.
#[derive(Default)]
pub struct Frontier {
    /// Pending task descriptors.
    pub tasks: Vec<Task>,
    /// Counters reached so far.
    pub stats: RunStats,
    /// The next epoch, which names its segment files.
    pub generation: u64,
    /// Finished segments holding the trees emitted so far, in merge order.
    pub segments: Vec<PathBuf>,
}

/// A checkpoint decoded back into a problem, a config and a frontier.
pub struct Restored {
    /// The taxa, in checkpoint order.
    pub taxa: TaxonSet,
    /// The constraint trees.
    pub problem: StandProblem,
    /// The checkpointed run's config.
    pub config: GentriusConfig,
    /// Its frontier.
    pub frontier: Frontier,
}

fn sidecar_path(output: &Path) -> PathBuf {
    format!("{}ckpt", output.display()).into()
}

fn segment_path(output: &Path, generation: u64, context: usize) -> PathBuf {
    format!("{}.g{generation}.seg{context}", output.display()).into()
}

/// Runs `spec` from the start. A container run first removes what an
/// earlier run may have left next to its output — segment files, possibly
/// from more threads than any index loop would name, and a sidecar — so
/// neither survives beside, or is merged into, a fresh container.
pub fn run(spec: &RunSpec<'_>) -> Result<RunReport, CliError> {
    let (mut stale_segments, mut stale_checkpoint) = (0, None);
    if let Output::Container { path, .. } = &spec.output {
        stale_segments = sweep_segments(path, &[])?;
        let sidecar = sidecar_path(path);
        if sidecar.is_file() {
            std::fs::remove_file(&sidecar).map_err(|e| at(&sidecar, e))?;
            stale_checkpoint = Some(sidecar);
        }
    }
    let mut report = match &spec.driver {
        Driver::Serial => run_serial(spec)?,
        Driver::Engine(pcfg) => run_engine(spec, pcfg, None)?,
    };
    (report.stale_segments, report.stale_checkpoint) = (stale_segments, stale_checkpoint);
    Ok(report)
}

/// Continues a paused engine container run from `from`. The final merge
/// deletes every segment it reads, so `from` may name only this run's own
/// segments, `{out}.g{k}.seg{i}` with `k` below its generation, each once
/// and present; anything else fails before a file is touched. Segments an
/// interrupted epoch left, which no sidecar names, are removed first.
pub fn resume(spec: &RunSpec<'_>, from: Frontier) -> Result<RunReport, CliError> {
    let (Driver::Engine(pcfg), Output::Container { path, .. }) = (&spec.driver, &spec.output)
    else {
        return Err(CliError("resume needs the engine and a container".into()));
    };
    let (prefix, gen) = (format!("{}.g", path.display()), from.generation);
    let number = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let own = |s: &str| {
        let (k, i) = s.strip_prefix(&prefix)?.split_once(".seg")?;
        Some(number(k) && number(i) && k.parse().is_ok_and(|k: u64| k < gen))
    };
    for (n, seg) in from.segments.iter().enumerate() {
        let fault = if seg.to_str().and_then(own) != Some(true) {
            format!("not a segment of its run ({prefix}<k>.seg<i>, k < {gen})")
        } else if from.segments[..n].contains(seg) {
            "the checkpoint names this segment twice".to_string()
        } else if !seg.is_file() {
            "segment referenced by the checkpoint is missing".to_string()
        } else {
            continue;
        };
        return Err(at(seg, fault));
    }
    let stale_segments = sweep_segments(path, &from.segments)?;
    let mut report = run_engine(spec, pcfg, Some(from))?;
    report.stale_segments = stale_segments;
    Ok(report)
}

/// Removes the segment files next to `output`, `{output}.g{k}.seg{i}` and
/// the `{output}.seg{i}` of older versions, except `keep`; returns how many
/// went.
fn sweep_segments(output: &Path, keep: &[PathBuf]) -> Result<usize, CliError> {
    let dir = output.parent().filter(|p| !p.as_os_str().is_empty());
    let dir = dir.unwrap_or(Path::new("."));
    // A missing directory is not this function's error to report: creating
    // the output fails loudly a moment later.
    let (Some(fname), Ok(entries)) = (
        output.file_name().and_then(|n| n.to_str()),
        std::fs::read_dir(dir),
    ) else {
        return Ok(0);
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let rest = name
            .to_str()
            .and_then(|n| n.strip_prefix(fname))
            .unwrap_or_default();
        let is_seg = rest.starts_with(".seg") || (rest.starts_with(".g") && rest.contains(".seg"));
        let kept = keep.iter().any(|k| k.file_name() == Some(name.as_os_str()));
        if is_seg && !kept && entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::remove_file(entry.path()).map_err(|e| at(entry.path(), e))?;
            removed += 1;
        }
    }
    Ok(removed)
}

impl RunSpec<'_> {
    fn collect_cap(&self) -> usize {
        match self.output {
            Output::Collect { cap } => cap,
            Output::Count | Output::Container { .. } => 0,
        }
    }

    /// The sidecar image of `frontier`: this run's problem, config and
    /// output, its progress and its pending tasks. `initial_tree` is the
    /// constraint the agile tree started from.
    pub fn checkpoint(&self, initial_tree: usize, frontier: &Frontier) -> Checkpoint {
        let taxa: Vec<String> = self.taxa.iter().map(|(_, n)| n.to_string()).collect();
        let newick = |t| to_newick(t, self.taxa);
        let constraints: Vec<String> = self.problem.constraints().iter().map(newick).collect();
        let task = |t: &Task| CkptTask {
            taxon: t.taxon.0,
            branches: t.branches.iter().map(|e| e.0).collect(),
            depth: t.depth as u64,
            remaining: t.snapshot.remaining().iter().map(|x| x.0).collect(),
            tree: t.snapshot.agile().dump_arena(),
        };
        Checkpoint {
            problem_hash: problem_hash(&taxa, &constraints),
            mapping: self.config.mapping,
            order_code: frontier
                .tasks
                .first()
                .map_or(0, |t| t.snapshot.order_code()),
            threads: match &self.driver {
                Driver::Serial => 1,
                Driver::Engine(pcfg) => pcfg.threads,
            },
            initial_tree,
            stopping: self.config.stopping.clone(),
            stats: frontier.stats,
            generation: frontier.generation,
            output: match &self.output {
                Output::Container { path, .. } => path.display().to_string(),
                Output::Count | Output::Collect { .. } => String::new(),
            },
            taxa,
            constraints,
            segments: frontier
                .segments
                .iter()
                .map(|p| p.display().to_string())
                .collect(),
            tasks: frontier.tasks.iter().map(task).collect(),
        }
    }
}

/// Rebuilds the problem, config and frontier of a decoded checkpoint.
/// Every task's snapshot is re-validated against the rebuilt problem
/// ([`StateSnapshot::from_parts`]) and its branches against the snapshot
/// ([`checked_branches`]), so a checkpoint that passed the checksum but
/// carries an inconsistent frontier — a task tree with the wrong taxa, one
/// that conflicts with a constraint, a branch the search would never take
/// — is rejected instead of enumerating wrong stands.
pub fn restore(c: &Checkpoint) -> Result<Restored, CliError> {
    let mut taxa = TaxonSet::new();
    for name in &c.taxa {
        taxa.intern(name);
    }
    let mut trees = Vec::with_capacity(c.constraints.len());
    for (i, nwk) in c.constraints.iter().enumerate() {
        let bad = |e| msg(format!("checkpoint constraint {}: {e}", i + 1));
        trees.push(parse_newick(nwk, &taxa).map_err(bad)?);
    }
    let problem = StandProblem::from_constraints(trees).map_err(msg)?;
    // The inverse of `StateSnapshot::order_code`.
    use TaxonOrderRule::{ById, Dynamic, DynamicByConstraints};
    let order = [ById, Dynamic, DynamicByConstraints].get(usize::from(c.order_code));
    let code = c.order_code;
    let taxon_order = order
        .cloned()
        .ok_or_else(|| msg(format!("checkpoint: unknown order-engine code {code}")))?;
    let config = GentriusConfig {
        initial_tree: InitialTreeRule::Index(c.initial_tree),
        taxon_order,
        stopping: c.stopping.clone(),
        mapping: c.mapping,
    };
    let mut tasks = Vec::with_capacity(c.tasks.len());
    for (i, t) in c.tasks.iter().enumerate() {
        let bad = |e: String| CliError(format!("checkpoint task {}: {e}", i + 1));
        let tree = Tree::from_arena_dump(&t.tree).map_err(|e| bad(e.to_string()))?;
        let remaining: Vec<TaxonId> = t.remaining.iter().map(|&x| TaxonId(x)).collect();
        let snap = StateSnapshot::from_parts(&problem, tree, remaining, c.order_code, c.mapping)
            .map_err(|e| bad(e.to_string()))?;
        if !t.branches.is_empty() && !snap.remaining().contains(&TaxonId(t.taxon)) {
            return Err(bad(format!("pending taxon {} is not remaining", t.taxon)));
        }
        let branches = checked_branches(&problem, &snap, t).map_err(bad)?;
        let depth = usize::try_from(t.depth).unwrap_or(usize::MAX);
        tasks.push(Task::new(snap, TaxonId(t.taxon), branches, depth));
    }
    let segments = c.segments.iter().map(PathBuf::from).collect();
    let frontier = Frontier {
        tasks,
        stats: c.stats,
        generation: c.generation,
        segments,
    };
    Ok(Restored {
        taxa,
        problem,
        config,
        frontier,
    })
}

/// A checkpoint task's branches, each required to be a distinct live edge
/// of the restored tree that the restored state admits for the task
/// taxon. Otherwise an out-of-range id would index past the tree arena, a
/// freed slot would be rewired, a repeat would enumerate a subtree twice,
/// and an inadmissible edge would enumerate trees outside the stand.
fn checked_branches(
    problem: &StandProblem,
    snap: &StateSnapshot,
    t: &CkptTask,
) -> Result<Vec<EdgeId>, String> {
    if t.branches.is_empty() {
        return Ok(Vec::new());
    }
    let tree = snap.agile();
    let admissible =
        SearchState::resume(problem, snap.clone()).admissible_branches(TaxonId(t.taxon));
    let mut seen = vec![false; tree.edge_id_bound()];
    for &id in &t.branches {
        let e = EdgeId(id);
        let fault = if !tree.edge_alive(e) {
            "is not a live edge of the task tree".to_string()
        } else if std::mem::replace(&mut seen[e.index()], true) {
            "is listed twice".to_string()
        } else if admissible.binary_search(&e).is_err() {
            format!("is not admissible for taxon {}", t.taxon)
        } else {
            continue;
        };
        return Err(format!("branch edge {id} {fault}"));
    }
    Ok(t.branches.iter().map(|&x| EdgeId(x)).collect())
}

fn search<S: StandSink>(spec: &RunSpec<'_>, sink: &mut S) -> Result<RunResult, CliError> {
    gentrius_core::run_serial(spec.problem, &spec.config, sink).map_err(msg)
}

fn run_serial(spec: &RunSpec<'_>) -> Result<RunReport, CliError> {
    let (r, trees, container) = match &spec.output {
        Output::Container {
            path,
            checkpoint_every: None,
        } => {
            let mut sink = ContainerSink::create(path, spec.taxa);
            let r = search(spec, &mut sink)?;
            (r, Vec::new(), Some(sink.finish().map_err(|e| at(path, e))?))
        }
        Output::Container { .. } => {
            return Err(CliError("checkpoints capture the engine's frontier".into()))
        }
        Output::Count | Output::Collect { .. } => {
            let mut sink = CollectNewick::with_cap(spec.taxa, spec.collect_cap());
            let r = search(spec, &mut sink)?;
            (r, canonical_stand_set([sink.out]), None)
        }
    };
    Ok(RunReport {
        stats: r.stats,
        stop: r.stop,
        elapsed: r.elapsed,
        trees,
        container,
        epochs: 1,
        ..RunReport::default()
    })
}

/// What one engine context emits into.
enum Sink<'t> {
    Collect(CollectNewick<'t>),
    Segment(Box<BatchingSink<ContainerSink>>, PathBuf),
}

impl StandSink for Sink<'_> {
    fn stand_tree(&mut self, tree: &Tree) {
        match self {
            Sink::Collect(s) => s.stand_tree(tree),
            Sink::Segment(s, _) => s.stand_tree(tree),
        }
    }
}

fn run_engine(
    spec: &RunSpec<'_>,
    pcfg: &ParallelConfig,
    from: Option<Frontier>,
) -> Result<RunReport, CliError> {
    if pcfg.threads == 0 {
        return Err(CliError("the engine needs at least one thread".into()));
    }
    let fresh = from.is_none();
    let mut frontier = from.unwrap_or_default();
    // `frontier.segments[..named]` are named by the sidecar on disk.
    let mut named = frontier.segments.len();
    let report = epoch_loop(spec, pcfg, fresh, &mut frontier, &mut named);
    if let (Err(_), Output::Container { path, .. }) = (&report, &spec.output) {
        // Remove the segments no sidecar names, the failed epoch's
        // included. Best effort: the error already propagating is the one
        // to report.
        let _ = sweep_segments(path, &frontier.segments[..named]);
    }
    report
}

/// The epoch loop: runs engine epochs until the enumeration ends, a count
/// limit fires, or the clock stops a run, which leaves the sidecar if the
/// run has a checkpoint cadence.
fn epoch_loop(
    spec: &RunSpec<'_>,
    pcfg: &ParallelConfig,
    mut fresh: bool,
    frontier: &mut Frontier,
    named: &mut usize,
) -> Result<RunReport, CliError> {
    let started = Instant::now();
    let (out, every) = match &spec.output {
        Output::Container {
            path,
            checkpoint_every: every,
        } => (Some(path.as_path()), *every),
        Output::Count | Output::Collect { .. } => (None, None),
    };
    let mut pcfg = pcfg.clone();
    if let (Some(monitor), Some(every)) = (&mut pcfg.monitor, every) {
        monitor.checkpoint_every = Some(every);
    }
    let cap = spec.collect_cap();
    let mut trees = Vec::new();
    let mut epochs = 0;
    loop {
        // Rebase the wall-clock budget: the monitor measures from epoch
        // start, but stopping rule 3 bounds the whole invocation.
        let mut config = spec.config.clone();
        if let Some(max) = spec.config.stopping.max_time {
            config.stopping.max_time = Some(max.saturating_sub(started.elapsed()));
        }
        let resume = (!std::mem::take(&mut fresh)).then(|| ResumeFrontier {
            tasks: std::mem::take(&mut frontier.tasks),
            base: frontier.stats,
        });
        let gen = frontier.generation;
        let make_sink = |i| match out {
            Some(out) => {
                let path = segment_path(out, gen, i);
                let sink = ContainerSink::create(&path, spec.taxa);
                Sink::Segment(Box::new(BatchingSink::new(sink, SEGMENT_BATCH)), path)
            }
            None => Sink::Collect(CollectNewick::with_cap(spec.taxa, cap)),
        };
        let capture = every.is_some();
        let (mut r, sinks, captured) =
            run_parallel_epoch(spec.problem, &config, &pcfg, make_sink, resume, capture)
                .map_err(msg)?;
        // Finish the epoch's segments before a sidecar can name them; a
        // segment that caught no tree goes at once.
        for sink in sinks {
            match sink {
                Sink::Collect(c) => trees.extend(c.out),
                Sink::Segment(s, path) => {
                    if s.into_inner().finish().map_err(|e| at(&path, e))?.trees > 0 {
                        frontier.segments.push(path);
                    } else {
                        std::fs::remove_file(&path).map_err(|e| at(&path, e))?;
                    }
                }
            }
        }
        epochs += 1;
        frontier.stats = r.stats;
        r.elapsed = started.elapsed();
        let mut report = RunReport {
            stats: r.stats,
            stop: r.stop,
            elapsed: r.elapsed,
            epochs,
            ..RunReport::default()
        };
        let count_stop = matches!(r.stop, Some(StandTreeLimit | StateLimit));
        let out = match out {
            Some(out) if !captured.is_empty() && !count_stop => out,
            // The enumeration is done, or a count limit ended it for good,
            // or the clock cut short a run without a cadence.
            _ => {
                if let Some(out) = out {
                    report.container = Some(commit(out, spec.taxa, &frontier.segments, named)?);
                }
                trees.sort();
                report.trees = trees;
                report.engine = Some(r);
                return Ok(report);
            }
        };
        frontier.generation += 1;
        frontier.tasks = captured;
        let sidecar = sidecar_path(out);
        spec.checkpoint(r.initial_tree, frontier)
            .write_atomic(&sidecar)
            .map_err(|e| at(&sidecar, e))?;
        *named = frontier.segments.len();
        if r.stop == Some(TimeLimit) {
            report.sidecar = Some((sidecar, frontier.tasks.len()));
            report.engine = Some(r);
            return Ok(report);
        }
    }
}

/// The commit point of a container run: the merged container is finished
/// first, then the sidecar is retired, and only then do the segments go.
fn commit(
    out: &Path,
    taxa: &TaxonSet,
    segments: &[PathBuf],
    named: &mut usize,
) -> Result<ContainerSummary, CliError> {
    let summary = concat_segments(out, taxa, segments).map_err(|e| match e {
        StandfileError::Segment { .. } => CliError(e.to_string()),
        e => at(out, e),
    })?;
    let sidecar = sidecar_path(out);
    if sidecar.exists() {
        std::fs::remove_file(&sidecar).map_err(|e| at(&sidecar, e))?;
    }
    *named = 0;
    for s in segments {
        std::fs::remove_file(s).map_err(|e| at(s, e))?;
    }
    Ok(summary)
}
