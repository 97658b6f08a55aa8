//! The traced run: the pipeline `gentrius stand` / `gentrius stand cat`
//! runs, driven through the same public calls, with a span around each
//! call into a layer.
//!
//! Spans (name, start, end, parent, run id) are kept in memory and written
//! out when the run ends. Main-thread spans nest sequentially, so a span's
//! self time is its duration minus its children's. Inside an engine span
//! the two workers run concurrently; that span's interval is split by
//! thread-seconds (worker task spans give busy time, bench-owned sinks time
//! emission, encoding and block writes), divided by the thread count so
//! the parts add up to the span's wall time. Every second of the traced
//! wall time therefore lands in exactly one layer.
//!
//! Once before and once after the traced run, the same command runs
//! in-process through `gentrius_cli::run` with no spans and no timed
//! sinks; the traced wall minus the mean of that pair is the tracing
//! overhead.

use crate::workload::{cli_config, Workload};
use crate::{parsed, required};
use gentrius_cli::CliError;
use gentrius_core::{
    run_serial, BatchingSink, CountOnly, GentriusConfig, RunStats, StandProblem, StandSink,
    StopCause,
};
use gentrius_datagen::Dataset;
use gentrius_parallel::obs::json::JsonWriter;
use gentrius_parallel::{
    run_parallel_epoch, ParallelConfig, ParallelRunResult, ResumeFrontier, Task,
};
use gentrius_standfile::{
    merge_segments, Checkpoint, CkptTask, Container, ContainerSummary, ContainerWriter,
    StandfileError,
};
use phylo::newick::to_newick;
use phylo::phylo2vec::{self, Encoder};
use phylo::taxa::{TaxonId, TaxonSet};
use phylo::tree::Tree;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every engine run, as in the `--threads 2` that
/// `run.py` passes the CLI.
pub const THREADS: usize = 2;

/// One interval on one thread. Thread 0 is the main thread; worker task
/// spans carry `1 + worker` and the engine span as parent.
struct Span {
    name: &'static str,
    thread: usize,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder plus the per-layer self-time ledger.
struct Tracer {
    origin: Instant,
    run_id: u64,
    spans: Vec<Span>,
    /// Self time per layer, in wall seconds.
    layers: BTreeMap<&'static str, f64>,
    /// Per span: time covered by its main-thread children plus what
    /// [`Tracer::attribute`] booked inside it.
    claimed: Vec<f64>,
}

impl Tracer {
    fn new(run_id: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            layers: BTreeMap::new(),
            claimed: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.claimed.push(0.0);
        self.spans.len() - 1
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.record(Span {
            name,
            thread: 0,
            start,
            end: start,
            parent,
        })
    }

    /// Ends span `id` and books its self time (duration minus children
    /// minus attributions) to `layer`.
    fn close(&mut self, id: usize, layer: &'static str) {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        let dur = end - span.start;
        if let Some(p) = span.parent {
            self.claimed[p] += dur;
        }
        *self.layers.entry(layer).or_default() += dur - self.claimed[id];
    }

    /// Runs `f` inside a main-thread span; `f` gets the span id so it can
    /// open children or attribute parts of the interval.
    fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f(self, id);
        self.close(id, layer);
        out
    }

    /// Books `secs` of span `id`'s interval to `layer` (used where one
    /// interval holds several layers' work, measured by accumulators).
    fn attribute(&mut self, id: usize, layer: &'static str, secs: f64) {
        self.claimed[id] += secs;
        *self.layers.entry(layer).or_default() += secs;
    }

    fn wall(&self) -> f64 {
        self.spans.first().map(|s| s.end - s.start).unwrap_or(0.0)
    }

    fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut j = JsonWriter::new();
        j.begin_object()
            .key("run_id")
            .u64(self.run_id)
            .key("spans")
            .begin_array();
        for s in &self.spans {
            j.begin_object()
                .key("name")
                .string(s.name)
                .key("thread")
                .u64(s.thread as u64)
                .key("start")
                .f64(s.start)
                .key("end")
                .f64(s.end)
                .key("parent");
            match s.parent {
                Some(p) => j.u64(p as u64),
                None => j.null(),
            };
            j.key("run").u64(self.run_id).end_object();
        }
        j.end_array().end_object();
        std::fs::write(path, j.finish())
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-context sink accumulators: times, the trees the engine handed the
/// sink, and the trees encoded. Relaxed: plain statistics, read by the
/// main thread only after the engine has joined the workers.
#[derive(Default)]
struct Tally {
    emit_ns: AtomicU64,
    encode_ns: AtomicU64,
    push_ns: AtomicU64,
    calls: AtomicU64,
    encodes: AtomicU64,
}

#[derive(Clone, Copy, Default)]
struct TallySnap {
    emit: f64,
    encode: f64,
    push: f64,
    calls: u64,
    encodes: u64,
}

impl TallySnap {
    fn of(tallies: &[Arc<Tally>]) -> TallySnap {
        let mut s = TallySnap::default();
        for t in tallies {
            s.emit += secs(t.emit_ns.load(Relaxed));
            s.encode += secs(t.encode_ns.load(Relaxed));
            s.push += secs(t.push_ns.load(Relaxed));
            s.calls += t.calls.load(Relaxed);
            s.encodes += t.encodes.load(Relaxed);
        }
        s
    }

    fn minus(self, o: TallySnap) -> TallySnap {
        TallySnap {
            emit: self.emit - o.emit,
            encode: self.encode - o.encode,
            push: self.push - o.push,
            calls: self.calls - o.calls,
            encodes: self.encodes - o.encodes,
        }
    }
}

/// What `ContainerSink` does — `Encoder::encode` then
/// `ContainerWriter::push_code` — with the two calls timed apart.
struct TimedWriter {
    writer: Option<ContainerWriter>,
    encoder: Encoder,
    err: Option<StandfileError>,
    tally: Arc<Tally>,
}

impl StandSink for TimedWriter {
    fn stand_tree(&mut self, tree: &Tree) {
        let (Some(writer), None) = (self.writer.as_mut(), &self.err) else {
            return;
        };
        let t0 = Instant::now();
        let code = self.encoder.encode(tree);
        let t1 = Instant::now();
        let pushed = code
            .map_err(StandfileError::from)
            .and_then(|tv| writer.push_code(&tv.code));
        self.tally
            .encode_ns
            .fetch_add(u64::try_from((t1 - t0).as_nanos()).unwrap_or(0), Relaxed);
        self.tally.push_ns.fetch_add(since(t1), Relaxed);
        self.tally.encodes.fetch_add(1, Relaxed);
        if let Err(e) = pushed {
            self.err = Some(e);
        }
    }
}

impl TimedWriter {
    fn finish(mut self) -> Result<ContainerSummary, StandfileError> {
        match (self.err.take(), self.writer.take()) {
            (Some(e), _) => Err(e),
            (None, Some(w)) => w.finish(),
            (None, None) => Err(StandfileError::Format {
                offset: 0,
                msg: "writer already finished".to_string(),
            }),
        }
    }
}

/// The sink each engine context gets, behind a timer: what the CLI plugs
/// in, a container segment behind a 64-tree `BatchingSink` or, when
/// counting only, nothing.
struct TimedSink {
    batch: Option<BatchingSink<TimedWriter>>,
    tally: Arc<Tally>,
}

impl StandSink for TimedSink {
    fn stand_tree(&mut self, tree: &Tree) {
        let t0 = Instant::now();
        if let Some(batch) = &mut self.batch {
            batch.stand_tree(tree);
        }
        self.tally.emit_ns.fetch_add(since(t0), Relaxed);
        self.tally.calls.fetch_add(1, Relaxed);
    }
}

/// What one engine epoch hands back.
struct Epoch {
    result: ParallelRunResult,
    sinks: Vec<TimedSink>,
    frontier: Vec<Task>,
    tallies: Vec<Arc<Tally>>,
}

/// Scheduler, explorer and sink figures accumulated over engine epochs.
#[derive(Default)]
struct EngineAcc {
    elapsed: f64,
    /// Thread-seconds.
    idle: f64,
    explore: f64,
    sink_emit: f64,
    encode: f64,
    push: f64,
    sink_calls: u64,
    encodes: u64,
    worker_busy: Vec<f64>,
    depth_sum: f64,
    tasks: u64,
    steals: u64,
    failed_steals: u64,
    parks: u64,
    splits: u64,
    executed: u64,
    prefix_states: u64,
}

struct Run<'a> {
    tracer: &'a mut Tracer,
    root: usize,
    taxa: &'a TaxonSet,
    problem: &'a StandProblem,
    config: GentriusConfig,
    pcfg: ParallelConfig,
    acc: EngineAcc,
}

impl Run<'_> {
    /// One `run_parallel_epoch` call inside an `engine.run` span, whose
    /// interval is then split between the layers by thread-seconds.
    fn engine_epoch(
        &mut self,
        out: Option<&Path>,
        gen: Option<u64>,
        resume: Option<ResumeFrontier>,
    ) -> Result<Epoch, String> {
        let threads = self.pcfg.threads;
        let tallies: Vec<Arc<Tally>> = (0..=threads).map(|_| Arc::default()).collect();
        let taxa = self.taxa;
        let make = |i: usize| TimedSink {
            batch: out.map(|path| {
                let seg = seg_path(path, gen, i);
                let (writer, err) = match ContainerWriter::create(&seg, taxa) {
                    Ok(w) => (Some(w), None),
                    Err(e) => (None, Some(e)),
                };
                let w = TimedWriter {
                    writer,
                    encoder: Encoder::new(),
                    err,
                    tally: tallies[i].clone(),
                };
                BatchingSink::new(w, 64)
            }),
            tally: tallies[i].clone(),
        };
        let resumed = resume.is_some();
        let id = self.tracer.open("engine.run", Some(self.root));
        let start = self.tracer.spans[id].start;
        let (r, sinks, frontier) = run_parallel_epoch(
            self.problem,
            &self.config,
            &self.pcfg,
            make,
            resume,
            gen.is_some(),
        )
        .map_err(|e| e.to_string())?;
        let prefix = TallySnap::of(&tallies[..1]);
        let workers = TallySnap::of(&tallies[1..]);
        let task_spans: Vec<_> = r.workers.iter().flat_map(|w| w.spans.iter()).collect();
        let (prefix_wall, phase) = match task_spans.iter().map(|s| s.start).reduce(f64::min) {
            None => (r.elapsed.as_secs_f64(), 0.0),
            Some(first) => {
                let last = task_spans.iter().map(|s| s.end).fold(first, f64::max);
                (first, last - first)
            }
        };
        // A resumed epoch has no serial prefix: the time before its first
        // task is thread start-up, left to `engine.other`.
        let prefix_explore = if resumed {
            0.0
        } else {
            prefix_wall - prefix.emit
        };
        let busy: f64 = task_spans.iter().map(|s| s.end - s.start).sum();
        let n = threads as f64;
        let t = &mut *self.tracer;
        t.attribute(
            id,
            "explore.step",
            prefix_explore + (busy - workers.emit) / n,
        );
        t.attribute(id, "pool.idle", (n * phase - busy) / n);
        t.attribute(
            id,
            "sink.batch",
            (prefix.emit - prefix.encode - prefix.push)
                + (workers.emit - workers.encode - workers.push) / n,
        );
        t.attribute(id, "phylo2vec.encode", prefix.encode + workers.encode / n);
        t.attribute(id, "container.push", prefix.push + workers.push / n);
        for (w, report) in r.workers.iter().enumerate() {
            for s in &report.spans {
                t.record(Span {
                    name: "pool.task",
                    thread: w + 1,
                    start: start + s.start,
                    end: start + s.end,
                    parent: Some(id),
                });
            }
        }
        t.close(id, "engine.other");

        let acc = &mut self.acc;
        acc.elapsed += r.elapsed.as_secs_f64();
        acc.idle += n * phase - busy;
        acc.explore += prefix_explore + busy - workers.emit;
        acc.sink_emit += prefix.emit + workers.emit;
        acc.encode += prefix.encode + workers.encode;
        acc.push += prefix.push + workers.push;
        acc.sink_calls += prefix.calls + workers.calls;
        acc.encodes += prefix.encodes + workers.encodes;
        acc.worker_busy.resize(threads, 0.0);
        for (w, report) in r.workers.iter().enumerate() {
            acc.worker_busy[w] += report.spans.iter().map(|s| s.end - s.start).sum::<f64>();
            acc.depth_sum += report
                .spans
                .iter()
                .map(|s| s.snapshot_depth as f64)
                .sum::<f64>();
            acc.tasks += report.spans.len() as u64;
        }
        let s = &r.scheduler;
        acc.steals += s.steals;
        acc.failed_steals += s.failed_steals;
        acc.parks += s.parks;
        acc.splits += s.splits;
        acc.executed += s.executed;
        acc.prefix_states += r.prefix.intermediate_states;
        Ok(Epoch {
            result: r,
            sinks,
            frontier,
            tallies,
        })
    }

    /// Drains and finishes each context's segment as the CLI does;
    /// returns the segments that hold trees.
    fn finish_segments(
        &mut self,
        sinks: Vec<TimedSink>,
        tallies: &[Arc<Tally>],
        out: &Path,
        gen: Option<u64>,
    ) -> Result<Vec<PathBuf>, String> {
        let mut segments = Vec::new();
        for (i, sink) in sinks.into_iter().enumerate() {
            let Some(batch) = sink.batch else {
                continue;
            };
            let before = TallySnap::of(tallies);
            let (writer, d) =
                self.tracer
                    .span("sink.drain", "sink.batch", Some(self.root), |t, id| {
                        let w = batch.into_inner();
                        let d = TallySnap::of(tallies).minus(before);
                        t.attribute(id, "phylo2vec.encode", d.encode);
                        t.attribute(id, "container.push", d.push);
                        (w, d)
                    });
            self.acc.encode += d.encode;
            self.acc.push += d.push;
            self.acc.encodes += d.encodes;
            let seg = seg_path(out, gen, i);
            let summary = self
                .tracer
                .span(
                    "container.finish",
                    "container.finish",
                    Some(self.root),
                    |_, _| writer.finish(),
                )
                .map_err(|e| format!("{}: {e}", seg.display()))?;
            if summary.trees > 0 || gen.is_none() {
                segments.push(seg);
            } else {
                std::fs::remove_file(&seg).map_err(|e| format!("{}: {e}", seg.display()))?;
            }
        }
        Ok(segments)
    }
}

/// `{out}.seg{i}` on the plain path, `{out}.g{gen}.seg{i}` per epoch.
fn seg_path(out: &Path, gen: Option<u64>, i: usize) -> PathBuf {
    match gen {
        None => PathBuf::from(format!("{}.seg{i}", out.display())),
        Some(g) => PathBuf::from(format!("{}.g{g}.seg{i}", out.display())),
    }
}

/// The checkpoint the CLI writes between epochs (same fields, same order).
#[allow(clippy::too_many_arguments)]
fn build_checkpoint(
    taxa: &TaxonSet,
    problem: &StandProblem,
    config: &GentriusConfig,
    threads: usize,
    initial_tree: usize,
    stats: RunStats,
    generation: u64,
    output: &Path,
    segments: &[PathBuf],
    tasks: &[Task],
) -> Checkpoint {
    let taxa_names: Vec<String> = taxa.iter().map(|(_, n)| n.to_string()).collect();
    let constraints: Vec<String> = problem
        .constraints()
        .iter()
        .map(|t| to_newick(t, taxa))
        .collect();
    Checkpoint {
        problem_hash: gentrius_standfile::ckpt::problem_hash(&taxa_names, &constraints),
        mapping: config.mapping,
        order_code: tasks.first().map(|t| t.snapshot.order_code()).unwrap_or(0),
        threads,
        initial_tree,
        stopping: config.stopping.clone(),
        stats,
        generation,
        output: output.display().to_string(),
        taxa: taxa_names,
        constraints,
        segments: segments.iter().map(|p| p.display().to_string()).collect(),
        tasks: tasks
            .iter()
            .map(|t| CkptTask {
                taxon: t.taxon.0,
                branches: t.branches.iter().map(|e| e.0).collect(),
                depth: t.depth as u64,
                remaining: t.snapshot.remaining().iter().map(|x| x.0).collect(),
                tree: t.snapshot.agile().dump_arena(),
            })
            .collect(),
    }
}

/// Metrics of the traced run, by the names the benchmark reports.
type Metrics = BTreeMap<String, f64>;

pub fn cmd_trace(args: &[String]) -> Result<String, String> {
    let w = Workload::parse(required(args, "--workload")?)?;
    let dir = PathBuf::from(required(args, "--dir")?);
    let run_id: u64 = parsed(args, "--run-id")?.unwrap_or(0);
    let mut tracer = Tracer::new(run_id);
    let mut m = Metrics::new();
    let mut doc = JsonWriter::new();
    doc.begin_object();
    // The paired untraced run goes once before and once after the traced
    // one; their mean cancels a steady drift in the host's speed.
    let mut paired = Vec::new();
    let output_trees = if w == Workload::StandRead {
        let src = PathBuf::from(required(args, "--container")?);
        let cli = [
            "stand".to_string(),
            "cat".to_string(),
            src.display().to_string(),
        ];
        paired.push(paired_cli_run(&cli, &dir)?);
        let n = trace_cat(&mut tracer, &mut m, &src, &dir.join("cat.out"))?;
        paired.push(paired_cli_run(&cli, &dir)?);
        n
    } else {
        let dataset = PathBuf::from(required(args, "--dataset")?);
        let max_trees: Option<u64> = parsed(args, "--max-trees")?;
        let cadence: Option<f64> = parsed(args, "--checkpoint-every")?;
        let out = (w != Workload::DeadendCount).then(|| dir.join("traced.stand"));
        let serial = args.iter().any(|a| a == "--serial");
        let mut cli = vec![
            "stand".to_string(),
            "--dataset".to_string(),
            dataset.display().to_string(),
            "--threads".to_string(),
            THREADS.to_string(),
        ];
        if let Some(cap) = max_trees {
            cli.extend(["--max-trees".to_string(), cap.to_string()]);
        }
        if out.is_some() {
            let paired_out = dir.join("paired.stand");
            cli.extend(["--output".to_string(), paired_out.display().to_string()]);
        }
        if let Some(every) = cadence {
            cli.extend(["--checkpoint-every".to_string(), every.to_string()]);
        }
        paired.push(paired_cli_run(&cli, &dir)?);
        let stats = trace_stand(
            &mut tracer,
            &mut m,
            &dataset,
            StandOpts {
                max_trees,
                cadence,
                out: out.as_deref(),
                serial,
            },
        )?;
        paired.push(paired_cli_run(&cli, &dir)?);
        doc.key("stand_trees")
            .u64(stats.stand_trees)
            .key("intermediate_states")
            .u64(stats.intermediate_states)
            .key("dead_ends")
            .u64(stats.dead_ends);
        stats.stand_trees
    };
    let wall = tracer.wall();
    let paired = paired.iter().sum::<f64>() / paired.len() as f64;
    m.insert("trace.paired_wall_s".to_string(), paired);
    m.insert("trace.overhead_s".to_string(), wall - paired);
    m.insert(
        "trace.overhead_pct".to_string(),
        100.0 * (wall - paired) / paired,
    );
    let trace_file = dir.join("trace.json");
    tracer
        .write_spans(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    doc.key("output_trees")
        .u64(output_trees)
        .key("wall_s")
        .f64(wall)
        .key("spans")
        .u64(tracer.spans.len() as u64)
        .key("trace_file")
        .string(&trace_file.display().to_string())
        .key("self_s")
        .begin_object();
    for (layer, s) in &tracer.layers {
        doc.key(layer).f64(*s);
    }
    doc.end_object().key("metrics").begin_object();
    for (k, v) in &m {
        doc.key(k).f64(*v);
    }
    doc.end_object().end_object();
    Ok(doc.finish())
}

/// Runs `gentrius ARGS` in-process, untraced, and returns its wall time:
/// the half of the tracing-overhead pair without spans. Like the traced
/// run, it skips the process start and writes its output (the `stand cat`
/// text) to a file; its container, if any, is removed afterwards.
fn paired_cli_run(args: &[String], dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let out = gentrius_cli::run(args).map_err(|CliError(e)| format!("paired run: {e}"))?;
    let text = dir.join("paired.out");
    std::fs::write(&text, &out).map_err(|e| format!("{}: {e}", text.display()))?;
    let wall = t0.elapsed().as_secs_f64();
    for f in ["paired.out", "paired.stand"] {
        if let Err(e) = std::fs::remove_file(dir.join(f)) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(format!("{f}: {e}"));
            }
        }
    }
    Ok(wall)
}

struct StandOpts<'a> {
    max_trees: Option<u64>,
    cadence: Option<f64>,
    out: Option<&'a Path>,
    serial: bool,
}

/// `gentrius stand --dataset F --threads 2 [--max-trees C] [--output
/// x.stand [--checkpoint-every S]]`, traced.
fn trace_stand(
    tracer: &mut Tracer,
    m: &mut Metrics,
    dataset: &Path,
    o: StandOpts<'_>,
) -> Result<RunStats, String> {
    let root = tracer.open("run", None);
    let (taxa, problem) = tracer.span("problem.load", "problem.load", Some(root), |_, _| {
        let d = Dataset::load(dataset)?;
        let p = d.problem().map_err(|e| e.to_string())?;
        Ok::<_, String>((d.taxa, p))
    })?;
    let mut pcfg = ParallelConfig::with_threads(THREADS);
    pcfg.trace = true;
    let mut run = Run {
        tracer,
        root,
        taxa: &taxa,
        problem: &problem,
        config: cli_config(o.max_trees),
        pcfg,
        acc: EngineAcc::default(),
    };
    let (stats, stop, segments, ckpt) = match (o.out, o.cadence) {
        (None, _) => {
            let r = run.engine_epoch(None, None, None)?.result;
            (r.stats, r.stop, 0, CkptAcc::default())
        }
        (Some(out), None) => {
            let e = run.engine_epoch(Some(out), None, None)?;
            let segs = run.finish_segments(e.sinks, &e.tallies, out, None)?;
            merge(&mut run, out, &taxa, &segs)?;
            (
                e.result.stats,
                e.result.stop,
                segs.len(),
                CkptAcc::default(),
            )
        }
        (Some(out), Some(every)) => epochs(&mut run, out, &taxa, every)?,
    };
    // The root span's self time is what no layer claimed.
    run.tracer.close(root, "commands.other");

    let a = &run.acc;
    let writes = o.out.is_some();
    let events = (stats.stand_trees + stats.intermediate_states) as f64;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let per_tree = |s: f64| {
        if writes {
            ratio(s * 1e9, stats.stand_trees as f64)
        } else {
            0.0
        }
    };
    let busy_mean = ratio(
        a.worker_busy.iter().sum::<f64>(),
        a.worker_busy.len() as f64,
    );
    let busy_max = a.worker_busy.iter().copied().fold(0.0, f64::max);
    let layer = |k: &str| run.tracer.layers.get(k).copied().unwrap_or(0.0);
    let overshoot = match (stop, o.max_trees) {
        (Some(StopCause::StandTreeLimit), Some(cap)) => stats.stand_trees.saturating_sub(cap),
        _ => 0,
    };
    let entries = [
        ("problem.load_s", layer("problem.load")),
        ("explore.busy_s", a.explore),
        ("explore.ns_per_event", ratio(a.explore * 1e9, events)),
        ("explore.events", events),
        (
            "explore.dead_end_ratio",
            ratio(stats.dead_ends as f64, stats.intermediate_states as f64),
        ),
        ("explore.prefix_states", a.prefix_states as f64),
        ("engine.elapsed_s", a.elapsed),
        ("pool.idle_s", a.idle),
        ("pool.steals", a.steals as f64),
        ("pool.failed_steals", a.failed_steals as f64),
        (
            "pool.steal_success",
            ratio(a.steals as f64, (a.steals + a.failed_steals) as f64),
        ),
        ("pool.parks", a.parks as f64),
        ("pool.splits", a.splits as f64),
        ("pool.executed", a.executed as f64),
        ("pool.imbalance", ratio(busy_max, busy_mean)),
        (
            "pool.snapshot_depth_mean",
            ratio(a.depth_sum, a.tasks as f64),
        ),
        ("counters.overshoot_trees", overshoot as f64),
        ("sink.emit_s", a.sink_emit),
        ("sink.calls", a.sink_calls as f64),
        ("phylo2vec.encodes", a.encodes as f64),
        (
            "sink.trees",
            if writes {
                stats.stand_trees as f64
            } else {
                0.0
            },
        ),
        ("phylo2vec.encode_s", a.encode),
        ("phylo2vec.encode_ns_per_tree", per_tree(a.encode)),
        ("container.push_ns_per_tree", per_tree(a.push)),
        ("container.finish_s", layer("container.finish")),
        ("container.merge_s", layer("container.merge")),
        ("container.segments", segments as f64),
        (
            "container.bytes",
            o.out
                .and_then(|p| std::fs::metadata(p).ok())
                .map_or(0.0, |md| md.len() as f64),
        ),
        ("ckpt.epochs", ckpt.epochs as f64),
        ("ckpt.encode_s", ckpt.encode_s),
        ("ckpt.decode_s", ckpt.decode_s),
        ("ckpt.bytes", ckpt.bytes as f64),
        ("ckpt.pending_tasks", ckpt.pending_tasks as f64),
        ("commands.output_bytes", 0.0),
    ];
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    let engine_s = a.elapsed;
    if o.serial {
        // `run_serial` on the same problem, outside the traced wall:
        // separates kernel gains (both move) from scheduler gains (only
        // the engine moves).
        let t0 = Instant::now();
        let r = run_serial(&problem, &cli_config(o.max_trees), &mut CountOnly)
            .map_err(|e| e.to_string())?;
        let serial_s = t0.elapsed().as_secs_f64();
        if r.stats != stats {
            return Err(format!(
                "run_serial totals {:?} differ from the engine's {:?}",
                r.stats, stats
            ));
        }
        m.insert("driver.serial_s".to_string(), serial_s);
        m.insert(format!("engine.speedup_{THREADS}t"), serial_s / engine_s);
    }
    Ok(stats)
}

fn merge(
    run: &mut Run<'_>,
    out: &Path,
    taxa: &TaxonSet,
    segs: &[PathBuf],
) -> Result<ContainerSummary, String> {
    run.tracer
        .span(
            "container.merge",
            "container.merge",
            Some(run.root),
            |_, _| merge_segments(out, taxa, segs),
        )
        .map_err(|e| format!("{}: {e}", out.display()))
}

#[derive(Default)]
struct CkptAcc {
    epochs: u64,
    encode_s: f64,
    decode_s: f64,
    bytes: u64,
    pending_tasks: u64,
}

/// The checkpointed container run (`--checkpoint-every`): engine epochs
/// with a sidecar written between them, as `gentrius stand` runs it.
fn epochs(
    run: &mut Run<'_>,
    out: &Path,
    taxa: &TaxonSet,
    every: f64,
) -> Result<(RunStats, Option<StopCause>, usize, CkptAcc), String> {
    let ckpt_path = PathBuf::from(format!("{}ckpt", out.display()));
    if let Some(mon) = &mut run.pcfg.monitor {
        mon.checkpoint_every = Some(Duration::from_secs_f64(every));
    }
    let mut gen = 0u64;
    let mut segments: Vec<PathBuf> = Vec::new();
    let mut frontier: Option<Vec<Task>> = None;
    let mut base = RunStats::new();
    let mut acc = CkptAcc::default();
    let mut sidecars: Vec<Vec<u8>> = Vec::new();
    loop {
        let resume = frontier.take().map(|tasks| ResumeFrontier { tasks, base });
        let Epoch {
            result: r,
            sinks,
            frontier: captured,
            tallies,
        } = run.engine_epoch(Some(out), Some(gen), resume)?;
        segments.extend(run.finish_segments(sinks, &tallies, out, Some(gen))?);
        base = r.stats;
        acc.epochs += 1;
        let count_stop = matches!(
            r.stop,
            Some(StopCause::StandTreeLimit | StopCause::StateLimit)
        );
        if captured.is_empty() || count_stop {
            let n = segments.len();
            merge(run, out, taxa, &segments)?;
            let _ = std::fs::remove_file(&ckpt_path);
            // Decoding is what `stand resume` pays; time it on every sidecar
            // this run wrote, outside the traced wall.
            let t0 = Instant::now();
            for bytes in &sidecars {
                Checkpoint::decode(bytes).map_err(|e| format!("sidecar decode: {e}"))?;
            }
            acc.decode_s = t0.elapsed().as_secs_f64();
            let k = sidecars.len().max(1) as u64;
            acc.bytes = sidecars.iter().map(|b| b.len() as u64).sum::<u64>() / k;
            acc.pending_tasks /= k;
            return Ok((r.stats, r.stop, n, acc));
        }
        gen += 1;
        let (problem, config, threads) = (run.problem, &run.config, run.pcfg.threads);
        let (bytes, enc) =
            run.tracer
                .span("ckpt.write", "ckpt.write", Some(run.root), |t, id| {
                    let ck = build_checkpoint(
                        taxa,
                        problem,
                        config,
                        threads,
                        r.initial_tree,
                        r.stats,
                        gen,
                        out,
                        &segments,
                        &captured,
                    );
                    let t0 = Instant::now();
                    let bytes = ck.encode();
                    let enc = t0.elapsed().as_secs_f64();
                    t.attribute(id, "ckpt.encode", enc);
                    let mut tmp = ckpt_path.clone().into_os_string();
                    tmp.push(".tmp");
                    std::fs::write(&tmp, &bytes)
                        .and_then(|()| std::fs::rename(&tmp, &ckpt_path))
                        .map_err(|e| format!("{}: {e}", ckpt_path.display()))?;
                    Ok::<_, String>((bytes, enc))
                })?;
        acc.encode_s += enc;
        acc.pending_tasks += captured.len() as u64;
        sidecars.push(bytes);
        frontier = Some(captured);
    }
}

/// `gentrius stand cat FILE.stand`, traced: open, then per tree
/// `Container::code`, `phylo2vec::decode` and `newick::to_newick`, the
/// whole output built as one `String` and written out.
fn trace_cat(tracer: &mut Tracer, m: &mut Metrics, src: &Path, dest: &Path) -> Result<u64, String> {
    let root = tracer.open("run", None);
    let mut c = tracer
        .span("container.open", "container.open", Some(root), |_, _| {
            Container::open(src)
        })
        .map_err(|e| format!("{}: {e}", src.display()))?;
    let n = c.len();
    let universe = c.taxa().len();
    let ids: Vec<TaxonId> = (0..universe as u32).map(TaxonId).collect();
    let taxa = c.taxa().clone();
    let mut read = (0u64, 0u64, 0u64);
    let out = tracer.span("commands.cat", "commands.other", Some(root), |t, id| {
        let mut out = String::new();
        for i in 0..n {
            let t0 = Instant::now();
            let code = c.code(i).map_err(|e| format!("{}: {e}", src.display()))?;
            let t1 = Instant::now();
            let tree = phylo2vec::decode(universe, &ids, &code).map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            let nwk = to_newick(&tree, &taxa);
            read.0 += u64::try_from((t1 - t0).as_nanos()).unwrap_or(0);
            read.1 += u64::try_from((t2 - t1).as_nanos()).unwrap_or(0);
            read.2 += since(t2);
            out.push_str(&nwk);
            out.push('\n');
        }
        t.attribute(id, "container.read", secs(read.0));
        t.attribute(id, "phylo2vec.decode", secs(read.1));
        t.attribute(id, "newick.write", secs(read.2));
        Ok::<_, String>(out)
    })?;
    tracer
        .span("commands.emit", "commands.other", Some(root), |_, _| {
            std::fs::write(dest, &out)
        })
        .map_err(|e| format!("{}: {e}", dest.display()))?;
    tracer.close(root, "commands.other");
    let per = |ns: u64| ns as f64 / n.max(1) as f64;
    m.insert("container.open_s".into(), tracer.layers["container.open"]);
    m.insert("container.read_ns_per_tree".into(), per(read.0));
    m.insert("phylo2vec.decode_ns_per_tree".into(), per(read.1));
    m.insert("newick.write_ns_per_tree".into(), per(read.2));
    m.insert("commands.output_bytes".into(), out.len() as f64);
    m.insert(
        "container.bytes".into(),
        std::fs::metadata(src)
            .map(|md| md.len() as f64)
            .unwrap_or(0.0),
    );
    Ok(n)
}
