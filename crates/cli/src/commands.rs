//! Subcommand implementations. Every command but `stand cat` returns its
//! output as a string (plus optional file side effects) so the logic is
//! directly testable; `stand cat` streams its trees to the writer
//! [`run_to`] is given. Stand runs go through [`crate::pipeline`]; this
//! module parses their flags and formats their reports.

use crate::args::{ArgError, ParsedArgs};
use crate::pipeline::{self, Driver, Output, RunReport, RunSpec};
use gentrius_core::{
    GentriusConfig, InitialTreeRule, MappingMode, StandProblem, StopCause, StoppingRules,
    TaxonOrderRule,
};
use gentrius_datagen::{
    empirical_dataset, simulated_dataset, Dataset, EmpiricalParams, SimulatedParams,
};
use gentrius_parallel::obs::{write_chrome_trace, write_run_metrics, METRICS_VERSION};
use gentrius_parallel::{FlushThresholds, ParallelConfig};
use gentrius_sim::{simulate, SimConfig};
use gentrius_standfile::{Checkpoint, Container, ContainerSink, ContainerSummary, StandfileError};
use phylo::newick::{parse_forest, parse_newick, to_newick};
use phylo::pam::Pam;
use phylo::taxa::TaxonSet;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Top-level error type for the CLI.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError(e.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// An error carrying `e`'s message.
pub(crate) fn msg(e: impl std::fmt::Display) -> CliError {
    CliError(e.to_string())
}

/// An error about the file at `path`.
pub(crate) fn at(path: impl AsRef<Path>, e: impl std::fmt::Display) -> CliError {
    CliError(format!("{}: {e}", path.as_ref().display()))
}

/// The usage text.
pub const USAGE: &str = "\
gentrius — phylogenetic stand enumeration (Rust reproduction of parallel Gentrius)

USAGE:
  gentrius stand   --trees FILE | --dataset FILE | (--species FILE --pam FILE)
                   [--threads N] [--max-trees N] [--max-states N] [--max-hours H]
                   [--no-dynamic] [--initial-tree IDX]
                   [--mapping recompute|edge-indexed]
                   [--print-trees] [--output FILE[.stand]] [--max-collect N]
                   [--metrics-json FILE] [--trace-json FILE]
                   [--no-adaptive-split] [--stop-poll-stride N]
                   [--coarse-flush] [--checkpoint-every SECS]
  gentrius stand resume FILE.standckpt [--threads N] [--checkpoint-every SECS]
                   [--no-adaptive-split] [--stop-poll-stride N] [--coarse-flush]
  gentrius stand export --input FILE --output FILE
  gentrius stand cat FILE.stand [--from N] [--count M]
  gentrius induced --species FILE --pam FILE
  gentrius gen     --kind sim|emp [--seed S] [--index I] [--scale paper|scaled]
                   [--output FILE]  |  gen --scenario NAME [--output FILE]
                   (--scenario list prints the scenario registry)
  gentrius sim     (--dataset FILE | --trees FILE) [--threads 1,2,4,8,16]
                   [--max-trees N] [--max-states N] [--max-ticks T] [--no-steal]
                   [--trace]
  gentrius consensus (--trees FILE | --dataset FILE | --species FILE --pam FILE)
                   [--max-trees N] [--max-states N] [--min-support F]
  gentrius verify  (--trees FILE | --dataset FILE | --species FILE --pam FILE)
                   [--threads N] [--max-trees N] [--max-states N]
  gentrius superb  (--trees FILE | --dataset FILE | --species FILE --pam FILE)
  gentrius score   --matrix FILE --partitions FILE --trees FILE
                   [--branch-len T] [--likelihood]
  gentrius help

Each subcommand takes the flags listed for it (and --help); any other flag
is an error.
Input formats: tree files hold one Newick per line; PAM files hold
'<taxon> <0/1 row>' lines; dataset files use the gentrius dataset v1 format.
Stand containers: an --output path ending in .stand streams stand trees
into an append-only block-compressed container (bounded memory; random
access by tree index) instead of collecting Newick strings in RAM;
--print-trees then reads the trees back from the container. 'stand
export' converts container <-> Newick (the direction is sniffed from the
input file's magic); 'stand cat' pages trees out of a container by index
range. The legacy Newick collect paths keep at most --max-collect trees
(default 10000000) in memory and report 'truncated: true' plus a warning
when the cap drops trees.
Checkpointing: --checkpoint-every SECS (requires --output FILE.stand)
periodically quiesces the workers, writes the pending search frontier to
a FILE.standckpt sidecar (atomically: tmp + rename) and keeps going; the
same checkpoint is written when the wall-clock limit fires. 'stand
resume FILE.standckpt' re-injects that frontier and appends to the same
container, so a killed or timed-out run loses at most one checkpoint
interval of work. Counters are cumulative across resumes; the final
container is identical to an uninterrupted run's.
Observability: --metrics-json writes a schema-versioned run-metrics JSON
document; --trace-json writes a Chrome-trace-event timeline (load it in
Perfetto or chrome://tracing). Either flag routes the run through the
parallel engine, even with --threads 1.
Scheduler tuning (parallel runs): --no-adaptive-split disables the
steal-to-execute granularity controller (workers then always publish
stealable frames); --stop-poll-stride N polls the stop flag every N
steps instead of the default 64; --coarse-flush raises the counter-flush
thresholds for blow-up instances.
";

/// Flags that take no value.
const BOOL_FLAGS: &str =
    "no-dynamic print-trees no-steal no-adaptive-split coarse-flush trace likelihood help";

/// The flags `command` accepts, in space-separated groups.
fn accepted_flags(command: &str) -> &'static [&'static str] {
    const PROBLEM: &str = "trees dataset species pam";
    const RULES: &str = "max-trees max-states max-hours no-dynamic initial-tree mapping";
    const ENGINE: &str = "threads no-adaptive-split stop-poll-stride coarse-flush checkpoint-every";
    const STAND: &str = "print-trees output max-collect metrics-json trace-json";
    match command {
        "stand" => &[PROBLEM, RULES, ENGINE, STAND],
        // `--input` is the flag form of the positional path.
        "stand resume" => &[ENGINE, "input"],
        "stand export" => &["input output"],
        "stand cat" => &["input from count"],
        "induced" => &["species pam"],
        "gen" => &["kind seed index scale output scenario"],
        "sim" => &[PROBLEM, RULES, "threads max-ticks no-steal trace"],
        "consensus" => &[PROBLEM, RULES, "min-support"],
        "verify" => &[PROBLEM, RULES, "threads"],
        "superb" => &[PROBLEM],
        "score" => &["matrix partitions trees branch-len likelihood"],
        _ => &[],
    }
}

/// Dispatches a full command line (without the program name) and returns
/// everything it prints.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut out = Vec::new();
    run_to(args, &mut out)?;
    String::from_utf8(out).map_err(|_| CliError("output is not UTF-8".to_string()))
}

/// Dispatches a full command line (without the program name), writing its
/// output to `out`: `stand cat` as it decodes, every other command once it
/// is done. On an error, what `stand cat` wrote before it stays written.
pub fn run_to(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(args, BOOL_FLAGS);
    if parsed.has("help") {
        return write_out(out, USAGE);
    }
    let word = |i: usize| parsed.positional.get(i).map(String::as_str);
    let (name, command): (&str, fn(&ParsedArgs) -> _) = match word(0) {
        Some("stand") => match word(1) {
            Some("export") => ("stand export", cmd_stand_export),
            // The one streaming command.
            Some("cat") => {
                parsed.check("stand cat", accepted_flags("stand cat"))?;
                return cmd_stand_cat(&parsed, out);
            }
            Some("resume") => ("stand resume", cmd_stand_resume),
            _ => ("stand", cmd_stand),
        },
        Some("induced") => ("induced", cmd_induced),
        Some("gen") => ("gen", cmd_gen),
        Some("sim") => ("sim", cmd_sim),
        Some("consensus") => ("consensus", cmd_consensus),
        Some("verify") => ("verify", cmd_verify),
        Some("superb") => ("superb", cmd_superb),
        Some("score") => ("score", cmd_score),
        Some("help") | None => return write_out(out, USAGE),
        Some(other) => return err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    parsed.check(name, accepted_flags(name))?;
    write_out(out, &command(&parsed)?)
}

/// Writes a command's text to the output stream.
fn write_out(out: &mut dyn Write, text: &str) -> Result<(), CliError> {
    out.write_all(text.as_bytes()).map_err(|e| at("stdout", e))
}

/// Loads the problem (and taxa) from `--trees`, `--dataset`, or
/// `--species`+`--pam`.
fn load_problem(a: &ParsedArgs) -> Result<(TaxonSet, StandProblem), CliError> {
    if let Some(path) = a.get("dataset") {
        let d = Dataset::load(std::path::Path::new(path))?;
        let p = d.problem().map_err(msg)?;
        return Ok((d.taxa, p));
    }
    if let Some(path) = a.get("trees") {
        let text = std::fs::read_to_string(path).map_err(|e| at(path, e))?;
        // NEXUS tree files are auto-detected by their header; anything
        // else is treated as one Newick per line.
        let (taxa, trees) = if text.trim_start().to_ascii_uppercase().starts_with("#NEXUS") {
            let data = phylo::nexus::parse_nexus(&text).map_err(msg)?;
            (data.taxa, data.trees.into_iter().map(|(_, t)| t).collect())
        } else {
            parse_forest(text.lines()).map_err(msg)?
        };
        let p = StandProblem::from_constraints(trees).map_err(msg)?;
        return Ok((taxa, p));
    }
    if let (Some(sp), Some(pp)) = (a.get("species"), a.get("pam")) {
        let sp_text = std::fs::read_to_string(sp).map_err(|e| at(sp, e))?;
        let pam_text = std::fs::read_to_string(pp).map_err(|e| at(pp, e))?;
        let (mut taxa, mut trees) = parse_forest(sp_text.lines().take(1)).map_err(msg)?;
        let pam = Pam::parse_text(&pam_text, &mut taxa)?;
        if trees[0].universe() != taxa.len() {
            // PAM introduced extra labels: re-parse the tree over the
            // enlarged universe.
            let line = sp_text.lines().next().unwrap_or_default();
            trees[0] = phylo::newick::parse_newick(line, &taxa).map_err(msg)?;
        }
        let p = StandProblem::from_species_tree_and_pam(&trees[0], &pam).map_err(msg)?;
        return Ok((taxa, p));
    }
    err("provide --trees FILE, --dataset FILE, or --species FILE with --pam FILE")
}

fn config_from(a: &ParsedArgs) -> Result<GentriusConfig, CliError> {
    let defaults = StoppingRules::paper_defaults();
    let max_trees = a.get_parsed("max-trees", defaults.max_stand_trees.unwrap())?;
    let max_states = a.get_parsed("max-states", defaults.max_intermediate_states.unwrap())?;
    let max_hours: f64 = a.get_parsed("max-hours", 168.0)?;
    let bad = |v: &str| CliError(format!("--initial-tree: bad index '{v}'"));
    let initial_tree = match a.get("initial-tree") {
        None => InitialTreeRule::MaxOverlap,
        Some(v) => InitialTreeRule::Index(v.parse().map_err(|_| bad(v))?),
    };
    Ok(GentriusConfig {
        initial_tree,
        taxon_order: if a.has("no-dynamic") {
            TaxonOrderRule::ById
        } else {
            TaxonOrderRule::Dynamic
        },
        stopping: StoppingRules {
            max_stand_trees: Some(max_trees),
            max_intermediate_states: Some(max_states),
            max_time: Some(Duration::from_secs_f64(max_hours * 3600.0)),
        },
        mapping: match a.get("mapping") {
            None => MappingMode::default(),
            Some(v) => v.parse::<MappingMode>().map_err(CliError)?,
        },
    })
}

/// The engine settings `stand` and `stand resume` share.
fn engine_config(a: &ParsedArgs, threads: usize) -> Result<ParallelConfig, CliError> {
    let mut pcfg = ParallelConfig::with_threads(threads);
    pcfg.adaptive_split = !a.has("no-adaptive-split");
    pcfg.stop_poll_stride = a.get_parsed("stop-poll-stride", pcfg.stop_poll_stride)?;
    if a.has("coarse-flush") {
        pcfg.flush = FlushThresholds::coarse();
    }
    Ok(pcfg)
}

/// `--checkpoint-every SECS`, which must be a positive number.
fn checkpoint_every(a: &ParsedArgs) -> Result<Option<Duration>, CliError> {
    let Some(v) = a.get("checkpoint-every") else {
        return Ok(None);
    };
    let secs: f64 = v
        .parse()
        .map_err(|_| CliError(format!("--checkpoint-every: bad seconds '{v}'")))?;
    if secs.is_nan() || secs <= 0.0 {
        return err("--checkpoint-every: must be a positive number of seconds");
    }
    Ok(Some(Duration::from_secs_f64(secs)))
}

fn stop_str(stop: Option<StopCause>) -> &'static str {
    match stop {
        None => "complete enumeration",
        Some(StopCause::StandTreeLimit) => "stopped: stand-tree limit (rule 1)",
        Some(StopCause::StateLimit) => "stopped: intermediate-state limit (rule 2)",
        Some(StopCause::TimeLimit) => "stopped: time limit (rule 3)",
    }
}

/// The report `stand` (and, `resumed`, `stand resume`) prints after its
/// header line: the files swept, counters, collection shortfall, scheduler
/// activity (not on resume), status, time and the checkpoint lines.
fn summary(out: &mut String, threads: usize, spec: &RunSpec<'_>, r: &RunReport, resumed: bool) {
    if let n @ 1.. = r.stale_segments {
        let from = if resumed {
            "the interrupted epoch"
        } else {
            "a previous run"
        };
        writeln!(out, "note: removed {n} stale segment file(s) from {from}").unwrap();
    }
    if let Some(cp) = &r.stale_checkpoint {
        writeln!(
            out,
            "note: removed stale checkpoint {} (this is a fresh run; use 'gentrius stand \
             resume' to continue a previous one)",
            cp.display()
        )
        .unwrap();
    }
    writeln!(out, "threads: {threads}").unwrap();
    writeln!(out, "mapping: {}", spec.config.mapping).unwrap();
    writeln!(out, "stand trees: {}", r.stats.stand_trees).unwrap();
    writeln!(out, "intermediate states: {}", r.stats.intermediate_states).unwrap();
    writeln!(out, "dead ends: {}", r.stats.dead_ends).unwrap();
    // Honesty about the in-memory collection cap: the run counted every
    // stand tree, but each context's collector keeps at most the cap.
    if let Output::Collect { cap } = spec.output {
        let (collected, total) = (r.trees.len() as u64, r.stats.stand_trees);
        if collected < total {
            writeln!(
                out,
                "truncated: true (collected {collected} of {total} stand trees)"
            )
            .unwrap();
            writeln!(
                out,
                "warning: in-memory collection capped at --max-collect {cap}; \
                 raise it or stream to a container with --output FILE.stand"
            )
            .unwrap();
        }
    }
    if let (false, Some(e)) = (resumed, &r.engine) {
        let s = &e.scheduler;
        writeln!(
            out,
            "scheduler: {} tasks, {} splits, {} steals ({} empty sweeps), {} parks, {} injected, {} deque grows",
            s.executed, s.splits, s.steals, s.failed_steals, s.parks, e.injected, e.deque_grows
        )
        .unwrap();
    }
    writeln!(out, "status: {}", stop_str(r.stop)).unwrap();
    writeln!(out, "time: {:.3}s", r.elapsed.as_secs_f64()).unwrap();
    if r.sidecar.is_some() || r.epochs > 1 {
        writeln!(out, "checkpoint epochs: {}", r.epochs).unwrap();
    }
    if let Some((path, pending)) = &r.sidecar {
        let p = path.display();
        writeln!(
            out,
            "checkpoint: {p} ({pending} pending tasks; continue with 'gentrius stand resume {p}')"
        )
        .unwrap();
    }
}

/// The line naming a finished container, if the run finished one.
fn container_line(out: &mut String, summary: Option<ContainerSummary>, path: &str) {
    if let Some(c) = summary {
        let (trees, blocks) = (c.trees, c.blocks);
        writeln!(
            out,
            "wrote {trees} trees to {path} ({blocks} blocks, .stand container)"
        )
        .unwrap();
    }
}

/// Resumes a checkpointed container run: `gentrius stand resume
/// FILE.standckpt [--threads N] [--checkpoint-every SECS]`.
fn cmd_stand_resume(a: &ParsedArgs) -> Result<String, CliError> {
    let Some(path) = a.positional.get(2).map(String::as_str).or(a.get("input")) else {
        return err(
            "stand resume requires a checkpoint path: gentrius stand resume FILE.standckpt \
             [--threads N] [--checkpoint-every SECS]",
        );
    };
    let ck = Checkpoint::read(Path::new(path)).map_err(|e| at(path, e))?;
    let restored = pipeline::restore(&ck)?;
    let threads = a.get_parsed("threads", ck.threads.max(1))?.max(1);
    let every = checkpoint_every(a)?.unwrap_or(Duration::from_secs(60));
    let mut out = format!(
        "resuming {path} -> {} ({} pending tasks, {} stand trees so far, epoch {})\n",
        ck.output,
        restored.frontier.tasks.len(),
        ck.stats.stand_trees,
        ck.generation
    );
    let spec = RunSpec {
        taxa: &restored.taxa,
        problem: &restored.problem,
        config: restored.config,
        driver: Driver::Engine(engine_config(a, threads)?),
        output: Output::Container {
            path: ck.output.clone().into(),
            checkpoint_every: Some(every),
        },
    };
    let report = pipeline::resume(&spec, restored.frontier)?;
    summary(&mut out, threads, &spec, &report, true);
    container_line(&mut out, report.container, &ck.output);
    Ok(out)
}

fn cmd_stand(a: &ParsedArgs) -> Result<String, CliError> {
    let (taxa, problem) = load_problem(a)?;
    let config = config_from(a)?;
    let threads: usize = a.get_parsed("threads", 1usize)?;
    // An output path ending in `.stand` selects the streaming container:
    // trees go to disk as they are generated, memory stays bounded by one
    // block, and no in-memory collection cap applies.
    let output = a.get("output");
    let container = output.filter(|p| p.ends_with(".stand"));
    let newick_file = output.filter(|_| container.is_none());
    let max_collect: usize = a.get_parsed("max-collect", 10_000_000usize)?;
    let every = checkpoint_every(a)?;
    if every.is_some() && container.is_none() {
        return err(
            "--checkpoint-every requires --output FILE.stand (checkpoints append to a \
             .stand container)",
        );
    }
    let (metrics_path, trace_path) = (a.get("metrics-json"), a.get("trace-json"));
    // The exports serialize the engine's result, so either flag routes the
    // run through the engine (which supports --threads 1); so does
    // checkpointing, whose frontier only exists in the engine.
    let engine = threads > 1 || metrics_path.is_some() || trace_path.is_some() || every.is_some();
    let spec = RunSpec {
        taxa: &taxa,
        problem: &problem,
        config,
        driver: if engine {
            let mut pcfg = engine_config(a, threads.max(1))?;
            pcfg.trace = trace_path.is_some();
            Driver::Engine(pcfg)
        } else {
            Driver::Serial
        },
        output: match container {
            Some(path) => Output::Container {
                path: path.into(),
                checkpoint_every: every,
            },
            None if newick_file.is_some() || a.has("print-trees") => {
                Output::Collect { cap: max_collect }
            }
            None => Output::Count,
        },
    };
    let report = pipeline::run(&spec)?;

    let mut out = String::new();
    writeln!(
        out,
        "input: {} constraint trees, {} taxa",
        problem.constraints().len(),
        problem.num_taxa()
    )
    .unwrap();
    summary(&mut out, threads, &spec, &report, false);
    if let (Some(r), Driver::Engine(pcfg)) = (&report.engine, &spec.driver) {
        if let Some(path) = metrics_path {
            let mut f = std::fs::File::create(path).map_err(|e| at(path, e))?;
            write_run_metrics(&mut f, r, &pcfg.flush).map_err(|e| at(path, e))?;
            writeln!(
                out,
                "wrote run metrics (schema v{METRICS_VERSION}) to {path}"
            )
            .unwrap();
        }
        if let Some(path) = trace_path {
            let mut f = std::fs::File::create(path).map_err(|e| at(path, e))?;
            write_chrome_trace(&mut f, r).map_err(|e| at(path, e))?;
            let spans: usize = r.workers.iter().map(|w| w.spans.len()).sum();
            writeln!(out, "wrote chrome trace ({spans} task spans) to {path}").unwrap();
        }
    }

    let mut trees = report.trees;
    if let Some(path) = container {
        container_line(&mut out, report.container, path);
        // A checkpointed run the clock stopped has no merged container yet
        // (only segments and the sidecar), so there is nothing to read back.
        if a.has("print-trees") && report.container.is_some() {
            // Read back from the container instead of teeing into RAM
            // during the run, sorted like the collected trees.
            let mut c = Container::open(Path::new(path)).map_err(|e| at(path, e))?;
            c.for_each_newick(0, u64::MAX, |_, nwk| {
                trees.push(nwk.to_string());
                Ok(())
            })
            .map_err(|e| at(path, e))?;
            trees.sort();
        }
    }
    if let Some(path) = newick_file {
        // One line at a time through a BufWriter: `join` would build a
        // second full copy of the stand in memory first.
        let file = std::fs::File::create(path).map_err(|e| at(path, e))?;
        let mut w = std::io::BufWriter::new(file);
        for t in &trees {
            writeln!(w, "{t}").map_err(|e| at(path, e))?;
        }
        w.flush().map_err(|e| at(path, e))?;
        let total = report.stats.stand_trees;
        match trees.len() {
            n if (n as u64) < total => writeln!(out, "wrote {n} of {total} trees to {path}"),
            n => writeln!(out, "wrote {n} trees to {path}"),
        }
        .unwrap();
    }
    if a.has("print-trees") {
        for t in &trees {
            writeln!(out, "{t}").unwrap();
        }
    }
    Ok(out)
}

/// Converts between `.stand` containers and Newick tree files; the
/// direction is chosen by sniffing the input file's leading magic.
fn cmd_stand_export(a: &ParsedArgs) -> Result<String, CliError> {
    let (Some(input), Some(output)) = (a.get("input"), a.get("output")) else {
        return err(
            "stand export requires --input FILE (a .stand container or a Newick \
             tree file) and --output FILE",
        );
    };
    let mut head = [0u8; 8];
    {
        use std::io::Read as _;
        let mut f = std::fs::File::open(input).map_err(|e| at(input, e))?;
        // A short read leaves `head` without the magic, which routes tiny
        // files down the Newick path — correct, since no valid container
        // is under 8 bytes.
        let _ = f.read(&mut head);
    }
    if &head == gentrius_standfile::container::MAGIC {
        let mut c = Container::open(Path::new(input)).map_err(|e| at(input, e))?;
        let file = std::fs::File::create(output).map_err(|e| at(output, e))?;
        let mut w = std::io::BufWriter::new(file);
        c.for_each_newick(0, u64::MAX, |_, nwk| {
            writeln!(w, "{nwk}").map_err(StandfileError::from)
        })
        .map_err(|e| at(output, e))?;
        w.flush().map_err(|e| at(output, e))?;
        Ok(format!(
            "exported {} trees from {input} to {output} (Newick)\n",
            c.len()
        ))
    } else {
        use gentrius_core::StandSink as _;
        use std::io::BufRead as _;
        // One line at a time: the first tree fixes the taxon set (interned
        // in its label order) and creates the container; every later tree
        // is parsed against that set and packed before the next is read.
        let file = std::fs::File::open(input).map_err(|e| at(input, e))?;
        let mut lines = std::io::BufReader::new(file);
        let mut line = String::new();
        let mut packing: Option<(TaxonSet, ContainerSink)> = None;
        while lines.read_line(&mut line).map_err(|e| at(input, e))? > 0 {
            let nwk = line.trim();
            match &mut packing {
                _ if nwk.is_empty() => {}
                Some((taxa, sink)) => sink.stand_tree(&parse_newick(nwk, taxa).map_err(msg)?),
                None => {
                    let (taxa, trees) = parse_forest([nwk]).map_err(msg)?;
                    let mut sink = ContainerSink::create(Path::new(output), &taxa);
                    trees.iter().for_each(|t| sink.stand_tree(t));
                    packing = Some((taxa, sink));
                }
            }
            line.clear();
        }
        let sink = match packing {
            Some((_, sink)) => sink,
            None => ContainerSink::create(Path::new(output), &TaxonSet::new()),
        };
        let s = sink.finish().map_err(|e| at(output, e))?;
        Ok(format!(
            "packed {} trees from {input} into {output} ({} blocks, .stand container)\n",
            s.trees, s.blocks
        ))
    }
}

/// Pages trees out of a `.stand` container by index range without loading
/// the whole stand (one decoded block in memory at a time), writing each
/// tree to `out` as soon as it is decoded. A failed write stops the decode.
fn cmd_stand_cat(a: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let Some(path) = a.positional.get(2).map(String::as_str).or(a.get("input")) else {
        return err("stand cat requires a container path: gentrius stand cat FILE.stand [--from N] [--count M]");
    };
    let mut c = Container::open(Path::new(path)).map_err(|e| at(path, e))?;
    let from: u64 = a.get_parsed("from", 0u64)?;
    let count: u64 = a.get_parsed("count", u64::MAX)?;
    // `for_each_newick` treats an empty [from, from+count) range as a
    // silent no-op, which is right for `--count 0` but would let a --from
    // past the end masquerade as an empty container. Surface it instead.
    let len = c.len();
    if from > 0 && from >= len {
        return err(format!(
            "{path}: --from {from} is out of range (container holds {len} trees)"
        ));
    }
    // A failed write is the output's error, not the container's.
    let mut write_failed = false;
    c.for_each_newick(from, from.saturating_add(count), |_, nwk| {
        out.write_all(nwk.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .map_err(|e| {
                write_failed = true;
                StandfileError::Io(e)
            })
    })
    .map_err(|e| match e {
        StandfileError::Io(e) if write_failed => at("stdout", e),
        e => at(path, e),
    })
}

fn cmd_induced(a: &ParsedArgs) -> Result<String, CliError> {
    let (Some(sp), Some(pp)) = (a.get("species"), a.get("pam")) else {
        return err("induced requires --species FILE and --pam FILE");
    };
    let sp_text = std::fs::read_to_string(sp).map_err(|e| at(sp, e))?;
    let pam_text = std::fs::read_to_string(pp).map_err(|e| at(pp, e))?;
    let (mut taxa, _) = parse_forest(sp_text.lines().take(1)).map_err(msg)?;
    let pam = Pam::parse_text(&pam_text, &mut taxa)?;
    let line = sp_text.lines().next().unwrap_or_default();
    let species = phylo::newick::parse_newick(line, &taxa).map_err(msg)?;
    let mut out = String::new();
    for sub in pam.induced_subtrees(&species) {
        writeln!(out, "{}", to_newick(&sub, &taxa)).unwrap();
    }
    Ok(out)
}

fn cmd_gen(a: &ParsedArgs) -> Result<String, CliError> {
    if let Some(name) = a.get("scenario") {
        if name == "list" {
            let mut out = String::from("available scenarios:\n");
            for s in gentrius_datagen::scenario::REGISTRY {
                writeln!(out, "  {:<20} {}", s.key, s.role).unwrap();
            }
            return Ok(out);
        }
        let dataset = gentrius_datagen::scenario::scenario_by_key(name)
            .ok_or_else(|| CliError(format!("unknown scenario '{name}' (try --scenario list)")))?;
        let text = dataset.to_text();
        return if let Some(path) = a.get("output") {
            std::fs::write(path, &text).map_err(|e| at(path, e))?;
            Ok(format!(
                "wrote scenario {} ({} taxa, {} loci) to {path}\n",
                dataset.name,
                dataset.num_taxa(),
                dataset.num_loci()
            ))
        } else {
            Ok(text)
        };
    }
    let kind = a.get("kind").unwrap_or("sim");
    let seed: u64 = a.get_parsed("seed", 42u64)?;
    let index: u64 = a.get_parsed("index", 0u64)?;
    let scale = a.get("scale").unwrap_or("scaled");
    let dataset = match (kind, scale) {
        ("sim", "paper") => simulated_dataset(&SimulatedParams::paper(), seed, index),
        ("sim", _) => simulated_dataset(&SimulatedParams::scaled(), seed, index),
        ("emp", "paper") => empirical_dataset(&EmpiricalParams::paper(), seed, index),
        ("emp", _) => empirical_dataset(&EmpiricalParams::scaled(), seed, index),
        _ => return err(format!("unknown --kind '{kind}' (sim|emp)")),
    };
    let text = dataset.to_text();
    if let Some(path) = a.get("output") {
        std::fs::write(path, &text).map_err(|e| at(path, e))?;
        Ok(format!(
            "wrote {} ({} taxa, {} loci, {:.1}% missing) to {path}\n",
            dataset.name,
            dataset.num_taxa(),
            dataset.num_loci(),
            100.0 * dataset.missing_fraction()
        ))
    } else {
        Ok(text)
    }
}

fn cmd_sim(a: &ParsedArgs) -> Result<String, CliError> {
    let (_taxa, problem) = load_problem(a)?;
    let config = config_from(a)?;
    let threads = a
        .get_list("threads")?
        .unwrap_or_else(|| vec![1, 2, 4, 8, 12, 16]);
    let bad = |v: &str| CliError(format!("--max-ticks: bad number '{v}'"));
    let max_ticks = a
        .get("max-ticks")
        .map(|v| v.parse::<u64>().map_err(|_| bad(v)));
    let max_ticks = max_ticks.transpose()?;

    let mut out = String::new();
    writeln!(
        out,
        "virtual-time simulation ({} constraints, {} taxa)",
        problem.constraints().len(),
        problem.num_taxa()
    )
    .unwrap();
    writeln!(
        out,
        "{:>7} {:>12} {:>10} {:>10} {:>8} {:>9} {:>7}",
        "threads", "ticks", "trees", "states", "stolen", "speedup", "asp"
    )
    .unwrap();
    let mut serial = None;
    for &t in &threads {
        let mut sc = SimConfig::with_threads(t as usize);
        sc.stealing = !a.has("no-steal");
        sc.max_ticks = max_ticks;
        sc.trace = a.has("trace");
        let r = simulate(&problem, &config, &sc).map_err(msg)?;
        let (sp, asp) = match &serial {
            None => (1.0, 1.0),
            Some(s) => (r.speedup_vs(s), r.adapted_speedup_vs(s)),
        };
        writeln!(
            out,
            "{:>7} {:>12} {:>10} {:>10} {:>8} {:>9.2} {:>7.2}",
            t,
            r.makespan,
            r.stats.stand_trees,
            r.stats.intermediate_states,
            r.tasks_stolen,
            sp,
            asp
        )
        .unwrap();
        if let Some(tl) = &r.timeline {
            out.push_str(&tl.render(r.makespan, 64));
        }
        if serial.is_none() {
            serial = Some(r);
        }
    }
    Ok(out)
}

fn cmd_consensus(a: &ParsedArgs) -> Result<String, CliError> {
    let (taxa, problem) = load_problem(a)?;
    let config = config_from(a)?;
    let min_support: f64 = a.get_parsed("min-support", 0.5f64)?;
    let mut sink = gentrius_core::SplitSupportSink::new();
    let r = gentrius_core::run_serial(&problem, &config, &mut sink).map_err(msg)?;
    let summary = sink.finish();
    let mut out = String::new();
    writeln!(out, "stand trees analysed: {}", summary.num_trees()).unwrap();
    writeln!(out, "status: {}", stop_str(r.stop)).unwrap();
    if summary.num_trees() == 0 {
        writeln!(out, "empty stand: no consensus").unwrap();
        return Ok(out);
    }
    if let Some(strict) = summary.strict_consensus() {
        writeln!(out, "strict consensus:   {}", to_newick(&strict, &taxa)).unwrap();
    }
    if let Some(maj) = summary.majority_consensus() {
        writeln!(out, "majority consensus: {}", to_newick(&maj, &taxa)).unwrap();
    }
    writeln!(out, "splits with support >= {min_support:.2}:").unwrap();
    for (split, support) in summary.frequencies().supports() {
        if support < min_support {
            break;
        }
        let names: Vec<&str> = split
            .side()
            .iter()
            .map(|t| taxa.name(phylo::TaxonId(t as u32)))
            .collect();
        writeln!(out, "  {:>6.1}%  {{{}}}", 100.0 * support, names.join(",")).unwrap();
    }
    Ok(out)
}

/// The §IV verification protocol as a command: serial, threaded and
/// simulated engines must produce identical counters (and, for small
/// inputs, the stand must equal the brute-force ground truth).
fn cmd_verify(a: &ParsedArgs) -> Result<String, CliError> {
    let (taxa, problem) = load_problem(a)?;
    let config = config_from(a)?;
    // `--threads N` is honored as given (the engine supports a single
    // worker); it used to be silently bumped to 2.
    let threads = a.get_parsed("threads", 2usize)?.max(1);
    let mut out = String::new();
    writeln!(out, "mapping: {}", config.mapping).unwrap();

    let collect = |driver| {
        pipeline::run(&RunSpec {
            taxa: &taxa,
            problem: &problem,
            config: config.clone(),
            driver,
            output: Output::Collect { cap: 2_000_000 },
        })
    };
    let serial = collect(Driver::Serial)?;
    writeln!(
        out,
        "serial:    trees={} states={} dead_ends={} ({})",
        serial.stats.stand_trees,
        serial.stats.intermediate_states,
        serial.stats.dead_ends,
        stop_str(serial.stop)
    )
    .unwrap();

    let par = collect(Driver::Engine(ParallelConfig::with_threads(threads)))?;
    writeln!(
        out,
        "parallel:  trees={} states={} dead_ends={} ({threads} threads)",
        par.stats.stand_trees, par.stats.intermediate_states, par.stats.dead_ends
    )
    .unwrap();

    let sim = simulate(&problem, &config, &SimConfig::with_threads(16)).map_err(msg)?;
    writeln!(
        out,
        "simulated: trees={} states={} dead_ends={} (16 virtual threads)",
        sim.stats.stand_trees, sim.stats.intermediate_states, sim.stats.dead_ends
    )
    .unwrap();

    if serial.stop.is_some() {
        writeln!(
            out,
            "verdict: SKIPPED — a stopping rule fired; counters are only              comparable for complete enumerations (raise the limits)"
        )
        .unwrap();
        return Ok(out);
    }

    let counters_ok = serial.stats == par.stats && serial.stats == sim.stats;
    let stands_ok = serial.trees == par.trees;
    writeln!(out, "counters identical: {counters_ok}").unwrap();
    writeln!(
        out,
        "stand sets identical (serial vs parallel): {stands_ok}"
    )
    .unwrap();

    let mut oracle_ok = true;
    if problem.num_taxa() <= gentrius_core::oracle::MAX_BRUTE_FORCE_TAXA {
        let brute = gentrius_core::oracle::brute_force_stand(&problem, &taxa);
        oracle_ok = brute == serial.trees;
        writeln!(out, "brute-force ground truth identical: {oracle_ok}").unwrap();
    } else {
        writeln!(
            out,
            "brute-force check skipped ({} taxa > {} limit)",
            problem.num_taxa(),
            gentrius_core::oracle::MAX_BRUTE_FORCE_TAXA
        )
        .unwrap();
    }
    writeln!(
        out,
        "verdict: {}",
        if counters_ok && stands_ok && oracle_ok {
            "PASS"
        } else {
            "FAIL"
        }
    )
    .unwrap();
    Ok(out)
}

/// The SUPERB baseline: count the terrace without enumerating (requires a
/// comprehensive taxon — the §I prior-art limitation Gentrius removes).
fn cmd_superb(a: &ParsedArgs) -> Result<String, CliError> {
    let (taxa, problem) = load_problem(a)?;
    let mut out = String::new();
    match gentrius_superb::comprehensive_taxon(&problem) {
        Some(r) => writeln!(out, "comprehensive taxon: {}", taxa.name(r)).unwrap(),
        None => {
            writeln!(
                out,
                "no comprehensive taxon: SUPERB cannot root this input                  (use 'gentrius stand' — Gentrius has no such requirement)"
            )
            .unwrap();
            return Ok(out);
        }
    }
    match gentrius_superb::superb_count(&problem) {
        Ok(n) => writeln!(out, "terrace size (SUPERB): {n}").unwrap(),
        Err(e) => writeln!(out, "SUPERB failed: {e}").unwrap(),
    }
    Ok(out)
}

/// Scores trees against a partitioned supermatrix: per-partition Fitch
/// parsimony (default) or JC69 log-likelihood (`--likelihood`). Trees on
/// one stand print identical rows — the terrace, on the command line.
fn cmd_score(a: &ParsedArgs) -> Result<String, CliError> {
    let (Some(mp), Some(pp), Some(tp)) = (a.get("matrix"), a.get("partitions"), a.get("trees"))
    else {
        return err("score requires --matrix FILE --partitions FILE --trees FILE");
    };
    let matrix_text = std::fs::read_to_string(mp).map_err(|e| at(mp, e))?;
    let parts_text = std::fs::read_to_string(pp).map_err(|e| at(pp, e))?;
    let trees_text = std::fs::read_to_string(tp).map_err(|e| at(tp, e))?;
    let mut taxa = TaxonSet::new();
    let matrix = gentrius_msa::Supermatrix::parse_phylip(&matrix_text, &parts_text, &mut taxa)?;
    let mut out = String::new();
    writeln!(
        out,
        "supermatrix: {} taxa x {} sites, {} partitions",
        matrix.universe(),
        matrix.sites(),
        matrix.partitions().len()
    )
    .unwrap();
    let branch_len: f64 = a.get_parsed("branch-len", 0.1f64)?;
    let use_lik = a.has("likelihood");
    writeln!(
        out,
        "{:<8} {:>40} {:>14}",
        "tree",
        if use_lik {
            "per-partition log-likelihood"
        } else {
            "per-partition parsimony"
        },
        "total"
    )
    .unwrap();
    for (i, line) in trees_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let tree = phylo::newick::parse_newick(line, &taxa)
            .map_err(|e| CliError(format!("tree {}: {e}", i + 1)))?;
        if use_lik {
            let ll = gentrius_msa::log_likelihood(
                &tree,
                &matrix,
                branch_len,
                gentrius_msa::MissingMode::Restrict,
            );
            let total: f64 = ll.iter().sum();
            let cells: Vec<String> = ll.iter().map(|x| format!("{x:.2}")).collect();
            writeln!(out, "#{:<7} {:>40} {:>14.2}", i + 1, cells.join(" "), total).unwrap();
        } else {
            let s = gentrius_msa::score(&tree, &matrix, gentrius_msa::MissingMode::Restrict);
            let cells: Vec<String> = s.per_partition.iter().map(|x| x.to_string()).collect();
            writeln!(
                out,
                "#{:<7} {:>40} {:>14}",
                i + 1,
                cells.join(" "),
                s.total()
            )
            .unwrap();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    /// Files in `dir` named `{output}.` plus anything with `seg` in it:
    /// every segment file the output's runs can leave behind.
    fn segment_files(dir: &std::path::Path, output: &str) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| {
                n.strip_prefix(output)
                    .is_some_and(|rest| rest.starts_with('.') && rest.contains("seg"))
            })
            .collect()
    }

    fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_strs(&["help"]).unwrap().contains("USAGE"));
        assert!(run_strs(&[]).unwrap().contains("USAGE"));
        assert!(run_strs(&["bogus"]).is_err());
    }

    #[test]
    fn unknown_flags_exit_with_the_flag_and_the_subcommand() {
        let p = write_tmp("flags.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let t = p.to_str().unwrap();
        let cases: &[(&[&str], &str, &str)] = &[
            (&["stand", "--trees", t, "--thread", "4"], "thread", "stand"),
            (
                &["stand", "--trees", t, "--emit-batch", "4"],
                "emit-batch",
                "stand",
            ),
            (
                &["stand", "--trees", t, "--incremental"],
                "incremental",
                "stand",
            ),
            (
                &["stand", "resume", "x.standckpt", "--thread", "2"],
                "thread",
                "stand resume",
            ),
            (
                &["stand", "export", "--input", t, "--ouput", "x"],
                "ouput",
                "stand export",
            ),
            (
                &["stand", "cat", "x.stand", "--form", "3"],
                "form",
                "stand cat",
            ),
            (&["induced", "--species", t, "--pams", t], "pams", "induced"),
            (&["gen", "--kind", "sim", "--sed", "3"], "sed", "gen"),
            (&["sim", "--trees", t, "--max-tick", "9"], "max-tick", "sim"),
            (
                &["consensus", "--trees", t, "--min-suport", "0.5"],
                "min-suport",
                "consensus",
            ),
            (
                &["verify", "--trees", t, "--thread", "2"],
                "thread",
                "verify",
            ),
            (
                &["superb", "--trees", t, "--threads", "2"],
                "threads",
                "superb",
            ),
            (
                &["score", "--matrix", t, "--likelyhood"],
                "likelyhood",
                "score",
            ),
        ];
        for &(args, flag, command) in cases {
            let e = run_strs(args).expect_err("a misspelled flag must fail");
            assert!(
                e.0.starts_with(&format!("unknown flag --{flag} for '{command}'")),
                "{args:?}: {e}"
            );
        }
    }

    #[test]
    fn every_usage_flag_is_accepted_by_its_subcommand() {
        // Usage entries start with "  gentrius NAME"; their continuation
        // lines are indented further.
        let mut entries: Vec<(String, Vec<String>)> = Vec::new();
        for line in USAGE
            .lines()
            .skip_while(|l| !l.starts_with("USAGE:"))
            .skip(1)
        {
            if let Some(rest) = line.strip_prefix("  gentrius ") {
                let mut words = rest.split_whitespace();
                let mut name = words.next().unwrap().to_string();
                if name == "stand" {
                    if let Some(sub @ ("resume" | "export" | "cat")) =
                        rest.split_whitespace().nth(1)
                    {
                        name = format!("stand {sub}");
                    }
                }
                entries.push((name, Vec::new()));
            } else if !line.starts_with("    ") {
                break;
            }
            let flags = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let entry = entries.last_mut().unwrap();
            entry.1.extend(
                flags
                    .filter_map(|w| w.strip_prefix("--"))
                    .map(str::to_string),
            );
        }
        assert_eq!(entries.len(), 12, "{entries:?}");
        for (command, flags) in &entries {
            let accepted = accepted_flags(command);
            for flag in flags {
                assert!(
                    accepted
                        .iter()
                        .any(|group| group.split_whitespace().any(|f| f == flag)),
                    "'{command}' rejects --{flag}, which its usage lists"
                );
            }
        }
        assert!(entries.iter().any(|(c, f)| c == "stand" && f.len() > 15));
    }

    #[test]
    fn stand_from_trees_file() {
        let p = write_tmp("quartets.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let out = run_strs(&["stand", "--trees", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("stand trees:"), "{out}");
        assert!(out.contains("complete enumeration"), "{out}");
    }

    #[test]
    fn stand_parallel_matches_serial() {
        let p = write_tmp("par.nwk", "((A,B),(C,D));\n((A,E),(F,G));\n");
        let s1 = run_strs(&["stand", "--trees", p.to_str().unwrap()]).unwrap();
        let s2 = run_strs(&["stand", "--trees", p.to_str().unwrap(), "--threads", "2"]).unwrap();
        let grab = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("stand trees:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(grab(&s1), grab(&s2));
    }

    #[test]
    fn mapping_flag_selects_engine_and_rejects_junk() {
        let p = write_tmp("mapping.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let path = p.to_str().unwrap();
        let default = run_strs(&["stand", "--trees", path]).unwrap();
        assert!(default.contains("mapping: edge-indexed"), "{default}");
        let grab = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("stand trees:"))
                .unwrap()
                .to_string()
        };
        for mode in ["recompute", "edge-indexed"] {
            let out = run_strs(&["stand", "--trees", path, "--mapping", mode]).unwrap();
            assert!(out.contains(&format!("mapping: {mode}")), "{out}");
            assert_eq!(grab(&out), grab(&default), "mode {mode}");
        }
        // The incremental engine is gone, and so is its legacy flag.
        for removed in [&["--mapping", "incremental"][..], &["--incremental"]] {
            let args = [&["stand", "--trees", path][..], removed].concat();
            let e = run_strs(&args).unwrap_err();
            assert!(e.to_string().contains("incremental"), "{e}");
        }
        assert!(run_strs(&["stand", "--trees", path, "--mapping", "hash"]).is_err());
    }

    #[test]
    fn stand_with_species_and_pam() {
        let sp = write_tmp("species.nwk", "((A,B),((C,D),(E,F)));\n");
        let pam = write_tmp("matrix.pam", "A 11\nB 11\nC 11\nD 11\nE 01\nF 01\n");
        let out = run_strs(&[
            "stand",
            "--species",
            sp.to_str().unwrap(),
            "--pam",
            pam.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("stand trees:"), "{out}");
    }

    #[test]
    fn induced_prints_per_locus_trees() {
        let sp = write_tmp("species2.nwk", "((A,B),((C,D),(E,F)));\n");
        let pam = write_tmp("matrix2.pam", "A 11\nB 11\nC 11\nD 10\nE 01\nF 11\n");
        let out = run_strs(&[
            "induced",
            "--species",
            sp.to_str().unwrap(),
            "--pam",
            pam.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 2);
        assert!(out.lines().all(|l| l.ends_with(';')));
    }

    #[test]
    fn gen_roundtrips_through_stand() {
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = dir.join("gen1.dataset");
        let msg = run_strs(&[
            "gen",
            "--kind",
            "sim",
            "--seed",
            "5",
            "--index",
            "1",
            "--output",
            ds.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("wrote sim-data-1"), "{msg}");
        let out = run_strs(&[
            "stand",
            "--dataset",
            ds.to_str().unwrap(),
            "--max-states",
            "200000",
            "--max-trees",
            "100000",
        ])
        .unwrap();
        assert!(out.contains("stand trees:"), "{out}");
    }

    #[test]
    fn sim_prints_speedup_table() {
        let p = write_tmp(
            "simtab.nwk",
            "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n",
        );
        let out = run_strs(&["sim", "--trees", p.to_str().unwrap(), "--threads", "1,2,4"]).unwrap();
        assert!(out.contains("speedup"), "{out}");
        assert_eq!(
            out.lines()
                .filter(|l| l.trim().starts_with(char::is_numeric))
                .count(),
            3
        );
    }

    #[test]
    fn consensus_subcommand_reports_supports() {
        let p = write_tmp("cons.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let out = run_strs(&[
            "consensus",
            "--trees",
            p.to_str().unwrap(),
            "--min-support",
            "0.3",
        ])
        .unwrap();
        assert!(out.contains("strict consensus:"), "{out}");
        assert!(out.contains("majority consensus:"), "{out}");
        assert!(out.contains('%'), "{out}");
    }

    #[test]
    fn verify_subcommand_passes_on_small_instance() {
        let p = write_tmp("verify.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let out = run_strs(&["verify", "--trees", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("counters identical: true"), "{out}");
        assert!(
            out.contains("brute-force ground truth identical: true"),
            "{out}"
        );
        assert!(out.contains("verdict: PASS"), "{out}");
    }

    #[test]
    fn score_subcommand_parsimony_and_likelihood() {
        let m = write_tmp("sc.phy", "4 6\nA AACCAA\nB AACCAC\nC CCAAGA\nD CCAAGC\n");
        let parts = write_tmp("sc.part", "DNA, g1 = 1-3\nDNA, g2 = 4-6\n");
        let trees = write_tmp("sc.nwk", "((A,B),(C,D));\n((A,C),(B,D));\n");
        let out = run_strs(&[
            "score",
            "--matrix",
            m.to_str().unwrap(),
            "--partitions",
            parts.to_str().unwrap(),
            "--trees",
            trees.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("per-partition parsimony"), "{out}");
        assert_eq!(out.lines().filter(|l| l.starts_with('#')).count(), 2);
        let ll = run_strs(&[
            "score",
            "--matrix",
            m.to_str().unwrap(),
            "--partitions",
            parts.to_str().unwrap(),
            "--trees",
            trees.to_str().unwrap(),
            "--likelihood",
        ])
        .unwrap();
        assert!(ll.contains("log-likelihood"), "{ll}");
    }

    #[test]
    fn gen_scenario_registry() {
        let out = run_strs(&["gen", "--scenario", "list"]).unwrap();
        assert!(out.contains("plateau-5"), "{out}");
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = dir.join("trap.dataset");
        let msg = run_strs(&[
            "gen",
            "--scenario",
            "trap",
            "--output",
            ds.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("wrote scenario"), "{msg}");
        assert!(run_strs(&["gen", "--scenario", "bogus"]).is_err());
    }

    #[test]
    fn sim_trace_prints_schedule() {
        let p = write_tmp("trace.nwk", "((A,B),(C,D));\n((A,E),(F,G));\n");
        let out = run_strs(&[
            "sim",
            "--trees",
            p.to_str().unwrap(),
            "--threads",
            "1,4",
            "--trace",
        ])
        .unwrap();
        assert!(out.contains("w00 ["), "{out}");
        assert!(out.contains('%'), "{out}");
    }

    #[test]
    fn nexus_tree_files_are_autodetected() {
        let p = write_tmp(
            "in.nex",
            "#NEXUS\nBEGIN TREES;\nTREE a = ((A,B),(C,D));\nTREE b = ((C,D),(E,F));\nEND;\n",
        );
        let out = run_strs(&["stand", "--trees", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("2 constraint trees, 6 taxa"), "{out}");
        assert!(out.contains("complete enumeration"), "{out}");
    }

    #[test]
    fn superb_subcommand_counts_and_reports_boundary() {
        let p = write_tmp("superb1.nwk", "((R,A),(B,C));\n((R,B),(C,D));\n");
        let out = run_strs(&["superb", "--trees", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("comprehensive taxon: R"), "{out}");
        assert!(out.contains("terrace size (SUPERB):"), "{out}");
        let q = write_tmp("superb2.nwk", "((A,B),(C,D));\n((E,F),(G,H));\n");
        let out2 = run_strs(&["superb", "--trees", q.to_str().unwrap()]).unwrap();
        assert!(out2.contains("no comprehensive taxon"), "{out2}");
    }

    #[test]
    fn stand_metrics_json_export_is_valid_and_versioned() {
        let p = write_tmp("metrics.nwk", "((A,B),(C,D));\n((A,E),(F,G));\n");
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let mj = dir.join("run_metrics.json");
        // --threads 1 must also work: the flag routes through the
        // parallel engine with a single worker.
        let out = run_strs(&[
            "stand",
            "--trees",
            p.to_str().unwrap(),
            "--threads",
            "1",
            "--metrics-json",
            mj.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote run metrics (schema v2)"), "{out}");
        let text = std::fs::read_to_string(&mj).unwrap();
        gentrius_parallel::obs::json::validate(&text).unwrap();
        assert!(
            text.starts_with("{\"schema\":\"gentrius-run-metrics\",\"version\":2,"),
            "{text}"
        );
        assert!(text.contains("\"threads\":1"), "{text}");
        assert!(text.contains("\"monitor\":{\"ticks\":"), "{text}");
    }

    #[test]
    fn stand_tuning_flags_parse_and_preserve_the_stand_set() {
        let p = write_tmp(
            "tuning.nwk",
            "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n",
        );
        let base = run_strs(&["stand", "--trees", p.to_str().unwrap(), "--print-trees"]).unwrap();
        let tuned = run_strs(&[
            "stand",
            "--trees",
            p.to_str().unwrap(),
            "--threads",
            "2",
            "--print-trees",
            "--no-adaptive-split",
            "--stop-poll-stride",
            "8",
            "--coarse-flush",
        ])
        .unwrap();
        // The tuning knobs change scheduling, never results:
        // the printed stand set (every line ending in ';') must match the
        // serial default exactly.
        let trees = |s: &str| {
            s.lines()
                .filter(|l| l.ends_with(';'))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(trees(&base), trees(&tuned));
        assert!(tuned.contains("scheduler: "), "{tuned}");
    }

    #[test]
    fn stand_trace_json_spans_match_tasks_executed() {
        let p = write_tmp(
            "tracejson.nwk",
            "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n",
        );
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let mj = dir.join("trace_metrics.json");
        let tj = dir.join("trace_events.json");
        let out = run_strs(&[
            "stand",
            "--trees",
            p.to_str().unwrap(),
            "--threads",
            "3",
            "--metrics-json",
            mj.to_str().unwrap(),
            "--trace-json",
            tj.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote chrome trace ("), "{out}");
        let trace = std::fs::read_to_string(&tj).unwrap();
        gentrius_parallel::obs::json::validate(&trace).unwrap();
        assert!(trace.contains("\"traceEvents\":["), "{trace}");
        // One named track per worker…
        assert_eq!(trace.matches("\"thread_name\"").count(), 3);
        // …and exactly one "X" (complete) event per executed task, as
        // counted by the metrics export of the same run.
        let metrics = std::fs::read_to_string(&mj).unwrap();
        let tasks: u64 = metrics
            .match_indices("\"tasks_executed\":")
            .map(|(i, pat)| {
                metrics[i + pat.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert!(tasks >= 1);
        assert_eq!(trace.matches("\"ph\":\"X\"").count() as u64, tasks);
    }

    #[test]
    fn verify_honors_a_single_thread() {
        let p = write_tmp("verify1.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let out = run_strs(&["verify", "--trees", p.to_str().unwrap(), "--threads", "1"]).unwrap();
        assert!(out.contains("(1 threads)"), "{out}");
        assert!(out.contains("verdict: PASS"), "{out}");
    }

    #[test]
    fn stand_reports_truncation_when_collect_cap_hit() {
        let p = write_tmp("trunc.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let path = p.to_str().unwrap();
        // Uncapped baseline: how many trees the stand actually holds.
        let full = run_strs(&["stand", "--trees", path, "--print-trees"]).unwrap();
        let total = full.lines().filter(|l| l.ends_with(';')).count();
        assert!(
            total > 2,
            "need a stand with more than 2 trees, got {total}"
        );
        assert!(!full.contains("truncated:"), "{full}");

        let out = run_strs(&[
            "stand",
            "--trees",
            path,
            "--print-trees",
            "--max-collect",
            "2",
        ])
        .unwrap();
        assert!(
            out.contains(&format!(
                "truncated: true (collected 2 of {total} stand trees)"
            )),
            "{out}"
        );
        assert!(
            out.contains("warning: in-memory collection capped"),
            "{out}"
        );
        assert_eq!(out.lines().filter(|l| l.ends_with(';')).count(), 2, "{out}");

        // File output is honest about the shortfall too.
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let o = dir.join("trunc.out.nwk");
        let out = run_strs(&[
            "stand",
            "--trees",
            path,
            "--output",
            o.to_str().unwrap(),
            "--max-collect",
            "2",
        ])
        .unwrap();
        assert!(
            out.contains(&format!("wrote 2 of {total} trees to")),
            "{out}"
        );
        let written = std::fs::read_to_string(&o).unwrap();
        assert_eq!(written.lines().count(), 2);
    }

    #[test]
    fn stand_container_output_roundtrips_through_cat() {
        let p = write_tmp("cont.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let path = p.to_str().unwrap();
        let expected: Vec<String> = run_strs(&["stand", "--trees", path, "--print-trees"])
            .unwrap()
            .lines()
            .filter(|l| l.ends_with(';'))
            .map(str::to_string)
            .collect();

        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let cont = dir.join("cont.stand");
        let cpath = cont.to_str().unwrap();
        let out = run_strs(&["stand", "--trees", path, "--output", cpath]).unwrap();
        assert!(out.contains(".stand container"), "{out}");
        assert!(
            out.contains(&format!("wrote {} trees to {cpath}", expected.len())),
            "{out}"
        );
        // No in-memory cap applies on the streaming path.
        assert!(!out.contains("truncated:"), "{out}");

        // `stand cat` reproduces the exact canonical Newick set.
        let cat = run_strs(&["stand", "cat", cpath]).unwrap();
        let mut got: Vec<String> = cat.lines().map(str::to_string).collect();
        got.sort();
        assert_eq!(got, expected);

        // Paging: --from/--count slice the container's native order.
        let page = run_strs(&["stand", "cat", cpath, "--from", "1", "--count", "2"]).unwrap();
        assert_eq!(page.lines().count(), 2);
        assert_eq!(page.lines().next(), cat.lines().nth(1));

        // --print-trees with a container output reads back from the file.
        let printed =
            run_strs(&["stand", "--trees", path, "--output", cpath, "--print-trees"]).unwrap();
        let shown: Vec<String> = printed
            .lines()
            .filter(|l| l.ends_with(';'))
            .map(str::to_string)
            .collect();
        assert_eq!(shown, expected);
    }

    #[test]
    fn stand_container_parallel_merges_segments() {
        let p = write_tmp("contpar.nwk", "((A,B),(C,D));\n((A,E),(F,G));\n");
        let path = p.to_str().unwrap();
        let expected: Vec<String> = run_strs(&["stand", "--trees", path, "--print-trees"])
            .unwrap()
            .lines()
            .filter(|l| l.ends_with(';'))
            .map(str::to_string)
            .collect();

        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let cont = dir.join("contpar.stand");
        let cpath = cont.to_str().unwrap();
        let out = run_strs(&[
            "stand",
            "--trees",
            path,
            "--threads",
            "3",
            "--output",
            cpath,
        ])
        .unwrap();
        assert!(out.contains(".stand container"), "{out}");
        // Per-context segments are merged into the final file and deleted.
        let leftovers = segment_files(&dir, "contpar.stand");
        assert!(leftovers.is_empty(), "segments left behind: {leftovers:?}");
        let cat = run_strs(&["stand", "cat", cpath]).unwrap();
        let mut got: Vec<String> = cat.lines().map(str::to_string).collect();
        got.sort();
        assert_eq!(got, expected, "parallel container must hold the same stand");
    }

    #[test]
    fn stand_export_converts_both_directions() {
        let p = write_tmp("exp.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let path = p.to_str().unwrap();
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let cont = dir.join("exp.stand");
        let back = dir.join("exp.back.nwk");
        let cpath = cont.to_str().unwrap();

        // Enumerate into a container, export to Newick, re-pack to a
        // container, and export again: the tree list must be stable.
        run_strs(&["stand", "--trees", path, "--output", cpath]).unwrap();
        let msg = run_strs(&[
            "stand",
            "export",
            "--input",
            cpath,
            "--output",
            back.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("exported"), "{msg}");
        let first = std::fs::read_to_string(&back).unwrap();
        assert!(first.lines().count() > 0);
        assert!(first.lines().all(|l| l.ends_with(';')));

        let cont2 = dir.join("exp2.stand");
        let msg = run_strs(&[
            "stand",
            "export",
            "--input",
            back.to_str().unwrap(),
            "--output",
            cont2.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("packed"), "{msg}");
        let cat = run_strs(&["stand", "cat", cont2.to_str().unwrap()]).unwrap();
        // Canonical Newick depends on taxon interning order, which differs
        // between the two files; compare tree-by-tree under one universe.
        let (taxa, t1) = parse_forest(first.lines()).unwrap();
        let canon1: Vec<String> = t1.iter().map(|t| to_newick(t, &taxa)).collect();
        let canon2: Vec<String> = cat
            .lines()
            .map(|l| to_newick(&phylo::newick::parse_newick(l, &taxa).unwrap(), &taxa))
            .collect();
        assert_eq!(
            canon2, canon1,
            "Newick -> container -> Newick preserves every tree in order"
        );
    }

    #[test]
    fn stand_cat_rejects_non_containers() {
        let p = write_tmp("notacont.nwk", "((A,B),(C,D));\n");
        assert!(run_strs(&["stand", "cat", p.to_str().unwrap()]).is_err());
        assert!(run_strs(&["stand", "cat"]).is_err());
    }

    #[test]
    fn stand_cat_from_past_end_is_a_typed_error() {
        let p = write_tmp("catrange.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let cont = dir.join("catrange.stand");
        let cpath = cont.to_str().unwrap();
        run_strs(&["stand", "--trees", p.to_str().unwrap(), "--output", cpath]).unwrap();
        let all = run_strs(&["stand", "cat", cpath]).unwrap();
        let len = all.lines().count();
        assert!(len > 0);

        // --from one past the last tree (and far past it) is an error
        // naming the range, not a silent empty page.
        for from in [len, len + 100] {
            let err = run_strs(&["stand", "cat", cpath, "--from", &from.to_string()])
                .expect_err("out-of-range --from must fail");
            assert!(err.0.contains("out of range"), "{err}");
            assert!(err.0.contains(&format!("holds {len} trees")), "{err}");
        }
        // --count 0 and a --from at the boundary *via count* stay quiet
        // successes: the requested page is genuinely empty.
        assert_eq!(
            run_strs(&["stand", "cat", cpath, "--count", "0"]).unwrap(),
            ""
        );
        let last = run_strs(&["stand", "cat", cpath, "--from", &(len - 1).to_string()]).unwrap();
        assert_eq!(last.lines().count(), 1);
    }

    #[test]
    fn stand_container_precleans_stale_segments_and_checkpoint() {
        let p = write_tmp("stale.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let cont = dir.join("stale.stand");
        let cpath = cont.to_str().unwrap();
        // Debris a crashed higher-thread-count run could leave behind:
        // plain segments, generation-namespaced segments, a checkpoint.
        let seg7 = dir.join("stale.stand.seg7");
        let gseg = dir.join("stale.stand.g3.seg1");
        let ckpt = dir.join("stale.standckpt");
        std::fs::write(&seg7, b"junk").unwrap();
        std::fs::write(&gseg, b"junk").unwrap();
        std::fs::write(&ckpt, b"junk").unwrap();

        let out = run_strs(&["stand", "--trees", p.to_str().unwrap(), "--output", cpath]).unwrap();
        assert!(!seg7.exists(), "stale .seg7 survived the run");
        assert!(!gseg.exists(), "stale .g3.seg1 survived the run");
        assert!(!ckpt.exists(), "stale checkpoint survived a fresh run");
        assert!(out.contains("removed 2 stale segment file(s)"), "{out}");
        assert!(out.contains("removed stale checkpoint"), "{out}");
        // The run itself still completes and writes the container.
        assert!(out.contains(".stand container"), "{out}");
    }

    #[test]
    fn failed_merge_leaves_no_segment_files() {
        let p = write_tmp("segleak.nwk", "((A,B),(C,D));\n((A,E),(F,G));\n");
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        // A directory squatting on the output path makes the final
        // merge_segments fail after every segment was written.
        let cont = dir.join("segleak.stand");
        let _ = std::fs::remove_file(&cont);
        let _ = std::fs::remove_dir_all(&cont);
        std::fs::create_dir_all(&cont).unwrap();
        let cpath = cont.to_str().unwrap();
        let err = run_strs(&[
            "stand",
            "--trees",
            p.to_str().unwrap(),
            "--threads",
            "3",
            "--output",
            cpath,
        ])
        .expect_err("merging over a directory must fail");
        assert!(err.0.contains("segleak.stand"), "{err}");
        let leaked = segment_files(&dir, "segleak.stand");
        assert!(
            leaked.is_empty(),
            "segments leaked after a failed merge: {leaked:?}"
        );
        std::fs::remove_dir_all(&cont).unwrap();
    }

    #[test]
    fn checkpoint_every_validates_its_context() {
        let p = write_tmp("ckflags.nwk", "((A,B),(C,D));\n");
        let path = p.to_str().unwrap();
        // Requires a container output.
        let err = run_strs(&["stand", "--trees", path, "--checkpoint-every", "1"]).unwrap_err();
        assert!(err.0.contains("--output FILE.stand"), "{err}");
        // Requires a positive interval.
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let cont = dir.join("ckflags.stand");
        for bad in ["0", "-1", "bogus"] {
            assert!(
                run_strs(&[
                    "stand",
                    "--trees",
                    path,
                    "--output",
                    cont.to_str().unwrap(),
                    "--checkpoint-every",
                    bad,
                ])
                .is_err(),
                "--checkpoint-every {bad} must be rejected"
            );
        }
    }

    #[test]
    fn checkpointed_run_matches_clean_run_and_retires_sidecars() {
        let p = write_tmp(
            "ckdiff.nwk",
            "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n",
        );
        let path = p.to_str().unwrap();
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let clean = dir.join("ckdiff-clean.stand");
        let ck = dir.join("ckdiff-ck.stand");
        run_strs(&[
            "stand",
            "--trees",
            path,
            "--output",
            clean.to_str().unwrap(),
        ])
        .unwrap();
        // A 1 ms cadence forces many pause/checkpoint/re-inject cycles on
        // this ~5000-tree instance.
        let out = run_strs(&[
            "stand",
            "--trees",
            path,
            "--threads",
            "2",
            "--output",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "0.001",
        ])
        .unwrap();
        assert!(out.contains("complete enumeration"), "{out}");
        // All sidecars retired on completion.
        assert!(!dir.join("ckdiff-ck.standckpt").exists());
        let leftovers = segment_files(&dir, "ckdiff-ck.stand");
        assert!(leftovers.is_empty(), "segment files leaked: {leftovers:?}");

        let sort_lines = |s: String| {
            let mut v: Vec<String> = s.lines().map(str::to_string).collect();
            v.sort();
            v
        };
        let want = sort_lines(run_strs(&["stand", "cat", clean.to_str().unwrap()]).unwrap());
        let got = sort_lines(run_strs(&["stand", "cat", ck.to_str().unwrap()]).unwrap());
        assert!(!want.is_empty());
        assert_eq!(got, want, "checkpointed container diverged from clean run");
    }

    #[test]
    fn time_limited_run_writes_checkpoint_and_resume_completes() {
        let p = write_tmp(
            "cktime.nwk",
            "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n((B,I),(E,J));\n",
        );
        let path = p.to_str().unwrap();
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let cont = dir.join("cktime.stand");
        let cpath = cont.to_str().unwrap();
        let ckpt = dir.join("cktime.standckpt");
        // Self-clean: a previous suite run legitimately leaves the
        // completed container behind.
        let _ = std::fs::remove_file(&cont);
        let _ = std::fs::remove_file(&ckpt);
        // A clean run first: its container is the reference at the end,
        // and its wall time sets the budget. An eighth of this host's own
        // run time fires the time limit mid-run under any build profile
        // on any host (every counter flush checks the clock, and this
        // tree-rich instance flushes about two dozen times per run), so
        // the frontier lands in the checkpoint instead of being lost;
        // each resume slice then gets the same eighth, so the resume loop
        // ends after a handful of slices.
        let clean = dir.join("cktime-clean.stand");
        let started = std::time::Instant::now();
        run_strs(&[
            "stand",
            "--trees",
            path,
            "--threads",
            "2",
            "--output",
            clean.to_str().unwrap(),
        ])
        .unwrap();
        let budget_hours = started.elapsed().as_secs_f64() / 8.0 / 3600.0;
        let out = run_strs(&[
            "stand",
            "--trees",
            path,
            "--threads",
            "2",
            "--output",
            cpath,
            "--checkpoint-every",
            "10",
            "--max-hours",
            &budget_hours.to_string(),
        ])
        .unwrap();
        assert!(out.contains("stopped: time limit"), "{out}");
        assert!(out.contains("stand resume"), "{out}");
        assert!(ckpt.exists(), "time-limited run left no checkpoint");
        assert!(!cont.exists(), "container must not exist before the merge");

        // Each resume re-enters with the stored budget; loop until the
        // checkpoint is retired (bounded — a handful of budget slices plus
        // monitor-tick slack). The retirement of the sidecar, not the
        // status text, is the completion signal: a slice can hit the time
        // limit at the exact moment the frontier drains empty, in which
        // case the run is complete but still reports the limit.
        let mut slices = 0;
        while ckpt.exists() {
            slices += 1;
            assert!(slices <= 200, "resume never completed the enumeration");
            let out = run_strs(&[
                "stand",
                "resume",
                ckpt.to_str().unwrap(),
                "--threads",
                "2",
                "--checkpoint-every",
                "10",
            ])
            .unwrap();
            assert!(out.contains("resuming"), "{out}");
        }
        assert!(slices >= 1, "first resume slice never ran");
        assert!(!ckpt.exists(), "checkpoint must be retired on completion");
        assert!(cont.exists());

        // The stitched-together container equals the clean run's.
        let sort_lines = |s: String| {
            let mut v: Vec<String> = s.lines().map(str::to_string).collect();
            v.sort();
            v
        };
        let want = sort_lines(run_strs(&["stand", "cat", clean.to_str().unwrap()]).unwrap());
        let got = sort_lines(run_strs(&["stand", "cat", cpath]).unwrap());
        assert_eq!(got.len(), want.len(), "tree counts diverged");
        assert_eq!(got, want, "resumed container diverged from clean run");
    }

    #[test]
    fn stand_resume_rejects_missing_and_non_checkpoint_input() {
        assert!(run_strs(&["stand", "resume"]).is_err());
        assert!(run_strs(&["stand", "resume", "/no/such/file.standckpt"]).is_err());
        // A .stand container is not a checkpoint: magic mismatch, typed.
        let p = write_tmp("notack.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let dir = std::env::temp_dir().join("gentrius-cli-tests");
        let cont = dir.join("notack.stand");
        run_strs(&[
            "stand",
            "--trees",
            p.to_str().unwrap(),
            "--output",
            cont.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_strs(&["stand", "resume", cont.to_str().unwrap()]).unwrap_err();
        assert!(!err.0.is_empty());
    }

    #[test]
    fn print_trees_outputs_sorted_unique_stand() {
        let p = write_tmp("pt.nwk", "((A,B),(C,D));\n((C,D),(E,F));\n");
        let out = run_strs(&["stand", "--trees", p.to_str().unwrap(), "--print-trees"]).unwrap();
        let trees: Vec<&str> = out.lines().filter(|l| l.ends_with(';')).collect();
        assert!(!trees.is_empty());
        let mut sorted = trees.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(trees.len(), sorted.len());
    }
}
