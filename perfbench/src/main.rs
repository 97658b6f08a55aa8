//! Helper binary of the end-to-end stand-pipeline benchmark (`run.py`).
//!
//! ```text
//! perfbench gen      --workload W --seed S --out FILE [--scale tiny] [--repeat K]
//!                                                       write the workload's dataset
//! perfbench digest   FILE.stand                         stand-set digest of a container
//! perfbench trace    --workload W --dir DIR [--dataset FILE | --container FILE]
//!                    [--max-trees N] [--checkpoint-every S] [--serial]
//!                                                       layer-attributed traced run
//! perfbench validate FILE                               check a JSON document
//! ```
//!
//! Every subcommand prints one JSON object on stdout. `run.py` drives the
//! real `gentrius` binary for the untraced end-to-end numbers; this binary
//! only does what needs the library: dataset generation, the stand-set
//! digest the checks compare, and the traced run, which times calls into
//! each module's public functions from outside the program.

mod trace;
mod workload;

use gentrius_parallel::obs::json::{validate, JsonWriter};
use gentrius_standfile::Container;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(doc) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` lookup over the raw argument list.
pub(crate) fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

pub(crate) fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

pub(crate) fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse '{v}'")))
        .transpose()
}

fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(|s| s.as_str()) {
        Some("gen") => cmd_gen(args),
        Some("trace") => trace::cmd_trace(args),
        Some("digest") => cmd_digest(args),
        Some("validate") => {
            let path = args.get(1).ok_or("validate FILE")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            validate(text.trim_end()).map_err(|e| format!("{path}: {e}"))?;
            Ok("{\"valid\": true}".to_string())
        }
        _ => Err("usage: perfbench gen|digest|trace|validate ...".to_string()),
    }
}

fn cmd_gen(args: &[String]) -> Result<String, String> {
    let w = workload::Workload::parse(required(args, "--workload")?)?;
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(0);
    let tiny = flag(args, "--scale") == Some("tiny");
    let repeat: usize = parsed(args, "--repeat")?.unwrap_or(1).max(1);
    let out = PathBuf::from(required(args, "--out")?);
    // Set-up is timed in-process, `repeat` times over: a process start
    // costs more than generating and writing a dataset, and varies more.
    let mut gen_s = Vec::with_capacity(repeat);
    let mut setup_s = Vec::with_capacity(repeat);
    let mut dataset = None;
    for _ in 0..repeat {
        // Every repetition writes a new file, as the first set-up does:
        // truncating the previous one would time the file system's block
        // release instead.
        if let Err(e) = std::fs::remove_file(&out) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(format!("{}: {e}", out.display()));
            }
        }
        let t0 = Instant::now();
        let d = workload::dataset(w, seed, tiny)?;
        gen_s.push(t0.elapsed().as_secs_f64());
        d.save(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        dataset = Some(d);
    }
    let dataset = dataset.ok_or("no dataset generated")?;
    let mut j = JsonWriter::new();
    j.begin_object()
        .key("dataset")
        .string(&dataset.name)
        .key("taxa")
        .u64(dataset.num_taxa() as u64)
        .key("loci")
        .u64(dataset.num_loci() as u64);
    for (key, xs) in [("gen_s", &gen_s), ("setup_s", &setup_s)] {
        j.key(key).begin_array();
        for &x in xs {
            j.f64(x);
        }
        j.end_array();
    }
    if !w.blowup_family() {
        // What a complete enumeration of this input must count: pinned for
        // the full-size instance, from the oracle for the tiny one.
        let totals = if tiny {
            let s = workload::oracle_totals(&dataset.to_text())?;
            [s.stand_trees, s.intermediate_states, s.dead_ends]
        } else {
            workload::DEADEND_TOTALS
        };
        j.key("totals").begin_array();
        for v in totals {
            j.u64(v);
        }
        j.end_array();
    }
    j.end_object();
    Ok(j.finish())
}

/// Order-free digest of a container's stand set: the tree codes sorted,
/// hashed with FNV-1a 64, plus how many are distinct. Codes are canonical
/// per topology, so two containers over the same taxon header that hold the
/// same stand agree on all three figures.
fn cmd_digest(args: &[String]) -> Result<String, String> {
    let path = args.get(1).ok_or("digest FILE.stand")?;
    let mut c = Container::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let mut codes = (0..c.len())
        .map(|i| c.code(i))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{path}: {e}"))?;
    codes.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for code in &codes {
        for v in code.iter().chain(std::iter::once(&u32::MAX)) {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    codes.dedup();
    let mut j = JsonWriter::new();
    j.begin_object()
        .key("trees")
        .u64(c.len())
        .key("distinct")
        .u64(codes.len() as u64)
        .key("digest")
        .string(&format!("{h:016x}"))
        .end_object();
    Ok(j.finish())
}
