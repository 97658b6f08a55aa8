//! Pins the full text of `gentrius stand` and `gentrius stand resume` for
//! every run shape the command has: serial and engine, counting,
//! collecting, writing Newick or a `.stand` container, checkpointed,
//! time-limited and resumed, and exporting run metrics.
//!
//! Only what the schedule decides is masked:
//! - the `time:` values;
//! - the `scheduler:` counts;
//! - the epoch counts (`checkpoint epochs: N`, a resume's `epoch N`);
//! - the pending-task counts;
//! - the block count of an engine-written container, which depends on
//!   how the trees spread over the worker segments;
//! - the counters of a run the wall-clock limit cut short, and the
//!   `stand trees so far` a resume of it starts from.
//!
//! Every other byte, paths included (as `$DIR`), must stay as it is.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// 17 stand trees: small enough to print.
const SMALL: &str = "((A,B),(C,D));\n((C,D),(E,F));\n";
/// 24,385 stand trees: long enough that a 1 ms cadence always pauses.
const BIG: &str = "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n((B,I),(E,J));\n";

const SMALL_TREES: &str = "\
(A,((B,(C,D)),E),F);
(A,((B,(C,D)),F),E);
(A,((B,E),(C,D)),F);
(A,((B,E),F),(C,D));
(A,((B,F),(C,D)),E);
(A,((B,F),E),(C,D));
(A,(B,((C,D),E)),F);
(A,(B,((C,D),F)),E);
(A,(B,(C,D)),(E,F));
(A,(B,(E,F)),(C,D));
(A,(B,E),((C,D),F));
(A,(B,F),((C,D),E));
(A,B,(((C,D),E),F));
(A,B,(((C,D),F),E));
(A,B,((C,(E,F)),D));
(A,B,((C,D),(E,F)));
(A,B,(C,(D,(E,F))));
";

const SMALL_HEAD: &str = "\
input: 2 constraint trees, 6 taxa
threads: 1
mapping: edge-indexed
stand trees: 17
intermediate states: 5
dead ends: 0
";

const SMALL_HEAD_2T: &str = "\
input: 2 constraint trees, 6 taxa
threads: 2
mapping: edge-indexed
stand trees: 17
intermediate states: 5
dead ends: 0
scheduler: <masked>
";

fn dir() -> PathBuf {
    let d = std::env::temp_dir().join("gentrius-output-pin");
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run(args: &[&str], dir: &Path) -> String {
    let owned: Vec<String> = args
        .iter()
        .map(|a| a.replace("$DIR", dir.to_str().unwrap()))
        .collect();
    gentrius_cli::run(&owned).unwrap_or_else(|e| panic!("gentrius {owned:?} failed: {e}"))
}

/// Replaces the number right after `prefix` with `<n>`.
fn mask_after(line: &str, prefix: &str) -> String {
    let Some(i) = line.find(prefix) else {
        return line.to_string();
    };
    let start = i + prefix.len();
    let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 {
        return line.to_string();
    }
    format!("{}<n>{}", &line[..start], &line[start + digits..])
}

/// Replaces the number right before `suffix` with `<n>`.
fn mask_before(line: &str, suffix: &str) -> String {
    let Some(end) = line.find(suffix) else {
        return line.to_string();
    };
    let digits = line[..end]
        .bytes()
        .rev()
        .take_while(u8::is_ascii_digit)
        .count();
    if digits == 0 {
        return line.to_string();
    }
    format!("{}<n>{}", &line[..end - digits], &line[end..])
}

/// The masked text of one run; `engine_blocks` masks the block count of
/// a written container. A run stopped by the wall-clock limit also gets
/// its counters masked.
fn mask(out: &str, dir: &Path, engine_blocks: bool) -> String {
    let out = out.replace(dir.to_str().unwrap(), "$DIR");
    let cut_short = out.contains("status: stopped: time limit");
    let mut masked = String::new();
    for line in out.lines() {
        let mut line = if line.starts_with("time: ") {
            "time: <masked>".to_string()
        } else if line.starts_with("scheduler: ") {
            "scheduler: <masked>".to_string()
        } else {
            line.to_string()
        };
        line = mask_after(&line, "checkpoint epochs: ");
        line = mask_after(&line, ", epoch ");
        line = mask_before(&line, " pending tasks");
        line = mask_before(&line, " stand trees so far");
        if engine_blocks {
            line = mask_before(&line, " blocks, .stand container");
        }
        if cut_short {
            for key in ["stand trees: ", "intermediate states: ", "dead ends: "] {
                if line.starts_with(key) {
                    line = mask_after(&line, key);
                }
            }
        }
        masked.push_str(&line);
        masked.push('\n');
    }
    masked
}

#[test]
fn stand_output_is_pinned_for_every_run_shape() {
    let dir = dir();
    std::fs::write(dir.join("small.nwk"), SMALL).unwrap();
    std::fs::write(dir.join("big.nwk"), BIG).unwrap();
    let serial_tail = "status: complete enumeration\ntime: <masked>\n";
    let cases: Vec<(&[&str], bool, String)> = vec![
        (
            &["stand", "--trees", "$DIR/small.nwk"],
            false,
            format!("{SMALL_HEAD}{serial_tail}"),
        ),
        (
            &["stand", "--trees", "$DIR/small.nwk", "--print-trees"],
            false,
            format!("{SMALL_HEAD}{serial_tail}{SMALL_TREES}"),
        ),
        (
            &[
                "stand",
                "--trees",
                "$DIR/small.nwk",
                "--output",
                "$DIR/x.nwk",
                "--max-collect",
                "2",
            ],
            false,
            format!(
                "{SMALL_HEAD}truncated: true (collected 2 of 17 stand trees)\n\
                 warning: in-memory collection capped at --max-collect 2; raise it or \
                 stream to a container with --output FILE.stand\n\
                 {serial_tail}wrote 2 of 17 trees to $DIR/x.nwk\n"
            ),
        ),
        (
            &[
                "stand",
                "--trees",
                "$DIR/small.nwk",
                "--output",
                "$DIR/serial.stand",
                "--print-trees",
            ],
            false,
            format!(
                "{SMALL_HEAD}{serial_tail}\
                 wrote 17 trees to $DIR/serial.stand (1 blocks, .stand container)\n\
                 {SMALL_TREES}"
            ),
        ),
        (
            &["stand", "--trees", "$DIR/small.nwk", "--threads", "2"],
            false,
            format!("{SMALL_HEAD_2T}{serial_tail}"),
        ),
        (
            &[
                "stand",
                "--trees",
                "$DIR/small.nwk",
                "--threads",
                "2",
                "--print-trees",
            ],
            false,
            format!("{SMALL_HEAD_2T}{serial_tail}{SMALL_TREES}"),
        ),
        (
            &[
                "stand",
                "--trees",
                "$DIR/small.nwk",
                "--threads",
                "2",
                "--output",
                "$DIR/par.stand",
            ],
            true,
            format!(
                "{SMALL_HEAD_2T}{serial_tail}\
                 wrote 17 trees to $DIR/par.stand (<n> blocks, .stand container)\n"
            ),
        ),
        (
            &[
                "stand",
                "--trees",
                "$DIR/big.nwk",
                "--threads",
                "2",
                "--output",
                "$DIR/ck.stand",
                "--checkpoint-every",
                "0.001",
            ],
            true,
            "input: 4 constraint trees, 10 taxa\n\
             threads: 2\n\
             mapping: edge-indexed\n\
             stand trees: 24385\n\
             intermediate states: 6561\n\
             dead ends: 0\n\
             scheduler: <masked>\n\
             status: complete enumeration\n\
             time: <masked>\n\
             checkpoint epochs: <n>\n\
             wrote 24385 trees to $DIR/ck.stand (<n> blocks, .stand container)\n"
                .to_string(),
        ),
        (
            &[
                "stand",
                "--trees",
                "$DIR/small.nwk",
                "--threads",
                "1",
                "--metrics-json",
                "$DIR/m.json",
            ],
            false,
            "input: 2 constraint trees, 6 taxa\n\
             threads: 1\n\
             mapping: edge-indexed\n\
             stand trees: 17\n\
             intermediate states: 5\n\
             dead ends: 0\n\
             scheduler: <masked>\n\
             status: complete enumeration\n\
             time: <masked>\n\
             wrote run metrics (schema v2) to $DIR/m.json\n"
                .to_string(),
        ),
    ];
    for (args, engine_blocks, want) in cases {
        let got = mask(&run(args, &dir), &dir, engine_blocks);
        assert_eq!(got, want, "gentrius {args:?}");
    }
    assert!(!dir.join("ck.standckpt").exists());
}

#[test]
fn time_limited_checkpointed_run_and_its_resumes_are_pinned() {
    let dir = std::env::temp_dir().join("gentrius-output-pin-resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("big.nwk"), BIG).unwrap();
    // An eighth of a clean run on this host: the limit fires mid-run
    // under any build profile, and each resume slice gets the same
    // budget, so a handful of slices finish the stand.
    let started = Instant::now();
    run(
        &[
            "stand",
            "--trees",
            "$DIR/big.nwk",
            "--threads",
            "2",
            "--output",
            "$DIR/clean.stand",
        ],
        &dir,
    );
    let budget = (started.elapsed().as_secs_f64() / 8.0 / 3600.0).to_string();
    let first = run(
        &[
            "stand",
            "--trees",
            "$DIR/big.nwk",
            "--threads",
            "2",
            "--output",
            "$DIR/tl.stand",
            "--checkpoint-every",
            "10",
            "--max-hours",
            &budget,
        ],
        &dir,
    );
    let stopped = "\
threads: 2
mapping: edge-indexed
stand trees: <n>
intermediate states: <n>
dead ends: <n>
";
    let checkpoint = "\
status: stopped: time limit (rule 3)
time: <masked>
checkpoint epochs: <n>
checkpoint: $DIR/tl.standckpt (<n> pending tasks; continue with 'gentrius stand resume $DIR/tl.standckpt')
";
    assert_eq!(
        mask(&first, &dir, true),
        format!("input: 4 constraint trees, 10 taxa\n{stopped}scheduler: <masked>\n{checkpoint}")
    );

    let resuming = "\
resuming $DIR/tl.standckpt -> $DIR/tl.stand (<n> pending tasks, <n> stand trees so far, epoch <n>)
";
    let wrote = "wrote 24385 trees to $DIR/tl.stand (<n> blocks, .stand container)\n";
    let sidecar = dir.join("tl.standckpt");
    let mut slices = 0;
    while sidecar.exists() {
        slices += 1;
        assert!(slices <= 200, "resume never completed the enumeration");
        let out = mask(
            &run(&["stand", "resume", "$DIR/tl.standckpt"], &dir),
            &dir,
            true,
        );
        let want = if sidecar.exists() {
            format!("{resuming}{stopped}{checkpoint}")
        } else if out.contains("status: stopped: time limit") {
            // The limit fired just as the frontier drained: the stand is
            // complete and merged, but the cause is still reported.
            format!(
                "{resuming}{stopped}status: stopped: time limit (rule 3)\ntime: <masked>\n{wrote}"
            )
        } else {
            format!(
                "{resuming}threads: 2\nmapping: edge-indexed\nstand trees: 24385\n\
                 intermediate states: 6561\ndead ends: 0\n\
                 status: complete enumeration\ntime: <masked>\n{wrote}"
            )
        };
        assert_eq!(out, want, "resume slice {slices}");
    }
}
