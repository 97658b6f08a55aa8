//! True end-to-end tests: drive the compiled `gentrius` binary through a
//! realistic session — generate a dataset, enumerate its stand serially
//! and in parallel, extract induced trees, run the consensus and the
//! engine verification — checking observable behaviour only (stdout, exit
//! codes, files).

use std::path::PathBuf;
use std::process::Command;

fn gentrius() -> Command {
    // Cargo builds and exposes the package's binaries to its integration
    // tests via CARGO_BIN_EXE_<name>.
    Command::new(env!("CARGO_BIN_EXE_gentrius"))
}

fn run_ok(args: &[&str]) -> String {
    let out = gentrius().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "gentrius {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gentrius-e2e");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn full_session() {
    // 1. Generate a dataset.
    let ds = tmp("session.dataset");
    let msg = run_ok(&[
        "gen",
        "--kind",
        "sim",
        "--seed",
        "11",
        "--index",
        "2",
        "--output",
        ds.to_str().unwrap(),
    ]);
    assert!(msg.contains("wrote sim-data-2"), "{msg}");

    // 2. Serial stand enumeration with bounded rules.
    let serial = run_ok(&[
        "stand",
        "--dataset",
        ds.to_str().unwrap(),
        "--max-trees",
        "200000",
        "--max-states",
        "500000",
    ]);
    let grab = |out: &str, key: &str| -> String {
        out.lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("missing '{key}' in {out}"))
            .to_string()
    };
    let serial_trees = grab(&serial, "stand trees:");

    // 3. Parallel run must report the same count.
    let par = run_ok(&[
        "stand",
        "--dataset",
        ds.to_str().unwrap(),
        "--threads",
        "2",
        "--max-trees",
        "200000",
        "--max-states",
        "500000",
    ]);
    assert_eq!(serial_trees, grab(&par, "stand trees:"));

    // 4. Write the stand to a file and re-load it as constraints — the
    //    stand of a single complete tree is itself.
    let trees_out = tmp("stand.nwk");
    let _ = run_ok(&[
        "stand",
        "--dataset",
        ds.to_str().unwrap(),
        "--max-trees",
        "200000",
        "--max-states",
        "500000",
        "--output",
        trees_out.to_str().unwrap(),
    ]);
    let content = std::fs::read_to_string(&trees_out).expect("stand file");
    assert!(content.lines().filter(|l| l.ends_with(';')).count() >= 1);

    // 5. Engine verification on a small instance.
    let small = tmp("small.nwk");
    std::fs::write(&small, "((A,B),(C,D));\n((C,D),(E,F));\n").unwrap();
    let verify = run_ok(&["verify", "--trees", small.to_str().unwrap()]);
    assert!(verify.contains("verdict: PASS"), "{verify}");

    // 6. Consensus on the same instance.
    let cons = run_ok(&["consensus", "--trees", small.to_str().unwrap()]);
    assert!(cons.contains("majority consensus:"), "{cons}");

    // 7. Virtual-time speedup table.
    let sim = run_ok(&[
        "sim",
        "--trees",
        small.to_str().unwrap(),
        "--threads",
        "1,2,4",
    ]);
    assert!(sim.lines().count() >= 5, "{sim}");
}

#[test]
fn error_paths_exit_nonzero() {
    let out = gentrius()
        .args(["stand", "--trees", "/nonexistent/file.nwk"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");

    let out = gentrius().args(["frobnicate"]).output().expect("runs");
    assert!(!out.status.success());
}

/// A `.stand` footer claiming 2^40 blocks used to abort `stand cat` on a
/// 26 TB allocation: it must exit 1 and name the defect.
#[test]
fn stand_cat_rejects_a_hostile_footer() {
    use gentrius_standfile::container::END_MAGIC;
    use gentrius_standfile::ContainerWriter;

    let path = tmp("hostile-footer.stand");
    let taxa = phylo::taxa::TaxonSet::with_synthetic(5);
    ContainerWriter::create(&path, &taxa)
        .unwrap()
        .finish()
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mut trailer = [0u8; 8];
    trailer.copy_from_slice(&bytes[bytes.len() - 16..bytes.len() - 8]);
    let footer_start = u64::from_le_bytes(trailer);
    bytes.truncate(footer_start as usize);
    // Block count 2^40 in LEB128, total 0, then the trailer.
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0x00]);
    bytes.extend_from_slice(&footer_start.to_le_bytes());
    bytes.extend_from_slice(END_MAGIC);
    std::fs::write(&path, &bytes).unwrap();

    let out = gentrius()
        .args(["stand", "cat", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("footer claims 1099511627776 blocks but has room for at most 8"),
        "{stderr}"
    );
}

/// `tests/fixtures/blowup-3000.stand` was written by the serial path
/// (`stand --dataset fixtures/blowup-3000.dataset --max-trees 3000
/// --output ...`; three blocks). It pins the codec and the container
/// bytes: rewriting it, once by running the enumeration again and once by
/// decoding every tree and encoding it afresh, must give the same bytes
/// and the same `stand cat` output.
#[test]
fn stand_fixture_rewrites_byte_for_byte() {
    use gentrius_core::StandSink;
    use gentrius_standfile::{Container, ContainerSink};

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dataset = dir.join("blowup-3000.dataset");
    let fixture = dir.join("blowup-3000.stand");
    let want = std::fs::read(&fixture).expect("fixture present");
    let same_bytes = |path: &PathBuf| {
        let got = std::fs::read(path).expect("rewritten container");
        let first_diff = got.iter().zip(&want).position(|(a, b)| a != b);
        assert!(
            got == want,
            "{} differs from the fixture: {} vs {} bytes, first difference at {first_diff:?}",
            path.display(),
            got.len(),
            want.len()
        );
    };

    let rerun = tmp("fixture-rerun.stand");
    let out = run_ok(&[
        "stand",
        "--dataset",
        dataset.to_str().unwrap(),
        "--max-trees",
        "3000",
        "--output",
        rerun.to_str().unwrap(),
    ]);
    assert!(out.contains("wrote 3000 trees"), "{out}");
    same_bytes(&rerun);

    let recoded = tmp("fixture-recoded.stand");
    let mut src = Container::open(&fixture).expect("fixture opens");
    assert_eq!((src.len(), src.block_count()), (3000, 3));
    let taxa = src.taxa().clone();
    let mut sink = ContainerSink::create(&recoded, &taxa);
    for i in 0..src.len() {
        sink.stand_tree(&src.tree(i).expect("fixture tree decodes"));
    }
    sink.finish().expect("recoded container finishes");
    same_bytes(&recoded);

    let cat = |p: &PathBuf| run_ok(&["stand", "cat", p.to_str().unwrap()]);
    let expected = cat(&fixture);
    assert_eq!(expected.lines().count(), 3000);
    assert_eq!(cat(&rerun), expected);
    assert_eq!(cat(&recoded), expected);
}

/// `stand cat FILE.stand | head -1` must exit 0: head closes the pipe
/// after one line and the resulting EPIPE is an everyday shell idiom,
/// not an error. The container is large enough (>64 KiB of newick) that
/// the write genuinely hits a closed pipe.
#[cfg(unix)]
#[test]
fn stand_cat_piped_into_head_exits_zero() {
    let trees = tmp("epipe.nwk");
    std::fs::write(&trees, "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n").unwrap();
    let cont = tmp("epipe.stand");
    run_ok(&[
        "stand",
        "--trees",
        trees.to_str().unwrap(),
        "--output",
        cont.to_str().unwrap(),
    ]);
    assert!(
        std::fs::metadata(&cont).unwrap().len() > 0,
        "container written"
    );
    // pipefail makes head's partner's exit code the pipeline's verdict.
    let out = Command::new("bash")
        .arg("-c")
        .arg(format!(
            "set -o pipefail; {} stand cat {} | head -1",
            env!("CARGO_BIN_EXE_gentrius"),
            cont.to_str().unwrap()
        ))
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "pipeline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.trim_end().ends_with(';'), "{stdout}");
}

/// Kill/resume across a real process boundary: SIGKILL a checkpointed
/// run mid-flight, then `stand resume` until the checkpoint retires and
/// compare the stitched container against an uninterrupted run's.
#[cfg(unix)]
#[test]
fn sigkill_mid_run_then_resume_matches_clean_run() {
    let trees = tmp("kill.nwk");
    // ~0.8 s (debug) with container output: long enough to kill at
    // ~0.3 s, short enough that resuming completes quickly.
    std::fs::write(
        &trees,
        "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n((B,I),(E,J));\n",
    )
    .unwrap();
    let clean = tmp("kill-clean.stand");
    run_ok(&[
        "stand",
        "--trees",
        trees.to_str().unwrap(),
        "--threads",
        "2",
        "--output",
        clean.to_str().unwrap(),
    ]);

    let cont = tmp("kill.stand");
    let ckpt = tmp("kill.standckpt");
    let _ = std::fs::remove_file(&cont);
    let _ = std::fs::remove_file(&ckpt);
    let mut child = gentrius()
        .args([
            "stand",
            "--trees",
            trees.to_str().unwrap(),
            "--threads",
            "2",
            "--output",
            cont.to_str().unwrap(),
            "--checkpoint-every",
            "0.05",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn checkpointed run");
    std::thread::sleep(std::time::Duration::from_millis(300));
    // Child::kill is SIGKILL on unix — no drop guards, no atexit, the
    // hard-crash case the checkpoint format exists for.
    let finished_early = child.try_wait().expect("try_wait").is_some();
    child.kill().ok();
    child.wait().expect("reap child");

    if !finished_early {
        assert!(
            ckpt.exists(),
            "a killed checkpointed run must leave its checkpoint behind"
        );
        let mut slices = 0;
        while ckpt.exists() {
            slices += 1;
            assert!(slices <= 100, "resume never completed the enumeration");
            let out = run_ok(&["stand", "resume", ckpt.to_str().unwrap(), "--threads", "2"]);
            assert!(out.contains("resuming"), "{out}");
        }
    }
    // Either way the finished container must equal the clean run's stand
    // set (resume path when the kill landed mid-run, direct completion in
    // the unlikely early-finish race).
    let sort_lines = |s: String| {
        let mut v: Vec<&str> = s.lines().collect();
        v.sort_unstable();
        v.join("\n")
    };
    let want = sort_lines(run_ok(&["stand", "cat", clean.to_str().unwrap()]));
    let got = sort_lines(run_ok(&["stand", "cat", cont.to_str().unwrap()]));
    assert!(!want.is_empty());
    assert_eq!(got, want, "resumed container diverged from the clean run");
    // No sidecar debris after completion.
    let dir = cont.parent().unwrap();
    let debris: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("kill.stand.") && n.contains("seg"))
        .collect();
    assert!(debris.is_empty(), "segment debris left behind: {debris:?}");
}

#[test]
fn induced_pipes_into_stand() {
    let sp = tmp("species.nwk");
    let pam = tmp("matrix.pam");
    std::fs::write(&sp, "((A,B),((C,D),(E,F)));\n").unwrap();
    std::fs::write(&pam, "A 11\nB 11\nC 11\nD 10\nE 01\nF 11\n").unwrap();
    let induced = run_ok(&[
        "induced",
        "--species",
        sp.to_str().unwrap(),
        "--pam",
        pam.to_str().unwrap(),
    ]);
    let induced_file = tmp("induced.nwk");
    std::fs::write(&induced_file, &induced).unwrap();
    let stand = run_ok(&["stand", "--trees", induced_file.to_str().unwrap()]);
    assert!(stand.contains("stand trees:"), "{stand}");
    // Species tree is on its own stand → at least 1.
    let n: u64 = stand
        .lines()
        .find(|l| l.starts_with("stand trees:"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("count parses");
    assert!(n >= 1);
}

/// A sidecar whose checksum is valid but whose task tree has two leaf
/// labels swapped holds a state the search never reaches: the task tree
/// disagrees with a constraint on their common taxa. `stand resume` must
/// refuse it with the typed conflict error instead of enumerating from it.
#[test]
fn resume_rejects_task_tree_that_conflicts_with_a_constraint() {
    use gentrius_core::state::SearchState;
    use gentrius_core::{GentriusConfig, RunStats, StandProblem};
    use gentrius_standfile::ckpt::problem_hash;
    use gentrius_standfile::{Checkpoint, CkptTask};
    use phylo::newick::parse_forest;
    use phylo::taxa::TaxonId;

    let newicks = ["((A,B),(C,D));", "((C,D),(E,F));"];
    let (taxa, trees) = parse_forest(newicks).unwrap();
    let problem = StandProblem::from_constraints(trees).unwrap();
    let config = GentriusConfig::default();
    let mut state = SearchState::new(&problem, 0, &config.taxon_order).unwrap();
    state.enable_mapping(config.mapping);
    let next = state.select_next().expect("taxa remain");
    let snapshot = state.snapshot();
    let names: Vec<String> = (0..taxa.len())
        .map(|i| taxa.name(TaxonId(i as u32)).to_string())
        .collect();
    let constraints: Vec<String> = newicks.iter().map(|s| s.to_string()).collect();
    let output = tmp("conflict.stand");
    let _ = std::fs::remove_file(&output);
    let checkpoint = Checkpoint {
        problem_hash: problem_hash(&names, &constraints),
        mapping: config.mapping,
        order_code: snapshot.order_code(),
        threads: 1,
        initial_tree: 0,
        stopping: config.stopping.clone(),
        stats: RunStats::new(),
        generation: 1,
        output: output.display().to_string(),
        taxa: names,
        constraints,
        segments: Vec::new(),
        tasks: vec![CkptTask {
            taxon: next.taxon.0,
            branches: next.branches.iter().map(|e| e.0).collect(),
            depth: 0,
            remaining: snapshot.remaining().iter().map(|t| t.0).collect(),
            tree: snapshot.agile().dump_arena(),
        }],
    };

    // Control: the faithful sidecar resumes to completion.
    let sidecar = tmp("conflict.standckpt");
    checkpoint.write_atomic(&sidecar).unwrap();
    let out = run_ok(&["stand", "resume", sidecar.to_str().unwrap()]);
    assert!(out.contains("resuming"), "{out}");
    assert!(!sidecar.exists(), "a completed resume retires its sidecar");

    // Swap the labels of leaves A and C: ((C,B),(A,D)) conflicts with
    // constraint 0 while keeping the taxa, the shape and the checksum.
    let mut swapped = checkpoint.clone();
    let nodes = &mut swapped.tasks[0].tree.nodes;
    let find = |nodes: &[phylo::tree::DumpNode], t: u32| {
        nodes
            .iter()
            .position(|n| n.alive && n.taxon == Some(t))
            .unwrap()
    };
    let (a, c) = (find(nodes, 0), find(nodes, 2));
    nodes[a].taxon = Some(2);
    nodes[c].taxon = Some(0);
    swapped.write_atomic(&sidecar).unwrap();
    let out = gentrius()
        .args(["stand", "resume", sidecar.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "a conflicting task tree must not resume"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint task 1: agile tree conflicts with constraint 0"),
        "{stderr}"
    );
}
