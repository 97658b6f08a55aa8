//! True end-to-end tests: drive the compiled `gentrius` binary through a
//! realistic session — generate a dataset, enumerate its stand serially
//! and in parallel, extract induced trees, run the consensus and the
//! engine verification — checking observable behaviour only (stdout, exit
//! codes, files).

use std::path::{Path, PathBuf};
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

/// A sink that buffers trees must not forward announcements: the trees
/// it passes on belong to frames announced before the latest one. A serial
/// run of the fixture's dataset through `BatchingSink<ContainerSink>`
/// (every tree encoded in full) must write the same bytes as one through a
/// bare `ContainerSink` (announced completions encoded from their parent
/// tree), and both the committed fixture.
#[test]
fn a_batching_sink_drops_announcements_and_writes_the_same_bytes() {
    use gentrius_core::{run_serial, BatchingSink, GentriusConfig, StoppingRules};
    use gentrius_datagen::dataset::Dataset;
    use gentrius_standfile::ContainerSink;

    let ds = Dataset::load(&fixtures().join("blowup-3000.dataset")).expect("dataset loads");
    let problem = ds.problem().expect("problem");
    let config = GentriusConfig {
        stopping: StoppingRules::counts(3000, u64::MAX),
        ..GentriusConfig::default()
    };
    let bare = tmp("announced-bare.stand");
    let mut sink = ContainerSink::create(&bare, &ds.taxa);
    run_serial(&problem, &config, &mut sink).expect("bare run");
    sink.finish().expect("bare container finishes");
    let batched = tmp("announced-batched.stand");
    let mut sink = BatchingSink::new(ContainerSink::create(&batched, &ds.taxa), 64);
    run_serial(&problem, &config, &mut sink).expect("batched run");
    sink.into_inner()
        .finish()
        .expect("batched container finishes");

    let want = std::fs::read(fixtures().join("blowup-3000.stand")).expect("fixture");
    for path in [&bare, &batched] {
        let got = std::fs::read(path).expect("container");
        assert!(got == want, "{} differs from the fixture", path.display());
    }
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

/// The committed fixtures' directory.
fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `bash -c SCRIPT`, for pipes and memory caps.
#[cfg(unix)]
fn bash(script: &str) -> std::process::Output {
    Command::new("bash")
        .arg("-c")
        .arg(script)
        .output()
        .expect("bash runs")
}

/// Pins `stand cat` on the fixture byte for byte: the whole container, a
/// page that crosses the first block boundary (trees 1020..1030), and the
/// last tree. The digests were taken from the recursive tree-building
/// writer the streaming one replaced.
#[test]
fn stand_cat_output_is_pinned_on_the_fixture() {
    let fixture = fixtures().join("blowup-3000.stand");
    let cases: [(&[&str], usize, usize, u64); 3] = [
        (&[], 3000, 639_000, 0xefcd_85ce_6a15_f6df),
        (
            &["--from", "1020", "--count", "10"],
            10,
            2130,
            0x0550_ce7e_901e_1185,
        ),
        (&["--from", "2999"], 1, 213, 0x2c04_d4b2_af59_21b5),
    ];
    for (page, lines, bytes, digest) in cases {
        let mut args = vec!["stand", "cat", fixture.to_str().unwrap()];
        args.extend_from_slice(page);
        let out = run_ok(&args);
        assert_eq!(
            (out.lines().count(), out.len(), fnv1a(out.as_bytes())),
            (lines, bytes, digest),
            "stand cat {page:?}"
        );
    }
}

/// A valid container holding one 50,000-taxon caterpillar used to abort
/// `stand cat` with a stack overflow (the tree renderer recursed once per
/// level); the writer walks an explicit stack.
#[test]
fn stand_cat_prints_a_deep_caterpillar() {
    use gentrius_standfile::ContainerWriter;

    let n = 50_000usize;
    let taxa = phylo::taxa::TaxonSet::with_synthetic(n);
    let path = tmp("caterpillar.stand");
    // Every taxon inserted on the edge above T1.
    let code: Vec<u32> = (2..n as u32)
        .map(|i| if i == 2 { 0 } else { 2 * i - 5 })
        .collect();
    let mut w = ContainerWriter::create(&path, &taxa).unwrap();
    w.push_code(&code).unwrap();
    w.finish().unwrap();

    let out = run_ok(&["stand", "cat", path.to_str().unwrap()]);
    let mut want = format!("(T0,{}T1,T{})", "(".repeat(n - 3), n - 1);
    for i in (2..n - 1).rev() {
        want.push_str(&format!(",T{i})"));
    }
    want.truncate(want.len() - 1);
    want.push_str(");\n");
    assert!(
        out == want,
        "caterpillar differs ({} vs {} bytes)",
        out.len(),
        want.len()
    );
}

/// `stand cat` streams: 200,000 trees print under a 32 MB address-space
/// cap. Building the whole output first needs about 43 MB.
#[cfg(unix)]
#[test]
fn stand_cat_streams_under_a_memory_cap() {
    let dataset = fixtures().join("blowup-3000.dataset");
    let cont = tmp("cap-200k.stand");
    let msg = run_ok(&[
        "stand",
        "--dataset",
        dataset.to_str().unwrap(),
        "--max-trees",
        "200000",
        "--output",
        cont.to_str().unwrap(),
    ]);
    assert!(msg.contains("wrote 200000 trees"), "{msg}");
    let out = bash(&format!(
        "ulimit -v 32768; exec {} stand cat {}",
        env!("CARGO_BIN_EXE_gentrius"),
        cont.display()
    ));
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout.iter().filter(|&&b| b == b'\n').count(), 200_000);
    assert!(out.stdout.ends_with(b");\n"));
}

/// A block may hold no more trees than the header's block capacity, which
/// bounds what it decodes to. This 1,000,231-byte 40-taxon container
/// declares the default capacity, 1,024, but its one block holds 500,000
/// two-byte deltas that repeat the first code: decoding it whole would
/// take 76 MB. `stand cat` must fail on the block with a typed error under
/// a 32 MB address-space cap instead of aborting on the allocation.
#[cfg(unix)]
#[test]
fn stand_cat_rejects_a_block_above_its_capacity_under_a_memory_cap() {
    use gentrius_standfile::{container::END_MAGIC, ContainerWriter};
    use phylo::taxa::TaxonSet;

    let leb = |out: &mut Vec<u8>, mut v: u64| {
        while v >= 0x80 {
            out.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    };
    let path = tmp("over-capacity.stand");
    ContainerWriter::create(&path, &TaxonSet::with_synthetic(40))
        .unwrap()
        .finish()
        .unwrap();
    let empty = std::fs::read(&path).unwrap();
    let mut at = [0u8; 8];
    at.copy_from_slice(&empty[empty.len() - 16..empty.len() - 8]);
    let header_len = u64::from_le_bytes(at);
    let mut payload = Vec::new();
    leb(&mut payload, 500_000);
    payload.extend_from_slice(&[0, 38]);
    payload.extend_from_slice(&[0; 38]);
    for _ in 1..500_000 {
        payload.extend_from_slice(&[38, 0]);
    }
    let mut bytes = empty[..header_len as usize].to_vec();
    leb(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&payload);
    let footer = bytes.len() as u64;
    for v in [1, header_len, 500_000, 500_000] {
        leb(&mut bytes, v);
    }
    bytes.extend_from_slice(&footer.to_le_bytes());
    bytes.extend_from_slice(END_MAGIC);
    assert_eq!(bytes.len(), 1_000_231);
    std::fs::write(&path, &bytes).unwrap();

    let out = bash(&format!(
        "ulimit -v 32768; exec {} stand cat {} --count 1",
        env!("CARGO_BIN_EXE_gentrius"),
        path.display()
    ));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{:?}: {stderr}", out.status);
    assert!(
        stderr.contains(&format!(
            "malformed stand container at byte {header_len}: block 0 holds 500000 trees, \
             more than the block capacity 1024"
        )),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

/// A malformed block in the middle of a container: the trees before it
/// print, then the read fails with the block's offset; piped into `head
/// -1`, the closed pipe stops the decode before the bad block is reached
/// and the run exits 0.
#[cfg(unix)]
#[test]
fn stand_cat_prints_up_to_a_bad_block_and_stops_at_a_closed_pipe() {
    let fixture = fixtures().join("blowup-3000.stand");
    let mut bytes = std::fs::read(&fixture).unwrap();
    // Block 2 starts at byte 3274: a two-byte length, a two-byte tree
    // count (1,024), then tree 0's `shared` varint, which must be 0.
    assert_eq!(bytes[3278], 0);
    bytes[3278] = 5;
    let bad = tmp("bad-block-2.stand");
    std::fs::write(&bad, &bytes).unwrap();

    let out = gentrius()
        .args(["stand", "cat", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "malformed stand container at byte 3274: tree 0 delta (shared 5 + tail 38) \
             does not rebuild a 38-entry code"
        ),
        "{stderr}"
    );
    let good = run_ok(&["stand", "cat", fixture.to_str().unwrap()]);
    let first: String = good.lines().take(1024).map(|l| format!("{l}\n")).collect();
    assert!(
        out.stdout == first.as_bytes(),
        "expected block 1's 1,024 trees, got {} lines",
        String::from_utf8_lossy(&out.stdout).lines().count()
    );

    let piped = bash(&format!(
        "set -o pipefail; {} stand cat {} | head -1",
        env!("CARGO_BIN_EXE_gentrius"),
        bad.display()
    ));
    assert!(
        piped.status.success(),
        "{:?}: {}",
        piped.status,
        String::from_utf8_lossy(&piped.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&piped.stdout),
        good.lines().next().unwrap().to_string() + "\n"
    );
}

/// `stand export` packs a Newick file one line at a time: 20,000 stand
/// trees (4.3 MB of text) pack under a 64 MB address-space cap, which
/// parsing the whole file first overruns. Repacking the packed trees'
/// Newick reproduces the container byte for byte.
#[cfg(unix)]
#[test]
fn stand_export_packs_newick_line_by_line_under_a_memory_cap() {
    let dataset = fixtures().join("blowup-3000.dataset");
    let (src, nwk, packed) = (
        tmp("export-20k.stand"),
        tmp("export-20k.nwk"),
        tmp("export-20k.packed.stand"),
    );
    run_ok(&[
        "stand",
        "--dataset",
        dataset.to_str().unwrap(),
        "--max-trees",
        "20000",
        "--output",
        src.to_str().unwrap(),
    ]);
    let text = run_ok(&["stand", "cat", src.to_str().unwrap()]);
    assert_eq!(text.lines().count(), 20_000);
    std::fs::write(&nwk, &text).unwrap();

    let out = bash(&format!(
        "ulimit -v 65536; exec {} stand export --input {} --output {}",
        env!("CARGO_BIN_EXE_gentrius"),
        nwk.display(),
        packed.display()
    ));
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("packed 20000 trees"));

    // The packed header interns taxa in the first tree's label order; the
    // canonical Newick under that order is a fixed point.
    let again = tmp("export-20k.again.nwk");
    let repacked = tmp("export-20k.repacked.stand");
    std::fs::write(&again, run_ok(&["stand", "cat", packed.to_str().unwrap()])).unwrap();
    run_ok(&[
        "stand",
        "export",
        "--input",
        again.to_str().unwrap(),
        "--output",
        repacked.to_str().unwrap(),
    ]);
    assert!(std::fs::read(&repacked).unwrap() == std::fs::read(&packed).unwrap());
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

/// A checksum-valid sidecar for the root state of `newicks`, with one
/// pending task: the taxon the search selects first and its admissible
/// branches. One insertion is made and undone first, so the task tree's
/// arena holds freed edge slots; returns the freed pendant's id too.
fn root_checkpoint(newicks: &[&str], name: &str) -> (gentrius_standfile::Checkpoint, u32) {
    use gentrius_core::state::SearchState;
    use gentrius_core::{GentriusConfig, RunStats, StandProblem};
    use gentrius_standfile::ckpt::problem_hash;
    use gentrius_standfile::{Checkpoint, CkptTask};
    use phylo::newick::parse_forest;
    use phylo::taxa::TaxonId;

    let (taxa, trees) = parse_forest(newicks.iter().copied()).unwrap();
    let problem = StandProblem::from_constraints(trees).unwrap();
    let config = GentriusConfig::default();
    let mut state = SearchState::new(&problem, 0, &config.taxon_order).unwrap();
    state.enable_mapping(config.mapping);
    let next = state.select_next().expect("taxa remain");
    let step = state.apply(next.taxon, next.branches[0]);
    state.undo(&step);
    let snapshot = state.snapshot();
    let names: Vec<String> = (0..taxa.len())
        .map(|i| taxa.name(TaxonId(i as u32)).to_string())
        .collect();
    let constraints: Vec<String> = newicks.iter().map(|s| s.to_string()).collect();
    let output = tmp(&format!("{name}.stand"));
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
    (checkpoint, step.ins.pendant.0)
}

/// Writes `checkpoint` as a sidecar, runs `stand resume` on it and
/// returns stderr, requiring the resume to fail.
fn resume_fails(checkpoint: &gentrius_standfile::Checkpoint, sidecar: &Path) -> String {
    checkpoint.write_atomic(sidecar).unwrap();
    let out = gentrius()
        .args(["stand", "resume", sidecar.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "a hostile sidecar must not resume");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A sidecar whose checksum is valid but whose task tree has two leaf
/// labels swapped holds a state the search never reaches: the task tree
/// disagrees with a constraint on their common taxa. `stand resume` must
/// refuse it with the typed conflict error instead of enumerating from it.
#[test]
fn resume_rejects_task_tree_that_conflicts_with_a_constraint() {
    let (checkpoint, _) = root_checkpoint(&["((A,B),(C,D));", "((C,D),(E,F));"], "conflict");

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
    let stderr = resume_fails(&swapped, &sidecar);
    assert!(
        stderr.contains("checkpoint task 1: agile tree conflicts with constraint 0"),
        "{stderr}"
    );
}

/// Checksum-valid sidecars whose task branches the search would never
/// take: an id past the arena, a freed edge slot, a repeated edge, and a
/// live edge the state does not admit for the task taxon. Each must fail
/// `stand resume` with an error naming the task and the edge, instead of
/// panicking, rewiring a dead slot, enumerating a subtree twice or
/// enumerating trees outside the stand.
#[test]
fn resume_rejects_task_branches_the_search_never_takes() {
    // E must sit next to C: A's and B's pendants are live but inadmissible.
    let (checkpoint, freed) = root_checkpoint(&["((A,B),(C,D));", "((A,B),(C,E));"], "branches");
    let sidecar = tmp("branches.standckpt");
    let task = &checkpoint.tasks[0];
    assert_eq!(task.taxon, 4, "E is the pending taxon");
    assert_eq!(task.branches.len(), 3, "{:?}", task.branches);
    let admissible = task.branches[0];
    let tree = phylo::tree::Tree::from_arena_dump(&task.tree).unwrap();
    assert!(!tree.edge_alive(phylo::tree::EdgeId(freed)));
    let leaf_a = tree.leaf(phylo::taxa::TaxonId(0)).unwrap();
    let a_pendant = tree.adjacent_edges(leaf_a)[0].0;
    assert!(!task.branches.contains(&a_pendant));

    // Control: the faithful sidecar resumes to completion.
    checkpoint.write_atomic(&sidecar).unwrap();
    let out = run_ok(&["stand", "resume", sidecar.to_str().unwrap()]);
    assert!(out.contains("resuming"), "{out}");

    let cases = [
        (
            vec![1000],
            "branch edge 1000 is not a live edge".to_string(),
        ),
        (
            vec![freed],
            format!("branch edge {freed} is not a live edge"),
        ),
        (
            vec![admissible, admissible],
            format!("branch edge {admissible} is listed twice"),
        ),
        (
            vec![a_pendant],
            format!("branch edge {a_pendant} is not admissible for taxon 4"),
        ),
    ];
    for (branches, msg) in cases {
        let mut bad = checkpoint.clone();
        bad.tasks[0].branches = branches;
        let stderr = resume_fails(&bad, &sidecar);
        assert!(
            stderr.contains(&format!("checkpoint task 1: {msg}")),
            "{stderr}"
        );
    }
}

/// A sidecar may name only its own run's segments, `{out}.g{k}.seg{i}`
/// with `k` below its generation, each once: the final merge deletes every
/// segment it reads. Anything else must fail `stand resume` before any
/// file is touched, and the named file must survive.
#[test]
fn resume_refuses_segments_that_are_not_its_runs_own() {
    let newicks = ["((A,B),(C,D));", "((C,D),(E,F));"];
    let (checkpoint, _) = root_checkpoint(&newicks, "foreign");
    let trees = tmp("foreign.nwk");
    std::fs::write(&trees, newicks.join("\n")).unwrap();
    // A real container from another run, and a real segment of this one.
    let unrelated = tmp("unrelated.stand");
    let own = PathBuf::from(format!("{}.g0.seg1", checkpoint.output));
    for file in [&unrelated, &own] {
        run_ok(&[
            "stand",
            "--trees",
            trees.to_str().unwrap(),
            "--output",
            file.to_str().unwrap(),
        ]);
    }
    let (unrelated_bytes, own_bytes) = (
        std::fs::read(&unrelated).unwrap(),
        std::fs::read(&own).unwrap(),
    );
    let future = format!("{}.g1.seg1", checkpoint.output);
    let cases = [
        (
            vec![unrelated.display().to_string()],
            "not a segment of its run",
        ),
        (vec![future], "not a segment of its run"),
        (
            vec![own.display().to_string(), own.display().to_string()],
            "names this segment twice",
        ),
    ];
    let sidecar = tmp("foreign.standckpt");
    for (segments, msg) in cases {
        let mut bad = checkpoint.clone();
        bad.segments = segments;
        let stderr = resume_fails(&bad, &sidecar);
        assert!(stderr.contains(msg), "{stderr}");
        assert!(sidecar.exists(), "a refused sidecar must stay");
        assert_eq!(std::fs::read(&unrelated).unwrap(), unrelated_bytes);
        assert_eq!(std::fs::read(&own).unwrap(), own_bytes);
    }
    assert!(!Path::new(&checkpoint.output).exists());
}

/// The final merge is a commit point. A resume whose merge meets a torn
/// segment must fail naming that segment, and leave the sidecar and every
/// segment it names in place; putting the segment back and resuming again
/// must then complete with the clean run's stand.
#[cfg(unix)]
#[test]
fn torn_segment_fails_the_merge_and_a_retry_completes() {
    use gentrius_standfile::Checkpoint;

    let trees = tmp("torn.nwk");
    std::fs::write(
        &trees,
        "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n((B,I),(E,J));\n",
    )
    .unwrap();
    let clean = tmp("torn-clean.stand");
    let started = std::time::Instant::now();
    run_ok(&[
        "stand",
        "--trees",
        trees.to_str().unwrap(),
        "--threads",
        "2",
        "--output",
        clean.to_str().unwrap(),
    ]);
    // An eighth of a clean run on this host: each slice stops on the
    // clock mid-run and leaves a sidecar, so the merge comes a few slices
    // later.
    let budget = (started.elapsed().as_secs_f64() / 8.0 / 3600.0).to_string();
    let cont = tmp("torn.stand");
    let ckpt = tmp("torn.standckpt");
    run_ok(&[
        "stand",
        "--trees",
        trees.to_str().unwrap(),
        "--threads",
        "2",
        "--output",
        cont.to_str().unwrap(),
        "--checkpoint-every",
        "10",
        "--max-hours",
        &budget,
    ]);
    let resume = || {
        gentrius()
            .args(["stand", "resume", ckpt.to_str().unwrap()])
            .output()
            .expect("binary runs")
    };
    let named = || Checkpoint::read(&ckpt).expect("sidecar reads").segments;
    let mut slices = 0;
    while named().is_empty() {
        slices += 1;
        assert!(slices <= 200, "no slice finished a segment");
        assert!(resume().status.success());
    }
    let torn = PathBuf::from(named().last().unwrap());
    let whole = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &whole[..whole.len() - 10]).unwrap();

    let failed = loop {
        slices += 1;
        assert!(slices <= 200, "the merge never ran");
        let out = resume();
        if !out.status.success() {
            break String::from_utf8_lossy(&out.stderr).into_owned();
        }
        assert!(ckpt.exists(), "the run completed over a torn segment");
    };
    assert!(
        failed.contains(&format!("{}: malformed stand container", torn.display())),
        "{failed}"
    );
    assert!(ckpt.exists(), "a failed merge must keep the sidecar");
    for seg in named() {
        assert!(
            Path::new(&seg).is_file(),
            "{seg} was deleted by a failed merge"
        );
    }
    assert!(!cont.exists(), "a failed merge left a partial container");

    std::fs::write(&torn, &whole).unwrap();
    while ckpt.exists() {
        slices += 1;
        assert!(slices <= 400, "resume never completed the enumeration");
        assert!(resume().status.success());
    }
    let sort_lines = |s: String| {
        let mut v: Vec<String> = s.lines().map(str::to_string).collect();
        v.sort_unstable();
        v
    };
    let want = sort_lines(run_ok(&["stand", "cat", clean.to_str().unwrap()]));
    let got = sort_lines(run_ok(&["stand", "cat", cont.to_str().unwrap()]));
    assert_eq!(got.len(), 24385);
    assert_eq!(got, want, "the retried run diverged from the clean run");
    let debris: Vec<String> = std::fs::read_dir(cont.parent().unwrap())
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("torn.stand.") && n.contains("seg"))
        .collect();
    assert!(debris.is_empty(), "segment debris left behind: {debris:?}");
}
