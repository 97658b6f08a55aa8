//! Container write/read round-trips, random access across block
//! boundaries, segment merging, and hostile-label headers.

use gentrius_core::StandSink;
use gentrius_standfile::{
    merge_segments, Container, ContainerSink, ContainerWriter, StandfileError,
};
use phylo::generate::{random_tree_on_n, ShapeModel};
use phylo::newick::to_newick;
use phylo::phylo2vec;
use phylo::taxa::TaxonSet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("standfile-tests");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// `count` random trees on `n` taxa plus their canonical Newick strings.
fn random_trees(n: usize, count: usize, seed: u64) -> (TaxonSet, Vec<phylo::Tree>, Vec<String>) {
    let taxa = TaxonSet::with_synthetic(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let trees: Vec<phylo::Tree> = (0..count)
        .map(|i| {
            let model = if i % 2 == 0 {
                ShapeModel::Uniform
            } else {
                ShapeModel::Yule
            };
            random_tree_on_n(n, model, &mut rng)
        })
        .collect();
    let newicks = trees.iter().map(|t| to_newick(t, &taxa)).collect();
    (taxa, trees, newicks)
}

#[test]
fn roundtrip_across_block_boundaries() {
    // Block capacity 7 with 100 trees forces 15 blocks, the last partial.
    let (taxa, trees, newicks) = random_trees(12, 100, 41);
    let path = tmp("roundtrip.stand");
    let mut w = ContainerWriter::with_capacity(&path, &taxa, 7).expect("create");
    for t in &trees {
        let tv = phylo2vec::encode(t).expect("encode");
        w.push_code(&tv.code).expect("push");
    }
    let summary = w.finish().expect("finish");
    assert_eq!(summary.trees, 100);
    assert_eq!(summary.blocks, 15);

    let mut c = Container::open(&path).expect("open");
    assert_eq!(c.len(), 100);
    assert_eq!(c.block_count(), 15);
    assert_eq!(c.taxa().len(), 12);

    // Sequential scan reproduces the exact Newick sequence.
    let mut seen = Vec::new();
    c.for_each_newick(0, u64::MAX, |i, nwk| {
        assert_eq!(i as usize, seen.len());
        seen.push(nwk.to_string());
        Ok(())
    })
    .expect("scan");
    assert_eq!(seen, newicks);

    // Random access, deliberately hopping across blocks and backwards.
    for &i in &[99u64, 0, 55, 7, 6, 13, 14, 98, 42] {
        assert_eq!(
            c.newick(i).expect("newick"),
            newicks[i as usize],
            "tree {i}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sink_streams_and_reader_pages_ranges() {
    let (taxa, trees, newicks) = random_trees(9, 50, 77);
    let path = tmp("sink.stand");
    let mut sink = ContainerSink::with_capacity(&path, &taxa, 8);
    for t in &trees {
        sink.stand_tree(t);
    }
    assert!(!sink.failed());
    assert_eq!(sink.pushed(), 50);
    let summary = sink.finish().expect("finish");
    assert_eq!(summary.trees, 50);

    let mut c = Container::open(&path).expect("open");
    // Paged reads: [10, 20) and a clamped over-long tail.
    let mut page = Vec::new();
    c.for_each_newick(10, 20, |_, nwk| {
        page.push(nwk.to_string());
        Ok(())
    })
    .expect("page");
    assert_eq!(page, newicks[10..20]);
    let mut tail = Vec::new();
    c.for_each_newick(45, 10_000, |i, nwk| {
        tail.push((i, nwk.to_string()));
        Ok(())
    })
    .expect("tail");
    assert_eq!(tail.len(), 5);
    assert_eq!(tail[0].0, 45);
    assert_eq!(tail[4].1, newicks[49]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn merge_concatenates_segments_in_order_and_deletes_them() {
    let (taxa, trees, newicks) = random_trees(10, 60, 5);
    let seg_paths: Vec<PathBuf> = (0..4).map(|i| tmp(&format!("merge.seg{i}"))).collect();
    // Segment 2 stays empty-but-present, segment 3 is never created
    // (worker that produced nothing) — both must be handled.
    for (s, chunk) in trees.chunks(30).enumerate() {
        let mut sink = ContainerSink::with_capacity(&seg_paths[s], &taxa, 9);
        for t in chunk {
            sink.stand_tree(t);
        }
        sink.finish().expect("segment finish");
    }
    ContainerSink::with_capacity(&seg_paths[2], &taxa, 9)
        .finish()
        .expect("empty segment finish");

    let dest = tmp("merge.stand");
    let summary = merge_segments(&dest, &taxa, &seg_paths).expect("merge");
    assert_eq!(summary.trees, 60);
    for p in &seg_paths[..3] {
        assert!(!p.exists(), "segment {} should be deleted", p.display());
    }

    let mut c = Container::open(&dest).expect("open merged");
    assert_eq!(c.len(), 60);
    let mut seen = Vec::new();
    c.for_each_newick(0, u64::MAX, |_, nwk| {
        seen.push(nwk.to_string());
        Ok(())
    })
    .expect("scan merged");
    assert_eq!(seen, newicks, "merge preserves segment order");
    std::fs::remove_file(&dest).ok();
}

#[test]
fn merge_rejects_mismatched_taxa() {
    let (taxa_a, trees, _) = random_trees(8, 3, 1);
    let taxa_b = TaxonSet::with_synthetic(9);
    let seg = tmp("mismatch.seg0");
    let mut sink = ContainerSink::create(&seg, &taxa_a);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("segment finish");
    let dest = tmp("mismatch.stand");
    let err = merge_segments(&dest, &taxa_b, std::slice::from_ref(&seg));
    assert!(
        matches!(err, Err(StandfileError::TaxaMismatch(_))),
        "got {err:?}"
    );
    std::fs::remove_file(&seg).ok();
    std::fs::remove_file(&dest).ok();
}

#[test]
fn hostile_labels_survive_the_header() {
    let mut taxa = TaxonSet::new();
    for name in [
        "plain",
        "with space",
        "quo'te",
        "par(en),comma;colon:",
        "uni-τάξον-🌲",
        "_under_",
        "7",
    ] {
        taxa.intern(name);
    }
    let (_, trees, _) = {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let trees: Vec<phylo::Tree> = (0..10)
            .map(|_| random_tree_on_n(7, ShapeModel::Uniform, &mut rng))
            .collect();
        (0, trees, 0)
    };
    let newicks: Vec<String> = trees.iter().map(|t| to_newick(t, &taxa)).collect();
    let path = tmp("hostile.stand");
    let mut sink = ContainerSink::with_capacity(&path, &taxa, 3);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("finish");

    let mut c = Container::open(&path).expect("open");
    assert_eq!(
        c.taxa_names(),
        taxa.iter().map(|(_, n)| n.to_string()).collect::<Vec<_>>()
    );
    for (i, expect) in newicks.iter().enumerate() {
        assert_eq!(&c.newick(i as u64).expect("newick"), expect);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_rejects_garbage_and_truncation() {
    let path = tmp("garbage.stand");
    std::fs::write(&path, b"definitely not a container").expect("write");
    assert!(matches!(
        Container::open(&path),
        Err(StandfileError::Format { .. })
    ));

    // A valid container with the footer chopped off must be rejected, not
    // misread.
    let (taxa, trees, _) = random_trees(8, 20, 123);
    let mut sink = ContainerSink::with_capacity(&path, &taxa, 4);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
    assert!(matches!(
        Container::open(&path),
        Err(StandfileError::Format { .. })
    ));
    std::fs::remove_file(&path).ok();
}

/// LEB128, as the container writes its integers.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A container made of `header`, then `blocks`, then a footer of the
/// `footer` varints and the fixed trailer pointing at them.
fn craft(header: &[u8], blocks: &[u8], footer: &[u64]) -> Vec<u8> {
    let mut f = header.to_vec();
    f.extend_from_slice(blocks);
    let footer_start = f.len() as u64;
    for &v in footer {
        varint(&mut f, v);
    }
    f.extend_from_slice(&footer_start.to_le_bytes());
    f.extend_from_slice(gentrius_standfile::container::END_MAGIC);
    f
}

/// One framed block holding the trees given as raw `(shared, tail,
/// entries)` deltas, with an explicit tree count.
fn framed(count: u64, deltas: &[(u64, u64, &[u64])]) -> Vec<u8> {
    let mut payload = Vec::new();
    varint(&mut payload, count);
    for &(shared, tail, entries) in deltas {
        varint(&mut payload, shared);
        varint(&mut payload, tail);
        for &e in entries {
            varint(&mut payload, e);
        }
    }
    let mut block = Vec::new();
    varint(&mut block, payload.len() as u64);
    block.extend_from_slice(&payload);
    block
}

/// Every length the reader takes from the file is bounded by the bytes
/// that hold it: each crafted file below used to abort the process on a
/// huge allocation, overflow a sum, or (the last) panic under overflow
/// checks, and must now fail with a typed format error naming the defect.
#[test]
fn hostile_lengths_fail_closed() {
    // The header of an empty 6-taxon container (tree codes have 4 entries).
    let taxa = TaxonSet::with_synthetic(6);
    let path = tmp("hostile-lengths.stand");
    ContainerWriter::create(&path, &taxa)
        .expect("create")
        .finish()
        .expect("finish");
    let empty = std::fs::read(&path).expect("read");
    let mut trailer = [0u8; 8];
    trailer.copy_from_slice(&empty[empty.len() - 16..empty.len() - 8]);
    let header = &empty[..u64::from_le_bytes(trailer) as usize];
    let at = header.len() as u64;
    let one_tree = framed(1, &[(0, 4, &[0, 0, 0, 0])]);

    let mut huge_block = Vec::new();
    varint(&mut huge_block, 1 << 44);
    huge_block.extend_from_slice(&[1, 0, 4, 0, 0, 0, 0]);
    let rows: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "block count 2^40",
            craft(header, &[], &[1 << 40, 0]),
            "footer claims 1099511627776 blocks",
        ),
        (
            "block count 2^63-1",
            craft(header, &[], &[i64::MAX as u64, 0]),
            "footer claims 9223372036854775807 blocks",
        ),
        (
            "block counts wrap past u64::MAX",
            craft(header, &one_tree, &[2, at, u64::MAX, at, 2, 1]),
            "footer tree counts overflow at block 1",
        ),
        (
            "block length 2^44",
            craft(header, &huge_block, &[1, at, 1, 1]),
            "block 0 length 17592186044416 runs past the footer",
        ),
        (
            "block tree count 2^40",
            craft(
                header,
                &framed(1 << 40, &[(0, 4, &[0, 0, 0, 0])]),
                &[1, at, 1 << 40, 1 << 40],
            ),
            "block 0 claims 1099511627776 trees but has room for at most 3",
        ),
        (
            "block tree count disagrees with the index",
            craft(header, &one_tree, &[1, at, 2, 2]),
            "block 0 holds 1 trees but the index says 2",
        ),
        (
            "delta tail overflows",
            craft(
                header,
                &framed(2, &[(0, 4, &[0, 0, 0, 0]), (1, u64::MAX, &[])]),
                &[1, at, 2, 2],
            ),
            "tree 1 delta",
        ),
    ];
    for (name, bytes, want) in rows {
        std::fs::write(&path, &bytes).expect("write");
        let err = Container::open(&path)
            .and_then(|mut c| c.for_each_newick(0, u64::MAX, |_, _| Ok(())))
            .expect_err(name);
        match err {
            StandfileError::Format { msg, .. } => {
                assert!(msg.contains(want), "{name}: got '{msg}', want '{want}'")
            }
            other => panic!("{name}: not a format error: {other}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_bounds_and_wrong_universe_are_typed_errors() {
    let (taxa, trees, _) = random_trees(6, 5, 9);
    let path = tmp("bounds.stand");
    let mut sink = ContainerSink::create(&path, &taxa);
    for t in &trees {
        sink.stand_tree(t);
    }
    sink.finish().expect("finish");
    let mut c = Container::open(&path).expect("open");
    assert!(matches!(
        c.newick(5),
        Err(StandfileError::OutOfBounds { index: 5, len: 5 })
    ));

    // A sink over a 10-taxon universe fed 6-taxon trees latches an error
    // instead of writing a corrupt file.
    let big = TaxonSet::with_synthetic(10);
    let path2 = tmp("universe.stand");
    let mut sink = ContainerSink::create(&path2, &big);
    sink.stand_tree(&trees[0]);
    assert!(sink.failed());
    assert!(matches!(
        sink.finish(),
        Err(StandfileError::TaxaMismatch(_))
    ));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

#[test]
fn prefix_delta_compresses_sibling_runs() {
    // Enumeration-order trees share long code prefixes; verify the format
    // actually exploits that: a run of trees differing only in the last
    // code entry must stay well under one byte per code entry.
    let taxa = TaxonSet::with_synthetic(32);
    let universe = taxa.len();
    let ids: Vec<phylo::TaxonId> = (0..universe as u32).map(phylo::TaxonId).collect();
    let base: Vec<u32> = (0..30u32).map(|j| (2 * j) % (2 * j + 1)).collect();
    let path = tmp("delta.stand");
    let mut w = ContainerWriter::with_capacity(&path, &taxa, 1024).expect("create");
    let mut count = 0u64;
    for last in 0..500u32 {
        let mut code = base.clone();
        code[29] = last % 59; // bound for j = 29 is 2*29+1 = 59
                              // Sanity: the codes must decode (i.e. be valid trees).
        phylo2vec::decode(universe, &ids, &code).expect("valid code");
        w.push_code(&code).expect("push");
        count += 1;
    }
    let summary = w.finish().expect("finish");
    assert_eq!(summary.trees, count);
    let size = std::fs::metadata(&path).expect("meta").len();
    let naive = count * 30; // one byte per entry, ignoring framing
    assert!(
        size < naive / 4,
        "delta coding should beat naive packing 4x on sibling runs: {size} vs {naive}"
    );
    std::fs::remove_file(&path).ok();
}
