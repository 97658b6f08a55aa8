//! `.standckpt` wire-format tests: property-based encode/decode
//! round-trips plus a rejection table of truncated, corrupted and
//! mismatched inputs. Decode treats checkpoint files as hostile input —
//! every rejection must be a typed [`StandfileError`], never a panic.

use gentrius_core::config::{MappingMode, StoppingRules};
use gentrius_core::stats::RunStats;
use gentrius_standfile::ckpt::{problem_hash, CKPT_MAGIC};
use gentrius_standfile::{Checkpoint, CkptTask, StandfileError};
use phylo::tree::{ArenaDump, DumpEdge, DumpNode};
use proptest::prelude::*;
use std::time::Duration;

/// `Option<u64>` over the full wire range of the stopping-rule fields.
fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..u64::MAX / 2_000).prop_map(Some)]
}

fn dump_strategy() -> impl Strategy<Value = ArenaDump> {
    // Structural plausibility is not required for serde round-trips: the
    // wire layer ships slots verbatim and only `Tree::from_arena_dump`
    // validates graph invariants. Flags and ids just have to fit the wire.
    let taxon = prop_oneof![Just(None), (0u32..64).prop_map(Some)];
    let node = (
        proptest::bool::ANY,
        taxon,
        proptest::collection::vec(0u32..64, 0..4),
    )
        .prop_map(|(alive, taxon, adj)| DumpNode { alive, taxon, adj });
    let edge = (proptest::bool::ANY, 0u32..64, 0u32..64).prop_map(|(alive, a, b)| DumpEdge {
        alive,
        a,
        b,
    });
    (
        0usize..32,
        proptest::collection::vec(node, 0..8),
        proptest::collection::vec(edge, 0..8),
        (
            proptest::collection::vec(0u32..8, 0..4),
            proptest::collection::vec(0u32..8, 0..4),
        ),
    )
        .prop_map(
            |(universe, nodes, edges, (free_nodes, free_edges))| ArenaDump {
                universe,
                nodes,
                edges,
                free_nodes,
                free_edges,
            },
        )
}

fn task_strategy() -> impl Strategy<Value = CkptTask> {
    (
        (0u32..1000, proptest::collection::vec(0u32..u32::MAX, 0..6)),
        (
            0u64..u64::MAX,
            proptest::collection::vec(0u32..u32::MAX, 0..6),
        ),
        dump_strategy(),
    )
        .prop_map(|((taxon, branches), (depth, remaining), tree)| CkptTask {
            taxon,
            branches,
            depth,
            remaining,
            tree,
        })
}

fn ckpt_strategy() -> impl Strategy<Value = Checkpoint> {
    let mapping = prop_oneof![Just(MappingMode::Recompute), Just(MappingMode::EdgeIndexed)];
    // Labels may be empty and may collide across the vectors: the hash
    // NUL-terminates each one precisely so boundary games cannot alias
    // two distinct problems, and round-trips must not care either way.
    let name = "[a-zA-Z0-9_.-]{0,10}";
    let header = (mapping, 0u8..3, 0usize..64, 0usize..8);
    let rules = (opt_u64(), opt_u64(), opt_u64());
    let counters = (
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
    );
    let strings = (
        name,
        proptest::collection::vec(name, 0..6),
        proptest::collection::vec(name, 0..4),
        proptest::collection::vec(name, 0..4),
    );
    (
        (header, rules),
        (counters, strings),
        proptest::collection::vec(task_strategy(), 0..4),
    )
        .prop_map(
            |(
                ((mapping, order_code, threads, initial_tree), (max_trees, max_states, max_ms)),
                (
                    (stand_trees, intermediate_states, dead_ends, generation),
                    (output, taxa, constraints, segments),
                ),
                tasks,
            )| {
                Checkpoint {
                    problem_hash: problem_hash(&taxa, &constraints),
                    mapping,
                    order_code,
                    threads,
                    initial_tree,
                    stopping: StoppingRules {
                        max_stand_trees: max_trees,
                        max_intermediate_states: max_states,
                        max_time: max_ms.map(Duration::from_millis),
                    },
                    stats: RunStats {
                        stand_trees,
                        intermediate_states,
                        dead_ends,
                    },
                    generation,
                    output,
                    taxa,
                    constraints,
                    segments,
                    tasks,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_is_identity(ck in ckpt_strategy()) {
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).expect("decode of own encoding");
        prop_assert_eq!(back, ck);
    }

    /// Every truncation of a valid checkpoint is rejected with a typed
    /// error — the end magic + checksum make partial writes detectable.
    #[test]
    fn every_truncation_is_rejected(ck in ckpt_strategy(), sel in 0usize..1_000_000) {
        let bytes = ck.encode();
        let cut = sel % bytes.len();
        prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err());
    }

    /// Any single flipped bit is rejected: the trailing FNV checksum
    /// covers every byte before it, and a flip inside the checksum or end
    /// magic no longer matches the body.
    #[test]
    fn any_single_bit_flip_is_rejected(ck in ckpt_strategy(), sel in 0usize..1_000_000, bit in 0u8..8) {
        let mut bytes = ck.encode();
        let i = sel % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(Checkpoint::decode(&bytes).is_err());
    }
}

fn sample() -> Checkpoint {
    Checkpoint {
        problem_hash: problem_hash(
            &["A".into(), "B".into(), "C".into(), "D".into()],
            &["((A,B),(C,D));".into()],
        ),
        mapping: MappingMode::EdgeIndexed,
        order_code: 1,
        threads: 4,
        initial_tree: 0,
        stopping: StoppingRules::unlimited(),
        stats: RunStats {
            stand_trees: 42,
            intermediate_states: 99,
            dead_ends: 7,
        },
        generation: 3,
        output: "out.stand".into(),
        taxa: vec!["A".into(), "B".into(), "C".into(), "D".into()],
        constraints: vec!["((A,B),(C,D));".into()],
        segments: vec!["out.stand.g0.seg1".into()],
        tasks: Vec::new(),
    }
}

/// Recomputes and patches the trailing checksum so a deliberate body
/// mutation survives the integrity check and reaches the semantic
/// validators behind it.
fn fix_checksum(bytes: &mut [u8]) {
    let body_end = bytes.len() - 16;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[..body_end] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    bytes[body_end..body_end + 8].copy_from_slice(&h.to_le_bytes());
}

#[test]
fn rejection_table() {
    let good = sample().encode();
    assert!(Checkpoint::decode(&good).is_ok());

    // Empty and sub-minimal inputs.
    assert!(Checkpoint::decode(&[]).is_err());
    assert!(Checkpoint::decode(b"GSTANDC1").is_err());

    // Bad leading magic (a .stand container is not a checkpoint).
    let mut bad_magic = good.clone();
    bad_magic[..8].copy_from_slice(b"GSTANDF1");
    assert!(Checkpoint::decode(&bad_magic).is_err());

    // Bad end magic / short footer.
    let mut bad_end = good.clone();
    let n = bad_end.len();
    bad_end[n - 1] = b'?';
    assert!(Checkpoint::decode(&bad_end).is_err());
    assert!(Checkpoint::decode(&good[..n - 3]).is_err());

    // Unsupported version (patch the varint after the magic + checksum).
    let mut bad_version = good.clone();
    assert_eq!(bad_version[8], 1, "version varint moved?");
    bad_version[8] = 2;
    fix_checksum(&mut bad_version);
    let err = Checkpoint::decode(&bad_version).unwrap_err();
    assert!(
        matches!(&err, StandfileError::Format { msg, .. } if msg.contains("version")),
        "{err}"
    );

    // The retired mapping byte 1 (the removed patched-split engine). The
    // mapping varint follows the version byte and the problem-hash varint.
    let mut retired_mode = good.clone();
    let hash_len = retired_mode[9..]
        .iter()
        .position(|&b| b & 0x80 == 0)
        .unwrap()
        + 1;
    let mode_at = 9 + hash_len;
    assert_eq!(retired_mode[mode_at], 2, "mapping varint moved?");
    retired_mode[mode_at] = 1;
    fix_checksum(&mut retired_mode);
    let err = Checkpoint::decode(&retired_mode).unwrap_err();
    assert!(
        matches!(&err, StandfileError::Format { msg, .. } if msg.contains("mapping mode 1")),
        "{err}"
    );

    // Wrong problem hash: flip a taxon label byte and repair the
    // checksum — the stored hash no longer matches the stored problem.
    // The taxa vec serializes "A","B" as `01 'A' 01 'B'`, a sequence that
    // appears nowhere earlier in this sample's encoding.
    let mut wrong_problem = good.clone();
    let pos = wrong_problem
        .windows(4)
        .position(|w| w == [1, b'A', 1, b'B'])
        .expect("taxon label bytes")
        + 1;
    wrong_problem[pos] = b'Z';
    fix_checksum(&mut wrong_problem);
    let err = Checkpoint::decode(&wrong_problem).unwrap_err();
    assert!(
        matches!(&err, StandfileError::Format { msg, .. } if msg.contains("hash")),
        "{err}"
    );

    // Trailing garbage between the body and the footer.
    let mut padded = sample();
    padded.segments.clear();
    let mut bytes = padded.encode();
    let split = bytes.len() - 16;
    bytes.splice(split..split, [0u8; 4]);
    fix_checksum(&mut bytes);
    assert!(Checkpoint::decode(&bytes).is_err());

    // Hostile varints after a valid magic reject without panicking (and
    // without honoring claimed element counts: decode bounds every count
    // by the remaining byte budget before reserving a Vec).
    let mut huge = Vec::new();
    huge.extend_from_slice(CKPT_MAGIC);
    huge.push(1); // version
    huge.extend_from_slice(&[0xff; 64]);
    assert!(Checkpoint::decode(&huge).is_err());
}

#[test]
fn read_reports_missing_file() {
    let p = std::env::temp_dir().join("standfile-tests-no-such.standckpt");
    let _ = std::fs::remove_file(&p);
    assert!(Checkpoint::read(&p).is_err());
}

#[test]
fn write_atomic_then_read_roundtrips() {
    let dir = std::env::temp_dir().join("standfile-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{}-atomic.standckpt", std::process::id()));
    let ck = sample();
    ck.write_atomic(&p).unwrap();
    // The tmp staging file must not survive a successful publish.
    assert!(!p.with_extension("standckpt.tmp").exists());
    let back = Checkpoint::read(&p).unwrap();
    assert_eq!(back, ck);
    let _ = std::fs::remove_file(&p);
}
