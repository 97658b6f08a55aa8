//! Corpus replay — every dataset under `tests/corpus/` runs through the
//! fuzzer's 2-mode × thread-count conformance matrix forever.
//!
//! The corpus holds the pinned adversarial-zoo showcases (seeded by
//! `corpus_seed`) plus any minimized failure `datagen fuzz` ever wrote.
//! A fixed divergence must stay fixed: once a mutant lands here, every
//! future engine change replays it.

use gentrius_core::StoppingRules;
use gentrius_datagen::fuzz::{conformance_check, Conformance};
use gentrius_datagen::Dataset;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// The fuzzer's default budget and thread matrix (`FuzzConfig::new`),
/// inlined so a corpus entry replays under the regime that minted it.
fn replay_budget() -> StoppingRules {
    StoppingRules::counts(40_000, 150_000)
}

#[test]
fn corpus_is_present_and_parseable() {
    let entries = read_corpus();
    assert!(
        entries.len() >= 3,
        "expected at least the three seeded zoo showcases, found {}",
        entries.len()
    );
    for (path, d) in &entries {
        assert!(
            d.problem().is_ok(),
            "{}: corpus entry no longer builds a problem",
            path.display()
        );
    }
}

#[test]
fn every_corpus_entry_conforms() {
    let stopping = replay_budget();
    for (path, d) in read_corpus() {
        match conformance_check(&d, &stopping, &[2, 4]) {
            Conformance::Ok => {}
            // A Skip is legal for corpus entries whose full enumeration
            // outgrows the replay budget — but the seeded showcases are
            // sized to complete, and minimized failures were checkable by
            // construction, so flag it loudly.
            Conformance::Skip(why) => {
                panic!("{}: corpus entry became uncheckable: {why}", path.display())
            }
            Conformance::Diverged(why) => {
                panic!("{}: conformance regression: {why}", path.display())
            }
        }
    }
}

fn read_corpus() -> Vec<(PathBuf, Dataset)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/corpus exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "dataset") {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let d = Dataset::from_text(&text)
                .unwrap_or_else(|e| panic!("{}: unparseable corpus entry: {e}", path.display()));
            out.push((path, d));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
