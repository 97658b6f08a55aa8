//! The four workloads and their seeded inputs.
//!
//! Seed 0 reproduces the pinned instances (`scenario::blowup_showcase` and
//! `scenario::deadend_blowup`). Any other seed moves every taxon of the
//! same instance to a seeded new taxon id, keeping its name. Newick text
//! lists subtrees by taxon id, so the permuted dataset file lists the taxa
//! in another order, and the program interns them under other ids: the
//! constraint trees it builds have another id layout, and the search meets
//! the taxa in another order. The stand is the same set of topologies.
//!
//! The search itself can change: taxon ids break ties in the insertion
//! order. The blow-up's capped runs stay within a few percent of each other
//! under any permutation, but most permutations of the dead-end instance
//! turn it into a lighter search (75,509 to 216,989 states instead of
//! 254,465). The `deadend-*` workloads therefore draw from
//! [`DEADEND_PERMUTATIONS`], the permutations that keep the pinned search
//! shape. (A scan of trap-family generator indices 0..200 found no other
//! instance whose complete enumeration falls in the pinned one's size
//! band.)

use gentrius_core::{run_serial, CountOnly, GentriusConfig, MappingMode, RunStats};
use gentrius_datagen::scenario::{blowup_showcase, deadend_blowup, heuristics_showcase};
use gentrius_datagen::Dataset;
use phylo::newick::{parse_newick, to_newick};
use phylo::pam::Pam;
use phylo::taxa::TaxonSet;
use phylo::tree::Tree;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BlowupWrite,
    DeadendCount,
    DeadendCkpt,
    StandRead,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "blowup-write" => Ok(Workload::BlowupWrite),
            "deadend-count" => Ok(Workload::DeadendCount),
            "deadend-ckpt" => Ok(Workload::DeadendCkpt),
            "stand-read" => Ok(Workload::StandRead),
            other => Err(format!("unknown workload '{other}'")),
        }
    }

    /// Whether the workload's input is the caterpillar blow-up family.
    pub fn blowup_family(self) -> bool {
        matches!(self, Workload::BlowupWrite | Workload::StandRead)
    }
}

/// The dataset a workload runs on for `seed`. `tiny` swaps the dead-end
/// instance for the small, fully enumerable heuristics showcase (the smoke
/// test's size; the blow-up is sized by its stand-tree cap instead).
pub fn dataset(w: Workload, seed: u64, tiny: bool) -> Result<Dataset, String> {
    let d = match (w.blowup_family(), tiny) {
        (true, _) => blowup_showcase(),
        (false, false) => deadend_blowup(),
        (false, true) => heuristics_showcase(),
    };
    if seed == 0 {
        return Ok(d);
    }
    let perm = match (w.blowup_family(), tiny) {
        (false, false) => {
            DEADEND_PERMUTATIONS[((seed - 1) % DEADEND_PERMUTATIONS.len() as u64) as usize]
        }
        _ => seed,
    };
    let name = format!("{}-perm{perm}", d.name);
    permute_ids(d, perm, name)
}

/// Permutation seeds under which a complete enumeration of the dead-end
/// instance has the pinned totals ([`DEADEND_TOTALS`]): found by scanning
/// permutation seeds 1..114, pinned by the oracle test below. A `deadend-*`
/// seed k > 0 uses entry (k - 1) mod 11.
pub const DEADEND_PERMUTATIONS: [u64; 11] = [4, 7, 12, 41, 66, 69, 81, 87, 91, 106, 114];

/// Moves every taxon to a seeded new id under its old name: the trees and
/// the PAM are read back against a taxon set interned in shuffled order.
fn permute_ids(d: Dataset, seed: u64, name: String) -> Result<Dataset, String> {
    let mut names: Vec<&str> = d.taxa.iter().map(|(_, n)| n).collect();
    let mut state = seed;
    for i in (1..names.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        names.swap(i, j);
    }
    let mut taxa = TaxonSet::new();
    for n in &names {
        taxa.intern(n);
    }
    let relabel = |t: &Tree| parse_newick(&to_newick(t, &d.taxa), &taxa).map_err(|e| e.to_string());
    let species_tree = d.species_tree.as_ref().map(relabel).transpose()?;
    let constraints = d
        .constraints
        .iter()
        .map(relabel)
        .collect::<Result<Vec<_>, _>>()?;
    let pam = d
        .pam
        .as_ref()
        .map(|p| Pam::parse_text(&p.to_text(&d.taxa), &mut taxa))
        .transpose()?;
    Ok(Dataset {
        name,
        taxa,
        species_tree,
        pam,
        constraints,
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stand trees, intermediate states and dead ends of a complete
/// enumeration of every `deadend-*` input at the CLI's default stopping
/// rules (pinned by the oracle test below).
pub const DEADEND_TOTALS: [u64; 3] = [192_375, 254_465, 206_226];

/// The configuration `gentrius stand` uses when given no tuning flags.
pub fn cli_config(max_trees: Option<u64>) -> GentriusConfig {
    let mut cfg = GentriusConfig::default();
    if let Some(cap) = max_trees {
        cfg.stopping.max_stand_trees = Some(cap);
    }
    cfg
}

/// Totals of the serial `Recompute` oracle on a dataset text, at the
/// CLI's default stopping rules.
pub fn oracle_totals(text: &str) -> Result<RunStats, String> {
    let d = Dataset::from_text(text)?;
    let problem = d.problem().map_err(|e| e.to_string())?;
    let cfg = GentriusConfig {
        mapping: MappingMode::Recompute,
        ..cli_config(None)
    };
    let r = run_serial(&problem, &cfg, &mut CountOnly).map_err(|e| e.to_string())?;
    if !r.complete() {
        return Err(format!("oracle run stopped early: {:?}", r.stop));
    }
    Ok(r.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned `deadend-*` totals ([`DEADEND_TOTALS`]), re-derived from
    /// the serial `Recompute` oracle on the pinned instance and on every
    /// permutation the workloads draw (`cargo test --release` in this
    /// directory; a few minutes, two oracle runs at a time).
    #[test]
    fn pinned_deadend_totals_match_the_serial_oracle() {
        let seeds: Vec<u64> = (0..=DEADEND_PERMUTATIONS.len() as u64).collect();
        std::thread::scope(|scope| {
            for half in seeds.chunks(seeds.len().div_ceil(2)) {
                scope.spawn(move || {
                    for &seed in half {
                        let text = dataset(Workload::DeadendCount, seed, false)
                            .unwrap()
                            .to_text();
                        let s = oracle_totals(&text).unwrap();
                        assert_eq!(
                            [s.stand_trees, s.intermediate_states, s.dead_ends],
                            DEADEND_TOTALS,
                            "seed {seed}"
                        );
                    }
                });
            }
        });
    }

    /// A seed changes the taxon ids the program sees, not only their names:
    /// after the text round trip the constraint trees' arenas differ from
    /// seed 0's, over the same label set.
    #[test]
    fn seeds_change_the_id_layout_after_the_text_round_trip() {
        for w in [Workload::BlowupWrite, Workload::DeadendCount] {
            let load = |seed| Dataset::from_text(&dataset(w, seed, false).unwrap().to_text());
            let layout = |d: &Dataset| {
                d.constraints
                    .iter()
                    .map(|t| t.dump_arena())
                    .collect::<Vec<_>>()
            };
            let names = |d: &Dataset| {
                let mut v: Vec<String> = d.taxa.iter().map(|(_, n)| n.to_string()).collect();
                v.sort();
                v
            };
            let base = load(0).unwrap();
            for seed in [1, 2, 3] {
                let d = load(seed).unwrap();
                assert_ne!(layout(&d), layout(&base), "{w:?} seed {seed}");
                assert_eq!(names(&d), names(&base));
                assert_eq!(d.constraints.len(), base.constraints.len());
            }
        }
    }
}
