//! Property-based tests of the phylo substrate: the bitset against a
//! `HashSet` model, split algebra, consensus laws and shape invariants.

use phylo::bitset::BitSet;
use phylo::consensus::{tree_from_splits, SplitFrequencies};
use phylo::generate::{random_tree_on_n, ShapeModel};
use phylo::shape::shape_stats;
use phylo::split::{nontrivial_splits, topo_eq, Split};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Operations of the bitset model test.
#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Remove(usize),
    Contains(usize),
}

fn op_strategy(universe: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..universe).prop_map(Op::Insert),
        (0..universe).prop_map(Op::Remove),
        (0..universe).prop_map(Op::Contains),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bitset_behaves_like_hashset(ops in proptest::collection::vec(op_strategy(150), 1..200)) {
        let mut bs = BitSet::new(150);
        let mut model: HashSet<usize> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(i) => prop_assert_eq!(bs.insert(i), model.insert(i)),
                Op::Remove(i) => prop_assert_eq!(bs.remove(i), model.remove(&i)),
                Op::Contains(i) => prop_assert_eq!(bs.contains(i), model.contains(&i)),
            }
            prop_assert_eq!(bs.count(), model.len());
            prop_assert_eq!(bs.min_member(), model.iter().min().copied());
        }
        let collected: HashSet<usize> = bs.iter().collect();
        prop_assert_eq!(collected, model);
    }

    #[test]
    fn bitset_algebra_laws(
        a in proptest::collection::vec(proptest::bool::ANY, 130),
        b in proptest::collection::vec(proptest::bool::ANY, 130),
    ) {
        let mk = |mask: &[bool]| {
            BitSet::from_iter(130, mask.iter().enumerate().filter(|(_, &x)| x).map(|(i, _)| i))
        };
        let sa = mk(&a);
        let sb = mk(&b);
        // De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B
        let mut lhs = sa.union(&sb);
        lhs.complement();
        let mut na = sa.clone();
        na.complement();
        let mut nb = sb.clone();
        nb.complement();
        prop_assert_eq!(lhs, na.intersection(&nb));
        // |A| + |B| = |A ∪ B| + |A ∩ B|
        prop_assert_eq!(
            sa.count() + sb.count(),
            sa.union(&sb).count() + sa.intersection(&sb).count()
        );
        // A \ B disjoint from B; union with (A ∩ B) gives A back.
        let diff = sa.difference(&sb);
        prop_assert!(diff.is_disjoint(&sb));
        prop_assert_eq!(diff.union(&sa.intersection(&sb)), sa.clone());
        prop_assert_eq!(sa.intersection_count(&sb), sa.intersection(&sb).count());
    }

    #[test]
    fn splits_rebuild_the_tree(seed in 0u64..1_000_000, n in 4usize..20) {
        let tree = random_tree_on_n(n, ShapeModel::Uniform, &mut ChaCha8Rng::seed_from_u64(seed));
        let splits = nontrivial_splits(&tree);
        prop_assert_eq!(splits.len(), n - 3, "binary tree split count");
        let rebuilt = tree_from_splits(tree.taxa(), &splits);
        prop_assert!(topo_eq(&rebuilt, &tree));
        // Splits of one tree are pairwise compatible.
        for i in 0..splits.len() {
            for j in i + 1..splits.len() {
                prop_assert!(splits[i].compatible_with(&splits[j], tree.taxa()));
            }
        }
    }

    #[test]
    fn split_canonicalization_is_involutive(
        mask in proptest::collection::vec(proptest::bool::ANY, 24),
        n in 4usize..24,
    ) {
        let taxa = BitSet::full(24);
        let side = BitSet::from_iter(
            24,
            mask.iter().take(n).enumerate().filter(|(_, &x)| x).map(|(i, _)| i),
        );
        let s1 = Split::canonical(side.clone(), &taxa);
        // Canonicalizing the canonical side is a fixed point.
        let s2 = Split::canonical(s1.side().clone(), &taxa);
        prop_assert_eq!(&s1, &s2);
        // Canonicalizing the complement gives the same split.
        let mut comp = taxa.clone();
        comp.difference_with(&side);
        let s3 = Split::canonical(comp, &taxa);
        prop_assert_eq!(&s1, &s3);
    }

    #[test]
    fn majority_consensus_splits_are_pairwise_compatible(
        seed in 0u64..100_000,
        n in 5usize..14,
        k in 2usize..7,
    ) {
        // k random trees on the same leaf set; the majority (>1/2) splits
        // must be pairwise compatible and the consensus realizable.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut f = SplitFrequencies::new();
        let mut first = None;
        for _ in 0..k {
            let t = random_tree_on_n(n, ShapeModel::Uniform, &mut rng);
            if first.is_none() {
                first = Some(t.clone());
            }
            f.add(&t);
        }
        let maj = f.majority_consensus().expect("trees were added");
        maj.validate().expect("valid consensus tree");
        prop_assert_eq!(maj.leaf_count(), n);
        let splits = nontrivial_splits(&maj);
        let taxa = maj.taxa();
        for i in 0..splits.len() {
            for j in i + 1..splits.len() {
                prop_assert!(splits[i].compatible_with(&splits[j], taxa));
            }
        }
        // With a single tree the consensus is that tree.
        if k == 1 {
            prop_assert!(topo_eq(&maj, &first.unwrap()));
        }
    }

    #[test]
    fn nexus_roundtrip_preserves_trees(seed in 0u64..100_000, n in 4usize..16, k in 1usize..4) {
        use phylo::nexus::{parse_nexus, write_nexus};
        use phylo::taxa::TaxonSet;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let taxa = TaxonSet::with_synthetic(n);
        let trees: Vec<(String, phylo::Tree)> = (0..k)
            .map(|i| (format!("t{i}"), random_tree_on_n(n, ShapeModel::Uniform, &mut rng)))
            .collect();
        let named: Vec<(String, &phylo::Tree)> =
            trees.iter().map(|(s, t)| (s.clone(), t)).collect();
        let out = write_nexus(&taxa, &named);
        let parsed = parse_nexus(&out).expect("own output parses");
        prop_assert_eq!(parsed.trees.len(), k);
        for ((name, tree), (pname, ptree)) in trees.iter().zip(&parsed.trees) {
            prop_assert_eq!(name, pname);
            prop_assert_eq!(
                phylo::newick::to_newick(tree, &taxa),
                phylo::newick::to_newick(ptree, &parsed.taxa)
            );
        }
    }

    #[test]
    fn pam_text_roundtrip(
        rows in proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, 6), 4..12),
    ) {
        use phylo::pam::Pam;
        use phylo::taxa::{TaxonId, TaxonSet};
        let n = rows.len();
        let taxa = TaxonSet::with_synthetic(n);
        let mut pam = Pam::new(n, 6);
        for (t, row) in rows.iter().enumerate() {
            for (l, &b) in row.iter().enumerate() {
                pam.set(TaxonId(t as u32), l, b);
            }
        }
        let text = pam.to_text(&taxa);
        let mut taxa2 = TaxonSet::new();
        let pam2 = Pam::parse_text(&text, &mut taxa2).expect("own output parses");
        prop_assert_eq!(pam, pam2);
    }

    #[test]
    fn hostile_labels_survive_newick_roundtrip(
        raw in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 0..8),
            1..6,
        ),
    ) {
        use phylo::newick::{parse_newick, to_newick};
        use phylo::taxa::TaxonSet;
        // Every Newick metacharacter plus whitespace and multi-byte UTF-8:
        // each must survive format_label → parser unchanged.
        const POOL: [char; 16] = [
            'a', 'Z', '0', ' ', '\t', '(', ')', ',', ':', ';', '\'', '[', ']', '_', 'é', '木',
        ];
        let labels: Vec<String> = raw
            .iter()
            .enumerate()
            .map(|(i, ix)| {
                let mut l: String = ix.iter().map(|&j| POOL[j]).collect();
                l.push_str(&format!("#{i}")); // unique and non-empty
                l
            })
            .collect();
        let mut taxa = TaxonSet::new();
        let ids: Vec<_> = labels.iter().map(|l| taxa.intern(l)).collect();
        let mut tree = phylo::Tree::new(taxa.len());
        match ids.len() {
            1 => {
                tree.add_node(Some(ids[0]));
            }
            2 => {
                let a = tree.add_node(Some(ids[0]));
                let b = tree.add_node(Some(ids[1]));
                tree.add_edge(a, b);
            }
            _ => {
                let hub = tree.add_node(None);
                for &id in &ids {
                    let n = tree.add_node(Some(id));
                    tree.add_edge(hub, n);
                }
            }
        }
        tree.validate().expect("constructed star tree is valid");
        let out = to_newick(&tree, &taxa);
        let re = parse_newick(&out, &taxa).expect("writer output must parse");
        prop_assert_eq!(re.leaf_count(), labels.len());
        for l in &labels {
            let id = taxa.get(l).expect("label interned");
            prop_assert!(re.leaf(id).is_some(), "label {:?} lost in roundtrip", l);
        }
        // Canonical form is stable across the round trip.
        prop_assert_eq!(to_newick(&re, &taxa), out);
    }

    #[test]
    fn phylo2vec_roundtrip_matches_newick_roundtrip(
        seed in 0u64..1_000_000,
        n in 3usize..40,
        holes in 0usize..6,
        sparse in proptest::bool::ANY,
    ) {
        use phylo::generate::random_tree;
        use phylo::newick::{parse_newick, to_newick};
        use phylo::phylo2vec;
        use phylo::taxa::{TaxonId, TaxonSet};
        use rand::seq::SliceRandom;
        use rand::Rng;
        let model = if seed % 2 == 0 { ShapeModel::Uniform } else { ShapeModel::Yule };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Sparse draws take their taxon ids from a universe three times
        // larger, in shuffled order, so the insertion order, the arena's
        // node order and the id order all differ.
        let universe = if sparse { 3 * n + holes } else { n + holes };
        let mut ids: Vec<TaxonId> = (0..universe as u32).map(TaxonId).collect();
        if sparse {
            ids.shuffle(&mut rng);
        }
        let (present, rest) = ids.split_at(n);
        let mut tree = random_tree(universe, present, model, &mut rng);
        // Arena holes: extra taxa inserted, then removed, leave dead slots
        // on both free lists.
        let mut undo = Vec::new();
        for &x in &rest[..holes] {
            let edges: Vec<_> = tree.edges().collect();
            undo.push(tree.insert_leaf_on_edge(x, edges[rng.gen_range(0..edges.len())]));
        }
        for ins in undo.iter().rev() {
            tree.remove_insertion(ins);
        }
        prop_assert_eq!(tree.node_id_bound(), tree.node_count() + 2 * holes);
        let taxa = TaxonSet::with_synthetic(universe);
        let nwk = to_newick(&tree, &taxa);

        // encode ∘ decode ≡ id, where identity is judged by the canonical
        // Newick form (two trees are equal iff their strings are).
        let tv = phylo2vec::encode(&tree).expect("binary tree encodes");
        prop_assert_eq!(tv.code.len(), n - 2);
        // The documented code bounds.
        for (j, &c) in tv.code.iter().enumerate() {
            prop_assert!(c < 2 * j as u32 + 1, "code[{}] = {} out of bound", j, c);
        }
        let back = tv.decode(universe).expect("own code decodes");
        prop_assert_eq!(to_newick(&back, &taxa), nwk.clone());

        // The codec agrees with the Newick round-trip: parsing the string
        // and encoding the parsed tree yields the identical code.
        let reparsed = parse_newick(&nwk, &taxa).expect("own output parses");
        let tv2 = phylo2vec::encode(&reparsed).expect("reparsed tree encodes");
        prop_assert_eq!(tv2.code, tv.code);
    }

    #[test]
    fn phylo2vec_roundtrip_with_hostile_labels(
        seed in 0u64..100_000,
        n in 3usize..24,
        raw in proptest::collection::vec(proptest::collection::vec(0usize..16, 0..8), 24),
    ) {
        use phylo::newick::{parse_newick, to_newick};
        use phylo::phylo2vec;
        use phylo::taxa::TaxonSet;
        // Codes are label-free, so hostile labels can only break the codec
        // through the Newick path it must agree with.
        const POOL: [char; 16] = [
            'a', 'Z', '0', ' ', '\t', '(', ')', ',', ':', ';', '\'', '[', ']', '_', 'é', '木',
        ];
        let mut taxa = TaxonSet::new();
        for (i, ix) in raw.iter().take(n).enumerate() {
            let mut l: String = ix.iter().map(|&j| POOL[j]).collect();
            l.push_str(&format!("#{i}"));
            taxa.intern(&l);
        }
        let tree = random_tree_on_n(n, ShapeModel::Uniform, &mut ChaCha8Rng::seed_from_u64(seed));
        let nwk = to_newick(&tree, &taxa);
        let reparsed = parse_newick(&nwk, &taxa).expect("hostile labels parse back");
        let tv = phylo2vec::encode(&reparsed).expect("reparsed tree encodes");
        let back = tv.decode(n).expect("code decodes");
        prop_assert_eq!(to_newick(&back, &taxa), nwk);
    }

    #[test]
    fn phylo2vec_every_valid_code_is_a_tree(
        picks in proptest::collection::vec(0u32..u32::MAX, 1..299),
    ) {
        use phylo::phylo2vec;
        use phylo::taxa::TaxonId;
        // Draw an arbitrary in-bounds code (code[j] < 2j + 1); it must
        // decode to a binary tree whose re-encoding is the same code —
        // i.e. the codec is a bijection onto valid codes.
        let code: Vec<u32> = picks
            .iter()
            .enumerate()
            .map(|(j, &p)| p % (2 * j as u32 + 1))
            .collect();
        let n = code.len() + 2;
        let ids: Vec<TaxonId> = (0..n as u32).map(TaxonId).collect();
        let tree = phylo2vec::decode(n, &ids, &code).expect("in-bounds code decodes");
        prop_assert!(tree.is_binary_unrooted());
        let tv = phylo2vec::encode(&tree).expect("decoded tree re-encodes");
        prop_assert_eq!(tv.code, code);
    }

    #[test]
    fn shape_stats_invariants(seed in 0u64..100_000, n in 4usize..40) {
        let tree = random_tree_on_n(n, ShapeModel::Yule, &mut ChaCha8Rng::seed_from_u64(seed));
        let s = shape_stats(&tree).expect("binary with >= 3 leaves");
        prop_assert!(s.cherries >= 2 || n == 3);
        prop_assert!(s.cherries <= n / 2 || n == 3);
        prop_assert!(s.max_depth as u64 <= s.sackin);
        // Sackin is at least the balanced-tree lower bound-ish: every
        // non-root leaf has depth >= 1.
        prop_assert!(s.sackin >= (n as u64).saturating_sub(1));
    }
}
