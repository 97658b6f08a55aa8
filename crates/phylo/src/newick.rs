//! Newick parsing and writing for unrooted trees.
//!
//! Input trees are accepted in rooted Newick form (the universal interchange
//! format); degree-2 vertices introduced by the rooting are suppressed so
//! the in-memory representation is properly unrooted. Branch lengths and
//! internal-node labels are parsed and discarded — stands are a purely
//! topological notion.
//!
//! Because the taxon universe must be shared across all trees of a dataset,
//! the primary entry point is [`parse_forest`], which interns every label
//! first and then builds all trees over the common universe.

use crate::taxa::{TaxonId, TaxonSet};
use crate::tree::{NodeId, Tree};

/// Parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NewickError {
    /// Byte position in the input string where the problem was detected.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for NewickError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "newick error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for NewickError {}

/// Intermediate rooted parse tree.
struct Parsed {
    label: Option<String>,
    children: Vec<Parsed>,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, NewickError> {
        Err(NewickError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn subtree(&mut self) -> Result<Parsed, NewickError> {
        self.skip_ws();
        let mut node = if self.peek() == Some(b'(') {
            self.pos += 1;
            let mut children = vec![self.subtree()?];
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        children.push(self.subtree()?);
                    }
                    Some(b')') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.err("expected ',' or ')'"),
                }
            }
            Parsed {
                label: None,
                children,
            }
        } else {
            Parsed {
                label: None,
                children: Vec::new(),
            }
        };
        // Optional label (required for leaves), optional :length. Labels
        // may be single-quoted per the Newick standard ('Homo sapiens',
        // with '' as the escaped quote).
        self.skip_ws();
        if self.peek() == Some(b'\'') {
            self.pos += 1;
            let start = self.pos;
            // Collect raw bytes and validate UTF-8 once at the end: pushing
            // bytes as chars would latin-1-mangle multi-byte labels.
            let mut label_bytes = Vec::new();
            loop {
                match self.peek() {
                    Some(b'\'') if self.bytes.get(self.pos + 1) == Some(&b'\'') => {
                        label_bytes.push(b'\'');
                        self.pos += 2;
                    }
                    Some(b'\'') => {
                        self.pos += 1;
                        break;
                    }
                    Some(c) => {
                        label_bytes.push(c);
                        self.pos += 1;
                    }
                    None => {
                        return Err(NewickError {
                            at: start,
                            msg: "unterminated quoted label".into(),
                        })
                    }
                }
            }
            let label = String::from_utf8(label_bytes).map_err(|_| NewickError {
                at: start,
                msg: "quoted label is not UTF-8".into(),
            })?;
            if label.is_empty() {
                return self.err("empty quoted label");
            }
            if node.children.is_empty() {
                node.label = Some(label);
            }
        } else {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if matches!(c, b'(' | b')' | b',' | b':' | b';') || c.is_ascii_whitespace() {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let label = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| NewickError {
                        at: start,
                        msg: "label is not UTF-8".into(),
                    })?
                    .to_string();
                if node.children.is_empty() {
                    node.label = Some(label);
                }
                // Internal labels (support values etc.) are discarded.
            } else if node.children.is_empty() {
                return self.err("expected a leaf label");
            }
        }
        self.skip_ws();
        if self.peek() == Some(b':') {
            self.pos += 1;
            let start = self.pos;
            while let Some(c) = self.peek() {
                if matches!(c, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == start {
                return self.err("expected branch length after ':'");
            }
        }
        Ok(node)
    }

    fn tree(&mut self) -> Result<Parsed, NewickError> {
        self.skip_ws();
        // A bare ";" (or nothing at all) is the empty tree — the form the
        // writer emits for zero-leaf trees, so it must parse back.
        if matches!(self.peek(), None | Some(b';')) {
            if self.peek() == Some(b';') {
                self.pos += 1;
            }
            self.skip_ws();
            if self.pos != self.bytes.len() {
                return self.err("trailing characters after tree");
            }
            return Ok(Parsed {
                label: None,
                children: Vec::new(),
            });
        }
        let t = self.subtree()?;
        self.skip_ws();
        if self.peek() == Some(b';') {
            self.pos += 1;
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing characters after tree");
        }
        Ok(t)
    }
}

fn collect_labels(p: &Parsed, out: &mut Vec<String>) {
    if let Some(l) = &p.label {
        out.push(l.clone());
    }
    for c in &p.children {
        collect_labels(c, out);
    }
}

/// Builds the arena for `p`'s subtree; returns the attachment handle, or
/// `None` for label-less childless nodes (cannot happen on valid input).
fn build(p: &Parsed, taxa: &TaxonSet, tree: &mut Tree) -> Result<NodeId, NewickError> {
    if p.children.is_empty() {
        // The grammar only accepts labelled leaves, but surface a parse
        // error rather than trusting that invariant with a panic.
        let Some(label) = p.label.as_ref() else {
            return Err(NewickError {
                at: 0,
                msg: "unlabelled leaf node".to_string(),
            });
        };
        let id = taxa.get(label).ok_or_else(|| NewickError {
            at: 0,
            msg: format!("label '{label}' not in taxon set"),
        })?;
        if tree.leaf(id).is_some() {
            return Err(NewickError {
                at: 0,
                msg: format!("duplicate taxon '{label}'"),
            });
        }
        return Ok(tree.add_node(Some(id)));
    }
    let mut handles = Vec::with_capacity(p.children.len());
    for c in &p.children {
        handles.push(build(c, taxa, tree)?);
    }
    if let [h] = handles.as_slice() {
        // Degree-2 vertex from the rooting: suppress by passing through.
        return Ok(*h);
    }
    let hub = tree.add_node(None);
    for h in handles {
        tree.add_edge(hub, h);
    }
    Ok(hub)
}

fn build_tree(p: &Parsed, taxa: &TaxonSet) -> Result<Tree, NewickError> {
    let mut tree = Tree::new(taxa.len());
    if p.children.is_empty() {
        if p.label.is_none() {
            return Ok(tree); // the empty tree (bare ";")
        }
        build(p, taxa, &mut tree)?;
        return Ok(tree);
    }
    if p.children.len() == 2 {
        // Rooted-binary convention: splice out the artificial root.
        let a = build(&p.children[0], taxa, &mut tree)?;
        let b = build(&p.children[1], taxa, &mut tree)?;
        tree.add_edge(a, b);
        return Ok(tree);
    }
    // 1 child (odd but legal: "((A,B));") or a multifurcating root.
    if p.children.len() == 1 {
        build(&p.children[0], taxa, &mut tree)?;
        return Ok(tree);
    }
    build(p, taxa, &mut tree)?;
    Ok(tree)
}

/// Parses one Newick string against an existing taxon universe. Every label
/// must already be interned (use [`parse_forest`] to bootstrap a universe).
pub fn parse_newick(s: &str, taxa: &TaxonSet) -> Result<Tree, NewickError> {
    let parsed = Parser::new(s).tree()?;
    let tree = build_tree(&parsed, taxa)?;
    tree.validate().map_err(|e| NewickError {
        at: 0,
        msg: format!("parsed structure invalid: {e}"),
    })?;
    Ok(tree)
}

/// Parses a whole dataset: interns all labels across all inputs first so
/// every tree shares one taxon universe, then builds each tree.
pub fn parse_forest<'a, I>(inputs: I) -> Result<(TaxonSet, Vec<Tree>), NewickError>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut parsed = Vec::new();
    for s in inputs {
        let s = s.trim();
        if s.is_empty() {
            continue;
        }
        parsed.push(Parser::new(s).tree()?);
    }
    let mut taxa = TaxonSet::new();
    let mut labels = Vec::new();
    for p in &parsed {
        labels.clear();
        collect_labels(p, &mut labels);
        for l in &labels {
            taxa.intern(l);
        }
    }
    let mut trees = Vec::with_capacity(parsed.len());
    for p in &parsed {
        let tree = build_tree(p, &taxa)?;
        tree.validate().map_err(|e| NewickError {
            at: 0,
            msg: format!("parsed structure invalid: {e}"),
        })?;
        trees.push(tree);
    }
    Ok((taxa, trees))
}

/// Quotes a label if it contains Newick metacharacters or whitespace
/// (single quotes are doubled, per the standard).
pub(crate) fn format_label(name: &str) -> String {
    let needs_quoting = name
        .chars()
        .any(|c| c.is_whitespace() || matches!(c, '(' | ')' | ',' | ':' | ';' | '\'' | '[' | ']'));
    if needs_quoting {
        format!("'{}'", name.replace('\'', "''"))
    } else {
        name.to_string()
    }
}

/// Serializes `tree` in canonical Newick form: rooted at the neighbour of
/// the smallest-id leaf, with sibling subtrees ordered by their smallest
/// taxon id. Two binary trees produce the same string iff they are
/// topologically equal, so the output doubles as a topology key.
pub fn to_newick(tree: &Tree, taxa: &TaxonSet) -> String {
    let mut s = String::new();
    match tree.leaf_count() {
        0 => {
            s.push(';');
            return s;
        }
        1 => {
            // Defensive: fall through to ";" rather than panic if the
            // leaf count and the leaf iterator ever disagree.
            if let Some((_, t)) = tree.leaves().next() {
                s.push_str(&format_label(taxa.name(t)));
                s.push(';');
            } else {
                s.push(';');
            }
            return s;
        }
        2 => {
            let mut ts: Vec<TaxonId> = tree.leaves().map(|(_, t)| t).collect();
            ts.sort_by_key(|t| t.index());
            s.push_str(&format!(
                "({},{});",
                format_label(taxa.name(ts[0])),
                format_label(taxa.name(ts[1]))
            ));
            return s;
        }
        _ => {}
    }
    let Some(min_member) = tree.taxa().min_member() else {
        s.push(';'); // leaf_count >= 3 but no taxa: degenerate, not a panic
        return s;
    };
    let min_taxon = TaxonId(min_member as u32);
    // Defensive, like the degenerate cases above: a taxon set naming a
    // taxon with no leaf node, or a leaf with no incident edge, means the
    // tree is inconsistent — render the empty topology, don't panic.
    let Some(start_leaf) = tree.leaf(min_taxon) else {
        s.push(';');
        return s;
    };
    let Some(&first_edge) = tree.adjacent_edges(start_leaf).first() else {
        s.push(';');
        return s;
    };
    let hub = tree.opposite(first_edge, start_leaf);

    // Render the unrooted tree as (min_leaf, rest...) rooted at `hub`.
    let mut parts: Vec<(usize, String)> =
        vec![(min_taxon.index(), format_label(taxa.name(min_taxon)))];
    for &e in tree.adjacent_edges(hub) {
        if e == first_edge {
            continue;
        }
        parts.push(render(tree, taxa, tree.opposite(e, hub), hub));
    }
    parts[1..].sort();
    s.push('(');
    for (i, (_, p)) in parts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(p);
    }
    s.push_str(");");
    s
}

/// Renders the subtree hanging below `v` (coming from `parent`); returns
/// `(min taxon id in subtree, newick fragment)` for canonical ordering.
fn render(tree: &Tree, taxa: &TaxonSet, v: NodeId, parent: NodeId) -> (usize, String) {
    if let Some(t) = tree.taxon(v) {
        return (t.index(), format_label(taxa.name(t)));
    }
    let mut parts: Vec<(usize, String)> = Vec::new();
    for &e in tree.adjacent_edges(v) {
        let w = tree.opposite(e, v);
        if w == parent {
            continue;
        }
        parts.push(render(tree, taxa, w, v));
    }
    parts.sort();
    let min = parts.first().map(|p| p.0).unwrap_or(usize::MAX);
    let mut s = String::from("(");
    for (i, (_, p)) in parts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(p);
    }
    s.push(')');
    (min, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::displays;
    use crate::split::topo_eq;

    #[test]
    fn parse_simple_quartet() {
        let (taxa, trees) = parse_forest(["((A,B),(C,D));"]).unwrap();
        assert_eq!(taxa.len(), 4);
        let t = &trees[0];
        assert_eq!(t.leaf_count(), 4);
        assert!(t.is_binary_unrooted());
        t.validate().unwrap();
    }

    #[test]
    fn parse_with_branch_lengths_and_support() {
        let (_, trees) = parse_forest(["((A:0.1,B:0.2)95:0.01,(C:1e-3,D:2.5)0.99:0.3);"]).unwrap();
        assert_eq!(trees[0].leaf_count(), 4);
        assert!(trees[0].is_binary_unrooted());
    }

    #[test]
    fn rooted_degree2_is_suppressed() {
        // Rooted version of the same quartet must equal the unrooted parse.
        let (taxa, trees) = parse_forest(["((A,B),(C,D));", "(((A,B),C),D);"]).unwrap();
        assert_eq!(taxa.len(), 4);
        // Both are quartets on {A,B,C,D}; first groups AB|CD, second too.
        assert!(topo_eq(&trees[0], &trees[1]));
    }

    #[test]
    fn multifurcation_is_parsed() {
        let (_, trees) = parse_forest(["(A,B,C,D);"]).unwrap();
        let t = &trees[0];
        assert_eq!(t.leaf_count(), 4);
        assert!(!t.is_binary_unrooted()); // star tree, degree-4 hub
        t.validate().unwrap();
    }

    #[test]
    fn forest_shares_universe() {
        let (taxa, trees) = parse_forest(["(A,(B,C));", "(B,(C,D));"]).unwrap();
        assert_eq!(taxa.len(), 4);
        assert_eq!(trees[0].universe(), 4);
        assert_eq!(trees[1].universe(), 4);
        assert_eq!(trees[0].leaf_count(), 3);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_forest(["((A,B),C"]).is_err()); // unclosed
        assert!(parse_forest(["(A,,B);"]).is_err()); // empty sibling
        assert!(parse_forest(["(A,A);"]).is_err()); // duplicate taxon
        assert!(parse_forest(["(A,B); junk"]).is_err()); // trailing garbage
    }

    #[test]
    fn roundtrip_canonical() {
        let inputs = ["((A,B),(C,D));", "(A,(B,(C,(D,E))));", "((A,E),((B,D),C));"];
        for s in inputs {
            let (taxa, trees) = parse_forest([s]).unwrap();
            let out = to_newick(&trees[0], &taxa);
            let re = parse_newick(&out, &taxa).unwrap();
            assert!(topo_eq(&trees[0], &re), "roundtrip failed for {s}: {out}");
        }
    }

    #[test]
    fn canonical_string_is_topology_key() {
        let (taxa, trees) = parse_forest(["((A,B),(C,D));", "((C,D),(B,A));"]).unwrap();
        assert_eq!(to_newick(&trees[0], &taxa), to_newick(&trees[1], &taxa));
        let (taxa2, trees2) = parse_forest(["((A,C),(B,D));", "((A,B),(C,D));"]).unwrap();
        assert_ne!(to_newick(&trees2[0], &taxa2), to_newick(&trees2[1], &taxa2));
    }

    #[test]
    fn single_and_two_leaf_output() {
        let (taxa, trees) = parse_forest(["(A,B);"]).unwrap();
        assert_eq!(to_newick(&trees[0], &taxa), "(A,B);");
    }

    #[test]
    fn empty_tree_roundtrips() {
        // Writer emits ";" for the zero-leaf tree; the parser must accept
        // it back (it used to reject with "expected a leaf label").
        let taxa = crate::taxa::TaxonSet::new();
        let empty = Tree::new(0);
        let s = to_newick(&empty, &taxa);
        assert_eq!(s, ";");
        let re = parse_newick(&s, &taxa).unwrap();
        assert_eq!(re.leaf_count(), 0);
        assert_eq!(re.node_count(), 0);
        // Bare and whitespace-padded forms too.
        assert_eq!(parse_newick("", &taxa).unwrap().leaf_count(), 0);
        assert_eq!(parse_newick("  ;  ", &taxa).unwrap().leaf_count(), 0);
    }

    #[test]
    fn single_leaf_roundtrips() {
        let (taxa, trees) = parse_forest(["A;"]).unwrap();
        assert_eq!(trees[0].leaf_count(), 1);
        let s = to_newick(&trees[0], &taxa);
        assert_eq!(s, "A;");
        let re = parse_newick(&s, &taxa).unwrap();
        assert_eq!(re.leaf_count(), 1);
        assert!(re.leaf(crate::taxa::TaxonId(0)).is_some());
    }

    #[test]
    fn two_leaf_roundtrips() {
        let (taxa, trees) = parse_forest(["(A,B);"]).unwrap();
        let s = to_newick(&trees[0], &taxa);
        let re = parse_newick(&s, &taxa).unwrap();
        assert_eq!(re.leaf_count(), 2);
        assert_eq!(to_newick(&re, &taxa), s);
    }

    #[test]
    fn display_relationship_survives_roundtrip() {
        let (taxa, trees) = parse_forest(["(((A,B),(C,D)),E);", "((A,B),C);"]).unwrap();
        assert!(displays(&trees[0], &trees[1]));
        let s = to_newick(&trees[0], &taxa);
        let re = parse_newick(&s, &taxa).unwrap();
        assert!(displays(&re, &trees[1]));
    }
}

#[cfg(test)]
mod quoted_tests {
    use super::*;

    #[test]
    fn quoted_labels_parse() {
        let (taxa, trees) =
            parse_forest(["(('Homo sapiens','Pan (bonobo)'),('O''Brien',D));"]).unwrap();
        assert_eq!(taxa.len(), 4);
        assert!(taxa.get("Homo sapiens").is_some());
        assert!(taxa.get("Pan (bonobo)").is_some());
        assert!(taxa.get("O'Brien").is_some());
        assert_eq!(trees[0].leaf_count(), 4);
        assert!(trees[0].is_binary_unrooted());
    }

    #[test]
    fn quoted_with_branch_lengths() {
        let (_, trees) = parse_forest(["(('A B':0.1,C:0.2),(D,E));"]).unwrap();
        assert_eq!(trees[0].leaf_count(), 4);
    }

    #[test]
    fn quoted_roundtrip() {
        let input = "(('Homo sapiens','O''Brien'),(C,'x:y'));";
        let (taxa, trees) = parse_forest([input]).unwrap();
        let out = to_newick(&trees[0], &taxa);
        assert!(out.contains("'Homo sapiens'"), "{out}");
        assert!(out.contains("'O''Brien'"), "{out}");
        let re = parse_newick(&out, &taxa).unwrap();
        assert!(crate::split::topo_eq(&trees[0], &re));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(parse_forest(["(('A B,C),(D,E));"]).is_err());
        assert!(parse_forest(["('',A,B);"]).is_err());
    }

    #[test]
    fn non_ascii_quoted_labels_are_not_mangled() {
        // Regression: the quoted-label loop used to push raw bytes as
        // chars, latin-1-mangling multi-byte UTF-8 ("sápiens" → "sÃ¡piens").
        let (taxa, trees) = parse_forest(["(('Homo sápiens','日本 ザル'),(C,D));"]).unwrap();
        assert!(taxa.get("Homo sápiens").is_some(), "label was mangled");
        assert!(taxa.get("日本 ザル").is_some(), "label was mangled");
        let out = to_newick(&trees[0], &taxa);
        let re = parse_newick(&out, &taxa).unwrap();
        assert!(crate::split::topo_eq(&trees[0], &re));
    }
}
