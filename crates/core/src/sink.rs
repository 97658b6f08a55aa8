//! Output sinks for enumerated stand trees.
//!
//! Gentrius's standard output is "the number of trees on the stand and
//! their topologies in the Newick tree format" (§II-A). Counting is always
//! done by the driver; sinks decide what to do with each complete topology.

use phylo::newick::to_newick;
use phylo::taxa::TaxonSet;
use phylo::tree::Tree;

/// Receives each complete stand tree as it is generated. The tree reference
/// is only valid during the call (the search immediately backtracks), so
/// implementations must copy whatever they keep.
pub trait StandSink {
    /// Called once per generated stand tree.
    fn stand_tree(&mut self, tree: &Tree);
}

/// Counting-only sink (the driver counts; this stores nothing).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountOnly;

impl StandSink for CountOnly {
    fn stand_tree(&mut self, _tree: &Tree) {}
}

/// Collects owned copies of the stand trees, up to a cap (stands can be
/// exponentially large; an uncapped collector is a footgun).
#[derive(Debug)]
pub struct CollectTrees {
    /// Collected trees, in generation order.
    pub trees: Vec<Tree>,
    cap: usize,
}

impl CollectTrees {
    /// Collector keeping at most `cap` trees.
    pub fn with_cap(cap: usize) -> Self {
        CollectTrees {
            trees: Vec::new(),
            cap,
        }
    }
}

impl StandSink for CollectTrees {
    fn stand_tree(&mut self, tree: &Tree) {
        if self.trees.len() < self.cap {
            self.trees.push(tree.clone());
        }
    }
}

/// Collects canonical Newick strings (cheap to compare across runs — the
/// serial/parallel stand-identity verification of §IV uses these).
pub struct CollectNewick<'a> {
    taxa: &'a TaxonSet,
    /// Canonical Newick strings, in generation order.
    pub out: Vec<String>,
    cap: usize,
}

impl<'a> CollectNewick<'a> {
    /// Collector keeping at most `cap` canonical strings.
    pub fn with_cap(taxa: &'a TaxonSet, cap: usize) -> Self {
        CollectNewick {
            taxa,
            out: Vec::new(),
            cap,
        }
    }
}

impl StandSink for CollectNewick<'_> {
    fn stand_tree(&mut self, tree: &Tree) {
        if self.out.len() < self.cap {
            self.out.push(to_newick(tree, self.taxa));
        }
    }
}

impl<F: FnMut(&Tree)> StandSink for F {
    fn stand_tree(&mut self, tree: &Tree) {
        self(tree)
    }
}

/// Batches stand-tree emission: buffers up to `batch` owned copies and
/// forwards them to the inner sink in one burst.
///
/// On blow-up instances the engine emits hundreds of thousands of stand
/// trees per second. The inner sink still runs on the worker that found
/// the trees, but in bursts of `batch`, so a sink with per-call overhead
/// (serialization, I/O) pays it once per burst instead of once per tree.
/// Buffered trees are recycled through a spare pool and refilled with
/// [`Tree`]'s field-wise `clone_from`, so steady-state batching reuses
/// every buffer and allocates nothing beyond the first `batch` clones.
///
/// Trees still in the buffer are flushed on [`Drop`], so no stand tree is
/// ever lost; use [`BatchingSink::into_inner`] to flush explicitly and
/// recover the wrapped sink. The drop-path flush is skipped while the
/// thread is panicking: forwarding to an arbitrary inner sink could panic
/// again and abort the process, turning a reportable worker panic into a
/// hard crash.
pub struct BatchingSink<S: StandSink> {
    inner: Option<S>,
    buf: Vec<Tree>,
    spare: Vec<Tree>,
    batch: usize,
}

impl<S: StandSink> BatchingSink<S> {
    /// Wraps `inner`, forwarding in bursts of `batch` trees (a `batch` of
    /// 0 or 1 degenerates to pass-through).
    pub fn new(inner: S, batch: usize) -> Self {
        BatchingSink {
            inner: Some(inner),
            buf: Vec::new(),
            spare: Vec::new(),
            batch: batch.max(1),
        }
    }

    /// Forwards every buffered tree to the inner sink, preserving
    /// generation order, and recycles the buffers.
    pub fn flush(&mut self) {
        if let Some(inner) = &mut self.inner {
            for t in &self.buf {
                inner.stand_tree(t);
            }
        }
        // Emptied buffers become spares; `stand_tree` refills them with
        // `clone_from` so steady-state batching reuses their allocations.
        self.spare.append(&mut self.buf);
    }

    /// Flushes any remaining trees and returns the wrapped sink.
    pub fn into_inner(mut self) -> S {
        self.flush();
        self.inner
            .take()
            // xlint: allow(panic-freedom) — `inner` is Some from construction until this consuming call; None here is internal invariant corruption, not a caller error.
            .expect("inner sink present until into_inner")
    }

    /// Number of trees currently buffered (for tests and diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

impl<S: StandSink> StandSink for BatchingSink<S> {
    fn stand_tree(&mut self, tree: &Tree) {
        match self.spare.pop() {
            Some(mut t) => {
                t.clone_from(tree);
                self.buf.push(t);
            }
            None => self.buf.push(tree.clone()),
        }
        if self.buf.len() >= self.batch {
            self.flush();
        }
    }
}

impl<S: StandSink> Drop for BatchingSink<S> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

/// Merges per-worker canonical Newick collections into one sorted stand
/// set. Parallel runs emit stand trees in a schedule-dependent order across
/// workers; the §IV identity check ("the parallel version generates the
/// same stand") only holds up to ordering, so comparisons must go through
/// this canonical form. Duplicates are kept: the engine must not generate
/// the same stand tree twice, and collapsing them here would hide that bug.
pub fn canonical_stand_set<I>(parts: I) -> Vec<String>
where
    I: IntoIterator,
    I::Item: IntoIterator<Item = String>,
{
    let mut all: Vec<String> = parts.into_iter().flatten().collect();
    all.sort();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectors_respect_caps() {
        let taxa = TaxonSet::with_synthetic(4);
        let t = Tree::two_leaf(4, phylo::TaxonId(0), phylo::TaxonId(1));
        let mut c = CollectTrees::with_cap(2);
        for _ in 0..5 {
            c.stand_tree(&t);
        }
        assert_eq!(c.trees.len(), 2);
        let mut n = CollectNewick::with_cap(&taxa, 3);
        for _ in 0..5 {
            n.stand_tree(&t);
        }
        assert_eq!(n.out.len(), 3);
        assert_eq!(n.out[0], "(T0,T1);");
    }

    #[test]
    fn canonical_stand_set_sorts_and_keeps_duplicates() {
        let merged = canonical_stand_set(vec![
            vec!["(T2,T3);".to_string(), "(T0,T1);".to_string()],
            vec!["(T0,T1);".to_string()],
            vec![],
        ]);
        assert_eq!(merged, vec!["(T0,T1);", "(T0,T1);", "(T2,T3);"]);
    }

    #[test]
    fn batching_sink_flushes_at_capacity_and_on_drop() {
        let taxa = TaxonSet::with_synthetic(4);
        let t = Tree::two_leaf(4, phylo::TaxonId(0), phylo::TaxonId(1));
        let mut b = BatchingSink::new(CollectNewick::with_cap(&taxa, 100), 3);
        b.stand_tree(&t);
        b.stand_tree(&t);
        assert_eq!(b.buffered(), 2, "below batch size nothing is forwarded");
        b.stand_tree(&t);
        assert_eq!(b.buffered(), 0, "third tree triggered the flush");
        b.stand_tree(&t);
        let inner = b.into_inner();
        assert_eq!(inner.out.len(), 4, "into_inner flushed the remainder");
        // Drop-path flush: buffered trees reach the inner sink even when
        // the wrapper is simply dropped.
        let mut count = 0usize;
        {
            let counter = |_: &Tree| count += 1;
            let mut b = BatchingSink::new(counter, 64);
            b.stand_tree(&t);
            b.stand_tree(&t);
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn batching_sink_preserves_generation_order() {
        let trees = [
            Tree::two_leaf(4, phylo::TaxonId(0), phylo::TaxonId(1)),
            Tree::two_leaf(4, phylo::TaxonId(2), phylo::TaxonId(3)),
            Tree::two_leaf(4, phylo::TaxonId(0), phylo::TaxonId(2)),
        ];
        let taxa = TaxonSet::with_synthetic(4);
        let mut b = BatchingSink::new(CollectNewick::with_cap(&taxa, 100), 2);
        for t in &trees {
            b.stand_tree(t);
        }
        let out = b.into_inner().out;
        assert_eq!(out, vec!["(T0,T1);", "(T2,T3);", "(T0,T2);"]);
    }

    #[test]
    fn batching_sink_skips_drop_flush_during_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t = Tree::two_leaf(4, phylo::TaxonId(0), phylo::TaxonId(1));
        let forwarded = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let counter = |_: &Tree| {
                forwarded.fetch_add(1, Ordering::SeqCst);
            };
            let mut b = BatchingSink::new(counter, 64);
            b.stand_tree(&t);
            panic!("worker failure with trees buffered");
        }));
        assert!(result.is_err());
        assert_eq!(
            forwarded.load(Ordering::SeqCst),
            0,
            "unwind-path drop must not forward into the inner sink"
        );
    }

    #[test]
    fn closure_sink() {
        let t = Tree::two_leaf(4, phylo::TaxonId(0), phylo::TaxonId(1));
        let mut count = 0usize;
        {
            let mut sink = |_: &Tree| count += 1;
            sink.stand_tree(&t);
            sink.stand_tree(&t);
        }
        assert_eq!(count, 2);
    }
}
