//! [`ContainerSink`]: a [`StandSink`] that streams stand trees straight to
//! a `.stand` container instead of collecting Newick strings in RAM.

use crate::container::{ContainerSummary, ContainerWriter, DEFAULT_BLOCK_CAPACITY};
use crate::StandfileError;
use gentrius_core::StandSink;
use phylo::phylo2vec::Encoder;
use phylo::taxa::{TaxonId, TaxonSet};
use phylo::tree::Tree;
use std::path::Path;

/// Streams each stand tree through a phylo2vec [`Encoder`] into a
/// [`ContainerWriter`]. Memory stays bounded by one partial block no matter
/// how many trees the stand holds.
///
/// The constructor is infallible because the parallel engine builds sinks
/// through an infallible `Fn(usize) -> S` factory: creation and encoding
/// errors are captured internally, further trees are dropped once an error
/// is latched, and the first error is surfaced by [`ContainerSink::finish`].
///
/// Announced completions ([`StandSink::completions`]) go to the encoder,
/// which then encodes each from its parent tree's cached analysis; every
/// code is encoded into one reused buffer. The parallel path wraps the sink
/// in `BatchingSink`, which hands it trees in bursts from recycled buffers
/// and no announcements, so it encodes each tree in full; encoding still
/// runs on the worker thread.
pub struct ContainerSink {
    writer: Option<ContainerWriter>,
    encoder: Encoder,
    code: Vec<u32>,
    err: Option<StandfileError>,
    pushed: u64,
}

impl ContainerSink {
    /// Opens a container at `path` over `taxa` with the default block
    /// capacity. Creation failure is latched, not returned (see type docs).
    pub fn create(path: &Path, taxa: &TaxonSet) -> ContainerSink {
        ContainerSink::with_capacity(path, taxa, DEFAULT_BLOCK_CAPACITY)
    }

    /// [`ContainerSink::create`] with an explicit trees-per-block cap.
    pub fn with_capacity(path: &Path, taxa: &TaxonSet, capacity: usize) -> ContainerSink {
        let (writer, err) = match ContainerWriter::with_capacity(path, taxa, capacity) {
            Ok(w) => (Some(w), None),
            Err(e) => (None, Some(e)),
        };
        ContainerSink {
            writer,
            encoder: Encoder::new(),
            code: Vec::new(),
            err,
            pushed: 0,
        }
    }

    /// Trees successfully encoded and pushed so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// True once an error has been latched (later trees are dropped).
    pub fn failed(&self) -> bool {
        self.err.is_some()
    }

    /// Flushes the final block, writes the footer, and returns the totals —
    /// or the first error encountered anywhere in the stream.
    pub fn finish(mut self) -> Result<ContainerSummary, StandfileError> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        match self.writer.take() {
            Some(w) => w.finish(),
            None => Err(StandfileError::Format {
                offset: 0,
                msg: "container sink already finished".to_string(),
            }),
        }
    }
}

impl StandSink for ContainerSink {
    fn stand_tree(&mut self, tree: &Tree) {
        if self.err.is_some() {
            return;
        }
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let result = self
            .encoder
            .encode_into(tree, &mut self.code)
            .map_err(StandfileError::from)
            .and_then(|()| writer.push_code(&self.code));
        match result {
            Ok(()) => self.pushed += 1,
            Err(e) => self.err = Some(e),
        }
    }

    fn completions(&mut self, parent: Option<(&Tree, TaxonId)>) {
        self.encoder.completions(parent);
    }
}
