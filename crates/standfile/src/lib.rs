//! # gentrius-standfile — on-disk stand containers
//!
//! Stands are often too large to hold in RAM (§II: the number of trees
//! displaying a set of constraints can blow up exponentially), so this
//! crate stores them on disk in an append-only, block-compressed container
//! with random access by tree index:
//!
//! - each tree is reduced to its **phylo2vec code** (`n - 2` small
//!   integers, [`phylo::phylo2vec`]) instead of a Newick string;
//! - codes are packed into blocks of [`DEFAULT_BLOCK_CAPACITY`] trees,
//!   **prefix-delta** coded against the previous tree of the block (the
//!   enumeration emits long runs of near-identical codes, so most trees
//!   shrink to a few bytes) and LEB128 varint encoded;
//! - a footer index maps block → file offset, so `stand cat` can page any
//!   index range without scanning the file;
//! - blocks are self-contained (the delta chain resets at every block), so
//!   per-worker segment files from a parallel run merge by raw byte copy.
//!
//! The full wire format is specified in [`container`]. Producers stream
//! through [`ContainerSink`] (a `gentrius_core::StandSink`); consumers use
//! [`Container`] for random access or `for_each_newick` for bounded-memory
//! scans.

#![warn(missing_docs)]

pub mod ckpt;
pub mod container;
pub mod sink;
mod varint;

pub use ckpt::{Checkpoint, CkptTask};
pub use container::{
    concat_segments, merge_segments, Container, ContainerSummary, ContainerWriter,
    DEFAULT_BLOCK_CAPACITY,
};
pub use sink::ContainerSink;

use phylo::phylo2vec::P2vError;
use std::fmt;
use std::path::PathBuf;

/// Errors from writing, reading, or merging `.stand` containers.
#[derive(Debug)]
pub enum StandfileError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file bytes do not form a valid container.
    Format {
        /// Approximate file offset of the problem.
        offset: u64,
        /// What was wrong.
        msg: String,
    },
    /// A tree could not be encoded to / decoded from its phylo2vec code.
    Encode(P2vError),
    /// A tree or a merged segment spans a different taxon set than the
    /// container header.
    TaxaMismatch(String),
    /// A tree index past the end of the container was requested.
    OutOfBounds {
        /// The requested tree index.
        index: u64,
        /// The number of trees stored.
        len: u64,
    },
    /// A merge failed on one of its segment containers.
    Segment {
        /// The segment file.
        path: PathBuf,
        /// What was wrong with it.
        source: Box<StandfileError>,
    },
}

impl fmt::Display for StandfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StandfileError::Io(e) => write!(f, "stand container I/O error: {e}"),
            StandfileError::Format { offset, msg } => {
                write!(f, "malformed stand container at byte {offset}: {msg}")
            }
            StandfileError::Encode(e) => write!(f, "stand tree codec error: {e}"),
            StandfileError::TaxaMismatch(msg) => write!(f, "taxon set mismatch: {msg}"),
            StandfileError::OutOfBounds { index, len } => {
                write!(
                    f,
                    "tree index {index} out of bounds (container holds {len})"
                )
            }
            StandfileError::Segment { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for StandfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StandfileError::Io(e) => Some(e),
            StandfileError::Encode(e) => Some(e),
            StandfileError::Segment { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StandfileError {
    fn from(e: std::io::Error) -> Self {
        StandfileError::Io(e)
    }
}

impl From<P2vError> for StandfileError {
    fn from(e: P2vError) -> Self {
        StandfileError::Encode(e)
    }
}
