//! The `.stand` container: append-only blocks of prefix-delta-coded tree
//! vectors with a random-access footer index.
//!
//! ## Layout (version 1)
//!
//! ```text
//! [0..8)  magic "GSTANDF1"
//! header  varint version (= 1)
//!         varint n                      — taxon count
//!         n x { varint len, utf8 }      — taxon names in TaxonId order
//!         varint block capacity         — max trees per block
//! blocks  varint payload length, then payload:
//!           varint k                    — trees in this block
//!           k x { varint shared, varint tail, tail x varint entry }
//!             — phylo2vec code, delta vs the previous tree of the SAME
//!               block (`shared` leading entries reused); the first tree
//!               of every block is stored in full, so blocks are
//!               self-contained and can be copied between containers
//! footer  varint B                      — block count
//!         B x { varint offset, varint trees }
//!         varint total trees
//!         u64-le footer offset
//!         magic "GSTANDIX"
//! ```
//!
//! Every multi-byte integer is LEB128 except the fixed-width footer offset,
//! which lets a reader find the index from the last 16 bytes alone. Offsets
//! in the index are absolute file positions of block length prefixes, so a
//! mapped or seeked reader can jump to any block; trees inside a block are
//! decoded sequentially (the delta chain resets at block boundaries).

use crate::varint::{read_u64, write_u64};
use crate::StandfileError;
use phylo::phylo2vec;
use phylo::taxa::{TaxonId, TaxonSet};
use phylo::tree::Tree;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Leading file magic (version byte folded into the name).
pub const MAGIC: &[u8; 8] = b"GSTANDF1";
/// Trailing file magic.
pub const END_MAGIC: &[u8; 8] = b"GSTANDIX";
/// Format version written into the header.
pub const VERSION: u64 = 1;
/// Default number of trees per block: large enough to amortize the length
/// prefix and delta reset, small enough that random access decodes little.
pub const DEFAULT_BLOCK_CAPACITY: usize = 1024;

fn format_err(offset: u64, msg: impl Into<String>) -> StandfileError {
    StandfileError::Format {
        offset,
        msg: msg.into(),
    }
}

/// One entry of the footer index.
#[derive(Clone, Copy, Debug)]
struct BlockEntry {
    /// Absolute file offset of the block's length prefix.
    offset: u64,
    /// Index of the block's first tree.
    first: u64,
    /// Trees stored in the block.
    trees: u64,
}

/// Totals reported when a writer finishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContainerSummary {
    /// Trees written.
    pub trees: u64,
    /// Blocks written.
    pub blocks: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming append-only writer. Trees go to disk block by block as they
/// are pushed; nothing is buffered beyond one partial block.
pub struct ContainerWriter {
    out: BufWriter<File>,
    path: PathBuf,
    /// Entries per tree code (`taxon count - 2`, saturating).
    code_len: usize,
    /// Header taxon names, kept for merge compatibility checks.
    names: Vec<String>,
    capacity: usize,
    /// Bytes written so far (= next block's offset).
    offset: u64,
    blocks: Vec<BlockEntry>,
    /// Encoded tree bodies of the current partial block.
    body: Vec<u8>,
    /// Trees in the current partial block.
    pending: u64,
    /// Previous code in the current block (delta reference).
    prev: Vec<u32>,
    total: u64,
    scratch: Vec<u8>,
}

impl ContainerWriter {
    /// Creates `path` and writes the header for `taxa` with the default
    /// block capacity.
    pub fn create(path: &Path, taxa: &TaxonSet) -> Result<ContainerWriter, StandfileError> {
        ContainerWriter::with_capacity(path, taxa, DEFAULT_BLOCK_CAPACITY)
    }

    /// [`ContainerWriter::create`] with an explicit trees-per-block cap
    /// (small capacities are useful in tests to force block boundaries).
    pub fn with_capacity(
        path: &Path,
        taxa: &TaxonSet,
        capacity: usize,
    ) -> Result<ContainerWriter, StandfileError> {
        let capacity = capacity.max(1);
        let file = File::create(path)?;
        let mut header = Vec::with_capacity(64);
        header.extend_from_slice(MAGIC);
        write_u64(&mut header, VERSION);
        write_u64(&mut header, taxa.len() as u64);
        for (_, name) in taxa.iter() {
            write_u64(&mut header, name.len() as u64);
            header.extend_from_slice(name.as_bytes());
        }
        write_u64(&mut header, capacity as u64);
        let mut out = BufWriter::new(file);
        out.write_all(&header)?;
        Ok(ContainerWriter {
            out,
            path: path.to_path_buf(),
            code_len: taxa.len().saturating_sub(2),
            names: taxa.iter().map(|(_, n)| n.to_string()).collect(),
            capacity,
            offset: header.len() as u64,
            blocks: Vec::new(),
            body: Vec::new(),
            pending: 0,
            prev: Vec::new(),
            total: 0,
            scratch: Vec::new(),
        })
    }

    /// The path this writer is producing.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Trees pushed so far.
    pub fn trees(&self) -> u64 {
        self.total + self.pending
    }

    /// Appends one tree code (must have exactly `taxon count - 2` entries,
    /// i.e. the tree must span the full header taxon set).
    pub fn push_code(&mut self, code: &[u32]) -> Result<(), StandfileError> {
        if code.len() != self.code_len {
            return Err(StandfileError::TaxaMismatch(format!(
                "tree code has {} entries, container needs {} (incomplete tree?)",
                code.len(),
                self.code_len
            )));
        }
        let shared = if self.pending == 0 {
            0
        } else {
            self.prev
                .iter()
                .zip(code.iter())
                .take_while(|(a, b)| a == b)
                .count()
        };
        write_u64(&mut self.body, shared as u64);
        write_u64(&mut self.body, (code.len() - shared) as u64);
        for &c in &code[shared..] {
            write_u64(&mut self.body, u64::from(c));
        }
        self.prev.clear();
        self.prev.extend_from_slice(code);
        self.pending += 1;
        if self.pending as usize >= self.capacity {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), StandfileError> {
        if self.pending == 0 {
            return Ok(());
        }
        self.scratch.clear();
        write_u64(&mut self.scratch, self.pending);
        let payload_len = self.scratch.len() + self.body.len();
        let mut frame = Vec::with_capacity(10);
        write_u64(&mut frame, payload_len as u64);
        self.out.write_all(&frame)?;
        self.out.write_all(&self.scratch)?;
        self.out.write_all(&self.body)?;
        self.blocks.push(BlockEntry {
            offset: self.offset,
            first: self.total,
            trees: self.pending,
        });
        self.offset += (frame.len() + payload_len) as u64;
        self.total += self.pending;
        self.pending = 0;
        self.body.clear();
        Ok(())
    }

    /// Copies every block of `src` into this container verbatim (blocks are
    /// self-contained, so no re-encoding happens). The taxon sets must be
    /// identical. Used to merge per-worker segments after a parallel run.
    pub fn append_container(&mut self, src: &mut Container) -> Result<(), StandfileError> {
        if src.taxa_names() != self.names {
            return Err(StandfileError::TaxaMismatch(
                "cannot merge containers over different taxon sets".to_string(),
            ));
        }
        // Close the current partial block first so tree order is preserved.
        self.flush_block()?;
        for i in 0..src.block_count() {
            let raw = src.raw_block(i)?;
            self.out.write_all(&raw.bytes)?;
            self.blocks.push(BlockEntry {
                offset: self.offset,
                first: self.total,
                trees: raw.trees,
            });
            self.offset += raw.bytes.len() as u64;
            self.total += raw.trees;
        }
        Ok(())
    }

    /// Flushes the last partial block, writes the footer index, and
    /// returns the totals.
    pub fn finish(mut self) -> Result<ContainerSummary, StandfileError> {
        self.flush_block()?;
        let footer_start = self.offset;
        let mut footer = Vec::new();
        write_u64(&mut footer, self.blocks.len() as u64);
        for b in &self.blocks {
            write_u64(&mut footer, b.offset);
            write_u64(&mut footer, b.trees);
        }
        write_u64(&mut footer, self.total);
        footer.extend_from_slice(&footer_start.to_le_bytes());
        footer.extend_from_slice(END_MAGIC);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        Ok(ContainerSummary {
            trees: self.total,
            blocks: self.blocks.len() as u64,
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A raw framed block (length prefix + payload) plus its tree count.
struct RawBlock {
    bytes: Vec<u8>,
    trees: u64,
    /// Position in `bytes` of the first tree's delta.
    body: usize,
}

/// Random-access reader over a finished `.stand` file.
///
/// The footer index is loaded eagerly (16 bytes + ~10 bytes per block);
/// tree blocks are read and delta-decoded on demand, with the most recent
/// block cached so sequential scans decode each block once.
pub struct Container {
    file: File,
    taxa: TaxonSet,
    code_len: usize,
    index: Vec<BlockEntry>,
    total: u64,
    /// File offset of the footer: every block must end at or before it.
    footer_start: u64,
    /// `(block index, decoded codes)` of the last block touched.
    cache: Option<(usize, Vec<Vec<u32>>)>,
}

impl Container {
    /// Opens and validates `path` (magic, version, footer index).
    pub fn open(path: &Path) -> Result<Container, StandfileError> {
        let mut file = File::open(path)?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(format_err(0, "not a gentrius stand container (bad magic)"));
        }
        // Header: read a bounded chunk and parse varints out of it. Headers
        // are small (names only); 1 MiB of labels is far beyond any input.
        let mut head = vec![0u8; 1 << 20];
        let got = read_up_to(&mut file, &mut head)?;
        head.truncate(got);
        let mut pos = 0usize;
        let version =
            read_u64(&head, &mut pos).ok_or_else(|| format_err(8, "truncated header (version)"))?;
        if version != VERSION {
            return Err(format_err(
                8,
                format!("unsupported container version {version} (reader supports {VERSION})"),
            ));
        }
        let n = read_u64(&head, &mut pos)
            .ok_or_else(|| format_err(8 + pos as u64, "truncated header (taxon count)"))?;
        let mut taxa = TaxonSet::new();
        for i in 0..n {
            let len = read_u64(&head, &mut pos).ok_or_else(|| {
                format_err(
                    8 + pos as u64,
                    format!("truncated header (name {i} length)"),
                )
            })? as usize;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= head.len())
                .ok_or_else(|| format_err(8 + pos as u64, "truncated header (name bytes)"))?;
            let name = std::str::from_utf8(&head[pos..end])
                .map_err(|_| format_err(8 + pos as u64, "taxon name is not UTF-8"))?;
            let id = taxa.intern(name);
            if id.index() as u64 != i {
                return Err(format_err(
                    8 + pos as u64,
                    format!("duplicate taxon name '{name}' in header"),
                ));
            }
            pos = end;
        }
        read_u64(&head, &mut pos)
            .ok_or_else(|| format_err(8 + pos as u64, "truncated header (block capacity)"))?;

        // Footer: fixed 16-byte trailer points at the index.
        let file_len = file.seek(SeekFrom::End(0))?;
        if file_len < 16 {
            return Err(format_err(file_len, "file too short for a footer"));
        }
        file.seek(SeekFrom::End(-16))?;
        let mut trailer = [0u8; 16];
        file.read_exact(&mut trailer)?;
        if &trailer[8..16] != END_MAGIC {
            return Err(format_err(
                file_len - 8,
                "missing end magic (truncated or unfinished container)",
            ));
        }
        let mut off8 = [0u8; 8];
        off8.copy_from_slice(&trailer[0..8]);
        let footer_start = u64::from_le_bytes(off8);
        if footer_start >= file_len {
            return Err(format_err(file_len - 16, "footer offset beyond file end"));
        }
        file.seek(SeekFrom::Start(footer_start))?;
        let mut footer = vec![0u8; (file_len - footer_start) as usize];
        file.read_exact(&mut footer)?;
        let mut pos = 0usize;
        let blocks = read_u64(&footer, &mut pos)
            .ok_or_else(|| format_err(footer_start, "truncated footer (block count)"))?;
        // Each index entry takes at least two varint bytes, so the count
        // is bounded by the footer bytes left before anything is allocated.
        let room = (footer.len() - pos) / 2;
        if blocks > room as u64 {
            return Err(format_err(
                footer_start,
                format!("footer claims {blocks} blocks but has room for at most {room}"),
            ));
        }
        let mut index = Vec::with_capacity(blocks as usize);
        let mut first = 0u64;
        for b in 0..blocks {
            let offset = read_u64(&footer, &mut pos).ok_or_else(|| {
                format_err(footer_start, format!("truncated footer (block {b} offset)"))
            })?;
            let trees = read_u64(&footer, &mut pos).ok_or_else(|| {
                format_err(footer_start, format!("truncated footer (block {b} count)"))
            })?;
            index.push(BlockEntry {
                offset,
                first,
                trees,
            });
            first = first.checked_add(trees).ok_or_else(|| {
                format_err(
                    footer_start,
                    format!("footer tree counts overflow at block {b}"),
                )
            })?;
        }
        let total = read_u64(&footer, &mut pos)
            .ok_or_else(|| format_err(footer_start, "truncated footer (total)"))?;
        if total != first {
            return Err(format_err(
                footer_start,
                format!("footer total {total} disagrees with block sum {first}"),
            ));
        }
        Ok(Container {
            file,
            taxa,
            code_len: (n as usize).saturating_sub(2),
            index,
            total,
            footer_start,
            cache: None,
        })
    }

    /// Number of trees stored.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if the container holds no trees.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of blocks stored.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// The taxon set the trees span (reconstructed from the header).
    pub fn taxa(&self) -> &TaxonSet {
        &self.taxa
    }

    /// Entries per tree code.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// Header taxon names in id order (for merge compatibility checks).
    pub fn taxa_names(&self) -> Vec<String> {
        self.taxa.iter().map(|(_, n)| n.to_string()).collect()
    }

    /// The framed bytes of block `i`, verbatim (for merge copies), after
    /// checking its two lengths against the bytes that hold them: the
    /// payload must end at or before the footer, which bounds the
    /// allocation by the file size, and the tree count must fit the
    /// payload (every tree takes at least its two `shared`/`tail` varint
    /// bytes) and agree with the index.
    fn raw_block(&mut self, i: usize) -> Result<RawBlock, StandfileError> {
        let entry = *self
            .index
            .get(i)
            .ok_or_else(|| format_err(0, format!("block {i} out of range")))?;
        let offset = entry.offset;
        self.file.seek(SeekFrom::Start(offset))?;
        // The length prefix is at most 10 bytes; read a small window first.
        let mut prefix = [0u8; 10];
        let got = read_up_to(&mut self.file, &mut prefix)?;
        let mut pos = 0usize;
        let payload_len = read_u64(&prefix[..got], &mut pos)
            .ok_or_else(|| format_err(offset, "truncated block length"))?;
        let room = self
            .footer_start
            .saturating_sub(offset.saturating_add(pos as u64));
        if payload_len > room {
            return Err(format_err(
                offset,
                format!("block {i} length {payload_len} runs past the footer ({room} bytes left)"),
            ));
        }
        let payload_len = payload_len as usize;
        let mut bytes = Vec::with_capacity(pos + payload_len);
        bytes.extend_from_slice(&prefix[..pos]);
        bytes.resize(pos + payload_len, 0);
        let already = got.saturating_sub(pos).min(payload_len);
        bytes[pos..pos + already].copy_from_slice(&prefix[pos..pos + already]);
        if already < payload_len {
            self.file
                .seek(SeekFrom::Start(offset + (pos + already) as u64))?;
            self.file.read_exact(&mut bytes[pos + already..])?;
        }
        let trees = read_u64(&bytes, &mut pos)
            .ok_or_else(|| format_err(offset, "truncated block tree count"))?;
        let room = (bytes.len() - pos) / 2;
        if trees > room as u64 {
            return Err(format_err(
                offset,
                format!("block {i} claims {trees} trees but has room for at most {room}"),
            ));
        }
        if trees != entry.trees {
            return Err(format_err(
                offset,
                format!(
                    "block {i} holds {trees} trees but the index says {}",
                    entry.trees
                ),
            ));
        }
        Ok(RawBlock {
            bytes,
            trees,
            body: pos,
        })
    }

    /// Decodes block `i` into full (un-deltaed) codes, via the cache.
    fn block_codes(&mut self, i: usize) -> Result<&[Vec<u32>], StandfileError> {
        if self.cache.as_ref().map(|(b, _)| *b) != Some(i) {
            let raw = self.raw_block(i)?;
            let (data, count, offset) = (&raw.bytes, raw.trees, self.index[i].offset);
            let mut pos = raw.body;
            let mut codes: Vec<Vec<u32>> = Vec::with_capacity(count as usize);
            let mut prev: Vec<u32> = Vec::new();
            for t in 0..count {
                let shared = read_u64(data, &mut pos)
                    .ok_or_else(|| format_err(offset, format!("truncated tree {t} (shared)")))?
                    as usize;
                let tail = read_u64(data, &mut pos)
                    .ok_or_else(|| format_err(offset, format!("truncated tree {t} (tail)")))?
                    as usize;
                if shared > prev.len() || shared.checked_add(tail) != Some(self.code_len) {
                    return Err(format_err(
                        offset,
                        format!(
                            "tree {t} delta (shared {shared} + tail {tail}) does not \
                             rebuild a {}-entry code",
                            self.code_len
                        ),
                    ));
                }
                let mut code = Vec::with_capacity(self.code_len);
                code.extend_from_slice(&prev[..shared]);
                for e in 0..tail {
                    let v = read_u64(data, &mut pos).ok_or_else(|| {
                        format_err(offset, format!("truncated tree {t} entry {e}"))
                    })?;
                    let v = u32::try_from(v).map_err(|_| {
                        format_err(offset, format!("tree {t} entry {e} exceeds u32"))
                    })?;
                    code.push(v);
                }
                prev.clear();
                prev.extend_from_slice(&code);
                codes.push(code);
            }
            self.cache = Some((i, codes));
        }
        match &self.cache {
            Some((_, codes)) => Ok(codes),
            None => Err(format_err(0, "block cache lost (internal)")),
        }
    }

    fn locate(&self, tree: u64) -> Result<(usize, usize), StandfileError> {
        if tree >= self.total {
            return Err(StandfileError::OutOfBounds {
                index: tree,
                len: self.total,
            });
        }
        // `tree < total` and an honest footer guarantee a covering block,
        // so running off the index means the footer's block ranges do not
        // cover the advertised tree count: a corrupt file, not a caller
        // error — surface it as such instead of clamping to the last block
        // and silently serving the wrong tree.
        let block = self.index.partition_point(|b| b.first + b.trees <= tree);
        if block >= self.index.len() {
            return Err(format_err(
                0,
                format!("tree {tree} not covered by the block index (corrupt footer?)"),
            ));
        }
        let within = (tree - self.index[block].first) as usize;
        Ok((block, within))
    }

    /// The phylo2vec code of tree `i`.
    pub fn code(&mut self, i: u64) -> Result<Vec<u32>, StandfileError> {
        let (block, within) = self.locate(i)?;
        let codes = self.block_codes(block)?;
        codes
            .get(within)
            .cloned()
            .ok_or_else(|| format_err(0, format!("tree {i} missing from its block")))
    }

    /// Tree `i`, rebuilt over the header taxon set.
    pub fn tree(&mut self, i: u64) -> Result<Tree, StandfileError> {
        let code = self.code(i)?;
        let ids: Vec<TaxonId> = (0..self.taxa.len() as u32).map(TaxonId).collect();
        Ok(phylo2vec::decode(self.taxa.len(), &ids, &code)?)
    }

    /// Tree `i` as canonical Newick.
    pub fn newick(&mut self, i: u64) -> Result<String, StandfileError> {
        let tree = self.tree(i)?;
        Ok(phylo::newick::to_newick(&tree, &self.taxa))
    }

    /// Streams the trees in `[start, end)` (clamped to the container) as
    /// canonical Newick, calling `f(index, newick)` for each. Blocks are
    /// decoded once; memory stays bounded by one block.
    pub fn for_each_newick<F>(
        &mut self,
        start: u64,
        end: u64,
        mut f: F,
    ) -> Result<(), StandfileError>
    where
        F: FnMut(u64, &str) -> Result<(), StandfileError>,
    {
        let end = end.min(self.total);
        if start >= end {
            return Ok(());
        }
        let ids: Vec<TaxonId> = (0..self.taxa.len() as u32).map(TaxonId).collect();
        let universe = self.taxa.len();
        let mut i = start;
        while i < end {
            let (block, mut within) = self.locate(i)?;
            let codes: Vec<Vec<u32>> = self.block_codes(block)?.to_vec();
            while within < codes.len() && i < end {
                let tree = phylo2vec::decode(universe, &ids, &codes[within])?;
                let nwk = phylo::newick::to_newick(&tree, &self.taxa);
                f(i, &nwk)?;
                i += 1;
                within += 1;
            }
        }
        Ok(())
    }
}

/// Reads as many bytes as the reader will give (for bounded-window parses
/// where EOF before the buffer fills is expected).
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Merges per-worker segment containers into one container at `dest`, in
/// segment order, deleting each segment after it is copied. Missing segment
/// paths are skipped (a worker that never emitted creates no file).
pub fn merge_segments(
    dest: &Path,
    taxa: &TaxonSet,
    segments: &[PathBuf],
) -> Result<ContainerSummary, StandfileError> {
    let mut writer = ContainerWriter::create(dest, taxa)?;
    for seg in segments {
        if !seg.exists() {
            continue;
        }
        let mut src = Container::open(seg)?;
        writer.append_container(&mut src)?;
        drop(src);
        std::fs::remove_file(seg)?;
    }
    writer.finish()
}
