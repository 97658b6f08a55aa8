//! `.standckpt` checkpoint sidecars — a durable image of the engine
//! frontier.
//!
//! A paused (or time-limited, or killed-and-restarted) parallel run is
//! resumable exactly when three things survive: the **problem** (taxa +
//! constraint trees), the **frontier** (every pending task's state
//! snapshot and branch subset), and the **progress so far** (cumulative
//! counters plus the finalized `.stand` segment files already written).
//! This module serializes all three into one self-contained sidecar file
//! next to the output container, reusing the container's wire conventions
//! (8-byte magic, LEB128 varints, end magic — see [`crate::container`]):
//!
//! ```text
//! "GSTANDC1"
//! varint version (= 1)
//! varint problem_hash           FNV-1a 64 over taxa + constraint newicks
//! varint mapping                0 recompute · 2 edge-indexed (1 is retired)
//! varint order_code             StateSnapshot::order_code
//! varint threads                worker count of the checkpointed run
//! varint initial_tree           constraint index of the initial agile tree
//! 3 × option<varint>            stopping rules (max_time in milliseconds)
//! 3 × varint                    cumulative stand trees / states / dead ends
//! varint generation             next epoch number (segment namespace)
//! string output                 the target .stand container path
//! vec<string> taxa              universe labels, id order
//! vec<string> constraints       constraint trees as Newick
//! vec<string> segments          finalized segment files written so far
//! vec<task>   frontier          pending task descriptors (see below)
//! u64-le checksum               FNV-1a 64 of every preceding byte
//! "GSTANDCX"
//! ```
//!
//! where `string` is `varint len + bytes`, `vec<x>` is `varint count + x*`,
//! `option<varint>` is a presence byte followed by the value, and a task is
//!
//! ```text
//! varint taxon · vec<varint> branches · varint depth
//! vec<varint> remaining · arena dump (see ArenaDump)
//! ```
//!
//! The arena dump serializes the agile tree *slot-for-slot* (live and dead
//! nodes/edges plus both free lists): branch ids in task descriptors are
//! arena edge indices, so a Newick round-trip — which renumbers the arena —
//! would corrupt them. Mapping-engine internals are deliberately **not**
//! serialized: the projection engines are deterministic functions of
//! `(problem, agile tree)` and are rebuilt from scratch on resume.
//!
//! Checkpoint files cross process boundaries (and crashes), so
//! [`Checkpoint::decode`] treats its input as hostile: truncation, a bad
//! magic, a corrupted byte (checksum), or a problem hash that does not
//! match the stored problem all surface as typed
//! [`StandfileError::Format`] values — never a panic.
//!
//! Durability ordering: the engine finalizes every segment container (its
//! footer makes it self-validating) *before* [`Checkpoint::write_atomic`]
//! publishes the checkpoint that references it via tmp-file + rename. A
//! crash between the two leaves unreferenced partial segments on disk,
//! which resume deletes before re-entering the engine.

use crate::varint::{read_u64, write_u64};
use crate::StandfileError;
use gentrius_core::config::{MappingMode, StoppingRules};
use gentrius_core::stats::RunStats;
use phylo::tree::{ArenaDump, DumpEdge, DumpNode};
use std::path::Path;
use std::time::Duration;

/// Leading magic of a `.standckpt` file.
pub const CKPT_MAGIC: &[u8; 8] = b"GSTANDC1";
/// Trailing magic (truncation guard).
pub const CKPT_END_MAGIC: &[u8; 8] = b"GSTANDCX";
const CKPT_VERSION: u64 = 1;

/// One pending task of the checkpointed frontier. `taxon`, `branches` and
/// `remaining` are raw wire ids (`TaxonId::0` / `EdgeId::0` values); the
/// resume side rebuilds typed values and validates them against the
/// reconstructed problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptTask {
    /// The taxon to insert at the task's state.
    pub taxon: u32,
    /// The pending admissible branches (arena edge ids).
    pub branches: Vec<u32>,
    /// Search depth of the descriptor (scheduler heuristics only).
    pub depth: u64,
    /// Taxa not yet inserted, in selection order.
    pub remaining: Vec<u32>,
    /// Faithful arena image of the task's agile tree.
    pub tree: ArenaDump,
}

/// A decoded (or to-be-encoded) checkpoint: run header, problem, progress
/// and frontier. See the module docs for the wire layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// FNV-1a 64 hash of `taxa` + `constraints`; [`Checkpoint::decode`]
    /// recomputes and rejects on mismatch.
    pub problem_hash: u64,
    /// The mapping-maintenance engine of the run.
    pub mapping: MappingMode,
    /// Order-engine wire code (`StateSnapshot::order_code`).
    pub order_code: u8,
    /// Worker count of the checkpointed run (overridable on resume).
    pub threads: usize,
    /// Constraint index the initial agile tree was copied from.
    pub initial_tree: usize,
    /// The run's stopping rules.
    pub stopping: StoppingRules,
    /// Cumulative counters over all completed epochs.
    pub stats: RunStats,
    /// Next epoch number — resumed segment files are namespaced under it
    /// so they can never collide with segments the checkpoint references.
    pub generation: u64,
    /// The target `.stand` container path.
    pub output: String,
    /// Taxon labels in id order.
    pub taxa: Vec<String>,
    /// Constraint trees as Newick over `taxa`.
    pub constraints: Vec<String>,
    /// Finalized segment containers holding the stand trees emitted so far.
    pub segments: Vec<String>,
    /// The pending frontier.
    pub tasks: Vec<CkptTask>,
}

/// FNV-1a 64 of `bytes` folded into `h` (offset-basis seeded by callers).
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The problem hash stored in (and verified against) a checkpoint: FNV-1a
/// 64 over the taxon labels and constraint Newick strings, each terminated
/// by a NUL so label boundaries cannot alias.
pub fn problem_hash(taxa: &[String], constraints: &[String]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in taxa.iter().chain(constraints.iter()) {
        h = fnv1a(h, s.as_bytes());
        h = fnv1a(h, &[0]);
    }
    h
}

fn write_opt(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            write_u64(buf, x);
        }
    }
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn write_strs(buf: &mut Vec<u8>, v: &[String]) {
    write_u64(buf, v.len() as u64);
    for s in v {
        write_str(buf, s);
    }
}

fn write_ids(buf: &mut Vec<u8>, v: &[u32]) {
    write_u64(buf, v.len() as u64);
    for &x in v {
        write_u64(buf, u64::from(x));
    }
}

fn write_dump(buf: &mut Vec<u8>, d: &ArenaDump) {
    write_u64(buf, d.universe as u64);
    write_u64(buf, d.nodes.len() as u64);
    for n in &d.nodes {
        let flags = u8::from(n.alive) | (u8::from(n.taxon.is_some()) << 1);
        buf.push(flags);
        if let Some(t) = n.taxon {
            write_u64(buf, u64::from(t));
        }
        write_ids(buf, &n.adj);
    }
    write_u64(buf, d.edges.len() as u64);
    for e in &d.edges {
        buf.push(u8::from(e.alive));
        write_u64(buf, u64::from(e.a));
        write_u64(buf, u64::from(e.b));
    }
    write_ids(buf, &d.free_nodes);
    write_ids(buf, &d.free_edges);
}

/// Bounded cursor over checkpoint bytes; every read is offset-tracked so
/// malformed input reports where it went wrong.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, msg: &str) -> StandfileError {
        StandfileError::Format {
            offset: self.pos as u64,
            msg: msg.to_string(),
        }
    }

    fn u64(&mut self, what: &str) -> Result<u64, StandfileError> {
        read_u64(self.data, &mut self.pos).ok_or_else(|| StandfileError::Format {
            offset: self.pos as u64,
            msg: format!("truncated or overlong varint ({what})"),
        })
    }

    fn usize(&mut self, what: &str) -> Result<usize, StandfileError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| self.err(&format!("{what} value {v} exceeds usize")))
    }

    fn u32(&mut self, what: &str) -> Result<u32, StandfileError> {
        let v = self.u64(what)?;
        u32::try_from(v).map_err(|_| self.err(&format!("{what} value {v} exceeds u32")))
    }

    fn byte(&mut self, what: &str) -> Result<u8, StandfileError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| self.err(&format!("truncated at {what}")))?;
        self.pos += 1;
        Ok(b)
    }

    fn opt(&mut self, what: &str) -> Result<Option<u64>, StandfileError> {
        match self.byte(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            b => Err(self.err(&format!("bad presence byte {b} for {what}"))),
        }
    }

    fn string(&mut self, what: &str) -> Result<String, StandfileError> {
        let len = self.usize(what)?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| self.err(&format!("string ({what}) runs past the end")))?;
        let s = std::str::from_utf8(&self.data[self.pos..end])
            .map_err(|_| self.err(&format!("string ({what}) is not UTF-8")))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    /// Reads a `vec<x>` count, bounding it by the bytes actually left so a
    /// hostile length cannot drive allocation (each element is ≥ 1 byte).
    fn count(&mut self, what: &str) -> Result<usize, StandfileError> {
        let n = self.usize(what)?;
        if n > self.data.len().saturating_sub(self.pos) {
            return Err(self.err(&format!("{what} count {n} exceeds the remaining bytes")));
        }
        Ok(n)
    }

    fn strings(&mut self, what: &str) -> Result<Vec<String>, StandfileError> {
        let n = self.count(what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.string(what)?);
        }
        Ok(out)
    }

    fn ids(&mut self, what: &str) -> Result<Vec<u32>, StandfileError> {
        let n = self.count(what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32(what)?);
        }
        Ok(out)
    }

    fn dump(&mut self) -> Result<ArenaDump, StandfileError> {
        let universe = self.usize("arena universe")?;
        let n_nodes = self.count("arena nodes")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let flags = self.byte("node flags")?;
            if flags > 3 {
                return Err(self.err(&format!("bad node flags {flags}")));
            }
            let taxon = if flags & 2 != 0 {
                Some(self.u32("node taxon")?)
            } else {
                None
            };
            nodes.push(DumpNode {
                alive: flags & 1 != 0,
                taxon,
                adj: self.ids("node adjacency")?,
            });
        }
        let n_edges = self.count("arena edges")?;
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            let alive = match self.byte("edge alive")? {
                0 => false,
                1 => true,
                b => return Err(self.err(&format!("bad edge-alive byte {b}"))),
            };
            edges.push(DumpEdge {
                alive,
                a: self.u32("edge endpoint a")?,
                b: self.u32("edge endpoint b")?,
            });
        }
        Ok(ArenaDump {
            universe,
            nodes,
            edges,
            free_nodes: self.ids("free nodes")?,
            free_edges: self.ids("free edges")?,
        })
    }
}

impl Checkpoint {
    /// Serializes the checkpoint to its wire form (including checksum and
    /// end magic).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(CKPT_MAGIC);
        write_u64(&mut buf, CKPT_VERSION);
        write_u64(&mut buf, self.problem_hash);
        let mode = match self.mapping {
            MappingMode::Recompute => 0u64,
            MappingMode::EdgeIndexed => 2,
        };
        write_u64(&mut buf, mode);
        write_u64(&mut buf, u64::from(self.order_code));
        write_u64(&mut buf, self.threads as u64);
        write_u64(&mut buf, self.initial_tree as u64);
        write_opt(&mut buf, self.stopping.max_stand_trees);
        write_opt(&mut buf, self.stopping.max_intermediate_states);
        write_opt(
            &mut buf,
            self.stopping
                .max_time
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        );
        write_u64(&mut buf, self.stats.stand_trees);
        write_u64(&mut buf, self.stats.intermediate_states);
        write_u64(&mut buf, self.stats.dead_ends);
        write_u64(&mut buf, self.generation);
        write_str(&mut buf, &self.output);
        write_strs(&mut buf, &self.taxa);
        write_strs(&mut buf, &self.constraints);
        write_strs(&mut buf, &self.segments);
        write_u64(&mut buf, self.tasks.len() as u64);
        for t in &self.tasks {
            write_u64(&mut buf, u64::from(t.taxon));
            write_ids(&mut buf, &t.branches);
            write_u64(&mut buf, t.depth);
            write_ids(&mut buf, &t.remaining);
            write_dump(&mut buf, &t.tree);
        }
        let checksum = fnv1a(FNV_OFFSET, &buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf.extend_from_slice(CKPT_END_MAGIC);
        buf
    }

    /// Parses and validates checkpoint bytes. Rejects (with a typed
    /// [`StandfileError::Format`], never a panic): a wrong or truncated
    /// magic, an unsupported version, a missing or mismatching trailing
    /// checksum/end magic, any truncated field, and a stored problem hash
    /// that does not match the stored taxa + constraints.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, StandfileError> {
        let fail = |offset: usize, msg: &str| StandfileError::Format {
            offset: offset as u64,
            msg: msg.to_string(),
        };
        if data.len() < CKPT_MAGIC.len() + 16 + CKPT_END_MAGIC.len() {
            return Err(fail(data.len(), "file too short for a checkpoint"));
        }
        if &data[..8] != CKPT_MAGIC {
            return Err(fail(0, "bad checkpoint magic"));
        }
        if &data[data.len() - 8..] != CKPT_END_MAGIC {
            return Err(fail(data.len() - 8, "missing end magic (truncated file?)"));
        }
        let body_end = data.len() - 16;
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&data[body_end..body_end + 8]);
        let stored_sum = u64::from_le_bytes(sum);
        if fnv1a(FNV_OFFSET, &data[..body_end]) != stored_sum {
            return Err(fail(body_end, "checksum mismatch (corrupted checkpoint)"));
        }
        let mut r = Reader {
            data: &data[..body_end],
            pos: 8,
        };
        let version = r.u64("version")?;
        if version != CKPT_VERSION {
            return Err(fail(
                8,
                &format!("unsupported checkpoint version {version}"),
            ));
        }
        let stored_hash = r.u64("problem hash")?;
        let mapping = match r.u64("mapping mode")? {
            0 => MappingMode::Recompute,
            2 => MappingMode::EdgeIndexed,
            // 1 named the removed patched-split engine.
            m => return Err(r.err(&format!("unknown mapping mode {m}"))),
        };
        let order_code = r.u64("order code")?;
        let order_code =
            u8::try_from(order_code).map_err(|_| r.err("order code exceeds one byte"))?;
        let threads = r.usize("threads")?;
        let initial_tree = r.usize("initial tree")?;
        let stopping = StoppingRules {
            max_stand_trees: r.opt("max stand trees")?,
            max_intermediate_states: r.opt("max intermediate states")?,
            max_time: r.opt("max time")?.map(Duration::from_millis),
        };
        let stats = RunStats {
            stand_trees: r.u64("stand trees")?,
            intermediate_states: r.u64("intermediate states")?,
            dead_ends: r.u64("dead ends")?,
        };
        let generation = r.u64("generation")?;
        let output = r.string("output path")?;
        let taxa = r.strings("taxa")?;
        let constraints = r.strings("constraints")?;
        let segments = r.strings("segments")?;
        if problem_hash(&taxa, &constraints) != stored_hash {
            return Err(fail(
                8,
                "problem hash does not match the stored taxa and constraints",
            ));
        }
        let n_tasks = r.count("tasks")?;
        let mut tasks = Vec::with_capacity(n_tasks);
        for _ in 0..n_tasks {
            tasks.push(CkptTask {
                taxon: r.u32("task taxon")?,
                branches: r.ids("task branches")?,
                depth: r.u64("task depth")?,
                remaining: r.ids("task remaining")?,
                tree: r.dump()?,
            });
        }
        if r.pos != body_end {
            return Err(fail(r.pos, "trailing garbage after the last task"));
        }
        Ok(Checkpoint {
            problem_hash: stored_hash,
            mapping,
            order_code,
            threads,
            initial_tree,
            stopping,
            stats,
            generation,
            output,
            taxa,
            constraints,
            segments,
            tasks,
        })
    }

    /// Writes the checkpoint durably: encode into `path` + `".tmp"`, then
    /// rename over `path`. Readers therefore only ever observe either the
    /// previous complete checkpoint or the new one — never a torn write.
    pub fn write_atomic(&self, path: &Path) -> Result<(), StandfileError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes a checkpoint file.
    pub fn read(path: &Path) -> Result<Checkpoint, StandfileError> {
        let data = std::fs::read(path)?;
        Checkpoint::decode(&data)
    }
}
