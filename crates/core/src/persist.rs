//! Index persistence: save a [`ScanIndex`] to disk and load it back.
//!
//! The whole point of GS*-Index-style clustering is to pay the `O((α +
//! log n)m)` construction cost once and answer many `(μ, ε)` queries
//! afterwards (§1, §3.2). Persisting the index extends that amortization
//! across program runs — and, through `parscan-store`, across *server*
//! runs: a restarted server warm-boots its working set from snapshots
//! instead of making every client re-pay construction.
//!
//! # Format v2 (written by [`ScanIndex::save`])
//!
//! Little-endian binary (consistent with the graph format in
//! `parscan_graph::io`), self-describing via a **section table** in the
//! header so future versions can add sections without breaking older
//! readers, and guarded by a trailing checksum so torn writes and bit
//! corruption are detected instead of silently producing wrong
//! clusterings:
//!
//! ```text
//! header (40 bytes):
//!   magic "PSCI" | version u32 = 2 | section_count u32 | reserved u32
//!   | n u64 | slots u64 | measure u8 | weighted u8 | pad [u8; 6]
//! section table: section_count × { id u32, reserved u32, offset u64, len u64 }
//! sections: each starting at a 64-byte-aligned file offset (zero padding
//!   between), lengths implied by n/slots and re-validated on load
//! trailer: fnv1a64 checksum of everything above, u64
//! ```
//!
//! Section offsets are absolute file offsets; readers locate sections
//! through the table, never by accumulation, so a v3 writer can append
//! new sections (ignored by v2 readers) or reorder existing ones freely.
//! The 64-byte alignment means a loader that maps the file instead of
//! reading it gets cache-line-aligned (and `u64`-aligned) array starts
//! for free.
//!
//! Loading performs **one sequential read** of the whole file into a
//! buffer, verifies the checksum, then copies each section into owned
//! buffers and re-validates the structures that query and update code
//! index by: the CSR invariants, the neighbor order, the core order's μ
//! offsets (which must be the suffix sums of the graph's degree
//! histogram) and its vertex ids (which must be below `n`). A crafted
//! file cannot panic or write out of bounds deep inside query code, and
//! a crafted length field is bounds-checked against the (already read)
//! file size before any allocation, so it cannot trigger an OOM either.
//!
//! # Crash safety
//!
//! [`ScanIndex::save`] never writes the destination in place: the bytes
//! go to a temporary file in the same directory, which is fsynced and
//! then atomically renamed over the destination (the directory is
//! fsynced too, so the rename itself survives a crash). A crash at any
//! point leaves either the complete old snapshot or the complete new one.
//! The helper is exported as [`atomic_write`] and reused by
//! `parscan-store` for its manifest.

use crate::core_order::CoreOrder;
use crate::index::ScanIndex;
use crate::neighbor_order::NeighborOrder;
use crate::similarity::SimilarityMeasure;
use crate::similarity_exact::EdgeSimilarities;
use parscan_graph::CsrGraph;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PSCI";
const VERSION: u32 = 2;
/// Fixed byte length of the v2 header (everything before the section
/// table).
const HEADER_BYTES: usize = 40;
/// Byte length of one section-table entry.
const TABLE_ENTRY_BYTES: usize = 24;
/// Every section starts at a multiple of this file offset.
const SECTION_ALIGN: usize = 64;

/// v2 section identifiers. Unknown ids are ignored by readers, which is
/// what makes the format forward-extensible.
mod section {
    pub const GRAPH_OFFSETS: u32 = 1;
    pub const GRAPH_NEIGHBORS: u32 = 2;
    pub const GRAPH_WEIGHTS: u32 = 3;
    pub const SIMILARITIES: u32 = 4;
    pub const NO_NEIGHBORS: u32 = 5;
    pub const NO_SIMILARITIES: u32 = 6;
    pub const CO_OFFSETS: u32 = 7;
    pub const CO_VERTICES: u32 = 8;
    pub const CO_THRESHOLDS: u32 = 9;
    /// Sorted distinct similarity values (the serving layer's
    /// ε-breakpoints), so a load never re-sorts the scores.
    pub const BREAKPOINTS: u32 = 10;
}

fn measure_tag(m: SimilarityMeasure) -> u8 {
    match m {
        SimilarityMeasure::Cosine => 0,
        SimilarityMeasure::Jaccard => 1,
        SimilarityMeasure::Dice => 2,
    }
}

fn measure_from_tag(t: u8) -> Option<SimilarityMeasure> {
    match t {
        0 => Some(SimilarityMeasure::Cosine),
        1 => Some(SimilarityMeasure::Jaccard),
        2 => Some(SimilarityMeasure::Dice),
        _ => None,
    }
}

/// 64-bit word-at-a-time checksum (FNV-style multiply-xor over 8-byte
/// little-endian words, splitmix finish). Not cryptographic — it guards
/// against accidental corruption, not adversaries. Word-wise processing
/// keeps save/load checksumming ~8× cheaper than per-byte FNV, which
/// matters because the checksum pass touches every byte of the index.
/// Shared with `parscan-store`'s manifest format.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x2545_f491_4f6c_dd1d);
        h ^= h >> 29;
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    h = (h ^ tail).wrapping_mul(0x2545_f491_4f6c_dd1d);
    h ^= h >> 32;
    h
}

/// Write `bytes` to `path` crash-safely: the payload goes to a unique
/// temporary file in the destination's directory, is fsynced, and is
/// atomically renamed over `path`; the directory is then fsynced so the
/// rename itself is durable. A crash at any point leaves either the old
/// file intact or the new file complete — never a torn mix. Used by
/// [`ScanIndex::save`] and by `parscan-store` for its registry manifest.
pub fn atomic_write<P: AsRef<Path>>(path: P, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| bad("destination path has no file name"))?;
    // Unique per process: concurrent savers to the same destination race
    // on the rename (last one wins, atomically), not on the temp file.
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };

    let result = (|| {
        failpoint::check("persist.create")?;
        let mut f = File::create(&tmp)?;
        failpoint::check("persist.write")?;
        // A `short(K)` policy tears the payload: only the first K bytes
        // land before the error — exactly what a full disk or a kill
        // mid-write leaves in the temp file.
        if let Some(accept) = failpoint::short_write("persist.write", bytes.len()) {
            f.write_all(&bytes[..accept])?;
            return Err(io::Error::other(format!(
                "injected short write: {accept} of {} bytes",
                bytes.len()
            )));
        }
        f.write_all(bytes)?;
        // Data must be on disk *before* the rename makes it reachable.
        failpoint::check("persist.sync")?;
        f.sync_all()?;
        drop(f);
        failpoint::check("persist.rename")?;
        std::fs::rename(&tmp, path)?;
        // Persist the directory entry for the rename. Failure here is
        // reported: the file content is safe, but durability of the name
        // change is not guaranteed without it.
        #[cfg(unix)]
        if let Some(d) = dir {
            failpoint::check("persist.dirsync")?;
            File::open(d)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Raw byte view of a numeric slice. Sound for `u32`/`f32`/`u64`/`usize`:
/// no padding, every bit pattern valid, alignment of `u8` is 1. Only
/// used as the *file* encoding on little-endian targets (the format is
/// little-endian); big-endian targets take the per-element conversion
/// paths below instead.
fn pod_bytes<T: Copy>(xs: &[T]) -> &[u8] {
    // SAFETY: see above — the slice's backing memory is exactly
    // `size_of_val(xs)` initialized bytes.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), std::mem::size_of_val(xs)) }
}

struct Buf(Vec<u8>);

impl Buf {
    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    /// Zero-pad to the next multiple of `align`.
    fn align(&mut self, align: usize) {
        let rem = self.0.len() % align;
        if rem != 0 {
            self.0.resize(self.0.len() + (align - rem), 0);
        }
    }
    // Array sections move as single memcpys on little-endian targets:
    // the in-memory representation already *is* the file encoding. This
    // is what makes save/load I/O-bound instead of encode-bound. (Both
    // branches compile everywhere; `cfg!` selects at compile time.)
    fn slice_u32(&mut self, xs: &[u32]) {
        if cfg!(target_endian = "little") {
            self.0.extend_from_slice(pod_bytes(xs));
        } else {
            self.0.reserve(xs.len() * 4);
            for &x in xs {
                self.0.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    fn slice_f32(&mut self, xs: &[f32]) {
        if cfg!(target_endian = "little") {
            self.0.extend_from_slice(pod_bytes(xs));
        } else {
            self.0.reserve(xs.len() * 4);
            for &x in xs {
                self.0.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    fn slice_usize_as_u64(&mut self, xs: &[usize]) {
        if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
            self.0.extend_from_slice(pod_bytes(xs));
        } else {
            self.0.reserve(xs.len() * 8);
            for &x in xs {
                self.0.extend_from_slice(&(x as u64).to_le_bytes());
            }
        }
    }
}

impl ScanIndex {
    /// Serialize the index (graph included) to `path` in format v2,
    /// crash-safely (see the module docs). The destination is replaced
    /// atomically: a crash mid-save leaves the previous snapshot intact.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let payload = self.to_snapshot_bytes();
        atomic_write(path, &payload)
    }

    /// The complete v2 snapshot (checksum trailer included) as bytes —
    /// the exact content [`ScanIndex::save`] writes. Exposed so callers
    /// that manage their own files (the store's benchmarks, tests) can
    /// reuse the format without touching the filesystem.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let g = self.graph();
        let (offsets, neighbors, weights) = g.parts();
        let slots = g.num_slots();
        let (no_nbr, no_sim) = self.neighbor_order().parts();
        let (co_offsets, co_vertices, co_thresholds) = self.core_order().parts();
        // Persisting the derived breakpoints trades a few percent of
        // snapshot size for skipping the distinct-similarity sort at
        // load time — the dominant non-I/O cost of warm-booting a graph.
        let breakpoints = self.similarities().breakpoints();

        // Sections in write order: (id, byte length). GRAPH_WEIGHTS is
        // simply absent for unweighted graphs — presence is what the
        // `weighted` header flag asserts and the reader cross-checks.
        let mut sections: Vec<(u32, usize)> = vec![
            (section::GRAPH_OFFSETS, offsets.len() * 8),
            (section::GRAPH_NEIGHBORS, neighbors.len() * 4),
        ];
        if let Some(ws) = weights {
            sections.push((section::GRAPH_WEIGHTS, ws.len() * 4));
        }
        sections.extend([
            (section::SIMILARITIES, slots * 4),
            (section::NO_NEIGHBORS, no_nbr.len() * 4),
            (section::NO_SIMILARITIES, no_sim.len() * 4),
            (section::CO_OFFSETS, co_offsets.len() * 8),
            (section::CO_VERTICES, co_vertices.len() * 4),
            (section::CO_THRESHOLDS, co_thresholds.len() * 4),
            (section::BREAKPOINTS, breakpoints.len() * 4),
        ]);

        // Lay out the table: each section starts at the next 64-byte
        // boundary after the previous one ends.
        let table_end = HEADER_BYTES + sections.len() * TABLE_ENTRY_BYTES;
        let mut at = table_end;
        let mut placed: Vec<(u32, usize, usize)> = Vec::with_capacity(sections.len());
        for &(id, len) in &sections {
            at = at.next_multiple_of(SECTION_ALIGN);
            placed.push((id, at, len));
            at += len;
        }
        let total = at + 8; // + checksum trailer

        let mut buf = Buf(Vec::with_capacity(total));
        buf.0.extend_from_slice(MAGIC);
        buf.u32(VERSION);
        buf.u32(sections.len() as u32);
        buf.u32(0); // reserved
        buf.u64(g.num_vertices() as u64);
        buf.u64(slots as u64);
        buf.0.push(measure_tag(self.measure()));
        buf.0.push(u8::from(weights.is_some()));
        buf.0.extend_from_slice(&[0u8; 6]); // pad to HEADER_BYTES
        debug_assert_eq!(buf.0.len(), HEADER_BYTES);
        for &(id, offset, len) in &placed {
            buf.u32(id);
            buf.u32(0); // reserved
            buf.u64(offset as u64);
            buf.u64(len as u64);
        }
        for &(id, offset, _) in &placed {
            buf.align(SECTION_ALIGN);
            debug_assert_eq!(buf.0.len(), offset);
            match id {
                section::GRAPH_OFFSETS => buf.slice_usize_as_u64(offsets),
                section::GRAPH_NEIGHBORS => buf.slice_u32(neighbors),
                section::GRAPH_WEIGHTS => buf.slice_f32(weights.expect("placed only if present")),
                section::SIMILARITIES => buf.slice_f32(self.similarities().as_slice()),
                section::NO_NEIGHBORS => buf.slice_u32(no_nbr),
                section::NO_SIMILARITIES => buf.slice_f32(no_sim),
                section::CO_OFFSETS => buf.slice_usize_as_u64(co_offsets),
                section::CO_VERTICES => buf.slice_u32(co_vertices),
                section::CO_THRESHOLDS => buf.slice_f32(co_thresholds),
                section::BREAKPOINTS => buf.slice_f32(breakpoints),
                _ => unreachable!("writer emits only known sections"),
            }
        }
        let checksum = checksum64(&buf.0);
        buf.u64(checksum);
        buf.0
    }

    /// Load an index previously written by [`ScanIndex::save`], verifying
    /// the checksum and structural invariants. The whole file is consumed
    /// in one sequential read.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<ScanIndex> {
        // `fs::read` sizes the buffer from file metadata up front —
        // no realloc-and-copy cycles while slurping a multi-GiB snapshot.
        let bytes = std::fs::read(path)?;
        ScanIndex::from_snapshot_bytes(&bytes)
    }

    /// Parse a snapshot from bytes already in memory (the counterpart of
    /// [`ScanIndex::to_snapshot_bytes`]).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> io::Result<ScanIndex> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(bad("file too short to be a parscan index"));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if checksum64(payload) != stored {
            return Err(bad("checksum mismatch: index file is corrupted"));
        }
        if &payload[..4] != MAGIC {
            return Err(bad("not a parscan index file"));
        }
        let version = u32::from_le_bytes(payload[4..8].try_into().unwrap());
        match version {
            VERSION => load_v2(payload),
            other => Err(bad(&format!("unsupported index version {other}"))),
        }
    }
}

/// Validate and assemble the sections the reader decoded. One parameter
/// per file section, by design — a struct would only restate the section
/// list.
#[allow(clippy::too_many_arguments)]
fn assemble(
    measure: SimilarityMeasure,
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    weights: Option<Vec<f32>>,
    sims: Vec<f32>,
    no_nbr: Vec<u32>,
    no_sim: Vec<f32>,
    co_offsets: Vec<usize>,
    co_vertices: Vec<u32>,
    co_thresholds: Vec<f32>,
    breakpoints: Vec<f32>,
) -> io::Result<ScanIndex> {
    let graph = CsrGraph::try_from_parts(offsets, neighbors, weights)
        .map_err(|e| bad(&format!("invalid graph in index file: {e}")))?;
    // Query code sets per-vertex flags at the core order's vertex ids,
    // and an update sizes each μ bucket from its old size, so both must
    // be what the graph implies. Thresholds and ties carry the same
    // trust as the persisted similarities (none is recomputed on load).
    if co_offsets != crate::core_order::mu_offsets(&graph) {
        return Err(bad("core-order offsets disagree with the graph's degrees"));
    }
    if co_vertices
        .iter()
        .max()
        .is_some_and(|&v| v as usize >= graph.num_vertices())
    {
        return Err(bad("core-order vertex id out of range"));
    }
    // A persisted breakpoint list must at least be strictly ascending —
    // the serving layer binary-searches it. Its *values* carry the same
    // trust as the persisted similarities themselves.
    if breakpoints.iter().any(|b| !b.is_finite()) || breakpoints.windows(2).any(|w| w[0] >= w[1]) {
        return Err(bad("breakpoints section is not strictly ascending"));
    }
    let similarities = EdgeSimilarities::from_per_slot_with_breakpoints(sims, breakpoints);
    let index = ScanIndex::from_existing_parts(
        graph,
        similarities,
        NeighborOrder::from_parts(no_nbr, no_sim),
        CoreOrder::from_parts(co_offsets, co_vertices, co_thresholds),
        measure,
    );
    index
        .neighbor_order()
        .validate(index.graph())
        .map_err(|e| bad(&format!("invalid neighbor order in index file: {e}")))?;
    Ok(index)
}

/// The v2 reader: header → section table → per-section owned buffers.
fn load_v2(payload: &[u8]) -> io::Result<ScanIndex> {
    if payload.len() < HEADER_BYTES {
        return Err(bad("index file truncated inside the header"));
    }
    let section_count = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let n = u64::from_le_bytes(payload[16..24].try_into().unwrap());
    let slots = u64::from_le_bytes(payload[24..32].try_into().unwrap());
    let measure =
        measure_from_tag(payload[32]).ok_or_else(|| bad("unknown similarity-measure tag"))?;
    let weighted = payload[33] != 0;
    // Bound the implied array lengths by the file size *before* any
    // arithmetic or allocation: a crafted n/slots cannot overflow the
    // expected-length math below or balloon an allocation.
    let file_len = payload.len() as u64;
    if n >= file_len || slots > file_len {
        return Err(bad("header n/slots exceed file size"));
    }
    let (n, slots) = (n as usize, slots as usize);

    // A corrupt section count must not allocate an absurd table.
    let table_end = HEADER_BYTES + section_count.saturating_mul(TABLE_ENTRY_BYTES);
    if section_count > payload.len() / TABLE_ENTRY_BYTES || table_end > payload.len() {
        return Err(bad("section table exceeds file size"));
    }
    // Locate each known section. Duplicates are rejected; unknown ids
    // are skipped (that is the forward-compatibility contract).
    let mut found: [Option<(usize, usize)>; 11] = [None; 11];
    for i in 0..section_count {
        let e = &payload[HEADER_BYTES + i * TABLE_ENTRY_BYTES..][..TABLE_ENTRY_BYTES];
        let id = u32::from_le_bytes(e[0..4].try_into().unwrap());
        let offset = u64::from_le_bytes(e[8..16].try_into().unwrap());
        let len = u64::from_le_bytes(e[16..24].try_into().unwrap());
        if offset > file_len || len > file_len - offset {
            return Err(bad(&format!("section {id} exceeds file size")));
        }
        if (offset as usize) < table_end {
            return Err(bad(&format!("section {id} overlaps the header")));
        }
        if let Some(slot) = found.get_mut(id as usize) {
            if slot.replace((offset as usize, len as usize)).is_some() {
                return Err(bad(&format!("duplicate section {id}")));
            }
        }
    }
    let take = |id: u32, expect_len: usize, what: &str| -> io::Result<&[u8]> {
        let (offset, len) =
            found[id as usize].ok_or_else(|| bad(&format!("missing section: {what} (id {id})")))?;
        if len != expect_len {
            return Err(bad(&format!(
                "section {what} has {len} bytes, expected {expect_len}"
            )));
        }
        Ok(&payload[offset..offset + len])
    };

    let offsets = vec_u64_as_usize(take(section::GRAPH_OFFSETS, (n + 1) * 8, "graph offsets")?);
    let neighbors = vec_u32(take(
        section::GRAPH_NEIGHBORS,
        slots * 4,
        "graph neighbors",
    )?);
    let weights = if weighted {
        Some(vec_f32(take(
            section::GRAPH_WEIGHTS,
            slots * 4,
            "graph weights",
        )?))
    } else if found[section::GRAPH_WEIGHTS as usize].is_some() {
        return Err(bad("weights section present but header says unweighted"));
    } else {
        None
    };
    let sims = vec_f32(take(section::SIMILARITIES, slots * 4, "similarities")?);
    let no_nbr = vec_u32(take(section::NO_NEIGHBORS, slots * 4, "NO neighbors")?);
    let no_sim = vec_f32(take(
        section::NO_SIMILARITIES,
        slots * 4,
        "NO similarities",
    )?);
    // CO_OFFSETS is the one section whose length is not implied by
    // n/slots; its element count is its byte length / 8 (already bounded
    // by the file size above).
    let (co_off_at, co_off_len) = found[section::CO_OFFSETS as usize]
        .ok_or_else(|| bad("missing section: CO offsets (id 7)"))?;
    if co_off_len % 8 != 0 {
        return Err(bad("CO offsets section length not a multiple of 8"));
    }
    let co_offsets = vec_u64_as_usize(&payload[co_off_at..co_off_at + co_off_len]);
    let co_vertices = vec_u32(take(section::CO_VERTICES, slots * 4, "CO vertices")?);
    let co_thresholds = vec_f32(take(section::CO_THRESHOLDS, slots * 4, "CO thresholds")?);
    // BREAKPOINTS, like CO_OFFSETS, has a length not implied by n/slots.
    let (bp_at, bp_len) = found[section::BREAKPOINTS as usize]
        .ok_or_else(|| bad("missing section: breakpoints (id 10)"))?;
    if bp_len % 4 != 0 {
        return Err(bad("breakpoints section length not a multiple of 4"));
    }
    let breakpoints = vec_f32(&payload[bp_at..bp_at + bp_len]);

    assemble(
        measure,
        offsets,
        neighbors,
        weights,
        sims,
        no_nbr,
        no_sim,
        co_offsets,
        co_vertices,
        co_thresholds,
        breakpoints,
    )
}

// The decode counterparts of `Buf`'s slice writers: one allocation plus
// one memcpy per section on little-endian targets. Trailing bytes that
// don't fill a whole element are ignored, matching `chunks_exact`.

/// Decode a section into an owned `Vec<T>` with exactly one pass over
/// memory: uninitialized allocation + `memcpy`, no zero-fill. Sound only
/// for padding-free any-bit-pattern element types (`u32`, `f32`, `u64`).
fn vec_pod<T: Copy>(raw: &[u8]) -> Vec<T> {
    let size = std::mem::size_of::<T>();
    let len = raw.len() / size;
    let mut out: Vec<T> = Vec::with_capacity(len);
    // SAFETY: the copy initializes exactly the `len * size` bytes that
    // `set_len` then claims; any bit pattern is a valid `T`.
    unsafe {
        std::ptr::copy_nonoverlapping(raw.as_ptr(), out.as_mut_ptr().cast::<u8>(), len * size);
        out.set_len(len);
    }
    out
}

fn vec_u32(raw: &[u8]) -> Vec<u32> {
    if cfg!(target_endian = "little") {
        vec_pod(raw)
    } else {
        raw.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

fn vec_f32(raw: &[u8]) -> Vec<f32> {
    if cfg!(target_endian = "little") {
        vec_pod(raw)
    } else {
        raw.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

fn vec_u64_as_usize(raw: &[u8]) -> Vec<usize> {
    if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
        vec_pod(raw)
    } else {
        raw.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
            .collect()
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use crate::query::QueryParams;
    use parscan_graph::generators;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "parscan_persist_test_{name}_{}",
            std::process::id()
        ));
        p
    }

    fn build_sample() -> ScanIndex {
        let (g, _) = generators::planted_partition(300, 3, 9.0, 1.0, 4);
        ScanIndex::build(g, IndexConfig::default())
    }

    /// Corrupt-and-reseal: apply `f` to the payload, recompute the
    /// trailing checksum so the corruption survives the checksum gate and
    /// exercises the *structural* validation behind it.
    fn reseal(bytes: &mut [u8], f: impl FnOnce(&mut [u8])) {
        let len = bytes.len();
        f(&mut bytes[..len - 8]);
        let sum = checksum64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_queries() {
        let idx = build_sample();
        let p = tmp("round_trip");
        idx.save(&p).unwrap();
        let loaded = ScanIndex::load(&p).unwrap();
        assert_eq!(loaded.measure(), idx.measure());
        assert_eq!(loaded.graph(), idx.graph());
        for (mu, eps) in [(2u32, 0.3f32), (3, 0.5), (5, 0.7)] {
            let params = QueryParams::new(mu, eps);
            assert_eq!(
                idx.cluster_with(params, crate::query::BorderAssignment::MostSimilar),
                loaded.cluster_with(params, crate::query::BorderAssignment::MostSimilar)
            );
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn round_trip_weighted_jaccard_tagged() {
        let (g, _) = generators::weighted_planted_partition(150, 2, 7.0, 1.0, 9);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let p = tmp("weighted");
        idx.save(&p).unwrap();
        let loaded = ScanIndex::load(&p).unwrap();
        assert!(loaded.graph().is_weighted());
        assert_eq!(loaded.graph(), idx.graph());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn sections_are_aligned_and_tabled() {
        let idx = build_sample();
        let bytes = idx.to_snapshot_bytes();
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        assert_eq!(count, 9, "unweighted index has 9 sections");
        for i in 0..count {
            let e = &bytes[HEADER_BYTES + i * TABLE_ENTRY_BYTES..][..TABLE_ENTRY_BYTES];
            let offset = u64::from_le_bytes(e[8..16].try_into().unwrap()) as usize;
            assert_eq!(offset % SECTION_ALIGN, 0, "section {i} misaligned");
            assert!(offset < bytes.len());
        }
    }

    #[test]
    fn breakpoints_round_trip_and_v1_recompute_agree() {
        let idx = build_sample();
        let want = idx.similarities().breakpoints().to_vec();
        assert!(want.windows(2).all(|w| w[0] < w[1]));
        // The file carries them verbatim...
        let loaded = ScanIndex::from_snapshot_bytes(&idx.to_snapshot_bytes()).unwrap();
        assert_eq!(loaded.similarities().breakpoints(), &want[..]);
        // ...and they equal a fresh sort of the loaded scores.
        let fresh = EdgeSimilarities::from_per_slot(loaded.similarities().as_slice().to_vec());
        assert_eq!(fresh.breakpoints(), &want[..]);
    }

    #[test]
    fn rejects_unsorted_breakpoints() {
        let idx = build_sample();
        let mut bytes = idx.to_snapshot_bytes();
        // Locate the breakpoints section via the table and swap its first
        // two values, then reseal so only structural validation can
        // object.
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let mut at = None;
        for i in 0..count {
            let e = &bytes[HEADER_BYTES + i * TABLE_ENTRY_BYTES..][..TABLE_ENTRY_BYTES];
            if u32::from_le_bytes(e[0..4].try_into().unwrap()) == section::BREAKPOINTS {
                at = Some(u64::from_le_bytes(e[8..16].try_into().unwrap()) as usize);
            }
        }
        let at = at.expect("v2 files carry a breakpoints section");
        reseal(&mut bytes, |p| {
            let (a, b) = (at, at + 4);
            for k in 0..4 {
                p.swap(a + k, b + k);
            }
        });
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("breakpoints"), "{err}");
    }

    #[test]
    fn detects_single_flipped_byte() {
        let idx = build_sample();
        let p = tmp("flip");
        idx.save(&p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a byte in the middle of the payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let err = ScanIndex::load(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn every_byte_flip_in_header_and_table_is_detected() {
        // Single-bit flips anywhere in the header or section table must
        // yield a typed error — through the checksum, or (when resealed)
        // through structural validation. Never a panic, never success.
        let idx = build_sample();
        let base = idx.to_snapshot_bytes();
        let table_end = HEADER_BYTES + 9 * TABLE_ENTRY_BYTES;
        for at in 0..table_end {
            // Unresealed: checksum catches it.
            let mut b = base.clone();
            b[at] ^= 0x01;
            assert!(
                ScanIndex::from_snapshot_bytes(&b).is_err(),
                "flip at {at} accepted"
            );
        }
    }

    #[test]
    fn detects_truncation_at_every_section_boundary() {
        let idx = build_sample();
        let bytes = idx.to_snapshot_bytes();
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let mut cuts = vec![0usize, 3, HEADER_BYTES - 1, HEADER_BYTES];
        for i in 0..count {
            let e = &bytes[HEADER_BYTES + i * TABLE_ENTRY_BYTES..][..TABLE_ENTRY_BYTES];
            let offset = u64::from_le_bytes(e[8..16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(e[16..24].try_into().unwrap()) as usize;
            cuts.extend([offset, offset + len.min(1), offset + len]);
        }
        cuts.push(bytes.len() - 9); // inside the checksum trailer
        for cut in cuts {
            let err = ScanIndex::from_snapshot_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "truncation at {cut} must be InvalidData"
            );
        }
    }

    #[test]
    fn crafted_section_length_is_rejected_without_allocation() {
        let idx = build_sample();
        // Corrupt the first section-table entry's length to an enormous
        // value and reseal the checksum: the reader must reject it by
        // bounds-checking against the file size, not by allocating.
        let mut bytes = idx.to_snapshot_bytes();
        reseal(&mut bytes, |p| {
            p[HEADER_BYTES + 16..HEADER_BYTES + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("exceeds file size"), "{err}");

        // Same for a crafted slots field in the header.
        let mut bytes = idx.to_snapshot_bytes();
        reseal(&mut bytes, |p| {
            p[24..32].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        });
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("exceed"), "{err}");

        // And a crafted section *count*.
        let mut bytes = idx.to_snapshot_bytes();
        reseal(&mut bytes, |p| {
            p[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("section table"), "{err}");
    }

    #[test]
    fn crafted_section_offset_is_rejected() {
        let idx = build_sample();
        // Point a section inside the header (overlap) and reseal.
        let mut bytes = idx.to_snapshot_bytes();
        reseal(&mut bytes, |p| {
            p[HEADER_BYTES + 8..HEADER_BYTES + 16].copy_from_slice(&4u64.to_le_bytes());
        });
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("overlaps the header"), "{err}");

        // Duplicate section id.
        let mut bytes = idx.to_snapshot_bytes();
        reseal(&mut bytes, |p| {
            let second = HEADER_BYTES + TABLE_ENTRY_BYTES;
            p.copy_within(HEADER_BYTES..HEADER_BYTES + 8, second);
        });
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("duplicate") || err.to_string().contains("missing"),
            "{err}"
        );
    }

    #[test]
    fn rejects_wrong_magic_and_measure() {
        let p = tmp("magic");
        // A valid-looking checksum over a bogus payload still fails on magic.
        let payload = b"XXXXjunkjunkjunk".to_vec();
        let mut bytes = payload.clone();
        bytes.extend_from_slice(&checksum64(&payload).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = ScanIndex::load(&p).unwrap_err();
        assert!(err.to_string().contains("not a parscan index"), "{err}");
        std::fs::remove_file(p).ok();

        // Unknown measure tag, checksum resealed.
        let idx = build_sample();
        let mut bytes = idx.to_snapshot_bytes();
        reseal(&mut bytes, |p| p[32] = 77);
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("measure"), "{err}");
    }

    #[test]
    fn rejects_future_version() {
        let idx = build_sample();
        let mut bytes = idx.to_snapshot_bytes();
        reseal(&mut bytes, |p| p[4] = 99);
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Version 1, whose reader is gone, is just as unsupported.
        reseal(&mut bytes, |p| p[4] = 1);
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported index version 1"),
            "{err}"
        );
    }

    /// File offset of section `id`, read from the snapshot's table.
    fn section_offset(bytes: &[u8], id: u32) -> usize {
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        (0..count)
            .map(|i| &bytes[HEADER_BYTES + i * TABLE_ENTRY_BYTES..][..TABLE_ENTRY_BYTES])
            .find(|e| u32::from_le_bytes(e[0..4].try_into().unwrap()) == id)
            .map(|e| u64::from_le_bytes(e[8..16].try_into().unwrap()) as usize)
            .expect("the section is present")
    }

    #[test]
    fn rejects_an_out_of_range_core_order_vertex() {
        let idx = build_sample();
        let mut bytes = idx.to_snapshot_bytes();
        let at = section_offset(&bytes, section::CO_VERTICES);
        reseal(&mut bytes, |p| {
            p[at..at + 4].copy_from_slice(&50_000_000u32.to_le_bytes());
        });
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("core-order vertex"), "{err}");
    }

    #[test]
    fn rejects_core_order_offsets_that_disagree_with_the_degrees() {
        // Still non-decreasing and ending at the entry count, so only the
        // check against the degree histogram can object.
        let idx = build_sample();
        let offsets = idx.core_order().parts().0;
        assert!(offsets[1] + 1 < offsets[2]);
        let mut bytes = idx.to_snapshot_bytes();
        let at = section_offset(&bytes, section::CO_OFFSETS) + 8;
        reseal(&mut bytes, |p| {
            p[at..at + 8].copy_from_slice(&(offsets[1] as u64 + 1).to_le_bytes());
        });
        let err = ScanIndex::from_snapshot_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("core-order offsets"), "{err}");
    }

    #[test]
    fn missing_file_is_not_found() {
        let err = ScanIndex::load("/definitely/not/here.pscidx").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = parscan_graph::from_edges(0, &[]);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let p = tmp("empty");
        idx.save(&p).unwrap();
        let loaded = ScanIndex::load(&p).unwrap();
        assert_eq!(loaded.graph().num_vertices(), 0);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn save_replaces_existing_snapshot_atomically() {
        // Overwriting a good snapshot goes through rename: at no point is
        // the destination a partial file, and the temp file is cleaned up.
        let idx = build_sample();
        let p = tmp("atomic_replace");
        idx.save(&p).unwrap();
        let first = std::fs::read(&p).unwrap();
        idx.save(&p).unwrap();
        let second = std::fs::read(&p).unwrap();
        assert_eq!(first, second, "identical index produces identical bytes");
        let dir = p.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                name.contains("atomic_replace") && name.contains(".tmp.")
            })
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn atomic_write_rejects_bad_destination() {
        assert!(atomic_write("/definitely/not/a/dir/x.bin", b"hi").is_err());
        // Root-relative files without a parent directory still work.
        let p = tmp("no_parent_case");
        atomic_write(&p, b"payload").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"payload");
        std::fs::remove_file(p).ok();
    }
}
