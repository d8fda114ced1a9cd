//! Graph serialization: whitespace edge-list text (interoperable with SNAP
//! dumps, which the paper's datasets ship as) and a compact little-endian
//! binary format for fast reload of generated benchmark inputs.
//! [`read_graph`] and [`write_graph`] pick between these and METIS
//! ([`crate::metis`]) by file extension.
//!
//! The text reader loads the whole file, cuts it into about eight chunks
//! per thread at newlines, and parses the chunks in parallel, keeping the
//! edges in file order. Lines of plain ASCII ids and at most one weight
//! take an allocation-free fast path; any other line goes through the
//! general per-line parser, so every line yields the same value or error
//! whatever the chunking, and the error reported is the file's first.
//!
//! Binary layout (all little-endian):
//! `magic "PSCG" | version u32 | weighted u8 | n u64 | slots u64 |
//!  offsets (n+1)×u64 | neighbors slots×u32 | [weights slots×f32]`

use crate::csr::{CsrGraph, VertexId};
use parscan_parallel::pool::num_threads;
use parscan_parallel::primitives::par_map;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PSCG";
const VERSION: u32 = 1;

/// The on-disk graph formats, told apart by file extension.
enum Format {
    /// `.bin`: this module's binary format.
    Binary,
    /// `.graph` / `.metis`: METIS adjacency lists.
    Metis,
    /// Anything else: a whitespace edge list.
    Text,
}

impl Format {
    fn of(path: &Path) -> Format {
        let name = path.to_string_lossy();
        if name.ends_with(".bin") {
            Format::Binary
        } else if name.ends_with(".graph") || name.ends_with(".metis") {
            Format::Metis
        } else {
            Format::Text
        }
    }
}

/// Read a graph file in the format its extension names: `.bin` (binary),
/// `.graph`/`.metis` (METIS), anything else a text edge list.
pub fn read_graph<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let path = path.as_ref();
    match Format::of(path) {
        Format::Binary => read_binary(path),
        Format::Metis => crate::metis::read_metis(path),
        Format::Text => read_edge_list_text(path, None),
    }
}

/// Write `g` in the format `path`'s extension names (see [`read_graph`]).
pub fn write_graph<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let path = path.as_ref();
    match Format::of(path) {
        Format::Binary => write_binary(g, path),
        Format::Metis => crate::metis::write_metis(g, path),
        Format::Text => write_edge_list_text(g, path),
    }
}

/// Write `g` as a text edge list (`u v` or `u v w` per line, canonical
/// `u < v` orientation, `#`-prefixed header).
pub fn write_edge_list_text<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(
        w,
        "# parscan edge list: n={} m={} weighted={}",
        g.num_vertices(),
        g.num_edges(),
        g.is_weighted()
    )?;
    for (u, v, slot) in g.canonical_edges() {
        if g.is_weighted() {
            writeln!(w, "{u} {v} {}", g.slot_weight(slot))?;
        } else {
            writeln!(w, "{u} {v}")?;
        }
    }
    w.flush()
}

/// Read a text edge list. Lines starting with `#` or `%` are comments.
/// Two columns ⇒ unweighted, three ⇒ weighted (further columns are
/// ignored). `n` is inferred as `max id + 1` unless `n_hint` supplies a
/// larger vertex count.
pub fn read_edge_list_text<P: AsRef<Path>>(path: P, n_hint: Option<usize>) -> io::Result<CsrGraph> {
    parse_edge_list(std::fs::read(path)?, n_hint, 8 * num_threads())
}

/// [`read_edge_list_text`] on the file's bytes, parsed as `n_chunks`
/// pieces cut at newlines. The bytes are freed before the CSR build.
fn parse_edge_list(bytes: Vec<u8>, n_hint: Option<usize>, n_chunks: usize) -> io::Result<CsrGraph> {
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| bad_data("stream did not contain valid UTF-8".into()))?;
    let pieces = split_at_newlines(text, n_chunks);
    let parsed = par_map(pieces.len(), 1, |c| parse_chunk(pieces[c]));
    let mut edges = Vec::with_capacity(parsed.iter().flatten().map(|c| c.edges.len()).sum());
    let (mut weighted, mut max_id) = (false, 0);
    // Chunks are in file order, so the first error is the file's first.
    for chunk in parsed {
        let chunk = chunk?;
        edges.extend_from_slice(&chunk.edges);
        weighted |= chunk.weighted;
        max_id = max_id.max(chunk.max_id);
    }
    drop(bytes);
    let n = n_hint.unwrap_or(0).max(if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    });
    Ok(crate::builder::build(
        n,
        edges.len(),
        |i| edges[i],
        weighted,
    ))
}

/// Cut `text` into at most `n_chunks` non-empty pieces, each ending just
/// after a newline (the last at the end of the text).
fn split_at_newlines(text: &str, n_chunks: usize) -> Vec<&str> {
    let bytes = text.as_bytes();
    let n_chunks = n_chunks.max(1);
    let mut pieces = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for k in 1..=n_chunks {
        let target = (bytes.len() / n_chunks * k).max(start);
        let end = match bytes[target..].iter().position(|&b| b == b'\n') {
            Some(at) if k < n_chunks => target + at + 1,
            _ => bytes.len(),
        };
        if end > start {
            // A cut just after `\n` is always a char boundary.
            pieces.push(&text[start..end]);
            start = end;
        }
    }
    pieces
}

/// The edges of one chunk of an edge list, in line order.
struct Chunk {
    edges: Vec<(VertexId, VertexId, f32)>,
    /// Some line has a weight column.
    weighted: bool,
    max_id: VertexId,
}

/// One line of an edge list.
#[derive(Debug, PartialEq)]
enum Line {
    /// Blank or a comment.
    Skip,
    Edge(VertexId, VertexId, Option<f32>),
}

fn parse_chunk(text: &str) -> io::Result<Chunk> {
    let mut chunk = Chunk {
        edges: Vec::with_capacity(text.len() / 8),
        weighted: false,
        max_id: 0,
    };
    for line in text.split('\n') {
        let line = match parse_line_fast(line.as_bytes()) {
            Some(parsed) => parsed,
            None => parse_line(line)?,
        };
        if let Line::Edge(u, v, w) = line {
            chunk.weighted |= w.is_some();
            chunk.max_id = chunk.max_id.max(u).max(v);
            chunk.edges.push((u, v, w.unwrap_or(1.0)));
        }
    }
    Ok(chunk)
}

/// The common line shape without decoding: two ids of ASCII digits
/// within `u32` and at most one weight token that `f32` parses, separated
/// by spaces, tabs and `\r`. `None` hands the line to [`parse_line`],
/// which takes everything else (a `+7` id, other whitespace, a fourth
/// column) and words every error.
fn parse_line_fast(line: &[u8]) -> Option<Line> {
    let mut at = skip_separators(line, 0);
    if matches!(line.get(at), None | Some(b'#' | b'%')) {
        return Some(Line::Skip);
    }
    let u = parse_id(line, &mut at)?;
    let v = parse_id(line, &mut at)?;
    if at == line.len() {
        return Some(Line::Edge(u, v, None));
    }
    let start = at;
    while at < line.len() && !is_separator(line[at]) {
        at += 1;
    }
    let w = std::str::from_utf8(&line[start..at])
        .ok()?
        .parse::<f32>()
        .ok()?;
    (skip_separators(line, at) == line.len()).then_some(Line::Edge(u, v, Some(w)))
}

fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r')
}

fn skip_separators(line: &[u8], mut at: usize) -> usize {
    while at < line.len() && is_separator(line[at]) {
        at += 1;
    }
    at
}

/// The id token at `line[*at..]`: ASCII digits ending at a separator or
/// the end of the line, within `u32`. Moves `at` past the token and the
/// separators after it.
fn parse_id(line: &[u8], at: &mut usize) -> Option<VertexId> {
    let start = *at;
    let mut id = 0u64;
    while let Some(&d) = line.get(*at).filter(|d| d.is_ascii_digit()) {
        if *at - start == 10 {
            return None;
        }
        id = id * 10 + u64::from(d - b'0');
        *at += 1;
    }
    if *at == start || line.get(*at).is_some_and(|&b| !is_separator(b)) {
        return None;
    }
    *at = skip_separators(line, *at);
    VertexId::try_from(id).ok()
}

/// The general per-line parser: any Unicode whitespace, ids `u64`
/// parses, and the error message for every malformed line.
fn parse_line(line: &str) -> io::Result<Line> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(Line::Skip);
    }
    let mut it = t.split_whitespace();
    let u: u64 = parse_field(it.next(), t)?;
    let v: u64 = parse_field(it.next(), t)?;
    let w = match it.next() {
        Some(ws) => Some(
            ws.parse::<f32>()
                .map_err(|e| bad_data(format!("bad weight {ws:?}: {e}")))?,
        ),
        None => None,
    };
    match (VertexId::try_from(u), VertexId::try_from(v)) {
        (Ok(u), Ok(v)) => Ok(Line::Edge(u, v, w)),
        _ => Err(bad_data(format!("vertex id too large in line {t:?}"))),
    }
}

fn parse_field(field: Option<&str>, line: &str) -> io::Result<u64> {
    field
        .ok_or_else(|| bad_data(format!("missing field in line {line:?}")))?
        .parse::<u64>()
        .map_err(|e| bad_data(format!("bad vertex id in line {line:?}: {e}")))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write the binary format.
pub fn write_binary<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let (offsets, neighbors, weights) = g.parts();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&[u8::from(weights.is_some())])?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(neighbors.len() as u64).to_le_bytes())?;
    for &o in offsets {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &x in neighbors {
        w.write_all(&x.to_le_bytes())?;
    }
    if let Some(ws) = weights {
        for &x in ws {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Bytes of a binary file whose header reads `n` vertices, `slots` slots
/// and `weighted`; `None` when that length overflows `u64`.
fn binary_file_len(n: u64, slots: u64, weighted: bool) -> Option<u64> {
    let slot_bytes = if weighted { 8 } else { 4 };
    n.checked_add(1)?
        .checked_mul(8)?
        .checked_add(slots.checked_mul(slot_bytes)?)?
        .checked_add(25)
}

/// Read the binary format, validating structure.
pub fn read_binary<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad_data("not a parscan binary graph".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(bad_data(format!("unsupported version {version}")));
    }
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let weighted = flag[0] != 0;
    let (n, slots) = (read_u64(&mut r)?, read_u64(&mut r)?);
    // The header's lengths must account for the file exactly, checked
    // before any allocation: a crafted n or slots cannot balloon one.
    if binary_file_len(n, slots, weighted) != Some(file_len) {
        return Err(bad_data(format!(
            "header (n = {n}, slots = {slots}) does not match the file's {file_len} bytes"
        )));
    }
    let (n, slots) = (n as usize, slots as usize);
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(read_u64(&mut r)? as usize);
    }
    let mut neighbors = Vec::with_capacity(slots);
    for _ in 0..slots {
        neighbors.push(read_u32(&mut r)?);
    }
    let weights = if weighted {
        let mut ws = Vec::with_capacity(slots);
        for _ in 0..slots {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)?;
            ws.push(f32::from_le_bytes(b));
        }
        Some(ws)
    } else {
        None
    };
    CsrGraph::try_from_parts(offsets, neighbors, weights).map_err(bad_data)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parscan_io_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn text_round_trip_unweighted() {
        let g = generators::erdos_renyi(200, 800, 5);
        let p = tmp("text_unw");
        write_edge_list_text(&g, &p).unwrap();
        let h = read_edge_list_text(&p, Some(200)).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn text_round_trip_weighted() {
        let (g, _) = generators::weighted_planted_partition(150, 3, 8.0, 1.0, 2);
        let p = tmp("text_w");
        write_edge_list_text(&g, &p).unwrap();
        let h = read_edge_list_text(&p, Some(150)).unwrap();
        assert_eq!(g.num_edges(), h.num_edges());
        // Weights survive within f32 text precision.
        for (u, v, slot) in g.canonical_edges() {
            let hs = h.slot_of(u, v).expect("edge preserved");
            assert!((g.slot_weight(slot) - h.slot_weight(hs)).abs() < 1e-5);
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_round_trip() {
        let g = generators::rmat(10, 8, 3);
        let p = tmp("bin");
        write_binary(&g, &p).unwrap();
        let h = read_binary(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_round_trip_weighted() {
        let (g, _) = generators::weighted_planted_partition(100, 2, 6.0, 1.0, 8);
        let p = tmp("bin_w");
        write_binary(&g, &p).unwrap();
        let h = read_binary(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn extension_picks_the_format_both_ways() {
        type Reader = fn(&Path) -> io::Result<CsrGraph>;
        let formats: [(&str, Reader); 4] = [
            ("bin", |p| read_binary(p)),
            ("graph", |p| crate::metis::read_metis(p)),
            ("metis", |p| crate::metis::read_metis(p)),
            ("txt", |p| read_edge_list_text(p, None)),
        ];
        let unweighted = generators::erdos_renyi(200, 1500, 5);
        let (weighted, _) = generators::weighted_planted_partition(150, 3, 8.0, 1.0, 2);
        for (ext, read_as) in formats {
            for g in [&unweighted, &weighted] {
                let p = tmp(&format!("dispatch_w{}", g.is_weighted())).with_extension(ext);
                write_graph(g, &p).unwrap();
                assert_eq!(&read_graph(&p).unwrap(), g, ".{ext}");
                // The file really is in the extension's format.
                assert_eq!(&read_as(&p).unwrap(), g, ".{ext}");
                std::fs::remove_file(p).ok();
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        let p = tmp("garbage");
        std::fs::write(&p, b"NOTAGRAPH").unwrap();
        assert!(read_binary(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn crafted_binary_files_are_invalid_data() {
        let file = |n: u64, slots: u64, body: &[u8]| {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&n.to_le_bytes());
            bytes.extend_from_slice(&slots.to_le_bytes());
            bytes.extend_from_slice(body);
            bytes
        };
        // 25 bytes claiming 2^45 vertices: sizing the offsets from the
        // header would ask for 256 TiB and abort the process.
        let huge = file(1 << 45, 0, &[]);
        assert_eq!(huge.len(), 25);
        // Sized right, but vertex 0's two slots are self-loops.
        let mut loops = Vec::new();
        for o in [0u64, 2, 2] {
            loops.extend_from_slice(&o.to_le_bytes());
        }
        loops.extend_from_slice(&[0; 8]);
        let loops = file(2, 2, &loops);
        for (name, bytes) in [("huge_header", huge), ("self_loops", loops)] {
            let p = tmp(name);
            std::fs::write(&p, &bytes).unwrap();
            let err = read_binary(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
            std::fs::remove_file(p).ok();
        }
    }

    /// Chunk counts that cut a small file in different places.
    const CHUNK_COUNTS: [usize; 4] = [1, 2, 3, 7];

    #[test]
    fn chunked_parse_matches_a_hand_built_graph() {
        let text = "  # comment after spaces\n\t% another\n\n0 1\r\n1\t2  \n\
                    2 3 0.5 fourth\n+7 3\n3 4 1e-3\n4\u{a0}5\n   \r\n5 6";
        let want = crate::builder::from_weighted_edges(
            8,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 0.5),
                (7, 3, 1.0),
                (3, 4, 1e-3),
                (4, 5, 1.0),
                (5, 6, 1.0),
            ],
        );
        for k in CHUNK_COUNTS {
            assert_eq!(
                parse_edge_list(text.into(), None, k).unwrap(),
                want,
                "{k} chunks"
            );
        }
        let p = tmp("chunked");
        std::fs::write(&p, text).unwrap();
        assert_eq!(read_edge_list_text(&p, None).unwrap(), want);
        assert_eq!(
            read_edge_list_text(&p, Some(20)).unwrap().num_vertices(),
            20
        );
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn the_fast_path_agrees_with_the_general_parser() {
        let lines = [
            "",
            "\r",
            " \t ",
            "#x",
            "  %x",
            "0 1",
            "  0\t1\r",
            "0 1 0.5",
            "7 3 1e-3 ",
            "1 2 inf",
            "4294967295 0",
            "4294967296 0",
            "00000000001 2",
            "1 2 3 4",
            "+7 3",
            "1\u{a0}2",
            "1 2 0.5\u{a0}",
            "1 2\x0b",
            "1 2 x",
            "1",
            "1 2 3.",
            "\u{a0}# c",
        ];
        for line in lines {
            let general = parse_line(line).map_err(|e| e.to_string());
            if let Some(fast) = parse_line_fast(line.as_bytes()) {
                assert_eq!(Ok(fast), general, "{line:?}");
            }
        }
        // The fast path takes the common shapes itself.
        for line in ["0 1", " 0\t1\r", "0 1 0.5", "# c", ""] {
            assert!(parse_line_fast(line.as_bytes()).is_some(), "{line:?}");
        }
    }

    #[test]
    fn the_first_bad_line_is_reported() {
        let mut lines: Vec<String> = (0..2000).map(|i| format!("{i} {}", i + 1)).collect();
        lines[300] = "5 x".into();
        lines[1700] = "y 6".into();
        let text = lines.join("\n");
        for k in CHUNK_COUNTS {
            let err = parse_edge_list(text.clone().into(), None, k).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                "bad vertex id in line \"5 x\": invalid digit found in string",
                "{k} chunks"
            );
        }
        let p = tmp("not_utf8");
        std::fs::write(&p, b"0 1\n\xff 2\n").unwrap();
        let err = read_edge_list_text(&p, None).unwrap_err();
        assert_eq!(err.to_string(), "stream did not contain valid UTF-8");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn the_first_weight_wins_across_chunks() {
        // Few vertices and many lines: most edges repeat, in both
        // orientations and with new weights, in every chunk.
        let mut text = String::from("3 5 0.25\n");
        for i in 0..3000u64 {
            let h = parscan_parallel::utils::hash64(i);
            text += &format!("{} {} {}\n", h % 60, (h >> 20) % 60, (h >> 40) % 1000);
        }
        text += "5 3 0.75\n";
        let mut first: std::collections::BTreeMap<(VertexId, VertexId), f32> = Default::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let (u, v): (VertexId, VertexId) = (f[0].parse().unwrap(), f[1].parse().unwrap());
            if u != v {
                first
                    .entry((u.min(v), u.max(v)))
                    .or_insert(f[2].parse().unwrap());
            }
        }
        assert_eq!(first[&(3, 5)], 0.25);
        for k in CHUNK_COUNTS {
            let g = parse_edge_list(text.clone().into(), None, k).unwrap();
            assert_eq!(g.validate(), Ok(()));
            let got: std::collections::BTreeMap<_, _> = g
                .canonical_edges()
                .map(|(u, v, s)| ((u, v), g.slot_weight(s)))
                .collect();
            assert_eq!(got, first, "{k} chunks");
        }
    }

    #[test]
    fn text_comments_and_blank_lines() {
        let p = tmp("comments");
        std::fs::write(&p, "# header\n\n% more\n0 1\n1 2\n").unwrap();
        let g = read_edge_list_text(&p, None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        std::fs::remove_file(p).ok();
    }
}
