//! Graph serialization: whitespace edge-list text (interoperable with SNAP
//! dumps, which the paper's datasets ship as) and a compact little-endian
//! binary format for fast reload of generated benchmark inputs.
//! [`read_graph`] and [`write_graph`] pick between these and METIS
//! ([`crate::metis`]) by file extension.
//!
//! Binary layout (all little-endian):
//! `magic "PSCG" | version u32 | weighted u8 | n u64 | slots u64 |
//!  offsets (n+1)×u64 | neighbors slots×u32 | [weights slots×f32]`

use crate::csr::{CsrGraph, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
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
/// Two columns ⇒ unweighted, three ⇒ weighted. `n` is inferred as
/// `max id + 1` unless `n_hint` supplies a larger vertex count.
pub fn read_edge_list_text<P: AsRef<Path>>(path: P, n_hint: Option<usize>) -> io::Result<CsrGraph> {
    let reader = BufReader::new(File::open(path)?);
    let mut edges: Vec<(VertexId, VertexId, f32)> = Vec::new();
    let mut weighted = false;
    let mut max_id: u64 = 0;
    let mut line = String::new();
    let mut reader = reader;
    while reader.read_line(&mut line)? != 0 {
        {
            let t = line.trim();
            if !(t.is_empty() || t.starts_with('#') || t.starts_with('%')) {
                let mut it = t.split_whitespace();
                let u: u64 = parse_field(it.next(), t)?;
                let v: u64 = parse_field(it.next(), t)?;
                let w = match it.next() {
                    Some(ws) => {
                        weighted = true;
                        ws.parse::<f32>()
                            .map_err(|e| bad_data(format!("bad weight {ws:?}: {e}")))?
                    }
                    None => 1.0,
                };
                max_id = max_id.max(u).max(v);
                if u > u32::MAX as u64 || v > u32::MAX as u64 {
                    return Err(bad_data(format!("vertex id too large in line {t:?}")));
                }
                edges.push((u as VertexId, v as VertexId, w));
            }
        }
        line.clear();
    }
    let n = n_hint.unwrap_or(0).max(if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    });
    Ok(if weighted {
        crate::builder::from_weighted_edges(n, &edges)
    } else {
        let plain: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        crate::builder::from_edges(n, &plain)
    })
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

/// Read the binary format, validating structure.
pub fn read_binary<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let mut r = BufReader::new(File::open(path)?);
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
    let n = read_u64(&mut r)? as usize;
    let slots = read_u64(&mut r)? as usize;
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
    let g = CsrGraph::from_parts(offsets, neighbors, weights);
    Ok(g)
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
    fn text_comments_and_blank_lines() {
        let p = tmp("comments");
        std::fs::write(&p, "# header\n\n% more\n0 1\n1 2\n").unwrap();
        let g = read_edge_list_text(&p, None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        std::fs::remove_file(p).ok();
    }
}
