//! METIS graph format (`.graph`) reader and writer.
//!
//! SCAN implementations in the clustering literature (GS*-Index, pSCAN,
//! ppSCAN) commonly distribute converters for the METIS adjacency format,
//! so the graph crate speaks it natively. Supported subset:
//!
//! - header `n m [fmt]` where `fmt` ends in `1` for edge weights and in
//!   `0` (or is absent) for unweighted graphs; vertex weights/sizes
//!   (`fmt` = `1xx`/`x1x`) are rejected,
//! - `%`-prefixed comment lines,
//! - 1-indexed vertex ids, each undirected edge listed from both
//!   endpoints (as METIS requires — asymmetric inputs are rejected).

use crate::csr::{CsrGraph, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write `g` in METIS format (1-indexed adjacency lines; `fmt = 001` with
/// weights when the graph is weighted).
pub fn write_metis<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "% written by parscan")?;
    if g.is_weighted() {
        writeln!(w, "{} {} 001", g.num_vertices(), g.num_edges())?;
    } else {
        writeln!(w, "{} {}", g.num_vertices(), g.num_edges())?;
    }
    for v in 0..g.num_vertices() as VertexId {
        let nbrs = g.neighbors(v);
        let mut first = true;
        for (k, &u) in nbrs.iter().enumerate() {
            if !first {
                write!(w, " ")?;
            }
            first = false;
            if g.is_weighted() {
                let weight = g.slot_weight(g.slot_range(v).start + k);
                write!(w, "{} {weight}", u + 1)?;
            } else {
                write!(w, "{}", u + 1)?;
            }
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Read a METIS-format graph, validating the header, symmetry, and edge
/// count.
pub fn read_metis<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let reader = BufReader::new(file);
    let mut lines = reader.lines();

    // Header: first non-comment line.
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                let t = line.trim().to_string();
                if !t.is_empty() && !t.starts_with('%') {
                    break t;
                }
            }
            None => return Err(bad("missing METIS header".into())),
        }
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 2 || fields.len() > 4 {
        return Err(bad(format!("malformed METIS header {header:?}")));
    }
    let n: usize = fields[0]
        .parse()
        .map_err(|e| bad(format!("bad vertex count: {e}")))?;
    let m: usize = fields[1]
        .parse()
        .map_err(|e| bad(format!("bad edge count: {e}")))?;
    let weighted = match fields.get(2).copied() {
        None => false,
        Some(fmt) => {
            if !fmt.chars().all(|c| c == '0' || c == '1') {
                return Err(bad(format!("malformed METIS fmt field {fmt:?}")));
            }
            if fmt.len() > 3 || fmt[..fmt.len().saturating_sub(1)].contains('1') {
                return Err(bad(format!(
                    "unsupported METIS fmt {fmt:?} (vertex weights/sizes)"
                )));
            }
            fmt.ends_with('1')
        }
    };
    if n > u32::MAX as usize {
        return Err(bad(format!("vertex count {n} exceeds u32 ids")));
    }
    // Every edge takes bytes of the file, so a larger `m` is a lie, caught
    // before it sizes the edge buffer.
    if m as u64 > file_len {
        return Err(bad(format!(
            "header claims {m} edges in a {file_len}-byte file"
        )));
    }

    // Adjacency lines: one per vertex, in order, skipping comments.
    let mut directed: Vec<(VertexId, VertexId, f32)> = Vec::with_capacity(2 * m);
    let mut v: usize = 0;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if v >= n {
            if t.is_empty() {
                continue;
            }
            return Err(bad(format!("more than {n} adjacency lines")));
        }
        let mut it = t.split_whitespace();
        loop {
            let Some(tok) = it.next() else { break };
            let u: usize = tok
                .parse()
                .map_err(|e| bad(format!("bad neighbor id {tok:?} on line {}: {e}", v + 2)))?;
            if u == 0 || u > n {
                return Err(bad(format!(
                    "neighbor id {u} out of range [1, {n}] on vertex {}",
                    v + 1
                )));
            }
            let weight = if weighted {
                let ws = it
                    .next()
                    .ok_or_else(|| bad(format!("missing edge weight on vertex {}", v + 1)))?;
                ws.parse::<f32>()
                    .map_err(|e| bad(format!("bad edge weight {ws:?}: {e}")))?
            } else {
                1.0
            };
            directed.push((v as VertexId, (u - 1) as VertexId, weight));
        }
        v += 1;
    }
    if v != n {
        return Err(bad(format!("expected {n} adjacency lines, found {v}")));
    }

    // METIS lists each edge twice; verify symmetry (including weights) by
    // matching canonically sorted directed entries.
    let mut forward: Vec<(u32, u32, f32)> = directed
        .iter()
        .filter(|&&(a, b, _)| a < b)
        .copied()
        .collect();
    let mut backward: Vec<(u32, u32, f32)> = directed
        .iter()
        .filter(|&&(a, b, _)| a > b)
        .map(|&(a, b, w)| (b, a, w))
        .collect();
    if directed.len() != forward.len() + backward.len() {
        return Err(bad("self-loops are not allowed in METIS graphs".into()));
    }
    let key = |e: &(u32, u32, f32)| ((e.0 as u64) << 32) | e.1 as u64;
    forward.sort_unstable_by_key(key);
    backward.sort_unstable_by_key(key);
    if forward.len() != backward.len()
        || forward
            .iter()
            .zip(&backward)
            .any(|(a, b)| a.0 != b.0 || a.1 != b.1 || a.2 != b.2)
    {
        return Err(bad(
            "asymmetric adjacency: METIS requires each edge listed from both endpoints".into(),
        ));
    }
    if forward.len() != m {
        return Err(bad(format!(
            "header claims {m} edges but adjacency lists {}",
            forward.len()
        )));
    }

    Ok(if weighted {
        crate::builder::from_weighted_edges(n, &forward)
    } else {
        let plain: Vec<(VertexId, VertexId)> = forward.iter().map(|&(a, b, _)| (a, b)).collect();
        crate::builder::from_edges(n, &plain)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parscan_metis_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_unweighted() {
        let g = generators::erdos_renyi(120, 500, 3);
        let p = tmp("rt_unw");
        write_metis(&g, &p).unwrap();
        let h = read_metis(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn round_trip_weighted() {
        let (g, _) = generators::weighted_planted_partition(80, 2, 6.0, 1.0, 5);
        let p = tmp("rt_w");
        write_metis(&g, &p).unwrap();
        let h = read_metis(&p).unwrap();
        assert_eq!(g.num_edges(), h.num_edges());
        for (u, v, slot) in g.canonical_edges() {
            let hs = h.slot_of(u, v).expect("edge preserved");
            assert!((g.slot_weight(slot) - h.slot_weight(hs)).abs() < 1e-5);
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn parses_textbook_example() {
        // The 7-vertex, 11-edge example from the METIS manual.
        let p = tmp("manual");
        std::fs::write(
            &p,
            "% classic example\n7 11\n5 3 2\n1 3 4\n5 4 2 1\n2 3 6 7\n1 3 6\n5 4 7\n6 4\n",
        )
        .unwrap();
        let g = read_metis(&p).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 11);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.neighbors(3), &[1, 2, 5, 6]);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn isolated_vertices_get_blank_lines() {
        let g = crate::from_edges(4, &[(1, 2)]);
        let p = tmp("blank");
        write_metis(&g, &p).unwrap();
        let h = read_metis(&p).unwrap();
        assert_eq!(g, h);
        assert_eq!(h.degree(0), 0);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn rejects_asymmetric_adjacency() {
        let p = tmp("asym");
        std::fs::write(&p, "3 1\n2\n\n\n").unwrap();
        let err = read_metis(&p).unwrap_err();
        assert!(err.to_string().contains("asymmetric"), "{err}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let p = tmp("count");
        std::fs::write(&p, "3 3\n2\n1 3\n2\n").unwrap();
        let err = read_metis(&p).unwrap_err();
        assert!(err.to_string().contains("header claims"), "{err}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn an_edge_count_beyond_the_file_size_is_invalid_data() {
        // 18 bytes claiming 10^12 edges: sizing the edge buffer from the
        // header would ask for 24 TB and abort the process.
        let p = tmp("huge_m");
        std::fs::write(&p, "1 1000000000000\n\n\n").unwrap();
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 18);
        let err = read_metis(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn rejects_out_of_range_neighbor() {
        let p = tmp("range");
        std::fs::write(&p, "2 1\n2\n5\n").unwrap();
        assert!(read_metis(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn rejects_vertex_weight_formats() {
        let p = tmp("fmt");
        std::fs::write(&p, "2 1 011\n2 1\n1 1\n").unwrap();
        let err = read_metis(&p).unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn rejects_missing_header() {
        let p = tmp("nohdr");
        std::fs::write(&p, "% only comments\n").unwrap();
        assert!(read_metis(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn weighted_round_trip_preserves_fmt_header() {
        let (g, _) = generators::weighted_planted_partition(40, 2, 5.0, 1.0, 7);
        let p = tmp("fmt_hdr");
        write_metis(&g, &p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let header = text.lines().nth(1).unwrap();
        assert!(header.ends_with("001"), "header was {header:?}");
        std::fs::remove_file(p).ok();
    }
}
