//! The six benchmark graphs — synthetic stand-ins for Table 2.
//!
//! | Paper graph  | Regime                         | Stand-in here            |
//! |--------------|--------------------------------|--------------------------|
//! | Orkut        | social, heavy-tailed, triangle-rich | R-MAT, edge factor 16 |
//! | brain        | dense connectome, very high avg degree | dense SBM          |
//! | WebBase      | huge sparse crawl, low avg degree | sparse R-MAT          |
//! | Friendster   | largest social network         | bigger R-MAT             |
//! | blood vessel | small n, dense, weighted (0,1] | dense weighted SBM       |
//! | cochlea      | small n, denser, weighted      | denser weighted SBM      |
//!
//! Sizes scale linearly with `PARSCAN_SCALE` (default 1.0 ⇒ tens of
//! thousands of vertices, hundreds of thousands of edges — big enough for
//! parallel speedups to show, small enough for laptop runs).

use parscan_graph::{generators, CsrGraph};

/// A named benchmark input.
pub struct Dataset {
    pub name: &'static str,
    pub paper_name: &'static str,
    pub graph: CsrGraph,
    /// Ground-truth labels when the generator plants communities.
    pub ground_truth: Option<Vec<u32>>,
}

/// Scale factor from the environment.
pub fn scale() -> f64 {
    std::env::var("PARSCAN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).round().max(16.0) as usize
}

fn rmat_scale(base: u32) -> u32 {
    // log2 scaling so PARSCAN_SCALE=4 adds two levels.
    (base as f64 + scale().log2()).round().clamp(8.0, 24.0) as u32
}

/// All dataset names, in Table 2 order.
pub const NAMES: [&str; 6] = [
    "orkut-sim",
    "brain-sim",
    "webbase-sim",
    "friendster-sim",
    "bloodvessel-sim",
    "cochlea-sim",
];

/// Generate one dataset by name.
pub fn dataset(name: &str) -> Dataset {
    match name {
        "orkut-sim" => Dataset {
            name: "orkut-sim",
            paper_name: "Orkut",
            graph: generators::rmat(rmat_scale(14), 16, 0x06b1),
            ground_truth: None,
        },
        "brain-sim" => {
            let (graph, labels) =
                generators::planted_partition(scaled(8_000), 40, 60.0, 6.0, 0x06b2);
            Dataset {
                name: "brain-sim",
                paper_name: "brain",
                graph,
                ground_truth: Some(labels),
            }
        }
        "webbase-sim" => Dataset {
            name: "webbase-sim",
            paper_name: "WebBase",
            graph: generators::rmat(rmat_scale(15), 6, 0x06b3),
            ground_truth: None,
        },
        "friendster-sim" => Dataset {
            name: "friendster-sim",
            paper_name: "Friendster",
            graph: generators::rmat(rmat_scale(15), 14, 0x06b4),
            ground_truth: None,
        },
        "bloodvessel-sim" => {
            let (graph, labels) =
                generators::weighted_planted_partition(scaled(2_000), 12, 90.0, 12.0, 0x06b5);
            Dataset {
                name: "bloodvessel-sim",
                paper_name: "blood vessel",
                graph,
                ground_truth: Some(labels),
            }
        }
        "cochlea-sim" => {
            let (graph, labels) =
                generators::weighted_planted_partition(scaled(2_000), 10, 140.0, 16.0, 0x06b6);
            Dataset {
                name: "cochlea-sim",
                paper_name: "cochlea",
                graph,
                ground_truth: Some(labels),
            }
        }
        other => panic!("unknown dataset {other:?} (known: {NAMES:?})"),
    }
}

/// All six datasets.
pub fn datasets() -> Vec<Dataset> {
    NAMES.iter().map(|n| dataset(n)).collect()
}

/// The weighted, dense subset (where the MM variant runs, §7.3.1).
pub fn dense_weighted_names() -> Vec<&'static str> {
    vec!["bloodvessel-sim", "cochlea-sim"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_valid_graphs() {
        for d in datasets() {
            assert_eq!(d.graph.validate(), Ok(()), "{}", d.name);
            assert!(d.graph.num_edges() > 0, "{}", d.name);
            if let Some(gt) = &d.ground_truth {
                assert_eq!(gt.len(), d.graph.num_vertices());
            }
        }
    }

    #[test]
    fn weighted_flags_match_table2() {
        assert!(!dataset("orkut-sim").graph.is_weighted());
        assert!(!dataset("webbase-sim").graph.is_weighted());
        assert!(dataset("bloodvessel-sim").graph.is_weighted());
        assert!(dataset("cochlea-sim").graph.is_weighted());
    }

    #[test]
    fn dense_standins_are_denser() {
        let brain = dataset("brain-sim").graph;
        let webbase = dataset("webbase-sim").graph;
        let brain_avg = 2.0 * brain.num_edges() as f64 / brain.num_vertices() as f64;
        let web_avg = 2.0 * webbase.num_edges() as f64 / webbase.num_vertices() as f64;
        assert!(brain_avg > 2.0 * web_avg, "{brain_avg} vs {web_avg}");
    }
}
