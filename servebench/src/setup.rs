//! Set-up: the graph, the oracle and its snapshot round trip.
//!
//! A deployment builds the index offline and loads the snapshot at start,
//! so the service is built over the *decoded* oracle, never the one that
//! came out of the builder.

use std::sync::Arc;
use std::time::Instant;

use vicinity_core::config::Alpha;
use vicinity_core::index::VicinityOracle;
use vicinity_core::memory::MemoryReport;
use vicinity_core::{serialize, OracleBuilder};
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::generators::social::SocialGraphConfig;

/// Nodes requested from the social stand-in generator (the largest
/// connected component it keeps is slightly smaller).
pub const GRAPH_NODES: usize = 100_000;
/// Generator and oracle seed; fixed, so every workload seed runs on the
/// same index.
pub const GRAPH_SEED: u64 = 2012;
/// The paper's default vicinity parameter.
pub const ALPHA: f64 = 4.0;
/// Result-cache entries of every service the benchmark builds.
pub const CACHE_CAPACITY: usize = 65_536;
/// Worker threads per `serve_batch` call.
pub const SERVICE_THREADS: usize = 1;

/// The loaded index and what its construction cost.
pub struct Index {
    pub graph: Arc<CsrGraph>,
    pub oracle: Arc<VicinityOracle>,
    pub generate_s: f64,
    pub build_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub snapshot_bytes: usize,
    pub memory: MemoryReport,
}

impl Index {
    pub fn build() -> Index {
        let start = Instant::now();
        let graph = SocialGraphConfig::default()
            .with_nodes(GRAPH_NODES)
            .generate(GRAPH_SEED);
        let generate_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let built = OracleBuilder::new(Alpha::new(ALPHA).expect("the paper's alpha is valid"))
            .seed(GRAPH_SEED)
            .store_paths(false)
            .build(&graph);
        let build_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let snapshot = serialize::encode(&built);
        let encode_s = start.elapsed().as_secs_f64();
        drop(built);

        let start = Instant::now();
        let oracle = serialize::decode(&snapshot).expect("a fresh v3 snapshot decodes");
        let decode_s = start.elapsed().as_secs_f64();

        Index {
            memory: MemoryReport::measure(&oracle),
            graph: Arc::new(graph),
            oracle: Arc::new(oracle),
            generate_s,
            build_s,
            encode_s,
            decode_s,
            snapshot_bytes: snapshot.len(),
        }
    }

    /// Graph generation, oracle build and snapshot round trip, in seconds
    /// (service construction is added by the caller).
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.encode_s + self.decode_s
    }
}
