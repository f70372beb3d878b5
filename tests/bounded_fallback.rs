//! Exactness of the bounded serving fallback: on every index miss the
//! service either settles the answer from the landmark bounds the index
//! already proved or runs the seeded search with the upper bound as its
//! stopping rule. Both must agree with plain BFS on every miss — on graphs
//! where the bounds are tight, loose, saturated, absent (landmark-free
//! components) or say nothing (disconnected pairs), and on dynamic-overlay
//! snapshots after arbitrary edge updates. With a result cache, the
//! searched answers are memoised: a second pass serves exactly those from
//! the cache and must still agree with BFS.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use vicinity::baselines::PointToPoint;
use vicinity::core::config::TableBackend;
use vicinity::core::QueryIndex;
use vicinity::graph::builder::GraphBuilder;
use vicinity::graph::generators::classic;
use vicinity::prelude::*;

/// Serve every pair of `pairs` the index misses (`index_misses` decides)
/// through `service` and check each answer against `BfsEngine` on `graph`.
/// Returns the number of misses checked and the service's statistics for
/// exactly those queries.
fn check_every_miss(
    service: &QueryService,
    graph: &CsrGraph,
    pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    index_misses: impl Fn(NodeId, NodeId) -> bool,
) -> (usize, ServerStats) {
    let misses: Vec<(NodeId, NodeId)> = pairs
        .into_iter()
        .filter(|&(s, t)| index_misses(s, t))
        .collect();
    service.reset_stats();
    let answers = service.serve_batch(&misses);
    let mut bfs = BfsEngine::new(graph);
    for (&(s, t), answer) in misses.iter().zip(&answers) {
        assert_eq!(answer.distance(), bfs.distance(s, t), "miss ({s},{t})");
        assert!(
            !answer.is_miss(),
            "fallback is on: miss ({s},{t}) unanswered"
        );
        if answer.is_exact() {
            assert_eq!(answer.method(), Some(ServedMethod::Fallback), "({s},{t})");
        }
    }
    let stats = service.stats();
    assert!(stats.fallbacks_settled <= stats.fallbacks);
    (misses.len(), stats)
}

/// Serve `misses` (each pair once, in one orientation) twice through
/// `service`, which has a result cache, and check both passes against
/// `BfsEngine` on `graph`. The second pass must serve every pair the first
/// pass searched from the cache, and nothing else. Returns the number of
/// searched pairs.
fn check_two_cached_passes(
    service: &QueryService,
    graph: &CsrGraph,
    misses: &[(NodeId, NodeId)],
) -> u64 {
    let mut bfs = BfsEngine::new(graph);
    let expected: Vec<_> = misses.iter().map(|&(s, t)| bfs.distance(s, t)).collect();
    service.reset_stats();
    let first = service.serve_batch(misses);
    let cold = service.stats();
    assert_eq!(cold.cache_hits, 0, "a fresh epoch serves nothing cached");
    service.reset_stats();
    let second = service.serve_batch(misses);
    let warm = service.stats();
    for (i, &(s, t)) in misses.iter().enumerate() {
        assert_eq!(first[i].distance(), expected[i], "first pass ({s},{t})");
        assert_eq!(second[i].distance(), expected[i], "second pass ({s},{t})");
    }
    // Searched exact answers come back as cache hits; searched
    // disconnections stay `Unreachable`; bound-settled misses are settled
    // again.
    let searched = cold.fallbacks - cold.fallbacks_settled;
    assert_eq!(warm.cache_hits, searched);
    assert_eq!(warm.fallbacks, cold.fallbacks_settled);
    assert_eq!(warm.fallbacks_settled, cold.fallbacks_settled);
    assert_eq!(warm.unreachable, cold.unreachable);
    searched
}

/// Frozen service over `graph`, one worker, no cache — so every miss
/// reaches the fallback exactly once.
fn frozen_service(oracle: VicinityOracle, graph: CsrGraph) -> QueryService {
    QueryService::builder(oracle, graph)
        .threads(1)
        .build()
        .expect("oracle and graph agree")
}

/// `sources × every node` pairs.
fn rows_from(sources: &[NodeId], n: usize) -> Vec<(NodeId, NodeId)> {
    sources
        .iter()
        .flat_map(|&s| (0..n as NodeId).map(move |t| (s, t)))
        .collect()
}

#[test]
fn every_miss_is_exact_on_the_social_graph() {
    let graph = SocialGraphConfig::small_test().generate(41);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(41)
        .build(&graph);
    let n = graph.node_count();
    let sources: Vec<NodeId> = (0..n as NodeId).step_by(n / 24).collect();
    let service = frozen_service(oracle, graph.clone());
    let index = service.oracle().clone();
    let (misses, stats) = check_every_miss(&service, &graph, rows_from(&sources, n), |s, t| {
        index.distance(s, t).is_miss()
    });
    assert!(misses > 1000, "α=4 must miss often here, saw {misses}");
    // On social graphs the landmark bounds settle most misses outright.
    assert!(
        stats.fallback_settled_rate() > 0.5,
        "settled {} of {} fallbacks",
        stats.fallbacks_settled,
        stats.fallbacks
    );
}

#[test]
fn every_miss_is_exact_on_a_grid_where_the_search_runs() {
    let graph = classic::grid(24, 24);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(5)
        .build(&graph);
    let n = graph.node_count();
    let sources: Vec<NodeId> = (0..n as NodeId).step_by(7).collect();
    let service = frozen_service(oracle, graph.clone());
    let index = service.oracle().clone();
    let (misses, stats) = check_every_miss(&service, &graph, rows_from(&sources, n), |s, t| {
        index.distance(s, t).is_miss()
    });
    assert!(misses > 1000, "the grid must miss often, saw {misses}");
    // Grid bounds are loose: many misses still need the bounded search.
    assert!(
        stats.fallbacks - stats.fallbacks_settled > 100,
        "settled {} of {} fallbacks",
        stats.fallbacks_settled,
        stats.fallbacks
    );
}

#[test]
fn cached_passes_are_exact_on_a_grid() {
    let graph = classic::grid(24, 24);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(5)
        .build(&graph);
    let n = graph.node_count();
    let sources: Vec<NodeId> = (0..n as NodeId).step_by(7).collect();
    let service = QueryService::builder(oracle, graph.clone())
        .threads(1)
        .cache_capacity(1 << 16)
        .build()
        .expect("oracle and graph agree");
    let index = service.oracle().clone();
    let misses: Vec<(NodeId, NodeId)> = rows_from(&sources, n)
        .into_iter()
        .filter(|&(s, t)| s < t && index.distance(s, t).is_miss())
        .collect();
    let searched = check_two_cached_passes(&service, &graph, &misses);
    assert!(
        searched > 100,
        "the grid must need searches, saw {searched}"
    );
}

#[test]
fn every_miss_is_exact_when_landmark_rows_saturate() {
    // Rows store u16 distances: on a 66k-hop path the far entries
    // saturate and must contribute no bound.
    let n: u32 = 66_000;
    let graph = classic::path(n as usize);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(3)
        .backend(TableBackend::SortedArray)
        .store_paths(false)
        .build(&graph);
    let ends = [0, 1, 2, 700, 32_000, 65_000, n - 3, n - 2, n - 1];
    let pairs: Vec<(NodeId, NodeId)> = ends
        .iter()
        .flat_map(|&s| ends.iter().map(move |&t| (s, t)))
        .collect();
    let service = frozen_service(oracle, graph.clone());
    let index = service.oracle().clone();
    let (misses, _) = check_every_miss(&service, &graph, pairs, |s, t| {
        index.distance(s, t).is_miss()
    });
    assert!(misses > 0);
    // The end-to-end pair has saturated rows on both sides.
    let vs = index.vicinity(0).unwrap();
    let vt = index.vicinity(n - 1).unwrap();
    assert!(index.distance(0, n - 1).is_miss());
    assert_eq!(
        index.landmark_bounds(vs, vt).upper,
        vicinity::graph::INFINITY
    );
}

/// A 12×12 grid carrying every landmark, a second grid component with
/// its own landmark, a 9-cycle and a 5-node path with none, and an
/// isolated node.
fn components_graph() -> (CsrGraph, Vec<NodeId>) {
    let mut b = GraphBuilder::with_node_count(144 + 64 + 9 + 5 + 1);
    let grid = |b: &mut GraphBuilder, base: u32, side: u32| {
        for r in 0..side {
            for c in 0..side {
                let u = base + r * side + c;
                if c + 1 < side {
                    b.add_edge(u, u + 1);
                }
                if r + 1 < side {
                    b.add_edge(u, u + side);
                }
            }
        }
    };
    grid(&mut b, 0, 12);
    grid(&mut b, 144, 8);
    for i in 0..9 {
        b.add_edge(208 + i, 208 + (i + 1) % 9);
    }
    for i in 0..4 {
        b.add_edge(217 + i, 218 + i);
    }
    (b.build_undirected(), vec![0, 77, 143, 150])
}

#[test]
fn every_miss_is_exact_with_landmark_free_components() {
    let (graph, landmarks) = components_graph();
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .landmarks(landmarks)
        .build(&graph);
    assert!(oracle.vicinity(210).unwrap().nearest_landmark().is_none());
    let n = graph.node_count();
    let service = frozen_service(oracle, graph.clone());
    let index = service.oracle().clone();
    let (misses, stats) = check_every_miss(
        &service,
        &graph,
        rows_from(&[3, 100, 160, 210, 219, 222], n),
        |s, t| index.distance(s, t).is_miss(),
    );
    assert!(misses > 0);
    assert!(
        stats.unreachable > 0,
        "cross-component misses are unreachable"
    );
}

#[test]
fn every_disconnected_miss_is_reported_unreachable() {
    let (graph, landmarks) = components_graph();
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .landmarks(landmarks)
        .build(&graph);
    let service = frozen_service(oracle, graph.clone());
    let index = service.oracle().clone();
    // Every pair between the two landmark-bearing grids.
    let pairs: Vec<(NodeId, NodeId)> = (0..144)
        .flat_map(|s| (144..208).map(move |t| (s, t)))
        .collect();
    let (misses, stats) = check_every_miss(&service, &graph, pairs, |s, t| {
        index.distance(s, t).is_miss()
    });
    assert!(misses > 0);
    assert_eq!(stats.unreachable as usize, misses);
    assert_eq!(stats.fallbacks_settled, 0);
}

#[test]
fn every_miss_is_exact_on_a_churned_social_graph() {
    let graph = SocialGraphConfig::small_test().generate(43);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(43)
        .build(&graph);
    let (service, mut writer) = QueryService::builder(oracle, graph.clone())
        .threads(1)
        .build_updatable()
        .expect("oracle and graph agree");
    let n = graph.node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    let sources: Vec<NodeId> = (0..n as NodeId).step_by(n / 8).collect();
    for round in 0..4 {
        for _ in 0..12 {
            let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
            if u == v {
                continue;
            }
            if rng.gen_bool(0.5) {
                writer.insert_edge(u, v).unwrap();
            } else {
                // Remove a real edge of `u` so removals actually happen.
                let current = writer.oracle().graph().to_csr();
                if let Some(&w) = current.neighbors(u).first() {
                    writer.remove_edge(u, w).unwrap();
                }
            }
        }
        let current = writer.oracle().graph().to_csr();
        let (misses, _) = check_every_miss(&service, &current, rows_from(&sources, n), |s, t| {
            writer.oracle().distance(s, t).is_miss()
        });
        assert!(misses > 0, "round {round}: no misses to check");
    }
}

#[test]
fn cached_passes_are_exact_on_churned_snapshots() {
    // Every round publishes new epochs, so the first pass of a round may
    // not be served any answer memoised in an earlier round.
    let graph = classic::grid(20, 20);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(44)
        .build(&graph);
    let (service, mut writer) = QueryService::builder(oracle, graph.clone())
        .threads(1)
        .cache_capacity(1 << 16)
        .build_updatable()
        .expect("oracle and graph agree");
    let n = graph.node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let sources: Vec<NodeId> = (0..n as NodeId).step_by(9).collect();
    for round in 0..4 {
        let version = writer.version();
        while writer.version() < version + 6 {
            let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
            if u == v {
                continue;
            }
            if rng.gen_bool(0.5) {
                writer.insert_edge(u, v).unwrap();
            } else {
                let current = writer.oracle().graph().to_csr();
                if let Some(&w) = current.neighbors(u).first() {
                    writer.remove_edge(u, w).unwrap();
                }
            }
        }
        let current = writer.oracle().graph().to_csr();
        let snapshot = writer.oracle().snapshot();
        let misses: Vec<(NodeId, NodeId)> = rows_from(&sources, n)
            .into_iter()
            .filter(|&(s, t)| s < t && snapshot.distance(s, t).is_miss())
            .collect();
        let searched = check_two_cached_passes(&service, &current, &misses);
        assert!(searched > 0, "round {round}: no searches to memoise");
    }
}

/// Strategy: a random edge list over `nodes` nodes.
fn arbitrary_graph(nodes: u32, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..nodes, 0..nodes), 0..max_edges).prop_map(move |edges| {
        let mut builder = GraphBuilder::with_node_count(nodes as usize);
        for (u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build_undirected()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every update of an arbitrary insert/remove script, every
    /// all-pairs miss of the published snapshot is served exactly.
    #[test]
    fn every_miss_is_exact_after_random_updates(
        graph in arbitrary_graph(32, 70),
        script in prop::collection::vec((0..32u32, 0..32u32, any::<bool>()), 1..10),
        alpha in 0.5f64..8.0,
        seed in 0u64..1000,
    ) {
        let oracle = OracleBuilder::new(Alpha::new(alpha).unwrap()).seed(seed).build(&graph);
        let (service, mut writer) = QueryService::builder(oracle, graph)
            .threads(1)
            .build_updatable()
            .unwrap();
        for (u, v, insert) in script {
            if u == v {
                continue;
            }
            if insert {
                writer.insert_edge(u, v).unwrap();
            } else {
                writer.remove_edge(u, v).unwrap();
            }
            let current = writer.oracle().graph().to_csr();
            let snapshot = writer.oracle().snapshot();
            check_every_miss(&service, &current, rows_from(&(0..32).collect::<Vec<_>>(), 32), |s, t| {
                snapshot.distance(s, t).is_miss()
            });
        }
    }
}
