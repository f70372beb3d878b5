//! Serving-throughput experiment: `QueryService` batch throughput and
//! latency percentiles across thread counts and cache configurations, on
//! each stand-in dataset. The `settled` column is the share of fallback
//! answers the index's landmark bounds settled without a search.
//!
//! This is the serving-layer companion of `table3_query_time`: instead of
//! single-threaded per-query latency, it measures what one machine
//! sustains when the immutable index is shared by several workers
//! (ROADMAP: "serves heavy traffic from millions of users").
//!
//! Honours `VICINITY_SCALE`, `VICINITY_DATASETS` and
//! `VICINITY_SERVE_QUERIES` (default 100000 queries per configuration).
//! Results are also written as the `serving_throughput` section of
//! `BENCH_query.json` (see `vicinity_bench::bench_json`) so serving-layer
//! throughput is tracked across PRs alongside the `query_batch` numbers.
//!
//! `--smoke` is the serving-layer correctness gate instead: on a 4k-node
//! social graph it serves a set of distinct pairs twice, with the result
//! cache off and on, checks every answer against `BfsEngine`, and checks
//! that the cache holds exactly the answers the first pass searched and
//! that the second pass serves exactly those from it (and nothing from a
//! disabled one). It then serves the same pairs twice more on one cached
//! service as single-pair `serve_batch` calls from two threads at once (the
//! pooled-session path), checks every answer against `BfsEngine`, that
//! `queries` counts exactly the calls of each pass and that the second
//! pass's `cache_hits` equal the first pass's searches. It exits non-zero on
//! any mismatch.

use rand::SeedableRng;

use vicinity_baselines::bfs::BfsEngine;
use vicinity_baselines::PointToPoint;
use vicinity_bench::bench_json::{bench_json_path, write_bench_section};
use vicinity_bench::{print_header, timed, ExperimentEnv};
use vicinity_core::config::Alpha;
use vicinity_core::index::VicinityOracle;
use vicinity_core::OracleBuilder;
use vicinity_graph::algo::sampling::random_pairs;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::generators::social::SocialGraphConfig;
use vicinity_graph::{Distance, NodeId};
use vicinity_server::{QueryCache, QueryService};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(if smoke() == 0 { 0 } else { 1 });
    }
    let env = ExperimentEnv::from_env();
    print_header("serving throughput (QueryService)", &env);
    let mut json_rows: Vec<String> = Vec::new();

    let queries: usize = std::env::var("VICINITY_SERVE_QUERIES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(100_000);

    println!(
        "{:<12} {:>8} {:>7} {:>9} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "dataset",
        "threads",
        "cache",
        "queries",
        "throughput",
        "p50",
        "p99",
        "fallback",
        "settled",
        "cachehit"
    );

    for dataset in env.datasets() {
        let graph = dataset.graph.clone();
        let (oracle, build_time) = timed(|| {
            OracleBuilder::new(Alpha::PAPER_DEFAULT)
                .seed(2012)
                .store_paths(false)
                .build(&graph)
        });
        println!(
            "# {}: {} nodes, {} edges, index built in {:.1?}",
            dataset.name,
            graph.node_count(),
            graph.edge_count(),
            build_time
        );

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pairs = random_pairs(&graph, queries, &mut rng);

        for threads in [1usize, 4] {
            for cache_capacity in [0usize, 1 << 16] {
                let service = QueryService::builder(oracle.clone(), graph.clone())
                    .threads(threads)
                    .cache_capacity(cache_capacity)
                    .build()
                    .expect("oracle and graph agree");
                let answers = service.serve_batch(&pairs);
                assert_eq!(answers.len(), pairs.len());
                let stats = service.stats();
                println!(
                    "{:<12} {:>8} {:>7} {:>9} {:>9.0}q/s {:>10.2?} {:>10.2?} {:>8.2}% {:>8.2}% {:>8.2}%",
                    dataset.name,
                    threads,
                    cache_capacity,
                    stats.queries,
                    stats.throughput_qps(),
                    stats.latency.percentile(50.0),
                    stats.latency.percentile(99.0),
                    stats.fallback_rate() * 100.0,
                    stats.fallback_settled_rate() * 100.0,
                    stats.cache_hit_rate() * 100.0,
                );
                json_rows.push(format!(
                    "{{\"graph\": \"{}\", \"nodes\": {}, \"alpha\": {}, \"threads\": {threads}, \
                     \"cache\": {cache_capacity}, \"queries\": {}, \"qps\": {:.0}, \
                     \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"fallback_pct\": {:.3}, \
                     \"fallback_settled_pct\": {:.3}, \"cache_hit_pct\": {:.3}}}",
                    dataset.name,
                    graph.node_count(),
                    Alpha::PAPER_DEFAULT.value(),
                    stats.queries,
                    stats.throughput_qps(),
                    stats.latency.percentile(50.0).as_secs_f64() * 1e6,
                    stats.latency.percentile(99.0).as_secs_f64() * 1e6,
                    stats.fallback_rate() * 100.0,
                    stats.fallback_settled_rate() * 100.0,
                    stats.cache_hit_rate() * 100.0,
                ));
            }
        }
        println!();
    }

    // Reduced scales (tiny/small) are quick-iteration modes; only
    // full-scale runs may update the tracked perf numbers, so a toy run
    // never clobbers the checked-in BENCH_query.json. A write failure
    // (e.g. read-only checkout) is reported but does not fail the bench —
    // the measurements above already printed.
    if matches!(
        env.scale,
        vicinity_datasets::registry::Scale::Default | vicinity_datasets::registry::Scale::Large
    ) {
        let path = bench_json_path();
        let payload = format!("[\n    {}\n  ]", json_rows.join(",\n    "));
        match write_bench_section(&path, "serving_throughput", &payload) {
            Ok(()) => println!("wrote serving_throughput section to {}", path.display()),
            Err(e) => eprintln!(
                "serving_throughput: could not write {} ({e}); skipping the JSON update",
                path.display()
            ),
        }
    } else {
        println!(
            "skipping BENCH_query.json update at scale '{}' (full-scale runs only)",
            env.scale.name()
        );
    }
}

/// The `--smoke` gate; returns the number of failed checks.
fn smoke() -> usize {
    let graph = SocialGraphConfig::default()
        .with_nodes(4_000)
        .generate(2012);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(2012)
        .store_paths(false)
        .build(&graph);
    // Distinct pairs only (one orientation each), so the searches the
    // first pass runs are exactly `fallbacks - fallbacks_settled`.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut seen = FastMap::default();
    let pairs: Vec<_> = random_pairs(&graph, 4_000, &mut rng)
        .into_iter()
        .filter(|&(s, t)| seen.insert(QueryCache::key(s, t), ()).is_none())
        .collect();
    let mut bfs = BfsEngine::new(&graph);
    let expected: Vec<_> = pairs.iter().map(|&(s, t)| bfs.distance(s, t)).collect();
    println!(
        "serving smoke: {} nodes, {} distinct pairs, alpha {}",
        graph.node_count(),
        pairs.len(),
        Alpha::PAPER_DEFAULT.value()
    );

    let mut failures = 0;
    for cache_capacity in [0usize, 1 << 16] {
        let service = QueryService::builder(oracle.clone(), graph.clone())
            .threads(2)
            .cache_capacity(cache_capacity)
            .build()
            .expect("oracle and graph agree");
        let mut searched = 0;
        for pass in 1..=2 {
            service.reset_stats();
            let answers = service.serve_batch(&pairs);
            for ((&(s, t), answer), &want) in pairs.iter().zip(&answers).zip(&expected) {
                if answer.distance() != want || answer.is_miss() {
                    eprintln!(
                        "FAIL: cache {cache_capacity} pass {pass}: served ({s},{t}) = {answer:?}, \
                         BFS says {want:?}"
                    );
                    failures += 1;
                }
            }
            let stats = service.stats();
            println!(
                "cache {cache_capacity:>6} pass {pass}: index {} fallback {} (settled {}) \
                 cache {} unreachable {}",
                stats.index_hits,
                stats.fallbacks,
                stats.fallbacks_settled,
                stats.cache_hits,
                stats.unreachable
            );
            if pass == 1 {
                searched = stats.fallbacks - stats.fallbacks_settled;
                if stats.cache_hits != 0 {
                    eprintln!("FAIL: a cold cache served {} answers", stats.cache_hits);
                    failures += 1;
                }
                let want_held = if cache_capacity > 0 { searched } else { 0 };
                if service.cached_answers() as u64 != want_held {
                    eprintln!(
                        "FAIL: cache {cache_capacity} holds {} answers, expected {want_held} \
                         (the searched ones only)",
                        service.cached_answers()
                    );
                    failures += 1;
                }
            } else {
                let want_hits = if cache_capacity > 0 { searched } else { 0 };
                if stats.cache_hits != want_hits {
                    eprintln!(
                        "FAIL: cache {cache_capacity}: second pass served {} cache hits, \
                         expected {want_hits} (the first pass's searches)",
                        stats.cache_hits
                    );
                    failures += 1;
                }
            }
        }
        if cache_capacity > 0 && searched == 0 {
            eprintln!("FAIL: no pair needed a search, so the cache went untested");
            failures += 1;
        }
    }
    failures += single_pair_callers(&oracle, &graph, &pairs, &expected);
    if failures == 0 {
        println!("serving smoke: OK");
    }
    failures
}

/// Two threads of single-pair `serve_batch` callers on one cached service,
/// each serving half of `pairs` (distinct), in two passes; returns the
/// number of failed checks.
fn single_pair_callers(
    oracle: &VicinityOracle,
    graph: &CsrGraph,
    pairs: &[(NodeId, NodeId)],
    expected: &[Option<Distance>],
) -> usize {
    let service = QueryService::builder(oracle.clone(), graph.clone())
        .threads(1)
        .cache_capacity(1 << 16)
        .build()
        .expect("oracle and graph agree");
    let half = pairs.len() / 2;
    let mut failures = 0;
    let mut searched = 0;
    for pass in 1..=2 {
        service.reset_stats();
        let wrong: usize = std::thread::scope(|scope| {
            let callers: Vec<_> = [(0, half), (half, pairs.len())]
                .into_iter()
                .map(|(from, to)| {
                    let service = &service;
                    scope.spawn(move || {
                        let mut wrong = 0;
                        for (&(s, t), &want) in pairs[from..to].iter().zip(&expected[from..to]) {
                            let answer = service.serve_batch(&[(s, t)])[0];
                            if answer.distance() != want || answer.is_miss() {
                                eprintln!(
                                    "FAIL: single-pair pass {pass}: served ({s},{t}) = \
                                     {answer:?}, BFS says {want:?}"
                                );
                                wrong += 1;
                            }
                        }
                        wrong
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|caller| caller.join().expect("caller thread panicked"))
                .sum()
        });
        failures += wrong;
        let stats = service.stats();
        println!(
            "single-pair callers pass {pass}: queries {} index {} fallback {} (settled {}) \
             cache {} unreachable {}",
            stats.queries,
            stats.index_hits,
            stats.fallbacks,
            stats.fallbacks_settled,
            stats.cache_hits,
            stats.unreachable
        );
        if stats.queries != pairs.len() as u64 {
            eprintln!(
                "FAIL: single-pair pass {pass} accounted {} queries for {} calls",
                stats.queries,
                pairs.len()
            );
            failures += 1;
        }
        let want_hits = if pass == 1 {
            searched = stats.fallbacks - stats.fallbacks_settled;
            0
        } else {
            searched
        };
        if stats.cache_hits != want_hits {
            eprintln!(
                "FAIL: single-pair pass {pass} served {} cache hits, expected {want_hits}",
                stats.cache_hits
            );
            failures += 1;
        }
    }
    if searched == 0 {
        eprintln!("FAIL: no single-pair call needed a search, so the cache went untested");
        failures += 1;
    }
    failures
}
