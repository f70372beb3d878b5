//! Integration tests for the serving subsystem: cross-validation of
//! `QueryService` answers (including fallback-on-miss) against the exact
//! Dijkstra baseline, and concurrent serving of one shared oracle from
//! multiple threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use rand::SeedableRng;

use vicinity::baselines::dijkstra::Dijkstra;
use vicinity::baselines::PointToPoint;
use vicinity::core::config::Alpha;
use vicinity::core::OracleBuilder;
use vicinity::graph::algo::sampling::random_pairs;
use vicinity::graph::weighted::WeightedCsrGraph;
use vicinity::prelude::*;

/// Every answer served on a social graph — whether from the index, the
/// cache or the fallback — must equal the Dijkstra distance.
#[test]
fn serve_batch_matches_dijkstra_on_social_graphs() {
    for seed in [301u64, 302] {
        let graph = SocialGraphConfig::small_test().generate(seed);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(seed)
            .build(&graph);
        let service = QueryService::builder(oracle, graph)
            .threads(3)
            .cache_capacity(4096)
            .build()
            .expect("oracle and graph agree");

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pairs = random_pairs(service.graph(), 500, &mut rng);
        let weighted = WeightedCsrGraph::unit_weights(service.graph());
        let mut dijkstra = Dijkstra::new(&weighted);

        // Serve a slice of the workload as its own batch, twice: the
        // second pass must serve exactly the pairs the first pass searched
        // from the cache, with identical distances.
        let repeats: Vec<_> = pairs[..50].to_vec();
        let first = service.serve_batch(&repeats);
        let cold = service.stats();
        let searched = cold.fallbacks - cold.fallbacks_settled;
        assert!(searched > 0, "seed {seed}: some repeats must be searched");
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.unreachable, 0, "the social graph is connected");
        service.reset_stats();
        let second = service.serve_batch(&repeats);
        assert_eq!(service.stats().cache_hits, searched, "seed {seed}");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.distance(), b.distance());
        }

        // Then the whole workload, repeats included, against Dijkstra.
        service.reset_stats();
        pairs.extend(repeats);
        let answers = service.serve_batch(&pairs);
        assert_eq!(answers.len(), pairs.len());
        for (&(s, t), answer) in pairs.iter().zip(&answers) {
            assert_eq!(
                answer.distance(),
                dijkstra.distance(s, t),
                "pair ({s},{t}) seed {seed}"
            );
            assert!(
                !answer.is_miss(),
                "fallback is enabled: no unanswered queries"
            );
        }

        let stats = service.stats();
        assert_eq!(stats.queries, pairs.len() as u64);
        assert_eq!(stats.misses, 0);
    }
}

/// On a hub-free grid at small alpha the index misses often; the fallback
/// must resolve every miss exactly.
#[test]
fn fallback_on_miss_is_exact() {
    let graph = vicinity::graph::generators::classic::grid(30, 30);
    let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
        .seed(9)
        .build(&graph);
    let service = QueryService::builder(oracle, graph)
        .threads(2)
        .build()
        .unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let pairs = random_pairs(service.graph(), 250, &mut rng);
    let answers = service.serve_batch(&pairs);

    let weighted = WeightedCsrGraph::unit_weights(service.graph());
    let mut dijkstra = Dijkstra::new(&weighted);
    let mut fallback_seen = false;
    for (&(s, t), answer) in pairs.iter().zip(&answers) {
        assert_eq!(answer.distance(), dijkstra.distance(s, t), "pair ({s},{t})");
        if answer.method() == Some(ServedMethod::Fallback) {
            fallback_seen = true;
        }
    }
    assert!(
        fallback_seen,
        "a sparse grid at alpha=2 must exercise the fallback path"
    );
    assert!(service.stats().fallbacks > 0);
}

/// One oracle, one service, shared across at least four threads driving
/// their own sessions concurrently: answers stay exact and the aggregate
/// statistics account for every query.
#[test]
fn one_oracle_shared_across_four_threads() {
    let graph = SocialGraphConfig::small_test().generate(303);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(303)
        .build(&graph);
    let service = QueryService::builder(oracle, graph)
        .cache_capacity(2048)
        .build()
        .expect("oracle and graph agree");

    const THREADS: usize = 4;
    const PER_THREAD: usize = 300;

    // Reference answers computed single-threaded first.
    let mut workloads = Vec::new();
    for worker in 0..THREADS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + worker as u64);
        workloads.push(random_pairs(service.graph(), PER_THREAD, &mut rng));
    }
    let weighted = WeightedCsrGraph::unit_weights(service.graph());
    let mut dijkstra = Dijkstra::new(&weighted);
    let expected: Vec<Vec<Option<u32>>> = workloads
        .iter()
        .map(|pairs| {
            pairs
                .iter()
                .map(|&(s, t)| dijkstra.distance(s, t))
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for (pairs, expected) in workloads.iter().zip(&expected) {
            let mut session = service.session();
            scope.spawn(move || {
                for (&(s, t), want) in pairs.iter().zip(expected) {
                    let answer = session.serve_one(s, t);
                    assert_eq!(answer.distance(), *want, "pair ({s},{t})");
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.queries, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.misses, 0);
    assert_eq!(
        stats.queries,
        stats.index_hits + stats.fallbacks + stats.cache_hits + stats.unreachable,
        "every query must be accounted to exactly one serving method"
    );
    assert!(
        stats.latency.count() > 0,
        "latency recording is on by default"
    );
}

/// `serve_into` must reuse the caller's output vector across batches: once
/// the first batch has sized it, serving same-sized batches through the
/// same session must never reallocate (callers previously could observe
/// per-batch reallocation).
#[test]
fn serve_into_reuses_output_capacity_across_batches() {
    let graph = SocialGraphConfig::small_test().generate(305);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(305)
        .build(&graph);
    let service = QueryService::builder(oracle, graph)
        .cache_capacity(1024)
        .build()
        .expect("oracle and graph agree");
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let pairs = random_pairs(service.graph(), 256, &mut rng);

    let mut session = service.session();
    let mut out = Vec::new();
    session.serve_into(&pairs, &mut out);
    assert_eq!(out.len(), pairs.len());
    let settled_capacity = out.capacity();
    for round in 0..10 {
        out.clear();
        session.serve_into(&pairs, &mut out);
        assert_eq!(out.len(), pairs.len());
        assert_eq!(
            out.capacity(),
            settled_capacity,
            "round {round}: serve_into reallocated the output vector"
        );
    }
}

/// The batched serve_into pipeline (duplicate collapsing, prefetch engine,
/// fallback with its memoised search) must classify every query exactly as a
/// serve_one loop does — exercised on a grid so the fallback path is part
/// of the comparison.
#[test]
fn batched_serve_matches_serve_one_loop() {
    let graph = vicinity::graph::generators::classic::grid(20, 20);
    let build = || {
        let oracle = OracleBuilder::new(Alpha::new(4.0).unwrap())
            .seed(13)
            .build(&graph);
        QueryService::builder(oracle, graph.clone())
            .cache_capacity(512)
            .build()
            .expect("oracle and graph agree")
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let mut pairs = random_pairs(&graph, 300, &mut rng);
    let duplicates: Vec<_> = pairs[..30].to_vec();
    pairs.extend(duplicates);

    let scalar_service = build();
    let mut scalar_session = scalar_service.session();
    let scalar: Vec<ServedAnswer> = pairs
        .iter()
        .map(|&(s, t)| scalar_session.serve_one(s, t))
        .collect();

    let batched_service = build();
    let mut batched_session = batched_service.session();
    let mut batched = Vec::new();
    batched_session.serve_into(&pairs, &mut batched);

    assert_eq!(scalar.len(), batched.len());
    let mut fallback_seen = false;
    for (i, (a, b)) in scalar.iter().zip(&batched).enumerate() {
        assert_eq!(a.distance(), b.distance(), "pair {i} ({:?})", pairs[i]);
        assert_eq!(a.is_miss(), b.is_miss(), "pair {i}");
        assert_eq!(a.is_unreachable(), b.is_unreachable(), "pair {i}");
        if a.method() == Some(ServedMethod::Fallback) {
            fallback_seen = true;
        }
    }
    assert!(fallback_seen, "grid workload must exercise the fallback");
    drop(scalar_session);
    drop(batched_session);
    assert_eq!(
        scalar_service.stats().queries,
        batched_service.stats().queries
    );
}

/// serve_batch across threads returns answers in input order (spot-checked
/// against the same batch served single-threaded).
#[test]
fn batched_answers_preserve_input_order() {
    let graph = SocialGraphConfig::small_test().generate(304);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(304)
        .build(&graph);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let pairs = random_pairs(&graph, 400, &mut rng);

    let single = QueryService::builder(oracle.clone(), graph.clone())
        .threads(1)
        .build()
        .unwrap()
        .serve_batch(&pairs);
    let sharded = QueryService::builder(oracle, graph)
        .threads(4)
        .build()
        .unwrap()
        .serve_batch(&pairs);
    assert_eq!(single, sharded);
}

/// More single-pair `serve_batch` callers than this machine has cores, on
/// one service, while a fifth thread folds and resets the statistics: every
/// answer equals BFS, and once the observer is gone the statistics count
/// exactly the calls made after the last reset.
#[test]
fn single_pair_callers_share_pooled_sessions() {
    let graph = SocialGraphConfig::small_test().generate(306);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(306)
        .build(&graph);
    let service = QueryService::builder(oracle, graph)
        .cache_capacity(1024)
        .build()
        .expect("oracle and graph agree");

    const CALLERS: usize = 4;
    const CALLS: usize = 400;
    let mut bfs = BfsEngine::new(service.graph());
    // Per caller: each pair with its BFS distance.
    type Workload = Vec<((NodeId, NodeId), Option<u32>)>;
    let workloads: Vec<Workload> = (0..CALLERS)
        .map(|caller| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2000 + caller as u64);
            random_pairs(service.graph(), CALLS, &mut rng)
                .into_iter()
                .map(|(s, t)| ((s, t), bfs.distance(s, t)))
                .collect()
        })
        .collect();
    let serve_all = |workload: &[((NodeId, NodeId), Option<u32>)]| {
        for &((s, t), want) in workload {
            let answers = service.serve_batch(&[(s, t)]);
            assert_eq!(answers.len(), 1);
            assert_eq!(answers[0].distance(), want, "pair ({s},{t})");
        }
    };

    let start = Barrier::new(CALLERS + 1);
    let callers_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let callers: Vec<_> = workloads
            .iter()
            .map(|workload| {
                let (start, serve_all) = (&start, &serve_all);
                scope.spawn(move || {
                    start.wait();
                    serve_all(workload);
                })
            })
            .collect();
        let observer = scope.spawn(|| {
            start.wait();
            let mut rounds = 0u64;
            while !callers_done.load(Ordering::Acquire) {
                let stats = service.stats();
                assert!(stats.queries <= (CALLERS * CALLS) as u64);
                service.reset_stats();
                rounds += 1;
            }
            rounds
        });
        for caller in callers {
            caller.join().expect("caller panicked");
        }
        callers_done.store(true, Ordering::Release);
        assert!(observer.join().expect("observer panicked") > 0);
    });

    // Calls whose statistics are still unfolded in the pooled sessions,
    // then the final reset, which must clear those too, then a known
    // number of calls.
    let serve_concurrently = |range: std::ops::Range<usize>| {
        std::thread::scope(|scope| {
            for workload in &workloads {
                let (serve_all, range) = (&serve_all, range.clone());
                scope.spawn(move || serve_all(&workload[range]));
            }
        })
    };
    serve_concurrently(0..CALLS / 4);
    service.reset_stats();
    serve_concurrently(CALLS / 4..CALLS / 2);
    let stats = service.stats();
    assert_eq!(stats.queries, (CALLERS * CALLS / 4) as u64);
    assert_eq!(
        stats.queries,
        stats.index_hits + stats.fallbacks + stats.cache_hits + stats.unreachable,
        "every query is accounted to exactly one serving method"
    );
    assert_eq!(
        service.stats().queries,
        stats.queries,
        "folding is idempotent"
    );
}
