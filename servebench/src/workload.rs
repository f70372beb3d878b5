//! Workload generators. Everything here is a pure function of the graph
//! and the workload seed; the program under test only ever sees the pairs
//! and edge updates these functions produce.

use vicinity_graph::csr::CsrGraph;
use vicinity_graph::NodeId;

use crate::rng::SplitMix64;

/// Candidates ranked per `fof-search` request.
pub const FOF_CANDIDATES: usize = 32;
/// Skew of the `fof-search` source popularity.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Single-pair requests pre-generated per `uniform-pairs` client. A client
/// that exhausts its pool starts over; at 2^18 distinct pairs per client
/// the reuse distance dwarfs the result cache, so a second pass sees the
/// cache exactly as fresh pairs would.
const UNIFORM_POOL_REQUESTS: usize = 1 << 18;
/// `fof-search` requests pre-generated per client (2^19 pairs), cycled in
/// the same way.
const FOF_POOL_REQUESTS: usize = 1 << 14;

/// Seed of the user popularity ranking. It is fixed, so every workload
/// seed ranks the same users and draws its own requests from them: under
/// Zipf(1.0) the ten most popular users send a quarter of the requests,
/// and whether they are hubs or leaves would otherwise be decided by the
/// workload seed.
const POPULARITY_SEED: u64 = 2012;

// Stream tags: one independent random stream per purpose.
const TAG_POPULARITY: u64 = 1;
const TAG_CLIENT: u64 = 0x100;
const TAG_UPDATES: u64 = 0x200;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single uniform-random pairs: the paper's query model.
    UniformPairs,
    /// Friend-of-friend candidate ranking for Zipf-popular users.
    FofSearch,
    /// `fof-search` reads beside a stream of edge removals and re-inserts.
    ChurnFof,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::UniformPairs,
        Workload::FofSearch,
        Workload::ChurnFof,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformPairs => "uniform-pairs",
            Workload::FofSearch => "fof-search",
            Workload::ChurnFof => "churn-fof",
        }
    }

    /// Closed-loop reader clients. `churn-fof` runs one reader, so reader
    /// and writer together keep at most two threads busy.
    pub fn clients(self) -> usize {
        match self {
            Workload::UniformPairs | Workload::FofSearch => 2,
            Workload::ChurnFof => 1,
        }
    }

    pub fn pairs_per_request(self) -> usize {
        match self {
            Workload::UniformPairs => 1,
            Workload::FofSearch | Workload::ChurnFof => FOF_CANDIDATES,
        }
    }
}

/// One client's request stream: fixed-length requests laid out back to
/// back, served in order and cycled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestPool {
    pub pairs: Vec<(NodeId, NodeId)>,
    pub request_len: usize,
}

impl RequestPool {
    pub fn requests(&self) -> usize {
        self.pairs.len() / self.request_len
    }

    pub fn request(&self, i: usize) -> &[(NodeId, NodeId)] {
        &self.pairs[i * self.request_len..(i + 1) * self.request_len]
    }
}

/// The request pools of every reader client of `workload`.
pub fn client_pools(workload: Workload, graph: &CsrGraph, seed: u64) -> Vec<RequestPool> {
    let n = graph.node_count();
    let stream = |client: usize| SplitMix64::stream(seed, TAG_CLIENT + client as u64);
    match workload {
        Workload::UniformPairs => (0..workload.clients())
            .map(|c| RequestPool {
                pairs: uniform_pairs(n, UNIFORM_POOL_REQUESTS, &mut stream(c)),
                request_len: 1,
            })
            .collect(),
        Workload::FofSearch | Workload::ChurnFof => {
            let popularity =
                permutation(n, &mut SplitMix64::stream(POPULARITY_SEED, TAG_POPULARITY));
            let zipf = Zipf::new(n, ZIPF_EXPONENT);
            (0..workload.clients())
                .map(|c| RequestPool {
                    pairs: fof_requests(
                        graph,
                        &popularity,
                        &zipf,
                        FOF_POOL_REQUESTS,
                        &mut stream(c),
                    ),
                    request_len: FOF_CANDIDATES,
                })
                .collect()
        }
    }
}

/// `count` uniform pairs of distinct nodes.
pub fn uniform_pairs(n: usize, count: usize, rng: &mut SplitMix64) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2, "uniform pairs need two nodes");
    (0..count)
        .map(|_| loop {
            let s = rng.below(n as u64) as NodeId;
            let t = rng.below(n as u64) as NodeId;
            if s != t {
                break (s, t);
            }
        })
        .collect()
}

/// A uniform random permutation of `0..n` (Fisher–Yates): rank `r` of the
/// popularity distribution is user `perm[r]`.
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<NodeId> {
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Zipf distribution over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^exponent`,
/// sampled by inverting the cumulative distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn probability(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `requests` friend-of-friend requests of [`FOF_CANDIDATES`] pairs each:
/// a Zipf-popular source and the ends of independent 2-hop random walks
/// from it.
pub fn fof_requests(
    graph: &CsrGraph,
    popularity: &[NodeId],
    zipf: &Zipf,
    requests: usize,
    rng: &mut SplitMix64,
) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::with_capacity(requests * FOF_CANDIDATES);
    for _ in 0..requests {
        let s = popularity[zipf.sample(rng)];
        for _ in 0..FOF_CANDIDATES {
            pairs.push((s, two_hop_target(graph, s, rng)));
        }
    }
    pairs
}

/// End of a 2-hop random walk from `s`. A walk that returns to `s` is
/// retried a few times, then cut to its first hop, so the target is never
/// the source itself and always within two hops of it.
fn two_hop_target(graph: &CsrGraph, s: NodeId, rng: &mut SplitMix64) -> NodeId {
    let step = |u: NodeId, rng: &mut SplitMix64| {
        let nbrs = graph.neighbors(u);
        assert!(
            !nbrs.is_empty(),
            "node {u} is isolated; the stand-in graph is connected"
        );
        nbrs[rng.below(nbrs.len() as u64) as usize]
    };
    let mut first = s;
    for _ in 0..8 {
        first = step(s, rng);
        let second = step(first, rng);
        if second != s {
            return second;
        }
    }
    first
}

/// One edge update of the `churn-fof` writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeUpdate {
    pub remove: bool,
    pub a: NodeId,
    pub b: NodeId,
}

/// `edges` uniformly sampled real edges, each removed and then inserted
/// back, so the schedule alternates `remove`/`insert` and every update
/// applies.
pub fn update_schedule(graph: &CsrGraph, edges: usize, seed: u64) -> Vec<EdgeUpdate> {
    let mut rng = SplitMix64::stream(seed, TAG_UPDATES);
    // Uniform over edges = uniform over arcs: pick an arc index and find
    // its tail in the cumulative degree sequence.
    let mut cumulative = Vec::with_capacity(graph.node_count() + 1);
    cumulative.push(0u64);
    for u in graph.nodes() {
        cumulative.push(cumulative[u as usize] + graph.degree(u) as u64);
    }
    let arcs = *cumulative.last().expect("cumulative degrees start at 0");
    let mut schedule = Vec::with_capacity(2 * edges);
    for _ in 0..edges {
        let arc = rng.below(arcs);
        let a = cumulative.partition_point(|&c| c <= arc) - 1;
        let b = graph.neighbors(a as NodeId)[(arc - cumulative[a]) as usize];
        let a = a as NodeId;
        schedule.push(EdgeUpdate { remove: true, a, b });
        schedule.push(EdgeUpdate {
            remove: false,
            a,
            b,
        });
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_baselines::bfs::BfsEngine;
    use vicinity_baselines::PointToPoint;
    use vicinity_graph::generators::social::SocialGraphConfig;

    fn small_graph() -> CsrGraph {
        SocialGraphConfig::small_test().generate(11)
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let graph = small_graph();
        for workload in Workload::ALL {
            let a = client_pools(workload, &graph, 1);
            assert_eq!(a, client_pools(workload, &graph, 1), "{}", workload.name());
            assert_ne!(a, client_pools(workload, &graph, 2), "{}", workload.name());
            assert_eq!(a.len(), workload.clients());
            if a.len() > 1 {
                assert_ne!(a[0], a[1], "clients must not replay each other");
            }
            for pool in &a {
                assert_eq!(pool.request_len, workload.pairs_per_request());
                assert!(pool.requests() > 0);
            }
        }
        assert_eq!(
            update_schedule(&graph, 50, 1),
            update_schedule(&graph, 50, 1)
        );
        assert_ne!(
            update_schedule(&graph, 50, 1),
            update_schedule(&graph, 50, 2)
        );
    }

    #[test]
    fn zipf_rank_frequencies_match_the_distribution() {
        let n = 100;
        let zipf = Zipf::new(n, 1.0);
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        for k in 0..n {
            let expected = 1.0 / ((k + 1) as f64 * harmonic);
            assert!((zipf.probability(k) - expected).abs() < 1e-12);
        }
        let draws = 400_000;
        let mut counts = vec![0u64; n];
        let mut rng = SplitMix64::new(5);
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for k in [0, 1, 2, 9, 49, 99] {
            let p = zipf.probability(k);
            let expected = p * draws as f64;
            let sigma = (draws as f64 * p * (1.0 - p)).sqrt();
            let got = counts[k] as f64;
            assert!(
                (got - expected).abs() < 5.0 * sigma,
                "rank {k}: {got} draws, expected {expected:.0} ± {sigma:.0}"
            );
        }
    }

    #[test]
    fn fof_targets_lie_within_two_hops() {
        let graph = small_graph();
        let mut bfs = BfsEngine::new(&graph);
        for pool in client_pools(Workload::FofSearch, &graph, 3) {
            for i in 0..pool.requests().min(200) {
                let request = pool.request(i);
                let source = request[0].0;
                for &(s, t) in request {
                    assert_eq!(s, source, "one source per request");
                    let d = bfs.distance(s, t).expect("targets are reachable");
                    assert!((1..=2).contains(&d), "({s}, {t}) is {d} hops apart");
                }
            }
        }
    }

    #[test]
    fn update_schedule_alternates_over_real_edges() {
        let graph = small_graph();
        let schedule = update_schedule(&graph, 100, 9);
        assert_eq!(schedule.len(), 200);
        for pair in schedule.chunks(2) {
            assert!(pair[0].remove && !pair[1].remove);
            assert_eq!((pair[0].a, pair[0].b), (pair[1].a, pair[1].b));
            assert!(graph.has_edge(pair[0].a, pair[0].b));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
