//! The traced replay of a request: the layers `QueryService::serve_batch`
//! runs, called one by one through their public functions and timed from
//! here, in the order the service calls them:
//!
//! 1. dedup of the request's pairs (service glue);
//! 2. a worker session opened and dropped, as each `serve_batch` call
//!    does (per-call set-up and the stats merge);
//! 3. `QueryCache::get` for each distinct pair;
//! 4. `distance_batch_accumulate` over the uncached pairs;
//! 5. for each index miss, the seeded fallback: `vicinity(s)`,
//!    `vicinity(t)` and `BidirBfsScratch::distance_seeded`;
//! 6. `QueryCache::insert` for each resolved pair.
//!
//! The request span covers all of it; its self time (dedup, peel-off and
//! answer assembly) plus the session span is the service overhead.

use std::time::Instant;

use vicinity_baselines::bidirectional_bfs::BidirBfsScratch;
use vicinity_core::dynamic::DynamicSnapshot;
use vicinity_core::index::VicinityOracle;
use vicinity_core::query::{DistanceAnswer, QueryIndex, QueryStats};
use vicinity_core::{OverlayGraph, VicinityRef};
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::{Adjacency, Distance, NodeId};
use vicinity_server::{CachedAnswer, QueryCache, QueryService};

use crate::check::Outcome;
use crate::trace::{Layer, Tracer};

/// An oracle version the replay can query: the frozen oracle with its
/// graph, or a dynamic-overlay snapshot.
pub trait ReplayIndex {
    type Graph: Adjacency;

    fn graph(&self) -> &Self::Graph;

    fn vicinity(&self, u: NodeId) -> Option<VicinityRef<'_>>;

    fn batch(
        &self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<DistanceAnswer>,
        stats: &mut QueryStats,
    );

    fn covers(&self, u: NodeId) -> bool {
        (u as usize) < self.graph().node_count()
    }

    /// The service's fallback for an index miss: a bidirectional BFS
    /// seeded with both endpoints' vicinities when both have one.
    fn fallback(&self, scratch: &mut BidirBfsScratch, s: NodeId, t: NodeId) -> Option<Distance> {
        match (self.vicinity(s), self.vicinity(t)) {
            (Some(vs), Some(vt)) if !vs.is_empty() && !vt.is_empty() => scratch.distance_seeded(
                self.graph(),
                vs.iter(),
                vs.radius(),
                vt.iter(),
                vt.radius(),
            ),
            _ => scratch.distance(self.graph(), s, t),
        }
    }
}

/// The frozen oracle and the graph it was built over.
pub struct Frozen<'a> {
    pub oracle: &'a VicinityOracle,
    pub graph: &'a CsrGraph,
}

impl ReplayIndex for Frozen<'_> {
    type Graph = CsrGraph;

    fn graph(&self) -> &CsrGraph {
        self.graph
    }

    fn vicinity(&self, u: NodeId) -> Option<VicinityRef<'_>> {
        self.oracle.vicinity(u)
    }

    fn batch(
        &self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<DistanceAnswer>,
        stats: &mut QueryStats,
    ) {
        self.oracle.distance_batch_accumulate(pairs, out, stats);
    }
}

impl ReplayIndex for DynamicSnapshot {
    type Graph = OverlayGraph;

    fn graph(&self) -> &OverlayGraph {
        DynamicSnapshot::graph(self)
    }

    fn vicinity(&self, u: NodeId) -> Option<VicinityRef<'_>> {
        self.vicinity_of(u)
    }

    fn batch(
        &self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<DistanceAnswer>,
        stats: &mut QueryStats,
    ) {
        self.distance_batch_accumulate(pairs, out, stats);
    }
}

/// Work counts of the replayed requests.
#[derive(Debug, Clone, Default)]
pub struct ReplayCounters {
    pub requests: u64,
    /// Pairs requested.
    pub pairs: u64,
    /// Distinct pairs after per-request dedup.
    pub unique: u64,
    pub cache_gets: u64,
    pub cache_hits: u64,
    /// Pairs sent to the index.
    pub index_pairs: u64,
    /// Index pairs answered without the fallback.
    pub index_answered: u64,
    pub fallback_calls: u64,
    /// Queue pops of the fallback searches.
    pub fallback_ops: u64,
    pub query: QueryStats,
}

impl ReplayCounters {
    pub fn merge(&mut self, other: &ReplayCounters) {
        self.requests += other.requests;
        self.pairs += other.pairs;
        self.unique += other.unique;
        self.cache_gets += other.cache_gets;
        self.cache_hits += other.cache_hits;
        self.index_pairs += other.index_pairs;
        self.index_answered += other.index_answered;
        self.fallback_calls += other.fallback_calls;
        self.fallback_ops += other.fallback_ops;
        self.query.merge(&other.query);
    }
}

/// One replaying client: its tracer, scratch and staging buffers.
pub struct ReplayClient<'a> {
    pub tracer: Tracer,
    /// Record spans; off while the replay warms the cache up.
    pub tracing: bool,
    pub counters: ReplayCounters,
    service: &'a QueryService,
    cache: &'a QueryCache,
    scratch: BidirBfsScratch,
    seen: FastMap<u64, u32>,
    unique: Vec<(NodeId, NodeId)>,
    slots: Vec<u32>,
    resolved: Vec<Outcome>,
    pending: Vec<u32>,
    pending_pairs: Vec<(NodeId, NodeId)>,
    index_out: Vec<DistanceAnswer>,
    next_id: u32,
}

impl<'a> ReplayClient<'a> {
    pub fn new(service: &'a QueryService, cache: &'a QueryCache, tracer: Tracer) -> Self {
        ReplayClient {
            tracer,
            tracing: false,
            counters: ReplayCounters::default(),
            service,
            cache,
            scratch: BidirBfsScratch::with_node_capacity(service.graph().node_count()),
            seen: FastMap::default(),
            unique: Vec::new(),
            slots: Vec::new(),
            resolved: Vec::new(),
            pending: Vec::new(),
            pending_pairs: Vec::new(),
            index_out: Vec::new(),
            next_id: 0,
        }
    }

    fn span(&mut self, layer: Layer, start: Instant) {
        if self.tracing {
            self.tracer
                .record(layer, self.next_id, start, Instant::now());
        }
    }

    /// Serve one request against `index` at cache epoch `epoch`, recording
    /// a span per layer call, and append one outcome per pair to `out`.
    pub fn serve<I: ReplayIndex>(
        &mut self,
        index: &I,
        epoch: u64,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<Outcome>,
    ) {
        let request_start = Instant::now();
        self.seen.clear();
        self.unique.clear();
        self.slots.clear();
        for &(s, t) in pairs {
            let unique = &mut self.unique;
            let slot = *self.seen.entry(QueryCache::key(s, t)).or_insert_with(|| {
                unique.push((s, t));
                (unique.len() - 1) as u32
            });
            self.slots.push(slot);
        }

        let start = Instant::now();
        drop(self.service.session());
        self.span(Layer::Session, start);

        self.resolved.clear();
        self.pending.clear();
        self.pending_pairs.clear();
        for k in 0..self.unique.len() {
            let (s, t) = self.unique[k];
            if !index.covers(s) || !index.covers(t) {
                self.resolved.push(Outcome::Miss);
                continue;
            }
            let start = Instant::now();
            let hit = self.cache.get(s, t, epoch);
            self.span(Layer::CacheGet, start);
            self.counters.cache_gets += 1;
            self.resolved.push(match hit {
                Some(answer) => {
                    self.counters.cache_hits += 1;
                    outcome(answer)
                }
                None => {
                    self.pending.push(k as u32);
                    self.pending_pairs.push((s, t));
                    Outcome::Miss
                }
            });
        }

        if !self.pending_pairs.is_empty() {
            self.index_out.clear();
            let start = Instant::now();
            index.batch(
                &self.pending_pairs,
                &mut self.index_out,
                &mut self.counters.query,
            );
            self.span(Layer::QueryBatch, start);
            self.counters.index_pairs += self.pending_pairs.len() as u64;
        }

        for j in 0..self.pending.len() {
            let (s, t) = self.pending_pairs[j];
            let answer = match self.index_out[j] {
                DistanceAnswer::Exact { distance, .. } => {
                    self.counters.index_answered += 1;
                    CachedAnswer::Exact(distance)
                }
                DistanceAnswer::Unreachable => {
                    self.counters.index_answered += 1;
                    CachedAnswer::Unreachable
                }
                DistanceAnswer::Miss => {
                    let start = Instant::now();
                    let distance = index.fallback(&mut self.scratch, s, t);
                    self.span(Layer::Fallback, start);
                    self.counters.fallback_calls += 1;
                    self.counters.fallback_ops += self.scratch.last_operations();
                    distance.map_or(CachedAnswer::Unreachable, CachedAnswer::Exact)
                }
            };
            let start = Instant::now();
            self.cache.insert(s, t, epoch, answer);
            self.span(Layer::CacheInsert, start);
            self.resolved[self.pending[j] as usize] = outcome(answer);
        }

        out.extend(self.slots.iter().map(|&slot| self.resolved[slot as usize]));
        self.span(Layer::Request, request_start);
        self.next_id += 1;
        self.counters.requests += 1;
        self.counters.pairs += pairs.len() as u64;
        self.counters.unique += self.unique.len() as u64;
    }
}

fn outcome(answer: CachedAnswer) -> Outcome {
    match answer {
        CachedAnswer::Exact(d) => Outcome::Exact(d),
        CachedAnswer::Unreachable => Outcome::Unreachable,
    }
}
