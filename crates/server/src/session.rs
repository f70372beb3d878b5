//! Per-worker session state: the full query pipeline with reusable scratch.
//!
//! A [`WorkerSession`] is the unit of serving concurrency. Each session
//! shares the service's *epoch slot* — an `Arc` pointer to the current
//! immutable oracle version — and owns everything mutable it needs: the
//! fallback search scratch (which grows to the graph size on its first
//! search), the batched-pipeline staging buffers, and its private
//! statistics. The query hot path takes no locks beyond one epoch-pointer
//! read per block and performs no steady-state allocation, no matter how
//! many sessions run in parallel. The only shared mutable structure is the
//! (optional) result cache, which is internally sharded.
//!
//! ## The result cache sits behind the index
//!
//! The index answers a pair in well under a microsecond, less than one
//! cache probe and one insert cost together, so the cache is never
//! consulted for pairs the index answers. It memoises only the answers of
//! fallback *searches*: a miss is first checked against the landmark
//! bounds the index already proved (settled pairs are neither probed nor
//! cached), and only a pair that still needs the seeded search probes the
//! cache, runs the search on a cache miss, and stores the result.
//!
//! ## Epochs
//!
//! A static service keeps one frozen [`Epoch`] forever (id 0). An
//! updatable service (see `QueryServiceBuilder::build_updatable`) lets a
//! writer thread apply edge updates to a `DynamicOracle` and publish a new
//! [`DynamicSnapshot`] per applied update; sessions pick up the current
//! epoch at the start of every served block, so each block is answered
//! against one consistent oracle version end to end. Cache entries are
//! stamped with the epoch that produced them and validated against the
//! reading session's epoch, so once a session observes a post-update
//! epoch it can never be served a pre-update memoised search answer.
//!
//! Every query goes through [`WorkerSession::serve_into`]
//! ([`WorkerSession::serve_one`] is a one-pair call of it): bad requests
//! are peeled off first, duplicate pairs anywhere in the call collapse
//! onto one resolution, the remaining pairs run through the oracle's
//! software-prefetch batch engine in blocks, and only index misses fall
//! back — to the landmark bounds when they meet, else to the cache and the
//! per-session bidirectional BFS (which runs on the epoch's graph view —
//! frozen CSR or dynamic overlay — through the shared [`Adjacency`]
//! abstraction). Latency recorded by `serve_into` is **block-amortised**
//! (a block's wall time divided over its pairs) rather than per-query —
//! the honest number for a batched engine, and the one
//! `serving_throughput` reports.
//!
//! The service keeps a fixed set of pooled sessions alive and serves every
//! `serve_batch` call on one of them, so a call pays only for its queries;
//! their statistics are folded into the service aggregate when
//! `QueryService::stats` is called. A session opened with
//! `QueryService::session` owns its buffers and merges its statistics into
//! the aggregate when dropped.

use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use vicinity_baselines::bidirectional_bfs::BidirBfsScratch;
use vicinity_core::dynamic::DynamicSnapshot;
use vicinity_core::index::VicinityOracle;
use vicinity_core::query::{DistanceAnswer, QueryIndex, QueryStats};
use vicinity_core::vicinity::VicinityRef;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::{Adjacency, Distance, NodeId, INFINITY};

use crate::cache::{CachedAnswer, QueryCache};
use crate::stats::{ServedMethod, ServerStats};

/// Distinct pairs per staged block of [`WorkerSession::serve_into`]. Large
/// enough to amortise the pipeline's staging sweeps and keep plenty of
/// independent misses in flight, small enough that memoised search answers
/// from one block are visible to concurrently serving sessions at fine
/// granularity — and that epoch swaps published by a writer thread are
/// observed promptly mid-batch.
const SERVE_BLOCK: usize = 64;

/// One published oracle version: everything a session needs to answer
/// queries consistently — the index view and the matching graph for the
/// fallback search — plus the epoch id cache entries are stamped with.
pub(crate) struct Epoch {
    /// Version stamp for cache validation. Static services stay at 0;
    /// updatable services use the dynamic oracle's update version.
    pub(crate) id: u64,
    pub(crate) oracle: EpochOracle,
}

/// The two oracle forms an epoch can carry. Static services keep the
/// frozen pair (zero per-query overlay overhead); updatable services
/// publish overlay snapshots.
pub(crate) enum EpochOracle {
    /// An immutable oracle build and the graph it was built over.
    Frozen {
        /// The shared index.
        oracle: Arc<VicinityOracle>,
        /// The build graph (fallback search substrate).
        graph: Arc<CsrGraph>,
    },
    /// A published dynamic-overlay snapshot (carries its own graph view).
    Dynamic(DynamicSnapshot),
}

impl Epoch {
    pub(crate) fn frozen(oracle: Arc<VicinityOracle>, graph: Arc<CsrGraph>) -> Arc<Self> {
        Arc::new(Epoch {
            id: 0,
            oracle: EpochOracle::Frozen { oracle, graph },
        })
    }

    pub(crate) fn dynamic(snapshot: DynamicSnapshot) -> Arc<Self> {
        Arc::new(Epoch {
            id: snapshot.version(),
            oracle: EpochOracle::Dynamic(snapshot),
        })
    }
}

impl EpochOracle {
    #[inline]
    fn distance_batch_accumulate(
        &self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<DistanceAnswer>,
        accumulator: &mut QueryStats,
    ) {
        match self {
            EpochOracle::Frozen { oracle, .. } => {
                oracle.distance_batch_accumulate(pairs, out, accumulator)
            }
            EpochOracle::Dynamic(snapshot) => {
                snapshot.distance_batch_accumulate(pairs, out, accumulator)
            }
        }
    }
}

/// The balls of both endpoints, which seed the fallback search; `None`
/// when either endpoint is a landmark (empty vicinity).
fn seed_balls<I: QueryIndex + ?Sized>(
    index: &I,
    s: NodeId,
    t: NodeId,
) -> Option<(VicinityRef<'_>, VicinityRef<'_>)> {
    match (index.vicinity_of(s), index.vicinity_of(t)) {
        (Some(vs), Some(vt)) if !vs.is_empty() && !vt.is_empty() => Some((vs, vt)),
        _ => None,
    }
}

/// Bound check for a pair the index missed: `Ok(d)` when the bounds the
/// index has already proved settle the distance, else `Err(upper)` with
/// the upper bound (or `INFINITY`) the search starts from.
///
/// A miss proves the closed balls `B(s, r_s)` and `B(t, r_t)` disjoint, so
/// `d(s, t) ≥ r_s + r_t + 1`; the nearest-landmark rows add the triangle
/// lower bound and an upper bound `r + d(ℓ, ·)` that is the length of a
/// real path ([`QueryIndex::landmark_bounds`]). When the two meet, the
/// upper bound is the answer. Under the dynamic overlay the balls and rows
/// consulted are the patched ones, so the check stays exact across
/// updates.
pub(crate) fn settle_from_bounds<I: QueryIndex + ?Sized>(
    index: &I,
    s: NodeId,
    t: NodeId,
) -> Result<Distance, Distance> {
    let Some((vs, vt)) = seed_balls(index, s, t) else {
        return Err(INFINITY);
    };
    let bounds = index.landmark_bounds(vs, vt);
    let lower = bounds
        .lower
        .max(vs.radius().saturating_add(vt.radius()).saturating_add(1));
    // On a consistent index the bounds meet but never cross. They can
    // cross on a snapshot whose landmark rows or radii are in range but
    // wrong (decode checks ranges, not distances); the upper bound is
    // served then, as when they meet, rather than a panic.
    if bounds.upper != INFINITY && lower >= bounds.upper {
        return Ok(bounds.upper);
    }
    Err(bounds.upper)
}

/// Exact search for a miss the bounds did not settle, on `graph` (the
/// epoch's graph view). The bidirectional BFS is *seeded* with the two
/// balls — it stamps their interiors and resumes expansion from their
/// boundaries — and starts from `upper`, so it stops as soon as its
/// frontier radii prove nothing shorter exists. Landmark endpoints keep
/// the plain search.
fn bounded_search<I: QueryIndex + ?Sized, G: Adjacency>(
    index: &I,
    graph: &G,
    scratch: &mut BidirBfsScratch,
    s: NodeId,
    t: NodeId,
    upper: Distance,
) -> Option<Distance> {
    match seed_balls(index, s, t) {
        Some((vs, vt)) => scratch.distance_seeded_bounded(
            graph,
            vs.iter(),
            vs.radius(),
            vt.iter(),
            vt.radius(),
            upper,
        ),
        None => scratch.distance(graph, s, t),
    }
}

/// Result of one served query.
///
/// Mirrors [`DistanceAnswer`] but carries the serving-level provenance
/// ([`ServedMethod`]): whether the answer came from the oracle index (and
/// which case of Algorithm 1), the result cache, or the fallback search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedAnswer {
    /// An exact shortest-path distance.
    Exact {
        /// Distance in hops.
        distance: Distance,
        /// How the answer was produced.
        method: ServedMethod,
    },
    /// The endpoints are provably disconnected.
    Unreachable,
    /// The query was not answered: an endpoint id is unknown to the index,
    /// or the index missed and no fallback is configured.
    Miss,
}

impl ServedAnswer {
    /// The numeric distance, when one is available.
    pub fn distance(&self) -> Option<Distance> {
        match self {
            ServedAnswer::Exact { distance, .. } => Some(*distance),
            _ => None,
        }
    }

    /// True when an exact distance was produced.
    pub fn is_exact(&self) -> bool {
        matches!(self, ServedAnswer::Exact { .. })
    }

    /// True when the endpoints are provably disconnected.
    pub fn is_unreachable(&self) -> bool {
        matches!(self, ServedAnswer::Unreachable)
    }

    /// True when the query went unanswered.
    pub fn is_miss(&self) -> bool {
        matches!(self, ServedAnswer::Miss)
    }

    /// Serving provenance, when an exact distance was produced.
    pub fn method(&self) -> Option<ServedMethod> {
        match self {
            ServedAnswer::Exact { method, .. } => Some(*method),
            _ => None,
        }
    }

    /// The method this answer is accounted under in [`ServerStats`].
    pub(crate) fn accounted_method(&self) -> ServedMethod {
        match *self {
            ServedAnswer::Exact { method, .. } => method,
            ServedAnswer::Unreachable => ServedMethod::Unreachable,
            ServedAnswer::Miss => ServedMethod::Miss,
        }
    }
}

/// Everything a session shares with its parent service.
#[derive(Clone)]
pub(crate) struct SharedState {
    /// The current oracle version. Readers clone the inner `Arc` once per
    /// block; a writer thread replaces it on every applied update.
    pub(crate) epoch: Arc<RwLock<Arc<Epoch>>>,
    pub(crate) cache: Option<Arc<QueryCache>>,
    pub(crate) fallback: bool,
    pub(crate) record_latency: bool,
    /// Node count of every epoch (updates never add nodes): ids at or
    /// beyond it are bad requests.
    pub(crate) nodes: usize,
}

impl SharedState {
    #[inline]
    pub(crate) fn current_epoch(&self) -> Arc<Epoch> {
        self.epoch.read().expect("epoch slot poisoned").clone()
    }
}

/// Reusable staging buffers for the batched serving pipeline. Owned by the
/// session so repeated `serve_into` calls allocate nothing once the
/// high-water mark is reached.
#[derive(Default)]
struct BatchScratch {
    /// Input positions of the distinct pairs forwarded to the batch engine.
    pending_pos: Vec<u32>,
    /// The forwarded pairs themselves, parallel to `pending_pos`.
    pending_pairs: Vec<(NodeId, NodeId)>,
    /// `(input position, pending index)` of duplicates: pairs whose
    /// normalised key already appeared earlier in the same call.
    duplicates: Vec<(u32, u32)>,
    /// Normalised key → pending index, for duplicate collapsing.
    seen: FastMap<u64, u32>,
    /// Batch-engine answers of one block.
    index_answers: Vec<DistanceAnswer>,
}

impl BatchScratch {
    fn clear(&mut self) {
        self.pending_pos.clear();
        self.pending_pairs.clear();
        self.duplicates.clear();
        self.seen.clear();
        self.index_answers.clear();
    }
}

/// A worker's private serving state. Open one per thread with
/// [`crate::QueryService::session`]; it is `Send`, so it can be moved into
/// a worker thread and used for any number of queries.
pub struct WorkerSession {
    shared: SharedState,
    scratch: BidirBfsScratch,
    batch: BatchScratch,
    /// Output buffer of [`WorkerSession::serve_one`].
    single: Vec<ServedAnswer>,
    pub(crate) stats: ServerStats,
    /// The aggregate this session's statistics merge into when it drops;
    /// `None` for the service's pooled sessions, whose statistics
    /// `QueryService::stats` folds instead.
    merge_into: Option<Arc<Mutex<ServerStats>>>,
}

impl WorkerSession {
    pub(crate) fn new(shared: SharedState, merge_into: Option<Arc<Mutex<ServerStats>>>) -> Self {
        WorkerSession {
            shared,
            scratch: BidirBfsScratch::new(),
            batch: BatchScratch::default(),
            single: Vec::new(),
            stats: ServerStats::default(),
            merge_into,
        }
    }

    /// A fresh session in this one's place: same service, same statistics,
    /// none of its buffers. Replaces a session whose call panicked, which
    /// may have left the buffers mid-update.
    pub(crate) fn reopened(mut self) -> Self {
        let mut fresh = WorkerSession::new(self.shared.clone(), self.merge_into.take());
        fresh.stats = std::mem::take(&mut self.stats);
        fresh
    }

    /// Serve one query: a one-pair call of [`WorkerSession::serve_into`].
    pub fn serve_one(&mut self, s: NodeId, t: NodeId) -> ServedAnswer {
        let mut out = std::mem::take(&mut self.single);
        out.clear();
        self.serve_into(&[(s, t)], &mut out);
        let answer = out[0];
        self.single = out;
        answer
    }

    /// Turn a raw index answer into a served answer, resolving misses
    /// through the fallback (when configured).
    fn resolve_index_answer(
        &mut self,
        epoch: &Epoch,
        s: NodeId,
        t: NodeId,
        answer: DistanceAnswer,
    ) -> ServedAnswer {
        match answer {
            DistanceAnswer::Exact { distance, method } => ServedAnswer::Exact {
                distance,
                method: ServedMethod::Index(method),
            },
            DistanceAnswer::Unreachable => ServedAnswer::Unreachable,
            DistanceAnswer::Miss if self.shared.fallback => match &epoch.oracle {
                EpochOracle::Frozen { oracle, graph } => {
                    self.resolve_miss(epoch.id, oracle.as_ref(), graph.as_ref(), s, t)
                }
                EpochOracle::Dynamic(snapshot) => {
                    self.resolve_miss(epoch.id, snapshot, snapshot.graph(), s, t)
                }
            },
            DistanceAnswer::Miss => ServedAnswer::Miss,
        }
    }

    /// Exact answer for a pair the index missed, on one epoch's index and
    /// graph view. The landmark bounds come first ([`settle_from_bounds`];
    /// settled pairs are counted in `fallbacks_settled` and never touch
    /// the cache). Only a pair that still needs a search probes the result
    /// cache; on a cache miss the search runs and its answer is stored,
    /// stamped with `epoch_id`. A cache hit is served as
    /// [`ServedMethod::Cache`], a cached disconnection as
    /// [`ServedAnswer::Unreachable`].
    fn resolve_miss<I: QueryIndex + ?Sized, G: Adjacency>(
        &mut self,
        epoch_id: u64,
        index: &I,
        graph: &G,
        s: NodeId,
        t: NodeId,
    ) -> ServedAnswer {
        let upper = match settle_from_bounds(index, s, t) {
            Ok(distance) => {
                self.stats.fallbacks_settled += 1;
                return ServedAnswer::Exact {
                    distance,
                    method: ServedMethod::Fallback,
                };
            }
            Err(upper) => upper,
        };
        let cache = self.shared.cache.as_deref();
        if let Some(cached) = cache.and_then(|c| c.get(s, t, epoch_id)) {
            return match cached {
                CachedAnswer::Exact(distance) => ServedAnswer::Exact {
                    distance,
                    method: ServedMethod::Cache,
                },
                CachedAnswer::Unreachable => ServedAnswer::Unreachable,
            };
        }
        let distance = bounded_search(index, graph, &mut self.scratch, s, t, upper);
        if let Some(cache) = cache {
            let answer = distance.map_or(CachedAnswer::Unreachable, CachedAnswer::Exact);
            cache.insert(s, t, epoch_id, answer);
        }
        match distance {
            Some(distance) => ServedAnswer::Exact {
                distance,
                method: ServedMethod::Fallback,
            },
            None => ServedAnswer::Unreachable,
        }
    }

    /// Serve a slice of queries, appending the answers to `out` in input
    /// order. This is the one serving path: `serve_batch` runs it on a
    /// pooled session and [`WorkerSession::serve_one`] with one pair.
    ///
    /// It works in stages:
    ///
    /// 1. bad requests are peeled off and duplicate pairs anywhere in the
    ///    call collapse onto one resolution;
    /// 2. the distinct pairs run through the oracle's staged
    ///    software-prefetch engine in blocks of 64, each answered against
    ///    the epoch current when the block starts;
    /// 3. index answers are served as they are; each miss goes to the
    ///    landmark bounds and, when they do not settle it, to the result
    ///    cache and then the search (see `WorkerSession::resolve_miss`);
    /// 4. duplicates adopt their first occurrence's answer and method
    ///    verbatim.
    ///
    /// Answers and caching semantics are identical to a
    /// [`WorkerSession::serve_one`] loop, except that a repeat inside one
    /// call reports its first occurrence's method where the loop could
    /// report a cache hit. Every query is accounted. Each block records one latency sample
    /// per pair it resolved, the block's wall time (the first block's
    /// includes stage 1) divided over its pairs; bad requests and
    /// duplicates cost only the fill-in and record none. The blocks' wall
    /// times add up to the session's `busy_time`.
    ///
    /// `out` keeps its capacity across calls: feeding same-sized batches
    /// through one session reallocates neither the output vector (when the
    /// caller clears it between batches) nor the internal staging buffers.
    pub fn serve_into(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<ServedAnswer>) {
        if pairs.is_empty() {
            return;
        }
        // Each block's time runs from the end of the previous one, so the
        // first block also carries the peel-off and dedup below.
        let mut block_start = Instant::now();
        let base = out.len();
        out.reserve(pairs.len());
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();

        // Stage 1: peel off bad requests; collapse duplicates onto their
        // first occurrence; placeholder-fill `out` so later stages can
        // write answers by input position.
        let nodes = self.shared.nodes;
        for (i, &(s, t)) in pairs.iter().enumerate() {
            out.push(ServedAnswer::Miss);
            // Unknown node ids are a bad request, not a provable
            // disconnection: they stay a miss.
            if s as usize >= nodes || t as usize >= nodes {
                self.stats.record(ServedMethod::Miss, None);
                continue;
            }
            let next = batch.pending_pos.len() as u32;
            let first = *batch.seen.entry(QueryCache::key(s, t)).or_insert(next);
            if first == next {
                batch.pending_pos.push(i as u32);
                batch.pending_pairs.push((s, t));
            } else {
                batch.duplicates.push((i as u32, first));
            }
        }

        // Stages 2–3, one block at a time: the staged batch engine
        // (header prefetch → span/landmark-row prefetch → warm-line
        // resolution), then the misses through the bounds, the cache and
        // the search.
        for (block, block_pairs) in batch.pending_pairs.chunks(SERVE_BLOCK).enumerate() {
            let epoch = self.shared.current_epoch();
            batch.index_answers.clear();
            epoch.oracle.distance_batch_accumulate(
                block_pairs,
                &mut batch.index_answers,
                &mut self.stats.index_work,
            );
            let positions = &batch.pending_pos[block * SERVE_BLOCK..][..block_pairs.len()];
            for ((&(s, t), &answer), &pos) in
                block_pairs.iter().zip(&batch.index_answers).zip(positions)
            {
                out[base + pos as usize] = self.resolve_index_answer(&epoch, s, t, answer);
            }
            let block_end = Instant::now();
            let elapsed = block_end - block_start;
            block_start = block_end;
            self.stats.busy_time += elapsed;
            let per_query = self
                .shared
                .record_latency
                .then(|| elapsed / block_pairs.len() as u32);
            for &pos in positions {
                self.stats
                    .record(out[base + pos as usize].accounted_method(), per_query);
            }
        }

        // Stage 4: duplicates adopt the first occurrence's answer and
        // method verbatim — the same answer the index, bounds, cache or
        // search just produced.
        for &(pos, first) in &batch.duplicates {
            let answer = out[base + batch.pending_pos[first as usize] as usize];
            out[base + pos as usize] = answer;
            self.stats.record(answer.accounted_method(), None);
        }
        self.batch = batch;
    }

    /// This session's private statistics (for a session from
    /// [`crate::QueryService::session`], merged into the service aggregate
    /// when it drops).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }
}

impl Drop for WorkerSession {
    fn drop(&mut self) {
        if let Some(aggregate) = &self.merge_into {
            if let Ok(mut aggregate) = aggregate.lock() {
                aggregate.merge(&self.stats);
            }
        }
    }
}
