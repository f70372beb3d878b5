//! The [`QueryService`]: one oracle version shared by N workers, swapped
//! atomically by epoch when edge updates apply.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, TryLockError};
use std::time::Instant;

use vicinity_core::dynamic::{DynamicOracle, UpdateError};
use vicinity_core::index::VicinityOracle;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::NodeId;

use crate::cache::QueryCache;
use crate::session::{Epoch, ServedAnswer, SharedState, WorkerSession};
use crate::stats::ServerStats;

/// Errors raised when assembling a [`QueryService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The oracle was built over a different graph than the one provided
    /// (node counts disagree), so fallback answers would be meaningless.
    GraphMismatch {
        /// Nodes in the oracle's indexed graph.
        oracle_nodes: usize,
        /// Nodes in the provided graph.
        graph_nodes: usize,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::GraphMismatch {
                oracle_nodes,
                graph_nodes,
            } => write!(
                f,
                "oracle indexes {oracle_nodes} nodes but the graph has {graph_nodes}; \
                 the service must be built from the same graph the oracle was built over"
            ),
        }
    }
}

impl std::error::Error for ServerError {}

/// Builder for [`QueryService`].
pub struct QueryServiceBuilder {
    oracle: Arc<VicinityOracle>,
    graph: Arc<CsrGraph>,
    threads: usize,
    cache_capacity: usize,
    cache_shards: usize,
    fallback: bool,
    record_latency: bool,
}

impl QueryServiceBuilder {
    fn new(oracle: Arc<VicinityOracle>, graph: Arc<CsrGraph>) -> Self {
        QueryServiceBuilder {
            oracle,
            graph,
            threads: 0,
            cache_capacity: 0,
            cache_shards: 16,
            fallback: true,
            record_latency: true,
        }
    }

    /// Worker threads used by [`QueryService::serve_batch`]
    /// (`0` = all available parallelism, resolved once when the service is
    /// built).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enable a bounded LRU result cache holding up to `capacity` answers
    /// (`0` disables caching, the default). The cache memoises the answers
    /// of fallback searches — index misses the landmark bounds do not
    /// settle — so a repeated searched pair skips the search; pairs the
    /// index or the bounds answer never touch it. With
    /// [`QueryServiceBuilder::fallback`] disabled it does nothing.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Number of independently locked cache shards (rounded up to a power
    /// of two; default 16).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Enable or disable the per-worker exact fallback search for index
    /// misses (enabled by default).
    pub fn fallback(mut self, enabled: bool) -> Self {
        self.fallback = enabled;
        self
    }

    /// Enable or disable per-query latency recording (enabled by default;
    /// disabling shaves two clock reads off every query).
    pub fn record_latency(mut self, enabled: bool) -> Self {
        self.record_latency = enabled;
        self
    }

    /// Assemble the service, verifying the oracle and graph agree. The
    /// service serves this one frozen oracle version forever (epoch 0);
    /// use [`QueryServiceBuilder::build_updatable`] for live edge updates.
    pub fn build(self) -> Result<QueryService, ServerError> {
        let (service, _) = self.build_inner(None)?;
        Ok(service)
    }

    /// Assemble an *updatable* service: returns the service plus an
    /// [`OracleWriter`] owning a [`DynamicOracle`] over the same oracle
    /// and graph. Edge updates applied through the writer (typically from
    /// a dedicated writer thread) publish a new epoch that every worker
    /// session picks up at its next block; epoch-stamped result-cache
    /// entries from older versions stop being served the moment the new
    /// epoch is observed.
    pub fn build_updatable(self) -> Result<(QueryService, OracleWriter), ServerError> {
        let dynamic = DynamicOracle::new(Arc::clone(&self.oracle), Arc::clone(&self.graph))
            .map_err(|e| match e {
                UpdateError::GraphMismatch {
                    oracle_nodes,
                    graph_nodes,
                } => ServerError::GraphMismatch {
                    oracle_nodes,
                    graph_nodes,
                },
                other => unreachable!("construction can only fail on mismatch: {other}"),
            })?;
        let (service, epoch) = self.build_inner(Some(&dynamic))?;
        let writer = OracleWriter { dynamic, epoch };
        Ok((service, writer))
    }

    #[allow(clippy::type_complexity)]
    fn build_inner(
        self,
        dynamic: Option<&DynamicOracle>,
    ) -> Result<(QueryService, Arc<RwLock<Arc<Epoch>>>), ServerError> {
        if self.oracle.node_count() != self.graph.node_count() {
            return Err(ServerError::GraphMismatch {
                oracle_nodes: self.oracle.node_count(),
                graph_nodes: self.graph.node_count(),
            });
        }
        let cache = (self.cache_capacity > 0)
            .then(|| Arc::new(QueryCache::new(self.cache_capacity, self.cache_shards)));
        let initial = match dynamic {
            Some(dynamic) => Epoch::dynamic(dynamic.snapshot()),
            None => Epoch::frozen(Arc::clone(&self.oracle), Arc::clone(&self.graph)),
        };
        let epoch = Arc::new(RwLock::new(initial));
        let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
        let threads = if self.threads == 0 {
            parallelism
        } else {
            self.threads
        };
        let service = QueryService {
            shared: SharedState {
                epoch: Arc::clone(&epoch),
                cache,
                fallback: self.fallback,
                record_latency: self.record_latency,
                nodes: self.oracle.node_count(),
            },
            aggregate: Arc::new(Mutex::new(ServerStats::default())),
            fold: Mutex::new(()),
            slots: (0..2 * threads.max(parallelism))
                .map(|_| SessionSlot::default())
                .collect(),
            oracle: self.oracle,
            graph: self.graph,
            threads,
        };
        Ok((service, epoch))
    }
}

/// The single-writer handle of an updatable [`QueryService`]: owns the
/// [`DynamicOracle`] and the right to publish epochs. Move it to a writer
/// thread; readers keep serving concurrently and adopt each published
/// version at their next block boundary.
///
/// Publishing order guarantees: an update is fully applied to the dynamic
/// oracle *before* its snapshot is published, and cache entries are
/// validated against the reading session's epoch — so no session observing
/// epoch `E` can ever be served an answer computed (or cached) under an
/// earlier epoch.
pub struct OracleWriter {
    dynamic: DynamicOracle,
    epoch: Arc<RwLock<Arc<Epoch>>>,
}

impl OracleWriter {
    /// Insert the undirected edge `{a, b}` and, if it was applied, publish
    /// the new oracle version to the service. Returns whether the edge was
    /// actually inserted (`Ok(false)` = already present, nothing
    /// published).
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, UpdateError> {
        let applied = self.dynamic.insert_edge(a, b)?;
        if applied {
            self.publish();
        }
        Ok(applied)
    }

    /// Remove the undirected edge `{a, b}` and, if it was applied, publish
    /// the new oracle version to the service.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, UpdateError> {
        let applied = self.dynamic.remove_edge(a, b)?;
        if applied {
            self.publish();
        }
        Ok(applied)
    }

    /// Fold the overlay into a fresh frozen base and publish the compacted
    /// version. Answers (and the epoch id, hence cached entries) are
    /// unchanged; subsequent snapshots get cheaper.
    pub fn compact(&mut self) {
        self.dynamic.compact();
        self.publish();
    }

    /// Publish the writer's current state as the service's epoch.
    fn publish(&mut self) {
        let snapshot = self.dynamic.snapshot();
        *self.epoch.write().expect("epoch slot poisoned") = Epoch::dynamic(snapshot);
    }

    /// The wrapped dynamic oracle (e.g. for direct queries on the writer
    /// thread or overlay introspection).
    pub fn oracle(&self) -> &DynamicOracle {
        &self.dynamic
    }

    /// The epoch id readers currently observe from this writer's updates.
    pub fn version(&self) -> u64 {
        self.dynamic.version()
    }
}

/// A concurrent, batched query-serving frontend over one immutable
/// [`VicinityOracle`] build.
///
/// The oracle and graph live behind `Arc`s; worker sessions share them
/// without replication (the paper's §5 open question, answered within one
/// machine: the index is immutable after construction, so the hot path
/// needs no synchronisation at all). Index misses are settled from the
/// landmark bounds where they meet and otherwise by per-worker
/// allocation-free bidirectional BFS, whose answers an optional sharded
/// LRU result cache memoises; every query feeds a latency/method/work
/// statistics aggregate.
///
/// Every [`QueryService::serve_batch`] call is served on one of a fixed
/// set of pooled [`WorkerSession`]s that live as long as the service, so a
/// call pays for its queries and not for opening a session, building a
/// dedup map or locking the statistics aggregate. There are twice as many
/// slots as the larger of the worker count and the machine's available
/// parallelism; a caller claims a free one, or waits for its own when all
/// are busy.
///
/// ```
/// use std::sync::Arc;
/// use vicinity_core::{config::Alpha, OracleBuilder};
/// use vicinity_graph::generators::social::SocialGraphConfig;
/// use vicinity_server::QueryService;
///
/// let graph = SocialGraphConfig::small_test().generate(7);
/// let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(7).build(&graph);
/// let service = QueryService::builder(oracle, graph)
///     .threads(4)
///     .cache_capacity(10_000)
///     .build()
///     .unwrap();
/// let answers = service.serve_batch(&[(0, 42), (1, 99), (42, 0)]);
/// assert_eq!(answers.len(), 3);
/// assert!(answers.iter().all(|a| a.is_exact() || a.is_unreachable()));
/// ```
pub struct QueryService {
    shared: SharedState,
    /// Statistics of dropped caller-opened sessions and of the pooled
    /// sessions as of the last [`QueryService::stats`] call. Held only for
    /// a merge, a clone or a reset, never while a slot is held.
    aggregate: Arc<Mutex<ServerStats>>,
    /// Serialises [`QueryService::stats`] and [`QueryService::reset_stats`],
    /// so a reset cannot interleave with a fold and readmit statistics
    /// from before it. Lock order: `fold`, then one slot at a time, then
    /// `aggregate` after the slot is released. A thread holding a slot
    /// takes no other lock (pooled sessions do not merge on drop), so a
    /// slot holder always finishes.
    fold: Mutex<()>,
    /// The pooled sessions, opened on first use.
    slots: Box<[SessionSlot]>,
    /// Construction-time handles, kept for [`QueryService::oracle`] /
    /// [`QueryService::graph`]. For an updatable service these are the
    /// *initial* base; the currently served version lives in the epoch
    /// slot.
    oracle: Arc<VicinityOracle>,
    graph: Arc<CsrGraph>,
    /// Worker threads per `serve_batch` call, resolved at build time.
    threads: usize,
}

/// One pooled session, on a cache line of its own so callers claiming
/// neighbouring slots do not contend on one line.
#[derive(Default)]
#[repr(align(64))]
struct SessionSlot(Mutex<Option<WorkerSession>>);

impl SessionSlot {
    /// Claim the slot if it is free.
    fn try_claim(&self) -> Option<MutexGuard<'_, Option<WorkerSession>>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(self.recover(poisoned.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Claim the slot, waiting for its holder.
    fn claim(&self) -> MutexGuard<'_, Option<WorkerSession>> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| self.recover(poisoned.into_inner()))
    }

    /// The guard of a slot whose holder panicked: the panic may have left
    /// the session's buffers mid-update, so it is replaced by a fresh one
    /// that keeps its statistics, and the slot serves on.
    fn recover<'a>(
        &'a self,
        mut guard: MutexGuard<'a, Option<WorkerSession>>,
    ) -> MutexGuard<'a, Option<WorkerSession>> {
        *guard = guard.take().map(WorkerSession::reopened);
        self.0.clear_poison();
        guard
    }
}

/// Source of the per-thread slot hints.
static NEXT_SLOT_HINT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Where this thread starts looking for a free slot, so concurrent
    /// callers start on different slots.
    static SLOT_HINT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// This thread's slot hint, drawn once per thread.
fn slot_hint() -> usize {
    SLOT_HINT.with(|hint| match hint.get() {
        Some(drawn) => drawn,
        None => {
            let drawn = NEXT_SLOT_HINT.fetch_add(1, Ordering::Relaxed);
            hint.set(Some(drawn));
            drawn
        }
    })
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("nodes", &self.oracle.node_count())
            .field("epoch", &self.epoch_id())
            .field("threads", &self.threads)
            .field("cache", &self.shared.cache.is_some())
            .field("fallback", &self.shared.fallback)
            .finish()
    }
}

impl QueryService {
    /// Start building a service from an owned oracle and graph.
    pub fn builder(oracle: VicinityOracle, graph: CsrGraph) -> QueryServiceBuilder {
        QueryServiceBuilder::new(Arc::new(oracle), Arc::new(graph))
    }

    /// Start building a service from already-shared handles (e.g. when the
    /// caller keeps its own `Arc` to the graph for other subsystems).
    pub fn builder_from_arcs(
        oracle: Arc<VicinityOracle>,
        graph: Arc<CsrGraph>,
    ) -> QueryServiceBuilder {
        QueryServiceBuilder::new(oracle, graph)
    }

    /// The construction-time oracle build. For an updatable service this
    /// is the initial base version; live traffic is answered from the
    /// current epoch (see [`QueryService::epoch_id`]).
    pub fn oracle(&self) -> &Arc<VicinityOracle> {
        &self.oracle
    }

    /// The construction-time graph (initial base for updatable services).
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The epoch id (oracle update version) currently being served.
    pub fn epoch_id(&self) -> u64 {
        self.shared.current_epoch().id
    }

    /// Number of answers currently held by the result cache (0 when caching
    /// is disabled).
    pub fn cached_answers(&self) -> usize {
        self.shared.cache.as_ref().map_or(0, |c| c.len())
    }

    /// Effective worker-thread count for a batch of `work_items` queries:
    /// the build-time worker count, clamped to the work.
    pub fn effective_threads(&self, work_items: usize) -> usize {
        self.threads.clamp(1, work_items.max(1))
    }

    /// Open a worker session of the caller's own, outside the service's
    /// pool. The session is `Send` and lock-free on its hot path; it owns
    /// its buffers (the search scratch grows on its first search). Create
    /// one per worker thread and feed it queries with
    /// [`WorkerSession::serve_into`] or [`WorkerSession::serve_one`]; its
    /// statistics fold into [`QueryService::stats`] when it drops.
    pub fn session(&self) -> WorkerSession {
        WorkerSession::new(self.shared.clone(), Some(Arc::clone(&self.aggregate)))
    }

    /// Answer a batch of queries, sharded over the configured number of
    /// worker threads. Answers are returned in input order.
    ///
    /// The call is served on pooled sessions (see [`QueryService`]); with
    /// one worker the calling thread serves it on one session, and the only
    /// allocation is the returned vector. With more, pair `(s, t)` goes to
    /// the worker picked by a hash of the normalised pair, so every copy of
    /// a pair meets in one session, whose [`WorkerSession::serve_into`]
    /// resolves it once: duplicate collapsing, the oracle's
    /// software-prefetch pipeline, and fallback (landmark bounds, then the
    /// memoised search) only for true misses. Latency samples are
    /// block-amortised (see `crate::session`); the call's wall time, up to
    /// its last worker's end, is recorded in that worker's session.
    pub fn serve_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<ServedAnswer> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let wall_start = Instant::now();
        let threads = self.effective_threads(pairs.len());
        if threads == 1 {
            return self.with_session(|session| {
                let mut answers = Vec::with_capacity(pairs.len());
                session.serve_into(pairs, &mut answers);
                session.stats.wall_time += wall_start.elapsed();
                answers
            });
        }

        let mut shards = vec![(Vec::new(), Vec::new()); threads];
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let (positions, shard_pairs) = &mut shards[shard_of(s, t, threads)];
            positions.push(i as u32);
            shard_pairs.push((s, t));
        }
        let mut answers = vec![ServedAnswer::Miss; pairs.len()];
        let running = AtomicUsize::new(threads);
        std::thread::scope(|scope| {
            // A worker holds a slot only while it serves, never while it
            // waits, so workers of concurrent calls cannot deadlock. The
            // last worker to finish records the call's wall time.
            let handles: Vec<_> = shards
                .iter()
                .map(|(_, shard_pairs)| {
                    let running = &running;
                    scope.spawn(move || {
                        let mut answers = Vec::with_capacity(shard_pairs.len());
                        self.with_session(|session| {
                            session.serve_into(shard_pairs, &mut answers);
                            if running.fetch_sub(1, Ordering::AcqRel) == 1 {
                                session.stats.wall_time += wall_start.elapsed();
                            }
                        });
                        answers
                    })
                })
                .collect();
            for (handle, (positions, _)) in handles.into_iter().zip(&shards) {
                let shard_answers = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (&pos, answer) in positions.iter().zip(shard_answers) {
                    answers[pos as usize] = answer;
                }
            }
        });
        answers
    }

    /// Run `f` on a pooled session: the first free slot from this thread's
    /// hint on, else (every slot busy) this thread's own slot once it is
    /// released. The slot's session is opened on first use.
    fn with_session<R>(&self, f: impl FnOnce(&mut WorkerSession) -> R) -> R {
        let start = slot_hint() % self.slots.len();
        let (head, tail) = self.slots.split_at(start);
        let mut guard = tail
            .iter()
            .chain(head)
            .find_map(SessionSlot::try_claim)
            .unwrap_or_else(|| self.slots[start].claim());
        f(guard.get_or_insert_with(|| WorkerSession::new(self.shared.clone(), None)))
    }

    /// Snapshot of the aggregate serving statistics: every pooled session's
    /// statistics so far are folded into the aggregate, which also holds
    /// those of dropped caller-opened sessions.
    ///
    /// The fold claims each pooled session in turn, so it waits for the
    /// call in flight on each busy one (a fallback search included).
    /// Caller-opened sessions dropping meanwhile are not held up.
    pub fn stats(&self) -> ServerStats {
        let _fold = self.fold.lock().unwrap_or_else(PoisonError::into_inner);
        let mut pooled = ServerStats::default();
        for slot in self.slots.iter() {
            if let Some(session) = slot.claim().as_mut() {
                pooled.merge(&std::mem::take(&mut session.stats));
            }
        }
        let mut aggregate = self.aggregate.lock().expect("stats aggregate poisoned");
        aggregate.merge(&pooled);
        aggregate.clone()
    }

    /// Reset the aggregate statistics and every pooled session's (e.g.
    /// after a warm-up phase). Like [`QueryService::stats`], it waits for
    /// the calls in flight on the pooled sessions. Live caller-opened
    /// sessions keep theirs.
    pub fn reset_stats(&self) {
        let _fold = self.fold.lock().unwrap_or_else(PoisonError::into_inner);
        for slot in self.slots.iter() {
            if let Some(session) = slot.claim().as_mut() {
                session.stats = ServerStats::default();
            }
        }
        *self.aggregate.lock().expect("stats aggregate poisoned") = ServerStats::default();
    }
}

/// The worker of pair `(s, t)` among `threads`, the same for every copy of
/// the pair. The normalised key goes through the MurmurHash3 64-bit
/// finaliser first: its low bits are the larger endpoint's alone, so a
/// batch from one source to candidates below it would otherwise go to one
/// worker.
fn shard_of(s: NodeId, t: NodeId, threads: usize) -> usize {
    let mut mixed = QueryCache::key(s, t);
    mixed ^= mixed >> 33;
    mixed = mixed.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    mixed ^= mixed >> 33;
    mixed = mixed.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    mixed ^= mixed >> 33;
    (((mixed >> 32) * threads as u64) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::settle_from_bounds;
    use crate::stats::ServedMethod;
    use rand::SeedableRng;
    use vicinity_baselines::bfs::BfsEngine;
    use vicinity_baselines::PointToPoint;
    use vicinity_core::config::Alpha;
    use vicinity_core::OracleBuilder;
    use vicinity_graph::algo::sampling::random_pairs;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    fn small_service(seed: u64, cache: usize, threads: usize) -> QueryService {
        let graph = SocialGraphConfig::small_test().generate(seed);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(seed)
            .build(&graph);
        QueryService::builder(oracle, graph)
            .threads(threads)
            .cache_capacity(cache)
            .build()
            .expect("graph and oracle agree")
    }

    #[test]
    fn batch_answers_match_reference_bfs() {
        let service = small_service(21, 0, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pairs = random_pairs(service.graph(), 400, &mut rng);
        let answers = service.serve_batch(&pairs);
        assert_eq!(answers.len(), pairs.len());
        let mut bfs = BfsEngine::new(service.graph());
        for (&(s, t), answer) in pairs.iter().zip(&answers) {
            assert_eq!(answer.distance(), bfs.distance(s, t), "pair ({s},{t})");
            assert!(answer.is_exact() || answer.is_unreachable());
        }
        let stats = service.stats();
        assert_eq!(stats.queries, 400);
        assert!(stats.throughput_qps() > 0.0);
        assert_eq!(
            stats.misses, 0,
            "fallback is enabled, no query goes unanswered"
        );
    }

    #[test]
    fn thread_count_does_not_change_answers() {
        let graph = SocialGraphConfig::small_test().generate(22);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(22)
            .build(&graph);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pairs = random_pairs(&graph, 300, &mut rng);

        let single = QueryService::builder(oracle.clone(), graph.clone())
            .threads(1)
            .build()
            .unwrap()
            .serve_batch(&pairs);
        let four = QueryService::builder(oracle, graph)
            .threads(4)
            .build()
            .unwrap()
            .serve_batch(&pairs);
        assert_eq!(
            single, four,
            "answers must be order-stable and thread-invariant"
        );
    }

    /// Pairs `(i, n-1-i)` of `service`'s graph, split by how the pipeline
    /// resolves them: answered by the index, settled by the landmark
    /// bounds, or searched.
    fn pairs_by_resolution(service: &QueryService) -> [Vec<(NodeId, NodeId)>; 3] {
        let oracle = service.oracle();
        let n = oracle.node_count() as NodeId;
        let mut split: [Vec<(NodeId, NodeId)>; 3] = Default::default();
        for s in 0..n / 2 {
            let t = n - 1 - s;
            let class = if !oracle.distance(s, t).is_miss() {
                0
            } else if settle_from_bounds(oracle.as_ref(), s, t).is_ok() {
                1
            } else {
                2
            };
            split[class].push((s, t));
        }
        split
    }

    #[test]
    fn cache_serves_repeated_pairs() {
        // The cache memoises fallback searches only: serving a batch again
        // turns exactly its searched pairs into cache hits, with identical
        // distances, while index and bound-settled answers are recomputed.
        let service = small_service(23, 4096, 1);
        let pairs: Vec<(NodeId, NodeId)> = (0..400u32).map(|i| (i, 1999 - i)).collect();
        let first = service.serve_batch(&pairs);
        let before = service.stats();
        let searched = before.fallbacks - before.fallbacks_settled;
        assert!(searched > 0, "some misses must need the search");
        assert_eq!(before.cache_hits, 0, "a cold cache serves nothing");
        assert_eq!(before.unreachable, 0, "the social graph is connected");
        assert_eq!(service.cached_answers() as u64, searched);

        service.reset_stats();
        let second = service.serve_batch(&pairs);
        let after = service.stats();
        assert_eq!(after.cache_hits, searched);
        assert_eq!(after.index_hits, before.index_hits);
        assert_eq!(after.fallbacks, before.fallbacks_settled);
        assert_eq!(after.fallbacks_settled, before.fallbacks_settled);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.distance(), b.distance());
            if b.method() != Some(ServedMethod::Cache) {
                assert_eq!(a.method(), b.method());
            }
        }
        assert_eq!(service.cached_answers() as u64, searched);
    }

    #[test]
    fn index_and_bound_settled_answers_are_never_cached() {
        let service = small_service(32, 4096, 1);
        let [answered, settled, _] = pairs_by_resolution(&service);
        assert!(!answered.is_empty() && !settled.is_empty());

        let answers = service.serve_batch(&answered);
        assert!(answers
            .iter()
            .all(|a| matches!(a.method(), Some(ServedMethod::Index(_)))));
        assert_eq!(service.cached_answers(), 0);

        let answers = service.serve_batch(&settled);
        assert!(answers
            .iter()
            .all(|a| a.method() == Some(ServedMethod::Fallback)));
        assert_eq!(service.stats().fallbacks_settled, settled.len() as u64);
        assert_eq!(service.cached_answers(), 0);
        assert_eq!(service.stats().cache_hits, 0);
    }

    #[test]
    fn cacheless_batches_do_not_fake_cache_hits() {
        // Without a result cache there is nothing to serve repeats from:
        // every occurrence must resolve through the index (exactly like a
        // serve_one loop) and no answer may claim cache provenance.
        let service = small_service(28, 0, 1);
        let pairs: Vec<(NodeId, NodeId)> = vec![(1, 900), (2, 800), (900, 1), (1, 900)];
        let answers = service.serve_batch(&pairs);
        assert_eq!(answers[0].distance(), answers[2].distance());
        assert_eq!(answers[0].distance(), answers[3].distance());
        assert!(answers
            .iter()
            .all(|a| a.method() != Some(ServedMethod::Cache)));
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.queries, 4);
    }

    #[test]
    fn misses_are_reported_when_fallback_disabled() {
        // A grid at moderate alpha misses often; with fallback off, misses
        // surface to the caller.
        let graph = classic::grid(25, 25);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(3)
            .build(&graph);
        let service = QueryService::builder(oracle, graph)
            .threads(2)
            .fallback(false)
            .build()
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pairs = random_pairs(service.graph(), 300, &mut rng);
        let answers = service.serve_batch(&pairs);
        let misses = answers.iter().filter(|a| a.is_miss()).count();
        assert!(
            misses > 0,
            "a sparse grid at alpha=2 must produce some misses"
        );
        assert_eq!(service.stats().misses, misses as u64);
    }

    #[test]
    fn unreachable_pairs_are_definitive() {
        let mut b = GraphBuilder::with_node_count(10);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(5, 6);
        let graph = b.build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(4)
            .build(&graph);
        let service = QueryService::builder(oracle, graph)
            .cache_capacity(64)
            .build()
            .unwrap();
        let answers = service.serve_batch(&[(0, 6), (0, 6), (2, 0)]);
        assert!(answers[0].is_unreachable());
        assert!(
            answers[1].is_unreachable(),
            "the duplicate adopts the first answer: still unreachable"
        );
        assert_eq!(answers[2].distance(), Some(2));
    }

    #[test]
    fn builder_rejects_mismatched_graph() {
        let graph = classic::path(10);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&graph);
        let other = classic::path(11);
        let err = QueryService::builder(oracle, other).build().unwrap_err();
        assert_eq!(
            err,
            ServerError::GraphMismatch {
                oracle_nodes: 10,
                graph_nodes: 11
            }
        );
        assert!(err.to_string().contains("10"));
    }

    #[test]
    fn sessions_pool_scratch_and_merge_stats() {
        // A caller-opened session owns its scratch and merges its
        // statistics into the aggregate when it drops.
        let service = small_service(24, 0, 1);
        {
            let mut session = service.session();
            session.serve_one(0, 500);
            session.serve_one(3, 700);
            assert_eq!(session.stats().queries, 2);
            assert_eq!(service.stats().queries, 0, "merged only on drop");
        }
        assert_eq!(service.stats().queries, 2);
        // serve_batch calls run on the pooled sessions, which live on:
        // `stats()` folds what they served so far, exactly once.
        service.serve_batch(&[(9, 100)]);
        service.serve_batch(&[(9, 100), (10, 200)]);
        let stats = service.stats();
        assert_eq!(stats.queries, 5);
        assert_eq!(service.stats().queries, 5, "a second fold adds nothing");
        assert!(stats.latency.count() > 0);
        assert!(stats.wall_time > std::time::Duration::ZERO);
        // Reset clears the aggregate and the pooled sessions alike.
        service.serve_batch(&[(11, 300)]);
        service.reset_stats();
        assert_eq!(service.stats().queries, 0);
        service.serve_batch(&[(12, 400)]);
        assert_eq!(service.stats().queries, 1);
    }

    #[test]
    fn poisoned_session_slot_is_reopened() {
        // A call that panics while holding a pooled session poisons its
        // slot; the next claim replaces the session, keeps its
        // statistics, and serves on.
        let service = small_service(29, 0, 1);
        service.serve_batch(&[(0, 500)]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.with_session(|_| panic!("worker panic"))
        }));
        assert!(panicked.is_err());
        assert!(service.slots.iter().any(|slot| slot.0.is_poisoned()));
        let mut bfs = BfsEngine::new(service.graph());
        for slot in 0..service.slots.len() as NodeId {
            let answers = service.serve_batch(&[(slot, 1000 + slot)]);
            assert_eq!(answers[0].distance(), bfs.distance(slot, 1000 + slot));
        }
        assert!(service.slots.iter().all(|slot| !slot.0.is_poisoned()));
        assert_eq!(service.stats().queries, 1 + service.slots.len() as u64);
    }

    #[test]
    fn bound_settled_fallbacks_merge_and_reset() {
        let service = small_service(28, 0, 2);
        let pairs: Vec<(NodeId, NodeId)> = (0..400u32).map(|i| (i, 1999 - i)).collect();
        service.serve_batch(&pairs);
        let stats = service.stats();
        assert!(stats.fallbacks_settled > 0, "α=4 misses are mostly settled");
        assert!(stats.fallbacks_settled <= stats.fallbacks);
        service.reset_stats();
        assert_eq!(service.stats().fallbacks_settled, 0);
    }

    #[test]
    fn out_of_range_ids_are_misses_not_unreachable() {
        let service = small_service(27, 64, 1);
        let bogus = 10_000_000u32;
        let answers = service.serve_batch(&[(0, bogus), (bogus, 0), (bogus, bogus)]);
        assert!(
            answers.iter().all(|a| a.is_miss()),
            "unknown ids must be misses, got {answers:?}"
        );
        assert_eq!(
            service.cached_answers(),
            0,
            "bad requests must not be cached"
        );
        assert_eq!(service.stats().misses, 3);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let service = small_service(25, 0, 4);
        assert!(service.serve_batch(&[]).is_empty());
        assert_eq!(service.stats().queries, 0);
    }

    #[test]
    fn cacheless_serve_batch_dedups_duplicates() {
        // The dedup satellite: without a result cache, duplicate-heavy
        // batches must still resolve each unique pair once. Pin it by
        // comparing index work against an identical service fed only the
        // unique pairs — and pin the cached configuration alongside.
        let duplicate_heavy: Vec<(NodeId, NodeId)> =
            vec![(1, 900), (1, 900), (900, 1), (2, 800), (1, 900), (2, 800)];
        let unique: Vec<(NodeId, NodeId)> = vec![(1, 900), (2, 800)];

        let cacheless = small_service(31, 0, 1);
        let reference = small_service(31, 0, 1);
        let answers = cacheless.serve_batch(&duplicate_heavy);
        let unique_answers = reference.serve_batch(&unique);
        // Duplicates adopt the first occurrence's answer *and method*
        // verbatim — no fake cache provenance.
        assert_eq!(answers[0], unique_answers[0]);
        assert_eq!(answers[1], answers[0]);
        assert_eq!(answers[2], answers[0]);
        assert_eq!(answers[3], unique_answers[1]);
        assert_eq!(answers[4], answers[0]);
        assert_eq!(answers[5], answers[3]);
        assert!(answers
            .iter()
            .all(|a| a.method() != Some(ServedMethod::Cache)));
        let stats = cacheless.stats();
        assert_eq!(stats.queries, 6, "every occurrence is accounted");
        assert_eq!(
            stats.index_work,
            reference.stats().index_work,
            "duplicates must not pay index work beyond the unique set"
        );
        // Sharded over workers, every copy of a pair meets in one session.
        let sharded = small_service(31, 0, 4);
        assert_eq!(sharded.serve_batch(&duplicate_heavy), answers);
        assert_eq!(sharded.stats().index_work, reference.stats().index_work);
        assert_eq!(sharded.stats().queries, 6);

        // Cached configuration: duplicates carry their first occurrence's
        // answer and method verbatim too, also when the first occurrence
        // was searched (and later when it is a cache hit).
        let cached = small_service(31, 1024, 1);
        let searched = pairs_by_resolution(&cached)[2][0];
        let mut with_search = duplicate_heavy.clone();
        with_search.extend([searched, (searched.1, searched.0), searched]);
        let cached_answers = cached.serve_batch(&with_search);
        assert_eq!(cached_answers[..6], answers[..]);
        assert_eq!(cached_answers[6].method(), Some(ServedMethod::Fallback));
        assert_eq!(cached_answers[7], cached_answers[6]);
        assert_eq!(cached_answers[8], cached_answers[6]);
        assert_eq!(cached.stats().cache_hits, 0);
        let again = cached.serve_batch(&with_search);
        assert_eq!(again[6].method(), Some(ServedMethod::Cache));
        assert_eq!(again[6].distance(), cached_answers[6].distance());
        assert_eq!(again[7], again[6]);
        assert_eq!(again[8], again[6]);
        assert_eq!(cached.stats().cache_hits, 3);
    }

    #[test]
    fn memoised_searches_are_not_served_across_an_update() {
        // A grid's misses mostly need the search. The memoised answers are
        // served before an update and searched again after it.
        let graph = classic::grid(16, 16);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(8)
            .build(&graph);
        let (service, mut writer) = QueryService::builder(oracle, graph)
            .threads(1)
            .cache_capacity(1024)
            .build_updatable()
            .unwrap();
        let searched = pairs_by_resolution(&service)[2].clone();
        assert!(!searched.is_empty(), "the grid must need searches");

        let first = service.serve_batch(&searched);
        assert!(first
            .iter()
            .all(|a| a.method() == Some(ServedMethod::Fallback)));
        let second = service.serve_batch(&searched);
        assert!(second
            .iter()
            .all(|a| a.method() == Some(ServedMethod::Cache)));
        assert_eq!(service.stats().cache_hits, searched.len() as u64);

        assert!(writer.insert_edge(0, 255).unwrap());
        service.reset_stats();
        let updated = writer.oracle().graph().to_csr();
        let answers = service.serve_batch(&searched);
        let mut bfs = BfsEngine::new(&updated);
        for (&(s, t), answer) in searched.iter().zip(&answers) {
            assert_eq!(answer.distance(), bfs.distance(s, t), "pair ({s},{t})");
        }
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 0, "no pre-update answer is served");
        assert!(
            stats.fallbacks > stats.fallbacks_settled,
            "post-update misses are searched again"
        );
    }

    #[test]
    fn updatable_service_swaps_epochs_and_invalidates_cache() {
        // A long path: distance(0, 9) = 9. Insert a shortcut, serve, then
        // remove it again — each published epoch must be reflected
        // immediately, never a stale 9 after the insert or a stale 1 after
        // the removal. (Memoised searches across an update are pinned by
        // `memoised_searches_are_not_served_across_an_update`.)
        let graph = classic::path(10);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(5)
            .build(&graph);
        let (service, mut writer) = QueryService::builder(oracle, graph)
            .threads(1)
            .cache_capacity(1024)
            .build_updatable()
            .unwrap();

        let answers = service.serve_batch(&[(0, 9), (0, 9)]);
        assert_eq!(answers[0].distance(), Some(9));
        assert_eq!(answers[1].distance(), Some(9));
        assert_eq!(service.epoch_id(), 0);

        assert!(writer.insert_edge(0, 9).unwrap());
        assert_eq!(service.epoch_id(), 1);
        let answers = service.serve_batch(&[(0, 9), (1, 9)]);
        assert_eq!(
            answers[0].distance(),
            Some(1),
            "post-insert epoch must not serve the cached pre-insert answer"
        );
        assert_eq!(answers[1].distance(), Some(2));

        assert!(writer.remove_edge(0, 9).unwrap());
        assert_eq!(service.epoch_id(), 2);
        let answers = service.serve_batch(&[(0, 9)]);
        assert_eq!(
            answers[0].distance(),
            Some(9),
            "post-removal epoch must not serve the cached shortcut answer"
        );

        // Compaction keeps the epoch (answers unchanged ⇒ cached entries
        // stay valid) and keeps serving correct.
        writer.compact();
        assert_eq!(service.epoch_id(), 2);
        assert_eq!(writer.oracle().overlay_len(), 0);
        assert_eq!(service.serve_batch(&[(0, 9)])[0].distance(), Some(9));
    }

    #[test]
    fn updatable_service_with_concurrent_readers() {
        // Readers hammer the service from worker threads while the writer
        // applies updates; every answer must be exact for *some* published
        // graph version — concretely, the only distances (0, n-1) can take
        // on a path graph with an optional shortcut are 1 and n-1.
        let graph = classic::path(64);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(6)
            .build(&graph);
        let (service, mut writer) = QueryService::builder(oracle, graph)
            .threads(2)
            .cache_capacity(256)
            .build_updatable()
            .unwrap();
        std::thread::scope(|scope| {
            let service = &service;
            let reader = scope.spawn(move || {
                for _ in 0..200 {
                    let answers = service.serve_batch(&[(0, 63), (5, 40), (0, 63)]);
                    for (i, answer) in answers.iter().enumerate() {
                        let d = answer.distance().expect("path graph is connected");
                        // Per-pair bounds, so an answer swapped between
                        // slots (or a stale cached value) cannot pass:
                        // (0,63) is 63 or 1 (via the shortcut); (5,40) is
                        // 35 or 29 (5→0, shortcut, 63→40).
                        let valid = match i {
                            1 => d == 35 || d == 29,
                            _ => d == 63 || d == 1,
                        };
                        assert!(valid, "impossible distance {d} served for pair {i}");
                    }
                }
            });
            for _ in 0..50 {
                assert!(writer.insert_edge(0, 63).unwrap());
                assert!(writer.remove_edge(0, 63).unwrap());
            }
            reader.join().expect("reader panicked");
        });
        assert_eq!(writer.version(), 100);
        assert_eq!(service.epoch_id(), 100);
        // Final state: the shortcut is removed again.
        assert_eq!(service.serve_batch(&[(0, 63)])[0].distance(), Some(63));
    }

    #[test]
    fn one_source_batches_reach_every_worker() {
        // A one-to-many batch (the friends-of-friends shape) must spread
        // over the workers whether the source is above or below its
        // candidates; copies of a pair, either orientation, share one.
        for threads in 2..=8 {
            for (source, candidates) in [(100_000, 0..64), (0, 1..65)] {
                let mut load = vec![0usize; threads];
                for t in candidates {
                    let shard = shard_of(source, t, threads);
                    assert_eq!(shard, shard_of(t, source, threads));
                    load[shard] += 1;
                }
                assert!(
                    load.iter().all(|&pairs| pairs > 0),
                    "source {source} on {threads} workers: {load:?}"
                );
            }
        }
    }

    #[test]
    fn effective_threads_clamps_to_work() {
        let service = small_service(26, 0, 8);
        assert_eq!(service.effective_threads(3), 3);
        assert_eq!(service.effective_threads(100), 8);
        assert_eq!(service.effective_threads(0), 1);
    }
}
