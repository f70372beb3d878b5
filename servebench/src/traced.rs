//! The traced run: the workload replayed through the layers' public
//! functions with one span per call, the BFS-only comparator, and the
//! per-layer metrics derived from both.

use std::ops::Deref;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use vicinity_baselines::bidirectional_bfs::BidirBfsScratch;
use vicinity_core::dynamic::{DynamicOracle, UpdateProfile};
use vicinity_graph::NodeId;
use vicinity_server::QueryCache;

use crate::drive::{client_loop, writer_loop, PhaseStats};
use crate::replay::{Frozen, ReplayClient, ReplayCounters, ReplayIndex};
use crate::report::{percentile, Metrics};
use crate::setup::CACHE_CAPACITY;
use crate::trace::{self, Layer, LayerTotals, Tracer};
use crate::workload::{EdgeUpdate, RequestPool, Workload};
use crate::WRITER_SPAN_CAPACITY;
use crate::{apply, join_all, mean, pct, quiescent_check, ratio, Bench, MIB};
use crate::{BASELINE_BUDGET, BASELINE_PAIRS, CHURN_SEGMENTS, SPAN_CAPACITY, UPDATE_RATE_PER_S};

fn apply_dynamic(dynamic: &mut DynamicOracle, update: EdgeUpdate) -> bool {
    let result = if update.remove {
        dynamic.remove_edge(update.a, update.b)
    } else {
        dynamic.insert_edge(update.a, update.b)
    };
    matches!(result, Ok(true))
}

/// Update-phase time of the standalone dynamic oracle, summed.
#[derive(Default)]
struct DynamicTotals {
    profile: UpdateProfile,
    writer_ns: u64,
    dynamic_ns: u64,
    rows_repaired: u64,
    vicinities_rebuilt: u64,
    updates: u64,
}

impl DynamicTotals {
    fn add(&mut self, p: UpdateProfile) {
        self.profile.labels_ns += p.labels_ns;
        self.profile.rows_ns += p.rows_ns;
        self.profile.cluster_ns += p.cluster_ns;
        self.profile.rebuild_ns += p.rebuild_ns;
        self.rows_repaired += p.rows_repaired as u64;
        self.vicinities_rebuilt += p.affected_vicinities as u64;
    }
}

/// Closed-loop replay clients, one per pool, until `duration` has passed
/// or their span buffers fill up. Each request is served against the
/// oracle version `current` returns, with its cache epoch. `beside` runs
/// on this thread meanwhile, given the phase's start and deadline.
fn replay_phase<G, I, R>(
    replays: &mut [ReplayClient<'_>],
    pools: &[RequestPool],
    refs: &[Vec<u32>],
    cursors: &mut [usize],
    duration: Duration,
    current: &(dyn Fn() -> (G, u64) + Sync),
    beside: impl FnOnce(Instant, Instant) -> R,
) -> (PhaseStats, R)
where
    G: Deref<Target = I>,
    I: ReplayIndex,
{
    let start = Instant::now();
    let deadline = start + duration;
    let (clients, result) = std::thread::scope(|scope| {
        let handles: Vec<_> = replays
            .iter_mut()
            .zip(pools)
            .zip(refs)
            .zip(cursors.iter_mut())
            .map(|(((replay, pool), refs), cursor)| {
                scope.spawn(move || {
                    client_loop(pool, refs, cursor, (start, deadline), |pairs, out| {
                        let (index, epoch) = current();
                        replay.serve(&*index, epoch, pairs, out);
                        !replay.tracer.nearly_full(4 * pairs.len() + 4)
                    })
                })
            })
            .collect();
        let result = beside(start, deadline);
        (join_all(handles), result)
    });
    (PhaseStats::merge(duration, clients), result)
}

/// End the warm-up: count from zero and record spans from here on.
fn start_tracing(replays: &mut [ReplayClient<'_>]) {
    for replay in replays {
        replay.counters = ReplayCounters::default();
        replay.tracing = true;
    }
}

impl Bench {
    /// The traced measurement: the same workload replayed through the
    /// layers' public functions, one span per call, then the BFS-only
    /// comparator. Returns the report text; fills the per-layer metrics.
    pub(crate) fn traced(
        &mut self,
        warmup: Duration,
        duration: Duration,
        untraced: &PhaseStats,
        metrics: &mut Metrics,
    ) -> String {
        let cache = QueryCache::new(CACHE_CAPACITY, 16);
        let clients = self.pools.len();
        let origin = Instant::now();
        let capacity = SPAN_CAPACITY / clients;
        let mut replays: Vec<ReplayClient<'_>> = (0..clients)
            .map(|_| ReplayClient::new(&self.service, &cache, Tracer::new(origin, capacity)))
            .collect();
        let mut writer_tracer = Tracer::new(origin, WRITER_SPAN_CAPACITY);
        let mut dynamic_totals = DynamicTotals::default();
        let mut dynamic_state = None;

        let mut cursors = self.cursors.clone();
        let phase = match self.args.workload {
            Workload::UniformPairs | Workload::FofSearch => {
                let index = Frozen {
                    oracle: &self.index.oracle,
                    graph: &self.index.graph,
                };
                let current = || (&index, 0);
                let (pools, refs) = (&self.pools, &self.refs);
                let (warm, ()) = replay_phase(
                    &mut replays,
                    pools,
                    refs,
                    &mut cursors,
                    warmup,
                    &current,
                    |_, _| (),
                );
                self.checks.merge(&warm.tally);
                start_tracing(&mut replays);
                let (phase, ()) = replay_phase(
                    &mut replays,
                    pools,
                    refs,
                    &mut cursors,
                    duration,
                    &current,
                    |_, _| (),
                );
                phase
            }
            Workload::ChurnFof => {
                let writer = self
                    .writer
                    .as_mut()
                    .expect("churn runs on an updatable service");
                // A standalone dynamic oracle beside the writer, caught up
                // with the updates the untraced phase applied.
                let mut dynamic = DynamicOracle::new(
                    Arc::clone(&self.index.oracle),
                    Arc::clone(&self.index.graph),
                )
                .expect("oracle and graph agree");
                for k in 0..self.next_update {
                    assert!(apply_dynamic(
                        &mut dynamic,
                        self.schedule[k % self.schedule.len()]
                    ));
                }
                let slot = RwLock::new(Arc::new(dynamic.snapshot()));
                let current = || {
                    let snapshot = Arc::clone(&slot.read().expect("snapshot slot poisoned"));
                    let epoch = snapshot.version();
                    (snapshot, epoch)
                };
                let (pools, refs) = (&self.pools, &self.refs);
                let (warm, ()) = replay_phase(
                    &mut replays,
                    pools,
                    refs,
                    &mut cursors,
                    warmup,
                    &current,
                    |_, _| (),
                );
                self.checks.merge(&warm.tally);
                start_tracing(&mut replays);

                let (schedule, next) = (&self.schedule, &mut self.next_update);
                let (phase, writes) = replay_phase(
                    &mut replays,
                    pools,
                    refs,
                    &mut cursors,
                    duration,
                    &current,
                    |start, deadline| {
                        writer_loop(
                            schedule,
                            next,
                            UPDATE_RATE_PER_S,
                            start,
                            deadline,
                            |u, id| {
                                let t0 = Instant::now();
                                let served = apply(writer, u);
                                let t1 = Instant::now();
                                let standalone = apply_dynamic(&mut dynamic, u);
                                let t2 = Instant::now();
                                writer_tracer.record(Layer::WriterApply, id, t0, t1);
                                writer_tracer.record(Layer::DynamicApply, id, t1, t2);
                                writer_tracer.record(Layer::Update, id, t0, t2);
                                dynamic_totals.add(dynamic.last_update_profile());
                                dynamic_totals.writer_ns += (t1 - t0).as_nanos() as u64;
                                dynamic_totals.dynamic_ns += (t2 - t1).as_nanos() as u64;
                                dynamic_totals.updates += 1;
                                *slot.write().expect("snapshot slot poisoned") =
                                    Arc::new(dynamic.snapshot());
                                served && standalone
                            },
                        )
                    },
                );
                self.writer_stats.extend(writes);
                dynamic_state = Some((dynamic.overlay_len(), dynamic.compactions()));
                let next_request = pools[0].request(cursors[0]);
                let tally = quiescent_check(
                    &self.service,
                    writer,
                    next_request,
                    self.args.seed,
                    CHURN_SEGMENTS,
                );
                self.checks.merge(&tally);
                phase
            }
        };
        self.cursors = cursors;

        let mut counters = ReplayCounters::default();
        let mut totals = LayerTotals::default();
        let mut threads: Vec<(String, Vec<trace::Span>)> = Vec::new();
        for (c, replay) in replays.into_iter().enumerate() {
            counters.merge(&replay.counters);
            totals.add_thread(replay.tracer.spans());
            threads.push((format!("client{c}"), replay.tracer.into_spans()));
        }
        totals.add_thread(writer_tracer.spans());
        threads.push(("writer".into(), writer_tracer.into_spans()));

        let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/trace-{}-seed{}.csv",
            self.args.workload.name(),
            self.args.seed
        ));
        let named: Vec<(&str, &[trace::Span])> = threads
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_slice()))
            .collect();
        let trace_note = match trace::write_csv(&trace_path, &named) {
            Ok(()) => format!("spans written to {}", trace_path.display()),
            Err(e) => format!("spans not written ({e})"),
        };

        let baseline = self.baseline();
        let occupancy = pct(cache.len() as u64, CACHE_CAPACITY as u64);
        let mut text = format!(
            "trace: {} requests, {} spans, {} requests not accounted for; {trace_note}\n",
            counters.requests,
            named.iter().map(|(_, s)| s.len()).sum::<usize>(),
            totals.unaccounted_roots,
        );
        self.layer_metrics(
            metrics,
            &LayerInputs {
                counters: &counters,
                totals: &totals,
                untraced,
                traced: &phase,
                baseline,
                occupancy,
                dynamic: &dynamic_totals,
                dynamic_state,
            },
        );
        text += &format!(
            "traced: served_qps {:.1} 1/s, request_p50_us {:.3} us ({} requests) vs untraced \
             served_qps {:.1} 1/s, request_p50_us {:.3} us ({} requests)\n",
            phase.served_qps(),
            percentile(&phase.latencies_ns, 50.0) as f64 / 1e3,
            phase.latencies_ns.len(),
            untraced.served_qps(),
            percentile(&untraced.latencies_ns, 50.0) as f64 / 1e3,
            untraced.latencies_ns.len(),
        );
        self.checks.merge(&phase.tally);
        text
    }

    /// Unseeded bidirectional BFS on the workload's first distinct pairs:
    /// the paper's Table 3 comparator. Returns (µs per pair, ops per pair).
    fn baseline(&self) -> (f64, f64) {
        let mut seen = std::collections::HashSet::new();
        let pairs: Vec<(NodeId, NodeId)> = self.pools[0]
            .pairs
            .iter()
            .copied()
            .filter(|&(s, t)| seen.insert((s.min(t), s.max(t))))
            .take(BASELINE_PAIRS)
            .collect();
        let mut scratch = BidirBfsScratch::with_node_capacity(self.index.graph.node_count());
        let graph = self.index.graph.as_ref();
        let (mut ops, mut done) = (0u64, 0u64);
        let start = Instant::now();
        for &(s, t) in &pairs {
            std::hint::black_box(scratch.distance(graph, s, t));
            ops += scratch.last_operations();
            done += 1;
            if start.elapsed() > BASELINE_BUDGET {
                break;
            }
        }
        let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
        (elapsed_us / done as f64, ops as f64 / done as f64)
    }

    fn layer_metrics(&self, metrics: &mut Metrics, inputs: &LayerInputs<'_>) {
        let LayerInputs {
            counters: c,
            totals: t,
            untraced,
            traced,
            baseline,
            occupancy,
            dynamic: d,
            dynamic_state,
        } = *inputs;
        let index = &self.index;
        metrics.set("graph.generate_s", index.generate_s, "s");
        metrics.set("build.oracle_s", index.build_s, "s");
        metrics.set(
            "build.landmarks",
            index.oracle.landmarks().nodes().len() as f64,
            "count",
        );
        metrics.set(
            "build.avg_vicinity_nodes",
            index.oracle.average_vicinity_size(),
            "count",
        );
        metrics.set("serialize.encode_s", index.encode_s, "s");
        metrics.set("serialize.decode_s", index.decode_s, "s");
        metrics.set(
            "serialize.snapshot_mib",
            index.snapshot_bytes as f64 / MIB,
            "MiB",
        );

        let request_ns = t.root_ns(Layer::Request) as f64;
        let share = |ns: u64| 100.0 * ratio(ns as f64, request_ns);
        let per_index_pair = |x: u64| ratio(x as f64, c.index_pairs as f64);
        metrics.set(
            "query.ns_per_pair",
            per_index_pair(t.self_ns(Layer::QueryBatch)),
            "ns",
        );
        metrics.set(
            "query.lookups_per_pair",
            per_index_pair(c.query.lookups),
            "count",
        );
        metrics.set(
            "query.boundary_scanned_per_pair",
            per_index_pair(c.query.boundary_scanned),
            "count",
        );
        metrics.set(
            "query.merge_intersections_per_pair",
            per_index_pair(c.query.merge_intersections),
            "count",
        );
        metrics.set(
            "query.probe_intersections_per_pair",
            per_index_pair(c.query.probe_intersections),
            "count",
        );
        metrics.set("query.hit_pct", pct(c.index_answered, c.index_pairs), "%");
        metrics.set("query.self_pct", share(t.self_ns(Layer::QueryBatch)), "%");

        metrics.set("fallback.calls_pct", pct(c.fallback_calls, c.pairs), "%");
        metrics.set(
            "fallback.ops_per_call",
            ratio(c.fallback_ops as f64, c.fallback_calls as f64),
            "count",
        );
        metrics.set("fallback.self_pct", share(t.self_ns(Layer::Fallback)), "%");

        let (bfs_us, bfs_ops) = baseline;
        let pairs_per_request = self.args.workload.pairs_per_request() as f64;
        let served_us_per_pair = mean(&untraced.latencies_ns) / 1e3 / pairs_per_request;
        let bfs_only_qps = self.pools.len() as f64 * 1e6 / bfs_us;
        metrics.set("baselines.bidir_bfs_us_per_pair", bfs_us, "us");
        metrics.set("baselines.bidir_bfs_ops_per_pair", bfs_ops, "count");
        metrics.set(
            "baselines.speedup_latency_x",
            ratio(bfs_us, served_us_per_pair),
            "x",
        );
        metrics.set(
            "baselines.speedup_throughput_x",
            ratio(untraced.served_qps(), bfs_only_qps),
            "x",
        );

        let calls = |l: Layer| t.calls(l) as f64;
        metrics.set("cache.hit_pct", pct(c.cache_hits, c.cache_gets), "%");
        metrics.set(
            "cache.get_ns",
            ratio(t.self_ns(Layer::CacheGet) as f64, calls(Layer::CacheGet)),
            "ns",
        );
        metrics.set(
            "cache.insert_ns",
            ratio(
                t.self_ns(Layer::CacheInsert) as f64,
                calls(Layer::CacheInsert),
            ),
            "ns",
        );
        metrics.set("cache.occupancy_pct", occupancy, "%");
        metrics.set(
            "cache.self_pct",
            share(t.self_ns(Layer::CacheGet) + t.self_ns(Layer::CacheInsert)),
            "%",
        );

        let overhead_ns = t.self_ns(Layer::Request) + t.self_ns(Layer::Session);
        metrics.set("service.dedup_pct", pct(c.pairs - c.unique, c.pairs), "%");
        metrics.set(
            "service.overhead_us_per_request",
            ratio(overhead_ns as f64, calls(Layer::Request)) / 1e3,
            "us",
        );
        metrics.set("service.self_pct", share(overhead_ns), "%");

        let writer_ns = d.writer_ns as f64;
        let update_share = |ns: u64| 100.0 * ratio(ns as f64, writer_ns);
        let per_update = |x: u64| ratio(x as f64, d.updates as f64);
        metrics.set("dynamic.updates", d.updates as f64, "count");
        metrics.set("dynamic.labels_pct", update_share(d.profile.labels_ns), "%");
        metrics.set("dynamic.rows_pct", update_share(d.profile.rows_ns), "%");
        metrics.set(
            "dynamic.clusters_pct",
            update_share(d.profile.cluster_ns),
            "%",
        );
        metrics.set(
            "dynamic.rebuild_pct",
            update_share(d.profile.rebuild_ns),
            "%",
        );
        let publish_ns = d.writer_ns as f64 - d.dynamic_ns as f64;
        metrics.set(
            "dynamic.publish_pct",
            100.0 * ratio(publish_ns, writer_ns),
            "%",
        );
        metrics.set(
            "dynamic.rows_repaired_per_update",
            per_update(d.rows_repaired),
            "count",
        );
        metrics.set(
            "dynamic.vicinities_rebuilt_per_update",
            per_update(d.vicinities_rebuilt),
            "count",
        );
        let (overlay, compactions) = dynamic_state.unwrap_or((0, 0));
        metrics.set("dynamic.overlay_entries", overlay as f64, "count");
        metrics.set("dynamic.compactions", compactions as f64, "count");

        metrics.set("traced.served_qps", traced.served_qps(), "1/s");
        metrics.set(
            "traced.request_p50_us",
            percentile(&traced.latencies_ns, 50.0) as f64 / 1e3,
            "us",
        );
        metrics.set(
            "trace.overhead_pct",
            100.0
                * ratio(
                    untraced.served_qps() - traced.served_qps(),
                    untraced.served_qps(),
                ),
            "%",
        );

        // Per-call times of layers that only some workloads run: printed
        // where they apply, not part of the result line.
        if c.fallback_calls > 0 {
            metrics.set(
                "fallback.us_per_call",
                ratio(t.self_ns(Layer::Fallback) as f64, c.fallback_calls as f64) / 1e3,
                "us",
            );
        }
        if d.updates > 0 {
            let us = |ns: f64| ns / d.updates as f64 / 1e3;
            metrics.set("dynamic.labels_us", us(d.profile.labels_ns as f64), "us");
            metrics.set("dynamic.rows_us", us(d.profile.rows_ns as f64), "us");
            metrics.set("dynamic.clusters_us", us(d.profile.cluster_ns as f64), "us");
            metrics.set("dynamic.rebuild_us", us(d.profile.rebuild_ns as f64), "us");
            metrics.set("dynamic.publish_us", us(publish_ns), "us");
            metrics.set(
                "dynamic.overlay_query_ns_per_pair",
                per_index_pair(t.self_ns(Layer::QueryBatch)),
                "ns",
            );
            self.update_metrics(metrics);
        }
    }
}

struct LayerInputs<'a> {
    counters: &'a ReplayCounters,
    totals: &'a LayerTotals,
    untraced: &'a PhaseStats,
    traced: &'a PhaseStats,
    baseline: (f64, f64),
    occupancy: f64,
    dynamic: &'a DynamicTotals,
    dynamic_state: Option<(usize, u64)>,
}
