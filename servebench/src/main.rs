//! Served-answer benchmark for the vicinity oracle.
//!
//! ```text
//! servebench --workload <uniform-pairs|fof-search|churn-fof> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the 100k-node social stand-in, round-trips the oracle through
//! its snapshot, drives one workload through `QueryService::serve_batch`,
//! checks the answers against plain BFS, and prints every metric by name
//! and unit. The last line of standard output is the JSON result. See
//! `README.md` next to this package for the workloads and metrics.

mod check;
mod drive;
mod replay;
mod report;
mod rng;
mod setup;
mod trace;
mod traced;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vicinity_graph::NodeId;
use vicinity_server::{OracleWriter, QueryService};

use check::{Outcome, Tally, NOT_CHECKED};
use drive::{client_loop, writer_loop, PhaseStats, WriterStats};
use report::{percentile, tail, Metrics, END_TO_END, PER_LAYER};
use rng::SplitMix64;
use setup::{Index, ALPHA, CACHE_CAPACITY, SERVICE_THREADS};
use workload::{client_pools, uniform_pairs, update_schedule, EdgeUpdate, RequestPool, Workload};

/// `uniform-pairs` requests per client whose answers are checked against
/// BFS (every time they are served); the other answers are checked only
/// for being answered at all.
const UNIFORM_CHECKED_REQUESTS: usize = 256;
/// `fof-search` requests per client whose witnessed references are
/// confirmed against BFS before the run.
const WITNESS_CHECKED_REQUESTS: usize = 32;
/// Edge updates per second of the `churn-fof` writer: a rate it sustains
/// on two cores without falling behind.
const UPDATE_RATE_PER_S: f64 = 20.0;
/// Distinct edges in the update schedule (each removed, then re-inserted).
const SCHEDULE_EDGES: usize = 4096;
/// `churn-fof` pauses readers and writer this many times per phase to check
/// served answers against BFS on the writer's current graph.
const CHURN_SEGMENTS: u32 = 4;
/// Pairs checked at each quiescent point, besides the first reader's next
/// request.
const QUIESCENT_RANDOM_PAIRS: usize = 32;
/// Spans kept in memory by a traced run; the traced phase ends early when
/// they run out.
const SPAN_CAPACITY: usize = 1 << 19;
/// Spans of the writer thread: three per update, far more than a traced
/// phase applies.
const WRITER_SPAN_CAPACITY: usize = 3 * 4096;
/// Distinct pairs the BFS-only comparator runs on, and its time budget.
const BASELINE_PAIRS: usize = 4096;
const BASELINE_BUDGET: Duration = Duration::from_secs(1);

// Stream tags of the benchmark's own random choices.
const TAG_CHECK_SAMPLE: u64 = 0x300;
const TAG_QUIESCENT: u64 = 0x400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: servebench --workload <uniform-pairs|fof-search|churn-fof> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(args);
    print!("{}", outcome.text);
    println!("{}", outcome.json);
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} attempts failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

struct RunOutcome {
    text: String,
    json: String,
    attempted: u64,
    failed: u64,
}

/// Everything a workload run shares: the index, the request pools and
/// their references, and the service.
struct Bench {
    args: Args,
    index: Index,
    pools: Vec<RequestPool>,
    refs: Vec<Vec<u32>>,
    cursors: Vec<usize>,
    service: QueryService,
    writer: Option<OracleWriter>,
    schedule: Vec<EdgeUpdate>,
    next_update: usize,
    service_s: f64,
    reference_s: f64,
    distinct_pairs: usize,
    /// Every answer of the run, warm-up and quiescent points included.
    checks: Tally,
    writer_stats: WriterStats,
}

fn run(args: Args) -> RunOutcome {
    let mut bench = Bench::new(args);
    let warmup = Duration::from_secs_f64((bench.args.seconds * 0.1).clamp(0.2, 1.0));
    let mut metrics = Metrics::default();
    let (untraced, traced_report) = if bench.args.trace {
        let half = Duration::from_secs_f64(bench.args.seconds / 2.0);
        let untraced = bench.untraced(warmup, half);
        let report = bench.traced(warmup, half, &untraced, &mut metrics);
        (untraced, report)
    } else {
        let untraced = bench.untraced(warmup, Duration::from_secs_f64(bench.args.seconds));
        (untraced, String::new())
    };
    bench.checks.merge(&untraced.tally);
    bench.end_to_end(&untraced, &mut metrics);
    let mut text = bench.header(&metrics);
    text += &format!(
        "windows: served_qps per 1-s window {:?}\n",
        untraced
            .windows
            .iter()
            .map(|w| w.served_qps.round())
            .collect::<Vec<_>>()
    );
    text += &traced_report;

    let tally = bench.checks;
    let updates = bench.writer_stats.latencies_ns.len() as u64;
    let attempted = tally.answered + tally.misses + updates;
    let failed = tally.failed() + bench.writer_stats.errors;
    text += &format!(
        "checks: {} answers checked against BFS, {} wrong, {} unanswered, {} update errors; failed_pct = {:.4} %\n",
        tally.checked,
        tally.wrong,
        tally.misses,
        bench.writer_stats.errors,
        100.0 * failed as f64 / attempted.max(1) as f64
    );
    text += "metrics:\n";
    text += &metrics.lines();
    let registry = if bench.args.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    RunOutcome {
        json: metrics.json_line(registry, failed == 0, attempted.max(1), failed),
        text,
        attempted,
        failed,
    }
}

impl Bench {
    fn new(args: Args) -> Bench {
        let index = Index::build();
        let graph = &index.graph;

        let start = Instant::now();
        let pools = client_pools(args.workload, graph, args.seed);
        let refs: Vec<Vec<u32>> = pools
            .iter()
            .enumerate()
            .map(|(c, pool)| match args.workload {
                Workload::UniformPairs => {
                    let mut rng = SplitMix64::stream(args.seed, TAG_CHECK_SAMPLE + c as u64);
                    check::sampled_references(graph, pool, UNIFORM_CHECKED_REQUESTS, &mut rng)
                }
                Workload::FofSearch => check::witnessed_references(graph, pool),
                // Answers change under churn; they are checked at quiescent
                // points against the writer's current graph instead.
                Workload::ChurnFof => vec![NOT_CHECKED; pool.pairs.len()],
            })
            .collect();
        let mut checks = Tally::default();
        if args.workload == Workload::FofSearch {
            for (c, (pool, refs)) in pools.iter().zip(&refs).enumerate() {
                let mut rng = SplitMix64::stream(args.seed, TAG_CHECK_SAMPLE + c as u64);
                let (wrong, compared) = check::witness_disagreements(
                    graph,
                    pool,
                    refs,
                    WITNESS_CHECKED_REQUESTS,
                    &mut rng,
                );
                checks.checked += compared;
                checks.wrong += wrong;
            }
        }
        let distinct_pairs = check::distinct_pairs(&pools);
        let schedule = match args.workload {
            Workload::ChurnFof => update_schedule(graph, SCHEDULE_EDGES, args.seed),
            _ => Vec::new(),
        };
        let reference_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let builder = QueryService::builder_from_arcs(Arc::clone(&index.oracle), Arc::clone(graph))
            .threads(SERVICE_THREADS)
            .cache_capacity(CACHE_CAPACITY);
        let (service, writer) = match args.workload {
            Workload::ChurnFof => {
                let (service, writer) = builder.build_updatable().expect("oracle and graph agree");
                (service, Some(writer))
            }
            _ => (builder.build().expect("oracle and graph agree"), None),
        };
        let service_s = start.elapsed().as_secs_f64();

        Bench {
            cursors: vec![0; pools.len()],
            args,
            index,
            pools,
            refs,
            service,
            writer,
            schedule,
            next_update: 0,
            service_s,
            reference_s,
            distinct_pairs,
            checks,
            writer_stats: WriterStats::default(),
        }
    }

    fn setup_s(&self) -> f64 {
        self.index.setup_s() + self.service_s
    }

    /// Closed-loop clients through `serve_batch`, all at once, until
    /// `duration` has passed; with `churn`, the open-loop writer applies
    /// updates through the service's `OracleWriter` beside them.
    fn serve_phase(&mut self, duration: Duration, churn: bool) -> PhaseStats {
        let service = &self.service;
        let writer = self.writer.as_mut().filter(|_| churn);
        let (schedule, next) = (&self.schedule, &mut self.next_update);
        let start = Instant::now();
        let deadline = start + duration;
        let (clients, writes) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .pools
                .iter()
                .zip(&self.refs)
                .zip(self.cursors.iter_mut())
                .map(|((pool, refs), cursor)| {
                    scope.spawn(move || {
                        client_loop(pool, refs, cursor, (start, deadline), |pairs, out| {
                            out.extend(service.serve_batch(pairs).into_iter().map(Outcome::from));
                            true
                        })
                    })
                })
                .collect();
            let writes = writer.map(|writer| {
                writer_loop(
                    schedule,
                    next,
                    UPDATE_RATE_PER_S,
                    start,
                    deadline,
                    |u, _| apply(writer, u),
                )
            });
            (join_all(handles), writes)
        });
        if let Some(writes) = writes {
            self.writer_stats.extend(writes);
        }
        PhaseStats::merge(duration, clients)
    }

    fn check_quiescent(&mut self, round: u32) {
        let writer = self
            .writer
            .as_ref()
            .expect("churn runs on an updatable service");
        let next = self.pools[0].request(self.cursors[0]);
        let tally = quiescent_check(&self.service, writer, next, self.args.seed, round);
        self.checks.merge(&tally);
    }

    /// The untraced measurement: warm-up, then `duration` of load.
    fn untraced(&mut self, warmup: Duration, duration: Duration) -> PhaseStats {
        let warm = self.serve_phase(warmup, false);
        self.checks.merge(&warm.tally);
        self.service.reset_stats();
        match self.args.workload {
            Workload::UniformPairs | Workload::FofSearch => self.serve_phase(duration, false),
            Workload::ChurnFof => {
                let mut total = PhaseStats::default();
                for round in 0..CHURN_SEGMENTS {
                    total.extend(self.serve_phase(duration / CHURN_SEGMENTS, true));
                    self.check_quiescent(round);
                }
                total
            }
        }
    }

    fn end_to_end(&self, phase: &PhaseStats, metrics: &mut Metrics) {
        let stats = self.service.stats();
        let resolved = stats.index_hits + stats.fallbacks;
        metrics.set("served_qps", phase.window_median(|w| w.served_qps), "1/s");
        metrics.set(
            "request_p50_us",
            phase.window_median(|w| w.p50_ns as f64) / 1e3,
            "us",
        );
        metrics.set(
            "request_p99_us",
            phase.window_median(|w| w.p99_ns as f64) / 1e3,
            "us",
        );
        metrics.set("setup_s", self.setup_s(), "s");
        metrics.set(
            "index_mib",
            self.index.memory.total_bytes as f64 / MIB,
            "MiB",
        );
        metrics.set("peak_rss_mib", report::peak_rss_mib(), "MiB");
        metrics.set("index_answered_pct", pct(stats.index_hits, resolved), "%");
        if self.args.trace {
            return;
        }
        // Context for the figures above, printed with them.
        metrics.set("requests", phase.latencies_ns.len() as f64, "count");
        metrics.set("windows", phase.windows.len() as f64, "count");
        metrics.set("served_qps_whole_run", phase.served_qps(), "1/s");
        metrics.set(
            "request_p50_us_whole_run",
            percentile(&phase.latencies_ns, 50.0) as f64 / 1e3,
            "us",
        );
        metrics.set(
            "request_p99_us_whole_run",
            percentile(&phase.latencies_ns, 99.0) as f64 / 1e3,
            "us",
        );
        if let Some((p, v)) = tail(&phase.latencies_ns) {
            metrics.set(&format!("request_tail_p{p}_us"), v as f64 / 1e3, "us");
        }
        metrics.set("request_mean_us", mean(&phase.latencies_ns) / 1e3, "us");
        metrics.set("cache_hit_pct", pct(stats.cache_hits, stats.queries), "%");
        metrics.set("fallback_pct", pct(stats.fallbacks, stats.queries), "%");
        if !self.writer_stats.latencies_ns.is_empty() {
            self.update_metrics(metrics);
        }
    }

    fn update_metrics(&self, metrics: &mut Metrics) {
        let mut sorted = self.writer_stats.latencies_ns.clone();
        sorted.sort_unstable();
        metrics.set("updates", sorted.len() as f64, "count");
        metrics.set(
            "update_p50_us",
            percentile(&sorted, 50.0) as f64 / 1e3,
            "us",
        );
        metrics.set(
            "update_p99_us",
            percentile(&sorted, 99.0) as f64 / 1e3,
            "us",
        );
        if let Some((p, v)) = tail(&sorted) {
            metrics.set(&format!("update_tail_p{p}_us"), v as f64 / 1e3, "us");
        }
        metrics.set(
            "writer.late_ms_max",
            self.writer_stats.late_max_ns as f64 / 1e6,
            "ms",
        );
    }

    /// The run's context: what every figure of the report depends on.
    fn header(&self, metrics: &Metrics) -> String {
        let oracle = &self.index.oracle;
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "servebench workload={} seed={} seconds={} trace={} commit={}\n\
             context: nproc={nproc} clients={} service_threads={SERVICE_THREADS} \
             graph_n={} graph_m={} alpha={ALPHA} landmarks={} avg_vicinity_nodes={:.2} \
             index_answered_pct={:.2} cache_capacity={CACHE_CAPACITY} distinct_pairs={} \
             pairs_per_request={}{}\n\
             setup: generate {:.3} s, build {:.3} s, encode {:.3} s, decode {:.3} s, service {:.4} s \
             (snapshot {:.1} MiB); references {:.2} s (untimed)\n",
            self.args.workload.name(),
            self.args.seed,
            self.args.seconds,
            self.args.trace as u8,
            report::git_commit(),
            self.args.workload.clients(),
            self.index.graph.node_count(),
            self.index.graph.edge_count(),
            oracle.landmarks().nodes().len(),
            oracle.average_vicinity_size(),
            metrics.get("index_answered_pct").unwrap_or(0.0),
            self.distinct_pairs,
            self.args.workload.pairs_per_request(),
            if self.writer.is_some() {
                format!(" update_rate_per_s={UPDATE_RATE_PER_S} writer_threads=1")
            } else {
                String::new()
            },
            self.index.generate_s,
            self.index.build_s,
            self.index.encode_s,
            self.index.decode_s,
            self.service_s,
            self.index.snapshot_bytes as f64 / MIB,
            self.reference_s,
        )
    }
}

const MIB: f64 = 1024.0 * 1024.0;

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn mean(values: &[u64]) -> f64 {
    ratio(values.iter().sum::<u64>() as f64, values.len() as f64)
}

fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

/// Readers and writer stopped: serve the first reader's next request and a few
/// random pairs, and check them against BFS on the writer's graph.
fn quiescent_check(
    service: &QueryService,
    writer: &OracleWriter,
    next_request: &[(NodeId, NodeId)],
    seed: u64,
    round: u32,
) -> Tally {
    let graph = writer.oracle().graph().to_csr();
    let mut rng = SplitMix64::stream(seed, TAG_QUIESCENT + round as u64);
    let mut pairs = next_request.to_vec();
    pairs.extend(uniform_pairs(
        graph.node_count(),
        QUIESCENT_RANDOM_PAIRS,
        &mut rng,
    ));
    let refs = check::bfs_distances(&graph, &pairs);
    let mut tally = Tally::default();
    for (answer, reference) in service.serve_batch(&pairs).into_iter().zip(refs) {
        tally.record(Outcome::from(answer), reference);
    }
    tally
}

/// Apply one scheduled update through the writer; true when it applied.
fn apply(writer: &mut OracleWriter, update: EdgeUpdate) -> bool {
    let result = if update.remove {
        writer.remove_edge(update.a, update.b)
    } else {
        writer.insert_edge(update.a, update.b)
    };
    matches!(result, Ok(true))
}
