//! Spans recorded around calls into the program's layers.
//!
//! The traced run replays a workload by calling each layer's public
//! functions from this benchmark, timing every call. A span records the
//! layer, the request (or update) it belongs to, and its start and end.
//! Spans stay in memory until the run ends and are then written out.
//!
//! Every thread records into its own [`Tracer`]. A root span (a request
//! or an update) is pushed when it closes, after its children, so the
//! children of a root are the spans pushed since the previous root.

use std::io::Write;
use std::time::Instant;

/// The span kinds, one per layer boundary the replay crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One client request (root).
    Request,
    /// `QueryService::session()` plus dropping the session: per-call set-up
    /// and the stats merge.
    Session,
    /// One `QueryCache::get`.
    CacheGet,
    /// One `distance_batch_accumulate` over a request's uncached pairs.
    QueryBatch,
    /// One index miss: `vicinity(s)`, `vicinity(t)` and the seeded
    /// bidirectional BFS.
    Fallback,
    /// One `QueryCache::insert`.
    CacheInsert,
    /// One edge update (root).
    Update,
    /// The `OracleWriter` call: repair plus epoch publish.
    WriterApply,
    /// The same update on a standalone `DynamicOracle`: repair only.
    DynamicApply,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Request,
        Layer::Session,
        Layer::CacheGet,
        Layer::QueryBatch,
        Layer::Fallback,
        Layer::CacheInsert,
        Layer::Update,
        Layer::WriterApply,
        Layer::DynamicApply,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Session => "service.session",
            Layer::CacheGet => "cache.get",
            Layer::QueryBatch => "query.batch",
            Layer::Fallback => "fallback.seeded_bfs",
            Layer::CacheInsert => "cache.insert",
            Layer::Update => "update",
            Layer::WriterApply => "writer.apply",
            Layer::DynamicApply => "dynamic.apply",
        }
    }

    pub fn is_root(self) -> bool {
        matches!(self, Layer::Request | Layer::Update)
    }

    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Request or update number within the recording thread.
    pub id: u32,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer, bounded so a long run cannot exhaust memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
}

impl Tracer {
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// True when fewer than `headroom` spans still fit.
    pub fn nearly_full(&self, headroom: usize) -> bool {
        self.spans.len() + headroom > self.capacity
    }

    pub fn record(&mut self, layer: Layer, id: u32, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            id,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of a span over `[start, end)`: its duration minus the part of
/// that interval covered by the union of its children's intervals.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Per-layer self time and call counts over a set of threads' spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub self_ns: [u64; Layer::ALL.len()],
    pub calls: [u64; Layer::ALL.len()],
    /// Summed root-span durations, per root layer.
    pub root_ns: [u64; Layer::ALL.len()],
    /// Roots whose children's self times plus their own self time did not
    /// add up to their duration (children overlapping or outside the
    /// root); 0 for a well-formed trace.
    pub unaccounted_roots: u64,
}

impl LayerTotals {
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    pub fn root_ns(&self, layer: Layer) -> u64 {
        self.root_ns[layer.index()]
    }

    /// Fold one thread's spans in. Children are leaves, so their self time
    /// is their duration; a root's self time excludes its children.
    pub fn add_thread(&mut self, spans: &[Span]) {
        let mut first_child = 0;
        for (i, root) in spans.iter().enumerate() {
            if !root.layer.is_root() {
                continue;
            }
            let children = &spans[first_child..i];
            let intervals: Vec<(u64, u64)> =
                children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
            let root_self = self_time((root.start_ns, root.end_ns), &intervals);
            let children_self: u64 = children.iter().map(Span::duration).sum();
            if root_self + children_self != root.duration() {
                self.unaccounted_roots += 1;
            }
            for child in children {
                self.self_ns[child.layer.index()] += child.duration();
                self.calls[child.layer.index()] += 1;
            }
            self.self_ns[root.layer.index()] += root_self;
            self.calls[root.layer.index()] += 1;
            self.root_ns[root.layer.index()] += root.duration();
            first_child = i + 1;
        }
    }
}

/// Write every thread's spans as CSV: one line per span with its id, its
/// parent's id (empty for roots), layer, request or update number, start
/// and end in nanoseconds since the trace origin.
pub fn write_csv(path: &std::path::Path, threads: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,span,parent,layer,id,start_ns,end_ns")?;
    let mut next_id = 0u64;
    for (thread, spans) in threads {
        let mut pending: Vec<(u64, &Span)> = Vec::new();
        for span in spans.iter() {
            let id = next_id;
            next_id += 1;
            if !span.layer.is_root() {
                pending.push((id, span));
                continue;
            }
            for (child_id, child) in pending.drain(..) {
                writeln!(
                    out,
                    "{thread},{child_id},{id},{},{},{},{}",
                    child.layer.name(),
                    child.id,
                    child.start_ns,
                    child.end_ns
                )?;
            }
            writeln!(
                out,
                "{thread},{id},,{},{},{},{}",
                span.layer.name(),
                span.id,
                span.start_ns,
                span.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children are not double-subtracted.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Nested children.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        // A child covering the whole parent leaves no self time.
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
    }

    fn span(layer: Layer, id: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            id,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn layer_totals_account_every_request() {
        let spans = [
            span(Layer::CacheGet, 0, 10, 15),
            span(Layer::QueryBatch, 0, 20, 60),
            span(Layer::CacheInsert, 0, 61, 64),
            span(Layer::Request, 0, 0, 100),
            span(Layer::Session, 1, 105, 110),
            span(Layer::Fallback, 1, 110, 190),
            span(Layer::Request, 1, 100, 200),
        ];
        let mut totals = LayerTotals::default();
        totals.add_thread(&spans);
        assert_eq!(totals.unaccounted_roots, 0);
        assert_eq!(totals.self_ns(Layer::Request), (100 - 48) + (100 - 85));
        assert_eq!(totals.self_ns(Layer::QueryBatch), 40);
        assert_eq!(totals.self_ns(Layer::Fallback), 80);
        assert_eq!(totals.calls(Layer::Request), 2);
        assert_eq!(totals.root_ns(Layer::Request), 200);
        let layers: u64 = Layer::ALL.iter().map(|&l| totals.self_ns(l)).sum();
        assert_eq!(layers, totals.root_ns(Layer::Request));
    }

    #[test]
    fn overlapping_children_are_flagged() {
        let spans = [
            span(Layer::CacheGet, 0, 10, 30),
            span(Layer::CacheGet, 0, 20, 40),
            span(Layer::Request, 0, 0, 50),
        ];
        let mut totals = LayerTotals::default();
        totals.add_thread(&spans);
        assert_eq!(totals.unaccounted_roots, 1);
    }
}
