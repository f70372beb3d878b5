//! Bidirectional breadth-first search — the "Bidirectional BFS" column of
//! Table 3 and the paper's stand-in for the state-of-the-art point-to-point
//! algorithm of Goldberg et al. [4].
//!
//! The search alternates between a forward frontier from `s` and a backward
//! frontier from `t`, always expanding the smaller frontier one full level
//! at a time, and terminates at the first node both frontiers reach — on
//! unweighted graphs that meeting already closes a shortest path — or, when
//! the caller knows an upper bound on the distance, as soon as the sum of
//! the two search radii reaches it. On unweighted undirected graphs this
//! returns exact distances while exploring O(b^(d/2)) nodes instead of
//! O(b^d).

use std::collections::VecDeque;

use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{Adjacency, Distance, NodeId, INFINITY};

use crate::{PathEngine, PointToPoint};

/// Index of the forward (source-side) search in per-side arrays.
const FWD: usize = 0;
/// Index of the backward (target-side) search in per-side arrays.
const BWD: usize = 1;

/// Both searches' labels of one node, interleaved so that expanding a
/// neighbour — test its own side's stamp, write its distance, test the
/// other side's stamp — touches one cache line instead of three arrays.
#[derive(Debug, Clone, Copy, Default)]
struct Label {
    /// Search stamp per side; a label is valid when it equals the current
    /// search's stamp.
    stamp: [u32; 2],
    /// Exact distance from that side's centre, valid where stamped.
    dist: [Distance; 2],
}

/// Reusable scratch state for bidirectional BFS, decoupled from any graph
/// borrow.
///
/// The graph is passed to [`BidirBfsScratch::distance`] per call, so a
/// long-lived owner (e.g. a server worker session holding the graph behind
/// an `Arc`) can keep one scratch allocation alive across millions of
/// queries without a self-referential borrow. All O(n) buffers — including
/// the two frontier queues — are allocated once and recycled, so repeated
/// queries perform no per-query allocation.
#[derive(Debug, Clone, Default)]
pub struct BidirBfsScratch {
    labels: Vec<Label>,
    /// Frontier queue per side.
    queues: [VecDeque<NodeId>; 2],
    current_stamp: u32,
    operations: u64,
    /// The node where the two searches met on the last successful query.
    last_meeting: Option<NodeId>,
}

impl BidirBfsScratch {
    /// Empty scratch; buffers grow to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for a graph with `n` nodes.
    pub fn with_node_capacity(n: usize) -> Self {
        let mut scratch = Self::default();
        scratch.ensure_capacity(n);
        scratch
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.labels.len() < n {
            self.labels.resize(n, Label::default());
        }
    }

    /// Graph-exploration operations (queue pops) of the most recent call.
    pub fn last_operations(&self) -> u64 {
        self.operations
    }

    /// The meeting node of the most recent successful search: a node both
    /// sides reached whose labels sum to the answer. `None` after a failed
    /// search, and after a bounded search
    /// ([`BidirBfsScratch::distance_seeded_bounded`]) whose upper bound
    /// settled the answer before the frontiers met.
    pub fn last_meeting(&self) -> Option<NodeId> {
        self.last_meeting
    }

    /// Start a search: size the buffers, reset the per-call outputs and
    /// empty the queues. Returns the search's fresh stamp.
    fn begin(&mut self, n: usize) -> u32 {
        self.ensure_capacity(n);
        self.operations = 0;
        self.last_meeting = None;
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.current_stamp = self.current_stamp.wrapping_add(1);
        if self.current_stamp == 0 {
            self.labels.iter_mut().for_each(|l| l.stamp = [0; 2]);
            self.current_stamp = 1;
        }
        self.current_stamp
    }

    /// Label `node` on `side` at `dist` for the search stamped `stamp`.
    #[inline]
    fn label(&mut self, side: usize, node: NodeId, dist: Distance, stamp: u32) {
        let label = &mut self.labels[node as usize];
        label.stamp[side] = stamp;
        label.dist[side] = dist;
    }

    /// Exact distance between `s` and `t` in `graph`, or `None` when
    /// unreachable (or either endpoint is out of range). Generic over
    /// [`Adjacency`] so the serving fallback runs on dynamic graph
    /// overlays as well as frozen CSR graphs.
    pub fn distance<G: Adjacency>(&mut self, graph: &G, s: NodeId, t: NodeId) -> Option<Distance> {
        let n = graph.node_count();
        if (s as usize) >= n || (t as usize) >= n {
            self.last_meeting = None;
            self.operations = 0;
            return None;
        }
        let stamp = self.begin(n);
        self.label(FWD, s, 0, stamp);
        self.label(BWD, t, 0, stamp);
        if s == t {
            // Labelled on both sides, so `last_path` sees the lone node.
            self.last_meeting = Some(s);
            return Some(0);
        }
        self.queues[FWD].push_back(s);
        self.queues[BWD].push_back(t);
        self.run(graph, stamp, [0, 0], INFINITY, None)
    }

    /// Exact distance between two *seeded* search regions: a bidirectional
    /// BFS whose sides start from precomputed distance balls instead of
    /// single nodes.
    ///
    /// This is the natural fallback for a vicinity-oracle miss: the index
    /// already holds the exact ball of each endpoint, so the search can
    /// stamp the ball interiors for free and begin expansion at the ball
    /// boundaries, skipping the first `fwd_radius` / `bwd_radius` levels of
    /// re-exploration.
    ///
    /// Contract (the oracle guarantees all of this for a missed query):
    ///
    /// * `fwd_seeds` is the **complete** set of nodes within `fwd_radius`
    ///   hops of the forward endpoint, with exact distances (and likewise
    ///   for the backward side) — completeness is what makes the resumed
    ///   BFS exact;
    /// * node ids are in range for `graph`.
    ///
    /// Overlapping seed sets are handled (the overlap is treated as a set
    /// of meeting candidates), though an oracle miss implies disjoint
    /// balls. After a seeded search, [`BidirBfsScratch::last_path`]
    /// reconstructs a shortest path from the distance labels.
    pub fn distance_seeded<G: Adjacency, F, B>(
        &mut self,
        graph: &G,
        fwd_seeds: F,
        fwd_radius: Distance,
        bwd_seeds: B,
        bwd_radius: Distance,
    ) -> Option<Distance>
    where
        F: IntoIterator<Item = (NodeId, Distance)>,
        B: IntoIterator<Item = (NodeId, Distance)>,
    {
        self.distance_seeded_bounded(
            graph, fwd_seeds, fwd_radius, bwd_seeds, bwd_radius, INFINITY,
        )
    }

    /// [`BidirBfsScratch::distance_seeded`] with a proven upper bound on
    /// the answer: `upper` must be the length of some real path between
    /// the two seed centres (`INFINITY` when none is known). The search
    /// starts with `upper` as its best distance, so it stops as soon as
    /// the frontier radii prove no shorter path exists
    /// (`radius_fwd + radius_bwd + 1 >= upper`) instead of expanding until
    /// the frontiers meet. The answer is the same as the unbounded
    /// search's; when the bound itself is the answer and no meeting node
    /// was reached, [`BidirBfsScratch::last_meeting`] is `None`.
    pub fn distance_seeded_bounded<G: Adjacency, F, B>(
        &mut self,
        graph: &G,
        fwd_seeds: F,
        fwd_radius: Distance,
        bwd_seeds: B,
        bwd_radius: Distance,
        upper: Distance,
    ) -> Option<Distance>
    where
        F: IntoIterator<Item = (NodeId, Distance)>,
        B: IntoIterator<Item = (NodeId, Distance)>,
    {
        let n = graph.node_count();
        let stamp = self.begin(n);
        // Stamp every seed; only the outermost shell needs to live in the
        // queue, because an interior node's neighbours are all inside the
        // ball already (distance <= radius - 1 implies every neighbour is
        // within the radius). This keeps the resumed expansion's cost
        // proportional to the boundary shell, not the whole ball.
        for (node, distance) in fwd_seeds {
            debug_assert!((node as usize) < n && distance <= fwd_radius);
            self.label(FWD, node, distance, stamp);
            if distance == fwd_radius {
                self.queues[FWD].push_back(node);
            }
        }
        let mut best: Distance = upper;
        let mut meeting: Option<NodeId> = None;
        for (node, distance) in bwd_seeds {
            debug_assert!((node as usize) < n && distance <= bwd_radius);
            self.label(BWD, node, distance, stamp);
            if distance == bwd_radius {
                self.queues[BWD].push_back(node);
            }
            let label = self.labels[node as usize];
            if label.stamp[FWD] == stamp && label.dist[FWD] + distance < best {
                best = label.dist[FWD] + distance;
                meeting = Some(node);
            }
        }

        self.run(graph, stamp, [fwd_radius, bwd_radius], best, meeting)
    }

    /// Level-synchronous bidirectional expansion over pre-seeded queues.
    /// `radius[side]` is the distance through which that side is already
    /// complete (its queue holds exactly the nodes at that distance);
    /// `best` is a proven upper bound on the answer (`INFINITY` when none
    /// is known) and `meeting` the node that attains it, if a meeting
    /// already attains it.
    ///
    /// The search ends at the first meeting of a level expansion, which is
    /// the distance: the other side has only stamped nodes within its
    /// radius, and every path shorter than `radius[FWD] + radius[BWD] + 1`
    /// would already have met. It also ends once the radii prove that no
    /// undiscovered path beats `best`.
    fn run<G: Adjacency>(
        &mut self,
        graph: &G,
        stamp: u32,
        mut radius: [Distance; 2],
        mut best: Distance,
        mut meeting: Option<NodeId>,
    ) -> Option<Distance> {
        'search: while !self.queues[FWD].is_empty() && !self.queues[BWD].is_empty() {
            if best != INFINITY && radius[FWD] + radius[BWD] + 1 >= best {
                break;
            }
            // Expand the smaller frontier by one full level.
            let side = if self.queues[FWD].len() <= self.queues[BWD].len() {
                FWD
            } else {
                BWD
            };
            let other = 1 - side;
            let level = radius[side];
            while let Some(&u) = self.queues[side].front() {
                if self.labels[u as usize].dist[side] != level {
                    break;
                }
                self.queues[side].pop_front();
                self.operations += 1;
                for &v in graph.neighbors(u) {
                    let label = &mut self.labels[v as usize];
                    if label.stamp[side] == stamp {
                        continue;
                    }
                    label.stamp[side] = stamp;
                    label.dist[side] = level + 1;
                    if label.stamp[other] == stamp {
                        let total = level + 1 + label.dist[other];
                        debug_assert!(total <= best, "meeting {total} beyond bound {best}");
                        best = total;
                        meeting = Some(v);
                        break 'search;
                    }
                    self.queues[side].push_back(v);
                }
            }
            radius[side] = level + 1;
        }

        if best == INFINITY {
            None
        } else {
            self.last_meeting = meeting;
            Some(best)
        }
    }

    /// Shortest path between `s` and `t`, or `None` when unreachable. Runs
    /// a fresh search so its distance labels are in scope for
    /// reconstruction.
    pub fn path<G: Adjacency>(&mut self, graph: &G, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        self.distance(graph, s, t)?;
        self.last_path(graph)
    }

    /// A shortest path through the meeting node of the most recent search
    /// on `graph`, plain or seeded, from the forward centre to the
    /// backward centre. `None` when that search recorded no meeting node:
    /// it failed, or its upper bound settled the answer before the
    /// frontiers met.
    ///
    /// Rebuilt from the distance labels alone: from the meeting node each
    /// side steps to any neighbour it stamped one level closer to its
    /// centre, which is a shortest-path predecessor because stamped labels
    /// are exact BFS distances.
    pub fn last_path<G: Adjacency>(&self, graph: &G) -> Option<Vec<NodeId>> {
        let meeting = self.last_meeting?;
        let mut path = self.descend(graph, FWD, meeting);
        path.reverse();
        path.extend_from_slice(&self.descend(graph, BWD, meeting)[1..]);
        Some(path)
    }

    /// Walk `side`'s labels down from `from` to its distance-0 centre,
    /// returning the visited nodes in walk order (`from` first).
    fn descend<G: Adjacency>(&self, graph: &G, side: usize, from: NodeId) -> Vec<NodeId> {
        let stamp = self.current_stamp;
        let mut walk = vec![from];
        let mut cur = from;
        while self.labels[cur as usize].dist[side] > 0 {
            let want = self.labels[cur as usize].dist[side] - 1;
            cur = *graph
                .neighbors(cur)
                .iter()
                .find(|&&v| {
                    let label = &self.labels[v as usize];
                    label.stamp[side] == stamp && label.dist[side] == want
                })
                .expect("a stamped node one level closer neighbours every labelled node");
            walk.push(cur);
        }
        walk
    }
}

/// Bidirectional BFS point-to-point engine over a borrowed graph — a thin
/// wrapper binding a [`BidirBfsScratch`] to one graph so it can implement
/// the [`PointToPoint`] / [`PathEngine`] traits.
pub struct BidirectionalBfs<'g> {
    graph: &'g CsrGraph,
    scratch: BidirBfsScratch,
}

impl<'g> BidirectionalBfs<'g> {
    /// Create an engine for `graph`. Allocates O(n) scratch space once.
    pub fn new(graph: &'g CsrGraph) -> Self {
        BidirectionalBfs {
            graph,
            scratch: BidirBfsScratch::with_node_capacity(graph.node_count()),
        }
    }
}

impl PointToPoint for BidirectionalBfs<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Distance> {
        self.scratch.distance(self.graph, s, t)
    }

    fn name(&self) -> &'static str {
        "Bidirectional BFS"
    }

    fn last_operations(&self) -> u64 {
        self.scratch.last_operations()
    }
}

impl PathEngine for BidirectionalBfs<'_> {
    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        self.scratch.path(self.graph, s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsEngine;
    use crate::validate_path;
    use rand::SeedableRng;
    use vicinity_graph::algo::sampling::random_pairs;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    #[test]
    fn matches_bfs_on_classic_graphs() {
        for g in [
            classic::grid(7, 5),
            classic::cycle(11),
            classic::binary_tree(5),
        ] {
            let mut bi = BidirectionalBfs::new(&g);
            let mut uni = BfsEngine::new(&g);
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(bi.distance(s, t), uni.distance(s, t), "pair ({s},{t})");
                }
            }
        }
    }

    #[test]
    fn matches_bfs_on_social_graph() {
        let g = SocialGraphConfig::small_test().generate(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut bi = BidirectionalBfs::new(&g);
        let mut uni = BfsEngine::new(&g);
        for (s, t) in random_pairs(&g, 300, &mut rng) {
            assert_eq!(bi.distance(s, t), uni.distance(s, t), "pair ({s},{t})");
        }
    }

    #[test]
    fn paths_are_valid_and_shortest() {
        let g = SocialGraphConfig::small_test().generate(6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut bi = BidirectionalBfs::new(&g);
        for (s, t) in random_pairs(&g, 100, &mut rng) {
            if let Some(d) = bi.distance(s, t) {
                let p = bi.path(s, t).unwrap();
                assert_eq!(validate_path(&g, s, t, &p), Some(d), "pair ({s},{t})");
            }
        }
    }

    #[test]
    fn explores_fewer_nodes_than_unidirectional() {
        let g = SocialGraphConfig::small_test().generate(9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut bi = BidirectionalBfs::new(&g);
        let mut uni = BfsEngine::new(&g);
        let mut bi_ops = 0u64;
        let mut uni_ops = 0u64;
        for (s, t) in random_pairs(&g, 50, &mut rng) {
            bi.distance(s, t);
            uni.distance(s, t);
            bi_ops += bi.last_operations();
            uni_ops += uni.last_operations();
        }
        assert!(
            bi_ops < uni_ops,
            "bidirectional ({bi_ops}) should beat unidirectional ({uni_ops})"
        );
    }

    #[test]
    fn handles_disconnected_and_degenerate_inputs() {
        let mut b = GraphBuilder::with_node_count(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build_undirected();
        let mut bi = BidirectionalBfs::new(&g);
        assert_eq!(bi.distance(0, 4), None);
        assert_eq!(bi.path(0, 4), None);
        assert_eq!(bi.distance(0, 0), Some(0));
        assert_eq!(bi.path(0, 0), Some(vec![0]));
        assert_eq!(bi.distance(0, 100), None);
        assert_eq!(bi.distance(100, 0), None);
        assert_eq!(bi.name(), "Bidirectional BFS");
    }

    #[test]
    fn repeated_queries_are_consistent() {
        let g = classic::grid(10, 10);
        let mut bi = BidirectionalBfs::new(&g);
        for _ in 0..50 {
            assert_eq!(bi.distance(0, 99), Some(18));
            assert_eq!(bi.distance(5, 5), Some(0));
        }
    }

    #[test]
    fn seeded_search_matches_plain_search() {
        use vicinity_graph::algo::bfs::bounded_bfs;
        let g = SocialGraphConfig::small_test().generate(12);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut scratch = BidirBfsScratch::new();
        let mut reference = BidirBfsScratch::new();
        for (radius_s, radius_t) in [(0u32, 0u32), (1, 1), (2, 1), (2, 2)] {
            for (s, t) in random_pairs(&g, 60, &mut rng) {
                let ball_s: Vec<(u32, u32)> = bounded_bfs(&g, s, radius_s)
                    .iter()
                    .map(|v| (v.node, v.distance))
                    .collect();
                let ball_t: Vec<(u32, u32)> = bounded_bfs(&g, t, radius_t)
                    .iter()
                    .map(|v| (v.node, v.distance))
                    .collect();
                let seeded = scratch.distance_seeded(&g, ball_s, radius_s, ball_t, radius_t);
                let plain = reference.distance(&g, s, t);
                assert_eq!(
                    seeded, plain,
                    "pair ({s},{t}) radii ({radius_s},{radius_t})"
                );
            }
        }
        // Disconnected seeded regions report unreachable.
        let mut b = GraphBuilder::with_node_count(6);
        b.add_edge(0, 1);
        b.add_edge(3, 4);
        let g2 = b.build_undirected();
        let seeded = scratch.distance_seeded(
            &g2,
            vec![(0u32, 0u32), (1, 1)],
            1,
            vec![(3u32, 0u32), (4, 1)],
            1,
        );
        assert_eq!(seeded, None);
    }

    #[test]
    fn upper_bound_does_not_change_the_answer() {
        use vicinity_graph::algo::bfs::bounded_bfs;
        let g = SocialGraphConfig::small_test().generate(13);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut scratch = BidirBfsScratch::new();
        let mut uni = BfsEngine::new(&g);
        let mut settled = 0;
        for (s, t) in random_pairs(&g, 200, &mut rng) {
            let Some(d) = uni.distance(s, t) else {
                continue;
            };
            let radius = 1.min(d / 2);
            let ball = |c| -> Vec<(u32, u32)> {
                bounded_bfs(&g, c, radius)
                    .iter()
                    .map(|v| (v.node, v.distance))
                    .collect()
            };
            for upper in [d, d + 1, INFINITY] {
                let got =
                    scratch.distance_seeded_bounded(&g, ball(s), radius, ball(t), radius, upper);
                assert_eq!(got, Some(d), "pair ({s},{t}) upper {upper}");
                match scratch.last_meeting() {
                    Some(_) => {
                        let p = scratch.last_path(&g).unwrap();
                        assert_eq!(validate_path(&g, s, t, &p), Some(d), "pair ({s},{t})");
                    }
                    None => {
                        assert_eq!(upper, d, "only an exact bound settles without a meeting");
                        settled += 1;
                    }
                }
            }
        }
        assert!(
            settled > 0,
            "an exact bound should settle some searches early"
        );
    }

    #[test]
    fn scratch_is_reusable_across_graphs() {
        // One scratch allocation serves graphs of different sizes in turn,
        // growing its buffers as needed — the usage pattern of a server
        // worker session that outlives any single graph borrow.
        let small = classic::path(5);
        let large = classic::grid(12, 12);
        let mut scratch = BidirBfsScratch::new();
        assert_eq!(scratch.distance(&small, 0, 4), Some(4));
        assert_eq!(scratch.distance(&large, 0, 143), Some(22));
        assert_eq!(scratch.distance(&small, 4, 0), Some(4));
        assert!(scratch.last_meeting().is_some());
        let p = scratch.path(&large, 0, 143).unwrap();
        assert_eq!(validate_path(&large, 0, 143, &p), Some(22));
    }

    #[test]
    fn stamp_wraparound_is_handled() {
        let g = classic::path(4);
        let mut bi = BidirectionalBfs::new(&g);
        bi.scratch.current_stamp = u32::MAX - 1;
        assert_eq!(bi.distance(0, 3), Some(3));
        assert_eq!(bi.distance(0, 3), Some(3));
        assert_eq!(bi.distance(3, 0), Some(3));
    }
}
