//! Answer checking against plain early-exit BFS.
//!
//! The reference (`vicinity_baselines::bfs::BfsEngine`) shares no code
//! with the oracle or with the seeded bidirectional fallback the service
//! uses for misses. References are computed before the timed region; the
//! timed loops only compare an answer with a precomputed number.

use std::collections::HashMap;

use vicinity_baselines::bfs::BfsEngine;
use vicinity_baselines::PointToPoint;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{Distance, NodeId};
use vicinity_server::ServedAnswer;

use crate::rng::SplitMix64;
use crate::workload::RequestPool;

/// Reference entry for a pair that is not checked.
pub const NOT_CHECKED: u32 = u32::MAX;
/// Reference entry for a pair whose endpoints are disconnected.
pub const UNREACHABLE: u32 = u32::MAX - 1;

/// What a layer or the service produced for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Exact(Distance),
    Unreachable,
    Miss,
}

impl From<ServedAnswer> for Outcome {
    fn from(answer: ServedAnswer) -> Self {
        match answer {
            ServedAnswer::Exact { distance, .. } => Outcome::Exact(distance),
            ServedAnswer::Unreachable => Outcome::Unreachable,
            ServedAnswer::Miss => Outcome::Miss,
        }
    }
}

/// Answer counts of one client or phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Pairs answered exactly or proven unreachable.
    pub answered: u64,
    /// Pairs left unanswered although the fallback is on.
    pub misses: u64,
    /// Pairs compared with a BFS reference.
    pub checked: u64,
    /// Compared pairs whose answer disagreed with the reference.
    pub wrong: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome, reference: u32) {
        let expected = match reference {
            NOT_CHECKED => None,
            UNREACHABLE => Some(Outcome::Unreachable),
            d => Some(Outcome::Exact(d)),
        };
        if outcome == Outcome::Miss {
            self.misses += 1;
        } else {
            self.answered += 1;
        }
        if let Some(expected) = expected {
            self.checked += 1;
            if outcome != expected {
                self.wrong += 1;
            }
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.answered += other.answered;
        self.misses += other.misses;
        self.checked += other.checked;
        self.wrong += other.wrong;
    }

    pub fn failed(&self) -> u64 {
        self.misses + self.wrong
    }
}

fn encode(distance: Option<Distance>) -> u32 {
    match distance {
        Some(d) => {
            assert!(d < UNREACHABLE, "distance collides with a sentinel");
            d
        }
        None => UNREACHABLE,
    }
}

/// BFS distances for `pairs` (deduplicated, split over two threads).
pub fn bfs_distances(graph: &CsrGraph, pairs: &[(NodeId, NodeId)]) -> Vec<u32> {
    let mut index: HashMap<(NodeId, NodeId), usize> = HashMap::with_capacity(pairs.len());
    let mut distinct = Vec::new();
    let slots: Vec<usize> = pairs
        .iter()
        .map(|&(s, t)| {
            let key = (s.min(t), s.max(t));
            *index.entry(key).or_insert_with(|| {
                distinct.push(key);
                distinct.len() - 1
            })
        })
        .collect();
    let half = distinct.len().div_ceil(2).max(1);
    let resolved: Vec<u32> = std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut bfs = BfsEngine::new(graph);
                    chunk
                        .iter()
                        .map(|&(s, t)| encode(bfs.distance(s, t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference BFS thread panicked"))
            .collect()
    });
    slots.into_iter().map(|slot| resolved[slot]).collect()
}

/// BFS references for `requests` seeded request indices of `pool`,
/// parallel to `pool.pairs`; every other entry is [`NOT_CHECKED`].
pub fn sampled_references(
    graph: &CsrGraph,
    pool: &RequestPool,
    requests: usize,
    rng: &mut SplitMix64,
) -> Vec<u32> {
    let mut refs = vec![NOT_CHECKED; pool.pairs.len()];
    let picks: Vec<usize> = (0..requests)
        .map(|_| rng.below(pool.requests() as u64) as usize)
        .collect();
    let pairs: Vec<(NodeId, NodeId)> = picks
        .iter()
        .flat_map(|&r| pool.request(r).iter().copied())
        .collect();
    let distances = bfs_distances(graph, &pairs);
    let len = pool.request_len;
    for (k, &r) in picks.iter().enumerate() {
        refs[r * len..(r + 1) * len].copy_from_slice(&distances[k * len..(k + 1) * len]);
    }
    refs
}

/// References for friend-of-friend pairs, every one of which is the end
/// of a 2-hop walk from a different node: the walk proves `d(s, t) <= 2`,
/// so the distance is 1 when the edge exists and 2 otherwise. Exact by
/// construction and cheap enough for every pair; [`witness_disagreements`]
/// confirms it against BFS on a sample.
pub fn witnessed_references(graph: &CsrGraph, pool: &RequestPool) -> Vec<u32> {
    pool.pairs
        .iter()
        .map(|&(s, t)| {
            let (a, b) = if graph.degree(s) <= graph.degree(t) {
                (s, t)
            } else {
                (t, s)
            };
            if graph.has_edge(a, b) {
                1
            } else {
                2
            }
        })
        .collect()
}

/// Pairs among `samples` seeded requests of `pool` whose witnessed
/// reference differs from BFS, and the number of pairs compared.
pub fn witness_disagreements(
    graph: &CsrGraph,
    pool: &RequestPool,
    refs: &[u32],
    samples: usize,
    rng: &mut SplitMix64,
) -> (u64, u64) {
    let bfs = sampled_references(graph, pool, samples, rng);
    let compared = bfs.iter().filter(|&&r| r != NOT_CHECKED).count() as u64;
    let wrong = bfs
        .iter()
        .zip(refs)
        .filter(|&(&b, &w)| b != NOT_CHECKED && b != w)
        .count() as u64;
    (wrong, compared)
}

/// Number of distinct unordered pairs across `pools`.
pub fn distinct_pairs(pools: &[RequestPool]) -> usize {
    let mut seen = std::collections::HashSet::new();
    for pool in pools {
        for &(s, t) in &pool.pairs {
            seen.insert((s.min(t), s.max(t)));
        }
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::generators::social::SocialGraphConfig;

    #[test]
    fn tally_counts_misses_and_mismatches() {
        let mut tally = Tally::default();
        tally.record(Outcome::Exact(3), 3);
        tally.record(Outcome::Exact(2), 3);
        tally.record(Outcome::Unreachable, UNREACHABLE);
        tally.record(Outcome::Exact(5), NOT_CHECKED);
        tally.record(Outcome::Miss, NOT_CHECKED);
        assert_eq!(tally.answered, 4);
        assert_eq!(tally.checked, 3);
        assert_eq!(tally.wrong, 1);
        assert_eq!(tally.misses, 1);
        assert_eq!(tally.failed(), 2);
    }

    #[test]
    fn witnessed_references_agree_with_bfs() {
        let graph = SocialGraphConfig::small_test().generate(4);
        for pool in crate::workload::client_pools(crate::workload::Workload::FofSearch, &graph, 8) {
            let refs = witnessed_references(&graph, &pool);
            let mut rng = SplitMix64::new(1);
            let (wrong, compared) = witness_disagreements(&graph, &pool, &refs, 200, &mut rng);
            assert!(compared > 0);
            assert_eq!(wrong, 0);
        }
    }

    #[test]
    fn references_match_direct_bfs() {
        let graph = SocialGraphConfig::small_test().generate(4);
        let pairs = [(0, 5), (5, 0), (3, 3), (1, 9), (0, 5)];
        let refs = bfs_distances(&graph, &pairs);
        let mut bfs = BfsEngine::new(&graph);
        for (&(s, t), &r) in pairs.iter().zip(&refs) {
            assert_eq!(r, encode(bfs.distance(s, t)));
        }
    }
}
