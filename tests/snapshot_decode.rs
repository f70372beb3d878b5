//! Snapshot decoding treats its input as untrusted. Whatever a corrupted
//! v3 snapshot holds — flipped bytes, a truncated body, an inflated length
//! or offset field at the start of any section — with its checksum fixed
//! so that only the decoder's structural checks stand in the way,
//! `serialize::decode` returns an error or an oracle on which `distance`
//! and a cacheless `serve_batch` answer every pair without a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vicinity::core::config::TableBackend;
use vicinity::core::serialize;
use vicinity::prelude::*;

/// Node count of the snapshot graph: every pair is queried per decoded
/// oracle, so it stays small.
const NODES: usize = 120;

fn snapshot_graph() -> CsrGraph {
    SocialGraphConfig::small_test()
        .with_nodes(NODES)
        .generate(23)
}

fn sample_oracle(graph: &CsrGraph, store_paths: bool, backend: TableBackend) -> VicinityOracle {
    OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(23)
        .store_paths(store_paths)
        .backend(backend)
        .build(graph)
}

/// Byte positions of every length field, offset section and pool section
/// of the v3 encoding of `oracle`, derived from its public sizes. Checks
/// that the walk ends exactly at the trailing checksum of `bytes`.
fn section_starts(oracle: &VicinityOracle, bytes: &[u8]) -> Vec<usize> {
    let n = oracle.node_count();
    let landmarks = oracle.landmarks().len();
    let entries = oracle.store().total_entries() as usize;
    let predecessors = if oracle.stores_paths() { entries } else { 0 };
    let boundary = oracle.store().total_boundary_entries() as usize;

    // Magic and version (5), alpha (8), sampling, backend (1 + 1), seed
    // (8) and the store-paths byte (1) precede the node count.
    let node_count = 24;
    let landmark_count = node_count + 16;
    let table_count = landmark_count + 8 + landmarks * 4;
    let first_row_length = table_count + 8 + 4;
    let flags = table_count + 8 + landmarks * (12 + 2 * n);
    let radii = flags + 1;
    let nearest = radii + 4 * n;
    let offsets = nearest + 4 * n;
    let members = offsets + 8 * (n + 1);
    let distances = members + 4 * entries;
    let paths_flag = distances + 4 * entries;
    let predecessor_pool = paths_flag + 1;
    let boundary_offsets = predecessor_pool + 4 * predecessors;
    let boundary_pool = boundary_offsets + 8 * (n + 1);
    assert_eq!(
        boundary_pool + 4 * boundary,
        bytes.len() - 8,
        "section arithmetic must end at the checksum"
    );
    let mut starts = vec![
        node_count,
        node_count + 8, // edge count
        landmark_count,
        table_count,
        flags,
        radii,
        nearest,
        offsets,
        offsets + 8 * n, // total member count
        members,
        distances,
        paths_flag,
        predecessor_pool,
        boundary_offsets,
        boundary_offsets + 8 * n, // total boundary count
        boundary_pool,
    ];
    if landmarks > 0 {
        starts.push(first_row_length);
    }
    starts.retain(|&at| at + 8 <= bytes.len() - 8);
    starts
}

/// Append the byte-sum checksum of `body`.
fn with_checksum(mut body: Vec<u8>) -> Vec<u8> {
    let checksum: u64 = body.iter().map(|&b| b as u64).sum();
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// One random corruption of `bytes`, checksum fixed: byte flips, a
/// truncation, or an inflated u64 written over a section start.
fn mutate(bytes: &[u8], starts: &[usize], rng: &mut StdRng) -> Vec<u8> {
    let mut body = bytes[..bytes.len() - 8].to_vec();
    match rng.gen_range(0u32..3) {
        0 => {
            for _ in 0..rng.gen_range(1usize..5) {
                let at = rng.gen_range(0..body.len());
                body[at] ^= rng.gen_range(1u32..256) as u8;
            }
        }
        1 => body.truncate(rng.gen_range(0..body.len())),
        _ => {
            let at = starts[rng.gen_range(0..starts.len())];
            let field = &mut body[at..at + 8];
            let old = u64::from_le_bytes(field.try_into().unwrap());
            let inflated = match rng.gen_range(0u32..4) {
                0 => 1u64 << 62,
                1 => u64::MAX - rng.gen_range(0u64..16),
                2 => old.wrapping_add(rng.gen_range(1u64..1000)),
                _ => rng.gen(),
            };
            field.copy_from_slice(&inflated.to_le_bytes());
        }
    }
    with_checksum(body)
}

/// Query every pair of `decoded` through `distance` and through a cacheless
/// single-worker service; the answers may be wrong, but nothing may panic.
fn query_every_pair(decoded: VicinityOracle, graph: &CsrGraph) {
    let n = decoded.node_count() as NodeId;
    let pairs: Vec<(NodeId, NodeId)> = (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
    for &(s, t) in &pairs {
        std::hint::black_box(decoded.distance(s, t));
    }
    // A decoded node count that disagrees with the graph is refused by the
    // service builder, which is an error, not a panic.
    if let Ok(service) = QueryService::builder(decoded, graph.clone())
        .threads(1)
        .build()
    {
        assert_eq!(service.serve_batch(&pairs).len(), pairs.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_snapshots_decode_to_an_error_or_a_queryable_oracle(
        store_paths in any::<bool>(),
        sorted_backend in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let graph = snapshot_graph();
        let backend = if sorted_backend { TableBackend::SortedArray } else { TableBackend::HashMap };
        let oracle = sample_oracle(&graph, store_paths, backend);
        let bytes = serialize::encode(&oracle).to_vec();
        let starts = section_starts(&oracle, &bytes);
        let mut rng = StdRng::seed_from_u64(seed);
        let corrupt = mutate(&bytes, &starts, &mut rng);
        if let Ok(decoded) = serialize::decode(&corrupt) {
            query_every_pair(decoded, &graph);
        }
    }
}

/// The mutation harness itself: an unmutated snapshot decodes to the
/// encoded oracle, so an `Err` from a mutated one is the decoder's doing.
#[test]
fn unmutated_snapshots_round_trip_through_the_harness() {
    let graph = snapshot_graph();
    for store_paths in [false, true] {
        let oracle = sample_oracle(&graph, store_paths, TableBackend::HashMap);
        let bytes = serialize::encode(&oracle).to_vec();
        section_starts(&oracle, &bytes);
        let rebuilt = with_checksum(bytes[..bytes.len() - 8].to_vec());
        assert_eq!(serialize::decode(&rebuilt).unwrap(), oracle);
    }
}
