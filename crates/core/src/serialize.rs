//! Versioned binary persistence of a [`VicinityOracle`].
//!
//! Building an oracle over the larger stand-in datasets takes seconds to
//! minutes; the experiment harness therefore caches constructed oracles on
//! disk. The format mirrors the graph format of `vicinity-graph::io::binary`:
//! a magic number, a version byte, little-endian sections and a trailing
//! byte-sum checksum so corrupt caches are rejected rather than silently
//! producing wrong answers.
//!
//! ## Format v3
//!
//! Sectioned raw-array dumps of the flat [`VicinityStore`]: after the
//! shared header (config, graph summary, landmark set, landmark rows) the
//! vicinity index is a store-flags byte followed by exactly eight
//! contiguous little-endian arrays — per-node radii and nearest landmarks,
//! CSR offsets, and the member / distance / predecessor / boundary pools.
//! Bit 0 of the flags byte ([`STORE_FLAG_SORTED_MEMBERS`]) records the
//! build-time invariant that member pools are sorted by node id within
//! each span; the writer always sets it. Encode and decode move whole
//! sections with bulk `put_slice` / chunk conversions instead of per-node
//! loops, so load time is O(bytes); the derived shell indexes and
//! membership hash slots are rebuilt at load, never stored.
//!
//! v3 is the only format [`decode`] reads. Any other version byte (the
//! retired v1 per-node records and v2 flagless sections included) and a
//! v3 store-flags byte without the sorted bit are decode errors naming v3.
//!
//! ## Untrusted input
//!
//! [`decode`] returns an error for malformed input instead of panicking
//! or allocating more than the input justifies. Every declared length is
//! checked (with overflow-checked arithmetic) against the bytes that
//! remain before anything is sized by it, and the decoded store is
//! range-checked in linear scans: ids below the node count, distances
//! within their node's radius, radii within the hop bound, sorted spans,
//! in-range boundary indices and one full-width row per landmark. The
//! byte-sum checksum cannot catch a transposition or a checksum-fixed
//! edit, so these checks are what keeps a bad snapshot from becoming a
//! store whose queries index out of bounds.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use vicinity_graph::{Distance, NodeId, INVALID_NODE};

use crate::config::{Alpha, OracleConfig, SamplingStrategy, TableBackend};
use crate::index::{LandmarkTable, VicinityOracle};
use crate::landmarks::LandmarkSet;
use crate::vicinity::VicinityStore;
use crate::{OracleError, Result};

const MAGIC: &[u8; 4] = b"VOR1";
/// The snapshot format version this build writes and reads.
pub const FORMAT_VERSION: u8 = 3;

/// Bit 0 of the v3 store-flags byte: member pools are sorted by node id
/// within each node span (the build-time invariant the batched query
/// engine's merge intersection and sorted-array probes rely on). [`decode`]
/// rejects a snapshot without it, and checks the claim instead of
/// trusting it.
pub const STORE_FLAG_SORTED_MEMBERS: u8 = 1;

// ---------------------------------------------------------------------------
// Checksum. The trailing checksum is the plain sum of every body byte,
// computed as a SWAR sum over u64 words and fanned out across worker
// threads for multi-megabyte snapshots.

/// Sum of all bytes of `data`, widened to u64.
fn byte_sum(data: &[u8]) -> u64 {
    const PARALLEL_MIN: usize = 4 << 20;
    if data.len() < PARALLEL_MIN {
        return byte_sum_serial(data);
    }
    let parts = crate::parallel::resolve_worker_threads(0, data.len() / PARALLEL_MIN);
    let chunk_size = data.len().div_ceil(parts);
    std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || byte_sum_serial(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checksum worker panicked"))
            .sum()
    })
}

fn byte_sum_serial(data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(8);
    let mut total = 0u64;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        // Pairwise-widen the eight byte lanes; exact for a single word.
        let pairs = (word & 0x00FF_00FF_00FF_00FF) + ((word >> 8) & 0x00FF_00FF_00FF_00FF);
        let quads = (pairs & 0x0000_FFFF_0000_FFFF) + ((pairs >> 16) & 0x0000_FFFF_0000_FFFF);
        total += (quads & 0xFFFF_FFFF) + (quads >> 32);
    }
    total + chunks.remainder().iter().map(|&b| b as u64).sum::<u64>()
}

// ---------------------------------------------------------------------------
// Bulk little-endian array helpers. On little-endian targets the per-element
// conversions below compile down to straight copies; either way they touch
// each section once, with no per-node framing in between.

/// Elements converted per staging block by the `put_*s` writers: large
/// enough that the bulk `put_slice` dominates, small enough (≤64 KiB of
/// staging) that a multi-MiB section never needs a second full-size copy
/// in flight.
const PUT_BLOCK: usize = 8 << 10;

fn put_u16s(buf: &mut BytesMut, values: &[u16]) {
    let mut raw = [0u8; PUT_BLOCK * 2];
    for block in values.chunks(PUT_BLOCK) {
        let staged = &mut raw[..block.len() * 2];
        for (chunk, v) in staged.chunks_exact_mut(2).zip(block) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(staged);
    }
}

fn put_u32s(buf: &mut BytesMut, values: &[u32]) {
    let mut raw = [0u8; PUT_BLOCK * 4];
    for block in values.chunks(PUT_BLOCK) {
        let staged = &mut raw[..block.len() * 4];
        for (chunk, v) in staged.chunks_exact_mut(4).zip(block) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(staged);
    }
}

fn put_u64s(buf: &mut BytesMut, values: &[u64]) {
    let mut raw = [0u8; PUT_BLOCK * 8];
    for block in values.chunks(PUT_BLOCK) {
        let staged = &mut raw[..block.len() * 8];
        for (chunk, v) in staged.chunks_exact_mut(8).zip(block) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(staged);
    }
}

/// Split the next `len` elements of `width` bytes off `cur`. A declared
/// length whose byte size overflows or exceeds what is left fails here,
/// before any caller allocates for it.
fn take_section<'a>(cur: &mut &'a [u8], len: usize, width: usize) -> Result<&'a [u8]> {
    let bytes = len
        .checked_mul(width)
        .filter(|&bytes| bytes <= cur.len())
        .ok_or_else(|| {
            OracleError::Decode(format!(
                "truncated input: {len} elements of {width} bytes declared, {} bytes left",
                cur.len()
            ))
        })?;
    let (head, tail) = cur.split_at(bytes);
    *cur = tail;
    Ok(head)
}

fn get_u32s(cur: &mut &[u8], len: usize) -> Result<Vec<u32>> {
    Ok(take_section(cur, len, 4)?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect())
}

fn get_u64s(cur: &mut &[u8], len: usize) -> Result<Vec<u64>> {
    Ok(take_section(cur, len, 8)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// Like [`get_u32s`], but fanning the conversion of multi-megabyte
/// sections out over worker threads writing disjoint output windows.
fn get_u32s_parallel(cur: &mut &[u8], len: usize) -> Result<Vec<u32>> {
    const PARALLEL_MIN: usize = 1 << 20; // elements
    if len < PARALLEL_MIN {
        return get_u32s(cur, len);
    }
    let head = take_section(cur, len, 4)?;
    let mut out = vec![0u32; len];
    let threads = crate::parallel::resolve_worker_threads(0, len / PARALLEL_MIN);
    let chunk = len.div_ceil(threads);
    std::thread::scope(|scope| {
        for (window, raw) in out.chunks_mut(chunk).zip(head.chunks(chunk * 4)) {
            scope.spawn(move || {
                for (slot, bytes) in window.iter_mut().zip(raw.chunks_exact(4)) {
                    *slot = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
                }
            });
        }
    });
    Ok(out)
}

/// Read a u64 length or count field as a `usize`.
fn get_len(cur: &mut &[u8]) -> Result<usize> {
    ensure(cur, 8)?;
    usize::try_from(cur.get_u64_le())
        .map_err(|_| OracleError::Decode("length field exceeds the address space".into()))
}

/// Read a section of `n + 1` CSR offsets and check that they rise
/// monotonically from 0; returns them with their total (the last offset).
fn get_offsets(cur: &mut &[u8], n: usize, what: &str) -> Result<(Vec<u64>, usize)> {
    let offsets = get_u64s(cur, n + 1)?;
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(OracleError::Decode(format!(
            "{what} offsets are not monotonically non-decreasing from 0"
        )));
    }
    let total = usize::try_from(offsets[n])
        .map_err(|_| OracleError::Decode(format!("{what} total exceeds the address space")))?;
    Ok((offsets, total))
}

// ---------------------------------------------------------------------------
// Header: config, graph summary, landmark set and landmark rows.

fn encode_header(buf: &mut BytesMut, oracle: &VicinityOracle) {
    buf.put_slice(MAGIC);
    buf.put_u8(FORMAT_VERSION);

    // Configuration.
    buf.put_f64_le(oracle.config.alpha.value());
    buf.put_u8(match oracle.config.sampling {
        SamplingStrategy::DegreeProportional => 0,
        SamplingStrategy::Uniform => 1,
        SamplingStrategy::TopDegree => 2,
    });
    buf.put_u8(match oracle.config.backend {
        TableBackend::HashMap => 0,
        TableBackend::SortedArray => 1,
    });
    buf.put_u64_le(oracle.config.seed);
    buf.put_u8(u8::from(oracle.config.store_paths));

    // Graph summary.
    buf.put_u64_le(oracle.node_count as u64);
    buf.put_u64_le(oracle.edge_count as u64);

    // Landmark set.
    let landmark_nodes = oracle.landmarks.nodes();
    buf.put_u64_le(landmark_nodes.len() as u64);
    put_u32s(buf, landmark_nodes);

    // Landmark tables, ordered by landmark id for determinism.
    let mut table_ids: Vec<NodeId> = oracle.landmark_tables.keys().copied().collect();
    table_ids.sort_unstable();
    buf.put_u64_le(table_ids.len() as u64);
    for l in table_ids {
        let table = &oracle.landmark_tables[&l];
        buf.put_u32_le(l);
        buf.put_u64_le(table.raw().len() as u64);
        put_u16s(buf, table.raw());
    }
}

/// Everything the shared header carries, short of the vicinity sections.
struct DecodedHeader {
    config: OracleConfig,
    node_count: usize,
    edge_count: usize,
    landmarks: LandmarkSet,
    landmark_tables: vicinity_graph::fast_hash::FastMap<NodeId, std::sync::Arc<LandmarkTable>>,
}

/// Decode the header, checking every count against the bytes that remain
/// before sizing anything by it.
fn decode_header(cur: &mut &[u8]) -> Result<DecodedHeader> {
    ensure(cur, 8 + 1 + 1 + 8 + 1)?;
    let alpha =
        Alpha::new(cur.get_f64_le()).map_err(|e| OracleError::Decode(format!("bad alpha: {e}")))?;
    let sampling = match cur.get_u8() {
        0 => SamplingStrategy::DegreeProportional,
        1 => SamplingStrategy::Uniform,
        2 => SamplingStrategy::TopDegree,
        other => {
            return Err(OracleError::Decode(format!(
                "unknown sampling strategy {other}"
            )))
        }
    };
    let backend = match cur.get_u8() {
        0 => TableBackend::HashMap,
        1 => TableBackend::SortedArray,
        other => return Err(OracleError::Decode(format!("unknown backend {other}"))),
    };
    let seed = cur.get_u64_le();
    let store_paths = cur.get_u8() != 0;
    let node_count = get_len(cur)?;
    let edge_count = get_len(cur)?;
    // The radii and nearest-landmark sections (4 bytes per node each) and
    // the two offset sections (8 bytes per node plus one each) come later
    // in the body: a node count it cannot hold is rejected before the
    // landmark bitmap or any section is sized by it. Node ids are u32 with
    // `INVALID_NODE` reserved, which also bounds the count.
    if node_count > INVALID_NODE as usize
        || node_count
            .checked_add(1)
            .and_then(|entries| entries.checked_mul(24))
            .is_none_or(|bytes| bytes > cur.remaining())
    {
        return Err(OracleError::Decode(format!(
            "node count {node_count} exceeds what the {} bytes left can hold",
            cur.remaining()
        )));
    }

    // Landmark set.
    let landmark_count = get_len(cur)?;
    let landmark_nodes = get_u32s(cur, landmark_count)?;
    if let Some(&bad) = landmark_nodes.iter().find(|&&l| l as usize >= node_count) {
        return Err(OracleError::Decode(format!(
            "landmark {bad} out of range for {node_count} nodes"
        )));
    }
    let landmarks = LandmarkSet::from_nodes(landmark_nodes, node_count);

    // Landmark tables — the bulk of a snapshot's bytes (each row is 2n
    // bytes of dense u16 distances). A first pass collects (id, payload)
    // descriptors, so the payloads can be converted in parallel, one
    // worker per group of rows.
    let table_count = get_len(cur)?;
    if table_count > cur.remaining() / 12 {
        return Err(OracleError::Decode(format!(
            "{table_count} landmark rows declared, {} bytes left",
            cur.remaining()
        )));
    }
    let mut rows: Vec<(NodeId, &[u8])> = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        ensure(cur, 4)?;
        let l = cur.get_u32_le();
        let len = get_len(cur)?;
        if !landmarks.contains(l) || len != node_count {
            return Err(OracleError::Decode(format!(
                "landmark row {l} has {len} entries: rows belong to landmarks \
                 and hold one entry per node ({node_count})"
            )));
        }
        rows.push((l, take_section(cur, len, 2)?));
    }
    const PARALLEL_MIN: usize = 4 << 20;
    let threads =
        crate::parallel::resolve_worker_threads(0, rows.len() * node_count * 2 / PARALLEL_MIN);
    let convert = |group: &[(NodeId, &[u8])]| -> Vec<(NodeId, std::sync::Arc<LandmarkTable>)> {
        group
            .iter()
            .map(|&(l, payload)| {
                let row = payload
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes(c.try_into().expect("2-byte chunk")))
                    .collect();
                (l, std::sync::Arc::new(LandmarkTable::from_raw(row)))
            })
            .collect()
    };
    let mut landmark_tables = vicinity_graph::fast_hash::FastMap::with_capacity_and_hasher(
        table_count,
        Default::default(),
    );
    if threads <= 1 {
        landmark_tables.extend(convert(&rows));
    } else {
        let group_size = rows.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = rows
                .chunks(group_size)
                .map(|group| scope.spawn(move || convert(group)))
                .collect();
            for handle in handles {
                landmark_tables.extend(handle.join().expect("landmark decode worker panicked"));
            }
        });
    }
    if landmark_tables.len() != landmarks.len() {
        return Err(OracleError::Decode(format!(
            "{} distinct landmark rows for {} landmarks",
            landmark_tables.len(),
            landmarks.len()
        )));
    }

    Ok(DecodedHeader {
        config: OracleConfig {
            alpha,
            sampling,
            backend,
            seed,
            store_paths,
            threads: 0,
        },
        node_count,
        edge_count,
        landmarks,
        landmark_tables,
    })
}

// ---------------------------------------------------------------------------
// Store sections.

/// Serialize an oracle to bytes (format v3, the flat-store sections).
pub fn encode(oracle: &VicinityOracle) -> Bytes {
    let (radii, nearest, offsets, members, distances, predecessors, boundary_offsets, boundary) =
        oracle.store.raw_sections();
    // Section payload is dominated by the pools; reserving up front keeps
    // the encoder to a single allocation.
    let estimate = 256
        + oracle.landmark_tables.len() * (12 + oracle.node_count * 2)
        + (radii.len() + nearest.len()) * 4
        + (offsets.len() + boundary_offsets.len()) * 8
        + (members.len() + distances.len() + predecessors.len() + boundary.len()) * 4;
    let mut buf = BytesMut::with_capacity(estimate);
    encode_header(&mut buf, oracle);

    // Store-flags byte: every builder sorts member spans by node id, so
    // snapshots always record the invariant (which decode checks).
    buf.put_u8(STORE_FLAG_SORTED_MEMBERS);
    put_u32s(&mut buf, radii);
    put_u32s(&mut buf, nearest);
    put_u64s(&mut buf, offsets);
    put_u32s(&mut buf, members);
    put_u32s(&mut buf, distances);
    buf.put_u8(u8::from(!predecessors.is_empty()));
    put_u32s(&mut buf, predecessors);
    put_u64s(&mut buf, boundary_offsets);
    put_u32s(&mut buf, boundary);

    let checksum = byte_sum(&buf);
    buf.put_u64_le(checksum);
    buf.freeze()
}

fn decode_sections(cur: &mut &[u8], header: DecodedHeader) -> Result<VicinityOracle> {
    let n = header.node_count;
    ensure(cur, 1)?;
    if cur.get_u8() & STORE_FLAG_SORTED_MEMBERS == 0 {
        return Err(OracleError::Decode(format!(
            "snapshot lacks the sorted-members store flag: this build reads \
             format v{FORMAT_VERSION} with sorted member spans only"
        )));
    }
    let radii = get_u32s(cur, n)?;
    // A landmark-free node's ball is its whole component, built with the
    // hop bound n - 1 as its radius; no radius can exceed it.
    let hop_bound = n.saturating_sub(1) as Distance;
    if let Some(u) = radii.iter().position(|&r| r > hop_bound) {
        return Err(OracleError::Decode(format!(
            "radius {} of node {u} exceeds the hop bound {hop_bound}",
            radii[u]
        )));
    }
    let nearest = get_u32s(cur, n)?;
    check_ids("nearest landmark", &nearest, n)?;
    let (offsets, total) = get_offsets(cur, n, "vicinity")?;
    let members = get_u32s_parallel(cur, total)?;
    let distances = get_u32s_parallel(cur, total)?;
    ensure(cur, 1)?;
    let predecessors = if cur.get_u8() != 0 {
        get_u32s_parallel(cur, total)?
    } else {
        Vec::new()
    };
    check_ids("predecessor", &predecessors, n)?;
    let (boundary_offsets, boundary_total) = get_offsets(cur, n, "boundary")?;
    let boundary = get_u32s(cur, boundary_total)?;
    if !cur.is_empty() {
        return Err(OracleError::Decode(format!(
            "{} trailing bytes after the last section",
            cur.len()
        )));
    }

    // The trailing byte-sum checksum is order-invariant, so a transposed
    // (or duplicated) member span can reach this point checksum-valid:
    // the sorted flag is checked, never trusted, or merges and probes
    // would silently return wrong answers.
    if !crate::vicinity::spans_sorted(&offsets, &members) {
        return Err(OracleError::Decode(
            "snapshot claims sorted member spans but a span is out of order or \
             lists a member twice"
                .into(),
        ));
    }
    for u in 0..n {
        let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
        // Spans are sorted, so the last member is the largest.
        if let Some(&bad) = members[start..end].last().filter(|&&m| m as usize >= n) {
            return Err(OracleError::Decode(format!(
                "member {bad} of node {u} out of range for {n} nodes"
            )));
        }
        if let Some(&bad) = distances[start..end].iter().find(|&&d| d > radii[u]) {
            return Err(OracleError::Decode(format!(
                "member distance {bad} of node {u} exceeds its radius {}",
                radii[u]
            )));
        }
        let span = (end - start) as u32;
        let (b_start, b_end) = (
            boundary_offsets[u] as usize,
            boundary_offsets[u + 1] as usize,
        );
        if let Some(&bad) = boundary[b_start..b_end].iter().find(|&&idx| idx >= span) {
            return Err(OracleError::Decode(format!(
                "boundary index {bad} out of range for {span} members of node {u}"
            )));
        }
    }

    let store = VicinityStore::from_raw(
        header.config.backend,
        radii,
        nearest,
        offsets,
        members,
        distances,
        predecessors,
        boundary_offsets,
        boundary,
    );
    Ok(VicinityOracle {
        config: header.config,
        node_count: header.node_count,
        edge_count: header.edge_count,
        landmarks: header.landmarks,
        store,
        landmark_tables: header.landmark_tables,
    })
}

/// Check that every entry of `ids` is a node id below `n` or the
/// `INVALID_NODE` sentinel the builder writes for "none".
fn check_ids(what: &str, ids: &[NodeId], n: usize) -> Result<()> {
    match ids
        .iter()
        .find(|&&id| id != INVALID_NODE && id as usize >= n)
    {
        Some(bad) => Err(OracleError::Decode(format!(
            "{what} {bad} out of range for {n} nodes"
        ))),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Entry points.

/// Deserialize an oracle from bytes produced by [`encode`] (format v3).
///
/// Any malformed input — wrong checksum, magic or version, truncated or
/// inflated sections, out-of-range ids or distances — is an
/// [`OracleError::Decode`], never a panic.
pub fn decode(data: &[u8]) -> Result<VicinityOracle> {
    if data.len() < MAGIC.len() + 1 + 8 {
        return Err(OracleError::Decode("input too short".into()));
    }
    let (body, checksum_bytes) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(
        checksum_bytes
            .try_into()
            .map_err(|_| OracleError::Decode("bad checksum".into()))?,
    );
    let computed = byte_sum(body);
    if stored != computed {
        return Err(OracleError::Decode(format!(
            "checksum mismatch (stored {stored}, computed {computed})"
        )));
    }

    let mut cur = body;
    let mut magic = [0u8; 4];
    ensure(&cur, 5)?;
    cur.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(OracleError::Decode("bad magic number".into()));
    }
    let version = cur.get_u8();
    if version != FORMAT_VERSION {
        return Err(OracleError::Decode(format!(
            "unsupported snapshot format version {version}: this build reads \
             v{FORMAT_VERSION} only"
        )));
    }
    let header = decode_header(&mut cur)?;
    decode_sections(&mut cur, header)
}

/// Write an oracle to a file (format v3).
pub fn save<P: AsRef<std::path::Path>>(oracle: &VicinityOracle, path: P) -> Result<()> {
    std::fs::write(path, encode(oracle))?;
    Ok(())
}

/// Read an oracle from a file written by [`save`].
pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<VicinityOracle> {
    let data = std::fs::read(path)?;
    decode(&data)
}

fn ensure(cur: &&[u8], needed: usize) -> Result<()> {
    if cur.remaining() < needed {
        return Err(OracleError::Decode(format!(
            "truncated input: need {needed} bytes, have {}",
            cur.remaining()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::OracleBuilder;
    use crate::query::DistanceAnswer;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    fn sample_oracle(seed: u64, store_paths: bool, backend: TableBackend) -> VicinityOracle {
        let g = SocialGraphConfig::small_test()
            .with_nodes(600)
            .generate(seed);
        OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(seed)
            .store_paths(store_paths)
            .backend(backend)
            .build(&g)
    }

    #[test]
    fn round_trip_preserves_oracle() {
        let oracle = sample_oracle(131, true, TableBackend::HashMap);
        let decoded = decode(&encode(&oracle)).unwrap();
        assert_eq!(oracle, decoded);
    }

    #[test]
    fn round_trip_without_paths_and_sorted_backend() {
        let oracle = sample_oracle(132, false, TableBackend::SortedArray);
        let decoded = decode(&encode(&oracle)).unwrap();
        assert_eq!(oracle, decoded);
    }

    #[test]
    fn decoded_oracle_answers_queries_identically() {
        let g = SocialGraphConfig::small_test()
            .with_nodes(600)
            .generate(133);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(133).build(&g);
        let decoded = decode(&encode(&oracle)).unwrap();
        for (s, t) in [(0u32, 5u32), (1, 50), (10, 200), (3, 3)] {
            let a = oracle.distance(s, t);
            let b = decoded.distance(s, t);
            assert_eq!(a, b);
            if let DistanceAnswer::Exact { .. } = a {
                assert_eq!(oracle.path(s, t), decoded.path(s, t));
            }
        }
    }

    #[test]
    fn saturated_landmark_rows_round_trip() {
        // Rows containing the saturated (u16::MAX - 1) and unreachable
        // (u16::MAX) sentinels must survive the format bit-for-bit.
        let mut oracle = sample_oracle(134, true, TableBackend::HashMap);
        let landmark = oracle.landmarks.nodes()[0];
        let n = oracle.node_count;
        let mut saturated: Vec<Distance> = (0..n as Distance).collect();
        saturated[1.min(n - 1)] = 70_000; // saturates the u16 row
        saturated[2.min(n - 1)] = vicinity_graph::INFINITY; // unreachable
        oracle.landmark_tables.insert(
            landmark,
            std::sync::Arc::new(LandmarkTable::from_distances(&saturated)),
        );
        let decoded = decode(&encode(&oracle)).unwrap();
        assert_eq!(oracle, decoded);
        assert_eq!(
            decoded.landmark_table(landmark).unwrap().raw(),
            oracle.landmark_table(landmark).unwrap().raw()
        );
    }

    #[test]
    fn v3_snapshots_record_the_sorted_invariant() {
        let oracle = sample_oracle(137, true, TableBackend::HashMap);
        let bytes = encode(&oracle);
        assert_eq!(bytes[4], FORMAT_VERSION);
        // A v3 snapshot without the flag is not read: there is no
        // sort-on-load path to fall back to.
        let flags = Sections::locate(&bytes, &oracle).flags;
        assert_eq!(bytes[flags] & STORE_FLAG_SORTED_MEMBERS, 1);
        let mut unflagged = bytes.to_vec();
        unflagged[flags] = 0;
        fix_checksum(&mut unflagged);
        let err = decode(&unflagged).unwrap_err();
        assert!(matches!(err, OracleError::Decode(_)));
        assert!(err.to_string().contains("v3"), "{err}");
    }

    #[test]
    fn flagged_snapshots_with_unsorted_spans_are_rejected() {
        // The byte-sum checksum is order-invariant, so transposing two
        // members inside a span survives it. The decoder must not trust
        // the sorted flag blindly: the claimed-but-violated invariant has
        // to surface as a decode error, never a silently wrong store.
        let oracle = sample_oracle(139, true, TableBackend::HashMap);
        let bytes = encode(&oracle);
        let n = oracle.node_count();
        let (_, _, offsets, members, ..) = oracle.store().raw_sections();
        let span_start = (0..n)
            .find(|&u| offsets[u + 1] - offsets[u] >= 2)
            .map(|u| offsets[u] as usize)
            .expect("some node has at least two members");
        let a = Sections::locate(&bytes, &oracle).members + span_start * 4;
        let mut corrupt = bytes.to_vec();
        assert_eq!(read_u32(&corrupt, a), members[span_start]);
        for i in 0..4 {
            corrupt.swap(a + i, a + 4 + i); // transpose two adjacent members
        }
        // Checksum unchanged by the transposition — no fix_checksum needed.
        let err = decode(&corrupt).unwrap_err();
        assert!(err.to_string().contains("sorted member spans"), "{err}");
    }

    /// Byte positions of the v3 sections of `bytes`, the encoding of
    /// `oracle`, found by re-encoding the header and walking the
    /// section sizes.
    struct Sections {
        node_count: usize,
        landmark_count: usize,
        flags: usize,
        radii: usize,
        nearest: usize,
        offsets: usize,
        members: usize,
        distances: usize,
        predecessors: usize,
        boundary_offsets: usize,
    }

    impl Sections {
        fn locate(bytes: &[u8], oracle: &VicinityOracle) -> Sections {
            let mut header = BytesMut::new();
            encode_header(&mut header, oracle);
            assert_eq!(&bytes[..header.len()], &header[..], "header mismatch");
            let (_, _, _, members, _, predecessors, ..) = oracle.store().raw_sections();
            let n = oracle.node_count();
            let flags = header.len();
            let radii = flags + 1;
            let nearest = radii + n * 4;
            let offsets = nearest + n * 4;
            let members_at = offsets + (n + 1) * 8;
            let distances = members_at + members.len() * 4;
            let predecessors_at = distances + members.len() * 4 + 1;
            let boundary_offsets = predecessors_at + predecessors.len() * 4;
            Sections {
                node_count: 5 + 8 + 1 + 1 + 8 + 1,
                landmark_count: 5 + 8 + 1 + 1 + 8 + 1 + 16,
                flags,
                radii,
                nearest,
                offsets,
                members: members_at,
                distances,
                predecessors: predecessors_at,
                boundary_offsets,
            }
        }
    }

    fn read_u32(bytes: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    }

    /// Overwrite bytes at `at` and fix the checksum, so only the decoder's
    /// structural checks stand between the edit and a built store.
    fn patched(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + value.len()].copy_from_slice(value);
        fix_checksum(&mut out);
        out
    }

    /// The oracle the decode-hardening tests mutate.
    fn small_test_oracle() -> VicinityOracle {
        let g = SocialGraphConfig::small_test().generate(5);
        OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(5).build(&g)
    }

    #[test]
    fn inflated_section_lengths_are_rejected_before_allocating() {
        let oracle = small_test_oracle();
        let bytes = encode(&oracle);
        let at = Sections::locate(&bytes, &oracle);
        let n = oracle.node_count();
        let last_boundary_offset = at.boundary_offsets + n * 8;
        let last_member_offset = at.offsets + n * 8;
        // Each field declares a length or count; `1 << 62` overflows every
        // byte-size product, the others overflow only once multiplied.
        for (field, position) in [
            ("last boundary offset", last_boundary_offset),
            ("last member offset", last_member_offset),
            ("node count", at.node_count),
            ("landmark count", at.landmark_count),
            (
                "landmark row count",
                at.landmark_count + 8 + oracle.landmarks.len() * 4,
            ),
        ] {
            for value in [1u64 << 62, u64::MAX, u64::MAX / 4 + 1, bytes.len() as u64] {
                let corrupt = patched(&bytes, position, &value.to_le_bytes());
                let err = decode(&corrupt).unwrap_err();
                assert!(matches!(err, OracleError::Decode(_)), "{field} = {value}");
            }
        }
    }

    #[test]
    fn out_of_range_members_are_rejected() {
        let oracle = small_test_oracle();
        let bytes = encode(&oracle);
        let at = Sections::locate(&bytes, &oracle);
        let n = oracle.node_count();
        let (_, _, offsets, ..) = oracle.store().raw_sections();
        // The last member of a span: raising it keeps the span sorted.
        let last = (0..n)
            .find(|&u| offsets[u + 1] > offsets[u])
            .map(|u| offsets[u + 1] as usize - 1)
            .expect("some vicinity is non-empty");
        let corrupt = patched(
            &bytes,
            at.members + last * 4,
            &(n as u32 + 1000).to_le_bytes(),
        );
        let err = decode(&corrupt).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn member_distances_beyond_the_radius_are_rejected() {
        let oracle = small_test_oracle();
        let bytes = encode(&oracle);
        let at = Sections::locate(&bytes, &oracle);
        let n = oracle.node_count();
        let (radii, _, offsets, ..) = oracle.store().raw_sections();
        let u = (0..n)
            .find(|&u| offsets[u + 1] > offsets[u])
            .expect("some vicinity is non-empty");
        let entry = offsets[u] as usize;
        let corrupt = patched(
            &bytes,
            at.distances + entry * 4,
            &(radii[u] + 1).to_le_bytes(),
        );
        let err = decode(&corrupt).unwrap_err();
        assert!(err.to_string().contains("exceeds its radius"), "{err}");
    }

    #[test]
    fn out_of_range_header_ids_are_rejected() {
        let oracle = sample_oracle(140, true, TableBackend::HashMap);
        let bytes = encode(&oracle);
        let at = Sections::locate(&bytes, &oracle);
        let n = oracle.node_count() as u32;
        let first_row = at.landmark_count + 8 + oracle.landmarks.len() * 4 + 8;
        let (_, _, _, _, _, predecessors, ..) = oracle.store().raw_sections();
        assert!(!predecessors.is_empty());
        for (field, position, value) in [
            ("radius", at.radii, n),
            ("nearest landmark", at.nearest, n),
            ("predecessor", at.predecessors, n + 7),
            ("landmark", at.landmark_count + 8, n),
            ("landmark row id", first_row, n),
            (
                "landmark row id",
                first_row,
                oracle.landmarks.nodes()[0] + 1,
            ),
        ] {
            let corrupt = patched(&bytes, position, &value.to_le_bytes());
            assert!(decode(&corrupt).is_err(), "{field} = {value}");
        }
        let short_row = patched(&bytes, first_row + 4, &(n as u64 - 1).to_le_bytes());
        assert!(decode(&short_row).is_err(), "short landmark row");
    }

    #[test]
    fn corruption_is_detected() {
        let oracle = sample_oracle(134, true, TableBackend::HashMap);
        let mut bytes = encode(&oracle).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        assert!(matches!(decode(&bytes), Err(OracleError::Decode(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let oracle = sample_oracle(135, true, TableBackend::HashMap);
        let bytes = encode(&oracle);
        for len in [0usize, 3, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..len]).is_err(), "length {len} must fail");
        }
    }

    /// Recompute the trailing byte-sum checksum after a deliberate
    /// mutation, so only the targeted validation fires.
    fn fix_checksum(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let checksum: u64 = bytes[..body_len].iter().map(|&b| b as u64).sum();
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let oracle = sample_oracle(136, true, TableBackend::HashMap);
        let bytes = encode(&oracle).to_vec();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        fix_checksum(&mut bad_magic);
        let err = decode(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // The retired v1 and v2 formats are rejected like any unknown
        // version: the error names the offending version and v3.
        for version in [1u8, 2, 99] {
            let mut bad_version = bytes.clone();
            bad_version[4] = version;
            fix_checksum(&mut bad_version);
            let err = decode(&bad_version).unwrap_err();
            assert!(matches!(err, OracleError::Decode(_)));
            let message = err.to_string();
            assert!(message.contains(&format!("version {version}")), "{message}");
            assert!(message.contains("v3"), "{message}");
        }
    }

    #[test]
    fn file_round_trip() {
        let g = classic::grid(8, 8);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(9).build(&g);
        let dir = std::env::temp_dir().join("vicinity_core_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oracle.vor");
        save(&oracle, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(oracle, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            load("/no/such/oracle.vor"),
            Err(OracleError::Io(_))
        ));
    }
}
