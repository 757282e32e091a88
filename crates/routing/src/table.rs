//! Per-vertex routing tables (Theorem 2.7).
//!
//! The routing extension stores, at each vertex `u` and for every vertex `x`
//! appearing in `u`'s label (i.e. in `∪_i V(H_i(u))`), the *port* of the
//! outgoing edge on a shortest path from `u` toward `x`. Because ports are
//! indices into `u`'s sorted adjacency list they cost `O(log deg)` bits, and
//! the number of entries equals the number of label points, so the routing
//! tables have the same `O(1+ε⁻¹)^{2α} log² n` size bound as the labels.

use std::collections::HashMap;

#[cfg(test)]
use fsdl_graph::bfs::{self, BfsScratch};
use fsdl_graph::{Graph, NodeId};
use fsdl_labels::{Label, Labeling};
use fsdl_nets::ceil_log2;

/// The routing table of one vertex: target → outgoing port on a shortest
/// path.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    owner: NodeId,
    ports: HashMap<NodeId, u32>,
}

impl RoutingTable {
    /// The vertex this table belongs to.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// The port toward `target`, if `target` is in this table.
    pub fn port_toward(&self, target: NodeId) -> Option<u32> {
        if target == self.owner {
            return None;
        }
        self.ports.get(&target).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// `true` when the table is empty (isolated vertex).
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Iterates over `(target, port)` entries in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.ports.iter().map(|(&t, &p)| (t, p))
    }

    /// Table size in bits under the natural encoding: each entry is a
    /// `⌈log n⌉`-bit target plus a `⌈log Δ⌉`-bit port (`Δ` = max degree).
    pub fn bits(&self, n: usize, max_degree: usize) -> usize {
        let entry = ceil_log2(n).max(1) as usize + ceil_log2(max_degree.max(2)).max(1) as usize;
        self.ports.len() * entry
    }

    /// Bit-exact canonical encoding (owner id, entry count, then sorted
    /// delta-encoded target ids with fixed-width ports) — the honest form
    /// of the Theorem 2.7 table-size claim, mirroring the label codec.
    ///
    /// # Panics
    ///
    /// Panics when the owner id or a port exceeds its declared field
    /// width. Tables built by [`RoutingScheme`] for an `n`-vertex graph
    /// of max degree `max_degree` always fit (owner `< n`, ports are
    /// adjacency-list indices `< max_degree`); use
    /// [`RoutingTable::try_encode`] when the table comes from anywhere
    /// else.
    pub fn encode(&self, n: usize, max_degree: usize) -> fsdl_labels::codec::BitWriter {
        self.try_encode(n, max_degree)
            .expect("table fields fit the declared widths")
    }

    /// Fallible form of [`RoutingTable::encode`]: a typed error instead
    /// of a panic when a field does not fit its width.
    ///
    /// # Errors
    ///
    /// Returns a codec error naming the offending field.
    pub fn try_encode(
        &self,
        n: usize,
        max_degree: usize,
    ) -> Result<fsdl_labels::codec::BitWriter, fsdl_labels::codec::CodecError> {
        use fsdl_labels::codec::BitWriter;
        let id_w = ceil_log2(n).max(1);
        let port_w = ceil_log2(max_degree.max(2)).max(1);
        let mut entries: Vec<(NodeId, u32)> = self.ports.iter().map(|(&t, &p)| (t, p)).collect();
        entries.sort_unstable();
        let mut w = BitWriter::new();
        w.write_bits(u64::from(self.owner.raw()), id_w)?;
        w.write_varint(entries.len() as u64);
        let mut prev = 0u64;
        for (k, (target, port)) in entries.iter().enumerate() {
            let id = u64::from(target.raw());
            let delta = if k == 0 { id } else { id - prev };
            prev = id;
            w.write_varint(delta);
            w.write_bits(u64::from(*port), port_w)?;
        }
        Ok(w)
    }

    /// Decodes a table written by [`RoutingTable::encode`]. The input is
    /// untrusted (tables may arrive over the wire or from disk): every
    /// failure mode — a byte slice shorter than the declared bit length,
    /// truncation mid-entry, an owner or target id out of range, a target
    /// id overflowing or repeated, bits after the last entry — surfaces as
    /// a typed codec error at the offending bit, never a panic.
    ///
    /// # Errors
    ///
    /// Returns a codec error on truncated or malformed input.
    pub fn decode(
        bytes: &[u8],
        bit_len: usize,
        n: usize,
        max_degree: usize,
    ) -> Result<Self, fsdl_labels::codec::CodecError> {
        use fsdl_labels::codec::{BitReader, CodecError};
        let id_w = ceil_log2(n).max(1);
        let port_w = ceil_log2(max_degree.max(2)).max(1);
        let mut r = BitReader::try_new(bytes, bit_len)?;
        let owner = r.read_bits(id_w)?;
        if owner >= n as u64 {
            return Err(CodecError {
                bit_offset: r.position(),
                message: format!("owner id {owner} out of range for {n} vertices"),
            });
        }
        let owner = NodeId::new(owner as u32);
        let count = r.read_varint()? as usize;
        let mut ports = HashMap::with_capacity(count.min(n));
        let mut prev = 0u64;
        for k in 0..count {
            let delta = r.read_varint()?;
            let id = if k == 0 {
                delta
            } else if delta == 0 {
                return Err(CodecError {
                    bit_offset: r.position(),
                    message: format!("repeated target id at entry {k}"),
                });
            } else {
                prev.checked_add(delta).ok_or_else(|| CodecError {
                    bit_offset: r.position(),
                    message: format!("target id overflows at entry {k}"),
                })?
            };
            prev = id;
            if id >= n as u64 {
                return Err(CodecError {
                    bit_offset: r.position(),
                    message: format!("target id {id} out of range for {n} vertices at entry {k}"),
                });
            }
            let port = r.read_bits(port_w)? as u32;
            ports.insert(NodeId::new(id as u32), port);
        }
        if r.remaining() != 0 {
            return Err(CodecError {
                bit_offset: r.position(),
                message: format!("{} trailing bits after the last entry", r.remaining()),
            });
        }
        Ok(RoutingTable { owner, ports })
    }
}

/// Builds routing tables from a [`Labeling`]: the marker side of the
/// forbidden-set routing scheme.
#[derive(Debug)]
pub struct RoutingScheme<'l> {
    labeling: &'l Labeling,
}

impl<'l> RoutingScheme<'l> {
    /// Wraps a labeling; tables are materialized per vertex on demand (the
    /// same distributed-artifact reasoning as labels).
    pub fn new(labeling: &'l Labeling) -> Self {
        RoutingScheme { labeling }
    }

    /// The underlying labeling.
    pub fn labeling(&self) -> &Labeling {
        self.labeling
    }

    /// Materializes `u`'s routing table: one entry per distinct vertex in
    /// `u`'s label, mapping to the first-hop port on a shortest path.
    ///
    /// Deterministic: the shortest-path tree breaks ties toward the
    /// smallest-id parent.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn table_of(&self, u: NodeId) -> RoutingTable {
        let label = self.labeling.label_of(u);
        self.table_for_label(&label)
    }

    /// Materializes the routing table matching an already-materialized
    /// label (avoids rebuilding the label).
    pub fn table_for_label(&self, label: &Label) -> RoutingTable {
        let g = self.labeling.graph();
        let u = label.owner;
        // One BFS from u with smallest-id parents; then walk each target
        // back to u to find the first hop.
        let (dist, parent) = bfs_with_parents(g, u);
        let mut ports = HashMap::new();
        for (_, level) in label.levels_iter() {
            for p in &level.points {
                let x = p.vertex;
                if x == u || ports.contains_key(&x) {
                    continue;
                }
                let Some(first_hop) = first_hop_toward(u, x, &dist, &parent) else {
                    continue;
                };
                let port = g
                    .port_of(u, first_hop)
                    .expect("first hop must be a neighbor");
                ports.insert(x, port as u32);
            }
        }
        RoutingTable { owner: u, ports }
    }
}

/// BFS from `u` returning `(dist, parent)` arrays with deterministic
/// smallest-id parents (`parent[u] = u`; `u32::MAX` for unreachable).
fn bfs_with_parents(g: &Graph, u: NodeId) -> (Vec<u32>, Vec<u32>) {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[u.index()] = 0;
    parent[u.index()] = u.raw();
    queue.push_back(u);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for w in g.neighbor_ids(v) {
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = dv + 1;
                parent[w.index()] = v.raw();
                queue.push_back(w);
            }
        }
    }
    (dist, parent)
}

/// The neighbor of `u` on the (parent-tree) shortest path from `u` to `x`,
/// or `None` when unreachable.
fn first_hop_toward(u: NodeId, x: NodeId, dist: &[u32], parent: &[u32]) -> Option<NodeId> {
    if dist[x.index()] == u32::MAX || x == u {
        return None;
    }
    let mut cur = x;
    loop {
        let p = NodeId::new(parent[cur.index()]);
        if p == u {
            return Some(cur);
        }
        cur = p;
    }
}

/// Scratch-free helper used in tests: exact first hop validation by
/// checking `d(x, hop) = d(x, u) - 1`.
#[cfg(test)]
fn is_valid_first_hop(g: &Graph, u: NodeId, x: NodeId, hop: NodeId) -> bool {
    let mut scratch = BfsScratch::new(g.num_vertices());
    let radius = g.num_vertices() as u32;
    let _ = bfs::ball(g, x, radius, &mut scratch);
    match (scratch.last_dist(u), scratch.last_dist(hop)) {
        (Some(du), Some(dh)) => dh + 1 == du,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::generators;
    use fsdl_labels::SchemeParams;

    fn scheme_for(g: &Graph, eps: f64) -> Labeling {
        Labeling::build(g, SchemeParams::new(eps, g.num_vertices()))
    }

    #[test]
    fn table_covers_label_points() {
        let g = generators::grid2d(6, 6);
        let labeling = scheme_for(&g, 1.0);
        let scheme = RoutingScheme::new(&labeling);
        let u = NodeId::new(14);
        let label = labeling.label_of(u);
        let table = scheme.table_of(u);
        for (_, level) in label.levels_iter() {
            for p in &level.points {
                if p.vertex != u {
                    assert!(
                        table.port_toward(p.vertex).is_some(),
                        "missing entry for {}",
                        p.vertex
                    );
                }
            }
        }
        assert!(table.port_toward(u).is_none());
    }

    #[test]
    fn ports_are_shortest_path_first_hops() {
        let g = generators::grid2d(5, 5);
        let labeling = scheme_for(&g, 1.0);
        let scheme = RoutingScheme::new(&labeling);
        for ur in [0u32, 12, 24] {
            let u = NodeId::new(ur);
            let table = scheme.table_of(u);
            for (target, port) in table.entries() {
                let hop = g.neighbor_at_port(u, port as usize).expect("valid port");
                assert!(
                    is_valid_first_hop(&g, u, target, hop),
                    "bad first hop {hop} from {u} toward {target}"
                );
            }
        }
    }

    #[test]
    fn deterministic_tables() {
        let g = generators::random_geometric(80, 0.16, 4);
        let labeling = scheme_for(&g, 2.0);
        let scheme = RoutingScheme::new(&labeling);
        let a = scheme.table_of(NodeId::new(40));
        let b = scheme.table_of(NodeId::new(40));
        let mut ea: Vec<_> = a.entries().collect();
        let mut eb: Vec<_> = b.entries().collect();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb);
    }

    #[test]
    fn table_codec_roundtrip() {
        let g = generators::grid2d(6, 6);
        let labeling = scheme_for(&g, 1.0);
        let scheme = RoutingScheme::new(&labeling);
        let table = scheme.table_of(NodeId::new(14));
        let max_deg = g.max_degree();
        let w = table.encode(36, max_deg);
        let back = RoutingTable::decode(w.as_bytes(), w.len_bits(), 36, max_deg).unwrap();
        assert_eq!(back.owner(), table.owner());
        let mut a: Vec<_> = table.entries().collect();
        let mut b: Vec<_> = back.entries().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Encoded size is in the same class as the formula accounting.
        assert!(w.len_bits() <= 2 * table.bits(36, max_deg) + 64);
    }

    #[test]
    fn decode_of_short_or_malformed_bytes_is_a_typed_error() {
        let g = generators::grid2d(6, 6);
        let labeling = scheme_for(&g, 1.0);
        let scheme = RoutingScheme::new(&labeling);
        let table = scheme.table_of(NodeId::new(14));
        let max_deg = g.max_degree();
        let w = table.encode(36, max_deg);
        // A byte slice shorter than the declared bit length must surface
        // as a CodecError (the BitReader::try_new path), never a panic.
        let short = &w.as_bytes()[..w.as_bytes().len() / 2];
        assert!(RoutingTable::decode(short, w.len_bits(), 36, max_deg).is_err());
        // Truncated bit lengths mid-stream fail too.
        for cut in [1, 7, w.len_bits() / 3] {
            assert!(RoutingTable::decode(w.as_bytes(), cut, 36, max_deg).is_err());
        }
        // All-ones junk decodes to huge varint deltas: out-of-range target
        // ids must be rejected, not silently truncated into NodeIds.
        let junk = vec![0xFFu8; 64];
        assert!(RoutingTable::decode(&junk, 512, 36, max_deg).is_err());
        assert!(RoutingTable::decode(&[], 0, 36, max_deg).is_err());
        // Hand-written 36-vertex tables (6 id bits, 1 port bit), each
        // well-formed but for one field, rejected at the offending bit.
        let table = |owner: u64, deltas: &[u64], trailing: u32| {
            let mut w = fsdl_labels::codec::BitWriter::new();
            w.write_bits(owner, 6).unwrap();
            w.write_varint(deltas.len() as u64);
            for &d in deltas {
                w.write_varint(d);
                w.write_bits(1, 1).unwrap();
            }
            w.write_bits(0, trailing).unwrap();
            w
        };
        let w = table(14, &[3, 5], 0);
        let ok = RoutingTable::decode(w.as_bytes(), w.len_bits(), 36, 2).unwrap();
        assert_eq!((ok.owner(), ok.len()), (NodeId::new(14), 2));
        for (w, offset, what) in [
            (table(63, &[3, 5], 0), 6, "owner id 63"),
            (table(14, &[3, 0], 0), 6 + 5 + 5 + 1 + 5, "repeated target"),
            (
                table(14, &[3, 5], 4),
                6 + 5 + 2 * (5 + 1),
                "4 trailing bits",
            ),
        ] {
            let err = RoutingTable::decode(w.as_bytes(), w.len_bits(), 36, 2).unwrap_err();
            assert!(err.message.contains(what), "{err}");
            assert_eq!(err.bit_offset, offset, "{err}");
        }
    }

    #[test]
    fn try_encode_rejects_out_of_width_fields() {
        let mut ports = HashMap::new();
        ports.insert(NodeId::new(3), 9); // port 9 needs 4 bits
        let t = RoutingTable {
            owner: NodeId::new(40), // needs 6 bits
            ports,
        };
        // n = 16 -> 4 id bits: owner 40 does not fit.
        assert!(t.try_encode(16, 2).is_err());
        // Wide enough ids but a 1-bit port field: port 9 does not fit.
        assert!(t.try_encode(64, 2).is_err());
        // Wide enough everywhere: fine.
        assert!(t.try_encode(64, 16).is_ok());
    }

    #[test]
    fn bits_accounting() {
        let g = generators::path(16);
        let labeling = scheme_for(&g, 1.0);
        let scheme = RoutingScheme::new(&labeling);
        let t = scheme.table_of(NodeId::new(8));
        // n = 16 -> 4 id bits; path max degree 2 -> 1 port bit.
        assert_eq!(t.bits(16, 2), t.len() * 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn single_vertex_table_empty() {
        let g = fsdl_graph::GraphBuilder::new(1).build();
        let labeling = scheme_for(&g, 1.0);
        let scheme = RoutingScheme::new(&labeling);
        let t = scheme.table_of(NodeId::new(0));
        assert!(t.is_empty());
        assert_eq!(t.owner(), NodeId::new(0));
    }
}
