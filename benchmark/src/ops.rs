//! Op streams: generated from a seed, written to and replayed from a
//! byte-exact file (generator / evaluate split), fingerprinted with
//! FNV-1a so two builds can be shown to have run the same input.

use std::collections::BTreeSet;

use fsdl_graph::{FaultSet, Graph, NodeId};
use fsdl_server::{UpdateOp, WireFaults};

use crate::rng::{Rng, Zipf};
use crate::spec::Workload;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Query {
        s: u32,
        t: u32,
        faults: WireFaults,
    },
    Update(UpdateOp),
    /// `dynamic-churn` only: the ops up to the next marker run against a
    /// fresh oracle on the pristine graph.
    EpochStart,
}

/// Ops in a static stream. A timed window consumes a prefix (a few
/// thousand ops) and wraps around only on a machine fast enough to
/// exhaust it.
pub const STATIC_STREAM_OPS: usize = 32_768;
/// Epochs in a `dynamic-churn` stream.
pub const CHURN_EPOCHS: usize = 32;
/// Queries between closing and reopening a vertex.
pub const CHURN_QUERIES_PER_STEP: usize = 40;

const FAULTY_QUERY_SHARE: f64 = 0.3;
const MAX_FAULTS: u32 = 4;
const EDGE_FAULT_SHARE: f64 = 0.3;

fn edge_list(g: &Graph) -> Vec<(u32, u32)> {
    g.edges().map(|e| (e.lo().raw(), e.hi().raw())).collect()
}

/// Generates the op stream of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Vec<Op> {
    let g = workload.graph();
    match workload {
        Workload::DynamicChurn => churn_stream(&g, seed, workload.theta()),
        _ => static_stream(&g, seed, workload.theta()),
    }
}

fn endpoints(zipf: &Zipf, rng: &mut Rng, avoid: Option<u32>) -> (u32, u32) {
    loop {
        let (s, t) = (zipf.sample(rng), zipf.sample(rng));
        if s != t && Some(s) != avoid && Some(t) != avoid {
            return (s, t);
        }
    }
}

/// 70 % failure-free queries, 30 % with 1..=4 faults (70 % vertex, 30 %
/// edge). Fault vertices never name an endpoint and fault edges are real
/// edges, so no op is rejected.
fn static_stream(g: &Graph, seed: u64, theta: f64) -> Vec<Op> {
    let n = g.num_vertices() as u32;
    let edges = edge_list(g);
    let zipf = Zipf::new(n, theta, &mut Rng::new(seed, 1));
    let mut ends = Rng::new(seed, 2);
    let mut faulty = Rng::new(seed, 3);
    (0..STATIC_STREAM_OPS)
        .map(|_| {
            let (s, t) = endpoints(&zipf, &mut ends, None);
            let mut faults = WireFaults::default();
            if faulty.chance(FAULTY_QUERY_SHARE) {
                let want = 1 + faulty.below(MAX_FAULTS) as usize;
                while faults.vertices.len() + faults.edges.len() < want {
                    if faulty.chance(EDGE_FAULT_SHARE) {
                        let e = edges[faulty.below(edges.len() as u32) as usize];
                        if !faults.edges.contains(&e) {
                            faults.edges.push(e);
                        }
                    } else {
                        let v = zipf.sample(&mut faulty);
                        if v != s && v != t && !faults.vertices.contains(&v) {
                            faults.vertices.push(v);
                        }
                    }
                }
            }
            Op::Query { s, t, faults }
        })
        .collect()
}

/// What an update does to a `DynamicOracle`, mirrored from its documented
/// policy (buffer deletions; fold and rebuild when the buffer *exceeds*
/// the threshold; restoring a baked fault forces a fold rebuild). The
/// generator uses it to place rebuilds, the runner to assert the oracle
/// performed exactly those, and the checker to know `F` at each query.
#[derive(Clone, Debug)]
pub struct ChurnModel {
    threshold: usize,
    buffer_edges: BTreeSet<(u32, u32)>,
    buffer_vertices: BTreeSet<u32>,
    baked_edges: BTreeSet<(u32, u32)>,
    baked_vertices: BTreeSet<u32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rebuild {
    None,
    Threshold,
    BakedRestore,
}

fn norm(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl ChurnModel {
    pub fn new(n: usize) -> Self {
        ChurnModel {
            threshold: default_threshold(n),
            buffer_edges: BTreeSet::new(),
            buffer_vertices: BTreeSet::new(),
            baked_edges: BTreeSet::new(),
            baked_vertices: BTreeSet::new(),
        }
    }

    pub fn buffered(&self) -> usize {
        self.buffer_edges.len() + self.buffer_vertices.len()
    }

    fn fold(&mut self) {
        self.baked_edges.append(&mut self.buffer_edges);
        self.baked_vertices.append(&mut self.buffer_vertices);
    }

    fn after_delete(&mut self) -> Rebuild {
        if self.buffered() > self.threshold {
            self.fold();
            Rebuild::Threshold
        } else {
            Rebuild::None
        }
    }

    /// Applies `op` and says whether the oracle rebuilds inside it.
    ///
    /// # Panics
    ///
    /// Panics on a restore of something not deleted: the generator never
    /// emits one (the oracle would reject it).
    pub fn apply(&mut self, op: &UpdateOp) -> Rebuild {
        match *op {
            UpdateOp::DeleteVertex(v) => {
                if self.baked_vertices.contains(&v) || !self.buffer_vertices.insert(v) {
                    return Rebuild::None;
                }
                self.after_delete()
            }
            UpdateOp::DeleteEdge(a, b) => {
                let e = norm(a, b);
                if self.baked_edges.contains(&e) || !self.buffer_edges.insert(e) {
                    return Rebuild::None;
                }
                self.after_delete()
            }
            UpdateOp::RestoreVertex(v) => {
                if self.buffer_vertices.remove(&v) {
                    Rebuild::None
                } else {
                    assert!(self.baked_vertices.remove(&v), "vertex {v} is not deleted");
                    self.fold();
                    Rebuild::BakedRestore
                }
            }
            UpdateOp::RestoreEdge(a, b) => {
                let e = norm(a, b);
                if self.buffer_edges.remove(&e) {
                    Rebuild::None
                } else {
                    assert!(self.baked_edges.remove(&e), "edge {e:?} is not deleted");
                    self.fold();
                    Rebuild::BakedRestore
                }
            }
        }
    }

    /// The current `F` (baked and buffered alike).
    pub fn fault_set(&self) -> FaultSet {
        let mut f = FaultSet::from_vertices(
            self.baked_vertices
                .iter()
                .chain(&self.buffer_vertices)
                .map(|&v| NodeId::new(v)),
        );
        for &(a, b) in self.baked_edges.iter().chain(&self.buffer_edges) {
            f.forbid_edge_unchecked(NodeId::new(a), NodeId::new(b));
        }
        f
    }
}

/// `DynamicConfig::threshold = None` resolves to `⌈√n⌉`.
pub fn default_threshold(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).max(1)
}

/// Steps in one churn epoch: every 4th step deletes an edge, and the
/// `threshold`-th deleting step deletes two, so the buffer goes
/// `threshold − 1 → threshold + 1` and crosses with no vertex closed.
pub fn churn_steps(n: usize) -> usize {
    4 * default_threshold(n)
}

/// One epoch per `EpochStart`. Step `k`: on every 4th step first delete a
/// seeded edge for good; on the two steps after the threshold rebuild
/// first restore one baked edge (each forces a fold rebuild); then close
/// a seeded vertex, query, reopen it. The vertex is closed while the
/// buffer holds at most `threshold − 1` edges, so it is never baked: its
/// cost is pure WAL append + buffered-fault decode.
fn churn_stream(g: &Graph, seed: u64, theta: f64) -> Vec<Op> {
    let n = g.num_vertices();
    let edges = edge_list(g);
    let threshold = default_threshold(n);
    let zipf = Zipf::new(n as u32, theta, &mut Rng::new(seed, 1));
    let mut ends = Rng::new(seed, 2);
    let mut pick = Rng::new(seed, 3);
    let mut ops = Vec::new();
    for _ in 0..CHURN_EPOCHS {
        ops.push(Op::EpochStart);
        let mut model = ChurnModel::new(n);
        let mut alive = edges.clone();
        let mut restores_due = 0;
        for k in 0..churn_steps(n) {
            if k % 4 == 0 {
                let crossing = k / 4 == threshold - 1;
                for _ in 0..if crossing { 2 } else { 1 } {
                    let (a, b) = alive.swap_remove(pick.below(alive.len() as u32) as usize);
                    let op = UpdateOp::DeleteEdge(a, b);
                    if model.apply(&op) == Rebuild::Threshold {
                        restores_due = 2;
                    }
                    ops.push(Op::Update(op));
                }
            } else if restores_due > 0 {
                restores_due -= 1;
                let baked: Vec<(u32, u32)> = model.baked_edges.iter().copied().collect();
                let (a, b) = baked[pick.below(baked.len() as u32) as usize];
                let op = UpdateOp::RestoreEdge(a, b);
                model.apply(&op);
                ops.push(Op::Update(op));
            }
            let v = pick.below(n as u32);
            model.apply(&UpdateOp::DeleteVertex(v));
            ops.push(Op::Update(UpdateOp::DeleteVertex(v)));
            for _ in 0..CHURN_QUERIES_PER_STEP {
                let (s, t) = endpoints(&zipf, &mut ends, Some(v));
                ops.push(Op::Query {
                    s,
                    t,
                    faults: WireFaults::default(),
                });
            }
            model.apply(&UpdateOp::RestoreVertex(v));
            ops.push(Op::Update(UpdateOp::RestoreVertex(v)));
        }
    }
    ops
}

/// Splits a churn stream into its epochs (the markers are dropped).
pub fn epochs(ops: &[Op]) -> Vec<&[Op]> {
    ops.split(|op| *op == Op::EpochStart)
        .filter(|epoch| !epoch.is_empty())
        .collect()
}

// ---- the op file ---------------------------------------------------------

const MAGIC: &[u8; 8] = b"FSDLOPS1";
const TAG_QUERY: u8 = 0;
const TAG_UPDATE: u8 = 1;
const TAG_EPOCH: u8 = 2;

/// Serializes a stream: magic, workload id, seed, op count, ops.
pub fn encode(workload: Workload, seed: u64, ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * ops.len() + 32);
    out.extend_from_slice(MAGIC);
    out.push(workload.id());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            Op::Query { s, t, faults } => {
                out.push(TAG_QUERY);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&t.to_le_bytes());
                out.push(faults.vertices.len() as u8);
                out.push(faults.edges.len() as u8);
                for v in &faults.vertices {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                for (a, b) in &faults.edges {
                    out.extend_from_slice(&a.to_le_bytes());
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
            Op::Update(update) => {
                out.push(TAG_UPDATE);
                let (kind, a, b) = match *update {
                    UpdateOp::DeleteVertex(v) => (0u8, v, 0),
                    UpdateOp::DeleteEdge(a, b) => (1, a, b),
                    UpdateOp::RestoreVertex(v) => (2, v, 0),
                    UpdateOp::RestoreEdge(a, b) => (3, a, b),
                };
                out.push(kind);
                out.extend_from_slice(&a.to_le_bytes());
                out.extend_from_slice(&b.to_le_bytes());
            }
            Op::EpochStart => out.push(TAG_EPOCH),
        }
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, len: usize) -> Result<&[u8], String> {
        let end = self.at.checked_add(len).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("op file truncated at byte {}", self.at))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Parses an op file, checking every vertex id against the workload's
/// graph so a file for another graph is refused, not replayed.
pub fn decode(bytes: &[u8]) -> Result<(Workload, u64, Vec<Op>), String> {
    let mut c = Cursor { bytes, at: 0 };
    if c.take(MAGIC.len())? != MAGIC {
        return Err("not an fsdl op file (bad magic)".into());
    }
    let id = c.u8()?;
    let workload = Workload::from_id(id).ok_or_else(|| format!("unknown workload id {id}"))?;
    let seed = c.u64()?;
    let count = c.u32()? as usize;
    let n = workload.graph().num_vertices() as u32;
    let vertex = |v: u32| {
        if v < n {
            Ok(v)
        } else {
            Err(format!(
                "vertex {v} out of range for {} (n = {n})",
                workload.name()
            ))
        }
    };
    // Each op takes at least one byte, which bounds the allocation.
    let mut ops = Vec::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        ops.push(match c.u8()? {
            TAG_QUERY => {
                let s = vertex(c.u32()?)?;
                let t = vertex(c.u32()?)?;
                let (nv, ne) = (c.u8()?, c.u8()?);
                let mut faults = WireFaults::default();
                for _ in 0..nv {
                    faults.vertices.push(vertex(c.u32()?)?);
                }
                for _ in 0..ne {
                    faults.edges.push((vertex(c.u32()?)?, vertex(c.u32()?)?));
                }
                Op::Query { s, t, faults }
            }
            TAG_UPDATE => {
                let kind = c.u8()?;
                let (a, b) = (vertex(c.u32()?)?, vertex(c.u32()?)?);
                Op::Update(match kind {
                    0 => UpdateOp::DeleteVertex(a),
                    1 => UpdateOp::DeleteEdge(a, b),
                    2 => UpdateOp::RestoreVertex(a),
                    3 => UpdateOp::RestoreEdge(a, b),
                    other => return Err(format!("unknown update kind {other}")),
                })
            }
            TAG_EPOCH => Op::EpochStart,
            other => return Err(format!("unknown op tag {other} at byte {}", c.at - 1)),
        });
    }
    if c.at != bytes.len() {
        return Err(format!(
            "{} trailing bytes after the last op",
            bytes.len() - c.at
        ));
    }
    // The runners rely on this: static streams are queries throughout,
    // and a dynamic server rejects per-query faults.
    let fits = |op: &Op| match (workload, op) {
        (Workload::DynamicChurn, Op::Query { faults, .. }) => faults.is_empty(),
        (Workload::DynamicChurn, _) => true,
        (_, op) => matches!(op, Op::Query { .. }),
    };
    if !ops.iter().all(fits) {
        return Err(format!("op file holds ops {} cannot run", workload.name()));
    }
    Ok((workload, seed, ops))
}

/// FNV-1a, 64 bit.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = encode(w, 11, &generate(w, 11));
            let b = encode(w, 11, &generate(w, 11));
            let c = encode(w, 12, &generate(w, 12));
            assert_eq!(
                a,
                b,
                "{}: same seed must give a byte-identical file",
                w.name()
            );
            assert_ne!(
                fingerprint(&a),
                fingerprint(&c),
                "{}: seeds must differ",
                w.name()
            );
        }
    }

    #[test]
    fn file_round_trips() {
        for w in Workload::ALL {
            let ops = generate(w, 5);
            let (w2, seed, back) = decode(&encode(w, 5, &ops)).expect("decode");
            assert_eq!((w2, seed), (w, 5));
            assert_eq!(back, ops);
        }
    }

    #[test]
    fn damaged_files_are_refused() {
        let bytes = encode(Workload::StoreCold, 1, &generate(Workload::StoreCold, 1));
        assert!(decode(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode(&extra).is_err(), "trailing byte");
        let mut wrong = bytes.clone();
        wrong[0] ^= 1;
        assert!(decode(&wrong).is_err(), "bad magic");
        // A churn stream relabelled as a static workload's.
        let mut churn = encode(
            Workload::DynamicChurn,
            1,
            &generate(Workload::DynamicChurn, 1),
        );
        churn[MAGIC.len()] = Workload::StoreCold.id();
        assert!(decode(&churn).is_err(), "updates in a static stream");
    }

    #[test]
    fn static_ops_are_never_rejected() {
        let g = Workload::ServeHot.graph();
        for op in generate(Workload::ServeHot, 9) {
            let Op::Query { s, t, faults } = op else {
                panic!("static streams hold queries only");
            };
            assert_ne!(s, t);
            assert!(faults.vertices.len() + faults.edges.len() <= MAX_FAULTS as usize);
            assert!(!faults.vertices.contains(&s) && !faults.vertices.contains(&t));
            for (a, b) in faults.edges {
                assert!(g.has_edge(NodeId::new(a), NodeId::new(b)));
            }
        }
    }

    /// Six epochs of the 12×12 grid (threshold 12): exactly 78 edge
    /// deletions, 6 threshold rebuilds and 12 baked-restore rebuilds, and
    /// closing or reopening a vertex never rebuilds.
    #[test]
    fn churn_stream_yields_exact_rebuild_counts() {
        let w = Workload::DynamicChurn;
        let n = w.graph().num_vertices();
        assert_eq!((default_threshold(n), churn_steps(n)), (12, 48));
        let ops = generate(w, 3);
        let all = epochs(&ops);
        assert_eq!(all.len(), CHURN_EPOCHS);
        let (mut deletions, mut threshold, mut restores) = (0, 0, 0);
        for epoch in &all[..6] {
            let mut model = ChurnModel::new(n);
            let mut queries = 0;
            for op in *epoch {
                match op {
                    Op::Query { .. } => queries += 1,
                    Op::Update(u) => {
                        let rebuild = model.apply(u);
                        if matches!(u, UpdateOp::DeleteEdge(..)) {
                            deletions += 1;
                        }
                        match rebuild {
                            Rebuild::Threshold => {
                                assert!(matches!(u, UpdateOp::DeleteEdge(..)));
                                threshold += 1;
                            }
                            Rebuild::BakedRestore => {
                                assert!(matches!(u, UpdateOp::RestoreEdge(..)));
                                restores += 1;
                            }
                            Rebuild::None => {}
                        }
                    }
                    Op::EpochStart => unreachable!("markers are dropped"),
                }
            }
            assert_eq!(queries, 48 * CHURN_QUERIES_PER_STEP);
            assert_eq!(model.buffered(), 0, "every closed vertex is reopened");
        }
        assert_eq!((deletions, threshold, restores), (78, 6, 12));
    }
}
