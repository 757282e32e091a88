//! Vertex partitioning for the sharded label plane.
//!
//! The paper's labels are fully self-contained — answering `(s, t, F)`
//! needs only the labels of `s`, `t`, and the elements of `F`, never
//! cross-label state — so splitting the label table across `S` shard
//! servers is *trivially sound*: any assignment of vertices to shards
//! serves bit-identical answers, because the router re-assembles exactly
//! the label multiset a single-process oracle would read. A label is
//! derived from its points record and the generation's level edge sets
//! ([`crate::EdgeSets`]), so each shard stores every level's edge set
//! (a few hundred kilobytes) and the points records of its own vertices. Partitioning is
//! therefore purely a locality/balance decision, and the net hierarchy
//! already encodes locality: vertices whose nearest level-`i` net point
//! coincides are within `2^{i+1}` of each other (Lemma 2.2), so grouping
//! by net cell keeps each shard's working set geographically coherent and
//! lets one `point-fetch` frame cover both endpoints of a short query.
//!
//! A [`PartitionPlan`] assigns every vertex to exactly one shard:
//!
//! * [`PartitionPlan::by_net_cell`] — cells are the nearest-net-point
//!   regions at the coarsest hierarchy level that still has at least `S`
//!   net points; cells are bin-packed onto shards largest-first. Falls
//!   back to contiguous ranges when the hierarchy cannot support `S`
//!   cells (tiny graphs).
//! * [`PartitionPlan::contiguous`] — `n/S`-sized index ranges; the
//!   data-independent fallback.
//!
//! [`write_shard_stores`] persists one store *per shard* through the
//! existing manifest machinery (segment + atomically swapped `MANIFEST`),
//! plus a checksummed sidecar per generation ([`shard_meta_file_name`])
//! naming the shard's global vertex ids, the global `n`, and the shard's
//! slice of the plan. A shard segment's records are a subset of the
//! graph's, so its header `n` is the *shard size*; the sidecar carries the
//! global vertex count, and [`ShardStore::points`] serves a points record
//! by *global* id — the router derives the label against the edge sets it
//! fetched once ([`ShardStore::edge_sets_bytes`]).
//!
//! Everything here is untrusted-input safe: a corrupt sidecar, plan file,
//! or segment surfaces as a typed [`PartitionError`], never a panic.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fsdl_graph::NodeId;
use fsdl_nets::NetHierarchy;

use crate::codec::CodecError;
use crate::edge_sets::EdgeSets;
use crate::label::Label;
use crate::oracle::ForbiddenSetOracle;
use crate::params::SchemeParams;
use crate::store::{self, Manifest, OpenMode, Segment, StoreError};

/// File name of the sidecar committed with store generation `generation`
/// (next to that generation's segment; pruned with it).
pub fn shard_meta_file_name(generation: u64) -> String {
    format!("shard-{generation}.meta")
}

/// Magic prefixes for the two on-disk artifacts.
const SHARD_MAGIC: [u8; 8] = *b"FSDLSHR1";
const PLAN_MAGIC: [u8; 8] = *b"FSDLPLN1";

/// Typed failures of the partition plane.
#[derive(Debug)]
pub enum PartitionError {
    /// An underlying store operation failed (segment, manifest, I/O).
    Store(StoreError),
    /// The shard sidecar is missing, torn, or inconsistent with its
    /// segment.
    Meta {
        /// The sidecar path.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// A plan is internally inconsistent or does not match its inputs
    /// (wrong vertex count, out-of-range shard ids, corrupt plan file).
    Plan {
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Store(e) => write!(f, "shard store: {e}"),
            PartitionError::Meta { path, message } => {
                write!(f, "shard sidecar {}: {message}", path.display())
            }
            PartitionError::Plan { message } => write!(f, "partition plan: {message}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<StoreError> for PartitionError {
    fn from(e: StoreError) -> Self {
        PartitionError::Store(e)
    }
}

/// How a plan's assignment was derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Vertices grouped by nearest net point at `level`, cells bin-packed
    /// onto shards.
    NetCell {
        /// The hierarchy level whose net points define the cells.
        level: u32,
    },
    /// Contiguous vertex-index ranges.
    Contiguous,
}

impl PartitionStrategy {
    fn tag(self) -> (u8, u32) {
        match self {
            PartitionStrategy::Contiguous => (0, 0),
            PartitionStrategy::NetCell { level } => (1, level),
        }
    }

    fn from_tag(tag: u8, level: u32) -> Option<PartitionStrategy> {
        match tag {
            0 => Some(PartitionStrategy::Contiguous),
            1 => Some(PartitionStrategy::NetCell { level }),
            _ => None,
        }
    }
}

/// An assignment of every vertex to exactly one of `S` shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlan {
    num_shards: u32,
    strategy: PartitionStrategy,
    /// `assignment[v] < num_shards` for every vertex index `v`.
    assignment: Vec<u32>,
}

impl PartitionPlan {
    /// Partitions by net-hierarchy cell: vertices cluster to their
    /// nearest net point at the coarsest level with at least `shards`
    /// net points, and the resulting cells are assigned to shards
    /// largest-first onto the least-loaded shard (deterministic
    /// tie-breaks). Falls back to [`PartitionPlan::contiguous`] when no
    /// level yields at least `shards` nonempty cells.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` (a plan with no shards is meaningless).
    pub fn by_net_cell(nets: &NetHierarchy, shards: u32) -> PartitionPlan {
        assert!(shards >= 1, "a partition needs at least one shard");
        let n = nets.num_vertices();
        if shards == 1 {
            return PartitionPlan {
                num_shards: 1,
                strategy: PartitionStrategy::NetCell { level: 0 },
                assignment: vec![0; n],
            };
        }
        // Coarsest level that still has >= `shards` net points: fewer,
        // larger cells mean fewer cross-shard fetches for local queries.
        let sizes = nets.level_sizes();
        let level = (0..=nets.top_level())
            .rev()
            .find(|&i| sizes.get(i as usize).is_some_and(|&s| s >= shards as usize));
        let Some(level) = level else {
            return PartitionPlan::contiguous(n, shards);
        };
        // Cell of v = its nearest net point at `level`. `nearest` is total
        // on connected components containing net points; a vertex with no
        // reachable net point becomes its own singleton cell.
        let mut cell_of: Vec<u32> = Vec::with_capacity(n);
        for v in 0..n {
            let v = NodeId::from_index(v);
            let cell = nets.nearest(v, level).map_or(v, |(p, _)| p);
            cell_of.push(cell.raw());
        }
        // Group cells, then bin-pack largest-first onto the least-loaded
        // shard. Ties break toward the smaller cell id / shard id, so the
        // plan is a pure function of the hierarchy.
        let mut cells: Vec<(u32, usize)> = {
            let mut sorted = cell_of.clone();
            sorted.sort_unstable();
            let mut out = Vec::new();
            let mut k = 0;
            while k < sorted.len() {
                let id = sorted[k];
                let mut count = 0;
                while k < sorted.len() && sorted[k] == id {
                    count += 1;
                    k += 1;
                }
                out.push((id, count));
            }
            out
        };
        if cells.len() < shards as usize {
            return PartitionPlan::contiguous(n, shards);
        }
        cells.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut load = vec![0usize; shards as usize];
        let mut shard_of_cell: Vec<(u32, u32)> = Vec::with_capacity(cells.len());
        for (cell, size) in cells {
            let shard = (0..shards as usize)
                .min_by_key(|&s| (load[s], s))
                .expect("shards >= 1");
            load[shard] += size;
            shard_of_cell.push((cell, shard as u32));
        }
        shard_of_cell.sort_unstable_by_key(|&(cell, _)| cell);
        let assignment = cell_of
            .iter()
            .map(|cell| {
                let at = shard_of_cell
                    .binary_search_by_key(cell, |&(c, _)| c)
                    .expect("every cell was packed");
                shard_of_cell[at].1
            })
            .collect();
        PartitionPlan {
            num_shards: shards,
            strategy: PartitionStrategy::NetCell { level },
            assignment,
        }
    }

    /// Contiguous index ranges: shard `i` owns `[i·⌈n/S⌉, (i+1)·⌈n/S⌉)`
    /// clamped to `n` — the data-independent fallback.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn contiguous(n: usize, shards: u32) -> PartitionPlan {
        assert!(shards >= 1, "a partition needs at least one shard");
        let chunk = n.div_ceil(shards as usize).max(1);
        let assignment = (0..n)
            .map(|v| ((v / chunk) as u32).min(shards - 1))
            .collect();
        PartitionPlan {
            num_shards: shards,
            strategy: PartitionStrategy::Contiguous,
            assignment,
        }
    }

    /// [`PartitionPlan::by_net_cell`] over the oracle's own hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn for_oracle(oracle: &ForbiddenSetOracle, shards: u32) -> PartitionPlan {
        PartitionPlan::by_net_cell(oracle.labeling().nets(), shards)
    }

    /// Number of shards this plan spans.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Number of vertices this plan assigns.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// How the assignment was derived.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The shard owning vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the planned graph.
    pub fn shard_of(&self, v: NodeId) -> u32 {
        self.assignment[v.index()]
    }

    /// The vertices assigned to `shard`, ascending.
    pub fn vertices_of(&self, shard: u32) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(v, _)| NodeId::from_index(v))
            .collect()
    }

    /// Vertices per shard (indexed by shard id).
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_shards as usize];
        for &s in &self.assignment {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Serializes the plan to one checksummed file (temp file + `fsync` +
    /// atomic rename), so a router can load the exact assignment the
    /// shard stores were written under.
    ///
    /// # Errors
    ///
    /// Relays I/O failures as [`PartitionError::Store`].
    pub fn save(&self, path: &Path) -> Result<(), PartitionError> {
        let (tag, level) = self.strategy.tag();
        let mut out = Vec::with_capacity(29 + 4 * self.assignment.len());
        out.extend_from_slice(&PLAN_MAGIC);
        out.extend_from_slice(&self.num_shards.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&level.to_le_bytes());
        out.extend_from_slice(&(self.assignment.len() as u64).to_le_bytes());
        for &s in &self.assignment {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&store::fnv32(&out).to_le_bytes());
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let name =
            path.file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| PartitionError::Plan {
                    message: format!("{} is not a writable file path", path.display()),
                })?;
        store::write_atomic(dir.unwrap_or(Path::new(".")), name, &out)?;
        Ok(())
    }

    /// Loads a plan written by [`PartitionPlan::save`], re-validating
    /// magic, checksum, and every assignment entry.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Plan`] on any malformation; never panics.
    pub fn load(path: &Path) -> Result<PartitionPlan, PartitionError> {
        let plan_err = |message: String| PartitionError::Plan { message };
        let bytes =
            std::fs::read(path).map_err(|e| plan_err(format!("{}: {e}", path.display())))?;
        if bytes.len() < 29 {
            return Err(plan_err(format!("plan file is {} bytes", bytes.len())));
        }
        let (body, crc) = bytes.split_at(bytes.len() - 4);
        let recorded = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
        if recorded != store::fnv32(body) {
            return Err(plan_err("plan checksum mismatch".into()));
        }
        if body[..8] != PLAN_MAGIC {
            return Err(plan_err("bad plan magic".into()));
        }
        let num_shards = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
        let tag = body[12];
        let level = u32::from_le_bytes(body[13..17].try_into().expect("4 bytes"));
        let n = u64::from_le_bytes(body[17..25].try_into().expect("8 bytes"));
        let strategy = PartitionStrategy::from_tag(tag, level)
            .ok_or_else(|| plan_err(format!("unknown strategy tag {tag}")))?;
        if num_shards == 0 {
            return Err(plan_err("plan names zero shards".into()));
        }
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= u32::MAX as usize + 1)
            .ok_or_else(|| plan_err(format!("implausible vertex count {n}")))?;
        if body.len() != 25 + 4 * n {
            return Err(plan_err(format!(
                "plan body is {} bytes but the header implies {}",
                body.len(),
                25 + 4 * n
            )));
        }
        let mut assignment = Vec::with_capacity(n);
        for k in 0..n {
            let at = 25 + 4 * k;
            let s = u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
            if s >= num_shards {
                return Err(plan_err(format!(
                    "vertex {k} assigned to shard {s} of {num_shards}"
                )));
            }
            assignment.push(s);
        }
        Ok(PartitionPlan {
            num_shards,
            strategy,
            assignment,
        })
    }
}

/// Mixes the shard coordinates into the graph fingerprint, so a shard
/// segment can never be opened as the full store, as another shard, or
/// under a different shard count (FNV-1a over the three values).
fn shard_fingerprint(graph_fp: u64, shard: u32, num_shards: u32) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&graph_fp.to_le_bytes());
    bytes[8..12].copy_from_slice(&shard.to_le_bytes());
    bytes[12..].copy_from_slice(&num_shards.to_le_bytes());
    store::fnv1a64(&bytes)
}

/// What [`write_shard_stores`] persisted for one shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// Labels persisted (the shard's vertex count).
    pub labels: usize,
    /// The store generation committed.
    pub generation: u64,
    /// Segment size in bytes.
    pub segment_bytes: u64,
}

/// Persists one store per shard under `dir/shard-{i}`, each through the
/// standard write protocol: segment durably first, that generation's
/// checksummed sidecar second, `MANIFEST` swap as the commit point,
/// pruning last. The plan itself is saved as `dir/PLAN`. Re-running over
/// an existing directory commits fresh generations (the previous ones
/// remain openable until the swap: the manifest's generation names both
/// the segment and the sidecar a reader opens).
///
/// # Errors
///
/// Relays store failures typed; a failed shard leaves earlier shards
/// committed and the failed one on its previous generation.
///
/// # Panics
///
/// Panics if the plan's vertex count differs from the oracle's (caller
/// bug, as with mismatched graph/store pairs elsewhere).
pub fn write_shard_stores(
    oracle: &ForbiddenSetOracle,
    dir: &Path,
    plan: &PartitionPlan,
) -> Result<Vec<ShardReport>, PartitionError> {
    let g = oracle.labeling().graph();
    let n = g.num_vertices();
    assert_eq!(
        plan.num_vertices(),
        n,
        "plan covers {} vertices but the oracle serves {n}",
        plan.num_vertices()
    );
    let graph_fp = store::graph_fingerprint(g);
    let edge_sets = EdgeSets::from_labeling(oracle.labeling()).encode();
    let records = oracle.point_records();
    std::fs::create_dir_all(dir).map_err(|e| StoreError::Io {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    plan.save(&dir.join(PLAN_FILE_NAME))?;
    let mut reports = Vec::with_capacity(plan.num_shards() as usize);
    for shard in 0..plan.num_shards() {
        let sub = dir.join(shard_dir_name(shard));
        let staged = stage_shard(oracle, &sub, plan, shard, graph_fp, &edge_sets, &records)?;
        store::write_manifest(&sub, &Manifest::static_store(staged.generation))?;
        store::prune_generations(&sub, staged.generation);
        reports.push(staged);
    }
    Ok(reports)
}

/// File name of the saved plan inside a partition directory.
pub const PLAN_FILE_NAME: &str = "PLAN";

/// Directory name of one shard's store inside a partition directory.
pub fn shard_dir_name(shard: u32) -> String {
    format!("shard-{shard}")
}

/// Writes shard `shard`'s next generation into `sub` — segment, then its
/// sidecar — without committing it: the manifest still names the
/// previous generation.
fn stage_shard(
    oracle: &ForbiddenSetOracle,
    sub: &Path,
    plan: &PartitionPlan,
    shard: u32,
    graph_fp: u64,
    edge_sets: &[u8],
    records: &[Vec<u8>],
) -> Result<ShardReport, PartitionError> {
    std::fs::create_dir_all(sub).map_err(|e| StoreError::Io {
        path: sub.to_path_buf(),
        message: e.to_string(),
    })?;
    let vertices = plan.vertices_of(shard);
    let shard_records: Vec<&[u8]> = vertices.iter().map(|v| &records[v.index()][..]).collect();
    let generation = store::next_generation(sub);
    let segment_bytes = store::write_segment(
        sub,
        generation,
        oracle.labeling().params(),
        shard_fingerprint(graph_fp, shard, plan.num_shards()),
        edge_sets,
        &shard_records,
    )?;
    let (tag, level) = plan.strategy().tag();
    let mut out = Vec::with_capacity(49 + 4 * vertices.len());
    out.extend_from_slice(&SHARD_MAGIC);
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&plan.num_shards().to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&level.to_le_bytes());
    out.extend_from_slice(&graph_fp.to_le_bytes());
    out.extend_from_slice(&(plan.num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&(vertices.len() as u64).to_le_bytes());
    for v in &vertices {
        out.extend_from_slice(&v.raw().to_le_bytes());
    }
    out.extend_from_slice(&store::fnv32(&out).to_le_bytes());
    store::write_atomic(sub, &shard_meta_file_name(generation), &out)?;
    Ok(ShardReport {
        shard,
        labels: vertices.len(),
        generation,
        segment_bytes,
    })
}

/// One shard's persisted slice of the label plane, opened for serving:
/// the current segment (via the manifest) plus the sidecar's global-id
/// directory. Serves the generation's edge sets and **points records by
/// global vertex id**; a router derives labels from the two, and
/// [`ShardStore::label`] derives one here (what `label-fetch` encodes).
pub struct ShardStore {
    shard: u32,
    num_shards: u32,
    strategy: PartitionStrategy,
    /// Fingerprint of the *unsharded* graph this shard was cut from.
    graph_fingerprint: u64,
    /// Global vertex count of the partitioned graph.
    total_vertices: u64,
    /// Sorted global ids owned by this shard; position = segment index.
    vertices: Vec<u32>,
    segment: Arc<Segment>,
    generation: u64,
}

impl ShardStore {
    /// Opens `dir` eagerly (whole-file checksum verified up front).
    ///
    /// # Errors
    ///
    /// Typed [`PartitionError`] on any corruption or inconsistency.
    pub fn open(dir: &Path) -> Result<ShardStore, PartitionError> {
        ShardStore::open_with(dir, OpenMode::Eager)
    }

    /// Opens `dir` in `mode` ([`OpenMode::Lazy`] defers each points
    /// record's validation to its first fetch — a corrupt untouched record
    /// is then surfaced by the *derivation* at the router or here, still a
    /// typed failure; the level blocks are verified at open either way).
    ///
    /// # Errors
    ///
    /// Typed [`PartitionError`] on any corruption or inconsistency
    /// between manifest, segment, and sidecar.
    pub fn open_with(dir: &Path, mode: OpenMode) -> Result<ShardStore, PartitionError> {
        let manifest = store::read_manifest(dir)?;
        let segment = Segment::open(&dir.join(&manifest.segment), mode)?;
        let meta_path = dir.join(shard_meta_file_name(manifest.generation));
        let meta_err = |message: String| PartitionError::Meta {
            path: meta_path.clone(),
            message,
        };
        let bytes = std::fs::read(&meta_path).map_err(|e| meta_err(format!("unreadable: {e}")))?;
        if bytes.len() < 49 {
            return Err(meta_err(format!("sidecar is {} bytes", bytes.len())));
        }
        let (body, crc) = bytes.split_at(bytes.len() - 4);
        let recorded = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
        if recorded != store::fnv32(body) {
            return Err(meta_err("sidecar checksum mismatch".into()));
        }
        if body[..8] != SHARD_MAGIC {
            return Err(meta_err("bad sidecar magic".into()));
        }
        let shard = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
        let num_shards = u32::from_le_bytes(body[12..16].try_into().expect("4 bytes"));
        let tag = body[16];
        let level = u32::from_le_bytes(body[17..21].try_into().expect("4 bytes"));
        let graph_fp = u64::from_le_bytes(body[21..29].try_into().expect("8 bytes"));
        let total = u64::from_le_bytes(body[29..37].try_into().expect("8 bytes"));
        let count = u64::from_le_bytes(body[37..45].try_into().expect("8 bytes"));
        let strategy = PartitionStrategy::from_tag(tag, level)
            .ok_or_else(|| meta_err(format!("unknown strategy tag {tag}")))?;
        if num_shards == 0 || shard >= num_shards {
            return Err(meta_err(format!("shard {shard} of {num_shards}")));
        }
        if total == 0 || total > u64::from(u32::MAX) + 1 {
            return Err(meta_err(format!("implausible vertex count {total}")));
        }
        let count = usize::try_from(count)
            .ok()
            .filter(|&c| c <= total as usize)
            .ok_or_else(|| meta_err(format!("implausible label count {count}")))?;
        if body.len() != 45 + 4 * count {
            return Err(meta_err(format!(
                "sidecar body is {} bytes but the header implies {}",
                body.len(),
                45 + 4 * count
            )));
        }
        let mut vertices = Vec::with_capacity(count);
        let mut prev: Option<u32> = None;
        for k in 0..count {
            let at = 45 + 4 * k;
            let v = u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
            if u64::from(v) >= total {
                return Err(meta_err(format!("vertex {v} out of range for n={total}")));
            }
            if prev.is_some_and(|p| p >= v) {
                return Err(meta_err("vertex ids are not strictly ascending".into()));
            }
            prev = Some(v);
            vertices.push(v);
        }
        if segment.num_labels() != count {
            return Err(meta_err(format!(
                "segment holds {} labels but the sidecar names {count}",
                segment.num_labels()
            )));
        }
        let params = SchemeParams::with_c(segment.epsilon(), segment.c(), total as usize);
        segment
            .edge_sets()
            .check_schedule(&params)
            .map_err(|message| {
                PartitionError::Store(StoreError::SegmentCorrupt {
                    path: segment.path().to_path_buf(),
                    message,
                })
            })?;
        // The segment's fingerprint is the graph fingerprint *mixed with the
        // shard coordinates*, so a segment can never pass as another shard,
        // another shard count, or the unsharded store.
        let expected = shard_fingerprint(graph_fp, shard, num_shards);
        if segment.graph_fingerprint() != expected {
            return Err(meta_err(format!(
                "segment fingerprint {:#018x} does not match shard {shard}/{num_shards} \
                 of graph {graph_fp:#018x}",
                segment.graph_fingerprint()
            )));
        }
        Ok(ShardStore {
            shard,
            num_shards,
            strategy,
            graph_fingerprint: graph_fp,
            total_vertices: total,
            vertices,
            segment: Arc::new(segment),
            generation: manifest.generation,
        })
    }

    /// The stored points record of *global* vertex `v` (unverified: the
    /// derivation checks it), or `None` when this shard does not own `v`.
    pub fn points(&self, v: u32) -> Option<&[u8]> {
        let at = self.vertices.binary_search(&v).ok()?;
        self.segment.points(at)
    }

    /// The label of *global* vertex `v`, derived from its points record,
    /// or `None` when this shard does not own `v`.
    ///
    /// # Errors
    ///
    /// The inner [`CodecError`] when the record is corrupt or is not
    /// `v`'s.
    pub fn label(&self, v: u32) -> Option<Result<Label, CodecError>> {
        let record = self.points(v)?;
        Some(self.segment.edge_sets().label(NodeId::new(v), record))
    }

    /// The edge sets' bytes as stored: the body of an `edge-sets` reply.
    pub fn edge_sets_bytes(&self) -> &[u8] {
        self.segment.edge_sets_bytes()
    }

    /// Whether this shard owns global vertex `v`.
    pub fn owns(&self, v: u32) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// This shard's index.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Total shards in the partition this store belongs to.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// The partitioned graph's global vertex count (the decode id space).
    pub fn total_vertices(&self) -> u64 {
        self.total_vertices
    }

    /// Fingerprint of the unsharded graph this shard was cut from —
    /// compare against [`graph_fingerprint`](crate::store::graph_fingerprint)
    /// of a candidate graph before trusting the pairing.
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fingerprint
    }

    /// Labels this shard owns.
    pub fn num_labels(&self) -> usize {
        self.vertices.len()
    }

    /// The committed store generation serving these bytes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How the partition that produced this shard was derived.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The decode parameters as wire fields:
    /// `(epsilon_bits, c, global_n)` — exactly what a label-fetch reply
    /// header carries so the router can reconstruct [`SchemeParams`]
    /// without filesystem access.
    ///
    /// [`SchemeParams`]: crate::SchemeParams
    pub fn wire_params(&self) -> (u64, u32, u64) {
        (
            self.segment.epsilon().to_bits(),
            self.segment.c(),
            self.total_vertices,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::generators;

    fn hierarchy(n: usize) -> NetHierarchy {
        NetHierarchy::build(&generators::grid2d(n / 8, 8))
    }

    #[test]
    fn every_vertex_assigned_exactly_once_net_cell() {
        let nets = hierarchy(128);
        for shards in [1u32, 2, 3, 4, 7] {
            let plan = PartitionPlan::by_net_cell(&nets, shards);
            assert_eq!(plan.num_vertices(), 128);
            assert_eq!(plan.num_shards(), shards);
            // Exactly-once is structural (one assignment entry per
            // vertex); what needs checking is range and the size ledger.
            let sizes = plan.shard_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), 128);
            for v in 0..128 {
                assert!(plan.shard_of(NodeId::from_index(v)) < shards);
            }
            let mut from_lists = [false; 128];
            for s in 0..shards {
                for v in plan.vertices_of(s) {
                    assert!(!from_lists[v.index()], "{v} assigned twice");
                    from_lists[v.index()] = true;
                }
            }
            assert!(from_lists.iter().all(|&b| b), "some vertex unassigned");
        }
    }

    #[test]
    fn contiguous_covers_everything_even_when_shards_exceed_n() {
        let plan = PartitionPlan::contiguous(3, 8);
        assert_eq!(plan.shard_sizes().iter().sum::<usize>(), 3);
        let plan = PartitionPlan::contiguous(10, 3);
        assert_eq!(plan.shard_sizes(), vec![4, 4, 2]);
    }

    #[test]
    fn tiny_graph_falls_back_to_contiguous() {
        let nets = NetHierarchy::build(&generators::path(3));
        let plan = PartitionPlan::by_net_cell(&nets, 3);
        // 3 vertices cannot support 3 net cells at any coarse level; the
        // fallback must still assign every vertex.
        assert_eq!(plan.num_vertices(), 3);
        assert_eq!(plan.shard_sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn net_cell_plan_is_reasonably_balanced() {
        let nets = hierarchy(256);
        let plan = PartitionPlan::by_net_cell(&nets, 4);
        if let PartitionStrategy::NetCell { .. } = plan.strategy() {
            let sizes = plan.shard_sizes();
            let max = *sizes.iter().max().expect("4 shards");
            let min = *sizes.iter().min().expect("4 shards");
            // Largest-first bin packing keeps the spread within one
            // largest cell; for a grid at a level with >= 4 points the
            // skew stays far from degenerate (no empty shard).
            assert!(min > 0, "bin packing left a shard empty: {sizes:?}");
            assert!(max < 256, "one shard swallowed the graph: {sizes:?}");
        } else {
            panic!("grid with 256 vertices should partition by net cell");
        }
    }

    #[test]
    fn shard_stores_reopen_bit_identically() {
        let g = generators::grid2d(8, 8);
        let oracle = ForbiddenSetOracle::new(&g, 0.5);
        let plan = PartitionPlan::for_oracle(&oracle, 3);
        let dir = std::env::temp_dir().join(format!("fsdl-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reports = write_shard_stores(&oracle, &dir, &plan).expect("write shards");
        assert_eq!(reports.len(), 3);
        assert_eq!(reports.iter().map(|r| r.labels).sum::<usize>(), 64);
        let loaded = PartitionPlan::load(&dir.join(PLAN_FILE_NAME)).expect("plan");
        assert_eq!(loaded, plan);
        let mut seen = [false; 64];
        for shard in 0..3 {
            let store = ShardStore::open(&dir.join(shard_dir_name(shard))).expect("open shard");
            assert_eq!(store.shard(), shard);
            assert_eq!(store.num_shards(), 3);
            assert_eq!(store.total_vertices(), 64);
            let (eps_bits, c, n) = store.wire_params();
            assert_eq!(f64::from_bits(eps_bits), 0.5);
            assert!((2..=64).contains(&c));
            assert_eq!(n, 64);
            for v in 0..64u32 {
                let Some(label) = store.label(v) else {
                    assert!(!store.owns(v));
                    continue;
                };
                assert!(!seen[v as usize], "v{v} served by two shards");
                seen[v as usize] = true;
                assert_eq!(plan.shard_of(NodeId::new(v)), shard);
                // Bit-identical to the oracle's canonical wire form.
                let w = crate::codec::encode(&label.expect("derive"), 64);
                let (want, want_bits) = oracle.encoded_label(NodeId::new(v)).expect("encode");
                assert_eq!(w.len_bits(), want_bits, "v{v} bit length");
                assert_eq!(w.as_bytes(), &want[..], "v{v} payload");
            }
        }
        assert!(seen.iter().all(|&b| b), "some vertex not served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_sidecar_corruption_is_typed() {
        let g = generators::grid2d(4, 4);
        let oracle = ForbiddenSetOracle::new(&g, 0.5);
        let plan = PartitionPlan::contiguous(16, 2);
        let dir = std::env::temp_dir().join(format!("fsdl-shardsc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_shard_stores(&oracle, &dir, &plan).expect("write shards");
        let sub = dir.join(shard_dir_name(0));
        let meta = sub.join(shard_meta_file_name(1));
        let bytes = std::fs::read(&meta).expect("read sidecar");
        for at in (0..bytes.len()).step_by(5) {
            let mut mutated = bytes.clone();
            mutated[at] ^= 0x20;
            std::fs::write(&meta, &mutated).expect("write");
            match ShardStore::open(&sub) {
                Ok(s) => assert_eq!(s.num_labels(), 8),
                Err(PartitionError::Meta { .. }) => {}
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
        // A shard segment opened as the wrong shard id must be refused by
        // the fingerprint mix even if the sidecar is internally valid.
        std::fs::write(&meta, &bytes).expect("restore");
        let other_meta = std::fs::read(dir.join(shard_dir_name(1)).join(shard_meta_file_name(1)))
            .expect("read shard 1 sidecar");
        std::fs::write(&meta, &other_meta).expect("cross-plant sidecar");
        assert!(
            ShardStore::open(&sub).is_err(),
            "shard identity not enforced"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Re-partitioning into an existing directory stages the new plan's
    /// segment and sidecar beside the old generation's; a writer that dies
    /// before the manifest swap must leave the old shard openable.
    #[test]
    fn interrupted_repartition_keeps_the_previous_generation_openable() {
        let g = generators::grid2d(4, 4);
        let oracle = ForbiddenSetOracle::new(&g, 0.5);
        let dir = std::env::temp_dir().join(format!("fsdl-shardrp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_shard_stores(&oracle, &dir, &PartitionPlan::contiguous(16, 2)).expect("plan A");
        let sub = dir.join(shard_dir_name(0));

        let plan_b = PartitionPlan::contiguous(16, 4);
        let graph_fp = store::graph_fingerprint(&g);
        let edge_sets = EdgeSets::from_labeling(oracle.labeling()).encode();
        let records = oracle.point_records();
        let staged =
            stage_shard(&oracle, &sub, &plan_b, 0, graph_fp, &edge_sets, &records).expect("stage");
        assert_eq!(staged.generation, 2);
        let old = ShardStore::open(&sub).expect("plan A's shard still opens");
        assert_eq!(
            (old.generation(), old.num_shards(), old.num_labels()),
            (1, 2, 8)
        );

        // A rerun rewrites the staged generation, commits it, and prunes
        // plan A's pair.
        write_shard_stores(&oracle, &dir, &plan_b).expect("plan B");
        let new = ShardStore::open(&sub).expect("plan B's shard opens");
        assert_eq!(
            (new.generation(), new.num_shards(), new.num_labels()),
            (2, 4, 4)
        );
        assert!(!sub.join(shard_meta_file_name(1)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_save_load_roundtrip_and_corruption() {
        let nets = hierarchy(64);
        let plan = PartitionPlan::by_net_cell(&nets, 4);
        let dir = std::env::temp_dir().join(format!("fsdl-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("PLAN");
        plan.save(&path).expect("save");
        let back = PartitionPlan::load(&path).expect("load");
        assert_eq!(back, plan);
        // Every single-byte corruption is a typed rejection or decodes to
        // a valid plan (CRC collisions are possible in principle; a panic
        // is not).
        let bytes = std::fs::read(&path).expect("read");
        for at in (0..bytes.len()).step_by(7) {
            let mut mutated = bytes.clone();
            mutated[at] ^= 0x40;
            std::fs::write(&path, &mutated).expect("write");
            match PartitionPlan::load(&path) {
                Ok(p) => {
                    assert!(p.num_shards() >= 1);
                }
                Err(PartitionError::Plan { .. }) => {}
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
