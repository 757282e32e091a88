//! On-disk, versioned label store with atomic snapshots.
//!
//! The labeling scheme's selling point is that labels are built once and
//! then served cheaply. A label is its point lists plus their rows in its
//! levels' edge sets, and the edge sets are shared by every label
//! of a generation ([`crate::edge_sets`]), so a store keeps each level's
//! edge set once and a points record per vertex, and derives labels from
//! the two. This module persists an oracle's labeling as an immutable,
//! checksummed **segment** file plus a tiny **manifest** naming the
//! current generation, in the LSM tradition:
//!
//! * a segment is written to a temp file, `fsync`ed, and atomically
//!   renamed into place; only then is the manifest (same protocol)
//!   swapped to point at it — a crash between the two steps leaves the
//!   previous generation fully openable, and a crash mid-write leaves
//!   only an ignored temp file;
//! * every segment carries a magic, a format version, the
//!   [`SchemeParams`] fingerprint (`ε`, `c`, `n`), a graph fingerprint,
//!   a per-vertex offset index, one checksummed block per level holding
//!   its edge set, a checksummed points record per vertex, and a
//!   whole-file checksum;
//! * old generations are pruned only *after* the manifest swap.
//!
//! Every byte read from disk is untrusted: parsing is fully fallible and
//! surfaces a typed [`StoreError`] — never a panic, and (because every
//! derived label is re-validated structurally) never an unsound answer.
//!
//! ```text
//! segment := magic:8 version:u32 epsilon_bits:u64 c:u32 n:u64
//!            graph_fingerprint:u64 payload_len:u64        (48 bytes)
//!            (offset:u64 len:u64)^n                       (the index)
//!            index_crc:u32 payload crc:u32
//! payload := edge_sets_len:u64 edge_sets[edge_sets_len] record^n
//! ```
//!
//! Index offsets count from the payload's start; `edge_sets` and each
//! `record` are [`crate::edge_sets`]'s byte forms.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use fsdl_graph::{FaultSet, Graph, NodeId};
use fsdl_mmap::{ByteSource, SourceKind};

use std::sync::Arc;

use crate::codec::CodecError;
use crate::crash::{self, CrashPoint};
use crate::edge_sets::EdgeSets;
use crate::label::Label;
use crate::params::SchemeParams;
use crate::wal::{self, WalError};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"FSDLSEG1";
/// Current segment format version. Version 2 added a dedicated checksum
/// over the header + offset index (between the index and the payload),
/// so a lazy open can certify the index without faulting in the payload.
/// Version 3 held self-contained labels in the codec's row layout.
/// Version 4 holds one edge-set block per level and a points record per
/// vertex instead. Any other version is refused rather than re-encoded —
/// stores are derived from the graph and are rebuilt.
pub const FORMAT_VERSION: u32 = 4;
/// The manifest file name inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Header line (format + version) opening every manifest.
const MANIFEST_HEADER: &str = "fsdl-store 1";
/// Prefix of in-flight temp files (ignored by readers, pruned by writers).
const TMP_PREFIX: &str = ".tmp-";

/// Fixed segment header length in bytes (magic, version, ε bits, `c`,
/// `n`, graph fingerprint, payload length).
const HEADER_BYTES: usize = 8 + 4 + 8 + 4 + 8 + 8 + 8;
/// Bytes per index entry (byte offset + byte length of a points record).
const INDEX_ENTRY_BYTES: usize = 16;
/// Checksum over header + index, sitting between index and payload.
const INDEX_CRC_BYTES: usize = 4;
/// Trailing whole-file checksum length in bytes.
const CRC_BYTES: usize = 4;

/// How a segment's payload is brought into service at open time.
///
/// * [`OpenMode::Eager`] reads the whole file into an owned buffer and
///   verifies the whole-file checksum before returning — the strongest
///   up-front guarantee, at O(file size) open cost.
/// * [`OpenMode::Lazy`] memory-maps the file (owned-read fallback on
///   platforms or filesystems without mmap) and verifies the header, the
///   index checksum and the level blocks (each checksummed, read at every
///   open in both modes); points records are left on disk and validated
///   per record — by their embedded checksum and the structural checks of
///   the derivation — at first touch. Cold-start cost is the blocks plus
///   O(touched labels), and a corrupted untouched record surfaces as a
///   typed [`CodecError`] the first time it is read, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpenMode {
    /// Full read + whole-file checksum at open.
    #[default]
    Eager,
    /// Zero-copy map; per-label validation deferred to first touch.
    Lazy,
}

impl OpenMode {
    /// Parses a CLI-style mode name.
    pub fn parse(s: &str) -> Option<OpenMode> {
        match s {
            "eager" => Some(OpenMode::Eager),
            "lazy" => Some(OpenMode::Lazy),
            _ => None,
        }
    }

    /// The CLI-style name (`eager` / `lazy`).
    pub fn name(self) -> &'static str {
        match self {
            OpenMode::Eager => "eager",
            OpenMode::Lazy => "lazy",
        }
    }
}

/// A typed error from the persistent label store. Every corruption,
/// truncation, version skew, or mismatch observable from on-disk bytes
/// maps to one of these variants — the store read path never panics.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure (permissions, missing directory, …).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error, stringified.
        message: String,
    },
    /// The store directory has no manifest (not a store, or never
    /// published).
    ManifestMissing {
        /// The expected manifest path.
        path: PathBuf,
    },
    /// The manifest exists but does not parse or fails its checksum.
    ManifestCorrupt {
        /// 1-based line number of the offending line (0 = whole file).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The manifest names a segment file that does not exist.
    SegmentMissing {
        /// The missing segment path.
        path: PathBuf,
    },
    /// The segment file exists but is torn, truncated, bit-flipped, or
    /// otherwise fails structural validation.
    SegmentCorrupt {
        /// The segment path.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// The segment was written by an unsupported format version.
    VersionUnsupported {
        /// The version found on disk.
        found: u32,
    },
    /// The segment was built for a different graph than the one supplied
    /// at open time (stale store, or the wrong directory).
    GraphMismatch {
        /// Fingerprint of the supplied graph.
        expected: u64,
        /// Fingerprint recorded in the segment.
        found: u64,
    },
    /// The parameter schedule recorded in the segment is invalid
    /// (non-positive ε, `c < 2`, `n == 0`, …).
    ParamsInvalid {
        /// What went wrong.
        message: String,
    },
    /// A label payload failed to encode or decode.
    Codec(CodecError),
    /// The write-ahead log accompanying a dynamic store failed (corrupt
    /// record, torn header, generation skew, or an injected crash point).
    Wal(WalError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "i/o error on {}: {message}", path.display())
            }
            StoreError::ManifestMissing { path } => {
                write!(f, "no manifest at {}", path.display())
            }
            StoreError::ManifestCorrupt { line, message } => {
                write!(f, "corrupt manifest (line {line}): {message}")
            }
            StoreError::SegmentMissing { path } => {
                write!(f, "segment file missing: {}", path.display())
            }
            StoreError::SegmentCorrupt { path, message } => {
                write!(f, "corrupt segment {}: {message}", path.display())
            }
            StoreError::VersionUnsupported { found } => {
                write!(
                    f,
                    "segment format version {found} unsupported (this build reads {FORMAT_VERSION})"
                )
            }
            StoreError::GraphMismatch { expected, found } => {
                write!(
                    f,
                    "store was built for a different graph \
                     (fingerprint {found:#018x}, expected {expected:#018x})"
                )
            }
            StoreError::ParamsInvalid { message } => {
                write!(f, "invalid parameter schedule in store: {message}")
            }
            StoreError::Codec(e) => write!(f, "label codec error: {e}"),
            StoreError::Wal(e) => write!(f, "write-ahead log error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        StoreError::Wal(e)
    }
}

/// Maps an armed crash point firing at `point` into the store's error
/// space (the on-disk state is then exactly a real crash's).
fn fire(point: CrashPoint) -> Result<(), StoreError> {
    crash::fire(point).map_err(|p| {
        StoreError::Wal(WalError::Injected {
            point: p.name().to_string(),
        })
    })
}

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// 64-bit FNV-1a over a byte slice: the one hash behind the store's
/// fingerprints and every checksum of the store, the WAL and the shard
/// sidecars.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 32-bit fold of [`fnv1a64`], used for the whole-file segment checksum
/// and the manifest checksum line.
pub(crate) fn fnv32(bytes: &[u8]) -> u32 {
    let h = fnv1a64(bytes);
    (h ^ (h >> 32)) as u32
}

/// Fingerprint of a graph's structure: FNV-1a over `n`, `m`, and every
/// edge `(lo, hi)`. Two graphs with the same vertex count and edge set
/// fingerprint identically; a store opened against a different graph is
/// rejected with [`StoreError::GraphMismatch`].
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut bytes = Vec::with_capacity(16 + g.num_edges() * 8);
    bytes.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    bytes.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    for e in g.edges() {
        bytes.extend_from_slice(&e.lo().raw().to_le_bytes());
        bytes.extend_from_slice(&e.hi().raw().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The file name of generation `g`'s segment.
pub fn segment_file_name(generation: u64) -> String {
    format!("seg-{generation}.fsl")
}

/// What a successful save reports back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreReport {
    /// The generation just published.
    pub generation: u64,
    /// Size of the published segment file in bytes.
    pub segment_bytes: u64,
    /// Number of labels in the segment.
    pub labels: usize,
}

/// The parsed manifest: which generation is current, plus the dynamic
/// oracle's fault state (empty for static stores).
#[derive(Clone, Debug)]
pub struct Manifest {
    /// The current generation number.
    pub generation: u64,
    /// File name (relative to the store directory) of the current
    /// segment.
    pub segment: String,
    /// Faults baked into the segment's labeling (original-graph ids);
    /// empty for static oracles.
    pub baked: FaultSet,
    /// Faults buffered since the last rebuild (original-graph ids);
    /// empty for static oracles.
    pub buffer: FaultSet,
    /// The dynamic oracle's rebuild threshold, when persisted.
    pub threshold: Option<usize>,
}

impl Manifest {
    /// A static-store manifest for generation `generation`.
    pub fn static_store(generation: u64) -> Self {
        Manifest {
            generation,
            segment: segment_file_name(generation),
            baked: FaultSet::empty(),
            buffer: FaultSet::empty(),
            threshold: None,
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        out.push_str(&format!("generation {}\n", self.generation));
        out.push_str(&format!("segment {}\n", self.segment));
        if let Some(t) = self.threshold {
            out.push_str(&format!("threshold {t}\n"));
        }
        for v in self.baked.vertices() {
            out.push_str(&format!("baked-v {}\n", v.raw()));
        }
        for e in self.baked.edges() {
            out.push_str(&format!("baked-f {} {}\n", e.lo().raw(), e.hi().raw()));
        }
        for v in self.buffer.vertices() {
            out.push_str(&format!("buffer-v {}\n", v.raw()));
        }
        for e in self.buffer.edges() {
            out.push_str(&format!("buffer-f {} {}\n", e.lo().raw(), e.hi().raw()));
        }
        out.push_str(&format!("crc {:08x}\n", fnv32(out.as_bytes())));
        out
    }

    fn parse(text: &str) -> Result<Self, StoreError> {
        let corrupt = |line: usize, message: String| StoreError::ManifestCorrupt { line, message };
        let mut generation: Option<u64> = None;
        let mut segment: Option<String> = None;
        let mut threshold: Option<usize> = None;
        let mut baked = FaultSet::empty();
        let mut buffer = FaultSet::empty();
        let mut crc_seen = false;
        let mut body_len = 0usize;
        for (k, line) in text.lines().enumerate() {
            let lineno = k + 1;
            if crc_seen {
                return Err(corrupt(lineno, "content after crc line".into()));
            }
            if k == 0 {
                if line != MANIFEST_HEADER {
                    return Err(corrupt(1, format!("bad header {line:?}")));
                }
                body_len += line.len() + 1;
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let key = parts.next().unwrap_or("");
            let parse_u64 = |s: Option<&str>| -> Result<u64, StoreError> {
                s.ok_or_else(|| corrupt(lineno, format!("missing value for {key}")))?
                    .parse::<u64>()
                    .map_err(|e| corrupt(lineno, format!("bad number: {e}")))
            };
            let parse_node = |s: Option<&str>| -> Result<NodeId, StoreError> {
                let raw = s
                    .ok_or_else(|| corrupt(lineno, format!("missing id for {key}")))?
                    .parse::<u32>()
                    .map_err(|e| corrupt(lineno, format!("bad vertex id: {e}")))?;
                Ok(NodeId::new(raw))
            };
            match key {
                "generation" => generation = Some(parse_u64(parts.next())?),
                "segment" => {
                    let name = parts
                        .next()
                        .ok_or_else(|| corrupt(lineno, "missing segment name".into()))?;
                    if name.contains('/') || name.contains("..") {
                        return Err(corrupt(lineno, format!("unsafe segment name {name:?}")));
                    }
                    segment = Some(name.to_string());
                }
                "threshold" => {
                    let t = parse_u64(parts.next())?;
                    threshold = Some(usize::try_from(t).map_err(|_| {
                        corrupt(lineno, format!("threshold {t} too large for this platform"))
                    })?);
                }
                "baked-v" => {
                    baked.forbid_vertex(parse_node(parts.next())?);
                }
                "baked-f" => {
                    let a = parse_node(parts.next())?;
                    let b = parse_node(parts.next())?;
                    baked.forbid_edge_unchecked(a, b);
                }
                "buffer-v" => {
                    buffer.forbid_vertex(parse_node(parts.next())?);
                }
                "buffer-f" => {
                    let a = parse_node(parts.next())?;
                    let b = parse_node(parts.next())?;
                    buffer.forbid_edge_unchecked(a, b);
                }
                "crc" => {
                    let want = parts
                        .next()
                        .ok_or_else(|| corrupt(lineno, "missing crc value".into()))?;
                    let want = u32::from_str_radix(want, 16)
                        .map_err(|e| corrupt(lineno, format!("bad crc: {e}")))?;
                    let got = fnv32(&text.as_bytes()[..body_len]);
                    if want != got {
                        return Err(corrupt(
                            lineno,
                            format!("checksum mismatch: recorded {want:08x}, computed {got:08x}"),
                        ));
                    }
                    crc_seen = true;
                }
                other => return Err(corrupt(lineno, format!("unknown key {other:?}"))),
            }
            if parts.next().is_some() {
                return Err(corrupt(lineno, format!("trailing garbage after {key}")));
            }
            body_len += line.len() + 1;
        }
        if !crc_seen {
            return Err(corrupt(0, "missing crc line".into()));
        }
        let generation = generation.ok_or_else(|| corrupt(0, "missing generation".into()))?;
        let segment = segment.ok_or_else(|| corrupt(0, "missing segment".into()))?;
        Ok(Manifest {
            generation,
            segment,
            baked,
            buffer,
            threshold,
        })
    }
}

/// Reads and validates the manifest of the store at `dir`.
///
/// # Errors
///
/// [`StoreError::ManifestMissing`] when there is none,
/// [`StoreError::ManifestCorrupt`] when it fails to parse or checksum,
/// [`StoreError::Io`] for OS-level failures.
pub fn read_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    let path = dir.join(MANIFEST_NAME);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::ManifestMissing { path });
        }
        Err(e) => return Err(io_err(&path, &e)),
    };
    Manifest::parse(&text)
}

/// Durably writes `bytes` to `dir/name` via temp file + `fsync` + atomic
/// rename (+ directory `fsync`), so readers observe either the old file
/// or the complete new one — never a torn write.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{TMP_PREFIX}{name}"));
    let dst = dir.join(name);
    let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, &e))?;
    f.sync_all().map_err(|e| io_err(&tmp, &e))?;
    drop(f);
    fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, &e))?;
    if let Ok(d) = fs::File::open(dir) {
        // Durability of the rename itself; non-fatal where unsupported.
        let _ = d.sync_all();
    }
    Ok(())
}

/// Atomically publishes `manifest` as `dir`'s current manifest. This is
/// the commit point of the write protocol: call it only after the
/// segment it names is durably in place.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    write_atomic(dir, MANIFEST_NAME, manifest.render().as_bytes())
}

/// Serializes and durably writes the segment for `generation` (temp
/// file, `fsync`, atomic rename), **without** touching the manifest —
/// a crash (or a deliberate stop, as the crash-consistency tests do)
/// after this call leaves the previous generation current and openable.
///
/// `edge_sets` is [`EdgeSets::encode`]'s bytes; `records` holds each
/// vertex's [`crate::edge_sets::points_record`], in vertex order — owned
/// or borrowed, so a writer of a subset (a shard) need not copy the
/// records it picks.
///
/// Returns the segment's size in bytes.
pub fn write_segment<B: AsRef<[u8]>>(
    dir: &Path,
    generation: u64,
    params: &SchemeParams,
    graph_fingerprint: u64,
    edge_sets: &[u8],
    records: &[B],
) -> Result<u64, StoreError> {
    let n = records.len();
    let payload_len = 8 + edge_sets.len() + records.iter().map(|r| r.as_ref().len()).sum::<usize>();
    let mut out = Vec::with_capacity(
        HEADER_BYTES + n * INDEX_ENTRY_BYTES + INDEX_CRC_BYTES + payload_len + CRC_BYTES,
    );
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&params.epsilon().to_bits().to_le_bytes());
    out.extend_from_slice(&params.c().to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&graph_fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload_len as u64).to_le_bytes());
    let mut offset = (8 + edge_sets.len()) as u64;
    for record in records {
        let len = record.as_ref().len() as u64;
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        offset += len;
    }
    // Index checksum: covers header + index so a lazy open can certify
    // the offsets it will trust without reading the payload.
    out.extend_from_slice(&fnv32(&out).to_le_bytes());
    out.extend_from_slice(&(edge_sets.len() as u64).to_le_bytes());
    out.extend_from_slice(edge_sets);
    for record in records {
        out.extend_from_slice(record.as_ref());
    }
    out.extend_from_slice(&fnv32(&out).to_le_bytes());
    let size = out.len() as u64;
    write_atomic(dir, &segment_file_name(generation), &out)?;
    Ok(size)
}

/// Best-effort removal of segment, WAL and shard-sidecar files other than
/// `keep`'s, and of any stale temp files. Failures are ignored: pruning is an
/// optimization, never a correctness requirement. A WAL older than the
/// current manifest is safe to drop because every manifest snapshots the
/// full fault state — the log only ever carries updates newer than it.
pub fn prune_generations(dir: &Path, keep: u64) {
    let keep_name = segment_file_name(keep);
    let keep_wal = wal::wal_file_name(keep);
    let keep_meta = crate::partition::shard_meta_file_name(keep);
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_segment = name.starts_with("seg-") && name.ends_with(".fsl") && name != keep_name;
        let stale_wal = name.starts_with("wal-") && name.ends_with(".log") && name != keep_wal;
        let stale_meta = name.starts_with("shard-") && name.ends_with(".meta") && name != keep_meta;
        if stale_segment || stale_wal || stale_meta || name.starts_with(TMP_PREFIX) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// The next free generation number for `dir`: one past the manifest's
/// generation when a manifest exists, otherwise one past the largest
/// generation named by any segment file lying around (so an interrupted
/// first save never reuses its own torn temp numbers).
pub fn next_generation(dir: &Path) -> u64 {
    if let Ok(m) = read_manifest(dir) {
        return m.generation + 1;
    }
    let mut max_seen = 0u64;
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(g) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".fsl"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                max_seen = max_seen.max(g);
            }
        }
    }
    max_seen + 1
}

/// Writes one complete generation: segment first (durable), then the
/// manifest swap (the commit point), then pruning of older generations.
/// The generation number is allocated with [`next_generation`].
#[allow(clippy::too_many_arguments)]
pub fn write_generation(
    dir: &Path,
    params: &SchemeParams,
    graph_fingerprint: u64,
    edge_sets: &[u8],
    records: &[Vec<u8>],
    baked: &FaultSet,
    buffer: &FaultSet,
    threshold: Option<usize>,
) -> Result<StoreReport, StoreError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let generation = next_generation(dir);
    fire(CrashPoint::BeforeSegmentWrite)?;
    let segment_bytes = write_segment(
        dir,
        generation,
        params,
        graph_fingerprint,
        edge_sets,
        records,
    )?;
    let manifest = Manifest {
        generation,
        segment: segment_file_name(generation),
        baked: baked.clone(),
        buffer: buffer.clone(),
        threshold,
    };
    fire(CrashPoint::BeforeManifestSwap)?;
    write_manifest(dir, &manifest)?;
    fire(CrashPoint::AfterManifestSwap)?;
    prune_generations(dir, generation);
    Ok(StoreReport {
        generation,
        segment_bytes,
        labels: records.len(),
    })
}

/// One parsed, checksum-verified segment: the level edge sets, read at
/// open, plus the per-vertex index of points records. Labels are derived
/// lazily ([`Segment::decode_label`]), so opening a store costs the
/// blocks and serving pays only for the labels it touches.
///
/// The file's bytes live in a [`ByteSource`]: an owned buffer under
/// [`OpenMode::Eager`], a read-only memory map (with an owned fallback)
/// under [`OpenMode::Lazy`]. Points records are read *in place*; the
/// derived labels share the edge sets' rows wherever a level stores its
/// whole net.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    n: usize,
    epsilon: f64,
    c: u32,
    graph_fingerprint: u64,
    /// Per-vertex `(byte offset into payload, byte length)`.
    index: Vec<(usize, usize)>,
    /// The whole segment file's bytes, mapped or owned.
    source: Box<dyn ByteSource>,
    /// Byte offset of the payload within `source`.
    payload_start: usize,
    /// Payload length in bytes (edge sets and records, excluding header,
    /// index, and checksums).
    payload_len: usize,
    /// The edge sets' bytes: `payload[8..edge_sets_end]`.
    edge_sets_end: usize,
    edge_sets: Arc<EdgeSets>,
    mode: OpenMode,
}

impl Segment {
    /// Opens and structurally validates the segment at `path`: magic,
    /// version, header consistency, the index checksum, every index
    /// entry (a record must lie within the payload, after the edge sets,
    /// so later lazy reads can never go out of bounds) and every level
    /// block. Under [`OpenMode::Eager`] the whole-file checksum is
    /// verified too; under [`OpenMode::Lazy`] points records are not
    /// touched at open — each record's checksum and structural
    /// validation run at first read instead.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`]; this function never panics on any byte
    /// sequence.
    pub fn open(path: &Path, mode: OpenMode) -> Result<Self, StoreError> {
        let corrupt = |message: String| StoreError::SegmentCorrupt {
            path: path.to_path_buf(),
            message,
        };
        let opened = match mode {
            OpenMode::Eager => fsdl_mmap::open_owned(path),
            OpenMode::Lazy => fsdl_mmap::open(path),
        };
        let source = match opened {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::SegmentMissing {
                    path: path.to_path_buf(),
                });
            }
            Err(e) => return Err(io_err(path, &e)),
        };
        let bytes = source.as_bytes();
        if bytes.len() < HEADER_BYTES + INDEX_CRC_BYTES + CRC_BYTES {
            return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
        }
        if bytes[..8] != SEGMENT_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != FORMAT_VERSION {
            return Err(StoreError::VersionUnsupported { found: version });
        }
        let epsilon = f64::from_bits(u64_at(12));
        let c = u32_at(20);
        let n_raw = u64_at(24);
        let graph_fp = u64_at(32);
        let payload_len_raw = u64_at(40);
        let n = usize::try_from(n_raw)
            .ok()
            .filter(|&n| n > 0 && n <= u32::MAX as usize + 1)
            .ok_or_else(|| corrupt(format!("implausible label count {n_raw}")))?;
        let payload_len = usize::try_from(payload_len_raw)
            .map_err(|_| corrupt(format!("implausible payload length {payload_len_raw}")))?;
        let index_end = HEADER_BYTES
            .checked_add(
                n.checked_mul(INDEX_ENTRY_BYTES)
                    .ok_or_else(|| corrupt(format!("index size overflow for {n} labels")))?,
            )
            .ok_or_else(|| corrupt("index size overflow".into()))?;
        let expected_len = index_end
            .checked_add(INDEX_CRC_BYTES)
            .and_then(|x| x.checked_add(payload_len))
            .and_then(|x| x.checked_add(CRC_BYTES))
            .ok_or_else(|| corrupt("file size overflow".into()))?;
        if bytes.len() != expected_len {
            return Err(corrupt(format!(
                "file is {} bytes but the header implies {expected_len}",
                bytes.len()
            )));
        }
        // The index checksum certifies header + index alone, so the lazy
        // path can trust the offsets it serves from without faulting in
        // the records.
        let recorded_index = u32_at(index_end);
        let computed_index = fnv32(&bytes[..index_end]);
        if recorded_index != computed_index {
            return Err(corrupt(format!(
                "index checksum mismatch: recorded {recorded_index:08x}, \
                 computed {computed_index:08x}"
            )));
        }
        if mode == OpenMode::Eager {
            let body = &bytes[..bytes.len() - CRC_BYTES];
            let recorded = u32_at(bytes.len() - CRC_BYTES);
            let computed = fnv32(body);
            if recorded != computed {
                return Err(corrupt(format!(
                    "checksum mismatch: recorded {recorded:08x}, computed {computed:08x}"
                )));
            }
        }
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(StoreError::ParamsInvalid {
                message: format!("epsilon {epsilon} is not positive finite"),
            });
        }
        if !(2..=64).contains(&c) {
            return Err(StoreError::ParamsInvalid {
                message: format!("implausible parameter c = {c}"),
            });
        }
        let payload_start = index_end + INDEX_CRC_BYTES;
        let payload = &bytes[payload_start..payload_start + payload_len];
        let edge_sets_end = payload
            .get(..8)
            .map(|len| u64::from_le_bytes(len.try_into().unwrap()))
            .and_then(|len| usize::try_from(len).ok())
            .and_then(|len| len.checked_add(8))
            .filter(|&end| end <= payload_len)
            .ok_or_else(|| corrupt("edge sets overrun the payload".into()))?;
        let edge_sets = EdgeSets::decode(&payload[8..edge_sets_end])
            .map_err(|e| corrupt(format!("level blocks: {e}")))?;
        let mut index = Vec::with_capacity(n);
        for k in 0..n {
            let at = HEADER_BYTES + k * INDEX_ENTRY_BYTES;
            let off = u64_at(at);
            let len = u64_at(at + 8);
            let off = usize::try_from(off)
                .map_err(|_| corrupt(format!("label {k}: offset {off} overflows")))?;
            let len = usize::try_from(len)
                .map_err(|_| corrupt(format!("label {k}: length {len} overflows")))?;
            let end = off
                .checked_add(len)
                .ok_or_else(|| corrupt(format!("label {k}: extent overflows")))?;
            if off < edge_sets_end || end > payload_len {
                return Err(corrupt(format!(
                    "label {k}: claims bytes {off}..{end} of a {payload_len}-byte payload \
                     whose records start at {edge_sets_end}"
                )));
            }
            index.push((off, len));
        }
        Ok(Segment {
            path: path.to_path_buf(),
            n,
            epsilon,
            c,
            graph_fingerprint: graph_fp,
            index,
            source,
            payload_start,
            payload_len,
            edge_sets_end,
            edge_sets: Arc::new(edge_sets),
            mode,
        })
    }

    /// Number of labels stored.
    pub fn num_labels(&self) -> usize {
        self.n
    }

    /// The mode this segment was opened with.
    pub fn open_mode(&self) -> OpenMode {
        self.mode
    }

    /// True when the payload is served from a memory map rather than an
    /// owned heap buffer.
    pub fn is_mapped(&self) -> bool {
        self.source.kind() == SourceKind::Mapped
    }

    /// On-disk payload size in bytes — edge sets and points records,
    /// excluding header, index, and checksums: the denominator of
    /// resident-vs-on-disk accounting.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_len as u64
    }

    fn payload(&self) -> &[u8] {
        &self.source.as_bytes()[self.payload_start..self.payload_start + self.payload_len]
    }

    /// The graph fingerprint recorded at write time.
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fingerprint
    }

    /// Reconstructs the parameter schedule recorded in the header.
    ///
    /// # Errors
    ///
    /// [`StoreError::ParamsInvalid`] — although [`Segment::open`] already
    /// pre-validated the fields, this re-checks so the function is safe
    /// to call on any segment value.
    pub fn params(&self) -> Result<SchemeParams, StoreError> {
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) || self.c < 2 || self.n == 0 {
            return Err(StoreError::ParamsInvalid {
                message: format!("epsilon = {}, c = {}, n = {}", self.epsilon, self.c, self.n),
            });
        }
        Ok(SchemeParams::with_c(self.epsilon, self.c, self.n))
    }

    /// The generation's level edge sets, read and verified at open.
    pub fn edge_sets(&self) -> &Arc<EdgeSets> {
        &self.edge_sets
    }

    /// The edge sets' bytes exactly as stored ([`EdgeSets::encode`]'s
    /// form): what a shard serves to a router's handshake.
    pub fn edge_sets_bytes(&self) -> &[u8] {
        &self.payload()[8..self.edge_sets_end]
    }

    /// The points record of the `k`-th stored vertex, unverified (the
    /// derivation checks it), or `None` when `k` is out of range. A shard
    /// segment stores its own vertices only, so there `k` is a position
    /// in the shard, not a global id.
    pub fn points(&self, k: usize) -> Option<&[u8]> {
        let &(off, len) = self.index.get(k)?;
        Some(&self.payload()[off..off + len])
    }

    /// Derives the label of `v` from its points record and the edge sets.
    /// Untrusted-input safe: any malformed record yields a
    /// [`CodecError`], never a panic.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when `v` is out of range for the segment or its
    /// record fails its checksum or structural validation, or is not
    /// `v`'s.
    pub fn decode_label(&self, v: NodeId) -> Result<Label, CodecError> {
        let record = self.points(v.index()).ok_or_else(|| {
            CodecError::new(
                0,
                format!(
                    "label index {} out of range for {} labels",
                    v.index(),
                    self.n
                ),
            )
        })?;
        self.edge_sets.label(v, record)
    }

    /// The `ε` recorded in the header (pre-validated positive finite at
    /// open).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The `c` parameter recorded in the header (pre-validated in
    /// `2..=64` at open).
    pub fn c(&self) -> u32 {
        self.c
    }

    /// The file this segment was read from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let k = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("fsdl-store-unit-{tag}-{}-{k}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_roundtrip_with_faults() {
        let mut baked = FaultSet::empty();
        baked.forbid_vertex(NodeId::new(3));
        baked.forbid_edge_unchecked(NodeId::new(1), NodeId::new(2));
        let mut buffer = FaultSet::empty();
        buffer.forbid_vertex(NodeId::new(7));
        let m = Manifest {
            generation: 5,
            segment: segment_file_name(5),
            baked,
            buffer,
            threshold: Some(9),
        };
        let parsed = Manifest::parse(&m.render()).unwrap();
        assert_eq!(parsed.generation, 5);
        assert_eq!(parsed.segment, "seg-5.fsl");
        assert_eq!(parsed.threshold, Some(9));
        assert!(parsed.baked.is_vertex_faulty(NodeId::new(3)));
        assert!(parsed.baked.is_edge_faulty(NodeId::new(1), NodeId::new(2)));
        assert!(parsed.buffer.is_vertex_faulty(NodeId::new(7)));
    }

    #[test]
    fn manifest_rejects_tampering() {
        let m = Manifest::static_store(2);
        let good = m.render();
        // Flip the generation without fixing the crc.
        let bad = good.replace("generation 2", "generation 3");
        assert!(matches!(
            Manifest::parse(&bad),
            Err(StoreError::ManifestCorrupt { .. })
        ));
        // Remove the crc line entirely.
        let no_crc: String = good
            .lines()
            .filter(|l| !l.starts_with("crc"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            Manifest::parse(&no_crc),
            Err(StoreError::ManifestCorrupt { .. })
        ));
        // Unknown keys and unsafe segment names are rejected.
        assert!(matches!(
            Manifest::parse("fsdl-store 1\nwat 3\ncrc 0\n"),
            Err(StoreError::ManifestCorrupt { .. })
        ));
        let evil = Manifest {
            segment: "../outside.fsl".into(),
            ..Manifest::static_store(1)
        };
        assert!(matches!(
            Manifest::parse(&evil.render()),
            Err(StoreError::ManifestCorrupt { .. })
        ));
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("not a manifest\n").is_err());
    }

    #[test]
    fn missing_manifest_is_typed() {
        let dir = scratch_dir("missing");
        assert!(matches!(
            read_manifest(&dir),
            Err(StoreError::ManifestMissing { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn next_generation_falls_back_to_segment_scan() {
        let dir = scratch_dir("nextgen");
        assert_eq!(next_generation(&dir), 1);
        fs::write(dir.join(segment_file_name(4)), b"junk").unwrap();
        fs::write(dir.join(".tmp-seg-9.fsl"), b"junk").unwrap();
        assert_eq!(next_generation(&dir), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_current_and_drops_the_rest() {
        let dir = scratch_dir("prune");
        for g in 1..=3u64 {
            fs::write(dir.join(segment_file_name(g)), b"x").unwrap();
        }
        fs::write(dir.join(".tmp-seg-4.fsl"), b"x").unwrap();
        fs::write(dir.join("MANIFEST"), b"x").unwrap();
        fs::write(dir.join(wal::wal_file_name(2)), b"x").unwrap();
        fs::write(dir.join(wal::wal_file_name(3)), b"x").unwrap();
        fs::write(dir.join(crate::partition::shard_meta_file_name(2)), b"x").unwrap();
        fs::write(dir.join(crate::partition::shard_meta_file_name(3)), b"x").unwrap();
        prune_generations(&dir, 3);
        assert!(dir.join(segment_file_name(3)).exists());
        assert!(!dir.join(segment_file_name(2)).exists());
        assert!(!dir.join(segment_file_name(1)).exists());
        assert!(!dir.join(".tmp-seg-4.fsl").exists());
        assert!(!dir.join(wal::wal_file_name(2)).exists());
        assert!(dir.join(wal::wal_file_name(3)).exists());
        assert!(!dir.join(crate::partition::shard_meta_file_name(2)).exists());
        assert!(dir.join(crate::partition::shard_meta_file_name(3)).exists());
        assert!(dir.join("MANIFEST").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_open_rejects_garbage_without_panicking() {
        let dir = scratch_dir("garbage");
        let path = dir.join("seg-1.fsl");
        for junk in [
            &b""[..],
            &b"short"[..],
            &[0u8; 64][..],
            &b"FSDLSEG1then-what-exactly-is-this-supposed-to-be....."[..],
        ] {
            fs::write(&path, junk).unwrap();
            let err = Segment::open(&path, OpenMode::Eager).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::SegmentCorrupt { .. } | StoreError::VersionUnsupported { .. }
                ),
                "junk {junk:?} gave {err:?}"
            );
        }
        assert!(matches!(
            Segment::open(&dir.join("seg-404.fsl"), OpenMode::Eager),
            Err(StoreError::SegmentMissing { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display_is_informative() {
        let e = StoreError::GraphMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("different graph"));
        let e = StoreError::VersionUnsupported { found: 9 };
        assert!(e.to_string().contains('9'));
        let e = StoreError::Codec(CodecError::new(3, "x"));
        assert!(e.to_string().contains("codec"));
    }
}
