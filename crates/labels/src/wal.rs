//! Checksummed, fsync'd write-ahead log for the dynamic oracle.
//!
//! The generation store (PR 4) persists a full snapshot per rebuild, so a
//! crash *between* rebuilds used to lose every buffered update. The WAL
//! closes that window, LSM-style: every accepted update is appended as a
//! length-prefixed, per-record-CRC'd record and `fsync`ed *before* it is
//! applied in memory. On open, the records since the last manifest swap
//! are replayed on top of the persisted generation; after each manifest
//! swap the log is rotated (a fresh `wal-<generation>.log` is created and
//! stale logs are pruned), so the log only ever holds the updates the
//! manifest does not.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! header: magic "FSDLWAL1" (8) | generation u64 | fnv32(prefix) u32
//! record: len u32 | fnv32(payload) u32 | payload (len bytes)
//! payload: tag u8 | vertex ids (u32 each)
//! ```
//!
//! The header is written via temp-file + rename, so a log file either
//! does not exist or has a complete header. Records are appended in
//! place; recovery distinguishes two failure shapes:
//!
//! * a **torn tail** — fewer bytes than the frame announces, at the end
//!   of the file: the record was never acknowledged (the crash window),
//!   so it is truncated away and replay proceeds with the sound prefix;
//! * a **corrupt record** — a CRC mismatch, an implausible length, or a
//!   malformed payload anywhere: an acknowledged record can no longer be
//!   trusted, so the open fails with a typed [`WalError`], never a panic
//!   and never a silent drop.

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fsdl_graph::NodeId;

use crate::crash::{self, CrashPoint};
use crate::store::fnv32;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"FSDLWAL1";
/// Header length: magic + generation + crc.
pub const WAL_HEADER_BYTES: u64 = 8 + 8 + 4;
/// Frame prefix length: record length + record crc.
const FRAME_BYTES: u64 = 4 + 4;
/// Upper bound on a record payload. Every legitimate record is ≤ 9 bytes
/// (tag + two ids); the tight cap turns a bit-flipped length field into a
/// typed corruption instead of an absurd torn-tail claim.
pub const MAX_RECORD_BYTES: u32 = 64;

/// The WAL file name for `generation`.
pub fn wal_file_name(generation: u64) -> String {
    format!("wal-{generation}.log")
}

/// A typed error from the write-ahead log. Like [`crate::StoreError`],
/// every observable on-disk corruption maps here — the replay path never
/// panics on untrusted bytes.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An OS-level I/O failure.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error, stringified.
        message: String,
    },
    /// The log file's header is malformed (bad magic or checksum).
    HeaderCorrupt {
        /// The log path.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// The header's generation does not match the manifest's — the log
    /// belongs to a different store lineage.
    GenerationMismatch {
        /// Generation recorded in the log header.
        found: u64,
        /// Generation the manifest expects.
        expected: u64,
    },
    /// An acknowledged record fails its CRC, announces an implausible
    /// length, or decodes to a malformed payload.
    RecordCorrupt {
        /// Byte offset of the record's frame in the file.
        offset: u64,
        /// What went wrong.
        message: String,
    },
    /// A replayed record is inconsistent with the recovered state (e.g.
    /// a restore of a fault that is not deleted) — only reachable through
    /// corruption that defeats the CRC, but still typed, never trusted.
    RecordInvalid {
        /// 0-based index of the record in the log.
        index: usize,
        /// What went wrong.
        message: String,
    },
    /// An injected crash point fired ([`crate::crash`]): the on-disk
    /// state is exactly what a real crash here would leave. The oracle
    /// must be treated as dead — drop it and reopen from the store.
    Injected {
        /// The crash point's name.
        point: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, message } => {
                write!(f, "wal i/o error on {}: {message}", path.display())
            }
            WalError::HeaderCorrupt { path, message } => {
                write!(f, "corrupt wal header in {}: {message}", path.display())
            }
            WalError::GenerationMismatch { found, expected } => {
                write!(
                    f,
                    "wal is for generation {found}, manifest expects {expected}"
                )
            }
            WalError::RecordCorrupt { offset, message } => {
                write!(f, "corrupt wal record at byte {offset}: {message}")
            }
            WalError::RecordInvalid { index, message } => {
                write!(f, "invalid wal record #{index}: {message}")
            }
            WalError::Injected { point } => {
                write!(f, "injected crash at {point}")
            }
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path, e: &std::io::Error) -> WalError {
    WalError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// One logged update, mirroring the [`crate::DynamicOracle`] update API.
/// `Fold` records an explicit [`crate::DynamicOracle::rebuild`] call, so
/// replay reproduces the exact baked/buffered split (and therefore the
/// exact labeling) of the pre-crash oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// `delete_vertex(v)`.
    DeleteVertex(NodeId),
    /// `delete_edge(a, b)`.
    DeleteEdge(NodeId, NodeId),
    /// `restore_vertex(v)`.
    RestoreVertex(NodeId),
    /// `restore_edge(a, b)`.
    RestoreEdge(NodeId, NodeId),
    /// An explicit in-memory fold of the buffer into the baked set.
    Fold,
}

const TAG_DELETE_VERTEX: u8 = 1;
const TAG_DELETE_EDGE: u8 = 2;
const TAG_RESTORE_VERTEX: u8 = 3;
const TAG_RESTORE_EDGE: u8 = 4;
const TAG_FOLD: u8 = 5;

impl WalRecord {
    fn encode(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9);
        match self {
            WalRecord::DeleteVertex(v) => {
                out.push(TAG_DELETE_VERTEX);
                out.extend_from_slice(&v.raw().to_le_bytes());
            }
            WalRecord::DeleteEdge(a, b) => {
                out.push(TAG_DELETE_EDGE);
                out.extend_from_slice(&a.raw().to_le_bytes());
                out.extend_from_slice(&b.raw().to_le_bytes());
            }
            WalRecord::RestoreVertex(v) => {
                out.push(TAG_RESTORE_VERTEX);
                out.extend_from_slice(&v.raw().to_le_bytes());
            }
            WalRecord::RestoreEdge(a, b) => {
                out.push(TAG_RESTORE_EDGE);
                out.extend_from_slice(&a.raw().to_le_bytes());
                out.extend_from_slice(&b.raw().to_le_bytes());
            }
            WalRecord::Fold => out.push(TAG_FOLD),
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let id = |at: usize| -> Result<NodeId, String> {
            let bytes: [u8; 4] = payload
                .get(at..at + 4)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| format!("payload too short for id at byte {at}"))?;
            Ok(NodeId::new(u32::from_le_bytes(bytes)))
        };
        let expect_len = |want: usize| -> Result<(), String> {
            if payload.len() == want {
                Ok(())
            } else {
                Err(format!(
                    "payload is {} bytes, expected {want}",
                    payload.len()
                ))
            }
        };
        match payload.first() {
            Some(&TAG_DELETE_VERTEX) => {
                expect_len(5)?;
                Ok(WalRecord::DeleteVertex(id(1)?))
            }
            Some(&TAG_DELETE_EDGE) => {
                expect_len(9)?;
                Ok(WalRecord::DeleteEdge(id(1)?, id(5)?))
            }
            Some(&TAG_RESTORE_VERTEX) => {
                expect_len(5)?;
                Ok(WalRecord::RestoreVertex(id(1)?))
            }
            Some(&TAG_RESTORE_EDGE) => {
                expect_len(9)?;
                Ok(WalRecord::RestoreEdge(id(1)?, id(5)?))
            }
            Some(&TAG_FOLD) => {
                expect_len(1)?;
                Ok(WalRecord::Fold)
            }
            Some(&tag) => Err(format!("unknown record tag {tag}")),
            None => Err("empty payload".into()),
        }
    }
}

/// What a [`Wal::open`] replay scan found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records recovered (in append order).
    pub records: usize,
    /// Bytes of torn tail truncated away (a crash window, not corruption).
    pub truncated_bytes: u64,
}

/// The result of structurally scanning a WAL file without opening it for
/// appending (used by the chaos sweep to rebuild reference prefixes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalScan {
    /// Generation recorded in the header.
    pub generation: u64,
    /// Recovered records, in append order.
    pub records: Vec<WalRecord>,
    /// For each record, the byte offset one past its frame (so
    /// `file[..ends[k-1]]` is a valid log holding the first `k` records).
    pub ends: Vec<u64>,
    /// Bytes of torn tail after the last sound record.
    pub truncated_bytes: u64,
}

/// Parses `bytes` as a WAL file. Torn tails are reported, corrupt records
/// are typed errors.
fn scan_bytes(path: &Path, bytes: &[u8]) -> Result<WalScan, WalError> {
    let header_len = WAL_HEADER_BYTES as usize;
    if bytes.len() < header_len {
        return Err(WalError::HeaderCorrupt {
            path: path.to_path_buf(),
            message: format!("file is {} bytes, header needs {header_len}", bytes.len()),
        });
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(WalError::HeaderCorrupt {
            path: path.to_path_buf(),
            message: "bad magic".into(),
        });
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let recorded = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    let computed = fnv32(&bytes[..16]);
    if recorded != computed {
        return Err(WalError::HeaderCorrupt {
            path: path.to_path_buf(),
            message: format!(
                "header checksum mismatch: recorded {recorded:08x}, computed {computed:08x}"
            ),
        });
    }
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut at = header_len;
    loop {
        let remaining = bytes.len() - at;
        if remaining == 0 {
            break;
        }
        if remaining < FRAME_BYTES as usize {
            // Torn mid-frame: the record was never complete, never acked.
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(WalError::RecordCorrupt {
                offset: at as u64,
                message: format!("implausible record length {len}"),
            });
        }
        let body_at = at + FRAME_BYTES as usize;
        let Some(payload) = bytes.get(body_at..body_at + len as usize) else {
            // Torn mid-payload: truncate.
            break;
        };
        let computed = fnv32(payload);
        if crc != computed {
            return Err(WalError::RecordCorrupt {
                offset: at as u64,
                message: format!(
                    "record checksum mismatch: recorded {crc:08x}, computed {computed:08x}"
                ),
            });
        }
        let record = WalRecord::decode(payload).map_err(|message| WalError::RecordCorrupt {
            offset: at as u64,
            message,
        })?;
        at = body_at + len as usize;
        records.push(record);
        ends.push(at as u64);
    }
    Ok(WalScan {
        generation,
        records,
        ends,
        truncated_bytes: (bytes.len() - at) as u64,
    })
}

/// Reads and structurally validates the WAL file at `path` without
/// taking write ownership. Exposed for tooling and the chaos sweep.
///
/// # Errors
///
/// A typed [`WalError`] for any corruption; never panics on any byte
/// sequence.
pub fn scan(path: &Path) -> Result<WalScan, WalError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, &e))?;
    scan_bytes(path, &bytes)
}

/// An open, appendable write-ahead log for one store generation.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: fs::File,
    generation: u64,
    /// Bytes appended past the header (i.e. since rotation).
    bytes: u64,
    /// Records appended or replayed since rotation.
    records: u64,
}

impl Wal {
    /// Creates a fresh, empty log `dir/wal-<generation>.log`. The header
    /// is staged through a temp file + rename, so a crash mid-create
    /// leaves either no log or a complete empty one.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on any filesystem failure.
    pub fn create(dir: &Path, generation: u64) -> Result<Wal, WalError> {
        let name = wal_file_name(generation);
        let path = dir.join(&name);
        let tmp = dir.join(format!(".tmp-{name}"));
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&generation.to_le_bytes());
        header.extend_from_slice(&fnv32(&header).to_le_bytes());
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
        f.write_all(&header).map_err(|e| io_err(&tmp, &e))?;
        f.sync_all().map_err(|e| io_err(&tmp, &e))?;
        drop(f);
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, &e))?;
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        let mut wal = Wal {
            path,
            file,
            generation,
            bytes: 0,
            records: 0,
        };
        wal.seek_end()?;
        Ok(wal)
    }

    /// Opens an existing log, validates every record, truncates any torn
    /// tail in place, and returns the log (positioned for appending) plus
    /// the recovered records.
    ///
    /// # Errors
    ///
    /// [`WalError::GenerationMismatch`] when the header's generation is
    /// not `expected_generation`; [`WalError::HeaderCorrupt`] /
    /// [`WalError::RecordCorrupt`] for corruption; [`WalError::Io`] for
    /// filesystem failures.
    pub fn open(
        dir: &Path,
        expected_generation: u64,
    ) -> Result<(Wal, Vec<WalRecord>, ReplayReport), WalError> {
        let path = dir.join(wal_file_name(expected_generation));
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err(&path, &e))?;
        let scan = scan_bytes(&path, &bytes)?;
        if scan.generation != expected_generation {
            return Err(WalError::GenerationMismatch {
                found: scan.generation,
                expected: expected_generation,
            });
        }
        let sound_len = bytes.len() as u64 - scan.truncated_bytes;
        if scan.truncated_bytes > 0 {
            file.set_len(sound_len).map_err(|e| io_err(&path, &e))?;
            file.sync_all().map_err(|e| io_err(&path, &e))?;
        }
        let report = ReplayReport {
            records: scan.records.len(),
            truncated_bytes: scan.truncated_bytes,
        };
        let mut wal = Wal {
            path,
            file,
            generation: expected_generation,
            bytes: sound_len - WAL_HEADER_BYTES,
            records: scan.records.len() as u64,
        };
        wal.seek_end()?;
        Ok((wal, scan.records, report))
    }

    fn seek_end(&mut self) -> Result<(), WalError> {
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&self.path, &e))?;
        Ok(())
    }

    /// Appends `record` and `fsync`s before returning — the durability
    /// handshake: only after `Ok` may the update be applied in memory.
    ///
    /// On an I/O failure the partial frame is rolled back with
    /// `set_len`, so the log stays sound for subsequent appends; if even
    /// the rollback fails the error still surfaces and recovery's
    /// torn-tail truncation handles the remains.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failure, [`WalError::Injected`]
    /// when an armed crash point fires (the oracle must then be treated
    /// as crashed).
    pub fn append(&mut self, record: WalRecord) -> Result<(), WalError> {
        let injected = |point: CrashPoint| WalError::Injected {
            point: point.name().to_string(),
        };
        crash::fire(CrashPoint::BeforeWalAppend).map_err(injected)?;
        let payload = record.encode();
        let mut frame = Vec::with_capacity(FRAME_BYTES as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let start = WAL_HEADER_BYTES + self.bytes;
        if let Err(p) = crash::fire(CrashPoint::MidWalAppend) {
            // Leave a genuinely torn record behind, exactly like a crash
            // mid-write: a durable prefix of the frame.
            let torn = &frame[..frame.len() / 2];
            let _ = self.file.write_all(torn);
            let _ = self.file.sync_all();
            return Err(injected(p));
        }
        if let Err(e) = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_all())
        {
            // Roll the partial frame back so the next append stays sound.
            let _ = self.file.set_len(start);
            let _ = self.file.seek(SeekFrom::End(0));
            return Err(io_err(&self.path, &e));
        }
        self.bytes += frame.len() as u64;
        self.records += 1;
        crash::fire(CrashPoint::AfterWalAppend).map_err(injected)?;
        Ok(())
    }

    /// The generation this log belongs to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes appended since rotation (excluding the header).
    pub fn bytes_since_rotation(&self) -> u64 {
        self.bytes
    }

    /// Records appended or replayed since rotation.
    pub fn records_since_rotation(&self) -> u64 {
        self.records
    }

    /// The log's path.
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
            std::env::temp_dir().join(format!("fsdl-wal-unit-{tag}-{}-{k}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn v(x: u32) -> NodeId {
        NodeId::new(x)
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = scratch_dir("roundtrip");
        let records = [
            WalRecord::DeleteVertex(v(3)),
            WalRecord::DeleteEdge(v(1), v(2)),
            WalRecord::RestoreVertex(v(3)),
            WalRecord::Fold,
            WalRecord::RestoreEdge(v(1), v(2)),
        ];
        let mut wal = Wal::create(&dir, 7).unwrap();
        for r in records {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.records_since_rotation(), 5);
        let bytes = wal.bytes_since_rotation();
        assert!(bytes > 0);
        drop(wal);
        let (wal, replayed, report) = Wal::open(&dir, 7).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(
            report,
            ReplayReport {
                records: 5,
                truncated_bytes: 0
            }
        );
        assert_eq!(wal.bytes_since_rotation(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = scratch_dir("torn");
        let mut wal = Wal::create(&dir, 1).unwrap();
        wal.append(WalRecord::DeleteVertex(v(4))).unwrap();
        wal.append(WalRecord::DeleteVertex(v(5))).unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        let full = fs::read(&path).unwrap();
        // Tear at every byte boundary inside the last record's frame.
        let second_start = full.len() - (FRAME_BYTES as usize + 5);
        for cut in second_start + 1..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (wal, replayed, report) = Wal::open(&dir, 1).unwrap();
            assert_eq!(replayed, vec![WalRecord::DeleteVertex(v(4))], "cut {cut}");
            assert_eq!(report.truncated_bytes, (cut - second_start) as u64);
            assert_eq!(fs::metadata(&path).unwrap().len(), second_start as u64);
            drop(wal);
            fs::write(&path, &full).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_continue_after_torn_tail_recovery() {
        let dir = scratch_dir("continue");
        let mut wal = Wal::create(&dir, 1).unwrap();
        wal.append(WalRecord::DeleteVertex(v(1))).unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0]); // torn frame prefix
        fs::write(&path, &bytes).unwrap();
        let (mut wal, replayed, report) = Wal::open(&dir, 1).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(report.truncated_bytes, 3);
        wal.append(WalRecord::DeleteVertex(v(2))).unwrap();
        drop(wal);
        let (_, replayed, _) = Wal::open(&dir, 1).unwrap();
        assert_eq!(
            replayed,
            vec![WalRecord::DeleteVertex(v(1)), WalRecord::DeleteVertex(v(2))]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_typed_never_silent() {
        let dir = scratch_dir("corrupt");
        let mut wal = Wal::create(&dir, 2).unwrap();
        wal.append(WalRecord::DeleteEdge(v(1), v(2))).unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        let good = fs::read(&path).unwrap();

        // Bit-flip every byte of the record region: CRC or length must
        // catch each one as a typed error (flips in the length field that
        // keep it plausible show up as torn tails — also sound).
        let header = WAL_HEADER_BYTES as usize;
        for byte in header..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            match Wal::open(&dir, 2) {
                Err(WalError::RecordCorrupt { .. }) => {}
                Ok((_, replayed, _)) => {
                    assert!(replayed.is_empty(), "byte {byte}: silent record change");
                }
                Err(e) => panic!("byte {byte}: unexpected error {e:?}"),
            }
        }
        // Header corruption.
        let mut bad = good.clone();
        bad[0] ^= 1;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Wal::open(&dir, 2),
            Err(WalError::HeaderCorrupt { .. })
        ));
        // Generation mismatch.
        fs::write(&path, &good).unwrap();
        fs::rename(&path, dir.join(wal_file_name(3))).unwrap();
        assert!(matches!(
            Wal::open(&dir, 3),
            Err(WalError::GenerationMismatch {
                found: 2,
                expected: 3
            })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_exposes_prefix_boundaries() {
        let dir = scratch_dir("scan");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for k in 0..4 {
            wal.append(WalRecord::DeleteVertex(v(k))).unwrap();
        }
        let path = wal.path().to_path_buf();
        drop(wal);
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 4);
        assert_eq!(s.ends.len(), 4);
        let full = fs::read(&path).unwrap();
        assert_eq!(*s.ends.last().unwrap(), full.len() as u64);
        // Each prefix is itself a valid log with k records.
        for k in 0..4usize {
            let end = if k == 0 {
                WAL_HEADER_BYTES
            } else {
                s.ends[k - 1]
            };
            fs::write(&path, &full[..end as usize]).unwrap();
            let p = scan(&path).unwrap();
            assert_eq!(p.records.len(), k);
            assert_eq!(p.truncated_bytes, 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
