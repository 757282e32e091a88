//! Label-corruption chaos harness: systematic mutation of encoded label
//! bit strings, plus a sweep that drives every mutation through the
//! decoder and checks the robustness contract end to end.
//!
//! Labels are a wire format (`O(1+ε⁻¹)^{2α} log² n` bits exchanged
//! between parties, per the paper), so a production decoder must treat
//! them as untrusted bytes. The contract enforced here, for *any*
//! mutation of an encoded label:
//!
//! 1. [`codec::decode`] — the decoder a reader of `label-fetch`
//!    bytes runs — returns `Err(CodecError)` or `Ok(label)`: it never
//!    panics and never loops;
//! 2. if it decodes, the label passes [`fsdl_labels::Label::validate`] (no
//!    reader re-checks it), and running the query with the decoded
//!    label in the fault set never *underestimates* `d_{G∖F'}(s,t)`,
//!    where `F'` is the fault set actually decoded (safety is relative to the labels
//!    received: a corruption that survives the checksum is
//!    indistinguishable from an honestly different query).
//!
//! [`Mutation`] enumerates the corruption classes (bit flips,
//! truncations, extensions, splices between two encodings, and
//! varint-boundary flips); [`mutation_schedule`] derives a deterministic
//! mix of all classes from a seed; [`corruption_sweep`] runs the whole
//! check against ground truth and panics with the reproducing seed and
//! mutation on any violation.

use fsdl_graph::{bfs, FaultSet, NodeId};
use fsdl_labels::{
    codec, query, store, wal, DynamicOracle, ForbiddenSetOracle, OpenMode, QueryLabels,
};
use fsdl_testkit::rng::splitmix64;
use fsdl_testkit::Rng;

/// One corruption applied to an encoded label bit string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Flip the bit at this position.
    FlipBit(usize),
    /// Keep only the first `new_bits` bits.
    Truncate(usize),
    /// Append `extra_bits` pseudo-random bits derived from `seed`.
    Extend {
        /// Number of bits appended.
        extra_bits: usize,
        /// Seed for the appended bits.
        seed: u64,
    },
    /// Replace everything from `prefix_bits` on with the donor encoding's
    /// bits starting at `donor_skip` (cross-breeding two valid labels).
    Splice {
        /// Bits of the victim kept.
        prefix_bits: usize,
        /// Bits of the donor skipped before copying the rest.
        donor_skip: usize,
    },
    /// Flip the bit at `field_offset + 5 * group` — with `field_offset`
    /// at the first varint, this targets the continuation/value boundary
    /// structure of the leading varint groups directly.
    VarintBoundary {
        /// Bit offset where varint groups begin (after the fixed-width
        /// owner id).
        field_offset: usize,
        /// Which 5-bit group to hit.
        group: usize,
    },
}

/// Extracts bit `i` (LSB-first within bytes) from a bit string.
fn get_bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] & (1 << (i % 8)) != 0
}

/// Sets bit `i`, growing the byte vector as needed.
fn set_bit(bytes: &mut Vec<u8>, i: usize, value: bool) {
    while bytes.len() <= i / 8 {
        bytes.push(0);
    }
    if value {
        bytes[i / 8] |= 1 << (i % 8);
    } else {
        bytes[i / 8] &= !(1 << (i % 8));
    }
}

impl Mutation {
    /// Applies the mutation to `(bytes, bit_len)`, returning the mutated
    /// bit string. `donor` supplies the bits for [`Mutation::Splice`]
    /// (ignored otherwise); mutations out of range for the input are
    /// clamped rather than skipped, so every call mutates *something*
    /// whenever the input is non-empty.
    pub fn apply(
        &self,
        bytes: &[u8],
        bit_len: usize,
        donor: Option<(&[u8], usize)>,
    ) -> (Vec<u8>, usize) {
        match *self {
            Mutation::FlipBit(i) => {
                let mut out = bytes.to_vec();
                if bit_len > 0 {
                    let i = i.min(bit_len - 1);
                    out[i / 8] ^= 1 << (i % 8);
                }
                (out, bit_len)
            }
            Mutation::Truncate(new_bits) => {
                let new_bits = new_bits.min(bit_len.saturating_sub(1));
                let mut out = bytes[..new_bits.div_ceil(8)].to_vec();
                // Zero the dead bits of the final partial byte so equal
                // prefixes compare equal.
                if !new_bits.is_multiple_of(8) {
                    if let Some(last) = out.last_mut() {
                        *last &= (1u16 << (new_bits % 8)) as u8 - 1;
                    }
                }
                (out, new_bits)
            }
            Mutation::Extend { extra_bits, seed } => {
                let mut out = bytes.to_vec();
                let mut rng = Rng::seed_from_u64(seed);
                for k in 0..extra_bits {
                    set_bit(&mut out, bit_len + k, rng.gen_bool(0.5));
                }
                (out, bit_len + extra_bits)
            }
            Mutation::Splice {
                prefix_bits,
                donor_skip,
            } => {
                let (dbytes, dbits) = donor.unwrap_or((bytes, bit_len));
                let prefix_bits = prefix_bits.min(bit_len);
                let donor_skip = donor_skip.min(dbits);
                let total = prefix_bits + (dbits - donor_skip);
                let mut out = Vec::with_capacity(total.div_ceil(8));
                for k in 0..prefix_bits {
                    set_bit(&mut out, k, get_bit(bytes, k));
                }
                for k in donor_skip..dbits {
                    set_bit(&mut out, prefix_bits + k - donor_skip, get_bit(dbytes, k));
                }
                (out, total)
            }
            Mutation::VarintBoundary {
                field_offset,
                group,
            } => Mutation::FlipBit(field_offset + 5 * group).apply(bytes, bit_len, donor),
        }
    }
}

/// A deterministic schedule of `count` mutations covering every class:
/// all single-bit flips first (exhaustive when `count` allows), then
/// truncations at every varint-group stride, then varint-boundary flips,
/// then seeded random splices/extensions/flips for the remainder.
/// `field_offset` should be the width of the fixed owner-id field.
pub fn mutation_schedule(
    bit_len: usize,
    field_offset: usize,
    count: usize,
    seed: u64,
) -> Vec<Mutation> {
    let mut out = Vec::with_capacity(count);
    for i in 0..bit_len.min(count) {
        out.push(Mutation::FlipBit(i));
    }
    let mut cut = 0;
    while out.len() < count && cut < bit_len {
        out.push(Mutation::Truncate(cut));
        cut += 5;
    }
    let mut group = 0;
    while out.len() < count && field_offset + 5 * group + 1 < bit_len {
        out.push(Mutation::VarintBoundary {
            field_offset,
            group,
        });
        group += 1;
    }
    let mut state = seed;
    while out.len() < count {
        let r = splitmix64(&mut state);
        let len = bit_len.max(1);
        out.push(match r % 4 {
            0 => Mutation::Splice {
                prefix_bits: (r >> 8) as usize % len,
                donor_skip: (r >> 40) as usize % len,
            },
            1 => Mutation::Extend {
                extra_bits: 1 + (r >> 8) as usize % 64,
                seed: r,
            },
            2 => Mutation::Truncate((r >> 8) as usize % len),
            _ => Mutation::FlipBit((r >> 8) as usize % len),
        });
    }
    out
}

/// Outcome counts of one [`corruption_sweep`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Mutations applied.
    pub attempted: usize,
    /// Mutations rejected by the decoder with a typed `CodecError`.
    pub rejected: usize,
    /// Mutations that decoded to a (necessarily valid) label and whose
    /// query answer was verified sound against ground truth.
    pub decoded_sound: usize,
}

/// Runs a corruption sweep on the encoded label of `fault`: applies
/// `count` scheduled mutations (donor bits come from `donor`'s label)
/// and checks the decode-or-sound contract for the query `(s, t, ·)`.
///
/// # Panics
///
/// Panics — with the seed and the exact mutation in the message — when a
/// mutated label decodes to a label that fails [`fsdl_labels::Label::validate`],
/// or the resulting query answer underestimates
/// the true `d_{G∖F'}(s,t)` for the decoded fault set `F'`. Decoder
/// panics propagate as-is (the chaos tests treat any panic as failure).
pub fn corruption_sweep(
    oracle: &ForbiddenSetOracle,
    s: NodeId,
    t: NodeId,
    fault: NodeId,
    donor: NodeId,
    count: usize,
    seed: u64,
) -> SweepStats {
    let g = oracle.labeling().graph();
    let n = g.num_vertices();
    let params = oracle.params();
    let ls = oracle.label(s);
    let lt = oracle.label(t);
    let lf = oracle.label(fault);
    // Infallible here: both labels were built by the oracle for this n,
    // so their owners fit the id field by construction.
    let enc = codec::try_encode(&lf, n).expect("oracle-built label encodes");
    let donor_enc = codec::try_encode(&oracle.label(donor), n).expect("oracle-built label encodes");
    let field_offset = fsdl_nets::ceil_log2(n).max(1) as usize;

    let mut stats = SweepStats::default();
    for (idx, m) in mutation_schedule(enc.len_bits(), field_offset, count, seed)
        .into_iter()
        .enumerate()
    {
        let (bytes, bits) = m.apply(
            enc.as_bytes(),
            enc.len_bits(),
            Some((donor_enc.as_bytes(), donor_enc.len_bits())),
        );
        if bytes == enc.as_bytes() && bits == enc.len_bits() {
            continue; // identity (e.g. a splice that reassembled the input)
        }
        stats.attempted += 1;
        match codec::decode(&bytes, bits, n) {
            Err(_) => stats.rejected += 1,
            Ok(decoded) => {
                // The mutation survived the checksum: by construction this
                // means it reassembled a valid encoding (e.g. a whole-label
                // splice). What the decoder returns is structurally valid —
                // no reader re-checks it — and the answer must be *sound
                // relative to what it decoded*: no underestimate of
                // d_{G∖F'}.
                if let Err(e) = decoded.validate() {
                    panic!(
                        "corruption sweep seed {seed:#x} mutation #{idx} {m:?}: decoder \
                         returned an invalid label: {e}"
                    );
                }
                let fprime = decoded.owner;
                let faults = QueryLabels {
                    fault_vertices: vec![&decoded],
                    fault_edges: vec![],
                };
                let answer = query(params, &ls, &lt, &faults);
                let truth =
                    bfs::pair_distance_avoiding(g, s, t, &FaultSet::from_vertices([fprime]));
                let sound = match (answer.distance.finite(), truth.finite()) {
                    // INFINITE never underestimates; disconnected truth
                    // cannot be underestimated.
                    (None, _) | (_, None) => true,
                    (Some(a), Some(td)) => a >= td || s == fprime || t == fprime || s == t,
                };
                assert!(
                    sound,
                    "corruption sweep seed {seed:#x} mutation #{idx} {m:?}: decoded label \
                     (owner {fprime}) led to answer {} below truth {} for {s}->{t}",
                    answer.distance, truth
                );
                stats.decoded_sound += 1;
            }
        }
    }
    stats
}

/// One corruption applied to an on-disk segment file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreMutation {
    /// Flip one bit of one byte of the segment file.
    FlipByteBit {
        /// Byte offset into the file.
        byte: usize,
        /// Bit within the byte (0–7).
        bit: u8,
    },
    /// Keep only the first `keep` bytes of the segment file.
    Truncate {
        /// Bytes kept.
        keep: usize,
    },
    /// Append `extra` pseudo-random bytes derived from `seed`.
    Extend {
        /// Bytes appended.
        extra: usize,
        /// Seed for the appended bytes.
        seed: u64,
    },
}

impl StoreMutation {
    /// Applies the mutation to a copy of `bytes`.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match *self {
            StoreMutation::FlipByteBit { byte, bit } => {
                if let Some(b) = out.get_mut(byte) {
                    *b ^= 1 << (bit % 8);
                }
            }
            StoreMutation::Truncate { keep } => out.truncate(keep),
            StoreMutation::Extend { extra, seed } => {
                let mut state = seed;
                for _ in 0..extra {
                    out.push(splitmix64(&mut state) as u8);
                }
            }
        }
        out
    }
}

/// Derives a deterministic schedule of `count` segment-file mutations
/// (bit flips across the whole file, truncations at every region —
/// header, index, payload, checksum — and extensions) for a file of
/// `len` bytes.
pub fn store_mutation_schedule(len: usize, count: usize, seed: u64) -> Vec<StoreMutation> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5e6_3417);
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let m = match k % 3 {
            0 => StoreMutation::FlipByteBit {
                byte: rng.gen_range(0..len.max(1)),
                bit: (rng.next_u64() % 8) as u8,
            },
            1 => StoreMutation::Truncate {
                keep: rng.gen_range(0..len.max(1)),
            },
            _ => StoreMutation::Extend {
                extra: rng.gen_range(1..64usize),
                seed: rng.next_u64(),
            },
        };
        out.push(m);
    }
    out
}

/// Outcome counts of one [`store_corruption_sweep`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSweepStats {
    /// Mutations applied (identity mutations are skipped).
    pub attempted: usize,
    /// Mutations rejected at open time with a typed [`fsdl_labels::StoreError`].
    pub rejected: usize,
    /// Mutations that still opened (e.g. a flip inside an ignored region
    /// that survived the checksum — astronomically rare) whose probe
    /// answers were verified bit-identical to the pristine store's.
    pub opened_sound: usize,
}

/// Chaos sweep over an on-disk label store: applies `count` scheduled
/// corruptions of the current segment file, each in a fresh copy of the
/// store under `scratch`, and asserts the robustness contract:
/// [`ForbiddenSetOracle::open`] either fails with a typed
/// [`fsdl_labels::StoreError`] — never a panic — or serves answers
/// bit-identical to the pristine store's for every probe pair.
///
/// # Panics
///
/// Panics — naming the seed and the exact mutation — when a corrupted
/// store opens and serves a different answer, and propagates any decoder
/// panic (the chaos tests treat either as failure). Also panics when the
/// pristine store at `dir` cannot be opened or scratch I/O fails, since
/// the sweep cannot run at all then.
pub fn store_corruption_sweep(
    dir: &std::path::Path,
    scratch: &std::path::Path,
    g: &fsdl_graph::Graph,
    probes: &[(NodeId, NodeId)],
    count: usize,
    seed: u64,
) -> StoreSweepStats {
    store_corruption_sweep_with(dir, scratch, g, probes, count, seed, OpenMode::Eager)
}

/// [`store_corruption_sweep`] with an explicit [`OpenMode`] for the
/// corrupted copies.
///
/// Under [`OpenMode::Lazy`] the whole-file checksum is *not* verified at
/// open, so points-record corruptions routinely survive to first touch —
/// the contract then leans on the per-record checksum and the oracle's
/// recompute fallback (the level blocks are verified at every open): every probe must still answer bit-identically to
/// the pristine (eagerly opened) store, and nothing may panic. The
/// reference answers are always taken eagerly so the two modes are held
/// to the same ground truth.
///
/// # Panics
///
/// Same contract as [`store_corruption_sweep`].
#[allow(clippy::too_many_arguments)]
pub fn store_corruption_sweep_with(
    dir: &std::path::Path,
    scratch: &std::path::Path,
    g: &fsdl_graph::Graph,
    probes: &[(NodeId, NodeId)],
    count: usize,
    seed: u64,
    mode: OpenMode,
) -> StoreSweepStats {
    let segment = store::read_manifest(dir).expect("pristine store must have a manifest");
    let len = std::fs::metadata(dir.join(&segment.segment))
        .expect("pristine segment must be readable")
        .len() as usize;
    let mutations = store_mutation_schedule(len, count, seed);
    store_mutation_sweep(
        dir,
        scratch,
        g,
        probes,
        &mutations,
        mode,
        &format!("seed {seed:#x}"),
    )
}

/// [`store_corruption_sweep_with`] over the given `mutations` rather than
/// a seeded schedule — how a test covers every byte of one region. The
/// contract and the panics are [`store_corruption_sweep`]'s; `context`
/// names the sweep in them.
pub fn store_mutation_sweep(
    dir: &std::path::Path,
    scratch: &std::path::Path,
    g: &fsdl_graph::Graph,
    probes: &[(NodeId, NodeId)],
    mutations: &[StoreMutation],
    mode: OpenMode,
    context: &str,
) -> StoreSweepStats {
    let manifest = store::read_manifest(dir).expect("pristine store must have a manifest");
    let segment_path = dir.join(&manifest.segment);
    let segment_bytes = std::fs::read(&segment_path).expect("pristine segment must be readable");
    let manifest_bytes =
        std::fs::read(dir.join(store::MANIFEST_NAME)).expect("manifest must be readable");
    let pristine = ForbiddenSetOracle::open(dir, g).expect("pristine store must open");
    let empty = FaultSet::empty();
    let reference: Vec<_> = probes
        .iter()
        .map(|&(s, t)| pristine.query(s, t, &empty))
        .collect();

    let mut stats = StoreSweepStats::default();
    for (idx, m) in mutations.iter().enumerate() {
        let mutated = m.apply(&segment_bytes);
        if mutated == segment_bytes {
            continue;
        }
        stats.attempted += 1;
        let case_dir = scratch.join(format!("case-{idx}"));
        std::fs::create_dir_all(&case_dir).expect("scratch dir");
        std::fs::write(case_dir.join(store::MANIFEST_NAME), &manifest_bytes).expect("scratch io");
        std::fs::write(case_dir.join(&manifest.segment), &mutated).expect("scratch io");
        match ForbiddenSetOracle::open_with(&case_dir, g, mode) {
            Err(_) => stats.rejected += 1,
            Ok(oracle) => {
                for (&(s, t), expected) in probes.iter().zip(&reference) {
                    let got = oracle.query(s, t, &empty);
                    assert_eq!(
                        got,
                        *expected,
                        "store sweep {context} mutation #{idx} {m:?} ({}): corrupted \
                         store opened and answered {s}->{t} differently",
                        mode.name()
                    );
                }
                stats.opened_sound += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&case_dir);
    }
    stats
}

/// Chaos sweep over the write-ahead log of a dynamic-oracle store: applies
/// `count` scheduled corruptions of the current WAL file, each in a fresh
/// copy of the store under `scratch`, and asserts the recovery contract:
/// [`DynamicOracle::open`] either fails with a typed error — never
/// a panic — or recovers exactly a *prefix of the true update history*
/// (the records surviving the scan must equal a prefix of the pristine
/// log) and then answers every probe bit-identically to a reference
/// oracle recovered from that same pristine prefix. Zero silent
/// divergence: no corruption may smuggle in an update that never
/// happened.
///
/// In [`StoreSweepStats`] terms, `rejected` counts typed open failures
/// and `opened_sound` counts prefix recoveries that passed the
/// bit-identity probes.
///
/// # Panics
///
/// Panics — naming the seed and the exact mutation — on any contract
/// violation, and propagates recovery panics (the chaos tests treat
/// either as failure). Also panics when the pristine store or WAL at
/// `dir` is unreadable, since the sweep cannot run at all then.
pub fn wal_corruption_sweep(
    dir: &std::path::Path,
    scratch: &std::path::Path,
    g: &fsdl_graph::Graph,
    probes: &[(NodeId, NodeId)],
    count: usize,
    seed: u64,
) -> StoreSweepStats {
    let manifest = store::read_manifest(dir).expect("pristine store must have a manifest");
    let segment_bytes =
        std::fs::read(dir.join(&manifest.segment)).expect("pristine segment must be readable");
    let manifest_bytes =
        std::fs::read(dir.join(store::MANIFEST_NAME)).expect("manifest must be readable");
    let wal_name = wal::wal_file_name(manifest.generation);
    let wal_bytes = std::fs::read(dir.join(&wal_name)).expect("pristine WAL must be readable");
    let pristine = wal::scan(&dir.join(&wal_name)).expect("pristine WAL must scan clean");
    assert_eq!(pristine.truncated_bytes, 0, "pristine WAL has a torn tail");

    // Lays a store copy down in `case` with the given WAL bytes.
    let write_case = |case: &std::path::Path, wal: &[u8]| {
        std::fs::create_dir_all(case).expect("scratch dir");
        std::fs::write(case.join(store::MANIFEST_NAME), &manifest_bytes).expect("scratch io");
        std::fs::write(case.join(&manifest.segment), &segment_bytes).expect("scratch io");
        std::fs::write(case.join(&wal_name), wal).expect("scratch io");
    };

    let mut stats = StoreSweepStats::default();
    for (idx, m) in store_mutation_schedule(wal_bytes.len(), count, seed)
        .into_iter()
        .enumerate()
    {
        let mutated = m.apply(&wal_bytes);
        if mutated == wal_bytes {
            continue;
        }
        stats.attempted += 1;
        let case_dir = scratch.join(format!("wal-case-{idx}"));
        write_case(&case_dir, &mutated);
        // Scan before opening: open repairs the file in place (torn-tail
        // truncation, possibly a recovery generation), so the forensic
        // view of what survived the corruption must be taken first.
        let scan = wal::scan(&case_dir.join(&wal_name));
        match DynamicOracle::open(&case_dir, g) {
            Err(_) => {
                stats.rejected += 1;
            }
            Ok(oracle) => {
                let scan = scan.unwrap_or_else(|e| {
                    panic!(
                        "wal sweep seed {seed:#x} mutation #{idx} {m:?}: open accepted a \
                         WAL the scan rejects ({e})"
                    )
                });
                let k = scan.records.len();
                assert!(
                    k <= pristine.records.len() && scan.records[..] == pristine.records[..k],
                    "wal sweep seed {seed:#x} mutation #{idx} {m:?}: recovered records are \
                     not a prefix of the true history"
                );
                // Reference: recover from the true history cut at the same
                // prefix — answers must agree bit for bit.
                let cut = k
                    .checked_sub(1)
                    .map_or(wal::WAL_HEADER_BYTES, |i| pristine.ends[i])
                    as usize;
                let ref_dir = scratch.join(format!("wal-ref-{idx}"));
                write_case(&ref_dir, &wal_bytes[..cut]);
                let reference = DynamicOracle::open(&ref_dir, g).unwrap_or_else(|e| {
                    panic!(
                        "wal sweep seed {seed:#x} mutation #{idx} {m:?}: the pristine \
                         {k}-record prefix failed to open ({e})"
                    )
                });
                for &(s, t) in probes {
                    let got = oracle.try_distance(s, t);
                    let expected = reference.try_distance(s, t);
                    assert_eq!(
                        got, expected,
                        "wal sweep seed {seed:#x} mutation #{idx} {m:?}: recovered oracle \
                         answered {s}->{t} differently from the {k}-record reference"
                    );
                }
                let _ = std::fs::remove_dir_all(&ref_dir);
                stats.opened_sound += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&case_dir);
    }
    stats
}
