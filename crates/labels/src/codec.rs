//! Canonical bit encoding of labels.
//!
//! The paper's headline result is a bound on *label length in bits*
//! (`O(1+ε⁻¹)^{2α} log² n`), so the evaluation must measure actual bit
//! strings, not struct sizes. This module provides a [`BitWriter`] /
//! [`BitReader`] pair and a canonical label codec:
//!
//! * vertex ids are fixed-width `⌈log₂ n⌉`-bit integers, except point lists,
//!   which are sorted by id and therefore delta-encoded with a variable
//!   length code;
//! * distances, net levels and counts use the same variable-length code
//!   (4-bit groups with a continuation bit, LEB128 style at bit
//!   granularity);
//! * edges are written as the rows the in-memory level holds them in. Per
//!   level and edge kind (virtual, then real): the edge count, then — when
//!   it is not zero — the length of each of the `P` point rows, then per
//!   edge, row by row, the zigzag delta of its target `b` from the previous
//!   target in its row (from the row index `a` for the first) and, for a
//!   virtual edge, its distance. The row index costs no bits and a target
//!   is mostly one 5-bit group: 10 bits per virtual edge at best, 5 per
//!   real edge;
//! * the payload is followed by a 32-bit FNV-1a checksum over the payload
//!   bits with the layout tag folded in, and decoding requires the input
//!   to end exactly after it. Bytes of an older layout (store format 2)
//!   therefore fail the checksum instead of being parsed as this one.
//!
//! `encode → decode` is the identity (property-tested), so reported sizes
//! are honest: every bit needed to reconstruct the label is counted. The
//! decoder reads one varint at a time, turns the row lengths into the
//! level's row offsets and fills the rows in place; only the transpose is
//! built (`EdgeRows::from_rows`). No serving path runs it: stores, shards
//! and the router derive labels from points records (`crate::edge_sets`),
//! so its readers are `label-fetch` clients and the benchmark's traced
//! layer pass.
//!
//! # Robustness contract
//!
//! Labels are a *wire format*: the decoder treats its input as untrusted
//! bytes. [`decode`] never panics, never loops unboundedly, and never
//! returns a label that fails [`Label::validate`] (ids out of range, a
//! repeated point, an edge index past the point list, a self-loop) —
//! corrupt, truncated, or trailing-garbage inputs yield a typed
//! [`CodecError`]. The checksum makes silent single-field corruption
//! (e.g. a flipped distance bit that still parses) vanishingly unlikely;
//! the structural checks make it impossible for a decoded label to index
//! out of bounds downstream. This contract is enforced by the corruption
//! chaos harness (`labels/tests/chaos.rs` and [`crate::corrupt`]).

use fsdl_graph::NodeId;

use crate::label::{EdgeRows, Label, LabelPoint, LevelLabel, LevelRows, RowArc, VirtualArc};

/// Errors produced when encoding to or decoding from a bit string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Bit offset at which the operation failed.
    pub bit_offset: usize,
    /// Description of the failure.
    pub message: String,
}

impl CodecError {
    pub(crate) fn new(bit_offset: usize, message: impl Into<String>) -> Self {
        CodecError {
            bit_offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "label codec error at bit {}: {}",
            self.bit_offset, self.message
        )
    }
}

impl std::error::Error for CodecError {}

/// An append-only bit string writer.
///
/// # Examples
///
/// ```
/// use fsdl_labels::codec::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3).unwrap();
/// w.write_varint(300);
/// let bits = w.len_bits();
/// let mut r = BitReader::new(w.as_bytes(), bits);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_varint().unwrap(), 300);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.bit_len
    }

    /// The backing bytes (final partial byte zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Appends the low `width` bits of `value`, LSB first.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] (and writes nothing) when `width > 64`
    /// or `value` has set bits at or above position `width`. This is a
    /// fallible contract rather than an assertion so encoders handling
    /// externally supplied field values can surface the problem as a
    /// typed error instead of a panic.
    pub fn write_bits(&mut self, value: u64, width: u32) -> Result<(), CodecError> {
        if width > 64 {
            return Err(CodecError::new(
                self.bit_len,
                format!("write width {width} out of range (max 64)"),
            ));
        }
        if width < 64 && value >= (1u64 << width) {
            return Err(CodecError::new(
                self.bit_len,
                format!("value {value} does not fit in {width} bits"),
            ));
        }
        self.push_bits(value, width);
        Ok(())
    }

    /// Appends the low `width` bits of `value` (callers guarantee
    /// `width <= 64` and that `value` fits), filling up to a byte per
    /// iteration rather than a bit.
    fn push_bits(&mut self, mut value: u64, width: u32) {
        debug_assert!(width <= 64);
        let mut remaining = width;
        while remaining > 0 {
            let off = (self.bit_len % 8) as u32;
            if off == 0 {
                self.bytes.push(0);
            }
            let take = (8 - off).min(remaining);
            let chunk = (value & ((1u64 << take) - 1)) as u8;
            *self.bytes.last_mut().expect("byte pushed above") |= chunk << off;
            value >>= take;
            self.bit_len += take as usize;
            remaining -= take;
        }
    }

    /// Appends a variable-length unsigned integer: groups of 4 value bits
    /// preceded by a continuation bit (5 bits per group). Infallible —
    /// every `u64` has a valid encoding.
    pub fn write_varint(&mut self, mut value: u64) {
        loop {
            let group = value & 0xF;
            value >>= 4;
            let cont = u64::from(value != 0);
            // Continuation bit then the group, fused into one 5-bit
            // append — the same bit layout as writing them separately.
            self.push_bits(cont | (group << 1), 5);
            if value == 0 {
                break;
            }
        }
    }
}

/// A bit string reader over a byte slice.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_len: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bit_len` bits of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `bit_len` bits. Decoders
    /// handling untrusted lengths should validate first (as [`decode`]
    /// does) or use [`BitReader::try_new`].
    pub fn new(bytes: &'a [u8], bit_len: usize) -> Self {
        BitReader::try_new(bytes, bit_len).expect("byte slice shorter than bit length")
    }

    /// Fallible constructor: errors (instead of panicking) when `bytes`
    /// holds fewer than `bit_len` bits.
    pub fn try_new(bytes: &'a [u8], bit_len: usize) -> Result<Self, CodecError> {
        if bytes.len().saturating_mul(8) < bit_len {
            return Err(CodecError::new(
                0,
                format!(
                    "byte slice holds {} bits but {bit_len} were declared",
                    bytes.len().saturating_mul(8)
                ),
            ));
        }
        Ok(BitReader {
            bytes,
            bit_len,
            pos: 0,
        })
    }

    /// Current read position in bits.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bit_len - self.pos
    }

    /// Reads `width` bits (LSB first). `read_bits(0)` succeeds, reads
    /// nothing, and returns 0.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when `width > 64` or fewer than `width`
    /// bits remain.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
        if width > 64 {
            return Err(CodecError::new(
                self.pos,
                format!("read width {width} out of range (max 64)"),
            ));
        }
        if (self.remaining() as u64) < u64::from(width) {
            return Err(CodecError::new(
                self.pos,
                format!("need {width} bits, {} remain", self.remaining()),
            ));
        }
        // Bits `off..off + width` of the little-endian word starting at
        // the current byte are exactly the next `width` bits (LSB-first
        // within each byte); `off <= 7` and `width <= 64` always fit in
        // a 16-byte window, gathered byte-wise only near the slice end.
        let byte = self.pos / 8;
        let off = (self.pos % 8) as u32;
        let word = match self.bytes.get(byte..byte + 16) {
            Some(window) => u128::from_le_bytes(window.try_into().expect("16-byte window")),
            None => {
                let mut word = 0u128;
                for (k, &b) in self.bytes[byte..].iter().take(16).enumerate() {
                    word |= u128::from(b) << (8 * k);
                }
                word
            }
        };
        let wide = (word >> off) as u64;
        let value = if width == 64 {
            wide
        } else {
            wide & ((1u64 << width) - 1)
        };
        self.pos += width as usize;
        Ok(value)
    }

    /// Reads a variable-length integer written by [`BitWriter::write_varint`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation or on encodings longer than
    /// [`MAX_VARINT_GROUPS`] groups (10 bytes).
    pub fn read_varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        let mut groups = 0u32;
        loop {
            // One 5-bit read per group: continuation bit, then 4 value
            // bits — identical bit layout to the two-read formulation.
            let chunk = self.read_bits(5)?;
            groups += 1;
            if groups > MAX_VARINT_GROUPS {
                // 16 groups carry 64 value bits — the whole u64 range —
                // so a 17th group is corruption, not a longer value.
                return Err(CodecError::new(
                    self.pos,
                    format!("varint exceeds {MAX_VARINT_GROUPS} groups (10 bytes)"),
                ));
            }
            let cont = chunk & 1;
            let group = chunk >> 1;
            value |= group << shift;
            shift = (shift + 4).min(60);
            if cont == 0 {
                return Ok(value);
            }
        }
    }
}

/// Hard cap on varint length: 16 five-bit groups = 64 value bits = 10
/// encoded bytes. Every `u64` fits in 16 groups, so anything longer is
/// rejected as corruption with a typed [`CodecError`] instead of being
/// caught only by downstream plausibility checks.
pub const MAX_VARINT_GROUPS: u32 = 16;

/// The scratch argument of [`decode_with`]. It holds nothing: [`decode`]
/// needs no buffer.
#[derive(Debug, Default)]
pub struct VarintScratch {}

impl VarintScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        VarintScratch::default()
    }
}

/// Bits needed for a fixed-width vertex id in an `n`-vertex graph.
fn id_width(n: usize) -> u32 {
    fsdl_nets::ceil_log2(n).max(1)
}

/// Width of the checksum trailer appended by [`encode`].
pub const CHECKSUM_BITS: u32 = 32;

/// The label layout this codec writes (rows of zigzag target deltas),
/// the `tag` of every checksum [`encode`] writes and [`decode`] verifies.
/// The layout before it — three independent varints per edge, store
/// format 2 — checksummed with tag 0, so its bytes fail verification here
/// instead of being parsed as this layout, even where both layouts would
/// read the same bits (a label without edges).
const LAYOUT_TAG: u64 = 3;

/// FNV-1a over the first `bit_len` bits of `bytes` (read in 8-bit
/// chunks so the value is independent of byte alignment), started from
/// the offset basis xor `tag` and folded to 32 bits. The payload length
/// is mixed in, so truncations that happen to end on a self-consistent
/// prefix still fail verification.
fn prefix_checksum(bytes: &[u8], bit_len: usize, tag: u64) -> u32 {
    // Eight bits LSB-first are exactly the byte value, so the 8-bit
    // chunked FNV is a plain byte-wise FNV over the whole bytes plus a
    // masked final partial byte — no bit reader needed.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ tag;
    let full = bit_len / 8;
    for &b in &bytes[..full] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let rem = (bit_len % 8) as u32;
    if rem > 0 {
        h ^= u64::from(bytes[full]) & ((1u64 << rem) - 1);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= bit_len as u64;
    h = h.wrapping_mul(0x0000_0100_0000_01B3);
    ((h >> 32) ^ h) as u32
}

/// Encodes a label into its canonical bit string; returns the writer.
///
/// # Errors
///
/// Returns a [`CodecError`] when a label field cannot be represented —
/// in practice only when `label.owner` is not a vertex id of an
/// `n`-vertex graph (it does not fit the `⌈log₂ n⌉`-bit id field).
pub fn try_encode(label: &Label, n: usize) -> Result<BitWriter, CodecError> {
    let w_id = id_width(n);
    let mut w = BitWriter::new();
    w.write_bits(u64::from(label.owner.raw()), w_id)?;
    w.write_varint(u64::from(label.owner_net_level));
    w.write_varint(u64::from(label.first_level));
    w.write_varint(label.levels.len() as u64);
    for level in &label.levels {
        encode_level(level, &mut w);
    }
    let checksum = prefix_checksum(w.as_bytes(), w.len_bits(), LAYOUT_TAG);
    w.write_bits(u64::from(checksum), CHECKSUM_BITS)?;
    Ok(w)
}

/// Encodes a label into its canonical bit string; returns the writer.
///
/// # Panics
///
/// Panics when the label's owner id does not fit the id field for an
/// `n`-vertex graph; use [`try_encode`] to handle that as an error.
pub fn encode(label: &Label, n: usize) -> BitWriter {
    try_encode(label, n).expect("label fields fit the codec for this n")
}

fn encode_level(level: &LevelLabel, w: &mut BitWriter) {
    w.write_varint(level.points.len() as u64);
    let mut prev = 0u64;
    for (k, p) in level.points.iter().enumerate() {
        let id = u64::from(p.vertex.raw());
        // Points are sorted by id: delta-encode.
        let delta = if k == 0 { id } else { id - prev };
        prev = id;
        w.write_varint(delta);
        w.write_varint(u64::from(p.dist));
        w.write_varint(u64::from(p.net_level));
    }
    let num_points = level.points.len();
    encode_rows(level.virtual_rows(), num_points, w, |w, arc| {
        w.write_varint(u64::from(arc.dist));
    });
    encode_rows(level.real_rows(), num_points, w, |_, _| {});
}

/// Writes one edge section: the edge count, then — unless it is zero —
/// the length of each of the `num_points` rows, then row by row each arc
/// as the zigzag delta of its target from the previous target in its row
/// (from the row index for the first), followed by what `payload` writes.
/// A point list shortened after the level was built leaves edges outside
/// the rows written or targets past it, and [`decode`] rejects both.
fn encode_rows<T: RowArc>(
    rows: LevelRows<'_, T>,
    num_points: usize,
    w: &mut BitWriter,
    payload: impl Fn(&mut BitWriter, T),
) {
    let count = rows.len();
    w.write_varint(count as u64);
    if count == 0 {
        return;
    }
    for a in 0..num_points {
        w.write_varint(rows.row_len(a) as u64);
    }
    for a in 0..num_points {
        let mut prev = a as u32;
        for arc in rows.outgoing(a) {
            w.write_varint(zigzag(i64::from(arc.target()) - i64::from(prev)));
            payload(w, arc);
            prev = arc.target();
        }
    }
}

/// Maps a signed delta to an unsigned varint value, small magnitudes of
/// either sign to small values: 0, -1, 1, -2, … → 0, 1, 2, 3, ….
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`], as the two's-complement `u64` of the delta, so
/// a target is `prev.wrapping_add(unzigzag(z))`. For `prev < 2³²` that
/// lands in `0..P` exactly when the true sum does — a delta is at most
/// `2⁶³` in magnitude, too small to wrap around onto a valid index.
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Length in bits of the canonical encoding of `label` (checksum
/// trailer included).
pub fn encoded_bits(label: &Label, n: usize) -> usize {
    encode(label, n).len_bits()
}

/// Length in bits under the *fixed-width* encoding the paper's Lemma 2.5
/// accounting assumes: every vertex id and distance costs `⌈log₂ n⌉` bits,
/// every edge-endpoint index costs `⌈log₂(points)⌉` bits, and counts cost
/// `⌈log₂ n⌉` bits. Reported alongside the varint size in `exp_t2` so the
/// measured `log² n` law is codec-independent.
pub fn encoded_bits_fixed(label: &Label, n: usize) -> usize {
    let w = id_width(n) as usize;
    let mut bits = w; // owner
    bits += 6; // owner_net_level (log log n scale)
    bits += 6 + 6; // first_level + level count
    for level in &label.levels {
        bits += w; // point count
        let k = level.points.len().max(2);
        let idx_w = fsdl_nets::ceil_log2(k).max(1) as usize;
        // Each point: delta-free id + distance + net level.
        bits += level.points.len() * (w + w + 6);
        bits += w; // virtual edge count
        bits += level.num_virtual_edges() * (idx_w + idx_w + w);
        bits += w; // real edge count
        bits += level.num_real_edges() * (idx_w + idx_w);
    }
    bits
}

/// Upper bound on plausible net levels; mirrors the 64-level cap
/// enforced on encode paths (level indices are `O(log n)` and `n` fits
/// in 32 bits, so anything past 64 is corruption).
const MAX_PLAUSIBLE_LEVEL: u64 = 64;

/// Decodes a label from its canonical bit string.
///
/// The input is treated as untrusted: this function never panics.
/// Beyond structural parsing, it verifies that
///
/// * every vertex id (owner and points) is `< n`, and point ids ascend
///   strictly,
/// * distances fit `u32` and net levels are plausible (`<= 64`),
/// * declared element counts fit in the remaining input, and each edge
///   section's row lengths add up to its count,
/// * every edge target indexes the point list and differs from its row
///   (no self-loops),
/// * the checksum trailer matches and no bits trail it.
///
/// A label it returns therefore passes [`Label::validate`].
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated, malformed, corrupt, or
/// oversized input.
pub fn decode(bytes: &[u8], bit_len: usize, n: usize) -> Result<Label, CodecError> {
    let w_id = id_width(n);
    let mut r = BitReader::try_new(bytes, bit_len)?;
    let owner_raw = r.read_bits(w_id)?;
    if owner_raw >= n as u64 {
        return Err(CodecError::new(
            r.position(),
            format!("owner id {owner_raw} out of range for n={n}"),
        ));
    }
    let owner = NodeId::new(owner_raw as u32);
    let owner_net_level = read_level(&mut r, "owner net level")?;
    let first_level = read_level(&mut r, "first level")?;
    let num_levels = r.read_varint()? as usize;
    if num_levels as u64 > MAX_PLAUSIBLE_LEVEL {
        return Err(CodecError::new(
            r.position(),
            format!("implausible level count {num_levels}"),
        ));
    }
    let mut levels = Vec::with_capacity(num_levels);
    for _ in 0..num_levels {
        levels.push(decode_level(&mut r, n)?);
    }
    let payload_bits = r.position();
    let expected = prefix_checksum(bytes, payload_bits, LAYOUT_TAG);
    let stored = r.read_bits(CHECKSUM_BITS)? as u32;
    if stored != expected {
        return Err(CodecError::new(
            payload_bits,
            format!("checksum mismatch (stored {stored:#010x}, computed {expected:#010x})"),
        ));
    }
    if r.remaining() != 0 {
        return Err(CodecError::new(
            r.position(),
            format!("{} trailing bits after checksum", r.remaining()),
        ));
    }
    Ok(Label {
        owner,
        owner_net_level,
        first_level,
        levels,
    })
}

/// [`decode`], with `scratch` ignored: a shim for callers that pass one.
///
/// # Errors
///
/// Exactly those of [`decode`].
pub fn decode_with(
    bytes: &[u8],
    bit_len: usize,
    n: usize,
    _scratch: &mut VarintScratch,
) -> Result<Label, CodecError> {
    decode(bytes, bit_len, n)
}

/// Reads a varint that must be a plausible net/scale level (`<= 64`).
fn read_level(r: &mut BitReader<'_>, what: &str) -> Result<u32, CodecError> {
    let v = r.read_varint()?;
    if v > MAX_PLAUSIBLE_LEVEL {
        return Err(CodecError::new(
            r.position(),
            format!("implausible {what} {v}"),
        ));
    }
    Ok(v as u32)
}

/// Reads a varint count and rejects values that could not possibly fit
/// in the remaining input (each element consumes at least
/// `min_bits_per_elem` bits), bounding both decode time and allocation.
fn read_count(
    r: &mut BitReader<'_>,
    min_bits_per_elem: usize,
    what: &str,
) -> Result<usize, CodecError> {
    let v = r.read_varint()?;
    let cap = (r.remaining() / min_bits_per_elem.max(1)) as u64;
    if v > cap {
        return Err(CodecError::new(
            r.position(),
            format!("{what} count {v} exceeds what the remaining input can hold ({cap})"),
        ));
    }
    Ok(v as usize)
}

/// Fewest bits each element of a level can take — three one-group varints
/// for a point (id delta, distance, net level), two for a virtual edge
/// (target delta, distance), one for a real edge — which is what
/// [`read_count`] bounds the declared counts by.
const POINT_MIN_BITS: usize = 15;
const VIRTUAL_EDGE_MIN_BITS: usize = 10;
const REAL_EDGE_MIN_BITS: usize = 5;

fn decode_level(r: &mut BitReader<'_>, n: usize) -> Result<LevelLabel, CodecError> {
    let num_points = read_count(r, POINT_MIN_BITS, "point")?;
    let mut points = Vec::with_capacity(num_points);
    let mut prev = 0u64;
    for k in 0..num_points {
        let delta = r.read_varint()?;
        let id = if k == 0 {
            delta
        } else if delta == 0 {
            return Err(CodecError::new(r.position(), "repeated point id"));
        } else {
            prev.checked_add(delta)
                .ok_or_else(|| CodecError::new(r.position(), "point id delta overflows"))?
        };
        prev = id;
        if id >= n as u64 {
            return Err(CodecError::new(
                r.position(),
                format!("point id {id} out of range for n={n}"),
            ));
        }
        let dist = read_u32(r, "point distance")?;
        let net_level = read_level(r, "point net level")?;
        points.push(LabelPoint {
            vertex: NodeId::new(id as u32),
            dist,
            net_level,
        });
    }
    let virt = read_rows(
        r,
        num_points,
        VIRTUAL_EDGE_MIN_BITS,
        "virtual edge",
        |r, b| {
            let dist = read_u32(r, "virtual edge distance")?;
            Ok(VirtualArc { b, dist })
        },
    )?;
    let real = read_rows(r, num_points, REAL_EDGE_MIN_BITS, "real edge", |_, b| Ok(b))?;
    Ok(LevelLabel::with_own_rows(points, virt, real))
}

/// Reads one edge section written by [`encode_rows`] a varint at a time,
/// checking each field as it is read, straight into rows; `arc` reads
/// what follows a target.
fn read_rows<T: RowArc>(
    r: &mut BitReader<'_>,
    num_points: usize,
    min_bits: usize,
    what: &str,
    mut arc: impl FnMut(&mut BitReader<'_>, u32) -> Result<T, CodecError>,
) -> Result<EdgeRows<T>, CodecError> {
    let count = read_count(r, min_bits, what)?;
    if count == 0 {
        return Ok(EdgeRows::default());
    }
    let lengths = (0..num_points)
        .map(|_| r.read_varint())
        .collect::<Result<Vec<u64>, _>>()?;
    let off = row_offsets(r, &lengths, count, what)?;
    let mut fwd = Vec::with_capacity(count);
    for (a, w) in off.windows(2).enumerate() {
        let mut prev = a as u64;
        for _ in w[0]..w[1] {
            let b = prev.wrapping_add(unzigzag(r.read_varint()?));
            if b >= num_points as u64 {
                return Err(CodecError::new(
                    r.position(),
                    format!("{what} target out of range"),
                ));
            }
            if b == a as u64 {
                return Err(CodecError::new(r.position(), format!("{what} self-loop")));
            }
            fwd.push(arc(r, b as u32)?);
            prev = b;
        }
    }
    Ok(EdgeRows::from_rows(off, fwd))
}

/// Turns an edge section's row lengths into its row offsets, checking
/// that they add up to the section's edge count, which must fit the
/// `u32` offsets.
fn row_offsets(
    r: &BitReader<'_>,
    lengths: &[u64],
    count: usize,
    what: &str,
) -> Result<Vec<u32>, CodecError> {
    let mismatch = || {
        CodecError::new(
            r.position(),
            format!("{what} row lengths do not add up to the count {count}"),
        )
    };
    if count > u32::MAX as usize {
        return Err(CodecError::new(
            r.position(),
            format!("more than u32::MAX {what}s at one level"),
        ));
    }
    let mut off = Vec::with_capacity(lengths.len() + 1);
    off.push(0);
    let mut total = 0u64;
    for &len in lengths {
        total = total.saturating_add(len);
        if total > count as u64 {
            return Err(mismatch());
        }
        off.push(total as u32);
    }
    if total != count as u64 {
        return Err(mismatch());
    }
    Ok(off)
}

/// Reads a varint that must fit in `u32` (ids, distances, indices).
fn read_u32(r: &mut BitReader<'_>, what: &str) -> Result<u32, CodecError> {
    let v = r.read_varint()?;
    u32::try_from(v)
        .map_err(|_| CodecError::new(r.position(), format!("{what} {v} exceeds u32 range")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{RealEdge, VirtualEdge};

    #[test]
    fn bit_roundtrip_fixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0, 1).unwrap();
        w.write_bits(1, 1).unwrap();
        w.write_bits(0b1011, 4).unwrap();
        w.write_bits(u64::MAX, 64).unwrap();
        w.write_bits(12345, 17).unwrap();
        let mut r = BitReader::new(w.as_bytes(), w.len_bits());
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(17).unwrap(), 12345);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_roundtrip() {
        let values = [
            0u64,
            1,
            15,
            16,
            255,
            256,
            1 << 20,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_varint(v);
        }
        let mut r = BitReader::new(w.as_bytes(), w.len_bits());
        for &v in &values {
            assert_eq!(r.read_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_small_values_are_five_bits() {
        let mut w = BitWriter::new();
        w.write_varint(7);
        assert_eq!(w.len_bits(), 5);
        let mut w = BitWriter::new();
        w.write_varint(16);
        assert_eq!(w.len_bits(), 10);
    }

    #[test]
    fn truncated_read_errors() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2).unwrap();
        let mut r = BitReader::new(w.as_bytes(), w.len_bits());
        assert!(r.read_bits(3).is_err());
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        assert!(r.read_varint().is_err());
    }

    #[test]
    fn write_bits_rejects_oversized_value() {
        let mut w = BitWriter::new();
        let err = w.write_bits(8, 3).unwrap_err();
        assert!(err.message.contains("does not fit"), "{err}");
        // Nothing was written.
        assert_eq!(w.len_bits(), 0);
    }

    #[test]
    fn write_bits_rejects_width_above_64() {
        let mut w = BitWriter::new();
        let err = w.write_bits(0, 65).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert_eq!(w.len_bits(), 0);
        // Width 64 is the documented maximum and works for any value.
        w.write_bits(u64::MAX, 64).unwrap();
        assert_eq!(w.len_bits(), 64);
    }

    #[test]
    fn write_bits_zero_width_is_a_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0).unwrap();
        assert_eq!(w.len_bits(), 0);
        // Nonzero value cannot fit in zero bits.
        assert!(w.write_bits(1, 0).is_err());
    }

    #[test]
    fn read_bits_zero_width_reads_nothing() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1).unwrap();
        let mut r = BitReader::new(w.as_bytes(), w.len_bits());
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.position(), 0);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        // read_bits(0) also succeeds on an exhausted reader.
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn read_bits_rejects_width_above_64() {
        let bytes = [0xFFu8; 16];
        let mut r = BitReader::new(&bytes, 128);
        let err = r.read_bits(65).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        // Position unchanged; valid reads still work.
        assert_eq!(r.position(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn reader_try_new_rejects_short_slice() {
        assert!(BitReader::try_new(&[0u8; 2], 17).is_err());
        assert!(BitReader::try_new(&[0u8; 2], 16).is_ok());
        assert!(BitReader::try_new(&[], usize::MAX).is_err());
    }

    fn sample_label() -> Label {
        Label {
            owner: NodeId::new(12),
            owner_net_level: 2,
            first_level: 3,
            levels: vec![
                LevelLabel::new(
                    vec![
                        LabelPoint {
                            vertex: NodeId::new(3),
                            dist: 9,
                            net_level: 0,
                        },
                        LabelPoint {
                            vertex: NodeId::new(12),
                            dist: 0,
                            net_level: 2,
                        },
                        LabelPoint {
                            vertex: NodeId::new(40),
                            dist: 28,
                            net_level: 5,
                        },
                    ],
                    [VirtualEdge {
                        a: 0,
                        b: 2,
                        dist: 30,
                    }],
                    [RealEdge { a: 0, b: 1 }],
                )
                .unwrap(),
                LevelLabel::default(),
            ],
        }
    }

    #[test]
    fn label_roundtrip() {
        let label = sample_label();
        let w = encode(&label, 50);
        let decoded = decode(w.as_bytes(), w.len_bits(), 50).unwrap();
        assert_eq!(decoded, label);
    }

    #[test]
    fn encoded_bits_matches_encode() {
        let label = sample_label();
        assert_eq!(encoded_bits(&label, 50), encode(&label, 50).len_bits());
    }

    #[test]
    fn try_encode_rejects_owner_out_of_field() {
        // Owner 40 does not fit the 3-bit id field of an 8-vertex graph.
        let label = sample_label();
        assert!(try_encode(&label, 8).is_err());
    }

    #[test]
    fn fixed_width_bits_upper_bound_varint_on_dense_labels() {
        // Fixed-width is codec-independent accounting; for realistic labels
        // (small deltas, small distances) the varint form is smaller.
        let label = sample_label();
        let fixed = encoded_bits_fixed(&label, 50);
        assert!(fixed > 0);
        // Both scale with the same entry counts.
        let empty = Label {
            owner: NodeId::new(0),
            owner_net_level: 0,
            first_level: 3,
            levels: vec![LevelLabel::default()],
        };
        assert!(encoded_bits_fixed(&label, 50) > encoded_bits_fixed(&empty, 50));
    }

    #[test]
    fn decode_rejects_bad_edge_indices() {
        // In range when built, out of range once a point is dropped.
        let mut bad = sample_label();
        bad.levels[0].points.pop();
        let w = encode(&bad, 50);
        assert!(decode(w.as_bytes(), w.len_bits(), 50).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let label = sample_label();
        let w = encode(&label, 50);
        assert!(decode(w.as_bytes(), w.len_bits() - 8, 50).is_err());
    }

    #[test]
    fn decode_rejects_declared_length_beyond_buffer() {
        let label = sample_label();
        let w = encode(&label, 50);
        // Claiming more bits than the buffer holds must be a typed error,
        // not a panic.
        assert!(decode(w.as_bytes(), w.as_bytes().len() * 8 + 1, 50).is_err());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let label = sample_label();
        let mut w = encode(&label, 50);
        w.write_bits(0b1, 1).unwrap();
        assert!(decode(w.as_bytes(), w.len_bits(), 50).is_err());
    }

    #[test]
    fn decode_rejects_single_bit_flips() {
        let label = sample_label();
        let w = encode(&label, 50);
        let bits = w.len_bits();
        for flip in 0..bits {
            let mut bytes = w.as_bytes().to_vec();
            bytes[flip / 8] ^= 1 << (flip % 8);
            match decode(&bytes, bits, 50) {
                Err(_) => {}
                Ok(decoded) => panic!(
                    "flip of bit {flip} decoded to a label (owner {:?}) despite checksum",
                    decoded.owner
                ),
            }
        }
    }

    #[test]
    fn decode_rejects_out_of_range_owner() {
        // Encode for a large graph, decode claiming a smaller one: the
        // owner and point ids no longer fit and must be rejected (never
        // returned as out-of-range NodeIds).
        let label = sample_label();
        let w = encode(&label, 50);
        assert!(decode(w.as_bytes(), w.len_bits(), 50).is_ok());
        assert!(decode(w.as_bytes(), w.len_bits(), 5).is_err());
    }

    #[test]
    fn checksum_depends_on_length() {
        // Two payloads that are bit-identical prefixes must not share a
        // checksum (length is mixed in).
        let a = prefix_checksum(&[0u8; 4], 9, LAYOUT_TAG);
        let b = prefix_checksum(&[0u8; 4], 10, LAYOUT_TAG);
        assert_ne!(a, b);
    }

    /// A batch of one to 23 varints of one to sixteen groups each, written
    /// back to back after a random misalignment so they start mid-byte.
    /// Returns the lead width, the values and the writer.
    fn varint_batch(rng: &mut fsdl_testkit::Rng) -> (u32, Vec<u64>, BitWriter) {
        let mut w = BitWriter::new();
        let lead = rng.gen_range(0..8u32);
        w.write_bits(0, lead).unwrap();
        let count = rng.gen_range(1..24usize);
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            // One to sixteen groups: the top set bit picks the length.
            let groups = rng.gen_range(1..17u32);
            let v = match groups {
                1 => rng.gen_range(0..16u64),
                16 => rng.next_u64() | 1 << 63,
                g => (rng.next_u64() >> (68 - 4 * g)) | 1 << (4 * g - 4),
            };
            values.push(v);
            w.write_varint(v);
        }
        (lead, values, w)
    }

    #[test]
    fn varint_batch_matches_sequential_reads() {
        fsdl_testkit::check("varint batch at any offset", 400, |rng| {
            let (lead, values, w) = varint_batch(rng);
            let end = w.len_bits();
            let mut r = BitReader::new(w.as_bytes(), end);
            r.read_bits(lead).unwrap();
            for &v in &values {
                assert_eq!(r.read_varint().unwrap(), v);
            }
            assert_eq!(r.position(), end);
        });
    }

    #[test]
    fn varint_batch_truncation_matches_sequential() {
        fsdl_testkit::check("varint batch truncation", 400, |rng| {
            let (lead, values, w) = varint_batch(rng);
            let end = w.len_bits();
            // Every shorter declared length: a typed error on some varint,
            // never a panic and never a value past the cut.
            for cut in lead as usize..end {
                let mut r = BitReader::new(w.as_bytes(), cut);
                r.read_bits(lead).unwrap();
                let read: Result<Vec<u64>, CodecError> =
                    values.iter().map(|_| r.read_varint()).collect();
                assert!(read.is_err(), "cut {cut} of {end} read every varint");
                assert!(r.position() <= cut);
            }
        });
    }

    #[test]
    fn varint_rejects_more_than_16_groups() {
        // 17 all-continuation groups: a >10-byte varint must be a typed
        // error.
        let mut w = BitWriter::new();
        for _ in 0..17 {
            w.write_bits(0b00001, 5).unwrap(); // cont=1, group=0
        }
        w.write_bits(0, 5).unwrap(); // terminator, never reached
        let mut r = BitReader::new(w.as_bytes(), w.len_bits());
        let err = r.read_varint().unwrap_err();
        assert!(err.message.contains("exceeds 16 groups"), "{err}");
        // 16 groups exactly (u64::MAX) is the legal maximum.
        let mut w = BitWriter::new();
        w.write_varint(u64::MAX);
        assert_eq!(w.len_bits(), 16 * 5);
        let mut r = BitReader::new(w.as_bytes(), w.len_bits());
        assert_eq!(r.read_varint().unwrap(), u64::MAX);
    }

    /// The first `payload_bits` bits of `bytes` followed by the checksum
    /// computed with `tag` — a mutant that gets past the checksum, so the
    /// structural checks alone decide.
    fn reseal(bytes: &[u8], payload_bits: usize, tag: u64) -> (Vec<u8>, usize) {
        let mut w = BitWriter::new();
        let mut r = BitReader::new(bytes, payload_bits);
        while r.remaining() > 0 {
            let k = r.remaining().min(64) as u32;
            w.write_bits(r.read_bits(k).unwrap(), k).unwrap();
        }
        let checksum = prefix_checksum(w.as_bytes(), w.len_bits(), tag);
        w.write_bits(u64::from(checksum), CHECKSUM_BITS).unwrap();
        (w.as_bytes().to_vec(), w.len_bits())
    }

    fn point(v: u32, dist: u32) -> LabelPoint {
        LabelPoint {
            vertex: NodeId::new(v),
            dist,
            net_level: 0,
        }
    }

    fn one_level(level: LevelLabel) -> Label {
        Label {
            owner: NodeId::new(0),
            owner_net_level: 0,
            first_level: 4,
            levels: vec![level],
        }
    }

    #[test]
    fn hand_built_rows_roundtrip_in_stored_order() {
        // An unsorted row (targets 3, 1, 2 from row 0), rows whose first
        // target is below the row index (negative zigzag deltas), and a
        // real-edge row walking down.
        let points = (0..5).map(|v| point(v * 7, v)).collect::<Vec<_>>();
        let e = |a, b, dist| VirtualEdge { a, b, dist };
        let virtual_edges = [e(0, 3, 9), e(0, 1, 2), e(0, 2, 5), e(3, 0, 9), e(4, 1, 3)];
        let real_edges = [RealEdge { a: 4, b: 3 }, RealEdge { a: 4, b: 0 }];
        let level = LevelLabel::new(points, virtual_edges, real_edges).unwrap();
        let label = one_level(level);
        let w = encode(&label, 40);
        assert_eq!(decode(w.as_bytes(), w.len_bits(), 40), Ok(label.clone()));
        assert_eq!(
            label.levels[0].virtual_edges().collect::<Vec<_>>(),
            virtual_edges,
            "stored order is what round-trips"
        );
    }

    #[test]
    fn densest_level_decodes_at_ten_bits_per_virtual_edge() {
        // 64 points, every pair an edge, every target delta 1 and every
        // distance below 16: each virtual edge is two one-group varints.
        // A count bound of 15 bits per virtual edge would reject this.
        let p = 64u32;
        let points = (0..p).map(|v| point(v, v % 16)).collect();
        let edges = (0..p).flat_map(|a| {
            (a + 1..p).map(move |b| VirtualEdge {
                a,
                b,
                dist: (a + b) % 16,
            })
        });
        let label = one_level(LevelLabel::new(points, edges, []).unwrap());
        let num_edges = (p * (p - 1) / 2) as usize;
        let w = encode(&label, 64);
        let edge_bits = w.len_bits() - encoded_bits(&one_level(LevelLabel::default()), 64);
        assert!(
            edge_bits < 64 * 15 + 64 * 10 + 10 * num_edges + 10,
            "{edge_bits} bits for {num_edges} edges"
        );
        assert_eq!(decode(w.as_bytes(), w.len_bits(), 64), Ok(label));
    }

    #[test]
    fn repeated_points_and_self_loops_are_rejected() {
        let repeated = LevelLabel::new(vec![point(3, 1), point(3, 1)], [], []).unwrap();
        let w = encode(&one_level(repeated), 8);
        let err = decode(w.as_bytes(), w.len_bits(), 8).unwrap_err();
        assert!(err.message.contains("repeated point"), "{err}");
        let points = vec![point(1, 1), point(2, 2)];
        let virtual_loop = [VirtualEdge {
            a: 1,
            b: 1,
            dist: 0,
        }];
        let real_loop = [RealEdge { a: 0, b: 0 }];
        for level in [
            LevelLabel::new(points.clone(), virtual_loop, []).unwrap(),
            LevelLabel::new(points.clone(), [], real_loop).unwrap(),
        ] {
            let w = encode(&one_level(level), 8);
            assert!(decode(w.as_bytes(), w.len_bits(), 8).is_err());
        }
    }

    #[test]
    fn untagged_checksum_is_rejected() {
        // New-layout bytes sealed with the pre-row layout's checksum (tag
        // 0) — what an old-layout label looks like to this decoder at best.
        let w = encode(&sample_label(), 50);
        let payload = w.len_bits() - CHECKSUM_BITS as usize;
        let (same, bits) = reseal(w.as_bytes(), payload, LAYOUT_TAG);
        assert_eq!((same.as_slice(), bits), (w.as_bytes(), w.len_bits()));
        let (old, bits) = reseal(w.as_bytes(), payload, 0);
        let err = decode(&old, bits, 50).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
    }

    #[test]
    fn resealed_payload_flips_are_rejected_or_valid_alike() {
        // Every payload bit flipped with the checksum fixed up: the
        // structural checks alone must keep every accepted label valid.
        let points = (0..6).map(|v| point(v * 3, v)).collect::<Vec<_>>();
        let e = |a, b, dist| VirtualEdge { a, b, dist };
        let virtual_edges = [e(0, 2, 4), e(0, 5, 9), e(1, 3, 2), e(4, 0, 7)];
        let real_edges = [RealEdge { a: 0, b: 1 }, RealEdge { a: 2, b: 1 }];
        let label = one_level(LevelLabel::new(points, virtual_edges, real_edges).unwrap());
        let w = encode(&label, 20);
        let payload = w.len_bits() - CHECKSUM_BITS as usize;
        let mut accepted = 0;
        for flip in 0..payload {
            let mut bytes = w.as_bytes().to_vec();
            bytes[flip / 8] ^= 1 << (flip % 8);
            let (bytes, bits) = reseal(&bytes, payload, LAYOUT_TAG);
            if let Ok(decoded) = decode(&bytes, bits, 20) {
                assert_eq!(decoded.validate(), Ok(()), "flip {flip}");
                accepted += 1;
            }
        }
        // Distance and net-level bits can flip to other valid labels.
        assert!(
            accepted > 0 && accepted < payload,
            "{accepted} of {payload}"
        );
    }

    #[test]
    fn grid_labels_stay_small() {
        // Size guard: the row layout's mean label on grid2d(12, 12) at
        // ε = 1 (28 319 bytes under three varints per edge).
        let g = fsdl_graph::generators::grid2d(12, 12);
        let oracle = crate::ForbiddenSetOracle::new(&g, 1.0);
        let n = g.num_vertices();
        let total: usize = (0..n)
            .map(|v| {
                encode(&oracle.label(NodeId::from_index(v)), n)
                    .as_bytes()
                    .len()
            })
            .sum();
        let mean = total as f64 / n as f64;
        assert!(mean <= 13_500.0, "mean encoded label {mean:.0} bytes");
    }
}
