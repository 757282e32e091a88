//! A generation's level edge sets, and the point lists labels are derived
//! from.
//!
//! Whether two stored points are joined in `H_i(v)` depends on the pair
//! alone (PAPER.md §2.2), so a label `L(v)` is its point lists — per
//! level, the stored net points of `B(v, rᵢ)` with their distances from
//! `v` — plus one edge set `Eᵢ` per level that every label of the
//! generation shares (see [`crate::Labeling`]). [`EdgeSets`] is the shared
//! part; a *points record* ([`points_record`]) is the per-vertex part;
//! [`EdgeSets::label`] derives the label from the two: its points, and per
//! point its row in `Eᵢ`. The derived label equals the one the builder
//! materializes, so [`crate::codec`] encodes it to the same bytes: the
//! self-contained label stays the paper's unit of size, and stops being the
//! unit of storage and transfer. A store segment holds one copy of the edge
//! sets and a points record per vertex ([`crate::store`]); a shard serves
//! both over the wire and the router derives the labels a query reads.
//!
//! ## Byte forms
//!
//! All integers little-endian. The edge sets are fixed-width, so reading
//! them is a copy and a bounds check, not a varint decode:
//!
//! ```text
//! edge sets := first_level:u32 levels:u32 checksum:u64
//!              (len:u64 block[len])^levels
//! block     := P:u32 vertex:u32^P net_level:u32^P rows(virtual) rows(real)
//!              checksum:u64
//! rows      := E:u32 [offset:u32^(P+1) target:u32^E (dist:u32^E)]   (E > 0)
//! ```
//!
//! A block's points are its level's stored net in id order; row `a` holds
//! the edges `(a, b)` with `b > a`, targets ascending. A points record is
//! LEB128 varints and holds no net levels (the blocks have them):
//!
//! ```text
//! record := owner (count (id_delta dist)^count)^levels checksum:u64
//! ```
//!
//! with each id the previous one plus its delta (the first from 0).
//!
//! Every byte is untrusted: decoding is total and returns a typed
//! [`CodecError`]. The word-wide [`checksum`] closing each block and each
//! record changes under any single-bit flip, and the structural checks
//! (ids ascending, rows in range and above their row, points a subset of
//! the net) make a derived label pass [`Label::validate`] by construction.

use fsdl_graph::NodeId;

use crate::builder::Labeling;
use crate::codec::CodecError;
use crate::label::{EdgeRows, Label, LabelPoint, LevelLabel, RowArc, VirtualArc};
use crate::params::SchemeParams;

/// Bytes of the checksum closing every block and every points record.
const CHECKSUM_BYTES: usize = 8;
/// Ceiling on a level index or net level read from bytes (`c ≤ 64`, and
/// nets above level 64 would need more than `2^64` vertices).
const MAX_PLAUSIBLE_LEVEL: u32 = 65;

/// One generation's `E_{c+1}, E_{c+2}, …`: per label level, the edges of
/// `H_i` between every pair of points of the stored net `N_{i−c−1}`, as a
/// [`LevelLabel`] whose points are that net in id order (each with its
/// maximal net level and distance 0).
///
/// Made from a [`Labeling`] ([`EdgeSets::from_labeling`]) or read back
/// from its bytes ([`EdgeSets::decode`]) — a store segment's level blocks
/// or a shard's `edge-sets` reply. Labels are derived from it with
/// [`EdgeSets::label`].
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeSets {
    first_level: u32,
    levels: Vec<LevelLabel>,
}

impl EdgeSets {
    /// The labeling's edge sets, enumerating any level no label has
    /// needed yet. The rows are shared with the labeling's, not copied.
    pub fn from_labeling(labeling: &Labeling) -> EdgeSets {
        let params = labeling.params();
        EdgeSets {
            first_level: params.c() + 1,
            levels: params
                .levels()
                .map(|i| labeling.level_edges(i).clone())
                .collect(),
        }
    }

    /// Bytes held: every level's points and edge rows (see
    /// [`crate::LabelPlaneStats`]).
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.levels.iter().map(|set| set.resident_bytes(true)).sum()
    }

    /// Points of the lowest level's net, `N_0 = V`: the vertex count of the
    /// graph the generation labels.
    fn num_vertices(&self) -> usize {
        self.levels.first().map_or(0, |level| level.points.len())
    }

    /// Whether these edge sets have the shape `params` schedules — levels
    /// `c + 1, c + 2, …`, as many as the schedule has, over its `n`
    /// vertices — as edge sets read from untrusted bytes must before any
    /// label is derived from them for that schedule.
    ///
    /// # Errors
    ///
    /// A description of the first disagreement.
    pub fn check_schedule(&self, params: &SchemeParams) -> Result<(), String> {
        let shape = (self.first_level, self.levels.len(), self.num_vertices());
        let scheduled = (params.c() + 1, params.num_levels(), params.n());
        if shape == scheduled {
            return Ok(());
        }
        Err(format!(
            "edge sets hold levels {}.. ({} of them) over {} vertices; the schedule has \
             levels {}.. ({}) over {}",
            shape.0, shape.1, shape.2, scheduled.0, scheduled.1, scheduled.2
        ))
    }

    /// The byte form (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.first_level);
        put_u32(&mut out, self.levels.len() as u32);
        let sum = checksum(&out);
        put_u64(&mut out, sum);
        for level in &self.levels {
            let at = out.len();
            put_u64(&mut out, 0);
            let start = out.len();
            put_u32(&mut out, level.points.len() as u32);
            for p in &level.points {
                put_u32(&mut out, p.vertex.raw());
            }
            for p in &level.points {
                put_u32(&mut out, p.net_level);
            }
            put_rows(&mut out, &level.virt, |arc| Some(arc.dist));
            put_rows(&mut out, &level.real, |_| None);
            let sum = checksum(&out[start..]);
            put_u64(&mut out, sum);
            let len = (out.len() - start) as u64;
            out[at..start].copy_from_slice(&len.to_le_bytes());
        }
        out
    }

    /// Reads edge sets back from [`EdgeSets::encode`]'s bytes, verifying
    /// every block's checksum and structure.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] (byte offset × 8) on any malformation; never
    /// panics.
    pub fn decode(bytes: &[u8]) -> Result<EdgeSets, CodecError> {
        let header = bytes.get(..8 + CHECKSUM_BYTES).unwrap_or(bytes);
        verified(header, 0, "edge sets header")?;
        let mut r = Reader::new(bytes, 0);
        let first_level = r.u32("first level")?;
        let count = r.u32("level count")?;
        r.u64("header checksum")?;
        if first_level > MAX_PLAUSIBLE_LEVEL || count > MAX_PLAUSIBLE_LEVEL {
            return Err(r.fail(format!(
                "implausible levels {first_level}.. ({count} of them)"
            )));
        }
        let mut levels = Vec::with_capacity(count as usize);
        for k in 0..count {
            let len = r.u64("block length")?;
            let len = usize::try_from(len).map_err(|_| r.fail(format!("block length {len}")))?;
            let at = r.pos;
            let block = r.take(len, "block")?;
            let level = decode_block(block, at).map_err(|e| CodecError {
                message: format!("level block {k}: {}", e.message),
                ..e
            })?;
            levels.push(level);
        }
        r.finish()?;
        Ok(EdgeSets {
            first_level,
            levels,
        })
    }

    /// Derives `v`'s label from a points record ([`points_record`]):
    /// each level's points, with their net levels from the blocks and their
    /// rows in `Eᵢ`, whose rows the level shares — the builder's own
    /// `LevelLabel::restricted_to`; nothing else is computed. The label
    /// equals the builder's for the same vertex, bit for bit.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] when the record fails its checksum, does not
    /// parse, belongs to a vertex other than `v`, or names a point that is
    /// not a strictly ascending member of its level's net; never panics.
    pub fn label(&self, v: NodeId, record: &[u8]) -> Result<Label, CodecError> {
        let body = verified(record, 0, "points record")?;
        let mut r = Reader::new(body, 0);
        let owner = NodeId::new(r.varint_u32("owner")?);
        if owner != v {
            return Err(r.fail(format!("the record is {owner}'s, not {v}'s")));
        }
        let owner_net_level = self
            .levels
            .first()
            .and_then(|low| low.find_point(owner))
            .ok_or_else(|| r.fail(format!("owner {owner} is not a vertex of the edge sets")))?
            .net_level;
        let mut levels = Vec::with_capacity(self.levels.len());
        for (k, set) in self.levels.iter().enumerate() {
            let count = r.varint("point count")?;
            // Each point takes two bytes at least, and is a net point.
            if count > (r.remaining() / 2) as u64 || count > set.points.len() as u64 {
                return Err(r.fail(format!(
                    "level {k} claims {count} points of a {}-point net",
                    set.points.len()
                )));
            }
            let mut points = Vec::with_capacity(count as usize);
            let mut id = 0u32;
            for _ in 0..count {
                // Clamped so the sum cannot overflow; anything past
                // `u32::MAX` is refused either way.
                let delta = r.varint("point id delta")?;
                id = u32::try_from(u64::from(id) + delta.min(1 << 32))
                    .map_err(|_| r.fail(format!("point id {id} + {delta} exceeds u32")))?;
                points.push(LabelPoint {
                    vertex: NodeId::new(id),
                    dist: r.varint_u32("point distance")?,
                    net_level: 0,
                });
            }
            let level = set
                .restricted_to(points)
                .map_err(|e| r.fail(format!("level {k}: {}", e.message)))?;
            levels.push(level);
        }
        r.finish()?;
        Ok(Label {
            owner,
            owner_net_level,
            first_level: self.first_level,
            levels,
        })
    }
}

/// The points record of `label` (see the module docs): what a store keeps
/// per vertex, and what a shard serves per fetched id.
pub fn points_record(label: &Label) -> Vec<u8> {
    let points: usize = label.levels.iter().map(|l| l.points.len()).sum();
    let mut out = Vec::with_capacity(4 * points + 16);
    put_varint(&mut out, u64::from(label.owner.raw()));
    for level in &label.levels {
        put_varint(&mut out, level.points.len() as u64);
        let mut prev = 0u32;
        for p in &level.points {
            // Wrapping: a list out of order (only a hand-edited label has
            // one) gives a delta no derivation accepts.
            put_varint(&mut out, u64::from(p.vertex.raw().wrapping_sub(prev)));
            put_varint(&mut out, u64::from(p.dist));
            prev = p.vertex.raw();
        }
    }
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out
}

/// The 64-bit checksum closing every block and points record, and the
/// fingerprint a shard reports for its edge sets. It reads eight bytes a
/// step on four independent lanes, so unlike byte-serial FNV it is not
/// one multiply chain per byte. Each step `h ← rotl((h ⊕ w)·K, 31)` is a
/// bijection of the lane for a fixed word and injective in the word, the
/// lanes meet by rotate-and-xor and the finish is the bijective `fmix64`;
/// so a change confined to one word — every single-bit flip — changes the
/// checksum of an input of the same length.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(31);
    let len = bytes.len() as u64;
    let mut lanes = [len, len ^ K, len.rotate_left(16) ^ K, !len];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        for (lane, word) in lanes.iter_mut().zip(padded.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let mut h =
        lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// `bytes` without its closing checksum, once that checksum matches.
/// `at` is where `bytes` starts in the input, for error offsets.
fn verified<'a>(bytes: &'a [u8], at: usize, what: &str) -> Result<&'a [u8], CodecError> {
    let Some(split) = bytes.len().checked_sub(CHECKSUM_BYTES) else {
        return Err(CodecError::new(
            at * 8,
            format!(
                "{what} is {} bytes, too short for its checksum",
                bytes.len()
            ),
        ));
    };
    let (body, sum) = bytes.split_at(split);
    let recorded = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
    let computed = checksum(body);
    if recorded != computed {
        return Err(CodecError::new(
            (at + split) * 8,
            format!("{what} checksum mismatch: recorded {recorded:016x}, computed {computed:016x}"),
        ));
    }
    Ok(body)
}

/// Parses one level block (`at` is its offset in the edge sets' bytes).
fn decode_block(block: &[u8], at: usize) -> Result<LevelLabel, CodecError> {
    let mut r = Reader::new(verified(block, at, "block")?, at);
    let num_points = r.u32("point count")? as usize;
    let vertices = r.u32s(num_points, "point ids")?;
    let net_levels = r.u32s(num_points, "net levels")?;
    if let Some(w) = vertices.windows(2).find(|w| w[0] >= w[1]) {
        return Err(r.fail(format!("net points not ascending at {}", w[1])));
    }
    if let Some(l) = net_levels.iter().find(|&&l| l > MAX_PLAUSIBLE_LEVEL) {
        return Err(r.fail(format!("implausible net level {l}")));
    }
    let points = vertices
        .into_iter()
        .zip(net_levels)
        .map(|(v, net_level)| LabelPoint {
            vertex: NodeId::new(v),
            dist: 0,
            net_level,
        })
        .collect();
    let virt = read_rows(&mut r, num_points, "virtual", true, |b, dist| VirtualArc {
        b,
        dist,
    })?;
    let real = read_rows(&mut r, num_points, "real", false, |b, _| b)?;
    r.finish()?;
    Ok(LevelLabel::with_own_rows(points, virt, real))
}

fn put_rows<T: RowArc>(out: &mut Vec<u8>, rows: &EdgeRows<T>, weight: impl Fn(T) -> Option<u32>) {
    put_u32(out, rows.len() as u32);
    if rows.len() == 0 {
        return;
    }
    for &o in rows.offsets() {
        put_u32(out, o);
    }
    for &arc in rows.arcs() {
        put_u32(out, arc.target());
    }
    for w in rows.arcs().iter().filter_map(|&arc| weight(arc)) {
        put_u32(out, w);
    }
}

/// Reads one edge kind's rows over `num_points` points and checks them:
/// offsets from 0 to `E`, non-decreasing; in row `a` targets ascending,
/// above `a` and below `num_points`.
fn read_rows<T: RowArc>(
    r: &mut Reader<'_>,
    num_points: usize,
    kind: &str,
    weighted: bool,
    make: impl Fn(u32, u32) -> T,
) -> Result<EdgeRows<T>, CodecError> {
    let edges = r.u32("edge count")? as usize;
    if edges == 0 {
        return Ok(EdgeRows::default());
    }
    let off = r.u32s(num_points + 1, "row offsets")?;
    let targets = r.take(4 * edges, "edge targets")?.chunks_exact(4);
    let fwd: Vec<T> = if weighted {
        let weights = r.take(4 * edges, "edge distances")?.chunks_exact(4);
        targets
            .zip(weights)
            .map(|(b, w)| make(le(b), le(w)))
            .collect()
    } else {
        targets.map(|b| make(le(b), 0)).collect()
    };
    if off[0] != 0 || off[num_points] as usize != edges || off.windows(2).any(|w| w[0] > w[1]) {
        return Err(r.fail(format!("{kind} row offsets do not partition {edges} edges")));
    }
    for (a, w) in off.windows(2).enumerate() {
        let mut floor = a as u64;
        for arc in &fwd[w[0] as usize..w[1] as usize] {
            let b = arc.target();
            if u64::from(b) <= floor || b as usize >= num_points {
                return Err(r.fail(format!("{kind} edge ({a}, {b}) out of order or range")));
            }
            floor = u64::from(b);
        }
    }
    Ok(EdgeRows::from_rows(off, fwd))
}

/// A little-endian word from a 4-byte chunk.
fn le(word: &[u8]) -> u32 {
    u32::from_le_bytes(word.try_into().expect("4 bytes"))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A bounds-checked reader; errors carry the bit offset of the failure in
/// the whole input (`base` is where `bytes` starts in it).
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], base: usize) -> Self {
        Reader {
            bytes,
            pos: 0,
            base,
        }
    }

    fn fail(&self, message: impl Into<String>) -> CodecError {
        CodecError::new((self.base + self.pos) * 8, message)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if len > self.remaining() {
            return Err(self.fail(format!(
                "{what} needs {len} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// `count` little-endian words; the length is checked before anything
    /// is allocated.
    fn u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>, CodecError> {
        let len = count
            .checked_mul(4)
            .ok_or_else(|| self.fail(format!("{what}: {count} words")))?;
        Ok(self.take(len, what)?.chunks_exact(4).map(le).collect())
    }

    fn varint(&mut self, what: &str) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1, what)?[0];
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                break;
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.fail(format!("{what}: varint overflows 64 bits")))
    }

    fn varint_u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| self.fail(format!("{what} {v} exceeds u32")))
    }

    fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(self.fail(format!("{extra} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::generators;
    use std::sync::Arc;

    fn sets_and_labels(g: &fsdl_graph::Graph, eps: f64) -> (EdgeSets, Vec<Label>) {
        let labeling = Labeling::build(g, SchemeParams::new(eps, g.num_vertices()));
        let labels = labeling.materialize_all_workers(1);
        (EdgeSets::from_labeling(&labeling), labels)
    }

    #[test]
    fn derived_labels_equal_built_ones_through_both_byte_forms() {
        for (g, eps) in [
            (generators::grid2d(6, 6), 1.0),
            (generators::ladder(64), 1.0),
            (generators::path(120), 0.5),
        ] {
            let (sets, labels) = sets_and_labels(&g, eps);
            let back = EdgeSets::decode(&sets.encode()).expect("decode edge sets");
            assert_eq!(back, sets);
            let params = SchemeParams::new(eps, g.num_vertices());
            assert_eq!(back.check_schedule(&params), Ok(()));
            let other = SchemeParams::new(eps, g.num_vertices() + 1);
            assert!(back.check_schedule(&other).is_err());
            for label in &labels {
                let derived = back
                    .label(label.owner, &points_record(label))
                    .expect("derive");
                assert_eq!(&derived, label);
                assert_eq!(derived.validate(), Ok(()));
            }
        }
    }

    #[test]
    fn whole_net_levels_share_the_decoded_rows() {
        // Every derived level shares the decoded rows; only one that holds
        // part of its net (the ladder has some) keeps a row list.
        for g in [generators::grid2d(6, 6), generators::ladder(64)] {
            let (sets, labels) = sets_and_labels(&g, 1.0);
            let sets = EdgeSets::decode(&sets.encode()).unwrap();
            let derived = sets.label(NodeId::new(7), &points_record(&labels[7]));
            for (level, set) in derived.unwrap().levels.iter().zip(&sets.levels) {
                assert!(Arc::ptr_eq(&level.virt, &set.virt));
                assert!(Arc::ptr_eq(&level.real, &set.real));
                assert_eq!(level.rows.is_none(), level.points.len() == set.points.len());
            }
        }
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_of_a_record() {
        let (_, labels) = sets_and_labels(&generators::ladder(40), 1.0);
        for label in [&labels[0], &labels[21]] {
            let record = points_record(label);
            let body = &record[..record.len() - CHECKSUM_BYTES];
            let sum = checksum(body);
            let mut flipped = body.to_vec();
            for bit in 0..body.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), sum, "bit {bit} of {}", body.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn corrupt_records_and_blocks_are_typed_errors() {
        let (sets, labels) = sets_and_labels(&generators::ladder(40), 1.0);
        let record = points_record(&labels[5]);
        let v = labels[5].owner;
        for at in 0..record.len() {
            let mut bad = record.clone();
            bad[at] ^= 0x10;
            assert!(sets.label(v, &bad).is_err(), "flip at byte {at}");
            assert!(sets.label(v, &record[..at]).is_err(), "cut at byte {at}");
        }
        let bytes = sets.encode();
        for at in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(EdgeSets::decode(&bad).is_err(), "flip at byte {at}");
            assert!(EdgeSets::decode(&bytes[..at]).is_err(), "cut at byte {at}");
        }
    }

    /// An intact record derives only as its own vertex's label.
    #[test]
    fn a_record_derived_as_another_vertex_is_refused() {
        let (sets, labels) = sets_and_labels(&generators::grid2d(6, 6), 1.0);
        let record = points_record(&labels[7]);
        assert_eq!(sets.label(NodeId::new(7), &record).as_ref(), Ok(&labels[7]));
        let err = sets.label(NodeId::new(8), &record).unwrap_err();
        assert!(
            err.message.contains("the record is v7's, not v8's"),
            "{err}"
        );
    }

    /// A record whose checksum is right but whose points are not a
    /// strictly ascending subset of the net is refused by `restricted_to`:
    /// not in the net, repeated, descending, or the whole net's count with
    /// one wrong id.
    #[test]
    fn untrusted_points_are_checked_not_assumed() {
        let (sets, labels) = sets_and_labels(&generators::ladder(256), 1.0);
        // A level above the lowest (whose net is all of V) that stores
        // only part of its net.
        let (label, k) = labels
            .iter()
            .find_map(|l| {
                let k = (1..l.levels.len())
                    .find(|&k| l.levels[k].points.len() < sets.levels[k].points.len())?;
                Some((l, k))
            })
            .expect("the ladder has partial levels");
        let forged = |edit: &dyn Fn(&mut Label)| {
            let mut l = label.clone();
            edit(&mut l);
            sets.label(l.owner, &points_record(&l))
        };
        let net1 = &sets.levels[k];
        let outside = (0..512u32)
            .map(NodeId::new)
            .find(|&v| net1.find_point(v).is_none())
            .expect("a higher net is not all of V");
        let err = forged(&|l| {
            l.levels[k].points[0].vertex = outside;
            l.levels[k].points.sort_by_key(|p| p.vertex);
        });
        assert!(err.is_err_and(|e| e.message.contains("not in the level's net")));
        let err = forged(&|l| {
            let first = l.levels[k].points[0];
            l.levels[k].points.insert(1, first);
        });
        assert!(err.is_err_and(|e| e.message.contains("not above")));
        let err = forged(&|l| l.levels[k].points.swap(0, 1));
        assert!(err.is_err_and(|e| e.message.contains("exceeds u32")));
        let mut descending = label.levels[k].points.clone();
        descending.swap(0, 1);
        let err = net1.restricted_to(descending).unwrap_err();
        assert!(err.message.contains("not above"), "{err}");
        // The whole net's count with one id repeated in place of another.
        let err = forged(&|l| {
            let mut points = sets.levels[0].points.clone();
            points[3] = points[2];
            l.levels[0].points = points;
        });
        assert!(err.is_err_and(|e| e.message.contains("whole-net")));
    }
}
