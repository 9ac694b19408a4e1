//! Delta-encoded, bit-packed frames of sealed board history — the cold
//! tier's storage format.
//!
//! A sealed range-span of [`RoundRecord`]s is immutable forever, which
//! makes it a columnar compression target: round numbers become small
//! deltas from the span base, and every `f64` field maps through the
//! order-preserving [`trimgame_numerics::gk::sort_key`] bijection into a
//! `u64` domain where a span's values cluster tightly (consecutive rounds
//! of one collector share exponents and high mantissa bits). Each column
//! is then stored in whichever of two fixed-width layouts is smaller for
//! *that* span:
//!
//! * **Packed** — per-column `min` subtracted, residuals bit-packed at
//!   the width of the largest residual. The right mode for smoothly
//!   varying fields (retained means, m2 accumulators, round deltas).
//! * **Dict** — the column's distinct values in a sorted dictionary,
//!   rows stored as dictionary indices. The right mode for
//!   low-cardinality fields whose values are far apart as integers
//!   (threshold percentiles drawn from a small policy set, quality
//!   scores on an ECDF lattice, constant batch sizes).
//!
//! The `sort_key` mapping is a bijection on *all* 2⁶⁴ bit patterns, so a
//! decode reproduces every field bit-for-bit — including infinity
//! sentinels in empty [`OnlineStats`] and any NaN payloads — which is
//! what lets the tiered board swap a frame in for raw chunks without any
//! reader observing the difference. [`Frame::to_bytes`] /
//! [`Frame::from_bytes`] give the same frame a portable byte layout for
//! the disk spill tier.
//!
//! **Wire format.** `TGF2` (written by [`Frame::to_bytes`]) ends in a
//! trailing [`crc32`] over every preceding byte, so a torn write or bit
//! flip on the spill tier is detected before any structure is trusted
//! ([`FrameError::ChecksumMismatch`]). The unchecksummed `TGF1` layout
//! of earlier builds is rejected as [`FrameError::BadMagic`]. [`Frame::from_bytes`]
//! never panics on arbitrary input: every length, width, dictionary and
//! round-delta invariant is validated with checked arithmetic before a
//! single allocation is sized from untrusted bytes.

use crate::board::RoundRecord;
use std::fmt;
use trimgame_numerics::gk::{key_value, sort_key};
use trimgame_numerics::stats::OnlineStats;

/// Number of packed columns: round delta, threshold percentile, threshold
/// presence + value, received, trimmed, the five raw [`OnlineStats`]
/// accumulator fields, and quality.
const NUM_COLS: usize = 12;

/// Format cap on rows per frame. Real spans hold at most a few thousand
/// records; the cap exists so a corrupt length field can never size a
/// multi-gigabyte decode allocation.
const MAX_FRAME_ROWS: usize = 1 << 24;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time —
/// the workspace vendors no checksum crate.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum guarding the `TGF2` frame
/// trailer and every spill-manifest entry (see [`crate::recover`]).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Bits needed to represent `residual` (0 for a zero residual — constant
/// columns cost no row bits at all).
fn width_for(residual: u64) -> u32 {
    64 - residual.leading_zeros()
}

/// Reads `width` bits starting at absolute bit offset `bit`.
fn read_bits(words: &[u64], bit: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let word = bit / 64;
    let off = bit % 64;
    let have = 64 - off;
    let lo = words[word] >> off;
    // A row never spans more than two words (width ≤ 64).
    let val = if (width as usize) > have {
        lo | (words[word + 1] << have)
    } else {
        lo
    };
    if width == 64 {
        val
    } else {
        val & ((1u64 << width) - 1)
    }
}

/// How one column stores its row values.
#[derive(Debug, Clone, PartialEq)]
enum ColumnMode {
    /// Rows are `min + residual`, residuals bit-packed at `width`.
    Packed { min: u64 },
    /// Rows are indices (bit-packed at `width`) into a sorted dictionary
    /// of the column's distinct values.
    Dict { dict: Vec<u64> },
}

/// One bit-packed column of a frame.
#[derive(Debug, Clone, PartialEq)]
struct Column {
    width: u32,
    mode: ColumnMode,
    words: Vec<u64>,
}

impl Column {
    /// Encodes `values` in whichever mode costs fewer bits.
    fn encode(values: &[u64]) -> Self {
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        let direct_width = width_for(max - min);
        let direct_cost = direct_width as usize * values.len();

        let mut dict: Vec<u64> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let dict_width = width_for(dict.len() as u64 - 1);
        let dict_cost = 64 * dict.len() + dict_width as usize * values.len();

        let (width, mode): (u32, ColumnMode) = if dict_cost < direct_cost {
            (dict_width, ColumnMode::Dict { dict })
        } else {
            (direct_width, ColumnMode::Packed { min })
        };

        let mut words = vec![0u64; (width as usize * values.len()).div_ceil(64)];
        let mut bit = 0usize;
        for &v in values {
            let raw = match &mode {
                ColumnMode::Packed { min } => v - min,
                ColumnMode::Dict { dict } => {
                    dict.binary_search(&v).expect("value is in its dict") as u64
                }
            };
            if width > 0 {
                let word = bit / 64;
                let off = bit % 64;
                words[word] |= raw << off;
                if off + width as usize > 64 {
                    words[word + 1] = raw >> (64 - off);
                }
                bit += width as usize;
            }
        }
        Self { width, mode, words }
    }

    /// The row value at absolute bit offset `bit` (i.e. `idx * width`).
    /// The packed reconstruction wraps: for a frame built by
    /// [`Column::encode`] the sum never overflows (`raw = v - min`), and
    /// wrapping keeps a deserialized-then-corrupt column from panicking
    /// in debug builds instead of decoding to a wrong-but-typed value.
    fn value_at_bit(&self, bit: usize) -> u64 {
        let raw = read_bits(&self.words, bit, self.width);
        match &self.mode {
            ColumnMode::Packed { min } => min.wrapping_add(raw),
            ColumnMode::Dict { dict } => dict[raw as usize],
        }
    }

    fn get(&self, idx: usize) -> u64 {
        self.value_at_bit(idx * self.width as usize)
    }

    /// Heap bytes this column holds resident.
    fn heap_bytes(&self) -> usize {
        let dict_bytes = match &self.mode {
            ColumnMode::Packed { .. } => 0,
            ColumnMode::Dict { dict } => dict.len() * 8,
        };
        self.words.len() * 8 + dict_bytes
    }
}

/// An immutable, delta-encoded, column-packed frame of one sealed span's
/// records. Decodes bit-identically to the records it was built from.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    len: usize,
    base_round: usize,
    last_round: usize,
    columns: Vec<Column>,
}

impl Frame {
    /// Compacts a sealed run of records into a frame.
    ///
    /// # Panics
    /// Panics if `records` is empty or its round numbers are not
    /// nondecreasing (the board's posting contract).
    #[must_use]
    pub fn encode(records: &[RoundRecord]) -> Self {
        assert!(!records.is_empty(), "cannot frame an empty span");
        let base_round = records[0].round;
        let last_round = records[records.len() - 1].round;
        assert!(
            records.windows(2).all(|w| w[0].round <= w[1].round),
            "frame spans must be round-nondecreasing"
        );

        // Absent threshold values take the first present value (or 0) as
        // their fill so they never widen the packed range.
        let fill = records
            .iter()
            .find_map(|r| r.threshold_value)
            .map_or(0, sort_key);

        let mut cols: Vec<Vec<u64>> = (0..NUM_COLS)
            .map(|_| Vec::with_capacity(records.len()))
            .collect();
        for r in records {
            let (n, mean, m2, min, max) = r.retained.raw_parts();
            cols[0].push((r.round - base_round) as u64);
            cols[1].push(sort_key(r.threshold_percentile));
            cols[2].push(u64::from(r.threshold_value.is_some()));
            cols[3].push(r.threshold_value.map_or(fill, sort_key));
            cols[4].push(r.received as u64);
            cols[5].push(r.trimmed as u64);
            cols[6].push(n);
            cols[7].push(sort_key(mean));
            cols[8].push(sort_key(m2));
            cols[9].push(sort_key(min));
            cols[10].push(sort_key(max));
            cols[11].push(sort_key(r.quality));
        }

        Self {
            len: records.len(),
            base_round,
            last_round,
            columns: cols.iter().map(|c| Column::encode(c)).collect(),
        }
    }

    /// Number of records in the frame.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the frame holds no records (never — frames are non-empty
    /// by construction — but the conventional pair of [`Frame::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Round number of the first record.
    #[must_use]
    pub fn base_round(&self) -> usize {
        self.base_round
    }

    /// Round number of the last record.
    #[must_use]
    pub fn last_round(&self) -> usize {
        self.last_round
    }

    /// Decodes the record at row `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    #[must_use]
    pub fn get(&self, idx: usize) -> RoundRecord {
        assert!(idx < self.len, "frame row {idx} out of range {}", self.len);
        let v = |c: usize| self.columns[c].get(idx);
        record_from_raw([
            v(0),
            v(1),
            v(2),
            v(3),
            v(4),
            v(5),
            v(6),
            v(7),
            v(8),
            v(9),
            v(10),
            v(11),
        ])
        .with_base(self.base_round)
    }

    /// A sequential columnar cursor over the rows — the bulk decode path
    /// (each column keeps a running bit offset instead of re-deriving
    /// positions per row).
    #[must_use]
    pub fn cursor(&self) -> FrameCursor<'_> {
        FrameCursor {
            frame: self,
            idx: 0,
            bits: [0; NUM_COLS],
        }
    }

    /// Decodes the whole frame — the inflation path when a cold span is
    /// read back.
    #[must_use]
    pub fn decode(&self) -> Vec<RoundRecord> {
        self.cursor().collect()
    }

    /// Resident heap bytes of the packed representation (the number the
    /// tier budget accounts against).
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.columns.len() * std::mem::size_of::<Column>()
            + self.columns.iter().map(Column::heap_bytes).sum::<usize>()
    }

    /// Serializes the frame to the spill tier's portable byte layout
    /// (little-endian, magic-tagged, CRC-trailed `TGF2`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes() + 64);
        out.extend_from_slice(MAGIC);
        for v in [
            self.len as u64,
            self.base_round as u64,
            self.last_round as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for col in &self.columns {
            match &col.mode {
                ColumnMode::Packed { min } => {
                    out.push(0);
                    out.push(col.width as u8);
                    out.extend_from_slice(&min.to_le_bytes());
                }
                ColumnMode::Dict { dict } => {
                    out.push(1);
                    out.push(col.width as u8);
                    out.extend_from_slice(&(dict.len() as u64).to_le_bytes());
                    for &d in dict {
                        out.extend_from_slice(&d.to_le_bytes());
                    }
                }
            }
            out.extend_from_slice(&(col.words.len() as u64).to_le_bytes());
            for &w in &col.words {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a frame written by [`Frame::to_bytes`] (the
    /// CRC-trailed `TGF2` layout).
    ///
    /// # Errors
    /// Returns a [`FrameError`] if the bytes are truncated, carry the
    /// wrong magic, fail the `TGF2` checksum, or violate the format's
    /// internal invariants. Never panics, whatever the input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        if !bytes.starts_with(MAGIC) {
            return Err(if bytes.len() < MAGIC.len() {
                FrameError::Truncated
            } else {
                FrameError::BadMagic
            });
        }
        // A trailing CRC-32 over everything before it. Verify before
        // trusting any structure.
        if bytes.len() < MAGIC.len() + 4 {
            return Err(FrameError::Truncated);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
        if crc32(payload) != stored {
            return Err(FrameError::ChecksumMismatch);
        }
        Self::parse_body(&payload[MAGIC.len()..])
    }

    /// Parses the frame body (everything between the magic and the
    /// checksum trailer).
    fn parse_body(body: &[u8]) -> Result<Self, FrameError> {
        let mut r = ByteReader {
            bytes: body,
            pos: 0,
        };
        let len = usize::try_from(r.u64()?).map_err(|_| FrameError::Corrupt("row count"))?;
        let base_round =
            usize::try_from(r.u64()?).map_err(|_| FrameError::Corrupt("base round"))?;
        let last_round =
            usize::try_from(r.u64()?).map_err(|_| FrameError::Corrupt("last round"))?;
        if len == 0 {
            return Err(FrameError::Corrupt("empty frame"));
        }
        if len > MAX_FRAME_ROWS {
            return Err(FrameError::Corrupt("row count past format cap"));
        }
        if last_round < base_round {
            return Err(FrameError::Corrupt("round range inverted"));
        }
        let mut columns = Vec::with_capacity(NUM_COLS);
        for _ in 0..NUM_COLS {
            let tag = r.u8()?;
            let width = u32::from(r.u8()?);
            if width > 64 {
                return Err(FrameError::Corrupt("column width > 64"));
            }
            let mode = match tag {
                0 => ColumnMode::Packed { min: r.u64()? },
                1 => {
                    let d = r.u64()? as usize;
                    if d == 0 || d > len {
                        return Err(FrameError::Corrupt("dictionary size out of range"));
                    }
                    // Bound the allocation by the bytes actually present
                    // before sizing a Vec from an untrusted count.
                    if d > r.remaining() / 8 {
                        return Err(FrameError::Truncated);
                    }
                    let mut dict = Vec::with_capacity(d);
                    for _ in 0..d {
                        dict.push(r.u64()?);
                    }
                    if !dict.windows(2).all(|w| w[0] < w[1]) {
                        return Err(FrameError::Corrupt("dictionary not sorted"));
                    }
                    if width_for(d as u64 - 1) > width {
                        return Err(FrameError::Corrupt("dictionary wider than its indices"));
                    }
                    ColumnMode::Dict { dict }
                }
                _ => return Err(FrameError::Corrupt("unknown column mode")),
            };
            let word_count = r.u64()? as usize;
            let expect_words = (width as usize)
                .checked_mul(len)
                .map(|bits| bits.div_ceil(64))
                .ok_or(FrameError::Corrupt("column bit count overflow"))?;
            if word_count != expect_words {
                return Err(FrameError::Corrupt("word count mismatch"));
            }
            if word_count > r.remaining() / 8 {
                return Err(FrameError::Truncated);
            }
            let mut words = Vec::with_capacity(word_count);
            for _ in 0..word_count {
                words.push(r.u64()?);
            }
            columns.push(Column { width, mode, words });
        }
        // Dict indices must stay in range for every row; validate once
        // here so `get` can index unchecked-by-construction.
        for col in &columns {
            if let ColumnMode::Dict { dict } = &col.mode {
                for idx in 0..len {
                    let raw = read_bits(&col.words, idx * col.width as usize, col.width);
                    if raw as usize >= dict.len() {
                        return Err(FrameError::Corrupt("dictionary index out of range"));
                    }
                }
            }
        }
        // Round deltas must stay inside the declared round range, so
        // `with_base` can never overflow past `last_round`.
        let span = (last_round - base_round) as u64;
        for idx in 0..len {
            if columns[0].get(idx) > span {
                return Err(FrameError::Corrupt("round delta out of range"));
            }
        }
        Ok(Self {
            len,
            base_round,
            last_round,
            columns,
        })
    }
}

/// Spill-file magic: "TGF" + format version (CRC-trailed).
const MAGIC: &[u8] = b"TGF2";

/// Rebuilds a record from the twelve raw column values.
fn record_from_raw(v: [u64; NUM_COLS]) -> RawRecord {
    RawRecord(v)
}

/// Intermediate holding raw column values until the base round is known.
struct RawRecord([u64; NUM_COLS]);

impl RawRecord {
    fn with_base(self, base_round: usize) -> RoundRecord {
        let v = self.0;
        RoundRecord {
            round: base_round + v[0] as usize,
            threshold_percentile: key_value(v[1]),
            threshold_value: (v[2] == 1).then(|| key_value(v[3])),
            received: v[4] as usize,
            trimmed: v[5] as usize,
            retained: OnlineStats::from_raw_parts(
                v[6],
                key_value(v[7]),
                key_value(v[8]),
                key_value(v[9]),
                key_value(v[10]),
            ),
            quality: key_value(v[11]),
        }
    }
}

/// Sequential row iterator over a [`Frame`], one running bit cursor per
/// column.
#[derive(Debug)]
pub struct FrameCursor<'a> {
    frame: &'a Frame,
    idx: usize,
    bits: [usize; NUM_COLS],
}

impl Iterator for FrameCursor<'_> {
    type Item = RoundRecord;

    fn next(&mut self) -> Option<RoundRecord> {
        if self.idx >= self.frame.len {
            return None;
        }
        let mut raw = [0u64; NUM_COLS];
        for (c, (out, bit)) in raw.iter_mut().zip(self.bits.iter_mut()).enumerate() {
            let col = &self.frame.columns[c];
            *out = col.value_at_bit(*bit);
            *bit += col.width as usize;
        }
        self.idx += 1;
        Some(record_from_raw(raw).with_base(self.frame.base_round))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.frame.len - self.idx;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for FrameCursor<'_> {}

/// Little-endian pull parser over a spill-file byte slice.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.bytes.len() {
            return Err(FrameError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Why a spilled frame failed to deserialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The byte slice ended before the format did.
    Truncated,
    /// The leading magic/version tag is not this format's.
    BadMagic,
    /// The `TGF2` CRC-32 trailer disagrees with the payload.
    ChecksumMismatch,
    /// A structural invariant of the format is violated.
    Corrupt(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame bytes truncated"),
            Self::BadMagic => write!(f, "not a TGF frame"),
            Self::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            Self::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records(n: usize) -> Vec<RoundRecord> {
        (0..n)
            .map(|i| {
                let mut retained = OnlineStats::new();
                for j in 0..=(i % 5) {
                    retained.push(10.0 + i as f64 * 0.25 + j as f64);
                }
                RoundRecord {
                    round: 100 + i,
                    threshold_percentile: if i % 2 == 0 { 0.7 } else { 0.9 },
                    threshold_value: (i % 3 != 0).then_some(50.0 + (i % 4) as f64),
                    received: 1000,
                    trimmed: i % 17,
                    retained,
                    quality: (i % 64) as f64 / 64.0,
                }
            })
            .collect()
    }

    fn assert_bit_identical(a: &RoundRecord, b: &RoundRecord) {
        assert_eq!(a.round, b.round);
        assert_eq!(
            a.threshold_percentile.to_bits(),
            b.threshold_percentile.to_bits()
        );
        assert_eq!(
            a.threshold_value.map(f64::to_bits),
            b.threshold_value.map(f64::to_bits)
        );
        assert_eq!(a.received, b.received);
        assert_eq!(a.trimmed, b.trimmed);
        let (an, amean, am2, amin, amax) = a.retained.raw_parts();
        let (bn, bmean, bm2, bmin, bmax) = b.retained.raw_parts();
        assert_eq!(an, bn);
        assert_eq!(amean.to_bits(), bmean.to_bits());
        assert_eq!(am2.to_bits(), bm2.to_bits());
        assert_eq!(amin.to_bits(), bmin.to_bits());
        assert_eq!(amax.to_bits(), bmax.to_bits());
        assert_eq!(a.quality.to_bits(), b.quality.to_bits());
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        for n in [1usize, 2, 63, 64, 65, 200] {
            let records = sample_records(n);
            let frame = Frame::encode(&records);
            assert_eq!(frame.len(), n);
            assert_eq!(frame.base_round(), 100);
            assert_eq!(frame.last_round(), 99 + n);
            let decoded = frame.decode();
            assert_eq!(decoded.len(), n);
            for (a, b) in records.iter().zip(&decoded) {
                assert_bit_identical(a, b);
            }
            // Random access agrees with the cursor.
            for idx in [0, n / 2, n - 1] {
                assert_bit_identical(&records[idx], &frame.get(idx));
            }
        }
    }

    #[test]
    fn empty_stats_sentinels_and_absent_thresholds_survive() {
        // Empty OnlineStats carries ±∞ min/max sentinels; records may have
        // no threshold value at all. Both must round-trip exactly.
        let records: Vec<RoundRecord> = (0..10)
            .map(|i| RoundRecord {
                round: 1 + i,
                threshold_percentile: 1.0,
                threshold_value: None,
                received: 0,
                trimmed: 0,
                retained: OnlineStats::new(),
                quality: f64::NEG_INFINITY,
            })
            .collect();
        let frame = Frame::encode(&records);
        for (a, b) in records.iter().zip(frame.decode().iter()) {
            assert_bit_identical(a, b);
        }
    }

    #[test]
    fn compresses_well_below_raw() {
        // Synthetic records whose every field varies record-to-record —
        // harsher than real collector output (the representative ≥4×
        // check runs on actual collector history in the bench crate).
        let records = sample_records(256);
        let frame = Frame::encode(&records);
        let raw = records.len() * std::mem::size_of::<RoundRecord>();
        assert!(
            frame.packed_bytes() * 3 <= raw,
            "frame {} bytes vs raw {} bytes",
            frame.packed_bytes(),
            raw
        );
    }

    #[test]
    fn constant_and_dict_columns_cost_almost_nothing() {
        // All-identical records: every column is width 0 (packed) — the
        // whole frame is headers.
        let records = vec![sample_records(1)[0].clone(); 500];
        let frame = Frame::encode(&records);
        assert!(frame.packed_bytes() < 1024, "{}", frame.packed_bytes());
        for (a, b) in records.iter().zip(frame.decode().iter()) {
            assert_bit_identical(a, b);
        }
    }

    #[test]
    fn serialization_round_trips() {
        let records = sample_records(100);
        let frame = Frame::encode(&records);
        let bytes = frame.to_bytes();
        let back = Frame::from_bytes(&bytes).expect("round trip");
        assert_eq!(frame, back);
        for (a, b) in records.iter().zip(back.decode().iter()) {
            assert_bit_identical(a, b);
        }
    }

    #[test]
    fn deserialization_rejects_corruption() {
        let bytes = Frame::encode(&sample_records(20)).to_bytes();
        assert_eq!(Frame::from_bytes(&[]), Err(FrameError::Truncated));
        // Dropping the last byte breaks the CRC trailer before any
        // structural check runs.
        assert_eq!(
            Frame::from_bytes(&bytes[..bytes.len() - 1]),
            Err(FrameError::ChecksumMismatch)
        );
        // Truncating into the body (trailer gone entirely) is length-caught.
        assert_eq!(
            Frame::from_bytes(&bytes[..MAGIC.len() + 2]),
            Err(FrameError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(Frame::from_bytes(&bad_magic), Err(FrameError::BadMagic));
        // Any single-byte flip in the payload is caught by the checksum.
        let mut flipped = bytes.clone();
        flipped[MAGIC.len() + 24] ^= 0x55;
        assert_eq!(
            Frame::from_bytes(&flipped),
            Err(FrameError::ChecksumMismatch)
        );
        // A flip in the trailer itself likewise fails verification.
        let mut bad_crc = bytes.clone();
        *bad_crc.last_mut().unwrap() ^= 0xFF;
        assert_eq!(
            Frame::from_bytes(&bad_crc),
            Err(FrameError::ChecksumMismatch)
        );
        let shown = format!("{}", FrameError::Corrupt("word count mismatch"));
        assert!(shown.contains("word count"));
        assert!(format!("{}", FrameError::ChecksumMismatch).contains("checksum"));
    }

    #[test]
    fn tgf1_frames_are_rejected_as_bad_magic() {
        let records = sample_records(50);
        let frame = Frame::encode(&records);
        // The unchecksummed v1 wire image: same body, `TGF1` magic, no
        // trailer. It is no longer read.
        let mut v1 = frame.to_bytes();
        v1.truncate(v1.len() - 4);
        v1[..MAGIC.len()].copy_from_slice(b"TGF1");
        assert_eq!(Frame::from_bytes(&v1), Err(FrameError::BadMagic));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    #[should_panic(expected = "empty span")]
    fn encoding_an_empty_span_panics() {
        let _ = Frame::encode(&[]);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn encoding_unsorted_rounds_panics() {
        let mut records = sample_records(3);
        records.reverse();
        let _ = Frame::encode(&records);
    }
}
