//! The public board of Fig. 3 — one board type, range-sharded and tiered,
//! plus a venue of boards for concurrent collectors.
//!
//! "A public board, accessible to the adversary, enables the collector to
//! record the untrimmed data (step ①, ⑥)." The board is the white-box
//! channel of the threat model: the adversary "has full knowledge of the
//! strategy employed by the data collector in the previous round, for
//! example, the data collector's trimming positions". It is append-only
//! and thread-safe so concurrent adversary/collector tasks can share it.
//!
//! A [`RangedBoard`] is one collector's history, split into fixed
//! **round-range** spans. Each hot span stores its records **chunked**:
//! full chunks of `CHUNK_CAP` records are sealed into immutable
//! reference-counted slices, and only the open tail stays mutable, so a
//! merged read shares the sealed chunks instead of cloning them. Appends
//! route to the live span in O(1), aggregates ([`RangedBoard::len`],
//! [`RangedBoard::last_round`]) are lock-free counters, and round-keyed
//! reads ([`RangedBoard::round`], [`RangedBoard::for_each_since_round`])
//! binary-search the append-ordered rounds and open only the spans at or
//! after the requested round. Spans behind the live one can be compacted
//! and spilled (see [`crate::compact`]); reads re-inflate them
//! transparently. An engine playing one game posts into
//! [`RangedBoard::unbounded`], a board whose single span never ends.
//!
//! A [`RangedVenue`] is the publication venue of many concurrent
//! collectors: one board per collector, so writers never contend on each
//! other's locks, and [`RangedVenue::merged`] k-way-merges them in
//! `(round, collector)` order for cross-collector observers.

use crate::compact::TierStats;
use crate::fault::{with_retry, FaultLane, FaultSite, RetryPolicy};
use crate::frame::{crc32, Frame};
use crate::locks::{read, write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use trimgame_numerics::stats::OnlineStats;

/// One round's public record.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// The trimming percentile the collector applied this round.
    pub threshold_percentile: f64,
    /// The absolute threshold value that percentile resolved to.
    pub threshold_value: Option<f64>,
    /// Values received this round (benign + poison).
    pub received: usize,
    /// Values trimmed this round.
    pub trimmed: usize,
    /// Summary statistics of the retained (untrimmed) data.
    pub retained: OnlineStats,
    /// `Quality_Evaluation()` score of the received batch.
    pub quality: f64,
}

/// Records per sealed chunk: big enough that a long game seals rarely,
/// small enough that a merged read's tail copy stays trivial.
const CHUNK_CAP: usize = 64;

/// A hot span's chunked append-only storage.
#[derive(Debug, Default)]
struct HotSpan {
    /// Sealed, immutable chunks of exactly [`CHUNK_CAP`] records each.
    sealed: Vec<Arc<[RoundRecord]>>,
    /// The open chunk (`< CHUNK_CAP` records).
    tail: Vec<RoundRecord>,
}

impl HotSpan {
    fn len(&self) -> usize {
        self.sealed.len() * CHUNK_CAP + self.tail.len()
    }

    fn get(&self, idx: usize) -> &RoundRecord {
        let sealed_len = self.sealed.len() * CHUNK_CAP;
        if idx < sealed_len {
            &self.sealed[idx / CHUNK_CAP][idx % CHUNK_CAP]
        } else {
            &self.tail[idx - sealed_len]
        }
    }

    fn push(&mut self, record: RoundRecord) {
        self.tail.push(record);
        if self.tail.len() == CHUNK_CAP {
            self.sealed.push(self.tail.drain(..).collect());
        }
    }

    /// Index of the first record with round `>= round` — a binary search
    /// that relies on append-ordered round numbers (gaps are fine).
    fn start_of(&self, round: usize) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid).round < round {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn for_each_from(&self, from: usize, f: &mut impl FnMut(&RoundRecord)) {
        for i in from..self.len() {
            f(self.get(i));
        }
    }

    /// All records, cloned (the input of a span freeze).
    fn records(&self) -> Vec<RoundRecord> {
        (0..self.len()).map(|i| self.get(i).clone()).collect()
    }

    /// Appends the records at and after index `from` to `out` as shared
    /// segments: an `Arc` bump per sealed chunk, a copy of only the
    /// in-range part of the open tail.
    fn segments_from(&self, from: usize, out: &mut Vec<Segment>) {
        for (c, chunk) in self.sealed.iter().enumerate().skip(from / CHUNK_CAP) {
            out.push(Segment {
                records: chunk.clone(),
                start: from.saturating_sub(c * CHUNK_CAP),
            });
        }
        let tail_from = from.saturating_sub(self.sealed.len() * CHUNK_CAP);
        if tail_from < self.tail.len() {
            out.push(Segment {
                records: self.tail[tail_from..].into(),
                start: 0,
            });
        }
    }
}

/// A non-empty run of stored records, read from `start` on — the unit a
/// [`MergedHistory`] walks. Sealed chunks are shared, not copied.
#[derive(Debug, Clone)]
struct Segment {
    records: Arc<[RoundRecord]>,
    start: usize,
}

impl Segment {
    fn records(&self) -> &[RoundRecord] {
        &self.records[self.start..]
    }
}

/// One logical collector's append-only, thread-safe history, sharded by
/// **round range**: span `s` holds rounds `s·span + 1 ..= (s+1)·span`.
/// Appends route to the live span in O(1) (spans grow lazily), aggregate
/// reads ([`RangedBoard::len`], [`RangedBoard::last_round`]) are
/// lock-free atomics, and ranged reads open only the spans at or after
/// the requested round — a stream with years of history stays O(chunk)
/// hot. Cloning shares the storage (both the collector and the adversary
/// hold the same board).
///
/// Rounds must be posted in nondecreasing order (gaps are fine) for the
/// per-span binary searches to hold.
///
/// **Tiering.** Each span lives in one of three tiers: *hot* (chunked
/// records, the append target), *framed* (compacted into an immutable
/// bit-packed [`Frame`] by a [`crate::compact::Compactor`]), or
/// *spilled* (the frame's bytes written to a disk file, nothing
/// resident). Every read path re-inflates cold spans transparently, so
/// tiering never changes what a reader observes — only where the bytes
/// live. Posts must land in a hot span; compaction only ever freezes
/// spans strictly below the live one, which the nondecreasing-round
/// contract keeps write-free.
#[derive(Debug, Clone)]
pub struct RangedBoard {
    span: usize,
    shared: Arc<BoardState>,
}

/// The storage and counters every clone of one board shares.
#[derive(Debug)]
struct BoardState {
    spans: RwLock<Vec<SpanSlot>>,
    len: AtomicUsize,
    /// Highest posted round; 0 encodes "none" (rounds are 1-based).
    last_round: AtomicUsize,
    /// Tier activity counters (shared venue-wide when the board belongs
    /// to a [`RangedVenue`]).
    stats: Arc<TierStats>,
    /// LRU clock: bumped per cold-capable read, stamped onto the spans
    /// the read touches.
    clock: AtomicU64,
    /// Injected-fault lane for this board's spill I/O (tests and chaos
    /// smokes only; unarmed boards take the fast path).
    faults: OnceLock<FaultLane>,
}

/// The paper's name for the board of Fig. 3; the same type as
/// [`RangedBoard`].
pub type PublicBoard = RangedBoard;

/// One span's storage slot: its tier plus the LRU stamp of the last read
/// that touched it cold.
#[derive(Debug)]
struct SpanSlot {
    tier: SpanTier,
    touched: AtomicU64,
}

impl SpanSlot {
    fn hot() -> Self {
        Self {
            tier: SpanTier::Hot(Arc::default()),
            touched: AtomicU64::new(0),
        }
    }
}

/// Where a span's records currently live. Cloning is cheap (handles
/// only): reads clone the tiers under the span lock, then decode and do
/// file IO outside it.
#[derive(Debug, Clone)]
enum SpanTier {
    /// Mutable chunked storage — the append target.
    Hot(Arc<RwLock<HotSpan>>),
    /// Compacted into an immutable resident frame.
    Framed(Arc<Frame>),
    /// Frame bytes on disk; nothing resident.
    Spilled(SpilledSpan),
}

/// A span whose frame lives in a disk file.
#[derive(Debug, Clone)]
struct SpilledSpan {
    path: PathBuf,
    len: usize,
}

/// What a successful span freeze produced, for the spill manifest (byte
/// accounting goes straight into [`TierStats`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FreezeReceipt {
    /// Records in the span.
    pub len: usize,
    /// First round the span holds.
    pub base_round: usize,
    /// Last round the span holds.
    pub last_round: usize,
}

/// What a successful span spill produced — everything the durable
/// manifest needs to find and verify the file again after a crash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpillReceipt {
    /// Records in the span.
    pub len: usize,
    /// First round the span holds.
    pub base_round: usize,
    /// Last round the span holds.
    pub last_round: usize,
    /// CRC-32 of the complete spill file.
    pub file_crc: u32,
}

/// Kinds + accounting summary of one span, for the compaction policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanSummary {
    /// Span index.
    pub idx: usize,
    /// Resident bytes this span holds (0 when spilled).
    pub resident_bytes: usize,
    /// LRU stamp of the last cold read (0 = never read cold).
    pub touched: u64,
    /// True while the span is in hot chunked storage.
    pub is_hot: bool,
    /// True while the span is a resident frame.
    pub is_framed: bool,
    /// Records in the span.
    pub len: usize,
}

impl RangedBoard {
    /// Creates an empty board with `span` rounds per range shard.
    ///
    /// # Panics
    /// Panics if `span == 0`.
    #[must_use]
    pub fn new(span: usize) -> Self {
        Self::with_stats(span, Arc::new(TierStats::default()))
    }

    /// Creates an empty board whose single span never ends — the board
    /// an engine posts one game into (nothing below the live span, so
    /// nothing ever compacts).
    #[must_use]
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Creates an empty board wired to share `stats` with other boards —
    /// how a [`RangedVenue`] aggregates tier counters venue-wide.
    ///
    /// # Panics
    /// Panics if `span == 0`.
    fn with_stats(span: usize, stats: Arc<TierStats>) -> Self {
        assert!(span > 0, "round span must be positive");
        Self {
            span,
            shared: Arc::new(BoardState {
                spans: RwLock::new(Vec::new()),
                len: AtomicUsize::new(0),
                last_round: AtomicUsize::new(0),
                stats,
                clock: AtomicU64::new(0),
                faults: OnceLock::new(),
            }),
        }
    }

    /// Arms this board's spill I/O with an injected-fault lane (chaos
    /// smokes and tests). First arm wins; later calls are ignored.
    pub fn arm_faults(&self, lane: FaultLane) {
        let _ = self.shared.faults.set(lane);
    }

    /// Rounds per range shard.
    #[must_use]
    pub fn span(&self) -> usize {
        self.span
    }

    /// The tier activity counters this board reports into.
    #[must_use]
    pub fn tier_stats(&self) -> Arc<TierStats> {
        self.shared.stats.clone()
    }

    /// The span index holding `round` (1-based rounds).
    fn span_of(&self, round: usize) -> usize {
        (round.max(1) - 1) / self.span
    }

    /// The span index of the live (append-target) span.
    pub(crate) fn live_span(&self) -> usize {
        self.span_of(self.shared.last_round.load(Ordering::Relaxed))
    }

    /// Clones the tiers of spans `first..`, stamping the LRU clock onto
    /// every cold span the read is about to touch.
    fn tiers_from(&self, first: usize) -> Vec<SpanTier> {
        let guard = read(&self.shared.spans);
        let tick = self.shared.clock.fetch_add(1, Ordering::Relaxed) + 1;
        guard
            .iter()
            .skip(first)
            .map(|slot| {
                if !matches!(slot.tier, SpanTier::Hot(_)) {
                    slot.touched.store(tick, Ordering::Relaxed);
                }
                slot.tier.clone()
            })
            .collect()
    }

    /// Decodes a cold span back into records, counting the inflation.
    ///
    /// A spilled frame's file is the span's only copy, so reads go
    /// through bounded retry-with-backoff (transient errors — including
    /// injected bit-flips, which the frame checksum catches — get fresh
    /// attempts). A read that stays unreadable is *quarantined*: counted
    /// in [`TierStats`] as a lost span read and returned as an empty
    /// span, never a panic — the venue degrades to the records it can
    /// still serve.
    fn inflate(&self, tier: &SpanTier) -> Arc<[RoundRecord]> {
        match tier {
            SpanTier::Hot(_) => unreachable!("hot spans are never inflated"),
            SpanTier::Framed(frame) => {
                self.shared.stats.count_inflation();
                frame.decode().into()
            }
            SpanTier::Spilled(spill) => {
                self.shared.stats.count_spill_load();
                self.shared.stats.count_inflation();
                let (result, retries) =
                    with_retry(&RetryPolicy::default(), std::thread::sleep, || {
                        let mut bytes = std::fs::read(&spill.path).map_err(|e| e.to_string())?;
                        if let Some(lane) = self.shared.faults.get() {
                            lane.corrupt_read(&mut bytes);
                        }
                        Frame::from_bytes(&bytes).map_err(|e| e.to_string())
                    });
                self.shared.stats.add_io_retries(u64::from(retries));
                match result {
                    Ok(frame) => frame.decode().into(),
                    Err(_) => {
                        self.shared.stats.count_lost_span_read();
                        Vec::new().into()
                    }
                }
            }
        }
    }

    /// Resident bytes held by the spans a compactor with `hot_tail_spans`
    /// would consider eligible — the quantity its resident budget bounds.
    /// Hot spans account at raw record size, framed spans at packed size,
    /// spilled spans at zero.
    #[must_use]
    pub fn resident_cold_bytes(&self, hot_tail_spans: usize) -> usize {
        let live = self.live_span();
        self.span_summaries()
            .iter()
            .filter(|s| s.idx + hot_tail_spans < live)
            .map(|s| s.resident_bytes)
            .sum()
    }

    /// Per-span tier/accounting summaries, for the compaction policy.
    /// Hot spans account at raw record size, framed spans at their packed
    /// size, spilled spans at zero.
    pub(crate) fn span_summaries(&self) -> Vec<SpanSummary> {
        let guard = read(&self.shared.spans);
        guard
            .iter()
            .enumerate()
            .map(|(idx, slot)| {
                let (resident_bytes, is_hot, is_framed, len) = match &slot.tier {
                    SpanTier::Hot(span) => {
                        let len = read(span).len();
                        (len * std::mem::size_of::<RoundRecord>(), true, false, len)
                    }
                    SpanTier::Framed(frame) => (frame.packed_bytes(), false, true, frame.len()),
                    SpanTier::Spilled(spill) => (0, false, false, spill.len),
                };
                SpanSummary {
                    idx,
                    resident_bytes,
                    touched: slot.touched.load(Ordering::Relaxed),
                    is_hot,
                    is_framed,
                    len,
                }
            })
            .collect()
    }

    /// Compacts hot span `idx` into a resident frame. Encoding runs
    /// outside the span lock; the swap re-checks that the span is still
    /// the hot span it encoded. Returns the freeze's accounting receipt
    /// on success, `None` if the span is missing, empty, or already
    /// cold.
    pub(crate) fn freeze_span(&self, idx: usize) -> Option<FreezeReceipt> {
        let records = {
            let guard = read(&self.shared.spans);
            match &guard.get(idx)?.tier {
                SpanTier::Hot(span) => read(span).records(),
                _ => return None,
            }
        };
        if records.is_empty() {
            return None;
        }
        let raw_bytes = records.len() * std::mem::size_of::<RoundRecord>();
        let frame = Arc::new(Frame::encode(&records));
        let framed_bytes = frame.packed_bytes();
        let receipt = FreezeReceipt {
            len: records.len(),
            base_round: records[0].round,
            last_round: records[records.len() - 1].round,
        };
        let mut guard = write(&self.shared.spans);
        let slot = guard.get_mut(idx)?;
        match &slot.tier {
            // A sealed span below the live one cannot grow, but re-check
            // anyway so a racing (contract-violating) post loses cleanly.
            SpanTier::Hot(span) if read(span).len() == records.len() => {
                slot.tier = SpanTier::Framed(frame);
                self.shared.stats.count_frame(
                    records.len() as u64,
                    raw_bytes as u64,
                    framed_bytes as u64,
                );
                Some(receipt)
            }
            _ => None,
        }
    }

    /// Evicts framed span `idx` to a disk file at `path`, leaving nothing
    /// resident. File IO runs outside the span lock. Returns the spill's
    /// manifest-grade receipt, or `Ok(None)` if the span is not currently
    /// a resident frame.
    ///
    /// # Errors
    /// Returns the IO error if the spill file cannot be written (an armed
    /// fault lane can inject outright failures and torn half-writes
    /// here); the span stays framed and resident.
    pub(crate) fn spill_span(
        &self,
        idx: usize,
        path: PathBuf,
    ) -> std::io::Result<Option<SpillReceipt>> {
        let frame = {
            let guard = read(&self.shared.spans);
            match guard.get(idx).map(|s| &s.tier) {
                Some(SpanTier::Framed(frame)) => frame.clone(),
                _ => return Ok(None),
            }
        };
        let bytes = frame.to_bytes();
        if let Some(lane) = self.shared.faults.get() {
            if lane.fire(FaultSite::SpillWriteError) {
                return Err(std::io::Error::other("injected spill write error"));
            }
            if lane.fire(FaultSite::SpillShortWrite) {
                // A torn write: half the frame lands, then the error —
                // exactly what recovery's checksum must catch.
                std::fs::write(&path, &bytes[..bytes.len() / 2])?;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected short spill write",
                ));
            }
        }
        let file_crc = crc32(&bytes);
        std::fs::write(&path, bytes)?;
        let mut guard = write(&self.shared.spans);
        let Some(slot) = guard.get_mut(idx) else {
            return Ok(None);
        };
        match &slot.tier {
            SpanTier::Framed(f) if Arc::ptr_eq(f, &frame) => {
                let receipt = SpillReceipt {
                    len: frame.len(),
                    base_round: frame.base_round(),
                    last_round: frame.last_round(),
                    file_crc,
                };
                slot.tier = SpanTier::Spilled(SpilledSpan {
                    path,
                    len: frame.len(),
                });
                self.shared.stats.count_spill_write();
                Ok(Some(receipt))
            }
            _ => Ok(None),
        }
    }

    /// Adopts a recovered spilled span back into this (empty) board —
    /// the rebuild path of `RangedVenue::recover_from_spill`. Spans must
    /// adopt in index order so reads walk them contiguously.
    ///
    /// # Panics
    /// Panics if `idx` is not the next span slot.
    pub(crate) fn adopt_spilled_span(
        &self,
        idx: usize,
        path: PathBuf,
        len: usize,
        last_round: usize,
    ) {
        let mut guard = write(&self.shared.spans);
        assert_eq!(guard.len(), idx, "recovered spans adopt in order");
        guard.push(SpanSlot {
            tier: SpanTier::Spilled(SpilledSpan { path, len }),
            touched: AtomicU64::new(0),
        });
        self.shared.len.fetch_add(len, Ordering::Relaxed);
        self.shared
            .last_round
            .fetch_max(last_round, Ordering::Relaxed);
    }

    /// Appends a round record — O(1) routing to the live span, no scan of
    /// cold ranges.
    ///
    /// # Panics
    /// Panics if `record.round == 0` (rounds are 1-based), or if the
    /// record's span has been compacted — posting into a frozen span
    /// means the nondecreasing-round posting contract was broken.
    pub fn post(&self, record: RoundRecord) {
        assert!(record.round > 0, "rounds are 1-based");
        let idx = self.span_of(record.round);
        let push = |slot: &SpanSlot, record: RoundRecord| {
            let SpanTier::Hot(span) = &slot.tier else {
                panic!("posting into compacted span {idx}");
            };
            let round = record.round;
            write(span).push(record);
            self.shared.last_round.fetch_max(round, Ordering::Relaxed);
            self.shared.len.fetch_add(1, Ordering::Relaxed);
        };
        {
            let guard = read(&self.shared.spans);
            if let Some(slot) = guard.get(idx) {
                return push(slot, record);
            }
        }
        let mut guard = write(&self.shared.spans);
        while guard.len() <= idx {
            guard.push(SpanSlot::hot());
        }
        push(&guard[idx], record);
    }

    /// Total records across all spans — O(1) from a lock-free counter.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Relaxed)
    }

    /// True if no rounds have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The highest posted round, if any — O(1) from a lock-free counter
    /// (the coalescer's hot-path monotonicity check).
    #[must_use]
    pub fn last_round(&self) -> Option<usize> {
        match self.shared.last_round.load(Ordering::Relaxed) {
            0 => None,
            r => Some(r),
        }
    }

    /// Record of a specific round, if recorded — resolves the span in
    /// O(1), then binary-searches it (a cold span inflates first).
    #[must_use]
    pub fn round(&self, round: usize) -> Option<RoundRecord> {
        if round == 0 {
            return None;
        }
        let found = |r: &RoundRecord| (r.round == round).then(|| r.clone());
        match self.tiers_from(self.span_of(round)).into_iter().next()? {
            SpanTier::Hot(span) => {
                let span = read(&span);
                let at = span.start_of(round);
                (at < span.len()).then(|| span.get(at)).and_then(found)
            }
            cold => {
                let records = self.inflate(&cold);
                let at = records.partition_point(|r| r.round < round);
                records.get(at).and_then(found)
            }
        }
    }

    /// Visits every record with round `>= round` in append order, cloning
    /// nothing. Only the span holding `round` and the spans after it are
    /// opened, and a binary search skips the sub-bound records of the
    /// first one — the incremental read an observer over a long-lived
    /// stream uses. Cold spans at or after the bound inflate transparently
    /// (and count as inflations in the tier stats).
    pub fn for_each_since_round(&self, round: usize, mut f: impl FnMut(&RoundRecord)) {
        for tier in self.tiers_from(self.span_of(round)) {
            match tier {
                SpanTier::Hot(span) => {
                    let span = read(&span);
                    span.for_each_from(span.start_of(round), &mut f);
                }
                cold => {
                    let records = self.inflate(&cold);
                    let start = records.partition_point(|r| r.round < round);
                    records[start..].iter().for_each(&mut f);
                }
            }
        }
    }

    /// The records with round `>= round` as shared segments in append
    /// order — what [`MergedHistory`] k-way-merges across collectors.
    /// Spans below the bound are never opened, and each opened span is
    /// entered at its first in-bound record by binary search.
    fn segments_since(&self, round: usize) -> Vec<Segment> {
        let mut out = Vec::new();
        for tier in self.tiers_from(self.span_of(round)) {
            match tier {
                SpanTier::Hot(span) => {
                    let span = read(&span);
                    span.segments_from(span.start_of(round), &mut out);
                }
                cold => {
                    let records = self.inflate(&cold);
                    let start = records.partition_point(|r| r.round < round);
                    if start < records.len() {
                        out.push(Segment { records, start });
                    }
                }
            }
        }
        out
    }
}

/// The publication venue of many concurrent collectors: one
/// [`RangedBoard`] per collector (writers never contend on each other's
/// locks), each split into round-range spans. [`RangedVenue::merged`]
/// k-way-merges the whole venue in `(round, collector)` order across both
/// shard dimensions — the read of a cross-collector observer. The
/// collector service gives each ingest worker a shard of bounded spans;
/// the sweep's shared-board mode gives each engine an unbounded one.
#[derive(Debug, Clone)]
pub struct RangedVenue {
    shards: Arc<[RangedBoard]>,
}

impl RangedVenue {
    /// Creates a venue with `collectors` empty shards of `span` rounds
    /// per range (`usize::MAX` for unbounded spans).
    ///
    /// # Panics
    /// Panics if `collectors == 0` or `span == 0`.
    #[must_use]
    pub fn new(collectors: usize, span: usize) -> Self {
        assert!(collectors > 0, "need at least one collector");
        let stats = Arc::new(TierStats::default());
        Self {
            shards: (0..collectors)
                .map(|_| RangedBoard::with_stats(span, stats.clone()))
                .collect(),
        }
    }

    /// The venue-wide tier activity counters (every shard reports into
    /// the same [`TierStats`]).
    #[must_use]
    pub fn tier_stats(&self) -> Arc<TierStats> {
        self.shards[0].tier_stats()
    }

    /// Total resident bytes held by spans across the venue — hot spans at
    /// raw record size, framed spans at packed size, spilled spans free.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.span_summaries())
            .map(|s| s.resident_bytes)
            .sum()
    }

    /// Resident bytes across shards in spans a compactor with
    /// `hot_tail_spans` would consider eligible — the quantity a
    /// per-shard resident budget bounds.
    #[must_use]
    pub fn resident_cold_bytes(&self, hot_tail_spans: usize) -> usize {
        self.shards
            .iter()
            .map(|s| s.resident_cold_bytes(hot_tail_spans))
            .sum()
    }

    /// Number of collector shards.
    #[must_use]
    pub fn collectors(&self) -> usize {
        self.shards.len()
    }

    /// Collector `idx`'s board — a handle sharing the storage (hand it to
    /// that collector's engine or ingest worker).
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn collector(&self, idx: usize) -> RangedBoard {
        self.shards[idx].clone()
    }

    /// Total records across the venue — O(collectors) lock-free reads.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.shards.iter().map(RangedBoard::len).sum()
    }

    /// The highest round recorded by any collector, if any —
    /// O(collectors) lock-free reads.
    #[must_use]
    pub fn last_round(&self) -> Option<usize> {
        self.shards.iter().filter_map(RangedBoard::last_round).max()
    }

    /// A merged view of the whole venue at snapshot time, ordered by
    /// `(round, collector)` across both shard dimensions.
    #[must_use]
    pub fn merged(&self) -> MergedHistory {
        self.merged_since_round(0)
    }

    /// A merged view of the records with round `>= round`: only the spans
    /// that can hold such rounds are snapshotted (cold spans below the
    /// bound are never inflated), and each is entered at its first
    /// in-bound record, so the view costs O(log n + records in bound).
    /// This is the incremental read path of a board-driven observer.
    #[must_use]
    pub fn merged_since_round(&self, round: usize) -> MergedHistory {
        MergedHistory {
            chains: self
                .shards
                .iter()
                .map(|s| s.segments_since(round))
                .collect(),
        }
    }
}

/// A one-collector venue over an existing board (sharing its storage and
/// tier counters) — how a single engine's board is read through the
/// venue merge.
impl From<RangedBoard> for RangedVenue {
    fn from(board: RangedBoard) -> Self {
        Self {
            shards: Arc::new([board]),
        }
    }
}

/// The merged, round-ordered view of a venue at snapshot time. Each
/// collector contributes a *chain* of shared segments whose concatenation
/// is round-nondecreasing, and the view is a k-way merge over the chains,
/// so round order holds across both shard dimensions. Later posts never
/// change a view already taken.
#[derive(Debug, Clone)]
pub struct MergedHistory {
    chains: Vec<Vec<Segment>>,
}

impl MergedHistory {
    /// Number of records [`MergedHistory::for_each`] visits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chains
            .iter()
            .flatten()
            .map(|s| s.records().len())
            .sum()
    }

    /// True if the view holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chains.iter().all(Vec::is_empty)
    }

    /// Visits every record as `(collector, record)`, ordered by
    /// `(round, collector)`, cloning nothing. Each collector's walk spans
    /// chunk and range boundaries transparently.
    pub fn for_each(&self, mut f: impl FnMut(usize, &RoundRecord)) {
        let mut heads: Vec<_> = self
            .chains
            .iter()
            .map(|chain| chain.iter().flat_map(Segment::records).peekable())
            .collect();
        loop {
            let mut best: Option<(usize, usize)> = None; // (round, shard)
            for (shard, head) in heads.iter_mut().enumerate() {
                if let Some(record) = head.peek() {
                    if best.is_none_or(|(r, _)| record.round < r) {
                        best = Some((record.round, shard));
                    }
                }
            }
            let Some((_, shard)) = best else { break };
            f(shard, heads[shard].next().expect("peeked"));
        }
    }

    /// The merged records as owned `(collector, record)` pairs (the
    /// cloning convenience over [`MergedHistory::for_each`]).
    #[must_use]
    pub fn records(&self) -> Vec<(usize, RoundRecord)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|shard, record| out.push((shard, record.clone())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, trimmed: usize) -> RoundRecord {
        let mut retained = OnlineStats::new();
        retained.extend(&[1.0, 2.0, 3.0]);
        RoundRecord {
            round,
            threshold_percentile: 0.9,
            threshold_value: Some(10.0),
            received: 100,
            trimmed,
            retained,
            quality: 0.95,
        }
    }

    fn rounds_since(board: &RangedBoard, from: usize) -> Vec<usize> {
        let mut seen = Vec::new();
        board.for_each_since_round(from, |r| seen.push(r.round));
        seen
    }

    #[test]
    fn post_and_read_back() {
        let board = RangedBoard::unbounded();
        assert!(board.is_empty());
        board.post(record(1, 5));
        board.post(record(2, 7));
        assert_eq!(board.len(), 2);
        assert_eq!(board.last_round(), Some(2));
        assert_eq!(board.round(1).unwrap().trimmed, 5);
        assert!(board.round(9).is_none());
    }

    #[test]
    fn clones_share_state() {
        let board = RangedBoard::unbounded();
        let adversary_view = board.clone();
        board.post(record(1, 3));
        assert_eq!(adversary_view.len(), 1);
        assert_eq!(adversary_view.round(1).unwrap().trimmed, 3);
    }

    #[test]
    fn concurrent_posting_is_safe() {
        let board = RangedBoard::unbounded();
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = board.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        b.post(record(t * 50 + i + 1, 1));
                    }
                });
            }
        });
        assert_eq!(board.len(), 200);
        assert_eq!(board.last_round(), Some(200));
    }

    #[test]
    fn history_snapshot_is_detached() {
        let board = RangedBoard::unbounded();
        board.post(record(1, 1));
        let snapshot = RangedVenue::from(board.clone()).merged();
        board.post(record(2, 2));
        assert_eq!(snapshot.len(), 1);
        assert_eq!(board.len(), 2);
    }

    #[test]
    fn history_since_reads_incrementally() {
        let board = RangedBoard::unbounded();
        assert!(rounds_since(&board, 0).is_empty());
        board.post(record(1, 1));
        board.post(record(2, 2));
        board.post(record(3, 3));
        assert_eq!(rounds_since(&board, 2), vec![2, 3]);
        // Past-the-end and far-out-of-range reads are empty, not panics.
        assert!(rounds_since(&board, 4).is_empty());
        assert!(rounds_since(&board, 99).is_empty());
    }

    #[test]
    fn chunked_storage_spans_seal_boundaries() {
        // Well past several chunk seals inside one unbounded span: every
        // access path must agree across the sealed/tail boundary.
        let board = RangedBoard::unbounded();
        let n = 5 * CHUNK_CAP + 17;
        for round in 1..=n {
            board.post(record(round, round % 7));
        }
        assert_eq!(board.len(), n);
        assert_eq!(board.last_round(), Some(n));
        for probe in [1, CHUNK_CAP, CHUNK_CAP + 1, 3 * CHUNK_CAP, n] {
            assert_eq!(board.round(probe).unwrap().round, probe, "round {probe}");
        }
        assert_eq!(rounds_since(&board, 0), (1..=n).collect::<Vec<_>>());
        let venue = RangedVenue::from(board.clone());
        for from in [
            0,
            CHUNK_CAP - 1,
            CHUNK_CAP,
            CHUNK_CAP + 1,
            4 * CHUNK_CAP,
            n,
            n + 1,
        ] {
            let view = venue.merged_since_round(from);
            let rounds: Vec<usize> = view.records().iter().map(|(_, r)| r.round).collect();
            assert_eq!(rounds, (from.max(1)..=n).collect::<Vec<_>>(), "from {from}");
            assert_eq!(view.len(), rounds.len(), "from {from}");
            assert_eq!(view.is_empty(), rounds.is_empty(), "from {from}");
        }
    }

    #[test]
    fn round_lookup_handles_gaps_and_one_based_rounds() {
        // Append-ordered but gappy round numbers: binary search must find
        // exactly the recorded rounds and reject everything in between.
        let board = RangedBoard::unbounded();
        for round in [1usize, 3, 7, 8, 100, 101, 250] {
            board.post(record(round, 1));
        }
        for round in [1usize, 3, 7, 8, 100, 101, 250] {
            assert_eq!(board.round(round).unwrap().round, round);
        }
        for missing in [0usize, 2, 4, 6, 9, 99, 102, 249, 251] {
            assert!(board.round(missing).is_none(), "round {missing}");
        }
    }

    #[test]
    fn for_each_since_visits_without_cloning() {
        let board = RangedBoard::unbounded();
        for round in 1..=(CHUNK_CAP + 5) {
            board.post(record(round, 0));
        }
        let seen = rounds_since(&board, CHUNK_CAP);
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], CHUNK_CAP);
    }

    #[test]
    fn snapshot_is_immutable_under_later_posts() {
        let venue = RangedVenue::new(1, usize::MAX);
        for round in 1..=(2 * CHUNK_CAP) {
            venue.collector(0).post(record(round, 0));
        }
        let snap = venue.merged();
        venue.collector(0).post(record(2 * CHUNK_CAP + 1, 0));
        assert_eq!(snap.len(), 2 * CHUNK_CAP);
        assert_eq!(snap.records().len(), 2 * CHUNK_CAP);
        assert_eq!(venue.total_len(), 2 * CHUNK_CAP + 1);
    }

    #[test]
    fn sharded_board_isolates_writers_and_merges_by_round() {
        let venue = RangedVenue::new(3, usize::MAX);
        // Collector 1 runs longer; collector 2 starts later (gaps).
        for round in 1..=4 {
            venue.collector(0).post(record(round, 0));
        }
        for round in 1..=6 {
            venue.collector(1).post(record(round, 1));
        }
        for round in 3..=5 {
            venue.collector(2).post(record(round, 2));
        }
        assert_eq!(venue.collectors(), 3);
        assert_eq!(venue.total_len(), 13);
        assert_eq!(venue.collector(0).len(), 4);
        let merged = venue.merged();
        assert_eq!(merged.len(), 13);
        let records = merged.records();
        // Ordered by (round, collector).
        let order: Vec<(usize, usize)> = records.iter().map(|(c, r)| (r.round, *c)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order[0], (1, 0));
        assert_eq!(order.last(), Some(&(6, 1)));
        // Shard identity survives the merge.
        assert!(records.iter().all(|(c, r)| r.trimmed == *c));
    }

    #[test]
    fn last_round_is_cheap_across_storage_states() {
        // Empty, open-tail, exactly-sealed and resealed states must all
        // agree with the round lookup.
        let board = RangedBoard::unbounded();
        assert_eq!(board.last_round(), None);
        board.post(record(3, 0));
        assert_eq!(board.last_round(), Some(3));
        for round in 4..=CHUNK_CAP + 2 {
            board.post(record(round, 0));
        }
        // Tail just past a seal.
        assert_eq!(board.len(), CHUNK_CAP);
        assert_eq!(board.last_round(), Some(CHUNK_CAP + 2));
        // Exactly at a seal boundary: the tail is empty, the last record
        // lives in the last sealed chunk.
        for round in CHUNK_CAP + 3..=2 * CHUNK_CAP + 2 {
            board.post(record(round, 0));
        }
        assert_eq!(board.len(), 2 * CHUNK_CAP);
        assert_eq!(board.last_round(), Some(2 * CHUNK_CAP + 2));
        assert_eq!(
            board.round(2 * CHUNK_CAP + 2).map(|r| r.round),
            board.last_round()
        );

        let venue = RangedVenue::new(2, usize::MAX);
        assert_eq!(venue.last_round(), None);
        venue.collector(1).post(record(7, 0));
        assert_eq!(venue.last_round(), Some(7));
        venue.collector(0).post(record(9, 0));
        assert_eq!(venue.last_round(), Some(9));
    }

    #[test]
    fn for_each_from_round_starts_at_the_bound() {
        let board = RangedBoard::unbounded();
        for round in [2usize, 5, 5, 9, 12] {
            board.post(record(round, 0));
        }
        assert_eq!(rounds_since(&board, 0), vec![2, 5, 5, 9, 12]);
        assert_eq!(rounds_since(&board, 5), vec![5, 5, 9, 12]);
        assert_eq!(rounds_since(&board, 6), vec![9, 12]);
        assert_eq!(rounds_since(&board, 13), Vec::<usize>::new());
    }

    #[test]
    fn ranged_board_routes_appends_and_reads_by_span() {
        let board = RangedBoard::new(4);
        assert!(board.is_empty());
        assert_eq!(board.last_round(), None);
        assert_eq!(board.round(1), None);
        let n = 19; // spans 0..=4, the last one partial
        for round in 1..=n {
            board.post(record(round, round % 3));
        }
        assert_eq!(board.len(), n);
        assert_eq!(board.last_round(), Some(n));
        for probe in [1, 4, 5, 8, 9, n] {
            assert_eq!(board.round(probe).unwrap().round, probe, "round {probe}");
        }
        assert!(board.round(n + 1).is_none());
        // for_each_since_round never visits rounds below the bound and
        // crosses span boundaries seamlessly.
        for from in [0usize, 1, 4, 5, 7, 13, n, n + 3] {
            let expect: Vec<usize> = (from.max(1)..=n).collect();
            assert_eq!(rounds_since(&board, from), expect, "from {from}");
        }
        // The merged view walks the span sequence as the full history.
        assert_eq!(board.span_summaries().len(), 5);
        let rounds: Vec<usize> = RangedVenue::from(board)
            .merged()
            .records()
            .iter()
            .map(|(_, r)| r.round)
            .collect();
        assert_eq!(rounds, (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn ranged_board_clones_share_state() {
        let board = RangedBoard::new(8);
        let observer = board.clone();
        board.post(record(1, 2));
        assert_eq!(observer.len(), 1);
        assert_eq!(observer.last_round(), Some(1));
        assert_eq!(observer.round(1).unwrap().trimmed, 2);
    }

    #[test]
    fn ranged_venue_merges_round_ordered_across_both_dimensions() {
        // Spans of 3 rounds, histories long enough that every collector
        // crosses several range boundaries; staggered starts and lengths.
        let venue = RangedVenue::new(3, 3);
        for round in 1..=10 {
            venue.collector(0).post(record(round, 0));
        }
        for round in 4..=8 {
            venue.collector(1).post(record(round, 1));
        }
        for round in 2..=11 {
            venue.collector(2).post(record(round, 2));
        }
        assert_eq!(venue.collectors(), 3);
        assert_eq!(venue.total_len(), 25);
        assert_eq!(venue.last_round(), Some(11));
        let merged = venue.merged();
        assert_eq!(merged.len(), 25);
        assert!(!merged.is_empty());
        let order: Vec<(usize, usize)> = merged
            .records()
            .iter()
            .map(|(c, r)| (r.round, *c))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order[0], (1, 0));
        assert_eq!(order.last(), Some(&(11, 2)));
        // Shard identity survives the two-dimensional merge.
        assert!(merged.records().iter().all(|(c, r)| r.trimmed == *c));
    }

    #[test]
    fn ranged_board_concurrent_shard_appends_are_safe() {
        // One writer per venue shard (the collector service's layout):
        // lock-free aggregates and the merged view agree at the end.
        let venue = RangedVenue::new(4, 5);
        std::thread::scope(|s| {
            for c in 0..4 {
                let shard = venue.collector(c);
                s.spawn(move || {
                    for round in 1..=73 {
                        shard.post(record(round, c));
                    }
                });
            }
        });
        assert_eq!(venue.total_len(), 4 * 73);
        assert_eq!(venue.last_round(), Some(73));
        let mut count = 0;
        let mut last = 0;
        venue.merged().for_each(|_, r| {
            assert!(r.round >= last);
            last = r.round;
            count += 1;
        });
        assert_eq!(count, 4 * 73);
    }

    #[test]
    fn sharded_board_concurrent_collectors_do_not_contend() {
        let venue = RangedVenue::new(4, usize::MAX);
        std::thread::scope(|s| {
            for c in 0..4 {
                let shard = venue.collector(c);
                s.spawn(move || {
                    for round in 1..=100 {
                        shard.post(record(round, c));
                    }
                });
            }
        });
        assert_eq!(venue.total_len(), 400);
        let mut count = 0;
        venue.merged().for_each(|_, _| count += 1);
        assert_eq!(count, 400);
    }
}
