//! The tiering policy over ranged boards: compaction, eviction, spill.
//!
//! A [`crate::board::RangedBoard`] accumulates one hot chunked span per
//! round range forever; this module is the maintenance side of the
//! storage tiers. A [`Compactor`] runs **between rounds** in a collector
//! worker's loop (it never holds the span lock across an encode or a file
//! write, so appends and reads are never blocked on compression):
//!
//! 1. **Compact** — sealed spans behind the hot tail are frozen into
//!    immutable bit-packed [`crate::frame::Frame`]s (typically 4–10×
//!    smaller than the raw chunks).
//! 2. **Evict** — while the cold spans' resident bytes exceed the
//!    configured budget, the least-recently-read framed span is written
//!    to a disk file under the spill directory and dropped from RAM.
//!    Without a spill directory frames cannot be dropped (they *are* the
//!    data), so an over-budget state is counted honestly as a budget
//!    overrun instead of silently losing history.
//!
//! Every read of a cold span re-inflates it transparently (see the board
//! module); [`TierStats`] counts frames built, bytes before/after,
//! inflations, spill writes/loads and budget overruns, and the collector
//! report surfaces them next to the coalesce/backpressure counters.
//!
//! **Fault tolerance.** Spill writes go through bounded
//! retry-with-backoff ([`crate::fault::with_retry`]); a write that stays
//! broken is counted as a terminal spill-write failure and flips the
//! compactor into *degraded freeze-only mode* — spans still compact to
//! resident frames, nothing is evicted, budget overruns are counted
//! honestly, and the worker is never poisoned by a dying disk. When a
//! [`crate::recover::ManifestWriter`] is attached, every freeze and
//! spill is journaled so a crashed run's cold tiers can be rebuilt by
//! [`crate::board::RangedVenue::recover_from_spill`].

use crate::board::RangedBoard;
use crate::fault::{with_retry, RetryPolicy};
use crate::locks::lock;
use crate::recover::{ManifestWriter, SpanManifest};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Knobs of the storage tiers.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Sealed spans kept hot behind the live span (the live span itself
    /// is always exempt). 0 compacts everything behind the live span.
    pub hot_tail_spans: usize,
    /// Resident-bytes budget for the *eligible* (compactable) spans of
    /// one board. `None` disables eviction — spans compact but never
    /// spill.
    pub resident_budget: Option<usize>,
    /// Directory for spill files. `None` disables the disk tier; an
    /// over-budget board then counts overruns instead of evicting.
    pub spill_dir: Option<PathBuf>,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            hot_tail_spans: 1,
            resident_budget: None,
            spill_dir: None,
        }
    }
}

/// Venue-wide tier activity counters. Shared by every shard of a
/// [`crate::board::RangedVenue`]; all counters are monotone.
#[derive(Debug, Default)]
pub struct TierStats {
    frames_built: AtomicU64,
    compacted_records: AtomicU64,
    bytes_raw: AtomicU64,
    bytes_framed: AtomicU64,
    inflations: AtomicU64,
    spill_writes: AtomicU64,
    spill_loads: AtomicU64,
    budget_overruns: AtomicU64,
    io_retries: AtomicU64,
    spill_write_failures: AtomicU64,
    lost_span_reads: AtomicU64,
}

/// A point-in-time copy of [`TierStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStatsSnapshot {
    /// Spans compacted into frames.
    pub frames_built: u64,
    /// Records those frames hold.
    pub compacted_records: u64,
    /// Raw chunk bytes the compacted spans occupied before framing.
    pub bytes_raw: u64,
    /// Packed bytes the frames occupy (before any spill).
    pub bytes_framed: u64,
    /// Cold-span decodes back into records (frame or spill reads).
    pub inflations: u64,
    /// Frames written to the disk tier.
    pub spill_writes: u64,
    /// Spill files read back for an inflation.
    pub spill_loads: u64,
    /// Maintenance passes that ended over budget with no way to evict.
    pub budget_overruns: u64,
    /// Spill I/O attempts that failed transiently and were retried.
    pub io_retries: u64,
    /// Spill writes that stayed broken through the whole retry budget
    /// (each one degrades its compactor to freeze-only mode).
    pub spill_write_failures: u64,
    /// Spilled spans whose file stayed unreadable through the retry
    /// budget and were served as empty (quarantined) spans.
    pub lost_span_reads: u64,
}

impl TierStats {
    pub(crate) fn count_frame(&self, records: u64, raw: u64, framed: u64) {
        self.frames_built.fetch_add(1, Ordering::Relaxed);
        self.compacted_records.fetch_add(records, Ordering::Relaxed);
        self.bytes_raw.fetch_add(raw, Ordering::Relaxed);
        self.bytes_framed.fetch_add(framed, Ordering::Relaxed);
    }

    pub(crate) fn count_inflation(&self) {
        self.inflations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_spill_write(&self) {
        self.spill_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_spill_load(&self) {
        self.spill_loads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_budget_overrun(&self) {
        self.budget_overruns.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_io_retries(&self, retries: u64) {
        self.io_retries.fetch_add(retries, Ordering::Relaxed);
    }

    pub(crate) fn count_spill_write_failure(&self) {
        self.spill_write_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_lost_span_read(&self) {
        self.lost_span_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters out.
    #[must_use]
    pub fn snapshot(&self) -> TierStatsSnapshot {
        TierStatsSnapshot {
            frames_built: self.frames_built.load(Ordering::Relaxed),
            compacted_records: self.compacted_records.load(Ordering::Relaxed),
            bytes_raw: self.bytes_raw.load(Ordering::Relaxed),
            bytes_framed: self.bytes_framed.load(Ordering::Relaxed),
            inflations: self.inflations.load(Ordering::Relaxed),
            spill_writes: self.spill_writes.load(Ordering::Relaxed),
            spill_loads: self.spill_loads.load(Ordering::Relaxed),
            budget_overruns: self.budget_overruns.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            spill_write_failures: self.spill_write_failures.load(Ordering::Relaxed),
            lost_span_reads: self.lost_span_reads.load(Ordering::Relaxed),
        }
    }
}

/// Spans frozen per maintenance pass: bounds the work a single
/// between-rounds call does, so a worker's ingest cadence stays smooth
/// even when a long backlog of sealed spans is waiting.
const MAX_FREEZES_PER_RUN: usize = 4;

/// The between-rounds maintenance driver for one board's tiers. One
/// compactor per ingest worker, each owning its worker's shard; `tag`
/// keeps the shards' spill files apart in a shared directory.
#[derive(Debug, Clone)]
pub struct Compactor {
    config: TierConfig,
    tag: String,
    /// Durable journal of freezes and spills; `None` runs unjournaled
    /// (crash recovery then has nothing to rebuild from).
    manifest: Option<Arc<Mutex<ManifestWriter>>>,
    /// Latches true on a terminal spill-write failure; clones share it.
    degraded: Arc<AtomicBool>,
    retry: RetryPolicy,
}

impl Compactor {
    /// Creates a compactor applying `config`, naming spill files with
    /// `tag`.
    #[must_use]
    pub fn new(config: TierConfig, tag: impl Into<String>) -> Self {
        Self {
            config,
            tag: tag.into(),
            manifest: None,
            degraded: Arc::new(AtomicBool::new(false)),
            retry: RetryPolicy::default(),
        }
    }

    /// Attaches the shard's durable spill manifest: every freeze and
    /// spill this compactor performs is journaled through it.
    #[must_use]
    pub fn with_manifest(mut self, manifest: Arc<Mutex<ManifestWriter>>) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// The configuration this compactor applies.
    #[must_use]
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// True once a terminal spill-write failure has demoted this
    /// compactor (and its clones) to freeze-only mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// One maintenance pass over `board`: freeze up to
    /// `MAX_FREEZES_PER_RUN` eligible hot spans, then evict
    /// least-recently-read frames to the spill tier until the eligible
    /// spans fit the resident budget. Cheap when there is nothing to do
    /// (one read lock to scan the span table).
    pub fn run(&self, board: &RangedBoard) {
        if board.last_round().is_none() {
            return;
        }
        let live = board.live_span();
        let eligible = |idx: usize| idx + self.config.hot_tail_spans < live;
        let stats = board.tier_stats();

        let mut frozen = 0usize;
        for span in board.span_summaries() {
            if frozen == MAX_FREEZES_PER_RUN {
                break;
            }
            if span.is_hot && span.len > 0 && eligible(span.idx) {
                // `freeze_span` counts the frame into the stats itself;
                // a lost race (slot no longer hot) is simply skipped.
                if let Some(receipt) = board.freeze_span(span.idx) {
                    self.log_frozen(
                        &stats,
                        span.idx,
                        receipt.base_round,
                        receipt.last_round,
                        receipt.len,
                    );
                    frozen += 1;
                }
            }
        }

        let Some(budget) = self.config.resident_budget else {
            return;
        };
        if self.is_degraded() {
            // Freeze-only mode: the spill tier already proved broken, so
            // eviction is off the table. Stay honest about the overage.
            let over = board
                .span_summaries()
                .iter()
                .filter(|s| eligible(s.idx))
                .map(|s| s.resident_bytes)
                .sum::<usize>()
                > budget;
            if over {
                stats.count_budget_overrun();
            }
            return;
        }
        loop {
            let spans = board.span_summaries();
            let resident: usize = spans
                .iter()
                .filter(|s| eligible(s.idx))
                .map(|s| s.resident_bytes)
                .sum();
            if resident <= budget {
                return;
            }
            // Evict the least-recently-read resident frame.
            let victim = spans
                .iter()
                .filter(|s| s.is_framed && eligible(s.idx))
                .min_by_key(|s| s.touched)
                .map(|s| s.idx);
            if victim.is_none() {
                // The overage is un-compacted hot backlog: the per-pass
                // freeze cap yields to the budget — freeze another span
                // now so it becomes spillable, rather than idling over
                // budget until a later pass catches up.
                let backlog = spans
                    .iter()
                    .find(|s| s.is_hot && s.len > 0 && eligible(s.idx))
                    .map(|s| s.idx);
                if let Some(idx) = backlog {
                    if let Some(receipt) = board.freeze_span(idx) {
                        self.log_frozen(
                            &stats,
                            idx,
                            receipt.base_round,
                            receipt.last_round,
                            receipt.len,
                        );
                        continue;
                    }
                }
            }
            let (Some(idx), Some(dir)) = (victim, self.config.spill_dir.as_ref()) else {
                // Nothing evictable (no spill tier, nothing left to
                // freeze): report, don't lose data.
                stats.count_budget_overrun();
                return;
            };
            if std::fs::create_dir_all(dir).is_err() {
                stats.count_budget_overrun();
                return;
            }
            let name = format!("{}-span{idx}.frame", self.tag);
            let path = dir.join(&name);
            // Transient write failures (a flaky disk, an injected fault)
            // get a bounded retry budget; a write that stays broken
            // demotes the compactor to freeze-only instead of poisoning
            // the worker.
            let (result, retries) = with_retry(&self.retry, std::thread::sleep, || {
                board.spill_span(idx, path.clone())
            });
            stats.add_io_retries(u64::from(retries));
            match result {
                Ok(Some(receipt)) => {
                    if let Some(manifest) = &self.manifest {
                        let entry = SpanManifest {
                            span_idx: idx as u64,
                            base_round: receipt.base_round as u64,
                            last_round: receipt.last_round as u64,
                            len: receipt.len as u64,
                            frame_crc: receipt.file_crc,
                            file_name: name,
                        };
                        if lock(manifest).log_spilled(&entry).is_err() {
                            stats.count_spill_write_failure();
                        }
                    }
                }
                Ok(None) => {
                    // Racing state change: count and stop rather than
                    // spin.
                    stats.count_budget_overrun();
                    return;
                }
                Err(_) => {
                    stats.count_spill_write_failure();
                    self.degraded.store(true, Ordering::Relaxed);
                    stats.count_budget_overrun();
                    return;
                }
            }
        }
    }

    /// Journals a freeze when a manifest is attached; journal failures
    /// count as spill-write failures (the journal shares the tier's
    /// disk).
    fn log_frozen(
        &self,
        stats: &TierStats,
        idx: usize,
        base_round: usize,
        last_round: usize,
        len: usize,
    ) {
        if let Some(manifest) = &self.manifest {
            let ok = lock(manifest)
                .log_frozen(idx as u64, base_round as u64, last_round as u64, len as u64)
                .is_ok();
            if !ok {
                stats.count_spill_write_failure();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{RangedVenue, RoundRecord};
    use trimgame_numerics::stats::OnlineStats;

    fn record(round: usize) -> RoundRecord {
        let mut retained = OnlineStats::new();
        retained.extend(&[round as f64, round as f64 + 1.0]);
        RoundRecord {
            round,
            threshold_percentile: 0.9,
            threshold_value: Some(42.0 + (round % 3) as f64),
            received: 100,
            trimmed: round % 5,
            retained,
            quality: (round % 10) as f64 / 10.0,
        }
    }

    fn filled_board(span: usize, rounds: usize) -> RangedBoard {
        let board = RangedBoard::new(span);
        for round in 1..=rounds {
            board.post(record(round));
        }
        board
    }

    #[test]
    fn compaction_preserves_every_read_bit_for_bit() {
        // Chunk-sized spans (the realistic floor — tinier spans pay more
        // in frame headers than the rows cost).
        let board = filled_board(64, 800);
        let reference: Vec<RoundRecord> = {
            let mut out = Vec::new();
            board.for_each_since_round(0, |r| out.push(r.clone()));
            out
        };
        Compactor::new(TierConfig::default(), "t").run(&board);
        let stats = board.tier_stats().snapshot();
        assert!(stats.frames_built > 0, "spans should have been frozen");
        assert!(stats.bytes_framed < stats.bytes_raw);

        let mut after = Vec::new();
        board.for_each_since_round(0, |r| after.push(r.clone()));
        assert_eq!(after, reference);
        assert!(board.tier_stats().snapshot().inflations > 0);
        // Point lookups cross tiers too.
        for probe in [1usize, 64, 65, 150, 800] {
            assert_eq!(board.round(probe).unwrap(), reference[probe - 1]);
        }
        assert_eq!(board.len(), 800);
        assert_eq!(board.last_round(), Some(800));
    }

    #[test]
    fn hot_tail_exemption_keeps_trailing_spans_uncompacted() {
        let board = filled_board(10, 95); // live span = 9
        let cfg = TierConfig {
            hot_tail_spans: 3,
            ..TierConfig::default()
        };
        let compactor = Compactor::new(cfg, "t");
        // Several passes: the per-pass freeze cap must not change the
        // fixpoint, only how fast it is reached.
        for _ in 0..4 {
            compactor.run(&board);
        }
        let spans = board.span_summaries();
        for s in &spans {
            let expect_hot = s.idx + 3 >= 9;
            assert_eq!(s.is_hot, expect_hot, "span {}", s.idx);
        }
        assert_eq!(board.tier_stats().snapshot().frames_built, 6);
    }

    #[test]
    fn budget_without_spill_dir_counts_overruns_and_loses_nothing() {
        let board = filled_board(8, 100);
        let compactor = Compactor::new(
            TierConfig {
                hot_tail_spans: 0,
                resident_budget: Some(64), // absurdly tight
                spill_dir: None,
            },
            "t",
        );
        compactor.run(&board);
        let stats = board.tier_stats().snapshot();
        assert!(stats.budget_overruns >= 1);
        assert_eq!(stats.spill_writes, 0);
        let mut count = 0;
        board.for_each_since_round(0, |_| count += 1);
        assert_eq!(count, 100);
    }

    #[test]
    fn eviction_spills_to_disk_until_under_budget_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("trimgame-tier-{}", std::process::id()));
        let board = filled_board(8, 200);
        let reference: Vec<RoundRecord> = (1..=200).map(record).collect();
        let compactor = Compactor::new(
            TierConfig {
                hot_tail_spans: 0,
                resident_budget: Some(1500),
                spill_dir: Some(dir.clone()),
            },
            "shard0",
        );
        // Enough passes to clear the whole freeze backlog, then evict.
        for _ in 0..10 {
            compactor.run(&board);
        }
        let stats = board.tier_stats().snapshot();
        assert!(stats.spill_writes > 0, "tight budget must force spills");
        assert_eq!(stats.budget_overruns, 0, "spill tier absorbs the overage");
        let resident: usize = board
            .span_summaries()
            .iter()
            .filter(|s| s.idx < board.live_span())
            .map(|s| s.resident_bytes)
            .sum();
        assert!(resident <= 1500, "resident {resident} over budget");

        // Reads hit the disk tier transparently and bit-identically.
        let mut after = Vec::new();
        board.for_each_since_round(0, |r| after.push(r.clone()));
        assert_eq!(after, reference);
        assert!(board.tier_stats().snapshot().spill_loads > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_eviction_prefers_unread_spans() {
        let dir = std::env::temp_dir().join(format!("trimgame-lru-{}", std::process::id()));
        let board = filled_board(8, 100);
        let compactor = Compactor::new(TierConfig::default(), "t");
        for _ in 0..4 {
            compactor.run(&board);
        }
        // Touch the oldest cold spans (rounds 1..16 → spans 0 and 1).
        board.for_each_since_round(1, |_| {});
        let _ = board.round(3);
        // Now demand eviction of exactly one span: the victim must be a
        // span that was *not* just re-read... every span was touched by
        // for_each_since_round(1), so re-touch only span 0 and 1 again
        // via a bounded read, making span 2 the LRU minimum among 2..
        let _ = board.round(1); // touches span 0 only
        let evictor = Compactor::new(
            TierConfig {
                hot_tail_spans: 1,
                // Everything framed must go except what fits one frame.
                resident_budget: Some(
                    board
                        .span_summaries()
                        .iter()
                        .filter(|s| s.is_framed)
                        .map(|s| s.resident_bytes)
                        .max()
                        .unwrap(),
                ),
                spill_dir: Some(dir.clone()),
            },
            "t",
        );
        evictor.run(&board);
        let spans = board.span_summaries();
        // The one span still framed (not spilled) must be the
        // most-recently-touched one.
        let survivor_max_tick = spans
            .iter()
            .filter(|s| s.is_framed)
            .map(|s| s.touched)
            .max();
        let spilled_max_tick = spans
            .iter()
            .filter(|s| !s.is_framed && !s.is_hot)
            .map(|s| s.touched)
            .max()
            .unwrap();
        assert!(
            survivor_max_tick.is_none_or(|t| t >= spilled_max_tick),
            "LRU must evict the coldest frame first"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn venue_shards_share_one_stats_instance() {
        let venue = RangedVenue::new(3, 4);
        for c in 0..3 {
            for round in 1..=20 {
                venue.collector(c).post(record(round));
            }
        }
        let compactor = Compactor::new(TierConfig::default(), "t");
        for c in 0..3 {
            compactor.run(&venue.collector(c));
        }
        let stats = venue.tier_stats().snapshot();
        // 20 rounds, span 4 → live span 4; hot tail 1 → spans 0..=2
        // eligible per shard.
        assert_eq!(stats.frames_built, 9);
        assert_eq!(stats.compacted_records, 3 * 12);
        assert!(venue.resident_bytes() > 0);
    }

    #[test]
    fn merged_reads_are_identical_before_and_after_tiering() {
        let venue = RangedVenue::new(2, 8);
        for round in 1..=120 {
            venue.collector(0).post(record(round));
            if round % 2 == 0 {
                venue.collector(1).post(record(round));
            }
        }
        let before = venue.merged().records();
        let compactor = Compactor::new(
            TierConfig {
                hot_tail_spans: 0,
                ..TierConfig::default()
            },
            "t",
        );
        for c in 0..2 {
            for _ in 0..8 {
                compactor.run(&venue.collector(c));
            }
        }
        assert_eq!(venue.merged().records(), before);
        // The bounded view skips cold history without inflating it.
        let inflations_before = venue.tier_stats().snapshot().inflations;
        let bounded_view = venue.merged_since_round(115);
        let bounded = bounded_view.records();
        let expect: Vec<(usize, RoundRecord)> = before
            .iter()
            .filter(|(_, r)| r.round >= 115)
            .cloned()
            .collect();
        assert_eq!(bounded, expect);
        // len() counts the in-bound records only, not whole spans.
        assert_eq!(bounded_view.len(), expect.len());
        // Rounds 113.. live in the last spans (113..=120 with span 8 is
        // span 14, the live span) — no cold span needed inflating.
        assert_eq!(venue.tier_stats().snapshot().inflations, inflations_before);
    }
}
