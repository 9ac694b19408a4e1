//! Online collection engine — the system of the paper's Fig. 3.
//!
//! The infinite collection game runs on a concrete streaming substrate:
//! a data collector gathers a fixed-size batch per round (step ③), trims it
//! at a threshold (step ④), records the retained data on a **public board**
//! readable by the adversary (steps ①/⑥), and determines the next round's
//! trimming threshold (step ⑤). This crate implements the streaming
//! machinery — board, trimming, ingest channels and storage tiers; the
//! round loop, quality scoring and the *policies* that choose thresholds
//! (Tit-for-tat, Elastic, baselines) live in `trim-core`.
//!
//! * [`mod@trim`] — the trimming operation: [`TrimScratch::cut`] removes
//!   every value above an absolute threshold, which [`SketchThreshold`]
//!   or the caller's reference quantile table resolves.
//! * the explicit-SIMD mask-compact filter kernel behind it lives in
//!   [`trimgame_numerics::simd`] (AVX-512 / AVX2, portable fallback).
//! * [`board`] — the public board: one thread-safe, append-only
//!   [`RangedBoard`] type (chunked hot spans, compactable cold ones) and
//!   a [`RangedVenue`] of boards with a round-ordered merged read.
//! * [`frame`] — delta-encoded, bit-packed frames of sealed board
//!   history: the cold tier's columnar storage format.
//! * [`compact`] — the tiering policy over ranged boards: compacts
//!   sealed spans into frames, evicts under a resident-bytes budget,
//!   spills to disk.
//! * [`channel`] — bounded MPSC channels with counted backpressure,
//!   feeding the streaming collector's ingest workers.
//! * [`coalesce`] — reorder-window batch coalescing with a watermark
//!   rule for late/out-of-order arrivals.
//! * [`fault`] — deterministic seeded fault injection (stalls,
//!   disconnects, torn spill writes, read bit-flips) plus the bounded
//!   retry-with-backoff wrapper the spill I/O paths use.
//! * [`recover`] — durable per-shard spill manifests and
//!   [`RangedVenue::recover_from_spill`], the crash-recovery path that
//!   rebuilds a venue's cold tiers from its spill directory.

pub mod board;
pub mod channel;
pub mod coalesce;
pub mod compact;
pub mod fault;
pub mod frame;
mod locks;
pub mod recover;
pub mod trim;

pub use board::{MergedHistory, PublicBoard, RangedBoard, RangedVenue, RoundRecord};
pub use channel::{bounded, Receiver, SendError, Sender};
pub use coalesce::{
    CoalesceStats, Coalescer, CoalescerConfig, IngestRecord, LatePolicy, RoundBatch,
};
pub use compact::{Compactor, TierConfig, TierStats, TierStatsSnapshot};
pub use fault::{
    with_retry, FaultLane, FaultPlan, FaultSite, FaultSpec, FaultStats, FaultStatsSnapshot,
    RetryPolicy,
};
pub use frame::{Frame, FrameCursor, FrameError};
pub use recover::{
    read_manifest, ManifestEntry, ManifestFile, ManifestWriter, RecoveryReport, ShardRecovery,
    SpanManifest,
};
pub use trim::{SketchThreshold, TrimScratch};
