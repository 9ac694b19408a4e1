//! The streaming collector service: sharded, batch-coalescing ingest.
//!
//! A pull run ([`trim_core::EngineStepper::run`]) decides when rounds
//! happen. A production collector cannot: records arrive from
//! millions of users over bounded channels, late and out of order, and
//! a round plays when its batch *seals*. This module builds that front
//! half on the pieces the PRs before it laid down:
//!
//! ```text
//!  producer 0 ──bounded SPSC──▶ worker 0: Coalescer ─▶ EngineStepper ─▶ RangedBoard shard 0
//!  producer 1 ──bounded SPSC──▶ worker 1: Coalescer ─▶ EngineStepper ─▶ RangedBoard shard 1
//!      ⋮              ⋮                ⋮                                        ⋮
//!                                  (workers multiplexed over N ingest threads)
//! ```
//!
//! * **Channels** ([`trimgame_stream::channel`]): bounded, blocking
//!   producers with counted backpressure. A producer hands over what its
//!   shuffle buffer released during a round in one `send_batch`, all of
//!   it under one send stamp; workers drain in batches. An ingest thread
//!   that finds every stream it owns idle polls them again, yielding
//!   between passes, for up to [`trimgame_stream::channel::SPIN`]; then
//!   it registers on their channels and parks until a send or a
//!   disconnect on any of them wakes it.
//! * **Coalescing** ([`trimgame_stream::coalesce`]): per-round batches
//!   seal on a count trigger or when the bounded reorder window ages
//!   them out; late-beyond-watermark records are counted and routed by
//!   [`LatePolicy`] (drop, or fold into the next round).
//! * **Stepping** ([`trim_core::EngineStepper`]): each sealed batch
//!   plays exactly one round through `Scenario::play_round` —
//!   *unchanged* — with the Fig. 3 information structure intact.
//! * **Recording** ([`trimgame_stream::board::RangedVenue`]): one board
//!   shard per ingest worker, each shard additionally sharded by round
//!   range so appends and incremental reads never touch cold history.
//!
//! **Determinism contract.** For a fixed seed, stream count and
//! coalescing knobs, every game output (engine finals, board contents,
//! coalesce statistics) is bit-identical regardless of how many ingest
//! threads multiplex the workers: each logical stream owns its channel
//! (SPSC order is the producer's deterministic order), its coalescer
//! and its stepper, so thread scheduling can only change *when* a
//! worker runs, never *what* it computes. Only the wall-clock figures
//! (throughput, latency histogram) vary across runs.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use trim_core::adversary::AttackPolicy;
use trim_core::strategy::ThresholdPolicy;
use trim_core::{EngineRun, EngineStepper, Scenario};
use trimgame_numerics::rand_ext::{derive_seed, seeded_rng};
use trimgame_stream::board::RangedVenue;
use trimgame_stream::channel::{bounded, Backoff, Receiver};
use trimgame_stream::coalesce::{
    CoalesceStats, Coalescer, CoalescerConfig, IngestRecord, LatePolicy, RoundBatch,
};
use trimgame_stream::compact::{Compactor, TierConfig};
use trimgame_stream::fault::{FaultPlan, FaultSite, FaultSpec, FaultStatsSnapshot};
use trimgame_stream::recover::{ManifestWriter, RecoveryReport};

/// Stream tag for per-stream producer seeds.
const PRODUCER_STREAM: u64 = 0x494E_4745_5354; // "INGEST"

/// Stream tag for per-stream engine seeds.
const ENGINE_STREAM: u64 = 0x53_5445_5050; // "STEPP"

/// Fault-lane id offset for shard spill lanes, keeping them disjoint
/// from the producer lanes (which use the bare stream index).
const SPILL_LANE_BASE: u64 = 0x1000;

/// Knobs of one collector service run.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Logical ingest streams (one channel + coalescer + stepper +
    /// board shard each).
    pub streams: usize,
    /// OS ingest threads multiplexing the workers (0 = one per stream).
    pub threads: usize,
    /// Rounds each stream's producer emits.
    pub rounds: usize,
    /// Records per round (the coalescer's count trigger).
    pub batch: usize,
    /// Bounded channel capacity, in records.
    pub channel_cap: usize,
    /// Reorder window, in rounds (the coalescer's age trigger).
    pub reorder_window: usize,
    /// Producer-side disorder: records are released through a shuffle
    /// buffer of this size (0 = in-order arrival).
    pub jitter: usize,
    /// Every `late_every`-th record the producer additionally emits a
    /// stale duplicate stamped far behind the current round, to
    /// exercise the watermark path (0 = never).
    pub late_every: usize,
    /// Routing for late-beyond-watermark records.
    pub late_policy: LatePolicy,
    /// Round-range span of each board shard (rounds per sub-board).
    pub round_span: usize,
    /// Tiered-storage policy for the venue's cold spans: each worker
    /// runs a [`Compactor`] on its own shard between rounds, framing
    /// sealed cold spans and (under a resident budget) spilling them.
    /// `None` keeps every span hot and uncompacted.
    pub tier: Option<TierConfig>,
    /// Deterministic fault injection (producer stalls/disconnects, spill
    /// write errors and tears, read bit-flips). `None` runs fault-free;
    /// `expt collect` passes `TRIMGAME_FAULTS=<seed:rate>` in here.
    pub faults: Option<FaultSpec>,
    /// Master seed; every stream derives its own producer and engine
    /// seeds from it.
    pub seed: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            streams: 8,
            threads: 0,
            rounds: 200,
            batch: 64,
            reorder_window: 4,
            channel_cap: 1024,
            jitter: 16,
            late_every: 97,
            late_policy: LatePolicy::Drop,
            round_span: 64,
            tier: None,
            faults: None,
            seed: 42,
        }
    }
}

impl CollectorConfig {
    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            self.streams
        } else {
            self.threads.min(self.streams)
        }
    }
}

/// Everything one logical stream needs: the scenario, both policies,
/// the main environment RNG (possibly already advanced by scenario
/// setup, e.g. an LDP calibration round), and the defender policy
/// sub-seed. Built per stream by the factory passed to
/// [`run_collector`], inside the ingest thread that owns the stream.
pub struct StreamSetup<S: Scenario> {
    pub scenario: S,
    pub defender: Box<dyn ThresholdPolicy>,
    pub adversary: Box<dyn AttackPolicy>,
    pub rng: StdRng,
    pub policy_seed: u64,
}

impl<S: Scenario> std::fmt::Debug for StreamSetup<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSetup")
            .field("policy_seed", &self.policy_seed)
            .finish_non_exhaustive()
    }
}

/// One stream's game outcome after its channel drained.
#[derive(Debug, Clone, Copy)]
pub struct StreamOutcome {
    /// Which logical stream.
    pub stream: usize,
    /// Engine aggregate (finals are bit-stable across thread counts).
    pub run: EngineRun,
    /// Coalescer counters for the stream.
    pub coalesce: CoalesceStats,
    /// Times the stream's producer found its channel full and waited,
    /// read from the channel after the stream drained (so a producer
    /// killed mid-stream still counts).
    pub backpressure_events: u64,
}

/// Sub-buckets per power of two, as a bit count: 8 sub-buckets, so a
/// bucket's width is at most 1/8 of its lower edge.
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Values below `SUB_BUCKETS` get one exact bucket each; every power of
/// two from `SUB_BUCKETS` up to `2^63` gets `SUB_BUCKETS` more.
const LATENCY_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// A lock-free (single-writer) log-linear latency histogram, in the
/// manner of HdrHistogram: each power of two splits into 8 equal
/// sub-buckets, so a reported quantile is within 12.5% of the true
/// sample. Each ingest worker owns one and records nanoseconds from
/// producer send to worker dequeue — so time spent blocked on
/// backpressure counts — and the per-worker histograms merge by plain
/// addition at report time.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
        }
    }

    /// The bucket of `ns`: exact below `SUB_BUCKETS`, else the power of
    /// two `e` and the top `SUB_BITS` bits below its leading one.
    fn bucket(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let sub = (ns >> (e - SUB_BITS)) as usize - SUB_BUCKETS;
        (e - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
    }

    /// The exclusive upper edge of bucket `i`, saturating at `u64::MAX`.
    fn upper_edge(i: usize) -> u64 {
        if i < SUB_BUCKETS {
            return i as u64 + 1;
        }
        let e = (i / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let top = (SUB_BUCKETS + i % SUB_BUCKETS + 1) as u128;
        u64::try_from(top << (e - SUB_BITS)).unwrap_or(u64::MAX)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
    }

    /// Adds another worker's histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper edge (in ns) of the sub-bucket containing quantile `q`, or
    /// 0 with no samples: at most 12.5% above the true sample.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_edge(i);
            }
        }
        u64::MAX
    }
}

/// The full outcome of one collector service run.
#[derive(Debug)]
pub struct CollectorReport {
    /// The configuration that ran.
    pub cfg: CollectorConfig,
    /// Ingest threads actually used.
    pub threads: usize,
    /// Per-stream outcomes, ordered by stream index.
    pub streams: Vec<StreamOutcome>,
    /// The sharded venue holding every posted round record.
    pub venue: RangedVenue,
    /// Rounds played across all streams.
    pub rounds_played: usize,
    /// Records ingested across all streams (including late ones).
    pub records_ingested: u64,
    /// Times a producer blocked on a full channel, summed over the
    /// streams' channels.
    pub backpressure_events: u64,
    /// Merged per-record ingest latency histogram.
    pub latency: LatencyHistogram,
    /// Faults injected over the run (all zeros when `cfg.faults` is
    /// `None`).
    pub faults: FaultStatsSnapshot,
    /// Shards whose compactor ended the run demoted to freeze-only mode
    /// by a terminal spill-write failure.
    pub degraded_shards: usize,
    /// Wall-clock of the ingest phase.
    pub elapsed: Duration,
}

impl CollectorReport {
    /// Sustained throughput in rounds per second.
    #[must_use]
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds_played as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Sustained throughput in records per second.
    #[must_use]
    pub fn records_per_sec(&self) -> f64 {
        self.records_ingested as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Aggregate coalesce counters over all streams.
    #[must_use]
    pub fn coalesce_totals(&self) -> CoalesceStats {
        let mut total = CoalesceStats::default();
        for s in &self.streams {
            total.records += s.coalesce.records;
            total.late += s.coalesce.late;
            total.dropped += s.coalesce.dropped;
            total.folded += s.coalesce.folded;
            total.sealed_full += s.coalesce.sealed_full;
            total.sealed_by_age += s.coalesce.sealed_by_age;
            total.sealed_by_flush += s.coalesce.sealed_by_flush;
        }
        total
    }
}

/// A record in flight: the stamped observation plus its send time, so
/// the dequeue side can histogram true ingest latency (including any
/// backpressure wait, since the stamp is taken before `send_batch`).
/// Producers hand the channel one released round at a time, and every
/// record of that round carries the same stamp.
struct Stamped {
    rec: IngestRecord,
    sent: Instant,
}

/// One worker's state machine: channel tail, coalescer, stepper, shard.
struct Worker<S: Scenario> {
    stream: usize,
    rx: Receiver<Stamped>,
    coalescer: Coalescer,
    stepper: EngineStepper<S>,
    rng: StdRng,
    shard: trimgame_stream::board::RangedBoard,
    /// Tiered-storage maintenance for this worker's shard, run between
    /// rounds (after the sealed batches of a pump played) so appends are
    /// never blocked by compaction.
    compactor: Option<Compactor>,
    /// Recovery high-watermark: rounds at or below this are already
    /// durable in the shard's adopted spans, so a resumed run replays
    /// them through the engine without re-posting (0 = fresh run).
    watermark: usize,
    latency: LatencyHistogram,
    inbox: Vec<Stamped>,
    sealed: Vec<RoundBatch>,
    done: bool,
}

impl<S: Scenario> Worker<S> {
    /// Drains whatever the channel holds, coalesces it, and plays every
    /// round that sealed. Returns `true` if it made progress: records
    /// drained, or the stream finished.
    fn pump(&mut self) -> bool {
        if self.done {
            return false;
        }
        let got = self.rx.try_recv_batch(&mut self.inbox, 4096);
        let now = Instant::now();
        for stamped in self.inbox.drain(..) {
            self.latency
                .record(now.saturating_duration_since(stamped.sent));
            self.coalescer.push(stamped.rec, &mut self.sealed);
        }
        if got == 0 && self.rx.is_disconnected() && self.rx.is_empty() {
            // Producer done and channel drained: the shutdown flush is
            // the time trigger — it seals the reorder-window stragglers.
            self.coalescer.flush(&mut self.sealed);
            self.done = true;
        }
        let played = !self.sealed.is_empty();
        self.play_sealed();
        if played {
            if let Some(compactor) = &self.compactor {
                compactor.run(&self.shard);
            }
        }
        got > 0 || self.done
    }

    /// Plays one engine round per sealed batch, posting to this
    /// worker's shard. Batches arrive in strict round order, so the
    /// shard's O(1) `last_round` check is a pure monotonicity guard.
    fn play_sealed(&mut self) {
        for batch in self.sealed.drain(..) {
            let step = self.stepper.step(&mut self.rng);
            let mut record = step.to_record();
            // The board keys on the *logical* round the batch sealed
            // for, so venue reads line up with the ingest timeline even
            // when a fully-late round was dropped.
            record.round = batch.round.max(step.round);
            // Resume-by-replay: rounds at or below the recovered
            // watermark are already durable in adopted spans. The engine
            // still steps (its state must advance exactly as the
            // original run's did), but the post is suppressed.
            if record.round <= self.watermark {
                continue;
            }
            debug_assert!(
                self.shard.last_round().is_none_or(|r| r < record.round),
                "stream {}: non-monotone post at round {} (batch round {})",
                self.stream,
                record.round,
                batch.round,
            );
            self.shard.post(record);
        }
    }
}

/// Runs the collector service: `cfg.streams` producers feeding as many
/// logical ingest workers, multiplexed over `cfg.threads` OS threads,
/// each worker coalescing its stream into rounds and stepping its own
/// engine. `make(stream)` builds the per-stream game; it is called
/// inside the ingest thread that owns the stream.
///
/// # Panics
/// Panics on a degenerate configuration (zero streams, rounds, batch
/// or span).
pub fn run_collector<S, F>(cfg: &CollectorConfig, make: F) -> CollectorReport
where
    S: Scenario,
    F: Fn(usize) -> StreamSetup<S> + Sync,
{
    run_collector_inner(cfg, make, None)
}

/// [`run_collector`], optionally resuming a crashed run from a venue
/// rebuilt by [`RangedVenue::recover_from_spill`]: the deterministic
/// producers replay from round 1, every round steps through the engine
/// exactly as the original run's did, and posts at or below each shard's
/// recovered watermark are suppressed — the adopted cold spans plus the
/// replayed suffix converge to the bit-identical venue of an
/// uninterrupted run. Fresh manifests are written (adopted spans
/// re-journaled first), so a second crash recovers too.
///
/// # Panics
/// Panics if a recovered venue's geometry (shard count, round span)
/// disagrees with `cfg`, or on a degenerate configuration.
fn run_collector_inner<S, F>(
    cfg: &CollectorConfig,
    make: F,
    resume: Option<(RangedVenue, &RecoveryReport)>,
) -> CollectorReport
where
    S: Scenario,
    F: Fn(usize) -> StreamSetup<S> + Sync,
{
    assert!(cfg.streams > 0, "need at least one stream");
    assert!(cfg.rounds > 0, "need at least one round");
    assert!(cfg.batch > 0, "need a positive batch");
    let threads = cfg.effective_threads();
    let plan = cfg.faults.map(FaultPlan::new);
    let watermarks: Vec<usize> = resume
        .as_ref()
        .map_or_else(|| vec![0; cfg.streams], |(_, r)| r.watermarks(cfg.streams));
    let venue = match &resume {
        Some((venue, _)) => {
            assert_eq!(
                venue.collectors(),
                cfg.streams,
                "recovered venue shard count disagrees with the config"
            );
            assert_eq!(
                venue.collector(0).span(),
                cfg.round_span,
                "recovered venue round span disagrees with the config"
            );
            venue.clone()
        }
        None => RangedVenue::new(cfg.streams, cfg.round_span),
    };
    // Manifests are created eagerly for every shard (not lazily on first
    // spill): the geometry header must be durable before any span is,
    // and a resumed run re-journals its adopted spans so a second crash
    // still recovers them.
    let spill_dir = cfg.tier.as_ref().and_then(|t| t.spill_dir.clone());
    let manifests: Vec<Option<Arc<Mutex<ManifestWriter>>>> = (0..cfg.streams)
        .map(|stream| -> Option<Arc<Mutex<ManifestWriter>>> {
            let dir = spill_dir.as_ref()?;
            let mut writer = ManifestWriter::create(
                dir,
                &format!("s{stream}"),
                stream as u64,
                cfg.streams as u64,
                cfg.round_span as u64,
            )
            .ok()?;
            if let Some((_, recovery)) = &resume {
                if let Some(shard) = recovery.shards.iter().find(|r| r.shard == stream) {
                    for span in &shard.adopted {
                        writer.log_spilled(span).ok()?;
                    }
                }
            }
            Some(Arc::new(Mutex::new(writer)))
        })
        .collect();

    let mut channels = Vec::with_capacity(cfg.streams);
    let mut senders = Vec::with_capacity(cfg.streams);
    for _ in 0..cfg.streams {
        let (tx, rx) = bounded::<Stamped>(cfg.channel_cap.max(1));
        senders.push(tx);
        channels.push(rx);
    }

    let started = Instant::now();
    let mut outcomes: Vec<StreamOutcome> = Vec::with_capacity(cfg.streams);
    let mut latency = LatencyHistogram::new();
    let mut degraded_shards = 0usize;
    std::thread::scope(|scope| {
        // Producers: one per stream, emitting `rounds × batch` stamped
        // records through a seeded shuffle buffer (bounded disorder),
        // plus deliberate stale duplicates every `late_every` records.
        // What the buffer releases during a round goes out in one
        // `send_batch`, so a producer never holds more than a round.
        let mut producers = Vec::with_capacity(cfg.streams);
        for (stream, tx) in senders.into_iter().enumerate() {
            let lane = plan.as_ref().map(|p| p.lane(stream as u64));
            producers.push(scope.spawn(move || {
                let mut rng = seeded_rng(derive_seed(
                    derive_seed(cfg.seed, PRODUCER_STREAM),
                    stream as u64,
                ));
                let mut pending: Vec<IngestRecord> = Vec::with_capacity(cfg.jitter + 1);
                let mut released: Vec<IngestRecord> = Vec::with_capacity(cfg.batch + cfg.jitter);
                let mut batch: Vec<Stamped> = Vec::with_capacity(cfg.batch + cfg.jitter);
                let mut emitted = 0u64;
                let mut send = |released: &mut Vec<IngestRecord>| {
                    let sent = Instant::now();
                    batch.extend(released.drain(..).map(|rec| Stamped { rec, sent }));
                    // A send only fails if the service dropped the
                    // receiver early (a panic elsewhere); nothing to do.
                    let _ = tx.send_batch(&mut batch);
                    batch.clear();
                };
                for round in 1..=cfg.rounds {
                    if let Some(lane) = &lane {
                        if lane.fire(FaultSite::ProducerStall) {
                            // A transient stall: the stream pauses, the
                            // coalescer's reorder window rides it out.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        if lane.fire(FaultSite::Disconnect) {
                            // The producer dies mid-stream: its shuffle
                            // buffer is lost with it and the channel
                            // disconnects when `tx` drops. The worker
                            // flushes what arrived and finishes cleanly.
                            return;
                        }
                    }
                    for _ in 0..cfg.batch {
                        let rec = IngestRecord {
                            round,
                            value: rng.gen::<f64>(),
                        };
                        emitted += 1;
                        if cfg.late_every > 0 && emitted.is_multiple_of(cfg.late_every as u64) {
                            // A stale duplicate well behind the window:
                            // exercises the watermark rule.
                            pending.push(IngestRecord {
                                round: round.saturating_sub(4 * cfg.reorder_window).max(1),
                                value: rec.value,
                            });
                        }
                        pending.push(rec);
                        while pending.len() > cfg.jitter {
                            let i = rng.gen_range(0..pending.len());
                            released.push(pending.swap_remove(i));
                        }
                    }
                    send(&mut released);
                }
                while !pending.is_empty() {
                    let i = rng.gen_range(0..pending.len());
                    released.push(pending.swap_remove(i));
                }
                send(&mut released);
            }));
        }

        // Ingest threads: thread `t` owns workers `{w : w % threads == t}`.
        // The worker partition is a function of the *stream index*, not
        // of scheduling, so outputs cannot depend on the thread count.
        let mut handles = Vec::with_capacity(threads);
        let make = &make;
        let plan = &plan;
        let manifests = &manifests;
        let watermarks = &watermarks;
        let mut rx_slots: Vec<Option<Receiver<Stamped>>> = channels.into_iter().map(Some).collect();
        for t in 0..threads {
            let mut owned: Vec<(usize, Receiver<Stamped>)> = rx_slots
                .iter_mut()
                .enumerate()
                .filter(|(w, _)| w % threads == t)
                .map(|(w, slot)| (w, slot.take().expect("each worker owned once")))
                .collect();
            let venue = &venue;
            handles.push(scope.spawn(move || {
                let mut workers: Vec<Worker<S>> = owned
                    .drain(..)
                    .map(|(stream, rx)| {
                        let setup = make(stream);
                        let shard = venue.collector(stream);
                        if let Some(plan) = plan {
                            shard.arm_faults(plan.lane(SPILL_LANE_BASE + stream as u64));
                        }
                        Worker {
                            stream,
                            rx,
                            coalescer: Coalescer::new(CoalescerConfig {
                                batch: cfg.batch,
                                reorder_window: cfg.reorder_window,
                                late_policy: cfg.late_policy,
                            }),
                            stepper: EngineStepper::with_policy_seed(
                                setup.scenario,
                                setup.defender,
                                setup.adversary,
                                setup.policy_seed,
                            ),
                            rng: setup.rng,
                            shard,
                            compactor: cfg.tier.clone().map(|tier| {
                                let compactor = Compactor::new(tier, format!("s{stream}"));
                                match &manifests[stream] {
                                    Some(m) => compactor.with_manifest(m.clone()),
                                    None => compactor,
                                }
                            }),
                            watermark: watermarks[stream],
                            latency: LatencyHistogram::new(),
                            inbox: Vec::new(),
                            sealed: Vec::new(),
                            done: false,
                        }
                    })
                    .collect();
                // Pump every owned worker. Passes that find nothing
                // repeat for up to `channel::SPIN`, yielding between
                // them; then the thread registers on every live channel
                // and parks until a send or a disconnect on any of them.
                // A registration fails if its channel turned ready since
                // the pass, and then the thread pumps again instead of
                // parking.
                let me = std::thread::current();
                let mut backoff = Backoff::default();
                loop {
                    let progressed = workers.iter_mut().fold(false, |p, w| w.pump() | p);
                    let mut live = workers.iter().filter(|w| !w.done).peekable();
                    if live.peek().is_none() {
                        break;
                    }
                    if progressed {
                        backoff.reset();
                    } else if !backoff.snooze() {
                        backoff.reset();
                        if live.all(|w| w.rx.register_waiter(&me)) {
                            std::thread::park();
                        }
                    }
                }
                workers
                    .into_iter()
                    .map(|w| {
                        (
                            StreamOutcome {
                                stream: w.stream,
                                run: w.stepper.summary(),
                                coalesce: w.coalescer.stats(),
                                backpressure_events: w.rx.backpressure_events(),
                            },
                            w.latency,
                            w.compactor.as_ref().is_some_and(Compactor::is_degraded),
                        )
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (outcome, hist, is_degraded) in handle.join().expect("ingest thread panicked") {
                latency.merge(&hist);
                degraded_shards += usize::from(is_degraded);
                outcomes.push(outcome);
            }
        }
        // Join the producers too, rather than leaving them to the scope:
        // a joined thread has fully exited, so the allocator has taken
        // back its per-thread arena before the next run spawns threads
        // that would otherwise each open a new one.
        for producer in producers {
            producer.join().expect("producer thread panicked");
        }
    });
    let elapsed = started.elapsed();
    outcomes.sort_by_key(|o| o.stream);

    let rounds_played = outcomes.iter().map(|o| o.run.rounds).sum();
    let records_ingested = outcomes.iter().map(|o| o.coalesce.records).sum();
    let backpressure_events = outcomes.iter().map(|o| o.backpressure_events).sum();
    CollectorReport {
        cfg: cfg.clone(),
        threads,
        streams: outcomes,
        venue,
        rounds_played,
        records_ingested,
        backpressure_events,
        latency,
        faults: plan
            .as_ref()
            .map(|p| p.stats().snapshot())
            .unwrap_or_default(),
        degraded_shards,
        elapsed,
    }
}

/// The standard scalar-substrate stream factory: each stream plays the
/// Tit-for-tat game over the shared benchmark pool with stream-derived
/// seeds. Used by `expt collect`, the perf cases and the determinism
/// tests.
#[must_use]
pub fn scalar_stream_setup(
    pool: &[f64],
    rounds: usize,
    master_seed: u64,
    stream: usize,
) -> StreamSetup<trim_core::simulation::ScalarScenario> {
    use trim_core::simulation::{GameConfig, Scheme, POLICY_SEED_STREAM};
    let seed = derive_seed(derive_seed(master_seed, ENGINE_STREAM), stream as u64);
    let cfg = GameConfig {
        seed,
        rounds,
        ..GameConfig::new(Scheme::TitForTat)
    };
    let scenario = trim_core::simulation::ScalarScenario::lean(pool, &cfg);
    StreamSetup {
        scenario,
        defender: Box::new(cfg.scheme.defender(cfg.tth, 1.0, cfg.red)),
        adversary: Box::new(cfg.scheme.adversary(cfg.tth)),
        rng: seeded_rng(seed),
        policy_seed: derive_seed(seed, POLICY_SEED_STREAM),
    }
}

/// `expt collect`: runs the collector service on `run.substrate` and
/// reports sustained throughput, tail ingest latency,
/// coalescing/backpressure counters and the sharded-vs-single-stream
/// ratio. `run.smoke` shrinks the run for CI; `run.workers` caps the
/// ingest thread count (0 = one thread per stream). With `run.recover`
/// it resumes from the manifests under `run.collect_spill` instead.
///
/// # Panics
/// Panics if `run.recover` is set without `run.collect_spill`.
#[must_use]
pub fn collect_report(run: &crate::config::RunConfig) -> String {
    use std::fmt::Write as _;

    let kind = run.substrate;
    // Tiering is always on for the report run; `run.collect_budget`
    // (resident bytes for cold spans) and `run.collect_spill` (a
    // directory for evicted frames) tighten it for bounded-memory runs.
    // The sharded run and the single-stream baseline spill into separate
    // subdirectories — their shard tags would otherwise collide.
    let spill_root = run.collect_spill.as_ref();
    let tier = TierConfig {
        resident_budget: run.collect_budget,
        spill_dir: spill_root.map(|p| p.join("sharded")),
        ..TierConfig::default()
    };
    let cfg = CollectorConfig {
        streams: 8,
        threads: run.workers,
        rounds: if run.smoke { 40 } else { 400 },
        // Smoke runs are short; shrink the span so they still seal cold
        // spans and exercise the compact → evict → inflate path.
        round_span: if run.smoke { 8 } else { 64 },
        tier: Some(tier),
        // Chaos runs inject the seeded fault schedule into the sharded
        // run (the baseline and the recovery reference stay clean).
        faults: run.faults,
        ..CollectorConfig::default()
    };

    if run.recover {
        let dir = spill_root
            .expect("RunConfig::parse rejects --recover without a spill directory")
            .join("sharded");
        return recover_report(kind, &cfg, &dir);
    }

    let sharded = run_on(kind, &cfg);
    // The single-worker channel baseline: the same total round volume
    // through one stream, one channel, one coalescer, one shard.
    let single_cfg = CollectorConfig {
        streams: 1,
        threads: 1,
        rounds: cfg.rounds * cfg.streams,
        tier: Some(TierConfig {
            spill_dir: spill_root.map(|p| p.join("single")),
            ..cfg.tier.clone().expect("report always tiers")
        }),
        faults: None,
        ..cfg.clone()
    };
    let single = run_on(kind, &single_cfg);

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let ratio = sharded.rounds_per_sec() / single.rounds_per_sec().max(1e-9);
    let totals = sharded.coalesce_totals();
    let mut out = String::new();
    let _ = writeln!(out, "collector service — substrate {}", kind.name());
    let _ = writeln!(
        out,
        "  streams {}  ingest-threads {}  rounds/stream {}  batch {}  window {}  span {}  late-policy {:?}",
        cfg.streams,
        sharded.threads,
        cfg.rounds,
        cfg.batch,
        cfg.reorder_window,
        cfg.round_span,
        cfg.late_policy,
    );
    let _ = writeln!(
        out,
        "  sharded   : {:>10.0} rounds/s  ({:.2e} records/s, {} rounds in {:?})",
        sharded.rounds_per_sec(),
        sharded.records_per_sec(),
        sharded.rounds_played,
        sharded.elapsed,
    );
    let _ = writeln!(
        out,
        "  1-stream  : {:>10.0} rounds/s  ({} rounds in {:?})",
        single.rounds_per_sec(),
        single.rounds_played,
        single.elapsed,
    );
    let _ = writeln!(
        out,
        "  sharded / single-stream: {ratio:.2}x on {cores} core(s){}",
        if cores == 1 {
            " — single-core host: the >=3x multi-worker win needs real cores; \
             both paths time-slice one"
        } else {
            ""
        },
    );
    let _ = writeln!(
        out,
        "  ingest latency: p50 {} ns  p99 {} ns  ({} samples, log-linear buckets)",
        sharded.latency.quantile_ns(0.50),
        sharded.latency.quantile_ns(0.99),
        sharded.latency.count(),
    );
    let _ = writeln!(
        out,
        "  coalesce: {} records, {} late ({} dropped / {} folded), sealed {} full / {} aged / {} flushed",
        totals.records,
        totals.late,
        totals.dropped,
        totals.folded,
        totals.sealed_full,
        totals.sealed_by_age,
        totals.sealed_by_flush,
    );
    let _ = writeln!(
        out,
        "  backpressure events: {}  board: {} records across {} shards (span {})",
        sharded.backpressure_events,
        sharded.venue.total_len(),
        cfg.streams,
        cfg.round_span,
    );
    let tier_cfg = cfg.tier.as_ref().expect("report always tiers");
    let t = sharded.venue.tier_stats().snapshot();
    let _ = writeln!(
        out,
        "  tiering: {} spans framed ({} records)  {} B raw -> {} B framed ({:.2}x)  {} inflations",
        t.frames_built,
        t.compacted_records,
        t.bytes_raw,
        t.bytes_framed,
        t.bytes_raw as f64 / (t.bytes_framed as f64).max(1.0),
        t.inflations,
    );
    let _ = writeln!(
        out,
        "  tiering: resident cold {} B over {} shards (budget {})  spills {} written / {} loaded  overruns {}",
        sharded.venue.resident_cold_bytes(tier_cfg.hot_tail_spans),
        cfg.streams,
        tier_cfg
            .resident_budget
            .map_or_else(|| "none".to_string(), |b| format!("{b} B/shard")),
        t.spill_writes,
        t.spill_loads,
        t.budget_overruns,
    );
    let f = sharded.faults;
    let _ = writeln!(
        out,
        "  faults: {} injected (stall {}, disconnect {}, spill-err {}, short-write {}, read-flip {})  \
         io-retries {}  write-failures {}  lost-reads {}  degraded shards {}",
        f.total(),
        f.stalls,
        f.disconnects,
        f.spill_write_errors,
        f.spill_short_writes,
        f.read_corruptions,
        t.io_retries,
        t.spill_write_failures,
        t.lost_span_reads,
        sharded.degraded_shards,
    );
    out
}

/// `expt collect --recover`: rebuilds the venue from the spill
/// directory's manifests, resumes the run from the recovered
/// watermarks, and proves bit-identical convergence against a clean
/// uninterrupted reference run.
///
/// # Panics
/// Panics if the spill directory holds no recoverable manifests, or the
/// resumed venue diverges from the uninterrupted reference.
fn recover_report(
    kind: crate::empirical::SubstrateKind,
    cfg: &CollectorConfig,
    dir: &std::path::Path,
) -> String {
    use std::fmt::Write as _;

    let (venue, recovery) = RangedVenue::recover_from_spill(dir)
        .unwrap_or_else(|e| panic!("recovery from {} failed: {e}", dir.display()));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "collector recovery — substrate {} ({})",
        kind.name(),
        dir.display(),
    );
    let _ = writeln!(
        out,
        "  recovered: {} spans ({} rounds) across {} shards  quarantined {}  rounds lost {}",
        recovery.spans_recovered(),
        recovery.rounds_recovered(),
        recovery.shards.len(),
        recovery.spans_quarantined(),
        recovery.rounds_lost(),
    );
    let _ = writeln!(out, "  watermarks: {:?}", recovery.watermarks(cfg.streams),);

    // Resume fault-free from the recovered watermarks, then replay the
    // whole run fault-free and untiered as the reference.
    let resume_cfg = CollectorConfig {
        faults: None,
        ..cfg.clone()
    };
    let resumed = run_on_inner(kind, &resume_cfg, Some((venue, &recovery)));
    let reference_cfg = CollectorConfig {
        tier: None,
        faults: None,
        ..cfg.clone()
    };
    let reference = run_on(kind, &reference_cfg);
    let resumed_records = resumed.venue.merged().records();
    let reference_records = reference.venue.merged().records();
    assert_eq!(
        resumed_records.len(),
        reference_records.len(),
        "resumed venue holds {} records, uninterrupted reference {}",
        resumed_records.len(),
        reference_records.len(),
    );
    assert!(
        resumed_records == reference_records,
        "resumed venue diverges from the uninterrupted reference",
    );
    let _ = writeln!(
        out,
        "  resumed: replayed to {} records across {} shards  (suppressed re-posts at/below watermarks)",
        resumed.venue.total_len(),
        cfg.streams,
    );
    let _ = writeln!(
        out,
        "  recovered + resumed venue is bit-identical to the uninterrupted reference \
         ({} merged records compared)",
        reference_records.len(),
    );
    out
}

/// Runs the collector on `kind`'s standard substrate instance.
fn run_on(kind: crate::empirical::SubstrateKind, cfg: &CollectorConfig) -> CollectorReport {
    run_on_inner(kind, cfg, None)
}

/// [`run_on`] with an optional recovered venue to resume from.
fn run_on_inner(
    kind: crate::empirical::SubstrateKind,
    cfg: &CollectorConfig,
    resume: Option<(RangedVenue, &RecoveryReport)>,
) -> CollectorReport {
    use crate::empirical::{
        standard_ldp_population, standard_ml_dataset, standard_pool, SubstrateKind,
    };
    match kind {
        SubstrateKind::Scalar => {
            let pool = standard_pool();
            run_collector_inner(
                cfg,
                |stream| scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream),
                resume,
            )
        }
        SubstrateKind::Ml => {
            use trim_core::ml_sim::{MlScenario, MlSimConfig};
            use trim_core::simulation::{Scheme, POLICY_SEED_STREAM};
            let data = standard_ml_dataset();
            run_collector_inner(
                cfg,
                |stream| {
                    let seed = derive_seed(derive_seed(cfg.seed, ENGINE_STREAM), stream as u64);
                    let ml_cfg = MlSimConfig {
                        rounds: cfg.rounds,
                        seed,
                        ..MlSimConfig::new(Scheme::TitForTat, 0.9, 0.2, seed)
                    };
                    StreamSetup {
                        scenario: MlScenario::lean(&data, &ml_cfg),
                        defender: Box::new(ml_cfg.scheme.defender(ml_cfg.tth, 1.0, ml_cfg.red)),
                        adversary: Box::new(ml_cfg.scheme.adversary(ml_cfg.tth)),
                        rng: seeded_rng(seed),
                        policy_seed: derive_seed(seed, POLICY_SEED_STREAM),
                    }
                },
                resume,
            )
        }
        SubstrateKind::Ldp => {
            use trim_core::adversary::AdversaryPolicy;
            use trim_core::ldp_sim::{ldp_defender, LdpDefense, LdpScenario, LdpSimConfig};
            use trim_core::simulation::POLICY_SEED_STREAM;
            let population = standard_ldp_population();
            run_collector_inner(
                cfg,
                |stream| {
                    let seed = derive_seed(derive_seed(cfg.seed, ENGINE_STREAM), stream as u64);
                    let ldp_cfg = LdpSimConfig {
                        rounds: cfg.rounds,
                        users_per_round: 400,
                        ..LdpSimConfig::new(3.0, 0.2, seed)
                    };
                    let defense = LdpDefense::TitForTat;
                    // The calibration round consumes the head of the main
                    // stream, exactly as the pull-based LDP driver does.
                    let mut rng = seeded_rng(seed);
                    let scenario = LdpScenario::new(&population, defense, &ldp_cfg, &mut rng);
                    StreamSetup {
                        scenario,
                        defender: Box::new(ldp_defender(defense, &ldp_cfg)),
                        adversary: Box::new(AdversaryPolicy::Fixed { percentile: 1.0 }),
                        rng,
                        policy_seed: derive_seed(seed, POLICY_SEED_STREAM),
                    }
                },
                resume,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical::standard_pool;

    fn small_cfg() -> CollectorConfig {
        CollectorConfig {
            streams: 4,
            threads: 0,
            rounds: 30,
            batch: 16,
            channel_cap: 64,
            reorder_window: 3,
            jitter: 8,
            late_every: 41,
            late_policy: LatePolicy::Drop,
            round_span: 8,
            tier: None,
            faults: None,
            seed: 7,
        }
    }

    fn finals(report: &CollectorReport) -> Vec<(u64, u64, usize)> {
        report
            .streams
            .iter()
            .map(|s| {
                (
                    s.run.final_u_a.to_bits(),
                    s.run.final_u_c.to_bits(),
                    s.run.rounds,
                )
            })
            .collect()
    }

    fn merged_rounds(report: &CollectorReport) -> Vec<(usize, usize)> {
        report
            .venue
            .merged()
            .records()
            .iter()
            .map(|(c, r)| (r.round, *c))
            .collect()
    }

    #[test]
    fn collector_output_is_bit_identical_across_thread_counts() {
        // The acceptance contract: same seed, same coalescing
        // boundaries → identical outputs for TRIMGAME_SWEEP_THREADS-
        // style thread counts 1, 2 and 8 (2 multiplexes two streams per
        // parked thread, 8 > streams exercises the cap). The second
        // config's rounds outgrow the channel, so every `send_batch`
        // fills it, waits and sends the rest.
        let pool = standard_pool();
        for base in [
            small_cfg(),
            CollectorConfig {
                channel_cap: 5,
                ..small_cfg()
            },
        ] {
            let run = |threads: usize| {
                let cfg = CollectorConfig {
                    threads,
                    ..base.clone()
                };
                run_collector(&cfg, |stream| {
                    scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream)
                })
            };
            let single = run(1);
            assert!(
                base.batch <= base.channel_cap || single.backpressure_events > 0,
                "rounds larger than the channel never waited"
            );
            for multi in [run(2), run(8)] {
                assert_eq!(finals(&single), finals(&multi));
                assert_eq!(merged_rounds(&single), merged_rounds(&multi));
                let a: Vec<CoalesceStats> = single.streams.iter().map(|s| s.coalesce).collect();
                let b: Vec<CoalesceStats> = multi.streams.iter().map(|s| s.coalesce).collect();
                assert_eq!(a, b);
                assert_eq!(single.rounds_played, multi.rounds_played);
                assert_eq!(single.records_ingested, multi.records_ingested);
            }
        }
    }

    #[test]
    fn collector_plays_the_requested_rounds_and_records_them() {
        let pool = standard_pool();
        let cfg = small_cfg();
        let report = run_collector(&cfg, |stream| {
            scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream)
        });
        assert_eq!(report.streams.len(), cfg.streams);
        // The deliberate stale duplicates may drop, but every genuine
        // round's batch has on-time records under this jitter, so all
        // rounds play.
        for s in &report.streams {
            assert_eq!(s.run.rounds, cfg.rounds, "stream {}", s.stream);
            assert!(s.coalesce.late > 0, "late path never exercised");
            assert_eq!(s.coalesce.dropped, s.coalesce.late);
        }
        // Every played round landed on the venue, round-ordered across
        // both shard dimensions.
        let merged = report.venue.merged();
        assert_eq!(merged.len(), report.rounds_played);
        let order = merged_rounds(&report);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert!(report.latency.count() > 0);
        assert!(report.rounds_per_sec() > 0.0);
    }

    #[test]
    fn fold_policy_folds_instead_of_dropping() {
        let pool = standard_pool();
        let cfg = CollectorConfig {
            late_policy: LatePolicy::FoldIntoNext,
            ..small_cfg()
        };
        let report = run_collector(&cfg, |stream| {
            scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream)
        });
        let totals = report.coalesce_totals();
        assert!(totals.late > 0);
        assert_eq!(totals.folded, totals.late);
        assert_eq!(totals.dropped, 0);
    }

    #[test]
    fn tiered_collector_is_bit_identical_to_untiered_across_thread_counts() {
        let pool = standard_pool();
        let spill = std::env::temp_dir().join(format!("trimgame-collect-{}", std::process::id()));
        let tier = TierConfig {
            hot_tail_spans: 1,
            resident_budget: Some(0),
            spill_dir: Some(spill.clone()),
        };
        let run = |threads: usize, tier: Option<TierConfig>| {
            let cfg = CollectorConfig {
                threads,
                tier,
                ..small_cfg()
            };
            run_collector(&cfg, |stream| {
                scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream)
            })
        };
        let untiered = run(1, None);
        let tiered_1 = run(1, Some(tier.clone()));
        let tiered_8 = run(8, Some(tier));
        // A zero budget with a spill directory is the harshest setting:
        // every sealed cold span is framed and evicted to disk mid-run,
        // yet game outcomes and the merged venue view stay bit-identical
        // to the fully-hot run, at any thread count.
        assert_eq!(finals(&untiered), finals(&tiered_1));
        assert_eq!(finals(&untiered), finals(&tiered_8));
        assert_eq!(merged_rounds(&untiered), merged_rounds(&tiered_1));
        assert_eq!(merged_rounds(&untiered), merged_rounds(&tiered_8));
        let t = tiered_1.venue.tier_stats().snapshot();
        assert!(t.frames_built > 0, "no span was ever compacted");
        assert!(t.spill_writes > 0, "zero budget must evict to disk");
        assert_eq!(t.budget_overruns, 0);
        assert_eq!(tiered_1.venue.resident_cold_bytes(1), 0);
        let hot = untiered.venue.tier_stats().snapshot();
        assert_eq!(hot.frames_built, 0, "untiered run must not compact");
        let _ = std::fs::remove_dir_all(&spill);
    }

    #[test]
    fn representative_collector_run_compresses_at_least_4x() {
        // The acceptance ratio rides on *real* collector history — the
        // engine's actual per-round records, span-256 frames — not on a
        // synthetic worst case. 540 rounds seal two spans; the hot-tail
        // exemption leaves one, so exactly one frame is measured.
        let pool = standard_pool();
        let cfg = CollectorConfig {
            streams: 1,
            threads: 1,
            rounds: 540,
            batch: 32,
            round_span: 256,
            tier: Some(TierConfig::default()),
            ..CollectorConfig::default()
        };
        let report = run_collector(&cfg, |stream| {
            scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream)
        });
        let t = report.venue.tier_stats().snapshot();
        assert!(t.frames_built >= 1);
        assert!(
            t.bytes_raw >= 4 * t.bytes_framed,
            "representative compression ratio {:.2}x below 4x ({} B raw, {} B framed)",
            t.bytes_raw as f64 / t.bytes_framed as f64,
            t.bytes_raw,
            t.bytes_framed,
        );
    }

    #[test]
    fn injected_faults_are_counted_and_survived() {
        let pool = standard_pool();
        let spill = std::env::temp_dir().join(format!("trimgame-chaos-{}", std::process::id()));
        let cfg = CollectorConfig {
            rounds: 60,
            tier: Some(TierConfig {
                hot_tail_spans: 1,
                resident_budget: Some(0),
                spill_dir: Some(spill.clone()),
            }),
            faults: Some(FaultSpec {
                seed: 23,
                rate: 0.3,
            }),
            ..small_cfg()
        };
        let report = run_collector(&cfg, |stream| {
            scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream)
        });
        // Zero panics by construction (we got here); every injected
        // fault is visible in the counters and the venue still serves
        // reads through the corrupted/retried spill tier.
        assert!(report.faults.total() > 0, "no fault ever fired");
        assert!(report.faults.stalls > 0, "stall site never fired");
        assert!(report.rounds_played > 0);
        let merged = report.venue.merged().records();
        assert_eq!(merged.len(), report.venue.total_len());
        let t = report.venue.tier_stats().snapshot();
        let spill_faults = report.faults.spill_write_errors + report.faults.spill_short_writes;
        assert!(
            spill_faults == 0 || t.io_retries > 0 || t.spill_write_failures > 0,
            "spill faults fired but neither retries nor terminal failures were counted"
        );
        let _ = std::fs::remove_dir_all(&spill);
    }

    #[test]
    fn killed_producers_backpressure_is_counted() {
        // Rounds of 16 records through a 4-record channel: every round's
        // `send_batch` waits at least once, so any producer that sent a
        // round counts backpressure, including the ones a disconnect
        // fault kills mid-stream. The report sums its channels.
        let pool = standard_pool();
        let cfg = CollectorConfig {
            rounds: 80,
            channel_cap: 4,
            faults: Some(FaultSpec {
                seed: 601,
                rate: 0.25,
            }),
            ..small_cfg()
        };
        let report = run_collector(&cfg, |stream| {
            scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream)
        });
        assert!(report.faults.disconnects > 0);
        let per_channel: u64 = report.streams.iter().map(|s| s.backpressure_events).sum();
        assert_eq!(report.backpressure_events, per_channel);
        let killed: Vec<&StreamOutcome> = report
            .streams
            .iter()
            .filter(|s| s.run.rounds > 0 && s.run.rounds < cfg.rounds)
            .collect();
        assert!(!killed.is_empty(), "no producer died after sending a round");
        for s in killed {
            assert!(
                s.backpressure_events > 0,
                "stream {} lost its count",
                s.stream
            );
        }
    }

    #[test]
    fn killed_run_recovers_and_resumes_bit_identical() {
        // The acceptance contract: a run killed mid-stream by injected
        // disconnects leaves durable manifests; recovery + fault-free
        // resume converges to the bit-identical venue and engine finals
        // of a run that was never interrupted.
        let pool = standard_pool();
        let spill = std::env::temp_dir().join(format!("trimgame-recover-{}", std::process::id()));
        let tier = TierConfig {
            hot_tail_spans: 1,
            resident_budget: Some(0),
            spill_dir: Some(spill.clone()),
        };
        let clean_cfg = CollectorConfig {
            rounds: 80,
            tier: Some(tier.clone()),
            ..small_cfg()
        };
        let faulted_cfg = CollectorConfig {
            faults: Some(FaultSpec {
                seed: 601,
                rate: 0.25,
            }),
            ..clean_cfg.clone()
        };
        let killed = run_collector(&faulted_cfg, |stream| {
            scalar_stream_setup(&pool, faulted_cfg.rounds, faulted_cfg.seed, stream)
        });
        assert!(
            killed.faults.disconnects > 0,
            "seed must kill at least one producer mid-stream"
        );
        assert!(
            killed.rounds_played < clean_cfg.rounds * clean_cfg.streams,
            "disconnects must actually lose rounds"
        );

        let (venue, recovery) = RangedVenue::recover_from_spill(&spill).unwrap();
        assert!(recovery.spans_recovered() > 0, "nothing was recovered");
        let resumed = run_collector_inner(
            &clean_cfg,
            |stream| scalar_stream_setup(&pool, clean_cfg.rounds, clean_cfg.seed, stream),
            Some((venue, &recovery)),
        );
        let reference = run_collector(
            &CollectorConfig {
                tier: None,
                ..clean_cfg.clone()
            },
            |stream| scalar_stream_setup(&pool, clean_cfg.rounds, clean_cfg.seed, stream),
        );
        assert_eq!(finals(&resumed), finals(&reference));
        assert!(
            resumed.venue.merged().records() == reference.venue.merged().records(),
            "recovered + resumed venue diverges from the uninterrupted reference"
        );
        // The resumed run re-journaled its adopted spans: a second
        // recovery sees at least as much durable history.
        let (_, second) = RangedVenue::recover_from_spill(&spill).unwrap();
        assert!(second.rounds_recovered() >= recovery.rounds_recovered());
        let _ = std::fs::remove_dir_all(&spill);
    }

    #[test]
    fn latency_histogram_quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.99), 0);
        for ns in [50u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(Duration::from_nanos(ns));
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.count(), 2 * h.count());
        let p50 = merged.quantile_ns(0.5);
        let p99 = merged.quantile_ns(0.99);
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(p99 >= 1_000_000, "p99 {p99} below the largest sample");

        // Log-linear resolution: a sample reads back within 12.5%.
        let mut one = LatencyHistogram::new();
        one.record(Duration::from_nanos(1_000));
        let p50 = one.quantile_ns(0.5);
        assert!(
            (1_000..=1_125).contains(&p50),
            "1000 ns sample reads p50 {p50}"
        );

        // Quantiles stay monotone in q across merges of mixed samples,
        // and every reported edge lies within 12.5% above its sample.
        let mut acc = LatencyHistogram::new();
        for (k, ns) in [3u64, 8, 999, 1_000, 4_194_304, 5_000_000, u64::MAX]
            .into_iter()
            .enumerate()
        {
            let mut h = LatencyHistogram::new();
            h.record(Duration::from_nanos(ns));
            let edge = h.quantile_ns(1.0);
            assert!(edge > ns || edge == u64::MAX, "edge {edge} not above {ns}");
            assert!(
                edge as f64 <= ns as f64 * 1.125 + 1.0,
                "edge {edge} for {ns}"
            );
            acc.merge(&h);
            assert_eq!(acc.count(), k as u64 + 1);
            let qs: Vec<u64> = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
                .iter()
                .map(|&q| acc.quantile_ns(q))
                .collect();
            assert!(qs.windows(2).all(|w| w[0] <= w[1]), "non-monotone {qs:?}");
        }
    }
}
