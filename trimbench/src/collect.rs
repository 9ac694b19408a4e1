//! The collector workloads, `collect-ingest` and `collect-rounds`.
//!
//! One operation is one `run_collector` call that plays a fixed number of
//! rounds on one stream: one producer thread blocking on the bounded
//! channel, one ingest thread. A fixed round count, not a time window,
//! because `Compactor::run` walks one summary per span of history, so the
//! cost of a round grows with the history before it: the parent and a
//! change must play the same history to be comparable.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use trim_core::adversary::{AdversaryObservation, AttackPolicy};
use trim_core::engine::{EngineStepper, EngineTotals, RoundReport, Scenario};
use trim_core::simulation::{GameConfig, ScalarScenario, Scheme, POLICY_SEED_STREAM};
use trim_core::strategy::{DefenderObservation, ThresholdPolicy};
use trimgame_bench::collector::{run_collector, CollectorConfig, CollectorReport, StreamSetup};
use trimgame_bench::empirical::standard_pool;
use trimgame_numerics::rand_ext::{derive_seed, seeded_rng};
use trimgame_stream::board::{RangedBoard, RoundRecord};
use trimgame_stream::channel::bounded;
use trimgame_stream::coalesce::{
    CoalesceStats, Coalescer, CoalescerConfig, IngestRecord, RoundBatch,
};
use trimgame_stream::compact::{Compactor, TierConfig, TierStatsSnapshot};

use crate::trace::{busy, next_id, now_ns, Sink, Span};
use crate::{
    end_to_end, overhead_metric, sys, timed_loop, timed_setup, Checks, Metric, OpSample, Opts,
    Outcome, Scale, TracedRun, Workload,
};

/// Stream tag deriving each stream's engine seed from the run seed.
const ENGINE_STREAM: u64 = 0x54_4245_4E47; // "TBENG"

/// Stream tag of the replayed record stream's seed.
const REPLAY_STREAM: u64 = 0x5442_5250; // "TBRP"

/// Timed repetitions of each replay; the per-layer figure is the median.
const REPLAY_REPS: usize = 5;

/// The collector configuration of one operation of `workload`: one
/// stream on one ingest thread, a fixed round count, the default jitter
/// (16), stale-duplicate cadence (every 97th record), reorder window,
/// channel capacity and span, and the default tiering (frames stay in
/// memory, nothing spills). At tiny scale, `collect-ingest` still plays
/// enough rounds to freeze one span.
///
/// # Panics
/// Panics for a solver workload.
pub fn config(workload: Workload, scale: Scale, seed: u64) -> CollectorConfig {
    // (records per round, rounds per operation)
    let (batch, rounds) = match (workload, scale) {
        (Workload::CollectIngest, Scale::Full) => (1000, 192),
        (Workload::CollectRounds, Scale::Full) => (16, 8192),
        (Workload::CollectIngest, Scale::Tiny) => (1000, 140),
        (Workload::CollectRounds, Scale::Tiny) => (16, 300),
        _ => panic!("{} is not a collector workload", workload.name()),
    };
    CollectorConfig {
        streams: 1,
        threads: 1,
        rounds,
        batch,
        tier: Some(TierConfig::default()),
        faults: None,
        seed,
        ..CollectorConfig::default()
    }
}

/// The scalar Tit-for-tat game of stream `stream`, with the scenario's
/// batch equal to the records a round carries.
fn stream_setup(pool: &[f64], cfg: &CollectorConfig, stream: usize) -> StreamSetup<ScalarScenario> {
    let seed = derive_seed(derive_seed(cfg.seed, ENGINE_STREAM), stream as u64);
    let game = GameConfig {
        seed,
        rounds: cfg.rounds,
        batch: cfg.batch,
        ..GameConfig::new(Scheme::TitForTat)
    };
    StreamSetup {
        scenario: ScalarScenario::lean(pool, &game),
        defender: Box::new(game.scheme.defender(game.tth, 1.0, game.red)),
        adversary: Box::new(game.scheme.adversary(game.tth)),
        rng: seeded_rng(seed),
        policy_seed: derive_seed(seed, POLICY_SEED_STREAM),
    }
}

/// Stream 0's outputs: the engine finals (as bits), the coalescer's
/// counters and the length of its board shard.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    u_a: u64,
    u_c: u64,
    rounds: usize,
    totals: EngineTotals,
    termination: Option<usize>,
    coalesce: CoalesceStats,
    shard_len: usize,
}

fn fingerprint(report: &CollectorReport) -> Fingerprint {
    let s = &report.streams[0];
    Fingerprint {
        u_a: s.run.final_u_a.to_bits(),
        u_c: s.run.final_u_c.to_bits(),
        rounds: s.run.rounds,
        totals: s.run.totals,
        termination: s.run.termination_round,
        coalesce: s.coalesce,
        shard_len: report.venue.collector(0).len(),
    }
}

/// The reference outputs, computed once with two streams multiplexed on
/// one ingest thread. Stream 0's producer and engine seeds do not depend
/// on the stream count, and the collector's outputs do not depend on
/// scheduling, so stream 0 must match every measured operation bit for
/// bit.
fn reference(pool: &[f64], cfg: &CollectorConfig, corrupt: bool) -> Fingerprint {
    let ref_cfg = CollectorConfig {
        streams: 2,
        threads: 1,
        ..cfg.clone()
    };
    let mut fp = fingerprint(&run_collector(&ref_cfg, |s| {
        stream_setup(pool, &ref_cfg, s)
    }));
    if corrupt {
        fp.u_a ^= 1;
    }
    fp
}

fn verified(report: &CollectorReport, cfg: &CollectorConfig, reference: &Fingerprint) -> bool {
    report.rounds_played == cfg.rounds && fingerprint(report) == *reference
}

/// Runs a collector workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let cfg = config(opts.workload, opts.scale, opts.seed);
    let (pool, setup_s) = timed_setup(|| {
        let pool = standard_pool();
        drop(std::hint::black_box(stream_setup(&pool, &cfg, 0)));
        pool
    });
    let reference = reference(&pool, &cfg, opts.corrupt_reference);
    let mut checks = Checks::default();
    let mut header = vec![(
        "config",
        format!(
            "1 stream, 1 producer + 1 ingest thread, {} rounds x {} records per operation, \
             scenario batch {}, jitter {}, stale duplicate every {}, reorder window {}, \
             channel cap {}, span {}, default tiering (in memory), closed loop",
            cfg.rounds,
            cfg.batch,
            cfg.batch,
            cfg.jitter,
            cfg.late_every,
            cfg.reorder_window,
            cfg.channel_cap,
            cfg.round_span
        ),
    )];

    if !opts.trace {
        let (samples, cpu_s) = timed_loop(opts.seconds, opts.scale.min_ops(), || {
            let start = Instant::now();
            let report = run_collector(&cfg, |s| stream_setup(&pool, &cfg, s));
            let wall_s = start.elapsed().as_secs_f64();
            checks.record(verified(&report, &cfg, &reference));
            OpSample {
                wall_s,
                rate_s: report.elapsed.as_secs_f64(),
                rounds: report.rounds_played as f64,
                records: report.records_ingested as f64,
                engine_runs: report.streams.len() as f64,
            }
        })?;
        header.push(("operations", samples.len().to_string()));
        return Ok(Outcome {
            header,
            checks,
            metrics: end_to_end(&samples, cpu_s, setup_s)?,
        });
    }

    let traced = traced_run(&pool, &cfg, &reference, &mut checks, opts.seconds, 5);
    header.push(("operations", traced.ops.to_string()));
    header.push(("breakdown", traced.breakdown.clone()));
    let mut metrics = traced.metrics;
    metrics.extend(crate::solve::probe_layers(opts, &mut checks));
    metrics.push(overhead_metric(&traced.untraced_s, &traced.traced_s));
    header.push((
        "solver_layers",
        "measured on eq-oracle operations of the same seed".to_string(),
    ));
    Ok(Outcome {
        header,
        checks,
        metrics,
    })
}

/// The collector's layer metrics on a `collect-rounds` operation of the
/// same seed, for the traced runs of the solver workloads.
pub fn probe_layers(opts: &Opts, checks: &mut Checks) -> Vec<Metric> {
    let cfg = config(Workload::CollectRounds, opts.scale, opts.seed);
    let pool = standard_pool();
    let reference = reference(&pool, &cfg, opts.corrupt_reference);
    traced_run(&pool, &cfg, &reference, checks, 0.0, 3).metrics
}

/// What a traced operation leaves for the layer metrics.
struct TracedOp {
    rounds: u64,
    records: u64,
    backpressure: u64,
    coalesce: CoalesceStats,
    latency_p50_ns: f64,
    latency_p99_ns: f64,
    tier: TierStatsSnapshot,
    spans: Vec<Span>,
}

/// Alternates untraced and traced operations for `seconds` (at least
/// `min_pairs` of each) and derives the collector layer metrics.
fn traced_run(
    pool: &[f64],
    cfg: &CollectorConfig,
    reference: &Fingerprint,
    checks: &mut Checks,
    seconds: f64,
    min_pairs: usize,
) -> TracedRun {
    let sink = Sink::default();
    let mut untraced_s = Vec::new();
    let mut untraced_round_ns = Vec::new();
    let mut traced_s = Vec::new();
    let mut ops: Vec<TracedOp> = Vec::new();
    let mut played: Vec<RoundRecord> = Vec::new();
    let start = Instant::now();
    while ops.len() < min_pairs || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let report = run_collector(cfg, |s| stream_setup(pool, cfg, s));
        untraced_s.push(t.elapsed().as_secs_f64());
        untraced_round_ns.push(report.elapsed.as_nanos() as f64 / report.rounds_played as f64);
        checks.record(verified(&report, cfg, reference));

        let op = next_id();
        let op_start = now_ns();
        let report = run_collector(cfg, |s| traced_setup(stream_setup(pool, cfg, s), &sink, op));
        let op_end = now_ns();
        sink.extend([Span {
            name: "collector.op",
            id: op,
            parent: 0,
            start: op_start,
            end: op_end,
        }]);
        traced_s.push((op_end - op_start) as f64 / 1e9);
        checks.record(verified(&report, cfg, reference));
        played = report
            .venue
            .merged()
            .records()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        ops.push(TracedOp {
            rounds: report.rounds_played as u64,
            records: report.records_ingested,
            backpressure: report.backpressure_events,
            coalesce: report.streams[0].coalesce,
            latency_p50_ns: report.latency.quantile_ns(0.5) as f64,
            latency_p99_ns: report.latency.quantile_ns(0.99) as f64,
            tier: report.venue.tier_stats().snapshot(),
            spans: sink.take(),
        });
    }

    let replay = Replay::measure(pool, cfg);
    checks.record(replay.board == played);
    let rounds: u64 = ops.iter().map(|o| o.rounds).sum();
    let records: u64 = ops.iter().map(|o| o.records).sum();
    let spans: Vec<Span> = ops.iter().flat_map(|o| o.spans.iter().copied()).collect();
    let per_round = |name: &str| busy(&spans, name).0 as f64 / rounds as f64;
    let records_per_round = records as f64 / rounds as f64;
    let sum = |f: &dyn Fn(&CoalesceStats) -> u64| ops.iter().map(|o| f(&o.coalesce)).sum::<u64>();
    let sealed = sum(&|c| c.sealed_full + c.sealed_by_age + c.sealed_by_flush);
    let frames: u64 = ops.iter().map(|o| o.tier.frames_built).sum();
    let bytes_raw: u64 = ops.iter().map(|o| o.tier.bytes_raw).sum();
    let bytes_framed: u64 = ops.iter().map(|o| o.tier.bytes_framed).sum();

    // Consumer-side layer time per round: what the ingest thread spends in
    // each layer, in situ where an adapter can reach the layer and from
    // the replays where it cannot.
    let layers = [
        ("recv", replay.recv_ns * records_per_round),
        ("coalesce", replay.push_ns * records_per_round),
        ("decide", per_round("engine.decide")),
        ("play", per_round("scenario.play")),
        ("post", replay.post_ns),
        (
            "compact",
            replay.compact_ns * replay.compact_calls / replay.rounds,
        ),
    ];
    let layer_ns: f64 = layers.iter().map(|(_, ns)| ns).sum();
    let round_ns = sys::median(&untraced_round_ns);
    let unattributed = 1.0 - layer_ns / round_ns;
    let mut breakdown = format!("untraced round {round_ns:.0} ns =");
    for (name, ns) in layers {
        breakdown.push_str(&format!(" {name} {ns:.0} +"));
    }
    breakdown.push_str(&format!(
        " unattributed {:.0} ({:.1}%)",
        round_ns - layer_ns,
        unattributed * 100.0
    ));

    let metrics = vec![
        Metric::new("channel.send_ns_per_record", "ns", replay.send_ns),
        Metric::new("channel.recv_ns_per_record", "ns", replay.recv_ns),
        Metric::new(
            "channel.backpressure_per_krecord",
            "1/krecord",
            ops.iter().map(|o| o.backpressure).sum::<u64>() as f64 * 1e3 / records as f64,
        ),
        Metric::new("coalesce.push_ns_per_record", "ns", replay.push_ns),
        Metric::new(
            "coalesce.late_share",
            "share",
            sum(&|c| c.late) as f64 / sum(&|c| c.records) as f64,
        ),
        Metric::new(
            "coalesce.age_sealed_share",
            "share",
            sum(&|c| c.sealed_by_age) as f64 / sealed as f64,
        ),
        Metric::new(
            "engine.decide_ns_per_round",
            "ns",
            per_round("engine.decide"),
        ),
        Metric::new(
            "scenario.play_us_per_round",
            "us",
            per_round("scenario.play") / 1e3,
        ),
        Metric::new("board.post_ns_per_round", "ns", replay.post_ns),
        Metric::new("compact.run_us_per_call", "us", replay.compact_ns / 1e3),
        Metric::new(
            "compact.frames_per_kround",
            "1/kround",
            frames as f64 * 1e3 / rounds as f64,
        ),
        Metric::new(
            "compact.raw_to_framed",
            "ratio",
            // Nothing framed means nothing was packed: ratio 1.
            if bytes_framed == 0 {
                1.0
            } else {
                bytes_raw as f64 / bytes_framed as f64
            },
        ),
        Metric::new(
            "ingest.latency_p50_ns",
            "ns",
            sys::median(&ops.iter().map(|o| o.latency_p50_ns).collect::<Vec<_>>()),
        ),
        Metric::new(
            "ingest.latency_p99_ns",
            "ns",
            sys::median(&ops.iter().map(|o| o.latency_p99_ns).collect::<Vec<_>>()),
        ),
        Metric::new("collector.unattributed_share", "share", unattributed),
    ];
    TracedRun {
        ops: ops.len(),
        untraced_s,
        traced_s,
        metrics,
        breakdown,
    }
}

/// Wraps a stream's scenario and policies in timing adapters that
/// deposit their spans in `sink` under the operation `op`.
fn traced_setup(
    setup: StreamSetup<ScalarScenario>,
    sink: &Sink,
    op: u64,
) -> StreamSetup<Timed<ScalarScenario>> {
    StreamSetup {
        scenario: Timed::new(setup.scenario, sink, op),
        defender: Box::new(Timed::new(setup.defender, sink, op)),
        adversary: Box::new(Timed::new(setup.adversary, sink, op)),
        rng: setup.rng,
        policy_seed: setup.policy_seed,
    }
}

/// A timing adapter: forwards every call to `inner`, records a span
/// around the calls the engine makes per round, and hands its spans to
/// the sink when dropped (the collector drops the stepper, and with it
/// the adapters, when the stream drains).
#[derive(Debug)]
struct Timed<T> {
    inner: T,
    sink: Sink,
    op: u64,
    spans: Vec<Span>,
}

impl<T> Timed<T> {
    fn new(inner: T, sink: &Sink, op: u64) -> Self {
        Self {
            inner,
            sink: sink.clone(),
            op,
            spans: Vec::new(),
        }
    }

    fn span(&mut self, name: &'static str, start: u64) {
        self.spans.push(Span {
            name,
            id: next_id(),
            parent: self.op,
            start,
            end: now_ns(),
        });
    }
}

impl<T> Drop for Timed<T> {
    fn drop(&mut self) {
        self.sink.extend(self.spans.drain(..));
    }
}

impl<S: Scenario> Scenario for Timed<S> {
    fn play_round<R: Rng + ?Sized>(
        &mut self,
        round: usize,
        threshold: f64,
        injection: f64,
        rng: &mut R,
    ) -> RoundReport {
        let start = now_ns();
        let report = self.inner.play_round(round, threshold, injection, rng);
        self.span("scenario.play", start);
        report
    }
}

impl ThresholdPolicy for Timed<Box<dyn ThresholdPolicy>> {
    fn name(&self) -> std::borrow::Cow<'static, str> {
        self.inner.name()
    }

    fn initial_threshold(&mut self, rng: &mut dyn RngCore) -> f64 {
        let start = now_ns();
        let t = self.inner.initial_threshold(rng);
        self.span("engine.decide", start);
        t
    }

    fn next_threshold(
        &mut self,
        round: usize,
        obs: &DefenderObservation,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let start = now_ns();
        let t = self.inner.next_threshold(round, obs, rng);
        self.span("engine.decide", start);
        t
    }

    fn termination_round(&self) -> Option<usize> {
        self.inner.termination_round()
    }
}

impl AttackPolicy for Timed<Box<dyn AttackPolicy>> {
    fn name(&self) -> std::borrow::Cow<'static, str> {
        self.inner.name()
    }

    fn next_injection(&mut self, obs: &AdversaryObservation, rng: &mut dyn RngCore) -> f64 {
        let start = now_ns();
        let a = self.inner.next_injection(obs, rng);
        self.span("engine.decide", start);
        a
    }

    fn observe_payoff(&mut self, round: usize, payoff: f64) {
        self.inner.observe_payoff(round, payoff);
    }
}

/// Per-record and per-round costs of the layers no adapter can reach
/// inside `run_collector`, from a replay of the ingest pipeline through
/// the layers' public calls: one sender thread pushes a record stream of
/// the workload's shape through `bounded(cap)`, and this thread drains
/// it the way a collector worker does (`try_recv_batch(.., 4096)`, then
/// `Coalescer::push` per record, one `EngineStepper::step` and
/// `RangedBoard::post` per sealed round, one `Compactor::run` per drain
/// that played), so each layer sees the batch sizes and interleaving it
/// sees in situ. The engine is seeded as stream 0 of the run, so the
/// replay posts exactly the records the run played.
struct Replay {
    send_ns: f64,
    recv_ns: f64,
    push_ns: f64,
    post_ns: f64,
    compact_ns: f64,
    compact_calls: f64,
    rounds: f64,
    board: Vec<RoundRecord>,
}

impl Replay {
    /// Medians over `REPLAY_REPS` replays; `board` is the last replay's.
    fn measure(pool: &[f64], cfg: &CollectorConfig) -> Self {
        let stream = shaped_records(cfg, derive_seed(cfg.seed, REPLAY_STREAM));
        let runs: Vec<Replay> = (0..REPLAY_REPS)
            .map(|_| replay_pipeline(pool, cfg, &stream))
            .collect();
        let med = |f: &dyn Fn(&Replay) -> f64| sys::median(&runs.iter().map(f).collect::<Vec<_>>());
        Self {
            send_ns: med(&|r| r.send_ns),
            recv_ns: med(&|r| r.recv_ns),
            push_ns: med(&|r| r.push_ns),
            post_ns: med(&|r| r.post_ns),
            compact_ns: med(&|r| r.compact_ns),
            compact_calls: med(&|r| r.compact_calls),
            rounds: med(&|r| r.rounds),
            board: runs.into_iter().last().map(|r| r.board).unwrap_or_default(),
        }
    }
}

/// One pipeline replay. Times are per record (send, recv, push), per
/// round (post) and per call (compact).
fn replay_pipeline(pool: &[f64], cfg: &CollectorConfig, stream: &[IngestRecord]) -> Replay {
    let setup = stream_setup(pool, cfg, 0);
    let mut stepper = EngineStepper::with_policy_seed(
        setup.scenario,
        setup.defender,
        setup.adversary,
        setup.policy_seed,
    );
    let mut rng = setup.rng;
    let mut coalescer = Coalescer::new(CoalescerConfig {
        batch: cfg.batch,
        reorder_window: cfg.reorder_window,
        late_policy: cfg.late_policy,
    });
    let board = RangedBoard::new(cfg.round_span);
    let compactor = Compactor::new(cfg.tier.clone().unwrap_or_default(), "replay");
    let (tx, rx) = bounded::<(IngestRecord, Instant)>(cfg.channel_cap.max(1));
    let mut inbox = Vec::with_capacity(4096);
    let mut sealed: Vec<RoundBatch> = Vec::new();
    let (mut recv, mut push, mut post, mut compact, mut calls) = (0u128, 0u128, 0u128, 0u128, 0u64);
    let send = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let start = Instant::now();
            for &rec in stream {
                tx.send((rec, Instant::now()))
                    .expect("the draining side outlives the sender");
            }
            start.elapsed().as_nanos()
        });
        loop {
            let t = Instant::now();
            let got = rx.try_recv_batch(&mut inbox, 4096);
            let t2 = Instant::now();
            if got > 0 {
                recv += (t2 - t).as_nanos();
                for (rec, _) in inbox.drain(..) {
                    coalescer.push(rec, &mut sealed);
                }
                push += t2.elapsed().as_nanos();
            }
            let done = got == 0 && rx.is_disconnected() && rx.is_empty();
            if done {
                coalescer.flush(&mut sealed);
            }
            let played = !sealed.is_empty();
            for batch in sealed.drain(..) {
                let step = stepper.step(&mut rng);
                let mut record = step.to_record();
                record.round = batch.round.max(step.round);
                let t = Instant::now();
                board.post(record);
                post += t.elapsed().as_nanos();
            }
            if played {
                let t = Instant::now();
                compactor.run(&board);
                compact += t.elapsed().as_nanos();
                calls += 1;
            }
            if done {
                break;
            }
            std::thread::yield_now();
        }
        sender.join().expect("replay sender panicked")
    });
    let records = stream.len() as f64;
    let rounds = stepper.rounds_played() as f64;
    let mut played = Vec::with_capacity(board.len());
    board.for_each_since_round(0, |r| played.push(r.clone()));
    Replay {
        send_ns: send as f64 / records,
        recv_ns: recv as f64 / records,
        push_ns: push as f64 / records,
        post_ns: post as f64 / rounds,
        compact_ns: compact as f64 / calls.max(1) as f64,
        compact_calls: calls as f64,
        rounds,
        board: played,
    }
}

/// A record stream of the workload's shape: `rounds x batch` values
/// released through a shuffle buffer of `jitter` records, with a stale
/// duplicate every `late_every` records, as the collector's producers
/// emit them.
fn shaped_records(cfg: &CollectorConfig, seed: u64) -> Vec<IngestRecord> {
    let mut rng = seeded_rng(seed);
    let mut out = Vec::with_capacity(cfg.rounds * cfg.batch * 102 / 100);
    let mut pending: Vec<IngestRecord> = Vec::with_capacity(cfg.jitter + 2);
    let mut emitted = 0usize;
    let release =
        |pending: &mut Vec<IngestRecord>, rng: &mut StdRng, out: &mut Vec<IngestRecord>| {
            let i = rng.gen_range(0..pending.len());
            out.push(pending.swap_remove(i));
        };
    for round in 1..=cfg.rounds {
        for _ in 0..cfg.batch {
            let rec = IngestRecord {
                round,
                value: rng.gen::<f64>(),
            };
            emitted += 1;
            if cfg.late_every > 0 && emitted.is_multiple_of(cfg.late_every) {
                pending.push(IngestRecord {
                    round: round.saturating_sub(4 * cfg.reorder_window).max(1),
                    value: rec.value,
                });
            }
            pending.push(rec);
            while pending.len() > cfg.jitter {
                release(&mut pending, &mut rng, &mut out);
            }
        }
    }
    while !pending.is_empty() {
        release(&mut pending, &mut rng, &mut out);
    }
    out
}
