//! Criterion microbenches for the trimming operators — the per-round hot
//! path of the collection engine.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use trimgame_numerics::rand_ext::seeded_rng;
use trimgame_numerics::stats::OnlineStats;
use trimgame_stream::trim::{trim, SketchThreshold, TrimOp, TrimScratch};

fn batch(n: usize) -> Vec<f64> {
    use rand::Rng;
    let mut rng = seeded_rng(7);
    (0..n).map(|_| rng.gen::<f64>() * 1000.0).collect()
}

fn bench_trimming(c: &mut Criterion) {
    let mut group = c.benchmark_group("trim");
    for n in [1_000usize, 10_000, 100_000] {
        let values = batch(n);
        group.bench_with_input(BenchmarkId::new("upper_percentile", n), &values, |b, v| {
            b.iter(|| trim(black_box(v), TrimOp::UpperPercentile(0.9)));
        });
        group.bench_with_input(BenchmarkId::new("absolute", n), &values, |b, v| {
            b.iter(|| trim(black_box(v), TrimOp::Absolute(900.0)));
        });
        group.bench_with_input(BenchmarkId::new("two_sided", n), &values, |b, v| {
            b.iter(|| trim(black_box(v), TrimOp::TwoSided { lo: 0.05, hi: 0.95 }));
        });
        // The engine hot path: reused scratch, zero allocation after the
        // first iteration, selection-based threshold.
        group.bench_with_input(BenchmarkId::new("in_place", n), &values, |b, v| {
            let mut scratch = TrimScratch::with_capacity(v.len());
            let op = TrimOp::UpperPercentile(0.9);
            let _ = op.apply_in_place(v, &mut scratch); // warm the buffers
            b.iter(|| op.apply_in_place(black_box(v), &mut scratch).trimmed);
        });
        // Streaming threshold: the GK sketch ingests the batch and answers
        // the cut without any sort; the trim itself is the in-place pass.
        group.bench_with_input(BenchmarkId::new("sketch_threshold", n), &values, |b, v| {
            let mut scratch = TrimScratch::with_capacity(v.len());
            b.iter(|| {
                let mut source = SketchThreshold::new(0.02);
                source.observe(black_box(v));
                let op = source.op(0.9).expect("observed");
                op.apply_in_place(black_box(v), &mut scratch).trimmed
            });
        });
        // Steady-state streaming: the sketch already holds the stream
        // history (the realistic per-round cost — query + in-place cut).
        group.bench_with_input(BenchmarkId::new("sketch_query_only", n), &values, |b, v| {
            let mut scratch = TrimScratch::with_capacity(v.len());
            let mut source = SketchThreshold::new(0.02);
            source.observe(v);
            b.iter(|| {
                let op = source.op(0.9).expect("observed");
                op.apply_in_place(black_box(v), &mut scratch).trimmed
            });
        });
    }
    group.finish();
}

/// The retained-data summary every round posts to the public board,
/// at the kept-batch sizes of a collector round (17 values) and of an
/// equilibrium cell round (1100 values).
fn bench_retained_summary(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    for n in [17usize, 1_100] {
        let values = batch(n);
        group.bench_with_input(BenchmarkId::new("extend", n), &values, |b, v| {
            b.iter(|| {
                let mut acc = OnlineStats::new();
                acc.extend(black_box(v));
                acc
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trimming, bench_retained_summary);
criterion_main!(benches);
