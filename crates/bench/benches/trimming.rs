//! Criterion microbenches for the trimming operation — the per-round hot
//! path of the collection engine.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use trimgame_numerics::rand_ext::seeded_rng;
use trimgame_numerics::stats::OnlineStats;
use trimgame_stream::trim::{SketchThreshold, TrimScratch};

fn batch(n: usize) -> Vec<f64> {
    use rand::Rng;
    let mut rng = seeded_rng(7);
    (0..n).map(|_| rng.gen::<f64>() * 1000.0).collect()
}

fn bench_trimming(c: &mut Criterion) {
    let mut group = c.benchmark_group("trim");
    for n in [1_000usize, 10_000, 100_000] {
        let values = batch(n);
        // The engine hot path: an absolute cut into a reused scratch,
        // zero allocation after the first iteration.
        group.bench_with_input(BenchmarkId::new("cut", n), &values, |b, v| {
            let mut scratch = TrimScratch::with_capacity(v.len());
            b.iter(|| scratch.cut(black_box(v), 900.0));
        });
        // Streaming threshold: the GK sketch ingests the batch and answers
        // the cut without any sort; the trim itself is the in-place cut.
        group.bench_with_input(BenchmarkId::new("sketch_threshold", n), &values, |b, v| {
            let mut scratch = TrimScratch::with_capacity(v.len());
            b.iter(|| {
                let mut source = SketchThreshold::new(0.02);
                source.observe(black_box(v));
                let cut = source.cut(0.9).expect("observed");
                scratch.cut(black_box(v), cut)
            });
        });
        // Steady-state streaming: the sketch already holds the stream
        // history (the realistic per-round cost — query + in-place cut).
        group.bench_with_input(BenchmarkId::new("sketch_query_only", n), &values, |b, v| {
            let mut scratch = TrimScratch::with_capacity(v.len());
            let mut source = SketchThreshold::new(0.02);
            source.observe(v);
            b.iter(|| {
                let cut = source.cut(0.9).expect("observed");
                scratch.cut(black_box(v), cut)
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
