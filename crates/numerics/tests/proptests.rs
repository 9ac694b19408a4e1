//! Property-based tests for the numerical substrate.

use proptest::prelude::*;
use trimgame_numerics::gk::{GkScratch, GkSummary};
use trimgame_numerics::quantile::{percentile, percentile_of, Interpolation};
use trimgame_numerics::rand_ext::{derive_seed, laplace, seeded_rng, NormalSampler};
use trimgame_numerics::simd;
use trimgame_numerics::sketch::P2Quantile;
use trimgame_numerics::stats::{mean, mse, sse, variance, OnlineStats};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6_f64..1e6_f64, 1..max_len)
}

/// Values `offset + scale·u` for `u ∈ [0, 1)`, long enough for every
/// `extend` length the batch-kernel property probes: unit-scale data, and
/// data riding a 1e8 offset where a naive `Σx² − n·mean²` loses the
/// digits the 1e-12 bound asks for.
fn shifted_vec() -> impl Strategy<Value = Vec<f64>> {
    (prop::collection::vec(0.0_f64..1.0, 2100), 0_u8..2).prop_map(|(us, regime)| {
        let (offset, scale) = if regime == 0 { (0.0, 1.0) } else { (1e8, 2e5) };
        us.into_iter().map(|u| offset + scale * u).collect()
    })
}

/// `a` and `b` hold the same moments: `n`, `min` and `max` exactly, the
/// mean and variance to 1e-12 relative. The variance bound also allows
/// the rounding of the mean itself: half an ulp of the mean shifts every
/// deviation, so it moves the variance by about `ulp(mean)·σ`. That is
/// the floor of Welford's own error on a short slice with a small spread
/// next to its mean: two values 355 apart near 1e8 already disagree by
/// 4e-11 relative between `push` and `extend`.
fn same_moments(a: &OnlineStats, b: &OnlineStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.count(), b.count());
    prop_assert_eq!(a.min(), b.min());
    prop_assert_eq!(a.max(), b.max());
    let (ma, mb) = (a.mean(), b.mean());
    prop_assert!(
        (ma - mb).abs() <= 1e-12 * ma.abs().max(mb.abs()),
        "mean {ma} vs {mb}"
    );
    let (va, vb) = (a.variance(), b.variance());
    let var = va.max(vb);
    let mean_ulp = f64::EPSILON * ma.abs().max(mb.abs());
    prop_assert!(
        (va - vb).abs() <= 1e-12 * var + 2.0 * mean_ulp * var.sqrt(),
        "variance {va} vs {vb}"
    );
    Ok(())
}

proptest! {
    #[test]
    fn percentile_is_monotone_in_p(data in finite_vec(64), p1 in 0.0_f64..1.0, p2 in 0.0_f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        for interp in [Interpolation::Linear, Interpolation::Matlab, Interpolation::Lower, Interpolation::Nearest] {
            let a = percentile(&data, lo, interp);
            let b = percentile(&data, hi, interp);
            prop_assert!(a <= b + 1e-9, "p={lo}->{a}, p={hi}->{b}, {interp:?}");
        }
    }

    #[test]
    fn percentile_within_data_range(data in finite_vec(64), p in 0.0_f64..1.0) {
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for interp in [Interpolation::Linear, Interpolation::Matlab, Interpolation::Lower, Interpolation::Nearest] {
            let v = percentile(&data, p, interp);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn percentile_invariant_to_shuffling(mut data in finite_vec(32), p in 0.0_f64..1.0) {
        let original = percentile(&data, p, Interpolation::Linear);
        data.reverse();
        let reversed = percentile(&data, p, Interpolation::Linear);
        prop_assert!((original - reversed).abs() < 1e-9);
    }

    #[test]
    fn percentile_of_is_bounded(data in finite_vec(64), x in -1e6_f64..1e6) {
        let p = percentile_of(&data, x);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn percentile_of_is_monotone_in_x(data in finite_vec(64), x1 in -1e6_f64..1e6, x2 in -1e6_f64..1e6) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(percentile_of(&data, lo) <= percentile_of(&data, hi) + 1e-12);
    }

    #[test]
    fn mean_within_range(data in finite_vec(64)) {
        let m = mean(&data);
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    #[test]
    fn variance_non_negative(data in finite_vec(64)) {
        prop_assert!(variance(&data) >= -1e-9);
    }

    #[test]
    fn mean_shift_equivariance(data in finite_vec(64), c in -1e3_f64..1e3) {
        let shifted: Vec<f64> = data.iter().map(|x| x + c).collect();
        prop_assert!((mean(&shifted) - (mean(&data) + c)).abs() < 1e-6);
        // Variance is shift-invariant.
        let tol = f64::max(1e-3, variance(&data) * 1e-9);
        prop_assert!((variance(&shifted) - variance(&data)).abs() < tol);
    }

    #[test]
    fn sse_mse_relation(a in finite_vec(64)) {
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let s = sse(&a, &b);
        let m = mse(&a, &b);
        prop_assert!(s >= 0.0);
        prop_assert!((m * a.len() as f64 - s).abs() < 1e-6 * s.max(1.0));
    }

    #[test]
    fn online_stats_agree_with_batch(data in finite_vec(128)) {
        let mut acc = OnlineStats::new();
        acc.extend(&data);
        prop_assert!((acc.mean() - mean(&data)).abs() < 1e-6 * mean(&data).abs().max(1.0));
        prop_assert!((acc.variance() - variance(&data)).abs() < 1e-6 * variance(&data).max(1.0));
    }

    #[test]
    fn online_stats_merge_is_associative_enough(a in finite_vec(64), b in finite_vec(64)) {
        let mut left = OnlineStats::new();
        left.extend(&a);
        let mut right = OnlineStats::new();
        right.extend(&b);
        left.merge(&right);

        let mut combined = OnlineStats::new();
        combined.extend(&a);
        combined.extend(&b);

        prop_assert_eq!(left.count(), combined.count());
        prop_assert!((left.mean() - combined.mean()).abs() < 1e-6 * combined.mean().abs().max(1.0));
        prop_assert!((left.variance() - combined.variance()).abs() < 1e-6 * combined.variance().max(1.0));
    }

    #[test]
    fn online_stats_extend_matches_push(data in shifted_vec(), blocks in 0_usize..262, cut in 0_usize..2100) {
        // Every remainder mod 8 of the kernel's lane width, lengths 0..=2095.
        for len in (0..8).map(|r| blocks * 8 + r) {
            let xs = &data[..len];
            let mut pushed = OnlineStats::new();
            for &x in xs {
                pushed.push(x);
            }
            let mut batch = OnlineStats::new();
            batch.extend(xs);
            same_moments(&batch, &pushed)?;

            // Two extends agree with one over the concatenation.
            let (a, b) = xs.split_at(cut.min(len));
            let mut split = OnlineStats::new();
            split.extend(a);
            split.extend(b);
            same_moments(&split, &batch)?;

            // An empty slice leaves the accumulator untouched.
            let before = batch;
            batch.extend(&[]);
            prop_assert_eq!(batch.raw_parts(), before.raw_parts());
        }
    }

    #[test]
    fn derive_seed_deterministic_and_spread(master in any::<u64>(), s1 in 0_u64..1000, s2 in 0_u64..1000) {
        prop_assert_eq!(derive_seed(master, s1), derive_seed(master, s1));
        if s1 != s2 {
            prop_assert_ne!(derive_seed(master, s1), derive_seed(master, s2));
        }
    }

    #[test]
    fn normal_sampler_is_deterministic_under_seed(seed in any::<u64>(), mean_v in -10.0_f64..10.0, sd in 0.0_f64..5.0) {
        let sampler = NormalSampler::new(mean_v, sd);
        let mut r1 = seeded_rng(seed);
        let mut r2 = seeded_rng(seed);
        for _ in 0..8 {
            prop_assert_eq!(sampler.sample(&mut r1), sampler.sample(&mut r2));
        }
    }

    #[test]
    fn laplace_is_finite(seed in any::<u64>(), mu in -10.0_f64..10.0, b in 0.01_f64..10.0) {
        let mut rng = seeded_rng(seed);
        for _ in 0..16 {
            let x = laplace(&mut rng, mu, b);
            prop_assert!(x.is_finite());
        }
    }

    #[test]
    fn p2_sketch_stays_in_range(data in prop::collection::vec(-1e3_f64..1e3, 8..256), p in 0.05_f64..0.95) {
        let mut sketch = P2Quantile::new(p);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in &data {
            sketch.insert(x);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let est = sketch.estimate().unwrap();
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "estimate {est} outside [{lo}, {hi}]");
    }
}

/// Values drawn from a tiny discrete grid so percentile anchors and trim
/// thresholds collide with data points — the adversarial tie cases of the
/// SIMD kernel contract.
fn tied_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-8i32..8).prop_map(|i| f64::from(i) * 0.5), 1..max_len)
}

proptest! {
    #[test]
    fn simd_filter_f64_bit_identical_to_scalar(values in tied_vec(300), hi in -8.0_f64..8.0) {
        let mut mask = vec![false; values.len()];
        let mut kept = vec![0.0; values.len()];
        let k = simd::filter_f64(&values, &mut mask, &mut kept, hi);
        let ref_mask: Vec<bool> = values.iter().map(|&v| v <= hi).collect();
        let ref_kept: Vec<f64> = values.iter().copied().filter(|&v| v <= hi).collect();
        prop_assert_eq!(&mask, &ref_mask);
        prop_assert_eq!(k, ref_kept.len());
        // Bit-identical: compare the raw bit patterns, not just values.
        let kept_bits: Vec<u64> = kept[..k].iter().map(|v| v.to_bits()).collect();
        let ref_bits: Vec<u64> = ref_kept.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(kept_bits, ref_bits);
    }

    #[test]
    fn gk_batched_ingest_matches_sequential_rank_guarantee(
        base in tied_vec(64),
        reps in 1_usize..40,
        chunk in 1_usize..97,
        q in 0.0_f64..=1.0,
    ) {
        // Batched ingest must honor the same ε·n rank guarantee as
        // per-value insertion, for every arrival order — including the
        // adversarial ones: pre-sorted, reverse-sorted, and the heavy
        // ties `tied_vec` generates.
        let eps = 0.05;
        let as_is: Vec<f64> = base.iter().copied().cycle().take(base.len() * reps).collect();
        let mut sorted_order = as_is.clone();
        sorted_order.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let reversed: Vec<f64> = sorted_order.iter().rev().copied().collect();
        let n = as_is.len() as f64;
        let band = 2.0 * eps * n + 1.0;
        let sorted = sorted_order.clone();
        for (order, data) in [("as-is", &as_is), ("sorted", &sorted_order), ("reversed", &reversed)] {
            let mut seq = GkSummary::new(eps);
            for &v in data.iter() {
                seq.insert(v);
            }
            let mut bat = GkSummary::new(eps);
            let mut scratch = GkScratch::new();
            for c in data.chunks(chunk) {
                bat.insert_batch(c, &mut scratch);
            }
            prop_assert_eq!(bat.count(), seq.count());
            for (path, s) in [("sequential", &seq), ("batched", &bat)] {
                let est = s.query(q).unwrap();
                // Under ties the estimate's true rank is an interval;
                // measure the distance from the nearest achievable rank.
                let lo = sorted.partition_point(|&v| v < est) as f64;
                let hi = sorted.partition_point(|&v| v <= est) as f64;
                let target = q * n;
                let dist = if target < lo {
                    lo - target
                } else if target > hi {
                    target - hi
                } else {
                    0.0
                };
                prop_assert!(
                    dist <= band,
                    "{}/{} q={}: est {} rank [{}, {}] target {}",
                    order, path, q, est, lo, hi, target
                );
            }
            // Min and max stay exact on both ingest paths.
            prop_assert_eq!(bat.query(0.0), seq.query(0.0));
            prop_assert_eq!(bat.query(1.0), seq.query(1.0));
        }
    }
}
