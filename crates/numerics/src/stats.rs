//! Descriptive statistics used across the workspace.
//!
//! The evaluation section of the paper reports SSE (sum of squared errors,
//! Fig. 4/5), Euclidean centroid distance (Fig. 4/5) and MSE (Fig. 9). These
//! helpers implement those metrics plus the usual moments. [`OnlineStats`]
//! is a streaming moments accumulator so round-wise collectors can track
//! data quality without buffering values.

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (dividing by `n`). Returns `0.0` for fewer than two
/// elements.
#[must_use]
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (dividing by `n - 1`). Returns `0.0` for fewer
/// than two elements.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Sum of squared errors between observations and predictions,
/// `SSE = Σ (y_i − ŷ_i)²` (the Fig. 4/5 y-axis metric).
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn sse(observed: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        observed.len(),
        predicted.len(),
        "sse: length mismatch ({} vs {})",
        observed.len(),
        predicted.len()
    );
    observed
        .iter()
        .zip(predicted)
        .map(|(y, yhat)| (y - yhat) * (y - yhat))
        .sum()
}

/// Mean squared error (the Fig. 9 y-axis metric). Returns `0.0` for empty
/// input.
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn mse(observed: &[f64], predicted: &[f64]) -> f64 {
    if observed.is_empty() {
        return 0.0;
    }
    sse(observed, predicted) / observed.len() as f64
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_euclidean: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
#[must_use]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Minimum of a slice ignoring NaNs. Returns `None` on empty input or if all
/// entries are NaN.
#[must_use]
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                Some(m) if m <= x => m,
                _ => x,
            })
        })
}

/// Maximum of a slice ignoring NaNs. Returns `None` on empty input or if all
/// entries are NaN.
#[must_use]
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                Some(m) if m >= x => m,
                _ => x,
            })
        })
}

/// Numerically stable streaming moments.
///
/// [`OnlineStats::push`] feeds one value with Welford's update.
/// [`OnlineStats::extend`] feeds a slice with a batch kernel: a
/// two-pass lane-parallel sum and centred sum of squares, folded in
/// with Chan et al.'s parallel merge ([`OnlineStats::merge`]). The two
/// agree to rounding, but `extend` is not bitwise equal to repeated
/// `push`.
///
/// Used by the collector to keep per-round quality statistics without
/// retaining raw values, mirroring the "public board" which records only
/// retained data summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Feeds every value of a slice: a batch kernel computes the slice's
    /// own moments, which fold in with [`OnlineStats::merge`].
    ///
    /// One divide per call instead of one per value. The result agrees
    /// with repeated [`OnlineStats::push`] to rounding, not bit for bit,
    /// and its bits do not depend on the CPU.
    pub fn extend(&mut self, xs: &[f64]) {
        self.merge(&slice_moments(xs));
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`0.0` before any observation).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Running population variance (`0.0` before two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Running sample variance (`0.0` before two observations).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`None` before any observation).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` before any observation).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// The raw accumulator state `(n, mean, m2, min, max)` exactly as
    /// stored — `min`/`max` are `+∞`/`−∞` before any observation and the
    /// mean is the raw running mean, not the `0.0`-defaulted view of
    /// [`OnlineStats::mean`]. This is the bit-exact serialization surface:
    /// `from_raw_parts(s.raw_parts())` reconstructs a accumulator equal to
    /// `s` under `==` and bit-for-bit in every field.
    #[must_use]
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`OnlineStats::raw_parts`] output.
    /// No invariants are re-derived — the caller owns round-trip fidelity.
    #[must_use]
    pub fn from_raw_parts(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Self {
            n,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (Chan et al.'s parallel
    /// update of the Welford moments).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Lane count of the [`slice_moments`] accumulators: eight independent
/// chains, so no add waits on the one before it.
const LANES: usize = 8;

/// The moments of one slice in two passes over `[f64; LANES]`
/// accumulators: sum, min and max, then `Σ (x − mean)²` about the
/// slice mean. The lanes combine in a fixed order and nothing fuses a
/// multiply-add, so the bits depend on the input alone, never on the
/// CPU — the board serializes them and recovery asserts bit identity.
/// Like [`OnlineStats::push`], min and max skip NaN.
fn slice_moments(xs: &[f64]) -> OnlineStats {
    if xs.is_empty() {
        return OnlineStats::new();
    }
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();

    let mut sum = [0.0; LANES];
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    for chunk in chunks.clone() {
        for j in 0..LANES {
            sum[j] += chunk[j];
            lo[j] = lesser(lo[j], chunk[j]);
            hi[j] = greater(hi[j], chunk[j]);
        }
    }
    let total = tail.iter().fold(fold_lanes(sum), |t, &x| t + x);
    let min = lo
        .into_iter()
        .chain(tail.iter().copied())
        .fold(f64::INFINITY, lesser);
    let max = hi
        .into_iter()
        .chain(tail.iter().copied())
        .fold(f64::NEG_INFINITY, greater);
    let mean = total / xs.len() as f64;

    let mut sq = [0.0; LANES];
    for chunk in chunks {
        for j in 0..LANES {
            let d = chunk[j] - mean;
            sq[j] += d * d;
        }
    }
    let m2 = tail
        .iter()
        .fold(fold_lanes(sq), |acc, &x| acc + (x - mean) * (x - mean));
    OnlineStats::from_raw_parts(xs.len() as u64, mean, m2, min, max)
}

/// `x` if it is below `m`, else `m` — a NaN `x` never wins.
fn lesser(m: f64, x: f64) -> f64 {
    if x < m {
        x
    } else {
        m
    }
}

/// `x` if it is above `m`, else `m` — a NaN `x` never wins.
fn greater(m: f64, x: f64) -> f64 {
    if x > m {
        x
    } else {
        m
    }
}

/// Pairwise sum of the lane accumulators, in a fixed tree order.
fn fold_lanes(v: [f64; LANES]) -> f64 {
    ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_simple() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_constant_is_zero() {
        assert_eq!(variance(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn variance_known_value() {
        // Population variance of [2, 4, 4, 4, 5, 5, 7, 9] is 4.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn std_dev_matches_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let m = mean(&xs);
        let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
        assert!((std_dev(&xs) - (ss / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sse_zero_for_identical() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(sse(&xs, &xs), 0.0);
    }

    #[test]
    fn sse_known_value() {
        assert!((sse(&[1.0, 2.0], &[0.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mse_is_sse_over_n() {
        assert!((mse(&[1.0, 2.0], &[0.0, 4.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mse_empty_is_zero() {
        assert_eq!(mse(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sse_panics_on_mismatch() {
        let _ = sse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn euclidean_345() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_ignore_nan() {
        let xs = [f64::NAN, 2.0, -1.0, f64::NAN, 7.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(7.0));
    }

    #[test]
    fn min_max_empty() {
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn online_stats_matches_batch() {
        let xs = [0.3, -1.2, 4.5, 2.2, 0.0, -0.7, 9.1];
        let mut acc = OnlineStats::new();
        acc.extend(&xs);
        assert_eq!(acc.count(), xs.len() as u64);
        assert!((acc.mean() - mean(&xs)).abs() < 1e-12);
        assert!((acc.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(acc.min(), Some(-1.2));
        assert_eq!(acc.max(), Some(9.1));
    }

    #[test]
    fn online_stats_merge_matches_single_pass() {
        let xs = [0.3, -1.2, 4.5, 2.2];
        let ys = [0.0, -0.7, 9.1];
        let mut a = OnlineStats::new();
        a.extend(&xs);
        let mut b = OnlineStats::new();
        b.extend(&ys);
        a.merge(&b);

        let mut all = OnlineStats::new();
        all.extend(&xs);
        all.extend(&ys);

        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
    }

    #[test]
    fn raw_parts_round_trip_is_bit_exact() {
        let mut acc = OnlineStats::new();
        acc.extend(&[0.3, -1.2, 4.5, 2.2, 0.0]);
        let (n, mean, m2, min, max) = acc.raw_parts();
        let back = OnlineStats::from_raw_parts(n, mean, m2, min, max);
        assert_eq!(back, acc);
        assert_eq!(back.mean().to_bits(), acc.mean().to_bits());
        // The empty accumulator round-trips its ±∞ sentinels too.
        let empty = OnlineStats::new();
        let (n, mean, m2, min, max) = empty.raw_parts();
        assert_eq!(min, f64::INFINITY);
        assert_eq!(max, f64::NEG_INFINITY);
        assert_eq!(OnlineStats::from_raw_parts(n, mean, m2, min, max), empty);
    }

    /// 1100 values (the eq-dense kept batch) from exact IEEE arithmetic
    /// alone, so the slice is the same on every platform.
    fn golden_slice(offset: f64, scale: f64) -> Vec<f64> {
        (0..1100)
            .map(|i| offset + scale * (f64::from(i) * 0.618_033_988_749_895).fract())
            .collect()
    }

    #[test]
    fn extend_bits_are_pinned() {
        // A change to the kernel's accumulation order must fail here, not
        // slip into board records and recovered spills.
        let mut acc = OnlineStats::new();
        acc.extend(&golden_slice(-20.0, 100.0));
        let (n, mean, m2, min, max) = acc.raw_parts();
        assert_eq!(n, 1100);
        assert_eq!(mean.to_bits(), 0x403d_f7b9_feb0_d7f9);
        assert_eq!(m2.to_bits(), 0x412b_ffe2_6fb0_8592);
        assert_eq!(min.to_bits(), 0xc034_0000_0000_0000);
        assert_eq!(max.to_bits(), 0x4053_fd19_a278_2d60);
    }

    #[test]
    fn extend_survives_offset_where_naive_sum_of_squares_fails() {
        let xs = golden_slice(1e8, 2e5);
        let mut pushed = OnlineStats::new();
        for &x in &xs {
            pushed.push(x);
        }
        let mut batch = OnlineStats::new();
        batch.extend(&xs);
        let n = xs.len() as f64;
        let naive =
            xs.iter().map(|x| x * x).sum::<f64>() / n - (xs.iter().sum::<f64>() / n).powi(2);
        let rel = |v: f64| (v - pushed.variance()).abs() / pushed.variance();
        assert!(
            rel(batch.variance()) < 1e-12,
            "batch off by {}",
            rel(batch.variance())
        );
        assert!(rel(naive) > 1e-9, "naive off by only {}", rel(naive));
    }

    #[test]
    fn online_stats_merge_with_empty() {
        let mut a = OnlineStats::new();
        a.extend(&[1.0, 2.0]);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
