//! The trimming operation.
//!
//! "A classic method is distance-based sanitization, also known as
//! trimming, where the defender calculates the distance `d_i` for each data
//! point `i` and removes any point with `d_i > θ_d`" (Section I). Every game
//! in this workspace resolves `θ` from the public quality standard — the
//! clean reference quantile table, or a Greenwald–Khanna sketch of it
//! ([`SketchThreshold`]) — and then cuts the batch at that absolute value
//! with [`TrimScratch::cut`], the one trim entry point.
//!
//! There is deliberately no batch-percentile cut: a colluding point mass
//! drags the batch percentile onto itself and rides the cut, which is why
//! the threshold comes from the reference, not from the batch.
//!
//! The cut runs on the explicit-SIMD mask-compact filter of
//! [`trimgame_numerics::simd`], and its buffers live in the reusable
//! [`TrimScratch`], so after warm-up a round performs **zero** heap
//! allocations.

use trimgame_numerics::gk::{GkScratch, GkSummary};

/// Reusable buffers of [`TrimScratch::cut`]: the kept mask and the kept
/// values of the most recent cut.
///
/// Buffers are resized, never shrunk, between rounds, so a long-running
/// engine performs no heap allocation once both have reached the round's
/// working size.
#[derive(Debug, Clone, Default)]
pub struct TrimScratch {
    mask: Vec<bool>,
    kept: Vec<f64>,
}

impl TrimScratch {
    /// Creates empty scratch buffers (they grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates scratch buffers pre-sized for batches of `n` values.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            mask: Vec::with_capacity(n),
            kept: Vec::with_capacity(n),
        }
    }

    /// Removes every value strictly above `threshold` and returns the
    /// number removed. The kept values (in input order) and the keep-mask
    /// (parallel to `values`) stay here; read them with
    /// [`TrimScratch::kept`] and [`TrimScratch::kept_mask`].
    ///
    /// A value is kept exactly when `v <= threshold` holds, so a NaN
    /// value is always trimmed, a `+∞` cut keeps every non-NaN value and
    /// a `−∞` cut keeps only `−∞`.
    pub fn cut(&mut self, values: &[f64], threshold: f64) -> usize {
        let n = values.len();
        self.mask.resize(n, false);
        self.kept.resize(n, 0.0);
        let k =
            trimgame_numerics::simd::filter_f64(values, &mut self.mask, &mut self.kept, threshold);
        self.kept.truncate(k);
        n - k
    }

    /// The kept values of the most recent cut, in input order.
    #[must_use]
    pub fn kept(&self) -> &[f64] {
        &self.kept
    }

    /// The kept mask of the most recent cut, parallel to its input.
    #[must_use]
    pub fn kept_mask(&self) -> &[bool] {
        &self.mask
    }
}

/// A streaming percentile-threshold source backed by the Greenwald–Khanna
/// sketch from `trimgame-numerics`.
///
/// A collector under heavy traffic cannot afford to materialize and sort
/// every round's batch just to resolve its threshold percentile. This
/// wrapper feeds the report stream into a [`GkSummary`] (sublinear space,
/// rank error ≤ `ε·n`) and answers *any* percentile on demand — exactly
/// what the moving thresholds of Tit-for-tat and Elastic need. Resolve the
/// cut with [`SketchThreshold::cut`], then trim with [`TrimScratch::cut`];
/// no sort, no batch copy.
///
/// Batches go through [`SketchThreshold::observe`], which feeds the GK
/// summary through its batched ingest ([`GkSummary::insert_batch`]) over
/// a scratch owned here — one allocation-free rebuild per batch instead
/// of a memmove per value. Every game observes its clean reference
/// stream once, at construction, and then only queries.
#[derive(Debug, Clone)]
pub struct SketchThreshold {
    sketch: GkSummary,
    scratch: GkScratch,
}

impl PartialEq for SketchThreshold {
    fn eq(&self, other: &Self) -> bool {
        // The scratch is reusable workspace, not state.
        self.sketch == other.sketch
    }
}

impl SketchThreshold {
    /// Creates a source with GK rank-error bound `ε`.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 0.5`.
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        Self {
            sketch: GkSummary::new(epsilon),
            scratch: GkScratch::new(),
        }
    }

    /// Ingests one value.
    ///
    /// # Panics
    /// Panics on NaN.
    pub fn insert(&mut self, v: f64) {
        self.sketch.insert(v);
    }

    /// Ingests a whole batch through the GK merge-sweep ingest: the batch
    /// is sorted once into the reusable scratch and spliced into the
    /// summary in a single compression-fused pass.
    ///
    /// # Panics
    /// Panics on NaN.
    pub fn observe(&mut self, values: &[f64]) {
        self.sketch.insert_batch(values, &mut self.scratch);
    }

    /// Number of observations consumed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.sketch.count()
    }

    /// The absolute cut value at percentile `p`, or `None` before any
    /// observation.
    ///
    /// # Panics
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn cut(&self, p: f64) -> Option<f64> {
        self.sketch.query(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgame_numerics::quantile::{percentile, Interpolation};

    fn batch() -> Vec<f64> {
        (0..100).map(f64::from).collect()
    }

    #[test]
    fn upper_percentile_removes_tail() {
        let values = batch();
        let cut = percentile(&values, 0.9, Interpolation::Linear);
        let mut scratch = TrimScratch::new();
        // Threshold = 89.1 (linear interpolation on 0..=99); keeps 0..=89.
        assert_eq!(scratch.cut(&values, cut), 10);
        assert!(scratch.kept().iter().all(|&v| v <= 89.1));
        assert_eq!(scratch.kept().len(), 90);
    }

    #[test]
    fn absolute_threshold() {
        let mut scratch = TrimScratch::new();
        assert_eq!(scratch.cut(&batch(), 49.5), 50);
        assert_eq!(scratch.kept().len(), 50);
    }

    #[test]
    fn kept_mask_aligns_with_input() {
        let mut scratch = TrimScratch::new();
        assert_eq!(scratch.cut(&[5.0, 50.0, 95.0], 60.0), 1);
        assert_eq!(scratch.kept_mask(), [true, true, false]);
        assert_eq!(scratch.kept(), [5.0, 50.0]);
    }

    #[test]
    fn full_percentile_keeps_everything() {
        let values = batch();
        let cut = percentile(&values, 1.0, Interpolation::Linear);
        assert_eq!(TrimScratch::new().cut(&values, cut), 0);
    }

    #[test]
    fn zero_percentile_keeps_minimum_only() {
        let values = batch();
        let cut = percentile(&values, 0.0, Interpolation::Linear);
        let mut scratch = TrimScratch::new();
        assert_eq!(scratch.cut(&values, cut), 99);
        assert_eq!(scratch.kept(), [0.0]);
    }

    #[test]
    fn nan_values_are_trimmed_and_infinite_cuts_keep_all_or_nothing() {
        let values = [1.0, f64::NAN, -3.5, f64::MAX, f64::NAN, -f64::MAX, 0.0];
        let mut scratch = TrimScratch::new();
        // +∞ keeps every finite value and trims only the NaNs.
        assert_eq!(scratch.cut(&values, f64::INFINITY), 2);
        assert_eq!(scratch.kept(), [1.0, -3.5, f64::MAX, -f64::MAX, 0.0]);
        assert_eq!(
            scratch.kept_mask(),
            [true, false, true, true, false, true, true]
        );
        // −∞ keeps nothing finite.
        assert_eq!(scratch.cut(&values, f64::NEG_INFINITY), values.len());
        assert!(scratch.kept().is_empty());
        assert!(scratch.kept_mask().iter().all(|&m| !m));
        // A finite cut trims the NaNs along with the values above it.
        assert_eq!(scratch.cut(&values, 0.5), 4);
        assert_eq!(scratch.kept(), [-3.5, -f64::MAX, 0.0]);
    }

    #[test]
    fn trimming_removes_injected_tail_poison() {
        // The cut comes from the clean reference, so a poison mass at
        // the reference maximum cannot drag it along.
        let reference = batch();
        let cut = percentile(&reference, 0.8, Interpolation::Linear);
        let mut values = batch();
        values.extend(std::iter::repeat_n(99.0, 20));
        let mut scratch = TrimScratch::new();
        let _ = scratch.cut(&values, cut);
        let poison_kept = scratch.kept().iter().filter(|&&v| v == 99.0).count();
        assert_eq!(poison_kept, 0, "tail poison should be trimmed");
    }

    #[test]
    fn scratch_buffers_are_reused_without_reallocation() {
        let values = batch();
        let mut scratch = TrimScratch::with_capacity(values.len());
        let _ = scratch.cut(&values, 89.5);
        let caps = (scratch.mask.capacity(), scratch.kept.capacity());
        for _ in 0..32 {
            assert_eq!(scratch.cut(&values, 89.5), 10);
        }
        assert_eq!(
            caps,
            (scratch.mask.capacity(), scratch.kept.capacity()),
            "warm scratch must not reallocate"
        );
    }

    #[test]
    fn sketch_threshold_tracks_stream_percentiles() {
        let mut source = SketchThreshold::new(0.01);
        assert_eq!(source.cut(0.9), None);
        let values: Vec<f64> = (0..10_000).map(f64::from).collect();
        source.observe(&values);
        assert_eq!(source.count(), 10_000);
        let cut = source.cut(0.9).unwrap();
        assert!((cut - 9_000.0).abs() < 250.0, "cut {cut}");
        let trimmed = TrimScratch::new().cut(&values, cut);
        let frac = trimmed as f64 / values.len() as f64;
        assert!((frac - 0.1).abs() < 0.03, "trimmed fraction {frac}");
    }

    #[test]
    fn batched_and_sequential_sketch_cuts_agree_within_rank_band() {
        // Contract: feeding the same stream through the batched observe
        // path and through per-value inserts may build different tuple
        // layouts, but every resolved cut must stay within each summary's
        // ε rank band of the true percentile — so the two cuts can differ
        // by at most the combined band (2 × 2ε in rank space).
        let eps = 0.01;
        let n = 40_000usize;
        let mut rng = trimgame_numerics::rand_ext::seeded_rng(17);
        let values: Vec<f64> = (0..n)
            .map(|_| rand::Rng::gen::<f64>(&mut rng) * 500.0)
            .collect();
        let mut batched = SketchThreshold::new(eps);
        for chunk in values.chunks(1_000) {
            batched.observe(chunk);
        }
        let mut sequential = SketchThreshold::new(eps);
        for &v in &values {
            sequential.insert(v);
        }
        assert_eq!(batched.count(), sequential.count());
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &p in &[0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let b = batched.cut(p).unwrap();
            let s = sequential.cut(p).unwrap();
            let rank = |v: f64| sorted.partition_point(|&x| x < v) as f64 / n as f64;
            assert!(
                (rank(b) - p).abs() <= 2.0 * eps + 1e-9,
                "batched p={p}: rank {}",
                rank(b)
            );
            assert!(
                (rank(s) - p).abs() <= 2.0 * eps + 1e-9,
                "sequential p={p}: rank {}",
                rank(s)
            );
            assert!(
                (rank(b) - rank(s)).abs() <= 4.0 * eps + 1e-9,
                "p={p}: cuts {b} vs {s} diverge past the combined band"
            );
        }
    }
}
