//! Greenwald–Khanna ε-approximate streaming quantiles.
//!
//! The P² sketch ([`crate::sketch`]) tracks *one* pre-declared quantile in
//! O(1) space; a collector running the trimming game, however, adjusts
//! its threshold percentile every round (Tit-for-tat switches between
//! `T̄` and `T`, Elastic moves continuously), so it needs *any* quantile
//! of the stream on demand. The GK summary (Greenwald & Khanna, SIGMOD
//! 2001) answers rank queries within `ε·n` using
//! `O((1/ε)·log(ε·n))` tuples — the standard database-systems answer.
//!
//! Each tuple `(v, g, Δ)` covers a band of ranks: `g` is the gap from the
//! previous tuple's minimum rank, and `Δ` the extra rank uncertainty. The
//! invariant `g + Δ ≤ ⌊2εn⌋` is maintained by periodic compression.
//!
//! Two ingest paths share the invariant:
//!
//! * [`GkSummary::insert`] — one observation at a time: a binary search
//!   plus a `Vec::insert` memmove, with compression on the standard
//!   `1/(2ε)` schedule. The right call when values genuinely arrive one
//!   by one.
//! * [`GkSummary::insert_batch`] — a whole batch at once: sort the batch
//!   into a reusable [`GkScratch`], then a **single merge sweep** splices
//!   every value into the tuple list with compression fused into the same
//!   pass — one allocation-free rebuild instead of N memmoves. Every game
//!   builds its threshold source this way, once, from the clean reference
//!   stream (`SketchThreshold::observe`); per-round trimming only queries.
//!
//! A large batch arriving at an **empty** summary (that one-time build)
//! skips the sort entirely: a fixed-width histogram over the
//! order-preserving integer keys counts every bucket and tracks its
//! maximum in one vectorizable pass, then each run of buckets collapses
//! into one tuple `(bucket max, exact count, 0)` — an equi-depth
//! histogram with *exact* ranks, built in O(n). Only buckets whose count
//! overflows the `⌊2εn⌋` band (heavy ties, pathological skew) fall back
//! to sorting just their own elements.

/// One GK summary tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// Reusable scratch for [`GkSummary::insert_batch`]: the order-preserving
/// integer keys of the incoming batch, the merge-sweep output buffer, and
/// the histogram state of the bulk first-fill path. Buffers grow to the
/// high-water mark and are reused allocation-free afterwards; one scratch
/// can serve any number of summaries.
#[derive(Debug, Clone, Default)]
pub struct GkScratch {
    keys: Vec<u64>,
    merged: Vec<Tuple>,
    counts: Vec<u32>,
    maxes: Vec<u64>,
    spill: Vec<u64>,
}

/// A batch at least this large arriving at an empty summary is ingested
/// through the histogram first-fill instead of the comparison sort (below
/// this the sort is already cheap and the histogram clear dominates).
const HIST_MIN: usize = 2048;

/// log2 of the histogram bucket count for the bulk first-fill path: 4096
/// fixed-width key buckets keep the count/max tables L1/L2-resident while
/// leaving typical bucket loads far below the `⌊2εn⌋` merge band.
const HIST_BUCKETS_LOG2: u32 = 12;

/// Maps a (non-NaN) `f64` to a `u64` whose unsigned order equals the
/// float's total order: flip the sign bit for positives, all bits for
/// negatives. Sorting plain integers is markedly faster than sorting
/// floats through a comparator, and it is what lets the batch ingest use
/// the branchless integer sort. Public because the order-preserving
/// integer domain is also the natural encoding domain for bit-packed
/// `f64` columns (the stream crate's frame format packs these keys).
#[inline]
#[must_use]
pub fn sort_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 0 {
        b ^ (1 << 63)
    } else {
        !b
    }
}

/// Inverse of [`sort_key`].
#[inline]
#[must_use]
pub fn key_value(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k ^ (1 << 63) } else { !k })
}

impl GkScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A Greenwald–Khanna quantile summary with error bound `epsilon`.
#[derive(Debug, Clone)]
pub struct GkSummary {
    epsilon: f64,
    tuples: Vec<Tuple>,
    n: u64,
    since_compress: u64,
    /// Cached query index: `index[i]` is the running maximum of
    /// `rank_max` over tuples `0..=i`. Monotone non-decreasing, so
    /// [`GkSummary::query`] binary-searches it instead of scanning the
    /// tuple list. Rebuilt by compression and batch ingest; a plain
    /// `insert` marks it stale instead of paying O(tuples) per value.
    index: Vec<u64>,
    index_dirty: bool,
}

impl PartialEq for GkSummary {
    fn eq(&self, other: &Self) -> bool {
        // The query index is a cache over `tuples`; staleness is not a
        // logical difference.
        self.epsilon == other.epsilon
            && self.tuples == other.tuples
            && self.n == other.n
            && self.since_compress == other.since_compress
    }
}

/// Appends `t` to `out`, merging it with the last survivor when the
/// combined band still satisfies the invariant — compression fused into
/// the emission sweep. The first tuple is kept intact (exact minimum),
/// and merging folds the predecessor INTO the successor, so the maximum
/// value is always preserved as the last tuple's value.
fn fuse_push(out: &mut Vec<Tuple>, cap: u64, t: Tuple) {
    if out.len() > 1 {
        let last = out.last_mut().expect("non-empty");
        if last.g + t.g + t.delta <= cap {
            *last = Tuple {
                v: t.v,
                g: last.g + t.g,
                delta: t.delta,
            };
            return;
        }
    }
    out.push(t);
}

impl GkSummary {
    /// Creates a summary with rank error `ε ∈ (0, 0.5)`.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 0.5`.
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 0.5,
            "GkSummary requires 0 < epsilon < 0.5, got {epsilon}"
        );
        Self {
            epsilon,
            tuples: Vec::new(),
            n: 0,
            since_compress: 0,
            index: Vec::new(),
            index_dirty: false,
        }
    }

    /// The configured rank-error bound.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of observations consumed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of summary tuples currently held (the space cost).
    #[must_use]
    pub fn tuples_len(&self) -> usize {
        self.tuples.len()
    }

    /// Inserts one observation.
    ///
    /// # Panics
    /// Panics on NaN.
    pub fn insert(&mut self, v: f64) {
        assert!(!v.is_nan(), "GkSummary cannot ingest NaN");
        let cap = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        // Find insertion position (first tuple with value >= v).
        let pos = self.tuples.partition_point(|t| t.v < v);
        let delta = if pos == 0 || pos == self.tuples.len() {
            // New minimum or maximum: exact rank.
            0
        } else {
            cap.saturating_sub(1)
        };
        self.tuples.insert(pos, Tuple { v, g: 1, delta });
        self.n += 1;
        self.since_compress += 1;
        self.index_dirty = true;
        // Compress every ~1/(2ε) insertions (standard schedule).
        if self.since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// Ingests a whole batch in one pass: sorts `batch` into `scratch`,
    /// then merge-sweeps it against the existing tuple list with
    /// compression fused into the sweep — a single rebuild under the same
    /// `⌊2εn⌋` invariant (with `n` the post-batch count), instead of one
    /// `Vec::insert` memmove per value. Rank guarantees are identical to
    /// sequential ingestion (`ε·n` on every quantile); tuple layouts may
    /// differ because the compression points differ.
    ///
    /// # Panics
    /// Panics if the batch contains NaN.
    pub fn insert_batch(&mut self, batch: &[f64], scratch: &mut GkScratch) {
        let total = batch.len();
        if total == 0 {
            return;
        }
        scratch.keys.clear();
        let mut any_nan = false;
        scratch.keys.extend(batch.iter().map(|&v| {
            any_nan |= v.is_nan();
            sort_key(v)
        }));
        assert!(!any_nan, "GkSummary cannot ingest NaN");
        if self.tuples.is_empty() && total >= HIST_MIN {
            self.bulk_first_fill(scratch);
            return;
        }
        scratch.keys.sort_unstable();

        let n_after = self.n + total as u64;
        let cap = (2.0 * self.epsilon * n_after as f64).floor() as u64;

        let out = &mut scratch.merged;
        out.clear();
        out.reserve(self.tuples.len() + total);

        let mut news = scratch.keys.iter().map(|&k| key_value(k));
        let mut next_new = news.next();
        for &t in &self.tuples {
            // Ascending-sorted new values splice in exactly where
            // sequential insertion would put them (ties land before the
            // equal tuple, matching `partition_point(|t| t.v < v)`).
            // A brand-new minimum has exact rank; interior values take
            // the original GK fresh-tuple uncertainty `g_succ + Δ_succ −
            // 1` from their pre-batch successor `t` — every element
            // hidden in `t`'s band could lie below the new value.
            let interior_delta = (t.g + t.delta).saturating_sub(1);
            while let Some(v) = next_new {
                if v > t.v {
                    break;
                }
                let delta = if out.is_empty() { 0 } else { interior_delta };
                fuse_push(out, cap, Tuple { v, g: 1, delta });
                next_new = news.next();
            }
            fuse_push(out, cap, t);
        }
        // Values above the old maximum: inserted in ascending order each
        // is the exact new maximum (delta 0), as sequential `insert` does
        // at the upper end — and as the whole batch is when the summary
        // starts empty.
        while let Some(v) = next_new {
            fuse_push(out, cap, Tuple { v, g: 1, delta: 0 });
            next_new = news.next();
        }

        std::mem::swap(&mut self.tuples, out);
        self.n = n_after;
        self.since_compress = 0;
        self.rebuild_index();
    }

    /// Bulk first-fill: builds the summary for a large batch arriving at
    /// an empty summary without sorting it. One pass bins the keys (in
    /// `scratch.keys`) into fixed-width buckets, counting each bucket and
    /// tracking its maximum; runs of buckets then collapse into tuples
    /// `(run max, exact count, 0)` whose ranks are *exact* — the run max
    /// is a real element and the cumulative count is precisely the number
    /// of elements ≤ it. A bucket whose count alone exceeds the `⌊2εn⌋`
    /// band (heavy ties, extreme skew) spills its elements to a sort and
    /// is emitted in exact chunks instead. The global minimum keeps its
    /// own leading tuple, matching the sequential path's exact extremes.
    fn bulk_first_fill(&mut self, scratch: &mut GkScratch) {
        let n = scratch.keys.len() as u64;
        let cap = (2.0 * self.epsilon * n as f64).floor() as u64;
        let target = cap.max(1);
        let out = &mut scratch.merged;
        out.clear();

        let (mut min_key, mut max_key) = (u64::MAX, u64::MIN);
        for &k in &scratch.keys {
            min_key = min_key.min(k);
            max_key = max_key.max(k);
        }
        out.push(Tuple {
            v: key_value(min_key),
            g: 1,
            delta: 0,
        });

        if min_key == max_key {
            // Constant batch: tied tuples in invariant-sized chunks.
            let v = key_value(min_key);
            let mut rest = n - 1;
            while rest > 0 {
                let g = target.min(rest);
                out.push(Tuple { v, g, delta: 0 });
                rest -= g;
            }
        } else {
            let range = max_key - min_key;
            let shift = (64 - range.leading_zeros()).saturating_sub(HIST_BUCKETS_LOG2);
            let buckets = ((range >> shift) + 1) as usize;
            scratch.counts.clear();
            scratch.counts.resize(buckets, 0);
            scratch.maxes.clear();
            scratch.maxes.resize(buckets, u64::MIN);
            for &k in &scratch.keys {
                let b = ((k - min_key) >> shift) as usize;
                scratch.counts[b] += 1;
                scratch.maxes[b] = scratch.maxes[b].max(k);
            }
            // The minimum already has its own tuple; its bucket stops
            // counting it (and, below, stops spilling one copy of it).
            scratch.counts[0] -= 1;

            scratch.spill.clear();
            if scratch.counts.iter().any(|&c| u64::from(c) > target) {
                let mut min_skipped = false;
                for &k in &scratch.keys {
                    let b = ((k - min_key) >> shift) as usize;
                    if u64::from(scratch.counts[b]) > target {
                        if k == min_key && !min_skipped {
                            min_skipped = true;
                        } else {
                            scratch.spill.push(k);
                        }
                    }
                }
                scratch.spill.sort_unstable();
            }

            let mut group_g = 0u64;
            let mut group_max = u64::MIN;
            let mut spilled = 0usize;
            for b in 0..buckets {
                let c = u64::from(scratch.counts[b]);
                if c == 0 {
                    continue;
                }
                if c > target {
                    if group_g > 0 {
                        out.push(Tuple {
                            v: key_value(group_max),
                            g: group_g,
                            delta: 0,
                        });
                        group_g = 0;
                    }
                    let elems = &scratch.spill[spilled..spilled + c as usize];
                    spilled += c as usize;
                    let mut i = 0usize;
                    while i < elems.len() {
                        let take = (target as usize).min(elems.len() - i);
                        out.push(Tuple {
                            v: key_value(elems[i + take - 1]),
                            g: take as u64,
                            delta: 0,
                        });
                        i += take;
                    }
                } else if group_g + c <= target {
                    group_g += c;
                    group_max = scratch.maxes[b];
                } else {
                    out.push(Tuple {
                        v: key_value(group_max),
                        g: group_g,
                        delta: 0,
                    });
                    group_g = c;
                    group_max = scratch.maxes[b];
                }
            }
            if group_g > 0 {
                out.push(Tuple {
                    v: key_value(group_max),
                    g: group_g,
                    delta: 0,
                });
            }
        }

        std::mem::swap(&mut self.tuples, out);
        self.n = n;
        self.since_compress = 0;
        self.rebuild_index();
    }

    /// Merges adjacent tuples whose combined band still satisfies the
    /// invariant `g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋`, in place: a write
    /// cursor folds survivors toward the front and one `truncate` drops
    /// the tail — no allocation.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let cap = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        // `w` is the index of the last surviving tuple. Keep the first
        // tuple intact (exact minimum); merging folds the predecessor
        // INTO the successor, so the maximum value is always preserved as
        // the last tuple's value.
        let mut w = 0usize;
        for r in 1..self.tuples.len() {
            let t = self.tuples[r];
            if w > 0 && self.tuples[w].g + t.g + t.delta <= cap {
                self.tuples[w] = Tuple {
                    v: t.v,
                    g: self.tuples[w].g + t.g,
                    delta: t.delta,
                };
            } else {
                w += 1;
                self.tuples[w] = t;
            }
        }
        self.tuples.truncate(w + 1);
        self.rebuild_index();
    }

    /// Rebuilds the cumulative-rank query index (running max of
    /// `rank_max`) from the tuple list.
    fn rebuild_index(&mut self) {
        self.index.clear();
        self.index.reserve(self.tuples.len());
        let mut rank_min = 0u64;
        let mut running = 0u64;
        for t in &self.tuples {
            rank_min += t.g;
            running = running.max(rank_min + t.delta);
            self.index.push(running);
        }
        self.index_dirty = false;
    }

    /// Queries the value at quantile `q ∈ [0, 1]` (rank error ≤ `ε·n`).
    /// Returns `None` before any observation.
    ///
    /// The scan condition reduces to "the first tuple whose `rank_max`
    /// reaches `target − ε·n`" (the two-sided check is redundant: with
    /// `bound = ε·n`, `target ≤ rank_max + bound ⟺ rank_max ≥ target −
    /// bound`), so with a fresh index this is one binary search; only a
    /// summary made stale by single-value inserts falls back to the scan.
    ///
    /// # Panics
    /// Panics unless `q ∈ [0, 1]`.
    #[must_use]
    pub fn query(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} not in [0,1]");
        if self.tuples.is_empty() {
            return None;
        }
        // The extremes are tracked exactly: the first tuple is the
        // minimum and merging always folds predecessors into successors,
        // so the last tuple is the maximum.
        if q >= 1.0 {
            return self.tuples.last().map(|t| t.v);
        }
        let target = (q * self.n as f64).ceil() as u64;
        let floor = target.saturating_sub((self.epsilon * self.n as f64) as u64);
        if !self.index_dirty {
            let i = self.index.partition_point(|&m| m < floor);
            // The last tuple's rank_max is ≥ n ≥ target ≥ floor, so the
            // search always lands in range; clamp defensively anyway.
            return Some(self.tuples[i.min(self.tuples.len() - 1)].v);
        }
        let mut rank_min = 0u64;
        for t in &self.tuples {
            rank_min += t.g;
            if rank_min + t.delta >= floor {
                return Some(t.v);
            }
        }
        self.tuples.last().map(|t| t.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::{percentile, Interpolation};
    use crate::rand_ext::{seeded_rng, standard_normal};
    use rand::Rng;

    #[test]
    fn empty_summary_returns_none() {
        let s = GkSummary::new(0.01);
        assert_eq!(s.query(0.5), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    #[should_panic(expected = "0 < epsilon < 0.5")]
    fn bad_epsilon_rejected() {
        let _ = GkSummary::new(0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut s = GkSummary::new(0.01);
        s.insert(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn batch_nan_rejected() {
        let mut s = GkSummary::new(0.01);
        let mut scratch = GkScratch::new();
        s.insert_batch(&[1.0, f64::NAN, 2.0], &mut scratch);
    }

    #[test]
    fn rank_error_within_epsilon_uniform() {
        let eps = 0.01;
        let n = 50_000usize;
        let mut rng = seeded_rng(1);
        let mut s = GkSummary::new(eps);
        let mut all = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen();
            s.insert(x);
            all.push(x);
        }
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = s.query(q).unwrap();
            // True rank of the estimate must be within 2*eps*n of target.
            let rank = all.partition_point(|&v| v < est) as f64 / n as f64;
            assert!(
                (rank - q).abs() <= 2.0 * eps + 1e-9,
                "q={q}: rank {rank} too far"
            );
        }
    }

    #[test]
    fn rank_error_within_epsilon_gaussian() {
        let eps = 0.005;
        let n = 100_000usize;
        let mut rng = seeded_rng(2);
        let mut s = GkSummary::new(eps);
        let mut all = Vec::with_capacity(n);
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            s.insert(x);
            all.push(x);
        }
        // GK guarantees rank error, not value error; in the thin Gaussian
        // tail a compliant estimate can sit far from the exact value, so
        // assert the actual guarantee.
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let est = s.query(0.99).unwrap();
        let rank = all.partition_point(|&v| v < est) as f64 / n as f64;
        assert!(
            (rank - 0.99).abs() <= 2.0 * eps + 1e-9,
            "rank {rank} of estimate {est} too far from 0.99"
        );
    }

    #[test]
    fn batch_rank_error_within_epsilon() {
        // The tentpole contract at bench scale: one summary fed in
        // per-round batches answers every quantile within the ε·n band.
        let eps = 0.01;
        let n = 100_000usize;
        let batch_len = 1_000;
        let mut rng = seeded_rng(11);
        let mut s = GkSummary::new(eps);
        let mut scratch = GkScratch::new();
        let mut all = Vec::with_capacity(n);
        let mut batch = Vec::with_capacity(batch_len);
        while all.len() < n {
            batch.clear();
            for _ in 0..batch_len {
                batch.push(rng.gen::<f64>() * 1000.0);
            }
            s.insert_batch(&batch, &mut scratch);
            all.extend_from_slice(&batch);
        }
        assert_eq!(s.count(), n as u64);
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = s.query(q).unwrap();
            let rank = all.partition_point(|&v| v < est) as f64 / n as f64;
            assert!(
                (rank - q).abs() <= 2.0 * eps + 1e-9,
                "q={q}: rank {rank} too far"
            );
        }
    }

    #[test]
    fn batch_handles_adversarial_orders() {
        // Sorted, reverse-sorted, duplicate-heavy and constant batches:
        // the rank guarantee must hold for every arrival order.
        let eps = 0.02;
        let n = 20_000;
        let streams: Vec<(&str, Vec<f64>)> = vec![
            ("sorted", (0..n).map(f64::from).collect()),
            ("reversed", (0..n).rev().map(f64::from).collect()),
            (
                "duplicate-heavy",
                (0..n).map(|i| f64::from(i % 7)).collect(),
            ),
            ("constant", vec![42.0; n as usize]),
        ];
        for (name, values) in streams {
            let mut s = GkSummary::new(eps);
            let mut scratch = GkScratch::new();
            for chunk in values.chunks(256) {
                s.insert_batch(chunk, &mut scratch);
            }
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for &q in &[0.0, 0.1, 0.5, 0.9, 1.0] {
                let est = s.query(q).unwrap();
                let lo = sorted.partition_point(|&v| v < est) as f64;
                let hi = sorted.partition_point(|&v| v <= est) as f64;
                let target = q * values.len() as f64;
                // The estimate's true rank is an interval under ties;
                // the nearest achievable rank must be within the band.
                let dist = if target < lo {
                    lo - target
                } else if target > hi {
                    target - hi
                } else {
                    0.0
                };
                assert!(
                    dist <= 2.0 * eps * values.len() as f64 + 1.0,
                    "{name} q={q}: est {est} rank [{lo}, {hi}] vs target {target}"
                );
            }
            assert_eq!(s.query(0.0), Some(sorted[0]), "{name}: min not exact");
            assert_eq!(
                s.query(1.0),
                Some(sorted[sorted.len() - 1]),
                "{name}: max not exact"
            );
        }
    }

    #[test]
    fn bulk_first_fill_rank_error_within_epsilon() {
        // One large batch into an empty summary takes the sort-free
        // histogram path; every quantile must still honor the ε·n band,
        // and extremes stay exact. Shapes chosen to stress the binning:
        // uniform (spread), sorted/reversed (order-independence),
        // duplicate-heavy and constant (bucket overflow → spill), and an
        // extreme outlier (all mass collapses into one bucket → spill).
        let eps = 0.02;
        let n = 50_000usize;
        let mut rng = seeded_rng(13);
        let mut with_outlier: Vec<f64> = (0..n - 1).map(|_| rng.gen::<f64>()).collect();
        with_outlier.push(1e300);
        let mut rng = seeded_rng(14);
        let streams: Vec<(&str, Vec<f64>)> = vec![
            (
                "uniform",
                (0..n).map(|_| rng.gen::<f64>() * 1000.0).collect(),
            ),
            ("sorted", (0..n).map(|i| i as f64).collect()),
            ("reversed", (0..n).rev().map(|i| i as f64).collect()),
            ("duplicate-heavy", (0..n).map(|i| (i % 7) as f64).collect()),
            ("constant", vec![42.0; n]),
            ("outlier", with_outlier),
        ];
        for (name, values) in streams {
            let mut s = GkSummary::new(eps);
            s.insert_batch(&values, &mut GkScratch::new());
            assert_eq!(s.count(), n as u64, "{name}");
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for &q in &[0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0] {
                let est = s.query(q).unwrap();
                let lo = sorted.partition_point(|&v| v < est) as f64;
                let hi = sorted.partition_point(|&v| v <= est) as f64;
                let tgt = q * n as f64;
                let dist = (lo - tgt).max(tgt - hi).max(0.0);
                assert!(
                    dist <= 2.0 * eps * n as f64 + 1.0,
                    "{name} q={q}: est {est} rank [{lo}, {hi}] vs target {tgt}"
                );
            }
            assert_eq!(s.query(0.0), Some(sorted[0]), "{name}: min not exact");
            assert_eq!(s.query(1.0), Some(sorted[n - 1]), "{name}: max not exact");
            assert!(
                s.tuples_len() < 200,
                "{name}: first fill too large: {} tuples",
                s.tuples_len()
            );
        }
    }

    #[test]
    fn bulk_first_fill_then_streaming_keeps_guarantee() {
        // The bulk-load shape followed by ordinary streaming: histogram
        // first fill, then chunked and single-value ingest on top.
        let eps = 0.01;
        let mut rng = seeded_rng(15);
        let bulk: Vec<f64> = (0..30_000).map(|_| rng.gen::<f64>() * 100.0).collect();
        let mut s = GkSummary::new(eps);
        let mut scratch = GkScratch::new();
        s.insert_batch(&bulk, &mut scratch);
        let mut all = bulk;
        for _ in 0..20 {
            let chunk: Vec<f64> = (0..500).map(|_| rng.gen::<f64>() * 100.0).collect();
            s.insert_batch(&chunk, &mut scratch);
            all.extend_from_slice(&chunk);
        }
        for _ in 0..500 {
            let x = rng.gen::<f64>() * 100.0;
            s.insert(x);
            all.push(x);
        }
        assert_eq!(s.count(), all.len() as u64);
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let est = s.query(q).unwrap();
            let rank = all.partition_point(|&v| v < est) as f64 / all.len() as f64;
            assert!((rank - q).abs() <= 2.0 * eps + 1e-9, "q={q}: rank {rank}");
        }
    }

    #[test]
    fn batch_and_sequential_ingest_interleave() {
        // Mixed usage — some values one at a time, some in batches — keeps
        // one coherent summary.
        let mut s = GkSummary::new(0.02);
        let mut scratch = GkScratch::new();
        let mut all = Vec::new();
        let mut rng = seeded_rng(9);
        for round in 0..50 {
            if round % 2 == 0 {
                let batch: Vec<f64> = (0..200).map(|_| rng.gen::<f64>() * 10.0).collect();
                s.insert_batch(&batch, &mut scratch);
                all.extend_from_slice(&batch);
            } else {
                for _ in 0..200 {
                    let x = rng.gen::<f64>() * 10.0;
                    s.insert(x);
                    all.push(x);
                }
            }
        }
        assert_eq!(s.count(), all.len() as u64);
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[0.1, 0.5, 0.9] {
            let est = s.query(q).unwrap();
            let rank = all.partition_point(|&v| v < est) as f64 / all.len() as f64;
            assert!((rank - q).abs() <= 2.0 * 0.02 + 1e-9, "q={q}: rank {rank}");
        }
    }

    #[test]
    fn warm_staged_batch_is_arrival_order_independent() {
        // Prime a summary, then ingest one warm batch in three arrival
        // orders: the batch's keys are staged in the scratch and sorted
        // before the merge sweep, so all three summaries are identical.
        let mut rng = seeded_rng(17);
        let prime: Vec<f64> = (0..4_000).map(|_| rng.gen::<f64>() * 100.0).collect();
        let batch: Vec<f64> = (0..2_000)
            .map(|_| rng.gen::<f64>() * 120.0 - 10.0)
            .collect();
        let mut asc = batch.clone();
        asc.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut desc = asc.clone();
        desc.reverse();
        let mut scratch = GkScratch::new();
        let build = |order: &[f64], scratch: &mut GkScratch| {
            let mut s = GkSummary::new(0.01);
            s.insert_batch(&prime, scratch);
            s.insert_batch(order, scratch);
            s
        };
        let shuffled = build(&batch, &mut scratch);
        let ascending = build(&asc, &mut scratch);
        let descending = build(&desc, &mut scratch);
        assert_eq!(shuffled, ascending);
        assert_eq!(shuffled, descending);
    }

    #[test]
    fn skewed_warm_batch_matches_presorted_ingest() {
        // 90% of the batch lands between two adjacent tuples of the
        // primed summary: the merge sweep must leave the summary identical
        // to the same values arriving pre-sorted — bit-for-bit, not just
        // rank-equivalent.
        let mut rng = seeded_rng(23);
        let prime: Vec<f64> = (0..4_000).map(|_| rng.gen::<f64>() * 100.0).collect();
        let mut batch: Vec<f64> = (0..1024)
            .map(|i| {
                if i % 10 == 0 {
                    rng.gen::<f64>() * 100.0
                } else {
                    50.0 + rng.gen::<f64>() * 1e-6
                }
            })
            .collect();
        let mut scratch = GkScratch::new();
        let build = |order: &[f64], scratch: &mut GkScratch| {
            let mut s = GkSummary::new(0.01);
            s.insert_batch(&prime, scratch);
            s.insert_batch(order, scratch);
            s
        };
        let skewed = build(&batch, &mut scratch);
        batch.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sorted = build(&batch, &mut scratch);
        assert_eq!(skewed, sorted);
    }

    #[test]
    fn batch_space_is_sublinear() {
        let eps = 0.01;
        let mut rng = seeded_rng(3);
        let mut s = GkSummary::new(eps);
        let mut scratch = GkScratch::new();
        let mut batch = Vec::with_capacity(512);
        for _ in 0..(100_000 / 512 + 1) {
            batch.clear();
            for _ in 0..512 {
                batch.push(rng.gen::<f64>());
            }
            s.insert_batch(&batch, &mut scratch);
        }
        assert!(
            s.tuples_len() < 4_000,
            "summary too large: {} tuples",
            s.tuples_len()
        );
    }

    #[test]
    fn space_is_sublinear() {
        let eps = 0.01;
        let mut rng = seeded_rng(3);
        let mut s = GkSummary::new(eps);
        for _ in 0..100_000 {
            s.insert(rng.gen::<f64>());
        }
        // O((1/eps) log(eps n)) ~ 100 * log(1000) ~ 700; assert well below
        // the raw stream size.
        assert!(
            s.tuples_len() < 4_000,
            "summary too large: {} tuples",
            s.tuples_len()
        );
    }

    #[test]
    fn min_and_max_are_exact() {
        let mut s = GkSummary::new(0.05);
        let values = [5.0, -2.0, 9.0, 0.5, 7.5, -1.0, 3.3];
        for &v in &values {
            s.insert(v);
        }
        assert_eq!(s.query(0.0), Some(-2.0));
        assert_eq!(s.query(1.0), Some(9.0));
        let mut b = GkSummary::new(0.05);
        b.insert_batch(&values, &mut GkScratch::new());
        assert_eq!(b.query(0.0), Some(-2.0));
        assert_eq!(b.query(1.0), Some(9.0));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut s = GkSummary::new(0.05);
        s.insert(1.0);
        let before = s.clone();
        s.insert_batch(&[], &mut GkScratch::new());
        assert_eq!(s, before);
    }

    #[test]
    fn sorted_and_reversed_streams_agree() {
        let eps = 0.02;
        let n = 20_000;
        let mut asc = GkSummary::new(eps);
        let mut desc = GkSummary::new(eps);
        for i in 0..n {
            asc.insert(f64::from(i));
            desc.insert(f64::from(n - 1 - i));
        }
        for &q in &[0.1, 0.5, 0.9] {
            let a = asc.query(q).unwrap();
            let d = desc.query(q).unwrap();
            let target = q * f64::from(n);
            assert!(
                (a - target).abs() <= 2.0 * eps * f64::from(n) + 1.0,
                "asc q={q}: {a}"
            );
            assert!(
                (d - target).abs() <= 2.0 * eps * f64::from(n) + 1.0,
                "desc q={q}: {d}"
            );
        }
    }

    #[test]
    fn supports_on_demand_threshold_changes() {
        // The collection-game use case: one summary, many different
        // percentile queries as the strategy moves its threshold.
        let mut rng = seeded_rng(4);
        let mut s = GkSummary::new(0.01);
        let mut all = Vec::new();
        for _ in 0..30_000 {
            let x = rng.gen::<f64>() * 100.0;
            s.insert(x);
            all.push(x);
        }
        for &t in &[0.87, 0.873, 0.89, 0.90, 0.91, 0.95] {
            let est = s.query(t).unwrap();
            let exact = percentile(&all, t, Interpolation::Linear);
            assert!((est - exact).abs() < 2.5, "t={t}: {est} vs {exact}");
        }
    }

    #[test]
    fn indexed_query_matches_scan_query() {
        // The same summary state answered through both query paths: the
        // binary-searched index (clean, right after a batch) and the
        // linear scan (stale, right after a single insert that does not
        // change any answer-relevant ranks... so instead force the scan
        // by cloning pre-index state). Here we compare a batch-built
        // summary against an insert-built one on the *reduction* itself:
        // every query of the clean summary must equal what the scan
        // returns on identical tuples.
        let mut rng = seeded_rng(21);
        let values: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>() * 50.0).collect();
        let mut s = GkSummary::new(0.01);
        s.insert_batch(&values, &mut GkScratch::new());
        assert!(!s.index_dirty);
        let mut stale = s.clone();
        stale.index_dirty = true; // force the scan path on identical tuples
        for q in (0..=100).map(|i| f64::from(i) / 100.0) {
            assert_eq!(s.query(q), stale.query(q), "q={q}");
        }
    }
}
