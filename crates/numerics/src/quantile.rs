//! Exact percentile computation.
//!
//! The paper standardizes all positions — trimming thresholds `T_th` and
//! poison injection points `A(i)` — "in terms of data percentiles"
//! (Section VI-A). This module provides the percentile forward map
//! (probability → value) and the inverse map (value → probability) under
//! the common interpolation conventions. The default, [`Interpolation::Linear`],
//! matches NumPy's `linear` method; [`Interpolation::Matlab`] matches MATLAB's
//! `prctile` (the paper's experiments ran in MATLAB R2021b).

/// Interpolation convention for the percentile forward map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interpolation {
    /// NumPy `linear`: position `h = (n−1)·p`, linear interpolation.
    #[default]
    Linear,
    /// MATLAB `prctile`: sample `i` sits at probability `(i−0.5)/n`;
    /// linear interpolation in between, clamped at the extremes.
    Matlab,
    /// Lower: the largest sample at or below the position (no interpolation).
    Lower,
    /// Nearest rank (Excel-style `PERCENTILE.INC` rounding).
    Nearest,
}

/// Percentile of *unsorted* data at probability `p ∈ [0, 1]`.
///
/// Sorts a copy internally; prefer [`percentile_sorted`] in hot loops.
///
/// # Panics
/// Panics if `data` is empty or `p` is not in `[0, 1]`.
#[must_use]
pub fn percentile(data: &[f64], p: f64, interp: Interpolation) -> f64 {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in data"));
    percentile_sorted(&sorted, p, interp)
}

/// Percentile of data already sorted ascending.
///
/// # Panics
/// Panics if `sorted` is empty or `p` is not in `[0, 1]`.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64, interp: Interpolation) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty data");
    assert!(
        (0.0..=1.0).contains(&p),
        "percentile probability {p} not in [0,1]"
    );
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    // Exact extremes under every interpolation mode: no index arithmetic
    // (and hence no floating-point rounding) may ever pull `p = 0`/`p = 1`
    // off the sample minimum/maximum.
    if p == 0.0 {
        return sorted[0];
    }
    if p == 1.0 {
        return sorted[n - 1];
    }
    let (lo, frac) = rank_position(n, p, interp);
    if frac == 0.0 {
        sorted[lo]
    } else {
        sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
    }
}

/// The anchor rank and interpolation weight of probability `p` over `n`
/// samples under `interp`. The caller handles `p == 0` / `p == 1` /
/// `n == 1` before calling. Lower/Nearest need a single exact order
/// statistic (`frac == 0`), Linear/Matlab two adjacent ones.
fn rank_position(n: usize, p: f64, interp: Interpolation) -> (usize, f64) {
    match interp {
        Interpolation::Linear => {
            let h = (n - 1) as f64 * p;
            (h.floor() as usize, h - h.floor())
        }
        Interpolation::Matlab => {
            // Sample i (1-based) sits at probability (i - 0.5) / n.
            let h = p * n as f64 - 0.5;
            if h <= 0.0 {
                (0, 0.0)
            } else if h >= (n - 1) as f64 {
                (n - 1, 0.0)
            } else {
                (h.floor() as usize, h - h.floor())
            }
        }
        Interpolation::Lower => {
            let h = (n - 1) as f64 * p;
            (h.floor() as usize, 0.0)
        }
        Interpolation::Nearest => {
            let h = (n - 1) as f64 * p;
            (h.round() as usize, 0.0)
        }
    }
}

/// Inverse percentile: the fraction of `data` strictly below `x` plus half
/// the fraction equal to `x` (mid-distribution convention), i.e. the
/// empirical probability position of `x`.
///
/// Returns a value in `[0, 1]`. Returns `0.0` for empty data.
#[must_use]
pub fn percentile_of(data: &[f64], x: f64) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut below = 0usize;
    let mut equal = 0usize;
    for &v in data {
        if v < x {
            below += 1;
        } else if v == x {
            equal += 1;
        }
    }
    (below as f64 + equal as f64 / 2.0) / data.len() as f64
}

/// Fraction of `data` at or below `x` (the empirical CDF).
#[must_use]
pub fn ecdf(data: &[f64], x: f64) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().filter(|&&v| v <= x).count() as f64 / data.len() as f64
}

/// Computes several percentiles in one sorting pass.
///
/// # Panics
/// Panics if `data` is empty or any probability is outside `[0, 1]`.
#[must_use]
pub fn percentiles(data: &[f64], ps: &[f64], interp: Interpolation) -> Vec<f64> {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentiles: NaN in data"));
    ps.iter()
        .map(|&p| percentile_sorted(&sorted, p, interp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: [f64; 5] = [15.0, 20.0, 35.0, 40.0, 50.0];

    #[test]
    fn linear_matches_numpy() {
        // numpy.percentile([15,20,35,40,50], 40) == 29.0
        assert!((percentile(&DATA, 0.40, Interpolation::Linear) - 29.0).abs() < 1e-12);
        assert_eq!(percentile(&DATA, 0.0, Interpolation::Linear), 15.0);
        assert_eq!(percentile(&DATA, 1.0, Interpolation::Linear), 50.0);
        assert_eq!(percentile(&DATA, 0.5, Interpolation::Linear), 35.0);
    }

    #[test]
    fn matlab_matches_prctile() {
        // MATLAB: prctile([15 20 35 40 50], 40) == 27.5
        // (sample i sits at probability (i-0.5)/5; 0.4 is midway between
        // 0.3 -> 20 and 0.5 -> 35).
        assert!((percentile(&DATA, 0.40, Interpolation::Matlab) - 27.5).abs() < 1e-12);
        // prctile clamps at the extremes.
        assert_eq!(percentile(&DATA, 0.0, Interpolation::Matlab), 15.0);
        assert_eq!(percentile(&DATA, 1.0, Interpolation::Matlab), 50.0);
        // prctile(..., 50) == 35 (median).
        assert_eq!(percentile(&DATA, 0.5, Interpolation::Matlab), 35.0);
    }

    #[test]
    fn lower_takes_floor() {
        assert_eq!(percentile(&DATA, 0.40, Interpolation::Lower), 20.0);
        assert_eq!(percentile(&DATA, 0.9, Interpolation::Lower), 40.0);
    }

    #[test]
    fn nearest_rounds() {
        assert_eq!(percentile(&DATA, 0.40, Interpolation::Nearest), 35.0);
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let shuffled = [40.0, 15.0, 50.0, 20.0, 35.0];
        assert_eq!(
            percentile(&shuffled, 0.40, Interpolation::Linear),
            percentile(&DATA, 0.40, Interpolation::Linear)
        );
    }

    #[test]
    fn single_element() {
        for interp in [
            Interpolation::Linear,
            Interpolation::Matlab,
            Interpolation::Lower,
            Interpolation::Nearest,
        ] {
            assert_eq!(percentile(&[7.0], 0.3, interp), 7.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        let _ = percentile(&[], 0.5, Interpolation::Linear);
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn out_of_range_probability_panics() {
        let _ = percentile(&DATA, 1.5, Interpolation::Linear);
    }

    #[test]
    fn percentile_of_midrank() {
        let data = [1.0, 2.0, 2.0, 3.0];
        // 1 below, 2 equal -> (1 + 1) / 4 = 0.5
        assert!((percentile_of(&data, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(percentile_of(&data, 0.0), 0.0);
        assert_eq!(percentile_of(&data, 10.0), 1.0);
        assert_eq!(percentile_of(&[], 1.0), 0.0);
    }

    #[test]
    fn ecdf_basics() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ecdf(&data, 2.5), 0.5);
        assert_eq!(ecdf(&data, 4.0), 1.0);
        assert_eq!(ecdf(&data, 0.5), 0.0);
    }

    #[test]
    fn round_trip_percentile_and_inverse() {
        // For a large sample with distinct values, percentile_of(percentile(p))
        // should be close to p.
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        for &p in &[0.1, 0.25, 0.5, 0.9, 0.99] {
            let x = percentile(&data, p, Interpolation::Linear);
            assert!((percentile_of(&data, x) - p).abs() < 2e-3, "p={p}");
        }
    }

    #[test]
    fn extremes_are_exact_under_every_interpolation() {
        // p = 0 / p = 1 must hit the sample min/max exactly — no
        // interpolation arithmetic allowed — in all four modes, including
        // awkward lengths where (n-1)*p rounding could bite.
        for n in [2usize, 3, 7, 100, 1001] {
            let data: Vec<f64> = (0..n).map(|i| i as f64 * 0.1 - 3.0).collect();
            for interp in [
                Interpolation::Linear,
                Interpolation::Matlab,
                Interpolation::Lower,
                Interpolation::Nearest,
            ] {
                assert_eq!(percentile(&data, 0.0, interp), data[0], "min n={n}");
                assert_eq!(percentile(&data, 1.0, interp), data[n - 1], "max n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN in data")]
    fn sort_path_rejects_nan_input() {
        let _ = percentile(&[1.0, f64::NAN, 3.0], 0.5, Interpolation::Linear);
    }

    #[test]
    fn percentiles_batch_matches_individual() {
        let ps = [0.1, 0.5, 0.9];
        let batch = percentiles(&DATA, &ps, Interpolation::Linear);
        for (i, &p) in ps.iter().enumerate() {
            assert_eq!(batch[i], percentile(&DATA, p, Interpolation::Linear));
        }
    }
}
