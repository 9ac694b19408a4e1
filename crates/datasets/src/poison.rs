//! Poison-value injection.
//!
//! The paper standardizes injection positions in percentile space
//! (Section VI-A): "the adversary injects poison values at the percentile
//! (T_th − 1%)", "randomly injects poison values in the percentile range
//! [0.9, 1]", or — in the non-equilibrium study — "at the 99th percentile
//! with probability p and at the 90th percentile with probability 1 − p"
//! (the mixed strategy of Section III-C2). [`InjectionPosition`] captures
//! all of these, and [`PoisonSpec::inject`] materializes a combined
//! benign+poison batch with provenance flags so experiments can measure
//! exactly which poison survived trimming.

use rand::Rng;
use trimgame_numerics::quantile::{percentile, Interpolation};

/// Where the adversary places poison values, in percentile space of the
/// benign batch (or as absolute values for bounded LDP domains).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionPosition {
    /// All poison at the benign value at this percentile (`0 ≤ p ≤ 1`).
    Percentile(f64),
    /// Uniformly random percentile in `[lo, hi]` per poison value
    /// (the `Baseline 0.9` adversary uses `[0.9, 1.0]`).
    Range {
        /// Lower percentile bound.
        lo: f64,
        /// Upper percentile bound.
        hi: f64,
    },
    /// Mixed strategy: percentile `hi` with probability `p`, else
    /// percentile `lo` (Table III's evasion knob).
    Mixed {
        /// Probability of the high (equilibrium) position.
        p: f64,
        /// High percentile.
        hi: f64,
        /// Low percentile.
        lo: f64,
    },
    /// An absolute value in the data domain (used in the LDP case study
    /// where the domain is fixed to `[−1, 1]`).
    Value(f64),
}

impl InjectionPosition {
    /// Resolves this position to a concrete value against a benign batch.
    pub fn resolve<R: Rng + ?Sized>(&self, benign: &[f64], rng: &mut R) -> f64 {
        match *self {
            InjectionPosition::Percentile(p) => percentile(benign, p, Interpolation::Linear),
            InjectionPosition::Range { lo, hi } => {
                let p = lo + (hi - lo) * rng.gen::<f64>();
                percentile(benign, p, Interpolation::Linear)
            }
            InjectionPosition::Mixed { p, hi, lo } => {
                let chosen = if rng.gen::<f64>() < p { hi } else { lo };
                percentile(benign, chosen, Interpolation::Linear)
            }
            InjectionPosition::Value(v) => v,
        }
    }

    /// Validates percentile bounds.
    ///
    /// # Panics
    /// Panics if any percentile/probability parameter is outside `[0, 1]`
    /// or a range is inverted.
    pub fn validate(&self) {
        let check = |x: f64, what: &str| {
            assert!((0.0..=1.0).contains(&x), "{what} {x} not in [0,1]");
        };
        match *self {
            InjectionPosition::Percentile(p) => check(p, "percentile"),
            InjectionPosition::Range { lo, hi } => {
                check(lo, "range lo");
                check(hi, "range hi");
                assert!(lo <= hi, "inverted range [{lo}, {hi}]");
            }
            InjectionPosition::Mixed { p, hi, lo } => {
                check(p, "mix probability");
                check(hi, "mixed hi");
                check(lo, "mixed lo");
            }
            InjectionPosition::Value(_) => {}
        }
    }
}

/// A poisoning attack specification: how much poison relative to the benign
/// batch, and where it goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoisonSpec {
    /// Poison count as a fraction of the benign batch size (the paper's
    /// "attack ratio").
    pub ratio: f64,
    /// Placement of the poison values.
    pub position: InjectionPosition,
}

/// A combined benign + poison batch with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisonBatch {
    /// All values, benign first then poison (callers that need arrival-order
    /// realism can shuffle; trimming is order-independent).
    pub values: Vec<f64>,
    /// `true` at index `i` iff `values[i]` is poison.
    pub is_poison: Vec<bool>,
}

impl PoisonBatch {
    /// Number of poison values in the batch.
    #[must_use]
    pub fn poison_count(&self) -> usize {
        self.is_poison.iter().filter(|&&b| b).count()
    }

    /// Fraction of the batch that is poison.
    #[must_use]
    pub fn poison_fraction(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.poison_count() as f64 / self.values.len() as f64
    }
}

impl PoisonSpec {
    /// Creates a validated spec.
    ///
    /// # Panics
    /// Panics if `ratio < 0` or the position parameters are out of range.
    #[must_use]
    pub fn new(ratio: f64, position: InjectionPosition) -> Self {
        assert!(
            ratio >= 0.0,
            "attack ratio must be non-negative, got {ratio}"
        );
        position.validate();
        Self { ratio, position }
    }

    /// Injects poison into a benign batch: `round(ratio · n)` poison values,
    /// each placed per [`InjectionPosition`].
    ///
    /// # Panics
    /// Panics if `benign` is empty and poison placement needs percentiles.
    pub fn inject<R: Rng + ?Sized>(&self, benign: &[f64], rng: &mut R) -> PoisonBatch {
        let mut values = Vec::with_capacity(benign.len());
        self.inject_into(benign, rng, &mut values);
        let mut is_poison = vec![false; benign.len()];
        is_poison.resize(values.len(), true);
        PoisonBatch { values, is_poison }
    }

    /// [`PoisonSpec::inject`] into a caller-owned buffer — the
    /// allocation-free form the engine hot path uses: `values` is cleared
    /// and refilled with the benign batch followed by every poison value,
    /// with draws and placements identical to the allocating form. The
    /// layout *is* the provenance: `values[..benign.len()]` is benign and
    /// the rest is poison.
    ///
    /// # Panics
    /// Panics if `benign` is empty and poison placement needs percentiles.
    pub fn inject_into<R: Rng + ?Sized>(&self, benign: &[f64], rng: &mut R, values: &mut Vec<f64>) {
        let n_poison = (self.ratio * benign.len() as f64).round() as usize;
        values.clear();
        values.reserve(benign.len() + n_poison);
        values.extend_from_slice(benign);
        for _ in 0..n_poison {
            values.push(self.position.resolve(benign, rng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgame_numerics::rand_ext::seeded_rng;

    fn benign() -> Vec<f64> {
        (0..1000).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_injection_places_at_quantile() {
        let mut rng = seeded_rng(1);
        let spec = PoisonSpec::new(0.1, InjectionPosition::Percentile(0.99));
        let batch = spec.inject(&benign(), &mut rng);
        assert_eq!(batch.poison_count(), 100);
        let expected = percentile(&benign(), 0.99, Interpolation::Linear);
        for (v, &p) in batch.values.iter().zip(&batch.is_poison) {
            if p {
                assert!((v - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn range_injection_stays_in_band() {
        let mut rng = seeded_rng(2);
        let spec = PoisonSpec::new(0.2, InjectionPosition::Range { lo: 0.9, hi: 1.0 });
        let data = benign();
        let batch = spec.inject(&data, &mut rng);
        let lo_val = percentile(&data, 0.9, Interpolation::Linear);
        let hi_val = percentile(&data, 1.0, Interpolation::Linear);
        for (v, &p) in batch.values.iter().zip(&batch.is_poison) {
            if p {
                assert!(*v >= lo_val - 1e-9 && *v <= hi_val + 1e-9);
            }
        }
    }

    #[test]
    fn mixed_injection_hits_both_positions() {
        let mut rng = seeded_rng(3);
        let spec = PoisonSpec::new(
            1.0,
            InjectionPosition::Mixed {
                p: 0.5,
                hi: 0.99,
                lo: 0.90,
            },
        );
        let data = benign();
        let batch = spec.inject(&data, &mut rng);
        let hi_val = percentile(&data, 0.99, Interpolation::Linear);
        let lo_val = percentile(&data, 0.90, Interpolation::Linear);
        let mut hi_count = 0;
        let mut lo_count = 0;
        for (v, &p) in batch.values.iter().zip(&batch.is_poison) {
            if p {
                if (v - hi_val).abs() < 1e-9 {
                    hi_count += 1;
                } else if (v - lo_val).abs() < 1e-9 {
                    lo_count += 1;
                } else {
                    panic!("poison at unexpected value {v}");
                }
            }
        }
        assert_eq!(hi_count + lo_count, 1000);
        // ~50/50 split.
        assert!((hi_count as f64 / 1000.0 - 0.5).abs() < 0.06);
    }

    #[test]
    fn value_injection_is_absolute() {
        let mut rng = seeded_rng(4);
        let spec = PoisonSpec::new(0.05, InjectionPosition::Value(1.0));
        let batch = spec.inject(&benign(), &mut rng);
        for (v, &p) in batch.values.iter().zip(&batch.is_poison) {
            if p {
                assert_eq!(*v, 1.0);
            }
        }
    }

    #[test]
    fn zero_ratio_adds_nothing() {
        let mut rng = seeded_rng(5);
        let spec = PoisonSpec::new(0.0, InjectionPosition::Percentile(0.99));
        let batch = spec.inject(&benign(), &mut rng);
        assert_eq!(batch.poison_count(), 0);
        assert_eq!(batch.values.len(), 1000);
        assert_eq!(batch.poison_fraction(), 0.0);
    }

    #[test]
    fn poison_fraction_accounts_for_combined_size() {
        let mut rng = seeded_rng(6);
        let spec = PoisonSpec::new(0.25, InjectionPosition::Percentile(0.5));
        let batch = spec.inject(&benign(), &mut rng);
        // 250 poison over 1250 total = 0.2.
        assert!((batch.poison_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_ratio_rejected() {
        let _ = PoisonSpec::new(-0.1, InjectionPosition::Percentile(0.5));
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn bad_percentile_rejected() {
        let _ = PoisonSpec::new(0.1, InjectionPosition::Percentile(1.5));
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_rejected() {
        let _ = PoisonSpec::new(0.1, InjectionPosition::Range { lo: 0.9, hi: 0.5 });
    }

    #[test]
    fn benign_values_preserved_in_order() {
        let mut rng = seeded_rng(7);
        let data = benign();
        let spec = PoisonSpec::new(0.1, InjectionPosition::Percentile(0.9));
        let batch = spec.inject(&data, &mut rng);
        assert_eq!(&batch.values[..1000], &data[..]);
        assert!(batch.is_poison[..1000].iter().all(|&b| !b));
    }

    #[test]
    fn inject_into_appends_poison_after_benign_prefix() {
        // Round provenance counts split the batch at the benign length;
        // that needs this layout for every position kind.
        let data = benign();
        let positions = [
            InjectionPosition::Percentile(0.95),
            InjectionPosition::Range { lo: 0.9, hi: 1.0 },
            InjectionPosition::Mixed {
                p: 0.5,
                hi: 0.99,
                lo: 0.9,
            },
            InjectionPosition::Value(-3.0),
        ];
        for position in positions {
            let spec = PoisonSpec::new(0.25, position);
            let mut values = vec![f64::NAN; 7]; // stale contents are cleared
            spec.inject_into(&data, &mut seeded_rng(11), &mut values);
            assert_eq!(values.len(), 1250, "{position:?}");
            assert_eq!(&values[..1000], &data[..], "{position:?}");

            let batch = spec.inject(&data, &mut seeded_rng(11));
            assert_eq!(batch.values, values, "{position:?}");
            assert!(batch.is_poison[..1000].iter().all(|&p| !p), "{position:?}");
            assert!(batch.is_poison[1000..].iter().all(|&p| p), "{position:?}");
        }
    }
}
