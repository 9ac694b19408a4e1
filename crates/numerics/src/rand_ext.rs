//! Seeded randomness helpers and distribution sampling.
//!
//! Every stochastic component in the workspace takes an explicit RNG so that
//! experiments are reproducible; [`seeded_rng`] and [`derive_seed`] give a
//! deterministic per-repetition seeding scheme. Gaussian sampling uses the
//! Marsaglia polar method and Laplace sampling uses the inverse CDF — both
//! implemented here so the workspace needs no distribution crate beyond
//! `rand` itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a [`StdRng`] from a 64-bit seed.
#[must_use]
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent stream seed from a master seed.
///
/// Uses the SplitMix64 finalizer so consecutive stream indices yield
/// well-separated seeds (the recommended way to seed many parallel
/// repetitions from one master seed).
#[must_use]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws one standard normal variate via the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.gen::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws one `Laplace(mu, b)` variate via the inverse CDF.
///
/// # Panics
/// Panics if `b <= 0`.
pub fn laplace<R: Rng + ?Sized>(rng: &mut R, mu: f64, b: f64) -> f64 {
    assert!(b > 0.0, "laplace scale must be positive, got {b}");
    // u uniform on (-1/2, 1/2); x = mu - b*sign(u)*ln(1 - 2|u|).
    let u: f64 = rng.gen::<f64>() - 0.5;
    mu - b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Reusable sampler for `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalSampler {
    mean: f64,
    sd: f64,
}

impl NormalSampler {
    /// Creates a sampler for `N(mean, sd²)`.
    ///
    /// # Panics
    /// Panics if `sd < 0`.
    #[must_use]
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd >= 0.0,
            "standard deviation must be non-negative, got {sd}"
        );
        Self { mean, sd }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    #[must_use]
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * standard_normal(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, variance};

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(99);
        let mut b = seeded_rng(99);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derived_seeds_differ_across_streams() {
        let s0 = derive_seed(1, 0);
        let s1 = derive_seed(1, 1);
        let s2 = derive_seed(2, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(2024);
        let xs: Vec<f64> = (0..100_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(mean(&xs).abs() < 0.02, "mean {}", mean(&xs));
        assert!((variance(&xs) - 1.0).abs() < 0.03, "var {}", variance(&xs));
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = seeded_rng(7);
        let sampler = NormalSampler::new(3.0, 2.0);
        let xs: Vec<f64> = (0..100_000).map(|_| sampler.sample(&mut rng)).collect();
        assert!((mean(&xs) - 3.0).abs() < 0.05);
        assert!((variance(&xs) - 4.0).abs() < 0.15);
    }

    #[test]
    fn normal_sampler_zero_sd_is_constant() {
        let mut rng = seeded_rng(7);
        let sampler = NormalSampler::new(5.0, 0.0);
        for _ in 0..10 {
            assert_eq!(sampler.sample(&mut rng), 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normal_sampler_rejects_negative_sd() {
        let _ = NormalSampler::new(0.0, -1.0);
    }

    #[test]
    fn laplace_moments() {
        let mut rng = seeded_rng(11);
        let b = 1.5;
        let xs: Vec<f64> = (0..100_000).map(|_| laplace(&mut rng, 0.5, b)).collect();
        // Mean mu, variance 2 b^2.
        assert!((mean(&xs) - 0.5).abs() < 0.05);
        assert!((variance(&xs) - 2.0 * b * b).abs() < 0.25);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn laplace_rejects_bad_scale() {
        let mut rng = seeded_rng(0);
        let _ = laplace(&mut rng, 0.0, 0.0);
    }
}
