//! Tit-for-tat — Algorithm 1 and its non-deterministic-utility analysis
//! (Theorem 3).
//!
//! Tit-for-tat is a *rigid trigger strategy*: trim softly at `T̄` until the
//! quality standard detects a defection, then trim hard at `T` forever.
//! Under a non-deterministic utility (LDP noise), honest rounds can look
//! like defections, so the collector grants a redundancy margin `Red`; and
//! a defecting adversary is only *caught* with probability `1 − p`.
//! Theorem 3 gives the compliance condition: with roundwise discount `d`,
//! the adversary prefers compliance iff
//!
//! ```text
//! δ < (d − d·p) / (1 − d·p) · g_ac
//! ```
//!
//! where `δ` is the collector's per-round utility compromise and
//! `g_ac = (g_a + g_c)/2` is the symmetric cooperation gain.

use crate::error::CoreError;

/// Expected discounted gain of a compliant adversary (Eq. 10):
/// `g_com = g_0 / (1 − d)`.
///
/// # Panics
/// Panics unless `0 <= d < 1`.
#[must_use]
pub fn compliant_gain(g0: f64, d: f64) -> f64 {
    assert!((0.0..1.0).contains(&d), "discount d={d} must be in [0,1)");
    g0 / (1.0 - d)
}

/// Expected discounted gain of a defecting adversary (Eq. 11):
/// `g_def = g_ac / (1 − d·p)`.
///
/// # Panics
/// Panics unless `0 <= d < 1` and `0 <= p <= 1`.
#[must_use]
pub fn defector_gain(g_ac: f64, d: f64, p: f64) -> f64 {
    assert!((0.0..1.0).contains(&d), "discount d={d} must be in [0,1)");
    assert!((0.0..=1.0).contains(&p), "p={p} must be in [0,1]");
    g_ac / (1.0 - d * p)
}

/// Theorem 3's compliance margin: the largest utility compromise `δ` the
/// collector can grant while keeping compliance strictly preferable,
/// `δ_max = (d − d·p)/(1 − d·p) · g_ac`.
///
/// # Panics
/// Panics unless `0 <= d < 1` and `0 <= p <= 1`.
#[must_use]
pub fn compliance_margin(d: f64, p: f64, g_ac: f64) -> f64 {
    assert!((0.0..1.0).contains(&d), "discount d={d} must be in [0,1)");
    assert!((0.0..=1.0).contains(&p), "p={p} must be in [0,1]");
    (d - d * p) / (1.0 - d * p) * g_ac
}

/// True iff a rational adversary complies under Theorem 3's condition
/// (`g_com > g_def` for `g_0 = g_ac − δ`).
#[must_use]
pub fn adversary_complies(delta: f64, d: f64, p: f64, g_ac: f64) -> bool {
    delta < compliance_margin(d, p, g_ac)
}

/// Algorithm 1 as a stateful threshold policy.
///
/// Until triggered, trim at the soft threshold; once
/// `quality < baseline_quality − red` is observed, trim at the hard
/// threshold in every subsequent round (permanent termination of
/// cooperation).
#[derive(Debug, Clone, PartialEq)]
pub struct TitForTat {
    /// Soft (untriggered) trimming percentile `T̄`.
    pub soft: f64,
    /// Hard (triggered) trimming percentile `T`.
    pub hard: f64,
    /// Quality score of the calibration batch `Quality_Evaluation(X_0)`.
    pub baseline_quality: f64,
    /// Redundancy margin `Red` below baseline tolerated before triggering.
    pub red: f64,
    triggered_at: Option<usize>,
}

impl TitForTat {
    /// Creates the policy.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] unless
    /// `0 <= hard < soft <= 1` and `red >= 0`.
    pub fn new(soft: f64, hard: f64, baseline_quality: f64, red: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&soft) || !(0.0..=1.0).contains(&hard) || hard >= soft {
            return Err(CoreError::InvalidParameter {
                name: "soft/hard",
                constraint: "0 <= hard < soft <= 1",
                value: soft,
            });
        }
        if red < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "red",
                constraint: "red >= 0",
                value: red,
            });
        }
        Ok(Self {
            soft,
            hard,
            baseline_quality,
            red,
            triggered_at: None,
        })
    }

    /// Whether the trigger has fired, and at which round.
    #[must_use]
    pub fn triggered_at(&self) -> Option<usize> {
        self.triggered_at
    }

    /// Observes round `round`'s quality and returns the trimming percentile
    /// to use *next*. Once triggered, the hard threshold is permanent
    /// (Algorithm 1's `break`).
    pub fn observe(&mut self, round: usize, quality: f64) -> f64 {
        if self.triggered_at.is_none() && quality < self.baseline_quality - self.red {
            self.triggered_at = Some(round);
        }
        self.threshold()
    }

    /// Current trimming percentile without observing anything.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        if self.triggered_at.is_some() {
            self.hard
        } else {
            self.soft
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem3_margin_zero_when_never_caught() {
        // p = 1: defection is never detected, margin collapses to 0 —
        // "they would always opt to defect given the lack of consequences".
        assert_eq!(compliance_margin(0.9, 1.0, 5.0), 0.0);
        assert!(!adversary_complies(0.01, 0.9, 1.0, 5.0));
    }

    #[test]
    fn theorem3_margin_maximal_when_always_caught() {
        // p = 0: every defection is flagged; margin = d * g_ac.
        let m = compliance_margin(0.9, 0.0, 5.0);
        assert!((m - 0.9 * 5.0).abs() < 1e-12);
    }

    #[test]
    fn theorem3_margin_decreases_in_p() {
        let mut last = f64::INFINITY;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let m = compliance_margin(0.8, p, 3.0);
            assert!(m <= last + 1e-12, "margin not decreasing at p={p}");
            last = m;
        }
    }

    #[test]
    fn theorem3_condition_equivalent_to_gain_comparison() {
        // δ < margin  <=>  g_com > g_def with g0 = g_ac - δ.
        let (d, g_ac) = (0.85, 4.0);
        for &p in &[0.0, 0.3, 0.7, 0.95] {
            for &delta in &[0.0, 0.5, 1.0, 2.0, 3.5] {
                let complies = adversary_complies(delta, d, p, g_ac);
                let g_com = compliant_gain(g_ac - delta, d);
                let g_def = defector_gain(g_ac, d, p);
                assert_eq!(
                    complies,
                    g_com > g_def,
                    "mismatch at p={p}, delta={delta}: g_com={g_com}, g_def={g_def}"
                );
            }
        }
    }

    #[test]
    fn higher_discount_tolerates_larger_compromise() {
        // Patient adversaries (d close to 1) can be asked for more.
        assert!(compliance_margin(0.95, 0.5, 2.0) > compliance_margin(0.5, 0.5, 2.0));
    }

    #[test]
    fn algorithm1_triggers_once_and_stays() {
        let mut tft = TitForTat::new(0.91, 0.87, 0.95, 0.05).unwrap();
        assert_eq!(tft.threshold(), 0.91);
        // Quality above baseline - red: no trigger.
        assert_eq!(tft.observe(1, 0.93), 0.91);
        assert_eq!(tft.triggered_at(), None);
        // Quality dips below 0.90: trigger.
        assert_eq!(tft.observe(2, 0.89), 0.87);
        assert_eq!(tft.triggered_at(), Some(2));
        // Recovery does not restore cooperation (rigid trigger).
        assert_eq!(tft.observe(3, 1.0), 0.87);
        assert_eq!(tft.triggered_at(), Some(2));
    }

    #[test]
    fn redundancy_suppresses_false_triggers() {
        // With jittery quality around the baseline, zero redundancy
        // triggers immediately, a 10% margin does not.
        let jitter = [0.94, 0.96, 0.93, 0.95, 0.92];
        let mut strict = TitForTat::new(0.91, 0.87, 0.95, 0.0).unwrap();
        let mut tolerant = TitForTat::new(0.91, 0.87, 0.95, 0.10).unwrap();
        for (i, &q) in jitter.iter().enumerate() {
            strict.observe(i + 1, q);
            tolerant.observe(i + 1, q);
        }
        assert!(strict.triggered_at().is_some());
        assert!(tolerant.triggered_at().is_none());
    }

    #[test]
    fn construction_validation() {
        assert!(TitForTat::new(0.87, 0.91, 1.0, 0.0).is_err()); // hard > soft
        assert!(TitForTat::new(0.91, 0.87, 1.0, -0.1).is_err()); // negative red
        assert!(TitForTat::new(1.2, 0.9, 1.0, 0.0).is_err()); // out of range
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn discount_of_one_rejected() {
        let _ = compliant_gain(1.0, 1.0);
    }
}
