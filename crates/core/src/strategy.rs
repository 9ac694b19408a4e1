//! Defender threshold policies — the scheme roster of Section VI-A.
//!
//! | Scheme | Defender behaviour |
//! |---|---|
//! | `Ostrich` | never trims (threshold 1.0); "no defensive measures" |
//! | `Fixed` | static threshold `Tth` (both `Baseline 0.9` and `Baseline static`) |
//! | `TitForTat` | soft at `Tth + 1%`; once triggered, hard at `Tth − 3%` forever |
//! | `Elastic` | `T(1) = Tth − 3%`, then `T(i+1) = Tth + k(A(i) − Tth − 1%)` |
//!
//! Policies observe the previous round through [`DefenderObservation`]:
//! the quality score (all schemes) and the adversary's realized injection
//! percentile (Elastic's coupled rule; observable in the complete-
//! information game via the public board).

use crate::elastic::{CoupledDynamics, ElasticThreshold};
use crate::error::CoreError;
use crate::space::MixedSupport;
use crate::titfortat::TitForTat;
use rand::RngCore;
use std::borrow::Cow;

/// What the defender sees from the previous round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenderObservation {
    /// `Quality_Evaluation()` score of the received batch.
    pub quality: f64,
    /// The adversary's injection percentile last round, if identifiable
    /// from the public board (complete-information assumption).
    pub injection_percentile: Option<f64>,
}

/// An object-safe defender threshold policy: the open half of the policy
/// layer.
///
/// The engine drives implementations with the Fig. 3 information
/// structure: [`ThresholdPolicy::initial_threshold`] before any round has
/// completed, then [`ThresholdPolicy::next_threshold`] with the previous
/// round's [`DefenderObservation`]. The `rng` argument is the engine's
/// *dedicated defender sub-stream* — separate from the main environment
/// stream — so deterministic policies (which never draw from it) replay
/// bit-identically whether or not a randomized policy ran before them.
///
/// The paper's closed scheme roster remains available as the
/// [`DefenderPolicy`] enum, which implements this trait as a compatibility
/// shim; new policies ([`RandomizedDefender`], downstream custom
/// strategies) implement the trait directly and enter the engine through
/// [`crate::engine::EngineStepper::with_policy_seed`].
pub trait ThresholdPolicy: std::fmt::Debug {
    /// Human-readable scheme name (used in sweep/report keys).
    fn name(&self) -> Cow<'static, str>;

    /// Threshold percentile for the first round (no history yet).
    fn initial_threshold(&mut self, rng: &mut dyn RngCore) -> f64;

    /// Consumes last round's observation and returns this round's
    /// threshold percentile.
    fn next_threshold(
        &mut self,
        round: usize,
        obs: &DefenderObservation,
        rng: &mut dyn RngCore,
    ) -> f64;

    /// The round at which a trigger policy terminated cooperation, if it
    /// is a trigger policy and it fired.
    fn termination_round(&self) -> Option<usize> {
        None
    }
}

/// A defender threshold policy.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenderPolicy {
    /// Accept everything.
    Ostrich,
    /// Static threshold.
    Fixed {
        /// The fixed trimming percentile.
        tth: f64,
    },
    /// Algorithm 1 around nominal threshold `tth`.
    TitForTat {
        /// Trigger-strategy state.
        inner: TitForTat,
    },
    /// §VI-A coupled Elastic rule.
    Elastic {
        /// The dynamics parameters.
        dynamics: CoupledDynamics,
        /// Current trim percentile `T(i)`.
        current: f64,
    },
    /// Algorithm 2 proper: the threshold interpolates between the soft and
    /// hard percentiles as the observed quality degrades (used by the LDP
    /// case study, where the injection position is not observable but the
    /// quality score is).
    QualityElastic {
        /// The interpolation parameters.
        inner: ElasticThreshold,
    },
}

impl DefenderPolicy {
    /// Tit-for-tat's soft offset above `Tth` (§VI-A: `Tth + 1%`).
    pub const TFT_SOFT_OFFSET: f64 = 0.01;
    /// Tit-for-tat's hard offset below `Tth` (§VI-A: `Tth − 3%`).
    pub const TFT_HARD_OFFSET: f64 = -0.03;

    /// Builds the paper's Tit-for-tat configuration around `tth` with
    /// calibration quality `baseline_quality` and redundancy `red`.
    ///
    /// # Panics
    /// Panics if the offsets leave `[0, 1]`.
    #[must_use]
    pub fn titfortat(tth: f64, baseline_quality: f64, red: f64) -> Self {
        let inner = TitForTat::new(
            (tth + Self::TFT_SOFT_OFFSET).min(1.0),
            tth + Self::TFT_HARD_OFFSET,
            baseline_quality,
            red,
        )
        .expect("paper offsets around a valid tth are valid");
        DefenderPolicy::TitForTat { inner }
    }

    /// Builds the paper's Elastic configuration around `tth` with response
    /// intensity `k`.
    ///
    /// # Panics
    /// Panics if the parameters are out of range.
    #[must_use]
    pub fn elastic(tth: f64, k: f64) -> Self {
        let dynamics = CoupledDynamics::new(tth, k).expect("valid elastic parameters");
        DefenderPolicy::Elastic {
            current: dynamics.initial().trim,
            dynamics,
        }
    }

    /// Builds the Algorithm 2 quality-driven policy between `soft` and
    /// `hard` with intensity `k`.
    ///
    /// # Panics
    /// Panics if the parameters are out of range.
    #[must_use]
    pub fn quality_elastic(soft: f64, hard: f64, k: f64) -> Self {
        let inner = ElasticThreshold::new(soft, hard, k).expect("valid elastic parameters");
        DefenderPolicy::QualityElastic { inner }
    }

    /// Human-readable scheme name (matches the paper's legend). Static
    /// variants borrow; only the `Elastic` family allocates (its name
    /// embeds `k`), so sweep hot loops that key on the name stay
    /// allocation-free for the common schemes.
    #[must_use]
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            DefenderPolicy::Ostrich => Cow::Borrowed("Ostrich"),
            DefenderPolicy::Fixed { .. } => Cow::Borrowed("Baseline"),
            DefenderPolicy::TitForTat { .. } => Cow::Borrowed("Titfortat"),
            DefenderPolicy::Elastic { dynamics, .. } => {
                Cow::Owned(format!("Elastic{}", dynamics.k))
            }
            DefenderPolicy::QualityElastic { inner } => Cow::Owned(format!("Elastic{}", inner.k)),
        }
    }

    /// Threshold percentile for the first round.
    #[must_use]
    pub fn initial_threshold(&self) -> f64 {
        match self {
            DefenderPolicy::Ostrich => 1.0,
            DefenderPolicy::Fixed { tth } => *tth,
            DefenderPolicy::TitForTat { inner } => inner.threshold(),
            DefenderPolicy::Elastic { current, .. } => *current,
            DefenderPolicy::QualityElastic { inner } => inner.threshold(0.0),
        }
    }

    /// Consumes last round's observation and returns this round's
    /// threshold percentile.
    pub fn next_threshold(&mut self, round: usize, obs: &DefenderObservation) -> f64 {
        match self {
            DefenderPolicy::Ostrich => 1.0,
            DefenderPolicy::Fixed { tth } => *tth,
            DefenderPolicy::TitForTat { inner } => inner.observe(round, obs.quality),
            DefenderPolicy::Elastic { dynamics, current } => {
                if let Some(a) = obs.injection_percentile {
                    *current = dynamics.tth + dynamics.k * (a - dynamics.tth - 0.01);
                }
                current.clamp(0.0, 1.0)
            }
            DefenderPolicy::QualityElastic { inner } => inner.threshold(1.0 - obs.quality),
        }
    }

    /// The round at which a trigger policy terminated cooperation, if it
    /// is a trigger policy and it fired.
    #[must_use]
    pub fn termination_round(&self) -> Option<usize> {
        match self {
            DefenderPolicy::TitForTat { inner } => inner.triggered_at(),
            _ => None,
        }
    }
}

/// Compatibility shim: every closed-roster scheme is a [`ThresholdPolicy`].
/// All variants are deterministic and never touch the defender sub-stream,
/// so trajectories through the trait layer are bit-identical to direct
/// enum dispatch.
impl ThresholdPolicy for DefenderPolicy {
    fn name(&self) -> Cow<'static, str> {
        DefenderPolicy::name(self)
    }

    fn initial_threshold(&mut self, _rng: &mut dyn RngCore) -> f64 {
        DefenderPolicy::initial_threshold(self)
    }

    fn next_threshold(
        &mut self,
        round: usize,
        obs: &DefenderObservation,
        _rng: &mut dyn RngCore,
    ) -> f64 {
        DefenderPolicy::next_threshold(self, round, obs)
    }

    fn termination_round(&self) -> Option<usize> {
        DefenderPolicy::termination_round(self)
    }
}

/// A mixed defender strategy: a weighted distribution over threshold
/// atoms, sampled independently each round from the engine's defender
/// sub-stream (§III-C2 made playable).
///
/// Against an adaptive evader a deterministic threshold is fully
/// exploitable — the attacker rides just below it every round.
/// Randomizing over a small support forces the attacker to trade survival
/// probability against injection height, which is exactly the randomized
/// prediction-game advantage the empirical equilibrium estimator in
/// `trimgame-bench` quantifies.
///
/// A single-atom `RandomizedDefender` consumes no randomness and is
/// trajectory-identical to the equivalent [`DefenderPolicy::Fixed`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomizedDefender {
    support: MixedSupport,
}

impl RandomizedDefender {
    /// Builds the policy from threshold `atoms` (percentiles in `[0, 1]`)
    /// and their unnormalized `weights`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if an atom leaves `[0, 1]`
    /// or the weights are invalid (negative/NaN entries, zero total mass,
    /// ragged inputs) — see [`MixedSupport::new`].
    pub fn new(atoms: &[f64], weights: &[f64]) -> Result<Self, CoreError> {
        MixedSupport::new(atoms, weights).and_then(Self::from_support)
    }

    /// Wraps an already-validated support whose atoms are threshold
    /// percentiles.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if an atom leaves `[0, 1]`.
    pub fn from_support(support: MixedSupport) -> Result<Self, CoreError> {
        for &a in support.atoms() {
            if !(0.0..=1.0).contains(&a) {
                return Err(CoreError::InvalidParameter {
                    name: "atom",
                    constraint: "0 <= atom <= 1",
                    value: a,
                });
            }
        }
        Ok(Self { support })
    }

    /// The underlying atom distribution.
    #[must_use]
    pub fn support(&self) -> &MixedSupport {
        &self.support
    }
}

impl ThresholdPolicy for RandomizedDefender {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Randomized")
    }

    fn initial_threshold(&mut self, rng: &mut dyn RngCore) -> f64 {
        self.support.sample(rng)
    }

    fn next_threshold(
        &mut self,
        _round: usize,
        _obs: &DefenderObservation,
        rng: &mut dyn RngCore,
    ) -> f64 {
        self.support.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(quality: f64, inject: Option<f64>) -> DefenderObservation {
        DefenderObservation {
            quality,
            injection_percentile: inject,
        }
    }

    #[test]
    fn ostrich_never_trims() {
        let mut p = DefenderPolicy::Ostrich;
        assert_eq!(p.initial_threshold(), 1.0);
        assert_eq!(p.next_threshold(5, &obs(0.0, Some(0.99))), 1.0);
    }

    #[test]
    fn fixed_is_static() {
        let mut p = DefenderPolicy::Fixed { tth: 0.9 };
        assert_eq!(p.initial_threshold(), 0.9);
        for round in 1..5 {
            assert_eq!(p.next_threshold(round, &obs(0.1, None)), 0.9);
        }
    }

    #[test]
    fn titfortat_soft_then_hard() {
        let mut p = DefenderPolicy::titfortat(0.9, 0.95, 0.05);
        assert!((p.initial_threshold() - 0.91).abs() < 1e-12);
        // Good quality: stays soft.
        assert!((p.next_threshold(1, &obs(0.94, None)) - 0.91).abs() < 1e-12);
        // Trigger: drops to Tth - 3% and stays.
        assert!((p.next_threshold(2, &obs(0.80, None)) - 0.87).abs() < 1e-12);
        assert!((p.next_threshold(3, &obs(1.0, None)) - 0.87).abs() < 1e-12);
    }

    #[test]
    fn elastic_reacts_to_injection() {
        let mut p = DefenderPolicy::elastic(0.9, 0.5);
        // Initial trim Tth - 3%.
        assert!((p.initial_threshold() - 0.87).abs() < 1e-12);
        // Adversary injected at 0.91 -> T = 0.9 + 0.5*(0.91-0.9-0.01) = 0.9.
        let t = p.next_threshold(2, &obs(1.0, Some(0.91)));
        assert!((t - 0.9).abs() < 1e-12);
        // Adversary dove to 0.85 -> T = 0.9 + 0.5*(0.85-0.91) = 0.87.
        let t = p.next_threshold(3, &obs(1.0, Some(0.85)));
        assert!((t - 0.87).abs() < 1e-12);
    }

    #[test]
    fn elastic_without_observation_keeps_current() {
        let mut p = DefenderPolicy::elastic(0.9, 0.5);
        let t1 = p.next_threshold(2, &obs(1.0, None));
        assert!((t1 - 0.87).abs() < 1e-12);
    }

    #[test]
    fn names_match_legend() {
        assert_eq!(DefenderPolicy::Ostrich.name(), "Ostrich");
        assert_eq!(DefenderPolicy::Fixed { tth: 0.9 }.name(), "Baseline");
        assert_eq!(DefenderPolicy::titfortat(0.9, 1.0, 0.0).name(), "Titfortat");
        assert_eq!(DefenderPolicy::elastic(0.9, 0.5).name(), "Elastic0.5");
        assert_eq!(
            DefenderPolicy::quality_elastic(0.95, 0.85, 0.1).name(),
            "Elastic0.1"
        );
    }

    #[test]
    fn quality_elastic_follows_algorithm2() {
        let mut p = DefenderPolicy::quality_elastic(0.95, 0.85, 0.5);
        // Perfect quality: soft threshold, also the initial threshold.
        assert!((p.initial_threshold() - 0.95).abs() < 1e-12);
        assert!((p.next_threshold(2, &obs(1.0, None)) - 0.95).abs() < 1e-12);
        // Worst quality: k of the way toward hard.
        let t = p.next_threshold(3, &obs(0.0, None));
        assert!((t - 0.90).abs() < 1e-12, "threshold {t}");
        assert_eq!(p.termination_round(), None);
    }

    #[test]
    fn termination_round_reports_trigger() {
        let mut p = DefenderPolicy::titfortat(0.9, 0.95, 0.01);
        assert_eq!(p.termination_round(), None);
        let _ = p.next_threshold(2, &obs(0.5, None));
        assert_eq!(p.termination_round(), Some(2));
    }

    #[test]
    fn trait_shim_matches_enum_dispatch() {
        use trimgame_numerics::rand_ext::seeded_rng;
        let mut direct = DefenderPolicy::elastic(0.9, 0.5);
        let mut boxed: Box<dyn ThresholdPolicy> = Box::new(DefenderPolicy::elastic(0.9, 0.5));
        let mut rng = seeded_rng(1);
        assert_eq!(
            boxed.initial_threshold(&mut rng),
            direct.initial_threshold()
        );
        for round in 2..6 {
            let o = obs(1.0, Some(0.9 + 0.001 * round as f64));
            assert_eq!(
                boxed.next_threshold(round, &o, &mut rng),
                direct.next_threshold(round, &o)
            );
        }
        assert_eq!(boxed.name(), direct.name());
        assert_eq!(boxed.termination_round(), None);
    }

    #[test]
    fn randomized_defender_validates_construction() {
        // Atom outside [0, 1].
        assert!(RandomizedDefender::new(&[1.2], &[1.0]).is_err());
        assert!(RandomizedDefender::new(&[-0.1], &[1.0]).is_err());
        // Invalid weights propagate from MixedSupport.
        assert!(RandomizedDefender::new(&[0.9, 0.95], &[1.0, -1.0]).is_err());
        assert!(RandomizedDefender::new(&[0.9], &[f64::NAN]).is_err());
        assert!(RandomizedDefender::new(&[0.9, 0.95], &[0.0, 0.0]).is_err());
        // Valid: non-unit sums renormalize.
        let d = RandomizedDefender::new(&[0.88, 0.96], &[3.0, 1.0]).unwrap();
        assert!((d.support().weights()[0] - 0.75).abs() < 1e-12);
        // from_support re-checks the percentile domain.
        let s = crate::space::MixedSupport::new(&[2.0], &[1.0]).unwrap();
        assert!(RandomizedDefender::from_support(s).is_err());
    }

    #[test]
    fn randomized_defender_samples_its_atoms() {
        use trimgame_numerics::rand_ext::seeded_rng;
        let mut d = RandomizedDefender::new(&[0.88, 0.96], &[0.5, 0.5]).unwrap();
        let mut rng = seeded_rng(5);
        let mut seen = std::collections::BTreeSet::new();
        let first = ThresholdPolicy::initial_threshold(&mut d, &mut rng);
        assert!(first == 0.88 || first == 0.96);
        for round in 2..200 {
            let t = d.next_threshold(round, &obs(1.0, None), &mut rng);
            assert!(t == 0.88 || t == 0.96);
            seen.insert(t.to_bits());
        }
        assert_eq!(seen.len(), 2, "both atoms should appear");
        assert_eq!(ThresholdPolicy::termination_round(&d), None);
        assert_eq!(ThresholdPolicy::name(&d), "Randomized");
    }
}
