//! Adversary injection policies — the attacker side of Section VI-A.
//!
//! | Opposing scheme | Adversary behaviour |
//! |---|---|
//! | `Ostrich` | always injects at the 99th percentile |
//! | `Baseline 0.9` | uniform random percentile in `[0.9, 1]` |
//! | `Baseline static` | the *ideal attack*: exactly `Tth − 1%`, i.e. just below the known static threshold |
//! | `Titfortat` (equilibrium) | complies at `Tth − 1%` (below the soft trim, within the agreed quality) |
//! | `Elastic` | the coupled rule `A(i+1) = Tth − 3% + k(T(i) − Tth)`, `A(1) = Tth + 1%` |
//! | Table III (non-equilibrium) | mixed: 99th percentile w.p. `p`, 90th w.p. `1 − p` |
//!
//! Policies see the defender's previous threshold via the public board
//! (white-box attacker, complete information).

use rand::{Rng, RngCore};
use std::borrow::Cow;
use trimgame_stream::board::{RangedBoard, RangedVenue};

/// What the adversary observes before choosing this round's injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryObservation {
    /// The defender's trimming percentile last round (from the public
    /// board), if any round has completed.
    pub last_threshold: Option<f64>,
}

/// An object-safe adversary injection policy: the open half of the policy
/// layer on the attacker side.
///
/// The `rng` argument is the engine's *main* environment stream — the same
/// stream the closed [`AdversaryPolicy`] roster always drew from — so
/// re-expressing an enum variant through the trait keeps fixed-seed
/// trajectories bit-identical. Policies that need richer information than
/// [`AdversaryObservation`] (the white-box threat model grants the full
/// public record) hold a clone of the engine's [`RangedBoard`], as
/// [`AdaptiveAttacker`] does.
pub trait AttackPolicy: std::fmt::Debug {
    /// Human-readable attacker name (used in reports).
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Adversary")
    }

    /// Chooses this round's injection percentile.
    fn next_injection(&mut self, obs: &AdversaryObservation, rng: &mut dyn RngCore) -> f64;

    /// Feedback hook: the engine reports the adversary's *realized*
    /// roundwise gain (`RoundReport::gain_adversary`) after each round, so
    /// learning attackers — bandit/no-regret policies like
    /// [`Exp3Attacker`] — can update on actual payoffs rather than
    /// modeled ones. The default is a no-op; the closed roster and the
    /// board-driven best-responder ignore it.
    fn observe_payoff(&mut self, round: usize, payoff: f64) {
        let _ = (round, payoff);
    }
}

/// An adversary injection-position policy (percentile of the benign
/// distribution at which poison is placed).
#[derive(Debug, Clone, PartialEq)]
pub enum AdversaryPolicy {
    /// Fixed percentile (Ostrich's opponent uses 0.99).
    Fixed {
        /// Injection percentile.
        percentile: f64,
    },
    /// Uniform percentile in `[lo, hi]` each poison value (Baseline 0.9's
    /// opponent).
    Uniform {
        /// Low percentile.
        lo: f64,
        /// High percentile.
        hi: f64,
    },
    /// Just below the defender's last threshold (`threshold − offset`) —
    /// the "ideal attack" of Baseline static.
    JustBelowThreshold {
        /// Gap below the defender threshold.
        offset: f64,
        /// Fallback percentile before any threshold is visible.
        fallback: f64,
    },
    /// Mixed strategy of Table III: high percentile w.p. `p`, low w.p.
    /// `1 − p`, decided once per round (the whole round's poison mass is a
    /// coordinated Sybil batch).
    Mixed {
        /// Probability of the high (equilibrium) position.
        p: f64,
        /// High percentile (paper: 0.99).
        hi: f64,
        /// Low percentile (paper: 0.90).
        lo: f64,
    },
    /// §VI-A coupled Elastic rule.
    Elastic {
        /// Nominal threshold `Tth`.
        tth: f64,
        /// Response intensity `k`.
        k: f64,
        /// Current injection percentile `A(i)`.
        current: f64,
    },
}

impl AdversaryPolicy {
    /// The Elastic adversary's initial injection (`A(1) = Tth + 1%`).
    #[must_use]
    pub fn elastic(tth: f64, k: f64) -> Self {
        AdversaryPolicy::Elastic {
            tth,
            k,
            current: tth + 0.01,
        }
    }

    /// The equilibrium (compliant) adversary against Tit-for-tat: injects
    /// at `Tth − 1%`.
    #[must_use]
    pub fn compliant(tth: f64) -> Self {
        AdversaryPolicy::Fixed {
            percentile: tth - 0.01,
        }
    }

    /// Chooses this round's injection percentile. `Uniform` and `Mixed`
    /// draw randomness once per round (colluding attackers coordinate the
    /// round's poison batch).
    pub fn next_injection<R: Rng + ?Sized>(
        &mut self,
        obs: &AdversaryObservation,
        rng: &mut R,
    ) -> f64 {
        match self {
            AdversaryPolicy::Fixed { percentile } => *percentile,
            AdversaryPolicy::Uniform { lo, hi } => *lo + (*hi - *lo) * rng.gen::<f64>(),
            AdversaryPolicy::JustBelowThreshold { offset, fallback } => obs
                .last_threshold
                .map_or(*fallback, |t| (t - *offset).max(0.0)),
            AdversaryPolicy::Mixed { p, hi, lo } => {
                if rng.gen::<f64>() < *p {
                    *hi
                } else {
                    *lo
                }
            }
            AdversaryPolicy::Elastic { tth, k, current } => {
                if let Some(t) = obs.last_threshold {
                    *current = *tth - 0.03 + *k * (t - *tth);
                }
                current.clamp(0.0, 1.0)
            }
        }
    }
}

/// Compatibility shim: every closed-roster attacker is an [`AttackPolicy`].
/// The trait hands the same main-stream RNG to the same drawing code, so
/// trajectories through the trait layer are bit-identical to direct enum
/// dispatch.
impl AttackPolicy for AdversaryPolicy {
    fn next_injection(&mut self, obs: &AdversaryObservation, rng: &mut dyn RngCore) -> f64 {
        AdversaryPolicy::next_injection(self, obs, rng)
    }
}

/// An empirical best-response attacker that learns the defender's
/// threshold distribution from the public board.
///
/// Each round it reads the full published threshold history (the white-box
/// channel of the threat model), groups the observed percentiles into
/// atoms, and for each candidate position *just below an atom* scores the
/// expected percentile-damage gain: the empirical probability that a
/// future threshold clears the position, times the position itself.
/// It injects at the argmax. Against a deterministic defender this
/// converges to the classic just-below-the-threshold ideal attack; against
/// a [`RandomizedDefender`](crate::strategy::RandomizedDefender) it
/// reproduces the finite-support best-response structure of threshold
/// games (equilibria concentrate on small supports), trading survival
/// probability against injection height.
#[derive(Debug, Clone)]
pub struct AdaptiveAttacker {
    offset: f64,
    fallback: f64,
    tol: f64,
    /// Distinct observed threshold atoms, ascending, with observation
    /// counts — maintained incrementally so a `T`-round game costs `O(T)`
    /// record reads total instead of re-reading the whole history each
    /// round.
    atoms: Vec<(f64, usize)>,
    /// Board records consumed so far.
    seen: usize,
    /// Where published thresholds are read from, through the bounded
    /// merge ([`RangedVenue::merged_since_round`]): each read starts at
    /// the first unconsumed round, so consumed history is skipped by
    /// binary search, and under tiered storage fully-consumed cold spans
    /// stay compacted (or spilled) instead of being re-inflated.
    venue: RangedVenue,
    /// Last round consumed per collector shard. The merge bound is
    /// `min(last) + 1`: everything below it is consumed on *every* shard,
    /// so no span holding only such rounds needs reading. A record whose
    /// round is not above its shard's watermark is skipped, so each shard
    /// is read as strictly increasing rounds (an engine posts `1, 2, …`).
    last: Vec<usize>,
}

impl AdaptiveAttacker {
    /// Creates the attacker over a clone of the engine's public board.
    /// `offset` is the evasion margin kept below a targeted threshold
    /// atom; `fallback` is the injection used before any history exists.
    ///
    /// # Panics
    /// Panics unless `0 <= offset <= 1` and `0 <= fallback <= 1`.
    #[must_use]
    pub fn new(board: RangedBoard, offset: f64, fallback: f64) -> Self {
        Self::over_venue(RangedVenue::from(board), offset, fallback)
    }

    /// Creates the attacker over a sharded [`RangedVenue`] — the white-box
    /// channel when several collectors publish to one venue. Records are
    /// consumed through [`RangedVenue::merged_since_round`] with the bound
    /// advanced past fully-consumed rounds, so under tiered storage the
    /// per-round read never inflates compacted or spilled spans it has
    /// already folded into its threshold model.
    ///
    /// # Panics
    /// Panics unless `0 <= offset <= 1` and `0 <= fallback <= 1`.
    #[must_use]
    pub fn over_venue(venue: RangedVenue, offset: f64, fallback: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&offset),
            "offset {offset} not in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&fallback),
            "fallback {fallback} not in [0, 1]"
        );
        Self {
            offset,
            fallback,
            tol: 1e-9,
            atoms: Vec::new(),
            seen: 0,
            last: vec![0; venue.collectors()],
            venue,
        }
    }

    /// Folds records published since the last read into the atom counts
    /// (a visitor read of the round-bounded venue merge).
    fn ingest_new_records(&mut self) {
        let Self {
            venue,
            last,
            atoms,
            seen,
            tol,
            ..
        } = self;
        let tol = *tol;
        let mut fold = |t: f64| {
            assert!(!t.is_nan(), "NaN threshold on the public board");
            let idx = atoms.partition_point(|&(a, _)| a < t - tol);
            match atoms.get_mut(idx) {
                Some((a, count)) if (*a - t).abs() <= tol => *count += 1,
                _ => atoms.insert(idx, (t, 1)),
            }
        };
        let bound = last.iter().copied().min().unwrap_or(0) + 1;
        venue.merged_since_round(bound).for_each(|shard, record| {
            // Shards advance unevenly: the bound is the min across shards,
            // so records a faster shard already yielded can reappear — the
            // per-shard watermark drops them.
            if record.round <= last[shard] {
                return;
            }
            last[shard] = record.round;
            *seen += 1;
            fold(record.threshold_percentile);
        });
    }
}

impl AttackPolicy for AdaptiveAttacker {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Adaptive")
    }

    fn next_injection(&mut self, _obs: &AdversaryObservation, _rng: &mut dyn RngCore) -> f64 {
        self.ingest_new_records();
        if self.seen == 0 {
            return self.fallback;
        }
        let total = self.seen as f64;
        let mut best = self.fallback;
        let mut best_gain = f64::NEG_INFINITY;
        // Ascending scan with strict improvement: deterministic, and ties
        // resolve to the safest (lowest) position. Candidate `atom − offset`
        // survives whenever the sampled threshold is at least that high, so
        // with ascending atoms the survivor mass is a running suffix sum.
        let mut survivors: usize = self.atoms.iter().map(|&(_, count)| count).sum();
        let mut k = 0; // first atom index counted in `survivors`
        for i in 0..self.atoms.len() {
            let position = (self.atoms[i].0 - self.offset).clamp(0.0, 1.0);
            while k < self.atoms.len() && self.atoms[k].0 < position {
                survivors -= self.atoms[k].1;
                k += 1;
            }
            let gain = survivors as f64 / total * position;
            if gain > best_gain {
                best_gain = gain;
                best = position;
            }
        }
        best
    }
}

/// A no-regret (bandit) attacker: Exp3 multiplicative weights over a
/// finite set of injection responses, fed by the *realized* per-round
/// payoffs the engine reports through [`AttackPolicy::observe_payoff`].
///
/// Unlike [`AdaptiveAttacker`] — which best-responds to a *model* built
/// from the public threshold history — Exp3 never models the defender at
/// all: it only sees its own bandit feedback (the payoff of the arm it
/// played), yet its average payoff provably converges to within the
/// certified regret bound of the best fixed response in hindsight. Against
/// a defender playing the solved mixed equilibrium this is exactly the
/// robustness claim worth testing: no learning attacker, however adaptive,
/// can push its long-run average payoff above the game value plus the
/// regret bound.
///
/// Determinism: the attacker draws **only from its own seeded sub-stream**
/// (never from the engine's main environment RNG passed to
/// [`AttackPolicy::next_injection`]), so adding it to a game cannot
/// perturb the benign draws, and fixed-seed replays are exact. A
/// single-response set consumes no randomness at all and is
/// trajectory-identical to the corresponding pure
/// [`AdversaryPolicy::Fixed`] policy.
#[derive(Debug, Clone)]
pub struct Exp3Attacker {
    atoms: Vec<f64>,
    /// Normalized weights (sum to one); the played distribution mixes
    /// them with uniform exploration `γ/K`.
    weights: Vec<f64>,
    gamma: f64,
    horizon: usize,
    payoff_bound: f64,
    rng: rand::rngs::StdRng,
    /// Arm played this round and its sampling probability, pending payoff.
    last_play: Option<(usize, f64)>,
    rounds_observed: usize,
    total_payoff: f64,
}

impl Exp3Attacker {
    /// Builds the attacker over response `atoms` (injection percentiles)
    /// for a game of `horizon` rounds. `payoff_bound` is an upper bound on
    /// the per-round payoff magnitude (the percentile-damage proxy is at
    /// most 1); `seed` seeds the attacker's private sampling stream. The
    /// exploration rate is the horizon-optimal
    /// `γ = min(1, √(K·ln K / ((e−1)·horizon)))`.
    ///
    /// # Errors
    /// Returns [`crate::error::CoreError::InvalidParameter`] if the atom
    /// set is empty or leaves `[0, 1]`, `horizon` is zero, or
    /// `payoff_bound` is not strictly positive and finite.
    pub fn new(
        atoms: &[f64],
        horizon: usize,
        payoff_bound: f64,
        seed: u64,
    ) -> Result<Self, crate::error::CoreError> {
        use crate::error::CoreError;
        if atoms.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "atoms",
                constraint: "non-empty response set",
                value: 0.0,
            });
        }
        for &a in atoms {
            if !(0.0..=1.0).contains(&a) {
                return Err(CoreError::InvalidParameter {
                    name: "atom",
                    constraint: "0 <= atom <= 1",
                    value: a,
                });
            }
        }
        if horizon == 0 {
            return Err(CoreError::InvalidParameter {
                name: "horizon",
                constraint: "at least one round",
                value: 0.0,
            });
        }
        if !(payoff_bound.is_finite() && payoff_bound > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "payoff_bound",
                constraint: "finite and strictly positive",
                value: payoff_bound,
            });
        }
        let k = atoms.len() as f64;
        let gamma = if atoms.len() == 1 {
            0.0
        } else {
            (k * k.ln() / ((std::f64::consts::E - 1.0) * horizon as f64))
                .sqrt()
                .min(1.0)
        };
        Ok(Self {
            atoms: atoms.to_vec(),
            weights: vec![1.0 / k; atoms.len()],
            gamma,
            horizon,
            payoff_bound,
            rng: trimgame_numerics::rand_ext::seeded_rng(seed),
            last_play: None,
            rounds_observed: 0,
            total_payoff: 0.0,
        })
    }

    /// The response atoms.
    #[must_use]
    pub fn atoms(&self) -> &[f64] {
        &self.atoms
    }

    /// The played distribution this round:
    /// `p_i = (1 − γ)·w_i + γ/K`. Every entry is at least `γ/K > 0` (for
    /// `K > 1`) and the entries sum to one.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        let k = self.atoms.len() as f64;
        self.weights
            .iter()
            .map(|w| (1.0 - self.gamma) * w + self.gamma / k)
            .collect()
    }

    /// The normalized internal weights (sum to one).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mean realized payoff per observed round so far.
    #[must_use]
    pub fn average_payoff(&self) -> f64 {
        if self.rounds_observed == 0 {
            0.0
        } else {
            self.total_payoff / self.rounds_observed as f64
        }
    }

    /// Rounds of payoff feedback consumed so far.
    #[must_use]
    pub fn rounds_observed(&self) -> usize {
        self.rounds_observed
    }

    /// The certified *average* (per-round) regret bound of Exp3 with this
    /// exploration rate after `rounds` rounds, in payoff units:
    /// `bound · ((e−1)·γ + K·ln K / (γ·rounds))`. At the construction
    /// horizon this is the classic `2√(e−1)·√(K ln K / T)·bound`. A
    /// singleton response set has zero regret by definition.
    ///
    /// # Panics
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn average_regret_bound(&self, rounds: usize) -> f64 {
        assert!(rounds > 0, "regret is per observed round");
        if self.atoms.len() == 1 {
            return 0.0;
        }
        let k = self.atoms.len() as f64;
        self.payoff_bound
            * ((std::f64::consts::E - 1.0) * self.gamma + k * k.ln() / (self.gamma * rounds as f64))
    }

    /// The construction horizon (the `T` the exploration rate is tuned to).
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }
}

impl AttackPolicy for Exp3Attacker {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Exp3")
    }

    fn next_injection(&mut self, _obs: &AdversaryObservation, _rng: &mut dyn RngCore) -> f64 {
        // Singleton: no sampling, no randomness — replay-identical to the
        // pure policy at the same atom.
        if self.atoms.len() == 1 {
            self.last_play = Some((0, 1.0));
            return self.atoms[0];
        }
        let probs = self.probabilities();
        let u: f64 = self.rng.gen();
        let mut acc = 0.0;
        let mut arm = probs.len() - 1;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                arm = i;
                break;
            }
        }
        self.last_play = Some((arm, probs[arm]));
        self.atoms[arm]
    }

    fn observe_payoff(&mut self, _round: usize, payoff: f64) {
        self.rounds_observed += 1;
        self.total_payoff += payoff;
        let Some((arm, prob)) = self.last_play.take() else {
            return;
        };
        if self.atoms.len() == 1 {
            return;
        }
        // Importance-weighted payoff estimate of the played arm, scaled
        // into [0, 1]; unplayed arms get estimate 0 (the bandit update).
        let x = (payoff / self.payoff_bound).clamp(0.0, 1.0) / prob;
        let k = self.atoms.len() as f64;
        self.weights[arm] *= (self.gamma * x / k).exp();
        // Keep the weights normalized: positivity and Σw = 1 become
        // invariants instead of floating-point hopes (the played mixture
        // is scale-free, so this is the standard Exp3 up to normalization).
        let total: f64 = self.weights.iter().sum();
        for w in &mut self.weights {
            *w /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgame_numerics::rand_ext::seeded_rng;

    fn obs(t: Option<f64>) -> AdversaryObservation {
        AdversaryObservation { last_threshold: t }
    }

    #[test]
    fn fixed_ignores_observations() {
        let mut a = AdversaryPolicy::Fixed { percentile: 0.99 };
        let mut rng = seeded_rng(1);
        assert_eq!(a.next_injection(&obs(None), &mut rng), 0.99);
        assert_eq!(a.next_injection(&obs(Some(0.5)), &mut rng), 0.99);
    }

    #[test]
    fn uniform_stays_in_band() {
        let mut a = AdversaryPolicy::Uniform { lo: 0.9, hi: 1.0 };
        let mut rng = seeded_rng(2);
        for _ in 0..100 {
            let x = a.next_injection(&obs(None), &mut rng);
            assert!((0.9..=1.0).contains(&x));
        }
    }

    #[test]
    fn just_below_tracks_threshold() {
        let mut a = AdversaryPolicy::JustBelowThreshold {
            offset: 0.01,
            fallback: 0.99,
        };
        let mut rng = seeded_rng(3);
        assert_eq!(a.next_injection(&obs(None), &mut rng), 0.99);
        assert!((a.next_injection(&obs(Some(0.9)), &mut rng) - 0.89).abs() < 1e-12);
        // Never negative.
        assert_eq!(a.next_injection(&obs(Some(0.005)), &mut rng), 0.0);
    }

    #[test]
    fn mixed_extremes_are_pure() {
        let mut hi = AdversaryPolicy::Mixed {
            p: 1.0,
            hi: 0.99,
            lo: 0.90,
        };
        let mut lo = AdversaryPolicy::Mixed {
            p: 0.0,
            hi: 0.99,
            lo: 0.90,
        };
        let mut rng = seeded_rng(4);
        for _ in 0..20 {
            assert_eq!(hi.next_injection(&obs(None), &mut rng), 0.99);
            assert_eq!(lo.next_injection(&obs(None), &mut rng), 0.90);
        }
    }

    #[test]
    fn mixed_frequency_matches_p() {
        let mut a = AdversaryPolicy::Mixed {
            p: 0.3,
            hi: 0.99,
            lo: 0.90,
        };
        let mut rng = seeded_rng(5);
        let hits = (0..10_000)
            .filter(|_| a.next_injection(&obs(None), &mut rng) == 0.99)
            .count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn elastic_follows_coupled_rule() {
        let mut a = AdversaryPolicy::elastic(0.9, 0.5);
        let mut rng = seeded_rng(6);
        // A(1) = Tth + 1%.
        assert!((a.next_injection(&obs(None), &mut rng) - 0.91).abs() < 1e-12);
        // Defender trimmed at 0.87: A = 0.9 - 0.03 + 0.5*(0.87-0.9) = 0.855.
        let x = a.next_injection(&obs(Some(0.87)), &mut rng);
        assert!((x - 0.855).abs() < 1e-12);
    }

    #[test]
    fn elastic_and_dynamics_agree() {
        // The adversary policy + defender policy reproduce the
        // CoupledDynamics trajectory exactly.
        use crate::elastic::CoupledDynamics;
        use crate::strategy::{DefenderObservation, DefenderPolicy};
        let d = CoupledDynamics::new(0.9, 0.5).unwrap();
        let reference = d.trajectory(10);

        let mut def = DefenderPolicy::elastic(0.9, 0.5);
        let mut adv = AdversaryPolicy::elastic(0.9, 0.5);
        let mut rng = seeded_rng(7);
        let mut trim = def.initial_threshold();
        let mut inject = adv.next_injection(&obs(None), &mut rng);
        for state in &reference {
            assert!((state.trim - trim).abs() < 1e-12);
            assert!((state.inject - inject).abs() < 1e-12);
            let next_trim = def.next_threshold(
                0,
                &DefenderObservation {
                    quality: 1.0,
                    injection_percentile: Some(inject),
                },
            );
            let next_inject = adv.next_injection(&obs(Some(trim)), &mut rng);
            trim = next_trim;
            inject = next_inject;
        }
    }

    #[test]
    fn compliant_sits_just_below_nominal() {
        let mut a = AdversaryPolicy::compliant(0.9);
        let mut rng = seeded_rng(8);
        assert!((a.next_injection(&obs(Some(0.91)), &mut rng) - 0.89).abs() < 1e-12);
    }

    #[test]
    fn attack_trait_shim_matches_enum_dispatch() {
        let mut direct = AdversaryPolicy::Uniform { lo: 0.9, hi: 1.0 };
        let mut boxed: Box<dyn AttackPolicy> =
            Box::new(AdversaryPolicy::Uniform { lo: 0.9, hi: 1.0 });
        let mut rng_a = seeded_rng(42);
        let mut rng_b = seeded_rng(42);
        for _ in 0..50 {
            assert_eq!(
                direct.next_injection(&obs(None), &mut rng_a),
                boxed.next_injection(&obs(None), &mut rng_b)
            );
        }
    }

    fn post_threshold(board: &RangedBoard, round: usize, threshold: f64) {
        board.post(trimgame_stream::board::RoundRecord {
            round,
            threshold_percentile: threshold,
            threshold_value: None,
            received: 100,
            trimmed: 10,
            retained: trimgame_numerics::stats::OnlineStats::new(),
            quality: 1.0,
        });
    }

    #[test]
    fn adaptive_attacker_falls_back_without_history() {
        let board = RangedBoard::unbounded();
        let mut a = AdaptiveAttacker::new(board, 0.01, 0.99);
        let mut rng = seeded_rng(1);
        assert_eq!(a.next_injection(&obs(None), &mut rng), 0.99);
    }

    #[test]
    fn adaptive_attacker_tracks_a_deterministic_defender() {
        let board = RangedBoard::unbounded();
        let mut a = AdaptiveAttacker::new(board.clone(), 0.01, 0.99);
        for round in 1..=5 {
            post_threshold(&board, round, 0.9);
        }
        let mut rng = seeded_rng(2);
        // One atom at 0.9: ride just below it (the ideal attack).
        let x = a.next_injection(&obs(Some(0.9)), &mut rng);
        assert!((x - 0.89).abs() < 1e-12);
    }

    #[test]
    fn adaptive_attacker_best_responds_to_a_mixture() {
        // 80% of thresholds at 0.95, 20% at 0.85. Riding below 0.95 earns
        // 0.8 * 0.94 = 0.752; hiding below 0.85 earns 1.0 * 0.84 = 0.84.
        // The safe low position wins.
        let board = RangedBoard::unbounded();
        let mut a = AdaptiveAttacker::new(board.clone(), 0.01, 0.99);
        for round in 1..=10 {
            let t = if round <= 8 { 0.95 } else { 0.85 };
            post_threshold(&board, round, t);
        }
        let mut rng = seeded_rng(3);
        let x = a.next_injection(&obs(Some(0.95)), &mut rng);
        assert!((x - 0.84).abs() < 1e-12, "expected 0.84, got {x}");

        // Tilt the mixture to 90% high: below-0.95 now earns
        // 0.9 * 0.94 = 0.846, beating below-0.85's 0.84.
        let board2 = RangedBoard::unbounded();
        let mut b = AdaptiveAttacker::new(board2.clone(), 0.01, 0.99);
        for round in 1..=10 {
            let t = if round <= 9 { 0.95 } else { 0.85 };
            post_threshold(&board2, round, t);
        }
        let x = b.next_injection(&obs(Some(0.95)), &mut rng);
        assert!((x - 0.94).abs() < 1e-12, "expected 0.94, got {x}");
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn adaptive_attacker_rejects_bad_offset() {
        let _ = AdaptiveAttacker::new(RangedBoard::unbounded(), 1.5, 0.9);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn venue_attacker_rejects_bad_fallback() {
        let _ = AdaptiveAttacker::over_venue(RangedVenue::new(1, 8), 0.01, 1.5);
    }

    #[test]
    fn venue_backed_attacker_matches_board_backed() {
        // Two shards publishing interleaved rounds: the venue merge yields
        // the same global threshold sequence a single board would, so both
        // attackers must best-respond identically at every step.
        let board = RangedBoard::unbounded();
        let venue = RangedVenue::new(2, 8);
        let mut on_board = AdaptiveAttacker::new(board.clone(), 0.01, 0.99);
        let mut on_venue = AdaptiveAttacker::over_venue(venue.clone(), 0.01, 0.99);
        let mut rng = seeded_rng(4);
        for round in 1..=30 {
            let t = if round % 5 == 0 { 0.85 } else { 0.95 };
            post_threshold(&board, round, t);
            post_threshold(&venue.collector(round % 2), round, t);
            if round % 7 == 0 {
                let a = on_board.next_injection(&obs(Some(t)), &mut rng);
                let b = on_venue.next_injection(&obs(Some(t)), &mut rng);
                assert_eq!(a, b, "diverged at round {round}");
            }
        }
    }

    #[test]
    fn venue_attacker_skips_cold_spans_without_inflating() {
        use trimgame_stream::compact::{Compactor, TierConfig};
        let venue = RangedVenue::new(1, 8);
        let shard = venue.collector(0);
        let mut a = AdaptiveAttacker::over_venue(venue.clone(), 0.01, 0.99);
        let mut rng = seeded_rng(5);
        for round in 1..=100 {
            post_threshold(&shard, round, 0.9);
        }
        let x = a.next_injection(&obs(Some(0.9)), &mut rng);
        assert!((x - 0.89).abs() < 1e-12);
        // Compact the consumed history, then keep playing: the bounded
        // merge reads only from the watermark forward, so the compacted
        // spans are never re-inflated by the attacker's per-round reads.
        Compactor::new(TierConfig::default(), "adv").run(&shard);
        let stats = venue.tier_stats();
        assert!(stats.snapshot().frames_built > 0);
        let inflations_before = stats.snapshot().inflations;
        for round in 101..=110 {
            post_threshold(&shard, round, 0.9);
            let x = a.next_injection(&obs(Some(0.9)), &mut rng);
            assert!((x - 0.89).abs() < 1e-12);
        }
        assert_eq!(stats.snapshot().inflations, inflations_before);
    }

    #[test]
    fn exp3_validates_construction() {
        assert!(Exp3Attacker::new(&[], 10, 1.0, 1).is_err());
        assert!(Exp3Attacker::new(&[1.2], 10, 1.0, 1).is_err());
        assert!(Exp3Attacker::new(&[-0.1], 10, 1.0, 1).is_err());
        assert!(Exp3Attacker::new(&[0.9], 0, 1.0, 1).is_err());
        assert!(Exp3Attacker::new(&[0.9], 10, 0.0, 1).is_err());
        assert!(Exp3Attacker::new(&[0.9], 10, f64::NAN, 1).is_err());
        let a = Exp3Attacker::new(&[0.85, 0.95], 100, 1.0, 1).unwrap();
        assert!(a.gamma > 0.0 && a.gamma <= 1.0);
        assert_eq!(a.name(), "Exp3");
    }

    #[test]
    fn exp3_singleton_consumes_no_randomness_and_has_zero_regret() {
        let mut a = Exp3Attacker::new(&[0.93], 50, 1.0, 7).unwrap();
        let rng_fingerprint: u64 = seeded_rng(7).gen();
        let mut main = seeded_rng(99);
        for round in 1..=20 {
            assert_eq!(a.next_injection(&obs(None), &mut main), 0.93);
            a.observe_payoff(round, 0.4);
        }
        // Private stream untouched: its next draw equals a fresh clone's.
        assert_eq!(a.rng.gen::<u64>(), rng_fingerprint);
        assert_eq!(a.average_regret_bound(20), 0.0);
        assert!((a.average_payoff() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn exp3_probabilities_keep_the_exploration_floor() {
        let mut a = Exp3Attacker::new(&[0.8, 0.9, 0.99], 200, 1.0, 3).unwrap();
        let floor = a.gamma / 3.0;
        let mut main = seeded_rng(5);
        for round in 1..=100 {
            let inj = a.next_injection(&obs(None), &mut main);
            // Adversarial feedback: only the lowest atom ever pays.
            a.observe_payoff(round, if inj == 0.8 { 1.0 } else { 0.0 });
            let probs = a.probabilities();
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for &p in &probs {
                assert!(p >= floor - 1e-12, "prob {p} below floor {floor}");
            }
        }
    }

    #[test]
    fn exp3_concentrates_on_the_paying_arm() {
        let mut a = Exp3Attacker::new(&[0.85, 0.95], 400, 1.0, 11).unwrap();
        let mut main = seeded_rng(2);
        for round in 1..=400 {
            let inj = a.next_injection(&obs(None), &mut main);
            a.observe_payoff(round, if inj == 0.95 { 1.0 } else { 0.0 });
        }
        let probs = a.probabilities();
        assert!(
            probs[1] > 0.7,
            "should concentrate on the paying arm: {probs:?}"
        );
        // The main environment stream was never touched.
        let mut fresh = seeded_rng(2);
        assert_eq!(main.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn exp3_regret_bound_shrinks_with_rounds() {
        let a = Exp3Attacker::new(&[0.8, 0.9, 0.99], 1_000, 1.0, 1).unwrap();
        let b100 = a.average_regret_bound(100);
        let b1000 = a.average_regret_bound(1_000);
        assert!(b1000 < b100);
        // At the tuned horizon the bound matches the classic closed form.
        let k = 3.0_f64;
        let classic = 2.0 * (std::f64::consts::E - 1.0).sqrt() * (k * k.ln() / 1_000.0).sqrt();
        assert!((b1000 - classic).abs() < 1e-9, "{b1000} vs {classic}");
    }
}
