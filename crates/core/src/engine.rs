//! The unified simulation core: one round loop for the Fig. 3 game.
//!
//! The paper's evaluation plays the *same* interactive trimming game on
//! three very different substrates — scalar value streams (§VI-B),
//! feature-vector collection feeding k-means/SVM/SOM (§VI-C), and LDP
//! report streams (§VI-E). What varies is only the environment: how a
//! round's batch is materialized, how poison is injected, and how payoffs
//! are accounted. What never varies is the information structure of the
//! sequential game: in round `i` the defender moves on round `i − 1`'s
//! quality score and observed injection (via the public board), and the
//! adversary moves on round `i − 1`'s threshold.
//!
//! [`Scenario`] captures the varying part; [`EngineStepper`] owns the
//! invariant part — policy plumbing, observation hand-off, utility and
//! aggregate accounting. Adding a new workload is a ~100-line `Scenario`
//! impl, not a new simulator file. A pull run (a figure, a sweep cell, a
//! payoff-grid cell) plays a whole game with [`EngineStepper::run`], which
//! records each round's series into a reusable [`EngineScratch`] and posts
//! the public record only to a board the caller passes. A push run (the
//! streaming collector) calls [`EngineStepper::step`] once per sealed
//! batch and posts each step's record to its own board shard.
//!
//! The stepper preserves RNG call order exactly: threshold (no main-stream
//! draws), then the adversary's injection draw, then the scenario's
//! environment step — so re-expressing a simulator on it keeps fixed-seed
//! runs bit-identical.
//!
//! Policies enter through the object-safe [`ThresholdPolicy`] /
//! [`AttackPolicy`] traits; the closed enum rosters
//! ([`DefenderPolicy`](crate::strategy::DefenderPolicy) /
//! [`AdversaryPolicy`](crate::adversary::AdversaryPolicy)) implement them
//! as shims. Randomized *defender* policies draw from a dedicated
//! sub-stream seeded by [`EngineStepper::with_policy_seed`] — never from
//! the main environment stream — so adding randomness to the defender
//! cannot perturb the benign draws, the adversary's mixing, or any
//! deterministic-policy replay. Derive that seed from the run's master
//! seed (the substrates use
//! [`POLICY_SEED_STREAM`](crate::simulation::POLICY_SEED_STREAM)) so
//! independent repetitions draw independent thresholds.

use crate::adversary::{AdversaryObservation, AttackPolicy};
use crate::lagrange::UtilityTrajectory;
use crate::strategy::{DefenderObservation, ThresholdPolicy};
use rand::Rng;
use trimgame_numerics::rand_ext::seeded_rng;
use trimgame_numerics::stats::OnlineStats;
use trimgame_stream::board::{RangedBoard, RoundRecord};

/// What one environment step reports back to the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// `Quality_Evaluation()` score of the received batch.
    pub quality: f64,
    /// Values received (benign + poison).
    pub received: usize,
    /// Values removed by trimming.
    pub trimmed: usize,
    /// Poison values received.
    pub poison_received: usize,
    /// Poison values that survived trimming.
    pub poison_survived: usize,
    /// Benign values falsely trimmed (the overhead).
    pub benign_trimmed: usize,
    /// The adversary's roundwise gain `g_a` (percentile-damage proxy).
    pub gain_adversary: f64,
    /// The collector's roundwise overhead beyond `g_a` (benign trim
    /// fraction); the collector's gain is `−g_a − overhead`.
    pub overhead: f64,
    /// The injection percentile as identifiable from the public record
    /// (fed to the defender's next observation), if any.
    pub observed_injection: Option<f64>,
    /// The absolute threshold value applied, if any.
    pub threshold_value: Option<f64>,
    /// Summary statistics of the retained values (for the public board).
    pub retained: OnlineStats,
}

impl RoundReport {
    /// An empty report for scenarios that fill fields incrementally.
    #[must_use]
    pub fn new() -> Self {
        Self {
            quality: 1.0,
            received: 0,
            trimmed: 0,
            poison_received: 0,
            poison_survived: 0,
            benign_trimmed: 0,
            gain_adversary: 0.0,
            overhead: 0.0,
            observed_injection: None,
            threshold_value: None,
            retained: OnlineStats::new(),
        }
    }
}

impl Default for RoundReport {
    fn default() -> Self {
        Self::new()
    }
}

/// Provenance counts `(poison_received, poison_survived, benign_trimmed)`
/// of a trimmed batch laid out benign first: the first `n_benign` entries
/// of `kept_mask` are benign values and the rest are poison — the layout
/// every scenario builds its batch in.
///
/// # Panics
/// Panics if `n_benign > kept_mask.len()`.
pub(crate) fn provenance_counts(kept_mask: &[bool], n_benign: usize) -> (usize, usize, usize) {
    // `u32` counters vectorize twice as wide as `usize` ones; the chunks
    // keep them from overflowing.
    let kept = |mask: &[bool]| -> usize {
        mask.chunks(u32::MAX as usize)
            .map(|chunk| chunk.iter().fold(0u32, |n, &k| n + u32::from(k)) as usize)
            .sum()
    };
    let (benign, poison) = kept_mask.split_at(n_benign);
    (poison.len(), kept(poison), benign.len() - kept(benign))
}

/// The environment side of one workload: batch generation, poison
/// materialization, trimming and payoff accounting for a single round.
///
/// Implementations hold their scenario state (streams, reference quantile
/// tables, retained payloads, trim scratch buffers) and are driven by the
/// [`EngineStepper`], which owns the game-theoretic plumbing. The three stock
/// scenarios keep their reusable state in a worker arena and are generic
/// over how they hold it (`A: BorrowMut<Arena>`): owned for one-off
/// recording runs, `&mut` borrowed for payoff-grid cells that replay many
/// runs on one arena.
pub trait Scenario {
    /// Executes round `round`'s environment step: materialize the batch
    /// with poison at `injection`, apply the cut at percentile
    /// `threshold`, account payoffs, and report the round's bookkeeping.
    ///
    /// `injection` arrives exactly as the adversary policy produced it
    /// (unclamped); scenarios clamp or reinterpret as their substrate
    /// requires.
    fn play_round<R: Rng + ?Sized>(
        &mut self,
        round: usize,
        threshold: f64,
        injection: f64,
        rng: &mut R,
    ) -> RoundReport;
}

/// Aggregate counts over a full engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTotals {
    /// Values received across all rounds.
    pub received: usize,
    /// Values trimmed across all rounds.
    pub trimmed: usize,
    /// Poison received across all rounds.
    pub poison_received: usize,
    /// Poison that survived trimming.
    pub poison_survived: usize,
    /// Benign values falsely trimmed.
    pub benign_trimmed: usize,
}

impl EngineTotals {
    /// Fraction of retained values that are poison (Table III's metric).
    #[must_use]
    pub fn surviving_poison_fraction(&self) -> f64 {
        let kept = self.received - self.trimmed;
        if kept == 0 {
            0.0
        } else {
            self.poison_survived as f64 / kept as f64
        }
    }

    /// Aggregate benign trim fraction (overhead).
    #[must_use]
    pub fn benign_trim_fraction(&self) -> f64 {
        let benign = self.received - self.poison_received;
        if benign == 0 {
            0.0
        } else {
            self.benign_trimmed as f64 / benign as f64
        }
    }
}

/// Reusable trajectory buffers for [`EngineStepper::run`]: the per-round
/// series a run records, recycled across runs so a sweep or payoff-grid
/// worker allocates them once instead of five vectors per cell.
///
/// After a run the buffers hold that run's series (read them via the
/// accessors); the next run clears and refills them, keeping the
/// capacity.
#[derive(Debug, Default)]
pub struct EngineScratch {
    thresholds: Vec<f64>,
    injections: Vec<f64>,
    qualities: Vec<f64>,
    gains_a: Vec<f64>,
    gains_c: Vec<f64>,
}

impl EngineScratch {
    /// Creates empty buffers (they grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The threshold percentile applied each round of the last run.
    #[must_use]
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The adversary's injection percentile each round of the last run.
    #[must_use]
    pub fn injections(&self) -> &[f64] {
        &self.injections
    }

    /// The quality score of each round of the last run.
    #[must_use]
    pub fn qualities(&self) -> &[f64] {
        &self.qualities
    }

    /// Cumulative utility trajectories of the last run (allocates — the
    /// scratch keeps only roundwise gains).
    #[must_use]
    pub fn utilities(&self) -> UtilityTrajectory {
        UtilityTrajectory::from_roundwise(&self.gains_a, &self.gains_c)
    }

    fn reset(&mut self, rounds: usize) {
        for buf in [
            &mut self.thresholds,
            &mut self.injections,
            &mut self.qualities,
            &mut self.gains_a,
            &mut self.gains_c,
        ] {
            buf.clear();
            buf.reserve(rounds);
        }
    }
}

/// Aggregate result of a run ([`EngineStepper::run`] or
/// [`EngineStepper::summary`]): everything a payoff-estimation cell needs,
/// with no owned trajectories — those stay in the [`EngineScratch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineRun {
    /// Aggregate counts.
    pub totals: EngineTotals,
    /// Final cumulative adversary utility (bit-identical to the last
    /// entry of [`EngineScratch::utilities`]).
    pub final_u_a: f64,
    /// Final cumulative collector utility.
    pub final_u_c: f64,
    /// Round at which a trigger defender terminated cooperation, if any.
    pub termination_round: Option<usize>,
    /// Rounds played.
    pub rounds: usize,
}

/// One round's full outcome as produced by [`EngineStepper::step`]: the
/// decisions that were played and the scenario's report. The caller owns
/// recording — post [`EngineStep::to_record`] to whichever board (or
/// board shard) hosts the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStep {
    /// The 1-based round just played.
    pub round: usize,
    /// The threshold percentile the defender applied.
    pub threshold: f64,
    /// The adversary's injection percentile (as produced, unclamped).
    pub injection: f64,
    /// The scenario's bookkeeping for the round.
    pub report: RoundReport,
}

impl EngineStep {
    /// The collector's roundwise gain, `−g_a − overhead`.
    #[must_use]
    pub fn gain_collector(&self) -> f64 {
        -self.report.gain_adversary - self.report.overhead
    }

    /// The public-board record for this round (Fig. 3 steps ①/⑥).
    #[must_use]
    pub fn to_record(&self) -> RoundRecord {
        RoundRecord {
            round: self.round,
            threshold_percentile: self.threshold,
            threshold_value: self.report.threshold_value,
            received: self.report.received,
            trimmed: self.report.trimmed,
            retained: self.report.retained,
            quality: self.report.quality,
        }
    }
}

/// The Fig. 3 round loop over any [`Scenario`]: the information
/// structure of the game, one round at a time.
///
/// Each [`EngineStepper::step`] call plays exactly one round (threshold
/// from the policy sub-stream, injection from the main stream,
/// `Scenario::play_round` unchanged, bandit feedback, utility/total
/// accumulation) and hands the outcome back to the caller, who records
/// it wherever the deployment demands — a streaming collector steps when
/// its ingest pipeline *seals a batch* and posts to a per-worker board
/// shard. [`EngineStepper::run`] is the same loop driven `rounds` times
/// for a pull run, so a stepper stepped by hand `n` times and one run for
/// `n` rounds produce bit-identical trajectories for the same seeds.
#[derive(Debug)]
pub struct EngineStepper<S: Scenario> {
    scenario: S,
    defender: Box<dyn ThresholdPolicy>,
    adversary: Box<dyn AttackPolicy>,
    policy_rng: rand::rngs::StdRng,
    def_obs: Option<DefenderObservation>,
    adv_obs: AdversaryObservation,
    totals: EngineTotals,
    // Running cumulative utilities, summed in round order — the same
    // addition sequence as `UtilityTrajectory::from_roundwise`, so the
    // finals are bit-identical to the trajectory's last entries.
    cum_u_a: f64,
    cum_u_c: f64,
    round: usize,
}

impl<S: Scenario> EngineStepper<S> {
    /// Builds a stepper whose defender draws from a dedicated sub-stream
    /// seeded with `policy_seed`. Deterministic policies never draw from
    /// it; for randomized defenders, runs sharing a policy seed replay the
    /// identical threshold draws, so derive it per run from the run's
    /// master seed (e.g. with
    /// [`trimgame_numerics::rand_ext::derive_seed`]).
    #[must_use]
    pub fn with_policy_seed(
        scenario: S,
        defender: Box<dyn ThresholdPolicy>,
        adversary: Box<dyn AttackPolicy>,
        policy_seed: u64,
    ) -> Self {
        Self {
            scenario,
            defender,
            adversary,
            policy_rng: seeded_rng(policy_seed),
            def_obs: None,
            adv_obs: AdversaryObservation {
                last_threshold: None,
            },
            totals: EngineTotals::default(),
            cum_u_a: 0.0,
            cum_u_c: 0.0,
            round: 0,
        }
    }

    /// Rounds played so far.
    #[must_use]
    pub fn rounds_played(&self) -> usize {
        self.round
    }

    /// Plays the next round: decisions from the previous round's
    /// information only, environment step on the caller's `rng`, bandit
    /// feedback, accumulation. The caller records the returned step.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> EngineStep {
        let round = self.round + 1;
        self.round = round;
        // Decisions from *previous* round information only. The
        // defender draws (if at all) from its dedicated sub-stream;
        // the adversary draws from the main environment stream, in
        // the historical call order.
        let threshold = match &self.def_obs {
            None => self.defender.initial_threshold(&mut self.policy_rng),
            Some(obs) => self
                .defender
                .next_threshold(round, obs, &mut self.policy_rng),
        };
        let injection = {
            let mut main = &mut *rng;
            self.adversary.next_injection(&self.adv_obs, &mut main)
        };

        let report = self.scenario.play_round(round, threshold, injection, rng);

        // Bandit feedback: learning attackers (Exp3) update on the
        // realized roundwise gain; everyone else ignores the call.
        self.adversary.observe_payoff(round, report.gain_adversary);

        let gain_c = -report.gain_adversary - report.overhead;
        self.cum_u_a += report.gain_adversary;
        self.cum_u_c += gain_c;
        self.totals.received += report.received;
        self.totals.trimmed += report.trimmed;
        self.totals.poison_received += report.poison_received;
        self.totals.poison_survived += report.poison_survived;
        self.totals.benign_trimmed += report.benign_trimmed;

        self.def_obs = Some(DefenderObservation {
            quality: report.quality,
            injection_percentile: report.observed_injection,
        });
        self.adv_obs = AdversaryObservation {
            last_threshold: Some(threshold),
        };

        EngineStep {
            round,
            threshold,
            injection,
            report,
        }
    }

    /// Plays `rounds` more rounds — the whole game of a pull run. `rng`
    /// drives the adversary's mixed strategies and the scenario's
    /// environment; the caller seeds it. Every round's threshold,
    /// injection, quality and gains are recorded into `scratch`, which is
    /// cleared first and keeps its capacity. Each round's public record is
    /// posted to `board` when one is given (e.g. a board the adversary
    /// already holds a clone of) and is not built otherwise. Returns
    /// [`EngineStepper::summary`].
    ///
    /// # Panics
    /// Panics if `rounds == 0`.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        rounds: usize,
        rng: &mut R,
        scratch: &mut EngineScratch,
        board: Option<&RangedBoard>,
    ) -> EngineRun {
        assert!(rounds > 0, "need at least one round");
        scratch.reset(rounds);
        for _ in 0..rounds {
            let step = self.step(rng);
            if let Some(board) = board {
                board.post(step.to_record());
            }
            scratch.thresholds.push(step.threshold);
            scratch.injections.push(step.injection);
            scratch.qualities.push(step.report.quality);
            scratch.gains_a.push(step.report.gain_adversary);
            scratch.gains_c.push(step.gain_collector());
        }
        self.summary()
    }

    /// The aggregate result so far, without consuming the stepper.
    #[must_use]
    pub fn summary(&self) -> EngineRun {
        EngineRun {
            totals: self.totals,
            final_u_a: self.cum_u_a,
            final_u_c: self.cum_u_c,
            termination_round: self.defender.termination_round(),
            rounds: self.round,
        }
    }

    /// Finishes the run, handing back the aggregate result together
    /// with the scenario and both policies in their final states.
    #[allow(clippy::type_complexity)]
    #[must_use]
    pub fn into_parts(
        self,
    ) -> (
        EngineRun,
        S,
        Box<dyn ThresholdPolicy>,
        Box<dyn AttackPolicy>,
    ) {
        let run = self.summary();
        (run, self.scenario, self.defender, self.adversary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryPolicy;
    use crate::strategy::DefenderPolicy;
    use trimgame_numerics::rand_ext::seeded_rng;

    #[test]
    fn provenance_counts_split_at_the_benign_prefix() {
        //            benign: kept, trimmed, kept | poison: kept, trimmed
        let mask = [true, false, true, true, false];
        assert_eq!(provenance_counts(&mask, 3), (2, 1, 1));
        assert_eq!(provenance_counts(&mask, 5), (0, 0, 2));
        assert_eq!(provenance_counts(&mask, 0), (5, 3, 0));
        assert_eq!(provenance_counts(&[], 0), (0, 0, 0));
    }

    /// A deterministic toy scenario: "poison" is a fixed fraction of the
    /// batch placed at the injection percentile of 0..100; the cut keeps
    /// everything at or below the threshold percentile.
    struct ToyScenario {
        batch: usize,
        poison: usize,
    }

    impl Scenario for ToyScenario {
        fn play_round<R: Rng + ?Sized>(
            &mut self,
            _round: usize,
            threshold: f64,
            injection: f64,
            _rng: &mut R,
        ) -> RoundReport {
            let mut report = RoundReport::new();
            report.received = self.batch + self.poison;
            let survives = injection <= threshold;
            report.poison_received = self.poison;
            report.poison_survived = if survives { self.poison } else { 0 };
            report.trimmed = if survives { 0 } else { self.poison };
            report.gain_adversary = report.poison_survived as f64 / report.received as f64;
            report.observed_injection = Some(injection);
            report.quality = 1.0 - injection.max(0.0) * 0.01;
            report
        }
    }

    fn toy_stepper(
        defender: Box<dyn ThresholdPolicy>,
        adversary: Box<dyn AttackPolicy>,
        policy_seed: u64,
    ) -> EngineStepper<ToyScenario> {
        let scenario = ToyScenario {
            batch: 90,
            poison: 10,
        };
        EngineStepper::with_policy_seed(scenario, defender, adversary, policy_seed)
    }

    /// One seeded toy game through [`EngineStepper::run`], without a
    /// board: the summary and the recorded series.
    fn play(
        defender: Box<dyn ThresholdPolicy>,
        adversary: Box<dyn AttackPolicy>,
        policy_seed: u64,
        rounds: usize,
        seed: u64,
    ) -> (EngineRun, EngineScratch) {
        let mut scratch = EngineScratch::new();
        let run = toy_stepper(defender, adversary, policy_seed).run(
            rounds,
            &mut seeded_rng(seed),
            &mut scratch,
            None,
        );
        (run, scratch)
    }

    #[test]
    fn engine_runs_rounds_and_accumulates() {
        let mut stepper = toy_stepper(
            Box::new(DefenderPolicy::Fixed { tth: 0.9 }),
            Box::new(AdversaryPolicy::Fixed { percentile: 0.95 }),
            1,
        );
        let board = RangedBoard::unbounded();
        let mut scratch = EngineScratch::new();
        let run = stepper.run(5, &mut seeded_rng(1), &mut scratch, Some(&board));
        assert_eq!(scratch.thresholds(), &[0.9; 5]);
        assert_eq!(scratch.injections(), &[0.95; 5]);
        assert_eq!(run.totals.received, 500);
        assert_eq!(run.totals.poison_survived, 0);
        assert_eq!(run.totals.trimmed, 50);
        assert_eq!(run.rounds, 5);
        assert_eq!(scratch.utilities().rounds(), 5);
        assert_eq!(board.len(), 5);
        assert_eq!(run.termination_round, None);
    }

    #[test]
    fn adversary_sees_previous_threshold() {
        let (run, scratch) = play(
            Box::new(DefenderPolicy::Fixed { tth: 0.9 }),
            Box::new(AdversaryPolicy::JustBelowThreshold {
                offset: 0.01,
                fallback: 0.99,
            }),
            1,
            3,
            2,
        );
        // Round 1: fallback (no history); afterwards: just below 0.9.
        assert_eq!(scratch.injections()[0], 0.99);
        assert!((scratch.injections()[1] - 0.89).abs() < 1e-12);
        assert_eq!(run.totals.poison_survived, 20);
    }

    #[test]
    fn defender_sees_previous_quality() {
        // Tit-for-tat triggers off the quality the scenario reported for
        // the high injection, then stays hard.
        let (run, scratch) = play(
            Box::new(DefenderPolicy::titfortat(0.9, 1.0, 0.005)),
            Box::new(AdversaryPolicy::Fixed { percentile: 0.99 }),
            1,
            4,
            3,
        );
        assert_eq!(run.termination_round, Some(2));
        assert!((scratch.thresholds()[0] - 0.91).abs() < 1e-12);
        assert!((scratch.thresholds()[2] - 0.87).abs() < 1e-12);
    }

    #[test]
    fn totals_fractions_are_consistent() {
        let totals = EngineTotals {
            received: 200,
            trimmed: 50,
            poison_received: 40,
            poison_survived: 30,
            benign_trimmed: 40,
        };
        assert!((totals.surviving_poison_fraction() - 0.2).abs() < 1e-12);
        assert!((totals.benign_trim_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(EngineTotals::default().surviving_poison_fraction(), 0.0);
        assert_eq!(EngineTotals::default().benign_trim_fraction(), 0.0);
    }

    #[test]
    fn single_atom_randomized_matches_fixed() {
        use crate::strategy::RandomizedDefender;
        let attack = || Box::new(AdversaryPolicy::Uniform { lo: 0.85, hi: 1.0 });
        let fixed = play(
            Box::new(DefenderPolicy::Fixed { tth: 0.9 }),
            attack(),
            1,
            8,
            9,
        );
        let randomized = play(
            Box::new(RandomizedDefender::new(&[0.9], &[3.0]).unwrap()),
            attack(),
            777,
            8,
            9,
        );
        // The degenerate mixture consumes no randomness anywhere, so the
        // whole trajectory — including the adversary's main-stream draws —
        // is bit-identical to the deterministic policy's.
        assert_eq!(fixed.1.thresholds(), randomized.1.thresholds());
        assert_eq!(fixed.1.injections(), randomized.1.injections());
        assert_eq!(fixed.1.utilities().u_a, randomized.1.utilities().u_a);
        assert_eq!(fixed.0.totals, randomized.0.totals);
    }

    #[test]
    fn randomized_defender_draws_from_substream_only() {
        use crate::strategy::RandomizedDefender;
        let run_with_seed = |policy_seed: u64| {
            play(
                Box::new(RandomizedDefender::new(&[0.86, 0.94], &[0.5, 0.5]).unwrap()),
                Box::new(AdversaryPolicy::Uniform { lo: 0.85, hi: 1.0 }),
                policy_seed,
                16,
                4,
            )
            .1
        };
        let a = run_with_seed(1);
        let b = run_with_seed(2);
        // Different sub-streams change the threshold sequence...
        assert_ne!(a.thresholds(), b.thresholds());
        // ...but never the main environment stream: the adversary's
        // injection draws are identical across policy seeds.
        assert_eq!(a.injections(), b.injections());
        // And the same policy seed replays exactly.
        let c = run_with_seed(1);
        assert_eq!(a.thresholds(), c.thresholds());
        assert!(a.thresholds().iter().all(|&t| t == 0.86 || t == 0.94));
    }

    #[test]
    fn adaptive_attacker_rides_engine_board() {
        use crate::adversary::AdaptiveAttacker;
        let board = RangedBoard::unbounded();
        let attacker = AdaptiveAttacker::new(board.clone(), 0.01, 0.99);
        let mut stepper = toy_stepper(
            Box::new(DefenderPolicy::Fixed { tth: 0.9 }),
            Box::new(attacker),
            1,
        );
        let mut scratch = EngineScratch::new();
        let run = stepper.run(4, &mut seeded_rng(6), &mut scratch, Some(&board));
        // Round 1: fallback above the cut (trimmed); afterwards: the board
        // reveals the fixed threshold and the attacker rides just below.
        assert_eq!(scratch.injections()[0], 0.99);
        for &inj in &scratch.injections()[1..] {
            assert!((inj - 0.89).abs() < 1e-12, "injection {inj}");
        }
        assert_eq!(run.totals.poison_survived, 30);
        let (_, _, _, adversary) = stepper.into_parts();
        assert_eq!(adversary.name(), "Adaptive");
    }

    #[test]
    fn exp3_attacker_learns_through_engine_feedback() {
        use crate::adversary::Exp3Attacker;
        // Fixed defender at 0.9: the 0.85 response survives every round
        // (positive realized gain), the 0.95 response is always trimmed.
        // The engine's observe_payoff feedback is the only signal Exp3
        // gets — concentration on 0.85 proves the loop is wired.
        let rounds = 300;
        let run = || {
            play(
                Box::new(DefenderPolicy::Fixed { tth: 0.9 }),
                Box::new(Exp3Attacker::new(&[0.85, 0.95], rounds, 0.1, 42).unwrap()),
                1,
                rounds,
                8,
            )
            .1
        };
        let out = run();
        let late = &out.injections()[rounds - 100..];
        let hits = late.iter().filter(|&&x| x == 0.85).count();
        assert!(hits > 70, "late surviving-arm plays: {hits}/100");
        // Replays are exact: the attacker samples only its private stream.
        assert_eq!(out.injections(), run().injections());
    }

    #[test]
    fn scratch_run_matches_owned_run_bit_for_bit() {
        // A scratch warmed on an unrelated run must replay a fresh one
        // exactly — stale contents must not leak into the next run.
        let game = || {
            toy_stepper(
                Box::new(DefenderPolicy::titfortat(0.9, 1.0, 0.005)),
                Box::new(AdversaryPolicy::Uniform { lo: 0.85, hi: 1.0 }),
                1,
            )
        };
        let (owned, fresh) = {
            let mut scratch = EngineScratch::new();
            let run = game().run(12, &mut seeded_rng(11), &mut scratch, None);
            (run, scratch)
        };
        let mut scratch = EngineScratch::new();
        let _ = game().run(5, &mut seeded_rng(99), &mut scratch, None);
        let lean = game().run(12, &mut seeded_rng(11), &mut scratch, None);
        assert_eq!(lean, owned);
        assert_eq!(lean.rounds, 12);
        assert_eq!(Some(&lean.final_u_a), fresh.utilities().u_a.last());
        assert_eq!(Some(&lean.final_u_c), fresh.utilities().u_c.last());
        assert_eq!(scratch.thresholds(), fresh.thresholds());
        assert_eq!(scratch.injections(), fresh.injections());
        assert_eq!(scratch.qualities(), fresh.qualities());
        assert_eq!(scratch.utilities().u_a, fresh.utilities().u_a);
        assert_eq!(scratch.utilities().u_c, fresh.utilities().u_c);
    }

    #[test]
    fn stepper_matches_engine_run_bit_for_bit() {
        // Drive the stepper by hand — posting records to our own board —
        // and the outcome must be indistinguishable from `run`: same
        // thresholds, injections, utilities, totals and board.
        let make = || {
            toy_stepper(
                Box::new(DefenderPolicy::titfortat(0.9, 1.0, 0.005)),
                Box::new(AdversaryPolicy::Uniform { lo: 0.85, hi: 1.0 }),
                31,
            )
        };
        let rounds = 12;
        let run_board = RangedBoard::unbounded();
        let mut owned = EngineScratch::new();
        let whole = make().run(rounds, &mut seeded_rng(21), &mut owned, Some(&run_board));

        let mut stepper = make();
        let board = RangedBoard::unbounded();
        let mut rng = seeded_rng(21);
        let mut thresholds = Vec::new();
        let mut injections = Vec::new();
        let mut gains_a = Vec::new();
        let mut gains_c = Vec::new();
        for i in 1..=rounds {
            let step = stepper.step(&mut rng);
            assert_eq!(step.round, i);
            board.post(step.to_record());
            thresholds.push(step.threshold);
            injections.push(step.injection);
            gains_a.push(step.report.gain_adversary);
            gains_c.push(step.gain_collector());
        }
        assert_eq!(stepper.rounds_played(), rounds);
        let run = stepper.summary();
        assert_eq!(run, whole);
        assert_eq!(thresholds, owned.thresholds());
        assert_eq!(injections, owned.injections());
        assert_eq!(Some(&run.final_u_a), owned.utilities().u_a.last());
        assert_eq!(Some(&run.final_u_c), owned.utilities().u_c.last());
        let traj = UtilityTrajectory::from_roundwise(&gains_a, &gains_c);
        assert_eq!(traj.u_a, owned.utilities().u_a);
        assert_eq!(traj.u_c, owned.utilities().u_c);
        // The hand-posted board matches the run's record for record.
        let history = |board: &RangedBoard| {
            let mut out = Vec::new();
            board.for_each_since_round(0, |r| out.push(r.clone()));
            out
        };
        let (ours, theirs) = (history(&board), history(&run_board));
        assert_eq!(ours.len(), rounds);
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(theirs.iter()) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.threshold_percentile, b.threshold_percentile);
            assert_eq!(a.quality, b.quality);
            assert_eq!(a.received, b.received);
            assert_eq!(a.trimmed, b.trimmed);
        }
    }

    #[test]
    fn stepper_summary_tracks_partial_runs() {
        let mut stepper = toy_stepper(
            Box::new(DefenderPolicy::Fixed { tth: 0.9 }),
            Box::new(AdversaryPolicy::Fixed { percentile: 0.95 }),
            1,
        );
        let mut rng = seeded_rng(5);
        assert_eq!(stepper.summary().rounds, 0);
        let _ = stepper.step(&mut rng);
        let _ = stepper.step(&mut rng);
        let mid = stepper.summary();
        assert_eq!(mid.rounds, 2);
        assert_eq!(mid.totals.received, 200);
        let (run, scenario, _defender, adversary) = stepper.into_parts();
        assert_eq!(run.rounds, 2);
        assert_eq!(scenario.batch, 90);
        assert_eq!(adversary.name(), "Adversary");
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = play(
            Box::new(DefenderPolicy::Ostrich),
            Box::new(AdversaryPolicy::Fixed { percentile: 0.5 }),
            1,
            0,
            4,
        );
    }
}
