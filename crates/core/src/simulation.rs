//! The scalar collection-game simulator (Table III and the analytical
//! checks).
//!
//! Runs the full interactive loop of Fig. 3 on a 1-D value stream with the
//! correct information structure: in round `i` the defender moves on what
//! it saw in round `i − 1` (quality score, adversary position from the
//! public board) and the adversary moves on the defender's round `i − 1`
//! threshold — a complete-information sequential game.
//!
//! Roundwise utilities use the percentile-damage proxy: an adversary whose
//! surviving poison sits at percentile `a` gains
//! `(surviving poison fraction) · a`, and the collector loses that gain
//! plus the benign trim fraction (the overhead `T`). Cumulative series
//! feed the Section IV analytical checks in [`crate::lagrange`].

use crate::adversary::{AdversaryPolicy, AttackPolicy};
use crate::engine::{
    provenance_counts, EngineRun, EngineScratch, EngineStepper, RoundReport, Scenario,
};
use crate::lagrange::UtilityTrajectory;
use crate::strategy::{DefenderPolicy, ThresholdPolicy};
use rand::Rng;
use std::borrow::{BorrowMut, Cow};
use trimgame_datasets::poison::{InjectionPosition, PoisonSpec};
use trimgame_datasets::stream::RoundStream;
use trimgame_numerics::quantile::{ecdf, percentile_sorted, Interpolation};
use trimgame_numerics::rand_ext::seeded_rng;
use trimgame_numerics::stats::OnlineStats;
use trimgame_stream::trim::{SketchThreshold, TrimScratch};

/// The six evaluation schemes of Section VI-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// No defense; adversary injects at the 99th percentile.
    Ostrich,
    /// Static threshold; adversary uniform in `[0.9, 1]`.
    Baseline09,
    /// Static threshold; ideal adversary at `Tth − 1%`.
    BaselineStatic,
    /// Algorithm 1 around `Tth`; compliant adversary at `Tth − 1%`.
    TitForTat,
    /// §VI-A coupled Elastic with response intensity `k`.
    Elastic(f64),
}

impl Scheme {
    /// The paper's scheme roster in Fig. 4–8 legend order.
    #[must_use]
    pub fn roster() -> Vec<Scheme> {
        vec![
            Scheme::Ostrich,
            Scheme::Baseline09,
            Scheme::BaselineStatic,
            Scheme::TitForTat,
            Scheme::Elastic(0.1),
            Scheme::Elastic(0.5),
        ]
    }

    /// Legend name. Static schemes borrow; only `Elastic` allocates (its
    /// name embeds `k`), so sweep aggregation keys stay allocation-free
    /// for the common schemes.
    #[must_use]
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            Scheme::Ostrich => Cow::Borrowed("Ostrich"),
            Scheme::Baseline09 => Cow::Borrowed("Baseline0.9"),
            Scheme::BaselineStatic => Cow::Borrowed("Baselinestatic"),
            Scheme::TitForTat => Cow::Borrowed("Titfortat"),
            Scheme::Elastic(k) => Cow::Owned(format!("Elastic{k}")),
        }
    }

    /// The defender policy for this scheme around nominal threshold `tth`.
    #[must_use]
    pub fn defender(&self, tth: f64, baseline_quality: f64, red: f64) -> DefenderPolicy {
        match self {
            Scheme::Ostrich => DefenderPolicy::Ostrich,
            Scheme::Baseline09 | Scheme::BaselineStatic => DefenderPolicy::Fixed { tth },
            Scheme::TitForTat => DefenderPolicy::titfortat(tth, baseline_quality, red),
            Scheme::Elastic(k) => DefenderPolicy::elastic(tth, *k),
        }
    }

    /// The adversary paired with this scheme in the paper's experiments.
    #[must_use]
    pub fn adversary(&self, tth: f64) -> AdversaryPolicy {
        match self {
            Scheme::Ostrich => AdversaryPolicy::Fixed { percentile: 0.99 },
            Scheme::Baseline09 => AdversaryPolicy::Uniform { lo: 0.9, hi: 1.0 },
            Scheme::BaselineStatic => AdversaryPolicy::JustBelowThreshold {
                offset: 0.01,
                fallback: tth - 0.01,
            },
            Scheme::TitForTat => AdversaryPolicy::compliant(tth),
            Scheme::Elastic(k) => AdversaryPolicy::elastic(tth, *k),
        }
    }
}

/// Configuration of one scalar game.
#[derive(Debug, Clone, PartialEq)]
pub struct GameConfig {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Nominal trimming threshold `Tth`.
    pub tth: f64,
    /// Number of rounds.
    pub rounds: usize,
    /// Attack ratio (poison per benign).
    pub attack_ratio: f64,
    /// Benign batch size per round.
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Tit-for-tat redundancy on the quality scale.
    pub red: f64,
    /// Optional override of the adversary (Table III's mixed attacker).
    pub adversary_override: Option<AdversaryPolicy>,
    /// Optional streaming threshold source: when set, the defender's cut
    /// value is resolved from a Greenwald–Khanna sketch of the clean pool
    /// (rank error ≤ ε) instead of the exact sorted reference — the
    /// sketch-native mode a collector under heavy traffic runs in. The
    /// adversary still positions against the *exact* reference quantiles
    /// (the public quality standard), so the sketch's rank-error band is
    /// pure evasion headroom for it; `None` (the default) keeps the exact
    /// path and every pre-existing trajectory bit-identical.
    pub sketch_epsilon: Option<f64>,
}

impl GameConfig {
    /// A reasonable default configuration for `scheme` on `Tth = 0.9`.
    #[must_use]
    pub fn new(scheme: Scheme) -> Self {
        Self {
            scheme,
            tth: 0.9,
            rounds: 20,
            attack_ratio: 0.2,
            batch: 1000,
            seed: 42,
            red: 0.05,
            adversary_override: None,
            sketch_epsilon: None,
        }
    }

    /// The scheme's roster policies around `tth` — its defender, and its
    /// adversary unless [`GameConfig::adversary_override`] replaces it.
    #[must_use]
    pub fn policies(&self) -> (Box<dyn ThresholdPolicy>, Box<dyn AttackPolicy>) {
        let baseline_quality = 1.0; // clean batches carry no excess tail mass
        let defender = self.scheme.defender(self.tth, baseline_quality, self.red);
        let adversary = self
            .adversary_override
            .clone()
            .unwrap_or_else(|| self.scheme.adversary(self.tth));
        (Box::new(defender), Box::new(adversary))
    }
}

/// Everything that happened in one scalar round, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// 1-based round number.
    pub round: usize,
    /// Percentile the collector trimmed at.
    pub threshold_percentile: f64,
    /// Values received (benign + poison).
    pub received: usize,
    /// Poison values received.
    pub poison_received: usize,
    /// Poison values that survived trimming.
    pub poison_survived: usize,
    /// Benign values that were (falsely) trimmed — the trimming overhead.
    pub benign_trimmed: usize,
    /// Retained values (benign + surviving poison), input order.
    pub kept: Vec<f64>,
    /// `Quality_Evaluation()` score of the received batch.
    pub quality: f64,
}

/// Result of a scalar game.
#[derive(Debug, Clone, PartialEq)]
pub struct GameResult {
    /// Per-round outcomes with provenance.
    pub outcomes: Vec<RoundOutcome>,
    /// All retained values across rounds.
    pub retained: Vec<f64>,
    /// Cumulative utility trajectories (percentile-damage proxy).
    pub utilities: UtilityTrajectory,
    /// Round at which Tit-for-tat triggered, if it did.
    pub termination_round: Option<usize>,
    /// The defender's threshold sequence actually applied.
    pub thresholds: Vec<f64>,
    /// The adversary's injection percentile sequence.
    pub injections: Vec<f64>,
}

impl GameResult {
    /// Fraction of retained values that are poison, aggregated over all
    /// rounds (Table III's metric).
    #[must_use]
    pub fn surviving_poison_fraction(&self) -> f64 {
        let kept: usize = self.outcomes.iter().map(|o| o.kept.len()).sum();
        let poison: usize = self.outcomes.iter().map(|o| o.poison_survived).sum();
        if kept == 0 {
            0.0
        } else {
            poison as f64 / kept as f64
        }
    }

    /// Aggregate benign trim fraction (overhead).
    #[must_use]
    pub fn benign_trim_fraction(&self) -> f64 {
        let benign: usize = self
            .outcomes
            .iter()
            .map(|o| o.received - o.poison_received)
            .sum();
        let trimmed: usize = self.outcomes.iter().map(|o| o.benign_trimmed).sum();
        if benign == 0 {
            0.0
        } else {
            trimmed as f64 / benign as f64
        }
    }
}

/// Reusable per-round buffers of the scalar round step: the benign
/// sample, the combined batch (benign first, then poison) and the trim
/// scratch. Cleared — never shrunk — between rounds and between runs.
#[derive(Debug, Clone, Default)]
pub struct ScalarBufs {
    benign: Vec<f64>,
    values: Vec<f64>,
    trim: TrimScratch,
}

/// Everything a scalar game run needs that depends only on the *pool*:
/// the stream pool, its sorted reference quantile table, and the
/// per-round buffers. Build one per worker and reuse it across any
/// number of seeded runs ([`run_game_with_scratch`]) — the pool copy and
/// the `O(n log n)` sort are paid once instead of per run.
#[derive(Debug, Clone)]
pub struct ScalarArena {
    pool: Vec<f64>,
    sorted_pool: Vec<f64>,
    bufs: ScalarBufs,
}

impl ScalarArena {
    /// Builds the arena over `pool`.
    ///
    /// # Panics
    /// Panics if the pool is empty or contains NaN.
    #[must_use]
    pub fn new(pool: &[f64]) -> Self {
        assert!(!pool.is_empty(), "empty value pool");
        let mut sorted_pool = pool.to_vec();
        sorted_pool.sort_by(|a, b| a.partial_cmp(b).expect("NaN in pool"));
        Self {
            pool: pool.to_vec(),
            sorted_pool,
            bufs: ScalarBufs::default(),
        }
    }

    /// The backing pool, in arrival order.
    #[must_use]
    pub fn pool(&self) -> &[f64] {
        &self.pool
    }

    /// The sorted reference quantile table.
    #[must_use]
    pub fn sorted_pool(&self) -> &[f64] {
        &self.sorted_pool
    }
}

/// The pool-independent parameters of one scalar game run.
#[derive(Debug, Clone, Copy)]
struct ScalarParams {
    attack_ratio: f64,
    ref_value: f64,
    expected_tail: f64,
    batch: usize,
}

impl ScalarParams {
    fn new(sorted_pool: &[f64], config: &GameConfig) -> Self {
        assert!(config.batch > 0, "batch size must be positive");
        // Quality standard: excess mass above the Tth reference value.
        let ref_value = percentile_sorted(
            sorted_pool,
            config.tth.clamp(0.0, 1.0),
            Interpolation::Linear,
        );
        Self {
            attack_ratio: config.attack_ratio,
            ref_value,
            expected_tail: 1.0 - config.tth,
            batch: config.batch,
        }
    }
}

/// One scalar round: benign sample (draws identical to
/// `RoundStream::next_round`), poison injection at the reference value
/// of the injection percentile, quality scoring, in-place trim at the
/// cut, payoff accounting. The kept values/mask are left in `bufs.trim`
/// for a recording scenario.
#[allow(clippy::too_many_arguments)]
fn scalar_round<R: Rng + ?Sized>(
    pool: &[f64],
    sorted_pool: &[f64],
    sketch: Option<&SketchThreshold>,
    params: &ScalarParams,
    bufs: &mut ScalarBufs,
    threshold: f64,
    injection: f64,
    rng: &mut R,
) -> RoundReport {
    let ref_at = |p: f64| percentile_sorted(sorted_pool, p.clamp(0.0, 1.0), Interpolation::Linear);
    bufs.benign.clear();
    bufs.benign.reserve(params.batch);
    for _ in 0..params.batch {
        bufs.benign.push(pool[rng.gen_range(0..pool.len())]);
    }
    let spec = PoisonSpec::new(
        params.attack_ratio,
        InjectionPosition::Value(ref_at(injection)),
    );
    spec.inject_into(&bufs.benign, rng, &mut bufs.values);
    let above = 1.0 - ecdf(&bufs.values, params.ref_value);
    let quality = 1.0 - (above - params.expected_tail).max(0.0);
    // The defender's cut value: the GK sketch answer when the
    // sketch-native mode is on, the exact reference quantile otherwise.
    let cut = match sketch {
        Some(source) => source
            .cut(threshold.clamp(0.0, 1.0))
            .expect("sketch observed the pool at construction"),
        None => ref_at(threshold),
    };
    let trimmed = bufs.trim.cut(&bufs.values, cut);

    let (poison_received, poison_survived, benign_trimmed) =
        provenance_counts(bufs.trim.kept_mask(), bufs.benign.len());

    // Percentile-damage utility proxy.
    let batch_len = bufs.values.len().max(1);
    let g_a = poison_survived as f64 / batch_len as f64 * injection.clamp(0.0, 1.0);
    let overhead = benign_trimmed as f64 / batch_len as f64;

    let mut retained_stats = OnlineStats::new();
    retained_stats.extend(bufs.trim.kept());

    RoundReport {
        quality,
        received: bufs.values.len(),
        trimmed,
        poison_received,
        poison_survived,
        benign_trimmed,
        gain_adversary: g_a,
        overhead,
        observed_injection: Some(injection),
        threshold_value: Some(cut),
        retained: retained_stats,
    }
}

/// Builds the GK sketch threshold source when the sketch-native mode is
/// requested.
fn sketch_source(pool: &[f64], config: &GameConfig) -> Option<SketchThreshold> {
    config.sketch_epsilon.map(|eps| {
        let mut source = SketchThreshold::new(eps);
        source.observe(pool);
        source
    })
}

/// The scalar value-stream workload as an
/// [`engine::Scenario`](crate::engine::Scenario).
///
/// Positions — the defender's threshold and the adversary's injection —
/// live in *reference percentile space*: the clean pool's quantile
/// function maps them to values. This is the paper's abstract game
/// `(x_c, x_a) ∈ [x_L, x_R]²` made concrete, and it is also what a real
/// collector does: the trimming threshold comes from the publicly
/// recognized quality standard (clean history), not from the current,
/// possibly contaminated batch — otherwise a colluding point mass could
/// drag the batch percentile onto itself and ride out any cut.
///
/// The scenario owns its [`ScalarArena`] by default; sweeps and payoff
/// grids that play many runs per pool lend it a worker's arena
/// (`A = &mut ScalarArena`) through [`run_game_with_scratch`] instead.
#[derive(Debug, Clone)]
pub struct ScalarScenario<A = ScalarArena> {
    arena: A,
    params: ScalarParams,
    record_kept: bool,
    /// GK summary of the clean pool when `GameConfig::sketch_epsilon` is
    /// set: the defender's cut resolves from it instead of the exact
    /// quantile table.
    sketch: Option<SketchThreshold>,
    /// Per-round outcomes with provenance (empty in lean mode).
    pub outcomes: Vec<RoundOutcome>,
    /// All retained values across rounds (empty in lean mode).
    pub retained: Vec<f64>,
}

impl ScalarScenario {
    /// Builds the scenario over `pool` with full per-round recording.
    ///
    /// # Panics
    /// Panics if the pool is empty or contains NaN.
    #[must_use]
    pub fn new(pool: &[f64], config: &GameConfig) -> Self {
        Self::over(ScalarArena::new(pool), config, true)
    }

    /// Builds the scenario without retaining per-round kept values — the
    /// lean mode for large sweeps, where only the engine's aggregate
    /// totals and utility trajectories are needed.
    ///
    /// # Panics
    /// Panics if the pool is empty or contains NaN.
    #[must_use]
    pub fn lean(pool: &[f64], config: &GameConfig) -> Self {
        Self::over(ScalarArena::new(pool), config, false)
    }
}

impl<A: BorrowMut<ScalarArena>> ScalarScenario<A> {
    fn over(arena: A, config: &GameConfig, record_kept: bool) -> Self {
        let ScalarArena {
            pool, sorted_pool, ..
        } = arena.borrow();
        let params = ScalarParams::new(sorted_pool, config);
        let sketch = sketch_source(pool, config);
        Self {
            arena,
            params,
            record_kept,
            sketch,
            outcomes: Vec::new(),
            retained: Vec::new(),
        }
    }
}

impl<A: BorrowMut<ScalarArena>> Scenario for ScalarScenario<A> {
    fn play_round<R: Rng + ?Sized>(
        &mut self,
        round: usize,
        threshold: f64,
        injection: f64,
        rng: &mut R,
    ) -> RoundReport {
        let ScalarArena {
            pool,
            sorted_pool,
            bufs,
        } = self.arena.borrow_mut();
        let report = scalar_round(
            pool,
            sorted_pool,
            self.sketch.as_ref(),
            &self.params,
            bufs,
            threshold,
            injection,
            rng,
        );
        if self.record_kept {
            self.retained.extend_from_slice(bufs.trim.kept());
            self.outcomes.push(RoundOutcome {
                round,
                threshold_percentile: threshold,
                received: report.received,
                poison_received: report.poison_received,
                poison_survived: report.poison_survived,
                benign_trimmed: report.benign_trimmed,
                kept: bufs.trim.kept().to_vec(),
                quality: report.quality,
            });
        }
        report
    }
}

/// The stream index the scalar game derives its defender policy sub-seed
/// from: `policy_seed = derive_seed(config.seed, POLICY_SEED_STREAM)`.
/// Deterministic policies never read the sub-stream, so this only matters
/// for randomized defenders — it gives them seed-varying draws across
/// repetitions while keeping every pre-existing fixed-seed trajectory
/// bit-identical.
pub const POLICY_SEED_STREAM: u64 = 0x504F_4C49_4359; // "POLICY"

/// The allocation-free scalar run: one seeded game with arbitrary boxed
/// policies over the worker-owned [`ScalarArena`] (pool tables + round
/// buffers, built once per worker) recording into the reusable
/// [`EngineScratch`] — the payoff-grid cell path of the equilibrium
/// estimator, and the entry point for
/// [`crate::strategy::RandomizedDefender`],
/// [`crate::adversary::AdaptiveAttacker`] and downstream custom
/// strategies (pass [`GameConfig::policies`] for the scheme's own pair).
/// Pass `board` to post every round's record to a
/// [`RangedBoard`](trimgame_stream::board::RangedBoard) the attacker
/// already holds a clone of. The defender sub-stream is seeded from
/// `config.seed` via [`POLICY_SEED_STREAM`].
///
/// # Panics
/// Panics if the configuration is degenerate.
#[must_use]
pub fn run_game_with_scratch(
    config: &GameConfig,
    defender: Box<dyn ThresholdPolicy>,
    adversary: Box<dyn AttackPolicy>,
    board: Option<trimgame_stream::board::RangedBoard>,
    arena: &mut ScalarArena,
    scratch: &mut EngineScratch,
) -> EngineRun {
    let scenario = ScalarScenario::over(arena, config, false);
    EngineStepper::with_policy_seed(scenario, defender, adversary, policy_seed(config.seed)).run(
        config.rounds,
        &mut seeded_rng(config.seed),
        scratch,
        board.as_ref(),
    )
}

/// The defender policy sub-stream seed of a game seeded with `seed`.
pub(crate) fn policy_seed(seed: u64) -> u64 {
    trimgame_numerics::rand_ext::derive_seed(seed, POLICY_SEED_STREAM)
}

/// Runs one scalar collection game over `pool` (see [`ScalarScenario`]
/// for the game's concrete position semantics) with the scheme's roster
/// policies ([`GameConfig::policies`]), recording every round.
///
/// # Panics
/// Panics if the pool is empty or the configuration is degenerate.
#[must_use]
pub fn run_game(pool: &[f64], config: &GameConfig) -> GameResult {
    let (defender, adversary) = config.policies();
    let scenario = ScalarScenario::new(pool, config);
    let mut stepper =
        EngineStepper::with_policy_seed(scenario, defender, adversary, policy_seed(config.seed));
    let mut scratch = EngineScratch::new();
    let run = stepper.run(
        config.rounds,
        &mut seeded_rng(config.seed),
        &mut scratch,
        None,
    );
    let (_, scenario, _, _) = stepper.into_parts();
    GameResult {
        outcomes: scenario.outcomes,
        retained: scenario.retained,
        utilities: scratch.utilities(),
        termination_round: run.termination_round,
        thresholds: scratch.thresholds().to_vec(),
        injections: scratch.injections().to_vec(),
    }
}

/// One row of the Table III study at mix probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// The adversary's probability of the 99th-percentile position.
    pub p: f64,
    /// Average Tit-for-tat termination round (sentinel `rounds + 5` when
    /// no termination occurred, matching the paper's 25 at `Round_no=20`).
    pub avg_termination: f64,
    /// Surviving poison fraction of retained data under Tit-for-tat.
    pub titfortat_fraction: f64,
    /// Surviving poison fraction under Elastic.
    pub elastic_fraction: f64,
}

/// The §VI-D non-equilibrium protocol (Table III): the adversary mixes a
/// defecting position — the 99th percentile — with probability `p` against
/// an evasive (equilibrium) position just below the responsive cut with
/// probability `1 − p`; Tit-for-tat trims softly at `Tth + 1%` until the
/// estimated poison share of the reference tail exceeds `1 − p + 0.05` (a
/// 5% redundancy), then permanently shifts to the `Tth` percentile;
/// Elastic runs the coupled rule with `k`.
///
/// All positions are reference-percentile positions. The paper places the
/// evasive mass "at the 90th percentile"; under batch-percentile trimming
/// a point mass at the threshold percentile rides the cut and survives,
/// so in reference space the operationally equivalent evasive position is
/// just *below* the responsive cut (`Tth − 2%`). Batches are small
/// (Control-scale: 30 rows/round), which is what gives the paper's
/// trigger statistics their variance.
///
/// # Panics
/// Panics on an empty pool or `reps == 0`.
#[must_use]
pub fn run_table3_point(pool: &[f64], p: f64, k: f64, reps: usize, master_seed: u64) -> Table3Row {
    assert!(!pool.is_empty(), "empty value pool");
    assert!(reps > 0, "need at least one repetition");
    let tth = 0.9;
    let rounds = 20;
    let batch = 30;
    let ratio = 0.2;
    let lo_position = tth - 0.02;
    let sentinel = (rounds + 5) as f64;

    let mut sorted_pool = pool.to_vec();
    sorted_pool.sort_by(|a, b| a.partial_cmp(b).expect("NaN in pool"));
    let ref_at = |q: f64| {
        trimgame_numerics::quantile::percentile_sorted(
            &sorted_pool,
            q.clamp(0.0, 1.0),
            Interpolation::Linear,
        )
    };
    let ref_value = ref_at(tth);
    let expected_tail = 1.0 - tth;

    let mut term_total = 0.0;
    let mut tft_fraction_total = 0.0;
    let mut ela_fraction_total = 0.0;

    let mut scratch = TrimScratch::new();
    for rep in 0..reps {
        let seed = trimgame_numerics::rand_ext::derive_seed(master_seed, rep as u64);
        let mut rng = seeded_rng(seed);
        let mut stream = RoundStream::new(pool.to_vec(), batch);

        // Pre-draw the adversary's per-round positions so Tit-for-tat and
        // Elastic face the *same* attack sequence.
        let positions: Vec<f64> = (0..rounds)
            .map(|_| {
                if rng.gen::<f64>() < p {
                    0.99
                } else {
                    lo_position
                }
            })
            .collect();
        let benign_rounds: Vec<Vec<f64>> =
            (0..rounds).map(|_| stream.next_round(&mut rng)).collect();

        // --- Tit-for-tat ---
        let mut triggered: Option<usize> = None;
        let mut tft_kept = 0usize;
        let mut tft_poison = 0usize;
        for (i, benign) in benign_rounds.iter().enumerate() {
            let threshold = if triggered.is_some() { tth } else { tth + 0.01 };
            let spec = PoisonSpec::new(ratio, InjectionPosition::Value(ref_at(positions[i])));
            let batch_v = spec.inject(benign, &mut rng);
            let _ = scratch.cut(&batch_v.values, ref_at(threshold));
            for (&is_p, &kept) in batch_v.is_poison.iter().zip(scratch.kept_mask()) {
                if kept {
                    tft_kept += 1;
                    if is_p {
                        tft_poison += 1;
                    }
                }
            }
            // Estimated poison share of the reference tail.
            let above = 1.0 - ecdf(&batch_v.values, ref_value);
            let excess = (above - expected_tail).max(0.0);
            let share = if above > 0.0 { excess / above } else { 0.0 };
            if triggered.is_none() && share > (1.0 - p) + 0.05 {
                triggered = Some(i + 1);
            }
        }
        term_total += triggered.map_or(sentinel, |r| r as f64);
        tft_fraction_total += if tft_kept > 0 {
            tft_poison as f64 / tft_kept as f64
        } else {
            0.0
        };

        // --- Elastic (coupled rule, same attack sequence) ---
        let dynamics = crate::elastic::CoupledDynamics::new(tth, k).expect("valid k");
        let mut ela_threshold = dynamics.initial().trim;
        let mut ela_kept = 0usize;
        let mut ela_poison = 0usize;
        for (i, benign) in benign_rounds.iter().enumerate() {
            let spec = PoisonSpec::new(ratio, InjectionPosition::Value(ref_at(positions[i])));
            let batch_v = spec.inject(benign, &mut rng);
            let _ = scratch.cut(&batch_v.values, ref_at(ela_threshold));
            for (&is_p, &kept) in batch_v.is_poison.iter().zip(scratch.kept_mask()) {
                if kept {
                    ela_kept += 1;
                    if is_p {
                        ela_poison += 1;
                    }
                }
            }
            // Coupled response to the observed injection position.
            ela_threshold = tth + k * (positions[i] - tth - 0.01);
        }
        ela_fraction_total += if ela_kept > 0 {
            ela_poison as f64 / ela_kept as f64
        } else {
            0.0
        };
    }

    Table3Row {
        p,
        avg_termination: term_total / reps as f64,
        titfortat_fraction: tft_fraction_total / reps as f64,
        elastic_fraction: ela_fraction_total / reps as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<f64> {
        (0..10_000).map(|i| (i % 1000) as f64 / 10.0).collect()
    }

    /// One lean run on a fresh arena and scratch.
    fn lean_run(
        pool: &[f64],
        cfg: &GameConfig,
        defender: Box<dyn ThresholdPolicy>,
        adversary: Box<dyn AttackPolicy>,
        board: Option<trimgame_stream::board::RangedBoard>,
    ) -> (EngineRun, EngineScratch) {
        let mut scratch = EngineScratch::new();
        let mut arena = ScalarArena::new(pool);
        let run = run_game_with_scratch(cfg, defender, adversary, board, &mut arena, &mut scratch);
        (run, scratch)
    }

    /// One lean run with the scheme's roster policies.
    fn run_roster(pool: &[f64], cfg: &GameConfig) -> (EngineRun, EngineScratch) {
        let (defender, adversary) = cfg.policies();
        lean_run(pool, cfg, defender, adversary, None)
    }

    #[test]
    fn roster_matches_legend() {
        let names: Vec<_> = Scheme::roster().iter().map(Scheme::name).collect();
        assert_eq!(
            names,
            vec![
                "Ostrich",
                "Baseline0.9",
                "Baselinestatic",
                "Titfortat",
                "Elastic0.1",
                "Elastic0.5"
            ]
        );
    }

    #[test]
    fn ostrich_keeps_all_poison() {
        let cfg = GameConfig::new(Scheme::Ostrich);
        let result = run_game(&pool(), &cfg);
        for o in &result.outcomes {
            assert_eq!(o.poison_survived, o.poison_received);
            assert_eq!(o.benign_trimmed, 0);
        }
        assert!(result.surviving_poison_fraction() > 0.15);
    }

    #[test]
    fn baseline_static_adversary_evades() {
        let cfg = GameConfig::new(Scheme::BaselineStatic);
        let result = run_game(&pool(), &cfg);
        // The ideal attacker at Tth − 1% keeps nearly all poison in play.
        assert!(
            result.surviving_poison_fraction() > 0.12,
            "fraction {}",
            result.surviving_poison_fraction()
        );
        // But the collector also pays overhead (benign tail above Tth).
        assert!(result.benign_trim_fraction() > 0.05);
    }

    #[test]
    fn elastic_drives_poison_low() {
        let cfg = GameConfig::new(Scheme::Elastic(0.5));
        let result = run_game(&pool(), &cfg);
        // The coupled dynamics converge: injections approach Tth - 4.33%.
        let last = *result.injections.last().unwrap();
        assert!(
            (last - (0.9 - 0.04333)).abs() < 0.01,
            "last injection {last}"
        );
        // Poison survives but at a low, harmless percentile.
        assert!(result.surviving_poison_fraction() > 0.0);
    }

    #[test]
    fn titfortat_triggers_under_heavy_attack() {
        let mut cfg = GameConfig::new(Scheme::TitForTat);
        // Mixed attacker defecting to the 99th percentile at high rate.
        cfg.adversary_override = Some(AdversaryPolicy::Mixed {
            p: 0.0,
            hi: 0.99,
            lo: 0.99,
        });
        cfg.attack_ratio = 0.4;
        cfg.red = 0.02;
        let result = run_game(&pool(), &cfg);
        assert!(
            result.termination_round.is_some(),
            "heavy defection should trigger"
        );
        // After the trigger, the threshold is the hard one.
        let trigger = result.termination_round.unwrap();
        for o in result.outcomes.iter().skip(trigger) {
            assert!((o.threshold_percentile - 0.87).abs() < 1e-9);
        }
    }

    #[test]
    fn titfortat_stays_soft_against_compliance() {
        let cfg = GameConfig::new(Scheme::TitForTat);
        let result = run_game(&pool(), &cfg);
        assert_eq!(result.termination_round, None);
        for o in &result.outcomes {
            assert!((o.threshold_percentile - 0.91).abs() < 1e-9);
        }
    }

    #[test]
    fn utilities_track_rounds() {
        let cfg = GameConfig::new(Scheme::Baseline09);
        let result = run_game(&pool(), &cfg);
        assert_eq!(result.utilities.rounds(), cfg.rounds);
        // Adversary utility is non-decreasing (gains are non-negative).
        let ua = &result.utilities.u_a;
        for w in ua.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        // Collector utility is non-increasing.
        let uc = &result.utilities.u_c;
        for w in uc.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = GameConfig::new(Scheme::Elastic(0.1));
        let a = run_game(&pool(), &cfg);
        let b = run_game(&pool(), &cfg);
        assert_eq!(a.retained, b.retained);
        assert_eq!(a.thresholds, b.thresholds);
    }

    #[test]
    fn lean_engine_run_matches_recording_run() {
        // The sweep's lean mode must produce the same trajectories and
        // aggregate counts as the full recording mode, just without the
        // per-round kept payloads.
        let cfg = GameConfig::new(Scheme::Elastic(0.5));
        let full = run_game(&pool(), &cfg);
        let (d, a) = cfg.policies();
        let mut stepper = EngineStepper::with_policy_seed(
            ScalarScenario::lean(&pool(), &cfg),
            d,
            a,
            policy_seed(cfg.seed),
        );
        let mut lean = EngineScratch::new();
        let run = stepper.run(cfg.rounds, &mut seeded_rng(cfg.seed), &mut lean, None);
        let (_, scenario, _, _) = stepper.into_parts();
        assert_eq!(full.thresholds, lean.thresholds());
        assert_eq!(full.injections, lean.injections());
        assert_eq!(full.utilities.u_a, lean.utilities().u_a);
        assert_eq!(full.utilities.u_c, lean.utilities().u_c);
        assert_eq!(full.termination_round, run.termination_round);
        assert!(scenario.outcomes.is_empty());
        assert!(scenario.retained.is_empty());
        // The owned lean scenario and the borrowed arena agree...
        assert_eq!(run, run_roster(&pool(), &cfg).0);
        // ...and the totals agree with the GameResult-level metrics.
        assert!(
            (run.totals.surviving_poison_fraction() - full.surviving_poison_fraction()).abs()
                < 1e-12
        );
        assert!((run.totals.benign_trim_fraction() - full.benign_trim_fraction()).abs() < 1e-12);
    }

    #[test]
    fn scratch_cells_replay_the_boxed_path_bit_for_bit() {
        // One arena + one engine scratch across many heterogeneous cells:
        // every cell must reproduce a run on a fresh arena and scratch
        // exactly, with no state leaking between consecutive runs.
        let pool = pool();
        let mut arena = ScalarArena::new(&pool);
        let mut scratch = EngineScratch::new();
        // The sketch rows build the GK cut source from the borrowed
        // arena's pool; the exact rows between them must not see it.
        for (tth, seed, rounds, sketch_epsilon) in [
            (0.88, 1u64, 6, None),
            (0.92, 2, 9, None),
            (0.92, 2, 9, Some(0.02)),
            (0.88, 1, 6, None),
            (0.96, 3, 4, Some(0.05)),
        ] {
            let mut cfg = GameConfig::new(Scheme::BaselineStatic);
            cfg.tth = tth;
            cfg.seed = seed;
            cfg.rounds = rounds;
            cfg.batch = 300;
            cfg.sketch_epsilon = sketch_epsilon;
            let policies = || {
                (
                    Box::new(DefenderPolicy::Fixed { tth }) as Box<dyn ThresholdPolicy>,
                    Box::new(AdversaryPolicy::Uniform {
                        lo: tth - 0.05,
                        hi: 1.0,
                    }) as Box<dyn AttackPolicy>,
                )
            };
            let (d, a) = policies();
            let (owned, fresh) = lean_run(&pool, &cfg, d, a, None);
            let (d, a) = policies();
            let lean = run_game_with_scratch(&cfg, d, a, None, &mut arena, &mut scratch);
            assert_eq!(
                lean.totals, owned.totals,
                "tth={tth} seed={seed} sketch={sketch_epsilon:?}"
            );
            assert_eq!(Some(&lean.final_u_a), fresh.utilities().u_a.last());
            assert_eq!(Some(&lean.final_u_c), fresh.utilities().u_c.last());
            assert_eq!(lean.termination_round, owned.termination_round);
            assert_eq!(scratch.thresholds(), fresh.thresholds());
            assert_eq!(scratch.injections(), fresh.injections());
        }
    }

    #[test]
    fn boxed_policies_replay_the_enum_path_exactly() {
        // Spelling the scheme's enum policies out by hand must reproduce
        // the `GameConfig::policies` roster run bit-for-bit (the shim
        // contract).
        let cfg = GameConfig::new(Scheme::BaselineStatic);
        let via_enum = run_roster(&pool(), &cfg);
        let via_boxed = lean_run(
            &pool(),
            &cfg,
            Box::new(DefenderPolicy::Fixed { tth: cfg.tth }),
            Box::new(cfg.scheme.adversary(cfg.tth)),
            None,
        );
        assert_eq!(via_enum.1.thresholds(), via_boxed.1.thresholds());
        assert_eq!(via_enum.1.injections(), via_boxed.1.injections());
        assert_eq!(via_enum.1.utilities().u_a, via_boxed.1.utilities().u_a);
        assert_eq!(via_enum.0.totals, via_boxed.0.totals);
    }

    #[test]
    fn randomized_defender_plays_adaptive_attacker() {
        use crate::adversary::AdaptiveAttacker;
        use crate::strategy::RandomizedDefender;
        use trimgame_stream::board::RangedBoard;
        let mut cfg = GameConfig::new(Scheme::BaselineStatic);
        cfg.rounds = 30;
        let run_once = || {
            let board = RangedBoard::unbounded();
            let attacker = AdaptiveAttacker::new(board.clone(), 0.01, 0.99);
            let defender = RandomizedDefender::new(&[0.86, 0.94], &[0.5, 0.5]).unwrap();
            lean_run(
                &pool(),
                &cfg,
                Box::new(defender),
                Box::new(attacker),
                Some(board),
            )
            .1
        };
        let out = run_once();
        // The defender mixed over its atoms...
        assert!(out.thresholds().iter().all(|&t| t == 0.86 || t == 0.94));
        assert!(out.thresholds().contains(&0.86));
        assert!(out.thresholds().contains(&0.94));
        // ...and the attacker converged onto best responses just below the
        // discovered atoms (after the fallback opener).
        for &inj in &out.injections()[1..] {
            assert!(
                (inj - 0.85).abs() < 1e-9 || (inj - 0.93).abs() < 1e-9,
                "injection {inj}"
            );
        }
        // Deterministic replay under the same config seed.
        let again = run_once();
        assert_eq!(out.thresholds(), again.thresholds());
        assert_eq!(out.injections(), again.injections());
    }

    #[test]
    fn sketch_threshold_source_bounds_extra_evasion_by_epsilon() {
        // Sketch-native scenario wiring: with the cut resolved from a GK
        // summary (rank error <= eps) the adversary gains *at most* eps of
        // extra evasion headroom above the threshold percentile — and the
        // exact path grants none. Quantified by scanning attacker
        // positions upward from the threshold: a position survives iff its
        // exact reference value sits at or below the (sketch) cut.
        let pool = pool();
        let tth = 0.9;
        let eps = 0.02;
        let margin_of = |sketch_epsilon: Option<f64>| -> f64 {
            let mut extra: f64 = 0.0;
            let mut a = tth;
            while a <= tth + 2.5 * eps {
                let mut cfg = GameConfig::new(Scheme::BaselineStatic);
                cfg.rounds = 1;
                cfg.batch = 500;
                cfg.sketch_epsilon = sketch_epsilon;
                cfg.adversary_override = Some(AdversaryPolicy::Fixed { percentile: a });
                let (out, _) = run_roster(&pool, &cfg);
                if out.totals.poison_survived == out.totals.poison_received {
                    extra = extra.max(a - tth);
                }
                a += eps / 8.0;
            }
            extra
        };
        let exact_margin = margin_of(None);
        let sketch_margin = margin_of(Some(eps));
        // Exact cuts concede nothing beyond interpolation slack (one pool
        // grid step on a 1000-point reference is 1e-3).
        assert!(exact_margin <= 2e-3, "exact margin {exact_margin}");
        // The sketch concedes at most its certified rank-error band.
        assert!(
            sketch_margin <= eps + 2e-3,
            "sketch margin {sketch_margin} exceeds eps {eps}"
        );
        // And the sketch path is deterministic: same run, same totals.
        let mut cfg = GameConfig::new(Scheme::BaselineStatic);
        cfg.sketch_epsilon = Some(eps);
        let a = run_roster(&pool, &cfg).0.totals;
        let b = run_roster(&pool, &cfg).0.totals;
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_adversary_override_is_used() {
        let mut cfg = GameConfig::new(Scheme::TitForTat);
        cfg.adversary_override = Some(AdversaryPolicy::Mixed {
            p: 1.0,
            hi: 0.99,
            lo: 0.90,
        });
        let result = run_game(&pool(), &cfg);
        for &inj in &result.injections {
            assert_eq!(inj, 0.99);
        }
    }

    #[test]
    fn scalar_round_benign_draws_match_round_stream() {
        // The engine's scalar round and Table III's `RoundStream` must
        // draw the same benign batch from the same seed. The pool is a
        // permutation of 10,000 distinct values, so a draw from the
        // sorted table or at a shifted index would show.
        let pool: Vec<f64> = (0..10_000).map(|i| ((i * 7919) % 10_000) as f64).collect();
        let mut sorted = pool.clone();
        sorted.sort_by(f64::total_cmp);
        for batch in [1, 16, 1000] {
            let cfg = GameConfig {
                batch,
                ..GameConfig::new(Scheme::BaselineStatic)
            };
            let params = ScalarParams::new(&sorted, &cfg);
            let mut bufs = ScalarBufs::default();
            for seed in 1..=50 {
                let mut rng = seeded_rng(seed);
                scalar_round(
                    &pool, &sorted, None, &params, &mut bufs, 0.9, 0.95, &mut rng,
                );
                let expected =
                    RoundStream::new(pool.clone(), batch).next_round(&mut seeded_rng(seed));
                assert!(bufs.benign == expected, "seed {seed}, batch {batch}");
            }
        }
    }
}
