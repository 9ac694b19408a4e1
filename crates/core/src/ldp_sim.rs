//! The LDP case study (Section V / Fig. 9): game-theoretic trimming under
//! a non-deterministic utility, versus the EMF baseline.
//!
//! Honest users privatize their Taxi values with the Piecewise Mechanism;
//! input-manipulation attackers (the strong evasion of Cheu et al.) hold a
//! counterfeit input of `+1` and follow the protocol, so their reports are
//! *distributed exactly like honest reports of 1.0* — undetectable
//! pointwise. Defenses operate on the report stream:
//!
//! * **Tit-for-tat** (Algorithm 1): soft upper-percentile trim; permanent
//!   hard trim once the tail-mass quality dips below the calibrated
//!   baseline minus the redundancy `Red`. The LDP noise is exactly the
//!   non-deterministic utility that makes the redundancy necessary
//!   (Theorem 3).
//! * **Elastic** (Algorithm 2): threshold interpolates between soft and
//!   hard as the normalized quality degrades, intensity `k`.
//! * **EMF**: no trimming; EM mixture filtering of the aggregate.
//!
//! The estimate is the *debiased* trimmed mean: trimming the upper tail of
//! an unbiased report stream biases the mean down, but the collector knows
//! the mechanism and its own cut, so it corrects each round's mean by the
//! trim bias measured on the clean calibration distribution. What remains
//! is the surviving attack mass below the cut plus the extra variance of
//! trimming under heavy noise — the overhead that produces the paper's
//! inflection at small ε.

use crate::adversary::AdversaryPolicy;
use crate::engine::{
    provenance_counts, EngineRun, EngineScratch, EngineStepper, RoundReport, Scenario,
};
use crate::simulation::policy_seed;
use crate::strategy::{DefenderPolicy, ThresholdPolicy};
use crate::titfortat::TitForTat;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::{BorrowMut, Cow};
use trimgame_ldp::attack::{Attack, InputManipulation};
use trimgame_ldp::emf::EmFilter;
use trimgame_ldp::mechanism::LdpMechanism;
use trimgame_ldp::piecewise::Piecewise;
use trimgame_numerics::quantile::{ecdf, Interpolation};
use trimgame_numerics::rand_ext::{derive_seed, seeded_rng};
use trimgame_numerics::stats::{mean, OnlineStats};
use trimgame_stream::trim::{SketchThreshold, TrimScratch};

/// The Fig. 9 defense roster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LdpDefense {
    /// Algorithm 1 (rigid trigger with redundancy).
    TitForTat,
    /// Algorithm 2 with response intensity `k`.
    Elastic(f64),
    /// The EM filter baseline (no trimming).
    Emf,
}

impl LdpDefense {
    /// Fig. 9's legend order.
    #[must_use]
    pub fn roster() -> Vec<LdpDefense> {
        vec![
            LdpDefense::TitForTat,
            LdpDefense::Elastic(0.1),
            LdpDefense::Elastic(0.5),
            LdpDefense::Emf,
        ]
    }

    /// Legend name. Only `Elastic` allocates (its name embeds `k`).
    #[must_use]
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            LdpDefense::TitForTat => Cow::Borrowed("Titfortat"),
            LdpDefense::Elastic(k) => Cow::Owned(format!("Elastic{k}")),
            LdpDefense::Emf => Cow::Borrowed("EMF"),
        }
    }
}

/// Configuration of one Fig. 9 cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdpSimConfig {
    /// Privacy budget ε.
    pub epsilon: f64,
    /// Attack ratio (attackers per honest user).
    pub attack_ratio: f64,
    /// Honest users per round.
    pub users_per_round: usize,
    /// Collection rounds.
    pub rounds: usize,
    /// Soft trimming percentile `T̄` on the report stream.
    pub soft: f64,
    /// Hard trimming percentile `T`.
    pub hard: f64,
    /// Tit-for-tat redundancy on the quality scale.
    pub red: f64,
    /// Master seed.
    pub seed: u64,
    /// Rank error of the memory-bounded threshold source. `Some(ε)`
    /// resolves trimming cuts from a GK sketch of the calibration report
    /// stream instead of the exact sorted table — the sketch-native game
    /// on the report stream. `None` keeps the exact cut. (Distinct from
    /// the privacy budget `epsilon`.)
    pub sketch_epsilon: Option<f64>,
}

impl LdpSimConfig {
    /// Defaults matching the Fig. 9 regime.
    #[must_use]
    pub fn new(epsilon: f64, attack_ratio: f64, seed: u64) -> Self {
        Self {
            epsilon,
            attack_ratio,
            users_per_round: 2_000,
            rounds: 10,
            soft: 0.95,
            hard: 0.85,
            red: 0.03,
            seed,
            sketch_epsilon: None,
        }
    }
}

/// Reusable buffers of the LDP game: the sorted calibration stream and
/// its prefix sums (refilled per run — their *contents* are seeded), the
/// round's report buffer and the trim scratch.
#[derive(Debug, Clone, Default)]
pub struct LdpBufs {
    calib: Vec<f64>,
    prefix: Vec<f64>,
    reports: Vec<f64>,
    trim: TrimScratch,
    /// The memory-bounded threshold source of the sketch-native game: a
    /// GK sketch fed the calibration stream (batched) by
    /// [`ldp_calibrate`] when the run asks for one.
    sketch: Option<SketchThreshold>,
}

/// A worker's reusable LDP game state. Unlike the scalar/ML arenas there
/// is no shareable model — the calibration stream is part of each run's
/// seeded randomness — but the buffers (calibration table, prefix sums,
/// per-round reports, trim scratch) are recycled across runs via
/// [`run_ldp_collection_with_scratch`], and the sketch-native game
/// additionally memoizes whole calibrations across the payoff grid's
/// cells (see `CalibEntry`).
#[derive(Debug, Clone, Default)]
pub struct LdpArena {
    bufs: LdpBufs,
    calib_cache: Vec<CalibEntry>,
}

/// One memoized calibration round of the sketch-native payoff grid:
/// everything [`ldp_calibrate`] derives from the seeded stream — the
/// sorted table, its prefix sums, the GK sketch, the stream mean — plus
/// the main-stream RNG state right after the calibration draws, so a
/// cache hit replays the rest of the run bit-for-bit.
#[derive(Debug, Clone)]
struct CalibEntry {
    key: u64,
    calib: Vec<f64>,
    prefix: Vec<f64>,
    sketch: Option<SketchThreshold>,
    calib_mean: f64,
    rng_after: StdRng,
}

/// Calibration cache capacity per worker arena: comfortably above the
/// per-cell seed counts the equilibrium grids use (the key varies only
/// with the repetition seed across a grid, so this keeps every seed's
/// calibration resident).
const CALIB_CACHE_CAP: usize = 16;

/// Stream tag of the calibration fingerprint chain.
const CALIB_KEY_STREAM: u64 = 0x4C43_4142; // "LCAB"

impl LdpArena {
    /// Creates empty buffers (they grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The per-run parameters of one LDP game.
#[derive(Debug, Clone, Copy)]
struct LdpParams {
    users_per_round: usize,
    n_attack: usize,
    calib_mean: f64,
    ref_value: f64,
    expected_tail: f64,
    trims: bool,
}

/// Runs the clean calibration round into `calib`/`prefix` (the collector
/// knows the honest report distribution shape: the mechanism is public
/// and the input prior comes from history) and computes the derived
/// per-run parameters. Draws are identical for the owned and the
/// arena-backed path.
fn ldp_calibrate<R: Rng + ?Sized>(
    population: &[f64],
    mech: &Piecewise,
    defense: LdpDefense,
    cfg: &LdpSimConfig,
    bufs: &mut LdpBufs,
    rng: &mut R,
) -> LdpParams {
    assert!(!population.is_empty(), "empty population");
    assert!(
        cfg.rounds > 0 && cfg.users_per_round > 0,
        "degenerate config"
    );
    bufs.calib.clear();
    bufs.calib.extend((0..cfg.users_per_round).map(|i| {
        let x = population[i % population.len()];
        mech.privatize(x, rng)
    }));
    bufs.calib
        .sort_by(|a, b| a.partial_cmp(b).expect("NaN report"));
    // Prefix sums over the sorted calibration stream: `trim_bias(cut)`
    // is how far the mean of an honest stream drops when values above
    // `cut` are removed — the collector adds it back after trimming.
    bufs.prefix.clear();
    bufs.prefix.extend(bufs.calib.iter().scan(0.0, |acc, &v| {
        *acc += v;
        Some(*acc)
    }));
    let calib_mean = mean(&bufs.calib);
    let ref_value = trimgame_numerics::quantile::percentile_sorted(
        &bufs.calib,
        cfg.soft.clamp(0.0, 1.0),
        Interpolation::Linear,
    );
    bufs.sketch = cfg.sketch_epsilon.map(|e| {
        let mut s = SketchThreshold::new(e);
        s.observe(&bufs.calib);
        s
    });
    LdpParams {
        users_per_round: cfg.users_per_round,
        n_attack: (cfg.users_per_round as f64 * cfg.attack_ratio).round() as usize,
        calib_mean,
        ref_value,
        expected_tail: 1.0 - cfg.soft,
        trims: !matches!(defense, LdpDefense::Emf),
    }
}

/// Fingerprint of everything the calibration round's *content* depends
/// on: the master seed (the draws), the privacy budget (the mechanism),
/// the stream length, the sketch rank error, and the exact population
/// prefix the round reads (`population[i % len]` for the first
/// `users_per_round` indices — cycling revisits the same elements). The
/// cell's thresholds (`soft`/`hard`), redundancy, attack ratio and
/// defense deliberately stay out: they never touch the calibration draws,
/// so cells across a payoff grid share entries.
fn calib_fingerprint(population: &[f64], cfg: &LdpSimConfig) -> u64 {
    let mut key = derive_seed(cfg.seed, CALIB_KEY_STREAM);
    key = derive_seed(key, cfg.epsilon.to_bits());
    key = derive_seed(key, cfg.users_per_round as u64);
    key = derive_seed(
        key,
        match cfg.sketch_epsilon {
            Some(e) => e.to_bits(),
            None => u64::MAX,
        },
    );
    key = derive_seed(key, population.len() as u64);
    for &x in &population[..cfg.users_per_round.min(population.len())] {
        key = derive_seed(key, x.to_bits());
    }
    key
}

/// [`ldp_calibrate`] with per-worker memoization — the payoff-grid
/// path, sketch-native and exact alike. The equilibrium estimator
/// prices a whole defender × attacker grid whose cells share a handful
/// of repetition seeds, yet each engine run used to redo the
/// calibration round: privatize and sort `users_per_round` reports,
/// rebuild prefix sums, and (in sketch mode) re-feed the GK sketch. All
/// of that depends only on [`calib_fingerprint`]'s inputs, not on the
/// cell, so a hit restores the buffers and the post-calibration RNG
/// state bit-for-bit and recomputes only the cheap per-cell scalars
/// (the reference quantile is one index into the sorted table). The
/// fingerprint encodes the sketch rank error (absent = `u64::MAX`), so
/// exact and sketch entries for the same seed never collide; an exact
/// entry simply carries `sketch: None`. Results are identical whether
/// or not the cache is warm, so worker counts and job order cannot skew
/// anything.
fn ldp_calibrate_cached(
    population: &[f64],
    mech: &Piecewise,
    defense: LdpDefense,
    cfg: &LdpSimConfig,
    arena: &mut LdpArena,
    rng: &mut StdRng,
) -> LdpParams {
    let key = calib_fingerprint(population, cfg);
    let LdpArena { bufs, calib_cache } = arena;
    if let Some(hit) = calib_cache.iter().find(|e| e.key == key) {
        bufs.calib.clone_from(&hit.calib);
        bufs.prefix.clone_from(&hit.prefix);
        bufs.sketch.clone_from(&hit.sketch);
        *rng = hit.rng_after.clone();
        let ref_value = trimgame_numerics::quantile::percentile_sorted(
            &bufs.calib,
            cfg.soft.clamp(0.0, 1.0),
            Interpolation::Linear,
        );
        return LdpParams {
            users_per_round: cfg.users_per_round,
            n_attack: (cfg.users_per_round as f64 * cfg.attack_ratio).round() as usize,
            calib_mean: hit.calib_mean,
            ref_value,
            expected_tail: 1.0 - cfg.soft,
            trims: !matches!(defense, LdpDefense::Emf),
        };
    }
    let params = ldp_calibrate(population, mech, defense, cfg, bufs, rng);
    if calib_cache.len() >= CALIB_CACHE_CAP {
        calib_cache.remove(0);
    }
    calib_cache.push(CalibEntry {
        key,
        calib: bufs.calib.clone(),
        prefix: bufs.prefix.clone(),
        sketch: bufs.sketch.clone(),
        calib_mean: params.calib_mean,
        rng_after: rng.clone(),
    });
    params
}

/// One LDP round: honest privatization, protocol-compliant attack
/// reports, quality scoring, and (for trimming defenses) the cut at the
/// calibration quantile. Returns the report plus this round's debiased
/// trimmed-mean contribution `(estimate_delta, kept_delta)`; the raw
/// reports stay in `bufs.reports` for the EMF path.
fn ldp_round<R: Rng + ?Sized>(
    population: &[f64],
    mech: &Piecewise,
    params: &LdpParams,
    bufs: &mut LdpBufs,
    threshold: f64,
    injection: f64,
    rng: &mut R,
) -> (RoundReport, f64, usize) {
    // Honest reports.
    bufs.reports.clear();
    bufs.reports.extend((0..params.users_per_round).map(|_| {
        let idx = rng.gen_range(0..population.len());
        mech.privatize(population[idx], rng)
    }));
    // Attack reports (input manipulation: protocol-compliant, holding
    // the counterfeit input the adversary's position maps to; the
    // privatization consumes the same number of main-stream draws for
    // any input, so the position never perturbs the honest stream).
    let attack = InputManipulation::new(counterfeit_input(injection));
    for _ in 0..params.n_attack {
        let r = attack.report(mech, rng);
        bufs.reports.push(r);
    }

    // Quality: excess upper-tail mass relative to calibration.
    let above = 1.0 - ecdf(&bufs.reports, params.ref_value);
    let quality = 1.0 - (above - params.expected_tail).max(0.0);
    let received = bufs.reports.len();

    let mut report = RoundReport {
        quality,
        received,
        poison_received: params.n_attack,
        ..RoundReport::new()
    };
    if !params.trims {
        report.poison_survived = params.n_attack;
        let mut retained = OnlineStats::new();
        retained.extend(&bufs.reports);
        report.retained = retained;
        return (report, 0.0, 0);
    }

    // The sketch-native game resolves the cut from the GK summary of the
    // calibration stream; its ε rank error is evasion headroom for an
    // attacker positioning against the exact table.
    let cut = match &bufs.sketch {
        Some(s) => s
            .cut(threshold.clamp(0.0, 1.0))
            .expect("sketch ingested the calibration stream"),
        None => trimgame_numerics::quantile::percentile_sorted(
            &bufs.calib,
            threshold.clamp(0.0, 1.0),
            Interpolation::Linear,
        ),
    };
    let trimmed = bufs.trim.cut(&bufs.reports, cut);
    let kept = bufs.trim.kept().len();
    let (estimate_delta, kept_delta) = if kept > 0 {
        // `trim_bias(cut)`: the honest-stream mean shift the cut induces.
        let n_below = bufs.calib.partition_point(|&v| v <= cut);
        let bias = if n_below == 0 {
            0.0
        } else {
            params.calib_mean - bufs.prefix[n_below - 1] / n_below as f64
        };
        ((mean(bufs.trim.kept()) + bias) * kept as f64, kept)
    } else {
        (0.0, 0)
    };
    // Provenance the simulator (not the defender) knows: the attack
    // reports are the tail segment of the batch.
    let (_, poison_survived, benign_trimmed) =
        provenance_counts(bufs.trim.kept_mask(), params.users_per_round);
    report.trimmed = trimmed;
    report.poison_survived = poison_survived;
    report.benign_trimmed = benign_trimmed;
    // Percentile-damage proxy, as on the other substrates: surviving
    // attack mass weighted by the attack position. The historical
    // fixed attack sits at percentile 1.0, where the weight is exactly
    // the old unweighted gain.
    report.gain_adversary =
        poison_survived as f64 / received.max(1) as f64 * injection.clamp(0.0, 1.0);
    report.overhead = benign_trimmed as f64 / received.max(1) as f64;
    report.threshold_value = Some(cut);
    let mut retained = OnlineStats::new();
    retained.extend(bufs.trim.kept());
    report.retained = retained;
    (report, estimate_delta, kept_delta)
}

/// The LDP report-stream workload as an
/// [`engine::Scenario`](crate::engine::Scenario).
///
/// Each round privatizes a fresh honest sample with the Piecewise
/// Mechanism and appends protocol-compliant input-manipulation reports.
/// Trimming defenses cut at the calibration quantile of the engine's
/// threshold percentile; a recording scenario accumulates the *debiased*
/// trimmed mean, and under the EMF baseline stores the raw stream for one
/// final EM filtering pass.
///
/// The scenario owns its [`LdpArena`] by default; payoff grids lend it a
/// worker's arena (`A = &mut LdpArena`) through
/// [`run_ldp_collection_with_scratch`], which records nothing.
#[derive(Debug, Clone)]
pub struct LdpScenario<'a, A = LdpArena> {
    population: &'a [f64],
    mech: Piecewise,
    arena: A,
    params: LdpParams,
    record: bool,
    estimate_sum: f64,
    kept_total: usize,
    all_reports: Vec<f64>,
}

impl<'a> LdpScenario<'a> {
    /// Builds a recording scenario, running the clean calibration round
    /// on `rng` (the collector knows the honest report distribution
    /// shape: the mechanism is public and the input prior comes from
    /// history).
    ///
    /// # Panics
    /// Panics if the population is empty or the config is degenerate.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        population: &'a [f64],
        defense: LdpDefense,
        cfg: &LdpSimConfig,
        rng: &mut R,
    ) -> Self {
        let mech = Piecewise::new(cfg.epsilon);
        let mut arena = LdpArena::new();
        let params = ldp_calibrate(population, &mech, defense, cfg, &mut arena.bufs, rng);
        Self::over(population, mech, arena, params, true)
    }

    /// The weighted debiased trimmed-mean estimate accumulated so far
    /// (trimming defenses).
    #[must_use]
    pub fn trimmed_estimate(&self) -> f64 {
        if self.kept_total == 0 {
            0.0
        } else {
            self.estimate_sum / self.kept_total as f64
        }
    }

    /// The raw report stream (EMF baseline).
    #[must_use]
    pub fn raw_reports(&self) -> &[f64] {
        &self.all_reports
    }

    /// The mechanism in use.
    #[must_use]
    pub fn mechanism(&self) -> &Piecewise {
        &self.mech
    }
}

impl<'a, A: BorrowMut<LdpArena>> LdpScenario<'a, A> {
    fn over(
        population: &'a [f64],
        mech: Piecewise,
        arena: A,
        params: LdpParams,
        record: bool,
    ) -> Self {
        Self {
            population,
            mech,
            arena,
            params,
            record,
            estimate_sum: 0.0,
            kept_total: 0,
            all_reports: Vec::new(),
        }
    }
}

/// Maps an engine injection *percentile* to the attacker's counterfeit
/// *input* on the LDP substrate: the linear image of `[0, 1]` onto the
/// input domain `[−1, 1]`. The historical fixed attack (`percentile 1.0`)
/// maps to the counterfeit input `+1` exactly, so games driven by the
/// default [`AdversaryPolicy::Fixed`] at 1.0 replay bit-identically; a
/// mixed or learning attacker lowering its percentile holds a smaller
/// counterfeit whose protocol-compliant reports are likelier to duck the
/// trimming cut — the LDP image of the evasion/damage trade-off.
#[must_use]
pub fn counterfeit_input(injection_percentile: f64) -> f64 {
    2.0 * injection_percentile.clamp(0.0, 1.0) - 1.0
}

impl<A: BorrowMut<LdpArena>> Scenario for LdpScenario<'_, A> {
    fn play_round<R: Rng + ?Sized>(
        &mut self,
        _round: usize,
        threshold: f64,
        injection: f64,
        rng: &mut R,
    ) -> RoundReport {
        let bufs = &mut self.arena.borrow_mut().bufs;
        let (report, estimate_delta, kept_delta) = ldp_round(
            self.population,
            &self.mech,
            &self.params,
            bufs,
            threshold,
            injection,
            rng,
        );
        if self.record {
            self.estimate_sum += estimate_delta;
            self.kept_total += kept_delta;
            if !self.params.trims {
                self.all_reports.extend_from_slice(&bufs.reports);
            }
        }
        report
    }
}

/// The defender policy a [`LdpDefense`] maps onto the unified engine:
/// Tit-for-tat keeps Algorithm 1's trigger between `soft` and `hard`,
/// Elastic uses Algorithm 2's quality-driven interpolation, and EMF never
/// trims (Ostrich).
#[must_use]
pub fn ldp_defender(defense: LdpDefense, cfg: &LdpSimConfig) -> DefenderPolicy {
    let baseline_quality = 1.0;
    match defense {
        LdpDefense::TitForTat => DefenderPolicy::TitForTat {
            inner: TitForTat::new(cfg.soft, cfg.hard, baseline_quality, cfg.red)
                .expect("valid tit-for-tat parameters"),
        },
        LdpDefense::Elastic(k) => DefenderPolicy::quality_elastic(cfg.soft, cfg.hard, k),
        LdpDefense::Emf => DefenderPolicy::Ostrich,
    }
}

/// Runs one repetition of the collection under `defense` against the
/// historical attack position (counterfeit input `+1`, every round) and
/// returns the final mean estimate: the debiased trimmed mean, or the EM
/// filter's mean under [`LdpDefense::Emf`].
///
/// # Panics
/// Panics if the population is empty or config degenerate.
#[must_use]
pub fn run_ldp_collection(population: &[f64], defense: LdpDefense, cfg: &LdpSimConfig) -> f64 {
    let mut rng = seeded_rng(cfg.seed);
    let scenario = LdpScenario::new(population, defense, cfg, &mut rng);
    let mut stepper = EngineStepper::with_policy_seed(
        scenario,
        Box::new(ldp_defender(defense, cfg)),
        Box::new(AdversaryPolicy::Fixed { percentile: 1.0 }),
        policy_seed(cfg.seed),
    );
    let _ = stepper.run(cfg.rounds, &mut rng, &mut EngineScratch::new(), None);
    let (_, scenario, _, _) = stepper.into_parts();
    match defense {
        LdpDefense::Emf => {
            let beta = cfg.attack_ratio / (1.0 + cfg.attack_ratio);
            let emf = EmFilter::for_piecewise(scenario.mechanism(), 16, 32, beta.min(0.95));
            emf.filter_mean(scenario.raw_reports())
        }
        _ => scenario.trimmed_estimate(),
    }
}

/// The allocation-free LDP run: one seeded collection with arbitrary
/// boxed policies on *both* sides over the worker-owned [`LdpArena`]
/// (calibration table, prefix sums, report and trim buffers) recording
/// into the reusable [`EngineScratch`] — the LDP payoff-grid cell path.
/// No raw-report retention and no trimmed-mean estimate; the attacker's
/// injection percentile maps to a counterfeit input through
/// [`counterfeit_input`], so mixed and learning attackers play a real
/// position game on the report stream. Pass `board` to post every
/// round's record to a
/// [`RangedBoard`](trimgame_stream::board::RangedBoard) an outside
/// observer (or a board-driven policy) already holds a clone of. The
/// defender sub-stream is seeded from `cfg.seed` via
/// [`POLICY_SEED_STREAM`](crate::simulation::POLICY_SEED_STREAM).
///
/// # Panics
/// Panics if the population is empty or config degenerate.
#[must_use]
#[allow(clippy::too_many_arguments)] // one arg per game ingredient, like the other cell paths
pub fn run_ldp_collection_with_scratch(
    population: &[f64],
    defense: LdpDefense,
    cfg: &LdpSimConfig,
    defender: Box<dyn ThresholdPolicy>,
    adversary: Box<dyn crate::adversary::AttackPolicy>,
    board: Option<trimgame_stream::board::RangedBoard>,
    arena: &mut LdpArena,
    scratch: &mut EngineScratch,
) -> EngineRun {
    let mut rng = seeded_rng(cfg.seed);
    let mech = Piecewise::new(cfg.epsilon);
    let params = ldp_calibrate_cached(population, &mech, defense, cfg, arena, &mut rng);
    let scenario = LdpScenario::over(population, mech, arena, params, false);
    EngineStepper::with_policy_seed(scenario, defender, adversary, policy_seed(cfg.seed)).run(
        cfg.rounds,
        &mut rng,
        scratch,
        board.as_ref(),
    )
}

/// A deterministic honest-report calibration sample: `n` reports of the
/// population cycled through the Piecewise Mechanism at `epsilon`, seeded
/// by `seed`, sorted ascending. Mirrors the calibration round
/// [`LdpScenario::new`] runs, but on an explicit seed so the equilibrium
/// estimator's closed-form benchmark is reproducible independent of any
/// game run.
///
/// # Panics
/// Panics if the population is empty or `n == 0`.
#[must_use]
pub fn ldp_calibration(population: &[f64], epsilon: f64, n: usize, seed: u64) -> Vec<f64> {
    assert!(!population.is_empty(), "empty population");
    assert!(n > 0, "need at least one calibration report");
    let mech = Piecewise::new(epsilon);
    let mut rng = seeded_rng(seed);
    let mut calib: Vec<f64> = (0..n)
        .map(|i| mech.privatize(population[i % population.len()], &mut rng))
        .collect();
    calib.sort_by(|a, b| a.partial_cmp(b).expect("NaN report"));
    calib
}

/// MSE of `defense` over `reps` repetitions against the true benign mean.
#[must_use]
pub fn ldp_mse(population: &[f64], defense: LdpDefense, cfg: &LdpSimConfig, reps: usize) -> f64 {
    assert!(reps > 0, "need at least one repetition");
    let truth = mean(population);
    let mut total = 0.0;
    for rep in 0..reps {
        let mut c = *cfg;
        c.seed = derive_seed(cfg.seed, rep as u64);
        let est = run_ldp_collection(population, defense, &c);
        total += (est - truth) * (est - truth);
    }
    total / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> Vec<f64> {
        // Taxi-like bounded skewed population.
        (0..4_000)
            .map(|i| {
                let t = (i % 1000) as f64 / 1000.0;
                (2.0 * t - 1.0) * 0.7
            })
            .collect()
    }

    /// One recording Tit-for-tat engine run with arbitrary boxed
    /// policies, seeded as [`run_ldp_collection_with_scratch`] seeds its
    /// lean run: the summary, the scenario and the recorded series.
    fn run_recording<'a>(
        pop: &'a [f64],
        cfg: &LdpSimConfig,
        defender: Box<dyn ThresholdPolicy>,
        adversary: Box<dyn crate::adversary::AttackPolicy>,
    ) -> (EngineRun, LdpScenario<'a>, EngineScratch) {
        let mut rng = seeded_rng(cfg.seed);
        let scenario = LdpScenario::new(pop, LdpDefense::TitForTat, cfg, &mut rng);
        let mut stepper =
            EngineStepper::with_policy_seed(scenario, defender, adversary, policy_seed(cfg.seed));
        let mut scratch = EngineScratch::new();
        let run = stepper.run(cfg.rounds, &mut rng, &mut scratch, None);
        (run, stepper.into_parts().1, scratch)
    }

    #[test]
    fn roster_matches_legend() {
        let names: Vec<_> = LdpDefense::roster().iter().map(LdpDefense::name).collect();
        assert_eq!(names, vec!["Titfortat", "Elastic0.1", "Elastic0.5", "EMF"]);
    }

    #[test]
    fn ldp_scratch_cells_replay_the_outcome_path_bit_for_bit() {
        use crate::adversary::AdversaryPolicy;
        let pop = population();
        let mut arena = LdpArena::new();
        let mut scratch = EngineScratch::new();
        // The sketch column exercises the calibration-time sketch build
        // and its reset on arena reuse.
        for (soft, seed, sketch_epsilon) in [
            (0.9f64, 3u64, None),
            (0.95, 4, Some(0.02)),
            (0.9, 3, None),
            (0.9, 3, Some(0.05)),
        ] {
            let cfg = LdpSimConfig {
                users_per_round: 400,
                rounds: 3,
                soft,
                hard: soft - 0.1,
                sketch_epsilon,
                ..LdpSimConfig::new(3.0, 0.25, seed)
            };
            let policies = || {
                (
                    Box::new(ldp_defender(LdpDefense::TitForTat, &cfg)) as Box<dyn ThresholdPolicy>,
                    Box::new(AdversaryPolicy::Fixed { percentile: 0.97 })
                        as Box<dyn crate::adversary::AttackPolicy>,
                )
            };
            let (d, a) = policies();
            let (owned, _, series) = run_recording(&pop, &cfg, d, a);
            let (d, a) = policies();
            let lean = run_ldp_collection_with_scratch(
                &pop,
                LdpDefense::TitForTat,
                &cfg,
                d,
                a,
                None,
                &mut arena,
                &mut scratch,
            );
            assert_eq!(lean.totals, owned.totals, "soft={soft} seed={seed}");
            assert_eq!(Some(&lean.final_u_a), series.utilities().u_a.last());
            assert_eq!(Some(&lean.final_u_c), series.utilities().u_c.last());
            assert_eq!(scratch.thresholds(), series.thresholds());
            assert_eq!(scratch.qualities(), series.qualities());
        }
    }

    #[test]
    fn ldp_calibration_cache_replays_bit_for_bit() {
        use crate::adversary::AdversaryPolicy;
        // The payoff-grid shape: cells differ in threshold but share the
        // repetition seed. The second run on a warm arena hits the
        // calibration cache and must match a cold run from a fresh arena
        // bit for bit (restored buffers + restored RNG state).
        let pop = population();
        let run = |arena: &mut LdpArena, soft: f64, seed: u64| {
            let cfg = LdpSimConfig {
                users_per_round: 500,
                rounds: 3,
                soft,
                hard: soft - 0.1,
                sketch_epsilon: Some(0.02),
                ..LdpSimConfig::new(3.0, 0.2, seed)
            };
            let mut scratch = EngineScratch::new();
            run_ldp_collection_with_scratch(
                &pop,
                LdpDefense::TitForTat,
                &cfg,
                Box::new(ldp_defender(LdpDefense::TitForTat, &cfg)),
                Box::new(AdversaryPolicy::Fixed { percentile: 0.97 }),
                None,
                arena,
                &mut scratch,
            )
        };
        let mut warm = LdpArena::new();
        let _ = run(&mut warm, 0.90, 5); // primes the cache for seed 5
        let hit = run(&mut warm, 0.95, 5);
        let cold = run(&mut LdpArena::new(), 0.95, 5);
        assert_eq!(hit.totals, cold.totals);
        assert_eq!(hit.final_u_c.to_bits(), cold.final_u_c.to_bits());
        assert_eq!(hit.final_u_a.to_bits(), cold.final_u_a.to_bits());
    }

    #[test]
    fn ldp_exact_path_calibration_cache_replays_bit_for_bit() {
        use crate::adversary::AdversaryPolicy;
        // Same contract as the sketch-mode test, on the exact (no
        // sketch) table game: the second run on a warm arena restores
        // the calibration buffers and RNG state from the cache and must
        // be indistinguishable from a cold run. The fingerprint keeps
        // exact and sketch entries for the same seed apart, so priming
        // one mode must never leak into the other.
        let pop = population();
        let run = |arena: &mut LdpArena, soft: f64, seed: u64, sketch: Option<f64>| {
            let cfg = LdpSimConfig {
                users_per_round: 500,
                rounds: 3,
                soft,
                hard: soft - 0.1,
                sketch_epsilon: sketch,
                ..LdpSimConfig::new(3.0, 0.2, seed)
            };
            let mut scratch = EngineScratch::new();
            run_ldp_collection_with_scratch(
                &pop,
                LdpDefense::TitForTat,
                &cfg,
                Box::new(ldp_defender(LdpDefense::TitForTat, &cfg)),
                Box::new(AdversaryPolicy::Fixed { percentile: 0.97 }),
                None,
                arena,
                &mut scratch,
            )
        };
        let mut warm = LdpArena::new();
        // Prime both the sketch entry (would poison the exact run if
        // the modes collided) and the exact entry for seed 5.
        let _ = run(&mut warm, 0.90, 5, Some(0.02));
        let _ = run(&mut warm, 0.90, 5, None);
        let hit = run(&mut warm, 0.95, 5, None);
        let cold = run(&mut LdpArena::new(), 0.95, 5, None);
        assert_eq!(hit.totals, cold.totals);
        assert_eq!(hit.final_u_c.to_bits(), cold.final_u_c.to_bits());
        assert_eq!(hit.final_u_a.to_bits(), cold.final_u_a.to_bits());
    }

    #[test]
    fn ldp_sketch_cut_tracks_exact_cut() {
        // The sketch-native report-stream game: cuts resolved from a GK
        // summary of the calibration stream stay within its rank-error
        // band of the exact table, so the debiased estimate lands near
        // the exact path's — and the sketch path replays deterministically.
        let pop = population();
        let base = LdpSimConfig {
            users_per_round: 1_000,
            rounds: 4,
            ..LdpSimConfig::new(3.0, 0.2, 41)
        };
        let exact = run_ldp_collection(&pop, LdpDefense::TitForTat, &base);
        let sk_cfg = LdpSimConfig {
            sketch_epsilon: Some(0.02),
            ..base
        };
        let sk = run_ldp_collection(&pop, LdpDefense::TitForTat, &sk_cfg);
        let again = run_ldp_collection(&pop, LdpDefense::TitForTat, &sk_cfg);
        assert_eq!(sk, again, "sketch path must replay deterministically");
        assert!((sk - exact).abs() < 0.1, "sketch {sk} vs exact {exact}");
        assert!((-1.0..=1.0).contains(&sk), "estimate {sk}");
    }

    #[test]
    fn trimming_beats_no_defense_under_attack() {
        let pop = population();
        let cfg = LdpSimConfig::new(3.0, 0.3, 99);
        let truth = mean(&pop);
        let elastic = run_ldp_collection(&pop, LdpDefense::Elastic(0.5), &cfg);
        let mech_bias = 0.3 / 1.3 * (1.0 - truth); // poisoned mixture shift
        assert!(
            (elastic - truth).abs() < mech_bias,
            "elastic {elastic} vs truth {truth} (raw shift {mech_bias})"
        );
    }

    #[test]
    fn mse_decreases_with_epsilon_for_trimming() {
        let pop = population();
        let lo = ldp_mse(
            &pop,
            LdpDefense::Elastic(0.5),
            &LdpSimConfig::new(1.0, 0.1, 7),
            3,
        );
        let hi = ldp_mse(
            &pop,
            LdpDefense::Elastic(0.5),
            &LdpSimConfig::new(5.0, 0.1, 7),
            3,
        );
        assert!(hi < lo, "eps=5 mse {hi} should beat eps=1 mse {lo}");
    }

    #[test]
    fn emf_runs_and_is_finite() {
        let pop = population();
        let cfg = LdpSimConfig {
            users_per_round: 800,
            rounds: 3,
            ..LdpSimConfig::new(2.0, 0.2, 5)
        };
        let est = run_ldp_collection(&pop, LdpDefense::Emf, &cfg);
        assert!(est.is_finite());
        assert!((-1.0..=1.0).contains(&est));
    }

    #[test]
    fn trimming_beats_emf_against_input_manipulation() {
        // Fig. 9's headline: input manipulation is invisible to the EM
        // filter but not to adaptive trimming.
        let pop = population();
        let cfg = LdpSimConfig {
            users_per_round: 1_000,
            rounds: 5,
            ..LdpSimConfig::new(3.0, 0.3, 21)
        };
        let mse_trim = ldp_mse(&pop, LdpDefense::Elastic(0.5), &cfg, 3);
        let mse_emf = ldp_mse(&pop, LdpDefense::Emf, &cfg, 3);
        assert!(
            mse_trim < mse_emf,
            "trimming {mse_trim} should beat EMF {mse_emf}"
        );
    }

    #[test]
    fn titfortat_defends_comparably_to_elastic() {
        let pop = population();
        let cfg = LdpSimConfig {
            users_per_round: 1_000,
            rounds: 5,
            ..LdpSimConfig::new(3.0, 0.2, 31)
        };
        let tft = ldp_mse(&pop, LdpDefense::TitForTat, &cfg, 3);
        let ela = ldp_mse(&pop, LdpDefense::Elastic(0.5), &cfg, 3);
        // Same order of magnitude.
        assert!(tft < 20.0 * ela + 1e-6, "tft {tft} vs elastic {ela}");
    }

    #[test]
    fn deterministic_under_seed() {
        let pop = population();
        let cfg = LdpSimConfig {
            users_per_round: 500,
            rounds: 2,
            ..LdpSimConfig::new(2.0, 0.1, 77)
        };
        let a = run_ldp_collection(&pop, LdpDefense::TitForTat, &cfg);
        let b = run_ldp_collection(&pop, LdpDefense::TitForTat, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn randomized_defender_runs_on_the_report_stream() {
        use crate::strategy::RandomizedDefender;
        let pop = population();
        let cfg = LdpSimConfig {
            users_per_round: 500,
            rounds: 3,
            ..LdpSimConfig::new(3.0, 0.2, 13)
        };
        let mixed = || {
            Box::new(RandomizedDefender::new(&[cfg.hard, cfg.soft], &[0.5, 0.5]).unwrap())
                as Box<dyn ThresholdPolicy>
        };
        let estimate = || {
            let attack = Box::new(AdversaryPolicy::Fixed { percentile: 1.0 });
            run_recording(&pop, &cfg, mixed(), attack)
                .1
                .trimmed_estimate()
        };
        let (a, b) = (estimate(), estimate());
        assert_eq!(a, b, "randomized runs must replay under a fixed seed");
        assert!(a.is_finite());
        // The mixed trim stays within the domain of sane estimates.
        assert!((-1.0..=1.0).contains(&a), "estimate {a}");
    }
}
