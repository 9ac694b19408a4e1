//! Empirical equilibrium estimation over the sweep grid (`expt
//! equilibrium`), generic over the simulation substrate.
//!
//! The §III-C2 mixed-strategy space is solved *analytically* in
//! `trim-core` (the Stackelberg solver over the continuum, the matrix
//! machinery over finite supports) — this module closes the loop by
//! *playing* the same finite threshold game through thousands of seeded
//! `Engine` runs and checking that the analytic and simulated equilibria
//! agree. The paper's central claim is that this equilibrium structure is
//! a property of the *game*, not of any one environment, so the whole
//! pipeline runs behind the [`GameSubstrate`] abstraction on all three
//! substrates: scalar value streams, feature-vector collection
//! (k-means anomaly scores), and LDP report streams.
//!
//! 1. **Estimate** — measure the (defender-atom × attacker-response)
//!    grid through the one cell-measurement primitive every payoff
//!    fan-out in this crate shares: each (cell × seed) job is one lean
//!    scratch-backed engine run on the chosen substrate, fanned through
//!    [`crate::sweep::parallel_map_with`] (every worker reuses one engine
//!    scratch and one substrate arena across all of its cells), with
//!    seeds shared across cells (common random numbers). A cell's payoff
//!    is the collector's mean per-round loss (surviving percentile damage
//!    plus benign trim overhead) with its confidence interval. The dense
//!    grid is the full-support block of the measured-matrix store the
//!    double oracle ([`crate::double_oracle`]) grows from its seed block:
//!    the dense estimate is a double oracle seeded with every atom, given
//!    no growth rounds, and solved cold rather than warm-started.
//! 2. **Solve** — feed the mean loss matrix to
//!    [`MatrixGame::solve`] (deterministic fictitious play with certified
//!    value bounds) to get the empirical mixed equilibrium; solve the
//!    substrate's closed-form expected-loss matrix of the same game for
//!    the analytic equilibrium, and the continuum Stackelberg problem for
//!    the deterministic pure-commitment benchmark. On the LDP substrate
//!    the closed form is genuinely probabilistic: an input-manipulation
//!    attacker's survival probability is the Piecewise Mechanism's exact
//!    CDF at the cut, not a point-mass indicator.
//! 3. **Check** — report the empirical-vs-analytic value gap against the
//!    estimator's own tolerance (the minimax value is 1-Lipschitz in the
//!    sup-norm of the matrix, so the worst cell CI plus the solver
//!    duality gaps bound the expected discrepancy) — the same cross-check
//!    the double oracle runs on its discovered supports — and the
//!    defender's *randomization advantage*: how much the mixed
//!    equilibrium beats the best deterministic threshold, the
//!    randomized-prediction-games effect.
//! 4. **Play** — instantiate the solved mixture as a
//!    [`RandomizedDefender`], run it against each pure response, against
//!    the board-driven [`AdaptiveAttacker`], and against the no-regret
//!    bandit [`Exp3Attacker`] (whose long-run average payoff must stay
//!    below the game value plus its certified regret bound — the
//!    equilibrium's robustness claim against *learning* attackers). These
//!    runs go through the same measurement primitive, with the solved
//!    mixture in the defender's seat.
//!
//! Every cell's outcome depends only on its grid coordinates and derived
//! seed, so the whole pipeline is bit-deterministic for any worker count.

use crate::config::RunConfig;
use crate::sweep::parallel_map_with;
use std::fmt::Write as _;
use std::sync::Arc;
use trim_core::adversary::{AdaptiveAttacker, AdversaryPolicy, AttackPolicy, Exp3Attacker};
use trim_core::engine::EngineScratch;
use trim_core::equilibrium::StackelbergSolver;
use trim_core::ldp_sim::{
    counterfeit_input, ldp_calibration, run_ldp_collection_with_scratch, LdpArena, LdpDefense,
    LdpSimConfig,
};
use trim_core::matrix::{MatrixGame, MixedEquilibrium};
use trim_core::ml_sim::{collect_poisoned_with_scratch, MlArena, MlModel, MlSimConfig};
use trim_core::simulation::{run_game_with_scratch, GameConfig, ScalarArena, Scheme};
use trim_core::space::StrategySpace;
use trim_core::strategy::{DefenderPolicy, RandomizedDefender, ThresholdPolicy};
use trimgame_datasets::synthetic::{GaussianComponent, GmmSpec};
use trimgame_datasets::Dataset;
use trimgame_ldp::piecewise::Piecewise;
use trimgame_numerics::quantile::{ecdf, percentile_sorted, Interpolation};
use trimgame_numerics::rand_ext::{derive_seed, seeded_rng};
use trimgame_numerics::stats::OnlineStats;
use trimgame_stream::board::RangedBoard;

/// Stream index of the Exp3 attacker's private sampling sub-seed.
const EXP3_SEED_STREAM: u64 = 0x4558_5033; // "EXP3"
/// Stream index of the LDP closed-form calibration sample's seed.
const LDP_CALIB_STREAM: u64 = 0x4C43_414C; // "LCAL"

/// Configuration of one empirical equilibrium estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumConfig {
    /// The defender's threshold support (percentiles, ascending).
    pub defender_atoms: Vec<f64>,
    /// The attacker responds just below each defender atom, at
    /// `atom − response_margin` (the evasion margin of the ideal attack).
    pub response_margin: f64,
    /// Independent seeded game instances per payoff cell.
    pub seeds: usize,
    /// Master seed; per-repetition seeds derive from it.
    pub master_seed: u64,
    /// Rounds per game instance.
    pub rounds: usize,
    /// Benign batch size per round (honest users per round on the LDP
    /// substrate).
    pub batch: usize,
    /// Attack ratio (poison per benign).
    pub attack_ratio: f64,
    /// Sweep worker count (`0` = all cores). Never affects results.
    pub workers: usize,
    /// Fictitious-play iterations for both matrix solves.
    pub fp_iterations: usize,
    /// CI multiplier for per-cell confidence intervals (2.58 ≈ 99%).
    pub z: f64,
    /// Rank error of the sketch-native defender. `Some(ε)` resolves every
    /// trimming cut from a GK sketch of the substrate's clean reference
    /// stream (scalar pool / ML anomaly scores / LDP calibration reports),
    /// pricing ε into the equilibrium; `None` keeps exact cuts.
    pub sketch_epsilon: Option<f64>,
}

impl EquilibriumConfig {
    /// The CI smoke configuration on the scalar substrate: a 3×3
    /// threshold game, 2 seeds per cell — small enough for a pipeline
    /// step, large enough to exercise every stage.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            defender_atoms: vec![0.88, 0.92, 0.96],
            response_margin: 0.01,
            seeds: 2,
            master_seed: 2024,
            rounds: 10,
            batch: 400,
            attack_ratio: 0.2,
            workers: 0,
            fp_iterations: 50_000,
            z: 3.0,
            sketch_epsilon: None,
        }
    }

    /// The full scalar `expt equilibrium` grid: a 5×5 game with 12 seeds
    /// per cell.
    #[must_use]
    pub fn default_grid() -> Self {
        Self {
            defender_atoms: vec![0.86, 0.89, 0.92, 0.95, 0.98],
            response_margin: 0.01,
            seeds: 12,
            master_seed: 2024,
            rounds: 20,
            batch: 1_000,
            attack_ratio: 0.2,
            workers: 0,
            fp_iterations: 200_000,
            z: 2.58,
            sketch_epsilon: None,
        }
    }

    /// The smoke configuration for `kind` (scalar keeps
    /// [`EquilibriumConfig::smoke`]; the ML and LDP games shrink the
    /// environment to pipeline scale).
    #[must_use]
    pub fn smoke_for(kind: SubstrateKind) -> Self {
        match kind {
            SubstrateKind::Scalar => Self::smoke(),
            SubstrateKind::Ml => Self {
                seeds: 3,
                rounds: 5,
                batch: 150,
                ..Self::smoke()
            },
            SubstrateKind::Ldp => Self {
                defender_atoms: vec![0.84, 0.9, 0.96],
                response_margin: 0.02,
                seeds: 3,
                rounds: 5,
                batch: 500,
                ..Self::smoke()
            },
        }
    }

    /// The full grid for `kind`.
    #[must_use]
    pub fn default_for(kind: SubstrateKind) -> Self {
        match kind {
            SubstrateKind::Scalar => Self::default_grid(),
            SubstrateKind::Ml => Self {
                seeds: 8,
                rounds: 10,
                batch: 200,
                ..Self::default_grid()
            },
            SubstrateKind::Ldp => Self {
                defender_atoms: vec![0.84, 0.87, 0.9, 0.93, 0.96],
                response_margin: 0.02,
                seeds: 8,
                rounds: 8,
                batch: 1_000,
                ..Self::default_grid()
            },
        }
    }

    /// The attacker's response atoms: just below each defender atom.
    #[must_use]
    pub fn attacker_atoms(&self) -> Vec<f64> {
        self.defender_atoms
            .iter()
            .map(|a| (a - self.response_margin).clamp(0.0, 1.0))
            .collect()
    }

    pub(crate) fn validate(&self) {
        assert!(
            self.defender_atoms.len() >= 2,
            "need at least two defender atoms"
        );
        assert!(
            self.defender_atoms.windows(2).all(|w| w[0] < w[1]),
            "defender atoms must be strictly ascending"
        );
        assert!(
            self.defender_atoms.iter().all(|a| (0.0..=1.0).contains(a)),
            "defender atoms must be percentiles"
        );
        assert!(self.response_margin > 0.0, "need a positive margin");
        assert!(self.seeds >= 2, "need at least two seeds per cell");
        assert!(self.rounds > 0 && self.batch > 0, "degenerate game shape");
        assert!(
            self.fp_iterations > 0,
            "need at least one fictitious-play iteration"
        );
        if let Some(eps) = self.sketch_epsilon {
            assert!(
                eps > 0.0 && eps < 0.5,
                "sketch rank error must sit in (0, 0.5)"
            );
        }
    }
}

/// Parses a per-cell seed count (`TRIMGAME_EQ_SEEDS`): an integer of at
/// least two, since a cell's CI needs a sample variance.
///
/// # Errors
/// Returns a message naming the rejected value.
pub fn parse_eq_seeds(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(seeds) if seeds >= 2 => Ok(seeds),
        _ => Err(format!(
            "seeds per payoff cell must be an integer >= 2, got {raw:?}"
        )),
    }
}

/// Parses the sketch-native defender switch (`--sketch=EPS`): empty/`0`/`false` keeps exact cuts, `1`/`true`
/// enables the sketch at [`DEFAULT_SKETCH_EPSILON`], and a float in
/// `(0, 0.5)` sets the rank error directly.
///
/// # Errors
/// Returns a message naming the rejected value.
pub fn parse_sketch_epsilon(raw: &str) -> Result<Option<f64>, String> {
    if raw == "0" || raw.is_empty() || raw.eq_ignore_ascii_case("false") {
        return Ok(None);
    }
    if raw == "1" || raw.eq_ignore_ascii_case("true") {
        return Ok(Some(DEFAULT_SKETCH_EPSILON));
    }
    match raw.parse::<f64>() {
        Ok(eps) if eps > 0.0 && eps < 0.5 => Ok(Some(eps)),
        _ => Err(format!(
            "sketch rank error must be 1/true or an epsilon in (0, 0.5), got {raw:?}"
        )),
    }
}

/// Rank error used when the sketch-native defender is enabled without an
/// explicit ε (a bare `--sketch`).
pub const DEFAULT_SKETCH_EPSILON: f64 = 0.02;

/// Which simulation substrate the equilibrium pipeline runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateKind {
    /// 1-D value streams (§VI-B) — the PR 3 pipeline.
    Scalar,
    /// Feature-vector collection scored against clean k-means centroids
    /// (§VI-C).
    Ml,
    /// LDP report streams under protocol-compliant input manipulation
    /// (§VI-E).
    Ldp,
}

impl SubstrateKind {
    /// All substrates, in paper order.
    pub const ALL: [SubstrateKind; 3] =
        [SubstrateKind::Scalar, SubstrateKind::Ml, SubstrateKind::Ldp];

    /// CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SubstrateKind::Scalar => "scalar",
            SubstrateKind::Ml => "ml",
            SubstrateKind::Ldp => "ldp",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(SubstrateKind::Scalar),
            "ml" => Some(SubstrateKind::Ml),
            "ldp" => Some(SubstrateKind::Ldp),
            _ => None,
        }
    }
}

/// What one seeded engine run on a substrate reports back to the
/// estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutcome {
    /// The collector's mean per-round loss (`−u_c / rounds`): surviving
    /// percentile damage plus benign trim overhead. The payoff matrix
    /// entry.
    pub collector_loss: f64,
    /// The adversary's mean per-round gain (`u_a / rounds`): the damage
    /// term alone. What a learning attacker optimizes.
    pub attacker_gain: f64,
}

/// One worker's reusable cell state: the engine trajectory scratch plus
/// the substrate-specific arena (pool tables, fitted ML model handle,
/// LDP calibration buffers). Created once per sweep worker by
/// [`GameSubstrate::new_scratch`] and threaded through every cell that
/// worker plays — the whole payoff grid allocates per *worker*, not per
/// cell.
pub struct CellScratch {
    /// The engine's reusable trajectory buffers.
    pub engine: EngineScratch,
    /// The substrate's arena; each substrate downcasts its own type.
    pub arena: Box<dyn std::any::Any + Send>,
}

impl std::fmt::Debug for CellScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellScratch").finish_non_exhaustive()
    }
}

impl CellScratch {
    /// Wraps a substrate arena with fresh engine buffers.
    #[must_use]
    pub fn new(arena: Box<dyn std::any::Any + Send>) -> Self {
        Self {
            engine: EngineScratch::new(),
            arena,
        }
    }
}

/// One simulation substrate the equilibrium pipeline can run on: how a
/// (defender policy × attack policy × seed) cell is played, and the
/// substrate's closed-form loss model for the analytic cross-check.
///
/// All three implementations route through the scratch-backed entry
/// points the engine core exposes (`run_game_with_scratch`,
/// `collect_poisoned_with_scratch`, `run_ldp_collection_with_scratch`),
/// so anything expressible as a [`ThresholdPolicy`]/[`AttackPolicy`]
/// pair — pure atoms, solved mixtures, board-driven best responses,
/// bandit learners — plays the same game the payoff grid measures, and
/// every worker reuses one [`CellScratch`] across all of its cells.
pub trait GameSubstrate: Sync {
    /// Substrate name for reports.
    fn name(&self) -> &'static str;

    /// Creates one worker's reusable scratch (engine buffers + arena).
    fn new_scratch(&self) -> CellScratch;

    /// Plays one seeded engine run. `tth` anchors the scenario's public
    /// quality standard (the nominal threshold percentile); `seed` drives
    /// the environment stream and derives the policy sub-streams;
    /// `scratch` is the worker's reusable state from
    /// [`GameSubstrate::new_scratch`] (its contents never influence the
    /// outcome).
    #[allow(clippy::too_many_arguments)] // one arg per game ingredient
    fn run_cell(
        &self,
        cfg: &EquilibriumConfig,
        tth: f64,
        defender: Box<dyn ThresholdPolicy>,
        attacker: Box<dyn AttackPolicy>,
        board: Option<RangedBoard>,
        seed: u64,
        scratch: &mut CellScratch,
    ) -> CellOutcome;

    /// The substrate's closed-form loss model over the finite game.
    fn closed_form(&self, cfg: &EquilibriumConfig) -> ClosedForm;
}

/// The closed-form side of a substrate's game: the sorted clean reference
/// distribution (values, anomaly scores, or calibration reports), the
/// poison/benign mixture shares, and the attack's survival model under a
/// cut. Shared by the analytic matrix and the continuum benchmark so
/// their rounding rules can never desynchronize.
#[derive(Debug, Clone)]
pub struct ClosedForm {
    sorted: Vec<f64>,
    poison_share: f64,
    benign_share: f64,
    survive: SurviveModel,
}

/// How attack mass at response percentile `a` survives the cut at
/// threshold percentile `t`.
#[derive(Debug, Clone)]
enum SurviveModel {
    /// The attack is a point mass at the reference value of `a`
    /// (scalar/ML substrates): survival is the indicator
    /// `ref(a) ≤ ref(t)`.
    PointMass,
    /// The attack is a protocol-compliant LDP report of the counterfeit
    /// input `a` maps to: survival is the mechanism's exact CDF at the
    /// cut.
    LdpPiecewise(Piecewise),
}

/// The poison share of one batch under the per-batch rounding every
/// substrate applies: `round(ratio·batch) / (batch + round(ratio·batch))`.
fn batch_poison_share(batch: usize, attack_ratio: f64) -> f64 {
    let n_benign = batch as f64;
    let n_poison = (attack_ratio * n_benign).round();
    n_poison / (n_benign + n_poison)
}

impl ClosedForm {
    fn new(sorted: Vec<f64>, batch: usize, attack_ratio: f64, survive: SurviveModel) -> Self {
        let poison_share = batch_poison_share(batch, attack_ratio);
        Self {
            sorted,
            poison_share,
            benign_share: 1.0 - poison_share,
            survive,
        }
    }

    /// The reference value at percentile `p` of the clean distribution.
    #[must_use]
    pub fn ref_at(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p.clamp(0.0, 1.0), Interpolation::Linear)
    }

    /// Benign tail mass above the cut at percentile `t` (the overhead the
    /// collector pays for trimming there).
    #[must_use]
    pub fn overhead(&self, t: f64) -> f64 {
        self.benign_share * (1.0 - ecdf(&self.sorted, self.ref_at(t)))
    }

    /// Probability that attack mass at response `a` survives the cut at
    /// threshold `t`.
    #[must_use]
    pub fn survive_prob(&self, a: f64, t: f64) -> f64 {
        match &self.survive {
            SurviveModel::PointMass => {
                if self.ref_at(a) <= self.ref_at(t) {
                    1.0
                } else {
                    0.0
                }
            }
            SurviveModel::LdpPiecewise(mech) => mech.cdf(counterfeit_input(a), self.ref_at(t)),
        }
    }

    /// Expected collector loss of the pure profile `(t, a)`:
    /// `poison_share · a · P(survive) + overhead(t)`.
    #[must_use]
    pub fn loss(&self, t: f64, a: f64) -> f64 {
        self.poison_share * a * self.survive_prob(a, t) + self.overhead(t)
    }

    /// The poison share of a batch (used to scale learning attackers'
    /// payoff bounds).
    #[must_use]
    pub fn poison_share(&self) -> f64 {
        self.poison_share
    }
}

/// The scalar value-stream substrate (the PR 3 pipeline, unchanged
/// numbers). Holds an arena template (pool + sorted reference table,
/// built once) that worker scratches clone — no per-worker sort, no
/// per-cell pool copy.
#[derive(Debug, Clone)]
pub struct ScalarSubstrate {
    arena: ScalarArena,
}

impl ScalarSubstrate {
    /// Builds the substrate over `pool`.
    ///
    /// # Panics
    /// Panics if the pool is empty.
    #[must_use]
    pub fn new(pool: &[f64]) -> Self {
        Self {
            arena: ScalarArena::new(pool),
        }
    }

    fn game_config(cfg: &EquilibriumConfig, tth: f64, seed: u64) -> GameConfig {
        let mut game = GameConfig::new(Scheme::BaselineStatic);
        game.tth = tth;
        game.rounds = cfg.rounds;
        game.batch = cfg.batch;
        game.attack_ratio = cfg.attack_ratio;
        game.seed = seed;
        game.sketch_epsilon = cfg.sketch_epsilon;
        game
    }
}

impl GameSubstrate for ScalarSubstrate {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn new_scratch(&self) -> CellScratch {
        CellScratch::new(Box::new(self.arena.clone()))
    }

    fn run_cell(
        &self,
        cfg: &EquilibriumConfig,
        tth: f64,
        defender: Box<dyn ThresholdPolicy>,
        attacker: Box<dyn AttackPolicy>,
        board: Option<RangedBoard>,
        seed: u64,
        scratch: &mut CellScratch,
    ) -> CellOutcome {
        let game = Self::game_config(cfg, tth, seed);
        let arena = scratch
            .arena
            .downcast_mut::<ScalarArena>()
            .expect("scalar scratch carries a ScalarArena");
        let run =
            run_game_with_scratch(&game, defender, attacker, board, arena, &mut scratch.engine);
        CellOutcome {
            collector_loss: -run.final_u_c / game.rounds as f64,
            attacker_gain: run.final_u_a / game.rounds as f64,
        }
    }

    fn closed_form(&self, cfg: &EquilibriumConfig) -> ClosedForm {
        ClosedForm::new(
            self.arena.sorted_pool().to_vec(),
            cfg.batch,
            cfg.attack_ratio,
            SurviveModel::PointMass,
        )
    }
}

/// The feature-vector collection substrate: the game is played on k-means
/// anomaly scores over a labelled dataset. The clean model (centroids +
/// score distribution) is fitted **once** and shared (`Arc`) into every
/// worker's arena — the fit used to be repeated per payoff cell, and was
/// the dominant cost of the ML grid.
#[derive(Debug, Clone)]
pub struct MlSubstrate {
    data: Dataset,
    model: Arc<MlModel>,
}

impl MlSubstrate {
    /// Builds the substrate over a labelled dataset.
    ///
    /// # Panics
    /// Panics if the dataset is unlabelled or smaller than two rows.
    #[must_use]
    pub fn new(data: Dataset) -> Self {
        let model = Arc::new(MlModel::fit(&data));
        Self { data, model }
    }
}

impl GameSubstrate for MlSubstrate {
    fn name(&self) -> &'static str {
        "ml"
    }

    fn new_scratch(&self) -> CellScratch {
        CellScratch::new(Box::new(MlArena::with_model(self.model.clone())))
    }

    fn run_cell(
        &self,
        cfg: &EquilibriumConfig,
        tth: f64,
        defender: Box<dyn ThresholdPolicy>,
        attacker: Box<dyn AttackPolicy>,
        board: Option<RangedBoard>,
        seed: u64,
        scratch: &mut CellScratch,
    ) -> CellOutcome {
        let ml = MlSimConfig {
            scheme: Scheme::BaselineStatic,
            tth,
            rounds: cfg.rounds,
            attack_ratio: cfg.attack_ratio,
            batch: cfg.batch,
            seed,
            red: 0.05,
            sketch_epsilon: cfg.sketch_epsilon,
        };
        let arena = scratch
            .arena
            .downcast_mut::<MlArena>()
            .expect("ml scratch carries an MlArena");
        let run = collect_poisoned_with_scratch(
            &self.data,
            &ml,
            defender,
            attacker,
            board,
            arena,
            &mut scratch.engine,
        );
        CellOutcome {
            collector_loss: -run.final_u_c / ml.rounds as f64,
            attacker_gain: run.final_u_a / ml.rounds as f64,
        }
    }

    fn closed_form(&self, cfg: &EquilibriumConfig) -> ClosedForm {
        ClosedForm::new(
            self.model.clean_scores().to_vec(),
            cfg.batch,
            cfg.attack_ratio,
            SurviveModel::PointMass,
        )
    }
}

/// The LDP report-stream substrate: honest users privatize with the
/// Piecewise Mechanism, attackers are protocol-compliant input
/// manipulators whose counterfeit input the response percentile maps to;
/// trimming cuts at calibration quantiles of the report stream.
#[derive(Debug, Clone)]
pub struct LdpSubstrate {
    population: Vec<f64>,
    epsilon: f64,
}

impl LdpSubstrate {
    /// Builds the substrate over `population` at privacy budget
    /// `epsilon`.
    ///
    /// # Panics
    /// Panics if the population is empty or `epsilon <= 0`.
    #[must_use]
    pub fn new(population: &[f64], epsilon: f64) -> Self {
        assert!(!population.is_empty(), "empty population");
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self {
            population: population.to_vec(),
            epsilon,
        }
    }

    fn ldp_config(&self, cfg: &EquilibriumConfig, tth: f64, seed: u64) -> LdpSimConfig {
        LdpSimConfig {
            epsilon: self.epsilon,
            attack_ratio: cfg.attack_ratio,
            users_per_round: cfg.batch,
            rounds: cfg.rounds,
            soft: tth,
            hard: (tth - 0.1).max(0.0),
            red: 0.03,
            seed,
            sketch_epsilon: cfg.sketch_epsilon,
        }
    }
}

impl GameSubstrate for LdpSubstrate {
    fn name(&self) -> &'static str {
        "ldp"
    }

    fn new_scratch(&self) -> CellScratch {
        CellScratch::new(Box::new(LdpArena::new()))
    }

    fn run_cell(
        &self,
        cfg: &EquilibriumConfig,
        tth: f64,
        defender: Box<dyn ThresholdPolicy>,
        attacker: Box<dyn AttackPolicy>,
        board: Option<RangedBoard>,
        seed: u64,
        scratch: &mut CellScratch,
    ) -> CellOutcome {
        let ldp = self.ldp_config(cfg, tth, seed);
        let arena = scratch
            .arena
            .downcast_mut::<LdpArena>()
            .expect("ldp scratch carries an LdpArena");
        let run = run_ldp_collection_with_scratch(
            &self.population,
            LdpDefense::TitForTat,
            &ldp,
            defender,
            attacker,
            board,
            arena,
            &mut scratch.engine,
        );
        CellOutcome {
            collector_loss: -run.final_u_c / ldp.rounds as f64,
            attacker_gain: run.final_u_a / ldp.rounds as f64,
        }
    }

    fn closed_form(&self, cfg: &EquilibriumConfig) -> ClosedForm {
        // A deterministic calibration sample stands in for the honest
        // report distribution (4× the per-round users for a smoother
        // quantile table than any single cell sees).
        let calib = ldp_calibration(
            &self.population,
            self.epsilon,
            cfg.batch.max(1) * 4,
            derive_seed(cfg.master_seed, LDP_CALIB_STREAM),
        );
        ClosedForm::new(
            calib,
            cfg.batch,
            cfg.attack_ratio,
            SurviveModel::LdpPiecewise(Piecewise::new(self.epsilon)),
        )
    }
}

/// The standard benchmark pool (uniform scalar stream, the same pool the
/// sweep and the snapshot contract use).
#[must_use]
pub fn standard_pool() -> Vec<f64> {
    (0..10_000).map(|i| (i % 1000) as f64 / 10.0).collect()
}

/// The standard ML benchmark dataset: the two-blob GMM the snapshot
/// contract collects on (deterministic).
#[must_use]
pub fn standard_ml_dataset() -> Dataset {
    let spec = GmmSpec::new(vec![
        GaussianComponent::spherical(vec![-8.0, 0.0], 1.0, 1.0),
        GaussianComponent::spherical(vec![8.0, 0.0], 1.0, 1.0),
    ]);
    spec.generate("blobs", 600, &mut seeded_rng(5))
}

/// The standard LDP benchmark population (bounded skewed stream, the same
/// population the snapshot contract uses).
#[must_use]
pub fn standard_ldp_population() -> Vec<f64> {
    (0..4_000)
        .map(|i| (2.0 * ((i % 1000) as f64 / 1000.0) - 1.0) * 0.7)
        .collect()
}

/// The standard substrate instance for `kind` (the one `expt equilibrium
/// --substrate` runs on).
#[must_use]
pub fn standard_substrate(kind: SubstrateKind) -> Box<dyn GameSubstrate> {
    match kind {
        SubstrateKind::Scalar => Box::new(ScalarSubstrate::new(&standard_pool())),
        SubstrateKind::Ml => Box::new(MlSubstrate::new(standard_ml_dataset())),
        SubstrateKind::Ldp => Box::new(LdpSubstrate::new(&standard_ldp_population(), 3.0)),
    }
}

/// The estimator's output: the measured game, both equilibria, and the
/// cross-check metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalEquilibrium {
    /// Which substrate the game was played on.
    pub substrate: &'static str,
    /// Defender threshold atoms (rows).
    pub defender_atoms: Vec<f64>,
    /// Attacker response atoms (columns).
    pub attacker_atoms: Vec<f64>,
    /// Mean collector loss per cell, over the seed grid.
    pub mean_loss: Vec<Vec<f64>>,
    /// Per-cell CI half-widths (`z·sd/√seeds`).
    pub ci_half_width: Vec<Vec<f64>>,
    /// The mixed equilibrium of the *measured* matrix.
    pub empirical: MixedEquilibrium,
    /// The closed-form expected-loss matrix of the same finite game.
    pub analytic_matrix: Vec<Vec<f64>>,
    /// The mixed equilibrium of the analytic matrix.
    pub analytic: MixedEquilibrium,
    /// `|empirical value − analytic value|`.
    pub value_gap: f64,
    /// The estimator's own tolerance on the value gap: the worst cell CI
    /// (the minimax value is 1-Lipschitz in the sup-norm) plus both
    /// fictitious-play duality half-gaps.
    pub gap_tolerance: f64,
    /// Best deterministic commitment in the *measured* game:
    /// `min_i max_j mean_loss[i][j]`. Same matrix as `empirical`, so the
    /// difference to `empirical.value` is pure mixing benefit.
    pub pure_empirical_value: f64,
    /// Best deterministic commitment restricted to the atom grid under
    /// the analytic continuum model (follower riding *at* the threshold —
    /// a slightly more pessimistic damage model than the measured columns
    /// at `atom − response_margin`; reported as a benchmark, not used for
    /// the advantage).
    pub pure_grid_value: f64,
    /// The continuum Stackelberg loss (golden-section over the whole
    /// interval, follower riding the threshold).
    pub stackelberg_value: f64,
    /// Seeds per cell.
    pub seeds: usize,
}

impl EmpiricalEquilibrium {
    /// True if the empirical equilibrium value agrees with the analytic
    /// one within the estimator's own tolerance.
    #[must_use]
    pub fn within_tolerance(&self) -> bool {
        self.value_gap <= self.gap_tolerance
    }

    /// How much the mixed equilibrium improves on the best deterministic
    /// threshold *in the same measured game* (non-negative up to the
    /// fictitious-play gap, since mixing can only help the minimizer):
    /// the randomized-prediction-games advantage.
    #[must_use]
    pub fn randomization_advantage(&self) -> f64 {
        self.pure_empirical_value - self.empirical.value
    }
}

/// The players of one seeded engine run: the scenario's quality-standard
/// anchor, both policies, and the public board an adaptive attacker
/// reads.
struct Matchup {
    tth: f64,
    defender: Box<dyn ThresholdPolicy>,
    attacker: Box<dyn AttackPolicy>,
    board: Option<RangedBoard>,
}

impl Matchup {
    /// The pure profile `(t, a)`: a fixed threshold at `t` (which also
    /// anchors the quality standard) against a fixed response at `a`.
    fn pure(t: f64, a: f64) -> Self {
        Self {
            tth: t,
            defender: Box::new(DefenderPolicy::Fixed { tth: t }),
            attacker: Box::new(AdversaryPolicy::Fixed { percentile: a }),
            board: None,
        }
    }

    /// The solved mixture `row_strategy` over the defender atoms, played
    /// as a fresh [`RandomizedDefender`] against `attacker`. The anchor is
    /// the lowest defender atom (nothing in the loss accounting reads it).
    fn mixed(
        cfg: &EquilibriumConfig,
        row_strategy: &[f64],
        attacker: Box<dyn AttackPolicy>,
        board: Option<RangedBoard>,
    ) -> Self {
        let defender =
            RandomizedDefender::new(&cfg.defender_atoms, row_strategy).expect("validated strategy");
        Self {
            tth: cfg.defender_atoms[0],
            defender: Box::new(defender),
            attacker,
            board,
        }
    }
}

/// One cell's seeded runs, folded.
struct CellStats {
    /// Collector loss per run.
    loss: OnlineStats,
    /// Attacker gain per run.
    gain: OnlineStats,
}

/// The one cell-measurement primitive: plays `cells × cfg.seeds` seeded
/// engine runs through the sweep workers and folds each cell's runs.
/// `matchup(cell, seed)` builds the players of one run; the seeds are
/// shared across cells (common random numbers), so payoff differences
/// between cells isolate the strategy pair.
///
/// Each run depends only on its (cell, seed) coordinates, never on the
/// worker scratch it reuses, so the result is identical for any worker
/// count.
fn measure_matchups<F>(
    sub: &dyn GameSubstrate,
    cfg: &EquilibriumConfig,
    cells: usize,
    matchup: F,
) -> Vec<CellStats>
where
    F: Fn(usize, u64) -> Matchup + Sync,
{
    let per_cell = cfg.seeds;
    let seeds: Vec<u64> = (0..per_cell as u64)
        .map(|s| derive_seed(cfg.master_seed, s))
        .collect();
    let runs = parallel_map_with(
        cells * per_cell,
        cfg.workers,
        || sub.new_scratch(),
        |scratch, idx| {
            let seed = seeds[idx % per_cell];
            let m = matchup(idx / per_cell, seed);
            sub.run_cell(cfg, m.tth, m.defender, m.attacker, m.board, seed, scratch)
        },
    );
    runs.chunks(per_cell)
        .map(|cell| {
            let mut stats = CellStats {
                loss: OnlineStats::new(),
                gain: OnlineStats::new(),
            };
            for run in cell {
                stats.loss.push(run.collector_loss);
                stats.gain.push(run.attacker_gain);
            }
            stats
        })
        .collect()
}

/// Measures pure `(threshold, response)` cells: per-cell `(mean loss, CI
/// half-width)` over the seed grid.
pub(crate) fn measure_cells(
    sub: &dyn GameSubstrate,
    cfg: &EquilibriumConfig,
    cells: &[(f64, f64)],
) -> Vec<(f64, f64)> {
    measure_matchups(sub, cfg, cells.len(), |c, _| {
        Matchup::pure(cells[c].0, cells[c].1)
    })
    .into_iter()
    .map(|c| {
        let se = (c.loss.sample_variance() / cfg.seeds as f64).sqrt();
        (c.loss.mean(), cfg.z * se)
    })
    .collect()
}

/// The measured payoff store of a (possibly growing) finite game: means
/// and CI half-widths in one stride-addressed allocation sized up front.
/// Appending a row or column writes into reserved slots — no
/// reallocation, and existing entries never move, so growth preserves
/// them bit-for-bit.
#[derive(Debug, Clone)]
pub(crate) struct PayoffArena {
    mean: Vec<f64>,
    ci: Vec<f64>,
    stride: usize,
    rows: usize,
    cols: usize,
}

impl PayoffArena {
    /// Measures the whole `d_atoms × a_atoms` block of pure cells in one
    /// fan-out (row-major) into an arena with room for `max_rows ×
    /// max_cols`. The dense estimate is this block over the full grid; the
    /// double oracle starts from it over its seed supports and grows.
    pub(crate) fn measure_block(
        sub: &dyn GameSubstrate,
        cfg: &EquilibriumConfig,
        d_atoms: &[f64],
        a_atoms: &[f64],
        (max_rows, max_cols): (usize, usize),
    ) -> Self {
        assert!(a_atoms.len() <= max_cols, "arena column capacity exceeded");
        let cells: Vec<(f64, f64)> = d_atoms
            .iter()
            .flat_map(|&t| a_atoms.iter().map(move |&a| (t, a)))
            .collect();
        let mut arena = Self {
            mean: vec![0.0; max_rows * max_cols],
            ci: vec![0.0; max_rows * max_cols],
            stride: max_cols,
            rows: 0,
            cols: a_atoms.len(),
        };
        for row in measure_cells(sub, cfg, &cells).chunks(a_atoms.len()) {
            arena.push_row(row);
        }
        arena
    }

    fn set(&mut self, i: usize, j: usize, (mean, ci): (f64, f64)) {
        self.mean[i * self.stride + j] = mean;
        self.ci[i * self.stride + j] = ci;
    }

    /// Appends one attacker column: `cells[i]` is the measured
    /// `(mean, ci)` of (defender atom `i`, the new response).
    pub(crate) fn push_col(&mut self, cells: &[(f64, f64)]) {
        assert_eq!(cells.len(), self.rows, "column height mismatch");
        let j = self.cols;
        assert!(j < self.stride, "arena column capacity exceeded");
        for (i, &cell) in cells.iter().enumerate() {
            self.set(i, j, cell);
        }
        self.cols += 1;
    }

    /// Appends one defender row: `cells[j]` is the measured `(mean, ci)`
    /// of (the new threshold, attacker atom `j`).
    pub(crate) fn push_row(&mut self, cells: &[(f64, f64)]) {
        assert_eq!(cells.len(), self.cols, "row width mismatch");
        let i = self.rows;
        assert!(
            i * self.stride < self.mean.len(),
            "arena row capacity exceeded"
        );
        for (j, &cell) in cells.iter().enumerate() {
            self.set(i, j, cell);
        }
        self.rows += 1;
    }

    fn matrix(&self, entries: &[f64]) -> Vec<Vec<f64>> {
        (0..self.rows)
            .map(|i| entries[i * self.stride..i * self.stride + self.cols].to_vec())
            .collect()
    }

    /// The measured mean-loss matrix.
    pub(crate) fn mean_matrix(&self) -> Vec<Vec<f64>> {
        self.matrix(&self.mean)
    }

    /// The per-cell CI half-widths.
    pub(crate) fn ci_matrix(&self) -> Vec<Vec<f64>> {
        self.matrix(&self.ci)
    }

    fn worst_ci(&self) -> f64 {
        self.ci_matrix()
            .iter()
            .flatten()
            .fold(0.0_f64, |w, &c| w.max(c))
    }
}

/// The analytic cross-check of a measured game.
pub(crate) struct CrossCheck {
    /// The closed-form expected-loss matrix over the same supports.
    pub(crate) matrix: Vec<Vec<f64>>,
    /// Its mixed equilibrium.
    pub(crate) equilibrium: MixedEquilibrium,
    /// `|measured value − analytic value|`.
    pub(crate) value_gap: f64,
    /// The estimator's own tolerance on that gap: the worst cell CI (the
    /// minimax value is 1-Lipschitz in the sup-norm of the matrix) plus
    /// both fictitious-play duality half-gaps.
    pub(crate) gap_tolerance: f64,
}

/// Solves the substrate's closed-form game over the supports `d_atoms ×
/// a_atoms` (cold, `fp_iterations`) and compares its value with the
/// `measured` equilibrium of `arena`. Both solvers run this same check.
pub(crate) fn cross_check(
    model: &ClosedForm,
    d_atoms: &[f64],
    a_atoms: &[f64],
    arena: &PayoffArena,
    measured: &MixedEquilibrium,
    fp_iterations: usize,
) -> CrossCheck {
    let matrix: Vec<Vec<f64>> = d_atoms
        .iter()
        .map(|&t| a_atoms.iter().map(|&a| model.loss(t, a)).collect())
        .collect();
    let equilibrium = MatrixGame::new(matrix.clone())
        .expect("finite analytic losses")
        .solve(fp_iterations);
    let value_gap = (measured.value - equilibrium.value).abs();
    let gap_tolerance = arena.worst_ci() + 0.5 * (measured.gap() + equilibrium.gap());
    CrossCheck {
        matrix,
        equilibrium,
        value_gap,
        gap_tolerance,
    }
}

/// Estimates the empirical payoff matrix on `sub` and solves both
/// equilibria.
///
/// The dense grid is the full-support block: every (row × column × seed)
/// run goes out in one `PayoffArena::measure_block` fan-out, the
/// measured matrix is solved cold at `cfg.fp_iterations`, and
/// `cross_check` compares it with the closed form. The result is
/// identical for any worker count.
///
/// # Panics
/// Panics if the configuration is degenerate.
#[must_use]
pub fn estimate_on(sub: &dyn GameSubstrate, cfg: &EquilibriumConfig) -> EmpiricalEquilibrium {
    cfg.validate();
    let attacker_atoms = cfg.attacker_atoms();
    let shape = (cfg.defender_atoms.len(), attacker_atoms.len());
    let arena = PayoffArena::measure_block(sub, cfg, &cfg.defender_atoms, &attacker_atoms, shape);
    let mean_loss = arena.mean_matrix();

    let empirical_game = MatrixGame::new(mean_loss.clone()).expect("finite means");
    let empirical = empirical_game.solve(cfg.fp_iterations);
    let pure_empirical_value = empirical_game.pure_commitment_value();

    let model = sub.closed_form(cfg);
    let check = cross_check(
        &model,
        &cfg.defender_atoms,
        &attacker_atoms,
        &arena,
        &empirical,
        cfg.fp_iterations,
    );
    let (stackelberg_value, pure_grid_value) = analytic_continuum(&model, cfg);

    EmpiricalEquilibrium {
        substrate: sub.name(),
        defender_atoms: cfg.defender_atoms.clone(),
        attacker_atoms,
        mean_loss,
        ci_half_width: arena.ci_matrix(),
        empirical,
        analytic_matrix: check.matrix,
        analytic: check.equilibrium,
        value_gap: check.value_gap,
        gap_tolerance: check.gap_tolerance,
        pure_empirical_value,
        pure_grid_value,
        stackelberg_value,
        seeds: cfg.seeds,
    }
}

/// The continuum Stackelberg benchmark: leader loss
/// `q·x + (1−q)·tail(x)` with the follower riding the threshold, solved
/// over the hull of the atom grid. Returns `(continuum value, best pure
/// commitment restricted to the atoms)`.
fn analytic_continuum(model: &ClosedForm, cfg: &EquilibriumConfig) -> (f64, f64) {
    let x_l = cfg.defender_atoms[0] - cfg.response_margin;
    let x_r = *cfg.defender_atoms.last().expect("non-empty atoms");
    let space = StrategySpace::new(x_l, x_r).expect("margin below the lowest atom");
    let poison_share = model.poison_share;
    let damage = move |x: f64| poison_share * x;
    let overhead = |x: f64| model.overhead(x);
    let solver = StackelbergSolver::new(space, damage, overhead);
    let continuum = solver.solve().map_or(f64::NAN, |eq| eq.leader_loss);
    let pure_grid = solver.pure_commitment_value(&cfg.defender_atoms);
    (continuum, pure_grid)
}

/// Realized play of a mixed defender strategy on a substrate: mean
/// per-round loss over the seed grid, against each pure attacker response
/// column.
///
/// Each (column × seed) run builds a fresh [`RandomizedDefender`] from
/// `row_strategy`; the policy sub-stream derives from the run's seed, so
/// the result is the same for any worker count — sweep-parallel ≡
/// sequential for randomized policies.
///
/// # Panics
/// Panics if `row_strategy` does not match the defender atoms or has no
/// mass.
#[must_use]
pub fn play_mixed_vs_columns_on(
    sub: &dyn GameSubstrate,
    cfg: &EquilibriumConfig,
    row_strategy: &[f64],
) -> Vec<OnlineStats> {
    cfg.validate();
    assert_eq!(
        row_strategy.len(),
        cfg.defender_atoms.len(),
        "strategy/atom mismatch"
    );
    let attacker_atoms = cfg.attacker_atoms();
    measure_matchups(sub, cfg, attacker_atoms.len(), |j, _| {
        let attacker = AdversaryPolicy::Fixed {
            percentile: attacker_atoms[j],
        };
        Matchup::mixed(cfg, row_strategy, Box::new(attacker), None)
    })
    .into_iter()
    .map(|c| c.loss)
    .collect()
}

/// Realized play of the solved equilibrium against the board-driven
/// [`AdaptiveAttacker`] on a substrate: mean per-round loss over the seed
/// grid.
///
/// # Panics
/// Panics on a degenerate configuration or strategy.
#[must_use]
pub fn play_vs_adaptive_on(
    sub: &dyn GameSubstrate,
    cfg: &EquilibriumConfig,
    row_strategy: &[f64],
) -> OnlineStats {
    cfg.validate();
    let cell = measure_matchups(sub, cfg, 1, |_, _| {
        let board = RangedBoard::unbounded();
        let attacker = AdaptiveAttacker::new(board.clone(), cfg.response_margin, 0.99);
        Matchup::mixed(cfg, row_strategy, Box::new(attacker), Some(board))
    })
    .pop()
    .expect("one cell");
    cell.loss
}

/// Outcome of playing the solved mixture against the no-regret
/// [`Exp3Attacker`] over a long horizon.
#[derive(Debug, Clone)]
pub struct Exp3Play {
    /// The attacker's realized mean per-round payoff, across seeds.
    pub attacker_payoff: OnlineStats,
    /// The collector's realized mean per-round loss, across seeds.
    pub collector_loss: OnlineStats,
    /// The horizon the attacker was tuned to and played for.
    pub rounds: usize,
    /// The certified average regret bound at that horizon (payoff units).
    pub regret_bound: f64,
}

/// Plays the solved defender mixture against [`Exp3Attacker`] over
/// `rounds` rounds (per seed) on a substrate. The attacker's response set
/// is the game's column set; its payoff bound is the substrate's poison
/// share (the maximum per-round percentile damage), and its private
/// sampling stream derives from the run's seed — replays are exact and
/// worker-count independent.
///
/// The equilibrium robustness contract: the attacker's long-run average
/// payoff can exceed the solved game value by at most the certified
/// regret bound (its best fixed response in hindsight is one of the
/// measured columns, whose value against the mixture is at most the
/// equilibrium upper bound).
///
/// # Panics
/// Panics on a degenerate configuration or strategy.
#[must_use]
pub fn play_vs_exp3(
    sub: &dyn GameSubstrate,
    cfg: &EquilibriumConfig,
    row_strategy: &[f64],
    rounds: usize,
) -> Exp3Play {
    cfg.validate();
    assert!(rounds > 0, "need at least one round");
    let attacker_atoms = cfg.attacker_atoms();
    let payoff_bound = batch_poison_share(cfg.batch, cfg.attack_ratio).max(1e-9);
    let exp3 = |seed: u64| {
        Exp3Attacker::new(&attacker_atoms, rounds, payoff_bound, seed)
            .expect("validated response set")
    };
    let play_cfg = EquilibriumConfig {
        rounds,
        ..cfg.clone()
    };
    let cell = measure_matchups(sub, &play_cfg, 1, |_, seed| {
        let attacker = exp3(derive_seed(seed, EXP3_SEED_STREAM));
        Matchup::mixed(cfg, row_strategy, Box::new(attacker), None)
    })
    .pop()
    .expect("one cell");
    Exp3Play {
        attacker_payoff: cell.gain,
        collector_loss: cell.loss,
        rounds,
        regret_bound: exp3(0).average_regret_bound(rounds),
    }
}

/// The `expt equilibrium` experiment report for `run`: its substrate's
/// smoke or full grid, with `run`'s seed count, sketch ε and worker
/// count, through the dense grid or (`run.double_oracle`) the
/// double-oracle solver.
///
/// # Panics
/// Panics on a degenerate configuration.
#[must_use]
pub fn equilibrium_report(run: &RunConfig) -> String {
    let kind = run.substrate;
    let mut cfg = if run.smoke {
        EquilibriumConfig::smoke_for(kind)
    } else {
        EquilibriumConfig::default_for(kind)
    };
    if let Some(seeds) = run.eq_seeds {
        cfg.seeds = seeds;
    }
    cfg.sketch_epsilon = run.sketch_epsilon;
    cfg.workers = run.workers;
    if run.double_oracle {
        crate::double_oracle::double_oracle_report_for(kind, &cfg)
    } else {
        equilibrium_report_for(kind, &cfg)
    }
}

/// The `expt equilibrium` experiment report on `kind`'s standard
/// substrate.
///
/// # Panics
/// Panics on a degenerate configuration.
#[must_use]
pub fn equilibrium_report_for(kind: SubstrateKind, cfg: &EquilibriumConfig) -> String {
    let sub = standard_substrate(kind);
    let est = estimate_on(&*sub, cfg);
    let rows = est.defender_atoms.len();
    let cols = est.attacker_atoms.len();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Empirical equilibrium [{} substrate]: {rows}x{cols} threshold game, {} seeds/cell, {} rounds x {} batch ==",
        est.substrate, est.seeds, cfg.rounds, cfg.batch
    );
    if let Some(eps) = cfg.sketch_epsilon {
        let _ = writeln!(
            out,
            "sketch-native defender: cuts resolved from a GK quantile sketch, rank error epsilon = {eps}"
        );
    }
    let _ = writeln!(
        out,
        "collector loss per round, mean +/- {:.2}sigma CI (rows: defender atoms; cols: attacker just-below responses)",
        cfg.z
    );
    let _ = write!(out, "{:>8}", "");
    for a in &est.attacker_atoms {
        let _ = write!(out, " {a:>15.3}");
    }
    let _ = writeln!(out);
    for i in 0..rows {
        let _ = write!(out, "{:>8.3}", est.defender_atoms[i]);
        for j in 0..cols {
            let _ = write!(
                out,
                " {:>7.4}+/-{:>6.4}",
                est.mean_loss[i][j], est.ci_half_width[i][j]
            );
        }
        let _ = writeln!(out);
    }

    let weights = |w: &[f64]| {
        w.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "empirical equilibrium: value {:.5} (bounds [{:.5}, {:.5}], fp gap {:.1e})",
        est.empirical.value,
        est.empirical.lower,
        est.empirical.upper,
        est.empirical.gap()
    );
    let _ = writeln!(
        out,
        "  defender mix [{}] | attacker mix [{}]",
        weights(&est.empirical.row_strategy),
        weights(&est.empirical.col_strategy)
    );
    let _ = writeln!(
        out,
        "analytic equilibrium:  value {:.5} (bounds [{:.5}, {:.5}], fp gap {:.1e})",
        est.analytic.value,
        est.analytic.lower,
        est.analytic.upper,
        est.analytic.gap()
    );
    let _ = writeln!(
        out,
        "  defender mix [{}] | attacker mix [{}]",
        weights(&est.analytic.row_strategy),
        weights(&est.analytic.col_strategy)
    );
    let _ = writeln!(
        out,
        "value gap {:.5} vs estimator tolerance {:.5} -> {}",
        est.value_gap,
        est.gap_tolerance,
        if est.within_tolerance() {
            "WITHIN CI"
        } else {
            "OUTSIDE CI"
        }
    );
    let _ = writeln!(
        out,
        "pure commitment (measured game) {:.5} -> randomization advantage {:.5}",
        est.pure_empirical_value,
        est.randomization_advantage()
    );
    let _ = writeln!(
        out,
        "analytic benchmarks: pure commitment on the grid {:.5} | continuum Stackelberg {:.5}",
        est.pure_grid_value, est.stackelberg_value
    );

    // Play the solved mixture through the engine.
    let realized = play_mixed_vs_columns_on(&*sub, cfg, &est.empirical.row_strategy);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "played equilibrium (RandomizedDefender on the solved mix) vs pure responses:"
    );
    for (j, stats) in realized.iter().enumerate() {
        let predicted: f64 = (0..rows)
            .map(|i| est.empirical.row_strategy[i] * est.mean_loss[i][j])
            .sum();
        let _ = writeln!(
            out,
            "  vs a={:.3}: realized {:.5} (sd {:.5}) | matrix prediction {:.5}",
            est.attacker_atoms[j],
            stats.mean(),
            stats.sample_variance().sqrt(),
            predicted
        );
    }
    let adaptive = play_vs_adaptive_on(&*sub, cfg, &est.empirical.row_strategy);
    let _ = writeln!(
        out,
        "  vs AdaptiveAttacker (board-driven best response): realized {:.5} (sd {:.5}); equilibrium upper bound {:.5}",
        adaptive.mean(),
        adaptive.sample_variance().sqrt(),
        est.empirical.upper
    );

    // No-regret robustness: the Exp3 bandit over the response columns.
    let exp3_rounds = (cfg.rounds * 30).max(300);
    let exp3 = play_vs_exp3(&*sub, cfg, &est.empirical.row_strategy, exp3_rounds);
    let _ = writeln!(
        out,
        "  vs Exp3Attacker ({} rounds, no-regret bandit): avg payoff {:.5} <= value {:.5} + regret bound {:.5} -> {}",
        exp3.rounds,
        exp3.attacker_payoff.mean(),
        est.empirical.value,
        exp3.regret_bound,
        if exp3.attacker_payoff.mean() <= est.empirical.value + exp3.regret_bound {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );

    // Price the sketch's rank error into the game: the defender's cut
    // carries up to ε of quantile slack the adversary can hide inside,
    // so the equilibrium value traces how much evasion headroom each ε
    // buys relative to exact cuts.
    if let Some(eps) = cfg.sketch_epsilon {
        let mut exact_cfg = cfg.clone();
        exact_cfg.sketch_epsilon = None;
        let exact = estimate_on(&*sub, &exact_cfg).empirical.value;
        let mut grid: Vec<f64> = [0.5 * eps, eps, 2.0 * eps]
            .into_iter()
            .filter(|e| *e > 0.0 && *e < 0.5)
            .collect();
        grid.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "equilibrium value vs sketch epsilon (exact-cut baseline {exact:.5}):"
        );
        for e in grid {
            let value = if (e - eps).abs() < 1e-12 {
                est.empirical.value
            } else {
                let mut sweep_cfg = cfg.clone();
                sweep_cfg.sketch_epsilon = Some(e);
                estimate_on(&*sub, &sweep_cfg).empirical.value
            };
            let _ = writeln!(
                out,
                "  epsilon {e:.4}: value {value:.5} (delta vs exact {:+.5})",
                value - exact
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EquilibriumConfig {
        EquilibriumConfig {
            defender_atoms: vec![0.88, 0.92, 0.96],
            response_margin: 0.01,
            seeds: 3,
            master_seed: 7,
            rounds: 4,
            batch: 200,
            attack_ratio: 0.2,
            workers: 1,
            fp_iterations: 20_000,
            z: 3.0,
            sketch_epsilon: None,
        }
    }

    #[test]
    fn estimate_is_scheduling_independent() {
        let sub = ScalarSubstrate::new(&standard_pool());
        let cfg = tiny();
        let sequential = estimate_on(&sub, &cfg);
        for workers in [2, 4, 7] {
            let mut c = cfg.clone();
            c.workers = workers;
            let parallel = estimate_on(&sub, &c);
            assert_eq!(
                sequential.mean_loss, parallel.mean_loss,
                "workers={workers}"
            );
            assert_eq!(sequential.empirical, parallel.empirical);
            assert_eq!(sequential.analytic, parallel.analytic);
        }
    }

    #[test]
    fn randomized_play_is_scheduling_independent() {
        // Satellite contract: sweep-parallel == sequential holds for
        // randomized (sub-stream-sampling) policies too.
        let sub = ScalarSubstrate::new(&standard_pool());
        let cfg = tiny();
        let mix = [0.2, 0.5, 0.3];
        let seq: Vec<f64> = play_mixed_vs_columns_on(&sub, &cfg, &mix)
            .iter()
            .map(OnlineStats::mean)
            .collect();
        for workers in [2, 5] {
            let mut c = cfg.clone();
            c.workers = workers;
            let par: Vec<f64> = play_mixed_vs_columns_on(&sub, &c, &mix)
                .iter()
                .map(OnlineStats::mean)
                .collect();
            assert_eq!(seq, par, "workers={workers}");
        }
        let a = play_vs_adaptive_on(&sub, &cfg, &mix);
        let mut c = cfg.clone();
        c.workers = 3;
        let b = play_vs_adaptive_on(&sub, &c, &mix);
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn empirical_value_matches_analytic_within_ci() {
        // Satellite contract: on the 3x3 smoke game the estimated
        // equilibrium value falls within the estimator's own confidence
        // interval of the analytic value.
        let sub = ScalarSubstrate::new(&standard_pool());
        let est = estimate_on(&sub, &EquilibriumConfig::smoke());
        assert_eq!(est.substrate, "scalar");
        assert!(
            est.within_tolerance(),
            "gap {} tolerance {}",
            est.value_gap,
            est.gap_tolerance
        );
        // The matrix means themselves sit near the closed form. Per-cell
        // CIs estimated from 2 samples are too noisy for a cellwise
        // assertion, so run this part with enough seeds for a stable
        // standard-error estimate.
        let mut cfg = EquilibriumConfig::smoke();
        cfg.seeds = 8;
        let est = estimate_on(&sub, &cfg);
        for i in 0..est.defender_atoms.len() {
            for j in 0..est.attacker_atoms.len() {
                let diff = (est.mean_loss[i][j] - est.analytic_matrix[i][j]).abs();
                assert!(
                    diff <= est.ci_half_width[i][j] + 1e-9,
                    "cell ({i},{j}): diff {diff} ci {}",
                    est.ci_half_width[i][j]
                );
            }
        }
        assert!(est.within_tolerance());
    }

    #[test]
    fn randomization_advantage_is_nonnegative() {
        let sub = ScalarSubstrate::new(&standard_pool());
        let est = estimate_on(&sub, &EquilibriumConfig::smoke());
        // Mixing can only help the defender in the same measured game
        // (up to the fictitious-play gap).
        assert!(
            est.randomization_advantage() >= -est.empirical.gap() - 1e-9,
            "advantage {}",
            est.randomization_advantage()
        );
        // On this game the advantage is strictly positive: every pure row
        // is exploitable by some just-below response.
        assert!(est.randomization_advantage() > 0.0);
        // And the grid-restricted pure value can never beat the continuum.
        assert!(est.pure_grid_value >= est.stackelberg_value - 1e-9);
    }

    #[test]
    fn report_renders_and_is_deterministic() {
        let cfg = tiny();
        let a = equilibrium_report_for(SubstrateKind::Scalar, &cfg);
        let b = equilibrium_report_for(SubstrateKind::Scalar, &cfg);
        assert_eq!(a, b);
        assert!(a.contains("empirical equilibrium"));
        assert!(a.contains("AdaptiveAttacker"));
        assert!(a.contains("Exp3Attacker"));
        assert!(a.contains("WITHIN CI") || a.contains("OUTSIDE CI"));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_atoms_rejected() {
        let mut cfg = tiny();
        cfg.defender_atoms = vec![0.95, 0.9];
        let _ = estimate_on(&ScalarSubstrate::new(&standard_pool()), &cfg);
    }

    #[test]
    fn dense_estimate_is_pinned_on_the_smoke_game() {
        // Contract: the dense estimator's output on the scalar smoke game,
        // bit for bit. Any change to the measurement fan-out, the per-cell
        // fold, the seed streams or the cold solve shows up here.
        let est = estimate_on(
            &ScalarSubstrate::new(&standard_pool()),
            &EquilibriumConfig::smoke(),
        );
        let bits = |m: &[Vec<f64>]| -> Vec<Vec<u64>> {
            m.iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            [
                est.empirical.value,
                est.empirical.lower,
                est.empirical.upper,
                est.pure_empirical_value
            ]
            .map(f64::to_bits),
            [
                0x3fc7_a33d_8bc3_5ed7,
                0x3fc7_a028_2913_f580,
                0x3fc7_a652_ee72_c82e,
                0x3fc8_c28f_5c28_f5c2
            ]
        );
        assert_eq!(
            bits(&est.mean_loss),
            [
                [
                    0x3fd0_0bf2_58bf_258c,
                    0x3fbb_1111_1111_1112,
                    0x3fbb_1111_1111_1112
                ],
                [
                    0x3fcb_da74_0da7_40dc,
                    0x3fcc_b4e8_1b4e_81b5,
                    0x3fb2_962f_c962_fc96
                ],
                [
                    0x3fc7_0da7_40da_740c,
                    0x3fc7_e81b_4e81_b4e9,
                    0x3fc8_c28f_5c28_f5c2
                ],
            ]
        );
        assert_eq!(
            bits(&est.ci_half_width),
            [
                [
                    0x3f75_c28f_5c28_f5c0,
                    0x3f75_c28f_5c28_f5e4,
                    0x3f75_c28f_5c28_f5e4
                ],
                [
                    0x3f75_c28f_5c28_f5a8,
                    0x3f75_c28f_5c28_f620,
                    0x3f75_c28f_5c28_f5c0
                ],
                [
                    0x3f7a_e147_ae14_7ab8,
                    0x3f7a_e147_ae14_7b00,
                    0x3f7a_e147_ae14_7ab8
                ],
            ]
        );
    }

    /// A scalar substrate whose cells must never run.
    struct NoCells(ScalarSubstrate);

    impl GameSubstrate for NoCells {
        fn name(&self) -> &'static str {
            "no-cells"
        }

        fn new_scratch(&self) -> CellScratch {
            self.0.new_scratch()
        }

        fn run_cell(
            &self,
            _: &EquilibriumConfig,
            _: f64,
            _: Box<dyn ThresholdPolicy>,
            _: Box<dyn AttackPolicy>,
            _: Option<RangedBoard>,
            _: u64,
            _: &mut CellScratch,
        ) -> CellOutcome {
            panic!("a cell ran before the configuration was validated")
        }

        fn closed_form(&self, cfg: &EquilibriumConfig) -> ClosedForm {
            self.0.closed_form(cfg)
        }
    }

    #[test]
    #[should_panic(expected = "fictitious-play iteration")]
    fn zero_fp_iterations_rejected_before_any_cell_runs() {
        let mut cfg = tiny();
        cfg.fp_iterations = 0;
        let _ = estimate_on(&NoCells(ScalarSubstrate::new(&standard_pool())), &cfg);
    }

    #[test]
    fn eq_seeds_parse() {
        assert_eq!(parse_eq_seeds("2"), Ok(2));
        assert_eq!(parse_eq_seeds("12"), Ok(12));
        for bad in ["abc", "1", "0", "", "-3", "2.5"] {
            let err = parse_eq_seeds(bad).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn sketch_epsilon_parse() {
        for off in ["", "0", "false", "FALSE"] {
            assert_eq!(parse_sketch_epsilon(off), Ok(None), "{off:?}");
        }
        for on in ["1", "true", "True"] {
            assert_eq!(
                parse_sketch_epsilon(on),
                Ok(Some(DEFAULT_SKETCH_EPSILON)),
                "{on:?}"
            );
        }
        assert_eq!(parse_sketch_epsilon("0.05"), Ok(Some(0.05)));
        for bad in ["abc", "0.5", "-0.1", "2", "nan"] {
            let err = parse_sketch_epsilon(bad).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn ml_substrate_equilibrium_within_ci_and_robust() {
        // Tentpole contract: the pipeline runs end-to-end on the ML
        // substrate — value gap within the estimator's CI, and the played
        // mixture's loss against the adaptive attacker stays below the
        // solved equilibrium upper bound (plus its own standard error).
        let sub = MlSubstrate::new(standard_ml_dataset());
        let cfg = EquilibriumConfig::smoke_for(SubstrateKind::Ml);
        let est = estimate_on(&sub, &cfg);
        assert_eq!(est.substrate, "ml");
        assert!(
            est.within_tolerance(),
            "gap {} tolerance {}",
            est.value_gap,
            est.gap_tolerance
        );
        let adaptive = play_vs_adaptive_on(&sub, &cfg, &est.empirical.row_strategy);
        let slack = cfg.z * (adaptive.sample_variance() / cfg.seeds as f64).sqrt();
        assert!(
            adaptive.mean() <= est.empirical.upper + slack,
            "adaptive {} vs upper {} (+{slack})",
            adaptive.mean(),
            est.empirical.upper
        );
    }

    #[test]
    fn ldp_substrate_equilibrium_within_ci_and_robust() {
        // Same contract on the LDP substrate; here the closed form is the
        // Piecewise Mechanism's exact CDF, so survival is probabilistic.
        let sub = LdpSubstrate::new(&standard_ldp_population(), 3.0);
        let cfg = EquilibriumConfig::smoke_for(SubstrateKind::Ldp);
        let est = estimate_on(&sub, &cfg);
        assert_eq!(est.substrate, "ldp");
        assert!(
            est.within_tolerance(),
            "gap {} tolerance {}",
            est.value_gap,
            est.gap_tolerance
        );
        // Survival under an LDP cut is genuinely interior: the analytic
        // matrix must contain probabilities strictly between 0 and 1.
        let model = sub.closed_form(&cfg);
        let interior = cfg
            .defender_atoms
            .iter()
            .flat_map(|&t| {
                cfg.attacker_atoms()
                    .iter()
                    .map(move |&a| (t, a))
                    .collect::<Vec<_>>()
            })
            .any(|(t, a)| {
                let p = model.survive_prob(a, t);
                p > 0.01 && p < 0.99
            });
        assert!(interior, "LDP survival should be probabilistic");
        let adaptive = play_vs_adaptive_on(&sub, &cfg, &est.empirical.row_strategy);
        let slack = cfg.z * (adaptive.sample_variance() / cfg.seeds as f64).sqrt();
        assert!(
            adaptive.mean() <= est.empirical.upper + slack,
            "adaptive {} vs upper {} (+{slack})",
            adaptive.mean(),
            est.empirical.upper
        );
    }

    #[test]
    fn substrate_estimates_are_scheduling_independent() {
        // The ML and LDP cells fan through the same parallel_map; their
        // outcomes must be identical for any worker count.
        let ml = MlSubstrate::new(standard_ml_dataset());
        let mut cfg = EquilibriumConfig::smoke_for(SubstrateKind::Ml);
        cfg.seeds = 2;
        cfg.rounds = 3;
        cfg.batch = 100;
        cfg.workers = 1;
        let seq = estimate_on(&ml, &cfg);
        cfg.workers = 4;
        let par = estimate_on(&ml, &cfg);
        assert_eq!(seq.mean_loss, par.mean_loss);
        assert_eq!(seq.empirical, par.empirical);

        let ldp = LdpSubstrate::new(&standard_ldp_population(), 3.0);
        let mut cfg = EquilibriumConfig::smoke_for(SubstrateKind::Ldp);
        cfg.seeds = 2;
        cfg.rounds = 2;
        cfg.batch = 200;
        cfg.workers = 1;
        let seq = estimate_on(&ldp, &cfg);
        cfg.workers = 5;
        let par = estimate_on(&ldp, &cfg);
        assert_eq!(seq.mean_loss, par.mean_loss);
        assert_eq!(seq.empirical, par.empirical);
    }

    #[test]
    fn sketch_native_estimates_are_deterministic_and_priced() {
        // Acceptance contract for the sketch-native substrates: with the
        // sketch-ε knob on, the ML and LDP estimates stay scheduling
        // independent (the sketch build consumes no randomness), and the
        // equilibrium value responds to ε — the defender's cut carries
        // rank slack, so the value differs from the exact-cut game.
        for kind in [SubstrateKind::Ml, SubstrateKind::Ldp] {
            let sub = standard_substrate(kind);
            let mut cfg = EquilibriumConfig::smoke_for(kind);
            cfg.seeds = 2;
            cfg.rounds = 2;
            cfg.batch = if kind == SubstrateKind::Ml { 100 } else { 200 };
            cfg.sketch_epsilon = Some(0.05);
            cfg.workers = 1;
            let seq = estimate_on(&*sub, &cfg);
            cfg.workers = 8;
            let par = estimate_on(&*sub, &cfg);
            assert_eq!(seq.mean_loss, par.mean_loss, "{kind:?} sketch determinism");
            assert_eq!(seq.empirical, par.empirical, "{kind:?} sketch determinism");

            cfg.sketch_epsilon = None;
            let exact = estimate_on(&*sub, &cfg);
            assert!(
                seq.mean_loss != exact.mean_loss,
                "{kind:?}: a 5% rank error should perturb at least one payoff cell"
            );
        }
    }

    #[test]
    fn sketch_report_prices_epsilon() {
        // The report carries the value-vs-ε curve when the sketch-native
        // defender is on.
        let mut cfg = tiny();
        cfg.seeds = 2;
        cfg.rounds = 2;
        cfg.batch = 120;
        cfg.sketch_epsilon = Some(0.04);
        let report = equilibrium_report_for(SubstrateKind::Ml, &cfg);
        assert!(report.contains("sketch-native defender"), "{report}");
        assert!(
            report.contains("equilibrium value vs sketch epsilon"),
            "{report}"
        );
        assert!(report.contains("epsilon 0.0400"), "{report}");
        assert!(report.contains("epsilon 0.0800"), "{report}");
    }

    #[test]
    fn exp3_average_payoff_stays_below_value_plus_regret() {
        // Acceptance contract (fixed seed): the no-regret attacker's
        // long-run average payoff converges below the solved game value
        // plus its certified regret bound.
        let sub = ScalarSubstrate::new(&standard_pool());
        let cfg = EquilibriumConfig::smoke();
        let est = estimate_on(&sub, &cfg);
        let rounds = 400;
        let play = play_vs_exp3(&sub, &cfg, &est.empirical.row_strategy, rounds);
        assert!(play.regret_bound > 0.0);
        assert!(
            play.attacker_payoff.mean() <= est.empirical.value + play.regret_bound,
            "exp3 payoff {} vs value {} + bound {}",
            play.attacker_payoff.mean(),
            est.empirical.value,
            play.regret_bound
        );
        // Deterministic and worker-count independent.
        let mut c = cfg.clone();
        c.workers = 4;
        let again = play_vs_exp3(&sub, &c, &est.empirical.row_strategy, rounds);
        assert_eq!(play.attacker_payoff.mean(), again.attacker_payoff.mean());
    }
}
