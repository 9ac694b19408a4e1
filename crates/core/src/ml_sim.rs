//! Multi-dimensional poisoned-collection pipeline for the k-means / SVM /
//! SOM experiments (Figs. 4–8).
//!
//! For feature-vector data the trimming game is played on the classic
//! distance scalar (Kloft & Laskov's centroid anomaly score): each point's
//! Euclidean distance to the nearest centroid of the *clean clustering*
//! (k-means on the collector's clean history — no labels needed). The
//! adversary is a colluding Sybil batch that materializes its poison as a
//! per-round point mass at a chosen score percentile of the clean
//! reference distribution; the collector trims every point whose score
//! exceeds the reference value of its threshold percentile. The
//! defender/adversary position dynamics are exactly those of
//! [`crate::simulation`]; this module adds the geometry, the retained
//! training set, and the three learners' metrics.

use crate::engine::{
    provenance_counts, EngineRun, EngineScratch, EngineStepper, EngineTotals, RoundReport, Scenario,
};
use crate::simulation::{policy_seed, Scheme};
use rand::Rng;
use std::borrow::BorrowMut;
use trimgame_datasets::Dataset;
use trimgame_ml::kmeans::{KMeans, KMeansConfig};
use trimgame_ml::som::{Som, SomConfig};
use trimgame_ml::svm::{SvmConfig, SvmModel};
use trimgame_numerics::quantile::{percentile_of, Interpolation};
use trimgame_numerics::rand_ext::{seeded_rng, standard_normal};
use trimgame_numerics::stats::{euclidean, OnlineStats};
use trimgame_stream::trim::{SketchThreshold, TrimScratch};

/// Configuration of a poisoned multi-round collection over a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlSimConfig {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Nominal threshold `Tth` (0.9 for Fig. 4, 0.97 for Fig. 5, 0.95 for
    /// Fig. 7).
    pub tth: f64,
    /// Rounds of collection (paper: 20).
    pub rounds: usize,
    /// Attack ratio.
    pub attack_ratio: f64,
    /// Benign rows sampled per round.
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Tit-for-tat redundancy on the quality scale.
    pub red: f64,
    /// Rank error of the memory-bounded threshold source. `Some(ε)`
    /// resolves the trimming cut from a GK sketch of the clean
    /// anomaly-score stream instead of the exact sorted table — the
    /// sketch-native game, where ε is evasion headroom the adversary can
    /// price (exactly as on the scalar substrate). `None` keeps the exact
    /// cut.
    pub sketch_epsilon: Option<f64>,
}

impl MlSimConfig {
    /// Fig. 4-style defaults for `scheme` at `attack_ratio`.
    #[must_use]
    pub fn new(scheme: Scheme, tth: f64, attack_ratio: f64, seed: u64) -> Self {
        Self {
            scheme,
            tth,
            rounds: 20,
            attack_ratio,
            batch: 200,
            seed,
            red: 0.05,
            sketch_epsilon: None,
        }
    }
}

/// Result of a poisoned collection: the retained training set (benign rows
/// keep their labels, poison rows carry adversary-chosen labels) plus
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct CollectedSet {
    /// Retained rows as a dataset (labels preserved/poisoned).
    pub retained: Dataset,
    /// Provenance: `true` = poison row.
    pub is_poison: Vec<bool>,
    /// Poison rows received / survived across all rounds.
    pub poison_received: usize,
    /// Poison rows that survived trimming.
    pub poison_survived: usize,
    /// Benign rows falsely trimmed.
    pub benign_trimmed: usize,
}

impl CollectedSet {
    /// Fraction of retained rows that are poison.
    #[must_use]
    pub fn surviving_poison_fraction(&self) -> f64 {
        if self.is_poison.is_empty() {
            0.0
        } else {
            self.is_poison.iter().filter(|&&p| p).count() as f64 / self.is_poison.len() as f64
        }
    }
}

/// The clean reference model of the feature-vector game: the clean
/// k-means centroids and the sorted clean anomaly-score distribution.
/// Depends only on the dataset — fit it once ([`MlModel::fit`]) and
/// share it (`Arc`) across every run, worker and payoff cell on that
/// dataset; fitting is by far the most expensive part of constructing an
/// ML game.
#[derive(Debug, Clone)]
pub struct MlModel {
    centroids: Vec<Vec<f64>>,
    clean_scores: Vec<f64>,
}

impl MlModel {
    /// Fits the clean clustering and its score distribution.
    ///
    /// # Panics
    /// Panics if the dataset is unlabelled or smaller than two rows.
    #[must_use]
    pub fn fit(data: &Dataset) -> Self {
        assert!(data.labels().is_some(), "collect_poisoned needs labels");
        assert!(data.rows() >= 2, "dataset too small");
        // Anomaly score: distance to the nearest centroid of the *clean
        // clustering* (Kloft & Laskov's centroid sanitization, per
        // cluster). The collector has no labels; its public quality
        // standard is the k-means structure of the clean history — the
        // same centroids the Figs. 4/5 "Distance" metric is measured
        // against.
        let centroids = kmeans_truth(data);
        let score = |row: &[f64]| -> f64 {
            centroids
                .iter()
                .map(|c| euclidean(row, c))
                .fold(f64::INFINITY, f64::min)
        };
        let mut clean_scores: Vec<f64> = data.iter_rows().map(score).collect();
        clean_scores.sort_by(|a, b| a.partial_cmp(b).expect("NaN distance"));
        Self {
            centroids,
            clean_scores,
        }
    }

    /// The clean k-means centroids.
    #[must_use]
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// The sorted clean anomaly-score distribution.
    #[must_use]
    pub fn clean_scores(&self) -> &[f64] {
        &self.clean_scores
    }

    fn score(&self, row: &[f64]) -> f64 {
        self.centroids
            .iter()
            .map(|c| euclidean(row, c))
            .fold(f64::INFINITY, f64::min)
    }

    fn ref_at(&self, p: f64) -> f64 {
        trimgame_numerics::quantile::percentile_sorted(
            &self.clean_scores,
            p.clamp(0.0, 1.0),
            Interpolation::Linear,
        )
    }
}

/// Reusable per-round buffers of the ML round step: the flat batch
/// matrix, labels, provenance, the anomaly scores and the trim scratch.
#[derive(Debug, Clone, Default)]
pub struct MlBufs {
    /// Row-major batch matrix (`received × cols`).
    rows: Vec<f64>,
    labels: Vec<usize>,
    is_poison: Vec<bool>,
    dists: Vec<f64>,
    dir: Vec<f64>,
    poison_row: Vec<f64>,
    trim: TrimScratch,
}

/// A worker's reusable ML game state: the shared clean model plus the
/// round buffers. Build one per worker ([`MlArena::new`] fits the model;
/// [`MlArena::with_model`] shares an already-fitted one) and reuse it
/// across seeded runs via [`collect_poisoned_with_scratch`].
#[derive(Debug, Clone)]
pub struct MlArena {
    model: std::sync::Arc<MlModel>,
    bufs: MlBufs,
    /// The memory-bounded threshold source of the sketch-native game,
    /// cached by its rank error: a GK sketch fed the clean anomaly-score
    /// stream once (batched). Rebuilt only when a run asks for a
    /// different ε; `None` while every run uses the exact cut.
    sketch: Option<(f64, SketchThreshold)>,
}

impl MlArena {
    /// Fits the clean model and creates empty buffers.
    ///
    /// # Panics
    /// Panics if the dataset is unlabelled or smaller than two rows.
    #[must_use]
    pub fn new(data: &Dataset) -> Self {
        Self::with_model(std::sync::Arc::new(MlModel::fit(data)))
    }

    /// Wraps an already-fitted shared model.
    #[must_use]
    pub fn with_model(model: std::sync::Arc<MlModel>) -> Self {
        Self {
            model,
            bufs: MlBufs::default(),
            sketch: None,
        }
    }

    /// The shared clean model.
    #[must_use]
    pub fn model(&self) -> &std::sync::Arc<MlModel> {
        &self.model
    }

    /// Aligns the cached threshold sketch with a run's `sketch_epsilon`:
    /// drops it for exact-cut runs, keeps it when ε is unchanged, and
    /// otherwise ingests the clean score stream into a fresh sketch in
    /// one batched pass.
    fn ensure_sketch(&mut self, epsilon: Option<f64>) {
        match epsilon {
            None => self.sketch = None,
            Some(e) => {
                if self.sketch.as_ref().map(|(have, _)| *have) != Some(e) {
                    let mut s = SketchThreshold::new(e);
                    s.observe(&self.model.clean_scores);
                    self.sketch = Some((e, s));
                }
            }
        }
    }
}

/// The dataset-independent parameters of one ML game run.
#[derive(Debug, Clone, Copy)]
struct MlParams {
    ref_value: f64,
    expected_tail: f64,
    batch: usize,
    attack_ratio: f64,
    classes: usize,
}

impl MlParams {
    fn new(model: &MlModel, data: &Dataset, cfg: &MlSimConfig) -> Self {
        Self {
            ref_value: model.ref_at(cfg.tth.clamp(0.0, 1.0)),
            expected_tail: 1.0 - cfg.tth,
            batch: cfg.batch,
            attack_ratio: cfg.attack_ratio,
            classes: data.clusters().max(1),
        }
    }
}

/// One ML round: benign sample into the flat batch matrix, the colluding
/// Sybil point mass at the injection score percentile, score trimming at
/// the cut, payoff accounting. The batch matrix, labels, provenance and
/// kept mask are left in `bufs` for a recording scenario.
#[allow(clippy::too_many_arguments)] // one arg per game ingredient, like the LDP round
fn ml_round<R: Rng + ?Sized>(
    data: &Dataset,
    model: &MlModel,
    params: &MlParams,
    bufs: &mut MlBufs,
    sketch: Option<&SketchThreshold>,
    threshold: f64,
    injection: f64,
    rng: &mut R,
) -> RoundReport {
    let injection = injection.clamp(0.0, 1.0);
    let cols = data.cols();

    // Benign sample (flat rows; draws identical to the historical
    // row-per-Vec form).
    bufs.rows.clear();
    bufs.labels.clear();
    bufs.is_poison.clear();
    bufs.rows.reserve(params.batch * cols);
    for _ in 0..params.batch {
        let i = rng.gen_range(0..data.rows());
        bufs.rows.extend_from_slice(data.row(i));
        bufs.labels.push(data.label(i).expect("labelled"));
        bufs.is_poison.push(false);
    }
    // Poison points at the injection score percentile (of the clean
    // reference distribution). The attackers are *colluding* Sybils
    // (the paper's threat model), so the round's whole poison batch is
    // a coordinated point mass: one target cluster, one direction, all
    // poison at the same spot — the placement that maximizes centroid
    // displacement at a given anomaly score. Labels are adversary
    // chosen (random class).
    let n_poison = (params.attack_ratio * params.batch as f64).round() as usize;
    let poison_dist = model.ref_at(injection);
    if n_poison > 0 {
        let centroids = model.centroids();
        let target = rng.gen_range(0..centroids.len().max(1));
        let base = &centroids[target.min(centroids.len() - 1)];
        bufs.dir.clear();
        bufs.dir.extend((0..cols).map(|_| standard_normal(rng)));
        let norm = bufs
            .dir
            .iter()
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt()
            .max(1e-12);
        bufs.poison_row.clear();
        bufs.poison_row.extend(
            base.iter()
                .zip(&bufs.dir)
                .map(|(c, d)| c + poison_dist * d / norm),
        );
        let poison_label = rng.gen_range(0..params.classes);
        for _ in 0..n_poison {
            bufs.rows.extend_from_slice(&bufs.poison_row);
            bufs.labels.push(poison_label);
            bufs.is_poison.push(true);
        }
    }

    // Score trimming at the reference value of the threshold
    // percentile, on the distance scalars (shared in-place hot path).
    // The sketch-native game resolves the cut from the GK summary of the
    // clean score stream — its ε rank error is headroom the adversary
    // (who still positions against exact quantiles) can exploit.
    bufs.dists.clear();
    bufs.dists
        .extend(bufs.rows.chunks_exact(cols).map(|r| model.score(r)));
    let cut = match sketch {
        Some(s) => s
            .cut(threshold.clamp(0.0, 1.0))
            .expect("sketch ingested the clean reference stream"),
        None => model.ref_at(threshold.clamp(0.0, 1.0)),
    };
    let trimmed = bufs.trim.cut(&bufs.dists, cut);

    // Quality: excess tail mass above the clean reference distance.
    let above = bufs.dists.iter().filter(|&&d| d > params.ref_value).count() as f64
        / bufs.dists.len() as f64;
    let quality = 1.0 - (above - params.expected_tail).max(0.0);

    let received = bufs.is_poison.len();
    let (poison_received, poison_survived, benign_trimmed) =
        provenance_counts(bufs.trim.kept_mask(), params.batch);

    // The defender observes the adversary's realized reference
    // percentile via the public record (complete information).
    let observed = if n_poison > 0 {
        percentile_of(model.clean_scores(), poison_dist)
    } else {
        injection
    };
    let batch_len = received.max(1);
    let mut retained_stats = OnlineStats::new();
    retained_stats.extend(bufs.trim.kept());
    RoundReport {
        quality,
        received,
        trimmed,
        poison_received,
        poison_survived,
        benign_trimmed,
        gain_adversary: poison_survived as f64 / batch_len as f64 * injection,
        overhead: benign_trimmed as f64 / batch_len as f64,
        observed_injection: Some(observed),
        threshold_value: Some(cut),
        retained: retained_stats,
    }
}

/// The feature-vector collection workload as an
/// [`engine::Scenario`](crate::engine::Scenario).
///
/// The trimming game is played on the classic distance scalar: each row's
/// anomaly score is its Euclidean distance to the nearest clean centroid,
/// and both the trimming cut and the injection distance resolve
/// percentiles against the clean score distribution (the public quality
/// standard). A recording scenario accumulates the retained rows into the
/// training set the learners consume; a lean one ([`MlScenario::lean`])
/// keeps none.
///
/// The scenario owns its [`MlArena`] by default; payoff grids lend it a
/// worker's arena (`A = &mut MlArena`) through
/// [`collect_poisoned_with_scratch`] instead.
#[derive(Debug, Clone)]
pub struct MlScenario<'a, A = MlArena> {
    data: &'a Dataset,
    arena: A,
    params: MlParams,
    record: bool,
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
    is_poison: Vec<bool>,
}

impl<'a> MlScenario<'a> {
    /// Builds the scenario over the clean dataset (fits the clean model;
    /// see [`MlScenario::with_arena`] to share a fitted one), recording
    /// the retained rows.
    ///
    /// # Panics
    /// Panics if the dataset is unlabelled or smaller than two rows.
    #[must_use]
    pub fn new(data: &'a Dataset, cfg: &MlSimConfig) -> Self {
        Self::with_arena(data, MlArena::new(data), cfg)
    }

    /// Builds the scenario over `data` without retaining any rows — the
    /// lean mode for streams where only the engine's totals and utility
    /// trajectories are read.
    ///
    /// # Panics
    /// Panics if the dataset is unlabelled or smaller than two rows.
    #[must_use]
    pub fn lean(data: &'a Dataset, cfg: &MlSimConfig) -> Self {
        Self::over(data, MlArena::new(data), cfg, false)
    }

    /// Builds a recording scenario over a pre-fitted arena (the model
    /// must have been fitted on `data`).
    #[must_use]
    pub fn with_arena(data: &'a Dataset, arena: MlArena, cfg: &MlSimConfig) -> Self {
        Self::over(data, arena, cfg, true)
    }

    /// Converts the accumulated retained rows of a recording scenario
    /// into a [`CollectedSet`] for `scheme`, taking the received/trimmed
    /// counts from the engine run's [`EngineTotals`].
    #[must_use]
    pub fn into_collected(self, scheme: Scheme, totals: &EngineTotals) -> CollectedSet {
        let retained = Dataset::from_rows(
            format!("{}-{}", self.data.name(), scheme.name()),
            &self.rows,
            Some(self.labels),
            self.data.clusters(),
        );
        debug_assert_eq!(
            totals.poison_survived,
            self.is_poison.iter().filter(|&&p| p).count(),
            "engine totals and retained provenance must agree"
        );
        CollectedSet {
            retained,
            is_poison: self.is_poison,
            poison_received: totals.poison_received,
            poison_survived: totals.poison_survived,
            benign_trimmed: totals.benign_trimmed,
        }
    }
}

impl<'a, A: BorrowMut<MlArena>> MlScenario<'a, A> {
    fn over(data: &'a Dataset, mut arena: A, cfg: &MlSimConfig, record: bool) -> Self {
        let shared = arena.borrow_mut();
        shared.ensure_sketch(cfg.sketch_epsilon);
        let params = MlParams::new(&shared.model, data, cfg);
        Self {
            data,
            arena,
            params,
            record,
            rows: Vec::new(),
            labels: Vec::new(),
            is_poison: Vec::new(),
        }
    }
}

impl<A: BorrowMut<MlArena>> Scenario for MlScenario<'_, A> {
    fn play_round<R: Rng + ?Sized>(
        &mut self,
        _round: usize,
        threshold: f64,
        injection: f64,
        rng: &mut R,
    ) -> RoundReport {
        let arena = self.arena.borrow_mut();
        let report = ml_round(
            self.data,
            &arena.model,
            &self.params,
            &mut arena.bufs,
            arena.sketch.as_ref().map(|(_, s)| s),
            threshold,
            injection,
            rng,
        );
        if self.record {
            // Accumulate the retained training set.
            let bufs = &self.arena.borrow().bufs;
            let cols = self.data.cols();
            for (i, keep) in bufs.trim.kept_mask().iter().enumerate() {
                if *keep {
                    self.rows.push(bufs.rows[i * cols..(i + 1) * cols].to_vec());
                    self.labels.push(bufs.labels[i]);
                    self.is_poison.push(bufs.is_poison[i]);
                }
            }
        }
        report
    }
}

/// Runs the poisoned collection and returns the retained training set.
///
/// # Panics
/// Panics if the dataset is unlabelled or smaller than the batch size.
#[must_use]
pub fn collect_poisoned(data: &Dataset, cfg: &MlSimConfig) -> CollectedSet {
    collect_poisoned_with_model(data, cfg, &std::sync::Arc::new(MlModel::fit(data)))
}

/// [`collect_poisoned`] over an already-fitted shared clean model — the
/// retained-set path of the figure experiments, which replay many
/// (scheme, ratio, seed) cells over one dataset: the k-means fit happens
/// once per dataset instead of once per cell, and the cells fan out
/// across workers without contention (the model is behind an `Arc`).
/// Results are bit-identical to [`collect_poisoned`] on a freshly fitted
/// model.
///
/// # Panics
/// Panics if the dataset is unlabelled or smaller than the batch size
/// (the model must have been fitted on `data`).
#[must_use]
pub fn collect_poisoned_with_model(
    data: &Dataset,
    cfg: &MlSimConfig,
    model: &std::sync::Arc<MlModel>,
) -> CollectedSet {
    let defender = cfg.scheme.defender(cfg.tth, 1.0, cfg.red);
    let adversary = cfg.scheme.adversary(cfg.tth);
    let arena = MlArena::with_model(std::sync::Arc::clone(model));
    let scenario = MlScenario::with_arena(data, arena, cfg);
    let mut stepper = EngineStepper::with_policy_seed(
        scenario,
        Box::new(defender),
        Box::new(adversary),
        policy_seed(cfg.seed),
    );
    let mut scratch = EngineScratch::new();
    let run = stepper.run(cfg.rounds, &mut seeded_rng(cfg.seed), &mut scratch, None);
    let (_, scenario, _, _) = stepper.into_parts();
    scenario.into_collected(cfg.scheme, &run.totals)
}

/// The allocation-free ML run: one seeded collection with arbitrary
/// boxed policies over the worker-owned [`MlArena`] (shared fitted model
/// and round buffers), recording into the reusable [`EngineScratch`] and
/// retaining no rows —
/// the ML payoff-grid cell path. Randomized defenders and board-driven
/// attackers play the feature-vector game exactly as the closed roster
/// does. Pass `board` to post every round's record to a
/// [`RangedBoard`](trimgame_stream::board::RangedBoard) the attacker
/// already holds a clone of (an
/// [`AdaptiveAttacker`](crate::adversary::AdaptiveAttacker) without it
/// reads an empty history and degenerates to its fallback). The defender
/// sub-stream is seeded from `cfg.seed` via
/// [`POLICY_SEED_STREAM`](crate::simulation::POLICY_SEED_STREAM).
///
/// # Panics
/// Panics if the arena's model does not match `data` or the config is
/// degenerate.
#[must_use]
pub fn collect_poisoned_with_scratch(
    data: &Dataset,
    cfg: &MlSimConfig,
    defender: Box<dyn crate::strategy::ThresholdPolicy>,
    adversary: Box<dyn crate::adversary::AttackPolicy>,
    board: Option<trimgame_stream::board::RangedBoard>,
    arena: &mut MlArena,
    scratch: &mut EngineScratch,
) -> EngineRun {
    let scenario = MlScenario::over(data, arena, cfg, false);
    EngineStepper::with_policy_seed(scenario, defender, adversary, policy_seed(cfg.seed)).run(
        cfg.rounds,
        &mut seeded_rng(cfg.seed),
        scratch,
        board.as_ref(),
    )
}

/// The sorted clean anomaly-score distribution of `data`: each row's
/// distance to its nearest [`kmeans_truth`] centroid. This is the
/// reference quantile table [`MlScenario`] resolves threshold and
/// injection percentiles against — exposed so the equilibrium estimator's
/// closed-form benchmark can share the exact same primitives. (One
/// [`MlModel::fit`] provides both pieces when the centroids are needed
/// too.)
#[must_use]
pub fn clean_score_distribution(data: &Dataset) -> Vec<f64> {
    MlModel::fit(data).clean_scores
}

/// Ground-truth centroids for the Figs. 4/5 "Distance" metric: the
/// k-means clustering of the *clean, unpoisoned* dataset (the paper's
/// `Groundtruth` scheme — "the discrepancy between the actual centroid of
/// the clustering and the ground truth"). Deterministic for a given clean
/// dataset.
#[must_use]
pub fn kmeans_truth(clean: &Dataset) -> Vec<Vec<f64>> {
    let k = clean.clusters().max(1);
    let mut rng = seeded_rng(0x7471_u64); // fixed: truth depends only on the data
    KMeans::fit_best(clean, KMeansConfig::new(k), 8, &mut rng)
        .centroids()
        .to_vec()
}

/// Fig. 4/5 metrics against precomputed ground-truth centroids: k-means
/// SSE on the retained set and the matched centroid distance. Lloyd is
/// warm-started from the truth centroids, so the Distance is the
/// displacement the poisoned collection induces on the clean solution —
/// deterministic, with no initialization noise.
#[must_use]
pub fn kmeans_metrics_vs(collected: &CollectedSet, truth: &[Vec<f64>]) -> (f64, f64) {
    let k = truth.len().max(1);
    let model = KMeans::fit_from(&collected.retained, truth, KMeansConfig::new(k));
    (model.sse(), model.centroid_distance_to(truth))
}

/// Convenience wrapper computing the ground truth on the fly; prefer
/// [`kmeans_truth`] + [`kmeans_metrics_vs`] when sweeping many schemes
/// over one dataset.
#[must_use]
pub fn kmeans_metrics(collected: &CollectedSet, clean: &Dataset) -> (f64, f64) {
    let truth = kmeans_truth(clean);
    kmeans_metrics_vs(collected, &truth)
}

/// Fig. 7 metric: SVM accuracy on the clean dataset after training on the
/// collected set.
#[must_use]
pub fn svm_accuracy(collected: &CollectedSet, clean: &Dataset, seed: u64) -> f64 {
    let mut rng = seeded_rng(seed);
    let model = SvmModel::fit(&collected.retained, SvmConfig::default(), &mut rng);
    model.accuracy(clean)
}

/// Fig. 8 metrics: SOM class structure — number of perfectly separated
/// classes and per-class footprints when the clean data is mapped onto a
/// SOM trained on the collected set.
#[must_use]
pub fn som_structure(
    collected: &CollectedSet,
    clean: &Dataset,
    config: SomConfig,
    seed: u64,
) -> (usize, Vec<usize>) {
    let mut rng = seeded_rng(seed);
    let som = Som::fit(&collected.retained, config, &mut rng);
    (som.separated_classes(clean), som.class_footprint(clean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgame_datasets::synthetic::{GaussianComponent, GmmSpec};

    fn blobs(seed: u64) -> Dataset {
        let spec = GmmSpec::new(vec![
            GaussianComponent::spherical(vec![-8.0, 0.0], 1.0, 1.0),
            GaussianComponent::spherical(vec![8.0, 0.0], 1.0, 1.0),
        ]);
        spec.generate("blobs", 600, &mut seeded_rng(seed))
    }

    fn small_cfg(scheme: Scheme, ratio: f64) -> MlSimConfig {
        MlSimConfig {
            scheme,
            tth: 0.9,
            rounds: 5,
            attack_ratio: ratio,
            batch: 100,
            seed: 7,
            red: 0.05,
            sketch_epsilon: None,
        }
    }

    /// One recording engine run with arbitrary boxed policies, seeded as
    /// [`collect_poisoned_with_scratch`] seeds its lean run: the summary,
    /// the scenario with its retained rows, and the recorded series.
    fn run_recording<'a>(
        data: &'a Dataset,
        cfg: &MlSimConfig,
        defender: Box<dyn crate::strategy::ThresholdPolicy>,
        adversary: Box<dyn crate::adversary::AttackPolicy>,
    ) -> (EngineRun, MlScenario<'a>, EngineScratch) {
        let scenario = MlScenario::new(data, cfg);
        let mut stepper =
            EngineStepper::with_policy_seed(scenario, defender, adversary, policy_seed(cfg.seed));
        let mut scratch = EngineScratch::new();
        let run = stepper.run(cfg.rounds, &mut seeded_rng(cfg.seed), &mut scratch, None);
        (run, stepper.into_parts().1, scratch)
    }

    #[test]
    fn ostrich_retains_all_poison() {
        let data = blobs(1);
        let set = collect_poisoned(&data, &small_cfg(Scheme::Ostrich, 0.2));
        assert_eq!(set.poison_survived, set.poison_received);
        assert_eq!(set.benign_trimmed, 0);
        assert!(set.surviving_poison_fraction() > 0.1);
    }

    #[test]
    fn trimming_schemes_reduce_poison_damage() {
        // Poison survives under Elastic too, but sits at lower distance
        // percentiles; compare kmeans centroid displacement instead of raw
        // counts.
        let data = blobs(2);
        let ostrich = collect_poisoned(&data, &small_cfg(Scheme::Ostrich, 0.4));
        let elastic = collect_poisoned(&data, &small_cfg(Scheme::Elastic(0.5), 0.4));
        let (_, d_ostrich) = kmeans_metrics(&ostrich, &data);
        let (_, d_elastic) = kmeans_metrics(&elastic, &data);
        assert!(
            d_elastic < d_ostrich,
            "elastic {d_elastic} should beat ostrich {d_ostrich}"
        );
    }

    #[test]
    fn collected_set_has_consistent_provenance() {
        let data = blobs(3);
        let set = collect_poisoned(&data, &small_cfg(Scheme::Baseline09, 0.2));
        assert_eq!(set.retained.rows(), set.is_poison.len());
        let survived = set.is_poison.iter().filter(|&&p| p).count();
        assert_eq!(survived, set.poison_survived);
        assert!(set.poison_received >= set.poison_survived);
    }

    #[test]
    fn zero_attack_keeps_everything_clean() {
        let data = blobs(4);
        let set = collect_poisoned(&data, &small_cfg(Scheme::TitForTat, 0.0));
        assert_eq!(set.poison_received, 0);
        assert_eq!(set.surviving_poison_fraction(), 0.0);
        // k-means on clean retained data lands near the truth.
        let (_, dist) = kmeans_metrics(&set, &data);
        assert!(dist < 1.0, "distance {dist}");
    }

    #[test]
    fn svm_accuracy_degrades_with_unchecked_poison() {
        let data = blobs(5);
        let clean = collect_poisoned(&data, &small_cfg(Scheme::TitForTat, 0.0));
        let dirty = collect_poisoned(&data, &small_cfg(Scheme::Ostrich, 0.5));
        let acc_clean = svm_accuracy(&clean, &data, 17);
        let acc_dirty = svm_accuracy(&dirty, &data, 17);
        assert!(
            acc_dirty <= acc_clean + 0.02,
            "clean {acc_clean}, dirty {acc_dirty}"
        );
    }

    #[test]
    fn som_structure_reports_classes() {
        let data = blobs(6);
        let set = collect_poisoned(&data, &small_cfg(Scheme::Elastic(0.1), 0.1));
        let (separated, footprint) = som_structure(&set, &data, SomConfig::small(), 19);
        assert!(footprint.len() >= 2);
        assert!(separated <= footprint.len());
        assert!(footprint.iter().all(|&f| f > 0));
    }

    #[test]
    fn deterministic_under_seed() {
        let data = blobs(7);
        let a = collect_poisoned(&data, &small_cfg(Scheme::Elastic(0.5), 0.2));
        let b = collect_poisoned(&data, &small_cfg(Scheme::Elastic(0.5), 0.2));
        assert_eq!(a.retained.values(), b.retained.values());
        assert_eq!(a.poison_survived, b.poison_survived);
    }

    #[test]
    fn randomized_defender_collects_on_features() {
        use crate::strategy::RandomizedDefender;
        let data = blobs(8);
        let cfg = small_cfg(Scheme::Baseline09, 0.3);
        let run_once = || {
            let (run, scenario, _) = run_recording(
                &data,
                &cfg,
                Box::new(RandomizedDefender::new(&[0.85, 0.95], &[0.5, 0.5]).unwrap()),
                Box::new(cfg.scheme.adversary(cfg.tth)),
            );
            scenario.into_collected(cfg.scheme, &run.totals)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.retained.values(), b.retained.values());
        assert_eq!(a.poison_survived, b.poison_survived);
        assert!(a.retained.rows() > 0);
        assert_eq!(a.retained.rows(), a.is_poison.len());
    }

    #[test]
    fn ml_scratch_cells_replay_the_outcome_path_bit_for_bit() {
        use crate::strategy::DefenderPolicy;
        let data = blobs(11);
        let mut arena = MlArena::new(&data);
        let mut scratch = EngineScratch::new();
        // The sketch column exercises the arena's threshold-sketch cache:
        // build, reuse, drop, rebuild.
        for (tth, seed, sketch_epsilon) in [
            (0.88, 5u64, None),
            (0.94, 6, Some(0.03)),
            (0.94, 6, Some(0.03)),
            (0.88, 5, None),
            (0.88, 5, Some(0.01)),
        ] {
            let cfg = MlSimConfig {
                scheme: Scheme::BaselineStatic,
                tth,
                rounds: 4,
                attack_ratio: 0.25,
                batch: 80,
                seed,
                red: 0.05,
                sketch_epsilon,
            };
            let policies = || {
                (
                    Box::new(DefenderPolicy::Fixed { tth })
                        as Box<dyn crate::strategy::ThresholdPolicy>,
                    Box::new(cfg.scheme.adversary(tth)) as Box<dyn crate::adversary::AttackPolicy>,
                )
            };
            let (d, a) = policies();
            let (owned, _, series) = run_recording(&data, &cfg, d, a);
            let (d, a) = policies();
            let lean =
                collect_poisoned_with_scratch(&data, &cfg, d, a, None, &mut arena, &mut scratch);
            assert_eq!(lean.totals, owned.totals, "tth={tth} seed={seed}");
            assert_eq!(Some(&lean.final_u_a), series.utilities().u_a.last());
            assert_eq!(Some(&lean.final_u_c), series.utilities().u_c.last());
            assert_eq!(scratch.thresholds(), series.thresholds());
            assert_eq!(scratch.injections(), series.injections());
        }
    }

    #[test]
    fn ml_sketch_cut_bounds_extra_evasion_by_epsilon() {
        // Sketch-native feature-vector game: with the trimming cut
        // resolved from a GK summary of the clean anomaly scores, the
        // adversary (who positions against exact quantiles) gains at most
        // ε of extra evasion headroom above the threshold percentile; the
        // exact path grants only interpolation slack. Mirrors the scalar
        // substrate's contract.
        use crate::adversary::AdversaryPolicy;
        use crate::strategy::DefenderPolicy;
        let data = blobs(12);
        let mut arena = MlArena::new(&data);
        let mut scratch = EngineScratch::new();
        let tth = 0.9;
        let eps = 0.02;
        let mut margin_of = |sketch_epsilon: Option<f64>| -> f64 {
            let mut extra: f64 = 0.0;
            let mut a = tth;
            while a <= tth + 2.5 * eps {
                let mut cfg = small_cfg(Scheme::BaselineStatic, 0.2);
                cfg.rounds = 1;
                cfg.sketch_epsilon = sketch_epsilon;
                let out = collect_poisoned_with_scratch(
                    &data,
                    &cfg,
                    Box::new(DefenderPolicy::Fixed { tth }),
                    Box::new(AdversaryPolicy::Fixed { percentile: a }),
                    None,
                    &mut arena,
                    &mut scratch,
                );
                assert!(out.totals.poison_received > 0);
                if out.totals.poison_survived == out.totals.poison_received {
                    extra = extra.max(a - tth);
                }
                a += eps / 8.0;
            }
            extra
        };
        let exact_margin = margin_of(None);
        let sketch_margin = margin_of(Some(eps));
        // One grid step of the 600-row reference table is ~1.7e-3.
        assert!(exact_margin <= 5e-3, "exact margin {exact_margin}");
        assert!(
            sketch_margin <= eps + 5e-3,
            "sketch margin {sketch_margin} exceeds eps {eps}"
        );
    }

    #[test]
    fn adaptive_attacker_sees_the_shared_board() {
        use crate::adversary::AdaptiveAttacker;
        use crate::strategy::DefenderPolicy;
        use trimgame_stream::board::RangedBoard;
        let data = blobs(9);
        let cfg = small_cfg(Scheme::Baseline09, 0.3);
        let board = RangedBoard::unbounded();
        let attacker = AdaptiveAttacker::new(board.clone(), 0.01, 0.99);
        let run = collect_poisoned_with_scratch(
            &data,
            &cfg,
            Box::new(DefenderPolicy::Fixed { tth: cfg.tth }),
            Box::new(attacker),
            Some(board.clone()),
            &mut MlArena::new(&data),
            &mut EngineScratch::new(),
        );
        // The engine posted every round onto the shared board...
        assert_eq!(board.len(), cfg.rounds);
        // ...so after the fallback opener the attacker rode just below the
        // fixed cut and its poison survived (Fixed keeps score <= cut).
        assert!(run.totals.poison_survived > 0);
    }

    #[test]
    fn lean_scenario_plays_the_recording_game_and_keeps_no_rows() {
        // The collector's ML streams run lean: stepped round by round,
        // a lean scenario must play the recording scenario's game bit for
        // bit while retaining nothing.
        let data = blobs(10);
        let cfg = small_cfg(Scheme::TitForTat, 0.3);
        fn drive<'a>(scenario: MlScenario<'a>, cfg: &MlSimConfig) -> (EngineRun, MlScenario<'a>) {
            let mut stepper = EngineStepper::with_policy_seed(
                scenario,
                Box::new(cfg.scheme.defender(cfg.tth, 1.0, cfg.red)),
                Box::new(cfg.scheme.adversary(cfg.tth)),
                17,
            );
            let mut rng = seeded_rng(cfg.seed);
            for _ in 0..cfg.rounds {
                let _ = stepper.step(&mut rng);
            }
            let (run, scenario, _, _) = stepper.into_parts();
            (run, scenario)
        }
        let (lean_run, lean) = drive(MlScenario::lean(&data, &cfg), &cfg);
        let (full_run, full) = drive(MlScenario::new(&data, &cfg), &cfg);
        assert_eq!(lean_run, full_run);
        assert!(lean.rows.is_empty());
        assert!(lean.labels.is_empty());
        assert!(lean.is_poison.is_empty());
        let set = full.into_collected(cfg.scheme, &full_run.totals);
        assert!(set.retained.rows() > 0);
        assert_eq!(
            set.retained.rows(),
            full_run.totals.received - full_run.totals.trimmed
        );
    }
}
