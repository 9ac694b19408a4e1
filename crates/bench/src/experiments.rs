//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Absolute numbers differ from the paper (synthetic data stand-ins,
//! different learner implementations; see `DESIGN.md §3`), but the rows
//! and series have the same structure and the same qualitative shape —
//! EXPERIMENTS.md records the paper-vs-measured comparison.

use crate::config::RunConfig;
use crate::sweep::parallel_map;
use std::fmt::Write as _;
use std::sync::Arc;
use trim_core::elastic::CoupledDynamics;
use trim_core::ldp_sim::{ldp_mse, LdpDefense, LdpSimConfig};
use trim_core::matrix::UltimatumPayoffs;
use trim_core::ml_sim::{
    collect_poisoned_with_model, som_structure, svm_accuracy, MlModel, MlSimConfig,
};
use trim_core::simulation::{run_table3_point, Scheme};
use trimgame_datasets::shapes::{control, creditcard, taxi, vehicle, Shape};
use trimgame_datasets::Dataset;
use trimgame_ml::metrics::ConfusionMatrix;
use trimgame_ml::som::{Som, SomConfig};
use trimgame_ml::svm::{SvmConfig, SvmModel};
use trimgame_numerics::rand_ext::{derive_seed, seeded_rng};

/// Table I: the ultimatum payoff matrix, its unique equilibrium, and the
/// prisoner's-dilemma observation.
#[must_use]
pub fn table1() -> String {
    let payoffs = UltimatumPayoffs::default_paper();
    let matrix = payoffs.matrix();
    let mut out = String::new();
    let _ = writeln!(out, "== Table I: payoff matrix of the ultimatum game ==");
    let _ = writeln!(
        out,
        "constants: P̄={} > T̄={} >> P={} > T={} > 0",
        payoffs.p_hard, payoffs.t_hard, payoffs.p_soft, payoffs.t_soft
    );
    let _ = writeln!(out);
    let _ = write!(out, "{matrix}");
    let _ = writeln!(out);
    let eq = matrix.pure_nash_equilibria();
    let _ = writeln!(out, "pure Nash equilibria: {eq:?}");
    let _ = writeln!(
        out,
        "(Soft, Soft) Pareto-dominates the equilibrium: {}",
        matrix.pareto_dominates(
            (trim_core::matrix::Move::Soft, trim_core::matrix::Move::Soft),
            (trim_core::matrix::Move::Hard, trim_core::matrix::Move::Hard)
        )
    );
    let _ = writeln!(
        out,
        "=> one-shot play is mutually hard; the infinite repeated game (Section IV) escapes it"
    );
    out
}

/// Table II: dataset information.
#[must_use]
pub fn table2(scale: usize) -> String {
    let mut rng = seeded_rng(2024);
    let mut out = String::new();
    let _ = writeln!(out, "== Table II: dataset information ==");
    let _ = writeln!(
        out,
        "(generated at TRIMGAME_SCALE={scale}; paper sizes in brackets)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>12} {:>9} {:>9}",
        "Dataset", "Instances", "[paper]", "Features", "Clusters"
    );
    for shape in Shape::ALL {
        let d = shape.generate_scaled(&mut rng, scale);
        let info = d.info();
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>12} {:>9} {:>9}",
            info.name,
            info.instances,
            format!("[{}]", shape.paper_instances()),
            info.features,
            info.clusters
        );
    }
    out
}

/// The attack-ratio grids of Figs. 4/5 (three points per interval keeps
/// the default run fast; the shape is identical with six).
fn ratio_grid() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("[0,0.01]", vec![0.002, 0.006, 0.01]),
        ("[0.05,0.15]", vec![0.05, 0.10, 0.15]),
        ("[0.2,0.5]", vec![0.2, 0.35, 0.5]),
    ]
}

fn fig45_datasets(scale: usize) -> Vec<Dataset> {
    let mut rng = seeded_rng(777);
    vec![
        control(&mut rng),
        vehicle(&mut rng),
        trimgame_datasets::shapes::letter(&mut rng, scale.max(16)),
    ]
}

/// Figs. 4/5: k-means SSE and centroid distance over Control, Vehicle and
/// Letter at the given `tth` (0.90 for Fig. 4, 0.97 for Fig. 5).
#[must_use]
pub fn fig45(tth: f64, run: &RunConfig) -> String {
    let reps = run.reps.min(10);
    let schemes = Scheme::roster();
    let mut out = String::new();
    let fig = if (tth - 0.9).abs() < 1e-9 {
        "Fig. 4"
    } else {
        "Fig. 5"
    };
    let _ = writeln!(
        out,
        "== {fig}: k-means over Control/Vehicle/Letter, Tth={tth} =="
    );
    let _ = writeln!(
        out,
        "({reps} repetitions per point; SSE normalized per retained row)"
    );

    for data in fig45_datasets(run.scale) {
        let truth = trim_core::ml_sim::kmeans_truth(&data);
        // One k-means fit per dataset, shared across every cell.
        let model = Arc::new(MlModel::fit(&data));
        let grid = ratio_grid();
        let ratios_flat: Vec<f64> = grid.iter().flat_map(|(_, rs)| rs.iter().copied()).collect();
        // One job per (scheme, ratio, repetition) cell; each is seeded
        // purely by its index, so the fan-out is deterministic under any
        // worker count and the numbers match the sequential loop exactly.
        let cells = parallel_map(
            schemes.len() * ratios_flat.len() * reps,
            run.workers,
            |idx| {
                let rep = idx % reps;
                let ri = (idx / reps) % ratios_flat.len();
                let si = idx / (reps * ratios_flat.len());
                let cfg = MlSimConfig {
                    rounds: 20,
                    batch: 60,
                    ..MlSimConfig::new(
                        schemes[si],
                        tth,
                        ratios_flat[ri],
                        derive_seed(5, rep as u64),
                    )
                };
                let collected = collect_poisoned_with_model(&data, &cfg, &model);
                let (sse, dist) = trim_core::ml_sim::kmeans_metrics_vs(&collected, &truth);
                // Normalize SSE by retained rows so schemes with
                // different retention are comparable.
                (sse / collected.retained.rows().max(1) as f64, dist)
            },
        );
        let cell_mean = |si: usize, ri: usize| {
            let base = (si * ratios_flat.len() + ri) * reps;
            let (sse, dist) = cells[base..base + reps]
                .iter()
                .fold((0.0, 0.0), |(s, d), &(cs, cd)| (s + cs, d + cd));
            (sse / reps as f64, dist / reps as f64)
        };
        let mut ri_base = 0;
        for (interval, ratios) in &grid {
            let _ = writeln!(out);
            let _ = writeln!(out, "--- {}{} ---", data.name().to_uppercase(), interval);
            let _ = write!(out, "{:<16}", "scheme");
            for r in ratios {
                let _ = write!(out, " {:>11} {:>9}", format!("SSE@{r}"), "dist");
            }
            let _ = writeln!(out);
            for (si, scheme) in schemes.iter().enumerate() {
                let _ = write!(out, "{:<16}", scheme.name());
                for k in 0..ratios.len() {
                    let (sse, dist) = cell_mean(si, ri_base + k);
                    let _ = write!(out, " {:>11.1} {:>9.2}", sse, dist);
                }
                let _ = writeln!(out);
            }
            ri_base += ratios.len();
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "shape: Ostrich competitive at tiny ratios, degrades as poison grows;"
    );
    let _ = writeln!(
        out,
        "the game-theoretic schemes dominate at [0.2,0.5], Elastic 0.5 strongest."
    );
    out
}

/// Fig. 6: ground truth of SVM (confusion with PPV/FDR) and SOM (U-matrix).
#[must_use]
pub fn fig6(scale: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 6: ground truth of SVM and SOM classification =="
    );
    // (a) SVM on Control with labels.
    let data = control(&mut seeded_rng(2024));
    let model = SvmModel::fit(&data, SvmConfig::default(), &mut seeded_rng(1));
    let predictions = model.predict_all(&data);
    let cm = ConfusionMatrix::from_predictions(data.labels().unwrap(), &predictions, 6);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "(a) SVM on Control — accuracy {:.1}%",
        cm.accuracy() * 100.0
    );
    let _ = writeln!(out, "{cm}");
    let _ = writeln!(out);

    // (b) SOM on Creditcard.
    let cc = creditcard(&mut seeded_rng(31), scale);
    let som = Som::fit(&cc, SomConfig::paper(), &mut seeded_rng(32));
    let _ = writeln!(
        out,
        "(b) SOM 20x20 on Creditcard — U-matrix (darker = larger distance)"
    );
    let _ = write!(out, "{}", render_u_matrix(&som));
    let footprint = som.class_footprint(&cc);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "class footprints (distinct BMU cells): bulk={}, fraud={}, premium={}, green={}",
        footprint[0], footprint[1], footprint[2], footprint[3]
    );
    let _ = writeln!(out, "separated classes: {}", som.separated_classes(&cc));
    out
}

/// ASCII rendering of a SOM's U-matrix using density shades.
fn render_u_matrix(som: &Som) -> String {
    let u = som.u_matrix();
    let max = u
        .iter()
        .flatten()
        .fold(0.0_f64, |m, &x| m.max(x))
        .max(1e-12);
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    for row in &u {
        for &v in row {
            let idx = ((v / max) * (shades.len() - 1) as f64).round() as usize;
            out.push(shades[idx.min(shades.len() - 1)]);
            out.push(shades[idx.min(shades.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

/// Fig. 7: SVM accuracy across the six schemes on Control
/// (`Tth = 0.95`, attack ratio 0.4).
#[must_use]
pub fn fig7(run: &RunConfig) -> String {
    let reps = run.reps.min(10);
    let data = control(&mut seeded_rng(2024));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 7: SVM accuracy, Control, Tth=0.95, ratio=0.4 =="
    );
    let _ = writeln!(out, "({reps} repetitions)");
    let _ = writeln!(out);

    let gt_model = SvmModel::fit(&data, SvmConfig::default(), &mut seeded_rng(3));
    let _ = writeln!(
        out,
        "{:<16} {:>10}",
        "Groundtruth",
        format!("{:.1}%", gt_model.accuracy(&data) * 100.0)
    );

    // One shared clean fit; (scheme, repetition) cells fan out across
    // workers, each seeded by its index alone.
    let model = Arc::new(MlModel::fit(&data));
    let schemes = Scheme::roster();
    let accs = parallel_map(schemes.len() * reps, run.workers, |idx| {
        let rep = idx % reps;
        let cfg = MlSimConfig {
            rounds: 20,
            batch: 60,
            ..MlSimConfig::new(schemes[idx / reps], 0.95, 0.4, derive_seed(21, rep as u64))
        };
        let collected = collect_poisoned_with_model(&data, &cfg, &model);
        svm_accuracy(&collected, &data, derive_seed(23, rep as u64))
    });
    for (si, scheme) in schemes.iter().enumerate() {
        let acc_sum: f64 = accs[si * reps..(si + 1) * reps].iter().sum();
        let _ = writeln!(
            out,
            "{:<16} {:>10}",
            scheme.name(),
            format!("{:.1}%", acc_sum / reps as f64 * 100.0)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "shape: ours > Ostrich > static baselines (paper: 96.8 GT;"
    );
    let _ = writeln!(out, "95.5/95.1/94.9 baselines; 96.1/95.6/95.7 ours)");
    out
}

/// Fig. 8: SOM class-structure preservation on Creditcard across schemes.
#[must_use]
pub fn fig8(run: &RunConfig) -> String {
    let data = creditcard(&mut seeded_rng(31), run.scale.max(32));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 8: SOM class structure, Creditcard, Tth=0.95, ratio=0.4 =="
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "separated", "bulk", "fraud", "premium", "green"
    );

    // Ground truth row: SOM trained on the clean data.
    let som = Som::fit(&data, SomConfig::paper(), &mut seeded_rng(41));
    let fp = som.class_footprint(&data);
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "Groundtruth",
        som.separated_classes(&data),
        fp[0],
        fp[1],
        fp[2],
        fp[3]
    );

    // One scheme per job over the shared clean fit (the SOM refit inside
    // som_structure dominates each cell).
    let model = Arc::new(MlModel::fit(&data));
    let schemes = Scheme::roster();
    let rows = parallel_map(schemes.len(), run.workers, |si| {
        let cfg = MlSimConfig {
            rounds: 10,
            batch: 200,
            ..MlSimConfig::new(schemes[si], 0.95, 0.4, 43)
        };
        let collected = collect_poisoned_with_model(&data, &cfg, &model);
        som_structure(&collected, &data, SomConfig::paper(), 47)
    });
    for (scheme, (separated, footprint)) in schemes.iter().zip(rows) {
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>8} {:>8} {:>8} {:>8}",
            scheme.name(),
            separated,
            footprint.first().copied().unwrap_or(0),
            footprint.get(1).copied().unwrap_or(0),
            footprint.get(2).copied().unwrap_or(0),
            footprint.get(3).copied().unwrap_or(0)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "shape: the poison 'expands the area' of the small green class"
    );
    let _ = writeln!(
        out,
        "(footprint grows beyond the ground truth's single cell) exactly as"
    );
    let _ = writeln!(
        out,
        "the paper describes for its schemes, and unchecked poison (Ostrich)"
    );
    let _ = writeln!(
        out,
        "erodes the bulk class's footprint the most. Our synthetic stand-in"
    );
    let _ = writeln!(
        out,
        "keeps the two singletons separable under all schemes (their anomaly"
    );
    let _ = writeln!(out, "scores are zero by construction); see EXPERIMENTS.md.");
    out
}

/// Table III: the non-equilibrium p-sweep.
#[must_use]
pub fn table3(run: &RunConfig) -> String {
    let reps = run.reps;
    let data = control(&mut seeded_rng(5));
    let pool = trimgame_datasets::percentile::centroid_distances(&data);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table III: non-equilibrium results, Control, ratio 0.2 =="
    );
    let _ = writeln!(
        out,
        "({reps} repetitions; sentinel 25 = no termination in 20 rounds)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>5} {:>22} {:>12} {:>12}",
        "p", "avg termination rounds", "Titfortat", "Elastic"
    );
    // The eleven p-points are independent seeded sweeps — fan them out.
    let rows = parallel_map(11, run.workers, |i| {
        run_table3_point(&pool, i as f64 / 10.0, 0.5, reps, 1234)
    });
    for row in rows {
        let _ = writeln!(
            out,
            "{:>5.1} {:>22.2} {:>12.5} {:>12.5}",
            row.p, row.avg_termination, row.titfortat_fraction, row.elastic_fraction
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "shape: termination rounds fall as defection grows; surviving"
    );
    let _ = writeln!(
        out,
        "poison falls with p — deviating from rational play loses utility."
    );
    out
}

/// Table IV: roundwise cost of Elastic 0.1 / 0.5.
#[must_use]
pub fn table4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table IV: roundwise cost of Elastic 0.1 and Elastic 0.5 =="
    );
    let _ = writeln!(out);
    let d01 = CoupledDynamics::new(0.9, 0.1).expect("valid k");
    let d05 = CoupledDynamics::new(0.9, 0.5).expect("valid k");
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>12}",
        "Round_no", "k=0.5 (%)", "k=0.1 (%)"
    );
    for n in (5..=50).step_by(5) {
        let _ = writeln!(
            out,
            "{:>9} {:>11.5}% {:>11.5}%",
            n,
            d05.roundwise_cost(n) * 100.0,
            d01.roundwise_cost(n) * 100.0
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "analytic equilibrium injection offsets |A* - Tth|: k=0.1 -> {:.5}%, k=0.5 -> {:.5}%",
        d01.equilibrium_injection_offset() * 100.0,
        d05.equilibrium_injection_offset() * 100.0
    );
    let _ = writeln!(
        out,
        "note: the paper's converged totals (3.0404% / 4.3334%) equal these"
    );
    let _ = writeln!(
        out,
        "offsets with the two k columns transposed — see EXPERIMENTS.md."
    );
    out
}

/// Fig. 9: LDP MSE versus ε, trimming strategies vs EMF, per attack ratio.
#[must_use]
pub fn fig9(run: &RunConfig) -> String {
    let reps = run.reps.min(10);
    let data = taxi(&mut seeded_rng(99), run.scale.max(32));
    let population: Vec<f64> = data.values().to_vec();
    let epsilons = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0];
    let ratios = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 9: LDP MSE vs epsilon, Taxi, input manipulation =="
    );
    let _ = writeln!(out, "({} users/round, 5 rounds, {reps} reps)", 1_000);

    // One job per (ratio, defense, epsilon) cell of the 9x4x9 grid; each
    // runs its own seeded repetitions, so the fan-out is deterministic.
    let defenses = LdpDefense::roster();
    let mses = parallel_map(
        ratios.len() * defenses.len() * epsilons.len(),
        run.workers,
        |idx| {
            let ei = idx % epsilons.len();
            let di = (idx / epsilons.len()) % defenses.len();
            let ri = idx / (epsilons.len() * defenses.len());
            let mut cfg = LdpSimConfig::new(epsilons[ei], ratios[ri], 61);
            cfg.users_per_round = 1_000;
            cfg.rounds = 5;
            ldp_mse(&population, defenses[di], &cfg, reps)
        },
    );
    for (ri, ratio) in ratios.iter().enumerate() {
        let _ = writeln!(out);
        let _ = writeln!(out, "--- attack ratio = {ratio} ---");
        let _ = write!(out, "{:<12}", "defense");
        for eps in epsilons {
            let _ = write!(out, " {:>9}", format!("e={eps}"));
        }
        let _ = writeln!(out);
        for (di, defense) in defenses.iter().enumerate() {
            let _ = write!(out, "{:<12}", defense.name());
            for ei in 0..epsilons.len() {
                let mse = mses[(ri * defenses.len() + di) * epsilons.len() + ei];
                let _ = write!(out, " {:>9.5}", mse);
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "shape: EMF worst at moderate/large epsilon (deniable attack);"
    );
    let _ = writeln!(
        out,
        "trimming overhead produces the small-epsilon inflection (~1.5)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_equilibrium() {
        let report = table1();
        assert!(report.contains("Hard"));
        assert!(report.contains("pure Nash equilibria"));
        assert!(report.contains("Pareto-dominates the equilibrium: true"));
    }

    #[test]
    fn table2_lists_all_datasets() {
        let report = table2(RunConfig::default().scale);
        for name in ["CONTROL", "VEHICLE", "LETTER", "TAXI", "CREDITCARD"] {
            assert!(report.contains(name), "missing {name}");
        }
        assert!(report.contains("[1048575]"));
    }

    #[test]
    fn table4_has_ten_rows_and_decays() {
        let report = table4();
        assert!(report.contains("Round_no"));
        assert!(report.contains("50"));
        assert!(report.contains("3.04040"));
        assert!(report.contains("4.33333"));
    }

    #[test]
    fn u_matrix_rendering_is_grid_shaped() {
        let data = creditcard(&mut seeded_rng(1), 512);
        let som = Som::fit(&data, SomConfig::small(), &mut seeded_rng(2));
        let art = render_u_matrix(&som);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().all(|l| l.chars().count() == 12));
    }

    #[test]
    fn ratio_grid_covers_paper_intervals() {
        let grid = ratio_grid();
        assert_eq!(grid.len(), 3);
        assert!(grid[0].1.iter().all(|&r| r <= 0.01));
        assert!(grid[2].1.iter().all(|&r| (0.2..=0.5).contains(&r)));
    }
}
