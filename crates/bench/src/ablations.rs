//! Ablation studies for the design choices called out in `DESIGN.md §4`.

use crate::sweep::{env_workers, parallel_map_with};
use std::fmt::Write as _;
use trim_core::config;
use trim_core::elastic::CoupledDynamics;
use trim_core::titfortat::{compliance_margin, TitForTat};
use trimgame_ldp::attack::{Attack, InputManipulation};
use trimgame_ldp::duchi::Duchi;
use trimgame_ldp::laplace::LaplaceMechanism;
use trimgame_ldp::mechanism::LdpMechanism;
use trimgame_ldp::piecewise::Piecewise;
use trimgame_numerics::oscillator::CoupledOscillator;
use trimgame_numerics::quantile::{percentile, Interpolation};
use trimgame_numerics::rand_ext::{derive_seed, seeded_rng, standard_normal};
use trimgame_numerics::sketch::P2Quantile;
use trimgame_numerics::stats::mean;
use trimgame_stream::trim::TrimScratch;

/// Response intensity `k`: convergence speed of the coupled map, analytic
/// equilibrium offset, transient cost, and Theorem 4 oscillation scales.
#[must_use]
pub fn ablate_k() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Ablation: Elastic response intensity k ==");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>12} {:>14} {:>12} {:>12}",
        "k", "conv. rounds", "|A*-Tth|%", "cost@20 (%)", "omega", "period"
    );
    for &k in &[0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9] {
        let d = CoupledDynamics::new(0.9, k).expect("valid k");
        // Rounds until the gap deviation falls below 1e-6.
        let costs = d.transient_costs(500);
        let conv = costs
            .iter()
            .position(|&c| c < 1e-6)
            .map_or("  >500".to_string(), |i| format!("{i}"));
        // Theorem 4 oscillator with unit masses and spring k.
        let osc = CoupledOscillator::new(1.0, 1.0, k, 1.0, -1.0, 0.0, 0.0);
        let _ = writeln!(
            out,
            "{:>6.2} {:>14} {:>12.4} {:>14.5} {:>12.4} {:>12.2}",
            k,
            conv,
            d.equilibrium_injection_offset() * 100.0,
            d.roundwise_cost(20) * 100.0,
            osc.omega(),
            osc.period()
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "larger k responds harder (bigger |A*-Tth|, faster oscillation)"
    );
    let _ = writeln!(
        out,
        "but the discrete map contracts at rate k, so transients last longer."
    );
    out
}

/// Tit-for-tat redundancy `Red`: false-trigger probability on honest LDP
/// rounds versus detection delay under a real attack.
#[must_use]
pub fn ablate_red() -> String {
    let reps = config::repetitions();
    let epsilon = 2.0;
    let rounds = 20;
    let users = 500;
    let mech = Piecewise::new(epsilon);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Ablation: Tit-for-tat redundancy Red (eps={epsilon}, {rounds} rounds) =="
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>6} {:>22} {:>22}",
        "Red", "false-trigger rate", "detection round (30% atk)"
    );

    // Honest population and its calibrated tail standard.
    let population: Vec<f64> = (0..4_000)
        .map(|i| ((i % 1000) as f64 / 500.0 - 1.0) * 0.6)
        .collect();

    let reds = [0.0, 0.01, 0.02, 0.03, 0.05, 0.10];
    // One job per (Red, repetition); each rep's RNG stream derives from
    // the repetition alone, exactly as the sequential loop drew it, so
    // the fan-out changes none of the numbers. Workers reuse their
    // calibration/report buffers across cells.
    let cells = parallel_map_with(
        reds.len() * reps,
        env_workers(),
        || (Vec::new(), Vec::new()),
        |(calib, reports): &mut (Vec<f64>, Vec<f64>), job| {
            let rep = job % reps;
            let red = reds[job / reps];
            let mut rng = seeded_rng(derive_seed(7, rep as u64));
            // Calibration round.
            calib.clear();
            calib.extend(
                (0..users).map(|i| mech.privatize(population[i % population.len()], &mut rng)),
            );
            let ref_value = percentile(calib, 0.95, Interpolation::Linear);

            // (a) honest play: does the trigger false-fire?
            let mut tft = TitForTat::new(0.95, 0.85, 1.0, red).expect("valid");
            for round in 1..=rounds {
                reports.clear();
                reports.extend((0..users).map(|_| {
                    let idx = rng.gen_range(0..population.len());
                    mech.privatize(population[idx], &mut rng)
                }));
                let above = 1.0 - trimgame_numerics::quantile::ecdf(reports, ref_value);
                let quality = 1.0 - (above - 0.05).max(0.0);
                let _ = tft.observe(round, quality);
            }
            let false_trigger = tft.triggered_at().is_some();

            // (b) attacked play: how fast is a 30% input manipulation caught?
            let attack = InputManipulation::new(1.0);
            let mut tft = TitForTat::new(0.95, 0.85, 1.0, red).expect("valid");
            let mut caught = rounds + 5;
            for round in 1..=rounds {
                reports.clear();
                reports.extend((0..users).map(|_| {
                    let idx = rng.gen_range(0..population.len());
                    mech.privatize(population[idx], &mut rng)
                }));
                reports.extend(attack.reports(&mech, (users as f64 * 0.3) as usize, &mut rng));
                let above = 1.0 - trimgame_numerics::quantile::ecdf(reports, ref_value);
                let quality = 1.0 - (above - 0.05).max(0.0);
                let _ = tft.observe(round, quality);
                if let Some(r) = tft.triggered_at() {
                    caught = r;
                    break;
                }
            }
            (false_trigger, caught as f64)
        },
    );
    for (ri, &red) in reds.iter().enumerate() {
        let slice = &cells[ri * reps..(ri + 1) * reps];
        let false_triggers = slice.iter().filter(|c| c.0).count();
        let detection_sum: f64 = slice.iter().map(|c| c.1).sum();
        let _ = writeln!(
            out,
            "{:>6.2} {:>21.1}% {:>22.2}",
            red,
            false_triggers as f64 / reps as f64 * 100.0,
            detection_sum / reps as f64
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Theorem 3's trade-off made operational: tiny Red false-triggers on"
    );
    let _ = writeln!(
        out,
        "LDP jitter (early termination); large Red delays real detection."
    );
    out
}

/// The compliance region of Theorem 3 over the (d, p) grid.
#[must_use]
pub fn ablate_discount() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Ablation: compliance margin delta_max = (d-dp)/(1-dp)*g_ac =="
    );
    let _ = writeln!(
        out,
        "(g_ac = 1; rows d = discount, cols p = undetected-defection prob.)"
    );
    let _ = writeln!(out);
    let ps = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
    let _ = write!(out, "{:<7}", "d\\p");
    for p in ps {
        let _ = write!(out, " {:>7.2}", p);
    }
    let _ = writeln!(out);
    for d in [0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99] {
        let _ = write!(out, "{:<7.2}", d);
        for p in ps {
            let _ = write!(out, " {:>7.4}", compliance_margin(d, p, 1.0));
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "margin -> 0 as p -> 1 (defection undetectable => no compromise"
    );
    let _ = writeln!(out, "sustains cooperation); margin -> d*g_ac as p -> 0.");
    out
}

/// One-round trimming defense under each mechanism: does the Fig. 9
/// conclusion depend on the Piecewise Mechanism?
#[must_use]
pub fn ablate_mechanism() -> String {
    let reps = config::repetitions();
    let ratio = 0.2;
    let users = 2_000;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Ablation: mechanism choice (ratio {ratio}, debiased trim at p95) =="
    );
    let _ = writeln!(out);
    let _ = write!(out, "{:<12}", "mechanism");
    let epsilons = [1.0, 2.0, 3.0, 4.0, 5.0];
    for eps in epsilons {
        let _ = write!(out, " {:>10}", format!("e={eps}"));
    }
    let _ = writeln!(out);

    let population: Vec<f64> = {
        let mut rng = seeded_rng(99);
        (0..4_000)
            .map(|_| (0.1 + 0.4 * standard_normal(&mut rng)).clamp(-1.0, 1.0))
            .collect()
    };
    let truth = mean(&population);

    // One epsilon column per job; workers reuse calibration/report/trim
    // buffers across columns, and the absolute cut runs through the
    // in-place SIMD trim kernel instead of the allocating facade.
    fn trimmed_mse<M: LdpMechanism + Sync>(
        make: impl Fn(f64) -> M + Sync,
        epsilons: &[f64],
        population: &[f64],
        truth: f64,
        ratio: f64,
        users: usize,
        reps: usize,
    ) -> Vec<f64> {
        parallel_map_with(
            epsilons.len(),
            env_workers(),
            || (Vec::new(), Vec::new(), Vec::new(), TrimScratch::new()),
            |(calib, reports, below, scratch): &mut (Vec<f64>, Vec<f64>, Vec<f64>, TrimScratch),
             ei| {
                let mech = make(epsilons[ei]);
                let attack = InputManipulation::new(1.0);
                let mut total = 0.0;
                for rep in 0..reps {
                    let mut rng = seeded_rng(derive_seed(3, rep as u64));
                    calib.clear();
                    calib.extend(
                        (0..users)
                            .map(|i| mech.privatize(population[i % population.len()], &mut rng)),
                    );
                    calib.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
                    let cut = trimgame_numerics::quantile::percentile_sorted(
                        calib,
                        0.95,
                        Interpolation::Linear,
                    );
                    below.clear();
                    below.extend(calib.iter().copied().filter(|&v| v <= cut));
                    let bias = mean(calib) - mean(below);

                    reports.clear();
                    reports.extend((0..users).map(|_| {
                        let idx = rng.gen_range(0..population.len());
                        mech.privatize(population[idx], &mut rng)
                    }));
                    reports.extend(attack.reports(
                        &mech,
                        (users as f64 * ratio) as usize,
                        &mut rng,
                    ));
                    let _ = scratch.cut(reports, cut);
                    let est = mean(scratch.kept()) + bias;
                    total += (est - truth) * (est - truth);
                }
                total / reps as f64
            },
        )
    }

    let rows: Vec<(&str, Vec<f64>)> = vec![
        (
            "Piecewise",
            trimmed_mse(
                Piecewise::new,
                &epsilons,
                &population,
                truth,
                ratio,
                users,
                reps,
            ),
        ),
        (
            "Duchi",
            trimmed_mse(
                Duchi::new,
                &epsilons,
                &population,
                truth,
                ratio,
                users,
                reps,
            ),
        ),
        (
            "Laplace",
            trimmed_mse(
                LaplaceMechanism::new,
                &epsilons,
                &population,
                truth,
                ratio,
                users,
                reps,
            ),
        ),
    ];
    for (name, mses) in rows {
        let _ = write!(out, "{:<12}", name);
        for m in mses {
            let _ = write!(out, " {:>10.5}", m);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Duchi's binary output defeats value trimming (attack reports are"
    );
    let _ = writeln!(
        out,
        "literally honest outputs), so the defense needs a rich output"
    );
    let _ = writeln!(
        out,
        "space — which is why Fig. 9 runs on the Piecewise Mechanism."
    );
    out
}

/// Exact percentile vs. the P² streaming sketch as the threshold source.
#[must_use]
pub fn ablate_sketch() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Ablation: exact percentile vs P^2 streaming sketch =="
    );
    let _ = writeln!(out);
    let n = 100_000;
    let mut rng = seeded_rng(123);
    let values: Vec<f64> = (0..n)
        .map(|_| standard_normal(&mut rng) * 10.0 + 50.0)
        .collect();

    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>12} {:>16}",
        "p", "exact", "sketch", "abs err", "mis-trimmed (%)"
    );
    for &p in &[0.85, 0.90, 0.95, 0.99] {
        let exact = percentile(&values, p, Interpolation::Linear);
        let mut sketch = P2Quantile::new(p);
        for &v in &values {
            sketch.insert(v);
        }
        let est = sketch.estimate().expect("non-empty stream");
        // How many points land between the two cuts (trimmed by one
        // threshold but not the other)?
        let (lo, hi) = if exact <= est {
            (exact, est)
        } else {
            (est, exact)
        };
        let between = values.iter().filter(|&&v| v > lo && v <= hi).count();
        let _ = writeln!(
            out,
            "{:>6.2} {:>12.4} {:>12.4} {:>12.5} {:>15.3}%",
            p,
            exact,
            est,
            (exact - est).abs(),
            between as f64 / n as f64 * 100.0
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "the sketch holds 5 markers in O(1) memory; threshold error stays"
    );
    let _ = writeln!(
        out,
        "well below the 1-percentile granularity the game plays at."
    );
    out
}

use rand::Rng;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablate_k_lists_all_ks() {
        let report = ablate_k();
        for k in ["0.05", "0.10", "0.90"] {
            assert!(
                report.contains(&format!(
                    "{:>6}",
                    format!("{:.2}", k.parse::<f64>().unwrap())
                )),
                "missing k={k}"
            );
        }
    }

    #[test]
    fn ablate_discount_monotone_rows() {
        let report = ablate_discount();
        assert!(report.contains("d\\p"));
        // p = 1 column must be exactly zero for every d.
        for line in report.lines().filter(|l| l.starts_with('0')) {
            assert!(line.trim_end().ends_with("0.0000"), "line: {line}");
        }
    }

    #[test]
    fn ablate_sketch_reports_small_errors() {
        let report = ablate_sketch();
        assert!(report.contains("mis-trimmed"));
        assert!(report.contains("0.85"));
    }
}
