//! Prints seeded fingerprints of the three simulators.
//!
//! All three run through the one round loop, `EngineStepper<S: Scenario>`;
//! this binary's output is the contract that fixed-seed trajectories stay
//! bit-identical. The expected output is committed next to this file as
//! `snapshot_check.out`, and CI diffs a fresh run against it:
//!
//! ```sh
//! cargo run --release --example snapshot_check | diff examples/snapshot_check.out -
//! ```
//!
//! Any drift means the RNG call order or the round arithmetic changed.

use trimgame::core::ldp_sim::{run_ldp_collection, LdpDefense, LdpSimConfig};
use trimgame::core::ml_sim::{collect_poisoned, MlSimConfig};
use trimgame::core::simulation::{run_game, GameConfig, Scheme};
use trimgame::datasets::synthetic::{GaussianComponent, GmmSpec};
use trimgame::numerics::rand_ext::seeded_rng;

fn main() {
    let pool: Vec<f64> = (0..10_000).map(|i| (i % 1000) as f64 / 10.0).collect();
    for scheme in Scheme::roster() {
        let mut cfg = GameConfig::new(scheme);
        cfg.seed = 1234;
        let r = run_game(&pool, &cfg);
        let kept_sum: f64 = r.retained.iter().sum();
        println!(
            "scalar {} ua={:.12} uc={:.12} kept={} sum={:.6} term={:?} thr={:.12} inj={:.12}",
            scheme.name(),
            r.utilities.u_a.last().unwrap(),
            r.utilities.u_c.last().unwrap(),
            r.retained.len(),
            kept_sum,
            r.termination_round,
            r.thresholds.iter().sum::<f64>(),
            r.injections.iter().sum::<f64>(),
        );
    }
    let spec = GmmSpec::new(vec![
        GaussianComponent::spherical(vec![-8.0, 0.0], 1.0, 1.0),
        GaussianComponent::spherical(vec![8.0, 0.0], 1.0, 1.0),
    ]);
    let data = spec.generate("blobs", 600, &mut seeded_rng(5));
    for scheme in [Scheme::Ostrich, Scheme::TitForTat, Scheme::Elastic(0.5)] {
        let set = collect_poisoned(&data, &MlSimConfig::new(scheme, 0.9, 0.3, 77));
        let sum: f64 = set.retained.values().iter().sum();
        println!(
            "ml {} rows={} sum={:.6} ps={} pr={} bt={}",
            scheme.name(),
            set.retained.rows(),
            sum,
            set.poison_survived,
            set.poison_received,
            set.benign_trimmed
        );
    }
    let popn: Vec<f64> = (0..4_000)
        .map(|i| (2.0 * ((i % 1000) as f64 / 1000.0) - 1.0) * 0.7)
        .collect();
    for defense in LdpDefense::roster() {
        let cfg = LdpSimConfig {
            users_per_round: 800,
            rounds: 4,
            ..LdpSimConfig::new(2.0, 0.2, 31)
        };
        let est = run_ldp_collection(&popn, defense, &cfg);
        println!("ldp {} est={:.15}", defense.name(), est);
    }
}
