//! Property-based tests for the game-theoretic core.

use proptest::prelude::*;
use trim_core::adversary::AttackPolicy;
use trim_core::elastic::CoupledDynamics;
use trim_core::engine::{EngineRun, EngineScratch};
use trim_core::matrix::{Move, UltimatumPayoffs};
use trim_core::simulation::{run_game, run_game_with_scratch, GameConfig, ScalarArena, Scheme};
use trim_core::space::StrategySpace;
use trim_core::strategy::ThresholdPolicy;
use trim_core::titfortat::{adversary_complies, compliance_margin, compliant_gain, defector_gain};

/// One lean scalar game on a fresh arena and scratch: the summary and
/// the recorded series.
fn lean_run(
    pool: &[f64],
    cfg: &GameConfig,
    defender: Box<dyn ThresholdPolicy>,
    adversary: Box<dyn AttackPolicy>,
) -> (EngineRun, EngineScratch) {
    let mut scratch = EngineScratch::new();
    let arena = &mut ScalarArena::new(pool);
    let run = run_game_with_scratch(cfg, defender, adversary, None, arena, &mut scratch);
    (run, scratch)
}

proptest! {
    #[test]
    fn theorem3_margin_is_consistent_with_gains(
        d in 0.01_f64..0.99,
        p in 0.0_f64..1.0,
        g_ac in 0.1_f64..100.0,
    ) {
        let margin = compliance_margin(d, p, g_ac);
        prop_assert!(margin >= -1e-12);
        prop_assert!(margin <= d * g_ac + 1e-9);
        // Just inside the margin: compliance; just outside: defection.
        if margin > 1e-6 {
            prop_assert!(adversary_complies(margin * 0.999, d, p, g_ac));
        }
        prop_assert!(!adversary_complies(margin * 1.001 + 1e-9, d, p, g_ac));
        // Cross-check against the discounted-gain comparison.
        let delta = margin / 2.0;
        let complies = adversary_complies(delta, d, p, g_ac);
        let by_gains = compliant_gain(g_ac - delta, d) > defector_gain(g_ac, d, p);
        prop_assert_eq!(complies, by_gains);
    }

    #[test]
    fn ultimatum_equilibrium_is_always_hard_hard(
        t_soft in 0.1_f64..5.0,
        p_gap in 0.1_f64..5.0,
        t_gap in 0.1_f64..50.0,
        p_hard_gap in 0.1_f64..50.0,
    ) {
        // Construct parameters satisfying P̄ > T̄ > P + T.
        let p_soft = t_soft + p_gap;
        let t_hard = p_soft + t_soft + t_gap;
        let p_hard = t_hard + p_hard_gap;
        let u = UltimatumPayoffs::new(p_hard, t_hard, p_soft, t_soft).unwrap();
        let m = u.matrix();
        prop_assert_eq!(m.pure_nash_equilibria(), vec![(Move::Hard, Move::Hard)]);
        prop_assert!(m.pareto_dominates((Move::Soft, Move::Soft), (Move::Hard, Move::Hard)));
    }

    #[test]
    fn coupled_dynamics_contract_to_fixed_point(k in 0.01_f64..0.95, tth in 0.5_f64..0.99) {
        let d = CoupledDynamics::new(tth, k).unwrap();
        let fp = d.fixed_point();
        let traj = d.trajectory(300);
        let last = traj.last().unwrap();
        prop_assert!((last.trim - fp.trim).abs() < 1e-6);
        prop_assert!((last.inject - fp.inject).abs() < 1e-6);
        // Fixed point is below the nominal threshold on both sides.
        prop_assert!(fp.trim < tth + 1e-12);
        prop_assert!(fp.inject < tth);
    }

    #[test]
    fn coupled_costs_decay(k in 0.05_f64..0.9) {
        let d = CoupledDynamics::new(0.9, k).unwrap();
        let c10 = d.roundwise_cost(10);
        let c40 = d.roundwise_cost(40);
        prop_assert!(c40 <= c10 + 1e-12);
    }

    #[test]
    fn strategy_space_decomposition_round_trips(
        lo in 0.0_f64..0.5,
        width in 0.01_f64..0.5,
        t in 0.0_f64..1.0,
    ) {
        let space = StrategySpace::new(lo, lo + width).unwrap();
        let x = lo + t * width;
        let m = space.decompose(x).unwrap();
        prop_assert!((m.position - x).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&m.p_l));
        let back = space.compose(m.p_l).unwrap();
        prop_assert!((back.position - x).abs() < 1e-9);
    }

    #[test]
    fn game_provenance_is_conserved(
        seed in any::<u64>(),
        ratio in 0.0_f64..0.5,
    ) {
        let pool: Vec<f64> = (0..2_000).map(|i| (i % 500) as f64).collect();
        let mut cfg = GameConfig::new(Scheme::Baseline09);
        cfg.rounds = 5;
        cfg.batch = 200;
        cfg.seed = seed;
        cfg.attack_ratio = ratio;
        let r = run_game(&pool, &cfg);
        for o in &r.outcomes {
            prop_assert!(o.poison_survived <= o.poison_received);
            prop_assert_eq!(
                o.kept.len() + o.benign_trimmed + (o.poison_received - o.poison_survived),
                o.received
            );
            let expected_poison = (ratio * 200.0).round() as usize;
            prop_assert_eq!(o.poison_received, expected_poison);
        }
        let f = r.surviving_poison_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn schemes_never_panic_across_ratios(
        ratio in 0.0_f64..0.6,
        seed in any::<u64>(),
    ) {
        let pool: Vec<f64> = (0..1_000).map(|i| (i % 250) as f64).collect();
        for scheme in Scheme::roster() {
            let mut cfg = GameConfig::new(scheme);
            cfg.rounds = 3;
            cfg.batch = 100;
            cfg.seed = seed;
            cfg.attack_ratio = ratio;
            let r = run_game(&pool, &cfg);
            prop_assert_eq!(r.outcomes.len(), 3);
        }
    }

    #[test]
    fn single_atom_randomized_defender_is_trajectory_identical_to_fixed(
        tth in 0.5_f64..0.98,
        weight in 0.01_f64..50.0,
        seed in any::<u64>(),
        ratio in 0.05_f64..0.4,
    ) {
        // A RandomizedDefender whose support is one atom must replay the
        // equivalent Fixed policy bit-for-bit: the degenerate mixture
        // consumes no randomness from any stream, so the main environment
        // stream (benign draws, the Uniform adversary's mixing) is
        // untouched, regardless of the (renormalized) weight.
        use trim_core::adversary::AdversaryPolicy;
        use trim_core::strategy::{DefenderPolicy, RandomizedDefender};
        let pool: Vec<f64> = (0..2_000).map(|i| (i % 500) as f64).collect();
        let mut cfg = GameConfig::new(Scheme::Baseline09);
        cfg.tth = tth;
        cfg.rounds = 4;
        cfg.batch = 150;
        cfg.seed = seed;
        cfg.attack_ratio = ratio;
        let adversary = || AdversaryPolicy::Uniform { lo: 0.85, hi: 1.0 };
        let (fixed, fixed_series) = lean_run(
            &pool,
            &cfg,
            Box::new(DefenderPolicy::Fixed { tth }),
            Box::new(adversary()),
        );
        let singleton = RandomizedDefender::new(&[tth], &[weight]).unwrap();
        let (randomized, randomized_series) =
            lean_run(&pool, &cfg, Box::new(singleton), Box::new(adversary()));
        prop_assert_eq!(fixed_series.thresholds(), randomized_series.thresholds());
        prop_assert_eq!(fixed_series.injections(), randomized_series.injections());
        prop_assert_eq!(fixed_series.utilities().u_a, randomized_series.utilities().u_a);
        prop_assert_eq!(fixed_series.utilities().u_c, randomized_series.utilities().u_c);
        prop_assert_eq!(fixed.totals, randomized.totals);
    }

    #[test]
    fn randomized_defender_weights_reject_invalid_inputs(
        w in -10.0_f64..-0.001,
        atom in 0.0_f64..1.0,
    ) {
        use trim_core::strategy::RandomizedDefender;
        // Any negative weight anywhere fails construction.
        prop_assert!(RandomizedDefender::new(&[atom, 0.95], &[w, 1.0]).is_err());
        prop_assert!(RandomizedDefender::new(&[atom], &[w]).is_err());
        // NaN propagates to an error, never a panic.
        prop_assert!(RandomizedDefender::new(&[atom], &[f64::NAN]).is_err());
    }

    #[test]
    fn exp3_weights_stay_positive_and_normalized_under_adversarial_payoffs(
        k in 2_usize..6,
        seed in 0_u64..1_000,
        payoffs in prop::collection::vec(-2.0_f64..3.0, 1..150),
    ) {
        // Adversarial payoff sequences — including negative and
        // out-of-bound values the clamp must absorb — never break the
        // invariants: weights strictly positive and summing to one,
        // played probabilities strictly positive and summing to one.
        use trim_core::adversary::{AdversaryObservation, AttackPolicy, Exp3Attacker};
        use trimgame_numerics::rand_ext::seeded_rng;
        let atoms: Vec<f64> = (0..k).map(|i| 0.5 + 0.4 * i as f64 / k as f64).collect();
        let mut attacker =
            Exp3Attacker::new(&atoms, payoffs.len().max(2), 1.0, seed).unwrap();
        let obs = AdversaryObservation { last_threshold: None };
        let mut main = seeded_rng(1);
        for (round, &g) in payoffs.iter().enumerate() {
            let inj = attacker.next_injection(&obs, &mut main);
            prop_assert!(atoms.contains(&inj));
            attacker.observe_payoff(round + 1, g);
            let weights = attacker.weights();
            prop_assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for &w in weights {
                prop_assert!(w > 0.0 && w.is_finite(), "weight {}", w);
            }
            let probs = attacker.probabilities();
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for &p in &probs {
                prop_assert!(p > 0.0 && p.is_finite(), "probability {}", p);
            }
        }
    }

    #[test]
    fn exp3_singleton_is_trajectory_identical_to_fixed(
        percentile in 0.0_f64..1.0,
        seed in 0_u64..500,
        rounds in 2_usize..10,
    ) {
        // A single-response Exp3 consumes no randomness anywhere — not the
        // main environment stream, not its private stream — so the whole
        // engine trajectory is bit-identical to the corresponding pure
        // Fixed attack policy.
        use trim_core::adversary::{AdversaryPolicy, Exp3Attacker};
        use trim_core::strategy::DefenderPolicy;
        let pool: Vec<f64> = (0..2_000).map(|i| (i % 500) as f64 / 5.0).collect();
        let mut cfg = GameConfig::new(Scheme::BaselineStatic);
        cfg.rounds = rounds;
        cfg.batch = 120;
        cfg.seed = seed;
        let run = |attacker: Box<dyn AttackPolicy>| {
            lean_run(&pool, &cfg, Box::new(DefenderPolicy::Fixed { tth: cfg.tth }), attacker)
        };
        let (exp3, exp3_series) = run(Box::new(
            Exp3Attacker::new(&[percentile], rounds, 1.0, seed).unwrap(),
        ));
        let (fixed, fixed_series) = run(Box::new(AdversaryPolicy::Fixed { percentile }));
        prop_assert_eq!(exp3_series.thresholds(), fixed_series.thresholds());
        prop_assert_eq!(exp3_series.injections(), fixed_series.injections());
        prop_assert_eq!(exp3_series.utilities().u_a, fixed_series.utilities().u_a);
        prop_assert_eq!(exp3_series.utilities().u_c, fixed_series.utilities().u_c);
        prop_assert_eq!(exp3.totals, fixed.totals);
    }
}
