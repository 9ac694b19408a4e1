//! `trim-core` — the paper's primary contribution: an interactive
//! game-theoretic model for online data manipulation attacks and the
//! trimming defense, with the Tit-for-tat and Elastic strategies derived
//! from its analytical (least-action) model.
//!
//! Map from paper sections to modules:
//!
//! | Paper | Module |
//! |---|---|
//! | §III-C strategy space `[x_L, x_R]`, mixed strategies | [`space`] |
//! | §III-D Table I ultimatum game | [`matrix`] |
//! | §IV analytical model, Theorems 1–2 | [`lagrange`] |
//! | §V-A Tit-for-tat (Algorithm 1), Theorem 3 | [`titfortat`] |
//! | §V-B Elastic (Algorithm 2), Definition 2, Theorem 4 | [`elastic`] |
//! | §VI-A scheme roster (Ostrich, baselines, ours) | [`strategy`], [`adversary`] |
//! | Stackelberg equilibrium computation | [`equilibrium`] |
//! | Fig. 3 unified round loop (`EngineStepper<S: Scenario>`) | [`engine`] |
//! | §VI-B/C/D experiment drivers (k-means/SVM/SOM, Table III/IV) | [`simulation`], [`ml_sim`] |
//! | §VI-E LDP case study (Fig. 9) | [`ldp_sim`] |

pub mod adversary;
pub mod elastic;
pub mod engine;
pub mod equilibrium;
pub mod error;
pub mod lagrange;
pub mod ldp_sim;
pub mod matrix;
pub mod ml_sim;
pub mod simulation;
pub mod space;
pub mod strategy;
pub mod titfortat;

pub use adversary::{AdaptiveAttacker, AdversaryPolicy, AttackPolicy};
pub use elastic::{CoupledDynamics, ElasticThreshold};
pub use engine::{
    EngineRun, EngineScratch, EngineStep, EngineStepper, EngineTotals, RoundReport, Scenario,
};
pub use equilibrium::StackelbergSolver;
pub use error::CoreError;
pub use matrix::{MatrixGame, MixedEquilibrium, Move, PayoffMatrix, UltimatumPayoffs};
pub use simulation::{GameConfig, GameResult, Scheme};
pub use space::{MixedPoint, MixedSupport, StrategySpace};
pub use strategy::{DefenderPolicy, RandomizedDefender, ThresholdPolicy};
pub use titfortat::{compliance_margin, TitForTat};
