//! # trimgame
//!
//! A from-scratch Rust implementation of **"Interactive Trimming against
//! Evasive Online Data Manipulation Attacks: A Game-Theoretic Approach"**
//! (Fu, Ye, Du, Hu — ICDE 2024, arXiv:2403.10313).
//!
//! Online data collection is a repeated game: a collector trims each
//! round's batch at a percentile threshold, and a colluding, white-box,
//! *evasive* adversary places poison values to maximize damage while
//! dodging the cut. This workspace implements the paper's full stack:
//!
//! * the game model — payoffs, the complete strategy space `[x_L, x_R]`,
//!   the one-shot ultimatum game (Table I) and the Stackelberg view;
//! * the analytical model — least action, Euler–Lagrange machinery, the
//!   free equilibrium Lagrangian (Theorems 1–2) and the coupled-oscillator
//!   non-equilibrium Lagrangian (Definition 2, Theorem 4);
//! * the two derived defender strategies — **Tit-for-tat** (Algorithm 1,
//!   Theorem 3) and **Elastic** (Algorithm 2);
//! * every substrate the evaluation needs — dataset generators matching
//!   Table II, k-means / SVM / SOM learners, an LDP pipeline (Duchi,
//!   Piecewise, Laplace mechanisms; manipulation attacks; the EMF
//!   baseline), and a streaming collection engine with a public board;
//! * one unified simulation core — `core::engine::EngineStepper<S: Scenario>`
//!   plays the Fig. 3 round loop for the scalar, ML and LDP workloads
//!   alike, pulled to the end by a figure or a sweep cell or pushed round
//!   by round by the streaming collector, on an allocation-free trimming
//!   hot path (`stream::trim::TrimScratch`), with a parallel sweep runner in
//!   `trimgame-bench` fanning seeded game grids across threads.
//!
//! ## Quickstart
//!
//! ```
//! use trimgame::core::simulation::{run_game, GameConfig, Scheme};
//! use trimgame::numerics::rand_ext::{seeded_rng, NormalSampler};
//!
//! // A clean value pool (the benign population), drawn from a seeded
//! // RNG so this quickstart is reproducible bit-for-bit.
//! let mut rng = seeded_rng(2024);
//! let sampler = NormalSampler::new(50.0, 12.0);
//! let pool: Vec<f64> = (0..10_000).map(|_| sampler.sample(&mut rng)).collect();
//!
//! // Play 20 rounds of the Elastic (k = 0.5) scheme against its
//! // coupled adaptive adversary; the game itself is seeded too.
//! let mut config = GameConfig::new(Scheme::Elastic(0.5));
//! config.seed = 42;
//! let result = run_game(&pool, &config);
//!
//! // The coupled dynamics converge: poison ends up deep below the
//! // nominal threshold where it is nearly harmless.
//! let last_injection = *result.injections.last().unwrap();
//! assert!(last_injection < 0.87);
//! println!(
//!     "surviving poison fraction: {:.3}",
//!     result.surviving_poison_fraction()
//! );
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `trim-core` | the game: payoffs, Table I, Tit-for-tat, Elastic, equilibria, simulations |
//! | [`datasets`] | `trimgame-datasets` | Table II dataset generators, streams, poison injectors |
//! | [`ml`] | `trimgame-ml` | k-means, linear SVM, SOM, confusion/PPV/FDR metrics |
//! | [`ldp`] | `trimgame-ldp` | LDP mechanisms, manipulation attacks, EM filter |
//! | [`stream`] | `trimgame-stream` | public board and venue, trimming ops, ingest channels, tiered storage |
//! | [`numerics`] | `trimgame-numerics` | quantiles, stats, RK4, Lagrangians, variational checks |

pub use trim_core as core;
pub use trimgame_datasets as datasets;
pub use trimgame_ldp as ldp;
pub use trimgame_ml as ml;
pub use trimgame_numerics as numerics;
pub use trimgame_stream as stream;

/// Workspace version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let _space = crate::core::space::StrategySpace::new(0.9, 0.99).unwrap();
        let _sampler = crate::numerics::rand_ext::seeded_rng(1);
        assert!(!crate::VERSION.is_empty());
    }
}
