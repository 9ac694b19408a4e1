//! Numerical substrate for the `trimgame` workspace.
//!
//! The paper ("Interactive Trimming against Evasive Online Data Manipulation
//! Attacks", ICDE 2024) models the infinite collection game with the
//! machinery of analytical mechanics: the principle of least action, the
//! Euler–Lagrange equation, and a harmonic-oscillator interaction term. This
//! crate provides that machinery, plus the percentile/statistics primitives
//! every other crate builds on:
//!
//! * [`stats`] — descriptive statistics (mean, variance, SSE, MSE, …).
//! * [`quantile`] — exact percentile computation with several interpolation
//!   conventions (the paper describes positions "in terms of data
//!   percentiles").
//! * [`sketch`] — the P² streaming quantile estimator, so thresholds can be
//!   maintained over unbounded streams without buffering rounds.
//! * [`gk`] — the Greenwald–Khanna summary, which answers any quantile of
//!   a stream on demand (the collector's moving threshold).
//! * [`simd`] — the mask-compact filter kernels of the per-round trim.
//! * [`ode`] — a fixed-step RK4 integrator for second-order systems.
//! * [`lagrangian`] — Lagrangian trait and the two system Lagrangians of the
//!   paper (free / equilibrium, Theorem 2; coupled oscillator, Definition 2).
//! * [`variational`] — discrete action functionals and Euler–Lagrange
//!   residuals to verify least-action claims numerically.
//! * [`oscillator`] — closed-form solution of the coupled two-mass oscillator
//!   (Theorem 4) for cross-checking the integrator.
//! * [`rand_ext`] — seeded RNG helpers plus Gaussian/Laplace sampling
//!   implemented in-crate (polar Box–Muller; inverse-CDF Laplace).

pub mod gk;
pub mod lagrangian;
pub mod ode;
pub mod oscillator;
pub mod quantile;
pub mod rand_ext;
pub mod simd;
pub mod sketch;
pub mod stats;
pub mod variational;

pub use gk::GkSummary;
pub use lagrangian::{CoupledOscillatorLagrangian, FreeLagrangian, Lagrangian};
pub use ode::{rk4_integrate, rk4_step, SecondOrderSystem, Trajectory};
pub use oscillator::CoupledOscillator;
pub use quantile::{percentile, percentile_of, Interpolation};
pub use rand_ext::{derive_seed, laplace, seeded_rng, standard_normal, NormalSampler};
pub use sketch::P2Quantile;
pub use stats::{mean, mse, sse, variance, OnlineStats};
