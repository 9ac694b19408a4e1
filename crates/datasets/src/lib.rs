//! Dataset substrate for the `trimgame` workspace.
//!
//! The paper evaluates on five real-world numerical datasets (Table II):
//! Control, Vehicle and Letter (UCI), Taxi (2018-January NYC pick-up times)
//! and Creditcard (PCA-transformed card transactions). Those datasets are
//! not redistributable inside this repository, so this crate provides
//! *seeded synthetic generators with identical shape* — instance counts,
//! feature counts, cluster counts, skew structure — as documented in
//! `DESIGN.md §3`. The Control generator follows the published recipe of
//! the original UCI synthetic control-chart generator, which was itself
//! synthetic.
//!
//! Modules:
//! * [`dataset`] — the dense row-major [`Dataset`] container.
//! * [`synthetic`] — Gaussian-mixture machinery for arbitrary shapes.
//! * [`shapes`] — the five named generators matching Table II.
//! * [`stream`] — per-round batch streams for the online collection game.
//! * [`poison`] — poison-value injectors (single point, range, mixed
//!   strategy) operating in percentile space, as in Section VI-A.
//! * [`percentile`] — the centroid-distance projection that turns a
//!   multi-dimensional dataset into the scalar stream the game trims.

pub mod dataset;
pub mod percentile;
pub mod poison;
pub mod shapes;
pub mod stream;
pub mod synthetic;

pub use dataset::{Dataset, DatasetInfo};
pub use poison::{InjectionPosition, PoisonBatch, PoisonSpec};
pub use shapes::{control, creditcard, letter, taxi, vehicle, Shape};
pub use stream::RoundStream;
pub use synthetic::{GaussianComponent, GmmSpec};
