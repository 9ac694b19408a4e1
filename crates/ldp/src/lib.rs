//! Local differential privacy (LDP) substrate.
//!
//! Section V of the paper presents its case study "in a privacy-preserving
//! data collection system under local differential privacy where a
//! non-deterministic utility function is adopted", and Fig. 9 compares the
//! game-theoretic trimming strategies against the Expectation-Maximization
//! Filter (EMF) of Du et al. (ICDE'23) on the Taxi dataset. This crate
//! provides the whole pipeline, from scratch:
//!
//! * [`mechanism`] — the [`LdpMechanism`] trait for mean estimation over
//!   the normalized input domain `[−1, 1]`.
//! * [`duchi`] — Duchi et al.'s binary mechanism (outputs `±C`).
//! * [`piecewise`] — Wang et al.'s Piecewise Mechanism (continuous outputs
//!   in `[−C, C]`), the default mechanism for Fig. 9 because its output
//!   space is rich enough for histogram-based filtering.
//! * [`laplace`] — the Laplace mechanism with sensitivity 2.
//! * [`attack`] — manipulation attacks of Cheu et al.: *general* (report
//!   any output value) and *input* manipulation (poison the input, then
//!   follow the protocol — fully deniable, the strong evasion of Fig. 9).
//! * [`emf`] — the EM filter baseline: a mixture model over discretized
//!   outputs separating honest mass from attack mass.

pub mod attack;
pub mod duchi;
pub mod emf;
pub mod laplace;
pub mod mechanism;
pub mod piecewise;

pub use attack::{Attack, GeneralManipulation, InputManipulation};
pub use duchi::Duchi;
pub use emf::EmFilter;
pub use laplace::LaplaceMechanism;
pub use mechanism::LdpMechanism;
pub use piecewise::Piecewise;
