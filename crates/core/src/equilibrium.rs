//! Stackelberg equilibrium computation over the strategy space.
//!
//! In the sequential (leader–follower) game the collector commits to a
//! trimming position `x_c ∈ [x_L, x_R]` and the adversary best-responds
//! with an injection `x_a`. Since poison survives iff `x_a ≤ x_c` and
//! damage increases with `x_a`, the follower's best response is to ride
//! just below the threshold (`x_a = x_c`); the leader therefore solves
//!
//! ```text
//! min_{x_c}  damage(x_c) + overhead(x_c)
//! ```
//!
//! which the solver does by golden-section search (both curves are assumed
//! unimodal on the interval, as in Fig. 1a) with a grid fallback check.

use crate::error::CoreError;
use crate::space::StrategySpace;

/// The computed Stackelberg equilibrium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackelbergEquilibrium {
    /// The leader's (collector's) trimming position.
    pub x_c: f64,
    /// The follower's (adversary's) best-response injection.
    pub x_a: f64,
    /// The leader's equilibrium loss `damage + overhead`.
    pub leader_loss: f64,
}

/// Golden-section + grid solver for the leader's problem.
pub struct StackelbergSolver<D, O>
where
    D: Fn(f64) -> f64,
    O: Fn(f64) -> f64,
{
    space: StrategySpace,
    damage: D,
    overhead: O,
}

impl<D, O> std::fmt::Debug for StackelbergSolver<D, O>
where
    D: Fn(f64) -> f64,
    O: Fn(f64) -> f64,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StackelbergSolver")
            .field("space", &self.space)
            .finish_non_exhaustive()
    }
}

impl<D, O> StackelbergSolver<D, O>
where
    D: Fn(f64) -> f64,
    O: Fn(f64) -> f64,
{
    /// Creates a solver over `space` with the given damage (increasing)
    /// and overhead (decreasing) curves.
    #[must_use]
    pub fn new(space: StrategySpace, damage: D, overhead: O) -> Self {
        Self {
            space,
            damage,
            overhead,
        }
    }

    fn leader_loss(&self, x: f64) -> f64 {
        (self.damage)(x) + (self.overhead)(x)
    }

    /// Solves for the equilibrium.
    ///
    /// # Errors
    /// Returns [`CoreError::NoConvergence`] if the search degenerates
    /// (non-finite losses).
    pub fn solve(&self) -> Result<StackelbergEquilibrium, CoreError> {
        let (a, b) = (self.space.x_l, self.space.x_r);
        // Golden-section search for the minimum of leader_loss.
        let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
        let mut lo = a;
        let mut hi = b;
        let mut x1 = hi - phi * (hi - lo);
        let mut x2 = lo + phi * (hi - lo);
        let mut f1 = self.leader_loss(x1);
        let mut f2 = self.leader_loss(x2);
        for _ in 0..200 {
            if !(f1.is_finite() && f2.is_finite()) {
                return Err(CoreError::NoConvergence { iterations: 200 });
            }
            if f1 < f2 {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - phi * (hi - lo);
                f1 = self.leader_loss(x1);
            } else {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + phi * (hi - lo);
                f2 = self.leader_loss(x2);
            }
            if (hi - lo).abs() < 1e-12 {
                break;
            }
        }
        let mut best_x = 0.5 * (lo + hi);
        let mut best_f = self.leader_loss(best_x);
        // Grid fallback guards against multimodal curves.
        for i in 0..=400 {
            let x = a + (b - a) * i as f64 / 400.0;
            let f = self.leader_loss(x);
            if f < best_f {
                best_f = f;
                best_x = x;
            }
        }
        Ok(StackelbergEquilibrium {
            x_c: best_x,
            x_a: best_x, // follower rides the threshold
            leader_loss: best_f,
        })
    }

    /// The leader's loss `damage + overhead` at commitment `x` (clamped
    /// into the strategy space) — the curve [`StackelbergSolver::solve`]
    /// minimizes, exposed for finite-support comparisons.
    #[must_use]
    pub fn loss_at(&self, x: f64) -> f64 {
        self.leader_loss(x.clamp(self.space.x_l, self.space.x_r))
    }

    /// The best pure commitment restricted to a finite set of threshold
    /// `atoms`: `min` over the (clamped) atoms of the leader loss, with
    /// the follower riding each threshold. This is the deterministic
    /// benchmark the empirical equilibrium estimator compares mixed play
    /// against — the mixed minimax value over the same atoms is never
    /// worse, and the difference is the defender's randomization
    /// advantage. Returns `+∞` for an empty atom set.
    #[must_use]
    pub fn pure_commitment_value(&self, atoms: &[f64]) -> f64 {
        atoms
            .iter()
            .map(|&x| self.loss_at(x))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> StrategySpace {
        StrategySpace::new(0.85, 1.0).unwrap()
    }

    #[test]
    fn equilibrium_balances_marginals() {
        // damage(x) = 2(x - 0.85), overhead(x) = (1 - x)^2 / 0.15.
        // leader loss f(x) = 2(x-0.85) + (1-x)^2/0.15; f'(x) = 2 - 2(1-x)/0.15
        // = 0  =>  1 - x = 0.15  =>  x = 0.85 ... boundary-ish; pick curves
        // with an interior optimum instead:
        let damage = |x: f64| 4.0 * (x - 0.85);
        let overhead = |x: f64| (1.0 - x) * (1.0 - x) / 0.05;
        // f'(x) = 4 - 2(1-x)/0.05 = 0 => 1-x = 0.1 => x = 0.9.
        let solver = StackelbergSolver::new(space(), damage, overhead);
        let eq = solver.solve().unwrap();
        assert!((eq.x_c - 0.9).abs() < 1e-3, "x_c = {}", eq.x_c);
        assert_eq!(eq.x_a, eq.x_c);
        assert!((eq.leader_loss - (damage(eq.x_c) + overhead(eq.x_c))).abs() < 1e-9);
    }

    #[test]
    fn pure_damage_pushes_to_hard_end() {
        // No overhead: the collector trims as hard as allowed.
        let solver = StackelbergSolver::new(space(), |x| x, |_| 0.0);
        let eq = solver.solve().unwrap();
        assert!((eq.x_c - 0.85).abs() < 1e-6);
    }

    #[test]
    fn pure_overhead_pushes_to_soft_end() {
        // No damage: never trim more than necessary.
        let solver = StackelbergSolver::new(space(), |_| 0.0, |x| 1.0 - x);
        let eq = solver.solve().unwrap();
        assert!((eq.x_c - 1.0).abs() < 1e-6);
    }

    #[test]
    fn equilibrium_beats_grid_alternatives() {
        let damage = |x: f64| (x - 0.85).powi(2) * 30.0;
        let overhead = |x: f64| (1.0 - x).sqrt();
        let solver = StackelbergSolver::new(space(), damage, overhead);
        let eq = solver.solve().unwrap();
        for i in 0..=100 {
            let x = 0.85 + 0.15 * i as f64 / 100.0;
            assert!(
                eq.leader_loss <= damage(x) + overhead(x) + 1e-9,
                "beaten at x={x}"
            );
        }
    }

    #[test]
    fn pure_commitment_over_atoms_bounds_the_continuum() {
        let damage = |x: f64| 4.0 * (x - 0.85);
        let overhead = |x: f64| (1.0 - x) * (1.0 - x) / 0.05;
        let solver = StackelbergSolver::new(space(), damage, overhead);
        let continuum = solver.solve().unwrap().leader_loss;
        let grid = solver.pure_commitment_value(&[0.86, 0.9, 0.98]);
        // The optimum 0.9 is on the grid, so the restricted value matches.
        assert!((grid - continuum).abs() < 1e-9);
        // A grid missing the optimum can only be worse.
        let coarse = solver.pure_commitment_value(&[0.86, 0.98]);
        assert!(coarse > continuum);
        // Atoms outside the space clamp; empty grids are infinitely bad.
        assert!((solver.loss_at(0.5) - solver.loss_at(0.85)).abs() < 1e-12);
        assert_eq!(solver.pure_commitment_value(&[]), f64::INFINITY);
    }

    #[test]
    fn non_finite_curves_error() {
        let solver = StackelbergSolver::new(space(), |_| f64::NAN, |_| 0.0);
        assert!(matches!(
            solver.solve(),
            Err(CoreError::NoConvergence { .. })
        ));
    }
}
