//! Bridge between game trajectories and the analytical model of Section IV.
//!
//! The analytical model treats cumulative utilities `(u_a(r), u_c(r))` as
//! generalized coordinates. This module extracts those trajectories from
//! simulated games and checks the paper's claims against them:
//!
//! * **Theorem 1** (equilibrium ⇒ constant utility velocity):
//!   [`fit_constant_velocity`] regresses a cumulative utility series on
//!   the round index and reports the maximum deviation from linearity.
//! * **Theorem 2** (equilibrium Lagrangian is free): equilibrium
//!   trajectories produce near-zero Euler–Lagrange residuals under
//!   [`trimgame_numerics::FreeLagrangian`].
//! * **Theorem 4** (Elastic ⇒ periodic relative utility):
//!   [`oscillation_metrics`] detrends `u_a − u_c` and measures zero-
//!   crossing regularity against the closed-form period.

use trimgame_numerics::ode::Trajectory;

/// Cumulative utility trajectories of both parties over rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityTrajectory {
    /// Adversary cumulative utility per round, `u_a(r)`.
    pub u_a: Vec<f64>,
    /// Collector cumulative utility per round, `u_c(r)`.
    pub u_c: Vec<f64>,
}

impl UtilityTrajectory {
    /// Builds cumulative trajectories from per-round gains.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn from_roundwise(gains_a: &[f64], gains_c: &[f64]) -> Self {
        assert_eq!(gains_a.len(), gains_c.len(), "length mismatch");
        let cum = |g: &[f64]| {
            let mut acc = 0.0;
            g.iter()
                .map(|x| {
                    acc += x;
                    acc
                })
                .collect::<Vec<f64>>()
        };
        Self {
            u_a: cum(gains_a),
            u_c: cum(gains_c),
        }
    }

    /// Number of rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.u_a.len()
    }

    /// The relative utility `u_a − u_c` per round (the oscillator's
    /// coordinate in Theorem 4).
    #[must_use]
    pub fn relative(&self) -> Vec<f64> {
        self.u_a.iter().zip(&self.u_c).map(|(a, c)| a - c).collect()
    }

    /// Converts to a [`Trajectory`] with unit round spacing and forward-
    /// difference velocities, for Euler–Lagrange residual checks.
    #[must_use]
    pub fn to_trajectory(&self) -> Trajectory {
        let n = self.rounds();
        let mut qdot = Vec::with_capacity(n);
        for i in 0..n {
            let j = if i + 1 < n { i + 1 } else { i };
            let k = if i + 1 < n { i } else { i.saturating_sub(1) };
            let denom = if j == k { 1.0 } else { (j - k) as f64 };
            qdot.push(vec![
                (self.u_a[j] - self.u_a[k]) / denom,
                (self.u_c[j] - self.u_c[k]) / denom,
            ]);
        }
        Trajectory {
            r: (0..n).map(|i| i as f64).collect(),
            q: self
                .u_a
                .iter()
                .zip(&self.u_c)
                .map(|(a, c)| vec![*a, *c])
                .collect(),
            qdot,
        }
    }
}

/// Least-squares linear fit of a series against the round index.
/// Returns `(slope, intercept, max_abs_deviation)`.
///
/// # Panics
/// Panics on series shorter than 2.
#[must_use]
pub fn fit_constant_velocity(series: &[f64]) -> (f64, f64, f64) {
    let n = series.len();
    assert!(n >= 2, "need at least two samples");
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = series.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (i, &y) in series.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxx += dx * dx;
        sxy += dx * (y - mean_y);
    }
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = mean_y - slope * mean_x;
    let max_dev = series
        .iter()
        .enumerate()
        .map(|(i, &y)| (y - (intercept + slope * i as f64)).abs())
        .fold(0.0, f64::max);
    (slope, intercept, max_dev)
}

/// Theorem 1 check: is the cumulative utility series linear in `r` (within
/// `tol` × its range)?
#[must_use]
pub fn is_constant_velocity(series: &[f64], tol: f64) -> bool {
    if series.len() < 2 {
        return true;
    }
    let (_, _, max_dev) = fit_constant_velocity(series);
    let range = series.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x))
        - series.iter().fold(f64::INFINITY, |m, &x| m.min(x));
    max_dev <= tol * range.max(1e-12)
}

/// Oscillation diagnostics for Theorem 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillationMetrics {
    /// Number of sign changes of the detrended relative utility.
    pub zero_crossings: usize,
    /// Mean spacing (in rounds) between consecutive zero crossings —
    /// half the empirical oscillation period.
    pub mean_crossing_gap: f64,
    /// Peak absolute detrended amplitude.
    pub amplitude: f64,
}

/// Detrends the relative utility and measures its oscillation.
///
/// # Panics
/// Panics on series shorter than 4.
#[must_use]
pub fn oscillation_metrics(relative: &[f64]) -> OscillationMetrics {
    assert!(relative.len() >= 4, "need at least four samples");
    let (slope, intercept, _) = fit_constant_velocity(relative);
    let detrended: Vec<f64> = relative
        .iter()
        .enumerate()
        .map(|(i, &y)| y - (intercept + slope * i as f64))
        .collect();
    let mut crossings = Vec::new();
    for i in 1..detrended.len() {
        if detrended[i - 1].signum() != detrended[i].signum() && detrended[i - 1] != 0.0 {
            crossings.push(i);
        }
    }
    let mean_gap = if crossings.len() >= 2 {
        let total: usize = crossings.windows(2).map(|w| w[1] - w[0]).sum();
        total as f64 / (crossings.len() - 1) as f64
    } else {
        f64::INFINITY
    };
    OscillationMetrics {
        zero_crossings: crossings.len(),
        mean_crossing_gap: mean_gap,
        amplitude: detrended.iter().fold(0.0, |m, &x| m.max(x.abs())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgame_numerics::lagrangian::CoupledOscillatorLagrangian;
    use trimgame_numerics::ode::rk4_integrate;
    use trimgame_numerics::variational::max_residual;
    use trimgame_numerics::FreeLagrangian;

    #[test]
    fn cumulative_from_roundwise() {
        let traj = UtilityTrajectory::from_roundwise(&[1.0, 1.0, 1.0], &[0.5, 0.5, 0.5]);
        assert_eq!(traj.u_a, vec![1.0, 2.0, 3.0]);
        assert_eq!(traj.u_c, vec![0.5, 1.0, 1.5]);
        assert_eq!(traj.relative(), vec![0.5, 1.0, 1.5]);
        assert_eq!(traj.rounds(), 3);
    }

    #[test]
    fn theorem1_constant_gains_are_linear() {
        // Equilibrium play: constant roundwise gains -> linear cumulative
        // utility -> constant velocity.
        let gains = vec![2.0; 50];
        let traj = UtilityTrajectory::from_roundwise(&gains, &gains);
        assert!(is_constant_velocity(&traj.u_a, 1e-9));
        let (slope, intercept, dev) = fit_constant_velocity(&traj.u_a);
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 2.0).abs() < 1e-9);
        assert!(dev < 1e-9);
    }

    #[test]
    fn theorem1_violated_off_equilibrium() {
        // Quadratically growing utility is not constant-velocity.
        let series: Vec<f64> = (0..50).map(|i| (i * i) as f64).collect();
        assert!(!is_constant_velocity(&series, 0.01));
    }

    #[test]
    fn theorem2_equilibrium_has_zero_free_residual() {
        let gains_a = vec![1.5; 100];
        let gains_c = vec![-0.5; 100];
        let traj = UtilityTrajectory::from_roundwise(&gains_a, &gains_c).to_trajectory();
        let free = FreeLagrangian::new(vec![1.0, 1.0]);
        assert!(max_residual(&free, &traj) < 1e-9);
    }

    #[test]
    fn theorem4_oscillation_detected_with_correct_period() {
        // Integrate the Elastic oscillator and check the measured
        // half-period against 2π/√(2k) / 2.
        let k = 0.5;
        let lag = CoupledOscillatorLagrangian::new(1.0, 1.0, k);
        let h = 0.1;
        let traj = rk4_integrate(&lag, 0.0, &[1.0, -1.0], &[0.0, 0.0], h, 2_000);
        let relative: Vec<f64> = traj.q.iter().map(|q| q[0] - q[1]).collect();
        let m = oscillation_metrics(&relative);
        assert!(m.zero_crossings >= 10, "crossings {}", m.zero_crossings);
        let period = std::f64::consts::TAU / (2.0 * k / 1.0_f64).sqrt() / h; // in samples
        assert!(
            (m.mean_crossing_gap - period / 2.0).abs() < 0.1 * period,
            "gap {} vs half period {}",
            m.mean_crossing_gap,
            period / 2.0
        );
        assert!(
            (m.amplitude - 2.0).abs() < 0.05,
            "amplitude {}",
            m.amplitude
        );
    }

    #[test]
    fn oscillation_metrics_flat_series() {
        let m = oscillation_metrics(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(m.zero_crossings, 0);
        assert!(m.mean_crossing_gap.is_infinite());
        assert_eq!(m.amplitude, 0.0);
    }

    #[test]
    fn fit_handles_two_points() {
        let (slope, intercept, dev) = fit_constant_velocity(&[1.0, 3.0]);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!(dev < 1e-12);
    }
}
