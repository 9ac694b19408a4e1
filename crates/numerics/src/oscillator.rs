//! Closed-form solution of the coupled two-mass oscillator (Theorem 4).
//!
//! The Elastic strategy's interaction term `U = k (u_a − u_c)²/2` turns the
//! infinite collection game into "a double harmonic oscillator system,
//! where two masses m_a and m_c are connected by a spring with spring
//! constant k" (proof of Theorem 4). Decomposing into normal modes:
//!
//! * the *centre of utility* `X = (m_a u_a + m_c u_c) / (m_a + m_c)` moves
//!   uniformly (no external force), and
//! * the *relative utility* `w = u_a − u_c` obeys `μ ẅ = −k w` with reduced
//!   mass `μ = m_a m_c / (m_a + m_c)`, i.e. `w(r) = A cos(ω r + φ)` with
//!   `ω = √(k/μ)` — the paper's Eq. 15.
//!
//! This module evaluates that closed form, used to validate the RK4
//! integrator and to predict oscillation amplitude/period in the `ablate-k`
//! experiment.

/// Closed-form coupled oscillator with initial conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledOscillator {
    ma: f64,
    mc: f64,
    k: f64,
    /// Centre-of-utility position and velocity at `r = 0`.
    x0: f64,
    v0: f64,
    /// Relative-utility position and velocity at `r = 0`.
    w0: f64,
    wdot0: f64,
}

impl CoupledOscillator {
    /// Creates the oscillator from masses, spring constant and the initial
    /// utilities/velocities `(u_a, u_c, u̇_a, u̇_c)` at `r = 0`.
    ///
    /// # Panics
    /// Panics unless `ma > 0`, `mc > 0`, `k >= 0`.
    #[must_use]
    pub fn new(ma: f64, mc: f64, k: f64, ua0: f64, uc0: f64, va0: f64, vc0: f64) -> Self {
        assert!(ma > 0.0 && mc > 0.0, "masses must be positive");
        assert!(k >= 0.0, "spring constant must be non-negative");
        let total = ma + mc;
        Self {
            ma,
            mc,
            k,
            x0: (ma * ua0 + mc * uc0) / total,
            v0: (ma * va0 + mc * vc0) / total,
            w0: ua0 - uc0,
            wdot0: va0 - vc0,
        }
    }

    /// Reduced mass `μ = m_a m_c / (m_a + m_c)`.
    #[must_use]
    pub fn reduced_mass(&self) -> f64 {
        self.ma * self.mc / (self.ma + self.mc)
    }

    /// Angular frequency `ω = √(k/μ)` of the relative utility. Zero when
    /// `k = 0` (free motion).
    #[must_use]
    pub fn omega(&self) -> f64 {
        (self.k / self.reduced_mass()).sqrt()
    }

    /// Oscillation period `2π/ω`. Infinite when `k = 0`.
    #[must_use]
    pub fn period(&self) -> f64 {
        let w = self.omega();
        if w == 0.0 {
            f64::INFINITY
        } else {
            std::f64::consts::TAU / w
        }
    }

    /// Amplitude `A` of the relative utility oscillation (Eq. 15).
    #[must_use]
    pub fn amplitude(&self) -> f64 {
        let w = self.omega();
        if w == 0.0 {
            self.w0.abs()
        } else {
            (self.w0 * self.w0 + (self.wdot0 / w) * (self.wdot0 / w)).sqrt()
        }
    }

    /// Relative utility `w(r) = u_a(r) − u_c(r)`.
    #[must_use]
    pub fn relative(&self, r: f64) -> f64 {
        let omega = self.omega();
        if omega == 0.0 {
            self.w0 + self.wdot0 * r
        } else {
            self.w0 * (omega * r).cos() + self.wdot0 / omega * (omega * r).sin()
        }
    }

    /// Positions `(u_a, u_c)` at round `r`.
    #[must_use]
    pub fn position(&self, r: f64) -> (f64, f64) {
        let x = self.x0 + self.v0 * r;
        let w = self.relative(r);
        let total = self.ma + self.mc;
        (x + self.mc / total * w, x - self.ma / total * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrangian::CoupledOscillatorLagrangian;
    use crate::ode::rk4_integrate;

    #[test]
    fn initial_conditions_recovered() {
        let osc = CoupledOscillator::new(1.0, 2.0, 3.0, 0.7, -0.2, 0.1, 0.4);
        let (ua, uc) = osc.position(0.0);
        assert!((ua - 0.7).abs() < 1e-12);
        assert!((uc + 0.2).abs() < 1e-12);
    }

    #[test]
    fn matches_rk4_trajectory() {
        let (ma, mc, k) = (1.3, 2.1, 0.8);
        let lag = CoupledOscillatorLagrangian::new(ma, mc, k);
        let (ua0, uc0, va0, vc0) = (1.0, -0.5, 0.2, -0.1);
        let osc = CoupledOscillator::new(ma, mc, k, ua0, uc0, va0, vc0);
        let traj = rk4_integrate(&lag, 0.0, &[ua0, uc0], &[va0, vc0], 0.001, 20_000);
        for idx in (0..traj.len()).step_by(1000) {
            let r = traj.r[idx];
            let (ua, uc) = osc.position(r);
            assert!(
                (ua - traj.q[idx][0]).abs() < 1e-6,
                "u_a mismatch at r={r}: closed {ua} vs rk4 {}",
                traj.q[idx][0]
            );
            assert!((uc - traj.q[idx][1]).abs() < 1e-6, "u_c mismatch at r={r}");
        }
    }

    #[test]
    fn relative_utility_is_periodic() {
        let osc = CoupledOscillator::new(1.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0);
        let t = osc.period();
        for r in [0.0, 0.37, 1.4, 3.3] {
            assert!(
                (osc.relative(r) - osc.relative(r + t)).abs() < 1e-9,
                "not periodic at r={r}"
            );
        }
    }

    #[test]
    fn amplitude_bounds_relative_utility() {
        let osc = CoupledOscillator::new(1.5, 0.7, 1.1, 0.6, -0.1, 0.3, -0.2);
        let amp = osc.amplitude();
        for i in 0..500 {
            let r = i as f64 * 0.05;
            assert!(osc.relative(r).abs() <= amp + 1e-9);
        }
        // The bound is attained (within sampling resolution).
        let max_seen = (0..5_000)
            .map(|i| osc.relative(i as f64 * 0.005).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_seen > 0.99 * amp);
    }

    #[test]
    fn zero_spring_gives_free_motion() {
        let osc = CoupledOscillator::new(1.0, 1.0, 0.0, 1.0, 0.0, 0.5, -0.5);
        assert_eq!(osc.period(), f64::INFINITY);
        // w grows linearly: w(r) = 1 + r.
        assert!((osc.relative(2.0) - 3.0).abs() < 1e-12);
        let (ua, uc) = osc.position(2.0);
        assert!((ua - 2.0).abs() < 1e-12);
        assert!((uc + 1.0).abs() < 1e-12);
    }

    #[test]
    fn stiffer_spring_oscillates_faster() {
        let soft = CoupledOscillator::new(1.0, 1.0, 0.1, 1.0, 0.0, 0.0, 0.0);
        let stiff = CoupledOscillator::new(1.0, 1.0, 0.5, 1.0, 0.0, 0.0, 0.0);
        assert!(stiff.omega() > soft.omega());
        assert!(stiff.period() < soft.period());
    }

    #[test]
    fn centre_of_utility_moves_uniformly() {
        let (ma, mc) = (2.0, 3.0);
        let osc = CoupledOscillator::new(ma, mc, 5.0, 1.0, -1.0, 0.4, 0.9);
        let x = |r: f64| {
            let (ua, uc) = osc.position(r);
            (ma * ua + mc * uc) / (ma + mc)
        };
        let x0 = x(0.0);
        let v = (ma * 0.4 + mc * 0.9) / (ma + mc);
        for r in [0.5, 1.0, 2.5, 7.0] {
            assert!((x(r) - (x0 + v * r)).abs() < 1e-9, "at r={r}");
        }
    }
}
