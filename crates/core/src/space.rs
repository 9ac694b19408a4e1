//! The complete strategy space `[x_L, x_R]` and mixed strategies
//! (Section III-C).
//!
//! Both players pick positions in `[x_L, x_R]`. Any point `x_p` in the
//! domain decomposes as a convex combination `x_p = p_L·x_L + p_R·x_R` —
//! "a mixed strategy in the sense of game theory" — and because the
//! decomposition is linear and additive, *any poison value distribution*
//! on the domain reduces to a single mixed-strategy point, making the
//! strategy space complete (the key step that lets the model cover
//! colluding adversaries with arbitrary poison distributions).

use crate::error::{strictly_less, CoreError};
use rand::Rng;

/// The strategy interval `[x_L, x_R]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategySpace {
    /// Balance point `x_L` (soft end).
    pub x_l: f64,
    /// Maximum rational injection `x_R` (hard end).
    pub x_r: f64,
}

/// A mixed strategy: play `x_L` with probability `p_l` and `x_R` with
/// probability `1 − p_l`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedPoint {
    /// Probability of the soft end `x_L`.
    pub p_l: f64,
    /// The equivalent pure position `p_l·x_L + (1−p_l)·x_R`.
    pub position: f64,
}

impl StrategySpace {
    /// Creates the space.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] unless `x_L < x_R`.
    pub fn new(x_l: f64, x_r: f64) -> Result<Self, CoreError> {
        if !strictly_less(x_l, x_r) {
            return Err(CoreError::InvalidParameter {
                name: "x_l",
                constraint: "x_L < x_R",
                value: x_l,
            });
        }
        Ok(Self { x_l, x_r })
    }

    /// Width of the interval.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.x_r - self.x_l
    }

    /// True if `x` is a legal (rational) position.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        (self.x_l..=self.x_r).contains(&x)
    }

    /// Decomposes a pure position into its mixed strategy
    /// (`x = p_L x_L + p_R x_R`, Section III-C2).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `x` is outside the space.
    pub fn decompose(&self, x: f64) -> Result<MixedPoint, CoreError> {
        if !self.contains(x) {
            return Err(CoreError::InvalidParameter {
                name: "x",
                constraint: "x_L <= x <= x_R",
                value: x,
            });
        }
        let p_l = (self.x_r - x) / self.width();
        Ok(MixedPoint { p_l, position: x })
    }

    /// The pure position equivalent to playing `x_L` with probability
    /// `p_l`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] unless `p_l ∈ [0, 1]`.
    pub fn compose(&self, p_l: f64) -> Result<MixedPoint, CoreError> {
        if !(0.0..=1.0).contains(&p_l) {
            return Err(CoreError::InvalidParameter {
                name: "p_l",
                constraint: "0 <= p_l <= 1",
                value: p_l,
            });
        }
        Ok(MixedPoint {
            p_l,
            position: p_l * self.x_l + (1.0 - p_l) * self.x_r,
        })
    }
}

/// A finite-support mixed strategy over positions: a set of atoms with
/// validated, normalized weights (Section III-C2's distributions over
/// trimming/injection positions, in playable form).
///
/// Construction rejects NaN or negative weights and renormalizes any
/// positive total mass to one, so a support built from unnormalized
/// empirical counts is directly usable. [`MixedSupport::sample`] draws one
/// atom by inverse-CDF lookup; a single-atom support short-circuits
/// without consuming randomness, which is what makes a singleton
/// randomized policy replay-identical to its deterministic counterpart.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedSupport {
    atoms: Vec<f64>,
    weights: Vec<f64>,
    cdf: Vec<f64>,
}

impl MixedSupport {
    /// Builds a support from `atoms` and their (unnormalized) `weights`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if the inputs are empty or
    /// ragged, an atom is non-finite, a weight is NaN/non-finite/negative,
    /// or the total weight mass is not strictly positive.
    pub fn new(atoms: &[f64], weights: &[f64]) -> Result<Self, CoreError> {
        if atoms.is_empty() || atoms.len() != weights.len() {
            return Err(CoreError::InvalidParameter {
                name: "atoms",
                constraint: "non-empty and matching weights",
                value: atoms.len() as f64,
            });
        }
        for &a in atoms {
            if !a.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "atom",
                    constraint: "finite",
                    value: a,
                });
            }
        }
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::InvalidParameter {
                    name: "weight",
                    constraint: "finite and non-negative",
                    value: w,
                });
            }
            total += w;
        }
        if total <= 0.0 || !total.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "weights",
                constraint: "strictly positive total mass",
                value: total,
            });
        }
        let weights: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cdf.push(acc);
        }
        // Guard the last bucket against accumulated rounding.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Ok(Self {
            atoms: atoms.to_vec(),
            weights,
            cdf,
        })
    }

    /// The support atoms.
    #[must_use]
    pub fn atoms(&self) -> &[f64] {
        &self.atoms
    }

    /// The normalized weights (sum to one).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of atoms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Always false: construction rejects empty supports.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The mean position `Σ wᵢ·atomᵢ` — the equivalent pure strategy under
    /// the linear-payoff reduction of Section III-C.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.atoms
            .iter()
            .zip(&self.weights)
            .map(|(a, w)| a * w)
            .sum()
    }

    /// Draws one atom. A single-atom support returns its atom without
    /// consuming any randomness.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.atoms.len() == 1 {
            return self.atoms[0];
        }
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c <= u);
        self.atoms[idx.min(self.atoms.len() - 1)]
    }
}

/// Golden-section minimization of a 1-D objective on `[lo, hi]`:
/// `iterations` interior probes (after the initial bracket pair), plus the
/// two endpoints, returning the best `(argmin, min)` seen. Deterministic —
/// the probe sequence depends only on the bracket — which is what the
/// support optimizer needs to stay reproducible across worker counts.
/// The objective need not be smooth; on a non-unimodal function the result
/// is a local refinement, never worse than the best probed point.
///
/// # Panics
/// Panics unless `lo < hi` and both are finite.
pub fn golden_section_min(
    lo: f64,
    hi: f64,
    iterations: usize,
    mut f: impl FnMut(f64) -> f64,
) -> (f64, f64) {
    assert!(
        lo.is_finite() && hi.is_finite() && lo < hi,
        "degenerate bracket [{lo}, {hi}]"
    );
    let inv_phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    let mut a = lo;
    let mut b = hi;
    let mut best = (lo, f(lo));
    let f_hi = f(hi);
    if f_hi < best.1 {
        best = (hi, f_hi);
    }
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..iterations {
        if fc < best.1 {
            best = (c, fc);
        }
        if fd < best.1 {
            best = (d, fd);
        }
        if fc <= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    if fc < best.1 {
        best = (c, fc);
    }
    if fd < best.1 {
        best = (d, fd);
    }
    best
}

/// Golden-section *maximization* on `[lo, hi]`: the attacker's oracle
/// search, where the best response maximizes expected damage against the
/// defender's mixture. Same determinism and probe budget as
/// [`golden_section_min`], returning `(argmax, max)`.
///
/// # Panics
/// Panics unless `lo < hi` and both are finite.
pub fn golden_section_max(
    lo: f64,
    hi: f64,
    iterations: usize,
    mut f: impl FnMut(f64) -> f64,
) -> (f64, f64) {
    let (arg, neg) = golden_section_min(lo, hi, iterations, |x| -f(x));
    (arg, -neg)
}

/// Result of a [`refine_placements`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRefinement {
    /// The refined atom placements (strictly ascending).
    pub atoms: Vec<f64>,
    /// Objective value of the refined placement.
    pub value: f64,
    /// Objective evaluations spent.
    pub evaluations: usize,
    /// How many atom moves were accepted.
    pub moved: usize,
}

/// Coordinate-descent refinement of mixed-strategy atom *placements*
/// (Section III-C2 taken beyond a fixed grid): each pass sweeps the atoms
/// in order and golden-sections each atom inside the open bracket between
/// its neighbours (clamped to `bounds`, kept `min_gap` apart so the
/// support stays strictly ascending), accepting a move only on strict
/// improvement — the refined value can therefore never be worse than the
/// starting placement's.
///
/// `objective(atoms, moved)` evaluates a full candidate placement and is
/// told which index changed, so callers re-estimating per-atom payoff
/// rows (the empirical equilibrium estimator) can cache the unchanged
/// rows.
///
/// # Panics
/// Panics if `atoms` is empty or not strictly ascending within `bounds`,
/// or if the bracket parameters are degenerate.
pub fn refine_placements(
    atoms: &[f64],
    bounds: (f64, f64),
    min_gap: f64,
    passes: usize,
    golden_iterations: usize,
    mut objective: impl FnMut(&[f64], usize) -> f64,
) -> PlacementRefinement {
    let (lo, hi) = bounds;
    assert!(!atoms.is_empty(), "need at least one atom");
    assert!(
        atoms.windows(2).all(|w| w[0] < w[1]),
        "atoms must be strictly ascending"
    );
    assert!(
        lo.is_finite() && hi.is_finite() && lo < hi,
        "degenerate bounds [{lo}, {hi}]"
    );
    assert!(
        atoms.iter().all(|a| (lo..=hi).contains(a)),
        "atoms must start inside the bounds"
    );
    assert!(min_gap > 0.0, "need a positive separation gap");

    let mut current: Vec<f64> = atoms.to_vec();
    let mut evaluations = 1;
    let mut moved = 0;
    let mut value = objective(&current, 0);
    for _ in 0..passes {
        for i in 0..current.len() {
            let left = if i == 0 { lo } else { current[i - 1] + min_gap };
            let right = if i + 1 == current.len() {
                hi
            } else {
                current[i + 1] - min_gap
            };
            if right - left <= min_gap {
                continue; // bracket collapsed: neighbours pin this atom
            }
            let mut candidate = current.clone();
            let (best_x, best_v) = golden_section_min(left, right, golden_iterations, |x| {
                candidate[i] = x;
                evaluations += 1;
                objective(&candidate, i)
            });
            if best_v < value {
                current[i] = best_x;
                moved += 1;
            }
            // Re-evaluate the accepted state: leaves the caller's cache
            // consistent and makes `value` authoritative either way.
            evaluations += 1;
            value = objective(&current, i);
        }
    }
    PlacementRefinement {
        atoms: current,
        value,
        evaluations,
        moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgame_numerics::rand_ext::seeded_rng;

    fn space() -> StrategySpace {
        StrategySpace::new(0.9, 0.99).unwrap()
    }

    #[test]
    fn construction_validates_order() {
        assert!(StrategySpace::new(0.5, 0.5).is_err());
        assert!(StrategySpace::new(0.9, 0.1).is_err());
        assert!(StrategySpace::new(0.1, 0.9).is_ok());
    }

    #[test]
    fn decompose_endpoints() {
        let s = space();
        assert!((s.decompose(0.9).unwrap().p_l - 1.0).abs() < 1e-12);
        assert!((s.decompose(0.99).unwrap().p_l - 0.0).abs() < 1e-12);
    }

    #[test]
    fn decompose_midpoint() {
        let s = space();
        let m = s.decompose(0.945).unwrap();
        assert!((m.p_l - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compose_decompose_round_trip() {
        let s = space();
        for &p in &[0.0, 0.25, 0.5, 0.8, 1.0] {
            let m = s.compose(p).unwrap();
            let back = s.decompose(m.position).unwrap();
            assert!((back.p_l - p).abs() < 1e-12);
        }
    }

    #[test]
    fn out_of_space_rejected() {
        let s = space();
        assert!(s.decompose(0.8).is_err());
        assert!(s.decompose(1.0).is_err());
        assert!(s.compose(1.5).is_err());
    }

    #[test]
    fn contains_and_width() {
        let s = space();
        assert!(s.contains(0.95));
        assert!(!s.contains(0.899));
        assert!((s.width() - 0.09).abs() < 1e-12);
    }

    #[test]
    fn support_rejects_bad_weights() {
        // Negative weight.
        assert!(MixedSupport::new(&[0.9, 0.95], &[0.5, -0.1]).is_err());
        // NaN weight.
        assert!(MixedSupport::new(&[0.9, 0.95], &[0.5, f64::NAN]).is_err());
        // Infinite weight.
        assert!(MixedSupport::new(&[0.9], &[f64::INFINITY]).is_err());
        // Zero total mass.
        assert!(MixedSupport::new(&[0.9, 0.95], &[0.0, 0.0]).is_err());
        // Empty / ragged.
        assert!(MixedSupport::new(&[], &[]).is_err());
        assert!(MixedSupport::new(&[0.9], &[1.0, 2.0]).is_err());
        // Non-finite atom.
        assert!(MixedSupport::new(&[f64::NAN], &[1.0]).is_err());
    }

    #[test]
    fn support_renormalizes_non_unit_sums() {
        let s = MixedSupport::new(&[0.9, 0.95, 0.99], &[2.0, 6.0, 2.0]).unwrap();
        assert!((s.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s.weights()[1] - 0.6).abs() < 1e-12);
        assert!((s.mean() - (0.9 * 0.2 + 0.95 * 0.6 + 0.99 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn support_zero_weight_atoms_are_never_sampled() {
        let s = MixedSupport::new(&[0.1, 0.9], &[0.0, 1.0]).unwrap();
        let mut rng = seeded_rng(3);
        for _ in 0..200 {
            assert_eq!(s.sample(&mut rng), 0.9);
        }
    }

    #[test]
    fn singleton_sampling_consumes_no_randomness() {
        let s = MixedSupport::new(&[0.92], &[1.0]).unwrap();
        let mut rng = seeded_rng(7);
        let before: u64 = rng.gen();
        let mut rng_a = seeded_rng(7);
        for _ in 0..5 {
            assert_eq!(s.sample(&mut rng_a), 0.92);
        }
        // The stream is untouched: the next draw equals the first draw of a
        // fresh generator with the same seed.
        let after: u64 = rng_a.gen();
        assert_eq!(before, after);
    }

    #[test]
    fn sampling_frequencies_match_weights() {
        let s = MixedSupport::new(&[0.88, 0.96], &[0.25, 0.75]).unwrap();
        let mut rng = seeded_rng(11);
        let hi = (0..20_000).filter(|_| s.sample(&mut rng) == 0.96).count();
        assert!((hi as f64 / 20_000.0 - 0.75).abs() < 0.02);
    }

    #[test]
    fn golden_section_finds_quadratic_minimum() {
        let (x, v) = golden_section_min(0.0, 1.0, 40, |x| (x - 0.37) * (x - 0.37));
        assert!((x - 0.37).abs() < 1e-6, "argmin {x}");
        assert!(v < 1e-12);
        // Endpoint minima are found too.
        let (x, _) = golden_section_min(0.0, 1.0, 20, |x| x);
        assert!(x < 1e-9);
        let (x, _) = golden_section_min(0.0, 1.0, 20, |x| -x);
        assert!((x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn golden_section_max_mirrors_min() {
        let (x, v) = golden_section_max(0.0, 1.0, 40, |x| -(x - 0.62) * (x - 0.62));
        assert!((x - 0.62).abs() < 1e-6, "argmax {x}");
        assert!(v > -1e-12 && v <= 0.0);
        // Identical probe sequence to the negated minimization.
        let (xm, vm) = golden_section_min(0.0, 1.0, 40, |x| (x - 0.62) * (x - 0.62));
        assert_eq!(x.to_bits(), xm.to_bits());
        assert_eq!(v.to_bits(), (-vm).to_bits());
    }

    #[test]
    #[should_panic(expected = "degenerate bracket")]
    fn golden_section_rejects_inverted_bracket() {
        let _ = golden_section_min(1.0, 0.0, 10, |x| x);
    }

    #[test]
    fn refine_placements_never_regresses_and_orders_atoms() {
        // Objective: distance of each atom to its nearest "good spot".
        let targets = [0.25, 0.55, 0.85];
        let objective = |atoms: &[f64], _moved: usize| -> f64 {
            atoms
                .iter()
                .zip(&targets)
                .map(|(a, t)| (a - t) * (a - t))
                .sum()
        };
        let start = [0.2, 0.5, 0.8];
        let initial = objective(&start, 0);
        let refined = refine_placements(&start, (0.0, 1.0), 0.01, 2, 20, objective);
        assert!(refined.value <= initial + 1e-12);
        assert!(refined.moved >= 1);
        assert!(refined.atoms.windows(2).all(|w| w[0] < w[1]));
        for (a, t) in refined.atoms.iter().zip(&targets) {
            assert!((a - t).abs() < 0.01, "atom {a} target {t}");
        }
    }

    #[test]
    fn refine_placements_ties_keep_the_original_atoms() {
        // Constant objective: no strict improvement exists, so nothing
        // moves and the value is unchanged.
        let start = [0.3, 0.6];
        let refined = refine_placements(&start, (0.0, 1.0), 0.01, 2, 8, |_, _| 1.0);
        assert_eq!(refined.atoms, start.to_vec());
        assert_eq!(refined.value, 1.0);
        assert_eq!(refined.moved, 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn refine_placements_rejects_unsorted_atoms() {
        let _ = refine_placements(&[0.6, 0.3], (0.0, 1.0), 0.01, 1, 4, |_, _| 0.0);
    }
}
