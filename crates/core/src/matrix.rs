//! Table I — the one-shot (ultimatum) collection game and its equilibrium
//! (Section III-D).
//!
//! With payoff constants `P̄ > T̄ ≫ P > T > 0` (hard/soft poisoning gains
//! and hard/soft trimming overheads), the single-round strategic game is:
//!
//! |               | Adversary Soft      | Adversary Hard      |
//! |---------------|---------------------|---------------------|
//! | Collector Soft| `(−P − T, P)`       | `(−P̄ − T, P̄)`      |
//! | Collector Hard| `(−T̄, 0)`           | `(−T̄, 0)`           |
//!
//! A hard collector trims at `x_L`, removing all rational poison (adversary
//! gets 0) at overhead `T̄`; a soft collector trims at `x_R`, paying the
//! small overhead `T` but conceding whatever the adversary injected. The
//! unique equilibrium outcome is mutual hardness — "this situation mirrors
//! the prisoner's dilemma, culminating in a unique equilibrium wherein both
//! the adversary and the player opt for a tough stance, despite a gentler
//! approach being mutually beneficial" — which is precisely why Section IV
//! moves to the *infinite* repeated game.

use crate::error::{strictly_greater, CoreError};
use std::fmt;

/// A player move in the one-shot game (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Near `x_L` (adversary) / near `x_R` (collector).
    Soft,
    /// Near `x_R` (adversary) / near `x_L` (collector).
    Hard,
}

impl Move {
    /// Both moves.
    pub const ALL: [Move; 2] = [Move::Soft, Move::Hard];
}

/// The four payoff constants of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UltimatumPayoffs {
    /// `P̄`: adversary gain for hard poisoning that survives.
    pub p_hard: f64,
    /// `T̄`: collector overhead for hard trimming.
    pub t_hard: f64,
    /// `P`: adversary gain for soft poisoning that survives.
    pub p_soft: f64,
    /// `T`: collector overhead for soft trimming.
    pub t_soft: f64,
}

impl UltimatumPayoffs {
    /// Validates `P̄ > T̄ > P > T > 0` (the paper writes `T̄ ≫ P`; strict
    /// inequality is what the equilibrium analysis needs).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if the ordering fails.
    pub fn new(p_hard: f64, t_hard: f64, p_soft: f64, t_soft: f64) -> Result<Self, CoreError> {
        if !strictly_greater(t_soft, 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "t_soft",
                constraint: "T > 0",
                value: t_soft,
            });
        }
        if !strictly_greater(p_soft, t_soft) {
            return Err(CoreError::InvalidParameter {
                name: "p_soft",
                constraint: "P > T",
                value: p_soft,
            });
        }
        // The paper writes T̄ ≫ P; the quantitative requirement for the
        // unique (Hard, Hard) equilibrium is T̄ > P + T (so that against a
        // *soft* adversary the collector prefers soft trimming, killing
        // the (Hard, Soft) profile).
        if !strictly_greater(t_hard, p_soft + t_soft) {
            return Err(CoreError::InvalidParameter {
                name: "t_hard",
                constraint: "T̄ >> P (at least T̄ > P + T)",
                value: t_hard,
            });
        }
        if !strictly_greater(p_hard, t_hard) {
            return Err(CoreError::InvalidParameter {
                name: "p_hard",
                constraint: "P̄ > T̄",
                value: p_hard,
            });
        }
        Ok(Self {
            p_hard,
            t_hard,
            p_soft,
            t_soft,
        })
    }

    /// The paper-style defaults `P̄=10 > T̄=8 ≫ P=2 > T=1 > 0`.
    #[must_use]
    pub fn default_paper() -> Self {
        Self::new(10.0, 8.0, 2.0, 1.0).expect("defaults satisfy the ordering")
    }

    /// Builds the full payoff matrix.
    #[must_use]
    pub fn matrix(&self) -> PayoffMatrix {
        let entry = |collector: Move, adversary: Move| -> (f64, f64) {
            match (collector, adversary) {
                (Move::Soft, Move::Soft) => (-self.p_soft - self.t_soft, self.p_soft),
                (Move::Soft, Move::Hard) => (-self.p_hard - self.t_soft, self.p_hard),
                // A hard collector trims at x_L: all rational poison is
                // removed regardless of the adversary's move.
                (Move::Hard, _) => (-self.t_hard, 0.0),
            }
        };
        PayoffMatrix {
            entries: [
                [entry(Move::Soft, Move::Soft), entry(Move::Soft, Move::Hard)],
                [entry(Move::Hard, Move::Soft), entry(Move::Hard, Move::Hard)],
            ],
        }
    }
}

/// A 2×2 bimatrix game: `entries[c][a] = (collector payoff, adversary
/// payoff)` for collector move `c` and adversary move `a`
/// (index 0 = Soft, 1 = Hard).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayoffMatrix {
    /// Payoff entries.
    pub entries: [[(f64, f64); 2]; 2],
}

impl PayoffMatrix {
    fn idx(m: Move) -> usize {
        match m {
            Move::Soft => 0,
            Move::Hard => 1,
        }
    }

    /// Payoffs for a move pair.
    #[must_use]
    pub fn payoff(&self, collector: Move, adversary: Move) -> (f64, f64) {
        self.entries[Self::idx(collector)][Self::idx(adversary)]
    }

    /// All pure-strategy Nash equilibria (allowing ties, i.e. weak
    /// equilibria).
    #[must_use]
    pub fn pure_nash_equilibria(&self) -> Vec<(Move, Move)> {
        let mut out = Vec::new();
        for c in Move::ALL {
            for a in Move::ALL {
                let (pc, pa) = self.payoff(c, a);
                let collector_ok = Move::ALL
                    .iter()
                    .all(|&c2| self.payoff(c2, a).0 <= pc + 1e-12);
                let adversary_ok = Move::ALL
                    .iter()
                    .all(|&a2| self.payoff(c, a2).1 <= pa + 1e-12);
                if collector_ok && adversary_ok {
                    out.push((c, a));
                }
            }
        }
        out
    }

    /// True if outcome `b` strictly Pareto-dominates outcome `a`.
    #[must_use]
    pub fn pareto_dominates(&self, b: (Move, Move), a: (Move, Move)) -> bool {
        let (bc, ba) = self.payoff(b.0, b.1);
        let (ac, aa) = self.payoff(a.0, a.1);
        bc > ac && ba > aa
    }
}

/// A finite two-player zero-sum matrix game: `entries[i][j]` is the **row
/// player's loss** (equivalently the column player's gain) when the row
/// player plays `i` and the column player plays `j`. In the trimming
/// game the row player is the defender (choosing a threshold atom,
/// minimizing) and the column player is the adversary (choosing an
/// injection response, maximizing).
///
/// [`MatrixGame::solve`] computes an approximate mixed-strategy
/// equilibrium by fictitious play — deterministic, with certified value
/// bounds from the averaged strategies — which is all the empirical
/// equilibrium estimator needs on the small supports where threshold-game
/// equilibria concentrate.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixGame {
    rows: usize,
    cols: usize,
    /// Row-major: `entries[i * cols + j]` is the loss at `(i, j)`.
    entries: Vec<f64>,
    /// The same losses column-major (`transposed[j * rows + i]`), so the
    /// column a fictitious-play step adds to the row sums is one slice.
    transposed: Vec<f64>,
    /// `max |entry|`: the per-step growth bound behind the rounding
    /// margin of the best-response skip.
    max_abs: f64,
}

/// An approximate mixed equilibrium of a [`MatrixGame`], with certified
/// value bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedEquilibrium {
    /// The row player's (defender's) mixed strategy.
    pub row_strategy: Vec<f64>,
    /// The column player's (adversary's) mixed strategy.
    pub col_strategy: Vec<f64>,
    /// The game value estimate (midpoint of `lower..upper`).
    pub value: f64,
    /// Guaranteed by the column mix: `min_i loss(i, col_strategy)`. The
    /// true value is at least this.
    pub lower: f64,
    /// Guaranteed by the row mix: `max_j loss(row_strategy, j)`. The true
    /// value is at most this.
    pub upper: f64,
}

impl MixedEquilibrium {
    /// The duality gap `upper − lower`: how far from exact the fictitious
    /// play ran.
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.upper - self.lower
    }
}

impl MatrixGame {
    /// Builds a game from a rectangular loss matrix.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if the matrix is empty,
    /// ragged, or contains non-finite entries.
    pub fn new(entries: Vec<Vec<f64>>) -> Result<Self, CoreError> {
        if entries.is_empty() || entries[0].is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "entries",
                constraint: "non-empty matrix",
                value: entries.len() as f64,
            });
        }
        let cols = entries[0].len();
        for row in &entries {
            if row.len() != cols {
                return Err(CoreError::InvalidParameter {
                    name: "entries",
                    constraint: "rectangular matrix",
                    value: row.len() as f64,
                });
            }
            for &v in row {
                if !v.is_finite() {
                    return Err(CoreError::InvalidParameter {
                        name: "entry",
                        constraint: "finite",
                        value: v,
                    });
                }
            }
        }
        let rows = entries.len();
        let flat: Vec<f64> = entries.concat();
        let transposed = (0..cols)
            .flat_map(|j| flat.iter().skip(j).step_by(cols).copied())
            .collect();
        let max_abs = flat.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
        Ok(Self {
            rows,
            cols,
            entries: flat,
            transposed,
            max_abs,
        })
    }

    /// Number of row strategies.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of column strategies.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The loss entry at `(row, col)`.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.row(row)[col]
    }

    /// Row `i`'s losses against every column.
    fn row(&self, i: usize) -> &[f64] {
        &self.entries[i * self.cols..(i + 1) * self.cols]
    }

    /// Every row's loss against column `j`.
    fn col(&self, j: usize) -> &[f64] {
        &self.transposed[j * self.rows..(j + 1) * self.rows]
    }

    /// The row player's expected loss under mixed strategies `x` (rows)
    /// and `y` (columns).
    #[must_use]
    pub fn expected_loss(&self, x: &[f64], y: &[f64]) -> f64 {
        self.entries
            .chunks_exact(self.cols)
            .zip(x)
            .map(|(row, &xi)| xi * row.iter().zip(y).map(|(&v, &yj)| v * yj).sum::<f64>())
            .sum()
    }

    /// The pure-commitment (unrandomized Stackelberg) value: the best loss
    /// the row player can guarantee with a single row,
    /// `min_i max_j entries[i][j]`. The mixed value from
    /// [`MatrixGame::solve`] is never worse; the difference is the row
    /// player's randomization advantage.
    #[must_use]
    pub fn pure_commitment_value(&self) -> f64 {
        self.entries
            .chunks_exact(self.cols)
            .map(|row| row.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .fold(f64::INFINITY, f64::min)
    }

    /// Solves the game by `iterations` rounds of simultaneous fictitious
    /// play (deterministic; ties break to the lowest index) and returns
    /// the averaged strategies with certified value bounds.
    ///
    /// Rounds whose best responses provably do not change are played
    /// without searching for them. While the plays are `(r, c)`, row
    /// `i`'s cumulative loss leads row `r`'s by a gap `g` that moves by
    /// `E[i][c] − E[r][c]` per round, and the round's two rounded adds
    /// move it by at most `2·2⁻⁵³·M` more, where `M` bounds every
    /// cumulative sum over the stretch (the largest one now plus the
    /// rounds left times `max |entry|`). So `r` stays the argmin for `k`
    /// rounds when `k·(max(E[r][c] − E[i][c], 0) + 2·EPSILON·M) < g`
    /// (twice that rounding bound) for every `i ≠ r`. A tie (`g = 0`)
    /// gives `k = 0`, except with a later row that grows no slower than
    /// `r`: rounding is monotone, so that row never passes `r`, and the
    /// first-index rule keeps `r`. The column side is the mirror image.
    /// The solver takes the smallest `k` over both sides, less a `10⁻⁶`
    /// share for the rounding in computing it, plays those `k` rounds as
    /// plain adds and adds `k` to both play counts. The adds are the same
    /// ones in the same order and the counts stay exact integers, so the
    /// result is bit-identical to searching after every round.
    ///
    /// # Panics
    /// Panics if `iterations == 0`.
    #[must_use]
    pub fn solve(&self, iterations: usize) -> MixedEquilibrium {
        self.solve_warm(iterations, None)
    }

    /// [`MatrixGame::solve`] seeded from a prior equilibrium: the
    /// fictitious-play cumulative losses start as if each side had faced
    /// `WARM_WEIGHT` virtual plays of the opponent's prior mixture, so a
    /// game grown by a few rows/columns (the double-oracle restricted
    /// games) resumes its best-response sequence near the previous fixed
    /// point rather than re-deriving it. Prior strategies shorter than
    /// the current matrix are padded with zeros — exactly the embedding
    /// of the smaller game's mixture.
    ///
    /// The virtual plays steer only the play *sequence*; the averaged
    /// strategies (and hence the certified bounds) contain real plays
    /// only, so a stale prior can only cost iterations (its influence on
    /// play selection washes out as `WARM_WEIGHT / iterations`), never
    /// correctness or bound tightness.
    ///
    /// # Panics
    /// Panics if `iterations == 0` or the prior's strategies are longer
    /// than the current matrix.
    #[must_use]
    pub fn solve_warm(
        &self,
        iterations: usize,
        warm: Option<&MixedEquilibrium>,
    ) -> MixedEquilibrium {
        assert!(iterations > 0, "need at least one iteration");
        let mut fp = self.start_fictitious_play(warm);
        fp.run(self, iterations);
        fp.equilibrium(self)
    }

    /// Runs fictitious play until the certified duality gap drops to
    /// `gap`, checking it after every block of `max(rows + cols, 64)`
    /// iterations, up to `max_iterations` plays. Returns the equilibrium
    /// and the iterations actually spent (the iterations-to-bound measure
    /// a warm start is judged by).
    ///
    /// # Panics
    /// Panics if `max_iterations == 0`, `gap` is negative/NaN, or the
    /// prior does not embed in the current matrix.
    #[must_use]
    pub fn solve_to_gap(
        &self,
        gap: f64,
        max_iterations: usize,
        warm: Option<&MixedEquilibrium>,
    ) -> (MixedEquilibrium, usize) {
        assert!(max_iterations > 0, "need at least one iteration");
        assert!(gap >= 0.0, "gap target must be non-negative");
        let mut fp = self.start_fictitious_play(warm);
        // Checking bounds costs O(n·m); amortize it over blocks that cost
        // about as much as the check itself.
        let block = (self.rows() + self.cols()).max(64);
        let mut spent = 0usize;
        let eq = loop {
            let step = block.min(max_iterations - spent);
            fp.run(self, step);
            spent += step;
            let eq = fp.equilibrium(self);
            if eq.gap() <= gap || spent >= max_iterations {
                break eq;
            }
        };
        (eq, spent)
    }

    fn start_fictitious_play(&self, warm: Option<&MixedEquilibrium>) -> FictitiousPlay {
        let (n, m) = (self.rows(), self.cols());
        let mut fp = FictitiousPlay {
            row_cum: vec![0.0; n],
            col_cum: vec![0.0; m],
            row_counts: vec![0.0; n],
            col_counts: vec![0.0; m],
            row_play: 0,
            col_play: 0,
        };
        if let Some(prior) = warm {
            assert!(
                prior.row_strategy.len() <= n && prior.col_strategy.len() <= m,
                "warm-start prior does not embed: {}x{} prior vs {n}x{m} game",
                prior.row_strategy.len(),
                prior.col_strategy.len()
            );
            // Seed only the cumulative losses — each side starts as if it
            // had faced WARM_WEIGHT plays of the opponent's prior mixture
            // — but leave the play counts at zero. The play sequence
            // resumes in the parent game's groove while the averaged
            // (certified) strategies contain real plays only, so a stale
            // prior cannot park a bias floor under the duality gap.
            for (i, cum) in fp.row_cum.iter_mut().enumerate() {
                *cum = (0..m)
                    .map(|j| {
                        WARM_WEIGHT
                            * prior.col_strategy.get(j).copied().unwrap_or(0.0).max(0.0)
                            * self.at(i, j)
                    })
                    .sum();
            }
            for (j, cum) in fp.col_cum.iter_mut().enumerate() {
                *cum = (0..n)
                    .map(|i| {
                        WARM_WEIGHT
                            * prior.row_strategy.get(i).copied().unwrap_or(0.0).max(0.0)
                            * self.at(i, j)
                    })
                    .sum();
            }
            fp.row_play = argmin(&fp.row_cum);
            fp.col_play = argmax(&fp.col_cum);
        }
        fp
    }
}

/// Virtual play count a warm-start prior is worth in the cumulative-loss
/// seed. Large enough to steer the first plays onto the prior's support,
/// small enough that a stale prior's pull on play selection washes out
/// within a few thousand iterations.
const WARM_WEIGHT: f64 = 256.0;

/// Resumable simultaneous-fictitious-play state (the loop body of
/// [`MatrixGame::solve`], factored out so warm starts and gap-targeted
/// solves share it).
#[derive(Debug, Clone, PartialEq)]
struct FictitiousPlay {
    row_cum: Vec<f64>,
    col_cum: Vec<f64>,
    row_counts: Vec<f64>,
    col_counts: Vec<f64>,
    row_play: usize,
    col_play: usize,
}

/// Share of the proven stretch a fast-forward takes. Computing a stretch
/// (gap, slope, sum with the drift, quotient, this product) rounds it up
/// by at most a factor `(1 + 2⁻⁵³)³ / (1 − 2⁻⁵³)²`; the `10⁻⁶` taken off
/// covers that many times over.
const SKIP_MARGIN: f64 = 0.999_999;

/// Width of the local arrays a fast-forward keeps its sums in.
const LANES: usize = 8;

impl FictitiousPlay {
    /// Plays `iterations` rounds, fast-forwarding every stretch whose
    /// plays provably stay put (the skip rule of [`MatrixGame::solve`]).
    fn run(&mut self, game: &MatrixGame, iterations: usize) {
        let mut left = iterations;
        while left > 0 {
            let k = self.unchanged_plays(game, left);
            if k == 0 {
                self.step(game);
                left -= 1;
            } else {
                self.repeat(game, k);
                left -= k;
            }
        }
    }

    /// One round: both players add their current play, then best-respond.
    fn step(&mut self, game: &MatrixGame) {
        self.row_counts[self.row_play] += 1.0;
        self.col_counts[self.col_play] += 1.0;
        for (cum, &e) in self.row_cum.iter_mut().zip(game.col(self.col_play)) {
            *cum += e;
        }
        for (cum, &e) in self.col_cum.iter_mut().zip(game.row(self.row_play)) {
            *cum += e;
        }
        self.row_play = argmin(&self.row_cum);
        self.col_play = argmax(&self.col_cum);
    }

    /// How many of the next rounds (at most `cap`) provably leave
    /// `row_play` the first argmin of `row_cum` and `col_play` the first
    /// argmax of `col_cum` after their rounded adds (the skip rule of
    /// [`MatrixGame::solve`]). Zero when a tie or a near-crossing leaves
    /// that unproven.
    fn unchanged_plays(&self, game: &MatrixGame, cap: usize) -> usize {
        let (r, c) = (self.row_play, self.col_play);
        let largest = self
            .row_cum
            .iter()
            .chain(&self.col_cum)
            .fold(0.0, |m: f64, v| m.max(v.abs()));
        let bound = largest + cap as f64 * game.max_abs;
        if !bound.is_finite() {
            return 0;
        }
        let drift = 2.0 * f64::EPSILON * bound;
        let rounds = lead_rounds(&self.row_cum, game.col(c), r, 1.0, drift)
            .min(lead_rounds(&self.col_cum, game.row(r), c, -1.0, drift))
            .min(cap as f64);
        (SKIP_MARGIN * rounds) as usize
    }

    /// `k` rounds whose plays are known not to change: the same adds as
    /// `k` calls of [`FictitiousPlay::step`], without the searches. Each
    /// block of `LANES` row sums and `LANES` column sums is carried in
    /// local arrays through all `k` adds, so the two sides' add chains
    /// overlap.
    fn repeat(&mut self, game: &MatrixGame, k: usize) {
        self.row_counts[self.row_play] += k as f64;
        self.col_counts[self.col_play] += k as f64;
        let (col, row) = (game.col(self.col_play), game.row(self.row_play));
        let longest = self.row_cum.len().max(self.col_cum.len());
        for start in (0..longest).step_by(LANES) {
            let rows = start.min(col.len())..(start + LANES).min(col.len());
            let cols = start.min(row.len())..(start + LANES).min(row.len());
            let mut sums = [0.0; 2 * LANES];
            let mut adds = [0.0; 2 * LANES];
            sums[..rows.len()].copy_from_slice(&self.row_cum[rows.clone()]);
            adds[..rows.len()].copy_from_slice(&col[rows.clone()]);
            sums[LANES..LANES + cols.len()].copy_from_slice(&self.col_cum[cols.clone()]);
            adds[LANES..LANES + cols.len()].copy_from_slice(&row[cols.clone()]);
            for _ in 0..k {
                for (sum, add) in sums.iter_mut().zip(&adds) {
                    *sum += add;
                }
            }
            self.row_cum[rows.clone()].copy_from_slice(&sums[..rows.len()]);
            self.col_cum[cols.clone()].copy_from_slice(&sums[LANES..LANES + cols.len()]);
        }
    }

    fn equilibrium(&self, game: &MatrixGame) -> MixedEquilibrium {
        let row_total: f64 = self.row_counts.iter().sum();
        let col_total: f64 = self.col_counts.iter().sum();
        let row_strategy: Vec<f64> = self.row_counts.iter().map(|c| c / row_total).collect();
        let col_strategy: Vec<f64> = self.col_counts.iter().map(|c| c / col_total).collect();
        // Certified bounds from the averaged strategies.
        let upper = (0..game.cols())
            .map(|j| {
                game.col(j)
                    .iter()
                    .zip(&row_strategy)
                    .map(|(&e, &x)| x * e)
                    .sum::<f64>()
            })
            .fold(f64::NEG_INFINITY, f64::max);
        let lower = (0..game.rows())
            .map(|i| {
                game.row(i)
                    .iter()
                    .zip(&col_strategy)
                    .map(|(&e, &y)| y * e)
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        MixedEquilibrium {
            row_strategy,
            col_strategy,
            value: 0.5 * (lower + upper),
            lower,
            upper,
        }
    }
}

/// How many rounds `lead`, the first-index minimum of `sign · sums`,
/// provably stays it while each sum grows by its `rates` entry, where
/// `drift` is at least twice what one round's rounded adds can move a gap
/// by (`sign = −1` reads a first maximum). A later index that grows no
/// slower than the leader never passes it, by monotone rounding; every
/// other index must keep a positive gap through the drift. Unscaled and
/// unbounded; zero on a tie the first-index rule does not settle.
fn lead_rounds(sums: &[f64], rates: &[f64], lead: usize, sign: f64, drift: f64) -> f64 {
    let (low, low_rate) = (sign * sums[lead], sign * rates[lead]);
    let mut rounds = f64::INFINITY;
    for (i, (&sum, &rate)) in sums.iter().zip(rates).enumerate() {
        let (sum, rate) = (sign * sum, sign * rate);
        if i == lead || (i > lead && rate >= low_rate) {
            continue;
        }
        let gap = sum - low;
        if gap <= 0.0 {
            return 0.0;
        }
        rounds = rounds.min(gap / ((low_rate - rate).max(0.0) + drift));
    }
    rounds
}

fn argmin(xs: &[f64]) -> usize {
    let (mut best, mut low) = (0, xs[0]);
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x < low {
            (best, low) = (i, x);
        }
    }
    best
}

fn argmax(xs: &[f64]) -> usize {
    let (mut best, mut high) = (0, xs[0]);
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > high {
            (best, high) = (i, x);
        }
    }
    best
}

impl fmt::Display for PayoffMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>22} {:>22}",
            "", "Adversary Soft", "Adversary Hard"
        )?;
        for c in Move::ALL {
            let row: Vec<String> = Move::ALL
                .iter()
                .map(|&a| {
                    let (pc, pa) = self.payoff(c, a);
                    format!("({pc:>7.2}, {pa:>7.2})")
                })
                .collect();
            writeln!(
                f,
                "{:<16} {:>22} {:>22}",
                format!("Collector {c:?}"),
                row[0],
                row[1]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-round-at-a-time loop that searches both best responses
    /// after every round, kept as the reference the skip must reproduce
    /// bit for bit.
    fn run_reference(fp: &mut FictitiousPlay, game: &MatrixGame, iterations: usize) {
        fn argmin(xs: &[f64]) -> usize {
            let mut best = 0;
            for (i, &x) in xs.iter().enumerate() {
                if x < xs[best] {
                    best = i;
                }
            }
            best
        }
        fn argmax(xs: &[f64]) -> usize {
            let mut best = 0;
            for (i, &x) in xs.iter().enumerate() {
                if x > xs[best] {
                    best = i;
                }
            }
            best
        }
        for _ in 0..iterations {
            fp.row_counts[fp.row_play] += 1.0;
            fp.col_counts[fp.col_play] += 1.0;
            for (i, cum) in fp.row_cum.iter_mut().enumerate() {
                *cum += game.at(i, fp.col_play);
            }
            for (j, cum) in fp.col_cum.iter_mut().enumerate() {
                *cum += game.at(fp.row_play, j);
            }
            fp.row_play = argmin(&fp.row_cum);
            fp.col_play = argmax(&fp.col_cum);
        }
    }

    /// The certified bounds summed entry by entry in the row-major order
    /// the flat layout must keep.
    fn reference_equilibrium(fp: &FictitiousPlay, game: &MatrixGame) -> MixedEquilibrium {
        let (n, m) = (game.rows(), game.cols());
        let row_total: f64 = fp.row_counts.iter().sum();
        let col_total: f64 = fp.col_counts.iter().sum();
        let row_strategy: Vec<f64> = fp.row_counts.iter().map(|c| c / row_total).collect();
        let col_strategy: Vec<f64> = fp.col_counts.iter().map(|c| c / col_total).collect();
        let upper = (0..m)
            .map(|j| (0..n).map(|i| row_strategy[i] * game.at(i, j)).sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        let lower = (0..n)
            .map(|i| (0..m).map(|j| col_strategy[j] * game.at(i, j)).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        MixedEquilibrium {
            row_strategy,
            col_strategy,
            value: 0.5 * (lower + upper),
            lower,
            upper,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_play(
        fast: &FictitiousPlay,
        slow: &FictitiousPlay,
        game: &MatrixGame,
        case: &str,
    ) {
        assert_eq!(bits(&fast.row_cum), bits(&slow.row_cum), "row sums, {case}");
        assert_eq!(
            bits(&fast.col_cum),
            bits(&slow.col_cum),
            "column sums, {case}"
        );
        assert_eq!(fast, slow, "state, {case}");
        let (eq, reference) = (fast.equilibrium(game), reference_equilibrium(slow, game));
        assert_eq!(eq, reference, "equilibrium, {case}");
        assert_eq!(
            [eq.value, eq.lower, eq.upper].map(f64::to_bits),
            [reference.value, reference.lower, reference.upper].map(f64::to_bits),
            "bounds, {case}"
        );
    }

    #[test]
    fn skipping_unchanged_plays_is_bit_identical() {
        use rand::Rng;
        let mut rng = trimgame_numerics::rand_ext::seeded_rng(30);
        for (rows, cols) in (1..=12).flat_map(|n| (1..=12).map(move |m| (n, m))) {
            // Continuous losses, then quarter steps whose exact ties
            // keep the first-index rule busy.
            for quarter_steps in [false, true] {
                let entries: Vec<Vec<f64>> = (0..rows)
                    .map(|_| {
                        (0..cols)
                            .map(|_| {
                                if quarter_steps {
                                    f64::from(rng.gen_range(0..9u32)) / 4.0 - 1.0
                                } else {
                                    rng.gen::<f64>() * 2.0 - 1.0
                                }
                            })
                            .collect()
                    })
                    .collect();
                let game = MatrixGame::new(entries).unwrap();
                let mut mixture = |longest: usize| -> Vec<f64> {
                    let len = rng.gen_range(1..=longest);
                    let weights: Vec<f64> = (0..len).map(|_| rng.gen::<f64>()).collect();
                    let total: f64 = weights.iter().sum();
                    weights.iter().map(|w| w / total).collect()
                };
                // A prior that embeds with zero padding, as a grown
                // double-oracle game sees it.
                let prior = MixedEquilibrium {
                    row_strategy: mixture(rows),
                    col_strategy: mixture(cols),
                    value: 0.0,
                    lower: 0.0,
                    upper: 0.0,
                };
                for warm in [None, Some(&prior)] {
                    for budget in [1, 7, 64, 1000, 50_000] {
                        let case = format!(
                            "{rows}x{cols}, quarter {quarter_steps}, warm {}, {budget} rounds",
                            warm.is_some()
                        );
                        let mut fast = game.start_fictitious_play(warm);
                        let mut slow = fast.clone();
                        fast.run(&game, budget);
                        run_reference(&mut slow, &game, budget);
                        assert_same_play(&fast, &slow, &game, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn a_gap_that_rounds_away_forbids_the_skip() {
        // Row 0 leads row 1 by one ulp of 1.0 and both rows add 3.0: the
        // exact gap never closes, but 1 + 2⁻⁵² + 3 rounds to 4, a tie the
        // first-index rule hands to row 0.
        let game = MatrixGame::new(vec![vec![3.0], vec![3.0]]).unwrap();
        let mut fast = game.start_fictitious_play(None);
        fast.row_cum = vec![1.0 + f64::EPSILON, 1.0];
        fast.row_play = 1;
        assert_eq!(fast.unchanged_plays(&game, 1_000), 0);
        let mut slow = fast.clone();
        fast.run(&game, 1_000);
        run_reference(&mut slow, &game, 1_000);
        assert_same_play(&fast, &slow, &game, "one-ulp crossing");
        assert_eq!(slow.row_counts, vec![999.0, 1.0]);

        // A clear leader is skipped over: the mechanism is live.
        let game = MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut fp = game.start_fictitious_play(None);
        fp.run(&game, 10);
        assert!(fp.unchanged_plays(&game, 1_000_000) > 100_000);
    }

    #[test]
    fn ordering_is_validated() {
        assert!(UltimatumPayoffs::new(10.0, 8.0, 2.0, 1.0).is_ok());
        assert!(UltimatumPayoffs::new(8.0, 10.0, 2.0, 1.0).is_err()); // P̄ < T̄
        assert!(UltimatumPayoffs::new(10.0, 1.5, 2.0, 1.0).is_err()); // T̄ < P
        assert!(UltimatumPayoffs::new(10.0, 8.0, 0.5, 1.0).is_err()); // P < T
        assert!(UltimatumPayoffs::new(10.0, 8.0, 2.0, 0.0).is_err()); // T = 0
    }

    #[test]
    fn matrix_entries_match_table_i() {
        let u = UltimatumPayoffs::default_paper();
        let m = u.matrix();
        assert_eq!(m.payoff(Move::Soft, Move::Soft), (-3.0, 2.0));
        assert_eq!(m.payoff(Move::Soft, Move::Hard), (-11.0, 10.0));
        assert_eq!(m.payoff(Move::Hard, Move::Soft), (-8.0, 0.0));
        assert_eq!(m.payoff(Move::Hard, Move::Hard), (-8.0, 0.0));
    }

    #[test]
    fn hard_hard_is_an_equilibrium() {
        let m = UltimatumPayoffs::default_paper().matrix();
        let eq = m.pure_nash_equilibria();
        assert!(eq.contains(&(Move::Hard, Move::Hard)), "equilibria: {eq:?}");
        // (Soft, Soft) is NOT an equilibrium: the adversary deviates to
        // Hard for P̄ > P.
        assert!(!eq.contains(&(Move::Soft, Move::Soft)));
        // (Hard, Soft) is NOT an equilibrium: against a soft adversary the
        // collector prefers soft trimming (−P − T > −T̄).
        assert!(!eq.contains(&(Move::Hard, Move::Soft)));
        // (Soft, Hard) is NOT an equilibrium: the collector deviates to
        // Hard (−T̄ > −P̄ − T).
        assert!(!eq.contains(&(Move::Soft, Move::Hard)));
    }

    #[test]
    fn soft_soft_pareto_dominates_the_equilibrium() {
        // The prisoner's-dilemma structure: mutual gentleness is better for
        // BOTH than the unique equilibrium.
        let m = UltimatumPayoffs::default_paper().matrix();
        assert!(m.pareto_dominates((Move::Soft, Move::Soft), (Move::Hard, Move::Hard)));
    }

    #[test]
    fn equilibrium_is_unique() {
        let m = UltimatumPayoffs::default_paper().matrix();
        assert_eq!(m.pure_nash_equilibria(), vec![(Move::Hard, Move::Hard)]);
    }

    #[test]
    fn structure_holds_across_parameterizations() {
        for (ph, th, ps, ts) in [
            (100.0, 50.0, 5.0, 1.0),
            (20.0, 19.0, 3.0, 2.9),
            (10.0, 8.0, 4.0, 3.0),
        ] {
            let u = UltimatumPayoffs::new(ph, th, ps, ts).unwrap();
            let m = u.matrix();
            assert_eq!(
                m.pure_nash_equilibria(),
                vec![(Move::Hard, Move::Hard)],
                "params ({ph},{th},{ps},{ts})"
            );
            assert!(m.pareto_dominates((Move::Soft, Move::Soft), (Move::Hard, Move::Hard)));
        }
    }

    #[test]
    fn display_renders_table() {
        let m = UltimatumPayoffs::default_paper().matrix();
        let s = m.to_string();
        assert!(s.contains("Adversary Soft"));
        assert!(s.contains("Collector Hard"));
    }

    #[test]
    fn matrix_game_validates_shape() {
        assert!(MatrixGame::new(vec![]).is_err());
        assert!(MatrixGame::new(vec![vec![]]).is_err());
        assert!(MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(MatrixGame::new(vec![vec![1.0, f64::NAN]]).is_err());
        let g = MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!((g.rows(), g.cols()), (2, 2));
        assert_eq!(g.at(1, 0), 3.0);
    }

    #[test]
    fn matching_pennies_mixes_evenly() {
        // Row loses 1 on a match, wins 1 on a mismatch: value 0, both mix
        // 50/50.
        let g = MatrixGame::new(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let eq = g.solve(200_000);
        assert!(eq.value.abs() < 0.01, "value {}", eq.value);
        assert!(eq.gap() < 0.02, "gap {}", eq.gap());
        for w in eq.row_strategy.iter().chain(&eq.col_strategy) {
            assert!((w - 0.5).abs() < 0.01, "weight {w}");
        }
        // Pure commitment is fully exploitable: guaranteed loss 1.
        assert_eq!(g.pure_commitment_value(), 1.0);
    }

    #[test]
    fn dominant_row_solves_pure() {
        // Row 0 dominates (lower loss everywhere).
        let g = MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let eq = g.solve(10_000);
        assert!(eq.row_strategy[0] > 0.99);
        // Column player maximizes: column 1 dominates.
        assert!(eq.col_strategy[1] > 0.99);
        assert!((eq.value - 2.0).abs() < 1e-3);
        assert_eq!(g.pure_commitment_value(), 2.0);
    }

    #[test]
    fn bounds_bracket_the_value_and_mixing_helps() {
        // A threshold-game shape: defender atoms {0.85, 0.95} against
        // just-below responses {0.84, 0.94}, loss = surviving damage plus
        // (1 − t) overhead. Every pure row is exploitable (worst case
        // 0.99), but the 2×2 minimax mixes to value 0.9006…: the classic
        // randomization advantage.
        let g = MatrixGame::new(vec![vec![0.99, 0.15], vec![0.89, 0.99]]).unwrap();
        let eq = g.solve(100_000);
        assert!(eq.lower <= eq.value + 1e-12 && eq.value <= eq.upper + 1e-12);
        assert!(eq.gap() < 0.01, "gap {}", eq.gap());
        // Mixed play strictly beats the best pure commitment.
        assert_eq!(g.pure_commitment_value(), 0.99);
        assert!(eq.upper < 0.92, "upper {}", eq.upper);
        assert!((eq.value - 0.9006).abs() < 0.01, "value {}", eq.value);
        // Expected loss under the solved profile sits inside the bounds.
        let v = g.expected_loss(&eq.row_strategy, &eq.col_strategy);
        assert!(v >= eq.lower - 1e-9 && v <= eq.upper + 1e-9);
    }

    #[test]
    fn warm_start_matches_cold_solve_api() {
        let g = MatrixGame::new(vec![vec![0.99, 0.15], vec![0.89, 0.99]]).unwrap();
        let cold = g.solve(50_000);
        // `solve` is `solve_warm(_, None)` by construction.
        let none = g.solve_warm(50_000, None);
        assert_eq!(cold.value.to_bits(), none.value.to_bits());
        assert_eq!(cold.row_strategy, none.row_strategy);
        // Warm-starting from the solved point keeps certified bounds valid
        // and does not move the value materially.
        let warm = g.solve_warm(50_000, Some(&cold));
        assert!(warm.lower <= warm.value + 1e-12 && warm.value <= warm.upper + 1e-12);
        assert!((warm.value - cold.value).abs() < 0.01);
    }

    #[test]
    fn warm_start_speeds_up_grown_matrices() {
        // Solve a 2x2, grow it by one row and one column whose entries do
        // not change the fixed point much, and compare iterations-to-bound
        // cold vs warm. This is the double-oracle inner loop in miniature.
        let small = MatrixGame::new(vec![vec![0.99, 0.15], vec![0.89, 0.99]]).unwrap();
        let prior = small.solve(100_000);
        let grown = MatrixGame::new(vec![
            vec![0.99, 0.15, 0.40],
            vec![0.89, 0.99, 0.60],
            vec![0.95, 0.70, 0.97],
        ])
        .unwrap();
        let gap = 0.01;
        let (cold_eq, cold_iters) = grown.solve_to_gap(gap, 2_000_000, None);
        let (warm_eq, warm_iters) = grown.solve_to_gap(gap, 2_000_000, Some(&prior));
        assert!(cold_eq.gap() <= gap && warm_eq.gap() <= gap);
        assert!((cold_eq.value - warm_eq.value).abs() < 2.0 * gap);
        assert!(
            warm_iters <= cold_iters,
            "warm {warm_iters} vs cold {cold_iters}"
        );
    }

    #[test]
    fn solve_to_gap_respects_iteration_cap() {
        let g = MatrixGame::new(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let (eq, spent) = g.solve_to_gap(0.0, 500, None);
        assert!(spent <= 500);
        assert!(eq.gap() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "warm-start prior does not embed")]
    fn warm_start_rejects_oversized_prior() {
        let big = MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let prior = big.solve(1_000);
        let small = MatrixGame::new(vec![vec![1.0]]).unwrap();
        let _ = small.solve_warm(1_000, Some(&prior));
    }
}
