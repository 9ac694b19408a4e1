//! Parallel sweep runner over the unified engine.
//!
//! Randomized-strategy evaluation — mixed attacker policies, threshold
//! games under noise, equilibrium checks — needs *thousands* of seeded
//! game instances, not one. This module fans a grid of
//! (scheme × seed × stream shape) cells across `std::thread::scope`
//! workers, each cell one lean [`run_game_with_scratch`] call over the
//! worker's arena (no per-round kept payloads, scratch-buffer trimming),
//! and aggregates per-scheme utility statistics.
//!
//! The work queue is a single atomic cursor over the flattened grid:
//! workers claim the next cell index until the grid is exhausted, so an
//! expensive cell never stalls the rest of a static partition. Results
//! are deterministic — each cell's outcome depends only on its
//! `(scheme, seed, shape)` coordinates, never on scheduling — which
//! [`run`] exploits by writing each cell at its own grid index.
//!
//! Run it from the CLI: `expt sweep` (`TRIMGAME_SWEEP_THREADS` sets the
//! worker count).

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use trim_core::simulation::{run_game_with_policies, run_game_with_scratch, GameConfig, Scheme};
use trimgame_numerics::stats::OnlineStats;
use trimgame_stream::board::RangedVenue;

/// The stream shape of one sweep axis: how much data arrives per round,
/// for how many rounds, and how hard the adversary presses.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamShape {
    /// Label used in reports.
    pub name: String,
    /// Benign batch size per round.
    pub batch: usize,
    /// Number of rounds.
    pub rounds: usize,
    /// Attack ratio (poison per benign).
    pub attack_ratio: f64,
}

impl StreamShape {
    /// Creates a shape.
    #[must_use]
    pub fn new(name: impl Into<String>, batch: usize, rounds: usize, attack_ratio: f64) -> Self {
        Self {
            name: name.into(),
            batch,
            rounds,
            attack_ratio,
        }
    }
}

/// A grid of engine runs: the cartesian product of schemes, seeds and
/// stream shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Schemes under test.
    pub schemes: Vec<Scheme>,
    /// Master seeds (one independent game instance per seed).
    pub seeds: Vec<u64>,
    /// Stream shapes.
    pub shapes: Vec<StreamShape>,
    /// Nominal threshold `Tth`.
    pub tth: f64,
    /// Tit-for-tat redundancy.
    pub red: f64,
}

impl SweepGrid {
    /// The paper's scheme roster over `n_seeds` derived seeds and three
    /// stream shapes (light / default / heavy) — 6 × `n_seeds` × 3 cells.
    #[must_use]
    pub fn paper_roster(n_seeds: usize, master_seed: u64) -> Self {
        Self {
            schemes: Scheme::roster(),
            seeds: (0..n_seeds as u64)
                .map(|i| trimgame_numerics::rand_ext::derive_seed(master_seed, i))
                .collect(),
            shapes: vec![
                StreamShape::new("light", 200, 20, 0.1),
                StreamShape::new("default", 1_000, 20, 0.2),
                StreamShape::new("heavy", 2_000, 30, 0.4),
            ],
            tth: 0.9,
            red: 0.05,
        }
    }

    /// Number of cells in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schemes.len() * self.seeds.len() * self.shapes.len()
    }

    /// True if the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(scheme, seed, shape)` coordinates of flattened cell `idx`.
    fn cell(&self, idx: usize) -> (Scheme, u64, &StreamShape) {
        let per_scheme = self.seeds.len() * self.shapes.len();
        let scheme = self.schemes[idx / per_scheme];
        let rest = idx % per_scheme;
        let seed = self.seeds[rest / self.shapes.len()];
        let shape = &self.shapes[rest % self.shapes.len()];
        (scheme, seed, shape)
    }

    fn config(&self, scheme: Scheme, seed: u64, shape: &StreamShape) -> GameConfig {
        let mut cfg = GameConfig::new(scheme);
        cfg.tth = self.tth;
        cfg.red = self.red;
        cfg.seed = seed;
        cfg.batch = shape.batch;
        cfg.rounds = shape.rounds;
        cfg.attack_ratio = shape.attack_ratio;
        cfg
    }
}

/// The outcome of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Scheme under test.
    pub scheme: Scheme,
    /// RNG seed of this instance.
    pub seed: u64,
    /// Stream shape label.
    pub shape: String,
    /// Fraction of retained values that are poison.
    pub surviving_poison_fraction: f64,
    /// Fraction of benign values falsely trimmed.
    pub benign_trim_fraction: f64,
    /// Final cumulative adversary utility.
    pub final_u_a: f64,
    /// Final cumulative collector utility.
    pub final_u_c: f64,
    /// Tit-for-tat termination round, if it triggered.
    pub termination_round: Option<usize>,
}

fn run_cell(pool: &[f64], grid: &SweepGrid, idx: usize) -> SweepCell {
    let (scheme, seed, shape) = grid.cell(idx);
    let cfg = grid.config(scheme, seed, shape);
    let (defender, adversary) = cfg.policies();
    let out = run_game_with_policies(pool, &cfg, defender, adversary, None, false);
    SweepCell {
        scheme,
        seed,
        shape: shape.name.clone(),
        surviving_poison_fraction: out.totals.surviving_poison_fraction(),
        benign_trim_fraction: out.totals.benign_trim_fraction(),
        final_u_a: *out.utilities.u_a.last().expect("rounds > 0"),
        final_u_c: *out.utilities.u_c.last().expect("rounds > 0"),
        termination_round: out.termination_round,
    }
}

/// One sweep worker's reusable state: the pool arena (reference tables +
/// round buffers) and the engine trajectory scratch, shared by every
/// cell that worker claims.
#[derive(Debug)]
pub struct SweepWorker {
    arena: trim_core::simulation::ScalarArena,
    scratch: trim_core::engine::EngineScratch,
}

impl SweepWorker {
    /// Builds a worker over `pool` (one pool copy + sort, amortized over
    /// all of the worker's cells).
    #[must_use]
    pub fn new(pool: &[f64]) -> Self {
        Self {
            arena: trim_core::simulation::ScalarArena::new(pool),
            scratch: trim_core::engine::EngineScratch::new(),
        }
    }
}

/// The scratch-path cell: bit-identical outcomes to [`run_cell`]'s
/// allocating engine run (the parallel ≡ sequential test crosses the two
/// paths on purpose), with zero per-cell allocation after worker warm-up.
fn run_cell_with(
    worker: &mut SweepWorker,
    grid: &SweepGrid,
    idx: usize,
    board: Option<trimgame_stream::board::RangedBoard>,
) -> SweepCell {
    let (scheme, seed, shape) = grid.cell(idx);
    let cfg = grid.config(scheme, seed, shape);
    let (defender, adversary) = cfg.policies();
    let run = run_game_with_scratch(
        &cfg,
        defender,
        adversary,
        board,
        &mut worker.arena,
        &mut worker.scratch,
    );
    SweepCell {
        scheme,
        seed,
        shape: shape.name.clone(),
        surviving_poison_fraction: run.totals.surviving_poison_fraction(),
        benign_trim_fraction: run.totals.benign_trim_fraction(),
        final_u_a: run.final_u_a,
        final_u_c: run.final_u_c,
        termination_round: run.termination_round,
    }
}

/// Runs every cell of the grid sequentially, in grid order.
///
/// # Panics
/// Panics if the pool is empty or the grid degenerate.
#[must_use]
pub fn run_sequential(pool: &[f64], grid: &SweepGrid) -> Vec<SweepCell> {
    (0..grid.len())
        .map(|idx| run_cell(pool, grid, idx))
        .collect()
}

/// Resolves a requested worker count: `0` means the machine's available
/// parallelism, and the result is capped at `n` jobs (never below one).
#[must_use]
pub fn resolve_workers(requested: usize, n: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    workers.min(n.max(1))
}

/// Fans `n` independent jobs across `workers` scoped threads (a single
/// atomic cursor over the flattened index space — an expensive job never
/// stalls the rest of a static partition) and returns results in index
/// order. `workers == 0` uses the machine's available parallelism;
/// `workers <= 1` runs sequentially on the calling thread.
///
/// As long as `job(idx)` depends only on `idx` — which every seeded
/// engine cell in this crate does — the output is identical regardless of
/// the worker count or scheduling, which is what makes the sweep and the
/// empirical equilibrium estimator deterministic under any worker count.
///
/// # Panics
/// Panics if a worker panics.
#[must_use]
pub fn parallel_map<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, workers, || (), |(), idx| job(idx))
}

/// [`parallel_map`] with per-worker state: `init` runs once on each
/// worker thread (and once for the sequential path), and every job on
/// that worker receives `&mut` of its state — the engine-scratch /
/// scenario-arena reuse hook that makes a payoff sweep allocation-free
/// across cells. State must never influence results (it is scheduling-
/// dependent which jobs share a worker); the determinism contract is the
/// same as [`parallel_map`]'s.
///
/// Each worker collects its `(index, result)` pairs in a private vector
/// — no per-item lock, so tiny jobs (a 10-round equilibrium cell) pay
/// nothing beyond the claim cursor — and returns it through its join
/// handle; the results are scattered into index order after the scope.
///
/// # Panics
/// Panics if a worker panics.
#[must_use]
pub fn parallel_map_with<T, W, I, F>(n: usize, workers: usize, init: I, job: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    let workers = resolve_workers(workers, n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|idx| job(&mut state, idx)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (init, job, cursor) = (&init, &job, &cursor);
                scope.spawn(move || {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        done.push((idx, job(&mut state, idx)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (idx, result) in per_worker.into_iter().flatten() {
        slots[idx] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

/// Runs every cell of the grid across `workers` scoped threads and
/// returns the cells in grid order. `workers == 0` uses the machine's
/// available parallelism. The result is identical to [`run_sequential`]
/// on the same grid (cells are seed-deterministic and
/// scheduling-independent); each worker reuses one [`SweepWorker`]
/// (arena + engine scratch) across all of its cells.
///
/// # Panics
/// Panics if the pool is empty, the grid is degenerate, or a worker
/// panics.
#[must_use]
pub fn run(pool: &[f64], grid: &SweepGrid, workers: usize) -> Vec<SweepCell> {
    parallel_map_with(
        grid.len(),
        workers,
        || SweepWorker::new(pool),
        |worker, idx| run_cell_with(worker, grid, idx, None),
    )
}

/// The shared-board sweep: every cell's engine publishes its per-round
/// records into its own unbounded-span shard of one [`RangedVenue`], so
/// the whole grid's public history is readable by a single
/// cross-collector observer ([`RangedVenue::merged`]) — the
/// information-leakage channel a fleet of collectors exposes to a
/// board-reading adversary. Cell outcomes are identical to [`run`] (the
/// policies in the roster are not board-driven; the board only
/// *records*).
///
/// # Panics
/// Panics if the pool is empty, the grid is degenerate, or a worker
/// panics.
#[must_use]
pub fn run_shared_board(
    pool: &[f64],
    grid: &SweepGrid,
    workers: usize,
) -> (Vec<SweepCell>, RangedVenue) {
    let venue = RangedVenue::new(grid.len().max(1), usize::MAX);
    let cells = parallel_map_with(
        grid.len(),
        workers,
        || SweepWorker::new(pool),
        |worker, idx| run_cell_with(worker, grid, idx, Some(venue.collector(idx))),
    );
    (cells, venue)
}

/// Per-scheme aggregate statistics over a sweep's cells.
#[derive(Debug, Clone)]
pub struct SchemeStats {
    /// Scheme legend name (borrowed for the static schemes — the sweep
    /// result key allocates only for the `Elastic` family).
    pub scheme: Cow<'static, str>,
    /// Number of cells aggregated.
    pub cells: usize,
    /// Surviving poison fraction across cells.
    pub poison: OnlineStats,
    /// Benign trim fraction across cells.
    pub overhead: OnlineStats,
    /// Final adversary utility across cells.
    pub u_a: OnlineStats,
    /// Final collector utility across cells.
    pub u_c: OnlineStats,
    /// How many cells terminated (Tit-for-tat trigger).
    pub terminated: usize,
}

/// Aggregates sweep cells per scheme, in first-appearance order.
#[must_use]
pub fn aggregate(cells: &[SweepCell]) -> Vec<SchemeStats> {
    let mut stats: Vec<SchemeStats> = Vec::new();
    for cell in cells {
        let name = cell.scheme.name();
        let entry = match stats.iter_mut().find(|s| s.scheme == name) {
            Some(entry) => entry,
            None => {
                stats.push(SchemeStats {
                    scheme: name,
                    cells: 0,
                    poison: OnlineStats::new(),
                    overhead: OnlineStats::new(),
                    u_a: OnlineStats::new(),
                    u_c: OnlineStats::new(),
                    terminated: 0,
                });
                stats.last_mut().expect("just pushed")
            }
        };
        entry.cells += 1;
        entry.poison.push(cell.surviving_poison_fraction);
        entry.overhead.push(cell.benign_trim_fraction);
        entry.u_a.push(cell.final_u_a);
        entry.u_c.push(cell.final_u_c);
        if cell.termination_round.is_some() {
            entry.terminated += 1;
        }
    }
    stats
}

/// The `expt sweep` experiment: runs the default grid sequentially and in
/// parallel, verifies the results agree, and reports per-scheme utility
/// statistics plus the wall-clock comparison. `threads` is the parallel
/// run's worker count (`0` = all cores).
#[must_use]
pub fn sweep_report(threads: usize) -> String {
    use std::fmt::Write as _;
    let pool = crate::empirical::standard_pool();
    let grid = SweepGrid::paper_roster(4, 2024);

    let t0 = std::time::Instant::now();
    let sequential = run_sequential(&pool, &grid);
    let seq_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let parallel = run(&pool, &grid, threads);
    let par_time = t1.elapsed();
    assert_eq!(sequential, parallel, "sweep must be scheduling-independent");

    let workers = resolve_workers(threads, grid.len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Sweep: {} cells ({} schemes x {} seeds x {} shapes) ==",
        grid.len(),
        grid.schemes.len(),
        grid.seeds.len(),
        grid.shapes.len()
    );
    let _ = writeln!(
        out,
        "sequential {:.1} ms | parallel {:.1} ms on {} workers | speedup {:.2}x",
        seq_time.as_secs_f64() * 1e3,
        par_time.as_secs_f64() * 1e3,
        workers,
        seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<16} {:>5} {:>18} {:>18} {:>12} {:>12} {:>6}",
        "scheme", "cells", "poison (mu+/-sd)", "overhead (mu+/-sd)", "u_a (mu)", "u_c (mu)", "term"
    );
    for s in aggregate(&parallel) {
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>8.4}+/-{:>7.4} {:>9.4}+/-{:>7.4} {:>12.4} {:>12.4} {:>6}",
            s.scheme,
            s.cells,
            s.poison.mean(),
            s.poison.variance().sqrt(),
            s.overhead.mean(),
            s.overhead.variance().sqrt(),
            s.u_a.mean(),
            s.u_c.mean(),
            s.terminated,
        );
    }

    // Shared-board mode: the same grid publishing into one sharded venue,
    // plus what a single cross-collector observer extracts from it.
    let t2 = std::time::Instant::now();
    let (shared_cells, venue) = run_shared_board(&pool, &grid, threads);
    let shared_time = t2.elapsed();
    assert_eq!(parallel, shared_cells, "the board only records");
    let merged = venue.merged();
    let mut distinct_thresholds = std::collections::BTreeSet::new();
    let mut first_seen_round = usize::MAX;
    merged.for_each(|_, record| {
        distinct_thresholds.insert(record.threshold_percentile.to_bits());
        first_seen_round = first_seen_round.min(record.round);
    });
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "== Shared board: {} collectors, {} public records ({:.1} ms with per-collector shards) ==",
        venue.collectors(),
        merged.len(),
        shared_time.as_secs_f64() * 1e3,
    );
    let _ = writeln!(
        out,
        "cross-collector leakage: one merged read exposes every collector's trimming position — \
         {} distinct threshold percentiles, visible from round {} on",
        distinct_thresholds.len(),
        if first_seen_round == usize::MAX {
            0
        } else {
            first_seen_round
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<f64> {
        (0..5_000).map(|i| (i % 500) as f64 / 5.0).collect()
    }

    fn small_grid() -> SweepGrid {
        SweepGrid {
            schemes: vec![Scheme::Ostrich, Scheme::Baseline09, Scheme::Elastic(0.5)],
            seeds: vec![1, 2],
            shapes: vec![
                StreamShape::new("a", 100, 4, 0.2),
                StreamShape::new("b", 200, 3, 0.3),
            ],
            tth: 0.9,
            red: 0.05,
        }
    }

    #[test]
    fn grid_len_is_product() {
        let grid = small_grid();
        assert_eq!(grid.len(), 12);
        assert!(!grid.is_empty());
        assert_eq!(SweepGrid::paper_roster(4, 7).len(), 72);
    }

    #[test]
    fn parallel_matches_sequential() {
        let grid = small_grid();
        let pool = pool();
        let seq = run_sequential(&pool, &grid);
        for workers in [1, 2, 4] {
            let par = run(&pool, &grid, workers);
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn per_worker_state_never_leaks_into_results() {
        // parallel_map_with: the worker state is reused across every job a
        // worker claims; results must match the stateless map regardless.
        let stateless = parallel_map(37, 1, |idx| idx * idx);
        for workers in [2, 3, 8] {
            let with_state = parallel_map_with(
                37,
                workers,
                || 0usize,
                |calls, idx| {
                    *calls += 1; // scheduling-dependent, result-irrelevant
                    idx * idx
                },
            );
            assert_eq!(with_state, stateless, "workers={workers}");
        }
    }

    #[test]
    fn shared_board_mode_records_without_changing_outcomes() {
        let grid = small_grid();
        let pool = pool();
        let isolated = run(&pool, &grid, 2);
        let (shared, venue) = run_shared_board(&pool, &grid, 3);
        assert_eq!(isolated, shared);
        assert_eq!(venue.collectors(), grid.len());
        // Every cell posted one record per round onto its own shard.
        for idx in 0..grid.len() {
            let (_, _, shape) = grid.cell(idx);
            assert_eq!(venue.collector(idx).len(), shape.rounds, "cell {idx}");
        }
        // The merged observer sees the whole venue in round order.
        let merged = venue.merged();
        let records = merged.records();
        assert_eq!(records.len(), venue.total_len());
        assert!(records.windows(2).all(|w| w[0].1.round <= w[1].1.round));
    }

    #[test]
    fn cells_are_in_grid_order() {
        let grid = small_grid();
        let cells = run(&pool(), &grid, 3);
        assert_eq!(cells.len(), grid.len());
        for (idx, cell) in cells.iter().enumerate() {
            let (scheme, seed, shape) = grid.cell(idx);
            assert_eq!(cell.scheme, scheme);
            assert_eq!(cell.seed, seed);
            assert_eq!(cell.shape, shape.name);
        }
    }

    #[test]
    fn aggregate_groups_by_scheme() {
        let grid = small_grid();
        let stats = aggregate(&run_sequential(&pool(), &grid));
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert_eq!(s.cells, 4);
            assert_eq!(s.poison.count(), 4);
        }
        // Ostrich keeps all poison; Elastic keeps its poison deep below
        // the threshold, but everyone's fractions are valid.
        assert!(stats[0].poison.mean() > 0.05);
        for s in &stats {
            assert!((0.0..=1.0).contains(&s.poison.mean()), "{}", s.scheme);
        }
    }

    #[test]
    fn cell_matches_direct_engine_run() {
        let grid = small_grid();
        let pool = pool();
        let cells = run_sequential(&pool, &grid);
        let cfg = grid.config(grid.schemes[0], grid.seeds[0], &grid.shapes[0]);
        let (defender, adversary) = cfg.policies();
        let direct = run_game_with_policies(&pool, &cfg, defender, adversary, None, false);
        assert_eq!(
            cells[0].surviving_poison_fraction,
            direct.totals.surviving_poison_fraction()
        );
        assert_eq!(cells[0].final_u_a, *direct.utilities.u_a.last().unwrap());
    }
}
