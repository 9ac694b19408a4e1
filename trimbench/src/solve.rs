//! The solver workloads, `eq-dense` and `eq-oracle`.
//!
//! One operation is one solve on the scalar substrate's 5x5 grid with 12
//! seeds per cell, on two sweep workers for `eq-dense` and one for
//! `eq-oracle` (see `Workload::threads`); the next solve starts when the
//! previous one returns. `eq-dense` is `estimate_on`: all 300 cell runs
//! in one fan-out. `eq-oracle` is what `expt equilibrium --double-oracle`
//! runs: a grid-candidate pass, then a continuum pass, each pricing its
//! growth steps through many small fan-outs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use trim_core::adversary::AttackPolicy;
use trim_core::matrix::{MatrixGame, MixedEquilibrium};
use trim_core::strategy::ThresholdPolicy;
use trimgame_bench::double_oracle::{
    double_oracle, DoubleOracleConfig, DoubleOracleEquilibrium, OracleSide,
};
use trimgame_bench::empirical::{
    estimate_on, standard_pool, CellOutcome, CellScratch, ClosedForm, EmpiricalEquilibrium,
    EquilibriumConfig, GameSubstrate, ScalarSubstrate,
};
use trimgame_stream::board::PublicBoard;

use crate::trace::{busy, next_id, now_ns, union_ns, Sink, Span};
use crate::{
    end_to_end, overhead_metric, sys, timed_loop, timed_setup, Checks, Metric, OpSample, Opts,
    Outcome, Scale, TracedRun, Workload,
};

/// The master seed of the pinned dense game, and its equilibrium value
/// at five decimals: the repository's contract value for the dense
/// 5x5x12 scalar estimate.
const PINNED_SEED: u64 = 2024;
const PINNED_VALUE: &str = "0.16573";

/// Timed repetitions of the matrix replay; the figure is the median.
const REPLAY_REPS: usize = 5;

/// The grid every solve runs on: the full scalar grid, or the smoke grid
/// at tiny scale, with the given master seed and worker count.
pub fn config(scale: Scale, master_seed: u64, workers: usize) -> EquilibriumConfig {
    let base = match scale {
        Scale::Full => EquilibriumConfig::default_grid(),
        Scale::Tiny => EquilibriumConfig::smoke(),
    };
    EquilibriumConfig {
        master_seed,
        workers,
        ..base
    }
}

/// One solve's result.
enum Solved {
    Dense(Box<EmpiricalEquilibrium>),
    /// The grid-candidate pass, then the continuum pass.
    Oracle(Box<[DoubleOracleEquilibrium; 2]>),
}

/// The two double-oracle passes' configurations, in solve order.
fn oracle_passes(cfg: &EquilibriumConfig) -> [DoubleOracleConfig; 2] {
    [
        DoubleOracleConfig::grid_for(cfg),
        DoubleOracleConfig::for_game(cfg),
    ]
}

fn solve(sub: &dyn GameSubstrate, cfg: &EquilibriumConfig, workload: Workload) -> Solved {
    match workload {
        Workload::EqDense => Solved::Dense(Box::new(estimate_on(sub, cfg))),
        Workload::EqOracle => Solved::Oracle(Box::new(
            oracle_passes(cfg).map(|pass| double_oracle(sub, cfg, &pass)),
        )),
        _ => panic!("{} is not a solver workload", workload.name()),
    }
}

impl Solved {
    fn engine_runs(&self) -> usize {
        match self {
            Solved::Dense(eq) => eq.mean_loss.len() * eq.mean_loss[0].len() * eq.seeds,
            Solved::Oracle(passes) => passes.iter().map(|p| p.engine_runs).sum(),
        }
    }

    /// The output every solve of the same inputs must reproduce bit for
    /// bit: equilibrium values and bounds, supports, measured means and
    /// engine-run counts.
    fn fingerprint(&self) -> Vec<u64> {
        let eq_bits = |e: &MixedEquilibrium| [e.value, e.lower, e.upper].map(f64::to_bits);
        let matrix_bits =
            |m: &[Vec<f64>]| m.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
        match self {
            Solved::Dense(eq) => {
                let mut fp = eq_bits(&eq.empirical).to_vec();
                fp.extend(matrix_bits(&eq.mean_loss));
                fp.push(self.engine_runs() as u64);
                fp
            }
            Solved::Oracle(passes) => passes
                .iter()
                .flat_map(|p| {
                    let mut fp = eq_bits(&p.equilibrium).to_vec();
                    fp.extend(
                        p.defender_atoms
                            .iter()
                            .chain(&p.attacker_atoms)
                            .map(|a| a.to_bits()),
                    );
                    fp.extend(matrix_bits(&p.mean_loss));
                    fp.push(p.engine_runs as u64);
                    fp
                })
                .collect(),
        }
    }

    /// Atoms with positive equilibrium weight, and atoms measured.
    fn support(&self) -> (usize, usize) {
        let count = |e: &MixedEquilibrium| {
            let used = e
                .row_strategy
                .iter()
                .chain(&e.col_strategy)
                .filter(|&&w| w > 0.0)
                .count();
            (used, e.row_strategy.len() + e.col_strategy.len())
        };
        match self {
            Solved::Dense(eq) => count(&eq.empirical),
            Solved::Oracle(passes) => passes
                .iter()
                .map(|p| count(&p.equilibrium))
                .fold((0, 0), |(u, n), (pu, pn)| (u + pu, n + pn)),
        }
    }
}

/// Grown oracle steps, and oracle steps taken.
fn oracle_growth(passes: &[DoubleOracleEquilibrium]) -> (usize, usize) {
    passes.iter().fold((0, 0), |(grew, steps), p| {
        (
            grew + p.steps.iter().filter(|s| s.grew).count(),
            steps + p.steps.len(),
        )
    })
}

/// The reference fingerprint of a workload's solve, computed once at the
/// other worker count (one sweep worker, or two for a one-worker
/// workload). Solves are scheduling-independent, so every measured solve
/// must reproduce it.
fn reference_fingerprint(
    sub: &ScalarSubstrate,
    cfg: &EquilibriumConfig,
    workload: Workload,
    corrupt: bool,
) -> Vec<u64> {
    let other = EquilibriumConfig {
        workers: if cfg.workers == 1 { 2 } else { 1 },
        ..cfg.clone()
    };
    let mut fp = solve(sub, &other, workload).fingerprint();
    if corrupt {
        fp[0] ^= 1;
    }
    fp
}

/// Runs a solver workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let workload = opts.workload;
    let cfg = config(opts.scale, opts.seed, workload.threads());
    // Set-up builds what every solve reads: the pool, the substrate (its
    // sorted reference table) and the closed-form model.
    let (sub, setup_s) = timed_setup(|| {
        let sub = ScalarSubstrate::new(&standard_pool());
        std::hint::black_box(sub.closed_form(&cfg));
        sub
    });
    let reference = reference_fingerprint(&sub, &cfg, workload, opts.corrupt_reference);
    let mut checks = Checks::default();
    if workload == Workload::EqDense && opts.scale == Scale::Full {
        let pinned = solve(
            &sub,
            &config(Scale::Full, PINNED_SEED, cfg.workers),
            workload,
        );
        if let Solved::Dense(eq) = &pinned {
            checks.record(format!("{:.5}", eq.empirical.value) == PINNED_VALUE);
        }
    }
    let mut header = vec![(
        "config",
        format!(
            "scalar substrate, {}x{} atoms, {} seeds per cell, {} rounds x {} batch per engine run, \
             {} fictitious-play iterations, {} sweep worker(s), master seed = seed, {}; \
             closed loop",
            cfg.defender_atoms.len(),
            cfg.attacker_atoms().len(),
            cfg.seeds,
            cfg.rounds,
            cfg.batch,
            cfg.fp_iterations,
            cfg.workers,
            match workload {
                Workload::EqDense => "estimate_on (one 300-job fan-out)",
                _ => "double oracle: grid-candidate pass then continuum pass",
            },
        ),
    )];

    if !opts.trace {
        let (samples, cpu_s) = timed_loop(opts.seconds, opts.scale.min_ops(), || {
            let start = Instant::now();
            let solved = solve(&sub, &cfg, workload);
            let wall_s = start.elapsed().as_secs_f64();
            checks.record(solved.fingerprint() == reference);
            let runs = solved.engine_runs() as f64;
            OpSample {
                wall_s,
                rate_s: wall_s,
                rounds: runs * cfg.rounds as f64,
                records: runs * (cfg.rounds * cfg.batch) as f64,
                engine_runs: runs,
            }
        })?;
        header.push(("operations", samples.len().to_string()));
        return Ok(Outcome {
            header,
            checks,
            metrics: end_to_end(&samples, cpu_s, setup_s)?,
        });
    }

    let traced = traced_run(
        workload,
        &sub,
        &cfg,
        &reference,
        &mut checks,
        opts.seconds,
        5,
    );
    header.push(("operations", traced.ops.to_string()));
    header.push(("breakdown", traced.breakdown.clone()));
    let mut metrics = traced.metrics;
    if workload == Workload::EqDense {
        // The dense estimate has no oracle; its growth share comes from
        // the double-oracle solve of the same grid and seed.
        let oracle_ref =
            reference_fingerprint(&sub, &cfg, Workload::EqOracle, opts.corrupt_reference);
        let solved = solve(&sub, &cfg, Workload::EqOracle);
        checks.record(solved.fingerprint() == oracle_ref);
        if let Solved::Oracle(passes) = &solved {
            let (grew, steps) = oracle_growth(&passes[..]);
            metrics.push(Metric::new(
                "oracle.grew_share",
                "share",
                grew as f64 / steps as f64,
            ));
        }
        header.push((
            "oracle_layer",
            "measured on an eq-oracle solve of the same seed".to_string(),
        ));
    }
    metrics.extend(crate::collect::probe_layers(opts, &mut checks));
    metrics.push(overhead_metric(&traced.untraced_s, &traced.traced_s));
    header.push((
        "collector_layers",
        "measured on collect-rounds operations of the same seed".to_string(),
    ));
    Ok(Outcome {
        header,
        checks,
        metrics,
    })
}

/// The solver's layer metrics on `eq-oracle` solves of the same seed,
/// for the traced runs of the collector workloads.
pub fn probe_layers(opts: &Opts, checks: &mut Checks) -> Vec<Metric> {
    let cfg = config(opts.scale, opts.seed, Workload::EqOracle.threads());
    let sub = ScalarSubstrate::new(&standard_pool());
    let reference = reference_fingerprint(&sub, &cfg, Workload::EqOracle, opts.corrupt_reference);
    traced_run(Workload::EqOracle, &sub, &cfg, &reference, checks, 0.0, 2).metrics
}

/// Per-solve totals from one traced solve's spans, in nanoseconds.
#[derive(Default)]
struct SolveSpans {
    wall: u64,
    cells: u64,
    cell_busy: u64,
    cell_union: u64,
    fanout_union: u64,
    scratch_builds: u64,
    scratch: u64,
    closed_form: u64,
}

impl SolveSpans {
    fn from_spans(wall: u64, spans: &[Span]) -> Self {
        let (cell_busy, cells) = busy(spans, "cells.run");
        let (scratch, scratch_builds) = busy(spans, "sweep.scratch");
        let cell_union = union_ns(
            spans
                .iter()
                .filter(|s| s.name == "cells.run")
                .map(|s| (s.start, s.end))
                .collect(),
        );
        // A sweep worker is busy from building its scratch to the end of
        // its last cell; the union over workers is when a fan-out ran.
        let fanout_union = union_ns(
            spans
                .iter()
                .filter(|s| s.name == "sweep.scratch")
                .map(|w| {
                    let last = spans
                        .iter()
                        .filter(|c| c.parent == w.id)
                        .map(|c| c.end)
                        .fold(w.end, u64::max);
                    (w.start, last)
                })
                .collect(),
        );
        Self {
            wall,
            cells,
            cell_busy,
            cell_union,
            fanout_union,
            scratch_builds,
            scratch,
            closed_form: busy(spans, "closed_form").0,
        }
    }

    fn add(&mut self, o: &SolveSpans) {
        self.wall += o.wall;
        self.cells += o.cells;
        self.cell_busy += o.cell_busy;
        self.cell_union += o.cell_union;
        self.fanout_union += o.fanout_union;
        self.scratch_builds += o.scratch_builds;
        self.scratch += o.scratch;
        self.closed_form += o.closed_form;
    }
}

/// Alternates untraced and traced solves for `seconds` (at least
/// `min_pairs` of each) and derives the solver layer metrics. A traced
/// solve whose cell-run count differs from its reported engine runs
/// counts as failed.
fn traced_run(
    workload: Workload,
    sub: &ScalarSubstrate,
    cfg: &EquilibriumConfig,
    reference: &[u64],
    checks: &mut Checks,
    seconds: f64,
    min_pairs: usize,
) -> TracedRun {
    let timed = TimedSubstrate {
        inner: sub.clone(),
        sink: Sink::default(),
        op: AtomicU64::new(0),
    };
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut total = SolveSpans::default();
    let mut ops = 0usize;
    let mut last = None;
    let start = Instant::now();
    while ops < min_pairs || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let solved = solve(sub, cfg, workload);
        untraced_s.push(t.elapsed().as_secs_f64());
        checks.record(solved.fingerprint() == reference);

        timed.op.store(next_id(), Ordering::Relaxed);
        let op_start = now_ns();
        let solved = solve(&timed, cfg, workload);
        let wall = now_ns() - op_start;
        traced_s.push(wall as f64 / 1e9);
        let spans = SolveSpans::from_spans(wall, &timed.sink.take());
        checks.record(
            solved.fingerprint() == reference && spans.cells == solved.engine_runs() as u64,
        );
        total.add(&spans);
        ops += 1;
        last = Some(solved);
    }
    let last = last.expect("at least one traced solve");
    let (matrix_ns, matrix_iters, replay_ok) = replay_matrices(&last, sub, cfg);
    checks.record(replay_ok);

    let n = ops as f64;
    let ms_per_solve = |ns: u64| ns as f64 / n / 1e6;
    let other = total
        .wall
        .saturating_sub(total.cell_union + total.closed_form);
    let (used, measured) = last.support();
    let mut metrics = vec![
        Metric::new("cells.runs_per_solve", "count", total.cells as f64 / n),
        Metric::new(
            "cells.us_per_run",
            "us",
            total.cell_busy as f64 / total.cells as f64 / 1e3,
        ),
        Metric::new(
            "cells.wall_share",
            "share",
            total.cell_union as f64 / total.wall as f64,
        ),
        Metric::new(
            "sweep.parallel_efficiency",
            "share",
            total.cell_busy as f64 / (cfg.workers as f64 * total.fanout_union as f64),
        ),
        Metric::new(
            "sweep.scratch_builds_per_solve",
            "count",
            total.scratch_builds as f64 / n,
        ),
        Metric::new(
            "sweep.scratch_ms_per_solve",
            "ms",
            ms_per_solve(total.scratch),
        ),
        Metric::new(
            "closed_form.ms_per_solve",
            "ms",
            ms_per_solve(total.closed_form),
        ),
        Metric::new("matrix.solve_ms_per_solve", "ms", matrix_ns / 1e6),
        Metric::new("matrix.iters_per_solve", "count", matrix_iters as f64),
        Metric::new("solver.other_ms_per_solve", "ms", ms_per_solve(other)),
        Metric::new("support.used_share", "share", used as f64 / measured as f64),
    ];
    if let Solved::Oracle(passes) = &last {
        let (grew, steps) = oracle_growth(&passes[..]);
        metrics.push(Metric::new(
            "oracle.grew_share",
            "share",
            grew as f64 / steps as f64,
        ));
    }
    let breakdown = format!(
        "traced solve {:.2} ms = cell union {:.2} + closed form {:.3} + other {:.2} \
         (restricted solves replayed at {:.2}); {:.1} cell runs, {:.1} scratch builds per solve",
        ms_per_solve(total.wall),
        ms_per_solve(total.cell_union),
        ms_per_solve(total.closed_form),
        ms_per_solve(other),
        matrix_ns / 1e6,
        total.cells as f64 / n,
        total.scratch_builds as f64 / n,
    );
    TracedRun {
        ops,
        untraced_s,
        traced_s,
        metrics,
        breakdown,
    }
}

/// Re-runs every matrix solve the solver made, on the same matrices at
/// the same budgets: for the dense estimate the measured and analytic
/// games; for each double-oracle pass the seed block, each grown
/// restricted game (warm-started from the previous one), the final
/// warm solve and the analytic game. Returns median nanoseconds per
/// solve, fictitious-play iterations per solve, and whether the replay
/// reproduced the solver's equilibria exactly.
fn replay_matrices(
    solved: &Solved,
    sub: &ScalarSubstrate,
    cfg: &EquilibriumConfig,
) -> (f64, u64, bool) {
    let model = sub.closed_form(cfg);
    let fp = cfg.fp_iterations;
    let mut times = Vec::with_capacity(REPLAY_REPS);
    let mut iters = 0;
    let mut ok = true;
    for _ in 0..REPLAY_REPS {
        let start = Instant::now();
        (iters, ok) = match solved {
            Solved::Dense(eq) => {
                let measured = game(eq.mean_loss.clone()).solve(fp);
                let analytic = game(eq.analytic_matrix.clone()).solve(fp);
                (
                    2 * fp as u64,
                    measured == eq.empirical && analytic == eq.analytic,
                )
            }
            Solved::Oracle(passes) => oracle_passes(cfg).iter().zip(passes.iter()).fold(
                (0, true),
                |(iters, ok), (pass, result)| {
                    let (i, same) = replay_oracle_pass(pass, result, &model, fp);
                    (iters + i, ok && same)
                },
            ),
        };
        times.push(start.elapsed().as_nanos() as f64);
    }
    (sys::median(&times), iters, ok)
}

fn game(entries: Vec<Vec<f64>>) -> MatrixGame {
    MatrixGame::new(entries).expect("solver matrices are finite")
}

fn replay_oracle_pass(
    pass: &DoubleOracleConfig,
    result: &DoubleOracleEquilibrium,
    model: &ClosedForm,
    fp: usize,
) -> (u64, bool) {
    let block = |rows: usize, cols: usize| {
        game(
            result.mean_loss[..rows]
                .iter()
                .map(|row| row[..cols].to_vec())
                .collect(),
        )
    };
    let cap = fp.max(1);
    let (mut rows, mut cols) = (
        pass.seed_defender_atoms.len(),
        pass.seed_attacker_atoms.len(),
    );
    let (mut eq, mut iters) = block(rows, cols).solve_to_gap(pass.solve_gap, cap, None);
    for step in result.steps.iter().filter(|s| s.grew) {
        match step.side {
            OracleSide::Attacker => cols += 1,
            OracleSide::Defender => rows += 1,
        }
        let (next, spent) = block(rows, cols).solve_to_gap(pass.solve_gap, cap, Some(&eq));
        eq = next;
        iters += spent;
    }
    let equilibrium = block(rows, cols).solve_warm(fp, Some(&eq));
    let analytic = game(
        result
            .defender_atoms
            .iter()
            .map(|&t| {
                result
                    .attacker_atoms
                    .iter()
                    .map(|&a| model.loss(t, a))
                    .collect()
            })
            .collect(),
    )
    .solve(fp);
    (
        (iters + 2 * fp) as u64,
        equilibrium == result.equilibrium && analytic == result.analytic,
    )
}

/// The scalar substrate behind timing adapters: `new_scratch`, `run_cell`
/// and `closed_form` each record a span. Each worker's scratch carries
/// the id of its build span, so a cell names the worker it ran on as its
/// parent.
struct TimedSubstrate {
    inner: ScalarSubstrate,
    sink: Sink,
    /// Id of the solve in progress.
    op: AtomicU64,
}

/// A worker scratch tagged with the id of the span that built it.
struct TaggedScratch {
    id: u64,
    scratch: CellScratch,
}

impl GameSubstrate for TimedSubstrate {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn new_scratch(&self) -> CellScratch {
        let start = now_ns();
        let scratch = self.inner.new_scratch();
        let id = next_id();
        self.sink.extend([Span {
            name: "sweep.scratch",
            id,
            parent: self.op.load(Ordering::Relaxed),
            start,
            end: now_ns(),
        }]);
        CellScratch::new(Box::new(TaggedScratch { id, scratch }))
    }

    fn run_cell(
        &self,
        cfg: &EquilibriumConfig,
        tth: f64,
        defender: Box<dyn ThresholdPolicy>,
        attacker: Box<dyn AttackPolicy>,
        board: Option<PublicBoard>,
        seed: u64,
        scratch: &mut CellScratch,
    ) -> CellOutcome {
        let tagged = scratch
            .arena
            .downcast_mut::<TaggedScratch>()
            .expect("timed substrate cells run on timed scratches");
        let start = now_ns();
        let outcome = self.inner.run_cell(
            cfg,
            tth,
            defender,
            attacker,
            board,
            seed,
            &mut tagged.scratch,
        );
        self.sink.extend([Span {
            name: "cells.run",
            id: next_id(),
            parent: tagged.id,
            start,
            end: now_ns(),
        }]);
        outcome
    }

    fn closed_form(&self, cfg: &EquilibriumConfig) -> ClosedForm {
        let start = now_ns();
        let model = self.inner.closed_form(cfg);
        self.sink.extend([Span {
            name: "closed_form",
            id: next_id(),
            parent: self.op.load(Ordering::Relaxed),
            start,
            end: now_ns(),
        }]);
        model
    }
}
