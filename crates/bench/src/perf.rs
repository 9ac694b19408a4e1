//! In-process perf snapshots (`expt bench`): wall-clock means for the
//! per-round hot paths and per-layer cases (trim, the retained-data
//! summary, the ingest channel, GK ingest, frames, matrix solves, engine
//! runs and smoke-scale equilibrium estimates), as a table or — with
//! `--json` — a machine-readable snapshot (`case → mean ns`) on stdout,
//! so the perf trajectory is diffable across PRs (`expt benchdiff`
//! compares two snapshots under a regression tolerance). End-to-end
//! collector and full-grid solver throughput is measured by the
//! stand-alone `trimbench` package, whose bounds are sized to noise.
//!
//! Each case runs a warm-up window, then calibrated batches until the
//! measurement window is spent, and reports the mean per iteration. Both
//! windows come from [`RunConfig`] (`bench_warmup` / `bench_measure`);
//! numbers are indicative, meant for tracking order-of-magnitude movement
//! between commits on the same machine.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trimgame_stream::trim::{SketchThreshold, TrimScratch};

use crate::config::RunConfig;
use crate::double_oracle::{double_oracle, DoubleOracleConfig};
use crate::empirical::{
    estimate_on, standard_substrate, EquilibriumConfig, GameSubstrate, ScalarSubstrate,
    SubstrateKind,
};
use trim_core::adversary::AdversaryPolicy;
use trim_core::engine::EngineScratch;
use trim_core::matrix::MatrixGame;
use trim_core::simulation::{run_game_with_scratch, GameConfig, ScalarArena, Scheme};
use trim_core::strategy::DefenderPolicy;
use trimgame_numerics::gk::{GkScratch, GkSummary};
use trimgame_numerics::stats::OnlineStats;

/// One measured case.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// `group/name/size` identifier, stable across PRs.
    pub name: String,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
}

fn time_ns(warmup: Duration, measure: Duration, mut routine: impl FnMut()) -> f64 {
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < warmup {
        routine();
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
    let batch =
        ((measure.as_secs_f64() / 10.0 / per_iter.max(1e-9)).ceil() as u64).clamp(1, 1 << 20);
    let mut total = Duration::ZERO;
    let mut iterations: u64 = 0;
    while total < measure {
        let start = Instant::now();
        for _ in 0..batch {
            routine();
        }
        total += start.elapsed();
        iterations += batch;
    }
    total.as_secs_f64() * 1e9 / iterations as f64
}

fn batch_values(n: usize) -> Vec<f64> {
    use rand::Rng;
    let mut rng = trimgame_numerics::rand_ext::seeded_rng(7);
    (0..n).map(|_| rng.gen::<f64>() * 1000.0).collect()
}

/// Runs the trim hot-path suite with explicit measurement windows.
#[must_use]
pub fn run_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let mut push = |name: String, mean_ns: f64| cases.push(BenchCase { name, mean_ns });
    for n in [1_000usize, 10_000, 100_000] {
        let values = batch_values(n);
        let mut scratch = TrimScratch::with_capacity(n);

        push(
            format!("trim/absolute_in_place/{n}"),
            time_ns(warmup, measure, || {
                std::hint::black_box(scratch.cut(&values, 900.0));
            }),
        );

        let mut source = SketchThreshold::new(0.02);
        source.observe(&values);
        push(
            format!("trim/sketch_query_only/{n}"),
            time_ns(warmup, measure, || {
                let cut = source.cut(0.9).expect("observed");
                std::hint::black_box(scratch.cut(&values, cut));
            }),
        );
    }
    // The retained-data summary every round posts to the public board,
    // at the kept-batch sizes of a collector round (17 values) and of an
    // equilibrium cell round (1100 values).
    for n in [17usize, 1_100] {
        let values = batch_values(n);
        push(
            format!("stats/extend/{n}"),
            time_ns(warmup, measure, || {
                let mut acc = OnlineStats::new();
                acc.extend(std::hint::black_box(&values));
                std::hint::black_box(acc);
            }),
        );
    }
    cases.extend(channel_cases(warmup, measure));
    cases.extend(gk_cases(warmup, measure));
    cases.extend(frame_cases(warmup, measure));
    cases.extend(matrix_cases(warmup, measure));
    cases.extend(engine_cases(warmup, measure));
    cases
}

/// The ingest channel's hand-off, single-threaded so neither side ever
/// blocks: fill a 1024-record channel to capacity, then drain it with one
/// `try_recv_batch`, as a collector worker does. One iteration moves 1024
/// collector-shaped items (a record and its send stamp), once with a
/// `send` per item and once with a single `send_batch`.
fn channel_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    use trimgame_stream::channel::bounded;
    use trimgame_stream::coalesce::IngestRecord;

    const CAP: usize = 1024;
    let sent = Instant::now();
    let items: Vec<(IngestRecord, Instant)> = batch_values(CAP)
        .into_iter()
        .enumerate()
        .map(|(round, value)| (IngestRecord { round, value }, sent))
        .collect();
    let (tx, rx) = bounded::<(IngestRecord, Instant)>(CAP);
    let mut out = Vec::with_capacity(CAP);
    let send_then_drain = time_ns(warmup, measure, || {
        for &item in &items {
            tx.send(item).expect("receiver alive");
        }
        out.clear();
        std::hint::black_box(rx.try_recv_batch(&mut out, CAP));
    });
    // The drained vector is the next iteration's batch: no copy-in.
    let mut batch = items;
    let send_batch_then_drain = time_ns(warmup, measure, || {
        tx.send_batch(&mut batch).expect("receiver alive");
        std::hint::black_box(rx.try_recv_batch(&mut batch, CAP));
    });
    vec![
        BenchCase {
            name: format!("channel/send_then_drain/{CAP}"),
            mean_ns: send_then_drain,
        },
        BenchCase {
            name: format!("channel/send_batch_then_drain/{CAP}"),
            mean_ns: send_batch_then_drain,
        },
    ]
}

/// The tiered-storage cases: the frame encode/decode kernels on a
/// span-256 column set, the hot-suffix board read with every cold span
/// compacted (the per-round attacker read — it must not pay for
/// tiering), and the full cold scan through the inflate path.
fn frame_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    use trimgame_stream::board::{RangedBoard, RoundRecord};
    use trimgame_stream::compact::{Compactor, TierConfig};
    use trimgame_stream::frame::Frame;

    let values = batch_values(512);
    let record = |round: usize| {
        let mut retained = OnlineStats::new();
        retained.extend(&values[round % 256..round % 256 + 200]);
        RoundRecord {
            round,
            threshold_percentile: 0.9,
            threshold_value: Some(values[round % 512]),
            received: 256,
            trimmed: 25 + round % 7,
            retained,
            quality: 1.0 - values[(round * 31) % 512] * 1e-5,
        }
    };
    let recs: Vec<RoundRecord> = (1..=256).map(record).collect();
    let frame = Frame::encode(&recs);
    let mut cases = vec![
        BenchCase {
            name: "frame/encode/256".into(),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(Frame::encode(&recs).packed_bytes());
            }),
        },
        BenchCase {
            name: "frame/decode/256".into(),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(frame.decode().len());
            }),
        },
    ];

    // The durable wire format: serialization (delta header + checksum
    // trailer) and the checksum-verifying parse — what every spill write
    // and every recovery-time frame verification pays.
    let wire = frame.to_bytes();
    cases.push(BenchCase {
        name: "frame/wire_encode/256".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(frame.to_bytes().len());
        }),
    });
    cases.push(BenchCase {
        name: "frame/wire_decode/256".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(Frame::from_bytes(&wire).expect("valid wire frame").len());
        }),
    });

    // Manifest journal replay: parse a 64-span spill manifest — the
    // fixed cost `recover_from_spill` pays per shard before any frame
    // verification.
    {
        use trimgame_stream::recover::{read_manifest, ManifestWriter, SpanManifest};
        let dir =
            std::env::temp_dir().join(format!("trimgame-perf-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("perf manifest dir");
        let mut writer = ManifestWriter::create(&dir, "perf", 0, 1, 64).expect("manifest writer");
        for idx in 0..64_u64 {
            writer
                .log_spilled(&SpanManifest {
                    span_idx: idx,
                    base_round: idx * 64 + 1,
                    last_round: (idx + 1) * 64,
                    len: 64,
                    frame_crc: 0xDEAD_BEEF ^ idx as u32,
                    file_name: format!("perf-{idx:05}.tgf"),
                })
                .expect("log spilled span");
        }
        drop(writer);
        let path = dir.join("perf.manifest");
        cases.push(BenchCase {
            name: "recover/manifest_read/64".into(),
            mean_ns: time_ns(warmup, measure, || {
                let mf = read_manifest(&path).expect("readable manifest");
                std::hint::black_box(mf.entries.len());
            }),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A 4096-round board at span 64 with every cold span framed: the
    // hot-suffix read (last span only) against the full cold scan.
    let board = RangedBoard::new(64);
    for round in 1..=4096 {
        board.post(record(round));
    }
    Compactor::new(TierConfig::default(), "perf").run(&board);
    let suffix_from = 4096 - 63;
    cases.push(BenchCase {
        name: "board/hot_suffix_read_tiered/4096".into(),
        mean_ns: time_ns(warmup, measure, || {
            let mut n = 0usize;
            board.for_each_since_round(suffix_from, |r| n += r.trimmed);
            std::hint::black_box(n);
        }),
    });
    cases.push(BenchCase {
        name: "board/cold_scan_tiered/4096".into(),
        mean_ns: time_ns(warmup, measure, || {
            let mut n = 0usize;
            board.for_each_since_round(0, |r| n += r.trimmed);
            std::hint::black_box(n);
        }),
    });
    cases
}

/// The fictitious-play warm-start family (satellite of the double-oracle
/// PR): solving a grown matrix to the same certified gap cold versus
/// warm-started from the parent game's equilibrium. Wall-clock for both,
/// plus the deterministic iterations-to-bound counts as pseudo-cases
/// (`*_iters`, recorded in the `mean_ns` slot like the `*_runs` family)
/// — that count is what the oracle loop pays on every support growth,
/// and it diffs exactly across PRs. Beside them, one fixed-budget `solve`
/// of the dense pass's analytic game: gap-checked solves stop every 64
/// rounds, a full-budget solve runs its best-response stretches whole.
fn matrix_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    // The oracle's own growth shape: the scalar substrate's closed-form
    // trimming losses on a threshold × response grid, grown by one
    // defender atom and one attacker atom. The parent equilibrium — taken
    // to the same certified gap, exactly what the oracle loop holds when
    // it re-solves after an accepted candidate — is the warm prior.
    let pool = crate::empirical::standard_pool();
    let sub = ScalarSubstrate::new(&pool);
    let cfg = EquilibriumConfig::default_grid();
    let model = sub.closed_form(&cfg);
    let n = 12usize;
    let atom = |i: usize| 0.84 + 0.16 * i as f64 / (n - 1) as f64;
    let loss_grid = |rows: usize, cols: usize| -> Vec<Vec<f64>> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| model.loss(atom(r), atom(c) - 0.02))
                    .collect()
            })
            .collect()
    };
    let gap = 1e-3;
    let parent = MatrixGame::new(loss_grid(n - 1, n - 1)).expect("valid parent game");
    let grown = MatrixGame::new(loss_grid(n, n)).expect("valid grown game");
    let (prior, _) = parent.solve_to_gap(gap, 10_000_000, None);
    let (_, cold_iters) = grown.solve_to_gap(gap, 10_000_000, None);
    let (_, warm_iters) = grown.solve_to_gap(gap, 10_000_000, Some(&prior));
    // The 5×5 closed-form loss grid the dense estimate cross-checks
    // against, solved at the grid's full budget.
    let responses = cfg.attacker_atoms();
    let dense = MatrixGame::new(
        cfg.defender_atoms
            .iter()
            .map(|&t| responses.iter().map(|&a| model.loss(t, a)).collect())
            .collect(),
    )
    .expect("valid analytic game");
    vec![
        BenchCase {
            name: format!("matrix/solve/{}", dense.rows()),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(dense.solve(cfg.fp_iterations).value);
            }),
        },
        BenchCase {
            name: format!("matrix/solve_to_gap_cold/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(grown.solve_to_gap(gap, 10_000_000, None).1);
            }),
        },
        BenchCase {
            name: format!("matrix/solve_to_gap_warm/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(grown.solve_to_gap(gap, 10_000_000, Some(&prior)).1);
            }),
        },
        BenchCase {
            name: format!("matrix/solve_to_gap_cold_iters/{n}"),
            mean_ns: cold_iters as f64,
        },
        BenchCase {
            name: format!("matrix/solve_to_gap_warm_iters/{n}"),
            mean_ns: warm_iters as f64,
        },
    ]
}

/// The GK ingest pair — the sequential per-value baseline against the
/// batched merge-sweep / histogram first-fill path — measured in the same
/// run so their ratio is the headline sketch-ingest speedup.
fn gk_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let mut scratch = GkScratch::new();
    for n in [10_000usize, 100_000] {
        let values = batch_values(n);
        cases.push(BenchCase {
            name: format!("gk/ingest_sequential/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                let mut summary = GkSummary::new(0.02);
                for &v in &values {
                    summary.insert(v);
                }
                std::hint::black_box(summary.query(0.9));
            }),
        });
        cases.push(BenchCase {
            name: format!("gk/ingest_batch/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                let mut summary = GkSummary::new(0.02);
                summary.insert_batch(&values, &mut scratch);
                std::hint::black_box(summary.query(0.9));
            }),
        });
        // The warm path: the same batch arriving at an already-populated
        // summary, sorted and merge-swept into the existing tuples. The
        // primed summary is cloned per iteration (a few hundred tuples —
        // noise next to the batch).
        let mut primed = GkSummary::new(0.02);
        primed.insert_batch(&values, &mut scratch);
        cases.push(BenchCase {
            name: format!("gk/ingest_batch_warm/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                let mut summary = primed.clone();
                summary.insert_batch(&values, &mut scratch);
                std::hint::black_box(summary.query(0.9));
            }),
        });
    }
    cases
}

/// One seeded scalar engine run in the payoff-grid cell shape (lean
/// mode, fixed defender at 0.9, ideal attacker just below) on `arena`
/// and `scratch`.
fn engine_cell(arena: &mut ScalarArena, scratch: &mut EngineScratch) -> f64 {
    let mut cfg = GameConfig::new(Scheme::BaselineStatic);
    cfg.rounds = 20;
    cfg.batch = 1_000;
    cfg.seed = 7;
    let run = run_game_with_scratch(
        &cfg,
        Box::new(DefenderPolicy::Fixed { tth: cfg.tth }),
        Box::new(AdversaryPolicy::Fixed { percentile: 0.89 }),
        None,
        arena,
        scratch,
    );
    run.final_u_c
}

/// The end-to-end cases the equilibrium estimator's wall-clock rides on:
/// a single engine run (one payoff cell) and the whole smoke-grid
/// estimation pipeline.
fn engine_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let pool = crate::empirical::standard_pool();

    // A cold run: a fresh arena (pool copy + sort) and scratch each
    // iteration — what a one-off run pays.
    cases.push(BenchCase {
        name: "engine/scalar_run/1000x20".into(),
        mean_ns: time_ns(warmup, measure, || {
            let (mut arena, mut scratch) = (ScalarArena::new(&pool), EngineScratch::new());
            std::hint::black_box(engine_cell(&mut arena, &mut scratch));
        }),
    });

    // The same run on one arena + one engine scratch across every
    // iteration — what a payoff-grid worker pays.
    let (mut arena, mut scratch) = (ScalarArena::new(&pool), EngineScratch::new());
    cases.push(BenchCase {
        name: "engine/scalar_run_scratch/1000x20".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(engine_cell(&mut arena, &mut scratch));
        }),
    });

    let sub = ScalarSubstrate::new(&pool);
    let mut cfg = EquilibriumConfig::smoke();
    cfg.workers = 1; // measure the single-core pipeline, not fan-out noise
    cases.push(BenchCase {
        name: "equilibrium/estimate/scalar_smoke".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(estimate_on(&sub, &cfg).empirical.value);
        }),
    });

    // The double-oracle pipeline at the same smoke scale: seed support,
    // continuum best responses, warm-started restricted solves.
    let oracle = DoubleOracleConfig::for_game(&cfg);
    cases.push(BenchCase {
        name: "equilibrium/double_oracle/scalar_smoke".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(double_oracle(&sub, &cfg, &oracle).equilibrium.value);
        }),
    });

    // The sketch-native substrate cells: one smoke estimate per
    // substrate with the defender's cuts resolved from the GK sketch.
    for kind in [SubstrateKind::Ml, SubstrateKind::Ldp] {
        let sub = standard_substrate(kind);
        let mut cfg = EquilibriumConfig::smoke_for(kind);
        cfg.seeds = 2;
        cfg.rounds = 3;
        cfg.batch = if kind == SubstrateKind::Ml { 100 } else { 300 };
        cfg.sketch_epsilon = Some(0.02);
        cfg.workers = 1;
        let label = if kind == SubstrateKind::Ml {
            "ml"
        } else {
            "ldp"
        };
        cases.push(BenchCase {
            name: format!("equilibrium/estimate/{label}_sketch_smoke"),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(estimate_on(&*sub, &cfg).empirical.value);
            }),
        });
    }
    cases
}

/// Serializes cases as a flat JSON object (`{"case": mean_ns, ...}`),
/// keys in run order, values rounded to one decimal.
#[must_use]
pub fn to_json(cases: &[BenchCase]) -> String {
    let mut out = String::from("{\n");
    for (i, case) in cases.iter().enumerate() {
        let _ = write!(out, "  \"{}\": {:.1}", case.name, case.mean_ns);
        out.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Parses a flat `{"case": mean_ns, ...}` snapshot written by
/// [`to_json`].
fn parse_snapshot(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut cases = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed snapshot line: {line}"))?;
        let name = name.trim().trim_matches('"');
        let value = value.trim();
        let mean_ns: f64 = value
            .parse()
            .map_err(|e| format!("bad mean for {name}: {e}"))?;
        if !(mean_ns.is_finite() && mean_ns > 0.0) {
            return Err(format!(
                "bad mean for {name}: {value} is not a finite positive number"
            ));
        }
        cases.push((name.to_string(), mean_ns));
    }
    if cases.is_empty() {
        return Err("snapshot holds no cases".into());
    }
    Ok(cases)
}

/// Why [`bench_diff`] did not pass: `expt benchdiff` exits 1 on a
/// regression and 2 on input that cannot gate anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// A shared case regressed past the tolerance; holds the rendered
    /// report.
    Regressed(String),
    /// The tolerance is not a finite number of at least 1, a snapshot is
    /// malformed, or the snapshots share no case; holds the message.
    Invalid(String),
}

/// Compares the `current` snapshot against `baseline` under a regression
/// `tolerance` (a current mean more than `tolerance ×` its baseline is a
/// regression). Only cases present in both snapshots are compared, so
/// snapshots may add and drop cases across PRs, but at least one case
/// must be shared. Returns the rendered table when every shared case is
/// within tolerance — the CI gate on committed snapshots.
///
/// # Errors
/// [`DiffError::Regressed`] with the report when a shared case regressed;
/// [`DiffError::Invalid`] when the tolerance is not a finite number of at
/// least 1, when either snapshot is malformed (every mean must be a
/// finite positive number) or when the snapshots share no case.
pub fn bench_diff(baseline: &str, current: &str, tolerance: f64) -> Result<String, DiffError> {
    if !(tolerance.is_finite() && tolerance >= 1.0) {
        return Err(DiffError::Invalid(format!(
            "tolerance must be a finite number of at least 1, got {tolerance}"
        )));
    }
    let base =
        parse_snapshot(baseline).map_err(|e| DiffError::Invalid(format!("baseline: {e}")))?;
    let cur = parse_snapshot(current).map_err(|e| DiffError::Invalid(format!("current: {e}")))?;
    let mut out = String::new();
    let mut regressed = 0usize;
    let mut compared = 0usize;
    let _ = writeln!(
        out,
        "{:<36} {:>12} {:>12} {:>8}  status",
        "case", "baseline ns", "current ns", "ratio"
    );
    for (name, base_ns) in &base {
        let Some((_, cur_ns)) = cur.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(
                out,
                "{name:<36} {base_ns:>12.1} {:>12} {:>8}  dropped",
                "-", "-"
            );
            continue;
        };
        compared += 1;
        let ratio = cur_ns / base_ns;
        let status = if ratio > tolerance {
            regressed += 1;
            "REGRESSED"
        } else if ratio < 1.0 {
            "improved"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{name:<36} {base_ns:>12.1} {cur_ns:>12.1} {ratio:>7.2}x  {status}"
        );
    }
    let _ = writeln!(
        out,
        "{compared} cases compared at tolerance {tolerance:.1}x; {regressed} regressed"
    );
    if compared == 0 {
        Err(DiffError::Invalid("the snapshots share no case".into()))
    } else if regressed > 0 {
        Err(DiffError::Regressed(out))
    } else {
        Ok(out)
    }
}

/// The `expt bench` experiment: measure the suite over `run`'s bench
/// windows and render a table — or, with `run.json` (the CLI's
/// `--json`), the JSON snapshot alone, for `expt bench --json >
/// snapshot.json`.
#[must_use]
pub fn bench_report(run: &RunConfig) -> String {
    let (warmup, measure) = (run.bench_warmup, run.bench_measure);
    let cases = run_cases(warmup, measure);
    if run.json {
        return to_json(&cases);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Hot-path perf snapshot ({} cases, warmup {} ms, measure {} ms, kernel {}) ==",
        cases.len(),
        warmup.as_millis(),
        measure.as_millis(),
        trimgame_numerics::simd::active_kernel()
    );
    for case in &cases {
        let _ = writeln!(out, "{:<32} {:>12.1} ns/iter", case.name, case.mean_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_with_tiny_windows_and_serializes() {
        let cases = run_cases(Duration::from_millis(1), Duration::from_millis(2));
        assert_eq!(cases.len(), 34);
        for case in &cases {
            assert!(case.mean_ns > 0.0, "{}: {}", case.name, case.mean_ns);
        }
        let json = to_json(&cases);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches(':').count(), cases.len());
        assert!(json.contains("\"trim/absolute_in_place/1000\""));
        assert!(json.contains("\"stats/extend/17\""));
        assert!(json.contains("\"stats/extend/1100\""));
        assert!(json.contains("\"channel/send_then_drain/1024\""));
        assert!(json.contains("\"channel/send_batch_then_drain/1024\""));
        assert!(json.contains("\"gk/ingest_batch/100000\""));
        assert!(json.contains("\"frame/encode/256\""));
        assert!(json.contains("\"frame/decode/256\""));
        assert!(json.contains("\"frame/wire_encode/256\""));
        assert!(json.contains("\"frame/wire_decode/256\""));
        assert!(json.contains("\"recover/manifest_read/64\""));
        assert!(json.contains("\"board/hot_suffix_read_tiered/4096\""));
        assert!(json.contains("\"board/cold_scan_tiered/4096\""));
        assert!(json.contains("\"gk/ingest_batch_warm/10000\""));
        assert!(json.contains("\"matrix/solve_to_gap_warm/12\""));
        assert!(json.contains("\"matrix/solve/5\""));
        assert!(json.contains("\"equilibrium/estimate/ml_sketch_smoke\""));
        assert!(json.contains("\"equilibrium/double_oracle/scalar_smoke\""));
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn bench_diff_gates_on_tolerance() {
        let baseline = "{\n  \"a/x\": 100.0,\n  \"a/y\": 200.0,\n  \"gone\": 50.0\n}\n";
        // y regressed 2.5x, x improved; `extra` is new and ignored.
        let current = "{\n  \"a/x\": 80.0,\n  \"a/y\": 500.0,\n  \"extra\": 1.0\n}\n";
        let Err(DiffError::Regressed(err)) = bench_diff(baseline, current, 2.0) else {
            panic!("y regressed past 2x");
        };
        assert!(err.contains("REGRESSED"));
        assert!(err.contains("1 regressed"));
        // A generous tolerance accepts the same pair.
        let ok = bench_diff(baseline, current, 3.0).expect("within 3x");
        assert!(ok.contains("improved"));
        assert!(ok.contains("0 regressed"));
        assert!(ok.contains("dropped"));

        // Input that cannot gate is an `Invalid` error, never a panic, a
        // regression or a pass.
        let invalid = |base: &str, cur: &str, tolerance: f64| {
            let result = bench_diff(base, cur, tolerance);
            let Err(DiffError::Invalid(msg)) = result else {
                panic!("{base:?} vs {cur:?} at {tolerance}: {result:?}");
            };
            msg
        };
        for tolerance in [0.5, 0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(invalid(baseline, current, tolerance).contains("tolerance"));
        }
        for bad in ["abc", "NaN", "inf", "-5", "0"] {
            let snapshot = format!("{{\n  \"a/x\": 100.0,\n  \"a/y\": {bad}\n}}\n");
            assert!(invalid(&snapshot, current, 3.0).starts_with("baseline: bad mean for a/y"));
            assert!(invalid(baseline, &snapshot, 3.0).starts_with("current: bad mean for a/y"));
        }
        assert!(invalid("{}", current, 3.0).contains("malformed snapshot line"));
        assert!(invalid("{\n}\n", current, 3.0).contains("no cases"));
        let disjoint = "{\n  \"b/z\": 100.0\n}\n";
        assert_eq!(
            invalid(baseline, disjoint, 3.0),
            "the snapshots share no case"
        );
    }
}
