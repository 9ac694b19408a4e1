//! The one parsed run configuration of `expt`.
//!
//! `expt` resolves its command line and a fixed set of environment
//! fallbacks into one [`RunConfig`] before any experiment runs. Every
//! report takes that config (or the fields it needs) as an argument, so
//! the library reads no environment and one process can run the same
//! report under two configurations.
//!
//! Flags: `--smoke`, `--substrate KIND`, `--sketch[=EPS]`,
//! `--double-oracle`, `--recover` and `--json`. Environment fallbacks,
//! for knobs without a flag: `TRIMGAME_REPS`, `TRIMGAME_SCALE`,
//! `TRIMGAME_SWEEP_THREADS`, `TRIMGAME_EQ_SEEDS`,
//! `TRIMGAME_COLLECT_BUDGET`, `TRIMGAME_COLLECT_SPILL`,
//! `TRIMGAME_FAULTS`, `TRIMGAME_BENCH_WARMUP_MS` and
//! `TRIMGAME_BENCH_MEASURE_MS`. A malformed value is an error naming its
//! flag or variable, never a silent default.

use crate::empirical::{
    parse_eq_seeds, parse_sketch_epsilon, SubstrateKind, DEFAULT_SKETCH_EPSILON,
};
use crate::EXPERIMENTS;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;
use trimgame_stream::fault::FaultSpec;

/// Everything one `expt` invocation was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Experiment ids to run, in command-line order.
    pub experiments: Vec<&'static str>,
    /// Substrate of `equilibrium` and `collect` (`--substrate`).
    pub substrate: SubstrateKind,
    /// Pipeline-scale grids and runs (`--smoke`).
    pub smoke: bool,
    /// Sweep and ingest worker count, `0` = all cores
    /// (`TRIMGAME_SWEEP_THREADS`). Never affects results.
    pub workers: usize,
    /// Repetitions per experiment point (`TRIMGAME_REPS`; the paper
    /// used 100).
    pub reps: usize,
    /// Divisor on the large dataset instance counts (`TRIMGAME_SCALE`;
    /// 1 = full Table II sizes).
    pub scale: usize,
    /// Seeds per equilibrium payoff cell (`TRIMGAME_EQ_SEEDS`); `None`
    /// keeps the grid's own count.
    pub eq_seeds: Option<usize>,
    /// Rank error of the sketch-native defender (`--sketch[=EPS]`);
    /// `None` keeps exact cuts.
    pub sketch_epsilon: Option<f64>,
    /// `equilibrium` runs the double-oracle solver (`--double-oracle`).
    pub double_oracle: bool,
    /// Collect's resident bytes for cold spans per shard
    /// (`TRIMGAME_COLLECT_BUDGET`).
    pub collect_budget: Option<usize>,
    /// Directory collect spills cold spans and journals manifests under
    /// (`TRIMGAME_COLLECT_SPILL`).
    pub collect_spill: Option<PathBuf>,
    /// Seeded fault injection into collect's sharded run
    /// (`TRIMGAME_FAULTS=SEED:RATE`).
    pub faults: Option<FaultSpec>,
    /// Collect resumes from the manifests under `collect_spill`
    /// (`--recover`).
    pub recover: bool,
    /// Bench prints its JSON snapshot instead of the table (`--json`).
    pub json: bool,
    /// Bench warm-up window per case (`TRIMGAME_BENCH_WARMUP_MS`).
    pub bench_warmup: Duration,
    /// Bench measurement window per case (`TRIMGAME_BENCH_MEASURE_MS`).
    pub bench_measure: Duration,
}

impl Default for RunConfig {
    /// No experiment selected; every knob at its documented default.
    fn default() -> Self {
        Self {
            experiments: Vec::new(),
            substrate: SubstrateKind::Scalar,
            smoke: false,
            workers: 0,
            reps: 10,
            scale: 64,
            eq_seeds: None,
            sketch_epsilon: None,
            double_oracle: false,
            collect_budget: None,
            collect_spill: None,
            faults: None,
            recover: false,
            json: false,
            bench_warmup: Duration::from_millis(50),
            bench_measure: Duration::from_millis(250),
        }
    }
}

impl RunConfig {
    /// Parses `expt`'s arguments (without the program name), reading the
    /// environment fallbacks through `env`: `expt` passes a lookup into
    /// the process environment, tests pass a map.
    ///
    /// # Errors
    /// Returns a message naming the offending flag or variable for an
    /// unknown argument, a malformed value, `--recover` without
    /// `TRIMGAME_COLLECT_SPILL`, or a command line that selects no
    /// experiment.
    pub fn parse<S: AsRef<str>>(
        args: &[S],
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, String> {
        let mut run = Self::default();
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(arg) = args.next() {
            match arg {
                "--smoke" => run.smoke = true,
                "--json" => run.json = true,
                "--double-oracle" => run.double_oracle = true,
                "--recover" => run.recover = true,
                "--sketch" => run.sketch_epsilon = Some(DEFAULT_SKETCH_EPSILON),
                "--substrate" => {
                    let value = args
                        .next()
                        .ok_or("--substrate needs a value (scalar|ml|ldp)")?;
                    run.substrate = parse_substrate(value)?;
                }
                "all" => run.experiments.extend(EXPERIMENTS),
                "tables" => run
                    .experiments
                    .extend(["table1", "table2", "table3", "table4"]),
                "figures" => run
                    .experiments
                    .extend(["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]),
                "ablations" => run
                    .experiments
                    .extend(EXPERIMENTS.iter().filter(|e| e.starts_with("ablate"))),
                other => {
                    if let Some(value) = other.strip_prefix("--substrate=") {
                        run.substrate = parse_substrate(value)?;
                    } else if let Some(value) = other.strip_prefix("--sketch=") {
                        run.sketch_epsilon =
                            parse_sketch_epsilon(value).map_err(|e| format!("--sketch: {e}"))?;
                    } else if let Some(id) = EXPERIMENTS.iter().find(|e| **e == other) {
                        run.experiments.push(id);
                    } else {
                        return Err(format!("unknown experiment: {other}"));
                    }
                }
            }
        }
        if run.experiments.is_empty() {
            return Err("no experiment given".to_string());
        }

        let env: &dyn Fn(&str) -> Option<String> = &env;
        if let Some(reps) = fallback(env, "TRIMGAME_REPS", positive)? {
            run.reps = reps;
        }
        if let Some(scale) = fallback(env, "TRIMGAME_SCALE", positive)? {
            run.scale = scale;
        }
        if let Some(workers) = fallback(env, "TRIMGAME_SWEEP_THREADS", count)? {
            run.workers = workers;
        }
        run.eq_seeds = fallback(env, "TRIMGAME_EQ_SEEDS", parse_eq_seeds)?;
        run.collect_budget = fallback(env, "TRIMGAME_COLLECT_BUDGET", count)?;
        run.collect_spill = env("TRIMGAME_COLLECT_SPILL").map(PathBuf::from);
        run.faults = fallback(env, "TRIMGAME_FAULTS", faults)?;
        if let Some(warmup) = fallback(env, "TRIMGAME_BENCH_WARMUP_MS", millis)? {
            run.bench_warmup = warmup;
        }
        if let Some(measure) = fallback(env, "TRIMGAME_BENCH_MEASURE_MS", millis)? {
            run.bench_measure = measure;
        }
        if run.recover && run.collect_spill.is_none() {
            return Err(
                "--recover needs TRIMGAME_COLLECT_SPILL (the interrupted run's spill directory)"
                    .to_string(),
            );
        }
        Ok(run)
    }
}

impl fmt::Display for RunConfig {
    /// One line: the experiments, then every resolved knob.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn or<T: fmt::Display>(value: Option<T>, none: &str) -> String {
            value.map_or_else(|| none.to_string(), |v| v.to_string())
        }
        let on = |flag: bool| if flag { "on" } else { "off" };
        write!(
            f,
            "{}: substrate {}, smoke {}, workers {}, reps {}, scale {}, eq-seeds {}, sketch {}, \
             double-oracle {}, collect-budget {}, collect-spill {}, faults {}, recover {}, \
             json {}, bench {}/{} ms",
            self.experiments.join(" "),
            self.substrate.name(),
            on(self.smoke),
            or((self.workers > 0).then_some(self.workers), "auto"),
            self.reps,
            self.scale,
            or(self.eq_seeds, "grid"),
            or(self.sketch_epsilon, "off"),
            on(self.double_oracle),
            or(self.collect_budget, "none"),
            or(self.collect_spill.as_ref().map(|p| p.display()), "none"),
            or(self.faults.map(|s| format!("{}:{}", s.seed, s.rate)), "off"),
            on(self.recover),
            on(self.json),
            self.bench_warmup.as_millis(),
            self.bench_measure.as_millis(),
        )
    }
}

/// Reads `var` through `env` and parses it; the error names `var`.
fn fallback<T>(
    env: &dyn Fn(&str) -> Option<String>,
    var: &str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    env(var)
        .map(|raw| parse(&raw).map_err(|e| format!("{var}: {e}")))
        .transpose()
}

fn parse_substrate(raw: &str) -> Result<SubstrateKind, String> {
    SubstrateKind::parse(raw)
        .ok_or_else(|| format!("--substrate: unknown substrate {raw:?} (expected scalar|ml|ldp)"))
}

fn positive(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("expected a positive integer, got {raw:?}")),
    }
}

fn count(raw: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .map_err(|_| format!("expected a non-negative integer, got {raw:?}"))
}

fn faults(raw: &str) -> Result<FaultSpec, String> {
    FaultSpec::parse(raw)
        .ok_or_else(|| format!("expected SEED:RATE with RATE in [0, 1], got {raw:?}"))
}

fn millis(raw: &str) -> Result<Duration, String> {
    raw.parse::<u64>()
        .map(Duration::from_millis)
        .map_err(|_| format!("expected milliseconds as a non-negative integer, got {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `(variable, value)` pairs standing in for the process environment.
    type Env<'a> = &'a [(&'a str, &'a str)];

    fn parse(args: &str, env: Env) -> Result<RunConfig, String> {
        let env: HashMap<&str, &str> = env.iter().copied().collect();
        let args: Vec<&str> = args.split_whitespace().collect();
        RunConfig::parse(&args, |k| env.get(k).map(|v| (*v).to_string()))
    }

    #[test]
    fn every_flag_and_fallback_resolves_to_its_field() {
        type Edit = fn(&mut RunConfig);
        let rows: [(&str, Env, Edit); 24] = [
            ("collect", &[], |_| {}),
            ("collect --smoke", &[], |r| r.smoke = true),
            ("collect --json", &[], |r| r.json = true),
            ("collect --double-oracle", &[], |r| r.double_oracle = true),
            ("collect --substrate ml", &[], |r| {
                r.substrate = SubstrateKind::Ml
            }),
            ("collect --substrate=ldp", &[], |r| {
                r.substrate = SubstrateKind::Ldp;
            }),
            ("collect --sketch", &[], |r| r.sketch_epsilon = Some(0.02)),
            ("collect --sketch=0.05", &[], |r| {
                r.sketch_epsilon = Some(0.05)
            }),
            ("collect --sketch=0", &[], |_| {}),
            (
                "collect --recover",
                &[("TRIMGAME_COLLECT_SPILL", "d")],
                |r| {
                    r.recover = true;
                    r.collect_spill = Some(PathBuf::from("d"));
                },
            ),
            ("collect", &[("TRIMGAME_REPS", "100")], |r| r.reps = 100),
            ("collect", &[("TRIMGAME_SCALE", "1")], |r| r.scale = 1),
            ("collect", &[("TRIMGAME_SWEEP_THREADS", "2")], |r| {
                r.workers = 2
            }),
            ("collect", &[("TRIMGAME_SWEEP_THREADS", "0")], |r| {
                r.workers = 0
            }),
            ("collect", &[("TRIMGAME_EQ_SEEDS", "64")], |r| {
                r.eq_seeds = Some(64)
            }),
            ("collect", &[("TRIMGAME_COLLECT_BUDGET", "0")], |r| {
                r.collect_budget = Some(0);
            }),
            ("collect", &[("TRIMGAME_COLLECT_SPILL", "s")], |r| {
                r.collect_spill = Some(PathBuf::from("s"));
            }),
            ("collect", &[("TRIMGAME_FAULTS", "601:0.25")], |r| {
                r.faults = Some(FaultSpec {
                    seed: 601,
                    rate: 0.25,
                });
            }),
            ("collect", &[("TRIMGAME_BENCH_WARMUP_MS", "5")], |r| {
                r.bench_warmup = Duration::from_millis(5);
            }),
            ("collect", &[("TRIMGAME_BENCH_MEASURE_MS", "25")], |r| {
                r.bench_measure = Duration::from_millis(25);
            }),
            ("table1 table4 table1", &[], |r| {
                r.experiments = vec!["table1", "table4", "table1"];
            }),
            ("tables", &[], |r| {
                r.experiments = vec!["table1", "table2", "table3", "table4"];
            }),
            ("ablations", &[], |r| {
                r.experiments = EXPERIMENTS
                    .into_iter()
                    .filter(|e| e.starts_with("ablate"))
                    .collect();
            }),
            ("all", &[], |r| r.experiments = EXPERIMENTS.to_vec()),
        ];
        for (args, env, edit) in rows {
            let mut want = RunConfig {
                experiments: vec!["collect"],
                ..RunConfig::default()
            };
            edit(&mut want);
            assert_eq!(parse(args, env), Ok(want), "{args} {env:?}");
        }
    }

    #[test]
    fn malformed_input_is_an_error_naming_its_source() {
        let rows: [(&str, Env, &str); 18] = [
            (
                "sweep",
                &[("TRIMGAME_SWEEP_THREADS", "two")],
                "TRIMGAME_SWEEP_THREADS",
            ),
            ("table3", &[("TRIMGAME_REPS", "ten")], "TRIMGAME_REPS"),
            ("table3", &[("TRIMGAME_REPS", "0")], "TRIMGAME_REPS"),
            ("table2", &[("TRIMGAME_SCALE", "-4")], "TRIMGAME_SCALE"),
            ("table2", &[("TRIMGAME_SCALE", "0")], "TRIMGAME_SCALE"),
            (
                "collect",
                &[("TRIMGAME_COLLECT_BUDGET", "1k")],
                "TRIMGAME_COLLECT_BUDGET",
            ),
            ("collect", &[("TRIMGAME_FAULTS", "601")], "TRIMGAME_FAULTS"),
            (
                "collect",
                &[("TRIMGAME_FAULTS", "601:2")],
                "TRIMGAME_FAULTS",
            ),
            (
                "bench",
                &[("TRIMGAME_BENCH_WARMUP_MS", "5ms")],
                "TRIMGAME_BENCH_WARMUP_MS",
            ),
            (
                "bench",
                &[("TRIMGAME_BENCH_MEASURE_MS", "")],
                "TRIMGAME_BENCH_MEASURE_MS",
            ),
            (
                "equilibrium",
                &[("TRIMGAME_EQ_SEEDS", "1")],
                "TRIMGAME_EQ_SEEDS",
            ),
            ("collect --recover", &[], "TRIMGAME_COLLECT_SPILL"),
            ("equilibrium --sketch=abc", &[], "--sketch"),
            ("equilibrium --substrate quantum", &[], "--substrate"),
            ("equilibrium --substrate", &[], "--substrate"),
            ("fig99", &[], "fig99"),
            ("--smoke", &[], "no experiment"),
            ("", &[], "no experiment"),
        ];
        for (args, env, source) in rows {
            let err = parse(args, env).expect_err(args);
            assert!(err.contains(source), "{args} {env:?}: {err}");
        }
    }

    #[test]
    fn removed_env_names_have_no_effect() {
        let plain = parse("equilibrium collect bench", &[]);
        for removed in [
            ("TRIMGAME_EQ_ORACLE", "1"),
            ("TRIMGAME_EQ_SUBSTRATE", "ml"),
            ("TRIMGAME_EQ_SKETCH", "0.05"),
            ("TRIMGAME_EQ_SMOKE", "1"),
            ("TRIMGAME_COLLECT_RECOVER", "1"),
            ("TRIMGAME_BENCH_JSON", "1"),
        ] {
            assert_eq!(
                parse("equilibrium collect bench", &[removed]),
                plain,
                "{removed:?}"
            );
        }
    }

    #[test]
    fn display_states_every_resolved_knob() {
        let run = parse(
            "collect --smoke --substrate ml",
            &[
                ("TRIMGAME_SWEEP_THREADS", "2"),
                ("TRIMGAME_FAULTS", "601:0.25"),
                ("TRIMGAME_COLLECT_BUDGET", "1024"),
            ],
        )
        .expect("well-formed");
        assert_eq!(
            run.to_string(),
            "collect: substrate ml, smoke on, workers 2, reps 10, scale 64, eq-seeds grid, \
             sketch off, double-oracle off, collect-budget 1024, collect-spill none, \
             faults 601:0.25, recover off, json off, bench 50/250 ms"
        );
    }
}
