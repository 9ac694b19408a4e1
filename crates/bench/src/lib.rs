//! Experiment harness regenerating every table and figure in the paper's
//! evaluation (Section VI), plus the ablations called out in `DESIGN.md`.
//!
//! Each experiment is a pure function returning a formatted report, so the
//! CLI (`src/bin/expt.rs`), the criterion benches and the tests all share
//! one implementation. Its knobs arrive as one [`config::RunConfig`],
//! which `expt` parses once from its flags and environment fallbacks;
//! [`run_experiment`] hands each report the config or the fields it
//! reads (repetitions per point, dataset scale divisor, worker count,
//! substrate, …). No code in this crate reads the environment.

pub mod ablations;
pub mod collector;
pub mod config;
pub mod double_oracle;
pub mod empirical;
pub mod experiments;
pub mod perf;
pub mod sweep;

/// All experiment ids accepted by the `expt` binary, in paper order.
pub const EXPERIMENTS: [&str; 19] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table3",
    "table4",
    "fig9",
    "ablate-k",
    "ablate-red",
    "ablate-discount",
    "ablate-mechanism",
    "ablate-sketch",
    "sweep",
    "equilibrium",
    "collect",
    "bench",
];

/// Runs one experiment by id under `run`, returning its report.
///
/// # Panics
/// Panics on an unknown id (the CLI validates first).
#[must_use]
pub fn run_experiment(id: &str, run: &config::RunConfig) -> String {
    match id {
        "table1" => experiments::table1(),
        "table2" => experiments::table2(run.scale),
        "fig4" => experiments::fig45(0.90, run),
        "fig5" => experiments::fig45(0.97, run),
        "fig6" => experiments::fig6(run.scale),
        "fig7" => experiments::fig7(run),
        "fig8" => experiments::fig8(run),
        "table3" => experiments::table3(run),
        "table4" => experiments::table4(),
        "fig9" => experiments::fig9(run),
        "ablate-k" => ablations::ablate_k(),
        "ablate-red" => ablations::ablate_red(run),
        "ablate-discount" => ablations::ablate_discount(),
        "ablate-mechanism" => ablations::ablate_mechanism(run),
        "ablate-sketch" => ablations::ablate_sketch(),
        "sweep" => sweep::sweep_report(run.workers),
        "equilibrium" => empirical::equilibrium_report(run),
        "collect" => collector::collect_report(run),
        "bench" => perf::bench_report(run),
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_experiments_produce_reports() {
        for id in ["table1", "table2", "table4", "ablate-discount", "ablate-k"] {
            let report = run_experiment(id, &config::RunConfig::default());
            assert!(!report.is_empty(), "{id} produced an empty report");
        }
    }

    #[test]
    fn reports_take_their_config_not_the_environment() {
        // Two configurations of one report in one process, interleaved:
        // each output equals the same configuration run on its own.
        // Collect's wall-clock lines (throughput, latency, backpressure)
        // vary run to run and are dropped before comparing.
        use config::RunConfig;
        use empirical::SubstrateKind;
        fn deterministic(report: &str) -> String {
            report
                .lines()
                .filter(|line| {
                    !["rounds/s", "single-stream:", "latency:", "backpressure"]
                        .iter()
                        .any(|w| line.contains(w))
                })
                .collect::<Vec<_>>()
                .join("\n")
        }
        let smoke = RunConfig {
            smoke: true,
            workers: 2,
            ..RunConfig::default()
        };
        let collect = |substrate| {
            deterministic(&collector::collect_report(&RunConfig {
                substrate,
                ..smoke.clone()
            }))
        };
        let equilibrium = |seeds| {
            empirical::equilibrium_report(&RunConfig {
                eq_seeds: Some(seeds),
                ..smoke.clone()
            })
        };
        let scalar = collect(SubstrateKind::Scalar);
        let two_seeds = equilibrium(2);
        let ml = collect(SubstrateKind::Ml);
        let three_seeds = equilibrium(3);
        assert!(scalar.contains("substrate scalar") && ml.contains("substrate ml"));
        assert!(two_seeds.contains("2 seeds/cell") && three_seeds.contains("3 seeds/cell"));
        assert_eq!(collect(SubstrateKind::Ml), ml);
        assert_eq!(collect(SubstrateKind::Scalar), scalar);
        assert_eq!(equilibrium(3), three_seeds);
        assert_eq!(equilibrium(2), two_seeds);
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = run_experiment("fig99", &config::RunConfig::default());
    }

    #[test]
    fn id_list_is_consistent() {
        assert_eq!(EXPERIMENTS.len(), 19);
        assert!(EXPERIMENTS.contains(&"fig9"));
        assert!(EXPERIMENTS.contains(&"sweep"));
        assert!(EXPERIMENTS.contains(&"equilibrium"));
        assert!(EXPERIMENTS.contains(&"collect"));
        assert!(EXPERIMENTS.contains(&"bench"));
    }
}
