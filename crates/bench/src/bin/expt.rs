//! `expt` — regenerate any table or figure from the paper.
//!
//! The full usage text, which `expt` also prints on a bad argument:
//!
#![doc = concat!("```text\n", include_str!("usage.txt"), "```")]

use trimgame_bench::empirical::{parse_eq_seeds, parse_sketch_epsilon, SubstrateKind};
use trimgame_bench::{run_experiment, EXPERIMENTS};

fn usage() -> ! {
    eprint!("{}", include_str!("usage.txt"));
    std::process::exit(2);
}

fn set_substrate(value: &str) {
    match value {
        "scalar" | "ml" | "ldp" => std::env::set_var("TRIMGAME_EQ_SUBSTRATE", value),
        unknown => {
            eprintln!("unknown substrate: {unknown} (expected scalar|ml|ldp)");
            usage();
        }
    }
}

/// Rejects malformed equilibrium inputs, from flags or the environment,
/// before any experiment runs.
fn validate_equilibrium_env() {
    let check = |var: &str, parse: &dyn Fn(&str) -> Result<(), String>| {
        if let Ok(raw) = std::env::var(var) {
            if let Err(e) = parse(&raw) {
                eprintln!("{var}: {e}");
                usage();
            }
        }
    };
    check("TRIMGAME_EQ_SUBSTRATE", &|raw| {
        SubstrateKind::parse(raw)
            .map(drop)
            .ok_or_else(|| format!("unknown substrate {raw:?} (expected scalar|ml|ldp)"))
    });
    check("TRIMGAME_EQ_SEEDS", &|raw| parse_eq_seeds(raw).map(drop));
    check("TRIMGAME_EQ_SKETCH", &|raw| {
        parse_sketch_epsilon(raw).map(drop)
    });
}

/// `expt benchdiff <baseline.json> <current.json> [tolerance]`: compare
/// two committed bench snapshots; exit 1 when a shared case regressed
/// past the tolerance (default 3x, the CI smoke gate).
fn benchdiff(args: &[String]) -> ! {
    let (Some(base_path), Some(cur_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: expt benchdiff <baseline.json> <current.json> [tolerance]");
        std::process::exit(2);
    };
    let tolerance = args
        .get(2)
        .map(|t| t.parse::<f64>().expect("tolerance must be a number"))
        .unwrap_or(3.0);
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read(base_path);
    let current = read(cur_path);
    match trimgame_bench::perf::bench_diff(&baseline, &current, tolerance) {
        Ok(report) => {
            print!("{report}");
            std::process::exit(0);
        }
        Err(report) => {
            print!("{report}");
            eprintln!("bench regression past {tolerance}x detected");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "benchdiff" {
        benchdiff(&args[1..]);
    }
    let mut ids: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            // The smoke flag shrinks grid-based experiments to pipeline
            // scale; experiments read it through their from_env configs.
            "--smoke" => std::env::set_var("TRIMGAME_EQ_SMOKE", "1"),
            // The bench snapshot flag; perf::bench_report reads it.
            "--json" => std::env::set_var("TRIMGAME_BENCH_JSON", "1"),
            "--substrate" => match iter.next() {
                Some(value) => set_substrate(value),
                None => {
                    eprintln!("--substrate needs a value (scalar|ml|ldp)");
                    usage();
                }
            },
            flag if flag.starts_with("--substrate=") => {
                set_substrate(&flag["--substrate=".len()..]);
            }
            // Sketch-native defender; equilibrium reads it via
            // EquilibriumConfig::from_env_for once validated below.
            "--sketch" => std::env::set_var("TRIMGAME_EQ_SKETCH", "1"),
            flag if flag.starts_with("--sketch=") => {
                std::env::set_var("TRIMGAME_EQ_SKETCH", &flag["--sketch=".len()..]);
            }
            // Double-oracle solver; equilibrium_report_from_env branches
            // on it.
            "--double-oracle" => std::env::set_var("TRIMGAME_EQ_ORACLE", "1"),
            "--recover" => std::env::set_var("TRIMGAME_COLLECT_RECOVER", "1"),
            "all" => ids.extend(EXPERIMENTS),
            "tables" => ids.extend(["table1", "table2", "table3", "table4"]),
            "figures" => ids.extend(["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]),
            "ablations" => ids.extend(EXPERIMENTS.iter().filter(|e| e.starts_with("ablate"))),
            id if EXPERIMENTS.contains(&id) => {
                ids.push(EXPERIMENTS.iter().find(|e| **e == id).expect("validated"))
            }
            unknown => {
                eprintln!("unknown experiment: {unknown}");
                usage();
            }
        }
    }
    if ids.is_empty() {
        // Flags alone (e.g. `expt --smoke`) select no experiment.
        usage();
    }
    if ids.contains(&"equilibrium") {
        validate_equilibrium_env();
    }
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let start = std::time::Instant::now();
        print!("{}", run_experiment(id));
        eprintln!("[{id} done in {:.1}s]", start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_experiment() {
        let usage = include_str!("usage.txt");
        for id in EXPERIMENTS {
            assert!(
                usage.split_whitespace().any(|word| word == id),
                "usage.txt omits {id}"
            );
        }
    }
}
