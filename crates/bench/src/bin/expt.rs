//! `expt` — regenerate any table or figure from the paper.
//!
//! The full usage text, which `expt` also prints on a bad argument:
//!
#![doc = concat!("```text\n", include_str!("usage.txt"), "```")]

use trimgame_bench::config::RunConfig;
use trimgame_bench::run_experiment;

fn usage() -> ! {
    eprint!("{}", include_str!("usage.txt"));
    std::process::exit(2);
}

/// `expt benchdiff <baseline.json> <current.json> [tolerance]`: compare
/// two committed bench snapshots; exit 1 when a shared case regressed
/// past the tolerance (default 3x, the CI smoke gate).
fn benchdiff(args: &[String]) -> ! {
    let (Some(base_path), Some(cur_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: expt benchdiff <baseline.json> <current.json> [tolerance]");
        std::process::exit(2);
    };
    let tolerance = match args.get(2) {
        None => 3.0,
        Some(raw) => raw.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("benchdiff: tolerance must be a number, got {raw:?}");
            std::process::exit(2);
        }),
    };
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
    if args.first().is_some_and(|a| a == "benchdiff") {
        benchdiff(&args[1..]);
    }
    // The only environment read in the workspace: flags and fallbacks
    // resolve once, before any experiment runs.
    let run = RunConfig::parse(&args, |k| std::env::var(k).ok()).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Stderr keeps stdout byte-stable across worker counts.
    eprintln!("[{run}; {cores} core(s)]");
    for (i, id) in run.experiments.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let start = std::time::Instant::now();
        print!("{}", run_experiment(id, &run));
        eprintln!("[{id} done in {:.1}s]", start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use trimgame_bench::EXPERIMENTS;

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
