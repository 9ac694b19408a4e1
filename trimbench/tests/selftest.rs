//! Self-test of the benchmark: every workload at tiny sizes, traced and
//! untraced, prints every metric `BENCHMARK.json` names with its unit and
//! verifies its outputs; a deliberately wrong reference counts as failed
//! operations; and the command line refuses bad input.
//!
//! Run with `cargo test --manifest-path trimbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use trimbench::{run, Opts, Scale, Workload};

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn listed(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..json[start..].find(']').expect("section closes") + start];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry
                    .find(&format!("\"{key}\": \""))
                    .expect("field present")
                    + key.len()
                    + 5;
                entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool, corrupt_reference: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        corrupt_reference,
    }
}

#[test]
fn every_workload_prints_every_metric_and_verifies() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = listed(section);
        assert!(!expected.is_empty());
        for workload in Workload::ALL {
            let outcome = run(&tiny(workload, trace, false)).expect("workload runs");
            let printed: BTreeMap<String, String> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(
                printed.len(),
                outcome.metrics.len(),
                "{}: duplicate metric",
                workload.name()
            );
            assert_eq!(printed, expected, "{} trace={trace}", workload.name());
            assert!(
                outcome.correct(),
                "{} trace={trace}: {outcome:?}",
                workload.name()
            );
            assert!(outcome.checks.attempted > 0);
            let line = outcome.result_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in &expected {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing"
                );
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{unit} missing"
                );
            }
        }
    }
}

#[test]
fn a_wrong_reference_counts_as_failed_operations() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, false, true)).expect("workload runs");
        assert!(!outcome.correct(), "{}", workload.name());
        assert!(outcome.checks.failed > 0, "{}", workload.name());
        assert_eq!(
            outcome.checks.failed,
            outcome.checks.attempted,
            "{}",
            workload.name()
        );
        assert!(outcome.result_line().starts_with("{\"correct\": false"));
    }
}

#[test]
fn bad_command_lines_exit_2_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_trimbench");
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload eq-dense --seed 1 --seconds 1",
        "--workload eq-dense --seed x --seconds 1 --trace 0",
        "--workload eq-dense --seed 1 --seconds 1 --trace 2",
    ] {
        let out = Command::new(bin)
            .args(args.split_whitespace())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
