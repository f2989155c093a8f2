//! End-to-end tests of the benchmark binary: metric coverage against
//! `BENCHMARK.json`, the output checks' failure paths, and usage errors.

use std::process::{Command, Output};

use serde_json::Value;

const WORKLOADS: [&str; 4] = ["serve_cold", "serve_sweep", "serve_warm", "tune"];

/// 1/200 of the benchmark's 20-second run.
const SHORT: &str = "0.1";

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_timber-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn result_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let wanted = declared(section);
        for workload in WORKLOADS {
            let out = bench(&["--workload", workload, "--seconds", SHORT, "--trace", trace]);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = result_line(&out);
            assert_eq!(result["correct"], Value::Bool(true));
            assert_eq!(result["failed"].as_u64(), Some(0));
            assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
            let Value::Object(metrics) = &result["metrics"] else {
                panic!("{workload}: metrics is not an object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), m["unit"].as_str().unwrap_or("").to_owned()))
                .collect();
            assert_eq!(got, wanted, "{workload} trace {trace}");
            for (name, m) in metrics {
                assert!(m["value"].as_f64().is_some(), "{workload} {name}");
            }
        }
    }
}

#[test]
fn a_tampered_response_body_fails_the_check() {
    for workload in ["serve_cold", "serve_sweep", "serve_warm"] {
        let out = bench(&[
            "--workload",
            workload,
            "--seconds",
            SHORT,
            "--sabotage",
            "body",
        ]);
        assert_eq!(out.status.code(), Some(1), "{workload}");
        assert_eq!(
            result_line(&out)["correct"],
            Value::Bool(false),
            "{workload}"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("differs from the reference"));
    }
}

#[test]
fn a_tampered_golden_byte_fails_the_check() {
    let out = bench(&[
        "--workload",
        "tune",
        "--seed",
        "42",
        "--seconds",
        SHORT,
        "--sabotage",
        "golden",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(result_line(&out)["correct"], Value::Bool(false));
    assert!(String::from_utf8_lossy(&out.stderr).contains("differs from the expected frontier"));
}

#[test]
fn unknown_flags_and_workloads_are_usage_errors_that_name_them() {
    for (args, named) in [
        (&["--frobnicate"][..], "--frobnicate"),
        (&["--workload", "serve_lukewarm"][..], "serve_lukewarm"),
        (&["--trace", "2"][..], "--trace"),
        (&["--seconds"][..], "--seconds"),
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(named),
            "{args:?}"
        );
    }
}
