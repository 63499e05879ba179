//! The benchmark checked against itself: every workload passes a tiny run,
//! prints exactly the metrics `BENCHMARK.json` declares, and fails when an
//! answer is corrupted or a quantile bound is violated.

use opaq_net::json::Json;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["ingest", "serve-point", "coalesce-refresh"];

struct Run {
    code: Option<i32>,
    stderr: String,
    result: Json,
}

fn run(workload: &str, trace: u8, fault: &str) -> Run {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{workload}-{trace}-{fault}"));
    let output = Command::new(env!("CARGO_BIN_EXE_opaq-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args([
            "--trace",
            &trace.to_string(),
            "--scale",
            "tiny",
            "--fault",
            fault,
        ])
        .arg("--work-dir")
        .arg(&work_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    let last = stdout.lines().last().unwrap_or_default();
    Run {
        code: output.status.code(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
        result: Json::parse(last).unwrap_or_else(|e| panic!("last line {last:?} is not JSON: {e}")),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).expect("BENCHMARK.json exists at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("the metric list exists")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn printed(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("result has no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn correct(result: &Json) -> bool {
    matches!(result.get("correct"), Some(Json::Bool(true)))
}

#[test]
fn every_workload_passes_a_tiny_run_and_prints_the_declared_metrics() {
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let mut want = declared(list);
        want.sort();
        for workload in WORKLOADS {
            let run = run(workload, trace, "none");
            assert_eq!(
                run.code,
                Some(0),
                "{workload} trace {trace}: {}",
                run.stderr
            );
            assert!(
                correct(&run.result),
                "{workload} trace {trace}: {}",
                run.stderr
            );
            assert!(run.result.get("attempted").and_then(Json::as_u64) > Some(0));
            assert_eq!(run.result.get("failed").and_then(Json::as_u64), Some(0));
            let mut got = printed(&run.result);
            got.sort();
            assert_eq!(got, want, "{workload} trace {trace} metrics");
        }
    }
}

#[test]
fn a_corrupted_response_byte_fails_the_run() {
    for workload in ["serve-point", "coalesce-refresh"] {
        let run = run(workload, 0, "corrupt-response");
        assert_eq!(run.code, Some(1), "{workload}: {}", run.stderr);
        assert!(!correct(&run.result));
        assert!(run.stderr.contains("torn"), "{workload}: {}", run.stderr);
    }
}

#[test]
fn a_planted_bound_violation_fails_the_run() {
    for workload in WORKLOADS {
        let run = run(workload, 0, "bound-violation");
        assert_eq!(run.code, Some(1), "{workload}: {}", run.stderr);
        assert!(!correct(&run.result));
        assert!(
            run.stderr.contains("bound violation"),
            "{workload}: {}",
            run.stderr
        );
    }
}
