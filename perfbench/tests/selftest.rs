//! Self-test: every workload at a tiny size, twice per seed.
//!
//! Checks that each metric `BENCHMARK.json` names is emitted with its unit,
//! and that two runs with the same seed give identical counts and
//! decision metrics. Needs the daemon binary in `STREAMTUNE_BIN`; run it as
//! `bash perfbench/run.sh --selftest`.

use serde::Value;
use std::path::Path;
use std::process::Command;

/// Metrics that must repeat exactly for a seed.
const EXACT: [&str; 10] = [
    "reconfigs_per_change",
    "parallelism_over_oracle",
    "backpressure_per_change",
    "ged.lookups",
    "ged.searches",
    "ged.filtered",
    "cluster.k",
    "model.fit_points",
    "backend.deploys",
    "core.iterations_per_change",
];

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(root).unwrap()).unwrap();
    list(spec.field(key).unwrap())
        .iter()
        .map(|m| {
            (
                text(m.field("name").unwrap()).to_string(),
                text(m.field("unit").unwrap()).to_string(),
            )
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(root).unwrap()).unwrap();
    list(spec.field("workloads").unwrap())
        .iter()
        .map(|w| text(w.field("name").unwrap()).to_string())
        .collect()
}

/// One tiny run; returns the result object of its last stdout line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let streamtune = std::env::var("STREAMTUNE_BIN")
        .expect("set STREAMTUNE_BIN, or run `bash perfbench/run.sh --selftest`");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "2", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny", "--streamtune", &streamtune])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn metric(result: &Value, name: &str) -> (f64, String) {
    let m = result
        .field("metrics")
        .unwrap()
        .field(name)
        .unwrap_or_else(|_| panic!("metric {name} missing"));
    (
        number(m.field("value").unwrap()),
        text(m.field("unit").unwrap()).to_string(),
    )
}

#[test]
fn every_metric_is_emitted_and_counts_repeat() {
    for workload in workloads() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let first = run(&workload, 7, trace);
            let second = run(&workload, 7, trace);
            assert_eq!(first.field("correct").unwrap(), &Value::Bool(true));
            assert!(number(first.field("attempted").unwrap()) >= 1.0);
            for (name, unit) in declared(key) {
                let (value, got_unit) = metric(&first, &name);
                assert_eq!(got_unit, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if EXACT.contains(&name.as_str()) {
                    let (again, _) = metric(&second, &name);
                    assert_eq!(
                        value.to_bits(),
                        again.to_bits(),
                        "{workload}: {name} differs between same-seed runs"
                    );
                }
            }
        }
    }
}
