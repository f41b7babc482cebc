//! Every workload at tiny size emits every metric `BENCHMARK.json` names,
//! with its unit, and passes its correctness checks, in both the untraced
//! and the traced run. That covers the workloads `BENCHMARK.json` lists and
//! `open_attack_bursty`, which the benchmark can run but does not list.
//!
//! Run with `cargo test --release --manifest-path fleetbench/Cargo.toml`.

use std::process::Command;

use serde::Value;

fn metrics(spec: &Value, key: &str) -> Vec<(String, String)> {
    let Value::Seq(entries) = spec.field_or_null(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    entries
        .iter()
        .map(
            |entry| match (entry.field_or_null("name"), entry.field_or_null("unit")) {
                (Value::Str(name), Value::Str(unit)) => (name.clone(), unit.clone()),
                other => panic!("malformed {key} entry: {other:?}"),
            },
        )
        .collect()
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    let Value::Seq(entries) = spec.field_or_null(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    entries
        .iter()
        .map(|entry| match entry.field_or_null("name") {
            Value::Str(name) => name.clone(),
            other => panic!("malformed {key} entry: {other:?}"),
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json is readable");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleetbench-smoke");
    std::fs::create_dir_all(&work).expect("create the smoke directory");
    let mut workloads = names(&spec, "workloads");
    workloads.push("open_attack_bursty".to_string());
    for workload in workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
                .args(["--workload", &workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .current_dir(&work)
                .output()
                .expect("run fleetbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{stderr}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            assert_eq!(
                result.field_or_null("correct"),
                &Value::Bool(true),
                "{last}"
            );
            assert_eq!(result.field_or_null("failed"), &Value::U64(0), "{last}");
            let Value::Map(emitted) = result.field_or_null("metrics") else {
                panic!("no metrics object: {last}");
            };
            let expected = metrics(&spec, key);
            assert_eq!(
                emitted.len(),
                expected.len(),
                "{workload} --trace {trace}: {last}"
            );
            for (name, unit) in expected {
                let metric = &emitted
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} misses {name}"))
                    .1;
                assert_eq!(
                    metric.field_or_null("unit"),
                    &Value::Str(unit.clone()),
                    "{workload}: unit of {name}"
                );
                assert!(
                    matches!(
                        metric.field_or_null("value"),
                        Value::F64(_) | Value::U64(_) | Value::I64(_)
                    ),
                    "{workload}: {name} has no numeric value"
                );
            }
        }
    }
}
