//! Tiny-size smoke run of every workload in both modes. Each run must
//! exit 0, pass its own correctness checks (bit-identity with direct
//! solver calls, cold/warm replay identity, bracket containment,
//! repeatable counters), and report exactly the metrics BENCHMARK.json
//! declares for its mode.

use gncg_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    gncg_json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(bench: &Value, table: &str) -> Vec<(String, String)> {
    bench
        .get(table)
        .and_then(Value::as_array)
        .expect("metric table")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn perfbench(dir: &PathBuf, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .env("GNCG_FAULT_INJECT", "0.5") // must be cleared by the benchmark
        .output()
        .expect("run perfbench")
}

#[test]
fn every_workload_runs_tiny_and_checks_out() {
    let bench = benchmark();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    for workload in &workloads {
        for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
            let dir = scratch(&format!("smoke-{workload}-{trace}"));
            let out = perfbench(
                &dir,
                &[
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--size",
                    "tiny",
                ],
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload}/{trace}: {stderr}");
            let last = stdout.lines().last().expect("result line");
            let result = gncg_json::parse(last).expect("result line is JSON");
            let context = stdout.lines().rev().nth(1).expect("context line");
            assert!(
                context.contains("\"failed_ratio\":0"),
                "{workload}/{trace}: {context}"
            );
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{stderr}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}/{trace}: no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).expect("value");
                    assert!(value.is_finite(), "{workload}/{trace}: {name} = {value}");
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut want = declared(&bench, table);
            let mut got_sorted = got.clone();
            want.sort();
            got_sorted.sort();
            assert_eq!(
                got_sorted, want,
                "{workload}/{trace}: metrics differ from BENCHMARK.json"
            );
            if trace == "0" {
                for (name, _) in &got {
                    let v = metrics
                        .iter()
                        .find(|(n, _)| n == name)
                        .unwrap()
                        .1
                        .get("value");
                    assert!(
                        v.and_then(Value::as_f64) > Some(0.0),
                        "{workload}: {name} is 0"
                    );
                }
            }
            // the scratch dir is gone; spans were written on traced runs
            assert!(!dir
                .join(".bench_tmp")
                .read_dir()
                .is_ok_and(|mut d| d.next().is_some()));
            assert_eq!(dir.join(".bench_out").exists(), trace == "1");
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let dir = scratch("smoke-args");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve_mixed", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "serve_mixed",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "serve_mixed",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = perfbench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
