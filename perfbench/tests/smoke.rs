//! Smoke run of every workload at toy size (`--smoke`: scale N=16, two
//! quick SPEC programs), untraced and traced. Each run must pass all of its
//! output checks, the traced one's byte identity between the rebuilt
//! pipeline and `optimize_and_link_with` included, and print exactly the
//! metrics BENCHMARK.json names.

use om_obs::{parse_json, JsonValue};
use std::collections::BTreeSet;
use std::process::Command;

fn names(list: &JsonValue) -> BTreeSet<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let workloads = names(bench.get("workloads").expect("workloads"));
    assert_eq!(workloads.len(), 2);
    for w in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_omperf"))
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "7",
                    "--seconds",
                    "0.5",
                    "--trace",
                    trace,
                ])
                .arg("--smoke")
                .output()
                .expect("omperf runs");
            let log = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{w} --trace {trace}:\n{log}");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let result = parse_json(stdout.lines().last().expect("a result line"))
                .expect("the result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{w}:\n{log}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let emitted: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(
                emitted,
                names(bench.get(list).expect(list)),
                "{w} --trace {trace}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_2() {
    let good = [
        "--workload",
        "scale-link",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    // (flag index, bad value); a None value drops the flag and its value.
    for (at, bad) in [
        (1, Some("nope")),
        (3, Some("x")),
        (5, Some("0")),
        (7, Some("2")),
        (6, None),
    ] {
        let mut args = good.to_vec();
        match bad {
            Some(v) => args[at] = v,
            None => drop(args.drain(at..at + 2)),
        }
        let out = Command::new(env!("CARGO_BIN_EXE_omperf"))
            .args(&args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
