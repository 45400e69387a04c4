//! `omtrace check --min-coverage`: a span whose direct children cover all of
//! it passes, one with a 50% gap fails with exit 1, and a malformed
//! `SPAN=FRACTION` exits 2 with the usage text. `omtrace summarize` prints
//! each span's instances and the median and MAD of its total across traces,
//! then the median of each span argument's per-trace sum, and stops quietly
//! when its reader closes the pipe.

use std::process::{Command, Output, Stdio};

/// A `pipeline` span of 100 µs whose direct child `a` fills its first
/// half. With `second_half`, a child `b` fills the rest; `b` holds a
/// grandchild, which never counts towards `pipeline`'s coverage.
fn trace(second_half: bool) -> String {
    let event = |name: &str, ts: u32, dur: u32, depth: u32| {
        format!(
            r#"{{"name":"{name}","ph":"X","ts":{ts}.000,"dur":{dur}.000,"pid":1,"tid":0,"args":{{"depth":{depth}}}}}"#
        )
    };
    let mut events = vec![event("pipeline", 0, 100, 0), event("a", 0, 50, 1)];
    if second_half {
        events.extend([event("b", 50, 50, 1), event("b.inner", 60, 30, 2)]);
    }
    format!(r#"{{"traceEvents":[{}],"counters":{{}}}}"#, events.join(","))
}

fn check(text: &str, name: &str, args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("omtrace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_omtrace"))
        .arg("check")
        .arg(&path)
        .args(args)
        .output()
        .expect("omtrace runs");
    std::fs::remove_file(&path).unwrap();
    out
}

#[test]
fn min_coverage_passes_a_covered_span_and_fails_a_gap() {
    let full = check(&trace(true), "full.json", &["--min-coverage", "pipeline=0.99"]);
    let stdout = String::from_utf8_lossy(&full.stdout);
    assert_eq!(full.status.code(), Some(0), "{}", String::from_utf8_lossy(&full.stderr));
    assert!(stdout.contains("cover >= 100.0% of `pipeline`"), "{stdout}");

    // Without `b`, half of `pipeline` is unattributed.
    let gap = check(&trace(false), "gap.json", &["--min-coverage", "pipeline=0.6"]);
    let err = String::from_utf8_lossy(&gap.stderr);
    assert_eq!(gap.status.code(), Some(1), "{err}");
    assert!(err.contains("cover 50.0% of a `pipeline` span, below 60.0%"), "{err}");
    let loose = check(&trace(false), "loose.json", &["--min-coverage", "pipeline=0.5"]);
    assert_eq!(loose.status.code(), Some(0), "{}", String::from_utf8_lossy(&loose.stderr));

    let absent = check(&trace(true), "absent.json", &["--min-coverage", "link=0.5"]);
    assert_eq!(absent.status.code(), Some(1));
}

#[test]
fn malformed_coverage_values_exit_2() {
    for value in ["pipeline", "pipeline=", "=0.5", "pipeline=1.5", "pipeline=half"] {
        let out = check(&trace(true), "bad.json", &["--min-coverage", value]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{value}: {err}");
        assert!(err.contains("SPAN=FRACTION"), "{value}: {err}");
    }
    let out = check(&trace(true), "missing.json", &["--min-coverage"]);
    assert_eq!(out.status.code(), Some(2));
}

/// Runs `omtrace summarize` over `traces`, each written to a file of its own.
fn summarize(traces: &[String]) -> Output {
    summarize_with(traces, "summarize", Command::output)
}

/// Writes `traces` to files in a directory of their own named after `tag`,
/// runs `omtrace summarize` over them through `run`, and removes the files.
fn summarize_with(
    traces: &[String],
    tag: &str,
    run: impl FnOnce(&mut Command) -> std::io::Result<Output>,
) -> Output {
    // Tests run in parallel: each call gets its own directory.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("omtrace-{tag}-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = (traces.iter().enumerate())
        .map(|(k, t)| {
            let path = dir.join(format!("t{k}.json"));
            std::fs::write(&path, t).unwrap();
            path
        })
        .collect();
    let out = run(Command::new(env!("CARGO_BIN_EXE_omtrace")).arg("summarize").args(&paths))
        .expect("omtrace runs");
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// Runs `cmd` with stdout a pipe whose reader is gone before it prints
/// (`cmd | head -0`).
fn with_closed_stdout(cmd: &mut Command) -> std::io::Result<Output> {
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn()?;
    drop(child.stdout.take());
    child.wait_with_output()
}

#[test]
fn summarize_stops_quietly_when_stdout_closes() {
    let traces = [timed_trace(10_000, &[2_000]), timed_trace(20_000, &[4_000])];
    let out = summarize_with(&traces, "closed", with_closed_stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked") && !err.contains("Broken pipe"), "{err}");
}

/// A trace whose `pipeline` takes `pipeline_us` and holds one `a` per entry
/// of `a_us`, back to back.
fn timed_trace(pipeline_us: u32, a_us: &[u32]) -> String {
    trace_of(timed_events(pipeline_us, a_us))
}

/// [`timed_trace`]'s events, in start order.
fn timed_events(pipeline_us: u32, a_us: &[u32]) -> Vec<String> {
    let event = |name: &str, ts: u32, dur: u32, depth: u32| {
        format!(
            r#"{{"name":"{name}","ph":"X","ts":{ts}.000,"dur":{dur}.000,"pid":1,"tid":0,"args":{{"depth":{depth}}}}}"#
        )
    };
    let mut events = vec![event("pipeline", 0, pipeline_us, 0)];
    let mut ts = 0;
    for &d in a_us {
        events.push(event("a", ts, d, 1));
        ts += d;
    }
    events
}

fn trace_of(events: Vec<String>) -> String {
    format!(r#"{{"traceEvents":[{}],"counters":{{}}}}"#, events.join(","))
}

#[test]
fn summarize_prints_median_and_mad_per_span() {
    // `pipeline` totals 10, 20 and 40 ms: median 20, deviations 10, 0, 20,
    // MAD 10. `a` runs twice per trace for 6, 8 and 5 ms in all.
    let traces = [
        timed_trace(10_000, &[2_000, 4_000]),
        timed_trace(20_000, &[4_000, 4_000]),
        timed_trace(40_000, &[1_000, 4_000]),
    ];
    let out = summarize(&traces);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<Vec<&str>> =
        stdout.lines().skip(1).map(|l| l.split_whitespace().collect()).collect();
    assert!(stdout.starts_with("spans over 3 traces"), "{stdout}");
    // `a` runs twice in every trace, so each instance gets its median: the
    // first ran 2, 4 and 1 ms, the second 4 ms each time.
    assert_eq!(
        lines,
        [
            vec!["a", "2", "6.000", "1.000", "2.000", "4.000"],
            vec!["pipeline", "1", "20.000", "10.000"],
        ]
    );

    // A span some traces lack counts 0 ms there; its instance count is a
    // range.
    let out = summarize(&[timed_trace(10_000, &[]), timed_trace(10_000, &[3_000])]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("  a ") && stdout.contains(" 0-1 "), "{stdout}");
    assert!(stdout.contains("1.500     1.500\n"), "{stdout}");

    // Instances are taken in start order, whatever order the file lists
    // them in; a span whose count differs between traces gets no
    // per-instance medians.
    let reversed = |pipeline_us, a_us: &[u32]| {
        let mut events = timed_events(pipeline_us, a_us);
        events.reverse();
        trace_of(events)
    };
    let out = summarize(&[
        reversed(10_000, &[1_000, 2_000, 3_000]),
        timed_trace(20_000, &[3_000, 4_000, 5_000]),
        timed_trace(10_000, &[2_000, 3_000]),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let a = stdout.lines().find(|l| l.starts_with("  a ")).unwrap_or_default();
    let a: Vec<&str> = a.split_whitespace().collect();
    assert_eq!(a, ["a", "2-3", "6.000", "1.000"], "{stdout}");
    let out = summarize(&[
        reversed(10_000, &[1_000, 2_000, 3_000]),
        timed_trace(20_000, &[3_000, 4_000, 5_000]),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let a = stdout.lines().find(|l| l.starts_with("  a ")).unwrap_or_default();
    let a: Vec<&str> = a.split_whitespace().collect();
    assert_eq!(a, ["a", "3", "9.000", "3.000", "2.000", "3.000", "4.000"], "{stdout}");
}

#[test]
fn summarize_prints_the_median_of_each_span_argument() {
    // `pipeline` carries `peak_rss_kb` once per trace; `pass.calls` runs
    // twice per trace and its `sites` sum over both. The third trace lacks
    // `sites`, which counts 0 there.
    let trace = |peak: u32, sites: &[u32]| {
        let event = |name: &str, ts: usize, dur: u32, args: String| {
            format!(
                r#"{{"name":"{name}","ph":"X","ts":{ts}.000,"dur":{dur}.000,"pid":1,"tid":0,"args":{{"depth":{}{args}}}}}"#,
                u32::from(name != "pipeline")
            )
        };
        let mut events = vec![event("pipeline", 0, 100, format!(r#","peak_rss_kb":{peak}"#))];
        let calls = sites.iter().enumerate();
        let arg = |n| format!(r#","sites":{n}"#);
        events.extend(calls.map(|(k, n)| event("pass.calls", 10 * k, 10, arg(n))));
        if sites.is_empty() {
            events.push(event("pass.calls", 0, 10, String::new()));
        }
        format!(r#"{{"traceEvents":[{}],"counters":{{}}}}"#, events.join(","))
    };
    let out = summarize(&[trace(70_000, &[30, 5]), trace(72_000, &[30, 6]), trace(90_000, &[])]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let args: Vec<Vec<&str>> = (stdout.lines())
        .skip_while(|l| !l.starts_with("span arguments"))
        .skip(1)
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(args, [["pass.calls", "sites", "35"], ["pipeline", "peak_rss_kb", "72000"]]);
}

#[test]
fn summarize_usage_errors_exit_2_and_bad_traces_exit_1() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_omtrace")).args(args).output().expect("omtrace runs")
    };
    for args in [&["summarize"][..], &["summarize", "--median"], &["summarise", "t.json"]] {
        let out = run(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: omtrace"), "{args:?}: {err}");
    }
    let missing = run(&["summarize", "/nonexistent/omtrace/t.json"]);
    assert_eq!(missing.status.code(), Some(1));
    assert_eq!(summarize(&["{\"traceEvents\":7}".to_string()]).status.code(), Some(1));
}
