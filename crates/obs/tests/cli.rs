//! `omtrace check --min-coverage`: a span whose direct children cover all of
//! it passes, one with a 50% gap fails with exit 1, and a malformed
//! `SPAN=FRACTION` exits 2 with the usage text.

use std::process::{Command, Output};

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
