//! `om` argument handling: usage errors (no input object, an unknown
//! option, a missing flag value, an unknown level) exit 2 with the usage
//! text before any input is read, and an unreadable object exits 1.

use std::process::{Command, Output};

fn om(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_om")).args(args).output().expect("om runs")
}

#[test]
fn usage_errors_exit_2_an_unreadable_object_exits_1() {
    for args in [&[][..], &["--bogus", "x.o"], &["x.o", "-o"], &["--level", "fast", "x.o"]] {
        let out = om(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: om"), "{args:?}: {err}");
        assert!(err.contains("--preemptible"), "{args:?}: {err}");
    }
    let out = om(&["/nonexistent/x.o"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot read /nonexistent/x.o"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}
