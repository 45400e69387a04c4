//! `mld` argument handling: usage errors (no input object, an unknown
//! option, a missing `-o` value) exit 2 with the usage text before any
//! input is read, and an unreadable object exits 1.

use std::process::{Command, Output};

fn mld(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mld")).args(args).output().expect("mld runs")
}

#[test]
fn usage_errors_exit_2_an_unreadable_object_exits_1() {
    for args in [&[][..], &["--bogus"], &["-o"], &["nothere.o", "--bogus"], &["lib.a"]] {
        let out = mld(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: mld"), "{args:?}: {err}");
    }
    let out = mld(&["/nonexistent/x.o"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot read /nonexistent/x.o"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}
