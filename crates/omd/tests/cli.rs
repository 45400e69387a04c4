//! `omd` argument handling: usage errors (a missing argument or an unknown
//! `-` option) exit 2 with the usage text, before any socket is bound or
//! dialed; a runtime failure such as a failed connect exits 1.

use std::process::{Command, Output};

fn omd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_omd")).args(args).output().expect("omd runs")
}

#[test]
fn usage_errors_exit_2_runtime_failures_exit_1() {
    for args in [
        &[][..],
        &["ping"],
        &["link", "s", "--bogus", "-o", "o", "x.o"],
        &["link", "s", "--level", "fullsched", "-o", "o", "x.o"],
        &["serve", "--typo"],
    ] {
        let out = omd(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
    let out = omd(&["ping", "/nonexistent.sock"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("connect /nonexistent.sock"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}
