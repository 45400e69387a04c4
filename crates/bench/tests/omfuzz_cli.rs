//! `omfuzz` argument handling: every argument is parsed before any work,
//! and each usage error exits 2 with the usage text and starts no seed or
//! adversarial case.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["--seeds", "2", "--adversarial"][..],
        &["--adversarial", "--modules", "3"],
        &["--adversarial", "--bogus"],
        &["--jobs", "0"],
        &["--seeds"],
        &["--seeds", "--adversarial"],
        &["--out"],
        &["--stmts", "many"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_omfuzz"))
            .args(args)
            .output()
            .expect("omfuzz runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: omfuzz"), "{args:?}: {err}");
        assert!(!err.contains("adversarial corpus"), "{args:?} ran the corpus: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
}
