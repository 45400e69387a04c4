//! `ablations` argument handling: an unknown flag, a `--bench` without a
//! name and a filter matching no benchmark each exit 2 with the usage line,
//! before any benchmark is built.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [&["--bench", "nosuch"][..], &["--bogus"], &["--bench"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
            .args(args)
            .output()
            .expect("ablations runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: ablations"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: printed a table");
    }
}
