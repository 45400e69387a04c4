//! `mcc` argument handling: usage errors (no input, an unknown option, a
//! missing flag value, `--ar` combined with `-o` or `--all`, `-o` with
//! several inputs) exit 2 with the usage text before any source is read or
//! any output written, and an unreadable source exits 1.

use std::path::Path;
use std::process::{Command, Output};

fn mcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcc")).args(args).output().expect("mcc runs")
}

#[test]
fn usage_errors_exit_2_an_unreadable_source_exits_1() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mcc_cli");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let (obj, lib) = (dir.join("x.o"), dir.join("lib.a"));
    let (obj, lib) = (obj.to_str().unwrap(), lib.to_str().unwrap());
    for args in [
        &[][..],
        &["--bogus", "a.mc"],
        &["a.mc", "-o"],
        &["a.mc", "--ar"],
        &["-o", obj, "a.mc", "b.mc"],
        &["-o", obj, "--ar", lib, "a.mc", "b.mc"],
        &["--all", "--ar", lib, "a.mc", "b.mc"],
    ] {
        let out = mcc(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: mcc"), "{args:?}: {err}");
        assert!(err.contains("--no-schedule"), "{args:?}: {err}");
        assert!(!Path::new(obj).exists() && !Path::new(lib).exists(), "{args:?} wrote output");
    }
    let out = mcc(&["/nonexistent/a.mc"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot read /nonexistent/a.mc"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}
