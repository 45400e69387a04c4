//! `reproduce`'s exit codes. `check` exits 2 with the usage line for bad
//! arguments, 1 for an unreadable or unparsable report or any finding, and 0
//! for the committed baseline checked against itself. A figure run exits 2
//! with the usage line, before building anything, on a bad argument or a
//! `--bench` filter next to a figure that measures programs of its own, and
//! stops quietly when its reader closes the pipe.

use std::process::{Command, Stdio};

#[test]
fn bad_figure_arguments_exit_2_with_usage() {
    for args in [
        &["--bench", "nosuch"][..],
        &["--bogus"],
        &["--bench"],
        &["scale", "--bench", "li", "--quick"],
        &["mutants", "--bench", "li"],
        &["scale", "fig3", "--bench", "li", "--quick"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("reproduce runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: reproduce"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: printed a table");
    }
}

#[test]
fn a_figure_run_stops_quietly_when_stdout_closes() {
    // `reproduce fig3 --quick --bench li | head -0`: the reader is gone
    // before the table is printed.
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig3", "--quick", "--bench", "li"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("reproduce runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("reproduce exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked") && !err.contains("Broken pipe"), "{err}");
}

/// Runs `reproduce check ARGS...` from the workspace root; returns the exit
/// code and stderr.
fn check(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("check")
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("reproduce runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().expect("an exit code"), stderr)
}

#[test]
fn check_exit_codes() {
    let base = "BENCH_baseline.json";
    for args in [&[][..], &[base, base, base], &["--quick"]] {
        let (code, err) = check(args);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(err.contains("usage: reproduce"), "{args:?}: {err}");
    }

    let dir = std::env::temp_dir().join(format!("om-check-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let missing = dir.join("missing.json");
    let unparsable = write("cut.json", "{\"schema\": \"om-reproduce/v1\", \"rows\": [");
    let empty = write(
        "empty.json",
        "{\"schema\": \"om-reproduce/v1\", \"rows\": []}",
    );
    for path in [missing.to_str().unwrap(), &unparsable] {
        let (code, err) = check(&[path]);
        assert_eq!(code, 1, "{path}: {err}");
        assert!(err.contains(path), "{err}");
    }
    let (code, err) = check(&[&empty, base]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("FAIL: fig3: run has no rows"), "{err}");
    assert!(
        err.contains("FAIL: gat compress: row missing from run"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let (code, err) = check(&[base, base]);
    assert_eq!(code, 0, "{err}");
}
