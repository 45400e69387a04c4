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

#[test]
fn a_name_length_near_2_pow_64_is_a_bad_object_not_a_panic() {
    // 24 bytes: the magic, a name length of 2^64 - 8, then eight bytes.
    let mut object = b"OMOBJ01\0".to_vec();
    object.extend_from_slice(&(u64::MAX - 7).to_le_bytes());
    object.extend_from_slice(&[0; 8]);
    let path = std::env::temp_dir().join(format!("om-hostile-{}.o", std::process::id()));
    std::fs::write(&path, object).unwrap();
    let out = om(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("bad object format: truncated object"), "{err}");
}
