//! `mld` argument handling: usage errors (no input object, an unknown
//! option, a missing `-o` or `--trace-json` value) exit 2 with the usage
//! text before any input is read, and an unreadable object exits 1. A
//! traced link writes a valid trace with the layers `om` shares.

use std::process::{Command, Output};

fn mld(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mld")).args(args).output().expect("mld runs")
}

#[test]
fn usage_errors_exit_2_an_unreadable_object_exits_1() {
    for args in [
        &[][..],
        &["--bogus"],
        &["-o"],
        &["nothere.o", "--bogus"],
        &["lib.a"],
        &["--trace-json"],
        &["nothere.o", "--trace-json"],
    ] {
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

#[test]
fn a_name_length_near_2_pow_64_is_a_bad_object_not_a_panic() {
    // 24 bytes: the magic, a name length of 2^64 - 8, then eight bytes.
    let mut object = b"OMOBJ01\0".to_vec();
    object.extend_from_slice(&(u64::MAX - 7).to_le_bytes());
    object.extend_from_slice(&[0; 8]);
    let path = std::env::temp_dir().join(format!("mld-hostile-{}.o", std::process::id()));
    std::fs::write(&path, object).unwrap();
    let out = mld(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("bad object format: truncated object"), "{err}");
}

#[test]
fn a_traced_link_writes_a_valid_trace_with_the_shared_layers() {
    use om_codegen::{compile_source, crt0, CompileOpts};
    let dir = std::env::temp_dir().join(format!("mld-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let main = compile_source("m", "int main() { return 7; }", &CompileOpts::o2()).unwrap();
    let mut args = vec!["-o".to_string(), dir.join("a.exe").display().to_string()];
    for m in [crt0::module().unwrap(), main] {
        let path = dir.join(format!("{}.o", m.name));
        std::fs::write(&path, om_objfile::binary::write_module(&m)).unwrap();
        args.push(path.display().to_string());
    }
    let trace = dir.join("t.json");
    args.extend(["--trace-json".to_string(), trace.display().to_string()]);
    let out = Command::new(env!("CARGO_BIN_EXE_mld")).args(&args).output().expect("mld runs");
    let text = std::fs::read_to_string(&trace);
    std::fs::remove_dir_all(&dir).unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let spans = om_obs::validate_chrome_trace(&text.expect("trace written")).expect("valid trace");
    let root = spans.iter().find(|s| s.name == "mld").expect("an mld span");
    for layer in ["select", "symtab", "link.layout", "link.image"] {
        let s = spans.iter().find(|s| s.name == layer).unwrap_or_else(|| panic!("no {layer}"));
        assert!(s.depth > root.depth && s.start >= root.start && s.end <= root.end, "{layer}");
    }
}
