//! `asim` argument handling and end-to-end runs: usage errors (no image, a
//! second image, an unknown option) exit 2 with the usage text, an
//! unreadable or malformed image exits 1, both engines print the same
//! timing, and `--trace-json` writes a valid chrome://tracing file.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_linker::{link_modules, Image, LayoutInfo, LayoutOpts};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, Output};

fn asim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asim")).args(args).output().expect("asim runs")
}

/// Compiles and links a small loop, writes it under the test scratch
/// directory as `name`, and returns its path.
fn small_image(name: &str) -> PathBuf {
    let obj = compile_source(
        "m",
        "int main() { int s = 0; int i = 0;
           for (i = 1; i <= 100; i = i + 1) { s = s + i; }
           return s; }",
        &CompileOpts::o2(),
    )
    .expect("compile");
    let objects = [crt0::module().expect("crt0"), obj];
    let (image, _) = link_modules(&objects, &[], &LayoutOpts::default()).expect("link");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, image.to_bytes()).expect("write image");
    path
}

#[test]
fn usage_errors_exit_2_an_unreadable_image_exits_1() {
    for args in [&[][..], &["--sample", "10000", "x.exe"], &["a.exe", "b.exe"]] {
        let out = asim(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: asim"), "{args:?}: {err}");
        assert!(err.contains("--trace-summary"), "{args:?}: {err}");
    }
    let out = asim(&["/nonexistent/x.exe"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot read /nonexistent/x.exe"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}

#[test]
fn both_engines_print_the_same_timing() {
    let image = small_image("asim_cli_timing.exe");
    let image = image.to_str().expect("utf-8 path");
    let fast = asim(&["--timing", image]);
    let reference = asim(&["--timing", "--reference", image]);
    let stats = String::from_utf8_lossy(&fast.stderr);
    assert!(stats.contains("asim: result 5050 | "), "{stats}");
    assert!(stats.contains("asim: icache "), "{stats}");
    assert_eq!(fast.stderr, reference.stderr);
    assert_eq!(fast.stdout, reference.stdout);
    // 5050 & 0x7F: the exit code follows the program's result.
    assert_eq!(fast.status.code(), Some(58), "{stats}");
    assert_eq!(fast.status.code(), reference.status.code());
}

#[test]
fn trace_json_writes_a_valid_trace_with_a_run_span() {
    let image = small_image("asim_cli_trace.exe");
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("asim_cli_trace.json");
    let out = asim(&["--trace-json", trace.to_str().unwrap(), image.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(58), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let spans = om_obs::validate_chrome_trace(&text).expect("trace validates");
    assert!(spans.iter().any(|s| s.name == "sim.run"), "{spans:?}");
}

/// Image bytes with no segments, no symbols, empty extents and the given
/// symbol and GP-value counts, followed by no records.
fn counts_only(nsym: u64, ngp: u64) -> Vec<u8> {
    let mut w = b"OMEXE01\0".to_vec();
    for v in [0, 0, nsym].into_iter().chain([0; 12]).chain([ngp]) {
        w.extend_from_slice(&v.to_le_bytes());
    }
    w
}

#[test]
fn malformed_images_exit_1_with_one_line_and_no_panic() {
    let no_segment = Image {
        segments: vec![],
        entry: 0x1000,
        symbols: HashMap::new(),
        layout: LayoutInfo::default(),
    };
    let cases: [(&str, Vec<u8>, &str); 3] = [
        ("no_segment.exe", no_segment.to_bytes(), "image has no text segment"),
        ("huge_symbol_count.exe", counts_only(1 << 61, 0), "implausible symbol count"),
        ("huge_gp_count.exe", counts_only(0, 1 << 40), "implausible GP value count"),
    ];
    for (name, bytes, want) in cases {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, bytes).expect("write image");
        let path = path.to_str().expect("utf-8 path");
        for flags in [&[][..], &["--timing"], &["--reference", "--timing"], &["--disasm"]] {
            let mut args = flags.to_vec();
            args.push(path);
            let out = asim(&args);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {flags:?}: {err}");
            assert!(err.contains(want), "{name} {flags:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{name} {flags:?}: {err}");
            assert!(!err.contains("panicked"), "{name} {flags:?}: {err}");
        }
    }
    // The profiler takes the same path on both engines.
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no_segment.exe");
    let prof = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no_segment.json");
    for reference in [false, true] {
        let mut args = vec!["--profile", prof.to_str().unwrap(), path.to_str().unwrap()];
        if reference {
            args.insert(0, "--reference");
        }
        let out = asim(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.trim_end(), "asim: image has no text segment", "{args:?}");
    }
}
