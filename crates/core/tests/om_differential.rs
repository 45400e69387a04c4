//! The reproduction's central correctness property: a program must compute
//! exactly the same result under the standard link and under every OM level
//! — OM's transformations are semantics-preserving by construction, and this
//! suite enforces it end to end (compile → OM → link → simulate).

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::{optimize_and_link, OmLevel};
use om_linker::{link_modules, LayoutOpts};
use om_objfile::{Module, SecId, Symbol};
use om_sim::run_image;

const STEPS: u64 = 10_000_000;

const DIV_SRC: &str = "
    int __divq(int a, int b) {
        if (b == 0) { return 0; }
        if (a == 0x8000000000000000) {
            // Split MIN (which cannot be negated) into halves.
            int q2 = __divq(a >> 1, b);
            int r2 = (a >> 1) - q2 * b;
            return q2 * 2 + __divq(r2 * 2, b);
        }
        if (b == 0x8000000000000000) { return 0; }
        int neg = 0;
        if (a < 0) { a = 0 - a; neg = 1 - neg; }
        if (b < 0) { b = 0 - b; neg = 1 - neg; }
        int q = 0;
        if (b > 0x4000000000000000) {
            if (a >= b) { q = 1; }
            if (neg) { return 0 - q; }
            return q;
        }
        int r = 0;
        int i = 62;
        for (i = 62; i >= 0; i = i - 1) {
            r = (r << 1) | ((a >> i) & 1);
            if (r >= b) { r = r - b; q = q + (1 << i); }
        }
        if (neg) { return 0 - q; }
        return q;
    }
    int __remq(int a, int b) {
        if (b == 0) { return a; }
        return a - __divq(a, b) * b;
    }";

fn objects(sources: &[(&str, &str)]) -> Vec<Module> {
    let mut v = vec![crt0::module().unwrap()];
    for (n, s) in sources {
        v.push(compile_source(n, s, &CompileOpts::o2()).unwrap());
    }
    v.push(compile_source("divmod", DIV_SRC, &CompileOpts::o2()).unwrap());
    v
}

/// Runs under the standard linker and all four OM levels; all five results
/// must agree. Returns the stats of (simple, full).
fn check(sources: &[(&str, &str)]) -> (om_core::OmStats, om_core::OmStats) {
    let objs = objects(sources);
    let (image, _) = link_modules(&objs, &[], &LayoutOpts::default()).unwrap();
    let baseline = run_image(&image, STEPS).unwrap();

    let mut out = Vec::new();
    for level in [OmLevel::None, OmLevel::Simple, OmLevel::Full, OmLevel::FullSched] {
        let o = optimize_and_link(&objs, &[], level)
            .unwrap_or_else(|e| panic!("{}: {e}", level.name()));
        let r = run_image(&o.image, STEPS)
            .unwrap_or_else(|e| panic!("{}: run: {e}", level.name()));
        assert_eq!(
            r.result,
            baseline.result,
            "result mismatch at {}",
            level.name()
        );
        assert_eq!(r.output, baseline.output, "output mismatch at {}", level.name());
        out.push(o.stats);
    }
    (out[1], out[2])
}

#[test]
fn straight_line_with_globals() {
    let (simple, full) = check(&[(
        "m",
        "int a; int b; int c;
         int main() { a = 3; b = a * 7; c = b - a; return a + b + c; }",
    )]);
    assert!(simple.addr_loads_nullified > 0, "{simple:?}");
    assert!(full.insts_deleted > 0, "{full:?}");
}

#[test]
fn loops_over_arrays() {
    check(&[(
        "m",
        "int data[64]; int sums[8];
         int main() {
           int i = 0;
           for (i = 0; i < 64; i = i + 1) { data[i] = i * 3 - 7; }
           for (i = 0; i < 64; i = i + 1) { sums[i % 8] = sums[i % 8] + data[i]; }
           int s = 0;
           for (i = 0; i < 8; i = i + 1) { s = s + sums[i] * (i + 1); }
           return s;
         }",
    )]);
}

#[test]
fn cross_module_calls_and_library() {
    let (simple, full) = check(&[
        (
            "main",
            "extern int transform(int); extern int finish(int);
             int acc;
             int main() {
               int i = 0;
               for (i = 0; i < 25; i = i + 1) { acc = acc + transform(i); }
               return finish(acc);
             }",
        ),
        (
            "lib1",
            "extern int finish(int);
             static int scale(int x) { return x * 5; }
             int transform(int x) { return scale(x) + x / 3; }",
        ),
        ("lib2", "int finish(int x) { return x % 10007; }"),
    ]);
    // OM-full must strictly beat OM-simple on bookkeeping removal.
    assert!(full.calls_pv_after <= simple.calls_pv_after);
    assert!(full.calls_pv_after < full.calls_pv_before, "{full:?}");
    assert_eq!(full.calls_gp_reset_after, 0, "single-GAT program: {full:?}");
}

#[test]
fn floats_and_constant_pool() {
    check(&[(
        "m",
        "float series[16];
         int main() {
           int i = 0;
           float x = 1.0;
           for (i = 0; i < 16; i = i + 1) { series[i] = x; x = x * 1.25 + 0.125; }
           float s = 0.0;
           for (i = 0; i < 16; i = i + 1) { s = s + series[i]; }
           return int(s * 1000.0);
         }",
    )]);
}

#[test]
fn procedure_variables_block_pv_removal() {
    let (_, full) = check(&[(
        "m",
        "int inc(int x) { return x + 1; }
         int dec(int x) { return x - 1; }
         fnptr op;
         int main() {
           op = &inc;
           int a = op(10);
           op = &dec;
           int b = op(10);
           return a * 100 + b;
         }",
    )]);
    // The two indirect calls keep their PV use forever.
    assert!(full.calls_indirect >= 2);
    assert!(full.calls_pv_after >= full.calls_indirect, "{full:?}");
}

#[test]
fn recursion_survives_prologue_removal() {
    check(&[(
        "m",
        "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
         int main() { return fib(18); }",
    )]);
}

#[test]
fn deep_call_chains_with_state() {
    check(&[
        (
            "a",
            "extern int b1(int);
             int g1; int g2;
             int main() {
               g1 = 5; g2 = 7;
               int r = b1(g1 + g2);
               return r + g1 * g2;
             }",
        ),
        (
            "b",
            "extern int c1(int);
             int h1;
             int b1(int x) { h1 = x * 2; return c1(h1) + h1; }",
        ),
        (
            "c",
            "int c1(int x) { int i = 0; int s = 0; for (i = 0; i < x; i = i + 1) { s = s + i; } return s % 1000; }",
        ),
    ]);
}

#[test]
fn gat_reduction_only_under_full() {
    let (simple, full) = check(&[(
        "m",
        "int a; int b; int c; int d; int e;
         int main() { a=1; b=2; c=3; d=4; e=5; return a+b+c+d+e; }",
    )]);
    assert_eq!(
        simple.gat_slots_after, simple.gat_slots_before,
        "OM-simple must not reduce the GAT: {simple:?}"
    );
    assert!(
        full.gat_slots_after < full.gat_slots_before,
        "OM-full must reduce the GAT: {full:?}"
    );
}

#[test]
fn stats_are_consistent() {
    let (simple, full) = check(&[(
        "m",
        "int x[32]; int y;
         static int helper(int i) { y = y + i; return y; }
         int main() {
           int i = 0;
           for (i = 0; i < 32; i = i + 1) { x[i] = helper(i); }
           return x[31];
         }",
    )]);
    for s in [simple, full] {
        assert!(s.addr_loads_converted + s.addr_loads_nullified <= s.addr_loads_total);
        assert!(s.calls_pv_after <= s.calls_pv_before);
        assert!(s.calls_gp_reset_after <= s.calls_gp_reset_before);
        assert!(s.insts_before > 0);
    }
    assert!(full.inst_fraction_removed() >= simple.inst_fraction_removed());
}

#[test]
fn write_int_order_preserved() {
    check(&[(
        "m",
        "extern int __write_int(int);
         int main() {
           int i = 0;
           for (i = 0; i < 5; i = i + 1) { __write_int(i * i); }
           return 0;
         }",
    )]);
}

#[test]
fn an_extern_binds_past_a_local_of_the_same_name() {
    // Module `a` references the global `x` through an extern and also
    // holds a local data symbol `x` = 99, listed after the extern. Every
    // reference goes through the extern, so every link must read `b`'s 7.
    let opts = CompileOpts::o2();
    let mut a = compile_source("a", "extern int x; int main() { return x; }", &opts).unwrap();
    let off = a.data.len().next_multiple_of(8);
    a.data.resize(off, 0);
    a.data.extend_from_slice(&99i64.to_le_bytes());
    a.symbols.push(Symbol::data("x", SecId::Data, off as u64, 8).local());
    a.validate().unwrap();
    let b = compile_source("b", "int x = 7;", &opts).unwrap();
    let objs = vec![crt0::module().unwrap(), a, b];

    let (image, _) = link_modules(&objs, &[], &LayoutOpts::default()).unwrap();
    assert_eq!(run_image(&image, STEPS).unwrap().result, 7, "standard link");
    for level in OmLevel::ALL {
        let o = optimize_and_link(&objs, &[], level)
            .unwrap_or_else(|e| panic!("{}: {e}", level.name()));
        let r = run_image(&o.image, STEPS).unwrap_or_else(|e| panic!("{}: run: {e}", level.name()));
        assert_eq!(r.result, 7, "{}", level.name());
    }
}
