//! Differential testing: every program must produce the same result in the
//! reference interpreter and on the simulator after the full
//! compile→link→execute pipeline, at both -O0 and -O2 (with scheduling).

use om_codegen::{compile_source, crt0, CompileOpts};
use om_linker::{link_modules, LayoutOpts};
use om_minic::interp::run_sources;
use om_sim::run_image;

const STEPS: u64 = 5_000_000;

fn run_compiled(sources: &[(&str, &str)], opts: &CompileOpts) -> i64 {
    let mut objects = vec![crt0::module().unwrap()];
    for (name, src) in sources {
        objects.push(
            compile_source(name, src, opts)
                .unwrap_or_else(|e| panic!("compiling {name}: {e}")),
        );
    }
    let (image, _) = link_modules(&objects, &[], &LayoutOpts::default())
        .unwrap_or_else(|e| panic!("link: {e}"));
    run_image(&image, STEPS)
        .unwrap_or_else(|e| panic!("run: {e}"))
        .result
}

/// The divide millicode, in mini-C, matching the interpreter's conventions
/// (shift-subtract long division; /0 yields 0, %0 yields the dividend).
pub const DIV_SRC: &str = "
    int __udiv_step(int n) { return n; } // placeholder to keep module multi-proc
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

fn check(sources: &[(&str, &str)]) {
    let mut with_div: Vec<(&str, &str)> = sources.to_vec();
    with_div.push(("divmod", DIV_SRC));
    let expected = run_sources(&with_div, 50_000_000).expect("interp");
    for (label, opts) in [("-O0", CompileOpts::o0()), ("-O2", CompileOpts::o2())] {
        let got = run_compiled(&with_div, &opts);
        assert_eq!(got, expected, "mismatch at {label}");
    }
}

fn check1(src: &str) {
    check(&[("t", src)]);
}

#[test]
fn arithmetic_basics() {
    check1("int main() { return (3 + 4) * 5 - 6; }");
    check1("int main() { int x = -7; return x * x - x; }");
    check1("int main() { return 1 << 40; }");
    check1("int main() { return (0 - 64) >> 3; }");
    check1("int main() { return 12345 & 6789 | 1024 ^ 513; }");
}

#[test]
fn wide_constants() {
    check1("int main() { return 100000; }"); // needs LDAH
    check1("int main() { return -100000; }");
    check1("int main() { return 0x7FFFFFFF; }");
    check1("int main() { return 0x123456789AB; }"); // needs constant pool
    check1("int main() { int x = 0x7FFFFFFFFFFFFFFF; return x + 1; }"); // wrap
}

#[test]
fn division_millicode() {
    check1("int main(){ return 17/5 + 17%5 + (-17)/5 + (-17)%5 + 17/(-5) + 17%(-5); }");
    check1("int main(){ int z = 0; return 7/z + 7%z; }");
    check1("int main(){ int s = 0; int i = 0; for (i = 1; i < 50; i = i + 1) { s = s + 1000/i + 1000%i; } return s; }");
}

#[test]
fn comparisons_and_logic() {
    check1("int main() { return (3 < 4) + (4 <= 4) + (5 > 4) + (4 >= 5) + (3 == 3) + (3 != 3); }");
    check1("int main() { int a = 5; return a > 0 && a < 10 || a == 99; }");
    check1("int calls; int bump(int v) { calls = calls + 1; return v; } int main() { int r = 0 && bump(1); r = r + (1 || bump(1)); return calls * 100 + r; }");
}

#[test]
fn control_flow() {
    check1("int main() { int n = 10; int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }");
    check1(
        "int main() { int s = 0; int i = 0; int j = 0;
           for (i = 0; i < 10; i = i + 1) {
             for (j = 0; j < 10; j = j + 1) { if ((i + j) % 3 == 0) { s = s + i * j; } }
           }
           return s; }",
    );
    check1("int collatz(int n) { int c = 0; while (n != 1) { if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } c = c + 1; } return c; } int main() { return collatz(27); }");
}

#[test]
fn globals_arrays_commons() {
    check1("int g; int main() { g = 41; g = g + 1; return g; }");
    check1("int init = 77; int main() { return init; }");
    check1("int a[32]; int main() { int i = 0; for (i = 0; i < 32; i = i + 1) { a[i] = i * i; } int s = 0; for (i = 0; i < 32; i = i + 1) { s = s + a[i]; } return s; }");
    check1("int t[4] = { 10, -20, 30, -40 }; int main() { return t[0] + t[1] + t[2] + t[3]; }");
    check1("int a[8]; int main() { a[3] = 7; return a[3] + a[2]; }"); // constant index
}

#[test]
fn floats() {
    check1("float h; int main() { h = 2.5; return int(h * 4.0); }");
    check1("int main() { float x = 1.0; int i = 0; for (i = 0; i < 10; i = i + 1) { x = x * 1.5; } return int(x); }");
    check1("int main() { float a = 3.25; float b = 1.25; return int((a + b) * (a - b) / b); }");
    check1("int main() { return int(float(7) / 2.0 * 100.0); }");
    check1("int main() { float x = -2.5; if (x < 0.0) { return 1; } return 0; }");
    check1("int main() { float a = 1.5; float b = 1.5; return (a == b) * 10 + (a != b) + (a <= b) * 100 + (a > b); }");
    check1("float acc; float scale(float v, float k) { return v * k; } int main() { acc = 10.0; acc = scale(acc, 0.5) + scale(acc, 2.0); return int(acc); }");
}

#[test]
fn calls_and_recursion() {
    check1("int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } int main() { return fib(15); }");
    check1("static int helper(int x) { return x * 3; } int main() { return helper(helper(2)); }");
    check1(
        "int a(int x) { return x + 1; } int b(int x) { return a(x) * 2; } int c(int x) { return b(x) + a(x); } int main() { return c(10); }",
    );
}

#[test]
fn many_arguments_spill_to_stack() {
    check1(
        "int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
           return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h;
         }
         int main() { return sum8(1, 2, 3, 4, 5, 6, 7, 8); }",
    );
    check1(
        "float mix(int a, float b, int c, float d, int e, float f, int g, float h) {
           return float(a) + b * 2.0 + float(c) * 3.0 + d + float(e) - f + float(g) * h;
         }
         int main() { return int(mix(1, 2.5, 3, 4.5, 5, 6.5, 7, 8.5)); }",
    );
}

#[test]
fn register_pressure_spills() {
    let mut body = String::from("int main() { int x = 3;\n");
    for i in 0..30 {
        body.push_str(&format!("int v{i} = x + {i};\n"));
    }
    body.push_str("int s = 0;\n");
    for i in 0..30 {
        body.push_str(&format!("s = s + v{i} * v{i};\n"));
    }
    body.push_str("return s; }");
    check1(&body);
}

#[test]
fn procedure_variables() {
    check1(
        "int add1(int x) { return x + 1; }
         int dbl(int x) { return x * 2; }
         fnptr op;
         int apply(int v) { return op(v); }
         int main() {
           op = &add1;
           int a = apply(10);
           op = &dbl;
           return a + apply(10);
         }",
    );
    check1(
        "int five(int x) { return 5 + x; }
         fnptr h = &five;
         int main() { return h(1) + (h == &five) * 100; }",
    );
}

#[test]
fn cross_module_programs() {
    check(&[
        (
            "main",
            "extern int poly(int); extern int table_get(int); extern int table_put(int, int);
             int main() {
               int i = 0;
               for (i = 0; i < 16; i = i + 1) { table_put(i, poly(i)); }
               int s = 0;
               for (i = 0; i < 16; i = i + 1) { s = s + table_get(i); }
               return s;
             }",
        ),
        (
            "poly",
            "static int sq(int x) { return x * x; }
             int poly(int x) { return sq(x) * 3 - x * 2 + 7; }",
        ),
        (
            "table",
            "static int data[16];
             int table_put(int i, int v) { data[i] = v; return v; }
             int table_get(int i) { return data[i]; }",
        ),
    ]);
}

#[test]
fn statics_shadow_across_modules() {
    check(&[
        (
            "a",
            "extern int helper(int);
             static int tweak(int x) { return x + 1; }
             int main() { return helper(tweak(1)); }",
        ),
        (
            "b",
            "static int tweak(int x) { return x * 10; }
             int helper(int x) { return tweak(x); }",
        ),
    ]);
}

#[test]
fn compile_all_matches_compile_each() {
    let sources = [
        (
            "m1",
            "extern int twist(int);
             int acc;
             static int mask(int x) { return x & 0xFF; }
             int main() { int i = 0; for (i = 0; i < 20; i = i + 1) { acc = acc + twist(mask(acc + i)); } return acc; }",
        ),
        (
            "m2",
            "static int mask(int x) { return x ^ 0x55; }
             int twist(int x) { return mask(x) * 3 + x / 7; }",
        ),
        ("divmod", DIV_SRC),
    ];
    let expected = run_sources(&sources, 50_000_000).unwrap();

    // compile-each
    let each = run_compiled(&sources, &CompileOpts::o2());
    assert_eq!(each, expected);

    // compile-all: user modules merged, divmod treated as a library.
    let all_obj =
        om_codegen::compile_all_sources("prog", &sources[..2], &CompileOpts::o2()).unwrap();
    let div_obj = compile_source("divmod", DIV_SRC, &CompileOpts::o2()).unwrap();
    let objects = [crt0::module().unwrap(), all_obj, div_obj];
    let (image, _) = link_modules(&objects, &[], &LayoutOpts::default()).unwrap();
    assert_eq!(run_image(&image, STEPS).unwrap().result, expected);
}

#[test]
fn write_int_output() {
    let src = "extern int __write_int(int);
               int main() { __write_int(7); __write_int(-3); return 0; }";
    let obj = compile_source("t", src, &CompileOpts::o2()).unwrap();
    let objects = [crt0::module().unwrap(), obj];
    let (image, _) = link_modules(&objects, &[], &LayoutOpts::default()).unwrap();
    let r = run_image(&image, STEPS).unwrap();
    assert_eq!(r.output, vec![7, -3]);
}
