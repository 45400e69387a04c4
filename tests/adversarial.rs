//! The adversarial corpus's object cases: raw modules on or past a hard
//! limit. Where the standard linker must fail with a range error, OM at
//! every level with the verifier on fails with the same error; where it
//! links, so does OM.

use om_bench::adversarial::{corpus, run_case, CaseKind};

#[test]
fn every_object_case_agrees_with_the_standard_link() {
    let cases: Vec<_> =
        corpus().into_iter().filter(|c| !matches!(c.kind, CaseKind::Source(_))).collect();
    assert!(cases.len() >= 6, "{} object cases", cases.len());
    for case in &cases {
        run_case(case).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    }
}
