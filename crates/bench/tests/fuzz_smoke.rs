//! Tier-1 differential-fuzz smoke: a bounded, fixed-seed slice of the
//! `omfuzz` campaign runs on every `cargo test`. Each seed checks the mini-C
//! interpreter's checksum against all 8 `(compile mode × OM level)` variants
//! plus a profile-guided relink per mode, each with the linked-image
//! verifier enabled, so a regression in codegen, the linker, an OM
//! transformation, profiling, or the simulator fails here — not just in
//! the standalone `omfuzz` binary.

use om_bench::fuzz::{check, generate, Outcome};

#[test]
fn fixed_seed_slice_is_clean() {
    for seed in 0..10 {
        let prog = generate(seed);
        match check(&prog) {
            Outcome::Pass => {}
            Outcome::Skip(why) => panic!("seed {seed} skipped: {why}"),
            Outcome::Fail { reference, mismatches } => {
                let mut msg = format!("seed {seed} (reference {reference:?}):\n");
                for m in &mismatches {
                    msg.push_str(&format!("  {}: {}\n", m.variant, m.detail));
                }
                panic!("{msg}");
            }
        }
    }
}
