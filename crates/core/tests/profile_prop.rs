//! Property test: `Profile` JSON serialization round-trips exactly under
//! randomly generated contents, including overflow-adjacent counts — the
//! profile travels between `asim --profile` and `om --profile-use` as a
//! file, so the wire format must be lossless for every value a run can
//! produce (`u64` saturates at `u64::MAX`, which must survive the trip).

use om_core::{CallEdge, ProcProfile, Profile};
use om_prng::StdRng;

/// Counts stressing the integer-parsing edge: small, around `i64::MAX` (a
/// sign-extension bug's favorite spot), and right at `u64::MAX` (where a
/// `checked_mul`/`checked_add`-less parser wraps).
fn gen_count(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0..1000) as u64,
        1 => u64::from(u32::MAX) + rng.gen_range(0..5) as u64,
        2 => i64::MAX as u64 - rng.gen_range(0..3) as u64 + rng.gen_range(0..6) as u64,
        _ => u64::MAX - rng.gen_range(0..3) as u64,
    }
}

fn gen_name(rng: &mut StdRng, i: usize) -> String {
    // Exercise the escaper too: names with quotes, backslashes, control
    // characters, and non-ASCII — hostile but legal symbol spellings.
    match rng.gen_range(0..5) {
        0 => format!("p{i}"),
        1 => format!("p{i}.module_{}", rng.gen_range(0..10)),
        2 => format!("we\"ird{i}"),
        3 => format!("tab\there\\{i}"),
        _ => format!("unicodé_{i}_\u{1F600}"),
    }
}

fn gen_profile(rng: &mut StdRng) -> Profile {
    let n = rng.gen_range(0..20);
    let procs: Vec<ProcProfile> = (0..n)
        .map(|i| ProcProfile {
            name: gen_name(rng, i),
            calls: gen_count(rng),
            insts: gen_count(rng),
            back_targets: (0..rng.gen_range(0..6)).map(|_| gen_count(rng)).collect(),
        })
        .collect();
    let edges = (0..rng.gen_range(0..15))
        .map(|k| CallEdge {
            caller: gen_name(rng, k),
            callee: gen_name(rng, k + 100),
            count: gen_count(rng),
        })
        .collect();
    let mut p = Profile { total_insts: gen_count(rng), procs, edges };
    p.normalize();
    p
}

#[test]
fn roundtrip_is_lossless_for_random_profiles() {
    let mut rng = StdRng::seed_from_u64(0xF11E_5EED);
    for case in 0..500 {
        let p = gen_profile(&mut rng);
        let json = p.to_json();
        let back = Profile::from_json(&json)
            .unwrap_or_else(|e| panic!("case {case}: rejected own output: {e}\n{json}"));
        assert_eq!(back, p, "case {case}: roundtrip changed the profile\n{json}");
        // Serialization is canonical: a second trip is byte-identical.
        assert_eq!(back.to_json(), json, "case {case}: non-canonical serialization");
    }
}

#[test]
fn extreme_counts_survive_exactly() {
    let p = {
        let mut p = Profile {
            total_insts: u64::MAX,
            procs: vec![ProcProfile {
                name: "edge".into(),
                calls: u64::MAX,
                insts: u64::MAX - 1,
                back_targets: vec![0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX],
            }],
            edges: vec![CallEdge {
                caller: "edge".into(),
                callee: "edge".into(),
                count: u64::MAX,
            }],
        };
        p.normalize();
        p
    };
    let back = Profile::from_json(&p.to_json()).expect("roundtrip");
    assert_eq!(back, p);
    assert_eq!(back.procs[0].back_targets[4], u64::MAX);
}

#[test]
fn overflowing_count_is_rejected_not_wrapped() {
    // One digit past u64::MAX: a wrapping parser would accept this as a
    // small number; ours must refuse the profile outright.
    let json = r#"{"schema": "om-profile/v1", "total_insts": 18446744073709551616, "procs": [], "edges": []}"#;
    assert!(Profile::from_json(json).is_err());
}

#[test]
fn truncated_profiles_are_rejected() {
    let mut rng = StdRng::seed_from_u64(7);
    let p = gen_profile(&mut rng);
    let json = p.to_json();
    // Chop the serialization at a few interior points; every prefix must be
    // an error, never a silently partial profile.
    for cut in [json.len() / 4, json.len() / 2, json.len() - 2] {
        let mut cut = cut;
        while !json.is_char_boundary(cut) {
            cut -= 1;
        }
        assert!(
            Profile::from_json(&json[..cut]).is_err(),
            "prefix of {cut} bytes parsed successfully"
        );
    }
}
