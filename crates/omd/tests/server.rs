//! End-to-end tests of the link server: caching, byte-identity with the
//! one-shot pipeline, malformed-input isolation, poison-safety under
//! injected faults, and the socket front end.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::{
    optimize_and_link_with, FaultKind, FaultPlan, OmError, OmLevel, OmOptions,
};
use om_objfile::{Module, Reloc, RelocKind, SymId, Symbol};
use om_omd::{serve, Client, LinkServer};
use std::sync::Arc;

const MAIN_SRC: &str = "extern int helper(int);
     int total;
     int main() { int i = 0;
        for (i = 0; i < 6; i = i + 1) { total = total + helper(i); }
        return total; }";

const HELPER_SRC: &str = "int helper(int x) { return x * 3 + 1; }";
const HELPER_EDITED: &str = "int helper(int x) { return x * 3 + 2; }";

/// crt0 + main + helper: three modules, so per-module accounting is
/// observable (M = 3).
fn program(helper_src: &str) -> Vec<Module> {
    let opts = CompileOpts::o2();
    vec![
        crt0::module().unwrap(),
        compile_source("main", MAIN_SRC, &opts).unwrap(),
        compile_source("helper", helper_src, &opts).unwrap(),
    ]
}

/// A structurally broken module: a patch-field relocation hanging off the
/// end of the text section. `Module::validate` rejects it, so the link
/// must fail with a typed error.
fn broken_module() -> Module {
    let mut m = Module::new("broken");
    m.text = vec![0u8; 16];
    m.symbols.push(Symbol::proc("__broken", 0, 16, 0));
    m.relocs.push(Reloc::text(14, RelocKind::Gprel16 { sym: SymId(0), addend: 0, gp_group: 0 }));
    m
}

#[test]
fn repeat_requests_are_cached_and_byte_identical() {
    let server = LinkServer::new(vec![]);
    let objects = program(HELPER_SRC);
    let options = OmOptions::default();

    let first = server.link(&objects, OmLevel::FullSched, &options).unwrap();
    assert!(!first.cached, "first request must compute");
    let second = server.link(&objects, OmLevel::FullSched, &options).unwrap();
    assert!(second.cached, "identical request must be served from cache");
    assert_eq!(
        first.output.image.to_bytes(),
        second.output.image.to_bytes(),
        "cached reply must be byte-identical"
    );

    // And identical to a one-shot, cache-free pipeline run.
    let oneshot = optimize_and_link_with(&objects, &[], OmLevel::FullSched, &options).unwrap();
    assert_eq!(oneshot.image.to_bytes(), first.output.image.to_bytes());

    // Different level → different key → fresh link.
    let simple = server.link(&objects, OmLevel::Simple, &options).unwrap();
    assert!(!simple.cached);
}

#[test]
fn single_module_edit_misses_only_that_module() {
    let server = LinkServer::new(vec![]);
    let options = OmOptions::default();

    let before = program(HELPER_SRC);
    server.link(&before, OmLevel::Full, &options).unwrap();
    let base = server.caches().modules.stats();
    assert_eq!(base.misses, 3, "cold link translates all three modules");
    assert_eq!(base.hits, 0);

    // Edit exactly one module; the other two must be translation-cache hits.
    let after = program(HELPER_EDITED);
    let relinked = server.link(&after, OmLevel::Full, &options).unwrap();
    assert!(!relinked.cached, "edited input is a new link key");
    let now = server.caches().modules.stats();
    assert_eq!(now.misses - base.misses, 1, "only the edited module re-translates");
    assert_eq!(now.hits - base.hits, 2, "unchanged modules are cache hits");

    // The relink is still semantically right: helper now adds 2 per call.
    let run = om_sim::run_image(&relinked.output.image, 1_000_000).unwrap();
    assert_eq!(run.result, (0..6).map(|i| i * 3 + 2).sum::<i64>());
}

#[test]
fn malformed_module_is_a_typed_error_and_the_server_survives() {
    let server = LinkServer::new(vec![]);
    let options = OmOptions::default();

    let mut objects = program(HELPER_SRC);
    objects.push(broken_module());
    let err = server.link(&objects, OmLevel::Full, &options).unwrap_err();
    assert!(matches!(err, OmError::Link(_)), "got {err}");
    assert_eq!(server.caches().links.stats().aborts, 1, "failed link releases its slot");
    assert_eq!(server.caches().links.len(), 0, "no entry may be left behind");

    // The server keeps serving: the same objects without the broken module
    // link fine, and a retry of the broken request fails again (recomputed,
    // not wedged).
    let ok = server.link(&objects[..3], OmLevel::Full, &options).unwrap();
    assert!(!ok.cached);
    let again = server.link(&objects, OmLevel::Full, &options).unwrap_err();
    assert!(matches!(again, OmError::Link(_)));
    assert_eq!(server.caches().links.stats().aborts, 2);
}

#[test]
fn faulted_request_poisons_nobody_and_recovery_is_clean() {
    let server = Arc::new(LinkServer::new(vec![]));
    let objects = program(HELPER_SRC);

    // CountSkew under verify=true makes the pipeline itself fail (the
    // verifier catches the skewed deletion counter), mid-request, after the
    // cache slot is reserved. Every fresh FaultPlan with the same (kind,
    // site) fingerprints identically, so all these requests share one key.
    let faulted = || OmOptions {
        verify: true,
        fault: Some(FaultPlan::new(FaultKind::CountSkew, 0)),
        ..OmOptions::default()
    };

    // Many threads race the same doomed request: each must observe the
    // verification error — none may hang on a wedged in-flight slot.
    let workers: Vec<_> = (0..6)
        .map(|_| {
            let server = Arc::clone(&server);
            let objects = objects.clone();
            std::thread::spawn(move || {
                server.link(&objects, OmLevel::Full, &faulted()).unwrap_err()
            })
        })
        .collect();
    for w in workers {
        let err = w.join().expect("worker must not panic");
        assert!(matches!(err, OmError::Verify { .. }), "got {err}");
    }
    assert_eq!(server.caches().links.len(), 0, "failed computes must leave no entry");
    let aborts = server.caches().links.stats().aborts;
    assert!(aborts >= 1, "every failure released its reservation ({aborts} aborts)");

    // The same objects without the fault are a different key and link fine;
    // a later faulted retry still recomputes (and fails) rather than
    // hanging on stale state.
    let clean = server.link(&objects, OmLevel::Full, &OmOptions::default()).unwrap();
    assert!(!clean.cached);
    let retry = server.link(&objects, OmLevel::Full, &faulted()).unwrap_err();
    assert!(matches!(retry, OmError::Verify { .. }));
}

#[test]
fn socket_round_trip_serves_cached_links_and_shuts_down() {
    let path = std::env::temp_dir().join(format!("omd-test-{}.sock", std::process::id()));
    let handle = serve(&path, Arc::new(LinkServer::new(vec![]))).unwrap();
    let objects = program(HELPER_SRC);

    let mut client = Client::connect(&path).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(pong.version, env!("CARGO_PKG_VERSION"));
    assert_eq!(pong.requests, 1, "the first request is this ping itself");

    // Verified links: the served image has passed `--verify` server-side.
    let (cached1, image1) = client.link(&objects, OmLevel::FullSched, true).unwrap().unwrap();
    assert!(!cached1);
    let (cached2, image2) = client.link(&objects, OmLevel::FullSched, true).unwrap().unwrap();
    assert!(cached2, "second identical request over the wire is a cache hit");
    assert_eq!(image1.to_bytes(), image2.to_bytes());

    // Byte-identical to the in-process one-shot pipeline.
    let oneshot =
        optimize_and_link_with(&objects, &[], OmLevel::FullSched, &OmOptions::default()).unwrap();
    assert_eq!(oneshot.image.to_bytes(), image1.to_bytes());

    // A bad request over the wire is an error reply, not a dead server.
    let mut bad = objects.clone();
    bad.push(broken_module());
    let err = client.link(&bad, OmLevel::Full, false).unwrap().unwrap_err();
    assert!(!err.is_empty());
    let pong = client.ping().unwrap();
    assert_eq!(pong.requests, 5, "first ping + 3 links + this ping");

    // An undecodable frame is an error reply too — and lands in the
    // `error` latency bucket rather than a named endpoint.
    {
        use om_omd::wire::{decode_reply, read_frame, write_frame, Reply};
        let mut raw = std::os::unix::net::UnixStream::connect(&path).unwrap();
        write_frame(&mut raw, &[0xEE, 1, 2, 3]).unwrap();
        let reply = decode_reply(&read_frame(&mut raw).unwrap()).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "got {reply:?}");
    }

    let stats = client.stats().unwrap();
    assert!(
        stats.caches.contains("links:"),
        "stats line should mention the link cache: {}",
        stats.caches
    );
    assert_eq!(stats.version, env!("CARGO_PKG_VERSION"));
    assert_eq!(stats.requests, 7, "…plus the raw error frame and this stats request");
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    let count = |name: &str| {
        stats
            .endpoints
            .iter()
            .find(|ep| ep.name == name)
            .map_or(0, |ep| ep.latency_us.count())
    };
    assert_eq!(count("ping"), 2);
    assert_eq!(count("link"), 3, "two good links plus the rejected one");
    assert_eq!(count("error"), 1, "the undecodable frame");
    // This stats request itself is mid-flight while the snapshot is taken;
    // a second request observes it completed.
    let again = client.stats().unwrap();
    assert_eq!(
        again.endpoints.iter().find(|ep| ep.name == "stats").map(|ep| ep.latency_us.count()),
        Some(1)
    );
    assert!(again.uptime_ms >= stats.uptime_ms);

    client.shutdown().unwrap();
    handle.wait();
    assert!(
        Client::connect(&path).is_err(),
        "socket file must be gone after shutdown"
    );
}
