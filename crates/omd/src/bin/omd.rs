//! `omd` — the OM link server, on the command line.
//!
//! ```text
//! omd serve <socket> [--trace-json OUT.json]   # serve (foreground) with the stdlib
//! omd link <socket> [--level L] [--verify] -o <out> <obj>...
//! omd ping <socket>
//! omd stats <socket>
//! omd shutdown <socket>
//! ```
//!
//! `serve` links every request against the pre-compiled workload stdlib —
//! compiled once at startup, cached for the life of the server. `link`
//! sends serialized object modules (as written by
//! [`om_objfile::binary::write_module`]) and writes the linked image bytes
//! to `-o`.
//!
//! `ping` reports the server's version, uptime, and cumulative request
//! count; `stats` adds the cache counters, wire byte totals, and a
//! per-endpoint request-latency table (p50/p99 from the server's log2
//! histograms). `serve --trace-json` records every request as an
//! `omd.<endpoint>` span — link requests carry the whole pipeline's spans
//! nested inside — and writes the chrome://tracing file at shutdown.
//!
//! A usage error (a missing argument, an unknown command or `-` option)
//! exits 2 with the usage text; a runtime failure, such as a failed
//! connect, bind or link, exits 1.

use om_core::OmLevel;
use om_objfile::binary;
use om_omd::{serve_traced, Client, LinkServer};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage:
  omd serve <socket> [--trace-json OUT.json]
  omd link <socket> [--level none|simple|full|full-sched] [--verify] -o <out> <obj>...
  omd ping <socket>
  omd stats <socket>
  omd shutdown <socket>";

fn fail(msg: &str) -> ExitCode {
    eprintln!("omd: {msg}");
    ExitCode::FAILURE
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("omd: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    om_obs::exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage("no command given"),
    };
    match cmd {
        "serve" => cmd_serve(rest),
        "link" => cmd_link(rest),
        "ping" | "stats" | "shutdown" => cmd_simple(cmd, rest),
        _ => usage(&format!("unknown command {cmd}")),
    }
}

fn cmd_serve(rest: &[String]) -> ExitCode {
    let mut socket = None;
    let mut trace_json = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-json" => match it.next() {
                Some(p) if !p.is_empty() && !p.starts_with('-') => trace_json = Some(p.clone()),
                _ => return usage("--trace-json needs an output path"),
            },
            other if other.starts_with('-') => {
                return usage(&format!("unknown serve option {other}"))
            }
            _ if socket.is_none() => socket = Some(arg.clone()),
            other => return usage(&format!("unexpected serve argument {other}")),
        }
    }
    let Some(socket) = socket else { return usage("serve needs a socket path") };
    let libs = match om_workloads::stdlib_libs() {
        Ok(libs) => libs.to_vec(),
        Err(e) => return fail(&format!("stdlib: {e}")),
    };
    let server = Arc::new(LinkServer::new(libs));
    let trace = trace_json.as_ref().map(|_| om_obs::Trace::new());
    match serve_traced(&socket, server, trace.clone()) {
        Ok(handle) => {
            eprintln!("omd: serving on {socket}");
            handle.wait();
            if let (Some(out), Some(t)) = (&trace_json, &trace) {
                if let Err(e) = std::fs::write(out, t.chrome_json("omd")) {
                    return fail(&format!("cannot write {out}: {e}"));
                }
                eprintln!("omd: wrote trace {out}");
            }
            eprintln!("omd: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("bind {socket}: {e}")),
    }
}

fn cmd_simple(cmd: &str, rest: &[String]) -> ExitCode {
    let socket = match rest {
        [s] if !s.starts_with('-') => s,
        _ => return usage(&format!("{cmd} needs exactly one socket path")),
    };
    let mut client = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => return fail(&format!("connect {socket}: {e}")),
    };
    let outcome = match cmd {
        "ping" => client.ping().map(|p| {
            format!("pong: omd {} up {} ms, {} requests served", p.version, p.uptime_ms, p.requests)
        }),
        "stats" => client.stats().map(|s| {
            let mut out = format!(
                "omd {} up {} ms | {} requests | wire {} B in, {} B out\n{}",
                s.version, s.uptime_ms, s.requests, s.bytes_in, s.bytes_out, s.caches
            );
            for ep in &s.endpoints {
                let h = &ep.latency_us;
                out.push_str(&format!(
                    "\n{:>9}: {} requests, p50 {} us, p99 {} us (min {}, max {})",
                    ep.name,
                    h.count(),
                    h.p50(),
                    h.p99(),
                    h.min(),
                    h.max()
                ));
            }
            out
        }),
        _ => client.shutdown().map(|()| "shutting down".to_string()),
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{cmd}: {e}")),
    }
}

fn cmd_link(rest: &[String]) -> ExitCode {
    let mut socket = None;
    let mut level = OmLevel::Full;
    let mut verify = false;
    let mut out_path = None;
    let mut objects = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--level" => match it.next().and_then(|s| OmLevel::from_flag(s)) {
                Some(l) => level = l,
                None => return usage("bad or missing --level value"),
            },
            "--verify" => verify = true,
            "-o" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => return usage("missing -o value"),
            },
            other if other.starts_with('-') => {
                return usage(&format!("unknown link option {other}"))
            }
            _ if socket.is_none() => socket = Some(arg.clone()),
            _ => objects.push(arg.clone()),
        }
    }
    let (Some(socket), Some(out_path)) = (socket, out_path) else {
        return usage("link needs a socket path and -o <out>");
    };
    if objects.is_empty() {
        return usage("no object files given");
    }

    let mut modules = Vec::new();
    for path in &objects {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => return fail(&format!("read {path}: {e}")),
        };
        match binary::read_module(&bytes) {
            Ok(m) => modules.push(m),
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }

    let mut client = match Client::connect(&socket) {
        Ok(c) => c,
        Err(e) => return fail(&format!("connect {socket}: {e}")),
    };
    match client.link(&modules, level, verify) {
        Ok(Ok((cached, image))) => {
            if let Err(e) = image.write_file(&out_path) {
                return fail(&format!("write {out_path}: {e}"));
            }
            eprintln!("omd: linked {} ({})", out_path, if cached { "cached" } else { "fresh" });
            ExitCode::SUCCESS
        }
        Ok(Err(msg)) => fail(&format!("link failed: {msg}")),
        Err(e) => fail(&format!("link: {e}")),
    }
}
