//! The unix-socket front end: an accept loop serving [`wire`] frames, one
//! thread per connection, plus a small [`Client`] for the other side.
//!
//! [`wire`]: crate::wire

use crate::server::LinkServer;
use crate::wire::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame, Pong,
    Reply, Request, ServerStats,
};
use om_core::{OmLevel, OmOptions};
use om_linker::Image;
use om_objfile::{binary, Module};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// A running socket server. Dropping the handle leaves the server running
/// (detached); call [`ServerHandle::shutdown`] to stop it, or send a
/// `Shutdown` request from any client.
pub struct ServerHandle {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    accept_loop: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The socket path the server is listening on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Blocks until the accept loop exits (i.e. until some client sends a
    /// `Shutdown` request). The `omd serve` subcommand uses this to stay in
    /// the foreground.
    pub fn wait(self) {
        let _ = self.accept_loop.join();
        let _ = std::fs::remove_file(&self.path);
    }

    /// Stops the accept loop and waits for it to exit. In-flight
    /// connections finish on their own threads.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag on its next wakeup; a
        // throwaway connection provides one.
        let _ = UnixStream::connect(&self.path);
        let _ = self.accept_loop.join();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Binds `path` and serves `server` over it until shut down. An existing
/// socket file at `path` is replaced (a stale file from a dead server would
/// otherwise make the address unusable).
pub fn serve(path: impl AsRef<Path>, server: Arc<LinkServer>) -> io::Result<ServerHandle> {
    serve_traced(path, server, None)
}

/// [`serve`], with an optional [`om_obs::Trace`] installed on every
/// connection thread: each served request is an `omd.decode` span (the
/// frame's decode, which names the endpoint) followed by an
/// `omd.<endpoint>` span that ends with the reply's `omd.reply` encoding.
/// A link request's span holds the rest: the module reads (`omd.decode`),
/// the key's `hash`, the whole pipeline on a link-cache miss, and the
/// served image's bytes (`omd.reply`). `omd serve --trace-json` writes the
/// collected trace when the server shuts down.
pub fn serve_traced(
    path: impl AsRef<Path>,
    server: Arc<LinkServer>,
    trace: Option<om_obs::Trace>,
) -> io::Result<ServerHandle> {
    let path = path.as_ref().to_path_buf();
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    let stop = Arc::new(AtomicBool::new(false));

    let loop_stop = Arc::clone(&stop);
    let loop_path = path.clone();
    let accept_loop = thread::spawn(move || {
        for conn in listener.incoming() {
            if loop_stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let server = Arc::clone(&server);
            let stop = Arc::clone(&loop_stop);
            let path = loop_path.clone();
            let trace = trace.clone();
            thread::spawn(move || {
                let _guard = trace.as_ref().map(om_obs::Trace::install);
                serve_connection(stream, &server, &stop, &path);
            });
        }
    });

    Ok(ServerHandle { path, stop, accept_loop })
}

/// Serves one connection until EOF or a shutdown request. Every failure
/// mode — unreadable frame, undecodable request, malformed module, link
/// error, pipeline panic — is a `Reply::Error` (or a dropped connection),
/// never a dead server. Requests and modules are read through the
/// bounds-checked [`om_objfile::binary::Reader`], so no length prefix, however
/// large, panics the connection's thread.
fn serve_connection(mut stream: UnixStream, server: &LinkServer, stop: &AtomicBool, path: &Path) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => return, // EOF or a framing error: drop the connection
        };
        let t0 = Instant::now();
        server.metrics().note_request();
        let decoded = {
            let _s = om_obs::span("omd.decode");
            decode_request(&payload)
        };
        // An undecodable payload has no endpoint of its own; it lands in
        // the `error` bucket so corrupt-client storms show up in stats.
        let endpoint = match &decoded {
            Err(_) => "error",
            Ok(Request::Ping) => "ping",
            Ok(Request::Stats) => "stats",
            Ok(Request::Shutdown) => "shutdown",
            Ok(Request::Link { .. }) => "link",
        };
        let mut span = om_obs::span(match endpoint {
            "error" => "omd.error",
            "ping" => "omd.ping",
            "stats" => "omd.stats",
            "shutdown" => "omd.shutdown",
            _ => "omd.link",
        });
        let shutting_down = matches!(decoded, Ok(Request::Shutdown));
        let reply = match decoded {
            Err(e) => Reply::Error(format!("bad request: {e}")),
            Ok(Request::Ping) => Reply::Pong(server.metrics().pong()),
            Ok(Request::Stats) => Reply::Stats(server.server_stats()),
            Ok(Request::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                Reply::ShuttingDown
            }
            Ok(Request::Link { level, verify, objects }) => {
                handle_link(server, level, verify, &objects)
            }
        };
        let reply_bytes = {
            let _s = om_obs::span("omd.reply");
            encode_reply(&reply)
        };
        // Frame overheads (the 4-byte length prefixes) count as wire bytes.
        server.metrics().note_bytes(payload.len() as u64 + 4, reply_bytes.len() as u64 + 4);
        span.arg("bytes_in", payload.len() as u64 + 4);
        span.arg("bytes_out", reply_bytes.len() as u64 + 4);
        drop(span);
        server.metrics().note_latency(endpoint, t0.elapsed().as_micros() as u64);
        let sent = write_frame(&mut stream, &reply_bytes);
        if shutting_down {
            // Wake the accept loop so it observes the stop flag.
            let _ = UnixStream::connect(path);
            return;
        }
        if sent.is_err() {
            return;
        }
    }
}

/// Links a request's objects. Inside the `omd.link` span, the module reads
/// are an `omd.decode` span and the served image's bytes an `omd.reply`
/// span, like the frame's decode and encoding around it.
fn handle_link(server: &LinkServer, level: OmLevel, verify: bool, objects: &[Vec<u8>]) -> Reply {
    let decode = om_obs::span("omd.decode");
    let mut modules = Vec::with_capacity(objects.len());
    for (i, bytes) in objects.iter().enumerate() {
        match binary::read_module(bytes) {
            Ok(m) => modules.push(m),
            Err(e) => return Reply::Error(format!("object {i}: {e}")),
        }
    }
    drop(decode);
    let options = OmOptions { verify, ..OmOptions::default() };
    match server.link(&modules, level, &options) {
        Ok(reply) => {
            let _s = om_obs::span("omd.reply");
            Reply::Linked { cached: reply.cached, image: reply.output.image.to_bytes() }
        }
        Err(e) => Reply::Error(e.to_string()),
    }
}

/// A blocking client for one socket connection. Each method sends a single
/// request and waits for its reply.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a serving `omd` at `path`.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Client> {
        Ok(Client { stream: UnixStream::connect(path)? })
    }

    fn round_trip(&mut self, req: &Request) -> io::Result<Reply> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let payload = read_frame(&mut self.stream)?;
        decode_reply(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn unexpected(reply: Reply) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("unexpected reply: {reply:?}"))
    }

    /// Liveness probe. The reply carries the server's version, uptime, and
    /// cumulative request count.
    pub fn ping(&mut self) -> io::Result<Pong> {
        match self.round_trip(&Request::Ping)? {
            Reply::Pong(p) => Ok(p),
            other => Err(Self::unexpected(other)),
        }
    }

    /// The server's statistics: cache line, wire byte counters, and
    /// per-endpoint latency histograms.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        match self.round_trip(&Request::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Asks the server to stop accepting connections and exit.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.round_trip(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Links `objects` at `level` on the server. The outer `Err` is a
    /// transport failure; the inner `Err` is a link failure reported by the
    /// server (its error `Display` string). On success, returns whether the
    /// link came entirely from cache, and the linked image.
    pub fn link(
        &mut self,
        objects: &[Module],
        level: OmLevel,
        verify: bool,
    ) -> io::Result<Result<(bool, Image), String>> {
        let req = Request::Link {
            level,
            verify,
            objects: objects.iter().map(binary::write_module).collect(),
        };
        match self.round_trip(&req)? {
            Reply::Linked { cached, image } => match Image::from_bytes(&image) {
                Ok(image) => Ok(Ok((cached, image))),
                Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            },
            Reply::Error(msg) => Ok(Err(msg)),
            other => Err(Self::unexpected(other)),
        }
    }
}
