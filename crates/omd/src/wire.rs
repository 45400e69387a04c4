//! The socket protocol: length-framed binary messages.
//!
//! Every message is a `u32` little-endian payload length followed by that
//! many payload bytes. The first payload byte is a tag; the rest is
//! tag-specific. Module and image bodies reuse the existing serializers
//! ([`om_objfile::binary::write_module`] and
//! [`om_linker::Image::to_bytes`]) — the wire never invents a second
//! encoding for either.

use om_core::OmLevel;
use om_obs::Histogram;
use std::io::{self, Read, Write};

/// Upper bound on a single frame, as a denial-of-nonsense guard: a corrupt
/// or hostile length prefix fails fast instead of allocating gigabytes.
pub const MAX_FRAME: u32 = 64 << 20;

const REQ_PING: u8 = 0;
const REQ_LINK: u8 = 1;
const REQ_STATS: u8 = 2;
const REQ_SHUTDOWN: u8 = 3;

const REP_PONG: u8 = 0;
const REP_LINKED: u8 = 1;
const REP_STATS: u8 = 2;
const REP_SHUTDOWN: u8 = 3;
const REP_ERROR: u8 = 4;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Link serialized modules (each produced by
    /// [`om_objfile::binary::write_module`]) at `level`, optionally with
    /// structural verification.
    Link { level: OmLevel, verify: bool, objects: Vec<Vec<u8>> },
    /// Ask for the server's cache statistics line.
    Stats,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// A `Pong` reply's payload: who is serving, for how long, and how many
/// requests it has handled so far (this ping included).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pong {
    /// The server's `CARGO_PKG_VERSION`.
    pub version: String,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Cumulative requests served over the socket.
    pub requests: u64,
}

/// One endpoint's request-latency histogram (microseconds), shipped sparse
/// over the wire ([`Histogram::nonzero`] on encode, [`Histogram::from_sparse`]
/// on decode — malformed bucket data is a typed decode error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointStats {
    /// Endpoint name: `ping`, `link`, `stats`, `shutdown`, or `error`.
    pub name: String,
    /// Request latencies in microseconds.
    pub latency_us: Histogram,
}

/// The full `Stats` reply: the legacy cache line plus the server's request
/// metrics and per-endpoint latency histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// The human-readable cache statistics line (the whole pre-metrics
    /// stats reply).
    pub caches: String,
    /// The server's `CARGO_PKG_VERSION`.
    pub version: String,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Cumulative requests served over the socket.
    pub requests: u64,
    /// Total request bytes read off the wire (frames included).
    pub bytes_in: u64,
    /// Total reply bytes written to the wire (frames included).
    pub bytes_out: u64,
    /// Per-endpoint latency histograms, sorted by endpoint name.
    pub endpoints: Vec<EndpointStats>,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `Ping` acknowledged, with the server's identity and uptime.
    Pong(Pong),
    /// A finished link: whether the whole link came from cache, and the
    /// image serialized by [`om_linker::Image::to_bytes`].
    Linked { cached: bool, image: Vec<u8> },
    /// The server's statistics: cache line, wire counters, and latency
    /// histograms.
    Stats(ServerStats),
    /// `Shutdown` acknowledged; the server exits after this reply.
    ShuttingDown,
    /// The request failed; the message is the error's `Display` form.
    Error(String),
}

/// Writes one length-framed payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-framed payload, rejecting oversized lengths before
/// allocating.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
    let end = at.checked_add(4).filter(|&e| e <= bytes.len()).ok_or("truncated u32")?;
    let v = u32::from_le_bytes(bytes[*at..end].try_into().unwrap());
    *at = end;
    Ok(v)
}

fn take_bytes(bytes: &[u8], at: &mut usize) -> Result<Vec<u8>, String> {
    let len = take_u32(bytes, at)? as usize;
    let end = at.checked_add(len).filter(|&e| e <= bytes.len()).ok_or("truncated body")?;
    let v = bytes[*at..end].to_vec();
    *at = end;
    Ok(v)
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, String> {
    let end = at.checked_add(8).filter(|&e| e <= bytes.len()).ok_or("truncated u64")?;
    let v = u64::from_le_bytes(bytes[*at..end].try_into().unwrap());
    *at = end;
    Ok(v)
}

fn take_string(bytes: &[u8], at: &mut usize, what: &str) -> Result<String, String> {
    String::from_utf8(take_bytes(bytes, at)?).map_err(|e| format!("{what} not utf8: {e}"))
}

fn put_hist(out: &mut Vec<u8>, h: &Histogram) {
    out.extend_from_slice(&h.min().to_le_bytes());
    out.extend_from_slice(&h.max().to_le_bytes());
    let pairs = h.nonzero();
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (bucket, count) in pairs {
        out.push(bucket as u8);
        out.extend_from_slice(&count.to_le_bytes());
    }
}

fn take_hist(bytes: &[u8], at: &mut usize) -> Result<Histogram, String> {
    let min = take_u64(bytes, at)?;
    let max = take_u64(bytes, at)?;
    let n = take_u32(bytes, at)?;
    let mut pairs = Vec::new();
    for _ in 0..n {
        let bucket = *bytes.get(*at).ok_or("truncated histogram bucket")? as usize;
        *at += 1;
        pairs.push((bucket, take_u64(bytes, at)?));
    }
    Histogram::from_sparse(min, max, &pairs)
}

/// Serializes a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => vec![REQ_PING],
        Request::Stats => vec![REQ_STATS],
        Request::Shutdown => vec![REQ_SHUTDOWN],
        Request::Link { level, verify, objects } => {
            let mut out = vec![REQ_LINK, level.index() as u8, u8::from(*verify)];
            out.extend_from_slice(&(objects.len() as u32).to_le_bytes());
            for obj in objects {
                put_bytes(&mut out, obj);
            }
            out
        }
    }
}

/// Parses a request payload. Malformed input is an error string, never a
/// panic — the serve loop turns it into a [`Reply::Error`].
pub fn decode_request(bytes: &[u8]) -> Result<Request, String> {
    match bytes.first() {
        None => Err("empty request".to_string()),
        Some(&REQ_PING) => Ok(Request::Ping),
        Some(&REQ_STATS) => Ok(Request::Stats),
        Some(&REQ_SHUTDOWN) => Ok(Request::Shutdown),
        Some(&REQ_LINK) => {
            let mut at = 1;
            let level_index =
                *bytes.get(at).ok_or("truncated link request: missing level")? as usize;
            let level = *OmLevel::ALL
                .get(level_index)
                .ok_or_else(|| format!("unknown level index {level_index}"))?;
            at += 1;
            let verify = match bytes.get(at) {
                Some(0) => false,
                Some(1) => true,
                Some(v) => return Err(format!("bad verify flag {v}")),
                None => return Err("truncated link request: missing verify flag".to_string()),
            };
            at += 1;
            let count = take_u32(bytes, &mut at)?;
            let mut objects = Vec::new();
            for _ in 0..count {
                objects.push(take_bytes(bytes, &mut at)?);
            }
            Ok(Request::Link { level, verify, objects })
        }
        Some(tag) => Err(format!("unknown request tag {tag}")),
    }
}

/// Serializes a reply payload (frame it with [`write_frame`]).
pub fn encode_reply(rep: &Reply) -> Vec<u8> {
    match rep {
        Reply::Pong(p) => {
            let mut out = vec![REP_PONG];
            put_bytes(&mut out, p.version.as_bytes());
            out.extend_from_slice(&p.uptime_ms.to_le_bytes());
            out.extend_from_slice(&p.requests.to_le_bytes());
            out
        }
        Reply::ShuttingDown => vec![REP_SHUTDOWN],
        Reply::Stats(s) => {
            let mut out = vec![REP_STATS];
            put_bytes(&mut out, s.caches.as_bytes());
            put_bytes(&mut out, s.version.as_bytes());
            out.extend_from_slice(&s.uptime_ms.to_le_bytes());
            out.extend_from_slice(&s.requests.to_le_bytes());
            out.extend_from_slice(&s.bytes_in.to_le_bytes());
            out.extend_from_slice(&s.bytes_out.to_le_bytes());
            out.extend_from_slice(&(s.endpoints.len() as u32).to_le_bytes());
            for ep in &s.endpoints {
                put_bytes(&mut out, ep.name.as_bytes());
                put_hist(&mut out, &ep.latency_us);
            }
            out
        }
        Reply::Error(msg) => {
            let mut out = vec![REP_ERROR];
            out.extend_from_slice(msg.as_bytes());
            out
        }
        Reply::Linked { cached, image } => {
            let mut out = vec![REP_LINKED, u8::from(*cached)];
            put_bytes(&mut out, image);
            out
        }
    }
}

/// Parses a reply payload.
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, String> {
    match bytes.first() {
        None => Err("empty reply".to_string()),
        Some(&REP_PONG) => {
            let mut at = 1;
            let version = take_string(bytes, &mut at, "pong version")?;
            let uptime_ms = take_u64(bytes, &mut at)?;
            let requests = take_u64(bytes, &mut at)?;
            if at != bytes.len() {
                return Err(format!("{} trailing bytes after pong", bytes.len() - at));
            }
            Ok(Reply::Pong(Pong { version, uptime_ms, requests }))
        }
        Some(&REP_SHUTDOWN) => Ok(Reply::ShuttingDown),
        Some(&REP_STATS) => {
            let mut at = 1;
            let caches = take_string(bytes, &mut at, "stats cache line")?;
            let version = take_string(bytes, &mut at, "stats version")?;
            let uptime_ms = take_u64(bytes, &mut at)?;
            let requests = take_u64(bytes, &mut at)?;
            let bytes_in = take_u64(bytes, &mut at)?;
            let bytes_out = take_u64(bytes, &mut at)?;
            let n = take_u32(bytes, &mut at)?;
            let mut endpoints = Vec::new();
            for _ in 0..n {
                let name = take_string(bytes, &mut at, "endpoint name")?;
                let latency_us = take_hist(bytes, &mut at)?;
                endpoints.push(EndpointStats { name, latency_us });
            }
            if at != bytes.len() {
                return Err(format!("{} trailing bytes after stats", bytes.len() - at));
            }
            Ok(Reply::Stats(ServerStats {
                caches,
                version,
                uptime_ms,
                requests,
                bytes_in,
                bytes_out,
                endpoints,
            }))
        }
        Some(&REP_ERROR) => String::from_utf8(bytes[1..].to_vec())
            .map(Reply::Error)
            .map_err(|e| format!("error reply not utf8: {e}")),
        Some(&REP_LINKED) => {
            let cached = match bytes.get(1) {
                Some(0) => false,
                Some(1) => true,
                Some(v) => return Err(format!("bad cached flag {v}")),
                None => return Err("truncated linked reply".to_string()),
            };
            let mut at = 2;
            let image = take_bytes(bytes, &mut at)?;
            Ok(Reply::Linked { cached, image })
        }
        Some(tag) => Err(format!("unknown reply tag {tag}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Link {
                level: OmLevel::FullSched,
                verify: true,
                objects: vec![vec![1, 2, 3], vec![], vec![0xFF; 9]],
            },
        ];
        for req in &reqs {
            assert_eq!(&decode_request(&encode_request(req)).unwrap(), req);
        }
    }

    fn sample_stats() -> ServerStats {
        let mut ping = Histogram::new();
        for v in [12u64, 15, 9, 200] {
            ping.record(v);
        }
        let mut link = Histogram::new();
        for v in [40_000u64, 52_000, 700] {
            link.record(v);
        }
        ServerStats {
            caches: "modules: 3 entries, 2 hits".to_string(),
            version: "0.1.0".to_string(),
            uptime_ms: 77_000,
            requests: 7,
            bytes_in: 123_456,
            bytes_out: 654_321,
            endpoints: vec![
                EndpointStats { name: "link".to_string(), latency_us: link },
                EndpointStats { name: "ping".to_string(), latency_us: ping },
            ],
        }
    }

    #[test]
    fn replies_round_trip() {
        let reps = [
            Reply::Pong(Pong {
                version: "0.1.0".to_string(),
                uptime_ms: 12_345,
                requests: 99,
            }),
            Reply::ShuttingDown,
            Reply::Stats(sample_stats()),
            Reply::Stats(ServerStats::default()),
            Reply::Error("no such symbol".to_string()),
            Reply::Linked { cached: true, image: vec![7; 32] },
        ];
        for rep in &reps {
            assert_eq!(&decode_reply(&encode_reply(rep)).unwrap(), rep);
        }
    }

    #[test]
    fn malformed_pong_payloads_are_errors() {
        // A bare tag, with no payload at all.
        assert!(decode_reply(&[REP_PONG]).is_err());
        // Truncated version length.
        assert!(decode_reply(&[REP_PONG, 5, 0]).is_err());
        // Version body longer than the payload.
        assert!(decode_reply(&[REP_PONG, 9, 0, 0, 0, b'x']).is_err());
        // Version present but the u64s truncated.
        let mut short = vec![REP_PONG];
        put_bytes(&mut short, b"0.1.0");
        short.extend_from_slice(&[0; 4]);
        assert!(decode_reply(&short).is_err());
        // Trailing garbage after a well-formed pong.
        let mut long = encode_reply(&Reply::Pong(Pong::default()));
        long.push(0xAA);
        assert!(decode_reply(&long).is_err());
        // Non-utf8 version bytes.
        let mut bad = vec![REP_PONG];
        put_bytes(&mut bad, &[0xFF, 0xFE]);
        bad.extend_from_slice(&[0; 16]);
        assert!(decode_reply(&bad).is_err());
    }

    #[test]
    fn malformed_stats_payloads_are_errors() {
        let good = encode_reply(&Reply::Stats(sample_stats()));

        // Every strict prefix of a well-formed stats reply is truncated
        // somewhere — none may decode (or panic).
        for cut in 1..good.len() {
            assert!(decode_reply(&good[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        // Trailing garbage after a well-formed reply.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_reply(&long).is_err());

        // Histogram-level rejection, via from_sparse: out-of-range bucket,
        // duplicate bucket, min > max, and a count sum that overflows.
        let hist_reply = |min: u64, max: u64, pairs: &[(u8, u64)]| {
            let mut out = vec![REP_STATS];
            put_bytes(&mut out, b"caches");
            put_bytes(&mut out, b"0.1.0");
            out.extend_from_slice(&[0; 32]); // uptime, requests, bytes in/out
            out.extend_from_slice(&1u32.to_le_bytes());
            put_bytes(&mut out, b"ping");
            out.extend_from_slice(&min.to_le_bytes());
            out.extend_from_slice(&max.to_le_bytes());
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for &(b, c) in pairs {
                out.push(b);
                out.extend_from_slice(&c.to_le_bytes());
            }
            out
        };
        assert!(decode_reply(&hist_reply(0, 0, &[(64, 1)])).is_err(), "bucket out of range");
        assert!(decode_reply(&hist_reply(0, 9, &[(3, 1), (3, 1)])).is_err(), "duplicate bucket");
        assert!(decode_reply(&hist_reply(9, 5, &[(3, 1)])).is_err(), "min > max");
        assert!(
            decode_reply(&hist_reply(0, 9, &[(1, u64::MAX), (2, 1)])).is_err(),
            "count overflow"
        );
        // The valid shape these were mutated from does decode.
        assert!(decode_reply(&hist_reply(4, 4, &[(3, 1)])).is_ok());
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        let cases: &[&[u8]] = &[
            &[],
            &[9],
            &[REQ_LINK],
            &[REQ_LINK, 99, 0],
            &[REQ_LINK, 0, 7],
            &[REQ_LINK, 0, 1, 5, 0, 0, 0, 1, 0, 0, 0], // count=5, one short body
            &[REQ_LINK, 0, 1, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F], // huge body len
        ];
        for c in cases {
            assert!(decode_request(c).is_err(), "{c:?} should fail to decode");
        }
        assert!(decode_reply(&[]).is_err());
        assert!(decode_reply(&[REP_LINKED, 2]).is_err());
        assert!(decode_reply(&[0xEE]).is_err());
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, b"hello");

        let mut bogus = ((MAX_FRAME + 1).to_le_bytes()).to_vec();
        bogus.extend_from_slice(&[0; 16]);
        assert!(read_frame(&mut bogus.as_slice()).is_err());
    }
}
