//! The socket protocol: length-framed binary messages.
//!
//! Every message is a `u32` little-endian payload length followed by that
//! many payload bytes. The first payload byte is a tag; the rest is
//! tag-specific. Module and image bodies reuse the existing serializers
//! ([`om_objfile::binary::write_module`] and
//! [`om_linker::Image::to_bytes`]) — the wire never invents a second
//! encoding for either — and the payloads themselves are written and read
//! through the same [`Writer`] and [`Reader`] as objects and images.

use om_core::OmLevel;
use om_objfile::binary::{Reader, Writer};
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

fn put_hist(w: &mut Writer, h: &Histogram) {
    let pairs = h.nonzero();
    w.u64(h.min()).u64(h.max()).u32(pairs.len() as u32);
    for (bucket, count) in pairs {
        w.u8(bucket as u8).u64(count);
    }
}

fn read_hist(r: &mut Reader) -> Result<Histogram, String> {
    let (min, max) = (r.u64()?, r.u64()?);
    let mut pairs = Vec::new();
    for _ in 0..r.u32()? {
        pairs.push((r.u8()? as usize, r.u64()?));
    }
    Histogram::from_sparse(min, max, &pairs)
}

/// Serializes a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::default();
    match req {
        Request::Ping => w.u8(REQ_PING),
        Request::Stats => w.u8(REQ_STATS),
        Request::Shutdown => w.u8(REQ_SHUTDOWN),
        Request::Link { level, verify, objects } => {
            let w = w.u8(REQ_LINK).u8(level.index() as u8).u8(u8::from(*verify));
            w.u32(objects.len() as u32);
            for obj in objects {
                w.bytes32(obj);
            }
            w
        }
    };
    w.0
}

/// Parses a request payload. Malformed input is an error string, never a
/// panic — the serve loop turns it into a [`Reply::Error`].
pub fn decode_request(bytes: &[u8]) -> Result<Request, String> {
    let mut r = Reader::new(bytes, "request");
    Ok(match r.u8()? {
        REQ_PING => Request::Ping,
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_LINK => {
            let level_index = r.u8()? as usize;
            let level = *OmLevel::ALL
                .get(level_index)
                .ok_or_else(|| format!("unknown level index {level_index}"))?;
            let verify = match r.u8()? {
                0 => false,
                1 => true,
                v => return Err(format!("bad verify flag {v}")),
            };
            let mut objects = Vec::new();
            for _ in 0..r.u32()? {
                objects.push(r.bytes32()?.to_vec());
            }
            Request::Link { level, verify, objects }
        }
        tag => return Err(format!("unknown request tag {tag}")),
    })
}

/// Serializes a reply payload (frame it with [`write_frame`]).
pub fn encode_reply(rep: &Reply) -> Vec<u8> {
    let mut w = Writer::default();
    match rep {
        Reply::Pong(p) => {
            w.u8(REP_PONG).bytes32(p.version.as_bytes()).u64(p.uptime_ms).u64(p.requests)
        }
        Reply::ShuttingDown => w.u8(REP_SHUTDOWN),
        Reply::Stats(s) => {
            let w = w.u8(REP_STATS).bytes32(s.caches.as_bytes()).bytes32(s.version.as_bytes());
            w.u64(s.uptime_ms).u64(s.requests).u64(s.bytes_in).u64(s.bytes_out);
            w.u32(s.endpoints.len() as u32);
            for ep in &s.endpoints {
                put_hist(w.bytes32(ep.name.as_bytes()), &ep.latency_us);
            }
            w
        }
        Reply::Error(msg) => w.u8(REP_ERROR).put(msg.as_bytes()),
        Reply::Linked { cached, image } => w.u8(REP_LINKED).u8(u8::from(*cached)).bytes32(image),
    };
    w.0
}

/// Parses a reply payload.
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, String> {
    let mut r = Reader::new(bytes, "reply");
    Ok(match r.u8()? {
        REP_PONG => {
            let version = r.str32("pong version")?;
            let (uptime_ms, requests) = (r.u64()?, r.u64()?);
            r.finish()?;
            Reply::Pong(Pong { version, uptime_ms, requests })
        }
        REP_SHUTDOWN => Reply::ShuttingDown,
        REP_STATS => {
            let caches = r.str32("stats cache line")?;
            let version = r.str32("stats version")?;
            let (uptime_ms, requests) = (r.u64()?, r.u64()?);
            let (bytes_in, bytes_out) = (r.u64()?, r.u64()?);
            let mut endpoints = Vec::new();
            for _ in 0..r.u32()? {
                let name = r.str32("endpoint name")?;
                endpoints.push(EndpointStats { name, latency_us: read_hist(&mut r)? });
            }
            r.finish()?;
            Reply::Stats(ServerStats {
                caches,
                version,
                uptime_ms,
                requests,
                bytes_in,
                bytes_out,
                endpoints,
            })
        }
        REP_ERROR => String::from_utf8(r.rest().to_vec())
            .map(Reply::Error)
            .map_err(|e| format!("error reply not utf8: {e}"))?,
        REP_LINKED => {
            let cached = match r.u8()? {
                0 => false,
                1 => true,
                v => return Err(format!("bad cached flag {v}")),
            };
            Reply::Linked { cached, image: r.bytes32()?.to_vec() }
        }
        tag => return Err(format!("unknown reply tag {tag}")),
    })
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
        let mut short = Writer::default();
        short.u8(REP_PONG).bytes32(b"0.1.0").put(&[0; 4]);
        assert!(decode_reply(&short.0).is_err());
        // Trailing garbage after a well-formed pong.
        let mut long = encode_reply(&Reply::Pong(Pong::default()));
        long.push(0xAA);
        assert!(decode_reply(&long).is_err());
        // Non-utf8 version bytes.
        let mut bad = Writer::default();
        bad.u8(REP_PONG).bytes32(&[0xFF, 0xFE]).put(&[0; 16]);
        assert!(decode_reply(&bad.0).is_err());
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
            let mut w = Writer::default();
            // Uptime, requests, bytes in and out, then one endpoint.
            w.u8(REP_STATS).bytes32(b"caches").bytes32(b"0.1.0").put(&[0; 32]).u32(1);
            w.bytes32(b"ping").u64(min).u64(max).u32(pairs.len() as u32);
            for &(b, c) in pairs {
                w.u8(b).u64(c);
            }
            w.0
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
            &[REQ_LINK, 0, 1, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4], // 4 bytes left
        ];
        for c in cases {
            assert!(decode_request(c).is_err(), "{c:?} should fail to decode");
        }
        // A stats reply whose cache line claims 0xFFFF_FFFF bytes, with four
        // bytes left.
        let rep = [REP_STATS, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4];
        assert_eq!(decode_reply(&rep).unwrap_err(), "truncated reply");
        assert!(decode_reply(&[]).is_err());
        assert!(decode_reply(&[REP_LINKED, 2]).is_err());
        assert!(decode_reply(&[0xEE]).is_err());
    }

    #[test]
    fn encodings_are_pinned() {
        // Clients and servers built from different commits must agree.
        let hex = |b: Vec<u8>| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let req = Request::Link {
            level: OmLevel::Full,
            verify: true,
            objects: vec![vec![1, 2, 3], vec![]],
        };
        assert_eq!(hex(encode_request(&req)), "010201020000000300000001020300000000");
        let mut ping = Histogram::new();
        for v in [3, 40, 40] {
            ping.record(v);
        }
        let rep = Reply::Stats(ServerStats {
            caches: "links: 1".to_string(),
            version: "0.1.0".to_string(),
            uptime_ms: 9,
            requests: 2,
            bytes_in: 300,
            bytes_out: 70_000,
            endpoints: vec![EndpointStats { name: "ping".to_string(), latency_us: ping }],
        });
        assert_eq!(
            hex(encode_reply(&rep)),
            "02080000006c696e6b733a203105000000302e312e30090000000000000002000000000000002c01\
             0000000000007011010000000000010000000400000070696e670300000000000000280000000000\
             000002000000020100000000000000060200000000000000"
        );
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
