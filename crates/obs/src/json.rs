//! The workspace's one JSON reader and string quoter, plus the
//! chrome-trace structural validator.
//!
//! The workspace is fully offline (no serde). Every JSON document it reads
//! goes through [`parse`]: execution profiles, the `reproduce` report that
//! the BENCH drift gate checks (the mutation-kill scorecard included), and
//! `--trace-json` files. Every JSON string it writes goes through [`quote`].
//!
//! The reader is strict and lossless. It follows the RFC 8259 grammar
//! exactly (no leading zeros, no bare `.5` or `1.`, exactly four hex digits
//! in `\u` escapes), rejects duplicate object keys and trailing garbage, and
//! keeps every number as its source text, so [`JsonValue::as_u64`] and
//! [`JsonValue::as_i64`] are exact over their whole range. A `\u` escape of
//! a UTF-16 surrogate, paired or not, decodes to U+FFFD ([`quote`] never
//! writes one: non-ASCII text goes out verbatim).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// A number as written in the source (already grammar-checked). Two
    /// numbers are equal when their text is: `1.0` and `1` differ.
    Num(String),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field access (None on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The exact value, if this is a number written as an unsigned integer
    /// that fits a `u64` (no sign, fraction or exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(text) if text.bytes().all(|c| c.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// The exact value, if this is a number written as an integer that fits
    /// an `i64` (no fraction or exponent).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(text)
                if text.trim_start_matches('-').bytes().all(|c| c.is_ascii_digit()) =>
            {
                text.parse().ok()
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Compact JSON: numbers exactly as parsed, strings through [`quote`],
/// object keys in sorted order.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(text) => f.write_str(text),
            JsonValue::Str(s) => f.write_str(&quote(s)),
            JsonValue::Arr(v) => {
                f.write_str("[")?;
                for (i, x) in v.iter().enumerate() {
                    write!(f, "{}{x}", if i > 0 { "," } else { "" })?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(m) => {
                f.write_str("{")?;
                for (i, (k, x)) in m.iter().enumerate() {
                    write!(f, "{}{}:{x}", if i > 0 { "," } else { "" }, quote(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// `s` as a JSON string literal: quote and backslash escaped, `\n` `\t` `\r`
/// in their short forms, other control characters as `\u00XX`, everything
/// else (non-ASCII included) verbatim.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// Returns a position-tagged message for any syntax violation.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut at = 0usize;
    let v = value(bytes, &mut at)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing garbage at byte {at}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, at);
    if b.get(*at) == Some(&c) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {at}", c as char))
    }
}

fn value(b: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *at += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(JsonValue::Obj(m));
            }
            loop {
                skip_ws(b, at);
                let key_at = *at;
                let k = string(b, at)?;
                expect(b, at, b':')?;
                let v = value(b, at)?;
                match m.entry(k) {
                    Entry::Vacant(e) => {
                        e.insert(v);
                    }
                    Entry::Occupied(e) => {
                        return Err(format!("duplicate key {} at byte {key_at}", quote(e.key())))
                    }
                }
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(JsonValue::Obj(m));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut v = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(JsonValue::Arr(v));
            }
            loop {
                v.push(value(b, at)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(JsonValue::Arr(v));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {at}")),
                }
            }
        }
        Some(b'"') => string(b, at).map(JsonValue::Str),
        Some(b't') => lit(b, at, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => lit(b, at, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => lit(b, at, "null").map(|()| JsonValue::Null),
        Some(_) => number(b, at),
    }
}

fn lit(b: &[u8], at: &mut usize, word: &str) -> Result<(), String> {
    if b[*at..].starts_with(word.as_bytes()) {
        *at += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {at}"))
    }
}

/// Skips a run of ASCII digits; false when there was none.
fn digits(b: &[u8], at: &mut usize) -> bool {
    let from = *at;
    while b.get(*at).is_some_and(u8::is_ascii_digit) {
        *at += 1;
    }
    *at > from
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as text.
fn number(b: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    let start = *at;
    let bad = || format!("bad number at byte {start}");
    if b.get(*at) == Some(&b'-') {
        *at += 1;
    }
    match b.get(*at) {
        Some(b'0') => *at += 1,
        Some(b'1'..=b'9') => {
            digits(b, at);
        }
        _ => return Err(bad()),
    }
    if b.get(*at) == Some(&b'.') {
        *at += 1;
        if !digits(b, at) {
            return Err(bad());
        }
    }
    if matches!(b.get(*at), Some(b'e' | b'E')) {
        *at += 1;
        if matches!(b.get(*at), Some(b'+' | b'-')) {
            *at += 1;
        }
        if !digits(b, at) {
            return Err(bad());
        }
    }
    // Only a leading `0` can stop the scan right before a digit (`007`).
    if b.get(*at).is_some_and(u8::is_ascii_digit) {
        return Err(bad());
    }
    Ok(JsonValue::Num(b[start..*at].iter().map(|&c| char::from(c)).collect()))
}

fn string(b: &[u8], at: &mut usize) -> Result<String, String> {
    if b.get(*at) != Some(&b'"') {
        return Err(format!("expected string at byte {at}"));
    }
    *at += 1;
    let mut out = String::new();
    loop {
        match b.get(*at) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match b.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let cp = b
                            .get(*at + 1..*at + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
                            .ok_or(format!("bad \\u escape at byte {at}"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *at += 4;
                    }
                    _ => return Err(format!("bad escape at byte {at}")),
                }
                *at += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through unchanged.
                let len = match c {
                    0x00..=0x1f => return Err(format!("raw control byte at {at}")),
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b.get(*at..*at + len).ok_or("truncated utf8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *at += len;
            }
        }
    }
}

/// One complete span event of a chrome trace, in microseconds.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    pub name: String,
    pub tid: u64,
    pub start: f64,
    pub end: f64,
    pub depth: u64,
}

/// Validates a `--trace-json` document: parses, checks every `traceEvents`
/// entry is a well-formed complete/metadata event, and proves the complete
/// spans nest properly per thread (no partial overlap). Returns the
/// complete spans found.
///
/// # Errors
///
/// Returns a description of the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<Vec<TraceSpan>, String> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    doc.get("counters")
        .and_then(|c| match c {
            JsonValue::Obj(_) => Some(()),
            _ => None,
        })
        .ok_or("missing counters object")?;

    let mut spans: Vec<TraceSpan> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        match ph {
            "M" => continue, // metadata
            "X" => {}
            other => return Err(format!("event {i}: unsupported ph `{other}`")),
        }
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        if name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
        let num = |key: &str| {
            e.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("event {i}: missing {key}"))
        };
        let (ts, dur, tid) = (num("ts")?, num("dur")?, num("tid")?);
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i}: negative ts/dur"));
        }
        let depth = e
            .get("args")
            .and_then(|a| a.get("depth"))
            .and_then(JsonValue::as_f64)
            .ok_or(format!("event {i}: missing args.depth"))? as u64;
        spans.push(TraceSpan { name: name.to_string(), tid: tid as u64, start: ts, end: ts + dur, depth });
    }

    // Nesting check, per tid: sort by (start, deeper-last, longer-first) and
    // sweep with a stack. A span must be disjoint from, or fully contained
    // in, the enclosing one.
    let mut by_tid: BTreeMap<u64, Vec<&TraceSpan>> = BTreeMap::new();
    for s in &spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    for (tid, mut list) in by_tid {
        list.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap()
                .then(a.depth.cmp(&b.depth))
                .then(b.end.partial_cmp(&a.end).unwrap())
        });
        let mut stack: Vec<&TraceSpan> = Vec::new();
        for s in list {
            while let Some(top) = stack.last() {
                if s.start >= top.end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if s.end > top.end {
                    return Err(format!(
                        "tid {tid}: span `{}` [{}, {}] partially overlaps `{}` [{}, {}]",
                        s.name, s.start, s.end, top.name, top.start, top.end
                    ));
                }
                if s.depth != top.depth + 1 {
                    return Err(format!(
                        "tid {tid}: span `{}` depth {} inside `{}` depth {}",
                        s.name, s.depth, top.name, top.depth
                    ));
                }
            } else if s.depth != 0 {
                return Err(format!(
                    "tid {tid}: top-level span `{}` claims depth {}",
                    s.name, s.depth
                ));
            }
            stack.push(s);
        }
    }

    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(parse(r#""a\nb\u0041""#).unwrap(), JsonValue::Str("a\nbA".into()));
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.get("d").is_some());
        // Numbers are exact: integers past 2^53 and at u64::MAX survive.
        let num = |s: &str| parse(s).unwrap();
        assert_eq!(num("18446744073709551615").as_u64(), Some(u64::MAX));
        assert_eq!(num("9007199254740993").as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(num("18446744073709551616").as_u64(), None);
        assert_eq!(num("-9223372036854775808").as_i64(), Some(i64::MIN));
        assert_eq!(num("9223372036854775808").as_i64(), None);
        for inexact in ["-1", "1.0", "1e2", "0.5"] {
            assert_eq!(num(inexact).as_u64(), None, "{inexact}");
        }
        assert_eq!(num("1E+2").as_i64(), None);
        assert_eq!(num("-0").as_i64(), Some(0));
        // Display writes numbers back exactly as written.
        let doc = parse(r#"{"b":[1.50,-0],"a":"q\"t"}"#).unwrap();
        assert_eq!(doc.to_string(), r#"{"a":"q\"t","b":[1.50,-0]}"#);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\x\"", "{\"a\":1,}", "007", "1.", ".5",
            "-", "+1", "01", "1e", "1e+", "-.5", "[00]", "\"\\u+041\"", "\"\\u00g1\"",
            "{\"a\":1,\"a\":1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn quote_escapes_and_roundtrips() {
        let s = "q\"b\\n\nt\tr\rbell\u{7}é";
        assert_eq!(quote(s), r#""q\"b\\n\nt\tr\rbell\u0007é""#);
        assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn validates_a_real_trace() {
        let t = Trace::new();
        {
            let _g = t.install();
            let _a = crate::span("pipeline");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _b = crate::span("pass.convert");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _c = crate::span("pass.nullify");
            }
            crate::count("pass.convert.addr_loads_converted", 3);
        }
        let text = t.chrome_json("om");
        let spans = validate_chrome_trace(&text).unwrap();
        assert!(spans.iter().any(|s| s.name == "pipeline"));
        assert!(spans.iter().any(|s| s.name == "pass.convert"));
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("pass.convert.addr_loads_converted"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn flags_partial_overlap() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0.0,"dur":10.0,"tid":0,"args":{"depth":0}},
            {"name":"b","ph":"X","ts":5.0,"dur":10.0,"tid":0,"args":{"depth":1}}
        ],"counters":{}}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn flags_depth_lies() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0.0,"dur":10.0,"tid":0,"args":{"depth":0}},
            {"name":"b","ph":"X","ts":2.0,"dur":2.0,"tid":0,"args":{"depth":2}}
        ],"counters":{}}"#;
        assert!(validate_chrome_trace(text).is_err());
    }
}
