//! A minimal HTTP/1.1 codec: enough protocol for keep-alive GET traffic
//! with `Content-Length` framing, plus deterministic bodies so every
//! transfer can be integrity-checked end to end.
//!
//! A server's side of a request costs no heap allocation: a parsed head
//! keeps its method and target in [`InlineString`]s, and a response is
//! written into the caller's buffer, its body generated in place by the
//! one routing table ([`response_bytes`] and [`body_for_path`] are that
//! same writer and table, into a vector of their own).

use std::fmt;
use std::io::Write;
use std::ops::Deref;

/// A string of up to [`InlineString::INLINE`] bytes held inline, longer
/// ones on the heap: a request head's method and target, which are short
/// for every ordinary request, cost no allocation.
#[derive(Clone)]
pub struct InlineString(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; InlineString::INLINE],
    },
    Heap(Box<str>),
}

impl InlineString {
    /// The longest string kept inline, in bytes: with the length and the
    /// tag the whole string is 32 bytes.
    pub const INLINE: usize = 30;

    /// Copies `s`: inline if it fits, else into a heap allocation.
    pub fn new(s: &str) -> Self {
        if s.len() > Self::INLINE {
            return InlineString(Repr::Heap(s.into()));
        }
        let mut bytes = [0; Self::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        InlineString(Repr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }

    fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("copied whole from a str")
            }
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for InlineString {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for InlineString {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for InlineString {}

impl PartialEq<str> for InlineString {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for InlineString {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for InlineString {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl fmt::Debug for InlineString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A parsed HTTP request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, ...).
    pub method: InlineString,
    /// Request target (`/`, `/bytes/4096`, ...).
    pub path: InlineString,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 defaults to keep-alive unless `Connection: close`).
    pub keep_alive: bool,
}

/// Result of feeding bytes to [`parse_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// The head is not complete yet; feed more bytes.
    Incomplete,
    /// The bytes do not form a parsable HTTP request head.
    Bad,
    /// A complete request head consuming the first `usize` bytes of the
    /// input.
    Request(HttpRequest, usize),
}

/// Incrementally parses one request head from the start of `buf`.
///
/// Request bodies are not supported (the workload is GET-only); a request
/// carrying `Content-Length` is rejected as [`ParseOutcome::Bad`].
pub fn parse_request(buf: &[u8]) -> ParseOutcome {
    let Some(head_len) = find_head_end(buf) else {
        // An unbounded head is an attack, not a slow client.
        if buf.len() > 8192 {
            return ParseOutcome::Bad;
        }
        return ParseOutcome::Incomplete;
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_len]) else {
        return ParseOutcome::Bad;
    };
    let mut lines = head.split("\r\n");
    let Some(request_line) = lines.next() else {
        return ParseOutcome::Bad;
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ParseOutcome::Bad;
    };
    if !version.starts_with("HTTP/1.") {
        return ParseOutcome::Bad;
    }
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("content-length") && value != "0" {
            return ParseOutcome::Bad;
        }
    }
    ParseOutcome::Request(
        HttpRequest {
            method: InlineString::new(method),
            path: InlineString::new(path),
            keep_alive,
        },
        head_len,
    )
}

/// Returns the length of the head including the `\r\n\r\n` terminator, if
/// complete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// A response body as the routing table serves it: bytes the caller has,
/// or a deterministic pattern generated where it is written.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Body<'a> {
    Bytes(&'a [u8]),
    Pattern(usize),
}

impl Body<'_> {
    fn len(self) -> usize {
        match self {
            Body::Bytes(bytes) => bytes.len(),
            Body::Pattern(len) => len,
        }
    }

    fn write_to(self, out: &mut Vec<u8>) {
        match self {
            Body::Bytes(bytes) => out.extend_from_slice(bytes),
            Body::Pattern(len) => out.extend((0..len).map(pattern_byte)),
        }
    }
}

/// Room for a response head besides its reason phrase: the status line,
/// a 20-digit `Content-Length` and `Connection: keep-alive`.
const HEAD_ROOM: usize = 80;

/// Appends one HTTP/1.1 response with `Content-Length` framing to `out`.
pub(crate) fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    body: Body<'_>,
    keep_alive: bool,
) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    out.reserve(HEAD_ROOM + reason.len() + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .expect("writing to a vector cannot fail");
    body.write_to(out);
}

/// Formats one HTTP/1.1 response with `Content-Length` framing.
pub fn response_bytes(status: u16, reason: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    write_response(&mut out, status, reason, Body::Bytes(body), keep_alive);
    out
}

/// Formats one keep-alive GET request for `path`.
pub fn request_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: newtos\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// Byte `i` of the deterministic payload.
fn pattern_byte(i: usize) -> u8 {
    (i * 31 + i / 251) as u8
}

/// Deterministic payload of `len` bytes (the same generator on both ends
/// lets transfers be verified byte for byte).
pub fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(pattern_byte).collect()
}

/// The server's routing table: `/` serves a small index page,
/// `/bytes/<n>` serves `n` deterministic bytes (capped at 4 MiB), anything
/// else is `None` (404).
pub(crate) fn route(path: &str) -> Option<Body<'static>> {
    if path == "/" {
        return Some(Body::Bytes(b"<html>newtos: keep net working</html>"));
    }
    let n: usize = path.strip_prefix("/bytes/")?.parse().ok()?;
    if n > 4 * 1024 * 1024 {
        return None;
    }
    Some(Body::Pattern(n))
}

/// The body the routing table serves for `path`, or `None` (404).
pub fn body_for_path(path: &str) -> Option<Vec<u8>> {
    let body = route(path)?;
    let mut out = Vec::with_capacity(body.len());
    body.write_to(&mut out);
    Some(out)
}

/// Incremental HTTP/1.1 response reader for the client side: feed raw
/// stream bytes in, take complete `(status, body)` pairs out.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet forming a complete response.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete response, if one is buffered.  Returns
    /// `None` while incomplete; a malformed head yields status 0 with the
    /// raw bytes as body (so harnesses can fail loudly).
    pub fn pop_response(&mut self) -> Option<(u16, Vec<u8>)> {
        let head_len = find_head_end(&self.buf)?;
        let (status, content_length) = {
            let Ok(head) = std::str::from_utf8(&self.buf[..head_len]) else {
                let raw = std::mem::take(&mut self.buf);
                return Some((0, raw));
            };
            let mut lines = head.split("\r\n");
            let status = lines
                .next()
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|s| s.parse::<u16>().ok())
                .unwrap_or(0);
            let content_length = lines
                .filter_map(|l| l.split_once(':'))
                .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                .unwrap_or(0);
            (status, content_length)
        };
        if self.buf.len() < head_len + content_length {
            return None;
        }
        let body = self.buf[head_len..head_len + content_length].to_vec();
        self.buf.drain(..head_len + content_length);
        Some((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_keep_alive_get() {
        let raw = b"GET /bytes/512 HTTP/1.1\r\nHost: x\r\n\r\ntrailing";
        match parse_request(raw) {
            ParseOutcome::Request(req, consumed) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/bytes/512");
                assert!(req.keep_alive);
                assert_eq!(&raw[consumed..], b"trailing");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn connection_close_is_honoured() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        match parse_request(raw) {
            ParseOutcome::Request(req, _) => assert!(!req.keep_alive),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incomplete_and_bad_heads_are_classified() {
        assert_eq!(parse_request(b"GET / HTT"), ParseOutcome::Incomplete);
        assert_eq!(parse_request(b"FOO\r\n\r\n"), ParseOutcome::Bad);
        assert_eq!(parse_request(b"GET / SPDY/3\r\n\r\n"), ParseOutcome::Bad);
        let huge = vec![b'a'; 10_000];
        assert_eq!(parse_request(&huge), ParseOutcome::Bad);
    }

    #[test]
    fn response_round_trips_through_the_reader() {
        let body = pattern(1000);
        let wire = response_bytes(200, "OK", &body, true);
        let mut reader = ResponseReader::new();
        // Feed in awkward chunk sizes.
        for chunk in wire.chunks(7) {
            reader.push(chunk);
        }
        let (status, got) = reader.pop_response().expect("complete");
        assert_eq!(status, 200);
        assert_eq!(got, body);
        assert_eq!(reader.buffered(), 0);
        assert!(reader.pop_response().is_none());
    }

    #[test]
    fn a_response_is_framed_byte_for_byte() {
        let wire = response_bytes(404, "Not Found", b"gone", false);
        let head = "HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\nConnection: close\r\n\r\n";
        assert_eq!(wire, [head.as_bytes(), b"gone"].concat());
        let wire = response_bytes(200, "OK", &pattern(300), true);
        let head = "HTTP/1.1 200 OK\r\nContent-Length: 300\r\nConnection: keep-alive\r\n\r\n";
        assert_eq!(wire, [head.as_bytes(), &pattern(300)].concat());
        assert_eq!(body_for_path("/bytes/300").unwrap(), pattern(300));
    }

    #[test]
    fn pipelined_responses_pop_in_order() {
        let mut reader = ResponseReader::new();
        reader.push(&response_bytes(200, "OK", b"first", true));
        reader.push(&response_bytes(404, "Not Found", b"second!", true));
        assert_eq!(reader.pop_response(), Some((200, b"first".to_vec())));
        assert_eq!(reader.pop_response(), Some((404, b"second!".to_vec())));
    }

    #[test]
    fn routes_serve_deterministic_bodies() {
        assert!(body_for_path("/").is_some());
        assert_eq!(body_for_path("/bytes/64").unwrap(), pattern(64));
        assert_eq!(body_for_path("/bytes/64").unwrap().len(), 64);
        assert!(body_for_path("/missing").is_none());
        assert!(body_for_path("/bytes/999999999999").is_none());
        let req = request_bytes("/bytes/64");
        assert!(req.starts_with(b"GET /bytes/64 "));
    }
}
