//! A minimal HTTP/1.1 codec: enough protocol for keep-alive GET traffic
//! with `Content-Length` framing, plus deterministic bodies so every
//! transfer can be integrity-checked end to end.

/// A parsed HTTP request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, ...).
    pub method: String,
    /// Request target (`/`, `/bytes/4096`, ...).
    pub path: String,
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
            method: method.to_string(),
            path: path.to_string(),
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

/// Formats one HTTP/1.1 response with `Content-Length` framing.
pub fn response_bytes(status: u16, reason: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Formats one keep-alive GET request for `path`.
pub fn request_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: newtos\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// Deterministic payload of `len` bytes (the same generator on both ends
/// lets transfers be verified byte for byte).
pub fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + i / 251) as u8).collect()
}

/// The server's routing table: `/` serves a small index page,
/// `/bytes/<n>` serves `n` deterministic bytes (capped at 4 MiB), anything
/// else is `None` (404).
pub fn body_for_path(path: &str) -> Option<Vec<u8>> {
    if path == "/" {
        return Some(b"<html>newtos: keep net working</html>".to_vec());
    }
    let n: usize = path.strip_prefix("/bytes/")?.parse().ok()?;
    if n > 4 * 1024 * 1024 {
        return None;
    }
    Some(pattern(n))
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
