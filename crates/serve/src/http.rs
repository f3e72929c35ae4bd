//! Hand-rolled HTTP/1.1 plumbing for the serve protocol.
//!
//! Enough of RFC 9112 for a JSON job API consumed by `curl` and test
//! harnesses: request line + headers + `Content-Length` *or* chunked
//! transfer-coded bodies in, fixed-length or chunked transfer-coded
//! responses out, per-connection keep-alive with version-aware close
//! semantics. The
//! reader is bounded everywhere a client controls a length — request
//! line, header lines, header count, body — so a hostile peer can
//! cost at most a few KiB before being answered with the right 4xx.
//! No TLS — the daemon is an intranet tool, like the simulation farms
//! the paper's methodology feeds.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body (decks are text; 4 MiB is roomy).
pub const MAX_BODY: usize = 4 << 20;

/// Longest accepted request line or header line, bytes (terminator
/// included). Overflow answers 414 (request line) or 431 (header).
pub const MAX_LINE: usize = 8 << 10;

/// Most header fields accepted on one request; overflow answers 431.
pub const MAX_HEADERS: usize = 100;

/// How reading a request can fail.
#[derive(Debug)]
pub enum ReadError {
    /// The client violated the protocol: the caller answers `status`
    /// with `message` and hangs up (the framing can no longer be
    /// trusted, so the connection is not reusable).
    Protocol {
        /// Response status to answer with (400/413/414/431/501).
        status: u16,
        /// Human-readable violation, sent as the error body.
        message: String,
    },
    /// Socket-level failure (timeouts included): hang up silently.
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn bad(msg: &str) -> ReadError {
    ReadError::Protocol {
        status: 400,
        message: msg.to_string(),
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Decoded path (`/v1/jobs/42`), query stripped.
    pub path: String,
    /// Decoded query pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Lowercased header names and their values.
    pub headers: Vec<(String, String)>,
    /// The body (empty when the request carries none).
    pub body: Vec<u8>,
    /// `true` for HTTP/1.1 requests, `false` for HTTP/1.0.
    pub http11: bool,
}

impl Request {
    /// First query value under `key`.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == &name.to_ascii_lowercase())
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection drops after this exchange. HTTP/1.1
    /// defaults to keep-alive unless the client sends
    /// `Connection: close`; HTTP/1.0 defaults to close unless the
    /// client opts in with `Connection: keep-alive`.
    pub fn wants_close(&self) -> bool {
        let has_token = |t: &str| {
            self.header("connection")
                .is_some_and(|v| v.split(',').any(|p| p.trim().eq_ignore_ascii_case(t)))
        };
        if has_token("close") {
            return true;
        }
        !self.http11 && !has_token("keep-alive")
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// A message naming the encoding problem.
    pub fn body_text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_string())
    }
}

/// Reads one line (up to `\n`) without ever buffering more than
/// `cap` bytes; an over-long line is a protocol violation answered
/// with `overflow_status`. `Ok(None)` is EOF before any byte.
fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    cap: usize,
    overflow_status: u16,
) -> Result<Option<String>, ReadError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(bad("EOF inside a line"));
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |p| p + 1);
        if line.len() + take > cap {
            // Drain what we peeked so the 4xx response is not mixed
            // into the tail of the over-long line, then refuse.
            reader.consume(take);
            return Err(ReadError::Protocol {
                status: overflow_status,
                message: format!("line exceeds {cap} bytes"),
            });
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if newline.is_some() {
            let text = String::from_utf8_lossy(&line).into_owned();
            return Ok(Some(text.trim_end_matches(['\r', '\n']).to_string()));
        }
    }
}

/// Reads one request off the connection. `Ok(None)` is a clean EOF
/// (client closed between requests); [`ReadError::Protocol`] carries
/// the status the caller answers before hanging up.
///
/// # Errors
///
/// Malformed or over-long request line/headers (400/414/431),
/// conflicting `Content-Length` values or `Transfer-Encoding`
/// alongside `Content-Length` (400 — the request-smuggling combos),
/// transfer codings other than `chunked` (501), bodies over
/// [`MAX_BODY`] (413), or I/O failures (timeouts included).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, ReadError> {
    let Some(line) = read_line_limited(reader, MAX_LINE, 414)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t.to_string(), v),
        _ => return Err(bad("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let http11 = version != "HTTP/1.0";

    let mut headers = Vec::new();
    loop {
        let line =
            read_line_limited(reader, MAX_LINE, 431)?.ok_or_else(|| bad("EOF inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Protocol {
                status: 431,
                message: format!("more than {MAX_HEADERS} header fields"),
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let te_tokens: Vec<String> = headers
        .iter()
        .filter(|(k, _)| k == "transfer-encoding")
        .flat_map(|(_, v)| v.split(','))
        .map(|t| t.trim().to_ascii_lowercase())
        .collect();
    let body = if te_tokens.is_empty() {
        // Every Content-Length must parse and agree — silently taking
        // the first of conflicting values is the request-smuggling
        // classic.
        let mut content_length: Option<usize> = None;
        for (name, value) in &headers {
            if name != "content-length" {
                continue;
            }
            let n: usize = value.parse().map_err(|_| bad("bad Content-Length"))?;
            match content_length {
                Some(prev) if prev != n => {
                    return Err(bad("conflicting Content-Length headers"));
                }
                _ => content_length = Some(n),
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_BODY {
            return Err(ReadError::Protocol {
                status: 413,
                message: "request body too large".to_string(),
            });
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        body
    } else {
        // Both framings on one request is the other smuggling classic:
        // two parsers in a chain can disagree on where the body ends.
        if headers.iter().any(|(k, _)| k == "content-length") {
            return Err(bad("Transfer-Encoding alongside Content-Length"));
        }
        if te_tokens != ["chunked"] {
            return Err(ReadError::Protocol {
                status: 501,
                message: "only the chunked transfer coding is supported".to_string(),
            });
        }
        read_chunked_request_body(reader)?
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target.as_str(), Vec::new()),
    };
    Ok(Some(Request {
        method,
        // `+` means space only inside query strings; a path keeps it.
        path: percent_decode(path, false),
        query,
        headers,
        body,
        http11,
    }))
}

/// Decodes a chunked transfer-coded request body. Bounded like the
/// fixed-length path: [`MAX_BODY`] cumulative payload bytes (413
/// past it), [`MAX_LINE`] per size line, [`MAX_HEADERS`] trailer
/// fields — a hostile peer cannot stream chunks forever.
fn read_chunked_request_body(reader: &mut BufReader<TcpStream>) -> Result<Vec<u8>, ReadError> {
    let mut body = Vec::new();
    loop {
        let line = read_line_limited(reader, MAX_LINE, 400)?
            .ok_or_else(|| bad("EOF before chunk size"))?;
        // Chunk extensions (`;name=value`) are legal; ignore them.
        let size_text = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16).map_err(|_| bad("bad chunk size"))?;
        if size == 0 {
            break;
        }
        if size > MAX_BODY - body.len() {
            return Err(ReadError::Protocol {
                status: 413,
                message: "request body too large".to_string(),
            });
        }
        let at = body.len();
        body.resize(at + size, 0);
        reader.read_exact(&mut body[at..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("chunk data not CRLF-terminated"));
        }
    }
    // Trailer section: header-like lines up to the blank terminator.
    // We accept and discard them (nothing in the job API uses
    // trailers), but still bound the count.
    for _ in 0..=MAX_HEADERS {
        let line = read_line_limited(reader, MAX_LINE, 431)?
            .ok_or_else(|| bad("EOF inside chunked trailers"))?;
        if line.is_empty() {
            return Ok(body);
        }
    }
    Err(ReadError::Protocol {
        status: 431,
        message: format!("more than {MAX_HEADERS} trailer fields"),
    })
}

/// Splits and percent-decodes a query string.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k, true), percent_decode(v, true))
        })
        .collect()
}

/// `%XX` decoding; `+` maps to space only when `plus_is_space` (query
/// components). Bad escapes pass through verbatim.
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 3 <= bytes.len()
                && s.is_char_boundary(i + 1)
                && s.is_char_boundary(i + 3) =>
            {
                match u8::from_str_radix(&s[i + 1..i + 3], 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reason phrases for the statuses the protocol emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Appends a response head — status line, the given header lines,
/// `extra_headers` and the blank line — to `out`.
fn push_head(out: &mut Vec<u8>, status: u16, headers: &str, extra_headers: &[(&str, &str)]) {
    out.extend_from_slice(format!("HTTP/1.1 {status} {}\r\n{headers}", reason(status)).as_bytes());
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
}

/// Writes a complete response with fixed length, the given content
/// type, and optional extra headers (e.g. `Retry-After`). Head and
/// body leave in one write, so a response is one segment on the wire
/// and never waits on the client's delayed ACK for a second one.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn respond_typed<W: Write + ?Sized>(
    sink: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let headers = format!(
        "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    let mut out = Vec::with_capacity(headers.len() + body.len() + 128);
    push_head(&mut out, status, &headers, extra_headers);
    out.extend_from_slice(body.as_bytes());
    sink.write_all(&out)?;
    sink.flush()
}

/// Writes a JSON response with fixed length and optional extra
/// headers, in one write (see [`respond_typed`]).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn respond<W: Write + ?Sized>(
    sink: &mut W,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    respond_typed(sink, status, "application/json", extra_headers, body)
}

/// An in-flight streaming response body.
///
/// In `framed` mode (HTTP/1.1 clients) the body uses chunked transfer
/// coding and the connection stays reusable after
/// [`finish`](ChunkedWriter::finish). For HTTP/1.0 clients — which
/// predate chunked coding — the body is raw and delimited by
/// connection close, so the caller must hang up after `finish`.
///
/// Each frame reaches the wire with one write, the moment it is
/// written: a chunk's size line, data and CRLF go together, the
/// response head goes with the first chunk, and the zero-length
/// terminator goes with the last. A streamed record is therefore one
/// segment, and a frame never waits behind a delayed ACK for an
/// earlier piece of itself.
pub struct ChunkedWriter<'a, W: Write + ?Sized = TcpStream> {
    sink: &'a mut W,
    framed: bool,
    /// The next write: the pending head (until the first chunk
    /// leaves), then one frame at a time.
    frame: Vec<u8>,
}

/// Starts a streaming JSON response: prepares the head (with
/// `Transfer-Encoding: chunked` when `framed`, `Connection: close`
/// otherwise), which leaves with the first chunk, and returns the
/// body writer.
pub fn respond_chunked<'a, W: Write + ?Sized>(
    sink: &'a mut W,
    status: u16,
    extra_headers: &[(&str, &str)],
    framed: bool,
) -> ChunkedWriter<'a, W> {
    let framing = if framed {
        "Transfer-Encoding: chunked\r\n"
    } else {
        "Connection: close\r\n"
    };
    let mut frame = Vec::with_capacity(256);
    push_head(
        &mut frame,
        status,
        &format!("Content-Type: application/json\r\n{framing}"),
        extra_headers,
    );
    ChunkedWriter {
        sink,
        framed,
        frame,
    }
}

impl<W: Write + ?Sized> ChunkedWriter<'_, W> {
    /// Appends `data` as one chunk (size line, data, CRLF) to the
    /// pending frame. Empty payloads are skipped: an empty chunk would
    /// terminate the chunked body early.
    fn push_chunk(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if self.framed {
            self.frame
                .extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
            self.frame.extend_from_slice(data);
            self.frame.extend_from_slice(b"\r\n");
        } else {
            self.frame.extend_from_slice(data);
        }
    }

    /// Writes the pending frame with one write and flushes it.
    fn send(&mut self) -> std::io::Result<()> {
        if !self.frame.is_empty() {
            self.sink.write_all(&self.frame)?;
            self.frame.clear();
        }
        self.sink.flush()
    }

    /// Writes one body chunk and puts it on the wire — the unit of
    /// streaming progress.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.push_chunk(data);
        self.send()
    }

    /// Writes the last chunk, `tail`, and terminates the body (the
    /// zero-length chunk in framed mode) with the same write.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(mut self, tail: &[u8]) -> std::io::Result<()> {
        self.push_chunk(tail);
        if self.framed {
            self.frame.extend_from_slice(b"0\r\n\r\n");
        }
        self.send()
    }
}

/// Reads one chunk of a chunked-coded body; `Ok(None)` is the
/// zero-length terminator (trailer consumed). Client-side helper for
/// the tests, the `serve_roundtrip` bench, and any consumer that
/// wants records as they stream rather than the whole body.
///
/// # Errors
///
/// Malformed chunk framing or socket failures.
pub fn read_chunk(reader: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
    let invalid = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(invalid("EOF before chunk size"));
    }
    let size = usize::from_str_radix(line.trim(), 16).map_err(|_| invalid("bad chunk size"))?;
    if size == 0 {
        let mut end = String::new();
        reader.read_line(&mut end)?;
        return Ok(None);
    }
    let mut data = vec![0u8; size];
    reader.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(invalid("chunk data not CRLF-terminated"));
    }
    Ok(Some(data))
}

/// De-chunks a whole chunked-coded body.
///
/// # Errors
///
/// Malformed chunk framing or socket failures.
pub fn read_chunked_body(reader: &mut impl BufRead) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    while let Some(chunk) = read_chunk(reader)? {
        out.extend_from_slice(&chunk);
    }
    Ok(out)
}

/// The uniform error body: `{"error":"..."}`.
pub fn error_body(msg: &str) -> String {
    format!(
        "{{\"error\":\"{}\"}}",
        mems_netlist::report::json_escape(msg)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feeds `raw` through a real socket pair and returns what
    /// `read_request` makes of it.
    fn parse_raw(raw: &[u8]) -> Result<Option<Request>, ReadError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let out = read_request(&mut reader);
        writer.join().unwrap();
        out
    }

    fn protocol_status(result: Result<Option<Request>, ReadError>) -> u16 {
        match result {
            Err(ReadError::Protocol { status, .. }) => status,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn query_strings_decode() {
        let q = parse_query("client=ci+box&mode=sweep&title=%E5%85%B1%E6%8C%AF&flag");
        assert_eq!(q[0], ("client".into(), "ci box".into()));
        assert_eq!(q[1], ("mode".into(), "sweep".into()));
        assert_eq!(q[2], ("title".into(), "共振".into()));
        assert_eq!(q[3], ("flag".into(), String::new()));
    }

    #[test]
    fn percent_decoding_tolerates_bad_escapes() {
        assert_eq!(percent_decode("a%2Fb", false), "a/b");
        assert_eq!(percent_decode("100%", false), "100%");
        assert_eq!(percent_decode("%zz", false), "%zz");
    }

    #[test]
    fn plus_is_space_only_in_query_strings() {
        // Regression: `+` in a *path* used to decode to a space and
        // mis-route; only query components give `+` that meaning.
        let req = parse_raw(b"GET /v1/jobs/a+b?client=ci+box HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/v1/jobs/a+b");
        assert_eq!(req.query("client"), Some("ci box"));
    }

    #[test]
    fn requests_round_trip_over_a_socket_pair() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /v1/jobs?client=t HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\ndeck",
            )
            .unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query("client"), Some("t"));
        assert_eq!(req.body_text().unwrap(), "deck");
        assert!(req.http11 && !req.wants_close());
        assert!(read_request(&mut reader).unwrap().is_none());
        writer.join().unwrap();
    }

    #[test]
    fn http10_defaults_to_close_and_keep_alive_opts_in() {
        // Regression: HTTP/1.0 requests without a Connection header
        // used to be treated as keep-alive, hanging 1.0 clients that
        // wait for EOF until the read timeout.
        let plain = parse_raw(b"GET /v1/health HTTP/1.0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!plain.http11);
        assert!(plain.wants_close());

        let opted = parse_raw(b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!opted.wants_close());

        let multi = parse_raw(b"GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(multi.wants_close());
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // Regression: the first of several Content-Length headers
        // used to win silently (request-smuggling class).
        let status = protocol_status(parse_raw(
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\ndeck!",
        ));
        assert_eq!(status, 400);

        // Identical duplicates are harmless and accepted.
        let req = parse_raw(
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\ndeck",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body_text().unwrap(), "deck");

        let status = protocol_status(parse_raw(
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ));
        assert_eq!(status, 400);
    }

    #[test]
    fn oversized_lines_and_header_floods_are_bounded() {
        // Regression: header reads used to be unbounded — a client
        // streaming headers forever exhausted memory.
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
        assert_eq!(protocol_status(parse_raw(long_target.as_bytes())), 414);

        let long_header = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "b".repeat(MAX_LINE));
        assert_eq!(protocol_status(parse_raw(long_header.as_bytes())), 431);

        let mut flood = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            flood.push_str(&format!("X-H{i}: v\r\n"));
        }
        flood.push_str("\r\n");
        assert_eq!(protocol_status(parse_raw(flood.as_bytes())), 431);
    }

    #[test]
    fn chunked_request_bodies_decode() {
        // Chunk extensions and trailer fields are consumed; the body
        // is the concatenated chunk payloads.
        let req = parse_raw(
            b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              4;ext=1\r\ndeck\r\n6\r\n-works\r\n0\r\nX-Trailer: ok\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body_text().unwrap(), "deck-works");

        // An empty chunked body is a valid empty body.
        let req =
            parse_raw(b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
                .unwrap()
                .unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_chunked_requests_are_refused() {
        // Regression: chunked request bodies used to be a blanket 501;
        // now each malformation gets the precise refusal.
        let te = "POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n";
        // Bad hex in the chunk size.
        assert_eq!(
            protocol_status(parse_raw(format!("{te}\r\nzz\r\n\r\n").as_bytes())),
            400
        );
        // Chunk data missing its CRLF terminator.
        assert_eq!(
            protocol_status(parse_raw(
                format!("{te}\r\n4\r\ndeckXX0\r\n\r\n").as_bytes()
            )),
            400
        );
        // Transfer-Encoding alongside Content-Length (smuggling).
        assert_eq!(
            protocol_status(parse_raw(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n0\r\n\r\n",
            )),
            400
        );
        // A coding we don't implement.
        assert_eq!(
            protocol_status(parse_raw(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
            )),
            501
        );
        // A single chunk past the body cap is refused from its size
        // line alone — no bytes are buffered first.
        let over = format!("{te}\r\n{:x}\r\n", MAX_BODY + 1);
        assert_eq!(protocol_status(parse_raw(over.as_bytes())), 413);
    }

    #[test]
    fn chunked_writer_frames_and_dechunks() {
        let mut wire: Vec<u8> = Vec::new();
        let mut w = respond_chunked(&mut wire, 200, &[("X-Job", "7")], true);
        w.write_chunk(b"{\"points\":[").unwrap();
        w.write_chunk(b"").unwrap(); // skipped, not a terminator
        w.write_chunk("0123456789abcdef+".as_bytes()).unwrap(); // 17 bytes: 2-digit hex size
        w.finish(b"]}").unwrap();

        let text = String::from_utf8(wire.clone()).unwrap();
        let head_end = text.find("\r\n\r\n").expect("head terminator") + 4;
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("X-Job: 7\r\n"));
        assert!(text.contains("\r\n11\r\n0123456789abcdef+\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));

        let mut body = &wire[head_end..];
        let out = read_chunked_body(&mut body).unwrap();
        assert_eq!(out, b"{\"points\":[0123456789abcdef+]}");
    }

    #[test]
    fn unframed_mode_streams_raw_bytes_for_http10() {
        let mut wire: Vec<u8> = Vec::new();
        let mut w = respond_chunked(&mut wire, 200, &[], false);
        w.write_chunk(b"abc").unwrap();
        w.finish(b"def").unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nabcdef"));
    }

    /// A `Write` sink that keeps every `write` call apart, so a test
    /// sees where the write boundaries fall as well as the bytes.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn fixed_length_response_is_one_write() {
        let mut sink = Writes::default();
        respond(
            &mut sink,
            429,
            &[("Retry-After", "1")],
            "{\"error\":\"busy\"}",
        )
        .unwrap();
        assert_eq!(sink.0.len(), 1, "head and body leave together");
        assert_eq!(
            sink.0.concat(),
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
              Content-Length: 16\r\nRetry-After: 1\r\n\r\n{\"error\":\"busy\"}"
        );
    }

    /// A results stream as `stream_results` writes it: prelude, three
    /// records, tail.
    fn stream_three_records(framed: bool) -> Writes {
        let mut sink = Writes::default();
        let mut w = respond_chunked(&mut sink, 200, &[], framed);
        w.write_chunk(b"{\"id\":7,\"from\":0,\"total\":3,\"points\":[")
            .unwrap();
        for record in [&b"{\"index\":0}"[..], b",{\"index\":1}", b",{\"index\":2}"] {
            w.write_chunk(record).unwrap();
        }
        w.finish(b"],\"next\":3,\"state\":\"done\"}").unwrap();
        sink
    }

    #[test]
    fn each_chunk_frame_is_one_write() {
        // Head + prelude, one write per record, tail + terminator; the
        // bytes are exactly what three writes per chunk used to send.
        let sink = stream_three_records(true);
        assert_eq!(sink.0.len(), 1 + 3 + 1);
        assert_eq!(
            sink.0.concat(),
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
              Transfer-Encoding: chunked\r\n\r\n\
              25\r\n{\"id\":7,\"from\":0,\"total\":3,\"points\":[\r\n\
              b\r\n{\"index\":0}\r\nc\r\n,{\"index\":1}\r\nc\r\n,{\"index\":2}\r\n\
              1a\r\n],\"next\":3,\"state\":\"done\"}\r\n0\r\n\r\n"
        );
    }

    #[test]
    fn unframed_stream_is_one_write_per_record_too() {
        let sink = stream_three_records(false);
        assert_eq!(sink.0.len(), 1 + 3 + 1);
        assert_eq!(
            sink.0.concat(),
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
              Connection: close\r\n\r\n\
              {\"id\":7,\"from\":0,\"total\":3,\"points\":[\
              {\"index\":0},{\"index\":1},{\"index\":2}],\"next\":3,\"state\":\"done\"}"
        );
    }

    proptest! {
        /// Any payload, cut into arbitrary chunk sizes, de-chunks to
        /// exactly the original bytes.
        #[test]
        fn chunk_coding_round_trips(
            len in 0usize..600,
            bytes in proptest::collection::vec(0usize..256, 600),
            cuts in proptest::collection::vec(1usize..48, 24),
        ) {
            let payload: Vec<u8> = bytes[..len].iter().map(|&b| b as u8).collect();
            let mut wire: Vec<u8> = Vec::new();
            {
                let mut w = respond_chunked(&mut wire, 200, &[], true);
                let mut at = 0;
                let mut cut = cuts.iter().cycle();
                while at < payload.len() {
                    let take = (*cut.next().unwrap()).min(payload.len() - at);
                    w.write_chunk(&payload[at..at + take]).unwrap();
                    at += take;
                }
                w.finish(b"").unwrap();
            }
            let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            let mut body = &wire[head_end..];
            let out = read_chunked_body(&mut body).unwrap();
            prop_assert_eq!(out, payload);
        }

        /// Any payload, framed as a chunked *request* body with
        /// arbitrary cut points, decodes to exactly the original
        /// bytes through `read_request`.
        #[test]
        fn chunked_request_decode_round_trips(
            len in 0usize..600,
            bytes in proptest::collection::vec(0usize..256, 600),
            cuts in proptest::collection::vec(1usize..48, 24),
        ) {
            let payload: Vec<u8> = bytes[..len].iter().map(|&b| b as u8).collect();
            let mut raw: Vec<u8> =
                b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            let mut at = 0;
            let mut cut = cuts.iter().cycle();
            while at < payload.len() {
                let take = (*cut.next().unwrap()).min(payload.len() - at);
                raw.extend_from_slice(format!("{take:x}\r\n").as_bytes());
                raw.extend_from_slice(&payload[at..at + take]);
                raw.extend_from_slice(b"\r\n");
                at += take;
            }
            raw.extend_from_slice(b"0\r\n\r\n");
            let req = parse_raw(&raw).unwrap().unwrap();
            prop_assert_eq!(req.body, payload);
        }
    }
}
