//! Minimal blocking HTTP/1.1 — exactly the subset the campaign API
//! needs: request-line + headers + `Content-Length` bodies on the way
//! in; fixed responses and chunked transfer-encoding (for NDJSON event
//! streams) on the way out, plus the matching client side used by
//! `anafault-cli` and the integration tests. No keep-alive: every
//! exchange is one connection, which keeps the server loop trivial and
//! is fine at campaign granularity.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on a request body (campaign specs embed netlists and
/// fault lists; 8 MiB is orders of magnitude above the real thing).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ….
    pub method: String,
    /// Path only (no query parsing — the API does not use queries).
    pub path: String,
    /// The body, empty when none was sent.
    pub body: String,
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads one request, or `None` when the peer closed the connection
/// before sending one. The request line and headers together may take
/// at most [`MAX_HEAD_BYTES`]: every line is read through the budget
/// that is left, so a peer that never sends a newline costs at most
/// `MAX_HEAD_BYTES + 1` bytes of buffer.
///
/// # Errors
/// I/O failures, oversized heads/bodies and malformed framing.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let mut budget = MAX_HEAD_BYTES;
    let Some(line) = read_head_line(reader, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line lacks a path"))?;
    let request = (method.to_string(), path.to_string());

    let mut content_length = 0usize;
    loop {
        let Some(header) = read_head_line(reader, &mut budget)? else {
            return Err(bad("connection closed inside headers"));
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("request body is not UTF-8"))?;
    Ok(Some(Request {
        method: request.0,
        path: request.1,
        body,
    }))
}

/// Reads one head line, its newline included, of at most `budget`
/// bytes and charges it to `budget`; `None` at end of input. Reads at
/// most `budget + 1` bytes.
fn read_head_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    let n = reader
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > *budget {
        return Err(bad("request head too large"));
    }
    *budget -= n;
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| bad("request head is not UTF-8"))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Writes a complete (non-chunked) response.
///
/// # Errors
/// Propagates the underlying write failures.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len()
    )?;
    stream.flush()
}

/// Writes a JSON response.
///
/// # Errors
/// See [`respond`].
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    respond(stream, status, "application/json", body)
}

/// A chunked NDJSON response in progress: one chunk per line, so a
/// tailing client sees each completed fault the moment it lands.
pub struct ChunkedStream<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedStream<'a> {
    /// Sends the response head and returns the line writer.
    ///
    /// # Errors
    /// Propagates the underlying write failures.
    pub fn start(stream: &'a mut TcpStream) -> io::Result<ChunkedStream<'a>> {
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        Ok(ChunkedStream { stream })
    }

    /// Sends one NDJSON line (the newline is appended here) as one
    /// chunk and returns the bytes put on the wire, framing included.
    ///
    /// # Errors
    /// Propagates the underlying write failures — a disconnected tail
    /// client surfaces here.
    pub fn send_line(&mut self, line: &str) -> io::Result<u64> {
        let payload = line.len() + 1;
        let head = format!("{payload:x}\r\n");
        write!(self.stream, "{head}{line}\n\r\n")?;
        self.stream.flush()?;
        Ok((head.len() + payload + 2) as u64)
    }

    /// Sends the terminating zero-length chunk.
    ///
    /// # Errors
    /// Propagates the underlying write failures.
    pub fn finish(self) -> io::Result<u64> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()?;
        Ok(5)
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// One client exchange: connect, send, read the whole response.
/// Handles both `Content-Length` and chunked bodies.
///
/// # Errors
/// Connection and framing failures.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut collected = String::new();
    let status = stream_request(addr, method, path, body, |line| {
        collected.push_str(line);
        collected.push('\n');
        Ok(())
    })?;
    // Non-NDJSON bodies come back through the same path; the trailing
    // newline added per line is harmless for JSON parsing but not for
    // byte-exact use, so strip the one we know we added.
    if !collected.is_empty() {
        collected.pop();
    }
    Ok((status, collected))
}

/// One client exchange with a streaming body: `on_line` runs once per
/// received line, as lines arrive (chunk boundaries are transparent).
/// Returns the response status.
///
/// # Errors
/// Connection and framing failures, and anything `on_line` raises.
pub fn stream_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    mut on_line: impl FnMut(&str) -> io::Result<()>,
) -> io::Result<u16> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let body = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed inside response headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }

    let mut text = String::new();
    if chunked {
        let mut pending = String::new();
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                // The daemon died mid-stream; surface what arrived so
                // far, then report the cut.
                break;
            }
            let size =
                usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            pending.push_str(&String::from_utf8(chunk).map_err(|_| bad("chunk is not UTF-8"))?);
            while let Some(nl) = pending.find('\n') {
                let line: String = pending.drain(..=nl).collect();
                on_line(line.trim_end_matches(['\n', '\r']))?;
            }
        }
        if !pending.is_empty() {
            on_line(&pending)?;
        }
        return Ok(status);
    }
    if let Some(n) = content_length {
        let mut body = vec![0u8; n];
        reader.read_exact(&mut body)?;
        text = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?;
    } else {
        reader.read_to_string(&mut text)?;
    }
    for line in text.lines() {
        on_line(line)?;
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Reads one request from `bytes`; also returns the bytes consumed.
    fn parse(bytes: &[u8]) -> (io::Result<Option<Request>>, usize) {
        let mut rest = bytes;
        let result = read_request(&mut rest);
        (result, bytes.len() - rest.len())
    }

    fn too_large(result: io::Result<Option<Request>>) -> bool {
        result.is_err_and(|e| {
            e.kind() == io::ErrorKind::InvalidData && e.to_string() == "request head too large"
        })
    }

    #[test]
    fn reads_a_request_and_its_body() {
        let (result, used) = parse(b"POST /campaigns HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello+");
        let request = result.unwrap().unwrap();
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/campaigns")
        );
        assert_eq!(request.body, "hello");
        assert_eq!(used, 52);
        assert!(parse(b"").0.unwrap().is_none());
    }

    /// A peer that never sends a newline is cut off at the head budget,
    /// in the request line and in a header alike.
    #[test]
    fn a_head_without_newline_is_bounded() {
        let flood = vec![b'a'; 1 << 20];
        let (result, used) = parse(&flood);
        assert!(too_large(result));
        assert!(used <= MAX_HEAD_BYTES + 1, "read {used} bytes");

        let mut header = b"GET /health HTTP/1.1\r\nX-Flood: ".to_vec();
        header.extend_from_slice(&flood);
        let (result, used) = parse(&header);
        assert!(too_large(result));
        assert!(used <= MAX_HEAD_BYTES + 1, "read {used} bytes");

        // Many short headers add up against the same budget.
        let mut many = b"GET /health HTTP/1.1\r\n".to_vec();
        while many.len() <= MAX_HEAD_BYTES {
            many.extend_from_slice(b"X-A: b\r\n");
        }
        many.extend_from_slice(b"\r\n");
        assert!(too_large(parse(&many).0));
    }

    /// Bytes that steer random edits into the framing branches.
    const HEAD_BYTES: &[u8] = b"\r\n: 09aZ/\x00\xff\xc3";

    /// Requests the daemon really receives.
    const REQUESTS: &[&[u8]] = &[
        b"GET /campaigns/c1/events HTTP/1.1\r\nHost: 127.0.0.1:7878\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 17\r\n\r\n{\"spec_version\": 1}",
        b"GET /health HTTP/1.1\r\n\r\n",
    ];

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// Arbitrary bytes, mostly from [`HEAD_BYTES`].
    struct Garbage;

    impl Strategy for Garbage {
        type Value = Vec<u8>;

        fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
            (0..pick(rng, 128))
                .map(|_| match pick(rng, 3) {
                    0 => pick(rng, 256) as u8,
                    _ => HEAD_BYTES[pick(rng, HEAD_BYTES.len())],
                })
                .collect()
        }
    }

    /// A real request after one to four random edits: a byte replaced,
    /// inserted or deleted, a span deleted or duplicated.
    struct Edited;

    impl Strategy for Edited {
        type Value = Vec<u8>;

        fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
            let mut bytes = REQUESTS[pick(rng, REQUESTS.len())].to_vec();
            for _ in 0..1 + pick(rng, 4) {
                let at = pick(rng, bytes.len() + 1);
                let b = HEAD_BYTES[pick(rng, HEAD_BYTES.len())];
                let end = (at + pick(rng, 16)).min(bytes.len());
                match pick(rng, 5) {
                    0 if at < bytes.len() => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    3 => {
                        bytes.drain(at..end);
                    }
                    _ => {
                        let span = bytes[at..end].to_vec();
                        bytes.splice(at..at, span);
                    }
                }
            }
            bytes
        }
    }

    /// Any input gives a typed result, and a parsed request never
    /// outgrows the limits.
    fn check(bytes: &[u8]) {
        let (result, used) = parse(bytes);
        if let Ok(Some(request)) = result {
            assert!(request.body.len() <= MAX_BODY_BYTES);
            assert!(used <= MAX_HEAD_BYTES + request.body.len());
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(inputs in proptest::collection::vec(Garbage, 8..9)) {
            for bytes in &inputs {
                check(bytes);
            }
        }

        #[test]
        fn edited_requests_never_panic(inputs in proptest::collection::vec(Edited, 8..9)) {
            for bytes in &inputs {
                check(bytes);
            }
        }
    }
}
