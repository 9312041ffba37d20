//! Minimal HTTP/1.1 plumbing over [`std::net`].
//!
//! The build environment vendors no HTTP stack, so the serving layer
//! speaks the smallest useful protocol subset by hand: request line +
//! headers + `Content-Length` bodies on the way in; fixed-length or
//! chunked (`Transfer-Encoding: chunked`) responses on the way out.
//! Every connection carries exactly one request (`Connection: close`),
//! which keeps the parser trivial and makes per-request latency
//! directly measurable from connect to close.
//!
//! Chunked responses carry the session protocol's *frames*: each chunk
//! is one complete JSON document on its own line, flushed immediately,
//! so a client can act on the first result combinations while the
//! engine is still joining tiles — the chapter's progressive answer
//! integration, made visible on the wire.
//!
//! The client half ([`call`], [`stream`]) exists for the integration
//! tests; it records time-to-first-frame, the serving metric the
//! fixed-length path cannot expose.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// One parsed request: method, path (query string split off into
/// `params`, both halves percent-decoded), and the raw text body.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method verb (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path component without the query string, e.g. `/session/7/more`.
    pub path: String,
    /// Decoded query-string parameters.
    pub params: BTreeMap<String, String>,
    /// Request body (the query text for `POST /query`).
    pub body: String,
}

impl Request {
    /// The query-string parameter `name`, when present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(|s| s.as_str())
    }

    /// `name` parsed as an integer, or `default` when absent/invalid.
    pub fn param_usize(&self, name: &str, default: usize) -> usize {
        self.param(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Percent-decodes one URL component (`+` is a space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match s
                .get(i + 1..i + 3)
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                Some(b) => {
                    out.push(b);
                    i += 3;
                }
                None => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Largest request body accepted; a longer `Content-Length` is refused
/// before any of it is read or allocated.
const MAX_BODY: usize = 1 << 20;

/// Largest request head (request line and headers together) accepted; a
/// client that sends more, or never ends a line, is refused once this
/// much has been read.
const MAX_HEAD: usize = 16 << 10;

/// A request refused while parsing: the status to answer with, and why.
pub type Rejection = (u16, &'static str);

const HEAD_TOO_LARGE: Rejection = (431, "request head too large");

const TIMED_OUT: Rejection = (408, "request not complete in time");

/// The client ended its half of the connection short of the body its
/// `Content-Length` declared.
const TRUNCATED: Rejection = (400, "truncated request body");

/// How long a client has to send its whole request, head and body. A
/// client that is silent or drips its bytes is answered `408` once it
/// runs out, so it cannot hold a connection thread.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// How long a refused client's leftover bytes are read and dropped.
const DISCARD_DEADLINE: Duration = Duration::from_secs(1);

/// The connection, read under a deadline: every read waits at most for
/// what is left of it, so no pace of arriving bytes can stretch it. A
/// read past the deadline fails with [`io::ErrorKind::TimedOut`].
struct Deadline {
    stream: TcpStream,
    at: Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        // A read timeout surfaces as `WouldBlock` on Unix.
        self.stream.read(buf).map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut.into(),
            _ => e,
        })
    }
}

/// Reads the next line of the head into `line`, within what is left of
/// the head's budget: `false` when the budget ran out before the line
/// ended. At a clean EOF the line comes back empty.
fn head_line(head: &mut io::Take<&mut BufReader<Deadline>>, line: &mut String) -> io::Result<bool> {
    line.clear();
    head.read_line(line)?;
    Ok(line.ends_with('\n') || head.limit() > 0)
}

/// Reads one request off the connection. `None` on a clean EOF before
/// any bytes (client connected and went away); `Some(Err(..))` when the
/// head is longer than [`MAX_HEAD`], the declared body length is not
/// acceptable, the body ends short of it, or the request is not
/// complete within [`REQUEST_DEADLINE`].
pub fn parse_request(stream: &TcpStream) -> io::Result<Option<Result<Request, Rejection>>> {
    let reader = Deadline {
        stream: stream.try_clone()?,
        at: Instant::now() + REQUEST_DEADLINE,
    };
    match read_request(BufReader::new(reader)) {
        Err(e) if e.kind() == io::ErrorKind::TimedOut => Ok(Some(Err(TIMED_OUT))),
        read => read,
    }
}

fn read_request(mut reader: BufReader<Deadline>) -> io::Result<Option<Result<Request, Rejection>>> {
    let mut head = reader.by_ref().take(MAX_HEAD as u64);
    let mut line = String::new();
    if !head_line(&mut head, &mut line)? {
        return Ok(Some(Err(HEAD_TOO_LARGE)));
    }
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "request line has no target"))?;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let params = query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (url_decode(k), url_decode(v))
        })
        .collect();
    let mut content_length = 0usize;
    let mut header = String::new();
    loop {
        if !head_line(&mut head, &mut header)? {
            return Ok(Some(Err(HEAD_TOO_LARGE)));
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = match v.trim().parse() {
                Ok(n) if n <= MAX_BODY => n,
                Ok(_) => return Ok(Some(Err((413, "request body too large")))),
                Err(_) => return Ok(Some(Err((400, "unparseable Content-Length")))),
            };
        }
    }
    let mut body = vec![0u8; content_length];
    match reader.read_exact(&mut body) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(Some(Err(TRUNCATED))),
        read => read?,
    }
    Ok(Some(Ok(Request {
        method,
        path: path.to_owned(),
        params,
        body: String::from_utf8_lossy(&body).into_owned(),
    })))
}

/// Reads and drops what a refused client is still sending — up to
/// [`MAX_BODY`], for at most [`DISCARD_DEADLINE`] in all — before the
/// connection closes: closing on unread bytes resets it, and the answer
/// with it.
pub fn discard_rest(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let Ok(stream) = stream.try_clone() else {
        return;
    };
    let rest = Deadline {
        stream,
        at: Instant::now() + DISCARD_DEADLINE,
    };
    let _ = io::copy(&mut rest.take(MAX_BODY as u64), &mut io::sink());
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length JSON response: head and body leave in
/// one `write` (the stream is unbuffered, so a `write!` onto it would
/// issue one per format fragment).
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    out.push_str(body);
    stream.write_all(out.as_bytes())
}

/// Incremental frame writer: a chunked HTTP response where every chunk
/// is one newline-terminated JSON document, sent as soon as it is
/// complete and in one `write`.
pub struct ChunkedWriter {
    stream: TcpStream,
    /// The frame being assembled: room for the size line, then the
    /// document, then the chunk trailer.
    buf: String,
}

/// Room kept ahead of a frame's document for its size line (16 hex
/// digits of a `usize` and CRLF); the line is written right-aligned into
/// it once the document's length is known.
const SIZE_LINE: usize = 18;

impl ChunkedWriter {
    /// Sends the response head and returns the frame writer.
    pub fn begin(stream: &TcpStream, status: u16) -> io::Result<Self> {
        let mut stream = stream.try_clone()?;
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: application/jsonlines\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status),
        );
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedWriter {
            stream,
            buf: String::new(),
        })
    }

    /// Writes one frame as its own chunk; `fill` appends the frame's
    /// JSON document to the buffer it is handed (and nothing else).
    pub fn frame_with(&mut self, fill: impl FnOnce(&mut String)) -> io::Result<()> {
        self.buf.clear();
        self.buf.extend(std::iter::repeat_n(' ', SIZE_LINE));
        fill(&mut self.buf);
        self.buf.push('\n');
        let size = format!("{:x}\r\n", self.buf.len() - SIZE_LINE);
        self.buf.push_str("\r\n");
        let start = SIZE_LINE - size.len();
        self.buf.replace_range(start..SIZE_LINE, &size);
        self.stream.write_all(&self.buf.as_bytes()[start..])
    }

    /// Writes one frame (a full JSON document) as its own chunk.
    pub fn frame(&mut self, json: &str) -> io::Result<()> {
        self.frame_with(|doc| doc.push_str(json))
    }

    /// Terminates the chunk stream.
    pub fn finish(mut self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")
    }
}

/// A fully read client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Decoded body: chunked frames are concatenated in arrival order.
    pub body: String,
    /// Connect-to-first-body-frame latency — for a streamed query, the
    /// time until the first combinations were usable at the client.
    pub time_to_first_chunk: Duration,
    /// Connect-to-close latency.
    pub total: Duration,
}

/// Issues one request and reads the entire response (fixed-length or
/// chunked), timing first-frame arrival along the way.
pub fn stream(addr: &str, method: &str, target: &str, body: &str) -> io::Result<ClientResponse> {
    let start = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: seco\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    conn.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut chunked = false;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if header == "transfer-encoding: chunked" {
            chunked = true;
        } else if let Some(v) = header.strip_prefix("content-length:") {
            content_length = v.trim().parse().ok();
        }
    }
    let mut body_text = String::new();
    let mut first_chunk: Option<Duration> = None;
    if chunked {
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                break;
            }
            let n = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
            if n == 0 {
                let mut trailer = String::new();
                let _ = reader.read_line(&mut trailer);
                break;
            }
            let mut buf = vec![0u8; n + 2]; // payload + CRLF
            reader.read_exact(&mut buf)?;
            if first_chunk.is_none() {
                first_chunk = Some(start.elapsed());
            }
            body_text.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
    } else {
        let mut buf = Vec::new();
        match content_length {
            Some(n) => {
                buf.resize(n, 0);
                reader.read_exact(&mut buf)?;
            }
            None => {
                reader.read_to_end(&mut buf)?;
            }
        }
        if !buf.is_empty() {
            first_chunk = Some(start.elapsed());
        }
        body_text = String::from_utf8_lossy(&buf).into_owned();
    }
    let total = start.elapsed();
    Ok(ClientResponse {
        status,
        body: body_text,
        time_to_first_chunk: first_chunk.unwrap_or(total),
        total,
    })
}

/// [`stream`] without the timing detail: `(status, body)`.
pub fn call(addr: &str, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
    let r = stream(addr, method, target, body)?;
    Ok((r.status, r.body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_decoding_handles_percent_and_plus() {
        assert_eq!(url_decode("a+b%20c%3D1"), "a b c=1");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("bad%zz"), "bad%zz");
    }
}
