//! The load generator's own HTTP/1.1 client and response scanner.
//!
//! Not `seco_server::http::stream`: that is program code, and it stamps
//! the *plan* frame as "first chunk". This client opens a new connection
//! per request (`Connection: close`, the only mode the daemon speaks),
//! and times connect → first result row parseable by the caller (the
//! first `"frame":"chunk"` when streaming, body arrival otherwise) and
//! connect → close, counting bytes. Buffers are reused across requests
//! so the generator's own allocation stays out of `rss_peak_mb`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const CHUNK_FRAME: &[u8] = b"\"frame\":\"chunk\"";

/// Timing and size of one completed request.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// HTTP status (0 when the status line was unreadable).
    pub status: u16,
    /// Connect → first result row usable by the caller.
    pub first_rows: Duration,
    /// Connect → connection closed by the daemon.
    pub total: Duration,
    /// Response bytes on the wire (head + body + chunk framing).
    pub wire_bytes: usize,
}

/// `struct linger` of `<sys/socket.h>`.
#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
}

/// Makes `close` reset the connection instead of walking it through
/// FIN/TIME_WAIT. The daemon closes first on every request, so each
/// connection would otherwise leave a 60 s TIME_WAIT entry behind; at
/// thousands of requests per second the kernel's 65 536-entry table
/// fills within a run, and everything after — in this run and the
/// next — measures the kernel's overflow path (+14 % on `warm_chain`)
/// instead of the daemon. By the time the client closes it has read
/// the response to EOF, so nothing is lost. (`TcpStream::set_linger`
/// is not stable; the values are Linux's, like the `/proc` files the
/// benchmark reads.)
fn reset_on_close(conn: &TcpStream) -> io::Result<()> {
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `conn` owns an open socket for the whole call, `linger`
    // is a live `struct linger` of the length passed, and the kernel
    // only reads it.
    let rc = unsafe {
        setsockopt(
            conn.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// A reusable single-request-per-connection client.
pub struct Client {
    addr: SocketAddr,
    read_buf: Vec<u8>,
    raw: Vec<u8>,
    body: Vec<u8>,
}

/// Position of the first `needle` in `haystack`: hops between
/// occurrences of the needle's first byte, since the haystacks are
/// whole response bodies scanned on the clock.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let first = *needle.first()?;
    let mut from = 0;
    while let Some(hop) = haystack[from..].iter().position(|b| *b == first) {
        let at = from + hop;
        if haystack[at..].starts_with(needle) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

impl Client {
    /// A client for the daemon at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            read_buf: vec![0; 64 * 1024],
            raw: Vec::with_capacity(256 * 1024),
            body: Vec::with_capacity(256 * 1024),
        }
    }

    /// The decoded body of the last reply (chunk framing removed).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Issues one request and reads the response to connection close.
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> io::Result<Reply> {
        let start = Instant::now();
        let mut conn = TcpStream::connect(self.addr)?;
        conn.set_nodelay(true)?;
        reset_on_close(&conn)?;
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: seco\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        conn.write_all(head.as_bytes())?;

        self.raw.clear();
        let mut header_end: Option<usize> = None;
        let mut chunked = false;
        let mut first_rows: Option<Duration> = None;
        let mut scanned = 0usize;
        loop {
            let n = conn.read(&mut self.read_buf)?;
            if n == 0 {
                break;
            }
            self.raw.extend_from_slice(&self.read_buf[..n]);
            if header_end.is_none() {
                if let Some(at) = find(&self.raw, b"\r\n\r\n") {
                    header_end = Some(at + 4);
                    let head = self.raw[..at].to_ascii_lowercase();
                    chunked = find(&head, b"transfer-encoding: chunked").is_some();
                    scanned = at + 4;
                }
            }
            if let (Some(end), None) = (header_end, first_rows) {
                if chunked {
                    // Re-scan a needle's length of overlap so a frame
                    // marker split across two reads is still seen.
                    let from = scanned.saturating_sub(CHUNK_FRAME.len()).max(end);
                    if find(&self.raw[from..], CHUNK_FRAME).is_some() {
                        first_rows = Some(start.elapsed());
                    }
                    scanned = self.raw.len();
                } else if self.raw.len() > end {
                    first_rows = Some(start.elapsed());
                }
            }
        }
        let total = start.elapsed();

        let status = self
            .raw
            .split(|b| *b == b' ')
            .nth(1)
            .and_then(|s| std::str::from_utf8(s).ok())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        self.body.clear();
        let payload = &self.raw[header_end.unwrap_or(self.raw.len())..];
        if chunked {
            decode_chunked(payload, &mut self.body)?;
        } else {
            self.body.extend_from_slice(payload);
        }
        Ok(Reply {
            status,
            first_rows: first_rows.unwrap_or(total),
            total,
            wire_bytes: self.raw.len(),
        })
    }
}

/// Strips `Transfer-Encoding: chunked` framing from `payload`.
fn decode_chunked(mut payload: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    loop {
        let line_end = find(payload, b"\r\n").ok_or_else(|| bad("chunk size line unterminated"))?;
        let size = std::str::from_utf8(&payload[..line_end])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .ok_or_else(|| bad("chunk size is not hex"))?;
        payload = &payload[line_end + 2..];
        if size == 0 {
            return Ok(());
        }
        if payload.len() < size + 2 {
            return Err(bad("chunk shorter than its declared size"));
        }
        out.extend_from_slice(&payload[..size]);
        payload = &payload[size + 2..];
    }
}

/// Digest of the result rows of one response: count, an order-sensitive
/// hash (byte-identity of the ranked sequence) and an order-free hash
/// (multiset equality of streamed emission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsDigest {
    /// Number of rows.
    pub count: u64,
    /// FNV-1a chain over the rows' hashes in order.
    pub ordered: u64,
    /// Wrapping sum of the rows' hashes.
    pub bag: u64,
}

impl Default for RowsDigest {
    fn default() -> Self {
        Self::new()
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

impl RowsDigest {
    /// An empty digest.
    pub fn new() -> Self {
        RowsDigest {
            count: 0,
            ordered: FNV_OFFSET,
            bag: 0,
        }
    }

    /// Adds one rendered row (the bytes of its JSON object): the row
    /// is hashed once and the hash feeds both digests.
    pub fn push(&mut self, row: &[u8]) {
        let h = hash_bytes(row);
        self.count += 1;
        self.ordered = fnv(self.ordered, &h.to_le_bytes());
        self.bag = self.bag.wrapping_add(h);
    }

    /// Digests every row object of every `"rows":[…]` array in `body`,
    /// in order of appearance.
    pub fn of_body(body: &[u8]) -> Self {
        let mut digest = RowsDigest::new();
        let mut rest = body;
        while let Some(at) = find(rest, b"\"rows\":[") {
            rest = &rest[at + 8..];
            let used = for_each_object(rest, |row| digest.push(row));
            rest = &rest[used..];
        }
        digest
    }
}

/// Calls `f` with each top-level `{…}` of the JSON array whose elements
/// start at `array[0]`; returns the bytes consumed up to its `]`.
fn for_each_object(array: &[u8], mut f: impl FnMut(&[u8])) -> usize {
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, b) in array.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    f(&array[start..=i]);
                }
            }
            b']' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    array.len()
}

/// The unsigned integer following `"key":` in a compact JSON body.
pub fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = find(body, needle.as_bytes())? + needle.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// The raw (still JSON-escaped) bytes of the string following
/// `"key":"` in a compact JSON body.
pub fn json_raw_str<'a>(body: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let needle = format!("\"{key}\":\"");
    let at = find(body, needle.as_bytes())? + needle.len();
    let mut escaped = false;
    for (i, b) in body[at..].iter().enumerate() {
        match b {
            _ if escaped => escaped = false,
            b'\\' => escaped = true,
            b'"' => return Some(&body[at..at + i]),
            _ => {}
        }
    }
    None
}

/// FNV-1a of `bytes` (plan keys are compared by hash).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_bodies_decode_and_reject_truncation() {
        let mut out = Vec::new();
        decode_chunked(b"5\r\nhello\r\n3\r\nabc\r\n0\r\n\r\n", &mut out).expect("well formed");
        assert_eq!(out, b"helloabc");
        assert!(decode_chunked(b"5\r\nhel", &mut Vec::new()).is_err());
        assert!(decode_chunked(b"zz\r\n", &mut Vec::new()).is_err());
    }

    #[test]
    fn rows_are_split_on_object_boundaries_not_on_text() {
        let body = br#"{"plan":{"plan":"O(x)"},"rows":[{"score":0.5,"combo":"a}],{\"b"},{"score":0.25,"combo":"c"}],"calls":3}"#;
        let mut want = RowsDigest::new();
        want.push(br#"{"score":0.5,"combo":"a}],{\"b"}"#);
        want.push(br#"{"score":0.25,"combo":"c"}"#);
        assert_eq!(RowsDigest::of_body(body), want);
    }

    #[test]
    fn frames_concatenate_and_order_matters_only_to_the_ordered_hash() {
        let a = RowsDigest::of_body(
            b"{\"frame\":\"chunk\",\"rows\":[{\"r\":1}]}\n{\"frame\":\"chunk\",\"rows\":[{\"r\":2}]}\n",
        );
        let b = RowsDigest::of_body(b"{\"rows\":[{\"r\":2},{\"r\":1}]}");
        assert_eq!(a.count, 2);
        assert_eq!(a.bag, b.bag);
        assert_ne!(a.ordered, b.ordered);
    }

    #[test]
    fn scalar_fields_are_found() {
        let body = br#"{"plan":{"frame":"plan","plan":"O(S[A1=X1,F=2])"},"session":17,"rows":[]}"#;
        assert_eq!(json_u64(body, "session"), Some(17));
        assert_eq!(
            json_raw_str(body, "plan"),
            Some(&b"O(S[A1=X1,F=2])"[..]),
            "the outer `plan` is an object; the inner one is the key"
        );
        let escaped = br#"{"plan":"F[A1.Key=\"x\"](I)","n":1}"#;
        assert_eq!(
            json_raw_str(escaped, "plan"),
            Some(&br#"F[A1.Key=\"x\"](I)"#[..])
        );
        assert_eq!(json_u64(body, "missing"), None);
    }
}
