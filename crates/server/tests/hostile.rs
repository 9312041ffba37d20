//! Clients that open a connection and never finish their request: the
//! daemon answers `408` once [`http::REQUEST_DEADLINE`] runs out, however
//! the bytes trickle in, and keeps serving everyone else meanwhile.
//! Clients that cut their body short, send garbage, or hang up on a
//! stream leave the daemon healthy, with nothing left in flight.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use seco_server::{http, Server, ServerConfig, ServerHandle, ServerState};

/// Slack past the deadline for the answer and the close to arrive.
const MARGIN: Duration = Duration::from_secs(2);

fn boot() -> (ServerHandle, String) {
    let (registry, _) = seco_bench::chain_scenario(2, 42);
    let state = ServerState::new(registry, ServerConfig::default());
    let server = Server::bind("127.0.0.1:0", state).expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn accept loop");
    let addr = handle.addr.to_string();
    (handle, addr)
}

fn stop(handle: ServerHandle, addr: &str) {
    let _ = http::call(addr, "POST", "/admin/shutdown", "");
    handle.join();
}

/// Sends an unending header one byte every 100 ms on a clone of `conn`,
/// until the daemon closes the connection (or 20 s pass).
fn drip(conn: &TcpStream) -> thread::JoinHandle<()> {
    let mut conn = conn.try_clone().expect("clone");
    thread::spawn(move || {
        let bytes = "GET /healthz HTTP/1.1\r\nX-Drip: "
            .bytes()
            .chain(std::iter::repeat(b'a'));
        for b in bytes.take(200) {
            if conn.write_all(&[b]).is_err() {
                return;
            }
            thread::sleep(Duration::from_millis(100));
        }
    })
}

/// Reads `conn` to its end and requires a `408` that arrived, and a
/// close, within [`MARGIN`] after the deadline counted from `since`.
fn assert_timed_out(conn: &mut TcpStream, since: Instant) {
    let limit = http::REQUEST_DEADLINE + MARGIN + MARGIN;
    conn.set_read_timeout(Some(limit)).expect("timeout");
    let mut bytes = Vec::new();
    conn.read_to_end(&mut bytes)
        .expect("the daemon closes cleanly");
    let closed = since.elapsed();
    let text = String::from_utf8_lossy(&bytes);
    assert_eq!(text.lines().next(), Some("HTTP/1.1 408 Request Timeout"));
    let window = http::REQUEST_DEADLINE..=http::REQUEST_DEADLINE + MARGIN;
    assert!(window.contains(&closed), "closed after {closed:?}");
}

#[test]
fn a_silent_client_is_answered_408_at_the_deadline() {
    let (handle, addr) = boot();
    let start = Instant::now();
    let mut conn = TcpStream::connect(&addr).expect("connect");
    assert_timed_out(&mut conn, start);
    stop(handle, &addr);
}

#[test]
fn a_dripping_client_cannot_stretch_the_deadline() {
    let (handle, addr) = boot();
    let start = Instant::now();
    let mut conn = TcpStream::connect(&addr).expect("connect");
    let writer = drip(&conn);
    assert_timed_out(&mut conn, start);
    writer.join().expect("writer");
    stop(handle, &addr);
}

#[test]
fn healthz_answers_while_hostile_clients_hold_connections() {
    let (handle, addr) = boot();
    let start = Instant::now();
    let silent: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    let dripping = TcpStream::connect(&addr).expect("connect");
    let writer = drip(&dripping);
    while start.elapsed() < http::REQUEST_DEADLINE + MARGIN {
        let (status, body) = http::call(&addr, "GET", "/healthz", "").expect("healthz");
        assert_eq!((status, body.as_str()), (200, r#"{"ok":true}"#));
        thread::sleep(Duration::from_millis(250));
    }
    drop((silent, dripping));
    writer.join().expect("writer");
    stop(handle, &addr);
}

/// `/healthz` answers, and once `/stats` counts `admitted` queries it
/// reads `in_flight` 0 within the read deadline.
fn assert_recovers(addr: &str, admitted: u64) {
    let (status, _) = http::call(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    let start = Instant::now();
    loop {
        let (_, stats) = http::call(addr, "GET", "/stats", "").expect("stats");
        if counter(&stats, "admitted") >= admitted && counter(&stats, "in_flight") == 0 {
            return;
        }
        assert!(
            start.elapsed() < http::REQUEST_DEADLINE,
            "still in flight: {stats}"
        );
        thread::sleep(Duration::from_millis(50));
    }
}

/// The integer `"key":<n>` of a compact JSON body.
fn counter(body: &str, key: &str) -> u64 {
    let at = body.find(&format!("\"{key}\":")).expect("counter present") + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("an integer")
}

#[test]
fn truncated_garbage_and_vanishing_clients_leave_the_daemon_serving() {
    let (handle, addr) = boot();
    // A body 20 bytes into a declared 200, then the write half shut: a
    // 400, not a dropped connection.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 200\r\n\r\n")
        .expect("head");
    conn.write_all(&[b'x'; 20]).expect("part of the body");
    conn.shutdown(std::net::Shutdown::Write).expect("shut");
    let mut answer = String::new();
    conn.read_to_string(&mut answer).expect("an answer");
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("truncated request body"), "{answer}");
    assert_recovers(&addr, 0);

    // A body that is no query: a 400 error document.
    let (status, body) = http::call(&addr, "POST", "/query", "Select ( garbage").expect("call");
    assert_eq!(status, 400, "{body}");
    assert!(body.starts_with("{\"error\":"), "{body}");
    assert_recovers(&addr, 1);

    // A streamed `mode=par` query whose client closes without reading.
    let text = seco_bench::chain_scenario(2, 42).1.to_string();
    let mut conn = TcpStream::connect(&addr).expect("connect");
    let request = format!(
        "POST /query?mode=par&stream=1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n{text}",
        text.len()
    );
    conn.write_all(request.as_bytes()).expect("request");
    drop(conn);
    assert_recovers(&addr, 2);

    stop(handle, &addr);
}
