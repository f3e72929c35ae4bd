//! Hardening tests against a live server: streaming results (first
//! chunk before the job finishes), `/v1/metrics` movement, connection
//! caps and read timeouts, HTTP/1.0 close semantics, malformed
//! requests, and the drain × streaming interaction.

use mems_serve::http::{read_chunk, read_chunked_body};
use mems_serve::{Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const SWEEP_DECK: &str = "divider sweep\n\
    .param rload=1k\n\
    Vs in 0 6\n\
    R1 in out 1k\n\
    R2 out 0 {rload}\n\
    .op\n\
    .print op v(out)\n\
    .step param rload 1k 5k 1k\n";

/// A `.MC` transient batch slow enough to watch mid-flight.
const MC_TRAN_DECK: &str = "mc resonator\n\
    .param k=200 m=1e-4 alpha=40e-3\n\
    Is 0 vel PWL(0 0 0.1m 1u)\n\
    Mm1 vel 0 {m}\n\
    Kk1 vel 0 {k}\n\
    Dd1 vel 0 {alpha}\n\
    .tran 0.02m 100m\n\
    .print tran v(vel)\n\
    .mc 60 seed=7 k tol=0.05 dist=gauss\n";

/// One-shot request on a fresh connection; de-chunks chunked bodies.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write");
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader);
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked_body(&mut reader).expect("chunked body")
    } else {
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("body");
        let length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().expect("numeric length"))
            .unwrap_or(rest.len());
        rest.truncate(length);
        rest
    };
    (status, String::from_utf8(body).expect("utf8 body"))
}

fn read_head(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status in `{line}`"))
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let (k, v) = line.split_once(':').expect("header colon");
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    (status, headers)
}

fn parsed(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON `{body}`: {e}"))
}

fn job_id(body: &str) -> u64 {
    parsed(body).get("id").and_then(Json::as_u64).expect("id")
}

fn job_state(addr: SocketAddr, id: u64) -> String {
    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200, "{body}");
    parsed(&body)
        .get("state")
        .and_then(Json::as_str)
        .expect("state")
        .to_string()
}

/// Value of the (fully labeled) Prometheus series in `body`.
fn metric(body: &str, series: &str) -> f64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{series} ")))
        .unwrap_or_else(|| panic!("no series `{series}`"))
        .parse()
        .expect("numeric sample")
}

#[test]
fn results_stream_before_the_job_finishes() {
    let server = Server::start(ServeConfig {
        workers: 1,
        chunk_size: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/v1/jobs", MC_TRAN_DECK);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);

    // Open the blocking stream and read the prelude + first record.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(format!("GET /v1/jobs/{id}/results HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, headers) = read_head(&mut reader);
    assert_eq!(status, 200);
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v == "chunked"),
        "stream must be chunked transfer-coded: {headers:?}"
    );
    let prelude = read_chunk(&mut reader).unwrap().expect("prelude chunk");
    let prelude = String::from_utf8(prelude).unwrap();
    assert!(prelude.ends_with("\"points\":["), "{prelude}");
    let first = read_chunk(&mut reader).unwrap().expect("first record");
    assert!(String::from_utf8_lossy(&first).contains("\"index\":0"));

    // The first record arrived while the job was still running: the
    // 60-point batch cannot be terminal after one record.
    let state = job_state(addr, id);
    assert!(
        state != "done" && state != "cancelled",
        "job already terminal ({state}) — stream did not beat the finish"
    );

    // Cancel; the stream must still run to completion, with the
    // cancelled tail state and every remaining index accounted for.
    let (status, _) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 202);
    let mut rest = Vec::new();
    while let Some(chunk) = read_chunk(&mut reader).unwrap() {
        rest.extend_from_slice(&chunk);
    }
    let tail = String::from_utf8(rest).unwrap();
    assert!(
        tail.ends_with("\"next\":60,\"state\":\"cancelled\"}"),
        "{tail}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn nonblocking_poll_returns_a_cursor_midway() {
    let server = Server::start(ServeConfig {
        workers: 1,
        chunk_size: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/v1/jobs", MC_TRAN_DECK);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);

    // Wait for some progress, then poll without blocking.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http(addr, "GET", &format!("/v1/jobs/{id}/results?wait=0"), "");
        let doc = parsed(&body);
        let next = doc.get("next").and_then(Json::as_u64).expect("next");
        let state = doc.get("state").and_then(Json::as_str).expect("state");
        if next > 0 {
            assert!(
                state != "done" && state != "cancelled" || next == 60,
                "{body}"
            );
            break;
        }
        assert!(Instant::now() < deadline, "no progress: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let (status, _) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 202);
    server.shutdown();
    server.join();
}

#[test]
fn http10_responses_close_the_connection() {
    // Regression (server level): HTTP/1.0 requests without
    // `Connection: keep-alive` used to hold the socket open until the
    // read timeout; now the server hangs up after answering.
    let server = Server::start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /v1/health HTTP/1.0\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    // read_to_end only returns promptly because the server closes.
    stream.read_to_end(&mut response).expect("EOF, not timeout");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("\"ok\":true"));

    // An HTTP/1.0 results stream is unframed (no chunk sizes) and
    // close-delimited.
    let (status, body) = http(addr, "POST", "/v1/jobs", SWEEP_DECK);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(format!("GET /v1/jobs/{id}/results?wait=0 HTTP/1.0\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("EOF, not timeout");
    let text = String::from_utf8_lossy(&response);
    assert!(!text.contains("Transfer-Encoding"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    let body_at = text.find("\r\n\r\n").unwrap() + 4;
    parsed(&text[body_at..]); // raw body is one complete JSON document

    server.shutdown();
    server.join();
}

#[test]
fn malformed_requests_get_the_right_status() {
    let server = Server::start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    let long_header = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "b".repeat(9000));
    let mut flood = String::from("GET / HTTP/1.1\r\n");
    for i in 0..=100 {
        flood.push_str(&format!("X-H{i}: v\r\n"));
    }
    flood.push_str("\r\n");
    let table: &[(&[u8], u16)] = &[
        (b"BOGUS\r\n\r\n", 400),
        (b"GET / HTTP/2.0\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nno-colon\r\n\r\n", 400),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
            400,
        ),
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: zz\r\n\r\n", 400),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            413,
        ),
        (long_path.as_bytes(), 414),
        (long_header.as_bytes(), 431),
        (flood.as_bytes(), 431),
        (
            // A chunked body is fine now, but stacking it on a
            // Content-Length is still the smuggling combo.
            b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n0\r\n\r\n",
            400,
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            501,
        ),
    ];
    for (raw, expected) in table {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(raw).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _) = read_head(&mut reader);
        assert_eq!(
            status,
            *expected,
            "request {:?}",
            String::from_utf8_lossy(&raw[..raw.len().min(60)])
        );
        // The framing is untrusted after a violation: the server
        // hangs up rather than resynchronizing.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("EOF, not timeout");
    }

    server.shutdown();
    server.join();
}

/// A `.STEP` × `.MC` product of 10¹¹ points — each card within its own
/// bound — is a spanned diagnostic on both deck-parsing endpoints, not
/// an allocation that aborts the server.
#[test]
fn oversized_step_times_mc_product_is_diagnosed_not_fatal() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let deck = "product\n.param r=1k\nVs in 0 1\nR1 in 0 {r}\n.op\n\
                .step param r 1 1000000 1\n.mc 100000 r tol=0.1\n";

    let (status, body) = http(addr, "POST", "/v1/check", deck);
    assert_eq!(status, 200, "{body}");
    let doc = parsed(&body);
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{body}");
    let diag = match doc.get("diagnostics") {
        Some(Json::Arr(items)) if items.len() == 1 => items[0].clone(),
        other => panic!("expected one diagnostic: {other:?}"),
    };
    let message = diag.get("message").and_then(Json::as_str).expect("message");
    assert!(
        message.contains("1000000 × 100000 = 100000000000 points"),
        "{message}"
    );
    let line = diag.get("span").and_then(|s| s.get("line"));
    assert_eq!(line.and_then(Json::as_u64), Some(7), "{body}");

    let (status, body) = http(addr, "POST", "/v1/jobs", deck);
    assert_eq!(status, 400, "{body}");

    let (status, body) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200, "{body}");

    server.shutdown();
    server.join();
}

#[test]
fn oversized_analysis_is_diagnosed_not_fatal() {
    // `mems run` on this deck aborted on a 2 GB allocation; posted to
    // the server, the abort took the whole daemon down.
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let deck = "tr\nV1 1 0 PULSE(0 1 0 1n 1n 1n 2n)\nR1 1 2 1k\nC1 2 0 1p\n\
                .tran 1e-18 1\n.print tran v(2)\n.end\n";

    let (status, body) = http(addr, "POST", "/v1/check", deck);
    assert_eq!(status, 200, "{body}");
    let doc = parsed(&body);
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{body}");
    let diag = match doc.get("diagnostics") {
        Some(Json::Arr(items)) if items.len() == 1 => items[0].clone(),
        other => panic!("expected one diagnostic: {other:?}"),
    };
    let message = diag.get("message").and_then(Json::as_str).expect("message");
    assert!(message.contains("would produce"), "{message}");
    let line = diag.get("span").and_then(|s| s.get("line"));
    assert_eq!(line.and_then(Json::as_u64), Some(5), "{body}");

    let (status, body) = http(addr, "POST", "/v1/jobs", deck);
    assert_eq!(status, 400, "{body}");

    let (status, body) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(parsed(&body).get("ok"), Some(&Json::Bool(true)), "{body}");

    server.shutdown();
    server.join();
}

#[test]
fn too_many_breakpoints_fail_the_point_not_the_daemon() {
    // One waveform corner per nanosecond, so a transient to 1.0004 ms
    // would snap to just past 10⁶ breakpoints. The count depends on the
    // horizon and is made when the transient starts, so the submit is
    // accepted; its one point fails and the job still ends `done`.
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let deck = "tr\nV1 1 0 PULSE(0 1 0 1n 1n 1n 4n)\nR1 1 2 1k\nC1 2 0 1p\n\
                .tran 1u 1.0004m\n.print tran v(2)\n.end\n";

    let (status, body) = http(addr, "POST", "/v1/jobs", deck);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);
    let (status, stream) = http(addr, "GET", &format!("/v1/jobs/{id}/results"), "");
    assert_eq!(status, 200, "{stream}");
    assert!(stream.ends_with("\"state\":\"done\"}"), "{stream}");
    for part in [
        "\"status\":\"fail\"",
        "waveform breakpoints",
        "device `v1`",
        "the limit is 1000000",
    ] {
        assert!(stream.contains(part), "no `{part}` in {stream}");
    }

    let (status, body) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(parsed(&body).get("ok"), Some(&Json::Bool(true)), "{body}");

    server.shutdown();
    server.join();
}

/// Polls a job until it reads `done`, failing at a deadline rather
/// than hanging when no worker is left to run it.
fn poll_until_done(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = job_state(addr, id);
        if state == "done" {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} still `{state}`");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_point_that_cannot_build_fails_and_the_worker_runs_on() {
    // k = 1e-320 is positive, but a spring is built as the inductor
    // 1/k, which overflows. The point must fail with a diagnostic in
    // the warm-start chain and in the point loop alike, and the only
    // worker must live on to run the next job.
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let deck = "tiny stiffness\n.param k=200\nIs 0 vel PWL(0 0 0.1m 1u)\n\
                Mm1 vel 0 1e-4\nKk1 vel 0 {k}\nDd1 vel 0 40e-3\n.tran 0.5m 5m\n\
                .print tran v(vel)\n.step param k list 200 1e-320 300\n";

    let (status, body) = http(addr, "POST", "/v1/jobs", deck);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);
    poll_until_done(addr, id);
    let (status, stream) = http(addr, "GET", &format!("/v1/jobs/{id}/results"), "");
    assert_eq!(status, 200, "{stream}");
    let Some(Json::Arr(points)) = parsed(&stream).get("points").cloned() else {
        panic!("no points array in {stream}");
    };
    let statuses: Vec<&str> = points
        .iter()
        .map(|p| p.get("status").and_then(Json::as_str).unwrap_or(""))
        .collect();
    assert_eq!(statuses, ["ok", "fail", "ok"], "{stream}");
    let error = points[1].get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        error.contains("stiffness is too small: 1/k overflows"),
        "{error}"
    );

    let (status, body) = http(addr, "POST", "/v1/jobs", SWEEP_DECK);
    assert_eq!(status, 201, "{body}");
    poll_until_done(addr, job_id(&body));

    server.shutdown();
    server.join();
}

/// Sends one request on a kept-alive connection, in one write, and
/// reads its response: a fixed-length body to its `Content-Length`, a
/// chunked one to its terminator.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    reader.get_mut().write_all(req.as_bytes()).expect("write");
    let (status, headers) = read_head(reader);
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    };
    let body = if header("transfer-encoding").as_deref() == Some("chunked") {
        read_chunked_body(reader).expect("chunked body")
    } else {
        let length: usize = header("content-length")
            .expect("a kept-alive response is framed")
            .parse()
            .expect("numeric length");
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("body");
        body
    };
    (status, String::from_utf8(body).expect("utf8 body"))
}

#[test]
fn keep_alive_round_trips_do_not_stall() {
    // Each response used to leave in two or three writes; with Nagle
    // on, every later write waited for the client's delayed ACK of the
    // first (~40 ms a response), so 20 health checks took 0.83 s.
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let deck = "divider\nVs in 0 6\nR1 in out 1k\nR2 out 0 2k\n.op\n.print op v(out)\n";
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream);

    let t0 = Instant::now();
    for _ in 0..20 {
        let (status, body) = exchange(&mut reader, "GET", "/v1/health", "");
        assert_eq!(status, 200, "{body}");
    }
    for _ in 0..10 {
        let (status, body) = exchange(&mut reader, "POST", "/v1/jobs", deck);
        assert_eq!(status, 201, "{body}");
        let id = job_id(&body);
        let (status, body) = exchange(&mut reader, "GET", &format!("/v1/jobs/{id}/results"), "");
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains("\"op:v(out)\":3.99999999")
                && body.ends_with("\"next\":1,\"state\":\"done\"}"),
            "{body}"
        );
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(400),
        "20 health checks and 10 submit → stream round trips took {took:?}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn connection_cap_answers_503() {
    let server = Server::start(ServeConfig {
        workers: 0,
        max_conns: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // First connection occupies the only slot (a completed request
    // proves its handler is live and counted).
    let mut first = TcpStream::connect(addr).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    first.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
    let mut first_reader = BufReader::new(first.try_clone().unwrap());
    let (status, headers) = read_head(&mut first_reader);
    assert_eq!(status, 200);
    let length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().unwrap())
        .unwrap();
    let mut body = vec![0u8; length];
    first_reader.read_exact(&mut body).unwrap();

    // Second connection bounces off the cap with a Retry-After.
    let second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut second_reader = BufReader::new(second.try_clone().unwrap());
    let (status, headers) = read_head(&mut second_reader);
    assert_eq!(status, 503);
    assert!(headers.iter().any(|(k, v)| k == "retry-after" && v == "1"));

    // Releasing the first slot readmits new connections.
    drop(first_reader);
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = TcpStream::connect(addr).unwrap();
        retry
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        retry.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(retry);
        let (status, _) = read_head(&mut reader);
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "slot never released");
        std::thread::sleep(Duration::from_millis(10));
    }

    server.shutdown();
    server.join();
}

#[test]
fn idle_connections_are_dropped_after_the_read_timeout() {
    let server = Server::start(ServeConfig {
        workers: 0,
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Write nothing; the server must hang up on its own.
    let t0 = Instant::now();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("server-side close");
    assert!(buf.is_empty());
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "idle drop took {:?}",
        t0.elapsed()
    );

    server.shutdown();
    server.join();
}

#[test]
fn metrics_counters_move_with_the_workload() {
    let server = Server::start(ServeConfig {
        workers: 1,
        chunk_size: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(metric(&body, "mems_serve_jobs_submitted_total"), 0.0);
    assert_eq!(metric(&body, "mems_serve_jobs_total{state=\"done\"}"), 0.0);

    // Submit (miss), resubmit (hit), run both to completion.
    let (s1, b1) = http(addr, "POST", "/v1/jobs", SWEEP_DECK);
    assert_eq!(s1, 201, "{b1}");
    let (s2, b2) = http(addr, "POST", "/v1/jobs", SWEEP_DECK);
    assert_eq!(s2, 201, "{b2}");
    // The blocking stream doubles as a completion wait.
    for body in [&b1, &b2] {
        let id = job_id(body);
        let (_, stream_body) = http(addr, "GET", &format!("/v1/jobs/{id}/results"), "");
        assert!(
            stream_body.ends_with("\"state\":\"done\"}"),
            "{stream_body}"
        );
    }

    // Submit a slow batch and cancel it.
    let (status, body) = http(addr, "POST", "/v1/jobs", MC_TRAN_DECK);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);
    let (status, _) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 202);
    let (_, stream_body) = http(addr, "GET", &format!("/v1/jobs/{id}/results"), "");
    assert!(
        stream_body.ends_with("\"state\":\"cancelled\"}"),
        "{stream_body}"
    );

    let (status, body) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metric(&body, "mems_serve_jobs_submitted_total"), 3.0);
    assert_eq!(metric(&body, "mems_serve_jobs_total{state=\"done\"}"), 2.0);
    assert_eq!(
        metric(&body, "mems_serve_jobs_total{state=\"cancelled\"}"),
        1.0
    );
    assert_eq!(
        metric(&body, "mems_serve_cache_events_total{event=\"hit\"}"),
        1.0
    );
    assert_eq!(
        metric(&body, "mems_serve_cache_events_total{event=\"miss\"}"),
        2.0
    );
    // 2 × 5 sweep points completed, plus whatever the cancelled batch
    // managed before the token tripped.
    assert!(metric(&body, "mems_serve_points_total{outcome=\"completed\"}") >= 10.0);
    assert!(metric(&body, "mems_serve_points_total{outcome=\"skipped\"}") >= 1.0);
    assert!(metric(&body, "mems_serve_chunk_seconds_count") >= 3.0);
    assert!(metric(&body, "mems_serve_chunk_seconds_bucket{le=\"+Inf\"}") >= 3.0);
    assert!(metric(&body, "mems_serve_requests_total") >= 8.0);
    assert_eq!(metric(&body, "mems_serve_jobs_active"), 0.0);

    // Solver rollups saw real factorizations (the divider sweep is
    // dense-path, the resonator transient scalar-path — either way
    // the totals move).
    let factor_total: f64 = ["dense", "scalar", "other"]
        .iter()
        .map(|p| {
            metric(
                &body,
                &format!("mems_serve_solver_factors_total{{path=\"{p}\"}}"),
            )
        })
        .sum();
    assert!(factor_total >= 1.0, "{body}");

    // Protocol violations land in bad_requests_total.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"BOGUS\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let (status, _) = read_head(&mut reader);
    assert_eq!(status, 400);
    let (_, body) = http(addr, "GET", "/v1/metrics", "");
    assert!(metric(&body, "mems_serve_bad_requests_total") >= 1.0);

    server.shutdown();
    server.join();
}

#[test]
fn draining_still_completes_open_streams() {
    let server = Server::start(ServeConfig {
        workers: 1,
        chunk_size: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/v1/jobs", MC_TRAN_DECK);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);

    // Open the blocking stream, then start the drain mid-job.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(format!("GET /v1/jobs/{id}/results HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, _) = read_head(&mut reader);
    assert_eq!(status, 200);
    let _prelude = read_chunk(&mut reader).unwrap().expect("prelude");
    let _first = read_chunk(&mut reader).unwrap().expect("first record");

    // The accept loop dies with the drain, so the shutdown + cancel
    // requests ride one keep-alive control connection opened first.
    let mut control = TcpStream::connect(addr).unwrap();
    control
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut control_reader = BufReader::new(control.try_clone().unwrap());
    for (request, expected) in [
        (
            "POST /v1/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n".to_string(),
            202,
        ),
        // Cancel so the drain needn't run all 60 transients.
        (
            format!("DELETE /v1/jobs/{id} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"),
            202,
        ),
    ] {
        control.write_all(request.as_bytes()).unwrap();
        let (status, headers) = read_head(&mut control_reader);
        assert_eq!(status, expected);
        let length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap();
        let mut body = vec![0u8; length];
        control_reader.read_exact(&mut body).unwrap();
    }

    // The already-open stream survives the drain and completes.
    let mut rest = Vec::new();
    while let Some(chunk) = read_chunk(&mut reader).unwrap() {
        rest.extend_from_slice(&chunk);
    }
    let tail = String::from_utf8(rest).unwrap();
    assert!(tail.ends_with("\"state\":\"cancelled\"}"), "{tail}");

    server.join();
}

/// A 60-section resistive ladder: ~61 unknowns, comfortably past the
/// sparse-backend threshold, so the job's solver stats report a real
/// fill-ordering cost. The source voltage is a parameter so two
/// submissions can share the MNA *pattern* while hashing to different
/// artifact-cache fingerprints. A small quadratic sink at the end
/// (`Bq`) makes the circuit nonlinear, so its operating point takes
/// more than one Newton iteration and the later ones replay the
/// stamp tape.
fn ladder_deck(volts: u32) -> String {
    use std::fmt::Write as _;
    let mut src = format!("serve ladder\nVs n0 0 {volts}\n");
    for i in 1..=60 {
        let _ = writeln!(src, "R{i} n{} n{i} 100", i - 1);
    }
    src.push_str("Rl n60 0 1k\nBq n60 0 n60 0 n60 0 1e-6\n.op\n.print op v(n60)\n");
    src
}

/// Runs a deck to completion and returns the job id.
fn run_to_done(addr: SocketAddr, deck: &str) -> u64 {
    let (status, body) = http(addr, "POST", "/v1/jobs", deck);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);
    let (_, stream_body) = http(addr, "GET", &format!("/v1/jobs/{id}/results"), "");
    assert!(
        stream_body.ends_with("\"state\":\"done\"}"),
        "{stream_body}"
    );
    id
}

/// Terminal jobs evict at the `--job-cap` bound: a long-lived daemon's
/// registry stays bounded, evictions are counted, and evicted ids
/// answer 404 while resident ones keep answering.
#[test]
fn terminal_job_registry_stays_bounded() {
    let server = Server::start(ServeConfig {
        workers: 1,
        chunk_size: 4,
        job_cap: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let ids: Vec<u64> = (0..5).map(|_| run_to_done(addr, SWEEP_DECK)).collect();

    // The last job's eviction pass races its stream tail by a hair;
    // poll the counter to its settled value.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = http(addr, "GET", "/v1/metrics", "");
        if metric(&body, "mems_serve_jobs_evicted_total") == 3.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "evictions never reached 3: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Registry holds exactly the two newest-finished jobs.
    let (status, body) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    let total = parsed(&body)
        .get("jobs")
        .and_then(|j| j.get("total"))
        .and_then(Json::as_u64)
        .expect("jobs.total");
    assert_eq!(total, 2, "{body}");
    for &old in &ids[..3] {
        let (status, _) = http(addr, "GET", &format!("/v1/jobs/{old}"), "");
        assert_eq!(status, 404, "job {old} should have been evicted");
    }
    for &new in &ids[3..] {
        let (status, _) = http(addr, "GET", &format!("/v1/jobs/{new}"), "");
        assert_eq!(status, 200, "job {new} should still answer");
    }

    server.shutdown();
    server.join();
}

/// `--client-quota` bounds one client's active jobs: the over-quota
/// submission answers 429 with `Retry-After` and moves the
/// `rejected_total{reason="quota"}` counter, while other clients (and
/// the same client once a job retires) keep submitting freely.
#[test]
fn client_quota_answers_429_with_retry_after() {
    // No workers: admitted jobs stay active forever, pinning the
    // quota accounting in place.
    let server = Server::start(ServeConfig {
        workers: 0,
        client_quota: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/v1/jobs?client=greedy", SWEEP_DECK);
    assert_eq!(status, 201, "{body}");

    // Second submission from the same client: 429 + Retry-After.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /v1/jobs?client=greedy HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{SWEEP_DECK}",
                SWEEP_DECK.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader);
    assert_eq!(status, 429);
    assert!(
        headers.iter().any(|(k, _)| k == "retry-after"),
        "over-quota refusal must carry Retry-After: {headers:?}"
    );

    // Another client is unaffected by greedy's quota.
    let (status, body) = http(addr, "POST", "/v1/jobs?client=modest", SWEEP_DECK);
    assert_eq!(status, 201, "{body}");

    let (_, body) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(
        metric(&body, "mems_serve_rejected_total{reason=\"quota\"}"),
        1.0
    );
}

/// Request bodies may arrive `Transfer-Encoding: chunked` (satellite
/// of the durability PR): a chunk-framed deck submission decodes,
/// admits, and runs to completion like a Content-Length one.
#[test]
fn chunked_submissions_decode_and_run() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Frame the deck as two chunks to exercise reassembly.
    let (head, tail) = SWEEP_DECK.split_at(SWEEP_DECK.len() / 2);
    let request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Transfer-Encoding: chunked\r\n\r\n\
         {:x}\r\n{head}\r\n{:x}\r\n{tail}\r\n0\r\n\r\n",
        head.len(),
        tail.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader);
    assert_eq!(status, 201, "{headers:?}");
    let length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().unwrap())
        .expect("content-length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    let id = job_id(&String::from_utf8(body).unwrap());

    let deadline = Instant::now() + Duration::from_secs(30);
    while job_state(addr, id) != "done" {
        assert!(Instant::now() < deadline, "chunk-submitted job never ran");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Cancelling a job that already reached a terminal state is an
/// idempotent no-op: 200 with the status, repeatably, and the job's
/// `done` state never flips to `cancelled`.
#[test]
fn deleting_a_terminal_job_is_an_idempotent_no_op() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let id = run_to_done(addr, SWEEP_DECK);

    for _ in 0..2 {
        let (status, body) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            parsed(&body).get("state").and_then(Json::as_str),
            Some("done"),
            "{body}"
        );
    }
    let (_, body) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(
        metric(&body, "mems_serve_jobs_total{state=\"cancelled\"}"),
        0.0
    );
}

/// The machine-wide ordering cache, proven end to end: a second deck
/// with the same MNA pattern (different values, so the artifact cache
/// misses and the system is rebuilt from scratch) reports
/// `order_us == 0` / `order_source == "cached"` in its job metadata.
/// The sparse job's stamp counters reach its metadata and
/// `/v1/metrics` too.
#[test]
fn resubmitted_pattern_skips_ordering() {
    let server = Server::start(ServeConfig {
        workers: 1,
        chunk_size: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let solver = |id: u64| {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = parsed(&body);
        let solver = doc.get("solver").expect("solver metadata");
        let us = solver
            .get("order_us")
            .and_then(Json::as_u64)
            .expect("order_us");
        let source = solver
            .get("order_source")
            .and_then(Json::as_str)
            .expect("order_source")
            .to_string();
        (us, source)
    };

    let cold = run_to_done(addr, &ladder_deck(5));
    let (cold_us, cold_source) = solver(cold);
    assert_eq!(cold_source, "amd", "first submission computes the order");
    assert!(cold_us >= 1, "a computed order costs time, got {cold_us}");

    let warm = run_to_done(addr, &ladder_deck(6));
    let (warm_us, warm_source) = solver(warm);
    assert_eq!(warm_source, "cached", "same pattern must hit the cache");
    assert_eq!(warm_us, 0, "a cache hit costs no ordering time");

    // The sparse job reports its stamp replay: the first assembly
    // records the tape, the Newton iterations after it replay it.
    let (_, body) = http(addr, "GET", &format!("/v1/jobs/{cold}"), "");
    let doc = parsed(&body);
    let count = |key: &str| {
        doc.get("solver")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("solver.{key} in {body}"))
    };
    let (stamps, misses) = (count("stamps"), count("stamp_misses"));
    assert!(0 < misses && misses < stamps, "{body}");
    let (_, body) = http(addr, "GET", "/v1/metrics", "");
    let stamps_total = metric(&body, "mems_serve_solver_stamps_total");
    let misses_total = metric(&body, "mems_serve_solver_stamp_misses_total");
    assert!(stamps_total >= stamps as f64, "{body}");
    assert!(0.0 < misses_total && misses_total < stamps_total, "{body}");

    server.shutdown();
    server.join();
}
