//! End-to-end tests against a live server: cache hits, fair-share
//! scheduling, cancellation, backpressure, drain, diagnostics.

use mems_serve::{Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn { stream, reader }
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> (u16, Vec<(String, String)>, String) {
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
        for (name, value) in headers {
            req.push_str(&format!("{name}: {value}\r\n"));
        }
        req.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        self.stream.write_all(req.as_bytes()).expect("write");
        self.stream.write_all(body.as_bytes()).expect("write body");

        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            let line = line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                break;
            }
            let (k, v) = line.split_once(':').expect("header colon");
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            mems_serve::http::read_chunked_body(&mut self.reader).expect("chunked body")
        } else {
            let length: usize = headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .map(|(_, v)| v.parse().expect("numeric length"))
                .unwrap_or(0);
            let mut body = vec![0u8; length];
            self.reader.read_exact(&mut body).expect("body");
            body
        };
        (status, headers, String::from_utf8(body).expect("utf8 body"))
    }
}

/// One-shot request on a fresh connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = Conn::open(addr).request(method, path, &[], body);
    (status, body)
}

fn parsed(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON `{body}`: {e}"))
}

fn job_id(body: &str) -> u64 {
    parsed(body).get("id").and_then(Json::as_u64).expect("id")
}

/// Polls a job until its state is terminal; returns the final status
/// document.
fn wait_terminal(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = parsed(&body);
        let state = doc.get("state").and_then(Json::as_str).expect("state");
        if state == "done" || state == "cancelled" {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

const SWEEP_DECK: &str = "divider sweep\n\
    .param rload=1k\n\
    Vs in 0 6\n\
    R1 in out 1k\n\
    R2 out 0 {rload}\n\
    .op\n\
    .print op v(out)\n\
    .step param rload 1k 5k 1k\n";

/// A `.MC` transient batch slow enough to cancel mid-flight.
const MC_TRAN_DECK: &str = "mc resonator\n\
    .param k=200 m=1e-4 alpha=40e-3\n\
    Is 0 vel PWL(0 0 0.1m 1u)\n\
    Mm1 vel 0 {m}\n\
    Kk1 vel 0 {k}\n\
    Dd1 vel 0 {alpha}\n\
    .tran 0.02m 100m\n\
    .print tran v(vel)\n\
    .mc 200 seed=7 k tol=0.05 dist=gauss\n";

#[test]
fn second_submission_hits_the_fingerprint_cache() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/v1/jobs", SWEEP_DECK);
    assert_eq!(status, 201, "{body}");
    let first = parsed(&body);
    assert_eq!(
        first.get("cache").unwrap().get("hit"),
        Some(&Json::Bool(false))
    );
    let id1 = job_id(&body);
    let done1 = wait_terminal(addr, id1);
    assert_eq!(done1.get("state").and_then(Json::as_str), Some("done"));

    let (status, body) = http(addr, "POST", "/v1/jobs", SWEEP_DECK);
    assert_eq!(status, 201, "{body}");
    let second = parsed(&body);
    assert_eq!(
        second.get("cache").unwrap().get("hit"),
        Some(&Json::Bool(true))
    );
    assert_eq!(
        second.get("timing").unwrap().get("parse_us"),
        Some(&Json::Num(0.0)),
        "a cache hit parses nothing"
    );
    let id2 = job_id(&body);
    let done2 = wait_terminal(addr, id2);

    // The warm job checked out a pooled context with its workspace
    // already built.
    let cache = done2.get("cache").unwrap();
    assert_eq!(cache.get("warm_checkout"), Some(&Json::Bool(true)));

    // Served point records are byte-identical to `mems sweep --json`.
    let deck = mems_netlist::Deck::parse(SWEEP_DECK).unwrap();
    let batch =
        mems_netlist::run_batch(&deck, &mems_netlist::BatchOptions::with_threads(2)).unwrap();
    let expected: Vec<String> = batch
        .points
        .iter()
        .map(mems_netlist::report::point_json)
        .collect();
    for id in [id1, id2] {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}/results?from=0"), "");
        assert_eq!(status, 200);
        let array_at = body.find("\"points\":").expect("points member") + "\"points\":".len();
        let array_end = body.rfind("],\"next\":").expect("stream tail") + 1;
        let served = &body[array_at..array_end];
        assert_eq!(served, format!("[{}]", expected.join(",")));
    }

    let (_, health) = http(addr, "GET", "/v1/health", "");
    let cache = parsed(&health).get("cache").cloned().unwrap();
    assert_eq!(cache.get("hits"), Some(&Json::Num(1.0)));
    assert_eq!(cache.get("misses"), Some(&Json::Num(1.0)));

    server.shutdown();
    server.join();
}

#[test]
fn fair_share_lets_a_small_job_pass_a_big_one() {
    // One worker, two clients: the big client's 40-point transient
    // batch is chunked; the small client's 2-point sweep interleaves
    // and finishes first even though it was submitted second.
    let server = Server::start(ServeConfig {
        workers: 1,
        chunk_size: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let big_deck = MC_TRAN_DECK.replace(".mc 200", ".mc 40");
    let small_deck = SWEEP_DECK.replace("1k 5k 1k", "1k 2k 1k");
    let (status, body) = http(addr, "POST", "/v1/jobs?client=big", &big_deck);
    assert_eq!(status, 201, "{body}");
    let big = job_id(&body);
    let (status, body) = http(addr, "POST", "/v1/jobs?client=small", &small_deck);
    assert_eq!(status, 201, "{body}");
    let small = job_id(&body);

    let small_done = wait_terminal(addr, small);
    let big_done = wait_terminal(addr, big);
    let seq = |doc: &Json| doc.get("finish_seq").and_then(Json::as_u64).expect("seq");
    assert!(
        seq(&small_done) < seq(&big_done),
        "small finished {:?}, big {:?}",
        seq(&small_done),
        seq(&big_done)
    );

    server.shutdown();
    server.join();
}

#[test]
fn cancellation_stops_a_running_mc_within_a_chunk() {
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

    // Wait for the first results, then cancel.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        if parsed(&body)
            .get("completed")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
        {
            break;
        }
        assert!(Instant::now() < deadline, "no progress: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 202, "{body}");

    let done = wait_terminal(addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("cancelled"));
    let completed = done.get("completed").and_then(Json::as_u64).unwrap();
    let skipped = done.get("skipped").and_then(Json::as_u64).unwrap();
    assert!(completed < 200, "cancellation did not stop the batch");
    assert!(skipped > 0);
    assert_eq!(completed + skipped, 200, "{done:?}");

    // The streamed point list is complete: unvisited points carry the
    // cancelled marker.
    let (_, body) = http(addr, "GET", &format!("/v1/jobs/{id}/results?from=0"), "");
    let doc = parsed(&body);
    assert_eq!(doc.get("next").and_then(Json::as_u64), Some(200));
    assert!(body.contains(mems_netlist::CANCELLED_POINT));

    server.shutdown();
    server.join();
}

#[test]
fn backpressure_answers_429_with_retry_after() {
    // No workers: admitted jobs stay active, so the second submission
    // must bounce off the queue cap.
    let server = Server::start(ServeConfig {
        workers: 0,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, _) = http(addr, "POST", "/v1/jobs", SWEEP_DECK);
    assert_eq!(status, 201);
    let (status, headers, body) = Conn::open(addr).request("POST", "/v1/jobs", &[], SWEEP_DECK);
    assert_eq!(status, 429, "{body}");
    assert!(
        headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
        "{headers:?}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_drains_queued_work() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Keep-alive connection: it outlives the accept loop, so the
    // drain can be observed end-to-end over HTTP.
    let mut conn = Conn::open(addr);
    let (status, _, body) = conn.request("POST", "/v1/jobs", &[], SWEEP_DECK);
    assert_eq!(status, 201, "{body}");
    let id = job_id(&body);
    let (status, _, _) = conn.request("POST", "/v1/shutdown", &[], "");
    assert_eq!(status, 202);

    // Submissions now bounce, but the queued job still completes.
    let (status, _, body) = conn.request("POST", "/v1/jobs", &[], SWEEP_DECK);
    assert_eq!(status, 503, "{body}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = conn.request("GET", &format!("/v1/jobs/{id}"), &[], "");
        assert_eq!(status, 200);
        let doc = parsed(&body);
        if doc.get("state").and_then(Json::as_str) == Some("done") {
            assert_eq!(doc.get("completed").and_then(Json::as_u64), Some(5));
            break;
        }
        assert!(Instant::now() < deadline, "drain stuck: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.join();
}

#[test]
fn check_endpoint_emits_machine_readable_diagnostics() {
    let server = Server::start(ServeConfig {
        check_only: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/v1/check", SWEEP_DECK);
    assert_eq!(status, 200);
    let doc = parsed(&body);
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("diagnostics"), Some(&Json::Arr(Vec::new())));

    let (status, body) = http(addr, "POST", "/v1/check", "t\nR1 a b\n.op\n");
    assert_eq!(status, 200);
    let doc = parsed(&body);
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    let diags = match doc.get("diagnostics") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("no diagnostics array: {other:?}"),
    };
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].get("severity").and_then(Json::as_str),
        Some("error")
    );
    assert_eq!(
        diags[0]
            .get("span")
            .unwrap()
            .get("line")
            .and_then(Json::as_u64),
        Some(2)
    );

    // Check-only servers refuse jobs outright.
    let (status, body) = http(addr, "POST", "/v1/jobs", SWEEP_DECK);
    assert_eq!(status, 403, "{body}");

    server.shutdown();
    server.join();
}

#[test]
fn protocol_errors_are_answered_not_dropped() {
    let server = Server::start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404, "{body}");
    let (status, _) = http(addr, "GET", "/v1/jobs/999", "");
    assert_eq!(status, 404);
    let (status, body) = http(addr, "POST", "/v1/jobs", "");
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = Conn::open(addr).request(
        "POST",
        "/v1/jobs",
        &[("Content-Type", "application/json")],
        "{\"client\":\"x\"}",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("deck"));

    // A submission with diagnostics answers 400 with the shared
    // diagnostics format.
    let (status, body) = http(addr, "POST", "/v1/jobs", "t\nR1 a b\n.op\n");
    assert_eq!(status, 400);
    assert!(body.contains("\"diagnostics\":"), "{body}");

    // JSON submissions carry deck + client.
    let deck_json = format!(
        "{{\"deck\":\"{}\",\"client\":\"json-client\"}}",
        mems_netlist::report::json_escape(SWEEP_DECK)
    );
    let (status, _, body) = Conn::open(addr).request(
        "POST",
        "/v1/jobs",
        &[("Content-Type", "application/json")],
        &deck_json,
    );
    assert_eq!(status, 201, "{body}");
    assert_eq!(
        parsed(&body).get("client").and_then(Json::as_str),
        Some("json-client")
    );

    server.shutdown();
    server.join();
}
