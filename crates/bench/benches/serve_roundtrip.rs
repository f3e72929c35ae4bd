//! `mems serve` round-trip latency: deck submission → first streamed
//! point result, over real HTTP against an in-process daemon.
//!
//! Two cases bound the artifact cache's win:
//! - **cold**: every iteration submits a never-seen deck (a comment
//!   line varies), so the server parses, elaborates, and runs the
//!   symbolic analysis from scratch;
//! - **warm**: every iteration resubmits the same deck, so the
//!   fingerprint cache supplies the parsed deck, the expanded point
//!   list, and pooled contexts whose solver workspaces are warm.
//!
//! The tracked number keeps the cache honest: BENCH_*.json records
//! the cold/warm ratio instead of quoting it in prose.

use criterion::{criterion_group, criterion_main, Criterion};
use mems_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

const SWEEP_DECK: &str = "serve roundtrip divider\n\
    .param rload=1k\n\
    Vs in 0 6\n\
    R1 in out 1k\n\
    R2 out 0 {rload}\n\
    .op\n\
    .print op v(out)\n\
    .step param rload 500 2000 100\n";

/// One-shot HTTP request; returns the response body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status");
    assert!(line.contains("200") || line.contains("201"), "{line}");
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().expect("length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    String::from_utf8(body).expect("utf8")
}

/// Submits a deck and blocks on the chunked results stream until the
/// first point record arrives; returns once it has. One streaming
/// GET replaces the old poll loop — the server pushes each record the
/// moment it exists, so this measures true submit→first-result
/// latency, not a poll interval.
fn submit_to_first_result(addr: SocketAddr, deck: &str) {
    let created = http(addr, "POST", "/v1/jobs", deck);
    let id: u64 = created
        .split_once("\"id\":")
        .and_then(|(_, rest)| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("job id");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "GET /v1/jobs/{id}/results HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .expect("write");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status");
    assert!(line.contains("200"), "{line}");
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        if line.trim_end_matches(['\r', '\n']).is_empty() {
            break;
        }
    }
    // Prelude chunk, then record chunks; the first record carries an
    // `"index"` member.
    while let Some(chunk) = mems_serve::http::read_chunk(&mut reader).expect("chunk") {
        if String::from_utf8_lossy(&chunk).contains("\"index\"") {
            return;
        }
    }
    panic!("stream ended without a record");
}

fn bench_roundtrip(c: &mut Criterion) {
    mems_bench::print_banner(
        "serve round-trip",
        "submit → first streamed result, cold parse vs fingerprint-warm cache",
    );
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let mut group = c.benchmark_group("serve_roundtrip");
    group.sample_size(10);
    let mut serial = 0u64;
    group.bench_function("cold_submit_to_first_result", |b| {
        b.iter(|| {
            // A changed comment line is a new fingerprint: the cache
            // cannot help, the server re-parses and re-elaborates.
            serial += 1;
            let deck = format!("{SWEEP_DECK}* cold variant {serial}\n");
            submit_to_first_result(addr, &deck);
        })
    });
    // Prime the cache once, then every iteration is a pure hit.
    submit_to_first_result(addr, SWEEP_DECK);
    group.bench_function("warm_submit_to_first_result", |b| {
        b.iter(|| submit_to_first_result(addr, SWEEP_DECK))
    });
    group.finish();

    server.shutdown();
    server.join();
}

criterion_group!(benches, bench_roundtrip);
criterion_main!(benches);
