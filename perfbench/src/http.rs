//! A minimal keep-alive HTTP/1.1 client for the `serve_mix` workload:
//! `Content-Length` requests, and responses either length-delimited or
//! chunked (the results stream), read with the service's own
//! `read_chunk` framing helper.

use mems_serve::http::read_chunk;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// A response with a length-delimited body.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text.
    pub body: String,
}

/// A fully read results stream.
#[derive(Debug)]
pub struct Streamed {
    /// Status code.
    pub status: u16,
    /// Point records, in stream order.
    pub records: Vec<String>,
    /// The closing chunk (`],"next":…,"state":…}`).
    pub tail: String,
    /// When the first record arrived.
    pub first_record: Option<Instant>,
}

/// One keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut msg = head.into_bytes();
        msg.extend_from_slice(body.as_bytes());
        self.writer.write_all(&msg)?;
        self.writer.flush()
    }

    /// Reads the status line and headers; returns the status, the
    /// content length (if any) and whether the body is chunked.
    fn read_head(&mut self) -> io::Result<(u16, Option<usize>, bool)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed before a response".into()));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line `{}`", line.trim_end())))?;
        let (mut length, mut chunked) = (None, false);
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end_matches(['\r', '\n']);
            if header.is_empty() {
                break;
            }
            let lower = header.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse().ok();
            } else if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
                chunked = true;
            }
        }
        Ok((status, length, chunked))
    }

    /// Sends a request and reads a length-delimited (or chunked, then
    /// joined) response.
    ///
    /// # Errors
    ///
    /// Socket or framing failures.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.send(method, path, body)?;
        let (status, length, chunked) = self.read_head()?;
        let bytes = if chunked {
            mems_serve::http::read_chunked_body(&mut self.reader)?
        } else {
            let mut buf = vec![0u8; length.unwrap_or(0)];
            self.reader.read_exact(&mut buf)?;
            buf
        };
        let body = String::from_utf8(bytes).map_err(|e| invalid(e.to_string()))?;
        Ok(Response { status, body })
    }

    /// `GET /v1/jobs/:id/results`, read to the stream's tail.
    ///
    /// # Errors
    ///
    /// Socket or framing failures.
    pub fn stream_results(&mut self, id: u64) -> io::Result<Streamed> {
        self.send("GET", &format!("/v1/jobs/{id}/results"), "")?;
        let (status, length, chunked) = self.read_head()?;
        let mut out = Streamed {
            status,
            records: Vec::new(),
            tail: String::new(),
            first_record: None,
        };
        if !chunked {
            let mut buf = vec![0u8; length.unwrap_or(0)];
            self.reader.read_exact(&mut buf)?;
            out.tail = String::from_utf8_lossy(&buf).into_owned();
            return Ok(out);
        }
        let mut prelude = true;
        while let Some(chunk) = read_chunk(&mut self.reader)? {
            let text = String::from_utf8(chunk).map_err(|e| invalid(e.to_string()))?;
            if prelude {
                prelude = false;
                continue;
            }
            if text.starts_with(']') {
                out.tail = text;
                continue;
            }
            if out.first_record.is_none() {
                out.first_record = Some(Instant::now());
            }
            out.records
                .push(text.strip_prefix(',').unwrap_or(&text).to_string());
        }
        Ok(out)
    }
}
