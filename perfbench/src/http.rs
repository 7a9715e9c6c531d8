//! A keep-alive HTTP/1.1 client for long benchmark runs.
//!
//! It reconnects when the server answers `Connection: close` (the server
//! closes every connection after `max_conn_requests` requests) and counts
//! those reconnects. Any other I/O error drops the connection and is
//! returned to the caller, which counts it as a failed request; the next
//! request opens a fresh connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// How an exchange failed: with no response byte read (the request may
/// be retried on a fresh connection), or otherwise.
enum Failure {
    NoResponse(String),
    Other(String),
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Sends one request and reads the whole response. A reused
    /// keep-alive connection that fails before any response byte (the
    /// server closed it while it sat idle) is replaced and the request
    /// sent once more.
    ///
    /// # Errors
    ///
    /// Connect, write or read failures, and malformed responses.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        let reused = self.conn.is_some();
        let mut result = self.exchange(method, path, body);
        if let Err(Failure::NoResponse(_)) = &result {
            if reused {
                self.conn = None;
                result = self.exchange(method, path, body);
            }
        }
        result.map_err(|failure| {
            self.conn = None;
            match failure {
                Failure::NoResponse(e) | Failure::Other(e) => e,
            }
        })
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, Failure> {
        use Failure::{NoResponse, Other};
        if self.conn.is_none() {
            let stream =
                TcpStream::connect(self.addr).map_err(|e| Other(format!("connect: {e}")))?;
            stream
                .set_nodelay(true)
                .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
                .map_err(|e| Other(format!("socket options: {e}")))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let reader = self.conn.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let stream = reader.get_mut();
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body))
            .map_err(|e| NoResponse(format!("write: {e}")))?;

        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(NoResponse("server closed the connection".to_owned())),
            Ok(_) => {}
            Err(e) => return Err(NoResponse(format!("read: {e}"))),
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Other(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut close = false;
        loop {
            let mut header = String::new();
            reader
                .read_line(&mut header)
                .map_err(|e| Other(format!("read: {e}")))?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| Other("no Content-Length".to_owned()))?;
        let mut body = vec![0u8; length];
        reader
            .read_exact(&mut body)
            .map_err(|e| Other(format!("read body: {e}")))?;
        if close {
            self.conn = None;
        }
        Ok(Response { status, body })
    }
}

/// Polls `GET /v1/health` until it answers 200.
///
/// # Errors
///
/// When the server does not become healthy within `limit`.
pub fn wait_healthy(addr: SocketAddr, limit: Duration) -> Result<(), String> {
    let start = std::time::Instant::now();
    loop {
        let mut client = Client::new(addr);
        match client.request("GET", "/v1/health", b"") {
            Ok(r) if r.status == 200 => return Ok(()),
            Ok(r) if start.elapsed() > limit => {
                return Err(format!("health answered {}", r.status))
            }
            Err(e) if start.elapsed() > limit => return Err(format!("health: {e}")),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}
