//! HTTP/1.1 message framing, in both directions.
//!
//! This module is the one place that reads or renders an HTTP head:
//! `pigeon serve` parses requests and renders responses through it, and
//! the distributed-training worker ([`crate::distrib`]) talks to the
//! coordinator through its one-shot [`request`] client. Everything is
//! `std`-only and `Content-Length`-framed; chunked transfer coding is not
//! spoken.
//!
//! Every read is bounded by what the peer actually sends, never by what
//! it claims:
//!
//! * a head — start line plus headers — may hold at most 16 KiB, and
//!   each line is read through `take`, so an endless line costs at most
//!   that bound plus one byte;
//! * a body buffer reserves at most 64 KiB up front and grows only with
//!   bytes received, so a declared `Content-Length` of a terabyte
//!   followed by a close is an error, not an allocation.
//!
//! A server that caps bodies (`--max-request-bytes`) checks the
//! declared length against its limit before reading the body.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted head — start line, headers and the blank line that
/// ends them — in bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Most bytes a body buffer reserves before any of them has arrived.
const BODY_CHUNK: usize = 64 * 1024;

/// How long [`request`] waits on a silent peer.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(300);

/// Why a message could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The head ran past its 16 KiB bound.
    HeadTooLarge,
    /// The head arrived but does not parse; the message says what.
    Malformed(String),
    /// The read timed out after part of the message had arrived.
    Timeout,
    /// The stream failed or ended mid-message.
    Io(io::Error),
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Timeout,
            _ => FrameError::Io(e),
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::HeadTooLarge => {
                write!(f, "message head exceeds {MAX_HEADER_BYTES} bytes")
            }
            FrameError::Malformed(message) => f.write_str(message),
            FrameError::Timeout => f.write_str("read timed out mid-message"),
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

fn unexpected_eof(message: String) -> FrameError {
    FrameError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, message))
}

/// A parsed message head.
#[derive(Debug)]
pub struct Head {
    /// The request line (`METHOD TARGET VERSION`) or status line
    /// (`VERSION STATUS REASON`), without its line ending.
    pub start_line: String,
    /// Header fields in arrival order, names as sent, values trimmed.
    pub headers: Vec<(String, String)>,
}

impl Head {
    /// The value of the last `name` header (case-insensitive).
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .rev()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The declared body length; `Ok(None)` when the header is absent.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] when the value is not a length.
    pub(crate) fn content_length(&self) -> Result<Option<usize>, FrameError> {
        self.header("content-length")
            .map(|v| {
                v.parse()
                    .map_err(|_| FrameError::Malformed("bad Content-Length".to_owned()))
            })
            .transpose()
    }
}

/// Reads one line into `line`, charging it to the head's remaining
/// `budget`. At most `budget + 1` bytes are consumed, so a line that
/// does not end within the budget fails without buffering the rest.
fn read_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    budget: &mut usize,
) -> Result<usize, FrameError> {
    let n = reader
        .by_ref()
        .take(*budget as u64 + 1)
        .read_until(b'\n', line)?;
    if n > *budget {
        return Err(FrameError::HeadTooLarge);
    }
    *budget -= n;
    Ok(n)
}

fn line_text(line: &[u8]) -> Result<&str, FrameError> {
    std::str::from_utf8(line)
        .map(str::trim_end)
        .map_err(|_| FrameError::Malformed("message head is not UTF-8".to_owned()))
}

/// Reads one message head: the start line and the header lines through
/// the blank line that ends them.
///
/// `Ok(None)` means no message started: the stream ended, or the read
/// timed out, before its first byte. A keep-alive server closes such a
/// connection silently.
///
/// # Errors
///
/// [`FrameError::HeadTooLarge`] past [`MAX_HEADER_BYTES`],
/// [`FrameError::Timeout`] when the peer stalls mid-head,
/// [`FrameError::Malformed`] for a head that is not UTF-8, and
/// [`FrameError::Io`] when the stream fails or ends mid-head.
pub(crate) fn read_head(reader: &mut impl BufRead) -> Result<Option<Head>, FrameError> {
    let mut budget = MAX_HEADER_BYTES;
    let mut line = Vec::new();
    match read_line(reader, &mut line, &mut budget) {
        Ok(0) => return Ok(None),
        // `read_until` keeps what it read before failing, so an empty
        // line really means not a single byte arrived.
        Err(FrameError::Timeout) if line.is_empty() => return Ok(None),
        result => result?,
    };
    let start_line = line_text(&line)?.to_owned();
    let mut headers = Vec::new();
    loop {
        line.clear();
        if read_line(reader, &mut line, &mut budget)? == 0 {
            return Err(unexpected_eof(
                "stream ended inside the message head".to_owned(),
            ));
        }
        let text = line_text(&line)?;
        if text.is_empty() {
            break;
        }
        if let Some((name, value)) = text.split_once(':') {
            headers.push((name.trim().to_owned(), value.trim().to_owned()));
        }
    }
    Ok(Some(Head {
        start_line,
        headers,
    }))
}

/// Reads a body of `len` bytes, or up to the end of the stream when
/// `len` is `None`. The buffer reserves at most [`BODY_CHUNK`] up front
/// and otherwise grows only with bytes received.
///
/// # Errors
///
/// [`FrameError::Timeout`] when the peer stalls, [`FrameError::Io`] when
/// the stream fails or ends before `len` bytes.
pub(crate) fn read_body(reader: &mut impl Read, len: Option<usize>) -> Result<Vec<u8>, FrameError> {
    let mut body = Vec::with_capacity(len.unwrap_or(0).min(BODY_CHUNK));
    reader
        .take(len.map_or(u64::MAX, |n| n as u64))
        .read_to_end(&mut body)?;
    match len {
        Some(n) if body.len() < n => Err(unexpected_eof(format!(
            "stream ended after {} of {n} body bytes",
            body.len()
        ))),
        _ => Ok(body),
    }
}

/// Renders a message head through its blank line: the start line, then
/// `Content-Type` and `Content-Length`, then `headers` in order. The
/// body goes out as a separate write, so binary payloads never pass
/// through a `String`.
pub fn render_head(
    start_line: &str,
    content_type: &str,
    body_len: usize,
    headers: &[(&str, &str)],
) -> String {
    let mut head =
        format!("{start_line}\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head
}

/// One response read off a client connection.
#[derive(Debug)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// The full head, for header lookups.
    pub head: Head,
    /// The body bytes (`Content-Length` framed, else read to close).
    pub body: Vec<u8>,
}

/// Reads one response — head and body — off a client connection. Keeps
/// the reader usable for the next response on a keep-alive socket.
///
/// # Errors
///
/// [`FrameError::HeadTooLarge`] past the 16 KiB head bound;
/// [`FrameError::Malformed`] for a non-UTF-8 head, a status line without
/// a numeric status or a bad `Content-Length`; [`FrameError::Timeout`]
/// when the peer stalls; [`FrameError::Io`] when the stream fails or
/// ends before the response does.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, FrameError> {
    let head = read_head(reader)?
        .ok_or_else(|| unexpected_eof("connection closed before a response".to_owned()))?;
    let status = head
        .start_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            FrameError::Malformed(format!("malformed status line {:?}", head.start_line))
        })?;
    let body = read_body(reader, head.content_length()?)?;
    Ok(Response { status, head, body })
}

/// Normalises a base URL (`http://host:port`, with or without the scheme
/// or a trailing slash) to the bare `host:port` dial string.
fn dial_addr(url: &str) -> &str {
    url.trim_start_matches("http://").trim_end_matches('/')
}

/// One `Connection: close` HTTP/1.1 exchange with the server at `url`.
///
/// # Errors
///
/// Returns a message naming the address when the connection, the
/// request write or the response read fails, including every
/// [`FrameError`] of [`read_response`].
pub fn request(
    url: &str,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> Result<Response, String> {
    let addr = dial_addr(url);
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT));
    // The request goes out as two writes (head, body); TCP_NODELAY
    // keeps Nagle from holding the body for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let head = render_head(
        &format!("{method} {path} HTTP/1.1"),
        content_type,
        body.len(),
        &[("Host", addr), ("Connection", "close")],
    );
    (&stream)
        .write_all(head.as_bytes())
        .and_then(|()| (&stream).write_all(body))
        .map_err(|e| format!("write to {addr} failed: {e}"))?;
    read_response(&mut BufReader::new(&stream)).map_err(|e| format!("read from {addr} failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An endless newline-free source that counts what it hands out.
    struct Endless {
        consumed: usize,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.len().min(buf.len());
            buf[..n].fill(b'a');
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Endless {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(&[b'a'; 4096])
        }

        fn consume(&mut self, amt: usize) {
            self.consumed += amt;
        }
    }

    #[test]
    fn dial_addr_strips_scheme_and_slash() {
        assert_eq!(dial_addr("http://127.0.0.1:8080/"), "127.0.0.1:8080");
        assert_eq!(dial_addr("127.0.0.1:8080"), "127.0.0.1:8080");
    }

    #[test]
    fn an_endless_line_costs_at_most_the_head_bound() {
        let mut source = Endless { consumed: 0 };
        let err = read_head(&mut source).unwrap_err();
        assert!(matches!(err, FrameError::HeadTooLarge), "{err:?}");
        assert!(
            source.consumed <= MAX_HEADER_BYTES + 1,
            "consumed {} bytes",
            source.consumed
        );
    }

    #[test]
    fn heads_render_and_parse_round_trip() {
        let head = render_head(
            "POST /v1/x HTTP/1.1",
            "text/plain",
            5,
            &[("Connection", "close")],
        );
        let mut wire = head.into_bytes();
        wire.extend_from_slice(b"hello");
        let mut reader = &wire[..];
        let parsed = read_head(&mut reader).unwrap().unwrap();
        assert_eq!(parsed.start_line, "POST /v1/x HTTP/1.1");
        assert_eq!(parsed.header("content-type"), Some("text/plain"));
        assert_eq!(parsed.header("CONNECTION"), Some("close"));
        assert_eq!(parsed.content_length().unwrap(), Some(5));
        assert_eq!(read_body(&mut reader, Some(5)).unwrap(), b"hello");
        // Nothing follows: the next read sees a clean end, not an error.
        assert!(read_head(&mut reader).unwrap().is_none());
    }

    #[test]
    fn truncated_heads_and_bodies_are_errors() {
        let mut reader = &b"GET / HTTP/1.1\r\nHost: x\r\n"[..];
        assert!(matches!(read_head(&mut reader), Err(FrameError::Io(_))));
        let mut reader = &b"abc"[..];
        assert!(matches!(
            read_body(&mut reader, Some(10)),
            Err(FrameError::Io(_))
        ));
        let mut reader = &b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"[..];
        let head = read_head(&mut reader).unwrap().unwrap();
        assert!(matches!(
            head.content_length(),
            Err(FrameError::Malformed(_))
        ));
    }

    /// Serves one connection: reads the request head, then hands the
    /// stream to `respond`.
    fn one_shot_server(respond: fn(TcpStream)) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            read_head(&mut BufReader::new(&stream)).unwrap().unwrap();
            respond(stream);
        });
        (addr, handle)
    }

    #[test]
    fn the_client_never_trusts_a_declared_length_or_an_endless_head() {
        // A terabyte announced, nothing sent, connection closed.
        let (addr, server) = one_shot_server(|mut stream| {
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n")
                .unwrap();
        });
        let err = request(&addr, "GET", "/v1/leases", "application/json", b"").unwrap_err();
        assert!(err.contains("0 of 1099511627776 body bytes"), "{err}");
        server.join().unwrap();

        // A header line that never ends.
        let (addr, server) = one_shot_server(|mut stream| {
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nX-Endless: ");
            let chunk = [b'a'; 4096];
            while stream.write_all(&chunk).is_ok() {}
        });
        let err = request(&addr, "GET", "/v1/leases", "application/json", b"").unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        server.join().unwrap();
    }
}
