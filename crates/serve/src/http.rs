//! Hand-rolled HTTP/1.1 plumbing: request parsing, response writing,
//! and a bounded-worker-pool TCP server.
//!
//! The offline vendor set has no tokio/hyper, and the serving problem
//! does not need them: every request is a short JSON exchange, so
//! blocking I/O on a fixed pool of worker threads with a bounded accept
//! queue is both simpler and easier to reason about under load — when
//! the queue is full the accept loop answers `503` immediately instead
//! of building an unbounded backlog (the counters record every
//! rejection, so loadgen can assert nothing was silently dropped).
//!
//! Protocol scope, deliberately narrow:
//!
//! * one request per connection (`Connection: close` on every reply);
//! * request heads are capped at [`MAX_HEAD`] bytes and bodies at
//!   [`MAX_BODY`] bytes — a malformed or hostile peer costs one bounded
//!   read, never memory;
//! * only `Content-Length` bodies (no chunked uploads) — every client
//!   this repo ships speaks exactly that.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on the request line + headers, in bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// Cap on a request body, in bytes (a batch of a few hundred full
/// `SimConfig`s is well under 1 MiB).
pub const MAX_BODY: usize = 8 << 20;

/// A parsed request: method, split path/query, UTF-8 body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (e.g. `/v1/batches`).
    pub path: String,
    /// Decoded `key=value` query pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

impl Request {
    /// First query value under `name`, parsed as `u64`.
    pub fn query_u64(&self, name: &str) -> Option<u64> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.parse().ok())
    }
}

/// A response payload: either buffered bytes (the common case, sent
/// with a `Content-Length`) or a streaming writer invoked directly on
/// the connection (no `Content-Length`; the peer reads until the server
/// closes). Streaming bodies exist for NDJSON endpoints like
/// `/v1/metrics/stream`, where a write error means the client is gone
/// and the producer must stop instead of buffering into the void.
pub enum Body {
    /// Fully materialised body bytes.
    Bytes(Vec<u8>),
    /// Writer called with the live connection after the head is sent.
    Stream(StreamProducer),
}

/// The boxed writer behind [`Body::Stream`].
pub type StreamProducer = Box<dyn FnOnce(&mut dyn Write) -> io::Result<()> + Send>;

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Bytes(b) => write!(f, "Bytes({} bytes)", b.len()),
            Body::Stream(_) => f.write_str("Stream(..)"),
        }
    }
}

/// A response about to be written: status, content type, body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// A JSON response from pre-serialised text.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Body::Bytes(body.into_bytes()),
        }
    }

    /// A streaming response: `write` is handed the connection after the
    /// head goes out. No `Content-Length` is sent — the client reads to
    /// EOF — so a write error (peer disconnected) simply aborts the
    /// producer.
    pub fn stream(
        status: u16,
        content_type: &'static str,
        write: impl FnOnce(&mut dyn Write) -> io::Result<()> + Send + 'static,
    ) -> Response {
        Response {
            status,
            content_type,
            body: Body::Stream(Box::new(write)),
        }
    }

    /// A JSON error object `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Response {
        let v = serde::Value::Object(
            [("error".to_owned(), serde::Value::Str(msg.to_owned()))]
                .into_iter()
                .collect(),
        );
        Response::json(status, serde::json::to_string(&v))
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialise onto `stream` (one-shot connection: always closes).
    ///
    /// Buffered bodies go out with a `Content-Length`; streaming bodies
    /// omit it (the close delimits the body) and hand the connection to
    /// the producer, whose first failed write ends the stream.
    pub fn write_to(self, stream: &mut TcpStream) -> io::Result<()> {
        let (status, reason) = (self.status, self.reason());
        match self.body {
            Body::Bytes(bytes) => {
                let head = format!(
                    "HTTP/1.1 {status} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    self.content_type,
                    bytes.len()
                );
                stream.write_all(head.as_bytes())?;
                stream.write_all(&bytes)?;
                stream.flush()
            }
            Body::Stream(producer) => {
                let head = format!(
                    "HTTP/1.1 {status} {reason}\r\nContent-Type: {}\r\nConnection: close\r\n\r\n",
                    self.content_type,
                );
                stream.write_all(head.as_bytes())?;
                producer(stream)?;
                stream.flush()
            }
        }
    }
}

/// Parse one request from `stream`, enforcing the head/body caps.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read request line: {e}"))?;
    if line.len() > MAX_HEAD {
        return Err("request line too long".into());
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_owned();
    let target = parts.next().ok_or("request line missing target")?;
    let version = parts.next().ok_or("request line missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version}"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query(q)),
        None => (target.to_owned(), Vec::new()),
    };

    let mut content_length = 0usize;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        if n == 0 {
            return Err("connection closed inside headers".into());
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD {
            return Err("headers too large".into());
        }
        let trimmed = header.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "unparsable content-length".to_owned())?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds cap"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Split `a=1&b=2` (no percent-decoding: every key/value this API uses
/// is plain ASCII).
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect()
}

/// Request handler shared by every worker thread.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Pool sizing and per-connection limits.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted connections queued ahead of the workers; when full,
    /// further connections are answered `503` immediately.
    pub queue_depth: usize,
    /// Per-connection read timeout (slow or stalled peers release their
    /// worker after this).
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            queue_depth: 128,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// A running server: accept thread + bounded worker pool.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    rejected: Arc<AtomicU64>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral test port) and start
    /// serving `handler` on `cfg.workers` threads.
    pub fn spawn(addr: &str, cfg: ServerConfig, handler: Handler) -> io::Result<Server> {
        Server::spawn_with(addr, cfg, handler, Arc::new(AtomicU64::new(0)))
    }

    /// Like [`Server::spawn`], but queue-full rejections increment the
    /// caller's counter too, so handlers can export it as a metric.
    pub fn spawn_with(
        addr: &str,
        cfg: ServerConfig,
        handler: Handler,
        rejected: Arc<AtomicU64>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for _ in 0..cfg.workers.max(1) {
            let rx = rx.clone();
            let handler = handler.clone();
            let timeout = cfg.read_timeout;
            workers.push(std::thread::spawn(move || loop {
                // Take the next connection, releasing the receiver lock
                // before doing any I/O so the pool drains in parallel.
                let next = { ptb_farm::lock(&rx).recv() };
                match next {
                    Ok(stream) => handle_connection(stream, &handler, timeout),
                    Err(_) => break, // accept loop gone: shut down
                }
            }));
        }
        let accept = {
            let shutdown = shutdown.clone();
            let rejected = rejected.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(mut stream)) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            Response::error(503, "request queue full")
                                .write_to(&mut stream)
                                .ok();
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => break,
                    }
                }
                // Dropping `tx` closes the channel; workers drain the
                // queued connections and then exit.
            })
        };
        Ok(Server {
            addr,
            shutdown,
            accept: Some(accept),
            workers,
            rejected,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections answered `503` because the queue was full.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain the queue, and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop's blocking `incoming()` with one last
        // connection; it observes the flag and exits.
        TcpStream::connect(self.addr).ok();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
        for h in self.workers.drain(..) {
            h.join().ok();
        }
    }
}

fn handle_connection(mut stream: TcpStream, handler: &Handler, timeout: Duration) {
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    // A panic in the handler, or in a streaming body's producer, costs
    // its own request and no more: the worker thread lives on to serve
    // the next connection.
    let response = match read_request(&mut stream) {
        Ok(req) => panic::catch_unwind(AssertUnwindSafe(|| handler(&req)))
            .unwrap_or_else(|_| Response::error(500, "internal error: request handler panicked")),
        Err(e) => Response::error(400, &format!("bad request: {e}")),
    };
    // A peer that vanished mid-reply is its own problem.
    panic::catch_unwind(AssertUnwindSafe(|| response.write_to(&mut stream))).ok();
}

/// Minimal one-shot HTTP client for the bundled tools and tests: sends
/// one request, reads to EOF (the server always closes), returns
/// `(status, body)`.
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: ptb-serve\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable status line"))?;
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_round_trips_and_rejects_bad_requests() {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::json(
                200,
                format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"n\":{}}}",
                    req.method,
                    req.path,
                    req.query_u64("n").unwrap_or(0)
                ),
            )
        });
        let server = Server::spawn("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let addr = server.addr();
        let (status, body) = http_call(addr, "GET", "/x/y?n=7", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"method\":\"GET\",\"path\":\"/x/y\",\"n\":7}");

        // Garbage on the wire → 400, and the server keeps serving.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut resp = String::new();
        raw.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        let (status, _) = http_call(addr, "GET", "/still/up", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn a_panicking_handler_costs_one_500_not_the_worker() {
        let handler: Handler = Arc::new(|req: &Request| {
            assert_ne!(req.path, "/panic", "a handler bug");
            Response::json(200, "\"ok\"".to_owned())
        });
        let cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::spawn("127.0.0.1:0", cfg, handler).unwrap();
        for _ in 0..3 {
            let (status, body) = http_call(server.addr(), "GET", "/panic", None).unwrap();
            assert_eq!(status, 500, "{body}");
            let (status, _) = http_call(server.addr(), "GET", "/fine", None).unwrap();
            assert_eq!(status, 200, "the only worker still serves");
        }
        server.shutdown();
    }

    #[test]
    fn post_bodies_round_trip() {
        let handler: Handler =
            Arc::new(|req: &Request| Response::json(200, format!("\"{}\"", req.body.len())));
        let server = Server::spawn("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let payload = "x".repeat(10_000);
        let (status, body) = http_call(server.addr(), "POST", "/in", Some(&payload)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "\"10000\"");
        server.shutdown();
    }
}
