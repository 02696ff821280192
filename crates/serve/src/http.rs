//! A small HTTP/1.1 server (and loopback client) over `std::net`.
//!
//! No async runtime and no external crates: a blocking
//! [`TcpListener`] accept loop hands connections to a fixed pool of worker
//! threads over a channel.  Each worker owns a connection until it closes —
//! requests on one connection are served back-to-back (keep-alive), bodies
//! are framed by `Content-Length`, and responses always carry an exact
//! `Content-Length` so clients can pipeline reads.
//!
//! The server supports:
//!
//! * **port 0** — bind to an ephemeral port and read the real one back
//!   from [`Server::local_addr`], which is how every test and benchmark
//!   boots an isolated instance;
//! * **keep-alive** — HTTP/1.1 connections persist by default
//!   (`Connection: close` honoured, HTTP/1.0 closes unless asked);
//! * **graceful shutdown** — [`Server::shutdown`] stops accepting, wakes
//!   the accept loop, lets workers finish their in-flight requests, closes
//!   idle keep-alive connections at once, and joins every thread.
//!
//! Limits are deliberate: bodies over [`MAX_BODY_BYTES`] get a 413,
//! `Transfer-Encoding: chunked` requests a 501, reads time out after
//! [`READ_TIMEOUT`] so a slow-loris peer cannot pin a worker forever, and
//! writes time out after [`WRITE_TIMEOUT`] so a peer that stops *reading*
//! cannot either.
//!
//! **Admission control**: the accept loop dispatches connections to the
//! workers over a *bounded* queue ([`ServerConfig::queue_capacity`]).
//! When the queue is full the connection is shed at the door with a
//! minimal `429 Too Many Requests` + `Retry-After` JSON response (stable
//! code `server.overloaded`) instead of queueing without bound — the
//! server degrades by refusing work it cannot start, never by collapsing.
//! [`Server::shutdown_with_deadline`] adds graceful drain: stop
//! accepting, let in-flight work finish under a deadline, then fire a
//! caller-supplied cancellation hook for whatever is still running.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum accepted request-body size (1 MiB).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Default socket read timeout; a peer that stalls longer than this
/// mid-request (or sits idle on a keep-alive connection) is disconnected.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Default socket write timeout; a peer that accepts a connection but
/// stops draining its receive window is disconnected rather than pinning
/// a worker in `write_all`.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default bound on connections queued between the accept loop and the
/// workers; connection number `queue_capacity + 1` is shed with a 429.
pub const DEFAULT_QUEUE_CAPACITY: usize = 128;

/// Maximum requests served on one keep-alive connection.
const MAX_KEEPALIVE_REQUESTS: usize = 10_000;

/// Maximum bytes of one request-head line (request line or header line);
/// longer lines are rejected so an endless unterminated line cannot grow
/// a buffer without bound.
const MAX_HEAD_LINE_BYTES: u64 = 8 * 1024;

/// Maximum header lines per request.
const MAX_HEADER_LINES: usize = 100;

/// Read budget for draining a shed connection's request before the 429
/// is written; deliberately short so a dribbling client cannot hold the
/// shedder thread for the full [`READ_TIMEOUT`].
const SHED_READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Connections allowed to wait for the shedder thread; overflow beyond
/// this is dropped outright so a connection storm cannot grow the
/// server's file-descriptor usage without bound.
const SHED_PENDING_MAX: usize = 64;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// The query string after `?`, if any (undecoded).
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of the given header (name matched
    /// case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers to send verbatim.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The request handler a [`Server`] dispatches to.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Tuning knobs for [`Server::bind_with_config`]; [`Default`] matches the
/// historical [`Server::bind`] behaviour except that the dispatch queue is
/// bounded at [`DEFAULT_QUEUE_CAPACITY`] instead of unbounded.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker (connection-handling) threads; clamped to at least 1.
    pub workers: usize,
    /// Connections allowed to wait between accept and dispatch before the
    /// server sheds with a 429; clamped to at least 1.
    pub queue_capacity: usize,
    /// The `Retry-After` value (whole seconds) sent on shed responses.
    pub retry_after_secs: u64,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Incremented once per connection shed at the admission queue, so the
    /// serving layer can surface `queue_sheds_total` in its metrics.
    pub shed_counter: Option<Arc<AtomicU64>>,
    /// Flight recorder the transport reports `http.read` / `http.write`
    /// phase timings to.  The read time is stashed thread-locally before
    /// the handler runs (the trace does not exist yet); the write time is
    /// attributed after the handler's trace has finished.
    pub recorder: Option<Arc<ppl_obs::Recorder>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            retry_after_secs: 1,
            read_timeout: READ_TIMEOUT,
            write_timeout: WRITE_TIMEOUT,
            shed_counter: None,
            recorder: None,
        }
    }
}

/// A running HTTP server; dropping it without [`Server::shutdown`] leaves
/// the threads serving until the process exits (what the `ppl-serve`
/// binary wants), shutting down joins them (what tests want).
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Each worker's connection while it serves one, so stopping can end
    /// the reads of idle keep-alive connections at once.
    conns: Arc<[Mutex<Option<Arc<TcpStream>>>]>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop plus `workers` connection-handling threads, with every
    /// other knob at its [`ServerConfig`] default.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize, handler: Handler) -> io::Result<Server> {
        Server::bind_with_config(
            addr,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
            handler,
        )
    }

    /// Binds `addr` and starts the accept loop plus worker pool under
    /// explicit [`ServerConfig`] limits.
    ///
    /// The accept loop never blocks on the workers: when
    /// [`ServerConfig::queue_capacity`] connections are already waiting,
    /// the next connection is answered directly with a one-line
    /// `429 server.overloaded` JSON response carrying `Retry-After`, and
    /// dropped.  Shedding at the door costs one small write instead of a
    /// worker, so the server's latency for *accepted* requests stays flat
    /// under arbitrary connection storms.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with_config(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        handler: Handler,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<[Mutex<Option<Arc<TcpStream>>>]> = (0..config.workers.max(1))
            .map(|_| Mutex::new(None))
            .collect();
        // The channel itself stays unbounded; `queued` enforces the bound
        // from the accept side so shedding never blocks on a lock.
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicUsize::new(0));
        let queue_capacity = config.queue_capacity.max(1);
        let read_timeout = config.read_timeout;
        let write_timeout = config.write_timeout;
        let retry_after_secs = config.retry_after_secs;
        let shed_counter = config.shed_counter.clone();
        let recorder = config.recorder.clone();

        let mut worker_handles: Vec<JoinHandle<()>> = (0..conns.len())
            .map(|worker| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let stop = Arc::clone(&stop);
                let queued = Arc::clone(&queued);
                let conns = Arc::clone(&conns);
                let recorder = recorder.clone();
                std::thread::spawn(move || loop {
                    // Holding the lock only for the recv keeps the other
                    // workers free to take the next connection.
                    let conn = match rx.lock().expect("worker queue poisoned").recv() {
                        Ok(conn) => Arc::new(conn),
                        Err(_) => return, // accept loop gone: shut down
                    };
                    queued.fetch_sub(1, Ordering::SeqCst);
                    // Published before the first read: a stop that misses
                    // it raised `stop` before this lock, and the loop sees
                    // that before it reads.
                    *conns[worker].lock().expect("connection slot poisoned") =
                        Some(Arc::clone(&conn));
                    serve_connection(
                        &conn,
                        &handler,
                        &stop,
                        read_timeout,
                        write_timeout,
                        recorder.as_ref(),
                    );
                    *conns[worker].lock().expect("connection slot poisoned") = None;
                })
            })
            .collect();

        // Shed connections are answered on their own thread: the 429 can
        // only be delivered reliably after the client's request bytes are
        // read (closing a socket with unread data sends a TCP reset that
        // can destroy the in-flight response), and that read must never
        // block the accept loop.
        let (shed_tx, shed_rx) = mpsc::channel::<TcpStream>();
        let shed_pending = Arc::new(AtomicUsize::new(0));
        let shedder_pending = Arc::clone(&shed_pending);
        worker_handles.push(std::thread::spawn(move || {
            while let Ok(conn) = shed_rx.recv() {
                shed_connection(conn, retry_after_secs, write_timeout);
                shedder_pending.fetch_sub(1, Ordering::SeqCst);
            }
        }));

        let accept_stop = Arc::clone(&stop);
        let accept_queued = Arc::clone(&queued);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break; // the shutdown poke or a late client; stop now
                }
                match conn {
                    Ok(conn) => {
                        if accept_queued.load(Ordering::SeqCst) >= queue_capacity {
                            if let Some(counter) = &shed_counter {
                                counter.fetch_add(1, Ordering::SeqCst);
                            }
                            if shed_pending.fetch_add(1, Ordering::SeqCst) >= SHED_PENDING_MAX {
                                // The shedder itself is saturated: drop the
                                // connection outright rather than hoard fds.
                                shed_pending.fetch_sub(1, Ordering::SeqCst);
                            } else if shed_tx.send(conn).is_err() {
                                break;
                            }
                            continue;
                        }
                        accept_queued.fetch_add(1, Ordering::SeqCst);
                        if tx.send(conn).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
            // Dropping `tx` (and `shed_tx`) here wakes every idle worker
            // and the shedder with RecvError.
        });

        Ok(Server {
            local_addr,
            stop,
            conns,
            accept_thread: Some(accept_thread),
            workers: worker_handles,
        })
    }

    /// The address the listener actually bound (the real port when bound
    /// with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently being served (the drain gauge).
    pub fn active_connections(&self) -> usize {
        self.conns
            .iter()
            .filter(|conn| conn.lock().expect("connection slot poisoned").is_some())
            .count()
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// In-flight requests finish; idle keep-alive connections close at
    /// once.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// Graceful drain: stops accepting, waits up to `drain` for in-flight
    /// connections to finish, then calls `on_deadline` (the caller's
    /// cancellation hook — e.g. raising the app's drain token so stuck
    /// inference aborts cooperatively) and joins the workers.
    ///
    /// `on_deadline` fires only when the drain deadline passes with
    /// connections still active; a quiet server shuts down exactly like
    /// [`Server::shutdown`].  Responses written while stopping advertise
    /// `Connection: close`.
    pub fn shutdown_with_deadline(mut self, drain: Duration, on_deadline: impl FnOnce()) {
        self.stop_accepting();
        let deadline = Instant::now() + drain;
        while self.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if self.active_connections() > 0 {
            on_deadline();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// Raises the stop flag, wakes the accept loop, joins it, and shuts
    /// the read half of every served connection; after this returns no new
    /// connection will be dispatched.
    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // A worker waiting for a keep-alive connection's next request reads
        // end-of-stream and closes it; one running a handler has read its
        // request already and still writes the response.
        for conn in self.conns.iter() {
            if let Some(conn) = &*conn.lock().expect("connection slot poisoned") {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
    }
}

/// Refuses one connection at the admission queue (runs on the dedicated
/// shedder thread): reads the client's request — under the short
/// [`SHED_READ_TIMEOUT`] so a dribbling peer cannot monopolise the
/// thread — then answers a minimal 429 JSON response with `Retry-After`
/// and closes (`Connection: close`).
///
/// The read comes *first* because closing a socket with unread request
/// bytes in the receive buffer sends a TCP reset, which can destroy the
/// already-written 429 before the client reads it — the client would see
/// a connection error instead of the retryable refusal.
fn shed_connection(conn: TcpStream, retry_after_secs: u64, write_timeout: Duration) {
    let _ = conn.set_read_timeout(Some(SHED_READ_TIMEOUT));
    let _ = conn.set_write_timeout(Some(write_timeout));
    let _ = conn.set_nodelay(true);
    // The outcome is deliberately ignored: a malformed or half-sent
    // request still gets the 429 over whatever was drained.
    let _ = read_request(&mut BufReader::new(&conn));
    let body = format!(
        "{{\"error\":{{\"code\":\"server.overloaded\",\"message\":\"admission queue full; retry after {retry_after_secs} second(s)\"}}}}"
    );
    let response =
        Response::json(429, body).with_header("Retry-After", &retry_after_secs.to_string());
    let _ = write_response(&conn, &response, false);
}

/// Serves one connection until it closes, errors, or the server stops.
fn serve_connection(
    conn: &TcpStream,
    handler: &Handler,
    stop: &AtomicBool,
    read_timeout: Duration,
    write_timeout: Duration,
    recorder: Option<&Arc<ppl_obs::Recorder>>,
) {
    let _ = conn.set_read_timeout(Some(read_timeout));
    let _ = conn.set_write_timeout(Some(write_timeout));
    let _ = conn.set_nodelay(true);
    let mut reader = BufReader::new(conn);
    for served in 0..MAX_KEEPALIVE_REQUESTS {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let last_allowed = served + 1 == MAX_KEEPALIVE_REQUESTS;
        let tracing = recorder.is_some_and(|r| r.enabled());
        let read_started = tracing.then(Instant::now);
        let (request, keep_alive) = match read_request(&mut reader) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => return, // clean EOF between requests
            Err(ReadError::BadRequest(msg)) => {
                let _ = write_response(conn, &Response::text(400, &msg), false);
                return;
            }
            Err(ReadError::TooLarge) => {
                let _ = write_response(conn, &Response::text(413, "request body too large"), false);
                return;
            }
            Err(ReadError::Unsupported(msg)) => {
                let _ = write_response(conn, &Response::text(501, &msg), false);
                return;
            }
            Err(ReadError::Io) => return,
        };
        // Stash the read time for the trace the handler is about to begin
        // (the trace cannot exist while the request is still being read).
        // Keep-alive idle time between requests is included: to the
        // client, it is all time-to-read-my-request.
        if let Some(started) = read_started {
            ppl_obs::trace::set_pending_read_nanos(
                started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            );
        }
        // A panicking handler must not take the worker thread (and the
        // pool's capacity) with it: catch it and answer a structured 500.
        // (The serving layer catches panics inside its own handler too, so
        // it can count them; this is the transport-level backstop for
        // handlers that don't.)
        let response =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request))) {
                Ok(response) => response,
                Err(_) => Response::json(
                    500,
                    "{\"error\":{\"code\":\"server.panic\",\
                     \"message\":\"internal handler panic\"}}"
                        .to_string(),
                ),
            };
        // The connection's final response (stop requested, the keep-alive
        // budget exhausted, or a handler that asked for `Connection:
        // close` — e.g. a drain rejection) honestly advertises the close
        // instead of resetting the client's next request.
        let keep_alive = keep_alive
            && !last_allowed
            && !stop.load(Ordering::SeqCst)
            && !response_requests_close(&response);
        let write_started = tracing.then(Instant::now);
        let write_ok = write_response(conn, &response, keep_alive).is_ok();
        // Attribute the socket write to the trace the handler just
        // finished (its identity is handed off thread-locally).
        if let (Some(started), Some(rec)) = (write_started, recorder) {
            if let Some((trace_id, route_index)) = ppl_obs::trace::take_last_finished() {
                rec.note_http_write(
                    &trace_id,
                    route_index,
                    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                );
            }
        }
        if !write_ok || !keep_alive {
            return;
        }
    }
}

enum ReadError {
    /// Malformed request head or framing.
    BadRequest(String),
    /// Body exceeds [`MAX_BODY_BYTES`].
    TooLarge,
    /// A framing mechanism this server does not implement.
    Unsupported(String),
    /// The socket failed or timed out.
    Io,
}

/// Reads one `\n`-terminated head line with [`MAX_HEAD_LINE_BYTES`]
/// enforced; `Ok(None)` on immediate EOF.  The advertised body limit is
/// worthless if the *head* can grow a buffer without bound.
fn read_head_line(reader: &mut BufReader<&TcpStream>) -> Result<Option<String>, ReadError> {
    let mut line = String::new();
    match reader
        .by_ref()
        .take(MAX_HEAD_LINE_BYTES)
        .read_line(&mut line)
    {
        Ok(0) => Ok(None),
        // A line that filled the whole budget without a terminator is an
        // attack or a garbage peer, not a request.
        Ok(_) if !line.ends_with('\n') && line.len() as u64 >= MAX_HEAD_LINE_BYTES => {
            Err(ReadError::BadRequest(format!(
                "request head line longer than {MAX_HEAD_LINE_BYTES} bytes"
            )))
        }
        Ok(_) => Ok(Some(line)),
        Err(_) => Err(ReadError::Io),
    }
}

/// Reads one request; `Ok(None)` on clean EOF before a request line.
fn read_request(reader: &mut BufReader<&TcpStream>) -> Result<Option<(Request, bool)>, ReadError> {
    let line = match read_head_line(reader)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let line = line.trim_end();
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v.to_string()),
        _ => return Err(ReadError::BadRequest("malformed request line".into())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::BadRequest(format!(
            "unsupported protocol version '{version}'"
        )));
    }

    let mut headers = Vec::new();
    loop {
        if headers.len() >= MAX_HEADER_LINES {
            return Err(ReadError::BadRequest(format!(
                "more than {MAX_HEADER_LINES} header lines"
            )));
        }
        let header_line = match read_head_line(reader)? {
            Some(line) => line,
            None => return Err(ReadError::BadRequest("truncated headers".into())),
        };
        let header_line = header_line.trim_end();
        if header_line.is_empty() {
            break;
        }
        match header_line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
            None => return Err(ReadError::BadRequest("malformed header line".into())),
        }
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(ReadError::Unsupported(
            "Transfer-Encoding is not supported; frame bodies with Content-Length".into(),
        ));
    }
    let content_length = match find("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::BadRequest("invalid Content-Length".into()))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|_| ReadError::Io)?;
    }

    // HTTP/1.1 defaults to keep-alive; 1.0 defaults to close.
    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(v) if v == "close" => false,
        Some(v) if v == "keep-alive" => true,
        _ => version == "HTTP/1.1",
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    Ok(Some((
        Request {
            method,
            path,
            query,
            headers,
            body,
        },
        keep_alive,
    )))
}

/// Whether the handler attached its own `Connection: close` header — a
/// request to drop the connection after this response (the framing
/// `Connection` header is owned by [`write_response`], which folds the
/// request in rather than emitting a duplicate).
fn response_requests_close(response: &Response) -> bool {
    response
        .headers
        .iter()
        .any(|(k, v)| k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close"))
}

fn write_response(mut writer: &TcpStream, response: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        // The framing Connection header above is authoritative.
        if name.eq_ignore_ascii_case("connection") {
            continue;
        }
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

/// A client-side response: status code, lowercased headers, body bytes.
pub type ClientResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// A persistent (keep-alive) client connection for tests, benchmarks, and
/// the example client.
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
}

impl ClientConn {
    /// Connects to the server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(ClientConn { stream })
    }

    /// Sends one request and reads the full response, keeping the
    /// connection open for the next call.
    ///
    /// # Errors
    ///
    /// Propagates socket failures and malformed response framing.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: ppl-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        read_client_response(&mut self.stream)
    }
}

fn read_client_response(stream: &mut TcpStream) -> io::Result<ClientResponse> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut header_line = String::new();
        reader.read_line(&mut header_line)?;
        let header_line = header_line.trim_end();
        if header_line.is_empty() {
            break;
        }
        if let Some((name, value)) = header_line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "invalid Content-Length")
                })?;
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    // Dropping the BufReader discards any read-ahead, which is safe only
    // because requests are strictly serialised per connection: the server
    // has sent exactly one response, consumed in full above.
    Ok((status, headers, body))
}

/// One-shot convenience request on a fresh connection (`Connection:
/// close` semantics — the connection is dropped after the response).
///
/// # Errors
///
/// Propagates socket failures and malformed response framing.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    let mut conn = ClientConn::connect(addr)?;
    conn.send(method, path, body)
}
