//! Overload and robustness coverage: request deadlines, admission-queue
//! shedding, per-endpoint concurrency caps, graceful drain, and (under
//! `--features faults`) the injection harness — handler panics, slow-loris
//! clients, and forced mid-block deadline expiry.
//!
//! The load-bearing invariants:
//!
//! - an expired deadline is a structured `408 query.deadline_exceeded`
//!   that **never** writes to the result cache;
//! - shed traffic is always a `429` with `Retry-After`, never a `500`;
//! - completed responses stay byte-identical with or without a deadline
//!   attached (the deadline is excluded from the cache fingerprint);
//! - drain turns new work into retryable, connection-closing `503`s and
//!   cancels in-flight inference at its next block poll;
//! - stopping closes idle keep-alive connections at once, while the
//!   in-flight request finishes.

use ppl_serve::http::{ClientConn, Handler, Response, Server, ServerConfig};
use ppl_serve::{App, AppLimits, Json, Registry};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot(cache: usize, workers: usize) -> (Arc<App>, Server) {
    let app = App::new(Registry::from_benchmarks(), cache);
    let server = Server::bind("127.0.0.1:0", workers, app.handler()).expect("bind port 0");
    (app, server)
}

fn error_code(body: &[u8]) -> String {
    Json::parse(std::str::from_utf8(body).expect("utf8"))
        .expect("json body")
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// A query slow enough that a short deadline always expires mid-run, but
/// bounded well under the per-request execution budget.
const SLOW_QUERY: &str = r#"{"model":"normal-normal","observations":[1.0],
    "method":{"algorithm":"importance","particles":400000},"seed":9,
    "deadline_ms":5}"#;

/// Polls `/metrics` until it reports one query running inference, so the
/// caller's next request (or drain) lands while the slow query runs
/// whatever the build profile's speed.  Panics after 10 s.
fn await_inflight_query(conn: &mut ClientConn) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, body) = conn.send("GET", "/metrics", None).unwrap();
        let metrics = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let inflight = metrics
            .get("server")
            .and_then(|s| s.get("inflight_query"))
            .and_then(Json::as_f64);
        if inflight == Some(1.0) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "the slow query never started: inflight_query = {inflight:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn expired_deadline_is_a_fast_408_and_never_caches() {
    let (app, server) = boot(16, 2);
    let mut conn = ClientConn::connect(server.local_addr()).unwrap();

    let started = Instant::now();
    let (status, _, body) = conn.send("POST", "/v1/query", Some(SLOW_QUERY)).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status, 408, "{}", String::from_utf8_lossy(&body));
    assert_eq!(error_code(&body), "query.deadline_exceeded");
    // The 5 ms deadline is answered within one block-step, not after the
    // full 400k-particle run; the bound is generous for slow CI machines.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");

    // The cancelled request must not have cached anything: the same
    // request without a deadline is a MISS, runs fully, and succeeds.
    assert_eq!(app.cache.len(), 0, "cancelled request wrote to the cache");
    let full = SLOW_QUERY.replace(",\n    \"deadline_ms\":5", "");
    assert!(full.len() < SLOW_QUERY.len(), "deadline field was removed");
    let (status, headers, body) = conn.send("POST", "/v1/query", Some(&full)).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(header(&headers, "X-Cache"), Some("miss"));

    server.shutdown();
}

#[test]
fn deadline_never_changes_a_completed_response() {
    let (_app, server) = boot(16, 2);
    let mut conn = ClientConn::connect(server.local_addr()).unwrap();
    let plain = r#"{"model":"ex-1","observations":[0.8],
        "method":{"algorithm":"importance","particles":400},"seed":3}"#;
    let with_deadline = r#"{"model":"ex-1","observations":[0.8],
        "method":{"algorithm":"importance","particles":400},"seed":3,
        "deadline_ms":30000}"#;

    let (status, _, body_plain) = conn.send("POST", "/v1/query", Some(plain)).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body_plain));
    // The deadline is excluded from the fingerprint, so the deadlined
    // request *hits* the plain request's cache entry byte-for-byte.
    let (status, headers, body_deadlined) =
        conn.send("POST", "/v1/query", Some(with_deadline)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Cache"), Some("hit"));
    assert_eq!(body_plain, body_deadlined, "deadline changed the bytes");
    server.shutdown();
}

#[test]
fn admission_queue_overflow_sheds_429_with_retry_after_never_500() {
    // Transport-level shedding needs no inference: a deliberately slow
    // handler pins the single worker while more connections arrive.
    let sheds = Arc::new(AtomicU64::new(0));
    let handler: Handler = Arc::new(|_req| {
        std::thread::sleep(Duration::from_millis(400));
        Response::json(200, "{\"ok\":true}".to_string())
    });
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        shed_counter: Some(Arc::clone(&sheds)),
        ..ServerConfig::default()
    };
    let server = Server::bind_with_config("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.local_addr();

    // Occupy the worker...
    let busy = std::thread::spawn(move || {
        let mut conn = ClientConn::connect(addr).unwrap();
        conn.send("GET", "/slow", None).unwrap().0
    });
    std::thread::sleep(Duration::from_millis(100));
    // ...fill the one queue slot...
    let queued = std::thread::spawn(move || {
        let mut conn = ClientConn::connect(addr).unwrap();
        conn.send("GET", "/slow", None).unwrap().0
    });
    std::thread::sleep(Duration::from_millis(100));
    // ...and the next connection must be shed at the door: a 429 with
    // Retry-After, not a hang and not a 500.
    let mut conn = ClientConn::connect(addr).unwrap();
    let (status, headers, body) = conn.send("GET", "/slow", None).unwrap();
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert_eq!(error_code(&body), "server.overloaded");
    assert!(header(&headers, "Retry-After").is_some(), "no Retry-After");
    assert_eq!(sheds.load(Ordering::SeqCst), 1);

    // The accepted requests still complete normally.
    assert_eq!(busy.join().unwrap(), 200);
    assert_eq!(queued.join().unwrap(), 200);
    server.shutdown();
}

#[test]
fn per_endpoint_caps_shed_queries_without_touching_health() {
    // A one-slot query cap, occupied by a slow query, sheds the second
    // query while /healthz stays green.
    let app = App::with_limits(
        Registry::from_benchmarks(),
        16,
        ppl_inference::DEFAULT_BLOCK,
        Arc::new(ppl_store::Store::in_memory(8)),
        AppLimits {
            query_concurrency: 1,
            ..AppLimits::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", 3, app.handler()).expect("bind");
    let addr = server.local_addr();

    let slow = std::thread::spawn(move || {
        let mut conn = ClientConn::connect(addr).unwrap();
        // No deadline: occupies the one query slot for the full run.
        let body = SLOW_QUERY.replace(",\n    \"deadline_ms\":5", "");
        conn.send("POST", "/v1/query", Some(&body)).unwrap().0
    });
    let mut conn = ClientConn::connect(addr).unwrap();
    await_inflight_query(&mut conn);

    let (status, headers, body) = conn
        .send(
            "POST",
            "/v1/query",
            Some(r#"{"model":"ex-1","observations":[0.8],"method":{"algorithm":"importance","particles":100}}"#),
        )
        .unwrap();
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert_eq!(error_code(&body), "server.overloaded");
    assert!(header(&headers, "Retry-After").is_some());

    let (status, _, _) = conn.send("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "health must not be capped");
    assert_eq!(slow.join().unwrap(), 200);

    // The shed shows up in /metrics.
    let (_, _, body) = conn.send("GET", "/metrics", None).unwrap();
    let metrics = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let serverm = metrics.get("server").expect("server section");
    assert_eq!(
        serverm.get("cap_sheds_total").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        serverm.get("inflight_query").and_then(Json::as_f64),
        Some(0.0),
        "slots leak"
    );
    server.shutdown();
}

#[test]
fn drain_rejects_new_work_and_cancels_in_flight_inference() {
    let (app, server) = boot(16, 3);
    let addr = server.local_addr();

    // A long, deadline-free query that drain must cut short.
    let app2 = Arc::clone(&app);
    let inflight = std::thread::spawn(move || {
        let _ = &app2; // keep the app alive for the request's duration
        let mut conn = ClientConn::connect(addr).unwrap();
        let body = SLOW_QUERY.replace(",\n    \"deadline_ms\":5", "");
        conn.send("POST", "/v1/query", Some(&body)).unwrap()
    });
    await_inflight_query(&mut ClientConn::connect(addr).unwrap());

    app.begin_drain();

    // The in-flight query is cancelled at its next block poll and comes
    // back as a retryable 503, not a 200 and not a 500.
    let (status, _, body) = inflight.join().unwrap();
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert_eq!(error_code(&body), "server.draining");
    assert_eq!(app.cache.len(), 0, "a drained request must not cache");

    // New POSTs are rejected up front with Retry-After + Connection:
    // close; health stays readable for the orchestrator.
    let mut conn = ClientConn::connect(addr).unwrap();
    let (status, headers, body) = conn
        .send(
            "POST",
            "/v1/query",
            Some(r#"{"model":"ex-1","observations":[0.8],"method":{"algorithm":"importance","particles":50}}"#),
        )
        .unwrap();
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert_eq!(error_code(&body), "server.draining");
    assert!(header(&headers, "Retry-After").is_some());
    assert_eq!(header(&headers, "Connection"), Some("close"));
    // The server honoured its own Connection: close.
    assert!(conn.send("GET", "/healthz", None).is_err());
    let mut fresh = ClientConn::connect(addr).unwrap();
    assert_eq!(fresh.send("GET", "/healthz", None).unwrap().0, 200);

    server.shutdown();
}

#[test]
fn slow_loris_client_is_disconnected_by_the_read_timeout() {
    let handler: Handler = Arc::new(|_req| Response::json(200, "{\"ok\":true}".to_string()));
    let config = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::bind_with_config("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.local_addr();

    // Dribble half a request head, then stall past the read timeout.
    let mut loris = std::net::TcpStream::connect(addr).unwrap();
    loris
        .write_all(b"POST /v1/query HTTP/1.1\r\nContent-")
        .unwrap();
    loris.flush().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    // The server has dropped the connection: the read side sees EOF (or a
    // reset) instead of a response that never comes.
    loris
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut buf = [0u8; 64];
    match loris.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!(
            "server answered a half-request: {:?}",
            String::from_utf8_lossy(&buf[..n])
        ),
    }

    // The stalled client did not take the worker with it.
    let mut conn = ClientConn::connect(addr).unwrap();
    assert_eq!(conn.send("GET", "/healthz", None).unwrap().0, 200);
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_hold_neither_shutdown_nor_drain() {
    for drain in [false, true] {
        let (_app, server) = boot(4, 2);
        let mut idle = ClientConn::connect(server.local_addr()).unwrap();
        assert_eq!(idle.send("GET", "/healthz", None).unwrap().0, 200);
        let fired = AtomicBool::new(false);
        let started = Instant::now();
        if drain {
            server.shutdown_with_deadline(Duration::from_secs(5), || {
                fired.store(true, Ordering::SeqCst)
            });
        } else {
            server.shutdown();
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "stopping with an idle connection open took {elapsed:?} (drain: {drain})"
        );
        assert!(
            !fired.load(Ordering::SeqCst),
            "an idle connection is no active work, so the drain deadline never passes"
        );
        assert!(
            idle.send("GET", "/healthz", None).is_err(),
            "the server closed the idle connection"
        );
    }
}

#[test]
fn shutdown_lets_the_in_flight_request_finish() {
    let (_app, server) = boot(4, 3);
    let addr = server.local_addr();
    let inflight = std::thread::spawn(move || {
        let mut conn = ClientConn::connect(addr).unwrap();
        let body = SLOW_QUERY
            .replace(",\n    \"deadline_ms\":5", "")
            .replace("400000", "100000");
        conn.send("POST", "/v1/query", Some(&body)).unwrap()
    });
    // The polling connection stays open and idle while the server stops.
    await_inflight_query(&mut ClientConn::connect(addr).unwrap());
    server.shutdown();
    let (status, _, body) = inflight.join().unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
}

#[cfg(feature = "faults")]
mod faults {
    use super::*;

    #[test]
    fn injected_panic_is_a_structured_500_and_counted() {
        let (app, server) = boot(4, 2);
        let mut conn = ClientConn::connect(server.local_addr()).unwrap();

        let (status, _, body) = conn.send("POST", "/v1/_faults/panic", Some("{}")).unwrap();
        assert_eq!(status, 500);
        assert_eq!(error_code(&body), "server.panic");
        assert_eq!(app.metrics.panics(), 1);

        // The worker survived; the same connection was closed by the
        // transport backstop, but a fresh one serves normally.
        let mut fresh = ClientConn::connect(server.local_addr()).unwrap();
        assert_eq!(fresh.send("GET", "/healthz", None).unwrap().0, 200);
        let (_, _, body) = fresh.send("GET", "/metrics", None).unwrap();
        let metrics = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(
            metrics
                .get("server")
                .and_then(|s| s.get("panics_total"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        server.shutdown();
    }

    #[test]
    fn stalled_ops_force_mid_block_deadline_expiry() {
        let (app, server) = boot(4, 2);
        let mut conn = ClientConn::connect(server.local_addr()).unwrap();

        // 2 ms per vectorised op of this app's runs (the stall lives in its
        // drain token, so no other app in the process slows down): even
        // one block of 64 particles now far outlives a 40 ms deadline, so
        // expiry must be caught *inside* the block (the per-op poll), not
        // only between blocks.
        let (status, _, _) = conn
            .send("POST", "/v1/_faults/stall", Some("{\"micros\":2000}"))
            .unwrap();
        assert_eq!(status, 200);

        let query = r#"{"model":"normal-normal","observations":[1.0],
            "method":{"algorithm":"importance","particles":20000},
            "seed":1,"deadline_ms":40}"#;
        let started = Instant::now();
        let (status, _, body) = conn.send("POST", "/v1/query", Some(query)).unwrap();
        let elapsed = started.elapsed();

        assert_eq!(status, 408, "{}", String::from_utf8_lossy(&body));
        assert_eq!(error_code(&body), "query.deadline_exceeded");
        // 20 000 particles × ≥1 op × 2 ms ≈ ≥40 s if run to completion;
        // mid-block expiry answers orders of magnitude sooner.
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
        assert_eq!(app.cache.len(), 0);

        // With this app's ops stalled 20 ms each, a second app in the same
        // process runs the same query inside a 5 s deadline that a stalled
        // run (313 blocks × ≥ 2 ops × 20 ms) could never meet.
        let (status, _, _) = conn
            .send("POST", "/v1/_faults/stall", Some("{\"micros\":20000}"))
            .unwrap();
        assert_eq!(status, 200);
        let (_other, other_server) = boot(4, 2);
        let mut other = ClientConn::connect(other_server.local_addr()).unwrap();
        let unstalled = query.replace("\"deadline_ms\":40", "\"deadline_ms\":5000");
        let (status, _, body) = other.send("POST", "/v1/query", Some(&unstalled)).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        other_server.shutdown();
        server.shutdown();
    }
}
