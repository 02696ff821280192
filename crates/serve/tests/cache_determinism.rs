//! The exact-cache acceptance test: a warm cache hit returns the
//! **byte-identical** JSON of the cold response while running **zero**
//! inference — proved with the serving app's own execution ledger
//! (`App::joint_executions`) while a neighbour app in the same process
//! runs inference throughout the proof.

mod common;

use ppl_serve::http::ClientConn;
use ppl_serve::{App, Json, Registry, Server};

#[test]
fn warm_cache_hits_are_byte_identical_and_run_zero_particles() {
    let app = App::new(Registry::from_benchmarks(), 32);
    let server = Server::bind("127.0.0.1:0", 2, app.handler()).expect("bind");
    let mut conn = ClientConn::connect(server.local_addr()).unwrap();
    let request = r#"{"model":"ex-1","observations":[0.8],
                      "method":{"algorithm":"importance","particles":2000},"seed":9}"#;
    // Whitespace and key-order changes in the request still hit: the
    // fingerprint is canonical, not textual.
    let reordered = r#"{"seed":9,"method":{"particles":2000,"algorithm":"importance"},"observations":[0.8],"model":"ex-1"}"#;

    let (cold, cold_executions, warm, reordered_hit, warm_executions) =
        common::beside_a_neighbour(|overlap| {
            // Cold: runs inference (the ledger moves), misses the cache.
            let before_cold = app.joint_executions();
            let cold = conn.send("POST", "/v1/query", Some(request)).unwrap();
            overlap();
            let cold_executions = app.joint_executions() - before_cold;

            // Warm: byte-identical bodies, zero joint executions scheduled.
            let before_warm = app.joint_executions();
            let warm = conn.send("POST", "/v1/query", Some(request)).unwrap();
            let reordered_hit = conn.send("POST", "/v1/query", Some(reordered)).unwrap();
            overlap();
            let warm_executions = app.joint_executions() - before_warm;
            (cold, cold_executions, warm, reordered_hit, warm_executions)
        });

    let (status, headers, cold) = cold;
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&cold));
    assert!(
        headers.iter().any(|(k, v)| k == "x-cache" && v == "miss"),
        "{headers:?}"
    );
    assert_eq!(cold_executions, 2_000, "the cold run drew its particles");

    let (status, headers, warm) = warm;
    assert_eq!(status, 200);
    assert!(
        headers.iter().any(|(k, v)| k == "x-cache" && v == "hit"),
        "{headers:?}"
    );
    assert_eq!(cold, warm, "cache hits are byte-identical");
    let (status, headers, reordered_body) = reordered_hit;
    assert_eq!(status, 200);
    assert!(headers.iter().any(|(k, v)| k == "x-cache" && v == "hit"));
    assert_eq!(cold, reordered_body);
    assert_eq!(
        warm_executions, 0,
        "a cache hit runs zero particles, and the canonical fingerprint \
         matched without running anything"
    );

    // Sanity: the cached response is valid JSON with a finite posterior.
    let parsed = Json::parse(std::str::from_utf8(&warm).unwrap()).unwrap();
    let mean = parsed
        .get("summary")
        .unwrap()
        .get("mean")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(mean.is_finite());
    assert_eq!(app.cache.hits(), 2);
    server.shutdown();
}
