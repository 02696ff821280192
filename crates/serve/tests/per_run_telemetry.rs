//! Per-request telemetry that stays true under concurrency: engine counts
//! belong to the run that produced them, and `/metrics` percentiles come
//! from log₂ cells bounded by the exact maximum.

use ppl_serve::http::{Request, Response};
use ppl_serve::metrics::normalize_route;
use ppl_serve::{App, Json, Registry};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const BRANCHING: &str = r#"{"model":"branching","observations":[3.0],"diagnostics":true,
    "method":{"algorithm":"importance","particles":4000},"seed":3}"#;
const EX2: &str = r#"{"model":"ex-2","observations":[],
    "method":{"algorithm":"importance","particles":1000},"seed":5}"#;

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: None,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn body_json(response: &Response) -> Json {
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    Json::parse(std::str::from_utf8(&response.body).expect("utf-8")).expect("valid JSON")
}

fn fields(doc: &Json) -> &[(String, Json)] {
    match doc {
        Json::Obj(fields) => fields,
        other => panic!("an object, got {other:?}"),
    }
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{key} missing in {doc:?}"))
}

/// The engine counts of one uncached branching run.
fn branching_counts(app: &std::sync::Arc<App>) -> [f64; 4] {
    let doc = body_json(&app.handler()(&request("POST", "/v1/query", BRANCHING)));
    let engine = doc
        .get("trace")
        .and_then(|t| t.get("engine"))
        .expect("engine block");
    [
        "lane_splits",
        "lane_reconverges",
        "cancel_checks",
        "scalar_lanes",
    ]
    .map(|k| num(engine, k))
}

#[test]
fn engine_counts_ignore_a_concurrent_neighbour() {
    let app = App::new(Registry::from_benchmarks(), 0); // cache off: every request runs
    let solo = branching_counts(&app);
    assert!(
        solo[0] > 0.0 && solo[2] > 0.0,
        "branching diverges: {solo:?}"
    );
    assert_eq!(solo[0], solo[1], "every split reconverges");
    assert_eq!(solo[3], 0.0, "branching vectorises every lane");

    // The neighbour runs ex-2 back to back from before the first round
    // until after the last, so every round overlaps its blocks.  The
    // rounds are asserted after it stopped, so a failing round cannot
    // leave it running.
    let stop = AtomicBool::new(false);
    let neighbour_runs = AtomicUsize::new(0);
    let rounds: Vec<[f64; 4]> = std::thread::scope(|scope| {
        let neighbour = scope.spawn(|| {
            let handler = app.handler();
            while !stop.load(Ordering::Relaxed) {
                body_json(&handler(&request("POST", "/v1/query", EX2)));
                neighbour_runs.fetch_add(1, Ordering::Relaxed);
            }
        });
        while neighbour_runs.load(Ordering::Relaxed) == 0 && !neighbour.is_finished() {
            std::thread::yield_now();
        }
        let rounds = (0..6).map(|_| branching_counts(&app)).collect();
        stop.store(true, Ordering::Relaxed);
        rounds
    });
    for (round, counts) in rounds.iter().enumerate() {
        assert_eq!(*counts, solo, "round {round}");
    }
}

#[test]
fn sub_millisecond_requests_render_sub_millisecond_percentiles() {
    let app = App::new(Registry::from_benchmarks(), 0);
    let handler = app.handler();
    // 101 handler times of 0.050–0.074 ms on /healthz.
    let healthz = normalize_route("/healthz");
    for nanos in (50_000..=74_000).step_by(240) {
        app.obs.finish(healthz, 200, nanos);
    }
    // `/metrics` is recorded after it renders, so it sees exactly those.
    let metrics = body_json(&handler(&request("GET", "/metrics", "")));
    for doc in [
        metrics.get("latency_ms").unwrap(),
        metrics
            .get("latency_by_route_ms")
            .unwrap()
            .get("/healthz")
            .unwrap(),
    ] {
        assert_eq!(num(doc, "count"), 101.0);
        assert_eq!(num(doc, "max"), 0.074);
        for key in ["p50", "p90", "p99"] {
            let value = num(doc, key);
            assert!(value <= 0.1 && value <= num(doc, "max"), "{key} = {value}");
        }
    }

    // Real requests: every rendered cell orders its percentiles below max.
    for _ in 0..20 {
        assert_eq!(handler(&request("GET", "/healthz", "")).status, 200);
    }
    let metrics = body_json(&handler(&request("GET", "/metrics", "")));
    let by_route = metrics.get("latency_by_route_ms").unwrap();
    let phases = metrics.get("phases_ms").unwrap();
    let mut cells: Vec<&Json> = fields(by_route).iter().map(|(_, v)| v).collect();
    for (_, route) in fields(phases) {
        cells.extend(fields(route).iter().map(|(_, v)| v));
    }
    assert!(cells.len() >= 2, "{metrics:?}");
    for cell in cells {
        let [p50, p90, p99, max, mean] = ["p50", "p90", "p99", "max", "mean"].map(|k| num(cell, k));
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= max && mean <= max,
            "{cell:?}"
        );
    }
}
