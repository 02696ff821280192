//! The flight recorder end to end: per-phase spans, trace ids,
//! `/v1/trace`, and — the property everything else hangs on — that
//! diagnostics never perturb the deterministic response cache.
//!
//! The cache stores only the *clean* body; the `"trace"` block is
//! spliced in per-response after the cache write/read.  So whether a
//! cold run asked for diagnostics or not must be unobservable to every
//! later request: a warm hit returns the byte-identical clean body, and
//! a warm hit *with* diagnostics returns that same body plus a trace
//! block reporting `"cache": "hit"`.

use ppl_serve::http::{self, Request, Response, ServerConfig};
use ppl_serve::{App, Json, Registry, Server};

const QUERY: &str = r#"{"model":"ex-1","observations":[0.8],
    "method":{"algorithm":"importance","particles":2000},"seed":11}"#;

/// Builds a request the way the HTTP layer would parse it.
fn request(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: None,
        headers: headers
            .iter()
            .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
            .collect(),
        body: body.as_bytes().to_vec(),
    }
}

fn header<'r>(response: &'r Response, name: &str) -> Option<&'r str> {
    response
        .headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn body_json(response: &Response) -> Json {
    Json::parse(std::str::from_utf8(&response.body).expect("utf-8")).expect("valid JSON")
}

/// With-diagnostics body = clean body + spliced trailer: stripping the
/// `,"trace":…` block (and restoring the closing brace the splice
/// re-used) must recover the clean bytes exactly.
fn strip_trace(body: &str) -> String {
    let start = body.rfind(",\"trace\":").expect("a spliced trace block");
    format!("{}}}", &body[..start])
}

#[test]
fn diagnostics_on_the_cold_run_never_reach_the_cache() {
    // App A: the cold run *requests* diagnostics.
    let app_a = App::new(Registry::from_benchmarks(), 32);
    let handler_a = app_a.handler();
    let with_diag = QUERY.replacen('{', r#"{"diagnostics":true,"#, 1);

    let cold_a = handler_a(&request("POST", "/v1/query", &[], &with_diag));
    assert_eq!(
        cold_a.status,
        200,
        "{}",
        String::from_utf8_lossy(&cold_a.body)
    );
    assert_eq!(header(&cold_a, "X-Cache"), Some("miss"));
    let cold_a_text = String::from_utf8(cold_a.body.clone()).unwrap();
    let trace = body_json(&cold_a)
        .get("trace")
        .cloned()
        .expect("trace block");
    assert_eq!(
        trace.get("cache").and_then(Json::as_str),
        Some("miss"),
        "cold trace reports the cache miss"
    );
    assert!(
        trace
            .get("engine")
            .and_then(|e| e.get("ess"))
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite),
        "cold trace embeds engine diagnostics"
    );

    // Warm, *without* diagnostics: the clean cached bytes.
    let warm_a = handler_a(&request("POST", "/v1/query", &[], QUERY));
    assert_eq!(header(&warm_a, "X-Cache"), Some("hit"));
    let warm_a_text = String::from_utf8(warm_a.body).unwrap();
    assert!(
        !warm_a_text.contains("\"trace\""),
        "clean hit carries no trace"
    );

    // App B: a fresh process-equivalent whose cold run never asked for
    // diagnostics.  Its response must be byte-identical to A's warm hit.
    let app_b = App::new(Registry::from_benchmarks(), 32);
    let handler_b = app_b.handler();
    let cold_b = handler_b(&request("POST", "/v1/query", &[], QUERY));
    assert_eq!(header(&cold_b, "X-Cache"), Some("miss"));
    let cold_b_text = String::from_utf8(cold_b.body).unwrap();
    assert_eq!(
        warm_a_text, cold_b_text,
        "requesting diagnostics on the cold run must not change the cached bytes"
    );
    assert_eq!(
        strip_trace(&cold_a_text),
        cold_b_text,
        "the spliced response is the clean body plus a trailer"
    );

    // Warm *with* diagnostics (via the header this time): same clean
    // body underneath, and the trace block reports the hit.
    let warm_diag = handler_a(&request(
        "POST",
        "/v1/query",
        &[("X-Ppl-Trace", "1")],
        QUERY,
    ));
    assert_eq!(header(&warm_diag, "X-Cache"), Some("hit"));
    let warm_diag_text = String::from_utf8(warm_diag.body.clone()).unwrap();
    assert_eq!(strip_trace(&warm_diag_text), cold_b_text);
    let warm_trace = body_json(&warm_diag)
        .get("trace")
        .cloned()
        .expect("trace block");
    assert_eq!(warm_trace.get("cache").and_then(Json::as_str), Some("hit"));
    assert!(
        matches!(warm_trace.get("engine"), None | Some(Json::Null)),
        "a hit ran no engine, so there is nothing to report"
    );
    assert_eq!(app_a.cache.hits(), 2);
}

#[test]
fn trace_endpoint_serves_span_timings_and_engine_diagnostics() {
    let app = App::new(Registry::from_benchmarks(), 32);
    let handler = app.handler();

    let response = handler(&request("POST", "/v1/query", &[], QUERY));
    assert_eq!(response.status, 200);
    let id = header(&response, "X-Ppl-Trace-Id")
        .expect("every traced response carries its id")
        .to_string();

    let lookup = handler(&request("GET", &format!("/v1/trace/{id}"), &[], ""));
    assert_eq!(
        lookup.status,
        200,
        "{}",
        String::from_utf8_lossy(&lookup.body)
    );
    let doc = body_json(&lookup);
    assert_eq!(
        doc.get("trace_id").and_then(Json::as_str),
        Some(id.as_str())
    );
    assert_eq!(doc.get("route").and_then(Json::as_str), Some("/v1/query"));
    let spans = doc.get("spans_ms").expect("per-phase spans");
    let draw_ms = spans
        .get("infer.draw")
        .and_then(Json::as_f64)
        .expect("the query ran inference");
    assert!(draw_ms > 0.0, "a 2000-particle run takes measurable time");
    assert!(
        spans.get("json.decode").and_then(Json::as_f64).is_some(),
        "decode was timed"
    );
    let engine = doc.get("engine").expect("engine diagnostics");
    assert_eq!(engine.get("num_draws").and_then(Json::as_f64), Some(2000.0));
    assert!(engine
        .get("ess")
        .and_then(Json::as_f64)
        .is_some_and(|e| e.is_finite() && e > 0.0));

    // The listing shows it too, and unknown ids are clean 404s.
    let listing = body_json(&handler(&request("GET", "/v1/trace", &[], "")));
    let traces = match listing.get("traces") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("traces array, got {other:?}"),
    };
    assert!(traces
        .iter()
        .any(|t| t.get("trace_id").and_then(Json::as_str) == Some(id.as_str())));
    let missing = handler(&request("GET", "/v1/trace/t-does-not-exist", &[], ""));
    assert_eq!(missing.status, 404);
    assert!(String::from_utf8_lossy(&missing.body).contains("trace.unknown"));

    // /metrics grew the per-phase section off the same histograms.
    let metrics = body_json(&handler(&request("GET", "/metrics", &[], "")));
    let phases = metrics
        .get("phases_ms")
        .and_then(|p| p.get("/v1/query"))
        .expect("per-route phase stats");
    assert!(phases
        .get("infer.draw")
        .and_then(|p| p.get("count"))
        .and_then(Json::as_f64)
        .is_some_and(|c| c >= 1.0));
    assert!(metrics
        .get("engine_quality")
        .and_then(|q| q.get("min_ess"))
        .and_then(Json::as_f64)
        .is_some_and(f64::is_finite));
}

#[test]
fn concurrent_requests_get_distinct_trace_ids() {
    let app = App::new(Registry::from_benchmarks(), 0); // cache off: every request runs
    let config = ServerConfig {
        workers: 4,
        recorder: Some(std::sync::Arc::clone(&app.obs)),
        ..ServerConfig::default()
    };
    let server = Server::bind_with_config("127.0.0.1:0", config, app.handler()).expect("bind");
    let addr = server.local_addr();

    // Identical request bodies on purpose: the fingerprint halves of the
    // ids collide, so distinctness must come from the epoch counter.
    let ids: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let response = http::http_request(addr, "POST", "/v1/query", Some(QUERY))
                        .expect("request");
                    let (status, headers, _) = response;
                    assert_eq!(status, 200);
                    headers
                        .into_iter()
                        .find(|(k, _)| k == "x-ppl-trace-id")
                        .map(|(_, v)| v)
                        .expect("trace id header")
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let unique: std::collections::HashSet<&String> = ids.iter().collect();
    assert_eq!(
        unique.len(),
        ids.len(),
        "trace ids must be distinct: {ids:?}"
    );

    // Served over real sockets, so the transport phases were timed too.
    // The back-fill runs on the worker *after* the client has already
    // read its response, so poll briefly rather than racing it.
    let write_index = ppl_serve::obs::Phase::HttpWrite.index();
    let mut backfilled = false;
    for _ in 0..200 {
        let ring = app.obs.recent();
        assert!(
            ring.len() >= 8,
            "all requests were retained: {}",
            ring.len()
        );
        backfilled = ring
            .iter()
            .any(|t| t.route == "/v1/query" && t.phase_nanos[write_index] > 0);
        if backfilled {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        backfilled,
        "http.write was back-filled after the response went out"
    );
    server.shutdown();
}

#[test]
fn disabling_the_recorder_removes_ids_and_traces() {
    let app = App::new(Registry::from_benchmarks(), 32);
    app.obs.set_enabled(false);
    let handler = app.handler();
    let response = handler(&request("POST", "/v1/query", &[], QUERY));
    assert_eq!(response.status, 200);
    assert!(header(&response, "X-Ppl-Trace-Id").is_none());
    assert_eq!(app.obs.recorded(), 0);
    // Diagnostics degrade gracefully: the block appears (the request
    // asked for it) but without span timings there is no trace_id field.
    let diag = handler(&request(
        "POST",
        "/v1/query",
        &[("X-Ppl-Trace", "1")],
        QUERY,
    ));
    assert_eq!(header(&diag, "X-Cache"), Some("hit"));
}

#[test]
fn artifact_queries_are_traced_like_cold_ones() {
    let app = App::new(Registry::from_benchmarks(), 32);
    let handler = app.handler();
    let fitted = handler(&request(
        "POST",
        "/v1/fit",
        &[],
        r#"{"model":"weight","observations":[9.0,9.0],"seed":3,
            "fit":{"iterations":10,"samples_per_iteration":4}}"#,
    ));
    assert_eq!(
        fitted.status,
        201,
        "{}",
        String::from_utf8_lossy(&fitted.body)
    );
    let artifact = body_json(&fitted)
        .get("id")
        .and_then(Json::as_str)
        .expect("artifact id")
        .to_string();
    let warm = format!(r#"{{"model":"weight","artifact":"{artifact}","draw_particles":300}}"#);
    let with_diag = warm.replacen('{', r#"{"diagnostics":true,"#, 1);

    // Cold, with diagnostics: the clean body plus a trace block that
    // reports the miss and this run's own engine counts.
    let cold = handler(&request("POST", "/v1/query", &[], &with_diag));
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    assert_eq!(header(&cold, "X-Cache"), Some("miss"));
    let trace = body_json(&cold)
        .get("trace")
        .cloned()
        .expect("an artifact query honours diagnostics");
    assert_eq!(trace.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(
        trace
            .get("engine")
            .and_then(|e| e.get("num_draws"))
            .and_then(Json::as_f64),
        Some(300.0),
        "the engine block counts the draw pass"
    );
    let metrics = body_json(&handler(&request("GET", "/metrics", &[], "")));
    assert!(
        metrics
            .get("engine_quality")
            .and_then(|q| q.get("min_ess"))
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite),
        "the artifact query fed the quality gauge"
    );

    // Repeated: a hit, which ran no engine.
    let hit = handler(&request("POST", "/v1/query", &[], &with_diag));
    assert_eq!(header(&hit, "X-Cache"), Some("hit"));
    let hit_trace = body_json(&hit).get("trace").cloned().expect("trace block");
    assert_eq!(hit_trace.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(hit_trace.get("engine"), Some(&Json::Null));
    let clean = handler(&request("POST", "/v1/query", &[], &warm));
    assert_eq!(
        strip_trace(std::str::from_utf8(&cold.body).unwrap()),
        String::from_utf8(clean.body).unwrap(),
        "the spliced response is the clean cached body plus a trailer"
    );

    // The cold request's recorded trace carries every phase a cold
    // query's does.
    let id = header(&cold, "X-Ppl-Trace-Id").expect("trace id");
    let doc = body_json(&handler(&request(
        "GET",
        &format!("/v1/trace/{id}"),
        &[],
        "",
    )));
    assert_eq!(doc.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(
        doc.get("engine")
            .and_then(|e| e.get("num_draws"))
            .and_then(Json::as_f64),
        Some(300.0)
    );
    let spans = doc.get("spans_ms").expect("per-phase spans");
    for phase in ["cache.lookup", "validate", "infer.draw", "json.encode"] {
        assert!(
            spans.get(phase).and_then(Json::as_f64).is_some(),
            "{phase} was timed: {spans:?}"
        );
    }
}

#[test]
fn every_request_body_parse_is_timed() {
    let app = App::new(Registry::from_benchmarks(), 32);
    let handler = app.handler();
    let submit = r#"{"name":"traced",
        "model_src":"proc Model() : real consume latent provide obs { let mu <- sample recv latent (Normal(0.0, 1.0)); let _ <- sample send obs (Normal(mu, 1.0)); return mu }",
        "guide_src":"proc Guide() provide latent { let mu <- sample send latent (Normal(0.0, 2.0)); return () }"}"#;
    let routes = [
        (
            "/v1/batch",
            r#"{"model":"ex-1","observation_sets":[[0.8]],
                "method":{"algorithm":"importance","particles":200},"seed":5}"#,
            200,
            &["json.decode", "validate", "infer.draw"][..],
        ),
        (
            "/v1/fit",
            r#"{"model":"weight","observations":[9.0,9.0],"seed":3,
                "fit":{"iterations":5,"samples_per_iteration":2}}"#,
            201,
            &["json.decode", "infer.fit"][..],
        ),
        ("/v1/models", submit, 201, &["json.decode", "compile"][..]),
    ];
    for (path, body, status, phases) in routes {
        let response = handler(&request("POST", path, &[], body));
        assert_eq!(
            response.status,
            status,
            "{path}: {}",
            String::from_utf8_lossy(&response.body)
        );
        let id = header(&response, "X-Ppl-Trace-Id").expect("trace id");
        let doc = body_json(&handler(&request(
            "GET",
            &format!("/v1/trace/{id}"),
            &[],
            "",
        )));
        let spans = doc.get("spans_ms").expect("per-phase spans");
        for phase in phases {
            assert!(
                spans.get(phase).and_then(Json::as_f64).is_some(),
                "{path}: {phase} was timed: {spans:?}"
            );
        }
    }
}
