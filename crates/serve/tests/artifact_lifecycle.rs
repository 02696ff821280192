//! Loopback tests for amortized inference (`POST /v1/fit` and
//! artifact-warm `/v1/query`).
//!
//! The acceptance-critical properties:
//!
//! * `/v1/fit` persists a content-addressed artifact and is idempotent —
//!   re-fitting the identical request returns `200 created:false` with
//!   **zero** additional VI fit executions;
//! * a `/v1/query` carrying `"artifact"` returns bytes **identical** to
//!   the fresh fit-then-draw query at the artifact's seed, again with zero
//!   fit executions;
//! * a *restarted* server (new `App` over the same `--store-dir`)
//!   warm-starts its index from disk and serves the same bytes without
//!   refitting;
//! * artifact errors are structured 400s/404s with stable codes
//!   (`artifact.not_found`, `artifact.model_mismatch`), and `/v1/batch`
//!   rejects artifact requests outright.
//!
//! Every fit count is read from the serving app's own execution ledger
//! (`App::vi_fit_executions`) while a neighbour app in the same process
//! runs VI fits throughout the proof.

mod common;

use ppl_serve::http::{ClientConn, ClientResponse};
use ppl_serve::{App, Json, Registry, Server};
use ppl_store::Store;
use std::path::Path;
use std::sync::Arc;

fn boot(dir: &Path) -> (Arc<App>, Server) {
    let registry = Registry::from_benchmarks();
    let store = Arc::new(Store::open(dir, 16).expect("store opens"));
    let app = App::with_store(registry, 64, ppl_inference::DEFAULT_BLOCK, store);
    let server = Server::bind("127.0.0.1:0", 2, app.handler()).expect("bind port 0");
    (app, server)
}

/// Sends one request and returns its response with the VI fit executions
/// `app` scheduled from just before the send until `overlap()` returned.
fn counting_fits(
    app: &App,
    conn: &mut ClientConn,
    path: &str,
    body: &str,
    overlap: &dyn Fn(),
) -> (ClientResponse, u64) {
    let before = app.vi_fit_executions();
    let response = conn.send("POST", path, Some(body)).unwrap();
    overlap();
    (response, app.vi_fit_executions() - before)
}

fn parse(body: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(body).unwrap()).unwrap()
}

fn error_code(body: &[u8]) -> String {
    parse(body)
        .get("error")
        .unwrap()
        .get("code")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

const FIT_BODY: &str = r#"{"model":"weight","observations":[9.0,9.0],"seed":11,
    "fit":{"iterations":30,"samples_per_iteration":4,"learning_rate":0.08}}"#;

#[test]
fn artifacts_amortize_fits_across_queries_and_restarts() {
    let dir = std::env::temp_dir().join(format!("ppl-serve-artifact-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let (app, server) = boot(&dir);
    let mut conn = ClientConn::connect(server.local_addr()).unwrap();
    // The fresh VI query (fit + draw in one request), for the byte oracle.
    let fresh_query = r#"{"model":"weight","observations":[9.0,9.0],"seed":11,
        "method":{"algorithm":"vi","iterations":30,"samples_per_iteration":4,
                  "learning_rate":0.08,"draw_particles":200}}"#;
    let warm_query =
        |id: &str| format!(r#"{{"model":"weight","artifact":"{id}","draw_particles":200}}"#);

    let (fit, refit, fresh, warm) = common::beside_a_neighbour(|overlap| {
        let fit = counting_fits(&app, &mut conn, "/v1/fit", FIT_BODY, overlap);
        let refit = counting_fits(&app, &mut conn, "/v1/fit", FIT_BODY, overlap);
        let fresh = counting_fits(&app, &mut conn, "/v1/query", fresh_query, overlap);
        let ((_, _, fit_body), _) = &fit;
        let id = parse(fit_body)
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let warm = counting_fits(&app, &mut conn, "/v1/query", &warm_query(&id), overlap);
        (fit, refit, fresh, warm)
    });

    // Fit: 201 with a content-addressed id and the fitted parameters,
    // its 30 × 4 mini-batch executions recorded in this app's ledger.
    let ((status, _, response), fits) = fit;
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&response));
    let parsed = parse(&response);
    let id = parsed.get("id").unwrap().as_str().unwrap().to_string();
    assert!(id.starts_with("a-") && id.len() == 18, "{id}");
    assert_eq!(parsed.get("created").unwrap().as_bool(), Some(true));
    assert_eq!(parsed.get("model").unwrap().as_str(), Some("weight"));
    assert_eq!(parsed.get("fit_iterations").unwrap().as_f64(), Some(30.0));
    assert_eq!(fits, 120, "the first fit runs every mini-batch");

    // Idempotent re-fit: 200, same id, zero additional fit executions.
    let ((status, _, response), fits) = refit;
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&response));
    let parsed = parse(&response);
    assert_eq!(parsed.get("id").unwrap().as_str(), Some(id.as_str()));
    assert_eq!(parsed.get("created").unwrap().as_bool(), Some(false));
    assert_eq!(
        fits, 0,
        "re-fitting an identical request must reuse the stored artifact"
    );

    let ((status, _, fresh), fits) = fresh;
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&fresh));
    assert_eq!(fits, 120, "the fresh VI query fits from scratch");

    // Warm query by artifact id: byte-identical, zero fit executions.
    let warm_query = warm_query(&id);
    let ((status, headers, warm), fits) = warm;
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&warm));
    assert_eq!(fits, 0, "artifact query must run zero VI fit executions");
    assert_eq!(
        String::from_utf8(warm.clone()).unwrap(),
        String::from_utf8(fresh.clone()).unwrap(),
        "warm artifact query must be byte-identical to the fresh fit"
    );
    assert!(headers.iter().any(|(k, v)| k == "x-cache" && v == "miss"));

    // Repeating it hits the response cache.
    let (status, headers, cached) = conn.send("POST", "/v1/query", Some(&warm_query)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(cached, warm);
    assert!(headers.iter().any(|(k, v)| k == "x-cache" && v == "hit"));

    // Lifecycle: listing and GET see the artifact; /v1/models counts it.
    let (status, _, response) = conn.send("GET", "/v1/artifacts", None).unwrap();
    assert_eq!(status, 200);
    let parsed = parse(&response);
    assert_eq!(parsed.get("count").unwrap().as_f64(), Some(1.0));
    let (status, _, response) = conn
        .send("GET", &format!("/v1/artifacts/{id}"), None)
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        parse(&response).get("id").unwrap().as_str(),
        Some(id.as_str())
    );
    let (status, _, response) = conn.send("GET", "/v1/models", None).unwrap();
    assert_eq!(status, 200);
    let models = parse(&response);
    let weight = models
        .get("models")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|m| m.get("id").and_then(Json::as_str) == Some("weight"))
        .expect("weight listed");
    assert_eq!(weight.get("artifacts").unwrap().as_f64(), Some(1.0));
    assert!(weight.get("fits").unwrap().as_f64().unwrap() >= 2.0);

    // Metrics expose the store gauges.
    let (status, _, response) = conn.send("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let metrics = parse(&response);
    let store_section = metrics.get("store").expect("store section");
    assert_eq!(store_section.get("artifacts").unwrap().as_f64(), Some(1.0));
    assert!(store_section.get("bytes").unwrap().as_f64().unwrap() > 0.0);
    assert!(store_section.get("warm_starts").unwrap().as_f64().unwrap() >= 1.0);

    // Error cases: unknown artifact, wrong model, batch rejection.
    let (status, _, response) = conn
        .send(
            "POST",
            "/v1/query",
            Some(r#"{"model":"weight","artifact":"a-0000000000000000"}"#),
        )
        .unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_code(&response), "artifact.not_found");
    let mismatch = format!(r#"{{"model":"ex-1","artifact":"{id}"}}"#);
    let (status, _, response) = conn.send("POST", "/v1/query", Some(&mismatch)).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_code(&response), "artifact.model_mismatch");
    let conflicting = format!(r#"{{"model":"weight","artifact":"{id}","seed":7}}"#);
    let (status, _, response) = conn.send("POST", "/v1/query", Some(&conflicting)).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_code(&response), "request.schema");
    let batch = format!(r#"{{"model":"weight","items":[{{"artifact":"{id}"}}]}}"#);
    let (status, _, response) = conn.send("POST", "/v1/batch", Some(&batch)).unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&response));
    let (status, _, response) = conn
        .send("GET", "/v1/artifacts/a-ffffffffffffffff", None)
        .unwrap();
    assert_eq!(status, 404);
    assert_eq!(error_code(&response), "artifact.not_found");

    // Close the keep-alive connection first, or `shutdown` waits out the
    // worker's read timeout.
    drop(conn);
    server.shutdown();
    drop(app);

    // Restart: a fresh App over the same directory warm-starts its index
    // and serves the same bytes with zero refits.
    let (app2, server2) = boot(&dir);
    let mut conn = ClientConn::connect(server2.local_addr()).unwrap();
    let ((status, _, warm2), fits) = common::beside_a_neighbour(|overlap| {
        counting_fits(&app2, &mut conn, "/v1/query", &warm_query, overlap)
    });
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&warm2));
    assert_eq!(
        fits, 0,
        "restarted server must serve artifact queries without refitting"
    );
    assert_eq!(
        String::from_utf8(warm2).unwrap(),
        String::from_utf8(fresh).unwrap(),
        "restart must not change a single byte of the warm response"
    );

    // Deletion works exactly once; the artifact is then gone.
    let (status, _, _) = conn
        .send("DELETE", &format!("/v1/artifacts/{id}"), None)
        .unwrap();
    assert_eq!(status, 200);
    let (status, _, response) = conn
        .send("DELETE", &format!("/v1/artifacts/{id}"), None)
        .unwrap();
    assert_eq!(status, 404);
    assert_eq!(error_code(&response), "artifact.not_found");

    drop(conn);
    server2.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
