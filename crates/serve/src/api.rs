//! The HTTP API: routes, the wire protocol, and the exact result cache.
//!
//! Every request is validated against the model's **inferred observation
//! protocol** (the query layer's `validate_observations`) before a single
//! particle runs, so malformed inputs become structured `400` bodies with
//! the stable machine-readable codes of `QueryError::code` /
//! `ObsViolation::code` — never worker crashes, never a `500`.
//!
//! Routes:
//!
//! * `GET /healthz` — liveness plus the number of servable models;
//! * `GET /metrics` — request counts per route, log₂ handler-latency
//!   histograms (overall, per route, per phase), the cache hit rate, and
//!   the artifact store's figures;
//! * `GET /v1/models` — the registry listing with each model's rendered
//!   latent and observation protocols;
//! * `POST /v1/query` — run one inference request (see below); with an
//!   `"artifact"` field, draw from a fitted guide without refitting;
//! * `POST /v1/batch` — run one method over many observation sets;
//! * `POST /v1/fit` — run a VI fit and persist it as an artifact
//!   ([`crate::fit`]);
//! * `GET/DELETE /v1/artifacts[/{id}]` — the artifact lifecycle.
//!
//! # The query wire format
//!
//! ```json
//! {
//!   "model": "ex-1",
//!   "observations": [0.8, true, {"nat": 3}],
//!   "method": {"algorithm": "importance", "particles": 2000},
//!   "seed": 7,
//!   "threads": 1,
//!   "block": 64,
//!   "guide_args": [7.4, 0.6],
//!   "sample_index": 0
//! }
//! ```
//!
//! Observations are `true`/`false` (bool carrier), bare numbers (real
//! carriers), or `{"nat": n}` (nat carriers — JSON numbers alone cannot
//! distinguish `nat` from `real`).  Methods are
//! `{"algorithm": "importance", "particles": N}`,
//! `{"algorithm": "mh", "iterations": N, "burn_in": N}`, or
//! `{"algorithm": "vi", ...}` whose fields (`iterations`,
//! `samples_per_iteration`, `learning_rate`, `fd_epsilon`, `params`,
//! `draw_particles`) all default sensibly — `params` to the registry's
//! initial variational parameters.
//!
//! A query naming an `"artifact"` decodes into the same request: the
//! stored fit's seed, observations, model arguments and VI method fill the
//! fields it pins.  It takes the cold query's path through the cache,
//! spans, execution record and trace, replaying the stored draw pass where
//! a cold query runs its method.
//!
//! # Determinism and the cache
//!
//! A response is a pure function of the request fingerprint (model,
//! exact observation bits, method configuration, seed, statistic): all
//! randomness comes from the request's seed, and thread counts and block
//! sizes are excluded from the fingerprint because the engine's results
//! are bit-identical for every thread count and every vectorised block
//! size.  The LRU cache therefore returns
//! **byte-identical** responses on warm hits while running zero particles
//! (`X-Cache: hit`).

use crate::cache::ResponseCache;
use crate::http::{Handler, Request, Response};
use crate::json::{Json, JsonError};
use crate::metrics::Metrics;
use crate::registry::{param_spec, ModelEntry, Registry};
use guide_ppl::query::VI_POSTERIOR_PARTICLES;
use guide_ppl::runtime::{CancelToken, RuntimeError};
use guide_ppl::{
    artifact_obs_to_sample, Method, Posterior, PosteriorResult, Query, QueryError, SessionError,
};
use ppl_dist::Sample;
use ppl_inference::{ParamSpec, PosteriorSummary, ViConfig};
use ppl_semantics::value::Value;
use ppl_store::{Artifact, Store, ARTIFACT_FORMAT_VERSION};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Completed request traces retained by the flight recorder's ring
/// buffer (served by `GET /v1/trace`); the oldest is evicted first.
pub const TRACE_RING_CAPACITY: usize = 64;

/// Per-endpoint overload limits and deadline defaults.
///
/// Concurrency caps bound the number of requests *running inference* at
/// once, per endpoint class — fits cost far more than queries, so they
/// get a much smaller cap.  Request number `cap + 1` is shed with a
/// `429 server.overloaded` + `Retry-After` before any particle runs.
/// These caps sit *behind* the transport-level admission queue
/// ([`crate::http::ServerConfig::queue_capacity`]): the queue bounds
/// accepted connections, the caps bound expensive work per endpoint.
#[derive(Debug, Clone)]
pub struct AppLimits {
    /// Deadline applied to requests that don't send `"deadline_ms"`;
    /// `None` means no default deadline (the library default, so embedded
    /// uses are unaffected; the `ppl-serve` binary sets 30 000 ms).
    pub default_deadline_ms: Option<u64>,
    /// Maximum concurrently *running* `/v1/query` + `/v1/batch` requests.
    pub query_concurrency: usize,
    /// Maximum concurrently running `/v1/fit` requests.
    pub fit_concurrency: usize,
    /// The `Retry-After` value (whole seconds) on cap-shed responses.
    pub retry_after_secs: u64,
}

impl Default for AppLimits {
    fn default() -> Self {
        AppLimits {
            default_deadline_ms: None,
            query_concurrency: 32,
            fit_concurrency: 4,
            retry_after_secs: 1,
        }
    }
}

/// The served application: registry, cache, metrics, and artifact store.
#[derive(Debug)]
pub struct App {
    /// The compiled-session registry.
    pub registry: Registry,
    /// The exact response cache.
    pub cache: ResponseCache,
    /// Request metrics.
    pub metrics: Metrics,
    /// The fitted-guide artifact store (`--store-dir`; in-memory when the
    /// flag is absent).
    pub store: Arc<Store>,
    /// Block size used by the vectorised particle executor when a request
    /// does not set its own `"block"` field (the `--block` flag).  Purely
    /// a performance knob: results are bit-identical at every block size,
    /// so it is excluded from cache fingerprints.
    pub default_block: usize,
    /// Overload limits and deadline defaults.
    pub limits: AppLimits,
    /// The flight recorder: per-(route, phase) span histograms, the
    /// `GET /v1/trace` ring of completed request traces, and the
    /// engine-quality gauges.  Shared with the transport layer (via
    /// [`crate::http::ServerConfig::recorder`]) so socket read/write
    /// phases land in the same traces.
    pub obs: Arc<ppl_obs::Recorder>,
    /// The server-wide drain token: every request token derives from it,
    /// so [`App::begin_drain`] cancels all in-flight inference at once and
    /// every run records into its ledger.
    drain: CancelToken,
    /// `/v1/query` + `/v1/batch` requests currently running inference.
    pub(crate) inflight_query: AtomicUsize,
    /// `/v1/fit` requests currently running inference.
    pub(crate) inflight_fit: AtomicUsize,
}

impl App {
    /// Creates an app over a registry with the given cache capacity, the
    /// default vectorised-execution block size, an in-memory artifact
    /// store and the default limits.
    pub fn new(registry: Registry, cache_capacity: usize) -> Arc<App> {
        App::with_limits(
            registry,
            cache_capacity,
            ppl_inference::DEFAULT_BLOCK,
            Arc::new(Store::in_memory(ppl_store::DEFAULT_STORE_CAPACITY)),
            AppLimits::default(),
        )
    }

    /// The full constructor: an explicit default block size (clamped to
    /// ≥ 1), artifact store (`ppl-serve` opens it on `--store-dir`, so a
    /// restart warm-starts the artifact index from disk), and overload
    /// limits / deadline defaults.
    pub fn with_limits(
        registry: Registry,
        cache_capacity: usize,
        block: usize,
        store: Arc<Store>,
        limits: AppLimits,
    ) -> Arc<App> {
        Arc::new(App {
            registry,
            cache: ResponseCache::new(cache_capacity),
            metrics: Metrics::new(),
            store,
            default_block: block.max(1),
            limits,
            obs: Arc::new(ppl_obs::Recorder::new(
                &crate::metrics::ROUTES,
                TRACE_RING_CAPACITY,
            )),
            drain: CancelToken::new(),
            inflight_query: AtomicUsize::new(0),
            inflight_fit: AtomicUsize::new(0),
        })
    }

    /// Raises the server-wide drain token: every in-flight request's
    /// cancel token fires at its next poll (one particle block at most),
    /// and new work is rejected with `503 server.draining`.  Irreversible
    /// for this app instance — drain precedes shutdown.
    pub fn begin_drain(&self) {
        self.drain.cancel();
    }

    /// Whether [`App::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.drain.is_cancelled()
    }

    /// Joint executions scheduled for this app's requests (its drain token's ledger).
    pub fn joint_executions(&self) -> u64 {
        self.drain.joint_executions()
    }

    /// VI fit executions scheduled for this app's requests.
    pub fn vi_fit_executions(&self) -> u64 {
        self.drain.vi_fit_executions()
    }

    /// Builds the cancel token for one request: the server drain flag plus
    /// the request's effective deadline (`deadline_ms`, falling back to
    /// [`AppLimits::default_deadline_ms`]).
    fn request_token(&self, deadline_ms: Option<u64>) -> CancelToken {
        match deadline_ms.or(self.limits.default_deadline_ms) {
            Some(ms) => self.drain.deadline_in(Duration::from_millis(ms)),
            None => self.drain.clone(),
        }
    }

    /// The HTTP handler for [`crate::http::Server::bind`]: routes the
    /// request and records metrics.  Handler panics are caught here —
    /// counted in `/metrics` (`server.panics_total`) and answered with the
    /// structured `500 server.panic` body — so one poisoned request
    /// neither kills a worker nor goes missing from the metrics.
    pub fn handler(self: &Arc<App>) -> Handler {
        let app = Arc::clone(self);
        Arc::new(move |req: &Request| {
            let start = Instant::now();
            // The trace id is a pure function of the request bytes plus a
            // process epoch counter — deterministic, RNG-free, distinct
            // under concurrency.
            app.obs.begin(ppl_obs::trace::request_hash(&[
                req.method.as_bytes(),
                req.path.as_bytes(),
                &req.body,
            ]));
            // Fold in the socket-read time the transport stashed before
            // this trace existed (always drain the slot, even untraced,
            // so a stale value cannot leak into a later request).
            let read_nanos = ppl_obs::trace::take_pending_read_nanos();
            if read_nanos > 0 {
                ppl_obs::trace::record_phase_nanos(ppl_obs::Phase::HttpRead, read_nanos);
            }
            let mut response =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&app, req))) {
                    Ok(response) => response,
                    Err(_) => {
                        app.metrics.record_panic();
                        ApiError::new(500, "server.panic", "internal handler panic").to_response()
                    }
                };
            let route = crate::metrics::normalize_route(&req.path);
            app.metrics.record(route, &req.path, response.status);
            let total_nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            if let Some(id) = app.obs.finish(route, response.status, total_nanos) {
                response = response.with_header("X-Ppl-Trace-Id", &id);
            }
            response
        })
    }
}

/// RAII in-flight slot on one of the per-endpoint concurrency gauges;
/// dropping it releases the slot.
pub(crate) struct InflightGuard<'a> {
    gauge: &'a AtomicUsize,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claims an in-flight slot under `cap`, or sheds with a
/// `429 server.overloaded` (+`Retry-After`) counted in the metrics.
pub(crate) fn acquire_slot<'a>(
    app: &'a App,
    gauge: &'a AtomicUsize,
    cap: usize,
    endpoint: &str,
) -> Result<InflightGuard<'a>, ApiError> {
    // fetch_add-then-check keeps the claim atomic under races; the guard
    // (or the shed path) always undoes the increment.
    if gauge.fetch_add(1, Ordering::SeqCst) >= cap.max(1) {
        gauge.fetch_sub(1, Ordering::SeqCst);
        app.metrics.record_cap_shed();
        return Err(ApiError::new(
            429,
            "server.overloaded",
            format!("too many concurrent {endpoint} requests; retry shortly"),
        )
        .retry_after(app.limits.retry_after_secs));
    }
    Ok(InflightGuard { gauge })
}

/// The `503 server.draining` rejection: retryable (the client should hit
/// another replica) and connection-closing.
fn draining_error(app: &App) -> ApiError {
    ApiError::new(
        503,
        "server.draining",
        "the server is draining and no longer accepts work",
    )
    .retry_after(app.limits.retry_after_secs)
    .close_connection()
}

/// A structured API error: HTTP status plus the machine-readable body.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status code (4xx for request errors, 5xx for server faults).
    pub status: u16,
    /// Stable machine-readable code (e.g. `obs.carrier`).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Extra structured fields merged into the error object (offending
    /// position, byte offset, batch index, …).
    pub details: Vec<(String, Json)>,
    /// When set, a `Retry-After: <secs>` header is attached — the error is
    /// transient overload and the client should retry (429/503).
    pub retry_after_secs: Option<u64>,
    /// When set, a `Connection: close` header is attached so the transport
    /// closes the connection after this response (drain path).
    pub close: bool,
}

impl ApiError {
    pub(crate) fn new(status: u16, code: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code: code.to_string(),
            message: message.into(),
            details: Vec::new(),
            retry_after_secs: None,
            close: false,
        }
    }

    pub(crate) fn with(mut self, key: &str, value: Json) -> ApiError {
        self.details.push((key.to_string(), value));
        self
    }

    /// Marks the error as retryable overload: the response carries
    /// `Retry-After: <secs>`.
    pub(crate) fn retry_after(mut self, secs: u64) -> ApiError {
        self.retry_after_secs = Some(secs);
        self
    }

    /// Marks the response connection-closing (`Connection: close`).
    pub(crate) fn close_connection(mut self) -> ApiError {
        self.close = true;
        self
    }

    /// Renders the error as its HTTP response body:
    /// `{"error": {"code": ..., "message": ..., ...details}}`.
    pub fn to_response(&self) -> Response {
        let mut fields = vec![
            ("code".to_string(), Json::str(self.code.clone())),
            ("message".to_string(), Json::str(self.message.clone())),
        ];
        fields.extend(self.details.iter().cloned());
        let body = Json::Obj(vec![("error".into(), Json::Obj(fields))]);
        let mut response = Response::json(
            self.status,
            body.write()
                .expect("error bodies contain no non-finite numbers"),
        );
        if let Some(secs) = self.retry_after_secs {
            response = response.with_header("Retry-After", &secs.to_string());
        }
        if self.close {
            response = response.with_header("Connection", "close");
        }
        response
    }
}

fn bad_json(err: JsonError) -> ApiError {
    ApiError::new(400, "request.json", err.to_string()).with("offset", Json::Num(err.offset as f64))
}

pub(crate) fn bad_schema(message: impl Into<String>) -> ApiError {
    ApiError::new(400, "request.schema", message)
}

pub(crate) fn from_session_error(err: SessionError) -> ApiError {
    match err {
        SessionError::Query(q) => {
            let mut api = ApiError::new(400, q.code(), q.to_string());
            if let QueryError::Observations { violation, .. } = &q {
                api = api.with("position", Json::Num(violation.position() as f64));
            }
            api
        }
        // Pipeline rejections (parse, guide-type, model–guide
        // compatibility) are the client's fault: a structured 400 with the
        // stable code and, when known, the offending source position.
        e
        @ (SessionError::Parse(_) | SessionError::Type(_) | SessionError::Incompatible { .. }) => {
            let mut api = ApiError::new(400, e.code(), e.to_string());
            if let Some((line, col)) = e.position() {
                api = api
                    .with("line", Json::Num(line as f64))
                    .with("col", Json::Num(col as f64));
            }
            api
        }
        // Deadline expiry is the *client's* budget running out: a 408 with
        // the stable code, answered within one particle-block step of the
        // deadline.  Nothing was cached (serve_one caches only on Ok).
        SessionError::Runtime(RuntimeError::DeadlineExceeded) => ApiError::new(
            408,
            "query.deadline_exceeded",
            "the request deadline passed before inference finished",
        ),
        // A cancelled (not deadline-expired) token means the server began
        // draining mid-request: retryable against another replica.
        SessionError::Runtime(RuntimeError::Cancelled) => ApiError::new(
            503,
            "server.draining",
            "the server is draining and cancelled this request",
        )
        .retry_after(1)
        .close_connection(),
        other => ApiError::new(500, other.code(), other.to_string()),
    }
}

fn route(app: &Arc<App>, req: &Request) -> Response {
    // While draining, reject all mutating / inference work up front with a
    // retryable 503 (connection-closing); health and metrics stay readable
    // so orchestrators can watch the drain complete.
    if app.is_draining() && req.method == "POST" {
        return draining_error(app).to_response();
    }
    // Fault-injection routes, compiled only under the `faults` feature —
    // deliberate failures for the robustness harness, never in release
    // builds.
    #[cfg(feature = "faults")]
    if req.method == "POST" {
        match req.path.as_str() {
            // Exercises the catch_unwind backstop in `handler`.
            "/v1/_faults/panic" => panic!("injected handler panic"),
            // Stalls every vectorised op of this app's runs by `micros`,
            // forcing deadline expiry mid-block.
            "/v1/_faults/stall" => {
                let micros = parse_body(req)
                    .ok()
                    .and_then(|doc| doc.get("micros").and_then(Json::as_u64))
                    .unwrap_or(0);
                app.drain.set_op_stall_micros(micros);
                return Response::json(200, "{\"ok\":true}".to_string());
            }
            _ => {}
        }
    }
    if let Some(id) = req.path.strip_prefix("/v1/models/") {
        return match req.method.as_str() {
            "GET" => crate::ingest::get_model(app, id).unwrap_or_else(|e| e.to_response()),
            "DELETE" => crate::ingest::delete_model(app, id).unwrap_or_else(|e| e.to_response()),
            _ => method_not_allowed(),
        };
    }
    if let Some(id) = req.path.strip_prefix("/v1/artifacts/") {
        return match req.method.as_str() {
            "GET" => crate::fit::get_artifact(app, id).unwrap_or_else(|e| e.to_response()),
            "DELETE" => crate::fit::delete_artifact(app, id).unwrap_or_else(|e| e.to_response()),
            _ => method_not_allowed(),
        };
    }
    if let Some(id) = req.path.strip_prefix("/v1/trace/") {
        return match req.method.as_str() {
            "GET" => crate::trace_api::get_trace(app, id).unwrap_or_else(|e| e.to_response()),
            _ => method_not_allowed(),
        };
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(app),
        ("GET", "/metrics") => metrics(app),
        ("GET", "/v1/models") => models(app),
        ("POST", "/v1/models") => {
            crate::ingest::submit(app, req).unwrap_or_else(|e| e.to_response())
        }
        ("POST", "/v1/query") => query(app, req).unwrap_or_else(|e| e.to_response()),
        ("POST", "/v1/batch") => batch(app, req).unwrap_or_else(|e| e.to_response()),
        ("POST", "/v1/fit") => crate::fit::fit(app, req).unwrap_or_else(|e| e.to_response()),
        ("GET", "/v1/artifacts") => crate::fit::list_artifacts(app),
        ("GET", "/v1/trace") => crate::trace_api::list_traces(app),
        (
            _,
            "/healthz" | "/metrics" | "/v1/models" | "/v1/query" | "/v1/batch" | "/v1/fit"
            | "/v1/artifacts" | "/v1/trace",
        ) => method_not_allowed(),
        _ => ApiError::new(404, "route.unknown", format!("no route '{}'", req.path)).to_response(),
    }
}

fn method_not_allowed() -> Response {
    ApiError::new(
        405,
        "method.not_allowed",
        "wrong HTTP method for this route",
    )
    .to_response()
}

fn healthz(app: &App) -> Response {
    let body = Json::Obj(vec![
        ("status".into(), Json::str("ok")),
        ("models".into(), Json::Num(app.registry.len() as f64)),
    ]);
    Response::json(200, body.write().expect("finite"))
}

fn metrics(app: &App) -> Response {
    let mut body = app.metrics.render(
        &app.obs,
        app.cache.hits(),
        app.cache.misses(),
        app.cache.len(),
    );
    if let Json::Obj(fields) = &mut body {
        let per_model = app
            .registry
            .entries()
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("id".into(), Json::str(e.id.clone())),
                    ("origin".into(), Json::str(e.origin.as_str())),
                    ("submissions".into(), Json::Num(e.submission_count() as f64)),
                    ("queries".into(), Json::Num(e.query_count() as f64)),
                    ("fits".into(), Json::Num(e.fit_count() as f64)),
                    (
                        "particles_per_sec".into(),
                        match e.executions_per_sec() {
                            Some(rate) => Json::num_or_null(rate),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        fields.push((
            "execution".into(),
            Json::Obj(vec![("block".into(), Json::Num(app.default_block as f64))]),
        ));
        fields.push((
            "registry".into(),
            Json::Obj(vec![
                (
                    "builtin".into(),
                    Json::Num(app.registry.builtin_len() as f64),
                ),
                ("user".into(), Json::Num(app.registry.user_len() as f64)),
                (
                    "user_capacity".into(),
                    Json::Num(app.registry.user_capacity() as f64),
                ),
                (
                    "evictions".into(),
                    Json::Num(app.registry.evictions() as f64),
                ),
                ("per_model".into(), Json::Arr(per_model)),
            ]),
        ));
        fields.push((
            "store".into(),
            Json::Obj(vec![
                ("artifacts".into(), Json::Num(app.store.len() as f64)),
                ("bytes".into(), Json::Num(app.store.bytes() as f64)),
                (
                    "warm_starts".into(),
                    Json::Num(app.store.warm_starts() as f64),
                ),
                ("evictions".into(), Json::Num(app.store.evictions() as f64)),
                (
                    "skipped_at_boot".into(),
                    Json::Num(app.store.skipped_at_boot() as f64),
                ),
            ]),
        ));
        fields.push((
            "server".into(),
            Json::Obj(vec![
                (
                    "panics_total".into(),
                    Json::Num(app.metrics.panics() as f64),
                ),
                (
                    "queue_sheds_total".into(),
                    Json::Num(app.metrics.queue_sheds() as f64),
                ),
                (
                    "cap_sheds_total".into(),
                    Json::Num(app.metrics.cap_sheds() as f64),
                ),
                (
                    "inflight_query".into(),
                    Json::Num(app.inflight_query.load(Ordering::SeqCst) as f64),
                ),
                (
                    "inflight_fit".into(),
                    Json::Num(app.inflight_fit.load(Ordering::SeqCst) as f64),
                ),
                ("draining".into(), Json::Bool(app.is_draining())),
            ]),
        ));
        fields.push((
            "limits".into(),
            Json::Obj(vec![
                (
                    "read_timeout_ms".into(),
                    Json::Num(crate::http::READ_TIMEOUT.as_millis() as f64),
                ),
                (
                    "write_timeout_ms".into(),
                    Json::Num(crate::http::WRITE_TIMEOUT.as_millis() as f64),
                ),
                (
                    "max_body_bytes".into(),
                    Json::Num(crate::http::MAX_BODY_BYTES as f64),
                ),
                (
                    "default_deadline_ms".into(),
                    match app.limits.default_deadline_ms {
                        Some(ms) => Json::Num(ms as f64),
                        None => Json::Null,
                    },
                ),
                (
                    "query_concurrency".into(),
                    Json::Num(app.limits.query_concurrency as f64),
                ),
                (
                    "fit_concurrency".into(),
                    Json::Num(app.limits.fit_concurrency as f64),
                ),
            ]),
        ));
        let gauge = |value: Option<f64>| match value {
            Some(v) => Json::num_or_null(v),
            None => Json::Null,
        };
        fields.push((
            "engine_quality".into(),
            Json::Obj(vec![
                ("min_ess".into(), gauge(app.obs.min_ess())),
                (
                    "worst_acceptance_rate".into(),
                    gauge(app.obs.worst_acceptance()),
                ),
            ]),
        ));
        fields.push((
            "trace".into(),
            Json::Obj(vec![
                ("enabled".into(), Json::Bool(app.obs.enabled())),
                (
                    "ring_capacity".into(),
                    Json::Num(app.obs.ring_capacity() as f64),
                ),
                ("recorded".into(), Json::Num(app.obs.recorded() as f64)),
            ]),
        ));
    }
    Response::json(200, body.write().expect("finite"))
}

/// The wire representation of one registry entry (used by the listing,
/// `GET /v1/models/{id}`, and the `POST /v1/models` response).
/// `artifacts` is the model's current artifact count in the store.
pub(crate) fn model_json(e: &ModelEntry, artifacts: u64) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::str(e.id.clone())),
        ("name".into(), Json::str(e.name.clone())),
        ("origin".into(), Json::str(e.origin.as_str())),
        ("description".into(), Json::str(e.description.clone())),
        ("default_method".into(), Json::str(e.default_method)),
        (
            "latent_protocol".into(),
            Json::str(e.latent_protocol.clone()),
        ),
        (
            "observation_protocol".into(),
            match &e.observation_protocol {
                Some(p) => Json::str(p.clone()),
                None => Json::Null,
            },
        ),
        (
            "default_observation_count".into(),
            Json::Num(e.default_observation_count as f64),
        ),
        (
            "max_request_executions".into(),
            Json::Num(e.max_request_executions as f64),
        ),
        ("submissions".into(), Json::Num(e.submission_count() as f64)),
        ("queries".into(), Json::Num(e.query_count() as f64)),
        ("fits".into(), Json::Num(e.fit_count() as f64)),
        ("artifacts".into(), Json::Num(artifacts as f64)),
        (
            "guide_params".into(),
            Json::Arr(
                e.guide_param_defaults
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(p.name.clone())),
                            ("init".into(), Json::num_or_null(p.init)),
                            ("positive".into(), Json::Bool(p.positive)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn models(app: &App) -> Response {
    let entries = app
        .registry
        .entries()
        .iter()
        .map(|e| model_json(e, app.store.count_for_model(&e.id)))
        .collect();
    let body = Json::Obj(vec![
        ("models".into(), Json::Arr(entries)),
        (
            "builtin".into(),
            Json::Num(app.registry.builtin_len() as f64),
        ),
        ("user".into(), Json::Num(app.registry.user_len() as f64)),
        (
            "user_capacity".into(),
            Json::Num(app.registry.user_capacity() as f64),
        ),
        (
            "evictions".into(),
            Json::Num(app.registry.evictions() as f64),
        ),
    ]);
    Response::json(200, body.write().expect("finite"))
}

/// Upper bound on the joint executions one request may schedule
/// (particles, MH iterations, or VI mini-batch samples plus draw pass).
/// Larger requests are rejected with `request.limit` so a single request
/// cannot pin a worker thread for hours.
pub const MAX_REQUEST_EXECUTIONS: u64 = 1_000_000;

/// Upper bound on observation sets in one `/v1/batch` request.
pub const MAX_BATCH_ITEMS: usize = 256;

/// The request fields `/v1/query`, `/v1/batch` and `/v1/fit` share, all
/// decoded by [`decode_fields`].
#[derive(Clone)]
pub(crate) struct Fields {
    pub(crate) observations: Vec<Sample>,
    pub(crate) seed: u64,
    pub(crate) model_args: Vec<f64>,
    threads: usize,
    block: usize,
    /// The request's cancel token (drain flag + effective deadline).
    /// Cloned batch items share the whole-batch deadline.  Excluded from
    /// the cache fingerprint and the artifact id: a deadline never changes
    /// a successful result, only whether one is produced.
    cancel: CancelToken,
}

/// A decoded `/v1/query` request (one item of a `/v1/batch` too).
#[derive(Clone)]
struct QueryRequest {
    fields: Fields,
    method: Method,
    guide_args: Vec<f64>,
    sample_index: usize,
    /// The stored fit an artifact-warm query draws from.  Its seed,
    /// observations, model arguments and `Method::Vi` fill the fields
    /// above, and [`serve_one`] replays its draw pass instead of fitting.
    artifact: Option<Arc<Artifact>>,
}

impl QueryRequest {
    /// Joint executions the request schedules (the work bound enforced by
    /// [`MAX_REQUEST_EXECUTIONS`]): an artifact-warm query only draws.
    fn executions(&self) -> u64 {
        match &self.method {
            Method::Importance { particles } => *particles as u64,
            Method::Mh { iterations, .. } => *iterations as u64,
            Method::Vi {
                config,
                draw_particles,
                ..
            } => {
                let draws = draw_particles.unwrap_or(VI_POSTERIOR_PARTICLES) as u64;
                match self.artifact {
                    Some(_) => draws,
                    None => fit_executions(config).saturating_add(draws),
                }
            }
        }
    }
}

fn query(app: &Arc<App>, req: &Request) -> Result<Response, ApiError> {
    let _slot = acquire_slot(
        app,
        &app.inflight_query,
        app.limits.query_concurrency,
        "query",
    )?;
    let doc = parse_body(req)?;
    // `"diagnostics": true` (or `X-Ppl-Trace: 1`) asks for the trace
    // block.  Neither touches the cache fingerprint, and the block is
    // spliced into the response *after* the clean body was cached, so a
    // warm hit stays byte-identical no matter how the cold run was asked.
    let want_trace = req.header("X-Ppl-Trace").map(str::trim) == Some("1")
        || doc
            .get("diagnostics")
            .and_then(Json::as_bool)
            .unwrap_or(false);
    let entry = lookup_model(app, &doc)?;
    let request = decode_request(app, &doc, &entry)?;
    let (body, hit, engine) = serve_one(app, &entry, &request, None)?;
    let mut text = body.to_string();
    if want_trace {
        splice_trace(&mut text, hit, engine);
    }
    Ok(Response::json(200, text).with_header("X-Cache", if hit { "hit" } else { "miss" }))
}

/// Splices the per-request `"trace"` block (trace id, per-phase span
/// timings so far, engine diagnostics for cold runs) into a response
/// body — strictly *after* the clean body was cached, so diagnostics can
/// never leak into cached bytes.
fn splice_trace(body: &mut String, hit: bool, engine: Option<Json>) {
    if !body.ends_with('}') {
        return;
    }
    let mut fields = vec![
        (
            "trace_id".to_string(),
            match ppl_obs::trace::current_trace_id() {
                Some(id) => Json::str(id),
                None => Json::Null,
            },
        ),
        (
            "cache".to_string(),
            Json::str(if hit { "hit" } else { "miss" }),
        ),
    ];
    if let Some(spans) = ppl_obs::trace::span_snapshot() {
        fields.push(("spans_ms".to_string(), crate::trace_api::spans_ms(&spans)));
    }
    fields.push(("engine".to_string(), engine.unwrap_or(Json::Null)));
    body.pop();
    body.push_str(",\"trace\":");
    body.push_str(
        &Json::Obj(fields)
            .write()
            .expect("trace blocks map non-finite figures to null"),
    );
    body.push('}');
}

/// Renders a [`ppl_inference::Diagnostics`] as the `"engine"` object of
/// a trace block.
fn engine_json(diag: &ppl_inference::Diagnostics) -> Json {
    let opt = |value: Option<f64>| match value {
        Some(v) => Json::num_or_null(v),
        None => Json::Null,
    };
    let count = |value: u64| Json::Num(value as f64);
    Json::Obj(vec![
        ("method".into(), Json::str(diag.method)),
        ("num_draws".into(), Json::Num(diag.num_draws as f64)),
        ("ess".into(), Json::num_or_null(diag.ess)),
        ("log_evidence".into(), opt(diag.log_evidence)),
        ("acceptance_rate".into(), opt(diag.acceptance_rate)),
        ("final_elbo".into(), opt(diag.final_elbo)),
        (
            "elbo_tail".into(),
            Json::Arr(
                diag.elbo_tail
                    .iter()
                    .map(|&v| Json::num_or_null(v))
                    .collect(),
            ),
        ),
        ("lane_splits".into(), count(diag.lane_splits)),
        ("lane_reconverges".into(), count(diag.lane_reconverges)),
        ("cancel_checks".into(), count(diag.cancel_checks)),
        ("scalar_lanes".into(), count(diag.scalar_lanes)),
    ])
}

/// Flattens a [`ppl_inference::Diagnostics`] into the labelled pairs the
/// flight recorder's ring entries carry.
fn engine_pairs(diag: &ppl_inference::Diagnostics) -> Vec<(String, f64)> {
    let mut pairs = vec![
        ("ess".to_string(), diag.ess),
        ("num_draws".to_string(), diag.num_draws as f64),
    ];
    if let Some(v) = diag.log_evidence {
        pairs.push(("log_evidence".to_string(), v));
    }
    if let Some(v) = diag.acceptance_rate {
        pairs.push(("acceptance_rate".to_string(), v));
    }
    if let Some(v) = diag.final_elbo {
        pairs.push(("final_elbo".to_string(), v));
    }
    for (i, v) in diag.elbo_tail.iter().enumerate() {
        pairs.push((format!("elbo_tail.{i}"), *v));
    }
    pairs.extend([
        ("lane_splits".to_string(), diag.lane_splits as f64),
        ("lane_reconverges".to_string(), diag.lane_reconverges as f64),
        ("cancel_checks".to_string(), diag.cancel_checks as f64),
        ("scalar_lanes".to_string(), diag.scalar_lanes as f64),
    ]);
    pairs
}

fn batch(app: &Arc<App>, req: &Request) -> Result<Response, ApiError> {
    // A batch occupies one query slot: its items run sequentially, so it
    // costs the workers one lane regardless of item count.
    let _slot = acquire_slot(
        app,
        &app.inflight_query,
        app.limits.query_concurrency,
        "query",
    )?;
    let doc = parse_body(req)?;
    let entry = lookup_model(app, &doc)?;
    if doc.get("artifact").is_some() {
        // Artifact-warm draws are single-shot by construction (the
        // artifact pins seed and observations); batching them would only
        // repeat one deterministic result.
        return Err(bad_schema(
            "'artifact' is not supported in /v1/batch; use /v1/query",
        ));
    }
    let sets = doc
        .get("observation_sets")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad_schema("'observation_sets' must be an array of observation arrays"))?;
    let seeds: Option<Vec<u64>> = match doc.get("seeds") {
        None => None,
        Some(json) => {
            let items = json
                .as_arr()
                .ok_or_else(|| bad_schema("'seeds' must be an array of integers"))?;
            if items.len() != sets.len() {
                return Err(bad_schema(format!(
                    "'seeds' has {} entries for {} observation sets",
                    items.len(),
                    sets.len()
                )));
            }
            Some(
                items
                    .iter()
                    .map(|s| {
                        s.as_u64()
                            .ok_or_else(|| bad_schema("seeds must be non-negative integers"))
                    })
                    .collect::<Result<_, _>>()?,
            )
        }
    };
    if sets.len() > MAX_BATCH_ITEMS {
        return Err(request_limit(format!(
            "{} observation sets exceed the per-request limit of {MAX_BATCH_ITEMS}",
            sets.len()
        )));
    }

    // The shared fields (method, threads, guide args, …) decode once; each
    // item then only decodes its own observation set, keeping batch
    // decoding linear in the number of sets.
    let base = decode_request(app, &doc, &entry)?;

    // Decode and *validate* every item before running anything: a bad
    // item rejects the whole batch with its index, and no partial work is
    // spent on a request that was never going to succeed.  Each item's
    // built query is the one its run uses.
    let mut items = Vec::with_capacity(sets.len());
    {
        let _span = ppl_obs::Span::enter(ppl_obs::Phase::Validate);
        for (i, set) in sets.iter().enumerate() {
            let at = |e: ApiError| e.with("index", Json::Num(i as f64));
            let mut request = base.clone();
            request.fields.observations =
                decode_observations(set, "each observation set must be an array").map_err(at)?;
            request.fields.seed = match &seeds {
                Some(seeds) => seeds[i],
                None => base.fields.seed + i as u64,
            };
            let query = build_query(&entry, &request.fields, &request.guide_args).map_err(at)?;
            items.push((request, query));
        }
    }

    let mut results = Vec::with_capacity(items.len());
    let mut hits = 0usize;
    for (i, (request, query)) in items.into_iter().enumerate() {
        let (body, hit, _) = serve_one(app, &entry, &request, Some(query))
            .map_err(|e| e.with("index", Json::Num(i as f64)))?;
        hits += hit as usize;
        // The cached body is itself a JSON document; splice it verbatim so
        // each result stays byte-identical to its `/v1/query` response.
        results.push(body);
    }
    let mut body = String::from("{\"model\":");
    body.push_str(&Json::str(entry.id.clone()).write().expect("finite"));
    body.push_str(",\"count\":");
    body.push_str(&results.len().to_string());
    body.push_str(",\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(r);
    }
    body.push_str("]}");
    Ok(Response::json(200, body).with_header("X-Cache-Hits", &hits.to_string()))
}

/// Parses a request body, timed as the request's `json.decode` phase.
pub(crate) fn parse_body(req: &Request) -> Result<Json, ApiError> {
    let _span = ppl_obs::Span::enter(ppl_obs::Phase::JsonDecode);
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| bad_schema("request body is not valid UTF-8"))?;
    Json::parse(text).map_err(bad_json)
}

/// Resolves the request's `"model"` field against the registry without
/// touching demand counters (the fit route counts fits, not queries).
pub(crate) fn find_model(app: &Arc<App>, doc: &Json) -> Result<Arc<ModelEntry>, ApiError> {
    let name = doc
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_schema("'model' must be a string"))?;
    app.registry.get(name).ok_or_else(|| {
        ApiError::new(
            404,
            "model.unknown",
            format!("no model '{name}' in the registry"),
        )
    })
}

fn lookup_model(app: &Arc<App>, doc: &Json) -> Result<Arc<ModelEntry>, ApiError> {
    let entry = find_model(app, doc)?;
    // Counts every request addressed to the model, whether or not it later
    // validates — the metric is demand, not success.
    entry.record_query();
    Ok(entry)
}

/// Runs one request through the cache: a hit returns the stored body
/// (zero particles run), a miss validates, runs inference, and stores the
/// body.  Consulting the cache *before* validation is sound because the
/// fingerprint encoding is injective: a hit means a byte-equivalent
/// request was served before, and that request passed validation.  A
/// caller that validated up front passes the `query` it built, which a
/// miss runs instead of building another.
fn serve_one(
    app: &Arc<App>,
    entry: &ModelEntry,
    request: &QueryRequest,
    query: Option<Query>,
) -> Result<(Arc<str>, bool, Option<Json>), ApiError> {
    // Keyed by the entry *id*, not the display name: for user models the
    // id is a content hash, so cached bytes stay valid across eviction and
    // re-submission (same id ⇒ same sources ⇒ same deterministic result).
    let fingerprint = fingerprint(&entry.id, request);
    let cached = {
        let _span = ppl_obs::Span::enter(ppl_obs::Phase::CacheLookup);
        app.cache.get(&fingerprint)
    };
    if let Some(body) = cached {
        ppl_obs::trace::annotate("cache", "hit".to_string());
        return Ok((body, true, None));
    }
    ppl_obs::trace::annotate("cache", "miss".to_string());
    let query = match query {
        Some(query) => query,
        None => {
            let _span = ppl_obs::Span::enter(ppl_obs::Phase::Validate);
            build_query(entry, &request.fields, &request.guide_args)?
        }
    };
    // Cold VI requests spend their run fitting a guide; IS/MH requests and
    // artifact-warm queries spend it drawing.  (The VI posterior's draw
    // stage is folded into the fit span — one request, one inference span.)
    let infer_phase = match (&request.method, &request.artifact) {
        (Method::Vi { .. }, None) => ppl_obs::Phase::InferFit,
        _ => ppl_obs::Phase::InferDraw,
    };
    let run_started = Instant::now();
    let posterior = {
        let _span = ppl_obs::Span::enter(infer_phase);
        match (&request.artifact, &request.method) {
            // The stored parameters and post-fit RNG words replay the draw
            // pass bit-identically to the fresh fit, with zero fit
            // executions.
            (Some(artifact), Method::Vi { draw_particles, .. }) => {
                query.run_vi_warm(artifact, *draw_particles)
            }
            _ => query.run(&request.method),
        }
        .map_err(from_session_error)?
    };
    if request.artifact.is_some() {
        app.store.record_warm_start();
    }
    entry.record_execution(
        request.executions(),
        run_started.elapsed().as_nanos() as u64,
    );
    // The run's own counts: they live only in the uncached trace block,
    // never in cached bytes.
    let diag = posterior.diag();
    app.obs
        .observe_quality(Some(diag.ess), diag.acceptance_rate);
    ppl_obs::trace::annotate_engine(engine_pairs(&diag));
    let body: Arc<str> = {
        let _span = ppl_obs::Span::enter(ppl_obs::Phase::JsonEncode);
        query_response_json(
            &entry.id,
            &request.method,
            request.fields.seed,
            &posterior,
            request.sample_index,
        )
        .write()
        .expect("response bodies map non-finite statistics to null")
        .into()
    };
    app.cache.insert(fingerprint, Arc::clone(&body));
    Ok((body, false, Some(engine_json(&diag))))
}

/// Builds and validates the query a request's `fields` and `guide_args`
/// describe.
pub(crate) fn build_query(
    entry: &ModelEntry,
    fields: &Fields,
    guide_args: &[f64],
) -> Result<Query, ApiError> {
    let reals = |args: &[f64]| args.iter().map(|&x| Value::Real(x)).collect();
    entry
        .session
        .query()
        .observe(fields.observations.iter().cloned())
        .seed(fields.seed)
        .threads(fields.threads)
        .block(fields.block)
        .model_args(reals(&fields.model_args))
        .guide_args(reals(guide_args))
        .cancel(fields.cancel.clone())
        .build()
        .map_err(|e| from_session_error(SessionError::Query(e)))
}

/// Decodes the fields every inference route shares.
pub(crate) fn decode_fields(app: &App, doc: &Json) -> Result<Fields, ApiError> {
    Ok(Fields {
        observations: match doc.get("observations") {
            Some(json) => decode_observations(json, "'observations' must be an array")?,
            None => Vec::new(),
        },
        seed: opt_u64(doc, "seed")?.unwrap_or(0),
        model_args: real_args(doc, "model_args")?,
        threads: opt_u64(doc, "threads")?.unwrap_or(1).max(1) as usize,
        block: opt_u64(doc, "block")?.map_or(app.default_block, |n| (n as usize).max(1)),
        // The token captures an *absolute* deadline now, at decode time, so
        // queueing and validation spend the same budget inference does.
        cancel: app.request_token(opt_u64(doc, "deadline_ms")?),
    })
}

fn decode_request(app: &App, doc: &Json, entry: &ModelEntry) -> Result<QueryRequest, ApiError> {
    let artifact = match doc.get("artifact") {
        Some(id) => Some(stored_artifact(app, doc, entry, id)?),
        None => None,
    };
    let mut fields = decode_fields(app, doc)?;
    let method = match &artifact {
        // The artifact's provenance stands in for the fields it pins, so
        // the warm query runs and renders exactly as the fresh
        // fit-then-draw query that minted it.
        Some(artifact) => {
            fields.observations = artifact
                .observations
                .iter()
                .map(artifact_obs_to_sample)
                .collect();
            fields.seed = artifact.seed;
            fields.model_args = artifact.model_args.clone();
            artifact_method(artifact, opt_u64(doc, "draw_particles")?)
        }
        None => decode_method(doc.get("method"), entry)?,
    };
    let mut guide_args = real_args(doc, "guide_args")?;
    // IS and MH sample the guide at fixed arguments; when the guide is
    // parameterised and the caller sent none, use the registry's initial
    // values so argument-less requests work out of the box.  (VI ignores
    // guide arguments — it owns the parameters.)
    if guide_args.is_empty() && !matches!(method, Method::Vi { .. }) {
        guide_args = entry.guide_param_defaults.iter().map(|p| p.init).collect();
    }
    let request = QueryRequest {
        fields,
        method,
        guide_args,
        sample_index: opt_u64(doc, "sample_index")?.unwrap_or(0) as usize,
        artifact,
    };
    // Builtins carry the full MAX_REQUEST_EXECUTIONS budget; user models a
    // reduced one — the same accounting either way.
    let what = match request.artifact {
        Some(_) => "the draw pass",
        None => "the request",
    };
    within_budget(entry, what, request.executions())?;
    Ok(request)
}

/// Resolves an artifact-warm query's `"artifact"` id to its stored fit.
fn stored_artifact(
    app: &App,
    doc: &Json,
    entry: &ModelEntry,
    id: &Json,
) -> Result<Arc<Artifact>, ApiError> {
    // The artifact pins the fit's seed, observations, and parameters; a
    // request that also supplies them is ambiguous and rejected outright.
    for key in ["method", "seed", "observations", "model_args", "guide_args"] {
        if doc.get(key).is_some() {
            return Err(bad_schema(format!(
                "'{key}' conflicts with 'artifact': the artifact pins the fit's seed, \
                 observations, and parameters"
            )));
        }
    }
    let id = id
        .as_str()
        .ok_or_else(|| bad_schema("'artifact' must be a string artifact id"))?;
    let artifact = app
        .store
        .get(id)
        .ok_or_else(|| crate::fit::unknown_artifact(400, id))?;
    if artifact.model_id != entry.id {
        return Err(ApiError::new(
            400,
            "artifact.model_mismatch",
            format!(
                "artifact '{id}' was fitted for model '{}', not '{}'",
                artifact.model_id, entry.id
            ),
        )
        .with("artifact_model", Json::str(artifact.model_id.clone()))
        .with("model", Json::str(entry.id.clone())));
    }
    if artifact.version != ARTIFACT_FORMAT_VERSION {
        return Err(ApiError::new(
            400,
            "artifact.version",
            format!(
                "artifact '{id}' has format version {}, not the supported version \
                 {ARTIFACT_FORMAT_VERSION}",
                artifact.version
            ),
        ));
    }
    Ok(artifact)
}

/// The `Method::Vi` whose fit an artifact recorded, drawing
/// `draw_particles`.
fn artifact_method(artifact: &Artifact, draw_particles: Option<u64>) -> Method {
    Method::Vi {
        params: artifact
            .schema
            .iter()
            .map(|p| param_spec(&p.name, p.init, p.positive))
            .collect(),
        config: ViConfig {
            iterations: artifact.config.iterations,
            samples_per_iteration: artifact.config.samples_per_iteration,
            learning_rate: artifact.config.learning_rate,
            fd_epsilon: artifact.config.fd_epsilon,
            ..ViConfig::default()
        },
        draw_particles: draw_particles.map(|n| n as usize),
    }
}

/// The one `400 request.limit` rejection: a request above a per-request
/// bound.
fn request_limit(message: String) -> ApiError {
    ApiError::new(400, "request.limit", message)
}

/// Rejects `what` with `request.limit` when its `cost` in joint executions
/// exceeds the model's per-request budget.
pub(crate) fn within_budget(entry: &ModelEntry, what: &str, cost: u64) -> Result<(), ApiError> {
    let limit = entry.max_request_executions;
    if cost <= limit {
        return Ok(());
    }
    Err(request_limit(format!(
        "{what} schedules {cost} joint executions, above this model's per-request limit of {limit}"
    ))
    .with("limit", Json::Num(limit as f64)))
}

/// Joint executions a VI fit schedules: iterations × samples.
pub(crate) fn fit_executions(config: &ViConfig) -> u64 {
    (config.iterations as u64).saturating_mul(config.samples_per_iteration as u64)
}

/// Decodes an observation array, `not_an_array` naming it when it is not
/// one.
fn decode_observations(json: &Json, not_an_array: &str) -> Result<Vec<Sample>, ApiError> {
    json.as_arr()
        .ok_or_else(|| bad_schema(not_an_array))?
        .iter()
        .enumerate()
        .map(|(i, item)| decode_observation(i, item))
        .collect()
}

fn decode_observation(index: usize, json: &Json) -> Result<Sample, ApiError> {
    match json {
        Json::Bool(b) => Ok(Sample::Bool(*b)),
        Json::Num(x) => Ok(Sample::Real(*x)),
        Json::Obj(_) => {
            if let Some(n) = json.get("nat") {
                let n = n.as_u64().ok_or_else(|| {
                    bad_schema(format!(
                        "observation {index}: 'nat' must be a non-negative integer"
                    ))
                })?;
                Ok(Sample::Nat(n))
            } else if let Some(x) = json.get("real") {
                let x = x.as_f64().ok_or_else(|| {
                    bad_schema(format!("observation {index}: 'real' must be a number"))
                })?;
                Ok(Sample::Real(x))
            } else if let Some(b) = json.get("bool") {
                let b = b.as_bool().ok_or_else(|| {
                    bad_schema(format!("observation {index}: 'bool' must be a boolean"))
                })?;
                Ok(Sample::Bool(b))
            } else {
                Err(bad_schema(format!(
                    "observation {index}: object form must be {{\"nat\"|\"real\"|\"bool\": ...}}"
                )))
            }
        }
        _ => Err(bad_schema(format!(
            "observation {index}: expected a boolean, a number, or a typed object"
        ))),
    }
}

fn decode_method(json: Option<&Json>, entry: &ModelEntry) -> Result<Method, ApiError> {
    let json = json.ok_or_else(|| bad_schema("'method' is required"))?;
    let algorithm = json
        .get("algorithm")
        .and_then(Json::as_str)
        .ok_or_else(|| {
            bad_schema("'method.algorithm' must be \"importance\", \"mh\", or \"vi\"")
        })?;
    match algorithm {
        "importance" => {
            let particles = opt_u64(json, "particles")?.unwrap_or(2_000) as usize;
            Ok(Method::Importance { particles })
        }
        "mh" => {
            let iterations = opt_u64(json, "iterations")?.unwrap_or(2_000) as usize;
            let burn_in = opt_u64(json, "burn_in")?.unwrap_or(iterations as u64 / 10) as usize;
            Ok(Method::Mh {
                iterations,
                burn_in,
            })
        }
        "vi" => {
            let (params, config) = decode_vi(json, "method", entry)?;
            let draw_particles = opt_u64(json, "draw_particles")?.map(|n| n as usize);
            Ok(Method::Vi {
                params,
                config,
                draw_particles,
            })
        }
        other => Err(bad_schema(format!(
            "unknown algorithm '{other}' (expected \"importance\", \"mh\", or \"vi\")"
        ))),
    }
}

/// Decodes a VI configuration: a `"method"` with `"algorithm": "vi"`, or
/// `/v1/fit`'s `"fit"` object (`key` names it in errors).  Every field
/// defaults, `params` to the registry's initial variational parameters.
pub(crate) fn decode_vi(
    json: &Json,
    key: &str,
    entry: &ModelEntry,
) -> Result<(Vec<ParamSpec>, ViConfig), ApiError> {
    let mut config = ViConfig::default();
    if let Some(n) = opt_u64(json, "iterations")? {
        config.iterations = n as usize;
    }
    if let Some(n) = opt_u64(json, "samples_per_iteration")? {
        config.samples_per_iteration = n as usize;
    }
    if let Some(x) = opt_f64(json, "learning_rate")? {
        config.learning_rate = x;
    }
    if let Some(x) = opt_f64(json, "fd_epsilon")? {
        config.fd_epsilon = x;
    }
    let params = match json.get("params") {
        Some(json) => json
            .as_arr()
            .ok_or_else(|| bad_schema(format!("'{key}.params' must be an array")))?
            .iter()
            .map(decode_param)
            .collect::<Result<_, _>>()?,
        None => entry.guide_param_defaults.clone(),
    };
    Ok((params, config))
}

fn decode_param(json: &Json) -> Result<ParamSpec, ApiError> {
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_schema("variational params need a string 'name'"))?;
    let init = json
        .get("init")
        .and_then(Json::as_f64)
        .ok_or_else(|| bad_schema("variational params need a numeric 'init'"))?;
    let positive = json
        .get("positive")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    Ok(param_spec(name, init, positive))
}

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(json) => json
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad_schema(format!("'{key}' must be a non-negative integer"))),
    }
}

fn opt_f64(doc: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(json) => json
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad_schema(format!("'{key}' must be a number"))),
    }
}

fn real_args(doc: &Json, key: &str) -> Result<Vec<f64>, ApiError> {
    let not_reals = || bad_schema(format!("'{key}' must be an array of numbers"));
    match doc.get(key) {
        None => Ok(Vec::new()),
        Some(json) => json
            .as_arr()
            .ok_or_else(not_reals)?
            .iter()
            .map(|x| x.as_f64().ok_or_else(not_reals))
            .collect(),
    }
}

/// The canonical request fingerprint: a pure function of everything that
/// can influence the response bytes.  Floats are keyed by their exact IEEE
/// bits, and the engine thread count and vectorised block size are
/// deliberately **excluded** — the determinism guarantee makes results
/// bit-identical across thread counts and block sizes, so requests
/// differing only in `threads` or `block` share a cache line.
fn fingerprint(model: &str, request: &QueryRequest) -> String {
    use std::fmt::Write;
    if let Some(artifact) = &request.artifact {
        // The artifact id is a content hash and fits are deterministic, so
        // (model, artifact, draw count, statistic) is an injective key, and
        // a cold query's `seed=` key never meets it.
        return format!(
            "model={model};artifact={};d={};idx={}",
            artifact.id,
            request.executions(),
            request.sample_index
        );
    }
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "model={model};seed={};idx={};obs=",
        request.fields.seed, request.sample_index
    );
    for obs in &request.fields.observations {
        match obs {
            Sample::Bool(b) => {
                let _ = write!(s, "b{},", *b as u8);
            }
            Sample::Real(x) => {
                let _ = write!(s, "r{:016x},", x.to_bits());
            }
            Sample::Nat(n) => {
                let _ = write!(s, "n{n},");
            }
        }
    }
    s.push_str(";margs=");
    for x in &request.fields.model_args {
        let _ = write!(s, "{:016x},", x.to_bits());
    }
    s.push_str(";gargs=");
    for x in &request.guide_args {
        let _ = write!(s, "{:016x},", x.to_bits());
    }
    s.push_str(";method=");
    match &request.method {
        Method::Importance { particles } => {
            let _ = write!(s, "is:p={particles}");
        }
        Method::Mh {
            iterations,
            burn_in,
        } => {
            let _ = write!(s, "mh:i={iterations},b={burn_in}");
        }
        Method::Vi {
            params,
            config,
            draw_particles,
        } => {
            let _ = write!(
                s,
                "vi:i={},s={},lr={:016x},fd={:016x},d={};params=",
                config.iterations,
                config.samples_per_iteration,
                config.learning_rate.to_bits(),
                config.fd_epsilon.to_bits(),
                draw_particles.unwrap_or(guide_ppl::query::VI_POSTERIOR_PARTICLES),
            );
            for p in params {
                // Length-prefixing the (client-supplied) name keeps the
                // encoding injective: a name containing ':' or ',' cannot
                // forge another parameter list's fingerprint.
                let _ = write!(
                    s,
                    "{}:{}:{:016x}:{},",
                    p.name.len(),
                    p.name,
                    p.init.to_bits(),
                    p.positive as u8
                );
            }
        }
    }
    s
}

/// Serialises a finished inference run as the `/v1/query` response
/// document.  Exposed so tests (and embedders) can produce the exact bytes
/// the HTTP route would return for an in-process [`PosteriorResult`] — the
/// bit-identity acceptance check compares the two.
pub fn query_response_json(
    model: &str,
    method: &Method,
    seed: u64,
    posterior: &PosteriorResult,
    sample_index: usize,
) -> Json {
    let summary = posterior
        .summarize_sample(sample_index)
        .map(|s| summary_json(&s))
        .unwrap_or(Json::Null);
    let diagnostics = posterior
        .diagnostics()
        .into_iter()
        .map(|(k, v)| (k, Json::num_or_null(v)))
        .collect();
    Json::Obj(vec![
        ("model".into(), Json::str(model)),
        ("method".into(), Json::str(method.name())),
        ("seed".into(), Json::Num(seed as f64)),
        ("sample_index".into(), Json::Num(sample_index as f64)),
        ("num_draws".into(), Json::Num(posterior.num_draws() as f64)),
        ("ess".into(), Json::num_or_null(posterior.ess())),
        (
            "log_evidence".into(),
            match posterior.log_evidence() {
                Some(x) => Json::num_or_null(x),
                None => Json::Null,
            },
        ),
        ("diagnostics".into(), Json::Obj(diagnostics)),
        ("summary".into(), summary),
    ])
}

fn summary_json(s: &PosteriorSummary) -> Json {
    Json::Obj(vec![
        ("mean".into(), Json::num_or_null(s.mean)),
        ("variance".into(), Json::num_or_null(s.variance)),
        ("std_dev".into(), Json::num_or_null(s.std_dev())),
        (
            "quantiles".into(),
            Json::Obj(vec![
                ("q05".into(), Json::num_or_null(s.quantiles.q05)),
                ("q25".into(), Json::num_or_null(s.quantiles.q25)),
                ("median".into(), Json::num_or_null(s.quantiles.median)),
                ("q75".into(), Json::num_or_null(s.quantiles.q75)),
                ("q95".into(), Json::num_or_null(s.quantiles.q95)),
            ]),
        ),
        (
            "histogram".into(),
            Json::Obj(vec![
                (
                    "centers".into(),
                    Json::Arr(
                        s.histogram
                            .centers()
                            .into_iter()
                            .map(Json::num_or_null)
                            .collect(),
                    ),
                ),
                (
                    "densities".into(),
                    Json::Arr(
                        s.histogram
                            .densities()
                            .into_iter()
                            .map(Json::num_or_null)
                            .collect(),
                    ),
                ),
                (
                    "total_weight".into(),
                    Json::num_or_null(s.histogram.total_weight()),
                ),
            ]),
        ),
        ("num_draws".into(), Json::Num(s.num_draws as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> Arc<App> {
        App::new(Registry::from_benchmarks(), 16)
    }

    fn post(app: &Arc<App>, path: &str, body: &str) -> Response {
        let handler = app.handler();
        handler(&Request {
            method: "POST".into(),
            path: path.into(),
            query: None,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
    }

    fn get(app: &Arc<App>, path: &str) -> Response {
        let handler = app.handler();
        handler(&Request {
            method: "GET".into(),
            path: path.into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    #[test]
    fn routes_answer_without_a_socket() {
        let app = app();
        let health = get(&app, "/healthz");
        assert_eq!(health.status, 200);
        let parsed = Json::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("ok"));
        let models = get(&app, "/v1/models");
        assert_eq!(models.status, 200);
        assert!(String::from_utf8_lossy(&models.body).contains("\"ex-1\""));
        assert_eq!(get(&app, "/nope").status, 404);
        assert_eq!(post(&app, "/healthz", "").status, 405);
        // Metrics recorded every one of those requests.
        let totals = app.obs.route_totals();
        assert_eq!(totals.iter().map(|t| t.count).sum::<u64>(), 4);
    }

    #[test]
    fn query_runs_and_caches() {
        let app = app();
        let body = r#"{"model":"ex-1","observations":[0.8],
                       "method":{"algorithm":"importance","particles":300},"seed":7}"#;
        let cold = post(&app, "/v1/query", body);
        assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
        assert!(cold
            .headers
            .iter()
            .any(|(k, v)| k == "X-Cache" && v == "miss"));
        let warm = post(&app, "/v1/query", body);
        assert_eq!(warm.status, 200);
        assert!(warm
            .headers
            .iter()
            .any(|(k, v)| k == "X-Cache" && v == "hit"));
        assert_eq!(cold.body, warm.body);
        // Whitespace-only differences in the request reach the same line.
        assert_eq!(app.cache.len(), 1);
        let parsed = Json::parse(std::str::from_utf8(&cold.body).unwrap()).unwrap();
        assert_eq!(parsed.get("method").unwrap().as_str(), Some("IS"));
        let mean = parsed
            .get("summary")
            .unwrap()
            .get("mean")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(mean.is_finite());
    }

    #[test]
    fn thread_counts_share_a_cache_line() {
        let app = app();
        let one = r#"{"model":"ex-1","observations":[0.8],
                      "method":{"algorithm":"importance","particles":200},"seed":3,"threads":1}"#;
        let four = r#"{"model":"ex-1","observations":[0.8],
                       "method":{"algorithm":"importance","particles":200},"seed":3,"threads":4}"#;
        let cold = post(&app, "/v1/query", one);
        assert_eq!(cold.status, 200);
        let warm = post(&app, "/v1/query", four);
        assert!(warm
            .headers
            .iter()
            .any(|(k, v)| k == "X-Cache" && v == "hit"));
        assert_eq!(cold.body, warm.body);
    }

    #[test]
    fn block_sizes_share_a_cache_line_and_metrics_report_execution() {
        let app = app();
        let scalar = r#"{"model":"ex-1","observations":[0.8],
                         "method":{"algorithm":"importance","particles":200},"seed":3,"block":1}"#;
        let vector = r#"{"model":"ex-1","observations":[0.8],
                         "method":{"algorithm":"importance","particles":200},"seed":3,"block":256}"#;
        let cold = post(&app, "/v1/query", scalar);
        assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
        let warm = post(&app, "/v1/query", vector);
        assert!(warm
            .headers
            .iter()
            .any(|(k, v)| k == "X-Cache" && v == "hit"));
        assert_eq!(cold.body, warm.body);
        // /metrics reports the active default block size and the measured
        // per-model execution rate (only the cache miss ran particles).
        let metrics = get(&app, "/metrics");
        assert_eq!(metrics.status, 200);
        let parsed = Json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("execution").unwrap().get("block"),
            Some(&Json::Num(ppl_inference::DEFAULT_BLOCK as f64))
        );
        let per_model = parsed
            .get("registry")
            .unwrap()
            .get("per_model")
            .unwrap()
            .as_arr()
            .unwrap();
        let ex1 = per_model
            .iter()
            .find(|m| m.get("id").unwrap().as_str() == Some("ex-1"))
            .unwrap();
        let rate = ex1.get("particles_per_sec").unwrap().as_f64().unwrap();
        assert!(rate > 0.0, "rate {rate}");
    }

    #[test]
    fn invalid_requests_are_structured_400s() {
        let app = app();
        // Wrong carrier.
        let r = post(
            &app,
            "/v1/query",
            r#"{"model":"ex-1","observations":[true],
                "method":{"algorithm":"importance","particles":100}}"#,
        );
        assert_eq!(r.status, 400);
        let parsed = Json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("error").unwrap().get("code").unwrap().as_str(),
            Some("obs.carrier")
        );
        assert_eq!(
            parsed
                .get("error")
                .unwrap()
                .get("position")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        // Malformed JSON names the byte offset.
        let r = post(&app, "/v1/query", "{\"model\": }");
        assert_eq!(r.status, 400);
        let parsed = Json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("error").unwrap().get("code").unwrap().as_str(),
            Some("request.json")
        );
        assert_eq!(
            parsed.get("error").unwrap().get("offset").unwrap().as_f64(),
            Some(10.0)
        );
        // Unknown model is a 404.
        let r = post(
            &app,
            "/v1/query",
            r#"{"model":"nope","method":{"algorithm":"importance"}}"#,
        );
        assert_eq!(r.status, 404);
        // Degenerate method config is a 400 with the method code.
        let r = post(
            &app,
            "/v1/query",
            r#"{"model":"ex-1","observations":[0.8],
                "method":{"algorithm":"importance","particles":0}}"#,
        );
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("method.invalid"));
    }

    #[test]
    fn fingerprint_is_injective_over_crafted_param_names() {
        // Under a naive `name:bits:pos,` encoding these two parameter
        // lists serialise identically: B's single name embeds A's
        // separators verbatim.  The length prefix keeps them distinct, so
        // B can never be served A's cached response.
        let bits1 = 1.0f64.to_bits();
        let a = vec![
            ParamSpec::unconstrained("m", 1.0),
            ParamSpec::unconstrained("m", 2.0),
        ];
        let b = vec![ParamSpec::unconstrained(format!("m:{bits1:016x}:0,m"), 2.0)];
        let request = |params: Vec<ParamSpec>| QueryRequest {
            fields: Fields {
                observations: vec![Sample::Real(9.0), Sample::Real(9.0)],
                seed: 1,
                model_args: vec![],
                threads: 1,
                block: 1,
                cancel: CancelToken::none(),
            },
            method: Method::Vi {
                params,
                config: ViConfig::default(),
                draw_particles: None,
            },
            guide_args: vec![],
            sample_index: 0,
            artifact: None,
        };
        assert_ne!(
            fingerprint("weight", &request(a)),
            fingerprint("weight", &request(b))
        );
    }

    #[test]
    fn oversized_work_and_batches_are_rejected() {
        let app = app();
        // 2^53 particles passes as_u64 but must hit the work limit, not a
        // worker thread.
        let r = post(
            &app,
            "/v1/query",
            r#"{"model":"ex-1","observations":[0.8],
                "method":{"algorithm":"importance","particles":9007199254740992}}"#,
        );
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("request.limit"));
        // A VI config whose product overflows the limit is rejected too.
        let r = post(
            &app,
            "/v1/query",
            r#"{"model":"weight","observations":[9.0,9.0],
                "method":{"algorithm":"vi","iterations":9007199254740992,
                          "samples_per_iteration":9007199254740992}}"#,
        );
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("request.limit"));
        // More observation sets than MAX_BATCH_ITEMS.
        let sets: Vec<String> = (0..=MAX_BATCH_ITEMS).map(|_| "[0.5]".to_string()).collect();
        let body = format!(
            r#"{{"model":"normal-normal","observation_sets":[{}],
                "method":{{"algorithm":"importance","particles":100}}}}"#,
            sets.join(",")
        );
        let r = post(&app, "/v1/batch", &body);
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("request.limit"));
    }

    #[test]
    fn batch_matches_individual_queries_and_counts_hits() {
        let app = app();
        let q0 = r#"{"model":"normal-normal","observations":[0.5],
                     "method":{"algorithm":"importance","particles":200},"seed":11}"#;
        let solo = post(&app, "/v1/query", q0);
        assert_eq!(solo.status, 200);
        let batch = post(
            &app,
            "/v1/batch",
            r#"{"model":"normal-normal",
                "observation_sets":[[0.5],[1.5]],
                "seeds":[11,12],
                "method":{"algorithm":"importance","particles":200}}"#,
        );
        assert_eq!(
            batch.status,
            200,
            "{}",
            String::from_utf8_lossy(&batch.body)
        );
        // Item 0 was already cached by the solo query.
        assert!(batch
            .headers
            .iter()
            .any(|(k, v)| k == "X-Cache-Hits" && v == "1"));
        let parsed = Json::parse(std::str::from_utf8(&batch.body).unwrap()).unwrap();
        let results = parsed.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        // The batch result is byte-identical to the solo response.
        let solo_parsed = Json::parse(std::str::from_utf8(&solo.body).unwrap()).unwrap();
        assert_eq!(results[0], solo_parsed);
        // A bad item rejects the whole batch, naming the index.
        let bad = post(
            &app,
            "/v1/batch",
            r#"{"model":"normal-normal",
                "observation_sets":[[0.5],[true]],
                "method":{"algorithm":"importance","particles":200}}"#,
        );
        assert_eq!(bad.status, 400);
        let parsed = Json::parse(std::str::from_utf8(&bad.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("error").unwrap().get("index").unwrap().as_f64(),
            Some(1.0)
        );
    }
}
