//! Request metrics for the `/metrics` endpoint.
//!
//! Response classes and sheds are counted here, in relaxed atomics (they
//! are diagnostics, not synchronisation).  Every latency figure, and the
//! per-route request counts, comes from the flight recorder's log₂ cells
//! ([`ppl_obs::Recorder`]): one handler-time cell per route, fed by every
//! request whether or not tracing is on, plus the per-(route, phase)
//! cells.  [`Metrics::render`] turns each cell's [`PhaseStat`] into JSON
//! through one helper, so every percentile it serves carries the cells'
//! stated bound: true ≤ reported ≤ min(2 × true, max).  Handler time
//! excludes socket I/O (`http.read` and `http.write` are phases).

use crate::json::Json;
use ppl_obs::{PhaseStat, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The routes the server distinguishes in its per-route counters.
/// `/v1/models/{id}` and `/v1/artifacts/{id}` lifecycle requests are
/// normalised to their `{id}` buckets.
pub const ROUTES: [&str; 12] = [
    "/healthz",
    "/metrics",
    "/v1/models",
    "/v1/models/{id}",
    "/v1/query",
    "/v1/batch",
    "/v1/fit",
    "/v1/artifacts",
    "/v1/artifacts/{id}",
    "/v1/trace",
    "/v1/trace/{id}",
    "other",
];

/// Index of the catch-all `"other"` bucket in [`ROUTES`].
const OTHER: usize = ROUTES.len() - 1;

/// The index of the [`ROUTES`] entry a request path is counted under:
/// lifecycle requests collapse to their `{id}` buckets, and any unmatched
/// path maps to `"other"`.
pub fn normalize_route(path: &str) -> usize {
    let path = if path.starts_with("/v1/models/") {
        "/v1/models/{id}"
    } else if path.starts_with("/v1/artifacts/") {
        "/v1/artifacts/{id}"
    } else if path.starts_with("/v1/trace/") {
        "/v1/trace/{id}"
    } else {
        path
    };
    ROUTES
        .iter()
        .position(|route| *route == path)
        .unwrap_or(OTHER)
}

/// Aggregated serving metrics.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// `408 Request Timeout` responses, counted apart from the generic
    /// 4xx class so deadline pressure is visible at a glance.
    responses_timeout: AtomicU64,
    /// Requests whose path matched no known route (they are counted
    /// under the `"other"` bucket, but no longer silently).
    unknown_paths: AtomicU64,
    /// Handler panics caught and converted to `500 server.panic`.
    panics: AtomicU64,
    /// Requests shed by a per-endpoint concurrency cap (`429`).
    cap_sheds: AtomicU64,
    /// Connections shed at the transport admission queue (`429`).  Behind
    /// an `Arc` so it can be handed to
    /// [`crate::http::ServerConfig::shed_counter`] — the transport layer
    /// sheds before the handler (and therefore these metrics) ever runs.
    queue_sheds: Arc<AtomicU64>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates zeroed metrics with the clock started now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            responses_timeout: AtomicU64::new(0),
            unknown_paths: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            cap_sheds: AtomicU64::new(0),
            queue_sheds: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Counts one caught handler panic.
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request shed by a per-endpoint concurrency cap.
    pub fn record_cap_shed(&self) {
        self.cap_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics caught so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Requests shed by per-endpoint concurrency caps so far.
    pub fn cap_sheds(&self) -> u64 {
        self.cap_sheds.load(Ordering::Relaxed)
    }

    /// Connections shed at the transport admission queue so far.
    pub fn queue_sheds(&self) -> u64 {
        self.queue_sheds.load(Ordering::Relaxed)
    }

    /// The shared queue-shed counter, for wiring into
    /// [`crate::http::ServerConfig::shed_counter`].
    pub fn queue_sheds_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.queue_sheds)
    }

    /// Records one handled request's response class.  `route` is
    /// [`normalize_route`] of `path`; the request's handler time goes to
    /// the recorder ([`Recorder::finish`]) under the same index.
    pub fn record(&self, route: usize, path: &str, status: u16) {
        if route == OTHER && path != "other" {
            // Unmatched paths still land in the "other" bucket, but no
            // longer silently: count them and leave a (rate-limited)
            // breadcrumb naming the path.
            self.unknown_paths.fetch_add(1, Ordering::Relaxed);
            ppl_obs::log::debug(
                "route.unknown",
                "request for unmatched path counted under \"other\"",
                &[("path", ppl_obs::log::Value::s(path))],
            );
        }
        let status_counter = match status {
            200..=299 => &self.responses_2xx,
            408 => &self.responses_timeout,
            500..=599 => &self.responses_5xx,
            _ => &self.responses_4xx,
        };
        status_counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests for paths that matched no known route so far.
    pub fn unknown_paths(&self) -> u64 {
        self.unknown_paths.load(Ordering::Relaxed)
    }

    /// `408 Request Timeout` responses so far.
    pub fn timeouts(&self) -> u64 {
        self.responses_timeout.load(Ordering::Relaxed)
    }

    /// Renders the request and latency part of the `/metrics` document:
    /// the counters here, and the latency cells of `obs` (a recorder over
    /// [`ROUTES`]).  `cache_hits`, `cache_misses`, and `cache_len` come
    /// from the response cache.
    pub fn render(
        &self,
        obs: &Recorder,
        cache_hits: u64,
        cache_misses: u64,
        cache_len: usize,
    ) -> Json {
        let totals = obs.route_totals();
        let mut all = PhaseStat::default();
        for total in &totals {
            all.merge(total);
        }
        let mut latency = stat_fields(&all);
        // Bin `i` counts handler times in [2^i, 2^(i+1)) ns.
        let counts = all.bins.iter().map(|&n| Json::Num(n as f64)).collect();
        latency.push((
            "histogram".into(),
            Json::Obj(vec![("counts".into(), Json::Arr(counts))]),
        ));
        let cell = |stat: &PhaseStat| Json::Obj(stat_fields(stat));
        let routes = || ROUTES.iter().map(|route| route.to_string()).zip(&totals);
        let requests_by_route = routes()
            .map(|(route, total)| (route, Json::Num(total.count as f64)))
            .collect();
        let latency_by_route = routes()
            .filter(|(_, total)| total.count > 0)
            .map(|(route, total)| (route, cell(total)))
            .collect();
        let phases = obs
            .phase_stats()
            .into_iter()
            .map(|route| {
                let cells = route
                    .phases
                    .iter()
                    .map(|(phase, stat)| (phase.as_str().to_string(), cell(stat)))
                    .collect();
                (route.route.to_string(), Json::Obj(cells))
            })
            .collect();
        let cache_total = cache_hits + cache_misses;
        let hit_rate = if cache_total > 0 {
            cache_hits as f64 / cache_total as f64
        } else {
            0.0
        };
        let count = |counter: &AtomicU64| Json::Num(counter.load(Ordering::Relaxed) as f64);
        Json::Obj(vec![
            (
                "uptime_seconds".into(),
                Json::num_or_null(self.started.elapsed().as_secs_f64()),
            ),
            ("requests_total".into(), Json::Num(all.count as f64)),
            ("requests_by_route".into(), Json::Obj(requests_by_route)),
            (
                "responses".into(),
                Json::Obj(vec![
                    ("2xx".into(), count(&self.responses_2xx)),
                    ("4xx".into(), count(&self.responses_4xx)),
                    ("5xx".into(), count(&self.responses_5xx)),
                    ("timeout".into(), count(&self.responses_timeout)),
                ]),
            ),
            ("unknown_paths".into(), count(&self.unknown_paths)),
            ("latency_ms".into(), Json::Obj(latency)),
            ("latency_by_route_ms".into(), Json::Obj(latency_by_route)),
            ("phases_ms".into(), Json::Obj(phases)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::Num(cache_hits as f64)),
                    ("misses".into(), Json::Num(cache_misses as f64)),
                    ("hit_rate".into(), Json::num_or_null(hit_rate)),
                    ("entries".into(), Json::Num(cache_len as f64)),
                ]),
            ),
        ])
    }
}

/// The fields of one latency cell in milliseconds: count, mean,
/// p50/p90/p99 and max.
fn stat_fields(stat: &PhaseStat) -> Vec<(String, Json)> {
    let ms = |nanos: u64| Json::num_or_null(nanos as f64 / 1e6);
    vec![
        ("count".into(), Json::Num(stat.count as f64)),
        ("mean".into(), Json::num_or_null(stat.mean_nanos() / 1e6)),
        ("p50".into(), ms(stat.quantile_nanos(0.50))),
        ("p90".into(), ms(stat.quantile_nanos(0.90))),
        ("p99".into(), ms(stat.quantile_nanos(0.99))),
        ("max".into(), ms(stat.max_nanos)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records one request the way the handler does.
    fn record(m: &Metrics, obs: &Recorder, path: &str, status: u16, latency_ms: f64) {
        let route = normalize_route(path);
        m.record(route, path, status);
        obs.finish(route, status, (latency_ms * 1e6) as u64);
    }

    #[test]
    fn records_routes_statuses_and_latency() {
        let (m, obs) = (Metrics::new(), Recorder::new(&ROUTES, 4));
        record(&m, &obs, "/healthz", 200, 0.5);
        record(&m, &obs, "/v1/query", 200, 12.0);
        record(&m, &obs, "/v1/query", 400, 1.0);
        record(&m, &obs, "/nope", 404, 0.1);
        record(&m, &obs, "/v1/models/m-0011223344556677", 200, 0.2);
        record(&m, &obs, "/v1/artifacts/a-0011223344556677", 200, 0.2);
        record(&m, &obs, "/v1/query", 500, 2_001.0);
        record(&m, &obs, "/v1/query", 408, 250.0);
        assert_eq!(m.timeouts(), 1);
        assert_eq!(m.unknown_paths(), 1);
        let json = m.render(&obs, 3, 1, 2);
        assert_eq!(json.get("requests_total"), Some(&Json::Num(8.0)));
        assert_eq!(
            json.get("requests_by_route").unwrap().get("/v1/query"),
            Some(&Json::Num(4.0))
        );
        assert_eq!(
            json.get("requests_by_route")
                .unwrap()
                .get("/v1/models/{id}"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            json.get("requests_by_route")
                .unwrap()
                .get("/v1/artifacts/{id}"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            json.get("requests_by_route").unwrap().get("other"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            json.get("responses").unwrap().get("4xx"),
            Some(&Json::Num(2.0))
        );
        assert_eq!(
            json.get("responses").unwrap().get("5xx"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            json.get("responses").unwrap().get("timeout"),
            Some(&Json::Num(1.0)),
            "408 is its own class, not folded into 4xx"
        );
        assert_eq!(json.get("unknown_paths"), Some(&Json::Num(1.0)));
        assert_eq!(
            json.get("cache").unwrap().get("hit_rate"),
            Some(&Json::Num(0.75))
        );
        let latency = json.get("latency_ms").unwrap();
        for key in ["p50", "p90", "p99"] {
            assert!(
                matches!(latency.get(key), Some(Json::Num(v)) if *v >= 0.0),
                "global latency reports {key}"
            );
        }
        let counts = latency.get("histogram").unwrap().get("counts").unwrap();
        let binned: f64 = counts
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .sum();
        assert_eq!(binned, 8.0, "every request sits in a log2 bin");
        let by_route = json.get("latency_by_route_ms").unwrap();
        let query = by_route.get("/v1/query").expect("per-route latency");
        assert_eq!(query.get("count"), Some(&Json::Num(4.0)));
        assert!(matches!(query.get("p99"), Some(Json::Num(v)) if *v > 0.0));
        assert!(
            by_route.get("/v1/batch").is_none(),
            "routes with no traffic are omitted"
        );
        // The document always serialises (every number finite).
        assert!(json.write().is_ok());
    }

    #[test]
    fn percentiles_track_the_tail() {
        // 2% of samples in the tail: nearest-rank p99 must land there
        // (with exactly 1% it would sit right on the bulk boundary).
        let (m, obs) = (Metrics::new(), Recorder::new(&ROUTES, 4));
        for _ in 0..98 {
            record(&m, &obs, "/v1/query", 200, 10.0);
        }
        record(&m, &obs, "/v1/query", 200, 1_500.0);
        record(&m, &obs, "/v1/query", 200, 1_500.0);
        let json = m.render(&obs, 0, 0, 0);
        let latency = json.get("latency_ms").unwrap();
        let num = |key: &str| match latency.get(key) {
            Some(Json::Num(v)) => *v,
            other => panic!("{key} missing: {other:?}"),
        };
        assert!(num("p50") < 100.0, "median near the bulk");
        assert!(num("p99") > 1_000.0, "p99 sees the tail the mean hides");
        assert!(num("mean") < num("p99"));
    }

    #[test]
    fn normalize_route_covers_ids_and_unknowns() {
        let route = |path| ROUTES[normalize_route(path)];
        assert_eq!(route("/healthz"), "/healthz");
        assert_eq!(route("/v1/models/m-00"), "/v1/models/{id}");
        assert_eq!(route("/v1/artifacts/a-00"), "/v1/artifacts/{id}");
        assert_eq!(route("/v1/trace"), "/v1/trace");
        assert_eq!(route("/v1/trace/t-00"), "/v1/trace/{id}");
        assert_eq!(route("/nope"), "other");
    }
}
