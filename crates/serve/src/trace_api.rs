//! The `GET /v1/trace` routes: read-only access to the flight
//! recorder's ring of completed request traces.
//!
//! * `GET /v1/trace` — the retained traces, newest first, as summaries;
//! * `GET /v1/trace/{trace_id}` — one full trace: per-phase span
//!   timings, engine diagnostics (ESS, acceptance rate, ELBO tail), and
//!   request annotations.
//!
//! Every completed request whose response carried an `X-Ppl-Trace-Id`
//! header is addressable here until the ring (capacity
//! [`crate::api::TRACE_RING_CAPACITY`], oldest evicted first) rolls
//! over.

use crate::api::{ApiError, App};
use crate::http::Response;
use crate::json::Json;
use ppl_obs::{CompletedTrace, NUM_PHASES, PHASES};

/// Renders per-phase span nanoseconds as the `"spans_ms"` object of a
/// trace: each timed phase in milliseconds, untimed phases omitted.
pub(crate) fn spans_ms(nanos: &[u64; NUM_PHASES]) -> Json {
    Json::Obj(
        PHASES
            .iter()
            .filter(|phase| nanos[phase.index()] > 0)
            .map(|phase| {
                (
                    phase.as_str().to_string(),
                    Json::num_or_null(nanos[phase.index()] as f64 / 1e6),
                )
            })
            .collect(),
    )
}

fn trace_json(trace: &CompletedTrace) -> Json {
    let mut fields = vec![
        ("trace_id".to_string(), Json::str(trace.id.clone())),
        ("route".to_string(), Json::str(trace.route)),
        ("status".to_string(), Json::Num(f64::from(trace.status))),
        ("seq".to_string(), Json::Num(trace.seq as f64)),
        (
            "total_ms".to_string(),
            Json::num_or_null(trace.total_nanos as f64 / 1e6),
        ),
        ("spans_ms".to_string(), spans_ms(&trace.phase_nanos)),
    ];
    if !trace.engine.is_empty() {
        fields.push((
            "engine".to_string(),
            Json::Obj(
                trace
                    .engine
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::num_or_null(*value)))
                    .collect(),
            ),
        ));
    }
    for (key, value) in &trace.notes {
        fields.push((key.to_string(), Json::str(value.clone())));
    }
    Json::Obj(fields)
}

/// `GET /v1/trace`: the retained traces, newest first.
pub(crate) fn list_traces(app: &App) -> Response {
    let traces = app.obs.recent();
    let body = Json::Obj(vec![
        ("count".into(), Json::Num(traces.len() as f64)),
        ("capacity".into(), Json::Num(app.obs.ring_capacity() as f64)),
        ("enabled".into(), Json::Bool(app.obs.enabled())),
        (
            "traces".into(),
            Json::Arr(traces.iter().map(trace_json).collect()),
        ),
    ]);
    Response::json(200, body.write().expect("finite"))
}

/// `GET /v1/trace/{trace_id}`: one full trace, or `404 trace.unknown`
/// when the id was never recorded or has been evicted.
pub(crate) fn get_trace(app: &App, id: &str) -> Result<Response, ApiError> {
    let trace = app.obs.get(id).ok_or_else(|| {
        ApiError::new(
            404,
            "trace.unknown",
            format!("no retained trace '{id}' (evicted, never recorded, or tracing disabled)"),
        )
    })?;
    Ok(Response::json(
        200,
        trace_json(&trace).write().expect("finite"),
    ))
}
