//! Amortized inference over HTTP: `POST /v1/fit` and the
//! `/v1/artifacts[/{id}]` lifecycle.
//!
//! This is the serving half of the train → checkpoint → serve shape.
//! `POST /v1/fit` runs the engine-level VI fit (through
//! [`guide_ppl::Query::fit_vi`], which uses the same block-vectorised
//! particle executor as every other engine), persists the result as a
//! content-addressed [`Artifact`], and returns its id.  A later
//! `POST /v1/query` carrying `"artifact": "a-…"` skips the fit entirely:
//! the stored parameter vector and post-fit RNG state replay the draw
//! pass bit-identically to the fresh fit — and because guide types
//! already certified the guide against its model at admission time, the
//! reuse is *sound by construction* (the paper's compatibility theorem),
//! not an approximation heuristic.
//!
//! Only the fit-specific steps live here (the artifact id, idempotent
//! reuse, the fit, `fit.nonfinite`, persistence, the artifact JSON): the
//! request fields and the `"fit"` object decode with [`crate::api`]'s
//! decoders, and [`crate::api`] serves artifact-warm queries.
//!
//! # Idempotence
//!
//! The artifact id is a content hash over every fit input, computable
//! before the fit runs; re-fitting an identical request short-circuits to
//! `200` with `"created": false` and runs **zero** executions — the same
//! discipline `POST /v1/models` applies to re-submissions.
//!
//! # Error codes
//!
//! New stable codes follow the existing families: `fit.nonfinite` (the
//! optimiser diverged; a 400, the config's fault), `fit.persist` (disk
//! I/O failed; the only 500), and `artifact.not_found` (plus
//! `artifact.model_mismatch` and `artifact.version` on the warm query
//! path).  Client mistakes are never a 500.

use crate::api::{
    acquire_slot, bad_schema, build_query, decode_fields, decode_vi, find_model, fit_executions,
    from_session_error, parse_body, within_budget, ApiError, App,
};
use crate::http::{Request, Response};
use crate::json::Json;
use guide_ppl::sample_to_artifact_obs;
use ppl_store::{compute_id, Artifact, FitConfig, FitParam, StoreError, ARTIFACT_FORMAT_VERSION};
use std::sync::Arc;
use std::time::Instant;

/// Handles `POST /v1/fit`: runs (or reuses) a VI fit and persists it as
/// an artifact.
///
/// Wire format:
///
/// ```json
/// {
///   "model": "weight",
///   "observations": [9.0, 9.0],
///   "seed": 11,
///   "fit": {"iterations": 100, "samples_per_iteration": 8,
///           "learning_rate": 0.08, "fd_epsilon": 0.0001,
///           "params": [{"name": "mu", "init": 0.0}]},
///   "threads": 1,
///   "block": 64,
///   "model_args": []
/// }
/// ```
///
/// Every `fit` field defaults like the `/v1/query` VI method does
/// (`params` to the registry's initial variational parameters); `threads`
/// and `block` are perf knobs excluded from the artifact id.
pub fn fit(app: &Arc<App>, req: &Request) -> Result<Response, ApiError> {
    // Fits run many optimisation steps, so they get their own (small)
    // concurrency cap: a burst of fits sheds with a 429 instead of
    // starving the query lanes.
    let _slot = acquire_slot(app, &app.inflight_fit, app.limits.fit_concurrency, "fit")?;
    let doc = parse_body(req)?;
    let entry = find_model(app, &doc)?;
    entry.record_fit();
    let fields = decode_fields(app, &doc)?;
    let (params, config) = match doc.get("fit") {
        None => decode_vi(&Json::Obj(Vec::new()), "fit", &entry)?,
        Some(json @ Json::Obj(_)) => decode_vi(json, "fit", &entry)?,
        Some(_) => return Err(bad_schema("'fit' must be an object")),
    };
    // The fit schedules iterations × samples joint executions; the same
    // per-model budget as every other request applies.
    let cost = fit_executions(&config);
    within_budget(&entry, "the fit", cost)?;

    let schema: Vec<FitParam> = params
        .iter()
        .map(|p| FitParam {
            name: p.name.clone(),
            init: p.init,
            positive: p.positive,
        })
        .collect();
    let fit_config = FitConfig {
        iterations: config.iterations,
        samples_per_iteration: config.samples_per_iteration,
        learning_rate: config.learning_rate,
        fd_epsilon: config.fd_epsilon,
    };
    let obs_lits: Vec<_> = fields
        .observations
        .iter()
        .map(sample_to_artifact_obs)
        .collect();

    // Fits are bit-deterministic, so the artifact id is computable before
    // the fit runs — an identical request reuses the stored artifact with
    // zero executions.  Like threads and block, the deadline is a serving
    // knob outside the id: it never changes what a successful fit produces.
    let id = compute_id(
        &entry.id,
        &obs_lits,
        &fields.model_args,
        &schema,
        &fit_config,
        fields.seed,
    );
    if let Some(existing) = app.store.get(&id) {
        return Ok(fit_response(200, &existing, false));
    }

    let query = build_query(&entry, &fields, &[])?;
    let started = Instant::now();
    // An expired or drained token aborts fit_vi with a structured error
    // before `store.put` runs — a cancelled fit never persists an
    // artifact.
    let vi_fit = {
        let _span = ppl_obs::Span::enter(ppl_obs::Phase::InferFit);
        query.fit_vi(&params, &config).map_err(from_session_error)?
    };
    entry.record_execution(cost, started.elapsed().as_nanos() as u64);

    if vi_fit.result.params.iter().any(|p| !p.is_finite()) {
        return Err(ApiError::new(
            400,
            "fit.nonfinite",
            "the fit diverged to non-finite parameters; lower the learning rate or \
             increase samples_per_iteration",
        ));
    }

    let trace_len = vi_fit.result.elbo_trace.len();
    let tail_len = (trace_len / 10).max(1);
    let artifact = Artifact {
        version: ARTIFACT_FORMAT_VERSION,
        id,
        model_id: entry.id.clone(),
        seed: fields.seed,
        observations: obs_lits,
        model_args: fields.model_args,
        schema,
        config: fit_config,
        params: vi_fit.result.params.clone(),
        fit_iterations: trace_len as u64,
        elbo_tail: vi_fit.result.elbo_trace[trace_len - tail_len..].to_vec(),
        rng_state: vi_fit.rng_state,
        rng_inc: vi_fit.rng_inc,
    };
    let (id, created) = app.store.put(artifact).map_err(store_error)?;
    let stored = app.store.get(&id).expect("just inserted");
    Ok(fit_response(
        if created { 201 } else { 200 },
        &stored,
        created,
    ))
}

/// Handles `GET /v1/artifacts`: the deterministic (id-sorted) listing.
pub fn list_artifacts(app: &Arc<App>) -> Response {
    let artifacts = app.store.list();
    let body = Json::Obj(vec![
        (
            "artifacts".into(),
            Json::Arr(artifacts.iter().map(|a| artifact_json(a)).collect()),
        ),
        ("count".into(), Json::Num(artifacts.len() as f64)),
        ("bytes".into(), Json::Num(app.store.bytes() as f64)),
        (
            "warm_starts".into(),
            Json::Num(app.store.warm_starts() as f64),
        ),
    ]);
    Response::json(200, body.write().expect("finite"))
}

/// Handles `GET /v1/artifacts/{id}`.
pub fn get_artifact(app: &Arc<App>, id: &str) -> Result<Response, ApiError> {
    let artifact = app.store.get(id).ok_or_else(|| unknown_artifact(404, id))?;
    Ok(Response::json(
        200,
        artifact_json(&artifact).write().expect("finite"),
    ))
}

/// Handles `DELETE /v1/artifacts/{id}`.
pub fn delete_artifact(app: &Arc<App>, id: &str) -> Result<Response, ApiError> {
    if !app.store.delete(id) {
        return Err(unknown_artifact(404, id));
    }
    let body = Json::Obj(vec![("deleted".into(), Json::str(id))]);
    Ok(Response::json(200, body.write().expect("finite")))
}

/// The `artifact.not_found` error, a `404` on the artifact routes and a
/// `400` on an artifact-warm query.
pub(crate) fn unknown_artifact(status: u16, id: &str) -> ApiError {
    ApiError::new(
        status,
        "artifact.not_found",
        format!("no artifact '{id}' in the store"),
    )
}

fn store_error(err: StoreError) -> ApiError {
    match &err {
        // Disk trouble is a server fault: the fit succeeded but could not
        // be persisted.
        StoreError::Io { .. } => ApiError::new(500, "fit.persist", err.to_string()),
        StoreError::Encode => ApiError::new(400, "fit.nonfinite", err.to_string()),
        StoreError::Artifact(e) => ApiError::new(400, e.code(), err.to_string()),
    }
}

/// The wire representation of one artifact (listing, `GET`, and the
/// `/v1/fit` response).
fn artifact_json(a: &Artifact) -> Json {
    let final_elbo = if a.elbo_tail.is_empty() {
        Json::Null
    } else {
        Json::num_or_null(a.elbo_tail.iter().sum::<f64>() / a.elbo_tail.len() as f64)
    };
    Json::Obj(vec![
        ("id".into(), Json::str(a.id.clone())),
        ("model".into(), Json::str(a.model_id.clone())),
        ("version".into(), Json::Num(a.version as f64)),
        ("seed".into(), Json::Num(a.seed as f64)),
        (
            "observations".into(),
            Json::Num(a.observations.len() as f64),
        ),
        (
            "config".into(),
            Json::Obj(vec![
                ("iterations".into(), Json::Num(a.config.iterations as f64)),
                (
                    "samples_per_iteration".into(),
                    Json::Num(a.config.samples_per_iteration as f64),
                ),
                (
                    "learning_rate".into(),
                    Json::num_or_null(a.config.learning_rate),
                ),
                ("fd_epsilon".into(), Json::num_or_null(a.config.fd_epsilon)),
            ]),
        ),
        (
            "params".into(),
            Json::Arr(
                a.schema
                    .iter()
                    .zip(&a.params)
                    .map(|(p, &value)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(p.name.clone())),
                            ("value".into(), Json::num_or_null(value)),
                            ("positive".into(), Json::Bool(p.positive)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("fit_iterations".into(), Json::Num(a.fit_iterations as f64)),
        ("final_elbo".into(), final_elbo),
    ])
}

fn fit_response(status: u16, artifact: &Artifact, created: bool) -> Response {
    let mut fields = match artifact_json(artifact) {
        Json::Obj(fields) => fields,
        _ => unreachable!("artifact_json returns an object"),
    };
    fields.push(("created".into(), Json::Bool(created)));
    Response::json(status, Json::Obj(fields).write().expect("finite"))
}
