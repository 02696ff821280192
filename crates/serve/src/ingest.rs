//! Model ingestion: `POST /v1/models` and the `/v1/models/{id}` lifecycle.
//!
//! This is where the paper's type system becomes an *admission-control
//! policy*.  A submission carries untrusted model and guide source text;
//! the server runs the full pipeline — parse, guide-type inference,
//! model–guide compatibility (the absolute-continuity certificate of
//! Theorem 5.2), compilation — and only a pair that passes every stage is
//! registered and becomes queryable through `/v1/query` / `/v1/batch`.
//! Every rejection is a structured `400` with a stable machine-readable
//! code (`parse.unexpected_token`, `type.guide_mismatch`, …) and, where
//! the offending program came from source text, a 1-based line:column
//! position.  Submissions never produce a `500` and never crash a worker.
//!
//! # Content-hash ids
//!
//! An admitted model is registered under `m-<16 hex>`: the SHA-256 of the
//! length-prefixed `(model_src, model_proc, guide_src, guide_proc)` tuple.
//! Identical sources therefore map to the same id — re-submission is
//! idempotent (`200` with `"created": false` instead of `201`) — and the
//! id is safe to embed in response-cache fingerprints: an id names exactly
//! one program pair forever, so cached bytes stay valid across eviction
//! and re-submission.
//!
//! # Resource fences
//!
//! Submitters are untrusted, so every stage is bounded:
//!
//! * source size — each source is capped at [`MAX_SOURCE_BYTES`]
//!   (`limit.source_bytes`), under the transport's 1 MiB body cap;
//! * parse depth — the parser rejects nesting beyond
//!   `ppl_syntax::MAX_PARSE_DEPTH` (`parse.depth`) instead of smashing the
//!   stack;
//! * compile fuel — programs larger than [`MAX_PROGRAM_NODES`] command
//!   nodes are rejected (`limit.compile_fuel`) before type inference,
//!   which bounds checker and compiler work (both linear in node count)
//!   and caps recursion over flat command chains;
//! * execution budget — admitted models carry
//!   [`crate::registry::MAX_USER_MODEL_EXECUTIONS`], a tenth of the
//!   builtin per-request budget, enforced by the same
//!   `MAX_REQUEST_EXECUTIONS` accounting as every other request;
//! * registry pressure — user models live in a bounded LRU table
//!   (builtins are never evicted).

use crate::api::{bad_schema, model_json, parse_body, ApiError, App};
use crate::http::{Request, Response};
use crate::json::Json;
use crate::registry::{ModelEntry, ModelOrigin, MAX_USER_MODEL_EXECUTIONS};
use guide_ppl::{Session, SessionError};
use ppl_store::sha::Sha256;
use ppl_syntax::{parse_program, ParseError, Program};
use ppl_types::infer_program;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Maximum byte length of each submitted source (model and guide
/// separately).
pub const MAX_SOURCE_BYTES: usize = 64 * 1024;

/// Maximum total command nodes across both programs (compile fuel).
///
/// Type checking, trace-type analysis, and compilation are linear in this
/// count, and several of those passes recurse along `Bind` chains — the
/// fuel keeps that recursion shallow enough for a 2 MiB worker stack with
/// a wide margin.
pub const MAX_PROGRAM_NODES: usize = 512;

/// Maximum byte length of a submitted model name.
pub const MAX_NAME_BYTES: usize = 64;

/// Handles `POST /v1/models`: admits or rejects a submitted model–guide
/// pair.
pub fn submit(app: &Arc<App>, req: &Request) -> Result<Response, ApiError> {
    if app.registry.user_capacity() == 0 {
        return Err(ApiError::new(
            403,
            "model.submissions_disabled",
            "this server runs with --user-models 0; submissions are disabled",
        ));
    }
    let doc = parse_body(req)?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_schema("'name' must be a string"))?;
    if name.is_empty() || name.len() > MAX_NAME_BYTES {
        return Err(bad_schema(format!(
            "'name' must be 1..={MAX_NAME_BYTES} bytes"
        )));
    }
    let model_src = source_field(&doc, "model_src")?;
    let guide_src = source_field(&doc, "guide_src")?;

    // Parse both programs; the parser's own depth fence turns pathological
    // nesting into `parse.depth` rather than a stack overflow.
    let model_prog = parse_program(model_src).map_err(|e| parse_error("model", e))?;
    let guide_prog = parse_program(guide_src).map_err(|e| parse_error("guide", e))?;

    // Compile fuel: everything downstream is linear in command nodes.
    let nodes = model_prog.size() + guide_prog.size();
    if nodes > MAX_PROGRAM_NODES {
        return Err(ApiError::new(
            400,
            "limit.compile_fuel",
            format!(
                "programs total {nodes} command nodes, above the admission limit of {MAX_PROGRAM_NODES}"
            ),
        )
        .with("nodes", Json::Num(nodes as f64))
        .with("limit", Json::Num(MAX_PROGRAM_NODES as f64)));
    }

    let model_proc = proc_field(&doc, "model_proc", "model", &model_prog)?;
    let guide_proc = proc_field(&doc, "guide_proc", "guide", &guide_prog)?;

    // The id is a pure function of the sources: identical submissions are
    // idempotent, and the id can never alias a different program pair.
    let id = model_id(model_src, &model_proc, guide_src, &guide_proc);
    if let Some(existing) = app.registry.get(&id) {
        existing
            .submissions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let artifacts = app.store.count_for_model(&id);
        return Ok(submit_response(200, &existing, artifacts, false));
    }

    // Guide-type inference per program, so a type error names which
    // source it came from; the session takes both results as they are.
    let model_env = infer_program(&model_prog).map_err(|e| type_error(Some("model"), e.into()))?;
    let guide_env = infer_program(&guide_prog).map_err(|e| type_error(Some("guide"), e.into()))?;

    // The admission gate: model–guide compatibility (Theorem 5.2) plus
    // compilation to shared program tables.
    let session = {
        let _span = ppl_obs::Span::enter(ppl_obs::Phase::Compile);
        Session::from_inferred(
            model_prog,
            &model_proc,
            model_env,
            guide_prog,
            &guide_proc,
            guide_env,
        )
        .map_err(|e| type_error(None, e))?
    };

    let entry = ModelEntry {
        id: id.clone(),
        name: name.to_string(),
        description: format!("user model (proc {model_proc} / guide {guide_proc})"),
        latent_protocol: session.latent_protocol(),
        observation_protocol: session.observation_protocol(),
        default_observation_count: 0,
        default_method: "IS",
        guide_param_defaults: Vec::new(),
        session: Arc::new(session),
        origin: ModelOrigin::User,
        max_request_executions: MAX_USER_MODEL_EXECUTIONS,
        submissions: AtomicU64::new(1),
        queries: AtomicU64::new(0),
        fits: AtomicU64::new(0),
        executions: AtomicU64::new(0),
        execution_nanos: AtomicU64::new(0),
    };
    match app.registry.insert_user(entry) {
        // A re-admitted model (same content hash) may already own
        // persisted artifacts from an earlier residency.
        Some((entry, created)) => Ok(submit_response(
            if created { 201 } else { 200 },
            &entry,
            app.store.count_for_model(&entry.id),
            created,
        )),
        None => Err(ApiError::new(
            403,
            "model.submissions_disabled",
            "this server runs with --user-models 0; submissions are disabled",
        )),
    }
}

/// Handles `GET /v1/models/{id}`.
pub fn get_model(app: &Arc<App>, id: &str) -> Result<Response, ApiError> {
    let entry = app.registry.get(id).ok_or_else(|| unknown_model(id))?;
    let body = model_json(&entry, app.store.count_for_model(&entry.id));
    Ok(Response::json(200, body.write().expect("finite")))
}

/// Handles `DELETE /v1/models/{id}`: removes a user model.  Builtins are
/// part of the served catalogue and cannot be deleted.
pub fn delete_model(app: &Arc<App>, id: &str) -> Result<Response, ApiError> {
    match app.registry.get(id) {
        None => Err(unknown_model(id)),
        Some(entry) if entry.origin == ModelOrigin::Builtin => Err(ApiError::new(
            403,
            "model.builtin",
            format!("model '{id}' is a builtin benchmark and cannot be deleted"),
        )),
        Some(_) => {
            app.registry.remove_user(id);
            let body = Json::Obj(vec![("deleted".into(), Json::str(id))]);
            Ok(Response::json(200, body.write().expect("finite")))
        }
    }
}

fn unknown_model(id: &str) -> ApiError {
    ApiError::new(
        404,
        "model.unknown",
        format!("no model '{id}' in the registry"),
    )
}

fn source_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    let src = doc
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad_schema(format!("'{key}' must be a string of source text")))?;
    if src.len() > MAX_SOURCE_BYTES {
        return Err(ApiError::new(
            400,
            "limit.source_bytes",
            format!(
                "'{key}' is {} bytes, above the admission limit of {MAX_SOURCE_BYTES}",
                src.len()
            ),
        )
        .with("source", Json::str(key.trim_end_matches("_src")))
        .with("bytes", Json::Num(src.len() as f64))
        .with("limit", Json::Num(MAX_SOURCE_BYTES as f64)));
    }
    Ok(src)
}

fn proc_field(doc: &Json, key: &str, which: &str, program: &Program) -> Result<String, ApiError> {
    let name = match doc.get(key) {
        Some(json) => json
            .as_str()
            .ok_or_else(|| bad_schema(format!("'{key}' must be a string")))?
            .to_string(),
        // Default to the first declared procedure.
        None => program
            .procs
            .first()
            .map(|p| p.name.as_str().to_string())
            .ok_or_else(|| bad_schema(format!("{which}_src declares no procedures")))?,
    };
    if program.proc_named(&name).is_none() {
        return Err(bad_schema(format!(
            "{which}_src declares no procedure named '{name}'"
        )));
    }
    Ok(name)
}

/// Maps a [`ParseError`] to the structured 400 body, naming the offending
/// source and position.
fn parse_error(source: &str, e: ParseError) -> ApiError {
    ApiError::new(400, e.code(), e.to_string())
        .with("source", Json::str(source))
        .with("line", Json::Num(e.line as f64))
        .with("col", Json::Num(e.col as f64))
}

/// Maps a pipeline [`SessionError`] to the structured 400 body.  `source`
/// names the program the error is attributed to, when known (model–guide
/// compatibility errors span both).
fn type_error(source: Option<&str>, e: SessionError) -> ApiError {
    let mut api = ApiError::new(400, e.code(), e.to_string());
    if let Some(source) = source {
        api = api.with("source", Json::str(source));
    }
    if let Some((line, col)) = e.position() {
        api = api
            .with("line", Json::Num(line as f64))
            .with("col", Json::Num(col as f64));
    }
    if let SessionError::Incompatible {
        model_latent,
        guide_latent,
    } = &e
    {
        api = api
            .with("model_latent", Json::str(model_latent.clone()))
            .with("guide_latent", Json::str(guide_latent.clone()));
    }
    api
}

fn submit_response(status: u16, entry: &ModelEntry, artifacts: u64, created: bool) -> Response {
    let mut fields = match model_json(entry, artifacts) {
        Json::Obj(fields) => fields,
        _ => unreachable!("model_json returns an object"),
    };
    fields.push(("created".into(), Json::Bool(created)));
    Response::json(status, Json::Obj(fields).write().expect("finite"))
}

/// The deterministic content-hash model id: `m-` plus the first 16 hex
/// digits of the SHA-256 of the length-prefixed source tuple.  Length
/// prefixes keep the encoding injective (no concatenation ambiguity
/// between the four fields).
pub fn model_id(model_src: &str, model_proc: &str, guide_src: &str, guide_proc: &str) -> String {
    let mut hasher = Sha256::new();
    for part in [model_src, model_proc, guide_src, guide_proc] {
        hasher.update(&(part.len() as u64).to_le_bytes());
        hasher.update(part.as_bytes());
    }
    let digest = hasher.finalize();
    let mut id = String::with_capacity(18);
    id.push_str("m-");
    for byte in &digest[..8] {
        use std::fmt::Write;
        let _ = write!(id, "{byte:02x}");
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_ids_are_deterministic_and_injective_on_field_boundaries() {
        let a = model_id("proc A", "A", "proc G", "G");
        assert_eq!(a, model_id("proc A", "A", "proc G", "G"));
        assert!(a.starts_with("m-") && a.len() == 18, "{a}");
        // Shifting bytes across the field boundary changes the id.
        assert_ne!(a, model_id("proc AA", "", "proc G", "G"));
        assert_ne!(a, model_id("proc A", "A", "proc GG", ""));
    }
}
