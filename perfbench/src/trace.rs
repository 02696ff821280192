//! The traced run: per-layer metrics and the closure check.
//!
//! It first runs the untraced closed loop for a third of the window, for
//! the reference `op_p50_ms`.  Then the same two clients continue the same
//! seeded op streams with tracing on.  For every request the client records
//! the loopback round trip, then calls `App::handler()` on a twin app (its
//! own, with the flight recorder on and off in alternating order), then
//! replays the request's pipeline through each layer's public entry point,
//! one span per call:
//!
//! * queries: `Json::parse`, `QueryBuilder::build`, `Query::run` (with the
//!   counting allocator armed), `summarize_sample`,
//!   `query_response_json(..).write()`, then the drop of the posterior;
//! * submissions: `parse_program`, `infer_program`, `check_model_guide`,
//!   then `CompiledProgram::compile_shared`.
//!
//! Probes on the same executors then time one first block on a fresh
//! `JointScratch`, warm blocks of 64 lanes, the warm scalar coroutine path
//! (`run_with_scratch`) on the same particles, and the batched `dist`
//! kernels over the model's sample sites.  Spans stay in memory and are
//! written once, at exit, to `perfbench/out/`.

use crate::alloc;
use crate::client::{Client, Response};
use crate::run::{self, Log};
use crate::spans::{self, Recorder, Span, NO_PARENT};
use crate::stats;
use crate::workload::{self, Op, QuerySpec, Submission, Workload};
use crate::{Metric, Outcome};
use guide_ppl::dist::rng::Pcg32;
use guide_ppl::dist::{Distribution, Sample};
use guide_ppl::runtime::{CompiledProgram, JointResult, JointScratch, LatentSource};
use guide_ppl::syntax::{parse_program, Cmd, DistExpr, Expr, Ident, Program};
use guide_ppl::types::{check_model_guide, infer_program};
use guide_ppl::{Method, Posterior, Query};
use ppl_serve::http::Handler;
use ppl_serve::{App, Json, Request};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Lanes per block, as the server runs them.
const LANES: usize = guide_ppl::inference::DEFAULT_BLOCK;
/// Warm blocks timed per probe (the scalar probe runs the same particles).
const PROBE_BLOCKS: usize = 4;
/// Passes over a model's sample sites per kernel probe.
const DIST_REPS: usize = 8;
/// Pipeline replays per rotation model when no op submits sources.
const PIPELINE_REPS: usize = 5;

/// A twin of the served app: same registry and limits, its own recorder.
struct Twin {
    app: Arc<App>,
    handler: Handler,
}

impl Twin {
    fn new(cache: usize) -> Twin {
        let app = run::app(cache);
        let handler = app.handler();
        Twin { app, handler }
    }

    /// Handles `request` twice, recorder on and recorder off, in the given
    /// order; returns the recorder-on response.
    fn paired(&self, rec: &mut Recorder, request: &Request, on_first: bool) -> ppl_serve::Response {
        let mut on_response = None;
        for on in [on_first, !on_first] {
            self.app.obs.set_enabled(on);
            let span = rec.enter(if on {
                "serve.handler"
            } else {
                "obs.handler_off"
            });
            let response = (self.handler)(request);
            rec.exit(span);
            if on {
                on_response = Some(response);
            }
        }
        self.app.obs.set_enabled(true);
        on_response.expect("one pass had the recorder on")
    }

    /// Handles `request` once, recorder on, as a `serve.handler` span.
    fn timed(&self, rec: &mut Recorder, request: &Request) -> ppl_serve::Response {
        let span = rec.enter("serve.handler");
        let response = (self.handler)(request);
        rec.exit(span);
        response
    }
}

fn request((method, path, body): (&str, &str, &str)) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        query: None,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Non-time facts of one replayed query.
struct QueryFacts {
    template: &'static str,
    particles: u64,
    allocs: u64,
    ess_ratio: f64,
    is_run_ns: f64,
    probe: Option<Probe>,
}

/// Runtime probe results, nanoseconds.
#[derive(Clone, Copy)]
struct Probe {
    plan_compile_ns: f64,
    block_ns_per_particle: f64,
    scalar_ns_per_particle: f64,
}

/// One client's traced state.
struct Tracer {
    rec: Recorder,
    cold: Twin,
    warm: Twin,
    sites: HashMap<&'static str, Vec<Distribution>>,
    facts: Vec<QueryFacts>,
    /// Per traced op: the summed loopback round trips (the served op).
    served_ms: Vec<f64>,
    flip: bool,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer {
            rec: Recorder::new(epoch),
            cold: Twin::new(0),
            warm: Twin::new(run::CACHE),
            sites: HashMap::new(),
            facts: Vec::new(),
            served_ms: Vec::new(),
            flip: false,
        }
    }

    fn sites(&mut self, template: &'static str) -> &[Distribution] {
        self.sites.entry(template).or_insert_with(|| {
            let bench = workload::benchmark(template);
            let mut out = Vec::new();
            for src in [bench.model_src, bench.guide_src] {
                let program = parse_program(src).expect("registry sources parse");
                collect_sites(&program, &mut out);
            }
            out
        })
    }
}

/// One instance per sample site, with literal parameters taken as written
/// and computed ones replaced by a representative value.
fn collect_sites(program: &Program, out: &mut Vec<Distribution>) {
    fn walk(cmd: &Cmd, out: &mut Vec<Distribution>) {
        match cmd {
            Cmd::Sample {
                dist: Expr::Dist(d),
                ..
            } => out.extend(instantiate(d)),
            Cmd::Bind { first, rest, .. } => {
                walk(first, out);
                walk(rest, out);
            }
            Cmd::Branch {
                then_cmd, else_cmd, ..
            } => {
                walk(then_cmd, out);
                walk(else_cmd, out);
            }
            _ => {}
        }
    }
    for p in &program.procs {
        walk(&p.body, out);
    }
}

fn instantiate(d: &DistExpr) -> Option<Distribution> {
    let lit = |e: &Expr, default: f64| match e {
        Expr::Real(x) => *x,
        Expr::Nat(n) => *n as f64,
        _ => default,
    };
    match d {
        DistExpr::Normal(m, s) => Distribution::normal(lit(m, 0.0), lit(s, 1.0)).ok(),
        DistExpr::Bernoulli(p) => Distribution::bernoulli(lit(p, 0.5)).ok(),
        DistExpr::Beta(a, b) => Distribution::beta(lit(a, 2.0), lit(b, 2.0)).ok(),
        DistExpr::Gamma(a, b) => Distribution::gamma(lit(a, 2.0), lit(b, 1.0)).ok(),
        DistExpr::Geometric(p) => Distribution::geometric(lit(p, 0.5)).ok(),
        DistExpr::Poisson(r) => Distribution::poisson(lit(r, 4.0)).ok(),
        DistExpr::Categorical(ws) => {
            Distribution::categorical(ws.iter().map(|w| lit(w, 1.0)).collect()).ok()
        }
        DistExpr::Uniform => Some(Distribution::uniform()),
    }
}

/// The batched kernels over `sites`, 64 lanes per call.
fn dist_probe(rec: &mut Recorder, sites: &[Distribution], seed: u64) {
    let master = Pcg32::seed_from_u64(seed);
    let mut rngs: Vec<Pcg32> = (0..LANES as u64).map(|i| master.split(i)).collect();
    let mut samples = vec![vec![Sample::Real(0.0); LANES]; sites.len()];
    let lanes = (DIST_REPS * sites.len() * LANES) as u64;
    let span = rec.enter("dist.sample");
    for _ in 0..DIST_REPS {
        for (d, out) in sites.iter().zip(&mut samples) {
            d.sample_batch(&mut rngs, out);
            black_box(&out);
        }
    }
    rec.exit(span);
    rec.set_units(span, lanes);
    let xs: Vec<Vec<f64>> = samples
        .iter()
        .map(|v| v.iter().map(Sample::as_f64).collect())
        .collect();
    let mut density = vec![0.0; LANES];
    let span = rec.enter("dist.log_density");
    for _ in 0..DIST_REPS {
        for (d, x) in sites.iter().zip(&xs) {
            d.log_density_batch(x, &mut density);
            black_box(&density);
        }
    }
    rec.exit(span);
    rec.set_units(span, lanes);
}

/// Block-plan compile, warm block and warm scalar execution on the
/// query's own executor and particles.
fn runtime_probe(rec: &mut Recorder, query: &Query, seed: u64) -> Result<Probe, String> {
    let exec = query.executor();
    let spec = query.spec();
    let master = Pcg32::seed_from_u64(seed);
    let mut scratch = JointScratch::new();
    let mut out: Vec<JointResult> = Vec::with_capacity(LANES);
    let err = |e: guide_ppl::runtime::RuntimeError| e.to_string();
    let mut block = |rec: &mut Recorder, name, first: usize, blocks: usize| {
        let span = rec.enter(name);
        for b in 0..blocks {
            let first = (first + b * LANES) as u64;
            exec.run_block_with_scratch(spec, &master, first, LANES, &mut scratch, &mut out)?;
            for r in out.drain(..) {
                scratch.recycle(r.latent);
            }
        }
        rec.exit(span);
        rec.set_units(span, (blocks * LANES) as u64);
        Ok::<f64, guide_ppl::runtime::RuntimeError>(rec.spans()[span as usize].duration_ns() as f64)
    };
    let first_ns = block(rec, "runtime.first_block", 0, 1).map_err(err)?;
    let warm_ns = block(rec, "runtime.warm_block", LANES, 1).map_err(err)?;
    let probe_first = 2 * LANES;
    let block_ns = block(rec, "runtime.block", probe_first, PROBE_BLOCKS).map_err(err)?;

    let mut scalar = JointScratch::new();
    let warm_up = exec
        .run_with_scratch(
            spec,
            LatentSource::FromGuide,
            &mut master.split(0),
            &mut scalar,
        )
        .map_err(err)?;
    scalar.recycle(warm_up.latent);
    let particles = PROBE_BLOCKS * LANES;
    let span = rec.enter("runtime.scalar");
    for i in 0..particles {
        let mut rng = master.split((probe_first + i) as u64);
        let r = exec
            .run_with_scratch(spec, LatentSource::FromGuide, &mut rng, &mut scalar)
            .map_err(err)?;
        scalar.recycle(r.latent);
    }
    rec.exit(span);
    rec.set_units(span, particles as u64);
    let scalar_ns = rec.spans()[span as usize].duration_ns() as f64;
    Ok(Probe {
        plan_compile_ns: first_ns - warm_ns,
        block_ns_per_particle: block_ns / particles as f64,
        scalar_ns_per_particle: scalar_ns / particles as f64,
    })
}

/// Runs `f` inside a request span named `class` (`req.query`, …).
fn in_request<T>(
    t: &mut Tracer,
    class: &'static str,
    f: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    let span = t.rec.enter(class);
    let result = f(t);
    t.rec.exit(span);
    result
}

/// The loopback round trip as a `serve.roundtrip` span, checked like an
/// untraced one; returns the response and the round-trip nanoseconds.
fn round_trip(
    t: &mut Tracer,
    client: &mut Client,
    (method, path, body): (&str, &str, &str),
    status: u16,
    cache_hit: Option<bool>,
) -> Result<(Response, u64), String> {
    let span = t.rec.enter("serve.roundtrip");
    let served = run::exchange(client, method, path, body, status, cache_hit);
    t.rec.exit(span);
    Ok((served?, t.rec.spans()[span as usize].duration_ns()))
}

/// A cold query: round trip, twin handler pair, pipeline replay, probes.
/// Returns the served body and the round-trip nanoseconds.
fn cold_query(
    t: &mut Tracer,
    client: &mut Client,
    spec: &QuerySpec,
    probes: bool,
) -> Result<(Vec<u8>, u64), String> {
    in_request(t, "req.query", |t| replay_query(t, client, spec, probes))
}

fn replay_query(
    t: &mut Tracer,
    client: &mut Client,
    spec: &QuerySpec,
    probes: bool,
) -> Result<(Vec<u8>, u64), String> {
    let body = spec.body();
    let call = ("POST", "/v1/query", body.as_str());
    let (served, rt_ns) = round_trip(t, client, call, 200, Some(false))?;

    t.flip = !t.flip;
    let twin = t.cold.paired(&mut t.rec, &request(call), t.flip);
    if twin.body != served.body {
        return Err("the twin app's cold body differs from the served one".into());
    }

    let entry = t
        .cold
        .app
        .registry
        .get(&spec.model)
        .ok_or_else(|| format!("twin registry lacks '{}'", spec.model))?;
    let rec = &mut t.rec;
    let doc = rec.time("store.json_decode", || Json::parse(&body));
    doc.map_err(|e| format!("request body: {e}"))?;
    let query = rec
        .time("core.query_build", || {
            entry
                .session
                .query()
                .observe(spec.observations.iter().cloned())
                .seed(spec.seed)
                .block(LANES)
                .build()
        })
        .map_err(|e| e.to_string())?;
    let method = Method::Importance {
        particles: spec.particles,
    };
    let run = rec.enter("inference.is_run");
    let (posterior, allocs) = alloc::count(|| query.run(&method));
    rec.exit(run);
    rec.set_units(run, spec.particles as u64);
    let is_run_ns = rec.spans()[run as usize].duration_ns() as f64;
    let posterior = posterior.map_err(|e| e.to_string())?;
    black_box(rec.time("inference.summarize", || posterior.summarize_sample(0)));
    // The summary inside `query_response_json` runs on warm data; an
    // equally warm summary is the part of the encode span that is not JSON.
    black_box(rec.time("store.summarize_ref", || posterior.summarize_sample(0)));
    let encoded = rec
        .time("store.json_encode", || {
            ppl_serve::api::query_response_json(&spec.model, &method, spec.seed, &posterior, 0)
                .write()
        })
        .map_err(|e| e.to_string())?;
    if encoded.as_bytes() != served.body.as_slice() {
        return Err(format!(
            "served body of {} seed {} differs from the in-process run",
            spec.template, spec.seed
        ));
    }
    let ess_ratio = posterior.ess() / spec.particles as f64;
    rec.time("inference.result_drop", || drop(posterior));

    let probe = if probes {
        let sites = t.sites(spec.template).to_vec();
        dist_probe(&mut t.rec, &sites, spec.seed);
        Some(runtime_probe(&mut t.rec, &query, spec.seed)?)
    } else {
        None
    };
    t.facts.push(QueryFacts {
        template: spec.template,
        particles: spec.particles as u64,
        allocs,
        ess_ratio,
        is_run_ns,
        probe,
    });
    Ok((served.body, rt_ns))
}

/// A submission: round trip, twin handler, pipeline replay.
fn submit(t: &mut Tracer, client: &mut Client, sub: &Submission) -> Result<u64, String> {
    in_request(t, "req.submit", |t| {
        let body = sub.body();
        let call = ("POST", "/v1/models", body.as_str());
        let (served, rt_ns) = round_trip(t, client, call, 201, None)?;
        run::check_minted_id(&served.body, sub)?;
        // A second submission of the same sources is not the same work, so
        // submissions are timed once, recorder on; the warm twin needs the
        // model for the hits.
        let http = request(call);
        let timed = t.cold.timed(&mut t.rec, &http);
        let untimed = (t.warm.handler)(&http);
        if timed.status != 201 || untimed.status != 201 {
            return Err("a twin app refused the submission".into());
        }
        pipeline(
            &mut t.rec,
            &sub.model_src,
            sub.model_proc,
            sub.guide_src,
            sub.guide_proc,
        )?;
        Ok(rt_ns)
    })
}

/// Parse, guide-type inference, the Thm 5.2 check and compilation.
fn pipeline(
    rec: &mut Recorder,
    model_src: &str,
    model_proc: &str,
    guide_src: &str,
    guide_proc: &str,
) -> Result<(), String> {
    let (model, guide) = rec.time("syntax.parse", || {
        (parse_program(model_src), parse_program(guide_src))
    });
    let (model, guide) = (
        model.map_err(|e| e.to_string())?,
        guide.map_err(|e| e.to_string())?,
    );
    let (menv, genv) = rec.time("types.infer", || {
        (infer_program(&model), infer_program(&guide))
    });
    let (menv, genv) = (
        menv.map_err(|e| e.to_string())?,
        genv.map_err(|e| e.to_string())?,
    );
    let (mproc, gproc) = (Ident::from(model_proc), Ident::from(guide_proc));
    let compat = rec.time("types.check", || {
        check_model_guide(&menv, &mproc, &genv, &gproc)
    });
    if !compat.map_err(|e| e.to_string())?.compatible {
        return Err("model and guide are incompatible".into());
    }
    black_box(rec.time("runtime.compile", || {
        (
            CompiledProgram::compile_shared(&model),
            CompiledProgram::compile_shared(&guide),
        )
    }));
    Ok(())
}

/// A repeated query: round trip and twin handler pair, all cache hits.
fn hit(t: &mut Tracer, client: &mut Client, body: &str, cold: &[u8]) -> Result<u64, String> {
    let call = ("POST", "/v1/query", body);
    let http = request(call);
    // Fill the warm twin's cache line (untimed) so both passes below hit.
    (t.warm.handler)(&http);
    in_request(t, "req.hit", |t| {
        let (served, rt_ns) = round_trip(t, client, call, 200, Some(true))?;
        if served.body != cold {
            return Err("a cache hit differs from its cold response".into());
        }
        t.flip = !t.flip;
        if t.warm.paired(&mut t.rec, &http, t.flip).body != cold {
            return Err("the twin app's hit differs from the served cold body".into());
        }
        Ok(rt_ns)
    })
}

/// `GET /metrics`: round trip and twin handler pair.
fn scrape(t: &mut Tracer, client: &mut Client) -> Result<u64, String> {
    let call = ("GET", "/metrics", "");
    in_request(t, "req.scrape", |t| {
        let (_, rt_ns) = round_trip(t, client, call, 200, None)?;
        t.flip = !t.flip;
        t.warm.paired(&mut t.rec, &request(call), t.flip);
        Ok(rt_ns)
    })
}

/// One traced op; returns the served time (summed round trips), ns.
fn traced_op(t: &mut Tracer, client: &mut Client, op: &Op) -> Result<u64, String> {
    match op {
        Op::Query(spec) => cold_query(t, client, spec, true).map(|(_, ns)| ns),
        Op::Session {
            submission,
            queries,
        } => {
            let mut served = submit(t, client, submission)?;
            let mut colds = Vec::with_capacity(queries.len());
            for (j, spec) in queries.iter().enumerate() {
                let (body, ns) = cold_query(t, client, spec, j == 0)?;
                served += ns;
                colds.push(body);
            }
            for (spec, cold) in queries.iter().zip(&colds) {
                served += hit(t, client, &spec.body(), cold)?;
            }
            Ok(served + scrape(t, client)?)
        }
    }
}

/// The traced run.
pub fn traced_run(workload: Workload, seed: u64, window: Duration) -> Result<Outcome, String> {
    let mut setup = run::set_up(workload).map_err(|e| format!("set-up failed: {e}"))?;
    let mut attempted = setup.warm_ops;
    let mut failed = setup.errors.len() as u64;
    let mut errors = setup.errors.clone();

    // The untraced reference window, a third as long.
    let start = Instant::now();
    let calibration = run::closed_loop(
        workload,
        &mut setup.clients,
        start,
        (window / 3).max(Duration::from_secs(1)),
        0,
        |stream, client, index, log: &mut Log| {
            let op = workload::op(workload, seed, stream as u64, index);
            if let Err(e) = run::run_op(client, &op) {
                log.fail(format!("op {index} of client {stream}: {e}"));
            }
        },
    );
    let untraced_p50_ms = stats::median(&calibration.latencies_ms).unwrap_or(f64::NAN);

    // The traced window: the op streams continue past every index used.
    let epoch = Instant::now();
    let tracers: Vec<Mutex<Tracer>> = (0..setup.clients.len())
        .map(|_| Mutex::new(Tracer::new(epoch)))
        .collect();
    let pipeline_spans = if workload == Workload::TenantSession {
        Vec::new()
    } else {
        registry_pipelines(workload, epoch)?
    };
    let app = Arc::clone(&setup.served.app);
    let (hits0, misses0) = (app.cache.hits(), app.cache.misses());
    let start = Instant::now();
    let traced = run::closed_loop(
        workload,
        &mut setup.clients,
        start,
        window,
        calibration.attempted(),
        |stream, client, index, log: &mut Log| {
            let op = workload::op(workload, seed, stream as u64, index);
            let mut t = tracers[stream].lock().expect("a client thread panicked");
            let root = t.rec.enter_op("op", ((stream as u64) << 40) | index);
            let result = traced_op(&mut t, client, &op);
            t.rec.exit(root);
            match result {
                Ok(ns) => t.served_ms.push(ns as f64 / 1e6),
                Err(e) => log.fail(format!("traced op {index} of client {stream}: {e}")),
            }
        },
    );
    let (hits, misses) = (app.cache.hits() - hits0, app.cache.misses() - misses0);
    setup.tear_down();

    for log in [calibration, traced] {
        attempted += log.attempted();
        failed += log.failed;
        errors.extend(log.errors);
    }

    let tracers: Vec<Tracer> = tracers
        .into_iter()
        .map(|m| m.into_inner().expect("a client thread panicked"))
        .collect();
    let mut threads: Vec<Vec<Span>> = Vec::new();
    let mut facts = Vec::new();
    let mut served_ms = Vec::new();
    for t in tracers {
        facts.extend(t.facts);
        served_ms.extend(t.served_ms);
        threads.push(t.rec.into_spans());
    }
    threads.push(pipeline_spans);
    write_spans(workload, seed, &threads);

    let requests = requests(&threads);
    let cache_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let (metrics, notes) = layer_metrics(
        workload,
        &requests,
        &facts,
        cache_ratio,
        untraced_p50_ms,
        &served_ms,
    );
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
        notes,
    })
}

/// Replays the pipeline of each rotation model (the registry build's
/// work) for workloads whose ops submit no sources.
fn registry_pipelines(workload: Workload, epoch: Instant) -> Result<Vec<Span>, String> {
    let mut rec = Recorder::new(epoch);
    for (i, name) in workload.rotation().iter().enumerate() {
        let b = workload::benchmark(name);
        for rep in 0..PIPELINE_REPS {
            let root = rec.enter_op("setup", (3 << 40) | (i * PIPELINE_REPS + rep) as u64);
            let req = rec.enter("req.pipeline");
            let result = pipeline(
                &mut rec,
                b.model_src,
                b.model_proc,
                b.guide_src,
                b.guide_proc,
            );
            rec.exit(req);
            rec.exit(root);
            result?;
        }
    }
    Ok(rec.into_spans())
}

/// One traced request: its class and its direct children.
struct Traced {
    class: &'static str,
    children: HashMap<&'static str, (f64, u64)>,
}

impl Traced {
    fn ns(&self, name: &str) -> Option<f64> {
        self.children.get(name).map(|&(ns, _)| ns)
    }

    fn per_unit(&self, name: &str) -> Option<f64> {
        self.children
            .get(name)
            .filter(|(_, units)| *units > 0)
            .map(|&(ns, units)| ns / units as f64)
    }
}

fn requests(threads: &[Vec<Span>]) -> Vec<Traced> {
    let mut out = Vec::new();
    for spans in threads {
        let mut index: HashMap<u32, usize> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(class) = s.name.strip_prefix("req.") {
                index.insert(i as u32, out.len());
                out.push(Traced {
                    class,
                    children: HashMap::new(),
                });
            }
        }
        for s in spans {
            if s.parent == NO_PARENT {
                continue;
            }
            if let Some(&r) = index.get(&s.parent) {
                out[r]
                    .children
                    .insert(s.name, (s.duration_ns() as f64, s.units));
            }
        }
    }
    out
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    stats::median(&v).unwrap_or(0.0)
}

/// Every per-layer metric, plus notes printed by name only.
fn layer_metrics(
    workload: Workload,
    requests: &[Traced],
    facts: &[QueryFacts],
    cache_hit_ratio: f64,
    untraced_p50_ms: f64,
    served_ms: &[f64],
) -> (Vec<Metric>, Vec<Metric>) {
    let of = |class: &'static str| requests.iter().filter(move |r| r.class == class);
    let any = |name: &'static str| requests.iter().filter_map(move |r| r.ns(name));
    let med_ns =
        |class: &'static str, name: &'static str| median_of(of(class).filter_map(|r| r.ns(name)));
    let per_unit = |name: &'static str| median_of(requests.iter().filter_map(|r| r.per_unit(name)));
    let http = |class: &'static str| {
        median_of(of(class).filter_map(|r| Some(r.ns("serve.roundtrip")? - r.ns("serve.handler")?)))
    };
    let probes: Vec<Probe> = facts.iter().filter_map(|f| f.probe).collect();
    let block_ns = median_of(probes.iter().map(|p| p.block_ns_per_particle));
    let scalar_ns = median_of(probes.iter().map(|p| p.scalar_ns_per_particle));

    let us = 1e-3;
    let ms = 1e-6;
    let json_decode = med_ns("query", "store.json_decode");
    let query_build = med_ns("query", "core.query_build");
    let is_run = med_ns("query", "inference.is_run");
    let summarize = med_ns("query", "inference.summarize");
    let json_encode = median_of(
        of("query").filter_map(|r| Some(r.ns("store.json_encode")? - r.ns("store.summarize_ref")?)),
    );
    let result_drop = med_ns("query", "inference.result_drop");
    let result_build = median_of(facts.iter().filter_map(|f| {
        let p = f.probe?;
        Some(f.is_run_ns - p.plan_compile_ns - f.particles as f64 * p.block_ns_per_particle)
    }));
    let pipeline = |name: &'static str| median_of(any(name));
    let (parse, infer, check, compile) = (
        pipeline("syntax.parse"),
        pipeline("types.infer"),
        pipeline("types.check"),
        pipeline("runtime.compile"),
    );
    let allocs: u64 = facts.iter().map(|f| f.allocs).sum();
    let particles: u64 = facts.iter().map(|f| f.particles).sum();
    let overhead = median_of(requests.iter().filter_map(|r| {
        let (on, off) = (r.ns("serve.handler")?, r.ns("obs.handler_off")?);
        Some(100.0 * (on - off) / off)
    }));

    // Closure: the served op of the traced window against the sum of the
    // medians of its layers, measured in the same window.
    let query_layers =
        http("query") + json_decode + query_build + is_run + summarize + json_encode + result_drop;
    let layers_ns = match workload {
        Workload::TenantSession => {
            let n = workload::SESSION_QUERIES as f64;
            http("submit")
                + parse
                + infer
                + check
                + compile
                + n * query_layers
                + n * (http("hit") + med_ns("hit", "serve.handler"))
                + http("scrape")
                + med_ns("scrape", "serve.handler")
        }
        _ => query_layers,
    };
    let traced_p50 = stats::median(served_ms).unwrap_or(f64::NAN);

    let mut metrics = vec![
        Metric::new("dist.sample_ns_per_lane", per_unit("dist.sample"), "ns"),
        Metric::new(
            "dist.log_density_ns_per_lane",
            per_unit("dist.log_density"),
            "ns",
        ),
        Metric::new("syntax.parse_us", parse * us, "us"),
        Metric::new("types.infer_us", infer * us, "us"),
        Metric::new("types.check_us", check * us, "us"),
        Metric::new("runtime.compile_us", compile * us, "us"),
        Metric::new("core.query_build_us", query_build * us, "us"),
        Metric::new(
            "runtime.plan_compile_us",
            median_of(probes.iter().map(|p| p.plan_compile_ns)) * us,
            "us",
        ),
        Metric::new("runtime.block_ns_per_particle", block_ns, "ns"),
        Metric::new("runtime.scalar_ns_per_particle", scalar_ns, "ns"),
        Metric::new("runtime.block_speedup", scalar_ns / block_ns, "ratio"),
        Metric::new("inference.is_run_ms", is_run * ms, "ms"),
        Metric::new("inference.result_build_ms", result_build * ms, "ms"),
        Metric::new("inference.result_drop_ms", result_drop * ms, "ms"),
        Metric::new(
            "inference.allocs_per_particle",
            allocs as f64 / particles.max(1) as f64,
            "count",
        ),
        Metric::new(
            "inference.ess_ratio",
            median_of(facts.iter().map(|f| f.ess_ratio)),
            "ratio",
        ),
        Metric::new("inference.summarize_ms", summarize * ms, "ms"),
        Metric::new("store.json_decode_us", json_decode * us, "us"),
        Metric::new("store.json_encode_us", json_encode * us, "us"),
    ];
    for class in ["query", "submit", "hit", "scrape"] {
        metrics.push(Metric::new(
            format!("serve.handler_us.{class}"),
            med_ns(class, "serve.handler") * us,
            "us",
        ));
    }
    for class in ["query", "submit", "hit", "scrape"] {
        metrics.push(Metric::new(
            format!("serve.http_us.{class}"),
            http(class) * us,
            "us",
        ));
    }
    metrics.extend([
        Metric::new("serve.cache_hit_ratio", cache_hit_ratio, "ratio"),
        Metric::new("obs.overhead_pct", overhead, "%"),
        Metric::new(
            "closure.unattributed_pct",
            100.0 * (traced_p50 * 1e6 - layers_ns) / (traced_p50 * 1e6),
            "%",
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            100.0 * (traced_p50 - untraced_p50_ms) / untraced_p50_ms,
            "%",
        ),
    ]);

    let mut notes = vec![
        Metric::new("untraced.op_p50_ms", untraced_p50_ms, "ms"),
        Metric::new("traced.served_op_p50_ms", traced_p50, "ms"),
        Metric::new("closure.layers_ms", layers_ns * ms, "ms"),
        Metric::new("traced.ops", served_ms.len() as f64, "count"),
    ];
    for template in workload.rotation() {
        let mine: Vec<&QueryFacts> = facts.iter().filter(|f| f.template == *template).collect();
        let allocs: u64 = mine.iter().map(|f| f.allocs).sum();
        let particles: u64 = mine.iter().map(|f| f.particles).sum();
        notes.push(Metric::new(
            format!("inference.allocs_per_particle.{template}"),
            allocs as f64 / particles.max(1) as f64,
            "count",
        ));
        let probes: Vec<Probe> = mine.iter().filter_map(|f| f.probe).collect();
        let block = median_of(probes.iter().map(|p| p.block_ns_per_particle));
        let scalar = median_of(probes.iter().map(|p| p.scalar_ns_per_particle));
        notes.push(Metric::new(
            format!("runtime.block_speedup.{template}"),
            scalar / block,
            "ratio",
        ));
    }
    (metrics, notes)
}

/// Writes every span once, as tab-separated rows, to
/// `perfbench/out/spans-<workload>.tsv` (the latest traced run of each
/// workload; a comment line names its seed).
fn write_spans(workload: Workload, seed: u64, threads: &[Vec<Span>]) {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}.tsv", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            writeln!(out, "# workload={} seed={seed}", workload.name())?;
            writeln!(out, "{}", spans::TSV_HEADER)?;
            for (thread, spans) in threads.iter().enumerate() {
                spans::write_tsv(&mut out, spans, thread)?;
            }
            out.flush()
        });
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
