//! Particle-throughput measurement for the zero-copy execution core.
//!
//! The Table 2 harness measures end-to-end inference latency; this module
//! measures the quantity the execution-core refactor optimises directly:
//! **particles per second** through the joint coroutine executor, single
//! threaded versus the parallel particle driver.  Because the driver gives
//! particle `i` the RNG substream `master.split(i)`, both configurations
//! produce bit-identical results — which every row re-verifies — so the
//! speedup column is a pure scheduling win, not a different computation.
//!
//! [`serving_rows`] measures the batched-serving primitive on top of the
//! same guarantee: one compiled model answers a grid of observation sets
//! through [`Session::run_batch_threaded`], 1 vs N batch threads, with the
//! per-query posteriors re-verified bit-identical.  [`http_rows`] goes one
//! layer further out: a real loopback `ppl-serve` instance, measuring
//! requests/sec cold (inference per request) versus warm (exact cache
//! hits) with the byte-identity of every warm response re-verified.
//! [`admission_rows`] measures the model-ingestion pipeline: full
//! parse → type-check → compile admissions per second in-process, plus the
//! `POST /v1/models` submit→first-query latency over loopback HTTP.
//! [`amortization_rows`] measures the PR 8 artifact store: one cold VI
//! query (fit + draw) versus artifact-warm queries that reuse a persisted
//! fit — byte-identity and the zero-fit-executions invariant re-verified
//! per request, with the response cache disabled so the speedup is pure
//! fit amortization.
//!
//! [`bench_json`] serialises the rows (plus per-engine wall times) into the
//! machine-readable `BENCH_inference.json` consumed by CI, so the perf
//! trajectory of the runtime is tracked from commit to commit.

use crate::alloc_track;
use guide_ppl::{Method, Posterior, Query, Session};
use ppl_dist::rng::Pcg32;
use ppl_dist::Sample;
use ppl_inference::{
    ImportanceSampler, IndependenceMh, ParamSpec, VariationalInference, ViConfig, DEFAULT_BLOCK,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Workload configuration for the throughput scenario.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// Importance-sampling particles per measurement.
    pub particles: usize,
    /// Worker threads for the parallel configuration.
    pub threads: usize,
    /// Vectorised-execution block size of the measured configurations
    /// (a pure performance knob — results are bit-identical at every
    /// block size, which [`block_rows`] re-verifies).
    pub block: usize,
    /// Master seed (shared by both configurations of each row).
    pub seed: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            particles: 20_000,
            threads: 4,
            block: DEFAULT_BLOCK,
            seed: 2_026,
        }
    }
}

/// One benchmark's throughput measurement.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Benchmark name (Table 2 IS subset).
    pub name: &'static str,
    /// Particles drawn per configuration.
    pub particles: usize,
    /// Threads used by the parallel configuration.
    pub threads: usize,
    /// Vectorised-execution block size both configurations ran with.
    pub block: usize,
    /// Wall time of the single-threaded run, in seconds.
    pub seq_seconds: f64,
    /// Wall time of the parallel run, in seconds.
    pub par_seconds: f64,
    /// Particles per second, single-threaded.
    pub seq_particles_per_sec: f64,
    /// Particles per second, parallel.
    pub par_particles_per_sec: f64,
    /// `par_particles_per_sec / seq_particles_per_sec`.
    pub speedup: f64,
    /// Effective sample size of the (identical) runs.
    pub ess: f64,
    /// Log-evidence estimate of the (identical) runs.
    pub log_evidence: f64,
    /// Whether the two configurations produced bit-identical results
    /// (always expected to be `true`; recorded so CI can assert it).
    pub bit_identical: bool,
    /// Heap allocations per particle of the single-threaded end-to-end
    /// `ImportanceSampler::run` — scratch warm-up, block-plan compile and
    /// the result columns included, i.e. the path users run.  `NaN`
    /// (serialised as `null`) when the counting allocator is not installed
    /// in the measuring binary.
    pub allocs_per_particle: f64,
}

/// Wall time of one engine on its reference workload.
#[derive(Debug, Clone)]
pub struct EngineTiming {
    /// Engine abbreviation (`IS` / `VI` / `MCMC`).
    pub engine: &'static str,
    /// Benchmark the workload runs on.
    pub benchmark: &'static str,
    /// Wall time in seconds.
    pub wall_seconds: f64,
    /// Name of the quality metric recorded alongside the time.
    pub metric: &'static str,
    /// The metric's value.
    pub value: f64,
}

/// Measures particles/sec (1 vs N threads) on the Table 2 IS benchmarks.
pub fn throughput_rows(config: &ThroughputConfig) -> Vec<ThroughputRow> {
    ppl_models::table2_benchmarks()
        .into_iter()
        .filter(|(_, kind)| *kind == ppl_models::InferenceKind::ImportanceSampling)
        .map(|(name, _)| throughput_row(name, config))
        .collect()
}

fn throughput_row(name: &'static str, config: &ThroughputConfig) -> ThroughputRow {
    let session = Session::from_benchmark(name).expect("registered benchmark");
    let b = ppl_models::benchmark(name).expect("registered benchmark");
    let executor = session.executor(b.observations.clone());
    let spec = session.spec();

    let mut rng = Pcg32::seed_from_u64(config.seed);
    let allocs_before = alloc_track::thread_allocations();
    let seq_start = Instant::now();
    let seq = ImportanceSampler::new(config.particles)
        .with_block(config.block)
        .run(&executor, &spec, &mut rng)
        .expect("sequential IS");
    let seq_seconds = seq_start.elapsed().as_secs_f64();
    let seq_allocs = alloc_track::thread_allocations() - allocs_before;

    let mut rng = Pcg32::seed_from_u64(config.seed);
    let par_start = Instant::now();
    let par = ImportanceSampler::new(config.particles)
        .with_threads(config.threads)
        .with_block(config.block)
        .run(&executor, &spec, &mut rng)
        .expect("parallel IS");
    let par_seconds = par_start.elapsed().as_secs_f64();

    ThroughputRow {
        name,
        particles: config.particles,
        threads: config.threads,
        block: config.block,
        seq_seconds,
        par_seconds,
        seq_particles_per_sec: config.particles as f64 / seq_seconds,
        par_particles_per_sec: config.particles as f64 / par_seconds,
        speedup: seq_seconds / par_seconds,
        ess: seq.ess,
        log_evidence: seq.log_evidence,
        bit_identical: posterior_fingerprint(&seq) == posterior_fingerprint(&par),
        allocs_per_particle: if alloc_track::installed() {
            seq_allocs as f64 / config.particles.max(1) as f64
        } else {
            f64::NAN
        },
    }
}

/// One block-vs-scalar measurement: single-thread particles/sec of one
/// benchmark at one block size, with the result re-verified bit-identical
/// to the scalar (block = 1) run of the same seed.
#[derive(Debug, Clone)]
pub struct BlockRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Block size of this measurement (1 = the scalar coroutine path).
    pub block: usize,
    /// Particles drawn.
    pub particles: usize,
    /// Wall time of the single-threaded run, in seconds.
    pub wall_seconds: f64,
    /// Particles per second, single-threaded.
    pub particles_per_sec: f64,
    /// `particles_per_sec` relative to this benchmark's scalar row.
    pub speedup_vs_scalar: f64,
    /// Whether this block size reproduced the scalar run bit-for-bit
    /// (always expected `true`; recorded so CI can assert it).
    pub bit_identical: bool,
}

/// Block sizes [`block_rows`] scans (1 = scalar reference).
pub const BLOCK_SCAN: [usize; 3] = [1, 64, 256];

/// Measures single-thread particles/sec at each [`BLOCK_SCAN`] size on the
/// Table 2 IS benchmarks, re-verifying that every block size reproduces
/// the scalar run bit-for-bit.
pub fn block_rows(config: &ThroughputConfig) -> Vec<BlockRow> {
    let mut out = Vec::new();
    for (name, _) in ppl_models::table2_benchmarks()
        .into_iter()
        .filter(|(_, kind)| *kind == ppl_models::InferenceKind::ImportanceSampling)
    {
        let session = Session::from_benchmark(name).expect("registered benchmark");
        let b = ppl_models::benchmark(name).expect("registered benchmark");
        let executor = session.executor(b.observations.clone());
        let spec = session.spec();
        let mut scalar: Option<u64> = None;
        let mut scalar_seconds = f64::NAN;
        for block in BLOCK_SCAN {
            let mut rng = Pcg32::seed_from_u64(config.seed);
            let start = Instant::now();
            let result = ImportanceSampler::new(config.particles)
                .with_block(block)
                .run(&executor, &spec, &mut rng)
                .expect("single-thread IS");
            let wall_seconds = start.elapsed().as_secs_f64();
            let fingerprint = posterior_fingerprint(&result);
            let bit_identical = scalar.map_or(true, |reference| reference == fingerprint);
            if scalar.is_none() {
                scalar_seconds = wall_seconds;
                scalar = Some(fingerprint);
            }
            out.push(BlockRow {
                name,
                block,
                particles: config.particles,
                wall_seconds,
                particles_per_sec: config.particles as f64 / wall_seconds,
                speedup_vs_scalar: scalar_seconds / wall_seconds,
                bit_identical,
            });
        }
    }
    out
}

/// One MCMC throughput measurement: proposals per second through the
/// sequential chain (independence MH over the recycled scratch pool).
#[derive(Debug, Clone)]
pub struct McmcRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Proposal iterations measured.
    pub iterations: usize,
    /// Wall time of the chain, in seconds.
    pub wall_seconds: f64,
    /// Proposals evaluated per second.
    pub proposals_per_sec: f64,
    /// Fraction of proposals accepted.
    pub acceptance_rate: f64,
    /// Heap allocations per proposal in the steady state (burn-in-only
    /// chain, so no states are retained; target `0`).  `NaN`/`null` when
    /// the counting allocator is not installed.
    pub allocs_per_proposal: f64,
}

/// Measures MCMC proposal throughput on the Table 2 MCMC-style workloads
/// (`ex-1` as the reference chain plus `gmm` for a multi-site model).
pub fn mcmc_rows(config: &ThroughputConfig) -> Vec<McmcRow> {
    ["ex-1", "gmm"]
        .into_iter()
        .map(|name| mcmc_row(name, config))
        .collect()
}

fn mcmc_row(name: &'static str, config: &ThroughputConfig) -> McmcRow {
    let session = Session::from_benchmark(name).expect("registered benchmark");
    let b = ppl_models::benchmark(name).expect("registered benchmark");
    let executor = session.executor(b.observations.clone());
    let spec = session.spec();
    let iterations = (config.particles / 2).max(100);

    let mut rng = Pcg32::seed_from_u64(config.seed);
    let start = Instant::now();
    let result = IndependenceMh::new(iterations, iterations / 10)
        .run(&executor, &spec, &mut rng)
        .expect("MCMC chain");
    let wall_seconds = start.elapsed().as_secs_f64();

    // Steady-state allocation count: a burn-in-only chain retains no
    // states, so what remains is the pure proposal loop.  The chain owns
    // its scratch pool, so every run pays the same warm-up (same seed ⇒
    // identical prefix); differencing a short and a long run cancels it
    // and leaves the pure per-proposal increment.
    let allocs_per_proposal = if alloc_track::installed() {
        let measure = |iters: usize| -> u64 {
            let mut rng = Pcg32::seed_from_u64(config.seed);
            let before = alloc_track::thread_allocations();
            IndependenceMh::new(iters, iters)
                .run(&executor, &spec, &mut rng)
                .expect("MCMC chain");
            alloc_track::thread_allocations() - before
        };
        let short = measure(200);
        let long = measure(1_200);
        long.saturating_sub(short) as f64 / 1_000.0
    } else {
        f64::NAN
    };

    McmcRow {
        name,
        iterations,
        wall_seconds,
        proposals_per_sec: iterations as f64 / wall_seconds,
        acceptance_rate: result.acceptance_rate,
        allocs_per_proposal,
    }
}

/// One batched-serving measurement: many observation sets answered by one
/// compiled model through [`Session::run_batch_threaded`].
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Queries in the batch.
    pub queries: usize,
    /// Importance-sampling particles per query.
    pub particles_per_query: usize,
    /// Batch worker threads for the parallel configuration.
    pub batch_threads: usize,
    /// Wall time of the single-threaded batch, in seconds.
    pub seq_seconds: f64,
    /// Wall time of the parallel batch, in seconds.
    pub par_seconds: f64,
    /// Queries answered per second, single-threaded.
    pub seq_queries_per_sec: f64,
    /// Queries answered per second, parallel.
    pub par_queries_per_sec: f64,
    /// `seq_seconds / par_seconds`.
    pub speedup: f64,
    /// Whether both configurations produced bit-identical posteriors.
    pub bit_identical: bool,
}

/// FNV-1a over every number a posterior exposes: each draw's weight,
/// value and samples, the ESS, the evidence estimate and the labelled
/// diagnostics — so a bit-identity comparison covers all three engines and
/// cannot become vacuous if a scenario switches methods.
fn posterior_fingerprint(posterior: &dyn Posterior) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    posterior.for_each_draw(&mut |draw| {
        word(draw.weight.to_bits());
        word(draw.value.map_or(u64::MAX, f64::to_bits));
        word(draw.samples.len() as u64);
        for s in draw.samples {
            word(s.as_f64().to_bits());
        }
    });
    word(posterior.ess().to_bits());
    word(posterior.log_evidence().map_or(u64::MAX, f64::to_bits));
    for (_, value) in posterior.diagnostics() {
        word(value.to_bits());
    }
    h
}

/// Measures batched serving (1 vs N batch threads, bit-identity
/// re-verified) on a conjugate reference model with a grid of observation
/// sets — the "one compiled model, many requests" scenario.
pub fn serving_rows(config: &ThroughputConfig) -> Vec<ServingRow> {
    let name = "normal-normal";
    let session = Session::from_benchmark(name).expect("registered benchmark");
    let num_queries = 16usize;
    let particles_per_query = (config.particles / num_queries).max(100);
    let queries: Vec<Query> = (0..num_queries)
        .map(|i| {
            session
                .query()
                .observe(vec![Sample::Real(-2.0 + i as f64 * 0.25)])
                .seed(config.seed ^ i as u64)
                .build()
                .expect("grid observations validate")
        })
        .collect();
    let method = Method::Importance {
        particles: particles_per_query,
    };

    let seq_start = Instant::now();
    let seq = session
        .run_batch_threaded(&queries, &method, 1)
        .expect("sequential batch");
    let seq_seconds = seq_start.elapsed().as_secs_f64();

    let par_start = Instant::now();
    let par = session
        .run_batch_threaded(&queries, &method, config.threads)
        .expect("parallel batch");
    let par_seconds = par_start.elapsed().as_secs_f64();

    let bit_identical = seq
        .iter()
        .zip(&par)
        .all(|(a, b)| posterior_fingerprint(a) == posterior_fingerprint(b));

    vec![ServingRow {
        name,
        queries: num_queries,
        particles_per_query,
        batch_threads: config.threads,
        seq_seconds,
        par_seconds,
        seq_queries_per_sec: num_queries as f64 / seq_seconds,
        par_queries_per_sec: num_queries as f64 / par_seconds,
        speedup: seq_seconds / par_seconds,
        bit_identical,
    }]
}

/// One HTTP serving measurement: requests per second through a real
/// loopback `ppl-serve` instance, cold (every request runs inference)
/// versus warm (every request is an exact cache hit).
#[derive(Debug, Clone)]
pub struct HttpRow {
    /// Benchmark name served.
    pub name: &'static str,
    /// Requests per pass.
    pub requests: usize,
    /// Importance-sampling particles per request.
    pub particles_per_request: usize,
    /// Wall time of the cold pass, in seconds.
    pub cold_seconds: f64,
    /// Wall time of the warm (cache-hit) pass, in seconds.
    pub warm_seconds: f64,
    /// Requests per second, cold.
    pub cold_requests_per_sec: f64,
    /// Requests per second, warm.
    pub warm_requests_per_sec: f64,
    /// Cache hit rate over both passes (expected 0.5: all misses, then
    /// all hits).
    pub cache_hit_rate: f64,
    /// Every response was a 200 and each warm body was byte-identical to
    /// its cold counterpart.
    pub ok: bool,
}

/// Measures HTTP serving over loopback: boots an in-process `ppl-serve`
/// on an ephemeral port, fires one pass of distinct-seed queries (cold:
/// every request runs inference) and then the identical pass again (warm:
/// every request is an exact cache hit), over one keep-alive connection.
pub fn http_rows(config: &ThroughputConfig) -> Vec<HttpRow> {
    use ppl_serve::http::ClientConn;
    use ppl_serve::{App, Registry, Server};

    let name = "ex-1";
    let requests = 32usize;
    let particles_per_request = (config.particles / requests).max(100);
    let app = App::new(Registry::from_benchmarks(), requests * 2);
    let server = Server::bind("127.0.0.1:0", config.threads.clamp(1, 4), app.handler())
        .expect("bind an ephemeral loopback port");
    let mut conn = ClientConn::connect(server.local_addr()).expect("loopback connect");

    let bodies: Vec<String> = (0..requests)
        .map(|i| {
            format!(
                r#"{{"model":"{name}","observations":[0.8],"method":{{"algorithm":"importance","particles":{particles_per_request}}},"seed":{}}}"#,
                config.seed ^ i as u64
            )
        })
        .collect();

    let mut run_pass = |expected: Option<&[Vec<u8>]>| -> (f64, Vec<Vec<u8>>, bool) {
        let start = Instant::now();
        let mut responses = Vec::with_capacity(requests);
        let mut ok = true;
        for (i, body) in bodies.iter().enumerate() {
            let (status, _, response) = conn
                .send("POST", "/v1/query", Some(body))
                .expect("loopback request");
            ok &= status == 200;
            if let Some(expected) = expected {
                ok &= response == expected[i];
            }
            responses.push(response);
        }
        (start.elapsed().as_secs_f64(), responses, ok)
    };

    let (cold_seconds, cold_bodies, cold_ok) = run_pass(None);
    let (warm_seconds, _, warm_ok) = run_pass(Some(&cold_bodies));
    let cache_hit_rate = app.cache.hit_rate();
    server.shutdown();

    vec![HttpRow {
        name,
        requests,
        particles_per_request,
        cold_seconds,
        warm_seconds,
        cold_requests_per_sec: requests as f64 / cold_seconds,
        warm_requests_per_sec: requests as f64 / warm_seconds,
        cache_hit_rate,
        ok: cold_ok && warm_ok,
    }]
}

/// One flight-recorder overhead measurement: in-process handler
/// throughput with tracing off versus on, plus the relative cost of
/// leaving the recorder enabled.
#[derive(Debug, Clone)]
pub struct ObservabilityRow {
    /// Benchmark name served.
    pub name: &'static str,
    /// Requests per pass (cache disabled, so each runs inference).
    pub requests: usize,
    /// Importance-sampling particles per request.
    pub particles_per_request: usize,
    /// Best-of wall time with the recorder disabled, in seconds.
    pub off_seconds: f64,
    /// Best-of wall time with the recorder enabled, in seconds.
    pub on_seconds: f64,
    /// Requests per second, recorder disabled.
    pub off_requests_per_sec: f64,
    /// Requests per second, recorder enabled.
    pub on_requests_per_sec: f64,
    /// Relative cost of tracing: `(on - off) / off × 100`.  Can be
    /// negative under noise; CI gates it below a few percent.
    pub tracing_on_overhead_pct: f64,
    /// Every response was a 200, traced passes produced ring entries,
    /// and untraced responses carried no trace id.
    pub ok: bool,
}

/// Measures the flight recorder's overhead: identical request streams
/// through the in-process handler (no sockets, cache disabled so every
/// request runs inference), interleaving recorder-off and recorder-on
/// passes and keeping the best of each so scheduler noise hits both
/// modes alike.
pub fn observability_rows(config: &ThroughputConfig) -> Vec<ObservabilityRow> {
    use ppl_serve::http::Request;
    use ppl_serve::{App, Registry};

    // Few, heavy requests: per-request inference must dominate so the
    // measurement reflects tracing's relative cost in realistic serving,
    // not fixed per-request bookkeeping plus timer noise.
    let name = "ex-1";
    let requests = 8usize;
    let particles_per_request = (config.particles / requests).max(500);
    let app = App::new(Registry::from_benchmarks(), 0);
    let handler = app.handler();
    let bodies: Vec<String> = (0..requests)
        .map(|i| {
            format!(
                r#"{{"model":"{name}","observations":[0.8],"method":{{"algorithm":"importance","particles":{particles_per_request}}},"seed":{}}}"#,
                config.seed ^ i as u64
            )
        })
        .collect();
    let request = |body: &str| Request {
        method: "POST".to_string(),
        path: "/v1/query".to_string(),
        query: None,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };

    let mut ok = true;
    let mut run_pass = |enabled: bool| -> f64 {
        app.obs.set_enabled(enabled);
        let start = Instant::now();
        for body in &bodies {
            let response = handler(&request(body));
            ok &= response.status == 200;
            ok &= response.headers.iter().any(|(k, _)| k == "X-Ppl-Trace-Id") == enabled;
        }
        start.elapsed().as_secs_f64()
    };

    run_pass(false); // warm-up: fault in lazy runtime state for both modes
    let (mut off_seconds, mut on_seconds) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        off_seconds = off_seconds.min(run_pass(false));
        on_seconds = on_seconds.min(run_pass(true));
    }
    ok &= app.obs.recorded() > 0;
    app.obs.set_enabled(true);

    vec![ObservabilityRow {
        name,
        requests,
        particles_per_request,
        off_seconds,
        on_seconds,
        off_requests_per_sec: requests as f64 / off_seconds,
        on_requests_per_sec: requests as f64 / on_seconds,
        tracing_on_overhead_pct: (on_seconds / off_seconds - 1.0) * 100.0,
        ok,
    }]
}

/// One admission-control measurement: how fast the full
/// parse → guide-type check → compatibility → compile pipeline admits a
/// model, in-process and over HTTP (`POST /v1/models`).
#[derive(Debug, Clone)]
pub struct AdmissionRow {
    /// In-process pipeline runs timed.
    pub compiles: usize,
    /// Wall time of the in-process compile loop, in seconds.
    pub compile_seconds: f64,
    /// Full-pipeline admissions per second, in-process.
    pub compiles_per_sec: f64,
    /// Wall time from `POST /v1/models` to the first `/v1/query` response
    /// over loopback HTTP, in seconds.
    pub submit_to_first_query_seconds: f64,
    /// The submission was a 201, the query a 200, and the query body was
    /// byte-identical to the in-process run of the same sources.
    pub ok: bool,
}

/// The model–guide pair the admission benchmark submits.
const ADMISSION_MODEL_SRC: &str = r#"
    proc Model() : real consume latent provide obs {
      let mu <- sample recv latent (Normal(0.0, 1.0));
      let _ <- sample send obs (Normal(mu, 1.0));
      return mu
    }
"#;
const ADMISSION_GUIDE_SRC: &str = r#"
    proc Guide() provide latent {
      let mu <- sample send latent (Normal(0.0, 2.0));
      return ()
    }
"#;

/// Measures model admission: the in-process compile pipeline in a tight
/// loop, then one HTTP submit→first-query round trip against a loopback
/// `ppl-serve`, with the query body verified bit-identical to the
/// in-process run.
pub fn admission_rows(config: &ThroughputConfig) -> Vec<AdmissionRow> {
    use ppl_serve::http::ClientConn;
    use ppl_serve::{api, App, Json, Registry, Server};

    let compiles = 32usize;
    let start = Instant::now();
    for _ in 0..compiles {
        let session =
            Session::from_sources(ADMISSION_MODEL_SRC, "Model", ADMISSION_GUIDE_SRC, "Guide")
                .expect("admission benchmark sources compile");
        std::hint::black_box(&session);
    }
    let compile_seconds = start.elapsed().as_secs_f64();

    // The expected query body, serialised exactly as the route would.
    let method = guide_ppl::Method::Importance { particles: 200 };
    let session = Session::from_sources(ADMISSION_MODEL_SRC, "Model", ADMISSION_GUIDE_SRC, "Guide")
        .expect("admission benchmark sources compile");
    let posterior = session
        .query()
        .observe([ppl_dist::Sample::Real(1.0)])
        .seed(config.seed)
        .run(&method)
        .expect("in-process run");

    let app = App::new(Registry::from_benchmarks(), 16);
    let server = Server::bind("127.0.0.1:0", 2, app.handler()).expect("bind loopback");
    let mut conn = ClientConn::connect(server.local_addr()).expect("loopback connect");
    let submit = Json::Obj(vec![
        ("name".into(), Json::str("admission-bench")),
        ("model_src".into(), Json::str(ADMISSION_MODEL_SRC)),
        ("guide_src".into(), Json::str(ADMISSION_GUIDE_SRC)),
    ])
    .write()
    .expect("finite");

    let start = Instant::now();
    let (submit_status, _, submit_body) = conn
        .send("POST", "/v1/models", Some(&submit))
        .expect("submit request");
    let id = Json::parse(std::str::from_utf8(&submit_body).unwrap_or_default())
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default();
    let query = format!(
        r#"{{"model":"{id}","observations":[1.0],"method":{{"algorithm":"importance","particles":200}},"seed":{}}}"#,
        config.seed
    );
    let (query_status, _, query_body) = conn
        .send("POST", "/v1/query", Some(&query))
        .expect("first query");
    let submit_to_first_query_seconds = start.elapsed().as_secs_f64();
    server.shutdown();

    let expected = api::query_response_json(&id, &method, config.seed, &posterior, 0)
        .write()
        .expect("finite");
    let ok = submit_status == 201 && query_status == 200 && query_body == expected.as_bytes();

    vec![AdmissionRow {
        compiles,
        compile_seconds,
        compiles_per_sec: compiles as f64 / compile_seconds,
        submit_to_first_query_seconds,
        ok,
    }]
}

/// One overload measurement: a fresh-connection storm against a
/// deliberately tiny admission pipeline (one worker, one queue slot), so
/// the server must shed.  The robustness contract under test: shed
/// traffic is always a `429` with `Retry-After` (never a `500`), accepted
/// traffic completes, and a post-storm query is byte-identical to its
/// pre-storm answer (the cache is disabled, so the comparison re-runs
/// inference for real).
#[derive(Debug, Clone)]
pub struct OverloadRow {
    /// Benchmark name served.
    pub name: &'static str,
    /// Concurrent storm clients.
    pub clients: usize,
    /// Requests per client (each on a fresh connection).
    pub requests_per_client: usize,
    /// Importance-sampling particles per request.
    pub particles_per_request: usize,
    /// Storm requests answered `200`.
    pub accepted: usize,
    /// Storm requests shed with `429`.
    pub shed: usize,
    /// Storm responses with a 5xx status (the contract requires zero).
    pub errors_5xx: usize,
    /// Storm requests that failed at the socket level.
    pub connect_errors: usize,
    /// `shed / (accepted + shed)`.
    pub shed_rate: f64,
    /// p99 wall latency of the accepted requests, in milliseconds.
    pub accepted_p99_ms: f64,
    /// Every `429` carried a `Retry-After` header.
    pub retry_after_ok: bool,
    /// The post-storm response was byte-identical to the pre-storm one.
    pub post_storm_identical: bool,
    /// The whole contract held: pre/post queries succeeded, zero 5xx,
    /// zero socket failures, every shed retryable, bytes identical.
    pub ok: bool,
}

/// Drives a connection storm through a one-worker, one-queue-slot
/// loopback server and scores the overload contract (see [`OverloadRow`]).
pub fn overload_rows(config: &ThroughputConfig) -> Vec<OverloadRow> {
    use ppl_serve::http::ClientConn;
    use ppl_serve::{App, Registry, Server, ServerConfig};

    let name = "ex-1";
    let clients = 8usize;
    let requests_per_client = 12usize;
    let particles_per_request = 5_000usize;

    // Cache capacity 0: the post-storm byte-compare must re-run inference,
    // not replay a stored body.
    let app = App::new(Registry::from_benchmarks(), 0);
    let server_config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        shed_counter: Some(app.metrics.queue_sheds_handle()),
        ..ServerConfig::default()
    };
    let server = Server::bind_with_config("127.0.0.1:0", server_config, app.handler())
        .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();
    let body = format!(
        r#"{{"model":"{name}","observations":[0.8],"method":{{"algorithm":"importance","particles":{particles_per_request}}},"seed":{}}}"#,
        config.seed
    );

    // Pre-storm reference answer.
    let pre = {
        let mut conn = ClientConn::connect(addr).expect("loopback connect");
        conn.send("POST", "/v1/query", Some(&body))
            .expect("pre-storm query")
    };

    // The storm: every request opens a fresh connection, so each one
    // passes the admission queue at the door.
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let mut accepted_ms: Vec<f64> = Vec::new();
                let (mut accepted, mut shed, mut e5, mut retry_missing, mut socket_errors) =
                    (0usize, 0usize, 0usize, 0usize, 0usize);
                for _ in 0..requests_per_client {
                    let started = Instant::now();
                    let sent = ClientConn::connect(addr)
                        .and_then(|mut conn| conn.send("POST", "/v1/query", Some(&body)));
                    match sent {
                        Ok((200, _, _)) => {
                            accepted += 1;
                            accepted_ms.push(started.elapsed().as_secs_f64() * 1e3);
                        }
                        Ok((429, headers, _)) => {
                            shed += 1;
                            if !headers
                                .iter()
                                .any(|(n, _)| n.eq_ignore_ascii_case("retry-after"))
                            {
                                retry_missing += 1;
                            }
                        }
                        Ok((status, _, _)) if status >= 500 => e5 += 1,
                        Ok(_) => {}
                        Err(_) => socket_errors += 1,
                    }
                }
                (
                    accepted,
                    shed,
                    e5,
                    retry_missing,
                    socket_errors,
                    accepted_ms,
                )
            })
        })
        .collect();
    let (mut accepted, mut shed, mut errors_5xx, mut retry_missing, mut connect_errors) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut accepted_ms: Vec<f64> = Vec::new();
    for handle in handles {
        let (a, s, e, r, c, ms) = handle.join().expect("storm client");
        accepted += a;
        shed += s;
        errors_5xx += e;
        retry_missing += r;
        connect_errors += c;
        accepted_ms.extend(ms);
    }

    // Post-storm: the identical query must still produce identical bytes.
    let post = {
        let mut conn = ClientConn::connect(addr).expect("loopback reconnect");
        conn.send("POST", "/v1/query", Some(&body))
            .expect("post-storm query")
    };
    server.shutdown();

    accepted_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let accepted_p99_ms = if accepted_ms.is_empty() {
        0.0
    } else {
        let idx = ((accepted_ms.len() as f64 * 0.99).ceil() as usize).clamp(1, accepted_ms.len());
        accepted_ms[idx - 1]
    };
    let answered = accepted + shed;
    let shed_rate = if answered > 0 {
        shed as f64 / answered as f64
    } else {
        0.0
    };
    let retry_after_ok = retry_missing == 0;
    let post_storm_identical = pre.0 == 200 && post.0 == 200 && pre.2 == post.2;
    let ok = post_storm_identical
        && errors_5xx == 0
        && connect_errors == 0
        && retry_after_ok
        && accepted >= 1;

    vec![OverloadRow {
        name,
        clients,
        requests_per_client,
        particles_per_request,
        accepted,
        shed,
        errors_5xx,
        connect_errors,
        shed_rate,
        accepted_p99_ms,
        retry_after_ok,
        post_storm_identical,
        ok,
    }]
}

/// One amortized-inference measurement: the wall cost of a cold VI query
/// (fit + draw in one request) versus artifact-warm queries that reuse a
/// persisted fit through `"artifact": "a-…"` — the serving payoff of the
/// PR 8 artifact store.  The response cache is disabled so every warm
/// request genuinely re-runs the draw pass; the speedup is pure fit
/// amortization, not response memoisation.
#[derive(Debug, Clone)]
pub struct AmortizationRow {
    /// Benchmark name served.
    pub name: &'static str,
    /// VI fit iterations of the measured configuration.
    pub fit_iterations: usize,
    /// ELBO samples per iteration.
    pub samples_per_iteration: usize,
    /// Posterior draw particles per query.
    pub draw_particles: usize,
    /// Warm requests measured.
    pub requests: usize,
    /// Wall time of one cold query (fit + draw), in seconds.
    pub cold_seconds: f64,
    /// Wall time of the warm pass, in seconds.
    pub warm_seconds: f64,
    /// Cold queries per second (1 / cold_seconds).
    pub cold_queries_per_sec: f64,
    /// Warm queries per second.
    pub warm_queries_per_sec: f64,
    /// `warm_queries_per_sec / cold_queries_per_sec` — the amortization
    /// factor (the acceptance bar is ≥ 10×).
    pub amortization: f64,
    /// Artifacts resident in the store after the pass.
    pub artifacts: u64,
    /// Bytes of canonical artifact JSON resident in the store.
    pub store_bytes: u64,
    /// Warm starts the store served during the pass.
    pub warm_starts: u64,
    /// Every response was a 200, every warm body was byte-identical to the
    /// cold one, and the warm pass ran **zero** VI fit executions
    /// (verified against `ppl_inference::counters`).
    pub ok: bool,
}

/// Measures amortized inference over loopback HTTP: one cold VI query
/// (fit + draw), one `POST /v1/fit`, then a pass of artifact-warm queries
/// with the byte-identity and the zero-fit-executions invariant
/// re-verified per request.
pub fn amortization_rows(config: &ThroughputConfig) -> Vec<AmortizationRow> {
    use ppl_serve::http::ClientConn;
    use ppl_serve::{App, Registry, Server};
    use ppl_store::Store;

    let name = "weight";
    let fit_iterations = 100usize;
    let samples_per_iteration = 8usize;
    let draw_particles = 200usize;
    let requests = 8usize;

    // Cache capacity 0: warm requests must re-run the draw pass, so the
    // measured ratio is fit amortization alone.
    let store = std::sync::Arc::new(Store::in_memory(16));
    let app = App::with_store(Registry::from_benchmarks(), 0, config.block, store);
    let server = Server::bind("127.0.0.1:0", 2, app.handler()).expect("bind loopback");
    let mut conn = ClientConn::connect(server.local_addr()).expect("loopback connect");

    let cold_body = format!(
        r#"{{"model":"{name}","observations":[9.0,9.0],"seed":{},
            "method":{{"algorithm":"vi","iterations":{fit_iterations},
                       "samples_per_iteration":{samples_per_iteration},
                       "draw_particles":{draw_particles}}}}}"#,
        config.seed
    );
    let start = Instant::now();
    let (cold_status, _, cold_response) = conn
        .send("POST", "/v1/query", Some(&cold_body))
        .expect("cold query");
    let cold_seconds = start.elapsed().as_secs_f64();
    let mut ok = cold_status == 200;

    let fit_body = format!(
        r#"{{"model":"{name}","observations":[9.0,9.0],"seed":{},
            "fit":{{"iterations":{fit_iterations},
                    "samples_per_iteration":{samples_per_iteration}}}}}"#,
        config.seed
    );
    let (fit_status, _, fit_response) = conn
        .send("POST", "/v1/fit", Some(&fit_body))
        .expect("fit request");
    ok &= fit_status == 201;
    let id = ppl_serve::Json::parse(std::str::from_utf8(&fit_response).unwrap_or_default())
        .ok()
        .and_then(|doc| {
            doc.get("id")
                .and_then(ppl_serve::Json::as_str)
                .map(str::to_string)
        })
        .unwrap_or_default();

    let warm_body =
        format!(r#"{{"model":"{name}","artifact":"{id}","draw_particles":{draw_particles}}}"#);
    let fit_executions_before = ppl_inference::counters::vi_fit_executions();
    let start = Instant::now();
    for _ in 0..requests {
        let (status, _, response) = conn
            .send("POST", "/v1/query", Some(&warm_body))
            .expect("warm query");
        ok &= status == 200 && response == cold_response;
    }
    let warm_seconds = start.elapsed().as_secs_f64();
    // The loopback server runs in-process, so the counter covers it: the
    // warm pass must not have scheduled a single VI fit execution.
    ok &= ppl_inference::counters::vi_fit_executions() == fit_executions_before;
    let artifacts = app.store.len() as u64;
    let store_bytes = app.store.bytes();
    let warm_starts = app.store.warm_starts();
    server.shutdown();

    let cold_queries_per_sec = 1.0 / cold_seconds;
    let warm_queries_per_sec = requests as f64 / warm_seconds;
    vec![AmortizationRow {
        name,
        fit_iterations,
        samples_per_iteration,
        draw_particles,
        requests,
        cold_seconds,
        warm_seconds,
        cold_queries_per_sec,
        warm_queries_per_sec,
        amortization: warm_queries_per_sec / cold_queries_per_sec,
        artifacts,
        store_bytes,
        warm_starts,
        ok,
    }]
}

/// Times each inference engine once on a reference workload.
pub fn engine_timings(config: &ThroughputConfig) -> Vec<EngineTiming> {
    let mut out = Vec::new();

    // IS on ex-1 (threads as configured).
    {
        let session = Session::from_benchmark("ex-1").expect("ex-1");
        let b = ppl_models::benchmark("ex-1").expect("ex-1");
        let executor = session.executor(b.observations.clone());
        let mut rng = Pcg32::seed_from_u64(config.seed);
        let start = Instant::now();
        let result = ImportanceSampler::new(config.particles)
            .with_threads(config.threads)
            .run(&executor, &session.spec(), &mut rng)
            .expect("IS");
        out.push(EngineTiming {
            engine: "IS",
            benchmark: "ex-1",
            wall_seconds: start.elapsed().as_secs_f64(),
            metric: "ess",
            value: result.ess,
        });
    }

    // VI on weight (mini-batches through the same parallel driver).
    {
        let session = Session::from_benchmark("weight").expect("weight");
        let b = ppl_models::benchmark("weight").expect("weight");
        let executor = session.executor(b.observations.clone());
        let params: Vec<ParamSpec> = b
            .guide_params
            .iter()
            .map(|p| {
                if p.positive {
                    ParamSpec::positive(p.name, p.init)
                } else {
                    ParamSpec::unconstrained(p.name, p.init)
                }
            })
            .collect();
        let vi_config = ViConfig {
            iterations: 60,
            samples_per_iteration: 8,
            num_threads: config.threads,
            ..ViConfig::default()
        };
        let mut rng = Pcg32::seed_from_u64(config.seed);
        let start = Instant::now();
        let result = VariationalInference::new(vi_config)
            .run(&executor, &session.spec(), &params, &mut rng)
            .expect("VI");
        out.push(EngineTiming {
            engine: "VI",
            benchmark: "weight",
            wall_seconds: start.elapsed().as_secs_f64(),
            metric: "final_elbo",
            value: result.final_elbo(),
        });
    }

    // MCMC on ex-1 (sequential chain over the borrowed-replay path).
    {
        let session = Session::from_benchmark("ex-1").expect("ex-1");
        let b = ppl_models::benchmark("ex-1").expect("ex-1");
        let executor = session.executor(b.observations.clone());
        let iterations = (config.particles / 4).max(100);
        let mut rng = Pcg32::seed_from_u64(config.seed);
        let start = Instant::now();
        let result = IndependenceMh::new(iterations, iterations / 10)
            .run(&executor, &session.spec(), &mut rng)
            .expect("MCMC");
        out.push(EngineTiming {
            engine: "MCMC",
            benchmark: "ex-1",
            wall_seconds: start.elapsed().as_secs_f64(),
            metric: "acceptance_rate",
            value: result.acceptance_rate,
        });
    }

    out
}

/// Serialises the measurements as the `BENCH_inference.json` document.
#[allow(clippy::too_many_arguments)] // one slice per report section, by design
pub fn bench_json(
    config: &ThroughputConfig,
    rows: &[ThroughputRow],
    blocks: &[BlockRow],
    engines: &[EngineTiming],
    serving: &[ServingRow],
    mcmc: &[McmcRow],
    http: &[HttpRow],
    admission: &[AdmissionRow],
    amortization: &[AmortizationRow],
    overload: &[OverloadRow],
    observability: &[ObservabilityRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"ppl-bench/inference/v8\",");
    let _ = writeln!(s, "  \"particles\": {},", config.particles);
    let _ = writeln!(s, "  \"threads\": {},", config.threads);
    let _ = writeln!(s, "  \"block\": {},", config.block);
    let _ = writeln!(s, "  \"seed\": {},", config.seed);
    // Provenance: parallel speedups are only meaningful relative to the
    // cores the measuring host actually had.
    let _ = writeln!(
        s,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    s.push_str("  \"throughput\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"algorithm\": \"IS\", \"particles\": {}, \"threads\": {}, \
             \"block\": {}, \"seq_seconds\": {}, \"par_seconds\": {}, \"seq_particles_per_sec\": {}, \
             \"par_particles_per_sec\": {}, \"speedup\": {}, \"ess\": {}, \"log_evidence\": {}, \
             \"bit_identical\": {}, \"allocs_per_particle\": {}}}",
            r.name,
            r.particles,
            r.threads,
            r.block,
            json_f64(r.seq_seconds),
            json_f64(r.par_seconds),
            json_f64(r.seq_particles_per_sec),
            json_f64(r.par_particles_per_sec),
            json_f64(r.speedup),
            json_f64(r.ess),
            json_f64(r.log_evidence),
            r.bit_identical,
            json_f64(r.allocs_per_particle),
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"blocks\": [\n");
    for (i, r) in blocks.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"algorithm\": \"IS\", \"block\": {}, \"particles\": {}, \
             \"wall_seconds\": {}, \"particles_per_sec\": {}, \"speedup_vs_scalar\": {}, \
             \"bit_identical\": {}}}",
            r.name,
            r.block,
            r.particles,
            json_f64(r.wall_seconds),
            json_f64(r.particles_per_sec),
            json_f64(r.speedup_vs_scalar),
            r.bit_identical,
        );
        s.push_str(if i + 1 < blocks.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"mcmc\": [\n");
    for (i, r) in mcmc.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"algorithm\": \"MH\", \"iterations\": {}, \
             \"wall_seconds\": {}, \"proposals_per_sec\": {}, \"acceptance_rate\": {}, \
             \"allocs_per_proposal\": {}}}",
            r.name,
            r.iterations,
            json_f64(r.wall_seconds),
            json_f64(r.proposals_per_sec),
            json_f64(r.acceptance_rate),
            json_f64(r.allocs_per_proposal),
        );
        s.push_str(if i + 1 < mcmc.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"serving\": [\n");
    for (i, r) in serving.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"queries\": {}, \"particles_per_query\": {}, \
             \"batch_threads\": {}, \"seq_seconds\": {}, \"par_seconds\": {}, \
             \"seq_queries_per_sec\": {}, \"par_queries_per_sec\": {}, \"speedup\": {}, \
             \"bit_identical\": {}}}",
            r.name,
            r.queries,
            r.particles_per_query,
            r.batch_threads,
            json_f64(r.seq_seconds),
            json_f64(r.par_seconds),
            json_f64(r.seq_queries_per_sec),
            json_f64(r.par_queries_per_sec),
            json_f64(r.speedup),
            r.bit_identical,
        );
        s.push_str(if i + 1 < serving.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"http\": [\n");
    for (i, r) in http.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"requests\": {}, \"particles_per_request\": {}, \
             \"cold_seconds\": {}, \"warm_seconds\": {}, \"cold_requests_per_sec\": {}, \
             \"warm_requests_per_sec\": {}, \"cache_hit_rate\": {}, \"ok\": {}}}",
            r.name,
            r.requests,
            r.particles_per_request,
            json_f64(r.cold_seconds),
            json_f64(r.warm_seconds),
            json_f64(r.cold_requests_per_sec),
            json_f64(r.warm_requests_per_sec),
            json_f64(r.cache_hit_rate),
            r.ok,
        );
        s.push_str(if i + 1 < http.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"admission\": [\n");
    for (i, r) in admission.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"compiles\": {}, \"compile_seconds\": {}, \"compiles_per_sec\": {}, \
             \"submit_to_first_query_seconds\": {}, \"ok\": {}}}",
            r.compiles,
            json_f64(r.compile_seconds),
            json_f64(r.compiles_per_sec),
            json_f64(r.submit_to_first_query_seconds),
            r.ok,
        );
        s.push_str(if i + 1 < admission.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"amortization\": [\n");
    for (i, r) in amortization.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"fit_iterations\": {}, \"samples_per_iteration\": {}, \
             \"draw_particles\": {}, \"requests\": {}, \"cold_seconds\": {}, \
             \"warm_seconds\": {}, \"cold_queries_per_sec\": {}, \"warm_queries_per_sec\": {}, \
             \"amortization\": {}, \"ok\": {}}}",
            r.name,
            r.fit_iterations,
            r.samples_per_iteration,
            r.draw_particles,
            r.requests,
            json_f64(r.cold_seconds),
            json_f64(r.warm_seconds),
            json_f64(r.cold_queries_per_sec),
            json_f64(r.warm_queries_per_sec),
            json_f64(r.amortization),
            r.ok,
        );
        s.push_str(if i + 1 < amortization.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"overload\": [\n");
    for (i, r) in overload.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"clients\": {}, \"requests_per_client\": {}, \
             \"particles_per_request\": {}, \"accepted\": {}, \"shed\": {}, \
             \"errors_5xx\": {}, \"connect_errors\": {}, \"shed_rate\": {}, \
             \"accepted_p99_ms\": {}, \"retry_after_ok\": {}, \"post_storm_identical\": {}, \
             \"ok\": {}}}",
            r.name,
            r.clients,
            r.requests_per_client,
            r.particles_per_request,
            r.accepted,
            r.shed,
            r.errors_5xx,
            r.connect_errors,
            json_f64(r.shed_rate),
            json_f64(r.accepted_p99_ms),
            r.retry_after_ok,
            r.post_storm_identical,
            r.ok,
        );
        s.push_str(if i + 1 < overload.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"observability\": [\n");
    for (i, r) in observability.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"requests\": {}, \"particles_per_request\": {}, \
             \"off_seconds\": {}, \"on_seconds\": {}, \"off_requests_per_sec\": {}, \
             \"on_requests_per_sec\": {}, \"tracing_on_overhead_pct\": {}, \"ok\": {}}}",
            r.name,
            r.requests,
            r.particles_per_request,
            json_f64(r.off_seconds),
            json_f64(r.on_seconds),
            json_f64(r.off_requests_per_sec),
            json_f64(r.on_requests_per_sec),
            json_f64(r.tracing_on_overhead_pct),
            r.ok,
        );
        s.push_str(if i + 1 < observability.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    // Store gauges from the amortization run (the only scenario that
    // exercises the artifact store).
    let (artifacts, store_bytes, warm_starts) = amortization
        .first()
        .map_or((0, 0, 0), |r| (r.artifacts, r.store_bytes, r.warm_starts));
    let _ = writeln!(
        s,
        "  \"store\": {{\"artifacts\": {artifacts}, \"bytes\": {store_bytes}, \
         \"warm_starts\": {warm_starts}}},"
    );
    s.push_str("  \"engines\": [\n");
    for (i, e) in engines.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"engine\": \"{}\", \"benchmark\": \"{}\", \"wall_seconds\": {}, \
             \"metric\": \"{}\", \"value\": {}}}",
            e.engine,
            e.benchmark,
            json_f64(e.wall_seconds),
            e.metric,
            json_f64(e.value),
        );
        s.push_str(if i + 1 < engines.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Formats an `f64` as a JSON number (JSON has no NaN/∞, so those become
/// `null`).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_rows_are_bit_identical_across_thread_counts() {
        let config = ThroughputConfig {
            particles: 400,
            threads: 4,
            block: DEFAULT_BLOCK,
            seed: 7,
        };
        let rows = throughput_rows(&config);
        assert_eq!(rows.len(), 3, "the Table 2 IS subset");
        for r in &rows {
            assert!(r.bit_identical, "{}: thread count changed results", r.name);
            assert!(r.seq_particles_per_sec > 0.0);
            assert!(r.par_particles_per_sec > 0.0);
            assert!(r.speedup.is_finite() && r.speedup > 0.0);
            assert!(r.log_evidence.is_finite(), "{}", r.name);
            assert!(r.ess > 1.0, "{}: ess {}", r.name, r.ess);
            // The lib test binary does not install the counting allocator,
            // so the metric must report unknown rather than a fake zero.
            assert!(r.allocs_per_particle.is_nan() || r.allocs_per_particle >= 0.0);
        }
    }

    #[test]
    fn block_rows_scan_sizes_and_verify_bit_identity() {
        let config = ThroughputConfig {
            particles: 400,
            threads: 1,
            block: DEFAULT_BLOCK,
            seed: 21,
        };
        let rows = block_rows(&config);
        assert_eq!(rows.len(), 3 * BLOCK_SCAN.len());
        for r in &rows {
            assert!(r.bit_identical, "{} block {} diverged", r.name, r.block);
            assert!(r.particles_per_sec > 0.0);
            assert!(r.speedup_vs_scalar.is_finite() && r.speedup_vs_scalar > 0.0);
        }
        // Every benchmark leads with its scalar reference row.
        for chunk in rows.chunks(BLOCK_SCAN.len()) {
            assert_eq!(chunk[0].block, 1);
            assert!((chunk[0].speedup_vs_scalar - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mcmc_rows_measure_proposal_throughput() {
        let config = ThroughputConfig {
            particles: 400,
            threads: 4,
            block: DEFAULT_BLOCK,
            seed: 13,
        };
        let rows = mcmc_rows(&config);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.iterations, 200);
            assert!(r.proposals_per_sec > 0.0, "{}", r.name);
            assert!(
                (0.0..=1.0).contains(&r.acceptance_rate),
                "{}: acceptance {}",
                r.name,
                r.acceptance_rate
            );
            assert!(r.allocs_per_proposal.is_nan() || r.allocs_per_proposal >= 0.0);
        }
    }

    #[test]
    fn serving_rows_are_bit_identical_across_batch_thread_counts() {
        let config = ThroughputConfig {
            particles: 1_600,
            threads: 4,
            block: DEFAULT_BLOCK,
            seed: 99,
        };
        let rows = serving_rows(&config);
        assert_eq!(rows.len(), 1);
        for r in &rows {
            assert!(r.bit_identical, "{}: batch threads changed results", r.name);
            assert_eq!(r.queries, 16);
            assert!(r.particles_per_query >= 100);
            assert!(r.seq_queries_per_sec > 0.0);
            assert!(r.par_queries_per_sec > 0.0);
            assert!(r.speedup.is_finite() && r.speedup > 0.0);
        }
    }

    #[test]
    fn http_rows_serve_cold_and_warm_over_loopback() {
        let config = ThroughputConfig {
            particles: 3_200,
            threads: 2,
            block: DEFAULT_BLOCK,
            seed: 5,
        };
        let rows = http_rows(&config);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.ok, "a response failed or a warm body diverged");
        assert_eq!(r.requests, 32);
        assert!(r.cold_requests_per_sec > 0.0);
        assert!(r.warm_requests_per_sec > 0.0);
        // One full miss pass then one full hit pass.
        assert!(
            (r.cache_hit_rate - 0.5).abs() < 1e-9,
            "{}",
            r.cache_hit_rate
        );
    }

    #[test]
    fn admission_rows_measure_the_pipeline_and_verify_bit_identity() {
        let config = ThroughputConfig {
            particles: 200,
            threads: 2,
            block: DEFAULT_BLOCK,
            seed: 17,
        };
        let rows = admission_rows(&config);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.ok, "submission or query failed, or the body diverged");
        assert_eq!(r.compiles, 32);
        assert!(r.compiles_per_sec > 0.0);
        assert!(r.submit_to_first_query_seconds > 0.0);
    }

    #[test]
    fn amortization_rows_reuse_the_fit_with_byte_identity() {
        let config = ThroughputConfig {
            particles: 200,
            threads: 2,
            block: DEFAULT_BLOCK,
            seed: 23,
        };
        let rows = amortization_rows(&config);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(
            r.ok,
            "a warm body diverged from the cold one, or the warm pass ran fit executions"
        );
        assert_eq!(r.artifacts, 1);
        assert!(r.store_bytes > 0);
        assert_eq!(r.warm_starts, r.requests as u64);
        // The wall-clock ratio is load-dependent, so the test only demands
        // amortization > 1; the recorded BENCH row carries the real factor.
        assert!(r.amortization > 1.0, "amortization {}", r.amortization);
    }

    #[test]
    fn overload_rows_shed_retryable_429s_and_keep_post_storm_bytes_identical() {
        let config = ThroughputConfig {
            particles: 200,
            threads: 2,
            block: DEFAULT_BLOCK,
            seed: 29,
        };
        let rows = overload_rows(&config);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.ok, "overload contract violated: {r:?}");
        assert_eq!(r.errors_5xx, 0, "overload produced a 5xx");
        assert_eq!(r.connect_errors, 0, "overload dropped connections");
        assert!(r.retry_after_ok, "a 429 was missing Retry-After");
        assert!(r.post_storm_identical, "post-storm bytes diverged");
        assert!(r.accepted >= 1, "nothing was accepted");
        // One worker and a one-slot queue against 8 concurrent clients:
        // the storm must actually shed, or the bench measures nothing.
        assert!(r.shed >= 1, "the storm never overflowed the queue");
    }

    #[test]
    fn bench_json_is_well_formed() {
        let config = ThroughputConfig {
            particles: 200,
            threads: 2,
            block: DEFAULT_BLOCK,
            seed: 3,
        };
        let rows = throughput_rows(&config);
        let blocks = block_rows(&config);
        let engines = engine_timings(&config);
        assert_eq!(engines.len(), 3);
        let serving = serving_rows(&config);
        let mcmc = mcmc_rows(&config);
        let http = http_rows(&config);
        let admission = admission_rows(&config);
        let amortization = amortization_rows(&config);
        let overload = overload_rows(&config);
        let observability = observability_rows(&config);
        let json = bench_json(
            &config,
            &rows,
            &blocks,
            &engines,
            &serving,
            &mcmc,
            &http,
            &admission,
            &amortization,
            &overload,
            &observability,
        );
        // Structural sanity without a JSON parser: balanced braces/brackets
        // and the keys CI greps for.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"schema\": \"ppl-bench/inference/v8\"",
            "\"amortization\"",
            "\"overload\"",
            "\"observability\"",
            "\"tracing_on_overhead_pct\"",
            "\"off_requests_per_sec\"",
            "\"on_requests_per_sec\"",
            "\"shed_rate\"",
            "\"accepted_p99_ms\"",
            "\"retry_after_ok\": true",
            "\"post_storm_identical\": true",
            "\"errors_5xx\": 0",
            "\"warm_queries_per_sec\"",
            "\"store\"",
            "\"warm_starts\"",
            "\"host_cpus\"",
            "\"block\": 64",
            "\"blocks\"",
            "\"speedup_vs_scalar\"",
            "\"throughput\"",
            "\"serving\"",
            "\"mcmc\"",
            "\"http\"",
            "\"cold_requests_per_sec\"",
            "\"warm_requests_per_sec\"",
            "\"cache_hit_rate\"",
            "\"ok\": true",
            "\"admission\"",
            "\"compiles_per_sec\"",
            "\"submit_to_first_query_seconds\"",
            "\"engines\"",
            "\"par_particles_per_sec\"",
            "\"par_queries_per_sec\"",
            "\"speedup\"",
            "\"bit_identical\": true",
            "\"allocs_per_particle\"",
            "\"proposals_per_sec\"",
            "\"allocs_per_proposal\"",
            "\"engine\": \"IS\"",
            "\"engine\": \"VI\"",
            "\"engine\": \"MCMC\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("NaN"));
    }
}
