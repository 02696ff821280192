//! The rows `ppl-bench` reports, and the report they make up.
//!
//! Every row times its configurations through [`measure`], so each timed
//! figure is a [`Stat`] — median, p10, p90 and the trial count — and each
//! ratio between configurations is the median of per-trial ratios.  A row
//! that compares configurations also re-verifies what the comparison rests
//! on:
//!
//! * [`throughput_rows`] — particles/sec through the joint coroutine
//!   executor, 1 vs N threads.  Particle `i` always draws from the RNG
//!   substream `master.split(i)`, so both configurations produce
//!   bit-identical results and the speedup is pure scheduling.  The `ex-1`
//!   row is also the workload behind Fig. 2.
//! * [`block_rows`] — single-thread particles/sec at block sizes 1, 64 and
//!   256, every block size bit-identical to the scalar run.
//! * [`mcmc_rows`] — independence-MH proposals/sec and steady-state
//!   allocations per proposal.
//! * [`serving_rows`] — one compiled model answering a grid of observation
//!   sets through [`Session::run_batch_threaded`], 1 vs N batch threads,
//!   bit-identical per query.
//! * [`amortization_rows`] — a cold VI query (fit + draw) against
//!   artifact-warm queries that reuse a persisted fit, byte-identical and
//!   running zero fit executions.
//! * [`overload_rows`] — a connection storm against a one-slot admission
//!   queue: every shed is a retryable 429 and post-storm bytes match.
//! * [`observability_rows`] — the flight recorder's cost, recorder off vs
//!   on.
//!
//! [`Report`] runs them all and serialises them as one [`Json`] value, the
//! `BENCH_inference.json` document CI reads.

use crate::alloc_track;
use crate::measure::{measure, Stat};
use guide_ppl::{Method, Posterior, Query, Session};
use ppl_dist::rng::Pcg32;
use ppl_dist::Sample;
use ppl_inference::{ImportanceSampler, IndependenceMh, DEFAULT_BLOCK};
use ppl_store::json::Json;

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
    /// Particles per second, single-threaded.
    pub seq_particles_per_sec: Stat,
    /// Particles per second, parallel.
    pub par_particles_per_sec: Stat,
    /// Single-threaded over parallel wall time, trial by trial.
    pub speedup: Stat,
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

/// The Table 2 benchmarks that run importance sampling.
fn is_benchmarks() -> impl Iterator<Item = &'static str> {
    ppl_models::table2_benchmarks()
        .into_iter()
        .filter(|(_, kind)| *kind == ppl_models::InferenceKind::ImportanceSampling)
        .map(|(name, _)| name)
}

/// Measures particles/sec (1 vs N threads) on the Table 2 IS benchmarks.
pub fn throughput_rows(config: &ThroughputConfig) -> Vec<ThroughputRow> {
    is_benchmarks()
        .map(|name| throughput_row(name, config))
        .collect()
}

fn throughput_row(name: &'static str, config: &ThroughputConfig) -> ThroughputRow {
    let session = Session::from_benchmark(name).expect("registered benchmark");
    let b = ppl_models::benchmark(name).expect("registered benchmark");
    let executor = session.executor(b.observations.clone());
    let spec = session.spec();
    let run = |threads: usize| {
        let mut rng = Pcg32::seed_from_u64(config.seed);
        ImportanceSampler::new(config.particles)
            .with_threads(threads)
            .with_block(config.block)
            .run(&executor, &spec, &mut rng)
            .expect("importance sampling")
    };

    let (mut seq, mut par, mut seq_allocs) = (None, None, 0);
    let trials = measure(2, |i| {
        if i == 0 {
            let before = alloc_track::thread_allocations();
            seq = Some(run(1));
            seq_allocs = alloc_track::thread_allocations() - before;
        } else {
            par = Some(run(config.threads));
        }
    });
    let (seq, par) = (seq.expect("measured"), par.expect("measured"));
    let particles = config.particles as f64;

    ThroughputRow {
        name,
        particles: config.particles,
        threads: config.threads,
        block: config.block,
        seq_particles_per_sec: trials.stat(|s| particles / s[0]),
        par_particles_per_sec: trials.stat(|s| particles / s[1]),
        speedup: trials.stat(|s| s[0] / s[1]),
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
    /// Particles per second, single-threaded.
    pub particles_per_sec: Stat,
    /// Scalar over block wall time, trial by trial.
    pub speedup_vs_scalar: Stat,
    /// Whether this block size reproduced the scalar run bit-for-bit
    /// (always expected `true`; recorded so CI can assert it).
    pub bit_identical: bool,
}

/// Block sizes [`block_rows`] scans (1 = scalar reference).
pub const BLOCK_SCAN: [usize; 3] = [1, 64, 256];

/// Measures single-thread particles/sec at each [`BLOCK_SCAN`] size on the
/// Table 2 IS benchmarks, the sizes interleaved within each trial,
/// re-verifying that every block size reproduces the scalar run
/// bit-for-bit.
pub fn block_rows(config: &ThroughputConfig) -> Vec<BlockRow> {
    let mut out = Vec::new();
    for name in is_benchmarks() {
        let session = Session::from_benchmark(name).expect("registered benchmark");
        let b = ppl_models::benchmark(name).expect("registered benchmark");
        let executor = session.executor(b.observations.clone());
        let spec = session.spec();
        let mut results: Vec<_> = BLOCK_SCAN.iter().map(|_| None).collect();
        let trials = measure(BLOCK_SCAN.len(), |i| {
            let mut rng = Pcg32::seed_from_u64(config.seed);
            let result = ImportanceSampler::new(config.particles)
                .with_block(BLOCK_SCAN[i])
                .run(&executor, &spec, &mut rng)
                .expect("single-thread IS");
            results[i] = Some(result);
        });
        let fingerprints: Vec<u64> = results
            .iter()
            .map(|r| posterior_fingerprint(r.as_ref().expect("measured")))
            .collect();
        let particles = config.particles as f64;
        for (i, block) in BLOCK_SCAN.into_iter().enumerate() {
            out.push(BlockRow {
                name,
                block,
                particles: config.particles,
                particles_per_sec: trials.stat(|s| particles / s[i]),
                speedup_vs_scalar: trials.stat(|s| s[0] / s[i]),
                bit_identical: fingerprints[i] == fingerprints[0],
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
    /// Proposal iterations per chain.
    pub iterations: usize,
    /// Proposals evaluated per second.
    pub proposals_per_sec: Stat,
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

    let mut acceptance_rate = f64::NAN;
    let trials = measure(1, |_| {
        let mut rng = Pcg32::seed_from_u64(config.seed);
        acceptance_rate = IndependenceMh::new(iterations, iterations / 10)
            .run(&executor, &spec, &mut rng)
            .expect("MCMC chain")
            .acceptance_rate;
    });

    // Steady-state allocation count: a burn-in-only chain retains no
    // states, so what remains is the pure proposal loop.  The chain owns
    // its scratch pool, so every run pays the same warm-up (same seed ⇒
    // identical prefix); differencing a short and a long run cancels it
    // and leaves the pure per-proposal increment.
    let allocs_per_proposal = if alloc_track::installed() {
        let count = |iters: usize| -> u64 {
            let mut rng = Pcg32::seed_from_u64(config.seed);
            let before = alloc_track::thread_allocations();
            IndependenceMh::new(iters, iters)
                .run(&executor, &spec, &mut rng)
                .expect("MCMC chain");
            alloc_track::thread_allocations() - before
        };
        let short = count(200);
        let long = count(1_200);
        long.saturating_sub(short) as f64 / 1_000.0
    } else {
        f64::NAN
    };

    McmcRow {
        name,
        iterations,
        proposals_per_sec: trials.stat(|s| iterations as f64 / s[0]),
        acceptance_rate,
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
    /// Queries answered per second, single-threaded.
    pub seq_queries_per_sec: Stat,
    /// Queries answered per second, parallel.
    pub par_queries_per_sec: Stat,
    /// Single-threaded over parallel wall time, trial by trial.
    pub speedup: Stat,
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

    let mut results = [None, None];
    let batch_threads = [1, config.threads];
    let trials = measure(2, |i| {
        let batch = session
            .run_batch_threaded(&queries, &method, batch_threads[i])
            .expect("batch");
        results[i] = Some(batch);
    });
    let [seq, par] = results.map(|r| r.expect("measured"));
    let bit_identical = seq
        .iter()
        .zip(&par)
        .all(|(a, b)| posterior_fingerprint(a) == posterior_fingerprint(b));

    let queries = num_queries as f64;
    vec![ServingRow {
        name,
        queries: num_queries,
        particles_per_query,
        batch_threads: config.threads,
        seq_queries_per_sec: trials.stat(|s| queries / s[0]),
        par_queries_per_sec: trials.stat(|s| queries / s[1]),
        speedup: trials.stat(|s| s[0] / s[1]),
        bit_identical,
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
    /// Requests per second, recorder disabled.
    pub off_requests_per_sec: Stat,
    /// Requests per second, recorder enabled.
    pub on_requests_per_sec: Stat,
    /// Relative cost of tracing, `(on / off - 1) × 100` over the wall
    /// times of each trial's pair of passes.  Can be negative under
    /// noise; CI gates its median below a few percent.
    pub tracing_on_overhead_pct: Stat,
    /// Every response was a 200, traced passes produced ring entries,
    /// and untraced responses carried no trace id.
    pub ok: bool,
}

/// Measures the flight recorder's overhead: identical request streams
/// through the in-process handler (no sockets, cache disabled so every
/// request runs inference), one recorder-off and one recorder-on pass per
/// trial.
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
    let trials = measure(2, |i| {
        let enabled = i == 1;
        app.obs.set_enabled(enabled);
        for body in &bodies {
            let response = handler(&request(body));
            ok &= response.status == 200;
            ok &= response.headers.iter().any(|(k, _)| k == "X-Ppl-Trace-Id") == enabled;
        }
    });
    ok &= app.obs.recorded() > 0;
    app.obs.set_enabled(true);

    let per_pass = requests as f64;
    vec![ObservabilityRow {
        name,
        requests,
        particles_per_request,
        off_requests_per_sec: trials.stat(|s| per_pass / s[0]),
        on_requests_per_sec: trials.stat(|s| per_pass / s[1]),
        tracing_on_overhead_pct: trials.stat(|s| (s[1] / s[0] - 1.0) * 100.0),
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
    /// Wall latency of the accepted requests, in milliseconds (`n` is
    /// [`OverloadRow::accepted`]).
    pub accepted_ms: Stat,
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
    use std::time::Instant;

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
        accepted_ms: Stat::of(accepted_ms),
        accepted_p99_ms,
        retry_after_ok,
        post_storm_identical,
        ok,
    }]
}

/// One amortized-inference measurement: the wall cost of a cold VI query
/// (fit + draw in one request) versus an artifact-warm query that reuses a
/// persisted fit through `"artifact": "a-…"`.  The response cache is
/// disabled so every warm request genuinely re-runs the draw pass; the
/// speedup is pure fit amortization, not response memoisation.
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
    /// Cold queries (fit + draw) per second.
    pub cold_queries_per_sec: Stat,
    /// Artifact-warm queries per second.
    pub warm_queries_per_sec: Stat,
    /// Cold over warm wall time, trial by trial — the amortization factor.
    pub amortization: Stat,
    /// Artifacts resident in the store after the run.
    pub artifacts: u64,
    /// Bytes of canonical artifact JSON resident in the store.
    pub store_bytes: u64,
    /// Warm starts the store served, one per warm query.
    pub warm_starts: u64,
    /// Every response was a 200, every cold and warm body was
    /// byte-identical to the first cold one, and no warm query ran a VI
    /// fit execution (verified against the serving app's own ledger,
    /// `App::vi_fit_executions`, around each warm query alone).
    pub ok: bool,
}

/// Measures amortized inference over loopback HTTP: one `POST /v1/fit`,
/// then cold VI queries (fit + draw) interleaved with artifact-warm
/// queries, with byte-identity and the zero-fit-executions invariant
/// re-verified per request against the serving app's own ledger.
pub fn amortization_rows(config: &ThroughputConfig) -> Vec<AmortizationRow> {
    use ppl_serve::http::ClientConn;
    use ppl_serve::{App, AppLimits, Registry, Server};
    use ppl_store::Store;

    let name = "weight";
    let fit_iterations = 100usize;
    let samples_per_iteration = 8usize;
    let draw_particles = 200usize;

    // Cache capacity 0: every query re-runs its draw pass (and a cold one
    // its fit), so the measured ratio is fit amortization alone.
    let store = std::sync::Arc::new(Store::in_memory(16));
    let app = App::with_limits(
        Registry::from_benchmarks(),
        0,
        config.block,
        store,
        AppLimits::default(),
    );
    let server = Server::bind("127.0.0.1:0", 2, app.handler()).expect("bind loopback");
    let mut conn = ClientConn::connect(server.local_addr()).expect("loopback connect");

    let fit_body = format!(
        r#"{{"model":"{name}","observations":[9.0,9.0],"seed":{},
            "fit":{{"iterations":{fit_iterations},
                    "samples_per_iteration":{samples_per_iteration}}}}}"#,
        config.seed
    );
    let (fit_status, _, fit_response) = conn
        .send("POST", "/v1/fit", Some(&fit_body))
        .expect("fit request");
    let mut ok = fit_status == 201;
    let id = Json::parse(std::str::from_utf8(&fit_response).unwrap_or_default())
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default();

    let cold_body = format!(
        r#"{{"model":"{name}","observations":[9.0,9.0],"seed":{},
            "method":{{"algorithm":"vi","iterations":{fit_iterations},
                       "samples_per_iteration":{samples_per_iteration},
                       "draw_particles":{draw_particles}}}}}"#,
        config.seed
    );
    let warm_body =
        format!(r#"{{"model":"{name}","artifact":"{id}","draw_particles":{draw_particles}}}"#);
    // The warm-up runs the cold query first, so the warm queries always
    // have a reference body to match.
    let mut reference: Option<Vec<u8>> = None;
    let trials = measure(2, |i| {
        if i == 0 {
            let (status, _, body) = conn
                .send("POST", "/v1/query", Some(&cold_body))
                .expect("cold query");
            ok &= status == 200 && *reference.get_or_insert_with(|| body.clone()) == body;
        } else {
            // The in-process app's ledger: the warm query must not
            // schedule a single VI fit.
            let fits_before = app.vi_fit_executions();
            let (status, _, body) = conn
                .send("POST", "/v1/query", Some(&warm_body))
                .expect("warm query");
            ok &= app.vi_fit_executions() == fits_before;
            ok &= status == 200 && reference.as_ref() == Some(&body);
        }
    });
    let artifacts = app.store.len() as u64;
    let store_bytes = app.store.bytes();
    let warm_starts = app.store.warm_starts();
    server.shutdown();

    vec![AmortizationRow {
        name,
        fit_iterations,
        samples_per_iteration,
        draw_particles,
        cold_queries_per_sec: trials.stat(|s| 1.0 / s[0]),
        warm_queries_per_sec: trials.stat(|s| 1.0 / s[1]),
        amortization: trials.stat(|s| s[0] / s[1]),
        artifacts,
        store_bytes,
        warm_starts,
        ok,
    }]
}

/// Every row `ppl-bench` reports, in report order.
#[derive(Debug, Clone)]
pub struct Report {
    /// The configuration every row ran at.
    pub config: ThroughputConfig,
    /// [`throughput_rows`].
    pub throughput: Vec<ThroughputRow>,
    /// [`block_rows`].
    pub blocks: Vec<BlockRow>,
    /// [`mcmc_rows`].
    pub mcmc: Vec<McmcRow>,
    /// [`serving_rows`].
    pub serving: Vec<ServingRow>,
    /// [`amortization_rows`].
    pub amortization: Vec<AmortizationRow>,
    /// [`overload_rows`].
    pub overload: Vec<OverloadRow>,
    /// [`observability_rows`].
    pub observability: Vec<ObservabilityRow>,
}

impl Report {
    /// Runs every row at `config`.
    pub fn run(config: &ThroughputConfig) -> Report {
        Report {
            config: *config,
            throughput: throughput_rows(config),
            blocks: block_rows(config),
            mcmc: mcmc_rows(config),
            serving: serving_rows(config),
            amortization: amortization_rows(config),
            overload: overload_rows(config),
            observability: observability_rows(config),
        }
    }

    /// Whether every bit-identity, byte-identity and contract check held.
    pub fn ok(&self) -> bool {
        self.throughput.iter().all(|r| r.bit_identical)
            && self.blocks.iter().all(|r| r.bit_identical)
            && self.serving.iter().all(|r| r.bit_identical)
            && self.amortization.iter().all(|r| r.ok)
            && self.overload.iter().all(|r| r.ok)
            && self.observability.iter().all(|r| r.ok)
    }

    /// The `BENCH_inference.json` document.  A timed figure `k` is its
    /// median, with `k_p10`, `k_p90` and the row's `trials` beside it;
    /// non-finite numbers are `null`.
    pub fn json(&self) -> Json {
        fn rows<T>(rows: &[T], json: fn(&T) -> Json) -> Json {
            Json::Arr(rows.iter().map(json).collect())
        }
        let c = &self.config;
        Members::default()
            .with("schema", Json::str("ppl-bench/inference/v9"))
            .count("particles", c.particles)
            .count("threads", c.threads)
            .count("block", c.block)
            .with("seed", Json::Num(c.seed as f64))
            // Provenance: parallel speedups are only meaningful relative
            // to the cores the measuring host actually had.
            .count(
                "host_cpus",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .with("throughput", rows(&self.throughput, ThroughputRow::json))
            .with("blocks", rows(&self.blocks, BlockRow::json))
            .with("mcmc", rows(&self.mcmc, McmcRow::json))
            .with("serving", rows(&self.serving, ServingRow::json))
            .with(
                "amortization",
                rows(&self.amortization, AmortizationRow::json),
            )
            .with("overload", rows(&self.overload, OverloadRow::json))
            .with(
                "observability",
                rows(&self.observability, ObservabilityRow::json),
            )
            .done()
    }
}

/// A report object under construction; members keep insertion order.
#[derive(Default)]
struct Members(Vec<(String, Json)>);

impl Members {
    fn with(mut self, key: &str, value: Json) -> Members {
        self.0.push((key.to_string(), value));
        self
    }

    fn count(self, key: &str, n: usize) -> Members {
        self.with(key, Json::Num(n as f64))
    }

    fn num(self, key: &str, x: f64) -> Members {
        self.with(key, Json::num_or_null(x))
    }

    fn timed(self, key: &str, stat: &Stat) -> Members {
        self.num(key, stat.median)
            .num(&format!("{key}_p10"), stat.p10)
            .num(&format!("{key}_p90"), stat.p90)
    }

    fn done(self) -> Json {
        Json::Obj(self.0)
    }
}

impl ThroughputRow {
    fn json(&self) -> Json {
        Members::default()
            .with("name", Json::str(self.name))
            .with("algorithm", Json::str("IS"))
            .count("particles", self.particles)
            .count("threads", self.threads)
            .count("block", self.block)
            .count("trials", self.speedup.n)
            .timed("seq_particles_per_sec", &self.seq_particles_per_sec)
            .timed("par_particles_per_sec", &self.par_particles_per_sec)
            .timed("speedup", &self.speedup)
            .num("ess", self.ess)
            .num("log_evidence", self.log_evidence)
            .with("bit_identical", Json::Bool(self.bit_identical))
            .num("allocs_per_particle", self.allocs_per_particle)
            .done()
    }
}

impl BlockRow {
    fn json(&self) -> Json {
        Members::default()
            .with("name", Json::str(self.name))
            .with("algorithm", Json::str("IS"))
            .count("block", self.block)
            .count("particles", self.particles)
            .count("trials", self.particles_per_sec.n)
            .timed("particles_per_sec", &self.particles_per_sec)
            .timed("speedup_vs_scalar", &self.speedup_vs_scalar)
            .with("bit_identical", Json::Bool(self.bit_identical))
            .done()
    }
}

impl McmcRow {
    fn json(&self) -> Json {
        Members::default()
            .with("name", Json::str(self.name))
            .with("algorithm", Json::str("MH"))
            .count("iterations", self.iterations)
            .count("trials", self.proposals_per_sec.n)
            .timed("proposals_per_sec", &self.proposals_per_sec)
            .num("acceptance_rate", self.acceptance_rate)
            .num("allocs_per_proposal", self.allocs_per_proposal)
            .done()
    }
}

impl ServingRow {
    fn json(&self) -> Json {
        Members::default()
            .with("name", Json::str(self.name))
            .count("queries", self.queries)
            .count("particles_per_query", self.particles_per_query)
            .count("batch_threads", self.batch_threads)
            .count("trials", self.speedup.n)
            .timed("seq_queries_per_sec", &self.seq_queries_per_sec)
            .timed("par_queries_per_sec", &self.par_queries_per_sec)
            .timed("speedup", &self.speedup)
            .with("bit_identical", Json::Bool(self.bit_identical))
            .done()
    }
}

impl AmortizationRow {
    fn json(&self) -> Json {
        Members::default()
            .with("name", Json::str(self.name))
            .count("fit_iterations", self.fit_iterations)
            .count("samples_per_iteration", self.samples_per_iteration)
            .count("draw_particles", self.draw_particles)
            .count("trials", self.amortization.n)
            .timed("cold_queries_per_sec", &self.cold_queries_per_sec)
            .timed("warm_queries_per_sec", &self.warm_queries_per_sec)
            .timed("amortization", &self.amortization)
            .with("artifacts", Json::Num(self.artifacts as f64))
            .with("store_bytes", Json::Num(self.store_bytes as f64))
            .with("warm_starts", Json::Num(self.warm_starts as f64))
            .with("ok", Json::Bool(self.ok))
            .done()
    }
}

impl OverloadRow {
    fn json(&self) -> Json {
        Members::default()
            .with("name", Json::str(self.name))
            .count("clients", self.clients)
            .count("requests_per_client", self.requests_per_client)
            .count("particles_per_request", self.particles_per_request)
            .count("accepted", self.accepted)
            .count("shed", self.shed)
            .count("errors_5xx", self.errors_5xx)
            .count("connect_errors", self.connect_errors)
            .num("shed_rate", self.shed_rate)
            .timed("accepted_ms", &self.accepted_ms)
            .num("accepted_p99_ms", self.accepted_p99_ms)
            .with("retry_after_ok", Json::Bool(self.retry_after_ok))
            .with(
                "post_storm_identical",
                Json::Bool(self.post_storm_identical),
            )
            .with("ok", Json::Bool(self.ok))
            .done()
    }
}

impl ObservabilityRow {
    fn json(&self) -> Json {
        Members::default()
            .with("name", Json::str(self.name))
            .count("requests", self.requests)
            .count("particles_per_request", self.particles_per_request)
            .count("trials", self.tracing_on_overhead_pct.n)
            .timed("off_requests_per_sec", &self.off_requests_per_sec)
            .timed("on_requests_per_sec", &self.on_requests_per_sec)
            .timed("tracing_on_overhead_pct", &self.tracing_on_overhead_pct)
            .with("ok", Json::Bool(self.ok))
            .done()
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
            assert!(r.seq_particles_per_sec.median > 0.0);
            assert!(r.par_particles_per_sec.median > 0.0);
            assert!(r.speedup.median.is_finite() && r.speedup.median > 0.0);
            assert!(r.speedup.p10 <= r.speedup.median && r.speedup.median <= r.speedup.p90);
            assert!(r.speedup.n >= crate::measure::MIN_TRIALS);
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
            assert!(r.particles_per_sec.median > 0.0);
            let speedup = r.speedup_vs_scalar.median;
            assert!(speedup.is_finite() && speedup > 0.0);
        }
        // Every benchmark leads with its scalar reference row, whose
        // per-trial ratio to itself is exactly one.
        for chunk in rows.chunks(BLOCK_SCAN.len()) {
            assert_eq!(chunk[0].block, 1);
            assert_eq!(chunk[0].speedup_vs_scalar.p10, 1.0);
            assert_eq!(chunk[0].speedup_vs_scalar.p90, 1.0);
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
            assert!(r.proposals_per_sec.median > 0.0, "{}", r.name);
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
            assert!(r.seq_queries_per_sec.median > 0.0);
            assert!(r.par_queries_per_sec.median > 0.0);
            assert!(r.speedup.median.is_finite() && r.speedup.median > 0.0);
        }
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
            "a body diverged from the first cold one, or a warm query ran fit executions"
        );
        assert_eq!(r.artifacts, 1);
        assert!(r.store_bytes > 0);
        // One warm start per warm query: the warm-up's and each trial's.
        assert_eq!(r.warm_starts, r.amortization.n as u64 + 1);
        // The wall-clock ratio is load-dependent, so the test only demands
        // amortization > 1; the recorded BENCH row carries the real factor.
        assert!(
            r.amortization.median > 1.0,
            "amortization {}",
            r.amortization
        );
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
        assert_eq!(r.accepted_ms.n, r.accepted);
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
        let report = Report::run(&config);
        assert!(report.ok(), "a determinism or contract check failed");
        let text = report.json().write().expect("non-finite numbers are null");
        let doc = Json::parse(&text).expect("the report parses");
        let section = |key: &str| -> &[Json] {
            let rows = doc.get(key).and_then(Json::as_arr);
            let rows = rows.unwrap_or_else(|| panic!("no {key} array in {text}"));
            assert!(!rows.is_empty(), "empty {key} section");
            rows
        };
        let field = |row: &Json, key: &str| -> Json {
            row.get(key)
                .unwrap_or_else(|| panic!("missing {key} in {row:?}"))
                .clone()
        };
        let number = |row: &Json, key: &str| -> f64 {
            let value = field(row, key).as_f64();
            value.unwrap_or_else(|| panic!("{key} is not a number in {row:?}"))
        };
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppl-bench/inference/v9")
        );

        // What the bench-regress job reads.
        for row in section("throughput") {
            assert!(number(row, "seq_particles_per_sec") > 0.0);
            assert_eq!(field(row, "bit_identical"), Json::Bool(true));
            // The lib test binary does not install the counting allocator:
            // the NaN it reports is written as null.
            assert_eq!(field(row, "allocs_per_particle"), Json::Null);
        }
        // What the overload-contract check reads.
        for row in section("overload") {
            field(row, "name").as_str().expect("a name");
            for key in ["accepted", "shed", "errors_5xx", "connect_errors"] {
                field(row, key).as_u64().expect("a count");
            }
            number(row, "shed_rate");
            number(row, "accepted_p99_ms");
            assert_eq!(field(row, "errors_5xx"), Json::Num(0.0));
            assert_eq!(field(row, "retry_after_ok"), Json::Bool(true));
            assert_eq!(field(row, "post_storm_identical"), Json::Bool(true));
        }
        // What the tracing-overhead check reads.
        for row in section("observability") {
            field(row, "name").as_str().expect("a name");
            number(row, "off_requests_per_sec");
            number(row, "on_requests_per_sec");
            let overhead = number(row, "tracing_on_overhead_pct");
            let (p10, p90) = (
                number(row, "tracing_on_overhead_pct_p10"),
                number(row, "tracing_on_overhead_pct_p90"),
            );
            assert!(p10 <= overhead && overhead <= p90);
            assert!(field(row, "trials").as_u64().expect("a count") >= 5);
            assert_eq!(field(row, "ok"), Json::Bool(true));
        }
        for key in ["blocks", "mcmc", "serving", "amortization"] {
            for row in section(key) {
                assert!(field(row, "trials").as_u64().expect("a count") >= 5);
            }
        }
    }
}
