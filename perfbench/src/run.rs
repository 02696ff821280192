//! Booting the server, the closed loop, and the correctness checks.

use crate::client::{Client, Response};
use crate::stats;
use crate::workload::{self, Op, QuerySpec, Submission, Workload, CLIENTS, WARM_UP_STREAM};
use guide_ppl::Method;
use ppl_serve::registry::DEFAULT_USER_MODEL_CAPACITY;
use ppl_serve::{App, AppLimits, Registry, Server, ServerConfig};
use ppl_store::{Store, DEFAULT_STORE_CAPACITY};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// FNV-1a 64 digests of every warm-up response (status and body, except
/// the `/metrics` scrape) for [`workload::DEFAULT_SEED`].
const GOLDEN_DIGESTS: [(&str, u64); 3] = [
    ("is-vectorised", 0xa760_2975_0670_41f0),
    ("is-recursive", 0xbef0_e431_89ae_3c71),
    ("tenant-session", 0x0849_adb9_b410_a62b),
];

/// One in this many ops has a cold body re-derived in process.
const SAMPLE_EVERY: u64 = 32;

/// The `ppl-serve` binary's default response-cache capacity.
pub const CACHE: usize = 256;

/// An app built as the `ppl-serve` binary builds it with its defaults (32
/// user models, block 64, 30 s deadline, in-memory store, flight recorder
/// on), with the given response-cache capacity.
pub fn app(cache: usize) -> Arc<App> {
    let app = App::with_limits(
        Registry::from_benchmarks().with_user_capacity(DEFAULT_USER_MODEL_CAPACITY),
        cache,
        guide_ppl::inference::DEFAULT_BLOCK,
        Arc::new(Store::in_memory(DEFAULT_STORE_CAPACITY)),
        AppLimits {
            default_deadline_ms: Some(30_000),
            ..AppLimits::default()
        },
    );
    app.obs.set_enabled(true);
    app
}

/// A server booted exactly as the `ppl-serve` binary boots with its
/// defaults: [`app`] with cache 256 behind 4 workers.
pub struct Served {
    pub app: Arc<App>,
    server: Server,
}

impl Served {
    pub fn boot() -> std::io::Result<Served> {
        ppl_serve::obs::log::set_level(ppl_serve::obs::log::Level::Info);
        let app = app(CACHE);
        let config = ServerConfig {
            workers: 4,
            queue_capacity: ppl_serve::http::DEFAULT_QUEUE_CAPACITY,
            shed_counter: Some(app.metrics.queue_sheds_handle()),
            recorder: Some(Arc::clone(&app.obs)),
            ..ServerConfig::default()
        };
        let server = Server::bind_with_config("127.0.0.1:0", config, app.handler())?;
        Ok(Served { app, server })
    }

    pub fn client(&self) -> Client {
        Client::new(self.server.local_addr())
    }

    /// Stops the server; every client connection must be closed first.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// A cold body kept for the in-process re-derivation after the window.
pub struct Sampled {
    pub spec: QuerySpec,
    pub submission: Option<Submission>,
    pub body: Vec<u8>,
}

/// What one client saw.
#[derive(Default)]
pub struct Log {
    pub latencies_ms: Vec<f64>,
    /// The rotation entry of each op, parallel to `latencies_ms`.
    pub classes: Vec<usize>,
    pub failed: u64,
    pub errors: Vec<String>,
    pub sampled: Vec<Sampled>,
    pub end: Option<Instant>,
    pub reconnects: u64,
}

impl Log {
    /// Ops attempted (each op is timed, failed or not).
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    pub fn merge(&mut self, other: Log) {
        self.latencies_ms.extend(other.latencies_ms);
        self.classes.extend(other.classes);
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.sampled.extend(other.sampled);
        self.end = self.end.max(other.end);
        self.reconnects += other.reconnects;
    }
}

/// The statuses and bodies of one op's responses, in request order (the
/// `/metrics` scrape excluded), for the digest and the sampled
/// re-derivation.
pub type OpBodies = Vec<(u16, Vec<u8>)>;

/// Sends one request and checks its status (and, when given, its cache
/// verdict).
pub fn exchange(
    client: &mut Client,
    method: &str,
    path: &str,
    body: &str,
    status: u16,
    cache_hit: Option<bool>,
) -> Result<Response, String> {
    let response = client
        .send(method, path, body)
        .map_err(|e| format!("{method} {path}: socket error: {e}"))?;
    if response.status != status {
        return Err(format!(
            "{method} {path}: status {} (expected {status}): {}",
            response.status,
            String::from_utf8_lossy(&response.body[..response.body.len().min(200)])
        ));
    }
    if cache_hit.is_some() && response.cache_hit != cache_hit {
        return Err(format!(
            "{method} {path}: X-Cache {:?} (expected {:?})",
            response.cache_hit, cache_hit
        ));
    }
    Ok(response)
}

/// Checks that a submit response carries the id `model_id` mints for the
/// sources sent.
pub fn check_minted_id(body: &[u8], submission: &Submission) -> Result<(), String> {
    let expected = format!("{{\"id\":\"{}\"", submission.expected_id());
    if body.starts_with(expected.as_bytes()) {
        Ok(())
    } else {
        Err(format!(
            "minted id differs from model_id of the sources sent ({})",
            submission.expected_id()
        ))
    }
}

/// Runs one op over HTTP with every check; returns the bodies.
pub fn run_op(client: &mut Client, op: &Op) -> Result<OpBodies, String> {
    let mut out = OpBodies::new();
    match op {
        Op::Query(spec) => {
            let r = exchange(client, "POST", "/v1/query", &spec.body(), 200, Some(false))?;
            out.push((r.status, r.body));
        }
        Op::Session {
            submission,
            queries,
        } => {
            let r = exchange(client, "POST", "/v1/models", &submission.body(), 201, None)?;
            check_minted_id(&r.body, submission)?;
            out.push((r.status, r.body));
            let bodies: Vec<String> = queries.iter().map(QuerySpec::body).collect();
            for body in &bodies {
                let r = exchange(client, "POST", "/v1/query", body, 200, Some(false))?;
                out.push((r.status, r.body));
            }
            for (i, body) in bodies.iter().enumerate() {
                let r = exchange(client, "POST", "/v1/query", body, 200, Some(true))?;
                if r.body != out[1 + i].1 {
                    return Err("a cache hit differs from its cold response".into());
                }
                out.push((r.status, r.body));
            }
            exchange(client, "GET", "/metrics", "", 200, None)?;
        }
    }
    Ok(out)
}

/// Whether op `index` of `stream` has a cold body re-derived in process.
pub fn sampled(seed: u64, stream: u64, index: u64) -> bool {
    workload::SplitMix64::new(seed ^ (stream << 40) ^ index)
        .next_u64()
        .is_multiple_of(SAMPLE_EVERY)
}

/// Keeps one cold body of `op` for the in-process check.
pub fn keep_sample(log: &mut Log, op: &Op, bodies: OpBodies, index: u64) {
    let (spec, submission, body) = match op {
        Op::Query(spec) => (spec.clone(), None, bodies.into_iter().next()),
        Op::Session {
            submission,
            queries,
        } => {
            let j = (index as usize) % queries.len();
            (
                queries[j].clone(),
                Some(submission.clone()),
                bodies.into_iter().nth(1 + j),
            )
        }
    };
    if let Some((_, body)) = body {
        log.sampled.push(Sampled {
            spec,
            submission,
            body,
        });
    }
}

/// The warm-up pass: each client in turn runs one op per rotation entry
/// from its warm-up stream of the default seed, so both server workers
/// have served every model before the window opens.  Returns the number
/// of ops and the failures; the digest covers every checked body.
pub fn warm_up(clients: &mut [Client], workload: Workload) -> (u64, Vec<String>) {
    let mut digest = Fnv64::new();
    let mut errors = Vec::new();
    let n = workload.rotation().len() as u64;
    for (i, client) in clients.iter_mut().enumerate() {
        let stream = WARM_UP_STREAM + i as u64;
        for k in 0..n {
            let op = workload::op(workload, workload::DEFAULT_SEED, stream, k);
            match run_op(client, &op) {
                Ok(bodies) => {
                    for (status, body) in &bodies {
                        digest.write(&status.to_le_bytes());
                        digest.write(body);
                    }
                }
                Err(e) => errors.push(format!("warm-up op {k} of client {i}: {e}")),
            }
        }
    }
    let expected = GOLDEN_DIGESTS
        .iter()
        .find(|(w, _)| *w == workload.name())
        .map(|(_, d)| *d);
    if errors.is_empty() && expected != Some(digest.finish()) {
        errors.push(format!(
            "warm-up digest {:016x} differs from the committed {:016x}",
            digest.finish(),
            expected.unwrap_or(0)
        ));
    }
    (n * clients.len() as u64, errors)
}

/// A set-up server: booted, both clients connected, warm-up done.
pub struct Setup {
    pub served: Served,
    pub clients: Vec<Client>,
    pub seconds: f64,
    pub warm_ops: u64,
    pub errors: Vec<String>,
}

/// Boot, bind, connect and warm up, timed.
pub fn set_up(workload: Workload) -> std::io::Result<Setup> {
    let start = Instant::now();
    let served = Served::boot()?;
    let mut clients: Vec<Client> = (0..CLIENTS).map(|_| served.client()).collect();
    for c in &mut clients {
        c.connect()?;
    }
    let (warm_ops, errors) = warm_up(&mut clients, workload);
    Ok(Setup {
        served,
        clients,
        seconds: start.elapsed().as_secs_f64(),
        warm_ops,
        errors,
    })
}

impl Setup {
    pub fn tear_down(self) {
        drop(self.clients);
        self.served.shutdown();
    }
}

/// The closed loop: every client runs ops back to back until `window`
/// has passed since `start`, starting at op `first_index` of its stream.
/// `per_op` runs one op and reports its failure; it is timed from before
/// the first request to after the last response.
pub fn closed_loop<F>(
    workload: Workload,
    clients: &mut [Client],
    start: Instant,
    window: Duration,
    first_index: u64,
    per_op: F,
) -> Log
where
    F: Fn(usize, &mut Client, u64, &mut Log) + Sync,
{
    let deadline = start + window;
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(stream, client)| {
                let per_op = &per_op;
                scope.spawn(move || {
                    let mut log = Log::default();
                    let mut index = first_index;
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        per_op(stream, client, index, &mut log);
                        log.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        log.classes
                            .push(workload::class(workload, stream as u64, index));
                        index += 1;
                    }
                    log.end = Some(Instant::now());
                    log.reconnects = client.reconnects;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Log::default();
    for log in logs {
        all.merge(log);
    }
    all
}

/// Re-derives each sampled cold body in process (`Query::run` plus
/// `query_response_json(..).write()`) and reports every mismatch.
pub fn verify_samples(app: &App, samples: &[Sampled]) -> Vec<String> {
    let mut errors = Vec::new();
    for s in samples {
        let session = match &s.submission {
            None => app
                .registry
                .get(&s.spec.model)
                .map(|entry| Arc::clone(&entry.session))
                .ok_or_else(|| format!("no registry model '{}'", s.spec.model)),
            Some(sub) => guide_ppl::Session::from_sources(
                &sub.model_src,
                sub.model_proc,
                sub.guide_src,
                sub.guide_proc,
            )
            .map(Arc::new)
            .map_err(|e| format!("variant failed in process: {e}")),
        };
        match session.and_then(|session| in_process_body(&session, &s.spec)) {
            Ok(body) if body.as_bytes() == s.body.as_slice() => {}
            Ok(_) => errors.push(format!(
                "served body of {} seed {} differs from the in-process run",
                s.spec.template, s.spec.seed
            )),
            Err(e) => errors.push(e),
        }
    }
    errors
}

/// The `/v1/query` body an in-process run of `spec` produces.
pub fn in_process_body(session: &guide_ppl::Session, spec: &QuerySpec) -> Result<String, String> {
    let method = Method::Importance {
        particles: spec.particles,
    };
    let posterior = session
        .query()
        .observe(spec.observations.iter().cloned())
        .seed(spec.seed)
        .build()
        .map_err(|e| e.to_string())?
        .run(&method)
        .map_err(|e| e.to_string())?;
    ppl_serve::api::query_response_json(&spec.model, &method, spec.seed, &posterior, 0)
        .write()
        .map_err(|e| e.to_string())
}

/// The median latency of each rotation entry, as notes.
pub fn class_medians(workload: Workload, log: &Log) -> Vec<crate::Metric> {
    workload
        .rotation()
        .iter()
        .enumerate()
        .map(|(i, template)| {
            let mine: Vec<f64> = log
                .latencies_ms
                .iter()
                .zip(&log.classes)
                .filter(|(_, &c)| c == i)
                .map(|(&ms, _)| ms)
                .collect();
            crate::Metric::new(
                format!("op_p50_ms.{template}"),
                stats::median(&mine).unwrap_or(f64::NAN),
                "ms",
            )
        })
        .collect()
}

/// FNV-1a, 64-bit.
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv64::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sampling_takes_roughly_one_in_thirty_two() {
        let n = (0..3200).filter(|&k| sampled(3, 0, k)).count();
        assert!((50..=150).contains(&n), "{n}");
    }
}
