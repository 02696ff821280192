//! `ppl-bench` — the perf-tracking entry point of the benchmark harness.
//!
//! Measures particle throughput of the zero-copy execution core (1 vs N
//! threads, verifying bit-identical results) and the wall time of each
//! inference engine on a reference workload.
//!
//! ```text
//! ppl-bench [--json [PATH]] [--particles N] [--threads N] [--block N]
//! ```
//!
//! Without flags the results are printed as a table.  With `--json`, a
//! machine-readable report is also written to `PATH` (default
//! `BENCH_inference.json`); CI runs this as a smoke step so the performance
//! trajectory is tracked per commit.

use ppl_bench::throughput::{
    admission_rows, amortization_rows, bench_json, block_rows, engine_timings, http_rows,
    mcmc_rows, observability_rows, overload_rows, serving_rows, throughput_rows, ThroughputConfig,
};
use std::process::ExitCode;

/// Counting allocator so the report can include `allocs_per_particle`
/// (end-to-end IS runs) and `allocs_per_proposal` (the steady-state MH
/// chain, whose target is zero); the counter
/// is a relaxed atomic increment per allocation, far below measurement
/// noise on the timed sections.
#[global_allocator]
static GLOBAL: ppl_bench::alloc_track::CountingAlloc = ppl_bench::alloc_track::CountingAlloc;

fn main() -> ExitCode {
    let mut config = ThroughputConfig::default();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let path = match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next().unwrap(),
                    _ => "BENCH_inference.json".to_string(),
                };
                json_path = Some(path);
            }
            "--particles" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.particles = n,
                None => return usage("--particles expects a positive integer"),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.threads = n,
                None => return usage("--threads expects a positive integer"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.seed = n,
                None => return usage("--seed expects an integer"),
            },
            "--block" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => config.block = n,
                _ => return usage("--block expects a positive integer"),
            },
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    println!(
        "particle throughput — {} particles, 1 vs {} threads (seed {})",
        config.particles, config.threads, config.seed
    );
    let rows = throughput_rows(&config);
    println!(
        "{:<12} {:>14} {:>14} {:>9} {:>10} {:>14} {:>10} {:>10}",
        "benchmark",
        "1-thread p/s",
        "N-thread p/s",
        "speedup",
        "ess",
        "log-evidence",
        "identical",
        "allocs/p"
    );
    let mut all_identical = true;
    for r in &rows {
        all_identical &= r.bit_identical;
        println!(
            "{:<12} {:>14.0} {:>14.0} {:>8.2}x {:>10.1} {:>14.4} {:>10} {:>10.3}",
            r.name,
            r.seq_particles_per_sec,
            r.par_particles_per_sec,
            r.speedup,
            r.ess,
            r.log_evidence,
            r.bit_identical,
            r.allocs_per_particle,
        );
    }

    println!("\nblock vs scalar — single thread, block 1 is the scalar reference");
    println!(
        "{:<12} {:>6} {:>14} {:>9} {:>10}",
        "benchmark", "block", "particles/s", "speedup", "identical"
    );
    let blocks = block_rows(&config);
    for r in &blocks {
        all_identical &= r.bit_identical;
        println!(
            "{:<12} {:>6} {:>14.0} {:>8.2}x {:>10}",
            r.name, r.block, r.particles_per_sec, r.speedup_vs_scalar, r.bit_identical,
        );
    }

    println!("\nMCMC proposal throughput — sequential chain, recycled scratch");
    println!(
        "{:<12} {:>10} {:>16} {:>12} {:>10}",
        "benchmark", "proposals", "proposals/sec", "acceptance", "allocs/p"
    );
    let mcmc = mcmc_rows(&config);
    for r in &mcmc {
        println!(
            "{:<12} {:>10} {:>16.0} {:>12.3} {:>10.3}",
            r.name, r.iterations, r.proposals_per_sec, r.acceptance_rate, r.allocs_per_proposal,
        );
    }

    println!("\nbatched serving — one compiled model, many observation sets");
    println!(
        "{:<14} {:>8} {:>12} {:>14} {:>14} {:>9} {:>10}",
        "benchmark",
        "queries",
        "particles/q",
        "1-thread q/s",
        "N-thread q/s",
        "speedup",
        "identical"
    );
    let serving = serving_rows(&config);
    for r in &serving {
        all_identical &= r.bit_identical;
        println!(
            "{:<14} {:>8} {:>12} {:>14.1} {:>14.1} {:>8.2}x {:>10}",
            r.name,
            r.queries,
            r.particles_per_query,
            r.seq_queries_per_sec,
            r.par_queries_per_sec,
            r.speedup,
            r.bit_identical,
        );
    }

    println!("\nHTTP serving — loopback ppl-serve, cold inference vs warm exact-cache hits");
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>12} {:>10} {:>6}",
        "benchmark", "requests", "particles/r", "cold req/s", "warm req/s", "hit rate", "ok"
    );
    let http = http_rows(&config);
    for r in &http {
        all_identical &= r.ok;
        println!(
            "{:<12} {:>9} {:>12} {:>12.1} {:>12.1} {:>10.3} {:>6}",
            r.name,
            r.requests,
            r.particles_per_request,
            r.cold_requests_per_sec,
            r.warm_requests_per_sec,
            r.cache_hit_rate,
            r.ok,
        );
    }

    println!("\nmodel admission — full pipeline compiles plus HTTP submit→first-query");
    println!(
        "{:<10} {:>14} {:>24} {:>6}",
        "compiles", "compiles/sec", "submit→first-query (s)", "ok"
    );
    let admission = admission_rows(&config);
    for r in &admission {
        all_identical &= r.ok;
        println!(
            "{:<10} {:>14.1} {:>24.4} {:>6}",
            r.compiles, r.compiles_per_sec, r.submit_to_first_query_seconds, r.ok,
        );
    }

    println!("\namortized inference — cold VI fit+draw vs artifact-warm draw (cache disabled)");
    println!(
        "{:<10} {:>10} {:>8} {:>12} {:>12} {:>14} {:>6}",
        "benchmark", "fit iters", "draws", "cold q/s", "warm q/s", "amortization", "ok"
    );
    let amortization = amortization_rows(&config);
    for r in &amortization {
        all_identical &= r.ok;
        println!(
            "{:<10} {:>10} {:>8} {:>12.2} {:>12.1} {:>13.1}x {:>6}",
            r.name,
            r.fit_iterations,
            r.draw_particles,
            r.cold_queries_per_sec,
            r.warm_queries_per_sec,
            r.amortization,
            r.ok,
        );
    }

    println!("\noverload — fresh-connection storm vs a one-slot admission queue (cache disabled)");
    println!(
        "{:<10} {:>8} {:>9} {:>6} {:>10} {:>8} {:>13} {:>10} {:>6}",
        "benchmark",
        "accepted",
        "shed",
        "5xx",
        "shed rate",
        "p99 ms",
        "retry-after",
        "identical",
        "ok"
    );
    let overload = overload_rows(&config);
    for r in &overload {
        all_identical &= r.ok;
        println!(
            "{:<10} {:>8} {:>9} {:>6} {:>10.3} {:>8.1} {:>13} {:>10} {:>6}",
            r.name,
            r.accepted,
            r.shed,
            r.errors_5xx,
            r.shed_rate,
            r.accepted_p99_ms,
            r.retry_after_ok,
            r.post_storm_identical,
            r.ok,
        );
    }

    println!("\nobservability — flight-recorder overhead (in-process handler, cache disabled)");
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>12} {:>6}",
        "benchmark", "requests", "off req/s", "on req/s", "overhead %", "ok"
    );
    let observability = observability_rows(&config);
    for r in &observability {
        all_identical &= r.ok;
        println!(
            "{:<10} {:>8} {:>12.1} {:>12.1} {:>12.2} {:>6}",
            r.name,
            r.requests,
            r.off_requests_per_sec,
            r.on_requests_per_sec,
            r.tracing_on_overhead_pct,
            r.ok,
        );
    }

    println!("\nengine wall times");
    let engines = engine_timings(&config);
    for e in &engines {
        println!(
            "{:<6} {:<10} {:>9.3}s   {} = {:.4}",
            e.engine, e.benchmark, e.wall_seconds, e.metric, e.value
        );
    }

    if let Some(path) = json_path {
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
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }

    if !all_identical {
        eprintln!("error: a determinism check failed (thread-count bit-identity or HTTP warm/cold byte-identity)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: ppl-bench [--json [PATH]] [--particles N] [--threads N] [--seed S] [--block N]"
    );
    ExitCode::FAILURE
}
