//! `ppl-bench` — the perf-tracking entry point of the benchmark harness.
//!
//! Runs every [`Report`] row — particle throughput of the execution core
//! (1 vs N threads), block sizes, MCMC, batched serving, fit amortization,
//! overload and tracing overhead — each timed as the median [p10, p90] of
//! interleaved trials, and re-verifies every bit-identity and contract
//! check along the way.
//!
//! ```text
//! ppl-bench [--json [PATH]] [--particles N] [--threads N] [--seed S] [--block N]
//! ```
//!
//! The results are printed as tables.  With `--json`, the report is also
//! written to `PATH` (default `BENCH_inference.json`), the file CI's checks
//! read.  The exit status is non-zero when any check failed.

use ppl_bench::throughput::{Report, ThroughputConfig};
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
        "every timing: median [p10, p90] over n interleaved trials (seed {})",
        config.seed
    );
    let report = Report::run(&config);

    println!(
        "\nparticle throughput — {} particles, 1 vs {} threads",
        config.particles, config.threads
    );
    println!(
        "{:<12} {:>3} {:>28} {:>28} {:>20} {:>10} {:>14} {:>10} {:>9}",
        "benchmark",
        "n",
        "1-thread p/s",
        "N-thread p/s",
        "speedup",
        "ess",
        "log-evidence",
        "identical",
        "allocs/p"
    );
    for r in &report.throughput {
        println!(
            "{:<12} {:>3} {:>28.0} {:>28.0} {:>20.2} {:>10.1} {:>14.4} {:>10} {:>9.3}",
            r.name,
            r.speedup.n,
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
        "{:<12} {:>6} {:>3} {:>28} {:>20} {:>10}",
        "benchmark", "block", "n", "particles/s", "speedup", "identical"
    );
    for r in &report.blocks {
        println!(
            "{:<12} {:>6} {:>3} {:>28.0} {:>20.2} {:>10}",
            r.name,
            r.block,
            r.particles_per_sec.n,
            r.particles_per_sec,
            r.speedup_vs_scalar,
            r.bit_identical,
        );
    }

    println!("\nMCMC proposal throughput — sequential chain, recycled scratch");
    println!(
        "{:<12} {:>10} {:>3} {:>28} {:>12} {:>10}",
        "benchmark", "proposals", "n", "proposals/sec", "acceptance", "allocs/p"
    );
    for r in &report.mcmc {
        println!(
            "{:<12} {:>10} {:>3} {:>28.0} {:>12.3} {:>10.3}",
            r.name,
            r.iterations,
            r.proposals_per_sec.n,
            r.proposals_per_sec,
            r.acceptance_rate,
            r.allocs_per_proposal,
        );
    }

    println!("\nbatched serving — one compiled model, many observation sets");
    println!(
        "{:<14} {:>8} {:>12} {:>3} {:>24} {:>24} {:>20} {:>10}",
        "benchmark",
        "queries",
        "particles/q",
        "n",
        "1-thread q/s",
        "N-thread q/s",
        "speedup",
        "identical"
    );
    for r in &report.serving {
        println!(
            "{:<14} {:>8} {:>12} {:>3} {:>24.1} {:>24.1} {:>20.2} {:>10}",
            r.name,
            r.queries,
            r.particles_per_query,
            r.speedup.n,
            r.seq_queries_per_sec,
            r.par_queries_per_sec,
            r.speedup,
            r.bit_identical,
        );
    }

    println!("\namortized inference — cold VI fit+draw vs artifact-warm draw (cache disabled)");
    println!(
        "{:<10} {:>10} {:>8} {:>3} {:>22} {:>24} {:>22} {:>6}",
        "benchmark", "fit iters", "draws", "n", "cold q/s", "warm q/s", "amortization", "ok"
    );
    for r in &report.amortization {
        println!(
            "{:<10} {:>10} {:>8} {:>3} {:>22.1} {:>24.1} {:>22.1} {:>6}",
            r.name,
            r.fit_iterations,
            r.draw_particles,
            r.amortization.n,
            r.cold_queries_per_sec,
            r.warm_queries_per_sec,
            r.amortization,
            r.ok,
        );
    }

    println!("\noverload — fresh-connection storm vs a one-slot admission queue (cache disabled)");
    println!(
        "{:<10} {:>8} {:>9} {:>6} {:>10} {:>22} {:>8} {:>13} {:>10} {:>6}",
        "benchmark",
        "accepted",
        "shed",
        "5xx",
        "shed rate",
        "accepted ms",
        "p99 ms",
        "retry-after",
        "identical",
        "ok"
    );
    for r in &report.overload {
        println!(
            "{:<10} {:>8} {:>9} {:>6} {:>10.3} {:>22.1} {:>8.1} {:>13} {:>10} {:>6}",
            r.name,
            r.accepted,
            r.shed,
            r.errors_5xx,
            r.shed_rate,
            r.accepted_ms,
            r.accepted_p99_ms,
            r.retry_after_ok,
            r.post_storm_identical,
            r.ok,
        );
    }

    println!("\nobservability — flight-recorder overhead (in-process handler, cache disabled)");
    println!(
        "{:<10} {:>8} {:>3} {:>24} {:>24} {:>22} {:>6}",
        "benchmark", "requests", "n", "off req/s", "on req/s", "overhead %", "ok"
    );
    for r in &report.observability {
        println!(
            "{:<10} {:>8} {:>3} {:>24.1} {:>24.1} {:>22.2} {:>6}",
            r.name,
            r.requests,
            r.tracing_on_overhead_pct.n,
            r.off_requests_per_sec,
            r.on_requests_per_sec,
            r.tracing_on_overhead_pct,
            r.ok,
        );
    }

    if let Some(path) = json_path {
        let json = report
            .json()
            .write()
            .expect("the report writes non-finite numbers as null");
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }

    if !report.ok() {
        eprintln!(
            "error: a check failed (bit- or byte-identity, the overload contract, \
             zero warm fit executions, or trace ids)"
        );
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
