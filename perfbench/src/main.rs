//! `perfbench`: the served-inference benchmark.
//!
//! ```text
//! perfbench --workload <is-vectorised|is-recursive|tenant-session>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Boots `ppl-serve` in process as the binary does, drives it over
//! loopback from two closed-loop clients with one keep-alive connection
//! each, checks every response, and prints every metric by name with its
//! unit.  The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1` (see `trace.rs`).  Exits non-zero when any check fails.

mod alloc;
mod client;
mod run;
mod spans;
mod stats;
mod sys;
mod trace;
mod workload;

use run::Log;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, CLIENTS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds expects 1..=600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <is-vectorised|is-recursive|\
                 tenant-session> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={CLIENTS} nproc={} \
         cpu=\"{}\" rustc=\"{}\" commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::nproc(),
        sys::cpu_model(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    );
    let outcome = if args.trace {
        trace::traced_run(args.workload, args.seed, Duration::from_secs(args.seconds))
    } else {
        untraced_run(args.workload, args.seed, Duration::from_secs(args.seconds))
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&outcome)
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further figures printed by name only.
    pub notes: Vec<Metric>,
}

fn report(outcome: &Outcome) -> ExitCode {
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The untraced run: set up [`SETUPS`] times, then one timed window.
fn untraced_run(workload: Workload, seed: u64, window: Duration) -> Result<Outcome, String> {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut setup = loop {
        let s = run::set_up(workload).map_err(|e| format!("set-up failed: {e}"))?;
        setup_times.push(s.seconds);
        attempted += s.warm_ops;
        failed += s.errors.len() as u64;
        errors.extend(s.errors.iter().cloned());
        if setup_times.len() == SETUPS {
            break s;
        }
        s.tear_down();
    };

    let cpu0 = sys::process_cpu_s();
    let start = Instant::now();
    let mut log = run::closed_loop(
        workload,
        &mut setup.clients,
        start,
        window,
        0,
        |stream, client, index, log: &mut Log| {
            let op = workload::op(workload, seed, stream as u64, index);
            match run::run_op(client, &op) {
                Ok(bodies) => {
                    if run::sampled(seed, stream as u64, index) {
                        run::keep_sample(log, &op, bodies, index);
                    }
                }
                Err(e) => log.fail(format!("op {index} of client {stream}: {e}")),
            }
        },
    );
    let cpu_s = sys::process_cpu_s() - cpu0;
    let peak_rss_mb = sys::peak_rss_mb();
    let wall_s = log.end.map_or(f64::NAN, |end| (end - start).as_secs_f64());
    let ops = log.latencies_ms.len();

    let sample_errors = run::verify_samples(&setup.served.app, &log.sampled);
    for e in sample_errors {
        log.fail(e);
    }
    let reconnects = log.reconnects;
    let class_medians = run::class_medians(workload, &log);
    setup.tear_down();

    attempted += log.attempted();
    failed += log.failed;
    errors.extend(log.errors);
    let setup_s = stats::median(&setup_times).unwrap_or(f64::NAN);
    let percentile = |p| stats::nearest_rank(&log.latencies_ms, p).unwrap_or(f64::NAN);
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", ops as f64 / wall_s, "ops/s"),
            Metric::new("op_p50_ms", percentile(50.0), "ms"),
            Metric::new("op_p90_ms", percentile(90.0), "ms"),
            Metric::new("cpu_ms_per_op", cpu_s * 1e3 / ops.max(1) as f64, "ms"),
        ],
        // Printed, not gated: `error_rate` is 0 on a correct run (the
        // `failed` count carries it), and `peak_rss_mb` on is-recursive
        // follows the heavy-tailed trace sizes of ex-2 across seeds.
        notes: vec![
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
            Metric::new(
                "error_rate",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("ops", ops as f64, "count"),
            Metric::new("window_s", wall_s, "s"),
            Metric::new("reconnects", reconnects as f64, "count"),
            Metric::new("sampled_bodies_checked", log.sampled.len() as f64, "count"),
        ]
        .into_iter()
        .chain(class_medians)
        .collect(),
    })
}
