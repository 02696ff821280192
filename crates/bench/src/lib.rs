//! Shared harness code for the experiment binaries that regenerate the
//! paper's tables and figures, all timed by one primitive, [`measure()`]:
//!
//! * Table 1 — expressiveness comparison, with the time guide-type
//!   inference takes per model (`table1_expressiveness` binary,
//!   [`table1_rows`]);
//! * Table 2 — performance comparison between compiled/coroutine inference
//!   and handwritten inference: CG, GI, HI and GI/HI
//!   (`table2_performance` binary, [`table2_rows`]);
//! * Fig. 2 — prior vs posterior density of `@x` in the Fig. 1 model
//!   (`fig2_posterior` binary, [`fig2_series`]);
//! * the rows `ppl-bench` reports — particle throughput of the execution
//!   core, block sizes, MCMC, batched serving, fit amortization, overload
//!   and tracing overhead ([`throughput`]), written with `--json` as the
//!   `BENCH_inference.json` document CI reads.

pub mod alloc_track;
pub mod measure;
pub mod throughput;

use guide_ppl::{Method, Session};
use measure::{measure, Stat};
use ppl_compiler::Style;
use ppl_dist::rng::Pcg32;
use ppl_dist::special::log_sum_exp;
use ppl_dist::{Distribution, Sample};
use ppl_inference::{ImportanceSampler, ParamSpec, Posterior, VariationalInference, ViConfig};
use ppl_models::{
    all_benchmarks, benchmark, handwritten, handwritten_is, handwritten_vi, InferenceKind,
};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Description (the Table 1 "Description" column).
    pub description: &'static str,
    /// `T?` — type-checks in the coroutine-based PPL.
    pub ours: bool,
    /// `LOC` — model lines of code (0 when not expressible).
    pub loc: usize,
    /// `TP?` — expressible under the trace-types baseline.
    pub trace_types: bool,
    /// Seconds guide-type inference takes for the model + guide, if
    /// expressible.
    pub inference_time: Option<Stat>,
}

/// Computes every row of Table 1 (the `in_table1` subset of the registry).
pub fn table1_rows() -> Vec<Table1Row> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.in_table1)
        .map(|b| {
            if !b.expressible {
                return Table1Row {
                    name: b.name,
                    description: b.description,
                    ours: false,
                    loc: 0,
                    trace_types: false,
                    inference_time: None,
                };
            }
            let model = b.parsed_model().expect("parses").expect("expressible");
            let guide = b.parsed_guide().expect("parses").expect("expressible");
            let mut ours = false;
            let trials = measure(1, |_| {
                ours = ppl_types::infer_program(&model).is_ok()
                    && ppl_types::infer_program(&guide).is_ok();
            });
            let trace_types = ppl_tracetypes::check_proc(&model, &b.model_proc.into()).is_ok();
            Table1Row {
                name: b.name,
                description: b.description,
                ours,
                loc: b.model_loc(),
                trace_types,
                inference_time: Some(trials.stat(|s| s[0])),
            }
        })
        .collect()
}

/// One row of Table 2.  The three timings are interleaved within each
/// trial of one [`measure()`] call, so GI/HI is a per-trial ratio.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Inference algorithm abbreviation (`IS` / `VI`).
    pub algorithm: &'static str,
    /// CG — seconds of type inference + code generation.
    pub codegen_time: Stat,
    /// GLOC — generated (coroutine-style Pyro) lines of code.
    pub generated_loc: usize,
    /// GI — seconds of Bayesian inference on the compiled/coroutine path.
    pub coroutine_inference_time: Stat,
    /// HLOC — handwritten implementation lines of code.
    pub handwritten_loc: usize,
    /// HI — seconds of Bayesian inference on the handwritten path.
    pub handwritten_inference_time: Stat,
    /// GI/HI — the coroutine path's overhead over handwritten inference.
    pub gi_over_hi: Stat,
    /// Posterior statistic from the coroutine path (for sanity reporting).
    pub coroutine_estimate: f64,
    /// The same statistic from the handwritten path.
    pub handwritten_estimate: f64,
}

/// The workload sizes used by the Table 2 harness.
#[derive(Debug, Clone, Copy)]
pub struct Table2Config {
    /// Importance-sampling particle count.
    pub is_particles: usize,
    /// VI optimisation iterations.
    pub vi_iterations: usize,
    /// VI Monte-Carlo samples per iteration.
    pub vi_samples_per_iteration: usize,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            is_particles: 30_000,
            vi_iterations: 150,
            vi_samples_per_iteration: 10,
        }
    }
}

/// Computes every row of Table 2.
pub fn table2_rows(config: &Table2Config) -> Vec<Table2Row> {
    ppl_models::table2_benchmarks()
        .into_iter()
        .map(|(name, kind)| table2_row(name, kind, config))
        .collect()
}

fn table2_row(name: &'static str, kind: InferenceKind, config: &Table2Config) -> Table2Row {
    let b = benchmark(name).expect("registered benchmark");
    let model = b.parsed_model().unwrap().unwrap();
    let guide = b.parsed_guide().unwrap().unwrap();
    // CG: guide-type inference + Pyro code generation, measured together as
    // in the paper.
    let codegen = || {
        ppl_types::infer_program(&model).expect("model types");
        ppl_types::infer_program(&guide).expect("guide types");
        ppl_compiler::compile_pair(&model, b.model_proc, &guide, b.guide_proc, Style::Coroutine)
            .generated_loc
    };
    let session = Session::from_benchmark(name).expect("benchmark session");
    let mut generated_loc = 0;
    let (mut coroutine_estimate, mut handwritten_estimate) = (f64::NAN, f64::NAN);
    let (algorithm, handwritten_loc, trials) = match kind {
        InferenceKind::ImportanceSampling => {
            let h = handwritten_is(name).expect("handwritten IS baseline");
            // GI: coroutine-based importance sampling; HI: handwritten
            // importance sampling with the same particle count and seed.
            let trials = measure(3, |i| match i {
                0 => generated_loc = codegen(),
                1 => {
                    let mut rng = Pcg32::seed_from_u64(2_021);
                    let executor = session.executor(b.observations.clone());
                    let result = ImportanceSampler::new(config.is_particles)
                        .run(&executor, &session.spec(), &mut rng)
                        .expect("coroutine IS");
                    coroutine_estimate = result.mean_of_sample(0).unwrap_or(f64::NAN);
                }
                _ => {
                    let mut rng = Pcg32::seed_from_u64(2_021);
                    handwritten_estimate = handwritten_importance(
                        h.particle,
                        &b.observations,
                        config.is_particles,
                        &mut rng,
                    );
                }
            });
            ("IS", h.loc, trials)
        }
        InferenceKind::VariationalInference => {
            let h = handwritten_vi(name).expect("handwritten VI baseline");
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
                iterations: config.vi_iterations,
                samples_per_iteration: config.vi_samples_per_iteration,
                learning_rate: 0.05,
                fd_epsilon: 1e-4,
                num_threads: 1,
                block: ppl_inference::DEFAULT_BLOCK,
            };
            let positive: Vec<bool> = b.guide_params.iter().map(|p| p.positive).collect();
            // Engine-level VI (like the IS rows use the engine-level
            // sampler): the timed work is exactly the fit, matching what
            // the handwritten baseline does.
            let executor = session.executor(b.observations.clone());
            let trials = measure(3, |i| match i {
                0 => generated_loc = codegen(),
                1 => {
                    let mut rng = Pcg32::seed_from_u64(7_777);
                    coroutine_estimate = VariationalInference::new(vi_config.clone())
                        .run(&executor, &session.spec(), &params, &mut rng)
                        .expect("coroutine VI")
                        .final_elbo();
                }
                _ => {
                    let mut rng = Pcg32::seed_from_u64(7_777);
                    handwritten_estimate = handwritten_vi_run(
                        &h,
                        &b.observations,
                        &b.initial_guide_args(),
                        &positive,
                        &vi_config,
                        &mut rng,
                    );
                }
            });
            ("VI", h.loc, trials)
        }
        InferenceKind::Mcmc => unreachable!("Table 2 uses IS and VI only"),
    };
    Table2Row {
        name,
        algorithm,
        codegen_time: trials.stat(|s| s[0]),
        generated_loc,
        coroutine_inference_time: trials.stat(|s| s[1]),
        handwritten_loc,
        handwritten_inference_time: trials.stat(|s| s[2]),
        gi_over_hi: trials.stat(|s| s[1] / s[2]),
        coroutine_estimate,
        handwritten_estimate,
    }
}

/// Handwritten self-normalised importance sampling: returns the posterior
/// mean of the statistic produced by the particle function.
pub fn handwritten_importance(
    particle: handwritten::IsParticleFn,
    observations: &[Sample],
    num_particles: usize,
    rng: &mut Pcg32,
) -> f64 {
    let mut stats = Vec::with_capacity(num_particles);
    let mut log_weights = Vec::with_capacity(num_particles);
    for _ in 0..num_particles {
        let (stat, lw) = particle(rng, observations);
        stats.push(stat);
        log_weights.push(lw);
    }
    let lse = log_sum_exp(&log_weights);
    stats
        .iter()
        .zip(&log_weights)
        .map(|(s, lw)| s * (lw - lse).exp())
        .sum()
}

/// Handwritten variational inference mirroring the coroutine VI engine
/// (same REINFORCE estimator, baseline, finite-difference scores, and Adam
/// schedule); returns the final ELBO estimate.
pub fn handwritten_vi_run(
    h: &handwritten::HandwrittenVi,
    observations: &[Sample],
    init_params: &[f64],
    positive: &[bool],
    config: &ViConfig,
    rng: &mut Pcg32,
) -> f64 {
    let dim = init_params.len();
    let mut theta: Vec<f64> = init_params
        .iter()
        .zip(positive)
        .map(|(&p, &pos)| if pos { p.ln() } else { p })
        .collect();
    let constrain = |theta: &[f64]| -> Vec<f64> {
        theta
            .iter()
            .zip(positive)
            .map(|(&t, &pos)| if pos { t.exp() } else { t })
            .collect()
    };
    let (mut m, mut v) = (vec![0.0; dim], vec![0.0; dim]);
    let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
    let mut last_elbo = f64::NEG_INFINITY;
    for t in 1..=config.iterations {
        let params = constrain(&theta);
        let mut fs = Vec::with_capacity(config.samples_per_iteration);
        let mut latents = Vec::with_capacity(config.samples_per_iteration);
        for _ in 0..config.samples_per_iteration {
            let (z, log_q) = (h.sample_guide)(rng, &params);
            let f = (h.log_joint)(&z, observations) - log_q;
            fs.push(f);
            latents.push(z);
        }
        let baseline = fs.iter().sum::<f64>() / fs.len() as f64;
        last_elbo = baseline;
        let mut grad = vec![0.0; dim];
        for (f, z) in fs.iter().zip(&latents) {
            let advantage = f - baseline;
            if advantage == 0.0 {
                continue;
            }
            for d in 0..dim {
                let mut plus = theta.clone();
                plus[d] += config.fd_epsilon;
                let mut minus = theta.clone();
                minus[d] -= config.fd_epsilon;
                let lp = (h.log_guide)(z, &constrain(&plus));
                let lm = (h.log_guide)(z, &constrain(&minus));
                grad[d] += advantage * (lp - lm) / (2.0 * config.fd_epsilon);
            }
        }
        for g in grad.iter_mut() {
            *g /= config.samples_per_iteration as f64;
        }
        for i in 0..dim {
            m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
            let m_hat = m[i] / (1.0 - beta1_pow(beta1, t));
            let v_hat = v[i] / (1.0 - beta1_pow(beta2, t));
            theta[i] += config.learning_rate * m_hat / (v_hat.sqrt() + eps);
        }
    }
    last_elbo
}

fn beta1_pow(beta: f64, t: usize) -> f64 {
    beta.powi(t as i32)
}

/// One point of the Fig. 2 series.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Point {
    /// The value of the latent `@x`.
    pub x: f64,
    /// Prior density `Gamma(2, 1)` at `x`.
    pub prior: f64,
    /// Estimated posterior density at `x` given `@z = 0.8`.
    pub posterior: f64,
}

/// Regenerates the Fig. 2 series: prior and posterior densities of `@x`.
pub fn fig2_series(num_particles: usize, bins: usize, seed: u64) -> Vec<Fig2Point> {
    let session = Session::from_benchmark("ex-1").expect("ex-1 is registered");
    let posterior = session
        .query()
        .observe(vec![Sample::Real(0.8)])
        .seed(seed)
        .run(&Method::Importance {
            particles: num_particles,
        })
        .expect("importance sampling");
    let posterior = posterior.as_importance().expect("IS result");
    let hist = posterior.weighted_histogram(0.0, 7.0, bins, |d| Some(d.samples[0].as_f64()));
    let prior = Distribution::gamma(2.0, 1.0).expect("parameters");
    hist.centers()
        .iter()
        .zip(hist.densities())
        .map(|(&x, posterior)| Fig2Point {
            x,
            prior: prior.density(&Sample::Real(x)),
            posterior,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_paper_verdicts() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 15);
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        // Our PPL expresses everything except dp.
        assert!(rows.iter().filter(|r| r.ours).count() == 14);
        // Trace types accept the 8 classical models but none of the
        // branching/recursive ones.
        for accepted in [
            "lr",
            "gmm",
            "kalman",
            "sprinkler",
            "hmm",
            "aircraft",
            "weight",
            "vae",
        ] {
            assert!(row(accepted).trace_types, "{accepted}");
        }
        for rejected in [
            "branching",
            "marsaglia",
            "dp",
            "ptrace",
            "ex-1",
            "ex-2",
            "gp-dsl",
        ] {
            assert!(!row(rejected).trace_types, "{rejected}");
        }
        assert!(row("ex-1").loc >= 10);
        // Type inference stays in the milliseconds regime.
        for r in &rows {
            if let Some(t) = r.inference_time {
                assert!(t.median < 0.1, "{}: {t:?}", r.name);
            }
        }
    }

    #[test]
    fn table2_small_workload_produces_consistent_estimates() {
        // Since the engine refactor the coroutine path draws from
        // per-particle RNG substreams, so the two estimates are fully
        // independent Monte-Carlo runs; the particle count keeps their
        // difference within the tolerance below.
        let config = Table2Config {
            is_particles: 12_000,
            vi_iterations: 30,
            vi_samples_per_iteration: 6,
        };
        let rows = table2_rows(&config);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.generated_loc > 20, "{}", row.name);
            assert!(row.handwritten_loc > 5, "{}", row.name);
            assert!(row.generated_loc > row.handwritten_loc, "{}", row.name);
            assert!(row.codegen_time.median < 0.2, "{}", row.name);
            assert!(row.coroutine_inference_time.median > 0.0);
            assert!(row.handwritten_inference_time.median > 0.0);
            assert!(row.gi_over_hi.median > 0.0, "{}", row.name);
            if row.algorithm == "IS" {
                // The two paths implement the same estimator; with the same
                // particle counts their estimates should be close.
                assert!(
                    (row.coroutine_estimate - row.handwritten_estimate).abs() < 1.0,
                    "{}: {} vs {}",
                    row.name,
                    row.coroutine_estimate,
                    row.handwritten_estimate
                );
            } else {
                assert!(row.coroutine_estimate.is_finite());
                assert!(row.handwritten_estimate.is_finite());
            }
        }
    }

    #[test]
    fn fig2_series_shows_posterior_shift() {
        let series = fig2_series(30_000, 28, 5);
        assert_eq!(series.len(), 28);
        // The prior integrates to ~1 over the plotted range.
        let width = 7.0 / 28.0;
        let prior_mass: f64 = series.iter().map(|p| p.prior * width).sum();
        let posterior_mass: f64 = series.iter().map(|p| p.posterior * width).sum();
        assert!((prior_mass - 1.0).abs() < 0.05, "prior mass {prior_mass}");
        assert!(posterior_mass > 0.9, "posterior mass {posterior_mass}");
        // Conditioning on z = 0.8 moves mass towards larger x: the posterior
        // mean exceeds the prior mean restricted to the grid.
        let prior_mean: f64 = series.iter().map(|p| p.x * p.prior * width).sum();
        let post_mean: f64 = series.iter().map(|p| p.x * p.posterior * width).sum();
        assert!(
            post_mean > prior_mean + 0.2,
            "posterior mean {post_mean} vs prior mean {prior_mean}"
        );
    }

    #[test]
    fn handwritten_and_coroutine_is_agree_on_ex1() {
        use guide_ppl::Posterior;
        let b = benchmark("ex-1").unwrap();
        let h = handwritten_is("ex-1").unwrap();
        let mut rng = Pcg32::seed_from_u64(1);
        let hand = handwritten_importance(h.particle, &b.observations, 40_000, &mut rng);
        let session = Session::from_benchmark("ex-1").unwrap();
        let coro = session
            .query()
            .observe(b.observations.clone())
            .seed(2)
            .run(&Method::Importance { particles: 40_000 })
            .unwrap()
            .mean_of_sample(0)
            .unwrap();
        assert!(
            (hand - coro).abs() < 0.1,
            "handwritten {hand} vs coroutine {coro}"
        );
    }
}
