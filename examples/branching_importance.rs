//! The paper's running example (Fig. 1 / Fig. 3 / Fig. 5): a model whose
//! *set of latent variables* depends on a branch, with a sound guide.
//! Reproduces the shape of Fig. 2: prior vs posterior density of `@x`
//! conditioned on the observation `@z = 0.8`.
//!
//! Run with `cargo run --example branching_importance`.

use guide_ppl::{Method, Posterior, Session};
use ppl_dist::{Distribution, Sample};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::from_benchmark("ex-1")?;
    println!("inferred latent protocol: {}", session.latent_protocol());

    let posterior = session
        .query()
        .observe(vec![Sample::Real(0.8)])
        .seed(88)
        .run(&Method::Importance { particles: 100_000 })?;

    println!("effective sample size: {:.0}", posterior.ess());
    let p_else = posterior
        .probability(&|d| d.samples[0].as_f64() >= 2.0)
        .expect("non-degenerate weights");
    println!("posterior P(x >= 2): {p_else:.3} (prior: 0.406)");

    // Fig. 2: prior vs posterior density of @x on a grid, via the unified
    // summary (its histogram spans the posterior draws).
    let is = posterior.as_importance().expect("importance posterior");
    let hist = is.weighted_histogram(0.0, 7.0, 28, |d| Some(d.samples[0].as_f64()));
    let prior = Distribution::gamma(2.0, 1.0)?;
    println!("\n  x      prior   posterior");
    for (x, dens) in hist.centers().iter().zip(hist.densities()) {
        println!(
            "  {x:5.2}  {:6.3}  {dens:9.3}",
            prior.density(&Sample::Real(*x))
        );
    }
    Ok(())
}
