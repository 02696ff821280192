//! Bayesian-inference engines for the guide-types PPL.
//!
//! All three engines consume the coroutine runtime's joint model–guide
//! executions and therefore rely on the absolute-continuity guarantee
//! certified by guide types (Theorem 5.2 of the paper):
//!
//! * [`engine`] — the deterministic (optionally parallel) particle driver
//!   shared by IS and VI, with per-particle RNG substreams so the thread
//!   count never changes results;
//! * [`importance`] — importance sampling (IS);
//! * [`mcmc`] — Metropolis–Hastings with independence or data-dependent
//!   guide proposals (MCMC);
//! * [`vi`] — variational inference with a score-function ELBO gradient
//!   estimator and Adam (VI);
//! * [`posterior`] — the unified [`Posterior`] trait and
//!   [`PosteriorSummary`] statistics shared by all three engines, so their
//!   results are interchangeable behind one interface;
//! * [`counters`] — process-wide counters of scheduled joint executions,
//!   so callers (e.g. the serving layer's cache tests) can prove an
//!   operation ran zero inference.
//!
//! # Example
//!
//! ```
//! use ppl_inference::{ImportanceSampler, Posterior};
//! use ppl_runtime::{JointExecutor, JointSpec};
//! use ppl_dist::{Sample, rng::Pcg32};
//! use ppl_syntax::parse_program;
//!
//! let model = parse_program(r#"
//!     proc Model() : real consume latent provide obs {
//!       let x <- sample recv latent (Normal(0.0, 1.0));
//!       let _ <- sample send obs (Normal(x, 1.0));
//!       return x
//!     }
//! "#).unwrap();
//! let guide = parse_program(r#"
//!     proc Guide() provide latent {
//!       let x <- sample send latent (Normal(0.0, 1.5));
//!       return ()
//!     }
//! "#).unwrap();
//! let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
//! let mut rng = Pcg32::seed_from_u64(1);
//! let result = ImportanceSampler::new(2_000)
//!     .run(&exec, &JointSpec::new("Model", "Guide"), &mut rng)?;
//! let mean = result.mean_of_sample(0).unwrap();
//! assert!((mean - 0.5).abs() < 0.2);
//! # Ok::<(), ppl_runtime::RuntimeError>(())
//! ```

pub mod counters;
pub mod diag;
pub mod engine;
pub mod importance;
pub mod mcmc;
pub mod posterior;
pub mod vi;

pub use diag::Diagnostics;
pub use engine::{BlockSink, Engine};
pub use importance::{ImportanceResult, ImportanceSampler, ParticleColumns, DEFAULT_BLOCK};
pub use mcmc::{ChainState, GuidedMh, IndependenceMh, McmcResult};
pub use posterior::{Draw, Posterior, PosteriorSummary, Quantiles, ViPosterior};
pub use vi::{ParamSpec, VariationalInference, ViConfig, ViResult};
