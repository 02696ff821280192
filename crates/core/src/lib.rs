//! **guide-ppl** — a coroutine-based probabilistic programming language with
//! guide types, reproducing *Sound Probabilistic Inference via Guide Types*
//! (Wang, Hoffmann, Reps; PLDI 2021).
//!
//! This facade crate wires the subsystem crates into an end-to-end
//! pipeline:
//!
//! 1. parse model and guide programs ([`ppl_syntax`]);
//! 2. infer **guide types** and check model–guide compatibility, which
//!    certifies absolute continuity ([`ppl_types`]);
//! 3. run Bayesian inference (importance sampling, MCMC, variational
//!    inference) by executing the two programs as communicating coroutines
//!    ([`ppl_runtime`], [`ppl_inference`]);
//! 4. optionally compile the pair to Pyro source text ([`ppl_compiler`]).
//!
//! # Quickstart
//!
//! The front door is the **query layer**: build a [`Session`] once, then
//! ask it validated questions.  [`Session::query`] checks the observations
//! against the model's *inferred observation protocol* before anything
//! runs, [`Method`] picks the algorithm, and every engine's result
//! implements the common [`Posterior`] interface.
//!
//! ```
//! use guide_ppl::{Method, Posterior, Session};
//! use ppl_dist::Sample;
//!
//! let session = Session::from_sources(
//!     "proc Model() : real consume latent provide obs {
//!        let x <- sample recv latent (Normal(0.0, 1.0));
//!        let _ <- sample send obs (Normal(x, 1.0));
//!        return x }",
//!     "Model",
//!     "proc Guide() provide latent {
//!        let x <- sample send latent (Normal(0.0, 1.5));
//!        return () }",
//!     "Guide",
//! )?;
//! assert!(session.compatibility().compatible);
//! let posterior = session
//!     .query()
//!     .observe(vec![Sample::Real(1.0)])
//!     .seed(7)
//!     .run(&Method::Importance { particles: 2_000 })?;
//! let mean = posterior.mean_of_sample(0).unwrap();
//! assert!((mean - 0.5).abs() < 0.2);
//! // The same query shape serves whole batches of observation sets:
//! let queries: Vec<_> = (0..4)
//!     .map(|i| {
//!         session
//!             .query()
//!             .observe(vec![Sample::Real(i as f64 * 0.5)])
//!             .seed(i as u64)
//!             .build()
//!     })
//!     .collect::<Result<_, _>>()?;
//! let posteriors = session.run_batch(&queries, &Method::Importance { particles: 500 })?;
//! assert_eq!(posteriors.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod query;

use ppl_dist::Sample;
use ppl_runtime::{JointExecutor, JointSpec, RuntimeError};
use ppl_syntax::{parse_program, Ident, ParseError, Program};
use ppl_types::{check_model_guide, infer_program, Compatibility, TypeEnv, TypeError};
use std::fmt;

pub use ppl_compiler::{compile_pair, CompiledPair, Style};
pub use ppl_dist as dist;
pub use ppl_inference as inference;
pub use ppl_inference::{Draw, Posterior, PosteriorSummary, Quantiles, ViPosterior};
pub use ppl_models as models;
pub use ppl_runtime as runtime;
pub use ppl_semantics as semantics;
pub use ppl_syntax as syntax;
pub use ppl_tracetypes as tracetypes;
pub use ppl_types as types;
pub use query::{
    artifact_obs_to_sample, sample_to_artifact_obs, Method, PosteriorResult, Query, QueryBuilder,
    QueryError, ViFit,
};

/// Errors produced by the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The model or guide source failed to parse.
    Parse(ParseError),
    /// The model or guide failed base-type or guide-type checking.
    Type(TypeError),
    /// The model and guide are well-typed but their latent-channel
    /// protocols differ, so absolute continuity is not certified.
    Incompatible {
        /// The model's latent protocol.
        model_latent: String,
        /// The guide's latent protocol.
        guide_latent: String,
    },
    /// A runtime failure during inference.
    Runtime(RuntimeError),
    /// A query was rejected by up-front validation (see [`QueryError`]).
    Query(QueryError),
    /// [`Session::from_benchmark`] was asked for a name the registry does
    /// not contain.
    UnknownBenchmark(String),
    /// [`Session::from_benchmark`] was asked for a registered benchmark
    /// that is not expressible in the coroutine-based PPL.
    NotExpressible(String),
}

impl SessionError {
    /// Stable machine-readable code identifying the error class.
    ///
    /// Parse and type errors forward the underlying
    /// [`ParseError::code`](ppl_syntax::parser::ParseError::code) /
    /// [`TypeError::code`](ppl_types::TypeError::code); the remaining
    /// variants have fixed codes. These strings are part of the `ppl-serve`
    /// wire format and never change meaning once shipped.
    pub fn code(&self) -> &'static str {
        match self {
            SessionError::Parse(e) => e.code(),
            SessionError::Type(e) => e.code(),
            SessionError::Incompatible { .. } => ppl_types::types_error_code::GUIDE_MISMATCH,
            SessionError::Runtime(RuntimeError::DeadlineExceeded) => "query.deadline_exceeded",
            SessionError::Runtime(RuntimeError::Cancelled) => "query.cancelled",
            SessionError::Runtime(_) => "runtime.error",
            SessionError::Query(e) => e.code(),
            SessionError::UnknownBenchmark(_) => "benchmark.unknown",
            SessionError::NotExpressible(_) => "benchmark.not_expressible",
        }
    }

    /// 1-based (line, column) source position of the error, when the
    /// offending program came from source text.
    pub fn position(&self) -> Option<(usize, usize)> {
        match self {
            SessionError::Parse(e) => Some(e.position()),
            SessionError::Type(e) => e.position(),
            _ => None,
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Type(e) => write!(f, "{e}"),
            SessionError::Incompatible {
                model_latent,
                guide_latent,
            } => write!(
                f,
                "model and guide are incompatible: model latent protocol {model_latent}, guide latent protocol {guide_latent}"
            ),
            SessionError::Runtime(e) => write!(f, "{e}"),
            SessionError::Query(e) => write!(f, "{e}"),
            SessionError::UnknownBenchmark(name) => write!(f, "unknown benchmark '{name}'"),
            SessionError::NotExpressible(name) => write!(
                f,
                "benchmark '{name}' is not expressible in the coroutine-based PPL"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e)
    }
}

impl From<TypeError> for SessionError {
    fn from(e: TypeError) -> Self {
        SessionError::Type(e)
    }
}

impl From<RuntimeError> for SessionError {
    fn from(e: RuntimeError) -> Self {
        SessionError::Runtime(e)
    }
}

impl From<QueryError> for SessionError {
    fn from(e: QueryError) -> Self {
        SessionError::Query(e)
    }
}

/// A type-checked model–guide pair, ready for inference.
///
/// The session compiles both programs once into shared
/// [`CompiledProgram`](ppl_runtime::CompiledProgram) form; every executor it
/// hands out shares those compilations, so repeated inference runs (and all
/// their particles, across all threads) execute the same immutable program
/// tables.
#[derive(Debug, Clone)]
pub struct Session {
    model: Program,
    guide: Program,
    pub(crate) model_compiled: std::sync::Arc<ppl_runtime::CompiledProgram>,
    pub(crate) guide_compiled: std::sync::Arc<ppl_runtime::CompiledProgram>,
    pub(crate) model_proc: Ident,
    pub(crate) guide_proc: Ident,
    pub(crate) model_env: TypeEnv,
    guide_env: TypeEnv,
    pub(crate) compatibility: Compatibility,
}

impl Session {
    /// Parses, type-checks, and compatibility-checks a model–guide pair.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if parsing or type checking fails, or if
    /// the two programs do not share the latent protocol (the absolute
    /// continuity certificate of Theorem 5.2).
    pub fn from_sources(
        model_src: &str,
        model_proc: &str,
        guide_src: &str,
        guide_proc: &str,
    ) -> Result<Session, SessionError> {
        let model = parse_program(model_src)?;
        let guide = parse_program(guide_src)?;
        Session::from_programs(model, model_proc, guide, guide_proc)
    }

    /// Builds a session from already-parsed programs.
    ///
    /// # Errors
    ///
    /// Same as [`Session::from_sources`], minus parsing.
    pub fn from_programs(
        model: Program,
        model_proc: &str,
        guide: Program,
        guide_proc: &str,
    ) -> Result<Session, SessionError> {
        let model_env = infer_program(&model)?;
        let guide_env = infer_program(&guide)?;
        Session::from_inferred(model, model_proc, model_env, guide, guide_proc, guide_env)
    }

    /// [`Session::from_programs`] for a caller that already ran
    /// [`infer_program`] on each program (admission does, so a type error
    /// names its program): `model_env` and `guide_env` are those results.
    ///
    /// # Errors
    ///
    /// Same as [`Session::from_programs`], minus guide-type inference.
    pub fn from_inferred(
        model: Program,
        model_proc: &str,
        model_env: TypeEnv,
        guide: Program,
        guide_proc: &str,
        guide_env: TypeEnv,
    ) -> Result<Session, SessionError> {
        let model_proc: Ident = model_proc.into();
        let guide_proc: Ident = guide_proc.into();
        let compatibility = check_model_guide(&model_env, &model_proc, &guide_env, &guide_proc)?;
        if !compatibility.compatible {
            return Err(SessionError::Incompatible {
                model_latent: render_protocol(&compatibility.model_latent, &model_env),
                guide_latent: render_protocol(&compatibility.guide_latent, &guide_env),
            });
        }
        let model_compiled = ppl_runtime::CompiledProgram::compile_shared(&model);
        let guide_compiled = ppl_runtime::CompiledProgram::compile_shared(&guide);
        Ok(Session {
            model,
            guide,
            model_compiled,
            guide_compiled,
            model_proc,
            guide_proc,
            model_env,
            guide_env,
            compatibility,
        })
    }

    /// Builds a session from a registered benchmark model.
    ///
    /// # Errors
    ///
    /// Returns an error when the benchmark is unknown or not expressible, or
    /// if (unexpectedly) its sources fail the pipeline.
    pub fn from_benchmark(name: &str) -> Result<Session, SessionError> {
        let b = ppl_models::benchmark(name)
            .ok_or_else(|| SessionError::UnknownBenchmark(name.to_string()))?;
        if !b.expressible {
            return Err(SessionError::NotExpressible(name.to_string()));
        }
        Session::from_sources(b.model_src, b.model_proc, b.guide_src, b.guide_proc)
    }

    /// The model program.
    pub fn model(&self) -> &Program {
        &self.model
    }

    /// The guide program.
    pub fn guide(&self) -> &Program {
        &self.guide
    }

    /// The guide-type inference result for the model.
    pub fn model_types(&self) -> &TypeEnv {
        &self.model_env
    }

    /// The guide-type inference result for the guide.
    pub fn guide_types(&self) -> &TypeEnv {
        &self.guide_env
    }

    /// The model–guide compatibility verdict.
    pub fn compatibility(&self) -> &Compatibility {
        &self.compatibility
    }

    /// The inferred latent protocol, rendered as text.  Top-level operator
    /// applications are unfolded once so that non-recursive protocols read
    /// directly as message sequences (e.g. `preal /\ (1 & ureal /\ 1)`).
    pub fn latent_protocol(&self) -> String {
        render_protocol(&self.compatibility.model_latent, &self.model_env)
    }

    /// The inferred observation protocol, rendered as text — `None` when
    /// the model provides no observation channel.  This is the protocol
    /// [`Session::query`] validates observations against, and the serving
    /// layer publishes it per model so clients can shape requests without
    /// trial and error.
    pub fn observation_protocol(&self) -> Option<String> {
        self.compatibility
            .model_obs
            .as_ref()
            .map(|p| render_protocol(p, &self.model_env))
    }

    /// Builds a joint executor conditioned on the given observations.
    ///
    /// Executors share the session's compiled programs — building one per
    /// observation set costs three `Arc` clones, not a recompilation.
    pub fn executor(&self, observations: Vec<Sample>) -> JointExecutor {
        JointExecutor::from_compiled(
            std::sync::Arc::clone(&self.model_compiled),
            std::sync::Arc::clone(&self.guide_compiled),
            observations,
        )
    }

    /// The default joint spec: no arguments, channel names resolved from
    /// the model procedure's header.  Session construction guarantees the
    /// model exists and consumes a channel; a model without an observation
    /// channel gets the conventional `obs` name (never matched at
    /// runtime).
    pub fn spec(&self) -> JointSpec {
        let meta = self
            .model_compiled
            .proc_named(&self.model_proc)
            .expect("session construction verified the model procedure");
        let latent_chan = meta
            .consumes
            .expect("session construction verified the model consumes a channel");
        let obs_chan = meta.provides.unwrap_or_else(|| "obs".into());
        JointSpec {
            model_proc: self.model_proc,
            model_args: Vec::new(),
            guide_proc: self.guide_proc,
            guide_args: Vec::new(),
            latent_chan,
            obs_chan,
        }
    }

    /// Compiles the pair to Pyro source text.
    pub fn compile_to_pyro(&self, style: Style) -> CompiledPair {
        compile_pair(
            &self.model,
            self.model_proc.as_str(),
            &self.guide,
            self.guide_proc.as_str(),
            style,
        )
    }
}

/// Renders a protocol for human consumption: while the head of the type is
/// a defined operator application, unfold it (guarding against recursive
/// operators — detected by a structural occurs-check on the unfolded body —
/// which are left folded so the rendering stays finite).
pub(crate) fn render_protocol(ty: &ppl_types::GuideType, env: &TypeEnv) -> String {
    let mut current = ty.clone();
    for _ in 0..4 {
        match &current {
            ppl_types::GuideType::App(op, arg) => {
                match env.defs.unfold(op, arg) {
                    // Keep recursive operators folded so the rendering stays
                    // finite and readable.
                    Some(body) if !body.mentions_op(op) => {
                        current = body;
                    }
                    _ => break,
                }
            }
            _ => break,
        }
    }
    current.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: &str = "proc Model() : real consume latent provide obs {
        let x <- sample recv latent (Normal(0.0, 1.0));
        let _ <- sample send obs (Normal(x, 1.0));
        return x }";
    const GUIDE: &str = "proc Guide() provide latent {
        let x <- sample send latent (Normal(0.0, 1.5));
        return () }";
    const BAD_GUIDE: &str = "proc Guide() provide latent {
        let x <- sample send latent (Unif);
        return () }";

    #[test]
    fn session_pipeline_accepts_compatible_pairs() {
        let s = Session::from_sources(MODEL, "Model", GUIDE, "Guide").unwrap();
        assert!(s.compatibility().compatible);
        assert!(s.latent_protocol().contains("real"));
        assert!(s.model().proc_named("Model").is_some());
        assert!(s.guide().proc_named("Guide").is_some());
        assert!(s.model_types().consumed_protocol(&"Model".into()).is_some());
        assert!(s.guide_types().provided_protocol(&"Guide".into()).is_some());
        let compiled = s.compile_to_pyro(Style::Coroutine);
        assert!(compiled.generated_loc > 0);
    }

    #[test]
    fn session_pipeline_rejects_incompatible_pairs() {
        let err = Session::from_sources(MODEL, "Model", BAD_GUIDE, "Guide").unwrap_err();
        match err {
            SessionError::Incompatible {
                model_latent,
                guide_latent,
            } => {
                assert!(model_latent.contains("real"));
                assert!(guide_latent.contains("ureal"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn session_reports_parse_and_type_errors() {
        assert!(matches!(
            Session::from_sources("proc (", "P", GUIDE, "Guide"),
            Err(SessionError::Parse(_))
        ));
        let ill_typed =
            "proc Model() consume latent { let x <- sample recv latent (Ber(2.0)); return () }";
        assert!(matches!(
            Session::from_sources(ill_typed, "Model", GUIDE, "Guide"),
            Err(SessionError::Type(_))
        ));
        let e = SessionError::Parse(ParseError {
            message: "x".into(),
            line: 1,
            col: 1,
            code: ppl_syntax::parser::code::UNEXPECTED_TOKEN,
        });
        assert!(e.to_string().contains("parse error"));
        assert_eq!(e.code(), "parse.unexpected_token");
        assert_eq!(e.position(), Some((1, 1)));
    }

    #[test]
    fn session_from_benchmark() {
        let s = Session::from_benchmark("ex-1").unwrap();
        assert!(s.compatibility().compatible);
        // The registry's only inexpressible benchmark and unknown names get
        // dedicated diagnostics, not fake type errors.
        let e = Session::from_benchmark("dp").unwrap_err();
        assert_eq!(e, SessionError::NotExpressible("dp".into()));
        assert!(e.to_string().contains("not expressible"));
        let e = Session::from_benchmark("unknown").unwrap_err();
        assert_eq!(e, SessionError::UnknownBenchmark("unknown".into()));
        assert!(e.to_string().contains("unknown benchmark"));
    }

    #[test]
    fn render_protocol_unfolds_with_a_structural_occurs_check() {
        use ppl_types::{GuideType, TypeDef};
        let mut env = TypeEnv::default();
        // Recursive operator: stays folded.
        env.defs.insert(TypeDef {
            name: "R".into(),
            param: "X".into(),
            body: GuideType::send_val(
                ppl_syntax::BaseType::Real,
                GuideType::app("R", GuideType::Var("X".into())),
            ),
        });
        assert_eq!(
            render_protocol(&GuideType::app("R", GuideType::End), &env),
            "R[1]"
        );
        // Non-recursive operator whose body mentions an operator with "T["
        // in its *name suffix* ("GT"): a textual `contains("T[")` guard
        // would wrongly keep T folded; the structural check unfolds it.
        env.defs.insert(TypeDef {
            name: "T".into(),
            param: "X".into(),
            body: GuideType::send_val(
                ppl_syntax::BaseType::Real,
                GuideType::app("GT", GuideType::Var("X".into())),
            ),
        });
        env.defs.insert(TypeDef {
            name: "GT".into(),
            param: "X".into(),
            body: GuideType::Var("X".into()),
        });
        assert_eq!(
            render_protocol(&GuideType::app("T", GuideType::End), &env),
            "real /\\ GT[1]"
        );
    }
}
