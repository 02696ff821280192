//! Coroutine runtime for the guide-types PPL.
//!
//! The paper compiles model and guide programs to Pyro and connects them
//! with `greenlet` coroutines; this crate provides the equivalent substrate
//! natively:
//!
//! * [`program`] — [`CompiledProgram`]: an `Arc`-shared, index-addressed
//!   form of the AST with pre-resolved procedure references and channel
//!   roles, compiled once and executed by any number of particles on any
//!   number of threads;
//! * [`coroutine`] — resumable interpreters over a compiled program that
//!   suspend at every channel operation, holding only node indices and O(1)
//!   scope-chain environments in their continuation frames;
//! * [`joint`] — the driver that runs a model coroutine and a guide
//!   coroutine against each other, conditioning the model's observation
//!   channel on data and recording the latent guidance trace;
//! * `block` (internal) — the vectorised executor behind
//!   [`JointExecutor::run_block_with_scratch`], which steps a whole block
//!   of particles in lockstep over the shared compiled program with
//!   structure-of-arrays lane buffers, falling back to the scalar
//!   coroutine path whenever a program shape it cannot vectorise appears.
//!
//! # Example
//!
//! ```
//! use ppl_runtime::{JointExecutor, JointSpec, LatentSource};
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
//!       let x <- sample send latent (Normal(0.0, 2.0));
//!       return ()
//!     }
//! "#).unwrap();
//! let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
//! let mut rng = Pcg32::seed_from_u64(0);
//! let result = exec.run(&JointSpec::new("Model", "Guide"), LatentSource::FromGuide, &mut rng)?;
//! assert!(result.log_importance_weight().is_finite());
//! # Ok::<(), ppl_runtime::RuntimeError>(())
//! ```

pub(crate) mod block;
pub mod cancel;
pub mod coroutine;
#[cfg(feature = "faults")]
pub mod faults;
pub mod joint;
pub mod program;

pub use cancel::CancelToken;
pub use coroutine::{Coroutine, CoroutineError, Resume, Step, Suspend};
pub use joint::{
    JointExecutor, JointResult, JointScratch, JointSpec, LatentSource, RunCounts, RuntimeError,
};
pub use program::{CalleeRef, CmdId, CmdNode, CompiledProc, CompiledProgram, DistNode, ProcId};
