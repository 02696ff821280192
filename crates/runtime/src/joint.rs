//! The joint model–guide executor.
//!
//! Inference algorithms (importance sampling, MCMC, variational inference)
//! all perform *joint executions* of the model and guide coroutines: the
//! guide provides the `latent` channel that the model consumes, while the
//! model's `obs` channel is conditioned on a fixed sequence of observations.
//! This module is the driver that schedules the two coroutines, performs
//! the rendezvous at every channel operation, draws (or replays) latent
//! values, and accumulates both log-weights.

use crate::coroutine::{Coroutine, CoroutineError, Resume, Step, Suspend};
use crate::program::CompiledProgram;
use ppl_dist::rng::Pcg32;
use ppl_dist::Sample;
use ppl_semantics::trace::{Message, Trace};
use ppl_semantics::value::Value;
use ppl_syntax::ast::{ChannelName, Ident, Program};
use std::fmt;
use std::sync::Arc;

/// Errors raised by the joint executor.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A coroutine failed.
    Coroutine(CoroutineError),
    /// The two coroutines reached channel operations that do not match
    /// (this cannot happen for model–guide pairs accepted by the guide-type
    /// checker; it is detected and reported for unchecked pairs).
    ProtocolViolation(String),
    /// The model requested more observations than were supplied, or not all
    /// observations were consumed.
    ObservationMismatch(String),
    /// A replayed latent trace was too short for the execution.
    ReplayExhausted,
    /// The execution's deadline (see [`crate::cancel::CancelToken`]) passed
    /// before it finished; partial work was discarded.
    DeadlineExceeded,
    /// The execution's cancel token was raised (e.g. a server drain) before
    /// it finished; partial work was discarded.
    Cancelled,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Coroutine(e) => write!(f, "{e}"),
            RuntimeError::ProtocolViolation(m) => write!(f, "protocol violation: {m}"),
            RuntimeError::ObservationMismatch(m) => write!(f, "observation mismatch: {m}"),
            RuntimeError::ReplayExhausted => write!(f, "replayed latent trace exhausted"),
            RuntimeError::DeadlineExceeded => {
                write!(f, "the execution deadline passed before inference finished")
            }
            RuntimeError::Cancelled => write!(f, "the execution was cancelled"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<CoroutineError> for RuntimeError {
    fn from(e: CoroutineError) -> Self {
        RuntimeError::Coroutine(e)
    }
}

/// Where latent sample values come from during a joint execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatentSource<'t> {
    /// Draw each latent value from the guide's proposal distribution at that
    /// site (the normal generative mode used by IS and VI).
    FromGuide,
    /// Replay the provider samples of an existing latent trace in order
    /// (used by MCMC to re-score a proposed trace).
    Replay(&'t Trace),
}

/// The outcome of one joint model–guide execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JointResult {
    /// The guidance trace recorded on the latent channel (including branch
    /// selections and fold markers).
    pub latent: Trace,
    /// The guide's log-density `log w_g` of the latent trace.
    pub log_guide: f64,
    /// The model's log-density `log w_m` (prior × likelihood of the
    /// conditioned observations).
    pub log_model: f64,
    /// The model's return value.
    pub model_value: Value,
    /// The guide's return value.
    pub guide_value: Value,
    /// Number of observation values consumed by the model.
    pub observations_used: usize,
}

impl JointResult {
    /// The latent values (provider samples) in sampling order.
    pub fn latent_samples(&self) -> Vec<Sample> {
        self.latent.provider_samples()
    }

    /// The importance log-weight `log (w_m / w_g)`.
    pub fn log_importance_weight(&self) -> f64 {
        if self.log_model == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        self.log_model - self.log_guide
    }
}

/// Configuration of a joint execution: which procedures to run and how the
/// channels are named.
#[derive(Debug, Clone)]
pub struct JointSpec {
    /// Name of the model procedure.
    pub model_proc: Ident,
    /// Arguments of the model procedure.
    pub model_args: Vec<Value>,
    /// Name of the guide procedure.
    pub guide_proc: Ident,
    /// Arguments of the guide procedure (e.g. variational parameters).
    pub guide_args: Vec<Value>,
    /// Name of the latent channel (consumed by the model, provided by the
    /// guide).  Defaults to `latent`.
    pub latent_chan: ChannelName,
    /// Name of the observation channel (provided by the model).  Defaults to
    /// `obs`.
    pub obs_chan: ChannelName,
}

impl JointSpec {
    /// Builds a spec with the conventional channel names.
    pub fn new(model_proc: impl Into<Ident>, guide_proc: impl Into<Ident>) -> Self {
        JointSpec {
            model_proc: model_proc.into(),
            model_args: Vec::new(),
            guide_proc: guide_proc.into(),
            guide_args: Vec::new(),
            latent_chan: "latent".into(),
            obs_chan: "obs".into(),
        }
    }

    /// Sets the model arguments.
    pub fn with_model_args(mut self, args: Vec<Value>) -> Self {
        self.model_args = args;
        self
    }

    /// Sets the guide arguments.
    pub fn with_guide_args(mut self, args: Vec<Value>) -> Self {
        self.guide_args = args;
        self
    }
}

/// Reusable per-worker scratch state for joint executions.
///
/// A joint execution needs two coroutines (frame stacks, binding stacks,
/// argument buffers) and a trace buffer.  Allocating those per particle is
/// what kept the steady-state particle loop off the allocation-free path,
/// so the executor accepts a scratch pool: coroutines are parked here
/// between runs and re-armed in place, and the pooled trace buffer is
/// refilled rather than regrown.  Each engine
/// worker owns one scratch and reuses it across every particle of its
/// substream.
///
/// After a run, the recorded trace travels out inside the
/// [`JointResult`]; callers that only needed it transiently (MCMC
/// re-scoring, VI gradient replays, throughput loops) hand the buffer back
/// with [`JointScratch::recycle`], making the whole cycle allocation-free.
///
/// The scratch also owns the working memory of the vectorised block
/// executor ([`JointExecutor::run_block_with_scratch`]): its
/// structure-of-arrays lane buffers, the per-worker compiled block plan,
/// and a pool of trace buffers so a block of `N` particles can record `N`
/// traces concurrently without allocating in the steady state.
///
/// Finally it counts the block executor's work in [`RunCounts`], which
/// engines move into their results with [`JointScratch::take_counts`].
#[derive(Debug, Default)]
pub struct JointScratch {
    pub(crate) model: Option<Coroutine>,
    pub(crate) guide: Option<Coroutine>,
    trace: Trace,
    /// Recycled trace buffers; block execution checks out up to one per
    /// lane and refills the pool from the caller's [`JointScratch::recycle`]
    /// calls.
    pub(crate) trace_pool: Vec<Trace>,
    /// Block-execution working memory (lane buffers, plan cache).
    pub(crate) block: crate::block::BlockScratch,
    /// Work counted since the last [`JointScratch::take_counts`].
    pub(crate) counts: RunCounts,
}

/// What the block executor did, counted in plain fields of the worker's
/// [`JointScratch`] (never shared between workers or requests), so a
/// run's totals are exact whatever else the process runs.  They depend on
/// the block size, and since each worker plans on its own, on which
/// worker's plan gave up first; results never do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Cooperative deadline polls: one per block, one per planned op and
    /// one per lane the scalar fallback ran (MH adds one per proposal).
    pub cancel_checks: u64,
    /// Forks whose lanes diverged, splitting the block across both arms.
    pub lane_splits: u64,
    /// Diverged forks whose arms both finished, rejoining their lanes.
    pub lane_reconverges: u64,
    /// Lanes the per-lane scalar fallback ran: every lane of a block whose
    /// plan gave up ([`JointScratch::plan_verdict`] says why) or that
    /// nested past the executor's guard.
    pub scalar_lanes: u64,
}

impl std::ops::AddAssign for RunCounts {
    fn add_assign(&mut self, other: RunCounts) {
        self.cancel_checks += other.cancel_checks;
        self.lane_splits += other.lane_splits;
        self.lane_reconverges += other.lane_reconverges;
        self.scalar_lanes += other.scalar_lanes;
    }
}

/// Upper bound on pooled trace buffers (enough for the largest block size
/// with headroom; beyond it, donors fold into the single scalar slot).
const TRACE_POOL_CAP: usize = 1024;

impl JointScratch {
    /// A fresh, empty scratch pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands a no-longer-needed trace's buffer back for the next run (see
    /// [`Trace::recycle`]).
    pub fn recycle(&mut self, mut trace: Trace) {
        if self.trace_pool.len() < TRACE_POOL_CAP {
            trace.clear();
            self.trace_pool.push(trace);
        } else {
            self.trace.recycle(trace);
        }
    }

    /// Returns the work counted since the last call and resets the
    /// counts; engines call it once per block.
    pub fn take_counts(&mut self) -> RunCounts {
        std::mem::take(&mut self.counts)
    }

    /// Checks a trace buffer out of the pool (falling back to the scalar
    /// slot, then to a fresh buffer).
    pub(crate) fn take_trace(&mut self) -> Trace {
        self.trace_pool
            .pop()
            .unwrap_or_else(|| std::mem::take(&mut self.trace))
    }

    /// Takes a coroutine for `program` out of the pool (re-armed by the
    /// caller), or `None` when the slot is empty or holds a coroutine for a
    /// different program.
    fn take_coroutine(
        slot: &mut Option<Coroutine>,
        program: &Arc<CompiledProgram>,
    ) -> Option<Coroutine> {
        slot.take().filter(|co| Arc::ptr_eq(co.program(), program))
    }
}

/// The joint executor: shares the two compiled programs and the
/// conditioning data.
///
/// All state is behind [`Arc`]s, so the executor is `Send + Sync` and
/// cloning it is three reference-count bumps — the parallel particle driver
/// hands one executor to every worker thread, and each joint execution
/// spawns its coroutines directly over the shared [`CompiledProgram`]s with
/// zero per-particle AST or environment copying.
#[derive(Debug, Clone)]
pub struct JointExecutor {
    pub(crate) model_program: Arc<CompiledProgram>,
    pub(crate) guide_program: Arc<CompiledProgram>,
    pub(crate) observations: Arc<[Sample]>,
    pub(crate) cancel: crate::cancel::CancelToken,
}

impl JointExecutor {
    /// Creates an executor, compiling both programs into shared form.
    /// `observations` is the sequence of values for the model's observation
    /// channel, in program order.
    pub fn new(
        model_program: &Program,
        guide_program: &Program,
        observations: Vec<Sample>,
    ) -> Self {
        JointExecutor::from_compiled(
            CompiledProgram::compile_shared(model_program),
            CompiledProgram::compile_shared(guide_program),
            observations,
        )
    }

    /// Creates an executor over already-compiled programs (shares them
    /// instead of recompiling — e.g. across many observation sets).
    pub fn from_compiled(
        model_program: Arc<CompiledProgram>,
        guide_program: Arc<CompiledProgram>,
        observations: Vec<Sample>,
    ) -> Self {
        JointExecutor {
            model_program,
            guide_program,
            observations: observations.into(),
            cancel: crate::cancel::CancelToken::none(),
        }
    }

    /// Installs a cancellation/deadline token; every subsequent execution
    /// through this executor (scalar or block) polls it at its work
    /// boundaries.  Clones made *after* this call share the token.
    pub fn set_cancel_token(&mut self, token: crate::cancel::CancelToken) {
        self.cancel = token;
    }

    /// The executor's cancellation token (a never-cancelling
    /// [`CancelToken::none`](crate::cancel::CancelToken::none) unless
    /// [`set_cancel_token`](JointExecutor::set_cancel_token) installed one).
    pub fn cancel_token(&self) -> &crate::cancel::CancelToken {
        &self.cancel
    }

    /// The compiled model program.
    pub fn model_program(&self) -> &Arc<CompiledProgram> {
        &self.model_program
    }

    /// The compiled guide program.
    pub fn guide_program(&self) -> &Arc<CompiledProgram> {
        &self.guide_program
    }

    /// The conditioning observations.
    pub fn observations(&self) -> &[Sample] {
        &self.observations
    }

    /// Runs one joint execution with one-shot scratch state.
    ///
    /// Equivalent to [`JointExecutor::run_with_scratch`] over a fresh
    /// [`JointScratch`]; loops that run many executions should hold a
    /// scratch of their own so coroutine stacks and the trace buffer are
    /// reused instead of reallocated per run.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on coroutine failures, protocol
    /// violations between incompatible model–guide pairs, or observation /
    /// replay exhaustion.
    pub fn run(
        &self,
        spec: &JointSpec,
        source: LatentSource<'_>,
        rng: &mut Pcg32,
    ) -> Result<JointResult, RuntimeError> {
        self.run_with_scratch(spec, source, rng, &mut JointScratch::new())
    }

    /// Runs one joint execution, drawing all working memory from (and
    /// returning it to) `scratch`.
    ///
    /// In the steady state — after the scratch's buffers have grown to the
    /// program's working size, and provided the caller recycles the
    /// returned trace via [`JointScratch::recycle`] — a joint execution
    /// performs **zero heap allocations**.
    ///
    /// # Errors
    ///
    /// Same contract as [`JointExecutor::run`].
    pub fn run_with_scratch(
        &self,
        spec: &JointSpec,
        source: LatentSource<'_>,
        rng: &mut Pcg32,
        scratch: &mut JointScratch,
    ) -> Result<JointResult, RuntimeError> {
        self.cancel.check()?;
        let mut model = match JointScratch::take_coroutine(&mut scratch.model, &self.model_program)
        {
            Some(mut co) => {
                co.respawn(&spec.model_proc, &spec.model_args)?;
                co
            }
            None => Coroutine::spawn(
                &self.model_program,
                &spec.model_proc,
                spec.model_args.clone(),
            )?,
        };
        let mut guide = match JointScratch::take_coroutine(&mut scratch.guide, &self.guide_program)
        {
            Some(mut co) => {
                co.respawn(&spec.guide_proc, &spec.guide_args)?;
                co
            }
            None => Coroutine::spawn(
                &self.guide_program,
                &spec.guide_proc,
                spec.guide_args.clone(),
            )?,
        };
        let mut latent = scratch.take_trace();
        latent.clear();
        let result = self.drive_joint(spec, source, rng, &mut model, &mut guide, &mut latent);
        // Park the coroutines (and, on failure, the trace buffer) for the
        // next run regardless of the outcome.
        scratch.model = Some(model);
        scratch.guide = Some(guide);
        match result {
            Ok((model_value, log_model, guide_value, log_guide, obs_used)) => Ok(JointResult {
                latent,
                log_guide,
                log_model,
                model_value,
                guide_value,
                observations_used: obs_used,
            }),
            Err(e) => {
                scratch.recycle(latent);
                Err(e)
            }
        }
    }

    /// The rendezvous loop of one joint execution; returns
    /// `(model_value, log_model, guide_value, log_guide, observations_used)`.
    #[allow(clippy::type_complexity)]
    fn drive_joint(
        &self,
        spec: &JointSpec,
        source: LatentSource<'_>,
        rng: &mut Pcg32,
        model: &mut Coroutine,
        guide: &mut Coroutine,
        latent: &mut Trace,
    ) -> Result<(Value, f64, Value, f64, usize), RuntimeError> {
        // Replay borrows the trace and walks its sample values (`valP` and
        // `valC` — whichever side sent each one) in place, so re-scoring a
        // proposal (the MCMC inner loop) allocates nothing.
        let mut replay_values = match source {
            LatentSource::FromGuide => None,
            LatentSource::Replay(trace) => Some(trace.sample_value_iter()),
        };
        let mut next_latent =
            |dist: &ppl_dist::Distribution, rng: &mut Pcg32| -> Result<Sample, RuntimeError> {
                match replay_values.as_mut() {
                    Some(iter) => iter.next().ok_or(RuntimeError::ReplayExhausted),
                    None => Ok(dist.draw(rng)),
                }
            };

        let mut obs_used = 0usize;
        let mut model_step = model.start()?;
        let mut guide_step = guide.start()?;

        loop {
            // 1. Finished?
            if let (Step::Done { .. }, Step::Done { .. }) = (&model_step, &guide_step) {
                break;
            }

            // 2. Model-side observation operations proceed independently of
            //    the guide.
            if let Step::Suspended(susp) = &model_step {
                if susp.channel() == &spec.obs_chan {
                    match susp.clone() {
                        Suspend::SampleSend { .. } => {
                            let value =
                                self.observations.get(obs_used).copied().ok_or_else(|| {
                                    RuntimeError::ObservationMismatch(format!(
                                    "the model requested observation #{} but only {} were supplied",
                                    obs_used + 1,
                                    self.observations.len()
                                ))
                                })?;
                            obs_used += 1;
                            model_step = model.resume(Resume::Sample(value))?;
                        }
                        Suspend::CallMarker { .. } => {
                            model_step = model.resume(Resume::Ack)?;
                        }
                        Suspend::BranchSend { .. } => {
                            // A branch communicated on the observation
                            // channel is driven by the model alone.
                            model_step = model.resume(Resume::Ack)?;
                        }
                        other => {
                            return Err(RuntimeError::ProtocolViolation(format!(
                                "unsupported model operation on the observation channel: {other:?}"
                            )))
                        }
                    }
                    continue;
                }
            }

            // 3. Latent-channel rendezvous: both coroutines must be
            //    suspended on matching operations.
            let (model_susp, guide_susp) = match (&model_step, &guide_step) {
                (Step::Suspended(m), Step::Suspended(g)) => (m.clone(), g.clone()),
                (Step::Done { .. }, Step::Suspended(g)) => {
                    return Err(RuntimeError::ProtocolViolation(format!(
                        "the model finished but the guide is waiting at {g:?}"
                    )))
                }
                (Step::Suspended(m), Step::Done { .. }) => {
                    return Err(RuntimeError::ProtocolViolation(format!(
                        "the guide finished but the model is waiting at {m:?}"
                    )))
                }
                _ => unreachable!("both-done handled above"),
            };

            match (model_susp, guide_susp) {
                // Guide sends a latent sample; model receives it.
                (Suspend::SampleRecv { chan: mc, .. }, Suspend::SampleSend { chan: gc, dist })
                    if mc == spec.latent_chan && gc == spec.latent_chan =>
                {
                    let value = next_latent(&dist, rng)?;
                    guide_step = guide.resume(Resume::Sample(value))?;
                    model_step = model.resume(Resume::Sample(value))?;
                    latent.push(Message::ValP(value));
                }
                // Model sends a latent sample; guide receives it (dual
                // direction, `τ ⊃ A`).
                (Suspend::SampleSend { chan: mc, dist }, Suspend::SampleRecv { chan: gc, .. })
                    if mc == spec.latent_chan && gc == spec.latent_chan =>
                {
                    let value = next_latent(&dist, rng)?;
                    model_step = model.resume(Resume::Sample(value))?;
                    guide_step = guide.resume(Resume::Sample(value))?;
                    latent.push(Message::ValC(value));
                }
                // Model sends the branch selection; guide receives it.
                (
                    Suspend::BranchSend {
                        chan: mc,
                        selection,
                    },
                    Suspend::BranchRecv { chan: gc },
                ) if mc == spec.latent_chan && gc == spec.latent_chan => {
                    guide_step = guide.resume(Resume::Branch(selection))?;
                    model_step = model.resume(Resume::Ack)?;
                    latent.push(Message::DirC(selection));
                }
                // Guide sends the branch selection; model receives it.
                (
                    Suspend::BranchRecv { chan: mc },
                    Suspend::BranchSend {
                        chan: gc,
                        selection,
                    },
                ) if mc == spec.latent_chan && gc == spec.latent_chan => {
                    model_step = model.resume(Resume::Branch(selection))?;
                    guide_step = guide.resume(Resume::Ack)?;
                    latent.push(Message::DirP(selection));
                }
                // Both coroutines fold (enter a procedure call) on the
                // latent channel.
                (Suspend::CallMarker { chan: mc }, Suspend::CallMarker { chan: gc })
                    if mc == spec.latent_chan && gc == spec.latent_chan =>
                {
                    model_step = model.resume(Resume::Ack)?;
                    guide_step = guide.resume(Resume::Ack)?;
                    latent.push(Message::Fold);
                }
                // The guide folds on the latent channel while the model is
                // not yet at a fold: tolerate guide-only helper calls by
                // letting the guide proceed alone (the fold is not recorded,
                // matching a guide whose call structure refines the
                // protocol).  The symmetric case for the model is handled
                // identically.
                (m, Suspend::CallMarker { chan: gc }) if gc == spec.latent_chan => {
                    guide_step = guide.resume(Resume::Ack)?;
                    // keep the model suspended where it was
                    let _ = m;
                }
                (Suspend::CallMarker { chan: mc }, _g) if mc == spec.latent_chan => {
                    model_step = model.resume(Resume::Ack)?;
                }
                (m, g) => {
                    return Err(RuntimeError::ProtocolViolation(format!(
                        "mismatched channel operations: model at {m:?}, guide at {g:?}"
                    )));
                }
            }
        }

        let (model_value, log_model) = match model_step {
            Step::Done { value, log_weight } => (value, log_weight),
            _ => unreachable!(),
        };
        let (guide_value, log_guide) = match guide_step {
            Step::Done { value, log_weight } => (value, log_weight),
            _ => unreachable!(),
        };
        if obs_used != self.observations.len() {
            return Err(RuntimeError::ObservationMismatch(format!(
                "the model consumed {obs_used} observation(s) but {} were supplied",
                self.observations.len()
            )));
        }
        Ok((model_value, log_model, guide_value, log_guide, obs_used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_dist::Distribution;
    use ppl_syntax::parse_program;

    fn fig5() -> (Program, Program) {
        let model = parse_program(
            r#"
            proc Model() : real consume latent provide obs {
              let v <- sample recv latent (Gamma(2.0, 1.0));
              if send latent (v < 2.0) {
                let _ <- sample send obs (Normal(-1.0, 1.0));
                return v
              } else {
                let m <- sample recv latent (Beta(3.0, 1.0));
                let _ <- sample send obs (Normal(m, 1.0));
                return v
              }
            }
        "#,
        )
        .unwrap();
        let guide = parse_program(
            r#"
            proc Guide1() provide latent {
              let v <- sample send latent (Gamma(1.0, 1.0));
              if recv latent {
                return ()
              } else {
                let _ <- sample send latent (Unif);
                return ()
              }
            }
        "#,
        )
        .unwrap();
        (model, guide)
    }

    #[test]
    fn joint_execution_produces_consistent_weights() {
        let (model, guide) = fig5();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(0.8)]);
        let spec = JointSpec::new("Model", "Guide1");
        let mut rng = Pcg32::seed_from_u64(11);
        for _ in 0..200 {
            let r = exec.run(&spec, LatentSource::FromGuide, &mut rng).unwrap();
            let samples = r.latent_samples();
            let x = samples[0].as_f64();
            assert!(x > 0.0);
            // Recompute both log-weights by hand and compare.
            let mut expect_g = Distribution::gamma(1.0, 1.0).unwrap().log_density_f64(x);
            let mut expect_m = Distribution::gamma(2.0, 1.0).unwrap().log_density_f64(x);
            if x < 2.0 {
                expect_m += Distribution::normal(-1.0, 1.0)
                    .unwrap()
                    .log_density_f64(0.8);
                assert_eq!(samples.len(), 1);
            } else {
                let y = samples[1].as_f64();
                expect_g += Distribution::uniform().log_density_f64(y);
                expect_m += Distribution::beta(3.0, 1.0).unwrap().log_density_f64(y)
                    + Distribution::normal(y, 1.0).unwrap().log_density_f64(0.8);
                assert_eq!(samples.len(), 2);
            }
            assert!((r.log_guide - expect_g).abs() < 1e-10, "guide weight");
            assert!((r.log_model - expect_m).abs() < 1e-10, "model weight");
            assert!(r.log_importance_weight().is_finite());
            assert_eq!(r.observations_used, 1);
            assert_eq!(r.model_value, Value::Real(x));
            assert_eq!(r.guide_value, Value::Unit);
        }
    }

    #[test]
    fn replay_reproduces_the_same_weights() {
        let (model, guide) = fig5();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(0.8)]);
        let spec = JointSpec::new("Model", "Guide1");
        let mut rng = Pcg32::seed_from_u64(5);
        let first = exec.run(&spec, LatentSource::FromGuide, &mut rng).unwrap();
        let replayed = exec
            .run(&spec, LatentSource::Replay(&first.latent), &mut rng)
            .unwrap();
        assert_eq!(replayed.latent, first.latent);
        assert!((replayed.log_model - first.log_model).abs() < 1e-12);
        assert!((replayed.log_guide - first.log_guide).abs() < 1e-12);
    }

    #[test]
    fn dual_direction_latent_traces_replay_exactly() {
        // The model *sends* on the latent channel (`τ ⊃ A`), so the trace
        // records `valC` messages; replay must feed those back too.
        let model = parse_program(
            r#"
            proc Model() : real consume latent provide obs {
              let x <- sample send latent (Normal(0.0, 1.0));
              let y <- sample recv latent (Normal(x, 1.0));
              let _ <- sample send obs (Normal(y, 1.0));
              return x
            }
        "#,
        )
        .unwrap();
        let guide = parse_program(
            r#"
            proc Guide() provide latent {
              let x <- sample recv latent (Normal(0.0, 2.0));
              let y <- sample send latent (Normal(x, 2.0));
              return ()
            }
        "#,
        )
        .unwrap();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(0.5)]);
        let spec = JointSpec::new("Model", "Guide");
        let mut rng = Pcg32::seed_from_u64(17);
        let first = exec.run(&spec, LatentSource::FromGuide, &mut rng).unwrap();
        // The recorded trace mixes both directions.
        assert!(first
            .latent
            .messages()
            .iter()
            .any(|m| matches!(m, Message::ValC(_))));
        assert!(first
            .latent
            .messages()
            .iter()
            .any(|m| matches!(m, Message::ValP(_))));
        let replayed = exec
            .run(&spec, LatentSource::Replay(&first.latent), &mut rng)
            .unwrap();
        assert_eq!(replayed.latent, first.latent);
        assert_eq!(replayed.log_model.to_bits(), first.log_model.to_bits());
        assert_eq!(replayed.log_guide.to_bits(), first.log_guide.to_bits());
    }

    #[test]
    fn joint_execution_agrees_with_trace_semantics() {
        // Cross-validation: score the recorded latent trace with the
        // big-step evaluator of ppl-semantics and compare.
        use ppl_semantics::Evaluator;
        let (model, guide) = fig5();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(0.8)]);
        let spec = JointSpec::new("Model", "Guide1");
        let mut rng = Pcg32::seed_from_u64(123);
        let r = exec.run(&spec, LatentSource::FromGuide, &mut rng).unwrap();
        let obs_trace = Trace::from_messages(vec![Message::ValP(Sample::Real(0.8))]);
        let model_eval = Evaluator::new(&model)
            .run_proc(&"Model".into(), &[], &r.latent, &obs_trace)
            .unwrap();
        assert!((model_eval.log_weight - r.log_model).abs() < 1e-10);
        let guide_eval = Evaluator::new(&guide)
            .run_proc(&"Guide1".into(), &[], &Trace::new(), &r.latent)
            .unwrap();
        assert!((guide_eval.log_weight - r.log_guide).abs() < 1e-10);
    }

    #[test]
    fn unsound_guide_is_detected_or_zero_weighted() {
        // Guide1' from Fig. 3: wrong support for @x and wrong branch
        // structure for @y.
        let (model, _) = fig5();
        let bad_guide = parse_program(
            r#"
            proc GuideBad() provide latent {
              let v <- sample send latent (Pois(4.0));
              if recv latent {
                return ()
              } else {
                let _ <- sample send latent (Unif);
                return ()
              }
            }
        "#,
        )
        .unwrap();
        let exec = JointExecutor::new(&model, &bad_guide, vec![Sample::Real(0.8)]);
        let spec = JointSpec::new("Model", "GuideBad");
        let mut rng = Pcg32::seed_from_u64(3);
        let mut zero_weight = 0usize;
        for _ in 0..50 {
            match exec.run(&spec, LatentSource::FromGuide, &mut rng) {
                Ok(r) => {
                    // The model's Gamma prior cannot support a natural-number
                    // sample, so the model weight must be zero.
                    assert_eq!(r.log_model, f64::NEG_INFINITY);
                    zero_weight += 1;
                }
                Err(RuntimeError::ProtocolViolation(_)) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(zero_weight > 0);
    }

    #[test]
    fn observation_count_is_checked() {
        let (model, guide) = fig5();
        let spec = JointSpec::new("Model", "Guide1");
        let mut rng = Pcg32::seed_from_u64(9);
        // Too few observations.
        let exec = JointExecutor::new(&model, &guide, vec![]);
        assert!(matches!(
            exec.run(&spec, LatentSource::FromGuide, &mut rng),
            Err(RuntimeError::ObservationMismatch(_))
        ));
        // Too many observations.
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(0.8), Sample::Real(0.9)]);
        assert!(matches!(
            exec.run(&spec, LatentSource::FromGuide, &mut rng),
            Err(RuntimeError::ObservationMismatch(_))
        ));
    }

    #[test]
    fn recursive_model_and_guide_fold_together() {
        let model = parse_program(
            r#"
            proc GeoModel() : real consume latent provide obs {
              let n <- call GeoStep(0.5);
              let _ <- sample send obs (Normal(n, 1.0));
              return n
            }
            proc GeoStep(p : ureal) : real consume latent {
              let u <- sample recv latent (Unif);
              if send latent (u < p) {
                return 0.0
              } else {
                let rest <- call GeoStep(p);
                return rest + 1.0
              }
            }
        "#,
        )
        .unwrap();
        let guide = parse_program(
            r#"
            proc GeoGuide() provide latent {
              let _ <- call GeoStepGuide();
              return ()
            }
            proc GeoStepGuide() provide latent {
              let u <- sample send latent (Unif);
              if recv latent {
                return ()
              } else {
                let _ <- call GeoStepGuide();
                return ()
              }
            }
        "#,
        )
        .unwrap();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
        let spec = JointSpec::new("GeoModel", "GeoGuide");
        let mut rng = Pcg32::seed_from_u64(77);
        for _ in 0..100 {
            let r = exec.run(&spec, LatentSource::FromGuide, &mut rng).unwrap();
            // Each recursion level contributes one Unif sample and one
            // selection; the number of folds equals the recursion depth.
            let folds = r
                .latent
                .messages()
                .iter()
                .filter(|m| matches!(m, Message::Fold))
                .count();
            let samples = r.latent_samples().len();
            assert_eq!(samples, folds, "one unif per recursion level");
            assert!(r.log_importance_weight().is_finite());
        }
    }

    #[test]
    fn executor_is_send_sync_and_cheap_to_share() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let (model, guide) = fig5();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(0.8)]);
        assert_send_sync(&exec);
        // Clones share the same compiled programs.
        let clone = exec.clone();
        assert!(Arc::ptr_eq(exec.model_program(), clone.model_program()));
        assert!(Arc::ptr_eq(exec.guide_program(), clone.guide_program()));
        // from_compiled reuses a compilation across observation sets.
        let other = JointExecutor::from_compiled(
            Arc::clone(exec.model_program()),
            Arc::clone(exec.guide_program()),
            vec![Sample::Real(0.1)],
        );
        assert!(Arc::ptr_eq(exec.model_program(), other.model_program()));
        assert_eq!(other.observations(), &[Sample::Real(0.1)]);
    }

    #[test]
    fn identical_runs_from_identical_rng_states_agree_across_threads() {
        let (model, guide) = fig5();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(0.8)]);
        let spec = JointSpec::new("Model", "Guide1");
        let master = Pcg32::seed_from_u64(99);
        let sequential: Vec<JointResult> = (0..16)
            .map(|i| {
                let mut rng = master.split(i);
                exec.run(&spec, LatentSource::FromGuide, &mut rng).unwrap()
            })
            .collect();
        let mut parallel: Vec<Option<JointResult>> = vec![None; 16];
        std::thread::scope(|s| {
            for (chunk_idx, chunk) in parallel.chunks_mut(4).enumerate() {
                let exec = &exec;
                let spec = &spec;
                let master = &master;
                s.spawn(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let i = (chunk_idx * 4 + j) as u64;
                        let mut rng = master.split(i);
                        *slot = Some(exec.run(spec, LatentSource::FromGuide, &mut rng).unwrap());
                    }
                });
            }
        });
        for (seq, par) in sequential.iter().zip(&parallel) {
            let par = par.as_ref().unwrap();
            assert_eq!(seq.latent, par.latent);
            assert_eq!(seq.log_guide.to_bits(), par.log_guide.to_bits());
            assert_eq!(seq.log_model.to_bits(), par.log_model.to_bits());
        }
    }

    #[test]
    fn spec_builders() {
        let spec = JointSpec::new("M", "G")
            .with_model_args(vec![Value::Real(1.0)])
            .with_guide_args(vec![Value::Real(2.0), Value::Real(3.0)]);
        assert_eq!(spec.model_args.len(), 1);
        assert_eq!(spec.guide_args.len(), 2);
        assert_eq!(spec.latent_chan.as_str(), "latent");
        assert_eq!(spec.obs_chan.as_str(), "obs");
    }
}
