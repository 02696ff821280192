//! Importance sampling (§5.2, "IS").
//!
//! Each particle is produced by one joint model–guide execution: the guide
//! proposes the latent trace `σ_ℓ` with density `w_g`, the model scores it
//! (together with the conditioned observations) with density `w_m`, and the
//! particle's importance weight is `w_m / w_g`.  Theorem 5.2 (absolute
//! continuity, certified by the guide types) guarantees that the proposal
//! covers the whole posterior support, so the weighted empirical
//! distribution converges to the posterior.

use crate::engine::{BlockSink, Engine};
use crate::posterior::{Draw, Posterior};
use ppl_dist::rng::Pcg32;
use ppl_dist::stats::{effective_sample_size, normalize_log_weights, Histogram};
use ppl_dist::Sample;
use ppl_runtime::{JointExecutor, JointResult, JointScratch, JointSpec, RunCounts, RuntimeError};

/// Default lockstep block size for the particle loop: large enough to
/// amortise op dispatch and fill the batched density kernels, small enough
/// that the structure-of-arrays columns stay cache-resident.
pub const DEFAULT_BLOCK: usize = 64;

/// Every particle of an importance-sampling run, stored column-wise.
///
/// Row `i` is particle `i`: its log-weight `log (w_m / w_g)`, the model's
/// return value (as a real number when scalar), and its latent sample
/// values in sampling order.  The samples of all particles sit back to
/// back in one buffer, delimited by per-particle end offsets, so a run of
/// `N` particles is four buffers rather than `N` allocations.  A
/// path-dependent model gives particles different sample counts; the row
/// length records which sites a particle visited.
///
/// Guidance traces (with branch selections and fold markers) are not
/// retained: a single execution's trace comes from
/// [`JointExecutor::run`] or [`JointExecutor::run_block_with_scratch`] on
/// the same RNG substream, and MCMC keeps its own in
/// [`ChainState`](crate::ChainState).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleColumns {
    log_weights: Vec<f64>,
    model_values: Vec<Option<f64>>,
    samples: Vec<Sample>,
    sample_ends: Vec<usize>,
}

impl ParticleColumns {
    /// Appends one particle.
    pub(crate) fn push(
        &mut self,
        log_weight: f64,
        model_value: Option<f64>,
        samples: impl IntoIterator<Item = Sample>,
    ) {
        self.log_weights.push(log_weight);
        self.model_values.push(model_value);
        self.samples.extend(samples);
        self.sample_ends.push(self.samples.len());
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.log_weights.len()
    }

    /// Whether the store holds no particles.
    pub fn is_empty(&self) -> bool {
        self.log_weights.is_empty()
    }

    /// Every particle's log-weight `log (w_m / w_g)`, in generation order.
    pub fn log_weights(&self) -> &[f64] {
        &self.log_weights
    }

    /// Every particle's scalar model return value, in generation order.
    pub fn model_values(&self) -> &[Option<f64>] {
        &self.model_values
    }

    /// The latent sample values of particle `index`, in sampling order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn samples(&self, index: usize) -> &[Sample] {
        let start = index.checked_sub(1).map_or(0, |i| self.sample_ends[i]);
        &self.samples[start..self.sample_ends[index]]
    }
}

impl BlockSink for ParticleColumns {
    fn with_capacity(jobs: usize) -> Self {
        ParticleColumns {
            log_weights: Vec::with_capacity(jobs),
            model_values: Vec::with_capacity(jobs),
            samples: Vec::with_capacity(jobs),
            sample_ends: Vec::with_capacity(jobs),
        }
    }

    fn append(&mut self, later: &mut Self) {
        let base = self.samples.len();
        self.sample_ends
            .extend(later.sample_ends.drain(..).map(|end| base + end));
        self.log_weights.append(&mut later.log_weights);
        self.model_values.append(&mut later.model_values);
        self.samples.append(&mut later.samples);
    }
}

/// The result of an importance-sampling run.
#[derive(Debug, Clone)]
pub struct ImportanceResult {
    /// All particles, in generation order.
    pub particles: ParticleColumns,
    /// Self-normalised weights (sum to one); `None` if every particle had
    /// zero weight.
    pub normalized_weights: Option<Vec<f64>>,
    /// Effective sample size of the normalised weights.
    pub ess: f64,
    /// The log of the average unnormalised weight — an estimate of the log
    /// model evidence `log p(σ_o)`.
    pub log_evidence: f64,
    /// What the block executor did during this run.
    pub counts: RunCounts,
}

impl ImportanceResult {
    /// A weighted histogram (density estimate) of a statistic of the
    /// draws over `[lo, hi)` — the series plotted in Fig. 2.
    pub fn weighted_histogram<F>(&self, lo: f64, hi: f64, bins: usize, f: F) -> Histogram
    where
        F: Fn(&Draw<'_>) -> Option<f64>,
    {
        let mut hist = Histogram::new(lo, hi, bins);
        self.for_each_draw(&mut |draw| {
            if let Some(v) = f(&draw) {
                hist.add(v, draw.weight);
            }
        });
        hist
    }
}

/// The importance-sampling engine.
#[derive(Debug, Clone)]
pub struct ImportanceSampler {
    /// Number of particles to draw.
    pub num_particles: usize,
    /// Number of worker threads for the particle loop (1 = sequential).
    /// Thanks to per-particle RNG substreams the results are bit-identical
    /// for every thread count.
    pub num_threads: usize,
    /// Lockstep block size for the vectorised particle loop (1 = scalar
    /// stepping).  Results are bit-identical at every block size; the block
    /// only controls how many particles advance per instruction.
    pub block: usize,
}

impl ImportanceSampler {
    /// Creates a sequential sampler with the given particle count.
    pub fn new(num_particles: usize) -> Self {
        ImportanceSampler {
            num_particles,
            num_threads: 1,
            block: DEFAULT_BLOCK,
        }
    }

    /// Sets the worker-thread count for the particle loop.
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads.max(1);
        self
    }

    /// Sets the lockstep block size (clamped to at least one).
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block.max(1);
        self
    }

    /// Runs importance sampling.
    ///
    /// Particles are drawn by the shared [`Engine`] driver: each particle
    /// `i` runs one joint execution on RNG substream `i`, sequentially or
    /// across `num_threads` scoped threads, with identical results either
    /// way.  Joint executions that end in a protocol violation abort the run
    /// (they indicate an incompatible model–guide pair that the type system
    /// would have rejected); zero-weight particles are kept.
    ///
    /// Each lane's weight, model value and provider samples are copied into
    /// the result's [`ParticleColumns`] and its trace buffer is recycled, so
    /// a warmed run allocates a constant number of buffers however many
    /// particles it draws.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`]s from the joint executor.
    pub fn run(
        &self,
        executor: &JointExecutor,
        spec: &JointSpec,
        rng: &mut Pcg32,
    ) -> Result<ImportanceResult, RuntimeError> {
        crate::counters::record_joint_executions(self.num_particles);
        let engine = Engine::new(self.num_threads);
        let (particles, counts) = engine.run_particle_blocks_with(
            self.num_particles,
            self.block.max(1),
            rng,
            || (JointScratch::new(), Vec::new()),
            |(scratch, joints): &mut (JointScratch, Vec<JointResult>),
             master,
             first,
             len,
             (out, counts): &mut (ParticleColumns, RunCounts)|
             -> Result<(), RuntimeError> {
                joints.clear();
                // `run_block_with_scratch` polls the executor's cancel
                // token once per block (and per op inside the plan), so an
                // expired deadline aborts the sweep within one block-step;
                // the engine's lowest-index early-abort then stops the
                // remaining workers.
                executor.run_block_with_scratch(spec, master, first, len, scratch, joints)?;
                *counts += scratch.take_counts();
                // Copy each lane into the columns and hand its trace buffer
                // straight back, so the next block refills the pool instead
                // of allocating.
                for joint in joints.drain(..) {
                    out.push(
                        joint.log_importance_weight(),
                        joint.model_value.as_f64(),
                        joint.latent.provider_sample_iter(),
                    );
                    scratch.recycle(joint.latent);
                }
                Ok(())
            },
        )?;
        // One log-sum-exp serves both the normalisation and the evidence.
        let (normalized_weights, lse) = normalize_log_weights(particles.log_weights());
        let ess = normalized_weights
            .as_ref()
            .map(|w| effective_sample_size(w))
            .unwrap_or(0.0);
        let log_evidence = lse - (self.num_particles as f64).ln();
        Ok(ImportanceResult {
            particles,
            normalized_weights,
            ess,
            log_evidence,
            counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_dist::Distribution;
    use ppl_runtime::LatentSource;
    use ppl_syntax::parse_program;

    /// Conjugate normal-normal model: x ~ N(0,1), obs ~ N(x, 1), observe 1.0.
    /// Posterior: N(0.5, 1/2).
    fn normal_normal() -> (ppl_syntax::Program, ppl_syntax::Program) {
        let model = parse_program(
            r#"
            proc Model() : real consume latent provide obs {
              let x <- sample recv latent (Normal(0.0, 1.0));
              let _ <- sample send obs (Normal(x, 1.0));
              return x
            }
        "#,
        )
        .unwrap();
        let guide = parse_program(
            r#"
            proc Guide() provide latent {
              let x <- sample send latent (Normal(0.0, 1.5));
              return ()
            }
        "#,
        )
        .unwrap();
        (model, guide)
    }

    /// Equal rows, with the log-weights compared bit for bit.
    fn assert_bit_identical(a: &ParticleColumns, b: &ParticleColumns) {
        let bits = |c: &ParticleColumns| -> Vec<u64> {
            c.log_weights().iter().map(|w| w.to_bits()).collect()
        };
        assert_eq!(bits(a), bits(b));
        assert_eq!(a, b);
    }

    #[test]
    fn normal_normal_posterior_mean_and_evidence() {
        let (model, guide) = normal_normal();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let mut rng = Pcg32::seed_from_u64(42);
        let result = ImportanceSampler::new(40_000)
            .run(&exec, &spec, &mut rng)
            .unwrap();
        let mean = result.mean_of_sample(0).unwrap();
        assert!((mean - 0.5).abs() < 0.03, "posterior mean {mean}");
        // Evidence p(y=1.0) = N(1.0; 0, sqrt(2)).
        let expected_log_evidence = Distribution::normal(0.0, 2.0f64.sqrt())
            .unwrap()
            .log_density_f64(1.0);
        assert!(
            (result.log_evidence - expected_log_evidence).abs() < 0.05,
            "log evidence {} vs {}",
            result.log_evidence,
            expected_log_evidence
        );
        assert!(result.ess > 10_000.0, "ess {}", result.ess);
    }

    #[test]
    fn scalar_fallback_lanes_surface_in_the_diagnostics() {
        // Seven chained lane-dependent branches plan 2^7 paths, which
        // outgrow the block plan's arm budget in the third 8-lane block at
        // seed 1: that block and the two after it rerun scalar.
        let (mut model, mut guide) = (String::new(), String::new());
        for i in 0..7 {
            model += &format!(
                "let u{i} <- sample recv latent (Unif);
                 let b{i} <- if send latent (u{i} < 0.5) {{ return 1.0 }} else {{ return 0.0 }};"
            );
            guide += &format!(
                "let u{i} <- sample send latent (Unif);
                 let _ <- if recv latent {{ return () }} else {{ return () }};"
            );
        }
        let model = format!(
            "proc Chain() : real consume latent provide obs {{ {model}
               let _ <- sample send obs (Normal(b0 + b3 + b6, 1.0)); return b0 + b1 }}"
        );
        let guide = format!("proc ChainGuide() provide latent {{ {guide} return () }}");
        let exec = JointExecutor::new(
            &parse_program(&model).unwrap(),
            &parse_program(&guide).unwrap(),
            vec![Sample::Real(1.5)],
        );
        let spec = JointSpec::new("Chain", "ChainGuide");
        let result = ImportanceSampler::new(40)
            .with_block(8)
            .run(&exec, &spec, &mut Pcg32::seed_from_u64(1))
            .unwrap();
        let diag = result.diag();
        assert_eq!(diag.scalar_lanes, 3 * 8);
        assert!(diag.lane_splits > 0 && diag.cancel_checks > 0, "{diag:?}");
    }

    #[test]
    fn fig1_posterior_shifts_towards_observation() {
        // The Fig. 1/Fig. 3 pair: conditioning on @z = 0.8 makes large @x
        // (else branch, mean m ∈ (0,1)) more likely than under the prior.
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
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(0.8)]);
        let spec = JointSpec::new("Model", "Guide1");
        let mut rng = Pcg32::seed_from_u64(7);
        let result = ImportanceSampler::new(30_000)
            .run(&exec, &spec, &mut rng)
            .unwrap();
        let p_else_posterior = result
            .probability(&|d| d.samples[0].as_f64() >= 2.0)
            .unwrap();
        // Prior probability of the else branch under Gamma(2,1): ~0.406.
        // Observing z = 0.8 (closer to m ∈ (0,1) than to -1) should raise it.
        assert!(
            p_else_posterior > 0.55,
            "posterior else-branch probability {p_else_posterior}"
        );
        // The else branch samples one more site; its rows are one longer.
        for i in 0..result.particles.len() {
            let row = result.particles.samples(i);
            assert_eq!(row.len(), if row[0].as_f64() < 2.0 { 1 } else { 2 });
        }
        let hist = result.weighted_histogram(0.0, 8.0, 32, |d| Some(d.samples[0].as_f64()));
        assert!(hist.total_weight() > 0.99);
    }

    #[test]
    fn posterior_expectation_skip_and_renormalise_contract() {
        // Hand-built result with known weights: w = [0.5, 0.3, 0.2].
        let columns = |values: &[f64]| {
            let mut particles = ParticleColumns::default();
            for &v in values {
                particles.push(0.0, Some(v), [Sample::Real(v)]);
            }
            particles
        };
        let result = ImportanceResult {
            particles: columns(&[1.0, 2.0, 3.0]),
            normalized_weights: Some(vec![0.5, 0.3, 0.2]),
            ess: 3.0,
            log_evidence: 0.0,
            counts: RunCounts::default(),
        };
        // All defined: the plain weighted mean.
        let all = result.expectation(&|d| d.value).unwrap();
        assert!((all - (0.5 + 0.6 + 0.6)).abs() < 1e-12);
        // Mixed: the middle particle is skipped, and the remaining weights
        // are renormalised — E[f | f defined] = (0.5·1 + 0.2·3) / 0.7.
        let mixed = result
            .expectation(&|d| {
                let v = d.value.unwrap();
                (v != 2.0).then_some(v)
            })
            .unwrap();
        assert!((mixed - (0.5 + 0.6) / 0.7).abs() < 1e-12);
        // All `None`: no conditioning event to renormalise over.
        assert!(result.expectation(&|_| None).is_none());
        // `None` exactly on the particles carrying all the weight: same.
        let degenerate = ImportanceResult {
            particles: columns(&[1.0, 2.0]),
            normalized_weights: Some(vec![1.0, 0.0]),
            ess: 1.0,
            log_evidence: 0.0,
            counts: RunCounts::default(),
        };
        assert!(degenerate
            .expectation(&|d| {
                let v = d.value.unwrap();
                (v != 1.0).then_some(v)
            })
            .is_none());
        // All-zero-weight runs expose no normalised weights at all.
        let zero = ImportanceResult {
            particles: columns(&[1.0]),
            normalized_weights: None,
            ess: 0.0,
            log_evidence: f64::NEG_INFINITY,
            counts: RunCounts::default(),
        };
        assert!(zero.expectation(&|d| d.value).is_none());
    }

    #[test]
    fn parallel_importance_sampling_is_bit_identical() {
        let (model, guide) = normal_normal();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let mut results = Vec::new();
        for threads in [1usize, 4] {
            let mut rng = Pcg32::seed_from_u64(2026);
            let r = ImportanceSampler::new(2_000)
                .with_threads(threads)
                .run(&exec, &spec, &mut rng)
                .unwrap();
            results.push(r);
        }
        let (seq, par) = (&results[0], &results[1]);
        assert_eq!(seq.log_evidence.to_bits(), par.log_evidence.to_bits());
        assert_eq!(seq.ess.to_bits(), par.ess.to_bits());
        assert_bit_identical(&seq.particles, &par.particles);
    }

    #[test]
    fn block_sizes_are_bit_identical() {
        let (model, guide) = normal_normal();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let mut rng = Pcg32::seed_from_u64(99);
        let reference = ImportanceSampler::new(1_000)
            .with_block(1)
            .run(&exec, &spec, &mut rng)
            .unwrap();
        // The columns hold exactly what particle `i`'s own joint execution
        // on substream `i` produced.
        let master = Pcg32::seed_from_u64(99);
        for i in [0usize, 1, 500, 999] {
            let joint = exec
                .run(&spec, LatentSource::FromGuide, &mut master.split(i as u64))
                .unwrap();
            let lw = reference.particles.log_weights()[i];
            assert_eq!(lw.to_bits(), joint.log_importance_weight().to_bits());
            assert_eq!(reference.particles.samples(i), joint.latent_samples());
        }
        for block in [7usize, 64, 256, 4096] {
            for threads in [1usize, 4] {
                let mut rng = Pcg32::seed_from_u64(99);
                let r = ImportanceSampler::new(1_000)
                    .with_block(block)
                    .with_threads(threads)
                    .run(&exec, &spec, &mut rng)
                    .unwrap();
                assert_eq!(
                    reference.log_evidence.to_bits(),
                    r.log_evidence.to_bits(),
                    "block {block} threads {threads}"
                );
                assert_bit_identical(&reference.particles, &r.particles);
            }
        }
    }

    #[test]
    fn posterior_helpers_handle_missing_values() {
        let (model, guide) = normal_normal();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let mut rng = Pcg32::seed_from_u64(1);
        let result = ImportanceSampler::new(100)
            .run(&exec, &spec, &mut rng)
            .unwrap();
        // Sample index 5 never exists.
        assert!(result.mean_of_sample(5).is_none());
        assert_eq!(result.particles.len(), 100);
        assert!(result.probability(&|_| true).unwrap() > 0.999);
    }

    #[test]
    fn columns_concatenate_rows_in_order() {
        let mut head = ParticleColumns::default();
        head.push(-1.0, Some(1.0), [Sample::Real(1.0)]);
        head.push(-2.0, None, []);
        let mut tail = ParticleColumns::default();
        tail.push(-3.0, Some(3.0), [Sample::Real(3.0), Sample::Bool(true)]);
        head.append(&mut tail);
        assert!(tail.is_empty());
        assert_eq!(head.len(), 3);
        assert_eq!(head.log_weights(), &[-1.0, -2.0, -3.0]);
        assert_eq!(head.model_values(), &[Some(1.0), None, Some(3.0)]);
        assert_eq!(head.samples(0), &[Sample::Real(1.0)]);
        assert!(head.samples(1).is_empty());
        assert_eq!(head.samples(2), &[Sample::Real(3.0), Sample::Bool(true)]);
    }
}
