//! Control-flow divergence regressions for the vectorised block executor.
//!
//! The block executor steps many particles in lockstep over the compiled
//! program; when lanes disagree on a branch direction the block splits
//! per-lane and re-converges afterwards.  These tests pin the property
//! that divergence is *invisible* in results: importance sampling through
//! the full `Session` → `Query` pipeline is bit-identical to the scalar
//! path (`block = 1`) at every block size and thread count, on models
//! built to maximise divergence:
//!
//! 1. a four-arm offer chain (two nested external choices on the latent
//!    channel) where, at small block sizes, every lane can take a
//!    different arm, and
//! 2. a model whose branch — and hence which latent sites exist — is
//!    selected by the *observation*, run under both observation regimes.
//!
//! The determinism goldens (`tests/determinism_goldens.rs`) separately
//! pin that the default block size reproduces the scalar fingerprints
//! recorded before vectorisation landed.
//!
//! Because a scalar fallback is invisible in results, one test pins which
//! path every registry model actually takes: the block executor's plan
//! verdict, and that no lane reaches the evaluator or the scalar path.  The last re-scores the recursive models' block runs with the
//! paper's reference semantics, the big-step `Evaluator`.

use guide_ppl::runtime::{JointExecutor, JointScratch, JointSpec};
use guide_ppl::semantics::{Evaluator, Message, Trace, Value};
use guide_ppl::{Method, Posterior, Session};
use ppl_dist::rng::Pcg32;
use ppl_dist::Sample;
use ppl_models::all_benchmarks;

const BLOCK_SIZES: [usize; 4] = [1, 7, 64, 256];
const THREADS: [usize; 2] = [1, 4];
const PARTICLES: usize = 500;

/// Runs importance sampling at every block size × thread count and asserts
/// the particles' weights, samples and model values, and the evidence, are
/// bit-identical to the scalar single-thread reference.
fn assert_block_invariant(session: &Session, observations: Vec<Sample>, seed: u64) {
    let run = |block: usize, threads: usize| {
        session
            .query()
            .observe(observations.clone())
            .seed(seed)
            .threads(threads)
            .block(block)
            .run(&Method::Importance {
                particles: PARTICLES,
            })
            .expect("importance sampling runs")
            .as_importance()
            .cloned()
            .expect("importance posterior")
    };
    let reference = run(1, 1);
    assert_eq!(reference.particles.len(), PARTICLES);
    for block in BLOCK_SIZES {
        for threads in THREADS {
            let result = run(block, threads);
            assert_eq!(
                result.log_evidence.to_bits(),
                reference.log_evidence.to_bits(),
                "log_evidence drifted at block {block}, {threads} threads"
            );
            assert_eq!(
                result.ess.to_bits(),
                reference.ess.to_bits(),
                "ess drifted at block {block}, {threads} threads"
            );
            let (r, s) = (&result.particles, &reference.particles);
            for i in 0..PARTICLES {
                assert_eq!(
                    r.log_weights()[i].to_bits(),
                    s.log_weights()[i].to_bits(),
                    "particle {i} log-weight drifted at block {block}, {threads} threads"
                );
                assert_eq!(
                    r.samples(i),
                    s.samples(i),
                    "particle {i} samples drifted at block {block}, {threads} threads"
                );
            }
            assert_eq!(
                r.model_values(),
                s.model_values(),
                "model values drifted at block {block}, {threads} threads"
            );
        }
    }
}

/// A two-level offer chain: the model announces an outer and an inner
/// branch direction on the latent channel, yielding four arms with
/// different proposal distributions and different observation likelihoods.
/// Lane-dependent draws mean a block of four lanes can take four different
/// arms.
const OFFER_MODEL: &str = r#"
    proc Model() : real consume latent provide obs {
      let a <- sample recv latent (Unif);
      if send latent (a < 0.5) {
        let b <- sample recv latent (Unif);
        if send latent (b < 0.5) {
          let _ <- sample send obs (Normal(0.0, 1.0));
          return a
        } else {
          let _ <- sample send obs (Normal(1.0, 1.0));
          return b
        }
      } else {
        let b <- sample recv latent (Beta(2.0, 2.0));
        if send latent (b < a) {
          let _ <- sample send obs (Normal(2.0, 1.0));
          return a + b
        } else {
          let _ <- sample send obs (Normal(3.0, 1.0));
          return a
        }
      }
    }
"#;

const OFFER_GUIDE: &str = r#"
    proc Guide() provide latent {
      let a <- sample send latent (Unif);
      if recv latent {
        let b <- sample send latent (Unif);
        if recv latent {
          return ()
        } else {
          return ()
        }
      } else {
        let b <- sample send latent (Beta(3.0, 1.0));
        if recv latent {
          return ()
        } else {
          return ()
        }
      }
    }
"#;

#[test]
fn four_arm_offer_chain_is_block_invariant() {
    let session = Session::from_sources(OFFER_MODEL, "Model", OFFER_GUIDE, "Guide")
        .expect("offer chain is well-typed and compatible");
    assert_block_invariant(&session, vec![Sample::Real(1.2)], 0xD1_7E55);
}

#[test]
fn offer_chain_visits_every_arm() {
    // The divergence scenario is only meaningful if all four arms are
    // actually exercised; the observed likelihood means tags 0..4 all
    // carry weight.  Count arms by the recorded trace shape.
    let session = Session::from_sources(OFFER_MODEL, "Model", OFFER_GUIDE, "Guide")
        .expect("offer chain is well-typed and compatible");
    let result = session
        .query()
        .observe(vec![Sample::Real(1.2)])
        .seed(0xD1_7E55)
        .run(&Method::Importance {
            particles: PARTICLES,
        })
        .unwrap();
    let mut arms = std::collections::BTreeSet::new();
    result.for_each_draw(&mut |draw| {
        // Draw layout: [a, b]; recover the arm from the values.
        let a = draw.samples[0].as_f64();
        let b = draw.samples[1].as_f64();
        arms.insert(((a < 0.5) as u8) << 1 | ((if a < 0.5 { b < 0.5 } else { b < a }) as u8));
    });
    assert_eq!(arms.len(), 4, "all four offer arms must be populated");
}

/// The branch the model takes — and therefore which latent sites exist —
/// is decided by the first observation: a negative reading selects the
/// one-latent arm, a non-negative one the two-latent arm.
const OBS_BRANCH_MODEL: &str = r#"
    proc Model() : real consume latent provide obs {
      let z <- sample send obs (Normal(0.0, 2.0));
      if send latent (z < 0.0) {
        let x <- sample recv latent (Normal(0.0, 1.0));
        let _ <- sample send obs (Normal(x, 1.0));
        return x
      } else {
        let x <- sample recv latent (Normal(0.0, 1.0));
        let y <- sample recv latent (Gamma(2.0, 2.0));
        let _ <- sample send obs (Normal(x + y, 1.0));
        return x
      }
    }
"#;

const OBS_BRANCH_GUIDE: &str = r#"
    proc Guide() provide latent {
      if recv latent {
        let x <- sample send latent (Normal(0.0, 1.5));
        return ()
      } else {
        let x <- sample send latent (Normal(0.5, 1.0));
        let y <- sample send latent (Gamma(2.0, 1.0));
        return ()
      }
    }
"#;

#[test]
fn observation_selected_branch_is_block_invariant() {
    let session = Session::from_sources(OBS_BRANCH_MODEL, "Model", OBS_BRANCH_GUIDE, "Guide")
        .expect("observation-branch pair is well-typed and compatible");
    // Negative regime: one latent site per particle.
    assert_block_invariant(
        &session,
        vec![Sample::Real(-1.5), Sample::Real(0.3)],
        0x0B5_001,
    );
    // Non-negative regime: two latent sites per particle — the compiled
    // block plan must be re-derived for the new observation set, not
    // reused from the negative regime.
    assert_block_invariant(
        &session,
        vec![Sample::Real(1.5), Sample::Real(2.1)],
        0x0B5_002,
    );
}

#[test]
fn observation_regimes_produce_different_trace_shapes() {
    // Sanity for the test above: the two observation regimes really do
    // route through different arms (one vs two latent draws).
    let session = Session::from_sources(OBS_BRANCH_MODEL, "Model", OBS_BRANCH_GUIDE, "Guide")
        .expect("observation-branch pair is well-typed and compatible");
    let draws_of = |z: f64, second: f64| {
        let result = session
            .query()
            .observe(vec![Sample::Real(z), Sample::Real(second)])
            .seed(7)
            .run(&Method::Importance { particles: 50 })
            .unwrap();
        let mut widths = std::collections::BTreeSet::new();
        result.for_each_draw(&mut |draw| {
            widths.insert(draw.samples.len());
        });
        widths
    };
    assert_eq!(draws_of(-1.5, 0.3).into_iter().collect::<Vec<_>>(), [1]);
    assert_eq!(draws_of(1.5, 2.1).into_iter().collect::<Vec<_>>(), [2]);
}

/// The verdict every expressible registry model's plan reaches after
/// 2,000 particles in 64-lane blocks: all vectorise.  The recursive ones
/// (marsaglia, ptrace, ex-2, gp-dsl, geometric) plan each procedure pair
/// they recurse through once, as call/return arms every level shares.
const REGISTRY_VERDICTS: [(&str, Result<(), &str>); 20] = [
    ("lr", Ok(())),
    ("gmm", Ok(())),
    ("kalman", Ok(())),
    ("sprinkler", Ok(())),
    ("hmm", Ok(())),
    ("branching", Ok(())),
    ("marsaglia", Ok(())),
    ("ptrace", Ok(())),
    ("aircraft", Ok(())),
    ("weight", Ok(())),
    ("vae", Ok(())),
    ("ex-1", Ok(())),
    ("ex-2", Ok(())),
    ("gp-dsl", Ok(())),
    ("outlier", Ok(())),
    ("normal-normal", Ok(())),
    ("geometric", Ok(())),
    ("burglary", Ok(())),
    ("coin", Ok(())),
    ("seasons", Ok(())),
];

#[test]
fn registry_plan_verdicts_are_pinned() {
    const PARTICLES: usize = 2_000;
    const BLOCK: usize = 64;
    let expressible: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| b.expressible)
        .collect();
    let names: Vec<&str> = expressible.iter().map(|b| b.name).collect();
    let pinned: Vec<&str> = REGISTRY_VERDICTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names, pinned,
        "the pinned table must list every expressible model"
    );
    for (b, (_, expected)) in expressible.iter().zip(REGISTRY_VERDICTS) {
        let model = b.parsed_model().unwrap().unwrap();
        let guide = b.parsed_guide().unwrap().unwrap();
        let executor = JointExecutor::new(&model, &guide, b.observations.clone());
        // VI guides take their variational parameters, the outlier MCMC
        // guide the previous `is_outlier` value.
        let guide_args = if b.name == "outlier" {
            vec![Value::Bool(false)]
        } else {
            b.initial_guide_args()
                .into_iter()
                .map(Value::Real)
                .collect()
        };
        let spec = JointSpec::new(b.model_proc, b.guide_proc).with_guide_args(guide_args);
        let master = Pcg32::seed_from_u64(0x5EED);
        let mut scratch = JointScratch::new();
        assert_eq!(scratch.plan_verdict(), None, "{}: no block ran yet", b.name);
        let mut out = Vec::with_capacity(BLOCK);
        for first in (0..PARTICLES).step_by(BLOCK) {
            let len = BLOCK.min(PARTICLES - first);
            executor
                .run_block_with_scratch(&spec, &master, first as u64, len, &mut scratch, &mut out)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            for r in out.drain(..) {
                scratch.recycle(r.latent);
            }
        }
        assert_eq!(scratch.plan_verdict(), Some(expected), "{}", b.name);
        // Plans grow with the program's paths, not with recursion depth.
        let planned = scratch.planned_arms().expect("vectorised");
        assert!(planned <= 16, "{}: {planned} planned arms", b.name);
        // Every block ran vectorised: a per-lane expression outside the
        // lane-program fragment would have given up on the plan.
        let counts = scratch.take_counts();
        assert_eq!(counts.scalar_lanes, 0, "{}: scalar lanes", b.name);
    }
}

#[test]
fn recursive_block_runs_match_the_reference_semantics() {
    // Every lane's recorded latent trace, re-scored by the big-step
    // evaluator: the model consumes it and provides the observations, the
    // guide provides it.  Both log-weights and the model's value must agree
    // with the block run to a relative 1e-12 (they are sums of the same
    // terms, possibly associated differently).
    const PARTICLES: usize = 2_000;
    const BLOCK: usize = 64;
    let close = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    for name in ["geometric", "marsaglia", "ptrace", "ex-2", "gp-dsl"] {
        let b = all_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .expect("registry model");
        let model = b.parsed_model().unwrap().unwrap();
        let guide = b.parsed_guide().unwrap().unwrap();
        let executor = JointExecutor::new(&model, &guide, b.observations.clone());
        let spec = JointSpec::new(b.model_proc, b.guide_proc);
        let master = Pcg32::seed_from_u64(0x5E_4A);
        let (mut scratch, mut lanes) = (JointScratch::new(), Vec::with_capacity(PARTICLES));
        for first in (0..PARTICLES).step_by(BLOCK) {
            let len = BLOCK.min(PARTICLES - first);
            executor
                .run_block_with_scratch(&spec, &master, first as u64, len, &mut scratch, &mut lanes)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert_eq!(scratch.plan_verdict(), Some(Ok(())), "{name} vectorises");
        let (model_eval, guide_eval) = (Evaluator::new(&model), Evaluator::new(&guide));
        let obs = Trace::from_messages(b.observations.iter().map(|&o| Message::ValP(o)).collect());
        for (i, r) in lanes.iter().enumerate() {
            let m = model_eval
                .run_proc(&b.model_proc.into(), &[], &r.latent, &obs)
                .unwrap_or_else(|e| panic!("{name} lane {i}: model: {e}"));
            let g = guide_eval
                .run_proc(&b.guide_proc.into(), &[], &Trace::new(), &r.latent)
                .unwrap_or_else(|e| panic!("{name} lane {i}: guide: {e}"));
            assert!(
                close(m.log_weight, r.log_model),
                "{name} lane {i}: log_model {} vs reference {}",
                r.log_model,
                m.log_weight
            );
            assert!(
                close(g.log_weight, r.log_guide),
                "{name} lane {i}: log_guide {} vs reference {}",
                r.log_guide,
                g.log_weight
            );
            match (&m.value, &r.model_value) {
                (Value::Real(a), Value::Real(b)) => {
                    assert!(close(*a, *b), "{name} lane {i}: value {b} vs reference {a}")
                }
                (a, b) => assert_eq!(a, b, "{name} lane {i}: model value"),
            }
        }
    }
}
