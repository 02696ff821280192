//! End-to-end amortized inference at the core layer: a VI fit is
//! checkpointed as a content-addressed [`Artifact`], and a warm query
//! rebuilt from that artifact reproduces the fresh fit-then-draw result
//! bit-for-bit while running **zero** fit iterations.  The counts come
//! from a ledger the test owns: a [`CancelToken`] passed to the query
//! through [`QueryBuilder::cancel`](guide_ppl::QueryBuilder::cancel).

use guide_ppl::runtime::CancelToken;
use guide_ppl::{sample_to_artifact_obs, Method, Posterior, PosteriorResult, Session};
use ppl_dist::Sample;
use ppl_inference::{ParamSpec, ViConfig};
use ppl_store::{compute_id, Artifact, FitConfig, FitParam, Store, ARTIFACT_FORMAT_VERSION};

const SEED: u64 = 11;
const DRAWS: usize = 300;

fn weight_specs() -> Vec<ParamSpec> {
    let b = ppl_models::benchmark("weight").unwrap();
    b.guide_params
        .iter()
        .map(|p| {
            if p.positive {
                ParamSpec::positive(p.name, p.init)
            } else {
                ParamSpec::unconstrained(p.name, p.init)
            }
        })
        .collect()
}

fn vi_config() -> ViConfig {
    ViConfig {
        iterations: 40,
        samples_per_iteration: 5,
        learning_rate: 0.08,
        ..ViConfig::default()
    }
}

/// Renders the posterior to comparable bytes: every draw, every weight,
/// every diagnostic, formatted with shortest-round-trip floats so any
/// bit-level difference shows.
fn posterior_bytes(posterior: &PosteriorResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let vi = posterior.as_vi().expect("VI posterior");
    for (name, value) in posterior.diagnostics() {
        let _ = writeln!(out, "{name}={value:?}");
    }
    for (i, p) in vi.fit.params.iter().enumerate() {
        let _ = writeln!(out, "param[{i}]={p:?}");
    }
    posterior.for_each_draw(&mut |draw| {
        let _ = write!(out, "w={:?}:v={:?}:", draw.weight, draw.value);
        for sample in draw.samples {
            let _ = write!(out, "{sample:?},");
        }
        out.push('\n');
    });
    out
}

#[test]
fn warm_artifact_query_is_bit_identical_and_runs_zero_fit_executions() {
    let session = Session::from_benchmark("weight").unwrap();
    let observations = vec![Sample::Real(9.0), Sample::Real(9.0)];
    let specs = weight_specs();
    let config = vi_config();

    // Fresh path: one Method::Vi run (fit + draw from one seeded RNG).
    let fresh = session
        .query()
        .observe(observations.clone())
        .seed(SEED)
        .run(&Method::Vi {
            params: specs.clone(),
            config: config.clone(),
            draw_particles: Some(DRAWS),
        })
        .unwrap();

    // Checkpoint path: fit once, persist the artifact, reload it from
    // disk, rebuild the query from the artifact, draw warm.
    let fit_ledger = CancelToken::new();
    let query = session
        .query()
        .observe(observations.clone())
        .seed(SEED)
        .cancel(fit_ledger.clone())
        .build()
        .unwrap();
    let fit = query.fit_vi(&specs, &config).unwrap();
    let fit_executions = (config.iterations * config.samples_per_iteration) as u64;
    assert_eq!(fit_ledger.vi_fit_executions(), fit_executions);
    assert_eq!(fit_ledger.joint_executions(), fit_executions);

    let schema: Vec<FitParam> = specs
        .iter()
        .map(|p| FitParam {
            name: p.name.clone(),
            init: p.init,
            positive: p.positive,
        })
        .collect();
    let fit_config = FitConfig {
        iterations: config.iterations,
        samples_per_iteration: config.samples_per_iteration,
        learning_rate: config.learning_rate,
        fd_epsilon: config.fd_epsilon,
    };
    let obs_lits: Vec<_> = observations.iter().map(sample_to_artifact_obs).collect();
    let model_id = "m-testmodel0000000".to_string();
    let id = compute_id(&model_id, &obs_lits, &[], &schema, &fit_config, SEED);
    let trace_len = fit.result.elbo_trace.len();
    let tail_len = (trace_len / 10).max(1);
    let artifact = Artifact {
        version: ARTIFACT_FORMAT_VERSION,
        id: id.clone(),
        model_id,
        seed: SEED,
        observations: obs_lits,
        model_args: vec![],
        schema: schema.clone(),
        config: fit_config.clone(),
        params: fit.result.params.clone(),
        fit_iterations: trace_len as u64,
        elbo_tail: fit.result.elbo_trace[trace_len - tail_len..].to_vec(),
        rng_state: fit.rng_state,
        rng_inc: fit.rng_inc,
    };

    // The id is a pure function of the fit inputs: recomputing it from
    // the artifact's own fields reproduces it (same-fit ⇒ same-id).
    assert_eq!(
        compute_id(
            &artifact.model_id,
            &artifact.observations,
            &artifact.model_args,
            &artifact.schema,
            &artifact.config,
            artifact.seed,
        ),
        id
    );

    // Round-trip through a persistent store, as a restart would.
    let dir = std::env::temp_dir().join(format!("ppl-amortized-test-{}", std::process::id()));
    let store = Store::open(&dir, 4).unwrap();
    let (stored_id, created) = store.put(artifact).unwrap();
    assert!(created);
    drop(store);
    let reopened = Store::open(&dir, 4).unwrap();
    assert_eq!(reopened.skipped_at_boot(), 0);
    let loaded = reopened.get(&stored_id).expect("artifact survives restart");
    std::fs::remove_dir_all(&dir).ok();

    // Warm path: rebuild the query from the artifact and draw — reading
    // the query's own ledger to prove the fit never ran.
    let warm_ledger = CancelToken::new();
    let warm_query = session
        .query()
        .cancel(warm_ledger.clone())
        .vi_from_artifact(&loaded)
        .unwrap();
    let warm = warm_query.run_vi_warm(&loaded, Some(DRAWS)).unwrap();
    assert_eq!(
        warm_ledger.vi_fit_executions(),
        0,
        "warm query must schedule zero VI fit executions"
    );
    assert_eq!(
        warm_ledger.joint_executions(),
        DRAWS as u64,
        "warm query schedules only the draw pass"
    );

    assert_eq!(
        posterior_bytes(&warm),
        posterior_bytes(&fresh),
        "warm artifact query must be bit-identical to the fresh fit"
    );

    // The artifact rejects mismatched guides: a schema of the wrong arity
    // fails GuideArity validation instead of producing garbage.
    let mut wrong = (*loaded).clone();
    wrong.schema.push(FitParam {
        name: "extra".into(),
        init: 0.0,
        positive: false,
    });
    wrong.params.push(0.0);
    assert!(session.query().vi_from_artifact(&wrong).is_err());
}
