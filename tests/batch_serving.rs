//! Batched serving determinism: `Session::run_batch` drives many
//! observation sets through one compiled model and is **bit-identical** to
//! running the queries one by one, at every batch thread count — each
//! query's randomness comes from its own seed, so scheduling cannot leak
//! into results.

use guide_ppl::inference::{ParamSpec, ViConfig};
use guide_ppl::{Method, Posterior, Query, Session, SessionError};
use ppl_dist::Sample;

/// FNV-1a over every number a posterior exposes: each draw's weight,
/// value and samples, the ESS, the evidence estimate and the labelled
/// diagnostics.
fn fingerprint<P: Posterior + ?Sized>(posterior: &P) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    posterior.for_each_draw(&mut |draw| {
        word(draw.weight.to_bits());
        word(draw.value.map_or(u64::MAX, f64::to_bits));
        word(draw.samples.len() as u64);
        for s in draw.samples {
            word(s.as_f64().to_bits());
        }
    });
    word(posterior.ess().to_bits());
    word(posterior.log_evidence().map_or(u64::MAX, f64::to_bits));
    for (_, value) in posterior.diagnostics() {
        word(value.to_bits());
    }
    h
}

fn queries(session: &Session) -> Vec<Query> {
    // Five observation sets with distinct seeds — a request batch.
    [0.2, 0.5, 1.0, 1.5, 2.5]
        .iter()
        .enumerate()
        .map(|(i, &y)| {
            session
                .query()
                .observe(vec![Sample::Real(y)])
                .seed(1_000 + i as u64)
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn batched_importance_sampling_is_bit_identical_to_individual_runs() {
    let session = Session::from_benchmark("normal-normal").unwrap();
    let queries = queries(&session);
    let method = Method::Importance { particles: 400 };
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| fingerprint(&q.run(&method).unwrap()))
        .collect();
    for threads in [1usize, 4] {
        let batch = session
            .run_batch_threaded(&queries, &method, threads)
            .unwrap();
        assert_eq!(batch.len(), queries.len());
        let got: Vec<u64> = batch.iter().map(fingerprint).collect();
        assert_eq!(got, expected, "batch_threads = {threads}");
    }
    // The default entry point is the single-threaded batch.
    let batch = session.run_batch(&queries, &method).unwrap();
    let got: Vec<u64> = batch.iter().map(fingerprint).collect();
    assert_eq!(got, expected);
}

#[test]
fn batched_mh_and_vi_are_bit_identical_too() {
    let session = Session::from_benchmark("normal-normal").unwrap();
    let queries = queries(&session);
    let mh = Method::Mh {
        iterations: 500,
        burn_in: 100,
    };
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| fingerprint(&q.run(&mh).unwrap()))
        .collect();
    let batch = session.run_batch_threaded(&queries, &mh, 4).unwrap();
    assert_eq!(batch.iter().map(fingerprint).collect::<Vec<_>>(), expected);

    let session = Session::from_benchmark("weight").unwrap();
    let b = ppl_models::benchmark("weight").unwrap();
    let vi_queries: Vec<Query> = (0..4)
        .map(|i| {
            session
                .query()
                .observe(b.observations.clone())
                .seed(7 + i)
                .build()
                .unwrap()
        })
        .collect();
    let vi = Method::Vi {
        params: vec![
            ParamSpec::unconstrained("mu", 2.0),
            ParamSpec::positive("sigma", 1.0),
        ],
        config: ViConfig {
            iterations: 15,
            samples_per_iteration: 6,
            ..ViConfig::default()
        },
        draw_particles: Some(200),
    };
    let expected: Vec<u64> = vi_queries
        .iter()
        .map(|q| fingerprint(&q.run(&vi).unwrap()))
        .collect();
    let batch = session.run_batch_threaded(&vi_queries, &vi, 3).unwrap();
    assert_eq!(batch.iter().map(fingerprint).collect::<Vec<_>>(), expected);
}

#[test]
fn inner_engine_threads_compose_with_batch_threads() {
    // Each query may itself run its particle loop in parallel; both levels
    // are substream-seeded, so nothing drifts.
    let session = Session::from_benchmark("normal-normal").unwrap();
    let method = Method::Importance { particles: 300 };
    let build = |threads: usize| -> Vec<Query> {
        [0.3, 0.9, 1.7, 2.1]
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                session
                    .query()
                    .observe(vec![Sample::Real(y)])
                    .seed(50 + i as u64)
                    .threads(threads)
                    .build()
                    .unwrap()
            })
            .collect()
    };
    let sequential: Vec<u64> = session
        .run_batch(&build(1), &method)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    let nested: Vec<u64> = session
        .run_batch_threaded(&build(2), &method, 2)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(sequential, nested);
}

#[test]
fn the_lowest_index_failure_wins_at_every_thread_count() {
    let session = Session::from_benchmark("normal-normal").unwrap();
    let good = |seed: u64| {
        session
            .query()
            .observe(vec![Sample::Real(1.0)])
            .seed(seed)
            .build()
            .unwrap()
    };
    // Queries 1 and 3 fail method validation (guide takes no arguments).
    let bad = || {
        session
            .query()
            .observe(vec![Sample::Real(1.0)])
            .guide_args(vec![guide_ppl::semantics::Value::Real(0.0)])
            .build()
            .unwrap()
    };
    let queries = vec![good(1), bad(), good(2), bad()];
    let method = Method::Importance { particles: 50 };
    let mut errors = Vec::new();
    for threads in [1usize, 4] {
        let err = session
            .run_batch_threaded(&queries, &method, threads)
            .unwrap_err();
        assert!(matches!(err, SessionError::Query(_)), "{err:?}");
        errors.push(err.to_string());
    }
    assert_eq!(errors[0], errors[1], "winning error depends on threads");
}

#[test]
fn batch_results_stay_interchangeable_behind_the_posterior_trait() {
    let session = Session::from_benchmark("normal-normal").unwrap();
    let queries = queries(&session);
    let batch = session
        .run_batch(&queries, &Method::Importance { particles: 2_000 })
        .unwrap();
    // Posterior means shift monotonically with the observation (conjugate
    // normal-normal: E[x | y] = y / 2).
    let means: Vec<f64> = batch.iter().map(|p| p.mean_of_sample(0).unwrap()).collect();
    for pair in means.windows(2) {
        assert!(pair[0] < pair[1] + 0.1, "means not increasing: {means:?}");
    }
    for (p, y) in batch.iter().zip([0.2, 0.5, 1.0, 1.5, 2.5]) {
        let mean = p.mean_of_sample(0).unwrap();
        assert!(
            (mean - y / 2.0).abs() < 0.15,
            "observation {y}: mean {mean}"
        );
    }
}
