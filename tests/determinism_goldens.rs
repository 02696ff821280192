//! Determinism of the zero-copy execution core.
//!
//! Two properties, checked over **every expressible registry benchmark**:
//!
//! 1. *Thread independence*: the parallel particle driver produces
//!    bit-identical latent traces, per-particle log-weights, and engine
//!    outputs (`log_evidence`, `ess`) at `num_threads = 1` and
//!    `num_threads = 4`, because particle `i` always draws from RNG
//!    substream `i` regardless of scheduling.
//! 2. *Goldens*: joint-execution values (`log_guide`, `log_model`, the
//!    latent trace) and importance-sampling outputs under fixed seeds match
//!    fingerprints recorded when the zero-copy core landed, so silent
//!    behaviour drift in the interpreter, the scope-chain environments, the
//!    replay cursors, or the RNG substream scheme fails loudly.
//!
//! If an *intentional* semantic change shifts the goldens, regenerate the
//! table with:
//!
//! ```text
//! PPL_PRINT_GOLDENS=1 cargo test --test determinism_goldens -- --nocapture
//! ```
//!
//! and paste the printed rows over `GOLDENS` below.

use guide_ppl::inference::ImportanceSampler;
use guide_ppl::runtime::{JointExecutor, JointScratch, JointSpec, LatentSource};
use guide_ppl::semantics::{Message, Trace, Value};
use ppl_dist::rng::Pcg32;
use ppl_models::{all_benchmarks, Benchmark};

const SEED: u64 = 0xD0_0DAD;
const PARTICLES: usize = 300;

/// Initial guide arguments for a benchmark's joint spec: VI guides take
/// their variational parameters, the outlier MCMC guide takes the previous
/// `is_outlier` value.
fn guide_args(b: &Benchmark) -> Vec<Value> {
    if b.name == "outlier" {
        return vec![Value::Bool(false)];
    }
    b.initial_guide_args()
        .into_iter()
        .map(Value::Real)
        .collect()
}

fn spec_of(b: &Benchmark) -> JointSpec {
    JointSpec::new(b.model_proc, b.guide_proc).with_guide_args(guide_args(b))
}

fn executor_of(b: &Benchmark) -> JointExecutor {
    let model = b.parsed_model().unwrap().unwrap();
    let guide = b.parsed_guide().unwrap().unwrap();
    JointExecutor::new(&model, &guide, b.observations.clone())
}

/// FNV-1a over a stream of 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn trace(&mut self, t: &Trace) {
        for m in t.messages() {
            match m {
                Message::ValP(v) => {
                    self.word(1);
                    self.f64(v.as_f64());
                }
                Message::ValC(v) => {
                    self.word(2);
                    self.f64(v.as_f64());
                }
                Message::DirP(b) => self.word(3 | (*b as u64) << 8),
                Message::DirC(b) => self.word(4 | (*b as u64) << 8),
                Message::Fold => self.word(5),
            }
        }
    }
}

/// One benchmark's golden record: a fingerprint of a single joint
/// execution (latent trace + `log_guide` + `log_model` bits) and a
/// fingerprint of the full importance-sampling run (every particle's latent
/// trace and log-weight, plus `log_evidence` and `ess` bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    name: &'static str,
    joint_fp: u64,
    is_fp: u64,
}

fn compute_joint_fp(b: &Benchmark) -> u64 {
    let executor = executor_of(b);
    let spec = spec_of(b);
    let mut rng = Pcg32::seed_from_u64(SEED).split(0);
    let joint = executor
        .run(&spec, LatentSource::FromGuide, &mut rng)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let mut fp = Fingerprint::new();
    fp.trace(&joint.latent);
    fp.f64(joint.log_guide);
    fp.f64(joint.log_model);
    // The replay path must reproduce the weights bit-for-bit from the
    // recorded trace alone.
    let replay = executor
        .run(&spec, LatentSource::Replay(&joint.latent), &mut rng)
        .unwrap_or_else(|e| panic!("{}: replay: {e}", b.name));
    assert_eq!(
        replay.log_guide.to_bits(),
        joint.log_guide.to_bits(),
        "{}: replayed log_guide differs",
        b.name
    );
    assert_eq!(
        replay.log_model.to_bits(),
        joint.log_model.to_bits(),
        "{}: replayed log_model differs",
        b.name
    );
    fp.0
}

fn compute_is_fp(b: &Benchmark, num_threads: usize) -> u64 {
    compute_is_fp_block(b, num_threads, guide_ppl::inference::DEFAULT_BLOCK)
}

fn compute_is_fp_block(b: &Benchmark, num_threads: usize, block: usize) -> u64 {
    let executor = executor_of(b);
    let spec = spec_of(b);
    let mut rng = Pcg32::seed_from_u64(SEED);
    let result = ImportanceSampler::new(PARTICLES)
        .with_threads(num_threads)
        .with_block(block)
        .run(&executor, &spec, &mut rng)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    // The result keeps weights and samples, not traces: take particle
    // `i`'s trace from the block executor on the engine's substream
    // `master.split(i)`, and check the result against it bit for bit.
    let master = Pcg32::seed_from_u64(SEED);
    let mut scratch = JointScratch::new();
    let mut lanes = Vec::with_capacity(PARTICLES);
    for first in (0..PARTICLES).step_by(block) {
        let len = block.min(PARTICLES - first);
        executor
            .run_block_with_scratch(&spec, &master, first as u64, len, &mut scratch, &mut lanes)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }
    assert_eq!(result.particles.len(), lanes.len(), "{}", b.name);
    let mut fp = Fingerprint::new();
    for (i, lane) in lanes.iter().enumerate() {
        let log_weight = result.particles.log_weights()[i];
        assert_eq!(
            log_weight.to_bits(),
            lane.log_importance_weight().to_bits(),
            "{}: particle {i} log-weight differs from its lane",
            b.name
        );
        assert_eq!(
            result.particles.samples(i),
            lane.latent_samples(),
            "{}: particle {i} samples differ from its lane",
            b.name
        );
        fp.trace(&lane.latent);
        fp.f64(log_weight);
    }
    fp.f64(result.log_evidence);
    fp.f64(result.ess);
    fp.0
}

fn expressible() -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.expressible)
        .collect()
}

#[test]
fn thread_count_never_changes_results() {
    for b in expressible() {
        let executor = executor_of(&b);
        let spec = spec_of(&b);
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let mut rng = Pcg32::seed_from_u64(SEED);
            runs.push(
                ImportanceSampler::new(PARTICLES)
                    .with_threads(threads)
                    .run(&executor, &spec, &mut rng)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name)),
            );
        }
        let (seq, par) = (&runs[0], &runs[1]);
        assert_eq!(
            seq.log_evidence.to_bits(),
            par.log_evidence.to_bits(),
            "{}: log_evidence drifted across thread counts",
            b.name
        );
        assert_eq!(seq.ess.to_bits(), par.ess.to_bits(), "{}", b.name);
        assert_eq!(seq.particles.len(), par.particles.len(), "{}", b.name);
        for (i, (a, c)) in seq
            .particles
            .log_weights()
            .iter()
            .zip(par.particles.log_weights())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                c.to_bits(),
                "{}: particle {i} log-weight drifted",
                b.name
            );
            assert_eq!(
                seq.particles.samples(i),
                par.particles.samples(i),
                "{}: particle {i} samples drifted",
                b.name
            );
        }
    }
}

#[test]
fn block_size_never_changes_results() {
    // The vectorised block executor is a pure performance knob: at every
    // block size × thread count the IS fingerprint (all particle traces,
    // all log-weights, log_evidence, ess) equals the scalar single-thread
    // reference, for every expressible benchmark.
    for b in expressible() {
        let scalar = compute_is_fp_block(&b, 1, 1);
        for block in [7usize, 64, 256] {
            for threads in [1usize, 4] {
                assert_eq!(
                    compute_is_fp_block(&b, threads, block),
                    scalar,
                    "{}: IS fingerprint drifted at block {block}, {threads} threads",
                    b.name
                );
            }
        }
    }
}

#[test]
fn goldens_match() {
    let print_mode = std::env::var_os("PPL_PRINT_GOLDENS").is_some();
    let mut computed = Vec::new();
    for b in expressible() {
        let joint_fp = compute_joint_fp(&b);
        let is_fp_1 = compute_is_fp(&b, 1);
        let is_fp_4 = compute_is_fp(&b, 4);
        assert_eq!(
            is_fp_1, is_fp_4,
            "{}: IS fingerprint drifted across thread counts",
            b.name
        );
        computed.push((b.name, joint_fp, is_fp_1));
    }
    if print_mode {
        println!("const GOLDENS: &[Golden] = &[");
        for (name, joint_fp, is_fp) in &computed {
            println!(
                "    Golden {{ name: \"{name}\", joint_fp: {joint_fp:#018x}, is_fp: {is_fp:#018x} }},"
            );
        }
        println!("];");
        return;
    }
    assert_eq!(
        computed.len(),
        GOLDENS.len(),
        "benchmark registry changed; regenerate the goldens table"
    );
    for ((name, joint_fp, is_fp), golden) in computed.iter().zip(GOLDENS) {
        assert_eq!(*name, golden.name, "registry order changed");
        assert_eq!(
            *joint_fp, golden.joint_fp,
            "{name}: joint-execution golden drifted (latent trace / log_guide / log_model)"
        );
        assert_eq!(
            *is_fp, golden.is_fp,
            "{name}: importance-sampling golden drifted (particles / log_evidence / ess)"
        );
    }
}

const GOLDENS: &[Golden] = &[
    Golden {
        name: "lr",
        joint_fp: 0x833e19611633de59,
        is_fp: 0x3c7c069ac00e4a11,
    },
    Golden {
        name: "gmm",
        joint_fp: 0x67339b51830c4018,
        is_fp: 0xccf29afb88481225,
    },
    Golden {
        name: "kalman",
        joint_fp: 0x6635dbbecde53716,
        is_fp: 0x27b04fc3335a9579,
    },
    Golden {
        name: "sprinkler",
        joint_fp: 0x05c872098f5c13f0,
        is_fp: 0xfb0f3522f39c264a,
    },
    Golden {
        name: "hmm",
        joint_fp: 0x0245855268cb8da1,
        is_fp: 0x81fd78d59c925643,
    },
    Golden {
        name: "branching",
        joint_fp: 0x5d61179423faf800,
        is_fp: 0x982473af6720d7be,
    },
    Golden {
        name: "marsaglia",
        joint_fp: 0xcbabf395cfe5e084,
        is_fp: 0x04d3819760256f90,
    },
    Golden {
        name: "ptrace",
        joint_fp: 0x48303aded9c8dd13,
        is_fp: 0x6f46166a4155298f,
    },
    Golden {
        name: "aircraft",
        joint_fp: 0x0e98972ee37e20ae,
        is_fp: 0x901ab52d3df7d968,
    },
    Golden {
        name: "weight",
        joint_fp: 0x99b1a0d5abe0389e,
        is_fp: 0x4786495ec102ab28,
    },
    Golden {
        name: "vae",
        joint_fp: 0xe8d5985937dea92e,
        is_fp: 0x8792491ea856e262,
    },
    Golden {
        name: "ex-1",
        joint_fp: 0x6c42e679fcc21897,
        is_fp: 0xc8fd189de148d92c,
    },
    Golden {
        name: "ex-2",
        joint_fp: 0x1f04c6744f9f51f8,
        is_fp: 0x724757b57550e99a,
    },
    Golden {
        name: "gp-dsl",
        joint_fp: 0x280352ba31055827,
        is_fp: 0xe3dd4d7b347d19e8,
    },
    Golden {
        name: "outlier",
        joint_fp: 0x4f3337da862a0a9d,
        is_fp: 0xecc9d74776329582,
    },
    Golden {
        name: "normal-normal",
        joint_fp: 0xc1d9d01f423937de,
        is_fp: 0x92fe41febb8f119d,
    },
    Golden {
        name: "geometric",
        joint_fp: 0x819be95807b125ba,
        is_fp: 0xfdf0650bbc2c4d4e,
    },
    Golden {
        name: "burglary",
        joint_fp: 0x77f05c4669ba2e07,
        is_fp: 0xdf0ffca307ae9533,
    },
    Golden {
        name: "coin",
        joint_fp: 0xe05e98e6c6ff1e49,
        is_fp: 0x545ca91bd21cc198,
    },
    Golden {
        name: "seasons",
        joint_fp: 0x0f5799a14890ed2a,
        is_fp: 0xceaec502fcc7eff0,
    },
];
