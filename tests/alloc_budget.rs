//! The allocation budget of the particle hot loop.
//!
//! The compiled-program / interned-symbol / scratch-pool refactor promises
//! that the *steady state* of the particle loop — re-running a joint
//! model–guide execution through a warmed [`JointScratch`] and recycling
//! the recorded trace — performs **zero heap allocations per particle**.
//! This test makes that property executable so it cannot silently regress:
//! a counting global allocator measures 1 000 post-warm-up particles of
//! `ex-1` and `gmm` (and, for the replay path, 1 000 MCMC-style re-scores)
//! and asserts the count stays at zero.
//!
//! The allocator is the same [`ppl_bench::alloc_track`] instrumentation
//! the `ppl-bench` binary uses for its `allocs_per_particle` column.
//! Measurements delta the **per-thread** counter, so neither parallel
//! sibling tests nor libtest's own main thread (which lazily allocates
//! channel-parking state at an arbitrary point mid-run) can leak
//! allocations into a measured window.
//!
//! End to end, a whole [`ImportanceSampler::run`] must allocate a constant
//! number of buffers however many particles it draws: its result is a
//! handful of columns, and every lane's trace buffer is recycled into the
//! next block.  The budget compares a 20 000-particle run with a
//! 2 000-particle run on the same model, so per-run set-up (scratch pools,
//! the block plan) cancels out and any per-particle allocation shows up
//! 18 000 times over.
//!
//! The measured loops also enter a flight-recorder [`Span`] per
//! iteration, exactly as the serving path does around inference.  With
//! no active trace on the thread (the production default for every
//! worker until a request opts in) the span must be **inert**: no clock
//! read and, what this suite proves, no allocation — so leaving tracing
//! compiled into the hot path costs nothing when it is off.

use guide_ppl::inference::ImportanceSampler;
use guide_ppl::runtime::{JointExecutor, JointScratch, JointSpec, LatentSource};
use guide_ppl::Session;
use ppl_bench::alloc_track::{thread_allocations, CountingAlloc};
use ppl_dist::rng::Pcg32;
use ppl_obs::{Phase, Span};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Builds the executor + spec for a registry benchmark.
fn harness(name: &str) -> (JointExecutor, JointSpec) {
    let session = Session::from_benchmark(name).expect("registered benchmark");
    let b = ppl_models::benchmark(name).expect("registered benchmark");
    let executor = session.executor(b.observations.clone());
    let spec = session.spec();
    (executor, spec)
}

/// Runs `count` fresh-sample particles through one scratch, recycling every
/// trace, and returns the number of allocations the batch performed on
/// this thread.
fn run_batch(
    executor: &JointExecutor,
    spec: &JointSpec,
    rng: &mut Pcg32,
    scratch: &mut JointScratch,
    count: usize,
) -> u64 {
    let before = thread_allocations();
    let mut acc = 0.0f64;
    for _ in 0..count {
        // Mirrors the serving path, which brackets inference in a span;
        // with no active trace the guard must not allocate.
        let span = Span::enter(Phase::InferDraw);
        assert!(!span.is_armed(), "no trace is active in this test");
        let joint = executor
            .run_with_scratch(spec, LatentSource::FromGuide, rng, scratch)
            .expect("joint execution");
        acc += joint.log_importance_weight();
        scratch.recycle(joint.latent);
    }
    assert!(!acc.is_nan(), "weights must stay well-defined");
    thread_allocations() - before
}

fn assert_zero_steady_state_allocations(name: &str) {
    let (executor, spec) = harness(name);
    let mut rng = Pcg32::seed_from_u64(0xA110C);
    let mut scratch = JointScratch::new();
    // Warm-up: grow the coroutine stacks and the trace buffer to the
    // program's working size (and fault in any lazily initialised runtime
    // state).  Randomised control flow means later particles can need
    // deeper buffers than the first, so warm up across many executions.
    run_batch(&executor, &spec, &mut rng, &mut scratch, 200);
    // Steady state: 1 000 particles, zero allocations.
    let allocs = run_batch(&executor, &spec, &mut rng, &mut scratch, 1_000);
    assert_eq!(
        allocs, 0,
        "{name}: steady-state particles allocated ({allocs} allocations / 1000 particles)"
    );
}

/// Runs `blocks` lockstep blocks of `block` lanes through one scratch,
/// recycling every trace and reusing the result buffer, and returns the
/// number of allocations the batch performed on this thread.
#[allow(clippy::too_many_arguments)] // explicit loop state keeps the measured window allocation-free
fn run_block_batch(
    executor: &JointExecutor,
    spec: &JointSpec,
    master: &Pcg32,
    stream: &mut u64,
    scratch: &mut JointScratch,
    results: &mut Vec<guide_ppl::runtime::JointResult>,
    block: usize,
    blocks: usize,
) -> u64 {
    let before = thread_allocations();
    let mut acc = 0.0f64;
    for _ in 0..blocks {
        let _span = Span::enter(Phase::InferDraw);
        results.clear();
        executor
            .run_block_with_scratch(spec, master, *stream, block, scratch, results)
            .expect("block execution");
        *stream += block as u64;
        for joint in results.drain(..) {
            acc += joint.log_importance_weight();
            scratch.recycle(joint.latent);
        }
    }
    assert!(!acc.is_nan(), "weights must stay well-defined");
    thread_allocations() - before
}

fn assert_zero_steady_state_block_allocations(name: &str, block: usize) {
    let (executor, spec) = harness(name);
    let master = Pcg32::seed_from_u64(0xB10C);
    let mut stream = 0u64;
    let mut scratch = JointScratch::new();
    let mut results = Vec::new();
    // Warm-up: grow the lane buffers, plan cache, and trace pools to the
    // program's working size across enough blocks to see the deepest
    // randomised control-flow paths.
    run_block_batch(
        &executor,
        &spec,
        &master,
        &mut stream,
        &mut scratch,
        &mut results,
        block,
        8,
    );
    // Steady state: ≥1 000 particles' worth of blocks, zero allocations.
    let blocks = 1_000usize.div_ceil(block);
    let allocs = run_block_batch(
        &executor,
        &spec,
        &master,
        &mut stream,
        &mut scratch,
        &mut results,
        block,
        blocks,
    );
    assert_eq!(
        allocs,
        0,
        "{name}: steady-state block-{block} execution allocated ({allocs} allocations / {} particles)",
        blocks * block
    );
}

#[test]
fn ex1_steady_state_is_allocation_free() {
    assert_zero_steady_state_allocations("ex-1");
}

#[test]
fn gmm_steady_state_is_allocation_free() {
    assert_zero_steady_state_allocations("gmm");
}

#[test]
fn ex1_block_steady_state_is_allocation_free() {
    assert_zero_steady_state_block_allocations("ex-1", 64);
}

#[test]
fn gmm_block_steady_state_is_allocation_free() {
    assert_zero_steady_state_block_allocations("gmm", 64);
}

/// Allocations this thread makes in one single-threaded, block-64
/// importance-sampling run of `particles` particles, result included.
fn importance_run_allocations(executor: &JointExecutor, spec: &JointSpec, particles: usize) -> u64 {
    let mut rng = Pcg32::seed_from_u64(0x15_A110C);
    let sampler = ImportanceSampler::new(particles)
        .with_threads(1)
        .with_block(64);
    let before = thread_allocations();
    let result = sampler
        .run(executor, spec, &mut rng)
        .expect("importance sampling");
    let allocs = thread_allocations() - before;
    assert_eq!(result.particles.len(), particles);
    allocs
}

fn assert_importance_run_allocations_are_per_run(name: &str) {
    let (executor, spec) = harness(name);
    // Fault in any lazily initialised runtime state outside the windows.
    importance_run_allocations(&executor, &spec, 100);
    let small = importance_run_allocations(&executor, &spec, 2_000);
    let large = importance_run_allocations(&executor, &spec, 20_000);
    let extra = large.saturating_sub(small);
    assert!(
        extra <= 16,
        "{name}: 18 000 extra particles cost {extra} extra allocations \
         ({small} for 2 000 particles, {large} for 20 000)"
    );
}

#[test]
fn ex1_importance_run_allocates_per_run_not_per_particle() {
    assert_importance_run_allocations_are_per_run("ex-1");
}

#[test]
fn gmm_importance_run_allocates_per_run_not_per_particle() {
    assert_importance_run_allocations_are_per_run("gmm");
}

#[test]
fn replay_rescoring_is_allocation_free() {
    // The MCMC inner loop: re-score a fixed latent trace by replaying it.
    let (executor, spec) = harness("ex-1");
    let mut rng = Pcg32::seed_from_u64(0xA110C + 1);
    let mut scratch = JointScratch::new();
    let reference = executor
        .run_with_scratch(&spec, LatentSource::FromGuide, &mut rng, &mut scratch)
        .expect("reference execution");
    let mut replay = |count: usize| -> u64 {
        let before = thread_allocations();
        for _ in 0..count {
            let joint = executor
                .run_with_scratch(
                    &spec,
                    LatentSource::Replay(&reference.latent),
                    &mut rng,
                    &mut scratch,
                )
                .expect("replay");
            assert_eq!(joint.log_model.to_bits(), reference.log_model.to_bits());
            scratch.recycle(joint.latent);
        }
        thread_allocations() - before
    };
    replay(50); // warm-up
    let allocs = replay(1_000);
    assert_eq!(
        allocs, 0,
        "replay re-scoring allocated ({allocs} allocations / 1000 replays)"
    );
}

#[test]
fn disarmed_tracing_is_allocation_free() {
    // The two observability entry points that sit on hot paths must be
    // free when dormant: a span on a thread with no active trace, and a
    // log call below the emission threshold (default `info`).  The first
    // span outside the window faults in any thread-local state.
    drop(Span::enter(Phase::InferDraw));
    let before = thread_allocations();
    for i in 0..1_000u64 {
        let span = Span::enter(Phase::InferDraw);
        assert!(!span.is_armed(), "no trace is active on this thread");
        ppl_obs::log::debug(
            "alloc.probe",
            "below-threshold line",
            &[("i", ppl_obs::log::Value::Uint(i))],
        );
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "dormant spans/logs allocated ({allocs} allocations / 1000 iterations)"
    );
}

#[test]
fn counting_allocator_is_live() {
    // Guard against the whole suite becoming vacuous: a heap allocation
    // must move this thread's counter.
    let before = thread_allocations();
    let probe: Vec<u64> = Vec::with_capacity(1024);
    drop(std::hint::black_box(probe));
    assert!(
        thread_allocations() > before,
        "the counting allocator is not installed"
    );
}
