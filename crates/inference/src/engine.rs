//! The particle engine: a deterministic, optionally parallel driver for the
//! independent-execution loops shared by the inference algorithms.
//!
//! Importance sampling draws `N` independent particles; VI draws a
//! mini-batch of independent joint executions per iteration and re-scores
//! each of them independently for the gradient; batched serving answers
//! independent queries.  All are instances of the same shape — "run
//! `count` independent jobs, each with its own RNG, and collect the results
//! in index order" — which [`Engine::run_particle_blocks_with`] implements
//! once, sequentially or over `std::thread` scoped threads, writing into
//! any ordered [`BlockSink`].  [`Engine::run_particles`] and
//! [`Engine::run_particles_with`] are its block-size-one case.
//!
//! # Determinism
//!
//! Job `i` always receives the generator `master.split(i)`, a pure function
//! of the master RNG state and the job index (see
//! [`Pcg32::split`]).  Scheduling therefore cannot influence any job's
//! randomness, and results are **bit-identical for every `num_threads`**,
//! including 1.  Result aggregation also happens in job-index order, so
//! floating-point reductions downstream see the same operand order
//! regardless of which thread finished first.

use ppl_dist::rng::Pcg32;
use ppl_runtime::RunCounts;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An ordered output buffer for the block driver.
///
/// Each worker fills one sink with the results of its contiguous run of
/// blocks, in job-index order; the driver then concatenates the workers'
/// sinks in block order.  `Vec<T>` is the plain one-result-per-job sink;
/// columnar result stores implement it to receive particles without an
/// intermediate per-particle value.
pub trait BlockSink: Send {
    /// An empty sink with room for `jobs` results.
    fn with_capacity(jobs: usize) -> Self;

    /// Moves every result of `later` (which covers the jobs directly after
    /// this sink's) onto the end of this sink, leaving `later` empty.
    fn append(&mut self, later: &mut Self);
}

impl<T: Send> BlockSink for Vec<T> {
    fn with_capacity(jobs: usize) -> Self {
        Vec::with_capacity(jobs)
    }

    fn append(&mut self, later: &mut Self) {
        Vec::append(self, later);
    }
}

/// Per-worker executor counts: workers' sums add up to the run's.
impl BlockSink for RunCounts {
    fn with_capacity(_: usize) -> Self {
        RunCounts::default()
    }

    fn append(&mut self, later: &mut Self) {
        *self += std::mem::take(later);
    }
}

/// Two sinks filled side by side, e.g. results plus their [`RunCounts`].
impl<A: BlockSink, B: BlockSink> BlockSink for (A, B) {
    fn with_capacity(jobs: usize) -> Self {
        (A::with_capacity(jobs), B::with_capacity(jobs))
    }

    fn append(&mut self, later: &mut Self) {
        self.0.append(&mut later.0);
        self.1.append(&mut later.1);
    }
}

/// A deterministic particle driver with a configurable thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    num_threads: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::sequential()
    }
}

impl Engine {
    /// An engine running jobs on `num_threads` worker threads (clamped to at
    /// least one).  `Engine::new(1)` never spawns a thread.
    pub fn new(num_threads: usize) -> Engine {
        Engine {
            num_threads: num_threads.max(1),
        }
    }

    /// The single-threaded engine.
    pub fn sequential() -> Engine {
        Engine::new(1)
    }

    /// The configured number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `count` independent jobs and returns their results in job-index
    /// order.
    ///
    /// Each job receives its index and a private RNG substream derived from
    /// `rng`'s state *before* the call; `rng` itself is advanced once so
    /// that successive `run_particles` calls use fresh substreams.  The
    /// output — including which error is reported when several jobs fail
    /// (the lowest-index one) — is independent of `num_threads`.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing job, if any.
    pub fn run_particles<T, E, F>(&self, count: usize, rng: &mut Pcg32, job: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize, &mut Pcg32) -> Result<T, E> + Sync,
    {
        self.run_particles_with(count, rng, || (), |_, i, sub| job(i, sub))
    }

    /// [`Engine::run_particles`] with *worker-local scratch state*: `init`
    /// builds one `S` per worker (one total when sequential), and every job
    /// a worker runs receives `&mut` access to that worker's state.
    ///
    /// This is how the inference loops keep per-worker
    /// [`JointScratch`](ppl_runtime::JointScratch) pools alive across the
    /// particles of a substream — coroutine stacks and trace buffers are
    /// reused instead of reallocated per particle.  The scratch state must
    /// not influence results (it is working memory, not input), so the
    /// determinism guarantee is unchanged: outputs are bit-identical for
    /// every `num_threads`.
    ///
    /// This is [`Engine::run_particle_blocks_with`] at block size one: job
    /// `i` is the one-lane block starting at `i`, run on `master.split(i)`.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing job, if any.
    pub fn run_particles_with<S, T, E, I, F>(
        &self,
        count: usize,
        rng: &mut Pcg32,
        init: I,
        job: F,
    ) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &mut Pcg32) -> Result<T, E> + Sync,
    {
        self.run_particle_blocks_with(
            count,
            1,
            rng,
            init,
            |state, master, first, _, out: &mut Vec<T>| {
                out.push(job(state, first as usize, &mut master.split(first))?);
                Ok(())
            },
        )
    }

    /// Runs `count` independent jobs in contiguous *blocks* of up to
    /// `block_size`, collecting results in job-index order.
    ///
    /// Each **block** receives the master generator and the index of its
    /// first job; the block callback must give lane `i` of a block starting
    /// at `first` exactly `master.split(first + i)` and append one result
    /// per lane onto the sink `out` in lane order.  Results (and the
    /// reported error, which is the one of the lowest-index failing block)
    /// are then **bit-identical** at every block size and thread count.
    ///
    /// Blocks are the unit of scheduling: each worker thread owns a
    /// contiguous range of blocks, one scratch state built by `init`, and
    /// one sink, so block-local buffers warm up exactly like per-job
    /// scratch and the output is allocated once per worker, not per block.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing block, if any.
    pub fn run_particle_blocks_with<S, O, E, I, F>(
        &self,
        count: usize,
        block_size: usize,
        rng: &mut Pcg32,
        init: I,
        run_block: F,
    ) -> Result<O, E>
    where
        O: BlockSink,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &Pcg32, u64, usize, &mut O) -> Result<(), E> + Sync,
    {
        let master = rng.clone();
        rng.next_u64();
        let block_size = block_size.max(1);
        let num_blocks = count.div_ceil(block_size);
        // Early-abort bookkeeping: once a block fails, blocks at *higher*
        // indices cannot influence the result (the lowest-index error
        // wins) and are skipped.  Blocks below the recorded index still
        // run — one of them may fail with a lower index — so the winning
        // error is exactly the sequential one.
        let lowest_failed = AtomicUsize::new(usize::MAX);
        let run_range = |blocks: Range<usize>| -> Result<O, E> {
            let mut state = init();
            let first_job = blocks.start * block_size;
            let mut out = O::with_capacity((blocks.end * block_size).min(count) - first_job);
            for b in blocks {
                if b > lowest_failed.load(Ordering::Relaxed) {
                    break;
                }
                let first = b * block_size;
                let len = block_size.min(count - first);
                if let Err(e) = run_block(&mut state, &master, first as u64, len, &mut out) {
                    lowest_failed.fetch_min(b, Ordering::Relaxed);
                    return Err(e);
                }
            }
            Ok(out)
        };
        let threads = self.num_threads.min(num_blocks);
        if threads < 2 {
            return run_range(0..num_blocks);
        }
        let per_worker = num_blocks.div_ceil(threads);
        let parts: Vec<Result<O, E>> = std::thread::scope(|scope| {
            let run_range = &run_range;
            let workers: Vec<_> = (0..num_blocks)
                .step_by(per_worker)
                .map(|start| {
                    let blocks = start..(start + per_worker).min(num_blocks);
                    scope.spawn(move || run_range(blocks))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| {
                    w.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        // A worker that skipped blocks did so because a lower block failed,
        // so the first error in worker order is the lowest-index one, and
        // every sink before it is complete.
        let mut out = O::with_capacity(count);
        for part in parts {
            out.append(&mut part?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_and_thread_independent() {
        let job =
            |i: usize, rng: &mut Pcg32| -> Result<(usize, u64), ()> { Ok((i, rng.next_u64())) };
        let mut rng1 = Pcg32::seed_from_u64(7);
        let seq = Engine::new(1).run_particles(37, &mut rng1, job).unwrap();
        for threads in [2, 3, 4, 8, 64] {
            let mut rng_n = Pcg32::seed_from_u64(7);
            let par = Engine::new(threads)
                .run_particles(37, &mut rng_n, job)
                .unwrap();
            assert_eq!(seq, par, "thread count {threads} changed the results");
            // The master RNG is advanced identically.
            assert_eq!(rng1, rng_n);
        }
        assert!(seq.iter().enumerate().all(|(i, (j, _))| i == *j));
    }

    #[test]
    fn successive_calls_use_fresh_substreams() {
        let job = |_: usize, rng: &mut Pcg32| -> Result<u64, ()> { Ok(rng.next_u64()) };
        let mut rng = Pcg32::seed_from_u64(1);
        let engine = Engine::new(4);
        let first = engine.run_particles(8, &mut rng, job).unwrap();
        let second = engine.run_particles(8, &mut rng, job).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn lowest_index_error_wins_regardless_of_threads() {
        let job = |i: usize, _: &mut Pcg32| -> Result<usize, usize> {
            if i % 5 == 3 {
                Err(i)
            } else {
                Ok(i)
            }
        };
        for threads in [1, 4] {
            let mut rng = Pcg32::seed_from_u64(0);
            let err = Engine::new(threads)
                .run_particles(20, &mut rng, job)
                .unwrap_err();
            assert_eq!(err, 3, "threads {threads}");
        }
    }

    #[test]
    fn worker_state_is_reused_within_a_worker_and_never_changes_results() {
        // The state counts how many jobs its worker has run; results must
        // not depend on it, but the counter proves reuse happened.
        let job = |state: &mut usize, i: usize, rng: &mut Pcg32| -> Result<(usize, u64), ()> {
            *state += 1;
            Ok((i, rng.next_u64()))
        };
        let mut rng1 = Pcg32::seed_from_u64(11);
        let seq = Engine::new(1)
            .run_particles_with(24, &mut rng1, || 0usize, job)
            .unwrap();
        for threads in [2, 4, 8] {
            let mut rng_n = Pcg32::seed_from_u64(11);
            let par = Engine::new(threads)
                .run_particles_with(24, &mut rng_n, || 0usize, job)
                .unwrap();
            assert_eq!(seq, par, "worker state leaked into results");
            assert_eq!(rng1, rng_n);
        }
        // Sequentially, one state serves every job.
        let counter = std::sync::Mutex::new(Vec::new());
        let mut rng = Pcg32::seed_from_u64(0);
        Engine::new(1)
            .run_particles_with(
                5,
                &mut rng,
                || 0usize,
                |state, i, _| -> Result<(), ()> {
                    *state += 1;
                    if i == 4 {
                        counter.lock().unwrap().push(*state);
                    }
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(*counter.lock().unwrap(), vec![5]);
    }

    #[test]
    fn block_driver_matches_per_job_driver_bit_for_bit() {
        let job = |_: &mut (), i: usize, rng: &mut Pcg32| -> Result<(usize, u64), ()> {
            Ok((i, rng.next_u64()))
        };
        let mut rng = Pcg32::seed_from_u64(42);
        let reference = Engine::new(1)
            .run_particles_with(100, &mut rng, || (), job)
            .unwrap();
        let rng_after = rng.clone();
        for block in [1, 3, 7, 64, 256] {
            for threads in [1, 4] {
                let mut rng = Pcg32::seed_from_u64(42);
                let got = Engine::new(threads)
                    .run_particle_blocks_with(
                        100,
                        block,
                        &mut rng,
                        || (),
                        |_, master, first, len, out: &mut Vec<_>| -> Result<(), ()> {
                            for i in 0..len {
                                let idx = first as usize + i;
                                let mut sub = master.split(first + i as u64);
                                out.push((idx, sub.next_u64()));
                            }
                            Ok(())
                        },
                    )
                    .unwrap();
                assert_eq!(reference, got, "block {block}, threads {threads}");
                assert_eq!(rng_after, rng, "master advance differs");
            }
        }
    }

    #[test]
    fn block_driver_reports_lowest_block_error() {
        for block in [1, 4, 16] {
            for threads in [1, 4] {
                let mut rng = Pcg32::seed_from_u64(0);
                let err = Engine::new(threads)
                    .run_particle_blocks_with(
                        40,
                        block,
                        &mut rng,
                        || (),
                        |_, _, first, len, out: &mut Vec<u64>| -> Result<(), u64> {
                            for i in 0..len {
                                let idx = first + i as u64;
                                if idx % 13 == 7 {
                                    return Err(idx);
                                }
                                out.push(idx);
                            }
                            Ok(())
                        },
                    )
                    .unwrap_err();
                assert_eq!(err, 7, "block {block}, threads {threads}");
            }
        }
    }

    #[test]
    fn degenerate_counts_and_thread_clamping() {
        let job = |i: usize, _: &mut Pcg32| -> Result<usize, ()> { Ok(i) };
        let mut rng = Pcg32::seed_from_u64(0);
        assert_eq!(
            Engine::new(0).num_threads(),
            1,
            "thread count clamps to one"
        );
        assert!(Engine::new(8)
            .run_particles(0, &mut rng, job)
            .unwrap()
            .is_empty());
        assert_eq!(
            Engine::new(8).run_particles(1, &mut rng, job).unwrap(),
            vec![0]
        );
        // More threads than jobs still covers every index exactly once.
        assert_eq!(
            Engine::new(64).run_particles(3, &mut rng, job).unwrap(),
            vec![0, 1, 2]
        );
    }
}
