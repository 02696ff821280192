//! The neighbour of the zero-execution proofs: a second `App` in the same
//! process that runs uncached inference back to back while a proof reads
//! its own app's execution ledger.  A proof that read a process-wide count
//! instead would see the neighbour's runs and fail.

use ppl_serve::{App, Registry, Request};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A small VI query on `weight`: every run schedules both fit and draw
/// executions, so it moves every count a proof reads.
const NEIGHBOUR_QUERY: &str = r#"{"model":"weight","observations":[9.0,9.0],"seed":5,
    "method":{"algorithm":"vi","iterations":20,"samples_per_iteration":4,"draw_particles":100}}"#;

/// Raises the stop flag when dropped, so a panicking proof still stops the
/// neighbour and the scope can join it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `proof` while a neighbour thread runs inference on a second `App`,
/// and returns `proof`'s result after the neighbour has stopped.
///
/// The proof starts after the neighbour's first runs.  `proof` gets an
/// `overlap` callback that returns once the neighbour has run a whole
/// query since the call, so a ledger window closed after `overlap()`
/// contains at least one neighbour run.  Assert on the returned values,
/// after the neighbour stopped.
pub fn beside_a_neighbour<R>(proof: impl FnOnce(&dyn Fn()) -> R) -> R {
    let neighbour_app = App::new(Registry::from_benchmarks(), 0); // cache off: every query runs
    let stop = AtomicBool::new(false);
    let runs = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let neighbour = scope.spawn(|| {
            let handler = neighbour_app.handler();
            while !stop.load(Ordering::Relaxed) {
                let response = handler(&Request {
                    method: "POST".into(),
                    path: "/v1/query".into(),
                    query: None,
                    headers: Vec::new(),
                    body: NEIGHBOUR_QUERY.as_bytes().to_vec(),
                });
                assert_eq!(
                    response.status,
                    200,
                    "{}",
                    String::from_utf8_lossy(&response.body)
                );
                runs.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Two completions after the call: the second run started after it.
        let overlap = || {
            let target = runs.load(Ordering::Relaxed) + 2;
            while runs.load(Ordering::Relaxed) < target && !neighbour.is_finished() {
                std::thread::yield_now();
            }
        };
        let _stop = StopOnDrop(&stop);
        overlap();
        proof(&overlap)
    })
}
