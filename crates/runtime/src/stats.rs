//! Process-wide runtime instrumentation counters.
//!
//! Mirrors the discipline of `ppl_inference::counters`: plain relaxed
//! atomics, incremented at *scheduling* granularity — once per block or
//! per run, never per particle or per op.  The steady-state particle
//! loop is atomic-free (see the allocation-budget test); call sites
//! accumulate into a local `u64` and flush here at block boundaries, so
//! enabling these counters costs nothing measurable.
//!
//! The counters answer the observability questions the serving tier
//! cares about per request (reported as deltas around a run):
//!
//! * how many cooperative cancellation polls ([`CancelToken::check`])
//!   did the engine perform — a proxy for how responsive the run was to
//!   deadlines;
//! * how many times did the vectorised block executor split lanes at a
//!   branch and re-converge afterwards — a proxy for control-flow
//!   divergence in the model.
//!
//! [`CancelToken::check`]: crate::cancel::CancelToken::check

use std::sync::atomic::{AtomicU64, Ordering};

static CANCEL_CHECKS: AtomicU64 = AtomicU64::new(0);
static LANE_SPLITS: AtomicU64 = AtomicU64::new(0);
static LANE_RECONVERGES: AtomicU64 = AtomicU64::new(0);

/// Record `n` cooperative-cancellation polls.  Call once per block (or
/// per proposal batch) with a locally accumulated count — never from
/// inside the per-op loop.
pub fn record_cancel_checks(n: u64) {
    if n > 0 {
        CANCEL_CHECKS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Total cooperative-cancellation polls since process start.
pub fn cancel_checks() -> u64 {
    CANCEL_CHECKS.load(Ordering::Relaxed)
}

/// Record `n` lane splits: a vectorised block hit a branch whose
/// predicate diverged, partitioning live lanes into both arms.  Call
/// once per block with the block's count.
pub fn record_lane_splits(n: u64) {
    if n > 0 {
        LANE_SPLITS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Total lane splits since process start.
pub fn lane_splits() -> u64 {
    LANE_SPLITS.load(Ordering::Relaxed)
}

/// Record `n` lane re-convergences: both arms of a diverged branch
/// completed and the lanes rejoined lockstep execution.  Call once per
/// block with the block's count.
pub fn record_lane_reconverges(n: u64) {
    if n > 0 {
        LANE_RECONVERGES.fetch_add(n, Ordering::Relaxed);
    }
}

/// Total lane re-convergences since process start.
pub fn lane_reconverges() -> u64 {
    LANE_RECONVERGES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_independent() {
        let c0 = cancel_checks();
        let s0 = lane_splits();
        let r0 = lane_reconverges();
        record_cancel_checks(0);
        assert_eq!(cancel_checks(), c0, "zero-count flush is free");
        record_cancel_checks(17);
        record_lane_splits(2);
        record_lane_reconverges(1);
        assert!(cancel_checks() >= c0 + 17);
        assert!(lane_splits() >= s0 + 2);
        assert!(lane_reconverges() > r0);
    }
}
