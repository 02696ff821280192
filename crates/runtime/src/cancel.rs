//! Cooperative cancellation, deadlines and execution ledgers.
//!
//! Inference runs can be long (millions of joint executions), and a server
//! wrapping the engine must be able to stop one *without* killing the
//! worker thread that carries it.  The mechanism here is a [`CancelToken`]:
//! a cheap, cloneable handle combining an optional shared context (the
//! cancel flag raised by [`CancelToken::cancel`], e.g. when the server
//! drains) with an optional absolute deadline.  The executor stores one
//! token and polls it at the natural work boundaries — once per scalar
//! joint execution, once per particle block, and once per op inside the
//! vectorised block loop — so an expired or cancelled request surfaces as
//! a structured [`RuntimeError`] within one block-step of wall time.
//!
//! The context is also its owner's execution ledger: each engine run
//! records the joint (and VI fit) executions it schedules into its token,
//! before any particle runs, so "a cache hit runs zero joint executions"
//! is proved against the owner's own runs, whatever else the process runs.
//! Under the `faults` feature it also holds a per-op stall.
//!
//! The default token ([`CancelToken::none`]) has neither context nor
//! deadline, records nothing, and its [`check`](CancelToken::check)
//! compiles down to two `Option` tests — the hot loops pay nothing when
//! cancellation is unused, which keeps the throughput benchmarks honest.
//!
//! Cancellation is *cooperative and lossy by design*: a cancelled run
//! returns an error instead of a result, and callers must not publish
//! partial work (the serving layer never writes a cancelled request's
//! result to its cache or artifact store).  Tokens deliberately do not
//! participate in result determinism: a run that completes before its
//! deadline is bit-identical to the same run with no deadline at all.

use crate::joint::RuntimeError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What every token derived from one [`CancelToken::new`] shares.
#[derive(Debug, Default)]
struct Shared {
    cancelled: AtomicBool,
    joint_executions: AtomicU64,
    vi_fit_executions: AtomicU64,
    #[cfg(feature = "faults")]
    op_stall_micros: AtomicU64,
}

/// A cheap run-context handle: an optional shared context (cancel flag and
/// execution ledger) plus an optional absolute deadline.
///
/// Clones share the context but each clone owns its deadline, so one
/// server-wide drain token can fan out into per-request tokens via
/// [`CancelToken::with_deadline`]: raising the drain flag cancels every
/// request at once, each request's own deadline expires independently, and
/// every request records into the drain token's ledger.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    shared: Option<Arc<Shared>>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never cancels, never expires and records nothing; its
    /// [`check`](CancelToken::check) is trivially `Ok` at the cost of two
    /// `Option` discriminant tests.
    pub fn none() -> Self {
        CancelToken::default()
    }

    /// A cancellable token with no deadline and a zeroed ledger.  Raise it
    /// with [`CancelToken::cancel`]; all clones observe the flag.
    pub fn new() -> Self {
        CancelToken {
            shared: Some(Arc::default()),
            deadline: None,
        }
    }

    /// A copy of this token sharing the same context but carrying
    /// `deadline` as its own absolute expiry.
    pub fn with_deadline(&self, deadline: Instant) -> Self {
        CancelToken {
            shared: self.shared.clone(),
            deadline: Some(deadline),
        }
    }

    /// A copy of this token sharing the same context and expiring
    /// `budget` from now.
    pub fn deadline_in(&self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }

    /// Raises the shared cancel flag; every clone's next
    /// [`check`](CancelToken::check) returns [`RuntimeError::Cancelled`].
    /// No-op on a token built without a context ([`CancelToken::none`]).
    pub fn cancel(&self) {
        if let Some(shared) = &self.shared {
            shared.cancelled.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the shared cancel flag has been raised (does not consult the
    /// deadline).
    pub fn is_cancelled(&self) -> bool {
        self.shared
            .as_ref()
            .is_some_and(|s| s.cancelled.load(Ordering::Relaxed))
    }

    /// Whether this token carries a context or a deadline at all — i.e.
    /// whether polling it can ever fail.
    pub fn is_armed(&self) -> bool {
        self.shared.is_some() || self.deadline.is_some()
    }

    /// Polls the token: [`RuntimeError::Cancelled`] when the shared flag is
    /// raised, [`RuntimeError::DeadlineExceeded`] when the deadline has
    /// passed, `Ok(())` otherwise.
    ///
    /// The flag is consulted before the deadline, so an explicit cancel
    /// (server drain) wins over a coincident expiry.
    #[inline]
    pub fn check(&self) -> Result<(), RuntimeError> {
        if let Some(shared) = &self.shared {
            if shared.cancelled.load(Ordering::Relaxed) {
                return Err(RuntimeError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(RuntimeError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Records `n` joint model–guide executions (particles, MH proposals,
    /// or VI mini-batch samples) an engine scheduled for one run.
    pub fn record_joint_executions(&self, n: usize) {
        self.add(|s| &s.joint_executions, n as u64);
    }

    /// Records `n` executions a VI optimiser scheduled for a *fit* (its
    /// mini-batches; the post-fit draw pass is joint executions only).
    pub fn record_vi_fit_executions(&self, n: usize) {
        self.add(|s| &s.vi_fit_executions, n as u64);
    }

    /// Joint executions recorded through every token sharing this one's
    /// context; 0 for [`CancelToken::none`].
    pub fn joint_executions(&self) -> u64 {
        self.read(|s| &s.joint_executions)
    }

    /// VI fit executions recorded through every token sharing this one's
    /// context; 0 for [`CancelToken::none`].
    pub fn vi_fit_executions(&self) -> u64 {
        self.read(|s| &s.vi_fit_executions)
    }

    /// Sets the sleep the vectorised block loop takes per op in every run
    /// carrying a token that shares this one's context (0 disables).
    #[cfg(feature = "faults")]
    pub fn set_op_stall_micros(&self, micros: u64) {
        if let Some(shared) = &self.shared {
            shared.op_stall_micros.store(micros, Ordering::SeqCst);
        }
    }

    /// The injection point: called once per op by the block interpreter
    /// (a zero stall returns without a syscall).
    #[cfg(feature = "faults")]
    pub(crate) fn stall_op(&self) {
        std::thread::sleep(Duration::from_micros(self.read(|s| &s.op_stall_micros)));
    }

    fn add(&self, counter: fn(&Shared) -> &AtomicU64, n: u64) {
        if let Some(shared) = &self.shared {
            counter(shared).fetch_add(n, Ordering::Relaxed);
        }
    }

    fn read(&self, counter: fn(&Shared) -> &AtomicU64) -> u64 {
        let load = |shared: &Shared| counter(shared).load(Ordering::Relaxed);
        self.shared.as_deref().map_or(0, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_fails() {
        let token = CancelToken::none();
        assert!(!token.is_armed());
        assert!(!token.is_cancelled());
        token.cancel(); // no-op
        assert!(token.check().is_ok());
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(clone.check().is_ok());
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.check(), Err(RuntimeError::Cancelled));
    }

    #[test]
    fn deadline_expires() {
        let token = CancelToken::none().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_armed());
        assert_eq!(token.check(), Err(RuntimeError::DeadlineExceeded));
        let future = CancelToken::none().deadline_in(Duration::from_secs(3600));
        assert!(future.check().is_ok());
    }

    #[test]
    fn derived_deadline_tokens_share_the_flag() {
        let drain = CancelToken::new();
        let request = drain.deadline_in(Duration::from_secs(3600));
        assert!(request.check().is_ok());
        drain.cancel();
        // The explicit cancel wins over the (distant) deadline.
        assert_eq!(request.check(), Err(RuntimeError::Cancelled));
    }

    #[test]
    fn clones_and_derived_deadline_tokens_share_the_ledger() {
        let owner = CancelToken::new();
        let clone = owner.clone();
        let request = owner.deadline_in(Duration::from_secs(3600));
        clone.record_joint_executions(3);
        request.record_joint_executions(0);
        request.record_joint_executions(4);
        for token in [&owner, &clone, &request] {
            assert_eq!(token.joint_executions(), 7);
        }
    }

    #[test]
    fn none_token_records_nothing() {
        let token = CancelToken::none();
        token.record_joint_executions(5);
        token.record_vi_fit_executions(5);
        assert_eq!(token.joint_executions(), 0);
        assert_eq!(token.vi_fit_executions(), 0);
        let derived = token.deadline_in(Duration::from_secs(3600));
        derived.record_joint_executions(5);
        assert_eq!(derived.joint_executions(), 0);
    }

    #[test]
    fn joint_and_fit_counts_move_independently() {
        let token = CancelToken::new();
        token.record_vi_fit_executions(5);
        assert_eq!(token.vi_fit_executions(), 5);
        assert_eq!(token.joint_executions(), 0);
        token.record_joint_executions(2);
        assert_eq!(token.vi_fit_executions(), 5);
        assert_eq!(token.joint_executions(), 2);
    }

    #[test]
    fn separate_tokens_share_nothing() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.record_joint_executions(3);
        a.record_vi_fit_executions(2);
        a.cancel();
        assert_eq!((b.joint_executions(), b.vi_fit_executions()), (0, 0));
        assert!(b.check().is_ok());
    }

    #[cfg(feature = "faults")]
    #[test]
    fn op_stall_belongs_to_one_context() {
        let stalled = CancelToken::new();
        let request = stalled.deadline_in(Duration::from_secs(3600));
        let other = CancelToken::new();
        stalled.set_op_stall_micros(100_000);
        let started = Instant::now();
        other.stall_op();
        CancelToken::none().stall_op();
        assert!(started.elapsed() < Duration::from_millis(100));
        let started = Instant::now();
        request.stall_op();
        assert!(started.elapsed() >= Duration::from_millis(100));
    }
}
