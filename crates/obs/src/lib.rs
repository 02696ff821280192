//! **ppl-obs** — the flight recorder: spans, structured logs, and request
//! traces for the serving stack.  Plain `std`, zero dependencies, like
//! everything else in the workspace.
//!
//! Three pieces:
//!
//! * [`span`] — a fixed vocabulary of request [`Phase`]s and an RAII
//!   [`Span`] timer.  Spans feed the *ambient* trace of the current
//!   thread; when no trace is active, [`Span::enter`] is inert — it reads
//!   no clock and allocates nothing, which is what lets the engine hot
//!   loop carry span calls for free when tracing is off (proved by the
//!   repository's `alloc_budget` test).
//! * [`trace`] — the [`Recorder`]: per-(route, phase) lock-free log₂
//!   latency histograms plus one handler-time histogram per route (the
//!   source of every latency figure `/metrics` serves, traced or not), a
//!   bounded ring buffer of the last N completed request
//!   traces (behind `GET /v1/trace`), and engine-quality gauges (minimum
//!   ESS seen, worst acceptance rate).
//! * [`log`] — leveled structured logging: one JSON object per line on
//!   stderr, monotonic timestamps, rate-limited per (level, code) so an
//!   overload storm cannot turn the logger into the bottleneck.
//!
//! # Determinism
//!
//! Nothing in this crate touches an RNG or the inference engines' state.
//! Trace ids are derived from a hash of the request bytes plus a process
//! epoch counter ([`trace::request_hash`], [`Recorder::begin`]), so
//! enabling or disabling tracing can never perturb a bit-deterministic
//! result — the serving layer's byte-identity guarantees hold with the
//! recorder on or off.

pub mod log;
pub mod span;
pub mod trace;

pub use span::{Phase, Span, NUM_PHASES, PHASES};
pub use trace::{CompletedTrace, PhaseStat, Recorder, RoutePhaseStats, HIST_BINS};
